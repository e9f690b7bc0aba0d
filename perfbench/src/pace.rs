//! The host's pace: a fixed piece of work of the benchmark's own, timed
//! between set-ups and passes, that turns host seconds into nominal seconds.
//!
//! The benchmark shares its machine with other tenants, and the machine's
//! speed drifts with their load: on a 2-vCPU Xeon guest a pure integer loop
//! took 54% longer at one time than twenty minutes earlier, with under 1% of
//! the time stolen by the hypervisor, and every workload's passes slowed by
//! as much or more. Drift that slow cannot be averaged out within a run, and
//! it moves the medians of two sets of runs apart by more than any useful
//! bound. So the benchmark times [`unit`] — work that no change to the
//! program can speed up or slow down — for about [`SHARE`] of its host time,
//! spread over the run, and multiplies the run's host seconds by
//! [`scale`]: [`UNIT_NOMINAL_S`] ÷ the run's median unit time. A time then
//! reads as it would on a host where one unit takes [`UNIT_NOMINAL_S`]. The
//! raw host seconds and the unit times are on the metadata line.

use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::stats;

/// Host seconds one [`unit`] takes on the nominal host (about its time on a
/// 2-vCPU Intel Xeon guest while the neighbours were quiet).
pub const UNIT_NOMINAL_S: f64 = 0.010;

/// Share of the benchmark's host time spent timing [`unit`].
pub const SHARE: f64 = 0.04;

/// Iterations of one unit.
const UNIT_STEPS: u64 = 1_600_000;

/// Entries of the unit's table: 256 KiB, which fits a core's private
/// caches, so the unit times the core rather than the shared memory system.
const TABLE_LEN: usize = 1 << 15;

/// Host seconds of every unit of this process.
static UNITS: Mutex<Vec<f64>> = Mutex::new(Vec::new());
/// Host seconds of work done and not yet paced, times [`SHARE`].
static OWED_S: Mutex<f64> = Mutex::new(0.0);
/// Threads each unit runs on.
static THREADS: AtomicUsize = AtomicUsize::new(1);

/// Runs every later unit on `threads` threads at once, one copy of the work
/// each: as many as the measured passes keep busy. Two busy vCPUs can share
/// a physical core for minutes at a time, and only a unit that keeps both
/// busy too slows down with them.
pub fn set_threads(threads: usize) {
    THREADS.store(threads.max(1), Ordering::Relaxed);
}

/// One unit: [`walk`] on each of the [`set_threads`] threads at once.
/// Returns its host seconds.
pub fn unit() -> f64 {
    let threads = THREADS.load(Ordering::Relaxed);
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 1..threads {
            scope.spawn(walk);
        }
        walk();
    });
    start.elapsed().as_secs_f64()
}

/// The unit's work on one thread: a data-dependent walk that reads,
/// branches on and writes a table.
fn walk() {
    let mut table = vec![0u64; TABLE_LEN];
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    for step in 0..UNIT_STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let slot = &mut table[(x as usize) & (TABLE_LEN - 1)];
        if *slot & 1 == 0 {
            *slot = slot.wrapping_add(x ^ step);
        } else {
            x = x.rotate_left((*slot & 31) as u32);
        }
    }
    black_box(&table);
}

/// Records `busy_s` host seconds of benchmark work and runs units until the
/// time spent on units is [`SHARE`] of the work recorded so far.
pub fn keep_up(busy_s: f64) {
    let mut owed = OWED_S.lock().expect("pace lock");
    *owed += busy_s * SHARE;
    while *owed > 0.0 {
        let seconds = unit();
        UNITS.lock().expect("pace lock").push(seconds);
        *owed -= seconds;
    }
}

/// Host seconds of every unit so far.
pub fn unit_samples() -> Vec<f64> {
    UNITS.lock().expect("pace lock").clone()
}

/// The factor that turns this run's host seconds into nominal seconds:
/// [`UNIT_NOMINAL_S`] ÷ the median unit time (1 when no unit ran).
pub fn scale() -> f64 {
    let units = unit_samples();
    if units.is_empty() {
        1.0
    } else {
        UNIT_NOMINAL_S / stats::median(&units)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_second_of_work_runs_at_least_one_unit() {
        // Whatever earlier calls left owed is at most one unit's time, so a
        // second of work always owes at least one more unit.
        let before = unit_samples().len();
        keep_up(1.0);
        let units = unit_samples();
        assert!(units.len() > before);
        let slowest = units.iter().copied().fold(0.0, f64::max);
        let fastest = units.iter().copied().fold(f64::INFINITY, f64::min);
        assert!((UNIT_NOMINAL_S / slowest..=UNIT_NOMINAL_S / fastest).contains(&scale()));
    }
}
