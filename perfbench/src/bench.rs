//! The harness shared by every workload: repeated set-up, the closed-loop
//! measured phase, correctness bookkeeping and the result line.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::Instant;

use perf_envelope::json::Json;

use crate::args::{Args, WorkloadName};
use crate::layers::{self, ratio, LayerSample};
use crate::pace;
use crate::stats;
use crate::trace::Tracer;

/// Set-up runs at least this many times per run; `setup_s` is the median.
pub const SETUP_MIN_REPEATS: usize = 3;
/// Set-ups repeat until this much host time has passed, so that their
/// median spans the host's speed swings, which last about a second.
pub const SETUP_MIN_SECONDS: f64 = 3.0;
/// Set-up never repeats more often than this.
pub const SETUP_MAX_REPEATS: usize = 100;

/// A timing sample is a block of consecutive passes lasting at least this
/// long, valued at its mean pass time: passes this long or longer are
/// samples on their own, while millisecond passes are averaged so that one
/// pass preempted by the host does not set the tail.
pub const SAMPLE_MIN_S: f64 = 0.25;

/// Directory (under the working directory) for the files a run writes: the
/// persisted study cache while it runs, and the Chrome trace of a traced run.
pub const WORK_DIR: &str = ".perfbench";

/// Expected result digests per workload and seed: the default seed and one
/// held-out seed.
const EXPECTED_DIGESTS: &str = include_str!("../expected_digests.json");

/// The expected digest of `workload` at `seed`, when one is recorded.
pub fn expected_digest(workload: WorkloadName, seed: u64) -> Option<String> {
    let doc = Json::parse(EXPECTED_DIGESTS).expect("expected_digests.json must parse");
    doc.get(workload.name())?
        .get(&seed.to_string())?
        .as_str()
        .map(str::to_string)
}

/// Wall-clock seconds `f` takes, with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let out = f();
    (start.elapsed().as_secs_f64(), out)
}

/// Runs `setup` [`SETUP_MIN_REPEATS`] times, then again until
/// [`SETUP_MIN_SECONDS`] have passed or [`SETUP_MAX_REPEATS`] runs are done,
/// and returns every set-up's time and the last result.
pub fn repeated_setup<T>(mut setup: impl FnMut() -> T) -> (Vec<f64>, T) {
    let mut times: Vec<f64> = Vec::new();
    loop {
        let (seconds, value) = timed(&mut setup);
        times.push(seconds);
        pace::keep_up(seconds);
        let enough = times.len() >= SETUP_MIN_REPEATS
            && (times.iter().sum::<f64>() >= SETUP_MIN_SECONDS || times.len() >= SETUP_MAX_REPEATS);
        if enough {
            return (times, value);
        }
    }
}

/// What one measured pass did, as the checks saw it.
#[derive(Debug, Clone, PartialEq)]
pub struct PassCheck {
    /// Operations the pass attempted: cells, capacity probes, fleet runs.
    pub operations: u64,
    /// Failed correctness checks, each described in one line.
    pub problems: Vec<String>,
    /// Digest of the pass's canonical results.
    pub digest: String,
}

/// The accumulated measured phase of a run.
#[derive(Debug, Default)]
pub struct Measured {
    /// Host seconds of each timed pass.
    pub pass_s: Vec<f64>,
    /// Host seconds of the untimed warm-up pass.
    pub warmup_s: Option<f64>,
    /// Peak resident memory in MB after set-up and the warm-up pass.
    pub peak_rss_mb: f64,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    pub digests: Vec<String>,
}

impl Measured {
    /// Records one pass: `pass` returns its time and its checks; a panic
    /// fails `nominal_ops` operations.
    pub fn record(&mut self, nominal_ops: u64, pass: impl FnOnce() -> (f64, PassCheck)) {
        match catch_unwind(AssertUnwindSafe(pass)) {
            Ok((seconds, check)) => {
                self.pass_s.push(seconds);
                pace::keep_up(seconds);
                // A pass that fails any check counts all its operations.
                self.add_checked(check.operations, check.problems);
                self.digests.push(check.digest);
            }
            Err(_) => {
                self.attempted += nominal_ops;
                self.failed += nominal_ops;
                self.problems.push("a pass panicked".to_string());
            }
        }
    }

    /// Records operations checked outside a timed pass (a traced run's).
    pub fn add_checked(&mut self, operations: u64, problems: Vec<String>) {
        self.attempted += operations;
        if !problems.is_empty() {
            self.failed += operations;
            self.problems.extend(problems);
        }
    }

    /// Checks that every pass agreed with `reference` (the digest the
    /// set-up or the reference pass computed) and with the recorded
    /// expected digest for this workload and seed.
    pub fn check_digests(&mut self, reference: &str, expected: Option<&str>) {
        let disagreeing = self.digests.iter().filter(|d| *d != reference).count();
        if disagreeing > 0 {
            self.problems.push(format!(
                "{disagreeing} passes disagree with digest {reference}"
            ));
            self.failed = self.attempted;
        }
        if let Some(expected) = expected {
            if expected != reference {
                self.problems.push(format!(
                    "digest {reference} differs from the expected {expected}"
                ));
                self.failed = self.attempted;
            }
        }
    }
}

/// The measured phase. One untraced warm-up pass runs first, checked like
/// the others but not timed: the first pass of a process pays for
/// first-touch page faults and cold allocator arenas. An untraced run then
/// repeats untraced passes for `args.seconds` (at least one), stopping
/// where, by the last pass's time, the phase ends nearest the deadline, so
/// that a run's length does not depend on where the last pass falls. A traced
/// run alternates an untraced and a traced pass the same way, and each
/// traced sample records the pair's tracing overhead.
pub fn measure(
    args: &Args,
    nominal_ops: u64,
    mut untraced: impl FnMut() -> (f64, PassCheck),
    mut traced: impl FnMut(&mut Measured) -> LayerSample,
) -> (Measured, Vec<LayerSample>) {
    let mut measured = Measured::default();
    let mut samples = Vec::new();
    measured.record(nominal_ops, &mut untraced);
    measured.warmup_s = measured.pass_s.pop();
    // Read before the repeated passes: heap fragmentation over a run's
    // dozens of passes lifts the process's peak by 15% on some runs and not
    // on others, which says nothing about the memory one study needs.
    measured.peak_rss_mb = crate::host::peak_rss_mb();
    let start = Instant::now();
    loop {
        let round = Instant::now();
        measured.record(nominal_ops, &mut untraced);
        if args.trace {
            let untraced_s = measured.pass_s.last().copied().unwrap_or(0.0);
            match catch_unwind(AssertUnwindSafe(|| traced(&mut measured))) {
                Ok(mut sample) => {
                    let overhead = ratio(sample["trace.pass_s"], untraced_s) - 1.0;
                    sample.insert("trace.untraced_pass_s", untraced_s);
                    sample.insert("trace.overhead_share", overhead);
                    samples.push(sample);
                }
                Err(_) => {
                    measured.add_checked(nominal_ops, vec!["a traced pass panicked".to_string()])
                }
            }
        }
        // Stop where the measured phase ends nearest the deadline.
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed + round.elapsed().as_secs_f64() / 2.0 > args.seconds {
            return (measured, samples);
        }
    }
}

/// Turns the measured phase into the run's result: checks every digest
/// against `reference` and the recorded expected digest, then adds the
/// end-to-end metrics (untraced run) or the per-layer ones (traced run).
pub fn outcome(
    args: &Args,
    mut measured: Measured,
    reference: String,
    end_to_end: EndToEnd,
    tracer: &Tracer,
    samples: &[LayerSample],
) -> Outcome {
    let expected = expected_digest(args.workload, args.seed);
    measured.check_digests(&reference, expected.as_deref());
    let pass_s = measured.pass_s.clone();
    let (warmup_s, peak_rss_mb) = (measured.warmup_s, measured.peak_rss_mb);
    let mut out = Outcome::new(measured);
    out.meta.set("digest", Json::Str(reference));
    if let Some(warmup_s) = warmup_s {
        out.meta.set("warmup_s", Json::Num(warmup_s));
    }
    if args.trace {
        layers::finish(&mut out, args, tracer, samples);
    } else if !pass_s.is_empty() {
        end_to_end.report(&mut out, &pass_s, peak_rss_mb);
    }
    out
}

/// The run's result: correctness counts, metrics and metadata.
#[derive(Debug)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    /// Metric name → (value, unit), printed in name order.
    pub metrics: BTreeMap<String, (f64, &'static str)>,
    /// Workload-specific facts printed on the metadata line.
    pub meta: Json,
}

impl Outcome {
    pub fn new(measured: Measured) -> Self {
        Outcome {
            attempted: measured.attempted.max(1),
            failed: if measured.attempted == 0 {
                1
            } else {
                measured.failed
            },
            problems: measured.problems,
            metrics: BTreeMap::new(),
            meta: Json::object(),
        }
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.insert(name.to_string(), (value, unit));
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// The last line of standard output.
    pub fn result_line(&self) -> String {
        let mut metrics = Json::object();
        for (name, &(value, unit)) in &self.metrics {
            let mut entry = Json::object();
            entry.set("value", Json::Num(value));
            entry.set("unit", Json::Str(unit.to_string()));
            metrics.set(name, entry);
        }
        let mut doc = Json::object();
        doc.set("correct", Json::Bool(self.correct()));
        doc.set("attempted", Json::UInt(self.attempted));
        doc.set("failed", Json::UInt(self.failed));
        doc.set("metrics", metrics);
        doc.render()
    }
}

/// The work directory, created on demand.
pub fn work_dir() -> std::io::Result<PathBuf> {
    let dir = PathBuf::from(WORK_DIR);
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// Metrics every workload reports from its untraced run.
pub struct EndToEnd {
    /// Host seconds of each set-up.
    pub setup_s: Vec<f64>,
    /// Cells priced (simulated or served from cache) per pass.
    pub cells_per_pass: f64,
    /// Simulated requests per pass.
    pub requests_per_pass: f64,
}

impl EndToEnd {
    /// Adds the end-to-end metrics. Times are nominal seconds: host seconds
    /// times [`pace::scale`]. The metadata line gives the host seconds.
    pub fn report(&self, out: &mut Outcome, pass_s: &[f64], peak_rss_mb: f64) {
        let scale = pace::scale();
        let host_samples = stats::block_means(pass_s, SAMPLE_MIN_S);
        let samples: Vec<f64> = host_samples.iter().map(|s| s * scale).collect();
        let study_s = stats::median(&samples);
        let tail = stats::tail(&samples);
        let host_setup_s = stats::median(&self.setup_s);
        out.metric("setup_s", host_setup_s * scale, "s");
        out.metric("study_s", study_s, "s");
        out.metric("study_tail_s", tail.value, "s");
        out.metric("cells_per_s", self.cells_per_pass / study_s, "1/s");
        out.metric(
            "sim_requests_per_s",
            self.requests_per_pass / study_s,
            "1/s",
        );
        out.metric("peak_rss_mb", peak_rss_mb, "MB");
        let seconds = |samples: &[f64]| Json::Arr(samples.iter().map(|&s| Json::Num(s)).collect());
        out.meta.set("setup_samples_s", seconds(&self.setup_s));
        out.meta.set("pass_s", seconds(pass_s));
        out.meta.set("host_setup_s", Json::Num(host_setup_s));
        out.meta
            .set("host_study_s", Json::Num(stats::median(&host_samples)));
        out.meta.set("pace_unit_s", seconds(&pace::unit_samples()));
        out.meta.set("pace_scale", Json::Num(scale));
        out.meta
            .set("study_tail_percentile", Json::Num(tail.percentile));
        out.meta
            .set("study_tail_samples", Json::UInt(tail.samples as u64));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The held-out seed: its digests were recorded but never used to tune
    /// the benchmark.
    const HELD_OUT_SEED: u64 = 9;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut out = Outcome::new(Measured {
            attempted: 3,
            ..Measured::default()
        });
        out.metric("study_s", 1.25, "s");
        let doc = Json::parse(&out.result_line()).unwrap();
        let Json::Obj(map) = &doc else {
            panic!("not an object")
        };
        let keys: Vec<&str> = map.keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
        let metric = doc.get("metrics").unwrap().get("study_s").unwrap();
        assert_eq!(metric.get("value").unwrap().as_f64(), Some(1.25));
    }

    #[test]
    fn a_failed_check_fails_the_whole_pass() {
        let mut measured = Measured::default();
        measured.record(5, || {
            (
                1.0,
                PassCheck {
                    operations: 5,
                    problems: vec!["wrong".to_string()],
                    digest: "d".to_string(),
                },
            )
        });
        assert_eq!((measured.attempted, measured.failed), (5, 5));
        let out = Outcome::new(measured);
        assert!(!out.correct());
    }

    #[test]
    fn a_panicking_pass_counts_as_failed() {
        let mut measured = Measured::default();
        measured.record(7, || panic!("a deliberately panicking pass"));
        assert_eq!((measured.attempted, measured.failed), (7, 7));
    }

    #[test]
    fn the_warm_up_pass_is_checked_but_not_timed() {
        let args = Args {
            workload: WorkloadName::StudyWarm,
            seed: 1,
            seconds: 0.0,
            trace: false,
        };
        let mut passes = 0;
        let (measured, samples) = measure(
            &args,
            3,
            || {
                passes += 1;
                let check = PassCheck {
                    operations: 3,
                    problems: Vec::new(),
                    digest: "d".to_string(),
                };
                (passes as f64, check)
            },
            |_| unreachable!("an untraced run runs no traced pass"),
        );
        assert_eq!(measured.warmup_s, Some(1.0));
        assert_eq!(measured.pass_s, [2.0]);
        assert_eq!((measured.attempted, measured.failed), (6, 0));
        assert_eq!(measured.digests.len(), 2);
        assert!(samples.is_empty());
    }

    #[test]
    fn expected_digests_cover_the_default_and_held_out_seeds() {
        for workload in WorkloadName::ALL {
            for seed in [crate::args::DEFAULT_SEED, HELD_OUT_SEED] {
                let digest = expected_digest(workload, seed).expect("digest recorded");
                assert_eq!(digest.len(), 16, "{workload} seed {seed}");
            }
        }
        assert_eq!(expected_digest(WorkloadName::StudyWarm, 12345), None);
    }

    #[test]
    fn digests_must_agree_and_match_the_expected_one() {
        let mut measured = Measured {
            attempted: 2,
            digests: vec!["a".to_string(), "a".to_string()],
            ..Measured::default()
        };
        measured.check_digests("a", Some("a"));
        assert_eq!(measured.failed, 0);
        measured.check_digests("a", Some("b"));
        assert_eq!(measured.failed, 2);
        let mut split = Measured {
            attempted: 2,
            digests: vec!["a".to_string(), "b".to_string()],
            ..Measured::default()
        };
        split.check_digests("a", None);
        assert_eq!(split.failed, 2);
    }
}
