//! Sharded-commit fixture: a sharded selection pattern, in both the shape
//! the `thread_accumulation` rule must flag and the commit-point shape it
//! must accept. Not compiled — read as text by tests/analyzer.rs.
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// The hazardous shape: shard workers fold their picks into shared state
/// as they go, so counter values and pick order depend on thread
/// interleaving. Every line below must fire.
pub fn sharded_select_accumulating(shards: &[Shard], stats: &SharedStats) {
    std::thread::scope(|s| {
        for shard in shards {
            s.spawn(|| {
                for pick in shard.select_all() {
                    stats.insts_issued.fetch_add(1, Ordering::Relaxed);
                    stats.picks.lock().unwrap().push(pick);
                }
            });
        }
    });
}

pub struct SharedStats {
    pub insts_issued: AtomicU64,
    pub picks: Mutex<Vec<u32>>,
}

/// The commit-point shape: workers write
/// selections into disjoint spans of a pre-sized pick buffer (per-index
/// slots, no shared mutable state), and a single serial pass afterwards
/// applies every side effect in ascending shard order. Nothing here may
/// fire — the scan over this function must be clean.
pub fn sharded_select_commit_point(shards: &[Shard], picks: &mut [u32], stats: &mut Stats) {
    std::thread::scope(|s| {
        for (shard, span) in shards.iter().zip(picks.chunks_mut(1)) {
            s.spawn(move || span[0] = shard.select());
        }
    });
    // Serial commit: deterministic order, plain &mut accumulation.
    for &pick in picks.iter() {
        stats.insts_issued += u64::from(pick != u32::MAX);
    }
}
