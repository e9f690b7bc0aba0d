//! Sharding invariants and the single-device equivalence safety net.
//!
//! The topology refactor's contract: a sharded workload on a **single-device
//! cluster** with a trivial plan must reproduce today's unsharded
//! [`RunReport`] **bit-exactly** — same latency, same table breakdown, same
//! NCU counters — for every strategy, dataset shape, scheme and engine
//! mode. On multi-device clusters, plans must be deterministic and cover
//! every table exactly once, the reported critical path must equal the
//! per-device latency maximum, degenerate (empty) shards must be rejected,
//! and per-shard cells must hit the [`CampaignCache`] individually.

use dlrm::WorkloadScale;
use dlrm_datasets::{AccessPattern, HeterogeneousMix, MixKind};
use gpu_sim::{EngineMode, GpuConfig};
use perf_envelope::{
    Campaign, CampaignCache, Cluster, Experiment, InterconnectConfig, RunReport, Scheme,
    ShardingSpec, Workload,
};

fn exp() -> Experiment {
    Experiment::new(GpuConfig::test_small(), WorkloadScale::Test)
}

fn cluster(n: usize) -> Cluster {
    Cluster::homogeneous(GpuConfig::test_small(), n, InterconnectConfig::nvlink3())
}

/// The sharded report minus the topology breakdown, for field-by-field
/// comparison with an unsharded report (which never carries one).
fn strip_devices(mut report: RunReport) -> RunReport {
    report.devices = None;
    report
}

#[test]
fn single_device_cluster_is_bit_exact_with_unsharded() {
    let workloads = [
        Workload::stage(AccessPattern::HighHot),
        Workload::stage(AccessPattern::Random),
        Workload::stage(HeterogeneousMix::paper_mix(MixKind::Mix2, 0.02)),
        Workload::end_to_end(AccessPattern::MedHot),
        Workload::end_to_end(HeterogeneousMix::paper_mix(MixKind::Mix1, 0.02)),
    ];
    for workload in &workloads {
        for scheme in [Scheme::base(), Scheme::combined()] {
            let unsharded = exp().run(workload, &scheme);
            for spec in ShardingSpec::ALL {
                let sharded = exp()
                    .with_cluster(Cluster::single(GpuConfig::test_small()))
                    .run(&workload.clone().with_sharding(spec), &scheme);
                let devices = sharded
                    .devices
                    .clone()
                    .expect("sharded runs report devices");
                assert_eq!(devices.num_devices(), 1);
                assert_eq!(
                    devices.all_to_all_us, 0.0,
                    "a single device transfers nothing"
                );
                assert_eq!(devices.critical_path_us, devices.per_device[0].embedding_us);
                assert_eq!(
                    strip_devices(sharded),
                    unsharded,
                    "1-device {spec} run diverged from the unsharded path on {workload}"
                );
            }
        }
    }
}

#[test]
fn single_device_equivalence_holds_in_the_cycle_accurate_engine_too() {
    let workload = Workload::stage(HeterogeneousMix::paper_mix(MixKind::Mix3, 0.02));
    let unsharded = exp()
        .with_engine_mode(EngineMode::CycleAccurate)
        .run(&workload, &Scheme::optmt());
    let sharded = exp().with_engine_mode(EngineMode::CycleAccurate).run(
        &workload.clone().with_sharding(ShardingSpec::RoundRobin),
        &Scheme::optmt(),
    );
    assert_eq!(strip_devices(sharded), unsharded);
}

#[test]
fn plans_are_deterministic_and_cover_every_table_exactly_once() {
    let mixes = [
        HeterogeneousMix::paper_mix(MixKind::Mix1, 0.1),
        HeterogeneousMix::paper_mix(MixKind::Mix2, 1.0),
        HeterogeneousMix::homogeneous(AccessPattern::MedHot, 16),
    ];
    for mix in &mixes {
        for spec in ShardingSpec::ALL {
            for n in [1usize, 2, 4, 8] {
                let plan = spec.plan(mix, n);
                assert_eq!(plan, spec.plan(mix, n), "{spec} plan must be deterministic");
                assert_eq!(plan.num_devices(), n);
                let mut seen: Vec<u32> = plan.assignments().iter().flatten().copied().collect();
                seen.sort_unstable();
                assert_eq!(
                    seen,
                    (0..mix.total_tables()).collect::<Vec<_>>(),
                    "{spec} over {n} devices must cover every table of {} exactly once",
                    mix.name()
                );
                for d in 0..n {
                    assert!(!plan.device_tables(d).is_empty(), "no shard may be empty");
                }
            }
        }
    }
}

#[test]
fn reported_critical_path_is_the_per_device_latency_max() {
    for n in [2usize, 4] {
        for spec in ShardingSpec::ALL {
            let report = exp().with_cluster(cluster(n)).run(
                &Workload::stage(HeterogeneousMix::paper_mix(MixKind::Mix2, 0.1))
                    .with_sharding(spec),
                &Scheme::base(),
            );
            let devices = report.devices.expect("sharded runs report devices");
            let max = devices
                .per_device
                .iter()
                .map(|d| d.embedding_us)
                .fold(0.0f64, f64::max);
            assert_eq!(
                devices.critical_path_us, max,
                "{spec}/{n}: critical path must be the per-device max"
            );
            assert_eq!(
                report.latency_us,
                devices.critical_path_us + devices.all_to_all_us,
                "{spec}/{n}: stage latency must be critical path + all-to-all"
            );
        }
    }
}

#[test]
#[should_panic(expected = "empty shards")]
fn more_devices_than_tables_is_rejected() {
    // The Test-scale model has 2 tables; 4 devices would leave empty shards.
    let _ = exp().with_cluster(cluster(4)).run(
        &Workload::stage(AccessPattern::MedHot).with_sharding(ShardingSpec::RoundRobin),
        &Scheme::base(),
    );
}

#[test]
#[should_panic(expected = "cannot be sharded")]
fn kernel_workloads_cannot_be_sharded() {
    let _ = Workload::kernel(AccessPattern::MedHot).with_sharding(ShardingSpec::RoundRobin);
}

#[test]
#[should_panic(expected = "at least one device")]
fn empty_clusters_are_rejected() {
    let _ = Cluster::new(vec![], InterconnectConfig::nvlink3());
}

#[test]
fn per_shard_cells_hit_the_cache_individually() {
    let cache = CampaignCache::new();
    // The cache simulates each cold cell once, so the hit/miss counts
    // below are exact at any worker count.
    let e = exp().with_cluster(cluster(2)).with_cache(cache.clone());
    let workload = Workload::stage(AccessPattern::HighHot);

    let first = e.run(
        &workload.clone().with_sharding(ShardingSpec::RoundRobin),
        &Scheme::base(),
    );
    // One top-level cell plus ONE shard cell: the two shards have identical
    // compositions on identical devices, so they dedup before execution.
    assert_eq!((cache.misses(), cache.hits()), (2, 0));

    // Re-running the identical cell is served at the top level.
    let again = e.run(
        &workload.clone().with_sharding(ShardingSpec::RoundRobin),
        &Scheme::base(),
    );
    assert_eq!(again, first);
    assert_eq!((cache.misses(), cache.hits()), (2, 1));

    // A different strategy that happens to produce the same plan (on a
    // homogeneous dataset every strategy balances identically) misses at
    // the top level but serves its shard cell from cache.
    let balanced = e.run(
        &workload.clone().with_sharding(ShardingSpec::SizeBalanced),
        &Scheme::base(),
    );
    assert_eq!((cache.misses(), cache.hits()), (3, 2));
    assert_eq!(balanced.latency_us, first.latency_us);
    assert_eq!(balanced.stats, first.stats);
}

#[test]
fn sharded_campaigns_are_thread_count_invariant() {
    let grid = |threads: usize| {
        Campaign::new(exp())
            .on_cluster(cluster(2))
            .workloads(ShardingSpec::ALL.map(|spec| {
                Workload::stage(HeterogeneousMix::paper_mix(MixKind::Mix2, 0.02))
                    .with_sharding(spec)
            }))
            .schemes([Scheme::base(), Scheme::optmt()])
            .threads(threads)
            .run()
    };
    let serial = grid(1);
    let parallel = grid(4);
    assert_eq!(serial, parallel);
    assert_eq!(serial.len(), 6);
}

#[test]
fn sharded_reports_round_trip_through_json() {
    let report = exp().with_cluster(cluster(2)).run(
        &Workload::end_to_end(HeterogeneousMix::paper_mix(MixKind::Mix2, 0.02))
            .with_sharding(ShardingSpec::HotCold),
        &Scheme::combined(),
    );
    let back = RunReport::from_json(&report.to_json()).unwrap();
    assert_eq!(back, report);
    assert_eq!(back.devices.unwrap().num_devices(), 2);
}

#[test]
fn persisted_cache_serves_sharded_cells_across_processes() {
    let cache = CampaignCache::new();
    let e = exp().with_cluster(cluster(2)).with_cache(cache.clone());
    let workload = Workload::stage(HeterogeneousMix::paper_mix(MixKind::Mix2, 0.02))
        .with_sharding(ShardingSpec::RoundRobin);
    let original = e.run(&workload, &Scheme::base());

    let path = std::env::temp_dir().join(format!(
        "perf-envelope-sharding-cache-{}.json",
        std::process::id()
    ));
    cache.save_to(&path).unwrap();
    let reloaded = CampaignCache::load_from(&path).unwrap();
    std::fs::remove_file(&path).ok();

    // A fresh experiment (as a new process would build) over the reloaded
    // cache serves the sharded cell without any re-simulation.
    let e2 = exp().with_cluster(cluster(2)).with_cache(reloaded.clone());
    let served = e2.run(&workload, &Scheme::base());
    assert_eq!(served, original);
    assert_eq!((reloaded.hits(), reloaded.misses()), (1, 0));
}
