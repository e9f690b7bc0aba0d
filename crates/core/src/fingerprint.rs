//! Canonical cell-fingerprint encoding for [`crate::CampaignCache`].
//!
//! A cache key must identify everything a [`crate::RunReport`] is a pure
//! function of: the full cluster topology (device configurations and
//! interconnect), the model configuration (which embeds the pooling
//! factor), scale, seed, tables-to-simulate, engine mode, workload
//! (including its sharding spec) and scheme. The key is a canonical JSON
//! encoding rendered through [`crate::json`] — objects keep their keys
//! sorted and floats render with shortest-round-trip formatting, so the
//! same cell produces byte-identical keys in every process, which is what
//! makes [`crate::CampaignCache::save_to`] / [`load_from`] usable for
//! cross-process incremental re-runs.
//!
//! # Coverage is checked by the compiler
//!
//! Every encoder that feeds a cell key opens with an exhaustive
//! destructuring — `let T { a, b, c } = self;`, no `..` — and each field
//! either reaches the key or is bound to `_` next to a one-line reason.
//! To add a knob to a config type, add the field: `cargo build` then fails
//! in that type's encoder until the field is encoded or exempted there.
//! The encoders of other crates' config types (whose fields are public)
//! live in this module; core types with private fields carry their
//! encoder in their own module, so no field has to become public:
//! [`Experiment::cell_doc`](crate::Experiment) (the root of every key),
//! `Cluster`, `InterconnectConfig`, `StreamConfig`, `FaultPlan`,
//! `FaultEvent`, `Workload`, `Scheme`, `L2Pinning`, and for fleet keys
//! `FleetSpec`, `RoutingPolicy`, `AutoscalePolicy` and `ReplicaGroup`.
//! A change to the rendered bytes orphans every persisted cache: bump
//! [`FINGERPRINT_SCHEMA`] when it is deliberate (the golden test
//! `cell_keys_are_byte_identical_to_v1` fails when it is not).
//!
//! The [`crate::serving`] layer's batch shapes ride on this encoding for
//! free: a priced batch is an experiment whose model carries the shape as
//! its batch size (`Experiment::with_batch_size`), and the batch size is
//! part of the model object below — so every distinct shape is a distinct
//! cell key and repeated shapes dedup in the cache.
//!
//! [`load_from`]: crate::CampaignCache::load_from

use dlrm::DlrmConfig;
use dlrm_datasets::TraceConfig;
use embedding_kernels::{EmbeddingConfig, PrefetchConfig};
use gpu_sim::{CacheConfig, DramConfig, GpuConfig};

use crate::fleet::{FleetSpec, ReplicaGroup};
use crate::json::Json;

/// Identifier of the fingerprint encoding; bump when the encoding changes
/// so persisted caches from older encodings are not silently misread.
pub(crate) const FINGERPRINT_SCHEMA: &str = "perf-envelope/cell-fingerprint/v1";

/// Renders the canonical key of one fleet cell: the replica-0 cell document
/// (`replica0`, built by [`Experiment::cell_doc`](crate::Experiment) from
/// the first replica group's pricing experiment) extended with a `fleet`
/// axis describing routing, autoscaling and the replica groups.
///
/// The identity fleet — one replica, round-robin routing, no autoscaling —
/// omits the `fleet` axis entirely, so its key is **byte-identical** to the
/// plain serving cell key of its one replica: a degenerate fleet shares
/// cells with the scenario it wraps, exactly like K=1 streams and the
/// empty fault plan omit their axes. Any other spec partitions cells
/// conservatively: distinct routing policies, autoscale rules or replica
/// mixes never alias each other.
pub(crate) fn fleet_key(
    mut replica0: Json,
    spec: &FleetSpec,
    groups: &[ReplicaGroup],
    identity: bool,
) -> String {
    if identity {
        return replica0.render();
    }
    let mut fleet = spec.to_json_value();
    fleet.set(
        "replicas",
        Json::Arr(groups.iter().map(ReplicaGroup::key_json).collect()),
    );
    replica0.set("fleet", fleet);
    replica0.render()
}

fn cache_to_json(cache: &CacheConfig) -> Json {
    let CacheConfig {
        capacity_bytes,
        line_bytes,
        associativity,
        hit_latency,
    } = cache;
    let mut doc = Json::object();
    doc.set("capacity_bytes", Json::UInt(*capacity_bytes));
    doc.set("line_bytes", Json::UInt(*line_bytes));
    doc.set("associativity", Json::UInt(*associativity as u64));
    doc.set("hit_latency", Json::UInt(*hit_latency));
    doc
}

fn dram_to_json(dram: &DramConfig) -> Json {
    let DramConfig {
        capacity_bytes,
        latency,
        peak_bandwidth_gbps,
    } = dram;
    let mut doc = Json::object();
    doc.set("capacity_bytes", Json::UInt(*capacity_bytes));
    doc.set("latency", Json::UInt(*latency));
    doc.set("peak_bandwidth_gbps", Json::Num(*peak_bandwidth_gbps));
    doc
}

pub(crate) fn gpu_to_json(gpu: &GpuConfig) -> Json {
    let GpuConfig {
        name,
        num_sms,
        smsps_per_sm,
        max_warps_per_sm,
        max_blocks_per_sm,
        registers_per_sm,
        register_alloc_granularity,
        warp_size,
        clock_ghz,
        shared_mem_per_sm,
        shared_mem_latency,
        register_latency,
        l1,
        l2,
        l2_max_persisting_fraction,
        dram,
        alu_latency,
        // A validation cap only: the co-residency that actually runs is the
        // experiment's stream configuration, encoded as the `streams` axis.
        max_concurrent_streams: _,
    } = gpu;
    let mut doc = Json::object();
    doc.set("name", Json::Str(name.clone()));
    doc.set("num_sms", Json::UInt(*num_sms as u64));
    doc.set("smsps_per_sm", Json::UInt(*smsps_per_sm as u64));
    doc.set("max_warps_per_sm", Json::UInt(*max_warps_per_sm as u64));
    doc.set("max_blocks_per_sm", Json::UInt(*max_blocks_per_sm as u64));
    doc.set("registers_per_sm", Json::UInt(*registers_per_sm as u64));
    doc.set(
        "register_alloc_granularity",
        Json::UInt(*register_alloc_granularity as u64),
    );
    doc.set("warp_size", Json::UInt(*warp_size as u64));
    doc.set("clock_ghz", Json::Num(*clock_ghz));
    doc.set("shared_mem_per_sm", Json::UInt(*shared_mem_per_sm));
    doc.set("shared_mem_latency", Json::UInt(*shared_mem_latency));
    doc.set("register_latency", Json::UInt(*register_latency));
    doc.set("l1", cache_to_json(l1));
    doc.set("l2", cache_to_json(l2));
    doc.set(
        "l2_max_persisting_fraction",
        Json::Num(*l2_max_persisting_fraction),
    );
    doc.set("dram", dram_to_json(dram));
    doc.set("alu_latency", Json::UInt(*alu_latency));
    doc
}

pub(crate) fn model_to_json(model: &DlrmConfig) -> Json {
    let DlrmConfig {
        bottom_mlp,
        top_mlp,
        num_tables,
        embedding,
    } = model;
    let layers = |sizes: &[u32]| Json::Arr(sizes.iter().map(|&n| Json::UInt(n as u64)).collect());
    let mut doc = Json::object();
    doc.set("bottom_mlp", layers(bottom_mlp));
    doc.set("top_mlp", layers(top_mlp));
    doc.set("num_tables", Json::UInt(*num_tables as u64));
    doc.set("embedding", embedding_to_json(embedding));
    doc
}

/// The `embedding` object: the embedding dimension with the trace shape
/// flattened in beside it.
fn embedding_to_json(embedding: &EmbeddingConfig) -> Json {
    let EmbeddingConfig {
        trace,
        embedding_dim,
    } = embedding;
    let TraceConfig {
        num_rows,
        batch_size,
        pooling_factor,
    } = trace;
    let mut doc = Json::object();
    doc.set("num_rows", Json::UInt(*num_rows));
    doc.set("batch_size", Json::UInt(*batch_size as u64));
    doc.set("pooling_factor", Json::UInt(*pooling_factor as u64));
    doc.set("embedding_dim", Json::UInt(*embedding_dim as u64));
    doc
}

pub(crate) fn prefetch_to_json(prefetch: &PrefetchConfig) -> Json {
    let PrefetchConfig { station, distance } = prefetch;
    let mut doc = Json::object();
    doc.set("station", Json::Str(station.abbreviation().to_string()));
    doc.set("distance", Json::UInt(*distance as u64));
    doc
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlrm::WorkloadScale;
    use dlrm_datasets::{AccessPattern, HeterogeneousMix, MixKind};

    use crate::runner::Experiment;
    use crate::scheme::Scheme;
    use crate::serving::FaultPlan;
    use crate::topology::{Cluster, InterconnectConfig, ShardingSpec, StreamConfig};
    use crate::workload::Workload;

    fn small() -> Experiment {
        Experiment::new(GpuConfig::test_small(), WorkloadScale::Test)
    }

    fn key(workload: &Workload, scheme: &Scheme) -> String {
        small().cell_fingerprint(workload, scheme)
    }

    fn key_with_streams(streams: StreamConfig, workload: &Workload, scheme: &Scheme) -> String {
        small()
            .with_streams(streams)
            .cell_fingerprint(workload, scheme)
    }

    fn key_with_faults(faults: FaultPlan, workload: &Workload, scheme: &Scheme) -> String {
        small()
            .with_faults(faults)
            .cell_fingerprint(workload, scheme)
    }

    #[test]
    fn keys_are_valid_canonical_json() {
        let k = key(
            &Workload::stage(HeterogeneousMix::paper_mix(MixKind::Mix2, 0.02)),
            &Scheme::combined(),
        );
        let parsed = Json::parse(&k).unwrap();
        assert_eq!(parsed.render(), k, "rendering must be canonical");
        assert_eq!(
            parsed.get("schema").and_then(Json::as_str),
            Some(FINGERPRINT_SCHEMA)
        );
    }

    #[test]
    fn every_axis_distinguishes_keys() {
        let base = key(&Workload::kernel(AccessPattern::MedHot), &Scheme::base());
        assert_ne!(
            base,
            key(&Workload::kernel(AccessPattern::Random), &Scheme::base())
        );
        assert_ne!(
            base,
            key(&Workload::kernel(AccessPattern::MedHot), &Scheme::optmt())
        );
        assert_ne!(
            base,
            key(&Workload::stage(AccessPattern::MedHot), &Scheme::base())
        );
        let sharded = key(
            &Workload::stage(AccessPattern::MedHot).with_sharding(ShardingSpec::RoundRobin),
            &Scheme::base(),
        );
        assert_ne!(
            sharded,
            key(&Workload::stage(AccessPattern::MedHot), &Scheme::base())
        );
        assert_ne!(
            sharded,
            key(
                &Workload::stage(AccessPattern::MedHot).with_sharding(ShardingSpec::HotCold),
                &Scheme::base(),
            )
        );
    }

    #[test]
    fn batch_shapes_distinguish_cells_through_the_model() {
        // The serving layer prices batch shapes via Experiment::with_batch_size;
        // the shape must (and does) reach the key through the model encoding.
        let workload = Workload::stage(AccessPattern::MedHot);
        let key_at = |batch: u32| {
            crate::runner::Experiment::new(GpuConfig::test_small(), WorkloadScale::Test)
                .with_batch_size(batch)
                .cell_fingerprint(&workload, &Scheme::base())
        };
        assert_ne!(key_at(64), key_at(256));
        assert_eq!(key_at(128), key_at(128));
    }

    #[test]
    fn single_device_clusters_encode_like_plain_devices() {
        let gpu = GpuConfig::test_small();
        let workload = Workload::kernel(AccessPattern::MedHot);
        let key_on = |cluster: Cluster| {
            small()
                .with_cluster(cluster)
                .with_seed(1)
                .cell_fingerprint(&workload, &Scheme::base())
        };
        let plain = key_on(Cluster::single(gpu.clone()));
        let wrapped = key_on(Cluster::new(
            vec![gpu.clone()],
            InterconnectConfig::pcie_gen4(),
        ));
        assert_eq!(plain, wrapped);
        let multi = key_on(Cluster::homogeneous(gpu, 2, InterconnectConfig::nvlink3()));
        assert_ne!(plain, multi);
    }

    #[test]
    fn stream_configs_distinguish_keys_except_the_single_stream() {
        use gpu_sim::StreamPartition;

        let workload = Workload::stage(AccessPattern::MedHot);
        let base = key(&workload, &Scheme::base());
        // K=1 is canonically the pre-stream cell: no `streams` key at all,
        // whatever partition the configuration was built with.
        let single = key_with_streams(
            StreamConfig::new(1, StreamPartition::Interleaved),
            &workload,
            &Scheme::base(),
        );
        assert_eq!(base, single);
        assert!(!base.contains("\"streams\""));
        // K>1 is always a distinct cell, per partition and per K.
        let dual = key_with_streams(
            StreamConfig::new(2, StreamPartition::Interleaved),
            &workload,
            &Scheme::base(),
        );
        assert_ne!(base, dual);
        assert!(dual.contains("\"streams\""));
        assert_ne!(
            dual,
            key_with_streams(
                StreamConfig::new(2, StreamPartition::SmPartitioned),
                &workload,
                &Scheme::base(),
            )
        );
        assert_ne!(
            dual,
            key_with_streams(
                StreamConfig::new(4, StreamPartition::Interleaved),
                &workload,
                &Scheme::base(),
            )
        );
    }

    #[test]
    fn fault_plans_distinguish_keys_except_the_empty_plan() {
        use crate::serving::FaultEvent;

        let workload = Workload::stage(AccessPattern::MedHot);
        let base = key(&workload, &Scheme::base());
        // The empty plan is canonically the fault-free cell: no `faults`
        // key at all, byte-identical with the v1 encoding.
        let empty = key_with_faults(FaultPlan::empty(), &workload, &Scheme::base());
        assert_eq!(base, empty);
        assert!(!base.contains("\"faults\""));
        // Non-empty plans are distinct cells, per plan.
        let crashed = key_with_faults(
            FaultPlan::new(vec![FaultEvent::crash(0, 1_000.0, 2_000.0)]),
            &workload,
            &Scheme::base(),
        );
        assert_ne!(base, crashed);
        assert!(crashed.contains("\"faults\""));
        assert_ne!(
            crashed,
            key_with_faults(
                FaultPlan::new(vec![FaultEvent::drain(0, 1_000.0, 2_000.0)]),
                &workload,
                &Scheme::base(),
            )
        );
        assert_ne!(
            crashed,
            key_with_faults(
                FaultPlan::new(vec![FaultEvent::crash(0, 1_000.0, 3_000.0)]),
                &workload,
                &Scheme::base(),
            )
        );
    }

    /// Golden cell keys: the rendered bytes of one cell per fingerprint
    /// axis, pinned under schema `perf-envelope/cell-fingerprint/v1`. Any
    /// byte change here orphans every persisted cache, so a failure means
    /// the encoding changed and the schema must be bumped, not the
    /// expectation edited.
    #[test]
    fn cell_keys_are_byte_identical_to_v1() {
        use crate::fleet::{AutoscalePolicy, Fleet, ReplicaGroup, RoutingPolicy};
        use crate::runner::Experiment;
        use crate::scheme::{Multithreading, Scheme};
        use crate::serving::{
            BatchingPolicy, FaultEvent, FaultPlan, ServingScenario, TrafficModel,
        };
        use crate::topology::{Cluster, InterconnectConfig, ShardingSpec, StreamConfig};
        use crate::workload::Workload;
        use dlrm::WorkloadScale;
        use dlrm_datasets::{AccessPattern, HeterogeneousMix, MixKind};
        use embedding_kernels::{BufferStation, PrefetchConfig};
        use gpu_sim::{GpuConfig, StreamPartition};

        let small = || Experiment::new(GpuConfig::test_small(), WorkloadScale::Test);
        let kernel = small().fingerprint(&Workload::kernel(AccessPattern::MedHot), &Scheme::base());
        let nvlink_stage = small()
            .with_cluster(Cluster::homogeneous(
                GpuConfig::test_small(),
                2,
                InterconnectConfig::nvlink3(),
            ))
            .fingerprint(
                &Workload::stage(HeterogeneousMix::paper_mix(MixKind::Mix2, 0.02))
                    .with_sharding(ShardingSpec::HotCold),
                &Scheme::combined(),
            );
        let streams = small()
            .with_streams(StreamConfig::new(2, StreamPartition::Interleaved))
            .fingerprint(&Workload::stage(AccessPattern::MedHot), &Scheme::optmt());
        let plan = FaultPlan::new(vec![
            FaultEvent::crash(0, 1_000.0, 2_500.5),
            FaultEvent::drain(0, 3_000.0, 4_000.0),
            FaultEvent::straggler(0, 500.0, 900.25, 1.5),
            FaultEvent::interconnect_degradation(100.0, 200.0, 2.0),
        ]);
        let faulted = small().with_faults(plan).fingerprint(
            &Workload::end_to_end(AccessPattern::Random),
            &Scheme::base(),
        );
        let scheme = small().fingerprint(
            &Workload::kernel(AccessPattern::HighHot),
            &Scheme::base()
                .with_multithreading(Multithreading::MaxRegisters(64))
                .with_prefetch(PrefetchConfig::new(BufferStation::Register, 4))
                .with_l2_pinning(Some(3 << 20)),
        );
        let scenario = ServingScenario::new(
            TrafficModel::poisson(2_000.0),
            BatchingPolicy::adaptive(16, 256),
        );
        let fleet = Fleet::new(TrafficModel::poisson(4_000.0), 64, 7)
            .with_group(ReplicaGroup::new(small(), scenario.clone()))
            .with_group(
                ReplicaGroup::new(
                    small().with_streams(StreamConfig::new(2, StreamPartition::SmPartitioned)),
                    scenario.with_faults(FaultPlan::new(vec![FaultEvent::crash(0, 10.0, 20.0)])),
                )
                .with_replicas(2),
            )
            .with_routing(RoutingPolicy::latency_aware(0.25))
            .with_autoscale(AutoscalePolicy::reactive(0.8, 0.3, 2, 1, 3))
            .fingerprint(&Workload::stage(AccessPattern::MedHot), &Scheme::combined());

        for (got, want) in [
            (kernel, KERNEL),
            (nvlink_stage, NVLINK_STAGE),
            (streams, STREAMS),
            (faulted, FAULTED),
            (scheme, SCHEME),
            (fleet, FLEET),
        ] {
            assert_eq!(got, want);
        }

        const KERNEL: &str = r#"{"cluster":null,"engine_mode":"event_driven","gpu":{"alu_latency":4,"clock_ghz":1.41,"dram":{"capacity_bytes":85899345920,"latency":466,"peak_bandwidth_gbps":1940.0},"l1":{"associativity":4,"capacity_bytes":16384,"hit_latency":38,"line_bytes":128},"l2":{"associativity":16,"capacity_bytes":262144,"hit_latency":261,"line_bytes":128},"l2_max_persisting_fraction":0.75,"max_blocks_per_sm":32,"max_warps_per_sm":64,"name":"test-small","num_sms":4,"register_alloc_granularity":8,"register_latency":1,"registers_per_sm":65536,"shared_mem_latency":29,"shared_mem_per_sm":167936,"smsps_per_sm":4,"warp_size":32},"model":{"bottom_mlp":[64,32,32],"embedding":{"batch_size":256,"embedding_dim":32,"num_rows":20000,"pooling_factor":8},"num_tables":2,"top_mlp":[16,8,1]},"scale":"test","schema":"perf-envelope/cell-fingerprint/v1","scheme":{"l2_pinning":null,"multithreading":"default","prefetch":null},"seed":24301,"tables_to_simulate":1,"workload":{"kind":"kernel","pattern":"med hot","sharding":null}}"#;
        const NVLINK_STAGE: &str = r#"{"cluster":{"devices":[{"alu_latency":4,"clock_ghz":1.41,"dram":{"capacity_bytes":85899345920,"latency":466,"peak_bandwidth_gbps":1940.0},"l1":{"associativity":4,"capacity_bytes":16384,"hit_latency":38,"line_bytes":128},"l2":{"associativity":16,"capacity_bytes":262144,"hit_latency":261,"line_bytes":128},"l2_max_persisting_fraction":0.75,"max_blocks_per_sm":32,"max_warps_per_sm":64,"name":"test-small","num_sms":4,"register_alloc_granularity":8,"register_latency":1,"registers_per_sm":65536,"shared_mem_latency":29,"shared_mem_per_sm":167936,"smsps_per_sm":4,"warp_size":32},{"alu_latency":4,"clock_ghz":1.41,"dram":{"capacity_bytes":85899345920,"latency":466,"peak_bandwidth_gbps":1940.0},"l1":{"associativity":4,"capacity_bytes":16384,"hit_latency":38,"line_bytes":128},"l2":{"associativity":16,"capacity_bytes":262144,"hit_latency":261,"line_bytes":128},"l2_max_persisting_fraction":0.75,"max_blocks_per_sm":32,"max_warps_per_sm":64,"name":"test-small","num_sms":4,"register_alloc_granularity":8,"register_latency":1,"registers_per_sm":65536,"shared_mem_latency":29,"shared_mem_per_sm":167936,"smsps_per_sm":4,"warp_size":32}],"interconnect":{"link_bandwidth_gbps":300.0,"link_latency_us":2.0,"name":"NVLink3"}},"engine_mode":"event_driven","gpu":{"alu_latency":4,"clock_ghz":1.41,"dram":{"capacity_bytes":85899345920,"latency":466,"peak_bandwidth_gbps":1940.0},"l1":{"associativity":4,"capacity_bytes":16384,"hit_latency":38,"line_bytes":128},"l2":{"associativity":16,"capacity_bytes":262144,"hit_latency":261,"line_bytes":128},"l2_max_persisting_fraction":0.75,"max_blocks_per_sm":32,"max_warps_per_sm":64,"name":"test-small","num_sms":4,"register_alloc_granularity":8,"register_latency":1,"registers_per_sm":65536,"shared_mem_latency":29,"shared_mem_per_sm":167936,"smsps_per_sm":4,"warp_size":32},"model":{"bottom_mlp":[64,32,32],"embedding":{"batch_size":256,"embedding_dim":32,"num_rows":20000,"pooling_factor":8},"num_tables":2,"top_mlp":[16,8,1]},"scale":"test","schema":"perf-envelope/cell-fingerprint/v1","scheme":{"l2_pinning":{"carveout_bytes":null},"multithreading":"optmt","prefetch":{"distance":2,"station":"RPF"}},"seed":24301,"tables_to_simulate":1,"workload":{"dataset":{"mix":{"composition":[["high hot",1],["med hot",1],["low hot",1],["random",1]],"name":"Mix2"}},"kind":"embedding_stage","sharding":"hot_cold"}}"#;
        const STREAMS: &str = r#"{"cluster":null,"engine_mode":"event_driven","gpu":{"alu_latency":4,"clock_ghz":1.41,"dram":{"capacity_bytes":85899345920,"latency":466,"peak_bandwidth_gbps":1940.0},"l1":{"associativity":4,"capacity_bytes":16384,"hit_latency":38,"line_bytes":128},"l2":{"associativity":16,"capacity_bytes":262144,"hit_latency":261,"line_bytes":128},"l2_max_persisting_fraction":0.75,"max_blocks_per_sm":32,"max_warps_per_sm":64,"name":"test-small","num_sms":4,"register_alloc_granularity":8,"register_latency":1,"registers_per_sm":65536,"shared_mem_latency":29,"shared_mem_per_sm":167936,"smsps_per_sm":4,"warp_size":32},"model":{"bottom_mlp":[64,32,32],"embedding":{"batch_size":256,"embedding_dim":32,"num_rows":20000,"pooling_factor":8},"num_tables":2,"top_mlp":[16,8,1]},"scale":"test","schema":"perf-envelope/cell-fingerprint/v1","scheme":{"l2_pinning":null,"multithreading":"optmt","prefetch":null},"seed":24301,"streams":{"partition":"interleaved","streams":2},"tables_to_simulate":1,"workload":{"dataset":{"pattern":"med hot"},"kind":"embedding_stage","sharding":null}}"#;
        const FAULTED: &str = r#"{"cluster":null,"engine_mode":"event_driven","faults":[{"device":0,"end_us":200.0,"factor":2.0,"kind":"interconnect_degradation","start_us":100.0},{"device":0,"end_us":900.25,"factor":1.5,"kind":"straggler","start_us":500.0},{"device":0,"end_us":2500.5,"factor":1.0,"kind":"crash","start_us":1000.0},{"device":0,"end_us":4000.0,"factor":1.0,"kind":"drain","start_us":3000.0}],"gpu":{"alu_latency":4,"clock_ghz":1.41,"dram":{"capacity_bytes":85899345920,"latency":466,"peak_bandwidth_gbps":1940.0},"l1":{"associativity":4,"capacity_bytes":16384,"hit_latency":38,"line_bytes":128},"l2":{"associativity":16,"capacity_bytes":262144,"hit_latency":261,"line_bytes":128},"l2_max_persisting_fraction":0.75,"max_blocks_per_sm":32,"max_warps_per_sm":64,"name":"test-small","num_sms":4,"register_alloc_granularity":8,"register_latency":1,"registers_per_sm":65536,"shared_mem_latency":29,"shared_mem_per_sm":167936,"smsps_per_sm":4,"warp_size":32},"model":{"bottom_mlp":[64,32,32],"embedding":{"batch_size":256,"embedding_dim":32,"num_rows":20000,"pooling_factor":8},"num_tables":2,"top_mlp":[16,8,1]},"scale":"test","schema":"perf-envelope/cell-fingerprint/v1","scheme":{"l2_pinning":null,"multithreading":"default","prefetch":null},"seed":24301,"tables_to_simulate":1,"workload":{"dataset":{"pattern":"random"},"kind":"end_to_end","sharding":null}}"#;
        const SCHEME: &str = r#"{"cluster":null,"engine_mode":"event_driven","gpu":{"alu_latency":4,"clock_ghz":1.41,"dram":{"capacity_bytes":85899345920,"latency":466,"peak_bandwidth_gbps":1940.0},"l1":{"associativity":4,"capacity_bytes":16384,"hit_latency":38,"line_bytes":128},"l2":{"associativity":16,"capacity_bytes":262144,"hit_latency":261,"line_bytes":128},"l2_max_persisting_fraction":0.75,"max_blocks_per_sm":32,"max_warps_per_sm":64,"name":"test-small","num_sms":4,"register_alloc_granularity":8,"register_latency":1,"registers_per_sm":65536,"shared_mem_latency":29,"shared_mem_per_sm":167936,"smsps_per_sm":4,"warp_size":32},"model":{"bottom_mlp":[64,32,32],"embedding":{"batch_size":256,"embedding_dim":32,"num_rows":20000,"pooling_factor":8},"num_tables":2,"top_mlp":[16,8,1]},"scale":"test","schema":"perf-envelope/cell-fingerprint/v1","scheme":{"l2_pinning":{"carveout_bytes":3145728},"multithreading":"maxrreg64","prefetch":{"distance":4,"station":"RPF"}},"seed":24301,"tables_to_simulate":1,"workload":{"kind":"kernel","pattern":"high hot","sharding":null}}"#;
        const FLEET: &str = r#"{"cluster":null,"engine_mode":"event_driven","fleet":{"autoscale":{"cooldown_intervals":2,"kind":"reactive","max_replicas":3,"min_replicas":1,"scale_in_threshold":0.3,"scale_out_threshold":0.8},"interval_us":1000000.0,"replicas":[{"cluster":null,"count":1,"gpu":{"alu_latency":4,"clock_ghz":1.41,"dram":{"capacity_bytes":85899345920,"latency":466,"peak_bandwidth_gbps":1940.0},"l1":{"associativity":4,"capacity_bytes":16384,"hit_latency":38,"line_bytes":128},"l2":{"associativity":16,"capacity_bytes":262144,"hit_latency":261,"line_bytes":128},"l2_max_persisting_fraction":0.75,"max_blocks_per_sm":32,"max_warps_per_sm":64,"name":"test-small","num_sms":4,"register_alloc_granularity":8,"register_latency":1,"registers_per_sm":65536,"shared_mem_latency":29,"shared_mem_per_sm":167936,"smsps_per_sm":4,"warp_size":32}},{"cluster":null,"count":2,"faults":[{"device":0,"end_us":20.0,"factor":1.0,"kind":"crash","start_us":10.0}],"gpu":{"alu_latency":4,"clock_ghz":1.41,"dram":{"capacity_bytes":85899345920,"latency":466,"peak_bandwidth_gbps":1940.0},"l1":{"associativity":4,"capacity_bytes":16384,"hit_latency":38,"line_bytes":128},"l2":{"associativity":16,"capacity_bytes":262144,"hit_latency":261,"line_bytes":128},"l2_max_persisting_fraction":0.75,"max_blocks_per_sm":32,"max_warps_per_sm":64,"name":"test-small","num_sms":4,"register_alloc_granularity":8,"register_latency":1,"registers_per_sm":65536,"shared_mem_latency":29,"shared_mem_per_sm":167936,"smsps_per_sm":4,"warp_size":32},"streams":{"partition":"sm_partitioned","streams":2}}],"routing":{"ewma_alpha":0.25,"kind":"latency_aware"}},"gpu":{"alu_latency":4,"clock_ghz":1.41,"dram":{"capacity_bytes":85899345920,"latency":466,"peak_bandwidth_gbps":1940.0},"l1":{"associativity":4,"capacity_bytes":16384,"hit_latency":38,"line_bytes":128},"l2":{"associativity":16,"capacity_bytes":262144,"hit_latency":261,"line_bytes":128},"l2_max_persisting_fraction":0.75,"max_blocks_per_sm":32,"max_warps_per_sm":64,"name":"test-small","num_sms":4,"register_alloc_granularity":8,"register_latency":1,"registers_per_sm":65536,"shared_mem_latency":29,"shared_mem_per_sm":167936,"smsps_per_sm":4,"warp_size":32},"model":{"bottom_mlp":[64,32,32],"embedding":{"batch_size":256,"embedding_dim":32,"num_rows":20000,"pooling_factor":8},"num_tables":2,"top_mlp":[16,8,1]},"scale":"test","schema":"perf-envelope/cell-fingerprint/v1","scheme":{"l2_pinning":{"carveout_bytes":null},"multithreading":"optmt","prefetch":{"distance":2,"station":"RPF"}},"seed":24301,"tables_to_simulate":1,"workload":{"dataset":{"pattern":"med hot"},"kind":"embedding_stage","sharding":null}}"#;
    }
}
