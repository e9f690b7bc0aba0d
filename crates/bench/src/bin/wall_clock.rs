//! Engine wall-clock benchmark.
//!
//! Measures a test-scale campaign grid and an A100 Default-scale kernel
//! cell under both engine modes, plus the campaign-cache steady state, and
//! emits machine-readable `BENCH_engine.json` (override the path with the
//! first CLI argument) with total wall-clock and cells/sec per
//! configuration.
//!
//! The cycle-accurate reference mode preserves the pre-PR poll-every-cycle
//! loop, so `reference_*` numbers stand in for the pre-PR engine; the
//! headline `campaign_bench_speedup` compares repeated `Campaign::run`
//! iterations of that grid between the reference engine without caching
//! and the event-driven engine with the result cache attached.
//!
//! Reports follow the `perf-envelope/bench-engine/v2` schema: cold-cell
//! throughput (`cells_per_sec`, `simulated_cycles_per_sec`), the frozen v1
//! baseline side by side with the fresh measurement, and the measured
//! speedup against that baseline. Before overwriting the output file, the
//! committed report (v1 or v2 — see `bench::report`) is read back as the
//! comparison point, and the run asserts the cold cell stays >= 3x faster
//! than the frozen baseline.

use std::time::Instant;

use bench::report::{cold_cell_baseline, ColdCellBaseline, SCHEMA_V2};
use dlrm::WorkloadScale;
use dlrm_datasets::AccessPattern;
use gpu_sim::{EngineMode, GpuConfig, Simulator};
use perf_envelope::json::Json;
use perf_envelope::{Campaign, CampaignCache, Experiment, Scheme, Workload};

/// How many times the campaign bench iterates the grid per sample.
const BENCH_ITERATIONS: usize = 10;

/// The campaign bench grid: every evaluated access pattern as an
/// embedding-stage workload × the base, OptMT and combined schemes,
/// serialized to one worker so the numbers isolate engine and cache
/// effects.
fn grid(experiment: Experiment) -> Campaign {
    Campaign::new(experiment)
        .workloads(AccessPattern::EVALUATED.map(Workload::stage))
        .schemes([Scheme::base(), Scheme::optmt(), Scheme::combined()])
        .threads(1)
}

fn test_experiment(mode: EngineMode) -> Experiment {
    Experiment::new(GpuConfig::test_small(), WorkloadScale::Test).with_engine_mode(mode)
}

fn time_s(f: impl FnOnce()) -> f64 {
    let start = Instant::now();
    f();
    start.elapsed().as_secs_f64()
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_engine.json".to_string());
    // Read the committed report (if any) *before* overwriting it: its frozen
    // cold-cell numbers are the comparison point for this run.
    let baseline: Option<ColdCellBaseline> = std::fs::read_to_string(&out_path)
        .ok()
        .and_then(|text| Json::parse(&text).ok())
        .and_then(|doc| cold_cell_baseline(&doc));
    let mut doc = Json::object();
    doc.set("schema", Json::Str(SCHEMA_V2.to_string()));

    // ---- campaign bench grid, single engine pass per mode ----
    let cells = grid(test_experiment(EngineMode::EventDriven)).len() as u64;
    let reference_cold = time_s(|| {
        grid(test_experiment(EngineMode::CycleAccurate)).run();
    });
    let event_cold = time_s(|| {
        grid(test_experiment(EngineMode::EventDriven)).run();
    });

    // ---- the campaign bench: repeated grid iterations ----
    let reference_total = time_s(|| {
        for _ in 0..BENCH_ITERATIONS {
            grid(test_experiment(EngineMode::CycleAccurate)).run();
        }
    });
    let cache = CampaignCache::new();
    let cached_experiment = test_experiment(EngineMode::EventDriven).with_cache(cache.clone());
    let mut iteration_runs = Vec::new();
    let event_cached_total = time_s(|| {
        for _ in 0..BENCH_ITERATIONS {
            iteration_runs.push(grid(cached_experiment.clone()).run());
        }
    });
    let warm_iteration = time_s(|| {
        grid(cached_experiment.clone()).run();
    });
    assert!(
        iteration_runs.windows(2).all(|w| w[0] == w[1]),
        "cached grid iterations must be bit-identical"
    );
    let campaign_bench_speedup = reference_total / event_cached_total;

    // ---- determinism: thread count must not change results ----
    let serial = grid(test_experiment(EngineMode::EventDriven)).run();
    let parallel = grid(test_experiment(EngineMode::EventDriven))
        .threads(4)
        .run();
    let thread_invariant = serial == parallel;
    let modes_agree = serial == grid(test_experiment(EngineMode::CycleAccurate)).run();

    let bench_experiment = test_experiment(EngineMode::EventDriven);
    let mut grid_doc = Json::object();
    grid_doc
        .set("cells", Json::UInt(cells))
        .set("device", Json::Str(bench_experiment.gpu().name.clone()))
        .set(
            "scale",
            Json::Str(bench_experiment.scale().name().to_string()),
        )
        .set("reference_cold_s", Json::Num(reference_cold))
        .set("event_cold_s", Json::Num(event_cold))
        .set("event_warm_cached_s", Json::Num(warm_iteration))
        .set(
            "cells_per_sec_reference",
            Json::Num(cells as f64 / reference_cold),
        )
        .set(
            "cells_per_sec_event_cold",
            Json::Num(cells as f64 / event_cold),
        )
        .set(
            "cells_per_sec_event_warm",
            Json::Num(cells as f64 / warm_iteration),
        )
        .set("bench_iterations", Json::UInt(BENCH_ITERATIONS as u64))
        .set("reference_total_s", Json::Num(reference_total))
        .set("event_cached_total_s", Json::Num(event_cached_total))
        .set("campaign_bench_speedup", Json::Num(campaign_bench_speedup))
        .set("cache_hits", Json::UInt(cache.hits()))
        .set("cache_misses", Json::UInt(cache.misses()))
        .set("thread_count_invariant", Json::Bool(thread_invariant))
        .set("engine_modes_agree", Json::Bool(modes_agree));
    doc.set("campaign_grid", grid_doc);

    // ---- one Default-scale A100 kernel cell, the unit of the DSE sweeps ----
    // Best of CELL_RUNS cold runs per mode: a fresh `Simulator` each time,
    // so every run pays the full launch-bound sizing path, while the
    // minimum filters out host scheduling noise.
    const CELL_RUNS: usize = 3;
    let a100 = Experiment::new(GpuConfig::a100(), WorkloadScale::Default);
    let workload = embedding_kernels::EmbeddingWorkload::generate(
        a100.model().embedding,
        AccessPattern::MedHot,
        0,
        a100.seed(),
    );
    let spec = Scheme::base().kernel_spec(a100.gpu());
    let mut cell_doc = Json::object();
    let mut cell_times = [f64::INFINITY; 2];
    let mut cycles = 0;
    for (i, mode) in [EngineMode::CycleAccurate, EngineMode::EventDriven]
        .into_iter()
        .enumerate()
    {
        for _ in 0..CELL_RUNS {
            let sim = Simulator::new(a100.gpu().clone()).with_mode(mode);
            let start = Instant::now();
            let stats = sim.run(&spec.launch(&workload), &spec.kernel(&workload));
            cell_times[i] = cell_times[i].min(start.elapsed().as_secs_f64());
            cycles = stats.elapsed_cycles;
        }
    }
    let [reference_s, event_s] = cell_times;
    let cold_cell_speedup = baseline.map(|b| b.event_s / event_s);
    cell_doc
        .set("device", Json::Str(a100.gpu().name.clone()))
        .set("scale", Json::Str(a100.scale().name().to_string()))
        .set("simulated_cycles", Json::UInt(cycles))
        .set("reference_s", Json::Num(reference_s))
        .set("event_s", Json::Num(event_s))
        .set("engine_speedup", Json::Num(reference_s / event_s))
        .set("cells_per_sec", Json::Num(1.0 / event_s))
        .set(
            "simulated_cycles_per_sec",
            Json::Num(cycles as f64 / event_s),
        );
    // Old and new side by side: the committed baseline rides along in the
    // emitted report, so future runs keep comparing against the same frozen
    // numbers instead of each PR's freshly committed measurement.
    if let Some(b) = baseline {
        cell_doc
            .set("baseline_event_s", Json::Num(b.event_s))
            .set("baseline_engine_speedup", Json::Num(b.engine_speedup))
            .set(
                "cold_cell_speedup_vs_baseline",
                Json::Num(cold_cell_speedup.unwrap()),
            );
    }
    doc.set("a100_default_kernel_cell", cell_doc);

    let rendered = doc.render();
    std::fs::write(&out_path, &rendered).expect("failed to write the benchmark report");
    println!("{rendered}");
    println!();
    println!(
        "campaign bench grid ({cells} cells x {BENCH_ITERATIONS} iterations): \
         reference {reference_total:.3}s -> event+cache {event_cached_total:.3}s \
         ({campaign_bench_speedup:.1}x); wrote {out_path}"
    );
    if let Some(speedup) = cold_cell_speedup {
        println!(
            "cold A100 Default cell: baseline {:.3}s -> event {event_s:.3}s \
             ({speedup:.2}x vs committed baseline)",
            baseline.unwrap().event_s
        );
    }
    assert!(thread_invariant, "thread counts must not change results");
    assert!(modes_agree, "engine modes must agree on the grid");
    if let Some(speedup) = cold_cell_speedup {
        assert!(
            speedup >= 3.0,
            "cold A100 Default cell must be >=3x faster than the committed \
             baseline ({:.3}s): measured {event_s:.3}s = {speedup:.2}x",
            baseline.unwrap().event_s
        );
    }
}
