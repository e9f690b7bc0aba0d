//! `headline_cold`: the paper's headline grid (Figures 12–14), every pass
//! from an empty cache, so the engine does nearly all the work.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use dlrm::WorkloadScale;
use dlrm_datasets::AccessPattern;
use embedding_kernels::{EmbeddingWorkload, PinPlan};
use gpu_sim::mem::MemorySystem;
use gpu_sim::{GpuConfig, KernelStats, Simulator};
use perf_envelope::json::Json;
use perf_envelope::{
    Campaign, CampaignCache, Experiment, RunReport, Scheme, Workload, WorkloadTarget,
};

use crate::args::Args;
use crate::bench::{self, EndToEnd, Measured, Outcome, PassCheck};
use crate::digest::Digest;
use crate::layers::{ratio, LayerSample};
use crate::model;
use crate::trace::{self, SpanId, Tracer, NO_OP};

/// Tables of each homogeneous group that [`Experiment::new`] simulates at
/// the default scale before extrapolating; the replay prices the same ones
/// and checks that its statistics equal the cell's.
const TABLES_SIMULATED: u32 = 2;

fn schemes() -> Vec<Scheme> {
    std::iter::once(Scheme::base())
        .chain(Scheme::figure12_schemes())
        .collect()
}

/// The grid's cells in campaign order (workload-major, then scheme).
fn cells() -> Vec<(Workload, Scheme)> {
    AccessPattern::EVALUATED
        .into_iter()
        .flat_map(|p| {
            schemes()
                .into_iter()
                .map(move |s| (Workload::end_to_end(p), s))
        })
        .collect()
}

fn base_experiment(seed: u64) -> Experiment {
    Experiment::new(GpuConfig::a100(), WorkloadScale::Default).with_seed(seed)
}

fn campaign(seed: u64, workers: usize, cache: Arc<CampaignCache>) -> Campaign {
    Campaign::new(base_experiment(seed))
        .workloads(AccessPattern::EVALUATED.map(Workload::end_to_end))
        .schemes(schemes())
        .threads(workers)
        .with_cache(cache)
}

/// Checks a cold grid's cache accounting: each cell simulated exactly once.
fn cache_problems(cache: &CampaignCache, cells: usize) -> Vec<String> {
    let mut problems = Vec::new();
    if cache.misses() as usize != cells || cache.len() != cells {
        problems.push(format!(
            "expected {cells} misses = distinct cells, got {} misses for {} distinct cells",
            cache.misses(),
            cache.len()
        ));
    }
    if cache.hits() != 0 {
        problems.push(format!("a cold grid hit the cache {} times", cache.hits()));
    }
    problems
}

/// One untraced pass: the whole grid through [`Campaign::run`] from an
/// empty cache.
fn pass(seed: u64, workers: usize) -> (f64, PassCheck) {
    let cache = CampaignCache::new();
    let grid = campaign(seed, workers, cache.clone());
    let (seconds, run) = bench::timed(|| grid.run());
    let check = PassCheck {
        operations: grid.len() as u64,
        problems: cache_problems(&cache, grid.len()),
        digest: Digest::new().update(&run.to_json()).hex(),
    };
    (seconds, check)
}

pub fn run(args: &Args, workers: usize) -> Outcome {
    crate::pace::set_threads(workers);
    // Set-up: one cell of the grid, simulated on its own, warms the engine
    // and the allocator before the first pass.
    let (setup_s, ()) = bench::repeated_setup(|| {
        let (workload, scheme) = &cells()[0];
        std::hint::black_box(base_experiment(args.seed).run(workload, scheme));
    });
    let cells = cells().len() as u64;
    let tracer = Tracer::new();
    let (measured, samples) = bench::measure(
        args,
        cells,
        || pass(args.seed, workers),
        |measured| traced_pass(args.seed, workers, &tracer, measured),
    );
    // Every pass must agree with the first; the recorded digest then
    // anchors the first.
    let reference = measured.digests.first().cloned().unwrap_or_default();
    let batch = base_experiment(args.seed).model().batch_size() as f64;
    let end_to_end = EndToEnd {
        setup_s,
        cells_per_pass: cells as f64,
        requests_per_pass: cells as f64 * batch,
    };
    bench::outcome(args, measured, reference, end_to_end, &tracer, &samples)
}

/// What the replay of one cell measured.
struct Replay {
    stats: KernelStats,
    lookups: u64,
}

/// Prices one cell's tables the way [`Experiment::run`] does — trace
/// generation, then the L2 pin plan, then the engine, table after table on
/// one memory system — with a span around each layer call.
fn replay_cell(
    experiment: &Experiment,
    workload: &Workload,
    scheme: &Scheme,
    tracer: &Tracer,
    op: u64,
    parent: SpanId,
    thread: u32,
) -> Replay {
    let gpu = experiment.gpu();
    let dataset = match workload.target() {
        WorkloadTarget::EndToEnd(dataset) => dataset,
        other => panic!("the headline grid holds end-to-end workloads, not {other:?}"),
    };
    let mix = dataset.to_mix(experiment.model().num_tables);
    let spec = scheme.kernel_spec(gpu);
    let sim = Simulator::new(gpu.clone()).with_mode(experiment.engine_mode());
    let mut mem = MemorySystem::new(gpu);
    let mut clock = 0;
    let mut merged = KernelStats::empty(&scheme.paper_label(), gpu);
    let mut lookups = 0;
    for &(pattern, count) in mix.composition() {
        let seed = experiment
            .seed()
            .wrapping_add(pattern.hotness_rank() as u64 * 1000);
        for table in 0..count.min(TABLES_SIMULATED) {
            let primary = tracer.span("datasets.generate", op, Some(parent), thread, |_| {
                EmbeddingWorkload::generate(experiment.model().embedding, pattern, table, seed)
            });
            lookups += primary.trace.total_lookups();
            if let Some(carveout) = scheme.carveout_bytes(gpu) {
                tracer.span("kernels.pin_plan", op, Some(parent), thread, |_| {
                    PinPlan::for_workload(&primary, carveout).apply(&mut mem, gpu, clock)
                });
            }
            let (launch, kernel) = tracer.span("kernels.launch", op, Some(parent), thread, |_| {
                (spec.launch(&primary), spec.kernel(&primary))
            });
            let stats = tracer.span("engine.run", op, Some(parent), thread, |_| {
                sim.run_with_memory(&launch, &kernel, &mut mem, clock)
            });
            clock += stats.elapsed_cycles;
            merged.merge_sequential(&stats);
        }
    }
    Replay {
        stats: merged,
        lookups,
    }
}

/// Runs `job(index, thread)` for every index over `workers` threads (trace
/// threads 1 to `workers`; the main thread is 0) and
/// returns the results in index order.
fn pool<T: Send>(workers: usize, count: usize, job: impl Fn(usize, u32) -> T + Sync) -> Vec<T> {
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..count).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for worker in 0..workers {
            let (next, slots, job) = (&next, &slots, &job);
            scope.spawn(move || loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                if index >= count {
                    break;
                }
                let result = job(index, worker as u32 + 1);
                *slots[index].lock().expect("no job panicked") = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("no job panicked")
                .expect("every job ran")
        })
        .collect()
}

/// One traced pass, in two phases.
///
/// Phase A is the pass itself: the grid's cells over the same number of
/// workers as [`Campaign::run`], each a fingerprint and an
/// [`Experiment::run`] through a fresh cache. Its time, compared with the
/// untraced pass before it, is the tracing overhead.
///
/// Phase B splits the work by layer: for each cell, on one worker and back
/// to back so that host noise hits both alike, an [`Experiment::run`]
/// through another fresh cache, then the replay of its tables, whose
/// statistics must equal the cell's.
fn traced_pass(seed: u64, workers: usize, tracer: &Tracer, measured: &mut Measured) -> LayerSample {
    let cells = cells();
    let experiment = |cache: &Arc<CampaignCache>| {
        base_experiment(seed)
            .with_threads(1)
            .with_cache(cache.clone())
    };
    let cache = CampaignCache::new();
    let base = experiment(&cache);
    let pass = tracer.open("bench.pass", NO_OP, None, 0);
    let campaign_span = tracer.open("campaign.run", NO_OP, Some(pass), 0);
    let reports = pool(workers, cells.len(), |i, thread| {
        let (workload, scheme) = &cells[i];
        let op = i as u64;
        tracer.span("fingerprint.cell", op, Some(campaign_span), thread, |_| {
            std::hint::black_box(base.fingerprint(workload, scheme))
        });
        tracer.span("campaign.cell", op, Some(campaign_span), thread, |_| {
            base.run(workload, scheme)
        })
    });
    tracer.close(campaign_span);
    tracer.close(pass);

    let split_cache = CampaignCache::new();
    let split = experiment(&split_cache);
    let replay_span = tracer.open("bench.replay", NO_OP, None, 0);
    let replays = pool(workers, cells.len(), |i, thread| {
        let (workload, scheme) = &cells[i];
        let op = i as u64;
        tracer.span("bench.replay_cell", op, Some(replay_span), thread, |cell| {
            let report = tracer.span("runner.run", op, Some(cell), thread, |_| {
                split.run(workload, scheme)
            });
            let replay = replay_cell(&split, workload, scheme, tracer, op, cell, thread);
            (report, replay)
        })
    });
    tracer.close(replay_span);

    // Correctness: `CampaignRun::to_json` renders exactly this array, so the
    // traced cells must digest like the untraced passes; each cache
    // simulated every cell once; every replay reproduces its cell.
    let rendered = Json::Arr(reports.iter().map(RunReport::to_json_value).collect()).render();
    measured.digests.push(Digest::new().update(&rendered).hex());
    let mut problems = cache_problems(&cache, cells.len());
    problems.extend(cache_problems(&split_cache, cells.len()));
    for (i, (report, (split_report, replay))) in reports.iter().zip(&replays).enumerate() {
        if report != split_report {
            problems.push(format!("cell {i}: the two traced runs differ"));
        }
        if let Some(diff) = report.stats.first_difference(&replay.stats) {
            problems.push(format!("cell {i}: the replay's statistics differ: {diff}"));
        }
    }
    measured.add_checked(cells.len() as u64, problems);
    let replays: Vec<Replay> = replays.into_iter().map(|(_, replay)| replay).collect();

    // Per-layer values from this pass's spans.
    let spans = tracer.spans_since(pass);
    let busy = trace::busy_s(&spans);
    let get = |name: &str| busy.get(name).copied().unwrap_or(0.0);
    let engine_s = get("engine.run");
    let runner_s = get("runner.run");
    let replayed_s =
        get("datasets.generate") + get("kernels.pin_plan") + get("kernels.launch") + engine_s;
    let sim_cycles: u64 = replays.iter().map(|r| r.stats.elapsed_cycles).sum();
    let warp_insts: u64 = replays.iter().map(|r| r.stats.counters.insts_issued).sum();
    let mem_accesses: u64 = replays
        .iter()
        .map(|r| r.stats.l1_accesses + r.stats.l2_accesses)
        .sum();
    let lookups: u64 = replays.iter().map(|r| r.lookups).sum();
    let pass_s = tracer.seconds(pass);

    let mut sample = LayerSample::new();
    sample.insert("engine.busy_s", engine_s);
    sample.insert("engine.share", ratio(engine_s, runner_s));
    sample.insert(
        "engine.ns_per_sim_cycle",
        ratio(engine_s * 1e9, sim_cycles as f64),
    );
    sample.insert(
        "engine.ns_per_warp_inst",
        ratio(engine_s * 1e9, warp_insts as f64),
    );
    sample.insert(
        "engine.ns_per_mem_access",
        ratio(engine_s * 1e9, mem_accesses as f64),
    );
    sample.insert("datasets.trace_gen_s", get("datasets.generate"));
    sample.insert(
        "datasets.lookups_per_s",
        ratio(lookups as f64, get("datasets.generate")),
    );
    sample.insert("kernels.pin_plan_s", get("kernels.pin_plan"));
    sample.insert("runner.self_s", runner_s - replayed_s);
    sample.insert(
        "campaign.parallel_efficiency",
        ratio(
            get("campaign.cell") + get("fingerprint.cell"),
            workers as f64 * get("campaign.run"),
        ),
    );
    sample.insert(
        "fingerprint.ns_per_cell",
        get("fingerprint.cell") * 1e9 / cells.len() as f64,
    );
    sample.insert("cache.hits", cache.hits() as f64);
    sample.insert("cache.misses", cache.misses() as f64);
    sample.insert(
        "cache.wasted_sims",
        cache.misses() as f64 - cache.len() as f64,
    );
    sample.insert("trace.pass_s", pass_s);
    model::add_model_metrics(&reports, &mut sample);
    sample
}
