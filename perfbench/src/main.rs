//! The repository's benchmark: one command, three workloads, every
//! end-to-end metric by name and unit, and a separate traced run that
//! reports one set of numbers per layer.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <headline_cold|study_warm|serving_day> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! The last line of standard output is the result:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`. The
//! line before it carries the run's metadata: host (`nproc`, CPU model,
//! `rustc -V`, build profile, seed, worker count), the result digest, the
//! per-pass times and the tail's sample count. The exit code is 0 when every
//! check passed, 1 when one failed and 2 on bad arguments.
//!
//! # Workloads
//!
//! Host load is a closed loop: one process runs one pass after another
//! until `--seconds` have passed, and a campaign uses at most
//! [`host::MAX_WORKERS`] worker threads, never more than the host's CPUs.
//! One untimed warm-up pass, checked like the rest, comes before the clock
//! starts, and the loop stops where the measured phase ends nearest
//! `--seconds`. Each workload derives all its inputs from `--seed`.
//!
//! * `headline_cold` — the paper's headline grid for Figures 12–14: the
//!   evaluated datasets end-to-end × (base + the four Figure 12 schemes),
//!   20 cells on the A100 at the default scale, each pass from an empty
//!   cache. It exists because the engine does nearly all the work here:
//!   this is where simulator speed shows. The prefetch and L2-pinning cells
//!   exercise the memory and prefetch paths as well.
//! * `study_warm` — a design-space grid (4 datasets × {base, OptMT,
//!   RPF+L2P+OptMT} × 8 seeds × 4 pooling factors, 384 cells on
//!   `test_small`). Set-up simulates it once and persists the cache; each
//!   pass reloads the cache, re-runs the grid (every cell a hit), renders
//!   the results, parses them back and persists the cache again. It exists
//!   because the engine does no work here: fingerprinting, cache lookup and
//!   both directions of the JSON codec do all of it.
//! * `serving_day` — the Mix2 deployment on `test_small` with every batch
//!   shape priced during set-up. Each pass runs a capacity search (adaptive
//!   batching, 25 ms p99 SLA, 2^20 requests per probe) and a diurnal day of
//!   a 3-replica fleet with least-outstanding routing and reactive
//!   autoscaling (2^21 requests). It exists because the serving event loop
//!   and fleet routing do the work, with no engine cell in the measured
//!   phase. Its arrivals are open-loop traffic simulated inside the model,
//!   not host load.
//!
//! # End-to-end metrics (untraced run, nominal seconds)
//!
//! Times are host seconds scaled to a nominal host speed by the run's
//! [`pace`]: a fixed piece of the benchmark's own work, timed between
//! set-ups and passes on as many threads as the passes keep busy (two on
//! `headline_cold`, one elsewhere). The host this benchmark shares drifts in
//! speed by half within twenty minutes, and no run is long enough to average
//! that out. The metadata line carries the raw host seconds
//! (`setup_samples_s`, `pass_s`, `host_setup_s`, `host_study_s`), the
//! pace's unit times and the scale applied (`pace_scale`).
//!
//! * `setup_s` — median of repeated set-ups, at least three and at least
//!   three seconds' worth, because host speed swings within a second: one
//!   warm-up cell of the grid; simulating and persisting the study cache;
//!   pricing every batch shape and sizing the fleet.
//! * `study_s` — median seconds of one measured pass. Timing samples
//!   are passes, except that passes shorter than a quarter second are
//!   averaged in blocks of at least that long (`study_warm`), so that one
//!   pass preempted by the host does not set the tail.
//! * `study_tail_s` — the highest percentile of those samples with at least
//!   ten samples beyond it; a run with 21 samples or fewer, where that
//!   percentile would not lie above the median (`headline_cold`,
//!   `serving_day`), reports its slowest pass. The metadata line gives the
//!   percentile and the sample count.
//! * `cells_per_s` — cells priced per second of a median pass: simulated
//!   cold cells on `headline_cold`, cache-served cells on `study_warm`, and
//!   the operations (capacity probes and the fleet run) on `serving_day`.
//! * `sim_requests_per_s` — simulated requests per second of a median pass:
//!   probe plus fleet requests on `serving_day`; on the grid workloads each
//!   cell prices one inference batch, so it is cells × batch size.
//! * `peak_rss_mb` — peak resident memory of the process through set-up and
//!   the warm-up pass, which is what one study needs; it is read before the
//!   repeated passes, whose heap fragmentation would add noise.
//!
//! Failures are the result line's `failed` out of `attempted` operations
//! (cells, capacity probes and fleet runs): an operation panicked or a pass
//! holding it failed a check. Simulated shed or failed requests are
//! outputs of the model, not benchmark failures; the digest covers them.
//!
//! # Correctness
//!
//! Each pass digests its results, rendered through their canonical
//! `to_json`, into one FNV-1a digest; every pass of a run must agree, and
//! for the seeds recorded in `expected_digests.json` (the default seed and
//! one held-out seed) the digest must equal the recorded one. The exact
//! counts are checked too: `headline_cold` misses = 20 = distinct cells;
//! `study_warm` misses = 0 and hits = cells, and the parsed reports equal
//! the rendered ones; `serving_day` served + shed + failed = offered for the
//! capacity report, every probe of a traced run, the fleet and each replica,
//! and no cell is simulated in the measured phase. No check can be skipped.
//!
//! # Traced run (`--trace 1`)
//!
//! A separate invocation runs one untraced pass (its time is
//! `trace.untraced_pass_s`) and then traced passes, recording spans from
//! this crate's own code around each public layer call (see [`trace`]) and
//! writing them as Chrome trace-event JSON to `.perfbench/`. The difference
//! between the two pass times is `trace.overhead_share`. On
//! `headline_cold` the traced pass runs the cells over the same worker
//! count as `Campaign::run`; a replay phase after it prices every cell's
//! tables itself (`EmbeddingWorkload::generate`, `PinPlan::for_workload` /
//! `apply`, `Simulator::run_with_memory`, in `Experiment::run`'s order) and
//! asserts that its statistics equal the cell's, so the per-layer split
//! measures the same work. `runner.self_s` is `Experiment::run` minus the
//! replayed layer calls.
//!
//! Layer → per-layer metrics → the end-to-end metric they should move, and
//! on which workload; on the other workloads the prediction is no change:
//!
//! | Layer | Per-layer metrics | Should move |
//! |---|---|---|
//! | `gpu-sim` engine | `engine.busy_s`, `engine.share`, `engine.ns_per_sim_cycle`, `engine.ns_per_warp_inst` | `cells_per_s` / `study_s` on `headline_cold` |
//! | `gpu-sim` mem | `engine.ns_per_mem_access` (accesses = simulated L1 + L2 accesses) | `cells_per_s` on `headline_cold` (prefetch/L2P cells) |
//! | `dlrm-datasets` / `embedding-kernels` | `datasets.trace_gen_s`, `datasets.lookups_per_s`, `kernels.pin_plan_s` | `study_s` on `headline_cold` (small share); `setup_s` on `study_warm` |
//! | `runner` / `campaign` | `runner.self_s`, `campaign.parallel_efficiency` (Σ cell busy ÷ (workers × campaign time)) | `study_s` on `headline_cold` |
//! | `cache` / fingerprint | `fingerprint.ns_per_cell`, `cache.hit_ns_per_cell` (includes the fingerprint), `cache.hits`, `cache.misses`, `cache.wasted_sims` (misses − distinct cells) | `cells_per_s` on `study_warm` |
//! | `json` codec | `codec.load_s`, `codec.save_s`, `codec.render_s`, `codec.parse_s`, `codec.parse_mb_per_s` | `study_s` on `study_warm` |
//! | `serving` | `serving.probe_s`, `serving.ns_per_request`, `serving.arrivals_s` (probe traces regenerated outside the probes), `serving.probes` | `sim_requests_per_s` on `serving_day` |
//! | `fleet` | `fleet.simulate_s`, `fleet.ns_per_request` | `sim_requests_per_s` on `serving_day` |
//! | model (simulated) | `model.sim_cycles`, `model.emb_speedup.<scheme>`, `model.l2_hit_pct`, `model.dram_read_mb`, `model.capacity_qps` | none: work that only speeds up the simulator must leave these identical |
//!
//! `share.codec_cache` and `share.serving_fleet` (with `engine.share`) show
//! which spans cover each workload's measured phase. A layer that does no
//! work in a workload reports 0. The timing model is unvalidated — the
//! repository holds no hardware reference — so the `model.*` numbers carry
//! no error figure; the metadata line says so. The one reference the
//! repository holds, Table III's unique-access share, is reported as the
//! trace generator's error, `datasets.unique_access_err_pct`.
//!
//! # What this benchmark leaves alone
//!
//! The `wall_clock` gate, the `BENCH_*.json` artifacts, `vendor/criterion`
//! and the print-only benches under `crates/bench` are untouched. Retiring
//! them in favour of this benchmark needs a later change to the build and
//! CI files.

mod args;
mod bench;
mod digest;
mod headline;
mod host;
mod layers;
mod model;
mod pace;
mod serving;
mod stats;
mod study;
mod trace;

use args::WorkloadName;
use perf_envelope::json::Json;

fn main() {
    let args = match args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            std::process::exit(2);
        }
    };
    let workers = host::workers();
    let mut outcome = match args.workload {
        WorkloadName::HeadlineCold => headline::run(&args, workers),
        WorkloadName::StudyWarm => study::run(&args, workers),
        WorkloadName::ServingDay => serving::run(&args),
    };
    outcome.meta.set("host", host::metadata(args.seed, workers));
    let mut meta = Json::object();
    meta.set(
        "perfbench_meta",
        std::mem::replace(&mut outcome.meta, Json::Null),
    );
    println!("{}", meta.render());
    for problem in &outcome.problems {
        eprintln!("perfbench: check failed: {problem}");
    }
    println!("{}", outcome.result_line());
    if !outcome.correct() {
        std::process::exit(1);
    }
}
