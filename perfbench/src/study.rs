//! `study_warm`: a DSE-style grid re-run from a persisted cache, so
//! fingerprinting, cache lookup and the JSON codec do all the work and the
//! engine none.

use std::path::{Path, PathBuf};

use dlrm::WorkloadScale;
use dlrm_datasets::AccessPattern;
use gpu_sim::GpuConfig;
use perf_envelope::{
    Campaign, CampaignCache, CampaignRun, Experiment, RunReport, Scheme, Workload,
};

use crate::args::Args;
use crate::bench::{self, EndToEnd, Measured, Outcome, PassCheck};
use crate::digest::Digest;
use crate::layers::{ratio, LayerSample};
use crate::model;
use crate::trace::{SpanId, Tracer, NO_OP};

/// Seeds per run seed on the grid's seed axis.
const SEEDS: u64 = 8;
const POOLING_FACTORS: [u32; 4] = [2, 4, 8, 16];

fn schemes() -> [Scheme; 3] {
    [Scheme::base(), Scheme::optmt(), Scheme::combined()]
}

/// The grid's seeds: `SEEDS` consecutive values, disjoint across run seeds.
fn seeds(seed: u64) -> Vec<u64> {
    (0..SEEDS)
        .map(|i| seed.wrapping_mul(SEEDS).wrapping_add(i))
        .collect()
}

fn base_experiment() -> Experiment {
    Experiment::new(GpuConfig::test_small(), WorkloadScale::Test)
}

fn campaign(seed: u64, workers: usize) -> Campaign {
    Campaign::new(base_experiment())
        .workloads(AccessPattern::EVALUATED.map(Workload::stage))
        .schemes(schemes())
        .seeds(seeds(seed))
        .pooling_factors(POOLING_FACTORS)
        .threads(workers)
}

/// Set-up: simulates the grid once into a fresh cache and persists it.
/// Returns the cold run's digest.
fn setup(seed: u64, workers: usize, path: &Path) -> String {
    let cache = CampaignCache::new();
    let run = campaign(seed, workers).with_cache(cache.clone()).run();
    cache
        .save_to(path)
        .expect("the study cache must be writable");
    Digest::new().update(&run.to_json()).hex()
}

/// What one warm pass produced, besides its time.
struct Warm {
    run: CampaignRun,
    json: String,
    parsed: Vec<RunReport>,
    hits: u64,
    misses: u64,
}

/// Runs `f`, inside a span named `name` under `parent` when traced.
fn step<T>(traced: Option<(&Tracer, SpanId)>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match traced {
        Some((tracer, parent)) => tracer.span(name, NO_OP, Some(parent), 0, |_| f()),
        None => f(),
    }
}

/// The five steps of a warm pass: reload the cache, re-run the grid from
/// it, render the results, parse them back, persist the cache.
fn warm_pass(seed: u64, workers: usize, path: &Path, traced: Option<(&Tracer, SpanId)>) -> Warm {
    let cache = step(traced, "codec.load", || {
        CampaignCache::load_from(path).expect("the study cache must load")
    });
    let run = step(traced, "campaign.run", || {
        campaign(seed, workers).with_cache(cache.clone()).run()
    });
    let (hits, misses) = (cache.hits(), cache.misses());
    let json = step(traced, "codec.render", || run.to_json());
    let parsed = step(traced, "codec.parse", || {
        CampaignRun::from_json(&json).expect("rendered reports must parse")
    });
    step(traced, "codec.save", || {
        cache
            .save_to(path)
            .expect("the study cache must be writable")
    });
    Warm {
        run,
        json,
        parsed,
        hits,
        misses,
    }
}

fn check(warm: &Warm, cells: usize) -> PassCheck {
    let mut problems = Vec::new();
    if warm.misses != 0 || warm.hits as usize != cells {
        problems.push(format!(
            "a warm grid of {cells} cells must hit every cell: {} hits, {} misses",
            warm.hits, warm.misses
        ));
    }
    if warm.parsed != warm.run.reports() {
        problems.push("parsed reports differ from the rendered run".to_string());
    }
    PassCheck {
        operations: cells as u64,
        problems,
        digest: Digest::new().update(&warm.json).hex(),
    }
}

/// Removes the persisted cache when the run ends, however it ends.
struct RemoveOnDrop(PathBuf);

impl Drop for RemoveOnDrop {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

pub fn run(args: &Args, workers: usize) -> Outcome {
    let dir = bench::work_dir().expect("the work directory must be creatable");
    let path = dir.join(format!("study_warm-{}.cache.json", std::process::id()));
    let _cleanup = RemoveOnDrop(path.clone());
    let cells = campaign(args.seed, workers).len();
    let (setup_s, cold_digest) = bench::repeated_setup(|| setup(args.seed, workers, &path));
    let tracer = Tracer::new();
    let (measured, samples) = bench::measure(
        args,
        cells as u64,
        || {
            let (seconds, warm) = bench::timed(|| warm_pass(args.seed, workers, &path, None));
            (seconds, check(&warm, cells))
        },
        |measured| traced_pass(args.seed, workers, &path, &tracer, measured),
    );
    let batch = base_experiment().model().batch_size() as f64;
    let end_to_end = EndToEnd {
        setup_s,
        cells_per_pass: cells as f64,
        requests_per_pass: cells as f64 * batch,
    };
    // Every warm pass must reproduce the cold run of the set-up.
    bench::outcome(args, measured, cold_digest, end_to_end, &tracer, &samples)
}

/// One traced warm pass, then a sweep that fingerprints and fetches every
/// cell from the cache one at a time, to price a single lookup.
fn traced_pass(
    seed: u64,
    workers: usize,
    path: &Path,
    tracer: &Tracer,
    measured: &mut Measured,
) -> LayerSample {
    let cells = campaign(seed, workers).len();
    let pass = tracer.open("bench.pass", NO_OP, None, 0);
    let warm = warm_pass(seed, workers, path, Some((tracer, pass)));
    tracer.close(pass);
    let pass_check = check(&warm, cells);
    measured.add_checked(cells as u64, pass_check.problems);
    measured.digests.push(pass_check.digest);
    let spans = tracer.spans_since(pass);
    let busy = crate::trace::busy_s(&spans);
    let get = |name: &str| busy.get(name).copied().unwrap_or(0.0);

    // The per-cell sweep, built the way `Campaign::run` builds each cell.
    let cache = CampaignCache::load_from(path).expect("the study cache must load");
    let base = base_experiment().with_threads(1).with_cache(cache.clone());
    let sweep = tracer.open("bench.cell_sweep", NO_OP, None, 0);
    let mut op = 0u64;
    let mut swept = Vec::with_capacity(cells);
    for pattern in AccessPattern::EVALUATED {
        let workload = Workload::stage(pattern);
        for scheme in schemes() {
            for &cell_seed in &seeds(seed) {
                for pooling in POOLING_FACTORS {
                    let experiment = base
                        .clone()
                        .with_seed(cell_seed)
                        .with_pooling_factor(pooling);
                    tracer.span("fingerprint.cell", op, Some(sweep), 0, |_| {
                        std::hint::black_box(experiment.fingerprint(&workload, &scheme))
                    });
                    swept.push(tracer.span("cache.hit", op, Some(sweep), 0, |_| {
                        experiment.run(&workload, &scheme)
                    }));
                    op += 1;
                }
            }
        }
    }
    tracer.close(sweep);
    let mut problems = Vec::new();
    if swept != warm.run.reports() || cache.misses() != 0 {
        problems.push("the per-cell sweep differs from the grid or missed the cache".to_string());
    }
    measured.add_checked(cells as u64, problems);
    let sweep_busy = crate::trace::busy_s(&tracer.spans_since(sweep));
    let sweep_get = |name: &str| sweep_busy.get(name).copied().unwrap_or(0.0);

    let pass_s = tracer.seconds(pass);
    let codec_s = get("codec.load") + get("codec.render") + get("codec.parse") + get("codec.save");
    let mut sample = LayerSample::new();
    sample.insert("codec.load_s", get("codec.load"));
    sample.insert("codec.save_s", get("codec.save"));
    sample.insert("codec.render_s", get("codec.render"));
    sample.insert("codec.parse_s", get("codec.parse"));
    sample.insert(
        "codec.parse_mb_per_s",
        ratio(warm.json.len() as f64 / 1e6, get("codec.parse")),
    );
    sample.insert("cache.hits", warm.hits as f64);
    sample.insert("cache.misses", warm.misses as f64);
    sample.insert("cache.wasted_sims", 0.0);
    sample.insert(
        "cache.hit_ns_per_cell",
        sweep_get("cache.hit") * 1e9 / cells as f64,
    );
    sample.insert(
        "fingerprint.ns_per_cell",
        sweep_get("fingerprint.cell") * 1e9 / cells as f64,
    );
    sample.insert(
        "campaign.parallel_efficiency",
        ratio(sweep_get("cache.hit"), workers as f64 * get("campaign.run")),
    );
    // The warm re-run is all cache work: the check above proves no miss.
    sample.insert(
        "share.codec_cache",
        ratio(codec_s + get("campaign.run"), pass_s),
    );
    sample.insert("trace.pass_s", pass_s);
    model::add_model_metrics(warm.run.reports(), &mut sample);
    sample
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_grid(threads: usize) -> Campaign {
        Campaign::new(base_experiment())
            .workloads([AccessPattern::HighHot, AccessPattern::Random].map(Workload::stage))
            .schemes([Scheme::base(), Scheme::combined()])
            .seeds(seeds(3).into_iter().take(2))
            .pooling_factors([4])
            .threads(threads)
    }

    fn digest_of(grid: &Campaign) -> String {
        Digest::new().update(&grid.run().to_json()).hex()
    }

    #[test]
    fn digest_is_stable_in_process_and_across_worker_counts() {
        let serial = digest_of(&small_grid(1));
        assert_eq!(serial, digest_of(&small_grid(1)));
        assert_eq!(serial, digest_of(&small_grid(2)));
    }

    #[test]
    fn seeds_are_disjoint_across_run_seeds() {
        let a = seeds(1);
        let b = seeds(2);
        assert_eq!(a.len(), SEEDS as usize);
        assert!(a.iter().all(|s| !b.contains(s)));
    }
}
