//! Campaign result caching: [`CampaignCache`].
//!
//! The paper's evaluation keeps re-running the same cells: a grid with a
//! duplicated axis value revisits cells inside one run, the five DSE sweeps
//! all contain the base-scheme column for the same patterns, and benchmark /
//! figure regeneration re-executes entire grids. Since every cell is a pure
//! function of its inputs — the experiment's device and model configuration,
//! scale, seed, pooling factor, plus the workload and scheme — its
//! [`RunReport`] can be memoized on that fingerprint and served from cache
//! on every later request.
//!
//! A cache is attached to an [`Experiment`] with
//! [`Experiment::with_cache`]; every [`Experiment::run`] call through that
//! experiment (including every [`crate::Campaign`] built over it, which
//! clones the experiment per cell, and every per-shard cell of a sharded
//! workload) consults the cache first. Reports are exact clones of the
//! originals, so cached campaigns remain deterministic and
//! thread-count-independent.
//!
//! Keys are a canonical fingerprint encoding (a JSON rendering with sorted
//! keys and shortest-round-trip floats, replacing the seed's `Debug`-string
//! keys) — byte-identical across processes — so a cache can be persisted with
//! [`CampaignCache::save_to`] and reloaded with [`CampaignCache::load_from`]
//! for incremental re-runs across processes: a sweep that overlaps an
//! earlier archived sweep only executes its genuinely new cells.
//!
//! ```
//! use dlrm::WorkloadScale;
//! use dlrm_datasets::AccessPattern;
//! use gpu_sim::GpuConfig;
//! use perf_envelope::{CampaignCache, Experiment, Scheme, Workload};
//!
//! let cache = CampaignCache::new();
//! let experiment = Experiment::new(GpuConfig::test_small(), WorkloadScale::Test)
//!     .with_cache(cache.clone());
//! let workload = Workload::kernel(AccessPattern::MedHot);
//! let first = experiment.run(&workload, &Scheme::base());
//! let second = experiment.run(&workload, &Scheme::base());
//! assert_eq!(first, second);
//! assert_eq!(cache.hits(), 1);
//! assert_eq!(cache.misses(), 1);
//! ```

use std::collections::HashMap;
use std::fmt;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};

use crate::json::{Json, JsonError};
use crate::report::RunReport;
use crate::runner::Experiment;
use crate::scheme::Scheme;
use crate::workload::Workload;

/// Identifier of the persisted-cache JSON schema produced by this crate
/// version.
pub const CAMPAIGN_CACHE_SCHEMA: &str = "perf-envelope/campaign-cache/v1";

/// A thread-safe memo of [`RunReport`]s keyed by the canonical cell
/// fingerprint (workload incl. sharding spec, scheme, seed, pooling factor,
/// cluster topology and model configuration, scale, engine mode).
#[derive(Debug, Default)]
pub struct CampaignCache {
    cells: Mutex<Cells>,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// The cache contents, behind one lock so a lookup sees finished and
/// in-flight cells consistently.
#[derive(Debug, Default)]
struct Cells {
    // audit:allow(unordered_collection): keyed fingerprint lookups only;
    // to_json sorts cells by key before rendering
    done: HashMap<String, RunReport>,
    // audit:allow(unordered_collection): keyed lookups only, never iterated
    in_flight: HashMap<String, Arc<Flight>>,
}

/// A cold cell one thread is simulating while other requesters wait.
#[derive(Debug, Default)]
struct Flight {
    settled: Mutex<bool>,
    wake: Condvar,
}

impl Flight {
    /// Blocks until the simulating thread is done with the cell, whether
    /// it cached a report or panicked.
    fn wait(&self) {
        let settled = self.settled.lock().expect("flight poisoned");
        let _settled = self
            .wake
            .wait_while(settled, |settled| !*settled)
            .expect("flight poisoned");
    }
}

/// Held by the thread simulating a cold cell. Dropping it, after the
/// report is cached or while a panic unwinds, ends the flight and wakes
/// the waiters, which then look the cell up again.
struct Leader<'a> {
    cache: &'a CampaignCache,
    key: &'a str,
    flight: Arc<Flight>,
}

impl Drop for Leader<'_> {
    fn drop(&mut self) {
        // Runs while a panic unwinds, so it must not panic on a poisoned
        // lock; each update below leaves the data valid on its own.
        self.cache
            .cells
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .in_flight
            .remove(self.key);
        *self
            .flight
            .settled
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = true;
        self.flight.wake.notify_all();
    }
}

impl CampaignCache {
    /// Creates an empty cache, shareable across experiments, campaigns and
    /// worker threads.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    fn lock_cells(&self) -> std::sync::MutexGuard<'_, Cells> {
        self.cells.lock().expect("cache poisoned")
    }

    /// Returns the cached report for the cell, or runs it and caches the
    /// result. Each cell is simulated once: a thread requesting a cell
    /// that another thread is simulating waits for that result (and counts
    /// a hit), so `misses()` equals the number of distinct cells at any
    /// thread count. If the simulating thread panics, its waiters retry
    /// the cell themselves.
    pub(crate) fn get_or_run(
        &self,
        experiment: &Experiment,
        workload: &Workload,
        scheme: &Scheme,
    ) -> RunReport {
        let key = experiment.cell_fingerprint(workload, scheme);
        loop {
            let mut cells = self.lock_cells();
            if let Some(report) = cells.done.get(&key) {
                // audit:allow(thread_accumulation): monotonic counter; the total
                // is order-insensitive and never feeds a simulated result
                self.hits.fetch_add(1, Ordering::Relaxed);
                return report.clone();
            }
            if let Some(flight) = cells.in_flight.get(&key).cloned() {
                drop(cells);
                flight.wait();
                continue;
            }
            let flight = Arc::new(Flight::default());
            cells.in_flight.insert(key.clone(), flight.clone());
            drop(cells);
            // audit:allow(thread_accumulation): monotonic counter, order-insensitive
            self.misses.fetch_add(1, Ordering::Relaxed);
            let _leader = Leader {
                cache: self,
                key: &key,
                flight,
            };
            let report = experiment.run_uncached(workload, scheme);
            self.lock_cells().done.insert(key.clone(), report.clone());
            return report;
        }
    }

    /// Number of requests served from cache.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Number of requests that had to execute their cell.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of distinct cells currently cached.
    pub fn len(&self) -> usize {
        self.lock_cells().done.len()
    }

    /// Whether the cache holds no cells.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every cached report (statistics are preserved).
    pub fn clear(&self) {
        self.lock_cells().done.clear();
    }

    /// Serializes the cache as a JSON document: every cell's canonical
    /// fingerprint key together with its report, sorted by key so the
    /// rendering is stable for identical contents.
    pub fn to_json(&self) -> String {
        let mut cells: Vec<(String, RunReport)> = self
            .lock_cells()
            .done
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        cells.sort_by(|a, b| a.0.cmp(&b.0));
        let mut doc = Json::object();
        doc.set("schema", Json::Str(CAMPAIGN_CACHE_SCHEMA.to_string()));
        doc.set(
            "cells",
            Json::Arr(
                cells
                    .into_iter()
                    .map(|(key, report)| {
                        let mut cell = Json::object();
                        cell.set("key", Json::Str(key));
                        cell.set("report", report.to_json_value());
                        cell
                    })
                    .collect(),
            ),
        );
        doc.render()
    }

    /// Parses a cache back from [`CampaignCache::to_json`] output. The
    /// returned cache starts with fresh hit/miss statistics.
    ///
    /// # Errors
    /// Returns a [`JsonError`] on syntax errors, a wrong `schema` tag, or
    /// malformed cells.
    pub fn from_json(text: &str) -> Result<Arc<Self>, JsonError> {
        let doc = Json::parse(text)?;
        match doc.get("schema").and_then(Json::as_str) {
            Some(CAMPAIGN_CACHE_SCHEMA) => {}
            Some(other) => {
                return Err(JsonError::schema(format!(
                    "unsupported cache schema '{other}'"
                )))
            }
            None => return Err(JsonError::schema("missing field 'schema'")),
        }
        let cells = doc
            .get("cells")
            .and_then(Json::as_array)
            .ok_or_else(|| JsonError::schema("field 'cells' is not an array"))?;
        // audit:allow(unordered_collection): keyed lookups only (see the map field)
        let mut map = HashMap::with_capacity(cells.len());
        for cell in cells {
            let key = cell
                .get("key")
                .and_then(Json::as_str)
                .ok_or_else(|| JsonError::schema("cell is missing a string 'key'"))?;
            let report = cell
                .get("report")
                .ok_or_else(|| JsonError::schema("cell is missing its 'report'"))?;
            map.insert(key.to_string(), RunReport::from_json_value(report)?);
        }
        Ok(Arc::new(CampaignCache {
            cells: Mutex::new(Cells {
                done: map,
                ..Cells::default()
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }))
    }

    /// Writes the cache to `path` (see [`CampaignCache::to_json`]) so a
    /// later process can pick up where this one left off.
    ///
    /// # Errors
    /// Returns the underlying I/O error if the file cannot be written.
    pub fn save_to(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }

    /// Reads a cache previously written by [`CampaignCache::save_to`].
    /// Attach the result with [`Experiment::with_cache`] (or
    /// [`crate::Campaign::with_cache`]) and previously executed cells are
    /// served without re-simulation.
    ///
    /// # Errors
    /// Returns a [`CacheLoadError`] if the file cannot be read or does not
    /// parse as a persisted cache.
    pub fn load_from(path: impl AsRef<Path>) -> Result<Arc<Self>, CacheLoadError> {
        let text = std::fs::read_to_string(path).map_err(CacheLoadError::Io)?;
        Self::from_json(&text).map_err(CacheLoadError::Json)
    }
}

/// Why [`CampaignCache::load_from`] failed.
#[derive(Debug)]
pub enum CacheLoadError {
    /// The file could not be read.
    Io(std::io::Error),
    /// The file's contents are not a valid persisted cache.
    Json(JsonError),
}

impl fmt::Display for CacheLoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CacheLoadError::Io(e) => write!(f, "failed to read the cache file: {e}"),
            CacheLoadError::Json(e) => write!(f, "failed to parse the cache file: {e}"),
        }
    }
}

impl std::error::Error for CacheLoadError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CacheLoadError::Io(e) => Some(e),
            CacheLoadError::Json(e) => Some(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::Campaign;
    use dlrm::WorkloadScale;
    use dlrm_datasets::AccessPattern;
    use gpu_sim::{EngineMode, GpuConfig};

    fn cached_experiment(cache: &Arc<CampaignCache>) -> Experiment {
        Experiment::new(GpuConfig::test_small(), WorkloadScale::Test).with_cache(cache.clone())
    }

    #[test]
    fn identical_cells_hit() {
        let cache = CampaignCache::new();
        let e = cached_experiment(&cache);
        let w = Workload::kernel(AccessPattern::MedHot);
        let a = e.run(&w, &Scheme::base());
        let b = e.run(&w, &Scheme::base());
        assert_eq!(a, b);
        assert_eq!((cache.misses(), cache.hits()), (1, 1));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn changed_seed_misses() {
        let cache = CampaignCache::new();
        let e = cached_experiment(&cache);
        let w = Workload::kernel(AccessPattern::MedHot);
        let a = e.run(&w, &Scheme::base());
        let b = e.clone().with_seed(99).run(&w, &Scheme::base());
        assert_ne!(a.stats, b.stats);
        assert_eq!((cache.misses(), cache.hits()), (2, 0));
    }

    #[test]
    fn changed_pooling_factor_misses() {
        let cache = CampaignCache::new();
        let e = cached_experiment(&cache);
        let w = Workload::kernel(AccessPattern::MedHot);
        let _ = e.clone().with_pooling_factor(4).run(&w, &Scheme::base());
        let _ = e.clone().with_pooling_factor(16).run(&w, &Scheme::base());
        assert_eq!((cache.misses(), cache.hits()), (2, 0));
    }

    #[test]
    fn workload_scheme_device_and_mode_distinguish_cells() {
        let cache = CampaignCache::new();
        let e = cached_experiment(&cache);
        let w = Workload::kernel(AccessPattern::MedHot);
        let _ = e.run(&w, &Scheme::base());
        let _ = e.run(&w, &Scheme::optmt());
        let _ = e.run(&Workload::kernel(AccessPattern::Random), &Scheme::base());
        let _ = e.run(&Workload::stage(AccessPattern::MedHot), &Scheme::base());
        let other_device =
            Experiment::new(GpuConfig::test_small().with_num_sms(2), WorkloadScale::Test)
                .with_cache(cache.clone());
        let _ = other_device.run(&w, &Scheme::base());
        let reference = e.clone().with_engine_mode(EngineMode::CycleAccurate);
        let _ = reference.run(&w, &Scheme::base());
        assert_eq!((cache.misses(), cache.hits()), (6, 0));
    }

    #[test]
    fn cached_report_is_bit_identical_to_uncached() {
        let cache = CampaignCache::new();
        let cached = cached_experiment(&cache);
        let plain = Experiment::new(GpuConfig::test_small(), WorkloadScale::Test);
        let w = Workload::stage(AccessPattern::LowHot);
        let warm = cached.run(&w, &Scheme::combined());
        let warm_again = cached.run(&w, &Scheme::combined());
        assert_eq!(warm, warm_again);
        assert_eq!(warm, plain.run(&w, &Scheme::combined()));
        assert_eq!(cache.hits(), 1);
    }

    #[test]
    fn campaigns_share_the_cache_across_runs() {
        let cache = CampaignCache::new();
        let grid = || {
            Campaign::new(cached_experiment(&cache))
                .workloads([
                    Workload::kernel(AccessPattern::HighHot),
                    Workload::kernel(AccessPattern::Random),
                ])
                .schemes([Scheme::base(), Scheme::optmt()])
        };
        let first = grid().run();
        assert_eq!((cache.misses(), cache.hits()), (4, 0));
        // The re-run (e.g. a second sweep overlapping the first) is served
        // entirely from cache and stays deterministic across thread counts.
        let second = grid().threads(3).run();
        assert_eq!(cache.misses(), 4);
        assert_eq!(cache.hits(), 4);
        assert_eq!(first, second);
    }

    #[test]
    fn duplicated_grid_axis_values_are_served_from_cache() {
        let cache = CampaignCache::new();
        let run = Campaign::new(cached_experiment(&cache))
            .workload(Workload::kernel(AccessPattern::MedHot))
            .scheme(Scheme::base())
            .seeds([7, 7, 7])
            .run();
        assert_eq!(run.len(), 3);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 2);
        assert_eq!(run.reports()[0], run.reports()[2]);
    }

    #[test]
    fn concurrent_requests_for_a_cold_cell_simulate_it_once() {
        let cache = CampaignCache::new();
        let e = cached_experiment(&cache);
        let w = Workload::kernel(AccessPattern::MedHot);
        let barrier = std::sync::Barrier::new(8);
        let reports: Vec<RunReport> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        e.run(&w, &Scheme::base())
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!((cache.misses(), cache.hits()), (1, 7));
        assert!(reports.iter().all(|r| *r == reports[0]));
    }

    #[test]
    fn waiters_retry_a_cell_whose_simulation_panicked() {
        let cache = CampaignCache::new();
        let e = cached_experiment(&cache);
        let w = Workload::kernel(AccessPattern::MedHot);
        let key = e.cell_fingerprint(&w, &Scheme::base());
        let flight = Arc::new(Flight::default());
        cache
            .lock_cells()
            .in_flight
            .insert(key.clone(), flight.clone());
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| e.run(&w, &Scheme::base()));
            // The waiter holds its own handle on the flight once it found
            // the cell in flight (map entry + ours + the waiter's).
            while Arc::strong_count(&flight) < 3 {
                std::thread::yield_now();
            }
            // Stand in for a simulating thread that panics: dropping an
            // unfinished leader abandons the flight and wakes the waiter.
            drop(Leader {
                cache: &cache,
                key: &key,
                flight,
            });
            assert_eq!(waiter.join().unwrap(), e.run(&w, &Scheme::base()));
        });
        assert_eq!((cache.misses(), cache.hits()), (1, 1));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn load_rejects_hostile_nesting_without_aborting() {
        let path = std::env::temp_dir().join(format!(
            "perf-envelope-cache-nesting-{}.json",
            std::process::id()
        ));
        std::fs::write(&path, "[".repeat(100_000)).unwrap();
        let loaded = CampaignCache::load_from(&path);
        std::fs::remove_file(&path).ok();
        assert!(matches!(loaded, Err(CacheLoadError::Json(_))));
    }

    #[test]
    fn json_round_trip_preserves_every_cell() {
        let cache = CampaignCache::new();
        let e = cached_experiment(&cache);
        let w = Workload::stage(AccessPattern::MedHot);
        let original = e.run(&w, &Scheme::combined());
        let _ = e.run(&Workload::kernel(AccessPattern::Random), &Scheme::base());

        let reloaded = CampaignCache::from_json(&cache.to_json()).unwrap();
        assert_eq!(reloaded.len(), 2);
        assert_eq!((reloaded.hits(), reloaded.misses()), (0, 0));
        // A fresh experiment over the reloaded cache serves both cells
        // without re-simulating, bit-identically.
        let e2 = Experiment::new(GpuConfig::test_small(), WorkloadScale::Test)
            .with_cache(reloaded.clone());
        assert_eq!(e2.run(&w, &Scheme::combined()), original);
        assert_eq!((reloaded.hits(), reloaded.misses()), (1, 0));
        // Rendering is canonical: a second trip is byte-identical.
        assert_eq!(reloaded.to_json(), cache.to_json());
    }

    #[test]
    fn save_and_load_work_across_the_filesystem() {
        let cache = CampaignCache::new();
        let e = cached_experiment(&cache);
        let w = Workload::kernel(AccessPattern::MedHot);
        let original = e.run(&w, &Scheme::base());

        let path = std::env::temp_dir().join(format!(
            "perf-envelope-cache-test-{}.json",
            std::process::id()
        ));
        cache.save_to(&path).unwrap();
        let reloaded = CampaignCache::load_from(&path).unwrap();
        std::fs::remove_file(&path).ok();

        let e2 = Experiment::new(GpuConfig::test_small(), WorkloadScale::Test)
            .with_cache(reloaded.clone());
        assert_eq!(e2.run(&w, &Scheme::base()), original);
        assert_eq!((reloaded.hits(), reloaded.misses()), (1, 0));
    }

    #[test]
    fn load_rejects_garbage_and_wrong_schemas() {
        assert!(CampaignCache::from_json("not json").is_err());
        assert!(CampaignCache::from_json("{\"schema\":\"other/v9\",\"cells\":[]}").is_err());
        assert!(CampaignCache::from_json("{\"cells\":[]}").is_err());
        let missing = CampaignCache::load_from("/nonexistent/path/cache.json");
        assert!(matches!(missing, Err(CacheLoadError::Io(_))));
    }

    #[test]
    fn clear_empties_the_cache() {
        let cache = CampaignCache::new();
        let e = cached_experiment(&cache);
        let _ = e.run(&Workload::kernel(AccessPattern::MedHot), &Scheme::base());
        assert!(!cache.is_empty());
        cache.clear();
        assert!(cache.is_empty());
        let _ = e.run(&Workload::kernel(AccessPattern::MedHot), &Scheme::base());
        assert_eq!(cache.misses(), 2);
    }
}
