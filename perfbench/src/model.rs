//! Simulated (model) outputs: what the timing model predicts, as opposed to
//! how long the host took to predict it. A change that only speeds up the
//! simulator must leave every one of these identical.
//!
//! The timing model is unvalidated: the repository holds no measurement of
//! real hardware, so no error figure is given for these numbers. The one
//! reference the repository does hold is Table III's unique-access share
//! per dataset, against which the trace generator's error is reported.

use std::collections::BTreeMap;

use dlrm_datasets::{AccessPattern, TraceConfig};
use perf_envelope::json::Json;
use perf_envelope::RunReport;

use crate::layers::{speedup_metric, LayerSample, PER_LAYER};
use crate::stats;

/// The validation status printed beside every `model.*` number.
pub const MODEL_STATUS: &str = "unvalidated: the repository holds no hardware reference, \
so model.* numbers carry no error figure";

/// The embedding-stage latency of a report (the whole latency for reports
/// without an end-to-end breakdown).
fn embedding_us(report: &RunReport) -> f64 {
    report
        .end_to_end
        .as_ref()
        .map_or(report.latency_us, |breakdown| breakdown.embedding_us)
}

/// Adds the simulated totals of `reports` to `sample`: cycles, L2 hit rate,
/// DRAM reads, and per scheme the geometric-mean embedding speed-up over
/// the base scheme on the same workload, seed and pooling factor.
pub fn add_model_metrics(reports: &[RunReport], sample: &mut LayerSample) {
    let cycles: u64 = reports.iter().map(|r| r.stats.elapsed_cycles).sum();
    let l2_hits: u64 = reports.iter().map(|r| r.stats.l2_hits).sum();
    let l2_accesses: u64 = reports.iter().map(|r| r.stats.l2_accesses).sum();
    let dram_mb: f64 = reports.iter().map(|r| r.stats.device_mem_read_mb()).sum();
    sample.insert("model.sim_cycles", cycles as f64);
    sample.insert(
        "model.l2_hit_pct",
        crate::layers::ratio(100.0 * l2_hits as f64, l2_accesses as f64),
    );
    sample.insert("model.dram_read_mb", dram_mb);

    let key = |r: &RunReport| (r.workload.clone(), r.seed, r.pooling_factor);
    let base: BTreeMap<_, f64> = reports
        .iter()
        .filter(|r| r.scheme == "base")
        .map(|r| (key(r), embedding_us(r)))
        .collect();
    let mut speedups: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for report in reports.iter().filter(|r| r.scheme != "base") {
        if let Some(base_us) = base.get(&key(report)) {
            speedups
                .entry(speedup_metric(&report.scheme))
                .or_default()
                .push(base_us / embedding_us(report));
        }
    }
    for (name, values) in speedups {
        let name = PER_LAYER
            .iter()
            .find(|(known, _)| *known == name)
            .map(|(known, _)| *known)
            .unwrap_or_else(|| panic!("scheme metric '{name}' is not in the catalogue"));
        sample.insert(name, stats::geomean(&values));
    }
}

/// The trace generator's error against Table III: mean absolute difference,
/// in percentage points, between the generated and the paper's unique-access
/// share over the evaluated datasets, at the paper's trace scale (the scale
/// of Table III). Also returns the per-dataset figures.
pub fn unique_access_error(seed: u64) -> (f64, Json) {
    let trace = TraceConfig::paper_scale();
    let mut table = Json::object();
    let mut errors = Vec::new();
    for pattern in AccessPattern::EVALUATED {
        let generated = trace.generate(pattern, seed).unique_access_pct();
        let paper = pattern.paper_unique_access_pct();
        errors.push((generated - paper).abs());
        let mut row = Json::object();
        row.set("generated_pct", Json::Num(generated));
        row.set("paper_pct", Json::Num(paper));
        table.set(pattern.paper_name(), row);
    }
    (errors.iter().sum::<f64>() / errors.len() as f64, table)
}
