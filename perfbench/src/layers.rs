//! The per-layer metrics of the traced run: their catalogue, and the
//! reduction from one value per traced pass to the reported median.

use std::collections::BTreeMap;

use perf_envelope::json::Json;

use crate::args::Args;
use crate::bench::{self, Outcome};
use crate::model;
use crate::stats;
use crate::trace::{self, Tracer};

/// Every per-layer metric with its unit. A traced run reports all of them
/// on every workload; a layer that does no work in a workload reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("engine.busy_s", "s"),
    ("engine.share", "fraction"),
    ("engine.ns_per_sim_cycle", "ns"),
    ("engine.ns_per_warp_inst", "ns"),
    ("engine.ns_per_mem_access", "ns"),
    ("datasets.trace_gen_s", "s"),
    ("datasets.lookups_per_s", "1/s"),
    ("datasets.unique_access_err_pct", "%"),
    ("kernels.pin_plan_s", "s"),
    ("runner.self_s", "s"),
    ("campaign.parallel_efficiency", "fraction"),
    ("fingerprint.ns_per_cell", "ns"),
    ("cache.hit_ns_per_cell", "ns"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.wasted_sims", "count"),
    ("codec.load_s", "s"),
    ("codec.save_s", "s"),
    ("codec.render_s", "s"),
    ("codec.parse_s", "s"),
    ("codec.parse_mb_per_s", "MB/s"),
    ("serving.probe_s", "s"),
    ("serving.ns_per_request", "ns"),
    ("serving.arrivals_s", "s"),
    ("serving.probes", "count"),
    ("fleet.simulate_s", "s"),
    ("fleet.ns_per_request", "ns"),
    ("share.codec_cache", "fraction"),
    ("share.serving_fleet", "fraction"),
    ("trace.pass_s", "s"),
    ("trace.untraced_pass_s", "s"),
    ("trace.overhead_share", "fraction"),
    ("model.sim_cycles", "cycles"),
    ("model.emb_speedup.OptMT", "x"),
    ("model.emb_speedup.RPF_OptMT", "x"),
    ("model.emb_speedup.L2P_OptMT", "x"),
    ("model.emb_speedup.RPF_L2P_OptMT", "x"),
    ("model.l2_hit_pct", "%"),
    ("model.dram_read_mb", "MB"),
    ("model.capacity_qps", "1/s"),
];

/// The per-layer values one traced pass measured.
pub type LayerSample = BTreeMap<&'static str, f64>;

/// The metric name of a scheme's embedding speed-up (`RPF+L2P+OptMT` →
/// `model.emb_speedup.RPF_L2P_OptMT`).
pub fn speedup_metric(scheme_label: &str) -> String {
    format!("model.emb_speedup.{}", scheme_label.replace('+', "_"))
}

/// Reports the median of each per-layer metric over the traced passes.
///
/// # Panics
/// Panics if a sample names a metric missing from [`PER_LAYER`].
pub fn report(out: &mut Outcome, samples: &[LayerSample]) {
    for sample in samples {
        for name in sample.keys() {
            assert!(
                PER_LAYER.iter().any(|(known, _)| known == name),
                "per-layer metric '{name}' is not in the catalogue"
            );
        }
    }
    for &(name, unit) in PER_LAYER {
        let values: Vec<f64> = samples
            .iter()
            .map(|s| s.get(name).copied().unwrap_or(0.0))
            .collect();
        let value = if values.is_empty() {
            0.0
        } else {
            stats::median(&values)
        };
        out.metric(name, value, unit);
    }
}

/// Adds the per-layer metrics, the generator's error and the trace file.
pub fn finish(out: &mut Outcome, args: &Args, tracer: &Tracer, samples: &[LayerSample]) {
    report(out, samples);
    let (error, table) = model::unique_access_error(args.seed);
    out.metric("datasets.unique_access_err_pct", error, "%");
    out.meta
        .set("model_status", Json::Str(model::MODEL_STATUS.to_string()));
    out.meta.set("unique_access_vs_table3", table);
    let spans = tracer.spans();
    let mut self_time = Json::object();
    for (name, seconds) in trace::self_s(&spans) {
        self_time.set(name, Json::Num(seconds));
    }
    out.meta.set("span_self_s_total", self_time);
    let written = bench::work_dir().and_then(|dir| {
        let path = dir.join(format!("trace-{}-seed{}.json", args.workload, args.seed));
        std::fs::write(&path, trace::chrome_json(&spans)).map(|()| path)
    });
    match written {
        Ok(path) => out
            .meta
            .set("trace_file", Json::Str(path.display().to_string())),
        Err(err) => out.meta.set("trace_file_error", Json::Str(err.to_string())),
    };
}

/// `numerator / denominator`, or 0 when there is nothing to divide by.
pub fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perf_envelope::json::Json;

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits beside perfbench/");
        Json::parse(&text).expect("BENCHMARK.json must parse")
    }

    fn names_and_units(doc: &Json, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap().to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let listed = names_and_units(&benchmark_json(), "per_layer");
        let catalogue: Vec<(String, String)> = PER_LAYER
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(listed, catalogue);
    }

    #[test]
    fn end_to_end_metrics_match_benchmark_json() {
        let mut out = Outcome::new(crate::bench::Measured::default());
        crate::bench::EndToEnd {
            setup_s: vec![1.0],
            cells_per_pass: 4.0,
            requests_per_pass: 5.0,
        }
        .report(&mut out, &[2.0, 3.0], 1.0);
        let mut listed = names_and_units(&benchmark_json(), "end_to_end");
        listed.sort();
        let reported: Vec<(String, String)> = out
            .metrics
            .iter()
            .map(|(n, (_, u))| (n.clone(), u.to_string()))
            .collect();
        assert_eq!(listed, reported);
    }

    #[test]
    fn every_catalogued_metric_is_reported() {
        let mut out = Outcome::new(crate::bench::Measured::default());
        let mut sample = LayerSample::new();
        sample.insert("engine.busy_s", 2.0);
        report(&mut out, &[sample.clone(), sample]);
        assert_eq!(out.metrics.len(), PER_LAYER.len());
        assert_eq!(out.metrics["engine.busy_s"].0, 2.0);
        assert_eq!(out.metrics["cache.hits"].0, 0.0);
    }

    #[test]
    fn scheme_labels_map_to_catalogued_names() {
        for scheme in perf_envelope::Scheme::figure12_schemes() {
            let name = speedup_metric(&scheme.paper_label());
            assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "{name}");
        }
    }
}
