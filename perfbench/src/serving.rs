//! `serving_day`: a capacity search and a fleet day on the Mix2 deployment,
//! every batch shape priced during set-up, so the serving event loop and
//! fleet routing do the work and the engine none.
//!
//! Arrivals are open-loop traffic simulated inside the model; the host load
//! is still a closed loop of passes.

use std::cell::Cell;
use std::collections::BTreeSet;
use std::sync::Arc;

use dlrm::WorkloadScale;
use dlrm_datasets::{HeterogeneousMix, MixKind};
use gpu_sim::GpuConfig;
use perf_envelope::json::Json;
use perf_envelope::{
    max_sustainable_qps, AutoscalePolicy, BatchingPolicy, CampaignCache, CapacityResult,
    Experiment, Fleet, FleetReport, ReplicaGroup, RoutingPolicy, Scheme, ServingReport,
    ServingScenario, TrafficModel, Workload,
};

use crate::args::Args;
use crate::bench::{self, EndToEnd, Measured, Outcome, PassCheck};
use crate::digest::Digest;
use crate::layers::{ratio, LayerSample};
use crate::model;
use crate::trace::{SpanId, Tracer, NO_OP};

/// The p99 latency SLA of every probe.
const SLA_US: f64 = 25_000.0;
/// Requests each capacity probe simulates.
const PROBE_REQUESTS: u32 = 1 << 20;
/// Requests of the fleet day.
const FLEET_REQUESTS: u32 = 1 << 21;
const REPLICAS: u32 = 3;

/// Everything a pass needs, built during set-up.
struct Deployment {
    cache: Arc<CampaignCache>,
    experiment: Experiment,
    workload: Workload,
    scheme: Scheme,
    scenario: ServingScenario,
    fleet: Fleet,
}

fn policy() -> BatchingPolicy {
    BatchingPolicy::adaptive(16, 256)
}

/// Set-up: prices every batch shape the policy can form into a fresh cache,
/// then sizes the fleet day from one replica's saturation throughput.
fn setup(seed: u64) -> Deployment {
    let cache = CampaignCache::new();
    let experiment = Experiment::new(GpuConfig::test_small(), WorkloadScale::Test)
        .with_seed(seed)
        .with_cache(cache.clone());
    let workload = Workload::end_to_end(HeterogeneousMix::paper_mix(MixKind::Mix2, 1.0));
    let scheme = Scheme::combined();
    let policy = policy();
    let shapes: BTreeSet<u32> = (1..=policy.max_batch()).map(|n| policy.shape(n)).collect();
    let mut full_batch_us = 0.0;
    for &shape in &shapes {
        let report = experiment
            .clone()
            .with_batch_size(shape)
            .run(&workload, &scheme);
        if shape == policy.shape(policy.max_batch()) {
            full_batch_us = report.latency_us;
        }
    }
    let scenario = ServingScenario::new(TrafficModel::poisson(1_000.0), policy)
        .with_requests(PROBE_REQUESTS)
        .with_sla_us(SLA_US)
        .with_seed(seed);

    // A diurnal day of two cycles whose peak overloads the three replicas
    // and whose trough idles two of them, with ten autoscale decisions per
    // cycle.
    let saturation_qps = policy.max_batch() as f64 / full_batch_us * 1e6;
    let (peak, trough) = (
        1.5 * REPLICAS as f64 * saturation_qps,
        0.05 * saturation_qps,
    );
    let period_s = FLEET_REQUESTS as f64 / ((peak + trough) / 2.0) / 2.0;
    let fleet = Fleet::new(
        TrafficModel::diurnal(peak, trough, period_s),
        FLEET_REQUESTS,
        seed,
    )
    .with_group(ReplicaGroup::new(experiment.clone(), scenario.clone()).with_replicas(REPLICAS))
    .with_routing(RoutingPolicy::least_outstanding())
    .with_autoscale(AutoscalePolicy::reactive(0.8, 0.3, 0, 1, REPLICAS))
    .with_interval_us(period_s * 1e6 / 10.0)
    .with_cache(cache.clone());
    Deployment {
        cache,
        experiment,
        workload,
        scheme,
        scenario,
        fleet,
    }
}

/// Requests that arrived must all be served, shed or failed.
fn conservation(label: &str, report: &ServingReport, problems: &mut Vec<String>) {
    let accounted = report.served_requests + report.shed_requests + report.failed_requests;
    if accounted != report.requests {
        problems.push(format!(
            "{label}: served + shed + failed = {accounted}, offered {}",
            report.requests
        ));
    }
}

fn fleet_conservation(report: &FleetReport, problems: &mut Vec<String>) {
    let accounted = report.served_requests + report.shed_requests + report.failed_requests;
    if accounted != report.requests {
        problems.push(format!(
            "fleet: served + shed + failed = {accounted}, offered {}",
            report.requests
        ));
    }
    let routed: u32 = report.replicas.iter().map(|r| r.routed_requests).sum();
    if routed != report.requests {
        problems.push(format!(
            "fleet: routed {routed} of {} requests",
            report.requests
        ));
    }
    for replica in &report.replicas {
        conservation(
            &format!("replica {}", replica.replica),
            &replica.report,
            problems,
        );
    }
}

fn digest(capacity: &CapacityResult, fleet: &FleetReport) -> String {
    Digest::new()
        .update(&capacity.max_qps.to_bits().to_string())
        .update(&capacity.probes.to_string())
        .update(&capacity.report.to_json())
        .update(&fleet.to_json())
        .hex()
}

/// One untraced pass: the capacity search, then the fleet day.
fn pass(d: &Deployment) -> (f64, PassCheck) {
    let misses = d.cache.misses();
    let (seconds, (capacity, fleet)) = bench::timed(|| {
        let capacity = max_sustainable_qps(&d.experiment, &d.workload, &d.scheme, &d.scenario);
        (capacity, d.fleet.simulate(&d.workload, &d.scheme))
    });
    let mut problems = Vec::new();
    conservation("capacity report", &capacity.report, &mut problems);
    fleet_conservation(&fleet, &mut problems);
    if d.cache.misses() != misses {
        problems.push(format!(
            "the measured phase simulated {} cells",
            d.cache.misses() - misses
        ));
    }
    let check = PassCheck {
        operations: capacity.probes as u64 + 1,
        problems,
        digest: digest(&capacity, &fleet),
    };
    (seconds, check)
}

pub fn run(args: &Args) -> Outcome {
    let (setup_s, deployment) = bench::repeated_setup(|| setup(args.seed));
    let probes = Cell::new(0);
    let tracer = Tracer::new();
    let (measured, samples) = bench::measure(
        args,
        // A pass that panics fails its capacity search and its fleet run.
        2,
        || {
            let (seconds, check) = pass(&deployment);
            probes.set(check.operations - 1);
            (seconds, check)
        },
        |measured| traced_pass(&deployment, &tracer, measured),
    );
    let reference = measured.digests.first().cloned().unwrap_or_default();
    // The cells of this workload are its operations, the capacity probes
    // and the fleet run. (The batch-shape lookups behind them are not: their
    // number moves with the seed's arrivals, not with the work done.)
    let end_to_end = EndToEnd {
        setup_s,
        cells_per_pass: probes.get() as f64 + 1.0,
        requests_per_pass: probes.get() as f64 * PROBE_REQUESTS as f64 + FLEET_REQUESTS as f64,
    };
    let mut out = bench::outcome(args, measured, reference, end_to_end, &tracer, &samples);
    out.meta.set("probes", Json::UInt(probes.get()));
    out.meta
        .set("probe_requests", Json::UInt(PROBE_REQUESTS as u64));
    out.meta
        .set("fleet_requests", Json::UInt(FLEET_REQUESTS as u64));
    out
}

/// The capacity search of [`max_sustainable_qps`], step for step, with a
/// span around each probe, so each probe's report can be checked too. The
/// digest check holds the result equal to the library's search in the
/// untraced passes.
fn traced_capacity(
    d: &Deployment,
    tracer: &Tracer,
    parent: SpanId,
) -> (CapacityResult, Vec<(f64, ServingReport)>) {
    let mut probes = Vec::new();
    let probe = |probes: &mut Vec<(f64, ServingReport)>, qps: f64| -> ServingReport {
        let op = probes.len() as u64;
        let report = tracer.span("serving.probe", op, Some(parent), 0, |_| {
            d.scenario
                .clone()
                .with_traffic(d.scenario.traffic().at_qps(qps))
                .simulate(&d.experiment, &d.workload, &d.scheme)
        });
        probes.push((qps, report.clone()));
        report
    };
    let max_batch = d.scenario.policy().max_batch();
    let full_batch_service_us = tracer.span("runner.run", NO_OP, Some(parent), 0, |_| {
        d.experiment
            .clone()
            .with_batch_size(d.scenario.policy().shape(max_batch))
            .run(&d.workload, &d.scheme)
            .latency_us
    });
    let saturation_qps = max_batch as f64 / full_batch_service_us * 1e6;
    let (mut lo, mut hi);
    let mut lo_report;
    let first = probe(&mut probes, saturation_qps);
    let done = |max_qps, report, probes: &Vec<(f64, ServingReport)>| CapacityResult {
        max_qps,
        probes: probes.len() as u32,
        report,
    };
    if first.meets_sla() {
        lo = saturation_qps;
        lo_report = first;
        hi = lo * 2.0;
        loop {
            let report = probe(&mut probes, hi);
            if !report.meets_sla() {
                break;
            }
            lo = hi;
            lo_report = report;
            hi *= 2.0;
            if probes.len() > 64 {
                return (done(lo, lo_report, &probes), probes);
            }
        }
    } else {
        hi = saturation_qps;
        lo = hi / 2.0;
        let mut lightest = first;
        loop {
            if lo < 1e-3 {
                return (done(0.0, lightest, &probes), probes);
            }
            let report = probe(&mut probes, lo);
            if report.meets_sla() {
                lo_report = report;
                break;
            }
            lightest = report;
            lo /= 2.0;
        }
    }
    for _ in 0..d.scenario.bisection_steps() {
        if let Some(tolerance) = d.scenario.relative_tolerance() {
            if hi - lo <= tolerance * hi {
                break;
            }
        }
        let mid = (lo + hi) / 2.0;
        let report = probe(&mut probes, mid);
        if report.meets_sla() {
            lo = mid;
            lo_report = report;
        } else {
            hi = mid;
        }
    }
    (done(lo, lo_report, &probes), probes)
}

/// One traced pass: the capacity search probe by probe, the fleet day, and
/// outside the pass a regeneration of every probe's arrival trace to price
/// arrival generation on its own.
fn traced_pass(d: &Deployment, tracer: &Tracer, measured: &mut Measured) -> LayerSample {
    let misses = d.cache.misses();
    let hits = d.cache.hits();
    let pass = tracer.open("bench.pass", NO_OP, None, 0);
    let (capacity, probes) = tracer.span("serving.capacity", NO_OP, Some(pass), 0, |span| {
        traced_capacity(d, tracer, span)
    });
    let fleet = tracer.span("fleet.simulate", NO_OP, Some(pass), 0, |_| {
        d.fleet.simulate(&d.workload, &d.scheme)
    });
    tracer.close(pass);
    let (hits, misses) = (d.cache.hits() - hits, d.cache.misses() - misses);

    let mut problems = Vec::new();
    for (i, (_, report)) in probes.iter().enumerate() {
        conservation(&format!("probe {i}"), report, &mut problems);
    }
    fleet_conservation(&fleet, &mut problems);
    if misses != 0 {
        problems.push(format!("the measured phase simulated {misses} cells"));
    }
    measured.add_checked(capacity.probes as u64 + 1, problems);
    measured.digests.push(digest(&capacity, &fleet));

    let arrivals = tracer.open("bench.arrivals", NO_OP, None, 0);
    for (op, (qps, _)) in probes.iter().enumerate() {
        tracer.span("serving.arrivals", op as u64, Some(arrivals), 0, |_| {
            std::hint::black_box(
                d.scenario
                    .traffic()
                    .at_qps(*qps)
                    .arrival_times_us(d.scenario.requests(), d.scenario.seed()),
            )
        });
    }
    tracer.close(arrivals);

    let busy = crate::trace::busy_s(&tracer.spans_since(pass));
    let get = |name: &str| busy.get(name).copied().unwrap_or(0.0);
    let pass_s = tracer.seconds(pass);
    let probe_requests = probes.len() as f64 * PROBE_REQUESTS as f64;
    let mut sample = LayerSample::new();
    sample.insert("serving.probe_s", get("serving.probe"));
    sample.insert("serving.probes", probes.len() as f64);
    sample.insert(
        "serving.ns_per_request",
        ratio(get("serving.probe") * 1e9, probe_requests),
    );
    sample.insert("serving.arrivals_s", get("serving.arrivals"));
    sample.insert("fleet.simulate_s", get("fleet.simulate"));
    sample.insert(
        "fleet.ns_per_request",
        ratio(get("fleet.simulate") * 1e9, FLEET_REQUESTS as f64),
    );
    sample.insert(
        "share.serving_fleet",
        ratio(get("serving.probe") + get("fleet.simulate"), pass_s),
    );
    sample.insert("cache.hits", hits as f64);
    sample.insert("cache.misses", misses as f64);
    sample.insert("trace.pass_s", pass_s);
    sample.insert("model.capacity_qps", capacity.max_qps);
    let full_batch = d
        .experiment
        .clone()
        .with_batch_size(d.scenario.policy().shape(d.scenario.policy().max_batch()))
        .run(&d.workload, &d.scheme);
    model::add_model_metrics(std::slice::from_ref(&full_batch), &mut sample);
    sample
}
