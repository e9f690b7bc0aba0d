//! Host metadata recorded with every result, and peak memory.

use perf_envelope::json::Json;

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Worker threads a campaign may use: every available CPU, at most
/// [`MAX_WORKERS`], so the measured load does not change with the host's
/// size beyond that.
pub fn workers() -> usize {
    nproc().clamp(1, MAX_WORKERS)
}

pub const MAX_WORKERS: usize = 2;

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|line| line.starts_with("model name"))
                .and_then(|line| line.split(':').nth(1))
                .map(|model| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Peak resident set size of this process so far, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|line| line.starts_with("VmHWM:"))
                .and_then(|line| line.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

pub fn metadata(seed: u64, workers: usize) -> Json {
    let mut doc = Json::object();
    doc.set("nproc", Json::UInt(nproc() as u64));
    doc.set("cpu_model", Json::Str(cpu_model()));
    doc.set(
        "rustc",
        Json::Str(env!("PERFBENCH_RUSTC_VERSION").to_string()),
    );
    doc.set("profile", Json::Str(env!("PERFBENCH_PROFILE").to_string()));
    doc.set("seed", Json::UInt(seed));
    doc.set("workers", Json::UInt(workers as u64));
    doc
}
