//! In-memory spans around the benchmark's calls into each layer, exported
//! as Chrome trace-event JSON (which Perfetto and `chrome://tracing` load).
//!
//! A span records its name, start, end, parent span and an operation id:
//! every span belonging to one cell or one capacity probe carries that
//! operation's id, so its work can be followed across phases. Spans are
//! kept in memory and rendered once, when the run ends.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

use perf_envelope::json::Json;

/// Index of a span in its [`Tracer`].
pub type SpanId = usize;

/// Operation id of spans that belong to no single cell or probe.
pub const NO_OP: u64 = u64::MAX;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<SpanId>,
    pub thread: u32,
    pub start_ns: u64,
    /// `None` while the span is open.
    pub end_ns: Option<u64>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.expect("span still open") - self.start_ns
    }
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::close`].
    pub fn open(&self, name: &'static str, op: u64, parent: Option<SpanId>, thread: u32) -> SpanId {
        let start_ns = self.now_ns();
        let mut spans = self.spans.lock().expect("tracer poisoned");
        spans.push(Span {
            name,
            op,
            parent,
            thread,
            start_ns,
            end_ns: None,
        });
        spans.len() - 1
    }

    pub fn close(&self, id: SpanId) {
        let end_ns = self.now_ns();
        self.spans.lock().expect("tracer poisoned")[id].end_ns = Some(end_ns);
    }

    /// Runs `f` inside a span and returns its result.
    pub fn span<T>(
        &self,
        name: &'static str,
        op: u64,
        parent: Option<SpanId>,
        thread: u32,
        f: impl FnOnce(SpanId) -> T,
    ) -> T {
        let id = self.open(name, op, parent, thread);
        let out = f(id);
        self.close(id);
        out
    }

    /// Seconds a closed span lasted.
    pub fn seconds(&self, id: SpanId) -> f64 {
        self.spans.lock().expect("tracer poisoned")[id].duration_ns() as f64 * 1e-9
    }

    /// Spans that started at or after span `id` started.
    pub fn spans_since(&self, id: SpanId) -> Vec<Span> {
        let spans = self.spans.lock().expect("tracer poisoned");
        let start = spans[id].start_ns;
        spans
            .iter()
            .filter(|s| s.start_ns >= start)
            .cloned()
            .collect()
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("tracer poisoned").clone()
    }
}

/// Total duration per span name, in seconds.
pub fn busy_s(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut totals = BTreeMap::new();
    for span in spans {
        *totals.entry(span.name).or_insert(0.0) += span.duration_ns() as f64 * 1e-9;
    }
    totals
}

/// Self time per span name, in seconds: each span's duration minus the part
/// of its interval its children cover.
pub fn self_s(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent].push((span.start_ns, span.end_ns.expect("span still open")));
        }
    }
    let mut totals = BTreeMap::new();
    for (span, kids) in spans.iter().zip(&mut children) {
        kids.sort_unstable();
        let mut covered = 0;
        let mut reach = span.start_ns;
        for &(start, end) in kids.iter() {
            let start = start.max(reach);
            if end > start {
                covered += end - start;
                reach = end;
            }
        }
        let own = span.duration_ns().saturating_sub(covered);
        *totals.entry(span.name).or_insert(0.0) += own as f64 * 1e-9;
    }
    totals
}

/// The spans as a Chrome trace-event document (complete `X` events, times
/// in microseconds).
pub fn chrome_json(spans: &[Span]) -> String {
    let events = spans
        .iter()
        .enumerate()
        .map(|(index, span)| {
            let mut args = Json::object();
            args.set("span", Json::UInt(index as u64));
            args.set(
                "parent",
                span.parent.map_or(Json::Null, |p| Json::UInt(p as u64)),
            );
            if span.op != NO_OP {
                args.set("op", Json::UInt(span.op));
            }
            let mut event = Json::object();
            event.set("name", Json::Str(span.name.to_string()));
            event.set("cat", Json::Str(layer_of(span.name).to_string()));
            event.set("ph", Json::Str("X".to_string()));
            event.set("ts", Json::Num(span.start_ns as f64 / 1e3));
            event.set("dur", Json::Num(span.duration_ns() as f64 / 1e3));
            event.set("pid", Json::UInt(1));
            event.set("tid", Json::UInt(span.thread as u64));
            event.set("args", args);
            event
        })
        .collect();
    let mut doc = Json::object();
    doc.set("traceEvents", Json::Arr(events));
    doc.set("displayTimeUnit", Json::Str("ms".to_string()));
    doc.render()
}

/// The layer a span name belongs to: the part before the first dot.
pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn traced() -> Vec<Span> {
        let tracer = Tracer::new();
        tracer.span("bench.pass", NO_OP, None, 0, |pass| {
            for op in 0..3 {
                tracer.span("runner.run", op, Some(pass), 0, |cell| {
                    tracer.span("engine.run", op, Some(cell), 0, |_| {
                        std::hint::black_box((0..10_000u64).sum::<u64>())
                    });
                });
            }
        });
        tracer.spans()
    }

    #[test]
    fn chrome_json_parses_and_spans_nest() {
        let spans = traced();
        let doc = Json::parse(&chrome_json(&spans)).expect("trace must parse");
        let events = doc.get("traceEvents").and_then(Json::as_array).unwrap();
        assert_eq!(events.len(), spans.len());
        for event in events {
            let args = event.get("args").unwrap();
            let Some(parent) = args.get("parent").and_then(Json::as_u64) else {
                continue;
            };
            let parent = &events[parent as usize];
            let (ts, dur) = (
                event.get("ts").unwrap().as_f64().unwrap(),
                event.get("dur").unwrap().as_f64().unwrap(),
            );
            let (pts, pdur) = (
                parent.get("ts").unwrap().as_f64().unwrap(),
                parent.get("dur").unwrap().as_f64().unwrap(),
            );
            assert!(
                ts >= pts && ts + dur <= pts + pdur + 1e-3,
                "child escapes parent"
            );
            if let Some(op) = args.get("op") {
                let parent_op = parent.get("args").unwrap().get("op");
                assert!(parent_op.is_none() || parent_op == Some(op));
            }
        }
    }

    #[test]
    fn self_time_excludes_children() {
        let spans = traced();
        let busy = busy_s(&spans);
        let own = self_s(&spans);
        assert!((own["engine.run"] - busy["engine.run"]).abs() < 1e-12);
        assert!(own["runner.run"] <= busy["runner.run"] - busy["engine.run"] + 1e-9);
        let total: f64 = own.values().sum();
        assert!((total - busy["bench.pass"]).abs() < 1e-6);
    }
}
