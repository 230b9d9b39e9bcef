//! In-memory spans around the calls the benchmark makes into each
//! layer, their self times, and their export as one Chrome trace-event
//! file in the `dynapar_gpu::perfetto` shapes.
//!
//! Spans are recorded by the benchmark itself, from outside the
//! program: each wraps one public call (or, for the simulation loop,
//! the part of `Simulation::run` that `SimReport::wall_ms` measures).
//! With tracing off, [`Tracer::span`] only calls its closure.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use dynapar_engine::json::Json;
use dynapar_gpu::perfetto;

/// One recorded span. Times are offsets from the tracer's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start: Duration,
    pub end: Duration,
    /// Index of the enclosing span in [`Tracer::spans`].
    pub parent: Option<usize>,
    /// The op (simulation or daemon job) the span belongs to.
    pub op: u64,
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Runs `f` inside a root `op` span with a fresh op id, which every
    /// span it opens inherits.
    pub fn op<R>(&mut self, f: impl FnOnce(&mut Tracer) -> R) -> R {
        self.op += 1;
        self.span("op", f)
    }

    /// Runs `f` inside a span named `name`, nested in the innermost
    /// open span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let start = self.origin.elapsed();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end = self.origin.elapsed();
        out
    }

    /// Records an already-measured interval as a child of the innermost
    /// open span (used for the loop part of `Simulation::run`, which
    /// only the report's `wall_ms` can separate from report building).
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        self.spans.push(Span {
            name,
            start: start.saturating_duration_since(self.origin),
            end: end.saturating_duration_since(self.origin),
            parent: self.open.last().copied(),
            op: self.op,
        });
    }

    /// Total self time per span name, in seconds.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        self_times(&self.spans)
    }

    /// The spans as a Trace Event Format document: one `"X"` complete
    /// span per record on a single driver track, `ts`/`dur` in µs.
    pub fn to_chrome_json(&self, process: &str) -> Json {
        let pid = 1;
        let tid = 1;
        let mut events = vec![
            perfetto::meta(pid, None, "process_name", process),
            perfetto::meta(pid, Some(tid), "thread_name", "driver"),
        ];
        for s in &self.spans {
            let mut args = vec![("op", Json::U64(s.op))];
            if let Some(p) = s.parent {
                args.push(("parent", Json::str(self.spans[p].name)));
            }
            events.push(perfetto::complete(
                pid,
                tid,
                s.name,
                s.start.as_micros() as u64,
                s.end.saturating_sub(s.start).as_micros() as u64,
                Json::obj(args),
            ));
        }
        Json::obj([
            ("traceEvents", Json::Arr(events)),
            ("displayTimeUnit", Json::str("ms")),
        ])
    }
}

/// Self time per span name, in seconds: each span's duration minus the
/// part of it its direct children cover. Children of one span come from
/// one thread, so they never overlap each other.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut covered = vec![Duration::ZERO; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let start = s.start.max(parent.start);
            let end = s.end.min(parent.end);
            covered[p] += end.saturating_sub(start);
        }
    }
    let mut out = BTreeMap::new();
    for (s, c) in spans.iter().zip(covered) {
        let own = s.end.saturating_sub(s.start).saturating_sub(c);
        *out.entry(s.name).or_insert(0.0) += own.as_secs_f64();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start: Duration::from_millis(start),
            end: Duration::from_millis(end),
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_covered_children() {
        let spans = [
            span("op", 0, 100, None),
            span("build", 0, 10, Some(0)),
            span("loop", 10, 80, Some(0)),
            span("write", 85, 95, Some(0)),
            span("op", 100, 150, None),
            span("loop", 100, 140, Some(4)),
        ];
        let t = self_times(&spans);
        let ms = |k: &str| (t[k] * 1e3).round();
        assert_eq!(ms("op"), 20.0); // 10 uncovered + 10 uncovered
        assert_eq!(ms("build"), 10.0);
        assert_eq!(ms("loop"), 110.0);
        assert_eq!(ms("write"), 10.0);
        // Self times partition the roots' wall time exactly.
        let sum: f64 = t.values().sum();
        assert_eq!((sum * 1e3).round(), 150.0);
    }

    #[test]
    fn children_outside_the_parent_count_only_their_overlap() {
        let spans = [span("op", 10, 20, None), span("late", 15, 30, Some(0))];
        let t = self_times(&spans);
        assert_eq!((t["op"] * 1e3).round(), 5.0);
        assert_eq!((t["late"] * 1e3).round(), 15.0);
    }

    #[test]
    fn nested_spans_record_parents_and_disabled_records_nothing() {
        let mut tr = Tracer::new(true);
        tr.op(|_| ());
        tr.op(|tr| tr.span("inner", |_| ()));
        let s = &tr.spans()[1..];
        assert_eq!(s.len(), 2);
        assert_eq!((s[0].parent, s[1].parent), (None, Some(1)));
        assert_eq!((s[0].op, s[1].op), (2, 2));
        assert!(s[1].start >= s[0].start && s[1].end <= s[0].end);
        let doc = tr.to_chrome_json("t").to_string();
        assert!(doc.contains("\"ph\":\"X\"") && doc.contains("\"parent\":\"op\""));

        let mut off = Tracer::new(false);
        assert_eq!(off.op(|_| 3), 3);
        assert!(off.spans().is_empty());
    }
}
