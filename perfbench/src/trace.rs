//! In-memory span tracing for the traced benchmark run.
//!
//! A [`Tracer`] records one span per call at each layer boundary the
//! benchmark wraps (name, start, end, parent) and keeps them in memory
//! until the run ends, when [`Tracer::write_jsonl`] writes them out.
//! Per-event calls (`next_event`, `Reconstruction::push`, analyzer hooks)
//! are too many to keep one by one; a [`Probe`] sums their time and count
//! with relaxed atomics (they also run on shard threads), and
//! [`Tracer::aggregate`] attaches the sum under the span that contained
//! the calls, as one *aggregate* span with its call count.
//!
//! A span's self time is its busy time minus the busy time of its direct
//! children; layer metrics are sums of self or busy time over every span
//! of one name ([`Tracer::total`]).

// tidy:allow-file(wall-clock): the tracer timestamps span boundaries of the benchmark harness; nothing it measures feeds back into pipeline output
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

/// Index of a span in its [`Tracer`].
pub type SpanId = usize;

/// One recorded span, or an aggregate of many same-named calls.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer boundary name, e.g. `unify.run`.
    pub name: &'static str,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Start, ns since the tracer's origin (first call for an aggregate).
    pub start_ns: u64,
    /// End, ns since the tracer's origin (last call for an aggregate).
    pub end_ns: u64,
    /// Time inside the span: `end - start` for a single call, the sum of
    /// the calls for an aggregate.
    pub busy_ns: u64,
    /// Calls represented (1 for a single span).
    pub calls: u64,
}

/// Span recorder for one traced run.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<SpanId>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> SpanId {
        let start = self.now_ns();
        self.push(name, start)
    }

    fn push(&mut self, name: &'static str, start_ns: u64) -> SpanId {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.stack.last().copied(),
            start_ns,
            end_ns: start_ns,
            busy_ns: 0,
            calls: 1,
        });
        self.stack.push(id);
        id
    }

    /// Closes `id`, which must be the innermost open span.
    pub fn exit(&mut self, id: SpanId) {
        let end = self.now_ns();
        self.close(id, end);
    }

    fn close(&mut self, id: SpanId, end_ns: u64) {
        assert_eq!(self.stack.pop(), Some(id), "spans close innermost first");
        let s = &mut self.spans[id];
        s.end_ns = end_ns;
        s.busy_ns = end_ns.saturating_sub(s.start_ns);
    }

    /// How many spans are open.
    pub fn depth(&self) -> usize {
        self.stack.len()
    }

    /// Closes every span opened past `depth`, innermost first — what a
    /// traced operation that failed part-way leaves open.
    pub fn unwind(&mut self, depth: usize) {
        while self.stack.len() > depth {
            let id = *self.stack.last().expect("nonempty stack");
            self.exit(id);
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        let id = self.enter(name);
        let out = f(self);
        self.exit(id);
        out
    }

    /// Attaches a probe's accumulated calls as one aggregate child of
    /// `parent`, then resets the probe. Nothing is recorded for a probe
    /// that saw no calls.
    pub fn aggregate(
        &mut self,
        parent: SpanId,
        name: &'static str,
        probe: &Probe,
    ) -> Option<SpanId> {
        let (busy_ns, calls) = probe.take();
        if calls == 0 {
            return None;
        }
        let p = &self.spans[parent];
        let (start_ns, end_ns) = (p.start_ns, p.end_ns);
        self.spans.push(Span {
            name,
            parent: Some(parent),
            start_ns,
            end_ns,
            busy_ns,
            calls,
        });
        Some(self.spans.len() - 1)
    }

    /// Every span recorded so far, in creation order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-span self times: each span's busy time minus the busy time of
    /// its direct children.
    fn self_times(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.busy_ns;
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| s.busy_ns.saturating_sub(c))
            .collect()
    }

    /// Sum over every span named `name`: `(busy seconds, self seconds,
    /// calls)`.
    pub fn total(&self, name: &str) -> (f64, f64, u64) {
        let selfs = self.self_times();
        let (mut busy, mut own, mut calls) = (0u64, 0u64, 0u64);
        for (s, own_ns) in self.spans.iter().zip(selfs) {
            if s.name == name {
                busy += s.busy_ns;
                own += own_ns;
                calls += s.calls;
            }
        }
        (busy as f64 / 1e9, own as f64 / 1e9, calls)
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, w: &mut impl Write) -> std::io::Result<()> {
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{id},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"busy_ns\":{},\"calls\":{}}}",
                s.name, s.start_ns, s.end_ns, s.busy_ns, s.calls
            )?;
        }
        Ok(())
    }
}

/// Time and call count of a per-event boundary, shared across threads.
#[derive(Debug, Default)]
pub struct Probe {
    ns: AtomicU64,
    calls: AtomicU64,
}

impl Probe {
    /// A fresh shared probe.
    pub fn shared() -> Arc<Probe> {
        Arc::new(Probe::default())
    }

    /// Times one call of `f`.
    pub fn time<T>(&self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.record(t.elapsed().as_nanos() as u64);
        out
    }

    /// Adds one call of `ns` nanoseconds.
    pub fn record(&self, ns: u64) {
        self.ns.fetch_add(ns, Relaxed);
        self.calls.fetch_add(1, Relaxed);
    }

    /// Accumulated `(ns, calls)`, resetting both to zero.
    pub fn take(&self) -> (u64, u64) {
        (self.ns.swap(0, Relaxed), self.calls.swap(0, Relaxed))
    }
}

/// A plain shared counter (events, bytes) recorded at a boundary.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<SpanId>, start: u64, end: u64) -> Span {
        Span {
            name,
            parent,
            start_ns: start,
            end_ns: end,
            busy_ns: end - start,
            calls: 1,
        }
    }

    fn tracer(spans: Vec<Span>) -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans,
            stack: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // run [0,100) has a child push [10,40) which has a child hook
        // [15,25), plus an aggregate decode child of 30 ns busy.
        let mut t = tracer(vec![
            span("unify.run", None, 0, 100),
            span("reconstruct.push", Some(0), 10, 40),
            span("analysis.hook", Some(1), 15, 25),
        ]);
        t.spans.push(Span {
            name: "trace.next_event",
            parent: Some(0),
            start_ns: 0,
            end_ns: 100,
            busy_ns: 30,
            calls: 7,
        });
        assert_eq!(t.self_times(), vec![100 - 30 - 30, 30 - 10, 10, 30]);
        let (busy, own, calls) = t.total("unify.run");
        assert!((busy - 100e-9).abs() < 1e-15);
        assert!((own - 40e-9).abs() < 1e-15);
        assert_eq!(calls, 1);
        assert_eq!(t.total("trace.next_event").2, 7);
    }

    #[test]
    fn totals_sum_over_same_named_spans_and_self_never_negative() {
        let t = tracer(vec![
            span("pass", None, 0, 10),
            span("pass", None, 20, 50),
            // A child reported longer than its parent (clock skew between
            // probes) clamps the parent's self time at zero.
            span("child", Some(0), 0, 15),
        ]);
        let (busy, own, calls) = t.total("pass");
        assert!((busy - 40e-9).abs() < 1e-15);
        assert!((own - 30e-9).abs() < 1e-15);
        assert_eq!(calls, 2);
        assert_eq!(t.self_times()[0], 0);
    }

    #[test]
    fn live_spans_nest_and_aggregate_under_their_parent() {
        let mut t = Tracer::new();
        let probe = Probe::shared();
        let outer = t.enter("outer");
        t.span("inner", |_| probe.record(5));
        probe.record(7);
        t.exit(outer);
        t.aggregate(outer, "calls", &probe);
        assert_eq!(probe.take(), (0, 0), "aggregate resets the probe");
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[1].parent, Some(outer));
        assert_eq!(s[2].name, "calls");
        assert_eq!((s[2].busy_ns, s[2].calls), (12, 2));
        assert!(s[0].end_ns >= s[1].end_ns && s[1].start_ns >= s[0].start_ns);
        let mut out = Vec::new();
        t.write_jsonl(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 3);
        assert!(text.contains("\"name\":\"calls\",\"parent\":0,"));
    }

    #[test]
    fn unwind_closes_what_a_failed_operation_left_open() {
        let mut t = Tracer::new();
        let outer = t.enter("outer");
        let depth = t.depth();
        t.enter("a");
        t.enter("b");
        t.unwind(depth);
        assert_eq!(t.depth(), 1);
        t.exit(outer);
        assert!(t.spans().iter().all(|s| s.end_ns >= s.start_ns));
    }

    #[test]
    #[should_panic(expected = "innermost first")]
    fn closing_out_of_order_is_a_bug() {
        let mut t = Tracer::new();
        let a = t.enter("a");
        let _b = t.enter("b");
        t.exit(a);
    }
}
