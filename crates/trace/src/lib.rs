//! souffle-trace: the hermetic tracing and metrics spine of the Souffle
//! reproduction.
//!
//! Every layer of the pipeline — frontend lowering, global analysis, the
//! TE transformations, scheduling, verification, kernel lowering, and the
//! wavefront runtime — reports into one [`Tracer`]: nestable **spans**
//! (monotonic wall-clock intervals with thread ids) and monotonic
//! **counters** (scheduler memo hits, arena reuse, pool steals, …).
//!
//! Design constraints, in order:
//!
//! 1. **Hermetic.** No dependencies; `std` only.
//! 2. **Deterministic structure.** The span *tree* (names, nesting,
//!    sibling order) of a given compile+eval must not depend on thread
//!    count, machine speed, or scheduling luck, so golden tests can pin
//!    it. Only durations vary. Instrumentation therefore records spans
//!    from the coordinating thread in submission order; worker threads
//!    only contribute timing via [`Tracer::now_ns`] + explicit
//!    [`Tracer::record_span`] calls.
//! 3. **Free when off.** [`Tracer::disabled`] holds no allocation and
//!    every call on it is a branch on `Option`.
//!
//! Exporters: [`Trace::tree_report`] (human tree with durations),
//! [`Trace::structure`] (golden-stable, duration-free),
//! [`chrome::chrome_json`] (Chrome `trace_event` JSON for
//! `chrome://tracing` / Perfetto), and [`summary::TraceSummary`] (stable
//! JSON schema embedded in bench results).

pub mod chrome;
pub mod json;
pub mod summary;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Handle to a recorded span, used to parent further spans explicitly.
///
/// Explicit parent handles (instead of a thread-local "current span")
/// keep nesting deterministic when work fans out across threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

/// One recorded span: a named wall-clock interval in the tracer's
/// monotonic timebase, nested under an optional parent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRec {
    /// Span name; by convention `category:detail` (see DESIGN.md).
    pub name: String,
    /// Index of the parent span in [`Trace::spans`], if any.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the tracer epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer epoch. `None` only while the
    /// span is still open; a drained [`Trace`] never contains open spans
    /// unless instrumentation leaked a guard (caught by
    /// [`Trace::well_formed`]).
    pub end_ns: Option<u64>,
    /// Small dense id of the recording thread (coordinator = 0 usually),
    /// or a synthetic lane id for spans timed across worker threads.
    pub tid: u64,
}

impl SpanRec {
    /// Duration in nanoseconds (0 if still open).
    pub fn dur_ns(&self) -> u64 {
        self.end_ns
            .unwrap_or(self.start_ns)
            .saturating_sub(self.start_ns)
    }
}

/// A drained, immutable snapshot of everything a [`Tracer`] recorded.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    /// Spans in creation order (parents always precede children).
    pub spans: Vec<SpanRec>,
    /// Monotonic counters, sorted by name.
    pub counters: BTreeMap<String, u64>,
}

struct State {
    spans: Vec<SpanRec>,
    counters: BTreeMap<String, u64>,
}

struct Inner {
    epoch: Instant,
    state: Mutex<State>,
}

/// The tracing sink. Cheap to clone (an `Option<Arc>`); all clones feed
/// the same trace. [`Tracer::disabled`] is a `None` and costs one branch
/// per call site.
#[derive(Clone)]
pub struct Tracer {
    inner: Option<Arc<Inner>>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::disabled()
    }
}

impl Tracer {
    /// A live tracer with its epoch at the call instant.
    pub fn new() -> Tracer {
        Tracer {
            inner: Some(Arc::new(Inner {
                epoch: Instant::now(),
                state: Mutex::new(State {
                    spans: Vec::new(),
                    counters: BTreeMap::new(),
                }),
            })),
        }
    }

    /// The no-op tracer: no allocation, every operation is a branch.
    pub fn disabled() -> Tracer {
        Tracer { inner: None }
    }

    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Nanoseconds since the tracer epoch (0 when disabled). Worker
    /// threads use this to timestamp work whose span is recorded later
    /// on the coordinating thread via [`Tracer::record_span`].
    pub fn now_ns(&self) -> u64 {
        match &self.inner {
            Some(inner) => inner.epoch.elapsed().as_nanos() as u64,
            None => 0,
        }
    }

    /// Open a root span. Ends when the guard drops (or explicitly via
    /// [`SpanGuard::end`]).
    pub fn span(&self, name: &str) -> SpanGuard {
        self.span_with_parent(name, None)
    }

    /// Open a span under `parent`.
    pub fn child_span(&self, name: &str, parent: SpanId) -> SpanGuard {
        self.span_with_parent(name, Some(parent))
    }

    /// Open a span under an optional parent (root span when `None`) —
    /// the shape instrumented code that threads `Option<SpanId>` wants.
    pub fn span_under(&self, name: &str, parent: Option<SpanId>) -> SpanGuard {
        self.span_with_parent(name, parent)
    }

    fn span_with_parent(&self, name: &str, parent: Option<SpanId>) -> SpanGuard {
        let id = self.inner.as_ref().map(|inner| {
            let start = inner.epoch.elapsed().as_nanos() as u64;
            let mut st = inner.state.lock().unwrap();
            st.spans.push(SpanRec {
                name: name.to_string(),
                parent: parent.map(|p| p.0),
                start_ns: start,
                end_ns: None,
                tid: thread_tid(),
            });
            st.spans.len() - 1
        });
        SpanGuard {
            tracer: self.clone(),
            id,
            ended: false,
        }
    }

    /// Record a fully-timed span in one shot. Used by the runtime: the
    /// coordinator calls this after a wavefront completes, with start/end
    /// timestamps gathered from worker threads ([`Tracer::now_ns`]) and a
    /// synthetic lane `tid`, so that span *order* stays deterministic
    /// while the timing is real.
    pub fn record_span(
        &self,
        name: &str,
        parent: Option<SpanId>,
        start_ns: u64,
        end_ns: u64,
        tid: u64,
    ) {
        if let Some(inner) = &self.inner {
            let mut st = inner.state.lock().unwrap();
            st.spans.push(SpanRec {
                name: name.to_string(),
                parent: parent.map(|p| p.0),
                start_ns,
                end_ns: Some(end_ns.max(start_ns)),
                tid,
            });
        }
    }

    /// Add `delta` to the named monotonic counter.
    pub fn add(&self, counter: &str, delta: u64) {
        if let Some(inner) = &self.inner {
            if delta == 0 {
                return;
            }
            let mut st = inner.state.lock().unwrap();
            *st.counters.entry(counter.to_string()).or_insert(0) += delta;
        }
    }

    /// Raise the named high-water counter to at least `value`.
    pub fn high_water(&self, counter: &str, value: u64) {
        if let Some(inner) = &self.inner {
            let mut st = inner.state.lock().unwrap();
            let c = st.counters.entry(counter.to_string()).or_insert(0);
            *c = (*c).max(value);
        }
    }

    /// Total recorded duration of all **closed** spans with `name`
    /// (nanoseconds). The pipeline derives `CompileStats` timings from
    /// this, so stage timing has exactly one source of truth.
    pub fn span_duration_ns(&self, name: &str) -> u64 {
        match &self.inner {
            Some(inner) => {
                let st = inner.state.lock().unwrap();
                st.spans
                    .iter()
                    .filter(|s| s.name == name && s.end_ns.is_some())
                    .map(|s| s.dur_ns())
                    .sum()
            }
            None => 0,
        }
    }

    /// Clone out the current contents without draining.
    pub fn snapshot(&self) -> Trace {
        match &self.inner {
            Some(inner) => {
                let st = inner.state.lock().unwrap();
                Trace {
                    spans: st.spans.clone(),
                    counters: st.counters.clone(),
                }
            }
            None => Trace::default(),
        }
    }

    /// Drain everything recorded so far, leaving the tracer empty (the
    /// epoch is preserved so later spans stay on the same timebase).
    pub fn take(&self) -> Trace {
        match &self.inner {
            Some(inner) => {
                let mut st = inner.state.lock().unwrap();
                Trace {
                    spans: std::mem::take(&mut st.spans),
                    counters: std::mem::take(&mut st.counters),
                }
            }
            None => Trace::default(),
        }
    }

    fn end_span(&self, id: usize) {
        if let Some(inner) = &self.inner {
            let end = inner.epoch.elapsed().as_nanos() as u64;
            let mut st = inner.state.lock().unwrap();
            if let Some(span) = st.spans.get_mut(id) {
                if span.end_ns.is_none() {
                    span.end_ns = Some(end.max(span.start_ns));
                }
            }
        }
    }
}

/// RAII guard for an open span; closes it on drop.
#[must_use = "a span ends when its guard drops — binding to _ closes it immediately"]
pub struct SpanGuard {
    tracer: Tracer,
    id: Option<usize>,
    ended: bool,
}

impl SpanGuard {
    /// Handle for parenting children under this span.
    pub fn id(&self) -> Option<SpanId> {
        self.id.map(SpanId)
    }

    /// Open a child span nested under this one.
    pub fn child(&self, name: &str) -> SpanGuard {
        match self.id() {
            Some(id) => self.tracer.child_span(name, id),
            None => SpanGuard {
                tracer: Tracer::disabled(),
                id: None,
                ended: false,
            },
        }
    }

    /// Close the span now instead of at drop.
    pub fn end(mut self) {
        self.end_inner();
    }

    fn end_inner(&mut self) {
        if !self.ended {
            self.ended = true;
            if let Some(id) = self.id {
                self.tracer.end_span(id);
            }
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        self.end_inner();
    }
}

/// Dense per-thread id: the first thread to call this gets 0, the next 1,
/// and so on. (`std::thread::ThreadId` has no stable integer accessor.)
pub fn thread_tid() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    thread_local! {
        static TID: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    TID.with(|t| *t)
}

impl Trace {
    /// Check structural invariants:
    /// * every span is closed;
    /// * every parent index precedes its child (creation order);
    /// * every child's interval lies within its parent's interval.
    pub fn well_formed(&self) -> Result<(), String> {
        for (i, s) in self.spans.iter().enumerate() {
            let end = match s.end_ns {
                Some(e) => e,
                None => return Err(format!("span #{i} `{}` never closed", s.name)),
            };
            if end < s.start_ns {
                return Err(format!("span #{i} `{}` ends before it starts", s.name));
            }
            if let Some(p) = s.parent {
                if p >= i {
                    return Err(format!(
                        "span #{i} `{}` has parent #{p} not preceding it",
                        s.name
                    ));
                }
                let parent = &self.spans[p];
                let pend = parent.end_ns.unwrap_or(u64::MAX);
                if s.start_ns < parent.start_ns || end > pend {
                    return Err(format!(
                        "span #{i} `{}` [{}..{}] escapes parent `{}` [{}..{}]",
                        s.name, s.start_ns, end, parent.name, parent.start_ns, pend
                    ));
                }
            }
        }
        Ok(())
    }

    /// Indices of root spans (no parent), in creation order.
    pub fn roots(&self) -> Vec<usize> {
        (0..self.spans.len())
            .filter(|&i| self.spans[i].parent.is_none())
            .collect()
    }

    /// Children of span `i`, in creation order.
    pub fn children(&self, i: usize) -> Vec<usize> {
        (0..self.spans.len())
            .filter(|&c| self.spans[c].parent == Some(i))
            .collect()
    }

    /// Deterministic, duration-free rendering of the span tree and the
    /// counter names+values — the golden-test format. Structure depends
    /// only on what was compiled/evaluated, never on timing or thread
    /// count.
    pub fn structure(&self) -> String {
        let mut out = String::new();
        for r in self.roots() {
            self.render_structure(r, 0, &mut out);
        }
        if !self.counters.is_empty() {
            out.push_str("counters:\n");
            for name in self.counters.keys() {
                let _ = writeln!(out, "  {name}");
            }
        }
        out
    }

    fn render_structure(&self, i: usize, depth: usize, out: &mut String) {
        for _ in 0..depth {
            out.push_str("  ");
        }
        out.push_str(&self.spans[i].name);
        out.push('\n');
        for c in self.children(i) {
            self.render_structure(c, depth + 1, out);
        }
    }

    /// Human-readable tree with durations and counter values, shown by
    /// `Souffle::report()`.
    pub fn tree_report(&self) -> String {
        let mut out = String::new();
        for r in self.roots() {
            self.render_report(r, 0, &mut out);
        }
        if !self.counters.is_empty() {
            out.push_str("counters:\n");
            for (name, value) in &self.counters {
                let _ = writeln!(out, "  {name:<28} {value}");
            }
        }
        out
    }

    fn render_report(&self, i: usize, depth: usize, out: &mut String) {
        let s = &self.spans[i];
        for _ in 0..depth {
            out.push_str("  ");
        }
        let _ = writeln!(out, "{} {}", s.name, format_ns(s.dur_ns()));
        for c in self.children(i) {
            self.render_report(c, depth + 1, out);
        }
    }
}

fn format_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2}µs", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_is_inert() {
        let t = Tracer::disabled();
        assert!(!t.is_enabled());
        let g = t.span("compile");
        let c = g.child("analysis");
        drop(c);
        drop(g);
        t.add("x", 3);
        t.high_water("y", 9);
        t.record_span("z", None, 0, 10, 0);
        assert_eq!(t.now_ns(), 0);
        assert_eq!(t.span_duration_ns("compile"), 0);
        let trace = t.take();
        assert!(trace.spans.is_empty());
        assert!(trace.counters.is_empty());
        assert!(trace.well_formed().is_ok());
    }

    #[test]
    fn nesting_and_order() {
        let t = Tracer::new();
        {
            let root = t.span("compile");
            {
                let a = root.child("analysis");
                let _aa = a.child("analysis:graph");
            }
            let _b = root.child("lower");
        }
        let trace = t.take();
        trace.well_formed().expect("well formed");
        let names: Vec<&str> = trace.spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["compile", "analysis", "analysis:graph", "lower"]);
        assert_eq!(trace.spans[1].parent, Some(0));
        assert_eq!(trace.spans[2].parent, Some(1));
        assert_eq!(trace.spans[3].parent, Some(0));
        assert_eq!(trace.roots(), vec![0]);
        assert_eq!(trace.children(0), vec![1, 3]);
    }

    #[test]
    fn structure_is_duration_free_and_stable() {
        let build = || {
            let t = Tracer::new();
            {
                let root = t.span("eval");
                let lvl = root.child("level:0");
                t.record_span("te:a", lvl.id(), t.now_ns(), t.now_ns() + 5, 1000);
            }
            t.add("arena.reused", 2);
            t.take()
        };
        let s1 = build().structure();
        std::thread::sleep(std::time::Duration::from_millis(2));
        let s2 = build().structure();
        assert_eq!(s1, s2);
        assert_eq!(s1, "eval\n  level:0\n    te:a\ncounters:\n  arena.reused\n");
        assert!(!s1.contains("µs"));
    }

    #[test]
    fn counters_accumulate_and_high_water() {
        let t = Tracer::new();
        t.add("pool.tasks", 4);
        t.add("pool.tasks", 3);
        t.add("zero", 0);
        t.high_water("depth", 2);
        t.high_water("depth", 7);
        t.high_water("depth", 5);
        let trace = t.snapshot();
        assert_eq!(trace.counters.get("pool.tasks"), Some(&7));
        assert_eq!(trace.counters.get("depth"), Some(&7));
        assert!(!trace.counters.contains_key("zero"));
    }

    #[test]
    fn record_span_clamps_and_validates() {
        let t = Tracer::new();
        let root = t.span("eval");
        t.record_span("te:x", root.id(), 10, 4, 7);
        root.end();
        let trace = t.take();
        // end clamped up to start; parent end clamped to cover child.
        assert_eq!(trace.spans[1].start_ns, 10);
        assert_eq!(trace.spans[1].end_ns, Some(10));
        assert_eq!(trace.spans[1].tid, 7);
    }

    #[test]
    fn take_drains_but_keeps_epoch() {
        let t = Tracer::new();
        let _ = t.span("a");
        let first = t.take();
        assert_eq!(first.spans.len(), 1);
        let before = t.now_ns();
        let _ = t.span("b");
        let second = t.take();
        assert_eq!(second.spans.len(), 1);
        assert!(second.spans[0].start_ns >= before);
    }

    #[test]
    fn well_formed_rejects_open_and_escaping() {
        let open = Trace {
            spans: vec![SpanRec {
                name: "x".into(),
                parent: None,
                start_ns: 0,
                end_ns: None,
                tid: 0,
            }],
            counters: BTreeMap::new(),
        };
        assert!(open.well_formed().is_err());

        let escaping = Trace {
            spans: vec![
                SpanRec {
                    name: "p".into(),
                    parent: None,
                    start_ns: 0,
                    end_ns: Some(10),
                    tid: 0,
                },
                SpanRec {
                    name: "c".into(),
                    parent: Some(0),
                    start_ns: 5,
                    end_ns: Some(20),
                    tid: 0,
                },
            ],
            counters: BTreeMap::new(),
        };
        assert!(escaping.well_formed().is_err());
    }

    #[test]
    fn span_duration_sums_closed_spans() {
        let t = Tracer::new();
        t.record_span("verify:frontend", None, 0, 10, 0);
        t.record_span("verify:frontend", None, 20, 25, 0);
        assert_eq!(t.span_duration_ns("verify:frontend"), 15);
    }

    #[test]
    fn tree_report_contains_durations() {
        let t = Tracer::new();
        t.record_span("compile", None, 0, 2_500_000_000, 0);
        t.record_span("analysis", None, 0, 2_500, 0);
        let trace = t.take();
        let report = trace.tree_report();
        assert!(report.contains("compile 2.50s"));
        assert!(report.contains("analysis 2.50µs"));
    }
}
