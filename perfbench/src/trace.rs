//! In-memory span recording around the benchmark's own calls into each
//! layer.
//!
//! A span is `(name, start, end, parent, cell)` plus the worker lane that
//! ran it; spans stay in memory and are written out once, at the end of a
//! traced run. A layer's self time is its spans' durations minus the part
//! their child spans cover. A disabled tracer records nothing and reads no
//! clock, so untraced sweeps pay only a branch per call site.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// The parent id of a root span.
pub const ROOT: u64 = 0;

/// One recorded span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Unique id (never [`ROOT`]).
    pub id: u64,
    /// The enclosing span, or [`ROOT`].
    pub parent: u64,
    /// Layer-qualified name, such as `ckpt.restore`.
    pub name: &'static str,
    /// The sweep cell the span worked for, if any.
    pub cell: Option<u32>,
    /// The thread that ran the span (dense index, in first-use order).
    pub lane: u32,
    /// Start, ns.
    pub start: u64,
    /// End, ns.
    pub end: u64,
}

impl Span {
    /// Duration, ns.
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Calls, total time and self time of every span with one name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTime {
    /// Spans recorded.
    pub calls: u64,
    /// Sum of span durations, ns.
    pub total_ns: u64,
    /// Sum of span durations minus their children's, ns.
    pub self_ns: u64,
}

static NEXT_LANE: AtomicU32 = AtomicU32::new(0);

thread_local! {
    static LANE: u32 = NEXT_LANE.fetch_add(1, Ordering::Relaxed);
}

/// The calling thread's lane index.
pub fn lane() -> u32 {
    LANE.with(|l| *l)
}

/// A span and count recorder shared by every benchmark thread.
pub struct Tracer {
    on: bool,
    t0: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
    counts: Mutex<BTreeMap<&'static str, u64>>,
}

impl Tracer {
    /// A recording tracer.
    pub fn new() -> Tracer {
        Tracer::with(true)
    }

    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer::with(false)
    }

    fn with(on: bool) -> Tracer {
        Tracer {
            on,
            t0: Instant::now(),
            next: AtomicU64::new(ROOT + 1),
            spans: Mutex::new(Vec::new()),
            counts: Mutex::new(BTreeMap::new()),
        }
    }

    /// `true` when spans are recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now(&self) -> u64 {
        u64::try_from(self.t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name` under `parent`; `f` receives
    /// the new span's id to parent its own children.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: u64,
        cell: Option<u32>,
        f: impl FnOnce(u64) -> T,
    ) -> T {
        if !self.on {
            return f(ROOT);
        }
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let start = self.now();
        let out = f(id);
        let end = self.now();
        let span = Span {
            id,
            parent,
            name,
            cell,
            lane: lane(),
            start,
            end,
        };
        self.spans
            .lock()
            .expect("span log poisoned by a panicking thread")
            .push(span);
        out
    }

    /// Adds `n` to the counter `name` (recorded at the same boundary as
    /// the span around the call that did the work).
    pub fn count(&self, name: &'static str, n: u64) {
        if self.on {
            *self
                .counts
                .lock()
                .expect("count log poisoned")
                .entry(name)
                .or_default() += n;
        }
    }

    /// A counter's value (0 when never counted).
    pub fn counter(&self, name: &str) -> u64 {
        self.counts
            .lock()
            .expect("count log poisoned")
            .get(name)
            .copied()
            .unwrap_or(0)
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span log poisoned").clone()
    }

    /// Per-name calls, total and self time.
    pub fn layer_times(&self) -> BTreeMap<&'static str, LayerTime> {
        layer_times(&self.spans())
    }

    /// Writes every span (one JSON object per line) and the counters.
    ///
    /// # Errors
    ///
    /// Any I/O error from creating or writing `path`.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            let cell = s.cell.map_or("null".to_string(), |c| c.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"cell\":{cell},\"lane\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.name, s.lane, s.start, s.end
            )?;
        }
        for (name, n) in self.counts.lock().expect("count log poisoned").iter() {
            writeln!(out, "{{\"count\":\"{name}\",\"value\":{n}}}")?;
        }
        out.flush()
    }
}

/// Groups `spans` by name; a span's self time is its duration minus the
/// durations of the spans whose parent it is.
pub fn layer_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != ROOT) {
        *child_ns.entry(s.parent).or_default() += s.dur();
    }
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for s in spans {
        let t = out.entry(s.name).or_default();
        t.calls += 1;
        t.total_ns += s.dur();
        t.self_ns += s
            .dur()
            .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let span = |id, parent, name, start, end| Span {
            id,
            parent,
            name,
            cell: None,
            lane: 0,
            start,
            end,
        };
        let spans = [
            span(1, ROOT, "outer", 0, 100),
            span(2, 1, "inner", 10, 40),
            span(3, 1, "inner", 50, 70),
            span(4, 3, "leaf", 55, 60),
        ];
        let t = layer_times(&spans);
        assert_eq!(
            t["outer"],
            LayerTime {
                calls: 1,
                total_ns: 100,
                self_ns: 50
            }
        );
        assert_eq!(
            t["inner"],
            LayerTime {
                calls: 2,
                total_ns: 50,
                self_ns: 45
            }
        );
        assert_eq!(
            t["leaf"],
            LayerTime {
                calls: 1,
                total_ns: 5,
                self_ns: 5
            }
        );
    }

    #[test]
    fn nested_calls_link_parents() {
        let tr = Tracer::new();
        let v = tr.span("a", ROOT, Some(7), |a| tr.span("b", a, Some(7), |_| 42));
        assert_eq!(v, 42);
        let spans = tr.spans();
        let a = spans.iter().find(|s| s.name == "a").expect("a recorded");
        let b = spans.iter().find(|s| s.name == "b").expect("b recorded");
        assert_eq!(b.parent, a.id);
        assert!(a.start <= b.start && b.end <= a.end);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tr = Tracer::off();
        tr.span("a", ROOT, None, |id| assert_eq!(id, ROOT));
        tr.count("n", 3);
        assert!(tr.spans().is_empty());
        assert_eq!(tr.counter("n"), 0);
    }
}
