//! In-memory span tracing for the traced run.
//!
//! Spans are recorded by the benchmark around each call into a layer of the
//! workspace: name, start, end, the enclosing span (tracked per thread) and
//! the request id shared by every span of one serve request. They stay in
//! memory while the workload runs and are written out once at the end. A
//! layer's self time is its spans' duration minus the part of that interval
//! their child spans cover. With tracing off, [`Tracer::span`] records
//! nothing.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span. Times are nanoseconds since the tracer was created.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u64>,
    pub request: Option<u64>,
}

thread_local! {
    /// Open spans of this thread, innermost last, plus the request id the
    /// thread is currently serving.
    static OPEN: RefCell<(Vec<u64>, Option<u64>)> = const { RefCell::new((Vec::new(), None)) };
}

const POISONED: &str = "a thread panicked while recording a span";

/// Span and counter collector.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
    counters: Mutex<BTreeMap<&'static str, f64>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            counters: Mutex::new(BTreeMap::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span that closes when the guard drops. Its parent is the
    /// innermost span open on this thread.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        if !self.enabled {
            return SpanGuard {
                tracer: None,
                id: 0,
                name,
                start_ns: 0,
                parent: None,
                request: None,
            };
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let (parent, request) = OPEN.with(|open| {
            let mut open = open.borrow_mut();
            let parent = open.0.last().copied();
            open.0.push(id);
            (parent, open.1)
        });
        SpanGuard {
            tracer: Some(self),
            id,
            name,
            start_ns: self.now_ns(),
            parent,
            request,
        }
    }

    /// Runs `f` with every span it opens on this thread tagged `request`.
    pub fn in_request<R>(&self, request: u64, f: impl FnOnce() -> R) -> R {
        let previous = OPEN.with(|open| open.borrow_mut().1.replace(request));
        let out = f();
        OPEN.with(|open| open.borrow_mut().1 = previous);
        out
    }

    /// Adds `value` to the named counter (kept even with spans off, so
    /// counts are cheap to maintain unconditionally).
    pub fn add(&self, name: &'static str, value: f64) {
        *self
            .counters
            .lock()
            .expect(POISONED)
            .entry(name)
            .or_insert(0.0) += value;
    }

    pub fn counter(&self, name: &str) -> f64 {
        self.counters
            .lock()
            .expect(POISONED)
            .get(name)
            .copied()
            .unwrap_or(0.0)
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect(POISONED).clone()
    }

    /// Self time in seconds summed per span name.
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        let spans = self.spans();
        let mut out = BTreeMap::new();
        for (span, ns) in spans.iter().zip(self_times(&spans)) {
            *out.entry(span.name).or_insert(0.0) += ns as f64 * 1e-9;
        }
        out
    }

    /// Writes every recorded span as one JSON document.
    pub fn write_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut text = String::from("{\"spans\": [\n");
        for (i, s) in self.spans().iter().enumerate() {
            let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
            text.push_str(&format!(
                "{}  {{\"id\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"request\": {}}}",
                if i == 0 { "" } else { ",\n" },
                s.id,
                s.name,
                s.start_ns,
                s.end_ns,
                opt(s.parent),
                opt(s.request),
            ));
        }
        text.push_str("\n]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, text)
    }
}

/// Closes its span on drop.
pub struct SpanGuard<'a> {
    tracer: Option<&'a Tracer>,
    id: u64,
    name: &'static str,
    start_ns: u64,
    parent: Option<u64>,
    request: Option<u64>,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let Some(tracer) = self.tracer else { return };
        let end_ns = tracer.now_ns();
        OPEN.with(|open| {
            let mut open = open.borrow_mut();
            if let Some(pos) = open.0.iter().rposition(|&id| id == self.id) {
                open.0.remove(pos);
            }
        });
        // A poisoned lock drops the span: a guard must not panic in drop.
        let Ok(mut spans) = tracer.spans.lock() else {
            return;
        };
        spans.push(Span {
            id: self.id,
            name: self.name,
            start_ns: self.start_ns,
            end_ns,
            parent: self.parent,
            request: self.request,
        });
    }
}

/// Self time of each span (same order as `spans`), in nanoseconds: its
/// duration minus the union of its children's intervals clipped to it.
/// Children may overlap one another (concurrent work under one parent);
/// overlapping coverage counts once.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let duration = s.end_ns.saturating_sub(s.start_ns);
            let Some(kids) = children.get_mut(&s.id) else {
                return duration;
            };
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(cursor);
                let end = end.min(s.end_ns);
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            duration - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, start: u64, end: u64, parent: Option<u64>) -> Span {
        Span {
            id,
            name: "x",
            start_ns: start,
            end_ns: end,
            parent,
            request: None,
        }
    }

    #[test]
    fn self_time_subtracts_child_coverage_once() {
        let spans = vec![
            span(1, 0, 100, None),
            // Two overlapping children cover [10, 50): 40 ns.
            span(2, 10, 40, Some(1)),
            span(3, 20, 50, Some(1)),
            // A child running past its parent's end is clipped: [90, 100).
            span(4, 90, 120, Some(1)),
            // A grandchild only reduces its own parent (span 2).
            span(5, 15, 25, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 30, 30, 10]);
    }

    #[test]
    fn nested_guards_record_parents_and_requests() {
        let tracer = Tracer::new(true);
        tracer.in_request(7, || {
            let _outer = tracer.span("outer");
            let _inner = tracer.span("inner");
        });
        let _free = tracer.span("free");
        drop(_free);
        let spans = tracer.spans();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let free = spans.iter().find(|s| s.name == "free").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!((inner.request, outer.request), (Some(7), Some(7)));
        assert_eq!((free.parent, free.request), (None, None));
        let selfs = tracer.self_seconds();
        assert!(selfs["outer"] >= 0.0 && selfs["inner"] >= 0.0);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        drop(tracer.span("x"));
        assert!(tracer.spans().is_empty());
    }
}
