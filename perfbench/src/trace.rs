//! The traced run's span recorder.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer (the program itself is not instrumented): name, start, duration,
//! the enclosing span, and how many items (keys, edges, requests) the
//! call covered. They stay in memory and are written out as JSON lines
//! when the benchmark ends.

use std::cell::{Cell, RefCell};
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// One recorded span; `parent` is 0 for a root span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub dur_ns: u64,
    pub items: u64,
}

/// A single-threaded span recorder. Client threads each own one and are
/// merged with [`Tracer::absorb`] after they join.
pub struct Tracer {
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    current: Cell<u32>,
}

impl Tracer {
    #[must_use]
    pub fn new(origin: Instant) -> Self {
        Tracer {
            origin,
            spans: RefCell::new(Vec::new()),
            current: Cell::new(0),
        }
    }

    /// The instant span start times are measured from.
    #[must_use]
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Runs `f` inside a span covering `items` units of work.
    pub fn span<R>(&self, name: &'static str, items: u64, f: impl FnOnce() -> R) -> R {
        let id = self.spans.borrow().len() as u32 + 1;
        self.spans.borrow_mut().push(Span {
            id,
            parent: self.current.get(),
            name,
            start_ns: 0,
            dur_ns: 0,
            items,
        });
        let parent = self.current.replace(id);
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.current.set(parent);
        let span = &mut self.spans.borrow_mut()[id as usize - 1];
        span.start_ns = start.duration_since(self.origin).as_nanos() as u64;
        span.dur_ns = end.duration_since(start).as_nanos() as u64;
        out
    }

    /// Records an already-timed span (used where the timed region is not
    /// a closure, e.g. one request on a connection).
    pub fn record(&self, name: &'static str, start: Instant, end: Instant, items: u64) {
        let mut spans = self.spans.borrow_mut();
        let id = spans.len() as u32 + 1;
        spans.push(Span {
            id,
            parent: self.current.get(),
            name,
            start_ns: start.duration_since(self.origin).as_nanos() as u64,
            dur_ns: end.duration_since(start).as_nanos() as u64,
            items,
        });
    }

    /// Moves `other`'s spans in under this tracer's current span.
    pub fn absorb(&self, other: Tracer) {
        let mut spans = self.spans.borrow_mut();
        let offset = spans.len() as u32;
        let root = self.current.get();
        for mut s in other.spans.into_inner() {
            s.id += offset;
            s.parent = if s.parent == 0 {
                root
            } else {
                s.parent + offset
            };
            spans.push(s);
        }
    }

    /// Per-item durations (ns) of every span called `name`.
    #[must_use]
    pub fn per_item_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.name == name && s.items > 0)
            .map(|s| s.dur_ns as f64 / s.items as f64)
            .collect()
    }

    /// Median per-item duration of the spans called `name`, in ns.
    ///
    /// # Panics
    /// Panics if no such span was recorded (a probe did not run).
    #[must_use]
    pub fn median_ns(&self, name: &str) -> f64 {
        let values = self.per_item_ns(name);
        assert!(!values.is_empty(), "no spans named {name}");
        crate::stats::median(&values)
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    /// Fails on IO errors.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans.borrow().iter() {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"dur_ns\":{},\"items\":{}}}",
                s.id, s.parent, s.name, s.start_ns, s.dur_ns, s.items
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_and_absorb() {
        let t = Tracer::new(Instant::now());
        t.span("outer", 1, || {
            t.span("inner", 4, || std::hint::black_box(1 + 1));
            let child = Tracer::new(Instant::now());
            child.span("thread", 2, || ());
            t.absorb(child);
        });
        let spans = t.spans.borrow();
        assert_eq!(spans.len(), 3);
        assert_eq!((spans[0].name, spans[0].parent), ("outer", 0));
        assert_eq!((spans[1].name, spans[1].parent), ("inner", 1));
        assert_eq!((spans[2].name, spans[2].parent), ("thread", 1));
        assert!(spans[0].dur_ns >= spans[1].dur_ns);
        drop(spans);
        assert_eq!(t.per_item_ns("inner").len(), 1);
    }
}
