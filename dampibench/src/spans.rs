//! In-memory spans recorded by the benchmark around its calls into the
//! verifier's public functions. Nothing inside the program is
//! instrumented: a span's extent is exactly one call made from this crate.

use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::stats;

/// Identity of an open or closed span. Spans of one campaign share a
/// `trace` id (the id of their root span).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId {
    /// This span.
    pub id: u64,
    /// The root span it descends from.
    pub trace: u64,
}

/// One closed span; times are nanoseconds since the recorder started.
#[derive(Debug, Clone)]
pub struct Span {
    /// Identity.
    pub at: SpanId,
    /// The span that caused this one.
    pub parent: Option<u64>,
    /// Layer-qualified name, e.g. `scheduler.replay`.
    pub name: &'static str,
    /// Start.
    pub start_ns: u64,
    /// End.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    #[must_use]
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// Duration in milliseconds.
    #[must_use]
    pub fn ms(&self) -> f64 {
        self.ns() as f64 / 1e6
    }
}

/// The span store. Shared by reference across replay worker threads.
#[derive(Debug)]
pub struct Spans {
    /// False in an untraced run: spans then record nothing.
    on: bool,
    origin: Instant,
    next: AtomicU64,
    done: Mutex<Vec<Span>>,
}

/// An open span; it closes when dropped.
#[derive(Debug)]
pub struct Open<'a> {
    spans: &'a Spans,
    at: SpanId,
    parent: Option<u64>,
    name: &'static str,
    start_ns: u64,
}

impl Open<'_> {
    /// This span's identity, for parenting children.
    #[must_use]
    pub fn id(&self) -> SpanId {
        self.at
    }
}

impl Drop for Open<'_> {
    fn drop(&mut self) {
        if !self.spans.on {
            return;
        }
        let span = Span {
            at: self.at,
            parent: self.parent,
            name: self.name,
            start_ns: self.start_ns,
            end_ns: self.spans.now_ns(),
        };
        // A poisoned store means another span panicked mid-push; the
        // vector itself is still whole, so keep recording.
        let mut done = self.spans.done.lock().unwrap_or_else(|e| e.into_inner());
        done.push(span);
    }
}

impl Spans {
    /// An empty store whose clock starts now; with `on` false it records
    /// nothing.
    #[must_use]
    pub fn new(on: bool) -> Self {
        Self {
            on,
            origin: Instant::now(),
            next: AtomicU64::new(1),
            done: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        if !self.on {
            return 0;
        }
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a span named `name` under `parent` (a new trace when `None`).
    pub fn open(&self, name: &'static str, parent: Option<SpanId>) -> Open<'_> {
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        Open {
            spans: self,
            at: SpanId {
                id,
                trace: parent.map_or(id, |p| p.trace),
            },
            parent: parent.map(|p| p.id),
            name,
            start_ns: self.now_ns(),
        }
    }

    /// Run `f` inside a span.
    pub fn time<T>(&self, name: &'static str, parent: Option<SpanId>, f: impl FnOnce() -> T) -> T {
        let _open = self.open(name, parent);
        f()
    }

    /// Every closed span, in closing order.
    #[must_use]
    pub fn closed(&self) -> Vec<Span> {
        self.done.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// Closed spans named `name`.
    #[must_use]
    pub fn named(&self, name: &str) -> Vec<Span> {
        self.closed()
            .into_iter()
            .filter(|s| s.name == name)
            .collect()
    }

    /// Durations in milliseconds of the spans named `name`.
    #[must_use]
    pub fn ms(&self, name: &str) -> Vec<f64> {
        self.named(name).iter().map(Span::ms).collect()
    }

    /// Durations in milliseconds of the spans named `name` under `parent`,
    /// in closing order.
    #[must_use]
    pub fn ms_under(&self, name: &str, parent: SpanId) -> Vec<f64> {
        self.named(name)
            .iter()
            .filter(|s| s.parent == Some(parent.id))
            .map(Span::ms)
            .collect()
    }

    /// Self time in nanoseconds of span `id`: its extent minus the union
    /// of its direct children's extents.
    #[must_use]
    pub fn self_ns(&self, id: u64) -> u64 {
        let all = self.closed();
        let Some(me) = all.iter().find(|s| s.at.id == id) else {
            return 0;
        };
        let kids: Vec<(u64, u64)> = all
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| (s.start_ns, s.end_ns))
            .collect();
        stats::self_time((me.start_ns, me.end_ns), &kids)
    }

    /// Write every span as one JSON line.
    ///
    /// # Errors
    /// Fails when the file cannot be created or written.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.closed() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"trace\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.at.id, s.at.trace, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_inherit_the_trace_and_parent() {
        let spans = Spans::new(true);
        let root = spans.open("root", None);
        let rid = root.id();
        spans.time("child", Some(rid), || ());
        drop(root);
        let all = spans.closed();
        let child = all.iter().find(|s| s.name == "child").unwrap();
        assert_eq!(child.parent, Some(rid.id));
        assert_eq!(child.at.trace, rid.id);
        assert_eq!(rid.trace, rid.id);
        assert!(spans.self_ns(rid.id) <= all.iter().find(|s| s.name == "root").unwrap().ns());
    }

    #[test]
    fn an_untraced_store_records_nothing() {
        let spans = Spans::new(false);
        let root = spans.open("root", None);
        spans.time("child", Some(root.id()), || ());
        drop(root);
        assert!(spans.closed().is_empty());
    }
}
