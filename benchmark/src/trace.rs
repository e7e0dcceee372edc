//! Spans recorded by the benchmark's own code around its calls into each
//! layer, kept in memory and written out when the run ends.

use crate::drive::Clock;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// One span: a named interval on the run's clock, and the span that
/// caused it (0 for a root).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Unique within the trace, from 1.
    pub id: u64,
    /// The layer boundary it wraps.
    pub name: &'static str,
    /// Start, in nanoseconds on the run's clock.
    pub start_ns: u64,
    /// End, on the same clock.
    pub end_ns: u64,
    /// Id of the causing span, or 0.
    pub parent: u64,
}

/// An in-memory span collector shared by the driver threads, and the one
/// clock every span of a trace is stamped on.
pub struct Tracer {
    /// The trace's clock.
    pub clock: Clock,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer { clock: Clock::start(), next_id: AtomicU64::new(0), spans: Mutex::default() }
    }
}

impl Tracer {
    /// Claims `count` consecutive ids and returns the first.
    pub fn reserve(&self, count: usize) -> u64 {
        self.next_id.fetch_add(count as u64, Ordering::Relaxed) + 1
    }

    /// Records a finished span under a fresh id, which it returns.
    pub fn record(&self, name: &'static str, start_ns: u64, end_ns: u64, parent: u64) -> u64 {
        let id = self.reserve(1);
        self.record_as(id, name, start_ns, end_ns, parent);
        id
    }

    /// Records a finished span under an id claimed with [`Tracer::reserve`].
    pub fn record_as(&self, id: u64, name: &'static str, start_ns: u64, end_ns: u64, parent: u64) {
        let span = Span { id, name, start_ns, end_ns, parent };
        self.spans.lock().expect("a tracing thread panicked").push(span);
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("a tracing thread panicked").clone()
    }

    /// Writes one JSON object per span, in start order.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut spans = self.spans();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &spans {
            writeln!(
                out,
                "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{}}}",
                s.id, s.name, s.start_ns, s.end_ns, s.parent
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique_and_parents_kept() {
        let t = Tracer::default();
        let root = t.record("rung", 10, 100, 0);
        let base = t.reserve(2);
        t.record_as(base + 1, "segment", 50, 90, root);
        t.record_as(base, "segment", 10, 50, root);
        let child = t.record("request", 12, 20, base);
        let mut ids: Vec<u64> = t.spans().iter().map(|s| s.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![root, base, base + 1, child]);
        let path = std::env::temp_dir().join(format!("cc-trace-test-{}.jsonl", std::process::id()));
        t.write_jsonl(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(text.lines().count(), 4);
        assert!(text.starts_with(
            "{\"id\":1,\"name\":\"rung\",\"start_ns\":10,\"end_ns\":100,\"parent\":0}"
        ));
    }
}
