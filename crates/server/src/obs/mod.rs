//! Observability plane: the metrics registry ([`Metrics`], exported by
//! the `METRICS` verb) and the flight recorder ([`Recorder`], dumped by
//! `TRACE [n]` and flushed to `<wal-dir>/trace-<pid>.log`).
//!
//! One [`Obs`] is created per [`crate::Service`] and shared by every
//! subsystem (WAL, generation engine, net front end, replication hub)
//! through an `Arc`. Instrumentation writes are relaxed atomics at the
//! point the instrumented fact becomes true — the scrape path reads
//! those mirrors and never takes a service-internal lock. The contract
//! is audited lock-by-lock in `DESIGN.md` §10.

mod metrics;
mod recorder;

pub use metrics::{Counter, FollowerSlot, Gauge, Metrics};
pub use recorder::{
    CloseReason, Event, Recorder, TraceEntry, DEFAULT_RECORDER_CAPACITY, DEFAULT_TRACE_EVENTS,
};

use std::path::Path;
use std::sync::Arc;

/// The per-service observability bundle: one registry, one recorder.
#[derive(Default)]
pub struct Obs {
    /// The metrics registry.
    pub metrics: Metrics,
    /// The flight recorder.
    pub recorder: Recorder,
}

impl Obs {
    /// A fresh bundle behind an `Arc`, ready to hand to subsystems.
    pub fn new() -> Arc<Obs> {
        Arc::new(Obs::default())
    }
}

/// Reads the tail (last `keep` lines) of every `trace-*.log` left in
/// `dir` by a previous run, removes the files, and returns the tails as
/// `(file-name, lines)` pairs. Called on recovery so a SIGKILL'd run's
/// final flushed events are surfaced by the survivor.
pub fn drain_previous_traces(dir: &Path, keep: usize) -> Vec<(String, Vec<String>)> {
    let mut out = Vec::new();
    let Ok(entries) = std::fs::read_dir(dir) else {
        return out;
    };
    let mut paths: Vec<_> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("trace-") && n.ends_with(".log"))
        })
        .collect();
    paths.sort();
    for path in paths {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("trace-?.log").to_string();
        if let Ok(text) = std::fs::read_to_string(&path) {
            let lines: Vec<&str> = text.lines().collect();
            let tail =
                lines[lines.len().saturating_sub(keep)..].iter().map(|s| s.to_string()).collect();
            out.push((name, tail));
        }
        std::fs::remove_file(&path).ok();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drain_previous_traces_tails_and_removes() {
        let dir = crate::scratch_dir("obs-drain-traces");
        std::fs::write(
            dir.join("trace-111.log"),
            "T 1 0 FsyncDone nanos=1\nT 2 0 FsyncDone nanos=2\nT 3 0 FsyncDone nanos=3\n",
        )
        .unwrap();
        std::fs::write(dir.join("not-a-trace.txt"), "ignored").unwrap();
        let drained = drain_previous_traces(&dir, 2);
        assert_eq!(drained.len(), 1);
        assert_eq!(drained[0].0, "trace-111.log");
        assert_eq!(
            drained[0].1,
            vec!["T 2 0 FsyncDone nanos=2".to_string(), "T 3 0 FsyncDone nanos=3".to_string()]
        );
        assert!(!dir.join("trace-111.log").exists(), "trace file consumed");
        assert!(dir.join("not-a-trace.txt").exists(), "unrelated files untouched");
        assert!(drain_previous_traces(&dir, 2).is_empty(), "second drain finds nothing");
        std::fs::remove_dir_all(&dir).ok();
    }
}
