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
    TRACE_FILE_CAP,
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

/// Reads the tail (last `keep` lines, from at most [`TRACE_FILE_CAP`]
/// bytes) of every `trace-*.log` left in `dir` by a previous run, removes
/// the files and any `trace-*.log.tmp` a rewrite left, and returns the
/// tails as `(file-name, lines)` pairs. Called on recovery so a
/// SIGKILL'd run's final flushed events are surfaced by the survivor.
pub fn drain_previous_traces(dir: &Path, keep: usize) -> Vec<(String, Vec<String>)> {
    let mut out = Vec::new();
    let Ok(entries) = std::fs::read_dir(dir) else {
        return out;
    };
    let mut paths: Vec<_> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name().and_then(|n| n.to_str()).is_some_and(|n| {
                n.starts_with("trace-") && n.trim_end_matches(".tmp").ends_with(".log")
            })
        })
        .collect();
    paths.sort();
    for path in paths {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("trace-?.log").to_string();
        // A leftover `.tmp` is a rewrite cut short: its `.log` is whole.
        let tail = if name.ends_with(".log") {
            recorder::read_tail(&path, TRACE_FILE_CAP).ok()
        } else {
            None
        };
        if let Some(bytes) = tail {
            let text = String::from_utf8_lossy(&bytes);
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

    #[test]
    fn many_flushes_stay_under_the_cap_and_the_next_start_recovers_the_tail() {
        let dir = crate::scratch_dir("obs-trace-cap");
        let path = dir.join("trace-222.log");
        let r = Recorder::with_capacity(64);
        let mut appended = 0;
        for epoch in 0..5_000 {
            r.record(Event::BatchFormed { epoch, ops: u64::MAX });
            r.flush_to_file(&path).unwrap();
            appended += r.render_last(1)[0].len() as u64 + 1;
            let len = std::fs::metadata(&path).unwrap().len();
            assert!(len <= TRACE_FILE_CAP, "flush {epoch}: {len} bytes");
        }
        assert!(appended > 4 * TRACE_FILE_CAP, "the test must pass the cap: {appended}");
        // A file from before the cap, far past it, is read only in its tail.
        let legacy: String =
            (0..20_000).map(|i| format!("T {i} 0 FsyncDone nanos={i}\n")).collect();
        std::fs::write(dir.join("trace-111.log"), legacy).unwrap();
        std::fs::write(dir.join("trace-333.log.tmp"), "T 1 0 FsyncDone nanos=1\n").unwrap();
        let drained = drain_previous_traces(&dir, 20);
        let names: Vec<&str> = drained.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["trace-111.log", "trace-222.log"]);
        assert_eq!(drained[0].1.last().unwrap(), "T 19999 0 FsyncDone nanos=19999");
        assert_eq!(drained[0].1.len(), 20);
        assert_eq!(drained[1].1, r.render_last(20));
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0, "every trace file consumed");
        std::fs::remove_dir_all(&dir).ok();
    }
}
