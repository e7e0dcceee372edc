//! The flight recorder: a fixed-capacity, lock-free ring buffer of
//! stamped lifecycle events, cheap enough to leave on in production and
//! dense enough to reconstruct *why* a latency spike or a stuck rebuild
//! happened after the fact.
//!
//! ## Concurrency contract
//!
//! Writers claim a slot with one `fetch_add` on the head sequence, fill
//! the slot's fields with relaxed stores, and publish the slot by
//! storing its sequence number last with `Release`. Readers load the
//! stamp with `Acquire`, copy the fields, and re-check the stamp: a
//! mismatch means the slot was being overwritten mid-read and the event
//! is skipped. The recorder therefore never blocks a writer, and a
//! reader can only lose events that were being *overwritten* during the
//! read — the trade the paper's monitoring-isolation argument asks for.
//!
//! ## Capacity and overwrite semantics
//!
//! Capacity is fixed at construction ([`DEFAULT_RECORDER_CAPACITY`]
//! slots, a power of two). When full, the oldest event is silently
//! overwritten; `TRACE [n]` dumps the most recent `n` events still
//! resident. On shutdown (and periodically from the idle tick) the ring
//! is appended to `<wal-dir>/trace-<pid>.log`, which stays within
//! [`TRACE_FILE_CAP`] bytes; on restart the previous run's file tail is
//! surfaced and the file removed, so SIGKILL post-mortems are self-serve.

use parking_lot::Mutex;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Default number of ring slots (power of two).
pub const DEFAULT_RECORDER_CAPACITY: usize = 4096;

/// Byte cap on a trace file. A rendered line is at most 123 bytes (`T`,
/// two 20-digit `u64`s, and `Unknown kind=… a=… b=…` with three more), so
/// the newest half of the cap, which a flush that would pass the cap
/// rewrites the file to, holds at least 32 KiB / 128 B = 256 lines: more
/// than a restart surfaces (20) or a bare `TRACE` dumps
/// ([`DEFAULT_TRACE_EVENTS`]).
pub const TRACE_FILE_CAP: u64 = 64 << 10;

/// Default number of events a bare `TRACE` dumps.
pub const DEFAULT_TRACE_EVENTS: usize = 64;

/// Why a connection handler returned (the payload of
/// [`Event::ConnClosed`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CloseReason {
    /// Peer closed its write half between requests.
    Eof,
    /// Client sent `QUIT`.
    Quit,
    /// Client sent `SHUTDOWN`.
    Shutdown,
    /// Request line exceeded the line cap.
    OversizedLine,
    /// `B` header promised more ops than the wire cap allows.
    BadBatchHeader,
    /// Peer died mid-batch (fewer body lines than promised).
    TruncatedBatch,
    /// Read or write on the socket failed.
    IoError,
    /// Connection sat idle past the configured read/idle timeout.
    IdleTimeout,
    /// Binary stream damage: bad magic, CRC mismatch, oversized or
    /// short-headered frame.
    BadFrame,
    /// Pushed subscription events outgrew the connection's write budget
    /// (slow consumer): the connection is dropped rather than silently
    /// losing events; durable subscriptions retain for a later `SUB ATTACH`.
    SubOverflow,
}

impl CloseReason {
    fn code(self) -> u64 {
        match self {
            CloseReason::Eof => 0,
            CloseReason::Quit => 1,
            CloseReason::Shutdown => 2,
            CloseReason::OversizedLine => 3,
            CloseReason::BadBatchHeader => 4,
            CloseReason::TruncatedBatch => 5,
            CloseReason::IoError => 6,
            CloseReason::IdleTimeout => 7,
            CloseReason::BadFrame => 8,
            CloseReason::SubOverflow => 9,
        }
    }

    fn from_code(c: u64) -> &'static str {
        match c {
            0 => "eof",
            1 => "quit",
            2 => "shutdown",
            3 => "oversized-line",
            4 => "bad-batch-header",
            5 => "truncated-batch",
            7 => "idle-timeout",
            8 => "bad-frame",
            9 => "sub-overflow",
            _ => "io-error",
        }
    }
}

/// One lifecycle event. Payload fields are two `u64`s chosen per kind;
/// the rendered line names them, so trace consumers never need this
/// enum's layout.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Event {
    /// A leader took pending submissions off the queue as one batch.
    BatchFormed {
        /// Epoch the batch will commit as.
        epoch: u64,
        /// Operations in the batch.
        ops: u64,
    },
    /// A batch was appended (and made durable per policy) to the WAL.
    WalAppend {
        /// Epoch of the appended record.
        epoch: u64,
        /// Encoded record bytes written.
        bytes: u64,
    },
    /// One `fsync` (data sync) of the active WAL segment completed.
    FsyncDone {
        /// Wall time the sync took, nanoseconds.
        nanos: u64,
    },
    /// The engine applied a batch.
    EngineApplied {
        /// Epoch the batch committed as.
        epoch: u64,
        /// Operations applied.
        ops: u64,
    },
    /// A durable snapshot of the live edge set was written.
    SnapshotPublished {
        /// Epoch the snapshot reflects.
        epoch: u64,
        /// Connected components when it was written.
        components: u64,
    },
    /// A generation was sealed (labels frozen, rebuild scheduled).
    RebuildSealed {
        /// The generation that was sealed.
        generation: u64,
    },
    /// A rebuild committed and the next generation went live.
    RebuildCommitted {
        /// The generation that just went live.
        generation: u64,
        /// Pending ops drained into the new generation at commit.
        drained: u64,
    },
    /// A replication follower completed its handshake.
    FollowerConnected {
        /// Follower slot id (matches the `follower` metric label).
        id: u64,
        /// Epoch the follower reported having.
        epoch: u64,
    },
    /// A follower finished replaying the backlog and is tailing live.
    FollowerCaughtUp {
        /// Follower slot id.
        id: u64,
        /// Epoch at which it caught up.
        epoch: u64,
    },
    /// A follower fell behind a pruned WAL and must re-handshake.
    FollowerPruned {
        /// Follower slot id.
        id: u64,
    },
    /// A client connection handler returned.
    ConnClosed {
        /// Why the handler returned.
        reason: CloseReason,
    },
    /// A subscription event was dispatched (sequence assigned, pushed to
    /// its sink or retained for replay).
    SubFired {
        /// The subscription id.
        id: u64,
        /// Epoch the event was stamped with.
        epoch: u64,
    },
}

impl Event {
    fn encode(self) -> (u64, u64, u64) {
        match self {
            Event::BatchFormed { epoch, ops } => (1, epoch, ops),
            Event::WalAppend { epoch, bytes } => (2, epoch, bytes),
            Event::FsyncDone { nanos } => (3, nanos, 0),
            Event::EngineApplied { epoch, ops } => (4, epoch, ops),
            Event::SnapshotPublished { epoch, components } => (5, epoch, components),
            Event::RebuildSealed { generation } => (6, generation, 0),
            Event::RebuildCommitted { generation, drained } => (7, generation, drained),
            Event::FollowerConnected { id, epoch } => (8, id, epoch),
            Event::FollowerCaughtUp { id, epoch } => (9, id, epoch),
            Event::FollowerPruned { id } => (10, id, 0),
            Event::ConnClosed { reason } => (11, reason.code(), 0),
            Event::SubFired { id, epoch } => (12, id, epoch),
        }
    }
}

/// A decoded ring entry, as returned by [`Recorder::events`].
#[derive(Clone, Copy, Debug)]
pub struct TraceEntry {
    /// Monotone sequence number (1-based, gap-free per recorder).
    pub seq: u64,
    /// Microseconds since the recorder (i.e. the service) started.
    pub at_micros: u64,
    kind: u64,
    a: u64,
    b: u64,
}

impl fmt::Display for TraceEntry {
    /// Wire-stable trace line: `T <seq> <t_us> <Kind> <k>=<v> [<k>=<v>]`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T {} {} ", self.seq, self.at_micros)?;
        let (a, b) = (self.a, self.b);
        match self.kind {
            1 => write!(f, "BatchFormed epoch={a} ops={b}"),
            2 => write!(f, "WalAppend epoch={a} bytes={b}"),
            3 => write!(f, "FsyncDone nanos={a}"),
            4 => write!(f, "EngineApplied epoch={a} ops={b}"),
            5 => write!(f, "SnapshotPublished epoch={a} components={b}"),
            6 => write!(f, "RebuildSealed generation={a}"),
            7 => write!(f, "RebuildCommitted generation={a} drained={b}"),
            8 => write!(f, "FollowerConnected follower={a} epoch={b}"),
            9 => write!(f, "FollowerCaughtUp follower={a} epoch={b}"),
            10 => write!(f, "FollowerPruned follower={a}"),
            11 => write!(f, "ConnClosed reason={}", CloseReason::from_code(a)),
            12 => write!(f, "SubFired sub={a} epoch={b}"),
            k => write!(f, "Unknown kind={k} a={a} b={b}"),
        }
    }
}

struct Slot {
    /// Sequence number of the resident event; 0 = never written. Written
    /// last with `Release`, so a matching pre/post read brackets a
    /// consistent field copy.
    stamp: AtomicU64,
    kind: AtomicU64,
    a: AtomicU64,
    b: AtomicU64,
    at_micros: AtomicU64,
}

/// The flight recorder. See the module docs for the concurrency and
/// overwrite contract.
pub struct Recorder {
    slots: Vec<Slot>,
    head: AtomicU64,
    start: Instant,
    /// Sequence already appended to the trace file; guards the file
    /// against duplicate flushes. Only the idle tick's periodic flush and
    /// shutdown take it — never an event writer.
    flushed: Mutex<u64>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_RECORDER_CAPACITY)
    }
}

impl Recorder {
    /// A recorder with `capacity` slots (rounded up to a power of two,
    /// minimum 8).
    pub fn with_capacity(capacity: usize) -> Recorder {
        let cap = capacity.next_power_of_two().max(8);
        Recorder {
            slots: (0..cap)
                .map(|_| Slot {
                    stamp: AtomicU64::new(0),
                    kind: AtomicU64::new(0),
                    a: AtomicU64::new(0),
                    b: AtomicU64::new(0),
                    at_micros: AtomicU64::new(0),
                })
                .collect(),
            head: AtomicU64::new(0),
            start: Instant::now(),
            flushed: Mutex::new(0),
        }
    }

    /// Records one event: one `fetch_add` plus five stores, no locks.
    pub fn record(&self, ev: Event) {
        let seq = self.head.fetch_add(1, Ordering::Relaxed) + 1;
        let slot = &self.slots[(seq as usize - 1) & (self.slots.len() - 1)];
        let (kind, a, b) = ev.encode();
        // Invalidate the slot first so a concurrent reader of the old
        // event sees a stamp change instead of mixed fields.
        slot.stamp.store(0, Ordering::Release);
        slot.kind.store(kind, Ordering::Relaxed);
        slot.a.store(a, Ordering::Relaxed);
        slot.b.store(b, Ordering::Relaxed);
        slot.at_micros.store(self.start.elapsed().as_micros() as u64, Ordering::Relaxed);
        slot.stamp.store(seq, Ordering::Release);
    }

    /// Total events ever recorded (including overwritten ones).
    pub fn recorded(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// The most recent `n` events still resident, oldest first. Slots
    /// caught mid-overwrite are skipped (see the module docs).
    pub fn events(&self, n: usize) -> Vec<TraceEntry> {
        let head = self.head.load(Ordering::Acquire);
        let cap = self.slots.len() as u64;
        if head == 0 || n == 0 {
            return Vec::new();
        }
        let lo = head.saturating_sub((n as u64).min(cap)) + 1;
        let mut out = Vec::with_capacity((head - lo + 1).min(cap) as usize);
        for seq in lo..=head {
            let slot = &self.slots[(seq as usize - 1) & (self.slots.len() - 1)];
            if slot.stamp.load(Ordering::Acquire) != seq {
                continue; // not yet published, or already overwritten
            }
            let entry = TraceEntry {
                seq,
                at_micros: slot.at_micros.load(Ordering::Relaxed),
                kind: slot.kind.load(Ordering::Relaxed),
                a: slot.a.load(Ordering::Relaxed),
                b: slot.b.load(Ordering::Relaxed),
            };
            if slot.stamp.load(Ordering::Acquire) == seq {
                out.push(entry);
            }
        }
        out
    }

    /// Renders the most recent `n` events as wire-stable `T ...` lines
    /// (without the `# EOF` terminator — the wire layer appends it).
    pub fn render_last(&self, n: usize) -> Vec<String> {
        self.events(n).iter().map(|e| e.to_string()).collect()
    }

    /// Appends every event not yet flushed to `path`, creating the file
    /// on first use. A flush that would take the file past
    /// [`TRACE_FILE_CAP`] rewrites it (through a renamed `.tmp` sibling)
    /// to its newest lines within half the cap instead. Returns the number
    /// of lines flushed. Callers are the service's idle tick, shutdown,
    /// and the serve binary's panic hook — never an event writer.
    pub fn flush_to_file(&self, path: &Path) -> std::io::Result<usize> {
        let mut flushed = self.flushed.lock();
        let head = self.head.load(Ordering::Acquire);
        if head == *flushed {
            return Ok(0);
        }
        let fresh = self
            .events(self.slots.len())
            .into_iter()
            .filter(|e| e.seq > *flushed)
            .collect::<Vec<_>>();
        let mut buf = String::with_capacity(fresh.len() * 48);
        for e in &fresh {
            buf.push_str(&e.to_string());
            buf.push('\n');
        }
        let len = std::fs::metadata(path).map_or(0, |m| m.len());
        if len + buf.len() as u64 <= TRACE_FILE_CAP {
            OpenOptions::new().create(true).append(true).open(path)?.write_all(buf.as_bytes())?;
        } else {
            let mut text = read_tail(path, TRACE_FILE_CAP / 2).unwrap_or_default();
            text.extend_from_slice(buf.as_bytes());
            let tmp = path.with_extension("log.tmp");
            std::fs::write(&tmp, line_tail(&text, TRACE_FILE_CAP / 2))?;
            std::fs::rename(&tmp, path)?;
        }
        *flushed = head;
        Ok(fresh.len())
    }
}

/// The whole lines among the last `max` bytes of the file at `path`.
pub(crate) fn read_tail(path: &Path, max: u64) -> std::io::Result<Vec<u8>> {
    let mut file = File::open(path)?;
    // One byte before the window tells whether it opens on a line.
    let from = file.metadata()?.len().saturating_sub(max + 1);
    file.seek(SeekFrom::Start(from))?;
    let mut bytes = Vec::new();
    file.take(max + 1).read_to_end(&mut bytes)?;
    Ok(line_tail(&bytes, max).to_vec())
}

/// The longest suffix of `bytes` within `max` bytes that starts a line.
fn line_tail(bytes: &[u8], max: u64) -> &[u8] {
    let cut = bytes.len().saturating_sub(max as usize);
    if cut == 0 {
        return bytes;
    }
    match bytes[cut - 1..].iter().position(|&b| b == b'\n') {
        Some(i) => &bytes[cut + i..],
        None => &[],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_render_and_overwrite_oldest() {
        let r = Recorder::with_capacity(8);
        assert!(r.events(8).is_empty());
        for i in 0..12 {
            r.record(Event::BatchFormed { epoch: i, ops: 2 });
        }
        assert_eq!(r.recorded(), 12);
        // Capacity 8: events 5..=12 resident, oldest overwritten.
        let evs = r.events(100);
        assert_eq!(evs.len(), 8);
        assert_eq!(evs.first().unwrap().seq, 5);
        assert_eq!(evs.last().unwrap().seq, 12);
        let lines = r.render_last(2);
        assert_eq!(lines.len(), 2);
        assert!(lines[1].starts_with("T 12 "), "{}", lines[1]);
        assert!(lines[1].ends_with("BatchFormed epoch=11 ops=2"), "{}", lines[1]);
    }

    #[test]
    fn every_kind_renders_named_fields() {
        let r = Recorder::with_capacity(16);
        for ev in [
            Event::BatchFormed { epoch: 1, ops: 2 },
            Event::WalAppend { epoch: 1, bytes: 64 },
            Event::FsyncDone { nanos: 500 },
            Event::EngineApplied { epoch: 1, ops: 2 },
            Event::SnapshotPublished { epoch: 1, components: 9 },
            Event::RebuildSealed { generation: 0 },
            Event::RebuildCommitted { generation: 1, drained: 3 },
            Event::FollowerConnected { id: 1, epoch: 0 },
            Event::FollowerCaughtUp { id: 1, epoch: 5 },
            Event::FollowerPruned { id: 1 },
            Event::ConnClosed { reason: CloseReason::Quit },
            Event::ConnClosed { reason: CloseReason::IdleTimeout },
            Event::ConnClosed { reason: CloseReason::BadFrame },
            Event::ConnClosed { reason: CloseReason::SubOverflow },
            Event::SubFired { id: 4, epoch: 11 },
        ] {
            r.record(ev);
        }
        let text = r.render_last(16).join("\n");
        for needle in [
            "BatchFormed epoch=1 ops=2",
            "WalAppend epoch=1 bytes=64",
            "FsyncDone nanos=500",
            "EngineApplied epoch=1 ops=2",
            "SnapshotPublished epoch=1 components=9",
            "RebuildSealed generation=0",
            "RebuildCommitted generation=1 drained=3",
            "FollowerConnected follower=1 epoch=0",
            "FollowerCaughtUp follower=1 epoch=5",
            "FollowerPruned follower=1",
            "ConnClosed reason=quit",
            "ConnClosed reason=idle-timeout",
            "ConnClosed reason=bad-frame",
            "ConnClosed reason=sub-overflow",
            "SubFired sub=4 epoch=11",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }

    #[test]
    fn flush_appends_only_fresh_events() {
        let dir = crate::scratch_dir("obs-recorder-flush");
        let path = dir.join("trace-test.log");
        let r = Recorder::with_capacity(32);
        r.record(Event::FsyncDone { nanos: 1 });
        r.record(Event::FsyncDone { nanos: 2 });
        assert_eq!(r.flush_to_file(&path).unwrap(), 2);
        assert_eq!(r.flush_to_file(&path).unwrap(), 0, "no duplicates");
        r.record(Event::FsyncDone { nanos: 3 });
        assert_eq!(r.flush_to_file(&path).unwrap(), 1);
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 3);
        assert!(text.lines().last().unwrap().contains("FsyncDone nanos=3"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn concurrent_writers_never_tear_a_read() {
        let r = std::sync::Arc::new(Recorder::with_capacity(64));
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let writers: Vec<_> = (0..4)
            .map(|t| {
                let (r, stop) = (std::sync::Arc::clone(&r), std::sync::Arc::clone(&stop));
                std::thread::spawn(move || {
                    let mut i = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        r.record(Event::EngineApplied { epoch: t * 1_000_000_000 + i, ops: t });
                        i += 1;
                    }
                })
            })
            .collect();
        for _ in 0..200 {
            for e in r.events(64) {
                // A torn slot would pair epoch and ops from different
                // writers; published slots must be self-consistent.
                assert_eq!(e.a / 1_000_000_000, e.b, "torn slot: {e}");
            }
        }
        stop.store(true, Ordering::Relaxed);
        for w in writers {
            w.join().unwrap();
        }
    }
}
