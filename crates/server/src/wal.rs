//! The write-ahead log: segmented, checksummed, group-committed batch
//! durability for the connectivity service — and its only file kind.
//!
//! ## Format
//!
//! A WAL directory holds numbered segments `wal-<seq>.log`. Each segment
//! starts with the magic `CCWALS02` and is a sequence of
//! [`cc_graph::io::binary`] records. A record payload's first byte is its
//! **kind**:
//!
//! - [`REC_INSERTS`] (`'I'`) — an insert-only batch; the body is
//!   [`cc_graph::io::binary::encode_edge_batch`] `(epoch, inserts)`.
//! - [`REC_OPS`] (`'D'`) — a deletion-bearing batch; the body is
//!   `epoch (u64 LE)`, `m (u32 LE)`, then `m` ops as `tag (u8: 'I'|'D'),
//!   u (u32 LE), v (u32 LE)` in batch order (queries are never durable).
//! - [`REC_CHECKPOINT`] (`'C'`) — a checkpoint: the sum of every batch up
//!   to its epoch. The body is `epoch (u64 LE)`, `n (u64 LE)`, the
//!   durable subscription registry as `k (u32 LE)` and `k` `'S'` register
//!   payloads, then the live edge set as an `encode_edge_batch`
//!   `(epoch, edges)` body.
//! - [`REC_SUB`] (`'S'`) — a durable subscription registration or
//!   cancellation: `op (u8: 0 register, 1 cancel)`, `id (u64 LE)`, and for
//!   a registration `kind (u8)`, `u`, `v (u32 LE)` and the committed
//!   `epoch (u64 LE)` at registration.
//!
//! Epoch rules: `'I'`/`'D'` epochs strictly increase within a segment; a
//! `'C'` epoch is at least the previous record's; `'S'` has no ordering
//! key and replays in log order. A batch with no durable ops still gets a
//! (13-byte) record so the recovered epoch matches the served epoch
//! exactly. An unknown kind byte on a CRC-valid record is *corruption*,
//! never a skippable tail: silently dropping a record whose retractions we
//! do not understand would recover a wrong partition. [`decode_record`]
//! is the one body decoder: recovery and followers both feed its
//! [`LogRecord`] to the service's apply path.
//!
//! ## Commit protocol
//!
//! A batch's leader appends one record per batch — the group commit:
//! every client submission in that batch shares the one append (and at
//! most one fsync). The append happens **before** the batch is applied to
//! the engine and long before any client reply, so an acknowledged
//! operation is always recoverable. How hard "recoverable" is depends on
//! [`FsyncPolicy`]:
//!
//! - [`FsyncPolicy::Always`] — `fdatasync` after every record, before its
//!   ack: survives machine crashes.
//! - [`FsyncPolicy::Batch`] — flushed to the OS after every record;
//!   [`Wal::sync_if_due`] runs `fdatasync` once
//!   [`DurabilityConfig::group_sync_interval`] has lapsed, after the
//!   batch's acks (the service's leader, or its idle tick when traffic
//!   stops): survives process kills outright; a machine crash can lose
//!   at most the last interval of acknowledged batches.
//! - [`FsyncPolicy::Off`] — flushed to the OS only: survives process
//!   kills; machine-crash durability is whenever the kernel writes back.
//!
//! ## Checkpoints
//!
//! [`Wal::checkpoint`] rolls the active segment, appends `'C'` as the new
//! segment's first record, fsyncs it (and the directory), and only then
//! prunes every older segment. So the oldest segment always opens with a
//! `'C'` or is segment 0; a history that does neither has a hole, and
//! [`WalCursor::oldest`] refuses it with a typed error.
//!
//! ## Recovery
//!
//! [`WalCursor`] is the log's one reader: magic, framing, truncation and
//! hole rules live in its `next` alone. Recovery walks it once, from the
//! oldest segment: [`Wal::replay`] checks every record's kind byte and
//! epoch header and hands each record that is new to the service, which
//! decodes and applies it; [`Wal::open`] is the same walk with nothing to
//! apply. Where the cursor stops short in the *final* segment is a torn
//! tail — the crash interrupted an append — so once the walk is caught up
//! the tail is dropped (reported in [`RecoveryReport`]) **and physically
//! truncated away**, so the segment reads clean on every later restart
//! even once it is no longer final. The same bytes in any earlier segment
//! cannot be explained by a crash mid-append, and the cursor surfaces
//! them as a typed [`WalError`] with segment and offset context. Appends
//! always go to a fresh segment, never after a torn tail; a final segment
//! that holds no complete record (torn inside its magic, or left by a
//! start that wrote nothing) is deleted and the fresh segment reuses its
//! sequence number, so the log's sequence numbers stay contiguous and
//! idle restarts add no segments. A walk that fails leaves the directory
//! as it found it.

use crate::obs::{Event, Obs};
use crate::subs::{SubKind, SubWalOp};
use cc_graph::io::binary::{self, CodecError};
use connectit::Update;
use std::fs::{File, OpenOptions};
use std::io::{BufReader, BufWriter, Seek, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Magic prefix of every WAL segment.
pub const WAL_MAGIC: &[u8; 8] = b"CCWALS02";
/// Byte offset of a segment's first record, just past [`WAL_MAGIC`].
const MAGIC: u64 = binary::MAGIC_LEN as u64;

/// Record kind byte: insert-only batch (edge-batch body).
pub const REC_INSERTS: u8 = b'I';
/// Record kind byte: deletion-bearing batch (ops body).
pub const REC_OPS: u8 = b'D';
/// Record kind byte: checkpoint (`n`, subscription registry, live edges).
pub const REC_CHECKPOINT: u8 = b'C';
/// Record kind byte: durable subscription register/cancel.
pub const REC_SUB: u8 = b'S';

/// Sub-record op byte: register.
const SUB_OP_REGISTER: u8 = 0;
/// Sub-record op byte: cancel.
const SUB_OP_CANCEL: u8 = 1;

/// Op tag inside a [`REC_OPS`] body: insert.
const OP_INSERT: u8 = b'I';
/// Op tag inside a [`REC_OPS`] body: delete.
const OP_DELETE: u8 = b'D';

/// One unit of durable history, as [`decode_record`] yields it and the
/// service's apply path consumes it — from its own directory at recovery,
/// or from a primary's replication stream on a follower.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LogRecord {
    /// One logged batch: inserts and deletes in submission order.
    Ops(Vec<Update>),
    /// A checkpoint: the exact live edge set at its epoch, which replaces
    /// the engine's wholesale, and the durable subscription registry.
    Checkpoint {
        /// The vertex count of the service that wrote it.
        n: usize,
        /// The durable subscriptions live at its epoch (registrations).
        subs: Vec<SubWalOp>,
        /// The live edge set at its epoch.
        edges: Vec<(u32, u32)>,
    },
    /// A durable subscription register or cancel, applied in log order.
    Sub(SubWalOp),
    /// The source reached its live tail at this epoch: a service that fell
    /// behind catches up here.
    CaughtUp,
}

/// Encodes one batch as a full record payload: compact [`REC_INSERTS`]
/// (an edge-batch body) when no deletion is present, [`REC_OPS`] (a tag
/// per op) otherwise. Queries are skipped — they are not durable.
pub(crate) fn encode_ops(epoch: u64, ops: &[Update]) -> Vec<u8> {
    let tagged = ops.iter().any(|op| matches!(op, Update::Delete(..)));
    let durable = ops.iter().filter_map(|op| match *op {
        Update::Insert(u, v) => Some((OP_INSERT, u, v)),
        Update::Delete(u, v) => Some((OP_DELETE, u, v)),
        Update::Query(..) => None,
    });
    let mut out = Vec::with_capacity(13 + 9 * ops.len());
    out.push(if tagged { REC_OPS } else { REC_INSERTS });
    out.extend_from_slice(&epoch.to_le_bytes());
    out.extend_from_slice(&(durable.clone().count() as u32).to_le_bytes());
    for (tag, u, v) in durable {
        if tagged {
            out.push(tag);
        }
        out.extend_from_slice(&u.to_le_bytes());
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// Encodes a durable subscription operation as a full [`REC_SUB`] payload.
fn encode_sub(op: &SubWalOp) -> Vec<u8> {
    let mut out = vec![REC_SUB];
    match *op {
        SubWalOp::Register { id, kind, u, v, epoch } => {
            out.push(SUB_OP_REGISTER);
            out.extend_from_slice(&id.to_le_bytes());
            out.push(kind.code());
            out.extend_from_slice(&u.to_le_bytes());
            out.extend_from_slice(&v.to_le_bytes());
            out.extend_from_slice(&epoch.to_le_bytes());
        }
        SubWalOp::Cancel { id } => {
            out.push(SUB_OP_CANCEL);
            out.extend_from_slice(&id.to_le_bytes());
        }
    }
    out
}

/// Length of a [`REC_SUB`] register payload (also one checkpoint
/// registry entry).
const SUB_REGISTER_LEN: usize = 27;

/// Encodes a full [`REC_CHECKPOINT`] payload (see the module docs).
fn encode_checkpoint(epoch: u64, n: usize, subs: &[SubWalOp], edges: &[(u32, u32)]) -> Vec<u8> {
    let mut out = Vec::with_capacity(21 + SUB_REGISTER_LEN * subs.len() + 12 + 8 * edges.len());
    out.push(REC_CHECKPOINT);
    out.extend_from_slice(&epoch.to_le_bytes());
    out.extend_from_slice(&(n as u64).to_le_bytes());
    out.extend_from_slice(&(subs.len() as u32).to_le_bytes());
    for sub in subs {
        out.extend_from_slice(&encode_sub(sub));
    }
    out.extend_from_slice(&binary::encode_edge_batch(epoch, edges));
    out
}

fn le32(b: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(b[at..at + 4].try_into().expect("4 bytes"))
}

fn le64(b: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(b[at..at + 8].try_into().expect("8 bytes"))
}

/// Checks a record's kind byte and epoch header without decoding its
/// body: returns the kind and, for every kind but [`REC_SUB`] (which has
/// no ordering key), the epoch. `offset` is for error context only.
pub fn record_header(payload: &[u8], offset: u64) -> Result<(u8, Option<u64>), CodecError> {
    let bad = |reason| Err(CodecError::BadPayload { offset, reason });
    match payload.first().copied() {
        Some(REC_SUB) => Ok((REC_SUB, None)),
        Some(k @ (REC_INSERTS | REC_OPS | REC_CHECKPOINT)) if payload.len() >= 9 => {
            Ok((k, Some(le64(payload, 1))))
        }
        Some(REC_INSERTS | REC_OPS | REC_CHECKPOINT) => bad("record header needs 9 bytes".into()),
        other => bad(format!("unknown wal record kind {other:?}")),
    }
}

/// The one body decoder: maps a full record payload (kind byte included)
/// to its epoch and [`LogRecord`]. A [`LogRecord::Sub`] has no ordering
/// key and reads epoch 0. `offset` is the record's byte offset, used only
/// for error context.
pub fn decode_record(payload: &[u8], offset: u64) -> Result<(u64, LogRecord), CodecError> {
    let bad = |reason: String| CodecError::BadPayload { offset, reason };
    let (kind, epoch) = record_header(payload, offset)?;
    let (epoch, len) = (epoch.unwrap_or(0), payload.len());
    match kind {
        REC_INSERTS | REC_OPS => {
            // `'D'` ops carry a tag byte each; `'I'` edges are all inserts.
            let width = if kind == REC_OPS { 9 } else { 8 };
            let m = if len >= 13 { le32(payload, 9) as usize } else { 0 };
            if len != 13 + width * m {
                return Err(bad(format!(
                    "batch of {m} ops needs {} bytes, have {len}",
                    13 + width * m
                )));
            }
            let mut ops = Vec::with_capacity(m);
            for op in payload[13..].chunks_exact(width) {
                let (u, v) = (le32(op, width - 8), le32(op, width - 4));
                ops.push(match if width == 9 { op[0] } else { OP_INSERT } {
                    OP_INSERT => Update::Insert(u, v),
                    OP_DELETE => Update::Delete(u, v),
                    other => {
                        return Err(bad(format!("unknown op tag {other:?} at op {}", ops.len())))
                    }
                });
            }
            Ok((epoch, LogRecord::Ops(ops)))
        }
        REC_CHECKPOINT => {
            if len < 21 {
                return Err(bad(format!("checkpoint header needs 21 bytes, have {len}")));
            }
            let (n, k) =
                (usize::try_from(le64(payload, 9)).unwrap_or(usize::MAX), le32(payload, 17));
            let edges_at = (k as usize)
                .checked_mul(SUB_REGISTER_LEN)
                .map(|b| b + 21)
                .filter(|&at| at <= len)
                .ok_or_else(|| bad(format!("checkpoint registry of {k} entries overruns")))?;
            // Each entry is register-sized, so it decodes as one or not at all.
            let subs = payload[21..edges_at]
                .chunks(SUB_REGISTER_LEN)
                .map(|entry| decode_sub(entry, offset))
                .collect::<Result<Vec<_>, _>>()?;
            let (edge_epoch, edges) = binary::decode_edge_batch(&payload[edges_at..], offset)?;
            if edge_epoch != epoch {
                return Err(bad(format!(
                    "checkpoint at epoch {epoch} holds edges at {edge_epoch}"
                )));
            }
            Ok((epoch, LogRecord::Checkpoint { n, subs, edges }))
        }
        _ => Ok((0, LogRecord::Sub(decode_sub(payload, offset)?))),
    }
}

/// Decodes a full [`REC_SUB`] payload.
fn decode_sub(payload: &[u8], offset: u64) -> Result<SubWalOp, CodecError> {
    let bad = |reason: String| Err(CodecError::BadPayload { offset, reason });
    if payload.first() != Some(&REC_SUB) || payload.len() < 10 {
        return bad(format!("sub record needs >= 10 bytes with kind 'S', have {}", payload.len()));
    }
    let id = le64(payload, 2);
    match payload[1] {
        SUB_OP_CANCEL if payload.len() == 10 => Ok(SubWalOp::Cancel { id }),
        SUB_OP_REGISTER if payload.len() == SUB_REGISTER_LEN => {
            match SubKind::from_code(payload[10]) {
                Some(kind) => {
                    let (u, v, epoch) = (le32(payload, 11), le32(payload, 15), le64(payload, 19));
                    Ok(SubWalOp::Register { id, kind, u, v, epoch })
                }
                None => bad(format!("unknown subscription kind {:?}", payload[10])),
            }
        }
        op => bad(format!("bad sub record: op {op:?} with {} bytes", payload.len())),
    }
}

/// When to `fdatasync` the log (see the module docs for the guarantees).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Sync after every appended record.
    Always,
    /// Sync on a bounded time cadence (group commit across batches).
    Batch,
    /// Never sync; only flush to the OS.
    Off,
}

impl std::fmt::Display for FsyncPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FsyncPolicy::Always => write!(f, "always"),
            FsyncPolicy::Batch => write!(f, "batch"),
            FsyncPolicy::Off => write!(f, "off"),
        }
    }
}

impl std::str::FromStr for FsyncPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "always" => Ok(FsyncPolicy::Always),
            "batch" => Ok(FsyncPolicy::Batch),
            "off" => Ok(FsyncPolicy::Off),
            other => Err(format!("unknown fsync policy {other:?} (always|batch|off)")),
        }
    }
}

/// Configuration of the durability subsystem (the WAL and its checkpoints).
#[derive(Clone, Debug)]
pub struct DurabilityConfig {
    /// Directory holding the WAL segments; created on start.
    pub dir: PathBuf,
    /// Fsync discipline for the log.
    pub fsync: FsyncPolicy,
    /// Write a checkpoint record every this many epochs (0 = only on
    /// explicit `SNAPSHOT` requests). A checkpoint bounds recovery replay
    /// to the log suffix past its epoch and lets older segments be pruned.
    pub snapshot_every: u64,
    /// Roll to a new segment once the active one exceeds this many bytes.
    pub segment_max_bytes: u64,
    /// Maximum time acknowledged batches ride the OS cache before a sync
    /// under [`FsyncPolicy::Batch`].
    pub group_sync_interval: Duration,
}

impl DurabilityConfig {
    /// A config with production-shaped defaults: `batch` fsync, 64 MiB
    /// segments, a 5 ms group-sync window, periodic checkpoints off.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        DurabilityConfig {
            dir: dir.into(),
            fsync: FsyncPolicy::Batch,
            snapshot_every: 0,
            segment_max_bytes: 64 << 20,
            group_sync_interval: Duration::from_millis(5),
        }
    }
}

/// A durability failure, always carrying which file (and where in it)
/// went wrong.
#[derive(Debug)]
pub enum WalError {
    /// I/O failure against a specific path.
    Io {
        /// The file or directory involved.
        path: PathBuf,
        /// The underlying error.
        source: std::io::Error,
    },
    /// A codec failure inside a segment, with byte offset context from
    /// [`CodecError`].
    Codec {
        /// The file that failed to decode.
        path: PathBuf,
        /// The typed decode failure (carries the offset).
        source: CodecError,
    },
    /// A structurally impossible WAL state (e.g. corruption in a sealed,
    /// non-final segment, or a history with a hole).
    Corrupt {
        /// The offending file.
        path: PathBuf,
        /// What was wrong.
        detail: String,
    },
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io { path, source } => {
                write!(f, "wal i/o error on {}: {source}", path.display())
            }
            WalError::Codec { path, source } => {
                write!(f, "wal decode error in {}: {source}", path.display())
            }
            WalError::Corrupt { path, detail } => {
                write!(f, "wal corruption in {}: {detail}", path.display())
            }
        }
    }
}

impl std::error::Error for WalError {}

fn io_err(path: &Path, source: std::io::Error) -> WalError {
    WalError::Io { path: path.to_path_buf(), source }
}

/// What the recovery walk ([`Wal::replay`], [`Wal::open`]) found.
#[derive(Debug, Default)]
pub struct RecoveryReport {
    /// Segments on disk at open, each walked once.
    pub segments_scanned: usize,
    /// Bytes dropped from a torn final-segment tail (0 for a clean log).
    pub torn_bytes: u64,
    /// Human description of the torn tail, when one was dropped.
    pub torn_detail: Option<String>,
}

/// Statistics of a live [`Wal`], one-line formatted for the `WALSTATS`
/// protocol verb.
#[derive(Clone, Debug)]
pub struct WalStats {
    /// Fsync policy in force.
    pub policy: FsyncPolicy,
    /// Segment files the log currently tracks (sealed + active).
    pub segments: u64,
    /// Records appended since open.
    pub records: u64,
    /// Bytes appended since open.
    pub appended_bytes: u64,
    /// `fdatasync` calls since open.
    pub syncs: u64,
    /// Highest epoch ever logged (including recovered history).
    pub last_epoch: u64,
    /// Bytes dropped as a torn tail by the opening recovery scan.
    pub torn_bytes: u64,
}

impl std::fmt::Display for WalStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let WalStats { policy, segments, records, appended_bytes, syncs, last_epoch, torn_bytes } =
            self;
        write!(f, "policy={policy} segments={segments} records={records} bytes={appended_bytes} ")?;
        write!(f, "syncs={syncs} last_epoch={last_epoch} torn_bytes={torn_bytes}")
    }
}

pub(crate) fn segment_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("wal-{seq:08}.log"))
}

fn parse_segment_seq(name: &str) -> Option<u64> {
    name.strip_prefix("wal-")?.strip_suffix(".log")?.parse().ok()
}

/// A live, appendable write-ahead log.
pub struct Wal {
    cfg: DurabilityConfig,
    file: BufWriter<File>,
    seg_path: PathBuf,
    seg_seq: u64,
    seg_bytes: u64,
    /// Sequence numbers of the finished segments still on disk, ascending.
    sealed: Vec<u64>,
    last_epoch: u64,
    records: u64,
    appended_bytes: u64,
    syncs: u64,
    torn_bytes: u64,
    last_sync: Instant,
    /// Records flushed to the OS but not yet fsynced (Batch policy).
    dirty: bool,
    /// Set when a failed append could not be rolled back: the active
    /// segment's contents are undefined past `seg_bytes`, so further
    /// appends would be written after garbage and lost at recovery.
    poisoned: bool,
    /// Metrics/trace sink ([`Wal::attach_obs`]); counters and gauges are
    /// mirrored at each mutation so `WALSTATS`/`METRICS` never need this
    /// log's lock to report on it.
    obs: Option<Arc<Obs>>,
}

/// Creates segment `seq` in `dir` holding only the magic.
fn create_segment(dir: &Path, seq: u64) -> Result<(PathBuf, BufWriter<File>), WalError> {
    let path = segment_path(dir, seq);
    let io = |e| io_err(&path, e);
    let mut file =
        BufWriter::new(OpenOptions::new().create_new(true).write(true).open(&path).map_err(io)?);
    binary::write_magic(&mut file, WAL_MAGIC).map_err(io)?;
    file.flush().map_err(io)?;
    Ok((path, file))
}

impl Wal {
    /// Opens the log at `cfg.dir` with nothing to apply: [`Self::replay`]'s
    /// walk alone.
    pub fn open(cfg: &DurabilityConfig) -> Result<(Wal, RecoveryReport), WalError> {
        Self::replay(cfg, |_, _| Ok(()))
    }

    /// Recovery's one walk of the history at `cfg.dir` (creating the
    /// directory if needed): a [`WalCursor`] from the oldest segment,
    /// checking each record's header and its epoch order within the
    /// segment, hands every record that is new past the history already
    /// walked to `apply`, with the cursor to decode it by. Only once the
    /// cursor is caught up does the directory change: the torn tail is
    /// truncated where the cursor stopped, and a fresh active segment
    /// starts after the highest existing sequence number — or in place of
    /// a final segment that holds no complete record. An `Err`, the
    /// walk's or `apply`'s, leaves every segment as it was.
    pub fn replay<E: From<WalError>>(
        cfg: &DurabilityConfig,
        mut apply: impl FnMut(&WalCursor, &[u8]) -> Result<(), E>,
    ) -> Result<(Wal, RecoveryReport), E> {
        let dir = &cfg.dir;
        std::fs::create_dir_all(dir).map_err(|e| io_err(dir, e))?;
        let mut sealed: Vec<u64> = std::fs::read_dir(dir)
            .map_err(|e| io_err(dir, e))?
            .filter_map(|entry| {
                let entry = entry.ok()?;
                parse_segment_seq(entry.file_name().to_str()?)
            })
            .collect();
        sealed.sort_unstable();

        let mut report = RecoveryReport { segments_scanned: sealed.len(), ..Default::default() };
        let mut cursor = WalCursor::open(dir, 0, MAGIC);
        cursor.oldest().map_err(|e| io_err(dir, e))?;
        let (mut last_epoch, mut seg, mut seg_last) = (0u64, cursor.seq, 0u64);
        loop {
            let payload = match cursor.next()? {
                TailEvent::Record(payload) => payload,
                TailEvent::CaughtUp => break,
                // The cursor starts at the oldest segment on disk and
                // nothing prunes before the log accepts writes: a segment
                // that vanished under it leaves a hole in the history.
                TailEvent::Pruned => {
                    let detail = "a segment vanished while recovery read it".into();
                    return Err(WalError::Corrupt { path: dir.clone(), detail }.into());
                }
            };
            let (at, path) = (cursor.record_at, || segment_path(dir, cursor.seq));
            // The cursor framed this record; one that fails here (unknown
            // kind, short header, epoch out of order) is corruption even
            // in the final segment, never a torn tail.
            let (kind, epoch) = record_header(&payload, at)
                .map_err(|source| WalError::Codec { path: path(), source })?;
            if let Some(epoch) = epoch {
                if cursor.seq != seg {
                    (seg, seg_last) = (cursor.seq, 0);
                }
                if epoch < seg_last || (epoch == seg_last && kind != REC_CHECKPOINT) {
                    let detail = format!(
                        "record epoch {epoch} at offset {at} does not increase past {seg_last}"
                    );
                    return Err(WalError::Corrupt { path: path(), detail }.into());
                }
                seg_last = epoch;
                // A checkpoint restates its own epoch; a batch is new only
                // past the history already walked. `'S'` has no epoch.
                if epoch < last_epoch || (epoch == last_epoch && kind != REC_CHECKPOINT) {
                    continue;
                }
                last_epoch = epoch;
            }
            apply(&cursor, &payload)?;
        }

        // Bytes past where the cursor stopped in the final segment are a
        // torn tail: the crash interrupted an append (or, under the magic,
        // a segment's creation). The drop is physical, because the segment
        // stops being the final one as soon as the fresh active segment
        // below exists, and a sealed segment must read clean on every
        // later restart.
        let mut seg_seq = sealed.last().map_or(0, |s| s + 1);
        let (seq, at) = cursor.position();
        if sealed.last() == Some(&seq) {
            let path = segment_path(dir, seq);
            let io = |e| io_err(&path, e);
            let len = std::fs::metadata(&path).map_err(io)?.len();
            let from = if len < MAGIC { 0 } else { at };
            if from < len {
                report.torn_bytes = len - from;
                let dropped = format!("dropped {} torn bytes at offset {from}", len - from);
                report.torn_detail = Some(format!("{}: {dropped}", path.display()));
            }
            if at <= MAGIC {
                // No complete record: the fresh segment takes this one's
                // sequence number, so restarts that write nothing leave no
                // empty segments behind, and the log keeps no gap for a
                // cursor to read as pruned.
                std::fs::remove_file(&path).map_err(io)?;
                sealed.pop();
                seg_seq = seq;
            } else if from < len {
                let f = OpenOptions::new().write(true).open(&path).map_err(io)?;
                f.set_len(from).map_err(io)?;
                f.sync_data().map_err(io)?;
            }
        }

        let (seg_path, file) = create_segment(&cfg.dir, seg_seq)?;
        let wal = Wal {
            cfg: cfg.clone(),
            file,
            seg_path,
            seg_seq,
            seg_bytes: MAGIC,
            sealed,
            last_epoch,
            records: 0,
            appended_bytes: 0,
            syncs: 0,
            torn_bytes: report.torn_bytes,
            last_sync: Instant::now(),
            dirty: false,
            poisoned: false,
            obs: None,
        };
        Ok((wal, report))
    }

    /// Attaches the observability plane and immediately mirrors this
    /// log's current state (segments, recovered last epoch, torn bytes)
    /// into the registry, so a scrape right after recovery is already
    /// truthful.
    pub fn attach_obs(&mut self, obs: Arc<Obs>) {
        let stats = self.stats();
        obs.metrics.wal_segments.set(stats.segments);
        obs.metrics.wal_last_epoch.set(stats.last_epoch);
        obs.metrics.wal_torn_bytes.set(stats.torn_bytes);
        self.obs = Some(obs);
    }

    fn sync(&mut self) -> std::io::Result<()> {
        let t0 = Instant::now();
        self.file.flush()?;
        self.file.get_ref().sync_data()?;
        self.syncs += 1;
        self.last_sync = Instant::now();
        self.dirty = false;
        if let Some(o) = &self.obs {
            let nanos = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
            o.metrics.wal_fsyncs_total.inc();
            o.metrics.fsync_ns.record(nanos);
            o.recorder.record(Event::FsyncDone { nanos });
        }
        Ok(())
    }

    /// Restores the active segment to its last known-good length after a
    /// failed append: the partial (or durably-indeterminate) record is
    /// physically truncated away, so the next append — which reuses the
    /// rejected batch's epoch — never lands after garbage or a duplicate.
    /// If the restore itself fails, the log is poisoned: every later
    /// append errors out instead of silently writing records recovery
    /// would drop.
    fn restore_active_segment(&mut self) {
        let res = (|| -> std::io::Result<()> {
            let file = OpenOptions::new().write(true).open(&self.seg_path)?;
            // Swap the failed writer out and dismantle it WITHOUT
            // flushing: its buffer may still hold the rejected record's
            // bytes, and a Drop-time re-flush after the truncate below
            // would resurrect a batch whose clients were told Err.
            let failed = std::mem::replace(&mut self.file, BufWriter::new(file));
            let _ = failed.into_parts();
            self.file.get_ref().set_len(self.seg_bytes)?;
            std::io::Seek::seek(self.file.get_mut(), std::io::SeekFrom::End(0))?;
            Ok(())
        })();
        if res.is_err() {
            self.poisoned = true;
        }
    }

    /// The one append path: writes a full record payload (`epoch` is its
    /// ordering key, `None` for `'S'`) and makes it as durable as the
    /// policy promises — or fsyncs it outright with `sync_now`. The bytes
    /// always reach the OS before this returns, so acknowledged batches
    /// survive a process kill under every policy. On failure the segment
    /// is physically rolled back to its pre-append length, so a retried
    /// epoch never lands after garbage or a duplicate; an unrecoverable
    /// rollback poisons the log (all later appends fail fast).
    fn append_payload(
        &mut self,
        payload: &[u8],
        epoch: Option<u64>,
        sync_now: bool,
    ) -> Result<(), WalError> {
        if self.poisoned {
            return Err(WalError::Corrupt {
                path: self.seg_path.clone(),
                detail: "log is poisoned after an unrecoverable append failure; \
                         restart the service to recover from disk"
                    .into(),
            });
        }
        let res = (|| -> std::io::Result<u64> {
            let written = binary::append_record(&mut self.file, payload)?;
            self.file.flush()?;
            match self.cfg.fsync {
                _ if sync_now => self.sync()?,
                FsyncPolicy::Always => self.sync()?,
                FsyncPolicy::Batch => self.dirty = true,
                FsyncPolicy::Off => {}
            }
            Ok(written)
        })();
        let written = match res {
            Ok(w) => w,
            Err(e) => {
                self.restore_active_segment();
                return Err(io_err(&self.seg_path.clone(), e));
            }
        };
        self.seg_bytes += written;
        self.appended_bytes += written;
        self.records += 1;
        self.last_epoch = epoch.unwrap_or(self.last_epoch);
        if let Some(o) = &self.obs {
            o.metrics.wal_records_total.inc();
            o.metrics.wal_bytes_total.add(written);
            o.metrics.wal_last_epoch.set_max(self.last_epoch);
            o.recorder.record(Event::WalAppend { epoch: self.last_epoch, bytes: written });
        }
        if self.seg_bytes >= self.cfg.segment_max_bytes {
            self.roll()?;
        }
        Ok(())
    }

    /// Appends one batch record — the group commit for every submission in
    /// the batch: compact [`REC_INSERTS`] when monotone, [`REC_OPS`] when a
    /// deletion must replay in order. Queries in `ops` are skipped — they
    /// are not durable. On failure the caller's batch is rejected.
    pub fn append_ops(&mut self, epoch: u64, ops: &[Update]) -> Result<(), WalError> {
        self.append_payload(&encode_ops(epoch, ops), Some(epoch), false)
    }

    /// Appends one durable subscription register/cancel record
    /// ([`REC_SUB`]). Sub records never advance the log's epoch.
    pub fn append_sub(&mut self, op: &SubWalOp) -> Result<(), WalError> {
        self.append_payload(&encode_sub(op), None, false)
    }

    /// Writes a checkpoint at `epoch` — the live edge set of an
    /// `n`-vertex service and its durable subscription registry — in four
    /// steps: roll the active segment, append `'C'` as the new segment's
    /// first record, fsync it and the directory, and only then prune every
    /// older segment, newest first. A crash anywhere leaves either the old
    /// history or the checkpoint, never neither; an undeletable segment is
    /// retried at the next checkpoint, and pruning newest-first keeps the
    /// oldest survivor the history's true start.
    pub fn checkpoint(
        &mut self,
        epoch: u64,
        n: usize,
        subs: &[SubWalOp],
        edges: &[(u32, u32)],
    ) -> Result<(), WalError> {
        self.roll()?;
        let seq = self.seg_seq;
        self.append_payload(&encode_checkpoint(epoch, n, subs, edges), Some(epoch), true)?;
        File::open(&self.cfg.dir)
            .and_then(|d| d.sync_all())
            .map_err(|e| io_err(&self.cfg.dir, e))?;
        let before = self.sealed.len();
        while let Some(i) = self.sealed.iter().rposition(|&s| s < seq) {
            let gone = std::fs::remove_file(segment_path(&self.cfg.dir, self.sealed[i]));
            if gone.is_err_and(|e| e.kind() != std::io::ErrorKind::NotFound) {
                break;
            }
            self.sealed.remove(i);
        }
        if let Some(o) = &self.obs {
            o.metrics.wal_prunes_total.add((before - self.sealed.len()) as u64);
            o.metrics.wal_segments.set(self.sealed.len() as u64 + 1);
        }
        Ok(())
    }

    /// Syncs pending bytes if the group-sync window has lapsed: the
    /// [`FsyncPolicy::Batch`] sync, which no append runs (the service's
    /// leader calls this after its acks, and its idle tick while traffic
    /// pauses).
    pub fn sync_if_due(&mut self) -> Result<(), WalError> {
        if self.dirty
            && self.cfg.fsync == FsyncPolicy::Batch
            && self.last_sync.elapsed() >= self.cfg.group_sync_interval
        {
            self.sync().map_err(|e| io_err(&self.seg_path.clone(), e))?;
        }
        Ok(())
    }

    /// Flushes and syncs the active segment regardless of policy (the
    /// `FLUSH` protocol verb, and shutdown).
    pub fn flush(&mut self) -> Result<(), WalError> {
        self.sync().map_err(|e| io_err(&self.seg_path.clone(), e))
    }

    /// Seals the active segment and starts the next one. Called on size
    /// overflow and at checkpoints (so pruning can retire whole segments).
    fn roll(&mut self) -> Result<(), WalError> {
        self.sync().map_err(|e| io_err(&self.seg_path.clone(), e))?;
        self.sealed.push(self.seg_seq);
        self.seg_seq += 1;
        (self.seg_path, self.file) = create_segment(&self.cfg.dir, self.seg_seq)?;
        self.seg_bytes = MAGIC;
        if let Some(o) = &self.obs {
            o.metrics.wal_rolls_total.inc();
            o.metrics.wal_segments.set(self.sealed.len() as u64 + 1);
        }
        Ok(())
    }

    /// Point-in-time statistics.
    pub fn stats(&self) -> WalStats {
        WalStats {
            policy: self.cfg.fsync,
            segments: self.sealed.len() as u64 + 1,
            records: self.records,
            appended_bytes: self.appended_bytes,
            syncs: self.syncs,
            last_epoch: self.last_epoch,
            torn_bytes: self.torn_bytes,
        }
    }
}

/// What one [`WalCursor::next`] step produced.
#[derive(Debug, PartialEq, Eq)]
pub enum TailEvent {
    /// The next record's raw payload, kind byte included (decode it with
    /// [`WalCursor::decode`] or [`decode_record`]; ship it as is).
    Record(Vec<u8>),
    /// No complete record is available *yet*: the cursor sits at the live
    /// tail (or inside a record the writer has not finished flushing).
    /// Poll again later; the position is unchanged.
    CaughtUp,
    /// The cursor's segment was pruned beneath it (a checkpoint retired
    /// it). The caller resumes from [`WalCursor::oldest`], whose first
    /// record is that checkpoint.
    Pruned,
}

/// A polling read cursor over a WAL directory, and the log's one reader:
/// the recovery walk ([`Wal::replay`]) and every follower's stream walk
/// it. Independent of the [`Wal`] writer, it keeps its segment open
/// across records — one open and one magic check per segment — and looks
/// at the directory only at a segment's end or where it stops short of a
/// whole record, so a live primary can keep appending, rolling and
/// pruning beneath it.
///
/// The rules, which hold for every reader:
///
/// - **Segment end.** If a *newer* segment exists, the segment is sealed:
///   the cursor rolls to the next segment on disk (past any gap a
///   checkpoint left when it could not delete an older segment), never
///   reporting the boundary as a torn tail — or reports
///   [`TailEvent::Pruned`] if its own segment is gone. Otherwise the
///   position is the live tail ([`TailEvent::CaughtUp`]).
/// - **Stopping short.** A record or magic that does not frame (torn,
///   failing its CRC, an implausible length) stops the cursor: it drops
///   its buffer and seeks back to the record's start, so it re-reads
///   whatever the writer puts there. In the final segment that is
///   [`TailEvent::CaughtUp`] — a writer mid-flush, or after a crash the
///   torn tail the recovery walk truncates. Once a newer segment exists
///   the bytes are final: the cursor reads them once more (its first read
///   may have raced the seal), then fails with a typed [`WalError`].
/// - **Corruption.** A complete magic other than [`WAL_MAGIC`] is a hard
///   error anywhere, and so is a history with a hole ([`Self::oldest`]).
pub struct WalCursor {
    dir: PathBuf,
    seq: u64,
    offset: u64,
    /// Start offset of the record last yielded, for [`Self::decode`].
    record_at: u64,
    /// Set by [`Self::oldest`] past segment 0: the next record is the
    /// history's first, and must be a checkpoint.
    needs_checkpoint: bool,
    /// Segment `seq`, its magic checked, read up to `offset`; `None`
    /// until a step opens it.
    file: Option<BufReader<File>>,
}

impl WalCursor {
    /// Opens a cursor over `dir` at byte `offset` of segment `seq` (use
    /// `(0, MAGIC_LEN as u64)` for the start of segment 0).
    pub fn open(dir: impl Into<PathBuf>, seq: u64, offset: u64) -> WalCursor {
        WalCursor {
            dir: dir.into(),
            seq,
            offset,
            record_at: offset,
            needs_checkpoint: false,
            file: None,
        }
    }

    /// The position as `(segment sequence, byte offset)`.
    pub fn position(&self) -> (u64, u64) {
        (self.seq, self.offset)
    }

    /// Repositions the cursor at the start of the oldest segment still
    /// on disk (or at segment 0 if the directory is empty) — the start of
    /// the history, and the resume point after [`TailEvent::Pruned`].
    /// Past segment 0 the history must open with a checkpoint: if the
    /// first record read is anything else, [`Self::next`] fails with a
    /// typed [`WalError::Corrupt`] rather than serve a suffix of it.
    pub fn oldest(&mut self) -> std::io::Result<()> {
        self.seq = first_segment_seq(&self.dir, 0)?.unwrap_or(0);
        self.offset = MAGIC;
        self.needs_checkpoint = self.seq > 0;
        self.file = None;
        Ok(())
    }

    /// Decodes a payload this cursor just yielded ([`decode_record`]),
    /// naming its segment and offset in any error.
    pub fn decode(&self, payload: &[u8]) -> Result<(u64, LogRecord), WalError> {
        decode_record(payload, self.record_at)
            .map_err(|source| WalError::Codec { path: segment_path(&self.dir, self.seq), source })
    }

    /// Advances one step. See [`TailEvent`] for the three outcomes; a
    /// returned error means bytes that are actually present failed to
    /// frame in a sealed segment (disk corruption, never a mid-append
    /// race), a wrong magic, or a history with a hole (see
    /// [`Self::oldest`]).
    /// (Deliberately not `Iterator`: `CaughtUp` is a poll outcome, not
    /// an end of stream — mirroring `binary::RecordReader::next`.)
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Result<TailEvent, WalError> {
        // Whether this step already re-read its position after seeing a
        // newer segment, whose existence makes the bytes here final.
        let mut reread = false;
        loop {
            let path = segment_path(&self.dir, self.seq);
            let io = |e: std::io::Error| io_err(&path, e);
            let read = match self.file.as_mut() {
                Some(file) => binary::RecordReader::new(file, self.offset).next(),
                None => match File::open(&path) {
                    Ok(f) => {
                        let mut file = BufReader::new(f);
                        match binary::read_magic(&mut file, WAL_MAGIC) {
                            Ok(()) => {
                                self.offset = self.offset.max(MAGIC);
                                file.seek(std::io::SeekFrom::Start(self.offset)).map_err(io)?;
                                self.file = Some(file);
                                continue;
                            }
                            Err(e) if e.is_truncation() => Err(e),
                            Err(source) => return Err(WalError::Codec { path, source }),
                        }
                    }
                    // Either the segment was pruned (a newer one exists)
                    // or we are ahead of the writer (nothing yet).
                    Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                        let pruned = first_segment_seq(&self.dir, self.seq + 1).map_err(io)?;
                        return Ok(pruned.map_or(TailEvent::CaughtUp, |_| TailEvent::Pruned));
                    }
                    Err(e) => return Err(io(e)),
                },
            };
            match read {
                Ok(Some(payload)) => {
                    if std::mem::take(&mut self.needs_checkpoint)
                        && payload.first() != Some(&REC_CHECKPOINT)
                    {
                        let detail = "history has a hole: the oldest segment is not segment 0 \
                                      and does not open with a checkpoint";
                        return Err(WalError::Corrupt { path, detail: detail.into() });
                    }
                    // Past the frame: `len`, `crc`, then the payload.
                    self.record_at = self.offset;
                    self.offset += 8 + payload.len() as u64;
                    return Ok(TailEvent::Record(payload));
                }
                // The segment's end: the boundary case that must NEVER
                // read as a torn tail.
                Ok(None) => {
                    let Some(next) = first_segment_seq(&self.dir, self.seq + 1).map_err(io)? else {
                        return Ok(TailEvent::CaughtUp);
                    };
                    if !path.exists() {
                        self.file = None;
                        return Ok(TailEvent::Pruned);
                    }
                    // A record appended between our read and the roll
                    // that created `next` is visible now.
                    if !std::mem::replace(&mut reread, true) {
                        continue;
                    }
                    (self.seq, self.offset, self.file, reread) = (next, MAGIC, None, false);
                }
                Err(binary::CodecError::Io(e)) => return Err(io(e)),
                Err(e) => {
                    if let Some(file) = self.file.as_mut() {
                        file.seek(std::io::SeekFrom::Start(self.offset)).map_err(io)?;
                    }
                    if first_segment_seq(&self.dir, self.seq + 1).map_err(io)?.is_none() {
                        return Ok(TailEvent::CaughtUp);
                    }
                    if std::mem::replace(&mut reread, true) {
                        return Err(WalError::Codec { path, source: e });
                    }
                }
            }
        }
    }
}

/// The lowest segment sequence number at least `from` present in `dir`,
/// if any.
fn first_segment_seq(dir: &Path, from: u64) -> std::io::Result<Option<u64>> {
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    Ok(entries
        .flatten()
        .filter_map(|entry| entry.file_name().to_str().and_then(parse_segment_seq))
        .filter(|&s| s >= from)
        .min())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        crate::scratch_dir(&format!("wal_{tag}"))
    }

    fn small_cfg(dir: &Path) -> DurabilityConfig {
        DurabilityConfig { fsync: FsyncPolicy::Off, ..DurabilityConfig::new(dir) }
    }

    /// Every record in `dir`, decoded by the cursor recovery replays
    /// with, which must reach the tail without meeting a gap in the
    /// segment sequence.
    fn logged(dir: &Path) -> Vec<(u64, LogRecord)> {
        let mut cursor = WalCursor::open(dir, 0, binary::MAGIC_LEN as u64);
        cursor.oldest().expect("oldest");
        let mut out = Vec::new();
        loop {
            match cursor.next().expect("tail") {
                TailEvent::Record(payload) => out.push(cursor.decode(&payload).expect("decode")),
                TailEvent::CaughtUp => return out,
                TailEvent::Pruned => {
                    panic!("gap in the segment sequence at {:?}", cursor.position())
                }
            }
        }
    }

    fn ins(edges: &[(u32, u32)]) -> Vec<Update> {
        edges.iter().map(|&(u, v)| Update::Insert(u, v)).collect()
    }

    fn rec(epoch: u64, ops: Vec<Update>) -> (u64, LogRecord) {
        (epoch, LogRecord::Ops(ops))
    }

    #[test]
    fn append_and_recover_roundtrip() {
        let dir = tmp_dir("roundtrip");
        let cfg = small_cfg(&dir);
        {
            let (mut wal, _) = Wal::open(&cfg).expect("open");
            assert!(logged(&dir).is_empty());
            wal.append_ops(1, &ins(&[(0, 1), (2, 3)])).expect("append");
            wal.append_ops(2, &[]).expect("append empty");
            wal.append_ops(3, &ins(&[(1, 2)])).expect("append");
            wal.flush().expect("flush");
            assert_eq!(wal.stats().records, 3);
            assert_eq!(wal.stats().last_epoch, 3);
        }
        let (wal, rep) = Wal::open(&cfg).expect("reopen");
        assert_eq!(
            logged(&dir),
            vec![rec(1, ins(&[(0, 1), (2, 3)])), rec(2, vec![]), rec(3, ins(&[(1, 2)]))]
        );
        assert_eq!(rep.torn_bytes, 0);
        assert_eq!(wal.stats().last_epoch, 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn deletion_bearing_batches_recover_in_order() {
        let dir = tmp_dir("ops_roundtrip");
        let cfg = small_cfg(&dir);
        let mixed = vec![
            Update::Insert(0, 1),
            Update::Delete(4, 5),
            Update::Query(0, 1), // never durable
            Update::Insert(1, 2),
            Update::Delete(0, 1),
        ];
        {
            let (mut wal, _) = Wal::open(&cfg).expect("open");
            wal.append_ops(1, &ins(&[(4, 5)])).expect("append");
            wal.append_ops(2, &mixed).expect("append mixed");
            wal.append_ops(3, &[Update::Query(1, 2)]).expect("append query-only");
            wal.flush().expect("flush");
        }
        Wal::open(&cfg).expect("reopen");
        let want_mixed = vec![
            Update::Insert(0, 1),
            Update::Delete(4, 5),
            Update::Insert(1, 2),
            Update::Delete(0, 1),
        ];
        assert_eq!(logged(&dir), vec![rec(1, ins(&[(4, 5)])), rec(2, want_mixed), rec(3, vec![])]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn update_batch_codec_roundtrips_and_rejects_bad_tags() {
        let ops = vec![Update::Insert(7, 9), Update::Delete(9, 7), Update::Insert(0, 1)];
        let payload = encode_ops(42, &ops);
        assert_eq!(payload[0], REC_OPS, "a deletion makes it an ops record");
        assert_eq!(decode_record(&payload, 0).expect("decode"), rec(42, ops));
        let mut bad = payload.clone();
        bad[13] = b'Q'; // first op tag
        let err = decode_record(&bad, 0).unwrap_err();
        assert!(err.to_string().contains("unknown op tag"), "{err}");
        // Truncated bodies are length-checked, not silently short-read.
        let err = decode_record(&payload[..payload.len() - 1], 0).unwrap_err();
        assert!(err.to_string().contains("needs"), "{err}");
    }

    #[test]
    fn checkpoint_codec_roundtrips_and_rejects_bad_shapes() {
        let reg = SubWalOp::Register { id: 3, kind: SubKind::Pair, u: 1, v: 2, epoch: 4 };
        let edges = vec![(0, 1), (5, 4)];
        let payload = encode_checkpoint(9, 16, &[reg], &edges);
        assert_eq!(record_header(&payload, 0).expect("header"), (REC_CHECKPOINT, Some(9)));
        let want = LogRecord::Checkpoint { n: 16, subs: vec![reg], edges: edges.clone() };
        assert_eq!(decode_record(&payload, 0).expect("decode"), (9, want));
        // The edge set is frozen at the header's epoch.
        let mut skewed = payload.clone();
        let at = payload.len() - 12 - 8 * edges.len();
        skewed[at] ^= 1;
        let err = decode_record(&skewed, 0).unwrap_err();
        assert!(err.to_string().contains("holds edges at"), "{err}");
        // A registry entry is a registration or nothing.
        let mut with_cancel = encode_checkpoint(9, 16, &[], &edges);
        with_cancel[17] = 1;
        let cancel = encode_sub(&SubWalOp::Cancel { id: 3 });
        with_cancel.splice(21..21, cancel.into_iter().chain([0; 17]));
        assert!(decode_record(&with_cancel, 0).is_err());
        // A registry count past the payload is a typed error, not a panic.
        let mut overrun = payload.clone();
        overrun[17..21].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_record(&overrun, 0).unwrap_err().to_string().contains("overruns"));
    }

    #[test]
    fn sub_records_interleave_recover_and_skip_replication() {
        let dir = tmp_dir("sub_records");
        let cfg = small_cfg(&dir);
        let reg = SubWalOp::Register { id: 7, kind: SubKind::Pair, u: 3, v: 9, epoch: 2 };
        let reg2 = SubWalOp::Register { id: 8, kind: SubKind::Component, u: 5, v: 5, epoch: 2 };
        {
            let (mut wal, _) = Wal::open(&cfg).expect("open");
            wal.append_ops(1, &ins(&[(0, 1)])).expect("append");
            wal.append_ops(2, &ins(&[(2, 3)])).expect("append");
            // Registrations land *between* batch records 2 and 3: `'S'`
            // has no ordering key.
            wal.append_sub(&reg).expect("append sub");
            wal.append_sub(&reg2).expect("append sub");
            wal.append_ops(3, &ins(&[(4, 5)])).expect("append");
            wal.append_sub(&SubWalOp::Cancel { id: 8 }).expect("append cancel");
            wal.flush().expect("flush");
            assert_eq!(wal.stats().records, 6);
            assert_eq!(wal.stats().last_epoch, 3, "sub records never advance the epoch");
        }
        Wal::open(&cfg).expect("reopen");
        // Recovery replays them in log order...
        let sub = |op| (0, LogRecord::Sub(op));
        assert_eq!(
            logged(&dir),
            vec![
                rec(1, ins(&[(0, 1)])),
                rec(2, ins(&[(2, 3)])),
                sub(reg),
                sub(reg2),
                rec(3, ins(&[(4, 5)])),
                sub(SubWalOp::Cancel { id: 8 }),
            ]
        );
        // ...and their header carries no epoch, which is how the
        // replication sender steps over them.
        let mut cur = WalCursor::open(&dir, 0, binary::MAGIC_LEN as u64);
        let mut epochs = Vec::new();
        while let TailEvent::Record(payload) = cur.next().expect("tail") {
            epochs.extend(record_header(&payload, 0).expect("header").1);
        }
        assert_eq!(epochs, vec![1, 2, 3]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sub_record_codec_rejects_bad_shapes() {
        let reg = SubWalOp::Register { id: 1, kind: SubKind::Component, u: 4, v: 4, epoch: 9 };
        let enc = encode_sub(&reg);
        assert_eq!(decode_record(&enc, 0).expect("decode"), (0, LogRecord::Sub(reg)));
        let cancel = SubWalOp::Cancel { id: u64::MAX };
        let enc_c = encode_sub(&cancel);
        assert_eq!(decode_record(&enc_c, 0).expect("decode"), (0, LogRecord::Sub(cancel)));
        let mut bad_kind = enc.clone();
        bad_kind[10] = 9;
        assert!(decode_record(&bad_kind, 0)
            .unwrap_err()
            .to_string()
            .contains("unknown subscription kind"));
        // A truncated register body is length-checked, not short-read.
        assert!(decode_record(&enc[..enc.len() - 1], 0).is_err());
        // And a CRC-valid but malformed sub record passes `Wal::open`'s
        // walk, which decodes no body, then fails a decode with its
        // segment named — even in the final segment.
        let dir = tmp_dir("sub_bad");
        let cfg = small_cfg(&dir);
        {
            let (mut wal, _) = Wal::open(&cfg).expect("open");
            wal.append_ops(1, &ins(&[(0, 1)])).expect("append");
            wal.flush().expect("flush");
        }
        let seg = segment_path(&dir, 0);
        let mut f = OpenOptions::new().append(true).open(&seg).expect("open seg");
        binary::append_record(&mut f, &bad_kind).expect("append record");
        f.sync_data().expect("sync");
        Wal::open(&cfg).expect("bodies are decoded at replay, not at open");
        let mut cursor = WalCursor::open(&dir, 0, binary::MAGIC_LEN as u64);
        let decoded: Vec<_> = (0..2)
            .map(|_| match cursor.next().expect("tail") {
                TailEvent::Record(payload) => cursor.decode(&payload).map(|_| ()),
                other => panic!("expected a record, got {other:?}"),
            })
            .collect();
        assert!(decoded[0].is_ok());
        let msg = decoded[1].as_ref().unwrap_err().to_string();
        assert!(msg.contains("unknown subscription kind"), "{msg}");
        assert!(msg.contains("wal-00000000.log"), "{msg}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unknown_record_kind_is_corruption_not_a_skippable_tail() {
        let dir = tmp_dir("unknown_kind");
        let cfg = small_cfg(&dir);
        {
            let (mut wal, _) = Wal::open(&cfg).expect("open");
            wal.append_ops(1, &ins(&[(0, 1)])).expect("append");
            wal.flush().expect("flush");
        }
        // Hand-append a CRC-valid record whose kind byte is unknown: a
        // future format, or bit rot that kept the checksum honest. Either
        // way recovery must refuse, not drop it as a torn tail.
        let seg = segment_path(&dir, 0);
        let mut f = OpenOptions::new().append(true).open(&seg).expect("open seg");
        let mut payload = vec![b'X'];
        payload.extend_from_slice(&binary::encode_edge_batch(2, &[(2, 3)]));
        binary::append_record(&mut f, &payload).expect("append record");
        f.sync_data().expect("sync");
        let msg = match Wal::open(&cfg) {
            Err(e) => e.to_string(),
            Ok(_) => panic!("must not open"),
        };
        assert!(msg.contains("unknown wal record kind"), "{msg}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_in_final_segment_is_dropped() {
        let dir = tmp_dir("torn");
        let cfg = small_cfg(&dir);
        {
            let (mut wal, _) = Wal::open(&cfg).expect("open");
            wal.append_ops(1, &ins(&[(0, 1)])).expect("append");
            wal.append_ops(2, &ins(&[(2, 3)])).expect("append");
            wal.flush().expect("flush");
        }
        // Chop 5 bytes off the only segment: record 2 becomes a torn tail.
        let seg = segment_path(&dir, 0);
        let bytes = std::fs::read(&seg).expect("read");
        std::fs::write(&seg, &bytes[..bytes.len() - 5]).expect("truncate");
        let (wal, rep) = Wal::open(&cfg).expect("reopen");
        assert_eq!(logged(&dir), vec![rec(1, ins(&[(0, 1)]))]);
        // Record 2 is 8 (frame) + 21 (kind + epoch + count + 1 edge)
        // bytes; 5 were chopped, so 24 torn bytes remain and are dropped.
        assert_eq!(rep.torn_bytes, 24);
        assert!(rep.torn_detail.as_deref().expect("detail").contains("offset"));
        assert!(wal.stats().torn_bytes > 0);
        // The drop was physical: the torn segment is no longer final
        // after this open created a fresh one, yet every later restart
        // must keep scanning it clean.
        drop(wal);
        for round in 0..2 {
            let (_, rep) = Wal::open(&cfg).expect("torn tail must not brick later restarts");
            assert_eq!(logged(&dir), vec![rec(1, ins(&[(0, 1)]))], "round {round}");
            assert_eq!(rep.torn_bytes, 0, "round {round}: tail was truncated away");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_magic_segment_is_removed_not_resurfaced() {
        let dir = tmp_dir("torn_magic");
        let cfg = small_cfg(&dir);
        {
            let (mut wal, _) = Wal::open(&cfg).expect("open");
            wal.append_ops(1, &ins(&[(0, 1)])).expect("append");
        }
        // A second segment torn inside its magic (creation crashed).
        std::fs::write(segment_path(&dir, 1), b"CCW").expect("write");
        let (wal, rep) = Wal::open(&cfg).expect("open tolerates torn magic");
        assert!(rep.torn_bytes > 0);
        // The fresh segment replaced the torn file under its sequence
        // number: no gap for a cursor to read as a pruned segment.
        assert_eq!(wal.seg_seq, 1);
        assert_eq!(
            std::fs::metadata(segment_path(&dir, 1)).expect("seg 1").len(),
            binary::MAGIC_LEN as u64
        );
        assert!(!segment_path(&dir, 2).exists());
        drop(wal);
        assert_eq!(logged(&dir), vec![rec(1, ins(&[(0, 1)]))]);
        let (_, rep) = Wal::open(&cfg).expect("and later restarts stay clean");
        assert_eq!(rep.torn_bytes, 0);
        assert_eq!(logged(&dir), vec![rec(1, ins(&[(0, 1)]))]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// An open that appends nothing leaves a segment holding no record;
    /// the next open deletes it and starts its own under that number.
    #[test]
    fn opens_that_append_nothing_leave_one_segment() {
        let dir = tmp_dir("idle_opens");
        let cfg = small_cfg(&dir);
        for _ in 0..5 {
            let (wal, rep) = Wal::open(&cfg).expect("open");
            assert_eq!((wal.seg_seq, rep.torn_bytes), (0, 0), "a bare magic is not torn");
        }
        let names: Vec<_> =
            std::fs::read_dir(&dir).expect("dir").flatten().map(|e| e.file_name()).collect();
        assert_eq!(names, ["wal-00000000.log"]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corruption_in_sealed_segment_is_fatal_with_context() {
        let dir = tmp_dir("sealed");
        let mut cfg = small_cfg(&dir);
        cfg.segment_max_bytes = 1; // roll after every record
        {
            let (mut wal, _) = Wal::open(&cfg).expect("open");
            wal.append_ops(1, &ins(&[(0, 1)])).expect("append");
            wal.append_ops(2, &ins(&[(2, 3)])).expect("append");
        }
        // Flip a payload byte in the FIRST (sealed, non-final) segment.
        let seg = segment_path(&dir, 0);
        let mut bytes = std::fs::read(&seg).expect("read");
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        std::fs::write(&seg, &bytes).expect("write");
        let msg = match Wal::open(&cfg) {
            Err(e) => e.to_string(),
            Ok(_) => panic!("sealed-segment corruption must be fatal"),
        };
        assert!(msg.contains("wal-00000000.log"), "{msg}");
        assert!(msg.contains("offset"), "{msg}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn segments_roll_and_prune() {
        let dir = tmp_dir("roll");
        let mut cfg = small_cfg(&dir);
        cfg.segment_max_bytes = 64; // a couple of records per segment
        let (mut wal, _) = Wal::open(&cfg).expect("open");
        let edges: Vec<(u32, u32)> = (1..=10).map(|e| (e, e + 1)).collect();
        for (e, &edge) in (1u64..).zip(&edges) {
            wal.append_ops(e, &ins(&[edge])).expect("append");
        }
        assert!(wal.stats().segments > 2, "expected several segments");
        // A checkpoint at epoch 10 opens a fresh segment and retires every
        // older one.
        wal.checkpoint(10, 12, &[], &edges).expect("checkpoint");
        assert_eq!(wal.stats().segments, 2, "the checkpoint's segment and the active one");
        wal.append_ops(11, &ins(&[(0, 1)])).expect("append past the checkpoint");
        drop(wal);
        Wal::open(&cfg).expect("reopen");
        let checkpoint = LogRecord::Checkpoint { n: 12, subs: vec![], edges };
        assert_eq!(logged(&dir), vec![(10, checkpoint), rec(11, ins(&[(0, 1)]))]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The checkpoint's four steps run in order: a `'C'` append that fails
    /// after the roll prunes nothing, so the history survives whole.
    #[test]
    fn a_failed_checkpoint_prunes_nothing() {
        let dir = tmp_dir("ckpt_fail");
        let mut cfg = small_cfg(&dir);
        cfg.segment_max_bytes = 1;
        let (mut wal, _) = Wal::open(&cfg).expect("open");
        for e in 1..=3u64 {
            wal.append_ops(e, &ins(&[(0, e as u32)])).expect("append");
        }
        let before = logged(&dir);
        // An append failure that could not be rolled back poisons the log.
        wal.poisoned = true;
        assert!(wal.checkpoint(3, 4, &[], &[(0, 1), (0, 2), (0, 3)]).is_err());
        assert!(segment_path(&dir, 0).exists(), "segment 0 must survive");
        assert_eq!(logged(&dir), before);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovery_spans_multiple_segments_in_order() {
        let dir = tmp_dir("multi");
        let mut cfg = small_cfg(&dir);
        cfg.segment_max_bytes = 48;
        {
            let (mut wal, _) = Wal::open(&cfg).expect("open");
            for e in 1..=7u64 {
                wal.append_ops(e, &ins(&[(0, e as u32)])).expect("append");
            }
        }
        let (_, rep) = Wal::open(&cfg).expect("reopen");
        let epochs: Vec<u64> = logged(&dir).iter().map(|(e, _)| *e).collect();
        assert_eq!(epochs, vec![1, 2, 3, 4, 5, 6, 7]);
        assert!(rep.segments_scanned > 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fsync_policies_parse_and_sync_counts_move() {
        assert_eq!("always".parse::<FsyncPolicy>().unwrap(), FsyncPolicy::Always);
        assert_eq!("batch".parse::<FsyncPolicy>().unwrap(), FsyncPolicy::Batch);
        assert_eq!("off".parse::<FsyncPolicy>().unwrap(), FsyncPolicy::Off);
        assert!("sometimes".parse::<FsyncPolicy>().is_err());

        let dir = tmp_dir("fsync");
        let cfg = DurabilityConfig { fsync: FsyncPolicy::Always, ..DurabilityConfig::new(&dir) };
        let (mut wal, _) = Wal::open(&cfg).expect("open");
        wal.append_ops(1, &ins(&[(0, 1)])).expect("append");
        wal.append_ops(2, &ins(&[(1, 2)])).expect("append");
        assert_eq!(wal.stats().syncs, 2);

        let dir2 = tmp_dir("fsync_off");
        let (mut wal, _) = Wal::open(&small_cfg(&dir2)).expect("open");
        wal.append_ops(1, &ins(&[(0, 1)])).expect("append");
        assert_eq!(wal.stats().syncs, 0);
        wal.flush().expect("explicit flush still syncs");
        assert_eq!(wal.stats().syncs, 1);
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&dir2);
    }

    #[test]
    fn idle_sync_bounds_the_batch_window() {
        let dir = tmp_dir("idle");
        let cfg = DurabilityConfig {
            fsync: FsyncPolicy::Batch,
            group_sync_interval: Duration::from_millis(1),
            ..DurabilityConfig::new(&dir)
        };
        let (mut wal, _) = Wal::open(&cfg).expect("open");
        // First append starts with a fresh window: no sync yet, bytes
        // dirty in the OS cache.
        wal.append_ops(1, &ins(&[(0, 1)])).expect("append");
        let syncs_after_append = wal.stats().syncs;
        std::thread::sleep(Duration::from_millis(3));
        // The idle tick syncs once the window lapses with no new append
        // to piggyback on...
        wal.sync_if_due().expect("idle sync");
        assert_eq!(wal.stats().syncs, syncs_after_append + 1);
        // ...and is a no-op while clean.
        wal.sync_if_due().expect("idle sync");
        assert_eq!(wal.stats().syncs, syncs_after_append + 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cursor_tails_live_appends_across_rolls() {
        let dir = tmp_dir("cursor_tail");
        let mut cfg = small_cfg(&dir);
        cfg.segment_max_bytes = 64; // a couple of records per segment
        let (mut wal, _) = Wal::open(&cfg).expect("open");
        let mut cursor = WalCursor::open(&dir, 0, binary::MAGIC_LEN as u64);
        assert_eq!(cursor.next().expect("tail"), TailEvent::CaughtUp, "empty log");
        let mut seen = Vec::new();
        for e in 1..=9u64 {
            wal.append_ops(e, &ins(&[(e as u32, e as u32 + 1)])).expect("append");
            // The cursor sees every record as soon as it is appended,
            // rolling through segment boundaries without torn tails.
            loop {
                match cursor.next().expect("tail") {
                    TailEvent::Record(payload) => seen.push(cursor.decode(&payload).expect("ok")),
                    TailEvent::CaughtUp => break,
                    TailEvent::Pruned => panic!("nothing pruned yet"),
                }
            }
        }
        let epochs: Vec<u64> = seen.iter().map(|(e, _)| *e).collect();
        assert_eq!(epochs, (1..=9).collect::<Vec<_>>());
        assert!(wal.stats().segments > 2, "test needs several segments");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cursor_at_sealed_segment_end_rolls_instead_of_torn_tail() {
        let dir = tmp_dir("cursor_boundary");
        let mut cfg = small_cfg(&dir);
        cfg.segment_max_bytes = 1; // roll after every record
        let (mut wal, _) = Wal::open(&cfg).expect("open");
        wal.append_ops(1, &ins(&[(0, 1)])).expect("append");
        wal.append_ops(2, &ins(&[(2, 3)])).expect("append");
        // Position the cursor EXACTLY at sealed segment 0's end: the
        // off-by-one trap. It must roll to segment 1 and yield epoch 2,
        // never report a torn tail or stall.
        let seg0_len = std::fs::metadata(segment_path(&dir, 0)).expect("meta").len();
        let mut cursor = WalCursor::open(&dir, 0, seg0_len);
        assert_eq!(cursor.next().expect("roll"), TailEvent::Record(encode_ops(2, &ins(&[(2, 3)]))));
        assert_eq!(cursor.next().expect("tail"), TailEvent::CaughtUp);
        // A cursor positioned at the LIVE segment's exact end is just
        // caught up, and picks up the next append from there.
        let (live_seq, _) = cursor.position();
        wal.append_ops(3, &ins(&[(4, 5)])).expect("append");
        let mut events = Vec::new();
        loop {
            match cursor.next().expect("tail") {
                TailEvent::Record(payload) => events.push(cursor.decode(&payload).expect("ok").0),
                TailEvent::CaughtUp => break,
                TailEvent::Pruned => panic!("nothing pruned"),
            }
        }
        assert_eq!(events, vec![3]);
        assert!(cursor.position().0 >= live_seq);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cursor_reports_pruned_and_resumes_from_oldest() {
        let dir = tmp_dir("cursor_prune");
        let mut cfg = small_cfg(&dir);
        cfg.segment_max_bytes = 1;
        let (mut wal, _) = Wal::open(&cfg).expect("open");
        for e in 1..=4u64 {
            wal.append_ops(e, &ins(&[(0, e as u32)])).expect("append");
        }
        let mut cursor = WalCursor::open(&dir, 0, binary::MAGIC_LEN as u64);
        assert!(matches!(cursor.next().expect("tail"), TailEvent::Record(_)));
        // A checkpoint retires every sealed segment under the cursor.
        wal.checkpoint(4, 5, &[], &[(0, 1), (0, 2), (0, 3), (0, 4)]).expect("checkpoint");
        assert_eq!(cursor.next().expect("tail"), TailEvent::Pruned);
        // The documented recovery: resume from the oldest surviving
        // segment, which opens with that checkpoint.
        cursor.oldest().expect("oldest");
        match cursor.next().expect("tail") {
            TailEvent::Record(payload) => {
                assert_eq!(record_header(&payload, 0).expect("header"), (REC_CHECKPOINT, Some(4)))
            }
            other => panic!("oldest() must land on the checkpoint, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A gap in the sequence — what a checkpoint leaves when it cannot
    /// delete an older segment — is rolled past, not reported as
    /// `Pruned`: a live reader resuming from the oldest segment would
    /// otherwise return to the same gap forever.
    #[test]
    fn cursor_rolls_past_a_gap_to_the_next_segment_on_disk() {
        let dir = tmp_dir("cursor_gap");
        let mut cfg = small_cfg(&dir);
        cfg.segment_max_bytes = 1; // one record per segment
        let (mut wal, _) = Wal::open(&cfg).expect("open");
        for e in 1..=3u64 {
            wal.append_ops(e, &ins(&[(0, e as u32)])).expect("append");
        }
        std::fs::remove_file(segment_path(&dir, 1)).expect("open a gap");
        let epochs: Vec<u64> = logged(&dir).iter().map(|(e, _)| *e).collect();
        assert_eq!(epochs, vec![1, 3]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Past segment 0 the history must open with a checkpoint: an
    /// operator deleting the checkpoint's segment leaves a suffix the
    /// cursor refuses to serve as if it were the whole history.
    #[test]
    fn cursor_refuses_a_history_with_a_hole() {
        let dir = tmp_dir("cursor_hole");
        let mut cfg = small_cfg(&dir);
        cfg.segment_max_bytes = 1;
        let (mut wal, _) = Wal::open(&cfg).expect("open");
        wal.append_ops(1, &ins(&[(0, 1)])).expect("append");
        wal.append_ops(2, &ins(&[(1, 2)])).expect("append");
        std::fs::remove_file(segment_path(&dir, 0)).expect("open a hole");
        let mut cursor = WalCursor::open(&dir, 0, binary::MAGIC_LEN as u64);
        cursor.oldest().expect("oldest");
        let err = cursor.next().unwrap_err();
        assert!(matches!(err, WalError::Corrupt { .. }), "{err}");
        assert!(err.to_string().contains("hole"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A segment torn inside its magic is an interrupted creation only
    /// while it is the final one: once a newer segment exists the cursor
    /// fails with a typed error naming it, for recovery and every
    /// reader alike, instead of rolling past the records it may have held.
    #[test]
    fn sealed_segment_torn_inside_its_magic_is_fatal_to_every_reader() {
        let dir = tmp_dir("sealed_torn_magic");
        let mut cfg = small_cfg(&dir);
        cfg.segment_max_bytes = 1; // one record per segment
        {
            let (mut wal, _) = Wal::open(&cfg).expect("open");
            for e in 1..=3u64 {
                wal.append_ops(e, &ins(&[(0, e as u32)])).expect("append");
            }
        }
        let seg = segment_path(&dir, 1);
        std::fs::write(&seg, b"CCW").expect("tear segment 1 inside its magic");
        let mut cursor = WalCursor::open(&dir, 0, binary::MAGIC_LEN as u64);
        assert!(matches!(cursor.next().expect("segment 0"), TailEvent::Record(_)));
        let is_torn_magic = |e: &WalError| {
            matches!(e, WalError::Codec { path, source: CodecError::BadMagic { found, .. } }
                if *path == seg && found.as_slice() == b"CCW")
        };
        let err = cursor.next().unwrap_err();
        assert!(is_torn_magic(&err), "{err}");
        let err = Wal::open(&cfg).map(|_| ()).unwrap_err();
        assert!(is_torn_magic(&err), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cursor_truncated_live_tail_is_caught_up_not_error() {
        let dir = tmp_dir("cursor_torn");
        let cfg = small_cfg(&dir);
        let (mut wal, _) = Wal::open(&cfg).expect("open");
        wal.append_ops(1, &ins(&[(0, 1)])).expect("append");
        drop(wal); // stop the writer; we fake a torn in-flight record
        let seg = segment_path(&dir, 0); // the (only) live segment
        let mut bytes = std::fs::read(&seg).expect("read");
        bytes.extend_from_slice(&[7, 0, 0, 0]); // half a record header
        std::fs::write(&seg, &bytes).expect("write");
        let mut cursor = WalCursor::open(&dir, 0, binary::MAGIC_LEN as u64);
        assert!(matches!(cursor.next().expect("record 1"), TailEvent::Record(_)));
        assert_eq!(
            cursor.next().expect("a torn live tail is just not-yet-flushed"),
            TailEvent::CaughtUp
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Writes a segment in the format of the release before the kind
    /// byte (`CCWALS01`): bare edge batches behind the old magic.
    fn write_v1_segment(dir: &Path, seq: u64, batches: &[(u64, Vec<(u32, u32)>)]) {
        let mut f = BufWriter::new(File::create(segment_path(dir, seq)).expect("create"));
        binary::write_magic(&mut f, b"CCWALS01").expect("magic");
        for (epoch, edges) in batches {
            binary::append_record(&mut f, &binary::encode_edge_batch(*epoch, edges))
                .expect("record");
        }
        f.flush().expect("flush");
    }

    fn is_bad_magic(e: &WalError, seg: &Path) -> bool {
        matches!(e, WalError::Codec { path, source: CodecError::BadMagic { found, .. } }
            if path == seg && found.as_slice() == b"CCWALS01")
    }

    /// `CCWALS01` segments are no longer read or upgraded: opening the
    /// log over one is a typed bad-magic error naming the segment, and
    /// the refusal leaves the directory exactly as it was.
    #[test]
    fn legacy_v1_segments_are_refused_and_left_untouched() {
        let dir = tmp_dir("v1_upgrade");
        write_v1_segment(&dir, 0, &[(1, vec![(0, 1)]), (2, vec![(2, 3)])]);
        let seg = segment_path(&dir, 0);
        let before = std::fs::read(&seg).expect("read");
        let err = Wal::open(&small_cfg(&dir)).map(|_| ()).unwrap_err();
        assert!(is_bad_magic(&err, &seg), "{err}");
        assert_eq!(std::fs::read(&seg).expect("reread"), before, "the v1 segment is untouched");
        assert!(!segment_path(&dir, 1).exists(), "no current-format segment is started");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A cursor over a v1 segment followed by a current one stops at the
    /// v1 segment with a typed bad-magic error; it never skips ahead to
    /// the records behind it.
    #[test]
    fn cursor_refuses_a_v1_segment_before_a_v2_one() {
        let dir = tmp_dir("v1_cursor");
        write_v1_segment(&dir, 0, &[(1, vec![(0, 1)])]);
        let v2_dir = tmp_dir("v1_cursor_v2");
        {
            let (mut wal, _) = Wal::open(&small_cfg(&v2_dir)).expect("open");
            wal.append_ops(2, &[Update::Insert(1, 2), Update::Delete(0, 1)]).expect("append");
            wal.flush().expect("flush");
        }
        std::fs::copy(segment_path(&v2_dir, 0), segment_path(&dir, 1)).expect("copy v2 segment");
        let err = WalCursor::open(&dir, 0, binary::MAGIC_LEN as u64).next().unwrap_err();
        assert!(is_bad_magic(&err, &segment_path(&dir, 0)), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&v2_dir);
    }

    #[test]
    fn stats_line_is_parseable() {
        let dir = tmp_dir("stats");
        let (wal, _) = Wal::open(&small_cfg(&dir)).expect("open");
        let line = wal.stats().to_string();
        for key in ["policy=", "segments=", "records=", "syncs=", "last_epoch=", "torn_bytes="] {
            assert!(line.contains(key), "{line}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
