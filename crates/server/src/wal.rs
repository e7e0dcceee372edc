//! The write-ahead log: segmented, checksummed, group-committed batch
//! durability for the connectivity service.
//!
//! ## Format
//!
//! A WAL directory holds numbered segments `wal-<seq>.log`. Each segment
//! starts with a version magic — `CCWALS02` for segments this release
//! writes — and is a sequence of [`cc_graph::io::binary`] records. In a
//! v2 segment a record payload's first byte is its **kind**:
//!
//! - [`REC_INSERTS`] (`'I'`) — an insert-only batch; the body is
//!   [`cc_graph::io::binary::encode_edge_batch`] `(epoch, inserts)`.
//! - [`REC_OPS`] (`'D'`) — a deletion-bearing batch; the body is
//!   [`encode_update_batch`] `(epoch, ops)`, preserving the in-batch
//!   order of inserts and deletes (queries are never durable).
//! - [`REC_SUB`] (`'S'`) — a durable subscription registration or
//!   cancellation ([`encode_sub_record`]): id, kind, pair, and the
//!   committed epoch at registration. Sub records are interleaved with
//!   batch records in append order but carry their *own* epoch stamp
//!   (a registration races batch appends in either direction), so they
//!   are exempt from the batch records' strict epoch monotonicity and
//!   are surfaced separately by recovery
//!   ([`RecoveryReport::sub_ops`]). [`WalCursor`] skips them: followers
//!   learn subscriptions from their own clients, never from the
//!   primary's WAL.
//!
//! Segments written before the kind byte existed carry the magic
//! `CCWALS01` and hold raw edge-batch bodies (insert-only histories by
//! construction). Readers decode each segment by the magic it opens
//! with, so a directory mixing v1 segments and newly appended v2
//! segments recovers — and replicates — seamlessly; writers only ever
//! start v2 segments.
//!
//! An unknown kind byte on a CRC-valid v2 record is *corruption*, never
//! a skippable tail: silently dropping a record whose retractions we do
//! not understand would recover a wrong partition. Epochs are strictly
//! increasing across records; a batch with no durable ops still gets a
//! (13-byte) record so the recovered epoch matches the served epoch
//! exactly.
//!
//! ## Commit protocol
//!
//! The batch former appends one record per *formed* batch — the group
//! commit: every client submission coalesced into that batch shares the
//! one append (and at most one fsync). The append happens **before** the
//! batch is applied to the engine and long before any client reply, so an
//! acknowledged operation is always recoverable. How hard "recoverable"
//! is depends on [`FsyncPolicy`]:
//!
//! - [`FsyncPolicy::Always`] — `fdatasync` after every record: survives
//!   machine crashes.
//! - [`FsyncPolicy::Batch`] — flushed to the OS after every record,
//!   `fdatasync` at most every [`DurabilityConfig::group_sync_interval`]:
//!   survives process kills outright; a machine crash can lose at most
//!   the last interval of acknowledged batches.
//! - [`FsyncPolicy::Off`] — flushed to the OS only: survives process
//!   kills; machine-crash durability is whenever the kernel writes back.
//!
//! ## Recovery
//!
//! [`Wal::open`] scans existing segments in sequence order and checks
//! every record — framing, body, strictly increasing batch epochs — but
//! keeps only the durable subscription records
//! ([`RecoveryReport::sub_ops`]); the batches stay on disk. A decode
//! failure in the *final* segment is a torn tail — the crash interrupted
//! an append — so the tail is dropped (reported in [`RecoveryReport`])
//! **and physically truncated away**, so the segment scans clean on every
//! later restart even once it is no longer final. A decode failure in any
//! earlier segment therefore cannot be explained by a crash mid-append and
//! is surfaced as a typed [`WalError`] with segment and offset context.
//! Appends always go to a fresh segment, never after a torn tail; a final
//! segment torn inside its magic is deleted and the fresh segment reuses
//! its sequence number, so the log's sequence numbers stay contiguous. The
//! service then replays the checked log through a [`WalCursor`] over its
//! own directory — the reader a follower's sender tails it with — one
//! record at a time.

use crate::obs::{Event, Obs};
use crate::subs::{SubKind, SubWalOp};
use cc_graph::io::binary::{self, CodecError};
use connectit::Update;
use std::fs::{File, OpenOptions};
use std::io::{BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Magic prefix of every WAL segment this release writes (v2: every
/// record payload leads with a kind byte).
pub const WAL_MAGIC: &[u8; 8] = b"CCWALS02";

/// Magic prefix of legacy v1 segments (raw insert-only edge-batch
/// records, no kind byte). Read-only: recognized by the recovery scan
/// and the tail cursor, never written.
pub const WAL_MAGIC_V1: &[u8; 8] = b"CCWALS01";

/// Record kind byte: insert-only batch (edge-batch body).
pub const REC_INSERTS: u8 = b'I';
/// Record kind byte: deletion-bearing batch (update-batch body).
pub const REC_OPS: u8 = b'D';
/// Record kind byte: durable subscription register/cancel
/// ([`encode_sub_record`] body).
pub const REC_SUB: u8 = b'S';

/// Sub-record op byte: register.
const SUB_OP_REGISTER: u8 = 0;
/// Sub-record op byte: cancel.
const SUB_OP_CANCEL: u8 = 1;

/// Op tag inside an [`encode_update_batch`] body: insert.
const OP_INSERT: u8 = b'I';
/// Op tag inside an [`encode_update_batch`] body: delete.
const OP_DELETE: u8 = b'D';

/// Encodes a mixed insert/delete batch body: `epoch (u64 LE)`,
/// `m (u32 LE)`, then `m` ops as `tag (u8: 'I'|'D'), u (u32 LE),
/// v (u32 LE)` in batch order. Queries are skipped — they are not
/// durable. This is the body of [`REC_OPS`] WAL records and of the
/// replication stream's delta records.
pub fn encode_update_batch(epoch: u64, ops: &[Update]) -> Vec<u8> {
    let m = ops.iter().filter(|op| !matches!(op, Update::Query(..))).count();
    let mut out = Vec::with_capacity(12 + 9 * m);
    out.extend_from_slice(&epoch.to_le_bytes());
    out.extend_from_slice(&(m as u32).to_le_bytes());
    for op in ops {
        let (tag, u, v) = match *op {
            Update::Insert(u, v) => (OP_INSERT, u, v),
            Update::Delete(u, v) => (OP_DELETE, u, v),
            Update::Query(..) => continue,
        };
        out.push(tag);
        out.extend_from_slice(&u.to_le_bytes());
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// Decodes an [`encode_update_batch`] body; `offset` is the enclosing
/// record's byte offset, used only for error context.
pub fn decode_update_batch(payload: &[u8], offset: u64) -> Result<(u64, Vec<Update>), CodecError> {
    let bad = |reason: String| CodecError::BadPayload { offset, reason };
    if payload.len() < 12 {
        return Err(bad(format!("update batch header needs 12 bytes, have {}", payload.len())));
    }
    let epoch = u64::from_le_bytes(payload[0..8].try_into().expect("8 bytes"));
    let m = u32::from_le_bytes(payload[8..12].try_into().expect("4 bytes")) as usize;
    if payload.len() != 12 + 9 * m {
        return Err(bad(format!(
            "update batch of {m} ops needs {} bytes, have {}",
            12 + 9 * m,
            payload.len()
        )));
    }
    let mut ops = Vec::with_capacity(m);
    for i in 0..m {
        let at = 12 + 9 * i;
        let u = u32::from_le_bytes(payload[at + 1..at + 5].try_into().expect("4 bytes"));
        let v = u32::from_le_bytes(payload[at + 5..at + 9].try_into().expect("4 bytes"));
        ops.push(match payload[at] {
            OP_INSERT => Update::Insert(u, v),
            OP_DELETE => Update::Delete(u, v),
            other => return Err(bad(format!("unknown op tag {other:?} at op {i}"))),
        });
    }
    Ok((epoch, ops))
}

/// Encodes a durable subscription operation as a full [`REC_SUB`] WAL
/// record payload (kind byte included): `'S', op (u8)`, `id (u64 LE)`,
/// and for a registration additionally `kind (u8: 0 pair, 1 component)`,
/// `u (u32 LE)`, `v (u32 LE)`, `epoch (u64 LE)` — the committed epoch at
/// registration time, which is where replay resumes the trigger from.
pub fn encode_sub_record(op: &SubWalOp) -> Vec<u8> {
    match *op {
        SubWalOp::Register { id, kind, u, v, epoch } => {
            let mut out = Vec::with_capacity(27);
            out.push(REC_SUB);
            out.push(SUB_OP_REGISTER);
            out.extend_from_slice(&id.to_le_bytes());
            out.push(kind.code());
            out.extend_from_slice(&u.to_le_bytes());
            out.extend_from_slice(&v.to_le_bytes());
            out.extend_from_slice(&epoch.to_le_bytes());
            out
        }
        SubWalOp::Cancel { id } => {
            let mut out = Vec::with_capacity(10);
            out.push(REC_SUB);
            out.push(SUB_OP_CANCEL);
            out.extend_from_slice(&id.to_le_bytes());
            out
        }
    }
}

/// Decodes an [`encode_sub_record`] payload (kind byte included);
/// `offset` is the enclosing record's byte offset, for error context.
pub fn decode_sub_record(payload: &[u8], offset: u64) -> Result<SubWalOp, CodecError> {
    let bad = |reason: String| CodecError::BadPayload { offset, reason };
    if payload.first() != Some(&REC_SUB) || payload.len() < 10 {
        return Err(bad(format!(
            "sub record needs >= 10 bytes with kind 'S', have {}",
            payload.len()
        )));
    }
    let id = u64::from_le_bytes(payload[2..10].try_into().expect("8 bytes"));
    match payload[1] {
        SUB_OP_CANCEL if payload.len() == 10 => Ok(SubWalOp::Cancel { id }),
        SUB_OP_REGISTER if payload.len() == 27 => {
            let kind = SubKind::from_code(payload[10])
                .ok_or_else(|| bad(format!("unknown subscription kind {:?}", payload[10])))?;
            let u = u32::from_le_bytes(payload[11..15].try_into().expect("4 bytes"));
            let v = u32::from_le_bytes(payload[15..19].try_into().expect("4 bytes"));
            let epoch = u64::from_le_bytes(payload[19..27].try_into().expect("8 bytes"));
            Ok(SubWalOp::Register { id, kind, u, v, epoch })
        }
        op => Err(bad(format!("bad sub record: op {op:?} with {} bytes", payload.len()))),
    }
}

/// Builds one WAL record payload for a durable batch: compact
/// [`REC_INSERTS`] when no deletion is present, [`REC_OPS`] otherwise.
fn encode_wal_payload(epoch: u64, ops: &[Update]) -> Vec<u8> {
    if ops.iter().any(|op| matches!(op, Update::Delete(..))) {
        let mut out = Vec::with_capacity(1 + 12 + 9 * ops.len());
        out.push(REC_OPS);
        out.extend_from_slice(&encode_update_batch(epoch, ops));
        out
    } else {
        let edges: Vec<(u32, u32)> = ops
            .iter()
            .filter_map(|op| match *op {
                Update::Insert(u, v) => Some((u, v)),
                _ => None,
            })
            .collect();
        let mut out = Vec::with_capacity(1 + 12 + 8 * edges.len());
        out.push(REC_INSERTS);
        out.extend_from_slice(&binary::encode_edge_batch(epoch, &edges));
        out
    }
}

/// Decodes one WAL record payload (either kind) into `(epoch, ops)`.
pub fn decode_wal_payload(payload: &[u8], offset: u64) -> Result<(u64, Vec<Update>), CodecError> {
    match payload.first() {
        Some(&REC_INSERTS) => {
            let (epoch, edges) = binary::decode_edge_batch(&payload[1..], offset)?;
            Ok((epoch, edges.into_iter().map(|(u, v)| Update::Insert(u, v)).collect()))
        }
        Some(&REC_OPS) => decode_update_batch(&payload[1..], offset),
        other => Err(CodecError::BadPayload {
            offset,
            reason: format!("unknown wal record kind {other:?}"),
        }),
    }
}

/// Reads a segment's leading magic and returns its format version (1 for
/// legacy [`WAL_MAGIC_V1`], 2 for [`WAL_MAGIC`]). Any other complete
/// magic — and any truncation — surfaces as the underlying
/// [`CodecError`], so callers keep their torn-tail handling.
fn read_segment_version(r: &mut impl std::io::Read) -> Result<u8, CodecError> {
    match binary::read_magic(r, WAL_MAGIC) {
        Ok(()) => Ok(2),
        Err(CodecError::BadMagic { found, .. }) if found.as_slice() == WAL_MAGIC_V1 => Ok(1),
        Err(e) => Err(e),
    }
}

/// Decodes one record payload according to its segment's format version:
/// v1 payloads are raw insert-only edge-batch bodies, v2 payloads lead
/// with a kind byte ([`decode_wal_payload`]).
fn decode_segment_payload(
    version: u8,
    payload: &[u8],
    offset: u64,
) -> Result<(u64, Vec<Update>), CodecError> {
    if version == 1 {
        let (epoch, edges) = binary::decode_edge_batch(payload, offset)?;
        Ok((epoch, edges.into_iter().map(|(u, v)| Update::Insert(u, v)).collect()))
    } else {
        decode_wal_payload(payload, offset)
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

/// Configuration of the durability subsystem (WAL + durable snapshots).
#[derive(Clone, Debug)]
pub struct DurabilityConfig {
    /// Directory holding WAL segments and snapshots; created on start.
    pub dir: PathBuf,
    /// Fsync discipline for the log.
    pub fsync: FsyncPolicy,
    /// Write a durable edge-set snapshot every this many epochs (0 = only on
    /// explicit `SNAPSHOT` requests). Snapshots bound recovery replay to
    /// the WAL suffix past the snapshot epoch and let older segments be
    /// pruned.
    pub snapshot_every: u64,
    /// Roll to a new segment once the active one exceeds this many bytes.
    pub segment_max_bytes: u64,
    /// Maximum time acknowledged batches ride the OS cache before a sync
    /// under [`FsyncPolicy::Batch`].
    pub group_sync_interval: Duration,
}

impl DurabilityConfig {
    /// A config with production-shaped defaults: `batch` fsync, 64 MiB
    /// segments, a 5 ms group-sync window, periodic snapshots off.
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
    /// A codec failure inside a segment or snapshot, with byte offset
    /// context from [`CodecError`].
    Codec {
        /// The file that failed to decode.
        path: PathBuf,
        /// The typed decode failure (carries the offset).
        source: CodecError,
    },
    /// A structurally impossible WAL state (e.g. corruption in a sealed,
    /// non-final segment).
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

/// A finished (no longer written) segment the log still tracks so a later
/// snapshot can prune it.
#[derive(Clone, Debug)]
pub struct SealedSegment {
    /// Segment sequence number.
    pub seq: u64,
    /// Segment file path.
    pub path: PathBuf,
    /// The highest record epoch in the segment (0 if it has no records).
    pub last_epoch: u64,
}

/// What a [`Wal::open`] recovery scan found.
#[derive(Debug, Default)]
pub struct RecoveryReport {
    /// Durable subscription register/cancel records, in log order
    /// (replayed wholesale after the batches — each registration carries
    /// its own epoch, and the engine re-evaluates recovered triggers
    /// against the final recovered labeling, so interleaving with the
    /// batch records cannot matter).
    pub sub_ops: Vec<SubWalOp>,
    /// Segments scanned.
    pub segments_scanned: usize,
    /// Bytes dropped from a torn final-segment tail (0 for a clean log).
    pub torn_bytes: u64,
    /// Human description of the torn tail, when one was dropped.
    pub torn_detail: Option<String>,
    /// Where the torn tail started (segment path, byte offset); the
    /// opener physically truncates it away so the segment, once no
    /// longer final, scans clean on every later restart.
    torn_at: Option<(PathBuf, u64)>,
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
        write!(
            f,
            "policy={} segments={} records={} bytes={} syncs={} last_epoch={} torn_bytes={}",
            self.policy,
            self.segments,
            self.records,
            self.appended_bytes,
            self.syncs,
            self.last_epoch,
            self.torn_bytes,
        )
    }
}

pub(crate) fn segment_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("wal-{seq:08}.log"))
}

fn parse_segment_seq(name: &str) -> Option<u64> {
    name.strip_prefix("wal-")?.strip_suffix(".log")?.parse().ok()
}

/// Scans one segment file, checking every record and collecting its
/// subscription records into `report`; returns the segment's last
/// epoch. `is_last` selects torn-tail tolerance: errors in the final
/// segment truncate (and describe) the tail; anywhere else they are
/// fatal.
fn scan_segment(path: &Path, is_last: bool, report: &mut RecoveryReport) -> Result<u64, WalError> {
    let file = File::open(path).map_err(|e| io_err(path, e))?;
    let file_len = file.metadata().map_err(|e| io_err(path, e))?.len();
    let mut reader = BufReader::new(file);
    let mut last_epoch = 0u64;
    let torn = |report: &mut RecoveryReport, at: u64, e: &CodecError| {
        report.torn_bytes += file_len.saturating_sub(at);
        report.torn_detail =
            Some(format!("{}: dropped torn tail at offset {at}: {e}", path.display()));
        report.torn_at = Some((path.to_path_buf(), at));
    };
    let version = match read_segment_version(&mut reader) {
        Ok(v) => v,
        Err(e) => {
            // A file torn inside (or before) its magic is an interrupted
            // segment creation; a complete-but-wrong magic is corruption.
            if is_last && e.is_truncation() {
                torn(report, 0, &e);
                return Ok(0);
            }
            return Err(WalError::Codec { path: path.to_path_buf(), source: e });
        }
    };
    let mut records = binary::RecordReader::new(reader, binary::MAGIC_LEN as u64);
    loop {
        let at = records.offset();
        match records.next() {
            Ok(None) => break,
            Ok(Some(payload)) => {
                // A CRC-valid record that fails here (unknown kind or op
                // tag, bad body) is corruption even in the final segment:
                // only `records.next()` failures can be a torn tail.
                if version >= 2 && payload.first() == Some(&REC_SUB) {
                    // Sub records carry their own epoch stamp and are
                    // exempt from the batch epoch monotonicity check.
                    let op = decode_sub_record(&payload, at)
                        .map_err(|e| WalError::Codec { path: path.to_path_buf(), source: e })?;
                    report.sub_ops.push(op);
                    continue;
                }
                let (epoch, _) = decode_segment_payload(version, &payload, at)
                    .map_err(|e| WalError::Codec { path: path.to_path_buf(), source: e })?;
                if epoch <= last_epoch {
                    return Err(WalError::Corrupt {
                        path: path.to_path_buf(),
                        detail: format!(
                            "record epoch {epoch} at offset {at} does not increase past \
                             {last_epoch}"
                        ),
                    });
                }
                last_epoch = epoch;
            }
            Err(e) => {
                // Any malformed record ends the scan: a torn tail in the
                // final segment is the crash we exist to absorb; the same
                // bytes in a sealed segment mean the disk lied.
                if is_last {
                    torn(report, at, &e);
                    return Ok(last_epoch);
                }
                return Err(WalError::Codec { path: path.to_path_buf(), source: e });
            }
        }
    }
    Ok(last_epoch)
}

/// A live, appendable write-ahead log.
pub struct Wal {
    cfg: DurabilityConfig,
    file: BufWriter<File>,
    seg_path: PathBuf,
    seg_seq: u64,
    seg_bytes: u64,
    sealed: Vec<SealedSegment>,
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

impl Wal {
    /// Opens (creating the directory if needed) the log at `cfg.dir`:
    /// scans every existing segment for recovery, then starts a fresh
    /// active segment after the highest existing sequence number (or in
    /// place of a final segment torn inside its magic).
    pub fn open(cfg: &DurabilityConfig) -> Result<(Wal, RecoveryReport), WalError> {
        std::fs::create_dir_all(&cfg.dir).map_err(|e| io_err(&cfg.dir, e))?;
        let mut seqs: Vec<u64> = std::fs::read_dir(&cfg.dir)
            .map_err(|e| io_err(&cfg.dir, e))?
            .filter_map(|entry| {
                let entry = entry.ok()?;
                parse_segment_seq(entry.file_name().to_str()?)
            })
            .collect();
        seqs.sort_unstable();

        let mut report = RecoveryReport::default();
        let mut sealed = Vec::with_capacity(seqs.len());
        let mut last_epoch = 0u64;
        for (i, &seq) in seqs.iter().enumerate() {
            let path = segment_path(&cfg.dir, seq);
            let is_last = i + 1 == seqs.len();
            let seg_last = scan_segment(&path, is_last, &mut report)?;
            last_epoch = last_epoch.max(seg_last);
            report.segments_scanned += 1;
            sealed.push(SealedSegment { seq, path, last_epoch: seg_last });
        }

        // A torn tail was only *skipped* above; make the drop physical.
        // The segment stops being the final one as soon as the fresh
        // active segment below exists, and a sealed segment must scan
        // clean on every later restart.
        let mut seg_seq = seqs.last().map_or(0, |s| s + 1);
        if let Some((torn_path, at)) = &report.torn_at {
            if *at == 0 {
                // Torn inside its magic: the file goes, and the fresh
                // segment takes its sequence number, so the log keeps no
                // gap for a cursor to read as a pruned segment.
                std::fs::remove_file(torn_path).map_err(|e| io_err(torn_path, e))?;
                sealed.retain(|s| &s.path != torn_path);
                seg_seq -= 1;
            } else {
                let f = OpenOptions::new()
                    .write(true)
                    .open(torn_path)
                    .map_err(|e| io_err(torn_path, e))?;
                f.set_len(*at).map_err(|e| io_err(torn_path, e))?;
                f.sync_data().map_err(|e| io_err(torn_path, e))?;
            }
        }

        let seg_path = segment_path(&cfg.dir, seg_seq);
        let mut file = BufWriter::new(
            OpenOptions::new()
                .create_new(true)
                .write(true)
                .open(&seg_path)
                .map_err(|e| io_err(&seg_path, e))?,
        );
        binary::write_magic(&mut file, WAL_MAGIC).map_err(|e| io_err(&seg_path, e))?;
        file.flush().map_err(|e| io_err(&seg_path, e))?;

        let wal = Wal {
            cfg: cfg.clone(),
            file,
            seg_path,
            seg_seq,
            seg_bytes: binary::MAGIC_LEN as u64,
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

    /// Appends one batch record (the group commit for every submission in
    /// the batch) and makes it as durable as the policy promises. The
    /// bytes always reach the OS before this returns, so acknowledged
    /// batches survive a process kill under every policy. On failure the
    /// caller's batch is rejected and the segment is physically rolled
    /// back to its pre-append length, so the retried epoch never lands
    /// after garbage or a duplicate; an unrecoverable rollback poisons
    /// the log (all later appends fail fast).
    pub fn append(&mut self, epoch: u64, edges: &[(u32, u32)]) -> Result<(), WalError> {
        let ops: Vec<Update> = edges.iter().map(|&(u, v)| Update::Insert(u, v)).collect();
        self.append_ops(epoch, &ops)
    }

    /// [`Self::append`] for mixed insert/delete batches: the record kind
    /// is chosen per batch (compact [`REC_INSERTS`] when monotone,
    /// [`REC_OPS`] when a deletion must replay in order). Queries in
    /// `ops` are skipped — they are not durable.
    pub fn append_ops(&mut self, epoch: u64, ops: &[Update]) -> Result<(), WalError> {
        if self.poisoned {
            return Err(WalError::Corrupt {
                path: self.seg_path.clone(),
                detail: "log is poisoned after an unrecoverable append failure; \
                         restart the service to recover from disk"
                    .into(),
            });
        }
        let payload = encode_wal_payload(epoch, ops);
        let res = (|| -> std::io::Result<u64> {
            let written = binary::append_record(&mut self.file, &payload)?;
            self.file.flush()?;
            match self.cfg.fsync {
                FsyncPolicy::Always => self.sync()?,
                FsyncPolicy::Batch => {
                    self.dirty = true;
                    if self.last_sync.elapsed() >= self.cfg.group_sync_interval {
                        self.sync()?;
                    }
                }
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
        self.last_epoch = epoch;
        if let Some(o) = &self.obs {
            o.metrics.wal_records_total.inc();
            o.metrics.wal_bytes_total.add(written);
            o.metrics.wal_last_epoch.set_max(epoch);
            o.recorder.record(Event::WalAppend { epoch, bytes: written });
        }
        if self.seg_bytes >= self.cfg.segment_max_bytes {
            self.roll()?;
        }
        Ok(())
    }

    /// Appends one durable subscription register/cancel record
    /// ([`REC_SUB`]) under the same flush/fsync/rollback discipline as
    /// [`Self::append_ops`]. Sub records never advance the log's batch
    /// epoch high-water mark — they carry their own epoch stamp inside
    /// the body.
    pub fn append_sub(&mut self, op: &SubWalOp) -> Result<(), WalError> {
        if self.poisoned {
            return Err(WalError::Corrupt {
                path: self.seg_path.clone(),
                detail: "log is poisoned after an unrecoverable append failure; \
                         restart the service to recover from disk"
                    .into(),
            });
        }
        let payload = encode_sub_record(op);
        let res = (|| -> std::io::Result<u64> {
            let written = binary::append_record(&mut self.file, &payload)?;
            self.file.flush()?;
            match self.cfg.fsync {
                FsyncPolicy::Always => self.sync()?,
                FsyncPolicy::Batch => {
                    self.dirty = true;
                    if self.last_sync.elapsed() >= self.cfg.group_sync_interval {
                        self.sync()?;
                    }
                }
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
        if let Some(o) = &self.obs {
            o.metrics.wal_records_total.inc();
            o.metrics.wal_bytes_total.add(written);
            o.recorder.record(Event::WalAppend { epoch: self.last_epoch, bytes: written });
        }
        if self.seg_bytes >= self.cfg.segment_max_bytes {
            self.roll()?;
        }
        Ok(())
    }

    /// Syncs pending bytes if the group-commit window has lapsed with no
    /// new append to piggyback on (the batcher calls this while idle, so
    /// the [`FsyncPolicy::Batch`] loss bound holds even when traffic
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
    /// overflow and at durable snapshots (so pruning can retire whole
    /// segments).
    pub fn roll(&mut self) -> Result<(), WalError> {
        self.sync().map_err(|e| io_err(&self.seg_path.clone(), e))?;
        self.sealed.push(SealedSegment {
            seq: self.seg_seq,
            path: self.seg_path.clone(),
            last_epoch: self.last_epoch,
        });
        self.seg_seq += 1;
        self.seg_path = segment_path(&self.cfg.dir, self.seg_seq);
        let mut file = BufWriter::new(
            OpenOptions::new()
                .create_new(true)
                .write(true)
                .open(&self.seg_path)
                .map_err(|e| io_err(&self.seg_path, e))?,
        );
        binary::write_magic(&mut file, WAL_MAGIC).map_err(|e| io_err(&self.seg_path, e))?;
        file.flush().map_err(|e| io_err(&self.seg_path, e))?;
        self.file = file;
        self.seg_bytes = binary::MAGIC_LEN as u64;
        if let Some(o) = &self.obs {
            o.metrics.wal_rolls_total.inc();
            o.metrics.wal_segments.set(self.sealed.len() as u64 + 1);
        }
        Ok(())
    }

    /// Deletes sealed segments whose every record is covered by a durable
    /// snapshot at `epoch`; returns how many were removed. Best-effort:
    /// an undeletable file stays tracked and is retried at the next
    /// snapshot.
    pub fn prune_covered_by(&mut self, epoch: u64) -> usize {
        let mut removed = 0;
        self.sealed.retain(|seg| {
            if seg.last_epoch <= epoch && std::fs::remove_file(&seg.path).is_ok() {
                removed += 1;
                false
            } else {
                true
            }
        });
        if let Some(o) = &self.obs {
            o.metrics.wal_prunes_total.add(removed as u64);
            o.metrics.wal_segments.set(self.sealed.len() as u64 + 1);
        }
        removed
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

    /// A read cursor over this log's directory, positioned at byte
    /// `offset` of segment `seq` (use `(0, MAGIC_LEN as u64)` for the
    /// oldest possible position; [`WalCursor::next`] rolls forward to the
    /// oldest existing segment if `seq` was pruned). The cursor reads the
    /// segment *files* directly, so it stays valid while this `Wal`
    /// appends, rolls, and prunes concurrently — the replication sender
    /// tails a live primary through exactly this API.
    pub fn tail_from(&self, seq: u64, offset: u64) -> WalCursor {
        WalCursor::open(&self.cfg.dir, seq, offset)
    }
}

/// What one [`WalCursor::next`] step produced.
#[derive(Debug, PartialEq, Eq)]
pub enum TailEvent {
    /// The next decoded record: `(epoch, ops)` — inserts and deletes in
    /// batch order.
    Record(u64, Vec<Update>),
    /// No complete record is available *yet*: the cursor sits at the live
    /// tail (or inside a record the writer has not finished flushing).
    /// Poll again later; the position is unchanged.
    CaughtUp,
    /// The cursor's segment was pruned beneath it (a durable snapshot
    /// retired it). The caller must re-bootstrap from the newest snapshot
    /// and then resume from [`WalCursor::oldest`].
    Pruned,
}

/// A polling read cursor over a WAL directory, independent of the
/// [`Wal`] writer (it re-opens segment files as it goes, so a live
/// primary can keep appending, rolling, and pruning).
///
/// The roll rule: a cursor positioned exactly at the end of a segment
/// first checks whether a *newer* segment file exists — if so, the
/// segment is sealed and the cursor rolls to the next sequence number
/// (never reporting the boundary as a torn tail); only when no newer
/// segment exists is the position the live tail ([`TailEvent::CaughtUp`]).
/// A truncated record is likewise [`TailEvent::CaughtUp`] — the writer
/// flushes whole records, but a large record can cross the reader's
/// glimpse mid-write — whereas a CRC mismatch or garbage framing on a
/// *complete* record is a hard [`WalError`].
pub struct WalCursor {
    dir: PathBuf,
    seq: u64,
    offset: u64,
    /// The current segment's format version, read lazily from its magic
    /// (None until the first read of each segment).
    seg_version: Option<u8>,
    /// Position of a truncated read already retried once against a
    /// sealed segment: a second truncation there is corruption (sealed
    /// bytes are final), not a flush race.
    retried_at: Option<(u64, u64)>,
}

impl WalCursor {
    /// Opens a cursor over `dir` at byte `offset` of segment `seq`.
    pub fn open(dir: impl Into<PathBuf>, seq: u64, offset: u64) -> WalCursor {
        WalCursor { dir: dir.into(), seq, offset, seg_version: None, retried_at: None }
    }

    /// The position as `(segment sequence, byte offset)`.
    pub fn position(&self) -> (u64, u64) {
        (self.seq, self.offset)
    }

    /// Repositions the cursor at the start of the oldest segment still
    /// on disk (or at segment 0 if the directory is empty) — the resume
    /// point after [`TailEvent::Pruned`] plus a snapshot re-bootstrap.
    pub fn oldest(&mut self) -> std::io::Result<()> {
        self.seq = first_segment_seq(&self.dir, 0)?.unwrap_or(0);
        self.offset = binary::MAGIC_LEN as u64;
        self.seg_version = None;
        Ok(())
    }

    /// Repositions the cursor at the start of the next segment on disk
    /// past its own — the resume point after [`TailEvent::Pruned`] when
    /// nothing can be pruning (recovery, before the log accepts writes),
    /// so the missing sequence numbers are a hole on disk: older releases
    /// left one where a crash tore a segment's creation (no records), and
    /// a prune that failed to delete one segment but not the next leaves
    /// one whose records a durable snapshot covers.
    pub fn skip_gap(&mut self) -> std::io::Result<()> {
        if let Some(seq) = first_segment_seq(&self.dir, self.seq + 1)? {
            self.seq = seq;
            self.offset = binary::MAGIC_LEN as u64;
            self.seg_version = None;
        }
        Ok(())
    }

    /// Whether any segment file newer than the cursor's exists — i.e.
    /// whether the cursor's segment is sealed.
    fn newer_segment_exists(&self) -> std::io::Result<bool> {
        let entries = match std::fs::read_dir(&self.dir) {
            Ok(e) => e,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(false),
            Err(e) => return Err(e),
        };
        for entry in entries.flatten() {
            if let Some(s) = entry.file_name().to_str().and_then(parse_segment_seq) {
                if s > self.seq {
                    return Ok(true);
                }
            }
        }
        Ok(false)
    }

    /// Advances one step. See [`TailEvent`] for the three outcomes; a
    /// returned error means bytes that are actually present failed to
    /// decode (disk corruption, never a mid-append race).
    /// (Deliberately not `Iterator`: `CaughtUp` is a poll outcome, not
    /// an end of stream — mirroring `binary::RecordReader::next`.)
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Result<TailEvent, WalError> {
        loop {
            let path = segment_path(&self.dir, self.seq);
            let io = |e: std::io::Error| io_err(&path, e);
            let file = match File::open(&path) {
                Ok(f) => f,
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                    // Either the segment was pruned (a newer one exists)
                    // or we are ahead of the writer (nothing yet).
                    return if self.newer_segment_exists().map_err(io)? {
                        Ok(TailEvent::Pruned)
                    } else {
                        Ok(TailEvent::CaughtUp)
                    };
                }
                Err(e) => return Err(io_err(&path, e)),
            };
            let len = file.metadata().map_err(io)?.len();
            // Exactly at (or past — the writer may have truncated a torn
            // tail we never saw) the end of the segment: roll to the next
            // sequence if one exists, else we are the live tail. This is
            // the boundary case that must NEVER read as a torn tail.
            if self.offset >= len {
                if self.newer_segment_exists().map_err(io)? {
                    self.seq += 1;
                    self.offset = binary::MAGIC_LEN as u64;
                    self.seg_version = None;
                    continue;
                }
                return Ok(TailEvent::CaughtUp);
            }
            if self.seg_version.is_none() || self.offset < binary::MAGIC_LEN as u64 {
                // First touch of this segment (or a cursor opened at byte
                // 0): read the magic to learn the record format — and to
                // skip it. A partially-written magic is just the live
                // tail.
                let mut reader = BufReader::new(&file);
                match read_segment_version(&mut reader) {
                    Ok(v) => self.seg_version = Some(v),
                    Err(e) if e.is_truncation() => return Ok(TailEvent::CaughtUp),
                    Err(e) => return Err(WalError::Codec { path, source: e }),
                }
                if self.offset < binary::MAGIC_LEN as u64 {
                    self.offset = binary::MAGIC_LEN as u64;
                    if self.offset >= len {
                        continue; // magic-only file: re-run the boundary check
                    }
                }
            }
            let version = self.seg_version.expect("read above");
            let mut reader = BufReader::new(file);
            std::io::Seek::seek(&mut reader, std::io::SeekFrom::Start(self.offset)).map_err(io)?;
            let mut records = binary::RecordReader::new(reader, self.offset);
            return match records.next() {
                Ok(Some(payload)) => {
                    if version >= 2 && payload.first() == Some(&REC_SUB) {
                        // Subscriptions are primary-local state: the
                        // replication stream skips them (validated for
                        // shape, then stepped over) so followers never
                        // inherit another node's registry.
                        decode_sub_record(&payload, self.offset)
                            .map_err(|e| WalError::Codec { path: path.clone(), source: e })?;
                        self.offset = records.offset();
                        self.retried_at = None;
                        continue;
                    }
                    let (epoch, ops) = decode_segment_payload(version, &payload, self.offset)
                        .map_err(|e| WalError::Codec { path, source: e })?;
                    self.offset = records.offset();
                    self.retried_at = None;
                    Ok(TailEvent::Record(epoch, ops))
                }
                // read_up_to saw clean EOF at the record boundary even
                // though the length probe said there were bytes: the
                // writer truncated a torn tail between our two looks.
                Ok(None) => Ok(TailEvent::CaughtUp),
                Err(e) if e.is_truncation() => {
                    // In the live (final) segment this is the writer
                    // mid-flush — poll again later. If a newer segment
                    // exists the bytes here are final, but our read may
                    // still have raced the seal's flush: retry exactly
                    // once before calling it corruption.
                    if !self.newer_segment_exists().map_err(io)? {
                        self.retried_at = None;
                        return Ok(TailEvent::CaughtUp);
                    }
                    if self.retried_at == Some((self.seq, self.offset)) {
                        return Err(WalError::Codec { path, source: e });
                    }
                    self.retried_at = Some((self.seq, self.offset));
                    continue;
                }
                Err(e) => Err(WalError::Codec { path, source: e }),
            };
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

    /// Every batch record in `dir`, read by the cursor recovery replays
    /// with, which must reach the tail without meeting a gap in the
    /// segment sequence.
    fn logged(dir: &Path) -> Vec<(u64, Vec<Update>)> {
        let mut cursor = WalCursor::open(dir, 0, binary::MAGIC_LEN as u64);
        cursor.oldest().expect("oldest");
        let mut out = Vec::new();
        loop {
            match cursor.next().expect("tail") {
                TailEvent::Record(epoch, ops) => out.push((epoch, ops)),
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

    #[test]
    fn append_and_recover_roundtrip() {
        let dir = tmp_dir("roundtrip");
        let cfg = small_cfg(&dir);
        {
            let (mut wal, _) = Wal::open(&cfg).expect("open");
            assert!(logged(&dir).is_empty());
            wal.append(1, &[(0, 1), (2, 3)]).expect("append");
            wal.append(2, &[]).expect("append empty");
            wal.append(3, &[(1, 2)]).expect("append");
            wal.flush().expect("flush");
            assert_eq!(wal.stats().records, 3);
            assert_eq!(wal.stats().last_epoch, 3);
        }
        let (wal, rep) = Wal::open(&cfg).expect("reopen");
        assert_eq!(
            logged(&dir),
            vec![(1, ins(&[(0, 1), (2, 3)])), (2, vec![]), (3, ins(&[(1, 2)]))]
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
        assert_eq!(logged(&dir), vec![(1, ins(&[(4, 5)])), (2, want_mixed), (3, vec![])]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn update_batch_codec_roundtrips_and_rejects_bad_tags() {
        let ops = vec![Update::Insert(7, 9), Update::Delete(9, 7), Update::Insert(0, 1)];
        let body = encode_update_batch(42, &ops);
        assert_eq!(decode_update_batch(&body, 0).expect("decode"), (42, ops));
        let mut bad = body.clone();
        bad[12] = b'Q'; // first op tag
        let err = decode_update_batch(&bad, 0).unwrap_err();
        assert!(err.to_string().contains("unknown op tag"), "{err}");
        // Truncated bodies are length-checked, not silently short-read.
        let err = decode_update_batch(&body[..body.len() - 1], 0).unwrap_err();
        assert!(err.to_string().contains("needs"), "{err}");
    }

    #[test]
    fn sub_records_interleave_recover_and_skip_replication() {
        let dir = tmp_dir("sub_records");
        let cfg = small_cfg(&dir);
        let reg = SubWalOp::Register { id: 7, kind: SubKind::Pair, u: 3, v: 9, epoch: 2 };
        let reg2 = SubWalOp::Register { id: 8, kind: SubKind::Component, u: 5, v: 5, epoch: 2 };
        {
            let (mut wal, _) = Wal::open(&cfg).expect("open");
            wal.append(1, &[(0, 1)]).expect("append");
            wal.append(2, &[(2, 3)]).expect("append");
            // Registrations stamped at epoch 2 land *between* batch
            // records 2 and 3: legal, despite the batch monotonicity rule.
            wal.append_sub(&reg).expect("append sub");
            wal.append_sub(&reg2).expect("append sub");
            wal.append(3, &[(4, 5)]).expect("append");
            wal.append_sub(&SubWalOp::Cancel { id: 8 }).expect("append cancel");
            wal.flush().expect("flush");
            assert_eq!(wal.stats().records, 6);
            assert_eq!(wal.stats().last_epoch, 3, "sub records never advance the epoch");
        }
        let (wal, rep) = Wal::open(&cfg).expect("reopen");
        assert_eq!(logged(&dir).len(), 3);
        assert_eq!(rep.sub_ops, vec![reg, reg2, SubWalOp::Cancel { id: 8 }]);
        // The replication cursor steps over every sub record: followers
        // see exactly the batch stream.
        let mut cur = wal.tail_from(0, binary::MAGIC_LEN as u64);
        let mut epochs = Vec::new();
        while let TailEvent::Record(e, _) = cur.next().expect("tail") {
            epochs.push(e);
        }
        assert_eq!(epochs, vec![1, 2, 3]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sub_record_codec_rejects_bad_shapes() {
        let reg = SubWalOp::Register { id: 1, kind: SubKind::Component, u: 4, v: 4, epoch: 9 };
        let enc = encode_sub_record(&reg);
        assert_eq!(decode_sub_record(&enc, 0).expect("decode"), reg);
        let cancel = SubWalOp::Cancel { id: u64::MAX };
        let enc_c = encode_sub_record(&cancel);
        assert_eq!(decode_sub_record(&enc_c, 0).expect("decode"), cancel);
        let mut bad_kind = enc.clone();
        bad_kind[10] = 9;
        assert!(decode_sub_record(&bad_kind, 0)
            .unwrap_err()
            .to_string()
            .contains("unknown subscription kind"));
        // A truncated register body is length-checked, not short-read.
        assert!(decode_sub_record(&enc[..enc.len() - 1], 0).is_err());
        // And a CRC-valid but malformed sub record is corruption at
        // recovery, even in the final segment.
        let dir = tmp_dir("sub_bad");
        let cfg = small_cfg(&dir);
        {
            let (mut wal, _) = Wal::open(&cfg).expect("open");
            wal.append(1, &[(0, 1)]).expect("append");
            wal.flush().expect("flush");
        }
        let seg = segment_path(&dir, 0);
        let mut f = OpenOptions::new().append(true).open(&seg).expect("open seg");
        binary::append_record(&mut f, &bad_kind).expect("append record");
        f.sync_data().expect("sync");
        let msg = Wal::open(&cfg).map(|_| ()).unwrap_err().to_string();
        assert!(msg.contains("unknown subscription kind"), "{msg}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unknown_record_kind_is_corruption_not_a_skippable_tail() {
        let dir = tmp_dir("unknown_kind");
        let cfg = small_cfg(&dir);
        {
            let (mut wal, _) = Wal::open(&cfg).expect("open");
            wal.append(1, &[(0, 1)]).expect("append");
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
            wal.append(1, &[(0, 1)]).expect("append");
            wal.append(2, &[(2, 3)]).expect("append");
            wal.flush().expect("flush");
        }
        // Chop 5 bytes off the only segment: record 2 becomes a torn tail.
        let seg = segment_path(&dir, 0);
        let bytes = std::fs::read(&seg).expect("read");
        std::fs::write(&seg, &bytes[..bytes.len() - 5]).expect("truncate");
        let (wal, rep) = Wal::open(&cfg).expect("reopen");
        assert_eq!(logged(&dir), vec![(1, ins(&[(0, 1)]))]);
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
            assert_eq!(logged(&dir), vec![(1, ins(&[(0, 1)]))], "round {round}");
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
            wal.append(1, &[(0, 1)]).expect("append");
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
        assert_eq!(logged(&dir), vec![(1, ins(&[(0, 1)]))]);
        let (_, rep) = Wal::open(&cfg).expect("and later restarts stay clean");
        assert_eq!(rep.torn_bytes, 0);
        assert_eq!(logged(&dir), vec![(1, ins(&[(0, 1)]))]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corruption_in_sealed_segment_is_fatal_with_context() {
        let dir = tmp_dir("sealed");
        let mut cfg = small_cfg(&dir);
        cfg.segment_max_bytes = 1; // roll after every record
        {
            let (mut wal, _) = Wal::open(&cfg).expect("open");
            wal.append(1, &[(0, 1)]).expect("append");
            wal.append(2, &[(2, 3)]).expect("append");
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
        for e in 1..=10u64 {
            wal.append(e, &[(e as u32, e as u32 + 1)]).expect("append");
        }
        let stats = wal.stats();
        assert!(stats.segments > 2, "expected several segments, got {}", stats.segments);
        // A snapshot at epoch 10 covers everything sealed.
        let sealed_before = stats.segments - 1;
        let removed = wal.prune_covered_by(10);
        assert_eq!(removed as u64, sealed_before);
        // Reopen: only the suffix past the prune point remains on disk.
        drop(wal);
        Wal::open(&cfg).expect("reopen");
        assert!(logged(&dir).iter().all(|(e, _)| *e > 0));
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
                wal.append(e, &[(0, e as u32)]).expect("append");
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
        wal.append(1, &[(0, 1)]).expect("append");
        wal.append(2, &[(1, 2)]).expect("append");
        assert_eq!(wal.stats().syncs, 2);

        let dir2 = tmp_dir("fsync_off");
        let (mut wal, _) = Wal::open(&small_cfg(&dir2)).expect("open");
        wal.append(1, &[(0, 1)]).expect("append");
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
        wal.append(1, &[(0, 1)]).expect("append");
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
        let mut cursor = wal.tail_from(0, binary::MAGIC_LEN as u64);
        assert_eq!(cursor.next().expect("tail"), TailEvent::CaughtUp, "empty log");
        let mut seen = Vec::new();
        for e in 1..=9u64 {
            wal.append(e, &[(e as u32, e as u32 + 1)]).expect("append");
            // The cursor sees every record as soon as it is appended,
            // rolling through segment boundaries without torn tails.
            loop {
                match cursor.next().expect("tail") {
                    TailEvent::Record(epoch, edges) => {
                        seen.push((epoch, edges));
                    }
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
        wal.append(1, &[(0, 1)]).expect("append");
        wal.append(2, &[(2, 3)]).expect("append");
        // Position the cursor EXACTLY at sealed segment 0's end: the
        // off-by-one trap. It must roll to segment 1 and yield epoch 2,
        // never report a torn tail or stall.
        let seg0_len = std::fs::metadata(segment_path(&dir, 0)).expect("meta").len();
        let mut cursor = wal.tail_from(0, seg0_len);
        assert_eq!(cursor.next().expect("roll"), TailEvent::Record(2, ins(&[(2, 3)])));
        assert_eq!(cursor.next().expect("tail"), TailEvent::CaughtUp);
        // A cursor positioned at the LIVE segment's exact end is just
        // caught up, and picks up the next append from there.
        let (live_seq, _) = cursor.position();
        wal.append(3, &[(4, 5)]).expect("append");
        let mut events = Vec::new();
        loop {
            match cursor.next().expect("tail") {
                TailEvent::Record(e, _) => events.push(e),
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
            wal.append(e, &[(0, e as u32)]).expect("append");
        }
        let mut cursor = wal.tail_from(0, binary::MAGIC_LEN as u64);
        assert!(matches!(cursor.next().expect("tail"), TailEvent::Record(1, _)));
        // A snapshot retires every sealed segment under the cursor.
        wal.prune_covered_by(4);
        assert_eq!(cursor.next().expect("tail"), TailEvent::Pruned);
        // The documented recovery: re-bootstrap (a snapshot covers the
        // gap) and resume from the oldest surviving segment.
        cursor.oldest().expect("oldest");
        match cursor.next().expect("tail") {
            TailEvent::Record(e, _) => assert!(e >= 4, "epoch {e} should be past the prune"),
            TailEvent::CaughtUp => {} // everything pruned except the active tail
            TailEvent::Pruned => panic!("oldest() must land on a live segment"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cursor_truncated_live_tail_is_caught_up_not_error() {
        let dir = tmp_dir("cursor_torn");
        let cfg = small_cfg(&dir);
        let (mut wal, _) = Wal::open(&cfg).expect("open");
        wal.append(1, &[(0, 1)]).expect("append");
        drop(wal); // stop the writer; we fake a torn in-flight record
        let seg = segment_path(&dir, 0); // the (only) live segment
        let mut bytes = std::fs::read(&seg).expect("read");
        bytes.extend_from_slice(&[7, 0, 0, 0]); // half a record header
        std::fs::write(&seg, &bytes).expect("write");
        let mut cursor = WalCursor::open(&dir, 0, binary::MAGIC_LEN as u64);
        assert!(matches!(cursor.next().expect("record 1"), TailEvent::Record(1, _)));
        assert_eq!(
            cursor.next().expect("a torn live tail is just not-yet-flushed"),
            TailEvent::CaughtUp
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Hand-writes a legacy v1 segment: `CCWALS01` magic, then raw
    /// insert-only edge-batch record bodies (no kind byte) — exactly what
    /// the release before the kind-byte format left on disk.
    fn write_v1_segment(dir: &Path, seq: u64, batches: &[(u64, Vec<(u32, u32)>)]) {
        std::fs::create_dir_all(dir).expect("mkdir");
        let mut f = BufWriter::new(File::create(segment_path(dir, seq)).expect("create"));
        binary::write_magic(&mut f, WAL_MAGIC_V1).expect("magic");
        for (epoch, edges) in batches {
            binary::append_record(&mut f, &binary::encode_edge_batch(*epoch, edges))
                .expect("record");
        }
        f.flush().expect("flush");
    }

    #[test]
    fn legacy_v1_segments_recover_and_upgrade_in_place() {
        let dir = tmp_dir("v1_upgrade");
        write_v1_segment(&dir, 0, &[(1, vec![(0, 1)]), (2, vec![(2, 3)])]);
        let cfg = small_cfg(&dir);
        {
            // Opening an old-format directory recovers its history...
            let (mut wal, rep) = Wal::open(&cfg).expect("v1 wal must still open");
            assert_eq!(logged(&dir), vec![(1, ins(&[(0, 1)])), (2, ins(&[(2, 3)]))]);
            assert_eq!(rep.torn_bytes, 0);
            // ...and new appends (deletions included) go to a fresh v2
            // segment alongside the untouched v1 one.
            wal.append_ops(3, &[Update::Delete(0, 1)]).expect("append past the upgrade");
            wal.flush().expect("flush");
        }
        let v2_seg = std::fs::read(segment_path(&dir, 1)).expect("new segment");
        assert_eq!(&v2_seg[..binary::MAGIC_LEN], WAL_MAGIC, "appends use the current format");
        // A mixed-version directory recovers both formats in order.
        Wal::open(&cfg).expect("mixed-version reopen");
        assert_eq!(
            logged(&dir),
            vec![(1, ins(&[(0, 1)])), (2, ins(&[(2, 3)])), (3, vec![Update::Delete(0, 1)]),]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cursor_tails_across_a_v1_to_v2_boundary() {
        let dir = tmp_dir("v1_cursor");
        write_v1_segment(&dir, 0, &[(1, vec![(0, 1)])]);
        let cfg = small_cfg(&dir);
        let (mut wal, _) = Wal::open(&cfg).expect("open");
        wal.append_ops(2, &[Update::Insert(1, 2), Update::Delete(0, 1)]).expect("append");
        let mut cursor = wal.tail_from(0, binary::MAGIC_LEN as u64);
        assert_eq!(cursor.next().expect("v1 record"), TailEvent::Record(1, ins(&[(0, 1)])));
        assert_eq!(
            cursor.next().expect("v2 record across the boundary"),
            TailEvent::Record(2, vec![Update::Insert(1, 2), Update::Delete(0, 1)])
        );
        assert_eq!(cursor.next().expect("tail"), TailEvent::CaughtUp);
        let _ = std::fs::remove_dir_all(&dir);
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
