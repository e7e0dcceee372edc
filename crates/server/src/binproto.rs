//! Binary wire protocol: pipelined, correlation-tagged frames over the
//! `cc_graph::io::binary` `len|crc|payload` codec.
//!
//! A binary session opens with the 8-byte [`STREAM_MAGIC`]; its first byte
//! (`0xCC`) is the sniff byte no text verb starts with, which is how the
//! server tells a binary client from a text one on the shared port. After
//! the magic, both directions carry bare records in the replication codec's
//! framing (no per-record magic, no stream magic on the response side).
//! This is the binary codec over the shared request IR of
//! [`crate::request`]: the server half decodes a [`Request`] and
//! encodes a [`Reply`]; the client half ([`crate::client::WireClient`]
//! on the binary door) encodes the request and decodes the reply. Every
//! verb has a tag, so the two doors speak the same verb set.
//!
//! ## Request frames
//!
//! ```text
//! payload := corr_id:u64le  verb:u8  args
//! ```
//!
//! The correlation id is an opaque client-chosen token echoed on the
//! response; clients pipeline many requests per connection and the server
//! may complete them **out of order** (reads overtake updates that are
//! still queued or in a batch). Verb tags and argument layouts:
//!
//! | tag  | verb    | args                                        |
//! |------|---------|---------------------------------------------|
//! | 0x01 | I       | `u:u32le v:u32le`                           |
//! | 0x02 | D       | `u:u32le v:u32le`                           |
//! | 0x03 | Q       | `u:u32le v:u32le`                           |
//! | 0x04 | QG      | `u:u32le v:u32le`                           |
//! | 0x05 | B       | `k:u32le` then k × `(op:u8 u:u32le v:u32le)`, op 0=I 1=D 2=Q |
//! | 0x06 | EPOCH   | none                                        |
//! | 0x07 | WAIT    | `epoch:u64le timeout_ms:u64le`              |
//! | 0x08 | PING    | none                                        |
//! | 0x09 | QUIESCE | `timeout_ms:u64le`                          |
//! | 0x0A | GEN     | none                                        |
//! | 0x0B | TOPK    | `k:u8`                                      |
//! | 0x0C | HIST    | none                                        |
//! | 0x0D | SIZE    | `v:u32le`                                   |
//! | 0x0E | SUB     | `kind:u8 u:u32le v:u32le flags:u8` (kind 0=pair 1=component, flags 0 or 1=durable), or `2:u8 id:u64le after_seq:u64le` (`SUB ATTACH`) |
//! | 0x0F | UNSUB   | `id:u64le`                                  |
//! | 0x10 | LABEL   | `v:u32le`                                   |
//! | 0x1A | TRACE   | `n:u64le`                                   |
//!
//! Tags `0x11`–`0x1B` other than `TRACE` (`COMPONENTS`, `ROLE`, `STATS`,
//! `FLUSH`, `SNAPSHOT`, `WALSTATS`, `QUIT`, `SHUTDOWN`, `METRICS`, `SUBS`)
//! take no arguments. `ROLE`, `STATS`, `WALSTATS`, `METRICS`, `TRACE` and
//! `SUBS` answer one UTF-8 body (a dump's lines joined by `\n`, no
//! `# EOF`); `QUIT` closes the connection once its replies are flushed.
//!
//! ## Response frames
//!
//! ```text
//! payload := corr_id:u64le  status:u8  body
//! ```
//!
//! Status 0 is OK with a verb-specific body (see [`Reply`]); status 1 is
//! ERR with a UTF-8 message — the same spellings as the text protocol's
//! `ERR` lines, minus the `ERR ` prefix. Recoverable errors (unknown verb,
//! short argument payloads, oversized batches, vertex range) answer with an
//! ERR frame and leave the connection open; frame-level damage (bad magic,
//! CRC mismatch, oversized or truncated frames) earns a best-effort ERR
//! frame with correlation id 0 and a typed `bad-frame` close.
//!
//! ## Event frames
//!
//! A `SUB` registration turns the connection into an event stream as well:
//! when the subscription fires, the server pushes an unsolicited frame
//! carrying status [`STATUS_EVT`] (`2`) and the **registration's**
//! correlation id, interleaved with ordinary replies:
//!
//! ```text
//! payload := corr_id:u64le  0x02  id:u64le kind:u8 u:u32le v:u32le
//!            root:u32le size:u64le epoch:u64le generation:u64le seq:u64le
//! ```
//!
//! Clients must therefore tolerate frames whose correlation id belongs to
//! no in-flight request — [`crate::client::WireClient`] stashes them
//! with the text door's `! EVT` lines, in one event queue. Delivery and slow-consumer semantics are
//! those of the text door's `! EVT` lines (see `PROTOCOL.md`): a
//! connection that lets pushed events back up past the server's write
//! budget is closed with a typed `sub-overflow` close.

use std::io;

use cc_graph::io::binary::{append_record, crc32, MAGIC_LEN};
use connectit::Update;

use crate::net::MAX_WIRE_BATCH;
pub use crate::request::Reply;
use crate::request::{Request, Shape, Verb};
use crate::subs::{SubEvent, SubKind};

// `benchmark/src/bin/layers.rs` still names the request type by its older
// spelling; the `[benchmark]` rework moves it to `Request` and retires this.
pub use crate::request::Request as BinRequest;

/// First byte of [`STREAM_MAGIC`]; no text verb starts with it, so the
/// server's first-byte sniff is unambiguous.
pub const SNIFF_BYTE: u8 = 0xCC;

/// Stream opener a binary client sends before its first frame.
pub const STREAM_MAGIC: [u8; MAGIC_LEN] = [SNIFF_BYTE, b'C', b'B', b'I', b'N', b'0', b'1', b'\n'];

/// Hard cap on a single frame payload (64 MiB — comfortably above the
/// largest legal `B` request of [`MAX_WIRE_BATCH`] nine-byte ops).
pub const MAX_FRAME_PAYLOAD: u32 = 1 << 26;

/// Response status byte: request succeeded, verb-specific body follows.
pub const STATUS_OK: u8 = 0;
/// Response status byte: request failed, UTF-8 message follows.
pub const STATUS_ERR: u8 = 1;
/// Response status byte: unsolicited subscription event; the correlation
/// id is the one from the `SUB` registration and the body is the fixed
/// 53-byte event layout (see the module docs).
pub const STATUS_EVT: u8 = 2;

/// The `SUB` kind byte that selects the `SUB ATTACH` layout.
const SUB_ATTACH: u8 = 2;

/// Verb tags (request header byte 8), each written here once and named by
/// its verb's row of [`crate::request::VERBS`].
pub mod verb {
    /// Insert an edge.
    pub const INSERT: u8 = 0x01;
    /// Delete an edge.
    pub const DELETE: u8 = 0x02;
    /// Connectivity query.
    pub const QUERY: u8 = 0x03;
    /// Connectivity query with generation tag.
    pub const QUERY_GEN: u8 = 0x04;
    /// Mixed batch of inserts/deletes/queries.
    pub const BATCH: u8 = 0x05;
    /// Read the committed epoch.
    pub const EPOCH: u8 = 0x06;
    /// Block until an epoch is committed.
    pub const WAIT: u8 = 0x07;
    /// Liveness probe.
    pub const PING: u8 = 0x08;
    /// Force a clean generation and report it.
    pub const QUIESCE: u8 = 0x09;
    /// Generation/rebuild counters.
    pub const GEN: u8 = 0x0A;
    /// Top-k largest components from the analytics view.
    pub const TOPK: u8 = 0x0B;
    /// Component-size histogram from the analytics view.
    pub const HIST: u8 = 0x0C;
    /// Size and root of one vertex's component.
    pub const SIZE: u8 = 0x0D;
    /// Register a pair or component subscription.
    pub const SUBSCRIBE: u8 = 0x0E;
    /// Cancel a subscription by id.
    pub const UNSUBSCRIBE: u8 = 0x0F;
    /// Current component label of one vertex.
    pub const LABEL: u8 = 0x10;
    /// Current component count.
    pub const COMPONENTS: u8 = 0x11;
    /// Replication role.
    pub const ROLE: u8 = 0x12;
    /// One-line stats dump.
    pub const STATS: u8 = 0x13;
    /// Fsync the WAL after the next batch.
    pub const FLUSH: u8 = 0x14;
    /// Write a checkpoint at the next batch boundary.
    pub const SNAPSHOT: u8 = 0x15;
    /// One-line WAL stats dump.
    pub const WALSTATS: u8 = 0x16;
    /// Close this connection.
    pub const QUIT: u8 = 0x17;
    /// Stop the server.
    pub const SHUTDOWN: u8 = 0x18;
    /// Metrics registry exposition.
    pub const METRICS: u8 = 0x19;
    /// Last flight-recorder events.
    pub const TRACE: u8 = 0x1A;
    /// Live subscriptions.
    pub const SUBS: u8 = 0x1B;
}

/// Frame-level damage: the stream can no longer be trusted, so the server
/// answers with a correlation-id-0 ERR frame and closes `bad-frame`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FrameError {
    /// The stream did not open with the magic its assembler expects.
    BadMagic,
    /// Declared payload length exceeds [`MAX_FRAME_PAYLOAD`].
    Oversized(u32),
    /// Stored CRC32 does not match the payload.
    CrcMismatch {
        /// CRC carried in the frame header.
        stored: u32,
        /// CRC computed over the received payload.
        computed: u32,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::BadMagic => write!(f, "bad frame: unknown binary stream magic"),
            FrameError::Oversized(len) => {
                write!(f, "bad frame: oversized payload {len} (max {MAX_FRAME_PAYLOAD})")
            }
            FrameError::CrcMismatch { stored, computed } => write!(
                f,
                "bad frame: crc mismatch (stored {stored:#010x}, computed {computed:#010x})"
            ),
        }
    }
}

/// Request-level errors. [`RequestError::ShortHeader`] poisons the stream
/// (there is no correlation id to answer on); everything else is
/// recoverable — the server sends an ERR frame and keeps the connection.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RequestError {
    /// Payload shorter than the 9-byte `corr|verb` header.
    ShortHeader(usize),
    /// Unrecognized verb tag.
    UnknownVerb {
        /// Correlation id to answer on.
        corr: u64,
        /// The offending tag byte.
        tag: u8,
    },
    /// Argument bytes missing or left over for a fixed-layout verb.
    BadArgs {
        /// Correlation id to answer on.
        corr: u64,
        /// Verb name for the error message.
        verb: &'static str,
        /// Bytes the verb's argument layout requires.
        want: usize,
        /// Bytes actually present after the header.
        have: usize,
    },
    /// `B` op count exceeds [`MAX_WIRE_BATCH`].
    BatchTooLarge {
        /// Correlation id to answer on.
        corr: u64,
    },
    /// `B` op tag outside 0/1/2.
    BadBatchTag {
        /// Correlation id to answer on.
        corr: u64,
        /// The offending op tag.
        tag: u8,
    },
    /// `SUB` kind byte outside 0/1/2.
    BadSubKind {
        /// Correlation id to answer on.
        corr: u64,
        /// The offending kind byte.
        kind: u8,
    },
    /// `SUB` flags byte outside 0/1.
    BadSubFlags {
        /// Correlation id to answer on.
        corr: u64,
        /// The offending flags byte.
        flags: u8,
    },
}

impl RequestError {
    /// The correlation id to answer on, when the header was intact.
    pub fn corr(&self) -> Option<u64> {
        match *self {
            RequestError::ShortHeader(_) => None,
            RequestError::UnknownVerb { corr, .. }
            | RequestError::BadArgs { corr, .. }
            | RequestError::BatchTooLarge { corr }
            | RequestError::BadBatchTag { corr, .. }
            | RequestError::BadSubKind { corr, .. }
            | RequestError::BadSubFlags { corr, .. } => Some(corr),
        }
    }
}

impl std::fmt::Display for RequestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RequestError::ShortHeader(have) => {
                write!(f, "bad frame: request header needs 9 bytes, have {have}")
            }
            RequestError::UnknownVerb { tag, .. } => {
                write!(f, "unknown binary verb {tag:#04x}")
            }
            RequestError::BadArgs { verb, want, have, .. } => {
                write!(f, "bad {verb} payload: need {want} bytes, have {have}")
            }
            RequestError::BatchTooLarge { .. } => {
                write!(f, "batch too large (max {MAX_WIRE_BATCH})")
            }
            RequestError::BadBatchTag { tag, .. } => {
                write!(f, "bad B payload: unknown batch op tag {tag:#04x}")
            }
            RequestError::BadSubKind { kind, .. } => {
                write!(f, "bad SUB payload: unknown subscription kind {kind:#04x}")
            }
            RequestError::BadSubFlags { flags, .. } => {
                write!(f, "bad SUB payload: unknown subscription flags {flags:#04x}")
            }
        }
    }
}

fn rd_u32(b: &[u8]) -> u32 {
    u32::from_le_bytes([b[0], b[1], b[2], b[3]])
}

fn rd_u64(b: &[u8]) -> u64 {
    u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]])
}

/// Decodes a request frame payload into `(corr_id, request)`.
pub fn decode_request(payload: &[u8]) -> Result<(u64, Request), RequestError> {
    if payload.len() < 9 {
        return Err(RequestError::ShortHeader(payload.len()));
    }
    let (corr, tag, args) = (rd_u64(payload), payload[8], &payload[9..]);
    let verb = Verb::from_tag(tag).ok_or(RequestError::UnknownVerb { corr, tag })?;
    let name = verb.spec().text;
    let fixed = |want: usize| match args.len() == want {
        true => Ok(args),
        false => Err(RequestError::BadArgs { corr, verb: name, want, have: args.len() }),
    };
    let pair = || fixed(8).map(|a| (rd_u32(a), rd_u32(&a[4..])));
    let req = match verb {
        Verb::I => pair().map(|(u, v)| Request::Insert(u, v))?,
        Verb::D => pair().map(|(u, v)| Request::Delete(u, v))?,
        Verb::Q => pair().map(|(u, v)| Request::Query(u, v))?,
        Verb::QG => pair().map(|(u, v)| Request::QueryGen(u, v))?,
        Verb::B => {
            if args.len() < 4 {
                return Err(RequestError::BadArgs { corr, verb: name, want: 4, have: args.len() });
            }
            let k = rd_u32(args) as usize;
            if k > MAX_WIRE_BATCH {
                return Err(RequestError::BatchTooLarge { corr });
            }
            let mut ops = Vec::with_capacity(k);
            for chunk in fixed(4 + k * 9)?[4..].chunks_exact(9) {
                let (u, v) = (rd_u32(&chunk[1..]), rd_u32(&chunk[5..]));
                ops.push(match chunk[0] {
                    0 => Update::Insert(u, v),
                    1 => Update::Delete(u, v),
                    2 => Update::Query(u, v),
                    t => return Err(RequestError::BadBatchTag { corr, tag: t }),
                });
            }
            Request::Batch(ops)
        }
        Verb::Label => Request::Label(rd_u32(fixed(4)?)),
        Verb::Wait => {
            fixed(16).map(|a| Request::Wait { epoch: rd_u64(a), timeout_ms: rd_u64(&a[8..]) })?
        }
        Verb::Quiesce => Request::Quiesce { timeout_ms: rd_u64(fixed(8)?) },
        Verb::Trace => Request::Trace(rd_u64(fixed(8)?) as usize),
        Verb::Topk => Request::Topk { k: fixed(1)?[0] },
        Verb::Size => Request::Size(rd_u32(fixed(4)?)),
        Verb::Sub if args.first() == Some(&SUB_ATTACH) => {
            let a = fixed(17)?;
            Request::SubAttach { id: rd_u64(&a[1..]), after_seq: rd_u64(&a[9..]) }
        }
        Verb::Sub => {
            let a = fixed(10)?;
            let kind =
                SubKind::from_code(a[0]).ok_or(RequestError::BadSubKind { corr, kind: a[0] })?;
            if a[9] > 1 {
                return Err(RequestError::BadSubFlags { corr, flags: a[9] });
            }
            Request::Subscribe { kind, u: rd_u32(&a[1..]), v: rd_u32(&a[5..]), durable: a[9] == 1 }
        }
        Verb::Unsub => Request::Unsubscribe { id: rd_u64(fixed(8)?) },
        Verb::Components => fixed(0).map(|_| Request::Components)?,
        Verb::Epoch => fixed(0).map(|_| Request::Epoch)?,
        Verb::Gen => fixed(0).map(|_| Request::Gen)?,
        Verb::Role => fixed(0).map(|_| Request::Role)?,
        Verb::Stats => fixed(0).map(|_| Request::Stats)?,
        Verb::Flush => fixed(0).map(|_| Request::Flush)?,
        Verb::Snapshot => fixed(0).map(|_| Request::Snapshot)?,
        Verb::WalStats => fixed(0).map(|_| Request::WalStats)?,
        Verb::Ping => fixed(0).map(|_| Request::Ping)?,
        Verb::Quit => fixed(0).map(|_| Request::Quit)?,
        Verb::Shutdown => fixed(0).map(|_| Request::Shutdown)?,
        Verb::Metrics => fixed(0).map(|_| Request::Metrics)?,
        Verb::Hist => fixed(0).map(|_| Request::Hist)?,
        Verb::Subs => fixed(0).map(|_| Request::Subs)?,
    };
    Ok((corr, req))
}

/// Encodes a request frame (header + args, ready for [`frame`]).
pub fn encode_request(corr: u64, req: &Request) -> Vec<u8> {
    let mut p = Vec::with_capacity(32);
    p.extend_from_slice(&corr.to_le_bytes());
    p.push(req.verb().spec().tag);
    match *req {
        Request::Insert(u, v)
        | Request::Delete(u, v)
        | Request::Query(u, v)
        | Request::QueryGen(u, v) => {
            p.extend_from_slice(&u.to_le_bytes());
            p.extend_from_slice(&v.to_le_bytes());
        }
        Request::Batch(ref ops) => {
            p.extend_from_slice(&(ops.len() as u32).to_le_bytes());
            for op in ops {
                let (tag, u, v) = match *op {
                    Update::Insert(u, v) => (0u8, u, v),
                    Update::Delete(u, v) => (1u8, u, v),
                    Update::Query(u, v) => (2u8, u, v),
                };
                p.push(tag);
                p.extend_from_slice(&u.to_le_bytes());
                p.extend_from_slice(&v.to_le_bytes());
            }
        }
        Request::Wait { epoch, timeout_ms } => {
            p.extend_from_slice(&epoch.to_le_bytes());
            p.extend_from_slice(&timeout_ms.to_le_bytes());
        }
        Request::Quiesce { timeout_ms: x } | Request::Unsubscribe { id: x } => {
            p.extend_from_slice(&x.to_le_bytes())
        }
        Request::Trace(n) => p.extend_from_slice(&(n as u64).to_le_bytes()),
        Request::Topk { k } => p.push(k),
        Request::Size(v) | Request::Label(v) => p.extend_from_slice(&v.to_le_bytes()),
        Request::Subscribe { kind, u, v, durable } => {
            p.push(kind.code());
            p.extend_from_slice(&u.to_le_bytes());
            p.extend_from_slice(&v.to_le_bytes());
            p.push(durable as u8);
        }
        Request::SubAttach { id, after_seq } => {
            p.push(SUB_ATTACH);
            p.extend_from_slice(&id.to_le_bytes());
            p.extend_from_slice(&after_seq.to_le_bytes());
        }
        // Every other verb takes no arguments.
        _ => {}
    }
    p
}

/// Wraps a payload in the `len|crc|payload` frame envelope.
pub fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + payload.len());
    append_record(&mut out, payload).expect("writing to a Vec cannot fail");
    out
}

/// Encodes a response frame payload: `corr|status|body`.
pub fn encode_reply(corr: u64, reply: &Reply) -> Vec<u8> {
    let mut p = Vec::with_capacity(16);
    p.extend_from_slice(&corr.to_le_bytes());
    match reply {
        Reply::Err(msg) => {
            p.push(STATUS_ERR);
            p.extend_from_slice(msg.as_bytes());
            return p;
        }
        Reply::Ok => p.push(STATUS_OK),
        Reply::Bit(b) => {
            p.push(STATUS_OK);
            p.push(*b as u8);
        }
        Reply::BitGen(b, gen) => {
            p.push(STATUS_OK);
            push_tagged(&mut p, *b, *gen);
        }
        Reply::Answers(answers) => {
            p.push(STATUS_OK);
            p.extend_from_slice(&(answers.len() as u32).to_le_bytes());
            for &(b, gen) in answers {
                push_tagged(&mut p, b, gen);
            }
        }
        Reply::Value(v) => {
            p.push(STATUS_OK);
            p.extend_from_slice(&v.to_le_bytes());
        }
        Reply::Gen { generation, dirty, rebuilds, forest, nonforest, absent } => {
            p.push(STATUS_OK);
            p.extend_from_slice(&generation.to_le_bytes());
            p.push(*dirty as u8);
            for v in [rebuilds, forest, nonforest, absent] {
                p.extend_from_slice(&v.to_le_bytes());
            }
        }
        Reply::Topk { epoch, generation, sealed, entries } => {
            p.push(STATUS_OK);
            p.extend_from_slice(&epoch.to_le_bytes());
            p.extend_from_slice(&generation.to_le_bytes());
            p.push(*sealed as u8);
            p.extend_from_slice(&(entries.len() as u32).to_le_bytes());
            for &(root, size) in entries {
                p.extend_from_slice(&root.to_le_bytes());
                p.extend_from_slice(&size.to_le_bytes());
            }
        }
        Reply::Hist { epoch, generation, sealed, components, buckets } => {
            p.push(STATUS_OK);
            p.extend_from_slice(&epoch.to_le_bytes());
            p.extend_from_slice(&generation.to_le_bytes());
            p.push(*sealed as u8);
            p.extend_from_slice(&components.to_le_bytes());
            p.extend_from_slice(&(buckets.len() as u32).to_le_bytes());
            for b in buckets {
                p.extend_from_slice(&b.to_le_bytes());
            }
        }
        Reply::Size { size, root } => {
            p.push(STATUS_OK);
            p.extend_from_slice(&size.to_le_bytes());
            p.extend_from_slice(&root.to_le_bytes());
        }
        Reply::Subscribed { id, epoch } => {
            p.push(STATUS_OK);
            p.extend_from_slice(&id.to_le_bytes());
            p.extend_from_slice(&epoch.to_le_bytes());
        }
        Reply::Line(line) => {
            p.push(STATUS_OK);
            p.extend_from_slice(line.as_bytes());
        }
        Reply::Dump(lines) => {
            p.push(STATUS_OK);
            p.extend_from_slice(lines.join("\n").as_bytes());
        }
    }
    p
}

/// Encodes an unsolicited event frame payload: `corr|STATUS_EVT|event`,
/// where `corr` is the `SUB` registration's correlation id.
pub fn encode_event(corr: u64, ev: &SubEvent) -> Vec<u8> {
    let mut p = Vec::with_capacity(9 + 53);
    p.extend_from_slice(&corr.to_le_bytes());
    p.push(STATUS_EVT);
    p.extend_from_slice(&ev.id.to_le_bytes());
    p.push(ev.kind.code());
    p.extend_from_slice(&ev.u.to_le_bytes());
    p.extend_from_slice(&ev.v.to_le_bytes());
    p.extend_from_slice(&ev.root.to_le_bytes());
    p.extend_from_slice(&ev.size.to_le_bytes());
    p.extend_from_slice(&ev.epoch.to_le_bytes());
    p.extend_from_slice(&ev.generation.to_le_bytes());
    p.extend_from_slice(&ev.seq.to_le_bytes());
    p
}

/// Decodes an event frame payload (status byte already known to be
/// [`STATUS_EVT`]). Returns `(registration_corr, event)`.
pub fn decode_event(payload: &[u8]) -> io::Result<(u64, SubEvent)> {
    if payload.len() != 9 + 53 || payload[8] != STATUS_EVT {
        return Err(bad_reply("EVT"));
    }
    let corr = rd_u64(payload);
    let b = &payload[9..];
    let kind = SubKind::from_code(b[8]).ok_or_else(|| bad_reply("EVT"))?;
    Ok((
        corr,
        SubEvent {
            id: rd_u64(b),
            kind,
            u: rd_u32(&b[9..]),
            v: rd_u32(&b[13..]),
            root: rd_u32(&b[17..]),
            size: rd_u64(&b[21..]),
            epoch: rd_u64(&b[29..]),
            generation: rd_u64(&b[37..]),
            seq: rd_u64(&b[45..]),
        },
    ))
}

fn push_tagged(p: &mut Vec<u8>, bit: bool, gen: Option<u64>) {
    p.push(bit as u8);
    p.push(gen.is_some() as u8);
    p.extend_from_slice(&gen.unwrap_or(0).to_le_bytes());
}

fn read_tagged(b: &[u8]) -> Option<(bool, Option<u64>)> {
    if b.len() < 10 {
        return None;
    }
    let gen = if b[1] != 0 { Some(rd_u64(&b[2..])) } else { None };
    Some((b[0] != 0, gen))
}

fn bad_reply(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("malformed {what} reply body"))
}

/// Decodes a response frame payload given the verb tag of the request it
/// answers. Returns `(corr, reply)`.
pub fn decode_reply(payload: &[u8], req_verb: u8) -> io::Result<(u64, Reply)> {
    if payload.len() < 9 {
        return Err(bad_reply("short"));
    }
    let corr = rd_u64(payload);
    let status = payload[8];
    let body = &payload[9..];
    if status == STATUS_ERR {
        return Ok((corr, Reply::Err(String::from_utf8_lossy(body).into_owned())));
    }
    if status != STATUS_OK {
        return Err(bad_reply("unknown-status"));
    }
    let text = || String::from_utf8(body.to_vec()).map_err(|_| bad_reply("text"));
    let shape = Verb::from_tag(req_verb).ok_or_else(|| bad_reply("unknown-verb"))?.spec().shape;
    let reply = match shape {
        Shape::Ok => Reply::Ok,
        Shape::Line => Reply::Line(text()?),
        Shape::Dump if body.is_empty() => Reply::Dump(Vec::new()),
        Shape::Dump => Reply::Dump(text()?.split('\n').map(str::to_string).collect()),
        Shape::Subscribed => {
            if body.len() != 16 {
                return Err(bad_reply("SUB"));
            }
            Reply::Subscribed { id: rd_u64(body), epoch: rd_u64(&body[8..]) }
        }
        Shape::Bit => {
            if body.len() != 1 {
                return Err(bad_reply("Q"));
            }
            Reply::Bit(body[0] != 0)
        }
        Shape::BitGen => {
            let (b, gen) = read_tagged(body).ok_or_else(|| bad_reply("QG"))?;
            Reply::BitGen(b, gen)
        }
        Shape::Answers => {
            if body.len() < 4 {
                return Err(bad_reply("B"));
            }
            let k = rd_u32(body) as usize;
            if body.len() != 4 + k * 10 {
                return Err(bad_reply("B"));
            }
            let mut answers = Vec::with_capacity(k);
            for chunk in body[4..].chunks_exact(10) {
                answers.push(read_tagged(chunk).ok_or_else(|| bad_reply("B"))?);
            }
            Reply::Answers(answers)
        }
        Shape::Value => {
            if body.len() != 8 {
                return Err(bad_reply("epoch"));
            }
            Reply::Value(rd_u64(body))
        }
        Shape::Gen => {
            if body.len() != 41 {
                return Err(bad_reply("GEN"));
            }
            Reply::Gen {
                generation: rd_u64(body),
                dirty: body[8] != 0,
                rebuilds: rd_u64(&body[9..]),
                forest: rd_u64(&body[17..]),
                nonforest: rd_u64(&body[25..]),
                absent: rd_u64(&body[33..]),
            }
        }
        Shape::Topk => {
            if body.len() < 21 {
                return Err(bad_reply("TOPK"));
            }
            let k = rd_u32(&body[17..]) as usize;
            if body.len() != 21 + k * 12 {
                return Err(bad_reply("TOPK"));
            }
            let mut entries = Vec::with_capacity(k);
            for chunk in body[21..].chunks_exact(12) {
                entries.push((rd_u32(chunk), rd_u64(&chunk[4..])));
            }
            Reply::Topk {
                epoch: rd_u64(body),
                generation: rd_u64(&body[8..]),
                sealed: body[16] != 0,
                entries,
            }
        }
        Shape::Hist => {
            if body.len() < 29 {
                return Err(bad_reply("HIST"));
            }
            let k = rd_u32(&body[25..]) as usize;
            if body.len() != 29 + k * 8 {
                return Err(bad_reply("HIST"));
            }
            let mut buckets = Vec::with_capacity(k);
            for chunk in body[29..].chunks_exact(8) {
                buckets.push(rd_u64(chunk));
            }
            Reply::Hist {
                epoch: rd_u64(body),
                generation: rd_u64(&body[8..]),
                sealed: body[16] != 0,
                components: rd_u64(&body[17..]),
                buckets,
            }
        }
        Shape::Size => {
            if body.len() != 12 {
                return Err(bad_reply("SIZE"));
            }
            Reply::Size { size: rd_u64(body), root: rd_u32(&body[8..]) }
        }
    };
    Ok((corr, reply))
}

/// Incremental frame reassembly for nonblocking reads: bytes go in as they
/// arrive, whole payloads come out. Also owns the stream-magic check so the
/// event loop and the fuzz tests share one state machine. The replication
/// listener reuses it for a follower's handshake, expecting that stream's
/// own magic.
pub struct FrameAssembler {
    buf: Vec<u8>,
    /// Bytes of `buf` already consumed (compacted lazily).
    start: usize,
    magic: [u8; MAGIC_LEN],
    magic_seen: bool,
    /// First frame-level error seen; sticky — a corrupt stream is never
    /// resynchronized, every further call re-reports it.
    poisoned: Option<FrameError>,
}

impl Default for FrameAssembler {
    fn default() -> Self {
        Self::new()
    }
}

impl FrameAssembler {
    /// An assembler expecting [`STREAM_MAGIC`] first.
    pub fn new() -> FrameAssembler {
        FrameAssembler::with_magic(STREAM_MAGIC)
    }

    /// An assembler expecting `magic` first.
    pub fn with_magic(magic: [u8; MAGIC_LEN]) -> FrameAssembler {
        FrameAssembler { buf: Vec::new(), start: 0, magic, magic_seen: false, poisoned: None }
    }

    /// Appends freshly read bytes.
    pub fn push(&mut self, bytes: &[u8]) {
        if self.start > 0 && (self.start >= self.buf.len() || self.start > (1 << 16)) {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed by a complete frame.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Extracts the next complete frame payload, `Ok(None)` if more bytes
    /// are needed. After any `Err` the assembler is poisoned: every further
    /// call returns that same failure, mirroring the server's
    /// close-on-bad-frame contract.
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, FrameError> {
        if let Some(e) = &self.poisoned {
            return Err(e.clone());
        }
        if !self.magic_seen {
            if self.pending() < MAGIC_LEN {
                return Ok(None);
            }
            let got = &self.buf[self.start..self.start + MAGIC_LEN];
            if got != self.magic {
                return Err(self.poison(FrameError::BadMagic));
            }
            self.start += MAGIC_LEN;
            self.magic_seen = true;
        }
        if self.pending() < 8 {
            return Ok(None);
        }
        let head = &self.buf[self.start..];
        let len = rd_u32(head);
        let stored = rd_u32(&head[4..]);
        if len > MAX_FRAME_PAYLOAD {
            return Err(self.poison(FrameError::Oversized(len)));
        }
        let total = 8 + len as usize;
        if self.pending() < total {
            return Ok(None);
        }
        let payload = &self.buf[self.start + 8..self.start + total];
        let computed = crc32(payload);
        if computed != stored {
            return Err(self.poison(FrameError::CrcMismatch { stored, computed }));
        }
        let out = payload.to_vec();
        self.start += total;
        Ok(Some(out))
    }

    fn poison(&mut self, e: FrameError) -> FrameError {
        self.poisoned = Some(e.clone());
        e
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(req: Request) {
        let corr = 0xDEAD_BEEF_u64;
        let payload = encode_request(corr, &req);
        let (got_corr, got) = decode_request(&payload).expect("decode");
        assert_eq!(got_corr, corr);
        assert_eq!(got, req);
    }

    #[test]
    fn request_roundtrips() {
        roundtrip(Request::Insert(1, 2));
        roundtrip(Request::Delete(3, 4));
        roundtrip(Request::Query(5, 6));
        roundtrip(Request::QueryGen(7, 8));
        roundtrip(Request::Batch(vec![
            Update::Insert(1, 2),
            Update::Delete(3, 4),
            Update::Query(5, 6),
        ]));
        roundtrip(Request::Epoch);
        roundtrip(Request::Wait { epoch: 42, timeout_ms: 1000 });
        roundtrip(Request::Ping);
        roundtrip(Request::Quiesce { timeout_ms: 9 });
        roundtrip(Request::Gen);
        roundtrip(Request::Topk { k: 10 });
        roundtrip(Request::Hist);
        roundtrip(Request::Size(7));
        roundtrip(Request::Subscribe { kind: SubKind::Pair, u: 3, v: 9, durable: true });
        roundtrip(Request::Subscribe { kind: SubKind::Component, u: 5, v: 5, durable: false });
        roundtrip(Request::Unsubscribe { id: 0x0102_0304_0506_0708 });
    }

    #[test]
    fn reply_roundtrips() {
        let cases: Vec<(Reply, u8)> = vec![
            (Reply::Ok, verb::INSERT),
            (Reply::Bit(true), verb::QUERY),
            (Reply::BitGen(false, Some(7)), verb::QUERY_GEN),
            (Reply::BitGen(true, None), verb::QUERY_GEN),
            (Reply::Answers(vec![(true, Some(3)), (false, None)]), verb::BATCH),
            (Reply::Value(99), verb::EPOCH),
            (
                Reply::Gen {
                    generation: 1,
                    dirty: true,
                    rebuilds: 2,
                    forest: 3,
                    nonforest: 4,
                    absent: 5,
                },
                verb::GEN,
            ),
            (
                Reply::Topk {
                    epoch: 12,
                    generation: 2,
                    sealed: true,
                    entries: vec![(0, 40), (9, 7)],
                },
                verb::TOPK,
            ),
            (Reply::Topk { epoch: 0, generation: 0, sealed: false, entries: vec![] }, verb::TOPK),
            (
                Reply::Hist {
                    epoch: 5,
                    generation: 1,
                    sealed: false,
                    components: 6,
                    buckets: vec![4, 0, 1, 1],
                },
                verb::HIST,
            ),
            (Reply::Size { size: 17, root: 3 }, verb::SIZE),
            (Reply::Subscribed { id: 12, epoch: 400 }, verb::SUBSCRIBE),
            (Reply::Ok, verb::UNSUBSCRIBE),
            (Reply::Err("vertex 9 out of range (n = 4)".into()), verb::QUERY),
        ];
        for (reply, tag) in cases {
            let payload = encode_reply(17, &reply);
            let (corr, got) = decode_reply(&payload, tag).expect("decode");
            assert_eq!(corr, 17);
            assert_eq!(got, reply);
        }
    }

    #[test]
    fn assembler_reassembles_split_frames() {
        let mut bytes = STREAM_MAGIC.to_vec();
        let p1 = encode_request(1, &Request::Query(0, 1));
        let p2 = encode_request(2, &Request::Epoch);
        bytes.extend_from_slice(&frame(&p1));
        bytes.extend_from_slice(&frame(&p2));
        // Feed one byte at a time: frames must come out whole and in order.
        let mut asm = FrameAssembler::new();
        let mut out = Vec::new();
        for b in bytes {
            asm.push(&[b]);
            while let Some(p) = asm.next_frame().expect("clean stream") {
                out.push(p);
            }
        }
        assert_eq!(out, vec![p1, p2]);
        assert_eq!(asm.pending(), 0);
    }

    #[test]
    fn assembler_rejects_bad_magic_and_stays_poisoned() {
        let mut asm = FrameAssembler::new();
        asm.push(b"\xccNOTMAGI");
        assert_eq!(asm.next_frame(), Err(FrameError::BadMagic));
        assert!(asm.next_frame().is_err(), "poisoned after frame error");
    }

    #[test]
    fn assembler_rejects_oversized_and_corrupt_frames() {
        let mut asm = FrameAssembler::new();
        asm.push(&STREAM_MAGIC);
        asm.push(&(MAX_FRAME_PAYLOAD + 1).to_le_bytes());
        asm.push(&[0u8; 4]);
        assert_eq!(asm.next_frame(), Err(FrameError::Oversized(MAX_FRAME_PAYLOAD + 1)));

        let mut asm = FrameAssembler::new();
        asm.push(&STREAM_MAGIC);
        let mut f = frame(&encode_request(1, &Request::Ping));
        let last = f.len() - 1;
        f[last] ^= 0xFF; // flip a payload byte -> CRC mismatch
        asm.push(&f);
        assert!(matches!(asm.next_frame(), Err(FrameError::CrcMismatch { .. })));
    }

    #[test]
    fn error_spellings_are_wire_stable() {
        assert_eq!(FrameError::BadMagic.to_string(), "bad frame: unknown binary stream magic");
        assert_eq!(
            FrameError::Oversized(MAX_FRAME_PAYLOAD + 1).to_string(),
            format!(
                "bad frame: oversized payload {} (max {MAX_FRAME_PAYLOAD})",
                MAX_FRAME_PAYLOAD + 1
            )
        );
        assert_eq!(
            RequestError::ShortHeader(3).to_string(),
            "bad frame: request header needs 9 bytes, have 3"
        );
        assert_eq!(
            RequestError::UnknownVerb { corr: 0, tag: 0x2A }.to_string(),
            "unknown binary verb 0x2a"
        );
        assert_eq!(
            RequestError::BadArgs { corr: 0, verb: "Q", want: 8, have: 3 }.to_string(),
            "bad Q payload: need 8 bytes, have 3"
        );
        assert_eq!(
            RequestError::BatchTooLarge { corr: 0 }.to_string(),
            format!("batch too large (max {MAX_WIRE_BATCH})")
        );
        assert_eq!(
            RequestError::BadSubKind { corr: 0, kind: 7 }.to_string(),
            "bad SUB payload: unknown subscription kind 0x07"
        );
    }

    #[test]
    fn event_frames_roundtrip() {
        let ev = SubEvent {
            id: 42,
            kind: SubKind::Component,
            u: 6,
            v: 6,
            root: 2,
            size: 17,
            epoch: 900,
            generation: 3,
            seq: 5,
        };
        let payload = encode_event(77, &ev);
        assert_eq!(payload.len(), 9 + 53);
        assert_eq!(payload[8], STATUS_EVT);
        let (corr, got) = decode_event(&payload).expect("decode");
        assert_eq!(corr, 77);
        assert_eq!(got, ev);
        // A truncated event frame is rejected, not misread.
        assert!(decode_event(&payload[..payload.len() - 1]).is_err());
    }

    #[test]
    fn bad_sub_kind_is_recoverable() {
        let mut payload = encode_request(
            9,
            &Request::Subscribe { kind: SubKind::Pair, u: 1, v: 2, durable: false },
        );
        payload[9] = 0x07; // corrupt the kind byte
        let err = decode_request(&payload).expect_err("bad kind must not decode");
        assert_eq!(err.corr(), Some(9), "recoverable: answers on the request corr");
    }
}
