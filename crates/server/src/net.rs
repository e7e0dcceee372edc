//! The text protocol's codec — both halves, the server's and the
//! client's — and the TCP front door shared with the binary protocol
//! (std-only — the workspace has no crates.io access, so there is no
//! async runtime).
//!
//! Accepted connections land on the sharded readiness event loop in
//! [`crate::evloop`], which sniffs the first byte: `0xCC` (the
//! [`crate::binproto::STREAM_MAGIC`] opener, which no text verb starts
//! with) selects the binary codec; anything else selects the text codec
//! below. Both codecs produce the same [`Request`] IR for the shard's one
//! dispatcher and encode its [`Reply`]; the text door stays the debug
//! door on the same port, byte for byte. The client halves run the other
//! way — a [`Request`] written as lines, reply lines parsed back into a
//! [`Reply`] — for [`crate::client::WireClient`] on the text door.
//!
//! The text codec keeps at most one request in flight per connection:
//! the shard stops reading a text connection until the in-flight
//! request's reply is queued, then resumes with any lines already
//! buffered. Replies therefore come back strictly in request order.
//!
//! ## Protocol
//!
//! Requests are single `\n`-terminated ASCII lines; every request gets
//! exactly one reply line (except `QUIT`, which closes the connection).
//!
//! | Request              | Reply                                | Meaning |
//! |----------------------|--------------------------------------|---------|
//! | `I u v`              | `OK`                                 | insert edge `{u, v}` |
//! | `D u v`              | `OK`                                 | delete edge `{u, v}` (absent and cycle edges are free; a spanning-forest edge triggers a background generation rebuild) |
//! | `Q u v`              | `1` / `0`                            | connectivity query (the reply is always exactly one bit — wire-stable across releases) |
//! | `QG u v`             | `1` / `0` (`1 G <gen>` while stale)  | connectivity query with staleness: when the answer came from a sealed generation (a rebuild was in flight), the reply names it; the bit and the generation are read atomically |
//! | `B k` + `k` op lines | `OK <bits>`                          | submit `k` ops (`I u v` / `D u v` / `Q u v` lines) as one unit; `<bits>` answers the queries in order |
//! | `LABEL v`            | `L <label>`                          | current component label of `v` |
//! | `COMPONENTS`         | `C <count>`                          | current component count |
//! | `TOPK [k]`           | `K k=<m> epoch=<e> gen=<g> sealed=<0/1> <root>:<size> …` | the `m ≤ k` largest components as `root:size` pairs, descending (singletons excluded; default `k` is [`DEFAULT_TOPK`], at most [`crate::analytics::TOPK_CAP`]) |
//! | `HIST`               | `H components=<c> epoch=<e> gen=<g> sealed=<0/1> <b>:<count> …` | component-size histogram: bucket `b` counts components of `2^b ≤ size < 2^(b+1)`; zero buckets are omitted |
//! | `SIZE v`             | `Z <size> root=<r>`                  | member count (and current representative) of `v`'s component |
//! | `EPOCH`              | `E <epoch>`                          | committed write batches (follower: replication epoch) |
//! | `WAIT e [ms]`        | `E <epoch>`                          | block until the epoch reaches `e` (default timeout 10000 ms), then report it |
//! | `GEN`                | `G <gen> dirty=<0/1> <counters>`     | generation info: serving generation, rebuild-in-flight flag, delete-classification counters |
//! | `QUIESCE [ms]`       | `G <gen>`                            | block until no rebuild is in flight (default timeout 10000 ms); afterwards queries are exact until the next forest deletion |
//! | `ROLE`               | `R primary` / `R follower`           | replication role |
//! | `STATS`              | `S <key=value ...>`                  | one-line stats dump |
//! | `FLUSH`              | `OK`                                 | fsync the WAL after the next batch, regardless of policy |
//! | `SNAPSHOT`           | `SNAP <epoch>`                       | write a checkpoint record (live edge set) to the WAL at the next batch boundary |
//! | `WALSTATS`           | `W <key=value ...>`                  | one-line WAL stats dump |
//! | `METRICS`            | typed lines, then `# EOF`            | multi-line Prometheus-style dump of the metrics registry (the only verbs with multi-line replies are `METRICS`, `TRACE`, and `SUBS`; all end with a literal `# EOF` line) |
//! | `TRACE [n]`          | `T …` lines, then `# EOF`            | last `n` flight-recorder events (default [`DEFAULT_TRACE_EVENTS`]), oldest first |
//! | `SUB u v [DURABLE]`  | `S <id> <epoch>`                     | subscribe: push an event when `u` and `v` connect (one-shot; fires immediately if already connected). `DURABLE` logs the subscription to the WAL so it survives restarts |
//! | `SUB COMPONENT v [DURABLE]` | `S <id> <epoch>`              | subscribe to every identity change of `v`'s component (merges and rebuild commits) |
//! | `SUB ATTACH id [after_seq]` | `S <id> <epoch>`              | re-bind this connection to a durable subscription and replay retained events with `seq > after_seq` |
//! | `UNSUB id`           | `OK`                                 | cancel a subscription |
//! | `SUBS`               | `<id> <kind> <u> <v> <epoch> <durable> <fired>` lines, then `# EOF` | list live subscriptions |
//! | `PING`               | `PONG`                               | liveness |
//! | `QUIT`               | — (connection closes)                | end this connection |
//! | `SHUTDOWN`           | `BYE`                                | stop accepting; wake [`TcpServer::wait_shutdown`] |
//!
//! Subscription events arrive as *unsolicited* push lines prefixed
//! `! ` — `! EVT <id> <seq> <epoch> <gen> PAIR <u> <v> root=<r>
//! size=<s>` or `! EVT <id> <seq> <epoch> <gen> COMPONENT <v> root=<r>
//! size=<s>` — interleaved between replies (never inside a multi-line
//! dump). [`crate::client::WireClient`] stashes them; see PROTOCOL.md for the full
//! delivery contract. A subscriber whose pushed events back up past the
//! connection's write budget ([`crate::evloop::NetConfig::max_wbuf`]) is
//! disconnected with a typed `sub-overflow` close — events are never
//! silently dropped.
//!
//! The three durability verbs answer `ERR durability is not enabled …`
//! when the server runs without `--wal-dir`. Malformed requests get
//! `ERR <reason>` and the connection stays open — except a request line
//! longer than [`MAX_LINE_BYTES`] (a peer that will never produce a
//! parseable request) and a rejected `B` header (an undelimitable body
//! follows), both of which answer `ERR …` and close.
//!
//! On a follower (`--replicate-from`), `I`, `D`, and update-carrying `B`
//! bodies answer `ERR read-only follower: route updates to the primary`;
//! `WAIT <epoch>` is the bounded-staleness contract — after it returns,
//! every primary batch up to `<epoch>` is visible here. The `(epoch,
//! generation)` staleness story is spelled out in DESIGN.md §9. The
//! analytics verbs (`TOPK`/`HIST`/`SIZE`) are served from the local
//! analytics view on either role — followers tail the same history, so
//! their views converge at the honestly-reported epoch; route heavy
//! analytical reads there by default (DESIGN.md §12).

use crate::obs::{CloseReason, DEFAULT_TRACE_EVENTS};
use crate::request::{BinRequest, Reply, Request, Verb};
use crate::service::Service;
use crate::subs::{SubEvent, SubKind};
use connectit::Update;
use std::io::Write;
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::Arc;

/// Upper bound on `B k` batch sizes, so a hostile header cannot trigger an
/// unbounded allocation. [`crate::client::WireClient`] enforces it
/// client-side, on both doors.
pub const MAX_WIRE_BATCH: usize = 1 << 22;

/// Upper bound on a single request line. A longer line cannot be a valid
/// request (the longest verb plus two decimal `u32`s is far shorter), so
/// the server answers `ERR` and closes instead of buffering a peer's
/// endless line into memory.
pub const MAX_LINE_BYTES: usize = 1 << 16;

/// Default `WAIT` timeout when the request does not carry one.
pub const DEFAULT_WAIT_TIMEOUT_MS: u64 = 10_000;

/// Default `TOPK` arity when the request does not carry one.
pub const DEFAULT_TOPK: usize = 10;

fn parse_u32(tok: Option<&str>) -> Result<u32, String> {
    tok.ok_or_else(|| "missing argument".to_string())?
        .parse()
        .map_err(|_| "argument is not a 32-bit unsigned integer".to_string())
}

fn parse_u64(tok: Option<&str>) -> Result<u64, String> {
    tok.ok_or_else(|| "missing argument".to_string())?
        .parse()
        .map_err(|_| "argument is not a 64-bit unsigned integer".to_string())
}

/// An optional trailing `u64` argument.
fn parse_u64_or(tok: Option<&str>, default: u64) -> Result<u64, String> {
    tok.map_or(Ok(default), |tok| parse_u64(Some(tok)))
}

/// What one top-level request line parses to.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Line {
    /// A whole request.
    Request(Request),
    /// `B k`: a header whose `k` op lines follow.
    Batch(usize),
}

fn parse_request(line: &str) -> Result<Line, String> {
    let mut it = line.split_whitespace();
    let cmd = it.next().ok_or_else(|| "empty request".to_string())?;
    let verb = Verb::from_text(cmd).ok_or_else(|| format!("unknown command {cmd:?}"))?;
    let req: Request = match verb {
        Verb::I => BinRequest::Insert(parse_u32(it.next())?, parse_u32(it.next())?).into(),
        Verb::D => BinRequest::Delete(parse_u32(it.next())?, parse_u32(it.next())?).into(),
        Verb::Q => BinRequest::Query(parse_u32(it.next())?, parse_u32(it.next())?).into(),
        Verb::QG => BinRequest::QueryGen(parse_u32(it.next())?, parse_u32(it.next())?).into(),
        Verb::B => {
            let k = parse_u32(it.next())? as usize;
            if k > MAX_WIRE_BATCH {
                return Err(format!("batch too large (max {MAX_WIRE_BATCH})"));
            }
            if it.next().is_some() {
                return Err(format!("trailing arguments after {cmd}"));
            }
            return Ok(Line::Batch(k));
        }
        Verb::Label => Request::Label(parse_u32(it.next())?),
        Verb::Components => Request::Components,
        Verb::Topk => {
            // Every k above the materialized cap answers alike.
            let k = parse_u64_or(it.next(), DEFAULT_TOPK as u64)?;
            BinRequest::Topk { k: k.min(u64::from(u8::MAX)) as u8 }.into()
        }
        Verb::Hist => BinRequest::Hist.into(),
        Verb::Size => BinRequest::Size(parse_u32(it.next())?).into(),
        Verb::Epoch => BinRequest::Epoch.into(),
        Verb::Wait => {
            let epoch = parse_u64(it.next())?;
            let timeout_ms = parse_u64_or(it.next(), DEFAULT_WAIT_TIMEOUT_MS)?;
            BinRequest::Wait { epoch, timeout_ms }.into()
        }
        Verb::Gen => BinRequest::Gen.into(),
        Verb::Quiesce => {
            BinRequest::Quiesce { timeout_ms: parse_u64_or(it.next(), DEFAULT_WAIT_TIMEOUT_MS)? }
                .into()
        }
        Verb::Role => Request::Role,
        Verb::Stats => Request::Stats,
        Verb::Flush => Request::Flush,
        Verb::Snapshot => Request::Snapshot,
        Verb::WalStats => Request::WalStats,
        Verb::Metrics => Request::Metrics,
        Verb::Trace => {
            Request::Trace(parse_u64_or(it.next(), DEFAULT_TRACE_EVENTS as u64)? as usize)
        }
        Verb::Sub => match it.next() {
            Some("COMPONENT") => {
                let v = parse_u32(it.next())?;
                let durable = parse_sub_flag(&mut it)?;
                BinRequest::Subscribe { kind: SubKind::Component, u: v, v, durable }.into()
            }
            Some("ATTACH") => {
                let id = parse_u64(it.next())?;
                Request::SubAttach { id, after_seq: parse_u64_or(it.next(), 0)? }
            }
            tok => {
                let u = parse_u32(tok)?;
                let v = parse_u32(it.next())?;
                let durable = parse_sub_flag(&mut it)?;
                BinRequest::Subscribe { kind: SubKind::Pair, u, v, durable }.into()
            }
        },
        Verb::Unsub => BinRequest::Unsubscribe { id: parse_u64(it.next())? }.into(),
        Verb::Subs => Request::Subs,
        Verb::Ping => BinRequest::Ping.into(),
        Verb::Quit => Request::Quit,
        Verb::Shutdown => Request::Shutdown,
    };
    if it.next().is_some() {
        return Err(format!("trailing arguments after {cmd}"));
    }
    Ok(Line::Request(req))
}

/// Parses the optional trailing `DURABLE` flag of a `SUB` request.
fn parse_sub_flag(it: &mut std::str::SplitWhitespace<'_>) -> Result<bool, String> {
    match it.next() {
        None => Ok(false),
        Some("DURABLE") => Ok(true),
        Some(other) => Err(format!("unknown SUB flag {other:?} (expected DURABLE)")),
    }
}

/// Parses one `I u v` / `D u v` / `Q u v` line of a `B` batch body.
fn parse_batch_op(line: &str) -> Result<Update, String> {
    let mut it = line.split_whitespace();
    let op = match it.next() {
        Some("I") => Update::Insert(parse_u32(it.next())?, parse_u32(it.next())?),
        Some("D") => Update::Delete(parse_u32(it.next())?, parse_u32(it.next())?),
        Some("Q") => Update::Query(parse_u32(it.next())?, parse_u32(it.next())?),
        _ => return Err("batch op must be `I u v`, `D u v`, or `Q u v`".to_string()),
    };
    if it.next().is_some() {
        return Err("trailing arguments in batch op".to_string());
    }
    Ok(op)
}

/// What the text decoder hands the shard.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Decoded {
    /// A parsed request for the dispatcher.
    Request(Request),
    /// A malformed request: answer `ERR <msg>` and keep the connection.
    Err(String),
    /// Framing is lost or the peer is done: answer `ERR <msg>` when one is
    /// given, then close with the reason.
    Close(Option<String>, CloseReason),
}

/// A `B k` body being collected.
struct Body {
    left: usize,
    ops: Vec<Update>,
    /// The first malformed op line's error; the whole batch answers it.
    bad: Option<String>,
}

/// The text codec's input half for one connection: buffers the bytes the
/// shard reads and cuts them into requests, one at a time.
#[derive(Default)]
pub(crate) struct LineDecoder {
    buf: Vec<u8>,
    /// Bytes of `buf` already consumed.
    start: usize,
    body: Option<Body>,
    /// The peer closed its write half: a last unterminated line still
    /// counts, then the connection closes.
    eof: bool,
}

impl LineDecoder {
    /// Appends freshly read bytes.
    pub(crate) fn push(&mut self, bytes: &[u8]) {
        self.buf.drain(..self.start);
        self.start = 0;
        self.buf.extend_from_slice(bytes);
    }

    /// Records that the peer will send nothing more.
    pub(crate) fn end(&mut self) {
        self.eof = true;
    }

    /// Whether [`LineDecoder::next`] has input left to look at.
    pub(crate) fn pending(&self) -> bool {
        self.start < self.buf.len() || self.eof
    }

    /// The next request or framing outcome, or `None` until more bytes
    /// arrive. A line is refused when no `\n` shows up within its first
    /// [`MAX_LINE_BYTES`] bytes.
    pub(crate) fn next(&mut self) -> Option<Decoded> {
        loop {
            let rest = &self.buf[self.start..];
            let window = &rest[..rest.len().min(MAX_LINE_BYTES)];
            let (len, used) = match window.iter().position(|&b| b == b'\n') {
                Some(i) => (i, i + 1),
                None if rest.len() >= MAX_LINE_BYTES => {
                    let msg = format!("request line exceeds {MAX_LINE_BYTES} bytes");
                    return Some(Decoded::Close(Some(msg), CloseReason::OversizedLine));
                }
                None if !self.eof => return None,
                None if !rest.is_empty() => (rest.len(), rest.len()),
                None if self.body.is_some() => {
                    return Some(Decoded::Close(None, CloseReason::TruncatedBatch))
                }
                None => return Some(Decoded::Close(None, CloseReason::Eof)),
            };
            let line = &self.buf[self.start..self.start + len];
            self.start += used;
            // A line that is not UTF-8 cannot be a request either: like an
            // oversized one, it answers `ERR` and closes.
            let Ok(line) = std::str::from_utf8(line) else {
                let msg = "stream did not contain valid UTF-8".to_string();
                return Some(Decoded::Close(Some(msg), CloseReason::OversizedLine));
            };
            let line = line.trim();
            if let Some(body) = &mut self.body {
                match parse_batch_op(line) {
                    Ok(op) => body.ops.push(op),
                    Err(msg) => body.bad = body.bad.take().or(Some(msg)),
                }
                body.left -= 1;
                if body.left > 0 {
                    continue;
                }
                let Body { ops, bad, .. } = self.body.take()?;
                return Some(match bad {
                    Some(msg) => Decoded::Err(msg),
                    None => Decoded::Request(BinRequest::Batch(ops).into()),
                });
            }
            if line.is_empty() {
                continue;
            }
            match parse_request(line) {
                Ok(Line::Request(req)) => return Some(Decoded::Request(req)),
                Ok(Line::Batch(0)) => {
                    return Some(Decoded::Request(BinRequest::Batch(vec![]).into()))
                }
                Ok(Line::Batch(k)) => {
                    self.body =
                        Some(Body { left: k, ops: Vec::with_capacity(k.min(1 << 16)), bad: None })
                }
                // A rejected `B` header is a framing error: the body lines
                // that follow cannot be delimited, and reading them as
                // requests would desynchronize every later reply.
                Err(msg) if line.split_whitespace().next() == Some("B") => {
                    return Some(Decoded::Close(Some(msg), CloseReason::BadBatchHeader))
                }
                Err(msg) => return Some(Decoded::Err(msg)),
            }
        }
    }
}

/// Appends the text door's reply to a `verb` request: one line, or for
/// the dump verbs every line plus a `# EOF` terminator.
pub(crate) fn write_reply(out: &mut Vec<u8>, verb: Verb, reply: &Reply) {
    let bit = |b: bool| u8::from(b);
    let _ = match reply {
        Reply::Err(msg) => writeln!(out, "ERR {msg}"),
        Reply::Ok => writeln!(
            out,
            "{}",
            match verb {
                Verb::Ping => "PONG",
                Verb::Shutdown => "BYE",
                _ => "OK",
            }
        ),
        Reply::Bit(b) => writeln!(out, "{}", bit(*b)),
        Reply::BitGen(b, None) => writeln!(out, "{}", bit(*b)),
        Reply::BitGen(b, Some(generation)) => writeln!(out, "{} G {generation}", bit(*b)),
        Reply::Answers(answers) if answers.is_empty() => writeln!(out, "OK"),
        Reply::Answers(answers) => {
            let bits: String = answers.iter().map(|&(a, _)| if a { '1' } else { '0' }).collect();
            writeln!(out, "OK {bits}")
        }
        Reply::Value(v) => {
            let prefix = match verb {
                Verb::Label => "L",
                Verb::Components => "C",
                Verb::Quiesce => "G",
                Verb::Snapshot => "SNAP",
                _ => "E",
            };
            writeln!(out, "{prefix} {v}")
        }
        Reply::Gen { generation, dirty, rebuilds, forest, nonforest, absent } => writeln!(
            out,
            "G {generation} dirty={} rebuilds={rebuilds} forest={forest} nonforest={nonforest} \
             absent={absent}",
            bit(*dirty)
        ),
        Reply::Topk { epoch, generation, sealed, entries } => {
            let _ = write!(
                out,
                "K k={} epoch={epoch} gen={generation} sealed={}",
                entries.len(),
                bit(*sealed)
            );
            for (root, size) in entries {
                let _ = write!(out, " {root}:{size}");
            }
            writeln!(out)
        }
        Reply::Hist { epoch, generation, sealed, components, buckets } => {
            let _ = write!(
                out,
                "H components={components} epoch={epoch} gen={generation} sealed={}",
                bit(*sealed)
            );
            for (b, count) in buckets.iter().enumerate().filter(|&(_, &c)| c > 0) {
                let _ = write!(out, " {b}:{count}");
            }
            writeln!(out)
        }
        Reply::Size { size, root } => writeln!(out, "Z {size} root={root}"),
        Reply::Subscribed { id, epoch } => writeln!(out, "S {id} {epoch}"),
        Reply::Line(line) => {
            let prefix = match verb {
                Verb::Role => "R",
                Verb::Stats => "S",
                _ => "W",
            };
            writeln!(out, "{prefix} {line}")
        }
        Reply::Dump(lines) => {
            for line in lines {
                let _ = writeln!(out, "{line}");
            }
            writeln!(out, "# EOF")
        }
    };
}

/// Appends one `! EVT …` push line (the grammar in the module table).
pub(crate) fn write_event(out: &mut Vec<u8>, ev: &SubEvent) {
    let _ = match ev.kind {
        SubKind::Pair => writeln!(
            out,
            "! EVT {} {} {} {} PAIR {} {} root={} size={}",
            ev.id, ev.seq, ev.epoch, ev.generation, ev.u, ev.v, ev.root, ev.size
        ),
        SubKind::Component => writeln!(
            out,
            "! EVT {} {} {} {} COMPONENT {} root={} size={}",
            ev.id, ev.seq, ev.epoch, ev.generation, ev.v, ev.root, ev.size
        ),
    };
}

/// Whether the text door answers `verb` with a multi-line dump ended by a
/// `# EOF` line (a `Reply::Dump`).
pub(crate) fn multi_line(verb: Verb) -> bool {
    matches!(verb, Verb::Metrics | Verb::Trace | Verb::Subs)
}

/// Appends `req` as the text door spells it: the inverse of the
/// [`LineDecoder`], a `B` header followed by its op lines.
pub(crate) fn write_request(out: &mut Vec<u8>, req: &Request) {
    use BinRequest as W;
    let name = req.verb().spec().text;
    let flag = |durable: bool| if durable { " DURABLE" } else { "" };
    let _ = match req {
        Request::Bin(W::Insert(u, v) | W::Delete(u, v) | W::Query(u, v) | W::QueryGen(u, v)) => {
            writeln!(out, "{name} {u} {v}")
        }
        Request::Bin(W::Batch(ops)) => {
            let _ = writeln!(out, "{name} {}", ops.len());
            for &op in ops {
                let (u, v) = crate::request::endpoints(op);
                let op = match op {
                    Update::Insert(..) => "I",
                    Update::Delete(..) => "D",
                    Update::Query(..) => "Q",
                };
                let _ = writeln!(out, "{op} {u} {v}");
            }
            Ok(())
        }
        Request::Bin(W::Wait { epoch, timeout_ms }) => writeln!(out, "{name} {epoch} {timeout_ms}"),
        Request::Bin(W::Quiesce { timeout_ms: x } | W::Unsubscribe { id: x }) => {
            writeln!(out, "{name} {x}")
        }
        Request::Bin(W::Topk { k }) => writeln!(out, "{name} {k}"),
        Request::Bin(W::Size(v)) | Request::Label(v) => writeln!(out, "{name} {v}"),
        Request::Trace(n) => writeln!(out, "{name} {n}"),
        Request::Bin(W::Subscribe { kind: SubKind::Pair, u, v, durable }) => {
            writeln!(out, "{name} {u} {v}{}", flag(*durable))
        }
        Request::Bin(W::Subscribe { kind: SubKind::Component, v, durable, .. }) => {
            writeln!(out, "{name} COMPONENT {v}{}", flag(*durable))
        }
        Request::SubAttach { id, after_seq } => writeln!(out, "{name} ATTACH {id} {after_seq}"),
        _ => writeln!(out, "{name}"),
    };
}

/// Consumes one token: a bare number when `key` is empty, else
/// `key=<number>`.
fn field<T: std::str::FromStr>(it: &mut std::str::SplitWhitespace<'_>, key: &str) -> Option<T> {
    let tok = it.next()?;
    let val = if key.is_empty() { tok } else { tok.strip_prefix(key)?.strip_prefix('=')? };
    val.parse().ok()
}

/// Parses one `a:b` token.
fn pair<A: std::str::FromStr, B: std::str::FromStr>(tok: &str) -> Option<(A, B)> {
    let (a, b) = tok.split_once(':')?;
    Some((a.parse().ok()?, b.parse().ok()?))
}

/// Parses the text door's reply to a `verb` request back into a
/// [`Reply`]: the inverse of [`write_reply`]. `lines` is the reply line,
/// or a dump's lines without the `# EOF` terminator. The door's two
/// losses stay lost: `B` answers read back without generations, and an
/// empty answer list is spelled `OK`.
pub(crate) fn parse_reply(verb: Verb, lines: &[String]) -> Result<Reply, String> {
    let bad = || format!("unexpected {} reply {lines:?}", verb.spec().text);
    match lines {
        [line] if line.starts_with("ERR ") => Ok(Reply::Err(line["ERR ".len()..].to_string())),
        _ if multi_line(verb) => Ok(Reply::Dump(lines.to_vec())),
        [line] => parse_reply_line(verb, line).ok_or_else(bad),
        _ => Err(bad()),
    }
}

fn parse_reply_line(verb: Verb, line: &str) -> Option<Reply> {
    let (head, rest) = line.split_once(' ').unwrap_or((line, ""));
    if let (Verb::Role, "R") | (Verb::Stats, "S") | (Verb::WalStats, "W") = (verb, head) {
        return Some(Reply::Line(rest.to_string()));
    }
    let mut it = rest.split_whitespace();
    let it = &mut it;
    let reply = match (verb, head) {
        (Verb::Ping, "PONG")
        | (Verb::Shutdown, "BYE")
        | (Verb::I | Verb::D | Verb::Flush | Verb::Unsub, "OK") => Reply::Ok,
        (Verb::Q, "0" | "1") => Reply::Bit(head == "1"),
        (Verb::QG, "0" | "1") => Reply::BitGen(
            head == "1",
            match it.next() {
                None => None,
                Some("G") => Some(field(it, "")?),
                Some(_) => return None,
            },
        ),
        (Verb::B, "OK") => {
            let bits = it.next().unwrap_or("");
            bits.bytes().all(|b| b == b'0' || b == b'1').then_some(())?;
            Reply::Answers(bits.bytes().map(|b| (b == b'1', None)).collect())
        }
        (Verb::Label, "L")
        | (Verb::Components, "C")
        | (Verb::Epoch | Verb::Wait, "E")
        | (Verb::Quiesce, "G")
        | (Verb::Snapshot, "SNAP") => Reply::Value(field(it, "")?),
        (Verb::Gen, "G") => Reply::Gen {
            generation: field(it, "")?,
            dirty: field::<u8>(it, "dirty")? != 0,
            rebuilds: field(it, "rebuilds")?,
            forest: field(it, "forest")?,
            nonforest: field(it, "nonforest")?,
            absent: field(it, "absent")?,
        },
        (Verb::Topk, "K") => {
            let k: usize = field(it, "k")?;
            let (epoch, generation) = (field(it, "epoch")?, field(it, "gen")?);
            let sealed = field::<u8>(it, "sealed")? != 0;
            let entries: Vec<(u32, u64)> = it.map(pair).collect::<Option<_>>()?;
            (entries.len() == k).then_some(Reply::Topk { epoch, generation, sealed, entries })?
        }
        (Verb::Hist, "H") => {
            let components = field(it, "components")?;
            let (epoch, generation) = (field(it, "epoch")?, field(it, "gen")?);
            let sealed = field::<u8>(it, "sealed")? != 0;
            let mut buckets = vec![0; crate::analytics::HIST_BUCKETS];
            for tok in it.by_ref() {
                let (b, count): (usize, u64) = pair(tok)?;
                *buckets.get_mut(b)? = count;
            }
            Reply::Hist { epoch, generation, sealed, components, buckets }
        }
        (Verb::Size, "Z") => Reply::Size { size: field(it, "")?, root: field(it, "root")? },
        (Verb::Sub, "S") => Reply::Subscribed { id: field(it, "")?, epoch: field(it, "")? },
        _ => return None,
    };
    it.next().is_none().then_some(reply)
}

/// Parses one `! EVT …` push line back into a [`SubEvent`]: the inverse
/// of [`write_event`].
pub(crate) fn parse_event_line(line: &str) -> Option<SubEvent> {
    let mut it = line.strip_prefix("! EVT ")?.split_whitespace();
    let it = &mut it;
    let (id, seq, epoch, generation) =
        (field(it, "")?, field(it, "")?, field(it, "")?, field(it, "")?);
    let (kind, u, v) = match it.next()? {
        "PAIR" => (SubKind::Pair, field(it, "")?, field(it, "")?),
        "COMPONENT" => {
            let v = field(it, "")?;
            (SubKind::Component, v, v)
        }
        _ => return None,
    };
    let (root, size) = (field(it, "root")?, field(it, "size")?);
    it.next().is_none().then_some(SubEvent { id, kind, u, v, root, size, epoch, generation, seq })
}

/// A running TCP front-end over a [`Service`]: N event-loop shards (see
/// [`crate::evloop`]) serving both doors, and followers when a replication
/// port is configured. The server stops when a `SHUTDOWN` request arrives
/// or [`TcpServer::stop`] is called; every open connection then closes
/// `shutdown`.
pub struct TcpServer {
    /// The query listener's bound address, then the replication
    /// listener's if any.
    pub(crate) addrs: Vec<SocketAddr>,
    pub(crate) shared: Arc<crate::evloop::ServerShared>,
    pub(crate) shards: Vec<std::thread::JoinHandle<()>>,
}

impl TcpServer {
    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addrs[0]
    }

    /// The replication listener's bound address, when
    /// [`crate::evloop::NetConfig::replication_port`] asked for one.
    pub fn replication_addr(&self) -> Option<SocketAddr> {
        self.addrs.get(1).copied()
    }

    /// Blocks until a `SHUTDOWN` request arrives (or [`TcpServer::stop`]
    /// is called from another thread): the shards exit on the shutdown
    /// flag, and this joins them.
    pub fn wait_shutdown(&mut self) {
        for h in self.shards.drain(..) {
            let _ = h.join();
        }
    }

    /// Initiates shutdown from the hosting process.
    pub fn stop(&mut self) {
        self.shared.request_shutdown();
        self.wait_shutdown();
    }
}

/// Binds `addr` and serves the given service on both protocols (the
/// text debug door and the pipelined binary protocol, sniffed per
/// connection) with default [`crate::evloop::NetConfig`] settings.
/// Returns immediately; the event-loop shards run on background threads.
pub fn serve(service: &Service, addr: impl ToSocketAddrs) -> std::io::Result<TcpServer> {
    serve_with(service, addr, crate::evloop::NetConfig::default())
}

/// [`serve`] with explicit front-end tuning (shard count, idle timeout,
/// write-buffer backpressure cap, replication port).
pub fn serve_with(
    service: &Service,
    addr: impl ToSocketAddrs,
    cfg: crate::evloop::NetConfig,
) -> std::io::Result<TcpServer> {
    crate::evloop::start(service, addr, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::VERBS;

    fn req(r: impl Into<Request>) -> Result<Line, String> {
        Ok(Line::Request(r.into()))
    }

    #[test]
    fn request_grammar() {
        use BinRequest as W;
        let sub = |kind, u, v, durable| W::Subscribe { kind, u, v, durable };
        assert_eq!(parse_request("I 3 4"), req(W::Insert(3, 4)));
        assert_eq!(parse_request("D 3 4"), req(W::Delete(3, 4)));
        assert_eq!(parse_request("Q 0 9"), req(W::Query(0, 9)));
        assert_eq!(parse_request("QG 0 9"), req(W::QueryGen(0, 9)));
        assert!(parse_request("QG 0").is_err());
        assert!(parse_request("QG 0 9 2").is_err());
        assert_eq!(parse_request("B 128"), Ok(Line::Batch(128)));
        assert_eq!(parse_request("LABEL 7"), req(Request::Label(7)));
        assert_eq!(parse_request("TOPK"), req(W::Topk { k: DEFAULT_TOPK as u8 }));
        assert_eq!(parse_request("TOPK 5"), req(W::Topk { k: 5 }));
        assert_eq!(parse_request("TOPK 5000"), req(W::Topk { k: u8::MAX }));
        assert!(parse_request("TOPK x").is_err());
        assert!(parse_request("TOPK 5 6").is_err());
        assert_eq!(parse_request("HIST"), req(W::Hist));
        assert!(parse_request("HIST 1").is_err());
        assert_eq!(parse_request("SIZE 9"), req(W::Size(9)));
        assert!(parse_request("SIZE").is_err());
        assert!(parse_request("SIZE x").is_err());
        assert!(parse_request("SIZE 9 1").is_err());
        assert_eq!(parse_request("SUB 1 2"), req(sub(SubKind::Pair, 1, 2, false)));
        assert_eq!(parse_request("SUB 1 2 DURABLE"), req(sub(SubKind::Pair, 1, 2, true)));
        assert_eq!(parse_request("SUB COMPONENT 7"), req(sub(SubKind::Component, 7, 7, false)));
        assert_eq!(
            parse_request("SUB COMPONENT 7 DURABLE"),
            req(sub(SubKind::Component, 7, 7, true))
        );
        assert_eq!(parse_request("SUB ATTACH 3"), req(Request::SubAttach { id: 3, after_seq: 0 }));
        assert_eq!(
            parse_request("SUB ATTACH 3 9"),
            req(Request::SubAttach { id: 3, after_seq: 9 })
        );
        assert!(parse_request("SUB").is_err());
        assert!(parse_request("SUB 1").is_err());
        assert!(parse_request("SUB 1 2 FOREVER").is_err());
        assert!(parse_request("SUB 1 2 DURABLE 3").is_err());
        assert!(parse_request("SUB COMPONENT").is_err());
        assert!(parse_request("SUB ATTACH x").is_err());
        assert_eq!(parse_request("UNSUB 5"), req(W::Unsubscribe { id: 5 }));
        assert!(parse_request("UNSUB").is_err());
        assert!(parse_request("UNSUB x").is_err());
        assert!(parse_request("UNSUB 5 6").is_err());
        assert_eq!(parse_request("SUBS"), req(Request::Subs));
        assert!(parse_request("SUBS 1").is_err());
        assert_eq!(parse_request("  PING "), req(W::Ping));
        assert_eq!(parse_request("SHUTDOWN"), req(Request::Shutdown));
        assert_eq!(parse_request("FLUSH"), req(Request::Flush));
        assert_eq!(parse_request("SNAPSHOT"), req(Request::Snapshot));
        assert_eq!(parse_request("WALSTATS"), req(Request::WalStats));
        assert_eq!(parse_request("METRICS"), req(Request::Metrics));
        assert_eq!(parse_request("TRACE"), req(Request::Trace(DEFAULT_TRACE_EVENTS)));
        assert_eq!(parse_request("TRACE 7"), req(Request::Trace(7)));
        assert!(parse_request("METRICS all").is_err());
        assert!(parse_request("TRACE x").is_err());
        assert!(parse_request("TRACE 7 9").is_err());
        assert_eq!(parse_request("ROLE"), req(Request::Role));
        let wait = |epoch, timeout_ms| W::Wait { epoch, timeout_ms };
        assert_eq!(parse_request("WAIT 9"), req(wait(9, DEFAULT_WAIT_TIMEOUT_MS)));
        assert_eq!(parse_request("WAIT 9 250"), req(wait(9, 250)));
        assert_eq!(parse_request("GEN"), req(W::Gen));
        let quiesce = |timeout_ms| W::Quiesce { timeout_ms };
        assert_eq!(parse_request("QUIESCE"), req(quiesce(DEFAULT_WAIT_TIMEOUT_MS)));
        assert_eq!(parse_request("QUIESCE 250"), req(quiesce(250)));
        assert!(parse_request("QUIESCE x").is_err());
        assert!(parse_request("QUIESCE 250 7").is_err());
        assert!(parse_request("GEN 1").is_err());
        assert!(parse_request("WAIT").is_err());
        assert!(parse_request("WAIT x").is_err());
        assert!(parse_request("WAIT 9 250 7").is_err());
        assert!(parse_request("ROLE primary").is_err());
        assert!(parse_request("FLUSH now").is_err());
        assert!(parse_request("SNAPSHOT 3").is_err());
        assert!(parse_request("I 3").is_err());
        assert!(parse_request("D 3").is_err());
        assert!(parse_request("D 3 4 5").is_err());
        assert!(parse_request("I 3 4 5").is_err());
        assert!(parse_request("Q -1 4").is_err());
        assert!(parse_request("NOPE").is_err());
        assert!(parse_request("B 99999999999").is_err());
        assert!(parse_request("B 2 3").is_err());
        assert!(parse_request("").is_err());
    }

    #[test]
    fn event_line_grammar() {
        let ev = parse_event_line("! EVT 3 1 42 2 PAIR 5 9 root=5 size=4").unwrap();
        assert_eq!(
            (ev.id, ev.seq, ev.epoch, ev.generation, ev.kind, ev.u, ev.v, ev.root, ev.size),
            (3, 1, 42, 2, SubKind::Pair, 5, 9, 5, 4)
        );
        let ev = parse_event_line("! EVT 8 2 7 0 COMPONENT 11 root=4 size=12").unwrap();
        assert_eq!(
            (ev.id, ev.seq, ev.epoch, ev.generation, ev.kind, ev.v, ev.root, ev.size),
            (8, 2, 7, 0, SubKind::Component, 11, 4, 12)
        );
        assert!(parse_event_line("! EVT 3 1 42 2 PAIR 5").is_none());
        assert!(parse_event_line("! EVT 3 1 42 2 WEIRD 5 9 root=5 size=4").is_none());
        assert!(parse_event_line("! PING").is_none());
        // The server's writer and the client's parser agree.
        let mut out = Vec::new();
        write_event(&mut out, &ev);
        let line = String::from_utf8(out).unwrap();
        assert_eq!(parse_event_line(line.trim_end()), Some(ev));
    }

    #[test]
    fn text_verbs_cover_the_parser() {
        // Every verb in the table must parse to *something* other than
        // "unknown command" (arguments may still be required).
        for spec in &VERBS {
            let verb = spec.text;
            let err = parse_request(verb).err();
            if let Some(msg) = err {
                assert!(
                    !msg.starts_with("unknown command"),
                    "exported verb {verb} not accepted: {msg}"
                );
            }
        }
        assert!(parse_request("NOPE").unwrap_err().starts_with("unknown command"));
    }

    #[test]
    fn batch_op_grammar() {
        assert_eq!(parse_batch_op("I 1 2"), Ok(Update::Insert(1, 2)));
        assert_eq!(parse_batch_op("D 1 2"), Ok(Update::Delete(1, 2)));
        assert_eq!(parse_batch_op("Q 5 6"), Ok(Update::Query(5, 6)));
        assert!(parse_batch_op("X 1 2").is_err());
        assert!(parse_batch_op("I one 2").is_err());
        assert!(parse_batch_op("D one 2").is_err());
        assert!(parse_batch_op("I 1 2 3").is_err());
    }

    fn decode_all(dec: &mut LineDecoder) -> Vec<Decoded> {
        std::iter::from_fn(|| dec.next()).take(64).collect()
    }

    #[test]
    fn decoder_frames_lines_bodies_and_the_end_of_input() {
        let mut dec = LineDecoder::default();
        dec.push(b"PING\n\nB 2\nI 1 2\nQ 1");
        assert_eq!(
            decode_all(&mut dec),
            vec![Decoded::Request(BinRequest::Ping.into())],
            "a blank line is skipped; the body waits for its last line"
        );
        dec.push(b" 2\nB 1\nX\nNOPE\n");
        let batch = BinRequest::Batch(vec![Update::Insert(1, 2), Update::Query(1, 2)]);
        assert_eq!(
            decode_all(&mut dec),
            vec![
                Decoded::Request(batch.into()),
                Decoded::Err("batch op must be `I u v`, `D u v`, or `Q u v`".into()),
                Decoded::Err("unknown command \"NOPE\"".into()),
            ]
        );
        // A last line without `\n` still counts once the peer is done.
        dec.push(b"PING");
        assert_eq!(decode_all(&mut dec), vec![]);
        dec.end();
        assert_eq!(
            decode_all(&mut dec)[..2],
            [Decoded::Request(BinRequest::Ping.into()), Decoded::Close(None, CloseReason::Eof)]
        );
        let mut dec = LineDecoder::default();
        dec.push(b"B 3\nI 1 2\n");
        dec.end();
        assert_eq!(decode_all(&mut dec)[0], Decoded::Close(None, CloseReason::TruncatedBatch));
        let mut dec = LineDecoder::default();
        dec.push(b"B x\nPING\n");
        assert_eq!(
            decode_all(&mut dec)[0],
            Decoded::Close(
                Some("argument is not a 32-bit unsigned integer".into()),
                CloseReason::BadBatchHeader
            )
        );
    }

    #[test]
    fn request_writer_inverts_the_line_decoder() {
        use BinRequest as W;
        let sub = |kind, u, v, durable| W::Subscribe { kind, u, v, durable };
        let mixed = vec![Update::Insert(1, 2), Update::Delete(3, 4), Update::Query(5, 6)];
        let requests: Vec<Request> = vec![
            W::Insert(1, 2).into(),
            W::Delete(3, 4).into(),
            W::Query(5, 6).into(),
            W::QueryGen(7, 8).into(),
            W::Batch(vec![]).into(),
            W::Batch(mixed).into(),
            Request::Label(9),
            Request::Components,
            W::Epoch.into(),
            W::Wait { epoch: 9, timeout_ms: 250 }.into(),
            W::Gen.into(),
            W::Quiesce { timeout_ms: 250 }.into(),
            Request::Role,
            Request::Stats,
            Request::Flush,
            Request::Snapshot,
            Request::WalStats,
            W::Ping.into(),
            Request::Quit,
            Request::Shutdown,
            Request::Metrics,
            Request::Trace(7),
            W::Topk { k: 5 }.into(),
            W::Hist.into(),
            W::Size(9).into(),
            sub(SubKind::Pair, 1, 2, false).into(),
            sub(SubKind::Pair, 1, 2, true).into(),
            sub(SubKind::Component, 7, 7, false).into(),
            sub(SubKind::Component, 7, 7, true).into(),
            Request::SubAttach { id: 3, after_seq: 9 },
            W::Unsubscribe { id: 5 }.into(),
            Request::Subs,
        ];
        for spec in &VERBS {
            assert!(requests.iter().any(|r| r.verb() == spec.verb), "no {} case", spec.text);
        }
        for req in requests {
            let mut bytes = Vec::new();
            write_request(&mut bytes, &req);
            let mut dec = LineDecoder::default();
            dec.push(&bytes);
            assert_eq!(dec.next(), Some(Decoded::Request(req.clone())), "{bytes:?}");
            assert_eq!(dec.next(), None, "nothing left over after {req:?}");
        }
    }

    #[test]
    fn reply_parser_inverts_the_reply_writer() {
        let text = |verb, reply: &Reply| {
            let mut out = Vec::new();
            write_reply(&mut out, verb, reply);
            String::from_utf8(out).unwrap()
        };
        let back = |verb, reply: &Reply| {
            let mut lines: Vec<String> = text(verb, reply).lines().map(str::to_string).collect();
            if multi_line(verb) && !matches!(reply, Reply::Err(_)) {
                assert_eq!(lines.pop().as_deref(), Some("# EOF"));
            }
            parse_reply(verb, &lines)
        };
        let mut buckets = vec![0; crate::analytics::HIST_BUCKETS];
        (buckets[0], buckets[2]) = (4, 1);
        let dump = |lines: &[&str]| Reply::Dump(lines.iter().map(|l| l.to_string()).collect());
        let gen = Reply::Gen {
            generation: 2,
            dirty: true,
            rebuilds: 1,
            forest: 3,
            nonforest: 4,
            absent: 5,
        };
        let cases = [
            (Verb::I, Reply::Ok),
            (Verb::D, Reply::Ok),
            (Verb::Flush, Reply::Ok),
            (Verb::Unsub, Reply::Ok),
            (Verb::Ping, Reply::Ok),
            (Verb::Shutdown, Reply::Ok),
            (Verb::Q, Reply::Bit(true)),
            (Verb::Q, Reply::Bit(false)),
            (Verb::QG, Reply::BitGen(true, None)),
            (Verb::QG, Reply::BitGen(false, Some(3))),
            (Verb::B, Reply::Answers(vec![(true, None), (false, None)])),
            (Verb::B, Reply::Answers(vec![])),
            (Verb::Label, Reply::Value(7)),
            (Verb::Components, Reply::Value(12)),
            (Verb::Epoch, Reply::Value(9)),
            (Verb::Wait, Reply::Value(9)),
            (Verb::Quiesce, Reply::Value(4)),
            (Verb::Snapshot, Reply::Value(9)),
            (Verb::Gen, gen),
            (Verb::Topk, Reply::Topk { epoch: 3, generation: 1, sealed: true, entries: vec![] }),
            (
                Verb::Topk,
                Reply::Topk {
                    epoch: 3,
                    generation: 1,
                    sealed: false,
                    entries: vec![(0, 4), (9, 2)],
                },
            ),
            (
                Verb::Hist,
                Reply::Hist { epoch: 3, generation: 1, sealed: false, components: 5, buckets },
            ),
            (Verb::Size, Reply::Size { size: 4, root: 0 }),
            (Verb::Sub, Reply::Subscribed { id: 3, epoch: 40 }),
            (Verb::Role, Reply::Line("primary".into())),
            (Verb::Stats, Reply::Line("epoch=3 batches=2".into())),
            (Verb::WalStats, Reply::Line("policy=off records=0".into())),
            (Verb::Metrics, dump(&["# TYPE connectit_epoch gauge", "connectit_epoch 3"])),
            (Verb::Trace, dump(&[])),
            (Verb::Subs, dump(&["1 PAIR 1 2 0 0 0"])),
            (Verb::Q, Reply::Err("vertex 9 out of range (n = 4)".into())),
            (Verb::Metrics, Reply::Err("not here".into())),
        ];
        for (verb, reply) in &cases {
            assert_eq!(back(*verb, reply).as_ref(), Ok(reply), "{verb:?}");
        }
        // The text door's two losses. `B` answers drop their generations...
        assert_eq!(
            back(Verb::B, &Reply::Answers(vec![(true, Some(2)), (false, None)])),
            Ok(Reply::Answers(vec![(true, None), (false, None)]))
        );
        // ...and an empty answer list is spelled like an update's `OK`.
        assert_eq!(text(Verb::B, &Reply::Answers(vec![])), "OK\n");
        // Malformed replies are refused, not misread.
        for (verb, line) in [
            (Verb::Q, "2"),
            (Verb::I, "OK 1"),
            (Verb::B, "OK 12"),
            (Verb::Epoch, "G 1"),
            (Verb::Topk, "K k=2 epoch=1 gen=0 sealed=0 1:2"),
            (Verb::Hist, "H components=1 epoch=0 gen=0 sealed=0 99:1"),
            (Verb::Size, "Z 4 root=x"),
        ] {
            assert!(parse_reply(verb, &[line.to_string()]).is_err(), "{line}");
        }
    }

    #[test]
    fn reply_lines_spell_each_verb() {
        let line = |verb, reply: Reply| {
            let mut out = Vec::new();
            write_reply(&mut out, verb, &reply);
            String::from_utf8(out).unwrap()
        };
        assert_eq!(line(Verb::Ping, Reply::Ok), "PONG\n");
        assert_eq!(line(Verb::Shutdown, Reply::Ok), "BYE\n");
        assert_eq!(line(Verb::B, Reply::Answers(vec![(true, Some(2)), (false, None)])), "OK 10\n");
        assert_eq!(line(Verb::B, Reply::Answers(vec![])), "OK\n");
        assert_eq!(line(Verb::QG, Reply::BitGen(true, Some(0))), "1 G 0\n");
        assert_eq!(line(Verb::Quiesce, Reply::Value(4)), "G 4\n");
        assert_eq!(line(Verb::Snapshot, Reply::Value(9)), "SNAP 9\n");
        assert_eq!(line(Verb::Wait, Reply::Value(9)), "E 9\n");
        assert_eq!(line(Verb::Role, Reply::Line("primary".into())), "R primary\n");
        assert_eq!(
            line(Verb::Subs, Reply::Dump(vec!["1 PAIR 1 2 0 0 0".into()])),
            "1 PAIR 1 2 0 0 0\n# EOF\n"
        );
        let hist = Reply::Hist {
            epoch: 3,
            generation: 1,
            sealed: false,
            components: 5,
            buckets: vec![4, 0, 1],
        };
        assert_eq!(line(Verb::Hist, hist), "H components=5 epoch=3 gen=1 sealed=0 0:4 2:1\n");
        let topk = Reply::Topk { epoch: 3, generation: 1, sealed: true, entries: vec![(0, 4)] };
        assert_eq!(line(Verb::Topk, topk), "K k=1 epoch=3 gen=1 sealed=1 0:4\n");
        assert_eq!(line(Verb::Size, Reply::Size { size: 4, root: 0 }), "Z 4 root=0\n");
        let gen = Reply::Gen {
            generation: 2,
            dirty: true,
            rebuilds: 1,
            forest: 3,
            nonforest: 4,
            absent: 5,
        };
        assert_eq!(line(Verb::Gen, gen), "G 2 dirty=1 rebuilds=1 forest=3 nonforest=4 absent=5\n");
    }
}
