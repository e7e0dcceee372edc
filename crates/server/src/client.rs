//! The blocking wire client: one type over both doors' codecs, the
//! mirror of the server's one dispatcher.
//!
//! A [`WireClient`] is opened on the text door ([`WireClient::text`]) or
//! on the binary door ([`WireClient::binary`]) of the same port. Either
//! way it speaks the shared [`Request`] IR and hands back the shared
//! [`Reply`]: the text codec is [`crate::net`]'s request writer and reply
//! parser, the binary codec is [`crate::binproto`]'s frames.
//!
//! The core is pipelined: [`WireClient::send`] queues a request and
//! returns its correlation id, [`WireClient::reap`] flushes and blocks for
//! the next reply. Text replies come back in request order; binary ones
//! in whatever order the server completes them. [`WireClient::call`] is
//! one round trip, and every verb has one typed convenience over it.
//!
//! Refusals are local and typed: a text-only verb on the binary door, or a
//! `B` of more than [`MAX_WIRE_BATCH`] ops, is
//! [`io::ErrorKind::InvalidInput`] before any byte is written, and the
//! connection stays usable. A server `ERR` becomes an [`io::Error`]
//! reading `server error: <msg>` on both doors.
//!
//! Subscription events (`! EVT` lines, binary event frames) may arrive
//! between replies on either door; every read stashes them into one
//! queue, drained by [`WireClient::take_events`] or waited for with
//! [`WireClient::poll_events`].

use crate::binproto::{
    decode_event, decode_reply, encode_request, FrameAssembler, STATUS_EVT, STREAM_MAGIC,
};
use crate::generation::{GenCounters, GenInfo};
use crate::net::{multi_line, parse_event_line, parse_reply, write_request, MAX_WIRE_BATCH};
use crate::request::{BinRequest, Reply, Request, Verb};
use crate::service::TaggedAnswers;
use crate::subs::{SubEvent, SubKind};
use cc_graph::io::binary::append_record;
use connectit::Update;
use std::collections::{BTreeMap, VecDeque};
use std::io::{self, BufWriter, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// Bytes read but not yet cut into whole replies, per door.
enum Inbound {
    /// Text door: `buf[start..]` is unconsumed.
    Lines { buf: Vec<u8>, start: usize },
    /// Binary door: response frames being reassembled.
    Frames(FrameAssembler),
}

impl Inbound {
    fn push(&mut self, bytes: &[u8]) {
        match self {
            Inbound::Lines { buf, start } => {
                buf.drain(..*start);
                *start = 0;
                buf.extend_from_slice(bytes);
            }
            Inbound::Frames(asm) => asm.push(bytes),
        }
    }

    /// The next whole line (without its `\n`) or frame payload, if one
    /// is buffered.
    fn cut(&mut self) -> io::Result<Option<Vec<u8>>> {
        match self {
            Inbound::Lines { buf, start } => {
                let rest = &buf[*start..];
                Ok(rest.iter().position(|&b| b == b'\n').map(|i| {
                    let line = rest[..i].to_vec();
                    *start += i + 1;
                    line
                }))
            }
            Inbound::Frames(asm) => asm.next_frame().map_err(|e| invalid_data(e.to_string())),
        }
    }
}

fn invalid_data(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

fn text_line(unit: &[u8]) -> String {
    String::from_utf8_lossy(unit).trim_end().to_string()
}

fn server_error(msg: &str) -> io::Error {
    io::Error::other(format!("server error: {msg}"))
}

fn unexpected(reply: Reply) -> io::Error {
    invalid_data(format!("unexpected reply {reply:?}"))
}

/// Calls a request and destructures its success reply; a server `ERR`
/// or any other shape is an error.
macro_rules! expect {
    ($client:ident, $req:expr, $pat:pat => $out:expr) => {
        match $client.call(&Request::from($req))? {
            $pat => Ok($out),
            Reply::Err(msg) => Err(server_error(&msg)),
            other => Err(unexpected(other)),
        }
    };
}

/// A blocking client for either door of a `connectit-serve` port.
pub struct WireClient {
    stream: TcpStream,
    writer: BufWriter<TcpStream>,
    inbound: Inbound,
    /// Requests sent but not yet answered, by correlation id. The text
    /// door answers the smallest id first.
    pending: BTreeMap<u64, Verb>,
    next_corr: u64,
    events: VecDeque<SubEvent>,
}

impl WireClient {
    fn open(addr: impl ToSocketAddrs, inbound: Inbound) -> io::Result<WireClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(WireClient {
            writer: BufWriter::new(stream.try_clone()?),
            stream,
            inbound,
            pending: BTreeMap::new(),
            next_corr: 1,
            events: VecDeque::new(),
        })
    }

    /// Connects to the text door.
    pub fn text(addr: impl ToSocketAddrs) -> io::Result<WireClient> {
        WireClient::open(addr, Inbound::Lines { buf: Vec::new(), start: 0 })
    }

    /// Connects to the binary door: the stream magic goes out with the
    /// first request.
    pub fn binary(addr: impl ToSocketAddrs) -> io::Result<WireClient> {
        // Replies carry no stream magic; seeding the assembler with it
        // sends it straight to frames.
        let mut asm = FrameAssembler::new();
        asm.push(&STREAM_MAGIC);
        let mut client = WireClient::open(addr, Inbound::Frames(asm))?;
        client.writer.write_all(&STREAM_MAGIC)?;
        Ok(client)
    }

    fn is_binary(&self) -> bool {
        matches!(self.inbound, Inbound::Frames(_))
    }

    /// Requests sent but not yet reaped.
    pub fn in_flight(&self) -> usize {
        self.pending.len()
    }

    /// Queues `req` (unflushed) and returns its correlation id. Refuses
    /// locally, with [`io::ErrorKind::InvalidInput`] and nothing written,
    /// a verb the binary door has no tag for and a `B` over
    /// [`MAX_WIRE_BATCH`] ops.
    pub fn send(&mut self, req: &Request) -> io::Result<u64> {
        let refuse = |msg: String| Err(io::Error::new(io::ErrorKind::InvalidInput, msg));
        if let Request::Bin(BinRequest::Batch(ops)) = req {
            if ops.len() > MAX_WIRE_BATCH {
                return refuse(format!(
                    "batch of {} ops exceeds the wire limit of {MAX_WIRE_BATCH}; split it",
                    ops.len()
                ));
            }
        }
        let corr = self.next_corr;
        match (req, self.is_binary()) {
            (Request::Bin(bin), true) => {
                append_record(&mut self.writer, &encode_request(corr, bin))?;
            }
            (_, true) => {
                let verb = req.verb().spec().text;
                return refuse(format!("{verb} has no binary tag; use the text door"));
            }
            (_, false) => {
                let mut line = Vec::new();
                write_request(&mut line, req);
                self.writer.write_all(&line)?;
            }
        }
        self.next_corr += 1;
        self.pending.insert(corr, req.verb());
        Ok(corr)
    }

    /// Reads one whole line or frame: a pushed event is stashed (`None`);
    /// anything else comes back whole.
    fn read_unit(&mut self) -> io::Result<Option<Vec<u8>>> {
        let mut chunk = [0u8; 1 << 14];
        let unit = loop {
            if let Some(unit) = self.inbound.cut()? {
                break unit;
            }
            match self.stream.read(&mut chunk)? {
                0 => return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "server closed")),
                n => self.inbound.push(&chunk[..n]),
            }
        };
        let ev = match self.inbound {
            Inbound::Frames(_) if unit.get(8) == Some(&STATUS_EVT) => decode_event(&unit)?.1,
            Inbound::Lines { .. } if unit.starts_with(b"! ") => {
                let line = text_line(&unit);
                parse_event_line(&line)
                    .ok_or_else(|| invalid_data(format!("unexpected push line {line:?}")))?
            }
            _ => return Ok(Some(unit)),
        };
        self.events.push_back(ev);
        Ok(None)
    }

    /// The next line or frame that is not a pushed event.
    fn next_unit(&mut self) -> io::Result<Vec<u8>> {
        loop {
            if let Some(unit) = self.read_unit()? {
                return Ok(unit);
            }
        }
    }

    /// The error for a unit that answers nothing in flight: the server's
    /// `ERR` (its last word before a close), or a protocol violation.
    fn stray(&self, unit: &[u8]) -> io::Error {
        let reply = match self.inbound {
            Inbound::Frames(_) => decode_reply(unit, crate::binproto::verb::PING).ok().map(|r| r.1),
            Inbound::Lines { .. } => parse_reply(Verb::Ping, &[text_line(unit)]).ok(),
        };
        match reply {
            Some(Reply::Err(msg)) => server_error(&msg),
            _ => invalid_data(format!("reply to no request in flight: {unit:?}")),
        }
    }

    /// Flushes, then blocks for the next reply: the oldest request's on
    /// the text door, any in-flight request's on the binary door. Pushed
    /// events met on the way are stashed, never returned here.
    pub fn reap(&mut self) -> io::Result<(u64, Reply)> {
        self.writer.flush()?;
        let unit = self.next_unit()?;
        if self.is_binary() {
            let corr =
                unit.get(..8).map_or(0, |b| u64::from_le_bytes(b.try_into().expect("8 bytes")));
            let Some(verb) = self.pending.remove(&corr) else { return Err(self.stray(&unit)) };
            // Only tagged verbs are ever sent on this door.
            return decode_reply(&unit, verb.spec().tag.unwrap_or_default());
        }
        let Some((corr, verb)) = self.pending.pop_first() else { return Err(self.stray(&unit)) };
        let mut lines = vec![text_line(&unit)];
        if multi_line(verb) && !lines[0].starts_with("ERR ") {
            while lines.last().map(String::as_str) != Some("# EOF") {
                lines.push(text_line(&self.next_unit()?));
            }
            lines.pop();
        }
        let reply = parse_reply(verb, &lines).map_err(invalid_data)?;
        Ok((corr, reply))
    }

    /// One round trip. Call it with nothing else in flight: a reply to
    /// another request is an error here.
    pub fn call(&mut self, req: &Request) -> io::Result<Reply> {
        let corr = self.send(req)?;
        let (got, reply) = self.reap()?;
        if got != corr {
            return Err(invalid_data(format!("expected the reply to {corr}, got {got}'s")));
        }
        Ok(reply)
    }

    /// Drains the already-stashed push events without touching the wire.
    pub fn take_events(&mut self) -> Vec<SubEvent> {
        self.events.drain(..).collect()
    }

    /// Blocks up to `timeout` for push events: returns stashed ones at
    /// once, otherwise reads under a read timeout. Call it with no
    /// request in flight. A line or frame cut short by the timeout is
    /// resumed by the next read; an empty result means the timeout
    /// lapsed quietly.
    pub fn poll_events(&mut self, timeout: Duration) -> io::Result<Vec<SubEvent>> {
        let deadline = Instant::now() + timeout;
        while self.events.is_empty() {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                break;
            }
            self.stream.set_read_timeout(Some(left))?;
            let res = self.read_unit();
            self.stream.set_read_timeout(None)?;
            match res {
                Ok(None) => {}
                Ok(Some(unit)) => return Err(self.stray(&unit)),
                Err(e)
                    if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) =>
                {
                    break
                }
                Err(e) => return Err(e),
            }
        }
        Ok(self.events.drain(..).collect())
    }

    /// `I u v`.
    pub fn insert(&mut self, u: u32, v: u32) -> io::Result<()> {
        expect!(self, BinRequest::Insert(u, v), Reply::Ok => ())
    }

    /// `D u v`.
    pub fn delete(&mut self, u: u32, v: u32) -> io::Result<()> {
        expect!(self, BinRequest::Delete(u, v), Reply::Ok => ())
    }

    /// `Q u v`: the bare connectivity bit.
    pub fn query(&mut self, u: u32, v: u32) -> io::Result<bool> {
        expect!(self, BinRequest::Query(u, v), Reply::Bit(b) => b)
    }

    /// `QG u v`: the bit plus `Some(generation)` when a sealed generation
    /// served it (a rebuild was in flight), `None` when it is exact.
    pub fn query_gen(&mut self, u: u32, v: u32) -> io::Result<(bool, Option<u64>)> {
        expect!(self, BinRequest::QueryGen(u, v), Reply::BitGen(b, g) => (b, g))
    }

    /// `B k`: submits `ops` as one unit; returns the query answers in
    /// order, each tagged like [`WireClient::query_gen`]'s. The text door
    /// does not carry the tags, so its answers are all `None`.
    pub fn submit(&mut self, ops: &[Update]) -> io::Result<TaggedAnswers> {
        expect!(self, BinRequest::Batch(ops.to_vec()), Reply::Answers(a) => a)
    }

    /// `LABEL v` (text door).
    pub fn label(&mut self, v: u32) -> io::Result<u32> {
        expect!(self, Request::Label(v), Reply::Value(l) => l as u32)
    }

    /// `COMPONENTS` (text door).
    pub fn components(&mut self) -> io::Result<usize> {
        expect!(self, Request::Components, Reply::Value(c) => c as usize)
    }

    /// `TOPK k`: `(entries, epoch, generation, sealed)`, the entries
    /// `(root, size)` pairs size-descending with singletons excluded.
    #[allow(clippy::type_complexity)]
    pub fn topk(&mut self, k: u8) -> io::Result<(Vec<(u32, u64)>, u64, u64, bool)> {
        expect!(self, BinRequest::Topk { k },
            Reply::Topk { epoch, generation, sealed, entries } => (entries, epoch, generation, sealed))
    }

    /// `HIST`: `(components, buckets, epoch, generation, sealed)` with all
    /// [`crate::analytics::HIST_BUCKETS`] log2 buckets.
    #[allow(clippy::type_complexity)]
    pub fn hist(&mut self) -> io::Result<(u64, Vec<u64>, u64, u64, bool)> {
        expect!(self, BinRequest::Hist,
            Reply::Hist { epoch, generation, sealed, components, buckets } =>
                (components, buckets, epoch, generation, sealed))
    }

    /// `SIZE v`: `(size, root)` of `v`'s component.
    pub fn component_size(&mut self, v: u32) -> io::Result<(u64, u32)> {
        expect!(self, BinRequest::Size(v), Reply::Size { size, root } => (size, root))
    }

    /// `EPOCH`.
    pub fn epoch(&mut self) -> io::Result<u64> {
        expect!(self, BinRequest::Epoch, Reply::Value(e) => e)
    }

    /// `WAIT epoch timeout_ms`: blocks until the server's epoch reaches
    /// `epoch`; returns the epoch reached. A lapsed timeout is a server
    /// error.
    pub fn wait_epoch(&mut self, epoch: u64, timeout_ms: u64) -> io::Result<u64> {
        expect!(self, BinRequest::Wait { epoch, timeout_ms }, Reply::Value(e) => e)
    }

    /// `GEN`: the serving generation, its dirty flag and the delete
    /// counters.
    pub fn generation_info(&mut self) -> io::Result<GenInfo> {
        expect!(self, BinRequest::Gen,
        Reply::Gen { generation, dirty, rebuilds, forest, nonforest, absent } => GenInfo {
            generation,
            dirty,
            counters: GenCounters {
                rebuilds,
                deletes_forest: forest,
                deletes_nonforest: nonforest,
                deletes_absent: absent,
            },
        })
    }

    /// `QUIESCE timeout_ms`: blocks until no rebuild is in flight; returns
    /// the clean generation. A lapsed timeout is a server error.
    pub fn quiesce(&mut self, timeout_ms: u64) -> io::Result<u64> {
        expect!(self, BinRequest::Quiesce { timeout_ms }, Reply::Value(g) => g)
    }

    /// `ROLE` (text door): `"primary"` or `"follower"`.
    pub fn role(&mut self) -> io::Result<String> {
        expect!(self, Request::Role, Reply::Line(line) => line)
    }

    /// `STATS` (text door): the one-line dump.
    pub fn stats_line(&mut self) -> io::Result<String> {
        expect!(self, Request::Stats, Reply::Line(line) => line)
    }

    /// `FLUSH` (text door): fsync the server's WAL now.
    pub fn flush_wal(&mut self) -> io::Result<()> {
        expect!(self, Request::Flush, Reply::Ok => ())
    }

    /// `SNAPSHOT` (text door): write a checkpoint record; returns its
    /// epoch.
    pub fn durable_snapshot(&mut self) -> io::Result<u64> {
        expect!(self, Request::Snapshot, Reply::Value(e) => e)
    }

    /// `WALSTATS` (text door): the one-line dump.
    pub fn wal_stats_line(&mut self) -> io::Result<String> {
        expect!(self, Request::WalStats, Reply::Line(line) => line)
    }

    /// `METRICS` (text door): the exposition, one element per line,
    /// `# EOF` stripped.
    pub fn metrics(&mut self) -> io::Result<Vec<String>> {
        expect!(self, Request::Metrics, Reply::Dump(lines) => lines)
    }

    /// `PING`.
    pub fn ping(&mut self) -> io::Result<()> {
        expect!(self, BinRequest::Ping, Reply::Ok => ())
    }

    /// `SHUTDOWN` (text door): asks the server to stop.
    pub fn shutdown_server(&mut self) -> io::Result<()> {
        expect!(self, Request::Shutdown, Reply::Ok => ())
    }

    /// `SUB`: registers a pair (`u`, `v`) or component (`v`, with `u ==
    /// v`) subscription; returns `(id, registration_epoch)`. Its events
    /// carry `id`.
    pub fn subscribe(
        &mut self,
        kind: SubKind,
        u: u32,
        v: u32,
        durable: bool,
    ) -> io::Result<(u64, u64)> {
        expect!(self, BinRequest::Subscribe { kind, u, v, durable },
            Reply::Subscribed { id, epoch } => (id, epoch))
    }

    /// `SUB ATTACH id after_seq` (text door): re-binds this connection to
    /// a durable subscription; retained events with `seq > after_seq`
    /// are replayed into the event queue. Returns `(id, epoch)`.
    pub fn attach_sub(&mut self, id: u64, after_seq: u64) -> io::Result<(u64, u64)> {
        expect!(self, Request::SubAttach { id, after_seq },
            Reply::Subscribed { id, epoch } => (id, epoch))
    }

    /// `UNSUB id`.
    pub fn unsubscribe(&mut self, id: u64) -> io::Result<()> {
        expect!(self, BinRequest::Unsubscribe { id }, Reply::Ok => ())
    }

    /// `SUBS` (text door): the subscription-list lines, `# EOF` stripped.
    pub fn subs(&mut self) -> io::Result<Vec<String>> {
        expect!(self, Request::Subs, Reply::Dump(lines) => lines)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binproto::{encode_event, frame};
    use std::net::TcpListener;

    #[test]
    fn poll_events_resumes_a_unit_its_timeout_cut_short() {
        let ev = SubEvent {
            id: 3,
            kind: SubKind::Pair,
            u: 5,
            v: 9,
            root: 5,
            size: 4,
            epoch: 42,
            generation: 2,
            seq: 1,
        };
        let mut line = Vec::new();
        crate::net::write_event(&mut line, &ev);
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("local addr");
        for (binary, bytes) in [(false, line), (true, frame(&encode_event(7, &ev)))] {
            let mut client = if binary { WireClient::binary(addr) } else { WireClient::text(addr) }
                .expect("open");
            let (mut peer, _) = listener.accept().expect("accept");
            let (head, tail) = bytes.split_at(bytes.len() / 2);
            peer.write_all(head).expect("head");
            // Poll until a timed-out read has buffered the head (the
            // first poll also consumes the assembler's seeded magic).
            loop {
                let quiet = client.poll_events(Duration::from_millis(10)).expect("quiet poll");
                assert!(quiet.is_empty(), "half a unit is no event");
                if match &client.inbound {
                    Inbound::Lines { buf, start } => buf.len() > *start,
                    Inbound::Frames(asm) => asm.pending() > 0,
                } {
                    break;
                }
            }
            peer.write_all(tail).expect("tail");
            let got = client.poll_events(Duration::from_secs(10)).expect("event");
            assert_eq!(got, vec![ev], "binary={binary}");
        }
    }
}
