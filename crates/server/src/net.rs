//! The line-based text protocol over the service, and the TCP front door
//! shared with the binary protocol (std-only — the workspace has no
//! crates.io access, so there is no async runtime).
//!
//! Accepted connections land on the sharded readiness event loop in
//! [`crate::evloop`], which sniffs the first byte: `0xCC` (the
//! [`crate::binproto::STREAM_MAGIC`] opener, which no text verb starts
//! with) selects the pipelined binary protocol served in-loop; anything
//! else hands the connection — sniffed bytes replayed — to a dedicated
//! text thread running `handle_connection` below, preserving the text
//! protocol byte for byte as the debug door on the same port.
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
//! | `EPOCH`              | `E <epoch>`                          | completed batches (on a follower: replication epoch) |
//! | `WAIT e [ms]`        | `E <epoch>`                          | block until the epoch reaches `e` (default timeout 10000 ms), then report it |
//! | `GEN`                | `G <gen> dirty=<0/1> <counters>`     | generation info: serving generation, rebuild-in-flight flag, delete-classification counters |
//! | `QUIESCE [ms]`       | `G <gen>`                            | block until no rebuild is in flight (default timeout 10000 ms); afterwards queries are exact until the next forest deletion |
//! | `ROLE`               | `R primary` / `R follower`           | replication role |
//! | `STATS`              | `S <key=value ...>`                  | one-line stats dump |
//! | `FLUSH`              | `OK`                                 | fsync the WAL now, regardless of policy |
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
//! dump). [`TcpClient`] stashes them; see PROTOCOL.md for the full
//! delivery contract. A subscriber that stops reading until the
//! server-side push queue fills is disconnected with a typed
//! `sub-overflow` close — events are never silently dropped.
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

use crate::obs::{CloseReason, Event, Obs, DEFAULT_TRACE_EVENTS};
use crate::service::{Client, Service};
use crate::subs::{SubEvent, SubKind, SubSink};
use connectit::Update;
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A parsed request line.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Request {
    Insert(u32, u32),
    Delete(u32, u32),
    Query(u32, u32),
    QueryGen(u32, u32),
    Batch(usize),
    Label(u32),
    Components,
    Topk(usize),
    Hist,
    Size(u32),
    Epoch,
    Wait(u64, u64),
    Gen,
    Quiesce(u64),
    Role,
    Stats,
    Flush,
    Snapshot,
    WalStats,
    Metrics,
    Trace(usize),
    Sub { component: bool, u: u32, v: u32, durable: bool },
    SubAttach { id: u64, after_seq: u64 },
    Unsub(u64),
    Subs,
    Ping,
    Quit,
    Shutdown,
}

/// Every verb the text parser accepts. Exported so the doc-drift test
/// can hold `PROTOCOL.md` to the parser's actual vocabulary.
pub const TEXT_VERBS: &[&str] = &[
    "I",
    "D",
    "Q",
    "QG",
    "B",
    "LABEL",
    "COMPONENTS",
    "TOPK",
    "HIST",
    "SIZE",
    "EPOCH",
    "WAIT",
    "GEN",
    "QUIESCE",
    "ROLE",
    "STATS",
    "FLUSH",
    "SNAPSHOT",
    "WALSTATS",
    "METRICS",
    "TRACE",
    "SUB",
    "UNSUB",
    "SUBS",
    "PING",
    "QUIT",
    "SHUTDOWN",
];

/// Upper bound on `B k` batch sizes, so a hostile header cannot trigger an
/// unbounded allocation. [`TcpClient::submit`] enforces it client-side.
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

fn parse_request(line: &str) -> Result<Request, String> {
    let mut it = line.split_whitespace();
    let cmd = it.next().ok_or_else(|| "empty request".to_string())?;
    let req = match cmd {
        "I" => Request::Insert(parse_u32(it.next())?, parse_u32(it.next())?),
        "D" => Request::Delete(parse_u32(it.next())?, parse_u32(it.next())?),
        "Q" => Request::Query(parse_u32(it.next())?, parse_u32(it.next())?),
        "QG" => Request::QueryGen(parse_u32(it.next())?, parse_u32(it.next())?),
        "B" => {
            let k = parse_u32(it.next())? as usize;
            if k > MAX_WIRE_BATCH {
                return Err(format!("batch too large (max {MAX_WIRE_BATCH})"));
            }
            Request::Batch(k)
        }
        "LABEL" => Request::Label(parse_u32(it.next())?),
        "COMPONENTS" => Request::Components,
        "TOPK" => {
            let k = match it.next() {
                Some(tok) => parse_u64(Some(tok))? as usize,
                None => DEFAULT_TOPK,
            };
            Request::Topk(k)
        }
        "HIST" => Request::Hist,
        "SIZE" => Request::Size(parse_u32(it.next())?),
        "EPOCH" => Request::Epoch,
        "WAIT" => {
            let epoch = parse_u64(it.next())?;
            let timeout_ms = match it.next() {
                Some(tok) => parse_u64(Some(tok))?,
                None => DEFAULT_WAIT_TIMEOUT_MS,
            };
            Request::Wait(epoch, timeout_ms)
        }
        "GEN" => Request::Gen,
        "QUIESCE" => {
            let timeout_ms = match it.next() {
                Some(tok) => parse_u64(Some(tok))?,
                None => DEFAULT_WAIT_TIMEOUT_MS,
            };
            Request::Quiesce(timeout_ms)
        }
        "ROLE" => Request::Role,
        "STATS" => Request::Stats,
        "FLUSH" => Request::Flush,
        "SNAPSHOT" => Request::Snapshot,
        "WALSTATS" => Request::WalStats,
        "METRICS" => Request::Metrics,
        "TRACE" => {
            let n = match it.next() {
                Some(tok) => parse_u64(Some(tok))? as usize,
                None => DEFAULT_TRACE_EVENTS,
            };
            Request::Trace(n)
        }
        "SUB" => match it.next() {
            Some("COMPONENT") => {
                let v = parse_u32(it.next())?;
                let durable = parse_sub_flag(&mut it)?;
                Request::Sub { component: true, u: v, v, durable }
            }
            Some("ATTACH") => {
                let id = parse_u64(it.next())?;
                let after_seq = match it.next() {
                    Some(tok) => parse_u64(Some(tok))?,
                    None => 0,
                };
                Request::SubAttach { id, after_seq }
            }
            tok => {
                let u = parse_u32(tok)?;
                let v = parse_u32(it.next())?;
                let durable = parse_sub_flag(&mut it)?;
                Request::Sub { component: false, u, v, durable }
            }
        },
        "UNSUB" => Request::Unsub(parse_u64(it.next())?),
        "SUBS" => Request::Subs,
        "PING" => Request::Ping,
        "QUIT" => Request::Quit,
        "SHUTDOWN" => Request::Shutdown,
        other => return Err(format!("unknown command {other:?}")),
    };
    if it.next().is_some() {
        return Err(format!("trailing arguments after {cmd}"));
    }
    Ok(req)
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

/// Writes one `ERR <reason>` reply and counts it: every error line the
/// server emits, whatever the cause, moves `request_errors_total`.
fn write_err(
    w: &mut BufWriter<TcpStream>,
    obs: &Obs,
    msg: impl std::fmt::Display,
) -> std::io::Result<()> {
    obs.metrics.request_errors_total.inc();
    writeln!(w, "ERR {msg}")
}

/// Mirrors one connection's lifetime into the registry: counted on
/// accept, decremented on drop — so `connections_live` is correct no
/// matter which of the handler's many exits ran — and stamped into the
/// flight recorder with the close reason the handler recorded.
struct ConnGuard {
    obs: Arc<Obs>,
    reason: CloseReason,
    /// The close is already on record (see [`TextSink::deliver`]).
    recorded: bool,
}

impl ConnGuard {
    fn new(obs: Arc<Obs>) -> ConnGuard {
        obs.metrics.connections_total.inc();
        obs.metrics.connections_live.inc();
        // `IoError` is the default so an early `?` return (peer reset,
        // broken pipe) needs no bookkeeping; orderly exits overwrite it.
        ConnGuard { obs, reason: CloseReason::IoError, recorded: false }
    }
}

impl Drop for ConnGuard {
    fn drop(&mut self) {
        self.obs.metrics.connections_live.dec();
        if !self.recorded {
            self.obs.recorder.record(Event::ConnClosed { reason: self.reason });
        }
    }
}

pub(crate) struct ServerShared {
    pub(crate) shutdown: AtomicBool,
    pub(crate) done_mx: Mutex<bool>,
    pub(crate) done_cv: Condvar,
    pub(crate) local_addr: SocketAddr,
}

impl ServerShared {
    pub(crate) fn new(local_addr: SocketAddr) -> ServerShared {
        ServerShared {
            shutdown: AtomicBool::new(false),
            done_mx: Mutex::new(false),
            done_cv: Condvar::new(),
            local_addr,
        }
    }

    pub(crate) fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
        *self.done_mx.lock() = true;
        self.done_cv.notify_all();
        // The accept loop polls the flag (non-blocking listener), so no
        // wake-up connection is needed — shutdown works even when the
        // bound address is not self-connectable (e.g. 0.0.0.0).
    }
}

/// A running TCP front-end over a [`Service`]: the accept thread plus N
/// event-loop shards (see [`crate::evloop`]). Binary connections are
/// served in-loop; text connections get a dedicated thread each. The
/// server stops when a `SHUTDOWN` request arrives or [`TcpServer::stop`]
/// is called.
pub struct TcpServer {
    pub(crate) shared: Arc<ServerShared>,
    pub(crate) accept: Option<std::thread::JoinHandle<()>>,
    pub(crate) shards: Vec<std::thread::JoinHandle<()>>,
}

impl TcpServer {
    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.local_addr
    }

    /// Blocks until a `SHUTDOWN` request arrives (or [`TcpServer::stop`]
    /// is called from another thread), then joins the accept loop.
    pub fn wait_shutdown(&mut self) {
        {
            let mut g = self.shared.done_mx.lock();
            while !*g {
                self.shared.done_cv.wait_for(&mut g, Duration::from_millis(50));
            }
        }
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
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
/// Returns immediately; the accept loop and event-loop shards run on
/// background threads.
pub fn serve(service: &Service, addr: impl ToSocketAddrs) -> std::io::Result<TcpServer> {
    serve_with(service, addr, crate::evloop::NetConfig::default())
}

/// [`serve`] with explicit front-end tuning (shard count, idle timeout,
/// write-buffer backpressure cap).
pub fn serve_with(
    service: &Service,
    addr: impl ToSocketAddrs,
    cfg: crate::evloop::NetConfig,
) -> std::io::Result<TcpServer> {
    crate::evloop::start(service, addr, cfg)
}

/// Reads one request line with [`MAX_LINE_BYTES`] enforced. `Ok(0)` is
/// EOF; `Err` with `InvalidData` means the peer exceeded the cap (the
/// caller answers `ERR` and closes — resynchronizing inside an unbounded
/// line is hopeless).
fn read_bounded_line(reader: &mut impl BufRead, line: &mut String) -> std::io::Result<usize> {
    line.clear();
    let got = std::io::Read::take(&mut *reader, MAX_LINE_BYTES as u64).read_line(line)?;
    if got == MAX_LINE_BYTES && !line.ends_with('\n') {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("request line exceeds {MAX_LINE_BYTES} bytes"),
        ));
    }
    Ok(got)
}

/// The server side of a text subscription: a bounded queue between the
/// service's delivery path and this connection's pusher thread. The
/// service must never block on (or allocate unboundedly for) a slow
/// consumer, so a full queue marks the sink dead, flags the overflow,
/// and shuts the socket down — the connection closes with a typed
/// `sub-overflow` reason rather than dropping events silently. The
/// reason is recorded *before* the shutdown, so whoever sees the socket
/// close finds it in the flight recorder.
struct TextSink {
    obs: Arc<Obs>,
    queue: Mutex<VecDeque<SubEvent>>,
    cv: Condvar,
    cap: usize,
    dead: AtomicBool,
    overflow: AtomicBool,
    stream: TcpStream,
}

impl SubSink for TextSink {
    fn deliver(&self, ev: &SubEvent) -> bool {
        if self.dead.load(Ordering::Acquire) {
            return false;
        }
        let mut q = self.queue.lock();
        if q.len() >= self.cap {
            drop(q);
            self.dead.store(true, Ordering::Release);
            if !self.overflow.swap(true, Ordering::AcqRel) {
                self.obs.recorder.record(Event::ConnClosed { reason: CloseReason::SubOverflow });
            }
            let _ = self.stream.shutdown(std::net::Shutdown::Both);
            self.cv.notify_all();
            return false;
        }
        q.push_back(*ev);
        drop(q);
        self.cv.notify_all();
        true
    }
}

/// Writes one `! EVT …` push line (the grammar in the module table).
fn write_evt_line(w: &mut BufWriter<TcpStream>, ev: &SubEvent) -> std::io::Result<()> {
    match ev.kind {
        SubKind::Pair => writeln!(
            w,
            "! EVT {} {} {} {} PAIR {} {} root={} size={}",
            ev.id, ev.seq, ev.epoch, ev.generation, ev.u, ev.v, ev.root, ev.size
        ),
        SubKind::Component => writeln!(
            w,
            "! EVT {} {} {} {} COMPONENT {} root={} size={}",
            ev.id, ev.seq, ev.epoch, ev.generation, ev.v, ev.root, ev.size
        ),
    }
}

/// The per-connection pusher thread: drains the sink's queue and writes
/// `! EVT` lines under the shared writer lock, so pushes interleave with
/// replies only at line boundaries (never inside a multi-line dump).
fn run_pusher(sink: &TextSink, writer: &Mutex<BufWriter<TcpStream>>) {
    let mut batch: Vec<SubEvent> = Vec::new();
    loop {
        {
            let mut q = sink.queue.lock();
            while q.is_empty() {
                if sink.dead.load(Ordering::Acquire) {
                    return;
                }
                sink.cv.wait_for(&mut q, Duration::from_millis(100));
            }
            batch.extend(q.drain(..));
        }
        let mut w = writer.lock();
        for ev in batch.drain(..) {
            if write_evt_line(&mut w, &ev).is_err() {
                sink.dead.store(true, Ordering::Release);
                return;
            }
        }
        if w.flush().is_err() {
            sink.dead.store(true, Ordering::Release);
            return;
        }
    }
}

/// One text connection's subscription state: the shared sink (created
/// lazily on the first `SUB`/`SUB ATTACH`), its pusher thread, and the
/// ids bound to this connection for teardown.
struct SubConnState {
    obs: Arc<Obs>,
    stream: TcpStream,
    cap: usize,
    sink: Option<Arc<TextSink>>,
    pusher: Option<std::thread::JoinHandle<()>>,
    subs: Vec<(u64, bool)>,
}

impl SubConnState {
    fn ensure_sink(
        &mut self,
        writer: &Arc<Mutex<BufWriter<TcpStream>>>,
    ) -> std::io::Result<Arc<TextSink>> {
        if let Some(s) = &self.sink {
            return Ok(Arc::clone(s));
        }
        let sink = Arc::new(TextSink {
            obs: Arc::clone(&self.obs),
            queue: Mutex::new(VecDeque::new()),
            cv: Condvar::new(),
            cap: self.cap,
            dead: AtomicBool::new(false),
            overflow: AtomicBool::new(false),
            stream: self.stream.try_clone()?,
        });
        let psink = Arc::clone(&sink);
        let pwriter = Arc::clone(writer);
        self.pusher = Some(
            std::thread::Builder::new()
                .name("cc-sub-push".into())
                .spawn(move || run_pusher(&psink, &pwriter))?,
        );
        self.sink = Some(Arc::clone(&sink));
        Ok(sink)
    }
}

/// Serves one text-protocol connection to completion. `prefix` replays
/// the bytes the event-loop shard consumed while sniffing the protocol,
/// so the handoff is invisible to the peer. A read timing out (the
/// configured per-connection idle timeout, armed via `SO_RCVTIMEO` by
/// the shard before handoff) closes with a typed `idle-timeout` reason.
/// `sub_queue_cap` bounds the per-connection subscription push queue
/// ([`crate::evloop::NetConfig::sub_queue_cap`]).
pub(crate) fn handle_connection(
    stream: TcpStream,
    prefix: Vec<u8>,
    client: &Client,
    shared: &ServerShared,
    sub_queue_cap: usize,
) -> std::io::Result<()> {
    let obs = client.observability();
    let mut guard = ConnGuard::new(Arc::clone(&obs));
    let reader =
        BufReader::new(std::io::Read::chain(std::io::Cursor::new(prefix), stream.try_clone()?));
    let writer = Arc::new(Mutex::new(BufWriter::new(stream.try_clone()?)));
    let mut st = SubConnState {
        obs: Arc::clone(&obs),
        stream,
        cap: sub_queue_cap,
        sink: None,
        pusher: None,
        subs: Vec::new(),
    };
    let res = serve_text(reader, &writer, client, shared, &obs, &mut guard, &mut st);
    // Subscription teardown: ephemeral subscriptions die with the
    // connection; durable ones detach and keep retaining for a later
    // `SUB ATTACH`.
    for (id, durable) in st.subs.drain(..) {
        if durable {
            client.detach_sub(id);
        } else {
            let _ = client.unsubscribe(id);
        }
    }
    if let Some(sink) = st.sink.take() {
        sink.dead.store(true, Ordering::Release);
        sink.cv.notify_all();
        guard.recorded = sink.overflow.load(Ordering::Acquire);
    }
    if let Some(h) = st.pusher.take() {
        let _ = h.join();
    }
    res
}

/// The request/reply loop of [`handle_connection`]. The writer is
/// behind a mutex shared with the pusher thread; it is locked per
/// request (after the line is read, so an idle connection never starves
/// event pushes) and replies flush before the lock drops, keeping the
/// reply-then-event order observable client-side.
fn serve_text(
    mut reader: BufReader<std::io::Chain<std::io::Cursor<Vec<u8>>, TcpStream>>,
    writer: &Arc<Mutex<BufWriter<TcpStream>>>,
    client: &Client,
    shared: &ServerShared,
    obs: &Arc<Obs>,
    guard: &mut ConnGuard,
    st: &mut SubConnState,
) -> std::io::Result<()> {
    let mut line = String::new();
    loop {
        match read_bounded_line(&mut reader, &mut line) {
            Ok(0) => {
                guard.reason = CloseReason::Eof;
                return Ok(());
            }
            Ok(_) => {}
            Err(e) if e.kind() == std::io::ErrorKind::InvalidData => {
                guard.reason = CloseReason::OversizedLine;
                let mut w = writer.lock();
                write_err(&mut w, obs, e)?;
                return w.flush();
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                guard.reason = CloseReason::IdleTimeout;
                return Ok(());
            }
            Err(e) => return Err(e),
        }
        if line.trim().is_empty() {
            continue;
        }
        let parsed = parse_request(line.trim());
        if parsed.is_ok() {
            // Count by verb only once the line parsed: a request that
            // never was one shows up in `request_errors_total` instead.
            if let Some(verb) = line.split_whitespace().next() {
                obs.metrics.record_request(verb);
            }
        }
        let mut w = writer.lock();
        match parsed {
            Err(msg) => {
                write_err(&mut w, obs, msg)?;
                // A rejected `B` header is a framing error: the peer is
                // about to stream body lines we cannot delimit, so
                // interpreting them as top-level requests would both
                // execute a rejected batch and desynchronize every later
                // reply. Close instead.
                if line.split_whitespace().next() == Some("B") {
                    guard.reason = CloseReason::BadBatchHeader;
                    return w.flush();
                }
            }
            Ok(Request::Insert(u, v)) => match client.insert(u, v) {
                Ok(()) => writeln!(w, "OK")?,
                Err(e) => write_err(&mut w, obs, e)?,
            },
            Ok(Request::Delete(u, v)) => match client.delete(u, v) {
                Ok(()) => writeln!(w, "OK")?,
                Err(e) => write_err(&mut w, obs, e)?,
            },
            Ok(Request::Query(u, v)) => match client.query(u, v) {
                // Exactly one bit, always: pre-QG clients parse this.
                Ok(c) => writeln!(w, "{}", u8::from(c))?,
                Err(e) => write_err(&mut w, obs, e)?,
            },
            Ok(Request::QueryGen(u, v)) => match client.query_gen(u, v) {
                // Staleness honesty: when the answer came from a sealed
                // generation the reply names it; the tag was decided
                // under the same lock as the answer, so a seal or commit
                // racing this request can never mislabel it.
                Ok((c, Some(generation))) => writeln!(w, "{} G {generation}", u8::from(c))?,
                Ok((c, None)) => writeln!(w, "{}", u8::from(c))?,
                Err(e) => write_err(&mut w, obs, e)?,
            },
            Ok(Request::Batch(k)) => {
                let mut ops = Vec::with_capacity(k.min(1 << 16));
                let mut bad: Option<String> = None;
                for _ in 0..k {
                    match read_bounded_line(&mut reader, &mut line) {
                        Ok(0) => {
                            // Truncated batch: peer went away.
                            guard.reason = CloseReason::TruncatedBatch;
                            return Ok(());
                        }
                        Ok(_) => {}
                        Err(e) if e.kind() == std::io::ErrorKind::InvalidData => {
                            // Oversized body line: the batch framing is
                            // unrecoverable, same as a rejected header.
                            guard.reason = CloseReason::OversizedLine;
                            write_err(&mut w, obs, e)?;
                            return w.flush();
                        }
                        Err(e)
                            if e.kind() == std::io::ErrorKind::WouldBlock
                                || e.kind() == std::io::ErrorKind::TimedOut =>
                        {
                            guard.reason = CloseReason::IdleTimeout;
                            return Ok(());
                        }
                        Err(e) => return Err(e),
                    }
                    match parse_batch_op(line.trim()) {
                        Ok(op) => ops.push(op),
                        Err(msg) => bad = bad.or(Some(msg)),
                    }
                }
                if let Some(msg) = bad {
                    write_err(&mut w, obs, msg)?;
                } else {
                    match client.submit(ops) {
                        Ok(answers) => {
                            let bits: String =
                                answers.iter().map(|&a| if a { '1' } else { '0' }).collect();
                            if bits.is_empty() {
                                writeln!(w, "OK")?;
                            } else {
                                writeln!(w, "OK {bits}")?;
                            }
                        }
                        Err(e) => write_err(&mut w, obs, e)?,
                    }
                }
            }
            Ok(Request::Label(v)) => match client.current_label(v) {
                Ok(l) => writeln!(w, "L {l}")?,
                Err(e) => write_err(&mut w, obs, e)?,
            },
            Ok(Request::Components) => writeln!(w, "C {}", client.num_components())?,
            Ok(Request::Topk(k)) => {
                let (items, epoch, generation, sealed) = client.topk(k);
                let mut reply = format!(
                    "K k={} epoch={epoch} gen={generation} sealed={}",
                    items.len(),
                    u8::from(sealed)
                );
                for (root, size) in items {
                    reply.push_str(&format!(" {root}:{size}"));
                }
                writeln!(w, "{reply}")?;
            }
            Ok(Request::Hist) => {
                let view = client.analytics();
                let mut reply = format!(
                    "H components={} epoch={} gen={} sealed={}",
                    view.components,
                    view.epoch,
                    view.generation,
                    u8::from(view.sealed)
                );
                for (b, &count) in view.hist.iter().enumerate() {
                    if count > 0 {
                        reply.push_str(&format!(" {b}:{count}"));
                    }
                }
                writeln!(w, "{reply}")?;
            }
            Ok(Request::Size(v)) => match client.component_size(v) {
                Ok((root, size)) => writeln!(w, "Z {size} root={root}")?,
                Err(e) => write_err(&mut w, obs, e)?,
            },
            Ok(Request::Epoch) => writeln!(w, "E {}", client.epoch())?,
            Ok(Request::Wait(epoch, timeout_ms)) => {
                match client.wait_for_epoch(epoch, Duration::from_millis(timeout_ms)) {
                    Ok(at) => writeln!(w, "E {at}")?,
                    Err(e) => write_err(&mut w, obs, e)?,
                }
            }
            Ok(Request::Gen) => {
                let info = client.generation_info();
                writeln!(
                    w,
                    "G {} dirty={} rebuilds={} forest={} nonforest={} absent={}",
                    info.generation,
                    u8::from(info.dirty),
                    info.counters.rebuilds,
                    info.counters.deletes_forest,
                    info.counters.deletes_nonforest,
                    info.counters.deletes_absent,
                )?;
            }
            Ok(Request::Quiesce(timeout_ms)) => {
                match client.quiesce(Duration::from_millis(timeout_ms)) {
                    Ok(generation) => writeln!(w, "G {generation}")?,
                    Err(e) => write_err(&mut w, obs, e)?,
                }
            }
            Ok(Request::Role) => writeln!(w, "R {}", client.role())?,
            Ok(Request::Stats) => writeln!(w, "S {}", client.stats())?,
            Ok(Request::Flush) => match client.flush_wal() {
                Ok(()) => writeln!(w, "OK")?,
                Err(e) => write_err(&mut w, obs, e)?,
            },
            Ok(Request::Snapshot) => match client.durable_snapshot() {
                Ok(epoch) => writeln!(w, "SNAP {epoch}")?,
                Err(e) => write_err(&mut w, obs, e)?,
            },
            Ok(Request::WalStats) => match client.wal_stats() {
                Ok(s) => writeln!(w, "W {s}")?,
                Err(e) => write_err(&mut w, obs, e)?,
            },
            Ok(Request::Metrics) => {
                for l in client.render_metrics() {
                    writeln!(w, "{l}")?;
                }
                writeln!(w, "# EOF")?;
            }
            Ok(Request::Trace(n)) => {
                for l in client.trace_events(n) {
                    writeln!(w, "{l}")?;
                }
                writeln!(w, "# EOF")?;
            }
            Ok(Request::Sub { component, u, v, durable }) => match st.ensure_sink(writer) {
                Err(e) => write_err(&mut w, obs, e)?,
                Ok(sink) => {
                    let kind = if component { SubKind::Component } else { SubKind::Pair };
                    match client.subscribe(kind, u, v, durable, Some(sink as Arc<dyn SubSink>)) {
                        Ok((id, epoch)) => {
                            st.subs.push((id, durable));
                            writeln!(w, "S {id} {epoch}")?;
                        }
                        Err(e) => write_err(&mut w, obs, e)?,
                    }
                }
            },
            Ok(Request::SubAttach { id, after_seq }) => match st.ensure_sink(writer) {
                Err(e) => write_err(&mut w, obs, e)?,
                Ok(sink) => match client.attach_sub(id, after_seq, sink as Arc<dyn SubSink>) {
                    Ok(_last_seq) => {
                        st.subs.push((id, true));
                        writeln!(w, "S {id} {}", client.epoch())?;
                    }
                    Err(e) => write_err(&mut w, obs, e)?,
                },
            },
            Ok(Request::Unsub(id)) => match client.unsubscribe(id) {
                Ok(()) => {
                    st.subs.retain(|&(sid, _)| sid != id);
                    writeln!(w, "OK")?;
                }
                Err(e) => write_err(&mut w, obs, e)?,
            },
            Ok(Request::Subs) => {
                for s in client.subs_info() {
                    let kind = match s.kind {
                        SubKind::Pair => "PAIR",
                        SubKind::Component => "COMPONENT",
                    };
                    writeln!(
                        w,
                        "{} {} {} {} {} {} {}",
                        s.id,
                        kind,
                        s.u,
                        s.v,
                        s.registered_epoch,
                        u8::from(s.durable),
                        u8::from(s.fired)
                    )?;
                }
                writeln!(w, "# EOF")?;
            }
            Ok(Request::Ping) => writeln!(w, "PONG")?,
            Ok(Request::Quit) => {
                guard.reason = CloseReason::Quit;
                return w.flush();
            }
            Ok(Request::Shutdown) => {
                writeln!(w, "BYE")?;
                w.flush()?;
                shared.request_shutdown();
                guard.reason = CloseReason::Shutdown;
                return Ok(());
            }
        }
        w.flush()?;
    }
}

/// A blocking client for the line protocol, used by the load generator,
/// the end-to-end tests, and anyone scripting against `connectit-serve`.
///
/// Subscription push lines (`! EVT …`) can arrive between replies; every
/// read path stashes them into an internal queue — drain it with
/// [`TcpClient::take_events`], or block for fresh ones with
/// [`TcpClient::poll_events`].
pub struct TcpClient {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    events: VecDeque<SubEvent>,
    /// Bytes of a line cut short by a [`TcpClient::poll_events`] read
    /// timeout, re-prefixed to the next read so no byte is ever lost.
    partial: String,
}

/// Parses one `! EVT …` push line back into a [`SubEvent`].
fn parse_event_line(line: &str) -> Option<SubEvent> {
    let rest = line.strip_prefix("! EVT ")?;
    let mut it = rest.split_whitespace();
    let id = it.next()?.parse().ok()?;
    let seq = it.next()?.parse().ok()?;
    let epoch = it.next()?.parse().ok()?;
    let generation = it.next()?.parse().ok()?;
    let (kind, u, v) = match it.next()? {
        "PAIR" => {
            let u = it.next()?.parse().ok()?;
            let v = it.next()?.parse().ok()?;
            (SubKind::Pair, u, v)
        }
        "COMPONENT" => {
            let v: u32 = it.next()?.parse().ok()?;
            (SubKind::Component, v, v)
        }
        _ => return None,
    };
    let root = it.next()?.strip_prefix("root=")?.parse().ok()?;
    let size = it.next()?.strip_prefix("size=")?.parse().ok()?;
    if it.next().is_some() {
        return None;
    }
    Some(SubEvent { id, kind, u, v, root, size, epoch, generation, seq })
}

fn proto_err(msg: impl Into<String>) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg.into())
}

/// Consumes one `key=value` token from an analytics reply.
fn parse_tagged(it: &mut std::str::SplitWhitespace<'_>, key: &str) -> Result<u64, ()> {
    let tok = it.next().ok_or(())?;
    let (k, v) = tok.split_once('=').ok_or(())?;
    if k != key {
        return Err(());
    }
    v.parse().map_err(|_| ())
}

impl TcpClient {
    /// Connects to a `connectit-serve` instance.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<TcpClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(TcpClient {
            reader: BufReader::new(stream.try_clone()?),
            writer: BufWriter::new(stream),
            events: VecDeque::new(),
            partial: String::new(),
        })
    }

    /// Reads one complete line, resuming any partial line a
    /// [`TcpClient::poll_events`] timeout left behind.
    fn next_line(&mut self) -> std::io::Result<String> {
        let mut line = std::mem::take(&mut self.partial);
        if self.reader.read_line(&mut line)? == 0 {
            if line.is_empty() {
                return Err(proto_err("connection closed by server"));
            }
            return Err(proto_err("connection closed mid-line"));
        }
        Ok(line.trim_end().to_string())
    }

    /// Validates and stashes one `! `-prefixed push line.
    fn stash_event_line(&mut self, line: &str) -> std::io::Result<()> {
        let ev = parse_event_line(line)
            .ok_or_else(|| proto_err(format!("unexpected push line {line:?}")))?;
        self.events.push_back(ev);
        Ok(())
    }

    fn read_reply(&mut self) -> std::io::Result<String> {
        loop {
            let line = self.next_line()?;
            if line.starts_with("! ") {
                self.stash_event_line(&line)?;
                continue;
            }
            if let Some(msg) = line.strip_prefix("ERR ") {
                return Err(proto_err(format!("server error: {msg}")));
            }
            return Ok(line);
        }
    }

    fn roundtrip(&mut self, request: &str) -> std::io::Result<String> {
        writeln!(self.writer, "{request}")?;
        self.writer.flush()?;
        self.read_reply()
    }

    /// `I u v`.
    pub fn insert(&mut self, u: u32, v: u32) -> std::io::Result<()> {
        let r = self.roundtrip(&format!("I {u} {v}"))?;
        if r == "OK" {
            Ok(())
        } else {
            Err(proto_err(format!("unexpected reply {r:?}")))
        }
    }

    /// `D u v`.
    pub fn delete(&mut self, u: u32, v: u32) -> std::io::Result<()> {
        let r = self.roundtrip(&format!("D {u} {v}"))?;
        if r == "OK" {
            Ok(())
        } else {
            Err(proto_err(format!("unexpected reply {r:?}")))
        }
    }

    /// `Q u v`: the bare connectivity bit (wire-stable across releases).
    /// Use [`TcpClient::query_gen`] to observe staleness.
    pub fn query(&mut self, u: u32, v: u32) -> std::io::Result<bool> {
        let r = self.roundtrip(&format!("Q {u} {v}"))?;
        match r.as_str() {
            "1" => Ok(true),
            "0" => Ok(false),
            _ => Err(proto_err(format!("unexpected reply {r:?}"))),
        }
    }

    /// `QG u v`, keeping the staleness report: `Some(generation)` when
    /// the reply carried a `G <gen>` suffix (a rebuild was in flight and
    /// the answer was served from that sealed generation), `None` when
    /// the answer is exact.
    pub fn query_gen(&mut self, u: u32, v: u32) -> std::io::Result<(bool, Option<u64>)> {
        let r = self.roundtrip(&format!("QG {u} {v}"))?;
        let mut it = r.split_whitespace();
        let connected = match it.next() {
            Some("1") => true,
            Some("0") => false,
            _ => return Err(proto_err(format!("unexpected reply {r:?}"))),
        };
        let generation = match (it.next(), it.next(), it.next()) {
            (None, _, _) => None,
            (Some("G"), Some(g), None) => {
                Some(g.parse().map_err(|_| proto_err(format!("unexpected reply {r:?}")))?)
            }
            _ => return Err(proto_err(format!("unexpected reply {r:?}"))),
        };
        Ok((connected, generation))
    }

    /// `B k`: submits a group of operations as one unit; returns the
    /// query answers in order. Groups larger than [`MAX_WIRE_BATCH`] are
    /// rejected locally (the server would refuse the header and close).
    pub fn submit(&mut self, ops: &[Update]) -> std::io::Result<Vec<bool>> {
        if ops.len() > MAX_WIRE_BATCH {
            return Err(proto_err(format!(
                "batch of {} ops exceeds the wire limit of {MAX_WIRE_BATCH}; split it",
                ops.len()
            )));
        }
        writeln!(self.writer, "B {}", ops.len())?;
        for op in ops {
            match *op {
                Update::Insert(u, v) => writeln!(self.writer, "I {u} {v}")?,
                Update::Delete(u, v) => writeln!(self.writer, "D {u} {v}")?,
                Update::Query(u, v) => writeln!(self.writer, "Q {u} {v}")?,
            }
        }
        self.writer.flush()?;
        let reply = self.read_reply()?;
        let rest = reply
            .strip_prefix("OK")
            .ok_or_else(|| proto_err(format!("unexpected reply {reply:?}")))?;
        Ok(rest.trim().chars().map(|c| c == '1').collect())
    }

    /// `LABEL v`.
    pub fn label(&mut self, v: u32) -> std::io::Result<u32> {
        let r = self.roundtrip(&format!("LABEL {v}"))?;
        r.strip_prefix("L ")
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| proto_err(format!("unexpected reply {r:?}")))
    }

    /// `COMPONENTS`.
    pub fn components(&mut self) -> std::io::Result<usize> {
        let r = self.roundtrip("COMPONENTS")?;
        r.strip_prefix("C ")
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| proto_err(format!("unexpected reply {r:?}")))
    }

    /// `TOPK [k]`: the largest components as `(root, size)` pairs in
    /// descending size order (singletons excluded), plus the analytics
    /// view's `(epoch, generation, sealed)` stamp. `None` asks for the
    /// server default ([`DEFAULT_TOPK`]).
    #[allow(clippy::type_complexity)]
    pub fn topk(&mut self, k: Option<usize>) -> std::io::Result<(Vec<(u32, u64)>, u64, u64, bool)> {
        let r = match k {
            Some(k) => self.roundtrip(&format!("TOPK {k}"))?,
            None => self.roundtrip("TOPK")?,
        };
        let rest =
            r.strip_prefix("K ").ok_or_else(|| proto_err(format!("unexpected reply {r:?}")))?;
        let mut it = rest.split_whitespace();
        let count = parse_tagged(&mut it, "k").map_err(|_| proto_err(r.clone()))?;
        let epoch = parse_tagged(&mut it, "epoch").map_err(|_| proto_err(r.clone()))?;
        let generation = parse_tagged(&mut it, "gen").map_err(|_| proto_err(r.clone()))?;
        let sealed = parse_tagged(&mut it, "sealed").map_err(|_| proto_err(r.clone()))? != 0;
        let mut items = Vec::with_capacity(count as usize);
        for tok in it {
            let (root, size) =
                tok.split_once(':').ok_or_else(|| proto_err(format!("bad pair in {r:?}")))?;
            items.push((
                root.parse().map_err(|_| proto_err(format!("bad pair in {r:?}")))?,
                size.parse().map_err(|_| proto_err(format!("bad pair in {r:?}")))?,
            ));
        }
        if items.len() as u64 != count {
            return Err(proto_err(format!("k={count} but {} pairs in {r:?}", items.len())));
        }
        Ok((items, epoch, generation, sealed))
    }

    /// `HIST`: `(components, dense histogram, epoch, generation,
    /// sealed)`. The histogram is expanded back to all
    /// [`crate::analytics::HIST_BUCKETS`] power-of-two buckets.
    #[allow(clippy::type_complexity)]
    pub fn hist(&mut self) -> std::io::Result<(u64, Vec<u64>, u64, u64, bool)> {
        let r = self.roundtrip("HIST")?;
        let rest =
            r.strip_prefix("H ").ok_or_else(|| proto_err(format!("unexpected reply {r:?}")))?;
        let mut it = rest.split_whitespace();
        let components = parse_tagged(&mut it, "components").map_err(|_| proto_err(r.clone()))?;
        let epoch = parse_tagged(&mut it, "epoch").map_err(|_| proto_err(r.clone()))?;
        let generation = parse_tagged(&mut it, "gen").map_err(|_| proto_err(r.clone()))?;
        let sealed = parse_tagged(&mut it, "sealed").map_err(|_| proto_err(r.clone()))? != 0;
        let mut hist = vec![0u64; crate::analytics::HIST_BUCKETS];
        for tok in it {
            let (b, count) =
                tok.split_once(':').ok_or_else(|| proto_err(format!("bad bucket in {r:?}")))?;
            let b: usize = b.parse().map_err(|_| proto_err(format!("bad bucket in {r:?}")))?;
            if b >= hist.len() {
                return Err(proto_err(format!("bucket {b} out of range in {r:?}")));
            }
            hist[b] = count.parse().map_err(|_| proto_err(format!("bad bucket in {r:?}")))?;
        }
        Ok((components, hist, epoch, generation, sealed))
    }

    /// `SIZE v`: `(size, root)` of `v`'s component.
    pub fn component_size(&mut self, v: u32) -> std::io::Result<(u64, u32)> {
        let r = self.roundtrip(&format!("SIZE {v}"))?;
        let rest =
            r.strip_prefix("Z ").ok_or_else(|| proto_err(format!("unexpected reply {r:?}")))?;
        let (size, root) = rest
            .split_once(" root=")
            .ok_or_else(|| proto_err(format!("unexpected reply {r:?}")))?;
        match (size.parse(), root.parse()) {
            (Ok(size), Ok(root)) => Ok((size, root)),
            _ => Err(proto_err(format!("unexpected reply {r:?}"))),
        }
    }

    /// `EPOCH`.
    pub fn epoch(&mut self) -> std::io::Result<u64> {
        let r = self.roundtrip("EPOCH")?;
        r.strip_prefix("E ")
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| proto_err(format!("unexpected reply {r:?}")))
    }

    /// `WAIT e ms`: blocks until the server's epoch reaches `epoch` (the
    /// read-your-writes barrier against a follower); returns the epoch
    /// actually reached. A lapsed timeout is a server-side `ERR`.
    pub fn wait_epoch(&mut self, epoch: u64, timeout_ms: u64) -> std::io::Result<u64> {
        let r = self.roundtrip(&format!("WAIT {epoch} {timeout_ms}"))?;
        r.strip_prefix("E ")
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| proto_err(format!("unexpected reply {r:?}")))
    }

    /// `GEN` (raw one-line generation info, `<gen> dirty=<0/1> …`).
    pub fn gen_line(&mut self) -> std::io::Result<String> {
        let r = self.roundtrip("GEN")?;
        r.strip_prefix("G ")
            .map(str::to_string)
            .ok_or_else(|| proto_err(format!("unexpected reply {r:?}")))
    }

    /// `QUIESCE ms`: blocks until no generation rebuild is in flight;
    /// returns the clean generation then serving. A lapsed timeout is a
    /// server-side `ERR`.
    pub fn quiesce(&mut self, timeout_ms: u64) -> std::io::Result<u64> {
        let r = self.roundtrip(&format!("QUIESCE {timeout_ms}"))?;
        r.strip_prefix("G ")
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| proto_err(format!("unexpected reply {r:?}")))
    }

    /// `ROLE`: `"primary"` or `"follower"`.
    pub fn role(&mut self) -> std::io::Result<String> {
        let r = self.roundtrip("ROLE")?;
        r.strip_prefix("R ")
            .map(str::to_string)
            .ok_or_else(|| proto_err(format!("unexpected reply {r:?}")))
    }

    /// `STATS` (raw one-line dump).
    pub fn stats_line(&mut self) -> std::io::Result<String> {
        let r = self.roundtrip("STATS")?;
        r.strip_prefix("S ")
            .map(str::to_string)
            .ok_or_else(|| proto_err(format!("unexpected reply {r:?}")))
    }

    /// `FLUSH`: fsync the server's WAL now, regardless of policy.
    pub fn flush_wal(&mut self) -> std::io::Result<()> {
        match self.roundtrip("FLUSH")?.as_str() {
            "OK" => Ok(()),
            other => Err(proto_err(format!("unexpected reply {other:?}"))),
        }
    }

    /// `SNAPSHOT`: write a checkpoint record; returns its epoch.
    pub fn durable_snapshot(&mut self) -> std::io::Result<u64> {
        let r = self.roundtrip("SNAPSHOT")?;
        r.strip_prefix("SNAP ")
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| proto_err(format!("unexpected reply {r:?}")))
    }

    /// `WALSTATS` (raw one-line dump).
    pub fn wal_stats_line(&mut self) -> std::io::Result<String> {
        let r = self.roundtrip("WALSTATS")?;
        r.strip_prefix("W ")
            .map(str::to_string)
            .ok_or_else(|| proto_err(format!("unexpected reply {r:?}")))
    }

    /// Reads a multi-line reply (`METRICS` / `TRACE`) up to its `# EOF`
    /// terminator; the terminator is consumed and not returned.
    fn read_multiline(&mut self) -> std::io::Result<Vec<String>> {
        let mut out = Vec::new();
        loop {
            let line = match self.next_line() {
                Ok(line) => line,
                Err(e) if e.kind() == std::io::ErrorKind::InvalidData => {
                    return Err(proto_err("connection closed mid-dump (no `# EOF`)"));
                }
                Err(e) => return Err(e),
            };
            if line.starts_with("! ") {
                self.stash_event_line(&line)?;
                continue;
            }
            if line == "# EOF" {
                return Ok(out);
            }
            if let Some(msg) = line.strip_prefix("ERR ") {
                return Err(proto_err(format!("server error: {msg}")));
            }
            out.push(line.to_string());
        }
    }

    /// `METRICS`: the full Prometheus-style exposition, one element per
    /// line (`# TYPE …` comments included, `# EOF` terminator stripped).
    pub fn metrics(&mut self) -> std::io::Result<Vec<String>> {
        writeln!(self.writer, "METRICS")?;
        self.writer.flush()?;
        self.read_multiline()
    }

    /// `TRACE [n]`: the last `n` flight-recorder events (server default
    /// when `None`), oldest first, `# EOF` terminator stripped.
    pub fn trace(&mut self, n: Option<usize>) -> std::io::Result<Vec<String>> {
        match n {
            Some(n) => writeln!(self.writer, "TRACE {n}")?,
            None => writeln!(self.writer, "TRACE")?,
        }
        self.writer.flush()?;
        self.read_multiline()
    }

    /// `PING`.
    pub fn ping(&mut self) -> std::io::Result<()> {
        match self.roundtrip("PING")?.as_str() {
            "PONG" => Ok(()),
            other => Err(proto_err(format!("unexpected reply {other:?}"))),
        }
    }

    /// `SHUTDOWN`: asks the server process to stop accepting and exit.
    pub fn shutdown_server(&mut self) -> std::io::Result<()> {
        match self.roundtrip("SHUTDOWN")?.as_str() {
            "BYE" => Ok(()),
            other => Err(proto_err(format!("unexpected reply {other:?}"))),
        }
    }

    fn parse_sub_reply(r: &str) -> std::io::Result<(u64, u64)> {
        let rest =
            r.strip_prefix("S ").ok_or_else(|| proto_err(format!("unexpected reply {r:?}")))?;
        let (id, epoch) =
            rest.split_once(' ').ok_or_else(|| proto_err(format!("unexpected reply {r:?}")))?;
        match (id.parse(), epoch.parse()) {
            (Ok(id), Ok(epoch)) => Ok((id, epoch)),
            _ => Err(proto_err(format!("unexpected reply {r:?}"))),
        }
    }

    /// `SUB u v [DURABLE]`: returns `(id, registration_epoch)`.
    pub fn subscribe_pair(&mut self, u: u32, v: u32, durable: bool) -> std::io::Result<(u64, u64)> {
        let req = if durable { format!("SUB {u} {v} DURABLE") } else { format!("SUB {u} {v}") };
        let r = self.roundtrip(&req)?;
        Self::parse_sub_reply(&r)
    }

    /// `SUB COMPONENT v [DURABLE]`: returns `(id, registration_epoch)`.
    pub fn subscribe_component(&mut self, v: u32, durable: bool) -> std::io::Result<(u64, u64)> {
        let req = if durable {
            format!("SUB COMPONENT {v} DURABLE")
        } else {
            format!("SUB COMPONENT {v}")
        };
        let r = self.roundtrip(&req)?;
        Self::parse_sub_reply(&r)
    }

    /// `SUB ATTACH id [after_seq]`: re-binds this connection to a
    /// durable subscription; the server replays retained events with
    /// `seq > after_seq` (they land in the event queue). Returns
    /// `(id, epoch)`.
    pub fn attach_sub(&mut self, id: u64, after_seq: u64) -> std::io::Result<(u64, u64)> {
        let r = self.roundtrip(&format!("SUB ATTACH {id} {after_seq}"))?;
        Self::parse_sub_reply(&r)
    }

    /// `UNSUB id`.
    pub fn unsubscribe(&mut self, id: u64) -> std::io::Result<()> {
        match self.roundtrip(&format!("UNSUB {id}"))?.as_str() {
            "OK" => Ok(()),
            other => Err(proto_err(format!("unexpected reply {other:?}"))),
        }
    }

    /// `SUBS`: the raw subscription-list lines (`# EOF` stripped).
    pub fn subs(&mut self) -> std::io::Result<Vec<String>> {
        writeln!(self.writer, "SUBS")?;
        self.writer.flush()?;
        self.read_multiline()
    }

    /// Drains the already-stashed push events without touching the wire.
    pub fn take_events(&mut self) -> Vec<SubEvent> {
        self.events.drain(..).collect()
    }

    /// Blocks up to `timeout` for push events: returns stashed ones
    /// immediately, otherwise reads the socket under a read timeout.
    /// Must only be called with no request in flight (the only lines
    /// that can arrive are pushes). An empty result means the timeout
    /// lapsed quietly.
    pub fn poll_events(&mut self, timeout: Duration) -> std::io::Result<Vec<SubEvent>> {
        let deadline = Instant::now() + timeout;
        while self.events.is_empty() {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            self.reader.get_ref().set_read_timeout(Some(deadline - now))?;
            let mut line = std::mem::take(&mut self.partial);
            let res = self.reader.read_line(&mut line);
            self.reader.get_ref().set_read_timeout(None)?;
            match res {
                Ok(0) => return Err(proto_err("connection closed by server")),
                Ok(_) if line.ends_with('\n') => {
                    let t = line.trim_end();
                    if !t.is_empty() {
                        if let Some(msg) = t.strip_prefix("ERR ") {
                            return Err(proto_err(format!("server error: {msg}")));
                        }
                        self.stash_event_line(t)?;
                    }
                }
                Ok(_) => return Err(proto_err("connection closed mid-line")),
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    // Keep whatever bytes arrived before the timeout; the
                    // next read resumes the line.
                    self.partial = line;
                    break;
                }
                Err(e) => return Err(e),
            }
        }
        Ok(self.events.drain(..).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_grammar() {
        assert_eq!(parse_request("I 3 4"), Ok(Request::Insert(3, 4)));
        assert_eq!(parse_request("D 3 4"), Ok(Request::Delete(3, 4)));
        assert_eq!(parse_request("Q 0 9"), Ok(Request::Query(0, 9)));
        assert_eq!(parse_request("QG 0 9"), Ok(Request::QueryGen(0, 9)));
        assert!(parse_request("QG 0").is_err());
        assert!(parse_request("QG 0 9 2").is_err());
        assert_eq!(parse_request("B 128"), Ok(Request::Batch(128)));
        assert_eq!(parse_request("LABEL 7"), Ok(Request::Label(7)));
        assert_eq!(parse_request("TOPK"), Ok(Request::Topk(DEFAULT_TOPK)));
        assert_eq!(parse_request("TOPK 5"), Ok(Request::Topk(5)));
        assert!(parse_request("TOPK x").is_err());
        assert!(parse_request("TOPK 5 6").is_err());
        assert_eq!(parse_request("HIST"), Ok(Request::Hist));
        assert!(parse_request("HIST 1").is_err());
        assert_eq!(parse_request("SIZE 9"), Ok(Request::Size(9)));
        assert!(parse_request("SIZE").is_err());
        assert!(parse_request("SIZE x").is_err());
        assert!(parse_request("SIZE 9 1").is_err());
        assert_eq!(
            parse_request("SUB 1 2"),
            Ok(Request::Sub { component: false, u: 1, v: 2, durable: false })
        );
        assert_eq!(
            parse_request("SUB 1 2 DURABLE"),
            Ok(Request::Sub { component: false, u: 1, v: 2, durable: true })
        );
        assert_eq!(
            parse_request("SUB COMPONENT 7"),
            Ok(Request::Sub { component: true, u: 7, v: 7, durable: false })
        );
        assert_eq!(
            parse_request("SUB COMPONENT 7 DURABLE"),
            Ok(Request::Sub { component: true, u: 7, v: 7, durable: true })
        );
        assert_eq!(parse_request("SUB ATTACH 3"), Ok(Request::SubAttach { id: 3, after_seq: 0 }));
        assert_eq!(parse_request("SUB ATTACH 3 9"), Ok(Request::SubAttach { id: 3, after_seq: 9 }));
        assert!(parse_request("SUB").is_err());
        assert!(parse_request("SUB 1").is_err());
        assert!(parse_request("SUB 1 2 FOREVER").is_err());
        assert!(parse_request("SUB 1 2 DURABLE 3").is_err());
        assert!(parse_request("SUB COMPONENT").is_err());
        assert!(parse_request("SUB ATTACH x").is_err());
        assert_eq!(parse_request("UNSUB 5"), Ok(Request::Unsub(5)));
        assert!(parse_request("UNSUB").is_err());
        assert!(parse_request("UNSUB x").is_err());
        assert!(parse_request("UNSUB 5 6").is_err());
        assert_eq!(parse_request("SUBS"), Ok(Request::Subs));
        assert!(parse_request("SUBS 1").is_err());
        assert_eq!(parse_request("  PING "), Ok(Request::Ping));
        assert_eq!(parse_request("SHUTDOWN"), Ok(Request::Shutdown));
        assert_eq!(parse_request("FLUSH"), Ok(Request::Flush));
        assert_eq!(parse_request("SNAPSHOT"), Ok(Request::Snapshot));
        assert_eq!(parse_request("WALSTATS"), Ok(Request::WalStats));
        assert_eq!(parse_request("METRICS"), Ok(Request::Metrics));
        assert_eq!(parse_request("TRACE"), Ok(Request::Trace(DEFAULT_TRACE_EVENTS)));
        assert_eq!(parse_request("TRACE 7"), Ok(Request::Trace(7)));
        assert!(parse_request("METRICS all").is_err());
        assert!(parse_request("TRACE x").is_err());
        assert!(parse_request("TRACE 7 9").is_err());
        assert_eq!(parse_request("ROLE"), Ok(Request::Role));
        assert_eq!(parse_request("WAIT 9"), Ok(Request::Wait(9, DEFAULT_WAIT_TIMEOUT_MS)));
        assert_eq!(parse_request("WAIT 9 250"), Ok(Request::Wait(9, 250)));
        assert_eq!(parse_request("GEN"), Ok(Request::Gen));
        assert_eq!(parse_request("QUIESCE"), Ok(Request::Quiesce(DEFAULT_WAIT_TIMEOUT_MS)));
        assert_eq!(parse_request("QUIESCE 250"), Ok(Request::Quiesce(250)));
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
    }

    #[test]
    fn text_verbs_cover_the_parser() {
        // Every exported verb must parse to *something* other than
        // "unknown command" (arguments may still be required).
        for verb in TEXT_VERBS {
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
}
