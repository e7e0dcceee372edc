//! The sharded readiness event loop: the one front door.
//!
//! `start` (via [`crate::net::serve`]) binds the query listener — and,
//! with [`NetConfig::replication_port`], the replication listener — and
//! spawns N shard threads (`cc-net-<i>`), each owning its connections
//! through the offline `mio` shim (epoll on Linux, `poll(2)` fallback).
//! Shard 0 polls the listeners beside its connections and round-robins
//! accepted sockets — `TCP_NODELAY` already set — to the shards' inboxes,
//! waking each one's poll. No other thread serves the wire.
//!
//! ## Two codecs, one dispatcher
//!
//! A shard reads the first byte of each adopted connection: `0xCC` (the
//! [`crate::binproto::STREAM_MAGIC`] opener, which no text verb starts
//! with) selects the binary codec, anything else the text codec of
//! [`crate::net`]. Both decode into the [`crate::request`] IR and feed
//! the same dispatcher, whose [`Reply`] the connection's codec encodes.
//! Routing comes from the verb table: follower refusal from
//! [`crate::request::VerbSpec::update`], parking from
//! [`crate::request::VerbSpec::blocking`].
//!
//! A binary connection pipelines: every complete frame is dispatched as
//! soon as it is read, and replies complete out of order by correlation
//! id. A text connection has at most one request in flight: the shard
//! stops reading it (and drops its read interest) until that request's
//! reply is queued, then resumes with the lines already buffered, so
//! unparsed input stays bounded and replies keep request order.
//!
//! ## Cross-connection batch execution
//!
//! Each poll round, a shard drains every ready connection *first*, then
//! executes the round's decoded requests in two grouped strokes:
//!
//! - `Q`/`QG` reads from either door (and, on a follower, every
//!   query-only `B` body) go through **one**
//!   [`crate::service::Client::query_many_tagged`] call — one
//!   epoch-snapshot/view acquire answers every read the round collected,
//!   across all connections. The batcher publishes a batch before it
//!   acks it, so a connection reads its own acknowledged writes;
//! - all `I`/`D`/`B` updates concatenate into **one**
//!   [`crate::service::Client::submit_tagged_async`] group per round, so
//!   the batch former sees one submission where thread-per-connection
//!   served dozens, and the shard never parks waiting for the batch — the
//!   ticket's completion callback wakes the poll and answers are routed
//!   back per request.
//!
//! The coalesce width (requests per grouped stroke) is recorded in
//! `net_coalesce_width`; per-connection in-flight depth in
//! `net_pipeline_depth`; binary frames in `frames_total{dir=…}`;
//! per-shard connection counts in `net_shard_connections{shard=…}`.
//!
//! ## Backpressure and lifecycle
//!
//! Replies queue on their connection's write queue as the round answers
//! them, and each connection is flushed once per round, after the
//! round's strokes, parked tickets and pushed events: 64 pipelined
//! frames answered in one round leave in one `write(2)`, not 64
//! (`net_writes_total` counts the calls). Leftovers drive `WRITABLE`
//! interest. A write queue above [`NetConfig::max_wbuf`] stops the shard
//! reading that connection, on either door, until the peer drains it,
//! bounding memory per slow reader; a subscription event that the
//! socket's refusals push past the cap closes the connection
//! `sub-overflow`, on either door. Frame-level damage answers
//! a correlation-id-0 `ERR` frame and closes `bad-frame`; idle
//! connections with nothing in flight (when [`NetConfig::idle_timeout`]
//! is set) close `idle-timeout`; server stop closes every connection
//! `shutdown`; every close lands in the flight recorder.
//!
//! ## Parked requests
//!
//! Nothing waits on a thread. A grouped submission and a blocking verb
//! (`WAIT`, `QUIESCE`, `FLUSH`, `SNAPSHOT`, each a `service::Barrier`)
//! both come back from the service as a ticket whose notify wakes the
//! poll; the shard parks it, with the verb's deadline, in one list it
//! drains every round. A barrier that holds already is answered inline;
//! an expired deadline answers the verb's timeout; poll sleeps no longer
//! than the nearest deadline; a closing connection drops its parked
//! barriers. `waits_parked` counts the parked barriers over all shards.
//!
//! ## Followers
//!
//! A connection from the replication listener is a follower: the shard
//! reads its `'H'` handshake with a frame assembler expecting
//! [`crate::replication::REPL_MAGIC`], then ships it the WAL through a
//! `replication::Follower`, one write budget (`max_wbuf`) per
//! round, resuming on `WRITABLE`. At the live tail the follower parks on
//! the epoch waiter list like a `WAIT` on the next epoch, with the
//! heartbeat as its deadline. A parked follower counts as a request in
//! flight, so the idle sweep spares it; one stalled on a full socket does
//! not. Closing the connection unregisters its telemetry slot.

use crate::binproto::{
    decode_request, encode_event, encode_reply, frame, FrameAssembler, RequestError, SNIFF_BYTE,
};
use crate::net::{self, Decoded, LineDecoder, TcpServer};
use crate::obs::{CloseReason, Event, Gauge, Obs};
use crate::replication::{Follower, REPL_MAGIC};
use crate::request::{endpoints, Reply, Request, Verb};
use crate::service::{
    Barrier, Client, Notify, Role, Service, ServiceError, SubmitTicket, TaggedAnswers, Ticket,
};
use crate::subs::{SubEvent, SubKind, SubSink};
use connectit::Update;
use mio::{Events, Interest, Poll, Token, Waker};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Front-end tuning for [`crate::net::serve_with`].
#[derive(Clone, Debug)]
pub struct NetConfig {
    /// Event-loop shards (threads). Each owns its connections end to end.
    pub shards: usize,
    /// Per-connection idle timeout, text and binary alike: a connection
    /// with nothing in flight that reads nothing for this long closes.
    /// `None` (the default) never times a connection out.
    pub idle_timeout: Option<Duration>,
    /// Write-queue cap per connection: above it, read interest is dropped
    /// until the peer drains, so one slow reader cannot balloon memory. A
    /// subscription event that pushes the queue past it closes the
    /// connection with a typed `sub-overflow`. A follower is fed the WAL
    /// up to it per round.
    pub max_wbuf: usize,
    /// Serves the WAL-shipping replication stream (`CCREPL02`, see
    /// [`crate::replication`]) on this port of the query listener's IP
    /// (0 picks a free one, read back with
    /// [`TcpServer::replication_addr`]). It ships the service's own WAL:
    /// an in-memory service fails to start with
    /// [`ServiceError::DurabilityDisabled`]. `None` (the default) serves
    /// no followers.
    pub replication_port: Option<u16>,
}

impl Default for NetConfig {
    fn default() -> NetConfig {
        let shards = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4).clamp(1, 8);
        NetConfig { shards, idle_timeout: None, max_wbuf: 1 << 20, replication_port: None }
    }
}

/// The waker's token; connections get tokens from 1 up, never reused.
const WAKER: Token = Token(0);

/// How long a shard sleeps in poll with nothing ready: bounds shutdown
/// latency and idle-sweep granularity.
const POLL_TICK: Duration = Duration::from_millis(100);

/// Binds `addr` (and the replication port, if any) and runs the sharded
/// front end over `service`.
pub(crate) fn start(
    service: &Service,
    addr: impl ToSocketAddrs,
    cfg: NetConfig,
) -> io::Result<TcpServer> {
    let client = service.client();
    let mut listeners = vec![TcpListener::bind(addr)?];
    if let Some(port) = cfg.replication_port {
        client.wal_dir().map_err(|e| io::Error::new(io::ErrorKind::Unsupported, e))?;
        listeners.push(TcpListener::bind((listeners[0].local_addr()?.ip(), port))?);
    }
    let addrs = listeners.iter().map(TcpListener::local_addr).collect::<io::Result<_>>()?;
    let nshards = cfg.shards.max(1);
    let polls = (0..nshards).map(|_| Poll::new()).collect::<io::Result<Vec<_>>>()?;
    for (i, listener) in listeners.iter().enumerate() {
        listener.set_nonblocking(true)?;
        polls[0].registry().register(listener, Token(usize::MAX - i), Interest::READABLE)?;
    }
    let wakers = polls.iter().map(|p| Waker::new(p.registry(), WAKER).map(Arc::new));
    let shared = Arc::new(ServerShared {
        shutdown: AtomicBool::new(false),
        wakers: wakers.collect::<io::Result<_>>()?,
        inboxes: (0..nshards).map(|_| Inbox::default()).collect(),
    });
    let obs = client.observability();
    let gauges = obs.metrics.register_net_shards(nshards);
    let (num_vertices, is_follower) = (client.num_vertices(), client.role() == Role::Follower);
    let shards = polls.into_iter().zip(gauges).enumerate().map(|(i, (poll, gauge))| {
        let mut shard = Shard {
            client: client.clone(),
            obs: Arc::clone(&obs),
            shared: Arc::clone(&shared),
            poll,
            index: i,
            listeners: std::mem::take(&mut listeners),
            next: 0,
            events: PushQueue::default(),
            conns: HashMap::new(),
            next_token: 1,
            parked: Vec::new(),
            resume: Vec::new(),
            dirty: Vec::new(),
            gauge,
            idle_timeout: cfg.idle_timeout,
            max_wbuf: cfg.max_wbuf,
            num_vertices,
            is_follower,
        };
        std::thread::Builder::new().name(format!("cc-net-{i}")).spawn(move || shard.run())
    });
    let shards = shards.collect::<io::Result<_>>()?;
    Ok(TcpServer { addrs, shared, shards })
}

/// Sockets a shard has been handed, each with the door it starts behind.
type Inbox = Arc<Mutex<Vec<(TcpStream, Door)>>>;

/// What the shards and their [`TcpServer`] share.
pub(crate) struct ServerShared {
    shutdown: AtomicBool,
    /// Each shard's poll waker and inbox, by shard index.
    wakers: Vec<Arc<Waker>>,
    inboxes: Vec<Inbox>,
}

impl ServerShared {
    /// Raises the shutdown flag and wakes every shard to see it: no
    /// wake-up connection is needed, so shutdown works even when the bound
    /// address is not self-connectable (e.g. 0.0.0.0).
    pub(crate) fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
        for waker in &self.wakers {
            let _ = waker.wake();
        }
    }
}

/// How a connection's bytes are framed: by its listener, then on the
/// query listener by its first byte.
enum Door {
    /// Nothing read yet.
    Unsniffed,
    /// Pipelined frames.
    Binary(FrameAssembler),
    /// Lines, one request in flight at a time.
    Text(LineDecoder),
    /// A replication connection awaiting its `'H'` frame.
    Hello(FrameAssembler),
    /// A follower past its handshake, fed from the WAL.
    Follower(Box<Follower>),
}

/// One connection owned by a shard.
struct Conn {
    stream: TcpStream,
    door: Door,
    wbuf: Vec<u8>,
    wpos: usize,
    /// The poll registration; `None` while deregistered (a text
    /// connection with a request in flight and nothing to write).
    interest: Option<Interest>,
    /// Requests dispatched but not yet answered on this connection; on a
    /// follower, 1 while it is parked at the live tail.
    inflight: u64,
    /// The text door's request in flight, whose reply line it spells.
    verb: Verb,
    last_activity: Instant,
    /// Set when the connection must close once its write queue drains.
    closing: Option<CloseReason>,
    /// Subscriptions registered or attached on this connection, each
    /// durable one with the sink it bound. Ephemeral ones die with the
    /// connection; a durable one loses that sink, if it still holds it,
    /// and keeps accumulating events server-side for a later `SUB ATTACH`.
    subs: Vec<(u64, Option<Arc<dyn SubSink>>)>,
}

impl Conn {
    fn is_text(&self) -> bool {
        matches!(self.door, Door::Text(_))
    }

    fn backlog(&self) -> usize {
        self.wbuf.len() - self.wpos
    }

    /// A follower short of the live tail: it has WAL left to ship, so it
    /// asks for `WRITABLE` even with an empty queue.
    fn pumping(&self) -> bool {
        matches!(self.door, Door::Follower(_)) && self.inflight == 0 && self.closing.is_none()
    }

    /// Whether the shard may read more input now: on either door, not
    /// while its write queue is above `max_wbuf`; on the text door, not
    /// while its request is in flight either.
    fn reads(&self, max_wbuf: usize) -> bool {
        self.closing.is_none()
            && self.backlog() <= max_wbuf
            && !(self.is_text() && self.inflight > 0)
    }
}

/// A shard's subscription push queue: `(token, registration corr, event)`
/// triples parked by delivering threads, drained each poll round.
type PushQueue = Arc<Mutex<Vec<(usize, u64, SubEvent)>>>;

/// A subscription's event sink: parks each event on the shard's push
/// queue and wakes the shard, which encodes it in the connection's codec.
struct Sink {
    events: PushQueue,
    waker: Arc<Waker>,
    token: usize,
    /// Correlation id of the `SUB` registration; every binary event frame
    /// for this subscription carries it.
    corr: u64,
}

impl SubSink for Sink {
    fn deliver(&self, ev: &SubEvent) {
        self.events.lock().push((self.token, self.corr, *ev));
        let _ = self.waker.wake();
    }
}

/// A request's share of one grouped stroke: its answers are
/// `answers[start..start + len]`.
struct Slot {
    token: usize,
    corr: u64,
    verb: Verb,
    start: usize,
    len: usize,
}

/// A ticket the shard holds until it resolves.
enum Parked {
    /// A follower at the live tail, woken by the next epoch or, at its
    /// deadline, for a heartbeat.
    Tail { token: usize, ticket: Arc<Ticket<u64>>, deadline: Instant },
    /// A grouped submission in flight at the batch former.
    Group(SubmitTicket, Vec<Slot>),
    /// A blocking verb; a `WAIT` or `QUIESCE` expires at its deadline.
    Barrier {
        token: usize,
        corr: u64,
        verb: Verb,
        barrier: Barrier,
        ticket: Arc<Ticket<u64>>,
        deadline: Option<Instant>,
    },
}

/// Per-round accumulation across all ready connections.
#[derive(Default)]
struct Round {
    /// The direct-read stroke: pairs answered by one view acquire.
    pairs: Vec<(u32, u32)>,
    reads: Vec<Slot>,
    /// The grouped submission: ops for the batch former.
    ops: Vec<Update>,
    group_queries: usize,
    writes: Vec<Slot>,
}

impl Round {
    fn read(
        &mut self,
        token: usize,
        corr: u64,
        verb: Verb,
        pairs: impl IntoIterator<Item = (u32, u32)>,
    ) {
        let start = self.pairs.len();
        self.pairs.extend(pairs);
        self.reads.push(Slot { token, corr, verb, start, len: self.pairs.len() - start });
    }

    fn submit(
        &mut self,
        token: usize,
        corr: u64,
        verb: Verb,
        ops: impl IntoIterator<Item = Update>,
    ) {
        let first = self.ops.len();
        self.ops.extend(ops);
        let len = self.ops[first..].iter().filter(|op| matches!(op, Update::Query(..))).count();
        self.writes.push(Slot { token, corr, verb, start: self.group_queries, len });
        self.group_queries += len;
    }
}

struct Shard {
    client: Client,
    obs: Arc<Obs>,
    shared: Arc<ServerShared>,
    poll: Poll,
    index: usize,
    /// Shard 0's listeners — the query listener, then the replication
    /// listener if any — polled as `Token(usize::MAX - i)`; the other
    /// shards hold none.
    listeners: Vec<TcpListener>,
    /// The shard handed shard 0's next accepted socket.
    next: usize,
    /// Subscription events pushed by [`Sink`]s from delivering threads;
    /// drained each poll round.
    events: PushQueue,
    conns: HashMap<usize, Conn>,
    next_token: usize,
    parked: Vec<Parked>,
    /// Text connections whose reply was queued with lines still buffered:
    /// no readable event will arrive for bytes already read.
    resume: Vec<usize>,
    /// Connections read or replied to since the last [`Shard::flush_dirty`].
    dirty: Vec<usize>,
    gauge: Arc<Gauge>,
    idle_timeout: Option<Duration>,
    max_wbuf: usize,
    num_vertices: usize,
    is_follower: bool,
}

impl Shard {
    fn run(&mut self) {
        let mut events = Events::with_capacity(256);
        while !self.shared.shutdown.load(Ordering::Acquire) {
            let now = Instant::now();
            let tick = self.parked.iter().fold(POLL_TICK, |tick, p| match p {
                Parked::Barrier { deadline: Some(at), .. } | Parked::Tail { deadline: at, .. } => {
                    tick.min(at.saturating_duration_since(now))
                }
                _ => tick,
            });
            if self.poll.poll(&mut events, Some(tick)).is_err() {
                break;
            }
            self.adopt_new();
            let ready: Vec<(usize, bool, bool)> = events
                .iter()
                .filter(|e| e.token() != WAKER)
                .map(|e| (e.token().0, e.is_readable(), e.is_writable()))
                .collect();
            let mut round = Round::default();
            for &(token, readable, writable) in &ready {
                if token > usize::MAX - self.listeners.len() {
                    self.accept(usize::MAX - token);
                    continue;
                }
                if readable {
                    self.handle_readable(token, &mut round);
                }
                if writable {
                    self.flush_conn(token);
                    self.pump(token);
                }
            }
            self.execute_round(round);
            self.drain_parked();
            self.drain_events();
            self.flush_dirty();
            self.resume_text();
            self.sweep_idle();
        }
        // Orderly teardown: every surviving connection closes `shutdown`.
        let tokens: Vec<usize> = self.conns.keys().copied().collect();
        for t in tokens {
            self.close(t, CloseReason::Shutdown);
        }
    }

    /// Takes everything pending on listener `i` and deals it round robin
    /// to the shards' inboxes, waking each receiving shard. A failed accept
    /// ends the round; level-triggered readiness retries the rest.
    fn accept(&mut self, i: usize) {
        while let Ok((stream, _)) = self.listeners[i].accept() {
            // TCP_NODELAY on every accepted socket: pipelined frames and
            // one-line replies must not eat Nagle delays.
            if stream.set_nodelay(true).and_then(|()| stream.set_nonblocking(true)).is_err() {
                continue;
            }
            let door = match i {
                0 => Door::Unsniffed,
                _ => Door::Hello(FrameAssembler::with_magic(*REPL_MAGIC)),
            };
            let to = self.next;
            self.next = (to + 1) % self.shared.inboxes.len();
            self.shared.inboxes[to].lock().push((stream, door));
            let _ = self.shared.wakers[to].wake();
        }
    }

    fn adopt_new(&mut self) {
        let fresh = std::mem::take(&mut *self.shared.inboxes[self.index].lock());
        for (stream, door) in fresh {
            let token = self.next_token;
            self.next_token += 1;
            if self.poll.registry().register(&stream, Token(token), Interest::READABLE).is_err() {
                continue;
            }
            self.conns.insert(
                token,
                Conn {
                    stream,
                    door,
                    wbuf: Vec::new(),
                    wpos: 0,
                    interest: Some(Interest::READABLE),
                    inflight: 0,
                    verb: Verb::Ping,
                    last_activity: Instant::now(),
                    closing: None,
                    subs: Vec::new(),
                },
            );
            self.gauge.inc();
        }
    }

    /// Reads what the connection may take, sniffs the door on first
    /// contact, and dispatches what its codec decodes into the round.
    fn handle_readable(&mut self, token: usize, round: &mut Round) {
        let mut tmp = [0u8; 1 << 16];
        loop {
            let mut frames: Vec<Vec<u8>> = Vec::new();
            let mut poison = None;
            let hello;
            {
                let Some(conn) = self.conns.get_mut(&token) else { return };
                if !conn.reads(self.max_wbuf) {
                    break;
                }
                match conn.stream.read(&mut tmp) {
                    Ok(0) => match &mut conn.door {
                        Door::Text(dec) => dec.end(),
                        _ => return self.close(token, CloseReason::Eof),
                    },
                    Ok(n) => {
                        conn.last_activity = Instant::now();
                        if let Door::Unsniffed = conn.door {
                            // The one moment either door's connection
                            // enters the global counters.
                            self.obs.metrics.connections_total.inc();
                            self.obs.metrics.connections_live.inc();
                            conn.door = if tmp[0] == SNIFF_BYTE {
                                Door::Binary(FrameAssembler::new())
                            } else {
                                Door::Text(LineDecoder::default())
                            };
                        }
                        match &mut conn.door {
                            Door::Text(dec) => dec.push(&tmp[..n]),
                            Door::Binary(asm) | Door::Hello(asm) => {
                                asm.push(&tmp[..n]);
                                loop {
                                    match asm.next_frame() {
                                        Ok(Some(payload)) => frames.push(payload),
                                        Ok(None) => break,
                                        Err(fe) => {
                                            poison = Some(fe.to_string());
                                            break;
                                        }
                                    }
                                }
                            }
                            // A follower has nothing more to say.
                            Door::Follower(_) | Door::Unsniffed => {}
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => return self.close(token, CloseReason::IoError),
                }
                hello = matches!(conn.door, Door::Hello(_));
            }
            for payload in frames {
                // A replication connection's first frame is its `'H'`.
                if hello {
                    self.handshake(token, &payload);
                    break;
                }
                self.obs.metrics.frames_in_total.inc();
                self.on_frame(token, &payload, round);
            }
            if let Some(msg) = poison {
                self.queue_reply(token, 0, Reply::Err(msg), false);
                return self.close_after_flush(token, CloseReason::BadFrame);
            }
            self.pump_text(token, round);
        }
        // A connection that may not read drops its read interest at the
        // round's flush, so level-triggered readiness does not spin the
        // shard meanwhile.
        self.dirty.push(token);
    }

    /// Turns a replication connection whose `'H'` frame arrived into a
    /// follower and starts feeding it the WAL.
    fn handshake(&mut self, token: usize, hello: &[u8]) {
        let Some(conn) = self.conns.get_mut(&token) else { return };
        let dir = self.client.wal_dir().map_err(io::Error::other);
        match dir.and_then(|dir| Follower::start(hello, &dir, &self.obs, &mut conn.wbuf)) {
            Ok(follower) => {
                conn.door = Door::Follower(Box::new(follower));
                self.pump(token);
            }
            Err(_) => self.close(token, CloseReason::BadFrame),
        }
    }

    /// Feeds a follower the WAL while its write queue is within
    /// `max_wbuf`, then flushes. A follower at the live tail parks on the
    /// next epoch; one parked already waits for that.
    fn pump(&mut self, token: usize) {
        let Some(conn) = self.conns.get_mut(&token) else { return };
        if !conn.pumping() || conn.backlog() > self.max_wbuf {
            return;
        }
        conn.wbuf.drain(..conn.wpos);
        conn.wpos = 0;
        conn.last_activity = Instant::now();
        let Door::Follower(follower) = &mut conn.door else { return };
        match follower.fill(&mut conn.wbuf, self.max_wbuf, &self.obs) {
            Ok(None) => {}
            Ok(Some((epoch, deadline))) => {
                conn.inflight = 1;
                let ticket = self.client.barrier(Barrier::Epoch(epoch), Some(self.wake()));
                self.parked.push(Parked::Tail { token, ticket, deadline });
            }
            // What is queued still goes out: the follower gets a
            // consistent prefix, then the end of the stream.
            Err(e) => {
                eprintln!("cc-net: replication stream to a follower failed: {e}");
                return self.close_after_flush(token, CloseReason::IoError);
            }
        }
        self.flush_conn(token);
    }

    /// The binary codec's input half: decodes one request frame for the
    /// dispatcher.
    fn on_frame(&mut self, token: usize, payload: &[u8], round: &mut Round) {
        match decode_request(payload) {
            Ok((corr, req)) => self.dispatch(token, corr, req, round),
            Err(e @ RequestError::ShortHeader(_)) => {
                self.queue_reply(token, 0, Reply::Err(e.to_string()), false);
                self.close_after_flush(token, CloseReason::BadFrame);
            }
            Err(e) => {
                let corr = e.corr().unwrap_or(0);
                self.queue_reply(token, corr, Reply::Err(e.to_string()), false);
            }
        }
    }

    /// The text codec's input half: hands buffered lines to the
    /// dispatcher until a request is in flight, the write queue is over
    /// budget, or more input is needed.
    fn pump_text(&mut self, token: usize, round: &mut Round) {
        loop {
            let decoded = {
                let Some(conn) = self.conns.get_mut(&token) else { return };
                if !conn.reads(self.max_wbuf) {
                    return;
                }
                let Door::Text(dec) = &mut conn.door else { return };
                match dec.next() {
                    Some(decoded) => decoded,
                    None => return,
                }
            };
            match decoded {
                Decoded::Request(req) => self.dispatch(token, 0, req, round),
                Decoded::Err(msg) => self.queue_reply(token, 0, Reply::Err(msg), false),
                Decoded::Close(msg, reason) => {
                    if let Some(msg) = msg {
                        self.queue_reply(token, 0, Reply::Err(msg), false);
                    }
                    return self.close_after_flush(token, reason);
                }
            }
        }
    }

    /// Resumes text connections whose replies were queued this round,
    /// until each is busy again or out of buffered input.
    fn resume_text(&mut self) {
        while !self.resume.is_empty() {
            let mut tokens = std::mem::take(&mut self.resume);
            tokens.sort_unstable();
            tokens.dedup();
            let mut round = Round::default();
            for token in tokens {
                self.pump_text(token, &mut round);
            }
            self.execute_round(round);
            self.flush_dirty();
        }
    }

    /// The one dispatcher: counts the request, refuses what the verb
    /// table routes away (out-of-range vertices, updates on a follower),
    /// collects reads and updates into the round, parks blocking verbs,
    /// and answers the rest inline.
    fn dispatch(&mut self, token: usize, corr: u64, req: Request, round: &mut Round) {
        let verb = req.verb();
        self.obs.metrics.record_request(verb);
        let Some(conn) = self.conns.get_mut(&token) else { return };
        conn.inflight += 1;
        conn.verb = verb;
        self.obs.metrics.net_pipeline_depth.record(conn.inflight);
        // Per-request validation up front, so one bad request gets its own
        // ERR instead of poisoning the whole grouped submission.
        let refusal = match req.out_of_range(self.num_vertices) {
            Some(v) => Some(ServiceError::VertexOutOfRange { v, n: self.num_vertices }),
            None if self.is_follower && req.carries_updates() => {
                Some(ServiceError::ReadOnlyFollower)
            }
            None => None,
        };
        if let Some(e) = refusal {
            return self.queue_reply(token, corr, Reply::Err(e.to_string()), true);
        }
        match req {
            Request::Query(u, v) | Request::QueryGen(u, v) => {
                round.read(token, corr, verb, [(u, v)])
            }
            // Query-only (updates were refused above).
            Request::Batch(ops) if self.is_follower => {
                round.read(token, corr, verb, ops.into_iter().map(endpoints));
            }
            Request::Batch(ops) => round.submit(token, corr, verb, ops),
            Request::Insert(u, v) => round.submit(token, corr, verb, [Update::Insert(u, v)]),
            Request::Delete(u, v) => round.submit(token, corr, verb, [Update::Delete(u, v)]),
            Request::Subscribe { kind, u, v, durable } => {
                // The reply is queued before drain_events runs this round,
                // so it always precedes the first event even when the
                // registration fires instantly.
                let sink = self.sink(token, corr);
                let reply = match self.client.subscribe(kind, u, v, durable, Some(sink.clone())) {
                    Ok((id, epoch)) => {
                        self.track_sub(token, id, durable.then_some(sink));
                        Reply::Subscribed { id, epoch }
                    }
                    Err(e) => Reply::Err(e.to_string()),
                };
                self.queue_reply(token, corr, reply, true);
            }
            Request::SubAttach { id, after_seq } => {
                let sink = self.sink(token, corr);
                let reply = match self.client.attach_sub(id, after_seq, sink.clone()) {
                    Ok(_last_seq) => {
                        self.track_sub(token, id, Some(sink));
                        Reply::Subscribed { id, epoch: self.client.epoch() }
                    }
                    Err(e) => Reply::Err(e.to_string()),
                };
                self.queue_reply(token, corr, reply, true);
            }
            Request::Unsubscribe { id } => {
                let reply = match self.client.unsubscribe(id) {
                    Ok(()) => {
                        if let Some(conn) = self.conns.get_mut(&token) {
                            conn.subs.retain(|&(sid, _)| sid != id);
                        }
                        Reply::Ok
                    }
                    Err(e) => Reply::Err(e.to_string()),
                };
                self.queue_reply(token, corr, reply, true);
            }
            Request::Quit => self.close_after_flush(token, CloseReason::Quit),
            Request::Shutdown => {
                self.queue_reply(token, corr, Reply::Ok, true);
                self.close_after_flush(token, CloseReason::Shutdown);
                self.shared.request_shutdown();
            }
            req if verb.spec().blocking => self.park(token, corr, verb, req),
            req => {
                let reply = answer(&self.client, req);
                self.queue_reply(token, corr, reply, true);
            }
        }
    }

    fn sink(&self, token: usize, corr: u64) -> Arc<dyn SubSink> {
        Arc::new(Sink {
            events: Arc::clone(&self.events),
            waker: Arc::clone(&self.shared.wakers[self.index]),
            token,
            corr,
        })
    }

    fn track_sub(&mut self, token: usize, id: u64, durable_sink: Option<Arc<dyn SubSink>>) {
        if let Some(conn) = self.conns.get_mut(&token) {
            conn.subs.push((id, durable_sink));
        }
    }

    /// A notify callback that wakes this shard's poll.
    fn wake(&self) -> Notify {
        let waker = Arc::clone(&self.shared.wakers[self.index]);
        Box::new(move || {
            let _ = waker.wake();
        })
    }

    /// Parks a blocking verb's ticket until it resolves or its deadline
    /// lapses; one that resolved at once is answered inline.
    fn park(&mut self, token: usize, corr: u64, verb: Verb, req: Request) {
        let (barrier, timeout_ms) = match req {
            Request::Wait { epoch, timeout_ms } => (Barrier::Epoch(epoch), Some(timeout_ms)),
            Request::Quiesce { timeout_ms } => (Barrier::Clean, Some(timeout_ms)),
            Request::Flush => (Barrier::Flush, None),
            Request::Snapshot => (Barrier::Snapshot, None),
            req => unreachable!("{} is marked blocking but has no barrier", req.verb().spec().text),
        };
        let ticket = self.client.barrier(barrier, Some(self.wake()));
        if let Some(result) = ticket.try_take() {
            return self.queue_reply(token, corr, barrier_reply(verb, result), true);
        }
        let deadline =
            timeout_ms.and_then(|ms| Instant::now().checked_add(Duration::from_millis(ms)));
        self.parked.push(Parked::Barrier { token, corr, verb, barrier, ticket, deadline });
        self.obs.metrics.waits_parked.inc();
    }

    /// Executes the round's two grouped strokes: one view acquire for all
    /// collected reads, one batch-former submission for all updates.
    fn execute_round(&mut self, round: Round) {
        let Round { pairs, reads, ops, writes, .. } = round;
        if !reads.is_empty() {
            self.obs.metrics.net_coalesce_width.record(reads.len() as u64);
            let answers = self.client.query_many_tagged(&pairs);
            self.answer_slots(reads, answers);
        }
        if !writes.is_empty() {
            self.obs.metrics.net_coalesce_width.record(writes.len() as u64);
            match self.client.submit_tagged_async(ops, Some(self.wake())) {
                Ok(ticket) => self.parked.push(Parked::Group(ticket, writes)),
                Err(e) => self.answer_slots(writes, Err(e)),
            }
        }
    }

    /// Routes one stroke's answers back to its requests. A failed stroke
    /// (WAL failure, shutdown) is every request's error: they shared one
    /// batch.
    fn answer_slots(&mut self, slots: Vec<Slot>, answers: Result<TaggedAnswers, ServiceError>) {
        match answers {
            Ok(answers) => {
                for s in slots {
                    let reply = match (s.verb, &answers[s.start..s.start + s.len]) {
                        (Verb::Q, &[(bit, _)]) => Reply::Bit(bit),
                        (Verb::QG, &[(bit, generation)]) => Reply::BitGen(bit, generation),
                        (Verb::B, slice) => Reply::Answers(slice.to_vec()),
                        _ => Reply::Ok,
                    };
                    self.queue_reply(s.token, s.corr, reply, true);
                }
            }
            Err(e) => {
                let msg = e.to_string();
                for s in slots {
                    self.queue_reply(s.token, s.corr, Reply::Err(msg.clone()), true);
                }
            }
        }
    }

    /// Answers every parked ticket that resolved, and every barrier whose
    /// deadline lapsed with its timeout error.
    fn drain_parked(&mut self) {
        let now = Instant::now();
        let (client, waits_parked) = (&self.client, &self.obs.metrics.waits_parked);
        let (mut groups, mut replies, mut tails) = (Vec::new(), Vec::new(), Vec::new());
        self.parked.retain_mut(|p| match p {
            Parked::Tail { token, ticket, deadline } => match ticket.try_take() {
                None if *deadline > now => true,
                // The epoch moved, or the heartbeat is due; an error is the
                // service shutting down.
                result => {
                    tails.push((*token, result.is_none_or(|r| r.is_ok())));
                    false
                }
            },
            Parked::Group(ticket, slots) => {
                let Some(result) = ticket.try_take() else { return true };
                groups.push((std::mem::take(slots), result));
                false
            }
            Parked::Barrier { token, corr, verb, barrier, ticket, deadline } => {
                let expired = deadline.is_some_and(|at| at <= now);
                let Some(result) =
                    ticket.try_take().or_else(|| expired.then(|| Err(client.timed_out(*barrier))))
                else {
                    return true;
                };
                waits_parked.dec();
                replies.push((*token, *corr, barrier_reply(*verb, result)));
                false
            }
        });
        for (slots, result) in groups {
            self.answer_slots(slots, result);
        }
        for (token, corr, reply) in replies {
            self.queue_reply(token, corr, reply, true);
        }
        for (token, live) in tails {
            if !live {
                self.close(token, CloseReason::Shutdown);
            } else if let Some(conn) = self.conns.get_mut(&token) {
                conn.inflight = 0;
                self.pump(token);
            }
        }
    }

    /// Appends pushed subscription events to their connections' write
    /// queues in each connection's codec. Unlike replies, events arrive
    /// regardless of whether the peer is reading, so a write queue blown
    /// past `max_wbuf` here is a slow consumer — the connection closes
    /// with a typed `sub-overflow`, never a silent drop.
    fn drain_events(&mut self) {
        let pushed: Vec<(usize, u64, SubEvent)> = std::mem::take(&mut *self.events.lock());
        for (token, corr, ev) in pushed {
            // What the socket takes first is not the peer's fault: the
            // round's own unsent replies never count as a slow consumer.
            if self.conns.get(&token).is_some_and(|c| c.closing.is_none() && c.backlog() > 0) {
                self.flush_conn(token);
            }
            let overflow = {
                let Some(conn) = self.conns.get_mut(&token) else { continue };
                if conn.closing.is_some() {
                    continue;
                }
                if conn.is_text() {
                    net::write_event(&mut conn.wbuf, &ev);
                } else {
                    conn.wbuf.extend_from_slice(&frame(&encode_event(corr, &ev)));
                    self.obs.metrics.frames_out_total.inc();
                }
                conn.backlog() > self.max_wbuf
            };
            if overflow {
                self.close(token, CloseReason::SubOverflow);
            } else {
                self.dirty.push(token);
            }
        }
    }

    /// Encodes a reply in the connection's codec onto its write queue,
    /// which the round's [`Shard::flush_dirty`] drains. `answered` retires
    /// one in-flight request.
    fn queue_reply(&mut self, token: usize, corr: u64, reply: Reply, answered: bool) {
        if matches!(reply, Reply::Err(_)) {
            self.obs.metrics.request_errors_total.inc();
        }
        {
            let Some(conn) = self.conns.get_mut(&token) else { return };
            if conn.is_text() {
                net::write_reply(&mut conn.wbuf, conn.verb, &reply);
            } else {
                conn.wbuf.extend_from_slice(&frame(&encode_reply(corr, &reply)));
                self.obs.metrics.frames_out_total.inc();
            }
            if answered {
                conn.inflight = conn.inflight.saturating_sub(1);
                if conn.inflight == 0 {
                    // A finished request is activity: the idle clock
                    // restarts when the reply leaves, not at the read.
                    conn.last_activity = Instant::now();
                }
            }
        }
        self.dirty.push(token);
    }

    /// Flushes each connection read or replied to since the last flush,
    /// once: one `write(2)` per connection per round, however many
    /// replies it queued.
    fn flush_dirty(&mut self) {
        let mut tokens = std::mem::take(&mut self.dirty);
        tokens.sort_unstable();
        tokens.dedup();
        for token in tokens {
            self.flush_conn(token);
        }
    }

    /// Drains the write queue, then closes a closing connection whose
    /// queue is empty or refreshes its interest.
    fn flush_conn(&mut self, token: usize) {
        let mut close_now = None;
        {
            let Some(conn) = self.conns.get_mut(&token) else { return };
            while conn.wpos < conn.wbuf.len() {
                match conn.stream.write(&conn.wbuf[conn.wpos..]) {
                    Ok(0) => {
                        close_now = Some(CloseReason::IoError);
                        break;
                    }
                    Ok(n) => {
                        conn.wpos += n;
                        self.obs.metrics.net_writes_total.inc();
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        close_now = Some(CloseReason::IoError);
                        break;
                    }
                }
            }
            if conn.backlog() == 0 {
                conn.wbuf.clear();
                conn.wpos = 0;
                close_now = close_now.or(conn.closing);
            }
        }
        match close_now {
            Some(reason) => self.close(token, reason),
            None => self.refresh_interest(token),
        }
    }

    /// Registers the interest the connection's state calls for: read
    /// while it [`Conn::reads`], write while it has a backlog, neither
    /// (deregistered) while a text request is in flight with nothing to
    /// write. A text connection that may read with lines still buffered
    /// is queued for [`Shard::resume_text`].
    fn refresh_interest(&mut self, token: usize) {
        let Some(conn) = self.conns.get_mut(&token) else { return };
        let read = conn.reads(self.max_wbuf);
        let want = match (read, conn.backlog() > 0 || conn.pumping()) {
            (true, false) => Some(Interest::READABLE),
            (true, true) => Some(Interest::READABLE | Interest::WRITABLE),
            (false, true) => Some(Interest::WRITABLE),
            (false, false) => None,
        };
        if read && matches!(&conn.door, Door::Text(dec) if dec.pending()) {
            self.resume.push(token);
        }
        if want == conn.interest {
            return;
        }
        let registry = self.poll.registry();
        let _ = match (conn.interest, want) {
            (Some(_), Some(w)) => registry.reregister(&conn.stream, Token(token), w),
            (None, Some(w)) => registry.register(&conn.stream, Token(token), w),
            (Some(_), None) => registry.deregister(&conn.stream),
            (None, None) => Ok(()),
        };
        conn.interest = want;
    }

    fn close_after_flush(&mut self, token: usize, reason: CloseReason) {
        let Some(conn) = self.conns.get_mut(&token) else { return };
        conn.closing = Some(reason);
        self.flush_conn(token);
    }

    fn close(&mut self, token: usize, reason: CloseReason) {
        let Some(conn) = self.conns.remove(&token) else { return };
        let _ = self.poll.registry().deregister(&conn.stream);
        // Its parked barriers (and a follower's parked tail) go with it;
        // the waiter list prunes their abandoned tickets at its next fire.
        let waits_parked = &self.obs.metrics.waits_parked;
        self.parked.retain(|p| match p {
            Parked::Barrier { token: t, .. } if *t == token => {
                waits_parked.dec();
                false
            }
            Parked::Tail { token: t, .. } => *t != token,
            _ => true,
        });
        // Ephemeral subscriptions die with the connection; durable ones
        // only lose their sink and keep accumulating for `SUB ATTACH`.
        for (id, durable_sink) in &conn.subs {
            match durable_sink {
                Some(sink) => self.client.detach_sub(*id, sink),
                None => {
                    let _ = self.client.unsubscribe(*id);
                }
            }
        }
        self.gauge.dec();
        match conn.door {
            // Closed before the sniff decided a door: count the
            // connection's whole life here so `connections_total` and the
            // flight record still see it.
            Door::Unsniffed => self.obs.metrics.connections_total.inc(),
            Door::Binary(_) | Door::Text(_) => self.obs.metrics.connections_live.dec(),
            Door::Hello(_) => {}
            Door::Follower(f) => self.obs.metrics.unregister_follower(f.slot.id),
        }
        self.obs.recorder.record(Event::ConnClosed { reason });
    }

    /// Closes connections idle past the timeout. A connection with a
    /// request in flight is waiting on the server, not idle.
    fn sweep_idle(&mut self) {
        let Some(limit) = self.idle_timeout else { return };
        let now = Instant::now();
        let idle: Vec<usize> = self
            .conns
            .iter()
            .filter(|(_, c)| {
                c.closing.is_none()
                    && c.inflight == 0
                    && now.duration_since(c.last_activity) > limit
            })
            .map(|(&t, _)| t)
            .collect();
        for t in idle {
            self.close(t, CloseReason::IdleTimeout);
        }
    }
}

/// The reply to a resolved barrier: `FLUSH` answers `OK`, the others
/// the epoch or generation their ticket resolved to.
fn barrier_reply(verb: Verb, result: Result<u64, ServiceError>) -> Reply {
    match result {
        Ok(_) if verb == Verb::Flush => Reply::Ok,
        Ok(value) => Reply::Value(value),
        Err(e) => Reply::Err(e.to_string()),
    }
}

/// The reply to a request the dispatcher answers inline, off the round.
fn answer(client: &Client, req: Request) -> Reply {
    let reply = match req {
        Request::Epoch => Ok(Reply::Value(client.epoch())),
        Request::Ping => Ok(Reply::Ok),
        Request::Gen => {
            let info = client.generation_info();
            Ok(Reply::Gen {
                generation: info.generation,
                dirty: info.dirty,
                rebuilds: info.counters.rebuilds,
                forest: info.counters.deletes_forest,
                nonforest: info.counters.deletes_nonforest,
                absent: info.counters.deletes_absent,
            })
        }
        Request::Topk { k } => {
            let (entries, epoch, generation, sealed) = client.topk(k as usize);
            Ok(Reply::Topk { epoch, generation, sealed, entries })
        }
        Request::Hist => {
            let view = client.analytics();
            Ok(Reply::Hist {
                epoch: view.epoch,
                generation: view.generation,
                sealed: view.sealed,
                components: view.components,
                buckets: view.hist.to_vec(),
            })
        }
        Request::Size(v) => client.component_size(v).map(|(root, size)| Reply::Size { size, root }),
        Request::Label(v) => client.current_label(v).map(|l| Reply::Value(l.into())),
        Request::Components => Ok(Reply::Value(client.num_components() as u64)),
        Request::Role => Ok(Reply::Line(client.role().to_string())),
        Request::Stats => Ok(Reply::Line(client.stats().to_string())),
        Request::WalStats => client.wal_stats().map(Reply::Line),
        Request::Metrics => Ok(Reply::Dump(client.render_metrics())),
        Request::Trace(n) => Ok(Reply::Dump(client.trace_events(n))),
        Request::Subs => Ok(Reply::Dump(
            client
                .subs_info()
                .iter()
                .map(|s| {
                    let kind = match s.kind {
                        SubKind::Pair => "PAIR",
                        SubKind::Component => "COMPONENT",
                    };
                    let (durable, fired) = (u8::from(s.durable), u8::from(s.fired));
                    format!(
                        "{} {kind} {} {} {} {durable} {fired}",
                        s.id, s.u, s.v, s.registered_epoch
                    )
                })
                .collect(),
        )),
        // The dispatcher routes every other verb through the round or
        // the connection; none reaches here.
        req => return Reply::Err(format!("{} is not answered here", req.verb().spec().text)),
    };
    reply.unwrap_or_else(|e| Reply::Err(e.to_string()))
}
