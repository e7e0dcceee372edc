//! WAL shipping: the primary streams its write-ahead log — checkpoint and
//! batch records — over a length-prefixed TCP protocol to read-replica
//! followers.
//!
//! ## Wire protocol
//!
//! Both directions start with the magic [`REPL_MAGIC`] (`CCREPL02`) and
//! then carry [`cc_graph::io::binary`] record frames (`len | crc32 |
//! payload`) — the framing WAL segments use on disk. The first payload
//! byte tags the record; the primary's tags *are* the WAL kind bytes, and
//! each such payload is the WAL record's, byte for byte:
//!
//! | tag   | payload after the tag                       | direction | meaning |
//! |-------|---------------------------------------------|-----------|---------|
//! | `'H'` | `last_epoch: u64 LE`                        | follower → primary | handshake: resume past this epoch |
//! | `'C'` | the WAL checkpoint body ([`wal::REC_CHECKPOINT`]) | primary → follower | the exact live edge set at its epoch |
//! | `'I'` | the WAL insert-only batch body ([`wal::REC_INSERTS`]) | primary → follower | one insert-only batch |
//! | `'D'` | the WAL ops body ([`wal::REC_OPS`])         | primary → follower | one deletion-bearing batch |
//! | `'P'` | `sent_epoch: u64 LE`                        | primary → follower | the primary's stream reached the live tail at this epoch: sent at the first catch-up after each connect or checkpoint, then as the idle heartbeat |
//!
//! ## Primary side
//!
//! The primary serves followers from its wire front end: a
//! [`crate::evloop::NetConfig::replication_port`] binds a second listener
//! next to the query port, and each connection it accepts lands on an
//! event-loop shard like any other — no thread per follower. The shard
//! reads the `'H'` handshake through the binary door's frame assembler
//! (expecting [`REPL_MAGIC`]), then feeds the connection a `Follower`:
//! a [`crate::wal::WalCursor`] tailing the service's own WAL directory
//! from its oldest segment. The cursor reads the same segment files the
//! service is appending to, so replication needs no hooks in the hot write
//! path at all. It ships every record past the follower's epoch unchanged
//! and skips `'S'` records (subscriptions are a node's own).
//!
//! A round moves records into the connection's write queue until its
//! backlog passes [`crate::evloop::NetConfig::max_wbuf`], and resumes when
//! the socket drains: a stalled follower holds at most that plus one
//! record, and a catch-up reads the disk one write budget per round. At
//! the live tail the shard sends any `'P'` owed and parks the follower on
//! the epoch waiter list — a `WAIT` on the next epoch, whose deadline is
//! the heartbeat. The commit that publishes the epoch wakes it; a lapsed
//! deadline sends the heartbeat `'P'` and parks again.
//!
//! The oldest segment opens with a checkpoint (or is segment 0), so a
//! follower whose epoch predates the pruned history gets that checkpoint
//! first. A [`crate::wal::TailEvent::Pruned`] mid-stream (a checkpoint
//! retired the cursor's segment) moves the cursor to the oldest segment —
//! that checkpoint — and owes the follower a `'P'`. The real edge set
//! ships, never a labeling: label-derived spanning edges would teach the
//! follower's liveness tracker phantom edges and corrupt its later delete
//! classification.
//!
//! ## Follower side
//!
//! [`run_follower`] connects (and reconnects, forever, until shutdown) to
//! the primary, handshakes with the follower's current epoch, falls the
//! follower behind, and maps every received record onto the service's one
//! apply door, [`Client::apply_log`]: `'C'`/`'I'`/`'D'` through
//! [`wal::decode_record`] — the decoder a restarting primary replays its
//! own directory with — and `'P'` as [`LogRecord::CaughtUp`]. Behind,
//! records feed the engine's edge set and the epoch holds; the first `'P'`
//! rebuilds once and the follower is live. A checkpoint reaching a live
//! follower falls it behind first, so it replaces the edge set wholesale:
//! edges deleted in pruned history are retracted with the rest. Socket
//! reads carry a timeout wrapped in [`binary::RetryRead`], so a shutdown
//! request interrupts a quiet stream without ever tearing a half-received
//! record. Everything is idempotent end to end: a reconnect replays a
//! *contiguous suffix* of the history in order, so each edge's liveness is
//! re-decided by the same last operation that decided it the first time,
//! and the follower's epoch is a `max`, never a blind store.
//!
//! The behind → caught-up invariants this module upholds are spelled out
//! in DESIGN.md §7.

use crate::obs::{Event, FollowerSlot, Obs};
use crate::service::Client;
use crate::wal::{self, LogRecord, TailEvent, WalCursor};
use cc_graph::io::binary::{self, CodecError};
use std::io::{BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Magic prefix of both directions of the replication stream.
pub const REPL_MAGIC: &[u8; 8] = b"CCREPL02";

/// Record tag: follower handshake (`last_epoch: u64 LE`).
pub const TAG_HELLO: u8 = b'H';
/// Record tag: caught up (`sent_epoch: u64 LE`) — everything through
/// that epoch has been shipped and the primary sits at the live tail. Sent
/// at the first catch-up after each connect or checkpoint, so a follower
/// of a busy primary catches up, and again as the idle heartbeat, which
/// makes a quiet stream *write*: a dead follower surfaces as a send error.
pub const TAG_PING: u8 = b'P';

/// How long a follower parked at the live tail waits for the next epoch
/// before it is sent a heartbeat `'P'`.
const HEARTBEAT: Duration = Duration::from_millis(500);

/// Socket read timeout — the granularity at which a follower's blocked
/// reads notice a shutdown request (reads retry through
/// [`binary::RetryRead`], so a timeout never tears a record).
const READ_TIMEOUT: Duration = Duration::from_millis(200);

/// How long a follower waits between reconnect attempts.
const RECONNECT_PAUSE: Duration = Duration::from_millis(300);

fn proto_err(msg: impl Into<String>) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg.into())
}

/// An `'H'` or `'P'` payload: the tag, then one epoch as `u64 LE`.
fn epoch_record(tag: u8, epoch: u64) -> Vec<u8> {
    let mut out = vec![tag];
    out.extend_from_slice(&epoch.to_le_bytes());
    out
}

/// The primary's half of one follower connection: where its WAL cursor
/// stands and what the follower is owed. The event-loop shard owning the
/// connection drives it with [`Follower::fill`], and unregisters its
/// telemetry `slot` when the connection closes.
pub(crate) struct Follower {
    cursor: WalCursor,
    /// The highest epoch shipped (at first, the handshake's).
    sent_epoch: u64,
    /// Whether this catch-up still owes the follower its `'P'`: a busy
    /// primary is never quiet for a heartbeat, so the first arrival at the
    /// live tail after a connect or a checkpoint says so at once.
    owe_caught_up: bool,
    last_write: Instant,
    pub(crate) slot: Arc<FollowerSlot>,
}

impl Follower {
    /// Accepts the `'H'` payload `hello`: registers the follower's
    /// telemetry slot (rendered as `connectit_follower_*` series by
    /// `METRICS`), stamps its connect event, writes the primary's magic to
    /// `out`, and opens a cursor at the start of the history in `dir`.
    pub(crate) fn start(
        hello: &[u8],
        dir: &Path,
        obs: &Obs,
        out: &mut Vec<u8>,
    ) -> std::io::Result<Follower> {
        if hello.len() != 9 || hello[0] != TAG_HELLO {
            return Err(proto_err(format!("bad handshake record of {} bytes", hello.len())));
        }
        let epoch = u64::from_le_bytes(hello[1..9].try_into().expect("8 bytes"));
        // The follower holds the history through its handshake epoch; the
        // cursor starts at the history's start and ships what lies past it.
        let mut cursor = WalCursor::open(dir, 0, binary::MAGIC_LEN as u64);
        cursor.oldest()?;
        obs.metrics.repl_connects_total.inc();
        let slot = obs.metrics.register_follower(epoch);
        obs.recorder.record(Event::FollowerConnected { id: slot.id, epoch });
        binary::write_magic(out, REPL_MAGIC)?;
        let last_write = Instant::now();
        Ok(Follower { cursor, sent_epoch: epoch, owe_caught_up: true, last_write, slot })
    }

    /// Appends the records past the follower's epoch to `out` until it
    /// holds more than `budget` bytes (`Ok(None)`: call again once the
    /// socket drains) or the cursor reaches the live tail. There it
    /// appends any `'P'` owed — the first catch-up's, or a heartbeat's —
    /// and returns `Some((epoch, heartbeat))`: call again once the service
    /// reaches `epoch`, or at the `heartbeat` deadline.
    pub(crate) fn fill(
        &mut self,
        out: &mut Vec<u8>,
        budget: usize,
        obs: &Obs,
    ) -> std::io::Result<Option<(u64, Instant)>> {
        let (metrics, slot) = (&obs.metrics, &self.slot);
        while out.len() <= budget {
            match self.cursor.next().map_err(|e| proto_err(format!("wal tail failed: {e}")))? {
                TailEvent::Record(payload) => {
                    // `'S'` carries no epoch; history the follower already
                    // has (its handshake epoch) is skipped.
                    let epoch = match wal::record_header(&payload, 0) {
                        Ok((_, Some(epoch))) if epoch > self.sent_epoch => epoch,
                        Ok(_) => continue,
                        Err(e) => return Err(proto_err(format!("wal record: {e}"))),
                    };
                    // Counted as the bytes are queued, so a counter is
                    // never behind what a follower demonstrably received.
                    let bytes = payload.len() as u64;
                    if payload[0] == wal::REC_CHECKPOINT {
                        metrics.repl_snapshots_shipped_total.inc();
                        self.owe_caught_up = true;
                    } else {
                        metrics.repl_records_shipped_total.inc();
                        slot.records.fetch_add(1, Ordering::Relaxed);
                    }
                    metrics.repl_bytes_shipped_total.add(bytes);
                    slot.bytes.fetch_add(bytes, Ordering::Relaxed);
                    slot.sent_epoch.store(epoch, Ordering::Relaxed);
                    binary::append_record(out, &payload)?;
                    self.sent_epoch = epoch;
                    self.last_write = Instant::now();
                }
                TailEvent::CaughtUp => {
                    // The catch-up is stamped once per connect or
                    // checkpoint; every heartbeat would flood the recorder.
                    if self.owe_caught_up {
                        let ev = Event::FollowerCaughtUp { id: slot.id, epoch: self.sent_epoch };
                        obs.recorder.record(ev);
                    }
                    if std::mem::take(&mut self.owe_caught_up)
                        || self.last_write.elapsed() >= HEARTBEAT
                    {
                        binary::append_record(out, &epoch_record(TAG_PING, self.sent_epoch))?;
                        self.last_write = Instant::now();
                    }
                    return Ok(Some((self.sent_epoch + 1, self.last_write + HEARTBEAT)));
                }
                TailEvent::Pruned => {
                    // A checkpoint retired the cursor's segment: the oldest
                    // segment opens with it, and covers what was pruned.
                    obs.recorder.record(Event::FollowerPruned { id: slot.id });
                    self.owe_caught_up = true;
                    self.cursor.oldest()?;
                }
            }
        }
        Ok(None)
    }
}

/// Spawns the follower's replication receiver: connects to the primary
/// at `primary_addr`, handshakes with the follower's current epoch, and
/// applies the stream through `client` until `shutdown` flips (or the
/// follower service closes). Reconnects forever on connection loss —
/// a follower keeps serving (stale) reads while its primary is away.
/// Applies and connects are counted in the follower's own registry
/// (`connectit_repl_{records,snapshots}_applied_total`,
/// `connectit_repl_connects_total`).
pub fn run_follower(
    client: Client,
    primary_addr: String,
    shutdown: Arc<AtomicBool>,
) -> std::io::Result<std::thread::JoinHandle<()>> {
    std::thread::Builder::new().name("cc-repl-recv".into()).spawn(move || {
        while !shutdown.load(Ordering::Acquire) {
            match follow_once(&client, &primary_addr, &shutdown) {
                // The follower service itself closed: nothing left to
                // apply into, so the receiver is done.
                Ok(StreamEnd::FollowerClosed) => return,
                Ok(StreamEnd::Disconnected) | Err(_) => {}
            }
            // Connection lost (or never made): retry after a pause,
            // keeping the follower serving whatever it has.
            let deadline = std::time::Instant::now() + RECONNECT_PAUSE;
            while std::time::Instant::now() < deadline {
                if shutdown.load(Ordering::Acquire) {
                    return;
                }
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    })
}

/// Why one connection's apply loop ended.
enum StreamEnd {
    /// The socket died (primary restart, network): reconnect.
    Disconnected,
    /// The follower service shut down: stop replicating entirely.
    FollowerClosed,
}

/// One connection lifetime: handshake, fall behind, then apply records
/// until the stream breaks or shutdown.
fn follow_once(
    client: &Client,
    primary_addr: &str,
    shutdown: &Arc<AtomicBool>,
) -> std::io::Result<StreamEnd> {
    let obs = client.observability();
    let stream = TcpStream::connect(primary_addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(READ_TIMEOUT))?;
    stream.set_write_timeout(Some(Duration::from_secs(10)))?;

    let mut w = BufWriter::new(stream.try_clone()?);
    binary::write_magic(&mut w, REPL_MAGIC)?;
    binary::append_record(&mut w, &epoch_record(TAG_HELLO, client.epoch()))?;
    w.flush()?;

    let keep = {
        let shutdown = Arc::clone(shutdown);
        move || !shutdown.load(Ordering::Acquire)
    };
    let mut reader = BufReader::new(binary::RetryRead::new(stream, keep));
    if binary::read_magic(&mut reader, REPL_MAGIC).is_err() {
        return Ok(StreamEnd::Disconnected);
    }
    obs.metrics.repl_connects_total.inc();
    // The handshake epoch is what the follower serves; whatever the
    // primary ships past it replays into a frozen tracker until its `'P'`.
    client.fall_behind();
    let mut records = binary::RecordReader::new(reader, binary::MAGIC_LEN as u64);
    loop {
        let payload = match records.next() {
            Ok(Some(p)) => p,
            // Clean EOF, torn record, or timeout-at-shutdown: the
            // connection is over either way.
            Ok(None) | Err(_) => return Ok(StreamEnd::Disconnected),
        };
        // Counters tick on receipt, before the apply: an observer that
        // saw the follower's epoch advance must also see the counter
        // (the apply is what publishes the epoch), and a failed apply
        // kills the connection anyway.
        let decoded = match payload.first().copied() {
            Some(TAG_PING) if payload.len() == 9 => Ok((
                u64::from_le_bytes(payload[1..].try_into().expect("8 bytes")),
                LogRecord::CaughtUp,
            )),
            Some(wal::REC_CHECKPOINT) => {
                obs.metrics.repl_snapshots_applied_total.inc();
                wal::decode_record(&payload, 0)
            }
            Some(wal::REC_INSERTS | wal::REC_OPS) => {
                obs.metrics.repl_records_applied_total.inc();
                wal::decode_record(&payload, 0)
            }
            other => Err(CodecError::BadPayload {
                offset: 0,
                reason: format!("unknown replication record tag {other:?}"),
            }),
        };
        let applied = decoded.map_err(|e| proto_err(e.to_string())).and_then(|(epoch, record)| {
            client.apply_log(epoch, record).map_err(|e| proto_err(e.to_string()))
        });
        if let Err(e) = applied {
            if client.is_closed() {
                return Ok(StreamEnd::FollowerClosed);
            }
            // A malformed or inapplicable record is not recoverable by
            // reconnecting harder; surface it and let the supervisor
            // (the serve binary) decide. The reconnect loop will retry —
            // a primary restarted with different parameters keeps
            // logging this rather than silently serving a wrong state.
            eprintln!("cc-repl-recv: apply failed: {e}");
            return Ok(StreamEnd::Disconnected);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evloop::NetConfig;
    use crate::net::{serve_with, TcpServer};
    use crate::service::{Role, Service, ServiceConfig};
    use crate::wal::{DurabilityConfig, FsyncPolicy};
    use connectit::Update;
    use std::net::{SocketAddr, TcpListener};
    use std::path::PathBuf;
    use std::sync::atomic::AtomicU32;

    fn tmp_dir(tag: &str) -> PathBuf {
        crate::scratch_dir(&format!("repl_{tag}"))
    }

    fn primary_cfg(n: usize, dir: &Path) -> ServiceConfig {
        ServiceConfig {
            n,
            shards: 2,
            durability: Some(DurabilityConfig {
                fsync: FsyncPolicy::Off,
                ..DurabilityConfig::new(dir)
            }),
            ..ServiceConfig::default()
        }
    }

    fn follower(n: usize) -> Service {
        Service::start(ServiceConfig {
            n,
            shards: 2,
            role: Role::Follower,
            ..ServiceConfig::default()
        })
        .expect("follower starts")
    }

    fn wait_epoch(c: &Client, target: u64) {
        c.wait_for_epoch(target, Duration::from_secs(20)).expect("replica catches up");
    }

    /// Serves `primary` on 127.0.0.1 with `cfg` and a replication listener
    /// on `port`; returns the server and that listener's address.
    fn serve_followers_with(
        primary: &Service,
        port: u16,
        cfg: NetConfig,
    ) -> (TcpServer, SocketAddr) {
        let cfg = NetConfig { replication_port: Some(port), ..cfg };
        let server = serve_with(primary, "127.0.0.1:0", cfg).expect("serve");
        let addr = server.replication_addr().expect("replication listener");
        (server, addr)
    }

    fn serve_followers(primary: &Service, port: u16) -> (TcpServer, SocketAddr) {
        serve_followers_with(primary, port, NetConfig { shards: 2, ..NetConfig::default() })
    }

    #[test]
    fn follower_tails_live_primary() {
        let dir = tmp_dir("tail");
        let mut primary = Service::start(primary_cfg(64, &dir)).expect("primary");
        let p = primary.client();
        let (mut server, addr) = serve_followers(&primary, 0);
        let addr = addr.to_string();

        let shutdown = Arc::new(AtomicBool::new(false));
        let mut f = follower(64);
        let h = run_follower(f.client(), addr, Arc::clone(&shutdown)).expect("recv");

        p.insert(1, 2).expect("insert");
        p.insert(2, 3).expect("insert");
        let e = p.epoch();
        let fc = f.client();
        wait_epoch(&fc, e);
        assert!(fc.query(1, 3).expect("replicated read"));
        assert!(!fc.query(1, 10).expect("replicated read"));
        // More traffic while the stream is live.
        p.insert(10, 11).expect("insert");
        wait_epoch(&fc, p.epoch());
        assert!(fc.query(10, 11).expect("replicated read"));
        assert!(fc.observability().metrics.repl_records_applied_total.get() >= 3);
        assert_eq!(fc.observability().metrics.repl_connects_total.get(), 1);
        assert!(p.observability().metrics.repl_records_shipped_total.get() >= 3);

        shutdown.store(true, Ordering::Release);
        h.join().expect("receiver exits");
        server.stop();
        primary.shutdown();
        f.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Checkpoints prune the segment a caught-up follower's cursor is
    /// tailing. The cursor moves to the checkpoint (or has already read
    /// past it), and the follower reconverges on the same connection
    /// without a rebuild.
    #[test]
    fn prune_under_a_caught_up_follower_reconverges_without_reconnect() {
        let dir = tmp_dir("live_prune");
        let mut primary = Service::start(primary_cfg(64, &dir)).expect("primary");
        let p = primary.client();
        let (mut server, addr) = serve_followers(&primary, 0);
        let shutdown = Arc::new(AtomicBool::new(false));
        let mut f = follower(64);
        let fc = f.client();
        let h = run_follower(f.client(), addr.to_string(), Arc::clone(&shutdown)).expect("recv");
        let mut oracle = cc_baselines::DynamicOracle::new(64);
        // Past `WAIT` the follower is live: a catch-up's rebuild may pick
        // any spanning forest, so no round may straddle it.
        let warm_up = vec![Update::Insert(60, 61)];
        oracle.apply_batch(&warm_up);
        p.submit(warm_up).expect("submit");
        wait_epoch(&fc, p.epoch());
        for round in 0..8u32 {
            // A cycle edge and its deletion: a live follower classifies
            // that delete as non-forest, so nothing here owes a rebuild.
            let (a, b, c) = (3 * round, 3 * round + 1, 3 * round + 2);
            let ops = vec![Update::Insert(a, b), Update::Insert(b, c), Update::Insert(a, c)];
            for batch in [ops, vec![Update::Delete(a, c)]] {
                oracle.apply_batch(&batch);
                p.submit(batch).expect("submit");
            }
            wait_epoch(&fc, p.epoch());
            p.durable_snapshot().expect("checkpoint prunes under the follower");
            wait_epoch(&fc, p.epoch());
            assert!(cc_graph::stats::same_partition(&oracle.labels(), &fc.labels()), "{round}");
        }
        let fobs = fc.observability();
        assert_eq!(fobs.metrics.repl_connects_total.get(), 1, "no reconnect");
        let info = fc.generation_info();
        assert_eq!((info.generation, info.counters.rebuilds), (0, 0), "no rebuild: {info:?}");

        shutdown.store(true, Ordering::Release);
        h.join().expect("receiver exits");
        server.stop();
        primary.shutdown();
        f.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A raw fake follower: handshakes at `epoch` and returns the framed
    /// reader for manual record inspection.
    fn fake_follower(
        addr: std::net::SocketAddr,
        epoch: u64,
    ) -> binary::RecordReader<BufReader<TcpStream>> {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
        let mut w = BufWriter::new(stream.try_clone().expect("clone"));
        binary::write_magic(&mut w, REPL_MAGIC).expect("magic");
        let mut hello = vec![TAG_HELLO];
        hello.extend_from_slice(&epoch.to_le_bytes());
        binary::append_record(&mut w, &hello).expect("hello");
        w.flush().expect("flush");
        let mut reader = BufReader::new(stream);
        binary::read_magic(&mut reader, REPL_MAGIC).expect("server magic");
        binary::RecordReader::new(reader, binary::MAGIC_LEN as u64)
    }

    #[test]
    fn idle_stream_heartbeats_and_follower_ignores_them() {
        let dir = tmp_dir("ping");
        let mut primary = Service::start(primary_cfg(32, &dir)).expect("primary");
        primary.client().insert(1, 2).expect("insert");
        let (mut server, addr) = serve_followers(&primary, 0);

        // Raw inspection: the bootstrap history, then `'P'` the moment the
        // stream is caught up, then `'P'` again as the heartbeat of a
        // stream left quiet.
        let mut records = fake_follower(addr, 0);
        let mut pings = 0;
        for _ in 0..10 {
            let payload = records.next().expect("framed record").expect("stream open");
            match payload[0] {
                TAG_PING => {
                    assert_eq!(payload.len(), 9, "ping carries the last sent epoch");
                    assert_eq!(payload[1..], primary.client().epoch().to_le_bytes());
                    pings += 1;
                    if pings == 2 {
                        break;
                    }
                }
                wal::REC_INSERTS | wal::REC_OPS | wal::REC_CHECKPOINT if pings == 0 => continue,
                other => panic!("unexpected tag {other:?} after {pings} pings"),
            }
        }
        assert_eq!(pings, 2, "an idle stream must heartbeat");
        drop(records);

        // A real follower rides out an idle (heartbeat-carrying) stream
        // and still applies what comes after it.
        let shutdown = Arc::new(AtomicBool::new(false));
        let mut f = follower(32);
        let h = run_follower(f.client(), addr.to_string(), Arc::clone(&shutdown)).expect("recv");
        let p = primary.client();
        wait_epoch(&f.client(), p.epoch());
        std::thread::sleep(Duration::from_millis(700)); // > one heartbeat
        p.insert(2, 3).expect("insert after idle");
        wait_epoch(&f.client(), p.epoch());
        assert!(f.client().query(1, 3).expect("read"), "stream survived the idle window");

        shutdown.store(true, Ordering::Release);
        h.join().expect("receiver exits");
        server.stop();
        primary.shutdown();
        f.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A primary committing every 50 ms is never quiet for a `HEARTBEAT`:
    /// the follower catches up on the `'P'` the primary owes the first
    /// arrival at the live tail, and serves exact reads behind `WAIT`
    /// while the writes go on.
    #[test]
    fn follower_of_a_busy_primary_catches_up() {
        let dir = tmp_dir("busy");
        let mut primary = Service::start(primary_cfg(256, &dir)).expect("primary");
        let p = primary.client();
        let (linked, stop) = (Arc::new(AtomicU32::new(0)), Arc::new(AtomicBool::new(false)));
        let writer = {
            let (p, linked, stop) = (p.clone(), Arc::clone(&linked), Arc::clone(&stop));
            std::thread::spawn(move || {
                for v in 0..250u32 {
                    if stop.load(Ordering::Acquire) {
                        break;
                    }
                    p.insert(v, v + 1).expect("insert");
                    linked.store(v + 1, Ordering::Release);
                    std::thread::sleep(Duration::from_millis(50));
                }
            })
        };
        std::thread::sleep(Duration::from_millis(200));
        let (mut server, addr) = serve_followers(&primary, 0);
        let shutdown = Arc::new(AtomicBool::new(false));
        let mut f = follower(256);
        let h = run_follower(f.client(), addr.to_string(), Arc::clone(&shutdown)).expect("recv");
        let fc = f.client();
        let top = linked.load(Ordering::Acquire);
        let target = p.epoch();
        fc.wait_for_epoch(target, Duration::from_secs(5)).expect("caught up mid-stream");
        assert!(!writer.is_finished(), "the primary was still busy");
        assert_eq!(fc.query_gen(0, top).expect("read"), (true, None), "exact, not sealed");
        assert!(!fc.query(0, 255).expect("read"));

        stop.store(true, Ordering::Release);
        writer.join().expect("writer");
        shutdown.store(true, Ordering::Release);
        h.join().expect("receiver exits");
        server.stop();
        primary.shutdown();
        f.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The connection drops while the follower is behind. Its epoch held,
    /// so the next handshake asks for the same history again, and
    /// replaying that suffix into the frozen tracker — deletions
    /// included — converges to the primary's state.
    #[test]
    fn follower_dropped_while_behind_reconnects_and_converges() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let history: Vec<(u64, Vec<Update>)> = vec![
            (1, vec![Update::Insert(0, 1), Update::Insert(1, 2), Update::Insert(2, 3)]),
            (2, vec![Update::Delete(1, 2), Update::Insert(4, 5)]),
            (3, vec![Update::Insert(1, 2), Update::Delete(4, 5)]),
            (4, vec![Update::Delete(0, 1), Update::Insert(0, 5)]),
        ];
        // A fake primary: takes one connection, ships `records` (then
        // `'P'` at `caught_up`, if any), hangs up; returns the handshake
        // epoch.
        let serve = |records: &[(u64, Vec<Update>)], caught_up: Option<u64>| -> u64 {
            let (stream, _) = listener.accept().expect("accept");
            let mut reader = BufReader::new(stream.try_clone().expect("clone"));
            binary::read_magic(&mut reader, REPL_MAGIC).expect("magic");
            let mut handshake = binary::RecordReader::new(reader, binary::MAGIC_LEN as u64);
            let hello = handshake.next().expect("hello").expect("stream open");
            let mut w = BufWriter::new(stream);
            binary::write_magic(&mut w, REPL_MAGIC).expect("magic");
            for (epoch, ops) in records {
                binary::append_record(&mut w, &wal::encode_ops(*epoch, ops)).expect("send");
            }
            if let Some(epoch) = caught_up {
                binary::append_record(&mut w, &epoch_record(TAG_PING, epoch)).expect("send");
            }
            w.flush().expect("flush");
            u64::from_le_bytes(hello[1..9].try_into().expect("8 bytes"))
        };
        let shutdown = Arc::new(AtomicBool::new(false));
        let mut f = follower(8);
        let fc = f.client();
        let addr = listener.local_addr().expect("addr").to_string();
        let h = run_follower(f.client(), addr, Arc::clone(&shutdown)).expect("recv");

        assert_eq!(serve(&history[..2], None), 0);
        let applied = &fc.observability().metrics.repl_records_applied_total;
        while applied.get() < 2 {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(fc.epoch(), 0, "the epoch holds while behind");
        assert!(fc.generation_info().dirty);
        assert!(fc.wait_for_epoch(1, Duration::from_millis(50)).is_err());

        assert_eq!(serve(&history, Some(4)), 0, "the reconnect resumes from the held epoch");
        wait_epoch(&fc, 4);
        let mut oracle = cc_baselines::DynamicOracle::new(8);
        for (_, ops) in &history {
            oracle.apply_batch(ops);
        }
        assert!(cc_graph::stats::same_partition(&oracle.labels(), &fc.labels()));
        let info = fc.generation_info();
        assert_eq!((info.generation, info.dirty, info.counters.rebuilds), (0, false, 0));

        shutdown.store(true, Ordering::Release);
        h.join().expect("receiver exits");
        f.shutdown();
    }

    /// A history with a hole — the checkpoint's segment deleted from
    /// under a running primary, beside the segments it pruned — is the
    /// state the primary's own recovery refuses. The shard must end the
    /// stream rather than ship the suffix as if it were the whole history.
    #[test]
    fn unreadable_snapshot_store_fails_the_stream_not_silently_skips() {
        let dir = tmp_dir("hole");
        let mut cfg = primary_cfg(16, &dir);
        // One-byte segments: every record rolls the log, so the records
        // past the checkpoint land in segments of their own.
        cfg.durability.as_mut().expect("durable").segment_max_bytes = 1;
        let mut primary = Service::start(cfg).expect("primary");
        let p = primary.client();
        p.insert(0, 1).expect("insert");
        p.durable_snapshot().expect("checkpoint prunes segment 0");
        p.insert(2, 3).expect("insert past the checkpoint");
        let mut segs: Vec<_> = std::fs::read_dir(&dir)
            .expect("dir")
            .flatten()
            .map(|e| e.file_name().into_string().expect("utf-8"))
            .filter(|name| name.starts_with("wal-"))
            .collect();
        segs.sort();
        assert!(segs.len() >= 2 && segs[0] != "wal-00000000.log", "{segs:?}");
        std::fs::remove_file(dir.join(&segs[0])).expect("delete the checkpoint's segment");
        let (mut server, addr) = serve_followers(&primary, 0);
        let mut records = fake_follower(addr, 0);
        let got = records.next();
        assert!(matches!(got, Ok(None) | Err(_)), "stream must end without records, got {got:?}");
        assert_eq!(p.observability().metrics.followers_live.get(), 0, "its slot is gone");
        server.stop();
        primary.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A follower that handshakes and then never reads costs the primary
    /// one write budget: what it is shipped stops growing while the
    /// primary appends far more WAL than the budget and the socket buffers
    /// hold. Once it reads, every record arrives, in order, through the
    /// primary's epoch.
    #[test]
    fn a_stalled_follower_holds_one_write_budget_then_catches_up() {
        let dir = tmp_dir("stall");
        let n = 1u32 << 16;
        let mut primary = Service::start(primary_cfg(n as usize, &dir)).expect("primary");
        let p = primary.client();
        let cfg = NetConfig { shards: 2, max_wbuf: 64 << 10, ..NetConfig::default() };
        let (mut server, addr) = serve_followers_with(&primary, 0, cfg);
        let mut records = fake_follower(addr, 0);
        let obs = p.observability();
        let metrics = &obs.metrics;
        let mut x = 1u32;
        let mut batch = || -> Vec<Update> {
            (0..1 << 15)
                .map(|_| {
                    x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                    Update::Insert(x % n, (x >> 16) % n)
                })
                .collect()
        };
        let appended = metrics.wal_bytes_total.get();
        while metrics.wal_bytes_total.get() - appended < 16 << 20 {
            p.submit(batch()).expect("submit");
        }
        // The counter settles once the socket is full.
        let mut shipped = metrics.repl_bytes_shipped_total.get();
        loop {
            std::thread::sleep(Duration::from_millis(200));
            let now = metrics.repl_bytes_shipped_total.get();
            if now == shipped {
                break;
            }
            shipped = now;
        }
        assert!(shipped < 8 << 20, "{shipped} bytes shipped to a follower that reads nothing");
        p.submit(batch()).expect("submit");
        std::thread::sleep(Duration::from_millis(200));
        assert_eq!(metrics.repl_bytes_shipped_total.get(), shipped, "still stalled");

        let target = p.epoch();
        let mut last = 0;
        loop {
            let payload = records.next().expect("framed record").expect("stream open");
            match wal::record_header(&payload, 0) {
                Ok((_, Some(epoch))) => {
                    assert_eq!(epoch, last + 1, "records in order, none skipped");
                    last = epoch;
                }
                _ if payload[0] == TAG_PING && payload[1..] == target.to_le_bytes() => break,
                _ => assert_eq!(payload[0], TAG_PING, "only records and pings"),
            }
        }
        assert_eq!(last, target);
        drop(records);
        server.stop();
        primary.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A follower parked at the live tail is a request in flight, not an
    /// idle connection: a 100 ms idle timeout leaves it connected through
    /// a quiet second, and it still gets the next record.
    #[test]
    fn a_caught_up_follower_outlives_the_idle_timeout() {
        let dir = tmp_dir("idle");
        let mut primary = Service::start(primary_cfg(32, &dir)).expect("primary");
        let p = primary.client();
        p.insert(1, 2).expect("insert");
        let idle_timeout = Some(Duration::from_millis(100));
        let cfg = NetConfig { shards: 2, idle_timeout, ..NetConfig::default() };
        let (mut server, addr) = serve_followers_with(&primary, 0, cfg);
        let shutdown = Arc::new(AtomicBool::new(false));
        let mut f = follower(32);
        let fc = f.client();
        let h = run_follower(f.client(), addr.to_string(), Arc::clone(&shutdown)).expect("recv");
        wait_epoch(&fc, p.epoch());
        std::thread::sleep(Duration::from_secs(1));
        p.insert(2, 3).expect("insert after the quiet second");
        wait_epoch(&fc, p.epoch());
        assert!(fc.query(1, 3).expect("read"));
        assert_eq!(fc.observability().metrics.repl_connects_total.get(), 1, "never reconnected");

        shutdown.store(true, Ordering::Release);
        h.join().expect("receiver exits");
        server.stop();
        primary.shutdown();
        f.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Replication ships the service's own WAL: an in-memory service has
    /// none, and asking it for a replication listener is a typed error.
    #[test]
    fn an_in_memory_primary_refuses_a_replication_listener() {
        let svc = Service::start(ServiceConfig { n: 8, ..ServiceConfig::default() }).expect("svc");
        let cfg = NetConfig { replication_port: Some(0), ..NetConfig::default() };
        let err = serve_with(&svc, "127.0.0.1:0", cfg).err().expect("refused");
        let typed = err.get_ref().and_then(|e| e.downcast_ref::<crate::ServiceError>());
        assert_eq!(typed, Some(&crate::ServiceError::DurabilityDisabled), "{err}");
    }

    #[test]
    fn fresh_follower_bootstraps_from_snapshot_after_pruning() {
        let dir = tmp_dir("boot");
        let mut primary = Service::start(primary_cfg(32, &dir)).expect("primary");
        let p = primary.client();
        p.insert(0, 1).expect("insert");
        p.insert(1, 2).expect("insert");
        // The durable snapshot prunes every covered WAL segment, so a
        // fresh follower cannot be served from the WAL alone.
        let snap_epoch = p.durable_snapshot().expect("snapshot");
        assert!(snap_epoch >= 2);
        p.insert(8, 9).expect("insert past the snapshot");
        let target = p.epoch();

        let (mut server, addr) = serve_followers(&primary, 0);
        let addr = addr.to_string();
        let shutdown = Arc::new(AtomicBool::new(false));
        let mut f = follower(32);
        let h = run_follower(f.client(), addr, Arc::clone(&shutdown)).expect("recv");
        let fc = f.client();
        wait_epoch(&fc, target);
        assert!(fc.query(0, 2).expect("pre-snapshot fact"));
        assert!(fc.query(8, 9).expect("post-snapshot fact"));
        assert!(!fc.query(0, 8).expect("negative"));
        assert!(
            fc.observability().metrics.repl_snapshots_applied_total.get() >= 1,
            "bootstrap used the snapshot"
        );

        shutdown.store(true, Ordering::Release);
        h.join().expect("receiver exits");
        server.stop();
        primary.shutdown();
        f.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A snapshot needs no clean generation: one taken while a rebuild is
    /// held open bootstraps a fresh follower to the primary's partition.
    #[test]
    fn snapshot_taken_mid_rebuild_bootstraps_a_fresh_follower() {
        let dir = tmp_dir("sealedsnap");
        let mut primary = Service::start(ServiceConfig {
            rebuild_hold: Duration::from_secs(2),
            ..primary_cfg(32, &dir)
        })
        .expect("primary");
        let p = primary.client();
        for v in 1..8 {
            p.insert(v - 1, v).expect("insert");
        }
        p.delete(3, 4).expect("forest delete seals");
        p.insert(10, 11).expect("insert while sealed");
        let snap_epoch = p.durable_snapshot().expect("snapshot mid-hold");
        assert!(p.generation_info().dirty, "the snapshot did not wait for the rebuild");
        assert_eq!(snap_epoch, 9, "keyed at the epoch of the last write");
        p.insert(11, 12).expect("insert past the snapshot");
        let target = p.epoch();

        let (mut server, addr) = serve_followers(&primary, 0);
        let shutdown = Arc::new(AtomicBool::new(false));
        let mut f = follower(32);
        let h = run_follower(f.client(), addr.to_string(), Arc::clone(&shutdown)).expect("recv");
        let fc = f.client();
        wait_epoch(&fc, target);
        p.quiesce(Duration::from_secs(20)).expect("primary commits");
        fc.quiesce(Duration::from_secs(20)).expect("follower quiesces");
        assert!(cc_graph::stats::same_partition(&p.labels(), &fc.labels()));
        assert!(!fc.query(3, 4).expect("read"), "the sealed-window delete replicated");
        assert!(fc.query(10, 12).expect("read"));
        assert!(
            fc.observability().metrics.repl_snapshots_applied_total.get() >= 1,
            "bootstrap used the snapshot"
        );

        shutdown.store(true, Ordering::Release);
        h.join().expect("receiver exits");
        server.stop();
        primary.shutdown();
        f.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn follower_replays_deletions_in_order() {
        let dir = tmp_dir("delete");
        let mut primary = Service::start(primary_cfg(64, &dir)).expect("primary");
        let (mut server, addr) = serve_followers(&primary, 0);
        let addr = addr.to_string();

        let shutdown = Arc::new(AtomicBool::new(false));
        let mut f = follower(64);
        let h = run_follower(f.client(), addr, Arc::clone(&shutdown)).expect("recv");

        let p = primary.client();
        let fc = f.client();
        p.insert(1, 2).expect("insert");
        // Past `WAIT` the follower has caught up: what follows applies
        // live and classifies, where a replay behind would not count.
        wait_epoch(&fc, p.epoch());
        p.insert(2, 3).expect("insert");
        p.insert(1, 3).expect("cycle edge");
        // A non-forest deletion (free) and a forest deletion (rebuild)
        // both cross the wire as `'D'` records and replay in order.
        p.delete(1, 3).expect("non-forest delete");
        p.delete(2, 3).expect("forest delete");
        wait_epoch(&fc, p.epoch());
        // The follower's own rebuild may still be in flight; quiesce so
        // the read below is exact rather than sealed-generation stale.
        fc.quiesce(Duration::from_secs(20)).expect("follower quiesces");
        assert!(fc.query(1, 2).expect("still connected"));
        assert!(!fc.query(2, 3).expect("severed by the replayed deletions"));
        let info = fc.generation_info();
        assert_eq!(info.counters.deletes_nonforest, 1, "cycle delete classified: {info:?}");
        assert!(fc.observability().metrics.repl_records_applied_total.get() >= 5);

        shutdown.store(true, Ordering::Release);
        h.join().expect("receiver exits");
        server.stop();
        primary.shutdown();
        f.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn deletion_aware_bootstrap_ships_the_edge_set_not_labels() {
        let dir = tmp_dir("edgeboot");
        let mut primary = Service::start(primary_cfg(32, &dir)).expect("primary");
        let p = primary.client();
        p.insert(0, 1).expect("insert");
        p.insert(1, 2).expect("insert");
        p.insert(0, 2).expect("cycle edge");
        let snap_epoch = p.durable_snapshot().expect("snapshot with edges");
        assert!(snap_epoch >= 3);

        // Raw inspection: the bootstrap record is the edge set, not the
        // labeling (phantom spanning edges would mis-classify the
        // follower's later deletes).
        let (mut server, addr) = serve_followers(&primary, 0);
        let mut records = fake_follower(addr, 0);
        let payload = records.next().expect("framed record").expect("stream open");
        assert_eq!(payload[0], wal::REC_CHECKPOINT, "bootstrap must ship the live edge set");
        let (epoch, LogRecord::Checkpoint { edges, .. }) =
            wal::decode_record(&payload, 0).expect("decode")
        else {
            panic!("not a checkpoint");
        };
        assert_eq!(epoch, snap_epoch);
        assert_eq!(edges.len(), 3, "all three live edges, the cycle edge included");
        drop(records);

        // A real follower bootstrapped this way classifies a post-
        // snapshot forest deletion exactly like the primary does.
        let shutdown = Arc::new(AtomicBool::new(false));
        let mut f = follower(32);
        let h = run_follower(f.client(), addr.to_string(), Arc::clone(&shutdown)).expect("recv");
        p.delete(0, 1).expect("forest delete past the snapshot");
        let fc = f.client();
        wait_epoch(&fc, p.epoch());
        fc.quiesce(Duration::from_secs(20)).expect("follower quiesces");
        assert!(fc.query(0, 1).expect("cycle closed the gap: still connected"));
        assert_eq!(fc.generation_info().counters.deletes_absent, 0, "no phantom edges");
        assert!(
            fc.observability().metrics.repl_snapshots_applied_total.get() >= 1,
            "bootstrap used the snapshot"
        );

        shutdown.store(true, Ordering::Release);
        h.join().expect("receiver exits");
        server.stop();
        primary.shutdown();
        f.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn observed_hub_registers_follower_slots() {
        let dir = tmp_dir("obs");
        let mut primary = Service::start(primary_cfg(32, &dir)).expect("primary");
        let p = primary.client();
        let obs = p.observability();
        let (mut server, addr) = serve_followers(&primary, 0);
        p.insert(1, 2).expect("insert");

        let shutdown = Arc::new(AtomicBool::new(false));
        let mut f = follower(32);
        let h = run_follower(f.client(), addr.to_string(), Arc::clone(&shutdown)).expect("recv");
        wait_epoch(&f.client(), p.epoch());

        // Primary side: the slot exists, ships are mirrored, and the
        // per-follower series render.
        assert_eq!(obs.metrics.followers_live.get(), 1);
        assert!(obs.metrics.repl_records_shipped_total.get() >= 1);
        assert!(obs.metrics.repl_bytes_shipped_total.get() > 0);
        assert_eq!(obs.metrics.repl_connects_total.get(), 1);
        let lines = obs.metrics.render().join("\n");
        assert!(
            lines.contains("connectit_follower_epoch_lag{follower=\"1\"}"),
            "per-follower lag series missing:\n{lines}"
        );
        // Follower side: applies and connects mirror into its own plane.
        let fobs = f.client().observability();
        assert!(fobs.metrics.repl_records_applied_total.get() >= 1);
        assert_eq!(fobs.metrics.repl_connects_total.get(), 1);

        shutdown.store(true, Ordering::Release);
        h.join().expect("receiver exits");
        // Stopping the server closes the connection, which unregisters
        // the slot.
        server.stop();
        assert_eq!(obs.metrics.followers_live.get(), 0, "slot must unregister on disconnect");
        primary.shutdown();
        f.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn follower_survives_primary_restart() {
        let dir = tmp_dir("restart");
        let shutdown = Arc::new(AtomicBool::new(false));
        let mut f = follower(48);
        let fc = f.client();

        let (port, h) = {
            let mut primary = Service::start(primary_cfg(48, &dir)).expect("primary");
            let (mut server, addr) = serve_followers(&primary, 0);
            let h =
                run_follower(f.client(), addr.to_string(), Arc::clone(&shutdown)).expect("recv");
            let p = primary.client();
            p.insert(1, 2).expect("insert");
            wait_epoch(&fc, p.epoch());
            assert!(fc.query(1, 2).expect("read"));
            server.stop();
            primary.shutdown();
            (addr.port(), h)
        };

        // Primary (and its replication listener) come back on the same
        // port from the same WAL dir; the follower reconnects, handshakes
        // with its epoch, and resumes the stream.
        let mut primary = Service::start(primary_cfg(48, &dir)).expect("primary recovers");
        let (mut server, _) = serve_followers(&primary, port);
        let p = primary.client();
        p.insert(2, 3).expect("insert after restart");
        wait_epoch(&fc, p.epoch());
        assert!(fc.query(1, 3).expect("fact spanning the restart"));

        shutdown.store(true, Ordering::Release);
        h.join().expect("receiver exits");
        server.stop();
        primary.shutdown();
        f.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The pruning hole: a follower disconnects, the primary deletes an
    /// edge the follower holds, and a durable snapshot prunes the WAL
    /// segment carrying that deletion. On reconnect the follower's only
    /// source of truth is the edge-set bootstrap — which must *retract*
    /// the stale edge, not merely add missing ones, or the phantom stays
    /// live forever.
    #[test]
    fn follower_retracts_edges_deleted_while_disconnected() {
        let dir = tmp_dir("retract");
        let mut primary = Service::start(primary_cfg(32, &dir)).expect("primary");
        let (mut server, addr) = serve_followers(&primary, 0);
        let addr = addr.to_string();
        let p = primary.client();
        p.insert(0, 1).expect("insert");
        p.insert(1, 2).expect("insert");

        // The follower catches up, then loses its connection — but the
        // service (and its liveness tracker) stays alive.
        let shutdown1 = Arc::new(AtomicBool::new(false));
        let mut f = follower(32);
        let h1 = run_follower(f.client(), addr.clone(), Arc::clone(&shutdown1)).expect("recv");
        let fc = f.client();
        wait_epoch(&fc, p.epoch());
        assert!(fc.query(1, 2).expect("replicated read"));
        shutdown1.store(true, Ordering::Release);
        h1.join().expect("receiver exits");

        // While the follower is away: a forest deletion commits, and the
        // durable snapshot prunes the WAL segment that carried it.
        p.delete(1, 2).expect("forest delete while disconnected");
        p.quiesce(Duration::from_secs(20)).expect("primary rebuild commits");
        let snap_epoch = p.durable_snapshot().expect("snapshot prunes the deletion");
        assert!(snap_epoch > fc.epoch(), "the follower's epoch predates the snapshot");

        // Reconnect. The handshake epoch predates the snapshot, so the
        // primary bootstraps it with the edge set; converging to it must
        // retract the follower's stale 1-2 edge.
        let shutdown2 = Arc::new(AtomicBool::new(false));
        let h2 = run_follower(f.client(), addr, Arc::clone(&shutdown2)).expect("recv");
        wait_epoch(&fc, snap_epoch);
        fc.quiesce(Duration::from_secs(20)).expect("follower rebuild commits");
        assert!(!fc.query(1, 2).expect("read"), "pruned deletion must still take effect");
        assert!(fc.query(0, 1).expect("read"), "surviving edge stays live");
        assert!(
            fc.observability().metrics.repl_snapshots_applied_total.get() >= 1,
            "reconnect used the bootstrap"
        );

        shutdown2.store(true, Ordering::Release);
        h2.join().expect("receiver exits");
        server.stop();
        primary.shutdown();
        f.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn restarted_follower_reconverges() {
        let dir = tmp_dir("fresh");
        let mut primary = Service::start(primary_cfg(32, &dir)).expect("primary");
        let (mut server, addr) = serve_followers(&primary, 0);
        let addr = addr.to_string();
        let p = primary.client();
        p.insert(5, 6).expect("insert");

        // First follower incarnation.
        let shutdown1 = Arc::new(AtomicBool::new(false));
        let mut f1 = follower(32);
        let h1 = run_follower(f1.client(), addr.clone(), Arc::clone(&shutdown1)).expect("recv");
        wait_epoch(&f1.client(), p.epoch());
        // "SIGKILL": drop it without ceremony.
        shutdown1.store(true, Ordering::Release);
        h1.join().expect("receiver exits");
        f1.shutdown();

        p.insert(6, 7).expect("insert while the follower is down");
        let target = p.epoch();

        // The restarted follower is empty (followers are in-memory) and
        // must reconverge from the stream alone.
        let shutdown2 = Arc::new(AtomicBool::new(false));
        let mut f2 = follower(32);
        let h2 = run_follower(f2.client(), addr, Arc::clone(&shutdown2)).expect("recv");
        let fc = f2.client();
        wait_epoch(&fc, target);
        assert!(fc.query(5, 7).expect("full history replayed"));
        assert_eq!(fc.epoch(), target);

        shutdown2.store(true, Ordering::Release);
        h2.join().expect("receiver exits");
        server.stop();
        primary.shutdown();
        f2.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
