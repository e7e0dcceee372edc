//! Protocol error-path coverage for `cc_server::net`, talking raw bytes
//! over a socket (not through `WireClient`, which would refuse to emit
//! most of these). Every `ERR` spelling is asserted verbatim, mirroring
//! the `UfSpec` error-path discipline: an error message is API.

use cc_server::net::{DEFAULT_WAIT_TIMEOUT_MS, MAX_LINE_BYTES, MAX_WIRE_BATCH};
use cc_server::{serve, DurabilityConfig, FsyncPolicy, Role, Service, ServiceConfig, TcpServer};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::{Duration, Instant};

fn start(role: Role) -> (Service, TcpServer, SocketAddr) {
    start_holding(role, Duration::ZERO)
}

/// Like [`start`], but with a generation-rebuild hold — the test knob
/// that keeps the engine dirty long enough to observe the staleness
/// reporting deterministically.
fn start_holding(role: Role, rebuild_hold: Duration) -> (Service, TcpServer, SocketAddr) {
    let svc = Service::start(ServiceConfig {
        n: 64,
        shards: 2,
        role,
        batch_max_wait: Duration::from_micros(20),
        rebuild_hold,
        ..ServiceConfig::default()
    })
    .expect("service starts");
    let server = serve(&svc, "127.0.0.1:0").expect("bind");
    let addr = server.local_addr();
    (svc, server, addr)
}

/// Opens a raw connection, sends `request` lines, reads one reply line
/// per element of the returned vector.
fn raw(addr: SocketAddr) -> (BufReader<TcpStream>, TcpStream) {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    stream.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout");
    (BufReader::new(stream.try_clone().expect("clone")), stream)
}

fn send_line(w: &mut TcpStream, line: &str) {
    writeln!(w, "{line}").expect("write");
    w.flush().expect("flush");
}

fn read_line(r: &mut BufReader<TcpStream>) -> String {
    let mut line = String::new();
    r.read_line(&mut line).expect("read");
    line.trim_end().to_string()
}

/// Sends `request` five times, checks each reply, and asserts that the
/// median round trip lies in `30..80` ms: a parked barrier answers at
/// its deadline, not at the next 100 ms poll tick.
fn answers_at_its_30ms_deadline(addr: SocketAddr, request: &str, want: &str) {
    let (mut r, mut w) = raw(addr);
    let mut took: Vec<Duration> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            send_line(&mut w, request);
            assert_eq!(read_line(&mut r), want);
            t0.elapsed()
        })
        .collect();
    took.sort_unstable();
    let median = took[2];
    let window = Duration::from_millis(30)..Duration::from_millis(80);
    assert!(window.contains(&median), "{request}: median {median:?} of {took:?}");
}

#[test]
fn malformed_verbs_answer_exact_err_spellings_and_stay_open() {
    let (mut svc, mut server, addr) = start(Role::Primary);
    let (mut r, mut w) = raw(addr);
    for (request, want) in [
        ("NOPE", "ERR unknown command \"NOPE\""),
        ("I 3", "ERR missing argument"),
        ("I three 4", "ERR argument is not a 32-bit unsigned integer"),
        ("Q -1 4", "ERR argument is not a 32-bit unsigned integer"),
        ("I 3 4 5", "ERR trailing arguments after I"),
        ("D 3", "ERR missing argument"),
        ("D three 4", "ERR argument is not a 32-bit unsigned integer"),
        ("D 3 4 5", "ERR trailing arguments after D"),
        ("GEN now", "ERR trailing arguments after GEN"),
        ("QUIESCE x", "ERR argument is not a 64-bit unsigned integer"),
        ("QUIESCE 5 6", "ERR trailing arguments after QUIESCE"),
        ("PING now", "ERR trailing arguments after PING"),
        ("LABEL", "ERR missing argument"),
        ("WAIT", "ERR missing argument"),
        ("WAIT x", "ERR argument is not a 64-bit unsigned integer"),
        ("WAIT 1 2 3", "ERR trailing arguments after WAIT"),
        ("ROLE primary", "ERR trailing arguments after ROLE"),
        ("SNAPSHOT 3", "ERR trailing arguments after SNAPSHOT"),
        ("TOPK x", "ERR argument is not a 64-bit unsigned integer"),
        ("TOPK 5 6", "ERR trailing arguments after TOPK"),
        ("HIST now", "ERR trailing arguments after HIST"),
        ("SIZE", "ERR missing argument"),
        ("SIZE big", "ERR argument is not a 32-bit unsigned integer"),
        ("SIZE 1 2", "ERR trailing arguments after SIZE"),
        ("SIZE 64", "ERR vertex 64 out of range (n = 64)"),
        ("SUB", "ERR missing argument"),
        ("SUB 1", "ERR missing argument"),
        ("SUB one 2", "ERR argument is not a 32-bit unsigned integer"),
        ("SUB 1 2 FOREVER", "ERR unknown SUB flag \"FOREVER\" (expected DURABLE)"),
        ("SUB 1 2 DURABLE 3", "ERR trailing arguments after SUB"),
        ("SUB COMPONENT", "ERR missing argument"),
        ("SUB ATTACH x", "ERR argument is not a 64-bit unsigned integer"),
        ("SUB 64 0", "ERR vertex 64 out of range (n = 64)"),
        ("SUB 1 2 DURABLE", "ERR durability is not enabled (start the service with a wal dir)"),
        ("SUB ATTACH 42", "ERR unknown subscription id 42"),
        ("UNSUB", "ERR missing argument"),
        ("UNSUB x", "ERR argument is not a 64-bit unsigned integer"),
        ("UNSUB 5 6", "ERR trailing arguments after UNSUB"),
        ("UNSUB 999", "ERR unknown subscription id 999"),
        ("SUBS 1", "ERR trailing arguments after SUBS"),
    ] {
        send_line(&mut w, request);
        assert_eq!(read_line(&mut r), want, "request {request:?}");
    }
    // The connection survived all of it.
    send_line(&mut w, "PING");
    assert_eq!(read_line(&mut r), "PONG");
    server.stop();
    svc.shutdown();
}

#[test]
fn oversized_batch_header_errs_and_closes() {
    let (mut svc, mut server, addr) = start(Role::Primary);
    let (mut r, mut w) = raw(addr);
    send_line(&mut w, &format!("B {}", MAX_WIRE_BATCH + 1));
    assert_eq!(read_line(&mut r), format!("ERR batch too large (max {MAX_WIRE_BATCH})"));
    // A rejected B header closes the connection (the body that follows
    // cannot be delimited).
    let mut rest = String::new();
    r.read_to_string(&mut rest).expect("eof");
    assert!(rest.is_empty(), "connection must close after a rejected B header");
    server.stop();
    svc.shutdown();
}

#[test]
fn oversized_line_errs_and_closes() {
    let (mut svc, mut server, addr) = start(Role::Primary);
    let (mut r, mut w) = raw(addr);
    // A line longer than the cap, never carrying a newline: the server
    // must refuse to buffer it forever.
    let huge = vec![b'Q'; MAX_LINE_BYTES + 17];
    w.write_all(&huge).expect("write");
    w.flush().expect("flush");
    assert_eq!(read_line(&mut r), format!("ERR request line exceeds {MAX_LINE_BYTES} bytes"));
    // The server closes with our excess bytes still unread on its side,
    // so the teardown may surface as EOF or as a reset — either proves
    // the close; more protocol replies would not.
    let mut rest = String::new();
    match r.read_to_string(&mut rest) {
        Ok(_) => assert!(rest.is_empty(), "connection must close after an oversized line"),
        Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::ConnectionReset, "{e}"),
    }
    server.stop();
    svc.shutdown();
}

#[test]
fn half_closed_socket_mid_batch_ends_cleanly() {
    let (mut svc, mut server, addr) = start(Role::Primary);
    let (mut r, mut w) = raw(addr);
    // Promise 5 ops, deliver 2, then close our write half: the server
    // must treat the truncated batch as a dead peer (no reply, no
    // partial execution desynchronizing anything) and close.
    send_line(&mut w, "B 5");
    send_line(&mut w, "I 1 2");
    send_line(&mut w, "I 2 3");
    w.shutdown(Shutdown::Write).expect("half-close");
    let mut rest = String::new();
    r.read_to_string(&mut rest).expect("eof");
    assert!(rest.is_empty(), "truncated batch must get no reply, got {rest:?}");
    // And the service is still healthy for the next connection.
    let (mut r2, mut w2) = raw(addr);
    send_line(&mut w2, "PING");
    assert_eq!(read_line(&mut r2), "PONG");
    server.stop();
    svc.shutdown();
}

#[test]
fn wait_timeout_spelling_and_success_paths() {
    let (mut svc, mut server, addr) = start(Role::Follower);
    let (mut r, mut w) = raw(addr);
    // Nothing ever reaches epoch 5 on this idle follower: the timeout
    // reports both sides of the gap.
    send_line(&mut w, "WAIT 5 50");
    assert_eq!(read_line(&mut r), "ERR wait for epoch 5 timed out at epoch 0");
    // An already-reached target returns immediately with the epoch.
    send_line(&mut w, "WAIT 0 50");
    assert_eq!(read_line(&mut r), "E 0");
    // The default-timeout form parses (answered instantly here).
    send_line(&mut w, "WAIT 0");
    assert_eq!(read_line(&mut r), "E 0");
    const { assert!(DEFAULT_WAIT_TIMEOUT_MS >= 1000, "default WAIT timeout is generous") };
    send_line(&mut w, "ROLE");
    assert_eq!(read_line(&mut r), "R follower");
    answers_at_its_30ms_deadline(addr, "WAIT 5 30", "ERR wait for epoch 5 timed out at epoch 0");
    server.stop();
    svc.shutdown();
}

#[test]
fn follower_rejects_updates_with_routing_hint() {
    let (mut svc, mut server, addr) = start(Role::Follower);
    let (mut r, mut w) = raw(addr);
    send_line(&mut w, "I 1 2");
    assert_eq!(read_line(&mut r), "ERR read-only follower: route updates to the primary");
    // Deletions are updates too.
    send_line(&mut w, "D 1 2");
    assert_eq!(read_line(&mut r), "ERR read-only follower: route updates to the primary");
    // A batch containing even one update is rejected wholesale...
    send_line(&mut w, "B 2");
    send_line(&mut w, "I 1 2");
    send_line(&mut w, "Q 1 2");
    assert_eq!(read_line(&mut r), "ERR read-only follower: route updates to the primary");
    send_line(&mut w, "B 2");
    send_line(&mut w, "D 1 2");
    send_line(&mut w, "Q 1 2");
    assert_eq!(read_line(&mut r), "ERR read-only follower: route updates to the primary");
    // ...while a query-only batch works (answers against empty state).
    send_line(&mut w, "B 2");
    send_line(&mut w, "Q 1 2");
    send_line(&mut w, "Q 3 3");
    assert_eq!(read_line(&mut r), "OK 01");
    server.stop();
    svc.shutdown();
}

/// Reads a multi-line (`METRICS` / `TRACE`) reply up to its `# EOF`
/// terminator, exclusive.
fn read_dump(r: &mut BufReader<TcpStream>) -> Vec<String> {
    let mut lines = Vec::new();
    loop {
        let l = read_line(r);
        if l == "# EOF" {
            return lines;
        }
        assert!(!l.is_empty(), "dump must terminate with `# EOF`, saw an empty line first");
        lines.push(l);
    }
}

#[test]
fn metrics_exposition_grammar_is_typed_terminated_and_parseable() {
    let (mut svc, mut server, addr) = start(Role::Primary);
    let (mut r, mut w) = raw(addr);
    // Argument errors spell exactly like every other verb's.
    send_line(&mut w, "METRICS all");
    assert_eq!(read_line(&mut r), "ERR trailing arguments after METRICS");
    send_line(&mut w, "TRACE x");
    assert_eq!(read_line(&mut r), "ERR argument is not a 64-bit unsigned integer");
    send_line(&mut w, "TRACE 5 9");
    assert_eq!(read_line(&mut r), "ERR trailing arguments after TRACE");
    // Move some traffic so counters and the recorder are non-trivial.
    send_line(&mut w, "I 1 2");
    assert_eq!(read_line(&mut r), "OK");
    send_line(&mut w, "Q 1 2");
    assert_eq!(read_line(&mut r), "1");

    send_line(&mut w, "METRICS");
    let lines = read_dump(&mut r);
    assert!(lines[0].starts_with("# TYPE connectit_"), "first line must be typed: {}", lines[0]);
    for l in &lines {
        if let Some(rest) = l.strip_prefix('#') {
            // Comments are exactly `# TYPE connectit_<name> <kind>`.
            let mut it = rest.trim_start().split(' ');
            assert_eq!(it.next(), Some("TYPE"), "{l}");
            assert!(it.next().is_some_and(|n| n.starts_with("connectit_")), "{l}");
            let kind = it.next().expect("kind");
            assert!(matches!(kind, "counter" | "gauge" | "summary"), "{l}");
            assert_eq!(it.next(), None, "{l}");
        } else {
            // Samples are `connectit_<name>[{label="v"}] <u64>`.
            let (name, value) = l.rsplit_once(' ').unwrap_or_else(|| panic!("no value in {l}"));
            assert!(name.starts_with("connectit_"), "{l}");
            value.parse::<u64>().unwrap_or_else(|_| panic!("unparseable value in {l}"));
        }
    }
    let text = lines.join("\n");
    assert!(text.contains("connectit_inserts_total 1"), "{text}");
    assert!(text.contains("connectit_queries_total 1"), "{text}");
    assert!(text.contains("connectit_requests_total{verb=\"Q\"} 1"), "{text}");
    assert!(text.contains("connectit_connections_live 1"), "{text}");
    // The three argument errors above were counted.
    assert!(text.contains("connectit_request_errors_total 3"), "{text}");

    // TRACE: wire-stable `T <seq> <t_us> <Kind> k=v ...` lines.
    send_line(&mut w, "TRACE");
    let tlines = read_dump(&mut r);
    assert!(!tlines.is_empty(), "batches committed; the recorder must hold events");
    for l in &tlines {
        let mut it = l.split(' ');
        assert_eq!(it.next(), Some("T"), "{l}");
        it.next().expect("seq").parse::<u64>().expect("seq is numeric");
        it.next().expect("at_us").parse::<u64>().expect("timestamp is numeric");
        assert!(it.next().is_some(), "missing event kind in {l}");
    }
    assert!(tlines.iter().any(|l| l.contains("BatchFormed")), "{tlines:?}");
    assert!(tlines.iter().any(|l| l.contains("EngineApplied")), "{tlines:?}");
    // A second scrape on the same connection: counters are monotone and
    // the requests counter saw the first METRICS + TRACE round.
    send_line(&mut w, "METRICS");
    let text2 = read_dump(&mut r).join("\n");
    assert!(text2.contains("connectit_requests_total{verb=\"METRICS\"} 2"), "{text2}");
    assert!(text2.contains("connectit_requests_total{verb=\"TRACE\"} 1"), "{text2}");
    server.stop();
    svc.shutdown();
}

#[test]
fn stats_and_walstats_shims_stay_wire_stable_over_the_registry() {
    let (mut svc, mut server, addr) = start(Role::Primary);
    let (mut r, mut w) = raw(addr);
    send_line(&mut w, "I 1 2");
    assert_eq!(read_line(&mut r), "OK");
    // STATS keeps its one-line `S key=value ...` spelling, now read from
    // the same registry METRICS exposes.
    send_line(&mut w, "STATS");
    let s = read_line(&mut r);
    assert!(s.starts_with("S epoch="), "{s}");
    assert!(s.contains(" inserts=1 "), "{s}");
    assert!(s.contains(" latency[n=1 "), "{s}");
    // WALSTATS without durability keeps its typed refusal.
    send_line(&mut w, "WALSTATS");
    assert_eq!(
        read_line(&mut r),
        "ERR durability is not enabled (start the service with a wal dir)"
    );
    server.stop();
    svc.shutdown();
}

#[test]
fn a_batch_of_queries_commits_nothing() {
    let dir = cc_server::scratch_dir("net_queries_commit_nothing");
    let mut svc = Service::start(ServiceConfig {
        n: 64,
        batch_max_wait: Duration::from_micros(20),
        durability: Some(DurabilityConfig {
            fsync: FsyncPolicy::Batch,
            ..DurabilityConfig::new(&dir)
        }),
        ..ServiceConfig::default()
    })
    .expect("service starts");
    let mut server = serve(&svc, "127.0.0.1:0").expect("bind");
    let (mut r, mut w) = raw(server.local_addr());
    // A query-only `B` rides the batch former, alone in its batch.
    for _ in 0..3 {
        send_line(&mut w, "B 1");
        send_line(&mut w, "Q 1 2");
        assert_eq!(read_line(&mut r), "OK 0");
    }
    send_line(&mut w, "WALSTATS");
    let stats = read_line(&mut r);
    assert!(stats.contains(" records=0 ") && stats.contains(" last_epoch=0 "), "{stats}");
    send_line(&mut w, "EPOCH");
    assert_eq!(read_line(&mut r), "E 0");
    // A `SNAPSHOT` on such a batch keys its checkpoint at the current epoch.
    send_line(&mut w, "SNAPSHOT");
    assert_eq!(read_line(&mut r), "SNAP 0");
    send_line(&mut w, "I 1 2");
    assert_eq!(read_line(&mut r), "OK");
    send_line(&mut w, "EPOCH");
    assert_eq!(read_line(&mut r), "E 1");
    server.stop();
    svc.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stale_queries_report_their_generation_and_quiesce_timeouts_spell_it() {
    // A 60s rebuild hold pins the engine dirty across the whole test.
    let (mut svc, mut server, addr) = start_holding(Role::Primary, Duration::from_secs(60));
    let (mut r, mut w) = raw(addr);
    send_line(&mut w, "I 1 2");
    assert_eq!(read_line(&mut r), "OK");
    // Clean engine: both query verbs answer bare.
    send_line(&mut w, "Q 1 2");
    assert_eq!(read_line(&mut r), "1");
    send_line(&mut w, "QG 1 2");
    assert_eq!(read_line(&mut r), "1");
    // Deleting the forest edge seals generation 0 and starts a (held)
    // rebuild: the engine is now dirty.
    send_line(&mut w, "D 1 2");
    assert_eq!(read_line(&mut r), "OK");
    send_line(&mut w, "GEN");
    let gen = read_line(&mut r);
    assert!(gen.starts_with("G 0 dirty=1 "), "engine must be dirty under the hold: {gen}");
    // Bare `Q` stays exactly one bit even mid-rebuild — old clients
    // parse it — while `QG` serves the sealed generation — the
    // pre-deletion labels — and says so: `<answer> G <generation>`.
    send_line(&mut w, "Q 1 2");
    assert_eq!(read_line(&mut r), "1");
    send_line(&mut w, "QG 1 2");
    assert_eq!(read_line(&mut r), "1 G 0");
    // QUIESCE cannot drain a held rebuild; the timeout names the
    // generation it was stuck at.
    send_line(&mut w, "QUIESCE 50");
    assert_eq!(read_line(&mut r), "ERR quiesce timed out at generation 0");
    answers_at_its_30ms_deadline(addr, "QUIESCE 30", "ERR quiesce timed out at generation 0");
    server.stop();
    svc.shutdown();
}

#[test]
fn slow_subscription_consumer_gets_a_typed_overflow_close() {
    // A write budget smaller than one event line: the burst below must
    // overflow it, and the contract is a typed `sub-overflow` close —
    // never a silent drop.
    let svc = Service::start(ServiceConfig {
        n: 64,
        shards: 2,
        batch_max_wait: Duration::from_micros(20),
        ..ServiceConfig::default()
    })
    .expect("service starts");
    let cfg = cc_server::NetConfig { max_wbuf: 16, ..cc_server::NetConfig::default() };
    let mut server = cc_server::net::serve_with(&svc, "127.0.0.1:0", cfg).expect("bind");
    let addr = server.local_addr();

    // The slow consumer: subscribes to component 1, then never reads.
    let (mut r, mut w) = raw(addr);
    send_line(&mut w, "SUB COMPONENT 1");
    let reply = read_line(&mut r);
    assert!(reply.starts_with("S "), "subscription must be accepted: {reply}");

    // A second connection merges component 1 forty-eight times in one
    // batch: the first fire alone outgrows the write budget.
    let (mut r2, mut w2) = raw(addr);
    send_line(&mut w2, "B 48");
    for i in 0..48 {
        send_line(&mut w2, &format!("I {i} {}", i + 1));
    }
    assert_eq!(read_line(&mut r2), "OK");

    // The slow consumer's connection must close (EOF or reset), with
    // nothing but `! EVT` push lines before the close.
    loop {
        let mut line = String::new();
        match r.read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => assert!(
                line.starts_with("! EVT "),
                "only push lines may precede the overflow close, got {line:?}"
            ),
            Err(e) => {
                assert_eq!(e.kind(), std::io::ErrorKind::ConnectionReset, "{e}");
                break;
            }
        }
    }

    // The close is typed in the flight recorder, and the server is fine.
    send_line(&mut w2, "TRACE");
    let tlines = read_dump(&mut r2);
    assert!(
        tlines.iter().any(|l| l.contains("ConnClosed reason=sub-overflow")),
        "overflow close must be recorded: {tlines:?}"
    );
    send_line(&mut w2, "PING");
    assert_eq!(read_line(&mut r2), "PONG");
    server.stop();
    let mut svc = svc;
    svc.shutdown();
}

// ---------------------------------------------------------------------------
// Binary protocol pins. Same port, same server: frames open with the
// 0xCC sniff byte, everything else above stays on the text door. The
// binary ERR spellings below are wire API exactly like the text ones.
// ---------------------------------------------------------------------------

use cc_graph::io::binary::{crc32, RecordReader};
use cc_server::binproto::{self, Reply, MAX_FRAME_PAYLOAD, STREAM_MAGIC};
use cc_server::request::Request;
use cc_server::WireClient;
use connectit::Update;

/// Opens a raw binary connection: magic written, reader positioned after
/// it. Frames are then hand-rolled so damage can be injected.
fn raw_bin(addr: SocketAddr) -> (RecordReader<TcpStream>, TcpStream) {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    stream.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout");
    let mut w = stream.try_clone().expect("clone");
    w.write_all(&STREAM_MAGIC).expect("magic");
    (RecordReader::new(stream, 0), w)
}

/// `len|crc|payload` with an optionally corrupted CRC.
fn send_frame(w: &mut TcpStream, payload: &[u8], crc_xor: u32) {
    let mut f = Vec::with_capacity(8 + payload.len());
    f.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    f.extend_from_slice(&(crc32(payload) ^ crc_xor).to_le_bytes());
    f.extend_from_slice(payload);
    w.write_all(&f).expect("frame");
}

/// One response frame, split into `(corr, status, body)`.
fn read_reply(r: &mut RecordReader<TcpStream>) -> (u64, u8, Vec<u8>) {
    let p = r.next().expect("read frame").expect("frame, not EOF");
    assert!(p.len() >= 9, "response shorter than its header: {p:?}");
    (u64::from_le_bytes(p[0..8].try_into().unwrap()), p[8], p[9..].to_vec())
}

fn expect_err(r: &mut RecordReader<TcpStream>, want_corr: u64, want: &str) {
    let (corr, status, body) = read_reply(r);
    assert_eq!(corr, want_corr);
    assert_eq!(status, binproto::STATUS_ERR, "expected ERR, got status {status}");
    assert_eq!(String::from_utf8(body).expect("utf-8"), want);
}

fn expect_eof(r: &mut RecordReader<TcpStream>) {
    match r.next() {
        Ok(None) => {}
        Ok(Some(p)) => panic!("expected close, got frame {p:?}"),
        // A reset instead of a clean FIN also proves the close.
        Err(_) => {}
    }
}

#[test]
fn binary_and_text_share_the_port_and_requests_pipeline() {
    let (mut svc, mut server, addr) = start(Role::Primary);
    let mut bin = WireClient::binary(addr).expect("binary connect");
    // A text connection next door is untouched by the binary traffic.
    let (mut tr, mut tw) = raw(addr);

    bin.ping().expect("ping");
    bin.insert(1, 2).expect("insert");
    bin.insert(2, 3).expect("insert");
    assert!(bin.query(1, 3).expect("query"));
    assert!(!bin.query(1, 4).expect("query"));
    assert_eq!(bin.query_gen(1, 3).expect("qg"), (true, None));
    let answers = bin
        .submit(&[Update::Insert(10, 11), Update::Query(10, 11), Update::Query(10, 12)])
        .expect("batch");
    assert_eq!(answers.len(), 2);
    assert!(answers[0].0 && !answers[1].0);
    let e = bin.epoch().expect("epoch");
    assert_eq!(bin.wait_epoch(e, 1000).expect("wait"), e);
    let g = bin.quiesce(10_000).expect("quiesce");
    assert_eq!(g, 0, "no deletions: still generation 0");

    // Pipelining: many in-flight requests on one connection, answers
    // collected by correlation id in whatever order they complete.
    let mut want = std::collections::HashMap::new();
    for i in 0..64u32 {
        let corr = bin.send(&Request::Query(1, 2 + (i % 3))).expect("send");
        want.insert(corr, (i % 3) < 2);
    }
    assert_eq!(bin.in_flight(), 64);
    while bin.in_flight() > 0 {
        let (corr, reply) = bin.reap().expect("reap");
        let expected = want.remove(&corr).expect("known corr id");
        assert_eq!(reply, Reply::Bit(expected), "corr {corr}");
    }
    assert!(want.is_empty());

    // The text door still answers, and sees the binary traffic's state.
    send_line(&mut tw, "Q 1 3");
    assert_eq!(read_line(&mut tr), "1");
    send_line(&mut tw, "PING");
    assert_eq!(read_line(&mut tr), "PONG");
    server.stop();
    svc.shutdown();
}

#[test]
fn binary_request_errors_answer_exact_spellings_and_stay_open() {
    let (mut svc, mut server, addr) = start(Role::Primary);
    let (mut r, mut w) = raw_bin(addr);
    // Unknown verb tag.
    let mut p = 7u64.to_le_bytes().to_vec();
    p.push(0xFF);
    send_frame(&mut w, &p, 0);
    expect_err(&mut r, 7, "unknown binary verb 0xff");
    // Fixed-layout verb with short arguments.
    let mut p = 8u64.to_le_bytes().to_vec();
    p.push(binproto::verb::QUERY);
    p.extend_from_slice(&[1, 2, 3]);
    send_frame(&mut w, &p, 0);
    expect_err(&mut r, 8, "bad Q payload: need 8 bytes, have 3");
    // Batch with an unknown op tag.
    let mut p = 9u64.to_le_bytes().to_vec();
    p.push(binproto::verb::BATCH);
    p.extend_from_slice(&1u32.to_le_bytes());
    p.push(9);
    p.extend_from_slice(&1u32.to_le_bytes());
    p.extend_from_slice(&2u32.to_le_bytes());
    send_frame(&mut w, &p, 0);
    expect_err(&mut r, 9, "bad B payload: unknown batch op tag 0x09");
    // Batch header promising more ops than the wire cap.
    let mut p = 10u64.to_le_bytes().to_vec();
    p.push(binproto::verb::BATCH);
    p.extend_from_slice(&((MAX_WIRE_BATCH + 1) as u32).to_le_bytes());
    send_frame(&mut w, &p, 0);
    expect_err(&mut r, 10, &format!("batch too large (max {MAX_WIRE_BATCH})"));
    // Out-of-range vertices reuse the service spelling, per request.
    send_frame(&mut w, &binproto::encode_request(11, &Request::Query(99, 0)), 0);
    expect_err(&mut r, 11, "vertex 99 out of range (n = 64)");
    // All recoverable: the connection still answers.
    send_frame(&mut w, &binproto::encode_request(12, &Request::Ping), 0);
    assert_eq!(read_reply(&mut r), (12, binproto::STATUS_OK, vec![]));
    server.stop();
    svc.shutdown();
}

#[test]
fn binary_frame_damage_gets_a_typed_err_and_close() {
    let (mut svc, mut server, addr) = start(Role::Primary);
    // CRC damage: corr-0 ERR, then close (`bad-frame`).
    {
        let (mut r, mut w) = raw_bin(addr);
        let p = binproto::encode_request(1, &Request::Ping);
        let stored = crc32(&p) ^ 1;
        let computed = crc32(&p);
        send_frame(&mut w, &p, 1);
        expect_err(
            &mut r,
            0,
            &format!("bad frame: crc mismatch (stored {stored:#010x}, computed {computed:#010x})"),
        );
        expect_eof(&mut r);
    }
    // Oversized declared length: refused before buffering the payload.
    {
        let (mut r, mut w) = raw_bin(addr);
        let huge = MAX_FRAME_PAYLOAD + 1;
        w.write_all(&huge.to_le_bytes()).expect("len");
        w.write_all(&0u32.to_le_bytes()).expect("crc");
        expect_err(
            &mut r,
            0,
            &format!("bad frame: oversized payload {huge} (max {MAX_FRAME_PAYLOAD})"),
        );
        expect_eof(&mut r);
    }
    // Sniff byte followed by a wrong magic suffix.
    {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout");
        let mut w = stream.try_clone().expect("clone");
        w.write_all(&[binproto::SNIFF_BYTE, b'X', b'X', b'X', b'X', b'X', b'X', b'\n'])
            .expect("bad magic");
        let mut r = RecordReader::new(stream, 0);
        expect_err(&mut r, 0, "bad frame: unknown binary stream magic");
        expect_eof(&mut r);
    }
    // A request frame shorter than its 9-byte header poisons the stream.
    {
        let (mut r, mut w) = raw_bin(addr);
        send_frame(&mut w, &[1, 2, 3], 0);
        expect_err(&mut r, 0, "bad frame: request header needs 9 bytes, have 3");
        expect_eof(&mut r);
    }
    // The server survived all four autopsies.
    let mut bin = WireClient::binary(addr).expect("connect");
    bin.ping().expect("ping");
    server.stop();
    svc.shutdown();
}

#[test]
fn binary_follower_rejects_updates_and_serves_query_batches() {
    let (mut svc, mut server, addr) = start(Role::Follower);
    let mut bin = WireClient::binary(addr).expect("connect");
    let deny = "read-only follower: route updates to the primary";
    let corr = bin.send(&Request::Insert(1, 2)).expect("send");
    assert_eq!(bin.reap().expect("reap"), (corr, Reply::Err(deny.into())));
    let corr = bin.send(&Request::Delete(1, 2)).expect("send");
    assert_eq!(bin.reap().expect("reap"), (corr, Reply::Err(deny.into())));
    // One update poisons the whole batch, exactly like the text door...
    let corr =
        bin.send(&Request::Batch(vec![Update::Insert(1, 2), Update::Query(1, 2)])).expect("send");
    assert_eq!(bin.reap().expect("reap"), (corr, Reply::Err(deny.into())));
    // ...while query-only batches answer against the replicated state.
    let answers = bin.submit(&[Update::Query(1, 2), Update::Query(3, 3)]).expect("submit");
    assert_eq!(answers, vec![(false, None), (true, None)]);
    assert!(!bin.query(1, 2).expect("query"));
    // WAIT keeps the text spelling for a timed-out barrier.
    let corr = bin.send(&Request::Wait { epoch: 5, timeout_ms: 50 }).expect("send");
    assert_eq!(
        bin.reap().expect("reap"),
        (corr, Reply::Err("wait for epoch 5 timed out at epoch 0".into()))
    );
    server.stop();
    svc.shutdown();
}

#[test]
fn idle_sweep_spares_a_request_in_flight_on_either_door() {
    // A 100 ms idle timeout and a 400 ms barrier: the connection waits on
    // the server, not the other way round, so it must get its reply.
    let svc =
        Service::start(ServiceConfig { n: 64, role: Role::Follower, ..ServiceConfig::default() })
            .expect("service starts");
    let cfg = cc_server::NetConfig {
        idle_timeout: Some(Duration::from_millis(100)),
        ..cc_server::NetConfig::default()
    };
    let mut server = cc_server::net::serve_with(&svc, "127.0.0.1:0", cfg).expect("bind");
    let addr = server.local_addr();
    let (mut r, mut w) = raw(addr);
    send_line(&mut w, "WAIT 5 400");
    assert_eq!(read_line(&mut r), "ERR wait for epoch 5 timed out at epoch 0");
    let mut bin = WireClient::binary(addr).expect("connect");
    let corr = bin.send(&Request::Wait { epoch: 5, timeout_ms: 400 }).expect("send");
    assert_eq!(
        bin.reap().expect("reap"),
        (corr, Reply::Err("wait for epoch 5 timed out at epoch 0".into()))
    );
    server.stop();
    let mut svc = svc;
    svc.shutdown();
}

#[test]
fn a_binary_client_that_stops_reading_is_not_read_until_it_drains() {
    // A 4 KiB write budget, and a pipelined burst of `STATS` frames whose
    // replies (~34 MB) are far more than the server's send buffer
    // (tcp_wmem caps it at 4 MiB by default) and the client's receive
    // buffer (which grows only as the client reads) hold together: once
    // they fill, the shard must stop reading the connection, on the
    // binary door as on the text door.
    const BURST: u64 = 250_000;
    let svc = Service::start(ServiceConfig { n: 64, ..ServiceConfig::default() })
        .expect("service starts");
    let cfg = cc_server::NetConfig { max_wbuf: 4096, ..cc_server::NetConfig::default() };
    let mut server = cc_server::net::serve_with(&svc, "127.0.0.1:0", cfg).expect("bind");
    let client = svc.client();
    let frames_in = || {
        let scrape = client.render_metrics();
        let line =
            scrape.iter().find_map(|l| l.strip_prefix("connectit_frames_total{dir=\"in\"} "));
        line.expect("frames-in series").parse::<u64>().expect("a count")
    };
    let (mut r, mut w) = raw_bin(server.local_addr());
    let writer = std::thread::spawn(move || {
        let stats = |corr| binproto::frame(&binproto::encode_request(corr, &Request::Stats));
        let burst: Vec<u8> = (1..=BURST).flat_map(stats).collect();
        w.write_all(&burst).expect("burst");
        w
    });
    // Not reading: the shard's frame count stalls short of the burst.
    let (mut seen, mut since) = (frames_in(), Instant::now());
    while since.elapsed() < Duration::from_millis(500) {
        std::thread::sleep(Duration::from_millis(50));
        let now = frames_in();
        assert!(now < BURST, "the shard read all {BURST} frames while their replies sat unsent");
        if now != seen {
            (seen, since) = (now, Instant::now());
        }
    }
    // Draining: every reply arrives, in order.
    let mut bytes = 0;
    for want in 1..=BURST {
        let (corr, status, body) = read_reply(&mut r);
        assert_eq!((corr, status), (want, binproto::STATUS_OK));
        bytes += 17 + body.len() as u64;
    }
    assert!(bytes > 24 << 20, "the burst must dwarf the socket buffers: {bytes} bytes");
    drop(writer.join().expect("writer"));
    server.stop();
    let mut svc = svc;
    svc.shutdown();
}
