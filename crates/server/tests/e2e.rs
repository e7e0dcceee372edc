//! End-to-end tests: a live service under concurrent multi-client load,
//! in-process and over TCP, validated against the sequential oracle —
//! including full crash drills that SIGKILL a real `connectit-serve`
//! process and verify recovery from its `--wal-dir`.

use cc_parallel::SplitMix64;
use cc_server::request::Request;
use cc_server::{
    serve, DurabilityConfig, ExecMode, FsyncPolicy, Reply, Service, ServiceConfig, SubKind,
    WireClient,
};
use cc_unionfind::{FindKind, SeqUnionFind, SpliceKind, UfSpec, UniteKind};
use connectit::Update;
use std::io::{BufRead, BufReader, Read};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

fn tmp_dir(tag: &str) -> PathBuf {
    cc_server::scratch_dir(&format!("e2e_{tag}"))
}

/// A spawned `connectit-serve` with its parsed startup line. Keep
/// `reader` alive (the server's final prints need a live pipe) and drain
/// it before waiting on the child.
struct Served {
    child: Child,
    addr: SocketAddr,
    recovered_epoch: u64,
    /// The `replication_addr=` of a primary started with
    /// `--replication-port`.
    replication_addr: Option<SocketAddr>,
    reader: BufReader<ChildStdout>,
}

/// Spawns a real `connectit-serve` process and parses its startup line.
fn spawn_serve_full(args: &[&str]) -> Served {
    let mut child = Command::new(env!("CARGO_BIN_EXE_connectit-serve"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn connectit-serve");
    let mut reader = BufReader::new(child.stdout.take().expect("serve stdout"));
    let mut line = String::new();
    reader.read_line(&mut line).expect("serve startup line");
    assert!(line.contains("listening on"), "unexpected startup line: {line:?}");
    let mut it = line.split_whitespace();
    let addr: SocketAddr = it
        .by_ref()
        .skip_while(|t| *t != "on")
        .nth(1)
        .expect("addr token")
        .parse()
        .expect("addr parses");
    let recovered_epoch = line
        .split_whitespace()
        .find_map(|t| t.strip_prefix("recovered_epoch=")?.parse().ok())
        .unwrap_or(0);
    let replication_addr =
        line.split_whitespace().find_map(|t| t.strip_prefix("replication_addr=")?.parse().ok());
    Served { child, addr, recovered_epoch, replication_addr, reader }
}

fn spawn_serve(args: &[&str]) -> (Child, SocketAddr, u64, BufReader<ChildStdout>) {
    let s = spawn_serve_full(args);
    (s.child, s.addr, s.recovered_epoch, s.reader)
}

/// Runs `connectit-loadgen` with the given args; returns (success,
/// stdout).
fn run_loadgen(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_connectit-loadgen"))
        .args(args)
        .stderr(Stdio::inherit())
        .output()
        .expect("run connectit-loadgen");
    (out.status.success(), String::from_utf8_lossy(&out.stdout).into_owned())
}

/// SIGKILLs a serve child — the crash under test — and reaps it.
fn hard_kill(mut child: Child) {
    child.kill().expect("SIGKILL serve");
    child.wait().expect("reap serve");
}

fn drain_and_wait(mut child: Child, mut reader: BufReader<ChildStdout>) {
    let mut rest = String::new();
    let _ = reader.read_to_string(&mut rest);
    let status = child.wait().expect("serve exits");
    assert!(status.success(), "serve exited non-zero; tail: {rest}");
}

/// Drives `clients` concurrent closed loops against `svc`, each with a
/// private vertex slice and its own oracle; returns (queries, mismatches).
fn drive_clients(svc: &Service, n: usize, clients: usize, batches: usize) -> (u64, u64) {
    let results: Vec<(u64, u64)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|idx| {
                let client = svc.client();
                s.spawn(move || {
                    let sz = n / clients;
                    let base = (idx * sz) as u32;
                    let mut oracle = SeqUnionFind::new(sz);
                    let mut rng = SplitMix64::new(idx as u64 + 99);
                    let (mut queries, mut mismatches) = (0u64, 0u64);
                    for _ in 0..batches {
                        let mut script = Vec::new();
                        let mut wire = Vec::new();
                        let mut before = Vec::new();
                        for _ in 0..256 {
                            let lu = (rng.next_u64() % sz as u64) as u32;
                            let lv = (rng.next_u64() % sz as u64) as u32;
                            let is_query = rng.next_u64().is_multiple_of(2);
                            script.push((is_query, lu, lv));
                            if is_query {
                                before.push(oracle.connected(lu, lv));
                                wire.push(Update::Query(base + lu, base + lv));
                            } else {
                                wire.push(Update::Insert(base + lu, base + lv));
                            }
                        }
                        let answers = client.submit(wire).expect("submit");
                        for &(is_query, lu, lv) in &script {
                            if !is_query {
                                oracle.union(lu, lv);
                            }
                        }
                        let mut qi = 0;
                        for &(is_query, lu, lv) in &script {
                            if !is_query {
                                continue;
                            }
                            let got = answers[qi];
                            let was = before[qi];
                            qi += 1;
                            queries += 1;
                            // Bracketing: stable answers are forced; a
                            // within-batch false->true transition is free.
                            if was == oracle.connected(lu, lv) && got != was {
                                mismatches += 1;
                            }
                        }
                    }
                    (queries, mismatches)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });
    results.into_iter().fold((0, 0), |(q, m), (dq, dm)| (q + dq, m + dm))
}

#[test]
fn concurrent_clients_linearizable_waitfree() {
    let n = 4096;
    let mut svc = Service::start(ServiceConfig { n, shards: 4, ..ServiceConfig::default() })
        .expect("service");
    let (queries, mismatches) = drive_clients(&svc, n, 4, 20);
    assert!(queries > 1000, "drove {queries} queries");
    assert_eq!(mismatches, 0);
    // The published view agrees with a per-slice oracle rebuild: every
    // client's slice is internally consistent.
    let stats = svc.client().stats();
    assert_eq!(stats.ops, 4 * 20 * 256);
    assert!(stats.epoch > 0);
    svc.shutdown();
}

#[test]
fn concurrent_clients_linearizable_phased() {
    let n = 2048;
    let mut svc = Service::start(ServiceConfig {
        n,
        shards: 4,
        spec: UfSpec::rem(UniteKind::RemCas, SpliceKind::Splice, FindKind::Naive),
        mode: ExecMode::Phased,
        ..ServiceConfig::default()
    })
    .expect("service");
    let (queries, mismatches) = drive_clients(&svc, n, 4, 12);
    assert!(queries > 500);
    assert_eq!(mismatches, 0);
    svc.shutdown();
}

#[test]
fn finish_spec_vocabulary_serves_any_variant() {
    // The --finish CLI path: arbitrary parsed variants (beyond the --alg
    // shorthand) must serve verified traffic end to end.
    for spec_str in ["rem-lock+halve-one+compress", "hooks+split", "jtb+two-try"] {
        let spec: UfSpec = spec_str.parse().expect("valid spec");
        let n = 1024;
        let mut svc =
            Service::start(ServiceConfig { n, shards: 4, spec, ..ServiceConfig::default() })
                .expect("service");
        let (queries, mismatches) = drive_clients(&svc, n, 2, 6);
        assert!(queries > 100, "{spec_str}");
        assert_eq!(mismatches, 0, "{spec_str}");
        svc.shutdown();
    }
    // Invalid combos surface the validation rule.
    let err = "rem-cas+splice+compress".parse::<UfSpec>().unwrap_err();
    assert!(err.contains("FindCompress"), "{err}");
}

#[test]
fn snapshot_matches_oracle_after_quiescence() {
    let n = 512;
    let mut svc = Service::start(ServiceConfig { n, shards: 3, ..ServiceConfig::default() })
        .expect("service");
    let client = svc.client();
    let mut rng = SplitMix64::new(7);
    let mut oracle = SeqUnionFind::new(n);
    let mut batch = Vec::new();
    for _ in 0..600 {
        let u = (rng.next_u64() % n as u64) as u32;
        let v = (rng.next_u64() % n as u64) as u32;
        oracle.union(u, v);
        batch.push(Update::Insert(u, v));
    }
    client.submit(batch).expect("submit");
    let labels = client.labels();
    assert!(cc_graph::stats::same_partition(&oracle.labels(), &labels));
    assert_eq!(cc_graph::stats::count_distinct_labels(&labels), oracle.num_components());
    assert_eq!(client.num_components(), oracle.num_components());
    svc.shutdown();
}

#[test]
fn tcp_protocol_end_to_end() {
    let mut svc = Service::start(ServiceConfig { n: 1024, shards: 4, ..ServiceConfig::default() })
        .expect("service");
    let mut server = serve(&svc, "127.0.0.1:0").expect("bind");
    let addr = server.local_addr();

    // A couple of concurrent connections hammering the same server.
    std::thread::scope(|s| {
        for t in 0..3u32 {
            s.spawn(move || {
                let mut c = WireClient::text(addr).expect("connect");
                c.ping().expect("ping");
                let base = t * 300;
                c.insert(base, base + 1).expect("insert");
                c.insert(base + 1, base + 2).expect("insert");
                assert!(c.query(base, base + 2).expect("query"));
                assert!(!c.query(base, base + 250).expect("query"));
                let answers = c
                    .submit(&[
                        Update::Insert(base + 2, base + 3),
                        Update::Query(base, base + 3),
                        Update::Query(base + 100, base + 101),
                    ])
                    .expect("batch");
                assert_eq!(answers.len(), 2);
                assert!(!answers[1].0);
                assert_eq!(c.label(base).expect("label"), c.label(base + 3).expect("label"));
                assert!(c.epoch().expect("epoch") > 0);
                let comps = c.components().expect("components");
                assert!(comps < 1024);
                let stats = c.stats_line().expect("stats");
                assert!(stats.contains("epoch="), "{stats}");
            });
        }
    });

    // Malformed input gets an ERR, connection survives.
    let mut c = WireClient::text(addr).expect("connect");
    assert!(c.query(5000, 0).is_err(), "out-of-range vertex is a server-side error");
    c.ping().expect("connection still alive after ERR");

    // An oversized batch is rejected locally, before any bytes go out.
    let huge = vec![Update::Insert(0, 1); cc_server::net::MAX_WIRE_BATCH + 1];
    assert!(c.submit(&huge).is_err());
    c.ping().expect("connection still in sync after local rejection");

    // Clean shutdown via the protocol.
    c.shutdown_server().expect("shutdown");
    server.wait_shutdown();
    svc.shutdown();
}

#[test]
fn tcp_durability_verbs_end_to_end() {
    let dir = tmp_dir("verbs");
    let mut svc = Service::start(ServiceConfig {
        n: 256,
        shards: 2,
        durability: Some(DurabilityConfig {
            fsync: FsyncPolicy::Off,
            ..DurabilityConfig::new(&dir)
        }),
        ..ServiceConfig::default()
    })
    .expect("service");
    let mut server = serve(&svc, "127.0.0.1:0").expect("bind");
    let mut c = WireClient::text(server.local_addr()).expect("connect");
    c.insert(1, 2).expect("insert");
    c.flush_wal().expect("FLUSH");
    let snap_epoch = c.durable_snapshot().expect("SNAPSHOT");
    assert!(snap_epoch >= 1);
    let stats = c.wal_stats_line().expect("WALSTATS");
    for key in ["policy=off", "records=", "snap_epoch=", "last_error=-"] {
        assert!(stats.contains(key), "{stats}");
    }
    server.stop();
    svc.shutdown();

    // The same verbs against a WAL-less server are typed errors, and the
    // connection survives them.
    let mut svc =
        Service::start(ServiceConfig { n: 16, ..ServiceConfig::default() }).expect("service");
    let mut server = serve(&svc, "127.0.0.1:0").expect("bind");
    let mut c = WireClient::text(server.local_addr()).expect("connect");
    for r in [c.flush_wal().unwrap_err(), c.durable_snapshot().unwrap_err()] {
        assert!(r.to_string().contains("durability is not enabled"), "{r}");
    }
    assert!(c.wal_stats_line().is_err());
    c.ping().expect("connection survives durability ERRs");
    server.stop();
    svc.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// PROTOCOL.md §1.3: `root=` in a pushed `! EVT` line is the
/// representative `SIZE` and `TOPK` name at the same `(epoch, gen)` —
/// across a clean-path merge and across a rebuild commit, quiesced so
/// the three reads describe one state.
#[test]
fn tcp_evt_size_and_topk_name_the_same_root() {
    let mut svc = Service::start(ServiceConfig { n: 64, shards: 2, ..ServiceConfig::default() })
        .expect("service");
    let mut server = serve(&svc, "127.0.0.1:0").expect("bind");
    let mut c = WireClient::text(server.local_addr()).expect("connect");
    let event = |c: &mut WireClient| {
        let evs = c.poll_events(Duration::from_secs(30)).expect("push line");
        assert_eq!(evs.len(), 1, "{evs:?}");
        evs[0]
    };
    let check = |c: &mut WireClient, ev: cc_server::SubEvent, what: &str| {
        c.wait_epoch(ev.epoch, 30_000).expect("WAIT");
        let (size, root) = c.component_size(1).expect("SIZE");
        assert_eq!((ev.root, ev.size), (root, size), "{what}: EVT vs SIZE");
        let (topk, _, gen, sealed) = c.topk(cc_server::net::DEFAULT_TOPK as u8).expect("TOPK");
        assert_eq!((ev.generation, false), (gen, sealed), "{what}");
        assert_eq!(topk, vec![(root, size)], "{what}: TOPK");
    };
    c.insert(3, 1).expect("I 3 1");
    c.subscribe(SubKind::Component, 1, 1, false).expect("SUB COMPONENT 1");
    c.insert(1, 5).expect("I 1 5");
    let merged = event(&mut c);
    assert_eq!(merged.size, 3);
    check(&mut c, merged, "clean-path merge");
    c.delete(3, 1).expect("D 3 1");
    c.quiesce(30_000).expect("QUIESCE");
    let committed = event(&mut c);
    assert_eq!((committed.size, committed.generation), (2, merged.generation + 1));
    check(&mut c, committed, "rebuild commit");
    server.stop();
    svc.shutdown();
}

/// A durable subscription's events go to the connection that attached
/// it last: closing the connection that registered it detaches a sink
/// the subscription no longer holds, so the later attach keeps receiving.
#[test]
fn closing_the_registering_connection_keeps_a_later_attach() {
    let dir = tmp_dir("sub_owner");
    let mut svc = Service::start(ServiceConfig {
        n: 16,
        shards: 2,
        durability: Some(DurabilityConfig::new(&dir)),
        ..ServiceConfig::default()
    })
    .expect("service");
    let mut server = serve(&svc, "127.0.0.1:0").expect("bind");
    let addr = server.local_addr();
    let obs = svc.client().observability();
    let mut a = WireClient::text(addr).expect("connect A");
    let (id, _) = a.subscribe(SubKind::Pair, 1, 2, true).expect("SUB 1 2 DURABLE");
    let mut b = WireClient::text(addr).expect("connect B");
    b.attach_sub(id, 0).expect("SUB ATTACH");
    drop(a);
    // The insert must land after the shard has closed A.
    let deadline = Instant::now() + Duration::from_secs(10);
    while obs.metrics.connections_live.get() > 1 {
        assert!(Instant::now() < deadline, "A's close was never processed");
        std::thread::sleep(Duration::from_millis(5));
    }
    let mut c = WireClient::text(addr).expect("connect C");
    c.insert(1, 2).expect("I 1 2");
    let evs = b.poll_events(Duration::from_secs(10)).expect("pushed event");
    assert_eq!(evs.len(), 1, "{evs:?}");
    assert_eq!((evs[0].id, evs[0].u, evs[0].v), (id, 1, 2));
    server.stop();
    svc.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// `SUB ATTACH` binds a durable subscription only: a live ephemeral id
/// answers the unknown-subscription error, and its owner keeps it.
#[test]
fn sub_attach_refuses_an_ephemeral_subscription() {
    let mut svc = Service::start(ServiceConfig { n: 16, shards: 2, ..ServiceConfig::default() })
        .expect("service");
    let mut server = serve(&svc, "127.0.0.1:0").expect("bind");
    let mut a = WireClient::text(server.local_addr()).expect("connect A");
    let (id, _) = a.subscribe(SubKind::Pair, 1, 2, false).expect("SUB 1 2");
    let mut b = WireClient::text(server.local_addr()).expect("connect B");
    let err = b.attach_sub(id, 0).unwrap_err();
    assert_eq!(err.to_string(), format!("server error: unknown subscription id {id}"));
    b.insert(1, 2).expect("I 1 2");
    let evs = a.poll_events(Duration::from_secs(10)).expect("pushed event");
    assert_eq!(evs.iter().map(|ev| ev.id).collect::<Vec<_>>(), vec![id]);
    server.stop();
    svc.shutdown();
}

/// Sends `req` through both doors' clients; the replies must be equal up
/// to what the text door cannot carry (`B` answers lose their
/// generations). Returns the text door's reply.
fn on_both_doors(doors: &mut [WireClient; 2], req: Request) -> Reply {
    let [text, bin] = doors.each_mut().map(|c| c.call(&req).expect("call"));
    let bin = match bin {
        Reply::Answers(a) => Reply::Answers(a.into_iter().map(|(bit, _)| (bit, None)).collect()),
        r => r,
    };
    assert_eq!(text, bin, "{req:?}");
    text
}

/// One client, both doors: the same script against one server answers
/// alike through the text codec and through the binary codec, for every
/// verb; each door receives its subscription's pushed event.
#[test]
fn one_client_answers_alike_on_both_doors() {
    use Request as W;
    let dir = tmp_dir("both_doors");
    let mut svc = Service::start(ServiceConfig {
        n: 64,
        shards: 2,
        durability: Some(DurabilityConfig::new(&dir)),
        ..ServiceConfig::default()
    })
    .expect("service");
    let mut server = serve(&svc, "127.0.0.1:0").expect("bind");
    let addr = server.local_addr();
    let mut doors =
        [WireClient::text(addr).expect("text"), WireClient::binary(addr).expect("binary")];
    let both = on_both_doors;

    // Writes: each door writes the same edges (a repeat changes nothing),
    // and the batch's queries read state both doors already acked.
    assert_eq!(both(&mut doors, W::Insert(1, 2)), Reply::Ok);
    assert_eq!(both(&mut doors, W::Insert(2, 3)), Reply::Ok);
    let batch = W::Batch(vec![Update::Insert(4, 5), Update::Query(1, 3), Update::Query(1, 9)]);
    assert_eq!(both(&mut doors, batch), Reply::Answers(vec![(true, None), (false, None)]));
    // Reads of one settled state.
    assert_eq!(both(&mut doors, W::Quiesce { timeout_ms: 10_000 }), Reply::Value(0));
    assert_eq!(both(&mut doors, W::Query(1, 3)), Reply::Bit(true));
    assert_eq!(both(&mut doors, W::QueryGen(1, 9)), Reply::BitGen(false, None));
    assert!(matches!(both(&mut doors, W::Gen), Reply::Gen { generation: 0, .. }));
    let Reply::Topk { entries, .. } = both(&mut doors, W::Topk { k: 3 }) else { panic!("TOPK") };
    assert_eq!(entries.iter().map(|&(_, size)| size).collect::<Vec<_>>(), vec![3, 2]);
    assert!(matches!(both(&mut doors, W::Hist), Reply::Hist { components: 61, .. }));
    let Reply::Size { size: 3, root } = both(&mut doors, W::Size(1)) else { panic!("SIZE") };
    assert_eq!(both(&mut doors, W::Label(3)), Reply::Value(root.into()));
    assert_eq!(both(&mut doors, W::Components), Reply::Value(61));
    assert_eq!(both(&mut doors, W::Role), Reply::Line("primary".into()));
    assert_eq!(both(&mut doors, W::Ping), Reply::Ok);
    for c in &mut doors {
        let err = c.query(1, 99).unwrap_err();
        assert_eq!(err.to_string(), "server error: vertex 99 out of range (n = 64)");
        let err = c.label(99).unwrap_err();
        assert_eq!(err.to_string(), "server error: vertex 99 out of range (n = 64)");
    }
    // Reads commit nothing, so both doors read one epoch after them.
    let Reply::Value(epoch) = both(&mut doors, W::Epoch) else { panic!("EPOCH") };
    assert_eq!(both(&mut doors, W::Wait { epoch, timeout_ms: 1000 }), Reply::Value(epoch));
    assert_eq!(both(&mut doors, W::Flush), Reply::Ok);
    assert_eq!(both(&mut doors, W::Snapshot), Reply::Value(epoch));
    // The counter dumps move between the two calls; their shape does not.
    for req in [W::Metrics, W::Trace(5), W::Stats, W::WalStats] {
        let [text, bin] = doors.each_mut().map(|c| c.call(&req).expect("dump"));
        assert_eq!(std::mem::discriminant(&text), std::mem::discriminant(&bin), "{req:?}");
        assert!(matches!(text, Reply::Dump(_) | Reply::Line(_)), "{req:?}: {text:?}");
    }

    // SUB: ids are the server's, one per registration; the epoch is the
    // same. The pair is connected already, so each subscription fires at
    // once, toward its own door.
    let mut ids = Vec::new();
    for (c, durable) in doors.iter_mut().zip([true, false]) {
        let sub = W::Subscribe { kind: SubKind::Pair, u: 1, v: 3, durable };
        let Reply::Subscribed { id, epoch: at } = c.call(&sub).expect("SUB") else { panic!("SUB") };
        assert_eq!(at, epoch);
        let mut evs = c.take_events();
        if evs.is_empty() {
            evs = c.poll_events(Duration::from_secs(30)).expect("pushed event");
        }
        assert_eq!(evs.len(), 1, "{evs:?}");
        assert_eq!((evs[0].id, evs[0].u, evs[0].v, evs[0].size), (id, 1, 3, 3));
        ids.push(id);
    }
    assert_ne!(ids[0], ids[1]);
    let Reply::Dump(subs) = both(&mut doors, W::Subs) else { panic!("SUBS") };
    assert_eq!(subs.len(), 2, "{subs:?}");
    // Either door re-binds the durable one; its acked fire is not replayed.
    let attach = W::SubAttach { id: ids[0], after_seq: 1 };
    assert_eq!(both(&mut doors, attach), Reply::Subscribed { id: ids[0], epoch });
    for (c, id) in doors.iter_mut().zip(ids) {
        assert_eq!(c.call(&W::Unsubscribe { id }).expect("UNSUB"), Reply::Ok);
        assert!(c.take_events().is_empty());
    }
    // `QUIT` closes either door once its replies are out.
    for c in &mut doors {
        c.send(&W::Quit).expect("QUIT");
        let err = c.reap().unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof, "{err}");
    }
    server.stop();
    svc.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The deterministic crash drill: loadgen checkpoints its oracle with
/// `--kill-after`, the server is SIGKILLed and restarted from the same
/// `--wal-dir`, and the `--resume` run re-validates the checkpoint across
/// the restart. Zero mismatches and a monotone epoch are required.
#[test]
fn binaries_kill_restart_checkpoint_resume() {
    let dir = tmp_dir("drill");
    let wal = dir.join("wal");
    let wal = wal.to_str().expect("utf8 path");
    let state = dir.join("lg.state");
    let state = state.to_str().expect("utf8 path");
    let serve_args = |port: &str| {
        vec![
            "--n".to_string(),
            "20000".into(),
            "--shards".into(),
            "4".into(),
            "--port".into(),
            port.to_string(),
            "--wal-dir".into(),
            wal.to_string(),
            "--fsync".into(),
            "batch".into(),
            "--snapshot-every".into(),
            "8".into(),
        ]
    };
    let args0 = serve_args("0");
    let (child, addr, recovered, reader) =
        spawn_serve(&args0.iter().map(String::as_str).collect::<Vec<_>>());
    assert_eq!(recovered, 0, "fresh wal dir");
    drop(reader);

    let addr_s = addr.to_string();
    let (ok, out) = run_loadgen(&[
        "--mode",
        "tcp",
        "--addr",
        &addr_s,
        "--n",
        "20000",
        "--clients",
        "2",
        "--batches",
        "24",
        "--batch-ops",
        "400",
        "--kill-after",
        "12",
        "--state",
        state,
    ]);
    assert!(ok, "checkpoint phase failed:\n{out}");
    assert!(out.contains(" mismatches=0"), "{out}");

    // Observe the epoch the durable history reached, then crash.
    let epoch_before = {
        let mut c = WireClient::text(addr).expect("connect");
        c.epoch().expect("epoch")
    };
    assert!(epoch_before > 0);
    hard_kill(child);

    // Restart from the same wal dir on the same port.
    let port_s = addr.port().to_string();
    let args1 = serve_args(&port_s);
    let (child, addr2, recovered, reader) =
        spawn_serve(&args1.iter().map(String::as_str).collect::<Vec<_>>());
    assert_eq!(addr2, addr);
    assert!(
        recovered >= epoch_before,
        "recovered epoch {recovered} regressed below the observed {epoch_before}"
    );

    // Resume: restore the oracle checkpoint, sweep-validate it against
    // the recovered server, then finish the remaining batches. (No
    // --shutdown: the epoch check below needs the server answering.)
    let (ok, out) = run_loadgen(&[
        "--mode",
        "tcp",
        "--addr",
        &addr_s,
        "--n",
        "20000",
        "--clients",
        "2",
        "--batches",
        "24",
        "--batch-ops",
        "400",
        "--resume",
        "--state",
        state,
    ]);
    assert!(ok, "resume phase failed:\n{out}");
    assert!(out.contains(" mismatches=0"), "{out}");
    let sweeps: u64 = out
        .split_whitespace()
        .find_map(|t| t.strip_prefix("sweep_checks=")?.parse().ok())
        .expect("sweep_checks in output");
    assert!(sweeps > 0, "resume must re-validate the restored oracle:\n{out}");
    let mut c = WireClient::text(addr).expect("server still serving");
    let epoch_after = c.epoch().expect("epoch");
    assert!(epoch_after >= epoch_before, "epoch regressed across the restart");
    c.shutdown_server().expect("shutdown");
    drain_and_wait(child, reader);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The mid-load crash drill: the server is SIGKILLed while loadgen is
/// actively driving it; `--resume` reconnects, resubmits the in-flight
/// insertions, and the run finishes with zero mismatches.
#[test]
fn binaries_kill_mid_load_and_reconnect() {
    let dir = tmp_dir("midload");
    let wal = dir.join("wal");
    let wal = wal.to_str().expect("utf8 path").to_string();
    let base = vec![
        "--n".to_string(),
        "8000".into(),
        "--shards".into(),
        "4".into(),
        "--wal-dir".into(),
        wal,
        "--fsync".into(),
        "batch".into(),
    ];
    let mut args0: Vec<String> = base.clone();
    args0.extend(["--port".into(), "0".into()]);
    let (child, addr, _, reader) =
        spawn_serve(&args0.iter().map(String::as_str).collect::<Vec<_>>());
    drop(reader);

    // Loadgen runs in the background with reconnect-resilience on.
    let addr_s = addr.to_string();
    let loadgen = Command::new(env!("CARGO_BIN_EXE_connectit-loadgen"))
        .args([
            "--mode",
            "tcp",
            "--addr",
            &addr_s,
            "--n",
            "8000",
            "--clients",
            "2",
            "--batches",
            "300",
            "--batch-ops",
            "150",
            "--resume",
            "--retry-secs",
            "60",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn loadgen");

    // Wait until the load is demonstrably mid-flight, then crash.
    let deadline = Instant::now() + Duration::from_secs(30);
    let epoch_before = loop {
        assert!(Instant::now() < deadline, "load never reached epoch 5");
        if let Ok(mut c) = WireClient::text(addr) {
            if let Ok(e) = c.epoch() {
                if e >= 5 {
                    break e;
                }
            }
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    hard_kill(child);

    let mut args1: Vec<String> = base.clone();
    args1.extend(["--port".into(), addr.port().to_string()]);
    let (child, _, recovered, reader) =
        spawn_serve(&args1.iter().map(String::as_str).collect::<Vec<_>>());
    assert!(
        recovered >= epoch_before,
        "recovered epoch {recovered} regressed below the observed {epoch_before}"
    );

    let out = loadgen.wait_with_output().expect("loadgen exits");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "mid-load drill failed:\n{stdout}");
    assert!(stdout.contains(" mismatches=0"), "{stdout}");

    let mut c = WireClient::text(addr).expect("connect");
    assert!(c.epoch().expect("epoch") >= epoch_before);
    c.shutdown_server().expect("shutdown");
    drain_and_wait(child, reader);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The replication drill over the real binaries: a durable primary
/// streams its WAL to two follower processes; the loadgen split-routes
/// (inserts -> primary, WAIT-barriered queries -> followers) with exact
/// oracle validation; one follower is SIGKILLed mid-run and restarted
/// empty, reconverges through the stream, and the run finishes with zero
/// mismatches.
#[test]
fn binaries_replication_topology_kill_one_follower() {
    let dir = tmp_dir("repl");
    let wal = dir.join("wal");
    let wal = wal.to_str().expect("utf8 path").to_string();

    let primary = spawn_serve_full(&[
        "--n",
        "30000",
        "--shards",
        "4",
        "--port",
        "0",
        "--wal-dir",
        &wal,
        "--fsync",
        "batch",
        "--snapshot-every",
        "8",
        "--replication-port",
        "0",
    ]);
    let paddr = primary.addr.to_string();
    let raddr = primary.replication_addr.expect("primary prints replication_addr=").to_string();

    let follower_args = |port: &str| {
        vec![
            "--n".to_string(),
            "30000".into(),
            "--shards".into(),
            "4".into(),
            "--port".into(),
            port.to_string(),
            "--replicate-from".into(),
            raddr.clone(),
        ]
    };
    let f1 = spawn_serve_full(&follower_args("0").iter().map(String::as_str).collect::<Vec<_>>());
    let f2 = spawn_serve_full(&follower_args("0").iter().map(String::as_str).collect::<Vec<_>>());
    let (f1addr, f2addr) = (f1.addr.to_string(), f2.addr.to_string());
    {
        let mut c = WireClient::text(f1.addr).expect("connect follower");
        assert_eq!(c.role().expect("ROLE"), "follower");
        // Inserts are rejected with the routing hint, connection intact.
        let err = c.insert(1, 2).expect_err("follower is read-only");
        assert!(err.to_string().contains("read-only follower"), "{err}");
        c.ping().expect("alive after ERR");
    }

    // Background load, split-routed with reconnect resilience.
    let loadgen = Command::new(env!("CARGO_BIN_EXE_connectit-loadgen"))
        .args([
            "--mode",
            "tcp",
            "--addr",
            &paddr,
            "--n",
            "30000",
            "--clients",
            "2",
            "--batches",
            "120",
            "--batch-ops",
            "300",
            "--retry-secs",
            "60",
            "--follower",
            &f1addr,
            "--follower",
            &f2addr,
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn loadgen");

    // Wait until replication is demonstrably live on follower 1, then
    // SIGKILL it mid-replay.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        assert!(Instant::now() < deadline, "follower 1 never reached epoch 10");
        if let Ok(mut c) = WireClient::text(f1.addr) {
            if c.epoch().map(|e| e >= 10).unwrap_or(false) {
                break;
            }
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    hard_kill(f1.child);

    // Restart it on the same port: a follower is in-memory, so this one
    // comes back EMPTY and must reconverge from the stream alone (its
    // handshake epoch 0 predates the primary's pruned history, forcing
    // the snapshot-bootstrap path).
    let port1 = f1.addr.port().to_string();
    let f1 =
        spawn_serve_full(&follower_args(&port1).iter().map(String::as_str).collect::<Vec<_>>());
    assert_eq!(f1.addr.port(), port1.parse::<u16>().expect("port"));

    let out = loadgen.wait_with_output().expect("loadgen exits");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "split-routed drill failed:\n{stdout}");
    assert!(stdout.contains(" mismatches=0"), "{stdout}");
    let fv: u64 = stdout
        .split_whitespace()
        .find_map(|t| t.strip_prefix("follower_verified=")?.parse().ok())
        .expect("follower_verified in output");
    assert!(fv > 1000, "expected substantial follower-verified traffic:\n{stdout}");

    // Convergence: the restarted follower catches the primary's epoch.
    let primary_epoch = {
        let mut c = WireClient::text(primary.addr).expect("primary alive");
        c.epoch().expect("epoch")
    };
    let mut c = WireClient::text(f1.addr).expect("restarted follower alive");
    let reached = c.wait_epoch(primary_epoch, 30_000).expect("follower converges");
    assert!(reached >= primary_epoch);

    // Tear the topology down through the protocol.
    for s in [f1, f2] {
        let mut c = WireClient::text(s.addr).expect("connect");
        c.shutdown_server().expect("shutdown follower");
        drain_and_wait(s.child, s.reader);
    }
    let mut c = WireClient::text(primary.addr).expect("connect");
    c.shutdown_server().expect("shutdown primary");
    drain_and_wait(primary.child, primary.reader);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn tcp_server_stop_from_host() {
    let mut svc = Service::start(ServiceConfig { n: 16, shards: 2, ..ServiceConfig::default() })
        .expect("service");
    let mut server = serve(&svc, "127.0.0.1:0").expect("bind");
    let addr = server.local_addr();
    let mut c = WireClient::text(addr).expect("connect");
    c.insert(0, 1).expect("insert");
    server.stop();
    svc.shutdown();
    // New connections are refused or die promptly after stop.
    let alive = WireClient::text(addr).and_then(|mut c2| c2.ping());
    assert!(alive.is_err(), "server accepted after stop");
}
