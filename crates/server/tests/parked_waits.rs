//! Blocking verbs park on the shard: a parked `WAIT` costs a list entry,
//! not a thread. This lives alone in its test binary: it counts the
//! process's threads, so no other test may start or stop any meanwhile.

#![cfg(target_os = "linux")]

use cc_server::request::{BinRequest, Request};
use cc_server::{serve, Reply, Service, ServiceConfig, WireClient};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

const CONNS: usize = 4;

fn threads() -> usize {
    std::fs::read_dir("/proc/self/task").expect("/proc/self/task").count()
}

/// Opens `CONNS` binary connections and pipelines `waits` frames of
/// `WAIT epoch` over them, round robin, with the largest timeout the wire
/// carries. Each connection ends
/// with a `PING` whose reply, reaped first, proves every `WAIT` before it
/// was read and parked.
fn park_waits(addr: SocketAddr, waits: usize, epoch: u64) -> Vec<WireClient> {
    let wait = Request::Bin(BinRequest::Wait { epoch, timeout_ms: u64::MAX });
    let ping = Request::Bin(BinRequest::Ping);
    let mut conns: Vec<WireClient> =
        (0..CONNS).map(|_| WireClient::binary(addr).expect("connect")).collect();
    for i in 0..waits {
        conns[i % CONNS].send(&wait).expect("send WAIT");
    }
    for c in &mut conns {
        let corr = c.send(&ping).expect("send PING");
        assert_eq!(c.reap().expect("reap PING"), (corr, Reply::Ok), "PING overtakes the WAITs");
    }
    conns
}

/// Polls `probe` until it reads `want`; returns how long that took.
fn settles(want: u64, probe: impl Fn() -> u64) -> Duration {
    let t0 = Instant::now();
    while probe() != want {
        assert!(t0.elapsed() < Duration::from_secs(10), "stuck at {} (want {want})", probe());
        std::thread::sleep(Duration::from_millis(1));
    }
    t0.elapsed()
}

#[test]
fn a_thousand_parked_waits_cost_no_thread_and_one_insert_answers_them() {
    let mut svc = Service::start(ServiceConfig {
        n: 64,
        batch_max_wait: Duration::from_micros(20),
        ..ServiceConfig::default()
    })
    .expect("start");
    let client = svc.client();
    let obs = client.observability();
    let parked = || obs.metrics.waits_parked.get();
    let mut server = serve(&svc, "127.0.0.1:0").expect("bind");
    let addr = server.local_addr();
    // Warm the thread count with the same shape of traffic, parking none.
    drop(park_waits(addr, 0, 0));
    let before = threads();

    // 1 000 `WAIT`s on the next epoch: every one parks, none spawns.
    let target = client.epoch() + 1;
    let mut conns = park_waits(addr, 1_000, target);
    assert_eq!(parked(), 1_000);
    assert_eq!(threads(), before, "1 000 parked WAITs changed the thread count");
    // One insert advances the epoch and answers all of them.
    client.insert(1, 2).expect("insert");
    for c in &mut conns {
        while c.in_flight() > 0 {
            assert_eq!(c.reap().expect("reap WAIT").1, Reply::Value(target));
        }
    }
    assert_eq!(parked(), 0);
    assert_eq!(client.waiters(), 0);
    assert_eq!(threads(), before);

    // `WAIT`s nothing will reach, abandoned by their connections: the
    // shards drop them at once, the waiter list at its next fire.
    let conns = park_waits(addr, 400, 1_000_000);
    assert_eq!(parked(), 400);
    assert_eq!(client.waiters(), 400);
    drop(conns);
    let took = settles(0, parked);
    // One 100 ms poll tick, plus scheduling slack.
    assert!(took < Duration::from_millis(200), "the shards took {took:?} to drop closed WAITs");
    client.insert(3, 4).expect("insert");
    assert_eq!(client.waiters(), 0, "the epoch advance prunes abandoned tickets");

    server.stop();
    svc.shutdown();
}
