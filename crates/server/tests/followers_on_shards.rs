//! Followers cost file descriptors, not threads: a primary ships its WAL
//! from the event-loop shards, each follower parked on the epoch waiter
//! list at the live tail. This lives alone in its test binary: it counts
//! the process's threads, so no other test may start or stop any
//! meanwhile.

#![cfg(target_os = "linux")]

use cc_graph::io::binary::{self, RecordReader};
use cc_server::replication::{REPL_MAGIC, TAG_HELLO, TAG_PING};
use cc_server::{serve_with, DurabilityConfig, FsyncPolicy, NetConfig, Service, ServiceConfig};
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

const FOLLOWERS: usize = 16;

fn threads() -> usize {
    std::fs::read_dir("/proc/self/task").expect("/proc/self/task").count()
}

/// A raw follower: sends the magic and an `'H'` at epoch 0, checks the
/// primary's magic, and returns the record stream.
fn attach(addr: SocketAddr) -> RecordReader<BufReader<TcpStream>> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
    let mut hello = REPL_MAGIC.to_vec();
    binary::append_record(&mut hello, &[[TAG_HELLO].as_slice(), &0u64.to_le_bytes()].concat())
        .expect("frame");
    stream.write_all(&hello).expect("handshake");
    let mut reader = BufReader::new(stream);
    binary::read_magic(&mut reader, REPL_MAGIC).expect("primary magic");
    RecordReader::new(reader, binary::MAGIC_LEN as u64)
}

/// Reads up to the next `'P'`: the tag and epoch of each record before
/// it, and the epoch the `'P'` carries.
fn until_ping(records: &mut RecordReader<BufReader<TcpStream>>) -> (Vec<(u8, u64)>, u64) {
    let mut got = Vec::new();
    loop {
        let payload = records.next().expect("framed record").expect("stream open");
        let epoch = u64::from_le_bytes(payload[1..9].try_into().expect("an epoch"));
        if payload[0] == TAG_PING {
            return (got, epoch);
        }
        got.push((payload[0], epoch));
    }
}

#[test]
fn sixteen_followers_cost_no_thread_and_one_insert_reaches_them_all() {
    let dir = cc_server::scratch_dir("followers_on_shards");
    let mut svc = Service::start(ServiceConfig {
        n: 64,
        durability: Some(DurabilityConfig {
            fsync: FsyncPolicy::Off,
            ..DurabilityConfig::new(&dir)
        }),
        ..ServiceConfig::default()
    })
    .expect("start");
    let client = svc.client();
    let obs = client.observability();
    client.insert(1, 2).expect("insert");
    let cfg = NetConfig { shards: 2, replication_port: Some(0), ..NetConfig::default() };
    let mut server = serve_with(&svc, "127.0.0.1:0", cfg).expect("serve");
    let addr = server.replication_addr().expect("replication listener");
    let before = threads();

    // Each follower gets the bootstrap (the one insert batch), then `'P'`.
    let mut followers: Vec<_> = (0..FOLLOWERS).map(|_| attach(addr)).collect();
    for f in &mut followers {
        assert_eq!(until_ping(f), (vec![(b'I', 1)], 1));
    }
    assert_eq!(obs.metrics.followers_live.get(), FOLLOWERS as u64);
    assert_eq!(threads(), before, "{FOLLOWERS} followers changed the thread count");

    // One insert wakes every parked follower with its record.
    client.insert(2, 3).expect("insert");
    for f in &mut followers {
        let payload = loop {
            let payload = f.next().expect("framed record").expect("stream open");
            // A heartbeat may come first on a slow machine.
            if payload[0] != TAG_PING {
                break payload;
            }
        };
        assert_eq!((payload[0], &payload[1..9]), (b'I', &2u64.to_le_bytes()[..]));
    }
    assert_eq!(threads(), before);

    // Closed sockets unregister their followers.
    drop(followers);
    let t0 = Instant::now();
    while obs.metrics.followers_live.get() > 0 {
        assert!(t0.elapsed() < Duration::from_secs(10), "followers_live stuck");
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(threads(), before);
    server.stop();
    svc.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
