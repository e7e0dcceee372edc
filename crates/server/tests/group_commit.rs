//! Group commit without a batch-former thread: a submitter leads each
//! batch, leadership passes on after one batch, and the idle duties ride
//! the rebuild worker, a running rebuild included.

use cc_server::request::Request;
use cc_server::{
    scratch_dir, serve, DurabilityConfig, FsyncPolicy, Reply, Service, ServiceConfig, WireClient,
};
use connectit::Update;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

fn durable(tag: &str, fsync: FsyncPolicy) -> (Service, std::path::PathBuf) {
    let dir = scratch_dir(&format!("group_commit_{tag}"));
    let durability = Some(DurabilityConfig { fsync, ..DurabilityConfig::new(&dir) });
    let cfg = ServiceConfig { n: 1 << 12, durability, ..ServiceConfig::default() };
    (Service::start(cfg).expect("start"), dir)
}

#[cfg(target_os = "linux")]
#[test]
fn a_durable_primary_runs_no_batch_former_thread() {
    let (mut svc, dir) = durable("threads", FsyncPolicy::Batch);
    svc.client().insert(1, 2).expect("insert");
    let names = || -> Vec<String> {
        std::fs::read_dir("/proc/self/task")
            .expect("/proc/self/task")
            .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
            .map(|comm| comm.trim().to_string())
            .collect()
    };
    // A thread names itself once it first runs.
    let t0 = Instant::now();
    while !names().iter().any(|n| n == "cc-gen-rebuild") {
        assert!(t0.elapsed() < Duration::from_secs(10), "{:?}", names());
        std::thread::sleep(Duration::from_millis(1));
    }
    assert!(!names().iter().any(|n| n == "cc-batch-former"), "{:?}", names());
    svc.shutdown();
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn no_submitter_starves_beside_a_pipelining_wire_client() {
    let (mut svc, dir) = durable("starve", FsyncPolicy::Off);
    let mut server = serve(&svc, "127.0.0.1:0").expect("bind");
    let addr = server.local_addr();
    let stop = AtomicBool::new(false);
    let n = svc.client().num_vertices() as u32;
    let counts: Vec<u64> = std::thread::scope(|scope| {
        let submitters: Vec<_> = (0..2u32)
            .map(|t| {
                let client = svc.client();
                let stop = &stop;
                scope.spawn(move || {
                    let mut done = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        let u = (done as u32).wrapping_mul(2654435761).wrapping_add(t) % n;
                        client.submit(vec![Update::Insert(u, (u + 1) % n)]).expect("submit");
                        done += 1;
                    }
                    done
                })
            })
            .collect();
        let wire = scope.spawn(|| {
            let mut conn = WireClient::binary(addr).expect("connect");
            let mut done = 0u64;
            let mut sent = 0u32;
            while !stop.load(Ordering::Relaxed) {
                while conn.in_flight() < 1024 {
                    sent = sent.wrapping_add(1);
                    conn.send(&Request::Insert(sent % n, (sent / 2) % n)).expect("send");
                }
                assert_eq!(conn.reap().expect("reap").1, Reply::Ok);
                done += 1;
            }
            done
        });
        std::thread::sleep(Duration::from_secs(1));
        stop.store(true, Ordering::Relaxed);
        let mut counts: Vec<u64> =
            submitters.into_iter().map(|h| h.join().expect("submitter")).collect();
        counts.push(wire.join().expect("wire client"));
        counts
    });
    let mut sorted = counts.clone();
    sorted.sort_unstable();
    let median = sorted[1];
    for (who, &count) in ["submitter 0", "submitter 1", "wire client"].iter().zip(&counts) {
        assert!(4 * count >= median, "{who} completed {count}, median {median}: {counts:?}");
    }
    server.stop();
    svc.shutdown();
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn one_insert_then_silence_is_synced_within_the_batch_window() {
    let (mut svc, dir) = durable("idle_sync", FsyncPolicy::Batch);
    let client = svc.client();
    let fsyncs = || client.observability().metrics.wal_fsyncs_total.get();
    let before = fsyncs();
    client.insert(3, 4).expect("insert");
    let t0 = Instant::now();
    while fsyncs() == before {
        assert!(
            t0.elapsed() < Duration::from_millis(100),
            "no fsync within 100 ms of the last insert"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    svc.shutdown();
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn one_insert_is_synced_within_the_batch_window_while_a_rebuild_runs() {
    let dir = scratch_dir("group_commit_rebuild_sync");
    let durability =
        Some(DurabilityConfig { fsync: FsyncPolicy::Batch, ..DurabilityConfig::new(&dir) });
    // The held rebuild keeps the rebuild worker, which runs the idle
    // duties, busy for the whole test.
    let hold = Duration::from_secs(2);
    let cfg =
        ServiceConfig { n: 1 << 12, durability, rebuild_hold: hold, ..ServiceConfig::default() };
    let mut svc = Service::start(cfg).expect("start");
    let client = svc.client();
    client.insert(1, 2).expect("insert");
    client.delete(1, 2).expect("forest delete");
    let fsyncs = || client.observability().metrics.wal_fsyncs_total.get();
    // Past the delete's own sync window: this insert's leader syncs, so
    // the next one lands inside a fresh window, and only the idle duties
    // can sync it.
    std::thread::sleep(Duration::from_millis(50));
    assert!(client.generation_info().dirty, "the rebuild is held open");
    client.insert(3, 4).expect("insert");
    let before = fsyncs();
    client.insert(5, 6).expect("insert");
    let t0 = Instant::now();
    while fsyncs() == before {
        assert!(
            t0.elapsed() < Duration::from_millis(100),
            "no fsync within 100 ms of the last insert while a rebuild runs"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    assert!(client.generation_info().dirty, "the rebuild is still running");
    svc.shutdown();
    let _ = std::fs::remove_dir_all(dir);
}
