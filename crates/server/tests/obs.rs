//! End-to-end observability contract: a churn workload (inserts,
//! deletes, queries, rebuilds, fsyncs) must populate the metrics
//! registry and the flight recorder, counters must be monotone across
//! scrapes, and the recorder's trace file must survive a shutdown and
//! be consumed (logged and removed) by the next run's recovery.

use cc_graph::io::binary::RecordReader;
use cc_server::binproto;
use cc_server::request::Request;
use cc_server::wal::{DurabilityConfig, FsyncPolicy};
use cc_server::{Service, ServiceConfig};
use connectit::Update;
use std::collections::{BTreeMap, BTreeSet};
use std::io::Write;
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::Duration;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "cc_obs_{tag}_{}_{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create tmp dir");
    dir
}

fn durable_cfg(n: usize, dir: &std::path::Path) -> ServiceConfig {
    ServiceConfig {
        n,
        shards: 2,
        batch_max_wait: Duration::from_micros(20),
        // `Always` so every appended batch records an fsync sample.
        durability: Some(DurabilityConfig {
            fsync: FsyncPolicy::Always,
            ..DurabilityConfig::new(dir)
        }),
        ..ServiceConfig::default()
    }
}

/// Flattens an exposition dump into series-name → value, dropping
/// `# TYPE` comments. Labeled series keep their labels in the key.
fn scrape(lines: &[String]) -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    for l in lines {
        if l.starts_with('#') {
            continue;
        }
        let (name, val) = l.rsplit_once(' ').unwrap_or_else(|| panic!("no value in {l}"));
        assert!(name.starts_with("connectit_"), "series outside the namespace: {l}");
        out.insert(name.to_string(), val.parse::<u64>().unwrap_or_else(|_| panic!("{l}")));
    }
    out
}

/// Drives inserts, deletes and queries through `rounds` cycles of
/// build-then-tear-down churn over a small ring of vertices.
fn churn(c: &cc_server::Client, rounds: u32) {
    for r in 0..rounds {
        for v in 0..31u32 {
            c.insert(v, v + 1).expect("insert");
        }
        assert!(c.query(0, 31).expect("query"), "chain connects end to end");
        // Tear out a mid-chain edge: a forest delete, which dirties the
        // generation engine and schedules a rebuild. Quiesce before
        // asserting — queries in the dirty window are answered (stale)
        // from the sealed generation by design.
        c.delete(15, 16).expect("delete");
        c.quiesce(Duration::from_secs(10)).expect("quiesce");
        assert!(!c.query(0, 31).expect("query"), "round {r}: cut chain disconnects");
    }
}

#[test]
fn churn_populates_registry_and_counters_stay_monotone() {
    let dir = tmp_dir("churn");
    let mut svc = Service::start(durable_cfg(64, &dir)).expect("service");
    let c = svc.client();
    churn(&c, 4);

    let first = scrape(&c.render_metrics());
    // Every instrumented layer reported: batcher, WAL, fsync path,
    // generation rebuilds.
    assert!(first["connectit_inserts_total"] >= 4 * 31, "{first:?}");
    assert!(first["connectit_deletes_total"] >= 4, "{first:?}");
    assert!(first["connectit_queries_total"] >= 8, "{first:?}");
    assert!(first["connectit_batches_total"] >= 1, "{first:?}");
    assert!(first["connectit_wal_records_total"] >= 1, "{first:?}");
    assert!(first["connectit_wal_bytes_total"] > 0, "{first:?}");
    assert!(first["connectit_wal_fsyncs_total"] >= 1, "{first:?}");
    assert!(first["connectit_rebuilds_committed_total"] >= 1, "{first:?}");
    // The histograms behind the summaries are non-empty.
    assert!(first["connectit_fsync_ns_count"] >= 1, "{first:?}");
    assert!(first["connectit_rebuild_duration_ns_count"] >= 1, "{first:?}");
    // Every commit records how long it held the writer lock; attempts
    // abandoned instead are counted, not timed (none need occur here).
    assert_eq!(
        first["connectit_rebuild_commit_hold_ns_count"],
        first["connectit_rebuilds_committed_total"],
        "{first:?}"
    );
    assert!(first.contains_key("connectit_rebuilds_discarded_total"), "{first:?}");
    assert!(first["connectit_latency_ns_count"] > 0, "{first:?}");

    // More churn, then a second scrape: every `_total` counter is
    // monotone non-decreasing, and the write-path ones strictly grew.
    churn(&c, 2);
    let second = scrape(&c.render_metrics());
    for (name, &v1) in &first {
        if name.contains("_total") {
            let v2 = *second.get(name).unwrap_or_else(|| panic!("{name} vanished"));
            assert!(v2 >= v1, "{name} went backwards: {v1} -> {v2}");
        }
    }
    assert!(second["connectit_inserts_total"] > first["connectit_inserts_total"]);
    assert!(second["connectit_wal_fsyncs_total"] > first["connectit_wal_fsyncs_total"]);
    assert!(
        second["connectit_rebuilds_committed_total"] > first["connectit_rebuilds_committed_total"]
    );

    // The flight recorder saw the whole lifecycle.
    let trace = c.trace_events(4096).join("\n");
    for kind in [
        "BatchFormed",
        "WalAppend",
        "FsyncDone",
        "EngineApplied",
        "RebuildSealed",
        "RebuildCommitted",
    ] {
        assert!(trace.contains(kind), "no {kind} event in trace:\n{trace}");
    }
    svc.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn trace_file_flushes_on_shutdown_and_recovery_consumes_it() {
    let dir = tmp_dir("trace_cycle");
    let trace_path = dir.join(format!("trace-{}.log", std::process::id()));
    {
        let mut svc = Service::start(durable_cfg(64, &dir)).expect("service");
        let c = svc.client();
        churn(&c, 2);
        svc.shutdown();
    }
    // Shutdown flushed the ring to `<wal-dir>/trace-<pid>.log` in the
    // wire format `T <seq> <t_us> <Kind> k=v ...`.
    let flushed = std::fs::read_to_string(&trace_path).expect("trace file flushed on shutdown");
    assert!(!flushed.trim().is_empty(), "trace file is empty");
    for l in flushed.lines() {
        let mut it = l.split(' ');
        assert_eq!(it.next(), Some("T"), "bad trace line {l:?}");
        it.next().expect("seq").parse::<u64>().expect("seq");
        it.next().expect("at_us").parse::<u64>().expect("timestamp");
        assert!(it.next().is_some(), "missing kind in {l:?}");
    }
    assert!(flushed.contains("FsyncDone"), "{flushed}");

    // Plant a leftover trace from a "killed" run alongside: recovery
    // must consume (remove) every trace-*.log it finds, including ours
    // from the previous block — this is the SIGKILL post-mortem path.
    let planted = dir.join("trace-99999.log");
    std::fs::write(&planted, "T 1 0 FsyncDone nanos=42\n").expect("plant trace");
    {
        let mut svc = Service::start(durable_cfg(64, &dir)).expect("recovers");
        assert!(!planted.exists(), "planted trace consumed by recovery");
        let c = svc.client();
        assert!(c.query_now(0, 1).expect("query"), "recovered state intact");
        // One write so the second run's ring holds events for the
        // shutdown flush to write out.
        c.insert(15, 16).expect("insert");
        svc.shutdown();
    }
    // The restart drained the old file, then its own shutdown flushed a
    // fresh one (same pid, same path) holding only the new run's events.
    let refreshed = std::fs::read_to_string(&trace_path).expect("second run flushed its trace");
    assert!(refreshed.starts_with("T 1 "), "fresh trace restarts sequence:\n{refreshed}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A forest delete that lands while a rebuild attempt is in flight dooms
/// it: the attempt is counted in `rebuilds_discarded_total`, and the
/// dirty window still ends in exactly one commit.
#[test]
fn a_doomed_rebuild_attempt_is_counted_not_committed() {
    let hold = Duration::from_millis(300);
    let mut svc = Service::start(ServiceConfig {
        n: 64,
        shards: 2,
        batch_max_wait: Duration::from_micros(20),
        rebuild_hold: hold,
        ..ServiceConfig::default()
    })
    .expect("service");
    let c = svc.client();
    for v in 0..8u32 {
        c.insert(v, v + 1).expect("insert");
    }
    c.delete(0, 1).expect("sealing delete");
    // Well inside the hold: the worker has its snapshot and has not built.
    std::thread::sleep(hold / 3);
    c.delete(4, 5).expect("dooming delete");
    c.quiesce(Duration::from_secs(10)).expect("quiesce");
    let m = scrape(&c.render_metrics());
    assert!(m["connectit_rebuilds_discarded_total"] >= 1, "{m:?}");
    assert_eq!(m["connectit_rebuilds_sealed_total"], 1, "{m:?}");
    assert_eq!(m["connectit_rebuilds_committed_total"], 1, "{m:?}");
    assert_eq!(m["connectit_rebuild_commit_hold_ns_count"], 1, "{m:?}");
    assert!(!c.query(3, 5).expect("query"), "the second delete made it into the commit");
    svc.shutdown();
}

/// The `connectit_components` gauge must move at merge/commit time: no
/// snapshot is ever written here, and every connecting insert and every
/// rebuild commit refreshes the gauge.
#[test]
fn components_gauge_is_live_between_snapshots() {
    let mut svc = Service::start(ServiceConfig {
        n: 64,
        shards: 2,
        batch_max_wait: Duration::from_micros(20),
        ..ServiceConfig::default()
    })
    .expect("service");
    let c = svc.client();

    let at_start = scrape(&c.render_metrics());
    assert_eq!(at_start["connectit_components"], 64, "fresh service: all singletons");

    // Ten connecting inserts -> ten merges folded into the gauge as the
    // batches apply, no snapshot in sight.
    for v in 0..10u32 {
        c.insert(v, v + 1).expect("insert");
    }
    c.quiesce(Duration::from_secs(10)).expect("quiesce");
    let after_chain = scrape(&c.render_metrics());
    assert_eq!(after_chain["connectit_components"], 54, "{after_chain:?}");

    // Duplicate and cycle inserts merge nothing; the gauge holds.
    c.insert(0, 1).expect("dup insert");
    c.insert(0, 10).expect("cycle insert");
    c.quiesce(Duration::from_secs(10)).expect("quiesce");
    let after_cycles = scrape(&c.render_metrics());
    assert_eq!(after_cycles["connectit_components"], 54, "{after_cycles:?}");

    // A forest delete splits the chain; once the rebuild commits the
    // gauge reflects the split (the 0-10 cycle edge keeps 0..=10 with
    // one redundant edge, so deleting 5-6 does NOT split that loop —
    // delete a true bridge instead: grow a spur and cut it).
    c.insert(20, 21).expect("spur");
    c.quiesce(Duration::from_secs(10)).expect("quiesce");
    let with_spur = scrape(&c.render_metrics());
    assert_eq!(with_spur["connectit_components"], 53, "{with_spur:?}");
    c.delete(20, 21).expect("cut spur");
    c.quiesce(Duration::from_secs(10)).expect("quiesce");
    let after_cut = scrape(&c.render_metrics());
    assert_eq!(after_cut["connectit_components"], 54, "{after_cut:?}");

    svc.shutdown();
}

/// The edge-table gauges: `live_edges` is the exact live set after a
/// churn schedule, and `edge_table_bytes` (live plus forest table) stays
/// within what the 3/4 load factor allows a table that only doubles —
/// at most 2 × 4/3 slots per key, rounded up to a power of two.
#[test]
fn edge_table_gauges_follow_the_live_set() {
    let n = 256u32;
    let mut svc = Service::start(ServiceConfig {
        n: n as usize,
        batch_max_wait: Duration::from_micros(20),
        ..ServiceConfig::default()
    })
    .expect("service");
    let c = svc.client();

    // A quarter of the ops delete a live edge, the rest insert a random
    // one (duplicates included).
    let mut live: BTreeSet<(u32, u32)> = BTreeSet::new();
    let mut x = 0x2545_f491_4f6c_dd1d_u64;
    let mut next = move |bound: u64| {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x % bound
    };
    for _ in 0..40 {
        let mut ops = Vec::new();
        for _ in 0..32 {
            if next(4) == 0 && !live.is_empty() {
                let e = *live.iter().nth(next(live.len() as u64) as usize).expect("in range");
                live.remove(&e);
                ops.push(Update::Delete(e.0, e.1));
            } else {
                let (u, v) = (next(n.into()) as u32, next(n.into()) as u32);
                if u != v {
                    live.insert((u.min(v), u.max(v)));
                    ops.push(Update::Insert(u, v));
                }
            }
        }
        c.submit(ops).expect("batch");
    }
    c.quiesce(Duration::from_secs(10)).expect("quiesce");

    let m = scrape(&c.render_metrics());
    assert_eq!(m["connectit_live_edges"], live.len() as u64, "{m:?}");
    // Clean, the forest spans the partition: one edge per merge.
    let forest = u64::from(n) - m["connectit_components"];
    let slots = |keys: u64| (2 * keys * 4).div_ceil(3).max(16).next_power_of_two();
    let bytes = m["connectit_edge_table_bytes"];
    assert!(bytes <= 8 * (slots(live.len() as u64) + slots(forest)), "{m:?}");
    assert!(bytes >= 8 * 2 * 16, "two tables of at least 16 slots: {m:?}");
    svc.shutdown();
}

/// The net plane: binary load must populate the per-shard connection
/// gauges, the frame counters (split by direction), and the coalesce /
/// pipeline-depth histograms, all monotone across scrapes.
#[test]
fn binary_load_populates_net_plane_series_and_stays_monotone() {
    let mut svc = Service::start(ServiceConfig {
        n: 256,
        shards: 2,
        batch_max_wait: Duration::from_micros(20),
        ..ServiceConfig::default()
    })
    .expect("service");
    let c = svc.client();
    let mut server = cc_server::serve(&svc, "127.0.0.1:0").expect("bind");
    let addr = server.local_addr();

    let drive = |bin: &mut cc_server::WireClient| {
        // A pipelined burst (reads and updates) so the shard's rounds
        // have something to coalesce and the depth histogram something
        // to record.
        for i in 0..32u32 {
            bin.send(&Request::Insert(i, i + 1)).expect("send");
            bin.send(&Request::Query(0, i + 1)).expect("send");
        }
        while bin.in_flight() > 0 {
            bin.reap().expect("reap");
        }
    };
    let mut bin = cc_server::WireClient::binary(addr).expect("connect");
    drive(&mut bin);

    let first = scrape(&c.render_metrics());
    // Exactly one connection live, owned by exactly one shard.
    let shard_series: Vec<(&String, u64)> = first
        .iter()
        .filter(|(k, _)| k.starts_with("connectit_net_shard_connections{shard="))
        .map(|(k, &v)| (k, v))
        .collect();
    assert!(!shard_series.is_empty(), "per-shard gauges missing: {first:?}");
    assert_eq!(shard_series.iter().map(|&(_, v)| v).sum::<u64>(), 1, "{shard_series:?}");
    assert!(first["connectit_frames_total{dir=\"in\"}"] >= 64, "{first:?}");
    assert!(first["connectit_frames_total{dir=\"out\"}"] >= 64, "{first:?}");
    assert!(first["connectit_net_coalesce_width_count"] >= 1, "{first:?}");
    assert!(first["connectit_net_pipeline_depth_count"] >= 64, "{first:?}");
    assert!(first["connectit_connections_live"] >= 1, "{first:?}");

    // More load: every net counter is monotone, frames strictly grew.
    drive(&mut bin);
    let second = scrape(&c.render_metrics());
    for (name, &v1) in &first {
        if name.contains("_total") {
            let v2 = *second.get(name).unwrap_or_else(|| panic!("{name} vanished"));
            assert!(v2 >= v1, "{name} went backwards: {v1} -> {v2}");
        }
    }
    assert!(
        second["connectit_frames_total{dir=\"in\"}"] > first["connectit_frames_total{dir=\"in\"}"]
    );
    assert!(
        second["connectit_frames_total{dir=\"out\"}"]
            > first["connectit_frames_total{dir=\"out\"}"]
    );
    assert!(
        second["connectit_net_pipeline_depth_count"] > first["connectit_net_pipeline_depth_count"]
    );
    server.stop();
    svc.shutdown();
}

#[test]
fn a_round_of_pipelined_replies_leaves_in_one_flush() {
    // One write carries the binary magic and 64 `Q` frames, so one shard
    // round reads and answers them all: their 64 reply frames leave in a
    // handful of `write(2)` calls, not one each.
    let mut svc =
        Service::start(ServiceConfig { n: 256, ..ServiceConfig::default() }).expect("service");
    let c = svc.client();
    let mut server = cc_server::serve(&svc, "127.0.0.1:0").expect("bind");
    let mut burst = binproto::STREAM_MAGIC.to_vec();
    for corr in 1..=64u32 {
        let q = Request::Query(corr, corr + 1);
        burst.extend(binproto::frame(&binproto::encode_request(corr.into(), &q)));
    }
    let before = scrape(&c.render_metrics());
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream.write_all(&burst).expect("burst");
    let mut replies = RecordReader::new(stream, 0);
    for want in 1..=64u64 {
        let payload = replies.next().expect("read").expect("a reply frame");
        assert_eq!(u64::from_le_bytes(payload[..8].try_into().unwrap()), want);
    }
    // Closing, and waiting for the shard to see it, orders its counter
    // updates for that round before the scrape.
    drop(replies);
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while scrape(&c.render_metrics())["connectit_connections_live"] > 0 {
        assert!(std::time::Instant::now() < deadline, "the shard never saw the close");
        std::thread::sleep(Duration::from_millis(5));
    }
    let after = scrape(&c.render_metrics());
    let rose = |name: &str| after[name] - before[name];
    assert_eq!(rose("connectit_frames_total{dir=\"out\"}"), 64);
    let writes = rose("connectit_net_writes_total");
    assert!((1..=4).contains(&writes), "64 reply frames took {writes} writes");
    server.stop();
    svc.shutdown();
}
