//! The subscription plane, measured: pushing merge events must scale
//! with fan-out and fire promptly, and every delivered event must obey
//! the contract in `PROTOCOL.md` §3. Two measurements:
//!
//! 1. Fan-out throughput: `F` component subscriptions watch `F`
//!    singleton vertices that a chain of inserts then folds into one
//!    component — every merge is an identity change for the watchers on
//!    *both* sides, so the event volume grows quadratically in `F`
//!    (`events_per_sec`, reported; absolute, so not gated).
//! 2. Fire latency: pair subscriptions over disconnected vertices, one
//!    connecting insert each, submit→delivery measured per fire
//!    (`fire_p50_ns` / `fire_p999_ns`, reported).
//!
//! Every event is checked against a sequential trigger oracle — pair
//! subscriptions fire exactly once with `seq` 1 inside the connecting
//! batch's epoch window, component subscriptions fire exactly the
//! oracle's count with gap-free sequences — and `mismatches` gates
//! exactly at 0 via `connectit-bench check`. Prints a table and emits
//! `BENCH_subs.json`. Accepts the criterion-style `--test` flag (tiny
//! sizes, timings reported as `null` — no timing claims) so
//! `cargo bench -- --test` smoke-runs it in CI.

use cc_bench::harness::{write_bench_json, Table};
use cc_server::{Client, Service, ServiceConfig, SubEvent, SubKind, SubSink};
use connectit::Update;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

const DEADLINE: Duration = Duration::from_secs(60);

/// Sink that timestamps every delivery.
#[derive(Default)]
struct CollectSink(Mutex<Vec<(SubEvent, Instant)>>);

impl SubSink for CollectSink {
    fn deliver(&self, ev: &SubEvent) {
        self.0.lock().push((*ev, Instant::now()));
    }
}

impl CollectSink {
    fn len(&self) -> usize {
        self.0.lock().len()
    }

    fn snapshot(&self) -> Vec<(SubEvent, Instant)> {
        self.0.lock().clone()
    }
}

/// Waits until `sink` has collected `want` events (fires are drained on
/// the batcher's idle tick, so delivery can trail the submit).
fn await_events(sink: &CollectSink, want: usize) -> bool {
    let t0 = Instant::now();
    while sink.len() < want {
        if t0.elapsed() > DEADLINE {
            return false;
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    true
}

/// Fan-out phase: `fanout` component subscriptions over the singleton
/// vertices `0..fanout`, folded into one component by a chain of
/// inserts. Returns `(events, elapsed_secs, mismatches)`.
fn run_fanout(client: &Client, sink: &Arc<CollectSink>, fanout: usize) -> (u64, f64, u64) {
    let mut mismatches = 0u64;
    let mut ids: HashMap<u64, u32> = HashMap::new();
    for v in 0..fanout as u32 {
        let (id, _epoch) = client
            .subscribe(SubKind::Component, 0, v, false, Some(sink.clone() as _))
            .expect("SUB");
        ids.insert(id, v);
    }

    // Sequential trigger oracle: on every union, the watchers bucketed
    // under both roots fire once (either side's identity changed).
    let mut root: Vec<u32> = (0..fanout as u32).collect();
    let mut members: Vec<Vec<u32>> = (0..fanout as u32).map(|v| vec![v]).collect();
    let mut expected: Vec<u64> = vec![0; fanout];
    for i in 0..fanout as u32 - 1 {
        let (ru, rv) = (root[i as usize] as usize, root[i as usize + 1] as usize);
        debug_assert_ne!(ru, rv);
        let (big, small) = if members[ru].len() >= members[rv].len() { (ru, rv) } else { (rv, ru) };
        for &w in members[big].iter().chain(&members[small]) {
            expected[w as usize] += 1;
        }
        let moved = std::mem::take(&mut members[small]);
        for &w in &moved {
            root[w as usize] = big as u32;
        }
        members[big].extend(moved);
    }
    let expected_total: u64 = expected.iter().sum();

    let t0 = Instant::now();
    for chunk in (0..fanout as u32 - 1).collect::<Vec<_>>().chunks(64) {
        let batch: Vec<Update> = chunk.iter().map(|&i| Update::Insert(i, i + 1)).collect();
        client.submit(batch).expect("fan-out batch");
    }
    if !await_events(sink, expected_total as usize) {
        mismatches += 1; // missed events: the deadline expired short.
    }
    let secs = t0.elapsed().as_secs_f64();

    // Exactness: per-subscription counts and gap-free sequences.
    let mut per_sub: HashMap<u64, Vec<u64>> = HashMap::new();
    for (ev, _at) in sink.snapshot() {
        let Some(&v) = ids.get(&ev.id) else {
            mismatches += 1;
            continue;
        };
        if ev.kind != SubKind::Component || ev.v != v {
            mismatches += 1;
        }
        per_sub.entry(ev.id).or_default().push(ev.seq);
    }
    for (id, &v) in &ids {
        let mut seqs = per_sub.remove(id).unwrap_or_default();
        seqs.sort_unstable();
        if seqs.len() as u64 != expected[v as usize]
            || seqs.iter().enumerate().any(|(i, &s)| s != i as u64 + 1)
        {
            mismatches += 1;
        }
        client.unsubscribe(*id).expect("UNSUB");
    }
    (expected_total, secs, mismatches)
}

/// Latency phase: `fires` pair subscriptions over disconnected vertex
/// pairs in `base..`, each connected by its own single-insert batch.
/// Returns `(latencies_ns, mismatches)`.
fn run_latency(client: &Client, base: u32, fires: usize) -> (Vec<u64>, u64) {
    let mut mismatches = 0u64;
    let mut lat = Vec::with_capacity(fires);
    for k in 0..fires as u32 {
        let (u, v) = (base + 2 * k, base + 2 * k + 1);
        let sink = Arc::new(CollectSink::default());
        let e_pre = client.epoch();
        let (id, _epoch) =
            client.subscribe(SubKind::Pair, u, v, false, Some(sink.clone() as _)).expect("SUB");
        let t0 = Instant::now();
        client.submit(vec![Update::Insert(u, v)]).expect("connecting insert");
        if !await_events(&sink, 1) {
            mismatches += 1;
            continue;
        }
        let e_post = client.epoch();
        let events = sink.snapshot();
        let (ev, at) = events[0];
        lat.push(at.duration_since(t0).as_nanos() as u64);
        if events.len() != 1
            || ev.id != id
            || ev.kind != SubKind::Pair
            || (ev.u, ev.v) != (u, v)
            || ev.seq != 1
            || ev.epoch <= e_pre
            || ev.epoch > e_post
        {
            mismatches += 1;
        }
    }
    lat.sort_unstable();
    (lat, mismatches)
}

fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx]
}

fn main() {
    let mut test_mode = false;
    for arg in std::env::args().skip(1) {
        if arg == "--test" {
            test_mode = true;
        }
    }
    let (fanout, fires) = if test_mode { (96usize, 64usize) } else { (1024, 2048) };
    let n = fanout + 2 * fires + 64;

    println!("== subs: merge-event fan-out and fire latency ==");
    println!("n={n} fanout={fanout} component subs, {fires} pair fires\n");

    let mut svc = Service::start(ServiceConfig { n, shards: 4, ..ServiceConfig::default() })
        .expect("service starts");
    let client = svc.client();

    let fan_sink = Arc::new(CollectSink::default());
    let (fan_events, fan_secs, fan_mismatches) = run_fanout(&client, &fan_sink, fanout);
    let events_per_sec = fan_events as f64 / fan_secs.max(1e-9);

    let (lat, lat_mismatches) = run_latency(&client, fanout as u32, fires);
    let (p50, p999) = (quantile(&lat, 0.5), quantile(&lat, 0.999));
    let mismatches = fan_mismatches + lat_mismatches;
    svc.shutdown();

    let mut t = Table::new(vec!["Measurement", "value"]);
    t.row(vec!["fan-out events".into(), fan_events.to_string()]);
    t.row(vec!["fan-out events/s".into(), format!("{events_per_sec:.3e}")]);
    t.row(vec!["fire p50 ns".into(), p50.to_string()]);
    t.row(vec!["fire p999 ns".into(), p999.to_string()]);
    t.row(vec!["validated fires".into(), lat.len().to_string()]);
    t.row(vec!["mismatches".into(), mismatches.to_string()]);
    if test_mode {
        println!(
            "subs: test ok ({fan_events} fan-out events, {} fires, {mismatches} mismatches)",
            lat.len()
        );
    } else {
        t.print();
    }
    assert_eq!(mismatches, 0, "subscription delivery diverged from the trigger oracle");

    let (eps_json, p50_json, p999_json) = if test_mode {
        ("null".into(), "null".to_string(), "null".to_string())
    } else {
        (format!("{events_per_sec:.1}"), p50.to_string(), p999.to_string())
    };
    let json = format!(
        "{{\n  \"bench\": \"subs\",\n  \"test_mode\": {test_mode},\n  \"n\": {n},\n  \
         \"fanout_subs\": {fanout},\n  \"fanout_events\": {fan_events},\n  \
         \"events_per_sec\": {eps_json},\n  \"latency_fires\": {fires},\n  \
         \"fire_p50_ns\": {p50_json},\n  \"fire_p999_ns\": {p999_json},\n  \
         \"mismatches\": {mismatches}\n}}\n"
    );
    match write_bench_json("BENCH_subs.json", &json) {
        Ok(path) => println!("\nwrote {}", path.display()),
        Err(e) => eprintln!("subs: could not write BENCH_subs.json: {e}"),
    }
}
