//! Instrumentation overhead, measured: the observability plane must be
//! near-zero-cost on the service's hot path. Three measurements:
//!
//! 1. Mixed insert/query closed-loop throughput through the (always
//!    instrumented) service — the shipped hot path.
//! 2. The full per-batch instrumentation bundle (verb counter, batch
//!    counters, three histogram records, three flight-recorder events)
//!    in isolation — the marginal cost the plane adds to one batch.
//! 3. A full `METRICS` registry render — the scrape cost.
//!
//! The headline `overhead_ratio` charges the workload the measured
//! bundle a *second* time per executed batch — an upper bound on the
//! plane's share of batch time — and must stay within 1.05x
//! (`overhead_within_bound`, gated exactly by `connectit-bench check`).
//!
//! Prints a table and emits `BENCH_obs.json`. Accepts the
//! criterion-style `--test` flag (tiny sizes, no timing claims) so
//! `cargo bench -- --test` smoke-runs it in CI.

use cc_bench::harness::{write_bench_json, Table};
use cc_parallel::SplitMix64;
use cc_server::obs::{Event, Obs};
use cc_server::request::Verb;
use cc_server::{Service, ServiceConfig};
use connectit::Update;
use std::hint::black_box;
use std::time::Instant;

/// Drives a mixed insert/query closed loop and returns
/// `(ops_per_sec, batches_executed, elapsed_secs)`.
fn drive_workload(n: usize, batches: usize, batch_ops: usize) -> (f64, u64, f64) {
    let mut svc = Service::start(ServiceConfig { n, shards: 4, ..ServiceConfig::default() })
        .expect("service starts");
    let client = svc.client();
    let mut rng = SplitMix64::new(0x0b5e_2026);
    let t0 = Instant::now();
    for _ in 0..batches {
        let batch: Vec<Update> = (0..batch_ops)
            .map(|i| {
                let u = (rng.next_u64() % n as u64) as u32;
                let v = (rng.next_u64() % n as u64) as u32;
                // 1-in-4 queries keeps both answer paths warm.
                if i % 4 == 0 {
                    Update::Query(u, v)
                } else {
                    Update::Insert(u, v)
                }
            })
            .collect();
        client.submit(batch).expect("submit");
    }
    let elapsed = t0.elapsed().as_secs_f64();
    let executed = client.epoch();
    svc.shutdown();
    let total_ops = (batches * batch_ops) as f64;
    (total_ops / elapsed.max(1e-9), executed, elapsed)
}

/// One batch's worth of instrumentation, exactly as a batch leader and its
/// downstream layers pay it (counters, histograms, recorder events).
#[inline(never)]
fn instrument_one_batch(obs: &Obs, epoch: u64, ops: u64) {
    let m = &obs.metrics;
    m.record_request(black_box(Verb::B));
    obs.recorder.record(Event::BatchFormed { epoch, ops });
    m.queue_wait_ns.record_n(black_box(12_345), ops);
    m.apply_ns.record(black_box(67_890));
    obs.recorder.record(Event::EngineApplied { epoch, ops });
    m.latency_ns.record_n(black_box(98_765), ops);
    m.inserts_total.add(ops - ops / 4);
    m.queries_total.add(ops / 4);
    m.batches_total.inc();
    m.epoch.set_max(epoch);
    m.components.set(black_box(4096));
    obs.recorder.record(Event::SnapshotPublished { epoch, components: 4096 });
}

/// Measures the bundle in a tight loop; returns ns per batch.
fn measure_bundle(iters: u64, batch_ops: u64) -> f64 {
    let obs = Obs::new();
    let t0 = Instant::now();
    for i in 0..iters {
        instrument_one_batch(&obs, i + 1, batch_ops);
    }
    let elapsed = t0.elapsed().as_nanos() as f64;
    black_box(obs.metrics.batches_total.get());
    elapsed / iters as f64
}

/// Measures a full registry render; returns ns per scrape.
fn measure_scrape(iters: u64) -> f64 {
    let obs = Obs::new();
    // A populated registry (including a follower row) so the render
    // cost is representative, not the all-zeros fast case.
    for i in 0..1024 {
        instrument_one_batch(&obs, i + 1, 512);
    }
    let _slot = obs.metrics.register_follower(7);
    let t0 = Instant::now();
    for _ in 0..iters {
        black_box(obs.metrics.render().len());
    }
    t0.elapsed().as_nanos() as f64 / iters as f64
}

fn main() {
    let mut test_mode = false;
    for arg in std::env::args().skip(1) {
        if arg == "--test" {
            test_mode = true;
        }
    }
    let (n, batches, batch_ops, bundle_iters, scrape_iters) = if test_mode {
        (4_000, 50, 256, 20_000u64, 200u64)
    } else {
        (1 << 20, 256, 8192, 2_000_000u64, 20_000u64)
    };

    println!("== obs: instrumentation overhead on the service hot path ==");
    println!("n={n} batches={batches}x{batch_ops} ops each\n");

    let (ops_per_sec, executed, elapsed) = drive_workload(n, batches, batch_ops);
    let bundle_ns = measure_bundle(bundle_iters, batch_ops as u64);
    let scrape_ns = measure_scrape(scrape_iters);

    // Charge every executed batch the measured bundle a second time: if
    // even *doubled* instrumentation stays under the bound, the plane's
    // actual share of batch time is comfortably below it.
    let charged = executed as f64 * bundle_ns / 1e9;
    let overhead_ratio = (elapsed + charged) / elapsed.max(1e-9);
    let within = overhead_ratio <= 1.05;

    let mut t = Table::new(vec!["Measurement", "value"]);
    t.row(vec!["workload ops/s".into(), format!("{ops_per_sec:.3e}")]);
    t.row(vec!["batches executed".into(), executed.to_string()]);
    t.row(vec!["bundle ns/batch".into(), format!("{bundle_ns:.0}")]);
    t.row(vec!["scrape ns".into(), format!("{scrape_ns:.0}")]);
    t.row(vec!["overhead ratio".into(), format!("{overhead_ratio:.4}x")]);
    t.row(vec!["within 1.05x".into(), within.to_string()]);
    if test_mode {
        println!("obs: test ok (overhead ratio {overhead_ratio:.4}x, within bound: {within})");
    } else {
        t.print();
    }
    assert!(
        within,
        "instrumentation overhead {overhead_ratio:.4}x exceeds the 1.05x bound \
         (bundle {bundle_ns:.0}ns/batch over {executed} batches in {elapsed:.3}s)"
    );

    let json = format!(
        "{{\n  \"bench\": \"obs\",\n  \"test_mode\": {test_mode},\n  \"n\": {n},\n  \
         \"batches\": {batches},\n  \"batch_ops\": {batch_ops},\n  \
         \"ops_per_sec\": {ops_per_sec:.1},\n  \"batches_executed\": {executed},\n  \
         \"bundle_ns_per_batch\": {bundle_ns:.1},\n  \"scrape_ns\": {scrape_ns:.1},\n  \
         \"overhead_ratio\": {overhead_ratio:.5},\n  \"overhead_within_bound\": {within}\n}}\n"
    );
    match write_bench_json("BENCH_obs.json", &json) {
        Ok(path) => println!("\nwrote {}", path.display()),
        Err(e) => eprintln!("obs: could not write BENCH_obs.json: {e}"),
    }
}
