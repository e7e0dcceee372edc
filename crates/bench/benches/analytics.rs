//! The analytics plane, measured: delta maintenance must beat the O(n)
//! scan it replaced, and analytical reads must be cheap *and exact*
//! while the write path is busy. Three measurements:
//!
//! 1. Publish-path component count: the old `count_distinct_labels`
//!    full label scan vs the delta-maintained count behind
//!    `COMPONENTS`/`TOPK`/`HIST` (`publish_speedup`, gated at the
//!    default tolerance by `connectit-bench check`).
//! 2. Analytical-read throughput (`TOPK`/`HIST`/`SIZE` round-robin)
//!    against a concurrent insert/delete writer, with every read
//!    checked for internal consistency (histogram sums to the
//!    component count, top-k sizes non-increasing multi-vertex).
//! 3. A final quiesced exactness pass: every aggregate recomputed from
//!    a full labeling and compared — `mismatches` must be 0
//!    (gated exactly).
//!
//! Prints a table and emits `BENCH_analytics.json`. Accepts the
//! criterion-style `--test` flag (tiny sizes, `publish_speedup` and
//! `reads_per_sec` reported as `null` — no timing claims) so
//! `cargo bench -- --test` smoke-runs it in CI.

use cc_bench::harness::{write_bench_json, Table};
use cc_parallel::SplitMix64;
use cc_server::{Client, Service, ServiceConfig, HIST_BUCKETS, TOPK_CAP};
use connectit::Update;
use std::collections::HashMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const QUIESCE: Duration = Duration::from_secs(60);

/// Random insert batch over `n` vertices; one delete per batch retracts
/// an edge inserted in this batch so generation rebuilds happen too.
fn churn_batch(rng: &mut SplitMix64, n: usize, ops: usize) -> Vec<Update> {
    let mut batch: Vec<Update> = (0..ops)
        .map(|_| {
            let u = (rng.next_u64() % n as u64) as u32;
            let v = (rng.next_u64() % n as u64) as u32;
            Update::Insert(u, v)
        })
        .collect();
    if let Some(&Update::Insert(u, v)) = batch.first() {
        batch.push(Update::Delete(u, v));
    }
    batch
}

/// Recomputes `(components, hist, topk_sizes, size_by_label)` from a
/// labeling — the ground truth the delta aggregates must equal.
#[allow(clippy::type_complexity)]
fn recompute(labels: &[u32]) -> (u64, Vec<u64>, Vec<u64>, HashMap<u32, u64>) {
    let mut size_by_label: HashMap<u32, u64> = HashMap::new();
    for &l in labels {
        *size_by_label.entry(l).or_insert(0) += 1;
    }
    let mut hist = vec![0u64; HIST_BUCKETS];
    for &s in size_by_label.values() {
        hist[(63 - s.leading_zeros()) as usize] += 1;
    }
    let mut topk: Vec<u64> = size_by_label.values().copied().filter(|&s| s >= 2).collect();
    topk.sort_unstable_by(|a, b| b.cmp(a));
    topk.truncate(TOPK_CAP);
    (size_by_label.len() as u64, hist, topk, size_by_label)
}

/// Round-robin analytical reads while a writer churns; every read is
/// consistency-checked. Returns `(reads, elapsed_secs, mismatches)`.
fn drive_reads(client: &Client, n: usize, reads: u64) -> (u64, f64, u64) {
    let mut mismatches = 0u64;
    let t0 = Instant::now();
    for i in 0..reads {
        match i % 3 {
            0 => {
                let (entries, _epoch, _gen, _sealed) = client.topk(8);
                if !entries.windows(2).all(|w| w[0].1 >= w[1].1)
                    || entries.iter().any(|&(_, s)| s < 2)
                {
                    mismatches += 1;
                }
            }
            1 => {
                let view = client.analytics();
                if view.hist.iter().sum::<u64>() != view.components {
                    mismatches += 1;
                }
            }
            _ => {
                let v = (i as usize * 2654435761) % n;
                match client.component_size(v as u32) {
                    Ok((_root, size)) if size >= 1 => {}
                    _ => mismatches += 1,
                }
            }
        }
        black_box(i);
    }
    (reads, t0.elapsed().as_secs_f64(), mismatches)
}

/// Quiesced exactness pass: recompute every aggregate from a fresh
/// labeling and count divergences.
fn validate_exact(client: &Client, n: usize, sample: usize) -> (u64, u64) {
    let labels = client.labels();
    let (components, hist, topk_sizes, size_by_label) = recompute(&labels);
    let mut mismatches = 0u64;
    if client.num_components() as u64 != components {
        mismatches += 1;
    }
    let view = client.analytics();
    if view.sealed || view.components != components || view.hist.to_vec() != hist {
        mismatches += 1;
    }
    let (entries, _epoch, _gen, sealed) = client.topk(TOPK_CAP);
    let got: Vec<u64> = entries.iter().map(|&(_, s)| s).collect();
    if sealed || got != topk_sizes {
        mismatches += 1;
    }
    let mut checked = 0u64;
    let stride = (n / sample).max(1);
    for v in (0..n).step_by(stride) {
        checked += 1;
        match client.component_size(v as u32) {
            Ok((_root, size)) if size == size_by_label[&labels[v]] => {}
            _ => mismatches += 1,
        }
    }
    (checked, mismatches)
}

fn main() {
    let mut test_mode = false;
    for arg in std::env::args().skip(1) {
        if arg == "--test" {
            test_mode = true;
        }
    }
    let (n, load_batches, batch_ops, scan_iters, delta_iters, reads) = if test_mode {
        (4_000usize, 30usize, 256usize, 8u64, 20_000u64, 30_000u64)
    } else {
        (1 << 20, 192, 8192, 48, 2_000_000, 1_500_000)
    };

    println!("== analytics: delta-maintained aggregates vs the O(n) scan ==");
    println!("n={n} load={load_batches}x{batch_ops} ops\n");

    let mut svc = Service::start(ServiceConfig { n, shards: 4, ..ServiceConfig::default() })
        .expect("service starts");
    let client = svc.client();
    let mut rng = SplitMix64::new(0xa9a1_2026);
    for _ in 0..load_batches {
        client.submit(churn_batch(&mut rng, n, batch_ops)).expect("load");
    }
    client.quiesce(QUIESCE).expect("quiesce after load");

    // 1. Publish-path count: full label scan (the removed code path) vs
    // the delta-maintained count every verb now reads.
    let labels = client.labels();
    let t0 = Instant::now();
    for _ in 0..scan_iters {
        black_box(cc_graph::stats::count_distinct_labels(black_box(&labels)));
    }
    let scan_ns = t0.elapsed().as_nanos() as f64 / scan_iters as f64;
    let t0 = Instant::now();
    for _ in 0..delta_iters {
        black_box(client.num_components());
    }
    let delta_ns = t0.elapsed().as_nanos() as f64 / delta_iters as f64;
    let publish_speedup = scan_ns / delta_ns.max(1e-9);

    // 2. Analytical reads under write load.
    let stop = Arc::new(AtomicBool::new(false));
    let writes = Arc::new(AtomicU64::new(0));
    let writer = {
        let client = client.clone();
        let stop = Arc::clone(&stop);
        let writes = Arc::clone(&writes);
        let mut rng = SplitMix64::new(0xbeef_2026);
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                let batch = churn_batch(&mut rng, n, 1024);
                let len = batch.len() as u64;
                if client.submit(batch).is_err() {
                    break;
                }
                writes.fetch_add(len, Ordering::Relaxed);
            }
        })
    };
    let (reads_total, read_secs, read_mismatches) = drive_reads(&client, n, reads);
    stop.store(true, Ordering::Relaxed);
    writer.join().expect("writer joins");
    let writes_total = writes.load(Ordering::Relaxed);
    let reads_per_sec = reads_total as f64 / read_secs.max(1e-9);

    // 3. Quiesced exactness.
    client.quiesce(QUIESCE).expect("quiesce after churn");
    let (validated, exact_mismatches) = validate_exact(&client, n, 4096);
    let mismatches = read_mismatches + exact_mismatches;
    svc.shutdown();

    let mut t = Table::new(vec!["Measurement", "value"]);
    t.row(vec!["scan ns (old publish path)".into(), format!("{scan_ns:.0}")]);
    t.row(vec!["delta ns (COMPONENTS now)".into(), format!("{delta_ns:.0}")]);
    t.row(vec!["publish speedup".into(), format!("{publish_speedup:.1}x")]);
    t.row(vec!["reads/s under write load".into(), format!("{reads_per_sec:.3e}")]);
    t.row(vec!["writes during read phase".into(), writes_total.to_string()]);
    t.row(vec!["exactness sample".into(), validated.to_string()]);
    t.row(vec!["mismatches".into(), mismatches.to_string()]);
    if test_mode {
        println!("analytics: test ok ({validated} vertices validated, {mismatches} mismatches)");
    } else {
        t.print();
    }
    assert_eq!(mismatches, 0, "analytics aggregates diverged from the recomputed partition");
    assert!(
        test_mode || publish_speedup > 1.0,
        "delta count ({delta_ns:.0}ns) must beat the O(n) scan ({scan_ns:.0}ns)"
    );

    let speedup_json = if test_mode { "null".to_string() } else { format!("{publish_speedup:.1}") };
    let reads_json = if test_mode { "null".to_string() } else { format!("{reads_per_sec:.1}") };
    let json = format!(
        "{{\n  \"bench\": \"analytics\",\n  \"test_mode\": {test_mode},\n  \"n\": {n},\n  \
         \"load_ops\": {load_ops},\n  \"scan_ns\": {scan_ns:.1},\n  \
         \"delta_ns\": {delta_ns:.1},\n  \"publish_speedup\": {speedup_json},\n  \
         \"reads_per_sec\": {reads_json},\n  \"reads_total\": {reads_total},\n  \
         \"writes_under_read\": {writes_total},\n  \"validated_vertices\": {validated},\n  \
         \"mismatches\": {mismatches}\n}}\n",
        load_ops = load_batches * batch_ops,
    );
    match write_bench_json("BENCH_analytics.json", &json) {
        Ok(path) => println!("\nwrote {}", path.display()),
        Err(e) => eprintln!("analytics: could not write BENCH_analytics.json: {e}"),
    }
}
