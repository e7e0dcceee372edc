//! Read scaling, measured: verified query throughput of a single-node
//! service (the seed loadgen closed loop, queries riding the batch
//! former) against a 1-primary + 2-follower replication topology under
//! the same mixed insert/query load, with inserts routed to the primary
//! (fsync policy `batch`) and queries routed to the followers behind a
//! `wait_for_epoch` read-your-writes barrier. Every follower answer is
//! validated *exactly* against the per-client oracle — the barrier
//! leaves exactly one legal answer — and the bench fails loudly on any
//! mismatch. A follower is then torn down and replaced by a fresh empty
//! one, which must reconverge to the primary's epoch through the
//! replication stream alone.
//!
//! Prints a table and emits `BENCH_replication.json` (single vs
//! replicated query throughput, `speedup_vs_single`, mismatch counts,
//! `restart_converged`). Accepts the criterion-style `--test` flag (tiny
//! sizes, no timing claims: `speedup_vs_single` is `null` there) so
//! `cargo bench -- --test` smoke-runs it in CI.

use cc_bench::harness::{write_bench_json, Table};
use cc_parallel::SplitMix64;
use cc_server::{
    run_follower, serve_with, DurabilityConfig, FsyncPolicy, NetConfig, Role, Service,
    ServiceConfig,
};
use cc_unionfind::SeqUnionFind;
use connectit::Update;
use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn tmp_dir(tag: &str) -> PathBuf {
    cc_server::scratch_dir(&format!("bench_repl_{tag}"))
}

#[derive(Clone, Copy)]
struct Shape {
    n: usize,
    clients: usize,
    batches: usize,
    batch_ops: usize,
    /// Query fraction of the single-node baseline (the seed loadgen
    /// shape).
    single_frac: f64,
    /// Query fraction of the replicated mixed load. Read-heavier than
    /// the baseline on purpose: read replicas exist to serve read-heavy
    /// traffic, and every insert is applied once per replica, so the
    /// topology's win is read-path leverage, not write amplification.
    replicated_frac: f64,
}

#[derive(Default)]
struct LoadResult {
    queries: u64,
    mismatches: u64,
    elapsed_secs: f64,
}

impl LoadResult {
    fn queries_per_sec(&self) -> f64 {
        self.queries as f64 / self.elapsed_secs.max(1e-9)
    }
}

fn primary_config(n: usize, dir: &Path) -> ServiceConfig {
    ServiceConfig {
        n,
        shards: 4,
        durability: Some(DurabilityConfig {
            fsync: FsyncPolicy::Batch,
            ..DurabilityConfig::new(dir)
        }),
        ..ServiceConfig::default()
    }
}

fn follower_service(n: usize) -> Service {
    Service::start(ServiceConfig { n, shards: 4, role: Role::Follower, ..ServiceConfig::default() })
        .expect("follower starts")
}

/// One client's closed loop. `read_side` is where queries go: the
/// primary itself (single-node shape, bracket validation — a query whose
/// component forms within its own batch may legally answer either way)
/// or a follower behind the `wait_for_epoch` barrier (exact validation).
fn client_loop(
    shape: Shape,
    idx: usize,
    primary: &cc_server::Client,
    follower: Option<&cc_server::Client>,
    result: &mut LoadResult,
) {
    let sz = shape.n / shape.clients;
    let base = (idx * sz) as u32;
    let mut oracle = SeqUnionFind::new(sz);
    let mut rng = SplitMix64::new(0x5ca1e + idx as u64);
    let frac = if follower.is_some() { shape.replicated_frac } else { shape.single_frac };
    let query_cut = (frac * (1u64 << 32) as f64) as u64;
    for _ in 0..shape.batches {
        let mut script = Vec::with_capacity(shape.batch_ops);
        let mut inserts = Vec::new();
        let mut queries = Vec::new();
        let mut before = Vec::new();
        for _ in 0..shape.batch_ops {
            let r = rng.next_u64();
            let lu = ((r >> 32) % sz as u64) as u32;
            let lv = ((rng.next_u64() >> 32) % sz as u64) as u32;
            let is_query = (r & 0xffff_ffff) < query_cut;
            script.push((is_query, lu, lv));
            if is_query {
                before.push(oracle.connected(lu, lv));
                queries.push(Update::Query(base + lu, base + lv));
            } else {
                inserts.push(Update::Insert(base + lu, base + lv));
            }
        }
        let answers = match follower {
            None => {
                // Single node: the whole mixed batch rides the queue.
                let mut wire = Vec::with_capacity(shape.batch_ops);
                for &(is_query, lu, lv) in &script {
                    wire.push(if is_query {
                        Update::Query(base + lu, base + lv)
                    } else {
                        Update::Insert(base + lu, base + lv)
                    });
                }
                primary.submit(wire).expect("submit")
            }
            Some(f) => {
                // Split route: inserts to the primary, queries to the
                // follower once it provably holds them.
                if !inserts.is_empty() {
                    primary.submit(inserts.clone()).expect("insert batch");
                }
                f.wait_for_epoch(primary.epoch(), Duration::from_secs(60))
                    .expect("follower catches up");
                f.submit(queries.clone()).expect("follower queries")
            }
        };
        for &(is_query, lu, lv) in &script {
            if !is_query {
                oracle.union(lu, lv);
            }
        }
        let mut qi = 0usize;
        for &(is_query, lu, lv) in &script {
            if !is_query {
                continue;
            }
            let got = answers[qi];
            let was = before[qi];
            qi += 1;
            result.queries += 1;
            let now = oracle.connected(lu, lv);
            let bad = match follower {
                // Bracketing: only batch-stable answers are forced.
                None => was == now && got != was,
                // Behind WAIT, the post-batch state is the only answer.
                Some(_) => got != now,
            };
            if bad {
                result.mismatches += 1;
            }
        }
        assert_eq!(qi, answers.len());
    }
}

fn drive(shape: Shape, primary: &Service, followers: &[&Service]) -> LoadResult {
    let t0 = Instant::now();
    let per_client: Vec<LoadResult> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..shape.clients)
            .map(|idx| {
                let p = primary.client();
                let f = (!followers.is_empty()).then(|| followers[idx % followers.len()].client());
                s.spawn(move || {
                    let mut r = LoadResult::default();
                    client_loop(shape, idx, &p, f.as_ref(), &mut r);
                    r
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });
    let elapsed = t0.elapsed().as_secs_f64();
    let mut total = LoadResult { elapsed_secs: elapsed, ..LoadResult::default() };
    for r in per_client {
        total.queries += r.queries;
        total.mismatches += r.mismatches;
    }
    total
}

fn main() {
    let mut test_mode = false;
    for arg in std::env::args().skip(1) {
        if arg == "--test" {
            test_mode = true;
        }
    }
    // Full-mode batches are large on purpose: a split-routed client pays
    // the replication lag (WAL read + follower apply) once per WAIT
    // round, so the queries behind each barrier must be numerous enough
    // to amortize it — exactly how a read-scaled deployment would batch.
    let shape = if test_mode {
        Shape {
            n: 20_000,
            clients: 2,
            batches: 10,
            batch_ops: 600,
            single_frac: 0.5,
            replicated_frac: 0.5,
        }
    } else {
        Shape {
            n: 1 << 20,
            clients: 8,
            batches: 12,
            batch_ops: 32768,
            single_frac: 0.5,
            replicated_frac: 0.9,
        }
    };
    const FOLLOWERS: usize = 2;

    println!("== replication: single-node vs 1 primary + {FOLLOWERS} followers (fsync=batch) ==");
    println!(
        "n={} clients={} batches={}x{} ops query_frac single={} replicated={}\n",
        shape.n,
        shape.clients,
        shape.batches,
        shape.batch_ops,
        shape.single_frac,
        shape.replicated_frac
    );

    // Phase A: the seed single-node closed loop (queries ride batches).
    let dir_a = tmp_dir("single");
    let mut single_svc = Service::start(primary_config(shape.n, &dir_a)).expect("service");
    let single = drive(shape, &single_svc, &[]);
    single_svc.shutdown();
    assert_eq!(single.mismatches, 0, "single-node run must validate cleanly");
    let _ = std::fs::remove_dir_all(&dir_a);

    // Phase B: the replication topology. The stream crosses real TCP.
    let dir_b = tmp_dir("topology");
    let mut primary = Service::start(primary_config(shape.n, &dir_b)).expect("primary");
    let net = NetConfig { replication_port: Some(0), ..NetConfig::default() };
    let mut server = serve_with(&primary, "127.0.0.1:0", net).expect("replication listener");
    let addr = server.replication_addr().expect("replication listener").to_string();
    let shutdown = Arc::new(AtomicBool::new(false));
    let mut follower_svcs = Vec::new();
    let mut receivers = Vec::new();
    for _ in 0..FOLLOWERS {
        let f = follower_service(shape.n);
        let h =
            run_follower(f.client(), addr.clone(), Arc::clone(&shutdown)).expect("receiver starts");
        follower_svcs.push(f);
        receivers.push(h);
    }
    let replicated = drive(shape, &primary, &follower_svcs.iter().collect::<Vec<_>>());
    assert_eq!(
        replicated.mismatches, 0,
        "replicated run must validate cleanly behind the WAIT barrier"
    );

    // Restart drill: replace follower 0 with a fresh empty one; it must
    // reconverge to the primary's epoch through the stream alone.
    let mut old = follower_svcs.remove(0);
    old.shutdown();
    let fresh = follower_service(shape.n);
    let h = run_follower(fresh.client(), addr, Arc::clone(&shutdown)).expect("receiver starts");
    receivers.push(h);
    let target = primary.client().epoch();
    let restart_converged = fresh
        .client()
        .wait_for_epoch(target, Duration::from_secs(60))
        .map(|reached| reached >= target)
        .unwrap_or(false);
    assert!(restart_converged, "a fresh follower must reconverge to epoch {target}");
    // Both ends count the stream in their own registries.
    let (shipped, fresh_metrics) =
        (primary.client().observability(), fresh.client().observability());
    assert!(shipped.metrics.repl_records_shipped_total.get() > 0, "the primary shipped records");
    assert!(fresh_metrics.metrics.repl_connects_total.get() >= 1, "the fresh follower connected");

    shutdown.store(true, std::sync::atomic::Ordering::Release);
    for h in receivers {
        let _ = h.join();
    }
    server.stop();
    for mut f in follower_svcs {
        f.shutdown();
    }
    drop(fresh);
    primary.shutdown();
    let _ = std::fs::remove_dir_all(&dir_b);

    let speedup = replicated.queries_per_sec() / single.queries_per_sec().max(1e-9);
    let mut t = Table::new(vec!["Topology", "verified q/s", "queries", "mismatches"]);
    t.row(vec![
        "single".to_string(),
        format!("{:.3e}", single.queries_per_sec()),
        single.queries.to_string(),
        single.mismatches.to_string(),
    ]);
    t.row(vec![
        format!("primary+{FOLLOWERS}f"),
        format!("{:.3e}", replicated.queries_per_sec()),
        replicated.queries.to_string(),
        replicated.mismatches.to_string(),
    ]);
    if test_mode {
        println!(
            "replication: test ok ({} single + {} follower queries verified, \
             restart converged to epoch {target})",
            single.queries, replicated.queries
        );
    } else {
        t.print();
        println!("\nspeedup vs single: {speedup:.2}x (acceptance floor: 2.00x)");
        assert!(
            speedup >= 2.0,
            "2-follower topology must sustain >= 2x single-node verified query \
             throughput, got {speedup:.2}x"
        );
    }

    // No timing claims in test mode: the ratio is null there, and the
    // bench-regression gate skips null metrics.
    let speedup_json = if test_mode { "null".to_string() } else { format!("{speedup:.4}") };
    let json = format!(
        "{{\n  \"bench\": \"replication\",\n  \"test_mode\": {test_mode},\n  \"n\": {},\n  \
         \"clients\": {},\n  \"batches\": {},\n  \"batch_ops\": {},\n  \"single_frac\": {},\n  \
         \"replicated_frac\": {},\n  \
         \"followers\": {FOLLOWERS},\n  \"topologies\": [\n    {{\"topology\": \"single\", \
         \"queries_per_sec\": {:.1}, \"verified_queries\": {}, \"mismatches\": {}}},\n    \
         {{\"topology\": \"replicated\", \"queries_per_sec\": {:.1}, \"verified_queries\": {}, \
         \"mismatches\": {}, \"restart_converged\": {restart_converged}}}\n  ],\n  \
         \"speedup_vs_single\": {speedup_json}\n}}\n",
        shape.n,
        shape.clients,
        shape.batches,
        shape.batch_ops,
        shape.single_frac,
        shape.replicated_frac,
        single.queries_per_sec(),
        single.queries,
        single.mismatches,
        replicated.queries_per_sec(),
        replicated.queries,
        replicated.mismatches,
    );
    match write_bench_json("BENCH_replication.json", &json) {
        Ok(path) => println!("\nwrote {}", path.display()),
        Err(e) => eprintln!("replication: could not write BENCH_replication.json: {e}"),
    }
}
