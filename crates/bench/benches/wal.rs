//! Durability tax, measured: insert throughput of the connectivity
//! service with the write-ahead log at each fsync policy (`off`, `batch`,
//! `always`) against the in-memory baseline, multi-client closed loop.
//! After every durable run the service is re-opened from its WAL
//! directory and the recovered partition is checked against the
//! sequential oracle — a bench run that loses data fails loudly instead
//! of reporting a throughput.
//!
//! Prints a table and emits `BENCH_wal.json`
//! (`{policy, ops_per_sec, slowdown_vs_memory, recovery_verified}` per
//! row). Accepts the criterion-style `--test` flag (tiny sizes, no timing
//! claims) so `cargo bench -- --test` smoke-runs it in CI.

use cc_bench::harness::{write_bench_json, Table};
use cc_graph::stats::same_partition;
use cc_parallel::SplitMix64;
use cc_server::{DurabilityConfig, FsyncPolicy, Service, ServiceConfig};
use cc_unionfind::SeqUnionFind;
use connectit::Update;
use std::path::PathBuf;
use std::time::Instant;

/// One measured configuration: `None` is the in-memory baseline.
#[derive(Clone, Copy)]
struct Policy {
    name: &'static str,
    fsync: Option<FsyncPolicy>,
}

const POLICIES: [Policy; 4] = [
    Policy { name: "memory", fsync: None },
    Policy { name: "off", fsync: Some(FsyncPolicy::Off) },
    Policy { name: "batch", fsync: Some(FsyncPolicy::Batch) },
    Policy { name: "always", fsync: Some(FsyncPolicy::Always) },
];

fn tmp_dir(tag: &str) -> PathBuf {
    cc_server::scratch_dir(&format!("bench_wal_{tag}"))
}

struct RunResult {
    ops_per_sec: f64,
    /// All inserted edges, for the oracle check.
    edges: Vec<(u32, u32)>,
}

/// Drives `clients` insert-only closed loops against a fresh service and
/// returns the aggregate throughput (ops/s over the load phase only —
/// recovery and teardown are not billed).
fn drive(
    n: usize,
    clients: usize,
    batches: usize,
    batch_ops: usize,
    durability: Option<DurabilityConfig>,
) -> RunResult {
    let mut svc =
        Service::start(ServiceConfig { n, shards: 4, durability, ..ServiceConfig::default() })
            .expect("service starts");
    let t0 = Instant::now();
    let per_thread: Vec<Vec<(u32, u32)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|idx| {
                let client = svc.client();
                s.spawn(move || {
                    let mut rng = SplitMix64::new(0xbe4c_0000 + idx as u64);
                    let mut edges = Vec::with_capacity(batches * batch_ops);
                    for _ in 0..batches {
                        let batch: Vec<Update> = (0..batch_ops)
                            .map(|_| {
                                let u = (rng.next_u64() % n as u64) as u32;
                                let v = (rng.next_u64() % n as u64) as u32;
                                edges.push((u, v));
                                Update::Insert(u, v)
                            })
                            .collect();
                        client.submit(batch).expect("submit");
                    }
                    edges
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });
    let elapsed = t0.elapsed().as_secs_f64();
    svc.shutdown();
    let total_ops = (clients * batches * batch_ops) as f64;
    RunResult {
        ops_per_sec: total_ops / elapsed.max(1e-9),
        edges: per_thread.into_iter().flatten().collect(),
    }
}

/// Re-opens the service from the WAL directory and checks the recovered
/// partition against the sequential oracle over every inserted edge.
fn verify_recovery(n: usize, dir: &std::path::Path, edges: &[(u32, u32)]) -> bool {
    let mut svc = Service::start(ServiceConfig {
        n,
        shards: 4,
        durability: Some(DurabilityConfig {
            fsync: FsyncPolicy::Off,
            ..DurabilityConfig::new(dir)
        }),
        ..ServiceConfig::default()
    })
    .expect("recovery succeeds");
    let recovered = svc.client().labels();
    svc.shutdown();
    let mut oracle = SeqUnionFind::new(n);
    for &(u, v) in edges {
        oracle.union(u, v);
    }
    same_partition(&oracle.labels(), &recovered)
}

fn main() {
    let mut test_mode = false;
    let mut filter: Option<String> = None;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--test" => test_mode = true,
            s if s.starts_with('-') => {}
            s => filter = Some(s.to_string()),
        }
    }
    let (n, clients, batches, batch_ops) =
        if test_mode { (4_000, 2, 12, 500) } else { (1 << 20, 4, 64, 8192) };

    println!("== wal: insert throughput per fsync policy vs in-memory baseline ==");
    println!("n={n} clients={clients} batches={batches}x{batch_ops} ops each\n");

    let mut t = Table::new(vec!["Policy", "ops/s", "vs memory", "recovery"]);
    let mut rows = Vec::new();
    let mut memory_ops = None;
    for p in POLICIES {
        if let Some(f) = &filter {
            if !p.name.contains(f.as_str()) {
                continue;
            }
        }
        let dir = tmp_dir(p.name);
        let durability =
            p.fsync.map(|fsync| DurabilityConfig { fsync, ..DurabilityConfig::new(&dir) });
        let run = drive(n, clients, batches, batch_ops, durability);
        let verified = match p.fsync {
            Some(_) => verify_recovery(n, &dir, &run.edges),
            None => true, // nothing on disk to verify
        };
        assert!(verified, "{}: recovered partition diverges from the oracle", p.name);
        if p.fsync.is_none() {
            memory_ops = Some(run.ops_per_sec);
        }
        // No ratio without the baseline in the run (e.g. a name filter
        // skipped it) — `null` in the JSON, never a fabricated 1.00x.
        let slowdown = memory_ops.map(|m| m / run.ops_per_sec);
        t.row(vec![
            p.name.to_string(),
            format!("{:.3e}", run.ops_per_sec),
            slowdown.map_or_else(|| "-".to_string(), |s| format!("{s:.2}x")),
            if p.fsync.is_some() { "verified".into() } else { "n/a".to_string() },
        ]);
        rows.push(format!(
            "    {{\"policy\": \"{}\", \"ops_per_sec\": {:.1}, \"slowdown_vs_memory\": \
             {}, \"recovery_verified\": {}}}",
            p.name,
            run.ops_per_sec,
            slowdown.map_or_else(|| "null".to_string(), |s| format!("{s:.4}")),
            verified
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    if test_mode {
        println!(
            "wal: test ok ({} policies recovered and verified against the oracle)",
            rows.len()
        );
    } else {
        t.print();
    }

    let json = format!(
        "{{\n  \"bench\": \"wal\",\n  \"test_mode\": {test_mode},\n  \"n\": {n},\n  \
         \"clients\": {clients},\n  \"batches\": {batches},\n  \"batch_ops\": {batch_ops},\n  \
         \"policies\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    );
    match write_bench_json("BENCH_wal.json", &json) {
        Ok(path) => println!("\nwrote {}", path.display()),
        Err(e) => eprintln!("wal: could not write BENCH_wal.json: {e}"),
    }
}
