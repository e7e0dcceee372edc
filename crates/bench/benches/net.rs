//! Wire-speed comparison of the server's two protocol doors: the text
//! line protocol (strictly request/reply), the binary protocol driven
//! synchronously (one frame in flight), and the binary protocol
//! pipelined (a window of correlated frames in flight per connection).
//! All three run the same oracle-verified mixed workload — alternating
//! windows of inserts and queries on disjoint per-connection vertex
//! slices, so every query has an exact expected answer — at high
//! connection counts against a real served socket.
//!
//! Reported per mode: verified ops/s and per-request p50/p999 latency
//! (send-to-reap, measured per correlation id so pipelining reports
//! true request latency, not window/width). The headline
//! `speedup_vs_text` is binary-pipelined throughput over text
//! throughput and must reach 2x in full mode (`pipelined_2x_vs_text`,
//! gated exactly by `connectit-bench check`); the event loop's
//! cross-connection batching is proven by `coalesce_width_gt1`, read
//! from the service's own `net_coalesce_width` histogram after the
//! pipelined run.
//!
//! Prints a table and emits `BENCH_net.json`. Accepts the
//! criterion-style `--test` flag (tiny sizes, timing fields null — no
//! timing claims) so `cargo bench -- --test` smoke-runs it in CI.

use cc_bench::harness::{write_bench_json, Table};
use cc_parallel::hist::LatencyHist;
use cc_parallel::SplitMix64;
use cc_server::request::{BinRequest, Request};
use cc_server::{serve, Reply, Service, ServiceConfig, WireClient};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Minimal union-find oracle over one connection's vertex slice.
struct Dsu {
    parent: Vec<u32>,
}

impl Dsu {
    fn new(n: usize) -> Dsu {
        Dsu { parent: (0..n as u32).collect() }
    }

    fn find(&mut self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            let g = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = g;
            x = g;
        }
        x
    }

    fn union(&mut self, a: u32, b: u32) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[ra as usize] = rb;
        }
    }

    fn connected(&mut self, a: u32, b: u32) -> bool {
        self.find(a) == self.find(b)
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Text,
    Bin,
    BinPipe,
}

impl Mode {
    fn name(self) -> &'static str {
        match self {
            Mode::Text => "text",
            Mode::Bin => "binary",
            Mode::BinPipe => "binary_pipelined",
        }
    }
}

struct ModeResult {
    ops_per_sec: f64,
    p50_us: f64,
    p999_us: f64,
    mismatches: u64,
    total_ops: u64,
}

/// The per-connection workload: `rounds` alternating windows of
/// `window` inserts then `window` queries on the connection's own
/// vertex slice. Pair generation is deterministic per (mode, conn) so
/// all three modes do identical work.
fn pairs(rng: &mut SplitMix64, sv: usize, window: usize) -> Vec<(u32, u32)> {
    (0..window)
        .map(|_| ((rng.next_u64() % sv as u64) as u32, (rng.next_u64() % sv as u64) as u32))
        .collect()
}

/// One connection's share of the workload: its vertex slice and the
/// deterministic schedule over it.
#[derive(Clone, Copy)]
struct Slice {
    base: u32,
    sv: usize,
    rounds: usize,
    window: usize,
    seed: u64,
}

/// Runs one window of requests, each paired with its expected answer:
/// `None` for an insert's `OK`, `Some(bit)` for a query. Pipelined, the
/// whole window is in flight at once and replies complete out of order,
/// keyed by correlation id; otherwise one request at a time. Returns the
/// query mismatches.
fn run_window(
    c: &mut WireClient,
    window: &[(Request, Option<bool>)],
    pipeline: bool,
    hist: &LatencyHist,
) -> u64 {
    let depth = if pipeline { window.len().max(1) } else { 1 };
    let mut mismatches = 0u64;
    for group in window.chunks(depth) {
        let mut sent: HashMap<u64, (Instant, Option<bool>)> = HashMap::with_capacity(depth);
        for (req, want) in group {
            let t0 = Instant::now();
            sent.insert(c.send(req).expect("send"), (t0, *want));
        }
        for _ in 0..group.len() {
            let (corr, reply) = c.reap().expect("reap");
            let (t0, want) = sent.remove(&corr).expect("known corr");
            hist.record(t0.elapsed().as_nanos() as u64);
            match (reply, want) {
                (Reply::Ok, None) => {}
                (Reply::Bit(got), Some(want)) => mismatches += u64::from(got != want),
                (reply, _) => panic!("unexpected reply {reply:?}"),
            }
        }
    }
    mismatches
}

fn drive(addr: SocketAddr, w: Slice, hist: &LatencyHist, mode: Mode) -> u64 {
    let Slice { base, sv, rounds, window, seed } = w;
    let mut c = match mode {
        Mode::Text => WireClient::text(addr),
        Mode::Bin | Mode::BinPipe => WireClient::binary(addr),
    }
    .expect("connect");
    let pipeline = mode == Mode::BinPipe;
    let mut rng = SplitMix64::new(seed);
    let mut dsu = Dsu::new(sv);
    let mut mismatches = 0u64;
    for _ in 0..rounds {
        let ins = pairs(&mut rng, sv, window);
        let reqs: Vec<(Request, Option<bool>)> = ins
            .iter()
            .map(|&(u, v)| (BinRequest::Insert(base + u, base + v).into(), None))
            .collect();
        mismatches += run_window(&mut c, &reqs, pipeline, hist);
        for &(u, v) in &ins {
            dsu.union(u, v);
        }
        // Queries only reference state acked in this or earlier rounds,
        // so the expected answers are exact even with a full window in
        // flight.
        let reqs: Vec<(Request, Option<bool>)> = pairs(&mut rng, sv, window)
            .into_iter()
            .map(|(u, v)| (BinRequest::Query(base + u, base + v).into(), Some(dsu.connected(u, v))))
            .collect();
        mismatches += run_window(&mut c, &reqs, pipeline, hist);
    }
    mismatches
}

/// Runs one mode against a fresh service + server at `conns`
/// connections and returns throughput, latency quantiles, and the
/// oracle verdict. Returns the service's coalesce-width histogram
/// verdict (mean width > 1) alongside so the pipelined run can prove
/// cross-connection batching actually happened.
fn run_mode(
    mode: Mode,
    n: usize,
    conns: usize,
    rounds: usize,
    window: usize,
) -> (ModeResult, bool) {
    let mut svc = Service::start(ServiceConfig { n, shards: 4, ..ServiceConfig::default() })
        .expect("service starts");
    let mut server = serve(&svc, "127.0.0.1:0").expect("bind");
    let addr = server.local_addr();
    let sv = n / conns;
    let hist = LatencyHist::new();
    let mismatches = AtomicU64::new(0);
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for id in 0..conns {
            let (hist, mismatches) = (&hist, &mismatches);
            s.spawn(move || {
                let w = Slice {
                    base: (id * sv) as u32,
                    sv,
                    rounds,
                    window,
                    seed: 0x00e7_2026 ^ ((mode.name().len() as u64) << 32) ^ id as u64,
                };
                let bad = drive(addr, w, hist, mode);
                mismatches.fetch_add(bad, Ordering::Relaxed);
            });
        }
    });
    let elapsed = t0.elapsed().as_secs_f64();
    let obs: Arc<cc_server::obs::Obs> = svc.client().observability();
    let width = &obs.metrics.net_coalesce_width;
    let coalesced = width.count() > 0 && width.mean() > 1;
    server.stop();
    svc.shutdown();
    let total_ops = (conns * rounds * 2 * window) as u64;
    (
        ModeResult {
            ops_per_sec: total_ops as f64 / elapsed.max(1e-9),
            p50_us: hist.quantile(0.5) as f64 / 1e3,
            p999_us: hist.quantile(0.999) as f64 / 1e3,
            mismatches: mismatches.load(Ordering::Relaxed),
            total_ops,
        },
        coalesced,
    )
}

fn main() {
    let mut test_mode = false;
    for arg in std::env::args().skip(1) {
        if arg == "--test" {
            test_mode = true;
        }
    }
    let (n, conns, rounds, window) =
        if test_mode { (1 << 14, 16, 2, 32) } else { (1 << 20, 256, 8, 128) };

    println!("== net: text vs binary vs binary-pipelined over a served socket ==");
    println!("n={n} conns={conns} rounds={rounds} window={window} (half inserts, half queries)\n");

    let modes = [Mode::Text, Mode::Bin, Mode::BinPipe];
    let mut results = Vec::new();
    let mut coalesce_width_gt1 = false;
    for mode in modes {
        let (r, coalesced) = run_mode(mode, n, conns, rounds, window);
        if mode == Mode::BinPipe {
            coalesce_width_gt1 = coalesced;
        }
        println!(
            "{:<18} {:>10.3e} ops/s  p50 {:>8.1}us  p999 {:>8.1}us  mismatches={}",
            mode.name(),
            r.ops_per_sec,
            r.p50_us,
            r.p999_us,
            r.mismatches
        );
        results.push((mode, r));
    }

    let text_ops = results[0].1.ops_per_sec;
    let pipe_ops = results[2].1.ops_per_sec;
    let speedup = pipe_ops / text_ops.max(1e-9);
    let total_mismatches: u64 = results.iter().map(|(_, r)| r.mismatches).sum();

    let mut t = Table::new(vec!["mode", "ops/s", "p50 us", "p999 us", "mismatches"]);
    for (mode, r) in &results {
        t.row(vec![
            mode.name().to_string(),
            format!("{:.3e}", r.ops_per_sec),
            format!("{:.1}", r.p50_us),
            format!("{:.1}", r.p999_us),
            r.mismatches.to_string(),
        ]);
    }
    if test_mode {
        println!(
            "\nnet: test ok (speedup {speedup:.2}x, coalesced: {coalesce_width_gt1}, \
             mismatches: {total_mismatches})"
        );
    } else {
        println!();
        t.print();
        println!("\nbinary-pipelined vs text: {speedup:.2}x");
    }

    assert_eq!(total_mismatches, 0, "oracle mismatches over the wire");
    assert!(coalesce_width_gt1, "pipelined run never coalesced more than one request");
    let pipelined_2x = speedup >= 2.0;
    if !test_mode {
        assert!(
            pipelined_2x,
            "binary-pipelined is only {speedup:.2}x text at {conns} connections (need >= 2x)"
        );
    }

    // Timing-derived fields are null in test mode: smoke sizes make no
    // timing claims, and the regression gate skips nulls.
    let num = |x: f64| {
        if test_mode {
            "null".to_string()
        } else {
            format!("{x:.1}")
        }
    };
    let mut mode_rows = String::new();
    for (i, (mode, r)) in results.iter().enumerate() {
        mode_rows.push_str(&format!(
            "    {{\"mode\": \"{}\", \"ops_per_sec\": {}, \"p50_us\": {}, \
             \"p999_us\": {}, \"total_ops\": {}, \"mismatches\": {}}}{}\n",
            mode.name(),
            num(r.ops_per_sec),
            num(r.p50_us),
            num(r.p999_us),
            r.total_ops,
            r.mismatches,
            if i + 1 == results.len() { "" } else { "," }
        ));
    }
    let speedup_json = if test_mode { "null".to_string() } else { format!("{speedup:.3}") };
    let flag_json = if test_mode {
        String::new()
    } else {
        format!("  \"pipelined_2x_vs_text\": {pipelined_2x},\n")
    };
    let json = format!(
        "{{\n  \"bench\": \"net\",\n  \"test_mode\": {test_mode},\n  \"n\": {n},\n  \
         \"conns\": {conns},\n  \"rounds\": {rounds},\n  \"window\": {window},\n  \
         \"modes\": [\n{mode_rows}  ],\n  \
         \"speedup_vs_text\": {speedup_json},\n{flag_json}  \
         \"coalesce_width_gt1\": {coalesce_width_gt1},\n  \
         \"mismatches\": {total_mismatches}\n}}\n"
    );
    match write_bench_json("BENCH_net.json", &json) {
        Ok(path) => println!("\nwrote {}", path.display()),
        Err(e) => eprintln!("net: could not write BENCH_net.json: {e}"),
    }
}
