//! The five workloads. Each builds its inputs from the seed before any
//! clock starts, runs its timed phases, and validates every answer
//! against the sequential oracle after the clocks have stopped.
//!
//! This file and everything it uses touch the system under test only
//! through surfaces ROADMAP items 2–3 promise to keep: the
//! `connectit-serve` CLI, the PROTOCOL.md wire format, `Service` /
//! `Client::submit`, and `connectit::connectivity_timed`.

use crate::daemon::{check_interrupted, Daemon, TempDir};
use crate::drive::{run_closed, run_paced, Clock, REPLY_TIMEOUT};
use crate::oracle::{
    validate_bounds, validate_exact, validate_labels, ChurnModel, Oracle, Verdict,
};
use crate::procstat::{sample, sample_self, ProcSample};
use crate::report::{median, quantile, Report};
use crate::stream::{
    churn_stream, distinct_edges, final_queries, read_stream, write_stream, Rec, Req, Stream,
    ROUND_INSERTS, ROUND_QUERIES,
};
use crate::trace::Tracer;
use crate::wire::{text_expect, text_request, BinConn};
use cc_graph::generators::{grid2d, rmat_default};
use cc_graph::{CsrGraph, EdgeList};
use cc_server::{DurabilityConfig, Service, ServiceConfig};
use connectit::{connectivity_timed, FinishMethod, SamplingMethod, Update};
use std::collections::{HashMap, HashSet};
use std::io;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// The workloads, in the order `run` executes them.
pub const WORKLOADS: [&str; 5] =
    ["wire_write", "wire_read", "wire_churn", "inproc_write", "static_cc"];

/// Connections (and in-process caller threads) of the generator.
pub const CONNS: usize = 2;
/// Requests each connection keeps in flight in a closed loop.
pub const WINDOW: usize = 64;
/// Arrival tick of the open loop.
const TICK: Duration = Duration::from_micros(500);
/// Share of `--seconds` given to the closed-loop (`sat`) phase; the
/// open-loop (`paced`) phase gets the rest.
const SAT_SHARE: f64 = 0.6;
/// Queries of the final exact check.
const FINAL_QUERIES: usize = 4096;

/// Share of the seed commit's `sat` throughput the open loop offers.
const PACED_LOAD: f64 = 0.4;

/// Frozen sizing: the seed commit's `ops_per_s` on the reference box (2
/// significant digits). It fixes the `sat` phase's op count as
/// `sat_rate × SAT_SHARE × seconds`, so that a run does the same work on
/// every commit, and the `paced` phase's rate as [`PACED_LOAD`] of it.
/// Re-freeze only in a change that, like this one, claims no gain.
fn sat_rate(workload: &str) -> f64 {
    match workload {
        "wire_write" => 160_000.0,
        "wire_read" => 230_000.0,
        "wire_churn" => 7_200.0,
        "inproc_write" => 4_300_000.0,
        "static_cc" => 89_000_000.0,
        other => panic!("no sizing for workload {other:?}"),
    }
}

fn paced_rate(workload: &str) -> f64 {
    PACED_LOAD * sat_rate(workload)
}

/// What a run is asked to do.
#[derive(Clone, Debug)]
pub struct Config {
    /// Seed of every generated input.
    pub seed: u64,
    /// Length of the timed phases together, at the seed commit's speed.
    pub seconds: f64,
    /// Toy sizes: exercises every code path, measures nothing.
    pub smoke: bool,
    /// Where scratch directories and traces go.
    pub out_dir: PathBuf,
    /// The daemon binary, for the wire workloads.
    pub daemon_binary: PathBuf,
}

impl Config {
    /// log2 of the vertex count.
    pub fn scale(&self) -> u32 {
        if self.smoke {
            14
        } else {
            20
        }
    }

    /// The vertex count.
    pub fn n(&self) -> usize {
        1 << self.scale()
    }

    fn sat_ops(&self, workload: &str) -> usize {
        (sat_rate(workload) * SAT_SHARE * self.seconds) as usize
    }

    fn paced_ops(&self, workload: &str) -> usize {
        (paced_rate(workload) * (1.0 - SAT_SHARE) * self.seconds) as usize
    }

    /// A closed loop that takes this long is cut short.
    fn give_up(&self) -> Duration {
        Duration::from_secs_f64(3.0 * self.seconds + 5.0)
    }
}

/// Sets up several times over — each attempt after the previous one is
/// torn down — and returns the last attempt with the median time. Cheap
/// set-ups repeat more, so that the median of a 40 ms spawn is as steady
/// as that of a 2 s graph build.
fn repeat_setup<T>(cfg: &Config, mut build: impl FnMut() -> io::Result<T>) -> io::Result<(T, f64)> {
    let (least, most, until_s) = if cfg.smoke { (1, 1, 0.0) } else { (3, 15, 1.5) };
    let mut times = Vec::new();
    let mut kept = None;
    while times.len() < least || (times.len() < most && times.iter().sum::<f64>() < until_s) {
        drop(kept.take());
        check_interrupted()?;
        let t = Instant::now();
        kept = Some(build()?);
        times.push(t.elapsed().as_secs_f64());
    }
    Ok((kept.expect("at least one set-up"), median(&mut times)))
}

fn failed(rec: &Rec) -> bool {
    rec.sent_ns > 0 && !rec.answered()
}

fn is_op(req: &Req) -> bool {
    !matches!(req, Req::Quiesce | Req::Ping)
}

/// Sets the metrics derived from a `METRICS` dump (mean = sum ÷ count).
fn registry_metrics(lines: &[String], report: &mut Report) {
    let reg: HashMap<&str, f64> = lines
        .iter()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| l.rsplit_once(' '))
        .filter_map(|(k, v)| Some((k.strip_prefix("connectit_")?, v.parse().ok()?)))
        .collect();
    let get = |k: &str| reg.get(k).copied().unwrap_or(0.0);
    let mean = |k: &str| get(&format!("{k}_sum")) / get(&format!("{k}_count")).max(1.0);
    let updates = get("inserts_total") + get("deletes_total");
    report.set("svc.queue_wait_us_mean", mean("queue_wait_ns") / 1e3);
    report.set("svc.apply_us_per_batch", mean("apply_ns") / 1e3);
    report.set("svc.publish_us_per_batch", mean("publish_ns") / 1e3);
    report
        .set("svc.ops_per_batch", (updates + get("queries_total")) / get("batches_total").max(1.0));
    report.set("svc.batch_rejects", get("batch_rejects_total"));
    report.set("wal.append_us_per_batch", mean("wal_append_ns") / 1e3);
    report.set("wal.fsync_us_mean", mean("fsync_ns") / 1e3);
    report.set("wal.fsyncs", get("wal_fsyncs_total"));
    report.set("wal.bytes_per_op", get("wal_bytes_total") / updates.max(1.0));
    report.set("net.coalesce_width_mean", mean("net_coalesce_width"));
    report.set("net.pipeline_depth_mean", mean("net_pipeline_depth"));
    report.set("net.request_errors", get("request_errors_total"));
    report.set("gen.rebuilds", get("rebuilds_committed_total"));
    report.set("gen.rebuild_ms_mean", mean("rebuild_duration_ns") / 1e6);
    let deletes =
        get("deletes_forest_total") + get("deletes_nonforest_total") + get("deletes_absent_total");
    report.set("gen.deletes_forest_frac", get("deletes_forest_total") / deletes.max(1.0));
}

/// Sets the metrics of the `sat` window from readings of the system under
/// test taken around it and, where the generator is a process of its own,
/// of the generator.
fn sat_metrics(
    report: &mut Report,
    ops: f64,
    wall_s: f64,
    sut: [ProcSample; 2],
    own: Option<[ProcSample; 2]>,
) {
    let cpu = sut[1].cpu_s() - sut[0].cpu_s();
    report.set("ops_per_s", ops / wall_s);
    report.set("cpu_us_per_op", cpu * 1e6 / ops.max(1.0));
    report.set("server.cpu_sys_frac", (sut[1].sys_s - sut[0].sys_s) / cpu.max(1e-9));
    let switches = sut[1].ctx_switches.saturating_sub(sut[0].ctx_switches);
    report.set("server.ctx_switches_per_kop", switches as f64 * 1e3 / ops.max(1.0));
    if let Some(own) = own {
        let client = (own[1].cpu_s() - own[0].cpu_s()) / (wall_s * CONNS as f64);
        report.set("client.cpu_frac", client);
    }
}

/// Sets the latency metrics of the `paced` phase. A request never
/// answered counts as [`REPLY_TIMEOUT`]: it misses any limit.
fn paced_metrics(report: &mut Report, recs: &[Rec]) {
    let sent = recs.iter().filter(|r| r.sent_ns > 0);
    let mut lat_us: Vec<f64> = sent
        .clone()
        .map(|r| {
            if failed(r) {
                REPLY_TIMEOUT.as_secs_f64() * 1e6
            } else {
                (r.done_ns - r.due_ns) as f64 / 1e3
            }
        })
        .collect();
    let mut late_us: Vec<f64> = sent.map(|r| (r.sent_ns - r.due_ns) as f64 / 1e3).collect();
    report.set("lat_p50_us", quantile(&mut lat_us, 0.5));
    report.set("lat_p99_us", quantile(&mut lat_us, 0.99));
    report.set("lat_samples", lat_us.len() as f64);
    report.set("client.late_p99_us", quantile(&mut late_us, 0.99));
}

fn account(report: &mut Report, recs: &[Rec], verdict: Verdict) {
    report.attempted += recs.iter().filter(|r| r.sent_ns > 0).count() as u64;
    report.failed += recs.iter().filter(|r| failed(r)).count() as u64;
    report.mismatches += verdict.mismatches;
    if report.first_mismatch.is_none() {
        report.first_mismatch = verdict.first;
    }
}

fn finish(report: &mut Report, validate_s: f64) {
    report.set("client.validate_s", validate_s);
    report.set("failed_frac", report.failed as f64 / report.attempted.max(1) as f64);
}

/// What a wire workload sends.
struct WirePlan {
    name: &'static str,
    /// Edges inserted during set-up.
    preload: Vec<(u32, u32)>,
    /// The closed-loop phase.
    sat: Stream,
    /// The open-loop phase.
    paced: Vec<Req>,
    /// Whether the streams delete (exact validation) or only insert
    /// (bounds rule).
    churn: bool,
    /// Whether to end with FLUSH, SIGKILL and a restart.
    recover: bool,
    /// The ladder rung a traced run of this workload is, if any.
    rung: Option<&'static str>,
}

fn connect(daemon: &Daemon) -> io::Result<Vec<BinConn>> {
    (0..CONNS)
        .map(|_| {
            let mut conn = BinConn::connect(daemon.addr)?;
            conn.call(&Req::Ping)?;
            Ok(conn)
        })
        .collect()
}

fn run_wire(
    cfg: &Config,
    plan: WirePlan,
    gen_s: f64,
    tracer: Option<&Tracer>,
) -> io::Result<Report> {
    let mut report = Report::new(plan.name);
    report.set("client.gen_s", gen_s);
    let n = cfg.n();

    // Set-up: spawn, connect, preload.
    let ((mut conns, daemon, wal), setup_s) = repeat_setup(cfg, || {
        let wal = TempDir::new(&cfg.out_dir)?;
        let daemon = Daemon::spawn(&cfg.daemon_binary, n, wal.path())?;
        let mut conns = connect(&daemon)?;
        conns[0].preload(&plan.preload)?;
        Ok((conns, daemon, wal))
    })?;
    report.set("setup_s", setup_s);

    // The timed phases.
    let clock = tracer.map_or_else(Clock::start, |t| t.clock);
    let root = tracer.map(|t| (t, t.reserve(1)));
    let before = [sample(daemon.pid()), sample_self()];
    let t0 = clock.now_ns();
    let sat = run_closed(&mut conns, &plan.sat, WINDOW, clock, cfg.give_up(), root);
    let t1 = clock.now_ns();
    let after = [sample(daemon.pid()), sample_self()];
    let paced = run_paced(&mut conns, &plan.paced, paced_rate(plan.name), TICK, clock);
    check_interrupted()?;
    if let Some((t, id)) = root {
        t.record_as(id, "wire_sat", t0, t1, 0);
    }

    let acked = |reqs: &[Req], recs: &[Rec]| {
        reqs.iter().zip(recs).filter(|(q, r)| is_op(q) && r.sent_ns > 0 && !failed(r)).count()
    };
    let sat_ops = acked(&plan.sat.reqs, &sat.recs) as f64;
    sat_metrics(
        &mut report,
        sat_ops,
        (t1 - t0) as f64 / 1e9,
        [before[0], after[0]],
        Some([before[1], after[1]]),
    );
    paced_metrics(&mut report, &paced);
    if let (Some(_), Some(rung)) = (tracer, plan.rung) {
        ladder_wire_metrics(&mut report, rung, &plan.sat, &sat.seg_ns);
    }
    registry_metrics(&text_request(daemon.addr, "METRICS")?, &mut report);
    report.set("rss_mb", sample(daemon.pid()).hwm_mb);

    // Crash and recover, or keep the daemon for the final check.
    let mut daemon = daemon;
    if plan.recover {
        text_expect(daemon.addr, "FLUSH", "OK")?;
        report.set("recovery.wal_mb", wal.bytes() as f64 / (1 << 20) as f64);
        drop(conns);
        drop(daemon);
        let t = Instant::now();
        daemon = Daemon::spawn(&cfg.daemon_binary, n, wal.path())?;
        conns = connect(&daemon)?;
        let recovery_s = t.elapsed().as_secs_f64();
        report.set("recovery_s", recovery_s);
        let is_update = |q: &Req| matches!(q, Req::Insert(..) | Req::Delete(..));
        let logged = plan.preload.len()
            + plan.sat.reqs.iter().chain(&plan.paced).filter(|q| is_update(q)).count();
        report.set("recovery.replay_ops_per_s", logged as f64 / recovery_s);
    }
    if plan.churn {
        conns[0].call(&Req::Quiesce)?;
    }
    let final_reqs = final_queries(cfg.seed, n, &plan.preload, FINAL_QUERIES);
    let final_stream = Stream { seg_ends: vec![final_reqs.len()], reqs: final_reqs };
    let finals = run_closed(&mut conns, &final_stream, WINDOW, clock, cfg.give_up(), None);
    let components = text_expect(daemon.addr, "COMPONENTS", "C ")?;
    drop(conns);
    drop(daemon);

    // Validation, after every clock has stopped.
    let t = Instant::now();
    let (verdict, mut oracle) = if plan.churn {
        let mut model = ChurnModel::new(n, &plan.preload);
        let verdict = model.validate(&plan.sat.reqs, &sat.recs);
        plan.paced
            .iter()
            .zip(&paced)
            .filter(|(_, r)| r.sent_ns > 0)
            .for_each(|(q, _)| model.apply(q));
        (verdict, model.oracle())
    } else {
        let reqs: Vec<Req> = plan.sat.reqs.iter().chain(&plan.paced).copied().collect();
        let recs: Vec<Rec> = sat.recs.iter().chain(&paced).copied().collect();
        let mut oracle = Oracle::from_edges(n, &plan.preload);
        for (q, r) in reqs.iter().zip(&recs) {
            if let (Req::Insert(u, v), true) = (*q, r.sent_ns > 0) {
                oracle.union(u, v);
            }
        }
        (validate_bounds(n, &plan.preload, &reqs, &recs), oracle)
    };
    account(&mut report, &sat.recs, verdict);
    account(&mut report, &paced, Verdict::default());
    let mut last = validate_exact(&mut oracle, &final_stream.reqs, &finals.recs);
    last.checked += 1;
    if components != format!("C {}", oracle.components()) {
        last.mismatches += 1;
        last.first.get_or_insert(format!(
            "COMPONENTS answered {components:?}, oracle has {}",
            oracle.components()
        ));
    }
    account(&mut report, &finals.recs, last);
    finish(&mut report, t.elapsed().as_secs_f64());
    Ok(report)
}

/// The wire rung of the ladder: a traced run's time between barriers ÷
/// ops, as the rungs below it are measured.
fn ladder_wire_metrics(
    report: &mut Report,
    rung: &'static str,
    sat: &Stream,
    seg_ns: &[(u64, u64)],
) {
    // A run that gave up ran only the first `seg_ns.len()` segments.
    let ran = seg_ns.len().checked_sub(1).map_or(0, |last| sat.seg_ends[last]);
    let ops = sat.reqs[..ran].iter().filter(|q| is_op(q)).count();
    let ns: u64 = seg_ns.iter().map(|&(t0, t1)| t1 - t0).sum();
    report.set(rung, ns as f64 / ops.max(1) as f64);
}

/// Rounds of the write stream's `sat` phase (shared with the ladder).
pub fn write_rounds(cfg: &Config) -> usize {
    (cfg.sat_ops("wire_write") / (ROUND_INSERTS + ROUND_QUERIES)).max(2)
}

/// `wire_write`: the durable write path, every layer on the critical path.
pub fn wire_write(cfg: &Config, tracer: Option<&Tracer>) -> io::Result<Report> {
    let t = Instant::now();
    let sat = write_stream(cfg.seed, cfg.scale(), write_rounds(cfg));
    let paced_rounds = cfg.paced_ops("wire_write") / (ROUND_INSERTS + ROUND_QUERIES);
    let paced = write_stream(cfg.seed ^ 0x9ACE, cfg.scale(), paced_rounds.max(1)).reqs;
    let plan = WirePlan {
        name: "wire_write",
        preload: Vec::new(),
        sat,
        paced,
        churn: false,
        recover: true,
        rung: Some("ladder.wire_ns_per_op"),
    };
    run_wire(cfg, plan, t.elapsed().as_secs_f64(), tracer)
}

/// Edges preloaded by `wire_read` and `wire_churn`: one per vertex.
fn preload_edges(cfg: &Config) -> Vec<(u32, u32)> {
    distinct_edges(cfg.seed ^ 0xBA5E, cfg.scale(), cfg.n(), &HashSet::new())
}

/// `wire_read`: reads beside a trickle of writes, over a preloaded graph.
pub fn wire_read(cfg: &Config, tracer: Option<&Tracer>) -> io::Result<Report> {
    let t = Instant::now();
    let preload = preload_edges(cfg);
    let sat = read_stream(cfg.seed, cfg.scale(), &preload, cfg.sat_ops("wire_read"));
    let paced_ops = cfg.paced_ops("wire_read");
    let paced = read_stream(cfg.seed ^ 0x9ACE, cfg.scale(), &preload, paced_ops).reqs;
    let plan = WirePlan {
        name: "wire_read",
        preload,
        sat,
        paced,
        churn: false,
        recover: false,
        rung: None,
    };
    run_wire(cfg, plan, t.elapsed().as_secs_f64(), tracer)
}

/// Rounds of the churn stream's `sat` phase (shared with the ladder).
pub fn churn_rounds(cfg: &Config) -> usize {
    (cfg.sat_ops("wire_churn") / (4 * ROUND_QUERIES)).max(2)
}

/// The churn workload's preload and `sat` stream (shared with the
/// ladder); `live` is left holding the edges live after the stream.
pub fn churn_inputs(cfg: &Config, live: &mut Vec<(u32, u32)>) -> (Vec<(u32, u32)>, Stream) {
    let preload = preload_edges(cfg);
    *live = preload.clone();
    let sat = churn_stream(cfg.seed, cfg.scale(), live, churn_rounds(cfg), true);
    (preload, sat)
}

/// `wire_churn`: inserts, deletes of live edges and queries; forest
/// deletions seal a generation and rebuild in the background.
pub fn wire_churn(cfg: &Config, tracer: Option<&Tracer>) -> io::Result<Report> {
    let t = Instant::now();
    let mut live = Vec::new();
    let (preload, sat) = churn_inputs(cfg, &mut live);
    let paced_rounds = cfg.paced_ops("wire_churn") / (4 * ROUND_QUERIES);
    let paced =
        churn_stream(cfg.seed ^ 0x9ACE, cfg.scale(), &mut live, paced_rounds.max(1), false).reqs;
    let plan = WirePlan {
        name: "wire_churn",
        preload,
        sat,
        paced,
        churn: true,
        recover: true,
        rung: Some("ladder.churn.wire_ns_per_op"),
    };
    run_wire(cfg, plan, t.elapsed().as_secs_f64(), tracer)
}

/// A durable in-process service in `dir`, configured as the daemon is.
pub fn start_service(n: usize, dir: Option<&std::path::Path>) -> io::Result<Service> {
    let cfg = ServiceConfig {
        n,
        shards: 2,
        durability: dir.map(DurabilityConfig::new),
        ..ServiceConfig::default()
    };
    Service::start(cfg).map_err(|e| io::Error::other(format!("Service::start: {e}")))
}

/// Checks a quiescent in-process service against the oracle.
fn check_service(service: &Service, oracle: &mut Oracle, queries: &[Req], report: &mut Report) {
    let client = service.client();
    let ops = queries.iter().map(|q| match *q {
        Req::Query(u, v) => Update::Query(u, v),
        _ => unreachable!("final queries only"),
    });
    report.attempted += queries.len() as u64 + 1;
    let mut verdict = Verdict { checked: 1, ..Verdict::default() };
    match client.submit(ops.collect()) {
        Ok(bits) => {
            let recs: Vec<Rec> = bits
                .iter()
                .map(|&b| Rec { due_ns: 1, sent_ns: 1, done_ns: 1, answer: u64::from(b) })
                .collect();
            verdict.absorb(validate_exact(oracle, queries, &recs));
        }
        Err(_) => report.failed += queries.len() as u64,
    }
    if client.num_components() != oracle.components() {
        verdict.mismatches += 1;
        verdict.first.get_or_insert(format!(
            "{} components, oracle has {}",
            client.num_components(),
            oracle.components()
        ));
    }
    account(report, &[], verdict);
}

/// `inproc_write`: the engine and the WAL without socket or codec.
pub fn inproc_write(cfg: &Config) -> io::Result<Report> {
    let mut report = Report::new("inproc_write");
    let t = Instant::now();
    let n = cfg.n();
    let pool_batches = if cfg.smoke { 8 } else { 512 };
    let pool: Vec<Update> = rmat_default(cfg.scale(), pool_batches * ROUND_INSERTS, cfg.seed)
        .edges
        .iter()
        .map(|&(u, v)| Update::Insert(u, v))
        .collect();
    let batch = |k: usize| pool[(k % pool_batches) * ROUND_INSERTS..][..ROUND_INSERTS].to_vec();
    let sat_batches = (cfg.sat_ops("inproc_write") / ROUND_INSERTS).max(CONNS);
    let queries = final_queries(cfg.seed, n, &[], FINAL_QUERIES);
    report.set("client.gen_s", t.elapsed().as_secs_f64());

    let ((service, wal), setup_s) = repeat_setup(cfg, || {
        let wal = TempDir::new(&cfg.out_dir)?;
        Ok((start_service(n, Some(wal.path()))?, wal))
    })?;
    report.set("setup_s", setup_s);

    // sat: each thread submits its batches back to back, timing each call.
    let before = sample_self();
    let t0 = Instant::now();
    let calls: Vec<(f64, bool)> = std::thread::scope(|scope| {
        let threads: Vec<_> = (0..CONNS)
            .map(|c| {
                let client = service.client();
                let batch = &batch;
                scope.spawn(move || {
                    let call = |k: usize| {
                        let ops = batch(k);
                        let t = Instant::now();
                        let ok = client.submit(ops).is_ok();
                        (t.elapsed().as_secs_f64() * 1e6, ok)
                    };
                    (c..sat_batches).step_by(CONNS).map(call).collect::<Vec<_>>()
                })
            })
            .collect();
        threads.into_iter().flat_map(|h| h.join().expect("submitter panicked")).collect()
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let after = sample_self();
    check_interrupted()?;
    let sat_failed = calls.iter().filter(|(_, ok)| !ok).count();
    let sat_ops = ((sat_batches - sat_failed) * ROUND_INSERTS) as f64;
    // The system under test and the generator share this process.
    sat_metrics(&mut report, sat_ops, wall_s, [before, after], None);
    // No open loop here: a caller of `submit` waits for its own call.
    let mut call_us: Vec<f64> = calls.iter().map(|&(us, _)| us).collect();
    report.set("lat_p50_us", quantile(&mut call_us, 0.5));
    report.set("lat_p99_us", quantile(&mut call_us, 0.99));
    report.set("lat_samples", call_us.len() as f64);
    registry_metrics(&service.client().render_metrics(), &mut report);
    report.set("rss_mb", sample_self().hwm_mb);
    report.attempted += (sat_batches * ROUND_INSERTS) as u64;
    report.failed += (sat_failed * ROUND_INSERTS) as u64;

    // Every batch ever submitted lies in the first `submitted` of the pool.
    let submitted = sat_batches.min(pool_batches) * ROUND_INSERTS;
    let t = Instant::now();
    let mut oracle = Oracle::new(n);
    for op in &pool[..submitted] {
        if let Update::Insert(u, v) = *op {
            oracle.union(u, v);
        }
    }
    let mut validate_s = t.elapsed().as_secs_f64();
    check_service(&service, &mut oracle, &queries, &mut report);

    // Recovery: flush, drop the service, start again on the same WAL.
    service.client().flush_wal().map_err(|e| io::Error::other(format!("flush_wal: {e}")))?;
    report.set("recovery.wal_mb", wal.bytes() as f64 / (1 << 20) as f64);
    drop(service);
    let t = Instant::now();
    let service = start_service(n, Some(wal.path()))?;
    let recovery_s = t.elapsed().as_secs_f64();
    report.set("recovery_s", recovery_s);
    let logged = (sat_batches - sat_failed) * ROUND_INSERTS;
    report.set("recovery.replay_ops_per_s", logged as f64 / recovery_s);
    let t = Instant::now();
    check_service(&service, &mut oracle, &queries, &mut report);
    validate_s += t.elapsed().as_secs_f64();
    finish(&mut report, validate_s);
    Ok(report)
}

/// The inputs of `static_cc` (shared with `layers`): the rmat edge list,
/// its CSR form, and the grid.
pub fn static_inputs(cfg: &Config) -> (EdgeList, CsrGraph, CsrGraph) {
    let (rmat_edges, side) = if cfg.smoke { (1 << 17, 128) } else { (8 << 20, 1024) };
    let list = rmat_default(cfg.scale(), rmat_edges, cfg.seed);
    let rmat = cc_graph::build_undirected(list.num_vertices, &list.edges);
    (list, rmat, grid2d(side, side))
}

/// `static_cc`: the paper's kernels alone, no server code.
pub fn static_cc(cfg: &Config) -> io::Result<Report> {
    let mut report = Report::new("static_cc");
    report.set("client.gen_s", 0.0);

    // Set-up is what a library user pays before the first call:
    // generating the inputs and building their CSR form.
    let ((list, rmat, grid), setup_s) = repeat_setup(cfg, || Ok(static_inputs(cfg)))?;
    report.set("setup_s", setup_s);

    let pair_edges = rmat.num_edges() + grid.num_edges();
    let pairs = (cfg.sat_ops("static_cc") / pair_edges).max(3);
    let (sampling, finish_method) = (SamplingMethod::kout_default(), FinishMethod::fastest());
    let mut pair_us = Vec::with_capacity(pairs);
    let mut phases: [Vec<f64>; 5] = Default::default();
    let mut labels = (Vec::new(), Vec::new());
    let before = sample_self();
    let t0 = Instant::now();
    for rep in 0..pairs {
        check_interrupted()?;
        let t = Instant::now();
        let seed = cfg.seed.wrapping_add(rep as u64);
        let (lr, sr) = connectivity_timed(&rmat, &sampling, &finish_method, seed);
        let (lg, sg) = connectivity_timed(&grid, &sampling, &finish_method, seed);
        pair_us.push(t.elapsed().as_secs_f64() * 1e6);
        let coverage = sr.frequent_count as f64 / rmat.num_vertices() as f64;
        let figures = [
            sr.sampling_seconds,
            sr.finish_seconds,
            sg.sampling_seconds,
            sg.finish_seconds,
            coverage,
        ];
        phases.iter_mut().zip(figures).for_each(|(v, x)| v.push(x));
        labels = (std::hint::black_box(lr), std::hint::black_box(lg));
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let after = sample_self();
    sat_metrics(&mut report, (pairs * pair_edges) as f64, wall_s, [before, after], None);
    report.set("lat_p50_us", median(&mut pair_us));
    report.set("lat_samples", pairs as f64);
    report.set("rss_mb", after.hwm_mb);
    let names = [
        "static.sampling_s.rmat",
        "static.finish_s.rmat",
        "static.sampling_s.grid",
        "static.finish_s.grid",
        "static.sample_coverage.rmat",
    ];
    names.into_iter().zip(&mut phases).for_each(|(name, v)| report.set(name, median(v)));

    let t = Instant::now();
    report.attempted = 2 * pairs as u64;
    let mut verdict = validate_labels(rmat.num_vertices(), &list.edges, &labels.0);
    verdict.absorb(validate_labels(grid.num_vertices(), &grid.to_edge_list().edges, &labels.1));
    account(&mut report, &[], verdict);
    finish(&mut report, t.elapsed().as_secs_f64());
    Ok(report)
}

/// Runs one workload by name; only the wire workloads take a tracer.
pub fn run_workload(name: &str, cfg: &Config, tracer: Option<&Tracer>) -> io::Result<Report> {
    std::fs::create_dir_all(&cfg.out_dir)?;
    match name {
        "wire_write" => wire_write(cfg, tracer),
        "wire_read" => wire_read(cfg, tracer),
        "wire_churn" => wire_churn(cfg, tracer),
        "inproc_write" => inproc_write(cfg),
        "static_cc" => static_cc(cfg),
        other => {
            Err(io::Error::other(format!("unknown workload {other:?} (one of {WORKLOADS:?})")))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::UNANSWERED;

    fn rec(sent: u64, done: u64, answer: u64) -> Rec {
        Rec { due_ns: sent, sent_ns: sent, done_ns: done, answer }
    }

    /// One wrong bit makes the run incorrect (a non-zero exit); one dropped
    /// reply makes `failed_frac` positive. Neither can pass silently.
    #[test]
    fn a_wrong_bit_and_a_dropped_reply_both_show() {
        let reqs = [Req::Insert(0, 1), Req::Query(0, 1), Req::Query(1, 2)];
        let good = [rec(10, 20, 0), rec(30, 40, 1), rec(30, 40, 0)];
        let mut report = Report::new("wire_write");
        account(&mut report, &good, validate_bounds(3, &[], &reqs, &good));
        finish(&mut report, 0.0);
        assert!(report.correct() && report.failed == 0);
        assert_eq!((report.attempted, report.get("failed_frac")), (3, Some(0.0)));

        let mut wrong_bit = good;
        wrong_bit[1].answer = 0;
        let mut report = Report::new("wire_write");
        account(&mut report, &wrong_bit, validate_bounds(3, &[], &reqs, &wrong_bit));
        assert!(!report.correct());
        assert!(report.first_mismatch.as_deref().unwrap().contains("Query(0, 1)"));

        let mut dropped = good;
        dropped[2] = Rec { done_ns: 0, answer: UNANSWERED, ..dropped[2] };
        let mut report = Report::new("wire_write");
        account(&mut report, &dropped, validate_bounds(3, &[], &reqs, &dropped));
        finish(&mut report, 0.0);
        assert!(report.correct());
        assert_eq!(report.failed, 1);
        assert!(report.get("failed_frac").unwrap() > 0.3);
        // ... and it counts as the reply timeout in the latency figures.
        paced_metrics(&mut report, &dropped);
        assert_eq!(report.get("lat_p99_us").map(|us| us > 4e6), Some(true));
    }

    #[test]
    fn registry_means_are_sum_over_count() {
        let dump = [
            "# TYPE connectit_inserts_total counter",
            "connectit_inserts_total 300",
            "connectit_queries_total 100",
            "connectit_batches_total 4",
            "connectit_queue_wait_ns{quantile=\"0.5\"} 7",
            "connectit_queue_wait_ns_sum 8000",
            "connectit_queue_wait_ns_count 4",
            "connectit_wal_bytes_total 2400",
            "connectit_deletes_forest_total 0",
        ];
        let mut report = Report::new("wire_write");
        registry_metrics(&dump.map(String::from), &mut report);
        assert_eq!(report.get("svc.queue_wait_us_mean"), Some(2.0));
        assert_eq!(report.get("svc.ops_per_batch"), Some(100.0));
        assert_eq!(report.get("wal.bytes_per_op"), Some(8.0));
        assert_eq!(report.get("gen.deletes_forest_frac"), Some(0.0));
        assert_eq!(report.get("wal.fsync_us_mean"), Some(0.0));
    }
}
