//! `layers` — the traced run: where the time goes, layer by layer.
//!
//! ```text
//! layers --workload W --seed S --seconds T --trace 1   one workload; the driver's form
//! layers run [--seed S] [--seconds T] [--smoke] [--out FILE]   all five workloads
//! ```
//!
//! Runs the workload with spans on, then replays its op stream down the
//! *ladder*: rungs that each add one layer, every rung timed by spans
//! recorded here, around the call into the layer. A layer's self time is
//! the difference between its rung and the one below. Spans are written to
//! `benchmark/out/trace-<stream>.jsonl` when the run ends. This is the one
//! file of the benchmark that calls below the stable surfaces, so it is
//! the one file ROADMAP items 2–3 may have to edit.

use cc_server::binproto::{self, BinRequest, FrameAssembler, Reply};
use cc_server::{DurabilityConfig, GenerationEngine, ServiceConfig, Wal};
use connectit::{inter_component_edges, run_sampling, SamplingMethod};
use connectit::{StreamAlgorithm, StreamingConnectivity, Update};
use connectit_benchmark::daemon::{self, TempDir};
use connectit_benchmark::drive::{run_closed, Pipe};
use connectit_benchmark::report::Report;
use connectit_benchmark::stream::{write_stream, Req, Stream};
use connectit_benchmark::trace::Tracer;
use connectit_benchmark::workloads::{
    churn_inputs, run_workload, start_service, static_inputs, write_rounds, Config, CONNS,
};
use connectit_benchmark::{exit, pin_pool_threads, Args};
use std::io;
use std::process::ExitCode;
use std::time::Duration;

type Apply<'a> = Box<dyn FnMut(&[Update]) + Send + 'a>;

/// A [`Pipe`] whose "server" is a function call: a connection's share of a
/// segment becomes one batch handed to `apply`, so every rung runs under
/// the same closed-loop driver, with the same barriers, as the wire does.
struct CallPipe<'a> {
    queued: Vec<(usize, Req)>,
    apply: Apply<'a>,
    quiesce: Box<dyn FnMut() + Send + 'a>,
}

impl Pipe for CallPipe<'_> {
    fn push(&mut self, index: usize, req: &Req) {
        self.queued.push((index, *req));
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }

    fn reap(&mut self, _wait: Duration, out: &mut Vec<(usize, u64)>) -> io::Result<()> {
        let batch: Vec<Update> = self
            .queued
            .iter()
            .filter_map(|&(_, req)| match req {
                Req::Insert(u, v) => Some(Update::Insert(u, v)),
                Req::Delete(u, v) => Some(Update::Delete(u, v)),
                Req::Query(u, v) => Some(Update::Query(u, v)),
                _ => None,
            })
            .collect();
        if batch.is_empty() {
            (self.quiesce)();
        } else {
            (self.apply)(&batch);
        }
        out.extend(self.queued.drain(..).map(|(i, _)| (i, 0)));
        Ok(())
    }
}

/// Runs `stream` over `pipes` as one rung; returns its ns per op.
fn rung(name: &'static str, tracer: &Tracer, stream: &Stream, pipes: &mut [CallPipe]) -> f64 {
    let clock = tracer.clock;
    let root = tracer.reserve(1);
    let t0 = clock.now_ns();
    let run = run_closed(
        pipes,
        stream,
        usize::MAX,
        clock,
        Duration::from_secs(120),
        Some((tracer, root)),
    );
    tracer.record_as(root, name, t0, clock.now_ns(), 0);
    let ns: u64 = run.seg_ns.iter().map(|&(a, b)| b - a).sum();
    ns as f64 / stream.num_ops() as f64
}

fn call_pipe<'a>(
    apply: impl FnMut(&[Update]) + Send + 'a,
    quiesce: impl FnMut() + Send + 'a,
) -> CallPipe<'a> {
    CallPipe { queued: Vec::new(), apply: Box::new(apply), quiesce: Box::new(quiesce) }
}

/// Rungs 2–4 over `stream` on a graph preloaded with `base`: the
/// generation engine, the service in memory, the service with its WAL.
fn upper_rungs(
    cfg: &Config,
    tracer: &Tracer,
    stream: &Stream,
    base: &[(u32, u32)],
) -> io::Result<[f64; 3]> {
    let n = cfg.n();
    let defaults = ServiceConfig::default();
    let preload: Vec<Update> = base.iter().map(|&(u, v)| Update::Insert(u, v)).collect();
    let long = Duration::from_secs(30);

    let engine = GenerationEngine::new(
        n,
        2,
        &defaults.spec,
        defaults.mode,
        defaults.seed,
        Duration::ZERO,
        None,
    )
    .map_err(io::Error::other)?;
    engine.process_batch_tagged(&preload);
    let apply = |b: &[Update]| drop(std::hint::black_box(engine.process_batch_tagged(b)));
    let generation = rung(
        "rung.generation",
        tracer,
        stream,
        &mut [call_pipe(apply, || _ = engine.quiesce(long))],
    );
    drop(engine);

    let service_rung = |name: &'static str, wal: Option<&TempDir>| -> io::Result<f64> {
        let service = start_service(n, wal.map(TempDir::path))?;
        let submit =
            |ops: Vec<Update>| service.client().submit(ops).expect("service refused a batch");
        submit(preload.clone());
        let pipe = || {
            call_pipe(
                |b: &[Update]| drop(std::hint::black_box(submit(b.to_vec()))),
                || _ = service.client().quiesce(long),
            )
        };
        let mut pipes: Vec<CallPipe> = (0..CONNS).map(|_| pipe()).collect();
        Ok(rung(name, tracer, stream, &mut pipes))
    };
    let service_mem = service_rung("rung.service_mem", None)?;
    let wal_dir = TempDir::new(&cfg.out_dir)?;
    let service_wal = service_rung("rung.service_wal", Some(&wal_dir))?;
    Ok([generation, service_mem, service_wal])
}

/// The isolated codec rung: every request and its reply encoded, framed,
/// reassembled and decoded in memory, as the two ends of a connection do.
fn codec_rung(tracer: &Tracer, stream: &Stream) -> f64 {
    let clock = tracer.clock;
    let t0 = clock.now_ns();
    let (mut to_server, mut to_client) = (FrameAssembler::new(), FrameAssembler::new());
    // An assembler wants the stream magic before the first frame.
    to_server.push(&binproto::STREAM_MAGIC);
    to_client.push(&binproto::STREAM_MAGIC);
    for (i, req) in stream.reqs.iter().enumerate() {
        let (request, reply, verb) = match *req {
            Req::Insert(u, v) => (BinRequest::Insert(u, v), Reply::Ok, binproto::verb::INSERT),
            Req::Query(u, v) => (BinRequest::Query(u, v), Reply::Bit(true), binproto::verb::QUERY),
            _ => continue,
        };
        to_server.push(&binproto::frame(&binproto::encode_request(i as u64, &request)));
        let payload = to_server.next_frame().expect("own frame").expect("complete frame");
        std::hint::black_box(binproto::decode_request(&payload).expect("own request"));
        to_client.push(&binproto::frame(&binproto::encode_reply(i as u64, &reply)));
        let payload = to_client.next_frame().expect("own frame").expect("complete frame");
        std::hint::black_box(binproto::decode_reply(&payload, verb).expect("own reply"));
    }
    let t1 = clock.now_ns();
    tracer.record("rung.codec", t0, t1, 0);
    (t1 - t0) as f64 / stream.num_ops() as f64
}

/// The isolated WAL rung: every update segment appended as one record
/// under fsync `batch`; returns ns and bytes per logged op.
fn wal_rung(cfg: &Config, tracer: &Tracer, stream: &Stream) -> io::Result<(f64, f64)> {
    let dir = TempDir::new(&cfg.out_dir)?;
    let (mut wal, _) = Wal::open(&DurabilityConfig::new(dir.path())).map_err(io::Error::other)?;
    let clock = tracer.clock;
    let root = tracer.reserve(1);
    let t0 = clock.now_ns();
    let (mut start, mut logged) = (0, 0usize);
    for (epoch, &end) in stream.seg_ends.iter().enumerate() {
        let batch: Vec<Update> = stream.reqs[start..end]
            .iter()
            .filter_map(
                |q| if let Req::Insert(u, v) = *q { Some(Update::Insert(u, v)) } else { None },
            )
            .collect();
        start = end;
        if batch.is_empty() {
            continue;
        }
        let t = clock.now_ns();
        wal.append_ops(epoch as u64 + 1, &batch).map_err(io::Error::other)?;
        tracer.record("wal.append_ops", t, clock.now_ns(), root);
        logged += batch.len();
    }
    wal.flush().map_err(io::Error::other)?;
    let t1 = clock.now_ns();
    tracer.record_as(root, "rung.wal_append", t0, t1, 0);
    Ok(((t1 - t0) as f64 / logged as f64, wal.stats().appended_bytes as f64 / logged as f64))
}

/// The write-stream ladder, reported on `wire_write` and `inproc_write`.
fn write_ladder(cfg: &Config, tracer: &Tracer, report: &mut Report) -> io::Result<()> {
    let n = cfg.n();
    let stream = write_stream(cfg.seed, cfg.scale(), write_rounds(cfg));
    let defaults = ServiceConfig::default();
    let uf =
        StreamingConnectivity::new(n, &StreamAlgorithm::UnionFind(defaults.spec), defaults.seed);
    let apply = |b: &[Update]| drop(std::hint::black_box(uf.process_batch(b)));
    let uf_stream = rung("rung.uf_stream", tracer, &stream, &mut [call_pipe(apply, || ())]);
    let [generation, service_mem, service_wal] = upper_rungs(cfg, tracer, &stream, &[])?;
    let codec = codec_rung(tracer, &stream);
    let (wal_append, wal_bytes) = wal_rung(cfg, tracer, &stream)?;
    report.set("ladder.uf_stream_ns_per_op", uf_stream);
    report.set("ladder.generation_ns_per_op", generation);
    report.set("ladder.service_mem_ns_per_op", service_mem);
    report.set("ladder.service_wal_ns_per_op", service_wal);
    report.set("ladder.codec_ns_per_op", codec);
    report.set("ladder.wal_append_ns_per_op", wal_append);
    report.set("ladder.wal_bytes_per_op", wal_bytes);
    report.set("generation.self_ns_per_op", generation - uf_stream);
    report.set("service.self_ns_per_op", service_mem - generation);
    report.set("wal.self_ns_per_op", service_wal - service_mem);
    // The wire rung is the traced workload itself (`wire_write` only).
    if let Some(wire) = report.get("ladder.wire_ns_per_op") {
        report.set("net.self_ns_per_op", wire - service_wal);
        report.set("evloop.self_ns_per_op", wire - service_wal - codec);
    }
    Ok(())
}

/// Rungs 2–4 on the churn stream, reported on `wire_churn`.
fn churn_ladder(cfg: &Config, tracer: &Tracer, report: &mut Report) -> io::Result<()> {
    let (preload, stream) = churn_inputs(cfg, &mut Vec::new());
    let [generation, service_mem, service_wal] = upper_rungs(cfg, tracer, &stream, &preload)?;
    report.set("ladder.churn.generation_ns_per_op", generation);
    report.set("ladder.churn.service_mem_ns_per_op", service_mem);
    report.set("ladder.churn.service_wal_ns_per_op", service_wal);
    Ok(())
}

/// What `connectivity_timed` cannot say of its sampling phase: the share
/// of edges left between sampled components, which the finish phase must
/// still process.
fn static_extras(cfg: &Config, report: &mut Report) {
    let (_, g, _) = static_inputs(cfg);
    let sample = run_sampling(&g, &SamplingMethod::kout_default(), cfg.seed, false);
    let inter = inter_component_edges(&g, &sample.labels);
    report.set("static.inter_edges_frac.rmat", inter as f64 / g.num_edges().max(1) as f64);
}

/// One workload, traced, with the ladder that belongs to it.
fn run_traced(name: &str, cfg: &Config) -> io::Result<Report> {
    // What tracing costs: `wire_write` untraced first, as `e2e` runs it,
    // against the wire rung of the traced run that follows.
    let untraced_ops_per_s = match name {
        "wire_write" => run_workload(name, cfg, None)?.get("ops_per_s"),
        _ => None,
    };
    let tracer = Tracer::default();
    let mut report = run_workload(name, cfg, Some(&tracer))?;
    if let (Some(rate), Some(wire)) = (untraced_ops_per_s, report.get("ladder.wire_ns_per_op")) {
        report.set("ladder.overhead_frac", wire * rate / 1e9 - 1.0);
    }
    let stream = match name {
        "wire_write" | "inproc_write" => {
            write_ladder(cfg, &tracer, &mut report)?;
            Some("write")
        }
        "wire_churn" => {
            churn_ladder(cfg, &tracer, &mut report)?;
            Some("churn")
        }
        "wire_read" => Some("read"),
        "static_cc" => {
            static_extras(cfg, &mut report);
            None
        }
        _ => None,
    };
    if let Some(stream) = stream {
        tracer.write_jsonl(&cfg.out_dir.join(format!("trace-{stream}.jsonl")))?;
    }
    Ok(report)
}

fn main() -> ExitCode {
    pin_pool_threads();
    daemon::trap_signals();
    let outcome = Args::parse(std::env::args().skip(1)).and_then(|args| {
        let args = Args { trace: true, ..args };
        match (args.command.as_deref(), args.workload.as_deref()) {
            (Some("run"), None) => args.run_all().map_err(|e| e.to_string()),
            (None, Some(name)) => args.run_one(name, run_traced).map_err(|e| e.to_string()),
            _ => {
                Err("usage: layers --workload W --seed S --seconds T --trace 1 | run [--smoke]"
                    .into())
            }
        }
    });
    exit("layers", outcome)
}
