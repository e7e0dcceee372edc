//! `connectit-serve` — the long-running connectivity daemon.
//!
//! ```text
//! connectit-serve [--n N] [--shards S] [--bind ADDR] [--port P]
//!                 [--batch-ops K] [--snapshot-every B]
//!                 [--wal-dir DIR] [--fsync always|batch|off]
//!                 [--replication-port R | --replicate-from HOST:PORT]
//!                 [--net-shards S] [--idle-timeout-ms MS]
//! ```
//!
//! `--net-shards` sets the number of event-loop shards in the wire front
//! end (default: one per core, capped at 8); `--idle-timeout-ms` closes
//! connections (text and binary alike) idle past the limit with a typed
//! `idle-timeout` close reason in the flight recorder.
//!
//! `--shards` is accepted and selects nothing (see
//! `cc_server::ExecMode`). `--batch-ops` caps the operations in one
//! batch; no timer forms a batch: it is whatever queued while the last
//! one applied (see `cc_server::service`).
//!
//! `--wal-dir` turns on durability: every applied batch is logged to a
//! segmented, checksummed write-ahead log before it commits, and startup
//! recovers whatever state the log in that directory already holds,
//! resuming at the recovered epoch. `--fsync` picks the sync discipline
//! (see `cc_server::wal`); with a WAL, `--snapshot-every` writes a
//! checkpoint record of the live edge set on that epoch cadence, which
//! bounds replay and prunes the segments before it (without a WAL it
//! selects nothing).
//!
//! `--replication-port` (primary side; requires `--wal-dir`) additionally
//! serves the WAL-shipping replication stream to followers on that port,
//! from the same event-loop shards as the query port.
//! `--replicate-from HOST:PORT` starts this process as a read-replica
//! *follower* instead: an in-memory engine fed exclusively by the
//! primary's replication stream, serving `Q`/`B`/`LABEL`/`COMPONENTS`/
//! `EPOCH`/`WAIT` (inserts answer `ERR read-only follower …`) at an
//! honestly-reported replication epoch. See DESIGN.md §8.
//!
//! Serves the line protocol documented in `cc_server::net` until a client
//! sends `SHUTDOWN`, then prints final stats and exits.

use cc_server::{serve_with, DurabilityConfig, NetConfig, Role, Service, ServiceConfig};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn usage() -> ExitCode {
    eprintln!(
        "usage: connectit-serve [--n N] [--shards S] [--bind ADDR] [--port P]\n\
         \x20                      [--batch-ops K] [--snapshot-every B]\n\
         \x20                      [--wal-dir DIR] [--fsync always|batch|off]\n\
         \x20                      [--replication-port R | --replicate-from HOST:PORT]\n\
         \x20                      [--net-shards S] [--idle-timeout-ms MS]\n\
         \x20  --shards is accepted and selects nothing\n\
         \x20  --batch-ops caps a batch: whatever queued while the last one applied\n\
         \x20  --wal-dir enables the write-ahead log + crash recovery; --snapshot-every\n\
         \x20  then sets the checkpoint cadence\n\
         \x20  --replication-port streams the WAL to followers (requires --wal-dir)\n\
         \x20  --replicate-from makes this a read-only follower of that primary\n\
         \x20  --net-shards: event-loop shards in the wire front end (default: one per\n\
         \x20  core, capped at 8); --idle-timeout-ms: close idle connections typed"
    );
    ExitCode::from(2)
}

struct Opts {
    cfg: ServiceConfig,
    bind: String,
    port: u16,
    wal_dir: Option<String>,
    fsync: cc_server::FsyncPolicy,
    snapshot_every: u64,
    replicate_from: Option<String>,
    net: NetConfig,
}

/// The value after `flag`, parsed; a failure names the flag.
fn value<T: std::str::FromStr>(flag: &str, it: &mut std::slice::Iter<String>) -> Result<T, String> {
    let raw = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
    raw.parse().map_err(|_| format!("bad {flag}"))
}

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        cfg: ServiceConfig::default(),
        bind: "127.0.0.1".to_string(),
        port: 7411,
        wal_dir: None,
        fsync: cc_server::FsyncPolicy::Batch,
        snapshot_every: 0,
        replicate_from: None,
        net: NetConfig::default(),
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--n" => opts.cfg.n = value(a, &mut it)?,
            "--shards" => opts.cfg.shards = value(a, &mut it)?,
            "--bind" => opts.bind = value(a, &mut it)?,
            "--port" => opts.port = value(a, &mut it)?,
            "--batch-ops" => opts.cfg.batch_max_ops = value(a, &mut it)?,
            "--snapshot-every" => opts.snapshot_every = value(a, &mut it)?,
            "--wal-dir" => opts.wal_dir = Some(value(a, &mut it)?),
            "--fsync" => opts.fsync = it.next().ok_or("--fsync needs a value")?.parse()?,
            "--replication-port" => opts.net.replication_port = Some(value(a, &mut it)?),
            "--replicate-from" => opts.replicate_from = Some(value(a, &mut it)?),
            "--net-shards" => {
                opts.net.shards = value(a, &mut it)?;
                if opts.net.shards == 0 {
                    return Err("--net-shards must be at least 1".into());
                }
            }
            "--idle-timeout-ms" => match value(a, &mut it)? {
                0 => return Err("--idle-timeout-ms must be at least 1".into()),
                ms => opts.net.idle_timeout = Some(Duration::from_millis(ms)),
            },
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if opts.replicate_from.is_some() {
        if opts.wal_dir.is_some() {
            return Err("--replicate-from starts an in-memory follower; the WAL belongs to \
                        the primary (drop --wal-dir)"
                .into());
        }
        if opts.net.replication_port.is_some() {
            return Err("--replicate-from and --replication-port are mutually exclusive \
                        (a follower does not re-ship the stream)"
                .into());
        }
        opts.cfg.role = Role::Follower;
    }
    if opts.net.replication_port.is_some() && opts.wal_dir.is_none() {
        return Err("--replication-port streams the WAL to followers and needs --wal-dir".into());
    }
    if let Some(dir) = &opts.wal_dir {
        opts.cfg.durability = Some(DurabilityConfig {
            fsync: opts.fsync,
            snapshot_every: opts.snapshot_every,
            ..DurabilityConfig::new(dir)
        });
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        return usage();
    }
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("connectit-serve: {e}");
            return usage();
        }
    };
    let mut service = match Service::start(opts.cfg.clone()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("connectit-serve: {e}");
            return ExitCode::FAILURE;
        }
    };
    let client = service.client();
    let mut server = match serve_with(&service, (opts.bind.as_str(), opts.port), opts.net.clone()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("connectit-serve: bind failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    // Durability on: a panic anywhere in the process flushes the flight
    // recorder to the run's trace file before unwinding, so the restart
    // can surface the final recorded events (the service's own periodic
    // and shutdown flushes append to the same file).
    if let Some(dir) = &opts.wal_dir {
        let obs = client.observability();
        let path = std::path::Path::new(dir).join(format!("trace-{}.log", std::process::id()));
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let _ = obs.recorder.flush_to_file(&path);
            prev(info);
        }));
    }

    // Follower side: connect to the primary and apply its stream forever.
    let repl_shutdown = Arc::new(AtomicBool::new(false));
    let mut receiver = None;
    if let Some(primary) = &opts.replicate_from {
        match cc_server::run_follower(client.clone(), primary.clone(), Arc::clone(&repl_shutdown)) {
            Ok(h) => receiver = Some(h),
            Err(e) => {
                eprintln!("connectit-serve: replication receiver failed to start: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    let wal_info = match &opts.wal_dir {
        Some(dir) => {
            format!(" wal_dir={dir} fsync={} recovered_epoch={}", opts.fsync, client.epoch())
        }
        None => String::new(),
    };
    let repl_info = match (server.replication_addr(), &opts.replicate_from) {
        (Some(addr), _) => format!(" replication_addr={addr}"),
        (None, Some(primary)) => format!(" replicate_from={primary}"),
        (None, None) => String::new(),
    };
    println!(
        "connectit-serve listening on {} role={} n={} batch_ops={}{wal_info}{repl_info}",
        server.local_addr(),
        client.role(),
        client.num_vertices(),
        opts.cfg.batch_max_ops,
    );
    server.wait_shutdown();
    repl_shutdown.store(true, Ordering::Release);
    service.shutdown();
    if let Some(h) = receiver {
        let _ = h.join();
    }
    println!("connectit-serve: shutdown; final stats: {}", client.stats());
    if let Ok(wal) = client.wal_stats() {
        println!("connectit-serve: final wal stats: {wal}");
    }
    ExitCode::SUCCESS
}
