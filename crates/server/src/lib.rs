//! # cc-server
//!
//! A concurrent connectivity *service* in the spirit of ConnectIt's
//! batch-incremental setting (Section 3.5), turned into a long-running
//! system serving heavy mixed insert/delete/query traffic.
//!
//! Layers, bottom up:
//!
//! - [`generation::GenerationEngine`] — the one connectivity structure:
//!   the liveness tracker's partition (`cc_unionfind::SizedUnionFind`,
//!   one writer under the engine's lock, lock-free Type (i) readers)
//!   decides every merge and answers every query. Fully dynamic by
//!   epoch-partitioned generations: inserts stay incremental, a *forest*
//!   deletion seals the partition (O(1)) and rebuilds in the background
//!   (non-forest and absent deletions are free), and queries during a
//!   rebuild serve the sealed generation with an honest
//!   `(epoch, generation)` staleness report (DESIGN.md §9).
//! - [`service::Service`] — group commit with no batch-former thread: a
//!   submitter that finds no batch in flight leads the next one, taking
//!   everything queued into one engine batch; lock-free reads
//!   straight off the serving partition (reads never block writers),
//!   per-operation latency tracking via `cc_parallel::hist::LatencyHist`,
//!   and a cloneable in-process [`service::Client`].
//! - [`analytics`] — the incremental analytics plane: merge deltas and
//!   rebuild resyncs maintain the live component count, size histogram,
//!   top-k components and per-component sizes in an epoch-versioned,
//!   `Arc`-swapped [`analytics::AnalyticsView`] (served by the
//!   `TOPK`/`HIST`/`SIZE` verbs, routable to followers; DESIGN.md §12).
//! - [`subs`] — the subscription plane: `SUB u v` / `SUB COMPONENT v`
//!   register triggers in a union-find-keyed index that consumes the
//!   same merge stream as analytics; events push at the exact
//!   `(epoch, generation)` the merge committed, durable subscriptions
//!   survive restarts via WAL `'S'` records, and slow consumers are
//!   dropped with a typed close rather than losing events silently
//!   (DESIGN.md §13, PROTOCOL.md).
//! - [`wal`] — the durability subsystem: a segmented, checksummed,
//!   group-committed write-ahead log recording each applied batch at its
//!   epoch boundary, and epoch-keyed checkpoint records of the live edge
//!   set in the same log, so recovery replays only the log past the
//!   oldest one.
//! - [`replication`] — WAL shipping: a primary streams its log
//!   (checkpoint + batch records, byte for byte as the disk holds them)
//!   from its event-loop shards — a follower is one more connection,
//!   parked on the epoch waiter list at the live tail — to read-replica
//!   followers, which bootstrap, replay, tail live appends, and serve
//!   reads at an honestly-reported replication epoch (`WAIT` upgrades
//!   bounded staleness to read-your-writes).
//! - [`request`] / [`net`] / [`evloop`] / [`binproto`] — the wire front
//!   end: a sharded, readiness-polled event loop (epoll via the offline
//!   `mio` shim, with a portable `poll(2)` fallback) serving two
//!   protocols on one port, told apart by a first-byte sniff. Both are
//!   codecs over one request IR and verb table ([`request`]) feeding one
//!   dispatcher; no connection (a follower's included) and no listener
//!   gets a thread. The line-based text
//!   protocol (`I`/`D`/`Q`/`B`/`GEN`/`QUIESCE`/`STATS`/`FLUSH`/
//!   `SNAPSHOT`/`WALSTATS`/`METRICS`/`TRACE`/`WAIT`/`ROLE`/…) remains
//!   the debug door. The binary protocol ([`binproto`]) frames
//!   correlation-tagged requests in the `cc_graph::io::binary` codec so
//!   clients pipeline many in-flight requests per connection. One
//!   blocking client, [`client::WireClient`], speaks the same IR over
//!   either door's codec; each shard coalesces decoded reads
//!   across all its ready connections into one epoch-snapshot acquire
//!   and groups updates into one submission per round, which the shard
//!   itself leads when no batch is in flight (DESIGN.md §11).
//! - [`obs`] — the observability plane: a per-service metrics registry
//!   (relaxed-atomic counters/gauges/histograms mirrored at write time,
//!   scraped lock-free by the multi-line `METRICS` verb) and a
//!   fixed-capacity lock-free flight recorder of lifecycle events
//!   (`TRACE [n]`, flushed to `<wal-dir>/trace-<pid>.log` on shutdown
//!   for crash post-mortems). Contract in DESIGN.md §10.
//!
//! Binaries: `connectit-serve` (the daemon; `--wal-dir` turns on
//! durability, `--replication-port` ships the WAL to followers,
//! `--replicate-from` runs a follower) and `connectit-loadgen` (a
//! closed-loop load generator that validates every answered query
//! against the sequential oracle while measuring throughput; its
//! `--kill-after`/`--resume` checkpoint mode re-validates that oracle
//! across a server crash and restart, `--churn` mixes in deletions
//! validated exactly against an incremental dynamic oracle, and
//! `--follower` split-routes updates to the primary and
//! exactly-validated queries to replicas). See the README for a
//! quickstart and the protocol reference, and DESIGN.md §5/§7/§8/§9 for
//! the architecture, durability, replication, and dynamic-connectivity
//! discussions.

#![warn(missing_docs)]

pub mod analytics;
pub mod binproto;
pub mod client;
pub mod evloop;
pub mod generation;
pub mod net;
pub mod obs;
pub mod replication;
pub mod request;
pub mod service;
pub mod subs;
pub mod wal;

pub use analytics::{AnalyticsView, HIST_BUCKETS, TOPK_CAP};
pub use binproto::Reply;
pub use client::WireClient;
pub use evloop::NetConfig;
pub use generation::{GenCounters, GenInfo, GenerationEngine};
pub use net::{serve, serve_with, TcpServer};
pub use obs::{Metrics, Obs, Recorder};
pub use replication::run_follower;
pub use service::{
    Client, ExecMode, LogRecord, Role, Service, ServiceConfig, ServiceError, ServiceStats,
};
pub use subs::{SubEvent, SubInfo, SubKind, SubSink};
pub use wal::{
    DurabilityConfig, FsyncPolicy, RecoveryReport, TailEvent, Wal, WalCursor, WalError, WalStats,
};

/// Creates a unique scratch directory under the system temp dir (pid +
/// nanosecond stamped). Shared by this crate's durability tests and the
/// WAL bench; not part of the service API.
#[doc(hidden)]
pub fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .expect("clock")
        .as_nanos();
    let dir = std::env::temp_dir().join(format!("cc_{tag}_{}_{nanos}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir creation");
    dir
}
