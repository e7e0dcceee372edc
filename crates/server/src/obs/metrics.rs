//! The metrics registry: every exported series of the service stack,
//! registered statically as a named field and rendered in a stable
//! Prometheus-style text exposition (the `METRICS` verb).
//!
//! ## Write path
//!
//! Instrumentation writes are relaxed atomic increments (or one
//! [`LatencyHist`] record, itself a handful of relaxed `fetch_add`s) on
//! pre-registered series — no allocation, no locking, no formatting.
//! Subsystems update the registry *at write time*, so the scrape never
//! has to reach into the batch leader, the WAL writer, or the generation
//! engine's writer lock to compute a value.
//!
//! ## Read path
//!
//! [`Metrics::render`] reads every series with relaxed atomic loads and
//! formats the exposition. The only lock it takes is the registry's own
//! follower-table mutex (see [`Metrics::register_follower`]) — held for
//! a `Vec` clone, never taken by a batch leader, the WAL writer, or
//! any query path. The lock-by-lock audit lives in `DESIGN.md` §10.
//!
//! ## Exposition grammar (wire-stable)
//!
//! ```text
//! # TYPE connectit_<name> counter|gauge|summary
//! connectit_<name>[{label="value"}] <integer>
//! ```
//!
//! Histograms export as summaries: four `{quantile="..."}` lines
//! (p50/p90/p99/p999, nanoseconds), a `_sum` (approximated as
//! `mean * count`, same ~3% quantization as the histogram itself) and a
//! `_count`. The `METRICS` (and `TRACE`) reply is terminated by a
//! literal `# EOF` line so scrapers never have to guess at the end of a
//! multi-line reply.

use crate::request::{Verb, VERBS};
use cc_parallel::hist::LatencyHist;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A monotone counter (exported with the `counter` type).
#[derive(Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-write-wins gauge (exported with the `gauge` type).
#[derive(Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Stores `v`.
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Stores `v` if it is larger than the current value (used for
    /// monotone gauges like the epoch, where concurrent writers must
    /// never regress the published value).
    #[inline]
    pub fn set_max(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Adds 1 (live-object gauges).
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Subtracts 1 (live-object gauges).
    #[inline]
    pub fn dec(&self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Per-follower replication telemetry, registered by the hub's sender
/// thread for the lifetime of one follower connection. All fields are
/// plain atomics the sender updates lock-free on its shipping path; the
/// registry lock is only taken to add/remove the slot and to clone the
/// table for a scrape.
pub struct FollowerSlot {
    /// Stable id of this follower connection (unique per process).
    pub id: u64,
    /// The highest epoch shipped to (and acknowledged implicitly by
    /// in-order delivery at) this follower.
    pub sent_epoch: AtomicU64,
    /// WAL batch records shipped to this follower.
    pub records: AtomicU64,
    /// Payload bytes shipped to this follower.
    pub bytes: AtomicU64,
}

/// The service-wide metrics registry. One per [`crate::Service`]
/// (shared by its WAL, generation engine, network front end, and
/// replication hub through `Arc<Obs>`), never process-global, so tests
/// and embedders running several services per process stay isolated.
///
/// Counters end in `_total`; gauges are instantaneous; histograms are
/// nanosecond-valued unless the name says otherwise.
#[allow(missing_docs)] // each field is named by its exported series; see render()
pub struct Metrics {
    // service plane
    pub inserts_total: Counter,
    pub deletes_total: Counter,
    pub queries_total: Counter,
    pub batches_total: Counter,
    pub batch_rejects_total: Counter,
    pub epoch: Gauge,
    pub components: Gauge,
    pub durable_snapshot_epoch: Gauge,
    pub latency_ns: LatencyHist,
    pub queue_wait_ns: LatencyHist,
    pub wal_append_ns: LatencyHist,
    pub apply_ns: LatencyHist,
    // wal plane
    pub wal_records_total: Counter,
    pub wal_bytes_total: Counter,
    pub wal_fsyncs_total: Counter,
    pub wal_rolls_total: Counter,
    pub wal_prunes_total: Counter,
    pub wal_segments: Gauge,
    pub wal_last_epoch: Gauge,
    pub wal_torn_bytes: Gauge,
    pub fsync_ns: LatencyHist,
    // generation plane
    pub rebuilds_sealed_total: Counter,
    pub rebuilds_committed_total: Counter,
    pub rebuilds_discarded_total: Counter,
    pub deletes_forest_total: Counter,
    pub deletes_nonforest_total: Counter,
    pub deletes_absent_total: Counter,
    pub deletes_dirty_total: Counter,
    pub generation: Gauge,
    pub gen_dirty: Gauge,
    pub live_edges: Gauge,
    pub edge_table_bytes: Gauge,
    pub rebuild_duration_ns: LatencyHist,
    pub rebuild_drained_ops: LatencyHist,
    pub rebuild_commit_hold_ns: LatencyHist,
    // subs plane
    pub subs_active: Gauge,
    pub sub_events_total: Counter,
    pub sub_fire_ns: LatencyHist,
    // net plane
    pub connections_total: Counter,
    pub connections_live: Gauge,
    pub request_errors_total: Counter,
    pub frames_in_total: Counter,
    pub frames_out_total: Counter,
    pub net_writes_total: Counter,
    pub net_coalesce_width: LatencyHist,
    pub net_pipeline_depth: LatencyHist,
    pub waits_parked: Gauge,
    net_shards: Mutex<Vec<Arc<Gauge>>>,
    /// One request counter per row of [`VERBS`], indexed by [`Verb`].
    requests: [Counter; VERBS.len()],
    // replication plane
    pub repl_records_shipped_total: Counter,
    pub repl_bytes_shipped_total: Counter,
    pub repl_snapshots_shipped_total: Counter,
    pub repl_records_applied_total: Counter,
    pub repl_snapshots_applied_total: Counter,
    pub repl_connects_total: Counter,
    pub followers_live: Gauge,
    followers: Mutex<Vec<Arc<FollowerSlot>>>,
    next_follower_id: AtomicU64,
}

impl Default for Metrics {
    fn default() -> Self {
        Self::new()
    }
}

impl Metrics {
    /// An empty registry.
    pub fn new() -> Metrics {
        Metrics {
            inserts_total: Counter::default(),
            deletes_total: Counter::default(),
            queries_total: Counter::default(),
            batches_total: Counter::default(),
            batch_rejects_total: Counter::default(),
            epoch: Gauge::default(),
            components: Gauge::default(),
            durable_snapshot_epoch: Gauge::default(),
            latency_ns: LatencyHist::new(),
            queue_wait_ns: LatencyHist::new(),
            wal_append_ns: LatencyHist::new(),
            apply_ns: LatencyHist::new(),
            wal_records_total: Counter::default(),
            wal_bytes_total: Counter::default(),
            wal_fsyncs_total: Counter::default(),
            wal_rolls_total: Counter::default(),
            wal_prunes_total: Counter::default(),
            wal_segments: Gauge::default(),
            wal_last_epoch: Gauge::default(),
            wal_torn_bytes: Gauge::default(),
            fsync_ns: LatencyHist::new(),
            rebuilds_sealed_total: Counter::default(),
            rebuilds_committed_total: Counter::default(),
            rebuilds_discarded_total: Counter::default(),
            deletes_forest_total: Counter::default(),
            deletes_nonforest_total: Counter::default(),
            deletes_absent_total: Counter::default(),
            deletes_dirty_total: Counter::default(),
            generation: Gauge::default(),
            gen_dirty: Gauge::default(),
            live_edges: Gauge::default(),
            edge_table_bytes: Gauge::default(),
            rebuild_duration_ns: LatencyHist::new(),
            rebuild_drained_ops: LatencyHist::new(),
            rebuild_commit_hold_ns: LatencyHist::new(),
            subs_active: Gauge::default(),
            sub_events_total: Counter::default(),
            sub_fire_ns: LatencyHist::new(),
            connections_total: Counter::default(),
            connections_live: Gauge::default(),
            request_errors_total: Counter::default(),
            frames_in_total: Counter::default(),
            frames_out_total: Counter::default(),
            net_writes_total: Counter::default(),
            net_coalesce_width: LatencyHist::new(),
            net_pipeline_depth: LatencyHist::new(),
            waits_parked: Gauge::default(),
            net_shards: Mutex::new(Vec::new()),
            requests: std::array::from_fn(|_| Counter::default()),
            repl_records_shipped_total: Counter::default(),
            repl_bytes_shipped_total: Counter::default(),
            repl_snapshots_shipped_total: Counter::default(),
            repl_records_applied_total: Counter::default(),
            repl_snapshots_applied_total: Counter::default(),
            repl_connects_total: Counter::default(),
            followers_live: Gauge::default(),
            followers: Mutex::new(Vec::new()),
            next_follower_id: AtomicU64::new(1),
        }
    }

    /// Counts one request of the given verb. A line or frame that never
    /// parsed into a verb is counted only by
    /// [`Metrics::request_errors_total`].
    #[inline]
    pub fn record_request(&self, verb: Verb) {
        self.requests[verb as usize].inc();
    }

    /// The request count of one verb (testing / tooling).
    pub fn requests_for(&self, verb: Verb) -> u64 {
        self.requests[verb as usize].get()
    }

    /// Registers the event-loop shard table: one connection gauge per
    /// shard, exported as `net_shard_connections{shard="i"}`. Called once
    /// at server start; calling again (tests restarting a server on the
    /// same registry) replaces the table.
    pub fn register_net_shards(&self, n: usize) -> Vec<Arc<Gauge>> {
        let gauges: Vec<Arc<Gauge>> = (0..n).map(|_| Arc::new(Gauge::default())).collect();
        *self.net_shards.lock() = gauges.clone();
        gauges
    }

    /// Registers a follower connection and returns its telemetry slot.
    /// The registry lock is held only for the push; drop the slot's
    /// registration with [`Metrics::unregister_follower`] on disconnect.
    pub fn register_follower(&self, epoch: u64) -> Arc<FollowerSlot> {
        let slot = Arc::new(FollowerSlot {
            id: self.next_follower_id.fetch_add(1, Ordering::Relaxed),
            sent_epoch: AtomicU64::new(epoch),
            records: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
        });
        self.followers.lock().push(Arc::clone(&slot));
        self.followers_live.set(self.followers.lock().len() as u64);
        slot
    }

    /// Removes a follower slot registered by
    /// [`Metrics::register_follower`].
    pub fn unregister_follower(&self, id: u64) {
        let mut f = self.followers.lock();
        f.retain(|s| s.id != id);
        self.followers_live.set(f.len() as u64);
    }

    /// Renders the full exposition (without the `# EOF` terminator —
    /// the wire layer and file writers append it). Every value is read
    /// with a relaxed atomic load; see the module docs for the locking
    /// contract.
    pub fn render(&self) -> Vec<String> {
        let mut out = Vec::with_capacity(160);
        let counter = |out: &mut Vec<String>, name: &str, c: &Counter| {
            out.push(format!("# TYPE connectit_{name} counter"));
            out.push(format!("connectit_{name} {}", c.get()));
        };
        let gauge = |out: &mut Vec<String>, name: &str, g: &Gauge| {
            out.push(format!("# TYPE connectit_{name} gauge"));
            out.push(format!("connectit_{name} {}", g.get()));
        };
        let summary = |out: &mut Vec<String>, name: &str, h: &LatencyHist| {
            let [p50, p90, p99, p999] = h.percentiles();
            let count = h.count();
            out.push(format!("# TYPE connectit_{name} summary"));
            out.push(format!("connectit_{name}{{quantile=\"0.5\"}} {p50}"));
            out.push(format!("connectit_{name}{{quantile=\"0.9\"}} {p90}"));
            out.push(format!("connectit_{name}{{quantile=\"0.99\"}} {p99}"));
            out.push(format!("connectit_{name}{{quantile=\"0.999\"}} {p999}"));
            out.push(format!("connectit_{name}_sum {}", h.mean().saturating_mul(count)));
            out.push(format!("connectit_{name}_count {count}"));
        };

        counter(&mut out, "inserts_total", &self.inserts_total);
        counter(&mut out, "deletes_total", &self.deletes_total);
        counter(&mut out, "queries_total", &self.queries_total);
        counter(&mut out, "batches_total", &self.batches_total);
        counter(&mut out, "batch_rejects_total", &self.batch_rejects_total);
        gauge(&mut out, "epoch", &self.epoch);
        gauge(&mut out, "components", &self.components);
        gauge(&mut out, "durable_snapshot_epoch", &self.durable_snapshot_epoch);
        summary(&mut out, "latency_ns", &self.latency_ns);
        summary(&mut out, "queue_wait_ns", &self.queue_wait_ns);
        summary(&mut out, "wal_append_ns", &self.wal_append_ns);
        summary(&mut out, "apply_ns", &self.apply_ns);

        counter(&mut out, "wal_records_total", &self.wal_records_total);
        counter(&mut out, "wal_bytes_total", &self.wal_bytes_total);
        counter(&mut out, "wal_fsyncs_total", &self.wal_fsyncs_total);
        counter(&mut out, "wal_rolls_total", &self.wal_rolls_total);
        counter(&mut out, "wal_prunes_total", &self.wal_prunes_total);
        gauge(&mut out, "wal_segments", &self.wal_segments);
        gauge(&mut out, "wal_last_epoch", &self.wal_last_epoch);
        gauge(&mut out, "wal_torn_bytes", &self.wal_torn_bytes);
        summary(&mut out, "fsync_ns", &self.fsync_ns);

        counter(&mut out, "rebuilds_sealed_total", &self.rebuilds_sealed_total);
        counter(&mut out, "rebuilds_committed_total", &self.rebuilds_committed_total);
        counter(&mut out, "rebuilds_discarded_total", &self.rebuilds_discarded_total);
        counter(&mut out, "deletes_forest_total", &self.deletes_forest_total);
        counter(&mut out, "deletes_nonforest_total", &self.deletes_nonforest_total);
        counter(&mut out, "deletes_absent_total", &self.deletes_absent_total);
        counter(&mut out, "deletes_dirty_total", &self.deletes_dirty_total);
        gauge(&mut out, "generation", &self.generation);
        gauge(&mut out, "gen_dirty", &self.gen_dirty);
        gauge(&mut out, "live_edges", &self.live_edges);
        gauge(&mut out, "edge_table_bytes", &self.edge_table_bytes);
        summary(&mut out, "rebuild_duration_ns", &self.rebuild_duration_ns);
        summary(&mut out, "rebuild_drained_ops", &self.rebuild_drained_ops);
        summary(&mut out, "rebuild_commit_hold_ns", &self.rebuild_commit_hold_ns);

        gauge(&mut out, "subs_active", &self.subs_active);
        counter(&mut out, "sub_events_total", &self.sub_events_total);
        summary(&mut out, "sub_fire_ns", &self.sub_fire_ns);

        counter(&mut out, "connections_total", &self.connections_total);
        gauge(&mut out, "connections_live", &self.connections_live);
        counter(&mut out, "request_errors_total", &self.request_errors_total);
        out.push("# TYPE connectit_frames_total counter".to_string());
        out.push(format!("connectit_frames_total{{dir=\"in\"}} {}", self.frames_in_total.get()));
        out.push(format!("connectit_frames_total{{dir=\"out\"}} {}", self.frames_out_total.get()));
        counter(&mut out, "net_writes_total", &self.net_writes_total);
        summary(&mut out, "net_coalesce_width", &self.net_coalesce_width);
        summary(&mut out, "net_pipeline_depth", &self.net_pipeline_depth);
        gauge(&mut out, "waits_parked", &self.waits_parked);
        let shards: Vec<Arc<Gauge>> = self.net_shards.lock().clone();
        out.push("# TYPE connectit_net_shard_connections gauge".to_string());
        for (i, g) in shards.iter().enumerate() {
            out.push(format!("connectit_net_shard_connections{{shard=\"{i}\"}} {}", g.get()));
        }
        out.push("# TYPE connectit_requests_total counter".to_string());
        for (spec, count) in VERBS.iter().zip(&self.requests) {
            out.push(format!("connectit_requests_total{{verb=\"{}\"}} {}", spec.text, count.get()));
        }

        counter(&mut out, "repl_records_shipped_total", &self.repl_records_shipped_total);
        counter(&mut out, "repl_bytes_shipped_total", &self.repl_bytes_shipped_total);
        counter(&mut out, "repl_snapshots_shipped_total", &self.repl_snapshots_shipped_total);
        counter(&mut out, "repl_records_applied_total", &self.repl_records_applied_total);
        counter(&mut out, "repl_snapshots_applied_total", &self.repl_snapshots_applied_total);
        counter(&mut out, "repl_connects_total", &self.repl_connects_total);
        gauge(&mut out, "followers_live", &self.followers_live);
        let followers: Vec<Arc<FollowerSlot>> = self.followers.lock().clone();
        let epoch = self.epoch.get();
        out.push("# TYPE connectit_follower_epoch_lag gauge".to_string());
        for s in &followers {
            let lag = epoch.saturating_sub(s.sent_epoch.load(Ordering::Relaxed));
            out.push(format!("connectit_follower_epoch_lag{{follower=\"{}\"}} {lag}", s.id));
        }
        out.push("# TYPE connectit_follower_records_total counter".to_string());
        for s in &followers {
            out.push(format!(
                "connectit_follower_records_total{{follower=\"{}\"}} {}",
                s.id,
                s.records.load(Ordering::Relaxed)
            ));
        }
        out.push("# TYPE connectit_follower_bytes_total counter".to_string());
        for s in &followers {
            out.push(format!(
                "connectit_follower_bytes_total{{follower=\"{}\"}} {}",
                s.id,
                s.bytes.load(Ordering::Relaxed)
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_move() {
        let m = Metrics::new();
        m.inserts_total.add(3);
        m.inserts_total.inc();
        assert_eq!(m.inserts_total.get(), 4);
        m.epoch.set(7);
        m.epoch.set_max(5); // monotone: no regression
        assert_eq!(m.epoch.get(), 7);
        m.connections_live.inc();
        m.connections_live.inc();
        m.connections_live.dec();
        assert_eq!(m.connections_live.get(), 1);
    }

    #[test]
    fn render_is_typed_and_parseable() {
        let m = Metrics::new();
        m.record_request(Verb::Q);
        m.record_request(Verb::Q);
        assert_eq!(m.requests_for(Verb::Q), 2);
        m.latency_ns.record(1000);
        let lines = m.render();
        // Every non-comment line is `name[{label}] integer`.
        for line in &lines {
            if line.starts_with('#') {
                assert!(line.starts_with("# TYPE connectit_"), "{line}");
                continue;
            }
            let (name, value) = line.rsplit_once(' ').expect("value separator");
            assert!(name.starts_with("connectit_"), "{line}");
            value.parse::<u64>().unwrap_or_else(|_| panic!("non-integer value in {line:?}"));
        }
        let has = |s: &str| lines.iter().any(|l| l.contains(s));
        assert!(has("connectit_inserts_total 0"));
        assert!(has("connectit_requests_total{verb=\"Q\"} 2"));
        assert!(has("connectit_latency_ns{quantile=\"0.999\"}"));
        assert!(has("connectit_latency_ns_count 1"));
        assert!(has("# TYPE connectit_follower_epoch_lag gauge"));
    }

    #[test]
    fn net_plane_series_render() {
        let m = Metrics::new();
        m.frames_in_total.add(5);
        m.frames_out_total.add(4);
        m.net_writes_total.add(2);
        m.net_coalesce_width.record(3);
        let shards = m.register_net_shards(2);
        shards[1].inc();
        let lines = m.render().join("\n");
        assert!(lines.contains("connectit_frames_total{dir=\"in\"} 5"));
        assert!(lines.contains("connectit_frames_total{dir=\"out\"} 4"));
        assert!(lines.contains("connectit_net_writes_total 2"));
        assert!(lines.contains("connectit_net_coalesce_width_count 1"));
        assert!(lines.contains("connectit_net_shard_connections{shard=\"0\"} 0"));
        assert!(lines.contains("connectit_net_shard_connections{shard=\"1\"} 1"));
    }

    #[test]
    fn follower_slots_register_and_lag_renders() {
        let m = Metrics::new();
        m.epoch.set(10);
        let a = m.register_follower(4);
        let _b = m.register_follower(10);
        assert_eq!(m.followers_live.get(), 2);
        a.records.fetch_add(3, Ordering::Relaxed);
        a.bytes.fetch_add(99, Ordering::Relaxed);
        let lines = m.render().join("\n");
        assert!(lines.contains(&format!("connectit_follower_epoch_lag{{follower=\"{}\"}} 6", a.id)));
        assert!(
            lines.contains(&format!("connectit_follower_records_total{{follower=\"{}\"}} 3", a.id))
        );
        m.unregister_follower(a.id);
        assert_eq!(m.followers_live.get(), 1);
        assert!(!m.render().join("\n").contains(&format!("follower=\"{}\"", a.id)));
    }
}
