//! The deletion-capable **generation engine**: epoch-partitioned
//! connectivity over **one** partition, the liveness tracker's
//! [`SizedUnionFind`]. It decides every merge, and every read — in a
//! batch or beside one — asks it; there is no second structure to tell.
//!
//! A union-find is *monotone* — classes only coarsen, so a deletion can
//! never be applied in place. This module makes deletions first-class
//! anyway by partitioning time into **generations**. A batch runs through
//! the library's one batch loop, [`apply_batch`], with the writer state
//! as its [`BatchHooks`]; this module adds what a service needs around
//! it — publication, waiters, metrics and the asynchronous rebuild:
//!
//! - **Inserts** unite in the live generation's partition.
//! - **Deletes** classify through [`connectit::LivenessTracker`] against
//!   a maintained spanning forest. Deleting an absent or non-forest
//!   (cycle) edge cannot change connectivity and is *free* — no rebuild,
//!   just a counter, mirrored once per batch. Only a *forest* deletion
//!   seals the current generation — O(1): the tracker is stale from here
//!   on and a stale tracker never unites, so the partition it holds *is*
//!   the frozen pre-delete state — and a background worker rebuilds from the
//!   surviving edge set in **one union-find pass**
//!   ([`connectit::LivenessTracker::rebuild`]), which yields the next
//!   partition and forest. The next analytics plane is recounted from
//!   that partition's roots, all outside the writer lock; the commit is
//!   pointer swaps plus the pending drain.
//! - **Merges** are decided once, by the tracker's partition: its
//!   [`MergeOutcome`] is what the analytics plane and the subscription
//!   index fold, on the clean path and in a commit's drain alike.
//! - **Queries** inside a batch are answered under the writer lock in
//!   program order; during a rebuild the *sealed* generation answers
//!   every query — consistent, honestly stale, and reported as such: the
//!   `(epoch, generation)` pair extends the service's WAIT/EPOCH
//!   staleness contract (see `DESIGN.md` §9).
//!
//! Inserts and deletes that land while a rebuild is in flight are not
//! lost: inserts accumulate in the tracker *and* a pending list drained
//! into the new generation at the swap; a delete of a live edge dooms the
//! attempt in flight (its snapshot may span the dead edge). The builder
//! polls for that, stops at its next chunk, strikes the retracted edges
//! from its snapshot and goes again — the snapshot is taken once per
//! dirty window, so a retry costs the writers no O(m) lock hold.
//!
//! Readers never block on a rebuild or a batch: they clone an `Arc`'d
//! `View` of the serving partition under a short pointer lock and query
//! it lock-free ([`SizedUnionFind::same_set`], the paper's Type (i)
//! read).
//!
//! Replaying history is a third state, *behind*
//! ([`GenerationEngine::fall_behind`], entered at recovery and at every
//! follower (re)connect): the tracker freezes as a forest delete would
//! leave it, the view seals, and every batch runs the same loop into the
//! live edge set only — no `pending`, no `retracted`, no counts, the
//! rebuild worker held — until [`GenerationEngine::catch_up`] runs one
//! rebuild pass and installs it under the same generation number
//! (DESIGN.md §7).

use crate::analytics::{Analytics, AnalyticsView};
use crate::obs::{Event, Obs};
use crate::service::{Barrier, ExecMode, ServiceError, Ticket, Waiters};
use crate::subs::{PendingEvent, SubInfo, SubKind, SubsCore};
use cc_unionfind::{MergeOutcome, SizedUnionFind, UfSpec};
use connectit::{
    apply_batch, canon_edge, BatchHooks, DeleteCounts, LivenessTracker, Rebuilt, Update,
};
use parking_lot::{Condvar, Mutex};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Monotone telemetry counters of the generation engine. The
/// `deletes_nonforest` counter is the load-bearing one: the test harness
/// asserts that cycle-edge deletions re-converge with **zero** rebuilds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GenCounters {
    /// Completed (committed) generation rebuilds.
    pub rebuilds: u64,
    /// Deletions of live non-forest (cycle) edges: free, by construction.
    pub deletes_nonforest: u64,
    /// Deletions of absent (or already-dead, or self-loop) edges: no-ops.
    pub deletes_absent: u64,
    /// Deletions of forest edges (or conservatively-forest while dirty):
    /// each seals a generation or re-triggers the in-flight rebuild.
    pub deletes_forest: u64,
}

/// A point-in-time view of the generation state (the `GEN` verb).
#[derive(Clone, Copy, Debug)]
pub struct GenInfo {
    /// The generation queries are currently served from.
    pub generation: u64,
    /// Whether a rebuild is owed or in flight (queries are sealed).
    pub dirty: bool,
    /// Telemetry counters.
    pub counters: GenCounters,
}

/// What the read path sees: the tracker's partition, by the same `Arc`.
/// A live view follows the writer merge by merge; a sealed one is frozen
/// — a stale tracker never unites — until the commit swaps in the next
/// generation's. Swapped whole (an `Arc` behind a pointer lock), so
/// readers never wait on a rebuild.
struct View {
    partition: Arc<SizedUnionFind>,
    generation: u64,
    sealed: bool,
    /// Fixed while sealed; the writer brings a live view's up to date at
    /// the end of every batch. A statistic, publishing nothing: `Relaxed`.
    num_components: AtomicU64,
}

impl View {
    /// The view of `st`'s partition, sealed iff its tracker is stale.
    fn of(st: &WriteState) -> Arc<View> {
        Arc::new(View {
            partition: Arc::clone(st.tracker.partition()),
            generation: st.generation,
            sealed: st.tracker.is_stale(),
            num_components: AtomicU64::new(st.analytics.components()),
        })
    }

    /// The staleness tag of an answer read off this view.
    fn tag(&self) -> Option<u64> {
        self.sealed.then_some(self.generation)
    }
}

/// Writer-side state: the liveness tracker (whose partition is the one
/// connectivity structure; stale means dirty — a rebuild is owed or in
/// flight) and the rebuild bookkeeping. Held by the batch leader and the
/// rebuild worker.
struct WriteState {
    tracker: LivenessTracker,
    /// Edges that went live while a rebuild was in flight; drained into
    /// the fresh generation at the swap (idempotent: the rebuild's edge
    /// snapshot may already contain a prefix of them).
    pending: Edges,
    /// Live edges deleted while dirty that the rebuild worker has not
    /// struck from its snapshot yet. Non-empty means the attempt in
    /// flight computes over a dead edge and must be discarded.
    retracted: Vec<u64>,
    /// Replaying history (see the module docs); implies a stale tracker.
    behind: bool,
    /// Bumped by every fall behind: a rebuild attempt begun under an older
    /// lineage built from a tracker the catch-up has since replaced, so it
    /// is discarded and its snapshot never reused.
    lineage: u64,
    generation: u64,
    counters: GenCounters,
    /// The analytics plane's aggregates over `tracker`'s partition: every
    /// merge folds in here; a commit replaces them (DESIGN.md §12).
    analytics: Analytics,
    /// The subscription plane's trigger index, keyed by the same
    /// partition's roots: folds the same merges, buffers fires for the
    /// batch leader to stamp and dispatch (DESIGN.md §13).
    subs: SubsCore,
}

impl WriteState {
    /// Whether the rebuild worker has work: a dirty window it may build.
    fn rebuild_owed(&self) -> bool {
        self.tracker.is_stale() && !self.behind
    }
}

/// The engine's side of the batch loop ([`apply_batch`]). While behind,
/// what goes live or dies is the catch-up's to read off the live set.
impl BatchHooks for WriteState {
    type Answer = (bool, Option<u64>);

    fn tracker(&mut self) -> &mut LivenessTracker {
        &mut self.tracker
    }

    /// The one place the views derived from the partition learn of a
    /// merge, whether the edge came down the clean path or out of a
    /// commit's pending drain.
    fn merged(&mut self, m: &MergeOutcome) {
        self.analytics.fold(m);
        self.subs.on_merge(self.tracker.partition(), m, self.generation);
    }

    /// The stale tracker unites nothing: the edge waits for the drain.
    fn went_live_while_stale(&mut self, u: u32, v: u32) {
        if !self.behind {
            self.pending.push((u, v));
        }
    }

    /// The attempt in flight may span the dead edge.
    fn died_while_stale(&mut self, u: u32, v: u32) {
        if !self.behind {
            self.retracted.push(canon_edge(u, v));
        }
    }

    /// Clean or sealed, the tracker's partition serves: a stale one's is
    /// the pre-delete state, tagged with the generation it seals.
    fn query(&mut self, u: u32, v: u32) -> (bool, Option<u64>) {
        let tag = self.tracker.is_stale().then_some(self.generation);
        (self.tracker.partition().same_set(u, v), tag)
    }
}

/// An edge list, as the tracker snapshots it and writers queue it.
type Edges = Vec<(u32, u32)>;

/// What the rebuild worker runs every 5 ms, waiting or rebuilding
/// ([`GenerationEngine::set_idle_hook`]).
pub type IdleHook = Box<dyn Fn() + Send + Sync>;

/// How often the rebuild worker runs its [`IdleHook`].
const IDLE_TICK: Duration = Duration::from_millis(5);

/// The rebuild worker's live-edge snapshot, with the lineage it was taken
/// under.
type Snapshot = Option<(u64, Edges)>;

/// A generation built outside the writer lock, ready to be swapped in.
struct NextGeneration {
    rebuilt: Rebuilt,
    analytics: Analytics,
}

struct Shared {
    n: usize,
    /// Test knob: hold every background rebuild open for at least this
    /// long, making the dirty window deterministically observable.
    rebuild_hold: Duration,
    mx: Mutex<WriteState>,
    /// Wakes the rebuild worker on clean→dirty and at shutdown.
    cv: Condvar,
    /// Held while the hook runs, so clearing it waits one out.
    idle: Mutex<Option<IdleHook>>,
    /// The service's one waiter list: the engine fires its
    /// [`Barrier::Clean`] entries, the service its epoch ones.
    waiters: Waiters,
    view: Mutex<Arc<View>>,
    /// The published analytics view (`TOPK`/`HIST`/`SIZE`), swapped
    /// whole like `view` so analytical reads never take `mx`.
    aview: Mutex<Arc<AnalyticsView>>,
    /// `!retracted.is_empty()`, for the builder to poll without `mx`. It
    /// publishes nothing (the list is only read under `mx`): `Relaxed`.
    doomed: AtomicBool,
    /// High-water mark of the epochs handed to
    /// [`GenerationEngine::publish_analytics`]; a publication deferred
    /// by a dirty window is republished at this epoch by the commit.
    published_epoch: AtomicU64,
    shutdown: AtomicBool,
    /// Metrics/trace sink: rebuild lifecycle and delete-classification
    /// counters are mirrored into the registry at the moment they change
    /// (under the writer lock already held), so a `METRICS` scrape never
    /// needs `mx` to report on this engine.
    obs: Option<Arc<Obs>>,
}

impl Shared {
    /// Republishes the (now stale, hence frozen) partition as the sealed
    /// generation — O(1), nothing is copied.
    fn seal_view(&self, st: &WriteState) {
        *self.view.lock() = View::of(st);
        // Freeze the analytics view at the seal-time partition; deltas
        // are suspended until the commit swaps in a recomputed plane.
        self.publish_analytics_locked(st);
        if let Some(o) = &self.obs {
            o.metrics.gen_dirty.set(1);
        }
    }

    /// A forest delete seals the generation; the rebuild worker takes it
    /// from here.
    fn seal(&self, st: &WriteState) {
        self.seal_view(st);
        if let Some(o) = &self.obs {
            o.metrics.rebuilds_sealed_total.inc();
            o.recorder.record(Event::RebuildSealed { generation: st.generation });
        }
        self.cv.notify_all();
    }

    /// Swaps in a fresh [`AnalyticsView`] of the writer aggregates,
    /// stamped with the epoch high-water mark and sealed iff the tracker
    /// is stale, and mirrors the live component count into the metrics
    /// gauge. Caller holds `mx`.
    fn publish_analytics_locked(&self, st: &WriteState) {
        let epoch = self.published_epoch.load(Ordering::Acquire);
        let sealed = st.tracker.is_stale();
        let view = st.analytics.view(st.tracker.partition(), epoch, st.generation, sealed);
        *self.aview.lock() = Arc::new(view);
        if let Some(o) = &self.obs {
            o.metrics.components.set(st.analytics.components());
        }
    }

    /// Mirrors the tracker's live-edge count and table bytes into their
    /// gauges: once per batch (and per commit), never per op.
    fn publish_table_gauges(&self, st: &WriteState) {
        if let Some(o) = &self.obs {
            o.metrics.live_edges.set(st.tracker.num_edges() as u64);
            o.metrics.edge_table_bytes.set(st.tracker.table_bytes() as u64);
        }
    }

    /// Opens a rebuild attempt (caller holds `mx`): the first of a dirty
    /// window takes the live-edge snapshot, a retry returns what was
    /// retracted since, for [`Self::build_generation`] to strike from it.
    fn begin_attempt(&self, st: &mut WriteState, snapshot: &mut Snapshot) -> Vec<u64> {
        self.doomed.store(false, Ordering::Relaxed);
        let retracted = std::mem::take(&mut st.retracted);
        if matches!(snapshot, Some((lineage, _)) if *lineage == st.lineage) {
            return retracted;
        }
        // The live set already lacks whatever was retracted so far.
        *snapshot = Some((st.lineage, st.tracker.edge_list()));
        Vec::new()
    }

    /// Builds the next generation outside every lock: strike `retracted`
    /// from the snapshot, one union-find pass for partition and forest,
    /// then the aggregates recounted from the partition. `poll` runs at
    /// every poll of the pass and before the recount.
    /// `None` once a further retraction (or shutdown) dooms the attempt.
    fn build_generation(
        &self,
        edges: &mut Edges,
        retracted: &[u64],
        poll: impl Fn(),
    ) -> Option<NextGeneration> {
        if !retracted.is_empty() {
            let mut dead = retracted.to_vec();
            dead.sort_unstable();
            edges.retain(|&(u, v)| dead.binary_search(&canon_edge(u, v)).is_err());
        }
        let keep_going = || {
            poll();
            !self.doomed.load(Ordering::Relaxed) && !self.shutdown.load(Ordering::Acquire)
        };
        let rebuilt = LivenessTracker::rebuild(self.n, edges, keep_going)?;
        poll();
        // With nothing live every vertex is a singleton: no root scan (a
        // fresh service's start catches up over an empty log).
        let analytics = if edges.is_empty() {
            Analytics::fresh(self.n)
        } else {
            Analytics::from_partition(rebuilt.partition())
        };
        Some(NextGeneration { rebuilt, analytics })
    }

    /// Swaps a built generation in (caller holds `mx`; `st.generation` is
    /// already the number it will serve under) and drains the inserts
    /// that arrived since its snapshot; returns how many.
    fn install(&self, st: &mut WriteState, next: NextGeneration, commit_epoch: Option<u64>) -> u64 {
        st.tracker.adopt(next.rebuilt);
        st.analytics = next.analytics;
        // The buckets name the replaced partition's roots: the drain's
        // merges are judged by the re-arm below, not event by event.
        st.subs.disarm();
        // Idempotent: the snapshot may already hold a prefix of `pending`.
        let drained = std::mem::take(&mut st.pending);
        for &(u, v) in &drained {
            if let Some(m) = st.tracker.reclassify_live(u, v) {
                st.merged(&m);
            }
        }
        *self.view.lock() = View::of(st);
        // Re-arm against the adopted partition: pairs the history or the
        // drained inserts connected fire, stamped `commit_epoch`, and
        // every component subscription observes the identity change.
        st.subs.on_commit(st.tracker.partition(), st.generation, commit_epoch);
        self.publish_analytics_locked(st);
        self.publish_table_gauges(st);
        drained.len() as u64
    }

    /// Closes a rebuild attempt begun under `lineage` (caller holds `mx`,
    /// and fires [`Self::fire_clean`] once it is released): commits `next`
    /// as the new generation, or, if an edge was retracted or the engine
    /// fell behind since the attempt began, discards it (`false`);
    /// `pending` stays for the next one.
    fn finish_attempt(
        &self,
        st: &mut WriteState,
        next: Option<NextGeneration>,
        lineage: u64,
        build_start: Instant,
    ) -> bool {
        let held = Instant::now();
        let fresh = st.retracted.is_empty() && st.lineage == lineage;
        let Some(next) = next.filter(|_| fresh) else {
            if let Some(o) = &self.obs {
                o.metrics.rebuilds_discarded_total.inc();
            }
            return false;
        };
        st.generation += 1;
        st.counters.rebuilds += 1;
        // The epoch high-water mark the dirty window deferred.
        let commit_epoch = self.published_epoch.load(Ordering::Acquire);
        let drained = self.install(st, next, Some(commit_epoch));
        if let Some(o) = &self.obs {
            o.metrics.rebuilds_committed_total.inc();
            o.metrics.generation.set_max(st.generation);
            o.metrics.gen_dirty.set(0);
            o.metrics.rebuild_duration_ns.record_duration(build_start.elapsed());
            o.metrics.rebuild_drained_ops.record(drained);
            o.metrics.rebuild_commit_hold_ns.record_duration(held.elapsed());
            o.recorder.record(Event::RebuildCommitted { generation: st.generation, drained });
        }
        true
    }

    /// Resolves every `QUIESCE` once the engine came clean at
    /// `generation`. Called with `mx` released, after the commit
    /// republished the view that registration reads.
    fn fire_clean(&self, generation: u64) {
        self.waiters.fire(|b| (b == Barrier::Clean).then_some(Ok(generation)));
    }

    /// Runs the idle hook if [`IDLE_TICK`] has passed since `last`. The
    /// rebuild worker calls it while it waits and at every poll of a
    /// rebuild, so a running rebuild holds the idle duties back by one
    /// poll interval, not to its end.
    fn idle_if_due(&self, last: &Cell<Instant>) {
        if last.get().elapsed() >= IDLE_TICK {
            if let Some(hook) = &*self.idle.lock() {
                hook();
            }
            last.set(Instant::now());
        }
    }
}

/// The background rebuild loop (one dedicated thread per service).
fn run_rebuilder(shared: &Arc<Shared>) {
    // The live-edge snapshot of the dirty window being rebuilt.
    let mut snapshot: Snapshot = None;
    let last_idle = Cell::new(Instant::now());
    loop {
        let retracted;
        {
            let mut st = shared.mx.lock();
            loop {
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                if st.rebuild_owed() {
                    break;
                }
                if shared.cv.wait_for(&mut st, IDLE_TICK).timed_out() {
                    drop(st);
                    shared.idle_if_due(&last_idle);
                    st = shared.mx.lock();
                }
            }
            retracted = shared.begin_attempt(&mut st, &mut snapshot);
        }
        // The test knob, slept in slices: a shutdown must not wait it out.
        let until = Instant::now() + shared.rebuild_hold;
        while let Some(left) = until.checked_duration_since(Instant::now()) {
            if shared.shutdown.load(Ordering::Acquire) {
                return;
            }
            std::thread::sleep(left.min(IDLE_TICK));
            shared.idle_if_due(&last_idle);
        }
        let build_start = Instant::now();
        let (lineage, edges) = snapshot.as_mut().expect("begin_attempt took the snapshot");
        let lineage = *lineage;
        let next = shared.build_generation(edges, &retracted, || shared.idle_if_due(&last_idle));
        let mut st = shared.mx.lock();
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        if shared.finish_attempt(&mut st, next, lineage, build_start) {
            let generation = st.generation;
            drop(st);
            snapshot = None;
            shared.fire_clean(generation);
        }
    }
}

/// The deletion-capable engine (see module docs). One per service;
/// dropping it stops and joins the rebuild worker.
pub struct GenerationEngine {
    shared: Arc<Shared>,
    worker: Option<std::thread::JoinHandle<()>>,
}

impl GenerationEngine {
    /// Builds an empty generation engine (generation 0, clean) and spawns
    /// its rebuild worker; the error string says why it could not.
    /// `shards`, `spec`, `mode` and `seed` are accepted and select nothing
    /// (see [`ExecMode`]). `obs`, when given, receives rebuild lifecycle
    /// events and the delete-classification counters as they happen.
    pub fn new(
        n: usize,
        _shards: usize,
        _spec: &UfSpec,
        _mode: ExecMode,
        _seed: u64,
        rebuild_hold: Duration,
        obs: Option<Arc<Obs>>,
    ) -> Result<GenerationEngine, String> {
        if n == 0 {
            return Err("engine needs at least one vertex".into());
        }
        let st = WriteState {
            tracker: LivenessTracker::new(n),
            pending: Vec::new(),
            retracted: Vec::new(),
            behind: false,
            lineage: 0,
            generation: 0,
            counters: GenCounters::default(),
            analytics: Analytics::fresh(n),
            subs: SubsCore::new(),
        };
        let aview = Arc::new(st.analytics.view(st.tracker.partition(), 0, 0, false));
        let shared = Arc::new(Shared {
            n,
            rebuild_hold,
            view: Mutex::new(View::of(&st)),
            aview: Mutex::new(aview),
            mx: Mutex::new(st),
            cv: Condvar::new(),
            idle: Mutex::new(None),
            waiters: Waiters::default(),
            doomed: AtomicBool::new(false),
            published_epoch: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            obs,
        });
        let w_shared = Arc::clone(&shared);
        let worker = std::thread::Builder::new()
            .name("cc-gen-rebuild".into())
            .spawn(move || run_rebuilder(&w_shared))
            .map_err(|e| format!("failed to spawn rebuild worker: {e}"))?;
        Ok(GenerationEngine { shared, worker: Some(worker) })
    }

    fn view(&self) -> Arc<View> {
        Arc::clone(&self.shared.view.lock())
    }

    /// Installs (or, with `None`, removes) the hook the rebuild worker
    /// runs every 5 ms: while it waits with nothing to rebuild, and at
    /// the polls of a rebuild in flight (every 2^16 edges it unions or
    /// tables, and before the aggregate recount).
    /// Removal waits out a run in progress.
    pub fn set_idle_hook(&self, hook: Option<IdleHook>) {
        *self.shared.idle.lock() = hook;
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.shared.n
    }

    /// Applies a mixed insert/delete/query batch in program order;
    /// returns query answers in order of appearance. While dirty,
    /// inserts accumulate for the next generation and queries answer
    /// from the sealed one. While behind, the batch is replayed into the
    /// live edge set only (a logged batch holds no queries).
    pub fn process_batch(&self, batch: &[Update]) -> Vec<bool> {
        self.process_batch_tagged(batch).into_iter().map(|(a, _)| a).collect()
    }

    /// [`Self::process_batch`], additionally tagging each answer with the
    /// sealed generation it was served from (`Some(gen)` iff the engine
    /// was dirty at the moment that query was answered, `None` for exact
    /// answers). The tag is decided under the same lock that
    /// answered the query, so it can never disagree with the answer's
    /// source the way a separate dirty-flag read could.
    pub fn process_batch_tagged(&self, batch: &[Update]) -> Vec<(bool, Option<u64>)> {
        let st = &mut *self.shared.mx.lock();
        let was_stale = st.tracker.is_stale();
        let mut d = DeleteCounts::default();
        let answers = apply_batch(st, batch, &mut d);
        // The view seals as the batch ends: the partition it serves is
        // the tracker's either way, frozen since the forest delete.
        if !was_stale && st.tracker.is_stale() {
            self.shared.seal(st);
        }
        if !st.retracted.is_empty() {
            // The attempt in flight may span a dead edge.
            self.shared.doomed.store(true, Ordering::Relaxed);
        }
        // A batch without deletes leaves the shared counters' cache lines
        // alone.
        if !st.behind && d != DeleteCounts::default() {
            let c = &mut st.counters;
            c.deletes_forest += d.forest;
            c.deletes_nonforest += d.nonforest;
            c.deletes_absent += d.absent;
            if let Some(o) = &self.shared.obs {
                o.metrics.deletes_forest_total.add(d.forest);
                o.metrics.deletes_nonforest_total.add(d.nonforest);
                o.metrics.deletes_absent_total.add(d.absent);
                o.metrics.deletes_dirty_total.add(d.dirty);
            }
        }
        if !st.tracker.is_stale() {
            // A sealed view's count is fixed; a live one's follows here.
            let components = st.analytics.components();
            self.shared.view.lock().num_components.store(components, Ordering::Relaxed);
            if let Some(o) = &self.shared.obs {
                o.metrics.components.set(components);
            }
        }
        self.shared.publish_table_gauges(st);
        answers
    }

    /// Replaces the live edge set wholesale with a checkpoint's `edges`
    /// (self-loops dropped — they are never live). Only while behind
    /// ([`Self::fall_behind`]): the frozen tracker unites nothing, so the
    /// next [`Self::catch_up`] builds the partition from exactly this set
    /// plus whatever replays after it.
    pub fn replace_edges(&self, edges: &[(u32, u32)]) {
        let st = &mut *self.shared.mx.lock();
        assert!(st.behind, "a checkpoint lands only on a frozen tracker");
        st.tracker.replace_edges(edges);
        self.shared.publish_table_gauges(st);
    }

    /// Connectivity query against the serving view (the live partition,
    /// or the sealed one while a rebuild is in flight). Never blocks on a
    /// rebuild or a batch.
    pub fn connected(&self, u: u32, v: u32) -> bool {
        self.view().partition.same_set(u, v)
    }

    /// [`Self::connected`] over many pairs against **one** view acquire,
    /// each answer tagged with the sealed generation it came from
    /// (`Some(gen)` iff a rebuild was in flight). Every answer and its tag
    /// come from the same serving view, so a seal or commit between two
    /// reads cannot mislabel one — and cross-connection read coalescing
    /// in the network shards is both cheap and consistent.
    pub fn connected_many_with_gen(&self, pairs: &[(u32, u32)]) -> Vec<(bool, Option<u64>)> {
        let view = self.view();
        let tag = view.tag();
        pairs.iter().map(|&(u, v)| (view.partition.same_set(u, v), tag)).collect()
    }

    /// Component label of `v` in the serving view: its class's root.
    pub fn current_label(&self, v: u32) -> u32 {
        self.view().partition.find(v)
    }

    /// Number of components in the serving view (as of the last completed
    /// batch for a live one).
    pub fn num_components(&self) -> usize {
        self.view().num_components.load(Ordering::Relaxed) as usize
    }

    /// Read-only labeling of the serving view.
    pub fn labels_readonly(&self) -> Vec<u32> {
        self.view().partition.labels()
    }

    /// The serving generation and telemetry counters (the `GEN` verb).
    pub fn info(&self) -> GenInfo {
        let st = self.shared.mx.lock();
        GenInfo { generation: st.generation, dirty: st.tracker.is_stale(), counters: st.counters }
    }

    /// The serving generation number, read off the view — never contends
    /// with the writer lock.
    pub fn generation(&self) -> u64 {
        self.view().generation
    }

    /// Blocks until the engine is clean (no rebuild owed or in flight);
    /// returns the generation reached, or `Err` with the generation still
    /// serving when the timeout lapses.
    pub fn quiesce(&self, timeout: Duration) -> Result<u64, u64> {
        let ticket = Ticket::new(None);
        self.when_clean(&ticket);
        match ticket.wait(Instant::now().checked_add(timeout), || {}) {
            Some(Ok(generation)) => Ok(generation),
            _ => Err(self.generation()),
        }
    }

    /// Parks `ticket` until the engine is clean, or resolves it to the
    /// clean generation at once. Reads the view, which every seal and
    /// commit republishes before it fires, so a shard never waits on `mx`.
    pub(crate) fn when_clean(&self, ticket: &Arc<Ticket<u64>>) {
        self.shared.waiters.register(Barrier::Clean, ticket, || {
            let view = self.view();
            (!view.sealed).then_some(Ok(view.generation))
        });
    }

    /// The one waiter list (see [`Waiters`]).
    pub(crate) fn waiters(&self) -> &Waiters {
        &self.shared.waiters
    }

    /// The live edge set, for durable snapshots. Exact in every state:
    /// inserts and deletes reach the tracker's edge set while sealed too
    /// — only the partition freezes.
    pub fn edge_list(&self) -> Vec<(u32, u32)> {
        self.shared.mx.lock().tracker.edge_list()
    }

    /// Enters the *behind* state (recovery start, every follower
    /// (re)connect): the tracker freezes — the stale state a forest delete
    /// leaves — and the view seals in O(1). Until [`Self::catch_up`] every
    /// batch feeds the live edge set only: no `pending`, no `retracted`,
    /// no classification counters (they are live-traffic telemetry), and
    /// the rebuild worker is held. An attempt in flight is discarded.
    /// Idempotent.
    pub fn fall_behind(&self) {
        let st = &mut *self.shared.mx.lock();
        if st.behind {
            return;
        }
        st.behind = true;
        st.lineage += 1;
        // Both lists name edges the tracker's live set already decides.
        st.pending.clear();
        st.retracted.clear();
        self.shared.doomed.store(true, Ordering::Relaxed);
        if !st.tracker.is_stale() {
            st.tracker.freeze();
            self.shared.seal_view(st);
        }
    }

    /// Whether the engine is replaying history (see [`Self::fall_behind`]).
    pub fn is_behind(&self) -> bool {
        self.shared.mx.lock().behind
    }

    /// Leaves the *behind* state: one rebuild pass over the live edge set
    /// (the pass a forest deletion runs — once, however many deletions
    /// the replay held), installed under the current generation number
    /// and not counted as a rebuild. Recovered durable subscriptions arm
    /// against it: a pair the history connected fires at the next drain
    /// (a possible duplicate of a pre-crash delivery, which the sequence
    /// numbers let clients absorb), and component subscriptions observe
    /// the identity reset. The caller applies nothing concurrently; a
    /// no-op when not behind.
    pub fn catch_up(&self) {
        let mut edges = {
            let st = self.shared.mx.lock();
            if !st.behind {
                return;
            }
            st.tracker.edge_list()
        };
        // Only live deletes doom, and none run while behind.
        self.shared.doomed.store(false, Ordering::Relaxed);
        let Some(next) = self.shared.build_generation(&mut edges, &[], || {}) else {
            return; // shutting down
        };
        let generation = {
            let st = &mut *self.shared.mx.lock();
            st.behind = false;
            self.shared.install(st, next, None);
            if let Some(o) = &self.shared.obs {
                o.metrics.gen_dirty.set(0);
            }
            st.generation
        };
        self.shared.fire_clean(generation);
    }

    /// Publishes the analytics view at batch epoch `epoch` (a
    /// high-water mark — concurrent callers cannot regress it). While a
    /// rebuild is in flight this is a no-op beyond recording the epoch:
    /// the view stays frozen (sealed) at the seal-time partition and the
    /// commit republishes the resynced aggregates at the recorded mark.
    pub fn publish_analytics(&self, epoch: u64) {
        self.shared.published_epoch.fetch_max(epoch, Ordering::AcqRel);
        let st = self.shared.mx.lock();
        if st.tracker.is_stale() {
            return;
        }
        self.shared.publish_analytics_locked(&st);
    }

    /// The current analytics view — one `Arc` clone, never contends
    /// with the writer lock (`TOPK`/`HIST`/`SIZE` read path).
    pub fn analytics_view(&self) -> Arc<AnalyticsView> {
        Arc::clone(&self.shared.aview.lock())
    }

    /// The delta-maintained live component count.
    pub fn components_live(&self) -> u64 {
        self.shared.mx.lock().analytics.components()
    }

    /// Registers a subscription under a caller-assigned id (the service
    /// reserves ids through its dispatch so a registration-time fire can
    /// never outrun its delivery channel). An already-connected pair
    /// fires immediately, stamped at the next drain.
    pub fn subs_register(
        &self,
        id: u64,
        kind: SubKind,
        u: u32,
        v: u32,
        durable: bool,
        registered_epoch: u64,
    ) {
        let st = &mut *self.shared.mx.lock();
        let (part, gen) = (st.tracker.partition(), st.generation);
        st.subs.register(part, id, kind, u, v, durable, registered_epoch, gen);
    }

    /// Recovery replay of a WAL `'S'` register record: the entry is
    /// stored but its trigger stays unarmed until [`Self::catch_up`]
    /// evaluates it against the materialized partition (so replay order
    /// versus batch records cannot matter).
    pub fn subs_register_recovered(
        &self,
        id: u64,
        kind: SubKind,
        u: u32,
        v: u32,
        registered_epoch: u64,
    ) {
        self.shared.mx.lock().subs.register_unarmed(id, kind, u, v, registered_epoch);
    }

    /// Cancels a subscription. Returns its durability, or `None` for an
    /// unknown id.
    pub fn subs_cancel(&self, id: u64) -> Option<bool> {
        let st = &mut *self.shared.mx.lock();
        st.subs.cancel(st.tracker.partition(), id)
    }

    /// Number of registered subscriptions.
    pub fn subs_len(&self) -> usize {
        self.shared.mx.lock().subs.len()
    }

    /// Lists every registered subscription, id-ascending (the `SUBS`
    /// verb).
    pub fn subs_list(&self) -> Vec<SubInfo> {
        self.shared.mx.lock().subs.list()
    }

    /// Drains buffered subscription fires, stamping unstamped ones with
    /// `epoch` (see [`crate::subs::SubsCore::drain_fires`]). Called by
    /// a batch's leader right after it publishes that epoch, and by the
    /// follower apply path at its replicated epoch.
    pub fn drain_sub_fires(&self, epoch: u64) -> Vec<PendingEvent> {
        let mut st = self.shared.mx.lock();
        st.subs.drain_fires(epoch)
    }

    /// Drains buffered subscription fires only when all of them are
    /// pre-stamped (see [`crate::subs::SubsCore::drain_stamped_fires`]);
    /// the registration-time prompt delivery path uses this so it can
    /// never mis-stamp an applied-but-unpublished batch's merge fires.
    pub fn drain_sub_fires_stamped(&self) -> Vec<PendingEvent> {
        self.shared.mx.lock().subs.drain_stamped_fires()
    }

    /// Whether any buffered subscription fire awaits a drain.
    pub fn has_sub_fires(&self) -> bool {
        self.shared.mx.lock().subs.has_fires()
    }
}

impl Drop for GenerationEngine {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        {
            let _g = self.shared.mx.lock();
            self.shared.cv.notify_all();
        }
        if let Some(h) = self.worker.take() {
            let _ = h.join();
        }
        self.shared.waiters.fire(|_| Some(Err(ServiceError::Closed)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_baselines::DynamicOracle;

    fn gen_engine(n: usize, hold: Duration) -> GenerationEngine {
        GenerationEngine::new(n, 2, &UfSpec::fastest(), ExecMode::Auto, 7, hold, None)
            .expect("engine builds")
    }

    fn quiesced(g: &GenerationEngine) -> u64 {
        g.quiesce(Duration::from_secs(30)).expect("quiesce")
    }

    #[test]
    fn a_rebuild_polls_at_every_chunk_and_before_the_recount() {
        let g = gen_engine(1 << 10, Duration::ZERO);
        // Two whole 2^16-edge chunks and one edge more, spanned by a forest
        // of fewer than 2^16 edges.
        let mut edges: Edges = (0..(2 << 16) + 1).map(|i| (i % 1024, i / 1024)).collect();
        let polls = Cell::new(0);
        g.shared.build_generation(&mut edges, &[], || polls.set(polls.get() + 1)).expect("built");
        assert_eq!(
            polls.get(),
            3 + 1 + 1,
            "each chunk of the pass and the forest, then the recount"
        );
    }

    /// An engine whose worker was retired, and the worker's loop body taken
    /// one step at a time, so a test decides what lands between any two.
    struct Stepped {
        g: GenerationEngine,
        obs: Arc<Obs>,
        snapshot: Snapshot,
    }

    /// Where [`Stepped::advance`] is within a rebuild attempt.
    enum Phase {
        Idle,
        Begun(Vec<u64>),
        Built(Option<Box<NextGeneration>>),
    }

    impl Stepped {
        fn new(n: usize) -> Stepped {
            let obs = Obs::new();
            let mut g = GenerationEngine::new(
                n,
                2,
                &UfSpec::fastest(),
                ExecMode::Auto,
                7,
                Duration::ZERO,
                Some(Arc::clone(&obs)),
            )
            .expect("engine builds");
            // Retire the worker as `Drop` would, then lower the flag
            // again: from here on a dirty engine stays dirty until the
            // test runs the worker's steps itself.
            g.shared.shutdown.store(true, Ordering::Release);
            {
                let _st = g.shared.mx.lock();
                g.shared.cv.notify_all();
            }
            g.worker.take().expect("spawned").join().expect("worker exits cleanly");
            g.shared.shutdown.store(false, Ordering::Release);
            Stepped { g, obs, snapshot: None }
        }

        fn begin(&mut self) -> Vec<u64> {
            let shared = &self.g.shared;
            shared.begin_attempt(&mut shared.mx.lock(), &mut self.snapshot)
        }

        fn build(&mut self, retracted: &[u64]) -> Option<NextGeneration> {
            let (_, edges) = self.snapshot.as_mut().expect("begin() came first");
            self.g.shared.build_generation(edges, retracted, || {})
        }

        fn finish(&mut self, next: Option<NextGeneration>) -> bool {
            let shared = &self.g.shared;
            let (lineage, _) = self.snapshot.as_ref().expect("begin() came first");
            let committed =
                shared.finish_attempt(&mut shared.mx.lock(), next, *lineage, Instant::now());
            if committed {
                self.snapshot = None;
            }
            committed
        }

        /// One step of the worker's loop; `true` when it was a commit.
        fn advance(&mut self, phase: Phase) -> (Phase, bool) {
            match phase {
                Phase::Idle if self.g.shared.mx.lock().rebuild_owed() => {
                    (Phase::Begun(self.begin()), false)
                }
                Phase::Idle => (Phase::Idle, false),
                Phase::Begun(retracted) => {
                    (Phase::Built(self.build(&retracted).map(Box::new)), false)
                }
                Phase::Built(next) => (Phase::Idle, self.finish(next.map(|b| *b))),
            }
        }

        fn discarded(&self) -> u64 {
            self.obs.metrics.rebuilds_discarded_total.get()
        }

        /// What must hold the instant a commit returns: the tracker's
        /// forest spans exactly the live graph, its partition — which is
        /// the serving view's — is that graph's, the swapped-in aggregates
        /// (recounted off-lock, then patched with the drained merges)
        /// equal a recount from that same partition, and the trigger
        /// index is keyed by its roots.
        fn check_commit_invariants(&self, oracle: &DynamicOracle) {
            let st = self.g.shared.mx.lock();
            assert!(!st.tracker.is_stale() && st.pending.is_empty() && st.retracted.is_empty());
            let mut live = st.tracker.edge_list();
            live.sort_unstable();
            let mut want = oracle.edge_list();
            want.sort_unstable();
            assert_eq!(live, want, "live edge set");
            let graph = cc_graph::build_undirected(self.g.num_vertices(), &live);
            assert!(
                connectit::is_valid_spanning_forest(&graph, &st.tracker.forest_list()),
                "tracker forest does not span the live graph"
            );
            let want = oracle.labels();
            let part = st.tracker.partition();
            assert!(cc_graph::stats::same_partition(&want, &part.labels()), "tracker partition");
            // Reads take the view, never `mx`: they are safe under it.
            assert!(Arc::ptr_eq(part, &self.g.view().partition), "one partition");
            assert!(cc_graph::stats::same_partition(&want, &self.g.labels_readonly()), "view");
            let n = self.g.num_vertices() as u32;
            let pairs: Vec<(u32, u32)> = (0..n).flat_map(|u| (0..n).map(move |v| (u, v))).collect();
            let want: Vec<_> = pairs.iter().map(|&(u, v)| (oracle.connected(u, v), None)).collect();
            assert_eq!(self.g.connected_many_with_gen(&pairs), want, "reads off the view");
            let components = cc_graph::stats::count_distinct_labels(&oracle.labels());
            assert_eq!(self.g.num_components(), components, "stored count");
            let got = st.analytics.view(part, 0, 0, false);
            let want = Analytics::from_partition(part).view(part, 0, 0, false);
            assert_eq!(got.components, want.components);
            assert_eq!(got.hist, want.hist);
            assert_eq!(got.topk, want.topk, "same roots, same sizes");
            let published = self.g.analytics_view();
            for v in 0..self.g.num_vertices() as u32 {
                assert_eq!(published.component_of(v), part.component_of(v), "SIZE {v}");
            }
            st.subs.assert_armed(part);
        }
    }

    #[test]
    fn a_doomed_attempt_changes_nothing_and_the_next_one_commits() {
        let mut s = Stepped::new(16);
        s.g.process_batch(&[Update::Insert(0, 1), Update::Insert(1, 2), Update::Insert(3, 4)]);
        s.g.process_batch(&[Update::Delete(0, 1)]);
        let untouched = |s: &Stepped| {
            assert_eq!(s.g.generation(), 0);
            assert!(s.g.info().dirty);
            assert_eq!(s.g.connected_many_with_gen(&[(0, 1)])[0], (true, Some(0)), "sealed view");
            assert_eq!(s.g.connected_many_with_gen(&[(3, 4)])[0], (true, Some(0)), "sealed view");
            assert_eq!(s.g.connected_many_with_gen(&[(5, 6)])[0], (false, Some(0)), "sealed view");
            assert_eq!(s.g.shared.mx.lock().pending, vec![(5, 6)]);
            assert_eq!(s.g.info().counters.rebuilds, 0);
        };

        // Retracted after the snapshot, before the build: the builder
        // sees the flag at its first poll and builds nothing.
        let retracted = s.begin();
        assert!(retracted.is_empty());
        s.g.process_batch(&[Update::Insert(5, 6)]);
        s.g.process_batch(&[Update::Delete(3, 4)]);
        assert!(s.build(&retracted).is_none(), "doomed before its first chunk");
        assert!(!s.finish(None));
        assert_eq!(s.discarded(), 1);
        untouched(&s);

        // Retracted between build and commit: a whole generation is
        // built, and thrown away under the lock.
        let retracted = s.begin();
        assert_eq!(retracted, vec![canon_edge(3, 4)], "the retry is told what died");
        let next = s.build(&retracted);
        assert!(next.is_some());
        s.g.process_batch(&[Update::Delete(1, 2)]);
        assert!(!s.finish(next));
        assert_eq!(s.discarded(), 2);
        untouched(&s);

        // Left alone, the third attempt commits — from the first
        // attempt's snapshot minus everything retracted since.
        let retracted = s.begin();
        assert_eq!(retracted, vec![canon_edge(1, 2)]);
        let next = s.build(&retracted);
        assert!(s.finish(next));
        assert_eq!((s.g.generation(), s.g.info().dirty), (1, false));
        assert_eq!(s.g.info().counters.rebuilds, 1);
        assert!(s.g.shared.mx.lock().pending.is_empty());
        assert!(s.g.connected(5, 6), "the pending insert was drained");
        for (u, v) in [(0, 1), (1, 2), (3, 4)] {
            assert_eq!(
                s.g.connected_many_with_gen(&[(u, v)])[0],
                (false, None),
                "{u}-{v} was deleted"
            );
        }
        assert_eq!(s.discarded(), 2);
        assert_eq!(s.obs.metrics.rebuild_commit_hold_ns.count(), 1);
    }

    /// A second live delete in an open window is a forest delete the
    /// stale forest could not classify: counted as forest, and as dirty.
    #[test]
    fn a_second_live_delete_in_the_window_counts_as_dirty() {
        let s = Stepped::new(8);
        s.g.process_batch(&[Update::Insert(0, 1), Update::Insert(1, 2), Update::Insert(3, 4)]);
        s.g.process_batch(&[Update::Delete(0, 1), Update::Delete(5, 6)]);
        s.g.process_batch(&[Update::Delete(3, 4)]);
        let m = &s.obs.metrics;
        let got = [&m.deletes_forest_total, &m.deletes_dirty_total, &m.deletes_absent_total];
        assert_eq!(got.map(|c| c.get()), [2, 1, 1]);
        assert_eq!(m.deletes_nonforest_total.get(), 0);
        assert_eq!(s.g.info().counters.deletes_forest, 2);
    }

    /// One batch that seals midway: the loop answers the queries before
    /// the seal exactly and stops at every one after it, which the sealed
    /// generation answers; the window's insert and live delete are queued.
    #[test]
    fn a_batch_that_seals_midway_tags_only_the_answers_after_the_seal() {
        let s = Stepped::new(8);
        s.g.process_batch(&[Update::Insert(0, 1), Update::Insert(1, 2)]);
        let got = s.g.process_batch_tagged(&[
            Update::Query(0, 2),
            Update::Delete(1, 2),
            Update::Query(0, 2),
            Update::Insert(5, 6),
            Update::Query(5, 6),
            Update::Delete(0, 1),
            Update::Query(0, 1),
        ]);
        assert_eq!(got, vec![(true, None), (true, Some(0)), (false, Some(0)), (true, Some(0))]);
        let st = s.g.shared.mx.lock();
        assert_eq!(
            (st.pending.as_slice(), st.retracted.as_slice()),
            (&[(5, 6)][..], &[canon_edge(0, 1)][..])
        );
    }

    /// A replay is the same loop on a frozen tracker: it queues nothing
    /// for the rebuild worker and counts nothing, in the counters or the
    /// metrics.
    #[test]
    fn a_replay_queues_and_counts_nothing() {
        let s = Stepped::new(8);
        s.g.process_batch(&[Update::Insert(0, 1), Update::Insert(1, 2)]);
        s.g.fall_behind();
        let replay = [
            Update::Delete(0, 1),
            Update::Insert(3, 4),
            Update::Delete(6, 7),
            Update::Delete(1, 2),
        ];
        s.g.process_batch(&replay);
        {
            let st = s.g.shared.mx.lock();
            assert!(st.pending.is_empty() && st.retracted.is_empty());
            assert_eq!(st.counters, GenCounters::default());
        }
        let m = &s.obs.metrics;
        let classes = [
            &m.deletes_forest_total,
            &m.deletes_nonforest_total,
            &m.deletes_absent_total,
            &m.deletes_dirty_total,
        ];
        assert_eq!(classes.map(|c| c.get()), [0; 4]);
        s.g.catch_up();
        assert!(s.g.connected(3, 4) && !s.g.connected(0, 1) && !s.g.connected(1, 2));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Random insert/delete schedules with the rebuild advanced a
        /// random number of steps between operations, so deletes land
        /// before the snapshot, between snapshot and build (an early
        /// abort) and between build and commit (a discard under the
        /// lock); every commit is checked on the spot, and the quiesced
        /// end state against the oracle.
        ///
        /// A `kind` of 8 or 9 falls the engine behind (a follower
        /// reconnect) — wherever the attempt in flight stands, which must
        /// then be discarded — and the next 8 or 9 catches it up, checked
        /// like a commit.
        #[test]
        fn rebuild_seams_hold_under_random_interleavings(
            n in 4usize..20,
            script in proptest::collection::vec((0u8..10, 0u32..20, 0u32..20, 0u8..4), 1..120),
        ) {
            let mut s = Stepped::new(n);
            // Standing triggers, so every commit has an index to re-arm.
            for v in 0..n as u32 {
                s.g.subs_register(u64::from(v) + 1, SubKind::Component, v, v, false, 0);
                s.g.subs_register(u64::from(v) + 100, SubKind::Pair, v, (v * 7 + 3) % n as u32, false, 0);
            }
            let mut oracle = DynamicOracle::new(n);
            let mut phase = Phase::Idle;
            let mut commits = 0u64;
            let mut last = (0u32, 1u32);
            for (kind, u, v, steps) in script {
                let (u, v) = (u % n as u32, v % n as u32);
                let op = match kind {
                    0..=3 => {
                        last = (u, v);
                        Update::Insert(u, v)
                    }
                    4 | 5 => Update::Delete(u, v),
                    // Deleting what was just inserted hits a live
                    // (usually forest) edge far more often than chance.
                    6 | 7 => Update::Delete(last.0, last.1),
                    _ if s.g.is_behind() => {
                        s.g.catch_up();
                        s.check_commit_invariants(&oracle);
                        continue;
                    }
                    _ => {
                        s.g.fall_behind();
                        proptest::prop_assert!(s.g.info().dirty);
                        continue;
                    }
                };
                s.g.process_batch(&[op]);
                oracle.apply(op);
                for _ in 0..steps {
                    let (next, committed) = s.advance(phase);
                    phase = next;
                    if committed {
                        commits += 1;
                        s.check_commit_invariants(&oracle);
                    }
                }
            }
            // Quiesce by hand: with no further retractions, the attempt
            // in flight is the last one that can be doomed.
            s.g.catch_up();
            for _ in 0..6 {
                let (next, committed) = s.advance(phase);
                phase = next;
                if committed {
                    commits += 1;
                    s.check_commit_invariants(&oracle);
                }
            }
            proptest::prop_assert!(!s.g.info().dirty);
            proptest::prop_assert_eq!(s.g.info().counters.rebuilds, commits);
            proptest::prop_assert_eq!(s.g.generation(), commits);
            for u in 0..n as u32 {
                for v in 0..n as u32 {
                    proptest::prop_assert_eq!(
                        s.g.connected_many_with_gen(&[(u, v)])[0],
                        (oracle.connected(u, v), None)
                    );
                }
            }
        }
    }

    #[test]
    fn nonforest_deletes_are_free_and_forest_deletes_seal() {
        let g = gen_engine(8, Duration::ZERO);
        g.process_batch(&[
            Update::Insert(0, 1),
            Update::Insert(1, 2),
            Update::Insert(2, 0), // closes the triangle: a cycle edge
        ]);
        assert_eq!(g.generation(), 0);
        // Deleting any one triangle edge cannot split: once the tracker
        // has it as non-forest, the delete is free.
        let a = g.process_batch(&[Update::Delete(2, 0), Update::Query(0, 2)]);
        assert_eq!(a, vec![true]);
        let info = g.info();
        assert_eq!(info.counters.rebuilds, 0, "cycle-edge delete must be free");
        assert_eq!(info.counters.deletes_nonforest, 1);
        assert!(!info.dirty);
        // Deleting a forest edge seals and rebuilds.
        let a = g.process_batch(&[Update::Delete(0, 1), Update::Query(0, 2)]);
        // The query may see sealed (pre-delete: connected) or the rebuilt
        // generation (split) depending on rebuild timing — both are valid
        // under the staleness contract; after quiescing it is exact.
        assert_eq!(a.len(), 1);
        assert!(quiesced(&g) >= 1);
        assert!(!g.connected(0, 2));
        assert!(g.connected(1, 2));
        let info = g.info();
        assert_eq!(info.counters.deletes_forest, 1);
        assert!(info.counters.rebuilds >= 1);
    }

    #[test]
    fn sealed_generation_serves_stale_but_consistent_answers() {
        let g = gen_engine(8, Duration::from_millis(200));
        g.process_batch(&[Update::Insert(0, 1), Update::Insert(1, 2)]);
        g.process_batch(&[Update::Delete(1, 2)]);
        // The hold keeps the rebuild in flight: the sealed generation
        // still answers the pre-delete state, and says so.
        assert!(g.info().dirty);
        assert_eq!(g.generation(), 0);
        assert!(g.connected(0, 2), "the sealed partition is the pre-delete state");
        let a = g.process_batch(&[Update::Query(0, 2)]);
        assert_eq!(a, vec![true]);
        assert!(quiesced(&g) >= 1);
        assert!(!g.connected(0, 2), "the rebuilt generation sees the cut");
    }

    #[test]
    fn inserts_during_rebuild_land_in_the_next_generation() {
        let g = gen_engine(16, Duration::from_millis(100));
        g.process_batch(&[Update::Insert(0, 1), Update::Insert(2, 3)]);
        g.process_batch(&[Update::Delete(0, 1)]);
        assert!(g.info().dirty);
        // These arrive mid-rebuild: they must survive the swap.
        g.process_batch(&[Update::Insert(0, 2), Update::Insert(1, 3)]);
        quiesced(&g);
        assert!(g.connected(0, 3), "pending inserts drained into the new generation");
        // 0-2-3-1 spans all four: 0 and 1 reconnect through the pending
        // inserts even though their direct edge died.
        assert!(g.connected(0, 1));
    }

    #[test]
    fn deletes_during_rebuild_retrigger() {
        let g = gen_engine(16, Duration::from_millis(80));
        g.process_batch(&[Update::Insert(0, 1), Update::Insert(1, 2), Update::Insert(3, 4)]);
        g.process_batch(&[Update::Delete(0, 1)]);
        assert!(g.info().dirty);
        // A second live-edge delete while the first rebuild is in flight:
        // its snapshot is now invalid and must be discarded.
        g.process_batch(&[Update::Delete(3, 4)]);
        quiesced(&g);
        assert!(!g.connected(3, 4), "the retriggered rebuild saw the second delete");
        assert!(!g.connected(0, 1));
        assert!(g.connected(1, 2));
        assert!(g.info().counters.deletes_forest >= 2);
    }

    #[test]
    fn agrees_with_the_dynamic_oracle_under_quiesced_churn() {
        let n = 64usize;
        let g = gen_engine(n, Duration::ZERO);
        let mut oracle = DynamicOracle::new(n);
        // Deterministic churn: apply I/D traffic, quiesce, then validate
        // a query round exactly (the harness pattern the server tests and
        // the loadgen's --churn mode both use).
        for round in 0..12u32 {
            let mut muts: Vec<Update> = Vec::new();
            for i in 0..40u32 {
                let x = round * 191 + i * 37;
                let (u, v) = (x % n as u32, (x * 13 + 1) % n as u32);
                muts.push(if x % 4 == 3 { Update::Delete(u, v) } else { Update::Insert(u, v) });
            }
            g.process_batch(&muts);
            for &op in &muts {
                oracle.apply(op);
            }
            quiesced(&g);
            let queries: Vec<Update> =
                (0..n as u32).map(|u| Update::Query(u, (u * 7 + 3) % n as u32)).collect();
            let got = g.process_batch(&queries);
            let want = oracle.apply_batch(&queries);
            assert_eq!(got, want, "round {round}");
        }
        assert!(cc_graph::stats::same_partition(&oracle.labels(), &g.labels_readonly()));
    }

    /// `shards`, `spec`, `mode` and `seed` are kept for source
    /// compatibility and select nothing: whatever they say, the one
    /// partition answers, in program order.
    #[test]
    fn matches_oracle_across_shard_counts_and_modes() {
        use cc_unionfind::{FindKind, SpliceKind, UniteKind};
        let n = 40usize;
        let specs = [
            UfSpec::fastest(),
            UfSpec::rem(UniteKind::RemCas, SpliceKind::Splice, FindKind::Naive),
        ];
        for shards in [0, 1, 3, 64] {
            for spec in &specs {
                for mode in [ExecMode::Auto, ExecMode::WaitFree, ExecMode::Phased] {
                    let g = GenerationEngine::new(n, shards, spec, mode, 9, Duration::ZERO, None)
                        .expect("every combination is accepted");
                    let mut oracle = DynamicOracle::new(n);
                    let batch: Vec<Update> = (0..200u32)
                        .map(|i| {
                            let (u, v) = (i * 7 % n as u32, i * 13 % n as u32);
                            if i % 3 == 2 {
                                Update::Query(u, v)
                            } else {
                                Update::Insert(u, v)
                            }
                        })
                        .collect();
                    assert_eq!(g.process_batch(&batch), oracle.apply_batch(&batch));
                    let components = cc_graph::stats::count_distinct_labels(&oracle.labels());
                    assert_eq!(g.num_components(), components);
                }
            }
        }
        let err = GenerationEngine::new(0, 2, &specs[0], ExecMode::Auto, 9, Duration::ZERO, None);
        assert_eq!(err.err().as_deref(), Some("engine needs at least one vertex"));
    }

    #[test]
    fn tagged_answers_name_the_sealed_generation_atomically() {
        let g = gen_engine(8, Duration::from_millis(200));
        g.process_batch(&[Update::Insert(0, 1), Update::Insert(1, 2)]);
        assert_eq!(
            g.process_batch_tagged(&[Update::Query(0, 2)]),
            vec![(true, None)],
            "clean answers are untagged"
        );
        assert_eq!(g.connected_many_with_gen(&[(0, 2)])[0], (true, None));
        g.process_batch(&[Update::Delete(1, 2)]);
        assert!(g.info().dirty);
        assert_eq!(
            g.process_batch_tagged(&[Update::Query(0, 2)]),
            vec![(true, Some(0))],
            "sealed answers carry the generation that served them"
        );
        assert_eq!(g.connected_many_with_gen(&[(0, 2)])[0], (true, Some(0)));
        assert!(quiesced(&g) >= 1);
        assert_eq!(g.connected_many_with_gen(&[(0, 2)])[0], (false, None));
    }

    #[test]
    fn replace_edges_makes_the_live_set_exactly_a_checkpoints() {
        let g = gen_engine(16, Duration::ZERO);
        g.process_batch(&[Update::Insert(0, 1), Update::Insert(1, 2), Update::Insert(3, 4)]);
        g.fall_behind();
        // Target: (0,1) survives, (1,2) and (3,4) go, (5,6) is new; the
        // self-loop is dropped (never live).
        g.replace_edges(&[(1, 0), (5, 6), (7, 7)]);
        assert_eq!(g.edge_list().len(), 2);
        g.catch_up();
        assert!(g.connected(0, 1));
        assert!(!g.connected(1, 2), "stale edge gone with the replaced set");
        assert!(!g.connected(3, 4), "stale edge gone with the replaced set");
        assert!(g.connected(5, 6));
        // A delete past the checkpoint classifies against its forest.
        g.process_batch(&[Update::Delete(0, 1)]);
        assert_eq!(g.info().counters.deletes_forest, 1);
    }

    #[test]
    fn delta_count_pins_to_full_scan_across_schedules() {
        // The satellite bugfix pin: the delta-maintained component count
        // must equal a full `count_distinct_labels` scan after every
        // quiesced round of a mixed insert/delete/rebuild schedule (the
        // seal path additionally cross-checks via its debug assertion).
        let n = 48usize;
        let g = gen_engine(n, Duration::ZERO);
        for round in 0..10u32 {
            let mut muts: Vec<Update> = Vec::new();
            for i in 0..30u32 {
                let x = round * 173 + i * 41;
                let (u, v) = (x % n as u32, (x * 11 + 3) % n as u32);
                muts.push(if x % 5 == 4 { Update::Delete(u, v) } else { Update::Insert(u, v) });
            }
            g.process_batch(&muts);
            quiesced(&g);
            g.publish_analytics(u64::from(round) + 1);
            let scan = cc_graph::stats::count_distinct_labels(&g.labels_readonly());
            assert_eq!(g.components_live() as usize, scan, "round {round}");
            let view = g.analytics_view();
            assert_eq!(view.components as usize, scan, "round {round} (view)");
            assert_eq!(view.hist.iter().sum::<u64>(), view.components, "round {round} (hist)");
        }
        assert!(g.info().counters.rebuilds >= 1, "schedule must exercise rebuilds");
    }

    #[test]
    fn analytics_view_tracks_merges_and_seals_honestly() {
        let g = gen_engine(8, Duration::from_millis(200));
        g.process_batch(&[Update::Insert(0, 1), Update::Insert(1, 2)]);
        g.publish_analytics(1);
        let v = g.analytics_view();
        assert_eq!((v.epoch, v.generation, v.sealed), (1, 0, false));
        assert_eq!(v.components, 6);
        assert_eq!(v.hist[0], 5, "five singletons");
        assert_eq!(v.hist[1], 1, "one component of three");
        assert_eq!(v.topk(10).len(), 1, "singletons are excluded from TOPK");
        assert_eq!(v.topk[0].1, 3);
        assert_eq!(v.component_of(2).1, 3);
        g.process_batch(&[Update::Delete(1, 2)]);
        assert!(g.info().dirty);
        let v = g.analytics_view();
        assert!(v.sealed, "forest delete freezes the analytics view");
        assert_eq!(v.components, 6, "sealed view keeps the pre-delete partition");
        g.publish_analytics(2);
        assert!(g.analytics_view().sealed, "publication is deferred while dirty");
        assert!(quiesced(&g) >= 1);
        let v = g.analytics_view();
        assert!(!v.sealed);
        assert_eq!(v.epoch, 2, "commit republishes at the deferred epoch mark");
        assert_eq!(v.generation, g.generation());
        assert_eq!(v.components, 7);
        assert_eq!(v.component_of(0).1, 2, "0-1 survives the rebuild");
        assert_eq!(v.component_of(2).1, 1, "2 is a singleton again");
    }

    /// `EVT`, `SIZE` and `TOPK` name one representative: they all read the
    /// tracker's partition.
    #[test]
    fn events_and_analytics_name_the_same_root() {
        let g = gen_engine(8, Duration::ZERO);
        g.process_batch(&[Update::Insert(3, 1)]);
        g.subs_register(1, SubKind::Component, 1, 1, false, 0);
        g.process_batch(&[Update::Insert(1, 5)]);
        g.publish_analytics(1);
        let evs = g.drain_sub_fires(1);
        assert_eq!(evs.len(), 1);
        let view = g.analytics_view();
        assert_eq!((evs[0].ev.root, evs[0].ev.size), view.component_of(1));
        assert_eq!(view.topk, vec![view.component_of(1)]);
        // Across a rebuild commit too: the commit's event and the
        // republished view read the adopted partition.
        g.process_batch(&[Update::Delete(3, 1)]);
        quiesced(&g);
        let evs = g.drain_sub_fires(2);
        assert_eq!(evs.len(), 1, "the commit re-identifies 1's component");
        let view = g.analytics_view();
        assert_eq!((evs[0].ev.root, evs[0].ev.size), view.component_of(1));
        assert_eq!((view.component_of(1).1, view.component_of(3).1), (2, 1));
    }

    /// Only edges that went live during the sealed window wait for the
    /// commit: duplicates and self-loops, however many, queue nothing.
    #[test]
    fn pending_holds_only_edges_that_went_live_while_sealed() {
        let mut s = Stepped::new(8);
        s.g.process_batch(&[Update::Insert(0, 1), Update::Insert(1, 2), Update::Insert(4, 5)]);
        s.g.process_batch(&[Update::Delete(0, 1)]);
        assert!(s.g.info().dirty);
        // The sealed view is the tracker's own partition, not a copy, and
        // the flood cannot move it: a stale tracker never unites.
        let sealed = s.g.view();
        assert!(sealed.sealed);
        assert!(Arc::ptr_eq(&sealed.partition, s.g.shared.mx.lock().tracker.partition()));
        let frozen: Vec<(u32, u64)> = sealed.partition.roots().collect();
        let retracted = s.begin();
        let flood: Vec<Update> = (0..10_000)
            .flat_map(|_| [Update::Insert(4, 5), Update::Insert(6, 7), Update::Insert(3, 3)])
            .collect();
        s.g.process_batch(&flood);
        assert!(Arc::ptr_eq(&sealed, &s.g.view()), "no republication while sealed");
        assert!(Arc::ptr_eq(&sealed.partition, s.g.shared.mx.lock().tracker.partition()));
        assert_eq!(sealed.partition.roots().collect::<Vec<_>>(), frozen);
        assert_eq!(
            s.g.connected_many_with_gen(&[(6, 7)])[0],
            (false, Some(0)),
            "6-7 waits for the commit"
        );
        let pending = s.g.shared.mx.lock().pending.clone();
        assert_eq!(pending.len(), 1, "4-5 was live before, 3-3 never is, 6-7 is new once");
        assert_eq!(pending, vec![(6, 7)]);
        let next = s.build(&retracted);
        assert!(s.finish(next));
        let drained = &s.obs.metrics.rebuild_drained_ops;
        assert_eq!((drained.count(), drained.max()), (1, 1));
        assert!(s.g.connected(6, 7) && s.g.connected(4, 5) && !s.g.connected(0, 1));
        // The commit swapped partitions; the old one stays as it was
        // sealed for whoever still holds it.
        assert!(!Arc::ptr_eq(&sealed.partition, &s.g.view().partition));
        assert_eq!(sealed.partition.roots().collect::<Vec<_>>(), frozen);
    }

    #[test]
    fn recovery_materializes_one_generation() {
        let g = gen_engine(16, Duration::ZERO);
        g.fall_behind();
        g.replace_edges(&[(0, 1), (1, 2)]);
        g.process_batch(&[Update::Insert(3, 4), Update::Delete(1, 2), Update::Insert(2, 3)]);
        assert!(g.info().dirty && g.is_behind());
        assert!(!g.connected(0, 1), "the frozen partition unites nothing");
        g.catch_up();
        assert!(!g.info().dirty);
        assert_eq!(g.generation(), 0);
        let info = g.info();
        assert_eq!(info.counters, GenCounters::default(), "replay is not live traffic");
        assert!(g.connected(0, 1));
        // 1-2 died; 2-3-4 live; 0-1 live.
        assert!(!g.connected(0, 2));
        assert!(g.connected(2, 4));
        assert_eq!(g.edge_list().len(), 3);
    }

    /// A follower reconnect lands mid-rebuild: the attempt in flight was
    /// built from the tracker the catch-up replaces, so it is discarded
    /// even when it finishes after the catch-up, and its snapshot is
    /// never reused by the next dirty window.
    #[test]
    fn an_attempt_in_flight_at_fall_behind_never_commits() {
        let mut s = Stepped::new(8);
        let mut oracle = DynamicOracle::new(8);
        let apply = |s: &Stepped, oracle: &mut DynamicOracle, ops: &[Update]| {
            s.g.process_batch(ops);
            oracle.apply_batch(ops);
        };
        apply(&s, &mut oracle, &[Update::Insert(0, 1), Update::Insert(1, 2)]);
        apply(&s, &mut oracle, &[Update::Delete(0, 1)]);
        let retracted = s.begin();
        let next = s.build(&retracted);
        assert!(next.is_some(), "built before the reconnect");
        s.g.fall_behind();
        let replay = [Update::Insert(3, 4), Update::Delete(1, 2), Update::Insert(0, 1)];
        apply(&s, &mut oracle, &replay);
        s.g.catch_up();
        s.check_commit_invariants(&oracle);
        assert!(!s.finish(next), "built from a replaced tracker");
        assert_eq!(s.discarded(), 1);
        s.check_commit_invariants(&oracle);
        assert_eq!((s.g.generation(), s.g.info().counters.rebuilds), (0, 0));
        // The next window snapshots afresh: 3-4 is in it.
        apply(&s, &mut oracle, &[Update::Delete(0, 1)]);
        let retracted = s.begin();
        let next = s.build(&retracted);
        assert!(s.finish(next));
        s.check_commit_invariants(&oracle);
        assert!(s.g.connected(3, 4));
    }
}
