//! The long-running connectivity service: group commit in front of a
//! [`crate::generation::GenerationEngine`] (one partition under the
//! edge-liveness tracker, plus the background rebuilder that gives the
//! service deletions), write-ahead logging with checkpoint records, and
//! per-operation latency tracking.
//!
//! Clients ([`Client`], cheaply cloneable) enqueue submissions — each a
//! small vector of [`Update`]s — and wait on a per-submission [`Ticket`].
//! No thread forms batches. A submitter that finds no batch in flight
//! leads: it takes whole submissions off the queue, up to
//! [`ServiceConfig::batch_max_ops`] operations, runs them through
//! [`GenerationEngine::process_batch_tagged`] as one batch and fans the
//! query answers back out; whatever queued meanwhile is the next batch.
//! A leader runs one batch — the one carrying its own submission — then
//! hands the queue to the owner of its oldest submission, so no
//! submitter leads for ever, and a submitter that returns while that
//! owner wakes joins its batch. In process the leader is the thread in
//! [`Client::submit`] (or `FLUSH` and `SNAPSHOT`); on the event loop it
//! is a shard, at the end of its round.
//! Every batch with an insert or a delete bumps the service epoch; a
//! batch of queries and controls commits nothing. A blocking verb is a
//! [`Ticket`] parked on one waiter list, or a control riding the next
//! batch, so nothing waits on a thread. Reads skip the queue and the
//! writer lock alike: they ask the engine's serving partition directly,
//! so readers never block writers and writers never wait for readers.
//!
//! Replayed history has one door, `apply_log` over a [`LogRecord`]:
//! crash recovery drives it from the service's own WAL, a follower
//! ([`Client::apply_log`]) from the primary's replication stream — the
//! same records, decoded by the same [`crate::wal::decode_record`].

use crate::analytics::AnalyticsView;
use crate::generation::{GenInfo, GenerationEngine};
use crate::obs::{self, Event, Obs};
use crate::request::endpoints;
use crate::subs::{AttachError, PendingEvent, SubInfo, SubKind, SubSink, SubWalOp, SubsDispatch};
pub use crate::wal::LogRecord;
use crate::wal::{DurabilityConfig, Wal, WalError, WalStats};
use cc_unionfind::UfSpec;
use connectit::Update;
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

/// How often the idle tick appends fresh flight-recorder events to the
/// trace file while durability is on: a SIGKILL loses at most this
/// window of events (plus whatever the ring had not yet flushed).
const TRACE_FLUSH_INTERVAL: Duration = Duration::from_millis(500);

/// Trailing lines of a previous run's trace file surfaced on recovery.
const TRACE_TAIL_LINES: usize = 20;

/// Which side of the replication topology a service plays.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Role {
    /// Accepts writes, owns the WAL, and (optionally) streams it to
    /// followers.
    Primary,
    /// A read replica: state arrives exclusively through
    /// [`Client::apply_log`] (fed by `cc_server::replication`); local
    /// writes — inserts *and* deletes — are rejected, and queries are
    /// answered directly against the engine at the follower's
    /// honestly-reported replication epoch.
    Follower,
}

impl std::fmt::Display for Role {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Role::Primary => write!(f, "primary"),
            Role::Follower => write!(f, "follower"),
        }
    }
}

/// **Accepted, selects nothing; removal rides the next `[benchmark]`
/// PR.** The server keeps one partition (a single-writer
/// `SizedUnionFind` with lock-free readers), so there is no sharding,
/// union-find variant, execution discipline or seed left to choose. This
/// enum, [`ServiceConfig::shards`], [`ServiceConfig::spec`],
/// [`ServiceConfig::mode`], [`ServiceConfig::seed`], the matching
/// arguments of [`GenerationEngine::new`] and `connectit-serve --shards`
/// survive only because the frozen `benchmark/` sources name them; every
/// value is accepted and ignored.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecMode {
    /// Ignored (see the type's docs).
    Auto,
    /// Ignored (see the type's docs).
    WaitFree,
    /// Ignored (see the type's docs).
    Phased,
}

/// Configuration of a [`Service`].
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Number of vertices (fixed for the lifetime of the service).
    pub n: usize,
    /// Selects nothing (see [`ExecMode`]).
    pub shards: usize,
    /// Selects nothing (see [`ExecMode`]).
    pub spec: UfSpec,
    /// Selects nothing (see [`ExecMode`]).
    pub mode: ExecMode,
    /// Soft cap on operations per batch: a leader stops taking whole
    /// submissions once the cap is reached (a single oversized
    /// submission still runs as one batch).
    pub batch_max_ops: usize,
    /// Selects nothing (see [`ExecMode`]).
    pub seed: u64,
    /// Test knob: hold every background generation rebuild open for at
    /// least this long, making the dirty window (sealed-generation
    /// queries, `G <gen>` staleness reporting) deterministically
    /// observable. Zero (the default) in production.
    pub rebuild_hold: Duration,
    /// Durability: `Some` turns on the write-ahead log (and its
    /// checkpoints) in the given directory, including crash recovery from
    /// whatever that directory already holds at startup.
    pub durability: Option<DurabilityConfig>,
    /// Primary (default) or read-replica follower (see [`Role`]).
    pub role: Role,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            n: 1 << 20,
            shards: 4,
            spec: UfSpec::fastest(),
            mode: ExecMode::Auto,
            batch_max_ops: 1 << 16,
            seed: 0x5eed,
            rebuild_hold: Duration::ZERO,
            durability: None,
            role: Role::Primary,
        }
    }
}

/// Why a service call failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServiceError {
    /// The service has been shut down.
    Closed,
    /// An operation referenced a vertex outside `0..n`.
    VertexOutOfRange {
        /// The offending vertex id.
        v: u32,
        /// The service's vertex count.
        n: usize,
    },
    /// The configuration was rejected at startup.
    Config(String),
    /// The write-ahead log failed (the message carries
    /// file and offset context from [`WalError`]).
    Durability(String),
    /// A durability-only operation (`FLUSH`, `SNAPSHOT`, `WALSTATS`) was
    /// requested but the service runs without a WAL.
    DurabilityDisabled,
    /// An insert or delete was submitted to a read-replica follower.
    ReadOnlyFollower,
    /// A `WAIT` did not reach its target epoch within the timeout.
    WaitTimeout {
        /// The epoch waited for.
        target: u64,
        /// The epoch the service had reached when the wait gave up.
        at: u64,
    },
    /// A `QUIESCE` did not see the generation engine come clean within
    /// the timeout (a rebuild was still in flight).
    QuiesceTimeout {
        /// The generation still serving when the wait gave up.
        at: u64,
    },
    /// An `UNSUB` or `SUB ATTACH` referenced a subscription id this
    /// service does not hold (never issued, already cancelled, or — for
    /// an ephemeral subscription — dropped with its connection).
    UnknownSubscription {
        /// The offending subscription id.
        id: u64,
    },
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Closed => write!(f, "service is shut down"),
            ServiceError::VertexOutOfRange { v, n } => {
                write!(f, "vertex {v} out of range (n = {n})")
            }
            ServiceError::Config(msg) => write!(f, "invalid configuration: {msg}"),
            ServiceError::Durability(msg) => write!(f, "durability failure: {msg}"),
            ServiceError::DurabilityDisabled => {
                write!(f, "durability is not enabled (start the service with a wal dir)")
            }
            ServiceError::ReadOnlyFollower => {
                write!(f, "read-only follower: route updates to the primary")
            }
            ServiceError::WaitTimeout { target, at } => {
                write!(f, "wait for epoch {target} timed out at epoch {at}")
            }
            ServiceError::QuiesceTimeout { at } => {
                write!(f, "quiesce timed out at generation {at}")
            }
            ServiceError::UnknownSubscription { id } => {
                write!(f, "unknown subscription id {id}")
            }
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<WalError> for ServiceError {
    fn from(e: WalError) -> Self {
        ServiceError::Durability(e.to_string())
    }
}

/// A point-in-time view of the service's counters and latency profile.
#[derive(Clone, Debug)]
pub struct ServiceStats {
    /// Committed write batches (equals the current epoch).
    pub epoch: u64,
    /// Operations processed so far.
    pub ops: u64,
    /// Insert operations processed so far.
    pub inserts: u64,
    /// Delete operations processed so far.
    pub deletes: u64,
    /// Query operations processed so far.
    pub queries: u64,
    /// Number of connected components as of the last published
    /// analytics view (the delta-maintained count; may lag an in-flight
    /// batch).
    pub num_components: usize,
    /// `[p50, p90, p99, p999]` submission-to-completion latency, ns.
    pub latency_ns: [u64; 4],
    /// One-line human latency summary (see `cc_parallel::hist`).
    pub latency_summary: String,
}

impl std::fmt::Display for ServiceStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "epoch={} ops={} inserts={} deletes={} queries={} components={} latency[{}]",
            self.epoch,
            self.ops,
            self.inserts,
            self.deletes,
            self.queries,
            self.num_components,
            self.latency_summary,
        )
    }
}

/// One client submission awaiting batching.
struct Pending {
    ops: Vec<Update>,
    num_queries: usize,
    num_deletes: usize,
    enqueued: Instant,
    work: Work,
}

/// What a queued submission asks of its batch, and where its result
/// goes.
#[derive(Clone)]
enum Work {
    /// Operations: the ticket gets their query answers.
    Ops(Arc<Ticket<TaggedAnswers>>),
    /// A [`Barrier::Flush`] or [`Barrier::Snapshot`] control (no
    /// operations): it runs after the batch it rides, and the ticket
    /// gets the epoch that batch left.
    Control(Barrier, Arc<Ticket<u64>>),
}

impl Work {
    fn fail(self, e: ServiceError) {
        match self {
            Work::Ops(ticket) => ticket.fulfill(Err(e)),
            Work::Control(_, ticket) => ticket.fulfill(Err(e)),
        }
    }

    /// Offers the queue's lead to the ticket's owner (see
    /// [`Ticket::offer_lead`]); `wake` also wakes it. `false` if the owner
    /// has gone.
    fn offer_lead(&self, wake: bool) -> bool {
        match self {
            Work::Ops(ticket) => ticket.offer_lead(wake),
            Work::Control(_, ticket) => ticket.offer_lead(wake),
        }
    }
}

/// A query answer paired with the sealed generation it was served from
/// (`None` when the engine was clean): the tag travels with the answer
/// from the moment the engine produced both under one lock, so the wire
/// layer never has to re-derive staleness with a racy second read.
pub type TaggedAnswers = Vec<(bool, Option<u64>)>;

/// The callback a ticket's producer fires once the result is stored, or
/// once the queue's lead is handed to the ticket's holder: the event-loop
/// shards pass their poll waker.
pub type Notify = Box<dyn Fn() + Send + Sync>;

/// A one-shot result still being produced: a submission's answers
/// (`Client::submit_tagged_async`) or a blocking verb's epoch or
/// generation. Its producer (a batch, a waiter-list fire, or the request
/// itself when it already holds) stores the result once; its holder polls
/// with [`Ticket::try_take`] after the notify callback fires, or blocks
/// with `Ticket::wait`. The two share it as an `Arc`: a holder that
/// drops its `Arc` abandons the wait.
///
/// A queued submission's ticket may also be offered the queue's lead:
/// its holder then leads (`Client::lead`). A holder that gives the ticket
/// up first calls `Ticket::abandon`, so no offer lands on a holder that
/// has gone.
pub struct Ticket<T> {
    state: Mutex<Option<Result<T, ServiceError>>>,
    cv: Condvar,
    notify: Option<Notify>,
    /// [`NO_OFFER`], [`OFFERED`] or [`ABANDONED`].
    lead: AtomicU8,
}

/// A ticket's lead states: nothing offered, the queue's lead offered to
/// the holder, or the holder gone (no offer lands any more).
const NO_OFFER: u8 = 0;
const OFFERED: u8 = 1;
const ABANDONED: u8 = 2;

/// The ticket of a grouped submission.
pub type SubmitTicket = Arc<Ticket<TaggedAnswers>>;

impl<T> Ticket<T> {
    pub(crate) fn new(notify: Option<Notify>) -> Arc<Self> {
        let lead = AtomicU8::new(NO_OFFER);
        Arc::new(Ticket { state: Mutex::new(None), cv: Condvar::new(), notify, lead })
    }

    fn fulfill(&self, r: Result<T, ServiceError>) {
        *self.state.lock() = Some(r);
        self.cv.notify_all();
        if let Some(f) = &self.notify {
            f();
        }
    }

    /// Marks the holder as the queue's next leader. `wake` wakes it — a
    /// blocked holder and the notify alike; without it the holder is the
    /// caller, about to look. Returns `false`, offering nothing, if the
    /// holder abandoned the ticket.
    fn offer_lead(&self, wake: bool) -> bool {
        let to = self.lead.compare_exchange(NO_OFFER, OFFERED, Ordering::AcqRel, Ordering::Acquire);
        if to == Err(ABANDONED) {
            return false;
        }
        if wake {
            // Taking the lock orders this after a holder's check and
            // before its sleep.
            drop(self.state.lock());
            self.cv.notify_all();
            if let Some(f) = &self.notify {
                f();
            }
        }
        true
    }

    /// Whether the queue's lead was offered to this ticket's holder since
    /// the last call; the holder then leads ([`Client::lead`]).
    pub(crate) fn take_lead(&self) -> bool {
        self.lead.compare_exchange(OFFERED, NO_OFFER, Ordering::AcqRel, Ordering::Acquire).is_ok()
    }

    /// Gives the ticket up: no offer lands after this. Returns whether one
    /// had landed and was not yet taken; the holder then leads once
    /// ([`Client::lead`]), which hands the queue on.
    pub(crate) fn abandon(&self) -> bool {
        self.lead.swap(ABANDONED, Ordering::AcqRel) == OFFERED
    }

    /// Takes the result if it is stored; `None` while it is still being
    /// produced. A taken result is gone — callers poll until `Some`, then
    /// stop.
    pub fn try_take(&self) -> Option<Result<T, ServiceError>> {
        self.state.lock().take()
    }

    /// Blocks until the result is stored, or until `deadline` passes
    /// (`None` waits for good), and takes it; `None` at the deadline.
    /// Runs `lead` whenever the queue's lead is offered to this holder.
    pub(crate) fn wait(
        &self,
        deadline: Option<Instant>,
        lead: impl Fn(),
    ) -> Option<Result<T, ServiceError>> {
        let mut state = self.state.lock();
        loop {
            if let Some(r) = state.take() {
                return Some(r);
            }
            if self.take_lead() {
                drop(state);
                lead();
                state = self.state.lock();
                continue;
            }
            match deadline {
                None => self.cv.wait(&mut state),
                Some(at) => {
                    let left = at.checked_duration_since(Instant::now())?;
                    self.cv.wait_for(&mut state, left);
                }
            }
        }
    }
}

/// What a blocking verb waits for. [`Client::barrier`] turns one into a
/// [`Ticket`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Barrier {
    /// `WAIT`: the service epoch reaches this one; resolves to the epoch
    /// reached.
    Epoch(u64),
    /// `QUIESCE`: no generation rebuild owed or in flight; resolves to the
    /// clean generation.
    Clean,
    /// `FLUSH`: the WAL is fsynced after the next batch; resolves to the
    /// epoch it covers.
    Flush,
    /// `SNAPSHOT`: a checkpoint is written after the next batch; resolves
    /// to the epoch it is keyed by.
    Snapshot,
}

/// The one waiter list: tickets parked on a [`Barrier::Epoch`] or a
/// [`Barrier::Clean`], each fired once by whoever moves its condition.
/// Entries are held weakly, so an abandoned ticket is pruned at the next
/// fire or registration.
#[derive(Default)]
pub(crate) struct Waiters(Mutex<Vec<(Barrier, Weak<Ticket<u64>>)>>);

impl Waiters {
    /// Parks `ticket` on `barrier` unless `now` resolves it already. `now`
    /// runs under the list lock and every condition change fires after it
    /// lands, so a change is seen by `now` or by that fire.
    pub(crate) fn register(
        &self,
        barrier: Barrier,
        ticket: &Arc<Ticket<u64>>,
        now: impl FnOnce() -> Option<Result<u64, ServiceError>>,
    ) {
        let mut list = self.0.lock();
        list.retain(|(_, w)| w.strong_count() > 0);
        match now() {
            Some(r) => ticket.fulfill(r),
            None => list.push((barrier, Arc::downgrade(ticket))),
        }
    }

    /// Resolves every entry `hit` has a result for, and prunes abandoned
    /// ones.
    pub(crate) fn fire(&self, hit: impl Fn(Barrier) -> Option<Result<u64, ServiceError>>) {
        self.0.lock().retain(|&(barrier, ref w)| match (w.upgrade(), hit(barrier)) {
            (Some(ticket), Some(r)) => {
                ticket.fulfill(r);
                false
            }
            (ticket, _) => ticket.is_some(),
        });
    }

    pub(crate) fn len(&self) -> usize {
        self.0.lock().len()
    }
}

/// Submissions waiting for a batch. Invariant: a non-empty queue has a
/// leader running, or a lead offered to one of its submitters.
struct SubmitQueue {
    queue: VecDeque<Pending>,
    /// Set while a leader runs a batch; set and cleared under this lock,
    /// so a push and the leader check are one critical section.
    leading: bool,
}

struct Inner {
    engine: GenerationEngine,
    cfg: ServiceConfig,
    q: Mutex<SubmitQueue>,
    epoch: AtomicU64,
    /// The observability plane. The registry's `inserts/deletes/queries`
    /// counters and `latency_ns` histogram are the *authoritative*
    /// service counters (`stats()` reads them back); everything else in
    /// it is a write-time mirror of subsystem state.
    obs: Arc<Obs>,
    /// Where the flight recorder flushes (`<wal-dir>/trace-<pid>.log`);
    /// `None` without durability (the ring stays in memory for `TRACE`).
    trace_path: Option<PathBuf>,
    /// The write-ahead log, when durability is on. Locked by a leader for
    /// appends, controls and the due sync, and by clients for `WALSTATS`.
    wal: Option<Mutex<Wal>>,
    /// The most recent durability failure, surfaced through `WALSTATS`.
    last_wal_error: Mutex<Option<String>>,
    /// Serializes [`Inner::apply_log`].
    apply_mx: Mutex<()>,
    /// Per-subscription delivery channels (sequence numbers, retained
    /// events for detached durable subscribers, and the live sinks).
    /// The trigger *index* lives in the engine; this is the fan-out side.
    subs: SubsDispatch,
    /// Serializes [`Inner::drain_sub_events`]: draining reads the fire
    /// buffer and hands events to the dispatcher in one critical
    /// section, so two concurrent drains cannot reorder deliveries
    /// within a subscription.
    sub_drain_mx: Mutex<()>,
    /// Set by shutdown, under the queue lock so that a push and the
    /// drain agree on it.
    closed: std::sync::atomic::AtomicBool,
}

impl Inner {
    fn bump_epoch_to(&self, epoch: u64) {
        self.epoch.fetch_max(epoch, Ordering::AcqRel);
        self.obs.metrics.epoch.set_max(epoch);
        self.fire_epoch();
    }

    /// Resolves every `WAIT` whose epoch the service has reached.
    fn fire_epoch(&self) {
        let at = self.epoch.load(Ordering::Acquire);
        self.engine.waiters().fire(|b| matches!(b, Barrier::Epoch(e) if e <= at).then_some(Ok(at)));
    }

    fn note_wal_error(&self, msg: &str) {
        *self.last_wal_error.lock() = Some(msg.to_string());
    }

    /// Appends fresh flight-recorder events to the trace file. Best
    /// effort and a no-op without durability: the trace file is a
    /// post-mortem aid, and observability must never take the service
    /// down with it.
    fn flush_trace(&self) {
        if let Some(path) = &self.trace_path {
            self.obs.recorder.flush_to_file(path).ok();
        }
    }

    /// The due sync of [`crate::wal::FsyncPolicy::Batch`]: syncs pending
    /// WAL bytes once the group-sync window has lapsed. A leader calls it
    /// after its batch's tickets are fulfilled, and the idle tick when
    /// traffic stops. Must be called without the queue lock held — an
    /// `fdatasync` can take milliseconds and clients block on that lock
    /// to submit.
    fn maybe_sync_wal(&self) {
        if let Some(w) = &self.wal {
            if let Err(e) = w.lock().sync_if_due() {
                self.note_wal_error(&e.to_string());
            }
        }
    }

    /// Drains buffered subscription fires out of the engine and hands
    /// them to the per-subscription channels. Fires not pre-stamped
    /// (by a registration or a rebuild commit) are stamped with the
    /// service epoch read *here* — after the batch that produced them
    /// advanced it — so every event carries the exact epoch its merge
    /// committed at. Only epoch-authoritative callers may use this:
    /// a leader right after publishing, and the follower apply paths at
    /// their replicated epoch.
    fn drain_sub_events(&self) {
        if !self.engine.has_sub_fires() {
            return;
        }
        let _g = self.sub_drain_mx.lock();
        let epoch = self.epoch.load(Ordering::Acquire);
        let fires = self.engine.drain_sub_fires(epoch);
        self.deliver_sub_fires(fires);
    }

    /// Prompt-path drain, for delivering a registration-time fire
    /// without waiting on a batch: it only drains when every
    /// buffered fire is already stamped. A concurrently applied but
    /// not-yet-published batch leaves unstamped merge fires in the
    /// buffer, and stamping those with the still-old committed epoch
    /// would violate the delivery contract — in that case the whole
    /// buffer (registration fire included, order preserved) is left
    /// for that batch's imminent post-publish drain.
    fn drain_sub_events_prompt(&self) {
        if !self.engine.has_sub_fires() {
            return;
        }
        let _g = self.sub_drain_mx.lock();
        let fires = self.engine.drain_sub_fires_stamped();
        self.deliver_sub_fires(fires);
    }

    /// Delivery tail shared by both drains: hands stamped fires to the
    /// per-subscription channels. Dead ephemeral subscribers found
    /// during delivery are cancelled so their triggers stop costing
    /// the merge path.
    fn deliver_sub_fires(&self, fires: Vec<PendingEvent>) {
        if fires.is_empty() {
            return;
        }
        let metrics = &self.obs.metrics;
        let dead = self.subs.deliver(&fires, |ev, at| {
            metrics.sub_events_total.inc();
            metrics.sub_fire_ns.record_duration(at.elapsed());
            self.obs.recorder.record(Event::SubFired { id: ev.id, epoch: ev.epoch });
        });
        for id in dead {
            self.engine.subs_cancel(id);
        }
        metrics.subs_active.set(self.engine.subs_len() as u64);
    }

    /// Writes a checkpoint record at `epoch` — the live edge set and the
    /// durable subscription registry — and prunes every older segment
    /// ([`Wal::checkpoint`]). Called by the leader between batches, so
    /// no new operations race it; an
    /// in-flight rebuild does not matter, because the edge set is exact
    /// while sealed too.
    fn write_checkpoint(&self, epoch: u64) -> Result<(), ServiceError> {
        let mut wal = self.wal.as_ref().expect("checkpoint requested without a wal").lock();
        // Read under the WAL mutex, which `subscribe` holds from its `'S'`
        // append to its registration: no `'S'` can fall between this read
        // and the checkpoint that prunes it.
        let subs: Vec<SubWalOp> = self
            .engine
            .subs_list()
            .into_iter()
            .filter(|sub| sub.durable)
            .map(|sub| SubWalOp::Register {
                id: sub.id,
                kind: sub.kind,
                u: sub.u,
                v: sub.v,
                epoch: sub.registered_epoch,
            })
            .collect();
        wal.checkpoint(epoch, self.cfg.n, &subs, &self.engine.edge_list())?;
        self.obs.metrics.durable_snapshot_epoch.set_max(epoch);
        let components = self.engine.components_live();
        self.obs.recorder.record(Event::SnapshotPublished { epoch, components });
        Ok(())
    }

    /// Applies one durable subscription op from the log.
    fn apply_sub(&self, op: SubWalOp) -> Result<(), ServiceError> {
        match op {
            SubWalOp::Register { id, kind, u, v, epoch } => {
                check_vertices([(u, v)], self.cfg.n, || format!("wal subscription {id}"))?;
                self.engine.subs_register_recovered(id, kind, u, v, epoch);
                self.subs.open(id, true, None);
                self.subs.bump_next_id(id + 1);
            }
            SubWalOp::Cancel { id } => {
                self.engine.subs_cancel(id);
                self.subs.close(id);
            }
        }
        Ok(())
    }

    /// The one apply path for replayed history (see [`LogRecord`]); every
    /// record passes the vertex-range check before it touches the engine.
    /// While the engine is behind, records feed its edge set and the epoch
    /// holds, so `WAIT` never returns on a view that lacks its epoch. From
    /// `CaughtUp` on, each record advances the epoch to its own and the
    /// views, counters and subscriptions follow, as after a batch. A
    /// checkpoint falls a live engine behind first, so it only ever lands
    /// on a frozen tracker; on a primary (recovery) its registry becomes
    /// the durable one — a follower's subscriptions are its own clients'.
    fn apply_log(&self, epoch: u64, record: LogRecord) -> Result<(), ServiceError> {
        let _apply = self.apply_mx.lock();
        let n = self.cfg.n;
        let (ins, dels) = match record {
            LogRecord::Ops(ops) => {
                let endpoints = ops.iter().map(|&op| match op {
                    Update::Insert(u, v) | Update::Delete(u, v) | Update::Query(u, v) => (u, v),
                });
                check_vertices(endpoints, n, || format!("wal record at epoch {epoch}"))?;
                self.engine.process_batch(&ops);
                let count = |f: fn(&Update) -> bool| ops.iter().filter(|op| f(op)).count() as u64;
                (
                    count(|op| matches!(op, Update::Insert(..))),
                    count(|op| matches!(op, Update::Delete(..))),
                )
            }
            LogRecord::Checkpoint { n: at_n, subs, edges } => {
                if at_n != n {
                    return Err(ServiceError::Config(format!(
                        "checkpoint at epoch {epoch} covers {at_n} vertices but the service \
                         was started with n = {n}; restart with the original vertex count"
                    )));
                }
                check_vertices(edges.iter().copied(), n, || format!("checkpoint at {epoch}"))?;
                self.engine.fall_behind();
                self.engine.replace_edges(&edges);
                if self.cfg.role == Role::Primary {
                    for sub in self.engine.subs_list().into_iter().filter(|sub| sub.durable) {
                        self.apply_sub(SubWalOp::Cancel { id: sub.id })?;
                    }
                    for op in subs {
                        self.apply_sub(op)?;
                    }
                    self.obs.metrics.durable_snapshot_epoch.set_max(epoch);
                }
                (0, 0)
            }
            LogRecord::Sub(op) => return self.apply_sub(op),
            LogRecord::CaughtUp => {
                self.engine.catch_up();
                (0, 0)
            }
        };
        if self.engine.is_behind() {
            return Ok(());
        }
        self.obs.metrics.inserts_total.add(ins);
        self.obs.metrics.deletes_total.add(dels);
        self.bump_epoch_to(epoch);
        self.engine.publish_analytics(epoch);
        self.drain_sub_events();
        Ok(())
    }

    /// Crash recovery, as a follower of this service's own directory: the
    /// log's one walk ([`Wal::replay`]) hands each record to
    /// [`Self::apply_log`] with the engine behind, then the end of the log
    /// is `CaughtUp`. Durable subscriptions replay in log order, unarmed;
    /// the catch-up arms them against the recovered partition, so a pair
    /// that connected while the subscriber was down still fires. Nothing
    /// here touches `self.wal`: the writer the walk yields is returned
    /// for the caller to install.
    fn recover(&self, dcfg: &DurabilityConfig) -> Result<Wal, ServiceError> {
        self.engine.fall_behind();
        let (mut wal, _) = Wal::replay(dcfg, |cursor, payload| {
            let (epoch, record) = cursor.decode(payload)?;
            self.apply_log(epoch, record)
        })?;
        self.apply_log(wal.stats().last_epoch, LogRecord::CaughtUp)?;
        wal.attach_obs(Arc::clone(&self.obs));
        Ok(wal)
    }

    /// One leadership term. Claims the queue if no leader holds it and
    /// work is queued — else returns `false` at once — then commits one
    /// batch of whole submissions, up to [`ServiceConfig::batch_max_ops`]
    /// operations, and offers what is left to the owner of its oldest
    /// submission. One batch per term: a submitter that returns while
    /// the heir wakes joins the heir's batch. Only an heir that abandoned
    /// its ticket refuses the offer; this leader then runs the next batch
    /// too, so the queue is never left without a leader.
    fn lead(&self) -> bool {
        let mut led = false;
        loop {
            let pendings = {
                let mut q = self.q.lock();
                if q.leading || q.queue.is_empty() {
                    return led;
                }
                q.leading = true;
                let mut pendings: Vec<Pending> = Vec::new();
                let mut took = 0usize;
                while let Some(front) = q.queue.front() {
                    if took > 0 && took + front.ops.len() > self.cfg.batch_max_ops {
                        break;
                    }
                    took += front.ops.len();
                    pendings.extend(q.queue.pop_front());
                }
                pendings
            };
            self.commit(pendings);
            led = true;
            let heir = {
                let mut q = self.q.lock();
                q.leading = false;
                q.queue.front().map(|p| p.work.clone())
            };
            // An heir whose owner has gone takes no offer: lead on for it.
            if heir.is_none_or(|heir| heir.offer_lead(true)) {
                return true;
            }
        }
    }

    /// One batch, in order: WAL append, apply, epoch publish, analytics
    /// and subscription drain, controls, then every ticket fulfilled.
    fn commit(&self, pendings: Vec<Pending>) {
        let total: usize = pendings.iter().map(|p| p.ops.len()).sum();
        let mut batch = Vec::with_capacity(total);
        for p in &pendings {
            batch.extend_from_slice(&p.ops);
        }

        // Stage boundaries of the per-batch latency breakdown: queue
        // wait (per submission, below) → WAL append (an `always` fsync
        // inside, timed by the WAL itself) → engine apply. All
        // instrumentation is a few relaxed atomics per *batch*, not per
        // operation — that amortization is the near-zero-cost claim the
        // obs bench gate holds us to.
        let metrics = &self.obs.metrics;
        let formed_at = Instant::now();
        // The epoch the batch commits as: the next one if it writes, else
        // the current one.
        let writes = pendings.iter().any(|p| p.num_queries < p.ops.len());
        let epoch = self.epoch.load(Ordering::Relaxed) + u64::from(writes);
        metrics.batches_total.inc();
        self.obs.recorder.record(Event::BatchFormed { epoch, ops: total as u64 });
        for p in &pendings {
            let waited = formed_at.saturating_duration_since(p.enqueued);
            metrics.queue_wait_ns.record_duration(waited);
        }

        // Write-ahead: log the batch's mutations — inserts *and
        // deletions*, in submission order — under the epoch it is about
        // to commit as, *before* touching the engine. If the log cannot
        // take the record, the batch is rejected wholesale (the engine is
        // not mutated), so the in-memory state never runs ahead of what a
        // restart could reconstruct. Insert-only batches keep the
        // original `'I'` record kind on disk and on the wire. A batch
        // that writes nothing commits nothing: no record, no epoch.
        if let Some(w) = self.wal.as_ref().filter(|_| writes) {
            let append_start = Instant::now();
            let append_res = w.lock().append_ops(epoch, &batch);
            metrics.wal_append_ns.record_duration(append_start.elapsed());
            if let Err(e) = append_res {
                let err = ServiceError::from(e);
                self.note_wal_error(&err.to_string());
                metrics.batch_rejects_total.inc();
                for p in pendings {
                    p.work.fail(err.clone());
                }
                return;
            }
        }
        let apply_start = Instant::now();
        let answers = self.engine.process_batch_tagged(&batch);

        // Account everything *before* fulfilling any reply, so a client
        // that returns from `submit` observes stats covering its batch.
        let done_at = Instant::now();
        metrics.apply_ns.record_duration(done_at.saturating_duration_since(apply_start));
        self.obs.recorder.record(Event::EngineApplied { epoch, ops: total as u64 });
        let (mut ins, mut dels, mut qrs) = (0u64, 0u64, 0u64);
        for p in &pendings {
            qrs += p.num_queries as u64;
            dels += p.num_deletes as u64;
            ins += (p.ops.len() - p.num_queries - p.num_deletes) as u64;
            let elapsed = done_at.saturating_duration_since(p.enqueued);
            metrics.latency_ns.record_n(
                u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX),
                p.ops.len() as u64,
            );
        }
        metrics.inserts_total.add(ins);
        metrics.deletes_total.add(dels);
        metrics.queries_total.add(qrs);
        if writes {
            let advanced = self.epoch.fetch_add(1, Ordering::Release) + 1;
            metrics.epoch.set_max(advanced);
            debug_assert_eq!(advanced, epoch);
            self.fire_epoch();
            // Advance the analytics view to this batch's epoch (deferred
            // to the rebuild commit while the engine is dirty).
            self.engine.publish_analytics(epoch);
            // Push out any subscription fires this batch's merges
            // produced, stamped with the epoch that just advanced.
            self.drain_sub_events();
        }

        // Controls run after the batch they rode: a checkpoint (also on
        // the epoch cadence of a committed batch), then one fsync for
        // every `FLUSH`. A failure goes to the controls that asked (and
        // WALSTATS); the batch itself already committed.
        let asked = |b| pendings.iter().any(|p| matches!(p.work, Work::Control(c, _) if c == b));
        let cadence = self.cfg.durability.as_ref().map_or(0, |d| d.snapshot_every);
        let snapshot_due =
            asked(Barrier::Snapshot) || (writes && cadence > 0 && epoch.is_multiple_of(cadence));
        let snapshot = match self.wal {
            Some(_) if snapshot_due => self.write_checkpoint(epoch),
            _ => Ok(()),
        };
        let flush = match &self.wal {
            Some(w) if asked(Barrier::Flush) => w.lock().flush().map_err(ServiceError::from),
            _ => Ok(()),
        };
        for e in [&snapshot, &flush].into_iter().filter_map(|r| r.as_ref().err()) {
            self.note_wal_error(&e.to_string());
        }

        let mut qi = 0usize;
        for p in pendings {
            match p.work {
                Work::Ops(ticket) => ticket.fulfill(Ok(answers[qi..qi + p.num_queries].to_vec())),
                Work::Control(Barrier::Snapshot, ticket) => {
                    ticket.fulfill(snapshot.clone().map(|()| epoch))
                }
                Work::Control(_, ticket) => ticket.fulfill(flush.clone().map(|()| epoch)),
            }
            qi += p.num_queries;
        }
    }

    /// The idle duties, run by the rebuild worker every 5 ms, a running
    /// rebuild included: the due WAL sync once traffic stops,
    /// subscription fires a rebuild commit stamped, and the trace flush.
    fn idle_tick(&self, last_trace_flush: &Mutex<Instant>) {
        self.maybe_sync_wal();
        self.drain_sub_events_prompt();
        let mut last = last_trace_flush.lock();
        if last.elapsed() >= TRACE_FLUSH_INTERVAL {
            self.flush_trace();
            *last = Instant::now();
        }
    }
}

/// A running connectivity service. Dropping it (or calling
/// [`Service::shutdown`]) closes the submission queue and drains what is
/// already enqueued.
pub struct Service {
    inner: Arc<Inner>,
}

/// The vertex-range check replayed history passes: every `(u, v)` must lie
/// in `0..n`; `what` names the source for the error.
fn check_vertices(
    pairs: impl IntoIterator<Item = (u32, u32)>,
    n: usize,
    what: impl FnOnce() -> String,
) -> Result<(), ServiceError> {
    match pairs.into_iter().map(|(u, v)| u.max(v)).find(|&x| x as usize >= n) {
        None => Ok(()),
        Some(x) => Err(ServiceError::Config(format!(
            "{} references vertex {x} but the service was started with n = {n}; \
             restart with the original vertex count",
            what()
        ))),
    }
}

impl Service {
    /// Starts the service: builds the generation engine, and — when
    /// durability is configured — rebuilds it from the log (its oldest
    /// checkpoint plus the records past it) in one walk, resuming at the
    /// recovered epoch. The log takes appends only after that walk.
    pub fn start(cfg: ServiceConfig) -> Result<Service, ServiceError> {
        if cfg.batch_max_ops == 0 {
            return Err(ServiceError::Config("batch_max_ops must be at least 1".into()));
        }
        if cfg.role == Role::Follower && cfg.durability.is_some() {
            return Err(ServiceError::Config(
                "a follower is in-memory: durability (the WAL) belongs to the primary it \
                 replicates from"
                    .into(),
            ));
        }
        let obs = Obs::new();
        let engine = GenerationEngine::new(
            cfg.n,
            cfg.shards,
            &cfg.spec,
            cfg.mode,
            cfg.seed,
            cfg.rebuild_hold,
            Some(Arc::clone(&obs)),
        )
        .map_err(ServiceError::Config)?;

        // Surface (and consume) the trace a previous run flushed to the WAL
        // directory — after a SIGKILL this is the crash post-mortem — then
        // claim this run's own trace file.
        let trace_path = cfg.durability.as_ref().map(|dcfg| {
            for (file, tail) in obs::drain_previous_traces(&dcfg.dir, TRACE_TAIL_LINES) {
                eprintln!("recovered flight-recorder tail from {file}:");
                for line in tail {
                    eprintln!("  {line}");
                }
            }
            dcfg.dir.join(format!("trace-{}.log", std::process::id()))
        });

        let mut inner = Inner {
            engine,
            cfg,
            q: Mutex::new(SubmitQueue { queue: VecDeque::new(), leading: false }),
            epoch: AtomicU64::new(0),
            obs,
            trace_path,
            wal: None,
            last_wal_error: Mutex::new(None),
            apply_mx: Mutex::new(()),
            subs: SubsDispatch::new(),
            sub_drain_mx: Mutex::new(()),
            closed: std::sync::atomic::AtomicBool::new(false),
        };
        if let Some(dcfg) = &inner.cfg.durability {
            inner.wal = Some(Mutex::new(inner.recover(dcfg)?));
        }
        let inner = Arc::new(inner);
        // Stamp the analytics view with the starting epoch so TOPK/HIST
        // report an honest starting point (this also sets the components
        // gauge).
        inner.engine.publish_analytics(inner.epoch.load(Ordering::Acquire));
        inner.obs.metrics.subs_active.set(inner.engine.subs_len() as u64);
        // The idle duties ride the rebuild worker's wait. The hook holds
        // the service weakly, and shutdown removes it.
        let weak = Arc::downgrade(&inner);
        let last_trace_flush = Mutex::new(Instant::now());
        inner.engine.set_idle_hook(Some(Box::new(move || {
            if let Some(inner) = weak.upgrade() {
                inner.idle_tick(&last_trace_flush);
            }
        })));
        Ok(Service { inner })
    }

    /// A handle for submitting operations; clone freely across threads.
    pub fn client(&self) -> Client {
        Client { inner: Arc::clone(&self.inner) }
    }

    /// Closes the queue, drains already-enqueued submissions (leading
    /// them here, or waiting out the leader that holds them), and (when
    /// durability is on) syncs the WAL so a clean shutdown leaves nothing
    /// in volatile buffers. Idempotent.
    pub fn shutdown(&mut self) {
        // A running idle tick finishes first; none runs after this.
        self.inner.engine.set_idle_hook(None);
        // Under the queue lock: a push sees it, or this drain sees the push.
        let q = self.inner.q.lock();
        self.inner.closed.store(true, Ordering::Release);
        drop(q);
        // Fail every `WAIT` still parked: the epoch will never advance again.
        let closed = |b| matches!(b, Barrier::Epoch(_)).then_some(Err(ServiceError::Closed));
        self.inner.engine.waiters().fire(closed);
        // Drain what is queued: lead it here, or wait out the leader
        // running; nothing joins the queue any more.
        loop {
            if self.inner.lead() {
                continue;
            }
            if !self.inner.q.lock().leading {
                break;
            }
            std::thread::sleep(Duration::from_micros(100));
        }
        if let Some(w) = &self.inner.wal {
            if let Err(e) = w.lock().flush() {
                self.inner.note_wal_error(&e.to_string());
            }
        }
        // The ring's remaining events go to the trace file last, so the
        // final shutdown fsync is itself on record for the next run.
        self.inner.flush_trace();
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// A cheap, cloneable handle for talking to a [`Service`] in-process.
#[derive(Clone)]
pub struct Client {
    inner: Arc<Inner>,
}

impl Client {
    /// Number of vertices the service was started with.
    pub fn num_vertices(&self) -> usize {
        self.inner.engine.num_vertices()
    }

    /// Refuses the first vertex `>= n`.
    fn in_range(&self, vertices: impl IntoIterator<Item = u32>) -> Result<(), ServiceError> {
        let n = self.num_vertices();
        match vertices.into_iter().find(|&v| v as usize >= n) {
            Some(v) => Err(ServiceError::VertexOutOfRange { v, n }),
            None => Ok(()),
        }
    }

    /// Submits a group of operations as one unit and blocks until the
    /// batch containing them completes. Returns the answers to the
    /// submission's queries, in order. Queries may observe other
    /// operations grouped into the same service batch (batch semantics
    /// are concurrent); all earlier completed submissions are visible.
    pub fn submit(&self, ops: Vec<Update>) -> Result<Vec<bool>, ServiceError> {
        Ok(self.submit_tagged(ops)?.into_iter().map(|(a, _)| a).collect())
    }

    /// [`Self::submit`], with each query answer tagged by the sealed
    /// generation it was served from (`Some(gen)` iff a rebuild was in
    /// flight when that query was answered, `None` for exact answers).
    /// The tag is produced by the engine under the same lock (or from
    /// the same view read) as the answer, so it is atomic with it.
    pub fn submit_tagged(&self, ops: Vec<Update>) -> Result<TaggedAnswers, ServiceError> {
        let ticket = self.submit_tagged_async(ops, None)?;
        self.settle(&ticket, None).expect("a wait without a deadline returns")
    }

    /// [`Self::submit_tagged`] without blocking: the group is queued and a
    /// [`SubmitTicket`] comes back immediately. `notify` (if any) fires
    /// once the result is stored — the network shards pass their poll
    /// waker so a completed batch wakes the event loop instead of parking
    /// a thread per submission — and when the queue's lead is offered to
    /// the holder, who then calls [`Self::lead`] (a ticket whose
    /// [`Ticket::take_lead`] is true). Validation errors are still
    /// synchronous; on a follower the ticket is fulfilled before
    /// returning (the follower read path has no queue).
    pub(crate) fn submit_tagged_async(
        &self,
        ops: Vec<Update>,
        notify: Option<Notify>,
    ) -> Result<SubmitTicket, ServiceError> {
        let n = self.num_vertices();
        let mut num_queries = 0usize;
        let mut num_deletes = 0usize;
        for op in &ops {
            let (Update::Insert(u, v) | Update::Delete(u, v) | Update::Query(u, v)) = *op;
            for x in [u, v] {
                if x as usize >= n {
                    return Err(ServiceError::VertexOutOfRange { v: x, n });
                }
            }
            num_queries += usize::from(matches!(op, Update::Query(..)));
            num_deletes += usize::from(matches!(op, Update::Delete(..)));
        }
        let ticket = Ticket::new(notify);
        if ops.is_empty() {
            ticket.fulfill(Ok(Vec::new()));
        } else if self.role() == Role::Follower {
            // The follower read path: no queue, no epoch bump —
            // queries are answered off one view at whatever replication
            // epoch the follower has reached (readers see at *least* the
            // state of the reported [`Client::epoch`]; `WAIT` turns that
            // bound into read-your-writes). Inserts and deletes are
            // rejected: a follower's only write path is the replication
            // stream.
            let pairs: Vec<(u32, u32)> = ops.iter().map(|&op| endpoints(op)).collect();
            ticket.fulfill(if num_queries == ops.len() {
                self.query_many_tagged(&pairs)
            } else {
                Err(ServiceError::ReadOnlyFollower)
            });
        } else {
            self.push(ops, num_queries, num_deletes, Work::Ops(Arc::clone(&ticket)))?;
        }
        Ok(ticket)
    }

    /// Answers many connectivity queries against **one** view acquire,
    /// skipping the queue: the read-coalescing primitive behind
    /// cross-connection batch execution in the network shards. The whole
    /// group runs lock-free beside in-flight batches and replicated
    /// applies.
    pub fn query_many_tagged(&self, pairs: &[(u32, u32)]) -> Result<TaggedAnswers, ServiceError> {
        self.in_range(pairs.iter().flat_map(|&(u, v)| [u, v]))?;
        if pairs.is_empty() {
            return Ok(Vec::new());
        }
        if self.inner.closed.load(Ordering::Acquire) {
            return Err(ServiceError::Closed);
        }
        let t0 = Instant::now();
        let answers = self.inner.engine.connected_many_with_gen(pairs);
        self.inner.obs.metrics.queries_total.add(pairs.len() as u64);
        self.inner.obs.metrics.latency_ns.record_n(
            u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX),
            pairs.len() as u64,
        );
        Ok(answers)
    }

    /// A follower's one write door: applies one unit of replicated
    /// history at the primary's `epoch` (see [`LogRecord`]; the
    /// replication receiver feeds it, and recovery drives the same path
    /// from disk). Redelivering a contiguous suffix of the history is
    /// idempotent: each edge's liveness is decided by the last operation
    /// that touches it, and the epoch never moves backwards. Rejected on a
    /// primary.
    pub fn apply_log(&self, epoch: u64, record: LogRecord) -> Result<(), ServiceError> {
        if self.role() != Role::Follower {
            return Err(ServiceError::Config(
                "replicated record rejected: this service is a primary, not a follower".into(),
            ));
        }
        if self.is_closed() {
            return Err(ServiceError::Closed);
        }
        self.inner.apply_log(epoch, record)
    }

    /// Falls this follower behind at a (re)connect: until the stream's
    /// next [`LogRecord::CaughtUp`], records replay into the engine's edge
    /// set, reads serve the sealed view and the epoch holds
    /// ([`GenerationEngine::fall_behind`]).
    pub(crate) fn fall_behind(&self) {
        self.inner.engine.fall_behind();
    }

    /// Blocks until the service's epoch reaches `target` (the `WAIT`
    /// protocol verb: on a follower this is the bounded-staleness
    /// contract — once it returns, every batch the primary committed up
    /// to `target` is visible here). Returns the epoch actually reached;
    /// times out with [`ServiceError::WaitTimeout`].
    pub fn wait_for_epoch(&self, target: u64, timeout: Duration) -> Result<u64, ServiceError> {
        self.wait_barrier(Barrier::Epoch(target), Some(timeout))
    }

    /// The ticket behind a blocking verb (see [`Barrier`]). One that
    /// holds already, or fails at once (a `FLUSH` without a WAL), comes
    /// back resolved; otherwise `notify` fires once it resolves. Nothing
    /// waits on a thread: an epoch or clean-engine barrier parks on the
    /// waiter list, a `FLUSH` or `SNAPSHOT` rides the next batch as a
    /// control.
    pub(crate) fn barrier(&self, barrier: Barrier, notify: Option<Notify>) -> Arc<Ticket<u64>> {
        let inner = &self.inner;
        let ticket = Ticket::new(notify);
        match barrier {
            Barrier::Epoch(target) => inner.engine.waiters().register(barrier, &ticket, || {
                let at = self.epoch();
                let closed = self.is_closed().then_some(Err(ServiceError::Closed));
                (at >= target).then_some(Ok(at)).or(closed)
            }),
            Barrier::Clean => inner.engine.when_clean(&ticket),
            Barrier::Flush | Barrier::Snapshot => {
                let control = Work::Control(barrier, Arc::clone(&ticket));
                let wal = inner.wal.as_ref().ok_or(ServiceError::DurabilityDisabled);
                if let Err(e) = wal.and_then(|_| self.push(Vec::new(), 0, 0, control)) {
                    ticket.fulfill(Err(e));
                }
            }
        }
        ticket
    }

    /// The error a barrier that missed its deadline answers.
    pub(crate) fn timed_out(&self, barrier: Barrier) -> ServiceError {
        match barrier {
            Barrier::Epoch(target) => ServiceError::WaitTimeout { target, at: self.epoch() },
            _ => ServiceError::QuiesceTimeout { at: self.inner.engine.generation() },
        }
    }

    /// Blocks on [`Self::barrier`] until it resolves or `timeout` lapses.
    fn wait_barrier(
        &self,
        barrier: Barrier,
        timeout: Option<Duration>,
    ) -> Result<u64, ServiceError> {
        let deadline = timeout.and_then(|t| Instant::now().checked_add(t));
        let ticket = self.barrier(barrier, None);
        self.settle(&ticket, deadline).unwrap_or_else(|| Err(self.timed_out(barrier)))
    }

    /// Blocks on `ticket` like [`Ticket::wait`], leading the queue on this
    /// thread whenever its lead is offered to the ticket.
    fn settle<T>(
        &self,
        ticket: &Ticket<T>,
        deadline: Option<Instant>,
    ) -> Option<Result<T, ServiceError>> {
        let lead = || {
            if self.inner.lead() {
                self.inner.maybe_sync_wal();
            }
        };
        let result = ticket.wait(deadline, lead);
        // Timed out: an offer that landed meanwhile is taken up here.
        if result.is_none() && ticket.abandon() {
            lead();
        }
        result
    }

    /// Leads the submission queue if no leader holds it and work is
    /// queued: one batch (more only for heirs that abandoned their
    /// tickets), whose tickets are all fulfilled when this returns (see
    /// the module docs). Returns whether it led; a
    /// leader then owes [`Self::sync_wal_if_due`] once its replies are out.
    pub(crate) fn lead(&self) -> bool {
        self.inner.lead()
    }

    /// Runs the WAL sync that fell due under the `batch` fsync policy.
    pub(crate) fn sync_wal_if_due(&self) {
        self.inner.maybe_sync_wal();
    }

    /// Tickets on the waiter list, abandoned ones included until the next
    /// fire or registration prunes them.
    pub fn waiters(&self) -> usize {
        self.inner.engine.waiters().len()
    }

    /// Registers a subscription (the `SUB` verb): `kind` selects a pair
    /// trigger (`u`/`v` — fire once when they connect) or a component
    /// trigger (`v` watched, `u` ignored — fire on every identity change
    /// of `v`'s component). `sink` receives pushed events (`None`
    /// registers detached, as recovery does); `durable` logs an `'S'`
    /// record so the subscription survives restarts — it requires the
    /// WAL and is therefore a primary-only option. Returns the assigned
    /// id and the registration epoch; a pair already connected at
    /// registration fires immediately (at that epoch).
    pub fn subscribe(
        &self,
        kind: SubKind,
        u: u32,
        v: u32,
        durable: bool,
        sink: Option<Arc<dyn SubSink>>,
    ) -> Result<(u64, u64), ServiceError> {
        if self.inner.closed.load(Ordering::Acquire) {
            return Err(ServiceError::Closed);
        }
        self.in_range(if kind == SubKind::Pair { [u, v] } else { [v, v] })?;
        if durable && self.inner.wal.is_none() {
            return Err(ServiceError::DurabilityDisabled);
        }
        let id = self.inner.subs.reserve();
        // Channel before trigger: a registration-time fire must find its
        // delivery channel already open.
        self.inner.subs.open(id, durable, sink);
        let epoch = self.epoch();
        // A durable registration holds the WAL mutex from its `'S'` append
        // until the engine knows it, so a checkpoint (which reads the
        // registry under that mutex, then prunes the `'S'`) never loses it.
        let mut wal = self.inner.wal.as_ref().filter(|_| durable).map(|w| w.lock());
        let op = SubWalOp::Register { id, kind, u, v, epoch };
        if let Some(Err(e)) = wal.as_mut().map(|w| w.append_sub(&op)) {
            drop(wal);
            self.inner.subs.close(id);
            let err = ServiceError::from(e);
            self.inner.note_wal_error(&err.to_string());
            return Err(err);
        }
        self.inner.engine.subs_register(id, kind, u, v, durable, epoch);
        drop(wal);
        self.inner.obs.metrics.subs_active.set(self.inner.engine.subs_len() as u64);
        // Deliver a registration-time fire (already-connected pair)
        // promptly instead of waiting for the next batch — but never
        // stamp another batch's in-flight fires with a stale epoch.
        self.inner.drain_sub_events_prompt();
        Ok((id, epoch))
    }

    /// Cancels a subscription (the `UNSUB` verb). Durable cancellations
    /// log an `'S'` cancel record (best effort — the trigger is gone
    /// either way; a failure is surfaced through `WALSTATS` and at worst
    /// re-registers a one-shot trigger on recovery).
    pub fn unsubscribe(&self, id: u64) -> Result<(), ServiceError> {
        let Some(durable) = self.inner.engine.subs_cancel(id) else {
            return Err(ServiceError::UnknownSubscription { id });
        };
        if durable {
            if let Some(w) = &self.inner.wal {
                if let Err(e) = w.lock().append_sub(&SubWalOp::Cancel { id }) {
                    self.inner.note_wal_error(&e.to_string());
                }
            }
        }
        self.inner.subs.close(id);
        self.inner.obs.metrics.subs_active.set(self.inner.engine.subs_len() as u64);
        Ok(())
    }

    /// Re-binds a sink to a durable subscription (the `SUB ATTACH` verb)
    /// and replays retained events with sequence numbers past
    /// `after_seq` — the resume path after a subscriber crash. Returns
    /// the highest sequence number assigned to the subscription so far.
    pub fn attach_sub(
        &self,
        id: u64,
        after_seq: u64,
        sink: Arc<dyn SubSink>,
    ) -> Result<u64, ServiceError> {
        if self.inner.closed.load(Ordering::Acquire) {
            return Err(ServiceError::Closed);
        }
        match self.inner.subs.attach(id, after_seq, sink) {
            Ok(last_seq) => Ok(last_seq),
            Err(AttachError::Unknown) => Err(ServiceError::UnknownSubscription { id }),
        }
    }

    /// Detaches `sink` from a subscription without cancelling it, if the
    /// subscription still holds it: the connection-close path. A durable
    /// subscription keeps retaining events for a later
    /// [`Client::attach_sub`]; an ephemeral one should be
    /// [`Client::unsubscribe`]d instead.
    pub fn detach_sub(&self, id: u64, sink: &Arc<dyn SubSink>) {
        self.inner.subs.detach(id, sink);
    }

    /// Lists the live subscriptions (the `SUBS` verb), id-ascending.
    pub fn subs_info(&self) -> Vec<SubInfo> {
        self.inner.engine.subs_list()
    }

    /// This service's replication role.
    pub fn role(&self) -> Role {
        self.inner.cfg.role
    }

    /// Whether the service has shut down (new submissions are rejected).
    pub fn is_closed(&self) -> bool {
        self.inner.closed.load(Ordering::Acquire)
    }

    /// Queues a submission (or a zero-op control); a batch fulfills its
    /// ticket. A submission that finds no leader running offers its own
    /// ticket the lead.
    fn push(
        &self,
        ops: Vec<Update>,
        num_queries: usize,
        num_deletes: usize,
        work: Work,
    ) -> Result<(), ServiceError> {
        let mut q = self.inner.q.lock();
        if self.is_closed() {
            return Err(ServiceError::Closed);
        }
        if !q.leading {
            work.offer_lead(false);
        }
        q.queue.push_back(Pending {
            num_queries,
            num_deletes,
            ops,
            enqueued: Instant::now(),
            work,
        });
        Ok(())
    }

    /// Inserts one edge (batched like any submission).
    pub fn insert(&self, u: u32, v: u32) -> Result<(), ServiceError> {
        self.submit(vec![Update::Insert(u, v)]).map(|_| ())
    }

    /// Deletes one edge (batched like any submission). Deleting an edge
    /// that is absent — never inserted, or already deleted — is a no-op,
    /// as is deleting a live non-forest edge (a cycle edge cannot change
    /// connectivity). Deleting a spanning-forest edge seals the current
    /// generation and schedules a background rebuild; queries serve the
    /// sealed partition until the next generation commits (`DESIGN.md` §9).
    pub fn delete(&self, u: u32, v: u32) -> Result<(), ServiceError> {
        self.submit(vec![Update::Delete(u, v)]).map(|_| ())
    }

    /// Asks whether `u` and `v` are connected (batched like any
    /// submission; linearized at its batch).
    pub fn query(&self, u: u32, v: u32) -> Result<bool, ServiceError> {
        Ok(self.submit(vec![Update::Query(u, v)])?[0])
    }

    /// [`Self::query`], additionally reporting the sealed generation the
    /// answer was served from: `(answer, None)` for an exact answer,
    /// `(answer, Some(gen))` when a rebuild was in flight and the answer
    /// came from generation `gen`'s sealed partition. The pair is read
    /// atomically with the answer (the `QG` protocol verb).
    pub fn query_gen(&self, u: u32, v: u32) -> Result<(bool, Option<u64>), ServiceError> {
        Ok(self.submit_tagged(vec![Update::Query(u, v)])?[0])
    }

    /// Lock-free read-side query: answered directly against the serving
    /// partition without going through the queue, concurrently
    /// with in-flight batches (paper Type (i)).
    pub fn query_now(&self, u: u32, v: u32) -> Result<bool, ServiceError> {
        self.in_range([u, v])?;
        Ok(self.inner.engine.connected(u, v))
    }

    /// The current component label of `v` without snapshotting the whole
    /// labeling. Exact between batches on a clean generation; while a
    /// rebuild is in flight it reads the sealed generation's partition.
    pub fn current_label(&self, v: u32) -> Result<u32, ServiceError> {
        self.in_range([v])?;
        Ok(self.inner.engine.current_label(v))
    }

    /// Current number of connected components, served O(1) from the
    /// delta-maintained analytics publication — no label scan. May lag
    /// an in-flight batch (a leader publishes before fulfilling its
    /// pendings, so a client always observes its own completed writes);
    /// during a sealed generation it reports the frozen pre-deletion
    /// partition, exactly like `Q` does.
    pub fn num_components(&self) -> usize {
        self.inner.engine.analytics_view().components as usize
    }

    /// The current analytics view — one `Arc` clone off the
    /// epoch-versioned publication, never contending with the write
    /// path. Backs the `TOPK`, `HIST` and `SIZE` protocol verbs; on a
    /// follower it converges at the honestly-replicated epoch.
    pub fn analytics(&self) -> Arc<AnalyticsView> {
        self.inner.engine.analytics_view()
    }

    /// The `k` largest components as `(root, size)` in descending size
    /// order (singletons excluded; at most
    /// [`crate::analytics::TOPK_CAP`] are materialized per view),
    /// with the view's `(epoch, generation, sealed)` stamp.
    pub fn topk(&self, k: usize) -> (Vec<(u32, u64)>, u64, u64, bool) {
        let view = self.inner.engine.analytics_view();
        (view.topk(k).to_vec(), view.epoch, view.generation, view.sealed)
    }

    /// `(root, size)` of `v`'s component, read lock-free from the
    /// analytics core (the `SIZE` verb). Between publications the
    /// answer may run ahead of the view's epoch, never behind it.
    pub fn component_size(&self, v: u32) -> Result<(u32, u64), ServiceError> {
        self.in_range([v])?;
        Ok(self.inner.engine.analytics_view().component_of(v))
    }

    /// Number of committed write batches (the current epoch).
    pub fn epoch(&self) -> u64 {
        self.inner.epoch.load(Ordering::Acquire)
    }

    /// The component label of every vertex, read off the serving
    /// partition (the sealed one while a rebuild is in flight; quiesce
    /// first for an exact labeling). Takes no writer lock.
    pub fn labels(&self) -> Vec<u32> {
        self.inner.engine.labels_readonly()
    }

    /// Whether the service runs with a write-ahead log.
    pub fn wal_enabled(&self) -> bool {
        self.inner.wal.is_some()
    }

    /// Forces the WAL to disk after the next batch, regardless of the
    /// fsync policy (the `FLUSH` protocol verb). Everything acknowledged
    /// before this returns survives a machine crash.
    pub fn flush_wal(&self) -> Result<(), ServiceError> {
        self.wait_barrier(Barrier::Flush, None).map(drop)
    }

    /// Writes a checkpoint record of the live edge set at the next batch
    /// boundary and blocks until it is on disk (the `SNAPSHOT` protocol
    /// verb); returns the epoch it is keyed by. Never waits for a
    /// rebuild. Recovery replays only the log from that checkpoint on,
    /// and the segments before it are pruned.
    pub fn durable_snapshot(&self) -> Result<u64, ServiceError> {
        self.wait_barrier(Barrier::Snapshot, None)
    }

    /// The generation currently serving queries, its dirty flag, and the
    /// engine's delete-classification counters (the `GEN` protocol verb).
    pub fn generation_info(&self) -> GenInfo {
        self.inner.engine.info()
    }

    /// Blocks until no generation rebuild is in flight (the `QUIESCE`
    /// protocol verb) and returns the clean generation then serving.
    /// Once it returns — and until the next forest deletion — queries
    /// are exact, not sealed-generation stale, which is what the churn
    /// loadgen's exact validation phases rely on. Times out with
    /// [`ServiceError::QuiesceTimeout`], reporting the generation still
    /// serving.
    pub fn quiesce(&self, timeout: Duration) -> Result<u64, ServiceError> {
        self.wait_barrier(Barrier::Clean, Some(timeout))
    }

    /// The directory the replication listener ships: the service's own
    /// WAL. An in-memory service (a follower included) has no log to
    /// ship, so it gets [`ServiceError::DurabilityDisabled`].
    pub(crate) fn wal_dir(&self) -> Result<PathBuf, ServiceError> {
        let durability = self.inner.cfg.durability.as_ref();
        durability.map(|d| d.dir.clone()).ok_or(ServiceError::DurabilityDisabled)
    }

    /// One-line WAL statistics (the `WALSTATS` protocol verb): policy,
    /// segment/record/byte/sync counters, the last logged and
    /// last-snapshotted epochs, torn bytes dropped by recovery, and the
    /// most recent durability error if any. A compat shim over the
    /// metrics registry — the counters are the WAL's write-time mirrors,
    /// so this takes no WAL lock and its wire spelling is unchanged.
    pub fn wal_stats(&self) -> Result<String, ServiceError> {
        if self.inner.wal.is_none() {
            return Err(ServiceError::DurabilityDisabled);
        }
        let m = &self.inner.obs.metrics;
        let stats = WalStats {
            policy: self
                .inner
                .cfg
                .durability
                .as_ref()
                .expect("a live wal implies a durability config")
                .fsync,
            segments: m.wal_segments.get(),
            records: m.wal_records_total.get(),
            appended_bytes: m.wal_bytes_total.get(),
            syncs: m.wal_fsyncs_total.get(),
            last_epoch: m.wal_last_epoch.get(),
            torn_bytes: m.wal_torn_bytes.get(),
        };
        let snap_epoch = m.durable_snapshot_epoch.get();
        let last_error = self
            .inner
            .last_wal_error
            .lock()
            .as_deref()
            .map_or_else(|| "-".to_string(), sanitize_error_token);
        Ok(format!("{stats} snap_epoch={snap_epoch} last_error={last_error}"))
    }

    /// A point-in-time stats view — a compat shim over the metrics
    /// registry for the op counters and latency histogram.
    pub fn stats(&self) -> ServiceStats {
        let m = &self.inner.obs.metrics;
        let inserts = m.inserts_total.get();
        let deletes = m.deletes_total.get();
        let queries = m.queries_total.get();
        ServiceStats {
            epoch: self.epoch(),
            ops: inserts + deletes + queries,
            inserts,
            deletes,
            queries,
            num_components: self.inner.engine.analytics_view().components as usize,
            latency_ns: m.latency_ns.percentiles(),
            latency_summary: m.latency_ns.to_string(),
        }
    }

    /// The service's observability plane (shared by the wire layer, the
    /// replication hub, and embedders that want to scrape in-process).
    pub fn observability(&self) -> Arc<Obs> {
        Arc::clone(&self.inner.obs)
    }

    /// Renders the metrics registry in the `METRICS` verb's exposition
    /// format, without the `# EOF` terminator (the wire layer and file
    /// writers append it). Lock-free: every value is a relaxed atomic
    /// load of a write-time mirror — no queue, WAL, or engine lock.
    pub fn render_metrics(&self) -> Vec<String> {
        self.inner.obs.metrics.render()
    }

    /// Renders the most recent `n` flight-recorder events (the `TRACE`
    /// verb), oldest first, without the `# EOF` terminator.
    pub fn trace_events(&self, n: usize) -> Vec<String> {
        self.inner.obs.recorder.render_last(n)
    }
}

/// Collapses a free-form error message into one whitespace-free token so
/// it can ride the one-line `key=value` grammar of `WALSTATS`: a
/// `Durability` error carries paths, offsets, and io::Error text with
/// spaces (and potentially newlines), and interpolating it raw would
/// break every split-on-whitespace `STATS` parser. Whitespace runs
/// become a single `_`; an empty message renders as the `-` sentinel.
fn sanitize_error_token(s: &str) -> String {
    let out = s.split_whitespace().collect::<Vec<_>>().join("_");
    if out.is_empty() {
        "-".to_string()
    } else {
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::{FsyncPolicy, WalCursor};
    use std::path::PathBuf;

    fn tmp_dir(tag: &str) -> PathBuf {
        crate::scratch_dir(&format!("svc_{tag}"))
    }

    #[test]
    fn a_leader_runs_one_batch_then_offers_the_oldest_submission_the_lead() {
        let cfg = ServiceConfig { n: 64, batch_max_ops: 1, ..ServiceConfig::default() };
        let svc = Service::start(cfg).expect("start");
        let client = svc.client();
        let tickets: Vec<SubmitTicket> = (0..4)
            .map(|i| client.submit_tagged_async(vec![Update::Insert(i, i + 1)], None))
            .collect::<Result<_, _>>()
            .expect("queued");
        let offered = || tickets.iter().map(|t| t.take_lead()).collect::<Vec<_>>();
        assert_eq!(offered(), [true; 4], "every push found no leader running");
        assert!(client.lead());
        let done = || tickets.iter().map(|t| t.try_take().is_some()).collect::<Vec<_>>();
        assert_eq!(done(), [true, false, false, false], "one submission a batch, one batch a turn");
        assert_eq!(offered(), [false, true, false, false], "the oldest queued holds the offer");
        assert!(client.lead());
        assert_eq!(done(), [false, true, false, false]);
        assert_eq!(offered(), [false, false, true, false]);
        while client.lead() {}
        assert_eq!(done(), [false, false, true, true]);
    }

    #[test]
    fn an_abandoned_heir_takes_no_offer_and_the_leader_leads_on() {
        let cfg = ServiceConfig { n: 64, batch_max_ops: 1, ..ServiceConfig::default() };
        let svc = Service::start(cfg).expect("start");
        let client = svc.client();
        let tickets: Vec<SubmitTicket> = (0..4)
            .map(|i| client.submit_tagged_async(vec![Update::Insert(i, i + 1)], None))
            .collect::<Result<_, _>>()
            .expect("queued");
        assert!(tickets.iter().all(|t| t.take_lead()));
        assert!(!tickets[1].abandon(), "no offer was pending");
        assert!(client.lead());
        let done = || tickets.iter().map(|t| t.try_take().is_some()).collect::<Vec<_>>();
        assert_eq!(done(), [true, true, false, false], "the leader ran the gone heir's batch");
        assert!(tickets[2].abandon(), "the next heir holds the offer");
    }

    fn durable_cfg(n: usize, dir: &std::path::Path) -> ServiceConfig {
        ServiceConfig {
            n,
            shards: 2,
            durability: Some(DurabilityConfig {
                fsync: FsyncPolicy::Off,
                ..DurabilityConfig::new(dir)
            }),
            ..ServiceConfig::default()
        }
    }

    #[test]
    fn durable_service_survives_restart() {
        let dir = tmp_dir("restart");
        {
            let mut svc = Service::start(durable_cfg(32, &dir)).expect("service");
            let c = svc.client();
            c.insert(1, 2).expect("insert");
            c.insert(2, 3).expect("insert");
            c.insert(10, 11).expect("insert");
            assert!(c.wal_enabled());
            c.flush_wal().expect("flush");
            assert_eq!(c.epoch(), 3);
            svc.shutdown();
        }
        let mut svc = Service::start(durable_cfg(32, &dir)).expect("recovers");
        let c = svc.client();
        // Epoch resumes where the durable history ended; state is exact.
        // (Read-side queries, so nothing here forms new batches.)
        assert_eq!(c.epoch(), 3);
        assert!(c.query_now(1, 3).expect("query"));
        assert!(c.query_now(10, 11).expect("query"));
        assert!(!c.query_now(1, 10).expect("query"));
        assert_eq!(c.num_components(), 32 - 3);
        let labels = c.labels();
        assert_eq!(labels[1], labels[3]);
        assert_ne!(labels[1], labels[10]);
        // New traffic continues the epoch sequence durably.
        c.insert(3, 4).expect("insert");
        assert_eq!(c.epoch(), 4);
        svc.shutdown();
        let mut svc = Service::start(durable_cfg(32, &dir)).expect("recovers again");
        assert!(svc.client().query_now(1, 4).expect("query"));
        assert_eq!(svc.client().epoch(), 4);
        svc.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A crash inside a segment roll can leave a final segment torn inside
    /// its magic; every later restart recovers the same epoch and
    /// partition. A hole in the segment sequence, as older releases left
    /// after such a crash, replays the segments on both sides of it.
    #[test]
    fn torn_segment_creation_never_bricks_restarts() {
        let dir = tmp_dir("torn_roll");
        let restart = |want_epoch: u64, want: &[u32]| {
            let mut svc = Service::start(durable_cfg(16, &dir)).expect("recovers");
            let c = svc.client();
            assert_eq!(c.epoch(), want_epoch);
            assert!(cc_graph::stats::same_partition(&c.labels(), want));
            svc.shutdown();
        };
        {
            let mut svc = Service::start(durable_cfg(16, &dir)).expect("service");
            let c = svc.client();
            c.insert(1, 2).expect("insert");
            c.insert(3, 4).expect("insert");
            svc.shutdown();
        }
        std::fs::write(crate::wal::segment_path(&dir, 1), b"CCW").expect("torn magic");
        let mut want: Vec<u32> = (0..16).collect();
        (want[2], want[4]) = (1, 3);
        restart(2, &want);
        restart(2, &want);

        // The record lands in segment 1. Renaming it to 2 leaves the hole
        // an older release left at a torn roll: it started the fresh
        // segment past the torn one's number.
        {
            let mut svc = Service::start(durable_cfg(16, &dir)).expect("service");
            svc.client().insert(2, 3).expect("insert");
            svc.shutdown();
        }
        let seg = |seq| crate::wal::segment_path(&dir, seq);
        std::fs::rename(seg(1), seg(2)).expect("open a hole");
        (want[3], want[4]) = (1, 1);
        restart(3, &want);
        restart(3, &want);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `wal-*.log` names in `dir` with their bytes, in sequence order.
    fn segment_files(dir: &std::path::Path) -> Vec<(String, Vec<u8>)> {
        let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
            .expect("read dir")
            .flatten()
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|name| name.starts_with("wal-"))
            .map(|name| (name.clone(), std::fs::read(dir.join(&name)).expect("read segment")))
            .collect();
        files.sort();
        files
    }

    /// A start that writes nothing leaves no empty segment behind: the
    /// next start reuses its sequence number.
    #[test]
    fn restarts_that_write_nothing_leave_one_segment() {
        let dir = tmp_dir("idle_restarts");
        for _ in 0..5 {
            Service::start(durable_cfg(16, &dir)).expect("service").shutdown();
        }
        let names: Vec<String> = segment_files(&dir).into_iter().map(|(name, _)| name).collect();
        assert_eq!(names, ["wal-00000000.log"]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Recovery that refuses the log refuses it before the log acts on
    /// the directory: the torn tail stays, and no segment is started.
    #[test]
    fn a_failed_recovery_leaves_the_segments_as_it_found_them() {
        let dir = tmp_dir("failed_recovery");
        {
            let mut svc = Service::start(durable_cfg(16, &dir)).expect("service");
            svc.client().insert(14, 15).expect("insert");
            svc.client().insert(0, 1).expect("insert");
            svc.shutdown();
        }
        let seg = crate::wal::segment_path(&dir, 0);
        let bytes = std::fs::read(&seg).expect("read");
        std::fs::write(&seg, &bytes[..bytes.len() - 5]).expect("tear the tail");
        let before = segment_files(&dir);
        let err = Service::start(durable_cfg(8, &dir)).map(|_| ()).unwrap_err();
        assert!(err.to_string().contains("n = 8"), "{err}");
        assert_eq!(segment_files(&dir), before);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn durable_snapshot_bounds_replay_and_prunes() {
        let dir = tmp_dir("snap");
        {
            let mut svc = Service::start(durable_cfg(16, &dir)).expect("service");
            let c = svc.client();
            c.insert(0, 1).expect("insert");
            c.insert(1, 2).expect("insert");
            let se = c.durable_snapshot().expect("snapshot");
            assert!(se >= 2, "snapshot epoch {se}");
            c.insert(8, 9).expect("insert past the snapshot");
            let stats = c.wal_stats().expect("wal stats");
            assert!(stats.contains("snap_epoch="), "{stats}");
            assert!(stats.contains("last_error=-"), "{stats}");
            svc.shutdown();
        }
        // Recovery = checkpoint + suffix: both the pre- and post-checkpoint
        // edges are there.
        let mut svc = Service::start(durable_cfg(16, &dir)).expect("recovers");
        let c = svc.client();
        assert!(c.query(0, 2).expect("query"));
        assert!(c.query(8, 9).expect("query"));
        assert!(!c.query(0, 8).expect("query"));
        svc.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The oldest segment is segment 0 or opens with a checkpoint; with
    /// the checkpoint's segment deleted beside the pruned ones, recovery
    /// refuses with a typed error instead of serving the suffix.
    #[test]
    fn recovery_refuses_a_history_with_a_hole() {
        let dir = tmp_dir("hole");
        for checkpoint in [true, false] {
            let mut svc = Service::start(durable_cfg(16, &dir)).expect("service");
            svc.client().insert(0, 1).expect("insert");
            if checkpoint {
                svc.client().durable_snapshot().expect("checkpoint");
            }
            svc.shutdown();
        }
        let mut cursor = WalCursor::open(&dir, 0, 0);
        cursor.oldest().expect("oldest");
        assert_ne!(cursor.position().0, 0, "the checkpoint pruned segment 0");
        std::fs::remove_file(crate::wal::segment_path(&dir, cursor.position().0))
            .expect("delete the checkpoint's segment");
        // The next segment holds the second run's batch: the surviving
        // history starts mid-stream.
        let err = Service::start(durable_cfg(16, &dir)).map(|_| ()).unwrap_err();
        assert!(matches!(&err, ServiceError::Durability(m) if m.contains("hole")), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn durable_subscriptions_recover_through_a_checkpoint() {
        let dir = tmp_dir("sub_checkpoint");
        let (kept, cancelled) = {
            let mut svc = Service::start(durable_cfg(16, &dir)).expect("service");
            let c = svc.client();
            let (kept, _) = c.subscribe(SubKind::Pair, 1, 2, true, None).expect("sub");
            let (cancelled, _) = c.subscribe(SubKind::Component, 3, 3, true, None).expect("sub");
            c.insert(4, 5).expect("insert");
            c.durable_snapshot().expect("checkpoint");
            c.unsubscribe(cancelled).expect("cancel after the checkpoint");
            svc.shutdown();
            (kept, cancelled)
        };
        assert!(!crate::wal::segment_path(&dir, 0).exists(), "the 'S' records were pruned");
        for round in 0..2 {
            let mut svc = Service::start(durable_cfg(16, &dir)).expect("recovers");
            let ids: Vec<u64> = svc.client().subs_info().iter().map(|s| s.id).collect();
            assert_eq!(ids, vec![kept], "round {round}: {cancelled} stays cancelled");
            svc.shutdown();
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn wal_stats_last_error_is_one_whitespace_free_token() {
        assert_eq!(sanitize_error_token(""), "-");
        assert_eq!(sanitize_error_token("plain"), "plain");
        assert_eq!(
            sanitize_error_token("wal append failed: No space left\non device (os error 28)"),
            "wal_append_failed:_No_space_left_on_device_(os_error_28)"
        );
        let dir = tmp_dir("last_error");
        let mut svc = Service::start(durable_cfg(16, &dir)).expect("service");
        let c = svc.client();
        c.insert(0, 1).expect("insert");
        // Plant a multi-word, multi-line error the way the append / sync
        // paths do, then check the one-line grammar survives it: the
        // whole dump must stay a single line of whitespace-free
        // `key=value` tokens.
        c.inner.note_wal_error("boom with spaces\nand a newline");
        let stats = c.wal_stats().expect("wal stats");
        assert!(stats.contains("last_error=boom_with_spaces_and_a_newline"), "{stats}");
        assert_eq!(stats.lines().count(), 1, "{stats}");
        for token in stats.split(' ') {
            assert!(token.contains('='), "non key=value token {token:?} in {stats}");
        }
        svc.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn durability_disabled_is_typed() {
        let mut svc = small_service();
        let c = svc.client();
        assert!(!c.wal_enabled());
        assert_eq!(c.flush_wal(), Err(ServiceError::DurabilityDisabled));
        assert_eq!(c.durable_snapshot(), Err(ServiceError::DurabilityDisabled));
        assert_eq!(c.wal_stats(), Err(ServiceError::DurabilityDisabled));
        svc.shutdown();
    }

    #[test]
    fn restart_with_wrong_n_is_rejected_with_context() {
        let dir = tmp_dir("wrong_n");
        {
            let mut svc = Service::start(durable_cfg(16, &dir)).expect("service");
            svc.client().insert(14, 15).expect("insert");
            svc.shutdown();
        }
        let err = match Service::start(durable_cfg(8, &dir)) {
            Err(e) => e.to_string(),
            Ok(_) => panic!("recovery with a smaller n must fail"),
        };
        assert!(err.contains("n = 8"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);

        // Past a checkpoint the pruned WAL no longer names any vertex, so
        // a *larger* n would replay cleanly: the checkpoint's n rejects it.
        let dir = tmp_dir("wrong_n_snap");
        {
            let mut svc = Service::start(durable_cfg(16, &dir)).expect("service");
            svc.client().insert(0, 1).expect("insert");
            svc.client().durable_snapshot().expect("snapshot");
            svc.shutdown();
        }
        let err = match Service::start(durable_cfg(32, &dir)) {
            Err(e) => e.to_string(),
            Ok(_) => panic!("recovery with a larger n must fail"),
        };
        assert!(err.contains("covers 16 vertices") && err.contains("n = 32"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A forest delete seals a generation whose rebuild is held open; the
    /// epoch cadence and an explicit `SNAPSHOT` still write checkpoints
    /// (the live edge set is exact while sealed), the WAL still prunes,
    /// and a restart recovers the oracle's partition.
    #[test]
    fn cadence_snapshots_land_while_sealed() {
        let dir = tmp_dir("sealed_cadence");
        let durable = |hold: Duration| ServiceConfig {
            rebuild_hold: hold,
            durability: Some(DurabilityConfig {
                fsync: FsyncPolicy::Off,
                snapshot_every: 4,
                ..DurabilityConfig::new(&dir)
            }),
            ..durable_cfg(16, &dir)
        };
        let mut oracle = cc_baselines::DynamicOracle::new(16);
        let mut svc = Service::start(durable(Duration::from_secs(60))).expect("service");
        let c = svc.client();
        let mut submit = |ops: Vec<Update>| {
            oracle.apply_batch(&ops);
            c.submit(ops).expect("submit");
        };
        submit(vec![Update::Insert(0, 1)]);
        submit(vec![Update::Delete(0, 1)]); // forest delete: seals
        for i in 0..12u32 {
            let mut ops = vec![Update::Insert(2 + i, 3 + i)];
            if i % 3 == 2 {
                ops.push(Update::Delete(1 + i, 2 + i)); // live edge, while sealed
            }
            submit(ops);
        }
        assert_eq!(c.epoch(), 14);
        assert!(c.generation_info().dirty, "the rebuild is held open");
        let stats = c.wal_stats().expect("wal stats");
        assert!(stats.contains(" snap_epoch=12 "), "{stats}");
        let segments: u64 = stats
            .split(' ')
            .find_map(|t| t.strip_prefix("segments="))
            .and_then(|v| v.parse().ok())
            .expect("segments token");
        assert!(segments <= 2, "covered segments were pruned: {stats}");
        let t0 = Instant::now();
        // A `SNAPSHOT` alone commits no batch: it keys at the current epoch.
        assert_eq!(c.durable_snapshot().expect("SNAPSHOT while sealed"), 14);
        assert!(t0.elapsed() < Duration::from_secs(1), "took {:?}", t0.elapsed());
        assert!(c.generation_info().dirty, "still sealed");
        svc.shutdown();

        let mut svc = Service::start(durable(Duration::ZERO)).expect("recovers");
        let c = svc.client();
        assert_eq!(c.epoch(), 14);
        assert!(cc_graph::stats::same_partition(&oracle.labels(), &c.labels()));
        svc.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// One deletion-bearing history with a cadence checkpoint in its middle,
    /// replayed through both doors — a restart on its directory, and a
    /// fresh follower of the restarted primary's replication listener —
    /// lands on one
    /// state: epoch, live edge set, partition, analytics, and a clean
    /// generation 0 that counted no rebuild.
    #[test]
    fn same_log_same_state_through_both_doors() {
        use crate::replication::run_follower;
        let dir = tmp_dir("two_doors");
        let cfg = || ServiceConfig {
            durability: Some(DurabilityConfig {
                fsync: FsyncPolicy::Off,
                snapshot_every: 6,
                ..DurabilityConfig::new(&dir)
            }),
            ..durable_cfg(48, &dir)
        };
        {
            let mut svc = Service::start(cfg()).expect("primary");
            let c = svc.client();
            let mut live: Vec<(u32, u32)> = Vec::new();
            for round in 0..10u32 {
                let mut ops = Vec::new();
                for i in 0..8u32 {
                    let x = round * 37 + i * 11;
                    if i % 3 == 2 && !live.is_empty() {
                        let (u, v) = live.swap_remove(x as usize % live.len());
                        ops.push(Update::Delete(u, v));
                    } else {
                        live.push((x % 48, (x * 7 + 5) % 48));
                        ops.push(Update::Insert(x % 48, (x * 7 + 5) % 48));
                    }
                }
                c.submit(ops).expect("submit");
            }
            assert!(c.generation_info().counters.deletes_forest > 0, "forest deletes replay");
            svc.shutdown();
        }
        let mut restarted = Service::start(cfg()).expect("recovers");
        let r = restarted.client();
        assert!(r.wal_stats().expect("wal").contains(" snap_epoch=6 "));
        let net = crate::NetConfig { replication_port: Some(0), ..crate::NetConfig::default() };
        let mut server = crate::serve_with(&restarted, "127.0.0.1:0", net).expect("serve");
        let shutdown = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let mut follower = Service::start(ServiceConfig {
            n: 48,
            role: Role::Follower,
            ..ServiceConfig::default()
        })
        .expect("follower");
        let f = follower.client();
        let addr = server.replication_addr().expect("replication listener").to_string();
        let h = run_follower(f.clone(), addr, Arc::clone(&shutdown)).expect("recv");
        f.wait_for_epoch(10, Duration::from_secs(20)).expect("follower catches up");
        assert_eq!(f.observability().metrics.repl_snapshots_applied_total.get(), 1);

        let edges = |c: &Client| {
            let mut e: Vec<u64> = c
                .inner
                .engine
                .edge_list()
                .iter()
                .map(|&(u, v)| connectit::canon_edge(u, v))
                .collect();
            e.sort_unstable();
            e
        };
        assert_eq!((r.epoch(), f.epoch()), (10, 10));
        assert_eq!(edges(&r), edges(&f));
        assert!(cc_graph::stats::same_partition(&r.labels(), &f.labels()));
        let (ra, fa) = (r.analytics(), f.analytics());
        assert_eq!((ra.components, &ra.hist), (fa.components, &fa.hist));
        for c in [&r, &f] {
            let info = c.generation_info();
            assert_eq!((info.generation, info.dirty, info.counters.rebuilds), (0, false, 0));
        }

        shutdown.store(true, Ordering::Release);
        h.join().expect("receiver exits");
        server.stop();
        follower.shutdown();
        restarted.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn small_service() -> Service {
        Service::start(ServiceConfig { n: 64, shards: 4, ..ServiceConfig::default() })
            .expect("service starts")
    }

    #[test]
    fn follower_applies_stream_and_serves_reads_at_honest_epoch() {
        let mut svc = Service::start(ServiceConfig {
            n: 64,
            shards: 4,
            role: Role::Follower,
            ..ServiceConfig::default()
        })
        .expect("follower starts");
        let c = svc.client();
        assert_eq!(c.role(), Role::Follower);
        assert_eq!(c.epoch(), 0);
        // Local writes are rejected with the routing hint.
        assert_eq!(c.insert(1, 2), Err(ServiceError::ReadOnlyFollower));
        assert_eq!(
            c.submit(vec![Update::Insert(1, 2), Update::Query(1, 2)]),
            Err(ServiceError::ReadOnlyFollower)
        );
        // The replication stream is the only write path; epochs mirror
        // the primary's (here: a checkpoint at 3 then batches 4 and 5).
        let ins = |u, v| LogRecord::Ops(vec![Update::Insert(u, v)]);
        let checkpoint = LogRecord::Checkpoint { n: 64, subs: Vec::new(), edges: vec![(1, 2)] };
        c.apply_log(3, checkpoint).expect("checkpoint bootstrap");
        assert_eq!(c.epoch(), 0, "a checkpoint lands behind: the epoch holds");
        c.apply_log(3, LogRecord::CaughtUp).expect("caught up");
        assert_eq!(c.epoch(), 3);
        c.apply_log(4, ins(2, 3)).expect("batch");
        c.apply_log(5, LogRecord::Ops(Vec::new())).expect("query-only epoch");
        assert_eq!(c.epoch(), 5);
        assert!(c.query(1, 3).expect("read"));
        assert!(!c.query(1, 4).expect("read"));
        // Redelivery (a reconnect replays a suffix) is harmless and the
        // epoch never regresses.
        c.apply_log(4, ins(2, 3)).expect("redelivery");
        assert_eq!(c.epoch(), 5);
        let stats = c.stats();
        assert!(stats.queries >= 2);
        svc.shutdown();
        assert_eq!(c.query(1, 3), Err(ServiceError::Closed));
    }

    #[test]
    fn follower_rejects_durability_and_primary_rejects_apply() {
        let dir = tmp_dir("follower_wal");
        let err = match Service::start(ServiceConfig {
            n: 16,
            role: Role::Follower,
            durability: Some(DurabilityConfig::new(&dir)),
            ..ServiceConfig::default()
        }) {
            Err(e) => e,
            Ok(_) => panic!("follower + wal must be rejected"),
        };
        assert!(err.to_string().contains("belongs to the primary"), "{err}");
        let mut svc = small_service();
        let err = svc.client().apply_log(1, LogRecord::CaughtUp).expect_err("primary apply");
        assert!(err.to_string().contains("not a follower"), "{err}");
        svc.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn wait_for_epoch_blocks_until_reached_and_times_out_honestly() {
        let mut svc = Service::start(ServiceConfig {
            n: 32,
            shards: 2,
            role: Role::Follower,
            ..ServiceConfig::default()
        })
        .expect("follower starts");
        let c = svc.client();
        // Already-reached targets return immediately.
        assert_eq!(c.wait_for_epoch(0, Duration::from_millis(1)).expect("no wait"), 0);
        // A timeout reports both sides of the gap.
        assert_eq!(
            c.wait_for_epoch(7, Duration::from_millis(20)),
            Err(ServiceError::WaitTimeout { target: 7, at: 0 })
        );
        // A concurrent apply wakes the waiter.
        let waiter = c.clone();
        let h = std::thread::spawn(move || waiter.wait_for_epoch(2, Duration::from_secs(10)));
        std::thread::sleep(Duration::from_millis(10));
        c.apply_log(2, LogRecord::Ops(vec![Update::Insert(0, 1)])).expect("apply");
        assert_eq!(h.join().expect("thread").expect("wait succeeds"), 2);
        svc.shutdown();
        assert_eq!(c.wait_for_epoch(99, Duration::from_secs(10)), Err(ServiceError::Closed));
    }

    #[test]
    fn wait_for_epoch_works_on_primary_batches() {
        let mut svc = small_service();
        let c = svc.client();
        c.insert(0, 1).expect("insert");
        let e = c.epoch();
        assert!(c.wait_for_epoch(e, Duration::from_secs(5)).expect("reached") >= e);
        svc.shutdown();
    }

    #[test]
    fn insert_then_query_roundtrip() {
        let mut svc = small_service();
        let c = svc.client();
        c.insert(1, 2).expect("insert");
        c.insert(2, 3).expect("insert");
        assert!(c.query(1, 3).expect("query"));
        assert!(!c.query(1, 4).expect("query"));
        assert!(c.query_now(1, 3).expect("query_now"));
        assert_eq!(c.current_label(1).expect("label"), c.current_label(3).expect("label"));
        assert_eq!(c.num_components(), 62);
        let stats = c.stats();
        assert_eq!(stats.inserts, 2);
        assert!(stats.queries >= 2);
        assert!(stats.epoch >= 1);
        assert!(stats.latency_summary.contains("p999="));
        svc.shutdown();
    }

    #[test]
    fn submit_validates_and_preserves_query_order() {
        let mut svc = small_service();
        let c = svc.client();
        let r = c
            .submit(vec![
                Update::Insert(0, 1),
                Update::Query(0, 1),
                Update::Insert(2, 3),
                Update::Query(63, 0),
            ])
            .expect("submit");
        assert_eq!(r.len(), 2);
        assert!(!r[1], "63 is isolated from 0 in every linearization");
        assert_eq!(
            c.submit(vec![Update::Insert(0, 64)]),
            Err(ServiceError::VertexOutOfRange { v: 64, n: 64 })
        );
        assert_eq!(c.submit(Vec::new()).expect("empty"), Vec::new());
        svc.shutdown();
    }

    #[test]
    fn shutdown_closes_queue() {
        let mut svc = small_service();
        let c = svc.client();
        c.insert(0, 1).expect("insert");
        svc.shutdown();
        svc.shutdown(); // idempotent
        assert_eq!(c.insert(2, 3), Err(ServiceError::Closed));
        assert_eq!(c.query(4, 5), Err(ServiceError::Closed));
        // Read paths stay alive after shutdown.
        assert!(c.query_now(0, 1).expect("read"));
    }

    #[test]
    fn many_threads_one_service() {
        let mut svc =
            Service::start(ServiceConfig { n: 4096, shards: 4, ..ServiceConfig::default() })
                .expect("service starts");
        let c = svc.client();
        std::thread::scope(|s| {
            for t in 0..4u32 {
                let c = c.clone();
                s.spawn(move || {
                    // Each thread links its own arithmetic progression.
                    let base = t * 1024;
                    for i in 0..255u32 {
                        c.insert(base + i, base + i + 1).expect("insert");
                    }
                    assert!(c.query(base, base + 255).expect("query"));
                    assert!(!c.query(base, (base + 1024) % 4096).expect("query"));
                });
            }
        });
        let stats = c.stats();
        assert_eq!(stats.inserts, 4 * 255);
        svc.shutdown();
    }
}
