//! The subscription plane: push merge events at the epoch they land.
//!
//! Clients register interest in connectivity changes instead of polling
//! `Q u v`: a **pair** subscription (`SUB u v`) fires once, at the first
//! committed epoch at-or-after registration in whose batch `u` and `v`
//! became connected; a **component** subscription (`SUB COMPONENT v`)
//! fires every time the identity of `v`'s component changes — a merge
//! uniting it with another component during a clean window, or a rebuild
//! commit (a new generation trivially re-identifies every component).
//!
//! ## Trigger index
//!
//! [`SubsCore`] lives inside the generation engine's writer state, next
//! to the analytics aggregates, and consumes the *same*
//! [`MergeOutcome`] stream off the liveness tracker's partition — it
//! keeps no union-find of its own. Subscriptions are bucketed by the
//! **root** of the component they are watching, so a batch of `b` merges
//! fires matching subscriptions in O(b + moved + fired): the losing
//! root's bucket migrates under the winner named by the outcome, and a
//! registry of a million idle subscriptions costs a merge two hash
//! probes. There is no registry rescan anywhere on the hot path, and a
//! cancel strikes its id from its at most two buckets on the spot.
//!
//! ## Stamping discipline
//!
//! Fires are buffered, not delivered inline: the engine does not know
//! the epoch a batch will commit as (the batch former assigns it after
//! the apply). The batcher drains the buffer via
//! [`crate::GenerationEngine::drain_sub_fires`] immediately after it
//! publishes an epoch, stamping every unstamped fire with exactly that
//! `(epoch, generation)`. Rebuild commits stamp their fires at the
//! deferred epoch high-water mark themselves (the same mark the
//! analytics republication uses), so deletions never strand a trigger
//! and never mislabel one. The invariant delivered to clients: an event
//! stamped `(e, g)` means the merge committed in the course of batch `e`
//! and the subscription's watch condition held in the serving state that
//! batch produced.
//!
//! ## Delivery
//!
//! [`SubsDispatch`] owns per-subscription channels *outside* the writer
//! lock: it assigns the per-subscription sequence numbers, pushes events
//! into whatever [`SubSink`] the owning connection attached (the event
//! loop shard's push queue, for either door — non-blocking), and retains
//! undelivered events for **durable** subscriptions so a subscriber can
//! crash, reconnect, and `SUB ATTACH id after_seq` its way back to
//! exactly-once delivery. A slow consumer whose events outgrow its write
//! budget is dropped by the shard with a typed `ConnClosed{sub-overflow}`,
//! never a silent event drop. A sink that reports itself dead detaches;
//! an ephemeral subscription dies with its sink, a durable one goes back
//! to retention.

use cc_unionfind::{MergeOutcome, SizedUnionFind};
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::Instant;

/// Retained (undelivered) events kept per durable subscription while no
/// sink is attached. A pair subscription retains at most its single
/// event; a component subscription past the cap drops its *oldest*
/// retained event (the stream is documented as bounded-replay: the
/// re-attaching subscriber sees the most recent [`RETAIN_CAP`] identity
/// changes, with sequence numbers making any gap explicit).
pub const RETAIN_CAP: usize = 1024;

/// What a subscription watches.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SubKind {
    /// Fire once when two vertices become connected.
    Pair,
    /// Fire on every identity change of one vertex's component.
    Component,
}

impl SubKind {
    /// Wire code (`0` pair, `1` component) — shared by the WAL `'S'`
    /// record body and the binary SUBSCRIBE request.
    pub fn code(self) -> u8 {
        match self {
            SubKind::Pair => 0,
            SubKind::Component => 1,
        }
    }

    /// Inverse of [`SubKind::code`].
    pub fn from_code(c: u8) -> Option<SubKind> {
        match c {
            0 => Some(SubKind::Pair),
            1 => Some(SubKind::Component),
            _ => None,
        }
    }
}

/// One pushed subscription event, stamped with the exact
/// `(epoch, generation)` at which the merge (or rebuild commit)
/// committed. `seq` is per-subscription, 1-based and gap-free in
/// delivery order — the client-side dedupe key across reconnects.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SubEvent {
    /// The subscription this event belongs to.
    pub id: u64,
    /// Pair or component.
    pub kind: SubKind,
    /// Pair: the registered `u`. Component: the watched vertex.
    pub u: u32,
    /// Pair: the registered `v`. Component: the watched vertex again.
    pub v: u32,
    /// Root (representative vertex) of the watched component after the
    /// change.
    pub root: u32,
    /// Size of the watched component after the change.
    pub size: u64,
    /// Epoch of the batch in whose course the change committed.
    pub epoch: u64,
    /// Generation serving when the change committed.
    pub generation: u64,
    /// Per-subscription delivery sequence number (assigned by
    /// [`SubsDispatch`]; 0 until then).
    pub seq: u64,
}

/// A fire drained from the engine, paired with its creation instant so
/// the dispatch can record fire-to-sink latency.
#[derive(Clone, Copy, Debug)]
pub struct PendingEvent {
    /// The stamped event (seq still 0).
    pub ev: SubEvent,
    /// When the trigger fired inside the engine.
    pub at: Instant,
}

/// A durable subscription operation as logged to (and recovered from)
/// the WAL's `'S'` records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SubWalOp {
    /// A durable subscription was registered.
    Register {
        /// Assigned subscription id.
        id: u64,
        /// What it watches.
        kind: SubKind,
        /// Pair `u` (== `v` for component subscriptions).
        u: u32,
        /// Pair `v`, or the watched component vertex.
        v: u32,
        /// Committed epoch at registration time.
        epoch: u64,
    },
    /// A durable subscription was cancelled.
    Cancel {
        /// The cancelled subscription id.
        id: u64,
    },
}

/// Point-in-time description of one registered subscription (the `SUBS`
/// verb).
#[derive(Clone, Copy, Debug)]
pub struct SubInfo {
    /// Subscription id.
    pub id: u64,
    /// Pair or component.
    pub kind: SubKind,
    /// Pair `u` / watched vertex.
    pub u: u32,
    /// Pair `v` / watched vertex.
    pub v: u32,
    /// Whether the subscription is WAL-logged.
    pub durable: bool,
    /// Committed epoch at registration.
    pub registered_epoch: u64,
    /// Pair subscriptions: whether the one-shot trigger has fired.
    pub fired: bool,
}

struct SubEntry {
    kind: SubKind,
    u: u32,
    v: u32,
    durable: bool,
    registered_epoch: u64,
    fired: bool,
}

impl SubEntry {
    /// The roots this trigger is bucketed under: both endpoints' for an
    /// unfired pair (equal once connected), the watched vertex's twice
    /// for a component, none for a pair that has fired.
    fn roots(&self, part: &SizedUnionFind) -> Option<(u32, u32)> {
        match self.kind {
            SubKind::Pair if self.fired => None,
            SubKind::Pair => Some((part.find(self.u), part.find(self.v))),
            SubKind::Component => {
                let r = part.find(self.v);
                Some((r, r))
            }
        }
    }
}

/// An unstamped (or commit-stamped) fire awaiting the batcher's drain.
struct Fire {
    ev: SubEvent,
    /// `None` until the drain stamps the publishing epoch.
    epoch: Option<u64>,
    at: Instant,
}

/// The trigger index, keyed by roots of the liveness tracker's partition
/// (which every method that needs it takes by reference: there is no
/// union-find here). Lives inside the generation engine's writer state;
/// every method is called under the writer lock.
#[derive(Default)]
pub struct SubsCore {
    subs: HashMap<u64, SubEntry>,
    /// root -> subscription ids triggered when that root's component
    /// changes. While armed, every key is a root of the partition and
    /// every unfired subscription is listed under [`SubEntry::roots`],
    /// nowhere else. Disarmed (empty) during recovery replay and between
    /// [`SubsCore::disarm`] and [`SubsCore::on_commit`].
    buckets: HashMap<u32, Vec<u64>>,
    fires: Vec<Fire>,
}

impl SubsCore {
    /// An empty registry.
    pub fn new() -> SubsCore {
        SubsCore::default()
    }

    /// Number of registered subscriptions.
    pub fn len(&self) -> usize {
        self.subs.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.subs.is_empty()
    }

    fn bucket(buckets: &mut HashMap<u32, Vec<u64>>, id: u64, (ru, rv): (u32, u32)) {
        buckets.entry(ru).or_default().push(id);
        if rv != ru {
            buckets.entry(rv).or_default().push(id);
        }
    }

    /// Buffers one event for `id` about the component `(root, size)`;
    /// a pair trigger is spent by it.
    fn fire(
        fires: &mut Vec<Fire>,
        id: u64,
        e: &mut SubEntry,
        (root, size): (u32, u64),
        generation: u64,
        epoch: Option<u64>,
    ) {
        e.fired = e.kind == SubKind::Pair;
        let u = if e.kind == SubKind::Pair { e.u } else { e.v };
        fires.push(Fire {
            ev: SubEvent {
                id,
                kind: e.kind,
                u,
                v: e.v,
                root,
                size,
                epoch: epoch.unwrap_or(0),
                generation,
                seq: 0,
            },
            epoch,
            at: Instant::now(),
        });
    }

    /// Registers a subscription under a caller-assigned id and arms it
    /// against `part`. A pair already connected there fires immediately,
    /// stamped with the registration epoch: the prompt drain that follows
    /// a registration must never stamp a concurrent batch's
    /// still-unpublished merge fires, and a pre-stamped fire is what lets
    /// it tell the two apart (see [`SubsCore::drain_stamped_fires`]).
    #[allow(clippy::too_many_arguments)]
    pub fn register(
        &mut self,
        part: &SizedUnionFind,
        id: u64,
        kind: SubKind,
        u: u32,
        v: u32,
        durable: bool,
        registered_epoch: u64,
        generation: u64,
    ) {
        let mut e = SubEntry { kind, u, v, durable, registered_epoch, fired: false };
        let (ru, rv) = e.roots(part).expect("a new trigger is unfired");
        if kind == SubKind::Pair && ru == rv {
            let component = part.component_of(ru);
            Self::fire(&mut self.fires, id, &mut e, component, generation, Some(registered_epoch));
        } else {
            Self::bucket(&mut self.buckets, id, (ru, rv));
        }
        self.subs.insert(id, e);
    }

    /// Recovery replay of a durable registration: stored but unarmed (the
    /// partition is not final yet) until [`SubsCore::on_commit`].
    pub fn register_unarmed(&mut self, id: u64, kind: SubKind, u: u32, v: u32, epoch: u64) {
        let e = SubEntry { kind, u, v, durable: true, registered_epoch: epoch, fired: false };
        self.subs.insert(id, e);
    }

    /// Cancels a subscription and strikes it from its (at most two)
    /// buckets; returns its durability, or `None` for an unknown id.
    pub fn cancel(&mut self, part: &SizedUnionFind, id: u64) -> Option<bool> {
        let entry = self.subs.remove(&id)?;
        if let Some((ru, rv)) = entry.roots(part) {
            for r in [ru, rv] {
                let Some(b) = self.buckets.get_mut(&r) else { continue };
                b.retain(|&x| x != id);
                if b.is_empty() {
                    self.buckets.remove(&r);
                }
            }
        }
        Some(entry.durable)
    }

    /// Folds one merge of `part` into the trigger index: the loser's
    /// bucket migrates under the winner, pairs the merge connected fire
    /// once, and component triggers on either side fire (the union is an
    /// identity change for both). O(moved + fired); free while nothing is
    /// armed.
    pub fn on_merge(&mut self, part: &SizedUnionFind, m: &MergeOutcome, generation: u64) {
        if self.buckets.is_empty() {
            return;
        }
        let moved = self.buckets.remove(&m.loser).unwrap_or_default();
        let stayed = self.buckets.remove(&m.winner).unwrap_or_default();
        let merged = (m.winner, m.merged_size());
        let mut survivors: Vec<u64> = Vec::with_capacity(moved.len() + stayed.len());
        for id in moved.into_iter().chain(stayed) {
            let e = self.subs.get_mut(&id).expect("cancel strikes buckets eagerly");
            match e.kind {
                // Listed on both sides and fired from the first.
                SubKind::Pair if e.fired => {}
                SubKind::Pair if part.find(e.u) == part.find(e.v) => {
                    Self::fire(&mut self.fires, id, e, merged, generation, None);
                }
                // The other endpoint still lives in a different bucket;
                // this side stays armed under the merged root.
                SubKind::Pair => survivors.push(id),
                SubKind::Component => {
                    Self::fire(&mut self.fires, id, e, merged, generation, None);
                    survivors.push(id);
                }
            }
        }
        if !survivors.is_empty() {
            self.buckets.insert(m.winner, survivors);
        }
    }

    /// Drops every bucket: the partition they were keyed by is being
    /// replaced, and merges folded before [`SubsCore::on_commit`] re-arms
    /// (a commit's pending drain) must not meet stale roots.
    pub fn disarm(&mut self) {
        self.buckets.clear();
    }

    /// Re-arms the registry against a replaced partition, at a rebuild
    /// commit or at recovery's end: pending pairs are re-evaluated (a pair
    /// the rebuild's drained inserts connected fires here — deletions
    /// never strand a trigger), and every component subscription fires
    /// once because a new generation re-identifies every component. Fires
    /// are stamped `commit_epoch` (a rebuild commit) or left for the next
    /// drain (recovery).
    pub fn on_commit(&mut self, part: &SizedUnionFind, generation: u64, commit_epoch: Option<u64>) {
        self.disarm();
        for (&id, e) in self.subs.iter_mut() {
            let Some((ru, rv)) = e.roots(part) else { continue };
            // One root: a component trigger, or a pair now connected.
            if ru == rv {
                let component = part.component_of(ru);
                Self::fire(&mut self.fires, id, e, component, generation, commit_epoch);
            }
            if !e.fired {
                Self::bucket(&mut self.buckets, id, (ru, rv));
            }
        }
    }

    /// Drains buffered fires, stamping every unstamped one with `epoch`.
    /// Called by the batch former right after it publishes that epoch
    /// (and on its idle tick), and by the follower apply path.
    pub fn drain_fires(&mut self, epoch: u64) -> Vec<PendingEvent> {
        if self.fires.is_empty() {
            return Vec::new();
        }
        self.fires
            .drain(..)
            .map(|mut f| {
                if f.epoch.is_none() {
                    f.ev.epoch = epoch;
                }
                PendingEvent { ev: f.ev, at: f.at }
            })
            .collect()
    }

    /// Drains buffered fires only when every one already carries its
    /// epoch (registration-time and rebuild-commit fires do; clean-path
    /// merge fires do not until their batch publishes). The prompt
    /// delivery path after a registration uses this: if an applied but
    /// not-yet-published batch left unstamped fires in the buffer,
    /// draining now would stamp them with the *previous* epoch, so the
    /// whole buffer is left for the batcher's post-publish drain —
    /// which also keeps per-subscription delivery order intact.
    pub fn drain_stamped_fires(&mut self) -> Vec<PendingEvent> {
        if self.fires.is_empty() || self.fires.iter().any(|f| f.epoch.is_none()) {
            return Vec::new();
        }
        self.fires.drain(..).map(|f| PendingEvent { ev: f.ev, at: f.at }).collect()
    }

    /// Whether any buffered fire awaits a drain.
    pub fn has_fires(&self) -> bool {
        !self.fires.is_empty()
    }

    /// Lists every registered subscription, id-ascending.
    pub fn list(&self) -> Vec<SubInfo> {
        let mut out: Vec<SubInfo> = self
            .subs
            .iter()
            .map(|(&id, e)| SubInfo {
                id,
                kind: e.kind,
                u: e.u,
                v: e.v,
                durable: e.durable,
                registered_epoch: e.registered_epoch,
                fired: e.fired,
            })
            .collect();
        out.sort_by_key(|s| s.id);
        out
    }
}

/// Where an attached subscription's events go. A sink always takes the
/// event: a subscriber that cannot keep up is the connection layer's
/// business (its typed `sub-overflow` close), and a closed connection
/// detaches its sinks.
pub trait SubSink: Send + Sync {
    /// Pushes one event toward the subscriber. Must not block.
    fn deliver(&self, ev: &SubEvent);
}

struct SubChannel {
    durable: bool,
    next_seq: u64,
    retained: VecDeque<SubEvent>,
    sink: Option<Arc<dyn SubSink>>,
}

/// Outcome of [`SubsDispatch::attach`].
#[derive(Debug, PartialEq, Eq)]
pub enum AttachError {
    /// No channel with that id (never registered, cancelled, or an
    /// ephemeral subscription that died with its connection).
    Unknown,
}

/// Per-subscription delivery channels, sequence numbering, and durable
/// retention. Owned by the service, mutated outside the engine's writer
/// lock; see the module docs for the delivery contract.
#[derive(Default)]
pub struct SubsDispatch {
    inner: Mutex<DispatchState>,
}

#[derive(Default)]
struct DispatchState {
    chans: HashMap<u64, SubChannel>,
    next_id: u64,
}

impl SubsDispatch {
    /// An empty dispatch.
    pub fn new() -> SubsDispatch {
        SubsDispatch { inner: Mutex::new(DispatchState { chans: HashMap::new(), next_id: 1 }) }
    }

    /// Reserves the next subscription id (monotone per service).
    pub fn reserve(&self) -> u64 {
        let mut st = self.inner.lock();
        let id = st.next_id;
        st.next_id += 1;
        id
    }

    /// Ensures ids assigned after recovery never collide with recovered
    /// ones.
    pub fn bump_next_id(&self, floor: u64) {
        let mut st = self.inner.lock();
        st.next_id = st.next_id.max(floor);
    }

    /// Opens the delivery channel for a freshly registered subscription.
    /// Must happen before the engine-side registration so a
    /// registration-time fire can never race past a missing channel.
    pub fn open(&self, id: u64, durable: bool, sink: Option<Arc<dyn SubSink>>) {
        self.inner
            .lock()
            .chans
            .insert(id, SubChannel { durable, next_seq: 1, retained: VecDeque::new(), sink });
    }

    /// Detaches the sink (connection closed); a durable channel keeps
    /// retaining, an ephemeral one is expected to be cancelled by the
    /// caller right after.
    pub fn detach(&self, id: u64) {
        if let Some(c) = self.inner.lock().chans.get_mut(&id) {
            c.sink = None;
        }
    }

    /// Removes the channel outright (UNSUB, or ephemeral death).
    pub fn close(&self, id: u64) {
        self.inner.lock().chans.remove(&id);
    }

    /// Re-binds a sink to a durable channel and replays retained events
    /// with `seq > after_seq` through it. Returns the highest sequence
    /// number assigned so far (0 if none).
    pub fn attach(
        &self,
        id: u64,
        after_seq: u64,
        sink: Arc<dyn SubSink>,
    ) -> Result<u64, AttachError> {
        let mut st = self.inner.lock();
        let c = st.chans.get_mut(&id).ok_or(AttachError::Unknown)?;
        // Replayed and acknowledged events alike leave retention.
        for ev in c.retained.drain(..).filter(|ev| ev.seq > after_seq) {
            sink.deliver(&ev);
        }
        c.sink = Some(sink);
        Ok(c.next_seq - 1)
    }

    /// Delivers a drained batch of events in order: assigns sequence
    /// numbers, pushes through attached sinks, retains for detached
    /// durable channels. Returns the ids of **ephemeral** subscriptions
    /// with no sink (the caller cancels them in the core). The `observe`
    /// callback sees every sequenced event (metrics).
    pub fn deliver(
        &self,
        events: &[PendingEvent],
        mut observe: impl FnMut(&SubEvent, Instant),
    ) -> Vec<u64> {
        let mut dead_ephemeral = Vec::new();
        let mut st = self.inner.lock();
        for pe in events {
            let Some(c) = st.chans.get_mut(&pe.ev.id) else { continue }; // cancelled mid-flight
            let mut ev = pe.ev;
            ev.seq = c.next_seq;
            c.next_seq += 1;
            observe(&ev, pe.at);
            if let Some(s) = &c.sink {
                s.deliver(&ev);
            } else if c.durable {
                if c.retained.len() >= RETAIN_CAP {
                    c.retained.pop_front();
                }
                c.retained.push_back(ev);
            } else {
                dead_ephemeral.push(ev.id);
            }
        }
        for id in &dead_ephemeral {
            st.chans.remove(id);
        }
        dead_ephemeral
    }

    /// Number of open channels (active subscriptions as the delivery
    /// layer sees them).
    pub fn len(&self) -> usize {
        self.inner.lock().chans.len()
    }

    /// Whether no channel is open.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl SubsCore {
        /// The armed-index invariant (see the `buckets` field): every bucket
        /// key is a root of `part`, and the buckets list exactly the unfired
        /// subscriptions, each under the roots of what it watches.
        pub(crate) fn assert_armed(&self, part: &SizedUnionFind) {
            let mut want: std::collections::BTreeSet<(u32, u64)> = Default::default();
            for (&id, e) in &self.subs {
                if let Some((ru, rv)) = e.roots(part) {
                    want.extend([(ru, id), (rv, id)]);
                }
            }
            let mut got: Vec<(u32, u64)> = Vec::new();
            for (&root, ids) in &self.buckets {
                assert_eq!(part.find(root), root, "bucket key {root} is not a root");
                assert!(!ids.is_empty(), "empty bucket kept under {root}");
                got.extend(ids.iter().map(|&id| (root, id)));
            }
            got.sort_unstable();
            assert_eq!(got, want.into_iter().collect::<Vec<_>>(), "bucket contents");
        }
    }

    /// A partition over `n` vertices with each of `parts` united.
    fn partition_of(parts: &[&[u32]], n: usize) -> SizedUnionFind {
        let part = SizedUnionFind::new(n);
        for p in parts {
            for &v in p.iter() {
                part.unite(p[0], v);
            }
        }
        part
    }

    /// Unites in `part` and folds the outcome, as the engine's clean path
    /// does; the armed-index invariant must survive every step.
    fn merge(core: &mut SubsCore, part: &SizedUnionFind, u: u32, v: u32) {
        if let Some(m) = part.unite(u, v) {
            core.on_merge(part, &m, 0);
        }
        core.assert_armed(part);
    }

    #[test]
    fn pair_trigger_fires_once_at_the_connecting_merge() {
        let (mut core, part) = (SubsCore::new(), SizedUnionFind::new(8));
        core.register(&part, 1, SubKind::Pair, 0, 3, false, 5, 0);
        assert!(!core.has_fires(), "not connected at registration");
        merge(&mut core, &part, 0, 1);
        merge(&mut core, &part, 2, 3);
        assert!(!core.has_fires(), "still two components");
        merge(&mut core, &part, 1, 2);
        let evs = core.drain_fires(9);
        assert_eq!(evs.len(), 1);
        let ev = evs[0].ev;
        assert_eq!((ev.id, ev.kind, ev.u, ev.v), (1, SubKind::Pair, 0, 3));
        assert_eq!((ev.epoch, ev.generation), (9, 0));
        assert_eq!((ev.root, ev.size), part.component_of(0));
        assert_eq!(ev.size, 4);
        // One-shot: further merges into the component do not re-fire.
        merge(&mut core, &part, 3, 4);
        assert!(!core.has_fires());
        assert!(core.list()[0].fired);
    }

    #[test]
    fn already_connected_pair_fires_at_registration() {
        let (mut core, part) = (SubsCore::new(), partition_of(&[&[0, 1]], 4));
        core.register(&part, 7, SubKind::Pair, 0, 1, true, 2, 3);
        let evs = core.drain_fires(2);
        assert_eq!(evs.len(), 1);
        assert_eq!((evs[0].ev.id, evs[0].ev.epoch, evs[0].ev.generation), (7, 2, 3));
        core.assert_armed(&part);
    }

    #[test]
    fn component_sub_fires_on_merges_and_commits() {
        let (mut core, part) = (SubsCore::new(), SizedUnionFind::new(8));
        core.register(&part, 1, SubKind::Component, 5, 5, false, 0, 0);
        merge(&mut core, &part, 0, 1);
        assert!(!core.has_fires(), "a merge elsewhere is not an identity change");
        merge(&mut core, &part, 5, 0);
        let evs = core.drain_fires(3);
        assert_eq!(evs.len(), 1);
        assert_eq!((evs[0].ev.root, evs[0].ev.size), part.component_of(5));
        assert_eq!(evs[0].ev.size, 3);
        // A rebuild commit re-identifies every component: fire again.
        let rebuilt = partition_of(&[&[0, 1, 5]], 8);
        core.disarm();
        core.on_commit(&rebuilt, 1, Some(4));
        core.assert_armed(&rebuilt);
        let evs = core.drain_fires(99);
        assert_eq!(evs.len(), 1);
        assert_eq!((evs[0].ev.epoch, evs[0].ev.generation), (4, 1));
    }

    #[test]
    fn commit_reevaluates_pending_pairs_after_deletions() {
        let (mut core, part) = (SubsCore::new(), SizedUnionFind::new(8));
        core.register(&part, 1, SubKind::Pair, 0, 7, false, 0, 0);
        core.register(&part, 2, SubKind::Pair, 1, 2, false, 0, 0);
        // The rebuild's partition connected 0 and 7 (e.g. via drained
        // pending inserts): the commit must fire the stranded trigger,
        // and re-key the other one to the new roots.
        let rebuilt = partition_of(&[&[3, 0, 7], &[4, 1]], 8);
        core.on_commit(&rebuilt, 2, Some(11));
        core.assert_armed(&rebuilt);
        let evs = core.drain_fires(99);
        assert_eq!(evs.len(), 1);
        assert_eq!((evs[0].ev.epoch, evs[0].ev.generation, evs[0].ev.size), (11, 2, 3));
        assert_eq!(evs[0].ev.root, rebuilt.find(0));
        merge(&mut core, &rebuilt, 2, 4);
        assert_eq!(core.drain_fires(12).len(), 1, "re-armed under the rebuilt roots");
    }

    #[test]
    fn merges_folded_while_disarmed_fire_nothing_until_the_commit() {
        // A commit's pending drain: the partition is already the rebuilt
        // one, the buckets still name the old roots — so they are dropped
        // first, and the drained merges are judged by `on_commit` alone.
        let (mut core, old) = (SubsCore::new(), partition_of(&[&[0, 1]], 8));
        core.register(&old, 1, SubKind::Component, 1, 1, false, 0, 0);
        core.register(&old, 2, SubKind::Pair, 2, 3, false, 0, 0);
        let rebuilt = SizedUnionFind::new(8);
        core.disarm();
        for (u, v) in [(0, 2), (2, 3)] {
            let m = rebuilt.unite(u, v).expect("merges");
            core.on_merge(&rebuilt, &m, 1);
        }
        assert!(!core.has_fires());
        core.on_commit(&rebuilt, 1, Some(6));
        core.assert_armed(&rebuilt);
        let mut evs: Vec<SubEvent> = core.drain_fires(99).iter().map(|p| p.ev).collect();
        evs.sort_by_key(|e| e.id);
        assert_eq!(evs.len(), 2);
        assert_eq!((evs[0].id, evs[0].size, evs[0].epoch), (1, 1, 6), "1 is a singleton again");
        assert_eq!((evs[1].id, evs[1].size, evs[1].epoch), (2, 3, 6));
    }

    #[test]
    fn unarmed_registrations_wait_for_the_recovery_commit() {
        let (mut core, part) = (SubsCore::new(), partition_of(&[&[0, 1]], 4));
        core.register_unarmed(1, SubKind::Pair, 0, 1, 3);
        core.register_unarmed(2, SubKind::Pair, 2, 3, 3);
        core.register_unarmed(3, SubKind::Pair, 1, 2, 3);
        assert_eq!(core.cancel(&part, 3), Some(true), "a replayed cancel finds no bucket");
        assert!(!core.has_fires() && core.buckets.is_empty());
        // Recovery's end: unstamped, so the first drain names the epoch.
        core.on_commit(&part, 0, None);
        core.assert_armed(&part);
        let evs = core.drain_fires(8);
        assert_eq!(evs.len(), 1);
        assert_eq!((evs[0].ev.id, evs[0].ev.epoch), (1, 8));
        assert!(core.list().iter().all(|s| s.durable));
    }

    #[test]
    fn cancel_strikes_buckets_and_an_idle_registry_costs_nothing() {
        let (mut core, part) = (SubsCore::new(), SizedUnionFind::new(4));
        core.register(&part, 1, SubKind::Pair, 0, 1, true, 0, 0);
        assert_eq!(core.cancel(&part, 1), Some(true));
        assert_eq!(core.cancel(&part, 1), None, "unknown after removal");
        assert!(core.is_empty() && core.buckets.is_empty());
        // Merges past an idle registry are free and leave nothing behind.
        merge(&mut core, &part, 0, 1);
        assert!(!core.has_fires());
        // A later registration sees the partition of that moment.
        core.register(&part, 2, SubKind::Pair, 0, 1, false, 9, 0);
        assert_eq!(core.drain_fires(9).len(), 1);
    }

    #[test]
    fn register_cancel_churn_leaves_a_quiet_bucket_as_it_was() {
        // One long-lived subscription keeps the registry non-empty while
        // others come and go on the same quiet component.
        let (mut core, part) = (SubsCore::new(), partition_of(&[&[0, 1, 2]], 8));
        core.register(&part, 1, SubKind::Component, 0, 0, true, 0, 0);
        let root = part.find(0);
        assert_eq!(core.buckets[&root], vec![1]);
        for round in 0..10_000u64 {
            let id = 2 + round;
            let kind = if round % 2 == 0 { SubKind::Component } else { SubKind::Pair };
            core.register(&part, id, kind, 5, 1, false, 0, 0);
            assert_eq!(core.cancel(&part, id), Some(false));
        }
        assert_eq!(core.buckets[&root], vec![1]);
        assert_eq!(core.buckets.len(), 1, "5's emptied bucket is dropped, not kept");
        core.assert_armed(&part);
    }

    #[test]
    fn dispatch_sequences_retains_and_replays() {
        struct VecSink(Mutex<Vec<SubEvent>>);
        impl SubSink for VecSink {
            fn deliver(&self, ev: &SubEvent) {
                self.0.lock().push(*ev);
            }
        }
        let d = SubsDispatch::new();
        let id = d.reserve();
        assert_eq!(id, 1);
        d.open(id, true, None); // durable, no sink yet: retain
        let ev = |seq_hint: u64| PendingEvent {
            ev: SubEvent {
                id,
                kind: SubKind::Component,
                u: 3,
                v: 3,
                root: 0,
                size: 2 + seq_hint,
                epoch: seq_hint,
                generation: 0,
                seq: 0,
            },
            at: Instant::now(),
        };
        assert!(d.deliver(&[ev(1), ev(2)], |_, _| {}).is_empty());
        // Re-attach after "restart": replay everything past seq 1.
        let sink = Arc::new(VecSink(Mutex::new(Vec::new())));
        assert_eq!(d.attach(id, 1, Arc::clone(&sink) as Arc<dyn SubSink>), Ok(2));
        let got = sink.0.lock().clone();
        assert_eq!(got.len(), 1);
        assert_eq!((got[0].seq, got[0].epoch), (2, 2));
        // Live delivery now flows through the sink with fresh seqs.
        assert!(d.deliver(&[ev(3)], |_, _| {}).is_empty());
        assert_eq!(sink.0.lock().last().unwrap().seq, 3);
        // An ephemeral channel with no sink reports back for core
        // cancellation.
        let id2 = d.reserve();
        d.open(id2, false, None);
        let mut e2 = ev(1);
        e2.ev.id = id2;
        assert_eq!(d.deliver(&[e2], |_, _| {}), vec![id2]);
        assert_eq!(d.attach(id2, 0, sink), Err(AttachError::Unknown));
    }
}
