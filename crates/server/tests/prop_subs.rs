//! Oracle-driven property tests for connectivity subscriptions: random
//! interleaved insert/delete/SUB/UNSUB schedules served through an
//! in-process [`Service`] with a collecting [`SubSink`], validated
//! exactly against the naive [`DynamicOracle`].
//!
//! Ops are submitted one per batch with a quiesce + settle after each,
//! which removes every source of slack from the delivery contract:
//!
//! - a **pair** subscription must fire exactly once, immediately after
//!   the op that connects its endpoints (or at registration if already
//!   connected), stamped with an epoch inside that op's `(EPOCH-before,
//!   EPOCH-after]` window — and must never fire otherwise;
//! - a **component** subscription must fire at least once per oracle
//!   merge uniting `v`'s component (rebuild commits may add more), with
//!   strictly increasing `seq` and a sane `size`;
//! - a cancelled subscription must stay silent forever.
//!
//! The non-proptest test pins the rebuild-commit path deterministically
//! with a held rebuild: a pair that connects while the engine is dirty
//! fires when the rebuild lands, at the committed generation.

use cc_baselines::DynamicOracle;
use cc_server::{Service, ServiceConfig, SubEvent, SubKind, SubSink};
use connectit::Update;
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const QUIESCE: Duration = Duration::from_secs(20);
const SETTLE: Duration = Duration::from_secs(10);

fn cfg(n: usize, shards: usize) -> ServiceConfig {
    ServiceConfig { n, shards, ..ServiceConfig::default() }
}

/// A sink that appends every delivered event to a shared vector.
#[derive(Default)]
struct CollectSink(Mutex<Vec<SubEvent>>);

impl SubSink for CollectSink {
    fn deliver(&self, ev: &SubEvent) {
        self.0.lock().expect("sink lock").push(*ev);
    }
}

impl CollectSink {
    fn snapshot(&self) -> Vec<SubEvent> {
        self.0.lock().expect("sink lock").clone()
    }
}

/// What the test knows about one live subscription.
struct Track {
    kind: SubKind,
    u: u32,
    v: u32,
    fired: bool,
    /// Pair only: a fire is owed (and legal), with this epoch lower
    /// bound (exclusive; 0 for registration-time fires).
    owed_after: Option<u64>,
    /// Component only: events the oracle can prove are owed so far.
    min_events: u64,
    last_seq: u64,
    events: u64,
}

/// Waits until every owed fire has reached the sink (counts for
/// component subs, presence for owed pairs), or times out.
fn settle(sink: &CollectSink, subs: &HashMap<u64, Track>) -> Result<(), String> {
    let deadline = Instant::now() + SETTLE;
    loop {
        let evs = sink.snapshot();
        let count = |id: u64| evs.iter().filter(|e| e.id == id).count() as u64;
        let all = subs.iter().all(|(&id, t)| match t.kind {
            SubKind::Pair => t.owed_after.is_none() || count(id) >= 1,
            SubKind::Component => count(id) >= t.min_events,
        });
        if all {
            return Ok(());
        }
        if Instant::now() >= deadline {
            let missing: Vec<u64> = subs
                .iter()
                .filter(|(&id, t)| match t.kind {
                    SubKind::Pair => t.owed_after.is_some() && count(id) == 0,
                    SubKind::Component => count(id) < t.min_events,
                })
                .map(|(&id, _)| id)
                .collect();
            return Err(format!("owed subscription events never arrived for ids {missing:?}"));
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Consumes sink events past `cursor`, checking every invariant the
/// single-op discipline makes exact. `epoch_hi` is the service epoch
/// read after settling — an inclusive upper bound for every stamp.
#[allow(clippy::too_many_arguments)]
fn process_events(
    sink: &CollectSink,
    cursor: &mut usize,
    subs: &mut HashMap<u64, Track>,
    cancelled: &HashSet<u64>,
    n: usize,
    epoch_hi: u64,
) -> Result<(), String> {
    let evs = sink.snapshot();
    for ev in &evs[*cursor..] {
        if cancelled.contains(&ev.id) {
            return Err(format!("ghost event for cancelled sub {}", ev.id));
        }
        let t = subs.get_mut(&ev.id).ok_or_else(|| format!("event for unknown sub {}", ev.id))?;
        if ev.kind != t.kind {
            return Err(format!("sub {}: event kind mismatch", ev.id));
        }
        if ev.epoch > epoch_hi {
            return Err(format!(
                "sub {}: stamped epoch {} is in the future (service is at {epoch_hi})",
                ev.id, ev.epoch
            ));
        }
        match t.kind {
            SubKind::Pair => {
                if (ev.u, ev.v) != (t.u, t.v) {
                    return Err(format!("sub {}: pair endpoints mismatch", ev.id));
                }
                if t.fired {
                    return Err(format!("sub {}: duplicate pair fire (seq {})", ev.id, ev.seq));
                }
                if ev.seq != 1 {
                    return Err(format!("sub {}: pair fire carries seq {}", ev.id, ev.seq));
                }
                let Some(lo) = t.owed_after else {
                    return Err(format!(
                        "sub {}: fired at epoch {} while the oracle says ({}, {}) are \
                         disconnected (spurious fire)",
                        ev.id, ev.epoch, t.u, t.v
                    ));
                };
                // `lo == 0` marks a registration-time fire (e.g. a
                // self-pair at epoch 0): no epoch lower bound applies.
                if lo > 0 && ev.epoch <= lo {
                    return Err(format!(
                        "sub {}: fire epoch {} not after the connecting op's pre-epoch {lo}",
                        ev.id, ev.epoch
                    ));
                }
                t.fired = true;
                t.owed_after = None;
            }
            SubKind::Component => {
                if ev.v != t.v {
                    return Err(format!("sub {}: component vertex mismatch", ev.id));
                }
                if ev.seq <= t.last_seq {
                    return Err(format!(
                        "sub {}: component seq went {} after {}",
                        ev.id, ev.seq, t.last_seq
                    ));
                }
                if ev.size == 0 || ev.size > n as u64 {
                    return Err(format!("sub {}: component size {} out of range", ev.id, ev.size));
                }
                t.last_seq = ev.seq;
                t.events += 1;
            }
        }
    }
    *cursor = evs.len();
    Ok(())
}

/// Strategy: vertex count, shard count, and a flat action script.
/// Actions 0–4 insert, 5–6 delete (duplicates and absents arise
/// naturally in the small vertex range), 7 queries, 8 registers a pair
/// subscription, 9 a component subscription, 10 cancels an idle one.
#[allow(clippy::type_complexity)]
fn arb_schedule() -> impl Strategy<Value = (usize, usize, Vec<(u8, u32, u32)>)> {
    (6usize..32, 1usize..4).prop_flat_map(|(n, shards)| {
        let action = (0u8..11, 0..n as u32, 0..n as u32);
        (Just(n), Just(shards), proptest::collection::vec(action, 20..100))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn random_schedules_honor_the_subscription_contract(
        (n, shards, script) in arb_schedule(),
    ) {
        let mut svc = Service::start(cfg(n, shards)).expect("service");
        let client = svc.client();
        let sink = Arc::new(CollectSink::default());
        let mut oracle = DynamicOracle::new(n);
        let mut subs: HashMap<u64, Track> = HashMap::new();
        let mut cancelled: HashSet<u64> = HashSet::new();
        let mut cursor = 0usize;
        for &(action, a, b) in &script {
            match action {
                8 => {
                    // SUB a b: already-connected pairs owe an immediate
                    // fire; others arm as pending.
                    let connected = oracle.connected(a, b);
                    let (id, _epoch) = client
                        .subscribe(SubKind::Pair, a, b, false, Some(sink.clone() as _))
                        .expect("subscribe");
                    subs.insert(id, Track {
                        kind: SubKind::Pair, u: a, v: b, fired: false,
                        owed_after: connected.then_some(0),
                        min_events: 0, last_seq: 0, events: 0,
                    });
                }
                9 => {
                    let (id, _epoch) = client
                        .subscribe(SubKind::Component, a, a, false, Some(sink.clone() as _))
                        .expect("subscribe");
                    subs.insert(id, Track {
                        kind: SubKind::Component, u: a, v: a, fired: false,
                        owed_after: None, min_events: 0, last_seq: 0, events: 0,
                    });
                }
                10 => {
                    // UNSUB an idle pair sub (never fired, currently
                    // disconnected, nothing owed — so no fire can be in
                    // flight) and hold it to silence.
                    let victim = subs.iter().find(|(_, t)| {
                        t.kind == SubKind::Pair
                            && !t.fired
                            && t.owed_after.is_none()
                            && !oracle.connected(t.u, t.v)
                    }).map(|(&id, _)| id);
                    if let Some(id) = victim {
                        client.unsubscribe(id).expect("unsubscribe");
                        subs.remove(&id);
                        cancelled.insert(id);
                    }
                }
                kind => {
                    // One engine op per batch: pre/post oracle states
                    // bracket it exactly.
                    let op = match kind {
                        0..=4 => Update::Insert(a, b),
                        5 | 6 => Update::Delete(a, b),
                        _ => Update::Query(a, b),
                    };
                    let e_pre = client.epoch();
                    let pre_connected = oracle.connected(a, b);
                    client.submit(vec![op]).expect("submit");
                    oracle.apply_batch(&[op]);
                    if matches!(op, Update::Insert(..)) && !pre_connected {
                        // A merge: pending pairs that just connected owe
                        // a fire after e_pre; component subs whose vertex
                        // landed in the united component owe an event.
                        for t in subs.values_mut() {
                            match t.kind {
                                SubKind::Pair => {
                                    if !t.fired
                                        && t.owed_after.is_none()
                                        && oracle.connected(t.u, t.v)
                                    {
                                        t.owed_after = Some(e_pre);
                                    }
                                }
                                SubKind::Component => {
                                    if oracle.connected(t.v, a) {
                                        t.min_events += 1;
                                    }
                                }
                            }
                        }
                    }
                    client.quiesce(QUIESCE).expect("quiesce");
                }
            }
            settle(&sink, &subs).map_err(TestCaseError::fail)?;
            let epoch_hi = client.epoch();
            process_events(&sink, &mut cursor, &mut subs, &cancelled, n, epoch_hi)
                .map_err(TestCaseError::fail)?;
        }
        // Every owed fire was consumed; nothing is left dangling.
        for (id, t) in &subs {
            prop_assert!(
                t.owed_after.is_none(),
                "sub {} still owes a fire at the end of the schedule", id
            );
            if t.kind == SubKind::Component {
                prop_assert!(
                    t.events >= t.min_events,
                    "sub {} delivered {} events, oracle proves {} merges", id, t.events,
                    t.min_events
                );
            }
        }
        svc.shutdown();
    }
}

/// The rebuild-commit path, pinned deterministically with a held
/// rebuild: a pair that connects while the engine is dirty must fire
/// when the rebuild lands — re-evaluated against the fresh labeling, at
/// the committed generation — and a component subscription must observe
/// the commit too.
#[test]
fn pending_pairs_fire_at_the_rebuild_commit() {
    let mut svc = Service::start(ServiceConfig {
        n: 16,
        shards: 2,
        rebuild_hold: Duration::from_millis(300),
        ..ServiceConfig::default()
    })
    .expect("service");
    let client = svc.client();
    let sink = Arc::new(CollectSink::default());

    client.submit(vec![Update::Insert(0, 1), Update::Insert(1, 2)]).expect("seed");
    client.quiesce(QUIESCE).expect("quiesce");

    // A pending pair and a component watch, both quiet so far.
    let (pair_id, _) =
        client.subscribe(SubKind::Pair, 4, 5, false, Some(sink.clone() as _)).expect("sub");
    let (comp_id, _) =
        client.subscribe(SubKind::Component, 0, 0, false, Some(sink.clone() as _)).expect("sub");

    // Forest deletion: seals the generation and starts a rebuild the
    // hold keeps in flight. The insert connecting the pending pair lands
    // in that dirty window, so its evaluation must defer to the commit.
    let gen_before = client.generation_info().generation;
    client.submit(vec![Update::Delete(1, 2)]).expect("delete");
    client.submit(vec![Update::Insert(4, 5)]).expect("insert while dirty");
    client.quiesce(QUIESCE).expect("rebuild commits");
    let gen_after = client.generation_info().generation;
    assert!(gen_after > gen_before, "the forest deletion must have sealed a generation");

    // Both subscriptions observed the commit.
    let deadline = Instant::now() + Duration::from_secs(10);
    let evs = loop {
        let evs = sink.snapshot();
        if evs.iter().any(|e| e.id == pair_id) && evs.iter().any(|e| e.id == comp_id) {
            break evs;
        }
        assert!(Instant::now() < deadline, "rebuild-commit fires never arrived: {evs:?}");
        std::thread::sleep(Duration::from_millis(2));
    };
    let pair_fires: Vec<&SubEvent> = evs.iter().filter(|e| e.id == pair_id).collect();
    assert_eq!(pair_fires.len(), 1, "pair subs are one-shot: {pair_fires:?}");
    let fire = pair_fires[0];
    assert_eq!((fire.u, fire.v, fire.seq), (4, 5, 1));
    assert!(
        fire.generation >= gen_after,
        "a deferred pair fire is stamped at (or after) the committed generation: \
         generation {} < {gen_after}",
        fire.generation
    );
    let comp_fire = evs.iter().rfind(|e| e.id == comp_id).expect("component event");
    assert_eq!(comp_fire.size, 2, "component 0 is {{0, 1}} after the rebuild");
    svc.shutdown();
}
