//! Oracle-driven property tests for the fully dynamic service: random
//! interleaved insert/delete/query schedules are served through an
//! in-process [`Service`] and validated against the naive
//! [`DynamicOracle`] (incremental adjacency + BFS). Schedules include
//! deletions of absent edges and duplicate deletions of the same edge
//! by construction.
//!
//! Validation is exact, leaning on the `(epoch, generation)` staleness
//! contract: after each submitted batch the test quiesces (drains any
//! in-flight generation rebuild) and re-asks the batch's vertex pairs
//! as a query-only batch. With a single client and a clean engine the
//! answers have exactly one legal value — the oracle's. A final sweep
//! compares the whole recovered partition (`same_partition`) and the
//! component count against the oracle.
//!
//! The non-proptest test pins the rebuild-trigger classification via
//! telemetry: non-forest and absent deletions must trigger **zero**
//! rebuilds; a forest deletion must trigger exactly one.

use cc_baselines::DynamicOracle;
use cc_graph::stats::same_partition;
use cc_server::{Service, ServiceConfig};
use connectit::Update;
use proptest::prelude::*;
use std::time::Duration;

const QUIESCE: Duration = Duration::from_secs(20);

fn cfg(n: usize, shards: usize) -> ServiceConfig {
    ServiceConfig {
        n,
        shards,
        batch_max_wait: Duration::from_micros(10),
        ..ServiceConfig::default()
    }
}

/// Materializes one scripted op. Kinds: 0–4 insert, 5–6 delete the
/// given pair (mostly absent early, live later), 7 delete the edge
/// most recently touched — re-deleting a just-deleted edge is the
/// duplicate-deletion case — and 8–9 query. `last_edge` tracks the most
/// recently inserted or deleted pair.
fn materialize(kind: u8, u: u32, v: u32, last_edge: &mut Option<(u32, u32)>) -> Update {
    match kind {
        0..=4 => {
            *last_edge = Some((u, v));
            Update::Insert(u, v)
        }
        5 | 6 => {
            *last_edge = Some((u, v));
            Update::Delete(u, v)
        }
        7 => {
            let (du, dv) = last_edge.unwrap_or((u, v));
            Update::Delete(du, dv)
        }
        _ => Update::Query(u, v),
    }
}

/// Strategy: vertex count, shard count, a flat op script, and a batch
/// size to cut it into. Small vertex ranges make deletions land on live
/// edges (and duplicates) often.
#[allow(clippy::type_complexity)]
fn arb_schedule() -> impl Strategy<Value = (usize, usize, Vec<(u8, u32, u32)>, usize)> {
    (6usize..40, 1usize..4).prop_flat_map(|(n, shards)| {
        let op = (0u8..10, 0..n as u32, 0..n as u32);
        (Just(n), Just(shards), proptest::collection::vec(op, 10..120), 1usize..20)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_churn_schedules_match_the_dynamic_oracle(
        (n, shards, script, batch_size) in arb_schedule(),
    ) {
        let mut svc = Service::start(cfg(n, shards)).expect("service");
        let client = svc.client();
        let mut oracle = DynamicOracle::new(n);
        let mut last_edge = None;
        for chunk in script.chunks(batch_size) {
            let batch: Vec<Update> =
                chunk.iter().map(|&(k, u, v)| materialize(k, u, v, &mut last_edge)).collect();
            // The interleaved batch itself: inline query answers during a
            // dirty window legally serve the sealed generation, so they
            // are advisory here; the oracle replays the same ops.
            client.submit(batch.clone()).expect("submit");
            oracle.apply_batch(&batch);
            // Exact validation: quiesce, then re-ask every pair the batch
            // touched. Single client + clean engine = one legal answer.
            client.quiesce(QUIESCE).expect("quiesce");
            let pairs: Vec<Update> = batch
                .iter()
                .map(|&(Update::Insert(u, v) | Update::Delete(u, v) | Update::Query(u, v))| {
                    Update::Query(u, v)
                })
                .collect();
            let answers = client.submit(pairs.clone()).expect("query batch");
            for (i, &got) in answers.iter().enumerate() {
                let (Update::Insert(u, v) | Update::Delete(u, v) | Update::Query(u, v)) =
                    pairs[i];
                prop_assert_eq!(
                    got,
                    oracle.connected(u, v),
                    "query({}, {}) diverged from the dynamic oracle after a clean quiesce",
                    u,
                    v
                );
            }
        }
        // Whole-partition sweep: labeling and component count.
        client.quiesce(QUIESCE).expect("final quiesce");
        prop_assert!(
            same_partition(&oracle.labels(), &client.labels()),
            "final partition diverged from the dynamic oracle"
        );
        let oracle_components = {
            let labels = oracle.labels();
            let mut reps: Vec<u32> = labels.to_vec();
            reps.sort_unstable();
            reps.dedup();
            reps.len()
        };
        prop_assert_eq!(client.num_components(), oracle_components);
        svc.shutdown();
    }
}

/// The rebuild-trigger classification, asserted via telemetry: deleting
/// a non-forest (cycle) edge or an absent/duplicate edge must trigger
/// **zero** rebuilds; deleting a forest edge must trigger exactly one.
#[test]
fn deletion_classification_drives_rebuilds() {
    let mut svc = Service::start(cfg(16, 2)).expect("service");
    let client = svc.client();
    // 0-1, 1-2 first; then 0-2 in a later batch, by which time 0 ~ 2:
    // the engine must classify 0-2 as a non-forest (cycle) edge.
    client.submit(vec![Update::Insert(0, 1), Update::Insert(1, 2)]).expect("submit");
    client.quiesce(QUIESCE).expect("quiesce");
    client.submit(vec![Update::Insert(0, 2)]).expect("submit");
    client.quiesce(QUIESCE).expect("quiesce");
    let before = client.generation_info();

    // Non-forest deletion: free — no seal, no rebuild, still connected.
    client.delete(0, 2).expect("delete");
    let after = client.generation_info();
    assert!(!after.dirty, "a non-forest deletion must not dirty the engine");
    assert_eq!(after.counters.rebuilds, before.counters.rebuilds);
    assert_eq!(after.counters.deletes_nonforest, before.counters.deletes_nonforest + 1);
    assert_eq!(client.submit(vec![Update::Query(0, 2)]).expect("query"), vec![true]);

    // Absent + duplicate deletions: also free.
    client.delete(7, 9).expect("absent delete");
    client.delete(0, 2).expect("duplicate delete");
    let after = client.generation_info();
    assert!(!after.dirty);
    assert_eq!(after.counters.rebuilds, before.counters.rebuilds);
    assert_eq!(after.counters.deletes_absent, before.counters.deletes_absent + 2);

    // Forest deletion: seals and rebuilds exactly once.
    client.delete(1, 2).expect("forest delete");
    client.quiesce(QUIESCE).expect("quiesce");
    let after = client.generation_info();
    assert_eq!(after.counters.deletes_forest, before.counters.deletes_forest + 1);
    assert_eq!(after.counters.rebuilds, before.counters.rebuilds + 1);
    assert_eq!(
        client.submit(vec![Update::Query(0, 1), Update::Query(1, 2)]).expect("query"),
        vec![true, false]
    );
    svc.shutdown();
}
