//! Oracle-driven property tests for the incremental analytics plane:
//! random interleaved insert/delete/query schedules are served through
//! an in-process [`Service`] and at every quiesce point the analytics
//! verbs' answers — `TOPK`, `HIST`, `SIZE`, and the live component
//! count — are recomputed **exactly** from the naive [`DynamicOracle`]
//! partition. Nothing is sampled and nothing is approximate: the
//! delta-maintained aggregates must equal what a full scan of the
//! oracle's labels produces, after any mix of merges, free deletions,
//! and background rebuilds.
//!
//! Sealed-generation windows are covered twice: opportunistically in
//! the property test (views read mid-schedule must be internally
//! consistent even when `sealed`), and deterministically in
//! `sealed_window_serves_the_frozen_partition`, which holds a rebuild
//! open and pins the sealed view to the pre-deletion partition.

use cc_baselines::DynamicOracle;
use cc_server::{Client, Service, ServiceConfig, HIST_BUCKETS, TOPK_CAP};
use connectit::Update;
use proptest::prelude::*;
use std::collections::HashMap;
use std::time::Duration;

const QUIESCE: Duration = Duration::from_secs(20);

fn cfg(n: usize, shards: usize) -> ServiceConfig {
    ServiceConfig { n, shards, ..ServiceConfig::default() }
}

/// Recomputes every analytics answer from scratch out of a labeling:
/// `(components, hist, topk_sizes, size_by_label)`.
#[allow(clippy::type_complexity)]
fn recompute(labels: &[u32]) -> (u64, Vec<u64>, Vec<u64>, HashMap<u32, u64>) {
    let mut size_by_label: HashMap<u32, u64> = HashMap::new();
    for &l in labels {
        *size_by_label.entry(l).or_insert(0) += 1;
    }
    let mut hist = vec![0u64; HIST_BUCKETS];
    for &s in size_by_label.values() {
        hist[(63 - s.leading_zeros()) as usize] += 1;
    }
    // TOPK excludes singletons by contract and materializes at most
    // TOPK_CAP entries, largest first.
    let mut topk: Vec<u64> = size_by_label.values().copied().filter(|&s| s >= 2).collect();
    topk.sort_unstable_by(|a, b| b.cmp(a));
    topk.truncate(TOPK_CAP);
    (size_by_label.len() as u64, hist, topk, size_by_label)
}

/// Asserts every analytics read against the oracle partition. Call only
/// at a clean quiesce point, where exactly one answer is legal.
fn check_against_oracle(client: &Client, oracle: &DynamicOracle, n: usize) -> Result<(), String> {
    let labels = oracle.labels();
    let (components, hist, topk_sizes, size_by_label) = recompute(&labels);

    // The live count (which also backs `COMPONENTS` and the gauge) is
    // delta-maintained; it must pin to the full recomputation.
    if client.num_components() as u64 != components {
        return Err(format!(
            "live component count {} != oracle {components}",
            client.num_components()
        ));
    }
    let view = client.analytics();
    if view.sealed {
        return Err("view still sealed after a clean quiesce".into());
    }
    if view.components != components {
        return Err(format!("view components {} != oracle {components}", view.components));
    }
    if view.hist.to_vec() != hist {
        return Err(format!("HIST diverged: {:?} != {:?}", view.hist, hist));
    }
    let (entries, _epoch, _gen, sealed) = client.topk(TOPK_CAP);
    if sealed {
        return Err("TOPK still sealed after a clean quiesce".into());
    }
    let got_sizes: Vec<u64> = entries.iter().map(|&(_, s)| s).collect();
    if got_sizes != topk_sizes {
        return Err(format!("TOPK sizes diverged: {got_sizes:?} != {topk_sizes:?}"));
    }
    // SIZE for every vertex: the reported size must match the oracle
    // component's cardinality, and reported roots must be in bijection
    // with oracle labels (same component <=> same root).
    let mut root_of_label: HashMap<u32, u32> = HashMap::new();
    let mut label_of_root: HashMap<u32, u32> = HashMap::new();
    for v in 0..n as u32 {
        let (root, size) = client.component_size(v).map_err(|e| e.to_string())?;
        let label = labels[v as usize];
        if size != size_by_label[&label] {
            return Err(format!(
                "SIZE {v} reported {size}, oracle component has {}",
                size_by_label[&label]
            ));
        }
        if *root_of_label.entry(label).or_insert(root) != root {
            return Err(format!("vertex {v}: component split across roots"));
        }
        if *label_of_root.entry(root).or_insert(label) != label {
            return Err(format!("vertex {v}: root {root} shared across components"));
        }
    }
    Ok(())
}

/// Materializes one scripted op (same vocabulary as `prop_dynamic`):
/// 0–4 insert, 5–6 delete the given pair, 7 re-delete the last touched
/// edge (the duplicate-deletion case), 8–9 query.
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

#[allow(clippy::type_complexity)]
fn arb_schedule() -> impl Strategy<Value = (usize, usize, Vec<(u8, u32, u32)>, usize)> {
    (6usize..40, 1usize..4).prop_flat_map(|(n, shards)| {
        let op = (0u8..10, 0..n as u32, 0..n as u32);
        (Just(n), Just(shards), proptest::collection::vec(op, 10..120), 1usize..20)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn random_schedules_keep_analytics_exact(
        (n, shards, script, batch_size) in arb_schedule(),
    ) {
        let mut svc = Service::start(cfg(n, shards)).expect("service");
        let client = svc.client();
        let mut oracle = DynamicOracle::new(n);
        let mut last_edge = None;
        for chunk in script.chunks(batch_size) {
            let batch: Vec<Update> =
                chunk.iter().map(|&(k, u, v)| materialize(k, u, v, &mut last_edge)).collect();
            client.submit(batch.clone()).expect("submit");
            oracle.apply_batch(&batch);
            // Mid-schedule read, possibly inside a sealed-generation
            // window: the view must be internally consistent whatever
            // the timing — histogram sums to the component count, top-k
            // sizes are non-increasing multi-vertex components.
            let view = client.analytics();
            prop_assert_eq!(
                view.hist.iter().sum::<u64>(),
                view.components,
                "histogram does not sum to the component count (sealed={})",
                view.sealed
            );
            prop_assert!(view.topk.windows(2).all(|w| w[0].1 >= w[1].1));
            prop_assert!(view.topk.iter().all(|&(_, s)| s >= 2));
            // Exact validation at the quiesce point.
            client.quiesce(QUIESCE).expect("quiesce");
            if let Err(msg) = check_against_oracle(&client, &oracle, n) {
                prop_assert!(false, "{}", msg);
            }
        }
        svc.shutdown();
    }
}

/// Holds a rebuild open and pins the sealed view: during the dirty
/// window `TOPK`/`HIST`/`SIZE` keep serving the pre-deletion partition
/// (frozen, honestly flagged `sealed`), and the commit resyncs them to
/// the post-deletion truth.
#[test]
fn sealed_window_serves_the_frozen_partition() {
    let mut svc = Service::start(ServiceConfig {
        n: 12,
        shards: 2,
        rebuild_hold: Duration::from_millis(400),
        ..ServiceConfig::default()
    })
    .expect("service");
    let client = svc.client();
    // One path 0-1-2-3 and one far pair 8-9.
    client
        .submit(vec![
            Update::Insert(0, 1),
            Update::Insert(1, 2),
            Update::Insert(2, 3),
            Update::Insert(8, 9),
        ])
        .expect("submit");
    client.quiesce(QUIESCE).expect("quiesce");
    let clean = client.analytics();
    assert!(!clean.sealed);
    assert_eq!(clean.components, 12 - 4);
    assert_eq!(clean.topk(2), &[(clean.topk[0].0, 4), (clean.topk[1].0, 2)]);

    // Forest deletion: the engine seals and the held rebuild keeps the
    // window open long enough to read through it.
    client.delete(1, 2).expect("forest delete");
    let sealed = client.analytics();
    assert!(sealed.sealed, "dirty window must serve a sealed view");
    assert_eq!(sealed.components, 12 - 4, "sealed view is frozen pre-deletion");
    assert_eq!(sealed.topk(1)[0].1, 4, "sealed TOPK still shows the unsplit path");
    assert_eq!(sealed.component_of(0).1, 4, "sealed SIZE still spans the path");
    assert_eq!(sealed.hist.iter().sum::<u64>(), sealed.components);

    // Commit resyncs wholesale: the path is split 0-1 / 2-3.
    client.quiesce(QUIESCE).expect("quiesce");
    let fresh = client.analytics();
    assert!(!fresh.sealed);
    assert_eq!(fresh.components, 12 - 3);
    let sizes: Vec<u64> = fresh.topk(TOPK_CAP).iter().map(|&(_, s)| s).collect();
    assert_eq!(sizes, vec![2, 2, 2]);
    let (_, s0) = client.component_size(0).expect("SIZE");
    let (_, s2) = client.component_size(2).expect("SIZE");
    assert_eq!((s0, s2), (2, 2));
    // The frozen view the dirty window handed out stays frozen even
    // after the commit replaced the core.
    assert_eq!(sealed.component_of(0).1, 4);
    svc.shutdown();
}
