//! Property test of fully-dynamic connectivity: random insert/delete/query
//! schedules through [`DynamicConnectivity`], checked after **every**
//! batch against a from-scratch recompute. Besides the answers and the
//! partition, the tracker's spanning forest must be a valid spanning
//! forest of the live graph at each batch boundary, and every delete
//! sent must have been classified exactly once.

use cc_graph::build_undirected;
use cc_graph::stats::same_partition;
use cc_unionfind::{oracle_labels, SeqUnionFind};
use connectit::{canon_edge, is_valid_spanning_forest, uncanon_edge, DynamicConnectivity, Update};
use proptest::prelude::*;
use std::collections::HashSet;

/// Strategy: vertex count, a flat op script, and a batch size to cut it
/// into. An op is `(kind, u, v)`: kinds 0–5 insert, 6–7 delete a live
/// edge (picked by `u`), 8 deletes `{u, v}` (usually absent), 9 queries.
#[allow(clippy::type_complexity)]
fn arb_case() -> impl Strategy<Value = (usize, Vec<(u8, u32, u32)>, usize)> {
    (2usize..60).prop_flat_map(|n| {
        let op = (0u8..10, 0..n as u32, 0..n as u32);
        (Just(n), proptest::collection::vec(op, 1..300), 1usize..50)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn every_batch_matches_a_recompute_and_keeps_a_valid_forest(
        (n, script, batch_size) in arb_case(),
    ) {
        let mut d = DynamicConnectivity::new(n);
        let mut live: HashSet<u64> = HashSet::new();
        let mut deletes_sent = 0u64;
        for chunk in script.chunks(batch_size) {
            // Build the batch and its expected answers against the
            // reference edge set, op by op.
            let mut batch = Vec::new();
            let mut expected = Vec::new();
            for &(kind, u, v) in chunk {
                let op = match kind {
                    0..=5 => Update::Insert(u, v),
                    6 | 7 if !live.is_empty() => {
                        let mut keys: Vec<u64> = live.iter().copied().collect();
                        keys.sort_unstable();
                        let (a, b) = uncanon_edge(keys[u as usize % keys.len()]);
                        Update::Delete(a, b)
                    }
                    6..=8 => Update::Delete(u, v),
                    _ => Update::Query(u, v),
                };
                match op {
                    Update::Insert(u, v) if u != v => _ = live.insert(canon_edge(u, v)),
                    Update::Insert(..) => {}
                    Update::Delete(u, v) => {
                        deletes_sent += 1;
                        live.remove(&canon_edge(u, v));
                    }
                    Update::Query(u, v) => {
                        let mut uf = SeqUnionFind::new(n);
                        for &e in &live {
                            let (a, b) = uncanon_edge(e);
                            uf.union(a, b);
                        }
                        expected.push(uf.connected(u, v));
                    }
                }
                batch.push(op);
            }
            prop_assert_eq!(d.process_batch(&batch), expected);

            let edges: Vec<(u32, u32)> = live.iter().map(|&e| uncanon_edge(e)).collect();
            prop_assert_eq!(d.num_edges(), edges.len());
            prop_assert!(same_partition(&oracle_labels(n, &edges), &d.labels()));
            let forest = d.tracker().forest_list();
            for &(u, v) in &forest {
                prop_assert!(live.contains(&canon_edge(u, v)), "forest edge {u}-{v} is not live");
            }
            prop_assert!(is_valid_spanning_forest(&build_undirected(n, &d.tracker().edge_list()), &forest));
            let c = d.delete_counts();
            prop_assert_eq!(c.absent + c.nonforest + c.forest, deletes_sent);
            prop_assert!(c.dirty <= c.forest);
        }
    }
}
