//! Fully-dynamic connectivity: the paper's stated future work ("we are
//! interested in identifying practical parallel algorithms that support
//! edge deletions"). This module provides the straightforward baseline such
//! work would be measured against: insertions are incremental (they
//! unite in the [`crate::liveness::LivenessTracker`]'s partition, which
//! also answers the queries), while deletions classify through the
//! tracker — a deletion of an absent or non-forest (cycle) edge is free,
//! and only a *forest* deletion falls back to recomputing connectivity
//! over the surviving edge set: one union-find pass over the live edge
//! list ([`LivenessTracker::rebuild`]), which hands back the tracker's
//! new partition and forest.
//!
//! The recompute path costs `O(n + m α)` per forest-deletion batch — fine
//! for workloads where deletions are rare (the paper's motivation: only a
//! few percent of tweets are ever deleted), and an honest baseline
//! otherwise.

use crate::liveness::{DeleteClass, LivenessTracker};
use cc_graph::VertexId;

/// The fully-dynamic operation type: deletions share [`crate::Update`]
/// with the streaming path, so mixed schedules flow through one enum
/// end-to-end (kept under its historical name for callers of this
/// module).
pub use crate::streaming::Update as DynUpdate;

/// A fully-dynamic connectivity structure: incremental fast path, rebuild
/// only on *forest* deletions (see [`crate::liveness`]).
pub struct DynamicConnectivity {
    tracker: LivenessTracker,
    rebuilds: usize,
    nonforest_deletes: usize,
}

impl DynamicConnectivity {
    /// Creates an empty structure on `n` vertices.
    pub fn new(n: usize) -> Self {
        DynamicConnectivity { tracker: LivenessTracker::new(n), rebuilds: 0, nonforest_deletes: 0 }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.tracker.num_vertices()
    }

    /// Number of live edges.
    pub fn num_edges(&self) -> usize {
        self.tracker.num_edges()
    }

    /// How many deletion-triggered rebuilds have happened (for tests and
    /// cost accounting).
    pub fn rebuilds(&self) -> usize {
        self.rebuilds
    }

    /// How many deletions were classified as non-forest (cycle) edges and
    /// therefore re-converged for free.
    pub fn nonforest_deletes(&self) -> usize {
        self.nonforest_deletes
    }

    /// Applies a batch; returns query answers in order of appearance.
    /// Operations within a batch are applied *sequentially* (unlike the
    /// insert-only streaming path) so that deletions interleave
    /// deterministically with queries.
    pub fn process_batch(&mut self, batch: &[DynUpdate]) -> Vec<bool> {
        let mut answers = Vec::new();
        for &op in batch {
            match op {
                // A merge unites in the tracker's partition; while
                // stale, novel edges wait for the owed rebuild.
                DynUpdate::Insert(u, v) => _ = self.tracker.insert(u, v),
                DynUpdate::Delete(u, v) => match self.tracker.delete(u, v) {
                    DeleteClass::Absent => {}
                    // The forest still spans: the labeling stays exact.
                    DeleteClass::NonForest => self.nonforest_deletes += 1,
                    // Staleness is now recorded in the tracker; the next
                    // query (or batch end) pays for the rebuild.
                    DeleteClass::Forest => {}
                },
                DynUpdate::Query(u, v) => {
                    if self.tracker.is_stale() {
                        self.rebuild();
                    }
                    answers.push(self.connected(u, v));
                }
            }
        }
        if self.tracker.is_stale() {
            self.rebuild();
        }
        answers
    }

    /// Single query against the current state.
    pub fn connected(&self, u: VertexId, v: VertexId) -> bool {
        self.tracker.partition().same_set(u, v)
    }

    /// Current labeling snapshot.
    pub fn labels(&self) -> Vec<VertexId> {
        self.tracker.partition().labels()
    }

    /// Recomputes connectivity from the surviving edge set: the tracker's
    /// rebuild pass yields its new partition and forest in one go.
    fn rebuild(&mut self) {
        self.rebuilds += 1;
        let (n, edges) = (self.tracker.num_vertices(), self.tracker.edge_list());
        let rebuilt = LivenessTracker::rebuild(n, &edges, || true)
            .expect("an unconditional rebuild is never aborted");
        self.tracker.adopt(rebuilt);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_graph::stats::same_partition;
    use cc_unionfind::{oracle_labels, SeqUnionFind};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn canon(u: u32, v: u32) -> u64 {
        crate::liveness::canon_edge(u, v)
    }

    #[test]
    fn insert_then_delete_disconnects() {
        let mut d = DynamicConnectivity::new(4);
        let a = d.process_batch(&[
            DynUpdate::Insert(0, 1),
            DynUpdate::Insert(1, 2),
            DynUpdate::Query(0, 2),
            DynUpdate::Delete(1, 2),
            DynUpdate::Query(0, 2),
            DynUpdate::Query(0, 1),
        ]);
        assert_eq!(a, vec![true, false, true]);
        assert_eq!(d.rebuilds(), 1);
    }

    #[test]
    fn deleting_one_of_parallel_paths_keeps_connectivity() {
        let mut d = DynamicConnectivity::new(4);
        d.process_batch(&[
            DynUpdate::Insert(0, 1),
            DynUpdate::Insert(1, 3),
            DynUpdate::Insert(0, 2),
            DynUpdate::Insert(2, 3),
        ]);
        let a = d.process_batch(&[DynUpdate::Delete(1, 3), DynUpdate::Query(0, 3)]);
        assert_eq!(a, vec![true]); // the 0-2-3 path survives
    }

    #[test]
    fn nonforest_deletes_never_rebuild() {
        let mut d = DynamicConnectivity::new(4);
        // A triangle: the closing edge is a cycle edge.
        d.process_batch(&[
            DynUpdate::Insert(0, 1),
            DynUpdate::Insert(1, 2),
            DynUpdate::Insert(2, 0),
        ]);
        let a = d.process_batch(&[DynUpdate::Delete(2, 0), DynUpdate::Query(0, 2)]);
        assert_eq!(a, vec![true]);
        assert_eq!(d.rebuilds(), 0, "cycle-edge delete must be free");
        assert_eq!(d.nonforest_deletes(), 1);
    }

    #[test]
    fn duplicate_inserts_and_absent_deletes_are_noops() {
        let mut d = DynamicConnectivity::new(3);
        d.process_batch(&[DynUpdate::Insert(0, 1), DynUpdate::Insert(0, 1)]);
        assert_eq!(d.num_edges(), 1);
        d.process_batch(&[DynUpdate::Delete(1, 2)]); // absent
        assert_eq!(d.rebuilds(), 0, "absent delete must not rebuild");
        assert!(d.connected(0, 1));
    }

    #[test]
    fn randomized_against_sequential_reference() {
        let n = 200usize;
        let mut rng = StdRng::seed_from_u64(7);
        let mut d = DynamicConnectivity::new(n);
        let mut live: Vec<(u32, u32)> = Vec::new();
        for _round in 0..30 {
            let mut batch = Vec::new();
            for _ in 0..40 {
                let (u, v) = (rng.gen_range(0..n as u32), rng.gen_range(0..n as u32));
                match rng.gen_range(0..10) {
                    0..=5 => batch.push(DynUpdate::Insert(u, v)),
                    6..=7 if !live.is_empty() => {
                        let (a, b) = live[rng.gen_range(0..live.len())];
                        batch.push(DynUpdate::Delete(a, b));
                    }
                    _ => batch.push(DynUpdate::Query(u, v)),
                }
            }
            // Maintain the reference edge multiset and compare answers.
            let mut reference_edges: std::collections::HashSet<u64> =
                live.iter().map(|&(a, b)| canon(a, b)).collect();
            let mut expected = Vec::new();
            for &op in &batch {
                match op {
                    DynUpdate::Insert(u, v) => {
                        if u != v {
                            reference_edges.insert(canon(u, v));
                        }
                    }
                    DynUpdate::Delete(u, v) => {
                        reference_edges.remove(&canon(u, v));
                    }
                    DynUpdate::Query(u, v) => {
                        let mut uf = SeqUnionFind::new(n);
                        for &e in &reference_edges {
                            uf.union((e >> 32) as u32, e as u32);
                        }
                        expected.push(uf.connected(u, v));
                    }
                }
            }
            let got = d.process_batch(&batch);
            assert_eq!(got, expected);
            live = reference_edges.iter().map(|&e| ((e >> 32) as u32, e as u32)).collect();
        }
        // Final partition agreement.
        let expect = oracle_labels(n, &live);
        assert!(same_partition(&expect, &d.labels()));
    }
}
