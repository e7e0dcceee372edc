//! Fully-dynamic connectivity: the paper's stated future work ("we are
//! interested in identifying practical parallel algorithms that support
//! edge deletions"). This module provides the straightforward baseline such
//! work would be measured against. A batch runs through the one batch
//! loop, [`crate::liveness::apply_batch`], which the server's generation
//! engine applies through too: insertions unite in the tracker's
//! partition, which also answers the queries, and deletions classify
//! through it — a deletion of an absent or non-forest (cycle) edge is
//! free. Only a
//! *forest* deletion costs something, and this structure's policy is the
//! synchronous one: at the next query (or the batch's end) it recomputes
//! connectivity over the surviving edge set, one union-find pass over the
//! live edge list ([`LivenessTracker::rebuild`]), and adopts the new
//! partition and forest before it answers.
//!
//! The recompute path costs `O(n + m α)` per forest-deletion batch — fine
//! for workloads where deletions are rare (the paper's motivation: only a
//! few percent of tweets are ever deleted), and an honest baseline
//! otherwise.

use crate::liveness::{apply_batch, BatchHooks, DeleteCounts, LivenessTracker};
use cc_graph::VertexId;

/// The fully-dynamic operation type: deletions share [`crate::Update`]
/// with the streaming path, so mixed schedules flow through one enum
/// end-to-end (kept under its historical name for callers of this
/// module).
pub use crate::streaming::Update as DynUpdate;

/// A fully-dynamic connectivity structure: incremental fast path, rebuild
/// only on *forest* deletions (see [`crate::liveness`]).
pub struct DynamicConnectivity {
    sync: Synchronous,
    deletes: DeleteCounts,
}

/// The synchronous policy, as the batch loop's hooks: a query met while
/// stale rebuilds first.
struct Synchronous {
    tracker: LivenessTracker,
    rebuilds: usize,
}

impl Synchronous {
    /// Recomputes connectivity from the surviving edge set if a forest
    /// deletion left the tracker stale: its rebuild pass yields the new
    /// partition and forest in one go.
    fn refresh(&mut self) {
        if self.tracker.is_stale() {
            self.rebuilds += 1;
            let (n, edges) = (self.tracker.num_vertices(), self.tracker.edge_list());
            let rebuilt = LivenessTracker::rebuild(n, &edges, || true);
            self.tracker.adopt(rebuilt.expect("an unconditional rebuild is never aborted"));
        }
    }
}

impl BatchHooks for Synchronous {
    type Answer = bool;

    fn tracker(&mut self) -> &mut LivenessTracker {
        &mut self.tracker
    }

    fn query(&mut self, u: VertexId, v: VertexId) -> bool {
        self.refresh();
        self.tracker.partition().same_set(u, v)
    }
}

impl DynamicConnectivity {
    /// Creates an empty structure on `n` vertices.
    pub fn new(n: usize) -> Self {
        let sync = Synchronous { tracker: LivenessTracker::new(n), rebuilds: 0 };
        DynamicConnectivity { sync, deletes: DeleteCounts::default() }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.sync.tracker.num_vertices()
    }

    /// Number of live edges.
    pub fn num_edges(&self) -> usize {
        self.sync.tracker.num_edges()
    }

    /// The tracker: its live edges, and the spanning forest of them it
    /// keeps fresh after every [`Self::process_batch`].
    pub fn tracker(&self) -> &LivenessTracker {
        &self.sync.tracker
    }

    /// How many deletion-triggered rebuilds have happened (for tests and
    /// cost accounting).
    pub fn rebuilds(&self) -> usize {
        self.sync.rebuilds
    }

    /// How many deletions were classified as non-forest (cycle) edges and
    /// therefore re-converged for free.
    pub fn nonforest_deletes(&self) -> usize {
        self.deletes.nonforest as usize
    }

    /// Every deletion so far, by class.
    pub fn delete_counts(&self) -> DeleteCounts {
        self.deletes
    }

    /// Applies a batch; returns query answers in order of appearance.
    /// Operations within a batch are applied *sequentially* (unlike the
    /// insert-only streaming path) so that deletions interleave
    /// deterministically with queries.
    pub fn process_batch(&mut self, batch: &[DynUpdate]) -> Vec<bool> {
        let answers = apply_batch(&mut self.sync, batch, &mut self.deletes);
        self.sync.refresh();
        answers
    }

    /// Single query against the current state.
    pub fn connected(&self, u: VertexId, v: VertexId) -> bool {
        self.sync.tracker.partition().same_set(u, v)
    }

    /// Current labeling snapshot.
    pub fn labels(&self) -> Vec<VertexId> {
        self.sync.tracker.partition().labels()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    /// The synchronous policy rebuilds once per stale window, at its
    /// first query, however many live deletes the window holds.
    #[test]
    fn one_rebuild_per_stale_window_at_its_first_query() {
        use DynUpdate::{Delete, Insert, Query};
        let mut d = DynamicConnectivity::new(6);
        d.process_batch(&[Insert(0, 1), Insert(1, 2), Insert(3, 4), Insert(4, 5)]);
        let ops = [Delete(0, 1), Delete(3, 4), Query(0, 1), Query(3, 4), Delete(1, 2), Query(1, 2)];
        assert_eq!(d.process_batch(&ops), vec![false, false, false]);
        assert_eq!(d.rebuilds(), 2);
        let c = d.delete_counts();
        assert_eq!((c.forest, c.dirty), (3, 1), "3-4 died in 0-1's window");
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
}
