//! Fully-dynamic connectivity: the paper's stated future work ("we are
//! interested in identifying practical parallel algorithms that support
//! edge deletions"). This module provides the straightforward baseline such
//! work would be measured against: insertions are incremental (wait-free
//! union-find, exactly the streaming path), while deletions classify
//! through [`crate::liveness::LivenessTracker`] — a deletion of an absent
//! or non-forest (cycle) edge is free, and only a *forest* deletion falls
//! back to recomputing connectivity over the surviving edge set: one
//! union-find pass over the live edge list
//! ([`LivenessTracker::rebuild`]), which hands back the tracker's new
//! forest and the labels the incremental path restarts from.
//!
//! The recompute path costs `O(n + m α)` per forest-deletion batch — fine
//! for workloads where deletions are rare (the paper's motivation: only a
//! few percent of tweets are ever deleted), and an honest baseline
//! otherwise.

use crate::liveness::{DeleteClass, InsertClass, LivenessTracker};
use cc_graph::VertexId;
use cc_unionfind::parents::{find_root_readonly, parents_from_labels, Parents};
use cc_unionfind::{KernelVisitor, NoCount, UfSpec, UniteKernel};

/// The fully-dynamic operation type: deletions share [`crate::Update`]
/// with the streaming path, so mixed schedules flow through one enum
/// end-to-end (kept under its historical name for callers of this
/// module).
pub use crate::streaming::Update as DynUpdate;

/// The incremental fast path's kernel, erased at *operation* granularity
/// (deletion batches are sequential anyway): one virtual call per insert
/// with the fully monomorphized, telemetry-free union underneath.
trait DynKernel: Send + Sync {
    fn unite(&self, p: &Parents, u: VertexId, v: VertexId);
}

impl<K: UniteKernel> DynKernel for K {
    fn unite(&self, p: &Parents, u: VertexId, v: VertexId) {
        UniteKernel::unite(self, p, u, v, &mut NoCount);
    }
}

/// Builds the `spec` variant through [`UfSpec::dispatch`]; a rebuild calls
/// it again, because stateful variants (hooks arrays) must start clean.
fn build_kernel(spec: &UfSpec, n: usize, seed: u64) -> Box<dyn DynKernel> {
    struct Boxer;
    impl KernelVisitor for Boxer {
        type Out = Box<dyn DynKernel>;
        fn visit<K: UniteKernel>(self, kernel: K) -> Box<dyn DynKernel> {
            Box::new(kernel)
        }
    }
    spec.dispatch(n, seed, Boxer)
}

/// A fully-dynamic connectivity structure: incremental fast path, rebuild
/// only on *forest* deletions (see [`crate::liveness`]).
pub struct DynamicConnectivity {
    n: usize,
    tracker: LivenessTracker,
    parents: Box<Parents>,
    uf: Box<dyn DynKernel>,
    spec: UfSpec,
    seed: u64,
    rebuilds: usize,
    nonforest_deletes: usize,
}

impl DynamicConnectivity {
    /// Creates an empty structure on `n` vertices using `spec` for the
    /// incremental path.
    pub fn new(n: usize, spec: UfSpec, seed: u64) -> Self {
        assert!(
            spec.splice != Some(cc_unionfind::SpliceKind::Splice),
            "phase-concurrent Rem+Splice cannot serve interleaved queries"
        );
        DynamicConnectivity {
            n,
            tracker: LivenessTracker::new(n),
            parents: cc_unionfind::make_parents(n),
            uf: build_kernel(&spec, n, seed),
            spec,
            seed,
            rebuilds: 0,
            nonforest_deletes: 0,
        }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.n
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
                DynUpdate::Insert(u, v) => {
                    // Merge verdicts keep the incremental labels exact;
                    // while stale, novel edges wait for the owed rebuild.
                    if matches!(self.tracker.insert(u, v), InsertClass::Merge(_)) {
                        self.uf.unite(&self.parents, u, v);
                    }
                }
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
                    answers.push(
                        find_root_readonly(&self.parents, u)
                            == find_root_readonly(&self.parents, v),
                    );
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
        find_root_readonly(&self.parents, u) == find_root_readonly(&self.parents, v)
    }

    /// Current labeling snapshot.
    pub fn labels(&self) -> Vec<VertexId> {
        cc_unionfind::parents::snapshot_labels(&self.parents)
    }

    /// Recomputes connectivity from the surviving edge set: the tracker's
    /// rebuild pass yields its new forest and the labeling in one go.
    fn rebuild(&mut self) {
        self.rebuilds += 1;
        let mut rebuilt = LivenessTracker::rebuild(self.n, &self.tracker.edge_list(), || true)
            .expect("an unconditional rebuild is never aborted");
        // ID-linking kernels need `parent(x) <= x`.
        crate::sampling::normalize_labels_to_min(&mut rebuilt.labels);
        self.parents = parents_from_labels(&rebuilt.labels);
        self.tracker.adopt(rebuilt);
        self.uf = build_kernel(&self.spec, self.n, self.seed);
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
        let mut d = DynamicConnectivity::new(4, UfSpec::fastest(), 0);
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
        let mut d = DynamicConnectivity::new(4, UfSpec::fastest(), 1);
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
        let mut d = DynamicConnectivity::new(4, UfSpec::fastest(), 5);
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
        let mut d = DynamicConnectivity::new(3, UfSpec::fastest(), 2);
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
        let mut d = DynamicConnectivity::new(n, UfSpec::fastest(), 3);
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
