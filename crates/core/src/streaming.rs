//! Streaming / batch-incremental connectivity (Section 3.5, Algorithm 3):
//! batches mixing edge insertions and connectivity queries.
//!
//! Three algorithm types, as in the paper:
//! - **Type (i)** — union-find variants other than Rem+Splice: the whole
//!   batch (updates *and* queries) runs concurrently; operations are
//!   wait-free and linearizable.
//! - **Type (ii)** — Shiloach–Vishkin and root-based (RootUp) Liu–Tarjan:
//!   updates are applied synchronously (rounds over the batch), queries are
//!   then answered wait-free.
//! - **Type (iii)** — Rem's algorithms with SpliceAtomic: phase-concurrent;
//!   the batch is split into an update phase and a query phase separated by
//!   a barrier (Theorem 3).
//!
//! Union-find execution is monomorphized: [`UfStreaming`] is generic over
//! the [`UniteKernel`], so the per-edge batch loops contain no virtual
//! calls and insert-side hop accounting is compiled out (`NoCount`).
//! Query-side finds run with counting telemetry and aggregate into a
//! [`PathStats`] ([`UfStreaming::query_path_lengths`]), the statistic the
//! Figure 18 latency harness reports. The runtime-configured
//! [`StreamingConnectivity`] facade dispatches once at construction and
//! erases the kernel at *batch* granularity only.

use crate::liu_tarjan::{run_on_edges, LtScheme};
use crate::minkey::MinKey;
use crate::shiloach_vishkin::sv_rounds_on_edges;
use cc_graph::{Edge, VertexId};
use cc_parallel::{pack_map, parallel_for_chunks};
use cc_unionfind::parents::{
    count_roots, find_root_readonly, make_parents, parent, snapshot_labels,
    snapshot_labels_readonly, Parents,
};
use cc_unionfind::{
    CountHops, KernelVisitor, NoCount, PathLengths, PathStats, UfSpec, UniteKernel,
};
use std::sync::atomic::{AtomicU8, Ordering};

/// One streamed operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Update {
    /// Insert undirected edge `{u, v}`.
    Insert(VertexId, VertexId),
    /// Delete undirected edge `{u, v}` (no-op if absent). Only the
    /// deletion-capable batch loop, [`crate::apply_batch`]
    /// (behind [`crate::DynamicConnectivity`] and the server's generation
    /// engine), accepts it; the monotone streaming backends below panic,
    /// because silently dropping a retraction would serve wrong answers.
    Delete(VertexId, VertexId),
    /// Ask whether `u` and `v` are currently connected.
    Query(VertexId, VertexId),
}

/// The panic message every monotone (insert-only) backend raises on a
/// [`Update::Delete`]: one spelling, asserted by tests.
pub const DELETE_UNSUPPORTED: &str =
    "deletions require a deletion-capable engine (monotone streaming backends only coarsen)";

/// Which streaming algorithm backs a [`StreamingConnectivity`] instance.
#[derive(Clone, Debug)]
pub enum StreamAlgorithm {
    /// Any union-find variant (Type (i), or Type (iii) for Rem+Splice).
    UnionFind(UfSpec),
    /// Shiloach–Vishkin (Type (ii)).
    ShiloachVishkin,
    /// A root-based (RootUp) Liu–Tarjan scheme (Type (ii)).
    LiuTarjan(LtScheme),
}

impl StreamAlgorithm {
    /// Display name.
    pub fn name(&self) -> String {
        match self {
            StreamAlgorithm::UnionFind(s) => s.name(),
            StreamAlgorithm::ShiloachVishkin => "Shiloach-Vishkin".into(),
            StreamAlgorithm::LiuTarjan(s) => format!("Liu-Tarjan({})", s.name()),
        }
    }
}

/// The paper's streaming type taxonomy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StreamType {
    /// Wait-free mixed updates and queries.
    WaitFree,
    /// Synchronous updates, wait-free queries.
    SynchronousUpdates,
    /// Phase-concurrent updates then queries.
    PhaseConcurrent,
}

/// Linearizable same-set check, safe concurrently with unions (Type (i)):
/// if the two finds disagree, the answer is only trustworthy when the
/// first root is still a root at that moment — a union may have migrated
/// `u`'s component under `v`'s root between the two finds. Retrying until
/// `ru` is observed as a live root pins a linearization point (the instant
/// `rv` was read, `u` and `v` provably had different roots). Terminates:
/// every retry means a root lost root status, which happens at most `n`
/// times.
fn same_set_with<F: FnMut(VertexId) -> VertexId>(
    p: &Parents,
    mut find: F,
    u: VertexId,
    v: VertexId,
) -> bool {
    loop {
        let ru = find(u);
        let rv = find(v);
        if ru == rv {
            return true;
        }
        if parent(p, ru) == ru {
            return false;
        }
    }
}

/// Assigns each query in `batch` its output slot; returns the slot map and
/// the query count.
fn query_slots(batch: &[Update]) -> (Vec<usize>, usize) {
    let mut query_slot = vec![usize::MAX; batch.len()];
    let mut num_queries = 0usize;
    for (i, op) in batch.iter().enumerate() {
        if matches!(op, Update::Query(..)) {
            query_slot[i] = num_queries;
            num_queries += 1;
        }
    }
    (query_slot, num_queries)
}

/// A batch-incremental connectivity structure over a *statically chosen*
/// union-find kernel: every per-edge loop below is monomorphized for `K`.
/// For runtime variant selection use [`StreamingConnectivity`], which
/// dispatches onto this type once at construction.
pub struct UfStreaming<K: UniteKernel> {
    parents: Box<Parents>,
    kernel: K,
    query_paths: PathStats,
}

impl<K: UniteKernel> UfStreaming<K> {
    /// Creates the structure for an initially empty graph on `n` vertices,
    /// building the kernel from `(n, seed)`.
    pub fn new(n: usize, seed: u64) -> Self {
        Self::with_kernel(n, K::build(n, seed))
    }

    /// Creates the structure around an existing kernel instance (the
    /// dispatch path).
    pub fn with_kernel(n: usize, kernel: K) -> Self {
        UfStreaming { parents: make_parents(n), kernel, query_paths: PathStats::new() }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.parents.len()
    }

    /// This instance's streaming type: Type (i) wait-free, or Type (iii)
    /// phase-concurrent for kernels whose finds may not run concurrently
    /// with unions.
    pub fn stream_type(&self) -> StreamType {
        if self.kernel.concurrent_finds() {
            StreamType::WaitFree
        } else {
            StreamType::PhaseConcurrent
        }
    }

    /// Applies a batch of operations in parallel; returns the answers to
    /// the queries, in their order of appearance within the batch.
    /// Insert-side kernels run telemetry-free; query-side finds aggregate
    /// per-chunk hop counts into [`Self::query_path_lengths`].
    pub fn process_batch(&self, batch: &[Update]) -> Vec<bool> {
        let (query_slot, num_queries) = query_slots(batch);
        let results: Vec<AtomicU8> =
            cc_parallel::parallel_tabulate(num_queries, |_| AtomicU8::new(0));
        let p = &self.parents;
        let kernel = &self.kernel;

        if kernel.concurrent_finds() {
            // Type (i): one concurrent pass over the mixed batch.
            parallel_for_chunks(batch.len(), |r| {
                let (mut qt, mut qm, mut qn) = (0u64, 0u64, 0u64);
                for i in r {
                    match batch[i] {
                        Update::Insert(u, v) => {
                            kernel.unite(p, u, v, &mut NoCount);
                        }
                        Update::Delete(..) => panic!("{}", DELETE_UNSUPPORTED),
                        Update::Query(u, v) => {
                            let mut t = CountHops::default();
                            let c = same_set_with(p, |x| kernel.find(p, x, &mut t), u, v);
                            results[query_slot[i]].store(u8::from(c), Ordering::Relaxed);
                            qt += t.0;
                            qm = qm.max(t.0);
                            qn += 1;
                        }
                    }
                }
                self.query_paths.record_bulk(qt, qm, qn);
            });
        } else {
            // Type (iii): update phase, barrier, query phase.
            parallel_for_chunks(batch.len(), |r| {
                for i in r {
                    match batch[i] {
                        Update::Insert(u, v) => {
                            kernel.unite(p, u, v, &mut NoCount);
                        }
                        Update::Delete(..) => panic!("{}", DELETE_UNSUPPORTED),
                        Update::Query(..) => {}
                    }
                }
            });
            parallel_for_chunks(batch.len(), |r| {
                let (mut qt, mut qm, mut qn) = (0u64, 0u64, 0u64);
                for i in r {
                    if let Update::Query(u, v) = batch[i] {
                        let mut t = CountHops::default();
                        let c = kernel.find(p, u, &mut t) == kernel.find(p, v, &mut t);
                        results[query_slot[i]].store(u8::from(c), Ordering::Relaxed);
                        qt += t.0;
                        qm = qm.max(t.0);
                        qn += 1;
                    }
                }
                self.query_paths.record_bulk(qt, qm, qn);
            });
        }
        results.iter().map(|r| r.load(Ordering::Relaxed) == 1).collect()
    }

    /// Single asynchronous edge insertion, callable concurrently from many
    /// threads (Type (i) only).
    ///
    /// # Panics
    /// For phase-concurrent (Rem+Splice) kernels, which require
    /// [`Self::insert_phase_concurrent`] under the caller's barrier.
    pub fn insert(&self, u: VertexId, v: VertexId) {
        assert!(
            self.kernel.concurrent_finds(),
            "single asynchronous inserts require a wait-free union-find backend; \
             use process_batch"
        );
        self.kernel.unite(&self.parents, u, v, &mut NoCount);
    }

    /// Edge insertion for phase-concurrent (Type (iii)) use: may be called
    /// concurrently with other inserts from many threads, but the caller
    /// must guarantee no query ([`Self::connected`], [`Self::current_label`],
    /// snapshots) runs until the update phase is over (Theorem 3's
    /// barrier). Available for *every* kernel; the protocol obligation is
    /// the caller's.
    pub fn insert_phase_concurrent(&self, u: VertexId, v: VertexId) {
        self.kernel.unite(&self.parents, u, v, &mut NoCount);
    }

    /// Single linearizable connectivity query against the current state.
    /// Wait-free alongside concurrent [`Self::insert`] calls on Type (i)
    /// kernels (uses the root-recheck retry loop, so a concurrent merge
    /// can never produce a stale `false` for already-connected vertices).
    pub fn connected(&self, u: VertexId, v: VertexId) -> bool {
        let p = &self.parents;
        same_set_with(p, |x| find_root_readonly(p, x), u, v)
    }

    /// The current representative label of `v`, without snapshotting the
    /// whole labeling. Read-only; exact when quiescent.
    pub fn current_label(&self, v: VertexId) -> VertexId {
        find_root_readonly(&self.parents, v)
    }

    /// Number of connected components in the current state (read-only
    /// root count; exact when quiescent).
    pub fn num_components(&self) -> usize {
        count_roots(&self.parents)
    }

    /// Snapshot of the current component labeling (fully compressed).
    pub fn labels(&self) -> Vec<VertexId> {
        snapshot_labels(&self.parents)
    }

    /// Read-only labeling snapshot: like [`Self::labels`] but writes
    /// nothing. Concurrent insertions may tear it; exact when quiescent.
    pub fn labels_readonly(&self) -> Vec<VertexId> {
        snapshot_labels_readonly(&self.parents)
    }

    /// Accumulated query-path statistics: hop counts of every batched
    /// query's finds (Total/Max Path Length over the query side). Insert
    /// paths are telemetry-free and contribute nothing.
    pub fn query_path_lengths(&self) -> PathLengths {
        self.query_paths.snapshot()
    }

    /// The kernel's display name, e.g.
    /// `Union-Rem-CAS{SplitAtomicOne; FindNaive}`.
    pub fn algorithm_name(&self) -> String {
        self.kernel.name()
    }
}

/// The object-safe face of [`UfStreaming`] the runtime facade holds:
/// erasure happens at batch / single-operation granularity, so every
/// per-edge loop underneath stays monomorphized.
trait UfStreamDyn: Send + Sync {
    fn num_vertices(&self) -> usize;
    fn stream_type(&self) -> StreamType;
    fn process_batch(&self, batch: &[Update]) -> Vec<bool>;
    fn insert(&self, u: VertexId, v: VertexId);
    fn insert_phase_concurrent(&self, u: VertexId, v: VertexId);
    fn connected(&self, u: VertexId, v: VertexId) -> bool;
    fn current_label(&self, v: VertexId) -> VertexId;
    fn num_components(&self) -> usize;
    fn labels(&self) -> Vec<VertexId>;
    fn labels_readonly(&self) -> Vec<VertexId>;
    fn query_path_lengths(&self) -> PathLengths;
}

impl<K: UniteKernel> UfStreamDyn for UfStreaming<K> {
    fn num_vertices(&self) -> usize {
        UfStreaming::num_vertices(self)
    }
    fn stream_type(&self) -> StreamType {
        UfStreaming::stream_type(self)
    }
    fn process_batch(&self, batch: &[Update]) -> Vec<bool> {
        UfStreaming::process_batch(self, batch)
    }
    fn insert(&self, u: VertexId, v: VertexId) {
        UfStreaming::insert(self, u, v)
    }
    fn insert_phase_concurrent(&self, u: VertexId, v: VertexId) {
        UfStreaming::insert_phase_concurrent(self, u, v)
    }
    fn connected(&self, u: VertexId, v: VertexId) -> bool {
        UfStreaming::connected(self, u, v)
    }
    fn current_label(&self, v: VertexId) -> VertexId {
        UfStreaming::current_label(self, v)
    }
    fn num_components(&self) -> usize {
        UfStreaming::num_components(self)
    }
    fn labels(&self) -> Vec<VertexId> {
        UfStreaming::labels(self)
    }
    fn labels_readonly(&self) -> Vec<VertexId> {
        UfStreaming::labels_readonly(self)
    }
    fn query_path_lengths(&self) -> PathLengths {
        UfStreaming::query_path_lengths(self)
    }
}

/// The synchronous (Type (ii)) backends, which share one parent array.
enum ClassicAlg {
    Sv,
    Lt(LtScheme),
}

struct Classic {
    parents: Box<Parents>,
    alg: ClassicAlg,
}

enum Inner {
    /// A monomorphized union-find stream behind a batch-granular vtable.
    Uf(Box<dyn UfStreamDyn>),
    /// Shiloach–Vishkin / Liu–Tarjan synchronous execution.
    Classic(Classic),
}

/// A batch-incremental connectivity structure over `n` vertices with the
/// algorithm chosen at runtime. Union-find configurations dispatch to a
/// monomorphized [`UfStreaming`] kernel once, here at construction; no
/// per-edge virtual calls remain.
pub struct StreamingConnectivity {
    inner: Inner,
}

impl StreamingConnectivity {
    /// Creates the structure for an initially empty graph on `n` vertices.
    ///
    /// # Panics
    /// For `StreamAlgorithm::LiuTarjan` schemes without `RootUp`: only the
    /// root-based (monotone) schemes are sound when previous batches'
    /// edges are not re-applied.
    pub fn new(n: usize, algorithm: &StreamAlgorithm, seed: u64) -> Self {
        struct Boxer {
            n: usize,
        }
        impl KernelVisitor for Boxer {
            type Out = Box<dyn UfStreamDyn>;
            fn visit<K: UniteKernel>(self, kernel: K) -> Box<dyn UfStreamDyn> {
                Box::new(UfStreaming::with_kernel(self.n, kernel))
            }
        }
        let inner = match algorithm {
            StreamAlgorithm::UnionFind(spec) => Inner::Uf(spec.dispatch(n, seed, Boxer { n })),
            StreamAlgorithm::ShiloachVishkin => {
                Inner::Classic(Classic { parents: make_parents(n), alg: ClassicAlg::Sv })
            }
            StreamAlgorithm::LiuTarjan(scheme) => {
                assert!(
                    scheme.root_up,
                    "only root-based (RootUp) Liu-Tarjan schemes support streaming"
                );
                Inner::Classic(Classic { parents: make_parents(n), alg: ClassicAlg::Lt(*scheme) })
            }
        };
        StreamingConnectivity { inner }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        match &self.inner {
            Inner::Uf(uf) => uf.num_vertices(),
            Inner::Classic(c) => c.parents.len(),
        }
    }

    /// This instance's streaming type.
    pub fn stream_type(&self) -> StreamType {
        match &self.inner {
            Inner::Uf(uf) => uf.stream_type(),
            Inner::Classic(_) => StreamType::SynchronousUpdates,
        }
    }

    /// Applies a batch of operations in parallel; returns the answers to
    /// the queries, in their order of appearance within the batch.
    pub fn process_batch(&self, batch: &[Update]) -> Vec<bool> {
        let c = match &self.inner {
            Inner::Uf(uf) => return uf.process_batch(batch),
            Inner::Classic(c) => c,
        };
        let (query_slot, num_queries) = query_slots(batch);
        let results: Vec<AtomicU8> =
            cc_parallel::parallel_tabulate(num_queries, |_| AtomicU8::new(0));
        let p = &c.parents;
        let inserts: Vec<Edge> = pack_map(batch.len(), |i| match batch[i] {
            Update::Insert(u, v) => Some((u, v)),
            Update::Delete(..) => panic!("{}", DELETE_UNSUPPORTED),
            Update::Query(..) => None,
        });
        match &c.alg {
            ClassicAlg::Sv => sv_rounds_on_edges(p, &inserts, None),
            ClassicAlg::Lt(scheme) => {
                // RootUp schemes only update roots, so contract the
                // batch to current representatives first.
                let contracted: Vec<Edge> = pack_map(inserts.len(), |i| {
                    let (u, v) = inserts[i];
                    let (ru, rv) = (find_root_readonly(p, u), find_root_readonly(p, v));
                    (ru != rv).then_some((ru, rv))
                });
                run_on_edges(p, contracted, *scheme, MinKey::plain());
            }
        }
        parallel_for_chunks(batch.len(), |r| {
            for i in r {
                if let Update::Query(u, v) = batch[i] {
                    let conn = find_root_readonly(p, u) == find_root_readonly(p, v);
                    results[query_slot[i]].store(u8::from(conn), Ordering::Relaxed);
                }
            }
        });
        results.iter().map(|r| r.load(Ordering::Relaxed) == 1).collect()
    }

    /// Single asynchronous edge insertion, callable concurrently from many
    /// threads. Only available for the wait-free union-find backends
    /// (Section 3.5's "asynchronous updates and queries" subset).
    ///
    /// # Panics
    /// For synchronous (SV / Liu–Tarjan) and phase-concurrent (Rem+Splice)
    /// backends, which require batch processing.
    pub fn insert(&self, u: VertexId, v: VertexId) {
        match &self.inner {
            Inner::Uf(uf) => uf.insert(u, v),
            Inner::Classic(_) => panic!(
                "single asynchronous inserts require a wait-free union-find backend; \
                 use process_batch"
            ),
        }
    }

    /// Edge insertion for phase-concurrent (Type (iii)) use: may be called
    /// concurrently with other inserts from many threads, but the caller
    /// must guarantee no query ([`Self::connected`], [`Self::current_label`],
    /// snapshots) runs until the update phase is over (Theorem 3's barrier).
    /// Unlike [`Self::insert`] this is available for *every* union-find
    /// backend, including Rem + `SpliceAtomic`; the protocol obligation is
    /// the caller's.
    ///
    /// # Panics
    /// For synchronous (SV / Liu–Tarjan) backends, which require batch
    /// processing.
    pub fn insert_phase_concurrent(&self, u: VertexId, v: VertexId) {
        match &self.inner {
            Inner::Uf(uf) => uf.insert_phase_concurrent(u, v),
            Inner::Classic(_) => {
                panic!("phase-concurrent inserts require a union-find backend; use process_batch")
            }
        }
    }

    /// Single linearizable connectivity query against the current state.
    /// Wait-free alongside concurrent [`Self::insert`] calls on Type (i)
    /// backends (uses the root-recheck retry loop, so a concurrent merge
    /// can never produce a stale `false` for already-connected vertices).
    pub fn connected(&self, u: VertexId, v: VertexId) -> bool {
        match &self.inner {
            Inner::Uf(uf) => uf.connected(u, v),
            Inner::Classic(c) => {
                let p = &c.parents;
                same_set_with(p, |x| find_root_readonly(p, x), u, v)
            }
        }
    }

    /// The current representative label of `v`, without snapshotting the
    /// whole labeling. Read-only; exact when quiescent. Between batches,
    /// two vertices are in the same component iff their labels match.
    pub fn current_label(&self, v: VertexId) -> VertexId {
        match &self.inner {
            Inner::Uf(uf) => uf.current_label(v),
            Inner::Classic(c) => find_root_readonly(&c.parents, v),
        }
    }

    /// Number of connected components in the current state, computed as a
    /// read-only root count — no label snapshot is allocated. Exact when
    /// quiescent (e.g. between batches); during concurrent insertions it is
    /// an upper bound on the post-batch count.
    pub fn num_components(&self) -> usize {
        match &self.inner {
            Inner::Uf(uf) => uf.num_components(),
            Inner::Classic(c) => count_roots(&c.parents),
        }
    }

    /// Snapshot of the current component labeling (fully compressed).
    pub fn labels(&self) -> Vec<VertexId> {
        match &self.inner {
            Inner::Uf(uf) => uf.labels(),
            Inner::Classic(c) => snapshot_labels(&c.parents),
        }
    }

    /// Read-only labeling snapshot: like [`Self::labels`] but writes
    /// nothing, so it can run while other threads hold live references and
    /// is safe concurrently with wait-free queries. Concurrent insertions
    /// may tear it; exact when quiescent (the service layer snapshots
    /// between batches).
    pub fn labels_readonly(&self) -> Vec<VertexId> {
        match &self.inner {
            Inner::Uf(uf) => uf.labels_readonly(),
            Inner::Classic(c) => snapshot_labels_readonly(&c.parents),
        }
    }

    /// Accumulated query-path statistics (Total/Max Path Length over the
    /// find walks of every batched query). Union-find backends record
    /// these per batch; the synchronous backends answer queries from
    /// depth-1 trees and report zeros.
    pub fn query_path_lengths(&self) -> PathLengths {
        match &self.inner {
            Inner::Uf(uf) => uf.query_path_lengths(),
            Inner::Classic(_) => PathLengths::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_graph::generators::rmat_default;
    use cc_graph::stats::same_partition;
    use cc_unionfind::oracle_labels;
    use cc_unionfind::{FindKind, SpliceKind, UniteKind};

    fn algorithms() -> Vec<StreamAlgorithm> {
        vec![
            StreamAlgorithm::UnionFind(UfSpec::fastest()),
            StreamAlgorithm::UnionFind(UfSpec::new(UniteKind::Async, FindKind::Halve)),
            StreamAlgorithm::UnionFind(UfSpec::rem(
                UniteKind::RemCas,
                SpliceKind::Splice,
                FindKind::Naive,
            )),
            StreamAlgorithm::ShiloachVishkin,
            StreamAlgorithm::LiuTarjan(LtScheme::crfa()),
        ]
    }

    #[test]
    fn stream_types_classified() {
        let s1 = StreamingConnectivity::new(4, &StreamAlgorithm::UnionFind(UfSpec::fastest()), 0);
        assert_eq!(s1.stream_type(), StreamType::WaitFree);
        let splice = UfSpec::rem(UniteKind::RemCas, SpliceKind::Splice, FindKind::Naive);
        let s2 = StreamingConnectivity::new(4, &StreamAlgorithm::UnionFind(splice), 0);
        assert_eq!(s2.stream_type(), StreamType::PhaseConcurrent);
        let s3 = StreamingConnectivity::new(4, &StreamAlgorithm::ShiloachVishkin, 0);
        assert_eq!(s3.stream_type(), StreamType::SynchronousUpdates);
    }

    #[test]
    #[should_panic(expected = "RootUp")]
    fn non_rootup_lt_rejected() {
        StreamingConnectivity::new(4, &StreamAlgorithm::LiuTarjan(LtScheme::pus()), 0);
    }

    #[test]
    fn sequential_semantics_small() {
        for alg in algorithms() {
            let s = StreamingConnectivity::new(6, &alg, 1);
            let r =
                s.process_batch(&[Update::Query(0, 1), Update::Insert(0, 1), Update::Insert(2, 3)]);
            // A query in the same batch as inserts may see them (batch
            // operations are unordered); only its length is guaranteed.
            assert_eq!(r.len(), 1);
            let r2 = s.process_batch(&[Update::Query(0, 1), Update::Query(0, 2)]);
            assert_eq!(r2, vec![true, false], "{}", alg.name());
            s.process_batch(&[Update::Insert(1, 2)]);
            assert!(s.connected(0, 3), "{}", alg.name());
        }
    }

    #[test]
    fn batched_inserts_match_static_oracle() {
        let el = rmat_default(11, 12_000, 3);
        let n = el.num_vertices;
        let expect = oracle_labels(n, &el.edges);
        for alg in algorithms() {
            let s = StreamingConnectivity::new(n, &alg, 7);
            for chunk in el.edges.chunks(1000) {
                let batch: Vec<Update> = chunk.iter().map(|&(u, v)| Update::Insert(u, v)).collect();
                s.process_batch(&batch);
            }
            assert!(same_partition(&expect, &s.labels()), "{}", alg.name());
        }
    }

    #[test]
    fn mixed_batches_answer_correctly_across_batches() {
        // Queries about state established in *previous* batches have
        // deterministic answers.
        for alg in algorithms() {
            let s = StreamingConnectivity::new(8, &alg, 5);
            s.process_batch(&[Update::Insert(0, 1), Update::Insert(2, 3)]);
            s.process_batch(&[Update::Insert(1, 2)]);
            let r = s.process_batch(&[
                Update::Query(0, 3),
                Update::Query(0, 4),
                Update::Insert(4, 5),
                Update::Query(6, 7),
            ]);
            assert_eq!(r, vec![true, false, false], "{}", alg.name());
        }
    }

    #[test]
    fn async_single_ops_from_many_threads() {
        let el = rmat_default(10, 5_000, 41);
        let n = el.num_vertices;
        let s = StreamingConnectivity::new(n, &StreamAlgorithm::UnionFind(UfSpec::fastest()), 3);
        cc_parallel::parallel_for_chunks(el.edges.len(), |r| {
            for i in r {
                let (u, v) = el.edges[i];
                s.insert(u, v);
                // Interleaved wait-free queries must not wedge.
                let _ = s.connected(u, v);
            }
        });
        let expect = oracle_labels(n, &el.edges);
        assert!(same_partition(&expect, &s.labels()));
    }

    #[test]
    #[should_panic(expected = "wait-free")]
    fn async_insert_rejected_for_synchronous_backend() {
        let s = StreamingConnectivity::new(4, &StreamAlgorithm::ShiloachVishkin, 0);
        s.insert(0, 1);
    }

    #[test]
    #[should_panic(expected = "wait-free")]
    fn async_insert_rejected_for_splice_backend() {
        let splice = UfSpec::rem(UniteKind::RemCas, SpliceKind::Splice, FindKind::Naive);
        let s = StreamingConnectivity::new(4, &StreamAlgorithm::UnionFind(splice), 0);
        s.insert(0, 1);
    }

    #[test]
    fn accessors_report_state_without_snapshot() {
        let s = StreamingConnectivity::new(6, &StreamAlgorithm::UnionFind(UfSpec::fastest()), 0);
        assert_eq!(s.num_components(), 6);
        s.process_batch(&[Update::Insert(0, 1), Update::Insert(2, 3)]);
        assert_eq!(s.num_components(), 4);
        assert_eq!(s.current_label(0), s.current_label(1));
        assert_ne!(s.current_label(0), s.current_label(2));
        assert_eq!(s.current_label(4), 4);
        let ro = s.labels_readonly();
        assert_eq!(ro, s.labels());
    }

    #[test]
    fn query_path_lengths_accumulate() {
        // Build a long path with FindNaive (no compaction on inserts),
        // then query across it: the recorded query paths must be nonzero
        // and grow with more queries.
        let spec = UfSpec::new(UniteKind::Async, FindKind::Naive);
        let s = StreamingConnectivity::new(64, &StreamAlgorithm::UnionFind(spec), 0);
        let inserts: Vec<Update> = (0..63).map(|i| Update::Insert(i, i + 1)).collect();
        s.process_batch(&inserts);
        assert_eq!(s.query_path_lengths(), PathLengths::default(), "inserts record nothing");
        let r = s.process_batch(&[Update::Query(0, 63), Update::Query(40, 50)]);
        assert_eq!(r, vec![true, true]);
        let pl = s.query_path_lengths();
        assert_eq!(pl.operations, 2);
        assert!(pl.total > 0, "deep-tree queries must walk hops: {pl}");
        assert!(pl.max <= pl.total);
        let before = pl.total;
        s.process_batch(&[Update::Query(0, 1)]);
        let after = s.query_path_lengths();
        assert_eq!(after.operations, 3);
        assert!(after.total >= before);
        // Synchronous backends report zeros.
        let sv = StreamingConnectivity::new(8, &StreamAlgorithm::ShiloachVishkin, 0);
        sv.process_batch(&[Update::Insert(0, 1), Update::Query(0, 1)]);
        assert_eq!(sv.query_path_lengths(), PathLengths::default());
    }

    #[test]
    fn phase_concurrent_inserts_for_splice_backend() {
        let splice = UfSpec::rem(UniteKind::RemCas, SpliceKind::Splice, FindKind::Naive);
        let el = rmat_default(10, 4_000, 17);
        let n = el.num_vertices;
        let s = StreamingConnectivity::new(n, &StreamAlgorithm::UnionFind(splice), 0);
        // Update phase: concurrent unites, no finds.
        cc_parallel::parallel_for_chunks(el.edges.len(), |r| {
            for i in r {
                let (u, v) = el.edges[i];
                s.insert_phase_concurrent(u, v);
            }
        });
        // Barrier (parallel_for_chunks returned), then query phase.
        let expect = oracle_labels(n, &el.edges);
        assert!(same_partition(&expect, &s.labels()));
    }

    #[test]
    #[should_panic(expected = "union-find backend")]
    fn phase_concurrent_insert_rejected_for_sv() {
        let s = StreamingConnectivity::new(4, &StreamAlgorithm::ShiloachVishkin, 0);
        s.insert_phase_concurrent(0, 1);
    }

    #[test]
    fn generic_ufstreaming_direct_use() {
        // The monomorphized building block is usable without the facade.
        let s: UfStreaming<cc_unionfind::FastestKernel> = UfStreaming::new(8, 0);
        s.insert(0, 1);
        s.insert(1, 2);
        assert!(s.connected(0, 2));
        assert!(!s.connected(0, 3));
        assert_eq!(s.num_components(), 6);
        let r = s.process_batch(&[Update::Insert(3, 4), Update::Query(3, 4)]);
        assert_eq!(r, vec![true]);
    }
}
