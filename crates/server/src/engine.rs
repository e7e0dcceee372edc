//! The sharded connectivity engine: vertex-range shards, each backed by a
//! [`connectit::UfStreaming`] over its local id space, stitched together
//! by a shared union-find *spine* over the full vertex set.
//!
//! [`ShardedEngine`] is generic over the union-find kernel: the whole
//! batch loop — shard inserts, spine forwards, queries — is monomorphized
//! per variant through [`cc_unionfind::UfSpec::dispatch`]
//! ([`build_engine`]), so no per-edge virtual calls survive anywhere in
//! the service. The service layer holds the engine behind the
//! batch-granular [`Engine`] trait.
//!
//! ## Why this is correct
//!
//! The spine receives (a) every cross-shard edge and (b) every intra-shard
//! edge that was *novel* — not already connected inside its shard — at the
//! time its batch was classified. By induction over batches, the spine's
//! equivalence relation equals the whole graph's connectivity relation: an
//! intra-shard edge is dropped only when its endpoints were already
//! locally connected, i.e. joined by a chain of earlier intra-shard edges
//! each of which was novel when applied and therefore forwarded. Queries
//! are answered from the spine alone (with a same-shard local fast path);
//! component counts and label snapshots also come from the spine.
//!
//! ## Why this is fast
//!
//! Each shard's parent array covers only its vertex range, so the hot
//! arrays for intra-shard traffic are small and per-shard, and a shard
//! can absorb any number of *redundant* intra-shard edges without ever
//! touching shared state. Spine traffic from intra-shard edges is
//! amortized: an edge forwards at most once per batch (duplicates are
//! deduplicated at classification) and never again once its endpoints
//! are locally connected, so a shard's lifetime forwards track its
//! distinct novel edges — close to its merge count (`w - 1` for a shard
//! of `w` vertices, plus per-batch novel cycles) — not its raw edge
//! volume. Over-forwarding is harmless (the spine union is idempotent).
//!
//! The same argument lets a rebuilt generation start from a labeling
//! rather than an edge replay ([`Engine::seed_from_labels`]): only the
//! spine is seeded. The shards stay empty, so their relation is a subset
//! of the truth — a same-shard pair the labeling connects merely misses
//! the local fast path and is answered by the spine, and the first insert
//! of such a pair looks novel and is forwarded to a spine that already
//! has it.
//!
//! ## Execution modes
//!
//! - [`ExecMode::WaitFree`] (paper Type (i)): the whole batch — updates
//!   *and* queries — runs in one parallel pass; queries use the
//!   linearizable root-recheck loop.
//! - [`ExecMode::Phased`] (paper Type (iii), Theorem 3): an update phase
//!   over all shards and the spine, a barrier, then a query phase. This is
//!   the configurable fast path that unlocks the Rem + `SpliceAtomic`
//!   variants, which forbid finds concurrent with unions.

use cc_unionfind::{KernelVisitor, UfSpec, UniteKernel};
use connectit::{StreamType, UfStreaming, Update};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};

/// Requested batch-execution discipline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecMode {
    /// Pick [`ExecMode::WaitFree`] when the variant supports concurrent
    /// finds, [`ExecMode::Phased`] otherwise.
    Auto,
    /// Type (i): one concurrent pass over the whole mixed batch.
    WaitFree,
    /// Type (iii): update phase, barrier, query phase.
    Phased,
}

/// Resolved execution discipline (no `Auto`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunMode {
    /// Type (i) single-pass execution.
    WaitFree,
    /// Type (iii) phase-concurrent execution.
    Phased,
}

impl std::fmt::Display for RunMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunMode::WaitFree => write!(f, "wait-free"),
            RunMode::Phased => write!(f, "phased"),
        }
    }
}

/// An invalid engine configuration.
#[derive(Debug)]
pub enum EngineError {
    /// `n` must be at least 1.
    EmptyVertexSet,
    /// Wait-free execution was requested for a variant whose finds may not
    /// run concurrently with unions (Rem + `SpliceAtomic`).
    NotWaitFreeCapable(String),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::EmptyVertexSet => write!(f, "engine needs at least one vertex"),
            EngineError::NotWaitFreeCapable(name) => {
                write!(f, "{name} is phase-concurrent only; use ExecMode::Phased or Auto")
            }
        }
    }
}

impl std::error::Error for EngineError {}

/// Monotone operation counters, readable at any time.
#[derive(Default)]
pub struct EngineCounters {
    /// Insertions whose endpoints shared a shard.
    pub intra_inserts: AtomicU64,
    /// Insertions spanning two shards (applied to the spine directly).
    pub cross_inserts: AtomicU64,
    /// Intra-shard insertions also forwarded to the spine because they
    /// were novel at classification time.
    pub forwarded: AtomicU64,
}

/// The batch-granular, object-safe face of [`ShardedEngine`] the service
/// layer holds: one virtual call per batch (or per read-side operation),
/// with the monomorphized per-edge loops underneath.
pub trait Engine: Send + Sync {
    /// Number of vertices.
    fn num_vertices(&self) -> usize;
    /// Number of shards.
    fn num_shards(&self) -> usize;
    /// The resolved execution discipline.
    fn mode(&self) -> RunMode;
    /// The union-find variant's display name.
    fn algorithm_name(&self) -> String;
    /// The monotone operation counters.
    fn counters(&self) -> &EngineCounters;
    /// Applies a mixed batch; returns query answers in order of appearance.
    fn process_batch(&self, batch: &[Update]) -> Vec<bool>;
    /// Seeds a *fresh* engine (nothing inserted, not yet shared) with the
    /// components of an existing labeling, instead of replaying a forest
    /// of them edge by edge.
    fn seed_from_labels(&self, labels: &[u32]);
    /// Linearizable connectivity query.
    fn connected(&self, u: u32, v: u32) -> bool;
    /// Current global component label of `v` (exact when quiescent).
    fn current_label(&self, v: u32) -> u32;
    /// Number of global connected components (exact when quiescent).
    fn num_components(&self) -> usize;
    /// Read-only snapshot of the global component labeling.
    fn labels_readonly(&self) -> Vec<u32>;
}

/// Builds a [`ShardedEngine`] for the runtime-selected variant `spec`,
/// monomorphized through the dispatcher and erased at batch granularity.
pub fn build_engine(
    n: usize,
    shards: usize,
    spec: &UfSpec,
    mode: ExecMode,
    seed: u64,
) -> Result<Box<dyn Engine>, EngineError> {
    struct Builder {
        n: usize,
        shards: usize,
        mode: ExecMode,
        seed: u64,
    }
    impl KernelVisitor for Builder {
        type Out = Result<Box<dyn Engine>, EngineError>;
        fn visit<K: UniteKernel>(self, kernel: K) -> Self::Out {
            // The dispatched kernel was built for (n, seed) — exactly the
            // spine's parameters; stateful kernels (locks, ranks, hooks)
            // are O(n) to build, so reuse it rather than rebuilding.
            let e = ShardedEngine::with_spine_kernel(
                self.n,
                self.shards,
                self.mode,
                self.seed,
                kernel,
            )?;
            Ok(Box::new(e))
        }
    }
    if n == 0 {
        // Reject before dispatch: kernels for n = 0 are legal but useless.
        return Err(EngineError::EmptyVertexSet);
    }
    spec.dispatch(n, seed, Builder { n, shards, mode, seed })
}

/// One classified batch operation (see [`ShardedEngine::process_batch`]).
enum EngineOp {
    /// Intra-shard insert, pre-translated to shard-local ids; `forward`
    /// carries the novelty verdict from classification.
    Local { shard: u32, lu: u32, lv: u32, gu: u32, gv: u32, forward: bool },
    /// Cross-shard insert, applied to the spine.
    Spine { u: u32, v: u32 },
    /// Connectivity query, answered into `slot`.
    Query { u: u32, v: u32, slot: u32 },
}

/// A sharded, batch-incremental connectivity structure over `n` vertices,
/// monomorphized over the union-find kernel `K`.
///
/// `process_batch` must not be called concurrently with itself (the
/// service layer's batch former serializes batches); in wait-free mode,
/// read-side methods ([`Engine::connected`], [`Engine::current_label`],
/// [`Engine::num_components`], [`Engine::labels_readonly`]) may run
/// concurrently with an in-flight batch.
pub struct ShardedEngine<K: UniteKernel> {
    n: usize,
    shard_width: usize,
    shards: Vec<UfStreaming<K>>,
    spine: UfStreaming<K>,
    mode: RunMode,
    counters: EngineCounters,
}

impl<K: UniteKernel> ShardedEngine<K> {
    /// Builds an engine over `n` vertices split into (at most) `shards`
    /// contiguous vertex ranges, every shard and the spine running the
    /// kernel `K` (built from `seed`).
    pub fn new(n: usize, shards: usize, mode: ExecMode, seed: u64) -> Result<Self, EngineError> {
        if n == 0 {
            return Err(EngineError::EmptyVertexSet);
        }
        Self::with_spine_kernel(n, shards, mode, seed, K::build(n, seed))
    }

    /// [`Self::new`] with the spine's kernel instance supplied by the
    /// caller (it must have been built for `(n, seed)`); the dispatch
    /// path uses this to avoid constructing a second O(n) kernel.
    pub fn with_spine_kernel(
        n: usize,
        shards: usize,
        mode: ExecMode,
        seed: u64,
        spine_kernel: K,
    ) -> Result<Self, EngineError> {
        if n == 0 {
            return Err(EngineError::EmptyVertexSet);
        }
        let shards = shards.clamp(1, n);
        let shard_width = n.div_ceil(shards);
        let num_shards = n.div_ceil(shard_width);
        let spine: UfStreaming<K> = UfStreaming::with_kernel(n, spine_kernel);
        let wait_free_capable = spine.stream_type() == StreamType::WaitFree;
        let mode = match mode {
            ExecMode::Auto => {
                if wait_free_capable {
                    RunMode::WaitFree
                } else {
                    RunMode::Phased
                }
            }
            ExecMode::WaitFree => {
                if !wait_free_capable {
                    return Err(EngineError::NotWaitFreeCapable(spine.algorithm_name()));
                }
                RunMode::WaitFree
            }
            ExecMode::Phased => RunMode::Phased,
        };
        let shards = (0..num_shards)
            .map(|s| {
                let lo = s * shard_width;
                let size = shard_width.min(n - lo);
                UfStreaming::new(size, seed.wrapping_add(1 + s as u64))
            })
            .collect();
        Ok(ShardedEngine {
            n,
            shard_width,
            shards,
            spine,
            mode,
            counters: EngineCounters::default(),
        })
    }

    #[inline]
    fn shard_of(&self, v: u32) -> usize {
        v as usize / self.shard_width
    }
}

impl<K: UniteKernel> Engine for ShardedEngine<K> {
    fn num_vertices(&self) -> usize {
        self.n
    }

    fn num_shards(&self) -> usize {
        self.shards.len()
    }

    fn mode(&self) -> RunMode {
        self.mode
    }

    fn algorithm_name(&self) -> String {
        self.spine.algorithm_name()
    }

    fn counters(&self) -> &EngineCounters {
        &self.counters
    }

    /// Applies a mixed batch; returns query answers in order of appearance.
    ///
    /// Queries may observe any subset of the same batch's insertions
    /// (operations within a batch are concurrent); state from previous
    /// batches is always fully visible.
    fn process_batch(&self, batch: &[Update]) -> Vec<bool> {
        // Classify on the (quiescent) pre-batch state: route every op,
        // translate intra-shard edges to local ids, and decide spine
        // forwarding via the local novelty check. `fwd_seen` suppresses
        // duplicate copies of the same novel edge within this batch (the
        // novelty check alone runs against the pre-batch state, so every
        // copy would otherwise look novel); it only ever holds this
        // batch's novel edges, so it stays small.
        let mut ops: Vec<EngineOp> = Vec::with_capacity(batch.len());
        let mut fwd_seen: std::collections::HashSet<(u32, u32)> = std::collections::HashSet::new();
        let mut num_queries = 0u32;
        let (mut intra, mut cross, mut fwd) = (0u64, 0u64, 0u64);
        for &op in batch {
            match op {
                Update::Insert(u, v) => {
                    let (su, sv) = (self.shard_of(u), self.shard_of(v));
                    if su == sv {
                        let lo = (su * self.shard_width) as u32;
                        let (lu, lv) = (u - lo, v - lo);
                        let forward = !self.shards[su].connected(lu, lv)
                            && fwd_seen.insert((u.min(v), u.max(v)));
                        intra += 1;
                        fwd += u64::from(forward);
                        ops.push(EngineOp::Local {
                            shard: su as u32,
                            lu,
                            lv,
                            gu: u,
                            gv: v,
                            forward,
                        });
                    } else {
                        cross += 1;
                        ops.push(EngineOp::Spine { u, v });
                    }
                }
                // The sharded engine is monotone; the service's generation
                // layer splits deletion-bearing batches before it ever
                // reaches this loop.
                Update::Delete(..) => panic!("{}", connectit::streaming::DELETE_UNSUPPORTED),
                Update::Query(u, v) => {
                    ops.push(EngineOp::Query { u, v, slot: num_queries });
                    num_queries += 1;
                }
            }
        }
        self.counters.intra_inserts.fetch_add(intra, Ordering::Relaxed);
        self.counters.cross_inserts.fetch_add(cross, Ordering::Relaxed);
        self.counters.forwarded.fetch_add(fwd, Ordering::Relaxed);

        let results: Vec<AtomicU8> = (0..num_queries).map(|_| AtomicU8::new(0)).collect();
        match self.mode {
            RunMode::WaitFree => {
                cc_parallel::parallel_for_chunks(ops.len(), |r| {
                    for i in r {
                        match ops[i] {
                            EngineOp::Local { shard, lu, lv, gu, gv, forward } => {
                                self.shards[shard as usize].insert(lu, lv);
                                if forward {
                                    self.spine.insert(gu, gv);
                                }
                            }
                            EngineOp::Spine { u, v } => self.spine.insert(u, v),
                            EngineOp::Query { u, v, slot } => {
                                let c = self.connected(u, v);
                                results[slot as usize].store(u8::from(c), Ordering::Relaxed);
                            }
                        }
                    }
                });
            }
            RunMode::Phased => {
                // Update phase: unions only, across shards and spine.
                cc_parallel::parallel_for_chunks(ops.len(), |r| {
                    for i in r {
                        match ops[i] {
                            EngineOp::Local { shard, lu, lv, gu, gv, forward } => {
                                self.shards[shard as usize].insert_phase_concurrent(lu, lv);
                                if forward {
                                    self.spine.insert_phase_concurrent(gu, gv);
                                }
                            }
                            EngineOp::Spine { u, v } => self.spine.insert_phase_concurrent(u, v),
                            EngineOp::Query { .. } => {}
                        }
                    }
                });
                // Barrier fell out of the parallel region; query phase.
                cc_parallel::parallel_for_chunks(ops.len(), |r| {
                    for i in r {
                        if let EngineOp::Query { u, v, slot } = ops[i] {
                            let c = self.connected(u, v);
                            results[slot as usize].store(u8::from(c), Ordering::Relaxed);
                        }
                    }
                });
            }
        }
        results.iter().map(|r| r.load(Ordering::Relaxed) == 1).collect()
    }

    fn seed_from_labels(&self, labels: &[u32]) {
        self.spine.seed_from_labels(labels);
    }

    /// Linearizable connectivity query. Same-shard pairs that are locally
    /// connected short-circuit without touching the spine; everything else
    /// is answered by the spine, whose relation equals global
    /// connectivity (see module docs). Safe concurrently with an
    /// in-flight wait-free batch.
    fn connected(&self, u: u32, v: u32) -> bool {
        let (su, sv) = (self.shard_of(u), self.shard_of(v));
        if su == sv {
            let lo = (su * self.shard_width) as u32;
            if self.shards[su].connected(u - lo, v - lo) {
                return true;
            }
        }
        self.spine.connected(u, v)
    }

    fn current_label(&self, v: u32) -> u32 {
        self.spine.current_label(v)
    }

    fn num_components(&self) -> usize {
        self.spine.num_components()
    }

    fn labels_readonly(&self) -> Vec<u32> {
        self.spine.labels_readonly()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_graph::generators::rmat_default;
    use cc_graph::stats::same_partition;
    use cc_unionfind::{oracle_labels, FindKind, SpliceKind, UniteKind};

    fn splice_spec() -> UfSpec {
        UfSpec::rem(UniteKind::RemCas, SpliceKind::Splice, FindKind::Naive)
    }

    #[test]
    fn mode_resolution() {
        let e = build_engine(8, 2, &UfSpec::fastest(), ExecMode::Auto, 0).expect("ok");
        assert_eq!(e.mode(), RunMode::WaitFree);
        let e = build_engine(8, 2, &splice_spec(), ExecMode::Auto, 0).expect("ok");
        assert_eq!(e.mode(), RunMode::Phased);
        let e = build_engine(8, 2, &UfSpec::fastest(), ExecMode::Phased, 0).expect("ok");
        assert_eq!(e.mode(), RunMode::Phased);
        assert!(build_engine(8, 2, &splice_spec(), ExecMode::WaitFree, 0).is_err());
        assert!(build_engine(0, 2, &UfSpec::fastest(), ExecMode::Auto, 0).is_err());
    }

    #[test]
    fn engine_reports_algorithm_name() {
        let e = build_engine(8, 2, &UfSpec::fastest(), ExecMode::Auto, 0).expect("ok");
        assert_eq!(e.algorithm_name(), UfSpec::fastest().name());
    }

    #[test]
    fn shard_count_clamps_to_n() {
        let e = build_engine(3, 16, &UfSpec::fastest(), ExecMode::Auto, 0).expect("ok");
        assert!(e.num_shards() <= 3);
        e.process_batch(&[Update::Insert(0, 2)]);
        assert!(e.connected(0, 2));
    }

    #[test]
    fn matches_oracle_across_shard_counts_and_modes() {
        let el = rmat_default(11, 14_000, 5);
        let n = el.num_vertices;
        let expect = oracle_labels(n, &el.edges);
        for shards in [1usize, 3, 4, 8] {
            for (spec, mode) in [
                (UfSpec::fastest(), ExecMode::WaitFree),
                (UfSpec::fastest(), ExecMode::Phased),
                (splice_spec(), ExecMode::Phased),
                (
                    UfSpec::rem(UniteKind::RemLock, SpliceKind::SplitOne, FindKind::Naive),
                    ExecMode::WaitFree,
                ),
            ] {
                let e = build_engine(n, shards, &spec, mode, 42).expect("ok");
                for chunk in el.edges.chunks(997) {
                    let batch: Vec<Update> =
                        chunk.iter().map(|&(u, v)| Update::Insert(u, v)).collect();
                    e.process_batch(&batch);
                }
                assert!(
                    same_partition(&expect, &e.labels_readonly()),
                    "shards={shards} spec={} mode={mode:?}",
                    spec.name()
                );
                assert_eq!(
                    e.num_components(),
                    cc_graph::stats::count_distinct_labels(&expect),
                    "shards={shards}"
                );
            }
        }
    }

    #[test]
    fn seeded_from_labels_is_exact_and_stays_exact_under_inserts() {
        let el = rmat_default(10, 3_000, 9);
        let n = el.num_vertices;
        let (seeded, later) = el.edges.split_at(2_000);
        // Arbitrary (non-minimum) representatives, as a rebuild pass
        // hands them over.
        let labels =
            connectit::LivenessTracker::rebuild(n, seeded, || true).expect("not aborted").labels;
        let expect_seeded = oracle_labels(n, seeded);
        let expect_all = oracle_labels(n, &el.edges);
        for (spec, mode) in [
            (UfSpec::fastest(), ExecMode::WaitFree),
            (
                UfSpec::rem(UniteKind::RemLock, SpliceKind::SplitOne, FindKind::Naive),
                ExecMode::WaitFree,
            ),
            (splice_spec(), ExecMode::Phased),
        ] {
            let e = build_engine(n, 4, &spec, mode, 42).expect("ok");
            e.seed_from_labels(&labels);
            let name = spec.name();
            assert!(same_partition(&expect_seeded, &e.labels_readonly()), "{name}");
            assert_eq!(
                e.num_components(),
                cc_graph::stats::count_distinct_labels(&expect_seeded),
                "{name}"
            );
            // Same-shard and cross-shard pairs alike: the unseeded shards
            // never answer, the spine always does.
            for u in (0..n as u32).step_by(7) {
                let v = (u * 31 + 5) % n as u32;
                let want = expect_seeded[u as usize] == expect_seeded[v as usize];
                assert_eq!(e.connected(u, v), want, "{name}: connected({u}, {v})");
            }
            let queries: Vec<Update> =
                seeded.iter().take(64).map(|&(u, v)| Update::Query(u, v)).collect();
            assert!(e.process_batch(&queries).iter().all(|&a| a), "{name}");
            for chunk in later.chunks(97) {
                let batch: Vec<Update> = chunk.iter().map(|&(u, v)| Update::Insert(u, v)).collect();
                e.process_batch(&batch);
            }
            assert!(same_partition(&expect_all, &e.labels_readonly()), "{name} after inserts");
            assert_eq!(
                e.num_components(),
                cc_graph::stats::count_distinct_labels(&expect_all),
                "{name} after inserts"
            );
        }
    }

    #[test]
    fn generic_engine_direct_use() {
        // The monomorphized engine is usable without the boxed erasure.
        let e = ShardedEngine::<cc_unionfind::FastestKernel>::new(64, 4, ExecMode::Auto, 0)
            .expect("ok");
        e.process_batch(&[Update::Insert(0, 63), Update::Insert(1, 2)]);
        assert!(e.connected(0, 63));
        assert!(!e.connected(0, 1));
    }

    #[test]
    fn cross_shard_chains_answer_correctly() {
        // A path that zig-zags across every shard boundary.
        let n = 64usize;
        let e = build_engine(n, 4, &UfSpec::fastest(), ExecMode::Auto, 0).expect("ok");
        let mut batch = Vec::new();
        for i in 0..(n as u32 - 17) {
            batch.push(Update::Insert(i, i + 17)); // 17 and 16-wide shards: mostly cross
        }
        let answers = e.process_batch(&batch);
        assert!(answers.is_empty());
        // Everything reachable by +17 steps from 0 is one component.
        assert!(e.connected(0, 17));
        assert!(e.connected(0, 34));
        assert!(e.connected(17, 51));
        let c = e.counters();
        assert!(c.cross_inserts.load(Ordering::Relaxed) > 0);
    }

    #[test]
    fn forwarding_is_amortized() {
        let n = 1024usize;
        let e = build_engine(n, 4, &UfSpec::fastest(), ExecMode::Auto, 0).expect("ok");
        // Hammer one shard with the same spanning path many times over.
        for _ in 0..10 {
            let batch: Vec<Update> = (0..255u32).map(|i| Update::Insert(i, i + 1)).collect();
            e.process_batch(&batch);
        }
        let c = e.counters();
        assert_eq!(c.intra_inserts.load(Ordering::Relaxed), 2550);
        // Only the first pass was novel; later passes forward nothing.
        assert_eq!(c.forwarded.load(Ordering::Relaxed), 255);
        assert!(e.connected(0, 255));
        assert!(!e.connected(0, 256));
    }

    #[test]
    fn duplicate_edges_within_a_batch_forward_once() {
        let e = build_engine(64, 4, &UfSpec::fastest(), ExecMode::Auto, 0).expect("ok");
        // 20 copies of the same novel intra-shard edge in one batch: the
        // pre-state novelty check alone would forward all of them.
        let batch: Vec<Update> = (0..20).map(|_| Update::Insert(2, 3)).collect();
        e.process_batch(&batch);
        let c = e.counters();
        assert_eq!(c.intra_inserts.load(Ordering::Relaxed), 20);
        assert_eq!(c.forwarded.load(Ordering::Relaxed), 1);
        assert!(e.connected(2, 3));
    }

    #[test]
    fn mixed_batches_cross_batch_determinism() {
        let e = build_engine(40, 4, &UfSpec::fastest(), ExecMode::Auto, 0).expect("ok");
        e.process_batch(&[Update::Insert(0, 39), Update::Insert(10, 20)]);
        let r = e.process_batch(&[
            Update::Query(0, 39),
            Update::Query(39, 10),
            Update::Insert(20, 39),
            Update::Query(5, 6),
        ]);
        assert_eq!(r.len(), 3);
        assert!(r[0]);
        assert!(!r[2]);
        let r2 = e.process_batch(&[Update::Query(0, 10), Update::Query(0, 5)]);
        assert_eq!(r2, vec![true, false]);
        assert_eq!(e.current_label(0), e.current_label(10));
    }
}
