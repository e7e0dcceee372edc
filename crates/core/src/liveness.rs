//! Edge liveness and forest-aware delete classification: the bookkeeping
//! that makes deletions cheap *when they can be*.
//!
//! A connectivity structure only has to re-converge when a deletion could
//! actually split a component. [`LivenessTracker`] maintains the live
//! undirected edge set together with a spanning forest of it and the
//! partition that forest witnesses (one [`SizedUnionFind`], readable
//! lock-free by whoever clones its `Arc`), so every delete classifies in
//! O(1) into one of [`DeleteClass`]'s three cases:
//!
//! | class                      | what it means                         | cost to re-converge |
//! |----------------------------|---------------------------------------|---------------------|
//! | [`DeleteClass::Absent`]    | edge was never live (or already dead) | none                |
//! | [`DeleteClass::NonForest`] | a cycle edge; the forest still spans  | none                |
//! | [`DeleteClass::Forest`]    | a forest edge; components may split   | rebuild             |
//!
//! A forest deletion is repaired by **one primitive**:
//! [`LivenessTracker::rebuild`] makes a single union-find pass over a
//! snapshot of the live edges — the paper's union-find finish
//! (Algorithm 2) straight off the edge list, no CSR and no sampling — and
//! yields the new partition and the forest (the edges whose `unite`
//! succeeded) at once. It borrows nothing from
//! the tracker, so the server runs it outside its writer lock and
//! installs the result with the O(1) [`LivenessTracker::adopt`],
//! restoring `forest ⊆ edges` and `forest spans edges`.
//!
//! Both edge sets are `EdgeTable`s (`edge_table.rs`): flat,
//! open-addressed arrays of canonical keys ([`canon_edge`]), 8 bytes a
//! slot. They are two tables, not one with a forest bit. The live set is
//! the big one — one probe per insert or delete, which the batch loop
//! starts a few ops early — while the forest table is small and built
//! off-lock by [`LivenessTracker::rebuild`], so that the adopt stays a
//! swap.
//!
//! It also holds the one batch loop, [`apply_batch`]: prefetch 8 ops
//! ahead, classify, apply, answer, and count the deletes by class
//! ([`DeleteCounts`]). A caller is a [`BatchHooks`] implementation,
//! monomorphised into the loop: it owns the tracker, folds merges into
//! whatever it derives from the partition, queues what a stale window
//! owes an asynchronous rebuild, and answers queries by its policy.
//! [`crate::DynamicConnectivity`] rebuilds synchronously at a query met
//! while stale; the server's generation engine answers it from the sealed
//! partition and rebuilds in the background. Both rebuild through the one
//! primitive.

use crate::edge_table::EdgeTable;
use crate::streaming::Update;
use cc_graph::VertexId;
use cc_unionfind::{MergeOutcome, SizedUnionFind};
use std::sync::Arc;

/// Canonical undirected edge key: `(min << 32) | max`.
#[inline]
pub fn canon_edge(u: VertexId, v: VertexId) -> u64 {
    let (a, b) = if u < v { (u, v) } else { (v, u) };
    (u64::from(a) << 32) | u64::from(b)
}

/// Inverse of [`canon_edge`].
#[inline]
pub fn uncanon_edge(e: u64) -> (VertexId, VertexId) {
    ((e >> 32) as u32, e as u32)
}

/// How a delete relates to the tracked forest (see module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeleteClass {
    /// The edge is not live: deleting it changes nothing.
    Absent,
    /// A live non-forest (cycle) edge: removal cannot split a component,
    /// so the current labeling stays exact and no rebuild is needed.
    NonForest,
    /// A live forest edge: removal may split its component; the caller
    /// must re-converge before trusting labels again.
    Forest,
}

/// How an insert relates to the tracked forest.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InsertClass {
    /// The edge was already live.
    Duplicate,
    /// A self-loop or an edge inside an existing component: live now, but
    /// merge-wise a no-op (it joined the cycle space).
    Cycle,
    /// The edge merged two components and joined the forest; the outcome
    /// names the two roots and their sizes, so nothing downstream has to
    /// find them again.
    Merge(MergeOutcome),
}

/// Live edge set + spanning forest + partition (see module docs).
///
/// Invariants between calls: `forest ⊆ edges`; the partition equals
/// connectivity over `edges`; `forest` spans that partition. After a
/// [`DeleteClass::Forest`] removal the partition and forest are *stale*
/// (they describe the pre-delete graph, and nothing unites until the
/// caller installs a [`LivenessTracker::rebuild`]);
/// [`LivenessTracker::is_stale`] reports that state, and while stale
/// every further delete of a live edge conservatively classifies as
/// [`DeleteClass::Forest`].
pub struct LivenessTracker {
    n: usize,
    edges: EdgeTable,
    /// Its own small table, so that [`Self::adopt`] swaps it in O(1).
    forest: EdgeTable,
    /// Written only through `&mut self`: the tracker is the partition's
    /// single writer, whoever else holds the `Arc` reads.
    partition: Arc<SizedUnionFind>,
    stale: bool,
}

/// The output of [`LivenessTracker::rebuild`]: the partition and forest
/// [`LivenessTracker::adopt`] installs.
pub struct Rebuilt {
    partition: Arc<SizedUnionFind>,
    forest: EdgeTable,
}

impl Rebuilt {
    /// The rebuilt partition, for views derived from it before the adopt.
    pub fn partition(&self) -> &SizedUnionFind {
        &self.partition
    }
}

/// Per-class counts of the deletes [`apply_batch`] applied.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DeleteCounts {
    /// [`DeleteClass::Absent`] deletes.
    pub absent: u64,
    /// [`DeleteClass::NonForest`] deletes.
    pub nonforest: u64,
    /// [`DeleteClass::Forest`] deletes, `dirty` included.
    pub forest: u64,
    /// The forest deletes that landed while the tracker was already
    /// stale: live edges the stale forest could not prove redundant, not
    /// necessarily forest edges of the graph.
    pub dirty: u64,
}

/// A caller of [`apply_batch`]: it owns the tracker the loop applies to,
/// answers queries by its policy, and acts on the loop's events. The
/// event hooks default to nothing.
pub trait BatchHooks {
    /// What [`Self::query`] answers.
    type Answer;
    /// The tracker the loop applies to.
    fn tracker(&mut self) -> &mut LivenessTracker;
    /// An insert merged two components of the tracker's partition.
    fn merged(&mut self, _m: &MergeOutcome) {}
    /// The novel edge `{u, v}` went live while stale: the stale partition
    /// did not unite it.
    fn went_live_while_stale(&mut self, _u: VertexId, _v: VertexId) {}
    /// The live edge `{u, v}` died while stale.
    fn died_while_stale(&mut self, _u: VertexId, _v: VertexId) {}
    /// Answers a query. While the tracker is stale its partition is frozen
    /// at the graph before the forest delete: the policy answers from it,
    /// or adopts a rebuild first.
    fn query(&mut self, u: VertexId, v: VertexId) -> Self::Answer;
}

/// How many ops ahead [`apply_batch`] prefetches: at tens of ns per op,
/// 8 ops hide most of a DRAM miss without evicting lines still in use.
const PREFETCH_AHEAD: usize = 8;

/// The batch loop: applies `ops` to `hooks`' tracker in program order —
/// prefetching 8 ops ahead, classifying, applying, telling `hooks` what
/// happened — adds each delete's class to `deletes`, and returns the
/// answers to the queries in order of appearance.
pub fn apply_batch<H: BatchHooks>(
    hooks: &mut H,
    ops: &[Update],
    deletes: &mut DeleteCounts,
) -> Vec<H::Answer> {
    let mut answers = Vec::new();
    for (i, &op) in ops.iter().enumerate() {
        // Start loading what a later insert or delete will read: its
        // live-set slot and, while the partition can still unite, the two
        // endpoints' words.
        if let Some(&(Update::Insert(u, v) | Update::Delete(u, v))) = ops.get(i + PREFETCH_AHEAD) {
            let t = hooks.tracker();
            t.edges.prefetch(canon_edge(u, v));
            if !t.stale {
                t.partition.prefetch(u);
                t.partition.prefetch(v);
            }
        }
        let t = hooks.tracker();
        match op {
            Update::Insert(u, v) => match t.insert(u, v) {
                InsertClass::Merge(m) => hooks.merged(&m),
                // Stale, a novel edge classifies as a cycle edge.
                InsertClass::Cycle if t.stale && u != v => hooks.went_live_while_stale(u, v),
                _ => {}
            },
            // `t.stale` is read before the delete can set it.
            Update::Delete(u, v) => match (t.stale, t.delete(u, v)) {
                (_, DeleteClass::Absent) => deletes.absent += 1,
                (_, DeleteClass::NonForest) => deletes.nonforest += 1,
                (false, DeleteClass::Forest) => deletes.forest += 1,
                (true, DeleteClass::Forest) => {
                    deletes.forest += 1;
                    deletes.dirty += 1;
                    hooks.died_while_stale(u, v);
                }
            },
            Update::Query(u, v) => answers.push(hooks.query(u, v)),
        }
    }
    answers
}

/// Edges unioned (or forest edges tabled) between two polls of
/// [`LivenessTracker::rebuild`]'s `keep_going`: the work a doomed rebuild
/// can still waste.
const REBUILD_POLL_EDGES: usize = 1 << 16;

impl LivenessTracker {
    /// An empty tracker over `n` vertices.
    pub fn new(n: usize) -> Self {
        LivenessTracker {
            n,
            edges: EdgeTable::new(),
            forest: EdgeTable::new(),
            partition: Arc::new(SizedUnionFind::new(n)),
            stale: false,
        }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Number of live edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Number of forest edges (≤ `n - 1` when fresh).
    pub fn num_forest_edges(&self) -> usize {
        self.forest.len()
    }

    /// Whether a forest deletion has left the forest and partition stale
    /// (a rebuild is owed).
    pub fn is_stale(&self) -> bool {
        self.stale
    }

    /// The partition of the vertices by the forest: exact while fresh,
    /// frozen at the pre-delete graph while stale, replaced by
    /// [`Self::adopt`].
    pub fn partition(&self) -> &Arc<SizedUnionFind> {
        &self.partition
    }

    /// Whether `{u, v}` is currently live (a self-loop never is).
    pub fn contains(&self, u: VertexId, v: VertexId) -> bool {
        u != v && self.edges.contains(canon_edge(u, v))
    }

    /// Bytes of slot storage held by the live and forest edge tables.
    pub fn table_bytes(&self) -> usize {
        self.edges.bytes() + self.forest.bytes()
    }

    /// The live edge list (arbitrary order).
    pub fn edge_list(&self) -> Vec<(VertexId, VertexId)> {
        self.edges.map_keys(uncanon_edge)
    }

    /// The spanning forest's edges (arbitrary order).
    pub fn forest_list(&self) -> Vec<(VertexId, VertexId)> {
        self.forest.map_keys(uncanon_edge)
    }

    /// Records an insert. Self-loops are never live. While fresh, a
    /// [`InsertClass::Merge`] extends the forest and the partition,
    /// keeping both exact; while stale, novel edges still enter the live
    /// set (the owed rebuild will see them) but classify as
    /// [`InsertClass::Cycle`] because the stale partition cannot witness a
    /// merge.
    pub fn insert(&mut self, u: VertexId, v: VertexId) -> InsertClass {
        if u == v {
            return InsertClass::Cycle;
        }
        if !self.edges.insert(canon_edge(u, v)) {
            return InsertClass::Duplicate;
        }
        if self.stale {
            return InsertClass::Cycle;
        }
        self.unite_live(u, v).map_or(InsertClass::Cycle, InsertClass::Merge)
    }

    /// Unites across a live edge; a merge makes it a forest edge.
    fn unite_live(&mut self, u: VertexId, v: VertexId) -> Option<MergeOutcome> {
        let merge = self.partition.unite(u, v)?;
        self.forest.insert(canon_edge(u, v));
        Some(merge)
    }

    /// Classifies and applies a delete: a live edge leaves the live set;
    /// a [`DeleteClass::Forest`] verdict additionally marks the tracker
    /// stale. While stale, every live-edge delete is conservatively
    /// [`DeleteClass::Forest`] (the stale forest cannot prove an edge
    /// redundant).
    pub fn delete(&mut self, u: VertexId, v: VertexId) -> DeleteClass {
        let key = canon_edge(u, v);
        if u == v || !self.edges.remove(key) {
            return DeleteClass::Absent;
        }
        if !self.stale && !self.forest.contains(key) {
            return DeleteClass::NonForest;
        }
        self.forest.remove(key);
        self.stale = true;
        DeleteClass::Forest
    }

    /// Marks the forest and partition stale without a deletion — the state
    /// a [`DeleteClass::Forest`] removal leaves — so replayed history
    /// reaches the live set only, until a [`Self::rebuild`] is adopted.
    pub fn freeze(&mut self) {
        self.stale = true;
    }

    /// Replaces the live edge set with `edges` (self-loops dropped) while
    /// stale — a checkpoint restating the whole set; the forest empties
    /// until the next [`Self::adopt`] of a [`Self::rebuild`] of it.
    pub fn replace_edges(&mut self, edges: &[(VertexId, VertexId)]) {
        debug_assert!(self.stale, "replace_edges requires a stale tracker");
        self.edges = EdgeTable::with_capacity(edges.len());
        for (i, &(u, v)) in edges.iter().enumerate() {
            // Start loading a later edge's home slot, as `apply_batch` does.
            if let Some(&(a, b)) = edges.get(i + PREFETCH_AHEAD) {
                self.edges.prefetch(canon_edge(a, b));
            }
            if u != v {
                self.edges.insert(canon_edge(u, v));
            }
        }
        self.forest = EdgeTable::new();
    }

    /// The rebuild primitive: one union-find pass over `edges` (a snapshot
    /// of [`Self::edge_list`]) on `n` vertices. An edge whose `unite`
    /// succeeds is a forest edge, so partition and forest fall out of
    /// the same pass. Stops with `None` at the first poll of
    /// `keep_going` that says no: a caller whose snapshot was invalidated
    /// mid-pass does not pay for the rest of it.
    pub fn rebuild(
        n: usize,
        edges: &[(VertexId, VertexId)],
        keep_going: impl Fn() -> bool,
    ) -> Option<Rebuilt> {
        let partition = SizedUnionFind::new(n);
        let mut forest: Vec<u64> = Vec::new();
        for chunk in edges.chunks(REBUILD_POLL_EDGES) {
            if !keep_going() {
                return None;
            }
            for &(u, v) in chunk {
                if partition.unite(u, v).is_some() {
                    forest.push(canon_edge(u, v));
                }
            }
        }
        // Collected last, so the table is sized for the forest that exists
        // rather than the `n - 1` edges it might have had.
        let mut table = EdgeTable::with_capacity(forest.len());
        for chunk in forest.chunks(REBUILD_POLL_EDGES) {
            if !keep_going() {
                return None;
            }
            for &e in chunk {
                table.insert(e);
            }
        }
        Some(Rebuilt { partition: Arc::new(partition), forest: table })
    }

    /// Installs a [`Self::rebuild`] of this tracker's live edges and
    /// clears staleness; O(1), so it is cheap under a lock. The caller
    /// guarantees no snapshot edge has died since; edges that went live
    /// after the snapshot are re-admitted with [`Self::reclassify_live`].
    pub fn adopt(&mut self, rebuilt: Rebuilt) {
        self.partition = rebuilt.partition;
        self.forest = rebuilt.forest;
        self.stale = false;
    }

    /// Re-classifies an edge that entered the live set while the tracker
    /// was stale (its insert-time verdict was conservatively
    /// [`InsertClass::Cycle`]): under the freshly adopted forest, returns
    /// the merge iff it joins two components, extending forest and
    /// partition exactly like a fresh [`InsertClass::Merge`]. Idempotent
    /// for edges the adopted forest already spans.
    pub fn reclassify_live(&mut self, u: VertexId, v: VertexId) -> Option<MergeOutcome> {
        debug_assert!(!self.stale, "reclassify_live requires a fresh forest");
        if !self.contains(u, v) {
            return None;
        }
        self.unite_live(u, v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Rebuilds `t` in place from its own live edge set.
    fn rebuild_in_place(t: &mut LivenessTracker) {
        let rebuilt = LivenessTracker::rebuild(t.n, &t.edge_list(), || true).expect("not aborted");
        t.adopt(rebuilt);
    }

    #[test]
    fn canon_is_order_free_and_invertible() {
        assert_eq!(canon_edge(7, 3), canon_edge(3, 7));
        assert_eq!(uncanon_edge(canon_edge(3, 7)), (3, 7));
    }

    #[test]
    fn classification_over_a_triangle() {
        let mut t = LivenessTracker::new(4);
        assert!(matches!(t.insert(0, 1), InsertClass::Merge(_)));
        let InsertClass::Merge(m) = t.insert(1, 2) else { panic!("1-2 merges") };
        assert_eq!((m.winner_size, m.loser_size), (2, 1), "the outcome carries both sizes");
        assert_eq!(t.insert(2, 0), InsertClass::Cycle);
        assert_eq!(t.insert(1, 0), InsertClass::Duplicate);
        assert_eq!(t.insert(3, 3), InsertClass::Cycle, "self-loop is never live");
        assert!(!t.contains(3, 3));
        assert!(!t.contains(u32::MAX, u32::MAX), "the edge table's empty-slot key");
        assert_eq!(t.num_edges(), 3);
        assert_eq!(t.num_forest_edges(), 2);

        // The cycle edge goes quietly; the forest still spans.
        assert_eq!(t.delete(0, 2), DeleteClass::NonForest);
        assert!(!t.is_stale());
        // Absent and duplicate deletes are no-ops.
        assert_eq!(t.delete(0, 2), DeleteClass::Absent);
        assert_eq!(t.delete(3, 0), DeleteClass::Absent);
        // A forest edge makes the tracker stale...
        assert_eq!(t.delete(0, 1), DeleteClass::Forest);
        assert!(t.is_stale());
        // ...and while stale even a would-be cycle edge is conservative.
        assert_eq!(t.insert(0, 1), InsertClass::Cycle);
        assert_eq!(t.delete(0, 1), DeleteClass::Forest);

        rebuild_in_place(&mut t);
        assert!(!t.is_stale());
        assert_eq!(t.num_edges(), 1);
        assert_eq!(t.num_forest_edges(), 1);
        assert_eq!(t.edge_list(), vec![(1, 2)]);
    }

    /// Records every hook call, and answers queries off the partition
    /// as it stands, tagged with its staleness.
    struct Log {
        t: LivenessTracker,
        merges: usize,
        went_live: Vec<(u32, u32)>,
        died: Vec<(u32, u32)>,
    }

    impl BatchHooks for Log {
        type Answer = (bool, bool);
        fn tracker(&mut self) -> &mut LivenessTracker {
            &mut self.t
        }
        fn merged(&mut self, _: &MergeOutcome) {
            self.merges += 1;
        }
        fn went_live_while_stale(&mut self, u: u32, v: u32) {
            self.went_live.push((u, v));
        }
        fn died_while_stale(&mut self, u: u32, v: u32) {
            self.died.push((u, v));
        }
        fn query(&mut self, u: u32, v: u32) -> (bool, bool) {
            (self.t.partition().same_set(u, v), self.t.is_stale())
        }
    }

    #[test]
    fn the_batch_loop_counts_deletes_and_reports_a_stale_window() {
        use Update::{Delete, Insert, Query};
        let t = LivenessTracker::new(6);
        let mut log = Log { t, merges: 0, went_live: Vec::new(), died: Vec::new() };
        let mut deletes = DeleteCounts::default();
        let ops = [Insert(0, 1), Insert(1, 2), Insert(2, 0), Insert(3, 4), Query(0, 2)];
        assert_eq!(apply_batch(&mut log, &ops, &mut deletes), vec![(true, false)]);
        assert_eq!(log.merges, 3);
        // A cycle delete and an absent one are free; the forest delete
        // makes the tracker stale, and the second live delete lands in
        // the same window.
        let ops = [
            Delete(2, 0),
            Delete(4, 5),
            Delete(0, 1),
            Insert(4, 5),
            Insert(4, 5),
            Insert(5, 5),
            Delete(3, 4),
            Query(0, 1),
        ];
        assert_eq!(apply_batch(&mut log, &ops, &mut deletes), vec![(true, true)], "frozen");
        let want = DeleteCounts { absent: 1, nonforest: 1, forest: 2, dirty: 1 };
        assert_eq!(deletes, want);
        assert_eq!(log.went_live, vec![(4, 5)], "once, and never a self-loop");
        assert_eq!(log.died, vec![(3, 4)]);
        rebuild_in_place(&mut log.t);
        let ops = [Query(0, 1), Insert(0, 1), Query(0, 1)];
        assert_eq!(apply_batch(&mut log, &ops, &mut deletes), vec![(false, false), (true, false)]);
        assert_eq!(log.merges, 4, "fresh again, 0-1 merges");
    }

    #[test]
    fn adopt_and_reclassify_drain_a_stale_window() {
        let mut t = LivenessTracker::new(6);
        for (u, v) in [(0, 1), (1, 2), (3, 4)] {
            t.insert(u, v);
        }
        assert_eq!(t.delete(0, 1), DeleteClass::Forest);
        // Two edges arrive while stale: one bridges the split, one is a
        // duplicate-in-spirit cycle edge. Both conservatively `Cycle`.
        assert_eq!(t.insert(2, 3), InsertClass::Cycle);
        assert_eq!(t.insert(1, 2), InsertClass::Duplicate);
        // A rebuild over the *pre-insert* snapshot {1-2, 3-4} is adopted,
        // then the stale-window edges re-admit.
        let rebuilt = LivenessTracker::rebuild(6, &[(1, 2), (3, 4)], || true).expect("not aborted");
        assert!(rebuilt.partition().same_set(1, 2));
        assert!(!rebuilt.partition().same_set(2, 3));
        t.adopt(rebuilt);
        assert!(!t.is_stale());
        let m = t.reclassify_live(2, 3).expect("bridging edge merges");
        assert_eq!(m.merged_size(), 4, "1-2 joins 3-4");
        assert_eq!(t.reclassify_live(2, 3), None, "second pass is a no-op");
        assert_eq!(t.reclassify_live(0, 5), None, "never-live edge is ignored");
        assert_eq!(t.num_forest_edges(), 3);
        // The forest now spans: deleting the re-admitted bridge splits.
        assert_eq!(t.delete(2, 3), DeleteClass::Forest);
    }

    #[test]
    fn rebuild_restores_exact_classification() {
        let mut t = LivenessTracker::new(6);
        for (u, v) in [(0, 1), (1, 2), (2, 0), (3, 4)] {
            t.insert(u, v);
        }
        assert_eq!(t.delete(0, 1), DeleteClass::Forest);
        rebuild_in_place(&mut t);
        // Post-rebuild the triangle's surviving edges are both forest
        // edges (1-2, 2-0 now span {0,1,2}).
        assert_eq!(t.delete(1, 2), DeleteClass::Forest);
        rebuild_in_place(&mut t);
        assert_eq!(t.delete(3, 4), DeleteClass::Forest);
    }

    #[test]
    fn rebuild_yields_partition_forest_and_labels_from_one_pass() {
        // Two triangles and an isolated vertex; edge order decides which
        // two edges of each triangle the forest keeps, never how many.
        let edges = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)];
        let mut t = LivenessTracker::new(7);
        for &(u, v) in &edges {
            t.insert(u, v);
        }
        t.delete(0, 1);
        let snapshot = t.edge_list();
        let rebuilt = LivenessTracker::rebuild(7, &snapshot, || true).expect("not aborted");
        let labels = rebuilt.partition().labels();
        assert!(labels.iter().all(|&l| labels[l as usize] == l), "labels are canonical");
        assert!(cc_graph::stats::same_partition(
            &labels,
            &cc_unionfind::oracle_labels(7, &snapshot)
        ));
        t.adopt(rebuilt);
        assert!(!t.is_stale());
        assert_eq!(t.num_forest_edges(), 4, "n - components = 7 - 3");
        let g = cc_graph::build_undirected(7, &snapshot);
        assert!(crate::is_valid_spanning_forest(&g, &t.forest_list()));
        // The adopted partition classifies exactly: 1-2 and 2-0 now span
        // {0, 1, 2}, so a new 0-1 is a cycle edge.
        assert_eq!(t.insert(0, 1), InsertClass::Cycle);
        assert!(matches!(t.insert(2, 3), InsertClass::Merge(_)));
        assert_eq!(t.partition().component_of(0).1, 6, "the two triangles joined");
    }

    #[test]
    fn an_aborted_rebuild_stops_at_a_poll_and_leaves_the_tracker_alone() {
        let n = 3 * REBUILD_POLL_EDGES;
        let edges: Vec<(u32, u32)> = (0..n as u32 - 1).map(|v| (v, v + 1)).collect();
        let mut t = LivenessTracker::new(n);
        for &(u, v) in &edges {
            t.insert(u, v);
        }
        assert_eq!(t.delete(0, 1), DeleteClass::Forest);
        // Doomed after the second poll: the pass stops there, mid-list.
        let polls = std::cell::Cell::new(0);
        let aborted = LivenessTracker::rebuild(n, &edges, || {
            polls.set(polls.get() + 1);
            polls.get() < 3
        });
        assert!(aborted.is_none());
        assert_eq!(polls.get(), 3, "stopped at the poll that said no");
        assert!(t.is_stale(), "nothing was adopted");
        assert_eq!(t.num_forest_edges(), n - 2);
    }
}
