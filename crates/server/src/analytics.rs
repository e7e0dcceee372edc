//! The incremental analytics plane: delta-maintained component
//! aggregates served from epoch-versioned, lock-free views.
//!
//! The batch former already observes every union that actually merges
//! two components ([`connectit::InsertClass::Merge`]) and every
//! generation rebuild that re-partitions them. This module folds that
//! [`MergeOutcome`] stream into always-current aggregates without ever
//! rescanning the n labels — and without a union-find of its own: the
//! outcome already names both roots and both sizes.
//!
//! * **live component count** — starts at n, decremented per merge;
//! * **component-size histogram** — power-of-two buckets over sizes;
//! * **top-k largest components** — an ordered set of non-singleton
//!   components, materialized into the view at publish time;
//! * **per-component member count** — read lock-free from the liveness
//!   tracker's partition ([`SizedUnionFind`]), which a view shares.
//!
//! # Writer / reader contract
//!
//! Exactly one thread mutates an [`Analytics`] at a time (the
//! generation writer lock on the leader, the apply lock on a
//! follower). Readers never block it: they clone the published
//! [`AnalyticsView`] (one `Mutex<Arc<_>>` swap, the same discipline as
//! the engine's serving view) and, for `SIZE`, walk the shared partition under its
//! own size-before-link ordering contract.
//!
//! # Delta validity
//!
//! Merge deltas only exist while the generation engine is clean: a
//! stale tracker never unites. A forest deletion seals the generation —
//! the view is republished with `sealed = true`, and its partition stays
//! frozen — and the commit that follows replaces the plane wholesale
//! with one recounted from the rebuilt partition's roots
//! ([`Analytics::from_partition`], off the writer lock), because a
//! deletion rebuild invalidates every delta derived before it.

use cc_unionfind::{MergeOutcome, SizedUnionFind};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Number of power-of-two size buckets: bucket `b` counts components
/// whose size `s` satisfies `floor(log2(s)) == b`, so bucket 0 is the
/// singletons and bucket 32 holds a component of 2^32 vertices.
pub const HIST_BUCKETS: usize = 33;

/// Cap on the number of components a view materializes for `TOPK`.
pub const TOPK_CAP: usize = 32;

/// The histogram bucket for a component of `size` members (`size >= 1`).
#[inline]
pub fn hist_bucket(size: u64) -> usize {
    debug_assert!(size >= 1);
    (63 - size.leading_zeros()) as usize
}

/// An immutable, epoch-stamped publication of the aggregates. Cheap to
/// clone out of the engine (`Arc`); heavy analytical reads (`TOPK`,
/// `HIST`, `SIZE`) are served from it without touching the write path.
pub struct AnalyticsView {
    /// The last fully published batch epoch this view covers. A lower
    /// bound: a sealed view keeps the epoch it was sealed at while the
    /// rebuild runs.
    pub epoch: u64,
    /// The engine generation the view's partition belongs to.
    pub generation: u64,
    /// True while a deletion rebuild is in flight: the view is frozen
    /// at the seal-time partition and deltas are suspended until the
    /// commit resyncs wholesale.
    pub sealed: bool,
    /// Live number of components (counting singletons).
    pub components: u64,
    /// Power-of-two size histogram; `hist[b]` counts components in
    /// bucket `b` (see [`hist_bucket`]). Sums to `components`.
    pub hist: [u64; HIST_BUCKETS],
    /// Largest components, `(root, size)` in descending size order,
    /// singletons excluded, at most [`TOPK_CAP`] entries.
    pub topk: Vec<(u32, u64)>,
    partition: Arc<SizedUnionFind>,
}

impl AnalyticsView {
    /// The first `k` of the materialized largest components.
    pub fn topk(&self, k: usize) -> &[(u32, u64)] {
        &self.topk[..k.min(self.topk.len())]
    }

    /// `(root, size)` of `v`'s component, read lock-free from the
    /// tracker's partition — the one `EVT` roots come from. Between
    /// publications it keeps absorbing merges, so the answer may be
    /// *fresher* than [`Self::epoch`] (never staler); a rebuild commit
    /// replaces it, and a stale view's answers stay frozen at its own.
    pub fn component_of(&self, v: u32) -> (u32, u64) {
        self.partition.component_of(v)
    }

    /// Number of vertices the view covers.
    pub fn n(&self) -> usize {
        self.partition.len()
    }
}

/// The single-writer aggregate state. Owned by the generation engine's
/// write lock; publishes immutable [`AnalyticsView`]s.
pub struct Analytics {
    components: u64,
    hist: [u64; HIST_BUCKETS],
    /// Non-singleton components as `(size, root)`, ordered so the
    /// largest are at the back. Singletons are excluded (they all tie
    /// at size 1 and are fully described by `hist[0]`).
    topset: BTreeSet<(u64, u32)>,
}

impl Analytics {
    /// The all-singletons state over `n` vertices.
    pub fn fresh(n: usize) -> Analytics {
        let mut hist = [0u64; HIST_BUCKETS];
        hist[0] = n as u64;
        Analytics { components: n as u64, hist, topset: BTreeSet::new() }
    }

    /// Every aggregate recounted from a partition's roots. Used at
    /// generation commit and recovery, where deltas are invalid; touches
    /// no existing state, so a rebuild runs it outside the writer lock.
    pub fn from_partition(partition: &SizedUnionFind) -> Analytics {
        let mut a = Analytics { components: 0, hist: [0; HIST_BUCKETS], topset: BTreeSet::new() };
        for (root, size) in partition.roots() {
            a.components += 1;
            a.hist[hist_bucket(size)] += 1;
            if size >= 2 {
                a.topset.insert((size, root));
            }
        }
        a
    }

    /// Folds one merge delta into count, histogram and top set.
    pub fn fold(&mut self, m: &MergeOutcome) {
        self.components -= 1;
        self.hist[hist_bucket(m.winner_size)] -= 1;
        self.hist[hist_bucket(m.loser_size)] -= 1;
        self.hist[hist_bucket(m.merged_size())] += 1;
        if m.winner_size >= 2 {
            self.topset.remove(&(m.winner_size, m.winner));
        }
        if m.loser_size >= 2 {
            self.topset.remove(&(m.loser_size, m.loser));
        }
        self.topset.insert((m.merged_size(), m.winner));
    }

    /// Live component count (counting singletons) — equals
    /// `count_distinct_labels` over the engine's labels whenever the
    /// engine is clean.
    pub fn components(&self) -> u64 {
        self.components
    }

    /// Builds an immutable publication of the current aggregates over
    /// `partition`, the one they were folded from.
    pub fn view(
        &self,
        partition: &Arc<SizedUnionFind>,
        epoch: u64,
        generation: u64,
        sealed: bool,
    ) -> AnalyticsView {
        let topk: Vec<(u32, u64)> =
            self.topset.iter().rev().take(TOPK_CAP).map(|&(s, r)| (r, s)).collect();
        AnalyticsView {
            epoch,
            generation,
            sealed,
            components: self.components,
            hist: self.hist,
            topk,
            partition: Arc::clone(partition),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn oracle_counts(labels: &[u32]) -> (u64, [u64; HIST_BUCKETS], Vec<u64>) {
        let mut per_root = std::collections::BTreeMap::<u32, u64>::new();
        for &l in labels {
            *per_root.entry(l).or_insert(0) += 1;
        }
        let mut hist = [0u64; HIST_BUCKETS];
        let mut sizes: Vec<u64> = Vec::new();
        for &s in per_root.values() {
            hist[hist_bucket(s)] += 1;
            if s >= 2 {
                sizes.push(s);
            }
        }
        sizes.sort_unstable_by(|a, b| b.cmp(a));
        (per_root.len() as u64, hist, sizes)
    }

    /// A partition and the aggregates folded from its merges, as the
    /// generation engine keeps them.
    fn plane(n: usize) -> (Arc<SizedUnionFind>, Analytics) {
        (Arc::new(SizedUnionFind::new(n)), Analytics::fresh(n))
    }

    fn merge(p: &SizedUnionFind, a: &mut Analytics, u: u32, v: u32) -> bool {
        p.unite(u, v).map(|m| a.fold(&m)).is_some()
    }

    #[test]
    fn buckets_are_floor_log2() {
        assert_eq!(hist_bucket(1), 0);
        assert_eq!(hist_bucket(2), 1);
        assert_eq!(hist_bucket(3), 1);
        assert_eq!(hist_bucket(4), 2);
        assert_eq!(hist_bucket(7), 2);
        assert_eq!(hist_bucket(8), 3);
        assert_eq!(hist_bucket(u64::from(u32::MAX) + 1), 32);
    }

    #[test]
    fn folded_outcomes_track_a_relabeling_oracle() {
        let n = 64usize;
        let (p, mut a) = plane(n);
        let mut labels: Vec<u32> = (0..n as u32).collect();
        let mut seed = 0x2545F4914F6CDD1Du64;
        let mut rng = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for _ in 0..200 {
            let u = (rng() % n as u64) as u32;
            let v = (rng() % n as u64) as u32;
            let (lu, lv) = (labels[u as usize], labels[v as usize]);
            assert_eq!(merge(&p, &mut a, u, v), lu != lv, "merge({u},{v})");
            if lu != lv {
                for l in labels.iter_mut() {
                    if *l == lv {
                        *l = lu;
                    }
                }
            }
            let (components, hist, topsizes) = oracle_counts(&labels);
            assert_eq!(a.components(), components);
            let view = a.view(&p, 7, 1, false);
            assert_eq!(view.hist, hist);
            let got: Vec<u64> = view.topk.iter().map(|&(_, s)| s).collect();
            assert_eq!(got, topsizes[..topsizes.len().min(TOPK_CAP)].to_vec());
            // `TOPK` names the partition's own roots, with their sizes.
            for &(root, size) in &view.topk {
                assert_eq!(view.component_of(root), (root, size));
            }
            for v in 0..n as u32 {
                let expect = labels.iter().filter(|&&l| l == labels[v as usize]).count() as u64;
                assert_eq!(view.component_of(v).1, expect, "size of {v}");
            }
        }
    }

    #[test]
    fn from_partition_matches_folded_deltas() {
        // Fold deltas on one instance, recount another from the
        // resulting partition: aggregates must agree exactly, roots too.
        let n = 40usize;
        let (p, mut a) = plane(n);
        for i in 0..20u32 {
            merge(&p, &mut a, i, i + 1);
        }
        merge(&p, &mut a, 30, 31);
        let b = Analytics::from_partition(&p);
        assert_eq!(a.components(), b.components());
        let (va, vb) = (a.view(&p, 1, 2, false), b.view(&p, 1, 2, false));
        assert_eq!(va.hist, vb.hist);
        assert_eq!(va.topk, vb.topk);
    }

    #[test]
    fn view_is_frozen_against_a_replaced_partition() {
        let (p, mut a) = plane(8);
        merge(&p, &mut a, 0, 1);
        let old = a.view(&p, 3, 0, false);
        assert_eq!(old.components, 7);
        // A rebuild commit: a new partition, aggregates recounted from it.
        let p = Arc::new(SizedUnionFind::new(8));
        for (u, v) in [(0, 1), (2, 3), (3, 4)] {
            p.unite(u, v);
        }
        let new = Analytics::from_partition(&p).view(&p, 4, 1, false);
        assert_eq!(new.components, 5);
        // The old view still answers from its own (replaced) partition.
        assert_eq!(old.components, 7);
        assert_eq!(old.component_of(2).1, 1);
        assert_eq!(new.component_of(2).1, 3);
    }
}
