//! The incremental analytics plane: delta-maintained component
//! aggregates served from epoch-versioned, lock-free views.
//!
//! The batch former already observes every union that actually merges
//! two components ([`connectit::InsertClass::Merge`]) and every
//! generation rebuild that re-partitions them. This module turns that
//! event stream into always-current aggregates without ever rescanning
//! the n labels:
//!
//! * **live component count** — starts at n, decremented per merge;
//! * **component-size histogram** — power-of-two buckets over sizes;
//! * **top-k largest components** — an ordered set of non-singleton
//!   components, materialized into the view at publish time;
//! * **per-component member count** — a size-annotated union-find
//!   (`AnalyticsCore`) readable without any lock.
//!
//! # Writer / reader contract
//!
//! Exactly one thread mutates an [`Analytics`] at a time (the
//! generation writer lock on the leader, the apply lock on a
//! follower). Readers never block it: they either clone the published
//! [`AnalyticsView`] (one `Mutex<Arc<_>>` swap, the same discipline as
//! label snapshots) or walk the shared [`AnalyticsCore`] with acquire
//! loads. The core orders every merge as *size first, then link*: the
//! merged size is Release-stored into the surviving root before the
//! losing root's parent pointer is Release-stored. A reader that
//! observes the link therefore observes the merged size; a reader that
//! does not observes a consistent pre-merge component.
//!
//! # Delta validity
//!
//! Merge deltas are only applied while the generation engine is clean.
//! A forest deletion seals the generation — the view is republished
//! with `sealed = true` and frozen — and the commit that follows
//! replaces the plane wholesale with one recomputed from the rebuilt
//! labeling ([`Analytics::from_labels`], off the writer lock), because a
//! deletion rebuild invalidates every delta derived before it.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
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

/// A size-annotated union-find shared between the single writer and
/// any number of lock-free readers. See the module docs for the
/// ordering contract.
pub struct AnalyticsCore {
    parents: Vec<AtomicU32>,
    sizes: Vec<AtomicU64>,
}

impl AnalyticsCore {
    fn fresh(n: usize) -> AnalyticsCore {
        AnalyticsCore {
            parents: (0..n as u32).map(AtomicU32::new).collect(),
            sizes: (0..n).map(|_| AtomicU64::new(1)).collect(),
        }
    }

    fn from_labels(labels: &[u32]) -> AnalyticsCore {
        let core = AnalyticsCore {
            parents: labels.iter().map(|&l| AtomicU32::new(l)).collect(),
            sizes: (0..labels.len()).map(|_| AtomicU64::new(0)).collect(),
        };
        for &l in labels {
            // Relaxed: the core is private until published behind an Arc.
            core.sizes[l as usize].fetch_add(1, Ordering::Relaxed);
        }
        core
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.parents.len()
    }

    /// True when the core tracks zero vertices.
    pub fn is_empty(&self) -> bool {
        self.parents.is_empty()
    }

    /// The representative of `v`'s component — a lock-free walk up the
    /// parent chain (no path compression; the writer's union-by-size
    /// keeps chains logarithmic).
    pub fn find(&self, v: u32) -> u32 {
        let mut v = v;
        loop {
            let p = self.parents[v as usize].load(Ordering::Acquire);
            if p == v {
                return v;
            }
            v = p;
        }
    }

    /// `(root, size)` of `v`'s component. The pair is consistent as of
    /// some moment between the call's start and end (see module docs).
    pub fn component_of(&self, v: u32) -> (u32, u64) {
        let r = self.find(v);
        (r, self.sizes[r as usize].load(Ordering::Acquire))
    }
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
    core: Arc<AnalyticsCore>,
}

impl AnalyticsView {
    /// The first `k` of the materialized largest components.
    pub fn topk(&self, k: usize) -> &[(u32, u64)] {
        &self.topk[..k.min(self.topk.len())]
    }

    /// `(root, size)` of `v`'s component, read lock-free from the
    /// shared core. Between publications the core keeps absorbing
    /// merges, so the answer may be *fresher* than [`Self::epoch`]
    /// (never staler); across a rebuild the core is replaced and a
    /// stale view's answers stay frozen at its own partition.
    pub fn component_of(&self, v: u32) -> (u32, u64) {
        self.core.component_of(v)
    }

    /// Number of vertices the view covers.
    pub fn n(&self) -> usize {
        self.core.len()
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
    core: Arc<AnalyticsCore>,
}

impl Analytics {
    /// The all-singletons state over `n` vertices.
    pub fn fresh(n: usize) -> Analytics {
        let mut hist = [0u64; HIST_BUCKETS];
        hist[0] = n as u64;
        Analytics {
            components: n as u64,
            hist,
            topset: BTreeSet::new(),
            core: Arc::new(AnalyticsCore::fresh(n)),
        }
    }

    /// Every aggregate recomputed from a label array (one label per
    /// vertex, `labels[v]` the representative of `v`). Used at generation
    /// commit and recovery, where deltas are invalid; touches no existing
    /// state, so a rebuild runs it outside the writer lock.
    pub fn from_labels(labels: &[u32]) -> Analytics {
        // The engines hand out *canonical* labels (a representative's
        // label is itself); `find` termination depends on it.
        debug_assert!(labels.iter().all(|&l| labels[l as usize] == l));
        let core = AnalyticsCore::from_labels(labels);
        let mut a = Analytics {
            components: 0,
            hist: [0; HIST_BUCKETS],
            topset: BTreeSet::new(),
            core: Arc::new(core),
        };
        for (v, size) in a.core.sizes.iter().enumerate() {
            let size = size.load(Ordering::Relaxed);
            if size == 0 {
                continue; // not a representative
            }
            a.components += 1;
            a.hist[hist_bucket(size)] += 1;
            if size >= 2 {
                a.topset.insert((size, v as u32));
            }
        }
        a
    }

    /// Applies one merge delta: unions `u` and `v`'s components and
    /// folds the size change into count, histogram and top set.
    /// Returns false (and changes nothing) when they already share a
    /// component.
    pub fn merge(&mut self, u: u32, v: u32) -> bool {
        let ru = self.core.find(u);
        let rv = self.core.find(v);
        if ru == rv {
            return false;
        }
        let su = self.core.sizes[ru as usize].load(Ordering::Relaxed);
        let sv = self.core.sizes[rv as usize].load(Ordering::Relaxed);
        let (big, small, sb, ss) = if su >= sv { (ru, rv, su, sv) } else { (rv, ru, sv, su) };
        let merged = sb + ss;
        self.components -= 1;
        self.hist[hist_bucket(sb)] -= 1;
        self.hist[hist_bucket(ss)] -= 1;
        self.hist[hist_bucket(merged)] += 1;
        if sb >= 2 {
            self.topset.remove(&(sb, big));
        }
        if ss >= 2 {
            self.topset.remove(&(ss, small));
        }
        self.topset.insert((merged, big));
        // Size first, then link: a reader that sees the link sees the
        // merged size (module docs).
        self.core.sizes[big as usize].store(merged, Ordering::Release);
        self.core.parents[small as usize].store(big, Ordering::Release);
        true
    }

    /// Live component count (counting singletons) — equals
    /// `count_distinct_labels` over the engine's labels whenever the
    /// engine is clean.
    pub fn components(&self) -> u64 {
        self.components
    }

    /// Builds an immutable publication of the current aggregates.
    pub fn view(&self, epoch: u64, generation: u64, sealed: bool) -> AnalyticsView {
        let topk: Vec<(u32, u64)> =
            self.topset.iter().rev().take(TOPK_CAP).map(|&(s, r)| (r, s)).collect();
        AnalyticsView {
            epoch,
            generation,
            sealed,
            components: self.components,
            hist: self.hist,
            topk,
            core: Arc::clone(&self.core),
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
    fn merges_track_a_mirror_union_find() {
        let n = 64usize;
        let mut a = Analytics::fresh(n);
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
            let merged = a.merge(u, v);
            assert_eq!(merged, lu != lv, "merge({u},{v})");
            if lu != lv {
                for l in labels.iter_mut() {
                    if *l == lv {
                        *l = lu;
                    }
                }
            }
            // Normalize: the analytics core picks its own roots, so
            // compare multisets, not representatives.
            let canon: Vec<u32> = {
                let mut map = std::collections::BTreeMap::new();
                labels
                    .iter()
                    .map(|&l| {
                        let next = map.len() as u32;
                        *map.entry(l).or_insert(next)
                    })
                    .collect()
            };
            let (components, hist, topsizes) = oracle_counts(&canon);
            assert_eq!(a.components(), components);
            let view = a.view(7, 1, false);
            assert_eq!(view.hist, hist);
            let got: Vec<u64> = view.topk.iter().map(|&(_, s)| s).collect();
            assert_eq!(got, topsizes[..topsizes.len().min(TOPK_CAP)].to_vec());
            // Per-vertex sizes agree with the mirror.
            for v in 0..n as u32 {
                let (_, size) = view.component_of(v);
                let expect = labels.iter().filter(|&&l| l == labels[v as usize]).count() as u64;
                assert_eq!(size, expect, "size of {v}");
            }
        }
    }

    #[test]
    fn from_labels_matches_fresh_deltas() {
        // Apply deltas on one instance, recompute another from the
        // resulting labels: aggregates must agree exactly.
        let n = 40usize;
        let mut a = Analytics::fresh(n);
        for i in 0..20u32 {
            a.merge(i, i + 1);
        }
        a.merge(30, 31);
        let labels: Vec<u32> = {
            let view = a.view(0, 0, false);
            (0..n as u32).map(|v| view.component_of(v).0).collect()
        };
        let b = Analytics::from_labels(&labels);
        assert_eq!(a.components(), b.components());
        let (va, vb) = (a.view(1, 2, false), b.view(1, 2, false));
        assert_eq!(va.hist, vb.hist);
        let sa: Vec<u64> = va.topk.iter().map(|&(_, s)| s).collect();
        let sb: Vec<u64> = vb.topk.iter().map(|&(_, s)| s).collect();
        assert_eq!(sa, sb);
        for v in 0..n as u32 {
            assert_eq!(va.component_of(v).1, vb.component_of(v).1);
        }
    }

    #[test]
    fn view_is_frozen_against_later_resync() {
        let mut a = Analytics::fresh(8);
        a.merge(0, 1);
        let old = a.view(3, 0, false);
        assert_eq!(old.components, 7);
        a = Analytics::from_labels(&[0, 0, 2, 2, 2, 5, 6, 7]);
        let new = a.view(4, 1, false);
        assert_eq!(new.components, 5);
        // The old view still answers from its own (replaced) core.
        assert_eq!(old.components, 7);
        assert_eq!(old.component_of(2).1, 1);
        assert_eq!(new.component_of(2).1, 3);
    }
}
