//! A size-carrying union-find for **one writer and any number of
//! lock-free readers**: the one partition a server keeps, so that merge
//! classification, connectivity queries, per-component sizes and
//! everything derived from "which two components just joined" read one
//! structure instead of a mirror each.
//!
//! # Writer / reader contract
//!
//! At most one thread calls [`SizedUnionFind::unite`] at a time (the
//! caller's lock; every word is atomic, so breaking the rule corrupts
//! the partition, never memory). Readers call [`SizedUnionFind::find`],
//! [`SizedUnionFind::same_set`] and [`SizedUnionFind::component_of`]
//! whenever they like.
//!
//! Each element is one word: a root's holds its class size (tagged), any
//! other element's its parent. A reader therefore gets a root *and* its
//! size from a single load — the pair is exact as of that load. The
//! writer orders every merge as *size first, then link*: the merged size
//! is Release-stored into the winning root before the losing root's word
//! is Release-stored to point at it, and readers Acquire-load. A reader
//! that follows the link therefore sees at least the merged size; one
//! that does not sees the pre-merge class. The writer's finds halve
//! paths, also with Release stores: a pointer only ever moves to an
//! ancestor, and the store follows every merge the writer made before
//! it, so a reader taking the shortcut has seen those merges too.

use std::sync::atomic::{AtomicU64, Ordering};

/// What one successful [`SizedUnionFind::unite`] did: the two roots that
/// were joined and the sizes their classes had just before.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MergeOutcome {
    /// The root that survives as the merged class's representative.
    pub winner: u32,
    /// The root that was linked under `winner`.
    pub loser: u32,
    /// Members of `winner`'s class before the merge.
    pub winner_size: u64,
    /// Members of `loser`'s class before the merge.
    pub loser_size: u64,
}

impl MergeOutcome {
    /// Members of the merged class.
    pub fn merged_size(&self) -> u64 {
        self.winner_size + self.loser_size
    }
}

/// Tag bit of a root's word; the low bits are then its class size.
const ROOT: u64 = 1 << 63;

/// The partition (see module docs): union by size, sizes kept on roots.
pub struct SizedUnionFind {
    /// `ROOT | size` for a root, the parent's index otherwise.
    words: Vec<AtomicU64>,
}

impl SizedUnionFind {
    /// `n` singleton classes.
    pub fn new(n: usize) -> SizedUnionFind {
        SizedUnionFind { words: (0..n).map(|_| AtomicU64::new(ROOT | 1)).collect() }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// True when the partition covers zero elements.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Starts loading `v`'s word into cache, for a batch loop to call a
    /// few operations ahead of a [`Self::unite`] that will read it.
    #[inline]
    pub fn prefetch(&self, v: u32) {
        cc_parallel::prefetch(&self.words[v as usize]);
    }

    /// The representative of `v`'s class.
    pub fn find(&self, v: u32) -> u32 {
        self.component_of(v).0
    }

    /// `(root, size)` of `v`'s class, exact as of the walk's last load: a
    /// read-only walk up the parent chain, safe beside the writer (union
    /// by size keeps chains logarithmic even where the writer has not
    /// compressed them).
    pub fn component_of(&self, v: u32) -> (u32, u64) {
        let mut v = v;
        loop {
            let w = self.words[v as usize].load(Ordering::Acquire);
            if w & ROOT != 0 {
                return (v, w & !ROOT);
            }
            v = w as u32;
        }
    }

    /// Whether `u` and `v` share a class, linearizable beside the writer
    /// (the paper's Type (i) query): two finds alone can answer a stale
    /// `false` when a merge lands between them, so a `false` stands only
    /// if `u`'s root is still a root after `v`'s was read. Each retry
    /// means a root was linked away, which happens fewer than `n` times.
    pub fn same_set(&self, u: u32, v: u32) -> bool {
        loop {
            let (ru, rv) = (self.find(u), self.find(v));
            if ru == rv {
                return true;
            }
            if self.words[ru as usize].load(Ordering::Acquire) & ROOT != 0 {
                return false;
            }
        }
    }

    /// The writer's find: path halving. Loads are `Relaxed` because the
    /// only thread that stores is the one running this.
    fn find_halving(&self, v: u32) -> (u32, u64) {
        let mut v = v;
        loop {
            let w = self.words[v as usize].load(Ordering::Relaxed);
            if w & ROOT != 0 {
                return (v, w & !ROOT);
            }
            let parent = self.words[w as u32 as usize].load(Ordering::Relaxed);
            if parent & ROOT != 0 {
                return (w as u32, parent & !ROOT);
            }
            self.words[v as usize].store(parent, Ordering::Release);
            v = parent as u32;
        }
    }

    /// Joins the classes of `u` and `v`; `None` when they already share
    /// one. The larger class's root wins (`u`'s on a tie). Single writer
    /// only (see module docs).
    pub fn unite(&self, u: u32, v: u32) -> Option<MergeOutcome> {
        let ((ru, su), (rv, sv)) = (self.find_halving(u), self.find_halving(v));
        if ru == rv {
            return None;
        }
        let m = if su >= sv {
            MergeOutcome { winner: ru, loser: rv, winner_size: su, loser_size: sv }
        } else {
            MergeOutcome { winner: rv, loser: ru, winner_size: sv, loser_size: su }
        };
        // Size first, then link: a reader that sees the link sees the
        // merged size.
        self.words[m.winner as usize].store(ROOT | m.merged_size(), Ordering::Release);
        self.words[m.loser as usize].store(u64::from(m.winner), Ordering::Release);
        Some(m)
    }

    /// Every class as `(root, size)`, in root order.
    pub fn roots(&self) -> impl Iterator<Item = (u32, u64)> + '_ {
        self.words.iter().enumerate().filter_map(|(v, w)| {
            let w = w.load(Ordering::Acquire);
            (w & ROOT != 0).then_some((v as u32, w & !ROOT))
        })
    }

    /// Canonical labeling: every element mapped to its representative.
    pub fn labels(&self) -> Vec<u32> {
        (0..self.len() as u32).map(|v| self.find(v)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SeqUnionFind;
    use std::sync::atomic::{AtomicBool, AtomicU32};
    use std::sync::Barrier;

    #[test]
    fn unite_reports_the_two_roots_and_their_sizes() {
        let uf = SizedUnionFind::new(6);
        assert_eq!(
            uf.unite(3, 1),
            Some(MergeOutcome { winner: 3, loser: 1, winner_size: 1, loser_size: 1 })
        );
        assert_eq!(uf.unite(1, 3), None);
        // The larger class wins whichever side it is named on.
        assert_eq!(
            uf.unite(5, 1),
            Some(MergeOutcome { winner: 3, loser: 5, winner_size: 2, loser_size: 1 })
        );
        assert_eq!(uf.component_of(5), (3, 3));
        assert_eq!(uf.component_of(0), (0, 1));
        assert_eq!(uf.roots().collect::<Vec<_>>(), vec![(0, 1), (2, 1), (3, 3), (4, 1)]);
        assert_eq!(uf.labels(), vec![0, 3, 2, 3, 4, 3]);
    }

    #[test]
    fn writer_finds_shorten_chains_without_changing_classes() {
        // 0 <- 1, 2 <- 3, then 0 <- 2: vertex 3 sits two links from 0.
        let uf = SizedUnionFind::new(4);
        uf.unite(0, 1);
        uf.unite(2, 3);
        uf.unite(0, 2);
        assert_eq!(uf.words[3].load(Ordering::Relaxed), 2);
        assert_eq!(uf.find(3), 0, "the reader's find never writes");
        assert_eq!(uf.words[3].load(Ordering::Relaxed), 2);
        assert_eq!(uf.unite(3, 0), None);
        assert_eq!(uf.words[3].load(Ordering::Relaxed), 0, "halved by the writer");
        assert_eq!(uf.labels(), vec![0; 4]);
    }

    /// The ordering contract: whenever a reader finds `k` under root 0 it
    /// reads a size that already counts `k`.
    #[test]
    fn a_reader_that_sees_the_link_sees_the_merged_size() {
        const N: u32 = 200_000;
        let uf = SizedUnionFind::new(N as usize);
        let (start, done) = (Barrier::new(2), AtomicBool::new(false));
        std::thread::scope(|s| {
            s.spawn(|| {
                start.wait();
                for k in 1..N {
                    uf.unite(0, k).expect("k is still a singleton");
                }
                done.store(true, Ordering::Release);
            });
            s.spawn(|| {
                start.wait();
                let mut k = 1;
                // Chase the writer's frontier, where the race is; one
                // last sweep after it finishes sees every link.
                loop {
                    let finished = done.load(Ordering::Acquire);
                    while k < N {
                        let (root, size) = uf.component_of(k);
                        if root != 0 {
                            break;
                        }
                        assert!(size > u64::from(k), "root 0 with size {size} at k = {k}");
                        k += 1;
                    }
                    if finished {
                        break;
                    }
                }
                assert_eq!(k, N);
            });
        });
        assert_eq!(uf.component_of(N - 1), (0, u64::from(N)));
    }

    /// The query contract: a pair united before `same_set` was called is
    /// never answered `false`, however often its class's root changes
    /// while the call runs (two bare finds would be: one before a link,
    /// one after it).
    #[test]
    fn same_set_never_unsees_a_union_while_the_winner_changes() {
        const GADGETS: u32 = 40_000;
        let uf = SizedUnionFind::new(5 * GADGETS as usize);
        let (start, published) = (Barrier::new(2), AtomicU32::new(0));
        std::thread::scope(|s| {
            s.spawn(|| {
                start.wait();
                for g in 0..GADGETS {
                    let [a, b, c, d, e] = [0, 1, 2, 3, 4].map(|i| 5 * g + i);
                    uf.unite(a, b);
                    uf.unite(c, d);
                    uf.unite(c, e);
                    published.store(g + 1, Ordering::Release);
                    // The pair loses to the triple, which loses to the
                    // chain of every earlier gadget: the root of {a, b}
                    // moves twice under the reader's feet.
                    assert_eq!(uf.unite(a, c).map(|m| m.winner), Some(c));
                    if g > 0 {
                        assert_eq!(uf.unite(0, c).map(|m| m.loser), Some(c));
                    }
                }
            });
            s.spawn(|| {
                start.wait();
                loop {
                    let seen = published.load(Ordering::Acquire);
                    // The newest published gadgets are where the race is.
                    for g in seen.saturating_sub(2)..seen {
                        let (a, b) = (5 * g, 5 * g + 1);
                        assert!(uf.same_set(a, b), "{a} and {b} were united before the call");
                        assert!(uf.same_set(b, a), "{b} and {a} were united before the call");
                    }
                    if seen == GADGETS {
                        break;
                    }
                }
            });
        });
        assert_eq!(uf.component_of(1), (2, 5 * u64::from(GADGETS)));
        assert!(!SizedUnionFind::new(2).same_set(0, 1));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

        #[test]
        fn agrees_with_the_sequential_oracle(
            n in 1usize..48,
            pairs in proptest::collection::vec((0u32..48, 0u32..48), 0..160),
        ) {
            let uf = SizedUnionFind::new(n);
            let mut oracle = SeqUnionFind::new(n);
            for (u, v) in pairs {
                let (u, v) = (u % n as u32, v % n as u32);
                let before = oracle.labels();
                let roots: Vec<u32> = uf.roots().map(|(r, _)| r).collect();
                let class = |x: u32| before.iter().filter(|&&l| l == before[x as usize]).count() as u64;
                match uf.unite(u, v) {
                    None => proptest::prop_assert!(!oracle.union(u, v)),
                    Some(m) => {
                        proptest::prop_assert!(oracle.union(u, v));
                        // Two pre-merge roots, one per endpoint's class,
                        // with those classes' exact sizes.
                        proptest::prop_assert!(roots.contains(&m.winner) && roots.contains(&m.loser));
                        let sides = [before[m.winner as usize], before[m.loser as usize]];
                        proptest::prop_assert!(
                            sides == [before[u as usize], before[v as usize]]
                                || sides == [before[v as usize], before[u as usize]]
                        );
                        proptest::prop_assert_eq!(m.winner_size, class(m.winner));
                        proptest::prop_assert_eq!(m.loser_size, class(m.loser));
                        proptest::prop_assert!(m.winner_size >= m.loser_size);
                        proptest::prop_assert_eq!(uf.component_of(u), (m.winner, m.merged_size()));
                    }
                }
                proptest::prop_assert_eq!(uf.roots().map(|(_, s)| s).sum::<u64>(), n as u64);
                proptest::prop_assert_eq!(uf.roots().count(), oracle.num_components());
            }
            proptest::prop_assert!(cc_graph::stats::same_partition(&uf.labels(), &oracle.labels()));
        }
    }
}
