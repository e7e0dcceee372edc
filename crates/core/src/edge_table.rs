//! [`EdgeTable`]: the flat set of canonical edge keys
//! ([`crate::canon_edge`]) that holds a [`crate::LivenessTracker`]'s live
//! edges and its spanning forest.
//!
//! One `u64` slot per key, open addressing with linear probing, no
//! per-slot metadata: a lookup reads one cache line in the common case,
//! and [`EdgeTable::prefetch`] lets a batch loop start that read several
//! operations early. The empty-slot sentinel is `u64::MAX`, which is
//! `canon_edge(u32::MAX, u32::MAX)` — a self-loop, and self-loops are
//! never live. Deletion shifts the displaced run back over the hole
//! (no tombstones), so churn never degrades probe lengths.
//!
//! The hash is keyed: each table draws a random seed from
//! [`RandomState`] (the randomness behind std's SipHash maps) and mixes
//! `key ^ seed` through a full-avalanche 64-bit finalizer. Structured
//! edge families — paths, stars, grids, runs of consecutive keys — spread
//! like random keys (`structured_keys_keep_probes_short` bounds the
//! longest displacement), and an outsider cannot aim keys at one slot
//! without the seed (DESIGN.md §9).

use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;

/// The empty-slot sentinel: `canon_edge(u32::MAX, u32::MAX)`, a self-loop.
const EMPTY: u64 = u64::MAX;

/// The smallest table: 16 slots, two cache lines.
const MIN_SLOTS: usize = 16;

/// Maximum load `MAX_LOAD_NUM / MAX_LOAD_DEN` = 3/4: linear probing then
/// expects 2.5 slots per hit and 8.5 per miss, one or two cache lines.
const MAX_LOAD_NUM: usize = 3;
const MAX_LOAD_DEN: usize = 4;

/// An open-addressed, linear-probing set of canonical edge keys (see the
/// module docs). Any `u64` but `u64::MAX` can be a key.
pub(crate) struct EdgeTable {
    /// Power-of-two length; [`EMPTY`] or a key.
    slots: Box<[u64]>,
    len: usize,
    /// `64 - log2(slots.len())`: the home slot is the hash's top bits.
    shift: u32,
    seed: u64,
}

impl EdgeTable {
    /// An empty table of [`MIN_SLOTS`] slots; it doubles as it fills.
    pub(crate) fn new() -> Self {
        Self::with_capacity(0)
    }

    /// An empty table that holds `keys` keys without growing.
    pub(crate) fn with_capacity(keys: usize) -> Self {
        Self::build(keys, RandomState::new().hash_one(0u64))
    }

    fn build(keys: usize, seed: u64) -> Self {
        let slots = (keys * MAX_LOAD_DEN).div_ceil(MAX_LOAD_NUM).max(MIN_SLOTS).next_power_of_two();
        EdgeTable {
            slots: vec![EMPTY; slots].into_boxed_slice(),
            len: 0,
            shift: 64 - slots.trailing_zeros(),
            seed,
        }
    }

    /// Number of keys held.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Bytes of slot storage (8 per slot, held or empty).
    pub(crate) fn bytes(&self) -> usize {
        std::mem::size_of_val(&*self.slots)
    }

    #[inline]
    fn mask(&self) -> usize {
        self.slots.len() - 1
    }

    /// The slot `key`'s probe starts at.
    #[inline]
    fn home(&self, key: u64) -> usize {
        (mix(key ^ self.seed) >> self.shift) as usize
    }

    /// `Ok(slot)` holding `key`, or `Err(slot)`: the empty slot that ends
    /// its probe, where an insert would put it.
    #[inline]
    fn probe(&self, key: u64) -> Result<usize, usize> {
        debug_assert_ne!(key, EMPTY, "the sentinel is a self-loop, never a live edge");
        let mask = self.mask();
        let mut i = self.home(key);
        loop {
            match self.slots[i] {
                s if s == key => return Ok(i),
                EMPTY => return Err(i),
                _ => i = (i + 1) & mask,
            }
        }
    }

    /// Whether `key` is held.
    #[inline]
    pub(crate) fn contains(&self, key: u64) -> bool {
        self.probe(key).is_ok()
    }

    /// Adds `key`; `false` if it was already held.
    #[inline]
    pub(crate) fn insert(&mut self, key: u64) -> bool {
        let Err(mut slot) = self.probe(key) else {
            return false;
        };
        if (self.len + 1) * MAX_LOAD_DEN > self.slots.len() * MAX_LOAD_NUM {
            self.grow();
            slot = self.probe(key).unwrap_err();
        }
        self.slots[slot] = key;
        self.len += 1;
        true
    }

    /// Removes `key`; `false` if it was not held. Backward-shift
    /// deletion: every key after the hole in its run whose probe path
    /// crosses the hole moves into it, so no tombstone is left behind.
    #[inline]
    pub(crate) fn remove(&mut self, key: u64) -> bool {
        let Ok(mut hole) = self.probe(key) else {
            return false;
        };
        let mask = self.mask();
        let mut j = hole;
        loop {
            j = (j + 1) & mask;
            let s = self.slots[j];
            if s == EMPTY {
                break;
            }
            // `s` may fill the hole iff the hole lies between its home
            // and `j` (cyclically): its displacement reaches back that far.
            if j.wrapping_sub(self.home(s)) & mask >= j.wrapping_sub(hole) & mask {
                self.slots[hole] = s;
                hole = j;
            }
        }
        self.slots[hole] = EMPTY;
        self.len -= 1;
        true
    }

    /// Doubles the slot array and re-places every key.
    fn grow(&mut self) {
        let doubled = vec![EMPTY; self.slots.len() * 2].into_boxed_slice();
        let old = std::mem::replace(&mut self.slots, doubled);
        self.shift -= 1;
        for &key in old.iter().filter(|&&k| k != EMPTY) {
            let slot = self.probe(key).unwrap_err();
            self.slots[slot] = key;
        }
    }

    /// Starts loading `key`'s home slot into cache, so that a lookup of
    /// it a few operations later does not wait for memory.
    #[inline]
    pub(crate) fn prefetch(&self, key: u64) {
        cc_parallel::prefetch(&self.slots[self.home(key)]);
    }

    /// Every key, mapped through `f`, in slot order. One pass over the
    /// slots with no data-dependent branch: each slot is written at the
    /// output cursor and the cursor advances only past a key, so a
    /// half-empty table costs no mispredictions.
    pub(crate) fn map_keys<T: Copy>(&self, f: impl Fn(u64) -> T) -> Vec<T> {
        let len = self.len;
        let mut out = Vec::with_capacity(len + 1);
        let spare = &mut out.spare_capacity_mut()[..=len];
        let mut k = 0;
        for &s in self.slots.iter() {
            // Clamped, so a broken count could not write out of bounds.
            spare[k.min(len)].write(f(s));
            k += usize::from(s != EMPTY);
        }
        assert_eq!(k, len, "edge table count out of step with its slots");
        // SAFETY: the cursor passed each of positions `0..len` right
        // after writing a key there, and a later write only ever lands at
        // the cursor, which is past them.
        unsafe { out.set_len(len) };
        out
    }
}

/// Murmur3's 64-bit finalizer: every input bit flips every output bit
/// with probability close to 1/2.
#[inline]
fn mix(mut x: u64) -> u64 {
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^= x >> 33;
    x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    x ^ (x >> 33)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::canon_edge;
    use proptest::prelude::*;
    use std::collections::HashSet;

    impl EdgeTable {
        /// [`EdgeTable::new`] under a fixed seed, so a failing test
        /// reproduces.
        pub(crate) fn with_seed(seed: u64) -> Self {
            Self::build(0, seed)
        }

        /// The longest distance of any key from its home slot.
        fn max_displacement(&self) -> usize {
            let mask = self.mask();
            let held = self.slots.iter().enumerate().filter(|&(_, &s)| s != EMPTY);
            held.map(|(i, &s)| i.wrapping_sub(self.home(s)) & mask).max().unwrap_or(0)
        }
    }

    /// One step of a random schedule against the std oracle.
    #[derive(Clone, Copy, Debug)]
    enum Op {
        Insert(u64),
        Remove(u64),
        Contains(u64),
    }

    /// Keys from a small range, so that removes and repeats hit held
    /// keys and runs of displaced keys form in 16–64-slot tables.
    fn arb_op() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0u64..96).prop_map(Op::Insert),
            (0u64..96).prop_map(Op::Insert),
            (0u64..96).prop_map(Op::Remove),
            (0u64..96).prop_map(Op::Contains),
        ]
    }

    fn sorted_keys(t: &EdgeTable) -> Vec<u64> {
        let mut keys = t.map_keys(|k| k);
        keys.sort_unstable();
        keys
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn matches_std_hash_set(seed in any::<u64>(), ops in collection::vec(arb_op(), 1..160)) {
            let mut t = EdgeTable::with_seed(seed);
            let mut oracle: HashSet<u64> = HashSet::new();
            for op in ops {
                match op {
                    Op::Insert(k) => prop_assert_eq!(t.insert(k), oracle.insert(k), "{:?}", op),
                    Op::Remove(k) => prop_assert_eq!(t.remove(k), oracle.remove(&k), "{:?}", op),
                    Op::Contains(k) => {
                        prop_assert_eq!(t.contains(k), oracle.contains(&k), "{:?}", op)
                    }
                }
                prop_assert_eq!(t.len(), oracle.len());
                prop_assert!(t.len() * MAX_LOAD_DEN <= t.slots.len() * MAX_LOAD_NUM);
                let mut want: Vec<u64> = oracle.iter().copied().collect();
                want.sort_unstable();
                prop_assert_eq!(sorted_keys(&t), want);
            }
        }
    }

    #[test]
    fn probing_wraps_and_backward_shift_keeps_runs_reachable() {
        // Keys whose home is the last slot of a 16-slot table: their run
        // wraps to slot 0 and on.
        let mut t = EdgeTable::with_seed(7);
        let last: Vec<u64> = (0..).filter(|&k| t.home(k) == 15).take(4).collect();
        let first: Vec<u64> = (0..).filter(|&k| t.home(k) == 0).take(2).collect();
        for &k in last.iter().chain(&first) {
            assert!(t.insert(k));
        }
        assert_eq!(t.slots.len(), 16, "no growth at 6 of 16");
        assert_eq!(t.max_displacement(), 4, "the run wrapped: 15, 0, 1, 2, then 3, 4");
        // Remove inside the run: everything after it must shift back.
        assert!(t.remove(last[1]));
        for &k in last.iter().chain(&first).filter(|&&k| k != last[1]) {
            assert!(t.contains(k), "key {k} unreachable after the shift");
        }
        assert!(!t.contains(last[1]));
        assert_eq!(t.max_displacement(), 3);
        // Drain in a different order: the table ends empty, no tombstones.
        for &k in first.iter().chain(&last).filter(|&&k| k != last[1]) {
            assert!(t.remove(k));
        }
        assert_eq!(t.len(), 0);
        assert!(t.slots.iter().all(|&s| s == EMPTY));
    }

    #[test]
    fn growth_crosses_three_quarters_mid_sequence() {
        let mut t = EdgeTable::with_seed(3);
        for k in 0..12 {
            t.insert(k);
        }
        assert_eq!(t.slots.len(), 16, "12 of 16 is exactly 3/4");
        assert!(!t.insert(5), "a duplicate at the threshold does not grow");
        assert_eq!(t.slots.len(), 16);
        t.insert(12);
        assert_eq!(t.slots.len(), 32);
        assert_eq!(sorted_keys(&t), (0..13).collect::<Vec<_>>());
        assert!(t.remove(0) && !t.contains(0) && t.contains(12));
    }

    #[test]
    fn with_capacity_holds_that_many_without_growing() {
        for keys in [0, 1, 12, 13, 1000] {
            let mut t = EdgeTable::with_capacity(keys);
            let slots = t.slots.len();
            for k in 0..keys as u64 {
                t.insert(k);
            }
            assert_eq!(t.slots.len(), slots, "{keys} keys");
            assert_eq!(t.bytes(), slots * 8);
        }
    }

    #[test]
    fn structured_keys_keep_probes_short() {
        // Random keys at 3/4 load of 2^20 slots reach a longest
        // displacement around 100–200; 512 leaves room for chance, not
        // for a family that clusters.
        const BOUND: usize = 512;
        let full = (1 << 20) * MAX_LOAD_NUM / MAX_LOAD_DEN;
        let side = 1024u32;
        let grid = (0..side * side).flat_map(|v| {
            let right = (v % side + 1 < side).then(|| canon_edge(v, v + 1));
            let down = (v / side + 1 < side).then(|| canon_edge(v, v + side));
            right.into_iter().chain(down)
        });
        let families: [(&str, Vec<u64>); 4] = [
            ("path", (0u32..).map(|i| canon_edge(i, i + 1)).take(full).collect()),
            ("star", (1u32..).map(|i| canon_edge(0, i)).take(full).collect()),
            ("grid", grid.take(full).collect()),
            ("consecutive", ((1u64 << 40)..).take(full).collect()),
        ];
        for seed in [1, 0x9e37_79b9] {
            for (name, keys) in &families {
                let mut t = EdgeTable::with_seed(seed);
                for &k in keys {
                    t.insert(k);
                }
                assert_eq!((t.len(), t.slots.len()), (full, 1 << 20), "exactly 3/4 full");
                let d = t.max_displacement();
                assert!(d < BOUND, "{name} keys, seed {seed}: displacement {d} ≥ {BOUND}");
            }
        }
    }
}
