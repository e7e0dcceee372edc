//! # cc-parallel
//!
//! The parallelism substrate for the `connectit-rs` workspace: a persistent
//! broadcast fork-join pool (standing in for the ConnectIt authors'
//! Cilk-like scheduler) plus the PRAM-style sequence primitives the graph
//! algorithms are written against: `parallel_for`, reductions, prefix sums,
//! packs, histograms, and `write_min`-style priority updates.
//!
//! Thread count defaults to the machine; set `CC_NUM_THREADS` to override
//! (e.g. `CC_NUM_THREADS=1` for deterministic sequential debugging).
//!
//! ```
//! let squares = cc_parallel::parallel_tabulate(8, |i| i * i);
//! assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
//! ```

#![warn(missing_docs)]

pub mod atomic;
pub mod hist;
pub mod ops;
pub mod pool;
pub mod rng;
pub mod scan;

pub use atomic::{
    atomic_u32_slice, atomic_usize_slice, snapshot_u32, write_max_u32, write_min_u32, write_min_u64,
};
pub use hist::{counting_sort_indices, histogram, LatencyHist};
pub use ops::{
    parallel_count, parallel_for, parallel_for_chunks, parallel_for_chunks_grained,
    parallel_for_grained, parallel_max_index, parallel_reduce, parallel_sum, parallel_tabulate,
};
pub use pool::{global_pool, num_threads, ThreadPool};
pub use rng::SplitMix64;
pub use scan::{flatten_offsets, pack_indices, pack_map, scan_exclusive};

/// Starts loading the cache line holding `*r`, so that a read of it a few
/// operations later does not wait for memory. A hint only: it changes
/// nothing the program can observe, and it is a no-op off x86_64.
#[inline]
pub fn prefetch<T>(r: &T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: a prefetch reads nothing into the program and never faults;
    // `r` is a live reference in any case.
    unsafe {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch::<_MM_HINT_T0>((r as *const T).cast());
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = r;
}
