//! Parallel histogram / counting primitives, plus a concurrent
//! log-bucketed latency histogram with percentile extraction
//! ([`LatencyHist`]) used by the service layer and benches.

use crate::ops::{parallel_for_chunks, parallel_tabulate};
use crate::scan::scan_exclusive;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Duration;

/// Number of buckets below which per-thread local histograms (merged at the
/// end) beat shared atomic counters.
const LOCAL_HIST_MAX_BUCKETS: usize = 1 << 14;

/// Counts key occurrences: `out[b] = |{ i : key(i) == b }|` for
/// `b in 0..buckets`. Keys outside `0..buckets` are a logic error and panic
/// in debug builds (they are ignored in release).
pub fn histogram<K>(n: usize, buckets: usize, key: K) -> Vec<usize>
where
    K: Fn(usize) -> u32 + Sync,
{
    if buckets == 0 || n == 0 {
        return vec![0; buckets];
    }
    if buckets <= LOCAL_HIST_MAX_BUCKETS {
        let partials: Mutex<Vec<usize>> = Mutex::new(vec![0; buckets]);
        parallel_for_chunks(n, |r| {
            let mut local = vec![0usize; buckets];
            for i in r {
                let b = key(i) as usize;
                debug_assert!(b < buckets, "key {b} out of range {buckets}");
                if b < buckets {
                    local[b] += 1;
                }
            }
            let mut g = partials.lock();
            for (dst, src) in g.iter_mut().zip(local) {
                *dst += src;
            }
        });
        partials.into_inner()
    } else {
        let counts: Vec<AtomicUsize> = parallel_tabulate(buckets, |_| AtomicUsize::new(0));
        parallel_for_chunks(n, |r| {
            for i in r {
                let b = key(i) as usize;
                debug_assert!(b < buckets, "key {b} out of range {buckets}");
                if b < buckets {
                    counts[b].fetch_add(1, Ordering::Relaxed);
                }
            }
        });
        parallel_tabulate(buckets, |b| counts[b].load(Ordering::Relaxed))
    }
}

/// Stable-by-bucket parallel counting sort. Returns a permutation `perm`
/// such that iterating `perm` visits all indices with key 0, then key 1,
/// etc. (order within a bucket is unspecified), along with the exclusive
/// bucket offsets (length `buckets + 1`).
pub fn counting_sort_indices<K>(n: usize, buckets: usize, key: K) -> (Vec<u32>, Vec<usize>)
where
    K: Fn(usize) -> u32 + Sync,
{
    let mut counts = histogram(n, buckets, &key);
    counts.push(0);
    let total = scan_exclusive(&mut counts);
    debug_assert_eq!(total, n);
    *counts.last_mut().expect("nonempty") = n;
    let cursors: Vec<AtomicUsize> = parallel_tabulate(buckets, |b| AtomicUsize::new(counts[b]));
    let perm_slots: Vec<AtomicUsize> = parallel_tabulate(n, |_| AtomicUsize::new(0));
    parallel_for_chunks(n, |r| {
        for i in r {
            let b = key(i) as usize;
            let at = cursors[b].fetch_add(1, Ordering::Relaxed);
            perm_slots[at].store(i, Ordering::Relaxed);
        }
    });
    let perm = parallel_tabulate(n, |i| perm_slots[i].load(Ordering::Relaxed) as u32);
    (perm, counts)
}

/// Sub-bucket resolution bits of [`LatencyHist`]: each power-of-two value
/// range is split into `2^SUB_BITS` linear sub-buckets, bounding the
/// relative quantization error by `2^-SUB_BITS` (~3% at 5 bits).
const SUB_BITS: u32 = 5;
const SUBS: u64 = 1 << SUB_BITS;
/// Bucket count covering the full `u64` value range at `SUB_BITS`
/// resolution (values below `2^SUB_BITS` are recorded exactly).
const HIST_BUCKETS: usize = ((64 - SUB_BITS) as usize + 1) << SUB_BITS;

/// Maps a value to its bucket index (monotone in the value).
#[inline]
fn latency_bucket(v: u64) -> usize {
    if v < SUBS {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros(); // >= SUB_BITS
    let sub = (v >> (exp - SUB_BITS)) & (SUBS - 1);
    (((exp - SUB_BITS + 1) as u64 * SUBS) | sub) as usize
}

/// Lower bound of a bucket's value range (inverse of [`latency_bucket`]).
#[inline]
fn bucket_lower(idx: usize) -> u64 {
    let group = idx as u64 / SUBS;
    let sub = idx as u64 & (SUBS - 1);
    if group <= 1 {
        return idx as u64;
    }
    let exp = (group - 1) + SUB_BITS as u64;
    (1u64 << exp) | (sub << (exp - SUB_BITS as u64))
}

/// A concurrent, log-bucketed histogram of `u64` samples (nanoseconds by
/// convention) with cheap percentile extraction.
///
/// Recording is wait-free (one relaxed `fetch_add` per sample plus min/max
/// maintenance), so many threads — e.g. the service's batch leaders and its
/// protocol threads — can record into one shared instance. Values are
/// quantized to ~3% relative error; `min`/`max` are tracked exactly.
///
/// The `Display` implementation prints a one-line summary with count, mean,
/// p50/p90/p99/p999 and max, formatted as durations:
///
/// ```
/// use cc_parallel::hist::LatencyHist;
/// let h = LatencyHist::new();
/// for i in 1..=1000u64 {
///     h.record(i * 1_000); // 1µs .. 1ms
/// }
/// assert_eq!(h.count(), 1000);
/// let line = h.to_string();
/// assert!(line.contains("p50=") && line.contains("p999="));
/// ```
pub struct LatencyHist {
    counts: Vec<AtomicU64>,
    total: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for LatencyHist {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHist {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        LatencyHist {
            counts: (0..HIST_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            total: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Records one sample (nanoseconds by convention).
    #[inline]
    pub fn record(&self, v: u64) {
        self.record_n(v, 1);
    }

    /// Records `n` samples of the same value in O(1) (used when every
    /// operation of a batch shares the batch's completion latency).
    pub fn record_n(&self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.counts[latency_bucket(v)].fetch_add(n, Ordering::Relaxed);
        self.total.fetch_add(n, Ordering::Relaxed);
        self.sum.fetch_add(v.saturating_mul(n), Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Records a [`Duration`] sample in nanoseconds.
    #[inline]
    pub fn record_duration(&self, d: Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }

    /// Mean of the recorded samples (0 when empty).
    pub fn mean(&self) -> u64 {
        self.sum.load(Ordering::Relaxed).checked_div(self.count()).unwrap_or(0)
    }

    /// Largest recorded sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// The `q`-quantile (`q` in `[0, 1]`) of the recorded samples, e.g.
    /// `quantile(0.99)` for p99. Returns the lower bound of the bucket
    /// holding the target rank, clamped to the exact recorded min/max; 0
    /// when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
        // Snapshot min/max once; a concurrent `record_n` updates counts
        // before min/max, so the pair can be transiently inverted — fall
        // back to the raw bucket bound rather than a panicking clamp.
        let (lo, hi) = (self.min.load(Ordering::Relaxed), self.max());
        let mut seen = 0u64;
        for (i, c) in self.counts.iter().enumerate() {
            seen += c.load(Ordering::Relaxed);
            if seen >= rank {
                let b = bucket_lower(i);
                return if lo <= hi { b.clamp(lo, hi) } else { b };
            }
        }
        hi
    }

    /// p50 / p90 / p99 / p999 in one call (one pass per percentile).
    pub fn percentiles(&self) -> [u64; 4] {
        [self.quantile(0.50), self.quantile(0.90), self.quantile(0.99), self.quantile(0.999)]
    }

    /// Folds another histogram's samples into this one.
    pub fn merge(&self, other: &LatencyHist) {
        for (dst, src) in self.counts.iter().zip(&other.counts) {
            let c = src.load(Ordering::Relaxed);
            if c > 0 {
                dst.fetch_add(c, Ordering::Relaxed);
            }
        }
        self.total.fetch_add(other.total.load(Ordering::Relaxed), Ordering::Relaxed);
        self.sum.fetch_add(other.sum.load(Ordering::Relaxed), Ordering::Relaxed);
        self.min.fetch_min(other.min.load(Ordering::Relaxed), Ordering::Relaxed);
        self.max.fetch_max(other.max.load(Ordering::Relaxed), Ordering::Relaxed);
    }
}

/// Formats nanoseconds with a human time unit (`ns`/`µs`/`ms`/`s`).
pub fn fmt_ns(ns: u64) -> String {
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.1}µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else {
        format!("{:.2}s", ns as f64 / 1e9)
    }
}

impl std::fmt::Display for LatencyHist {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let [p50, p90, p99, p999] = self.percentiles();
        write!(
            f,
            "n={} mean={} p50={} p90={} p99={} p999={} max={}",
            self.count(),
            fmt_ns(self.mean()),
            fmt_ns(p50),
            fmt_ns(p90),
            fmt_ns(p99),
            fmt_ns(p999),
            fmt_ns(self.max())
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_small_buckets() {
        let n = 200_000;
        let h = histogram(n, 7, |i| (i % 7) as u32);
        for (b, &c) in h.iter().enumerate() {
            let expect = (0..n).filter(|i| i % 7 == b).count();
            assert_eq!(c, expect);
        }
    }

    #[test]
    fn histogram_large_buckets() {
        let n = 100_000;
        let buckets = 1 << 16;
        let h = histogram(n, buckets, |i| (i % buckets) as u32);
        assert_eq!(h.iter().sum::<usize>(), n);
        assert_eq!(h[5], (0..n).filter(|i| i % buckets == 5).count());
    }

    #[test]
    fn histogram_empty() {
        assert_eq!(histogram(0, 4, |_| 0), vec![0; 4]);
        assert!(histogram(10, 0, |_| 0).is_empty());
    }

    #[test]
    fn latency_bucket_monotone_and_invertible() {
        let values: Vec<u64> =
            (0..60).flat_map(|shift| [0u64, 1, 3].map(|off| (1u64 << shift) + off)).collect();
        let mut sorted = values;
        sorted.sort_unstable();
        let mut prev = 0usize;
        for v in sorted {
            let b = latency_bucket(v);
            assert!(b >= prev, "bucket not monotone at {v}");
            prev = b;
            assert!(bucket_lower(b) <= v, "lower bound above value at {v}");
        }
        // Small values are exact.
        for v in 0..SUBS * 2 {
            assert_eq!(bucket_lower(latency_bucket(v)), v);
        }
    }

    #[test]
    fn latency_percentiles_uniform() {
        let h = LatencyHist::new();
        for v in 1..=10_000u64 {
            h.record(v * 1000);
        }
        assert_eq!(h.count(), 10_000);
        let [p50, p90, p99, p999] = h.percentiles();
        // ~3% quantization error plus rank rounding.
        let close = |got: u64, want: u64| (got as f64 - want as f64).abs() / (want as f64) < 0.08;
        assert!(close(p50, 5_000_000), "p50={p50}");
        assert!(close(p90, 9_000_000), "p90={p90}");
        assert!(close(p99, 9_900_000), "p99={p99}");
        assert!(close(p999, 9_990_000), "p999={p999}");
        assert_eq!(h.max(), 10_000_000);
        assert!(h.quantile(0.0) >= 1000);
        assert!(close(h.quantile(1.0), 10_000_000));
    }

    #[test]
    fn latency_record_n_and_merge() {
        let a = LatencyHist::new();
        let b = LatencyHist::new();
        a.record_n(100, 50);
        b.record_n(1_000_000, 50);
        a.merge(&b);
        assert_eq!(a.count(), 100);
        assert!(a.quantile(0.25) <= 104);
        let p99 = a.quantile(0.99);
        assert!(p99 >= 970_000, "p99={p99}");
        let line = a.to_string();
        assert!(line.starts_with("n=100 "), "{line}");
        assert!(line.contains("max=1.00ms"), "{line}");
    }

    #[test]
    fn latency_empty_is_benign() {
        let h = LatencyHist::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.mean(), 0);
        assert!(h.to_string().contains("n=0"));
    }

    #[test]
    fn latency_empty_percentiles_and_display_are_stable() {
        let h = LatencyHist::new();
        assert_eq!(h.percentiles(), [0, 0, 0, 0]);
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.quantile(1.0), 0);
        assert_eq!(h.max(), 0);
        // The empty rendering is pinned verbatim: STATS exposes it and
        // scripts parse the key=value pairs.
        assert_eq!(h.to_string(), "n=0 mean=0ns p50=0ns p90=0ns p99=0ns p999=0ns max=0ns");
        // Zero-count records are no-ops, not 0-valued samples.
        h.record_n(500, 0);
        assert_eq!(h.count(), 0);
        assert_eq!(h.max(), 0);
    }

    #[test]
    fn latency_single_value_display_is_exact_and_stable() {
        let h = LatencyHist::new();
        h.record_n(10, 100);
        // Values below 2^SUB_BITS land in exact buckets, so every
        // percentile reproduces the sample and the line is deterministic.
        assert_eq!(h.to_string(), "n=100 mean=10ns p50=10ns p90=10ns p99=10ns p999=10ns max=10ns");
    }

    #[test]
    fn latency_top_bucket_saturates() {
        let h = LatencyHist::new();
        // u64::MAX maps into the last bucket — no index overflow — and
        // the overflowing Duration conversion clamps instead of panicking.
        assert_eq!(latency_bucket(u64::MAX), HIST_BUCKETS - 1);
        h.record(u64::MAX);
        h.record(u64::MAX - 1);
        h.record_duration(Duration::from_secs(u64::MAX / 4)); // > u64::MAX ns
        assert_eq!(h.count(), 3);
        assert_eq!(h.max(), u64::MAX);
        // Quantiles stay within the recorded range (bucket lower bounds
        // are clamped to the exact min/max).
        assert!(h.quantile(1.0) >= u64::MAX - 1);
        assert!(h.quantile(0.5) >= u64::MAX - 1);
        // The saturated sum must render, not panic (mean is clamped
        // arithmetic over wrapped atomics — only stability is promised).
        let _ = h.mean();
        assert!(h.to_string().starts_with("n=3 "));
    }

    #[test]
    fn counting_sort_groups_by_key() {
        let n = 100_000;
        let keys: Vec<u32> = (0..n).map(|i| ((i * 7919) % 101) as u32).collect();
        let (perm, offs) = counting_sort_indices(n, 101, |i| keys[i]);
        assert_eq!(perm.len(), n);
        assert_eq!(offs.len(), 102);
        // Every bucket range contains exactly the indices with that key.
        let mut seen = vec![false; n];
        for b in 0..101 {
            for &i in &perm[offs[b]..offs[b + 1]] {
                assert_eq!(keys[i as usize], b as u32);
                assert!(!seen[i as usize]);
                seen[i as usize] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }
}
