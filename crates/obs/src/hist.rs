//! Fixed-bucket log-linear latency histogram with atomic buckets.

use std::sync::atomic::{AtomicU64, Ordering};

/// Values below this are tracked exactly, one bucket per value.
const LINEAR_MAX: u64 = 16;
/// Sub-buckets per octave above the linear range: 16 ⇒ relative bucket
/// width of 1/16 (≤ 6.25% quantile error).
const SUB_BITS: u32 = 4;
const SUB_BUCKETS: usize = 1 << SUB_BITS;
/// Highest octave with its own buckets; values at 2^40 and above (≈ 18
/// minutes in nanoseconds) clamp into the final bucket, and `max` stays
/// exact.
const MAX_OCTAVE: u32 = 39;
const NUM_BUCKETS: usize =
    LINEAR_MAX as usize + (MAX_OCTAVE as usize - SUB_BITS as usize + 1) * SUB_BUCKETS;

/// A log-linear (HDR-style) histogram of `u64` samples, typically
/// nanoseconds; the unit is the recorder's, and names that export one say
/// it (`_nanos`, `_micros`).
///
/// Small values (< 16) get exact buckets; larger values share an octave
/// split into 16 sub-buckets, bounding relative quantile error at 1/16.
/// Recording is wait-free — four relaxed atomic RMWs, no allocation — so
/// one histogram can be shared across worker threads; a histogram with one
/// writer thread records with plain loads and stores instead
/// ([`LatencyHistogram::record_single_writer`]). Count, sum and max
/// are tracked exactly; only quantiles are bucket-approximate.
pub struct LatencyHistogram {
    buckets: Box<[AtomicU64; NUM_BUCKETS]>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for LatencyHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LatencyHistogram")
            .field("count", &self.count())
            .field("mean", &self.mean())
            .field("p50", &self.value_at_quantile(0.50))
            .field("p99", &self.value_at_quantile(0.99))
            .field("max", &self.max())
            .finish()
    }
}

fn bucket_index(v: u64) -> usize {
    if v < LINEAR_MAX {
        return v as usize;
    }
    let octave = 63 - v.leading_zeros();
    if octave > MAX_OCTAVE {
        return NUM_BUCKETS - 1;
    }
    let sub = ((v >> (octave - SUB_BITS)) & (SUB_BUCKETS as u64 - 1)) as usize;
    LINEAR_MAX as usize + (octave - SUB_BITS) as usize * SUB_BUCKETS + sub
}

/// Lowest value mapping into bucket `idx`.
fn bucket_low(idx: usize) -> u64 {
    if idx < LINEAR_MAX as usize {
        return idx as u64;
    }
    let b = idx - LINEAR_MAX as usize;
    let octave = b as u32 / SUB_BUCKETS as u32 + SUB_BITS;
    let sub = (b % SUB_BUCKETS) as u64;
    (1u64 << octave) + (sub << (octave - SUB_BITS))
}

/// Highest value mapping into bucket `idx`.
fn bucket_high(idx: usize) -> u64 {
    if idx < LINEAR_MAX as usize {
        return idx as u64;
    }
    let b = idx - LINEAR_MAX as usize;
    let octave = b as u32 / SUB_BUCKETS as u32 + SUB_BITS;
    bucket_low(idx) + (1u64 << (octave - SUB_BITS)) - 1
}

impl LatencyHistogram {
    pub fn new() -> Self {
        // Allocate zeroed once up front; recording never allocates.
        let buckets: Vec<AtomicU64> = (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect();
        let buckets: Box<[AtomicU64; NUM_BUCKETS]> =
            buckets.into_boxed_slice().try_into().unwrap_or_else(|_| unreachable!());
        LatencyHistogram {
            buckets,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Record one sample. Wait-free; safe to call from any thread.
    #[inline]
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Record one sample into a histogram that only the calling thread
    /// ever writes: each word is a relaxed `load` then `store`, with no
    /// locked read-modify-write. Readers on other threads may run
    /// concurrently and see each word's latest store. Two threads calling
    /// this on one histogram at once lose samples (every access stays
    /// atomic, so nothing worse happens); shared histograms use
    /// [`LatencyHistogram::record`].
    #[inline]
    pub fn record_single_writer(&self, value: u64) {
        let bump = |cell: &AtomicU64, by: u64| {
            cell.store(cell.load(Ordering::Relaxed).wrapping_add(by), Ordering::Relaxed)
        };
        bump(&self.buckets[bucket_index(value)], 1);
        bump(&self.count, 1);
        bump(&self.sum, value);
        if value > self.max.load(Ordering::Relaxed) {
            self.max.store(value, Ordering::Relaxed);
        }
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    pub fn is_empty(&self) -> bool {
        self.count() == 0
    }

    /// Exact sum of all recorded samples.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Exact maximum recorded sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Exact mean (0.0 when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() as f64 / n as f64
        }
    }

    /// Nearest-rank quantile, `q` in `[0, 1]`. Returns the upper edge of
    /// the bucket holding the rank (clamped to the exact max), so the
    /// result is within one bucket width (≤ 1/16 relative) of the true
    /// order statistic. Returns 0 when empty.
    pub fn value_at_quantile(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
        let mut seen = 0u64;
        for (idx, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                // The final bucket also holds clamped out-of-range values,
                // so its edge may understate: report the exact max there.
                if idx == NUM_BUCKETS - 1 {
                    return self.max();
                }
                return bucket_high(idx).min(self.max());
            }
        }
        // Counts raced slightly under concurrent recording; fall back to max.
        self.max()
    }

    /// Fold `other`'s samples into `self`. Lossless: buckets line up by
    /// construction, and count/sum/max combine exactly.
    pub fn merge(&self, other: &LatencyHistogram) {
        for (mine, theirs) in self.buckets.iter().zip(other.buckets.iter()) {
            let v = theirs.load(Ordering::Relaxed);
            if v != 0 {
                mine.fetch_add(v, Ordering::Relaxed);
            }
        }
        self.count.fetch_add(other.count(), Ordering::Relaxed);
        self.sum.fetch_add(other.sum(), Ordering::Relaxed);
        self.max.fetch_max(other.max(), Ordering::Relaxed);
    }

    /// Non-empty buckets as `(low, high, count)` ranges, for export.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter_map(|(idx, b)| {
                let c = b.load(Ordering::Relaxed);
                (c != 0).then(|| (bucket_low(idx), bucket_high(idx), c))
            })
            .collect()
    }

    /// An owned point-in-time copy, cheap to ship across the wire (only
    /// non-empty buckets are materialized). Quantiles computed from the
    /// snapshot match the live histogram's at the capture instant.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count(),
            sum: self.sum(),
            max: self.max(),
            buckets: self.nonzero_buckets(),
        }
    }
}

/// Owned snapshot of a [`LatencyHistogram`]: exact count/sum/max plus the
/// non-empty `(low, high, count)` buckets. This is the unit the counters
/// RPC ships so remote runs disclose the same distributions as in-process
/// runs, and what the full-disclosure JSON renders per write-pipeline
/// stage.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    pub count: u64,
    pub sum: u64,
    pub max: u64,
    /// Non-empty buckets as `(low, high, count)`, ascending by `low`.
    pub buckets: Vec<(u64, u64, u64)>,
}

impl HistogramSnapshot {
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Exact mean (0.0 when empty), mirroring [`LatencyHistogram::mean`].
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Nearest-rank quantile over the snapshotted buckets, mirroring
    /// [`LatencyHistogram::value_at_quantile`] (upper bucket edge, clamped
    /// to the exact max; 0 when empty).
    pub fn value_at_quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for &(_, high, c) in &self.buckets {
            seen += c;
            if seen >= rank {
                return high.min(self.max);
            }
        }
        self.max
    }

    /// Fold another snapshot's buckets into this one (lossless, like
    /// [`LatencyHistogram::merge`]): used to merge per-stripe wait
    /// distributions into one store-wide view.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
        for &(low, high, c) in &other.buckets {
            match self.buckets.binary_search_by_key(&low, |b| b.0) {
                Ok(i) => self.buckets[i].2 += c,
                Err(i) => self.buckets.insert(i, (low, high, c)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn bucket_boundaries_are_contiguous() {
        // Every value maps to exactly one bucket whose [low, high] range
        // contains it, and ranges tile the domain without gaps.
        for idx in 0..NUM_BUCKETS - 1 {
            assert_eq!(bucket_high(idx) + 1, bucket_low(idx + 1), "gap after bucket {idx}");
            assert_eq!(bucket_index(bucket_low(idx)), idx);
            assert_eq!(bucket_index(bucket_high(idx)), idx);
        }
        assert_eq!(bucket_index(u64::MAX), NUM_BUCKETS - 1);
    }

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = LatencyHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.count(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.value_at_quantile(0.5), 0);
        assert_eq!(h.value_at_quantile(0.99), 0);
        assert!(h.nonzero_buckets().is_empty());
    }

    #[test]
    fn single_sample_is_exact_at_every_quantile() {
        let h = LatencyHistogram::new();
        h.record(12345);
        assert_eq!(h.count(), 1);
        assert_eq!(h.max(), 12345);
        assert_eq!(h.mean(), 12345.0);
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(h.value_at_quantile(q), 12345, "q={q}");
        }
    }

    /// Deterministic pseudo-random sample source (SplitMix64).
    fn samples(seed: u64, n: usize, spread: u32) -> Vec<u64> {
        let mut state = seed;
        (0..n)
            .map(|_| {
                state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                z ^= z >> 31;
                // Skew toward a latency-like long-tail shape, inside the
                // tracked range (the ≥2^40 clamp region is tested separately).
                (z >> (z % spread as u64)) & ((1 << 40) - 1)
            })
            .collect()
    }

    #[test]
    fn quantiles_track_exact_nearest_rank_within_bucket_error() {
        for (seed, spread) in [(1u64, 60u32), (7, 48), (42, 30)] {
            let vals = samples(seed, 5000, spread);
            let h = LatencyHistogram::new();
            for &v in &vals {
                h.record(v);
            }
            let mut sorted = vals.clone();
            sorted.sort_unstable();
            for q in [0.01, 0.10, 0.50, 0.90, 0.95, 0.99, 0.999, 1.0] {
                let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
                let exact = sorted[rank - 1];
                let approx = h.value_at_quantile(q);
                // Upper bucket edge: never below the exact order statistic
                // by more than one bucket, never above it by more than the
                // 1/16 bucket width.
                assert!(approx >= exact, "seed={seed} q={q}: approx {approx} < exact {exact}");
                let max_err = exact / 16 + 1;
                assert!(
                    approx - exact <= max_err,
                    "seed={seed} q={q}: approx {approx} exceeds exact {exact} by more than {max_err}"
                );
            }
        }
    }

    #[test]
    fn values_beyond_range_clamp_into_last_bucket() {
        let h = LatencyHistogram::new();
        h.record(u64::MAX);
        h.record(1u64 << 45);
        assert_eq!(h.count(), 2);
        assert_eq!(h.max(), u64::MAX);
        // Quantiles saturate at the exact max rather than the bucket edge.
        assert_eq!(h.value_at_quantile(1.0), u64::MAX);
        assert_eq!(h.nonzero_buckets().len(), 1);
    }

    #[test]
    fn merge_is_associative_and_lossless() {
        let make = |seed: u64| {
            let h = LatencyHistogram::new();
            for v in samples(seed, 700, 40) {
                h.record(v);
            }
            h
        };
        let (a, b, c) = (make(10), make(20), make(30));

        // (a ⊕ b) ⊕ c
        let left = LatencyHistogram::new();
        left.merge(&a);
        left.merge(&b);
        left.merge(&c);
        // a ⊕ (b ⊕ c)
        let bc = LatencyHistogram::new();
        bc.merge(&b);
        bc.merge(&c);
        let right = LatencyHistogram::new();
        right.merge(&a);
        right.merge(&bc);

        assert_eq!(left.count(), right.count());
        assert_eq!(left.sum(), right.sum());
        assert_eq!(left.max(), right.max());
        assert_eq!(left.nonzero_buckets(), right.nonzero_buckets());
        assert_eq!(left.count(), a.count() + b.count() + c.count());
        for q in [0.5, 0.95, 0.99] {
            assert_eq!(left.value_at_quantile(q), right.value_at_quantile(q));
        }
    }

    #[test]
    fn empty_snapshot_reports_zeros_like_the_live_histogram() {
        let snap = LatencyHistogram::new().snapshot();
        assert!(snap.is_empty());
        assert_eq!(snap.count, 0);
        assert_eq!(snap.max, 0);
        assert_eq!(snap.mean(), 0.0);
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(snap.value_at_quantile(q), 0, "q={q}");
        }
        assert!(snap.buckets.is_empty());
    }

    #[test]
    fn single_sample_snapshot_is_exact_at_every_quantile() {
        let h = LatencyHistogram::new();
        h.record(777);
        let snap = h.snapshot();
        assert_eq!(snap.count, 1);
        assert_eq!(snap.mean(), 777.0);
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(snap.value_at_quantile(q), 777, "q={q}");
        }
    }

    #[test]
    fn snapshot_quantiles_match_live_histogram_and_merge_is_lossless() {
        let (a, b) = (LatencyHistogram::new(), LatencyHistogram::new());
        for v in samples(3, 4000, 44) {
            a.record(v);
        }
        for v in samples(9, 4000, 52) {
            b.record(v);
        }
        for h in [&a, &b] {
            let snap = h.snapshot();
            assert_eq!(snap.count, h.count());
            assert_eq!(snap.mean(), h.mean());
            for q in [0.01, 0.5, 0.9, 0.95, 0.99, 1.0] {
                assert_eq!(snap.value_at_quantile(q), h.value_at_quantile(q), "q={q}");
            }
        }
        // Snapshot-side merge agrees with live merge.
        let live = LatencyHistogram::new();
        live.merge(&a);
        live.merge(&b);
        let mut snap = a.snapshot();
        snap.merge(&b.snapshot());
        assert_eq!(snap.count, live.count());
        assert_eq!(snap.sum, live.sum());
        assert_eq!(snap.max, live.max());
        assert_eq!(snap.buckets, live.nonzero_buckets());
        for q in [0.5, 0.95, 0.99] {
            assert_eq!(snap.value_at_quantile(q), live.value_at_quantile(q), "q={q}");
        }
    }

    #[test]
    fn single_writer_recording_matches_shared_recording() {
        let (shared, single) = (LatencyHistogram::new(), LatencyHistogram::new());
        for v in samples(5, 3000, 50).into_iter().chain([0, u64::MAX]) {
            shared.record(v);
            single.record_single_writer(v);
        }
        assert_eq!(single.snapshot(), shared.snapshot());
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        const THREADS: usize = 8;
        const PER_THREAD: u64 = 20_000;
        let h = Arc::new(LatencyHistogram::new());
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let h = Arc::clone(&h);
                scope.spawn(move || {
                    for i in 0..PER_THREAD {
                        // Distinct per-thread values exercise different buckets.
                        h.record(t as u64 * 1000 + i % 977);
                    }
                });
            }
        });
        assert_eq!(h.count(), THREADS as u64 * PER_THREAD);
        let bucket_total: u64 = h.nonzero_buckets().iter().map(|&(_, _, c)| c).sum();
        assert_eq!(bucket_total, h.count());
        let expected_sum: u64 = (0..THREADS as u64)
            .map(|t| (0..PER_THREAD).map(|i| t * 1000 + i % 977).sum::<u64>())
            .sum();
        assert_eq!(h.sum(), expected_sum);
        assert_eq!(h.max(), 7000 + 976);
    }
}
