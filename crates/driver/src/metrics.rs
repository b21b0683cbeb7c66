//! Latency and throughput metrics.
//!
//! The benchmark metric is the sustained acceleration factor (simulation
//! time / real time). Whether the run sustained it is judged by the
//! scheduler (the spec's on-time rule, see [`crate::scheduler`]); this
//! module records what each operation cost. [`Metrics`] is one fixed table
//! with a [`KindRecorder`] per operation kind, indexed by
//! [`OpKind::index`]: a lock-free [`LatencyHistogram`] of nanoseconds
//! (bounded relative error, exact count, sum and max, no per-sample
//! allocation) and a shared [`QueryProfile`], so operator counters (rows
//! scanned, index probes, neighbors expanded, version walks) aggregate per
//! query kind.

use crate::connector::OpKind;
use snb_obs::{LatencyHistogram, ProfileSnapshot, QueryProfile};
use std::sync::Arc;
use std::time::Duration;

/// Aggregated statistics for one operation kind.
#[derive(Debug, Clone, PartialEq)]
pub struct KindStats {
    /// Number of executions.
    pub count: usize,
    /// Mean latency (exact to the nanosecond: from the histogram's sum).
    pub mean: Duration,
    /// Median latency (histogram estimate, relative error ≤ 1/16).
    pub p50: Duration,
    /// 95th percentile (histogram estimate).
    pub p95: Duration,
    /// 99th percentile (histogram estimate).
    pub p99: Duration,
    /// Maximum (exact).
    pub max: Duration,
    /// Total time spent in this kind (exact).
    pub total: Duration,
}

/// Per-kind recorder: latency histogram + operator profile. Recording is
/// lock-free. Aligned to two cache lines so that partitions recording
/// different kinds do not contend on the histograms' inline count, sum and
/// max, which sit next to each other in the [`Metrics`] table.
#[derive(Debug, Default)]
#[repr(align(128))]
pub struct KindRecorder {
    hist: LatencyHistogram,
    profile: Arc<QueryProfile>,
}

impl KindRecorder {
    /// Record one execution's latency in nanoseconds.
    #[inline]
    pub fn record(&self, latency_nanos: u64) {
        self.hist.record(latency_nanos);
    }

    /// The operator profile shared by every execution of this kind; install
    /// it with [`QueryProfile::enter`] around the query call.
    pub fn profile(&self) -> &Arc<QueryProfile> {
        &self.profile
    }

    /// The latency histogram, in nanoseconds.
    pub fn histogram(&self) -> &LatencyHistogram {
        &self.hist
    }
}

/// Thread-safe latency recorder: one [`KindRecorder`] per [`OpKind`],
/// allocated up front, so recording is an index into the table and one
/// histogram record.
#[derive(Debug)]
pub struct Metrics {
    kinds: [KindRecorder; OpKind::COUNT],
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics::new()
    }
}

impl Metrics {
    /// Fresh recorder with every kind empty.
    pub fn new() -> Metrics {
        Metrics { kinds: std::array::from_fn(|_| KindRecorder::default()) }
    }

    /// The recorder for a kind.
    pub fn recorder(&self, kind: OpKind) -> &KindRecorder {
        &self.kinds[kind.index()]
    }

    /// Record one execution.
    pub fn record(&self, kind: OpKind, latency: Duration) {
        self.recorder(kind).record(latency.as_nanos() as u64);
    }

    /// Total recorded operations.
    pub fn total_ops(&self) -> usize {
        self.kinds.iter().map(|r| r.hist.count() as usize).sum()
    }

    /// Statistics for one kind, if any samples exist.
    pub fn stats(&self, kind: OpKind) -> Option<KindStats> {
        let hist = &self.recorder(kind).hist;
        let count = hist.count();
        if count == 0 {
            return None;
        }
        let q = |p: f64| Duration::from_nanos(hist.value_at_quantile(p));
        let total = hist.sum();
        Some(KindStats {
            count: count as usize,
            mean: Duration::from_nanos(total / count),
            p50: q(0.50),
            p95: q(0.95),
            p99: q(0.99),
            max: Duration::from_nanos(hist.max()),
            total: Duration::from_nanos(total),
        })
    }

    /// Aggregated operator counters for one kind, if it has samples.
    pub fn profile(&self, kind: OpKind) -> Option<ProfileSnapshot> {
        let rec = self.recorder(kind);
        (!rec.hist.is_empty()).then(|| rec.profile.snapshot())
    }

    /// All kinds with samples, in [`OpKind::index`] order.
    pub fn kinds(&self) -> Vec<OpKind> {
        (0..OpKind::COUNT)
            .filter(|&i| !self.kinds[i].hist.is_empty())
            .map(OpKind::from_index)
            .collect()
    }
}

/// Nearest-rank percentile over **already sorted** samples — no clone, no
/// re-sort. Callers sort once and query many percentiles; sortedness is
/// checked in debug builds.
pub fn percentile_sorted(sorted: &[u64], p: f64) -> u64 {
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "input must be sorted");
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_compute_percentiles_within_histogram_error() {
        let m = Metrics::new();
        for i in 1..=100u64 {
            m.record(OpKind::Complex(2), Duration::from_micros(i));
        }
        let s = m.stats(OpKind::Complex(2)).unwrap();
        assert_eq!(s.count, 100);
        // Mean, max and total are exact to the nanosecond (the mean of
        // 1..=100 µs is 50.5 µs); percentiles carry the histogram's bounded
        // relative error (≤ 1/16 of the value).
        assert_eq!(s.mean, Duration::from_nanos(50_500));
        assert_eq!(s.max, Duration::from_micros(100));
        assert_eq!(s.total, Duration::from_micros(5050));
        let close = |got: Duration, exact: u64| {
            let got = got.as_micros() as u64;
            assert!(
                got >= exact && got <= exact + exact / 16 + 1,
                "estimate {got} vs exact {exact}"
            );
        };
        close(s.p50, 50);
        close(s.p95, 95);
        close(s.p99, 99);
    }

    #[test]
    fn missing_kind_has_no_stats() {
        let m = Metrics::new();
        assert!(m.stats(OpKind::Short(1)).is_none());
    }

    #[test]
    fn sub_microsecond_latencies_are_not_truncated() {
        let m = Metrics::new();
        for nanos in [300u64, 400, 500] {
            m.record(OpKind::Short(1), Duration::from_nanos(nanos));
        }
        let s = m.stats(OpKind::Short(1)).unwrap();
        assert_eq!(s.mean, Duration::from_nanos(400));
        assert_eq!(s.total, Duration::from_nanos(1_200));
        assert!(s.p50 >= Duration::from_nanos(400) && s.p50 <= Duration::from_nanos(425));
        assert_eq!(s.max, Duration::from_nanos(500));
    }

    #[test]
    fn percentile_sorted_is_nearest_rank() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_sorted(&sorted, 0.50), 50);
        assert_eq!(percentile_sorted(&sorted, 0.99), 99);
        assert_eq!(percentile_sorted(&sorted, 1.0), 100);
        assert_eq!(percentile_sorted(&sorted, 0.0), 1);
        assert_eq!(percentile_sorted(&[], 0.5), 0);
    }

    #[test]
    #[should_panic(expected = "sorted")]
    #[cfg(debug_assertions)]
    fn percentile_sorted_rejects_unsorted_input_in_debug() {
        percentile_sorted(&[3, 1, 2], 0.5);
    }

    #[test]
    fn kinds_report_in_stable_order() {
        let m = Metrics::new();
        m.record(OpKind::Update(1), Duration::from_micros(1));
        m.record(OpKind::Short(3), Duration::from_micros(1));
        m.record(OpKind::Complex(14), Duration::from_micros(1));
        m.record(OpKind::Complex(2), Duration::from_micros(1));
        assert_eq!(
            m.kinds(),
            vec![OpKind::Complex(2), OpKind::Complex(14), OpKind::Short(3), OpKind::Update(1)]
        );
    }

    #[test]
    fn per_kind_profiles_aggregate_operator_ticks() {
        let m = Metrics::new();
        let rec = m.recorder(OpKind::Complex(5));
        rec.record(1);
        {
            let _guard = QueryProfile::enter(Arc::clone(rec.profile()));
            snb_obs::tick_rows_scanned(7);
            snb_obs::tick_index_probes(3);
        }
        let p = m.profile(OpKind::Complex(5)).unwrap();
        assert_eq!(p.rows_scanned, 7);
        assert_eq!(p.index_probes, 3);
        assert!(m.profile(OpKind::Complex(6)).is_none());
    }

    #[test]
    fn recorder_is_shared_and_cacheable() {
        let m = Metrics::new();
        let a = m.recorder(OpKind::Short(2));
        let b = m.recorder(OpKind::Short(2));
        assert!(std::ptr::eq(a, b));
        a.record(10);
        b.record(20);
        assert_eq!(m.stats(OpKind::Short(2)).unwrap().count, 2);
        assert_eq!(m.total_ops(), 2);
    }
}
