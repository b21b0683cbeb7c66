//! Wall-clock epoch windows over latency histograms.

use crate::hist::LatencyHistogram;

/// A fixed array of [`LatencyHistogram`]s indexed by elapsed wall-clock
/// time, so latency trends are judged in *time order* regardless of which
/// thread's samples were merged first.
///
/// All slots are pre-allocated at construction: recording stays wait-free
/// and allocation-free. Samples past the last epoch clamp into it (a run
/// outliving `epochs × epoch_micros` skews the tail epoch rather than
/// dropping data).
pub struct EpochSeries {
    epoch_micros: u64,
    slots: Box<[LatencyHistogram]>,
}

impl std::fmt::Debug for EpochSeries {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EpochSeries")
            .field("epoch_micros", &self.epoch_micros)
            .field("epochs", &self.slots.len())
            .field("non_empty", &self.non_empty().len())
            .finish()
    }
}

impl EpochSeries {
    /// `epochs` pre-allocated windows of `epoch_micros` each.
    pub fn new(epoch_micros: u64, epochs: usize) -> Self {
        assert!(epoch_micros > 0, "epoch length must be positive");
        assert!(epochs > 0, "need at least one epoch");
        EpochSeries { epoch_micros, slots: (0..epochs).map(|_| LatencyHistogram::new()).collect() }
    }

    pub fn epoch_micros(&self) -> u64 {
        self.epoch_micros
    }

    /// Record a sample taken `elapsed_micros` after the run started.
    #[inline]
    pub fn record(&self, elapsed_micros: u64, value: u64) {
        let idx = ((elapsed_micros / self.epoch_micros) as usize).min(self.slots.len() - 1);
        self.slots[idx].record(value);
    }

    pub fn epoch(&self, idx: usize) -> &LatencyHistogram {
        &self.slots[idx]
    }

    /// `(epoch index, histogram)` for every epoch with samples, in time order.
    pub fn non_empty(&self) -> Vec<(usize, &LatencyHistogram)> {
        self.slots.iter().enumerate().filter(|(_, h)| !h.is_empty()).collect()
    }

    /// Total samples across all epochs.
    pub fn count(&self) -> u64 {
        self.slots.iter().map(|h| h.count()).sum()
    }

    /// Fold another series recorded against the same clock into this one.
    /// Both must share the same epoch length and count.
    pub fn merge(&self, other: &EpochSeries) {
        assert_eq!(self.epoch_micros, other.epoch_micros, "epoch length mismatch");
        assert_eq!(self.slots.len(), other.slots.len(), "epoch count mismatch");
        for (mine, theirs) in self.slots.iter().zip(other.slots.iter()) {
            mine.merge(theirs);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_land_in_time_ordered_epochs() {
        let s = EpochSeries::new(1_000, 4);
        s.record(0, 10);
        s.record(999, 11);
        s.record(1_000, 20);
        s.record(3_500, 30);
        s.record(99_999, 40); // clamps into the last epoch
        assert_eq!(s.epoch(0).count(), 2);
        assert_eq!(s.epoch(1).count(), 1);
        assert_eq!(s.epoch(2).count(), 0);
        assert_eq!(s.epoch(3).count(), 2);
        assert_eq!(s.count(), 5);
        let idx: Vec<usize> = s.non_empty().iter().map(|&(i, _)| i).collect();
        assert_eq!(idx, vec![0, 1, 3]);
    }

    #[test]
    fn merge_combines_matching_epochs() {
        let a = EpochSeries::new(500, 3);
        let b = EpochSeries::new(500, 3);
        a.record(0, 5);
        b.record(100, 7);
        b.record(1_200, 9);
        a.merge(&b);
        assert_eq!(a.epoch(0).count(), 2);
        assert_eq!(a.epoch(2).count(), 1);
        assert_eq!(a.epoch(0).max(), 7);
    }

    #[test]
    fn merge_order_does_not_change_any_epoch_distribution() {
        // Three workers' series merged in different orders must yield the
        // same per-epoch distributions — steady-state verdicts depend on
        // time order, never merge order.
        let make = |offset: u64| {
            let s = EpochSeries::new(1_000, 4);
            for i in 0..40u64 {
                s.record((i * 97) % 4_000, offset + i * 13);
            }
            s
        };
        let (a, b, c) = (make(10), make(500), make(9_000));

        let forward = EpochSeries::new(1_000, 4);
        forward.merge(&a);
        forward.merge(&b);
        forward.merge(&c);
        let reverse = EpochSeries::new(1_000, 4);
        reverse.merge(&c);
        reverse.merge(&b);
        reverse.merge(&a);

        assert_eq!(forward.count(), reverse.count());
        for idx in 0..4 {
            let (f, r) = (forward.epoch(idx), reverse.epoch(idx));
            assert_eq!(f.count(), r.count(), "epoch {idx} count");
            assert_eq!(f.sum(), r.sum(), "epoch {idx} sum");
            assert_eq!(f.max(), r.max(), "epoch {idx} max");
            assert_eq!(f.nonzero_buckets(), r.nonzero_buckets(), "epoch {idx} buckets");
            for q in [0.5, 0.95, 0.99] {
                assert_eq!(f.value_at_quantile(q), r.value_at_quantile(q), "epoch {idx} q={q}");
            }
        }
        let idx_f: Vec<usize> = forward.non_empty().iter().map(|&(i, _)| i).collect();
        let idx_r: Vec<usize> = reverse.non_empty().iter().map(|&(i, _)| i).collect();
        assert_eq!(idx_f, idx_r, "non-empty epochs stay in time order");
    }

    #[test]
    #[should_panic(expected = "epoch length mismatch")]
    fn merge_rejects_mismatched_epoch_length() {
        let a = EpochSeries::new(500, 3);
        let b = EpochSeries::new(600, 3);
        a.merge(&b);
    }
}
