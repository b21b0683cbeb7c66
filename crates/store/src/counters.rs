//! Store-level runtime counters.
//!
//! One [`StoreCounters`] instance lives in each [`crate::Store`]; hot paths
//! hold pre-registered [`Counter`] handles so recording is a single relaxed
//! atomic add. Names follow the workspace `layer.subsystem.metric`
//! convention so they land sorted and greppable in the full-disclosure
//! export.

use crate::stats::StorageStats;
use crate::wal::WalMetrics;
use snb_obs::{Counter, Counters, Gauge, HistogramSnapshot, LatencyHistogram};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Stripes in the writer lock map (shared with `store.rs`; also the length
/// of the per-stripe telemetry arrays below).
pub const STRIPES: usize = 64;

/// Latency histograms for each named stage of the write pipeline, in
/// **nanoseconds** — most stages are sub-microsecond, and nanosecond
/// samples keep the histogram sums exact. Stages tile `Store::apply` end-to-end (stage sums ≈
/// measured op latency), so the full-disclosure table can attribute
/// multi-writer collapse to a specific stage instead of an aggregate
/// "writes got slower".
#[derive(Debug, Default)]
pub struct StageHistograms {
    /// Time blocked acquiring the op's stripe locks
    /// (`store.stage.stripe_wait_nanos`).
    pub stripe_wait: LatencyHistogram,
    /// Pre-image validation under the stripe locks
    /// (`store.stage.validate_nanos`).
    pub validate: LatencyHistogram,
    /// WAL record append, excluding fsync (`store.stage.wal_append_nanos`).
    pub wal_append: LatencyHistogram,
    /// CommitClock timestamp reservation (`store.stage.reserve_nanos`).
    pub reserve: LatencyHistogram,
    /// Row/index insertion at the reserved timestamp
    /// (`store.stage.apply_nanos`).
    pub apply: LatencyHistogram,
    /// Out-of-order publication on the CommitClock: marking the commit in
    /// the publication ring, helping the watermark advance, and (rarely)
    /// parking for ring-wraparound room
    /// (`store.stage.publish_wait_nanos`).
    pub publish_wait: LatencyHistogram,
    /// Group-commit durability wait after publish, outside the stripe
    /// locks (`store.stage.durable_wait_nanos`).
    pub durable_wait: LatencyHistogram,
    /// Stripe-held time of transactions *rejected* by validation
    /// (`store.stage.validate_failed_nanos`). Deliberately outside
    /// [`StageHistograms::named`]'s committed-path tiling: failed ops burn
    /// `stripe_wait` plus this, and splitting the sample keeps conflict
    /// pressure visible without skewing the commit attribution.
    pub validate_failed: LatencyHistogram,
}

impl StageHistograms {
    /// `(name, histogram)` for each stage, in pipeline order.
    pub fn named(&self) -> [(&'static str, &LatencyHistogram); 7] {
        [
            ("store.stage.stripe_wait_nanos", &self.stripe_wait),
            ("store.stage.validate_nanos", &self.validate),
            ("store.stage.wal_append_nanos", &self.wal_append),
            ("store.stage.reserve_nanos", &self.reserve),
            ("store.stage.apply_nanos", &self.apply),
            ("store.stage.publish_wait_nanos", &self.publish_wait),
            ("store.stage.durable_wait_nanos", &self.durable_wait),
        ]
    }
}

/// Per-stripe contention telemetry: how often each of the [`STRIPES`]
/// writer locks was found contended, and how long contended acquisitions
/// waited. Indexed by stripe, so hot stripes show up as a heatmap rather
/// than vanishing into a global total.
#[derive(Debug)]
pub struct StripeTelemetry {
    conflicts: Box<[AtomicU64]>,
    wait: Box<[LatencyHistogram]>,
}

impl Default for StripeTelemetry {
    fn default() -> Self {
        StripeTelemetry {
            conflicts: (0..STRIPES).map(|_| AtomicU64::new(0)).collect(),
            wait: (0..STRIPES).map(|_| LatencyHistogram::new()).collect(),
        }
    }
}

impl StripeTelemetry {
    /// Record a contended acquisition of `stripe` that blocked for
    /// `wait_nanos` before getting the lock.
    #[inline]
    pub fn note_conflict(&self, stripe: usize, wait_nanos: u64) {
        self.conflicts[stripe].fetch_add(1, Ordering::Relaxed);
        self.wait[stripe].record(wait_nanos);
    }

    /// Conflict count per stripe index (the heatmap).
    pub fn conflict_counts(&self) -> Vec<u64> {
        self.conflicts.iter().map(|c| c.load(Ordering::Relaxed)).collect()
    }

    /// All stripes' waits folded into one store-wide distribution.
    pub fn merged_wait(&self) -> HistogramSnapshot {
        let mut merged = HistogramSnapshot::default();
        for h in self.wait.iter() {
            merged.merge(&h.snapshot());
        }
        merged
    }
}

/// Index-table order shared by [`MemGauges::run_bytes`] and the store's
/// per-index footprint walk — the two sides `debug_assert` against each
/// other at refresh time so names can't drift.
pub const MEM_INDEX_NAMES: [&str; 9] = [
    "knows",
    "person_messages",
    "person_posts",
    "forum_posts",
    "forum_members",
    "person_forums",
    "message_replies",
    "message_likes",
    "person_likes",
];

/// The `store.mem.*` gauge family: real measured memory, refreshed on
/// demand (a full walk of the tables is too expensive per write, so
/// [`crate::Store::refresh_mem_gauges`] runs right before counters are
/// snapshot — the numbers in any report are current as of that report).
/// Registered in the same registry as the counters, so they ride every
/// existing export path: `snapshot()`, the counters RPC, and `--json`
/// full disclosure.
#[derive(Debug)]
pub struct MemGauges {
    /// Compact run bytes per index table (`store.mem.run_bytes.<index>`,
    /// ordered as [`MEM_INDEX_NAMES`]): bulk prefix + ladder runs, anchors
    /// + delta streams.
    pub run_bytes: [Gauge; 9],
    /// Raw (uncompressed) tail slot bytes across all indexes
    /// (`store.mem.tail_bytes`).
    pub tail_bytes: Gauge,
    /// Entity-row heap bytes: persons + forums + messages including string
    /// content (`store.mem.entity_bytes`).
    pub entity_bytes: Gauge,
    /// Global dictionary heap bytes (`store.mem.dict_bytes`) — shared
    /// process-wide, reported once.
    pub dict_bytes: Gauge,
    /// Total index bytes, runs + tails (`store.mem.index_bytes`).
    pub index_bytes: Gauge,
    /// Resident bytes per visible person (`store.mem.bytes_per_person`).
    pub bytes_per_person: Gauge,
    /// Resident bytes per visible message
    /// (`store.mem.bytes_per_message`).
    pub bytes_per_message: Gauge,
}

impl MemGauges {
    fn new(registry: &Counters) -> MemGauges {
        const RUN_NAMES: [&str; 9] = [
            "store.mem.run_bytes.knows",
            "store.mem.run_bytes.person_messages",
            "store.mem.run_bytes.person_posts",
            "store.mem.run_bytes.forum_posts",
            "store.mem.run_bytes.forum_members",
            "store.mem.run_bytes.person_forums",
            "store.mem.run_bytes.message_replies",
            "store.mem.run_bytes.message_likes",
            "store.mem.run_bytes.person_likes",
        ];
        MemGauges {
            run_bytes: std::array::from_fn(|i| registry.gauge(RUN_NAMES[i])),
            tail_bytes: registry.gauge("store.mem.tail_bytes"),
            entity_bytes: registry.gauge("store.mem.entity_bytes"),
            dict_bytes: registry.gauge("store.mem.dict_bytes"),
            index_bytes: registry.gauge("store.mem.index_bytes"),
            bytes_per_person: registry.gauge("store.mem.bytes_per_person"),
            bytes_per_message: registry.gauge("store.mem.bytes_per_message"),
        }
    }

    /// Overwrite every gauge from a fresh [`StorageStats`] walk.
    pub(crate) fn refresh(&self, stats: &StorageStats, dict_bytes: usize) {
        for (i, (name, f)) in stats.per_index.iter().enumerate() {
            debug_assert_eq!(*name, MEM_INDEX_NAMES[i], "gauge/footprint order drift");
            self.run_bytes[i].set(f.run_bytes as u64);
        }
        self.tail_bytes.set(stats.index.tail_bytes as u64);
        self.entity_bytes.set(stats.entity_bytes as u64);
        self.dict_bytes.set(dict_bytes as u64);
        self.index_bytes.set(stats.index.bytes() as u64);
        self.bytes_per_person.set(stats.bytes_per_person() as u64);
        self.bytes_per_message.set(stats.bytes_per_message() as u64);
    }
}

/// Counter handles for every store subsystem.
#[derive(Debug)]
pub struct StoreCounters {
    registry: Counters,
    /// Snapshots opened (`store.mvcc.snapshots`).
    pub snapshots: Counter,
    /// Version-stamped entries examined by snapshot reads
    /// (`store.mvcc.versions_walked`) — the MVCC walk length.
    pub versions_walked: Counter,
    /// Entries skipped because they were invisible to the reading snapshot
    /// (`store.mvcc.versions_skipped`).
    pub versions_skipped: Counter,
    /// Committed transactions (`store.txn.commits`).
    pub commits: Counter,
    /// Transactions rejected by validation (`store.txn.conflicts`).
    pub conflicts: Counter,
    /// Index entries served from the bulk-prefix fast lane — no `visible()`
    /// check needed (`store.read.fastlane_entries`). Renamed from the
    /// pre-PR-5 `store.read.fastpath_entries` to match the "fast lane"
    /// terminology used everywhere else.
    pub read_fastlane_entries: Counter,
    /// Latch-free read snapshots opened (`store.read.latchfree_reads`):
    /// pinned snapshots that never touch a lock — readers see the store
    /// through release/acquire tail publication alone. Replaces the
    /// pre-latch-free `store.read.guard_pins`.
    pub read_latchfree: Counter,
    /// Writer stripe-lock acquisitions that found the stripe contended and
    /// had to block (`store.write.shard_conflicts`) — the residual
    /// serialization between shard-colliding transactions.
    pub write_shard_conflicts: Counter,
    /// Park rounds publishers spent waiting for publication-ring room
    /// (`store.write.publish_parks`): nonzero only when a commit ran more
    /// than the ring capacity ahead of the visibility watermark — a
    /// straggler-pathology signal, not a steady-state cost.
    pub publish_parks: Counter,
    /// Watermark lag observed at publish (`store.write.watermark_lag`):
    /// how many earlier reservations were still unpublished when each
    /// commit published, i.e. how far out of order commits complete.
    /// Samples are timestamp counts, not nanoseconds.
    pub watermark_lag: LatencyHistogram,
    /// WAL records appended (`store.wal.appends`).
    pub wal_appends: Counter,
    /// WAL bytes written including record headers (`store.wal.bytes`).
    pub wal_bytes: Counter,
    /// `fdatasync` calls issued by the WAL (`store.wal.fsyncs`).
    pub wal_fsyncs: Counter,
    /// Records made durable summed over all fsyncs (`store.wal.group_size`);
    /// mean commit-group size = `group_size / fsyncs`.
    pub wal_group_size: Counter,
    /// WAL flush/sync failures, including those surfaced from `Drop`
    /// (`store.wal.sync_errors`).
    pub wal_sync_errors: Counter,
    /// Bytes cut off the WAL tail during crash recovery
    /// (`store.wal.recovery_truncated_bytes`).
    pub wal_recovery_truncated_bytes: Counter,
    /// WAL fsync latency distribution, in microseconds.
    pub wal_fsync_micros: Arc<LatencyHistogram>,
    /// Write-pipeline stage latency breakdown (see [`StageHistograms`]).
    pub stages: StageHistograms,
    /// Per-stripe conflict heatmap + acquire-wait distributions.
    pub stripes: StripeTelemetry,
    /// Measured memory gauges (see [`MemGauges`]).
    pub mem: MemGauges,
}

impl Default for StoreCounters {
    fn default() -> Self {
        Self::new()
    }
}

impl StoreCounters {
    pub fn new() -> StoreCounters {
        let registry = Counters::new();
        StoreCounters {
            snapshots: registry.counter("store.mvcc.snapshots"),
            versions_walked: registry.counter("store.mvcc.versions_walked"),
            versions_skipped: registry.counter("store.mvcc.versions_skipped"),
            commits: registry.counter("store.txn.commits"),
            conflicts: registry.counter("store.txn.conflicts"),
            read_fastlane_entries: registry.counter("store.read.fastlane_entries"),
            read_latchfree: registry.counter("store.read.latchfree_reads"),
            write_shard_conflicts: registry.counter("store.write.shard_conflicts"),
            publish_parks: registry.counter("store.write.publish_parks"),
            watermark_lag: LatencyHistogram::new(),
            wal_appends: registry.counter("store.wal.appends"),
            wal_bytes: registry.counter("store.wal.bytes"),
            wal_fsyncs: registry.counter("store.wal.fsyncs"),
            wal_group_size: registry.counter("store.wal.group_size"),
            wal_sync_errors: registry.counter("store.wal.sync_errors"),
            wal_recovery_truncated_bytes: registry.counter("store.wal.recovery_truncated_bytes"),
            wal_fsync_micros: Arc::new(LatencyHistogram::new()),
            stages: StageHistograms::default(),
            stripes: StripeTelemetry::default(),
            mem: MemGauges::new(&registry),
            registry,
        }
    }

    /// Every store-side latency distribution by name: the seven write
    /// stages, the failed-validation split, the watermark-lag distribution
    /// (timestamp counts, not time), the WAL fsync distribution, and the
    /// merged per-stripe acquire-wait. This is what the full-disclosure
    /// export and the counters RPC ship.
    pub fn histogram_snapshots(&self) -> Vec<(String, HistogramSnapshot)> {
        let mut out: Vec<(String, HistogramSnapshot)> =
            self.stages.named().iter().map(|(name, h)| (name.to_string(), h.snapshot())).collect();
        out.push((
            "store.stage.validate_failed_nanos".to_string(),
            self.stages.validate_failed.snapshot(),
        ));
        out.push(("store.write.watermark_lag".to_string(), self.watermark_lag.snapshot()));
        out.push(("store.wal.fsync_micros".to_string(), self.wal_fsync_micros.snapshot()));
        out.push(("store.stripe.wait_nanos".to_string(), self.stripes.merged_wait()));
        out
    }

    /// Handles for the WAL to record into (shared with this registry, so
    /// WAL activity shows up in [`StoreCounters::snapshot`]).
    pub fn wal_metrics(&self) -> WalMetrics {
        WalMetrics {
            fsyncs: self.wal_fsyncs.clone(),
            group_size: self.wal_group_size.clone(),
            sync_errors: self.wal_sync_errors.clone(),
            recovery_truncated_bytes: self.wal_recovery_truncated_bytes.clone(),
            fsync_micros: Arc::clone(&self.wal_fsync_micros),
        }
    }

    /// Current values in sorted name order.
    pub fn snapshot(&self) -> Vec<(&'static str, u64)> {
        self.registry.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reports_all_counters_sorted() {
        let c = StoreCounters::new();
        c.snapshots.inc();
        c.wal_bytes.add(100);
        let snap = c.snapshot();
        let names: Vec<&str> = snap.iter().map(|&(n, _)| n).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted);
        assert_eq!(names.len(), 30);
        assert!(snap.contains(&("store.mvcc.snapshots", 1)));
        // The store.mem.* gauge family registers eagerly so remote and
        // local disclosures agree on the name set even before a refresh.
        for idx in MEM_INDEX_NAMES {
            assert!(names.iter().any(|n| n.strip_prefix("store.mem.run_bytes.") == Some(idx)));
        }
        assert!(names.contains(&"store.mem.tail_bytes"));
        assert!(names.contains(&"store.mem.dict_bytes"));
        assert!(names.contains(&"store.mem.index_bytes"));
        assert!(names.contains(&"store.mem.entity_bytes"));
        assert!(names.contains(&"store.mem.bytes_per_person"));
        assert!(names.contains(&"store.mem.bytes_per_message"));
        assert!(names.contains(&"store.read.fastlane_entries"));
        assert!(!names.contains(&"store.read.fastpath_entries"), "pre-PR-5 name must be gone");
        assert!(names.contains(&"store.read.latchfree_reads"));
        assert!(names.contains(&"store.write.shard_conflicts"));
        assert!(names.contains(&"store.write.publish_parks"));
        assert!(snap.contains(&("store.wal.bytes", 100)));
    }

    #[test]
    fn histogram_snapshots_cover_stages_wal_and_stripes() {
        let c = StoreCounters::new();
        c.stages.publish_wait.record(120);
        c.stages.validate_failed.record(90);
        c.watermark_lag.record(3);
        c.stripes.note_conflict(3, 55);
        c.stripes.note_conflict(3, 70);
        c.stripes.note_conflict(9, 10);
        let snaps = c.histogram_snapshots();
        let names: Vec<&str> = snaps.iter().map(|(n, _)| n.as_str()).collect();
        for expect in [
            "store.stage.stripe_wait_nanos",
            "store.stage.validate_nanos",
            "store.stage.wal_append_nanos",
            "store.stage.reserve_nanos",
            "store.stage.apply_nanos",
            "store.stage.publish_wait_nanos",
            "store.stage.durable_wait_nanos",
            "store.stage.validate_failed_nanos",
            "store.write.watermark_lag",
            "store.wal.fsync_micros",
            "store.stripe.wait_nanos",
        ] {
            assert!(names.contains(&expect), "missing {expect}");
        }
        let publish = &snaps.iter().find(|(n, _)| n.ends_with("publish_wait_nanos")).unwrap().1;
        assert_eq!(publish.count, 1);
        let stripe_wait = &snaps.iter().find(|(n, _)| n.starts_with("store.stripe")).unwrap().1;
        assert_eq!(stripe_wait.count, 3, "merged wait folds every stripe");
        assert_eq!(stripe_wait.max, 70);
        let heat = c.stripes.conflict_counts();
        assert_eq!(heat.len(), STRIPES);
        assert_eq!(heat[3], 2);
        assert_eq!(heat[9], 1);
        assert_eq!(heat.iter().sum::<u64>(), 3);
    }
}
