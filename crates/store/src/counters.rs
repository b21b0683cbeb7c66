//! Store-level runtime counters.
//!
//! One [`StoreCounters`] instance lives in each [`crate::Store`]; hot paths
//! hold pre-registered [`Counter`] handles so recording is a single relaxed
//! atomic add. Commit telemetry goes further: every writer thread records
//! into its own [`WriterShard`] with plain loads and stores, and readers
//! merge the shards. Names follow the workspace `layer.subsystem.metric`
//! convention so they land sorted and greppable in the full-disclosure
//! export.

use crate::stats::StorageStats;
use crate::tables::{INDEXES, RUN_BYTES_GAUGES};
use crate::wal::WalMetrics;
use parking_lot::Mutex;
use snb_obs::{Counter, Counters, Gauge, HistogramSnapshot, LatencyHistogram};
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Latency histograms for each named stage of the write pipeline, in
/// **nanoseconds** — most stages are sub-microsecond, and nanosecond
/// samples keep the histogram sums exact. Stages tile `Store::apply` end-to-end (stage sums ≈
/// measured op latency), so the full-disclosure table can attribute
/// multi-writer collapse to a specific stage instead of an aggregate
/// "writes got slower". Each [`WriterShard`] holds one set;
/// [`StoreCounters::histogram_snapshots`] merges them.
#[derive(Debug, Default)]
pub struct StageHistograms {
    /// Time blocked on contended stripe locks; 0 when every stripe was
    /// free (`store.stage.stripe_wait_nanos`).
    pub stripe_wait: LatencyHistogram,
    /// Pre-image validation under the stripe locks, plus the uncontended
    /// lock acquisitions before it (`store.stage.validate_nanos`).
    pub validate: LatencyHistogram,
    /// WAL record append, excluding fsync; 0 without a WAL
    /// (`store.stage.wal_append_nanos`).
    pub wal_append: LatencyHistogram,
    /// CommitClock timestamp reservation (`store.stage.reserve_nanos`).
    pub reserve: LatencyHistogram,
    /// Row/index insertion at the reserved timestamp
    /// (`store.stage.apply_nanos`).
    pub apply: LatencyHistogram,
    /// Out-of-order publication on the CommitClock: marking the commit in
    /// the publication ring, helping the watermark advance, (rarely)
    /// parking for ring-wraparound room, releasing the stripe locks and —
    /// without a WAL — recording the earlier stages
    /// (`store.stage.publish_wait_nanos`).
    pub publish_wait: LatencyHistogram,
    /// Behind a WAL: recording the earlier stages, then the group-commit
    /// durability wait, outside the stripe locks; 0 without a WAL
    /// (`store.stage.durable_wait_nanos`).
    pub durable_wait: LatencyHistogram,
    /// Stripe-held time of transactions *rejected* by validation
    /// (`store.stage.validate_failed_nanos`). Deliberately outside
    /// [`StageHistograms::named`]'s committed-path tiling: failed ops burn
    /// `stripe_wait` plus this, and splitting the sample keeps conflict
    /// pressure visible without skewing the commit attribution.
    pub validate_failed: LatencyHistogram,
}

/// The committed-path stages' histogram names, in pipeline order.
const STAGE_NAMES: [&str; 7] = [
    "store.stage.stripe_wait_nanos",
    "store.stage.validate_nanos",
    "store.stage.wal_append_nanos",
    "store.stage.reserve_nanos",
    "store.stage.apply_nanos",
    "store.stage.publish_wait_nanos",
    "store.stage.durable_wait_nanos",
];

impl StageHistograms {
    /// `(name, histogram)` for each stage, in pipeline order.
    pub fn named(&self) -> [(&'static str, &LatencyHistogram); 7] {
        let hists = [
            &self.stripe_wait,
            &self.validate,
            &self.wal_append,
            &self.reserve,
            &self.apply,
            &self.publish_wait,
            &self.durable_wait,
        ];
        std::array::from_fn(|i| (STAGE_NAMES[i], hists[i]))
    }
}

/// One writer thread's commit telemetry in one store: the stage
/// histograms and the watermark-lag distribution. Only its own thread
/// writes it, with [`LatencyHistogram::record_single_writer`], so a commit
/// makes no locked read-modify-write on telemetry, and the 128-byte
/// alignment keeps its inline words off every other writer's lines. The
/// number of commits is the number of `apply` samples. When its thread
/// exits, the shard is released, samples kept, for the next thread that
/// commits to the store to claim.
#[derive(Debug, Default)]
#[repr(align(128))]
pub struct WriterShard {
    /// This writer's stage samples.
    pub stages: StageHistograms,
    /// Watermark lag observed at this writer's publishes
    /// (`store.write.watermark_lag`): how many earlier reservations were
    /// still unpublished, i.e. how far out of order commits complete.
    /// Samples are timestamp counts, not nanoseconds.
    pub watermark_lag: LatencyHistogram,
    /// A live thread writes this shard. Cleared with Release as the thread
    /// exits and set with an Acquire claim, so the next owner's plain
    /// loads see every store of the last.
    held: AtomicBool,
}

/// Source of [`StoreCounters`] ids: unique for the process's lifetime, so a
/// thread's cached shard can never be mistaken for one of a later store
/// that happens to reuse a dropped store's address.
static NEXT_STORE_ID: AtomicU64 = AtomicU64::new(1);

/// The shards a thread holds, one per store it has committed to, keyed by
/// store id, the most recently used first. Dropped as the thread exits,
/// which releases every shard.
struct HeldShards(Vec<(u64, Arc<WriterShard>)>);

impl Drop for HeldShards {
    fn drop(&mut self) {
        for (_, shard) in &self.0 {
            shard.held.store(false, Ordering::Release);
        }
    }
}

thread_local! {
    static HELD_SHARDS: RefCell<HeldShards> = const { RefCell::new(HeldShards(Vec::new())) };
}

/// Every index table's name, in the order of [`MemGauges::run_bytes`]
/// (the store's one list of index tables).
pub use crate::tables::INDEX_NAMES as MEM_INDEX_NAMES;

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
    pub run_bytes: [Gauge; INDEXES],
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
        MemGauges {
            run_bytes: RUN_BYTES_GAUGES.map(|name| registry.gauge(name)),
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
        for (gauge, (_, f)) in self.run_bytes.iter().zip(&stats.per_index) {
            gauge.set(f.run_bytes as u64);
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
    /// Latch-free read snapshots opened (`store.mvcc.snapshots`): pinned
    /// snapshots never touch a lock — readers see the store through
    /// release/acquire tail publication alone.
    pub snapshots: Counter,
    /// Version-stamped entries examined by snapshot reads
    /// (`store.mvcc.versions_walked`) — the MVCC walk length. This and the
    /// other two read counters (`versions_skipped`, `read_fastlane_entries`)
    /// are added when a snapshot drops, so they are exact once the
    /// snapshots that did the reads have dropped.
    pub versions_walked: Counter,
    /// Entries skipped because they were invisible to the reading snapshot
    /// (`store.mvcc.versions_skipped`).
    pub versions_skipped: Counter,
    /// Transactions rejected by validation (`store.txn.conflicts`).
    pub conflicts: Counter,
    /// Index entries served from the bulk-prefix fast lane — no `visible()`
    /// check needed (`store.read.fastlane_entries`). Renamed from the
    /// pre-PR-5 `store.read.fastpath_entries` to match the "fast lane"
    /// terminology used everywhere else.
    pub read_fastlane_entries: Counter,
    /// Writer stripe-lock acquisitions that found the stripe contended and
    /// had to block (`store.write.shard_conflicts`) — the residual
    /// serialization between shard-colliding transactions.
    pub write_shard_conflicts: Counter,
    /// Park rounds publishers spent waiting for publication-ring room
    /// (`store.write.publish_parks`): nonzero only when a commit ran more
    /// than the ring capacity ahead of the visibility watermark — a
    /// straggler-pathology signal, not a steady-state cost.
    pub publish_parks: Counter,
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
    /// Every [`WriterShard`] of this store: stage histograms, watermark
    /// lag and the commit count (`store.txn.commits`). A thread's first
    /// commit claims a released shard, or registers a new one if none is
    /// free, so the registry holds as many shards as writer threads were
    /// ever alive at once, not one per thread that ever committed.
    writers: Mutex<Vec<Arc<WriterShard>>>,
    /// This instance's process-unique id, the key of `HELD_SHARDS`.
    id: u64,
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
            conflicts: registry.counter("store.txn.conflicts"),
            read_fastlane_entries: registry.counter("store.read.fastlane_entries"),
            write_shard_conflicts: registry.counter("store.write.shard_conflicts"),
            publish_parks: registry.counter("store.write.publish_parks"),
            wal_appends: registry.counter("store.wal.appends"),
            wal_bytes: registry.counter("store.wal.bytes"),
            wal_fsyncs: registry.counter("store.wal.fsyncs"),
            wal_group_size: registry.counter("store.wal.group_size"),
            wal_sync_errors: registry.counter("store.wal.sync_errors"),
            wal_recovery_truncated_bytes: registry.counter("store.wal.recovery_truncated_bytes"),
            wal_fsync_micros: Arc::new(LatencyHistogram::new()),
            writers: Mutex::new(Vec::new()),
            id: NEXT_STORE_ID.fetch_add(1, Ordering::Relaxed),
            mem: MemGauges::new(&registry),
            registry,
        }
    }

    /// Run `f` on the calling thread's [`WriterShard`] of this store. The
    /// thread finds it in its thread-local list of held shards without a
    /// lock — at the front when it last committed to this store — so a
    /// thread that alternates between stores keeps one shard in each. Its
    /// first commit to a store claims one, a released shard if the store
    /// has one.
    #[inline]
    pub fn with_writer<R>(&self, f: impl FnOnce(&WriterShard) -> R) -> R {
        HELD_SHARDS.with(|held| {
            let held = &mut held.borrow_mut().0;
            if held.first().is_none_or(|(id, _)| *id != self.id) {
                self.bring_to_front(held);
            }
            f(&held[0].1)
        })
    }

    /// Move this store's shard to the front of `held`, claiming one if the
    /// thread holds none. Shards of dropped stores (whose registry no
    /// longer shares them) are let go on the way.
    #[cold]
    fn bring_to_front(&self, held: &mut Vec<(u64, Arc<WriterShard>)>) {
        match held.iter().position(|(id, _)| *id == self.id) {
            Some(at) => held[..=at].rotate_right(1),
            None => {
                held.retain(|(_, shard)| Arc::strong_count(shard) > 1);
                held.insert(0, (self.id, self.claim_shard()));
            }
        }
    }

    /// A shard released by an exited thread if there is one, else a new
    /// one; either way held by the calling thread from now on.
    fn claim_shard(&self) -> Arc<WriterShard> {
        let mut writers = self.writers.lock();
        let free = writers.iter().find(|shard| {
            shard.held.compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed).is_ok()
        });
        if let Some(shard) = free {
            return Arc::clone(shard);
        }
        let shard = Arc::new(WriterShard { held: AtomicBool::new(true), ..WriterShard::default() });
        writers.push(Arc::clone(&shard));
        shard
    }

    /// Shards in this store's registry: the most threads that held one at
    /// once, i.e. that had committed to this store and not yet exited.
    pub fn writer_shards(&self) -> usize {
        self.writers.lock().len()
    }

    /// Committed transactions (`store.txn.commits`): the `apply` samples
    /// summed over every writer's shard.
    pub fn commits(&self) -> u64 {
        self.writers.lock().iter().map(|w| w.stages.apply.count()).sum()
    }

    /// `pick`'s histogram merged over every writer's shard.
    fn merged(&self, pick: impl Fn(&WriterShard) -> &LatencyHistogram) -> HistogramSnapshot {
        let mut merged = HistogramSnapshot::default();
        for w in self.writers.lock().iter() {
            merged.merge(&pick(w).snapshot());
        }
        merged
    }

    /// The seven committed-path stages, in pipeline order, each merged
    /// over every writer's shard.
    pub fn stage_snapshots(&self) -> [(&'static str, HistogramSnapshot); 7] {
        std::array::from_fn(|i| (STAGE_NAMES[i], self.merged(|w| w.stages.named()[i].1)))
    }

    /// Every store-side latency distribution by name: the seven write
    /// stages, the failed-validation split, the watermark-lag distribution
    /// (timestamp counts, not time) and the WAL fsync distribution. This
    /// is what the full-disclosure export and the counters RPC ship.
    pub fn histogram_snapshots(&self) -> Vec<(String, HistogramSnapshot)> {
        let mut out: Vec<(String, HistogramSnapshot)> =
            self.stage_snapshots().into_iter().map(|(name, h)| (name.to_string(), h)).collect();
        out.push((
            "store.stage.validate_failed_nanos".to_string(),
            self.merged(|w| &w.stages.validate_failed),
        ));
        out.push(("store.write.watermark_lag".to_string(), self.merged(|w| &w.watermark_lag)));
        out.push(("store.wal.fsync_micros".to_string(), self.wal_fsync_micros.snapshot()));
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

    /// Current values in sorted name order, `store.txn.commits` included.
    pub fn snapshot(&self) -> Vec<(&'static str, u64)> {
        const COMMITS: &str = "store.txn.commits";
        let mut snap = self.registry.snapshot();
        let at = snap.partition_point(|&(name, _)| name < COMMITS);
        snap.insert(at, (COMMITS, self.commits()));
        snap
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
        assert!(names.contains(&"store.write.shard_conflicts"));
        assert!(names.contains(&"store.write.publish_parks"));
        assert!(snap.contains(&("store.wal.bytes", 100)));
    }

    #[test]
    fn histogram_snapshots_cover_stages_wal_and_stripes() {
        let c = StoreCounters::new();
        c.with_writer(|w| {
            w.stages.publish_wait.record_single_writer(120);
            w.stages.validate_failed.record_single_writer(90);
            w.watermark_lag.record_single_writer(3);
        });
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
        ] {
            assert!(names.contains(&expect), "missing {expect}");
        }
        let publish = &snaps.iter().find(|(n, _)| n.ends_with("publish_wait_nanos")).unwrap().1;
        assert_eq!(publish.count, 1);
    }
}
