//! The transactional property-graph store.
//!
//! This is the substrate the paper's evaluation ran on closed systems
//! (Sparksee, Virtuoso): an in-memory graph store with ACID inserts and
//! snapshot reads (see [`crate::mvcc`] for why snapshot isolation is
//! serializable on this workload). [`Store`] owns the [`Tables`], the
//! striped writer locks, the commit clock and the optional write-ahead
//! log, and is the write side: the `apply` pipeline, bulk load and
//! recovery. The read side is the [`PinnedSnapshot`] that
//! [`Store::pinned`] hands out (see [`crate::read`]).
//!
//! # Concurrency model
//!
//! Reads are **latch-free** and writes are **shard-parallel** (see
//! DESIGN.md, "Concurrency model"; the lock-free containers themselves
//! are in [`crate::tail`]):
//!
//! - Writers lock only the [`STRIPES`]-way striped locks covering the ids
//!   their operation touches, so shard-disjoint updates (different persons'
//!   activity — the common case) run in parallel.
//!   [`crate::mvcc::CommitClock::publish`] is out-of-order and
//!   non-blocking: writers mark their timestamp in a publication ring and
//!   the visibility watermark advances over the contiguous published
//!   prefix, so ordering lives in visibility, not in a barrier.
//! - Readers take no lock at all: a pin is one acquire load of the commit
//!   horizon, and MVCC visibility filters everything above it.

use crate::counters::StoreCounters;
use crate::mvcc::CommitClock;
use crate::read::PinnedSnapshot;
use crate::tables::{index_writes, Entity, Tables};
use crate::wal::{SyncPolicy, Wal};
use crate::Padded;
use parking_lot::{Mutex, MutexGuard};
use snb_core::time::SimTime;
use snb_core::update::UpdateOp;
use snb_core::SnbResult;
use snb_obs::trace::{self, NameId};
use std::path::Path;

/// Stripes in the writer lock map. A power of two so the stripe map is a
/// mask; 64 stripes keep the collision probability of two random ids
/// ~1.6%, and at one 128-byte line pair per lock the whole array is 8 KiB.
const STRIPES: usize = 64;

/// Trace-span names for the write-pipeline stages and the read pin
/// ([`trace::record_stage`] attaches these as children of whatever span the
/// caller has open — `driver.execute` in-process, `server.execute` remote).
static SPAN_STRIPE_WAIT: NameId = NameId::new("store.stage.stripe_wait");
static SPAN_VALIDATE: NameId = NameId::new("store.stage.validate");
static SPAN_VALIDATE_FAILED: NameId = NameId::new("store.stage.validate_failed");
static SPAN_WAL_APPEND: NameId = NameId::new("store.stage.wal_append");
static SPAN_RESERVE: NameId = NameId::new("store.stage.reserve");
static SPAN_APPLY: NameId = NameId::new("store.stage.apply");
static SPAN_PUBLISH_WAIT: NameId = NameId::new("store.stage.publish_wait");
static SPAN_DURABLE_WAIT: NameId = NameId::new("store.stage.durable_wait");
static SPAN_READ_PIN: NameId = NameId::new("store.read.pin");

/// The stripes an update writes to, as a bitmask: bit `i` set = stripe
/// `i` locked. They are the stripes of the slots [`index_writes`] names,
/// which include the entity's own row, and so cover every list and row
/// [`Tables::insert`] touches. Iterating the set bits low to high locks in
/// ascending order with duplicates merged, which makes overlapping writers
/// deadlock-free; a post also writes one `tag_posts` list per tag, so its
/// set has no fixed size. Validation-only reads (e.g. a comment's forum or
/// root post) take no stripe: latch-free readers don't either, and a miss
/// is equivalent to serializing before the in-flight dependency.
fn stripe_set(op: &UpdateOp) -> u64 {
    const _: () = assert!(STRIPES <= 64, "the stripe set is a u64 bitmask");
    let mut set = 0;
    index_writes(Entity::of(op), |_, slot, _| set |= 1 << (slot & (STRIPES - 1)));
    set
}

/// Default bulk-load parallelism: the machine's cores, capped — loading is
/// memory-bound well before 8 threads.
fn default_load_threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1).min(8)
}

/// What [`Store::recover`] found in (and trimmed off) the write-ahead log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Committed transactions replayed from the intact prefix.
    pub replayed: u64,
    /// Bytes truncated off the torn or corrupt tail (0 on a clean log).
    pub truncated_bytes: u64,
    /// Best-effort count of records among the truncated bytes.
    pub truncated_records: u64,
    /// Sequence number of the last replayed record.
    pub last_seq: u64,
}

/// The store.
#[derive(Debug)]
pub struct Store {
    tables: Tables,
    /// Striped writer locks; an update locks only the stripes covering the
    /// ids it writes, in ascending order (deadlock-free). Each on its own
    /// line, so writers on different stripes never share one.
    stripes: [Padded<Mutex<()>>; STRIPES],
    clock: CommitClock,
    wal: Option<Wal>,
    counters: StoreCounters,
}

impl Default for Store {
    fn default() -> Self {
        Store::new()
    }
}

impl Store {
    /// Empty store without durability.
    pub fn new() -> Store {
        Store {
            tables: Tables::default(),
            stripes: std::array::from_fn(|_| Padded(Mutex::new(()))),
            clock: CommitClock::new(),
            wal: None,
            counters: StoreCounters::new(),
        }
    }

    /// Empty store logging to a write-ahead log at `path` (created or
    /// truncated) under `policy`: commits are acknowledged only once the
    /// policy's durability requirement holds for their record.
    pub fn with_wal_policy(path: &Path, policy: SyncPolicy) -> SnbResult<Store> {
        let mut store = Store::new();
        store.wal = Some(Wal::create_with(path, policy, store.counters.wal_metrics())?);
        Ok(store)
    }

    /// Runtime counters for this store instance.
    pub fn counters(&self) -> &StoreCounters {
        &self.counters
    }

    /// Walk the tables and overwrite the `store.mem.*` gauges with current
    /// measured sizes. The walk is O(rows), so callers run it on demand —
    /// right before snapshotting counters for a report — never per write.
    pub fn refresh_mem_gauges(&self) {
        let stats = crate::stats::from_raw(self.tables.sizes());
        let dict = snb_core::dict::Dictionaries::global().heap_bytes();
        self.counters.mem.refresh(&stats, dict);
    }

    /// Recover a store: bulk-load `bulk`, replay the intact prefix of the
    /// WAL at `path`, physically truncate its torn tail (reported and
    /// counted in `store.wal.recovery_truncated_bytes`), and keep appending
    /// to the same log at the next sequence number under
    /// [`SyncPolicy::Never`].
    pub fn recover(bulk: &snb_datagen::Dataset, path: &Path) -> SnbResult<(Store, RecoveryReport)> {
        let mut store = Store::new();
        let (wal, replay) =
            Wal::open_append(path, SyncPolicy::Never, store.counters.wal_metrics())?;
        let report = RecoveryReport {
            replayed: replay.ops.len() as u64,
            truncated_bytes: replay.truncated_bytes,
            truncated_records: replay.truncated_records,
            last_seq: replay.last_seq,
        };
        store.bulk_load(bulk);
        // Replayed records are in the log already: apply them before the
        // log is attached, so they are neither re-appended nor waited on.
        for op in &replay.ops {
            store.apply(op)?;
        }
        store.wal = Some(wal);
        Ok((store, report))
    }

    /// Bulk-load every entity of `ds` with a creation date at or before the
    /// configured update split (§4: "32 months are bulkloaded at benchmark
    /// start"). Bulk rows carry [`BULK_TS`](crate::mvcc::BULK_TS) and are
    /// visible to every snapshot. Requires an empty store.
    pub fn bulk_load(&self, ds: &snb_datagen::Dataset) {
        self.bulk_load_until(ds, ds.config.update_split)
    }

    /// Bulk-load everything (useful for query-only experiments).
    pub fn load_full(&self, ds: &snb_datagen::Dataset) {
        self.bulk_load_until(ds, ds.config.end)
    }

    /// Bulk-load all entities created at or before `cut`, with the default
    /// degree of load parallelism.
    pub fn bulk_load_until(&self, ds: &snb_datagen::Dataset, cut: SimTime) {
        self.bulk_load_until_threads(ds, cut, default_load_threads())
    }

    /// Bulk-load all entities created at or before `cut` using `threads`
    /// loader threads, into an empty store.
    ///
    /// This is the parallel sorted path (the `loader` module): partition
    /// every id space into contiguous per-thread ranges, build each table
    /// slice and adjacency list on its owning thread, sort every
    /// date-ordered index **once**, and install the lists as immutable bulk
    /// prefixes — the result is identical at any thread count (including
    /// 1). Because the store starts empty, every
    /// [`BULK_TS`](crate::mvcc::BULK_TS) entry lives in a bulk prefix, and
    /// every tail entry is a versioned commit.
    ///
    /// Bulk loading is not atomic with respect to concurrent readers —
    /// run it before serving queries, as the benchmark does.
    pub fn bulk_load_until_threads(&self, ds: &snb_datagen::Dataset, cut: SimTime, threads: usize) {
        assert!(self.tables.is_empty(), "bulk load requires an empty store");
        crate::loader::build_into(&self.tables, ds, cut, threads.max(1));
    }

    /// Bulk-load only shard `shard` of `map`'s slice of `ds` (entities
    /// dated at or before `cut`): persons and the friendship graph in
    /// full — they are replicated on every shard — plus the forums whose
    /// id range this shard owns together with their entire activity trees
    /// (memberships, posts, comments, likes). Backs `snb serve
    /// --shard i/N`; requires an empty store, and always takes the
    /// parallel sorted path.
    pub fn bulk_load_sharded(
        &self,
        ds: &snb_datagen::Dataset,
        cut: SimTime,
        threads: usize,
        map: snb_core::shard::ShardMap,
        shard: u32,
    ) {
        assert!(self.tables.is_empty(), "sharded bulk load requires an empty store");
        crate::loader::build_into_sharded(
            &self.tables,
            ds,
            cut,
            threads.max(1),
            Some(crate::loader::ShardSel::new(map, shard)),
        );
    }

    /// Execute one update operation as an ACID transaction: lock the
    /// touched stripes, validate, WAL-append, apply, publish — then,
    /// outside every lock, wait for the WAL's [`SyncPolicy`] to make the
    /// record durable before acknowledging.
    ///
    /// WAL order is not equal to commit-timestamp order (two
    /// shard-disjoint writers append in whatever order they reach the
    /// log), but it *respects dependencies*: a transaction B that
    /// validated against A's rows can only have seen them after A's
    /// append (A appends before it installs any row), so A precedes B in
    /// the log and prefix-consistent recovery replays every dependency
    /// before its dependent. The durability wait happens after all locks
    /// are released (early lock release): group commit batches fsyncs
    /// across concurrent committers without serializing the in-memory work
    /// behind the disk. A commit may be briefly visible to snapshots
    /// before it is durable, but it is never acknowledged to the caller
    /// until it is — the standard group-commit contract.
    ///
    /// Ordering within the stripe critical section is load-bearing:
    /// everything fallible (validation, the WAL append) happens **before**
    /// [`CommitClock::reserve`], because every reserved timestamp must be
    /// published or the visibility watermark would wedge at the gap; and
    /// the append happens **before** any row is installed so WAL order
    /// respects dependency order. `publish` is out-of-order and
    /// non-blocking (ring wraparound aside — see [`CommitClock::publish`]):
    /// a descheduled writer delays only the watermark, never other
    /// committers.
    pub fn apply(&self, op: &UpdateOp) -> SnbResult<()> {
        // Stage boundaries double as histogram samples in this thread's
        // writer shard and (when a trace is live) causal child spans of
        // the caller's op span. The seven stages tile the committed path
        // end-to-end, but the clock is read only where a stage does work:
        // five times in memory (entry, after validate, after reserve,
        // after insert, after publish), seven behind a WAL (plus after the
        // append and after the durable wait). `stripe_wait` is the time
        // blocked on contended stripes, measured where `lock_stripes`
        // blocks; a stage with nothing to do records 0, so every stage
        // samples every commit. Failed validations record their stripe
        // wait plus a `validate_failed` sample (kept out of the
        // committed-path tiling), so contention burned before a conflict
        // still shows up in the attribution exactly when conflicts spike.
        let t0 = trace::now_nanos();
        let (guards, blocked) = self.lock_stripes(op);
        let validated = self.tables.validate(op);
        let t1 = trace::now_nanos();
        let locked = t0 + blocked;
        if let Err(e) = validated {
            self.counters.conflicts.inc();
            self.counters.with_writer(|w| {
                w.stages.stripe_wait.record_single_writer(blocked);
                w.stages.validate_failed.record_single_writer(t1 - locked);
            });
            if trace::tracing_possible() {
                trace::record_stage(&SPAN_STRIPE_WAIT, t0 / 1_000, locked / 1_000);
                trace::record_stage(&SPAN_VALIDATE_FAILED, locked / 1_000, t1 / 1_000);
            }
            return Err(e);
        }
        let (logged, t2) = match &self.wal {
            Some(wal) => {
                let appended = wal.append(op)?;
                self.counters.wal_appends.inc();
                self.counters.wal_bytes.add(appended.bytes);
                (Some((wal, appended.seq)), trace::now_nanos())
            }
            None => (None, t1),
        };
        let ts = self.clock.reserve();
        let t3 = trace::now_nanos();
        self.tables.insert(Entity::of(op), ts);
        let t4 = trace::now_nanos();
        let publication = self.clock.publish(ts);
        drop(guards);
        self.counters.publish_parks.add(publication.parked);
        // Record before the next clock read, so the bookkeeping falls in
        // `publish_wait` (in memory) or `durable_wait` (behind a WAL)
        // instead of outside the tiling; only the last one or two samples
        // land after it.
        let (t5, t6) = self.counters.with_writer(|w| {
            let st = &w.stages;
            st.stripe_wait.record_single_writer(blocked);
            st.validate.record_single_writer(t1 - locked);
            st.wal_append.record_single_writer(t2 - t1);
            st.reserve.record_single_writer(t3 - t2);
            st.apply.record_single_writer(t4 - t3);
            w.watermark_lag.record_single_writer(publication.lag);
            let t5 = trace::now_nanos();
            st.publish_wait.record_single_writer(t5 - t4);
            // The durable horizon is cumulative, and a no-sync WAL returns
            // at once; either way the commit's `durable_wait` stage closes
            // here.
            let t6 = match logged {
                Some((wal, seq)) => {
                    wal.wait_durable(seq)?;
                    trace::now_nanos()
                }
                None => t5,
            };
            st.durable_wait.record_single_writer(t6 - t5);
            SnbResult::Ok((t5, t6))
        })?;
        if trace::tracing_possible() {
            trace::record_stage(&SPAN_STRIPE_WAIT, t0 / 1_000, locked / 1_000);
            trace::record_stage(&SPAN_VALIDATE, locked / 1_000, t1 / 1_000);
            trace::record_stage(&SPAN_WAL_APPEND, t1 / 1_000, t2 / 1_000);
            trace::record_stage(&SPAN_RESERVE, t2 / 1_000, t3 / 1_000);
            trace::record_stage(&SPAN_APPLY, t3 / 1_000, t4 / 1_000);
            trace::record_stage(&SPAN_PUBLISH_WAIT, t4 / 1_000, t5 / 1_000);
            trace::record_stage(&SPAN_DURABLE_WAIT, t5 / 1_000, t6 / 1_000);
        }
        Ok(())
    }

    /// Lock the stripes `op` writes to, ascending, and return the guards
    /// with the nanoseconds spent blocked. Only a contended stripe reads
    /// the clock: it is counted in `store.write.shard_conflicts` before
    /// blocking, and the time spent blocked is summed into the commit's
    /// `stripe_wait` stage.
    fn lock_stripes(&self, op: &UpdateOp) -> (Vec<MutexGuard<'_, ()>>, u64) {
        let mut set = stripe_set(op);
        let mut guards = Vec::with_capacity(set.count_ones() as usize);
        let mut blocked = 0;
        while set != 0 {
            let i = set.trailing_zeros() as usize;
            set &= set - 1;
            match self.stripes[i].try_lock() {
                Some(g) => guards.push(g),
                None => {
                    self.counters.write_shard_conflicts.inc();
                    let since = trace::now_nanos();
                    let g = self.stripes[i].lock();
                    blocked += trace::now_nanos() - since;
                    guards.push(g);
                }
            }
        }
        (guards, blocked)
    }

    /// Flush the WAL (an fsync durability point under
    /// [`SyncPolicy::Group`]).
    pub fn flush_wal(&self) -> SnbResult<()> {
        if let Some(wal) = &self.wal {
            wal.flush()?;
        }
        Ok(())
    }

    /// Open a read snapshot: sees every transaction committed before this
    /// call, and nothing that commits after. It acquires **no lock at
    /// all**: it reads the commit horizon with one acquire load and hands
    /// out borrows straight into the immutable segments — a long query
    /// never blocks a writer, and a writer never blocks a reader. It is
    /// safe to hold a pin across [`Store::apply`] on the same thread and
    /// to interleave any number of pins; the pinned view stays frozen at
    /// its snapshot timestamp.
    pub fn pinned(&self) -> PinnedSnapshot<'_> {
        self.counters.snapshots.inc();
        if trace::tracing_possible() {
            // Instant marker: the pin itself is one acquire load, so the
            // span records *when* the snapshot was taken, not a duration.
            let t = trace::now_micros();
            trace::record_stage(&SPAN_READ_PIN, t, t);
        }
        PinnedSnapshot {
            tables: &self.tables,
            ts: self.clock.snapshot_ts(),
            counters: &self.counters,
            acct: Default::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tables::tests::{forum, person, post};
    use snb_core::schema::Knows;
    use snb_core::{ForumId, MessageId, PersonId};

    #[test]
    fn a_post_locks_the_stripes_of_its_tags() {
        let mut p = post(1, 2, 3, 10);
        // Tag 69 shares stripe 5 with tag 5: one lock, taken once.
        p.tags = vec![snb_core::TagId(40), snb_core::TagId(5), snb_core::TagId(69)];
        let want = [1u64, 2, 3, 5, 40].iter().fold(0u64, |m, s| m | 1 << s);
        assert_eq!(stripe_set(&UpdateOp::AddPost(p)), want);
    }

    #[test]
    fn insert_and_read_roundtrip() {
        let s = Store::new();
        s.apply(&UpdateOp::AddPerson(person(0, 10))).unwrap();
        s.apply(&UpdateOp::AddPerson(person(1, 20))).unwrap();
        s.apply(&UpdateOp::AddFriendship(Knows {
            a: PersonId(0),
            b: PersonId(1),
            creation_date: SimTime(30),
        }))
        .unwrap();
        let snap = s.pinned();
        assert_eq!(snap.person_ref(PersonId(0)).unwrap().creation_date, SimTime(10));
        assert_eq!(snap.friends_iter(PersonId(0)).count(), 1);
        assert!(snap.are_friends(PersonId(1), PersonId(0)));
    }

    #[test]
    fn snapshots_do_not_see_later_commits() {
        let s = Store::new();
        s.apply(&UpdateOp::AddPerson(person(0, 10))).unwrap();
        let snap = s.pinned();
        s.apply(&UpdateOp::AddPerson(person(1, 20))).unwrap();
        assert!(snap.person_ref(PersonId(1)).is_none(), "later commit leaked into snapshot");
        assert!(s.pinned().person_ref(PersonId(1)).is_some());
    }

    #[test]
    fn counters_track_commits_conflicts_snapshots_and_walks() {
        let s = Store::new();
        s.apply(&UpdateOp::AddPerson(person(0, 10))).unwrap();
        s.apply(&UpdateOp::AddPerson(person(1, 20))).unwrap();
        // Conflict: duplicate person.
        let _ = s.apply(&UpdateOp::AddPerson(person(0, 10)));
        assert_eq!(s.counters().commits(), 2);
        assert_eq!(s.counters().conflicts.get(), 1);

        let early = s.pinned();
        s.apply(&UpdateOp::AddFriendship(Knows {
            a: PersonId(0),
            b: PersonId(1),
            creation_date: SimTime(30),
        }))
        .unwrap();
        assert_eq!(s.counters().snapshots.get(), 1);

        // The friendship committed after `early`: walking it is one
        // examined, one skipped version.
        let walked_before = s.counters().versions_walked.get();
        let skipped_before = s.counters().versions_skipped.get();
        // Read counters reach the store when the snapshot drops.
        assert!(early.friends_iter(PersonId(0)).next().is_none());
        drop(early);
        assert_eq!(s.counters().versions_walked.get(), walked_before + 1);
        assert_eq!(s.counters().versions_skipped.get(), skipped_before + 1);

        // A fresh snapshot sees it: examined but not skipped.
        let now = s.pinned();
        assert_eq!(now.friends_iter(PersonId(0)).count(), 1);

        // Point probes count index probes via the profile scope.
        let profile = std::sync::Arc::new(snb_obs::QueryProfile::new());
        {
            let _guard = snb_obs::QueryProfile::enter(std::sync::Arc::clone(&profile));
            assert!(now.person_ref(PersonId(0)).is_some());
            assert_eq!(now.friends_iter(PersonId(0)).count(), 1);
        }
        drop(now);
        assert_eq!(s.counters().versions_skipped.get(), skipped_before + 1);
        let snap = profile.snapshot();
        assert_eq!(snap.index_probes, 1);
        assert_eq!(snap.versions_walked, 2);
    }

    #[test]
    fn wal_counters_track_appends_and_bytes() {
        let path =
            std::env::temp_dir().join(format!("snb-graph-counters-{}.wal", std::process::id()));
        let s = Store::with_wal_policy(&path, SyncPolicy::Never).unwrap();
        s.apply(&UpdateOp::AddPerson(person(0, 10))).unwrap();
        s.apply(&UpdateOp::AddPerson(person(1, 20))).unwrap();
        s.flush_wal().unwrap();
        assert_eq!(s.counters().wal_appends.get(), 2);
        let logged = s.counters().wal_bytes.get();
        drop(s); // the clean close trims the preallocated tail
        let on_disk = std::fs::metadata(&path).unwrap().len();
        assert_eq!(logged + 8, on_disk, "counted bytes + file magic must match the file size");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn durable_policy_fsyncs_before_acknowledging() {
        let path =
            std::env::temp_dir().join(format!("snb-graph-durable-{}.wal", std::process::id()));
        let s = Store::with_wal_policy(&path, SyncPolicy::default()).unwrap();
        s.apply(&UpdateOp::AddPerson(person(0, 10))).unwrap();
        s.apply(&UpdateOp::AddPerson(person(1, 20))).unwrap();
        // Serial commits share no fsync: one per acknowledged commit,
        // latency recorded, no errors.
        assert!(s.counters().wal_fsyncs.get() >= 2);
        assert_eq!(s.counters().wal_group_size.get(), 2);
        assert!(s.counters().wal_fsync_micros.count() >= 2);
        assert_eq!(s.counters().wal_sync_errors.get(), 0);
        drop(s);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn only_a_wal_that_syncs_fsyncs_a_commit() {
        let s = Store::new();
        s.apply(&UpdateOp::AddPerson(person(0, 10))).unwrap();
        let [.., (_, durable)] = s.counters().stage_snapshots();
        assert_eq!(durable.count, 1, "the stage samples every commit");

        for (policy, syncs) in [(SyncPolicy::Never, false), (SyncPolicy::Group, true)] {
            let path = std::env::temp_dir()
                .join(format!("snb-graph-syncs-{}-{policy:?}.wal", std::process::id()));
            let logged = Store::with_wal_policy(&path, policy).unwrap();
            logged.apply(&UpdateOp::AddPerson(person(0, 10))).unwrap();
            assert_eq!(logged.counters().wal_fsyncs.get() > 0, syncs, "{policy:?}");
            drop(logged);
            std::fs::remove_file(&path).unwrap();
        }
    }

    #[test]
    fn tail_headers_and_segments_are_gauged() {
        let ds =
            snb_datagen::generate(snb_datagen::GeneratorConfig::with_persons(120).activity(0.3))
                .unwrap();
        let s = Store::new();
        s.bulk_load(&ds);
        let bulk = s.pinned().storage_stats();
        assert_eq!((bulk.index.tail_headers, bulk.index.tail_segments), (0, 0));
        for u in ds.update_stream() {
            s.apply(&u.op).unwrap();
        }
        let stats = s.pinned().storage_stats();
        let idx = stats.index;
        assert!(idx.tail_headers > 0, "the update stream allocates tails");
        assert!(idx.tail_segments >= idx.tail_headers, "every tail has its first segment");
        s.refresh_mem_gauges();
        let mem = &s.counters().mem;
        assert_eq!(mem.tail_headers.get(), idx.tail_headers as u64);
        assert_eq!(mem.tail_segments.get(), idx.tail_segments as u64);
        // The counts are reported beside the bytes, not folded into them.
        assert_eq!(mem.bytes_per_message.get(), stats.bytes_per_message() as u64);
        assert_eq!(mem.tail_bytes.get(), idx.tail_bytes as u64);
    }

    #[test]
    fn parallel_bulk_load_matches_serial_indexes() {
        let ds =
            snb_datagen::generate(snb_datagen::GeneratorConfig::with_persons(150).activity(0.4))
                .unwrap();
        let serial = Store::new();
        serial.bulk_load_until_threads(&ds, ds.config.end, 1);
        let parallel = Store::new();
        parallel.bulk_load_until_threads(&ds, ds.config.end, 4);
        let ss = serial.pinned();
        let sp = parallel.pinned();
        assert_eq!(ss.person_slots(), sp.person_slots());
        assert_eq!(ss.forum_slots(), sp.forum_slots());
        assert_eq!(ss.message_slots(), sp.message_slots());
        for i in 0..ss.person_slots() as u64 {
            let p = PersonId(i);
            assert_eq!(
                ss.friends_iter(p).collect::<Vec<_>>(),
                sp.friends_iter(p).collect::<Vec<_>>(),
                "friends of {p}"
            );
            assert_eq!(
                ss.messages_of_iter(p).collect::<Vec<_>>(),
                sp.messages_of_iter(p).collect::<Vec<_>>(),
                "messages of {p}"
            );
            assert_eq!(
                ss.forums_of_iter(p).collect::<Vec<_>>(),
                sp.forums_of_iter(p).collect::<Vec<_>>(),
                "forums of {p}"
            );
            assert_eq!(
                ss.likes_by_iter(p).collect::<Vec<_>>(),
                sp.likes_by_iter(p).collect::<Vec<_>>(),
                "likes by {p}"
            );
        }
        for i in 0..ss.message_slots() as u64 {
            let m = MessageId(i);
            assert_eq!(
                ss.replies_of_iter(m).collect::<Vec<_>>(),
                sp.replies_of_iter(m).collect::<Vec<_>>(),
                "replies of {m}"
            );
            assert_eq!(
                ss.likes_of_iter(m).collect::<Vec<_>>(),
                sp.likes_of_iter(m).collect::<Vec<_>>(),
                "likes of {m}"
            );
            let (a, b) = (ss.message_ref(m), sp.message_ref(m));
            assert_eq!(format!("{a:?}"), format!("{b:?}"), "row of {m}");
        }
        for i in 0..ss.forum_slots() as u64 {
            let f = ForumId(i);
            assert_eq!(
                ss.posts_in_forum_iter(f).collect::<Vec<_>>(),
                sp.posts_in_forum_iter(f).collect::<Vec<_>>(),
                "posts in {f}"
            );
            assert_eq!(
                ss.members_of_iter(f).collect::<Vec<_>>(),
                sp.members_of_iter(f).collect::<Vec<_>>(),
                "members of {f}"
            );
        }
    }

    #[test]
    fn pinned_reader_does_not_block_apply() {
        let s = Store::new();
        s.apply(&UpdateOp::AddPerson(person(0, 10))).unwrap();
        let pin = s.pinned();
        // Under the old guard-holding pin this exact sequence deadlocked
        // (writer waits on the read guard held by `pin` on this thread).
        s.apply(&UpdateOp::AddPerson(person(1, 20))).unwrap();
        assert!(pin.person_ref(PersonId(1)).is_none(), "pin must stay frozen at its ts");
        assert!(pin.person_ref(PersonId(0)).is_some());
        assert!(s.pinned().person_ref(PersonId(1)).is_some());
        assert_eq!(s.counters().snapshots.get(), 2);
    }

    #[test]
    fn stage_sums_reconcile_with_measured_apply_latency() {
        // The write-pipeline stage histograms claim to tile a commit end to
        // end: commit 7 998 updates and check that the sum of all stage
        // sums is within 0.90–1.05 of the wall-clock time spent in `apply`,
        // and that every stage sampled every commit.
        let s = Store::new();
        s.apply(&UpdateOp::AddPerson(person(0, 1))).unwrap();
        s.apply(&UpdateOp::AddForum(forum(0, 0, 5))).unwrap();
        let mut ops = Vec::new();
        for i in 1..4_000u64 {
            ops.push(UpdateOp::AddPerson(person(i, i as i64)));
            ops.push(UpdateOp::AddPost(post(i, i, 0, i as i64 + 1)));
        }
        let stage_sum = || s.counters().stage_snapshots().iter().map(|(_, h)| h.sum).sum::<u64>();
        let warmup = stage_sum();
        let t0 = std::time::Instant::now();
        for op in &ops {
            s.apply(op).unwrap();
        }
        let wall_nanos = t0.elapsed().as_nanos() as f64;
        let stage_sum = stage_sum() - warmup;
        let ratio = stage_sum as f64 / wall_nanos;
        assert!(
            (0.90..=1.05).contains(&ratio),
            "stage sums ({stage_sum}ns) must reconcile with measured apply wall time \
             ({wall_nanos:.0}ns); ratio {ratio:.3}"
        );
        for (name, h) in s.counters().stage_snapshots() {
            assert_eq!(h.count, s.counters().commits(), "{name} must sample every commit");
        }
    }

    #[test]
    fn failed_transactions_leave_no_trace() {
        let s = Store::new();
        s.apply(&UpdateOp::AddPerson(person(0, 10))).unwrap();
        let before = s.pinned().ts();
        let _ = s.apply(&UpdateOp::AddPost(post(0, 0, 5, 50)));
        let snap = s.pinned();
        assert_eq!(snap.ts(), before, "failed txn must not advance the clock");
        assert!(snap.message_ref(MessageId(0)).is_none());
    }

    #[test]
    fn bulk_load_is_visible_to_all_snapshots() {
        let ds =
            snb_datagen::generate(snb_datagen::GeneratorConfig::with_persons(100).activity(0.3))
                .unwrap();
        let s = Store::new();
        s.bulk_load(&ds);
        let snap = s.pinned();
        let bulk_persons =
            ds.persons.iter().filter(|p| p.creation_date <= ds.config.update_split).count();
        let visible_persons = (0..snap.person_slots())
            .filter(|&i| snap.person_ref(PersonId(i as u64)).is_some())
            .count();
        assert_eq!(visible_persons, bulk_persons);
    }

    #[test]
    #[should_panic(expected = "bulk load requires an empty store")]
    fn a_second_bulk_load_panics() {
        let ds =
            snb_datagen::generate(snb_datagen::GeneratorConfig::with_persons(50).activity(0.2))
                .unwrap();
        let s = Store::new();
        s.bulk_load(&ds);
        s.bulk_load(&ds);
    }

    #[test]
    fn update_stream_replays_cleanly_after_bulk_load() {
        let ds =
            snb_datagen::generate(snb_datagen::GeneratorConfig::with_persons(200).activity(0.3))
                .unwrap();
        let s = Store::new();
        s.bulk_load(&ds);
        let stream = ds.update_stream();
        assert!(!stream.is_empty());
        for u in &stream {
            s.apply(&u.op).unwrap_or_else(|e| panic!("replay failed on {}: {e}", u.op.name()));
        }
        let snap = s.pinned();
        let visible_persons = (0..snap.person_slots())
            .filter(|&i| snap.person_ref(PersonId(i as u64)).is_some())
            .count();
        assert_eq!(visible_persons, ds.persons.len());
        let visible_msgs = (0..snap.message_slots())
            .filter(|&i| snap.message_ref(MessageId(i as u64)).is_some())
            .count();
        assert_eq!(visible_msgs, ds.message_count());
    }

    #[test]
    fn replaying_the_update_stream_executes_all_eight_types() {
        let ds = snb_datagen::generate(
            snb_datagen::GeneratorConfig::with_persons(350).activity(0.5).seed(7),
        )
        .unwrap();
        let s = Store::new();
        s.bulk_load(&ds);
        let mut seen = [0usize; 9];
        for u in ds.update_stream() {
            s.apply(&u.op).unwrap();
            seen[u.op.query_number()] += 1;
        }
        for (q, &n) in seen.iter().enumerate().skip(1) {
            assert!(n > 0, "U{q} never executed");
        }
    }

    #[test]
    fn duplicate_update_is_rejected() {
        let ds =
            snb_datagen::generate(snb_datagen::GeneratorConfig::with_persons(100).activity(0.3))
                .unwrap();
        let s = Store::new();
        s.bulk_load(&ds);
        let stream = ds.update_stream();
        let first_person = stream.iter().find(|u| matches!(u.op, UpdateOp::AddPerson(_))).unwrap();
        s.apply(&first_person.op).unwrap();
        assert!(s.apply(&first_person.op).is_err());
    }
}
