//! The transactional property-graph store.
//!
//! This is the substrate the paper's evaluation ran on closed systems
//! (Sparksee, Virtuoso): an in-memory graph store with ACID inserts and
//! snapshot reads (see [`crate::mvcc`] for why snapshot isolation is
//! serializable on this workload), primary-key tables dense in the
//! creation-ordered id space, and the adjacency/secondary indexes the
//! Interactive queries need:
//!
//! - `knows` adjacency with friendship dates (Q1-Q14, S3)
//! - per-person messages ordered by creation date (Q2, Q8, Q9, S2)
//! - per-forum posts and members, per-person forum joins (Q5, S6)
//! - reply trees (Q8, Q12, S7) and like edges in both directions (Q7)
//!
//! Date-ordered index entries make the "top-20 most recent before date"
//! pattern — the backbone of half the complex reads — a reverse scan with
//! early termination, which is exactly the locality §3 says systems should
//! exploit when ids correlate with time.
//!
//! # Concurrency model
//!
//! Reads are **latch-free** and writes are **shard-parallel** (see
//! DESIGN.md, "Concurrency model" for the full memory-ordering argument):
//!
//! - Every table is a [`SegVec`] — a fixed spine of geometrically growing
//!   segments. Segments are never reallocated or moved, so readers hold
//!   plain references while writers install new slots; a published length
//!   (`high`) is advanced with release stores and read with acquire loads.
//! - Every [`IndexList`] is an immutable sorted bulk prefix plus an
//!   append-only *published tail*: a writer (serialized per list by its
//!   stripe lock) initializes the next slot, then release-stores the new
//!   visible length; readers acquire-load the length and never see a
//!   partially written entry.
//! - Writers lock only the [`STRIPES`]-way striped locks covering the ids
//!   their operation touches, so shard-disjoint updates (different persons'
//!   activity — the common case) run in parallel.
//!   [`crate::mvcc::CommitClock::publish`] is out-of-order and
//!   non-blocking: writers mark their timestamp in a publication ring and
//!   the visibility watermark advances over the contiguous published
//!   prefix, so ordering lives in visibility, not in a barrier.
//! - MVCC visibility is untouched: a published entry whose commit
//!   timestamp is above the snapshot timestamp is simply invisible, so
//!   [`PinnedSnapshot`] semantics are byte-identical to the old latched
//!   store.

use crate::compact::{merge_compact, CompactRun, Cursor, RevCursor, FILL_DATED};
use crate::counters::{StoreCounters, STRIPES};
use crate::mvcc::{visible, CommitClock, CommitTs, BULK_TS};
use crate::wal::{SyncPolicy, Wal};
use parking_lot::{Mutex, MutexGuard};
use snb_core::schema::{Comment, Forum, ForumMembership, Knows, Like, Person, Post};
use snb_core::time::SimTime;
use snb_core::update::UpdateOp;
use snb_core::{ForumId, MessageId, PersonId, SnbError, SnbResult, TagId};
use snb_obs::trace::{self, NameId};
use snb_obs::{tick_index_probes, tick_versions_walked};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// A stored message: posts and comments share one table and id space.
#[derive(Debug, Clone)]
pub struct MessageRow {
    /// Author.
    pub author: PersonId,
    /// Containing forum.
    pub forum: ForumId,
    /// Creation date.
    pub creation_date: SimTime,
    /// Content (empty for photos).
    pub content: Box<str>,
    /// Image file for photos.
    pub image_file: Option<Box<str>>,
    /// Topic tags.
    pub tags: Box<[TagId]>,
    /// Content language (posts only; comments inherit "").
    pub language: &'static str,
    /// Country the message was sent from.
    pub country: u32,
    /// `None` for posts; `Some((reply_to, root_post))` for comments.
    pub reply_info: Option<(MessageId, MessageId)>,
}

impl MessageRow {
    /// Whether this message is a comment.
    #[inline]
    pub fn is_comment(&self) -> bool {
        self.reply_info.is_some()
    }
}

/// Versioned row wrapper.
#[derive(Debug, Clone)]
pub(crate) struct Versioned<T> {
    pub(crate) commit: CommitTs,
    pub(crate) row: T,
}

/// A dated, versioned index entry pointing at an entity.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Entry {
    pub(crate) date: SimTime,
    pub(crate) id: u64,
    pub(crate) commit: CommitTs,
}

#[inline]
pub(crate) fn key(e: &Entry) -> (SimTime, u64) {
    (e.date, e.id)
}

/// A concurrent segmented vector: a fixed spine of [`OnceLock`] segments
/// whose sizes grow geometrically (segment `k` holds `1 << (B + k)`
/// elements), plus a published element-count `high`.
///
/// The two properties the latch-free read path needs:
///
/// - **Stable addresses.** Segments are boxed slices allocated once and
///   never moved, so a reader's `&T` stays valid while writers install
///   other slots — there is no `Vec`-style reallocation to invalidate it.
/// - **Atomic publication.** Each slot is a [`OnceLock`]: `set` fully
///   initializes the value before flipping the slot's state, and `get`
///   acquires that state, so a reader observes either nothing or the whole
///   value. `high` gates `get` so slots above the published bound stay
///   invisible even if already installed.
///
/// All of this is safe Rust: the unsafe publication machinery lives inside
/// `std::sync::OnceLock`.
#[derive(Debug)]
pub(crate) struct SegVec<T, const B: u32, const N: usize> {
    segs: [OnceLock<Box<[OnceLock<T>]>>; N],
    high: AtomicUsize,
}

impl<T, const B: u32, const N: usize> Default for SegVec<T, B, N> {
    fn default() -> Self {
        SegVec::new()
    }
}

impl<T, const B: u32, const N: usize> SegVec<T, B, N> {
    pub(crate) fn new() -> SegVec<T, B, N> {
        SegVec { segs: std::array::from_fn(|_| OnceLock::new()), high: AtomicUsize::new(0) }
    }

    /// Segment index and offset of element `i`: segment `k` covers the
    /// index range `[((1<<k)-1) << B, ((1<<(k+1))-1) << B)`.
    #[inline]
    fn locate(i: usize) -> (usize, usize) {
        let n = (i >> B) + 1;
        let k = (usize::BITS - 1 - n.leading_zeros()) as usize;
        let base = ((1usize << k) - 1) << B;
        (k, i - base)
    }

    #[inline]
    fn seg_len(k: usize) -> usize {
        1usize << (B as usize + k)
    }

    /// The slot for element `i`, allocating its segment on first touch.
    /// Writer-side only; readers go through [`SegVec::get`].
    fn slot(&self, i: usize) -> &OnceLock<T> {
        let (k, off) = Self::locate(i);
        let seg = self.segs[k].get_or_init(|| {
            (0..Self::seg_len(k)).map(|_| OnceLock::new()).collect::<Vec<_>>().into_boxed_slice()
        });
        &seg[off]
    }

    /// Element `i` if it is below the published bound and installed.
    #[inline]
    pub(crate) fn get(&self, i: usize) -> Option<&T> {
        if i >= self.high.load(Ordering::Acquire) {
            return None;
        }
        let (k, off) = Self::locate(i);
        self.segs[k].get()?.get(off)?.get()
    }

    /// Raise the published bound to at least `n` (slots below it read as
    /// absent until installed, exactly like the old `ensure`d `None`s).
    #[inline]
    pub(crate) fn bump(&self, n: usize) {
        self.high.fetch_max(n, Ordering::AcqRel);
    }

    /// Published bound of the id space (the `*_slots()` scan limit).
    #[inline]
    pub(crate) fn high(&self) -> usize {
        self.high.load(Ordering::Acquire)
    }

    /// Install element `i` without raising the bound — the bulk loader's
    /// primitive: workers install in parallel, then the caller publishes
    /// every table's bound once at the end.
    pub(crate) fn set_slot(&self, i: usize, v: T) {
        let stored = self.slot(i).set(v).is_ok();
        debug_assert!(stored, "SegVec slot {i} installed twice");
    }

    /// Install element `i` and publish it (bound raised first so a reader
    /// that sees the slot also sees it in-bounds).
    pub(crate) fn install(&self, i: usize, v: T) {
        self.bump(i + 1);
        self.set_slot(i, v);
    }

    /// Element `i` without the `high` gate, for readers whose visibility
    /// proof is external (e.g. a ladder run published strictly before an
    /// acquire-loaded tail length). Skips one atomic load per lookup.
    #[inline]
    fn get_published(&self, i: usize) -> Option<&T> {
        let (k, off) = Self::locate(i);
        self.segs[k].get()?.get(off)?.get()
    }
}

/// Entity tables: segment 0 holds 1024 rows, 22 segments bound the id
/// space at ~4.3e9 — far beyond any scale factor we generate.
pub(crate) type EntityTable<T> = SegVec<Versioned<T>, 10, 22>;
/// Index-list tables, same geometry as [`EntityTable`].
pub(crate) type IndexTable = SegVec<IndexList, 10, 22>;
/// Published tails: start at 8 entries (most lists see few post-bulk
/// inserts), 24 segments bound a single list at ~134M tail entries.
pub(crate) type TailSlots = SegVec<Entry, 3, 24>;

impl TailSlots {
    /// The published length: every index below it is fully initialized.
    #[inline]
    fn published_len(&self) -> usize {
        self.high.load(Ordering::Acquire)
    }

    /// Entry `i`, which must be below a previously acquire-loaded
    /// published length (or, writer-side, a slot installed under the held
    /// stripe lock).
    #[inline]
    fn published(&self, i: usize) -> Entry {
        *self.published_ref(i)
    }

    #[inline]
    fn published_ref(&self, i: usize) -> &Entry {
        let (k, off) = Self::locate(i);
        self.segs[k].get().expect("published tail segment missing")[off]
            .get()
            .expect("published tail slot uninitialized")
    }
}

/// Merge-ladder height: level `k` holds `(date, id)`-sorted runs of
/// `1 << k` entries (level 0 is the raw slot array itself), so levels up
/// to 26 cover the ~2^27-entry tail capacity of [`TailSlots`].
const LADDER_LEVELS: usize = 27;
/// Lowest *materialized* ladder level. Levels below it are never built:
/// the newest `p mod 2^LADDER_BASE` tail entries are served straight from
/// the raw slot array as single-entry lanes instead. Retained low-level
/// runs were where the ladder's `O(t log t)` memory actually lived — every
/// tail entry used to be copied into a 2-run, a 4-run and an 8-run that
/// are all kept forever for pinned readers, and at ~10-14 encoded bytes
/// per entry per level those three levels cost more than the whole bulk
/// index. Skipping them trades at most `2^LADDER_BASE - 1` extra
/// decode-free lanes per read for a third of total index memory, and the
/// newest entries — what "most recent" walks consume first — now need no
/// decode at all.
const LADDER_BASE: usize = 4;
/// Most lanes one decomposition can produce: one run per materialized
/// level plus up to `2^LADDER_BASE - 1` raw singles.
const MAX_RUNS: usize = LADDER_LEVELS - LADDER_BASE + (1 << LADDER_BASE) - 1;

/// One ladder level: run `j` of level `k` is the sorted copy of raw tail
/// entries `[j << k, (j + 1) << k)`, stored delta-encoded (see
/// [`crate::compact`]). Runs complete in ascending `j` order (run `j` is
/// built when entry `((j + 1) << k) - 1` lands), so a [`SegVec`] publishes
/// them naturally.
type RunLevel = SegVec<CompactRun, 2, 26>;

/// One lane of a decomposed tail: either a single raw slot (a level-0
/// "run" borrows its entry straight from the slot array) or a compact
/// ladder run that lanes decode through cursors.
#[derive(Debug, Clone, Copy)]
pub(crate) enum LaneSrc<'t> {
    Single(&'t Entry),
    Run(&'t CompactRun),
}

/// The published tail of an [`IndexList`]: an append-only raw slot array
/// plus a *merge ladder* of immutable sorted runs (Bentley–Saxe binary
/// decomposition).
///
/// Writers only ever append: [`IndexTail::push`] installs the raw slot,
/// builds every power-of-two-aligned run the append completes (merging
/// the two half-size runs below it), and only then release-stores the new
/// length. A reader that acquire-loads length `p` therefore finds the
/// full run decomposition of `p` already published, and — because runs
/// are never mutated or freed — a reader holding an *older* length keeps
/// using the older decomposition untouched. This is what lets the
/// borrowing iterators stay **lazy**: instead of eagerly copying and
/// sorting the visible tail per read, they k-way-merge at most one
/// immutable run per level (≤ [`MAX_RUNS`] cursors) and pay only for the
/// entries actually consumed, with zero per-read allocation — the same
/// cost class as the old sorted-in-place list, without its write latch.
///
/// The price is write-side: the ladder costs `O(log n)` amortized copy
/// work per append (one `O(n)` carry when the length crosses a power of
/// two) and `O(n log n)` total memory per list, both bounded by the tail
/// length, not the bulk prefix.
#[derive(Debug)]
pub(crate) struct IndexTail {
    slots: TailSlots,
    /// Level `k` lives at `levels[k - 1]`; lazily allocated (short tails
    /// never touch the higher levels).
    levels: [OnceLock<Box<RunLevel>>; LADDER_LEVELS - 1],
}

impl IndexTail {
    fn new() -> IndexTail {
        IndexTail { slots: TailSlots::new(), levels: std::array::from_fn(|_| OnceLock::new()) }
    }

    /// The published tail length (readers decompose exactly this prefix).
    #[inline]
    fn published_len(&self) -> usize {
        self.slots.published_len()
    }

    /// Raw entry `i` in append order (below a published length).
    #[inline]
    fn published(&self, i: usize) -> Entry {
        self.slots.published(i)
    }

    fn level(&self, k: usize) -> &RunLevel {
        self.levels[k - 1].get_or_init(|| Box::new(RunLevel::new()))
    }

    /// Append `e`, build every ladder run this append completes, then
    /// publish the new length. Callers must hold the owning list's stripe
    /// lock: the lock serializes pushers, so the relaxed length read sees
    /// the previous push (the lock's release/acquire pairs order them),
    /// and the release store hands every initialized slot *and run* to
    /// readers that acquire-load the length.
    fn push(&self, e: Entry) {
        let n = self.slots.high.load(Ordering::Relaxed);
        let stored = self.slots.slot(n).set(e).is_ok();
        debug_assert!(stored, "tail slot {n} double-published");
        let len = n + 1;
        let mut k = LADDER_BASE;
        while k < LADDER_LEVELS && len & ((1usize << k) - 1) == 0 {
            let j = (len >> k) - 1;
            let run: CompactRun = if k == LADDER_BASE {
                // The base run sorts its slot range directly — levels
                // below LADDER_BASE are never materialized.
                let base = j << LADDER_BASE;
                let mut batch: [Entry; 1 << LADDER_BASE] =
                    std::array::from_fn(|i| self.slots.published(base + i));
                batch.sort_unstable_by_key(key);
                CompactRun::from_sorted(&batch)
            } else {
                let lower = self.level(k - 1);
                let a = lower.get(2 * j).expect("ladder child run missing");
                let b = lower.get(2 * j + 1).expect("ladder child run missing");
                merge_compact(a, b)
            };
            self.level(k).install(j, run);
            k += 1;
        }
        self.slots.high.store(len, Ordering::Release);
    }

    /// The sorted-run decomposition of the published prefix `p`: at most
    /// one run per level, descending sizes, together covering raw entries
    /// `[0, p)` exactly. Every returned run was fully built before `p`
    /// was published.
    #[inline]
    fn decompose<'t>(&'t self, p: usize, out: &mut [Option<LaneSrc<'t>>; MAX_RUNS]) -> usize {
        let mut n = 0usize;
        let mut offset = 0usize;
        // Materialized runs cover the largest base-aligned prefix.
        let mut rem = p & !((1usize << LADDER_BASE) - 1);
        while rem != 0 {
            let k = (usize::BITS - 1 - rem.leading_zeros()) as usize;
            let level = self.levels[k - 1].get().expect("published ladder level missing");
            out[n] = Some(LaneSrc::Run(
                level.get_published(offset >> k).expect("published ladder run missing"),
            ));
            n += 1;
            offset += 1usize << k;
            rem &= !(1usize << k);
        }
        // The sub-base remainder — the newest entries — straight from the
        // raw slots, one decode-free lane each.
        for i in offset..p {
            out[n] = Some(LaneSrc::Single(self.slots.published_ref(i)));
            n += 1;
        }
        n
    }

    /// Resident bytes of the ladder itself for the published prefix: the
    /// compact run bytes across all levels plus the raw slot array.
    fn heap_bytes(&self) -> (usize, usize, usize) {
        let len = self.published_len();
        let mut run_bytes = 0usize;
        let mut run_entries = 0usize;
        for k in LADDER_BASE..LADDER_LEVELS {
            let Some(level) = self.levels[k - 1].get() else { continue };
            for j in 0..(len >> k) {
                if let Some(run) = level.get(j) {
                    run_bytes += run.heap_bytes();
                    run_entries += run.len();
                }
            }
        }
        (run_bytes, run_entries, len * std::mem::size_of::<Entry>())
    }
}

/// A date-ordered index list: an immutable `(date, id)`-sorted bulk prefix
/// (all entries stamped [`BULK_TS`], visible to every snapshot, scanned
/// with no `visible()` checks — the fast lane) plus an append-only
/// *published tail* of post-bulk entries.
///
/// The raw tail is not kept sorted — writers only ever append and publish
/// the new length with a release store, so readers never race a memmove.
/// Order is recovered two ways: the borrowing iterators lazily merge the
/// tail's [`IndexTail`] ladder runs (zero allocation, pay-per-entry), and
/// the materializing `Vec` APIs eagerly [`IndexList::gather_tail`] the
/// raw slots and sort the (typically tiny) batch. A list with an empty
/// tail costs readers nothing beyond one acquire load either way.
#[derive(Debug, Default)]
pub(crate) struct IndexList {
    bulk: CompactRun,
    /// Lazily allocated: most lists never see a post-bulk insert.
    tail: OnceLock<Box<IndexTail>>,
}

impl IndexList {
    /// A list whose entries are all bulk-loaded (already `(date, id)`
    /// sorted, all stamped [`BULK_TS`]), delta-encoded here — the bulk
    /// loader's sort-once path is the one construction site for bulk
    /// prefixes, so compression rides the existing single pass.
    pub(crate) fn from_bulk(entries: Vec<Entry>) -> IndexList {
        debug_assert!(entries.iter().all(|e| e.commit == BULK_TS));
        debug_assert!(entries.windows(2).all(|w| key(&w[0]) <= key(&w[1])));
        IndexList { bulk: CompactRun::from_sorted(&entries), tail: OnceLock::new() }
    }

    /// The immutable always-visible bulk prefix.
    #[inline]
    pub(crate) fn bulk(&self) -> &CompactRun {
        &self.bulk
    }

    /// Append `e` to the published tail (requires the owning stripe lock;
    /// see [`IndexTail::push`]).
    pub(crate) fn push(&self, e: Entry) {
        self.tail.get_or_init(|| Box::new(IndexTail::new())).push(e);
    }

    fn tail(&self) -> Option<&IndexTail> {
        self.tail.get().map(|t| &**t)
    }

    /// Published tail length.
    pub(crate) fn tail_len(&self) -> usize {
        self.tail().map_or(0, |t| t.published_len())
    }

    /// Total published entries (bulk prefix + tail).
    pub(crate) fn len(&self) -> usize {
        self.bulk.len() + self.tail_len()
    }

    /// Resident-byte accounting: `(run_bytes, run_entries, tail_bytes)`.
    /// `run_bytes` covers the compact bulk prefix plus every ladder run;
    /// `run_entries` is the entry count behind those bytes (bulk + ladder
    /// copies — what the pre-compact format stored as 24-byte structs);
    /// `tail_bytes` is the raw (uncompressed) slot array.
    pub(crate) fn mem(&self) -> (usize, usize, usize) {
        let (mut run_bytes, mut run_entries, mut tail_bytes) =
            (self.bulk.heap_bytes(), self.bulk.len(), 0);
        if let Some(tail) = self.tail() {
            let (ladder_bytes, ladder_entries, raw_bytes) = tail.heap_bytes();
            run_bytes += ladder_bytes;
            run_entries += ladder_entries;
            tail_bytes += raw_bytes;
        }
        (run_bytes, run_entries, tail_bytes)
    }

    /// Gather the tail entries passing `pred` that are visible at `ts`
    /// into `out`, sorted by `(date, id)`. Returns `(fast, examined,
    /// kept)`: tail entries served on the [`BULK_TS`] fast lane, versioned
    /// entries examined, and of those the visible ones kept. Entries
    /// rejected by `pred` are uncounted (a date-bounded scan never touched
    /// them in the sorted representation). Allocates nothing when the tail
    /// is empty.
    pub(crate) fn gather_tail<F: Fn(&Entry) -> bool>(
        &self,
        ts: CommitTs,
        pred: F,
        out: &mut Vec<Entry>,
    ) -> (usize, usize, usize) {
        let Some(tail) = self.tail() else {
            return (0, 0, 0);
        };
        let n = tail.published_len();
        if n == 0 {
            return (0, 0, 0);
        }
        out.reserve(n);
        let (mut fast, mut examined, mut kept) = (0usize, 0usize, 0usize);
        for i in 0..n {
            let e = tail.published(i);
            if !pred(&e) {
                continue;
            }
            if e.commit == BULK_TS {
                fast += 1;
                out.push(e);
            } else {
                examined += 1;
                if visible(e.commit, ts) {
                    kept += 1;
                    out.push(e);
                }
            }
        }
        out.sort_unstable_by_key(key);
        (fast, examined, kept)
    }
}

// Write-lock striping width (`STRIPES`, declared next to the per-stripe
// telemetry in `counters.rs` so the lock map and the heatmap can't drift).
// Power of two so the stripe map is a mask; 64 stripes keep the collision
// probability of two random ids ~1.6% while the whole lock array stays one
// cache page.

/// Trace-span names for the write-pipeline stages and read-path phases
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
static SPAN_LADDER_MERGE: NameId = NameId::new("store.read.ladder_merge");
static SPAN_RECENT_WALK: NameId = NameId::new("store.read.recent_walk");

#[inline]
fn stripe_of(raw: u64) -> usize {
    (raw as usize) & (STRIPES - 1)
}

/// The stripes an update writes to, sorted ascending and deduplicated —
/// locking in ascending order makes overlapping writers deadlock-free.
/// Validation-only reads (e.g. a comment's forum or root post) take no
/// stripe: latch-free readers don't either, and a miss is equivalent to
/// serializing before the in-flight dependency.
fn stripe_set(op: &UpdateOp) -> ([usize; 3], usize) {
    let mut s = [0usize; 3];
    let n = match op {
        UpdateOp::AddPerson(p) => {
            s[0] = stripe_of(p.id.raw());
            1
        }
        UpdateOp::AddFriendship(k) => {
            s[0] = stripe_of(k.a.raw());
            s[1] = stripe_of(k.b.raw());
            2
        }
        UpdateOp::AddForum(f) => {
            s[0] = stripe_of(f.id.raw());
            1
        }
        UpdateOp::AddMembership(m) => {
            s[0] = stripe_of(m.person.raw());
            s[1] = stripe_of(m.forum.raw());
            2
        }
        UpdateOp::AddPost(p) => {
            s[0] = stripe_of(p.author.raw());
            s[1] = stripe_of(p.forum.raw());
            s[2] = stripe_of(p.id.raw());
            3
        }
        UpdateOp::AddComment(c) => {
            s[0] = stripe_of(c.author.raw());
            s[1] = stripe_of(c.reply_to.raw());
            s[2] = stripe_of(c.id.raw());
            3
        }
        UpdateOp::AddPostLike(l) | UpdateOp::AddCommentLike(l) => {
            s[0] = stripe_of(l.person.raw());
            s[1] = stripe_of(l.message.raw());
            2
        }
    };
    s[..n].sort_unstable();
    let mut m = 1;
    for i in 1..n {
        if s[i] != s[m - 1] {
            s[m] = s[i];
            m += 1;
        }
    }
    (s, m)
}

/// All tables of the store, shared lock-free between readers and writers.
/// Insert methods take `&self` but require the caller to hold the stripe
/// locks covering every id they write (the per-list single-writer
/// guarantee behind [`IndexTail::push`]).
#[derive(Debug)]
pub(crate) struct Tables {
    pub(crate) persons: EntityTable<Person>,
    pub(crate) forums: EntityTable<Forum>,
    pub(crate) messages: EntityTable<MessageRow>,
    /// knows adjacency, both directions; Entry.id = other person.
    pub(crate) knows: IndexTable,
    /// per-person authored messages; Entry.id = message.
    pub(crate) person_messages: IndexTable,
    /// per-person authored posts only (no comments); Entry.id = message.
    /// A covering index for the "posts by circle" queries (Q6, Q10):
    /// without it they scan `person_messages` and pay one random probe
    /// into the fat message table per entry just to discard replies —
    /// measured as the dominant cost of the complex mix.
    pub(crate) person_posts: IndexTable,
    /// per-forum posts; Entry.id = message.
    pub(crate) forum_posts: IndexTable,
    /// per-forum members; Entry.id = person, date = join date.
    pub(crate) forum_members: IndexTable,
    /// per-person joined forums; Entry.id = forum, date = join date.
    pub(crate) person_forums: IndexTable,
    /// per-message direct replies; Entry.id = replying comment.
    pub(crate) message_replies: IndexTable,
    /// per-message likes; Entry.id = liking person.
    pub(crate) message_likes: IndexTable,
    /// per-person given likes; Entry.id = liked message.
    pub(crate) person_likes: IndexTable,
}

impl Tables {
    fn new() -> Tables {
        Tables {
            persons: SegVec::new(),
            forums: SegVec::new(),
            messages: SegVec::new(),
            knows: SegVec::new(),
            person_messages: SegVec::new(),
            person_posts: SegVec::new(),
            forum_posts: SegVec::new(),
            forum_members: SegVec::new(),
            person_forums: SegVec::new(),
            message_replies: SegVec::new(),
            message_likes: SegVec::new(),
            person_likes: SegVec::new(),
        }
    }

    /// Whether no entity has ever been inserted (the parallel loader can
    /// only build a store from scratch).
    fn is_empty(&self) -> bool {
        self.persons.high() == 0 && self.forums.high() == 0 && self.messages.high() == 0
    }

    /// The list at `i`, created empty on first touch (with the bound
    /// raised, replicating the old `ensure` slot parity).
    fn list(table: &IndexTable, i: usize) -> &IndexList {
        table.bump(i + 1);
        table.slot(i).get_or_init(IndexList::default)
    }

    fn validate(&self, op: &UpdateOp) -> SnbResult<()> {
        let person_exists = |id: PersonId| -> SnbResult<()> {
            self.persons
                .get(id.index())
                .map(|_| ())
                .ok_or(SnbError::NotFound { entity: "person", id: id.raw() })
        };
        let forum_exists = |id: ForumId| -> SnbResult<()> {
            self.forums
                .get(id.index())
                .map(|_| ())
                .ok_or(SnbError::NotFound { entity: "forum", id: id.raw() })
        };
        let message_exists = |id: MessageId| -> SnbResult<()> {
            self.messages
                .get(id.index())
                .map(|_| ())
                .ok_or(SnbError::NotFound { entity: "message", id: id.raw() })
        };
        match op {
            UpdateOp::AddPerson(p) => {
                if self.persons.get(p.id.index()).is_some() {
                    return Err(SnbError::Constraint(format!("duplicate person {}", p.id)));
                }
            }
            UpdateOp::AddFriendship(k) => {
                if k.a == k.b {
                    return Err(SnbError::Constraint("self-friendship".into()));
                }
                person_exists(k.a)?;
                person_exists(k.b)?;
            }
            UpdateOp::AddForum(f) => {
                person_exists(f.moderator)?;
                if self.forums.get(f.id.index()).is_some() {
                    return Err(SnbError::Constraint(format!("duplicate forum {}", f.id)));
                }
            }
            UpdateOp::AddMembership(m) => {
                person_exists(m.person)?;
                forum_exists(m.forum)?;
            }
            UpdateOp::AddPost(p) => {
                person_exists(p.author)?;
                forum_exists(p.forum)?;
                if self.messages.get(p.id.index()).is_some() {
                    return Err(SnbError::Constraint(format!("duplicate message {}", p.id)));
                }
            }
            UpdateOp::AddComment(c) => {
                person_exists(c.author)?;
                forum_exists(c.forum)?;
                message_exists(c.reply_to)?;
                message_exists(c.root_post)?;
                if self.messages.get(c.id.index()).is_some() {
                    return Err(SnbError::Constraint(format!("duplicate message {}", c.id)));
                }
            }
            UpdateOp::AddPostLike(l) | UpdateOp::AddCommentLike(l) => {
                person_exists(l.person)?;
                message_exists(l.message)?;
            }
        }
        Ok(())
    }

    fn insert_person(&self, p: Person, ts: CommitTs) {
        let i = p.id.index();
        self.knows.bump(i + 1);
        self.person_messages.bump(i + 1);
        self.person_posts.bump(i + 1);
        self.person_forums.bump(i + 1);
        self.person_likes.bump(i + 1);
        self.persons.install(i, Versioned { commit: ts, row: p });
    }

    fn insert_knows(&self, k: &Knows, ts: CommitTs) {
        let (a, b) = (k.a.index(), k.b.index());
        Self::list(&self.knows, a).push(Entry { date: k.creation_date, id: k.b.raw(), commit: ts });
        Self::list(&self.knows, b).push(Entry { date: k.creation_date, id: k.a.raw(), commit: ts });
    }

    fn insert_forum(&self, f: Forum, ts: CommitTs) {
        let i = f.id.index();
        self.forum_posts.bump(i + 1);
        self.forum_members.bump(i + 1);
        self.forums.install(i, Versioned { commit: ts, row: f });
    }

    fn insert_membership(&self, m: &ForumMembership, ts: CommitTs) {
        Self::list(&self.forum_members, m.forum.index()).push(Entry {
            date: m.join_date,
            id: m.person.raw(),
            commit: ts,
        });
        Self::list(&self.person_forums, m.person.index()).push(Entry {
            date: m.join_date,
            id: m.forum.raw(),
            commit: ts,
        });
    }

    fn insert_message_row(&self, id: MessageId, row: MessageRow, ts: CommitTs) {
        let i = id.index();
        self.message_replies.bump(i + 1);
        self.message_likes.bump(i + 1);
        Self::list(&self.person_messages, row.author.index()).push(Entry {
            date: row.creation_date,
            id: id.raw(),
            commit: ts,
        });
        self.messages.install(i, Versioned { commit: ts, row });
    }

    fn insert_post(&self, p: &Post, ts: CommitTs) {
        Self::list(&self.forum_posts, p.forum.index()).push(Entry {
            date: p.creation_date,
            id: p.id.raw(),
            commit: ts,
        });
        Self::list(&self.person_posts, p.author.index()).push(Entry {
            date: p.creation_date,
            id: p.id.raw(),
            commit: ts,
        });
        self.insert_message_row(p.id, post_row(p), ts);
    }

    fn insert_comment(&self, c: &Comment, ts: CommitTs) {
        Self::list(&self.message_replies, c.reply_to.index()).push(Entry {
            date: c.creation_date,
            id: c.id.raw(),
            commit: ts,
        });
        self.insert_message_row(c.id, comment_row(c), ts);
    }

    fn insert_like(&self, l: &Like, ts: CommitTs) {
        Self::list(&self.message_likes, l.message.index()).push(Entry {
            date: l.creation_date,
            id: l.person.raw(),
            commit: ts,
        });
        Self::list(&self.person_likes, l.person.index()).push(Entry {
            date: l.creation_date,
            id: l.message.raw(),
            commit: ts,
        });
    }

    /// `(name, measured footprint)` for each of the nine index tables:
    /// compact run bytes, raw tail bytes, and the uncompressed-oracle cost
    /// of the same runs (see [`crate::stats::IndexFootprint`]).
    fn index_footprints(&self) -> Vec<(&'static str, crate::stats::IndexFootprint)> {
        let foot = |t: &IndexTable| {
            let mut f = crate::stats::IndexFootprint::default();
            for i in 0..t.high() {
                if let Some(l) = t.get(i) {
                    let (run_bytes, run_entries, tail_bytes) = l.mem();
                    f.entries += l.len();
                    f.run_bytes += run_bytes;
                    f.tail_bytes += tail_bytes;
                    f.oracle_run_bytes += run_entries * std::mem::size_of::<Entry>();
                }
            }
            f
        };
        vec![
            ("knows", foot(&self.knows)),
            ("person_messages", foot(&self.person_messages)),
            ("person_posts", foot(&self.person_posts)),
            ("forum_posts", foot(&self.forum_posts)),
            ("forum_members", foot(&self.forum_members)),
            ("person_forums", foot(&self.person_forums)),
            ("message_replies", foot(&self.message_replies)),
            ("message_likes", foot(&self.message_likes)),
            ("person_likes", foot(&self.person_likes)),
        ]
    }

    /// Raw element counts and byte sizes per table for storage statistics.
    fn sizes(&self) -> crate::stats::RawSizes {
        let persons = || (0..self.persons.high()).filter_map(|i| self.persons.get(i));
        let forums = || (0..self.forums.high()).filter_map(|i| self.forums.get(i));
        let messages = || (0..self.messages.high()).filter_map(|i| self.messages.get(i));
        crate::stats::RawSizes {
            persons: persons().count(),
            person_bytes: persons()
                .map(|v| {
                    160 + v.row.location_ip.len()
                        + v.row.emails.iter().map(|e| e.len()).sum::<usize>()
                        + v.row.interests.len() * 8
                        + v.row.work_at.len() * 16
                })
                .sum(),
            forums: forums().count(),
            forum_bytes: forums().map(|v| 64 + v.row.title.len() + v.row.tags.len() * 8).sum(),
            messages: messages().count(),
            message_bytes: messages()
                .map(|v| v.row.content.len() + v.row.tags.len() * 8 + 64)
                .sum(),
            per_index: self.index_footprints(),
        }
    }
}

/// Default bulk-load parallelism: the machine's cores, capped — loading is
/// memory-bound well before 8 threads.
fn default_load_threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1).min(8)
}

/// [`MessageRow`] for a post — shared by the incremental insert path and
/// the parallel bulk loader so both produce identical rows.
pub(crate) fn post_row(p: &Post) -> MessageRow {
    MessageRow {
        author: p.author,
        forum: p.forum,
        creation_date: p.creation_date,
        content: p.content.as_str().into(),
        image_file: p.image_file.as_deref().map(Into::into),
        tags: p.tags.clone().into_boxed_slice(),
        language: p.language,
        country: p.country as u32,
        reply_info: None,
    }
}

/// [`MessageRow`] for a comment — shared like [`post_row`].
pub(crate) fn comment_row(c: &Comment) -> MessageRow {
    MessageRow {
        author: c.author,
        forum: c.forum,
        creation_date: c.creation_date,
        content: c.content.as_str().into(),
        image_file: None,
        tags: c.tags.clone().into_boxed_slice(),
        language: "",
        country: c.country as u32,
        reply_info: Some((c.reply_to, c.root_post)),
    }
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
    /// ids it writes, in ascending order (deadlock-free).
    stripes: [Mutex<()>; STRIPES],
    clock: CommitClock,
    wal: Option<Wal>,
    counters: StoreCounters,
}

impl Default for Store {
    fn default() -> Self {
        Store::new()
    }
}

fn stripe_locks() -> [Mutex<()>; STRIPES] {
    std::array::from_fn(|_| Mutex::new(()))
}

impl Store {
    /// Empty store without durability.
    pub fn new() -> Store {
        Store {
            tables: Tables::new(),
            stripes: stripe_locks(),
            clock: CommitClock::new(),
            wal: None,
            counters: StoreCounters::new(),
        }
    }

    /// Empty store logging every committed transaction to a write-ahead log
    /// at `path` (created or truncated), without fsync — the historical
    /// behaviour, equivalent to [`SyncPolicy::Never`].
    pub fn with_wal(path: &Path) -> SnbResult<Store> {
        Store::with_wal_policy(path, SyncPolicy::Never)
    }

    /// Empty store logging to a write-ahead log at `path` (created or
    /// truncated) under `policy`: commits are acknowledged only once the
    /// policy's durability requirement holds for their record.
    pub fn with_wal_policy(path: &Path, policy: SyncPolicy) -> SnbResult<Store> {
        let counters = StoreCounters::new();
        let wal = Wal::create_with(path, policy, counters.wal_metrics())?;
        Ok(Store {
            tables: Tables::new(),
            stripes: stripe_locks(),
            clock: CommitClock::new(),
            wal: Some(wal),
            counters,
        })
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

    /// Recover a store by bulk-loading `bulk` and replaying the WAL at
    /// `path`, without keeping the log attached for further durability
    /// (reopens it under [`SyncPolicy::Never`]).
    pub fn recover(bulk: &snb_datagen::Dataset, path: &Path) -> SnbResult<(Store, RecoveryReport)> {
        Store::recover_with_policy(bulk, path, SyncPolicy::Never)
    }

    /// Recover a store and keep appending to the same log: bulk-load
    /// `bulk`, replay the WAL's intact prefix, physically truncate its torn
    /// tail (reported and counted in `store.wal.recovery_truncated_bytes`),
    /// and resume the log at the next sequence number under `policy`.
    pub fn recover_with_policy(
        bulk: &snb_datagen::Dataset,
        path: &Path,
        policy: SyncPolicy,
    ) -> SnbResult<(Store, RecoveryReport)> {
        let counters = StoreCounters::new();
        let (wal, replay) = Wal::open_append(path, policy, counters.wal_metrics())?;
        let report = RecoveryReport {
            replayed: replay.ops.len() as u64,
            truncated_bytes: replay.truncated_bytes,
            truncated_records: replay.truncated_records,
            last_seq: replay.last_seq,
        };
        let store = Store {
            tables: Tables::new(),
            stripes: stripe_locks(),
            clock: CommitClock::new(),
            wal: Some(wal),
            counters,
        };
        store.bulk_load(bulk);
        for op in &replay.ops {
            store.apply_internal(op, false)?;
        }
        Ok((store, report))
    }

    /// Bulk-load every entity of `ds` with a creation date at or before the
    /// configured update split (§4: "32 months are bulkloaded at benchmark
    /// start"). Bulk rows carry [`BULK_TS`] and are visible to every
    /// snapshot. Uses the parallel sorted loader on an empty store.
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
    /// loader threads.
    ///
    /// On an empty store this always takes the parallel sorted path
    /// ([`crate::loader`]): partition every id space into contiguous
    /// per-thread ranges, build each table slice and adjacency list on its
    /// owning thread, sort every date-ordered index **once**, and install
    /// the lists as immutable bulk prefixes — the result is identical at
    /// any thread count (including 1). A non-empty store (incremental
    /// top-up loads, as used by a few experiments) falls back to the
    /// serial insert path under all write stripes, which composes with
    /// existing contents by appending [`BULK_TS`] tail entries.
    ///
    /// Bulk loading is not atomic with respect to concurrent readers —
    /// run it before serving queries, as the benchmark does.
    pub fn bulk_load_until_threads(&self, ds: &snb_datagen::Dataset, cut: SimTime, threads: usize) {
        if self.tables.is_empty() {
            crate::loader::build_into(&self.tables, ds, cut, threads.max(1));
            return;
        }
        let _guards: Vec<MutexGuard<'_, ()>> = self.stripes.iter().map(|m| m.lock()).collect();
        for p in &ds.persons {
            if p.creation_date <= cut {
                self.tables.insert_person(p.clone(), BULK_TS);
            }
        }
        for k in &ds.knows {
            if k.creation_date <= cut {
                self.tables.insert_knows(k, BULK_TS);
            }
        }
        for f in &ds.forums {
            if f.creation_date <= cut {
                self.tables.insert_forum(f.clone(), BULK_TS);
            }
        }
        for m in &ds.memberships {
            if m.join_date <= cut {
                self.tables.insert_membership(m, BULK_TS);
            }
        }
        for p in &ds.posts {
            if p.creation_date <= cut {
                self.tables.insert_post(p, BULK_TS);
            }
        }
        for c in &ds.comments {
            if c.creation_date <= cut {
                self.tables.insert_comment(c, BULK_TS);
            }
        }
        for l in &ds.likes {
            if l.creation_date <= cut {
                self.tables.insert_like(l, BULK_TS);
            }
        }
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
    /// WAL order is no longer equal to commit-timestamp order (two
    /// shard-disjoint writers append in whatever order they reach the
    /// log), but it still *respects dependencies*: a transaction B that
    /// validated against A's rows can only have seen them after A's
    /// append (A appends before it installs any row), so A precedes B in
    /// the log and prefix-consistent recovery replays every dependency
    /// before its dependent. The durability wait happens after all locks
    /// are released (early lock release): group commit batches fsyncs
    /// across concurrent committers without serializing the in-memory work
    /// behind the disk. A commit may be briefly visible to snapshots
    /// before it is durable, but it is never acknowledged to the caller
    /// until it is — the standard group-commit contract.
    pub fn apply(&self, op: &UpdateOp) -> SnbResult<()> {
        let (seq, published) = self.apply_internal(op, true)?;
        // The durable stage runs from publish to acknowledgement — group
        // commit wait plus the commit's bookkeeping tail — and is timed
        // even when it is a no-op (no WAL), so the seven stage histograms
        // tile `apply` end-to-end and their sums reconcile against
        // measured op latency.
        self.wait_durable(seq)?;
        let t1 = trace::now_nanos();
        self.counters.stages.durable_wait.record(t1 - published);
        trace::record_stage(&SPAN_DURABLE_WAIT, published / 1_000, t1 / 1_000);
        Ok(())
    }

    /// Pipelined commit, phase one: WAL-append, apply, publish — and return
    /// without waiting for durability. The commit is immediately visible to
    /// new snapshots (so causally dependent operations can proceed), but it
    /// MUST NOT be acknowledged until [`Store::wait_durable`] has been
    /// called on the returned sequence number. Because WAL order respects
    /// dependency order (see [`Store::apply`]), a crash before the sync
    /// loses only unacknowledged commits — never a dependency of a
    /// surviving record.
    pub fn apply_async(&self, op: &UpdateOp) -> SnbResult<Option<u64>> {
        self.apply_internal(op, true).map(|(seq, _)| seq)
    }

    /// Pipelined commit, phase two: block until the WAL record `seq` (and,
    /// the durable horizon being cumulative, every record before it) is
    /// durable per the [`SyncPolicy`]. `None` — an op applied with no WAL
    /// attached — and stores without a WAL return immediately.
    pub fn wait_durable(&self, seq: Option<u64>) -> SnbResult<()> {
        if let (Some(wal), Some(seq)) = (&self.wal, seq) {
            wal.wait_durable(seq)?;
        }
        Ok(())
    }

    /// Lock the stripes `op` writes to, ascending. A contended stripe is
    /// counted in `store.write.shard_conflicts` before blocking, and the
    /// time spent blocked lands in that stripe's acquire-wait histogram —
    /// the per-stripe heatmap that separates "one hot stripe" from
    /// "uniform collision pressure".
    fn lock_stripes(&self, op: &UpdateOp) -> Vec<MutexGuard<'_, ()>> {
        let (set, n) = stripe_set(op);
        let mut guards = Vec::with_capacity(n);
        for &i in &set[..n] {
            match self.stripes[i].try_lock() {
                Some(g) => guards.push(g),
                None => {
                    self.counters.write_shard_conflicts.inc();
                    let blocked = trace::now_nanos();
                    let g = self.stripes[i].lock();
                    self.counters.stripes.note_conflict(i, trace::now_nanos() - blocked);
                    guards.push(g);
                }
            }
        }
        guards
    }

    /// Striped phase of [`Store::apply`]. Returns the WAL sequence number
    /// to await when a log append happened.
    ///
    /// Ordering within the stripe critical section is load-bearing:
    /// everything fallible (validation, the WAL append) happens **before**
    /// [`CommitClock::reserve`], because every reserved timestamp must be
    /// published or the visibility watermark would wedge at the gap; and
    /// the append happens **before** any row is installed so WAL order
    /// respects dependency order (see [`Store::apply`]). `publish` is
    /// out-of-order and non-blocking (ring wraparound aside — see
    /// [`CommitClock::publish`]): a descheduled writer delays only the
    /// watermark, never other committers.
    /// Returns the WAL sequence to await plus the publish-end timestamp
    /// ([`trace::now_nanos`]) where the `durable_wait` stage begins.
    fn apply_internal(&self, op: &UpdateOp, log: bool) -> SnbResult<(Option<u64>, u64)> {
        // Stage boundaries double as histogram samples and (when a trace
        // is live) causal child spans of the caller's op span. The six
        // stages here plus `durable_wait` in `apply` tile the committed
        // path end-to-end. Failed validations record their stripe wait
        // plus a `validate_failed` sample (kept out of the committed-path
        // tiling), so contention burned before a conflict still shows up
        // in the attribution exactly when conflicts spike.
        let t0 = trace::now_nanos();
        let guards = self.lock_stripes(op);
        let t1 = trace::now_nanos();
        if let Err(e) = self.tables.validate(op) {
            let t_failed = trace::now_nanos();
            self.counters.conflicts.inc();
            let st = &self.counters.stages;
            st.stripe_wait.record(t1 - t0);
            st.validate_failed.record(t_failed - t1);
            if trace::tracing_possible() {
                trace::record_stage(&SPAN_STRIPE_WAIT, t0 / 1_000, t1 / 1_000);
                trace::record_stage(&SPAN_VALIDATE_FAILED, t1 / 1_000, t_failed / 1_000);
            }
            return Err(e);
        }
        let t2 = trace::now_nanos();
        let mut seq = None;
        if log {
            if let Some(wal) = &self.wal {
                let appended = wal.append(op)?;
                self.counters.wal_appends.inc();
                self.counters.wal_bytes.add(appended.bytes);
                seq = Some(appended.seq);
            }
        }
        let t3 = trace::now_nanos();
        let ts = self.clock.reserve();
        let t4 = trace::now_nanos();
        match op {
            UpdateOp::AddPerson(p) => self.tables.insert_person(p.clone(), ts),
            UpdateOp::AddPostLike(l) | UpdateOp::AddCommentLike(l) => {
                self.tables.insert_like(l, ts)
            }
            UpdateOp::AddForum(f) => self.tables.insert_forum(f.clone(), ts),
            UpdateOp::AddMembership(m) => self.tables.insert_membership(m, ts),
            UpdateOp::AddPost(p) => self.tables.insert_post(p, ts),
            UpdateOp::AddComment(c) => self.tables.insert_comment(c, ts),
            UpdateOp::AddFriendship(k) => self.tables.insert_knows(k, ts),
        }
        let t5 = trace::now_nanos();
        let publication = self.clock.publish(ts);
        let t6 = trace::now_nanos();
        self.counters.commits.inc();
        drop(guards);
        self.counters.publish_parks.add(publication.parked);
        self.counters.watermark_lag.record(publication.lag);
        let st = &self.counters.stages;
        st.stripe_wait.record(t1 - t0);
        st.validate.record(t2 - t1);
        st.wal_append.record(t3 - t2);
        st.reserve.record(t4 - t3);
        st.apply.record(t5 - t4);
        st.publish_wait.record(t6 - t5);
        if trace::tracing_possible() {
            trace::record_stage(&SPAN_STRIPE_WAIT, t0 / 1_000, t1 / 1_000);
            trace::record_stage(&SPAN_VALIDATE, t1 / 1_000, t2 / 1_000);
            trace::record_stage(&SPAN_WAL_APPEND, t2 / 1_000, t3 / 1_000);
            trace::record_stage(&SPAN_RESERVE, t3 / 1_000, t4 / 1_000);
            trace::record_stage(&SPAN_APPLY, t4 / 1_000, t5 / 1_000);
            trace::record_stage(&SPAN_PUBLISH_WAIT, t5 / 1_000, t6 / 1_000);
        }
        Ok((seq, t6))
    }

    /// Flush the WAL (an fsync durability point under any policy other than
    /// [`SyncPolicy::Never`]).
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
        self.counters.read_latchfree.inc();
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
        }
    }
}

/// The consistent, latch-free read view of the store (see
/// [`Store::pinned`]).
///
/// The snapshot pins a commit timestamp; consistency comes from MVCC
/// visibility alone — every accessor filters by the pinned timestamp, so
/// the snapshot observes exactly the transactions committed before it was
/// opened, no matter how many commit during the query.
///
/// Accessors hand out references and zero-allocation iterators tied to the
/// store's immutable segments ([`PinnedSnapshot::friends_iter`],
/// [`PinnedSnapshot::recent_messages_walk`], [`PinnedSnapshot::person_ref`]
/// …). The owned-`Vec` accessors beside them ([`PinnedSnapshot::friends`]
/// …) run an independent eager merge of the same lists; the property tests
/// compare the iterators against it.
pub struct PinnedSnapshot<'a> {
    tables: &'a Tables,
    ts: CommitTs,
    counters: &'a StoreCounters,
}

/// `(entity id, date)` pair yielded by index scans.
pub type Dated = (u64, SimTime);

/// Fixed-size message header for traversal-heavy queries; cloning the full
/// [`MessageRow`] (content included) is reserved for result materialization.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MessageMeta {
    /// Author.
    pub author: PersonId,
    /// Containing forum.
    pub forum: ForumId,
    /// Creation date.
    pub creation_date: SimTime,
    /// Country the message was sent from.
    pub country: u32,
    /// `None` for posts; `Some((reply_to, root_post))` for comments.
    pub reply_info: Option<(MessageId, MessageId)>,
}

/// The shared read-path implementation: all primitives over the shared
/// [`Tables`], parameterized by the snapshot timestamp.
/// [`PinnedSnapshot`] delegates here; the borrowing iterators merge a
/// list's published ladder runs (visibility-filtered as they are reached)
/// with the immutable bulk prefix on the fly.
#[derive(Clone, Copy)]
struct ReadView<'g> {
    tables: &'g Tables,
    ts: CommitTs,
    counters: &'g StoreCounters,
}

/// Ascending two-pointer merge of a (compact) sorted bulk prefix and a
/// sorted, already-visibility-filtered tail batch.
fn merge_ascending(mut prefix: Cursor<'_>, tail: &[Entry], out: &mut Vec<Dated>) {
    out.reserve(prefix.remaining() + tail.len());
    let mut t = 0usize;
    while let Some(p) = prefix.peek() {
        while t < tail.len() && key(&tail[t]) < key(&p) {
            out.push((tail[t].id, tail[t].date));
            t += 1;
        }
        out.push((p.id, p.date));
        prefix.advance();
    }
    for e in &tail[t..] {
        out.push((e.id, e.date));
    }
}

impl<'g> ReadView<'g> {
    /// Account one keyed point lookup: `examined` when a versioned row was
    /// present, `kept` when it was visible to this snapshot. Ticks the
    /// store counters and the current query profile (if any).
    fn note_probe(&self, examined: bool, kept: bool) {
        tick_index_probes(1);
        if examined {
            let c = self.counters;
            c.versions_walked.add(1);
            if !kept {
                c.versions_skipped.inc();
            }
            tick_versions_walked(1);
        }
    }

    /// Account one index scan: `fast` entries served from the always-
    /// visible fast lane (bulk prefix, plus [`BULK_TS`] tail entries from
    /// top-up loads — no visibility check either way), `examined`
    /// version-stamped entries walked of which `kept` were visible. Both
    /// lanes funnel through here so they stay consistently accounted:
    /// every touched entry lands in exactly one of
    /// `store.read.fastlane_entries` or `store.mvcc.versions_walked`.
    /// The eager `Vec` APIs account their whole gathered tail up front;
    /// the lazy iterators batch per-entry accounting as they go and flush
    /// it on drop (see [`flush_scan_accounting`]) — an early-exiting
    /// caller reports only what it actually touched.
    fn note_scan(&self, fast: usize, examined: usize, kept: usize) {
        let c = self.counters;
        if fast > 0 {
            c.read_fastlane_entries.add(fast as u64);
        }
        if examined > 0 {
            c.versions_walked.add(examined as u64);
            c.versions_skipped.add((examined - kept) as u64);
            tick_versions_walked(examined as u64);
        }
    }

    fn person_ref(&self, id: PersonId) -> Option<&'g Person> {
        let slot = self.tables.persons.get(id.index());
        let vis = slot.filter(|v| visible(v.commit, self.ts));
        self.note_probe(slot.is_some(), vis.is_some());
        vis.map(|v| &v.row)
    }

    fn forum_ref(&self, id: ForumId) -> Option<&'g Forum> {
        let slot = self.tables.forums.get(id.index());
        let vis = slot.filter(|v| visible(v.commit, self.ts));
        self.note_probe(slot.is_some(), vis.is_some());
        vis.map(|v| &v.row)
    }

    fn message_ref(&self, id: MessageId) -> Option<&'g MessageRow> {
        let slot = self.tables.messages.get(id.index());
        let vis = slot.filter(|v| visible(v.commit, self.ts));
        self.note_probe(slot.is_some(), vis.is_some());
        vis.map(|v| &v.row)
    }

    fn message_meta(&self, id: MessageId) -> Option<MessageMeta> {
        self.message_ref(id).map(|row| MessageMeta {
            author: row.author,
            forum: row.forum,
            creation_date: row.creation_date,
            country: row.country,
            reply_info: row.reply_info,
        })
    }

    /// Materialize a whole index list, ascending `(date, id)`.
    ///
    /// Deliberately NOT written as `self.iter(list).collect()`: this merge
    /// and [`DatedIter`] are independent implementations of the same scan,
    /// so the property test comparing the `Vec` API against the iterator
    /// API actually checks something.
    fn collect(&self, list: Option<&IndexList>) -> Vec<Dated> {
        let Some(list) = list else {
            return Vec::new();
        };
        let bulk = list.bulk();
        let mut tail = Vec::new();
        let (fast_t, examined, kept) = list.gather_tail(self.ts, |_| true, &mut tail);
        self.note_scan(bulk.len() + fast_t, examined, kept);
        let mut out = Vec::new();
        merge_ascending(bulk.cursor(), &tail, &mut out);
        out
    }

    /// Borrowing scan over a whole index list, ascending `(date, id)` —
    /// lazy: the tail's ladder runs are merged as the iterator is
    /// consumed, so an early-exiting caller never pays for the rest.
    fn iter(&self, list: Option<&'g IndexList>) -> DatedIter<'g> {
        let mut it = DatedIter {
            prefix: Cursor::empty(),
            pbuf: [(0, SimTime(0)); FILL_DATED],
            pbuf_pos: 0,
            pbuf_len: 0,
            runs: std::array::from_fn(|_| Cursor::empty()),
            nruns: 0,
            cur: NO_LANE,
            bound: (SimTime(0), 0),
            ts: self.ts,
            counters: self.counters,
            fast: 0,
            examined: 0,
            kept: 0,
            span_start: if trace::tracing_possible() { trace::now_micros().max(1) } else { 0 },
        };
        if let Some(l) = list {
            it.prefix = l.bulk().cursor();
            if let Some(tail) = l.tail() {
                let mut lanes = [None; MAX_RUNS];
                let n = tail.decompose(tail.published_len(), &mut lanes);
                for lane in lanes[..n].iter().flatten() {
                    it.runs[it.nruns] = match lane {
                        LaneSrc::Single(e) => Cursor::single(**e),
                        LaneSrc::Run(r) => r.cursor(),
                    };
                    it.nruns += 1;
                }
            }
        }
        it
    }

    /// Borrowing reverse scan (newest first) over the entries dated at or
    /// before `max_date` — lazy, same run-merge structure as
    /// [`ReadView::iter`] consumed from the back.
    fn recent_walk(&self, list: Option<&'g IndexList>, max_date: SimTime) -> RecentWalk<'g> {
        let mut w = RecentWalk {
            prefix: RevCursor::empty(),
            runs: std::array::from_fn(|_| RevCursor::empty()),
            nruns: 0,
            cur: NO_LANE,
            bound: (SimTime(0), 0),
            ts: self.ts,
            counters: self.counters,
            fast: 0,
            examined: 0,
            kept: 0,
            span_start: if trace::tracing_possible() { trace::now_micros().max(1) } else { 0 },
        };
        if let Some(l) = list {
            w.prefix = RevCursor::to_date_bound(l.bulk(), max_date);
            if let Some(tail) = l.tail() {
                let mut lanes = [None; MAX_RUNS];
                let n = tail.decompose(tail.published_len(), &mut lanes);
                for lane in lanes[..n].iter().flatten() {
                    let bounded = match lane {
                        LaneSrc::Single(e) => {
                            if e.date > max_date {
                                continue;
                            }
                            RevCursor::single(**e)
                        }
                        LaneSrc::Run(r) => {
                            let c = RevCursor::to_date_bound(r, max_date);
                            if c.remaining() == 0 {
                                continue;
                            }
                            c
                        }
                    };
                    w.runs[w.nruns] = bounded;
                    w.nruns += 1;
                }
            }
        }
        w
    }

    fn recent_messages_of(&self, id: PersonId, max_date: SimTime, k: usize) -> Vec<Dated> {
        let walk = self.recent_walk(self.tables.person_messages.get(id.index()), max_date);
        let mut out = Vec::with_capacity(k);
        out.extend(walk.take(k));
        out
    }

    fn forums_of_after(&self, id: PersonId, min_date: SimTime) -> Vec<Dated> {
        let Some(list) = self.tables.person_forums.get(id.index()) else {
            return Vec::new();
        };
        let bulk = list.bulk();
        let prefix = Cursor::at(bulk, bulk.upper_bound_date(min_date));
        let mut tail = Vec::new();
        let (fast_t, examined, kept) = list.gather_tail(self.ts, |e| e.date > min_date, &mut tail);
        self.note_scan(prefix.remaining() + fast_t, examined, kept);
        let mut out = Vec::new();
        merge_ascending(prefix, &tail, &mut out);
        out
    }

    fn are_friends(&self, a: PersonId, b: PersonId) -> bool {
        let Some(list) = self.tables.knows.get(a.index()) else {
            self.note_scan(0, 0, 0);
            return false;
        };
        let mut fast = 0usize;
        let mut examined = 0usize;
        let mut kept = 0usize;
        let mut found = false;
        let mut cursor = list.bulk().cursor();
        while let Some(e) = cursor.peek() {
            fast += 1;
            if e.id == b.raw() {
                found = true;
                break;
            }
            cursor.advance();
        }
        if !found {
            if let Some(tail) = list.tail() {
                let n = tail.published_len();
                for i in 0..n {
                    let e = tail.published(i);
                    if e.commit == BULK_TS {
                        fast += 1;
                        if e.id == b.raw() {
                            found = true;
                            break;
                        }
                    } else {
                        examined += 1;
                        if e.id == b.raw() && visible(e.commit, self.ts) {
                            kept = 1;
                            found = true;
                            break;
                        }
                    }
                }
            }
        }
        self.note_scan(fast, examined, kept);
        found
    }
}

/// Zero-allocation iterator over the visible entries of one index list,
/// ascending `(date, id)` — a lazy k-way merge of the immutable bulk
/// prefix (yielded without visibility checks) and the list's ladder runs
/// (at most one immutable sorted run per level; see [`IndexTail`]).
/// Versioned run entries are MVCC-filtered as they are reached, so an
/// early-exiting caller pays only for what it consumed. All accounting is
/// batched locally and flushed once, on drop.
pub struct DatedIter<'g> {
    prefix: Cursor<'g>,
    /// Decoded read-ahead for the prefix lane (prefix entries bypass MVCC,
    /// so only ids and dates are kept). Covers cursor ranks
    /// `[prefix.rank, prefix.rank + (pbuf_len - pbuf_pos))`: serving an
    /// entry advances `pbuf_pos` and the cursor together.
    pbuf: [Dated; FILL_DATED],
    pbuf_pos: u32,
    pbuf_len: u32,
    runs: [Cursor<'g>; MAX_RUNS],
    nruns: usize,
    /// Lane that yielded last (`nruns` = the prefix, [`NO_LANE`] = must
    /// rescan). Dates correlate with append order, so the winning lane
    /// usually wins again: draining it until its head crosses `bound`
    /// makes the common per-entry cost one comparison, not one per lane.
    cur: usize,
    /// Smallest head among the *other* lanes when `cur` was selected.
    bound: (SimTime, u64),
    ts: CommitTs,
    counters: &'g StoreCounters,
    fast: u64,
    examined: u64,
    kept: u64,
    /// Construction time when a trace was live (0 = untraced); the ladder
    /// merge becomes one `store.read.ladder_merge` span on drop.
    span_start: u64,
}

/// Lane-cache sentinel: no lane selected, rescan all heads.
const NO_LANE: usize = usize::MAX;

impl DatedIter<'_> {
    /// The prefix lane's head, served from the read-ahead buffer —
    /// refilled block-wise via [`Cursor::fill_dated`] so whole-list drains
    /// decode in tight per-block loops instead of entry-at-a-time.
    #[inline]
    fn prefix_head(&mut self) -> Option<Dated> {
        if self.pbuf_pos < self.pbuf_len {
            return Some(self.pbuf[self.pbuf_pos as usize]);
        }
        let n = self.prefix.fill_dated(&mut self.pbuf);
        if n == 0 {
            return None;
        }
        self.pbuf_pos = 0;
        self.pbuf_len = n;
        Some(self.pbuf[0])
    }

    /// Consume the entry `prefix_head` returned.
    #[inline]
    fn prefix_advance(&mut self) {
        self.pbuf_pos += 1;
        self.prefix.advance();
    }
}

impl Iterator for DatedIter<'_> {
    type Item = Dated;

    fn next(&mut self) -> Option<Dated> {
        // Lists with no ladder tail — the common case on a bulk-heavy
        // store — are a plain prefix scan: skip the lane machinery.
        if self.nruns == 0 {
            let (id, date) = self.prefix_head()?;
            self.prefix_advance();
            self.fast += 1;
            return Some((id, date));
        }
        loop {
            if self.cur == NO_LANE {
                // Rescan every lane head; the runner-up key becomes the
                // bound the winner may drain up to. The bulk prefix is
                // considered first and wins ties, matching the eager
                // merge (run-vs-run ties are identical `(date, id)`
                // tuples either way).
                let inf = (SimTime(i64::MAX), u64::MAX);
                let (mut best, mut best_key, mut second) = (NO_LANE, inf, inf);
                if let Some((id, date)) = self.prefix_head() {
                    best = self.nruns;
                    best_key = (date, id);
                }
                for i in 0..self.nruns {
                    if let Some(h) = self.runs[i].peek() {
                        let k = key(&h);
                        if best == NO_LANE || k < best_key {
                            second = best_key;
                            best = i;
                            best_key = k;
                        } else if k < second {
                            second = k;
                        }
                    }
                }
                if best == NO_LANE {
                    return None;
                }
                self.cur = best;
                self.bound = second;
            }
            if self.cur == self.nruns {
                // Draining the prefix lane: commit-free decode, no MVCC.
                match self.prefix_head() {
                    Some((id, date)) if (date, id) <= self.bound => {
                        self.prefix_advance();
                        self.fast += 1;
                        return Some((id, date));
                    }
                    _ => {
                        self.cur = NO_LANE;
                        continue;
                    }
                }
            }
            match self.runs[self.cur].peek() {
                Some(e) if key(&e) <= self.bound => {
                    self.runs[self.cur].advance();
                    if e.commit == BULK_TS {
                        self.fast += 1;
                        return Some((e.id, e.date));
                    }
                    self.examined += 1;
                    if visible(e.commit, self.ts) {
                        self.kept += 1;
                        return Some((e.id, e.date));
                    }
                    // Invisible: skip and keep draining this lane.
                }
                _ => self.cur = NO_LANE, // exhausted or crossed the bound
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        // Prefix entries are always visible; run entries may be filtered.
        let tail: usize = self.runs[..self.nruns].iter().map(|r| r.remaining()).sum();
        (self.prefix.remaining(), Some(self.prefix.remaining() + tail))
    }
}

impl Drop for DatedIter<'_> {
    fn drop(&mut self) {
        flush_scan_accounting(self.counters, self.fast, self.examined, self.kept);
        if self.span_start != 0 {
            trace::record_stage(&SPAN_LADDER_MERGE, self.span_start, trace::now_micros());
        }
    }
}

/// Flush an iterator's locally batched scan accounting (see
/// [`ReadView::note_scan`] for the lane semantics).
fn flush_scan_accounting(c: &StoreCounters, fast: u64, examined: u64, kept: u64) {
    if fast > 0 {
        c.read_fastlane_entries.add(fast);
    }
    if examined > 0 {
        c.versions_walked.add(examined);
        c.versions_skipped.add(examined - kept);
        tick_versions_walked(examined);
    }
}

/// Zero-allocation reverse scan (newest first) over the entries of one
/// date-ordered index list at or before a date bound — the borrowing form
/// of the "top-k most recent before date" primitive. Same lazy run-merge
/// structure and accounting split as [`DatedIter`], but every lane is
/// consumed from the back (each run was date-bounded at construction).
pub struct RecentWalk<'g> {
    /// Remaining bulk-prefix entries, already bounded to `<= max_date`.
    prefix: RevCursor<'g>,
    /// Remaining ladder runs, each bounded to `<= max_date`, non-empty at
    /// construction.
    runs: [RevCursor<'g>; MAX_RUNS],
    nruns: usize,
    /// Lane cache, mirrored from [`DatedIter`] (largest key wins here).
    cur: usize,
    /// Largest tail key among the *other* lanes when `cur` was selected.
    bound: (SimTime, u64),
    ts: CommitTs,
    counters: &'g StoreCounters,
    fast: u64,
    examined: u64,
    kept: u64,
    /// As in [`DatedIter`]: trace-span begin, 0 = untraced.
    span_start: u64,
}

impl Iterator for RecentWalk<'_> {
    type Item = Dated;

    fn next(&mut self) -> Option<Dated> {
        // No ladder tail (the common case): a pure backward prefix scan.
        if self.nruns == 0 {
            let (id, date) = self.prefix.peek_back_dated()?;
            self.prefix.advance_back();
            self.fast += 1;
            return Some((id, date));
        }
        loop {
            if self.cur == NO_LANE {
                let ninf = (SimTime(i64::MIN), 0u64);
                let (mut best, mut best_key, mut second) = (NO_LANE, ninf, ninf);
                if let Some((id, date)) = self.prefix.peek_back_dated() {
                    best = self.nruns;
                    best_key = (date, id);
                }
                for i in 0..self.nruns {
                    if let Some(t) = self.runs[i].peek_back() {
                        let k = key(&t);
                        if best == NO_LANE || k > best_key {
                            second = best_key;
                            best = i;
                            best_key = k;
                        } else if k > second {
                            second = k;
                        }
                    }
                }
                if best == NO_LANE {
                    return None;
                }
                self.cur = best;
                self.bound = second;
            }
            if self.cur == self.nruns {
                // Draining the prefix lane: commit-free decode, no MVCC.
                match self.prefix.peek_back_dated() {
                    Some((id, date)) if (date, id) >= self.bound => {
                        self.prefix.advance_back();
                        self.fast += 1;
                        return Some((id, date));
                    }
                    _ => {
                        self.cur = NO_LANE;
                        continue;
                    }
                }
            }
            match self.runs[self.cur].peek_back() {
                Some(e) if key(&e) >= self.bound => {
                    self.runs[self.cur].advance_back();
                    if e.commit == BULK_TS {
                        self.fast += 1;
                        return Some((e.id, e.date));
                    }
                    self.examined += 1;
                    if visible(e.commit, self.ts) {
                        self.kept += 1;
                        return Some((e.id, e.date));
                    }
                }
                _ => self.cur = NO_LANE,
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let tail: usize = self.runs[..self.nruns].iter().map(|r| r.remaining()).sum();
        (self.prefix.remaining(), Some(self.prefix.remaining() + tail))
    }
}

impl Drop for RecentWalk<'_> {
    fn drop(&mut self) {
        flush_scan_accounting(self.counters, self.fast, self.examined, self.kept);
        if self.span_start != 0 {
            trace::record_stage(&SPAN_RECENT_WALK, self.span_start, trace::now_micros());
        }
    }
}

impl PinnedSnapshot<'_> {
    fn view(&self) -> ReadView<'_> {
        ReadView { tables: self.tables, ts: self.ts, counters: self.counters }
    }

    /// The snapshot's commit timestamp.
    pub fn ts(&self) -> CommitTs {
        self.ts
    }

    /// Person by id, if visible — borrowed from the store's segments.
    pub fn person_ref(&self, id: PersonId) -> Option<&Person> {
        self.view().person_ref(id)
    }

    /// Forum by id, if visible — borrowed from the store's segments.
    pub fn forum_ref(&self, id: ForumId) -> Option<&Forum> {
        self.view().forum_ref(id)
    }

    /// Full message row, if visible — borrowed from the store's segments.
    pub fn message_ref(&self, id: MessageId) -> Option<&MessageRow> {
        self.view().message_ref(id)
    }

    /// Person by id, if visible (cloned row).
    pub fn person(&self, id: PersonId) -> Option<Person> {
        self.person_ref(id).cloned()
    }

    /// Forum by id, if visible (cloned row).
    pub fn forum(&self, id: ForumId) -> Option<Forum> {
        self.forum_ref(id).cloned()
    }

    /// Full message row (content included), if visible (cloned row).
    pub fn message(&self, id: MessageId) -> Option<MessageRow> {
        self.message_ref(id).cloned()
    }

    /// Fixed-size message header, if visible.
    pub fn message_meta(&self, id: MessageId) -> Option<MessageMeta> {
        self.view().message_meta(id)
    }

    /// Tags of a message, borrowed (empty if the message is not visible).
    pub fn message_tags(&self, id: MessageId) -> &[TagId] {
        self.message_ref(id).map(|row| &row.tags[..]).unwrap_or(&[])
    }

    /// Upper bound of the person id space (for scans; slots may be empty).
    pub fn person_slots(&self) -> usize {
        self.tables.persons.high()
    }

    /// Upper bound of the forum id space.
    pub fn forum_slots(&self) -> usize {
        self.tables.forums.high()
    }

    /// Upper bound of the message id space.
    pub fn message_slots(&self) -> usize {
        self.tables.messages.high()
    }

    /// Friends of `id`, ascending by date — zero-allocation on bulk-only
    /// lists (a non-empty published tail is gathered once up front).
    pub fn friends_iter(&self, id: PersonId) -> DatedIter<'_> {
        self.view().iter(self.tables.knows.get(id.index()))
    }

    /// Messages authored by `id`, ascending by date — zero-allocation on
    /// bulk-only lists.
    pub fn messages_of_iter(&self, id: PersonId) -> DatedIter<'_> {
        self.view().iter(self.tables.person_messages.get(id.index()))
    }

    /// Posts (no comments) authored by `id`, ascending by date — the
    /// covering index behind the Q6/Q10 circle scans: every entry is a
    /// visible post, so consumers skip the per-message row probe that a
    /// `messages_of_iter` + reply filter would pay.
    pub fn posts_of_iter(&self, id: PersonId) -> DatedIter<'_> {
        self.view().iter(self.tables.person_posts.get(id.index()))
    }

    /// Posts in forum `id`, ascending by date — zero-allocation on
    /// bulk-only lists.
    pub fn posts_in_forum_iter(&self, id: ForumId) -> DatedIter<'_> {
        self.view().iter(self.tables.forum_posts.get(id.index()))
    }

    /// Members of forum `id` with join dates — zero-allocation on
    /// bulk-only lists.
    pub fn members_of_iter(&self, id: ForumId) -> DatedIter<'_> {
        self.view().iter(self.tables.forum_members.get(id.index()))
    }

    /// Forums `id` has joined, with join dates — zero-allocation on
    /// bulk-only lists.
    pub fn forums_of_iter(&self, id: PersonId) -> DatedIter<'_> {
        self.view().iter(self.tables.person_forums.get(id.index()))
    }

    /// Direct replies to message `id`, ascending by date — zero-allocation
    /// on bulk-only lists.
    pub fn replies_of_iter(&self, id: MessageId) -> DatedIter<'_> {
        self.view().iter(self.tables.message_replies.get(id.index()))
    }

    /// Likes on message `id` as `(person, like date)` — zero-allocation on
    /// bulk-only lists.
    pub fn likes_of_iter(&self, id: MessageId) -> DatedIter<'_> {
        self.view().iter(self.tables.message_likes.get(id.index()))
    }

    /// Likes given by person `id` as `(message, like date)` —
    /// zero-allocation on bulk-only lists.
    pub fn likes_by_iter(&self, id: PersonId) -> DatedIter<'_> {
        self.view().iter(self.tables.person_likes.get(id.index()))
    }

    /// The messages of `id` created at or before `max_date`, newest first —
    /// the borrowing form of [`PinnedSnapshot::recent_messages_of`]; bound
    /// it with `.take(k)` or a threshold-based early break.
    pub fn recent_messages_walk(&self, id: PersonId, max_date: SimTime) -> RecentWalk<'_> {
        self.view().recent_walk(self.tables.person_messages.get(id.index()), max_date)
    }

    /// Friends of `id` with friendship dates, ascending by date.
    pub fn friends(&self, id: PersonId) -> Vec<Dated> {
        self.view().collect(self.tables.knows.get(id.index()))
    }

    /// Messages authored by `id`, ascending by creation date.
    pub fn messages_of(&self, id: PersonId) -> Vec<Dated> {
        self.view().collect(self.tables.person_messages.get(id.index()))
    }

    /// Posts (no comments) authored by `id`, ascending by creation date.
    pub fn posts_of(&self, id: PersonId) -> Vec<Dated> {
        self.view().collect(self.tables.person_posts.get(id.index()))
    }

    /// The up-to-`k` most recent messages of `id` created at or before
    /// `max_date`, newest first.
    pub fn recent_messages_of(&self, id: PersonId, max_date: SimTime, k: usize) -> Vec<Dated> {
        self.view().recent_messages_of(id, max_date, k)
    }

    /// Posts in forum `id`, ascending by creation date.
    pub fn posts_in_forum(&self, id: ForumId) -> Vec<Dated> {
        self.view().collect(self.tables.forum_posts.get(id.index()))
    }

    /// Members of forum `id` with join dates.
    pub fn members_of(&self, id: ForumId) -> Vec<Dated> {
        self.view().collect(self.tables.forum_members.get(id.index()))
    }

    /// Forums `id` has joined, with join dates.
    pub fn forums_of(&self, id: PersonId) -> Vec<Dated> {
        self.view().collect(self.tables.person_forums.get(id.index()))
    }

    /// Forums `id` joined strictly after `min_date` (date-index range scan).
    pub fn forums_of_after(&self, id: PersonId, min_date: SimTime) -> Vec<Dated> {
        self.view().forums_of_after(id, min_date)
    }

    /// Direct replies to message `id`, ascending by date.
    pub fn replies_of(&self, id: MessageId) -> Vec<Dated> {
        self.view().collect(self.tables.message_replies.get(id.index()))
    }

    /// Likes on message `id` as `(person, like date)`.
    pub fn likes_of(&self, id: MessageId) -> Vec<Dated> {
        self.view().collect(self.tables.message_likes.get(id.index()))
    }

    /// Likes given by person `id` as `(message, like date)`.
    pub fn likes_by(&self, id: PersonId) -> Vec<Dated> {
        self.view().collect(self.tables.person_likes.get(id.index()))
    }

    /// Whether persons `a` and `b` are friends in this snapshot.
    pub fn are_friends(&self, a: PersonId, b: PersonId) -> bool {
        self.view().are_friends(a, b)
    }

    /// Storage statistics for the Table 8 experiment.
    pub fn storage_stats(&self) -> crate::stats::StorageStats {
        crate::stats::from_raw(self.tables.sizes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snb_core::dict::names::Gender;
    use snb_core::schema::ForumKind;

    fn person(id: u64, t: i64) -> Person {
        Person {
            id: PersonId(id),
            first_name: "Karl",
            last_name: "Muller",
            gender: Gender::Male,
            birthday: SimTime(0),
            creation_date: SimTime(t),
            city: 0,
            country: 0,
            browser: "Chrome",
            location_ip: "1.2.3.4".into(),
            languages: vec!["de"],
            emails: vec![],
            interests: vec![TagId(1)],
            study_at: None,
            work_at: vec![],
        }
    }

    fn forum(id: u64, moderator: u64, t: i64) -> Forum {
        Forum {
            id: ForumId(id),
            title: "wall".into(),
            moderator: PersonId(moderator),
            creation_date: SimTime(t),
            tags: vec![TagId(1)],
            kind: ForumKind::Wall,
        }
    }

    fn post(id: u64, author: u64, forum: u64, t: i64) -> Post {
        Post {
            id: MessageId(id),
            author: PersonId(author),
            forum: ForumId(forum),
            creation_date: SimTime(t),
            content: "hello".into(),
            image_file: None,
            tags: vec![TagId(1)],
            language: "de",
            country: 0,
        }
    }

    #[test]
    fn segvec_locate_covers_segment_boundaries() {
        type V = SegVec<u64, 10, 22>;
        // Segment k covers [((1<<k)-1)<<10, ((1<<(k+1))-1)<<10).
        assert_eq!(V::locate(0), (0, 0));
        assert_eq!(V::locate(1023), (0, 1023));
        assert_eq!(V::locate(1024), (1, 0));
        assert_eq!(V::locate(3071), (1, 2047));
        assert_eq!(V::locate(3072), (2, 0));
        assert_eq!(V::locate(7167), (2, 4095));
        assert_eq!(V::locate(7168), (3, 0));
        let v: V = SegVec::new();
        assert!(v.get(0).is_none());
        v.install(3000, 42);
        assert_eq!(v.get(3000), Some(&42));
        assert!(v.get(2999).is_none(), "bound raised but slot not installed");
        assert_eq!(v.high(), 3001);
    }

    #[test]
    fn index_list_tail_publication_and_merge() {
        let list = IndexList::from_bulk(vec![
            Entry { date: SimTime(10), id: 0, commit: BULK_TS },
            Entry { date: SimTime(30), id: 1, commit: BULK_TS },
        ]);
        assert_eq!(list.bulk().len(), 2);
        // Appends never disturb the immutable bulk prefix: a top-up bulk
        // entry, a committed entry, and a committed entry dated *inside*
        // the prefix all land in the published tail.
        list.push(Entry { date: SimTime(20), id: 2, commit: BULK_TS });
        list.push(Entry { date: SimTime(40), id: 3, commit: 5 });
        list.push(Entry { date: SimTime(15), id: 4, commit: 6 });
        assert_eq!(list.bulk().len(), 2);
        assert_eq!(list.tail_len(), 3);
        assert_eq!(list.len(), 5);

        // At ts 5 the commit-6 entry is invisible; gather sorts the rest.
        let mut out = Vec::new();
        let (fast, examined, kept) = list.gather_tail(5, |_| true, &mut out);
        assert_eq!((fast, examined, kept), (1, 2, 1));
        assert_eq!(out.iter().map(|e| e.id).collect::<Vec<_>>(), vec![2, 3]);

        // At ts 6 all three are visible, sorted by (date, id).
        out.clear();
        let (fast, examined, kept) = list.gather_tail(6, |_| true, &mut out);
        assert_eq!((fast, examined, kept), (1, 2, 2));
        assert_eq!(out.iter().map(|e| e.id).collect::<Vec<_>>(), vec![4, 2, 3]);
    }

    #[test]
    fn tail_merge_ladder_decomposes_every_prefix() {
        // Dates descend so every ladder merge has real work to do, and
        // every historical prefix decomposition must stay intact: a
        // reader pinned at length p keeps using p's runs even after the
        // ladder has carried past them.
        let tail = IndexTail::new();
        let total = 37usize; // crosses 32, exercising a 5-level carry
        for i in 0..total {
            tail.push(Entry {
                date: SimTime((total - i) as i64),
                id: i as u64,
                commit: (i + 1) as CommitTs,
            });
            let p = tail.published_len();
            assert_eq!(p, i + 1);
            for q in 1..=p {
                let mut lanes = [None; MAX_RUNS];
                let n = tail.decompose(q, &mut lanes);
                // One run per set bit at or above the base level, one
                // raw single lane per sub-base entry.
                let base_mask = (1usize << LADDER_BASE) - 1;
                let expect = (q & !base_mask).count_ones() as usize + (q & base_mask);
                assert_eq!(n, expect, "lane count for {q}");
                // Decode every lane (single raw slot or compact run) and
                // check sortedness and exact coverage of the first q
                // entries.
                let decoded: Vec<Vec<Entry>> = lanes[..n]
                    .iter()
                    .map(|lane| match lane.expect("decompose fills the first n lanes") {
                        LaneSrc::Single(e) => vec![*e],
                        LaneSrc::Run(r) => r.to_vec(),
                    })
                    .collect();
                let mut covered = 0usize;
                for r in &decoded {
                    assert!(r.windows(2).all(|w| key(&w[0]) <= key(&w[1])), "run unsorted");
                    covered += r.len();
                }
                assert_eq!(covered, q, "decomposition of {q} must cover it exactly");
                // Together the runs hold exactly the first q raw entries.
                let mut ids: Vec<u64> =
                    decoded.iter().flat_map(|r| r.iter().map(|e| e.id)).collect();
                ids.sort_unstable();
                assert_eq!(ids, (0..q as u64).collect::<Vec<_>>());
            }
        }
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
        assert_eq!(snap.person(PersonId(0)).unwrap().creation_date, SimTime(10));
        assert_eq!(snap.friends(PersonId(0)).len(), 1);
        assert!(snap.are_friends(PersonId(1), PersonId(0)));
    }

    #[test]
    fn snapshots_do_not_see_later_commits() {
        let s = Store::new();
        s.apply(&UpdateOp::AddPerson(person(0, 10))).unwrap();
        let snap = s.pinned();
        s.apply(&UpdateOp::AddPerson(person(1, 20))).unwrap();
        assert!(snap.person(PersonId(1)).is_none(), "later commit leaked into snapshot");
        assert!(s.pinned().person(PersonId(1)).is_some());
    }

    #[test]
    fn constraint_violations_are_rejected() {
        let s = Store::new();
        s.apply(&UpdateOp::AddPerson(person(0, 10))).unwrap();
        // Duplicate person.
        assert!(matches!(
            s.apply(&UpdateOp::AddPerson(person(0, 10))),
            Err(SnbError::Constraint(_))
        ));
        // Friendship with missing endpoint.
        assert!(matches!(
            s.apply(&UpdateOp::AddFriendship(Knows {
                a: PersonId(0),
                b: PersonId(9),
                creation_date: SimTime(1),
            })),
            Err(SnbError::NotFound { .. })
        ));
        // Self-friendship.
        assert!(s
            .apply(&UpdateOp::AddFriendship(Knows {
                a: PersonId(0),
                b: PersonId(0),
                creation_date: SimTime(1),
            }))
            .is_err());
        // Post into missing forum.
        assert!(s.apply(&UpdateOp::AddPost(post(0, 0, 5, 50))).is_err());
    }

    #[test]
    fn counters_track_commits_conflicts_snapshots_and_walks() {
        let s = Store::new();
        s.apply(&UpdateOp::AddPerson(person(0, 10))).unwrap();
        s.apply(&UpdateOp::AddPerson(person(1, 20))).unwrap();
        // Conflict: duplicate person.
        let _ = s.apply(&UpdateOp::AddPerson(person(0, 10)));
        assert_eq!(s.counters().commits.get(), 2);
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
        assert!(early.friends(PersonId(0)).is_empty());
        assert_eq!(s.counters().versions_walked.get(), walked_before + 1);
        assert_eq!(s.counters().versions_skipped.get(), skipped_before + 1);

        // A fresh snapshot sees it: examined but not skipped.
        let now = s.pinned();
        assert_eq!(now.friends(PersonId(0)).len(), 1);
        assert_eq!(s.counters().versions_skipped.get(), skipped_before + 1);

        // Point probes count index probes via the profile scope.
        let profile = std::sync::Arc::new(snb_obs::QueryProfile::new());
        {
            let _guard = snb_obs::QueryProfile::enter(std::sync::Arc::clone(&profile));
            assert!(now.person(PersonId(0)).is_some());
            now.friends(PersonId(0));
        }
        let snap = profile.snapshot();
        assert_eq!(snap.index_probes, 1);
        assert_eq!(snap.versions_walked, 2);
    }

    #[test]
    fn wal_counters_track_appends_and_bytes() {
        let path =
            std::env::temp_dir().join(format!("snb-graph-counters-{}.wal", std::process::id()));
        let s = Store::with_wal(&path).unwrap();
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
        let s = Store::with_wal_policy(&path, crate::wal::SyncPolicy::EveryCommit).unwrap();
        s.apply(&UpdateOp::AddPerson(person(0, 10))).unwrap();
        s.apply(&UpdateOp::AddPerson(person(1, 20))).unwrap();
        // One fsync per acknowledged commit, latency recorded, no errors.
        assert!(s.counters().wal_fsyncs.get() >= 2);
        assert_eq!(s.counters().wal_group_size.get(), 2);
        assert!(s.counters().wal_fsync_micros.count() >= 2);
        assert_eq!(s.counters().wal_sync_errors.get(), 0);
        drop(s);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn pipelined_apply_defers_the_durability_barrier() {
        let path =
            std::env::temp_dir().join(format!("snb-graph-pipeline-{}.wal", std::process::id()));
        let s = Store::with_wal_policy(
            &path,
            crate::wal::SyncPolicy::GroupCommit {
                max_batch: 64,
                max_delay: std::time::Duration::ZERO,
            },
        )
        .unwrap();
        // Phase one only: both commits visible, neither necessarily synced.
        let s0 = s.apply_async(&UpdateOp::AddPerson(person(0, 10))).unwrap();
        let s1 = s.apply_async(&UpdateOp::AddPerson(person(1, 20))).unwrap();
        assert_eq!((s0, s1), (Some(1), Some(2)));
        assert!(s.pinned().person(PersonId(1)).is_some(), "visible before durable");
        // One barrier on the newest seq covers the whole window.
        s.wait_durable(s1).unwrap();
        assert!(s.counters().wal_fsyncs.get() >= 1);
        assert_eq!(s.counters().wal_group_size.get(), 2, "horizon covers both records");
        drop(s);
        std::fs::remove_file(&path).unwrap();
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
            assert_eq!(ss.friends(p), sp.friends(p), "friends of {p}");
            assert_eq!(ss.messages_of(p), sp.messages_of(p), "messages of {p}");
            assert_eq!(ss.forums_of(p), sp.forums_of(p), "forums of {p}");
            assert_eq!(ss.likes_by(p), sp.likes_by(p), "likes by {p}");
        }
        for i in 0..ss.message_slots() as u64 {
            let m = MessageId(i);
            assert_eq!(ss.replies_of(m), sp.replies_of(m), "replies of {m}");
            assert_eq!(ss.likes_of(m), sp.likes_of(m), "likes of {m}");
            let (a, b) = (ss.message(m), sp.message(m));
            assert_eq!(format!("{a:?}"), format!("{b:?}"), "row of {m}");
        }
        for i in 0..ss.forum_slots() as u64 {
            let f = ForumId(i);
            assert_eq!(ss.posts_in_forum(f), sp.posts_in_forum(f), "posts in {f}");
            assert_eq!(ss.members_of(f), sp.members_of(f), "members of {f}");
        }
    }

    #[test]
    fn borrowing_iterators_match_owned_reads() {
        let ds =
            snb_datagen::generate(snb_datagen::GeneratorConfig::with_persons(120).activity(0.4))
                .unwrap();
        let s = Store::new();
        s.bulk_load(&ds);
        // Mix in post-bulk commits so both lanes are exercised.
        for u in ds.update_stream().iter().take(200) {
            s.apply(&u.op).unwrap();
        }
        let snap = s.pinned();
        for i in 0..snap.person_slots() as u64 {
            let p = PersonId(i);
            assert_eq!(snap.friends(p), snap.friends_iter(p).collect::<Vec<_>>());
            assert_eq!(snap.messages_of(p), snap.messages_of_iter(p).collect::<Vec<_>>());
            let recent = snap.recent_messages_of(p, SimTime(i64::MAX), 5);
            assert_eq!(
                recent,
                snap.recent_messages_walk(p, SimTime(i64::MAX)).take(5).collect::<Vec<_>>()
            );
            assert_eq!(
                format!("{:?}", snap.person(p)),
                format!("{:?}", snap.person_ref(p).cloned())
            );
        }
        assert!(s.counters().read_latchfree.get() >= 1);
        assert!(s.counters().read_fastlane_entries.get() > 0, "bulk prefix must be exercised");
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
        assert_eq!(s.counters().read_latchfree.get(), 2);
    }

    #[test]
    fn fastlane_entries_skip_version_accounting() {
        let ds =
            snb_datagen::generate(snb_datagen::GeneratorConfig::with_persons(80).activity(0.3))
                .unwrap();
        let s = Store::new();
        s.load_full(&ds);
        let pinned = s.pinned();
        let walked_before = s.counters().versions_walked.get();
        let fast_before = s.counters().read_fastlane_entries.get();
        let mut total = 0usize;
        for i in 0..pinned.person_slots() as u64 {
            total += pinned.friends_iter(PersonId(i)).count();
        }
        assert!(total > 0);
        // A purely bulk-loaded store serves everything from the fast lane.
        assert_eq!(s.counters().versions_walked.get(), walked_before);
        assert_eq!(s.counters().read_fastlane_entries.get(), fast_before + total as u64);
    }

    #[test]
    fn stage_sums_reconcile_with_measured_apply_latency() {
        // The write-pipeline stage histograms claim to tile `Store::apply`
        // end-to-end; hold them to it: the sum of all stage sums must be
        // within 10% of the wall-clock time spent inside `apply`.
        let s = Store::new();
        s.apply(&UpdateOp::AddPerson(person(0, 1))).unwrap();
        s.apply(&UpdateOp::AddForum(forum(0, 0, 5))).unwrap();
        let mut ops = Vec::new();
        for i in 1..4_000u64 {
            ops.push(UpdateOp::AddPerson(person(i, i as i64)));
            ops.push(UpdateOp::AddPost(post(i, i, 0, i as i64 + 1)));
        }
        let t0 = std::time::Instant::now();
        for op in &ops {
            s.apply(op).unwrap();
        }
        let wall_nanos = t0.elapsed().as_nanos() as f64;
        let stage_sum: u64 = s.counters().stages.named().iter().map(|(_, h)| h.sum()).sum();
        let ratio = stage_sum as f64 / wall_nanos;
        assert!(
            (0.90..=1.05).contains(&ratio),
            "stage sums ({stage_sum}ns) must reconcile with measured apply wall time \
             ({wall_nanos:.0}ns); ratio {ratio:.3}"
        );
        // And every committed op contributed to every stage.
        for (name, h) in s.counters().stages.named() {
            assert_eq!(h.count(), s.counters().commits.get(), "{name} must sample every commit");
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
        assert!(snap.message(MessageId(0)).is_none());
    }

    #[test]
    fn message_indexes_are_date_ordered() {
        let s = Store::new();
        s.apply(&UpdateOp::AddPerson(person(0, 1))).unwrap();
        s.apply(&UpdateOp::AddForum(forum(0, 0, 2))).unwrap();
        // Insert posts out of date order; scans must observe sorted order.
        s.apply(&UpdateOp::AddPost(post(1, 0, 0, 50))).unwrap();
        s.apply(&UpdateOp::AddPost(post(0, 0, 0, 30))).unwrap();
        s.apply(&UpdateOp::AddPost(post(2, 0, 0, 40))).unwrap();
        let snap = s.pinned();
        let dates: Vec<i64> =
            snap.messages_of(PersonId(0)).iter().map(|(_, d)| d.millis()).collect();
        assert_eq!(dates, vec![30, 40, 50]);
        let recent: Vec<u64> = snap
            .recent_messages_of(PersonId(0), SimTime(i64::MAX), 10)
            .iter()
            .map(|&(m, _)| m)
            .collect();
        assert_eq!(recent, vec![1, 2, 0]);
    }

    #[test]
    fn comment_and_like_indexes() {
        let s = Store::new();
        s.apply(&UpdateOp::AddPerson(person(0, 1))).unwrap();
        s.apply(&UpdateOp::AddForum(forum(0, 0, 2))).unwrap();
        s.apply(&UpdateOp::AddPost(post(0, 0, 0, 10))).unwrap();
        s.apply(&UpdateOp::AddComment(Comment {
            id: MessageId(1),
            author: PersonId(0),
            creation_date: SimTime(20),
            content: "re".into(),
            reply_to: MessageId(0),
            root_post: MessageId(0),
            forum: ForumId(0),
            tags: vec![],
            country: 0,
        }))
        .unwrap();
        s.apply(&UpdateOp::AddPostLike(Like {
            person: PersonId(0),
            message: MessageId(0),
            creation_date: SimTime(30),
        }))
        .unwrap();
        let snap = s.pinned();
        assert_eq!(snap.replies_of(MessageId(0)).len(), 1);
        assert_eq!(snap.likes_of(MessageId(0)).first(), Some(&(0, SimTime(30))));
        assert_eq!(snap.likes_by(PersonId(0)).first(), Some(&(0, SimTime(30))));
        let msg = snap.message(MessageId(1)).unwrap();
        assert!(msg.is_comment());
        assert_eq!(msg.reply_info, Some((MessageId(0), MessageId(0))));
    }

    #[test]
    fn comment_requires_existing_parent() {
        let s = Store::new();
        s.apply(&UpdateOp::AddPerson(person(0, 1))).unwrap();
        s.apply(&UpdateOp::AddForum(forum(0, 0, 2))).unwrap();
        let c = Comment {
            id: MessageId(5),
            author: PersonId(0),
            creation_date: SimTime(20),
            content: "re".into(),
            reply_to: MessageId(99),
            root_post: MessageId(99),
            forum: ForumId(0),
            tags: vec![],
            country: 0,
        };
        assert!(s.apply(&UpdateOp::AddComment(c)).is_err());
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
        let visible_persons =
            (0..snap.person_slots()).filter(|&i| snap.person(PersonId(i as u64)).is_some()).count();
        assert_eq!(visible_persons, bulk_persons);
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
        let visible_persons =
            (0..snap.person_slots()).filter(|&i| snap.person(PersonId(i as u64)).is_some()).count();
        assert_eq!(visible_persons, ds.persons.len());
        let visible_msgs = (0..snap.message_slots())
            .filter(|&i| snap.message(MessageId(i as u64)).is_some())
            .count();
        assert_eq!(visible_msgs, ds.message_count());
    }
}
