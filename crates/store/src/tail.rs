//! The lock-free publication core: every structure a latch-free reader
//! and a stripe-locked writer share without a lock between them. All the
//! release/acquire pairs of the table and index layer are in this file
//! (the commit clock's are in [`crate::mvcc`]); DESIGN.md "Concurrency
//! model" carries the full memory-ordering argument.
//!
//! - Every table is a [`SegVec`] — a fixed spine of geometrically growing
//!   segments. Segments are never reallocated or moved, so readers hold
//!   plain references while writers install new slots; a published length
//!   (`high`) is advanced with release stores and read with acquire loads.
//! - Every [`IndexList`] is an immutable sorted bulk prefix plus an
//!   append-only *published tail* ([`IndexTail`]): a writer (serialized
//!   per list by its stripe lock, see [`crate::store`]) initializes the
//!   next slot and every ladder run the append completes, then
//!   release-stores the new visible length; readers acquire-load the
//!   length and never see a partially written entry or run.
//! - MVCC visibility is layered on top, not woven in: a published entry
//!   whose commit timestamp is above the snapshot timestamp is simply
//!   invisible (see [`crate::mvcc::visible`]).
//!
//! # Crate-internal surface
//!
//! - [`SegVec`]: `new`, `get`, `bump`, `high`, `slot`, `set_slot`,
//!   `install` — [`crate::tables`] builds the entity and index tables from
//!   it, [`crate::loader`] installs into it.
//! - [`IndexList`]: `from_bulk`, `bulk`, `push`, `tail`, `tail_len`,
//!   `len`, `mem`.
//! - [`IndexTail`]: `published_len`, `published`, `published_ref`,
//!   `decompose` (with [`LadderRuns`] and [`MAX_SINGLES`]) — what the lazy
//!   iterators in [`crate::read`] merge.

use crate::compact::{merge_compact, CompactRun};
use crate::mvcc::BULK_TS;
use crate::tables::{key, Entry};
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

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
    pub(crate) fn slot(&self, i: usize) -> &OnceLock<T> {
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
    /// Most calls find the bound already there (every push to an existing
    /// list bumps), so they load and leave the line shared; only a raise
    /// pays the RMW.
    #[inline]
    pub(crate) fn bump(&self, n: usize) {
        if self.high.load(Ordering::Acquire) < n {
            self.high.fetch_max(n, Ordering::AcqRel);
        }
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

    /// Segments allocated so far.
    fn segments(&self) -> usize {
        self.segs.iter().filter(|s| s.get().is_some()).count()
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
/// the raw slot array, sorted into one lane per read. Retained low-level
/// runs were where the ladder's `O(t log t)` memory actually lived — every
/// tail entry used to be copied into a 2-run, a 4-run and an 8-run that
/// are all kept forever for pinned readers, and at ~10-14 encoded bytes
/// per entry per level those three levels cost more than the whole bulk
/// index. Skipping them trades a sort of at most `2^LADDER_BASE - 1`
/// borrowed slots per read for a third of total index memory, and the
/// newest entries — what "most recent" walks consume first — need no
/// decode at all.
const LADDER_BASE: usize = 4;
/// Most raw entries in the sub-base remainder of a decomposition.
pub(crate) const MAX_SINGLES: usize = (1 << LADDER_BASE) - 1;

/// One ladder level: run `j` of level `k` is the sorted copy of raw tail
/// entries `[j << k, (j + 1) << k)`, stored delta-encoded (see
/// [`crate::compact`]). Runs complete in ascending `j` order (run `j` is
/// built when entry `((j + 1) << k) - 1` lands), so a [`SegVec`] publishes
/// them naturally.
type RunLevel = SegVec<CompactRun, 2, 26>;

/// The materialized ladder runs of one decomposition, largest first (see
/// [`IndexTail::decompose`]); an exact-size iterator, so a reader sizes
/// its lane storage in one allocation.
pub(crate) struct LadderRuns<'t> {
    tail: &'t IndexTail,
    /// Set bits = levels still to yield.
    rem: usize,
    /// First raw entry the next run covers.
    offset: usize,
}

impl<'t> Iterator for LadderRuns<'t> {
    type Item = &'t CompactRun;

    #[inline]
    fn next(&mut self) -> Option<&'t CompactRun> {
        if self.rem == 0 {
            return None;
        }
        let k = (usize::BITS - 1 - self.rem.leading_zeros()) as usize;
        let level = self.tail.levels[k - 1].get().expect("published ladder level missing");
        let run = level.get_published(self.offset >> k).expect("published ladder run missing");
        self.offset += 1usize << k;
        self.rem &= !(1usize << k);
        Some(run)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.rem.count_ones() as usize;
        (n, Some(n))
    }
}

impl ExactSizeIterator for LadderRuns<'_> {}

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
/// immutable run per level plus one lane of at most [`MAX_SINGLES`] raw
/// slots, and pay only for the entries actually consumed — the same cost
/// class as the old sorted-in-place list, without its write latch.
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
    pub(crate) fn published_len(&self) -> usize {
        self.slots.published_len()
    }

    /// Raw entry `i` in append order (below a published length).
    #[inline]
    pub(crate) fn published(&self, i: usize) -> Entry {
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

    /// Raw entry `i` in append order, borrowed (below a published length).
    #[inline]
    pub(crate) fn published_ref(&self, i: usize) -> &Entry {
        self.slots.published_ref(i)
    }

    /// The decomposition of the published prefix `p`: the sorted ladder
    /// runs (at most one per materialized level, descending sizes)
    /// covering the largest base-aligned prefix, and the raw slot range of
    /// the sub-base remainder — the newest, at most [`MAX_SINGLES`],
    /// entries, in append order. Together they cover raw entries `[0, p)`
    /// exactly; every run was fully built before `p` was published.
    #[inline]
    pub(crate) fn decompose(&self, p: usize) -> (LadderRuns<'_>, Range<usize>) {
        let aligned = p & !MAX_SINGLES;
        (LadderRuns { tail: self, rem: aligned, offset: 0 }, aligned..p)
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
/// Order is recovered by the borrowing iterators, which lazily merge the
/// tail's [`IndexTail`] ladder runs and its sorted sub-base remainder
/// (pay-per-entry). A list with an empty tail costs readers nothing
/// beyond one acquire load.
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

    pub(crate) fn tail(&self) -> Option<&IndexTail> {
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

    /// Tail allocations: `(headers, segments)` — 1 and the raw slot
    /// segments allocated when this list has a tail, else `(0, 0)`.
    pub(crate) fn tail_allocs(&self) -> (usize, usize) {
        self.tail().map_or((0, 0), |t| (1, t.slots.segments()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mvcc::CommitTs;
    use snb_core::time::SimTime;

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
    fn index_list_tail_publication() {
        let list = IndexList::from_bulk(vec![
            Entry { date: SimTime(10), id: 0, commit: BULK_TS },
            Entry { date: SimTime(30), id: 1, commit: BULK_TS },
        ]);
        assert_eq!(list.bulk().len(), 2);
        assert_eq!(list.tail_len(), 0);
        // Appends never disturb the immutable bulk prefix: committed
        // entries, one dated *inside* the prefix, all land in the
        // published tail, in append order (the read side sorts and
        // filters them; see `read::tests`).
        list.push(Entry { date: SimTime(20), id: 2, commit: 4 });
        list.push(Entry { date: SimTime(40), id: 3, commit: 5 });
        list.push(Entry { date: SimTime(15), id: 4, commit: 6 });
        assert_eq!(list.bulk().len(), 2);
        assert_eq!(list.bulk().to_vec().iter().map(|e| e.id).collect::<Vec<_>>(), vec![0, 1]);
        assert_eq!(list.tail_len(), 3);
        assert_eq!(list.len(), 5);
        let tail = list.tail().unwrap();
        let raw: Vec<(u64, CommitTs)> = (0..tail.published_len())
            .map(|i| tail.published(i))
            .map(|e| (e.id, e.commit))
            .collect();
        assert_eq!(raw, vec![(2, 4), (3, 5), (4, 6)]);
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
                let (runs, singles) = tail.decompose(q);
                // One run per set bit at or above the base level, one raw
                // slot per sub-base entry.
                assert_eq!(runs.len(), (q & !MAX_SINGLES).count_ones() as usize, "runs of {q}");
                assert_eq!(singles.len(), q & MAX_SINGLES, "singles of {q}");
                // Decode every run and read every single, then check
                // sortedness and exact coverage of the first q entries.
                let mut decoded: Vec<Vec<Entry>> = runs.map(|r| r.to_vec()).collect();
                decoded.extend(singles.map(|i| vec![*tail.published_ref(i)]));
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
}
