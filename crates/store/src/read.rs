//! The read side: the one consistent, latch-free view of the store and
//! the iterators it hands out.
//!
//! [`PinnedSnapshot`] pins a commit timestamp and reads the shared
//! [`Tables`] through it. Every list read goes through one of two
//! borrowing iterators: [`DatedIter`] (ascending, optionally bounded below
//! by a date) and [`RecentWalk`] (newest first, bounded above). Both
//! lazily merge a list's immutable bulk prefix, its published ladder runs
//! and its sorted sub-base remainder, filtering tail entries for
//! visibility as they are reached. The tests check them against a model
//! built from the inputs, not against a second merge of the same slots.
//! No atomics live here: what a reader may touch is decided by the acquire
//! loads inside [`crate::tail`] and by [`crate::mvcc::visible`], and read
//! accounting sums into plain snapshot-local cells that reach
//! [`StoreCounters`] when the snapshot drops.

use crate::compact::{CompactRun, Cursor, RevCursor, FILL_DATED};
use crate::counters::StoreCounters;
use crate::mvcc::{visible, CommitTs};
use crate::tables::{key, Entry, MessageRow, Tables};
use crate::tail::{IndexList, IndexTail, MAX_SINGLES};
use snb_core::schema::{Forum, Person};
use snb_core::time::SimTime;
use snb_core::{ForumId, MessageId, PersonId, TagId};
use snb_obs::trace::{self, NameId};
use snb_obs::{tick_index_probes, tick_versions_walked};
use std::cell::Cell;

/// Trace-span names of the two lazy iterators (recorded on drop, as
/// children of whatever span the caller has open).
static SPAN_LADDER_MERGE: NameId = NameId::new("store.read.ladder_merge");
static SPAN_RECENT_WALK: NameId = NameId::new("store.read.recent_walk");

/// The consistent, latch-free read view of the store (see
/// [`crate::Store::pinned`]).
///
/// The snapshot pins a commit timestamp; consistency comes from MVCC
/// visibility alone — every accessor filters by the pinned timestamp, so
/// the snapshot observes exactly the transactions committed before it was
/// opened, no matter how many commit during the query.
///
/// Accessors hand out references and lazy iterators tied to the store's
/// immutable segments ([`PinnedSnapshot::friends_iter`],
/// [`PinnedSnapshot::recent_messages_walk`], [`PinnedSnapshot::person_ref`]
/// …); a caller that wants an owned list collects the iterator.
///
/// Read accounting (`store.read.fastlane_entries`,
/// `store.mvcc.versions_walked`, `store.mvcc.versions_skipped`) sums into
/// the snapshot's own cells and reaches [`StoreCounters`] once, when the
/// snapshot drops: the store counters are exact once the snapshots that
/// did the reads have dropped. The cells make a snapshot `Send` but not
/// `Sync`: each reading thread pins its own.
pub struct PinnedSnapshot<'a> {
    pub(crate) tables: &'a Tables,
    pub(crate) ts: CommitTs,
    pub(crate) counters: &'a StoreCounters,
    pub(crate) acct: ReadAcct,
}

/// A snapshot's read accounting, summed locally (see [`PinnedSnapshot`]).
#[derive(Default)]
pub(crate) struct ReadAcct {
    fast: Cell<u64>,
    walked: Cell<u64>,
    skipped: Cell<u64>,
}

impl ReadAcct {
    /// Add `fast` bulk-prefix entries and `examined` tail entries (or row
    /// versions) of which `kept` were visible, and tick the current query
    /// profile's `versions_walked`.
    #[inline]
    fn add(&self, fast: u64, examined: u64, kept: u64) {
        self.fast.set(self.fast.get() + fast);
        self.walked.set(self.walked.get() + examined);
        self.skipped.set(self.skipped.get() + (examined - kept));
        tick_versions_walked(examined);
    }
}

impl Drop for PinnedSnapshot<'_> {
    fn drop(&mut self) {
        let (c, a) = (self.counters, &self.acct);
        for (counter, cell) in [
            (&c.read_fastlane_entries, &a.fast),
            (&c.versions_walked, &a.walked),
            (&c.versions_skipped, &a.skipped),
        ] {
            if cell.get() > 0 {
                counter.add(cell.get());
            }
        }
    }
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

/// Placeholder for the unused slots of a [`Singles`] lane.
static NO_ENTRY: Entry = Entry { date: SimTime(0), id: 0, commit: 0 };

/// A tail's sub-base remainder as one lane: its raw slots, borrowed in
/// place and sorted by `(date, id)`. Entries `[lo, hi)` remain; forward
/// scans consume from `lo`, reverse walks from `hi`.
struct Singles<'g> {
    ents: [&'g Entry; MAX_SINGLES],
    lo: u8,
    hi: u8,
}

impl<'g> Singles<'g> {
    const EMPTY: Singles<'static> = Singles { ents: [&NO_ENTRY; MAX_SINGLES], lo: 0, hi: 0 };

    /// The remainder of `tail`'s decomposition that `keep` accepts,
    /// insertion-sorted (at most [`MAX_SINGLES`] entries).
    fn sorted(
        tail: &'g IndexTail,
        slots: std::ops::Range<usize>,
        keep: impl Fn(&Entry) -> bool,
    ) -> Singles<'g> {
        let mut s = Singles::EMPTY;
        let mut n = 0usize;
        for i in slots {
            let e = tail.published_ref(i);
            if !keep(e) {
                continue;
            }
            let mut j = n;
            while j > 0 && key(e) < key(s.ents[j - 1]) {
                s.ents[j] = s.ents[j - 1];
                j -= 1;
            }
            s.ents[j] = e;
            n += 1;
        }
        s.hi = n as u8;
        s
    }

    #[inline]
    fn front(&self) -> Option<&'g Entry> {
        (self.lo < self.hi).then(|| self.ents[self.lo as usize])
    }

    #[inline]
    fn back(&self) -> Option<&'g Entry> {
        (self.lo < self.hi).then(|| self.ents[self.hi as usize - 1])
    }

    #[inline]
    fn remaining(&self) -> usize {
        (self.hi - self.lo) as usize
    }
}

/// One lazy scan's accounting, counted per entry and added to the
/// snapshot's cells once, on drop (see [`PinnedSnapshot::note_scan`] for
/// the lane semantics).
struct Tally<'s> {
    ts: CommitTs,
    acct: &'s ReadAcct,
    fast: u64,
    examined: u64,
    kept: u64,
}

impl<'s> Tally<'s> {
    fn new(snap: &'s PinnedSnapshot<'_>) -> Tally<'s> {
        Tally { ts: snap.ts, acct: &snap.acct, fast: 0, examined: 0, kept: 0 }
    }

    /// Count one reached tail entry; `Some` when it is visible.
    #[inline]
    fn filter(&mut self, e: Entry) -> Option<Dated> {
        self.examined += 1;
        if visible(e.commit, self.ts) {
            self.kept += 1;
            return Some((e.id, e.date));
        }
        None
    }
}

impl Drop for Tally<'_> {
    fn drop(&mut self) {
        self.acct.add(self.fast, self.examined, self.kept);
    }
}

/// Lane-cache sentinels: no lane selected (rescan all heads), the bulk
/// prefix, the singles lane. Any other value indexes the ladder runs.
const NO_LANE: usize = usize::MAX;
const PREFIX: usize = usize::MAX - 1;
const SINGLES: usize = usize::MAX - 2;

impl PinnedSnapshot<'_> {
    /// Account one keyed point lookup: `examined` when a versioned row was
    /// present, `kept` when it was visible to this snapshot. Ticks the
    /// snapshot's accounting and the current query profile (if any).
    #[inline]
    fn note_probe(&self, examined: bool, kept: bool) {
        tick_index_probes(1);
        if examined {
            self.acct.add(0, 1, kept as u64);
        }
    }

    /// Account one index scan: `fast` entries served from the always-
    /// visible bulk prefix (no visibility check), `examined` tail entries
    /// walked of which `kept` were visible. Every bulk entry lives in the
    /// prefix and every tail entry is a versioned commit, so the lane
    /// decides the counter: each touched entry lands in exactly one of
    /// `store.read.fastlane_entries` (prefix) or
    /// `store.mvcc.versions_walked` (tail).
    /// The lazy iterators count per entry as they go and add their totals
    /// on drop (see [`Tally`]), so an early-exiting caller reports only
    /// what it actually touched; [`PinnedSnapshot::are_friends`] accounts
    /// its probe here in one call.
    fn note_scan(&self, fast: usize, examined: usize, kept: usize) {
        self.acct.add(fast as u64, examined as u64, kept as u64);
    }

    /// Borrowing scan over an index list, ascending `(date, id)` — lazy:
    /// the tail's lanes are merged as the iterator is consumed, so an
    /// early-exiting caller never pays for the rest. `after` bounds the
    /// scan to entries dated strictly after it: the bulk prefix and each
    /// ladder run seek past the bound, the singles lane drops what falls
    /// at or before it. `None` scans the whole list with no seek.
    fn iter<'s>(&'s self, list: Option<&'s IndexList>, after: Option<SimTime>) -> DatedIter<'s> {
        let mut it = DatedIter {
            prefix: Cursor::empty(),
            pbuf: [(0, SimTime(0)); FILL_DATED],
            pbuf_pos: 0,
            pbuf_len: 0,
            singles: Singles::EMPTY,
            runs: Vec::new(),
            cur: NO_LANE,
            bound: (SimTime(0), 0),
            tally: Tally::new(self),
            span_start: if trace::tracing_possible() { trace::now_micros().max(1) } else { 0 },
        };
        if let Some(l) = list {
            let seek =
                |run: &'s CompactRun| Cursor::at(run, after.map_or(0, |d| run.upper_bound_date(d)));
            it.prefix = seek(l.bulk());
            if let Some(tail) = l.tail() {
                let (runs, singles) = tail.decompose(tail.published_len());
                it.runs = Vec::with_capacity(runs.len());
                for r in runs {
                    let c = seek(r);
                    if c.remaining() > 0 {
                        it.runs.push(c);
                    }
                }
                it.singles = Singles::sorted(tail, singles, |e| after.is_none_or(|d| e.date > d));
            }
        }
        it
    }

    /// Borrowing reverse scan (newest first) over the entries dated at or
    /// before `max_date` — lazy, same lane structure as
    /// [`PinnedSnapshot::iter`] consumed from the back.
    fn recent_walk<'s>(&'s self, list: Option<&'s IndexList>, max_date: SimTime) -> RecentWalk<'s> {
        let mut w = RecentWalk {
            prefix: RevCursor::empty(),
            singles: Singles::EMPTY,
            runs: Vec::new(),
            cur: NO_LANE,
            bound: (SimTime(0), 0),
            tally: Tally::new(self),
            span_start: if trace::tracing_possible() { trace::now_micros().max(1) } else { 0 },
        };
        if let Some(l) = list {
            w.prefix = RevCursor::to_date_bound(l.bulk(), max_date);
            if let Some(tail) = l.tail() {
                let (runs, singles) = tail.decompose(tail.published_len());
                w.runs = Vec::with_capacity(runs.len());
                for r in runs {
                    let c = RevCursor::to_date_bound(r, max_date);
                    if c.remaining() > 0 {
                        w.runs.push(c);
                    }
                }
                w.singles = Singles::sorted(tail, singles, |e| e.date <= max_date);
            }
        }
        w
    }
}

/// Iterator over the visible entries of one index list, ascending
/// `(date, id)` — a lazy k-way merge of the immutable bulk prefix (yielded
/// without visibility checks), the list's ladder runs (at most one
/// immutable sorted run per level; see `IndexTail` in `tail.rs`) and its
/// sub-base remainder (at most 15 raw slots, sorted into one lane at
/// construction). Versioned tail entries are MVCC-filtered as they are
/// reached, so an early-exiting caller pays only for what it consumed.
///
/// Lanes exist only for what the list has: the run cursors live in one
/// exactly-sized `Vec`, so a list with no materialized run (fewer than 16
/// tail entries) iterates with no heap allocation and any other list
/// allocates once. All accounting is counted locally and added to the
/// snapshot's cells once, on drop.
pub struct DatedIter<'s> {
    prefix: Cursor<'s>,
    /// Decoded read-ahead for the prefix lane (prefix entries bypass MVCC,
    /// so only ids and dates are kept). Covers cursor ranks
    /// `[prefix.rank, prefix.rank + (pbuf_len - pbuf_pos))`: serving an
    /// entry advances `pbuf_pos` and the cursor together.
    pbuf: [Dated; FILL_DATED],
    pbuf_pos: u32,
    pbuf_len: u32,
    singles: Singles<'s>,
    runs: Vec<Cursor<'s>>,
    /// Lane that yielded last ([`PREFIX`], [`SINGLES`], a run index, or
    /// [`NO_LANE`] = must rescan). Dates correlate with append order, so
    /// the winning lane usually wins again: draining it until its head
    /// crosses `bound` makes the common per-entry cost one comparison,
    /// not one per lane.
    cur: usize,
    /// Smallest head among the *other* lanes when `cur` was selected.
    bound: (SimTime, u64),
    tally: Tally<'s>,
    /// Construction time when a trace was live (0 = untraced); the ladder
    /// merge becomes one `store.read.ladder_merge` span on drop.
    span_start: u64,
}

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

    /// Inlined into the caller's loop: a list with no tail lanes — the
    /// common case on a bulk-heavy store — is served straight from the
    /// prefix read-ahead; a refill and the lane merge run out of line.
    #[inline]
    fn next(&mut self) -> Option<Dated> {
        if self.pbuf_pos < self.pbuf_len && self.singles.hi == 0 && self.runs.is_empty() {
            let d = self.pbuf[self.pbuf_pos as usize];
            self.prefix_advance();
            self.tally.fast += 1;
            return Some(d);
        }
        self.next_slow()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        // Prefix entries are always visible; tail entries may be filtered.
        let tail: usize =
            self.singles.remaining() + self.runs.iter().map(|r| r.remaining()).sum::<usize>();
        (self.prefix.remaining(), Some(self.prefix.remaining() + tail))
    }
}

impl DatedIter<'_> {
    /// [`Iterator::next`] past the inlined read-ahead hit.
    fn next_slow(&mut self) -> Option<Dated> {
        if self.singles.hi == 0 && self.runs.is_empty() {
            let (id, date) = self.prefix_head()?;
            self.prefix_advance();
            self.tally.fast += 1;
            return Some((id, date));
        }
        loop {
            if self.cur == NO_LANE {
                // Rescan every lane head; the runner-up key becomes the
                // bound the winner may drain up to. The bulk prefix is
                // considered first and wins ties; tied entries are
                // identical `(date, id)` tuples, so their order never
                // shows.
                let inf = (SimTime(i64::MAX), u64::MAX);
                let (mut best, mut best_key, mut second) = (NO_LANE, inf, inf);
                let mut consider = |lane: usize, k: (SimTime, u64)| {
                    if best == NO_LANE || k < best_key {
                        second = best_key;
                        best = lane;
                        best_key = k;
                    } else if k < second {
                        second = k;
                    }
                };
                if let Some((id, date)) = self.prefix_head() {
                    consider(PREFIX, (date, id));
                }
                if let Some(e) = self.singles.front() {
                    consider(SINGLES, key(e));
                }
                for (i, run) in self.runs.iter_mut().enumerate() {
                    if let Some(h) = run.peek() {
                        consider(i, key(&h));
                    }
                }
                if best == NO_LANE {
                    return None;
                }
                self.cur = best;
                self.bound = second;
            }
            match self.cur {
                PREFIX => match self.prefix_head() {
                    // Draining the prefix lane: commit-free decode, no MVCC.
                    Some((id, date)) if (date, id) <= self.bound => {
                        self.prefix_advance();
                        self.tally.fast += 1;
                        return Some((id, date));
                    }
                    _ => self.cur = NO_LANE,
                },
                SINGLES => match self.singles.front() {
                    Some(&e) if key(&e) <= self.bound => {
                        self.singles.lo += 1;
                        if let Some(d) = self.tally.filter(e) {
                            return Some(d);
                        }
                    }
                    _ => self.cur = NO_LANE,
                },
                i => match self.runs[i].peek() {
                    Some(e) if key(&e) <= self.bound => {
                        self.runs[i].advance();
                        if let Some(d) = self.tally.filter(e) {
                            return Some(d);
                        }
                        // Invisible: skip and keep draining this lane.
                    }
                    _ => self.cur = NO_LANE, // exhausted or crossed the bound
                },
            }
        }
    }
}

impl Drop for DatedIter<'_> {
    fn drop(&mut self) {
        if self.span_start != 0 {
            trace::record_stage(&SPAN_LADDER_MERGE, self.span_start, trace::now_micros());
        }
    }
}

/// Reverse scan (newest first) over the entries of one date-ordered index
/// list at or before a date bound — the borrowing form of the "top-k most
/// recent before date" primitive. Same lazy lane structure, allocation
/// rule and accounting as [`DatedIter`], but every lane is consumed from
/// the back (each was date-bounded at construction).
pub struct RecentWalk<'s> {
    /// Remaining bulk-prefix entries, already bounded to `<= max_date`.
    prefix: RevCursor<'s>,
    /// The sub-base remainder entries dated `<= max_date`.
    singles: Singles<'s>,
    /// Remaining ladder runs, each bounded to `<= max_date`, non-empty at
    /// construction.
    runs: Vec<RevCursor<'s>>,
    /// Lane cache, mirrored from [`DatedIter`] (largest key wins here).
    cur: usize,
    /// Largest tail key among the *other* lanes when `cur` was selected.
    bound: (SimTime, u64),
    tally: Tally<'s>,
    /// As in [`DatedIter`]: trace-span begin, 0 = untraced.
    span_start: u64,
}

impl Iterator for RecentWalk<'_> {
    type Item = Dated;

    /// Inlined into the caller's loop: with no tail lanes (the common
    /// case) this is a pure backward prefix scan; the lane merge runs out
    /// of line.
    #[inline]
    fn next(&mut self) -> Option<Dated> {
        if self.singles.hi == 0 && self.runs.is_empty() {
            let (id, date) = self.prefix.peek_back_dated()?;
            self.prefix.advance_back();
            self.tally.fast += 1;
            return Some((id, date));
        }
        self.merge_next()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let tail: usize =
            self.singles.remaining() + self.runs.iter().map(|r| r.remaining()).sum::<usize>();
        (self.prefix.remaining(), Some(self.prefix.remaining() + tail))
    }
}

impl RecentWalk<'_> {
    /// The k-way lane merge behind [`Iterator::next`].
    fn merge_next(&mut self) -> Option<Dated> {
        loop {
            if self.cur == NO_LANE {
                let ninf = (SimTime(i64::MIN), 0u64);
                let (mut best, mut best_key, mut second) = (NO_LANE, ninf, ninf);
                let mut consider = |lane: usize, k: (SimTime, u64)| {
                    if best == NO_LANE || k > best_key {
                        second = best_key;
                        best = lane;
                        best_key = k;
                    } else if k > second {
                        second = k;
                    }
                };
                if let Some((id, date)) = self.prefix.peek_back_dated() {
                    consider(PREFIX, (date, id));
                }
                if let Some(e) = self.singles.back() {
                    consider(SINGLES, key(e));
                }
                for (i, run) in self.runs.iter_mut().enumerate() {
                    if let Some(t) = run.peek_back() {
                        consider(i, key(&t));
                    }
                }
                if best == NO_LANE {
                    return None;
                }
                self.cur = best;
                self.bound = second;
            }
            match self.cur {
                PREFIX => match self.prefix.peek_back_dated() {
                    // Draining the prefix lane: commit-free decode, no MVCC.
                    Some((id, date)) if (date, id) >= self.bound => {
                        self.prefix.advance_back();
                        self.tally.fast += 1;
                        return Some((id, date));
                    }
                    _ => self.cur = NO_LANE,
                },
                SINGLES => match self.singles.back() {
                    Some(&e) if key(&e) >= self.bound => {
                        self.singles.hi -= 1;
                        if let Some(d) = self.tally.filter(e) {
                            return Some(d);
                        }
                    }
                    _ => self.cur = NO_LANE,
                },
                i => match self.runs[i].peek_back() {
                    Some(e) if key(&e) >= self.bound => {
                        self.runs[i].advance_back();
                        if let Some(d) = self.tally.filter(e) {
                            return Some(d);
                        }
                    }
                    _ => self.cur = NO_LANE,
                },
            }
        }
    }
}

impl Drop for RecentWalk<'_> {
    fn drop(&mut self) {
        if self.span_start != 0 {
            trace::record_stage(&SPAN_RECENT_WALK, self.span_start, trace::now_micros());
        }
    }
}

impl PinnedSnapshot<'_> {
    /// The snapshot's commit timestamp.
    pub fn ts(&self) -> CommitTs {
        self.ts
    }

    /// Person by id, if visible — borrowed from the store's segments.
    #[inline]
    pub fn person_ref(&self, id: PersonId) -> Option<&Person> {
        let slot = self.tables.persons.get(id.index());
        let vis = slot.filter(|v| visible(v.commit, self.ts));
        self.note_probe(slot.is_some(), vis.is_some());
        vis.map(|v| &v.row)
    }

    /// Forum by id, if visible — borrowed from the store's segments.
    #[inline]
    pub fn forum_ref(&self, id: ForumId) -> Option<&Forum> {
        let slot = self.tables.forums.get(id.index());
        let vis = slot.filter(|v| visible(v.commit, self.ts));
        self.note_probe(slot.is_some(), vis.is_some());
        vis.map(|v| &v.row)
    }

    /// Full message row, if visible — borrowed from the store's segments.
    #[inline]
    pub fn message_ref(&self, id: MessageId) -> Option<&MessageRow> {
        let slot = self.tables.messages.get(id.index());
        let vis = slot.filter(|v| visible(v.commit, self.ts));
        self.note_probe(slot.is_some(), vis.is_some());
        vis.map(|v| &v.row)
    }

    /// Fixed-size message header, if visible.
    #[inline]
    pub fn message_meta(&self, id: MessageId) -> Option<MessageMeta> {
        self.message_ref(id).map(|row| MessageMeta {
            author: row.author,
            forum: row.forum,
            creation_date: row.creation_date,
            country: row.country,
            reply_info: row.reply_info,
        })
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

    /// Friends of `id`, ascending by date. Like every `*_iter` scan, it
    /// allocates only when the list's tail holds a ladder run (see
    /// [`DatedIter`]).
    pub fn friends_iter(&self, id: PersonId) -> DatedIter<'_> {
        self.iter(self.tables.knows.get(id.index()), None)
    }

    /// Messages authored by `id`, ascending by date.
    pub fn messages_of_iter(&self, id: PersonId) -> DatedIter<'_> {
        self.iter(self.tables.person_messages.get(id.index()), None)
    }

    /// Messages authored by `id` dated strictly after `after`, ascending by
    /// date — the bounded scan: every lane seeks past `after` instead of
    /// filtering entry by entry.
    pub fn messages_of_after_iter(&self, id: PersonId, after: SimTime) -> DatedIter<'_> {
        self.iter(self.tables.person_messages.get(id.index()), Some(after))
    }

    /// Posts (no comments) authored by `id`, ascending by date — the
    /// covering index behind the Q5/Q10 circle scans: every entry is a
    /// visible post, so consumers skip the per-message row probe that a
    /// `messages_of_iter` + reply filter would pay.
    pub fn posts_of_iter(&self, id: PersonId) -> DatedIter<'_> {
        self.iter(self.tables.person_posts.get(id.index()), None)
    }

    /// Posts (no comments) carrying tag `id`, ascending by date — the
    /// index behind Q6: a tag's posts are far fewer than a 2-hop circle's.
    pub fn posts_with_tag_iter(&self, id: TagId) -> DatedIter<'_> {
        self.iter(self.tables.tag_posts.get(id.index()), None)
    }

    /// Posts in forum `id`, ascending by date.
    pub fn posts_in_forum_iter(&self, id: ForumId) -> DatedIter<'_> {
        self.iter(self.tables.forum_posts.get(id.index()), None)
    }

    /// Members of forum `id` with join dates.
    pub fn members_of_iter(&self, id: ForumId) -> DatedIter<'_> {
        self.iter(self.tables.forum_members.get(id.index()), None)
    }

    /// Forums `id` has joined, with join dates.
    pub fn forums_of_iter(&self, id: PersonId) -> DatedIter<'_> {
        self.iter(self.tables.person_forums.get(id.index()), None)
    }

    /// Forums `id` joined strictly after `min_date`, ascending by join
    /// date — the bounded scan: every lane seeks past `min_date` instead
    /// of filtering entry by entry.
    pub fn forums_of_after_iter(&self, id: PersonId, min_date: SimTime) -> DatedIter<'_> {
        self.iter(self.tables.person_forums.get(id.index()), Some(min_date))
    }

    /// Direct replies to message `id`, ascending by date.
    pub fn replies_of_iter(&self, id: MessageId) -> DatedIter<'_> {
        self.iter(self.tables.message_replies.get(id.index()), None)
    }

    /// Likes on message `id` as `(person, like date)`.
    pub fn likes_of_iter(&self, id: MessageId) -> DatedIter<'_> {
        self.iter(self.tables.message_likes.get(id.index()), None)
    }

    /// Likes given by person `id` as `(message, like date)`.
    pub fn likes_by_iter(&self, id: PersonId) -> DatedIter<'_> {
        self.iter(self.tables.person_likes.get(id.index()), None)
    }

    /// The messages of `id` created at or before `max_date`, newest first;
    /// bound it with `.take(k)` or a threshold-based early break.
    pub fn recent_messages_walk(&self, id: PersonId, max_date: SimTime) -> RecentWalk<'_> {
        self.recent_walk(self.tables.person_messages.get(id.index()), max_date)
    }

    /// Whether persons `a` and `b` are friends in this snapshot.
    pub fn are_friends(&self, a: PersonId, b: PersonId) -> bool {
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
                    examined += 1;
                    if e.id == b.raw() && visible(e.commit, self.ts) {
                        kept = 1;
                        found = true;
                        break;
                    }
                }
            }
        }
        self.note_scan(fast, examined, kept);
        found
    }

    /// Storage statistics for the Table 8 experiment.
    pub fn storage_stats(&self) -> crate::stats::StorageStats {
        crate::stats::from_raw(self.tables.sizes())
    }
}

#[cfg(test)]
mod tests {
    use super::{Dated, DatedIter, PinnedSnapshot, RecentWalk};
    use crate::store::Store;
    use crate::tables::tests::post;
    use crate::tables::{key, Entry};
    use snb_core::time::SimTime;
    use snb_core::update::UpdateOp;
    use snb_core::{ForumId, PersonId};
    use snb_obs::QueryProfile;
    use std::sync::Arc;

    #[test]
    fn iterators_fit_in_one_kib() {
        assert!(std::mem::size_of::<DatedIter<'_>>() <= 1024);
        assert!(std::mem::size_of::<RecentWalk<'_>>() <= 1024);
    }

    /// `versions_walked` ticked by `f`, read through a profile scope.
    fn walked_in(f: impl FnOnce()) -> u64 {
        let profile = Arc::new(QueryProfile::new());
        {
            let _guard = QueryProfile::enter(Arc::clone(&profile));
            f();
        }
        profile.snapshot().versions_walked
    }

    /// Check every lazy scan of `p`'s message list against `model` (the
    /// list's expected entries, ascending), forward and newest-first under
    /// several date bounds, and that each scan walks exactly the tail
    /// entries it reached (`tail` is the published raw tail, visible or
    /// not). Returns the versions walked by all of it.
    fn check_lanes(
        snap: &PinnedSnapshot<'_>,
        p: PersonId,
        model: &[Dated],
        tail: &[Entry],
        bounds: &[SimTime],
    ) -> u64 {
        let reached =
            |pred: &dyn Fn(&Entry) -> bool| tail.iter().filter(|e| pred(e)).count() as u64;
        let mut all = Vec::new();
        let w = walked_in(|| all = snap.messages_of_iter(p).collect::<Vec<_>>());
        assert_eq!(all, model, "full forward scan");
        assert_eq!(w, tail.len() as u64, "a full scan reaches every tail entry");
        let mut total = w;
        for k in 0..=5usize {
            let mut got = Vec::new();
            let w = walked_in(|| got = snap.messages_of_iter(p).take(k).collect::<Vec<_>>());
            assert_eq!(got, model[..k.min(model.len())], "forward take({k})");
            let want = match got.last() {
                _ if k == 0 => 0,
                Some(&(id, d)) if got.len() == k => reached(&|e| key(e) <= (d, id)),
                _ => tail.len() as u64,
            };
            assert_eq!(w, want, "forward take({k}) walked");
            total += w;
        }
        for &max in bounds {
            let newest: Vec<Dated> =
                model.iter().rev().filter(|&&(_, d)| d <= max).copied().collect();
            for k in 0..=5usize {
                let mut got = Vec::new();
                let w = walked_in(|| {
                    got = snap.recent_messages_walk(p, max).take(k).collect::<Vec<_>>()
                });
                assert_eq!(got, newest[..k.min(newest.len())], "walk to {max:?}, take({k})");
                let want = match got.last() {
                    _ if k == 0 => 0,
                    Some(&(id, d)) if got.len() == k => {
                        reached(&|e| e.date <= max && key(e) >= (d, id))
                    }
                    _ => reached(&|e| e.date <= max),
                };
                assert_eq!(w, want, "walk to {max:?}, take({k}) walked");
                total += w;
            }
        }
        total
    }

    #[test]
    fn tail_lanes_match_the_owned_oracle_at_every_length() {
        let ds =
            snb_datagen::generate(snb_datagen::GeneratorConfig::with_persons(60).activity(0.4))
                .unwrap();
        let s = Store::new();
        s.bulk_load(&ds);
        // The model of the person with the most bulk messages: their posts
        // and comments up to the update split, read from the dataset.
        let split = ds.config.update_split;
        let bulk_of = |p: PersonId| -> Vec<Dated> {
            let posts = ds.posts.iter().map(|m| (m.author, m.id, m.creation_date));
            let comments = ds.comments.iter().map(|c| (c.author, c.id, c.creation_date));
            posts
                .chain(comments)
                .filter(|&(a, _, d)| a == p && d <= split)
                .map(|(_, id, d)| (id.raw(), d))
                .collect()
        };
        let p = ds.persons.iter().map(|q| q.id).max_by_key(|&q| bulk_of(q).len()).unwrap();
        let bulk = bulk_of(p);
        assert!(bulk.len() >= 2, "the person needs a bulk prefix");
        let lo = bulk.iter().map(|&(_, d)| d.0).min().unwrap();
        let hi = bulk.iter().map(|&(_, d)| d.0).max().unwrap();
        let (forum, first_id) = {
            let snap = s.pinned();
            let forum = (0..snap.forum_slots() as u64)
                .map(ForumId)
                .find(|&f| snap.forum_ref(f).is_some())
                .unwrap();
            (forum, snap.message_slots() as u64)
        };
        // Appended dates scramble over and around the bulk span; every
        // fifth repeats the date of an earlier tail entry, so ties break
        // on the id.
        let span = hi - lo + 1;
        let date = |i: u64| -> i64 {
            let j = if i % 5 == 4 { i - 3 } else { i };
            lo - span / 4 + ((j * 7919) % 151) as i64 * (span * 3 / 2) / 151
        };
        // The bulk messages plus the first `len` appended posts, sorted.
        let model = |len: u64| -> Vec<Dated> {
            let mut m = bulk.clone();
            m.extend((0..len).map(|i| (first_id + i, SimTime(date(i)))));
            m.sort_unstable_by_key(|&(id, d)| (d, id));
            m
        };
        let bounds = [SimTime(i64::MAX), SimTime(lo), SimTime((lo + hi) / 2), SimTime(date(7))];
        let raw_tail = |snap: &PinnedSnapshot<'_>| -> Vec<Entry> {
            let list = snap.tables.person_messages.get(p.index()).unwrap();
            list.tail()
                .map_or(Vec::new(), |t| (0..t.published_len()).map(|i| t.published(i)).collect())
        };
        let append = |i: u64| {
            s.apply(&UpdateOp::AddPost(post(first_id + i, p.raw(), forum.raw(), date(i)))).unwrap();
        };

        // Tail lengths 0..=70 cross the base runs at 16, 32, 48 and 64:
        // each length is checked when pinned, with its tail all visible.
        const N: u64 = 70;
        let before = s.counters().versions_walked.get();
        let mut held = Vec::new();
        let mut walked = 0u64;
        for len in 0..=N {
            let snap = s.pinned();
            walked += check_lanes(&snap, p, &model(len), &raw_tail(&snap), &bounds);
            held.push(snap);
            if len < N {
                append(len);
            }
        }
        // Then again, once the tail has grown past every pin: the newer
        // entries are reached and filtered out.
        for i in N..2 * N {
            append(i);
        }
        let tail = raw_tail(&held[0]);
        assert_eq!(tail.len() as u64, 2 * N);
        for (len, snap) in held.iter().enumerate() {
            walked += check_lanes(snap, p, &model(len as u64), &tail, &bounds);
        }
        drop(held);
        // Every one of those walks reached the store counter, exactly.
        assert_eq!(s.counters().versions_walked.get() - before, walked);
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
        drop(pinned);
        assert!(total > 0);
        // A purely bulk-loaded store serves everything from the fast lane.
        assert_eq!(s.counters().versions_walked.get(), walked_before);
        assert_eq!(s.counters().read_fastlane_entries.get(), fast_before + total as u64);
    }
}
