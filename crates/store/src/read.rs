//! The read side: the one consistent, latch-free view of the store and
//! the iterators it hands out.
//!
//! [`PinnedSnapshot`] pins a commit timestamp and reads the shared
//! [`Tables`] through it. The borrowing iterators ([`DatedIter`],
//! [`RecentWalk`]) lazily merge a list's published ladder runs
//! (visibility-filtered as they are reached) with its immutable bulk
//! prefix; the owned-`Vec` accessors run an independent eager merge of the
//! same lists ([`merge_ascending`] over [`IndexList::gather_tail`]) that
//! the property tests compare the iterators against. No atomics live
//! here: what a reader may touch is decided by the acquire loads inside
//! [`crate::tail`] and by [`crate::mvcc::visible`].

use crate::compact::{Cursor, RevCursor, FILL_DATED};
use crate::counters::StoreCounters;
use crate::mvcc::{visible, CommitTs};
use crate::tables::{key, Entry, MessageRow, Tables};
use crate::tail::{IndexList, LaneSrc, MAX_RUNS};
use snb_core::schema::{Forum, Person};
use snb_core::time::SimTime;
use snb_core::{ForumId, MessageId, PersonId, TagId};
use snb_obs::trace::{self, NameId};
use snb_obs::{tick_index_probes, tick_versions_walked};

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
/// Accessors hand out references and zero-allocation iterators tied to the
/// store's immutable segments ([`PinnedSnapshot::friends_iter`],
/// [`PinnedSnapshot::recent_messages_walk`], [`PinnedSnapshot::person_ref`]
/// …). The owned-`Vec` accessors beside them ([`PinnedSnapshot::friends`]
/// …) run an independent eager merge of the same lists; the property tests
/// compare the iterators against it.
pub struct PinnedSnapshot<'a> {
    pub(crate) tables: &'a Tables,
    pub(crate) ts: CommitTs,
    pub(crate) counters: &'a StoreCounters,
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

impl<'g> PinnedSnapshot<'g> {
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
    /// visible bulk prefix (no visibility check), `examined` tail entries
    /// walked of which `kept` were visible. Every bulk entry lives in the
    /// prefix and every tail entry is a versioned commit, so the lane
    /// decides the counter: each touched entry lands in exactly one of
    /// `store.read.fastlane_entries` (prefix) or
    /// `store.mvcc.versions_walked` (tail).
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
        let (examined, kept) = list.gather_tail(self.ts, |_| true, &mut tail);
        self.note_scan(bulk.len(), examined, kept);
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
    /// [`PinnedSnapshot::iter`] consumed from the back.
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
}

/// Zero-allocation iterator over the visible entries of one index list,
/// ascending `(date, id)` — a lazy k-way merge of the immutable bulk
/// prefix (yielded without visibility checks) and the list's ladder runs
/// (at most one immutable sorted run per level; see `IndexTail` in
/// `tail.rs`). Versioned run entries are MVCC-filtered as
/// they are reached, so an early-exiting caller pays only for what it
/// consumed. All accounting is batched locally and flushed once, on drop.
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
/// [`PinnedSnapshot::note_scan`] for the lane semantics).
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
    /// The snapshot's commit timestamp.
    pub fn ts(&self) -> CommitTs {
        self.ts
    }

    /// Person by id, if visible — borrowed from the store's segments.
    pub fn person_ref(&self, id: PersonId) -> Option<&Person> {
        let slot = self.tables.persons.get(id.index());
        let vis = slot.filter(|v| visible(v.commit, self.ts));
        self.note_probe(slot.is_some(), vis.is_some());
        vis.map(|v| &v.row)
    }

    /// Forum by id, if visible — borrowed from the store's segments.
    pub fn forum_ref(&self, id: ForumId) -> Option<&Forum> {
        let slot = self.tables.forums.get(id.index());
        let vis = slot.filter(|v| visible(v.commit, self.ts));
        self.note_probe(slot.is_some(), vis.is_some());
        vis.map(|v| &v.row)
    }

    /// Full message row, if visible — borrowed from the store's segments.
    pub fn message_ref(&self, id: MessageId) -> Option<&MessageRow> {
        let slot = self.tables.messages.get(id.index());
        let vis = slot.filter(|v| visible(v.commit, self.ts));
        self.note_probe(slot.is_some(), vis.is_some());
        vis.map(|v| &v.row)
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

    /// Friends of `id`, ascending by date — zero-allocation on bulk-only
    /// lists (a non-empty published tail is gathered once up front).
    pub fn friends_iter(&self, id: PersonId) -> DatedIter<'_> {
        self.iter(self.tables.knows.get(id.index()))
    }

    /// Messages authored by `id`, ascending by date — zero-allocation on
    /// bulk-only lists.
    pub fn messages_of_iter(&self, id: PersonId) -> DatedIter<'_> {
        self.iter(self.tables.person_messages.get(id.index()))
    }

    /// Posts (no comments) authored by `id`, ascending by date — the
    /// covering index behind the Q6/Q10 circle scans: every entry is a
    /// visible post, so consumers skip the per-message row probe that a
    /// `messages_of_iter` + reply filter would pay.
    pub fn posts_of_iter(&self, id: PersonId) -> DatedIter<'_> {
        self.iter(self.tables.person_posts.get(id.index()))
    }

    /// Posts in forum `id`, ascending by date — zero-allocation on
    /// bulk-only lists.
    pub fn posts_in_forum_iter(&self, id: ForumId) -> DatedIter<'_> {
        self.iter(self.tables.forum_posts.get(id.index()))
    }

    /// Members of forum `id` with join dates — zero-allocation on
    /// bulk-only lists.
    pub fn members_of_iter(&self, id: ForumId) -> DatedIter<'_> {
        self.iter(self.tables.forum_members.get(id.index()))
    }

    /// Forums `id` has joined, with join dates — zero-allocation on
    /// bulk-only lists.
    pub fn forums_of_iter(&self, id: PersonId) -> DatedIter<'_> {
        self.iter(self.tables.person_forums.get(id.index()))
    }

    /// Direct replies to message `id`, ascending by date — zero-allocation
    /// on bulk-only lists.
    pub fn replies_of_iter(&self, id: MessageId) -> DatedIter<'_> {
        self.iter(self.tables.message_replies.get(id.index()))
    }

    /// Likes on message `id` as `(person, like date)` — zero-allocation on
    /// bulk-only lists.
    pub fn likes_of_iter(&self, id: MessageId) -> DatedIter<'_> {
        self.iter(self.tables.message_likes.get(id.index()))
    }

    /// Likes given by person `id` as `(message, like date)` —
    /// zero-allocation on bulk-only lists.
    pub fn likes_by_iter(&self, id: PersonId) -> DatedIter<'_> {
        self.iter(self.tables.person_likes.get(id.index()))
    }

    /// The messages of `id` created at or before `max_date`, newest first —
    /// the borrowing form of [`PinnedSnapshot::recent_messages_of`]; bound
    /// it with `.take(k)` or a threshold-based early break.
    pub fn recent_messages_walk(&self, id: PersonId, max_date: SimTime) -> RecentWalk<'_> {
        self.recent_walk(self.tables.person_messages.get(id.index()), max_date)
    }

    /// Friends of `id` with friendship dates, ascending by date.
    pub fn friends(&self, id: PersonId) -> Vec<Dated> {
        self.collect(self.tables.knows.get(id.index()))
    }

    /// Messages authored by `id`, ascending by creation date.
    pub fn messages_of(&self, id: PersonId) -> Vec<Dated> {
        self.collect(self.tables.person_messages.get(id.index()))
    }

    /// The up-to-`k` most recent messages of `id` created at or before
    /// `max_date`, newest first.
    pub fn recent_messages_of(&self, id: PersonId, max_date: SimTime, k: usize) -> Vec<Dated> {
        let walk = self.recent_walk(self.tables.person_messages.get(id.index()), max_date);
        let mut out = Vec::with_capacity(k);
        out.extend(walk.take(k));
        out
    }

    /// Posts in forum `id`, ascending by creation date.
    pub fn posts_in_forum(&self, id: ForumId) -> Vec<Dated> {
        self.collect(self.tables.forum_posts.get(id.index()))
    }

    /// Members of forum `id` with join dates.
    pub fn members_of(&self, id: ForumId) -> Vec<Dated> {
        self.collect(self.tables.forum_members.get(id.index()))
    }

    /// Forums `id` has joined, with join dates.
    pub fn forums_of(&self, id: PersonId) -> Vec<Dated> {
        self.collect(self.tables.person_forums.get(id.index()))
    }

    /// Forums `id` joined strictly after `min_date` (date-index range scan).
    pub fn forums_of_after(&self, id: PersonId, min_date: SimTime) -> Vec<Dated> {
        let Some(list) = self.tables.person_forums.get(id.index()) else {
            return Vec::new();
        };
        let bulk = list.bulk();
        let prefix = Cursor::at(bulk, bulk.upper_bound_date(min_date));
        let mut tail = Vec::new();
        let (examined, kept) = list.gather_tail(self.ts, |e| e.date > min_date, &mut tail);
        self.note_scan(prefix.remaining(), examined, kept);
        let mut out = Vec::new();
        merge_ascending(prefix, &tail, &mut out);
        out
    }

    /// Direct replies to message `id`, ascending by date.
    pub fn replies_of(&self, id: MessageId) -> Vec<Dated> {
        self.collect(self.tables.message_replies.get(id.index()))
    }

    /// Likes on message `id` as `(person, like date)`.
    pub fn likes_of(&self, id: MessageId) -> Vec<Dated> {
        self.collect(self.tables.message_likes.get(id.index()))
    }

    /// Likes given by person `id` as `(message, like date)`.
    pub fn likes_by(&self, id: PersonId) -> Vec<Dated> {
        self.collect(self.tables.person_likes.get(id.index()))
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
    use crate::store::Store;
    use snb_core::time::SimTime;
    use snb_core::PersonId;

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
}
