//! Parallel sorted bulk loader.
//!
//! The serial loader builds every date-ordered index with per-item
//! `sorted_insert` — a binary search plus an `O(n)` memmove per entry,
//! `O(n²)` per list in the worst case, all on one thread. Bulk-load time is
//! a first-class benchmark dimension (§4: "32 months are bulkloaded at
//! benchmark start"), so this module builds the same [`Tables`] a different
//! way:
//!
//! 1. every id space (persons, forums, messages) is split into contiguous
//!    ranges, one per worker thread;
//! 2. each worker scans the (read-only) dataset and materializes *only*
//!    the table slots and index lists whose owning id falls in its ranges;
//! 3. each list is sorted **once** with `sort_unstable_by_key` at the end
//!    instead of being kept incrementally sorted;
//! 4. each worker installs its chunk directly into the shared [`Tables`]
//!    (stable [`SegVec`][crate::tail::SegVec] addresses make concurrent
//!    disjoint-slot installs safe), and the table bounds are published
//!    once, after all workers join.
//!
//! Every list is owned by exactly one worker and sorted by the same
//! `(date, id)` key the serial path maintains, and a counting pre-pass
//! replicates the serial `ensure` calls slot for slot *and* records each
//! list's exact final length, so workers allocate every list at final
//! capacity (no growth reallocs) — and the result is identical to a serial
//! load regardless of thread count (asserted by `tests/recovery.rs` and
//! the workspace end-to-end suite).

use crate::mvcc::BULK_TS;
use crate::tables::{
    comment_row, distinct_tags, post_row, Entry, IndexTable, MessageRow, Tables, Versioned,
};
use crate::tail::IndexList;
use snb_core::schema::{Forum, Person};
use snb_core::shard::ShardMap;
use snb_core::time::SimTime;
use snb_core::{ForumId, MessageId};
use snb_datagen::Dataset;
use std::ops::Range;

/// Ownership filter for a shard-local bulk load (`snb serve --shard i/N`).
///
/// Persons and the friendship graph always load — they are replicated on
/// every shard so 2-hop traversals never cross a process boundary. Forums
/// and their activity trees (memberships, posts, comments, likes) load
/// only when the owning forum falls in this shard's id range. Likes name
/// only a message, so their ownership resolves through the dataset's
/// message → forum index — the same co-location [`snb_core::update::StreamKey`]
/// relies on for causal ordering.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ShardSel {
    map: ShardMap,
    shard: u32,
}

impl ShardSel {
    pub(crate) fn new(map: ShardMap, shard: u32) -> ShardSel {
        ShardSel { map, shard }
    }

    fn forum(&self, f: ForumId) -> bool {
        self.map.owns_forum(f, self.shard)
    }

    fn message(&self, ds: &Dataset, m: MessageId) -> bool {
        self.forum(ds.forum_of_message(m))
    }
}

/// `sel` keeps everything when absent; otherwise only this shard's slice.
fn keep_forum(sel: Option<&ShardSel>, f: ForumId) -> bool {
    sel.is_none_or(|s| s.forum(f))
}

fn keep_message(sel: Option<&ShardSel>, ds: &Dataset, m: MessageId) -> bool {
    sel.is_none_or(|s| s.message(ds, m))
}

/// The sizing pre-pass result: exact final bound of every [`Tables`]
/// table (replicating the serial loader's `ensure` calls so slot counts —
/// and thus `*_slots()` scan bounds — match the serial path exactly), and
/// the exact number of entries each index list will receive, so workers
/// allocate every list at final capacity and never pay a growth realloc.
#[derive(Debug, Default)]
struct Plan {
    persons: usize,
    forums: usize,
    messages: usize,
    knows: Vec<u32>,
    person_messages: Vec<u32>,
    person_posts: Vec<u32>,
    person_forums: Vec<u32>,
    person_likes: Vec<u32>,
    forum_posts: Vec<u32>,
    forum_members: Vec<u32>,
    message_replies: Vec<u32>,
    message_likes: Vec<u32>,
    tag_posts: Vec<u32>,
}

fn bump(slot: &mut usize, idx: usize) {
    *slot = (*slot).max(idx + 1);
}

/// Extend the count vector so slot `idx` exists (an `ensure` without an
/// entry: the serial loader also materializes empty lists up to the
/// highest referenced id).
fn ensure(v: &mut Vec<u32>, idx: usize) {
    if idx >= v.len() {
        v.resize(idx + 1, 0);
    }
}

/// `ensure` plus: one more entry will land in slot `idx`.
fn tick(v: &mut Vec<u32>, idx: usize) {
    ensure(v, idx);
    v[idx] += 1;
}

fn plan(ds: &Dataset, cut: SimTime, sel: Option<&ShardSel>) -> Plan {
    let mut s = Plan::default();
    for p in ds.persons.iter().filter(|p| p.creation_date <= cut) {
        let i = p.id.index();
        bump(&mut s.persons, i);
        ensure(&mut s.knows, i);
        ensure(&mut s.person_messages, i);
        ensure(&mut s.person_posts, i);
        ensure(&mut s.person_forums, i);
        ensure(&mut s.person_likes, i);
    }
    for k in ds.knows.iter().filter(|k| k.creation_date <= cut) {
        tick(&mut s.knows, k.a.index());
        tick(&mut s.knows, k.b.index());
    }
    for f in ds.forums.iter().filter(|f| f.creation_date <= cut && keep_forum(sel, f.id)) {
        let i = f.id.index();
        bump(&mut s.forums, i);
        ensure(&mut s.forum_posts, i);
        ensure(&mut s.forum_members, i);
    }
    for m in ds.memberships.iter().filter(|m| m.join_date <= cut && keep_forum(sel, m.forum)) {
        tick(&mut s.forum_members, m.forum.index());
        tick(&mut s.person_forums, m.person.index());
    }
    for p in ds.posts.iter().filter(|p| p.creation_date <= cut && keep_forum(sel, p.forum)) {
        tick(&mut s.forum_posts, p.forum.index());
        tick(&mut s.person_messages, p.author.index());
        tick(&mut s.person_posts, p.author.index());
        for t in distinct_tags(&p.tags) {
            tick(&mut s.tag_posts, t.index());
        }
        let i = p.id.index();
        bump(&mut s.messages, i);
        ensure(&mut s.message_replies, i);
        ensure(&mut s.message_likes, i);
    }
    for c in ds.comments.iter().filter(|c| c.creation_date <= cut && keep_forum(sel, c.forum)) {
        tick(&mut s.message_replies, c.reply_to.index());
        tick(&mut s.person_messages, c.author.index());
        let i = c.id.index();
        bump(&mut s.messages, i);
        ensure(&mut s.message_replies, i);
        ensure(&mut s.message_likes, i);
    }
    for l in ds.likes.iter().filter(|l| l.creation_date <= cut && keep_message(sel, ds, l.message))
    {
        tick(&mut s.message_likes, l.message.index());
        tick(&mut s.person_likes, l.person.index());
    }
    s
}

/// Contiguous slice of `0..len` owned by worker `t` of `threads` (empty
/// for trailing workers when `len < threads`).
fn range_of(len: usize, threads: usize, t: usize) -> Range<usize> {
    let chunk = len.div_ceil(threads).max(1);
    (t * chunk).min(len)..((t + 1) * chunk).min(len)
}

/// One worker's contiguous slice of every table.
#[derive(Debug, Default)]
struct Shard {
    persons: Vec<Option<Versioned<Person>>>,
    forums: Vec<Option<Versioned<Forum>>>,
    messages: Vec<Option<Versioned<MessageRow>>>,
    knows: Vec<Vec<Entry>>,
    person_messages: Vec<Vec<Entry>>,
    person_posts: Vec<Vec<Entry>>,
    forum_posts: Vec<Vec<Entry>>,
    forum_members: Vec<Vec<Entry>>,
    person_forums: Vec<Vec<Entry>>,
    message_replies: Vec<Vec<Entry>>,
    message_likes: Vec<Vec<Entry>>,
    person_likes: Vec<Vec<Entry>>,
    tag_posts: Vec<Vec<Entry>>,
}

fn entry(date: SimTime, id: u64) -> Entry {
    Entry { date, id, commit: BULK_TS }
}

/// Each list allocated at its exact final capacity, so pushes never
/// realloc (capacity is invisible to the identical-results contract).
fn with_caps(counts: &[u32]) -> Vec<Vec<Entry>> {
    counts.iter().map(|&c| Vec::with_capacity(c as usize)).collect()
}

fn build_shard(
    ds: &Dataset,
    cut: SimTime,
    sel: Option<&ShardSel>,
    s: &Plan,
    threads: usize,
    t: usize,
) -> Shard {
    let persons_r = range_of(s.persons, threads, t);
    let knows_r = range_of(s.knows.len(), threads, t);
    let person_messages_r = range_of(s.person_messages.len(), threads, t);
    let person_posts_r = range_of(s.person_posts.len(), threads, t);
    let person_forums_r = range_of(s.person_forums.len(), threads, t);
    let person_likes_r = range_of(s.person_likes.len(), threads, t);
    let forums_r = range_of(s.forums, threads, t);
    let forum_posts_r = range_of(s.forum_posts.len(), threads, t);
    let forum_members_r = range_of(s.forum_members.len(), threads, t);
    let messages_r = range_of(s.messages, threads, t);
    let message_replies_r = range_of(s.message_replies.len(), threads, t);
    let message_likes_r = range_of(s.message_likes.len(), threads, t);
    let tag_posts_r = range_of(s.tag_posts.len(), threads, t);

    let mut sh = Shard {
        persons: vec![None; persons_r.len()],
        forums: vec![None; forums_r.len()],
        messages: vec![None; messages_r.len()],
        knows: with_caps(&s.knows[knows_r.clone()]),
        person_messages: with_caps(&s.person_messages[person_messages_r.clone()]),
        person_posts: with_caps(&s.person_posts[person_posts_r.clone()]),
        forum_posts: with_caps(&s.forum_posts[forum_posts_r.clone()]),
        forum_members: with_caps(&s.forum_members[forum_members_r.clone()]),
        person_forums: with_caps(&s.person_forums[person_forums_r.clone()]),
        message_replies: with_caps(&s.message_replies[message_replies_r.clone()]),
        message_likes: with_caps(&s.message_likes[message_likes_r.clone()]),
        person_likes: with_caps(&s.person_likes[person_likes_r.clone()]),
        tag_posts: with_caps(&s.tag_posts[tag_posts_r.clone()]),
    };

    for p in ds.persons.iter().filter(|p| p.creation_date <= cut) {
        let i = p.id.index();
        if persons_r.contains(&i) {
            sh.persons[i - persons_r.start] = Some(Versioned { commit: BULK_TS, row: p.clone() });
        }
    }
    for k in ds.knows.iter().filter(|k| k.creation_date <= cut) {
        let (a, b) = (k.a.index(), k.b.index());
        if knows_r.contains(&a) {
            sh.knows[a - knows_r.start].push(entry(k.creation_date, k.b.raw()));
        }
        if knows_r.contains(&b) {
            sh.knows[b - knows_r.start].push(entry(k.creation_date, k.a.raw()));
        }
    }
    for f in ds.forums.iter().filter(|f| f.creation_date <= cut && keep_forum(sel, f.id)) {
        let i = f.id.index();
        if forums_r.contains(&i) {
            sh.forums[i - forums_r.start] = Some(Versioned { commit: BULK_TS, row: f.clone() });
        }
    }
    for m in ds.memberships.iter().filter(|m| m.join_date <= cut && keep_forum(sel, m.forum)) {
        let (f, p) = (m.forum.index(), m.person.index());
        if forum_members_r.contains(&f) {
            sh.forum_members[f - forum_members_r.start].push(entry(m.join_date, m.person.raw()));
        }
        if person_forums_r.contains(&p) {
            sh.person_forums[p - person_forums_r.start].push(entry(m.join_date, m.forum.raw()));
        }
    }
    for p in ds.posts.iter().filter(|p| p.creation_date <= cut && keep_forum(sel, p.forum)) {
        let f = p.forum.index();
        if forum_posts_r.contains(&f) {
            sh.forum_posts[f - forum_posts_r.start].push(entry(p.creation_date, p.id.raw()));
        }
        let a = p.author.index();
        if person_messages_r.contains(&a) {
            sh.person_messages[a - person_messages_r.start]
                .push(entry(p.creation_date, p.id.raw()));
        }
        if person_posts_r.contains(&a) {
            sh.person_posts[a - person_posts_r.start].push(entry(p.creation_date, p.id.raw()));
        }
        for tag in distinct_tags(&p.tags) {
            let g = tag.index();
            if tag_posts_r.contains(&g) {
                sh.tag_posts[g - tag_posts_r.start].push(entry(p.creation_date, p.id.raw()));
            }
        }
        let i = p.id.index();
        if messages_r.contains(&i) {
            sh.messages[i - messages_r.start] =
                Some(Versioned { commit: BULK_TS, row: post_row(p) });
        }
    }
    for c in ds.comments.iter().filter(|c| c.creation_date <= cut && keep_forum(sel, c.forum)) {
        let parent = c.reply_to.index();
        if message_replies_r.contains(&parent) {
            sh.message_replies[parent - message_replies_r.start]
                .push(entry(c.creation_date, c.id.raw()));
        }
        let a = c.author.index();
        if person_messages_r.contains(&a) {
            sh.person_messages[a - person_messages_r.start]
                .push(entry(c.creation_date, c.id.raw()));
        }
        let i = c.id.index();
        if messages_r.contains(&i) {
            sh.messages[i - messages_r.start] =
                Some(Versioned { commit: BULK_TS, row: comment_row(c) });
        }
    }
    for l in ds.likes.iter().filter(|l| l.creation_date <= cut && keep_message(sel, ds, l.message))
    {
        let m = l.message.index();
        if message_likes_r.contains(&m) {
            sh.message_likes[m - message_likes_r.start]
                .push(entry(l.creation_date, l.person.raw()));
        }
        let p = l.person.index();
        if person_likes_r.contains(&p) {
            sh.person_likes[p - person_likes_r.start].push(entry(l.creation_date, l.message.raw()));
        }
    }

    // Sort each index list once — same `(date, id)` order `sorted_insert`
    // maintains incrementally.
    let lists = sh
        .knows
        .iter_mut()
        .chain(sh.person_messages.iter_mut())
        .chain(sh.person_posts.iter_mut())
        .chain(sh.forum_posts.iter_mut())
        .chain(sh.forum_members.iter_mut())
        .chain(sh.person_forums.iter_mut())
        .chain(sh.message_replies.iter_mut())
        .chain(sh.message_likes.iter_mut())
        .chain(sh.person_likes.iter_mut())
        .chain(sh.tag_posts.iter_mut());
    for list in lists {
        list.sort_unstable_by_key(|e| (e.date, e.id));
    }
    sh
}

/// Install `lists` as immutable bulk prefixes at `table[start..]`.
///
/// Uses [`SegVec::set_slot`][crate::tail::SegVec] (no bound bump): slots
/// stay invisible to readers until the final publication pass in
/// [`build_into`] raises each table's high-water mark.
fn put_lists(table: &IndexTable, start: usize, lists: Vec<Vec<Entry>>) {
    for (j, list) in lists.into_iter().enumerate() {
        table.set_slot(start + j, IndexList::from_bulk(list));
    }
}

/// Install one worker's shard into the shared tables. Ranges are
/// recomputed from the same `(len, threads, t)` inputs `build_shard` used,
/// so every slot index lands exactly where the serial loader would put it.
fn install_shard(tables: &Tables, sh: Shard, s: &Plan, threads: usize, t: usize) {
    let persons_r = range_of(s.persons, threads, t);
    for (j, p) in sh.persons.into_iter().enumerate() {
        if let Some(v) = p {
            tables.persons.set_slot(persons_r.start + j, v);
        }
    }
    let forums_r = range_of(s.forums, threads, t);
    for (j, f) in sh.forums.into_iter().enumerate() {
        if let Some(v) = f {
            tables.forums.set_slot(forums_r.start + j, v);
        }
    }
    let messages_r = range_of(s.messages, threads, t);
    for (j, m) in sh.messages.into_iter().enumerate() {
        if let Some(v) = m {
            tables.messages.set_slot(messages_r.start + j, v);
        }
    }
    put_lists(&tables.knows, range_of(s.knows.len(), threads, t).start, sh.knows);
    put_lists(
        &tables.person_messages,
        range_of(s.person_messages.len(), threads, t).start,
        sh.person_messages,
    );
    put_lists(
        &tables.person_posts,
        range_of(s.person_posts.len(), threads, t).start,
        sh.person_posts,
    );
    put_lists(&tables.forum_posts, range_of(s.forum_posts.len(), threads, t).start, sh.forum_posts);
    put_lists(
        &tables.forum_members,
        range_of(s.forum_members.len(), threads, t).start,
        sh.forum_members,
    );
    put_lists(
        &tables.person_forums,
        range_of(s.person_forums.len(), threads, t).start,
        sh.person_forums,
    );
    put_lists(
        &tables.message_replies,
        range_of(s.message_replies.len(), threads, t).start,
        sh.message_replies,
    );
    put_lists(
        &tables.message_likes,
        range_of(s.message_likes.len(), threads, t).start,
        sh.message_likes,
    );
    put_lists(
        &tables.person_likes,
        range_of(s.person_likes.len(), threads, t).start,
        sh.person_likes,
    );
    put_lists(&tables.tag_posts, range_of(s.tag_posts.len(), threads, t).start, sh.tag_posts);
}

/// Build `ds` (entities dated at or before `cut`) straight into `tables`
/// using `threads` workers. `tables` must be empty. Every loader entry
/// carries `BULK_TS`, so each list's bulk-prefix fast lane covers it
/// entirely.
pub(crate) fn build_into(tables: &Tables, ds: &Dataset, cut: SimTime, threads: usize) {
    build_into_sharded(tables, ds, cut, threads, None)
}

/// [`build_into`] restricted to one shard's slice when `sel` is set:
/// persons and knows load fully (replicated), forum-rooted activity loads
/// only when [`ShardSel`] owns its forum. The per-thread range split and
/// sort order are unchanged, so a shard's tables are byte-identical to a
/// full load with the foreign activity simply absent.
pub(crate) fn build_into_sharded(
    tables: &Tables,
    ds: &Dataset,
    cut: SimTime,
    threads: usize,
    sel: Option<ShardSel>,
) {
    let threads = threads.max(1);
    let sel = sel.as_ref();
    let s = plan(ds, cut, sel);
    std::thread::scope(|scope| {
        let s = &s;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                scope.spawn(move || {
                    let sh = build_shard(ds, cut, sel, s, threads, t);
                    install_shard(tables, sh, s, threads, t);
                })
            })
            .collect();
        for h in handles {
            h.join().expect("bulk-load worker panicked");
        }
    });
    // Publish the bounds last: `SegVec::get` gates on `high`, so nothing
    // installed above is reachable until these stores land. (Bulk load is
    // not atomic with respect to concurrent readers — see
    // `Store::bulk_load_until_threads` — but the bound-last order still
    // guarantees no reader can reach an uninitialized slot.)
    tables.persons.bump(s.persons);
    tables.forums.bump(s.forums);
    tables.messages.bump(s.messages);
    tables.knows.bump(s.knows.len());
    tables.person_messages.bump(s.person_messages.len());
    tables.person_posts.bump(s.person_posts.len());
    tables.forum_posts.bump(s.forum_posts.len());
    tables.forum_members.bump(s.forum_members.len());
    tables.person_forums.bump(s.person_forums.len());
    tables.message_replies.bump(s.message_replies.len());
    tables.message_likes.bump(s.message_likes.len());
    tables.person_likes.bump(s.person_likes.len());
    tables.tag_posts.bump(s.tag_posts.len());
}
