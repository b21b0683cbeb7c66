//! Parallel sorted bulk loader.
//!
//! Bulk-load time is a first-class benchmark dimension (§4: "32 months are
//! bulkloaded at benchmark start"), so the loader builds the [`Tables`] in
//! parallel instead of through one [`Tables::insert`] per entity. It takes
//! every list entry and every list slot from [`index_writes`], the same
//! function `Tables::insert` (and so `Store::apply` and WAL replay) uses,
//! so both ways of building the tables write the same lists by
//! construction:
//!
//! 1. a counting pass over [`for_each_entity`] records the final bound of
//!    every table and the exact length of every list;
//! 2. every table is split into contiguous slot ranges, one per worker
//!    thread; each worker walks the (read-only) dataset again and keeps
//!    only the rows and list entries whose slot falls in its ranges, into
//!    lists allocated at their final capacity (no growth reallocs);
//! 3. each list is sorted **once**, by the `(date, id)` key the update
//!    path keeps its tails in;
//! 4. each worker installs its slice directly into the shared [`Tables`]
//!    (stable [`SegVec`][crate::tail::SegVec] addresses make concurrent
//!    disjoint-slot installs safe), and the table bounds are published
//!    once, after all workers join.
//!
//! Every slot is owned by exactly one worker, so the result is identical
//! at any thread count (asserted by
//! `parallel_bulk_load_is_deterministic_across_thread_counts` in
//! `tests/recovery.rs`).

use crate::mvcc::BULK_TS;
use crate::tables::{
    comment_row, index_writes, key, post_row, Entity, EntityTable, Entry, MessageRow, Tables,
    Versioned, INDEXES,
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

/// Hand `f` every entity of `ds` dated at or before `cut` (only `sel`'s
/// slice when set), in one fixed order: persons, knows, forums,
/// memberships, posts, comments, likes.
fn for_each_entity(
    ds: &Dataset,
    cut: SimTime,
    sel: Option<&ShardSel>,
    mut f: impl FnMut(Entity<'_>),
) {
    for p in ds.persons.iter().filter(|p| p.creation_date <= cut) {
        f(Entity::Person(p));
    }
    for k in ds.knows.iter().filter(|k| k.creation_date <= cut) {
        f(Entity::Knows(k));
    }
    for x in ds.forums.iter().filter(|x| x.creation_date <= cut && keep_forum(sel, x.id)) {
        f(Entity::Forum(x));
    }
    for m in ds.memberships.iter().filter(|m| m.join_date <= cut && keep_forum(sel, m.forum)) {
        f(Entity::Membership(m));
    }
    for p in ds.posts.iter().filter(|p| p.creation_date <= cut && keep_forum(sel, p.forum)) {
        f(Entity::Post(p));
    }
    for c in ds.comments.iter().filter(|c| c.creation_date <= cut && keep_forum(sel, c.forum)) {
        f(Entity::Comment(c));
    }
    for l in ds.likes.iter().filter(|l| l.creation_date <= cut && keep_message(sel, ds, l.message))
    {
        f(Entity::Like(l));
    }
}

/// The counting pass: the final bound of every table, and the exact number
/// of entries each list will receive, so workers allocate every list at
/// its final capacity.
#[derive(Debug, Default)]
struct Plan {
    persons: usize,
    forums: usize,
    messages: usize,
    /// Entries per list, one vector per index table ordered as
    /// [`INDEX_NAMES`][crate::tables::INDEX_NAMES]; its length is the
    /// table's bound.
    lists: [Vec<u32>; INDEXES],
}

fn bump(bound: &mut usize, idx: usize) {
    *bound = (*bound).max(idx + 1);
}

fn plan(ds: &Dataset, cut: SimTime, sel: Option<&ShardSel>) -> Plan {
    let mut s = Plan::default();
    for_each_entity(ds, cut, sel, |e| {
        match e {
            Entity::Person(p) => bump(&mut s.persons, p.id.index()),
            Entity::Forum(f) => bump(&mut s.forums, f.id.index()),
            Entity::Post(p) => bump(&mut s.messages, p.id.index()),
            Entity::Comment(c) => bump(&mut s.messages, c.id.index()),
            Entity::Knows(_) | Entity::Membership(_) | Entity::Like(_) => {}
        }
        index_writes(e, |ix, i, entry| {
            let counts = &mut s.lists[ix as usize];
            if i >= counts.len() {
                counts.resize(i + 1, 0);
            }
            counts[i] += u32::from(entry.is_some());
        });
    });
    s
}

/// Contiguous slice of `0..len` owned by worker `t` of `threads` (empty
/// for trailing workers when `len < threads`).
fn range_of(len: usize, threads: usize, t: usize) -> Range<usize> {
    let chunk = len.div_ceil(threads).max(1);
    (t * chunk).min(len)..((t + 1) * chunk).min(len)
}

/// One worker's contiguous slice of every table.
#[derive(Debug)]
struct Shard {
    persons: Vec<Option<Versioned<Person>>>,
    forums: Vec<Option<Versioned<Forum>>>,
    messages: Vec<Option<Versioned<MessageRow>>>,
    /// Ordered as [`Plan::lists`].
    lists: [Vec<Vec<Entry>>; INDEXES],
}

/// Set `rows[i]`, when slot `i` falls in this worker's range `r`.
fn put_row<T>(
    rows: &mut [Option<Versioned<T>>],
    r: &Range<usize>,
    i: usize,
    row: impl FnOnce() -> T,
) {
    if r.contains(&i) {
        rows[i - r.start] = Some(Versioned { commit: BULK_TS, row: row() });
    }
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
    let forums_r = range_of(s.forums, threads, t);
    let messages_r = range_of(s.messages, threads, t);
    let ranges = s.lists.each_ref().map(|counts| range_of(counts.len(), threads, t));
    let mut sh = Shard {
        persons: vec![None; persons_r.len()],
        forums: vec![None; forums_r.len()],
        messages: vec![None; messages_r.len()],
        lists: std::array::from_fn(|x| {
            let counts = &s.lists[x][ranges[x].clone()];
            counts.iter().map(|&c| Vec::with_capacity(c as usize)).collect()
        }),
    };
    for_each_entity(ds, cut, sel, |e| {
        match e {
            Entity::Person(p) => put_row(&mut sh.persons, &persons_r, p.id.index(), || p.clone()),
            Entity::Forum(f) => put_row(&mut sh.forums, &forums_r, f.id.index(), || f.clone()),
            Entity::Post(p) => put_row(&mut sh.messages, &messages_r, p.id.index(), || post_row(p)),
            Entity::Comment(c) => {
                put_row(&mut sh.messages, &messages_r, c.id.index(), || comment_row(c))
            }
            Entity::Knows(_) | Entity::Membership(_) | Entity::Like(_) => {}
        }
        index_writes(e, |ix, i, entry| {
            let r = &ranges[ix as usize];
            if let Some((date, id)) = entry.filter(|_| r.contains(&i)) {
                sh.lists[ix as usize][i - r.start].push(Entry { date, id, commit: BULK_TS });
            }
        });
    });
    for list in sh.lists.iter_mut().flatten() {
        list.sort_unstable_by_key(key);
    }
    sh
}

/// Install `rows` at `table[start..]`.
///
/// Uses [`SegVec::set_slot`][crate::tail::SegVec] (no bound bump), as
/// does the list install: slots stay invisible to readers until the final
/// publication pass in [`build_into_sharded`] raises each table's bound.
fn put_rows<T>(table: &EntityTable<T>, start: usize, rows: Vec<Option<Versioned<T>>>) {
    for (j, row) in rows.into_iter().enumerate() {
        if let Some(v) = row {
            table.set_slot(start + j, v);
        }
    }
}

/// Install one worker's shard into the shared tables, each list as an
/// immutable bulk prefix. Ranges are recomputed from the same
/// `(len, threads, t)` inputs `build_shard` used.
fn install_shard(tables: &Tables, sh: Shard, s: &Plan, threads: usize, t: usize) {
    put_rows(&tables.persons, range_of(s.persons, threads, t).start, sh.persons);
    put_rows(&tables.forums, range_of(s.forums, threads, t).start, sh.forums);
    put_rows(&tables.messages, range_of(s.messages, threads, t).start, sh.messages);
    for ((table, counts), lists) in tables.index_tables().into_iter().zip(&s.lists).zip(sh.lists) {
        let start = range_of(counts.len(), threads, t).start;
        for (j, list) in lists.into_iter().enumerate() {
            table.set_slot(start + j, IndexList::from_bulk(list));
        }
    }
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
    for (table, counts) in tables.index_tables().into_iter().zip(&s.lists) {
        table.bump(counts.len());
    }
}
