//! Scatter-gather execution of the read queries across shards.
//!
//! The paper's driver targets a *distributed* SUT (§4): updates are
//! partitioned across driver threads and the GCT keeps dependent updates
//! ordered across machines. This module supplies the query half of that
//! story — every complex read and S2 can be answered exactly by a set of
//! shard processes that each hold the replicated person/knows graph plus a
//! forum-partitioned slice of the activity
//! ([`snb_core::shard::ShardMap`]), because each query decomposes into a
//! per-shard **partial** plus a pure client-side **merge**:
//!
//! * **Top-union queries** (Q2, Q5, Q7, Q8, Q9, S2): result items live on
//!   exactly one shard, and every ordering key is computable locally. The
//!   global top-k is the top-k of the union of per-shard top-k lists, so a
//!   shard ships its own `run()` rows and [`merge`] re-sorts the union.
//!   Q7 additionally de-duplicates per liker (keep the latest like); the
//!   per-shard winner for a liker equals the global winner on the shard
//!   that owns it, so local-dedup-then-union stays exact.
//! * **Additive-group queries** (Q3, Q4, Q6, Q10, Q12, Q14): the measure
//!   is a sum over messages, and every message is owned by exactly one
//!   shard, so per-group partial aggregates add up to the global
//!   aggregate. Shards ship the **untruncated** group map (it is bounded
//!   by the candidate circle or tag dictionary, not the message count) and
//!   [`merge`] sums, filters, and ranks. Q14 ships path-pair weights in
//!   integer half-units so cross-shard addition is exact.
//! * **Replicated-only queries** (Q1, Q11, Q13): they touch persons and
//!   knows exclusively, which every shard replicates, so any single shard
//!   answers exactly ([`scatters`] returns false and the connector routes
//!   them whole).
//!
//! Rows cross the wire as [`MergedRow`]: an explicit ascending sort `key`
//! (descending orders are encoded by negation), identifier/measure
//! columns, and the display strings that only the owning shard can
//! resolve (message content, person names). Strings resolvable from the
//! embedded dictionaries (tag names, company names) are re-resolved
//! client-side instead of shipped.

use crate::complex::{q1, q10, q11, q12, q13, q14, q2, q3, q4, q5, q6, q7, q8, q9};
use crate::engine::Engine;
use crate::params::{ComplexQuery, ShortQuery};
use crate::short;
use snb_core::dict::Dictionaries;
use snb_store::PinnedSnapshot;
use std::cmp::Reverse;
use std::collections::{HashMap, HashSet};

/// One merged result row: an explicit sort key (ascending; descending
/// orders negate), id/measure columns, and owning-shard-resolved strings.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Default)]
pub struct MergedRow {
    /// Ascending composite sort key.
    pub key: [i64; 3],
    /// Identifier and measure columns (per-query layout, documented on
    /// [`partial`]).
    pub cols: Vec<i64>,
    /// Display strings only the owning shard can resolve.
    pub text: Vec<String>,
}

/// One per-shard group aggregate: `(k1, k2)` identify the group, `a`/`b`
/// carry additive measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupRow {
    /// Primary group key (person, tag, forum, or pair-min id).
    pub k1: u64,
    /// Secondary key / kind discriminator (query-specific).
    pub k2: u64,
    /// First additive measure.
    pub a: i64,
    /// Second additive measure.
    pub b: i64,
}

/// A shard's contribution to one query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Partial {
    /// Local top-`limit` rows in final-key form (top-union queries, and
    /// the whole result for replicated-only queries).
    Top {
        /// Global result limit the merge applies after re-sorting.
        limit: u32,
        /// Local rows, already keyed.
        rows: Vec<MergedRow>,
    },
    /// Untruncated additive aggregates (group queries).
    Groups {
        /// Per-group partial sums.
        rows: Vec<GroupRow>,
        /// Set-valued attachments (Q12: friend → matched tag id).
        pairs: Vec<(u64, u64)>,
        /// Q14 only: the shortest paths (identical on every shard — the
        /// knows graph is replicated — so the merge reads the first).
        paths: Vec<Vec<u64>>,
    },
}

/// Whether the sharded connector scatters this query to every shard.
/// False for the replicated-only queries, which any one shard answers.
pub fn scatters(q: &ComplexQuery) -> bool {
    !matches!(q, ComplexQuery::Q1(_) | ComplexQuery::Q11(_) | ComplexQuery::Q13(_))
}

/// Whether the sharded connector scatters this short read. Only S2 (a
/// person's newest messages) spans shards; the rest are single-row point
/// lookups routed by owner.
pub fn scatters_short(s: &ShortQuery) -> bool {
    matches!(s, ShortQuery::S2(_))
}

/// Rows in rank order wrapped as an unlimited Top partial (replicated-only
/// queries: the single answering shard already produced the final order).
fn rank_rows(rows: impl Iterator<Item = MergedRow>) -> Partial {
    let rows = rows
        .enumerate()
        .map(|(i, mut r)| {
            r.key = [i as i64, 0, 0];
            r
        })
        .collect();
    Partial::Top { limit: u32::MAX, rows }
}

fn top(limit: u32, rows: Vec<MergedRow>) -> Partial {
    Partial::Top { limit, rows }
}

fn groups(mut rows: Vec<GroupRow>) -> Partial {
    // Deterministic wire order (aggregation maps iterate randomly).
    rows.sort_by_key(|r| (r.k1, r.k2));
    Partial::Groups { rows, pairs: Vec::new(), paths: Vec::new() }
}

/// Compute this shard's partial answer. Column layouts (`cols` / `text`):
///
/// | query | cols | text |
/// |-------|------|------|
/// | Q1  | person, distance, #unis | last, city, unis…, companies… |
/// | Q2/Q9 | author, message, date | first, last, content |
/// | Q3  | person, x_count, y_count | — |
/// | Q4/Q6 | count | tag name |
/// | Q5  | forum, count | title |
/// | Q7  | liker, message, like_date, latency_min, is_new | first, last |
/// | Q8  | commenter, comment, date | first, last, content |
/// | Q10 | person, score | first, last |
/// | Q11 | person, work_from | first, last, company |
/// | Q12 | person, count | first, last, tag names… |
/// | Q13 | path length (one row iff reachable) | — |
/// | Q14 | weight half-units, path… | — |
/// | S2  | message, date, root_post, root_author | content |
pub fn partial(snap: &PinnedSnapshot<'_>, engine: Engine, q: &ComplexQuery) -> Partial {
    match q {
        ComplexQuery::Q1(p) => rank_rows(q1::run(snap, engine, p).into_iter().map(|r| {
            let mut text = vec![r.last_name.to_string(), r.city.to_string()];
            let unis = r.universities.len() as i64;
            text.extend(r.universities);
            text.extend(r.companies);
            MergedRow {
                key: [0; 3],
                cols: vec![r.person.raw() as i64, r.distance as i64, unis],
                text,
            }
        })),
        ComplexQuery::Q2(p) => top(
            20,
            q2::run(snap, engine, p)
                .into_iter()
                .map(|r| MergedRow {
                    key: [-r.creation_date.0, r.message.raw() as i64, 0],
                    cols: vec![r.author.raw() as i64, r.message.raw() as i64, r.creation_date.0],
                    text: vec![r.first_name.to_string(), r.last_name.to_string(), r.content],
                })
                .collect(),
        ),
        ComplexQuery::Q3(p) => {
            let counts = match engine {
                Engine::Intended => q3::intended(snap, p),
                Engine::Naive => q3::naive(snap, p),
            };
            groups(
                counts
                    .into_iter()
                    .map(|(id, (x, y))| GroupRow { k1: id, k2: 0, a: x as i64, b: y as i64 })
                    .collect(),
            )
        }
        ComplexQuery::Q4(p) => {
            let (in_window, before) = match engine {
                Engine::Intended => q4::intended(snap, p),
                Engine::Naive => q4::naive(snap, p),
            };
            let mut rows: Vec<GroupRow> = in_window
                .into_iter()
                .map(|(tag, count)| GroupRow { k1: tag, k2: 0, a: count as i64, b: 0 })
                .collect();
            rows.extend(before.into_iter().map(|tag| GroupRow { k1: tag, k2: 1, a: 0, b: 0 }));
            groups(rows)
        }
        ComplexQuery::Q5(p) => top(
            20,
            q5::run(snap, engine, p)
                .into_iter()
                .map(|r| MergedRow {
                    key: [-(r.count as i64), r.forum.raw() as i64, 0],
                    cols: vec![r.forum.raw() as i64, r.count as i64],
                    text: vec![r.title],
                })
                .collect(),
        ),
        ComplexQuery::Q6(p) => {
            let counts = match engine {
                Engine::Intended => q6::intended(snap, p),
                Engine::Naive => q6::naive(snap, p),
            };
            groups(
                counts
                    .into_iter()
                    .map(|(tag, count)| GroupRow { k1: tag, k2: 0, a: count as i64, b: 0 })
                    .collect(),
            )
        }
        ComplexQuery::Q7(p) => top(
            20,
            q7::run(snap, engine, p)
                .into_iter()
                .map(|r| MergedRow {
                    key: [-r.like_date.0, r.liker.raw() as i64, 0],
                    cols: vec![
                        r.liker.raw() as i64,
                        r.message.raw() as i64,
                        r.like_date.0,
                        r.latency_minutes,
                        i64::from(r.is_new),
                    ],
                    text: vec![r.first_name.to_string(), r.last_name.to_string()],
                })
                .collect(),
        ),
        ComplexQuery::Q8(p) => top(
            20,
            q8::run(snap, engine, p)
                .into_iter()
                .map(|r| MergedRow {
                    key: [-r.creation_date.0, r.comment.raw() as i64, 0],
                    cols: vec![r.commenter.raw() as i64, r.comment.raw() as i64, r.creation_date.0],
                    text: vec![r.first_name.to_string(), r.last_name.to_string(), r.content],
                })
                .collect(),
        ),
        ComplexQuery::Q9(p) => top(
            20,
            q9::run(snap, engine, p)
                .into_iter()
                .map(|r| MergedRow {
                    key: [-r.creation_date.0, r.message.raw() as i64, 0],
                    cols: vec![r.author.raw() as i64, r.message.raw() as i64, r.creation_date.0],
                    text: vec![r.first_name.to_string(), r.last_name.to_string(), r.content],
                })
                .collect(),
        ),
        ComplexQuery::Q10(p) => {
            let interests: HashSet<snb_core::TagId> = match snap.person_ref(p.person) {
                Some(me) => me.interests.iter().copied().collect(),
                None => return groups(Vec::new()),
            };
            let cands = q10::horoscope_candidates(snap, p);
            let scores = match engine {
                Engine::Intended => q10::intended(snap, &cands, &interests),
                Engine::Naive => q10::naive(snap, &cands, &interests),
            };
            // score = 2·common − total is linear in per-message terms, so
            // per-shard scores add up to the global score.
            groups(scores.into_iter().map(|(c, s)| GroupRow { k1: c, k2: 0, a: s, b: 0 }).collect())
        }
        ComplexQuery::Q11(p) => {
            rank_rows(q11::run(snap, engine, p).into_iter().map(|r| MergedRow {
                key: [0; 3],
                cols: vec![r.person.raw() as i64, r.work_from as i64],
                text: vec![r.first_name.to_string(), r.last_name.to_string(), r.company],
            }))
        }
        ComplexQuery::Q12(p) => {
            let dicts = Dictionaries::global();
            let classes: HashSet<usize> =
                dicts.tags.class_descendants(p.tag_class).into_iter().collect();
            let agg = match engine {
                Engine::Intended => q12::intended(snap, p, &classes),
                Engine::Naive => q12::naive(snap, p, &classes),
            };
            let mut rows = Vec::with_capacity(agg.len());
            let mut pairs = Vec::new();
            for (friend, (count, tags)) in agg {
                rows.push(GroupRow { k1: friend, k2: 0, a: count as i64, b: 0 });
                pairs.extend(tags.into_iter().map(|t| (friend, t)));
            }
            rows.sort_by_key(|r| (r.k1, r.k2));
            pairs.sort_unstable();
            Partial::Groups { rows, pairs, paths: Vec::new() }
        }
        ComplexQuery::Q13(p) => {
            let len = q13::run(snap, engine, p);
            let rows = if len >= 0 {
                vec![MergedRow { key: [0; 3], cols: vec![len as i64], text: Vec::new() }]
            } else {
                Vec::new()
            };
            Partial::Top { limit: u32::MAX, rows }
        }
        ComplexQuery::Q14(p) => {
            let paths = q14::shortest_paths(snap, engine, p);
            // This shard's half-unit weight of every path edge, already
            // sorted by edge; the merge adds them across shards.
            let rows = q14::edge_weights(snap, &paths)
                .into_iter()
                .map(|((lo, hi), halves)| GroupRow { k1: lo, k2: hi, a: halves, b: 0 })
                .collect();
            Partial::Groups { rows, pairs: Vec::new(), paths }
        }
    }
}

/// Partial for a scattered short read (S2 only; see [`scatters_short`]).
pub fn partial_short(snap: &PinnedSnapshot<'_>, s: &ShortQuery) -> Option<Partial> {
    match s {
        ShortQuery::S2(person) => Some(top(
            10,
            short::s2_recent_messages(snap, *person)
                .into_iter()
                .map(|r| MergedRow {
                    // S2 walk order: date desc, message id desc.
                    key: [-r.creation_date.0, -(r.message.raw() as i64), 0],
                    cols: vec![
                        r.message.raw() as i64,
                        r.creation_date.0,
                        r.root_post.raw() as i64,
                        r.root_author.raw() as i64,
                    ],
                    text: vec![r.content],
                })
                .collect(),
        )),
        _ => None,
    }
}

/// Exact conversion of weights that are multiples of 0.5 into half-units.
fn half_units(w: f64) -> i64 {
    (w * 2.0).round() as i64
}

/// Merge per-shard partials into the final result rows (final order,
/// truncated to the query's limit). Exact for every query — see the
/// module docs for the per-class argument.
pub fn merge(q: &ComplexQuery, parts: Vec<Partial>) -> Vec<MergedRow> {
    match q {
        ComplexQuery::Q1(_)
        | ComplexQuery::Q2(_)
        | ComplexQuery::Q5(_)
        | ComplexQuery::Q8(_)
        | ComplexQuery::Q9(_)
        | ComplexQuery::Q11(_)
        | ComplexQuery::Q13(_) => merge_top(parts),
        ComplexQuery::Q7(_) => merge_q7(parts),
        ComplexQuery::Q3(_) => {
            let (acc, _, _) = sum_groups(parts);
            let mut out: Vec<MergedRow> = acc
                .into_iter()
                .filter(|&(_, (x, y))| x > 0 && y > 0)
                .map(|((id, _), (x, y))| MergedRow {
                    key: [-(x + y), id as i64, 0],
                    cols: vec![id as i64, x, y],
                    text: Vec::new(),
                })
                .collect();
            out.sort();
            out.truncate(20);
            out
        }
        ComplexQuery::Q4(_) => {
            let (acc, _, _) = sum_groups(parts);
            let mut win: HashMap<u64, i64> = HashMap::new();
            let mut before: HashSet<u64> = HashSet::new();
            for ((tag, kind), (count, _)) in acc {
                if kind == 0 {
                    *win.entry(tag).or_default() += count;
                } else {
                    before.insert(tag);
                }
            }
            win.retain(|tag, _| !before.contains(tag));
            rank_tag_counts(win, 10)
        }
        ComplexQuery::Q6(_) => {
            let (acc, _, _) = sum_groups(parts);
            rank_tag_counts(acc.into_iter().map(|((tag, _), (c, _))| (tag, c)).collect(), 10)
        }
        ComplexQuery::Q10(_) => {
            let (acc, _, _) = sum_groups(parts);
            let mut out: Vec<(Reverse<i64>, u64)> =
                acc.into_iter().map(|((id, _), (score, _))| (Reverse(score), id)).collect();
            out.sort_unstable();
            out.truncate(10);
            out.into_iter()
                .map(|(Reverse(score), id)| MergedRow {
                    key: [-score, id as i64, 0],
                    cols: vec![id as i64, score],
                    text: Vec::new(),
                })
                .collect()
        }
        ComplexQuery::Q12(_) => {
            let (acc, pairs, _) = sum_groups(parts);
            let mut tags: HashMap<u64, std::collections::BTreeSet<u64>> = HashMap::new();
            for (friend, tag) in pairs {
                tags.entry(friend).or_default().insert(tag);
            }
            let mut out: Vec<(Reverse<i64>, u64)> = acc
                .into_iter()
                .filter(|&(_, (count, _))| count > 0)
                .map(|((id, _), (count, _))| (Reverse(count), id))
                .collect();
            out.sort_unstable();
            out.truncate(20);
            out.into_iter()
                .map(|(Reverse(count), id)| MergedRow {
                    key: [-count, id as i64, 0],
                    cols: vec![id as i64, count],
                    text: q12::tag_names(&tags.remove(&id).unwrap_or_default()),
                })
                .collect()
        }
        ComplexQuery::Q14(_) => {
            let (acc, _, paths) = sum_groups(parts);
            let mut out: Vec<MergedRow> = paths
                .into_iter()
                .map(|path| {
                    let halves: i64 = path
                        .windows(2)
                        .map(|w| {
                            let pair = (w[0].min(w[1]), w[0].max(w[1]));
                            acc.get(&pair).map_or(0, |&(h, _)| h)
                        })
                        .sum();
                    let mut cols = vec![halves];
                    cols.extend(path.iter().map(|&p| p as i64));
                    MergedRow { key: [-halves, 0, 0], cols, text: Vec::new() }
                })
                .collect();
            // Weight desc, then path asc (cols after the shared halves
            // column compare lexicographically over the path ids).
            out.sort();
            out
        }
    }
}

/// Merge partials of a scattered short read (S2 only).
pub fn merge_short(s: &ShortQuery, parts: Vec<Partial>) -> Vec<MergedRow> {
    debug_assert!(scatters_short(s));
    merge_top(parts)
}

/// Union per-shard top lists, re-sort on the explicit key, truncate.
fn merge_top(parts: Vec<Partial>) -> Vec<MergedRow> {
    let mut limit = usize::MAX;
    let mut all = Vec::new();
    for p in parts {
        if let Partial::Top { limit: l, rows } = p {
            limit = l as usize;
            all.extend(rows);
        }
    }
    all.sort();
    all.truncate(limit);
    all
}

/// Q7: de-duplicate per liker keeping the globally latest like (larger
/// date; smaller message id on ties), then rank.
fn merge_q7(parts: Vec<Partial>) -> Vec<MergedRow> {
    let mut latest: HashMap<i64, MergedRow> = HashMap::new();
    for p in parts {
        let Partial::Top { rows, .. } = p else { continue };
        for row in rows {
            let (liker, msg, date) = (row.cols[0], row.cols[1], row.cols[2]);
            match latest.entry(liker) {
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(row);
                }
                std::collections::hash_map::Entry::Occupied(mut e) => {
                    let cur = e.get();
                    if (date, Reverse(msg)) > (cur.cols[2], Reverse(cur.cols[1])) {
                        e.insert(row);
                    }
                }
            }
        }
    }
    let mut all: Vec<MergedRow> = latest.into_values().collect();
    all.sort();
    all.truncate(20);
    all
}

/// Sum group measures per (k1, k2); union pairs; keep the first shard's
/// paths (identical everywhere — the knows graph is replicated).
type GroupSums = (HashMap<(u64, u64), (i64, i64)>, Vec<(u64, u64)>, Vec<Vec<u64>>);

fn sum_groups(parts: Vec<Partial>) -> GroupSums {
    let mut acc: HashMap<(u64, u64), (i64, i64)> = HashMap::new();
    let mut all_pairs = Vec::new();
    let mut first_paths: Option<Vec<Vec<u64>>> = None;
    for p in parts {
        let Partial::Groups { rows, pairs, paths } = p else { continue };
        for r in rows {
            let e = acc.entry((r.k1, r.k2)).or_default();
            e.0 += r.a;
            e.1 += r.b;
        }
        all_pairs.extend(pairs);
        first_paths.get_or_insert(paths);
    }
    (acc, all_pairs, first_paths.unwrap_or_default())
}

/// Shared Q4/Q6 ranking: count desc, tag name asc, truncate, materialize
/// names from the embedded dictionary (identical in every process).
fn rank_tag_counts(counts: HashMap<u64, i64>, limit: usize) -> Vec<MergedRow> {
    let dicts = Dictionaries::global();
    let mut out: Vec<(Reverse<i64>, String)> = counts
        .into_iter()
        .map(|(tag, count)| (Reverse(count), dicts.tags.tag(tag as usize).name.clone()))
        .collect();
    out.sort_unstable();
    out.truncate(limit);
    out.into_iter()
        .enumerate()
        .map(|(i, (Reverse(count), name))| MergedRow {
            key: [i as i64, 0, 0],
            cols: vec![count],
            text: vec![name],
        })
        .collect()
}

/// Single-process oracle: the plain `run()` rows converted into the same
/// [`MergedRow`] layout [`merge`] produces. Differential tests (and the
/// sharded loopback test in `snb-net`) compare scattered merges against
/// this pointwise.
pub fn reference(snap: &PinnedSnapshot<'_>, engine: Engine, q: &ComplexQuery) -> Vec<MergedRow> {
    match q {
        ComplexQuery::Q3(p) => q3::run(snap, engine, p)
            .into_iter()
            .map(|r| {
                let (x, y) = (r.x_count as i64, r.y_count as i64);
                MergedRow {
                    key: [-(x + y), r.person.raw() as i64, 0],
                    cols: vec![r.person.raw() as i64, x, y],
                    text: Vec::new(),
                }
            })
            .collect(),
        ComplexQuery::Q4(p) => q4::run(snap, engine, p)
            .into_iter()
            .enumerate()
            .map(|(i, r)| MergedRow {
                key: [i as i64, 0, 0],
                cols: vec![r.count as i64],
                text: vec![r.tag],
            })
            .collect(),
        ComplexQuery::Q6(p) => q6::run(snap, engine, p)
            .into_iter()
            .enumerate()
            .map(|(i, r)| MergedRow {
                key: [i as i64, 0, 0],
                cols: vec![r.count as i64],
                text: vec![r.tag],
            })
            .collect(),
        ComplexQuery::Q10(p) => q10::run(snap, engine, p)
            .into_iter()
            .map(|r| MergedRow {
                key: [-r.score, r.person.raw() as i64, 0],
                cols: vec![r.person.raw() as i64, r.score],
                text: Vec::new(),
            })
            .collect(),
        ComplexQuery::Q12(p) => q12::run(snap, engine, p)
            .into_iter()
            .map(|r| MergedRow {
                key: [-(r.count as i64), r.person.raw() as i64, 0],
                cols: vec![r.person.raw() as i64, r.count as i64],
                text: r.tags,
            })
            .collect(),
        ComplexQuery::Q14(p) => q14::run(snap, engine, p)
            .into_iter()
            .map(|r| {
                let halves = half_units(r.weight);
                let mut cols = vec![halves];
                cols.extend(r.path.iter().map(|p| p.raw() as i64));
                MergedRow { key: [-halves, 0, 0], cols, text: Vec::new() }
            })
            .collect(),
        // Top-union and replicated-only queries: the reference conversion
        // is exactly the partial conversion over the full store.
        _ => merge(q, vec![partial(snap, engine, q)]),
    }
}

/// Single-process S2 oracle (see [`reference`]).
pub fn reference_short(snap: &PinnedSnapshot<'_>, s: &ShortQuery) -> Vec<MergedRow> {
    partial_short(snap, s).map(|p| merge_short(s, vec![p])).unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::*;
    use crate::testutil::{busy_person, fixture, mid_date};
    use snb_core::shard::ShardMap;
    use snb_core::PersonId;
    use snb_store::Store;
    use std::sync::OnceLock;

    /// Two stores holding the 2-shard split of the fixture dataset.
    fn shards() -> &'static [Store; 2] {
        static S: OnceLock<[Store; 2]> = OnceLock::new();
        S.get_or_init(|| {
            let f = fixture();
            let map = ShardMap::new(2);
            let mk = |i| {
                let s = Store::new();
                s.bulk_load_sharded(&f.ds, f.ds.config.end, 2, map, i);
                s
            };
            [mk(0), mk(1)]
        })
    }

    fn queries() -> Vec<ComplexQuery> {
        let f = fixture();
        let person = busy_person(f);
        let other =
            PersonId((person.raw() + f.ds.persons.len() as u64 / 2) % f.ds.persons.len() as u64);
        let dicts = snb_core::dict::Dictionaries::global();
        let start = mid_date();
        vec![
            ComplexQuery::Q1(Q1Params { person, first_name: "John".into() }),
            ComplexQuery::Q2(Q2Params { person, max_date: start }),
            ComplexQuery::Q3(Q3Params {
                person,
                country_x: 1,
                country_y: 2,
                start,
                duration_days: 120,
            }),
            ComplexQuery::Q4(Q4Params { person, start, duration_days: 90 }),
            ComplexQuery::Q5(Q5Params { person, min_date: start }),
            ComplexQuery::Q6(Q6Params { person, tag: 3 }),
            ComplexQuery::Q7(Q7Params { person }),
            ComplexQuery::Q8(Q8Params { person }),
            ComplexQuery::Q9(Q9Params { person, max_date: start }),
            ComplexQuery::Q10(Q10Params { person, month: 4 }),
            ComplexQuery::Q11(Q11Params { person, country: 1, max_year: 2011 }),
            ComplexQuery::Q12(Q12Params {
                person,
                tag_class: dicts.tags.class_by_name("Thing").unwrap(),
            }),
            ComplexQuery::Q13(Q13Params { person_x: person, person_y: other }),
            ComplexQuery::Q14(Q14Params { person_x: person, person_y: other }),
        ]
    }

    #[test]
    fn merging_one_full_partial_matches_the_plain_run() {
        let f = fixture();
        let snap = f.store.pinned();
        for q in queries() {
            for engine in [Engine::Intended, Engine::Naive] {
                let merged = merge(&q, vec![partial(&snap, engine, &q)]);
                let expect = reference(&snap, engine, &q);
                assert_eq!(merged, expect, "{q:?} single-partial identity");
            }
        }
    }

    /// Q3 and Q5 on every 7th person, and Q14 on pairs taken from opposite
    /// ends of the person list (as the curated bindings pair them): the
    /// plans whose per-shard partials are sums over shard-owned messages.
    fn per_person_queries() -> Vec<ComplexQuery> {
        let f = fixture();
        let n = f.ds.persons.len() as u64;
        // The two most populous countries, so Q3 has rows to compare.
        let mut population =
            vec![0usize; f.ds.persons.iter().map(|p| p.country + 1).max().unwrap()];
        for p in &f.ds.persons {
            population[p.country] += 1;
        }
        let mut countries: Vec<usize> = (0..population.len()).collect();
        countries.sort_by_key(|&c| (Reverse(population[c]), c));
        let start = snb_core::SimTime::from_ymd(2011, 1, 1);
        (0..n)
            .step_by(7)
            .flat_map(|raw| {
                let person = PersonId(raw);
                [
                    ComplexQuery::Q3(Q3Params {
                        person,
                        country_x: countries[0],
                        country_y: countries[1],
                        start,
                        duration_days: 365,
                    }),
                    ComplexQuery::Q5(Q5Params { person, min_date: start }),
                    ComplexQuery::Q14(Q14Params {
                        person_x: person,
                        person_y: PersonId(n - 1 - raw),
                    }),
                ]
            })
            .collect()
    }

    #[test]
    fn two_shard_scatter_merge_is_pointwise_equal_to_the_full_store() {
        let f = fixture();
        let full = f.store.pinned();
        let [s0, s1] = shards();
        let (p0, p1) = (s0.pinned(), s1.pinned());
        let cases = queries().into_iter().map(|q| (q, Engine::Intended)).chain(
            per_person_queries()
                .into_iter()
                .flat_map(|q| [(q.clone(), Engine::Intended), (q, Engine::Naive)]),
        );
        for (q, engine) in cases {
            let expect = reference(&full, engine, &q);
            if scatters(&q) {
                let merged = merge(&q, vec![partial(&p0, engine, &q), partial(&p1, engine, &q)]);
                assert_eq!(merged, expect, "{q:?} {engine:?} 2-shard scatter");
            } else {
                // Replicated-only queries: any single shard answers whole.
                for p in [&p0, &p1] {
                    let merged = merge(&q, vec![partial(p, engine, &q)]);
                    assert_eq!(merged, expect, "{q:?} {engine:?} single-shard route");
                }
            }
        }
    }

    #[test]
    fn two_shard_s2_matches_the_full_store_for_many_persons() {
        let f = fixture();
        let full = f.store.pinned();
        let [s0, s1] = shards();
        let (p0, p1) = (s0.pinned(), s1.pinned());
        for raw in (0..f.ds.persons.len() as u64).step_by(7) {
            let s = ShortQuery::S2(PersonId(raw));
            let merged = merge_short(
                &s,
                vec![partial_short(&p0, &s).unwrap(), partial_short(&p1, &s).unwrap()],
            );
            assert_eq!(merged, reference_short(&full, &s), "S2 person {raw}");
        }
    }

    #[test]
    fn row_counts_match_run_complex() {
        // The driver's uniform row-count interface must agree with the
        // sharded path, since OpOutcome.rows feeds validation.
        let f = fixture();
        let snap = f.store.pinned();
        for q in queries() {
            let rows = merge(&q, vec![partial(&snap, Engine::Intended, &q)]).len();
            let plain = crate::complex::run_complex(&snap, Engine::Intended, &q);
            assert_eq!(rows, plain, "{q:?} row count");
        }
    }

    #[test]
    fn shard_stores_hold_disjoint_activity_and_replicated_persons() {
        let f = fixture();
        let [s0, s1] = shards();
        let (p0, p1) = (s0.pinned(), s1.pinned());
        let full = f.store.pinned();
        assert_eq!(p0.person_slots(), full.person_slots());
        assert_eq!(p1.person_slots(), full.person_slots());
        let m0: usize = (0..p0.message_slots() as u64)
            .filter(|&m| p0.message_meta(snb_core::MessageId(m)).is_some())
            .count();
        let m1: usize = (0..p1.message_slots() as u64)
            .filter(|&m| p1.message_meta(snb_core::MessageId(m)).is_some())
            .count();
        let mf: usize = (0..full.message_slots() as u64)
            .filter(|&m| full.message_meta(snb_core::MessageId(m)).is_some())
            .count();
        assert!(m0 > 0 && m1 > 0, "both shards own activity");
        assert_eq!(m0 + m1, mf, "activity partitions exactly");
    }
}
