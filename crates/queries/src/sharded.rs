//! Scatter-gather execution of the read queries across shards.
//!
//! The paper's driver targets a *distributed* SUT (§4). Every complex read
//! and S2 can be answered exactly by a set of shard processes that each
//! hold the replicated person/knows graph plus a forum-partitioned slice
//! of the activity ([`snb_core::shard::ShardMap`]), because each query
//! decomposes into a per-shard **partial** plus a pure client-side
//! **merge**:
//!
//! * **Top-union queries** (Q2, Q5, Q7, Q8, Q9, S2): result items live on
//!   exactly one shard, and every ordering key is computable locally. The
//!   global top-k is the top-k of the union of per-shard top-k lists, so a
//!   shard ships its own `run()` rows and [`merge`] re-sorts the union and
//!   applies the query's limit. Q7 first keeps each liker's latest like
//!   with `q7::keep_latest`, the rule `run` applies; the per-shard winner
//!   for a liker equals the global winner on the shard that owns it, so
//!   local-dedup-then-union stays exact.
//! * **Additive-group queries** (Q3, Q4, Q6, Q10, Q12, Q14): the measure
//!   is a sum over messages, and every message is owned by exactly one
//!   shard, so the partials sum to the full store's counts. A shard ships
//!   the query's `counts` **untruncated** (they are bounded by the
//!   candidate circle or the tag dictionary, not the message count);
//!   [`merge`] sums them back into the same counts type and calls the
//!   query's own rank step, the one its `run` calls. Q14 ships edge
//!   weights in integer half-units, so the sums are exact.
//! * **Replicated-only queries** (Q1, Q11, Q13): they touch persons and
//!   knows exclusively, which every shard replicates, so any single shard
//!   answers exactly. [`scatters`] returns false, the connector routes them
//!   whole, and they have no partial.
//!
//! Top-union rows cross the wire as [`MergedRow`]: an explicit ascending
//! sort `key` (descending orders are encoded by negation), identifier and
//! measure columns, and the display strings that only the owning shard can
//! resolve (message content, person names). Group partials cross as
//! [`GroupRow`]s of ids and measures; strings resolvable from the embedded
//! dictionaries (tag names) are resolved after the merge instead of
//! shipped.

use crate::complex::{q10, q12, q14, q2, q3, q4, q5, q6, q7, q8, q9};
use crate::engine::Engine;
use crate::params::{ComplexQuery, ShortQuery};
use crate::short;
use snb_core::dict::Dictionaries;
use snb_core::{wire_enum, wire_struct, SimTime};
use snb_store::PinnedSnapshot;
use std::collections::{BTreeMap, HashMap, HashSet};

wire_struct! {
    /// One merged result row: an explicit sort key (ascending; descending
    /// orders negate), id/measure columns, and owning-shard-resolved strings.
    #[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Default)]
    pub struct MergedRow {
        /// Ascending composite sort key.
        pub key: [i64; 3],
        /// Identifier and measure columns (per-query layout, documented on
        /// [`partial`] and [`merge`]).
        pub cols: Vec<i64>,
        /// Display strings only the owning shard can resolve.
        pub text: Vec<String>,
    }
}

wire_struct! {
    /// One per-shard group aggregate: `(k1, k2)` identify the group, `a`/`b`
    /// carry additive measures.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct GroupRow {
        /// Primary group key (person, tag, or an edge's lower endpoint).
        pub k1: u64,
        /// Secondary key / kind discriminator (query-specific).
        pub k2: u64,
        /// First additive measure.
        pub a: i64,
        /// Second additive measure.
        pub b: i64,
    }
}

/// A shard's contribution to one query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Partial {
    /// Local top rows in final-key form (top-union queries).
    Top(Vec<MergedRow>),
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

// The merge takes each query's limit from the query, so none is shipped.
// Tag 1 was a top partial that shipped a limit word ahead of its rows: it
// stays retired, so a peer that still sends it is refused, not misread.
wire_enum!(Partial { 3 => Top(rows), 2 => Groups { rows, pairs, paths } });

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

fn top<R>(rows: Vec<R>, row: impl FnMut(R) -> MergedRow) -> Partial {
    Partial::Top(rows.into_iter().map(row).collect())
}

/// Group rows and pairs in a deterministic wire order (aggregation maps
/// iterate randomly).
fn groups(rows: impl IntoIterator<Item = GroupRow>, mut pairs: Vec<(u64, u64)>) -> Partial {
    let mut rows: Vec<GroupRow> = rows.into_iter().collect();
    rows.sort_unstable_by_key(|r| (r.k1, r.k2));
    pairs.sort_unstable();
    Partial::Groups { rows, pairs, paths: Vec::new() }
}

fn group(k1: u64, k2: u64, a: i64, b: i64) -> GroupRow {
    GroupRow { k1, k2, a, b }
}

/// Compute this shard's partial answer; `None` for the replicated-only
/// queries, which never scatter. Layouts:
///
/// | query | partial | columns |
/// |-------|---------|---------|
/// | Q2/Q9 | top | author, message, date · first, last, content |
/// | Q3  | groups | k1 person, a x count, b y count |
/// | Q4  | groups | k1 tag, a in-window count; k2 = 1 marks a tag seen before the window |
/// | Q5  | top | forum, count · title |
/// | Q6  | groups | k1 tag, a count |
/// | Q7  | top | liker, message, like_date, latency_min, is_new · first, last |
/// | Q8  | top | commenter, comment, date · first, last, content |
/// | Q10 | groups | k1 candidate, a score |
/// | Q12 | groups | k1 friend, a count; pairs (friend, matched tag) |
/// | Q14 | groups | (k1, k2) edge, a half-units; the paths |
/// | S2  | top | message, date, root_post, root_author · content |
pub fn partial(snap: &PinnedSnapshot<'_>, engine: Engine, q: &ComplexQuery) -> Option<Partial> {
    Some(match q {
        ComplexQuery::Q2(p) => top(q2::run(snap, engine, p), |r| MergedRow {
            key: [-r.creation_date.0, r.message.raw() as i64, 0],
            cols: vec![r.author.raw() as i64, r.message.raw() as i64, r.creation_date.0],
            text: vec![r.first_name.to_string(), r.last_name.to_string(), r.content],
        }),
        ComplexQuery::Q3(p) => {
            let counts = q3::counts(snap, engine, p);
            groups(counts.into_iter().map(|(id, (x, y))| group(id, 0, x.into(), y.into())), vec![])
        }
        ComplexQuery::Q4(p) => {
            let (in_window, before) = q4::counts(snap, engine, p);
            let rows = in_window.into_iter().map(|(tag, count)| group(tag, 0, count.into(), 0));
            groups(rows.chain(before.into_iter().map(|tag| group(tag, 1, 0, 0))), vec![])
        }
        ComplexQuery::Q5(p) => top(q5::run(snap, engine, p), |r| MergedRow {
            key: [-(r.count as i64), r.forum.raw() as i64, 0],
            cols: vec![r.forum.raw() as i64, r.count as i64],
            text: vec![r.title],
        }),
        ComplexQuery::Q6(p) => {
            let counts = q6::counts(snap, engine, p);
            groups(counts.into_iter().map(|(tag, count)| group(tag, 0, count.into(), 0)), vec![])
        }
        ComplexQuery::Q7(p) => top(q7::run(snap, engine, p), |r| MergedRow {
            key: [-r.like_date.0, r.liker.raw() as i64, 0],
            cols: vec![
                r.liker.raw() as i64,
                r.message.raw() as i64,
                r.like_date.0,
                r.latency_minutes,
                i64::from(r.is_new),
            ],
            text: vec![r.first_name.to_string(), r.last_name.to_string()],
        }),
        ComplexQuery::Q8(p) => top(q8::run(snap, engine, p), |r| MergedRow {
            key: [-r.creation_date.0, r.comment.raw() as i64, 0],
            cols: vec![r.commenter.raw() as i64, r.comment.raw() as i64, r.creation_date.0],
            text: vec![r.first_name.to_string(), r.last_name.to_string(), r.content],
        }),
        ComplexQuery::Q9(p) => top(q9::run(snap, engine, p), |r| MergedRow {
            key: [-r.creation_date.0, r.message.raw() as i64, 0],
            cols: vec![r.author.raw() as i64, r.message.raw() as i64, r.creation_date.0],
            text: vec![r.first_name.to_string(), r.last_name.to_string(), r.content],
        }),
        // score = 2·common − total is linear in per-message terms, so
        // per-shard scores add up to the global score.
        ComplexQuery::Q10(p) => {
            let scores = q10::counts(snap, engine, p);
            groups(scores.into_iter().map(|(c, score)| group(c, 0, score, 0)), vec![])
        }
        ComplexQuery::Q12(p) => {
            let agg = q12::counts(snap, engine, p);
            let pairs = agg.iter().flat_map(|(&f, (_, tags))| tags.iter().map(move |&t| (f, t)));
            let pairs = pairs.collect();
            groups(agg.into_iter().map(|(f, (count, _))| group(f, 0, count.into(), 0)), pairs)
        }
        ComplexQuery::Q14(p) => {
            // The edge weights come sorted by edge; the merge adds them
            // across shards.
            let (paths, weights) = q14::counts(snap, engine, p);
            let rows = weights.into_iter().map(|((lo, hi), halves)| group(lo, hi, halves, 0));
            Partial::Groups { rows: rows.collect(), pairs: Vec::new(), paths }
        }
        // Replicated-only (see [`scatters`]): any one shard runs it whole.
        _ => return None,
    })
}

/// Partial for a scattered short read (S2 only; see [`scatters_short`]).
pub fn partial_short(snap: &PinnedSnapshot<'_>, s: &ShortQuery) -> Option<Partial> {
    match s {
        ShortQuery::S2(person) => Some(top(short::s2_recent_messages(snap, *person), |r| {
            MergedRow {
                // S2 walk order: date desc, message id desc.
                key: [-r.creation_date.0, -(r.message.raw() as i64), 0],
                cols: vec![
                    r.message.raw() as i64,
                    r.creation_date.0,
                    r.root_post.raw() as i64,
                    r.root_author.raw() as i64,
                ],
                text: vec![r.content],
            }
        })),
        _ => None,
    }
}

/// Merge per-shard partials into the final result rows (final order,
/// truncated to the query's limit). Exact for every scattering query — see
/// the module docs for the per-class argument; the replicated-only queries
/// have no partials and merge to nothing.
///
/// Top-union queries return the shards' rows. The group queries return
/// their rank step's output as unkeyed rows: Q3 `person, x, y`; Q4/Q6
/// `count` · tag name; Q10 `person, score`; Q12 `person, count` · tag
/// names; Q14 `half-units, path…`.
pub fn merge(q: &ComplexQuery, parts: Vec<Partial>) -> Vec<MergedRow> {
    match q {
        ComplexQuery::Q2(_) => ranked(top_rows(parts), q2::LIMIT),
        ComplexQuery::Q5(_) => ranked(top_rows(parts), q5::LIMIT),
        ComplexQuery::Q7(_) => merge_q7(parts),
        ComplexQuery::Q8(_) => ranked(top_rows(parts), q8::LIMIT),
        ComplexQuery::Q9(_) => ranked(top_rows(parts), q9::LIMIT),
        ComplexQuery::Q3(_) => {
            let mut counts: HashMap<u64, (u32, u32)> = HashMap::new();
            for r in group_rows(&parts) {
                let e = counts.entry(r.k1).or_default();
                e.0 += r.a as u32;
                e.1 += r.b as u32;
            }
            let ranked = q3::rank(counts);
            ranked.into_iter().map(|(id, x, y)| row(vec![id as i64, x.into(), y.into()])).collect()
        }
        ComplexQuery::Q4(_) => {
            let mut in_window: HashMap<u64, u32> = HashMap::new();
            let mut before = HashSet::new();
            for r in group_rows(&parts) {
                if r.k2 == 0 {
                    *in_window.entry(r.k1).or_default() += r.a as u32;
                } else {
                    before.insert(r.k1);
                }
            }
            tag_rows(q4::rank((in_window, before)))
        }
        ComplexQuery::Q6(_) => {
            let mut counts: HashMap<u64, u32> = HashMap::new();
            for r in group_rows(&parts) {
                *counts.entry(r.k1).or_default() += r.a as u32;
            }
            tag_rows(q6::rank(counts))
        }
        ComplexQuery::Q10(_) => {
            let mut scores: HashMap<u64, i64> = HashMap::new();
            for r in group_rows(&parts) {
                *scores.entry(r.k1).or_default() += r.a;
            }
            q10::rank(scores).into_iter().map(|(id, score)| row(vec![id as i64, score])).collect()
        }
        ComplexQuery::Q12(_) => {
            let mut agg: q12::Agg = HashMap::new();
            for r in group_rows(&parts) {
                agg.entry(r.k1).or_default().0 += r.a as u32;
            }
            for part in &parts {
                if let Partial::Groups { pairs, .. } = part {
                    for &(friend, tag) in pairs {
                        agg.entry(friend).or_default().1.insert(tag);
                    }
                }
            }
            q12::rank(agg)
                .into_iter()
                .map(|(id, count, tags)| MergedRow {
                    text: q12::tag_names(&tags),
                    ..row(vec![id as i64, count.into()])
                })
                .collect()
        }
        ComplexQuery::Q14(_) => {
            let mut weights: BTreeMap<(u64, u64), i64> = BTreeMap::new();
            for r in group_rows(&parts) {
                *weights.entry((r.k1, r.k2)).or_default() += r.a;
            }
            let Some(Partial::Groups { paths, .. }) = parts.into_iter().next() else {
                return Vec::new();
            };
            q14::rank((paths, weights.into_iter().collect()))
                .into_iter()
                .map(|(halves, path)| {
                    row(std::iter::once(halves).chain(path.into_iter().map(|p| p as i64)).collect())
                })
                .collect()
        }
        // Replicated-only (see [`scatters`]): never scattered.
        _ => Vec::new(),
    }
}

/// Merge partials of a scattered short read (S2 only).
pub fn merge_short(s: &ShortQuery, parts: Vec<Partial>) -> Vec<MergedRow> {
    debug_assert!(scatters_short(s));
    ranked(top_rows(parts), short::S2_LIMIT)
}

/// An unkeyed merged row: the group queries' rank step already ordered it.
fn row(cols: Vec<i64>) -> MergedRow {
    MergedRow { key: [0; 3], cols, text: Vec::new() }
}

/// Q4/Q6 rows: count, with the tag's name from the embedded dictionary.
fn tag_rows(ranked: Vec<(u64, u32)>) -> Vec<MergedRow> {
    let tags = &Dictionaries::global().tags;
    ranked
        .into_iter()
        .map(|(tag, count)| MergedRow {
            text: vec![tags.tag(tag as usize).name.clone()],
            ..row(vec![count.into()])
        })
        .collect()
}

/// Every shard's top rows, in shard order.
fn top_rows(parts: Vec<Partial>) -> impl Iterator<Item = MergedRow> {
    parts.into_iter().flat_map(|p| match p {
        Partial::Top(rows) => rows,
        Partial::Groups { .. } => Vec::new(),
    })
}

/// Every shard's group rows, in shard order.
fn group_rows(parts: &[Partial]) -> impl Iterator<Item = &GroupRow> {
    parts.iter().flat_map(|p| match p {
        Partial::Groups { rows, .. } => rows.as_slice(),
        Partial::Top(_) => &[],
    })
}

/// Sort top rows on their explicit key and keep the first `limit`.
fn ranked(rows: impl Iterator<Item = MergedRow>, limit: usize) -> Vec<MergedRow> {
    let mut all: Vec<MergedRow> = rows.collect();
    all.sort();
    all.truncate(limit);
    all
}

/// Q7: keep each liker's globally latest like with the rule `q7::run`
/// applies on each shard, then rank.
fn merge_q7(parts: Vec<Partial>) -> Vec<MergedRow> {
    // cols: liker, message, like date.
    let like = |r: &MergedRow| (r.cols[0] as u64, (SimTime(r.cols[2]), r.cols[1] as u64));
    let rows: Vec<MergedRow> = top_rows(parts).collect();
    let mut latest = HashMap::new();
    for (liker, (date, msg)) in rows.iter().map(like) {
        q7::keep_latest(&mut latest, liker, date, msg);
    }
    let kept = rows.into_iter().filter(|r| {
        let (liker, this) = like(r);
        latest.get(&liker) == Some(&this)
    });
    ranked(kept, q7::LIMIT)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::{q1, q11, q13};
    use crate::params::*;
    use crate::testutil::{busy_person, fixture, mid_date};
    use snb_core::shard::ShardMap;
    use snb_core::PersonId;
    use snb_store::Store;
    use std::cmp::Reverse;
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

    /// `run()`'s rows in the shape the merge must give them. For the group
    /// queries, that is every column. The top-union queries ship `run()`'s
    /// own rows and the merge only re-orders them, so for those it is the
    /// id their merge key sorts by (`key[1]`).
    fn run_rows(
        snap: &PinnedSnapshot<'_>,
        engine: Engine,
        q: &ComplexQuery,
    ) -> Vec<(Vec<i64>, Vec<String>)> {
        fn cols<R>(rows: Vec<R>, f: impl Fn(R) -> Vec<i64>) -> Vec<(Vec<i64>, Vec<String>)> {
            rows.into_iter().map(|r| (f(r), Vec::new())).collect()
        }
        let id = |raw: u64| raw as i64;
        match q {
            ComplexQuery::Q2(p) => cols(q2::run(snap, engine, p), |r| vec![id(r.message.raw())]),
            ComplexQuery::Q3(p) => cols(q3::run(snap, engine, p), |r| {
                vec![id(r.person.raw()), r.x_count.into(), r.y_count.into()]
            }),
            ComplexQuery::Q4(p) => q4::run(snap, engine, p)
                .into_iter()
                .map(|r| (vec![r.count.into()], vec![r.tag]))
                .collect(),
            ComplexQuery::Q5(p) => cols(q5::run(snap, engine, p), |r| vec![id(r.forum.raw())]),
            ComplexQuery::Q6(p) => q6::run(snap, engine, p)
                .into_iter()
                .map(|r| (vec![r.count.into()], vec![r.tag]))
                .collect(),
            ComplexQuery::Q7(p) => cols(q7::run(snap, engine, p), |r| vec![id(r.liker.raw())]),
            ComplexQuery::Q8(p) => cols(q8::run(snap, engine, p), |r| vec![id(r.comment.raw())]),
            ComplexQuery::Q9(p) => cols(q9::run(snap, engine, p), |r| vec![id(r.message.raw())]),
            ComplexQuery::Q10(p) => {
                cols(q10::run(snap, engine, p), |r| vec![id(r.person.raw()), r.score])
            }
            ComplexQuery::Q12(p) => q12::run(snap, engine, p)
                .into_iter()
                .map(|r| (vec![id(r.person.raw()), r.count.into()], r.tags))
                .collect(),
            ComplexQuery::Q14(p) => cols(q14::run(snap, engine, p), |r| {
                let halves = (r.weight * 2.0) as i64;
                std::iter::once(halves).chain(r.path.iter().map(|p| id(p.raw()))).collect()
            }),
            _ => unreachable!("{q:?} does not scatter"),
        }
    }

    /// Every scattering query of [`queries`] and [`per_person_queries`],
    /// on both engines.
    fn scattering_cases() -> Vec<(ComplexQuery, Engine)> {
        queries()
            .into_iter()
            .chain(per_person_queries())
            .filter(scatters)
            .flat_map(|q| [(q.clone(), Engine::Intended), (q, Engine::Naive)])
            .collect()
    }

    #[test]
    fn merging_one_full_partial_matches_the_plain_run() {
        let f = fixture();
        let snap = f.store.pinned();
        for (q, engine) in scattering_cases() {
            let part = partial(&snap, engine, &q).unwrap();
            let top_union = matches!(part, Partial::Top(_));
            let merged: Vec<(Vec<i64>, Vec<String>)> = merge(&q, vec![part])
                .into_iter()
                .map(|r| if top_union { (vec![r.key[1]], Vec::new()) } else { (r.cols, r.text) })
                .collect();
            assert_eq!(merged, run_rows(&snap, engine, &q), "{q:?} {engine:?} single partial");
        }
        for raw in (0..f.ds.persons.len() as u64).step_by(7) {
            let s = ShortQuery::S2(PersonId(raw));
            let merged = merge_short(&s, vec![partial_short(&snap, &s).unwrap()]);
            let want: Vec<i64> = short::s2_recent_messages(&snap, PersonId(raw))
                .iter()
                .map(|r| -(r.message.raw() as i64))
                .collect();
            assert_eq!(merged.iter().map(|r| r.key[1]).collect::<Vec<_>>(), want, "S2 {raw}");
        }
    }

    /// Q3–Q7, Q10 and Q12 on every 7th person, and Q14 on pairs taken from
    /// opposite ends of the person list (as the curated bindings pair
    /// them): every merge that sums, unions or de-duplicates per-shard
    /// partials over shard-owned messages.
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
        let thing = snb_core::dict::Dictionaries::global().tags.class_by_name("Thing").unwrap();
        (0..n)
            .step_by(7)
            .flat_map(|raw| {
                let person = PersonId(raw);
                let interests = &f.ds.persons[raw as usize].interests;
                [
                    ComplexQuery::Q3(Q3Params {
                        person,
                        country_x: countries[0],
                        country_y: countries[1],
                        start,
                        duration_days: 365,
                    }),
                    ComplexQuery::Q4(Q4Params { person, start, duration_days: 90 }),
                    ComplexQuery::Q5(Q5Params { person, min_date: start }),
                    ComplexQuery::Q6(Q6Params {
                        person,
                        tag: interests.first().map_or(raw as usize, |t| t.index()),
                    }),
                    ComplexQuery::Q7(Q7Params { person }),
                    ComplexQuery::Q10(Q10Params { person, month: (raw % 12) as u8 + 1 }),
                    ComplexQuery::Q12(Q12Params { person, tag_class: thing }),
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
        let mut answered = std::collections::BTreeSet::new();
        for (q, engine) in scattering_cases() {
            let expect = merge(&q, vec![partial(&full, engine, &q).unwrap()]);
            if !expect.is_empty() {
                answered.insert(q.number());
            }
            let parts = [&p0, &p1].map(|p| partial(p, engine, &q).unwrap());
            assert_eq!(merge(&q, parts.into()), expect, "{q:?} {engine:?} 2-shard scatter");
        }
        for n in [3, 4, 5, 6, 7, 10, 12, 14] {
            assert!(answered.contains(&n), "no binding of Q{n} returned rows");
        }
        // Replicated-only queries are routed whole to one shard: no store
        // offers a partial, and either shard alone answers them exactly.
        for q in queries().into_iter().filter(|q| !scatters(q)) {
            for engine in [Engine::Intended, Engine::Naive] {
                let rows = |s: &PinnedSnapshot<'_>| match &q {
                    ComplexQuery::Q1(p) => format!("{:?}", q1::run(s, engine, p)),
                    ComplexQuery::Q11(p) => format!("{:?}", q11::run(s, engine, p)),
                    ComplexQuery::Q13(p) => format!("{:?}", q13::run(s, engine, p)),
                    _ => unreachable!("{q:?} scatters"),
                };
                assert!([&full, &p0, &p1].iter().all(|s| partial(s, engine, &q).is_none()));
                assert!([&p0, &p1].iter().all(|s| rows(s) == rows(&full)), "{q:?} {engine:?}");
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
            let expect = merge_short(&s, vec![partial_short(&full, &s).unwrap()]);
            assert_eq!(merged, expect, "S2 person {raw}");
        }
    }

    #[test]
    fn row_counts_match_run_complex() {
        // The driver's uniform row-count interface must agree with the
        // sharded path, since OpOutcome.rows feeds validation.
        let f = fixture();
        let snap = f.store.pinned();
        for q in queries().into_iter().filter(scatters) {
            let rows = merge(&q, vec![partial(&snap, Engine::Intended, &q).unwrap()]).len();
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
