//! Q1 — "Extract description of friends with a given name".
//!
//! Given a person's `firstName`, return up to 20 people with the same first
//! name, sorted by increasing distance (max 3) from a given person, then by
//! last name, then by id; include workplaces and places of study.
//!
//! Intended plan: from two hops and the name. `load_two_hop` marks the
//! circle; the matches at distance 1 and 2 are the persons of `sx.one` and
//! `sx.two` with that first name. Only when there are fewer than 20 of
//! those can distance 3 reach the result, and a distance-3 match is an
//! unmarked person with that first name who has a friend at level 2: one
//! scan of the person table, filtered by name before any adjacency is
//! read, finds them. No level-2 list is ever expanded.

use crate::engine::Engine;
use crate::helpers::load_two_hop;
use crate::params::Q1Params;
use crate::scratch::{with_scratch, QueryScratch};
use snb_core::dict::Dictionaries;
use snb_core::schema::Person;
use snb_core::PersonId;
use snb_store::PinnedSnapshot;

/// Maximum BFS distance.
const MAX_DISTANCE: u32 = 3;
/// Result limit.
const LIMIT: usize = 20;

/// One result row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Q1Row {
    /// The matching person.
    pub person: PersonId,
    /// Distance from the start person (1..=3).
    pub distance: u32,
    /// Last name (sort key within a distance).
    pub last_name: &'static str,
    /// Home city name.
    pub city: &'static str,
    /// `"University (class year)"` descriptions.
    pub universities: Vec<String>,
    /// `"Company (since year, country)"` descriptions.
    pub companies: Vec<String>,
}

/// Execute Q1.
pub fn run(snap: &PinnedSnapshot<'_>, engine: Engine, p: &Q1Params) -> Vec<Q1Row> {
    let matches = with_scratch(|sx| match engine {
        Engine::Intended => intended_collect(snap, sx, p),
        Engine::Naive => naive_collect(snap, sx, p),
    });
    materialize(snap, matches)
}

/// Intended plan: the name-matching persons of the marked 2-hop circle,
/// then — only if they are fewer than [`LIMIT`] — the unmarked persons with
/// the name and a friend at level 2 (distance 3). Deeper levels cannot
/// displace shallower ones in the ordering, so a full level of ≥ 20 ends
/// the search.
fn intended_collect(
    snap: &PinnedSnapshot<'_>,
    sx: &mut QueryScratch,
    p: &Q1Params,
) -> Vec<(u64, u32)> {
    load_two_hop(snap, sx, p.person);
    let named =
        |v: u64| snap.person_ref(PersonId(v)).is_some_and(|pr| pr.first_name == p.first_name);
    let mut matches: Vec<(u64, u32)> = Vec::new();
    for (level, ring) in [(1, &sx.one), (2, &sx.two)] {
        if matches.len() >= LIMIT {
            return matches;
        }
        matches.extend(ring.iter().filter(|&&v| named(v)).map(|&v| (v, level)));
    }
    if matches.len() < LIMIT {
        for v in 0..snap.person_slots() as u64 {
            if !sx.is_marked(v)
                && named(v)
                && snap.friends_iter(PersonId(v)).any(|(f, _)| sx.level_of(f) == Some(2))
            {
                matches.push((v, MAX_DISTANCE));
            }
        }
    }
    matches
}

/// Naive plan: per BFS level, scan the whole person table probing adjacency
/// toward the frontier (the join-order inversion a scan-based system runs).
fn naive_collect(
    snap: &PinnedSnapshot<'_>,
    sx: &mut QueryScratch,
    p: &Q1Params,
) -> Vec<(u64, u32)> {
    sx.begin(snap.person_slots());
    sx.mark(p.person.raw(), 0);
    let mut matches = Vec::new();
    for depth in 1..=MAX_DISTANCE {
        let mut found_any = false;
        for v in 0..snap.person_slots() as u64 {
            if sx.is_marked(v) {
                continue;
            }
            // Probing levels directly distinguishes the previous frontier
            // (level == depth-1) from older levels — no per-level set copy.
            let touches_frontier =
                snap.friends_iter(PersonId(v)).any(|(f, _)| sx.level_of(f) == Some(depth - 1));
            if touches_frontier {
                sx.mark(v, depth);
                found_any = true;
                if snap.person_ref(PersonId(v)).is_some_and(|pr| pr.first_name == p.first_name) {
                    matches.push((v, depth));
                }
            }
        }
        if matches.len() >= LIMIT || !found_any {
            break;
        }
    }
    matches
}

/// Rank `(distance, last name, id)` over borrowed rows, then build the
/// description strings for the returned rows only.
fn materialize(snap: &PinnedSnapshot<'_>, matches: Vec<(u64, u32)>) -> Vec<Q1Row> {
    let dicts = Dictionaries::global();
    let mut ranked: Vec<(u32, &'static str, u64, &Person)> = matches
        .into_iter()
        .filter_map(|(id, distance)| {
            let person = snap.person_ref(PersonId(id))?;
            Some((distance, person.last_name, id, person))
        })
        .collect();
    ranked.sort_unstable_by_key(|&(distance, last_name, id, _)| (distance, last_name, id));
    ranked.truncate(LIMIT);
    ranked
        .into_iter()
        .map(|(distance, last_name, id, person)| {
            let universities = person
                .study_at
                .iter()
                .map(|s| {
                    let u = dicts.orgs.university(s.university.index());
                    format!("{} ({})", u.name, s.class_year)
                })
                .collect();
            let companies = person
                .work_at
                .iter()
                .map(|w| {
                    let c = dicts.orgs.company(w.company.index());
                    format!(
                        "{} (since {}, {})",
                        c.name,
                        w.work_from,
                        dicts.places.country(c.country).name
                    )
                })
                .collect();
            Q1Row {
                person: PersonId(id),
                distance,
                last_name,
                city: dicts.places.city(person.city).name,
                universities,
                companies,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{busy_person, fixture};

    fn params() -> Q1Params {
        let f = fixture();
        let start = busy_person(f);
        // Pick the most common first name among non-start persons so the
        // query has work to do.
        let mut counts = std::collections::HashMap::new();
        for p in &f.ds.persons {
            *counts.entry(p.first_name).or_insert(0usize) += 1;
        }
        let name = counts.into_iter().max_by_key(|&(_, c)| c).unwrap().0;
        Q1Params { person: start, first_name: name.to_string() }
    }

    #[test]
    fn intended_and_naive_agree() {
        let f = fixture();
        let snap = f.store.pinned();
        let p = params();
        let a = run(&snap, Engine::Intended, &p);
        let b = run(&snap, Engine::Naive, &p);
        assert_eq!(a, b);
        assert!(!a.is_empty(), "popular name should match someone within 3 hops");
    }

    #[test]
    fn ordering_and_limit_hold() {
        let f = fixture();
        let snap = f.store.pinned();
        let rows = run(&snap, Engine::Intended, &params());
        assert!(rows.len() <= LIMIT);
        for w in rows.windows(2) {
            assert!(
                (w[0].distance, w[0].last_name, w[0].person)
                    <= (w[1].distance, w[1].last_name, w[1].person)
            );
        }
        for r in &rows {
            assert!((1..=MAX_DISTANCE).contains(&r.distance));
        }
    }

    #[test]
    fn start_person_is_excluded() {
        let f = fixture();
        let snap = f.store.pinned();
        let p = params();
        for r in run(&snap, Engine::Intended, &p) {
            assert_ne!(r.person, p.person);
        }
    }

    #[test]
    fn unknown_name_yields_empty() {
        let f = fixture();
        let snap = f.store.pinned();
        let p = Q1Params { person: busy_person(f), first_name: "Zzyzx".into() };
        assert!(run(&snap, Engine::Intended, &p).is_empty());
    }
}
