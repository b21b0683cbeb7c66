//! Q3 — "Friends within 2 steps that recently traveled to countries X and Y".
//!
//! Find top-20 friends and friends-of-friends of a person who made a post
//! or comment in both foreign countries X and Y within the window
//! `[start, start + duration)`. Foreign means neither country is the
//! candidate's home country. Sorted descending by total message count,
//! ascending by person id.
//!
//! Intended plan: the 2-hop circle from the scratch, filtered by home
//! country, then one scan per candidate of their message index. That index
//! is ascending by date, so the scan skips entries before `start` and
//! stops at the first entry dated at or after the window's end; only
//! in-window messages pay the row probe for their country.

use crate::engine::Engine;
use crate::helpers::load_two_hop;
use crate::params::Q3Params;
use crate::scratch::with_scratch;
use snb_core::{MessageId, PersonId, SimTime};
use snb_store::PinnedSnapshot;
use std::cmp::Reverse;
use std::collections::HashMap;

/// Result limit.
const LIMIT: usize = 20;

/// One result row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Q3Row {
    /// The travelling person.
    pub person: PersonId,
    /// First name.
    pub first_name: &'static str,
    /// Last name.
    pub last_name: &'static str,
    /// Messages sent from country X in the window.
    pub x_count: u32,
    /// Messages sent from country Y in the window.
    pub y_count: u32,
}

/// Execute Q3.
pub fn run(snap: &PinnedSnapshot<'_>, engine: Engine, p: &Q3Params) -> Vec<Q3Row> {
    rank(counts(snap, engine, p))
        .into_iter()
        .filter_map(|(id, x_count, y_count)| {
            let person = snap.person_ref(PersonId(id))?;
            Some(Q3Row {
                person: PersonId(id),
                first_name: person.first_name,
                last_name: person.last_name,
                x_count,
                y_count,
            })
        })
        .collect()
}

/// In-window message counts `(x, y)` per candidate, on either engine.
pub(crate) fn counts(
    snap: &PinnedSnapshot<'_>,
    engine: Engine,
    p: &Q3Params,
) -> HashMap<u64, (u32, u32)> {
    match engine {
        Engine::Intended => intended(snap, p),
        Engine::Naive => naive(snap, p),
    }
}

/// The store-free rank step: candidates seen in both countries, by total
/// count descending, then id; the top 20 as `(person, x, y)`.
pub(crate) fn rank(counts: HashMap<u64, (u32, u32)>) -> Vec<(u64, u32, u32)> {
    let mut ranked: Vec<(u64, u32, u32)> = counts
        .into_iter()
        .filter(|&(_, (x, y))| x > 0 && y > 0)
        .map(|(id, (x, y))| (id, x, y))
        .collect();
    ranked.sort_unstable_by_key(|&(id, x, y)| (Reverse(x + y), id));
    ranked.truncate(LIMIT);
    ranked
}

/// Candidates whose home country is neither X nor Y.
fn candidates(snap: &PinnedSnapshot<'_>, p: &Q3Params) -> Vec<u64> {
    with_scratch(|sx| {
        load_two_hop(snap, sx, p.person);
        sx.one
            .iter()
            .chain(sx.two.iter())
            .copied()
            .filter(|&c| {
                snap.person_ref(PersonId(c))
                    .is_some_and(|pr| pr.country != p.country_x && pr.country != p.country_y)
            })
            .collect()
    })
}

/// Intended plan: traverse from the person; per candidate, seek their
/// date-ascending message index to the window's start and scan up to its
/// end (the scan stops there), fetching the country only for in-window
/// messages.
fn intended(snap: &PinnedSnapshot<'_>, p: &Q3Params) -> HashMap<u64, (u32, u32)> {
    let end = p.start.plus_days(p.duration_days);
    // The seek is exclusive: the millisecond before the window keeps
    // messages dated exactly at its start.
    let before_start = SimTime(p.start.0.saturating_sub(1));
    let mut counts = HashMap::new();
    for c in candidates(snap, p) {
        let mut x = 0u32;
        let mut y = 0u32;
        for (msg, date) in snap.messages_of_after_iter(PersonId(c), before_start) {
            // Ascending by date: nothing after the window's end can count.
            if date >= end {
                break;
            }
            if let Some(meta) = snap.message_meta(MessageId(msg)) {
                if meta.country as usize == p.country_x {
                    x += 1;
                } else if meta.country as usize == p.country_y {
                    y += 1;
                }
            }
        }
        if x > 0 || y > 0 {
            counts.insert(c, (x, y));
        }
    }
    counts
}

/// Naive plan: full message scan grouped by author, filtered afterwards.
fn naive(snap: &PinnedSnapshot<'_>, p: &Q3Params) -> HashMap<u64, (u32, u32)> {
    let end = p.start.plus_days(p.duration_days);
    let cands: std::collections::HashSet<u64> = candidates(snap, p).into_iter().collect();
    let mut counts: HashMap<u64, (u32, u32)> = HashMap::new();
    for m in 0..snap.message_slots() as u64 {
        let Some(meta) = snap.message_meta(MessageId(m)) else { continue };
        if meta.creation_date < p.start || meta.creation_date >= end {
            continue;
        }
        if !cands.contains(&meta.author.raw()) {
            continue;
        }
        let entry = counts.entry(meta.author.raw()).or_default();
        if meta.country as usize == p.country_x {
            entry.0 += 1;
        } else if meta.country as usize == p.country_y {
            entry.1 += 1;
        }
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{busy_person, fixture};
    use snb_core::SimTime;

    fn params() -> Q3Params {
        let f = fixture();
        let dicts = snb_core::dict::Dictionaries::global();
        Q3Params {
            person: busy_person(f),
            country_x: dicts.places.country_by_name("China").unwrap(),
            country_y: dicts.places.country_by_name("India").unwrap(),
            start: SimTime::from_ymd(2010, 6, 1),
            duration_days: 700,
        }
    }

    #[test]
    fn intended_and_naive_agree() {
        let f = fixture();
        let snap = f.store.pinned();
        let p = params();
        assert_eq!(run(&snap, Engine::Intended, &p), run(&snap, Engine::Naive, &p));
    }

    #[test]
    fn results_require_both_countries_and_exclude_residents() {
        let f = fixture();
        let snap = f.store.pinned();
        let p = params();
        for r in run(&snap, Engine::Intended, &p) {
            assert!(r.x_count > 0 && r.y_count > 0);
            let home = snap.person_ref(r.person).unwrap().country;
            assert_ne!(home, p.country_x);
            assert_ne!(home, p.country_y);
        }
    }

    #[test]
    fn ordering_is_total_desc_then_id() {
        let f = fixture();
        let snap = f.store.pinned();
        let rows = run(&snap, Engine::Intended, &params());
        for w in rows.windows(2) {
            let t0 = w[0].x_count + w[0].y_count;
            let t1 = w[1].x_count + w[1].y_count;
            assert!(t0 > t1 || (t0 == t1 && w[0].person < w[1].person));
        }
    }

    #[test]
    fn empty_window_yields_nothing() {
        let f = fixture();
        let snap = f.store.pinned();
        let mut p = params();
        p.duration_days = 0;
        assert!(run(&snap, Engine::Intended, &p).is_empty());
    }
}
