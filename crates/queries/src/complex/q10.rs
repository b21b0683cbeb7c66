//! Q10 — "Friend recommendation".
//!
//! Find top-10 friends-of-friends (excluding direct friends and the person)
//! who post much about the person's interests and little about anything
//! else, restricted by horoscope sign: born in the given month on day ≥ 21,
//! or in the next month on day < 22. Score = (posts with a common interest
//! tag) − (posts without). Descending by score, ascending by id.

use crate::engine::Engine;
use crate::helpers::load_two_hop;
use crate::params::Q10Params;
use crate::scratch::with_scratch;
use snb_core::{MessageId, PersonId, TagId};
use snb_store::PinnedSnapshot;
use std::cmp::Reverse;
use std::collections::{HashMap, HashSet};

/// Result limit.
const LIMIT: usize = 10;

/// One result row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Q10Row {
    /// The recommended person.
    pub person: PersonId,
    /// First name.
    pub first_name: &'static str,
    /// Last name.
    pub last_name: &'static str,
    /// Common-interest score.
    pub score: i64,
}

/// Execute Q10.
pub fn run(snap: &PinnedSnapshot<'_>, engine: Engine, p: &Q10Params) -> Vec<Q10Row> {
    // Rank over ids; names are borrowed for the returned rows only.
    rank(counts(snap, engine, p))
        .into_iter()
        .filter_map(|(c, score)| {
            let person = snap.person_ref(PersonId(c))?;
            Some(Q10Row {
                person: PersonId(c),
                first_name: person.first_name,
                last_name: person.last_name,
                score,
            })
        })
        .collect()
}

/// The score of every horoscope candidate, on either engine (empty when
/// the start person does not exist).
pub(crate) fn counts(
    snap: &PinnedSnapshot<'_>,
    engine: Engine,
    p: &Q10Params,
) -> HashMap<u64, i64> {
    let interests: HashSet<TagId> = match snap.person_ref(p.person) {
        Some(me) => me.interests.iter().copied().collect(),
        None => return HashMap::new(),
    };
    let cands = horoscope_candidates(snap, p);
    match engine {
        Engine::Intended => intended(snap, &cands, &interests),
        Engine::Naive => naive(snap, &cands, &interests),
    }
}

/// The store-free rank step: the top 10 `(person, score)` by score
/// descending, then id.
pub(crate) fn rank(scores: HashMap<u64, i64>) -> Vec<(u64, i64)> {
    let mut ranked: Vec<(Reverse<i64>, u64)> =
        scores.into_iter().map(|(c, score)| (Reverse(score), c)).collect();
    ranked.sort_unstable();
    ranked.truncate(LIMIT);
    ranked.into_iter().map(|(Reverse(score), c)| (c, score)).collect()
}

/// Strict friends-of-friends passing the horoscope restriction.
fn horoscope_candidates(snap: &PinnedSnapshot<'_>, p: &Q10Params) -> Vec<u64> {
    let next_month = if p.month == 12 { 1 } else { p.month + 1 };
    with_scratch(|sx| {
        load_two_hop(snap, sx, p.person);
        sx.two
            .iter()
            .copied()
            .filter(|&c| {
                snap.person_ref(PersonId(c)).is_some_and(|pr| {
                    let (_, m, d) = pr.birthday.to_ymd();
                    (m == p.month && d >= 21) || (m == next_month && d < 22)
                })
            })
            .collect()
    })
}

fn score_one(common: i64, total: i64) -> i64 {
    common - (total - common)
}

/// Intended: per candidate, scan their posts-only covering index — no
/// per-message row probe just to discard replies (only the tag lookup
/// touches the message table).
fn intended(
    snap: &PinnedSnapshot<'_>,
    cands: &[u64],
    interests: &HashSet<TagId>,
) -> HashMap<u64, i64> {
    let mut scores = HashMap::with_capacity(cands.len());
    for &c in cands {
        let mut common = 0i64;
        let mut total = 0i64;
        for (msg, _) in snap.posts_of_iter(PersonId(c)) {
            total += 1;
            if snap.message_tags(MessageId(msg)).iter().any(|t| interests.contains(t)) {
                common += 1;
            }
        }
        scores.insert(c, score_one(common, total));
    }
    scores
}

/// Naive: one full message scan grouping per candidate.
fn naive(
    snap: &PinnedSnapshot<'_>,
    cands: &[u64],
    interests: &HashSet<TagId>,
) -> HashMap<u64, i64> {
    let cand_set: HashSet<u64> = cands.iter().copied().collect();
    let mut agg: HashMap<u64, (i64, i64)> = HashMap::new();
    for m in 0..snap.message_slots() as u64 {
        let id = MessageId(m);
        let Some(meta) = snap.message_meta(id) else { continue };
        if meta.reply_info.is_some() || !cand_set.contains(&meta.author.raw()) {
            continue;
        }
        let e = agg.entry(meta.author.raw()).or_default();
        e.1 += 1;
        if snap.message_tags(id).iter().any(|t| interests.contains(t)) {
            e.0 += 1;
        }
    }
    cands
        .iter()
        .map(|&c| {
            let (common, total) = agg.get(&c).copied().unwrap_or((0, 0));
            (c, score_one(common, total))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{busy_person, fixture};

    fn params() -> Q10Params {
        // Use a month that certainly has births: probe a few.
        let f = fixture();
        let person = busy_person(f);
        Q10Params { person, month: 6 }
    }

    #[test]
    fn intended_and_naive_agree_across_months() {
        let f = fixture();
        let snap = f.store.pinned();
        let person = busy_person(f);
        for month in [1, 6, 12] {
            let p = Q10Params { person, month };
            assert_eq!(
                run(&snap, Engine::Intended, &p),
                run(&snap, Engine::Naive, &p),
                "month {month}"
            );
        }
    }

    #[test]
    fn candidates_are_strict_friends_of_friends() {
        let f = fixture();
        let snap = f.store.pinned();
        let p = params();
        let (one, two) = with_scratch(|sx| {
            load_two_hop(&snap, sx, p.person);
            (sx.one.clone(), sx.two.clone())
        });
        for r in run(&snap, Engine::Intended, &p) {
            assert!(two.contains(&r.person.raw()));
            assert!(!one.contains(&r.person.raw()), "direct friends excluded");
            assert_ne!(r.person, p.person);
        }
    }

    #[test]
    fn horoscope_window_is_respected() {
        let f = fixture();
        let snap = f.store.pinned();
        let p = params();
        for r in run(&snap, Engine::Intended, &p) {
            let (_, m, d) = snap.person_ref(r.person).unwrap().birthday.to_ymd();
            assert!((m == p.month && d >= 21) || (m == p.month + 1 && d < 22), "{m}-{d}");
        }
    }

    #[test]
    fn december_wraps_to_january() {
        let f = fixture();
        let snap = f.store.pinned();
        let p = Q10Params { person: busy_person(f), month: 12 };
        for r in run(&snap, Engine::Intended, &p) {
            let (_, m, d) = snap.person_ref(r.person).unwrap().birthday.to_ymd();
            assert!((m == 12 && d >= 21) || (m == 1 && d < 22));
        }
    }

    #[test]
    fn scores_are_sorted_descending() {
        let f = fixture();
        let snap = f.store.pinned();
        let rows = run(&snap, Engine::Intended, &params());
        for w in rows.windows(2) {
            assert!(
                w[0].score > w[1].score || (w[0].score == w[1].score && w[0].person < w[1].person)
            );
        }
    }
}
