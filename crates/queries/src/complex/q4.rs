//! Q4 — "New Topics".
//!
//! Given a start person, find the top-10 most popular tags (by number of
//! posts) attached to posts created by the person's friends within
//! `[start, start + duration)` — excluding tags that already appeared on
//! friends' posts before the window (only *new* topics count).

use crate::engine::Engine;
use crate::helpers::{load_friends, rank_tags};
use crate::params::Q4Params;
use crate::scratch::with_scratch;
use snb_core::dict::Dictionaries;
use snb_core::{MessageId, PersonId};
use snb_store::PinnedSnapshot;
use std::collections::{HashMap, HashSet};

/// Result limit.
const LIMIT: usize = 10;

/// One result row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Q4Row {
    /// Tag name.
    pub tag: String,
    /// Number of friend posts in the window carrying the tag.
    pub count: u32,
}

/// Execute Q4.
pub fn run(snap: &PinnedSnapshot<'_>, engine: Engine, p: &Q4Params) -> Vec<Q4Row> {
    let tags = &Dictionaries::global().tags;
    rank(counts(snap, engine, p))
        .into_iter()
        .map(|(tag, count)| Q4Row { tag: tags.tag(tag as usize).name.clone(), count })
        .collect()
}

/// Friend-post counts per tag inside the window, and the tags friends'
/// posts carried before it.
pub(crate) type Counts = (HashMap<u64, u32>, HashSet<u64>);

/// [`Counts`] on either engine.
pub(crate) fn counts(snap: &PinnedSnapshot<'_>, engine: Engine, p: &Q4Params) -> Counts {
    match engine {
        Engine::Intended => intended(snap, p),
        Engine::Naive => naive(snap, p),
    }
}

/// The store-free rank step: drop the tags seen before the window, then
/// the top 10 `(tag, count)` by count descending, then tag name.
pub(crate) fn rank((in_window, before): Counts) -> Vec<(u64, u32)> {
    rank_tags(in_window.into_iter().filter(|(tag, _)| !before.contains(tag)), LIMIT)
}

/// Intended: walk friends, range-scan each friend's message index.
fn intended(snap: &PinnedSnapshot<'_>, p: &Q4Params) -> Counts {
    let end = p.start.plus_days(p.duration_days);
    let mut in_window: HashMap<u64, u32> = HashMap::new();
    let mut before: HashSet<u64> = HashSet::new();
    with_scratch(|sx| {
        load_friends(snap, sx, p.person);
        for &friend in &sx.one {
            for (msg, date) in snap.messages_of_iter(PersonId(friend)) {
                if date >= end {
                    break; // index is date-ordered
                }
                let id = MessageId(msg);
                let Some(meta) = snap.message_meta(id) else { continue };
                if meta.reply_info.is_some() {
                    continue; // posts only
                }
                if date < p.start {
                    before.extend(snap.message_tags(id).iter().map(|t| t.raw()));
                } else {
                    for t in snap.message_tags(id) {
                        *in_window.entry(t.raw()).or_default() += 1;
                    }
                }
            }
        }
    });
    (in_window, before)
}

/// Naive: full message-table scan.
fn naive(snap: &PinnedSnapshot<'_>, p: &Q4Params) -> Counts {
    let end = p.start.plus_days(p.duration_days);
    let mut in_window: HashMap<u64, u32> = HashMap::new();
    let mut before: HashSet<u64> = HashSet::new();
    with_scratch(|sx| {
        load_friends(snap, sx, p.person);
        for m in 0..snap.message_slots() as u64 {
            let id = MessageId(m);
            let Some(meta) = snap.message_meta(id) else { continue };
            if meta.reply_info.is_some()
                || sx.level_of(meta.author.raw()) != Some(1)
                || meta.creation_date >= end
            {
                continue;
            }
            if meta.creation_date < p.start {
                before.extend(snap.message_tags(id).iter().map(|t| t.raw()));
            } else {
                for t in snap.message_tags(id) {
                    *in_window.entry(t.raw()).or_default() += 1;
                }
            }
        }
    });
    (in_window, before)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{busy_person, fixture};
    use snb_core::SimTime;

    fn params() -> Q4Params {
        Q4Params {
            person: busy_person(fixture()),
            start: SimTime::from_ymd(2012, 3, 1),
            duration_days: 60,
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
    fn new_topics_exclude_pre_window_tags() {
        let f = fixture();
        let snap = f.store.pinned();
        let p = params();
        let (_, before) = intended(&snap, &p);
        let dicts = Dictionaries::global();
        let before_names: HashSet<&str> =
            before.iter().map(|&t| dicts.tags.tag(t as usize).name.as_str()).collect();
        for row in run(&snap, Engine::Intended, &p) {
            assert!(!before_names.contains(row.tag.as_str()), "{} is not new", row.tag);
        }
    }

    #[test]
    fn counts_are_positive_and_sorted() {
        let f = fixture();
        let snap = f.store.pinned();
        let rows = run(&snap, Engine::Intended, &params());
        assert!(rows.len() <= LIMIT);
        for w in rows.windows(2) {
            assert!(w[0].count > w[1].count || (w[0].count == w[1].count && w[0].tag <= w[1].tag));
        }
        for r in &rows {
            assert!(r.count > 0);
        }
    }

    #[test]
    fn whole_simulation_window_has_no_new_topics_for_quiet_person() {
        // A window starting at simulation start excludes nothing, so any
        // posted tag counts as new; conversely a person with no friends has
        // no results at all.
        let f = fixture();
        let snap = f.store.pinned();
        let loner =
            f.ds.persons.iter().map(|p| p.id).find(|&id| snap.friends_iter(id).next().is_none());
        if let Some(loner) = loner {
            let p = Q4Params {
                person: loner,
                start: SimTime::from_ymd(2010, 1, 1),
                duration_days: 1000,
            };
            assert!(run(&snap, Engine::Intended, &p).is_empty());
        }
    }
}
