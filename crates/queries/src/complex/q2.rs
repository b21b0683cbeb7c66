//! Q2 — "Find the newest 20 posts and comments from your friends".
//!
//! Given a start person, find the most recent messages created by their
//! friends at or before a given date. Top 20, descending by creation date,
//! ascending by message id. The intended plan (paper Fig. 6a) is an
//! index-nested-loop from the friend list into the per-person date-ordered
//! message index with a shared top-k threshold.

use crate::engine::Engine;
use crate::helpers::{load_friends, TopK};
use crate::params::Q2Params;
use crate::scratch::with_scratch;
use snb_core::time::SimTime;
use snb_core::{MessageId, PersonId};
use snb_store::PinnedSnapshot;
use std::cmp::Reverse;

/// Result limit.
pub(crate) const LIMIT: usize = 20;

/// One result row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Q2Row {
    /// Message author.
    pub author: PersonId,
    /// Author's first name.
    pub first_name: &'static str,
    /// Author's last name.
    pub last_name: &'static str,
    /// The message.
    pub message: MessageId,
    /// Message content (or image file for photos).
    pub content: String,
    /// Message creation date.
    pub creation_date: SimTime,
}

/// Execute Q2.
pub fn run(snap: &PinnedSnapshot<'_>, engine: Engine, p: &Q2Params) -> Vec<Q2Row> {
    let top = match engine {
        Engine::Intended => intended(snap, p),
        Engine::Naive => naive(snap, p),
    };
    materialize(snap, top)
}

type Key = (Reverse<SimTime>, u64);

fn intended(snap: &PinnedSnapshot<'_>, p: &Q2Params) -> Vec<(Key, ())> {
    let mut top: TopK<Key, ()> = TopK::new(LIMIT);
    for (friend, _) in snap.friends_iter(p.person) {
        // Each friend contributes at most LIMIT candidates; the walk is
        // newest-first so the first rejected key ends the scan.
        for (msg, date) in snap.recent_messages_walk(PersonId(friend), p.max_date).take(LIMIT) {
            let key = (Reverse(date), msg);
            if !top.would_accept(&key) {
                break;
            }
            top.push(key, ());
        }
    }
    top.into_sorted()
}

fn naive(snap: &PinnedSnapshot<'_>, p: &Q2Params) -> Vec<(Key, ())> {
    with_scratch(|sx| {
        load_friends(snap, sx, p.person);
        let mut top: TopK<Key, ()> = TopK::new(LIMIT);
        // Full message-table scan with a visited-map probe into the
        // friend marks (level 1 = direct friend).
        for m in 0..snap.message_slots() as u64 {
            if let Some(meta) = snap.message_meta(MessageId(m)) {
                if meta.creation_date <= p.max_date && sx.level_of(meta.author.raw()) == Some(1) {
                    top.push((Reverse(meta.creation_date), m), ());
                }
            }
        }
        top.into_sorted()
    })
}

fn materialize(snap: &PinnedSnapshot<'_>, top: Vec<(Key, ())>) -> Vec<Q2Row> {
    top.into_iter()
        .filter_map(|((Reverse(date), msg), ())| {
            // Borrow the rows: cloning a MessageRow copies content + tags
            // and cloning a Person copies four Vecs, but the result row
            // only needs the author id, interned names, and the content
            // (one copy, made once below).
            let row = snap.message_ref(MessageId(msg))?;
            let author = snap.person_ref(row.author)?;
            let content = row
                .image_file
                .as_deref()
                .filter(|_| row.content.is_empty())
                .unwrap_or(&row.content)
                .to_string();
            Some(Q2Row {
                author: row.author,
                first_name: author.first_name,
                last_name: author.last_name,
                message: MessageId(msg),
                content,
                creation_date: date,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{busy_person, fixture, mid_date};

    #[test]
    fn intended_and_naive_agree() {
        let f = fixture();
        let snap = f.store.pinned();
        let p = Q2Params { person: busy_person(f), max_date: mid_date() };
        let a = run(&snap, Engine::Intended, &p);
        let b = run(&snap, Engine::Naive, &p);
        assert_eq!(a, b);
        assert_eq!(a.len(), LIMIT, "busy person should fill the result");
    }

    #[test]
    fn results_are_friend_messages_before_date() {
        let f = fixture();
        let snap = f.store.pinned();
        let start = busy_person(f);
        let p = Q2Params { person: start, max_date: mid_date() };
        let friends: Vec<u64> = snap.friends_iter(start).map(|(id, _)| id).collect();
        for r in run(&snap, Engine::Intended, &p) {
            assert!(friends.contains(&r.author.raw()));
            assert!(r.creation_date <= p.max_date);
            assert!(!r.content.is_empty());
        }
    }

    #[test]
    fn ordering_is_date_desc_then_id_asc() {
        let f = fixture();
        let snap = f.store.pinned();
        let p = Q2Params { person: busy_person(f), max_date: mid_date() };
        let rows = run(&snap, Engine::Intended, &p);
        for w in rows.windows(2) {
            assert!(
                w[0].creation_date > w[1].creation_date
                    || (w[0].creation_date == w[1].creation_date && w[0].message < w[1].message)
            );
        }
    }

    #[test]
    fn early_date_yields_fewer_results() {
        let f = fixture();
        let snap = f.store.pinned();
        let early =
            Q2Params { person: busy_person(f), max_date: snb_core::SimTime::from_ymd(2010, 2, 1) };
        let rows = run(&snap, Engine::Intended, &early);
        assert!(rows.len() < LIMIT, "almost no content exists that early");
    }
}
