//! Q9 — "Latest Posts" (the paper's §3 running example, Fig. 4).
//!
//! Find the most recent 20 posts and comments from all friends or
//! friends-of-friends of a person, created at or before a given date.
//!
//! The intended plan is two index-nested-loop joins out of the small friend
//! side (≈120 friends → ≈thousands of 2-hop friends) followed by the
//! message fetch; §3 reports that replacing the first INL join with a hash
//! join costs ~50 % in HyPer and similar in Virtuoso. Our `Naive` engine is
//! exactly that wrong plan: build the 2-hop hash table, then scan the full
//! message table probing it — the ablation behind the Fig. 4 experiment.

use crate::engine::Engine;
use crate::helpers::{load_two_hop, TopK};
use crate::params::Q9Params;
use crate::scratch::with_scratch;
use snb_core::time::SimTime;
use snb_core::{MessageId, PersonId};
use snb_store::PinnedSnapshot;
use std::cmp::Reverse;

/// Result limit.
pub(crate) const LIMIT: usize = 20;

/// One result row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Q9Row {
    /// Message author.
    pub author: PersonId,
    /// Author first name.
    pub first_name: &'static str,
    /// Author last name.
    pub last_name: &'static str,
    /// The message.
    pub message: MessageId,
    /// Message content (or image file).
    pub content: String,
    /// Creation date.
    pub creation_date: SimTime,
}

/// Execute Q9.
pub fn run(snap: &PinnedSnapshot<'_>, engine: Engine, p: &Q9Params) -> Vec<Q9Row> {
    let top = match engine {
        Engine::Intended => intended(snap, p),
        Engine::Naive => naive(snap, p),
    };
    top.into_iter()
        .filter_map(|((Reverse(date), msg), ())| {
            // Borrowed rows — see Q2's materialize for why.
            let row = snap.message_ref(MessageId(msg))?;
            let author = snap.person_ref(row.author)?;
            let content = row
                .image_file
                .as_deref()
                .filter(|_| row.content.is_empty())
                .unwrap_or(&row.content)
                .to_string();
            Some(Q9Row {
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

type Key = (Reverse<SimTime>, u64);

/// Intended plan: INL from friends into friends-of-friends, then per-person
/// date-index scans with a shared top-k threshold.
fn intended(snap: &PinnedSnapshot<'_>, p: &Q9Params) -> Vec<(Key, ())> {
    with_scratch(|sx| {
        load_two_hop(snap, sx, p.person);
        let mut top: TopK<Key, ()> = TopK::new(LIMIT);
        for &c in sx.one.iter().chain(sx.two.iter()) {
            // Newest-first borrowing walk; the first rejected key ends the
            // scan for this person.
            for (msg, date) in snap.recent_messages_walk(PersonId(c), p.max_date).take(LIMIT) {
                let key = (Reverse(date), msg);
                if !top.would_accept(&key) {
                    break;
                }
                top.push(key, ());
            }
        }
        top.into_sorted()
    })
}

/// The wrong plan: a full message-table scan probing the 2-hop marks. The
/// join-order inversion is the point of this engine; the probe structure is
/// not — it reads the scratch levels directly (1 = friend, 2 = FoF) rather
/// than copying the circle into a third hash set first.
fn naive(snap: &PinnedSnapshot<'_>, p: &Q9Params) -> Vec<(Key, ())> {
    with_scratch(|sx| {
        load_two_hop(snap, sx, p.person);
        let mut top: TopK<Key, ()> = TopK::new(LIMIT);
        for m in 0..snap.message_slots() as u64 {
            if let Some(meta) = snap.message_meta(MessageId(m)) {
                if meta.creation_date <= p.max_date
                    && matches!(sx.level_of(meta.author.raw()), Some(1 | 2))
                {
                    top.push((Reverse(meta.creation_date), m), ());
                }
            }
        }
        top.into_sorted()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{busy_person, fixture, mid_date};

    fn params() -> Q9Params {
        Q9Params { person: busy_person(fixture()), max_date: mid_date() }
    }

    #[test]
    fn intended_and_naive_agree() {
        let f = fixture();
        let snap = f.store.pinned();
        let p = params();
        let a = run(&snap, Engine::Intended, &p);
        let b = run(&snap, Engine::Naive, &p);
        assert_eq!(a, b);
        assert_eq!(a.len(), LIMIT);
    }

    #[test]
    fn authors_are_in_two_hop_circle() {
        let f = fixture();
        let snap = f.store.pinned();
        let p = params();
        let (one, two) = with_scratch(|sx| {
            load_two_hop(&snap, sx, p.person);
            (sx.one.clone(), sx.two.clone())
        });
        for r in run(&snap, Engine::Intended, &p) {
            assert!(one.contains(&r.author.raw()) || two.contains(&r.author.raw()));
            assert!(r.creation_date <= p.max_date);
        }
    }

    #[test]
    fn q9_dominates_q2() {
        // The 2-hop circle is a superset of friends, so Q9's newest message
        // is at least as new as Q2's.
        let f = fixture();
        let snap = f.store.pinned();
        let person = busy_person(f);
        let q9 = run(&snap, Engine::Intended, &Q9Params { person, max_date: mid_date() });
        let q2 = crate::complex::q2::run(
            &snap,
            Engine::Intended,
            &crate::params::Q2Params { person, max_date: mid_date() },
        );
        if let (Some(a), Some(b)) = (q9.first(), q2.first()) {
            assert!(a.creation_date >= b.creation_date);
        }
    }
}
