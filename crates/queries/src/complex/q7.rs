//! Q7 — "Recent likes".
//!
//! For the given person, get the most recent likes on any of their
//! messages: top 20 ordered descending by like date then ascending by liker
//! id, one row per liker (their most recent like), with the latency between
//! the message and the like, flagging likers from outside the person's
//! direct connections.

use crate::engine::Engine;
use crate::params::Q7Params;
use snb_core::time::{SimTime, MILLIS_PER_MINUTE};
use snb_core::{MessageId, PersonId};
use snb_store::PinnedSnapshot;
use std::collections::HashMap;

/// Result limit.
pub(crate) const LIMIT: usize = 20;

/// One result row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Q7Row {
    /// The liker.
    pub liker: PersonId,
    /// Liker first name.
    pub first_name: &'static str,
    /// Liker last name.
    pub last_name: &'static str,
    /// When the like happened.
    pub like_date: SimTime,
    /// The liked message.
    pub message: MessageId,
    /// Minutes between message creation and the like.
    pub latency_minutes: i64,
    /// True if the liker is *not* a direct friend of the person.
    pub is_new: bool,
}

/// Execute Q7.
pub fn run(snap: &PinnedSnapshot<'_>, engine: Engine, p: &Q7Params) -> Vec<Q7Row> {
    // liker -> (like date, message) keeping the most recent like (smallest
    // message id on ties).
    let latest = match engine {
        Engine::Intended => intended(snap, p),
        Engine::Naive => naive(snap, p),
    };
    let mut rows: Vec<Q7Row> = latest
        .into_iter()
        .filter_map(|(liker, (date, msg))| {
            let lp = snap.person_ref(PersonId(liker))?;
            let message = snap.message_meta(MessageId(msg))?;
            Some(Q7Row {
                liker: PersonId(liker),
                first_name: lp.first_name,
                last_name: lp.last_name,
                like_date: date,
                message: MessageId(msg),
                latency_minutes: date.since(message.creation_date) / MILLIS_PER_MINUTE,
                is_new: !snap.are_friends(p.person, PersonId(liker)),
            })
        })
        .collect();
    rows.sort_by_key(|r| (std::cmp::Reverse(r.like_date), r.liker));
    rows.truncate(LIMIT);
    rows
}

/// Record a like unless the liker already has a later one (or an equally
/// dated one on a smaller message id).
pub(crate) fn keep_latest(
    latest: &mut HashMap<u64, (SimTime, u64)>,
    liker: u64,
    date: SimTime,
    msg: u64,
) {
    match latest.entry(liker) {
        std::collections::hash_map::Entry::Vacant(e) => {
            e.insert((date, msg));
        }
        std::collections::hash_map::Entry::Occupied(mut e) => {
            if (date, std::cmp::Reverse(msg)) > (e.get().0, std::cmp::Reverse(e.get().1)) {
                e.insert((date, msg));
            }
        }
    }
}

/// Intended: scan the person's message index, then each message's like list.
fn intended(snap: &PinnedSnapshot<'_>, p: &Q7Params) -> HashMap<u64, (SimTime, u64)> {
    let mut latest = HashMap::new();
    for (msg, _) in snap.messages_of_iter(p.person) {
        for (liker, date) in snap.likes_of_iter(MessageId(msg)) {
            keep_latest(&mut latest, liker, date, msg);
        }
    }
    latest
}

/// Naive: scan every person's given-likes list, probing the target author.
fn naive(snap: &PinnedSnapshot<'_>, p: &Q7Params) -> HashMap<u64, (SimTime, u64)> {
    let mut latest = HashMap::new();
    for liker in 0..snap.person_slots() as u64 {
        for (msg, date) in snap.likes_by_iter(PersonId(liker)) {
            if snap.message_meta(MessageId(msg)).is_some_and(|m| m.author == p.person) {
                keep_latest(&mut latest, liker, date, msg);
            }
        }
    }
    latest
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{busy_person, fixture};

    fn params() -> Q7Params {
        Q7Params { person: busy_person(fixture()) }
    }

    #[test]
    fn intended_and_naive_agree() {
        let f = fixture();
        let snap = f.store.pinned();
        let p = params();
        assert_eq!(run(&snap, Engine::Intended, &p), run(&snap, Engine::Naive, &p));
    }

    #[test]
    fn busy_person_has_recent_likes() {
        let f = fixture();
        let snap = f.store.pinned();
        let rows = run(&snap, Engine::Intended, &params());
        assert!(!rows.is_empty());
        for r in &rows {
            assert!(r.latency_minutes >= 0, "like precedes message");
        }
        for w in rows.windows(2) {
            assert!(
                w[0].like_date > w[1].like_date
                    || (w[0].like_date == w[1].like_date && w[0].liker < w[1].liker)
            );
        }
    }

    #[test]
    fn one_row_per_liker() {
        let f = fixture();
        let snap = f.store.pinned();
        let rows = run(&snap, Engine::Intended, &params());
        let mut likers: Vec<u64> = rows.iter().map(|r| r.liker.raw()).collect();
        likers.sort_unstable();
        likers.dedup();
        assert_eq!(likers.len(), rows.len());
    }

    #[test]
    fn is_new_matches_friendship() {
        let f = fixture();
        let snap = f.store.pinned();
        let p = params();
        for r in run(&snap, Engine::Intended, &p) {
            assert_eq!(r.is_new, !snap.are_friends(p.person, r.liker));
        }
    }
}
