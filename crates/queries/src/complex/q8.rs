//! Q8 — "Most recent replies".
//!
//! Retrieve the 20 most recent reply comments to all the posts and comments
//! of a person, descending by creation date, ascending by comment id.

use crate::engine::Engine;
use crate::helpers::TopK;
use crate::params::Q8Params;
use snb_core::time::SimTime;
use snb_core::{MessageId, PersonId};
use snb_store::PinnedSnapshot;
use std::cmp::Reverse;

/// Result limit.
pub(crate) const LIMIT: usize = 20;

/// One result row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Q8Row {
    /// The replying person.
    pub commenter: PersonId,
    /// Replier first name.
    pub first_name: &'static str,
    /// Replier last name.
    pub last_name: &'static str,
    /// The reply comment.
    pub comment: MessageId,
    /// Reply content.
    pub content: String,
    /// Reply creation date.
    pub creation_date: SimTime,
}

/// Execute Q8.
pub fn run(snap: &PinnedSnapshot<'_>, engine: Engine, p: &Q8Params) -> Vec<Q8Row> {
    let top = match engine {
        Engine::Intended => intended(snap, p),
        Engine::Naive => naive(snap, p),
    };
    top.into_iter()
        .filter_map(|((Reverse(date), comment), ())| {
            let row = snap.message_ref(MessageId(comment))?;
            let author = snap.person_ref(row.author)?;
            Some(Q8Row {
                commenter: row.author,
                first_name: author.first_name,
                last_name: author.last_name,
                comment: MessageId(comment),
                content: row.content.to_string(),
                creation_date: date,
            })
        })
        .collect()
}

type Key = (Reverse<SimTime>, u64);

/// Intended: person's message index, then each message's reply list.
fn intended(snap: &PinnedSnapshot<'_>, p: &Q8Params) -> Vec<(Key, ())> {
    let mut top: TopK<Key, ()> = TopK::new(LIMIT);
    for (msg, _) in snap.messages_of_iter(p.person) {
        for (reply, date) in snap.replies_of_iter(MessageId(msg)) {
            top.push((Reverse(date), reply), ());
        }
    }
    top.into_sorted()
}

/// Naive: full message scan, checking each comment's parent author.
fn naive(snap: &PinnedSnapshot<'_>, p: &Q8Params) -> Vec<(Key, ())> {
    let mut top: TopK<Key, ()> = TopK::new(LIMIT);
    for m in 0..snap.message_slots() as u64 {
        let Some(meta) = snap.message_meta(MessageId(m)) else { continue };
        let Some((parent, _)) = meta.reply_info else { continue };
        if snap.message_meta(parent).is_some_and(|pm| pm.author == p.person) {
            top.push((Reverse(meta.creation_date), m), ());
        }
    }
    top.into_sorted()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{busy_person, fixture};

    fn params() -> Q8Params {
        Q8Params { person: busy_person(fixture()) }
    }

    #[test]
    fn intended_and_naive_agree() {
        let f = fixture();
        let snap = f.store.pinned();
        let p = params();
        assert_eq!(run(&snap, Engine::Intended, &p), run(&snap, Engine::Naive, &p));
    }

    #[test]
    fn replies_target_the_person() {
        let f = fixture();
        let snap = f.store.pinned();
        let p = params();
        let rows = run(&snap, Engine::Intended, &p);
        assert!(!rows.is_empty(), "busy person's messages draw replies");
        for r in &rows {
            let meta = snap.message_meta(r.comment).unwrap();
            let (parent, _) = meta.reply_info.unwrap();
            assert_eq!(snap.message_meta(parent).unwrap().author, p.person);
        }
    }

    #[test]
    fn ordering_is_date_desc_id_asc() {
        let f = fixture();
        let snap = f.store.pinned();
        let rows = run(&snap, Engine::Intended, &params());
        assert!(rows.len() <= LIMIT);
        for w in rows.windows(2) {
            assert!(
                w[0].creation_date > w[1].creation_date
                    || (w[0].creation_date == w[1].creation_date && w[0].comment < w[1].comment)
            );
        }
    }
}
