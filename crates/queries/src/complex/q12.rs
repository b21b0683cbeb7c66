//! Q12 — "Expert Search".
//!
//! Find friends of a person who have replied the most to posts with a tag
//! in a given tag class (or any of its descendant classes). Top 20 persons,
//! descending by reply count, ascending by id; include the matched tag
//! names.

use crate::engine::Engine;
use crate::helpers::load_friends;
use crate::params::Q12Params;
use crate::scratch::with_scratch;
use snb_core::dict::Dictionaries;
use snb_core::{MessageId, PersonId};
use snb_store::PinnedSnapshot;
use std::cmp::Reverse;
use std::collections::{BTreeSet, HashMap, HashSet};

/// Result limit.
const LIMIT: usize = 20;

/// One result row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Q12Row {
    /// The expert friend.
    pub person: PersonId,
    /// First name.
    pub first_name: &'static str,
    /// Last name.
    pub last_name: &'static str,
    /// Tag names their replies touched (sorted).
    pub tags: Vec<String>,
    /// Number of matching replies.
    pub count: u32,
}

/// Execute Q12.
pub fn run(snap: &PinnedSnapshot<'_>, engine: Engine, p: &Q12Params) -> Vec<Q12Row> {
    // Rank over ids; names and tag strings are built for the returned rows
    // only.
    rank(counts(snap, engine, p))
        .into_iter()
        .filter_map(|(friend, count, tags)| {
            let person = snap.person_ref(PersonId(friend))?;
            Some(Q12Row {
                person: PersonId(friend),
                first_name: person.first_name,
                last_name: person.last_name,
                tags: tag_names(&tags),
                count,
            })
        })
        .collect()
}

/// The per-friend [`Agg`] on either engine.
pub(crate) fn counts(snap: &PinnedSnapshot<'_>, engine: Engine, p: &Q12Params) -> Agg {
    let dicts = Dictionaries::global();
    let classes: HashSet<usize> = dicts.tags.class_descendants(p.tag_class).into_iter().collect();
    match engine {
        Engine::Intended => intended(snap, p, &classes),
        Engine::Naive => naive(snap, p, &classes),
    }
}

/// The store-free rank step: friends with at least one matching reply,
/// by count descending, then id; the top 20 as `(friend, count, tags)`.
pub(crate) fn rank(agg: Agg) -> Vec<(u64, u32, BTreeSet<u64>)> {
    let mut ranked: Vec<(u64, u32, BTreeSet<u64>)> = agg
        .into_iter()
        .filter(|(_, (count, _))| *count > 0)
        .map(|(friend, (count, tags))| (friend, count, tags))
        .collect();
    ranked.sort_unstable_by_key(|&(friend, count, _)| (Reverse(count), friend));
    ranked.truncate(LIMIT);
    ranked
}

/// Per-friend aggregate: reply count plus the matched tag *ids* (names are
/// materialized from the global dictionary only when rows are built, so a
/// sharded merge can union aggregates without shipping strings).
pub(crate) type Agg = HashMap<u64, (u32, BTreeSet<u64>)>;

/// Sorted tag names for a set of tag ids.
pub(crate) fn tag_names(tags: &BTreeSet<u64>) -> Vec<String> {
    let dicts = Dictionaries::global();
    let mut names: Vec<String> =
        tags.iter().map(|&t| dicts.tags.tag(t as usize).name.clone()).collect();
    names.sort();
    names
}

/// Count a comment if its direct parent is a *post* tagged inside the class
/// subtree; collect the matching tag ids.
fn score_comment(
    snap: &PinnedSnapshot<'_>,
    comment: MessageId,
    classes: &HashSet<usize>,
    entry: &mut (u32, BTreeSet<u64>),
) {
    let dicts = Dictionaries::global();
    let Some(meta) = snap.message_meta(comment) else { return };
    let Some((parent, _)) = meta.reply_info else { return };
    let Some(pmeta) = snap.message_meta(parent) else { return };
    if pmeta.reply_info.is_some() {
        return; // parent must be a post, not a comment
    }
    let matched: Vec<u64> = snap
        .message_tags(parent)
        .iter()
        .filter(|t| classes.contains(&dicts.tags.tag(t.index()).class))
        .map(|t| t.raw())
        .collect();
    if !matched.is_empty() {
        entry.0 += 1;
        entry.1.extend(matched);
    }
}

/// Intended: per friend, scan their messages picking comments.
fn intended(snap: &PinnedSnapshot<'_>, p: &Q12Params, classes: &HashSet<usize>) -> Agg {
    let mut agg: Agg = HashMap::new();
    with_scratch(|sx| {
        load_friends(snap, sx, p.person);
        for &friend in &sx.one {
            let entry = agg.entry(friend).or_default();
            for (msg, _) in snap.messages_of_iter(PersonId(friend)) {
                score_comment(snap, MessageId(msg), classes, entry);
            }
        }
    });
    agg
}

/// Naive: full message scan probing the friend marks.
fn naive(snap: &PinnedSnapshot<'_>, p: &Q12Params, classes: &HashSet<usize>) -> Agg {
    let mut agg: Agg = HashMap::new();
    with_scratch(|sx| {
        load_friends(snap, sx, p.person);
        for m in 0..snap.message_slots() as u64 {
            let Some(meta) = snap.message_meta(MessageId(m)) else { continue };
            if meta.reply_info.is_some() && sx.level_of(meta.author.raw()) == Some(1) {
                let entry = agg.entry(meta.author.raw()).or_default();
                score_comment(snap, MessageId(m), classes, entry);
            }
        }
    });
    agg
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{busy_person, fixture};

    fn params() -> Q12Params {
        let dicts = Dictionaries::global();
        Q12Params {
            person: busy_person(fixture()),
            tag_class: dicts.tags.class_by_name("MusicalArtist").unwrap(),
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
    fn experts_are_friends_with_positive_counts() {
        let f = fixture();
        let snap = f.store.pinned();
        let p = params();
        let friends: Vec<u64> = snap.friends_iter(p.person).map(|(id, _)| id).collect();
        let rows = run(&snap, Engine::Intended, &p);
        for r in &rows {
            assert!(friends.contains(&r.person.raw()));
            assert!(r.count > 0);
            assert!(!r.tags.is_empty());
        }
    }

    #[test]
    fn root_class_thing_catches_more_than_a_leaf() {
        let f = fixture();
        let snap = f.store.pinned();
        let person = busy_person(f);
        let dicts = Dictionaries::global();
        let thing = dicts.tags.class_by_name("Thing").unwrap();
        let leaf = dicts.tags.class_by_name("Programming").unwrap();
        let all: u32 = run(&snap, Engine::Intended, &Q12Params { person, tag_class: thing })
            .iter()
            .map(|r| r.count)
            .sum();
        let few: u32 = run(&snap, Engine::Intended, &Q12Params { person, tag_class: leaf })
            .iter()
            .map(|r| r.count)
            .sum();
        assert!(all >= few);
        assert!(all > 0, "Thing subtree covers every tag");
    }
}
