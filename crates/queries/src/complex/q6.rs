//! Q6 — "Tag co-occurrence".
//!
//! Given a start person and a tag, find the other tags that occur together
//! with it on posts created by the person's friends and friends-of-friends.
//! Top 10 by post count, then tag name.
//!
//! Intended plan: driven from the tag side. Mark the 2-hop circle in the
//! scratch, then walk the tag's post list (`posts_with_tag_iter`) and keep
//! the posts whose author is at level 1 or 2, counting their other tags.
//! A tag carries far fewer posts than the circle writes (at 10 000 persons
//! 1.9–29 k against 36–38 k on the curated bindings), so the plan touches
//! only rows that can count. On a shard the tag's list holds only the
//! posts that shard owns, so the per-shard counts add up.

use crate::engine::Engine;
use crate::helpers::{load_two_hop, rank_tags};
use crate::params::Q6Params;
use crate::scratch::with_scratch;
use snb_core::dict::Dictionaries;
use snb_core::{MessageId, TagId};
use snb_store::PinnedSnapshot;
use std::collections::HashMap;

/// Result limit.
const LIMIT: usize = 10;

/// One result row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Q6Row {
    /// Co-occurring tag name.
    pub tag: String,
    /// Number of posts carrying both tags.
    pub count: u32,
}

/// Execute Q6.
pub fn run(snap: &PinnedSnapshot<'_>, engine: Engine, p: &Q6Params) -> Vec<Q6Row> {
    let tags = &Dictionaries::global().tags;
    rank(counts(snap, engine, p))
        .into_iter()
        .map(|(tag, count)| Q6Row { tag: tags.tag(tag as usize).name.clone(), count })
        .collect()
}

/// Co-occurrence counts per tag, on either engine.
pub(crate) fn counts(snap: &PinnedSnapshot<'_>, engine: Engine, p: &Q6Params) -> HashMap<u64, u32> {
    match engine {
        Engine::Intended => intended(snap, p),
        Engine::Naive => naive(snap, p),
    }
}

/// The store-free rank step: the top 10 `(tag, count)` by count
/// descending, then tag name.
pub(crate) fn rank(counts: HashMap<u64, u32>) -> Vec<(u64, u32)> {
    rank_tags(counts, LIMIT)
}

/// Count each tag of a post that carries `anchor`, other than `anchor`.
fn count_other_tags(tags: &[TagId], anchor: u64, counts: &mut HashMap<u64, u32>) {
    for t in tags {
        if t.raw() != anchor {
            *counts.entry(t.raw()).or_default() += 1;
        }
    }
}

/// Intended: mark the 2-hop circle, then one row probe per post of the
/// tag, keeping those whose author the circle marks at level 1 or 2.
fn intended(snap: &PinnedSnapshot<'_>, p: &Q6Params) -> HashMap<u64, u32> {
    let mut counts = HashMap::new();
    let anchor = p.tag as u64;
    with_scratch(|sx| {
        load_two_hop(snap, sx, p.person);
        for (msg, _) in snap.posts_with_tag_iter(TagId(anchor)) {
            let Some(row) = snap.message_ref(MessageId(msg)) else { continue };
            if matches!(sx.level_of(row.author.raw()), Some(1 | 2)) {
                count_other_tags(&row.tags, anchor, &mut counts);
            }
        }
    });
    counts
}

/// Naive: full message scan with a hash probe.
fn naive(snap: &PinnedSnapshot<'_>, p: &Q6Params) -> HashMap<u64, u32> {
    let mut counts = HashMap::new();
    with_scratch(|sx| {
        load_two_hop(snap, sx, p.person);
        for m in 0..snap.message_slots() as u64 {
            let id = MessageId(m);
            let Some(meta) = snap.message_meta(id) else { continue };
            // Level probe (1 = friend, 2 = FoF) replaces the circle copy.
            if meta.reply_info.is_none() && matches!(sx.level_of(meta.author.raw()), Some(1 | 2)) {
                let tags = snap.message_tags(id);
                if tags.iter().any(|t| t.raw() == p.tag as u64) {
                    count_other_tags(tags, p.tag as u64, &mut counts);
                }
            }
        }
    });
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{busy_person, fixture};

    fn params() -> Q6Params {
        // Anchor on the busy person's own primary interest: their circle is
        // interest-correlated (§2.3), so co-occurrences exist.
        let f = fixture();
        let person = busy_person(f);
        let tag = f.ds.persons[person.index()].interests[0].index();
        Q6Params { person, tag }
    }

    #[test]
    fn intended_and_naive_agree() {
        let f = fixture();
        let snap = f.store.pinned();
        let p = params();
        assert_eq!(run(&snap, Engine::Intended, &p), run(&snap, Engine::Naive, &p));
    }

    #[test]
    fn anchor_tag_is_not_its_own_co_occurrence() {
        let f = fixture();
        let snap = f.store.pinned();
        let p = params();
        let anchor = Dictionaries::global().tags.tag(p.tag).name.clone();
        for r in run(&snap, Engine::Intended, &p) {
            assert_ne!(r.tag, anchor);
            assert!(r.count > 0);
        }
    }

    #[test]
    fn ordering_and_limit() {
        let f = fixture();
        let snap = f.store.pinned();
        let rows = run(&snap, Engine::Intended, &params());
        assert!(rows.len() <= LIMIT);
        for w in rows.windows(2) {
            assert!(w[0].count > w[1].count || (w[0].count == w[1].count && w[0].tag <= w[1].tag));
        }
    }
}
