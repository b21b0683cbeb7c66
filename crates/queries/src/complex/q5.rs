//! Q5 — "New groups".
//!
//! Given a start person, find the top-20 forums that the friends and
//! friends-of-friends joined after a given date, sorted descending by the
//! number of posts in each forum created by any of those persons (then
//! ascending by forum id). This is the query the paper uses to motivate
//! parameter curation (Fig. 5): its cost tracks the highly variable size of
//! the 2-hop environment. The intended plan is shown in Fig. 6a.
//!
//! Intended plan: the count is driven from the person side. For each 2-hop
//! candidate, a date-range scan of their join index gives the few forums
//! they joined after `min_date`; when there are any, one scan of the
//! candidate's own posts counts each post whose forum is in that set. The
//! set is a dense per-forum stamp in the scratch: stamping the joined
//! forums with the candidate's number makes membership one array probe
//! per post, with no sort and no search. Counts live in the scratch's
//! dense per-forum counters, and a forum that was joined but got no posts
//! still yields a count-0 row. Ranking selects the top 20 forum ids and
//! sorts only those; only the returned rows fetch their title.

use crate::engine::Engine;
use crate::helpers::load_two_hop;
use crate::params::Q5Params;
use crate::scratch::with_scratch;
use snb_core::{ForumId, MessageId, PersonId};
use snb_store::PinnedSnapshot;
use std::cmp::Reverse;
use std::collections::{HashMap, HashSet};

/// Result limit.
pub(crate) const LIMIT: usize = 20;

/// One result row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Q5Row {
    /// The forum.
    pub forum: ForumId,
    /// Forum title.
    pub title: String,
    /// Posts by recently joined 2-hop members.
    pub count: u32,
}

/// Execute Q5.
pub fn run(snap: &PinnedSnapshot<'_>, engine: Engine, p: &Q5Params) -> Vec<Q5Row> {
    let counts = match engine {
        Engine::Intended => intended(snap, p),
        Engine::Naive => naive(snap, p).into_iter().collect(),
    };
    let mut ranked: Vec<(Reverse<u32>, u64)> =
        counts.into_iter().map(|(forum, count)| (Reverse(count), forum)).collect();
    if ranked.len() > LIMIT {
        ranked.select_nth_unstable(LIMIT);
        ranked.truncate(LIMIT);
    }
    ranked.sort_unstable();
    ranked
        .into_iter()
        .filter_map(|(Reverse(count), forum)| {
            let f = snap.forum_ref(ForumId(forum))?;
            Some(Q5Row { forum: ForumId(forum), title: f.title.clone(), count })
        })
        .take(LIMIT)
        .collect()
}

/// Intended plan (Fig. 6a, driven from the joiners): person → friends →
/// friends-of-friends; per candidate, the forums joined after `min_date`
/// and then the candidate's own posts in those forums. Returns one
/// `(forum, count)` per forum any candidate joined.
fn intended(snap: &PinnedSnapshot<'_>, p: &Q5Params) -> Vec<(u64, u32)> {
    with_scratch(|sx| {
        load_two_hop(snap, sx, p.person);
        // `counts[f]` is 0 while forum `f` has no row, else 1 + its count.
        let mut counts = std::mem::take(&mut sx.forum_counts);
        let mut joined = std::mem::take(&mut sx.forum_set);
        let mut touched: Vec<u64> = Vec::new();
        for &c in sx.one.iter().chain(sx.two.iter()) {
            joined.clear();
            let mut joined_any = false;
            for (f, _) in snap.forums_of_after_iter(PersonId(c), p.min_date) {
                let f = f as usize;
                if f >= counts.len() {
                    counts.resize(f + 1, 0);
                }
                joined.insert(f);
                joined_any = true;
                if counts[f] == 0 {
                    counts[f] = 1;
                    touched.push(f as u64);
                }
            }
            if !joined_any {
                continue;
            }
            for (post, _) in snap.posts_of_iter(PersonId(c)) {
                let Some(meta) = snap.message_meta(MessageId(post)) else { continue };
                let forum = meta.forum.index();
                if joined.contains(forum) {
                    counts[forum] += 1;
                }
            }
        }
        let out = touched
            .into_iter()
            .map(|f| {
                let n = std::mem::take(&mut counts[f as usize]) - 1;
                (f, n)
            })
            .collect();
        sx.forum_counts = counts;
        sx.forum_set = joined;
        out
    })
}

/// Naive plan: scan all forums' member lists, then a full message scan.
fn naive(snap: &PinnedSnapshot<'_>, p: &Q5Params) -> HashMap<u64, u32> {
    let mut joiners: HashMap<u64, HashSet<u64>> = HashMap::new();
    with_scratch(|sx| {
        load_two_hop(snap, sx, p.person);
        for forum in 0..snap.forum_slots() as u64 {
            for (member, join) in snap.members_of_iter(ForumId(forum)) {
                // Probe the scratch levels directly (1 = friend, 2 = FoF)
                // instead of copying the circle into a hash set.
                if join > p.min_date && matches!(sx.level_of(member), Some(1 | 2)) {
                    joiners.entry(forum).or_default().insert(member);
                }
            }
        }
    });
    let mut counts: HashMap<u64, u32> = joiners.keys().map(|&f| (f, 0)).collect();
    for m in 0..snap.message_slots() as u64 {
        let Some(meta) = snap.message_meta(MessageId(m)) else { continue };
        if meta.reply_info.is_some() {
            continue;
        }
        if let Some(who) = joiners.get(&meta.forum.raw()) {
            if who.contains(&meta.author.raw()) {
                *counts.get_mut(&meta.forum.raw()).unwrap() += 1;
            }
        }
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{busy_person, fixture};
    use snb_core::SimTime;

    fn params() -> Q5Params {
        Q5Params { person: busy_person(fixture()), min_date: SimTime::from_ymd(2011, 1, 1) }
    }

    #[test]
    fn intended_and_naive_agree() {
        let f = fixture();
        let snap = f.store.pinned();
        let p = params();
        assert_eq!(run(&snap, Engine::Intended, &p), run(&snap, Engine::Naive, &p));
    }

    #[test]
    fn busy_person_sees_new_groups() {
        let f = fixture();
        let snap = f.store.pinned();
        let rows = run(&snap, Engine::Intended, &params());
        assert!(!rows.is_empty());
        for w in rows.windows(2) {
            assert!(
                w[0].count > w[1].count || (w[0].count == w[1].count && w[0].forum < w[1].forum)
            );
        }
    }

    #[test]
    fn late_date_shrinks_results() {
        let f = fixture();
        let snap = f.store.pinned();
        let person = busy_person(f);
        let early = run(
            &snap,
            Engine::Intended,
            &Q5Params { person, min_date: SimTime::from_ymd(2010, 1, 1) },
        );
        let late = run(
            &snap,
            Engine::Intended,
            &Q5Params { person, min_date: SimTime::from_ymd(2012, 12, 20) },
        );
        // With an early cutoff every join qualifies; with a very late one
        // almost none do.
        assert!(early.len() >= late.len());
    }

    #[test]
    fn counted_posts_are_by_recent_joiners() {
        let f = fixture();
        let snap = f.store.pinned();
        let p = params();
        let counts = intended(&snap, &p);
        // Spot-check one forum against a recount from raw data.
        if let Some(&(forum, count)) = counts.iter().max_by_key(|&&(_, c)| c) {
            let circle: HashSet<u64> = with_scratch(|sx| {
                load_two_hop(&snap, sx, p.person);
                sx.one.iter().chain(sx.two.iter()).copied().collect()
            });
            let joined_after: HashSet<u64> = snap
                .members_of_iter(ForumId(forum))
                .filter(|&(m, join)| join > p.min_date && circle.contains(&m))
                .map(|(m, _)| m)
                .collect();
            let recount = snap
                .posts_in_forum_iter(ForumId(forum))
                .filter(|&(post, _)| {
                    snap.message_meta(MessageId(post))
                        .is_some_and(|meta| joined_after.contains(&meta.author.raw()))
                })
                .count() as u32;
            assert_eq!(count, recount);
        }
    }

    #[test]
    fn forum_counters_are_zero_between_queries() {
        let f = fixture();
        let snap = f.store.pinned();
        let counts = intended(&snap, &params());
        assert!(!counts.is_empty());
        with_scratch(|sx| assert!(sx.forum_counts.iter().all(|&n| n == 0)));
        // A second run over the reused counters sees the same numbers.
        assert_eq!(intended(&snap, &params()), counts);
    }
}
