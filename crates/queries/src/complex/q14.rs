//! Q14 — "Weighted paths".
//!
//! Given two persons, find all shortest paths between them in the `knows`
//! subgraph, weighting each path by the message interactions along it: a
//! comment directly replying to a post contributes 1.0 for its (replier,
//! poster) pair; a comment replying to a comment contributes 0.5. Paths are
//! returned descending by weight.
//!
//! Intended plan: a BFS from X over the thread's scratch that stops as soon
//! as Y is marked. BFS completes a level before it expands the next, so at
//! that point every level below Y's is final, and the backward walk from Y
//! (along strictly decreasing levels) reads only those. The weights come
//! from one kernel, `edge_weights`: each distinct person on the paths
//! scans their own messages once, and each comment credits the edge to its
//! parent's author when that edge lies on a path. Weights are integer
//! half-units, so a shard's partial sums add up exactly.

use crate::engine::Engine;
use crate::params::Q14Params;
use crate::scratch::{with_scratch, QueryScratch};
use snb_core::{MessageId, PersonId};
use snb_obs::tick_neighbors_expanded;
use snb_store::PinnedSnapshot;
use std::cmp::Reverse;
use std::collections::HashMap;

/// Cap on the number of enumerated shortest paths: dense social graphs can
/// hold combinatorially many; the benchmark's intent (score paths by
/// interaction weight) is preserved under a deterministic cap.
const MAX_PATHS: usize = 1_000;

/// One weighted shortest path.
#[derive(Debug, Clone, PartialEq)]
pub struct Q14Row {
    /// Path from X to Y, inclusive.
    pub path: Vec<PersonId>,
    /// Total interaction weight.
    pub weight: f64,
}

/// Execute Q14.
pub fn run(snap: &PinnedSnapshot<'_>, engine: Engine, p: &Q14Params) -> Vec<Q14Row> {
    rank(counts(snap, engine, p))
        .into_iter()
        .map(|(halves, path)| Q14Row {
            path: path.into_iter().map(PersonId).collect(),
            weight: halves as f64 / 2.0,
        })
        .collect()
}

/// The shortest paths from X to Y, and the half-unit weight of every edge
/// on them sorted by edge (see [`edge_weights`]).
pub(crate) type Counts = (Vec<Vec<u64>>, Vec<((u64, u64), i64)>);

/// [`Counts`] on either engine: the engines differ in the BFS only, and
/// both weigh the paths with the one kernel.
pub(crate) fn counts(snap: &PinnedSnapshot<'_>, engine: Engine, p: &Q14Params) -> Counts {
    let paths = shortest_paths(snap, engine, p);
    let weights = edge_weights(snap, &paths);
    (paths, weights)
}

/// The store-free rank step: every path with its weight in half-units,
/// by weight descending, then path.
pub(crate) fn rank((paths, weights): Counts) -> Vec<(i64, Vec<u64>)> {
    let mut ranked: Vec<(Reverse<i64>, Vec<u64>)> = paths
        .into_iter()
        .map(|path| (Reverse(path.windows(2).map(|w| weight_of(&weights, w[0], w[1])).sum()), path))
        .collect();
    ranked.sort_unstable();
    ranked.into_iter().map(|(Reverse(halves), path)| (halves, path)).collect()
}

/// An undirected edge as its `(lower id, higher id)` endpoint pair.
fn edge(a: u64, b: u64) -> (u64, u64) {
    (a.min(b), a.max(b))
}

/// Interaction weight of every distinct edge on `paths`, in half-units (a
/// reply to a post is 2, a reply to a comment 1), sorted by edge. Each
/// distinct person on the paths scans their messages once; a comment
/// credits the edge to its parent's author when that edge is on a path.
/// Both endpoints of an edge are on the path, so the edge collects the
/// replies in both directions. A shard sees only the messages it owns, and
/// a comment lives with its parent, so per-shard weights add up to the
/// full-store weight.
fn edge_weights(snap: &PinnedSnapshot<'_>, paths: &[Vec<u64>]) -> Vec<((u64, u64), i64)> {
    let mut weights: Vec<((u64, u64), i64)> =
        paths.iter().flat_map(|p| p.windows(2)).map(|w| (edge(w[0], w[1]), 0)).collect();
    if weights.is_empty() {
        return weights;
    }
    weights.sort_unstable();
    weights.dedup();
    let mut persons: Vec<u64> = paths.iter().flatten().copied().collect();
    persons.sort_unstable();
    persons.dedup();
    for &a in &persons {
        for (msg, _) in snap.messages_of_iter(PersonId(a)) {
            let Some((parent, _)) = snap.message_meta(MessageId(msg)).and_then(|m| m.reply_info)
            else {
                continue;
            };
            let Some(pmeta) = snap.message_meta(parent) else { continue };
            let key = edge(a, pmeta.author.raw());
            if let Ok(i) = weights.binary_search_by_key(&key, |&(e, _)| e) {
                weights[i].1 += if pmeta.reply_info.is_none() { 2 } else { 1 };
            }
        }
    }
    weights
}

/// Weight of edge `a`–`b` in the sorted output of [`edge_weights`].
fn weight_of(weights: &[((u64, u64), i64)], a: u64, b: u64) -> i64 {
    let key = edge(a, b);
    weights.binary_search_by_key(&key, |&(e, _)| e).map_or(0, |i| weights[i].1)
}

/// All shortest paths from X to Y as raw id vectors (deterministic order,
/// capped at [`MAX_PATHS`]).
fn shortest_paths(snap: &PinnedSnapshot<'_>, engine: Engine, p: &Q14Params) -> Vec<Vec<u64>> {
    let y = p.person_y.raw();
    if p.person_x == p.person_y {
        return vec![vec![y]];
    }
    match engine {
        Engine::Intended => with_scratch(|sx| match bfs_until(snap, sx, p.person_x, p.person_y) {
            Some(d) => walk_back(snap, y, d, |v| sx.level_of(v)),
            None => Vec::new(),
        }),
        // Naive: the level-scan expansion over a whole-graph distance map.
        Engine::Naive => {
            let dist = level_scan_distances(snap, p.person_x);
            match dist.get(&y) {
                Some(&d) => walk_back(snap, y, d, |v| dist.get(&v).copied()),
                None => Vec::new(),
            }
        }
    }
}

/// Walk backwards from `y` (at distance `target_d`) along strictly
/// decreasing levels; `level` must be exact for every level below
/// `target_d`.
fn walk_back(
    snap: &PinnedSnapshot<'_>,
    y: u64,
    target_d: u32,
    level: impl Fn(u64) -> Option<u32>,
) -> Vec<Vec<u64>> {
    let mut paths = Vec::new();
    let mut stack = vec![(vec![y], target_d)];
    while let Some((mut path, d)) = stack.pop() {
        if paths.len() >= MAX_PATHS {
            break;
        }
        let head = *path.last().unwrap();
        if d == 0 {
            path.reverse();
            paths.push(path);
            continue;
        }
        let mut preds: Vec<u64> = snap
            .friends_iter(PersonId(head))
            .map(|(f, _)| f)
            .filter(|&f| level(f) == Some(d - 1))
            .collect();
        preds.sort_unstable();
        for pred in preds.into_iter().rev() {
            let mut next = path.clone();
            next.push(pred);
            stack.push((next, d - 1));
        }
    }
    paths
}

/// BFS from `x` over the scratch that stops as soon as `y` is marked;
/// returns `y`'s distance, or `None` when `y` is unreachable. When it
/// stops, every level below `y`'s is complete.
fn bfs_until(
    snap: &PinnedSnapshot<'_>,
    sx: &mut QueryScratch,
    x: PersonId,
    y: PersonId,
) -> Option<u32> {
    sx.begin(snap.person_slots());
    sx.mark(x.raw(), 0);
    let mut queue = std::mem::take(&mut sx.queue);
    queue.push_back((x.raw(), 0));
    let mut found = None;
    let mut expanded = 0u64;
    'bfs: while let Some((u, d)) = queue.pop_front() {
        for (v, _) in snap.friends_iter(PersonId(u)) {
            expanded += 1;
            if sx.mark(v, d + 1) {
                if v == y.raw() {
                    found = Some(d + 1);
                    break 'bfs;
                }
                queue.push_back((v, d + 1));
            }
        }
    }
    sx.queue = queue;
    tick_neighbors_expanded(expanded);
    found
}

fn level_scan_distances(snap: &PinnedSnapshot<'_>, start: PersonId) -> HashMap<u64, u32> {
    let mut dist = HashMap::from([(start.raw(), 0u32)]);
    let mut frontier: Vec<u64> = vec![start.raw()];
    let mut depth = 0;
    while !frontier.is_empty() {
        depth += 1;
        let mut next = Vec::new();
        for v in 0..snap.person_slots() as u64 {
            if dist.contains_key(&v) {
                continue;
            }
            if snap
                .friends_iter(PersonId(v))
                .any(|(f, _)| dist.get(&f) == Some(&(depth - 1)) && frontier.contains(&f))
            {
                dist.insert(v, depth);
                next.push(v);
            }
        }
        frontier = next;
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{busy_person, fixture};
    use snb_core::rng::{Rng, Stream};

    #[test]
    fn intended_and_naive_agree() {
        let f = fixture();
        let snap = f.store.pinned();
        let n = f.ds.persons.len() as u64;
        let mut rng = Rng::for_entity(21, Stream::Misc, 0);
        for _ in 0..8 {
            let p =
                Q14Params { person_x: PersonId(rng.below(n)), person_y: PersonId(rng.below(n)) };
            let a = run(&snap, Engine::Intended, &p);
            let b = run(&snap, Engine::Naive, &p);
            assert_eq!(a, b, "{p:?}");
        }
    }

    #[test]
    fn edge_weights_match_a_full_message_scan() {
        // Both engines share the weight kernel, so check it against an
        // independent recount over every message in the store.
        let f = fixture();
        let snap = f.store.pinned();
        let n = f.ds.persons.len() as u64;
        let mut weighed = 0;
        for raw in (0..n).step_by(11) {
            let p = Q14Params { person_x: PersonId(raw), person_y: PersonId(n - 1 - raw) };
            let paths = shortest_paths(&snap, Engine::Intended, &p);
            let got = edge_weights(&snap, &paths);
            let mut expect: Vec<((u64, u64), i64)> = got.iter().map(|&(e, _)| (e, 0)).collect();
            for m in 0..snap.message_slots() as u64 {
                let Some(meta) = snap.message_meta(MessageId(m)) else { continue };
                let Some((parent, _)) = meta.reply_info else { continue };
                let pmeta = snap.message_meta(parent).unwrap();
                let e = edge(meta.author.raw(), pmeta.author.raw());
                if let Some(slot) = expect.iter_mut().find(|(k, _)| *k == e) {
                    slot.1 += if pmeta.reply_info.is_none() { 2 } else { 1 };
                }
            }
            assert_eq!(got, expect, "{p:?}");
            weighed += got.iter().filter(|&&(_, w)| w > 0).count();
        }
        assert!(weighed > 0, "some path edge carries interactions");
    }

    #[test]
    fn paths_have_uniform_shortest_length() {
        let f = fixture();
        let snap = f.store.pinned();
        let x = busy_person(f);
        // Find someone at distance 2: a friend-of-friend.
        let two = crate::scratch::with_scratch(|sx| {
            crate::helpers::load_two_hop(&snap, sx, x);
            sx.two.clone()
        });
        if let Some(&fof) = two.first() {
            let p = Q14Params { person_x: x, person_y: PersonId(fof) };
            let rows = run(&snap, Engine::Intended, &p);
            assert!(!rows.is_empty());
            for r in &rows {
                assert_eq!(r.path.len(), 3, "distance-2 paths have 3 nodes");
                assert_eq!(r.path[0], x);
                assert_eq!(*r.path.last().unwrap(), PersonId(fof));
                // Consecutive nodes really are friends.
                for w in r.path.windows(2) {
                    assert!(snap.are_friends(w[0], w[1]));
                }
            }
        }
    }

    #[test]
    fn weights_sort_descending() {
        let f = fixture();
        let snap = f.store.pinned();
        let x = busy_person(f);
        let two = crate::scratch::with_scratch(|sx| {
            crate::helpers::load_two_hop(&snap, sx, x);
            sx.two.clone()
        });
        if let Some(&fof) = two.first() {
            let rows =
                run(&snap, Engine::Intended, &Q14Params { person_x: x, person_y: PersonId(fof) });
            for w in rows.windows(2) {
                assert!(w[0].weight >= w[1].weight);
            }
        }
    }

    #[test]
    fn identical_endpoints_yield_trivial_path() {
        let f = fixture();
        let snap = f.store.pinned();
        let x = busy_person(f);
        let rows = run(&snap, Engine::Intended, &Q14Params { person_x: x, person_y: x });
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].path, vec![x]);
        assert_eq!(rows[0].weight, 0.0);
    }

    #[test]
    fn comment_to_post_weighs_double() {
        // Unit-level check of the weight rule on a crafted store.
        use snb_core::dict::names::Gender;
        use snb_core::schema::*;
        use snb_core::time::SimTime;
        use snb_core::update::UpdateOp;
        let s = snb_store::Store::new();
        let person = |id: u64| Person {
            id: PersonId(id),
            first_name: "Karl",
            last_name: "Muller",
            gender: Gender::Male,
            birthday: SimTime(0),
            creation_date: SimTime(1),
            city: 0,
            country: 0,
            browser: "Chrome",
            location_ip: String::new(),
            languages: vec!["de"],
            emails: vec![],
            interests: vec![],
            study_at: None,
            work_at: vec![],
        };
        for id in 0..2 {
            s.apply(&UpdateOp::AddPerson(person(id))).unwrap();
        }
        s.apply(&UpdateOp::AddFriendship(Knows {
            a: PersonId(0),
            b: PersonId(1),
            creation_date: SimTime(2),
        }))
        .unwrap();
        s.apply(&UpdateOp::AddForum(Forum {
            id: snb_core::ForumId(0),
            title: "w".into(),
            moderator: PersonId(0),
            creation_date: SimTime(2),
            tags: vec![],
            kind: ForumKind::Wall,
        }))
        .unwrap();
        s.apply(&UpdateOp::AddPost(Post {
            id: MessageId(0),
            author: PersonId(0),
            forum: snb_core::ForumId(0),
            creation_date: SimTime(3),
            content: "post".into(),
            image_file: None,
            tags: vec![],
            language: "de",
            country: 0,
        }))
        .unwrap();
        // 1 comments on 0's post (weight 1.0), then 0 comments on that
        // comment (weight 0.5).
        let comment = |id: u64, author: u64, parent: u64, t: i64| Comment {
            id: MessageId(id),
            author: PersonId(author),
            creation_date: SimTime(t),
            content: "re".into(),
            reply_to: MessageId(parent),
            root_post: MessageId(0),
            forum: snb_core::ForumId(0),
            tags: vec![],
            country: 0,
        };
        s.apply(&UpdateOp::AddComment(comment(1, 1, 0, 4))).unwrap();
        s.apply(&UpdateOp::AddComment(comment(2, 0, 1, 5))).unwrap();
        let snap = s.pinned();
        let rows = run(
            &snap,
            Engine::Intended,
            &Q14Params { person_x: PersonId(0), person_y: PersonId(1) },
        );
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].weight, 1.5);
    }
}
