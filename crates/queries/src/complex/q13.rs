//! Q13 — "Single shortest path".
//!
//! Given two persons, find the length of the shortest path between them in
//! the subgraph induced by the `knows` relationship; −1 if unreachable.

use crate::engine::Engine;
use crate::params::Q13Params;
use crate::scratch::with_scratch;
use snb_core::PersonId;
use snb_store::PinnedSnapshot;
use std::collections::HashSet;
#[cfg(test)]
use std::collections::{HashMap, VecDeque};

/// Level tag of the search grown from Y: both searches share one scratch,
/// X-side levels are plain depths and Y-side levels carry this bit.
const FROM_Y: u32 = 1 << 31;

/// Execute Q13; returns the path length, 0 for identical endpoints, or −1.
pub fn run(snap: &PinnedSnapshot<'_>, engine: Engine, p: &Q13Params) -> i32 {
    if p.person_x == p.person_y {
        return 0;
    }
    match engine {
        Engine::Intended => bidirectional_bfs(snap, p),
        Engine::Naive => level_scan_bfs(snap, p),
    }
}

/// Intended: bidirectional BFS — expand the smaller frontier each round;
/// meets in the middle with O(b^(d/2)) work instead of O(b^d). Both sides
/// mark the thread's scratch, told apart by [`FROM_Y`].
fn bidirectional_bfs(snap: &PinnedSnapshot<'_>, p: &Q13Params) -> i32 {
    with_scratch(|sx| {
        sx.begin(snap.person_slots());
        sx.mark(p.person_x.raw(), 0);
        sx.mark(p.person_y.raw(), FROM_Y);
        let mut frontier_x = vec![p.person_x.raw()];
        let mut frontier_y = vec![p.person_y.raw()];
        let mut depth_x = 0u32;
        let mut depth_y = 0u32;

        while !frontier_x.is_empty() && !frontier_y.is_empty() {
            // Expand the smaller side.
            let (frontier, side, depth) = if frontier_x.len() <= frontier_y.len() {
                (&mut frontier_x, 0, &mut depth_x)
            } else {
                (&mut frontier_y, FROM_Y, &mut depth_y)
            };
            *depth += 1;
            let mut next = Vec::new();
            let mut best: Option<u32> = None;
            for &u in frontier.iter() {
                for (v, _) in snap.friends_iter(PersonId(u)) {
                    match sx.level_of(v) {
                        Some(l) if l & FROM_Y != side => {
                            let total = *depth + (l & !FROM_Y);
                            best = Some(best.map_or(total, |b| b.min(total)));
                        }
                        Some(_) => {}
                        None => {
                            sx.mark(v, *depth | side);
                            next.push(v);
                        }
                    }
                }
            }
            if let Some(b) = best {
                return b as i32;
            }
            *frontier = next;
        }
        -1
    })
}

/// Naive: unidirectional BFS where each level re-scans the whole person
/// table probing adjacency toward the frontier.
fn level_scan_bfs(snap: &PinnedSnapshot<'_>, p: &Q13Params) -> i32 {
    let mut seen: HashSet<u64> = HashSet::from([p.person_x.raw()]);
    let mut frontier: HashSet<u64> = HashSet::from([p.person_x.raw()]);
    let mut depth = 0;
    while !frontier.is_empty() {
        depth += 1;
        let mut next = HashSet::new();
        for v in 0..snap.person_slots() as u64 {
            if seen.contains(&v) {
                continue;
            }
            if snap.friends_iter(PersonId(v)).any(|(f, _)| frontier.contains(&f)) {
                if v == p.person_y.raw() {
                    return depth;
                }
                next.insert(v);
            }
        }
        seen.extend(next.iter().copied());
        frontier = next;
    }
    -1
}

/// Reference BFS used by tests (plain queue-based).
#[cfg(test)]
fn plain_bfs(snap: &PinnedSnapshot<'_>, x: PersonId, y: PersonId) -> i32 {
    let mut dist: HashMap<u64, i32> = HashMap::from([(x.raw(), 0)]);
    let mut q = VecDeque::from([x.raw()]);
    while let Some(u) = q.pop_front() {
        let d = dist[&u];
        for (v, _) in snap.friends_iter(PersonId(u)) {
            if v == y.raw() {
                return d + 1;
            }
            if let std::collections::hash_map::Entry::Vacant(e) = dist.entry(v) {
                e.insert(d + 1);
                q.push_back(v);
            }
        }
    }
    -1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{busy_person, fixture};
    use snb_core::rng::{Rng, Stream};

    #[test]
    fn engines_agree_with_reference_on_random_pairs() {
        let f = fixture();
        let snap = f.store.pinned();
        let n = f.ds.persons.len() as u64;
        let mut rng = Rng::for_entity(11, Stream::Misc, 0);
        for _ in 0..25 {
            let p =
                Q13Params { person_x: PersonId(rng.below(n)), person_y: PersonId(rng.below(n)) };
            let reference = plain_bfs(&snap, p.person_x, p.person_y);
            assert_eq!(run(&snap, Engine::Intended, &p), reference, "{p:?}");
            assert_eq!(run(&snap, Engine::Naive, &p), reference, "{p:?}");
        }
    }

    #[test]
    fn identical_endpoints_are_distance_zero() {
        let f = fixture();
        let snap = f.store.pinned();
        let x = busy_person(f);
        let p = Q13Params { person_x: x, person_y: x };
        assert_eq!(run(&snap, Engine::Intended, &p), 0);
    }

    #[test]
    fn direct_friends_are_distance_one() {
        let f = fixture();
        let snap = f.store.pinned();
        let x = busy_person(f);
        let (friend, _) = snap.friends_iter(x).next().unwrap();
        let p = Q13Params { person_x: x, person_y: PersonId(friend) };
        assert_eq!(run(&snap, Engine::Intended, &p), 1);
        assert_eq!(run(&snap, Engine::Naive, &p), 1);
    }

    #[test]
    fn unreachable_returns_minus_one() {
        let f = fixture();
        let snap = f.store.pinned();
        if let Some(loner) =
            f.ds.persons.iter().map(|p| p.id).find(|&id| snap.friends_iter(id).next().is_none())
        {
            let p = Q13Params { person_x: busy_person(f), person_y: loner };
            assert_eq!(run(&snap, Engine::Intended, &p), -1);
            assert_eq!(run(&snap, Engine::Naive, &p), -1);
        }
    }
}
