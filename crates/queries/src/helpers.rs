//! Shared traversal and top-k helpers.
//!
//! Traversals run over a [`PinnedSnapshot`]'s lazy borrowing iterators
//! and mark visited persons in the caller's [`QueryScratch`] (dense
//! epoch-stamped map) instead of building per-query hash sets. They tick
//! the current [`snb_obs::QueryProfile`] scope (neighbors expanded), so
//! every query built on them reports operator counts without per-query
//! instrumentation.

use crate::scratch::QueryScratch;
use snb_core::dict::Dictionaries;
use snb_core::PersonId;
use snb_obs::{tick_neighbors_expanded, tick_rows_scanned};
use snb_store::PinnedSnapshot;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Load the direct friends of `p` into `sx.one`, marking `p` at level 0
/// and each friend at level 1 in the visited map. Probe membership with
/// `sx.is_marked` / `sx.level_of` afterwards.
pub fn load_friends(snap: &PinnedSnapshot<'_>, sx: &mut QueryScratch, p: PersonId) {
    sx.begin(snap.person_slots());
    sx.mark(p.raw(), 0);
    for (f, _) in snap.friends_iter(p) {
        if sx.mark(f, 1) {
            sx.one.push(f);
        }
    }
    tick_neighbors_expanded(sx.one.len() as u64);
}

/// Load friends (level 1, `sx.one`) and friends-of-friends excluding `p`
/// and its friends (level 2, `sx.two`) into the scratch.
pub fn load_two_hop(snap: &PinnedSnapshot<'_>, sx: &mut QueryScratch, p: PersonId) {
    load_friends(snap, sx, p);
    let mut expanded = 0u64;
    for i in 0..sx.one.len() {
        let f = sx.one[i];
        for (ff, _) in snap.friends_iter(PersonId(f)) {
            expanded += 1;
            if sx.mark(ff, 2) {
                sx.two.push(ff);
            }
        }
    }
    tick_neighbors_expanded(expanded);
}

/// The top `limit` of `(tag, count)` pairs by count descending, then tag
/// name: Q4's and Q6's result order. Names come from the embedded
/// dictionary, so the ranking needs no store.
pub(crate) fn rank_tags(
    counts: impl IntoIterator<Item = (u64, u32)>,
    limit: usize,
) -> Vec<(u64, u32)> {
    let tags = &Dictionaries::global().tags;
    let mut ranked: Vec<(Reverse<u32>, &str, u64)> = counts
        .into_iter()
        .map(|(tag, count)| (Reverse(count), tags.tag(tag as usize).name.as_str(), tag))
        .collect();
    ranked.sort_unstable();
    ranked.truncate(limit);
    ranked.into_iter().map(|(Reverse(count), _, tag)| (tag, count)).collect()
}

/// Bounded top-k collector over a key `K`: keeps the k *smallest* keys.
/// Encode "descending by date, ascending by id" orderings by key choice,
/// e.g. `(Reverse(date), id)`.
#[derive(Debug)]
pub struct TopK<K: Ord, V> {
    k: usize,
    heap: BinaryHeap<KeyedEntry<K, V>>,
}

#[derive(Debug)]
struct KeyedEntry<K: Ord, V>(K, V);

impl<K: Ord, V> PartialEq for KeyedEntry<K, V> {
    fn eq(&self, other: &Self) -> bool {
        self.0 == other.0
    }
}
impl<K: Ord, V> Eq for KeyedEntry<K, V> {}
impl<K: Ord, V> PartialOrd for KeyedEntry<K, V> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<K: Ord, V> Ord for KeyedEntry<K, V> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.cmp(&other.0)
    }
}

impl<K: Ord, V> TopK<K, V> {
    /// New collector for the `k` smallest keys.
    pub fn new(k: usize) -> TopK<K, V> {
        TopK { k, heap: BinaryHeap::with_capacity(k + 1) }
    }

    /// Offer an item.
    pub fn push(&mut self, key: K, value: V) {
        tick_rows_scanned(1);
        if self.heap.len() < self.k {
            self.heap.push(KeyedEntry(key, value));
        } else if let Some(top) = self.heap.peek() {
            if key < top.0 {
                self.heap.pop();
                self.heap.push(KeyedEntry(key, value));
            }
        }
    }

    /// Current threshold: the largest retained key, if the collector is
    /// full. Scans over key-ordered inputs can stop once their next key
    /// exceeds this.
    pub fn threshold(&self) -> Option<&K> {
        (self.heap.len() == self.k).then(|| &self.heap.peek().unwrap().0)
    }

    /// Whether `key` would be accepted right now. Strict `<`: a key tied
    /// with the current threshold is rejected — first-come-wins on equal
    /// keys, which keeps threshold-based early exits exact.
    pub fn would_accept(&self, key: &K) -> bool {
        self.heap.len() < self.k || *key < self.heap.peek().unwrap().0
    }

    /// Finish: items in ascending key order.
    pub fn into_sorted(self) -> Vec<(K, V)> {
        let mut v: Vec<(K, V)> = self.heap.into_iter().map(|e| (e.0, e.1)).collect();
        v.sort_by(|a, b| a.0.cmp(&b.0));
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topk_keeps_k_smallest_in_order() {
        let mut t = TopK::new(3);
        for x in [5, 1, 9, 3, 7, 2] {
            t.push(x, x * 10);
        }
        let got: Vec<i32> = t.into_sorted().into_iter().map(|(k, _)| k).collect();
        assert_eq!(got, vec![1, 2, 3]);
    }

    #[test]
    fn topk_reverse_key_gives_most_recent_first() {
        // Typical usage: key (Reverse(date), id) → newest first, id tiebreak.
        let mut t = TopK::new(2);
        for (date, id) in [(10, 1), (30, 2), (20, 3), (30, 1)] {
            t.push((Reverse(date), id), ());
        }
        let got: Vec<(i32, i32)> =
            t.into_sorted().into_iter().map(|((Reverse(d), i), _)| (d, i)).collect();
        assert_eq!(got, vec![(30, 1), (30, 2)]);
    }

    #[test]
    fn topk_threshold_enables_early_exit() {
        let mut t = TopK::new(2);
        t.push(5, ());
        assert!(t.threshold().is_none());
        t.push(3, ());
        assert_eq!(t.threshold(), Some(&5));
        assert!(t.would_accept(&4));
        assert!(!t.would_accept(&6));
    }

    #[test]
    fn topk_rejects_key_tied_with_threshold() {
        let mut t = TopK::new(2);
        t.push(3, "a");
        t.push(5, "b");
        // Full, threshold = 5. A tied key must be rejected (strict `<`) …
        assert!(!t.would_accept(&5));
        t.push(5, "c");
        let got: Vec<(i32, &str)> = t.into_sorted();
        assert_eq!(got, vec![(3, "a"), (5, "b")], "first-come-wins on equal keys");
        // … and while not full, ties are accepted freely.
        let mut u = TopK::new(3);
        u.push(7, "x");
        assert!(u.would_accept(&7));
        u.push(7, "y");
        assert_eq!(u.into_sorted().len(), 2);
    }

    #[test]
    fn threshold_early_exit_matches_exhaustive_scan_on_date_ordered_input() {
        // A date-descending scan (the store's recent-first walk order) may
        // stop at the first key would_accept rejects: later keys are only
        // larger. Verify the early-exit result equals the exhaustive one.
        let scan: Vec<(i64, u64)> = (0..200).map(|i| (1_000 - (i / 2), i as u64)).collect(); // dates descending, with ties
        let k = 10;

        let mut exhaustive = TopK::new(k);
        for &(date, id) in &scan {
            exhaustive.push((Reverse(date), id), ());
        }

        let mut early = TopK::new(k);
        let mut scanned = 0usize;
        for &(date, id) in &scan {
            let key = (Reverse(date), id);
            if !early.would_accept(&key) {
                break;
            }
            scanned += 1;
            early.push(key, ());
        }

        assert_eq!(early.into_sorted(), exhaustive.into_sorted());
        assert!(scanned < scan.len(), "early exit must actually cut the scan short");
    }
}
