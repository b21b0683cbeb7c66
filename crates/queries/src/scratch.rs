//! Per-thread reusable query workspace.
//!
//! Traversal-heavy queries used to allocate a fresh `HashSet`/`HashMap`
//! per execution for visited tracking — pure allocator churn plus hashing
//! on every probe. Persons are dense in the id space (the store's tables
//! are id-indexed vectors), so a dense epoch-stamped visited map does the
//! same job with O(1) clears and index-arithmetic probes, and it can be
//! kept alive across queries in a thread-local and reused.
//!
//! [`with_scratch`] hands the current thread's workspace to a closure —
//! the standard shape for every query entry point. Reuses are ticked into
//! the current [`snb_obs::QueryProfile`] scope (`scratch_reuses`), so full
//! disclosure shows how often the workspace was warm.

use snb_obs::tick_scratch_reuses;
use std::cell::RefCell;
use std::collections::VecDeque;

/// Reusable dense visited map plus traversal buffers.
///
/// The visited map is epoch-stamped: slot `i` is marked iff
/// `stamp[i] == epoch`, so [`QueryScratch::begin`] clears it by bumping
/// the epoch instead of touching memory. A marked slot also records its
/// hop level (0 = the anchor person, 1 = friend, 2 = friend-of-friend, …),
/// which is what lets queries probe "one-hop or two-hop?" without copying
/// the two frontiers into a merged set. Levels are `u32`, so an unbounded
/// BFS (Q13, Q14) keeps exact distances on paths of any length.
#[derive(Debug, Default)]
pub struct QueryScratch {
    stamp: Vec<u32>,
    level: Vec<u32>,
    epoch: u32,
    /// Direct friends of the anchor (filled by the `load_*` helpers).
    pub one: Vec<u64>,
    /// Friends-of-friends, excluding friends and the anchor.
    pub two: Vec<u64>,
    /// BFS queue carrying `(person, depth)` — depth rides in the entry so
    /// no distance-map lookup is needed per pop.
    pub(crate) queue: VecDeque<(u64, u32)>,
    /// Dense per-forum counters indexed by forum id (Q5). All zero between
    /// queries: the user resets every slot it touched before returning, so
    /// `begin` leaves them alone.
    pub(crate) forum_counts: Vec<u32>,
    /// Dense per-forum set (Q5: the forums one candidate joined).
    pub(crate) forum_set: ForumSet,
    used: bool,
}

impl QueryScratch {
    pub fn new() -> QueryScratch {
        QueryScratch::default()
    }

    /// Start a new query over a person id space of `slots`: clears the
    /// visited map (epoch bump) and the frontier buffers.
    pub fn begin(&mut self, slots: usize) {
        if self.stamp.len() < slots {
            self.stamp.resize(slots, 0);
            self.level.resize(slots, 0);
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // u32 wraparound: stale stamps could collide; hard-clear once
            // every 4 billion queries.
            self.stamp.fill(0);
            self.epoch = 1;
        }
        self.one.clear();
        self.two.clear();
        self.queue.clear();
    }

    /// Mark `id` at `level`; returns true when it was not yet marked this
    /// epoch (ids outside the `begin` bound are reported as already seen).
    #[inline]
    pub fn mark(&mut self, id: u64, level: u32) -> bool {
        let Some(slot) = self.stamp.get_mut(id as usize) else {
            return false;
        };
        if *slot == self.epoch {
            return false;
        }
        *slot = self.epoch;
        self.level[id as usize] = level;
        true
    }

    /// Whether `id` was marked this epoch.
    #[inline]
    pub fn is_marked(&self, id: u64) -> bool {
        self.stamp.get(id as usize).is_some_and(|&s| s == self.epoch)
    }

    /// Hop level of `id`, if marked this epoch.
    #[inline]
    pub fn level_of(&self, id: u64) -> Option<u32> {
        self.is_marked(id).then(|| self.level[id as usize])
    }
}

/// A set of forum ids stamped into a dense array: forum `f` is in the set
/// iff `stamp[f]` equals the current epoch, so [`ForumSet::clear`] is an
/// epoch bump and membership is one array probe — no sort, no search.
#[derive(Debug, Default)]
pub(crate) struct ForumSet {
    stamp: Vec<u32>,
    epoch: u32,
}

impl ForumSet {
    /// Empty the set (call before the first use too: epoch 0 is never
    /// current).
    pub(crate) fn clear(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // u32 wraparound, as in `QueryScratch::begin`.
            self.stamp.fill(0);
            self.epoch = 1;
        }
    }

    /// Add forum index `f`.
    #[inline]
    pub(crate) fn insert(&mut self, f: usize) {
        if f >= self.stamp.len() {
            self.stamp.resize(f + 1, 0);
        }
        self.stamp[f] = self.epoch;
    }

    /// Whether forum index `f` is in the set.
    #[inline]
    pub(crate) fn contains(&self, f: usize) -> bool {
        self.stamp.get(f) == Some(&self.epoch)
    }
}

thread_local! {
    static SCRATCH: RefCell<QueryScratch> = RefCell::new(QueryScratch::new());
}

/// Run `f` with this thread's [`QueryScratch`]. Reuse (any call after the
/// thread's first) ticks `scratch_reuses` in the current profile scope.
/// Re-entrant calls fall back to a fresh workspace instead of panicking,
/// so helpers stay composable.
pub fn with_scratch<R>(f: impl FnOnce(&mut QueryScratch) -> R) -> R {
    SCRATCH.with(|cell| match cell.try_borrow_mut() {
        Ok(mut sx) => {
            if sx.used {
                tick_scratch_reuses(1);
            }
            sx.used = true;
            f(&mut sx)
        }
        Err(_) => f(&mut QueryScratch::new()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn begin_clears_marks_in_constant_time() {
        let mut sx = QueryScratch::new();
        sx.begin(8);
        assert!(sx.mark(3, 1));
        assert!(!sx.mark(3, 2), "re-mark must report already-seen");
        assert!(sx.is_marked(3));
        assert_eq!(sx.level_of(3), Some(1), "first mark's level wins");
        sx.begin(8);
        assert!(!sx.is_marked(3), "epoch bump clears the map");
        assert_eq!(sx.level_of(3), None);
    }

    #[test]
    fn forum_set_clears_by_epoch() {
        let mut set = ForumSet::default();
        set.clear();
        assert!(!set.contains(0), "a fresh slot is not in the set");
        set.insert(5);
        assert!(set.contains(5));
        assert!(!set.contains(4) && !set.contains(99));
        set.clear();
        assert!(!set.contains(5), "clear empties the set");
    }

    #[test]
    fn out_of_range_ids_are_never_marked() {
        let mut sx = QueryScratch::new();
        sx.begin(4);
        assert!(!sx.mark(9, 1));
        assert!(!sx.is_marked(9));
    }

    #[test]
    fn scratch_is_reused_across_queries() {
        let profile = std::sync::Arc::new(snb_obs::QueryProfile::new());
        let _guard = snb_obs::QueryProfile::enter(std::sync::Arc::clone(&profile));
        with_scratch(|sx| sx.begin(4));
        with_scratch(|sx| sx.begin(4));
        // At least the second call reuses (the first may too if another
        // test on this thread warmed the workspace).
        assert!(profile.snapshot().scratch_reuses >= 1);
    }

    #[test]
    fn nested_with_scratch_falls_back_to_fresh() {
        with_scratch(|outer| {
            outer.begin(4);
            outer.mark(1, 1);
            with_scratch(|inner| {
                inner.begin(4);
                assert!(!inner.is_marked(1), "nested scope must not alias the outer workspace");
            });
            assert!(outer.is_marked(1));
        });
    }
}
