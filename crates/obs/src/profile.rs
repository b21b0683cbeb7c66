//! Per-query operator profiles and the thread-local profiling scope.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Operator-level work counts for one query kind (or one execution).
///
/// Query implementations and the store accessors beneath them tick the
/// *current* profile through the free functions ([`tick_rows_scanned`]
/// etc.), which resolve a thread-local scope installed by
/// [`QueryProfile::enter`]. Deep helpers therefore need no extra
/// parameters, and code running outside any scope ticks a no-op.
#[derive(Default, Debug)]
pub struct QueryProfile {
    /// Index/table entries inspected (including filtered-out ones).
    pub rows_scanned: AtomicU64,
    /// Point lookups into a keyed index or table.
    pub index_probes: AtomicU64,
    /// Adjacency-list neighbors expanded during traversals.
    pub neighbors_expanded: AtomicU64,
    /// MVCC version entries walked during visibility checks.
    pub versions_walked: AtomicU64,
    /// Rows in final result sets.
    pub result_rows: AtomicU64,
    /// Times a query reused this thread's `QueryScratch`-style workspace
    /// instead of allocating fresh visited/frontier structures.
    pub scratch_reuses: AtomicU64,
}

/// A plain-value copy of a [`QueryProfile`], for reporting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProfileSnapshot {
    pub rows_scanned: u64,
    pub index_probes: u64,
    pub neighbors_expanded: u64,
    pub versions_walked: u64,
    pub result_rows: u64,
    pub scratch_reuses: u64,
}

impl ProfileSnapshot {
    /// Field names and values, in export order.
    pub fn fields(&self) -> [(&'static str, u64); 6] {
        [
            ("rows_scanned", self.rows_scanned),
            ("index_probes", self.index_probes),
            ("neighbors_expanded", self.neighbors_expanded),
            ("versions_walked", self.versions_walked),
            ("result_rows", self.result_rows),
            ("scratch_reuses", self.scratch_reuses),
        ]
    }

    /// True when every operator count is zero.
    pub fn is_zero(&self) -> bool {
        self.fields().iter().all(|&(_, v)| v == 0)
    }
}

impl QueryProfile {
    pub fn new() -> QueryProfile {
        QueryProfile::default()
    }

    /// Install `profile` as this thread's current profiling scope until
    /// the returned guard drops. Scopes nest: the previous scope (if any)
    /// is restored on drop.
    pub fn enter(profile: Arc<QueryProfile>) -> ProfileGuard {
        let prev = CURRENT.with(|cur| cur.replace(Some(profile)));
        ProfileGuard { prev }
    }

    pub fn snapshot(&self) -> ProfileSnapshot {
        ProfileSnapshot {
            rows_scanned: self.rows_scanned.load(Ordering::Relaxed),
            index_probes: self.index_probes.load(Ordering::Relaxed),
            neighbors_expanded: self.neighbors_expanded.load(Ordering::Relaxed),
            versions_walked: self.versions_walked.load(Ordering::Relaxed),
            result_rows: self.result_rows.load(Ordering::Relaxed),
            scratch_reuses: self.scratch_reuses.load(Ordering::Relaxed),
        }
    }
}

thread_local! {
    static CURRENT: RefCell<Option<Arc<QueryProfile>>> = const { RefCell::new(None) };
}

/// Restores the previously-installed profile scope on drop.
#[must_use = "dropping the guard immediately ends the profiling scope"]
pub struct ProfileGuard {
    prev: Option<Arc<QueryProfile>>,
}

impl Drop for ProfileGuard {
    fn drop(&mut self) {
        CURRENT.with(|cur| *cur.borrow_mut() = self.prev.take());
    }
}

/// The profile installed on this thread, if any.
pub fn current_profile() -> Option<Arc<QueryProfile>> {
    CURRENT.with(|cur| cur.borrow().clone())
}

#[inline]
fn tick(n: u64, field: fn(&QueryProfile) -> &AtomicU64) {
    if n == 0 {
        return;
    }
    CURRENT.with(|cur| {
        if let Some(p) = cur.borrow().as_deref() {
            field(p).fetch_add(n, Ordering::Relaxed);
        }
    });
}

/// Count `n` rows/entries inspected by a scan.
#[inline]
pub fn tick_rows_scanned(n: u64) {
    tick(n, |p| &p.rows_scanned);
}

/// Count `n` keyed point lookups.
#[inline]
pub fn tick_index_probes(n: u64) {
    tick(n, |p| &p.index_probes);
}

/// Count `n` traversal neighbor expansions.
#[inline]
pub fn tick_neighbors_expanded(n: u64) {
    tick(n, |p| &p.neighbors_expanded);
}

/// Count `n` MVCC version entries walked.
#[inline]
pub fn tick_versions_walked(n: u64) {
    tick(n, |p| &p.versions_walked);
}

/// Count `n` rows emitted into a final result.
#[inline]
pub fn tick_result_rows(n: u64) {
    tick(n, |p| &p.result_rows);
}

/// Count `n` reuses of a thread-local query scratch workspace.
#[inline]
pub fn tick_scratch_reuses(n: u64) {
    tick(n, |p| &p.scratch_reuses);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ticks_hit_the_installed_scope_only() {
        tick_rows_scanned(5); // no scope: must not panic, must not count
        let p = Arc::new(QueryProfile::new());
        {
            let _guard = QueryProfile::enter(Arc::clone(&p));
            tick_rows_scanned(3);
            tick_index_probes(1);
            tick_result_rows(2);
            assert!(current_profile().is_some());
        }
        assert!(current_profile().is_none());
        tick_rows_scanned(7); // scope ended
        let snap = p.snapshot();
        assert_eq!(snap.rows_scanned, 3);
        assert_eq!(snap.index_probes, 1);
        assert_eq!(snap.result_rows, 2);
        assert_eq!(snap.neighbors_expanded, 0);
        assert!(!snap.is_zero());
    }

    #[test]
    fn scopes_nest_and_restore() {
        let outer = Arc::new(QueryProfile::new());
        let inner = Arc::new(QueryProfile::new());
        let _a = QueryProfile::enter(Arc::clone(&outer));
        tick_versions_walked(1);
        {
            let _b = QueryProfile::enter(Arc::clone(&inner));
            tick_versions_walked(10);
        }
        tick_versions_walked(2);
        assert_eq!(outer.snapshot().versions_walked, 3);
        assert_eq!(inner.snapshot().versions_walked, 10);
    }

    #[test]
    fn scopes_are_per_thread() {
        let p = Arc::new(QueryProfile::new());
        let _guard = QueryProfile::enter(Arc::clone(&p));
        std::thread::scope(|scope| {
            scope.spawn(|| {
                // Fresh thread: no inherited scope.
                assert!(current_profile().is_none());
                tick_rows_scanned(99);
            });
        });
        assert_eq!(p.snapshot().rows_scanned, 0);
    }
}
