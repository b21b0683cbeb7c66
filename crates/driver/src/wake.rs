//! The wakeup channel partitions blocked on GCT advancement park on.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Duration;

/// Wakeup channel for threads blocked on GCT advancement.
///
/// Every [`Lds`](crate::dependency::Lds) call that can move `T_GC`
/// (`initiate` and `finish`) notifies the signal its
/// [`Gds`](crate::dependency::Gds) shares with all streams, so a partition
/// blocked in the Fig. 8 dependency loop parks on a condvar instead of
/// burning a core — on small machines a spinning waiter starves the very
/// partitions whose progress it waits for. Notification is skipped entirely
/// while nobody waits (one load), and waiters recheck their predicate under
/// the lock plus wake on a short timeout, so a lost wakeup can only delay,
/// never deadlock. A notification wakes every waiter, so the abort path
/// makes every partition observe its flag now, not after a timeout.
#[derive(Debug, Default)]
pub struct WakeSignal {
    waiters: AtomicUsize,
    /// Condvar waits performed (observability: proves waiters park rather
    /// than spin).
    parks: AtomicU64,
    lock: Mutex<()>,
    cond: Condvar,
}

impl WakeSignal {
    /// Wake every parked waiter. Cheap (one atomic load) when nobody
    /// waits.
    pub fn notify(&self) {
        if self.waiters.load(Ordering::SeqCst) == 0 {
            return;
        }
        let _g = self.lock.lock().unwrap_or_else(|e| e.into_inner());
        self.cond.notify_all();
    }

    /// Park until notified or `cap` elapses, unless `ready()` already holds
    /// (rechecked under the lock, closing the check-then-sleep race).
    /// Returns whether it parked.
    pub fn wait_until(&self, ready: impl Fn() -> bool, cap: Duration) -> bool {
        self.waiters.fetch_add(1, Ordering::SeqCst);
        let g = self.lock.lock().unwrap_or_else(|e| e.into_inner());
        let park = !ready();
        if park {
            self.parks.fetch_add(1, Ordering::Relaxed);
            let _ = self.cond.wait_timeout(g, cap).unwrap_or_else(|e| e.into_inner());
        }
        self.waiters.fetch_sub(1, Ordering::SeqCst);
        park
    }

    /// Number of times a waiter actually parked on the condvar.
    pub fn parks(&self) -> u64 {
        self.parks.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_ready_predicate_neither_parks_nor_counts() {
        let signal = WakeSignal::default();
        assert!(!signal.wait_until(|| true, Duration::from_secs(30)));
        assert_eq!(signal.parks(), 0);
        assert!(signal.wait_until(|| false, Duration::from_millis(1)));
        assert_eq!(signal.parks(), 1);
    }
}
