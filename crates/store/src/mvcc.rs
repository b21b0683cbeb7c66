//! Multi-version concurrency control for an insert-only workload.
//!
//! The SNB-Interactive rules require ACID transactions with serializability,
//! and note that "given the nature of the update workload, systems providing
//! snapshot isolation behave identically to serializable" (§4, Rules and
//! Metrics). The workload only ever *inserts* new entities, which makes MVCC
//! particularly simple and particularly strong:
//!
//! - every row and index entry carries the `commit_ts` of the transaction
//!   that created it;
//! - a read transaction pins a snapshot timestamp `ts` and sees exactly the
//!   rows with `commit_ts ≤ ts`;
//! - a write transaction stamps all its rows with one timestamp and
//!   publishes that timestamp only after all rows are in place, so readers
//!   observe each transaction entirely or not at all.
//!
//! With no updates-in-place and no deletes there are no write-write
//! conflicts, no lost updates and no anti-dependency cycles: snapshot
//! isolation here *is* serializable (the serial order is commit-timestamp
//! order).
//!
//! ## Out-of-order publication behind a visibility watermark
//!
//! Writers finish in whatever order the scheduler lets them, not in
//! reservation order. The clock therefore decouples *publication* (this
//! writer's rows are in place) from *visibility* (readers may see them):
//! a committer marks its own timestamp in a fixed-size publication ring
//! and returns immediately, and the visible horizon — the watermark
//! returned by [`CommitClock::snapshot_ts`] — advances only over the
//! contiguous prefix of published timestamps. A descheduled writer no
//! longer stalls every later committer (the head-of-line-blocking collapse
//! attributed in PR 6); it only delays how far the watermark can advance.
//! The only wait left is ring wraparound — a publisher more than
//! [`PUBLICATION_RING`] timestamps ahead of the watermark parks on a
//! condvar until the slot it needs has been absorbed.

use crate::Padded;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Duration;

/// Commit timestamp; `BULK_TS` marks bulk-loaded rows visible to every
/// snapshot.
pub type CommitTs = u64;

/// Timestamp of bulk-loaded data.
pub const BULK_TS: CommitTs = 0;

/// Slots in the publication ring (power of two). A publisher whose
/// timestamp is more than this far ahead of the watermark must park until
/// the watermark catches up, so the ring bounds how many commits can be
/// in flight past a stalled one: 1024 is ~two orders of magnitude more
/// than any plausible writer count, making wraparound parks a pathology
/// signal (`store.write.publish_parks`), not a steady-state cost.
pub const PUBLICATION_RING: usize = 1024;

/// What one [`CommitClock::publish`] call observed, for telemetry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Publication {
    /// Earlier reservations still unpublished when this publish started
    /// (`ts - watermark - 1`): how far out of order this commit completed.
    pub lag: u64,
    /// Park rounds spent waiting for ring room (nonzero only when the
    /// publisher ran more than [`PUBLICATION_RING`] ahead of the
    /// watermark).
    pub parked: u64,
}

/// The global commit clock.
#[derive(Debug)]
pub struct CommitClock {
    /// The visibility watermark: every timestamp `≤ latest` is published,
    /// so readers snapshotting `latest` see only whole transactions. On
    /// its own line: every reader loads it, and `reserve`'s RMW on `next`
    /// must not invalidate it.
    latest: Padded<AtomicU64>,
    /// Next timestamp to hand out (≥ latest + 1; they differ while write
    /// transactions are in flight).
    next: Padded<AtomicU64>,
    /// Publication ring: slot `ts & (PUBLICATION_RING - 1)` holds `ts`
    /// once that timestamp's rows are all in place. Storing the full
    /// timestamp (not a flag) makes stale occupants harmless: the
    /// watermark only advances over a slot whose value *equals* the
    /// expected next timestamp.
    ring: Box<[AtomicU64]>,
    /// Publishers parked waiting for ring room. Checked by the watermark
    /// advance path so the (rare) notify is paid only when someone waits.
    waiters: AtomicU64,
    /// Park/unpark for ring-wraparound waits: parking instead of
    /// spin-yielding keeps a far-ahead publisher off the CPU that the
    /// straggler it waits on needs.
    park: Mutex<()>,
    unpark: Condvar,
}

impl Default for CommitClock {
    fn default() -> Self {
        CommitClock {
            latest: Padded(AtomicU64::new(BULK_TS)),
            next: Padded(AtomicU64::new(BULK_TS + 1)),
            ring: (0..PUBLICATION_RING).map(|_| AtomicU64::new(BULK_TS)).collect(),
            waiters: AtomicU64::new(0),
            park: Mutex::new(()),
            unpark: Condvar::new(),
        }
    }
}

impl CommitClock {
    /// A fresh clock at the bulk timestamp.
    pub fn new() -> CommitClock {
        CommitClock::default()
    }

    /// Snapshot timestamp for a new reader: the watermark, i.e. everything
    /// contiguously published so far. The acquire load pairs with the
    /// release edge of the watermark advance, which itself acquired every
    /// publication it absorbed — so a snapshot at `ts` happens-after the
    /// row writes of *every* transaction with a timestamp `≤ ts`.
    #[inline]
    pub fn snapshot_ts(&self) -> CommitTs {
        self.latest.load(Ordering::Acquire)
    }

    /// Reserve the next commit timestamp (call while holding the writer
    /// lock, before writing rows).
    #[inline]
    pub fn reserve(&self) -> CommitTs {
        self.next.fetch_add(1, Ordering::Relaxed)
    }

    /// Publish `ts` as committed (call after all of the transaction's rows
    /// are in place). Publication is **out of order**: this marks `ts` in
    /// the publication ring with a release store and returns — it never
    /// waits for earlier reservations. Visibility is what stays in order:
    /// the watermark ([`CommitClock::snapshot_ts`]) advances only over the
    /// contiguous published prefix, so `snapshot_ts()` returning `h` still
    /// guarantees every transaction `≤ h` has finished writing its rows
    /// and a reader can never observe a half-applied earlier transaction
    /// through a newer horizon.
    ///
    /// The one residual wait is ring wraparound: `ts` shares its slot with
    /// `ts - PUBLICATION_RING`, so a publisher that far ahead of the
    /// watermark parks (condvar, not spin-yield) until the watermark
    /// absorbs the old occupant. Every reserved timestamp MUST be
    /// published (validation and WAL appends happen before `reserve`),
    /// otherwise the watermark wedges at the gap.
    ///
    /// Monotonicity stays a hard invariant, enforced in release builds
    /// too: publishing a timestamp at or below the watermark (or twice
    /// while pending) would un-commit or re-commit visible transactions,
    /// so it panics instead.
    #[inline]
    pub fn publish(&self, ts: CommitTs) -> Publication {
        let latest = self.latest.load(Ordering::SeqCst);
        assert!(latest < ts, "CommitClock::publish went backwards: publishing {ts} over {latest}");
        let lag = ts - latest - 1;
        let parked =
            if ts - latest > PUBLICATION_RING as u64 { self.park_for_ring_room(ts) } else { 0 };
        let slot = &self.ring[ts as usize & (PUBLICATION_RING - 1)];
        assert!(
            slot.load(Ordering::Relaxed) != ts,
            "CommitClock::publish: timestamp {ts} published twice"
        );
        // Release-publish: the advancer's acquire load of this slot makes
        // this transaction's row writes visible to whoever then reads the
        // advanced watermark.
        slot.store(ts, Ordering::Release);
        self.advance_watermark();
        Publication { lag, parked }
    }

    /// Park until `ts`'s ring slot is free, i.e. the watermark has
    /// absorbed `ts - PUBLICATION_RING`. Rare by construction (the ring
    /// is far larger than any writer count); returns the number of wait
    /// rounds for `store.write.publish_parks`.
    #[cold]
    fn park_for_ring_room(&self, ts: CommitTs) -> u64 {
        let mut rounds = 0u64;
        let mut guard = self.park.lock().unwrap();
        // SeqCst pairs with the advance path's `waiters` check (Dekker
        // pattern): either we see the advanced watermark here, or the
        // advancer sees our registration and notifies.
        self.waiters.fetch_add(1, Ordering::SeqCst);
        while ts - self.latest.load(Ordering::SeqCst) > PUBLICATION_RING as u64 {
            rounds += 1;
            // The timed wait is a backstop only; the mutex + SeqCst
            // protocol already rules out lost wakeups.
            guard = self.unpark.wait_timeout(guard, Duration::from_millis(1)).unwrap().0;
        }
        self.waiters.fetch_sub(1, Ordering::SeqCst);
        drop(guard);
        rounds
    }

    /// Advance the watermark over the contiguous published prefix: while
    /// the slot for `latest + 1` holds exactly `latest + 1`, CAS the
    /// watermark forward. Any publisher may do the advancing (whoever
    /// filled the gap usually drags the watermark over everything queued
    /// behind it); losing a CAS just means another thread advanced past
    /// us, so we re-read and keep helping.
    fn advance_watermark(&self) {
        let mut advanced = false;
        let mut latest = self.latest.load(Ordering::Acquire);
        loop {
            let next = latest + 1;
            if self.ring[next as usize & (PUBLICATION_RING - 1)].load(Ordering::Acquire) != next {
                break;
            }
            match self.latest.compare_exchange(latest, next, Ordering::SeqCst, Ordering::Acquire) {
                Ok(_) => {
                    advanced = true;
                    latest = next;
                }
                Err(current) => latest = current,
            }
        }
        if advanced && self.waiters.load(Ordering::SeqCst) > 0 {
            // Taking the mutex orders this notify after any waiter's
            // predicate check, closing the check-then-wait window.
            drop(self.park.lock().unwrap());
            self.unpark.notify_all();
        }
    }
}

/// Visibility test shared by all versioned containers.
#[inline]
pub fn visible(commit_ts: CommitTs, snapshot_ts: CommitTs) -> bool {
    commit_ts <= snapshot_ts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bulk_rows_are_always_visible() {
        let clock = CommitClock::new();
        assert!(visible(BULK_TS, clock.snapshot_ts()));
    }

    #[test]
    fn uncommitted_rows_are_invisible() {
        let clock = CommitClock::new();
        let ts = clock.reserve();
        let snap = clock.snapshot_ts();
        assert!(!visible(ts, snap), "in-flight txn must be invisible");
        clock.publish(ts);
        assert!(visible(ts, clock.snapshot_ts()));
    }

    #[test]
    fn timestamps_are_monotone() {
        let clock = CommitClock::new();
        let a = clock.reserve();
        let b = clock.reserve();
        assert!(b > a);
        clock.publish(a);
        clock.publish(b);
        assert_eq!(clock.snapshot_ts(), b);
    }

    #[test]
    #[should_panic(expected = "publish went backwards")]
    fn republishing_an_absorbed_timestamp_panics_in_release_too() {
        let clock = CommitClock::new();
        let a = clock.reserve();
        clock.publish(a);
        clock.publish(a); // would regress the snapshot horizon
    }

    #[test]
    #[should_panic(expected = "published twice")]
    fn republishing_a_pending_timestamp_panics() {
        let clock = CommitClock::new();
        let _a = clock.reserve();
        let b = clock.reserve();
        clock.publish(b); // pending: `a` still holds the watermark back
        clock.publish(b); // double publish must be caught, not absorbed
    }

    /// Two writers publishing out of reservation order: the later
    /// timestamp publishes immediately (no head-of-line blocking), but the
    /// watermark defers its visibility until the earlier one lands.
    #[test]
    fn out_of_order_publish_is_deferred_behind_the_watermark() {
        let clock = CommitClock::new();
        let a = clock.reserve();
        let b = clock.reserve();
        // Publishing `b` first returns without blocking — under the old
        // in-order barrier this call spun until `a` published.
        let publication = clock.publish(b);
        assert_eq!(publication.lag, 1, "one unpublished predecessor (a)");
        assert_eq!(publication.parked, 0);
        assert_eq!(clock.snapshot_ts(), BULK_TS, "b must stay invisible behind the gap at a");
        // Filling the gap drags the watermark over both.
        let publication = clock.publish(a);
        assert_eq!(publication.lag, 0);
        assert_eq!(clock.snapshot_ts(), b);
    }

    /// The watermark never exposes a gap: with a random-ish publish order
    /// the horizon equals the longest contiguous published prefix after
    /// every single publish.
    #[test]
    fn watermark_tracks_contiguous_prefix_exactly() {
        let clock = CommitClock::new();
        let ts: Vec<CommitTs> = (0..32).map(|_| clock.reserve()).collect();
        // Deterministic scatter: stride 7 over 32 slots visits every
        // timestamp once in a thoroughly out-of-order sequence.
        let mut published = vec![false; ts.len() + 1];
        for i in 0..ts.len() {
            let t = ts[(i * 7) % ts.len()];
            clock.publish(t);
            published[t as usize] = true;
            let prefix = (1..published.len()).take_while(|&j| published[j]).count() as u64;
            assert_eq!(clock.snapshot_ts(), prefix, "horizon must equal the published prefix");
        }
        assert_eq!(clock.snapshot_ts(), ts.len() as u64);
    }

    /// A publisher more than `PUBLICATION_RING` ahead of the watermark
    /// parks until the watermark frees its slot, then lands normally.
    #[test]
    fn ring_wraparound_parks_until_room() {
        use std::sync::Arc;

        let clock = Arc::new(CommitClock::new());
        let n = PUBLICATION_RING as u64 + 1;
        let ts: Vec<CommitTs> = (0..n).map(|_| clock.reserve()).collect();
        let far = *ts.last().unwrap(); // shares a slot with ts[0]
        let t = {
            let clock = Arc::clone(&clock);
            std::thread::spawn(move || clock.publish(far))
        };
        // The far publisher cannot land while its slot's old occupant is
        // unabsorbed; give it a moment to park, then drain the prefix.
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(clock.snapshot_ts(), BULK_TS);
        for &t in &ts[..ts.len() - 1] {
            clock.publish(t);
        }
        let publication = t.join().unwrap();
        assert!(publication.parked > 0, "wrapped publisher must have parked");
        assert_eq!(clock.snapshot_ts(), far);
    }
}
