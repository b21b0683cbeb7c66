//! Dependency tracking — Local and Global Dependency Services (Fig. 7).
//!
//! The driver "tracks the latest point in time behind which every operation
//! has completed; every operation (i.e., dependency) with T_DUE lower or
//! equal to this time is guaranteed to have completed execution. This is
//! achieved by maintaining a monotonically increasing timestamp variable
//! called Global Completion Time (T_GC)".
//!
//! Per stream, a [`Lds`] maintains Initiated Times (IT) and Completed Times
//! (CT) and exposes Local Initiation Time (`T_LI`, the lowest timestamp in
//! IT, or the last known lowest if IT is empty — adds are monotone, so no
//! lower value can appear later) and Local Completion Time (`T_LC`, the
//! highest completed time below `T_LI`). The [`Gds`] aggregates: `T_GI` is
//! the minimum `T_LI`, and `T_GC` the maximum `T_LC` strictly below `T_GI`;
//! exposing `T_LI` is what lets `T_GC` advance as early as possible.

use parking_lot::Mutex;
use snb_core::time::SimTime;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Sentinel a finished stream advances to so it never holds `T_GC` back.
pub const STREAM_END: SimTime = SimTime(i64::MAX / 2);

/// Wakeup channel for threads blocked on GCT advancement.
///
/// Every [`Lds`] state change that can move `T_GC` (initiations raising
/// `T_LI`, completions, finish/abandon) notifies the signal its [`Gds`]
/// shares with all streams, so a partition blocked in the Fig. 8 dependency
/// loop parks on a condvar instead of burning a core — on small machines a
/// spinning waiter starves the very partitions whose completions it waits
/// for. Notification is skipped entirely while nobody waits (one relaxed
/// load on the completion hot path), and waiters recheck their predicate
/// under the lock plus wake on a short timeout, so a lost wakeup can only
/// delay, never deadlock.
///
/// With the store's global write latch replaced by striped per-shard locks
/// (PR 5), completions arrive from many writer threads at once and every
/// one of them rings this signal. A `notify_all` per completion then turns
/// into a wake-up storm: all `P` parked partitions wake, contend on the
/// signal lock, recheck, and most re-park — `O(P)` futile wakes per
/// completion, quadratic scheduler churn overall. [`WakeSignal::notify`]
/// therefore wakes at most [`MAX_WAKE_BATCH`] waiters; since GCT is a
/// single monotone frontier, waiters become ready in due-time order and a
/// small batch almost always contains the one that can make progress. Any
/// waiter left out is covered twice over: the woken waiters' own state
/// changes re-notify, and `wait_until`'s timeout cap bounds the stall even
/// if no further notification arrives. Teardown paths use
/// [`WakeSignal::notify_all`], which really does wake everyone — an
/// aborting run wants every partition to observe the abort flag now, not
/// after a timeout ladder.
#[derive(Debug, Default)]
pub struct WakeSignal {
    waiters: AtomicUsize,
    /// Condvar waits performed (observability: proves waiters park rather
    /// than spin).
    parks: AtomicU64,
    /// Wake-ups suppressed by the batch cap (observability: how much
    /// thundering herd the cap absorbed).
    capped_wakes: AtomicU64,
    lock: std::sync::Mutex<()>,
    cond: std::sync::Condvar,
}

/// Most waiters woken by a single [`WakeSignal::notify`] call.
pub const MAX_WAKE_BATCH: usize = 4;

impl WakeSignal {
    /// Wake up to [`MAX_WAKE_BATCH`] parked waiters. Cheap (one atomic
    /// load) when nobody waits.
    pub fn notify(&self) {
        let waiting = self.waiters.load(Ordering::SeqCst);
        if waiting == 0 {
            return;
        }
        let _g = self.lock.lock().unwrap_or_else(|e| e.into_inner());
        if waiting > MAX_WAKE_BATCH {
            self.capped_wakes.fetch_add((waiting - MAX_WAKE_BATCH) as u64, Ordering::Relaxed);
        }
        for _ in 0..waiting.min(MAX_WAKE_BATCH) {
            self.cond.notify_one();
        }
    }

    /// Wake **every** parked waiter, bypassing the batch cap. For teardown
    /// (abort, shutdown) where all waiters must re-check a flag promptly.
    pub fn notify_all(&self) {
        if self.waiters.load(Ordering::SeqCst) == 0 {
            return;
        }
        let _g = self.lock.lock().unwrap_or_else(|e| e.into_inner());
        self.cond.notify_all();
    }

    /// Park until notified or `cap` elapses, unless `ready()` already holds
    /// (rechecked under the lock, closing the check-then-sleep race).
    pub fn wait_until(&self, ready: impl Fn() -> bool, cap: Duration) {
        self.waiters.fetch_add(1, Ordering::SeqCst);
        let g = self.lock.lock().unwrap_or_else(|e| e.into_inner());
        if !ready() {
            self.parks.fetch_add(1, Ordering::Relaxed);
            let _ = self.cond.wait_timeout(g, cap).unwrap_or_else(|e| e.into_inner());
        }
        self.waiters.fetch_sub(1, Ordering::SeqCst);
    }

    /// Number of times a waiter actually parked on the condvar.
    pub fn parks(&self) -> u64 {
        self.parks.load(Ordering::Relaxed)
    }

    /// Number of wake-ups the batch cap suppressed.
    pub fn capped_wakes(&self) -> u64 {
        self.capped_wakes.load(Ordering::Relaxed)
    }
}

#[derive(Debug, Default)]
struct LdsInner {
    /// Initiated, not yet completed times (multiset: windowed execution may
    /// initiate several operations with equal due times).
    it: BTreeMap<i64, u32>,
    /// Completed times awaiting inclusion in `tlc` (pruned as `tlc` moves).
    ct: std::collections::BinaryHeap<std::cmp::Reverse<i64>>,
    /// Highest time ever added to IT (adds must be monotone).
    last_added: i64,
}

/// Local Dependency Service: per-stream IT/CT tracking.
#[derive(Debug)]
pub struct Lds {
    inner: Mutex<LdsInner>,
    /// Cached `T_LI` for lock-free reads by the GDS.
    tli: AtomicI64,
    /// Cached `T_LC`.
    tlc: AtomicI64,
    /// Shared with the owning [`Gds`]: notified on every state change so
    /// GCT waiters can park instead of spinning.
    signal: Arc<WakeSignal>,
}

impl Default for Lds {
    fn default() -> Self {
        Lds::new()
    }
}

impl Lds {
    /// Fresh service; `T_LI`/`T_LC` start at 0 (before all simulation time).
    pub fn new() -> Lds {
        Lds::with_signal(Arc::new(WakeSignal::default()))
    }

    /// A service whose state changes notify `signal` (used by [`Gds`] to
    /// share one wakeup channel across all streams).
    pub fn with_signal(signal: Arc<WakeSignal>) -> Lds {
        Lds {
            inner: Mutex::new(LdsInner::default()),
            tli: AtomicI64::new(0),
            tlc: AtomicI64::new(0),
            signal,
        }
    }

    /// `T_LI`.
    #[inline]
    pub fn tli(&self) -> SimTime {
        SimTime(self.tli.load(Ordering::Acquire))
    }

    /// `T_LC`.
    #[inline]
    pub fn tlc(&self) -> SimTime {
        SimTime(self.tlc.load(Ordering::Acquire))
    }

    /// Add `t` to IT. Times must be added in monotonically non-decreasing
    /// order (the stream is due-time sorted).
    pub fn initiate(&self, t: SimTime) {
        let mut g = self.inner.lock();
        debug_assert!(
            t.millis() >= g.last_added,
            "IT additions must be monotone: {} after {}",
            t.millis(),
            g.last_added
        );
        g.last_added = t.millis();
        *g.it.entry(t.millis()).or_insert(0) += 1;
        self.refresh(&mut g);
    }

    /// Move `t` from IT to CT (any order).
    pub fn complete(&self, t: SimTime) {
        let mut g = self.inner.lock();
        match g.it.get_mut(&t.millis()) {
            Some(n) if *n > 1 => *n -= 1,
            Some(_) => {
                g.it.remove(&t.millis());
            }
            None => panic!("complete() without matching initiate({t})"),
        }
        g.ct.push(std::cmp::Reverse(t.millis()));
        self.refresh(&mut g);
    }

    /// Mark the stream exhausted: `T_LI` jumps to [`STREAM_END`].
    pub fn finish(&self) {
        let mut g = self.inner.lock();
        debug_assert!(g.it.is_empty(), "finish() with operations in flight");
        g.last_added = STREAM_END.millis();
        self.tli.store(STREAM_END.millis(), Ordering::Release);
        self.refresh(&mut g);
    }

    /// Abort-path variant of [`Lds::finish`]: drop any in-flight initiated
    /// operations and jump to [`STREAM_END`]. A failed partition may die
    /// between `initiate` and `complete`; keeping its IT entry would pin
    /// `T_GI` forever and deadlock every other partition waiting on the
    /// GCT, while asserting emptiness (as `finish` does) would panic on a
    /// path where the run is already being torn down.
    pub fn abandon(&self) {
        let mut g = self.inner.lock();
        g.it.clear();
        g.last_added = STREAM_END.millis();
        self.tli.store(STREAM_END.millis(), Ordering::Release);
        self.refresh(&mut g);
    }

    fn refresh(&self, g: &mut LdsInner) {
        // T_LI: lowest initiated time, or the last known lowest (adds are
        // monotone, so `last_added` is a valid floor once IT drains).
        let tli = g.it.keys().next().copied().unwrap_or(g.last_added);
        self.tli.store(tli, Ordering::Release);
        // T_LC: highest completed time strictly below T_LI. Completed times
        // at or above T_LI stay queued; anything below can be consumed
        // because every earlier operation has completed.
        let mut tlc = self.tlc.load(Ordering::Relaxed);
        while let Some(&std::cmp::Reverse(c)) = g.ct.peek() {
            if c < tli {
                tlc = tlc.max(c);
                g.ct.pop();
            } else {
                break;
            }
        }
        self.tlc.store(tlc, Ordering::Release);
        // State published; wake anyone parked on GCT advancement. (Both the
        // stores above and this notify happen before the waiter re-acquires
        // the signal lock, so its predicate recheck sees the new values.)
        self.signal.notify();
    }
}

/// Global Dependency Service: aggregates the per-stream services.
#[derive(Debug)]
pub struct Gds {
    streams: Vec<Arc<Lds>>,
    /// Monotone cache of the published `T_GC`. The raw Fig. 7 expression
    /// can transiently *decrease* when a stream's `T_LC` overtakes `T_GI`
    /// and leaves the filtered max; any previously published value remains
    /// a valid completion point (completions never undo), so we publish the
    /// running maximum, keeping the guaranteed monotonicity.
    gct_cache: AtomicI64,
    /// One wakeup channel shared by every stream's [`Lds`].
    signal: Arc<WakeSignal>,
}

impl Gds {
    /// Build over `n` fresh streams.
    pub fn new(n: usize) -> Gds {
        let signal = Arc::new(WakeSignal::default());
        Gds {
            streams: (0..n).map(|_| Arc::new(Lds::with_signal(Arc::clone(&signal)))).collect(),
            gct_cache: AtomicI64::new(0),
            signal,
        }
    }

    /// The per-stream services.
    pub fn stream(&self, i: usize) -> &Arc<Lds> {
        &self.streams[i]
    }

    /// The wakeup channel GCT waiters park on. Notified whenever any
    /// stream's state changes; callers tearing the run down (abort) should
    /// notify it explicitly so waiters re-check their abort flag promptly.
    pub fn signal(&self) -> &Arc<WakeSignal> {
        &self.signal
    }

    /// `T_GI`: the lowest `T_LI` across streams.
    pub fn tgi(&self) -> SimTime {
        self.streams.iter().map(|l| l.tli()).min().unwrap_or(STREAM_END)
    }

    /// `T_GC`: the highest `T_LC` strictly below `T_GI` — every operation
    /// with a due time at or below it has completed, across all streams.
    pub fn gct(&self) -> SimTime {
        let tgi = self.tgi();
        let raw = self
            .streams
            .iter()
            .map(|l| l.tlc())
            .filter(|&tlc| tlc < tgi)
            .max()
            .unwrap_or(SimTime(0));
        self.gct_cache.fetch_max(raw.millis(), Ordering::AcqRel);
        SimTime(self.gct_cache.load(Ordering::Acquire))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_stream_progression() {
        let gds = Gds::new(1);
        let s = gds.stream(0).clone();
        s.initiate(SimTime(10));
        assert_eq!(s.tli(), SimTime(10));
        assert_eq!(gds.gct(), SimTime(0), "nothing completed yet");
        s.initiate(SimTime(20));
        s.complete(SimTime(10));
        // 10 completed and T_LI is now 20 -> GCT reaches 10.
        assert_eq!(s.tlc(), SimTime(10));
        assert_eq!(gds.gct(), SimTime(10));
        s.complete(SimTime(20));
        s.finish();
        assert_eq!(gds.gct(), SimTime(20));
    }

    #[test]
    fn out_of_order_completion() {
        let gds = Gds::new(1);
        let s = gds.stream(0).clone();
        for t in [10, 20, 30] {
            s.initiate(SimTime(t));
        }
        // Completing later ops first must not advance TLC past in-flight 10.
        s.complete(SimTime(30));
        s.complete(SimTime(20));
        assert_eq!(s.tlc(), SimTime(0));
        s.complete(SimTime(10));
        // All done; TLI = last added (30), so 20 < 30 counts; 30 itself only
        // after finish().
        assert_eq!(s.tlc(), SimTime(20));
        s.finish();
        assert_eq!(s.tlc(), SimTime(30));
    }

    #[test]
    fn gct_is_min_across_streams() {
        let gds = Gds::new(2);
        let a = gds.stream(0).clone();
        let b = gds.stream(1).clone();
        a.initiate(SimTime(10));
        b.initiate(SimTime(5));
        a.complete(SimTime(10));
        a.initiate(SimTime(50));
        // Stream b still holds T_GI at 5, so GCT cannot pass it.
        assert_eq!(gds.gct(), SimTime(0));
        b.complete(SimTime(5));
        b.initiate(SimTime(40));
        // Now T_GI = 40, both 5 and 10 completed -> GCT = 10.
        assert_eq!(gds.gct(), SimTime(10));
    }

    #[test]
    fn finished_streams_do_not_block() {
        let gds = Gds::new(2);
        let a = gds.stream(0).clone();
        let b = gds.stream(1).clone();
        b.finish(); // empty stream
        a.initiate(SimTime(7));
        a.complete(SimTime(7));
        a.finish();
        assert_eq!(gds.gct(), SimTime(7));
    }

    #[test]
    fn equal_due_times_are_tracked_as_multiset() {
        let gds = Gds::new(1);
        let s = gds.stream(0).clone();
        s.initiate(SimTime(10));
        s.initiate(SimTime(10));
        s.complete(SimTime(10));
        // One instance still in flight: TLI must stay at 10.
        assert_eq!(s.tli(), SimTime(10));
        assert_eq!(s.tlc(), SimTime(0));
        s.complete(SimTime(10));
        s.finish();
        assert_eq!(s.tlc(), SimTime(10));
    }

    #[test]
    fn gct_is_monotone_under_concurrency() {
        // Hammer a 4-stream GDS from 4 threads; observe GCT never goes
        // backwards and ends at the max due time.
        let gds = Arc::new(Gds::new(4));
        let observed = Arc::new(Mutex::new(Vec::new()));
        std::thread::scope(|scope| {
            for s in 0..4 {
                let gds = Arc::clone(&gds);
                scope.spawn(move || {
                    let lds = gds.stream(s).clone();
                    for i in 0..500i64 {
                        let t = SimTime(i * 4 + s as i64 + 1);
                        lds.initiate(t);
                        lds.complete(t);
                    }
                    lds.finish();
                });
            }
            let gds2 = Arc::clone(&gds);
            let observed = Arc::clone(&observed);
            scope.spawn(move || {
                let mut last = SimTime(0);
                for _ in 0..2_000 {
                    let g = gds2.gct();
                    assert!(g >= last, "GCT went backwards: {g} < {last}");
                    last = g;
                    observed.lock().push(g);
                    std::hint::spin_loop();
                }
            });
        });
        assert_eq!(gds.gct(), SimTime(2000));
    }
}
