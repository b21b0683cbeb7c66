//! Dependency tracking — Local and Global Dependency Services (Fig. 7).
//!
//! The driver "tracks the latest point in time behind which every operation
//! has completed; every operation (i.e., dependency) with T_DUE lower or
//! equal to this time is guaranteed to have completed execution. This is
//! achieved by maintaining a monotonically increasing timestamp variable
//! called Global Completion Time (T_GC)".
//!
//! Per stream, Fig. 7 keeps Initiated Times (IT) and Completed Times (CT)
//! and exposes Local Initiation Time (`T_LI`, the lowest timestamp in IT, or
//! the last known lowest if IT is empty) and Local Completion Time (`T_LC`,
//! the highest completed time below `T_LI`). Each stream here is one
//! partition thread running one operation at a time, so IT holds at most
//! that operation and an [`Lds`] publishes `T_LI`/`T_LC` from it without
//! keeping either set. The [`Gds`] aggregates: `T_GI` is the minimum `T_LI`,
//! and `T_GC` the maximum `T_LC` strictly below `T_GI`; exposing `T_LI` is
//! what lets `T_GC` advance as early as possible.

pub use crate::wake::WakeSignal;
use snb_core::time::SimTime;
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::Arc;

/// Sentinel a finished stream advances to so it never holds `T_GC` back.
pub const STREAM_END: SimTime = SimTime(i64::MAX / 2);

/// Local Dependency Service of one stream with at most one operation in
/// flight: its owner thread alternates [`Lds::initiate`] and
/// [`Lds::complete`], in non-decreasing due-time order, then calls
/// [`Lds::finish`].
///
/// IT is then the operation in flight, or empty with `T_LI` its last value,
/// and every completed time is at most `T_LI`. So `T_LC` is the last
/// completed due time once a later one is initiated, and completing an
/// operation moves neither published value.
///
/// The GDS reads `tli`/`tlc`: their Release stores pair with the Acquire
/// loads in [`Lds::tli`]/[`Lds::tlc`], so a waiter that sees a `T_LC` also
/// sees the effects of the operations it covers. `done` and `busy` are read
/// only by the owner thread, hence Relaxed. Aligned to a cache line so one
/// stream's stores do not evict its neighbour's published words.
#[derive(Debug)]
#[repr(align(64))]
pub struct Lds {
    tli: AtomicI64,
    tlc: AtomicI64,
    /// Due time of the last completed operation.
    done: AtomicI64,
    /// Whether the operation at `tli` is still in flight.
    busy: AtomicBool,
    /// Shared with the owning [`Gds`], so GCT waiters can park.
    signal: Arc<WakeSignal>,
}

impl Lds {
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

    /// Start the operation due at `t`: the last completed time drops below
    /// `T_LI` (when `t` is later) and becomes `T_LC`, then `T_LI = t`.
    pub fn initiate(&self, t: SimTime) {
        assert!(!self.busy.load(Ordering::Relaxed), "initiate({t}) with an operation in flight");
        let tli = self.tli.load(Ordering::Relaxed);
        debug_assert!(t.millis() >= tli, "initiations must be monotone: {t} after {tli}");
        self.busy.store(true, Ordering::Relaxed);
        let done = self.done.load(Ordering::Relaxed);
        if done < t.millis() {
            self.tlc.store(done, Ordering::Release);
        }
        self.tli.store(t.millis(), Ordering::Release);
        self.signal.notify();
    }

    /// Record that the operation due at `t` completed. Publishes nothing:
    /// `t` is still `T_LI`, so it cannot count towards `T_LC` yet.
    pub fn complete(&self, t: SimTime) {
        let in_flight = self.busy.load(Ordering::Relaxed).then(|| self.tli());
        assert_eq!(in_flight, Some(t), "complete({t}) without matching initiate");
        self.busy.store(false, Ordering::Relaxed);
        self.done.store(t.millis(), Ordering::Relaxed);
    }

    /// Mark the stream exhausted: `T_LC` becomes the last completed time and
    /// `T_LI` jumps to [`STREAM_END`]. Also the error path: an operation
    /// still in flight is dropped, since it will never complete and would
    /// otherwise pin `T_GI` for every other partition.
    pub fn finish(&self) {
        self.busy.store(false, Ordering::Relaxed);
        self.tlc.store(self.done.load(Ordering::Relaxed), Ordering::Release);
        self.tli.store(STREAM_END.millis(), Ordering::Release);
        self.signal.notify();
    }
}

/// Global Dependency Service: aggregates the per-stream services.
#[derive(Debug)]
pub struct Gds {
    streams: Vec<Lds>,
    /// Monotone cache of the published `T_GC`. The raw Fig. 7 expression
    /// can *decrease* when a stream's `T_LC` overtakes `T_GI` and leaves the
    /// filtered max; any previously published value remains a valid
    /// completion point (completions never undo), so we publish the
    /// running maximum.
    gct_cache: AtomicI64,
    /// One wakeup channel shared by every stream.
    signal: Arc<WakeSignal>,
}

impl Gds {
    /// Build over `n` fresh streams; `T_LI`/`T_LC` start at 0 (before all
    /// simulation time).
    pub fn new(n: usize) -> Gds {
        let signal = Arc::new(WakeSignal::default());
        let lds = || Lds {
            tli: AtomicI64::new(0),
            tlc: AtomicI64::new(0),
            done: AtomicI64::new(0),
            busy: AtomicBool::new(false),
            signal: Arc::clone(&signal),
        };
        Gds { streams: (0..n).map(|_| lds()).collect(), gct_cache: AtomicI64::new(0), signal }
    }

    /// The service of stream `i`; its one owner thread drives it.
    pub fn stream(&self, i: usize) -> &Lds {
        &self.streams[i]
    }

    /// The wakeup channel GCT waiters park on. Notified whenever any
    /// stream's published values change; callers tearing the run down
    /// (abort) should notify it explicitly so waiters re-check their abort
    /// flag promptly.
    pub fn signal(&self) -> &WakeSignal {
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
        // Every dependent op of every partition asks: only a raise pays
        // the RMW, so the common call leaves the cache line shared.
        let cached = self.gct_cache.load(Ordering::Acquire);
        if raw.millis() <= cached {
            return SimTime(cached);
        }
        SimTime(self.gct_cache.fetch_max(raw.millis(), Ordering::AcqRel).max(raw.millis()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_stream_progression() {
        let gds = Gds::new(1);
        let s = gds.stream(0);
        s.initiate(SimTime(10));
        assert_eq!(s.tli(), SimTime(10));
        assert_eq!(gds.gct(), SimTime(0), "nothing completed yet");
        s.complete(SimTime(10));
        // 10 is still T_LI: completing it publishes nothing.
        assert_eq!((s.tli(), s.tlc()), (SimTime(10), SimTime(0)));
        s.initiate(SimTime(20));
        // 10 completed and T_LI is now 20 -> GCT reaches 10.
        assert_eq!(s.tlc(), SimTime(10));
        assert_eq!(gds.gct(), SimTime(10));
        s.complete(SimTime(20));
        s.finish();
        assert_eq!(gds.gct(), SimTime(20));
    }

    #[test]
    #[should_panic(expected = "without matching initiate")]
    fn completing_a_time_that_is_not_in_flight_panics() {
        let gds = Gds::new(1);
        let s = gds.stream(0);
        s.initiate(SimTime(10));
        s.complete(SimTime(10));
        s.complete(SimTime(10));
    }

    #[test]
    fn gct_is_min_across_streams() {
        let gds = Gds::new(2);
        let a = gds.stream(0);
        let b = gds.stream(1);
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
        let a = gds.stream(0);
        let b = gds.stream(1);
        b.finish(); // empty stream
        a.initiate(SimTime(7));
        a.complete(SimTime(7));
        a.finish();
        assert_eq!(gds.gct(), SimTime(7));
    }

    #[test]
    fn equal_due_times_are_tracked_as_multiset() {
        let gds = Gds::new(1);
        let s = gds.stream(0);
        s.initiate(SimTime(10));
        s.complete(SimTime(10));
        s.initiate(SimTime(10));
        // The second 10 is in flight: the first may not count yet.
        assert_eq!(s.tli(), SimTime(10));
        assert_eq!(s.tlc(), SimTime(0));
        s.complete(SimTime(10));
        s.finish();
        assert_eq!(s.tlc(), SimTime(10));
    }

    #[test]
    fn gct_cache_holds_when_the_raw_maximum_falls() {
        let gds = Gds::new(2);
        let (a, b) = (gds.stream(0), gds.stream(1));
        a.initiate(SimTime(9));
        a.complete(SimTime(9));
        a.initiate(SimTime(12));
        b.initiate(SimTime(5));
        b.complete(SimTime(5));
        b.initiate(SimTime(10));
        assert_eq!((a.tlc(), a.tli()), (SimTime(9), SimTime(12)));
        assert_eq!((b.tlc(), b.tli()), (SimTime(5), SimTime(10)));
        assert_eq!(gds.gct(), SimTime(9));
        // A's T_LC (12) now passes T_GI (B's 10) and leaves the filtered
        // max, which falls to B's 5; 9 is still a valid completion point.
        a.complete(SimTime(12));
        a.initiate(SimTime(20));
        assert_eq!(a.tlc(), SimTime(12));
        assert_eq!(gds.gct(), SimTime(9));
    }

    #[test]
    fn gct_is_monotone_under_concurrency() {
        // Hammer a 4-stream GDS from 4 threads; observe GCT never goes
        // backwards and ends at the max due time.
        let gds = Gds::new(4);
        std::thread::scope(|scope| {
            for s in 0..4 {
                let lds = gds.stream(s);
                scope.spawn(move || {
                    for i in 0..500i64 {
                        let t = SimTime(i * 4 + s as i64 + 1);
                        lds.initiate(t);
                        lds.complete(t);
                    }
                    lds.finish();
                });
            }
            scope.spawn(|| {
                let mut last = SimTime(0);
                for _ in 0..2_000 {
                    let g = gds.gct();
                    assert!(g >= last, "GCT went backwards: {g} < {last}");
                    last = g;
                    std::hint::spin_loop();
                }
            });
        });
        assert_eq!(gds.gct(), SimTime(2000));
    }
}
