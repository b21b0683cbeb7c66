//! Spans recorded from outside the program, and their reduction into the
//! layer waterfall.
//!
//! [`Tap`] decorates a [`Connector`]: on the driver's side it wraps the
//! connector handed to `driver::run`, on a server's side the
//! `StoreConnector` handed to `Server::bind_with_config`. Each `execute`
//! (or `execute_partial`) becomes one [`Span`]. Driver and servers share a
//! process and therefore a clock, so a server span's parent is the driver
//! span with the same request identifier that contains it in time;
//! [`reduce`] does that pairing and the self-time arithmetic.

use snb_core::SnbResult;
use snb_driver::connector::{Connector, OpKind, OpOutcome, Operation, PartialOutcome};
use snb_obs::{HistogramSnapshot, ProfileSnapshot, QueryProfile};
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Operation kinds in reporting order: Q1–Q14, S1–S7, U1–U8.
pub const KINDS: usize = 29;
/// Index ranges of the three operation classes within `0..KINDS`.
pub const COMPLEX: std::ops::Range<usize> = 0..14;
pub const SHORT: std::ops::Range<usize> = 14..21;
pub const UPDATE: std::ops::Range<usize> = 21..29;

/// Position of `kind` in `0..KINDS`.
pub fn kind_index(kind: OpKind) -> usize {
    match kind {
        OpKind::Complex(n) => n - 1,
        OpKind::Short(n) => SHORT.start + n - 1,
        OpKind::Update(n) => UPDATE.start + n - 1,
    }
}

/// `Q5`, `S2`, `U8`, ...
pub fn kind_name(index: usize) -> String {
    if index < SHORT.start {
        format!("Q{}", index + 1)
    } else if index < UPDATE.start {
        format!("S{}", index - SHORT.start + 1)
    } else {
        format!("U{}", index - UPDATE.start + 1)
    }
}

/// Nanoseconds on the one clock every span of the process is stamped with.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// One call into a layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Request identifier: hash of the encoded operation, shared by the
    /// driver span and every server span it caused. 0 when not recorded.
    pub id: u64,
    pub start: u64,
    pub end: u64,
    /// [`kind_index`] of the operation.
    pub kind: u8,
    /// The shard whose server recorded it; `None` on the driver's side.
    pub shard: Option<u8>,
    /// Whether the call returned `Ok`.
    pub ok: bool,
    /// Result rows an `execute` returned (0 for a partial or an error).
    pub rows: u32,
}

impl Span {
    pub fn nanos(&self) -> u64 {
        self.end - self.start
    }
}

const SLOTS: usize = 64;

/// Where taps put their spans: one `Vec` per recording thread (threads take
/// slots round-robin, so locks are uncontended until more than [`SLOTS`]
/// threads record), reduced only when a replay has ended.
pub struct SpanSink {
    slots: Vec<Mutex<Vec<Span>>>,
}

impl SpanSink {
    pub fn new() -> Arc<SpanSink> {
        Arc::new(SpanSink { slots: (0..SLOTS).map(|_| Mutex::new(Vec::new())).collect() })
    }

    fn push(&self, span: Span) {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        thread_local! {
            static SLOT: usize = NEXT.fetch_add(1, Ordering::Relaxed) % SLOTS;
        }
        let slot = SLOT.with(|s| *s);
        self.slots[slot]
            .lock()
            .expect("span slot poisoned: a recording thread panicked")
            .push(span);
    }

    /// Take every span recorded so far.
    pub fn drain(&self) -> Vec<Span> {
        let mut all = Vec::new();
        for slot in &self.slots {
            all.append(&mut slot.lock().expect("span slot poisoned: a recording thread panicked"));
        }
        all
    }
}

/// Operator counts per kind, gathered by a tap that installs its own
/// [`QueryProfile`] around each call (the program's counters tick into
/// whichever profile the executing thread has entered).
pub struct Profiles {
    per_kind: Vec<Arc<QueryProfile>>,
}

impl Profiles {
    pub fn new() -> Arc<Profiles> {
        Arc::new(Profiles { per_kind: (0..KINDS).map(|_| Arc::new(QueryProfile::new())).collect() })
    }

    pub fn snapshot(&self, kind: usize) -> ProfileSnapshot {
        self.per_kind[kind].snapshot()
    }
}

/// A [`Connector`] decorator that records one [`Span`] per call.
pub struct Tap<C> {
    inner: C,
    sink: Arc<SpanSink>,
    shard: Option<u8>,
    /// Record request identifiers (costs one encode + hash per call).
    ids: bool,
    profiles: Option<Arc<Profiles>>,
}

impl<C: Connector> Tap<C> {
    /// The tap on the connector handed to the driver. `ids` is needed only
    /// when server-side taps exist to be paired with.
    pub fn driver(inner: C, sink: Arc<SpanSink>, ids: bool) -> Tap<C> {
        Tap { inner, sink, shard: None, ids, profiles: None }
    }

    /// The tap around the connector that executes against the store, on
    /// shard `shard`'s server (or in the driver's own process).
    pub fn exec(
        inner: C,
        sink: Arc<SpanSink>,
        shard: Option<u8>,
        profiles: Arc<Profiles>,
    ) -> Tap<C> {
        Tap { inner, sink, shard, ids: shard.is_some(), profiles: Some(profiles) }
    }

    fn record<T>(
        &self,
        op: &Operation,
        call: impl FnOnce() -> SnbResult<T>,
        rows: impl FnOnce(&T) -> usize,
    ) -> SnbResult<T> {
        let kind = kind_index(op.kind());
        let id = if self.ids { request_id(op) } else { 0 };
        let _scope =
            self.profiles.as_ref().map(|p| QueryProfile::enter(Arc::clone(&p.per_kind[kind])));
        let start = now_ns();
        let result = call();
        let end = now_ns();
        self.sink.push(Span {
            id,
            start,
            end,
            kind: kind as u8,
            shard: self.shard,
            ok: result.is_ok(),
            rows: result.as_ref().map_or(0, |r| rows(r) as u32),
        });
        result
    }
}

/// Hash of `encode_operation(op)`: equal on both sides of the wire because
/// the server decodes exactly what the client encoded.
fn request_id(op: &Operation) -> u64 {
    thread_local! {
        static BUF: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
    }
    BUF.with(|buf| {
        let mut buf = buf.borrow_mut();
        buf.clear();
        snb_net::codec::encode_operation(op, &mut buf);
        // FNV-1a; never 0, which marks "not recorded".
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in buf.iter() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
        h | 1
    })
}

impl<C: Connector> Connector for Tap<C> {
    fn execute(&self, op: &Operation) -> SnbResult<OpOutcome> {
        self.record(op, || self.inner.execute(op), |out| out.rows)
    }

    fn execute_partial(&self, op: &Operation) -> SnbResult<PartialOutcome> {
        self.record(op, || self.inner.execute_partial(op), |_| 0)
    }

    fn counters(&self) -> Vec<(String, u64)> {
        self.inner.counters()
    }

    fn histograms(&self) -> Vec<(String, HistogramSnapshot)> {
        self.inner.histograms()
    }

    fn gct_horizon(&self) -> i64 {
        self.inner.gct_horizon()
    }
}

/// Where the time of one replay went, layer by layer. All `_ns` fields are
/// thread time: `driver_self + link_self + exec_blocking` sums to
/// `threads × wall`.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Waterfall {
    /// Driver threads × wall of the replay.
    pub thread_ns: u64,
    /// Thread time outside `Connector::execute`: scheduling, GCT waits,
    /// the driver's own bookkeeping. `thread_ns − Σ driver spans`; negative
    /// only if spans were recorded outside the wall, which is a bug.
    pub driver_self_ns: i64,
    /// Per driver span that crossed the wire: its duration minus the
    /// blocking child (the slowest shard's span). Client encode, syscalls,
    /// server loop, worker hand-off and — behind the router — routing,
    /// fan-out and merge.
    pub link_self: Vec<u64>,
    /// Per kind: time the driver span was blocked on execution — the whole
    /// span in-process, the slowest shard's span otherwise.
    pub exec_blocking_ns: [u64; KINDS],
    /// Per kind: execution time summed over every shard that ran it.
    pub exec_total_ns: [u64; KINDS],
    /// Per kind: driver spans.
    pub ops: [u64; KINDS],
    /// Per kind: server spans caused.
    pub server_spans: [u64; KINDS],
    /// Server spans for which no driver span with the same identifier
    /// contains them in time.
    pub orphans: u64,
}

impl Waterfall {
    pub fn link_self_ns(&self) -> u64 {
        self.link_self.iter().sum()
    }

    pub fn exec_blocking_total_ns(&self) -> u64 {
        self.exec_blocking_ns.iter().sum()
    }
}

/// Pair server spans with the driver spans that caused them and attribute
/// every nanosecond of `threads × wall` to a layer.
///
/// With no server spans at all the deployment is in-process: the driver
/// span *is* the execution and nothing is attributed to the link.
pub fn reduce(driver: &[Span], server: &[Span], thread_ns: u64) -> Waterfall {
    let mut w = Waterfall { thread_ns, ..Waterfall::default() };
    // children[i]: (shard, nanos) of the server spans paired with driver[i].
    let mut children: Vec<Vec<(u8, u64)>> = vec![Vec::new(); driver.len()];
    let mut by_id: HashMap<u64, Vec<usize>> = HashMap::new();
    for (i, d) in driver.iter().enumerate() {
        by_id.entry(d.id).or_default().push(i);
    }
    for s in server {
        let shard = s.shard.unwrap_or(0);
        let containing = || {
            by_id
                .get(&s.id)
                .into_iter()
                .flatten()
                .copied()
                .filter(|&i| driver[i].start <= s.start && s.end <= driver[i].end)
        };
        // Identical operations in flight at the same instant contain each
        // other's server spans; prefer the parent still missing this shard
        // so a fan-out is not credited twice to one of them. Either pairing
        // gives the same sums.
        let parent = containing()
            .find(|&i| children[i].iter().all(|c| c.0 != shard))
            .or_else(|| containing().next());
        match parent {
            Some(i) => children[i].push((shard, s.nanos())),
            None => w.orphans += 1,
        }
        w.server_spans[s.kind as usize] += 1;
    }
    let remote = !server.is_empty();
    let mut in_spans: u64 = 0;
    for (d, kids) in driver.iter().zip(&children) {
        let kind = d.kind as usize;
        let nanos = d.nanos();
        in_spans += nanos;
        w.ops[kind] += 1;
        if remote {
            // Shards run concurrently; the slowest sets the time.
            let blocking = kids.iter().map(|c| c.1).max().unwrap_or(0).min(nanos);
            w.exec_blocking_ns[kind] += blocking;
            w.exec_total_ns[kind] += kids.iter().map(|c| c.1).sum::<u64>();
            w.link_self.push(nanos - blocking);
        } else {
            w.exec_blocking_ns[kind] += nanos;
            w.exec_total_ns[kind] += nanos;
        }
    }
    w.driver_self_ns = thread_ns as i64 - in_spans as i64;
    w
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(id: u64, start: u64, end: u64, kind: u8) -> Span {
        Span { id, start, end, kind, shard: None, ok: true, rows: 0 }
    }

    fn s(id: u64, start: u64, end: u64, kind: u8, shard: u8) -> Span {
        Span { id, start, end, kind, shard: Some(shard), ok: true, rows: 0 }
    }

    #[test]
    fn kind_indices_round_trip_through_names() {
        assert_eq!(kind_name(kind_index(OpKind::Complex(1))), "Q1");
        assert_eq!(kind_name(kind_index(OpKind::Complex(14))), "Q14");
        assert_eq!(kind_name(kind_index(OpKind::Short(1))), "S1");
        assert_eq!(kind_name(kind_index(OpKind::Short(7))), "S7");
        assert_eq!(kind_name(kind_index(OpKind::Update(1))), "U1");
        assert_eq!(kind_index(OpKind::Update(8)), KINDS - 1);
    }

    #[test]
    fn in_process_spans_are_all_execution() {
        let w = reduce(&[d(0, 10, 40, 4), d(0, 50, 70, 4), d(0, 0, 100, 21)], &[], 300);
        assert_eq!(w.exec_blocking_ns[4], 50);
        assert_eq!(w.exec_blocking_ns[21], 100);
        assert_eq!(w.exec_total_ns, w.exec_blocking_ns);
        assert!(w.link_self.is_empty());
        assert_eq!(w.driver_self_ns, 150);
        assert_eq!(w.orphans, 0);
    }

    #[test]
    fn self_time_is_span_minus_child_and_layers_sum_to_thread_time() {
        let driver = [d(7, 100, 200, 0), d(9, 250, 300, 14)];
        let server = [s(7, 120, 180, 0, 0), s(9, 260, 270, 14, 0)];
        let w = reduce(&driver, &server, 400);
        assert_eq!(w.link_self, vec![40, 40]);
        assert_eq!(w.exec_blocking_ns[0], 60);
        assert_eq!(w.exec_blocking_ns[14], 10);
        assert_eq!(w.driver_self_ns, 250);
        assert_eq!(
            w.driver_self_ns as u64 + w.link_self_ns() + w.exec_blocking_total_ns(),
            w.thread_ns
        );
        assert_eq!(w.orphans, 0);
    }

    #[test]
    fn fan_out_blocks_on_the_slowest_shard() {
        let driver = [d(5, 0, 100, 1)];
        let server = [s(5, 10, 40, 1, 0), s(5, 12, 90, 1, 1)];
        let w = reduce(&driver, &server, 100);
        assert_eq!(w.exec_blocking_ns[1], 78, "slowest shard");
        assert_eq!(w.exec_total_ns[1], 30 + 78, "work done on both shards");
        assert_eq!(w.link_self, vec![22]);
        assert_eq!(w.server_spans[1], 2);
        assert_eq!(w.ops[1], 1);
        assert_eq!(w.driver_self_ns, 0);
    }

    #[test]
    fn identical_simultaneous_operations_each_get_one_child_per_shard() {
        // Two threads issue the same scatter at overlapping times; every
        // server span lies inside both driver spans.
        let driver = [d(3, 0, 100, 8), d(3, 5, 105, 8)];
        let server =
            [s(3, 20, 60, 8, 0), s(3, 22, 70, 8, 1), s(3, 24, 50, 8, 0), s(3, 26, 80, 8, 1)];
        let w = reduce(&driver, &server, 205);
        assert_eq!(w.orphans, 0);
        assert_eq!(w.server_spans[8], 4);
        // First parent gets (40, 48), second (26, 54): slowest of each.
        assert_eq!(w.exec_blocking_ns[8], 48 + 54);
        assert_eq!(w.exec_total_ns[8], 40 + 48 + 26 + 54);
        assert_eq!(w.link_self_ns(), 200 - 48 - 54);
    }

    #[test]
    fn a_server_span_outside_every_candidate_is_an_orphan() {
        let driver = [d(1, 0, 50, 0), d(2, 0, 50, 0)];
        // Right id, wrong time; right time, unknown id.
        let server = [s(1, 60, 70, 0, 0), s(4, 10, 20, 0, 0)];
        let w = reduce(&driver, &server, 100);
        assert_eq!(w.orphans, 2);
        assert_eq!(w.exec_blocking_total_ns(), 0);
        assert_eq!(w.link_self, vec![50, 50], "unpaired spans are all link time");
    }

    #[test]
    fn taps_record_one_span_per_call_and_forward_the_result() {
        use snb_driver::SleepConnector;
        use snb_queries::params::ShortQuery;
        let sink = SpanSink::new();
        let tap = Tap::driver(
            SleepConnector::new(std::time::Duration::from_micros(50)),
            Arc::clone(&sink),
            true,
        );
        let op = Operation::Short(ShortQuery::S3(snb_core::PersonId(7)));
        assert_eq!(tap.execute(&op).unwrap().rows, 1);
        assert!(tap.execute_partial(&op).is_err(), "refusals pass through");
        let spans = sink.drain();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].kind as usize, kind_index(OpKind::Short(3)));
        assert_eq!(spans[0].id, spans[1].id, "same operation, same identifier");
        assert_ne!(spans[0].id, 0);
        assert!(spans[0].ok && !spans[1].ok);
        assert!(spans[0].nanos() >= 50_000);
        assert!(sink.drain().is_empty());
    }
}
