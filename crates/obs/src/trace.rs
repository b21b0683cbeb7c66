//! Causal span tracing: lock-free per-thread span rings, scoped guards,
//! and Chrome `trace_event` export.
//!
//! Counters and histograms say *that* writers convoy; they cannot say
//! *where an individual operation's time went*. This module records causal
//! spans — named begin/end intervals with parent links — cheaply enough to
//! leave compiled into every tier:
//!
//! - **Disabled cost is one relaxed atomic load.** [`span`] and
//!   [`record_stage`] check a global activity gate before touching
//!   thread-local state; with tracing off the guard is a no-op.
//! - **Recording is lock-free and allocation-free.** Each thread owns a
//!   fixed-capacity ring of seqlock slots; the owning thread writes, the
//!   exporter reads concurrently and discards torn slots. Span names are
//!   interned once per call site (a `OnceLock<u32>` in a [`NameId`]
//!   static), so the hot path stores a `u32`, not a string.
//! - **Parent links come from a thread-local scope**, mirroring
//!   [`crate::QueryProfile`]'s guard idiom: the innermost live [`SpanGuard`]
//!   is the parent of any span begun under it, and [`record_stage`] lets
//!   instrumented stages attach retroactive child spans from timestamps
//!   they already took for histograms.
//! - **A sampling knob** ([`enable`]) keeps 1-in-N *root* spans; children
//!   follow their root's decision so sampled traces stay causally complete.
//! - **Remote stitching**: a server adopts a client's `(trace id, parent
//!   span id)` with [`start_capture`], records the request's spans into a
//!   side buffer, and returns them with [`take_capture`]; the client
//!   re-anchors their clock and files them under its wire span with
//!   [`record_foreign_rooted`], so one exported trace shows client queue →
//!   wire → server execution.
//!
//! [`export_chrome_trace`] renders everything as a Chrome `trace_event`
//! JSON document (load in `chrome://tracing` or Perfetto).

use crate::json::Json;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{fence, AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Spans retained per thread; older spans are overwritten (export keeps
/// the most recent window, which is what post-run analysis wants).
const RING_SLOTS: usize = 1 << 13;

/// Count of reasons tracing might be live anywhere (local [`enable`] plus
/// one per in-flight capture). Zero ⇒ every tracing entry point is a
/// single relaxed load and an early return.
static ACTIVE: AtomicU32 = AtomicU32::new(0);
/// Whether [`enable`] turned on process-local recording (vs. only a
/// server-side capture being live).
static LOCAL: AtomicBool = AtomicBool::new(false);
/// Keep 1-in-`SAMPLE` root spans (children follow their root).
static SAMPLE: AtomicU64 = AtomicU64::new(1);
/// Span/trace id allocator; 0 is reserved for "no span".
static NEXT_SPAN: AtomicU64 = AtomicU64::new(1);

/// Shared monotonic timebase: nanoseconds since the first tracing call in
/// this process. One clock for every thread, so spans interleave
/// correctly. Instrumented stages take nanosecond boundaries so their
/// histogram sums don't systematically undercount sub-microsecond stages.
pub fn now_nanos() -> u64 {
    static EPOCH: OnceLock<std::time::Instant> = OnceLock::new();
    EPOCH.get_or_init(std::time::Instant::now).elapsed().as_nanos() as u64
}

/// Microseconds on the [`now_nanos`] clock (truncating — a monotone
/// mapping, so span nesting survives the conversion).
pub fn now_micros() -> u64 {
    now_nanos() / 1_000
}

/// True when any tracing sink is live (cheapest possible check; callers
/// use it to skip taking timestamps for optional spans).
#[inline]
pub fn tracing_possible() -> bool {
    ACTIVE.load(Ordering::Relaxed) != 0
}

// ---- name interning ----

struct NameTable {
    names: Vec<&'static str>,
    index: BTreeMap<&'static str, u32>,
}

fn name_table() -> &'static Mutex<NameTable> {
    static TABLE: OnceLock<Mutex<NameTable>> = OnceLock::new();
    TABLE.get_or_init(|| Mutex::new(NameTable { names: Vec::new(), index: BTreeMap::new() }))
}

fn intern(name: &'static str) -> u32 {
    let mut t = name_table().lock().unwrap_or_else(|e| e.into_inner());
    if let Some(&id) = t.index.get(name) {
        return id;
    }
    let id = t.names.len() as u32;
    t.names.push(name);
    t.index.insert(name, id);
    id
}

fn name_of(id: u32) -> &'static str {
    let t = name_table().lock().unwrap_or_else(|e| e.into_inner());
    t.names.get(id as usize).copied().unwrap_or("?")
}

/// A span name interned once per call site. Declare as a `static` (the
/// [`crate::span!`] macro does) so the interner lock is taken at most once
/// per site, never on the hot path.
pub struct NameId {
    name: &'static str,
    id: OnceLock<u32>,
}

impl NameId {
    pub const fn new(name: &'static str) -> NameId {
        NameId { name, id: OnceLock::new() }
    }

    pub fn name(&self) -> &'static str {
        self.name
    }

    fn get(&self) -> u32 {
        *self.id.get_or_init(|| intern(self.name))
    }
}

/// Open a scoped span named by a `static` literal:
/// `let _s = snb_obs::span!("store.wal.append");`
#[macro_export]
macro_rules! span {
    ($name:literal) => {{
        static __SPAN_NAME: $crate::trace::NameId = $crate::trace::NameId::new($name);
        $crate::trace::span(&__SPAN_NAME)
    }};
}

// ---- per-thread span rings ----

/// Words per record: span id, parent id, trace id, start µs, duration µs,
/// `name_idx << 32 | tid`.
const WORDS: usize = 6;

/// One seqlock-protected record slot. Only the owning thread writes;
/// concurrent exporters read and discard torn slots (odd or changed
/// sequence). `seq == 0` means never written.
struct Slot {
    seq: AtomicU64,
    words: [AtomicU64; WORDS],
}

impl Slot {
    fn store(&self, rec: &[u64; WORDS]) {
        let s = self.seq.load(Ordering::Relaxed);
        self.seq.store(s.wrapping_add(1), Ordering::Relaxed); // odd: write in progress
        fence(Ordering::Release);
        for (w, v) in self.words.iter().zip(rec) {
            w.store(*v, Ordering::Relaxed);
        }
        fence(Ordering::Release);
        self.seq.store(s.wrapping_add(2), Ordering::Release);
    }

    fn load(&self) -> Option<[u64; WORDS]> {
        let s1 = self.seq.load(Ordering::Acquire);
        if s1 == 0 || s1 & 1 == 1 {
            return None;
        }
        let mut out = [0u64; WORDS];
        for (o, w) in out.iter_mut().zip(self.words.iter()) {
            *o = w.load(Ordering::Relaxed);
        }
        fence(Ordering::Acquire);
        (self.seq.load(Ordering::Relaxed) == s1).then_some(out)
    }
}

struct Ring {
    tid: u32,
    /// Next write position (monotonic; slot = head % RING_SLOTS). Published
    /// with release so an exporter's acquire load sees completed slots.
    head: AtomicU64,
    slots: Box<[Slot]>,
}

impl Ring {
    fn push(&self, rec: &[u64; WORDS]) {
        let head = self.head.load(Ordering::Relaxed);
        self.slots[(head % RING_SLOTS as u64) as usize].store(rec);
        self.head.store(head + 1, Ordering::Release);
    }
}

fn rings() -> &'static Mutex<Vec<Arc<Ring>>> {
    static RINGS: OnceLock<Mutex<Vec<Arc<Ring>>>> = OnceLock::new();
    RINGS.get_or_init(|| Mutex::new(Vec::new()))
}

/// Server-returned spans filed by [`record_foreign_rooted`], exported
/// under their own process lane.
fn foreign() -> &'static Mutex<Vec<SpanData>> {
    static FOREIGN: OnceLock<Mutex<Vec<SpanData>>> = OnceLock::new();
    FOREIGN.get_or_init(|| Mutex::new(Vec::new()))
}

// ---- thread-local tracing scope ----

struct TraceTls {
    ring: Option<Arc<Ring>>,
    /// Innermost live span: `(trace id, span id)`; `(0, 0)` = none.
    current: (u64, u64),
    /// Depth of spans suppressed by the sampling decision at their root.
    suppress: u32,
    /// Root spans begun on this thread, for the 1-in-N sampler.
    roots_seen: u64,
    /// Capture sink installed by [`start_capture`] (server side).
    capture: Option<Vec<SpanData>>,
}

thread_local! {
    static TLS: RefCell<TraceTls> = const {
        RefCell::new(TraceTls {
            ring: None,
            current: (0, 0),
            suppress: 0,
            roots_seen: 0,
            capture: None,
        })
    };
}

fn sink_record(tls: &mut TraceTls, data: [u64; WORDS]) {
    if let Some(cap) = &mut tls.capture {
        cap.push(SpanData::from_words(&data, "server"));
        return;
    }
    let ring = tls.ring.get_or_insert_with(|| {
        let mut all = rings().lock().unwrap_or_else(|e| e.into_inner());
        let ring = Arc::new(Ring {
            tid: all.len() as u32 + 1,
            head: AtomicU64::new(0),
            slots: (0..RING_SLOTS)
                .map(|_| Slot { seq: AtomicU64::new(0), words: Default::default() })
                .collect(),
        });
        all.push(Arc::clone(&ring));
        ring
    });
    let mut rec = data;
    rec[5] |= ring.tid as u64; // low 32 bits carry the thread lane
    ring.push(&rec);
}

// ---- public recording API ----

/// Scoped span handle; ends (and records) the span on drop. Obtain via
/// [`span`] or the [`crate::span!`] macro.
#[must_use = "dropping the guard immediately ends the span"]
pub struct SpanGuard {
    kind: GuardKind,
}

enum GuardKind {
    /// Tracing was off at creation; drop does nothing.
    Inactive,
    /// Root was sampled out; drop pops one suppression level.
    Suppressed,
    Active {
        name: u32,
        trace_id: u64,
        span_id: u64,
        parent_id: u64,
        start_us: u64,
        prev: (u64, u64),
    },
}

impl SpanGuard {
    /// This span's id (0 when the guard is inactive/suppressed).
    pub fn span_id(&self) -> u64 {
        match self.kind {
            GuardKind::Active { span_id, .. } => span_id,
            _ => 0,
        }
    }

    /// The trace this span belongs to (0 when inactive/suppressed).
    pub fn trace_id(&self) -> u64 {
        match self.kind {
            GuardKind::Active { trace_id, .. } => trace_id,
            _ => 0,
        }
    }

    /// Begin timestamp on the [`now_micros`] clock (0 when inactive).
    pub fn start_us(&self) -> u64 {
        match self.kind {
            GuardKind::Active { start_us, .. } => start_us,
            _ => 0,
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        match self.kind {
            GuardKind::Inactive => {}
            GuardKind::Suppressed => TLS.with(|tls| {
                let mut tls = tls.borrow_mut();
                tls.suppress = tls.suppress.saturating_sub(1);
            }),
            GuardKind::Active { name, trace_id, span_id, parent_id, start_us, prev } => {
                let end = now_micros();
                TLS.with(|tls| {
                    let mut tls = tls.borrow_mut();
                    tls.current = prev;
                    sink_record(
                        &mut tls,
                        make_words(name, trace_id, span_id, parent_id, start_us, end),
                    );
                });
            }
        }
    }
}

fn make_words(
    name: u32,
    trace_id: u64,
    span_id: u64,
    parent_id: u64,
    start_us: u64,
    end_us: u64,
) -> [u64; WORDS] {
    [span_id, parent_id, trace_id, start_us, end_us.saturating_sub(start_us), (name as u64) << 32]
}

/// Begin a span. With tracing fully off this is one relaxed load and a
/// trivially constructed guard. A span begun with no live parent is a
/// *root*: it allocates a fresh trace id and is subject to the sampling
/// knob; spans begun under it inherit its trace and record unconditionally.
#[inline]
pub fn span(name: &NameId) -> SpanGuard {
    if !tracing_possible() {
        return SpanGuard { kind: GuardKind::Inactive };
    }
    span_slow(name)
}

#[cold]
fn span_slow(name: &NameId) -> SpanGuard {
    TLS.with(|tls| {
        let mut tls = tls.borrow_mut();
        if tls.suppress > 0 {
            tls.suppress += 1;
            return SpanGuard { kind: GuardKind::Suppressed };
        }
        if tls.capture.is_none() && !LOCAL.load(Ordering::Relaxed) {
            // Some other thread's capture flipped the global gate; this
            // thread has no sink.
            return SpanGuard { kind: GuardKind::Inactive };
        }
        let (trace_id, parent_id) = tls.current;
        let (trace_id, parent_id) = if trace_id == 0 {
            // Root span: apply the sampler (captures record everything —
            // the client already made the sampling decision).
            if tls.capture.is_none() {
                tls.roots_seen += 1;
                let every = SAMPLE.load(Ordering::Relaxed).max(1);
                if (tls.roots_seen - 1) % every != 0 {
                    tls.suppress = 1;
                    return SpanGuard { kind: GuardKind::Suppressed };
                }
            }
            (0, 0)
        } else {
            (trace_id, parent_id)
        };
        let span_id = NEXT_SPAN.fetch_add(1, Ordering::Relaxed);
        let trace_id = if trace_id == 0 { span_id } else { trace_id };
        let prev = tls.current;
        tls.current = (trace_id, span_id);
        SpanGuard {
            kind: GuardKind::Active {
                name: name.get(),
                trace_id,
                span_id,
                parent_id,
                start_us: now_micros(),
                prev,
            },
        }
    })
}

/// Record a completed stage `[start_us, end_us]` as a child of the
/// innermost live span. This is how instrumented pipelines (the store's
/// write stages) turn timestamps they already took for histograms into
/// spans without nesting guards through their control flow. No live
/// span, suppressed root, or tracing off ⇒ no-op.
#[inline]
pub fn record_stage(name: &NameId, start_us: u64, end_us: u64) {
    if !tracing_possible() {
        return;
    }
    record_stage_slow(name, start_us, end_us);
}

#[cold]
fn record_stage_slow(name: &NameId, start_us: u64, end_us: u64) {
    TLS.with(|tls| {
        let mut tls = tls.borrow_mut();
        if tls.suppress > 0 || tls.current.1 == 0 {
            return;
        }
        if tls.capture.is_none() && !LOCAL.load(Ordering::Relaxed) {
            return;
        }
        let (trace_id, parent_id) = tls.current;
        let span_id = NEXT_SPAN.fetch_add(1, Ordering::Relaxed);
        sink_record(
            &mut tls,
            make_words(name.get(), trace_id, span_id, parent_id, start_us, end_us),
        );
    });
}

/// `(trace id, span id)` of the innermost live span on this thread — the
/// context a client propagates across the wire. `None` when tracing is
/// off, the root was sampled out, or no span is open.
#[cfg(test)]
fn current_context() -> Option<(u64, u64)> {
    if !tracing_possible() {
        return None;
    }
    TLS.with(|tls| {
        let tls = tls.borrow();
        (tls.suppress == 0 && tls.current.1 != 0).then_some(tls.current)
    })
}

// ---- enable / disable ----

/// Turn on process-local recording, keeping 1-in-`sample_every` root spans
/// (children always follow their root). Idempotent; `sample_every` is
/// clamped to ≥ 1 and may be changed by calling again.
pub fn enable(sample_every: u64) {
    SAMPLE.store(sample_every.max(1), Ordering::Relaxed);
    if !LOCAL.swap(true, Ordering::Relaxed) {
        ACTIVE.fetch_add(1, Ordering::Relaxed);
    }
}

/// Turn process-local recording back off (captures in flight elsewhere
/// stay live). Already-recorded spans remain exportable.
pub fn disable() {
    if LOCAL.swap(false, Ordering::Relaxed) {
        ACTIVE.fetch_sub(1, Ordering::Relaxed);
    }
}

// ---- remote capture (server side) ----

/// Adopt a remote trace context on this thread: until [`take_capture`],
/// spans recorded here append to a side buffer (rather than the thread
/// ring) with the given trace id, and the first span opened becomes a
/// child of `parent_span`. Capture ignores the sampling knob — the remote
/// client already sampled. One capture per thread at a time; a second
/// `start_capture` replaces the first.
pub fn start_capture(trace_id: u64, parent_span: u64) {
    TLS.with(|tls| {
        let mut tls = tls.borrow_mut();
        if tls.capture.is_none() {
            ACTIVE.fetch_add(1, Ordering::Relaxed);
        }
        tls.capture = Some(Vec::new());
        tls.current = (trace_id.max(1), parent_span);
        tls.suppress = 0;
    });
}

/// End this thread's capture and return its spans (empty without a prior
/// [`start_capture`]).
pub fn take_capture() -> Vec<SpanData> {
    TLS.with(|tls| {
        let mut tls = tls.borrow_mut();
        match tls.capture.take() {
            Some(spans) => {
                ACTIVE.fetch_sub(1, Ordering::Relaxed);
                tls.current = (0, 0);
                spans
            }
            None => Vec::new(),
        }
    })
}

// ---- export ----

/// One completed span, resolved for export.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanData {
    pub trace_id: u64,
    pub span_id: u64,
    pub parent_id: u64,
    pub name: String,
    /// Begin time on the exporting process's [`now_micros`] clock.
    pub start_us: u64,
    pub dur_us: u64,
    /// Thread lane (ring id locally; the remote's lane for foreign spans).
    pub tid: u32,
    /// Process lane for the Chrome export: `"driver"` or `"server"`.
    pub process: &'static str,
}

impl SpanData {
    fn from_words(w: &[u64; WORDS], process: &'static str) -> SpanData {
        SpanData {
            span_id: w[0],
            parent_id: w[1],
            trace_id: w[2],
            start_us: w[3],
            dur_us: w[4],
            name: name_of((w[5] >> 32) as u32).to_string(),
            tid: (w[5] & 0xffff_ffff) as u32,
            process,
        }
    }
}

/// File a foreign batch and graft its root onto a local span.
///
/// The remote allocated its span ids independently, so every id is
/// remapped into this process's allocator space and in-batch parent links
/// follow the remap. Parent ids that name spans *outside* the batch live
/// in a different id space and cannot be resolved here — which is why the
/// batch root must carry the sentinel `parent_id == 0` (what
/// [`start_capture`] produces when given parent 0): after remapping, every
/// sentinel parent is rewritten to `root_parent`. Passing a real remote
/// parent id instead is unsound — if it collided with another remote id in
/// the batch, the remap would silently rewire the root to a sibling.
pub fn record_foreign_rooted(mut spans: Vec<SpanData>, root_parent: u64) {
    let remap: BTreeMap<u64, u64> =
        spans.iter().map(|s| (s.span_id, NEXT_SPAN.fetch_add(1, Ordering::Relaxed))).collect();
    for s in &mut spans {
        s.span_id = remap[&s.span_id];
        if s.parent_id == 0 {
            s.parent_id = root_parent;
        } else if let Some(&p) = remap.get(&s.parent_id) {
            s.parent_id = p;
        }
    }
    foreign().lock().unwrap_or_else(|e| e.into_inner()).extend(spans);
}

/// Snapshot every recorded span — all thread rings plus foreign spans —
/// sorted by start time. Non-destructive; slots being overwritten
/// mid-read are skipped rather than exported torn.
pub fn drain() -> Vec<SpanData> {
    let mut out = Vec::new();
    for ring in rings().lock().unwrap_or_else(|e| e.into_inner()).iter() {
        let head = ring.head.load(Ordering::Acquire);
        let first = head.saturating_sub(RING_SLOTS as u64);
        for i in first..head {
            if let Some(words) = ring.slots[(i % RING_SLOTS as u64) as usize].load() {
                out.push(SpanData::from_words(&words, "driver"));
            }
        }
    }
    out.extend(foreign().lock().unwrap_or_else(|e| e.into_inner()).iter().cloned());
    out.sort_by_key(|s| (s.start_us, s.span_id));
    out
}

/// Render spans as a Chrome `trace_event` document (complete `"X"` events
/// plus process-name metadata; open in `chrome://tracing` or Perfetto).
/// Span/trace/parent ids ride in `args` so tools and the CI validator can
/// check causal nesting.
pub fn export_chrome_trace(spans: &[SpanData]) -> Json {
    let pid = |process: &str| if process == "server" { 2u64 } else { 1u64 };
    let mut events: Vec<Json> = Vec::with_capacity(spans.len() + 2);
    let mut seen_proc = [false; 2];
    for s in spans {
        seen_proc[(pid(s.process) - 1) as usize] = true;
    }
    for (i, name) in ["driver", "server"].iter().enumerate() {
        if seen_proc[i] {
            events.push(Json::obj([
                ("name", Json::from("process_name")),
                ("ph", Json::from("M")),
                ("pid", Json::from(i as u64 + 1)),
                ("tid", Json::from(0u64)),
                ("args", Json::obj([("name", Json::from(*name))])),
            ]));
        }
    }
    for s in spans {
        events.push(Json::obj([
            ("name", Json::from(s.name.as_str())),
            ("cat", Json::from("snb")),
            ("ph", Json::from("X")),
            ("ts", Json::from(s.start_us)),
            ("dur", Json::from(s.dur_us)),
            ("pid", Json::from(pid(s.process))),
            ("tid", Json::from(s.tid as u64)),
            (
                "args",
                Json::obj([
                    ("trace_id", Json::from(s.trace_id)),
                    ("span_id", Json::from(s.span_id)),
                    ("parent_id", Json::from(s.parent_id)),
                ]),
            ),
        ]));
    }
    Json::obj([("displayTimeUnit", Json::from("ms")), ("traceEvents", Json::Arr(events))])
}

/// Check causal nesting: every span whose parent is present must lie
/// within its parent's `[start, end]` interval (ring overwrite can evict a
/// parent; such orphans are skipped, not errors). Parent lookup is scoped
/// by trace id — span ids from different traces never pair up. Returns the
/// number of verified child→parent links.
pub fn validate_nesting(spans: &[SpanData]) -> Result<usize, String> {
    let by_id: BTreeMap<(u64, u64), &SpanData> =
        spans.iter().map(|s| ((s.trace_id, s.span_id), s)).collect();
    let mut checked = 0;
    for s in spans {
        if s.parent_id == 0 {
            continue;
        }
        let Some(parent) = by_id.get(&(s.trace_id, s.parent_id)) else { continue };
        let (ps, pe) = (parent.start_us, parent.start_us + parent.dur_us);
        let (cs, ce) = (s.start_us, s.start_us + s.dur_us);
        if cs < ps || ce > pe {
            return Err(format!(
                "span {} '{}' [{cs}, {ce}] escapes parent {} '{}' [{ps}, {pe}]",
                s.span_id, s.name, parent.span_id, parent.name
            ));
        }
        checked += 1;
    }
    Ok(checked)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tests share process-global tracing state; serialize them and filter
    /// drained spans by the trace ids each test created.
    fn locked() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    static ROOT: NameId = NameId::new("test.root");
    static CHILD: NameId = NameId::new("test.child");
    static STAGE: NameId = NameId::new("test.stage");

    fn spans_of(trace_ids: &[u64]) -> Vec<SpanData> {
        drain().into_iter().filter(|s| trace_ids.contains(&s.trace_id)).collect()
    }

    #[test]
    fn disabled_records_nothing_and_reports_no_context() {
        let _l = locked();
        disable();
        assert!(current_context().is_none());
        let g = span(&ROOT);
        assert_eq!(g.span_id(), 0);
        record_stage(&STAGE, 1, 2);
        drop(g);
        // No panic, no context — the disabled path never touches TLS.
        assert!(current_context().is_none());
    }

    #[test]
    fn spans_nest_and_record_parent_links() {
        let _l = locked();
        enable(1);
        let trace;
        {
            let root = span(&ROOT);
            trace = root.trace_id();
            assert_eq!(current_context(), Some((trace, root.span_id())));
            {
                let child = span(&CHILD);
                assert_eq!(child.trace_id(), trace);
                record_stage(&STAGE, child.start_us(), now_micros());
            }
            assert_eq!(current_context(), Some((trace, root.span_id())));
        }
        assert!(current_context().is_none());
        disable();

        let spans = spans_of(&[trace]);
        assert_eq!(spans.len(), 3, "root + child + stage: {spans:#?}");
        let root = spans.iter().find(|s| s.name == "test.root").unwrap();
        let child = spans.iter().find(|s| s.name == "test.child").unwrap();
        let stage = spans.iter().find(|s| s.name == "test.stage").unwrap();
        assert_eq!(root.parent_id, 0);
        assert_eq!(child.parent_id, root.span_id);
        assert_eq!(stage.parent_id, child.span_id);
        assert_eq!(validate_nesting(&spans), Ok(2));
    }

    #[test]
    fn sampler_keeps_one_in_n_roots_with_children_following() {
        let _l = locked();
        enable(4);
        let mut traces = Vec::new();
        for _ in 0..16 {
            let root = span(&ROOT);
            let _child = span(&CHILD);
            if root.span_id() != 0 {
                traces.push(root.trace_id());
            }
        }
        disable();
        enable(1); // restore default for other tests
        disable();
        assert_eq!(traces.len(), 4, "1-in-4 sampling over 16 roots");
        let spans = spans_of(&traces);
        // Every kept root kept its child too.
        assert_eq!(spans.iter().filter(|s| s.name == "test.root").count(), 4);
        assert_eq!(spans.iter().filter(|s| s.name == "test.child").count(), 4);
    }

    #[test]
    fn capture_adopts_remote_context_and_bypasses_local_state() {
        let _l = locked();
        // No local enable: only the capture is live.
        start_capture(777, 42);
        {
            let root = span(&ROOT);
            assert_eq!(root.trace_id(), 777);
            let _child = span(&CHILD);
        }
        let captured = take_capture();
        assert!(current_context().is_none());
        assert_eq!(captured.len(), 2);
        let root = captured.iter().find(|s| s.name == "test.root").unwrap();
        assert_eq!(root.trace_id, 777);
        assert_eq!(root.parent_id, 42, "capture root links to the remote parent span");
        assert_eq!(root.process, "server");
        assert!(!tracing_possible(), "capture end must release the global gate");
        // Nothing leaked into the local rings.
        assert!(spans_of(&[777]).is_empty());
    }

    #[test]
    fn concurrent_and_serial_recording_agree_under_the_ring_sampler() {
        let _l = locked();
        const THREADS: usize = 4;
        const PER_THREAD: usize = 50;
        enable(1);
        // Serial baseline on this thread.
        let mut serial_traces = Vec::new();
        for _ in 0..PER_THREAD {
            let root = span(&ROOT);
            let _c = span(&CHILD);
            serial_traces.push(root.trace_id());
        }
        // Concurrent: THREADS threads record the same shape into their own
        // rings; nothing is lost and every parent link survives.
        let concurrent: Mutex<Vec<u64>> = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for _ in 0..THREADS {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    for _ in 0..PER_THREAD {
                        let root = span(&ROOT);
                        let _c = span(&CHILD);
                        mine.push(root.trace_id());
                    }
                    concurrent.lock().unwrap().extend(mine);
                });
            }
        });
        disable();
        let concurrent = concurrent.into_inner().unwrap();

        let serial = spans_of(&serial_traces);
        let parallel = spans_of(&concurrent);
        assert_eq!(serial.len(), PER_THREAD * 2);
        assert_eq!(parallel.len(), THREADS * PER_THREAD * 2, "concurrent recording lost spans");
        for spans in [&serial, &parallel] {
            let roots = spans.iter().filter(|s| s.name == "test.root").count();
            let children = spans.iter().filter(|s| s.name == "test.child").count();
            assert_eq!(roots, children, "every root kept exactly one child");
            validate_nesting(spans).expect("all links nest");
        }
        // Per-trace shape identical between the two modes.
        for t in &concurrent {
            assert_eq!(parallel.iter().filter(|s| s.trace_id == *t).count(), 2);
        }
    }

    #[test]
    fn chrome_export_is_well_formed() {
        let _l = locked();
        enable(1);
        let trace;
        {
            let root = span(&ROOT);
            trace = root.trace_id();
            let _child = span(&CHILD);
        }
        disable();
        record_foreign_rooted(
            vec![SpanData {
                trace_id: trace,
                span_id: u64::MAX - 1,
                parent_id: 0,
                name: "server.execute".into(),
                start_us: 1,
                dur_us: 1,
                tid: 9,
                process: "server",
            }],
            0,
        );
        let spans = spans_of(&[trace]);
        let doc = export_chrome_trace(&spans);
        let text = doc.render();
        assert!(text.contains("\"traceEvents\""));
        assert!(text.contains("\"ph\":\"X\""));
        assert!(text.contains("\"process_name\""));
        assert!(text.contains("\"server\""), "foreign span must add the server process lane");
        assert!(text.contains("\"parent_id\""));
    }

    #[test]
    #[ignore = "micro-benchmark: cargo test -p snb-obs --release -- --ignored --nocapture"]
    fn disabled_span_cost_is_one_relaxed_load() {
        let _l = locked();
        disable();
        const N: u64 = 50_000_000;
        let start = std::time::Instant::now();
        for _ in 0..N {
            let _g = span(&ROOT);
        }
        let total = start.elapsed().as_nanos() as u64;
        println!("disabled span(): {:.2} ns/call over {N} calls", total as f64 / N as f64);
    }

    #[test]
    fn foreign_remap_survives_cross_process_id_collisions() {
        let _l = locked();
        enable(1);
        let (trace, wire_id, wire_start);
        {
            let wire = span(&ROOT);
            trace = wire.trace_id();
            wire_id = wire.span_id();
            wire_start = wire.start_us();
        }
        disable();
        // A remote batch allocated ids from its own counter, and one of
        // them happens to equal the local wire span's id — the exact
        // collision a two-process loopback run produces. The root carries
        // sentinel parent 0 and is recorded last (capture order).
        let mk = |span_id, parent_id, name: &str| SpanData {
            trace_id: trace,
            span_id,
            parent_id,
            name: name.into(),
            start_us: wire_start,
            dur_us: 0,
            tid: 7,
            process: "server",
        };
        record_foreign_rooted(
            vec![mk(wire_id, 9, "server.child"), mk(9, 0, "server.execute")],
            wire_id,
        );
        let spans = spans_of(&[trace]);
        assert_eq!(spans.len(), 3, "{spans:#?}");
        let execute = spans.iter().find(|s| s.name == "server.execute").unwrap();
        let child = spans.iter().find(|s| s.name == "server.child").unwrap();
        // The root grafts onto the wire span — not onto whichever remapped
        // sibling inherited a colliding id — and in-batch links follow the
        // remap into fresh, locally unique ids.
        assert_eq!(execute.parent_id, wire_id);
        assert_eq!(child.parent_id, execute.span_id);
        assert_ne!(execute.span_id, wire_id);
        assert_ne!(child.span_id, wire_id);
        validate_nesting(&spans).expect("stitched batch nests under the wire span");
    }

    #[test]
    fn validate_nesting_rejects_escaping_children() {
        let mk = |span_id, parent_id, start_us, dur_us| SpanData {
            trace_id: 1,
            span_id,
            parent_id,
            name: "s".into(),
            start_us,
            dur_us,
            tid: 1,
            process: "driver",
        };
        let good = vec![mk(1, 0, 10, 100), mk(2, 1, 20, 30)];
        assert_eq!(validate_nesting(&good), Ok(1));
        let bad = vec![mk(1, 0, 10, 100), mk(2, 1, 90, 30)];
        assert!(validate_nesting(&bad).is_err());
        // An orphan (evicted parent) is skipped, not an error.
        let orphan = vec![mk(2, 99, 20, 30)];
        assert_eq!(validate_nesting(&orphan), Ok(0));
    }
}
