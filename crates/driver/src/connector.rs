//! Database connectors.
//!
//! The driver is system-agnostic: it hands operations to a [`Connector`].
//! [`StoreConnector`] targets the in-workspace `snb-store`;
//! [`SleepConnector`] is the paper's §4.2 "dummy database connector that,
//! rather than executing transactions against a database, simply sleeps for
//! a configured duration" — the instrument behind the driver-scalability
//! experiment (Table 5).

use snb_core::update::UpdateOp;
use snb_core::{MessageId, PersonId, SimTime, SnbError, SnbResult};
use snb_obs::trace::NameId;
use snb_obs::HistogramSnapshot;
use snb_queries::params::{ComplexQuery, ShortQuery};
use snb_queries::sharded::Partial;
use snb_queries::{complex, sharded, short, Engine};
use snb_store::Store;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// One operation of the interactive workload.
#[derive(Debug, Clone)]
pub enum Operation {
    /// A transactional update (U1–U8).
    Update(UpdateOp),
    /// A complex read (Q1–Q14).
    Complex(ComplexQuery),
    /// A short read (S1–S7).
    Short(ShortQuery),
}

/// Classification used by the metrics recorder: `(class, 1-based number)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// Update Ui.
    Update(usize),
    /// Complex read Qi.
    Complex(usize),
    /// Short read Si.
    Short(usize),
}

/// Each kind's root span name, in [`OpKind::index`] order. `--trace`
/// consumers read these names; [`OpKind::label`] is the part after `op.`.
static SPAN_NAMES: [NameId; OpKind::COUNT] = [
    NameId::new("op.Q1"),
    NameId::new("op.Q2"),
    NameId::new("op.Q3"),
    NameId::new("op.Q4"),
    NameId::new("op.Q5"),
    NameId::new("op.Q6"),
    NameId::new("op.Q7"),
    NameId::new("op.Q8"),
    NameId::new("op.Q9"),
    NameId::new("op.Q10"),
    NameId::new("op.Q11"),
    NameId::new("op.Q12"),
    NameId::new("op.Q13"),
    NameId::new("op.Q14"),
    NameId::new("op.S1"),
    NameId::new("op.S2"),
    NameId::new("op.S3"),
    NameId::new("op.S4"),
    NameId::new("op.S5"),
    NameId::new("op.S6"),
    NameId::new("op.S7"),
    NameId::new("op.U1"),
    NameId::new("op.U2"),
    NameId::new("op.U3"),
    NameId::new("op.U4"),
    NameId::new("op.U5"),
    NameId::new("op.U6"),
    NameId::new("op.U7"),
    NameId::new("op.U8"),
];

impl OpKind {
    /// Number of kinds: Q1–Q14, S1–S7 and U1–U8.
    pub const COUNT: usize = 29;

    /// Dense index: Q1–Q14 → 0–13, S1–S7 → 14–20, U1–U8 → 21–28, so
    /// ascending index is the report order. Panics on a number outside
    /// the workload.
    pub fn index(self) -> usize {
        let (first, n, len) = match self {
            OpKind::Complex(n) => (0, n, 14),
            OpKind::Short(n) => (14, n, 7),
            OpKind::Update(n) => (21, n, 8),
        };
        assert!((1..=len).contains(&n), "{self:?} is not an SNB-Interactive operation");
        first + n - 1
    }

    /// The kind at a dense index; the inverse of [`OpKind::index`].
    pub fn from_index(i: usize) -> OpKind {
        match i {
            0..14 => OpKind::Complex(i + 1),
            14..21 => OpKind::Short(i - 13),
            21..29 => OpKind::Update(i - 20),
            _ => panic!("kind index {i} is out of range"),
        }
    }

    /// `Q1` … `Q14`, `S1` … `S7`, `U1` … `U8`.
    pub fn label(self) -> &'static str {
        &self.span_name().name()["op.".len()..]
    }

    /// The root span of one operation of this kind: `op.` + its label.
    pub fn span_name(self) -> &'static NameId {
        &SPAN_NAMES[self.index()]
    }
}

impl Operation {
    /// Kind for metrics.
    pub fn kind(&self) -> OpKind {
        match self {
            Operation::Update(u) => OpKind::Update(u.query_number()),
            Operation::Complex(q) => OpKind::Complex(q.number()),
            Operation::Short(s) => OpKind::Short(s.number()),
        }
    }
}

/// What an execution returned: a row count plus optional anchors the
/// short-read random walk can continue from (§4: "results of the
/// [complex] queries become input for simple read-only queries").
#[derive(Debug, Clone, Copy, Default)]
pub struct OpOutcome {
    /// Result rows (or 1 for a successful update).
    pub rows: usize,
    /// A person surfaced by the result.
    pub seed_person: Option<PersonId>,
    /// A message surfaced by the result.
    pub seed_message: Option<MessageId>,
}

/// A shard's reply to a scattered read: the mergeable partial result plus
/// the shard-local walk-seed candidate — the most recent message the
/// query's anchor person authored *on this shard*, with its creation
/// date. A sharded router takes the `(date, id)`-max candidate across
/// shards, which reproduces exactly the seed a single-process
/// [`StoreConnector`] derives (`recent_messages_walk` goes newest-first
/// under the same `(date, id)` order), so the driver's short-read walk is
/// deployment-independent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartialOutcome {
    /// The shard-local partial result for the client-side merge.
    pub partial: Partial,
    /// This shard's walk-seed candidate for the op's anchor person.
    pub seed: Option<(MessageId, SimTime)>,
}

/// An execution target.
pub trait Connector: Send + Sync {
    /// Execute one operation to completion.
    fn execute(&self, op: &Operation) -> SnbResult<OpOutcome>;

    /// Runtime counters of the system under test, as `(name, value)` pairs
    /// for the full-disclosure report. Default: none.
    fn counters(&self) -> Vec<(String, u64)> {
        Vec::new()
    }

    /// Latency distributions of the system under test — write-pipeline
    /// stage histograms, WAL fsync, stripe waits — as full
    /// [`HistogramSnapshot`]s, not scalar summaries, so a remote run's
    /// full disclosure equals an in-process run's. Default: none.
    fn histograms(&self) -> Vec<(String, HistogramSnapshot)> {
        Vec::new()
    }

    /// Execute the shard-local half of a scatterable read and return its
    /// [`Partial`] for a client-side merge (see `snb_queries::sharded`),
    /// plus this shard's walk-seed candidate. Only meaningful on targets
    /// that hold a shard (or the whole graph); the default refuses so
    /// non-sharded connectors stay oblivious.
    fn execute_partial(&self, op: &Operation) -> SnbResult<PartialOutcome> {
        let _ = op;
        Err(SnbError::Config("connector does not support partial execution".into()))
    }

    /// High-water mark (creation date, millis) of the *replicated* updates
    /// this target has applied — AddPerson and AddFriendship, the rows
    /// every shard must hold before dependent operations touch them. A
    /// sharded driver compares each shard's horizon against the updates it
    /// broadcast to verify the GCT dependency-visibility invariant.
    /// Default: 0 (nothing replicated, nothing to verify).
    fn gct_horizon(&self) -> i64 {
        0
    }
}

/// Shared connectors delegate: callers that must keep a handle after the
/// run (e.g. for a post-run GCT verification RPC) can hand the driver an
/// `Arc` of the same instance.
impl<T: Connector + ?Sized> Connector for Arc<T> {
    fn execute(&self, op: &Operation) -> SnbResult<OpOutcome> {
        (**self).execute(op)
    }

    fn counters(&self) -> Vec<(String, u64)> {
        (**self).counters()
    }

    fn histograms(&self) -> Vec<(String, HistogramSnapshot)> {
        (**self).histograms()
    }

    fn execute_partial(&self, op: &Operation) -> SnbResult<PartialOutcome> {
        (**self).execute_partial(op)
    }

    fn gct_horizon(&self) -> i64 {
        (**self).gct_horizon()
    }
}

/// Connector running against the in-workspace store.
///
/// Partition threads call [`Connector::execute`] concurrently on one
/// shared instance. Since the store's latch-free read / striped-write
/// path (DESIGN.md "Concurrency model"), those calls genuinely run in
/// parallel: updates touching different entity stripes commit
/// concurrently and queries never block behind a writer, so partition
/// count translates to real SUT-side parallelism instead of queueing on
/// a global store latch.
pub struct StoreConnector {
    store: Arc<Store>,
    engine: Engine,
    /// Max creation date of applied replicated updates (AddPerson /
    /// AddFriendship) — the value [`Connector::gct_horizon`] reports.
    replicated_horizon: AtomicI64,
}

impl StoreConnector {
    /// Wrap a store; complex reads run on the given engine.
    pub fn new(store: Arc<Store>, engine: Engine) -> StoreConnector {
        StoreConnector { store, engine, replicated_horizon: AtomicI64::new(0) }
    }

    /// The wrapped store.
    pub fn store(&self) -> &Arc<Store> {
        &self.store
    }
}

impl Connector for StoreConnector {
    fn counters(&self) -> Vec<(String, u64)> {
        // Bring the store.mem.* gauges up to date so the report carries
        // measured footprints, not whatever the last refresh saw.
        self.store.refresh_mem_gauges();
        self.store
            .counters()
            .snapshot()
            .into_iter()
            .map(|(name, value)| (name.to_string(), value))
            .collect()
    }

    fn histograms(&self) -> Vec<(String, HistogramSnapshot)> {
        self.store.counters().histogram_snapshots()
    }

    fn execute(&self, op: &Operation) -> SnbResult<OpOutcome> {
        match op {
            Operation::Update(u) => {
                self.store.apply(u)?;
                // Inside the measured window: load first, and pay the RMW
                // only when this update raises the horizon.
                let date = u.creation_date().0;
                if matches!(u, UpdateOp::AddPerson(_) | UpdateOp::AddFriendship(_))
                    && date > self.replicated_horizon.load(Ordering::Relaxed)
                {
                    self.replicated_horizon.fetch_max(date, Ordering::Release);
                }
                Ok(OpOutcome { rows: 1, ..Default::default() })
            }
            Operation::Complex(q) => {
                let snap = self.store.pinned();
                let rows = complex::run_complex(&snap, self.engine, q);
                // Seed the random walk with the query's anchor person and —
                // for message-touching queries only — one of their recent
                // messages. Q1/Q11/Q13 read persons and knows alone, so
                // they seed no message: those tables are replicated on
                // every shard, which keeps the walk identical whether the
                // query ran against the whole graph or one shard's slice.
                let person = anchor_person(q);
                let seed_message = match q {
                    ComplexQuery::Q1(_) | ComplexQuery::Q11(_) | ComplexQuery::Q13(_) => None,
                    _ => person.and_then(|p| {
                        snap.recent_messages_walk(p, snb_core::SimTime(i64::MAX))
                            .next()
                            .map(|(m, _)| MessageId(m))
                    }),
                };
                Ok(OpOutcome { rows, seed_person: person, seed_message })
            }
            Operation::Short(s) => {
                let snap = self.store.pinned();
                let rows = short::run_short(&snap, s);
                let (seed_person, seed_message) = match *s {
                    ShortQuery::S2(p) => {
                        let m = snap
                            .recent_messages_walk(p, snb_core::SimTime(i64::MAX))
                            .next()
                            .map(|(m, _)| MessageId(m));
                        (Some(p), m)
                    }
                    ShortQuery::S3(p) => {
                        let f = snap.friends_iter(p).next().map(|(f, _)| PersonId(f));
                        (f, None)
                    }
                    ShortQuery::S5(m) => (snap.message_meta(m).map(|meta| meta.author), Some(m)),
                    ShortQuery::S7(m) => {
                        let r = snap.replies_of_iter(m).next().map(|(r, _)| MessageId(r));
                        (None, r.or(Some(m)))
                    }
                    ShortQuery::S1(p) => (Some(p), None),
                    ShortQuery::S4(m) | ShortQuery::S6(m) => (None, Some(m)),
                };
                Ok(OpOutcome { rows, seed_person, seed_message })
            }
        }
    }

    fn execute_partial(&self, op: &Operation) -> SnbResult<PartialOutcome> {
        let snap = self.store.pinned();
        let partial = match op {
            Operation::Complex(q) => sharded::partial(&snap, self.engine, q).ok_or_else(|| {
                SnbError::Config(format!(
                    "Q{} reads replicated data only, not scatterable",
                    q.number()
                ))
            })?,
            Operation::Short(s) => sharded::partial_short(&snap, s).ok_or_else(|| {
                SnbError::Config(format!("S{} is a point lookup, not scatterable", s.number()))
            })?,
            Operation::Update(_) => {
                return Err(SnbError::Config("updates have no partial execution".into()))
            }
        };
        // The same anchor + recent-message seed `execute` derives, but
        // over this shard's slice only — the router maxes across shards.
        let anchor = match op {
            Operation::Complex(q) => anchor_person(q),
            Operation::Short(ShortQuery::S2(p)) => Some(*p),
            _ => None,
        };
        let seed = anchor.and_then(|p| {
            snap.recent_messages_walk(p, SimTime(i64::MAX))
                .next()
                .map(|(m, date)| (MessageId(m), date))
        });
        Ok(PartialOutcome { partial, seed })
    }

    fn gct_horizon(&self) -> i64 {
        self.replicated_horizon.load(Ordering::Acquire)
    }
}

/// The anchor person of a complex query's parameters.
pub fn anchor_person(q: &ComplexQuery) -> Option<PersonId> {
    Some(match q {
        ComplexQuery::Q1(p) => p.person,
        ComplexQuery::Q2(p) => p.person,
        ComplexQuery::Q3(p) => p.person,
        ComplexQuery::Q4(p) => p.person,
        ComplexQuery::Q5(p) => p.person,
        ComplexQuery::Q6(p) => p.person,
        ComplexQuery::Q7(p) => p.person,
        ComplexQuery::Q8(p) => p.person,
        ComplexQuery::Q9(p) => p.person,
        ComplexQuery::Q10(p) => p.person,
        ComplexQuery::Q11(p) => p.person,
        ComplexQuery::Q12(p) => p.person,
        ComplexQuery::Q13(p) => p.person_x,
        ComplexQuery::Q14(p) => p.person_x,
    })
}

/// The paper's dummy connector: sleep for a fixed duration per operation.
pub struct SleepConnector {
    duration: Duration,
}

impl SleepConnector {
    /// Sleep `duration` per operation (the paper uses 1 ms and 100 µs).
    pub fn new(duration: Duration) -> SleepConnector {
        SleepConnector { duration }
    }
}

impl Connector for SleepConnector {
    fn execute(&self, _op: &Operation) -> SnbResult<OpOutcome> {
        // A true blocking sleep, even for the 100 µs mode: the experiment
        // measures driver synchronization overhead, and blocked "queries"
        // from different partitions must overlap in wall time (they model a
        // remote SUT, not local CPU work). Spinning would serialize the
        // whole run on machines with few cores.
        std::thread::sleep(self.duration);
        Ok(OpOutcome { rows: 1, ..Default::default() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn sleep_connector_sleeps_approximately() {
        let c = SleepConnector::new(Duration::from_micros(200));
        let op = Operation::Short(ShortQuery::S1(PersonId(0)));
        let t0 = Instant::now();
        for _ in 0..50 {
            c.execute(&op).unwrap();
        }
        let per_op = t0.elapsed() / 50;
        assert!(per_op >= Duration::from_micros(200), "per-op {per_op:?}");
        assert!(per_op < Duration::from_millis(5), "per-op {per_op:?}");
    }

    #[test]
    fn op_kinds_classify() {
        let q = Operation::Complex(ComplexQuery::Q7(snb_queries::params::Q7Params {
            person: PersonId(1),
        }));
        assert_eq!(q.kind(), OpKind::Complex(7));
        let s = Operation::Short(ShortQuery::S4(MessageId(2)));
        assert_eq!(s.kind(), OpKind::Short(4));
    }

    #[test]
    fn kind_index_is_dense_and_labels_match_span_names() {
        for i in 0..OpKind::COUNT {
            let kind = OpKind::from_index(i);
            assert_eq!(kind.index(), i);
            assert_eq!(kind.span_name().name(), format!("op.{}", kind.label()));
        }
        assert_eq!(OpKind::Complex(14).label(), "Q14");
        assert_eq!(OpKind::Short(1).index(), 14);
        assert_eq!(OpKind::Update(8).label(), "U8");
    }

    #[test]
    #[should_panic(expected = "not an SNB-Interactive operation")]
    fn kind_outside_the_workload_has_no_index() {
        OpKind::Short(8).index();
    }

    #[test]
    fn store_connector_runs_all_classes() {
        let ds =
            snb_datagen::generate(snb_datagen::GeneratorConfig::with_persons(150).activity(0.3))
                .unwrap();
        let store = Arc::new(Store::new());
        store.bulk_load(&ds);
        let conn = StoreConnector::new(Arc::clone(&store), Engine::Intended);
        // Update.
        let stream = ds.update_stream();
        let first = &stream[0];
        conn.execute(&Operation::Update(first.op.clone())).unwrap();
        // Complex with outcome seeds.
        let out = conn
            .execute(&Operation::Complex(ComplexQuery::Q2(snb_queries::params::Q2Params {
                person: PersonId(0),
                max_date: ds.config.update_split,
            })))
            .unwrap();
        assert_eq!(out.seed_person, Some(PersonId(0)));
        // Short read.
        let out = conn.execute(&Operation::Short(ShortQuery::S1(PersonId(0)))).unwrap();
        assert_eq!(out.rows, 1);
    }
}
