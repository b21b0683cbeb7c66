//! The parallel workload scheduler (§4.2, "Stream Execution Modes",
//! "Scalable Dependent Execution").
//!
//! The workload is split into partitions by each item's partition hint
//! (forum id for forum-tree operations — the Sequential mode insight that
//! "posts and likes only depend on other posts from the same forum"; person
//! id for person-stream operations and reads). Each partition executes its
//! items in due-time order on its own thread; cross-partition dependencies
//! are enforced by waiting on the GDS's Global Completion Time, exactly the
//! dependent-execution loop of the paper's Fig. 8.
//!
//! Under pacing the run is judged by the LDBC specification's on-time
//! rule: a scheduled operation is late when it starts more than
//! [`LATE_AFTER`] after its due time, and the run sustained its
//! acceleration when at least [`ON_TIME_SHARE`] of its scheduled
//! operations started on time.

use crate::affinity;
use crate::connector::{Connector, Operation};
use crate::dependency::{Gds, Lds};
use crate::metrics::Metrics;
use crate::mix::WorkItem;
use snb_core::rng::{Rng, Stream};
use snb_core::time::SimTime;
use snb_core::{SnbError, SnbResult};
use snb_obs::trace::{self, NameId};
use snb_obs::{HistogramSnapshot, QueryProfile};
use snb_queries::params::ShortQuery;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A scheduled operation that starts more than this after its due time is
/// late (LDBC SNB specification, on-time rule).
pub const LATE_AFTER: Duration = Duration::from_secs(1);
/// The share of scheduled operations that must start on time for a paced
/// run to have sustained its acceleration (LDBC SNB specification).
pub const ON_TIME_SHARE: f64 = 0.95;

/// Driver configuration.
#[derive(Debug, Clone)]
pub struct DriverConfig {
    /// Number of parallel partitions (streams).
    pub partitions: usize,
    /// Acceleration factor: simulation time advanced per unit of real time.
    /// `None` replays as fast as possible (throughput mode).
    pub acceleration: Option<f64>,
    /// `P`: probability of starting/continuing the short-read random walk
    /// after a complex read (§4, "Simple read-only queries").
    pub short_read_prob: f64,
    /// `Δ`: how much the probability decreases at every step of the walk.
    pub short_read_decay: f64,
    /// Seed for the (deterministic) short-read walks.
    pub seed: u64,
}

impl Default for DriverConfig {
    fn default() -> Self {
        DriverConfig {
            partitions: 4,
            acceleration: None,
            short_read_prob: 0.6,
            short_read_decay: 0.15,
            seed: 1,
        }
    }
}

/// Scheduler-side runtime accounting for one partition thread.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PartitionStats {
    /// Partition index.
    pub partition: usize,
    /// Operations this partition executed (including walk short reads).
    pub ops: u64,
    /// Times the partition blocked on the Fig. 8 GCT loop.
    pub gct_waits: u64,
    /// Total wall time spent blocked on the GCT, in microseconds.
    pub gct_wait_micros: u64,
    /// Condvar parks inside GCT waits: long waits escalate from a brief
    /// spin/yield to parking on the GDS wake signal, so a blocked partition
    /// does not burn a core while its dependency is paced far in the
    /// future. A wait whose dependency is met under the signal lock does not
    /// park and does not count.
    pub gct_parks: u64,
    /// The largest lateness of a scheduled operation against its due
    /// time, in microseconds — the number the on-time rule compares with
    /// [`LATE_AFTER`] (0 in throughput mode).
    pub max_lateness_micros: u64,
    /// Scheduled operations that started more than [`LATE_AFTER`] after
    /// their due time (0 in throughput mode).
    pub late_ops: u64,
}

/// Result of a benchmark run.
#[derive(Debug)]
pub struct RunReport {
    /// Wall-clock duration of the run.
    pub wall: Duration,
    /// Operations executed (updates + complex + short reads).
    pub total_ops: usize,
    /// Scheduled operations: the workload's items, without the short reads
    /// their walks add.
    pub scheduled_ops: usize,
    /// Per-kind latency statistics.
    pub metrics: Metrics,
    /// Throughput in operations per second.
    pub ops_per_second: f64,
    /// Simulation span covered (millis).
    pub sim_span_millis: i64,
    /// Achieved acceleration: simulation time / real time.
    pub achieved_acceleration: f64,
    /// The acceleration the run was paced to
    /// ([`DriverConfig::acceleration`]); `None` in throughput mode. A run
    /// that ends less than [`LATE_AFTER`] behind cannot fail the on-time
    /// rule however far below this it stayed, so reports print both.
    pub target_acceleration: Option<f64>,
    /// Whether at least [`ON_TIME_SHARE`] of the scheduled operations
    /// started within [`LATE_AFTER`] of their due time. `None` in
    /// throughput mode, where nothing is scheduled.
    pub on_time: Option<bool>,
    /// Per-partition scheduler accounting, in partition order.
    pub partitions: Vec<PartitionStats>,
    /// Connector-side runtime counters (e.g. the store's MVCC/WAL
    /// counters), captured when the run finished.
    pub connector_counters: Vec<(String, u64)>,
    /// Connector-side latency distributions (write-pipeline stage
    /// histograms, WAL fsync, stripe waits), captured when the run
    /// finished. Full snapshots, so the disclosure report can print
    /// per-stage percentiles and attribute contention.
    pub connector_histograms: Vec<(String, HistogramSnapshot)>,
}

static SPAN_GCT_WAIT: NameId = NameId::new("driver.gct_wait");
static SPAN_PACE: NameId = NameId::new("driver.pace");
static SPAN_EXECUTE: NameId = NameId::new("driver.execute");

/// Execute a workload against a connector.
pub fn run(
    items: &[WorkItem],
    connector: &dyn Connector,
    config: &DriverConfig,
) -> SnbResult<RunReport> {
    if items.is_empty() {
        return Err(SnbError::Config("empty workload".into()));
    }
    let partitions = config.partitions.max(1);
    let queues = partition_items(items, partitions);
    // Derive the simulation origin from the *minimum* due time, not the
    // first item: an unsorted workload would otherwise make
    // `due.since(sim_start)` negative, silently corrupting pacing targets.
    let sim_start = items.iter().map(|w| w.due).min().unwrap();
    let sim_end = items.iter().map(|w| w.due).max().unwrap();
    debug_assert!(
        queues.iter().all(|q| q.windows(2).all(|w| w[0].due <= w[1].due)),
        "partition queues must be due-ordered"
    );

    let gds = Gds::new(partitions);
    let metrics = Metrics::new();
    let abort = AtomicBool::new(false);
    // One CPU per partition: a partition waits for each operation it
    // issues, so it and whatever serves it (a loopback server thread
    // follows its peer's CPU) never run at once, and every hand-off
    // between them is a same-CPU wake-up. With one CPU there is nothing to
    // pin.
    let cpus = affinity::allowed_cpus();
    let start = Instant::now();

    let outcomes: Vec<(PartitionStats, SnbResult<()>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = queues
            .into_iter()
            .enumerate()
            .map(|(pi, queue)| {
                let worker = Worker {
                    lds: gds.stream(pi),
                    gds: &gds,
                    connector,
                    config,
                    sim_start,
                    start,
                    abort: &abort,
                    metrics: &metrics,
                    stats: PartitionStats { partition: pi, ..PartitionStats::default() },
                    walk_counter: (pi as u64) << 40,
                };
                let cpu = (cpus.len() > 1).then(|| cpus[pi % cpus.len()]);
                scope.spawn(move || {
                    if let Some(cpu) = cpu {
                        affinity::pin_current_thread(cpu);
                    }
                    worker.run(queue)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)))
            .collect()
    });

    let partitions = outcomes
        .into_iter()
        .map(|(stats, outcome)| outcome.map(|()| stats))
        .collect::<SnbResult<Vec<_>>>()?;
    let wall = start.elapsed();
    let total_ops = metrics.total_ops();
    let sim_span_millis = sim_end.since(sim_start);
    let late: u64 = partitions.iter().map(|p| p.late_ops).sum();
    let on_time = config
        .acceleration
        .map(|_| (items.len() as u64 - late) as f64 >= ON_TIME_SHARE * items.len() as f64);
    Ok(RunReport {
        wall,
        total_ops,
        scheduled_ops: items.len(),
        ops_per_second: total_ops as f64 / wall.as_secs_f64().max(1e-9),
        sim_span_millis,
        // Simulation millis over wall millis, both as f64: truncating the
        // wall to whole milliseconds (and clamping to 1) distorted the
        // ratio by up to 1000x for sub-millisecond runs.
        achieved_acceleration: sim_span_millis as f64 / (wall.as_secs_f64() * 1e3).max(1e-6),
        target_acceleration: config.acceleration,
        metrics,
        on_time,
        partitions,
        connector_counters: connector.counters(),
        connector_histograms: connector.histograms(),
    })
}

/// Assign whole streams (equal partition hints) to partitions with greedy
/// least-loaded (LPT) packing: per-forum operation counts are power-law
/// skewed, so plain `hint % partitions` leaves one partition with most of
/// the work and throughput stops scaling. Streams stay intact (intra-forum
/// causality) and each queue stays due-ordered.
fn partition_items(items: &[WorkItem], partitions: usize) -> Vec<Vec<&WorkItem>> {
    use std::collections::HashMap;
    let mut groups: HashMap<u64, Vec<&WorkItem>> = HashMap::new();
    for item in items {
        groups.entry(item.partition_hint).or_default().push(item);
    }
    let mut sized: Vec<(u64, Vec<&WorkItem>)> = groups.into_iter().collect();
    // Largest streams first; hint as deterministic tie-break.
    sized.sort_by_key(|(hint, g)| (std::cmp::Reverse(g.len()), *hint));
    let mut queues: Vec<Vec<&WorkItem>> = vec![Vec::new(); partitions];
    for (_, group) in sized {
        let target = (0..partitions).min_by_key(|&i| queues[i].len()).unwrap();
        queues[target].extend(group);
    }
    for q in &mut queues {
        q.sort_by_key(|w| w.due);
    }
    queues
}

struct Worker<'a> {
    lds: &'a Lds,
    gds: &'a Gds,
    connector: &'a dyn Connector,
    config: &'a DriverConfig,
    sim_start: SimTime,
    start: Instant,
    abort: &'a AtomicBool,
    metrics: &'a Metrics,
    stats: PartitionStats,
    walk_counter: u64,
}

/// Finishes a partition's stream however its worker leaves — returning,
/// or unwinding out of a panicking connector — so no other partition waits
/// on an operation that will never complete. After an error or during a
/// panic it also aborts the run.
struct StreamExit<'a> {
    lds: &'a Lds,
    gds: &'a Gds,
    abort: &'a AtomicBool,
    failed: bool,
}

impl Drop for StreamExit<'_> {
    fn drop(&mut self) {
        self.lds.finish();
        if self.failed || std::thread::panicking() {
            self.abort.store(true, Ordering::Release);
            // Waiters park on the GCT signal; wake ALL of them (bypassing
            // the wake-batch cap) so every partition observes the abort flag
            // instead of sleeping out its timeout.
            self.gds.signal().notify_all();
        }
    }
}

impl Worker<'_> {
    /// Run the queue; the stream is finished on every way out (see
    /// [`StreamExit`]).
    fn run(mut self, queue: Vec<&WorkItem>) -> (PartitionStats, SnbResult<()>) {
        let mut exit =
            StreamExit { lds: self.lds, gds: self.gds, abort: self.abort, failed: false };
        let result = self.run_queue(&queue);
        exit.failed = result.is_err();
        drop(exit);
        (self.stats, result)
    }

    /// Fig. 8's dependent-execution loop: one GCT synchronization per
    /// operation that has a dependency.
    fn run_queue(&mut self, queue: &[&WorkItem]) -> SnbResult<()> {
        for item in queue {
            if self.abort.load(Ordering::Acquire) {
                break;
            }
            // Root span for the whole client-side lifetime of this item:
            // queue phases (GCT wait, pacing), execution, and any walk
            // short reads it triggers nest under it.
            let _op_span = trace::span(item.op.kind().span_name());
            self.lds.initiate(item.due);
            if item.dep.millis() > 0 {
                self.wait_for_gct(item.dep);
            }
            self.pace(item.due);
            // The GCT wait and the pacing sleep both return early on abort;
            // don't execute an operation the run no longer wants.
            if self.abort.load(Ordering::Acquire) {
                break;
            }
            let outcome = self.execute_timed(&item.op)?;
            self.lds.complete(item.due);
            if let Operation::Complex(_) = item.op {
                self.short_read_walk(outcome)?;
            }
        }
        Ok(())
    }

    /// Fig. 8's `while(operation.DEP < GDS.GCT) wait` (with the comparison
    /// the right way around). Time spent blocked here is the price of
    /// dependent execution, so it is accounted per partition.
    fn wait_for_gct(&mut self, dep: SimTime) {
        if self.gds.gct() >= dep {
            return;
        }
        let _span = trace::span(&SPAN_GCT_WAIT);
        let t0 = Instant::now();
        let mut spins = 0u32;
        loop {
            if self.gds.gct() >= dep || self.abort.load(Ordering::Acquire) {
                break;
            }
            spins += 1;
            if spins < 64 {
                std::hint::spin_loop();
            } else if spins < 96 {
                std::thread::yield_now();
            } else {
                // Long wait (a paced dependency can be far in the future):
                // park on the GDS wake signal instead of burning a core,
                // which would starve co-scheduled partitions on small
                // machines. Woken by any stream's initiate/finish and on
                // abort; the cap bounds the cost of a lost wakeup.
                let parked = self.gds.signal().wait_until(
                    || self.gds.gct() >= dep || self.abort.load(Ordering::Acquire),
                    Duration::from_millis(1),
                );
                self.stats.gct_parks += u64::from(parked);
            }
        }
        self.stats.gct_waits += 1;
        self.stats.gct_wait_micros += t0.elapsed().as_micros() as u64;
    }

    /// Fig. 8's `while(operation.DUE < now()) wait`: pace to the configured
    /// acceleration factor. An operation whose due time has already passed
    /// raises the partition's maximum lateness, and counts as late past
    /// [`LATE_AFTER`].
    fn pace(&mut self, due: SimTime) {
        let Some(accel) = self.config.acceleration else { return };
        let target = Duration::from_millis((due.since(self.sim_start) as f64 / accel) as u64);
        let now = self.start.elapsed();
        if now > target {
            let lateness = now - target;
            let micros = lateness.as_micros() as u64;
            self.stats.max_lateness_micros = self.stats.max_lateness_micros.max(micros);
            self.stats.late_ops += u64::from(lateness > LATE_AFTER);
            return;
        }
        let _span = trace::span(&SPAN_PACE);
        loop {
            // Another partition may have failed while we pace toward a due
            // time that can be the rest of the simulated span away; without
            // this check a failed accelerated run keeps sleeping instead of
            // stopping.
            if self.abort.load(Ordering::Acquire) {
                return;
            }
            let elapsed = self.start.elapsed();
            if elapsed >= target {
                return;
            }
            let remain = target - elapsed;
            if remain > Duration::from_millis(2) {
                // Cap individual sleeps so the abort flag is observed
                // promptly no matter how distant the due time is.
                std::thread::sleep((remain / 2).min(Duration::from_millis(10)));
            } else {
                // Never spin here: paced partitions must let each other run
                // even on a single core.
                std::thread::yield_now();
            }
        }
    }

    fn execute_timed(&mut self, op: &Operation) -> SnbResult<crate::connector::OpOutcome> {
        let rec = self.metrics.recorder(op.kind());
        // Operator counters tick into the kind's shared profile while the
        // connector runs the operation.
        let _scope = QueryProfile::enter(Arc::clone(rec.profile()));
        // Delineates execution from queue time inside the op's root span;
        // store stages (or the wire round trip) nest under it.
        let _span = trace::span(&SPAN_EXECUTE);
        let t0 = Instant::now();
        let outcome = self.connector.execute(op)?;
        rec.record(t0.elapsed().as_nanos() as u64);
        self.stats.ops += 1;
        Ok(outcome)
    }

    /// The random walk over short reads: "This chain of operations is
    /// governed by two parameters: the probability to pick an element from
    /// the previous iteration P, and the step Δ with which this probability
    /// is decreased at every iteration."
    fn short_read_walk(&mut self, seed: crate::connector::OpOutcome) -> SnbResult<()> {
        self.walk_counter += 1;
        let mut rng = Rng::for_entity(self.config.seed, Stream::Workload, self.walk_counter);
        let mut prob = self.config.short_read_prob;
        let mut person = seed.seed_person;
        let mut message = seed.seed_message;
        while prob > 0.0 && rng.chance(prob) {
            // Alternate between profile-side and post-side lookups,
            // whichever has a live seed.
            let q = match (person, message) {
                (Some(p), _) if rng.chance(0.5) || message.is_none() => match rng.below(3) {
                    0 => ShortQuery::S1(p),
                    1 => ShortQuery::S2(p),
                    _ => ShortQuery::S3(p),
                },
                (_, Some(m)) => match rng.below(4) {
                    0 => ShortQuery::S4(m),
                    1 => ShortQuery::S5(m),
                    2 => ShortQuery::S6(m),
                    _ => ShortQuery::S7(m),
                },
                _ => break,
            };
            let outcome = self.execute_timed(&Operation::Short(q))?;
            person = outcome.seed_person.or(person);
            message = outcome.seed_message.or(message);
            prob -= self.config.short_read_decay;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::connector::{OpKind, SleepConnector, StoreConnector};
    use crate::mix;
    use snb_datagen::{generate, Dataset, GeneratorConfig};
    use snb_queries::Engine;
    use std::sync::{Arc, OnceLock};

    fn dataset() -> &'static Dataset {
        static DS: OnceLock<Dataset> = OnceLock::new();
        DS.get_or_init(|| generate(GeneratorConfig::with_persons(400).activity(0.4)).unwrap())
    }

    fn loaded_store(ds: &Dataset) -> Arc<snb_store::Store> {
        let store = Arc::new(snb_store::Store::new());
        store.bulk_load(ds);
        store
    }

    #[test]
    fn update_replay_respects_dependencies_across_partition_counts() {
        // The store validates every foreign key on insert, so a dependency
        // violation (e.g. a friendship arriving before one of its persons)
        // would surface as an error. Running the same stream at several
        // partition counts exercises the GCT synchronization paths.
        let ds = dataset();
        let items = mix::updates_only(ds);
        for partitions in [1, 2, 4, 8] {
            let store = loaded_store(ds);
            let conn = StoreConnector::new(store, Engine::Intended);
            let config = DriverConfig { partitions, ..DriverConfig::default() };
            let report = run(&items, &conn, &config)
                .unwrap_or_else(|e| panic!("partitions={partitions}: {e}"));
            assert_eq!(report.total_ops, items.len(), "partitions={partitions}");
        }
    }

    #[test]
    fn full_mix_produces_all_operation_classes() {
        let ds = dataset();
        let bindings = snb_params::curated_bindings(ds, 8);
        let items = mix::build_mix(ds, &bindings);
        let store = loaded_store(ds);
        let conn = StoreConnector::new(store, Engine::Intended);
        let report = run(&items, &conn, &DriverConfig::default()).unwrap();
        let kinds = report.metrics.kinds();
        assert!(kinds.iter().any(|k| matches!(k, OpKind::Update(_))));
        assert!(kinds.iter().any(|k| matches!(k, OpKind::Complex(_))));
        assert!(kinds.iter().any(|k| matches!(k, OpKind::Short(_))), "random walk fired");
        assert!(report.total_ops > items.len(), "short reads add to the mix");
        assert_eq!(report.scheduled_ops, items.len());
        // Throughput mode schedules nothing, so nothing can be late.
        assert_eq!(report.on_time, None);
    }

    #[test]
    fn every_kind_reports_a_nonzero_latency() {
        // Latencies are recorded in nanoseconds: an in-process short read
        // takes well under a microsecond, and whole-µs recording reported
        // it as 0 ns.
        let ds = dataset();
        let bindings = snb_params::curated_bindings(ds, 4);
        let items = mix::build_mix(ds, &bindings);
        let conn = StoreConnector::new(loaded_store(ds), Engine::Intended);
        let report = run(&items, &conn, &DriverConfig::default()).unwrap();
        for kind in report.metrics.kinds() {
            let s = report.metrics.stats(kind).unwrap();
            assert!(s.p50 > Duration::ZERO && s.mean > Duration::ZERO, "{kind:?}: {s:?}");
        }
    }

    #[test]
    fn acceleration_paces_the_run() {
        let ds = dataset();
        // Take a short slice of the stream so the paced run stays quick.
        let items: Vec<WorkItem> = mix::updates_only(ds).into_iter().take(200).collect();
        let span = items.last().unwrap().due.since(items[0].due);
        let accel = span as f64 / 300.0; // target ~300ms wall
        let store = loaded_store(ds);
        let conn = StoreConnector::new(store, Engine::Intended);
        let config =
            DriverConfig { partitions: 2, acceleration: Some(accel), ..DriverConfig::default() };
        let report = run(&items, &conn, &config).unwrap();
        assert!(report.wall >= Duration::from_millis(250), "pacing ignored: {:?}", report.wall);
        let ratio = report.achieved_acceleration / accel;
        assert!((0.5..=1.1).contains(&ratio), "achieved/target {ratio}");
        assert_eq!(report.on_time, Some(true), "a sustainable pace starts its ops on time");
    }

    #[test]
    fn sleep_connector_scales_with_partitions() {
        // Miniature Table 5: with a 1ms-per-op dummy connector, doubling the
        // partitions should nearly double throughput.
        let ds = dataset();
        let items: Vec<WorkItem> = mix::updates_only(ds).into_iter().take(600).collect();
        let conn = SleepConnector::new(Duration::from_millis(1));
        let t1 = run(&items, &conn, &DriverConfig { partitions: 1, ..DriverConfig::default() })
            .unwrap()
            .ops_per_second;
        let t4 = run(&items, &conn, &DriverConfig { partitions: 4, ..DriverConfig::default() })
            .unwrap()
            .ops_per_second;
        assert!(t4 > 2.0 * t1, "1 partition: {t1:.0} ops/s, 4 partitions: {t4:.0} ops/s");
    }

    #[test]
    fn report_includes_partition_stats_and_store_counters() {
        let ds = dataset();
        let items = mix::updates_only(ds);
        let store = loaded_store(ds);
        let conn = StoreConnector::new(store, Engine::Intended);
        let config = DriverConfig { partitions: 3, ..DriverConfig::default() };
        let report = run(&items, &conn, &config).unwrap();
        assert_eq!(report.partitions.len(), 3);
        assert_eq!(
            report.partitions.iter().map(|p| p.partition).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        let ops: u64 = report.partitions.iter().map(|p| p.ops).sum();
        assert_eq!(ops as usize, report.total_ops);
        let commits = report
            .connector_counters
            .iter()
            .find(|(name, _)| name == "store.txn.commits")
            .map(|&(_, v)| v)
            .expect("store counters exposed through the connector");
        assert_eq!(commits as usize, items.len());
        // Histogram snapshots ride along: every committed update recorded
        // one sample in each write-pipeline stage histogram.
        let apply = report
            .connector_histograms
            .iter()
            .find(|(name, _)| name == "store.stage.apply_nanos")
            .map(|(_, h)| h)
            .expect("stage histograms exposed through the connector");
        assert_eq!(apply.count as usize, items.len());
        assert!(apply.mean() > 0.0);
    }

    #[test]
    fn tracing_captures_nested_driver_and_store_spans() {
        let ds = dataset();
        let items: Vec<WorkItem> = mix::updates_only(ds).into_iter().take(120).collect();
        let store = loaded_store(ds);
        let conn = StoreConnector::new(store, Engine::Intended);
        trace::enable(1);
        let result = run(&items, &conn, &DriverConfig { partitions: 2, ..DriverConfig::default() });
        trace::disable();
        result.unwrap();
        let spans = trace::drain();
        // Other tests may run concurrently and contribute spans while
        // tracing is on; existence and well-formedness assertions are
        // robust to that, exact counts would not be.
        let names: std::collections::HashSet<&str> =
            spans.iter().map(|s| s.name.as_str()).collect();
        assert!(
            names.iter().any(|n| n.starts_with("op.U")),
            "update root spans present: {names:?}"
        );
        assert!(names.contains("driver.execute"), "execute child span present");
        assert!(names.contains("store.stage.apply"), "store stage spans present");
        let nested = trace::validate_nesting(&spans).unwrap();
        assert!(nested > 0, "at least one parent/child pair validated");
        // driver.execute spans are children of an op root in the same trace.
        let exec = spans.iter().find(|s| s.name == "driver.execute").unwrap();
        let parent =
            spans.iter().find(|s| s.span_id == exec.parent_id && s.trace_id == exec.trace_id);
        if let Some(p) = parent {
            assert!(p.name.starts_with("op."), "execute parent is an op root: {}", p.name);
        }
    }

    #[test]
    fn empty_workload_is_rejected() {
        let conn = SleepConnector::new(Duration::from_micros(1));
        assert!(run(&[], &conn, &DriverConfig::default()).is_err());
    }
}
