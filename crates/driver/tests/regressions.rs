//! Regression tests for driver correctness fixes: each test fails on the
//! pre-fix scheduler.
//!
//! 1. `Worker::pace()` ignored the abort flag, so a failed accelerated run
//!    kept sleeping toward far-future due times instead of stopping.
//! 2. `run()` took `sim_start` from the *first* item instead of the
//!    minimum due time, so an unsorted workload produced negative
//!    `due.since(sim_start)` offsets, corrupting pacing targets.
//! 3. `achieved_acceleration` divided by `wall.as_millis().max(1)`,
//!    distorting the ratio by up to 1000x for sub-millisecond runs.
//!
//! (Fix 4 — GCT waits park on a condvar instead of busy-spinning — has its
//! own dedicated test binary, `gct_parking.rs`, because it measures process
//! CPU time and must not share the process with CPU-hungry tests.)

use snb_core::time::SimTime;
use snb_core::{PersonId, SnbError, SnbResult};
use snb_driver::connector::{Connector, OpOutcome, SleepConnector};
use snb_driver::mix::WorkItem;
use snb_driver::scheduler::{run, DriverConfig};
use snb_driver::Operation;
use snb_queries::params::ShortQuery;
use std::sync::mpsc::RecvTimeoutError;
use std::time::{Duration, Instant};

/// A connector that fails every operation immediately.
struct FailingConnector;

impl Connector for FailingConnector {
    fn execute(&self, _op: &Operation) -> SnbResult<OpOutcome> {
        Err(SnbError::Constraint("injected failure".into()))
    }
}

fn short_item(due: i64, dep: i64, hint: u64) -> WorkItem {
    WorkItem {
        due: SimTime(due),
        dep: SimTime(dep),
        partition_hint: hint,
        op: Operation::Short(ShortQuery::S1(PersonId(hint))),
    }
}

/// Fix 1: after one partition fails, a partition paced toward a due time
/// hours into the simulated future must observe the abort flag and stop
/// within a bounded wall time — not sleep out the rest of the span.
#[test]
fn failed_accelerated_run_terminates_promptly() {
    // Partition of hint 1 executes (and fails) immediately; partition of
    // hint 2 paces toward a due time one simulated hour away, which at
    // accel=60 is a 60-second wall-clock sleep on the pre-fix scheduler.
    let items = vec![short_item(0, 0, 1), short_item(3_600_000, 0, 2)];
    let config =
        DriverConfig { partitions: 2, acceleration: Some(60.0), ..DriverConfig::default() };
    let t0 = Instant::now();
    let result = run(&items, &FailingConnector, &config);
    let wall = t0.elapsed();
    assert!(result.is_err(), "injected failure must surface");
    assert!(wall < Duration::from_secs(5), "abort must interrupt pacing, took {wall:?}");
}

/// A connector that fails the operation of person 1 after `delay` (so the
/// other partitions are most likely already in their dependency waits; the
/// run must end either way) — by returning an error, or with `panics` by
/// panicking — and runs every other operation.
struct FailsPersonOne {
    delay: Duration,
    panics: bool,
}

impl Connector for FailsPersonOne {
    fn execute(&self, op: &Operation) -> SnbResult<OpOutcome> {
        match op {
            Operation::Short(ShortQuery::S1(PersonId(1))) => {
                std::thread::sleep(self.delay);
                assert!(!self.panics, "injected panic");
                Err(SnbError::Constraint("injected failure".into()))
            }
            _ => Ok(OpOutcome::default()),
        }
    }
}

/// In throughput mode, a partition that fails executing the operation due
/// at 100 must release a partition blocked on `dep = 100`: finishing its
/// stream drops the operation that will never complete, and the abort wakes
/// every waiter. `run` returns the failure instead of waiting forever — or,
/// when the connector panics, unwinds with the panic.
#[test]
fn failure_releases_a_partition_waiting_on_its_dependency() {
    for panics in [false, true] {
        let items = vec![short_item(100, 0, 1), short_item(200, 100, 2)];
        let config = DriverConfig { partitions: 2, ..DriverConfig::default() };
        let (tx, rx) = std::sync::mpsc::channel();
        let t0 = Instant::now();
        let runner = std::thread::spawn(move || {
            let conn = FailsPersonOne { delay: Duration::from_millis(100), panics };
            let _ = tx.send(run(&items, &conn, &config).map(|_| ()));
        });
        // A hung run fails here instead of hanging the test binary.
        let result = rx.recv_timeout(Duration::from_secs(10));
        if panics {
            // The unwind drops the sender unsent and reaches the join.
            let unwound = matches!(result, Err(RecvTimeoutError::Disconnected));
            assert!(unwound, "run must unwind, not hang: {result:?}");
            assert!(runner.join().is_err(), "the connector's panic reaches the caller");
        } else {
            let result = result.expect("run must not hang");
            runner.join().expect("the run thread returns after sending");
            assert!(
                matches!(&result, Err(SnbError::Constraint(m)) if m == "injected failure"),
                "{result:?}"
            );
        }
        assert!(t0.elapsed() < Duration::from_secs(5), "took {:?}", t0.elapsed());
    }
}

/// Fix 2 (pacing half): an unsorted workload whose *first* item carries the
/// maximum due time must still be paced over the full simulated span. The
/// pre-fix scheduler took `sim_start` from the first item, making every
/// pacing target non-positive, and replayed the "paced" run instantly.
#[test]
fn unsorted_input_is_paced_like_sorted() {
    let span = 1_000_000i64; // simulated millis
    let mut items: Vec<WorkItem> =
        (0..40).map(|i| short_item(i * span / 39, 0, (i % 4) as u64 + 1)).collect();
    items.reverse(); // first item now has the maximum due time
    let accel = span as f64 / 300.0; // target ~300 ms wall
    let conn = SleepConnector::new(Duration::ZERO);
    let config =
        DriverConfig { partitions: 2, acceleration: Some(accel), ..DriverConfig::default() };
    let report = run(&items, &conn, &config).unwrap();
    assert_eq!(report.total_ops, items.len());
    assert!(
        report.wall >= Duration::from_millis(250),
        "unsorted input must not collapse the paced span: {:?}",
        report.wall
    );
    let ratio = report.achieved_acceleration / accel;
    assert!((0.5..=1.1).contains(&ratio), "achieved/target {ratio}");
}

/// Fix 2 (ordering half): a shuffled workload must execute identically to
/// the sorted one — same op totals, the same per-partition op counts and
/// the same simulated span. (Due times are distinct here: items sharing a
/// due time have no recoverable causal order once the input is scrambled,
/// so the driver's contract only covers ties that arrive in causal order.)
#[test]
fn unsorted_input_runs_identically_to_sorted() {
    let sorted: Vec<WorkItem> =
        (0..64).map(|i| short_item(i * 500, 0, (i % 4) as u64 + 1)).collect();
    // Deterministic shuffle: an affine permutation mod 64 (the offset
    // matters — it keeps the minimum due time away from the first slot).
    let unsorted: Vec<WorkItem> = (0..64).map(|i| sorted[(i * 37 + 11) % 64].clone()).collect();

    let config = DriverConfig { partitions: 4, ..DriverConfig::default() };
    let conn = SleepConnector::new(Duration::ZERO);
    let a = run(&sorted, &conn, &config).unwrap();
    let b = run(&unsorted, &conn, &config).unwrap();
    assert_eq!(a.total_ops, sorted.len());
    assert_eq!(a.total_ops, b.total_ops);
    let per_partition = |r: &snb_driver::RunReport| {
        r.partitions.iter().map(|p| (p.partition, p.ops)).collect::<Vec<_>>()
    };
    assert_eq!(per_partition(&a), per_partition(&b), "partitioning must not depend on input order");
    assert_eq!(a.sim_span_millis, b.sim_span_millis);
}

/// Fix 3: `achieved_acceleration` must agree with the report's own wall
/// clock at full float precision, even for sub-millisecond runs where the
/// pre-fix whole-millisecond division was off by orders of magnitude.
#[test]
fn achieved_acceleration_is_precise_for_short_runs() {
    let items = vec![short_item(0, 0, 1), short_item(10_000, 0, 1)];
    let conn = SleepConnector::new(Duration::from_micros(20));
    let config = DriverConfig { partitions: 1, ..DriverConfig::default() };
    let report = run(&items, &conn, &config).unwrap();
    let wall_millis = report.wall.as_secs_f64() * 1e3;
    let expected = report.sim_span_millis as f64 / wall_millis.max(1e-6);
    let rel = (report.achieved_acceleration - expected).abs() / expected;
    assert!(
        rel < 1e-9,
        "achieved_acceleration {} != sim/wall {expected} (wall {:?})",
        report.achieved_acceleration,
        report.wall
    );
}

/// The on-time rule: a paced run whose operations take longer than their
/// schedule allows falls further behind with every operation. Once more
/// than 5 % of the scheduled operations start over a second late, the run
/// did not sustain its acceleration, whatever its latencies looked like.
#[test]
fn paced_run_that_falls_behind_is_not_on_time() {
    // 60 ops due 1 ms apart at accel 1, each taking 25 ms: op k starts
    // ≈ 24k ms late, so ops 42..60 (30 %) are past the 1 s bound.
    let items: Vec<WorkItem> = (0..60).map(|i| short_item(i, 0, 1)).collect();
    let conn = SleepConnector::new(Duration::from_millis(25));
    let config = DriverConfig { partitions: 1, acceleration: Some(1.0), ..DriverConfig::default() };
    let report = run(&items, &conn, &config).unwrap();
    let late: u64 = report.partitions.iter().map(|p| p.late_ops).sum();
    assert!(late >= 15, "late ops {late}");
    assert_eq!(report.on_time, Some(false));
}

/// A paced run that ends less than a second behind its schedule passes the
/// on-time rule however far below its target acceleration it ran, so the
/// report must carry the target and print the achieved share next to the
/// verdict. Its per-partition lateness is a maximum, not a sum over
/// operations: it can never exceed the run's wall time.
#[test]
fn paced_run_slightly_behind_reports_its_acceleration_shortfall() {
    // 40 ops due 1 ms apart at accel 1 (39 ms of schedule), each taking
    // 5 ms: op k starts ≈ 4k ms late, the last ≈ 160 ms — all on time,
    // while the run reaches about a fifth of its target.
    let items: Vec<WorkItem> = (0..40).map(|i| short_item(i, 0, 1)).collect();
    let conn = SleepConnector::new(Duration::from_millis(5));
    let config = DriverConfig { partitions: 1, acceleration: Some(1.0), ..DriverConfig::default() };
    let report = run(&items, &conn, &config).unwrap();
    assert_eq!(report.on_time, Some(true));
    assert_eq!(report.target_acceleration, Some(1.0));
    let ratio = report.achieved_acceleration / 1.0;
    assert!(ratio < 0.5, "achieved ÷ target {ratio}");
    let text = snb_driver::full_disclosure(&report);
    let line = text.lines().find(|l| l.starts_with("on time:")).unwrap();
    assert!(line.contains("sustained"), "{line}");
    assert!(line.contains(&format!("achieved ÷ target acceleration = {ratio:.2}")), "{line}");
    let json = snb_driver::full_disclosure_json(&report).render_pretty(2);
    assert!(json.contains("\"target_acceleration\": 1"), "{json}");

    let wall = report.wall.as_micros() as u64;
    for p in &report.partitions {
        assert!(p.max_lateness_micros > 0, "the run fell behind");
        assert!(
            p.max_lateness_micros <= wall,
            "max lateness {} > wall {wall}",
            p.max_lateness_micros
        );
    }
}

/// One `WakeSignal::notify` releases every parked waiter at once, well
/// inside their 30 s wait cap: the GCT loop and the abort path both rely
/// on a notification reaching every partition parked on the signal.
#[test]
fn one_gct_notify_releases_every_parked_waiter() {
    use snb_driver::dependency::WakeSignal;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::Arc;

    const WAITERS: usize = 8;
    let signal = Arc::new(WakeSignal::default());
    let released = Arc::new(AtomicBool::new(false));
    let woken = Arc::new(AtomicUsize::new(0));
    let start = Instant::now();

    std::thread::scope(|scope| {
        for _ in 0..WAITERS {
            let signal = Arc::clone(&signal);
            let released = Arc::clone(&released);
            let woken = Arc::clone(&woken);
            scope.spawn(move || {
                // Cap far beyond the test budget: only a notification can
                // end this wait early.
                signal.wait_until(|| released.load(Ordering::SeqCst), Duration::from_secs(30));
                woken.fetch_add(1, Ordering::SeqCst);
            });
        }
        // All eight must actually park before we ring the bell. A waiter
        // counts its park under the signal's lock and releases it only by
        // entering the condvar wait, so a counted waiter cannot miss the
        // notification.
        while signal.parks() < WAITERS as u64 {
            assert!(start.elapsed() < Duration::from_secs(5), "waiters never parked");
            std::thread::yield_now();
        }
        released.store(true, Ordering::SeqCst);
        signal.notify();
    });
    assert_eq!(woken.load(Ordering::SeqCst), WAITERS);
    assert!(
        start.elapsed() < Duration::from_secs(10),
        "one notify must release all {WAITERS} waiters without waiting out their cap"
    );
}
