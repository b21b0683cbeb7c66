//! Driver correctness under parallel execution: dependency ordering is
//! never violated, whatever the partitioning.

use ldbc_snb::core::update::UpdateOp;
use ldbc_snb::core::SnbResult;
use ldbc_snb::datagen::{generate, Dataset, GeneratorConfig};
use ldbc_snb::driver::connector::{OpOutcome, Operation};
use ldbc_snb::driver::{mix, run, Connector, DriverConfig, RunReport, WorkItem};
use parking_lot::Mutex;
use std::collections::HashSet;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// How long one `run` may take before the test fails instead of hanging.
const RUN_TIMEOUT: Duration = Duration::from_secs(120);

fn dataset() -> &'static Dataset {
    static DS: OnceLock<Dataset> = OnceLock::new();
    DS.get_or_init(|| {
        generate(GeneratorConfig::with_persons(500).activity(0.4).threads(4).seed(9)).unwrap()
    })
}

/// `run` on a thread of its own: a run that does not return within
/// [`RUN_TIMEOUT`] fails the test, naming `what`, instead of stalling it.
fn run_bounded<C: Connector + 'static>(
    items: &Arc<Vec<WorkItem>>,
    conn: &Arc<C>,
    config: &DriverConfig,
    what: &str,
) -> RunReport {
    let (tx, rx) = mpsc::channel();
    let (items, conn, config) = (Arc::clone(items), Arc::clone(conn), config.clone());
    // Joined only when `run` panicked: a thread that overran the timeout is
    // left behind (its send then fails unseen), since joining it would stall
    // the suite again.
    let handle = std::thread::spawn(move || {
        let _ = tx.send(run(&items, &*conn, &config));
    });
    match rx.recv_timeout(RUN_TIMEOUT) {
        Ok(report) => report.unwrap(),
        Err(RecvTimeoutError::Timeout) => panic!("{what}: run still going after {RUN_TIMEOUT:?}"),
        Err(RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(handle.join().expect_err("sender dropped unsent"))
        }
    }
}

/// A connector that verifies, at execution time, that every referenced
/// person and forum from the update stream was inserted first — the
/// observable definition of "dependencies are not violated during
/// execution" (§4.2).
#[derive(Default)]
struct OrderValidatingConnector {
    persons: Mutex<HashSet<u64>>,
    forums: Mutex<HashSet<u64>>,
    violations: Mutex<Vec<String>>,
}

impl OrderValidatingConnector {
    fn new(ds: &Dataset) -> Self {
        // Bulk entities are pre-existing.
        let persons = ds
            .persons
            .iter()
            .filter(|p| p.creation_date <= ds.config.update_split)
            .map(|p| p.id.raw())
            .collect();
        let forums = ds
            .forums
            .iter()
            .filter(|f| f.creation_date <= ds.config.update_split)
            .map(|f| f.id.raw())
            .collect();
        OrderValidatingConnector {
            persons: Mutex::new(persons),
            forums: Mutex::new(forums),
            violations: Mutex::new(Vec::new()),
        }
    }

    fn check_person(&self, id: u64, what: &str) {
        if !self.persons.lock().contains(&id) {
            self.violations.lock().push(format!("{what}: person {id} missing"));
        }
    }

    fn check_forum(&self, id: u64, what: &str) {
        if !self.forums.lock().contains(&id) {
            self.violations.lock().push(format!("{what}: forum {id} missing"));
        }
    }
}

impl Connector for OrderValidatingConnector {
    fn execute(&self, op: &Operation) -> SnbResult<OpOutcome> {
        let Operation::Update(u) = op else {
            return Ok(OpOutcome::default());
        };
        match u {
            UpdateOp::AddPerson(p) => {
                self.persons.lock().insert(p.id.raw());
            }
            UpdateOp::AddFriendship(k) => {
                self.check_person(k.a.raw(), "addFriendship");
                self.check_person(k.b.raw(), "addFriendship");
            }
            UpdateOp::AddForum(f) => {
                self.check_person(f.moderator.raw(), "addForum");
                self.forums.lock().insert(f.id.raw());
            }
            UpdateOp::AddMembership(m) => {
                self.check_person(m.person.raw(), "addMembership");
                self.check_forum(m.forum.raw(), "addMembership");
            }
            UpdateOp::AddPost(p) => {
                self.check_person(p.author.raw(), "addPost");
                self.check_forum(p.forum.raw(), "addPost");
            }
            UpdateOp::AddComment(c) => {
                self.check_person(c.author.raw(), "addComment");
                self.check_forum(c.forum.raw(), "addComment");
            }
            UpdateOp::AddPostLike(l) | UpdateOp::AddCommentLike(l) => {
                self.check_person(l.person.raw(), "addLike");
            }
        }
        Ok(OpOutcome { rows: 1, ..Default::default() })
    }
}

#[test]
fn parallel_mode_never_violates_dependencies() {
    let ds = dataset();
    let items = Arc::new(mix::updates_only(ds));
    for partitions in [1, 3, 6, 12] {
        let conn = Arc::new(OrderValidatingConnector::new(ds));
        let config = DriverConfig { partitions, ..DriverConfig::default() };
        run_bounded(&items, &conn, &config, &format!("partitions={partitions}"));
        let violations = std::mem::take(&mut *conn.violations.lock());
        assert!(
            violations.is_empty(),
            "partitions={partitions}: {} violations, first: {}",
            violations.len(),
            violations[0]
        );
    }
}

#[test]
fn intra_forum_causality_holds_per_partition() {
    // Comments must execute after their parent within the same forum
    // stream; verify with a connector that tracks message insertion order.
    let ds = dataset();
    let items = Arc::new(mix::updates_only(ds));

    #[derive(Default)]
    struct ForumOrderConnector {
        messages: Mutex<HashSet<u64>>,
        bulk: HashSet<u64>,
        violations: Mutex<usize>,
    }
    impl Connector for ForumOrderConnector {
        fn execute(&self, op: &Operation) -> SnbResult<OpOutcome> {
            if let Operation::Update(u) = op {
                match u {
                    UpdateOp::AddPost(p) => {
                        self.messages.lock().insert(p.id.raw());
                    }
                    UpdateOp::AddComment(c) => {
                        let seen = self.messages.lock();
                        if !seen.contains(&c.reply_to.raw())
                            && !self.bulk.contains(&c.reply_to.raw())
                        {
                            *self.violations.lock() += 1;
                        }
                        drop(seen);
                        self.messages.lock().insert(c.id.raw());
                    }
                    _ => {}
                }
            }
            Ok(OpOutcome::default())
        }
    }

    let bulk: HashSet<u64> = ds
        .posts
        .iter()
        .map(|p| (p.id.raw(), p.creation_date))
        .chain(ds.comments.iter().map(|c| (c.id.raw(), c.creation_date)))
        .filter(|&(_, t)| t <= ds.config.update_split)
        .map(|(id, _)| id)
        .collect();
    let conn = Arc::new(ForumOrderConnector { bulk, ..Default::default() });
    let config = DriverConfig { partitions: 8, ..DriverConfig::default() };
    run_bounded(&items, &conn, &config, "partitions=8");
    assert_eq!(*conn.violations.lock(), 0, "comment executed before its parent");
}

#[test]
fn throughput_scales_and_latency_is_recorded() {
    let ds = dataset();
    let items: Arc<Vec<_>> = Arc::new(mix::updates_only(ds).into_iter().take(4_000).collect());
    let conn = Arc::new(ldbc_snb::driver::SleepConnector::new(Duration::from_micros(100)));
    let config = |partitions| DriverConfig { partitions, ..DriverConfig::default() };
    let r1 = run_bounded(&items, &conn, &config(1), "partitions=1");
    let r8 = run_bounded(&items, &conn, &config(8), "partitions=8");
    assert!(
        r8.ops_per_second > 2.0 * r1.ops_per_second,
        "1p {:.0} ops/s vs 8p {:.0} ops/s",
        r1.ops_per_second,
        r8.ops_per_second
    );
    assert_eq!(r1.total_ops, items.len());
    assert!(!r1.metrics.kinds().is_empty());
}
