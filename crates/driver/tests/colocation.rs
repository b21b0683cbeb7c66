//! One CPU per partition: `driver::run` pins partition `i` to CPU
//! `allowed[i % n]` of the process's allowed set before it issues its first
//! operation, so every operation of the partition runs there.

use snb_core::time::SimTime;
use snb_core::{PersonId, SnbResult};
use snb_driver::affinity::allowed_cpus;
use snb_driver::connector::{Connector, OpOutcome};
use snb_driver::mix::WorkItem;
use snb_driver::scheduler::{run, DriverConfig};
use snb_driver::Operation;
use snb_queries::params::ShortQuery;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Mutex;

/// Records, per partition hint (the S1 person id), the CPU sets of the
/// threads that executed its operations.
#[derive(Default)]
struct AffinityRecorder {
    seen: Mutex<BTreeMap<u64, BTreeSet<Vec<usize>>>>,
}

impl Connector for AffinityRecorder {
    fn execute(&self, op: &Operation) -> SnbResult<OpOutcome> {
        let Operation::Short(ShortQuery::S1(person)) = op else { unreachable!("S1 only") };
        self.seen.lock().unwrap().entry(person.raw()).or_default().insert(allowed_cpus());
        Ok(OpOutcome::default())
    }
}

#[test]
fn each_partition_runs_only_on_its_cpu() {
    const PARTITIONS: u64 = 4;
    // Equal-sized streams with hints 0..P: the least-loaded packing gives
    // stream `i` to partition `i`.
    let items: Vec<WorkItem> = (0..50)
        .flat_map(|k| {
            (0..PARTITIONS).map(move |hint| WorkItem {
                due: SimTime(k),
                dep: SimTime(0),
                partition_hint: hint,
                op: Operation::Short(ShortQuery::S1(PersonId(hint))),
            })
        })
        .collect();
    let recorder = AffinityRecorder::default();
    let config = DriverConfig { partitions: PARTITIONS as usize, ..DriverConfig::default() };
    run(&items, &recorder, &config).unwrap();

    let allowed = allowed_cpus();
    let seen = recorder.seen.into_inner().unwrap();
    assert_eq!(seen.len(), PARTITIONS as usize, "every partition ran");
    if allowed.len() < 2 {
        eprintln!("skipped the CPU check: only {allowed:?} is allowed, so nothing is pinned");
        for sets in seen.values() {
            assert_eq!(sets.iter().collect::<Vec<_>>(), [&allowed], "nothing was pinned");
        }
        return;
    }
    for (partition, sets) in &seen {
        let cpu = allowed[*partition as usize % allowed.len()];
        assert_eq!(
            sets.iter().collect::<Vec<_>>(),
            [&vec![cpu]],
            "partition {partition} ran outside CPU {cpu}"
        );
    }
}
