//! Concurrency stress tests: readers and a writer race on the store; MVCC
//! must give every reader a frozen, internally consistent view while the
//! writer streams inserts (the §4 requirement: complex reads run
//! "concurrent with ... an insert workload, under at least read committed
//! transaction semantics" — ours are full snapshots).

use snb_core::update::UpdateOp;
use snb_core::{MessageId, PersonId};
use snb_datagen::{generate, GeneratorConfig};
use snb_store::Store;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

#[test]
fn readers_never_observe_partial_transactions() {
    let ds = generate(GeneratorConfig::with_persons(300).activity(0.4).threads(2)).unwrap();
    let store = Store::new();
    store.bulk_load(&ds);
    let stream = ds.update_stream();

    let done = AtomicBool::new(false);
    let checks = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        // Writer: replay the whole update stream.
        scope.spawn(|| {
            for u in &stream {
                store.apply(&u.op).unwrap();
            }
            done.store(true, Ordering::Release);
        });
        // Readers: repeatedly snapshot and verify referential integrity
        // *within the snapshot* — every visible comment's parent, author and
        // forum must also be visible (atomic visibility of each insert, and
        // the generator's ordering guarantees between them).
        for _ in 0..3 {
            scope.spawn(|| {
                while !done.load(Ordering::Acquire) {
                    let snap = store.pinned();
                    let upper = snap.message_slots() as u64;
                    for m in (0..upper).step_by(97) {
                        let Some(meta) = snap.message_meta(MessageId(m)) else { continue };
                        assert!(
                            snap.person_ref(meta.author).is_some(),
                            "visible message {m} with invisible author"
                        );
                        assert!(
                            snap.forum_ref(meta.forum).is_some(),
                            "visible message {m} with invisible forum"
                        );
                        if let Some((parent, root)) = meta.reply_info {
                            assert!(snap.message_meta(parent).is_some());
                            assert!(snap.message_meta(root).is_some());
                        }
                        checks.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });
    assert!(checks.load(Ordering::Relaxed) > 0, "readers never ran");
}

#[test]
fn snapshot_timestamps_are_monotone_under_writes() {
    let ds = generate(GeneratorConfig::with_persons(200).activity(0.3)).unwrap();
    let store = Store::new();
    store.bulk_load(&ds);
    let stream = ds.update_stream();
    let done = AtomicBool::new(false);

    std::thread::scope(|scope| {
        scope.spawn(|| {
            for u in &stream {
                store.apply(&u.op).unwrap();
            }
            done.store(true, Ordering::Release);
        });
        scope.spawn(|| {
            let mut last_ts = 0;
            let mut last_visible = 0usize;
            while !done.load(Ordering::Acquire) {
                let snap = store.pinned();
                let ts = snap.ts();
                assert!(ts >= last_ts, "snapshot ts went backwards");
                // Visible row count never shrinks (insert-only store).
                let visible = (0..snap.person_slots() as u64)
                    .filter(|&p| snap.person_ref(PersonId(p)).is_some())
                    .count();
                assert!(visible >= last_visible, "visible persons shrank");
                last_ts = ts;
                last_visible = visible;
            }
        });
    });
}

#[test]
fn friend_lists_are_stable_within_a_snapshot() {
    // Reading the same adjacency twice through one snapshot must agree even
    // while a writer inserts friendships between the reads.
    let ds = generate(GeneratorConfig::with_persons(200).activity(0.3)).unwrap();
    let store = Store::new();
    store.bulk_load(&ds);
    let friendships: Vec<_> = ds
        .update_stream()
        .into_iter()
        .filter(|u| matches!(u.op, UpdateOp::AddPerson(_) | UpdateOp::AddFriendship(_)))
        .collect();
    let done = AtomicBool::new(false);

    std::thread::scope(|scope| {
        scope.spawn(|| {
            for u in &friendships {
                store.apply(&u.op).unwrap();
            }
            done.store(true, Ordering::Release);
        });
        scope.spawn(|| {
            while !done.load(Ordering::Acquire) {
                let snap = store.pinned();
                for p in (0..200u64).step_by(17) {
                    let a = snap.friends_iter(PersonId(p)).collect::<Vec<_>>();
                    std::thread::yield_now(); // give the writer a window
                    let b = snap.friends_iter(PersonId(p)).collect::<Vec<_>>();
                    assert_eq!(a, b, "snapshot view of person {p} changed mid-read");
                }
            }
        });
    });
}

// --- PR 5: striped commit pipeline + latch-free pinned reads ---

mod striped {
    use snb_core::dict::names::Gender;
    use snb_core::schema::{Knows, Person};
    use snb_core::time::SimTime;
    use snb_core::update::UpdateOp;
    use snb_core::{PersonId, TagId};
    use snb_store::Store;
    use std::sync::Barrier;

    fn person(id: u64, t: i64) -> Person {
        Person {
            id: PersonId(id),
            first_name: "Karl",
            last_name: "Muller",
            gender: Gender::Male,
            birthday: SimTime(0),
            creation_date: SimTime(t),
            city: 0,
            country: 0,
            browser: "Chrome",
            location_ip: String::new(),
            languages: vec!["de"],
            emails: vec![],
            interests: vec![TagId(1)],
            study_at: None,
            work_at: vec![],
        }
    }

    /// Writer `w`'s stream. Bases differ by a multiple of the stripe count
    /// (64), so the i-th entity of *every* writer maps to the same lock
    /// stripe: maximal forced contention on the striped writer locks,
    /// while the entity ids themselves stay disjoint.
    fn colliding_stream(w: u64) -> Vec<UpdateOp> {
        let base = 1_000 + w * 64;
        let mut ops = Vec::new();
        for i in 0..32u64 {
            ops.push(UpdateOp::AddPerson(person(base + i, (base + i) as i64)));
            if i > 0 {
                ops.push(UpdateOp::AddFriendship(Knows {
                    a: PersonId(base + i - 1),
                    b: PersonId(base + i),
                    creation_date: SimTime((base + 100 + i) as i64),
                }));
            }
        }
        ops
    }

    /// Four writers whose entities collide stripe-for-stripe must still
    /// produce exactly the serial result, and every op must commit
    /// (contention may block a writer, never corrupt or reject it).
    #[test]
    fn same_stripe_writers_serialize_correctly() {
        const W: u64 = 4;
        let streams: Vec<Vec<UpdateOp>> = (0..W).map(colliding_stream).collect();
        let concurrent = Store::new();
        let start = Barrier::new(W as usize);
        std::thread::scope(|scope| {
            for ops in &streams {
                let (store, start) = (&concurrent, &start);
                scope.spawn(move || {
                    start.wait();
                    for op in ops {
                        store.apply(op).expect("colliding-stripe op must still commit");
                    }
                });
            }
        });
        let total: usize = streams.iter().map(Vec::len).sum();
        assert_eq!(concurrent.counters().commits() as usize, total);
        assert_eq!(concurrent.counters().conflicts.get(), 0);
        // `store.write.shard_conflicts` is timing-dependent (usually zero
        // on a single hardware thread): read, don't assert.
        let conflicts = concurrent.counters().snapshot();
        assert!(conflicts.iter().any(|&(n, _)| n == "store.write.shard_conflicts"));

        let serial = Store::new();
        for ops in &streams {
            for op in ops {
                serial.apply(op).unwrap();
            }
        }
        let a = concurrent.pinned();
        let b = serial.pinned();
        assert_eq!(a.person_slots(), b.person_slots());
        for i in 0..a.person_slots() as u64 {
            let p = PersonId(i);
            assert_eq!(
                a.friends_iter(p).collect::<Vec<_>>(),
                b.friends_iter(p).collect::<Vec<_>>(),
                "friends of {p}"
            );
            assert_eq!(format!("{:?}", a.person_ref(p)), format!("{:?}", b.person_ref(p)));
        }
    }

    /// Writer `w`'s stream over ids of its own: persons `w·1000 + i`, each
    /// befriending the one before it.
    fn disjoint_stream(w: u64) -> Vec<UpdateOp> {
        let base = w * 1_000;
        let mut ops = Vec::new();
        for i in 0..64u64 {
            ops.push(UpdateOp::AddPerson(person(base + i, i as i64)));
            if i > 0 {
                ops.push(UpdateOp::AddFriendship(Knows {
                    a: PersonId(base + i - 1),
                    b: PersonId(base + i),
                    creation_date: SimTime(100 + i as i64),
                }));
            }
        }
        ops
    }

    /// Each writer thread records its commits into its own shard, and
    /// readers merge the shards: four threads committing disjoint streams
    /// into one store give every committed-path stage, the watermark lag
    /// and `store.txn.commits` exactly one sample per commit. A thread
    /// that alternates between two stores keeps one shard in each.
    #[test]
    fn writer_shards_merge_to_exact_counts() {
        const W: u64 = 4;
        let streams: Vec<Vec<UpdateOp>> = (0..W).map(disjoint_stream).collect();
        let store = Store::new();
        let start = Barrier::new(W as usize);
        std::thread::scope(|scope| {
            for ops in &streams {
                let (store, start) = (&store, &start);
                scope.spawn(move || {
                    start.wait();
                    for op in ops {
                        store.apply(op).unwrap();
                    }
                });
            }
        });
        let total = streams.iter().map(Vec::len).sum::<usize>() as u64;
        let c = store.counters();
        assert_eq!(c.writer_shards(), W as usize, "one shard per writer thread");
        assert_eq!(c.commits(), total);
        for (name, h) in c.stage_snapshots() {
            assert_eq!(h.count, total, "{name} must count every commit once");
        }
        let hists = c.histogram_snapshots();
        let lag = &hists.iter().find(|(n, _)| n == "store.write.watermark_lag").unwrap().1;
        assert_eq!(lag.count, total);
        let snapshot = c.snapshot();
        assert!(snapshot.contains(&("store.txn.commits", total)), "{snapshot:?}");

        let (a, b) = (Store::new(), Store::new());
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for i in 0..16u64 {
                    a.apply(&UpdateOp::AddPerson(person(i, i as i64))).unwrap();
                    b.apply(&UpdateOp::AddPerson(person(i, i as i64))).unwrap();
                }
            });
        });
        for s in [&a, &b] {
            assert_eq!(s.counters().writer_shards(), 1, "alternating must not grow the registry");
            assert_eq!(s.counters().commits(), 16);
        }
    }

    /// Pins taken during a write storm observe a monotone history: each
    /// pin's horizon and visible-person count never decrease, the visible
    /// set equals the pin's horizon exactly (person i commits at ts i+1),
    /// a single pin's reads are stable over time, and the pinned reader
    /// never stops the writer.
    #[test]
    fn interleaved_pins_stay_frozen_under_writes() {
        let store = Store::new();
        let ops: Vec<UpdateOp> =
            (0..256u64).map(|i| UpdateOp::AddPerson(person(i, i as i64))).collect();
        let start = Barrier::new(2);
        std::thread::scope(|scope| {
            let (store_ref, start_ref, ops_ref) = (&store, &start, &ops);
            scope.spawn(move || {
                start_ref.wait();
                for op in ops_ref {
                    store_ref.apply(op).unwrap();
                }
            });
            start.wait();
            let mut last_ts = 0u64;
            let mut last_visible = 0usize;
            loop {
                let pin = store.pinned();
                assert!(pin.ts() >= last_ts, "horizon went backwards");
                last_ts = pin.ts();
                let visible =
                    (0..256u64).filter(|&i| pin.person_ref(PersonId(i)).is_some()).count();
                assert!(visible >= last_visible, "a committed person disappeared");
                assert_eq!(visible as u64, pin.ts(), "visible set must equal the pin horizon");
                last_visible = visible;
                let again = (0..256u64).filter(|&i| pin.person_ref(PersonId(i)).is_some()).count();
                assert_eq!(visible, again, "a held pin drifted");
                if visible == 256 {
                    break;
                }
                std::thread::yield_now();
            }
        });
        assert_eq!(store.counters().commits(), 256);
        assert!(store.counters().snapshots.get() > 0);
    }
}

// --- PR 7: out-of-order publication behind a visibility watermark ---

mod watermark {
    use proptest::prelude::*;
    use snb_core::dict::names::Gender;
    use snb_core::schema::Person;
    use snb_core::time::SimTime;
    use snb_core::update::UpdateOp;
    use snb_core::{PersonId, TagId};
    use snb_store::mvcc::CommitClock;
    use snb_store::Store;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

    fn person(id: u64, t: i64) -> Person {
        Person {
            id: PersonId(id),
            first_name: "Karl",
            last_name: "Muller",
            gender: Gender::Male,
            birthday: SimTime(0),
            creation_date: SimTime(t),
            city: 0,
            country: 0,
            browser: "Chrome",
            location_ip: String::new(),
            languages: vec!["de"],
            emails: vec![],
            interests: vec![TagId(1)],
            study_at: None,
            work_at: vec![],
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Clock-level snapshot rule: publisher threads publish shuffled
        /// timestamp batches genuinely out of order while a sampler
        /// asserts the watermark is monotone and never outruns the
        /// contiguous prefix of publishes that have *started*. The
        /// started-set is a superset of the completed-set (each publisher
        /// marks intent before calling `publish`), so `horizon ≤ started
        /// prefix` failing can only mean the watermark jumped a gap.
        #[test]
        fn watermark_advances_only_over_contiguous_published_prefix(
            seed in any::<u64>(),
            writers in 2usize..=4,
            per_writer in 4u64..=48,
        ) {
            let clock = CommitClock::new();
            let k = writers as u64 * per_writer;
            let mut order: Vec<u64> = (0..k).map(|_| clock.reserve()).collect();
            // Fisher–Yates with the deterministic proptest RNG, so each
            // case exercises a different global publish order.
            let mut rng = proptest::TestRng::new(seed);
            for i in (1..order.len()).rev() {
                let j = rng.below(i as u64 + 1) as usize;
                order.swap(i, j);
            }
            let started: Vec<AtomicBool> = (0..=k).map(|_| AtomicBool::new(false)).collect();
            let writers_left = AtomicUsize::new(writers);
            std::thread::scope(|scope| {
                for w in 0..writers {
                    let mine: Vec<u64> =
                        order.iter().copied().skip(w).step_by(writers).collect();
                    let (clock, started, writers_left) = (&clock, &started, &writers_left);
                    scope.spawn(move || {
                        for ts in mine {
                            started[ts as usize].store(true, Ordering::SeqCst);
                            clock.publish(ts);
                            std::thread::yield_now();
                        }
                        writers_left.fetch_sub(1, Ordering::AcqRel);
                    });
                }
                let mut last = 0u64;
                loop {
                    let finished = writers_left.load(Ordering::Acquire) == 0;
                    let horizon = clock.snapshot_ts();
                    // Read the horizon *before* scanning the started-set:
                    // the set only grows, so the scanned prefix is at
                    // least as long as it was when the horizon was read.
                    let prefix =
                        (1..=k).take_while(|&t| started[t as usize].load(Ordering::SeqCst)).count()
                            as u64;
                    assert!(horizon >= last, "watermark went backwards: {horizon} < {last}");
                    assert!(
                        horizon <= prefix,
                        "watermark {horizon} outran the contiguous started prefix {prefix}"
                    );
                    last = horizon;
                    if finished {
                        break;
                    }
                    std::thread::yield_now();
                }
            });
            prop_assert_eq!(clock.snapshot_ts(), k);
        }

        /// Store-level snapshot rule: concurrent writers commit disjoint
        /// person streams — so publication happens out of order — while a
        /// pinned reader checks that every pin's visible person count
        /// equals its horizon *exactly* (each commit inserts exactly one
        /// person). `count < ts` would mean the watermark exposed a
        /// half-applied gap; `count > ts` would mean a pin leaked an
        /// uncommitted row. The final store matches a serial oracle
        /// pointwise (concurrent-apply == serial-apply).
        #[test]
        fn pinned_readers_see_contiguous_history_under_out_of_order_writers(
            writers in 2usize..=4,
            per_writer in 8u64..=48,
        ) {
            let store = Store::new();
            let total = writers as u64 * per_writer;
            std::thread::scope(|scope| {
                for w in 0..writers {
                    let store = &store;
                    let base = w as u64 * per_writer;
                    scope.spawn(move || {
                        for i in 0..per_writer {
                            let op = UpdateOp::AddPerson(person(base + i, (base + i) as i64));
                            store.apply(&op).expect("disjoint person stream must commit");
                        }
                    });
                }
                let mut last_ts = 0u64;
                loop {
                    let pin = store.pinned();
                    let ts = pin.ts();
                    assert!(ts >= last_ts, "pin horizon went backwards");
                    last_ts = ts;
                    let visible = (0..total)
                        .filter(|&i| pin.person_ref(PersonId(i)).is_some())
                        .count() as u64;
                    assert_eq!(
                        visible, ts,
                        "visible persons must equal the pin horizon exactly"
                    );
                    if visible == total {
                        break;
                    }
                    std::thread::yield_now();
                }
            });
            prop_assert_eq!(store.counters().commits(), total);

            let serial = Store::new();
            for w in 0..writers as u64 {
                for i in 0..per_writer {
                    let id = w * per_writer + i;
                    serial.apply(&UpdateOp::AddPerson(person(id, id as i64))).unwrap();
                }
            }
            let a = store.pinned();
            let b = serial.pinned();
            prop_assert_eq!(a.person_slots(), b.person_slots());
            for i in 0..total {
                let p = PersonId(i);
                prop_assert_eq!(
                    format!("{:?}", a.person_ref(p)),
                    format!("{:?}", b.person_ref(p))
                );
            }
        }
    }
}
