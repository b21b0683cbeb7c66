//! Criterion micro-benchmarks for the store: transactional insert
//! throughput and snapshot point-read latency.

use criterion::{criterion_group, criterion_main, Criterion};
use snb_bench::{bulk_store, dataset};
use snb_core::PersonId;

fn bench_store(c: &mut Criterion) {
    let ds = dataset(800);
    let updates = ds.update_stream();

    c.bench_function("store/replay_update_stream", |b| {
        b.iter_batched(
            || bulk_store(&ds),
            |store| {
                for u in &updates {
                    store.apply(&u.op).unwrap();
                }
                store
            },
            criterion::BatchSize::LargeInput,
        )
    });

    let store = bulk_store(&ds);
    c.bench_function("store/snapshot_point_reads", |b| {
        b.iter(|| {
            let snap = store.pinned();
            let mut found = 0;
            for i in 0..200u64 {
                if snap.person(PersonId(i * 3 % ds.persons.len() as u64)).is_some() {
                    found += 1;
                }
            }
            found
        })
    });

    c.bench_function("store/friend_list_scan", |b| {
        let snap = store.pinned();
        b.iter(|| {
            let mut total = 0;
            for i in 0..100u64 {
                total += snap.friends(PersonId(i % ds.persons.len() as u64)).len();
            }
            total
        })
    });
}

criterion_group!(benches, bench_store);
criterion_main!(benches);
