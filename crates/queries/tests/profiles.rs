//! Operator-profile coverage: running the complex and short reads inside a
//! profiling scope must produce non-zero operator counters for most query
//! kinds — the observability layer is useless if queries don't tick it.

use snb_obs::QueryProfile;
use snb_queries::{complex, short, Engine};
use std::sync::Arc;

#[test]
fn complex_queries_tick_operator_counters() {
    let ds = snb_datagen::generate(
        snb_datagen::GeneratorConfig::with_persons(300).activity(0.5).seed(11),
    )
    .unwrap();
    let store = snb_store::Store::new();
    store.load_full(&ds);
    let bindings = snb_params::curated_bindings(&ds, 2);
    let snap = store.pinned();

    let mut nonzero_kinds = 0;
    let mut with_probes = 0;
    for q in 1..=14usize {
        let profile = Arc::new(QueryProfile::new());
        {
            let _guard = QueryProfile::enter(Arc::clone(&profile));
            for binding in bindings.all(q) {
                complex::run_complex(&snap, Engine::Intended, binding);
            }
        }
        let snap_p = profile.snapshot();
        if !snap_p.is_zero() {
            nonzero_kinds += 1;
        }
        if snap_p.index_probes > 0 || snap_p.versions_walked > 0 {
            with_probes += 1;
        }
    }
    assert!(
        nonzero_kinds >= 5,
        "expected at least 5 complex queries with non-zero operator counters, got {nonzero_kinds}"
    );
    assert!(
        with_probes >= 5,
        "expected store-level ticks (probes/versions) in at least 5 queries, got {with_probes}"
    );
}

#[test]
fn short_reads_tick_result_rows_and_probes() {
    let ds = snb_datagen::generate(
        snb_datagen::GeneratorConfig::with_persons(200).activity(0.5).seed(13),
    )
    .unwrap();
    let store = snb_store::Store::new();
    store.load_full(&ds);
    let snap = store.pinned();
    let person = snb_core::PersonId(0);

    let profile = Arc::new(QueryProfile::new());
    {
        let _guard = QueryProfile::enter(Arc::clone(&profile));
        short::run_short(&snap, &snb_queries::ShortQuery::S1(person));
        short::run_short(&snap, &snb_queries::ShortQuery::S2(person));
        short::run_short(&snap, &snb_queries::ShortQuery::S3(person));
    }
    let p = profile.snapshot();
    assert!(p.index_probes > 0, "S1 must probe the person table");
    assert!(p.result_rows > 0, "short reads must report result rows");
}

#[test]
fn queries_outside_a_scope_record_nothing_and_still_work() {
    let ds = snb_datagen::generate(
        snb_datagen::GeneratorConfig::with_persons(120).activity(0.4).seed(17),
    )
    .unwrap();
    let store = snb_store::Store::new();
    store.load_full(&ds);
    let snap = store.pinned();
    // No scope installed: ticks are no-ops, queries behave identically.
    let rows = short::run_short(&snap, &snb_queries::ShortQuery::S3(snb_core::PersonId(0)));
    let profile = Arc::new(QueryProfile::new());
    let rows_in_scope = {
        let _guard = QueryProfile::enter(Arc::clone(&profile));
        short::run_short(&snap, &snb_queries::ShortQuery::S3(snb_core::PersonId(0)))
    };
    assert_eq!(rows, rows_in_scope);
}

/// Store read counters and operator-profile totals after every complex
/// query's bindings ran on `threads` threads at once, each thread opening
/// one snapshot per query as the driver does. The profiles are one per
/// kind, shared by the threads.
fn counted_run(
    store: &snb_store::Store,
    bindings: &snb_params::Bindings,
    threads: usize,
) -> (Vec<u64>, Vec<snb_obs::ProfileSnapshot>) {
    let counters = |s: &snb_store::Store| {
        let c = s.counters();
        [&c.versions_walked, &c.versions_skipped, &c.read_fastlane_entries, &c.snapshots]
            .map(|c| c.get())
    };
    let before = counters(store);
    let profiles: Vec<Arc<QueryProfile>> =
        (0..=14).map(|_| Arc::new(QueryProfile::new())).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                for (q, profile) in profiles.iter().enumerate().skip(1) {
                    let _guard = QueryProfile::enter(Arc::clone(profile));
                    for binding in bindings.all(q) {
                        let snap = store.pinned();
                        complex::run_complex(&snap, Engine::Intended, binding);
                    }
                }
            });
        }
    });
    let after = counters(store);
    let deltas = after.iter().zip(before).map(|(a, b)| a - b).collect();
    (deltas, profiles.iter().skip(1).map(|p| p.snapshot()).collect())
}

#[test]
fn accounting_is_exact_under_two_threads() {
    let ds = snb_datagen::generate(
        snb_datagen::GeneratorConfig::with_persons(300).activity(0.5).seed(11),
    )
    .unwrap();
    // Bulk load, then commit the update stream, so reads walk ladder tails
    // (versions walked) as well as bulk prefixes (fast lane).
    let store = snb_store::Store::new();
    store.bulk_load(&ds);
    for u in ds.update_stream() {
        store.apply(&u.op).unwrap();
    }
    let bindings = snb_params::curated_bindings(&ds, 16);
    let (one, one_profiles) = counted_run(&store, &bindings, 1);
    let (two, two_profiles) = counted_run(&store, &bindings, 2);
    assert!(one[0] > 0 && one[2] > 0, "both lanes are read: {one:?}");
    assert_eq!(two, one.iter().map(|n| 2 * n).collect::<Vec<_>>(), "store counters");
    for (q, (a, b)) in one_profiles.iter().zip(&two_profiles).enumerate() {
        let doubled: Vec<(&str, u64)> = a.fields().iter().map(|&(n, v)| (n, 2 * v)).collect();
        assert_eq!(b.fields().to_vec(), doubled, "profile of Q{}", q + 1);
    }
}
