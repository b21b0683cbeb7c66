//! End-to-end integration: generate → bulk-load → replay updates → query,
//! plus WAL crash recovery, across the whole workspace.

use ldbc_snb::core::update::UpdateOp;
use ldbc_snb::core::{PersonId, SimTime};
use ldbc_snb::datagen::{generate, Dataset, GeneratorConfig};
use ldbc_snb::queries::{complex, ComplexQuery, Engine};
use ldbc_snb::store::{Store, SyncPolicy};
use std::sync::OnceLock;

fn dataset() -> &'static Dataset {
    static DS: OnceLock<Dataset> = OnceLock::new();
    DS.get_or_init(|| {
        generate(GeneratorConfig::with_persons(400).activity(0.4).threads(4).seed(3)).unwrap()
    })
}

/// Every row of a complex read, rendered with `Debug`: comparing these
/// compares rows, where `complex::run_complex` returns only their count.
fn rows(snap: &ldbc_snb::store::PinnedSnapshot<'_>, engine: Engine, q: &ComplexQuery) -> String {
    use complex::*;
    match q {
        ComplexQuery::Q1(p) => format!("{:?}", q1::run(snap, engine, p)),
        ComplexQuery::Q2(p) => format!("{:?}", q2::run(snap, engine, p)),
        ComplexQuery::Q3(p) => format!("{:?}", q3::run(snap, engine, p)),
        ComplexQuery::Q4(p) => format!("{:?}", q4::run(snap, engine, p)),
        ComplexQuery::Q5(p) => format!("{:?}", q5::run(snap, engine, p)),
        ComplexQuery::Q6(p) => format!("{:?}", q6::run(snap, engine, p)),
        ComplexQuery::Q7(p) => format!("{:?}", q7::run(snap, engine, p)),
        ComplexQuery::Q8(p) => format!("{:?}", q8::run(snap, engine, p)),
        ComplexQuery::Q9(p) => format!("{:?}", q9::run(snap, engine, p)),
        ComplexQuery::Q10(p) => format!("{:?}", q10::run(snap, engine, p)),
        ComplexQuery::Q11(p) => format!("{:?}", q11::run(snap, engine, p)),
        ComplexQuery::Q12(p) => format!("{:?}", q12::run(snap, engine, p)),
        ComplexQuery::Q13(p) => format!("{:?}", q13::run(snap, engine, p)),
        ComplexQuery::Q14(p) => format!("{:?}", q14::run(snap, engine, p)),
    }
}

#[test]
fn bulk_plus_updates_equals_full_load() {
    let ds = dataset();
    // Store A: bulk load then replay every update.
    let a = Store::new();
    a.bulk_load(ds);
    for u in ds.update_stream() {
        a.apply(&u.op).unwrap();
    }
    // Store B: load everything directly.
    let b = Store::new();
    b.load_full(ds);

    let sa = a.pinned();
    let sb = b.pinned();
    assert_eq!(sa.person_slots(), sb.person_slots());
    assert_eq!(sa.message_slots(), sb.message_slots());
    for i in 0..ds.persons.len() as u64 {
        let p = PersonId(i);
        assert_eq!(
            sa.friends_iter(p).collect::<Vec<_>>(),
            sb.friends_iter(p).collect::<Vec<_>>(),
            "friend list of {p}"
        );
        assert_eq!(
            sa.messages_of_iter(p).collect::<Vec<_>>(),
            sb.messages_of_iter(p).collect::<Vec<_>>(),
            "messages of {p}"
        );
        assert_eq!(
            sa.likes_by_iter(p).collect::<Vec<_>>(),
            sb.likes_by_iter(p).collect::<Vec<_>>(),
            "likes by {p}"
        );
    }
}

#[test]
fn all_queries_agree_across_engines_after_replay() {
    let ds = dataset();
    let store = Store::new();
    store.bulk_load(ds);
    for u in ds.update_stream() {
        store.apply(&u.op).unwrap();
    }
    let bindings = ldbc_snb::params::curated_bindings(ds, 3);
    let snap = store.pinned();
    for q in 1..=14 {
        for binding in bindings.all(q) {
            let a = rows(&snap, Engine::Intended, binding);
            let b = rows(&snap, Engine::Naive, binding);
            assert_eq!(a, b, "engines disagree on Q{q} ({binding:?})");
        }
    }
}

#[test]
fn wal_recovery_restores_exact_state() {
    let ds = dataset();
    let wal_path = std::env::temp_dir().join(format!("snb-e2e-wal-{}", std::process::id()));
    // "Crash" after applying half the update stream.
    let stream = ds.update_stream();
    let half = stream.len() / 2;
    {
        let store = Store::with_wal_policy(&wal_path, SyncPolicy::Never).unwrap();
        store.bulk_load(ds);
        for u in &stream[..half] {
            store.apply(&u.op).unwrap();
        }
        store.flush_wal().unwrap();
        // store dropped here = crash after flush
    }
    let (recovered, report) = Store::recover(ds, &wal_path).unwrap();
    assert_eq!(report.replayed as usize, half);
    assert_eq!(report.truncated_bytes, 0, "clean shutdown must lose nothing");

    // The recovered store answers queries identically to a store that never
    // crashed.
    let reference = Store::new();
    reference.bulk_load(ds);
    for u in &stream[..half] {
        reference.apply(&u.op).unwrap();
    }
    let sr = recovered.pinned();
    let sf = reference.pinned();
    for i in (0..ds.persons.len() as u64).step_by(7) {
        let p = PersonId(i);
        assert_eq!(sr.friends_iter(p).collect::<Vec<_>>(), sf.friends_iter(p).collect::<Vec<_>>());
        assert_eq!(
            sr.messages_of_iter(p).collect::<Vec<_>>(),
            sf.messages_of_iter(p).collect::<Vec<_>>()
        );
    }
    // And it keeps accepting the remaining updates.
    for u in &stream[half..] {
        recovered.apply(&u.op).unwrap();
    }
    std::fs::remove_file(&wal_path).unwrap();
}

#[test]
fn parallel_bulk_load_answers_queries_identically_to_serial() {
    // Determinism contract of the parallel sorted loader: on a fixed seed,
    // every complex read (Q1-Q14, all curated bindings) returns
    // byte-identical rows whether the store was loaded with 1 thread or
    // 4.
    let ds = dataset();
    let serial = Store::new();
    serial.bulk_load_until_threads(ds, ds.config.end, 1);
    let parallel = Store::new();
    parallel.bulk_load_until_threads(ds, ds.config.end, 4);

    let ss = serial.pinned();
    let sp = parallel.pinned();
    assert_eq!(ss.person_slots(), sp.person_slots());
    assert_eq!(ss.forum_slots(), sp.forum_slots());
    assert_eq!(ss.message_slots(), sp.message_slots());

    let bindings = ldbc_snb::params::curated_bindings(ds, 3);
    for q in 1..=14 {
        for binding in bindings.all(q) {
            let a = rows(&ss, Engine::Intended, binding);
            let b = rows(&sp, Engine::Intended, binding);
            assert_eq!(a, b, "Q{q} rows diverge under parallel load ({binding:?})");
        }
    }
}

#[test]
fn snapshots_isolate_concurrent_update_batches() {
    let ds = dataset();
    let store = Store::new();
    store.bulk_load(ds);
    let stream = ds.update_stream();

    // Interleave: snapshot, apply a batch, verify the old snapshot still
    // sees the old counts while a new snapshot sees more.
    let count_visible = |snap: &ldbc_snb::store::PinnedSnapshot<'_>| {
        (0..snap.message_slots() as u64)
            .filter(|&m| snap.message_meta(ldbc_snb::core::MessageId(m)).is_some())
            .count()
    };
    let before = store.pinned();
    let n_before = count_visible(&before);
    let batch: Vec<_> = stream
        .iter()
        .filter(|u| {
            matches!(u.op, UpdateOp::AddPerson(_) | UpdateOp::AddForum(_) | UpdateOp::AddPost(_))
        })
        .take(200)
        .collect();
    for u in &batch {
        store.apply(&u.op).unwrap();
    }
    assert_eq!(count_visible(&before), n_before, "old snapshot changed");
    let after = store.pinned();
    assert!(count_visible(&after) > n_before, "new snapshot missing inserts");
}

#[test]
fn csv_export_round_trips_row_counts() {
    let ds = dataset();
    let dir = std::env::temp_dir().join(format!("snb-e2e-csv-{}", std::process::id()));
    let rows = ldbc_snb::datagen::serializer::write_csv(ds, &dir).unwrap();
    let bulk_messages = ds
        .posts
        .iter()
        .map(|p| p.creation_date)
        .chain(ds.comments.iter().map(|c| c.creation_date))
        .filter(|&t| t <= ds.config.update_split)
        .count();
    let posts_csv = std::fs::read_to_string(dir.join("post.csv")).unwrap().lines().count() - 1;
    let comments_csv =
        std::fs::read_to_string(dir.join("comment.csv")).unwrap().lines().count() - 1;
    assert_eq!(posts_csv + comments_csv, bulk_messages);
    assert!(rows as usize > bulk_messages);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn simulation_window_holds_for_all_entities() {
    let ds = dataset();
    for p in &ds.persons {
        assert!(p.creation_date >= SimTime::SIM_START && p.creation_date < SimTime::SIM_END);
    }
    for m in &ds.posts {
        assert!(m.creation_date < SimTime::SIM_END);
    }
    for l in &ds.likes {
        assert!(l.creation_date < SimTime::SIM_END);
    }
}
