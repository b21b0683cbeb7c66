//! Edge-case coverage for the query layer: empty stores, dangling ids,
//! degenerate parameters — every query must return a well-defined (usually
//! empty) result instead of panicking.

use snb_core::time::SimTime;
use snb_core::{MessageId, PersonId};
use snb_queries::params::*;
use snb_queries::{complex, short, Engine, ShortQuery};
use snb_store::Store;

fn empty_snapshot_queries(engine: Engine) {
    let store = Store::new();
    let snap = store.pinned();
    let p = PersonId(0);
    let date = SimTime::from_ymd(2012, 1, 1);
    assert!(complex::q1::run(&snap, engine, &Q1Params { person: p, first_name: "Karl".into() })
        .is_empty());
    assert!(complex::q2::run(&snap, engine, &Q2Params { person: p, max_date: date }).is_empty());
    assert!(complex::q3::run(
        &snap,
        engine,
        &Q3Params { person: p, country_x: 0, country_y: 1, start: date, duration_days: 10 }
    )
    .is_empty());
    assert!(complex::q4::run(
        &snap,
        engine,
        &Q4Params { person: p, start: date, duration_days: 10 }
    )
    .is_empty());
    assert!(complex::q5::run(&snap, engine, &Q5Params { person: p, min_date: date }).is_empty());
    assert!(complex::q6::run(&snap, engine, &Q6Params { person: p, tag: 0 }).is_empty());
    assert!(complex::q7::run(&snap, engine, &Q7Params { person: p }).is_empty());
    assert!(complex::q8::run(&snap, engine, &Q8Params { person: p }).is_empty());
    assert!(complex::q9::run(&snap, engine, &Q9Params { person: p, max_date: date }).is_empty());
    assert!(complex::q10::run(&snap, engine, &Q10Params { person: p, month: 6 }).is_empty());
    assert!(complex::q11::run(&snap, engine, &Q11Params { person: p, country: 0, max_year: 2012 })
        .is_empty());
    assert!(complex::q12::run(&snap, engine, &Q12Params { person: p, tag_class: 0 }).is_empty());
    assert_eq!(
        complex::q13::run(&snap, engine, &Q13Params { person_x: p, person_y: PersonId(1) }),
        -1
    );
    assert!(complex::q14::run(&snap, engine, &Q14Params { person_x: p, person_y: PersonId(1) })
        .is_empty());
}

#[test]
fn all_complex_queries_handle_an_empty_store() {
    empty_snapshot_queries(Engine::Intended);
    empty_snapshot_queries(Engine::Naive);
}

#[test]
fn all_short_queries_handle_an_empty_store() {
    let store = Store::new();
    let snap = store.pinned();
    for q in [
        ShortQuery::S1(PersonId(7)),
        ShortQuery::S2(PersonId(7)),
        ShortQuery::S3(PersonId(7)),
        ShortQuery::S4(MessageId(7)),
        ShortQuery::S5(MessageId(7)),
        ShortQuery::S6(MessageId(7)),
        ShortQuery::S7(MessageId(7)),
    ] {
        assert_eq!(short::run_short(&snap, &q), 0, "{q:?}");
    }
}

#[test]
fn queries_tolerate_ids_beyond_the_population() {
    let ds = snb_datagen::generate(snb_datagen::GeneratorConfig::with_persons(60).activity(0.3))
        .unwrap();
    let store = Store::new();
    store.load_full(&ds);
    let snap = store.pinned();
    let ghost = PersonId(1_000_000);
    assert!(complex::q2::run(
        &snap,
        Engine::Intended,
        &Q2Params { person: ghost, max_date: SimTime::SIM_END }
    )
    .is_empty());
    assert!(complex::q7::run(&snap, Engine::Intended, &Q7Params { person: ghost }).is_empty());
    assert_eq!(
        complex::q13::run(
            &snap,
            Engine::Intended,
            &Q13Params { person_x: ghost, person_y: PersonId(0) }
        ),
        -1
    );
    assert!(complex::q10::run(&snap, Engine::Intended, &Q10Params { person: ghost, month: 1 })
        .is_empty());
    assert!(complex::q5::run(
        &snap,
        Engine::Intended,
        &Q5Params { person: ghost, min_date: SimTime::SIM_START }
    )
    .is_empty());
    for (x, y) in [(ghost, PersonId(0)), (PersonId(0), ghost)] {
        let p = Q14Params { person_x: x, person_y: y };
        assert!(complex::q14::run(&snap, Engine::Intended, &p).is_empty(), "{p:?}");
    }
}

#[test]
fn degenerate_parameters_are_well_defined() {
    let ds = snb_datagen::generate(snb_datagen::GeneratorConfig::with_persons(60).activity(0.3))
        .unwrap();
    let store = Store::new();
    store.load_full(&ds);
    let snap = store.pinned();
    let p = PersonId(0);
    // Same foreign country twice in Q3: Y-count can never be disjoint from
    // X-count, so either every row double-counts or nothing matches; the
    // engines must still agree.
    let q3 = Q3Params {
        person: p,
        country_x: 2,
        country_y: 2,
        start: SimTime::SIM_START,
        duration_days: 2_000,
    };
    assert_eq!(
        complex::q3::run(&snap, Engine::Intended, &q3),
        complex::q3::run(&snap, Engine::Naive, &q3)
    );
    // Zero-length window.
    let q4 = Q4Params { person: p, start: SimTime::SIM_START, duration_days: 0 };
    assert!(complex::q4::run(&snap, Engine::Intended, &q4).is_empty());
    // max_date before anything exists.
    let q9 = Q9Params { person: p, max_date: SimTime::from_ymd(2009, 1, 1) };
    assert!(complex::q9::run(&snap, Engine::Intended, &q9).is_empty());
    // Out-of-range tag class index must not panic in Q12... (valid range
    // only; guard at the dictionary boundary).
    let classes = snb_core::dict::Dictionaries::global().tags.class_count();
    let q12 = Q12Params { person: p, tag_class: classes - 1 };
    let _ = complex::q12::run(&snap, Engine::Intended, &q12);
}

/// A `knows` chain 0 — 1 — … — 299 with one interaction deep inside it:
/// Q13 and Q14 must keep exact BFS levels far past anything a byte could
/// hold.
#[test]
fn a_300_person_chain_keeps_exact_distances() {
    use snb_core::dict::names::Gender;
    use snb_core::schema::*;
    use snb_core::update::UpdateOp;
    use snb_core::ForumId;
    const N: u64 = 300;
    let store = Store::new();
    let apply = |op: UpdateOp| store.apply(&op).expect("chain insert");
    for id in 0..N {
        apply(UpdateOp::AddPerson(Person {
            id: PersonId(id),
            first_name: "Karl",
            last_name: "Muller",
            gender: Gender::Male,
            birthday: SimTime(0),
            creation_date: SimTime(1),
            city: 0,
            country: 0,
            browser: "Chrome",
            location_ip: String::new(),
            languages: vec!["de"],
            emails: vec![],
            interests: vec![],
            study_at: None,
            work_at: vec![],
        }));
    }
    for id in 0..N - 1 {
        apply(UpdateOp::AddFriendship(Knows {
            a: PersonId(id),
            b: PersonId(id + 1),
            creation_date: SimTime(2),
        }));
    }
    // 150 replies to 151's post: weight 1.0 on edge 150–151 only.
    apply(UpdateOp::AddForum(Forum {
        id: ForumId(0),
        title: "wall of 151".into(),
        moderator: PersonId(151),
        creation_date: SimTime(3),
        tags: vec![],
        kind: ForumKind::Wall,
    }));
    apply(UpdateOp::AddPost(Post {
        id: MessageId(0),
        author: PersonId(151),
        forum: ForumId(0),
        creation_date: SimTime(4),
        content: "post".into(),
        image_file: None,
        tags: vec![],
        language: "de",
        country: 0,
    }));
    apply(UpdateOp::AddComment(Comment {
        id: MessageId(1),
        author: PersonId(150),
        creation_date: SimTime(5),
        content: "re".into(),
        reply_to: MessageId(0),
        root_post: MessageId(0),
        forum: ForumId(0),
        tags: vec![],
        country: 0,
    }));
    let snap = store.pinned();
    for (x, y) in [(0, N - 1), (N - 1, 0)] {
        let p13 = Q13Params { person_x: PersonId(x), person_y: PersonId(y) };
        for engine in [Engine::Intended, Engine::Naive] {
            assert_eq!(
                complex::q13::run(&snap, engine, &p13),
                (N - 1) as i32,
                "{engine:?} {x}→{y}"
            );
        }
    }
    let p14 = Q14Params { person_x: PersonId(0), person_y: PersonId(N - 1) };
    let rows = complex::q14::run(&snap, Engine::Intended, &p14);
    assert_eq!(rows, complex::q14::run(&snap, Engine::Naive, &p14));
    assert_eq!(rows.len(), 1, "a chain has exactly one shortest path");
    assert_eq!(rows[0].path, (0..N).map(PersonId).collect::<Vec<_>>());
    assert_eq!(rows[0].weight, 1.0);
}
