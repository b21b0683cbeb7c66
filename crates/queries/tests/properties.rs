//! Property-based tests for the query layer: the two engines must agree on
//! arbitrary parameter bindings (not just curated ones), and the shared
//! top-k collector must match a full sort.
//!
//! The fixture is bulk-loaded and then takes the dataset's whole update
//! stream: the same data as a full load, in the layout a benchmark run
//! reads, where every list a late entity touched has a tail.

use proptest::prelude::*;
use snb_core::time::SimTime;
use snb_core::PersonId;
use snb_queries::helpers::TopK;
use snb_queries::params::*;
use snb_queries::{complex, Engine};
use std::sync::OnceLock;

struct Fixture {
    ds: snb_datagen::Dataset,
    store: snb_store::Store,
}

fn fixture() -> &'static Fixture {
    static F: OnceLock<Fixture> = OnceLock::new();
    F.get_or_init(|| {
        let ds = snb_datagen::generate(
            snb_datagen::GeneratorConfig::with_persons(250).activity(0.4).seed(17),
        )
        .unwrap();
        let store = snb_store::Store::new();
        store.bulk_load(&ds);
        for u in ds.update_stream() {
            store.apply(&u.op).unwrap();
        }
        Fixture { ds, store }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// TopK over any input equals sort-then-truncate.
    #[test]
    fn topk_matches_full_sort(items in proptest::collection::vec((any::<i32>(), any::<u8>()), 0..300), k in 1usize..40) {
        let mut topk = TopK::new(k);
        for &(key, v) in &items {
            topk.push(key, v);
        }
        let got: Vec<i32> = topk.into_sorted().into_iter().map(|(key, _)| key).collect();
        let mut expect: Vec<i32> = items.iter().map(|&(key, _)| key).collect();
        expect.sort_unstable();
        expect.truncate(k);
        prop_assert_eq!(got, expect);
    }

    /// Q1: engines agree for arbitrary persons and first names, so both
    /// the two-hop answer and the distance-3 scan are exercised.
    #[test]
    fn name_query_agrees_on_arbitrary_bindings(person in 0u64..250, namer in 0usize..250) {
        let f = fixture();
        let snap = f.store.pinned();
        let first_name = f.ds.persons[namer % f.ds.persons.len()].first_name.to_string();
        let q1 = Q1Params { person: PersonId(person), first_name };
        prop_assert_eq!(
            complex::q1::run(&snap, Engine::Intended, &q1),
            complex::q1::run(&snap, Engine::Naive, &q1)
        );
    }

    /// Q2/Q9: engines agree for arbitrary persons and dates.
    #[test]
    fn feed_queries_agree_on_arbitrary_bindings(person in 0u64..250, day_offset in 0i64..1_095) {
        let f = fixture();
        let snap = f.store.pinned();
        let max_date = SimTime::SIM_START.plus_days(day_offset);
        let q2 = Q2Params { person: PersonId(person), max_date };
        prop_assert_eq!(
            complex::q2::run(&snap, Engine::Intended, &q2),
            complex::q2::run(&snap, Engine::Naive, &q2)
        );
        let q9 = Q9Params { person: PersonId(person), max_date };
        prop_assert_eq!(
            complex::q9::run(&snap, Engine::Intended, &q9),
            complex::q9::run(&snap, Engine::Naive, &q9)
        );
    }

    /// Q3/Q4/Q5: window queries agree for arbitrary windows.
    #[test]
    fn window_queries_agree_on_arbitrary_bindings(
        person in 0u64..250,
        start_day in 0i64..1_000,
        duration in 0i64..400,
        cx in 0usize..25,
        cy in 0usize..25,
    ) {
        let f = fixture();
        let snap = f.store.pinned();
        let start = SimTime::SIM_START.plus_days(start_day);
        let q3 = Q3Params {
            person: PersonId(person),
            country_x: cx,
            country_y: cy,
            start,
            duration_days: duration,
        };
        prop_assert_eq!(
            complex::q3::run(&snap, Engine::Intended, &q3),
            complex::q3::run(&snap, Engine::Naive, &q3)
        );
        let q4 = Q4Params { person: PersonId(person), start, duration_days: duration };
        prop_assert_eq!(
            complex::q4::run(&snap, Engine::Intended, &q4),
            complex::q4::run(&snap, Engine::Naive, &q4)
        );
        let q5 = Q5Params { person: PersonId(person), min_date: start };
        prop_assert_eq!(
            complex::q5::run(&snap, Engine::Intended, &q5),
            complex::q5::run(&snap, Engine::Naive, &q5)
        );
    }

    /// Q10/Q12: categorical filters agree for arbitrary bindings.
    #[test]
    fn categorical_queries_agree(person in 0u64..250, month in 1u8..=12, class in 0usize..13, tag in 0usize..120) {
        let f = fixture();
        let snap = f.store.pinned();
        let q10 = Q10Params { person: PersonId(person), month };
        prop_assert_eq!(
            complex::q10::run(&snap, Engine::Intended, &q10),
            complex::q10::run(&snap, Engine::Naive, &q10)
        );
        let q12 = Q12Params { person: PersonId(person), tag_class: class };
        prop_assert_eq!(
            complex::q12::run(&snap, Engine::Intended, &q12),
            complex::q12::run(&snap, Engine::Naive, &q12)
        );
        let q6 = Q6Params { person: PersonId(person), tag };
        prop_assert_eq!(
            complex::q6::run(&snap, Engine::Intended, &q6),
            complex::q6::run(&snap, Engine::Naive, &q6)
        );
    }

    /// Path queries agree and are symmetric in their endpoints.
    #[test]
    fn path_queries_agree_and_are_symmetric(x in 0u64..250, y in 0u64..250) {
        let f = fixture();
        let snap = f.store.pinned();
        let p = Q13Params { person_x: PersonId(x), person_y: PersonId(y) };
        let fwd = complex::q13::run(&snap, Engine::Intended, &p);
        prop_assert_eq!(fwd, complex::q13::run(&snap, Engine::Naive, &p));
        let rev = Q13Params { person_x: PersonId(y), person_y: PersonId(x) };
        prop_assert_eq!(fwd, complex::q13::run(&snap, Engine::Intended, &rev), "distance not symmetric");
        // Q14 paths have matching length and reversed weights are equal.
        let q14 = Q14Params { person_x: PersonId(x), person_y: PersonId(y) };
        let paths = complex::q14::run(&snap, Engine::Intended, &q14);
        if fwd >= 0 {
            prop_assert!(!paths.is_empty());
            for row in &paths {
                prop_assert_eq!(row.path.len() as i32, fwd + 1);
            }
        } else {
            prop_assert!(paths.is_empty());
        }
    }

    /// Q7/Q8 agree for arbitrary persons, including ones with no content.
    #[test]
    fn like_and_reply_queries_agree(person in 0u64..260) {
        // Range deliberately exceeds the population to cover missing ids.
        let f = fixture();
        let snap = f.store.pinned();
        let q7 = Q7Params { person: PersonId(person) };
        prop_assert_eq!(
            complex::q7::run(&snap, Engine::Intended, &q7),
            complex::q7::run(&snap, Engine::Naive, &q7)
        );
        let q8 = Q8Params { person: PersonId(person) };
        prop_assert_eq!(
            complex::q8::run(&snap, Engine::Intended, &q8),
            complex::q8::run(&snap, Engine::Naive, &q8)
        );
    }

    /// Short reads never panic on arbitrary (possibly dangling) anchors.
    #[test]
    fn short_reads_are_total(person in 0u64..10_000, message in 0u64..100_000) {
        let f = fixture();
        let snap = f.store.pinned();
        let _ = snb_queries::short::run_short(&snap, &ShortQuery::S1(PersonId(person)));
        let _ = snb_queries::short::run_short(&snap, &ShortQuery::S2(PersonId(person)));
        let _ = snb_queries::short::run_short(&snap, &ShortQuery::S3(PersonId(person)));
        let _ = snb_queries::short::run_short(&snap, &ShortQuery::S4(snb_core::MessageId(message)));
        let _ = snb_queries::short::run_short(&snap, &ShortQuery::S5(snb_core::MessageId(message)));
        let _ = snb_queries::short::run_short(&snap, &ShortQuery::S6(snb_core::MessageId(message)));
        let _ = snb_queries::short::run_short(&snap, &ShortQuery::S7(snb_core::MessageId(message)));
        let _ = &f.ds;
    }
}
