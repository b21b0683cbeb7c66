//! Operation lists shared by the codec tests: one value of every complex
//! and short read.

use snb_core::time::SimTime;
use snb_core::{MessageId, PersonId};
use snb_queries::params::{
    ComplexQuery, Q10Params, Q11Params, Q12Params, Q13Params, Q14Params, Q1Params, Q2Params,
    Q3Params, Q4Params, Q5Params, Q6Params, Q7Params, Q8Params, Q9Params, ShortQuery,
};

pub fn every_complex() -> Vec<ComplexQuery> {
    let p = PersonId(7);
    vec![
        ComplexQuery::Q1(Q1Params { person: p, first_name: "Käthe".into() }),
        ComplexQuery::Q2(Q2Params { person: p, max_date: SimTime(123_456) }),
        ComplexQuery::Q3(Q3Params {
            person: p,
            country_x: 3,
            country_y: 9,
            start: SimTime(-5),
            duration_days: 28,
        }),
        ComplexQuery::Q4(Q4Params { person: p, start: SimTime(77), duration_days: 30 }),
        ComplexQuery::Q5(Q5Params { person: p, min_date: SimTime(i64::MIN) }),
        ComplexQuery::Q6(Q6Params { person: p, tag: 11 }),
        ComplexQuery::Q7(Q7Params { person: p }),
        ComplexQuery::Q8(Q8Params { person: p }),
        ComplexQuery::Q9(Q9Params { person: p, max_date: SimTime(i64::MAX) }),
        ComplexQuery::Q10(Q10Params { person: p, month: 12 }),
        ComplexQuery::Q11(Q11Params { person: p, country: 2, max_year: 2010 }),
        ComplexQuery::Q12(Q12Params { person: p, tag_class: 4 }),
        ComplexQuery::Q13(Q13Params { person_x: p, person_y: PersonId(8) }),
        ComplexQuery::Q14(Q14Params { person_x: p, person_y: PersonId(9) }),
    ]
}

pub fn every_short() -> Vec<ShortQuery> {
    vec![
        ShortQuery::S1(PersonId(1)),
        ShortQuery::S2(PersonId(2)),
        ShortQuery::S3(PersonId(3)),
        ShortQuery::S4(MessageId(4)),
        ShortQuery::S5(MessageId(5)),
        ShortQuery::S6(MessageId(6)),
        ShortQuery::S7(MessageId(7)),
    ]
}
