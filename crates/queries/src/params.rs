//! Parameter types for every query template in the Interactive workload.
//!
//! The Appendix defines each complex read together with its parameters
//! (highlighted in the paper); these structs are the binding targets that
//! parameter curation (`snb-params`) fills in.

use snb_core::time::SimTime;
use snb_core::wire::{Layout, Wire};
use snb_core::{wire_enum, wire_struct, MessageId, PersonId};

wire_struct! {
    /// Q1 — friends with a given first name, distance ≤ 3.
    #[derive(Debug, Clone)]
    pub struct Q1Params {
        /// Start person.
        pub person: PersonId,
        /// First name to search for.
        pub first_name: String,
    }
}

wire_struct! {
    /// Q2 — newest 20 messages from friends before a date.
    #[derive(Debug, Clone, Copy)]
    pub struct Q2Params {
        /// Start person.
        pub person: PersonId,
        /// Only messages created at or before this date.
        pub max_date: SimTime,
    }
}

wire_struct! {
    /// Q3 — friends within 2 steps who posted from both foreign countries.
    #[derive(Debug, Clone, Copy)]
    pub struct Q3Params {
        /// Start person.
        pub person: PersonId,
        /// First foreign country (dictionary index).
        pub country_x: usize,
        /// Second foreign country.
        pub country_y: usize,
        /// Window start.
        pub start: SimTime,
        /// Window length in days.
        pub duration_days: i64,
    }
}

wire_struct! {
    /// Q4 — new topics on friends' posts within a window.
    #[derive(Debug, Clone, Copy)]
    pub struct Q4Params {
        /// Start person.
        pub person: PersonId,
        /// Window start.
        pub start: SimTime,
        /// Window length in days.
        pub duration_days: i64,
    }
}

wire_struct! {
    /// Q5 — new groups joined by the 2-hop circle after a date.
    #[derive(Debug, Clone, Copy)]
    pub struct Q5Params {
        /// Start person.
        pub person: PersonId,
        /// Memberships strictly after this date count.
        pub min_date: SimTime,
    }
}

wire_struct! {
    /// Q6 — tag co-occurrence on the 2-hop circle's posts.
    #[derive(Debug, Clone)]
    pub struct Q6Params {
        /// Start person.
        pub person: PersonId,
        /// The anchor tag (dictionary index).
        pub tag: usize,
    }
}

wire_struct! {
    /// Q7 — recent likes on the person's messages.
    #[derive(Debug, Clone, Copy)]
    pub struct Q7Params {
        /// Target person.
        pub person: PersonId,
    }
}

wire_struct! {
    /// Q8 — most recent replies to the person's messages.
    #[derive(Debug, Clone, Copy)]
    pub struct Q8Params {
        /// Target person.
        pub person: PersonId,
    }
}

wire_struct! {
    /// Q9 — newest 20 messages from the 2-hop circle before a date.
    #[derive(Debug, Clone, Copy)]
    pub struct Q9Params {
        /// Start person.
        pub person: PersonId,
        /// Only messages created at or before this date.
        pub max_date: SimTime,
    }
}

wire_struct! {
    /// Q10 — friend-of-friend recommendation with horoscope restriction.
    #[derive(Debug, Clone, Copy)]
    pub struct Q10Params {
        /// Start person.
        pub person: PersonId,
        /// Horoscope month (1-12).
        pub month: u8 as Month,
    }
}

/// Q10's month on the wire: one byte, 1-12.
struct Month;

impl Layout<u8> for Month {
    const MIN_BYTES: usize = 1;

    fn put(v: &u8, buf: &mut Vec<u8>) {
        buf.push(*v);
    }

    fn get(p: &mut &[u8]) -> Option<u8> {
        u8::get(p).filter(|m| (1..=12).contains(m))
    }
}

wire_struct! {
    /// Q11 — job referral: 2-hop circle working in a country before a year.
    #[derive(Debug, Clone, Copy)]
    pub struct Q11Params {
        /// Start person.
        pub person: PersonId,
        /// Country of the employing company.
        pub country: usize,
        /// Only employments that started strictly before this year.
        pub max_year: i32,
    }
}

wire_struct! {
    /// Q12 — expert search over a tag class.
    #[derive(Debug, Clone)]
    pub struct Q12Params {
        /// Start person.
        pub person: PersonId,
        /// Root tag class (dictionary index); descendants included.
        pub tag_class: usize,
    }
}

wire_struct! {
    /// Q13 — single shortest path length.
    #[derive(Debug, Clone, Copy)]
    pub struct Q13Params {
        /// Endpoint X.
        pub person_x: PersonId,
        /// Endpoint Y.
        pub person_y: PersonId,
    }
}

wire_struct! {
    /// Q14 — all weighted shortest paths.
    #[derive(Debug, Clone, Copy)]
    pub struct Q14Params {
        /// Endpoint X.
        pub person_x: PersonId,
        /// Endpoint Y.
        pub person_y: PersonId,
    }
}

/// A complex read-only query with bound parameters.
#[derive(Debug, Clone)]
pub enum ComplexQuery {
    /// Q1 — friends with a given name.
    Q1(Q1Params),
    /// Q2 — newest friend messages.
    Q2(Q2Params),
    /// Q3 — friends who travelled.
    Q3(Q3Params),
    /// Q4 — new topics.
    Q4(Q4Params),
    /// Q5 — new groups.
    Q5(Q5Params),
    /// Q6 — tag co-occurrence.
    Q6(Q6Params),
    /// Q7 — recent likes.
    Q7(Q7Params),
    /// Q8 — recent replies.
    Q8(Q8Params),
    /// Q9 — latest messages (2-hop).
    Q9(Q9Params),
    /// Q10 — friend recommendation.
    Q10(Q10Params),
    /// Q11 — job referral.
    Q11(Q11Params),
    /// Q12 — expert search.
    Q12(Q12Params),
    /// Q13 — shortest path.
    Q13(Q13Params),
    /// Q14 — weighted shortest paths.
    Q14(Q14Params),
}

impl ComplexQuery {
    /// 1-based query number.
    pub fn number(&self) -> usize {
        match self {
            ComplexQuery::Q1(_) => 1,
            ComplexQuery::Q2(_) => 2,
            ComplexQuery::Q3(_) => 3,
            ComplexQuery::Q4(_) => 4,
            ComplexQuery::Q5(_) => 5,
            ComplexQuery::Q6(_) => 6,
            ComplexQuery::Q7(_) => 7,
            ComplexQuery::Q8(_) => 8,
            ComplexQuery::Q9(_) => 9,
            ComplexQuery::Q10(_) => 10,
            ComplexQuery::Q11(_) => 11,
            ComplexQuery::Q12(_) => 12,
            ComplexQuery::Q13(_) => 13,
            ComplexQuery::Q14(_) => 14,
        }
    }
}

wire_enum!(ComplexQuery {
    1 => Q1(p),
    2 => Q2(p),
    3 => Q3(p),
    4 => Q4(p),
    5 => Q5(p),
    6 => Q6(p),
    7 => Q7(p),
    8 => Q8(p),
    9 => Q9(p),
    10 => Q10(p),
    11 => Q11(p),
    12 => Q12(p),
    13 => Q13(p),
    14 => Q14(p),
});

/// A short read-only query with bound parameters (§4: profile and post
/// lookups chained by the driver's random walk).
#[derive(Debug, Clone, Copy)]
pub enum ShortQuery {
    /// S1 — person profile.
    S1(PersonId),
    /// S2 — person's recent messages.
    S2(PersonId),
    /// S3 — person's friends.
    S3(PersonId),
    /// S4 — message content.
    S4(MessageId),
    /// S5 — message creator.
    S5(MessageId),
    /// S6 — forum of a message.
    S6(MessageId),
    /// S7 — replies to a message.
    S7(MessageId),
}

impl ShortQuery {
    /// 1-based short-query number.
    pub fn number(&self) -> usize {
        match self {
            ShortQuery::S1(_) => 1,
            ShortQuery::S2(_) => 2,
            ShortQuery::S3(_) => 3,
            ShortQuery::S4(_) => 4,
            ShortQuery::S5(_) => 5,
            ShortQuery::S6(_) => 6,
            ShortQuery::S7(_) => 7,
        }
    }
}

wire_enum!(ShortQuery {
    1 => S1(id),
    2 => S2(id),
    3 => S3(id),
    4 => S4(id),
    5 => S5(id),
    6 => S6(id),
    7 => S7(id),
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numbering_is_stable() {
        assert_eq!(
            ComplexQuery::Q1(Q1Params { person: PersonId(0), first_name: "K".into() }).number(),
            1
        );
        assert_eq!(
            ComplexQuery::Q14(Q14Params { person_x: PersonId(0), person_y: PersonId(1) }).number(),
            14
        );
        assert_eq!(ShortQuery::S7(MessageId(3)).number(), 7);
    }
}
