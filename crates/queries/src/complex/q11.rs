//! Q11 — "Job referral".
//!
//! Find top-10 friends or friends-of-friends of a person (excluding the
//! person) who have worked at a company in a given country since before a
//! given year. Ascending by work-from year, then person id, then descending
//! by company name.

use crate::engine::Engine;
use crate::helpers::load_two_hop;
use crate::params::Q11Params;
use crate::scratch::with_scratch;
use snb_core::dict::Dictionaries;
use snb_core::PersonId;
use snb_store::PinnedSnapshot;

/// Result limit.
const LIMIT: usize = 10;

/// One result row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Q11Row {
    /// The referred person.
    pub person: PersonId,
    /// First name.
    pub first_name: &'static str,
    /// Last name.
    pub last_name: &'static str,
    /// Employer name.
    pub company: String,
    /// Employment start year.
    pub work_from: i32,
}

/// Execute Q11.
pub fn run(snap: &PinnedSnapshot<'_>, engine: Engine, p: &Q11Params) -> Vec<Q11Row> {
    let candidates: Vec<u64> = with_scratch(|sx| {
        load_two_hop(snap, sx, p.person);
        match engine {
            // Intended: traverse outward from the person.
            Engine::Intended => sx.one.iter().chain(sx.two.iter()).copied().collect(),
            // Naive join-order inversion: scan the whole person table and
            // probe the 2-hop marks directly (1 = friend, 2 = FoF).
            Engine::Naive => (0..snap.person_slots() as u64)
                .filter(|&c| matches!(sx.level_of(c), Some(1 | 2)))
                .collect(),
        }
    });
    let dicts = Dictionaries::global();
    let mut rows = Vec::new();
    for c in candidates {
        let Some(person) = snap.person_ref(PersonId(c)) else { continue };
        for w in &person.work_at {
            let company = dicts.orgs.company(w.company.index());
            if company.country == p.country && w.work_from < p.max_year {
                rows.push(Q11Row {
                    person: PersonId(c),
                    first_name: person.first_name,
                    last_name: person.last_name,
                    company: company.name.clone(),
                    work_from: w.work_from,
                });
            }
        }
    }
    rows.sort_by(|a, b| {
        (a.work_from, a.person, std::cmp::Reverse(&a.company)).cmp(&(
            b.work_from,
            b.person,
            std::cmp::Reverse(&b.company),
        ))
    });
    rows.truncate(LIMIT);
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{busy_person, fixture};

    fn params() -> Q11Params {
        // Use the most common home country in the fixture so local
        // employment is plentiful.
        let f = fixture();
        let mut counts = std::collections::HashMap::new();
        for p in &f.ds.persons {
            *counts.entry(p.country).or_insert(0usize) += 1;
        }
        let country = counts.into_iter().max_by_key(|&(_, c)| c).unwrap().0;
        Q11Params { person: busy_person(f), country, max_year: 2012 }
    }

    #[test]
    fn intended_and_naive_agree() {
        let f = fixture();
        let snap = f.store.pinned();
        let p = params();
        assert_eq!(run(&snap, Engine::Intended, &p), run(&snap, Engine::Naive, &p));
    }

    #[test]
    fn rows_match_filters() {
        let f = fixture();
        let snap = f.store.pinned();
        let p = params();
        let dicts = Dictionaries::global();
        let rows = run(&snap, Engine::Intended, &p);
        assert!(!rows.is_empty(), "populous-country referral should hit");
        for r in &rows {
            assert!(r.work_from < p.max_year);
            let person = snap.person_ref(r.person).unwrap();
            let works_there = person.work_at.iter().any(|w| {
                dicts.orgs.company(w.company.index()).name == r.company
                    && dicts.orgs.company(w.company.index()).country == p.country
            });
            assert!(works_there);
        }
    }

    #[test]
    fn ordering_is_year_person_company_desc() {
        let f = fixture();
        let snap = f.store.pinned();
        let rows = run(&snap, Engine::Intended, &params());
        for w in rows.windows(2) {
            let a = (&w[0].work_from, w[0].person.raw());
            let b = (&w[1].work_from, w[1].person.raw());
            assert!(a < b || (a == b && w[0].company >= w[1].company));
        }
    }

    #[test]
    fn strict_year_bound() {
        let f = fixture();
        let snap = f.store.pinned();
        let mut p = params();
        p.max_year = 1900;
        assert!(run(&snap, Engine::Intended, &p).is_empty());
    }
}
