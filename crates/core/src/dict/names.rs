//! First- and last-name dictionaries with location/gender correlation.
//!
//! Table 1: `(person.location, person.gender)` determines the first-name
//! distribution; `person.location` determines the last-name distribution.
//! The mechanism follows §2.1: the distribution *shape* is the same skewed
//! exponential everywhere, but the rank order of names depends on the
//! correlation parameter (the country). With small probability a person
//! draws from another country's pool — "there are Germans with Chinese
//! names, but these are infrequent".
//!
//! The German and Chinese pools open with the paper's Table 2 top-10 names
//! so the Table 2 reproduction is directly comparable.

use crate::dict::places::CountryIdx;
use crate::rng::Rng;
use crate::wire_enum;

/// Person gender. The SNB schema stores it as a string; we keep an enum and
/// render on serialization.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Gender {
    /// Serialized as `"male"`.
    Male,
    /// Serialized as `"female"`.
    Female,
}

impl Gender {
    /// LDBC CSV representation.
    pub fn as_str(self) -> &'static str {
        match self {
            Gender::Male => "male",
            Gender::Female => "female",
        }
    }
}

wire_enum!(Gender { 0 => Male, 1 => Female });

/// Name pools per country.
#[derive(Debug)]
pub struct Names {
    /// `male[c]` / `female[c]` / `last[c]` are the pools for country `c`.
    male: Vec<&'static [&'static str]>,
    female: Vec<&'static [&'static str]>,
    last: Vec<&'static [&'static str]>,
}

/// Probability of drawing from the home country's pool rather than a random
/// foreign pool.
const LOCAL_POOL_PROB: f64 = 0.88;
/// Exponential skew of rank popularity within a pool (rank 0 dominates).
const RANK_SKEW: f64 = 0.35;

#[rustfmt::skip]
mod data {
    // Pools are ordered by popularity rank. Germany and China lead with the
    // paper's Table 2 lists (they appear there as first names).
    pub const DE_MALE: &[&str] = &["Karl", "Hans", "Wolfgang", "Fritz", "Rudolf", "Walter",
        "Franz", "Paul", "Otto", "Wilhelm", "Heinz", "Jurgen", "Klaus", "Stefan", "Uwe"];
    pub const DE_FEMALE: &[&str] = &["Anna", "Ursula", "Monika", "Petra", "Sabine", "Renate",
        "Helga", "Karin", "Brigitte", "Ingrid", "Erika", "Christa", "Gisela", "Heike"];
    pub const DE_LAST: &[&str] = &["Muller", "Schmidt", "Schneider", "Fischer", "Weber",
        "Meyer", "Wagner", "Becker", "Schulz", "Hoffmann", "Koch", "Bauer", "Richter"];

    pub const CN_MALE: &[&str] = &["Yang", "Chen", "Wei", "Lei", "Jun", "Jie", "Li", "Hao",
        "Lin", "Peng", "Bin", "Cheng", "Feng", "Gang", "Hui"];
    pub const CN_FEMALE: &[&str] = &["Yan", "Fang", "Na", "Xiu", "Ying", "Hua", "Juan",
        "Min", "Jing", "Lan", "Mei", "Qian", "Rui", "Ting"];
    pub const CN_LAST: &[&str] = &["Wang", "Zhang", "Liu", "Zhao", "Huang", "Zhou", "Wu",
        "Xu", "Sun", "Hu", "Zhu", "Gao", "Lin", "He"];

    pub const EN_MALE: &[&str] = &["James", "John", "Robert", "Michael", "William", "David",
        "Thomas", "Charles", "Daniel", "Matthew", "George", "Andrew", "Edward", "Peter"];
    pub const EN_FEMALE: &[&str] = &["Mary", "Elizabeth", "Jennifer", "Linda", "Sarah",
        "Susan", "Jessica", "Karen", "Margaret", "Emily", "Laura", "Rachel", "Alice"];
    pub const EN_LAST: &[&str] = &["Smith", "Johnson", "Williams", "Brown", "Jones",
        "Miller", "Davis", "Wilson", "Taylor", "Clark", "Walker", "Hall", "Young"];

    pub const IN_MALE: &[&str] = &["Raj", "Amit", "Arjun", "Vijay", "Ravi", "Sanjay",
        "Rahul", "Anil", "Suresh", "Deepak", "Manoj", "Ashok", "Vikram", "Rakesh"];
    pub const IN_FEMALE: &[&str] = &["Priya", "Anjali", "Sunita", "Kavita", "Pooja",
        "Neha", "Asha", "Meena", "Rekha", "Geeta", "Lakshmi", "Sita", "Radha"];
    pub const IN_LAST: &[&str] = &["Sharma", "Patel", "Singh", "Kumar", "Gupta", "Verma",
        "Reddy", "Rao", "Nair", "Iyer", "Mehta", "Joshi", "Das"];

    pub const ES_MALE: &[&str] = &["Jose", "Juan", "Carlos", "Luis", "Miguel", "Antonio",
        "Francisco", "Pedro", "Manuel", "Javier", "Diego", "Fernando", "Pablo"];
    pub const ES_FEMALE: &[&str] = &["Maria", "Carmen", "Ana", "Isabel", "Lucia", "Rosa",
        "Elena", "Pilar", "Teresa", "Sofia", "Laura", "Marta", "Cristina"];
    pub const ES_LAST: &[&str] = &["Garcia", "Rodriguez", "Martinez", "Lopez", "Gonzalez",
        "Hernandez", "Perez", "Sanchez", "Ramirez", "Torres", "Flores", "Diaz"];

    pub const RU_MALE: &[&str] = &["Ivan", "Dmitri", "Sergei", "Alexei", "Mikhail",
        "Nikolai", "Andrei", "Vladimir", "Pavel", "Boris", "Oleg", "Viktor"];
    pub const RU_FEMALE: &[&str] = &["Olga", "Natalia", "Elena", "Irina", "Tatiana",
        "Svetlana", "Anna", "Ekaterina", "Marina", "Ludmila", "Galina", "Vera"];
    pub const RU_LAST: &[&str] = &["Ivanov", "Smirnov", "Kuznetsov", "Popov", "Sokolov",
        "Lebedev", "Kozlov", "Novikov", "Morozov", "Petrov", "Volkov", "Soloviev"];

    pub const JP_MALE: &[&str] = &["Hiroshi", "Takashi", "Kenji", "Akira", "Yuki",
        "Satoshi", "Kazuo", "Makoto", "Shigeru", "Taro", "Jiro", "Haruto"];
    pub const JP_FEMALE: &[&str] = &["Yuko", "Keiko", "Akiko", "Yumi", "Naoko", "Sakura",
        "Hanako", "Emi", "Mariko", "Tomoko", "Aiko", "Rina"];
    pub const JP_LAST: &[&str] = &["Sato", "Suzuki", "Takahashi", "Tanaka", "Watanabe",
        "Ito", "Yamamoto", "Nakamura", "Kobayashi", "Kato", "Yoshida", "Yamada"];

    pub const AR_MALE: &[&str] = &["Mohamed", "Ahmed", "Mahmoud", "Mustafa", "Ali",
        "Hassan", "Hussein", "Omar", "Khaled", "Ibrahim", "Youssef", "Tarek"];
    pub const AR_FEMALE: &[&str] = &["Fatima", "Aisha", "Mariam", "Zainab", "Layla",
        "Nour", "Huda", "Salma", "Amira", "Dalia", "Rania", "Yasmin"];
    pub const AR_LAST: &[&str] = &["Hassan", "Ali", "Ahmed", "Mohamed", "Ibrahim",
        "Mahmoud", "Abdallah", "Saleh", "Farouk", "Nasser", "Khalil", "Aziz"];
}

/// Which pool family a country uses: (male, female, last).
type Pool = (&'static [&'static str], &'static [&'static str], &'static [&'static str]);

fn pool_for(country_name: &str) -> Pool {
    use data::*;
    match country_name {
        "Germany" => (DE_MALE, DE_FEMALE, DE_LAST),
        "China" | "Vietnam" => (CN_MALE, CN_FEMALE, CN_LAST),
        "India" | "Pakistan" => (IN_MALE, IN_FEMALE, IN_LAST),
        "Spain" | "Mexico" | "Argentina" | "Brazil" | "Philippines" | "Italy" | "France" => {
            (ES_MALE, ES_FEMALE, ES_LAST)
        }
        "Russia" | "Poland" => (RU_MALE, RU_FEMALE, RU_LAST),
        "Japan" => (JP_MALE, JP_FEMALE, JP_LAST),
        "Egypt" | "Turkey" | "Indonesia" => (AR_MALE, AR_FEMALE, AR_LAST),
        // Anglophone & remaining countries use the English pool.
        _ => (EN_MALE, EN_FEMALE, EN_LAST),
    }
}

impl Names {
    /// Estimated resident heap bytes: three vectors of fat pointers into
    /// static pools.
    pub fn heap_bytes(&self) -> usize {
        (self.male.len() + self.female.len() + self.last.len()) * std::mem::size_of::<&[&str]>()
    }

    /// Build per-country pools. `country_names` must align with
    /// [`crate::dict::Places`] country indices; we take the names themselves
    /// from [`crate::dict::Dictionaries::global`]'s place table.
    pub fn build(country_count: usize) -> Names {
        let places = crate::dict::places::Places::build();
        assert_eq!(places.country_count(), country_count);
        let mut male = Vec::with_capacity(country_count);
        let mut female = Vec::with_capacity(country_count);
        let mut last = Vec::with_capacity(country_count);
        for c in places.countries() {
            let (m, f, l) = pool_for(c.name);
            male.push(m);
            female.push(f);
            last.push(l);
        }
        Names { male, female, last }
    }

    /// Draw a first name for a person of `gender` living in `country`.
    pub fn first_name(&self, rng: &mut Rng, country: CountryIdx, gender: Gender) -> &'static str {
        let country = self.effective_country(rng, country);
        let pool = match gender {
            Gender::Male => self.male[country],
            Gender::Female => self.female[country],
        };
        pool[rng.skewed_index(pool.len(), RANK_SKEW)]
    }

    /// Draw a last name for a person living in `country`.
    pub fn last_name(&self, rng: &mut Rng, country: CountryIdx) -> &'static str {
        let country = self.effective_country(rng, country);
        let pool = self.last[country];
        pool[rng.skewed_index(pool.len(), RANK_SKEW)]
    }

    /// With probability [`LOCAL_POOL_PROB`] keep the home country; otherwise
    /// jump to a uniformly random country's pool (infrequent foreign names).
    fn effective_country(&self, rng: &mut Rng, country: CountryIdx) -> CountryIdx {
        if rng.chance(LOCAL_POOL_PROB) {
            country
        } else {
            rng.index(self.male.len())
        }
    }
}

/// Resolve a name string back to its `&'static str` in some pool (used by
/// decoding, which rebuilds `Person` rows from the log or the wire).
pub fn intern_name(name: &str) -> Option<&'static str> {
    use std::collections::HashMap;
    use std::sync::OnceLock;
    static INDEX: OnceLock<HashMap<&'static str, &'static str>> = OnceLock::new();
    let index = INDEX.get_or_init(|| {
        let mut m = HashMap::new();
        for pool in [
            data::DE_MALE,
            data::DE_FEMALE,
            data::DE_LAST,
            data::CN_MALE,
            data::CN_FEMALE,
            data::CN_LAST,
            data::EN_MALE,
            data::EN_FEMALE,
            data::EN_LAST,
            data::IN_MALE,
            data::IN_FEMALE,
            data::IN_LAST,
            data::ES_MALE,
            data::ES_FEMALE,
            data::ES_LAST,
            data::RU_MALE,
            data::RU_FEMALE,
            data::RU_LAST,
            data::JP_MALE,
            data::JP_FEMALE,
            data::JP_LAST,
            data::AR_MALE,
            data::AR_FEMALE,
            data::AR_LAST,
        ] {
            for &n in pool {
                m.insert(n, n);
            }
        }
        m
    });
    index.get(name).copied()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dict::Dictionaries;
    use crate::rng::{Rng, Stream};
    use std::collections::HashMap;

    fn top_names(country: &str, gender: Gender, n_draws: usize) -> Vec<(String, usize)> {
        let d = Dictionaries::global();
        let c = d.places.country_by_name(country).unwrap();
        let mut rng = Rng::for_entity(99, Stream::PersonAttrs, c as u64);
        let mut counts: HashMap<&str, usize> = HashMap::new();
        for _ in 0..n_draws {
            *counts.entry(d.names.first_name(&mut rng, c, gender)).or_default() += 1;
        }
        let mut v: Vec<(String, usize)> =
            counts.into_iter().map(|(k, v)| (k.to_string(), v)).collect();
        v.sort_by_key(|&(_, c)| std::cmp::Reverse(c));
        v
    }

    #[test]
    fn german_top_names_match_paper_table2() {
        // Paper Table 2: Karl, Hans, Wolfgang lead the German male list.
        let tops = top_names("Germany", Gender::Male, 20_000);
        let top3: Vec<&str> = tops.iter().take(3).map(|(n, _)| n.as_str()).collect();
        assert_eq!(top3, vec!["Karl", "Hans", "Wolfgang"]);
    }

    #[test]
    fn chinese_top_names_match_paper_table2() {
        let tops = top_names("China", Gender::Male, 20_000);
        let top3: Vec<&str> = tops.iter().take(3).map(|(n, _)| n.as_str()).collect();
        assert_eq!(top3, vec!["Yang", "Chen", "Wei"]);
    }

    #[test]
    fn foreign_names_are_infrequent_but_present() {
        // Some Germans should carry names from other pools, but rarely.
        let tops = top_names("Germany", Gender::Male, 50_000);
        let total: usize = tops.iter().map(|(_, c)| c).sum();
        let german: usize =
            tops.iter().filter(|(n, _)| data::DE_MALE.contains(&n.as_str())).map(|(_, c)| c).sum();
        let frac = german as f64 / total as f64;
        assert!(frac > 0.80 && frac < 0.99, "local fraction {frac}");
    }

    #[test]
    fn intern_roundtrips_known_names() {
        assert_eq!(intern_name("Karl"), Some("Karl"));
        assert_eq!(intern_name("Yang"), Some("Yang"));
        assert_eq!(intern_name("NotAName"), None);
    }

    #[test]
    fn gender_pools_differ() {
        let male = top_names("Japan", Gender::Male, 5_000);
        let female = top_names("Japan", Gender::Female, 5_000);
        assert_ne!(male[0].0, female[0].0);
    }

    #[test]
    fn last_names_follow_country() {
        let d = Dictionaries::global();
        let c = d.places.country_by_name("Russia").unwrap();
        let mut rng = Rng::for_entity(5, Stream::PersonAttrs, 1);
        let mut russian = 0;
        let n = 10_000;
        for _ in 0..n {
            if data::RU_LAST.contains(&d.names.last_name(&mut rng, c)) {
                russian += 1;
            }
        }
        assert!(russian as f64 / n as f64 > 0.8);
    }
}
