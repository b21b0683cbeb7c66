//! Tags and the tag-class hierarchy.
//!
//! Tags play three correlated roles (Table 1): `person.location` influences
//! `person.interests`; `person.interests` influence the topics of the posts
//! in the person's forums; and the post topic determines the message text.
//! Tags are organised in a class hierarchy (used by complex read Q12,
//! "Expert search", which filters by a TagClass and its descendants).
//!
//! The dictionary synthesizes four country-linked tags per country (music,
//! sport, politics, cuisine) plus a pool of global tags, mirroring how the
//! original DATAGEN's DBpedia tags skew toward a person's home country.

use crate::dict::places::CountryIdx;
use crate::rng::Rng;

/// A tag class (category) in the hierarchy.
#[derive(Debug)]
pub struct TagClassDef {
    /// Class name, e.g. `"MusicalArtist"`.
    pub name: &'static str,
    /// Parent class index; `None` only for the root `Thing`.
    pub parent: Option<usize>,
}

/// A tag (interest / topic).
#[derive(Debug)]
pub struct TagDef {
    /// Display name.
    pub name: String,
    /// Owning tag class.
    pub class: usize,
    /// Country the tag is culturally linked to, if any.
    pub country: Option<CountryIdx>,
    /// Base popularity weight.
    pub weight: f64,
}

/// The tag dictionary.
#[derive(Debug)]
pub struct Tags {
    classes: Vec<TagClassDef>,
    tags: Vec<TagDef>,
    /// Tag indices per country.
    by_country: Vec<Vec<usize>>,
    /// Cumulative weights over all tags, for unconditioned sampling.
    cum_all: Vec<f64>,
}

/// Class table: (name, parent index). Index 0 is the root.
const CLASSES: &[(&str, Option<usize>)] = &[
    ("Thing", None),            // 0
    ("MusicalArtist", Some(0)), // 1
    ("Sport", Some(0)),         // 2
    ("Politician", Some(0)),    // 3
    ("Cuisine", Some(0)),       // 4
    ("Technology", Some(0)),    // 5
    ("Programming", Some(5)),   // 6
    ("Gadgets", Some(5)),       // 7
    ("Science", Some(0)),       // 8
    ("Film", Some(0)),          // 9
    ("Literature", Some(0)),    // 10
    ("Travel", Some(0)),        // 11
    ("Gaming", Some(0)),        // 12
];

const GLOBAL_TAGS: &[(&str, usize, f64)] = &[
    ("Rust", 6, 3.0),
    ("Databases", 6, 2.5),
    ("Compilers", 6, 1.2),
    ("Distributed Systems", 6, 2.0),
    ("Machine Learning", 6, 3.5),
    ("Smartphones", 7, 4.0),
    ("Laptops", 7, 2.0),
    ("Cameras", 7, 1.5),
    ("Astronomy", 8, 2.0),
    ("Physics", 8, 1.8),
    ("Biology", 8, 1.5),
    ("Mathematics", 8, 1.6),
    ("Climate", 8, 2.2),
    ("Science Fiction Films", 9, 3.0),
    ("Documentaries", 9, 1.4),
    ("Animation", 9, 2.4),
    ("Classic Cinema", 9, 1.1),
    ("Poetry", 10, 1.0),
    ("Novels", 10, 2.2),
    ("Philosophy", 10, 1.3),
    ("Backpacking", 11, 2.0),
    ("Mountaineering", 11, 1.2),
    ("Beaches", 11, 2.5),
    ("Strategy Games", 12, 2.0),
    ("Role-Playing Games", 12, 2.4),
    ("Chess", 12, 1.6),
    ("Photography", 0, 3.0),
    ("Cooking", 4, 3.2),
    ("Running", 2, 2.6),
    ("Yoga", 2, 1.8),
];

impl Tags {
    /// Estimated resident heap bytes (tag structs, built tag-name strings,
    /// per-country and cumulative-weight vectors).
    pub fn heap_bytes(&self) -> usize {
        self.classes.len() * std::mem::size_of::<TagClassDef>()
            + self.tags.len() * std::mem::size_of::<TagDef>()
            + self.tags.iter().map(|t| t.name.len()).sum::<usize>()
            + self
                .by_country
                .iter()
                .map(|x| std::mem::size_of::<Vec<usize>>() + x.len() * 8)
                .sum::<usize>()
            + self.cum_all.len() * std::mem::size_of::<f64>()
    }

    /// Build the dictionary for `country_count` countries (aligned with the
    /// [`crate::dict::Places`] indices).
    pub fn build(country_count: usize) -> Tags {
        let places = crate::dict::places::Places::build();
        assert_eq!(places.country_count(), country_count);
        let classes: Vec<TagClassDef> =
            CLASSES.iter().map(|&(name, parent)| TagClassDef { name, parent }).collect();

        let mut tags = Vec::new();
        let mut by_country = vec![Vec::new(); country_count];

        for (ci, c) in places.countries().iter().enumerate() {
            // Country weight also boosts the tag's global popularity.
            let w = 1.0 + c.weight * 0.5;
            for (name, class) in [
                (format!("Music of {}", c.name), 1usize),
                (format!("{} Football", c.name), 2),
                (format!("Politics of {}", c.name), 3),
                (format!("{} Cuisine", c.name), 4),
            ] {
                by_country[ci].push(tags.len());
                tags.push(TagDef { name, class, country: Some(ci), weight: w });
            }
        }
        for &(name, class, weight) in GLOBAL_TAGS {
            tags.push(TagDef { name: name.to_string(), class, country: None, weight });
        }

        let mut cum_all = Vec::with_capacity(tags.len());
        let mut total = 0.0;
        for t in &tags {
            total += t.weight;
            cum_all.push(total);
        }
        Tags { classes, tags, by_country, cum_all }
    }

    /// Number of tags.
    pub fn tag_count(&self) -> usize {
        self.tags.len()
    }

    /// Number of tag classes.
    pub fn class_count(&self) -> usize {
        self.classes.len()
    }

    /// Tag definition by index.
    pub fn tag(&self, idx: usize) -> &TagDef {
        &self.tags[idx]
    }

    /// Tag class by index.
    pub fn class(&self, idx: usize) -> &TagClassDef {
        &self.classes[idx]
    }

    /// Find a tag class by name.
    pub fn class_by_name(&self, name: &str) -> Option<usize> {
        self.classes.iter().position(|c| c.name == name)
    }

    /// All class indices that are `class` or transitively below it.
    pub fn class_descendants(&self, class: usize) -> Vec<usize> {
        let mut out = vec![class];
        let mut i = 0;
        while i < out.len() {
            let cur = out[i];
            for (k, c) in self.classes.iter().enumerate() {
                if c.parent == Some(cur) {
                    out.push(k);
                }
            }
            i += 1;
        }
        out
    }

    /// Sample one tag, biased toward the person's home country: with
    /// probability `local_prob` pick among the country's own tags, else
    /// sample all tags by popularity weight.
    pub fn sample_interest(&self, rng: &mut Rng, country: CountryIdx, local_prob: f64) -> usize {
        if rng.chance(local_prob) {
            let local = &self.by_country[country];
            local[rng.index(local.len())]
        } else {
            rng.weighted_index(&self.cum_all)
        }
    }

    /// Sample `n` distinct interests for a person from `country`.
    pub fn sample_interest_set(&self, rng: &mut Rng, country: CountryIdx, n: usize) -> Vec<usize> {
        let n = n.min(self.tags.len());
        let mut out: Vec<usize> = Vec::with_capacity(n);
        // Bounded retry loop; fall back to linear fill if the space is tiny.
        let mut attempts = 0;
        while out.len() < n && attempts < n * 20 {
            let t = self.sample_interest(rng, country, 0.45);
            if !out.contains(&t) {
                out.push(t);
            }
            attempts += 1;
        }
        let mut next = 0;
        while out.len() < n {
            if !out.contains(&next) {
                out.push(next);
            }
            next += 1;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{Rng, Stream};

    #[test]
    fn hierarchy_is_rooted_and_acyclic() {
        let t = Tags::build(crate::dict::places::Places::build().country_count());
        for (i, c) in (0..t.class_count()).map(|i| (i, t.class(i))) {
            match c.parent {
                None => assert_eq!(i, 0, "only Thing is a root"),
                Some(p) => assert!(p < i, "parents precede children"),
            }
        }
    }

    #[test]
    fn descendants_include_self_and_children() {
        let t = Tags::build(crate::dict::places::Places::build().country_count());
        let tech = t.class_by_name("Technology").unwrap();
        let desc = t.class_descendants(tech);
        assert!(desc.contains(&tech));
        assert!(desc.contains(&t.class_by_name("Programming").unwrap()));
        assert!(desc.contains(&t.class_by_name("Gadgets").unwrap()));
        assert!(!desc.contains(&t.class_by_name("Film").unwrap()));
    }

    #[test]
    fn interests_are_location_correlated() {
        let places = crate::dict::places::Places::build();
        let t = Tags::build(places.country_count());
        let de = places.country_by_name("Germany").unwrap();
        let mut rng = Rng::for_entity(7, Stream::Interests, 0);
        let n = 10_000;
        let local = (0..n)
            .filter(|_| t.tag(t.sample_interest(&mut rng, de, 0.45)).country == Some(de))
            .count();
        let frac = local as f64 / n as f64;
        // 45% direct-local probability plus a sliver from the weighted path.
        assert!(frac > 0.40 && frac < 0.60, "local fraction {frac}");
    }

    #[test]
    fn interest_sets_are_distinct() {
        let places = crate::dict::places::Places::build();
        let t = Tags::build(places.country_count());
        let mut rng = Rng::for_entity(8, Stream::Interests, 3);
        let set = t.sample_interest_set(&mut rng, 0, 12);
        assert_eq!(set.len(), 12);
        let mut sorted = set.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 12);
    }

    #[test]
    fn tag_names_are_unique() {
        let t = Tags::build(crate::dict::places::Places::build().country_count());
        let mut names: Vec<&str> = (0..t.tag_count()).map(|i| t.tag(i).name.as_str()).collect();
        let before = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), before);
    }
}
