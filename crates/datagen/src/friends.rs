//! Friendship ("knows") edge generation — §2.3.
//!
//! The Homophily Principle is realized by a multi-stage edge-generation
//! process over correlation dimensions: (1) where people studied, (2) their
//! interests, (3) a random dimension reproducing the inhomogeneity of real
//! graphs, with 45 % / 45 % / 10 % of each person's target degree assigned
//! to the three stages. Each stage re-sorts persons by its dimension key and
//! scans sequentially with a sliding window, picking friends at a
//! geometrically distributed distance; the probability of befriending
//! someone outside the window is zero by construction.
//!
//! The study-location key packs, exactly as the paper specifies, "the
//! Z-order location of the university's city (bits 31-24), the university
//! ID (bits 23-12), and the studied year (bits 11-0)".
//!
//! Parallelism follows the Hadoop design deterministically: persons are cut
//! into fixed-size blocks (boundaries independent of thread count); edges
//! are confined to a block, the per-stage analogue of data "dropped from
//! the window". The three stages use different sort orders, so block cuts
//! fall on different person sets and do not globally partition the graph.

use crate::config::GeneratorConfig;
use crate::pipeline::run_blocks;
use snb_core::degree::DegreeModel;
use snb_core::dict::Dictionaries;
use snb_core::rng::{Rng, Stream};
use snb_core::schema::{Knows, Person};
use snb_core::time::MILLIS_PER_DAY;
use std::collections::HashSet;

/// Success probability of the geometric in-window distance distribution;
/// mean distance ≈ (1-p)/p ≈ 11 slots.
const GEOMETRIC_P: f64 = 0.085;

/// Generate the friendship edge set. Edges are returned with `a < b` and
/// sorted by `(creation_date, a, b)`.
pub fn generate_friendships(config: &GeneratorConfig, persons: &[Person]) -> Vec<Knows> {
    let n = persons.len();
    let model = DegreeModel::facebook();

    // Target degree and the 45/45/10 split per person.
    let budgets: Vec<[u32; 3]> = persons
        .iter()
        .map(|p| {
            let mut rng = Rng::for_entity(config.seed, Stream::Degree, p.id.raw());
            let t = model.target_degree(&mut rng, config.n_persons);
            let d1 = t * 45 / 100;
            let d2 = t * 45 / 100;
            [d1, d2, t - d1 - d2]
        })
        .collect();

    let mut all_edges: Vec<(u64, u64)> = Vec::new();
    for dim in 0..3u8 {
        let order = sorted_order(config, persons, dim);
        let dim_edges = run_blocks(n, config.block_size, config.threads, |range| {
            window_pass(config, persons, &budgets, &order, dim, range)
        });
        all_edges.extend(dim_edges.into_iter().flatten());
    }

    // Normalize, deduplicate across dimensions, and assign creation dates.
    let mut seen: HashSet<(u64, u64)> = HashSet::with_capacity(all_edges.len());
    let mut knows = Vec::with_capacity(all_edges.len());
    for (x, y) in all_edges {
        let (a, b) = if x < y { (x, y) } else { (y, x) };
        if a == b || !seen.insert((a, b)) {
            continue;
        }
        knows.push(make_edge(config, persons, a, b));
    }
    knows.sort_by_key(|k| (k.creation_date, k.a, k.b));
    knows
}

/// Friendship creation date: after both accounts exist plus `T_SAFE`
/// (Table 1 time ordering + §4.2's safe-time guarantee), then an
/// exponentially distributed delay.
fn make_edge(config: &GeneratorConfig, persons: &[Person], a: u64, b: u64) -> Knows {
    let n = persons.len() as u64;
    let mut rng = Rng::for_entity(config.seed, Stream::Friends, a * n + b);
    let earliest = persons[a as usize]
        .creation_date
        .max(persons[b as usize].creation_date)
        .plus_millis(config.t_safe_millis);
    let latest = config.end.plus_millis(-MILLIS_PER_DAY);
    let date = if earliest >= latest {
        latest
    } else {
        let span = latest.since(earliest) as f64;
        // Mean delay: a quarter of the available span.
        let delay = rng.exponential(4.0 / span).min(span - 1.0);
        earliest.plus_millis(delay as i64)
    };
    Knows { a: persons[a as usize].id, b: persons[b as usize].id, creation_date: date }
}

/// Person indices sorted by the dimension key (ties broken by person id for
/// determinism).
fn sorted_order(config: &GeneratorConfig, persons: &[Person], dim: u8) -> Vec<u32> {
    let mut keyed: Vec<(u64, u32)> = persons
        .iter()
        .enumerate()
        .map(|(i, p)| (dimension_key(config, p, dim), i as u32))
        .collect();
    keyed.sort_unstable();
    keyed.into_iter().map(|(_, i)| i).collect()
}

/// The per-dimension sort key.
fn dimension_key(config: &GeneratorConfig, p: &Person, dim: u8) -> u64 {
    let dicts = Dictionaries::global();
    match dim {
        0 => {
            // Study location: Z-order(city) | university | class year, in
            // the paper's exact bit layout. Persons without a university
            // sort by home city with a sentinel university id.
            let (z, uni, year) = match p.study_at {
                Some(s) => {
                    let u = dicts.orgs.university(s.university.index());
                    (
                        dicts.places.city_zorder(u.city) as u64,
                        s.university.raw() & 0xFFF,
                        (s.class_year as u64).saturating_sub(1950) & 0xFFF,
                    )
                }
                None => (dicts.places.city_zorder(p.city) as u64, 0xFFF, p.id.raw() & 0xFFF),
            };
            (z << 24) | (uni << 12) | year
        }
        1 => {
            // Interests: group by the person's primary interest tag, then a
            // stable per-person scatter within the tag cluster.
            let main_tag = p.interests.first().map(|t| t.raw()).unwrap_or(u32::MAX as u64);
            (main_tag << 32) | (splitmix(p.id.raw() ^ config.seed) & 0xFFFF_FFFF)
        }
        _ => splitmix(p.id.raw().wrapping_add(config.seed).wrapping_mul(0x9E37_79B9)),
    }
}

fn splitmix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One sliding-window pass over a block of the sorted order; returns raw
/// `(person_index, person_index)` pairs.
fn window_pass(
    config: &GeneratorConfig,
    persons: &[Person],
    budgets: &[[u32; 3]],
    order: &[u32],
    dim: u8,
    range: std::ops::Range<usize>,
) -> Vec<(u64, u64)> {
    let mut remaining: Vec<u32> =
        range.clone().map(|pos| budgets[order[pos] as usize][dim as usize]).collect();
    let mut connected: HashSet<(u32, u32)> = HashSet::new();
    let mut edges = Vec::new();
    let window = config.window_size;

    for i in range.clone() {
        let li = i - range.start;
        if remaining[li] == 0 {
            continue;
        }
        let pid = persons[order[i] as usize].id.raw();
        let mut rng = Rng::for_entity(config.seed, Stream::Friends, ((dim as u64) << 56) | pid);
        let mut attempts = remaining[li] as usize * 4 + 8;
        while remaining[li] > 0 && attempts > 0 {
            attempts -= 1;
            let gap = 1 + rng.geometric(GEOMETRIC_P) as usize;
            let j = i + gap;
            if gap > window || j >= range.end {
                continue;
            }
            let lj = j - range.start;
            if remaining[lj] == 0 || !connected.insert((li as u32, lj as u32)) {
                continue;
            }
            remaining[li] -= 1;
            remaining[lj] -= 1;
            edges.push((order[i] as u64, order[j] as u64));
        }
    }
    edges
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::person::generate_persons;

    fn dataset(n: u64) -> (GeneratorConfig, Vec<Person>, Vec<Knows>) {
        let config = GeneratorConfig::with_persons(n);
        let persons = generate_persons(&config);
        let knows = generate_friendships(&config, &persons);
        (config, persons, knows)
    }

    #[test]
    fn edges_are_normalized_and_unique() {
        let (_, _, knows) = dataset(800);
        let mut seen = HashSet::new();
        for k in &knows {
            assert!(k.a < k.b, "normalized");
            assert!(seen.insert((k.a, k.b)), "duplicate edge {k:?}");
        }
    }

    #[test]
    fn average_degree_tracks_paper_formula() {
        let (config, persons, knows) = dataset(2_000);
        let avg = 2.0 * knows.len() as f64 / persons.len() as f64;
        let target = DegreeModel::avg_degree_for(config.n_persons);
        // Window/block truncation loses some budget; require 55-100 %.
        assert!(
            avg > 0.55 * target && avg <= 1.02 * target,
            "avg degree {avg:.1} vs target {target:.1}"
        );
    }

    #[test]
    fn degree_distribution_is_skewed() {
        let (_, persons, knows) = dataset(2_000);
        let mut deg = vec![0u32; persons.len()];
        for k in &knows {
            deg[k.a.index()] += 1;
            deg[k.b.index()] += 1;
        }
        let mean = deg.iter().map(|&d| d as f64).sum::<f64>() / deg.len() as f64;
        let max = *deg.iter().max().unwrap() as f64;
        assert!(max > 4.0 * mean, "max {max} mean {mean}");
    }

    #[test]
    fn friendship_dates_respect_account_creation_and_t_safe() {
        let (config, persons, knows) = dataset(600);
        for k in &knows {
            let pa = &persons[k.a.index()];
            let pb = &persons[k.b.index()];
            let earliest = pa.creation_date.max(pb.creation_date).plus_millis(config.t_safe_millis);
            assert!(
                k.creation_date >= earliest.min(config.end.plus_millis(-MILLIS_PER_DAY)),
                "edge too early"
            );
            assert!(k.creation_date < config.end);
        }
    }

    #[test]
    fn generation_is_thread_count_independent() {
        let config1 = GeneratorConfig::with_persons(1_500).threads(1);
        let config4 = GeneratorConfig::with_persons(1_500).threads(4);
        let persons = generate_persons(&config1);
        let a = generate_friendships(&config1, &persons);
        let b = generate_friendships(&config4, &persons);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x, y);
        }
    }

    #[test]
    fn homophily_friends_share_attributes() {
        // Friends should share a country or an interest far more often than
        // random pairs do.
        let (_, persons, knows) = dataset(2_000);
        let similarity = |a: &Person, b: &Person| -> bool {
            a.country == b.country || a.interests.iter().any(|t| b.interests.contains(t))
        };
        let friend_sim = knows
            .iter()
            .filter(|k| similarity(&persons[k.a.index()], &persons[k.b.index()]))
            .count() as f64
            / knows.len() as f64;
        // Random-pair baseline.
        let mut rng = Rng::for_entity(123, Stream::Misc, 0);
        let m = 5_000;
        let rand_sim = (0..m)
            .filter(|_| {
                let a = &persons[rng.index(persons.len())];
                let b = &persons[rng.index(persons.len())];
                similarity(a, b)
            })
            .count() as f64
            / m as f64;
        assert!(
            friend_sim > rand_sim + 0.10,
            "homophily too weak: friends {friend_sim:.2} vs random {rand_sim:.2}"
        );
    }

    #[test]
    fn generated_graph_has_one_dominant_component() {
        // §2: persons form one dominant connected component.
        fn root(parent: &mut [usize], mut v: usize) -> usize {
            while parent[v] != v {
                parent[v] = parent[parent[v]];
                v = parent[v];
            }
            v
        }
        for n in [600, 800] {
            let (_, persons, knows) = dataset(n);
            let size = persons.len();
            let mut parent: Vec<usize> = (0..size).collect();
            for k in &knows {
                let (ra, rb) = (root(&mut parent, k.a.index()), root(&mut parent, k.b.index()));
                parent[ra] = rb;
            }
            let mut sizes = vec![0usize; size];
            for v in 0..size {
                sizes[root(&mut parent, v)] += 1;
            }
            let largest = *sizes.iter().max().unwrap();
            assert!(
                largest as f64 > 0.85 * size as f64,
                "{n} persons: largest component covers only {largest}/{size}"
            );
        }
    }

    #[test]
    fn generated_graph_clusters_more_than_random() {
        // §2.3: homophily clusters friendships far above the Erdős–Rényi
        // expectation, which is mean_degree / n. Average local clustering
        // over persons with degree >= 2; each triangle is counted once,
        // from its lowest-index corner.
        for n in [600, 800] {
            let (_, persons, knows) = dataset(n);
            let size = persons.len();
            let mut adj = vec![Vec::new(); size];
            for k in &knows {
                adj[k.a.index()].push(k.b.index());
                adj[k.b.index()].push(k.a.index());
            }
            adj.iter_mut().for_each(|l: &mut Vec<usize>| l.sort_unstable());
            let (mut cc_sum, mut cc_count, mut triangles) = (0.0, 0usize, 0u64);
            for (v, neigh) in adj.iter().enumerate() {
                let d = neigh.len();
                if d < 2 {
                    continue;
                }
                let mut closed = 0usize;
                for (i, &a) in neigh.iter().enumerate() {
                    for &b in &neigh[i + 1..] {
                        if adj[a].binary_search(&b).is_ok() {
                            closed += 1;
                            triangles += u64::from(v < a);
                        }
                    }
                }
                cc_sum += 2.0 * closed as f64 / (d * (d - 1)) as f64;
                cc_count += 1;
            }
            let cc = cc_sum / cc_count.max(1) as f64;
            let random_cc = 2.0 * knows.len() as f64 / size as f64 / size as f64;
            assert!(
                cc > 5.0 * random_cc,
                "{n} persons: clustering {cc:.4} vs random expectation {random_cc:.4}"
            );
            assert!(triangles > 0, "{n} persons: no triangle");
        }
    }

    #[test]
    fn study_location_key_layout_matches_paper() {
        let config = GeneratorConfig::with_persons(100);
        let persons = generate_persons(&config);
        let p = persons.iter().find(|p| p.study_at.is_some()).unwrap();
        let key = dimension_key(&config, p, 0);
        let s = p.study_at.unwrap();
        assert_eq!((key >> 12) & 0xFFF, s.university.raw() & 0xFFF, "bits 23-12 university");
        assert_eq!(key & 0xFFF, (s.class_year as u64 - 1950) & 0xFFF, "bits 11-0 year");
        assert!(key >> 24 <= 0xFF, "bits 31-24 z-order");
    }
}
