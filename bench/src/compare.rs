//! `record compare A.json B.json`: is B worse than A, by the bounds
//! BENCHMARK.json fixes? One row per (metric, workload).

use crate::json::{as_f64, get, parse, same};
use crate::stats::{median, spread};
use crate::workloads::Workload;
use snb_obs::Json;
use std::fmt;

/// Header fields two result sets must share to be comparable.
const SAME: [&str; 7] =
    ["persons", "dataset_seed", "seed", "seconds", "partitions", "hw_threads", "trace"];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Within,
    Worse,
    /// Run-to-run spread wider than the bound: the sets cannot tell.
    Unresolved,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad(match self {
            Verdict::Better => "better",
            Verdict::Within => "within",
            Verdict::Worse => "WORSE",
            Verdict::Unresolved => "unresolved",
        })
    }
}

#[derive(Debug, PartialEq)]
pub struct Row {
    pub a_median: f64,
    pub b_median: f64,
    /// Share of A's median by which B is worse (negative: better).
    pub worse_by: f64,
    /// The wider of the two sets' interquartile spreads, over its median.
    pub spread: f64,
    pub verdict: Verdict,
}

/// Judge one (metric, workload): medians differ by more than `bound` in
/// the bad direction → worse, in the good direction → better, otherwise
/// within; but a spread wider than the bound resolves nothing.
pub fn judge(a: &[f64], b: &[f64], higher_is_better: bool, bound: f64) -> Row {
    let (a_median, b_median) = (median(a), median(b));
    let delta = (b_median - a_median) / a_median.abs().max(f64::MIN_POSITIVE);
    let worse_by = if higher_is_better { -delta } else { delta };
    let spread = spread(a).max(spread(b));
    let verdict = if spread > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::Within
    };
    Row { a_median, b_median, worse_by, spread, verdict }
}

struct Gate {
    name: String,
    unit: String,
    higher_is_better: bool,
    bound: f64,
}

fn gates(benchmark: &Json) -> Result<Vec<Gate>, String> {
    let Some(Json::Arr(list)) = get(benchmark, "end_to_end") else {
        return Err("BENCHMARK.json has no end_to_end list".into());
    };
    list.iter()
        .map(|m| {
            let text = |key: &str| match get(m, key) {
                Some(Json::Str(s)) => Ok(s.clone()),
                _ => Err(format!("BENCHMARK.json: end_to_end entry without {key}")),
            };
            Ok(Gate {
                name: text("name")?,
                unit: text("unit")?,
                higher_is_better: text("better")? == "higher",
                bound: get(m, "bound")
                    .and_then(as_f64)
                    .ok_or("BENCHMARK.json: entry without bound")?,
            })
        })
        .collect()
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn runs(set: &Json) -> &[Json] {
    match get(set, "runs") {
        Some(Json::Arr(runs)) => runs,
        _ => &[],
    }
}

/// The values of `field` under `metrics` of `workload`, one per run.
fn values(set: &Json, workload: &str, metric: &str) -> Vec<f64> {
    runs(set)
        .iter()
        .filter_map(|run| get(get(get(get(run, workload)?, "metrics")?, metric)?, "value"))
        .filter_map(as_f64)
        .collect()
}

/// Failed operations as a share of those attempted, over all runs.
fn failed_share(set: &Json, workload: &str) -> f64 {
    let sum = |field: &str| -> f64 {
        runs(set).iter().filter_map(|run| get(get(run, workload)?, field)).filter_map(as_f64).sum()
    };
    sum("failed") / sum("attempted").max(1.0)
}

/// Refuse sets that measured different things.
fn comparable(a: &Json, b: &Json) -> Result<(), String> {
    for (name, set) in [("A", a), ("B", b)] {
        if get(set, "smoke") != Some(&Json::Bool(false)) {
            return Err(format!("{name} is a --smoke result (or not a record result at all)"));
        }
        if runs(set).is_empty() {
            return Err(format!("{name} holds no runs"));
        }
    }
    let differ = |key: &str| match (get(a, key), get(b, key)) {
        (Some(x), Some(y)) => !same(x, y),
        (x, y) => x != y,
    };
    match SAME.into_iter().find(|key| differ(key)) {
        Some(key) => Err(format!(
            "A and B differ in {key}: {:?} vs {:?}",
            get(a, key).map(Json::render),
            get(b, key).map(Json::render),
        )),
        None => Ok(()),
    }
}

/// Print the comparison; `Ok(true)` when no row is worse.
pub fn compare(a_path: &str, b_path: &str, benchmark_path: &str) -> Result<bool, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    comparable(&a, &b)?;
    let gates = gates(&load(benchmark_path)?)?;
    println!("A = {a_path} ({} runs), B = {b_path} ({} runs)", runs(&a).len(), runs(&b).len());
    println!(
        "{:<24} {:<16} {:>14} {:>14} {:>8} {:>8} {:>7}  verdict",
        "metric", "workload", "A median", "B median", "worse", "spread", "bound"
    );
    let (mut worse, mut unresolved) = (0, 0);
    for gate in &gates {
        let mut widest: f64 = 0.0;
        for w in Workload::ALL {
            let (va, vb) = (values(&a, w.name(), &gate.name), values(&b, w.name(), &gate.name));
            if va.is_empty() || vb.is_empty() {
                return Err(format!("{} on {} is missing from a set", gate.name, w.name()));
            }
            let row = judge(&va, &vb, gate.higher_is_better, gate.bound);
            worse += (row.verdict == Verdict::Worse) as usize;
            unresolved += (row.verdict == Verdict::Unresolved) as usize;
            widest = widest.max(row.spread);
            println!(
                "{:<24} {:<16} {:>14.3} {:>14.3} {:>+7.1}% {:>7.1}% {:>6.0}%  {}",
                format!("{} [{}]", gate.name, gate.unit),
                w.name(),
                row.a_median,
                row.b_median,
                row.worse_by * 100.0,
                row.spread * 100.0,
                gate.bound * 100.0,
                row.verdict,
            );
        }
        // The rule the committed bounds were derived by (README.md).
        println!(
            "{:<24} widest spread {:.1}% -> bound by rule clamp(2 x spread, 5%, 25%) = {:.0}%",
            "",
            widest * 100.0,
            (2.0 * widest).clamp(0.05, 0.25) * 100.0
        );
    }
    for w in Workload::ALL {
        let (fa, fb) = (failed_share(&a, w.name()), failed_share(&b, w.name()));
        let verdict = if fb > fa { Verdict::Worse } else { Verdict::Within };
        worse += (verdict == Verdict::Worse) as usize;
        println!(
            "{:<24} {:<16} {:>14.6} {:>14.6} {:>36}",
            "failed_ops [share]",
            w.name(),
            fa,
            fb,
            verdict
        );
    }
    println!("{worse} worse, {unresolved} unresolved");
    Ok(worse == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_and_bound() {
        let a = [100.0, 101.0, 99.0, 100.0, 100.0];
        // Lower is better: +20 % is worse, −20 % better, +3 % within 5 %.
        assert_eq!(judge(&a, &[120.0; 5], false, 0.05).verdict, Verdict::Worse);
        assert_eq!(judge(&a, &[80.0; 5], false, 0.05).verdict, Verdict::Better);
        assert_eq!(judge(&a, &[103.0; 5], false, 0.05).verdict, Verdict::Within);
        // Higher is better: the same numbers read the other way.
        assert_eq!(judge(&a, &[120.0; 5], true, 0.05).verdict, Verdict::Better);
        assert_eq!(judge(&a, &[80.0; 5], true, 0.05).verdict, Verdict::Worse);
        let row = judge(&a, &[80.0; 5], true, 0.05);
        assert!((row.worse_by - 0.20).abs() < 1e-12);
        assert_eq!((row.a_median, row.b_median), (100.0, 80.0));
    }

    #[test]
    fn ties_and_changes_of_exactly_the_bound_are_within() {
        let a = [100.0; 5];
        assert_eq!(judge(&a, &a, false, 0.05).verdict, Verdict::Within);
        assert_eq!(judge(&a, &a, true, 0.05).verdict, Verdict::Within);
        assert_eq!(judge(&a, &[110.0; 5], false, 0.10).verdict, Verdict::Within);
        assert_eq!(judge(&a, &[90.0; 5], false, 0.10).verdict, Verdict::Within);
    }

    #[test]
    fn a_spread_wider_than_the_bound_resolves_nothing() {
        let noisy = [80.0, 90.0, 100.0, 110.0, 120.0]; // IQR 30 % of the median
        let steady = [100.0; 5];
        assert_eq!(judge(&noisy, &steady, false, 0.10).verdict, Verdict::Unresolved);
        assert_eq!(judge(&steady, &noisy, false, 0.10).verdict, Verdict::Unresolved);
        // Even a large shift stays unresolved rather than worse or better.
        assert_eq!(judge(&noisy, &[200.0; 5], false, 0.10).verdict, Verdict::Unresolved);
        // A single run has no spread to object to.
        assert_eq!(judge(&[100.0], &[130.0], false, 0.10).verdict, Verdict::Worse);
    }

    fn set(seed: u64, smoke: bool, ops: &[f64]) -> Json {
        let runs = ops.iter().map(|&v| {
            Json::obj(Workload::ALL.map(|w| {
                let metrics = Json::obj([(
                    "ops_per_s",
                    Json::obj([("value", Json::from(v)), ("unit", Json::from("ops/s"))]),
                )]);
                let body = [
                    ("attempted", Json::from(1000u64)),
                    ("failed", Json::from(0u64)),
                    ("metrics", metrics),
                ];
                (w.name(), Json::obj(body))
            }))
        });
        Json::obj([
            ("persons", Json::from(1000u64)),
            ("dataset_seed", Json::from(42u64)),
            ("seed", Json::from(seed)),
            ("seconds", Json::from(12u64)),
            ("partitions", Json::from(2u64)),
            ("hw_threads", Json::from(2u64)),
            ("trace", Json::from(false)),
            ("smoke", Json::from(smoke)),
            ("runs", Json::Arr(runs.collect())),
        ])
    }

    #[test]
    fn sets_that_measured_different_things_are_refused() {
        let a = set(42, false, &[100.0, 101.0]);
        assert!(comparable(&a, &set(42, false, &[99.0])).is_ok());
        assert!(comparable(&a, &set(43, false, &[99.0])).unwrap_err().contains("seed"));
        assert!(comparable(&a, &set(42, true, &[99.0])).unwrap_err().contains("--smoke"));
        assert!(comparable(&a, &set(42, false, &[])).unwrap_err().contains("no runs"));
        let mut other_host = set(42, false, &[99.0]);
        if let Json::Obj(fields) = &mut other_host {
            fields.iter_mut().find(|(k, _)| k == "hw_threads").unwrap().1 = Json::from(8u64);
        }
        assert!(comparable(&a, &other_host).unwrap_err().contains("hw_threads"));
    }

    #[test]
    fn values_and_failed_share_are_read_per_workload() {
        let a = set(42, false, &[100.0, 102.0, 98.0]);
        assert_eq!(values(&a, "mix.shard2", "ops_per_s"), vec![100.0, 102.0, 98.0]);
        assert!(values(&a, "mix.shard2", "setup_s").is_empty());
        assert!(values(&a, "no.such", "ops_per_s").is_empty());
        assert_eq!(failed_share(&a, "updates.mem"), 0.0);
    }
}
