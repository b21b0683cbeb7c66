//! # snb-bench
//!
//! Benchmark harness: one binary per table and figure of the paper's
//! evaluation (run with `cargo run -p snb-bench --release --bin <name>`).
//! This library holds the shared plumbing: dataset construction, timing,
//! and table rendering.
//!
//! Absolute numbers will not match the paper (its systems ran on dual-Xeon
//! servers against Sparksee/Virtuoso); every binary prints the paper's
//! reference rows next to the measured ones so the *shape* can be compared.

use snb_datagen::{generate, Dataset, GeneratorConfig};
use snb_queries::{complex, ComplexQuery, Engine};
use snb_store::Store;
use std::time::{Duration, Instant};

/// Standard bench scale: ≈ SF0.33 under the persons-per-SF mapping stated
/// in EXPERIMENTS.md ("Scale mapping").
pub const BENCH_PERSONS: u64 = 2_000;

/// Generate a dataset of `persons` with bench-appropriate settings.
pub fn dataset(persons: u64) -> Dataset {
    generate(GeneratorConfig::with_persons(persons).threads(num_threads()).seed(42))
        .expect("generation")
}

/// Generate with a custom config.
pub fn dataset_with(config: GeneratorConfig) -> Dataset {
    generate(config).expect("generation")
}

/// A store loaded with the bulk part of `ds`.
pub fn bulk_store(ds: &Dataset) -> Store {
    let store = Store::new();
    store.bulk_load(ds);
    store
}

/// A store loaded with everything in `ds`.
pub fn full_store(ds: &Dataset) -> Store {
    let store = Store::new();
    store.load_full(ds);
    store
}

/// Available parallelism, capped at 8 for reproducible-ish runs.
pub fn num_threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4).min(8)
}

/// Wall-clock a closure.
pub fn time<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed())
}

/// Mean execution time of a complex-query binding set on one engine.
pub fn mean_query_time(store: &Store, engine: Engine, bindings: &[ComplexQuery]) -> Duration {
    let mut total = Duration::ZERO;
    for q in bindings {
        let snap = store.pinned();
        let (_, d) = time(|| complex::run_complex(&snap, engine, q));
        total += d;
    }
    total / bindings.len().max(1) as u32
}

/// Per-binding execution times (for variance experiments).
pub fn query_times(store: &Store, engine: Engine, bindings: &[ComplexQuery]) -> Vec<Duration> {
    bindings
        .iter()
        .map(|q| {
            let snap = store.pinned();
            time(|| complex::run_complex(&snap, engine, q)).1
        })
        .collect()
}

/// Simple fixed-width table printer for experiment output.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with the given column headers.
    pub fn new(headers: &[&str]) -> Table {
        Table { headers: headers.iter().map(|s| s.to_string()).collect(), rows: Vec::new() }
    }

    /// Append a row (must match the header count).
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.headers.len());
        self.rows.push(cells.to_vec());
    }

    /// Render to stdout.
    pub fn print(&self) {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let line = |cells: &[String]| {
            let joined: Vec<String> = cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
                .collect();
            println!("  {}", joined.join("  "));
        };
        line(&self.headers);
        println!("  {}", widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>().join("  "));
        for row in &self.rows {
            line(row);
        }
    }
}

/// Format a duration in adaptive units.
pub fn fmt_duration(d: Duration) -> String {
    if d >= Duration::from_secs(1) {
        format!("{:.2}s", d.as_secs_f64())
    } else if d >= Duration::from_millis(1) {
        format!("{:.2}ms", d.as_secs_f64() * 1e3)
    } else {
        format!("{:.0}us", d.as_secs_f64() * 1e6)
    }
}

/// Coefficient of variation (stddev / mean) of durations.
pub fn coefficient_of_variation(samples: &[Duration]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let xs: Vec<f64> = samples.iter().map(|d| d.as_secs_f64()).collect();
    let mean = xs.iter().sum::<f64>() / xs.len() as f64;
    if mean == 0.0 {
        return 0.0;
    }
    let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / xs.len() as f64;
    var.sqrt() / mean
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_without_panicking() {
        let mut t = Table::new(&["a", "bb"]);
        t.row(&["1".into(), "2".into()]);
        t.print();
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(fmt_duration(Duration::from_micros(12)), "12us");
        assert_eq!(fmt_duration(Duration::from_millis(3)), "3.00ms");
        assert_eq!(fmt_duration(Duration::from_secs(2)), "2.00s");
    }

    #[test]
    fn cv_of_constant_samples_is_zero() {
        let xs = vec![Duration::from_millis(5); 10];
        assert!(coefficient_of_variation(&xs) < 1e-9);
        let mixed = vec![Duration::from_millis(1), Duration::from_millis(100)];
        assert!(coefficient_of_variation(&mixed) > 0.5);
    }
}
