//! A complete miniature SNB-Interactive benchmark run: bulk load, then the
//! driver replays the final four months as a mixed workload — updates,
//! Table 4 complex reads, and random-walk short reads — at a target
//! acceleration factor, reporting per-query latencies and whether the run
//! sustained the target (§4, "Rules and Metrics").
//!
//! ```sh
//! cargo run --release --example benchmark_run
//! ```

use ldbc_snb::datagen::{generate, GeneratorConfig};
use ldbc_snb::driver::{build_mix, run, DriverConfig, StoreConnector};
use ldbc_snb::params::curated_bindings;
use ldbc_snb::queries::Engine;
use ldbc_snb::store::Store;
use std::sync::Arc;

fn main() {
    let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4).min(8);
    let ds = generate(GeneratorConfig::with_persons(1_500).threads(threads).seed(5)).unwrap();
    let store = Arc::new(Store::new());
    store.bulk_load(&ds);

    // Curated parameters for the 14 complex-read templates.
    let bindings = curated_bindings(&ds, 16);
    let items = build_mix(&ds, &bindings);
    println!("workload: {} scheduled operations over 4 months of simulation", items.len());

    // Pick the acceleration so the run takes a few seconds of wall time.
    let sim_span = items.last().unwrap().due.since(items[0].due);
    let accel = sim_span as f64 / 5_000.0; // ~5s of real time
    println!("target acceleration factor: {accel:.0}x (sim ms per real ms)\n");

    let connector = StoreConnector::new(Arc::clone(&store), Engine::Intended);
    let config = DriverConfig {
        partitions: threads,
        acceleration: Some(accel),
        short_read_prob: 0.7,
        short_read_decay: 0.2,
        ..DriverConfig::default()
    };
    let report = run(&items, &connector, &config).expect("benchmark run");

    println!("== run report ==");
    println!("wall time:            {:?}", report.wall);
    println!("operations executed:  {}", report.total_ops);
    println!("throughput:           {:.0} ops/s", report.ops_per_second);
    println!("achieved acceleration:{:.0}x (target {accel:.0}x)", report.achieved_acceleration);
    let on_time = match report.on_time {
        Some(true) => "yes",
        Some(false) => "no",
        None => "n/a",
    };
    println!("on time (spec rule):  {on_time}");

    println!("\nper-kind latencies (mean / p99):");
    for kind in report.metrics.kinds() {
        let s = report.metrics.stats(kind).unwrap();
        println!("  {:>4}  n={:<6} {:>10.1?} / {:>10.1?}", kind.label(), s.count, s.mean, s.p99);
    }
}
