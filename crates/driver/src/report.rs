//! Full-disclosure reports.
//!
//! §1: "Each workload produces a single metric for performance at the given
//! scale ... The full disclosure further breaks down the composition of the
//! metric into its constituent parts, e.g. single query execution times."
//! This module renders a [`crate::scheduler::RunReport`] into that
//! disclosure: the headline acceleration factor plus the per-query latency
//! table, the workload composition against the §4 target CPU split
//! (10 % updates / 50 % complex / 40 % short), the on-time verdict,
//! scheduler accounting, and store counters. [`full_disclosure_json`]
//! emits the same data machine-readable (schema documented in DESIGN.md).

use crate::connector::OpKind;
use crate::scheduler::{RunReport, LATE_AFTER, ON_TIME_SHARE};
use snb_obs::Json;
use std::fmt::Write as _;
use std::time::Duration;

/// Workload-composition summary by operation class.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Composition {
    /// Fraction of total execution time spent in updates.
    pub update_share: f64,
    /// Fraction spent in complex reads.
    pub complex_share: f64,
    /// Fraction spent in short reads.
    pub short_share: f64,
}

/// Compute the time-share composition of a run from the exact per-kind
/// time totals.
pub fn composition(report: &RunReport) -> Composition {
    let mut update = 0.0;
    let mut complex = 0.0;
    let mut short = 0.0;
    for kind in report.metrics.kinds() {
        let s = report.metrics.stats(kind).expect("kind has stats");
        let total = s.total.as_secs_f64();
        match kind {
            OpKind::Update(_) => update += total,
            OpKind::Complex(_) => complex += total,
            OpKind::Short(_) => short += total,
        }
    }
    let sum = (update + complex + short).max(f64::MIN_POSITIVE);
    Composition {
        update_share: update / sum,
        complex_share: complex / sum,
        short_share: short / sum,
    }
}

/// The on-time share of the scheduled operations, the verdict and the
/// achieved share of the target acceleration, or `n/a` in throughput mode.
/// The ratio sits next to the verdict because a run that ends less than
/// [`LATE_AFTER`] behind passes the rule however far below target it ran.
fn on_time_line(report: &RunReport) -> String {
    let (Some(on_time), Some(target)) = (report.on_time, report.target_acceleration) else {
        return "n/a (throughput mode)".into();
    };
    let late: u64 = report.partitions.iter().map(|p| p.late_ops).sum();
    let share = 1.0 - late as f64 / report.scheduled_ops as f64;
    format!(
        "{:.2}% of {} scheduled ops started within {:?} (≥ {:.0}% required): {}; \
         achieved ÷ target acceleration = {:.2} (target {:.2})",
        100.0 * share,
        report.scheduled_ops,
        LATE_AFTER,
        100.0 * ON_TIME_SHARE,
        if on_time { "sustained" } else { "FELL BEHIND" },
        report.achieved_acceleration / target,
        target
    )
}

/// Render the full-disclosure report as plain text.
pub fn full_disclosure(report: &RunReport) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "=== SNB-Interactive full disclosure ===");
    let _ = writeln!(out, "operations executed:   {}", report.total_ops);
    let _ = writeln!(out, "wall time:             {:?}", report.wall);
    let _ = writeln!(out, "throughput:            {:.0} ops/s", report.ops_per_second);
    let _ = writeln!(
        out,
        "acceleration factor:   {:.2} (simulation time / real time)",
        report.achieved_acceleration
    );
    let _ = writeln!(out, "on time:               {}", on_time_line(report));

    let c = composition(report);
    let _ = writeln!(out, "\ntime composition (target 10% / 50% / 40%):");
    let _ = writeln!(out, "  updates:       {:5.1}%", 100.0 * c.update_share);
    let _ = writeln!(out, "  complex reads: {:5.1}%", 100.0 * c.complex_share);
    let _ = writeln!(out, "  short reads:   {:5.1}%", 100.0 * c.short_share);

    let _ = writeln!(out, "\nper-query breakdown:");
    let _ = writeln!(
        out,
        "  {:<6} {:>8} {:>12} {:>12} {:>12} {:>12}",
        "query", "count", "mean", "p50", "p99", "max"
    );
    for kind in report.metrics.kinds() {
        let s = report.metrics.stats(kind).expect("kind has stats");
        let f = |d: Duration| format!("{:.1?}", d);
        let _ = writeln!(
            out,
            "  {:<6} {:>8} {:>12} {:>12} {:>12} {:>12}",
            kind.label(),
            s.count,
            f(s.mean),
            f(s.p50),
            f(s.p99),
            f(s.max)
        );
    }

    let _ = writeln!(out, "\nscheduler (per partition):");
    let _ = writeln!(
        out,
        "  {:<10} {:>8} {:>10} {:>14} {:>10} {:>14} {:>8}",
        "partition", "ops", "gct waits", "gct wait (µs)", "gct parks", "max late (µs)", "late"
    );
    for p in &report.partitions {
        let _ = writeln!(
            out,
            "  {:<10} {:>8} {:>10} {:>14} {:>10} {:>14} {:>8}",
            p.partition,
            p.ops,
            p.gct_waits,
            p.gct_wait_micros,
            p.gct_parks,
            p.max_lateness_micros,
            p.late_ops
        );
    }

    if !report.connector_counters.is_empty() {
        let _ = writeln!(out, "\nstore counters:");
        for (name, value) in &report.connector_counters {
            let _ = writeln!(out, "  {name:<28} {value}");
        }
    }

    // Write-pipeline stage attribution: each histogram's unit is in its
    // name (`_nanos` / `_micros`), so values print raw and stay exact.
    let stages: Vec<_> =
        report.connector_histograms.iter().filter(|(_, h)| !h.is_empty()).collect();
    if !stages.is_empty() {
        let _ = writeln!(out, "\nwrite-pipeline stages and waits:");
        let _ = writeln!(
            out,
            "  {:<32} {:>9} {:>12} {:>12} {:>12} {:>12}",
            "histogram", "count", "mean", "p50", "p99", "max"
        );
        for (name, h) in stages {
            let _ = writeln!(
                out,
                "  {:<32} {:>9} {:>12.0} {:>12} {:>12} {:>12}",
                name,
                h.count,
                h.mean(),
                h.value_at_quantile(0.50),
                h.value_at_quantile(0.99),
                h.max
            );
        }
    }
    out
}

/// Render the full-disclosure report as JSON (schema in DESIGN.md).
pub fn full_disclosure_json(report: &RunReport) -> Json {
    let comp = composition(report);

    let queries: Vec<Json> = report
        .metrics
        .kinds()
        .into_iter()
        .map(|kind| {
            let s = report.metrics.stats(kind).expect("kind has stats");
            let mut q = Json::obj([
                ("kind", Json::from(kind.label())),
                ("count", Json::from(s.count)),
                ("total_nanos", Json::from(s.total.as_nanos() as u64)),
                ("mean_nanos", Json::from(s.mean.as_nanos() as u64)),
                ("p50_nanos", Json::from(s.p50.as_nanos() as u64)),
                ("p95_nanos", Json::from(s.p95.as_nanos() as u64)),
                ("p99_nanos", Json::from(s.p99.as_nanos() as u64)),
                ("max_nanos", Json::from(s.max.as_nanos() as u64)),
            ]);
            if let Some(profile) = report.metrics.profile(kind) {
                q.push_field(
                    "operators",
                    Json::obj(profile.fields().map(|(name, value)| (name, Json::from(value)))),
                );
            }
            q
        })
        .collect();

    let partitions = Json::arr(report.partitions.iter().map(|p| {
        Json::obj([
            ("partition", Json::from(p.partition)),
            ("ops", Json::from(p.ops)),
            ("gct_waits", Json::from(p.gct_waits)),
            ("gct_wait_micros", Json::from(p.gct_wait_micros)),
            ("gct_parks", Json::from(p.gct_parks)),
            ("max_lateness_micros", Json::from(p.max_lateness_micros)),
            ("late_ops", Json::from(p.late_ops)),
        ])
    }));

    let store_counters = Json::obj(
        report.connector_counters.iter().map(|(name, value)| (name.clone(), Json::from(*value))),
    );

    // Schema v2: full stage/wait histogram snapshots, keyed by name. The
    // unit is part of the name (`_nanos` / `_micros`); buckets are
    // `[low, high, count]` triples so a consumer can re-derive any
    // quantile or merge runs.
    let stage_histograms = Json::obj(report.connector_histograms.iter().map(|(name, h)| {
        (
            name.clone(),
            Json::obj([
                ("count", Json::from(h.count)),
                ("sum", Json::from(h.sum)),
                ("mean", Json::from(h.mean())),
                ("p50", Json::from(h.value_at_quantile(0.50))),
                ("p95", Json::from(h.value_at_quantile(0.95))),
                ("p99", Json::from(h.value_at_quantile(0.99))),
                ("max", Json::from(h.max)),
                (
                    "buckets",
                    Json::arr(h.buckets.iter().map(|&(low, high, count)| {
                        Json::arr([Json::from(low), Json::from(high), Json::from(count)])
                    })),
                ),
            ]),
        )
    }));

    Json::obj([
        ("schema_version", Json::from(4u64)),
        ("benchmark", Json::from("ldbc-snb-interactive")),
        ("total_ops", Json::from(report.total_ops)),
        ("wall_micros", Json::from(report.wall.as_micros() as u64)),
        ("ops_per_second", Json::from(report.ops_per_second)),
        ("sim_span_millis", Json::from(report.sim_span_millis)),
        ("achieved_acceleration", Json::from(report.achieved_acceleration)),
        ("scheduled_ops", Json::from(report.scheduled_ops)),
        ("target_acceleration", Json::from(report.target_acceleration)),
        ("on_time", Json::from(report.on_time)),
        (
            "composition",
            Json::obj([
                ("update_share", Json::from(comp.update_share)),
                ("complex_share", Json::from(comp.complex_share)),
                ("short_share", Json::from(comp.short_share)),
            ]),
        ),
        ("queries", Json::Arr(queries)),
        ("scheduler", Json::obj([("partitions", partitions)])),
        ("store_counters", store_counters),
        ("stage_histograms", stage_histograms),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::connector::StoreConnector;
    use crate::mix;
    use crate::scheduler::{run, DriverConfig};
    use snb_queries::Engine;
    use std::sync::Arc;

    fn sample_report() -> RunReport {
        let ds =
            snb_datagen::generate(snb_datagen::GeneratorConfig::with_persons(300).activity(0.3))
                .unwrap();
        let bindings = snb_params::curated_bindings(&ds, 6);
        let items = mix::build_mix(&ds, &bindings);
        let store = Arc::new(snb_store::Store::new());
        store.bulk_load(&ds);
        let conn = StoreConnector::new(store, Engine::Intended);
        run(&items, &conn, &DriverConfig::default()).unwrap()
    }

    #[test]
    fn composition_shares_sum_to_one() {
        let report = sample_report();
        let c = composition(&report);
        assert!((c.update_share + c.complex_share + c.short_share - 1.0).abs() < 1e-9);
        assert!(c.update_share > 0.0);
        assert!(c.complex_share > 0.0);
        assert!(c.short_share > 0.0);
    }

    #[test]
    fn disclosure_contains_all_sections() {
        let report = sample_report();
        let text = full_disclosure(&report);
        assert!(text.contains("full disclosure"));
        assert!(text.contains("acceleration factor"));
        assert!(text.contains("on time:               n/a"));
        assert!(text.contains("time composition"));
        assert!(text.contains("per-query breakdown"));
        assert!(text.contains("scheduler (per partition)"));
        assert!(text.contains("store counters"));
        assert!(text.contains("store.txn.commits"));
        assert!(text.contains("write-pipeline stages"));
        assert!(text.contains("store.stage.apply_nanos"));
        // At least one of each class appears in the table.
        assert!(text.contains("Q8"), "complex reads missing:\n{text}");
        assert!(text.contains("U6"), "updates missing:\n{text}");
        assert!(text.contains("S1") || text.contains("S2"), "short reads missing");
    }

    #[test]
    fn json_disclosure_is_machine_readable() {
        let report = sample_report();
        let json = full_disclosure_json(&report);
        let text = json.render_pretty(2);
        assert!(text.contains("\"benchmark\": \"ldbc-snb-interactive\""));
        assert!(text.contains("\"queries\""));
        assert!(text.contains("\"operators\""));
        assert!(text.contains("\"rows_scanned\""));
        assert!(text.contains("\"store.mvcc.versions_walked\""));
        assert!(text.contains("\"gct_wait_micros\""));
        assert!(text.contains("\"schema_version\": 4"));
        assert!(text.contains("\"p50_nanos\""));
        // Throughput mode schedules nothing: the verdict is there, and null.
        assert!(text.contains("\"on_time\": null"), "{text}");
        assert!(text.contains("\"target_acceleration\": null"), "{text}");
        assert!(text.contains("\"max_lateness_micros\""));
        assert!(!text.contains("slippage"));
        assert!(!text.contains("\"epochs\""));
        assert!(!text.contains("\"steady"));
        assert!(text.contains("\"stage_histograms\""));
        assert!(text.contains("\"store.stage.publish_wait_nanos\""));
        assert!(text.contains("\"store.wal.fsync_micros\""));
        // The acceptance bar: at least 5 complex queries report non-zero
        // operator counters in the disclosure.
        let with_operators = report
            .metrics
            .kinds()
            .into_iter()
            .filter(|k| matches!(k, OpKind::Complex(_)))
            .filter(|&k| report.metrics.profile(k).is_some_and(|p| !p.is_zero()))
            .count();
        assert!(
            with_operators >= 5,
            "expected >=5 complex kinds with operator counters, got {with_operators}"
        );
    }
}
