//! Observability primitives for the SNB interactive workload.
//!
//! The interactive benchmark's headline metric — the acceleration factor a
//! system sustains — is only meaningful next to *how* it was achieved: query
//! latency distributions, scheduler wait breakdowns, and store-level work
//! counters (the paper's "full disclosure" reports). This crate provides the
//! shared building blocks all layers record into:
//!
//! - [`LatencyHistogram`]: fixed-bucket log-linear histogram with atomic
//!   buckets. Recording is a handful of relaxed atomic adds — no allocation,
//!   no locks — so it can sit on the driver's hot path. Streaming quantiles
//!   (p50/p95/p99), exact mean/max, and lossless merging.
//! - [`Counters`] / [`Counter`]: a registry of named atomic counters with
//!   `#[inline]` increments, snapshotted in sorted name order. Names follow
//!   `layer.subsystem.metric` (e.g. `store.mvcc.versions_walked`).
//!   [`Gauge`] is the decrementable sibling for level quantities (open
//!   connections, pipeline depth) that rise and fall.
//! - [`QueryProfile`]: per-operator tick counts (rows scanned, index probes,
//!   neighbors expanded, versions walked, result rows) threaded to query
//!   implementations through a thread-local scope so deep helpers tick it
//!   without signature churn.
//! - [`Json`]: a tiny dependency-free JSON document builder backing the
//!   machine-readable full-disclosure export.
//! - [`trace`]: causal span tracing — lock-free per-thread span rings with
//!   a scoped [`span!`] API, remote-capture stitching for networked runs,
//!   and Chrome `trace_event` export. One relaxed load when disabled.

mod counters;
mod hist;
mod json;
mod profile;
pub mod trace;

pub use counters::{Counter, Counters, Gauge};
pub use hist::{HistogramSnapshot, LatencyHistogram};
pub use json::Json;
pub use profile::{
    current_profile, tick_index_probes, tick_neighbors_expanded, tick_result_rows,
    tick_rows_scanned, tick_scratch_reuses, tick_versions_walked, ProfileGuard, ProfileSnapshot,
    QueryProfile,
};
