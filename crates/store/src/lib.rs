//! # snb-store
//!
//! The transactional in-memory property-graph store the benchmark runs
//! against — the substrate standing in for the paper's closed-source
//! systems under test. Insert-only MVCC gives serializable snapshot reads
//! (see [`mvcc`]), reads are latch-free (pinned snapshots hold no guard;
//! index tails are published with release/acquire atomics) while writers
//! commit in parallel through striped per-entity locks and publish
//! out-of-order behind a visibility watermark (see [`graph`] and
//! DESIGN.md "Concurrency model"), a group-commit write-ahead log gives
//! redo durability with
//! tail-truncating crash recovery (see [`wal`]), bulk loading is parallel
//! and sort-once (see the `bulk_load*` methods on [`graph::Store`]), and
//! the index set is designed around the Interactive workload's "most
//! recent N before date" access patterns (see [`graph`]).

mod compact;
pub mod counters;
pub mod graph;
mod loader;
pub mod mvcc;
pub mod stats;
pub mod wal;

pub use counters::StoreCounters;
pub use graph::{
    Dated, DatedIter, MessageMeta, MessageRow, PinnedSnapshot, RecentWalk, RecoveryReport, Store,
};
pub use stats::StorageStats;
pub use wal::{decode_update, encode_update, Replay, SyncPolicy, Wal, WalMetrics};
