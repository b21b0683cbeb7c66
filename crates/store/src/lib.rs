//! # snb-store
//!
//! The transactional in-memory property-graph store the benchmark runs
//! against — the substrate standing in for the paper's closed-source
//! systems under test. Insert-only MVCC gives serializable snapshot reads
//! (see [`mvcc`]), reads are latch-free (pinned snapshots hold no guard;
//! index tails are published with release/acquire atomics) while writers
//! commit in parallel through striped per-entity locks and publish
//! out-of-order behind a visibility watermark (the lock-free containers
//! are in `tail`, the write pipeline in `store`, the read view and its
//! iterators in `read`; see DESIGN.md "Concurrency model"), a
//! group-commit write-ahead log gives redo durability with
//! tail-truncating crash recovery (see [`wal`]), bulk loading is parallel
//! and sort-once (see the `bulk_load*` methods on [`Store`]), and the
//! index set is designed around the Interactive workload's "most recent N
//! before date" access patterns (see `tables`).

mod compact;
pub mod counters;
mod loader;
pub mod mvcc;
mod read;
pub mod stats;
mod store;
mod tables;
mod tail;
pub mod wal;

pub use counters::StoreCounters;
pub use read::{Dated, DatedIter, MessageMeta, PinnedSnapshot, RecentWalk};
pub use stats::StorageStats;
pub use store::{RecoveryReport, Store};
pub use tables::MessageRow;
pub use wal::{Replay, SyncPolicy, Wal, WalMetrics};

/// `T` alone on its own 128-byte line pair (adjacent-line prefetch pulls
/// lines in 128-byte pairs), so writers of neighbouring words never
/// invalidate each other's copy.
#[derive(Debug, Default)]
#[repr(align(128))]
pub(crate) struct Padded<T>(pub(crate) T);

impl<T> std::ops::Deref for Padded<T> {
    type Target = T;

    #[inline]
    fn deref(&self) -> &T {
        &self.0
    }
}
