//! WAL crash-recovery fault injection and parallel-load determinism.
//!
//! Property-based round trips: append K committed ops, corrupt the log at
//! an arbitrary offset (truncation or bit flip — a torn write or a bad
//! sector), reopen with [`Wal::open_append`], and require that the intact
//! prefix replays, the damaged tail is physically truncated, and the log
//! accepts (and later recovers) subsequent appends. Plus the determinism
//! contract of the parallel bulk loader and the group-commit guarantee
//! that every acknowledged commit survives a crash.

use proptest::prelude::*;
use snb_core::update::UpdateOp;
use snb_core::{ForumId, MessageId, PersonId};
use snb_store::wal::{replay, SyncPolicy, Wal, WalMetrics};
use snb_store::Store;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

fn sample_ops() -> &'static [UpdateOp] {
    static OPS: OnceLock<Vec<UpdateOp>> = OnceLock::new();
    OPS.get_or_init(|| {
        let ds = snb_datagen::generate(
            snb_datagen::GeneratorConfig::with_persons(150).activity(0.3).seed(11),
        )
        .unwrap();
        let ops: Vec<UpdateOp> = ds.update_stream().into_iter().map(|s| s.op).collect();
        assert!(ops.len() > 60, "need a healthy op supply for fault injection");
        ops
    })
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("snb-recovery-{}-{name}", std::process::id()))
}

fn write_log(path: &Path, k: usize) {
    let wal = Wal::create_with(path, SyncPolicy::Never, WalMetrics::detached()).unwrap();
    for op in &sample_ops()[..k] {
        wal.append(op).unwrap();
    }
    wal.flush().unwrap();
}

fn ops_equal(a: &UpdateOp, b: &UpdateOp) -> bool {
    format!("{a:?}") == format!("{b:?}")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Truncate the log at an arbitrary byte offset (torn write at any
    /// point, magic included): recovery replays the longest intact prefix,
    /// trims the file to it, and the log keeps accepting appends that a
    /// second recovery then sees.
    #[test]
    fn truncation_at_any_offset_recovers_a_prefix(
        k in 5usize..30,
        cut_sel in any::<u32>(),
    ) {
        let path = tmp(&format!("trunc-{k}-{cut_sel}"));
        write_log(&path, k);
        let full = std::fs::read(&path).unwrap();
        let cut = cut_sel as usize % (full.len() + 1);
        std::fs::write(&path, &full[..cut]).unwrap();

        let metrics = WalMetrics::detached();
        let (wal, rep) = Wal::open_append(&path, SyncPolicy::Never, metrics.clone()).unwrap();
        // The intact prefix, and nothing but the prefix.
        prop_assert!(rep.ops.len() <= k);
        for (a, b) in sample_ops().iter().zip(&rep.ops) {
            prop_assert!(ops_equal(a, b), "replayed op diverged:\n{a:?}\n{b:?}");
        }
        prop_assert_eq!(rep.last_seq, rep.ops.len() as u64);
        // Anything discarded is reported and counted, and the file is
        // physically trimmed to the valid prefix.
        prop_assert_eq!(rep.truncated_bytes, (cut as u64).saturating_sub(rep.valid_bytes));
        prop_assert_eq!(metrics.recovery_truncated_bytes.get(), rep.truncated_bytes);
        prop_assert!(std::fs::metadata(&path).unwrap().len() >= rep.valid_bytes);

        // Subsequent appends land cleanly after the trim…
        let prefix = rep.ops.len();
        for op in &sample_ops()[k..k + 2] {
            wal.append(op).unwrap();
        }
        wal.flush().unwrap();
        drop(wal);
        // …and a second recovery sees prefix + 2 records, no loss.
        let rep2 = replay(&path).unwrap();
        prop_assert_eq!(rep2.ops.len(), prefix + 2);
        prop_assert_eq!(rep2.truncated_bytes, 0);
        prop_assert!(ops_equal(&rep2.ops[prefix], &sample_ops()[k]));
        std::fs::remove_file(&path).unwrap();
    }

    /// Flip one byte at an arbitrary offset past the file magic (bad
    /// sector): recovery stops before the damaged record, truncates, and
    /// resumes.
    #[test]
    fn bit_flip_at_any_offset_recovers_a_prefix(
        k in 5usize..30,
        off_sel in any::<u32>(),
    ) {
        let path = tmp(&format!("flip-{k}-{off_sel}"));
        write_log(&path, k);
        let mut bytes = std::fs::read(&path).unwrap();
        // Offsets 0..8 damage the magic — covered by the test below.
        let off = 8 + (off_sel as usize % (bytes.len() - 8));
        bytes[off] ^= 0xA5;
        std::fs::write(&path, &bytes).unwrap();

        let metrics = WalMetrics::detached();
        let (wal, rep) = Wal::open_append(&path, SyncPolicy::Never, metrics).unwrap();
        prop_assert!(rep.ops.len() < k, "the damaged record must not replay");
        for (a, b) in sample_ops().iter().zip(&rep.ops) {
            prop_assert!(ops_equal(a, b));
        }
        prop_assert!(rep.truncated_bytes > 0, "damage must be reported, not swallowed");

        let prefix = rep.ops.len();
        for op in &sample_ops()[k..k + 2] {
            wal.append(op).unwrap();
        }
        wal.flush().unwrap();
        drop(wal);
        let rep2 = replay(&path).unwrap();
        prop_assert_eq!(rep2.ops.len(), prefix + 2);
        prop_assert_eq!(rep2.truncated_bytes, 0);
        std::fs::remove_file(&path).unwrap();
    }
}

#[test]
fn damaged_magic_is_an_error_not_silent_data_loss() {
    let path = tmp("magic");
    write_log(&path, 5);
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[3] ^= 0xFF;
    std::fs::write(&path, &bytes).unwrap();
    assert!(
        Wal::open_append(&path, SyncPolicy::Never, WalMetrics::detached()).is_err(),
        "a log with a damaged magic must be rejected, not emptied"
    );
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn group_commit_acknowledged_commits_survive_a_crash() {
    let ds = snb_datagen::generate(
        snb_datagen::GeneratorConfig::with_persons(120).activity(0.3).seed(7),
    )
    .unwrap();
    let stream = ds.update_stream();
    let n = stream.len().min(200);
    let path = tmp("groupcrash");

    let store = Store::with_wal_policy(&path, SyncPolicy::default()).unwrap();
    store.bulk_load(&ds);
    for u in &stream[..n] {
        store.apply(&u.op).unwrap(); // acknowledged = durable
    }
    // Simulate a crash: no flush, no Drop — the process just stops caring.
    std::mem::forget(store);

    let (recovered, report) = Store::recover(&ds, &path).unwrap();
    assert_eq!(report.replayed as usize, n, "every acknowledged commit must replay");
    assert_eq!(report.truncated_bytes, 0);

    let reference = Store::new();
    reference.bulk_load(&ds);
    for u in &stream[..n] {
        reference.apply(&u.op).unwrap();
    }
    let sr = recovered.pinned();
    let sf = reference.pinned();
    assert_eq!(sr.person_slots(), sf.person_slots());
    assert_eq!(sr.message_slots(), sf.message_slots());
    for i in 0..sf.person_slots() as u64 {
        let p = PersonId(i);
        assert_eq!(sr.friends_iter(p).collect::<Vec<_>>(), sf.friends_iter(p).collect::<Vec<_>>());
        assert_eq!(
            sr.messages_of_iter(p).collect::<Vec<_>>(),
            sf.messages_of_iter(p).collect::<Vec<_>>()
        );
    }
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn parallel_bulk_load_is_deterministic_across_thread_counts() {
    let ds = snb_datagen::generate(
        snb_datagen::GeneratorConfig::with_persons(300).activity(0.4).seed(5),
    )
    .unwrap();
    let reference = Store::new();
    reference.bulk_load_until_threads(&ds, ds.config.end, 1);
    let rs = reference.pinned();
    for threads in [2usize, 3, 8] {
        let s = Store::new();
        s.bulk_load_until_threads(&ds, ds.config.end, threads);
        let sn = s.pinned();
        assert_eq!(sn.person_slots(), rs.person_slots(), "{threads} threads");
        assert_eq!(sn.forum_slots(), rs.forum_slots(), "{threads} threads");
        assert_eq!(sn.message_slots(), rs.message_slots(), "{threads} threads");
        for i in 0..rs.person_slots() as u64 {
            let p = PersonId(i);
            assert_eq!(
                sn.friends_iter(p).collect::<Vec<_>>(),
                rs.friends_iter(p).collect::<Vec<_>>(),
                "friends of {p} at {threads} threads"
            );
            assert_eq!(
                sn.messages_of_iter(p).collect::<Vec<_>>(),
                rs.messages_of_iter(p).collect::<Vec<_>>()
            );
            assert_eq!(
                sn.forums_of_iter(p).collect::<Vec<_>>(),
                rs.forums_of_iter(p).collect::<Vec<_>>()
            );
            assert_eq!(
                sn.likes_by_iter(p).collect::<Vec<_>>(),
                rs.likes_by_iter(p).collect::<Vec<_>>()
            );
        }
        for i in 0..rs.message_slots() as u64 {
            let m = MessageId(i);
            assert_eq!(
                sn.replies_of_iter(m).collect::<Vec<_>>(),
                rs.replies_of_iter(m).collect::<Vec<_>>()
            );
            assert_eq!(
                sn.likes_of_iter(m).collect::<Vec<_>>(),
                rs.likes_of_iter(m).collect::<Vec<_>>()
            );
            let (a, b) = (sn.message_ref(m), rs.message_ref(m));
            assert_eq!(format!("{a:?}"), format!("{b:?}"), "row {m} at {threads} threads");
        }
        for i in 0..rs.forum_slots() as u64 {
            let f = ForumId(i);
            assert_eq!(
                sn.posts_in_forum_iter(f).collect::<Vec<_>>(),
                rs.posts_in_forum_iter(f).collect::<Vec<_>>()
            );
            assert_eq!(
                sn.members_of_iter(f).collect::<Vec<_>>(),
                rs.members_of_iter(f).collect::<Vec<_>>()
            );
        }
    }
}
