//! Write-ahead log (v2): durable group commit + tail-truncating recovery.
//!
//! Every committed update transaction is appended as one length-prefixed,
//! sequence-numbered, checksummed binary record. The record checksum covers
//! the *header* (length and sequence number) as well as the payload, so a
//! corrupted length field is detected instead of being misparsed as a
//! giant record, and contiguous sequence numbers make any hole or
//! reordering in the record stream detectable. Recovery replays the intact
//! prefix and reports — rather than silently swallowing — how many bytes
//! and records were discarded behind the first torn or corrupt record;
//! [`Wal::open_append`] additionally truncates the torn tail so the log
//! resumes growing from a clean, durable end after a crash.
//!
//! The file is preallocated in sparse chunks and written in place, so the
//! steady-state `fdatasync` flushes data blocks only instead of also
//! journaling an inode size change per sync; the zeroed tail reads back as
//! a clean end of log and a clean close trims it.
//!
//! Durability is governed by [`SyncPolicy`]:
//!
//! - [`SyncPolicy::Never`]: buffered writes only — the OS page cache
//!   decides when data hits disk (fastest, not crash-durable).
//! - [`SyncPolicy::Group`] (the default): commits are acknowledged only
//!   after their record is fsynced, but the fsync is shared. The first
//!   committer to find no sync in flight becomes the *leader* and fsyncs
//!   once for every record appended so far while followers block on a
//!   condvar; commits arriving during that fsync pile up and are covered
//!   together by the next leader's sync. This natural piggybacking
//!   amortizes the dominant durability cost across concurrent committers
//!   without ever acknowledging a non-durable commit and without delaying
//!   anyone.
//!
//! A record's payload is a version byte followed by one update operation
//! in the encoding of `update_codec.rs`; this file is the log, group
//! commit and replay only.

use crate::update_codec::{decode_update, encode_update};
use snb_core::update::UpdateOp;
use snb_core::{SnbError, SnbResult};
use snb_obs::{Counter, LatencyHistogram};
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Instant;

/// Log format version, first byte of every record payload.
const WAL_VERSION: u8 = 2;
/// File magic at offset 0 (carries the format version).
const WAL_MAGIC: [u8; 8] = *b"SNBWAL2\0";
/// Per-record header: length (4) + sequence number (8) + checksum (4).
const RECORD_HEADER: usize = 16;
/// Records larger than this are rejected as corrupted length fields.
const MAX_RECORD: u32 = 1 << 24;
/// Appends spill the in-memory buffer to the OS once it grows past this.
const SPILL_BYTES: usize = 1 << 20;
/// The file is preallocated (sparse) in chunks of this size, so the
/// steady-state `fdatasync` flushes data blocks only — growing the file on
/// every append would make each sync also journal the inode size change, a
/// full metadata commit on ext4. The zeroed tail reads back as a clean end
/// of log (a record length can never be zero), and a clean close trims it.
const PREALLOC_BYTES: u64 = 1 << 23;

/// When (if ever) the log calls `fdatasync` before a commit is
/// acknowledged.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum SyncPolicy {
    /// Buffered writes only; acknowledged commits may be lost on a crash.
    Never,
    /// Group commit: one `fdatasync` covers every commit in flight. The
    /// leader syncs immediately; batching comes from commits piling up
    /// behind the in-flight fsync.
    #[default]
    Group,
}

impl SyncPolicy {
    /// Parse a CLI spelling: `never` or `group`.
    pub fn parse(s: &str) -> Option<SyncPolicy> {
        match s {
            "never" => Some(SyncPolicy::Never),
            "group" => Some(SyncPolicy::Group),
            _ => None,
        }
    }
}

/// Observability handles the log records into (cloned from the owning
/// store's counter registry, or detached in tests).
#[derive(Debug, Clone)]
pub struct WalMetrics {
    /// `store.wal.fsyncs`: `fdatasync` calls issued.
    pub fsyncs: Counter,
    /// `store.wal.group_size`: records made durable, summed over all fsyncs
    /// (mean batch size = `group_size / fsyncs`).
    pub group_size: Counter,
    /// `store.wal.sync_errors`: flush/sync failures, including those that
    /// would otherwise vanish inside `Drop`.
    pub sync_errors: Counter,
    /// `store.wal.recovery_truncated_bytes`: bytes cut off the tail by
    /// [`Wal::open_append`].
    pub recovery_truncated_bytes: Counter,
    /// fsync latency distribution, in microseconds.
    pub fsync_micros: Arc<LatencyHistogram>,
}

impl WalMetrics {
    /// Metrics not attached to any registry.
    pub fn detached() -> WalMetrics {
        WalMetrics {
            fsyncs: Counter::detached(),
            group_size: Counter::detached(),
            sync_errors: Counter::detached(),
            recovery_truncated_bytes: Counter::detached(),
            fsync_micros: Arc::new(LatencyHistogram::new()),
        }
    }
}

/// Receipt for one appended record.
#[derive(Debug, Clone, Copy)]
pub struct Appended {
    /// Sequence number assigned to the record (contiguous from 1).
    pub seq: u64,
    /// On-disk record size in bytes, header included.
    pub bytes: u64,
}

#[derive(Debug)]
struct Writer {
    file: File,
    /// Encoded records not yet handed to the OS.
    buf: Vec<u8>,
    /// Sequence number of the last appended record.
    appended: u64,
    /// Logical end of log: bytes written (or recovered), magic included.
    /// The physical file may extend past this with preallocated zeros.
    pos: u64,
    /// Physical file size (preallocation included).
    allocated: u64,
}

impl Writer {
    /// Hand buffered bytes to the OS (no durability implied), extending the
    /// preallocation when the log would outgrow it.
    fn spill(&mut self) -> SnbResult<()> {
        if !self.buf.is_empty() {
            let end = self.pos + self.buf.len() as u64;
            if end > self.allocated {
                let target = end.div_ceil(PREALLOC_BYTES) * PREALLOC_BYTES;
                self.file.set_len(target)?;
                self.allocated = target;
            }
            self.file.write_all(&self.buf)?;
            self.pos = end;
            self.buf.clear();
        }
        Ok(())
    }
}

#[derive(Debug)]
struct SyncState {
    /// Sequence number of the last record known durable on disk.
    synced: u64,
    /// Whether some committer is currently fsyncing.
    leader: bool,
}

/// An open write-ahead log. Internally synchronized: [`Wal::append`],
/// [`Wal::wait_durable`] and [`Wal::flush`] take `&self` and may be called
/// from any number of threads.
#[derive(Debug)]
pub struct Wal {
    writer: Mutex<Writer>,
    /// Separate handle for `fdatasync`, so appends can proceed while a
    /// group-commit leader is blocked in the kernel.
    sync_handle: File,
    state: Mutex<SyncState>,
    cond: Condvar,
    policy: SyncPolicy,
    metrics: WalMetrics,
    path: PathBuf,
    records: AtomicU64,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl Wal {
    /// Create (truncate) a log at `path` under `policy`.
    pub fn create_with(path: &Path, policy: SyncPolicy, metrics: WalMetrics) -> SnbResult<Wal> {
        let mut file = File::create(path)?;
        file.write_all(&WAL_MAGIC)?;
        file.set_len(PREALLOC_BYTES)?;
        Wal::from_parts(file, path, policy, metrics, 0, 0, WAL_MAGIC.len() as u64)
    }

    /// Reopen an existing log after a crash: replay it, truncate the torn
    /// or corrupt tail (and make the cut durable), then resume appending at
    /// the next sequence number. Creates the log when `path` does not
    /// exist. Returns the replay of the intact prefix.
    pub fn open_append(
        path: &Path,
        policy: SyncPolicy,
        metrics: WalMetrics,
    ) -> SnbResult<(Wal, Replay)> {
        if !path.exists() {
            let wal = Wal::create_with(path, policy, metrics)?;
            return Ok((wal, Replay::default()));
        }
        let replay = replay(path)?;
        let mut file = OpenOptions::new().read(true).write(true).open(path)?;
        let mut pos = replay.valid_bytes;
        if replay.truncated_bytes > 0 || replay.valid_bytes < WAL_MAGIC.len() as u64 {
            metrics.recovery_truncated_bytes.add(replay.truncated_bytes);
            if replay.valid_bytes < WAL_MAGIC.len() as u64 {
                // Crash mid-create: not even the magic survived. Start over.
                file.set_len(0)?;
                file.write_all(&WAL_MAGIC)?;
                pos = WAL_MAGIC.len() as u64;
            } else {
                file.set_len(replay.valid_bytes)?;
            }
            file.sync_data()?;
        }
        // A clean preallocated tail (all zeros) is kept: appending resumes
        // over it at the logical end of log, not the physical end of file.
        file.seek(SeekFrom::Start(pos))?;
        let records = replay.ops.len() as u64;
        let wal = Wal::from_parts(file, path, policy, metrics, replay.last_seq, records, pos)?;
        Ok((wal, replay))
    }

    #[allow(clippy::too_many_arguments)]
    fn from_parts(
        file: File,
        path: &Path,
        policy: SyncPolicy,
        metrics: WalMetrics,
        last_seq: u64,
        records: u64,
        pos: u64,
    ) -> SnbResult<Wal> {
        let allocated = file.metadata()?.len();
        let sync_handle = file.try_clone()?;
        Ok(Wal {
            writer: Mutex::new(Writer {
                file,
                buf: Vec::with_capacity(SPILL_BYTES),
                appended: last_seq,
                pos,
                allocated,
            }),
            sync_handle,
            state: Mutex::new(SyncState { synced: last_seq, leader: false }),
            cond: Condvar::new(),
            policy,
            metrics,
            path: path.to_path_buf(),
            records: AtomicU64::new(records),
        })
    }

    /// Path of the log file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Number of live records (replayed ones included after
    /// [`Wal::open_append`]).
    pub fn records(&self) -> u64 {
        self.records.load(Ordering::Relaxed)
    }

    /// Sequence number of the last record known durable.
    pub fn synced_seq(&self) -> u64 {
        lock(&self.state).synced
    }

    /// Append one committed operation. Buffered only — follow with
    /// [`Wal::wait_durable`] on the returned sequence number to honour the
    /// sync policy before acknowledging the commit.
    pub fn append(&self, op: &UpdateOp) -> SnbResult<Appended> {
        let mut payload = Vec::with_capacity(128);
        payload.push(WAL_VERSION);
        encode_update(op, &mut payload);
        let len = payload.len() as u32;
        let mut w = lock(&self.writer);
        let seq = w.appended + 1;
        let sum = record_checksum(len, seq, &payload);
        w.buf.extend_from_slice(&len.to_le_bytes());
        w.buf.extend_from_slice(&seq.to_le_bytes());
        w.buf.extend_from_slice(&sum.to_le_bytes());
        w.buf.extend_from_slice(&payload);
        w.appended = seq;
        if w.buf.len() >= SPILL_BYTES {
            w.spill()?;
        }
        drop(w);
        self.records.fetch_add(1, Ordering::Relaxed);
        Ok(Appended { seq, bytes: RECORD_HEADER as u64 + payload.len() as u64 })
    }

    /// Block until record `seq` is durable per the sync policy (returns
    /// immediately under [`SyncPolicy::Never`]). The durable horizon is
    /// cumulative: one wait on the newest record covers every earlier one.
    pub fn wait_durable(&self, seq: u64) -> SnbResult<()> {
        if self.policy == SyncPolicy::Never {
            return Ok(());
        }
        let mut st = lock(&self.state);
        while st.synced < seq {
            if st.leader {
                // A sync is in flight; it may or may not cover `seq`.
                st = self.cond.wait(st).unwrap_or_else(|e| e.into_inner());
                continue;
            }
            // Become the leader: one fsync for every record appended so far.
            st.leader = true;
            drop(st);
            let res = self.sync_now();
            st = lock(&self.state);
            st.leader = false;
            drop(st);
            // Wake the followers `sync_now` did not cover: one leads next.
            self.cond.notify_all();
            res?;
            st = lock(&self.state);
        }
        Ok(())
    }

    /// Spill and fsync everything appended so far, then publish the new
    /// durable horizon to waiting committers.
    fn sync_now(&self) -> SnbResult<()> {
        let res = (|| -> SnbResult<u64> {
            let mut w = lock(&self.writer);
            let target = w.appended;
            w.spill()?;
            drop(w);
            let t0 = Instant::now();
            self.sync_handle.sync_data()?;
            self.metrics.fsync_micros.record(t0.elapsed().as_micros() as u64);
            self.metrics.fsyncs.inc();
            Ok(target)
        })();
        match res {
            Ok(target) => {
                let mut st = lock(&self.state);
                if target > st.synced {
                    self.metrics.group_size.add(target - st.synced);
                    st.synced = target;
                }
                drop(st);
                self.cond.notify_all();
                Ok(())
            }
            Err(e) => {
                self.metrics.sync_errors.inc();
                Err(e)
            }
        }
    }

    /// Flush buffered records to the OS; under [`SyncPolicy::Group`] this
    /// is also a full durability point (fsync).
    pub fn flush(&self) -> SnbResult<()> {
        if self.policy == SyncPolicy::Never {
            lock(&self.writer).spill()
        } else {
            self.sync_now()
        }
    }
}

impl Drop for Wal {
    fn drop(&mut self) {
        let policy = self.policy;
        let res = (|| -> SnbResult<()> {
            let w = self.writer.get_mut().unwrap_or_else(|e| e.into_inner());
            w.spill()?;
            if w.allocated > w.pos {
                // Clean close: give the preallocated tail back.
                w.file.set_len(w.pos)?;
                w.allocated = w.pos;
            }
            if policy != SyncPolicy::Never {
                w.file.sync_data()?;
            }
            Ok(())
        })();
        if let Err(e) = res {
            // These errors used to vanish; surface them in the counter
            // registry and on stderr.
            self.metrics.sync_errors.inc();
            eprintln!("snb-store: WAL flush on drop failed for {}: {e}", self.path.display());
        }
    }
}

/// FNV-1a over `data`, continuing from state `h`.
fn fnv1a(mut h: u32, data: &[u8]) -> u32 {
    for &b in data {
        h ^= b as u32;
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

/// Record checksum covering the header fields (length, sequence number) and
/// the payload, so a corrupted length or sequence number is detected rather
/// than silently misparsed.
fn record_checksum(len: u32, seq: u64, payload: &[u8]) -> u32 {
    let h = fnv1a(0x811c_9dc5, &len.to_le_bytes());
    let h = fnv1a(h, &seq.to_le_bytes());
    fnv1a(h, payload)
}

/// Result of replaying a log: the intact prefix plus an account of what (if
/// anything) was discarded behind the first torn or corrupt record.
#[derive(Debug, Default)]
pub struct Replay {
    /// Operations decoded from the intact prefix, in append order.
    pub ops: Vec<UpdateOp>,
    /// Sequence number of the last intact record (0 when none).
    pub last_seq: u64,
    /// Bytes of the valid prefix, file magic included.
    pub valid_bytes: u64,
    /// Bytes discarded after the valid prefix.
    pub truncated_bytes: u64,
    /// Records (whole or partial, judged by their length fields) among the
    /// discarded bytes — best-effort, since the tail is untrusted.
    pub truncated_records: u64,
}

/// Replay a log read-only: decode the intact prefix and report — never
/// silently swallow — the discarded tail. See [`Wal::open_append`] for the
/// variant that also truncates the file and resumes appending.
pub fn replay(path: &Path) -> SnbResult<Replay> {
    let mut bytes = Vec::new();
    File::open(path)?.read_to_end(&mut bytes)?;
    if bytes.len() < WAL_MAGIC.len() {
        // Crash during create: nothing usable, not even the magic.
        return Ok(Replay {
            truncated_bytes: bytes.len() as u64,
            truncated_records: u64::from(!bytes.is_empty()),
            ..Replay::default()
        });
    }
    if bytes[..WAL_MAGIC.len()] != WAL_MAGIC {
        return Err(SnbError::Constraint(format!(
            "{}: not a v2 WAL file (bad magic)",
            path.display()
        )));
    }
    let mut ops = Vec::new();
    let mut off = WAL_MAGIC.len();
    let mut seq = 0u64;
    loop {
        let rest = &bytes[off..];
        if rest.len() < RECORD_HEADER {
            break;
        }
        let len = u32::from_le_bytes(rest[0..4].try_into().unwrap());
        if len == 0 || len > MAX_RECORD {
            break; // corrupted length field (inside the checksum domain)
        }
        let len = len as usize;
        if rest.len() < RECORD_HEADER + len {
            break; // torn tail
        }
        let rseq = u64::from_le_bytes(rest[4..12].try_into().unwrap());
        let sum = u32::from_le_bytes(rest[12..16].try_into().unwrap());
        let payload = &rest[RECORD_HEADER..RECORD_HEADER + len];
        if record_checksum(len as u32, rseq, payload) != sum {
            break; // corrupt record
        }
        if rseq != seq + 1 || payload.first() != Some(&WAL_VERSION) {
            break; // hole or reordering in the sequence, or foreign version
        }
        let mut p = &payload[1..];
        let Some(op) = decode_update(&mut p) else { break };
        ops.push(op);
        seq = rseq;
        off += RECORD_HEADER + len;
    }
    // An all-zeros tail is the unused part of the preallocated file — a
    // clean end of log (a record length can never be zero), not discarded
    // data. Anything else after the last intact record is a torn or corrupt
    // tail and is reported.
    let tail = &bytes[off..];
    let (truncated_bytes, truncated_records) =
        if tail.iter().all(|&b| b == 0) { (0, 0) } else { tail_account(tail) };
    Ok(Replay { ops, last_seq: seq, valid_bytes: off as u64, truncated_bytes, truncated_records })
}

/// Best-effort account of a discarded tail: walk it by its (untrusted)
/// length fields to estimate how many records are being thrown away.
fn tail_account(tail: &[u8]) -> (u64, u64) {
    let mut records = 0u64;
    let mut cur = tail;
    while cur.len() >= RECORD_HEADER {
        let len = u32::from_le_bytes(cur[0..4].try_into().unwrap());
        if len == 0 || len > MAX_RECORD || cur.len() < RECORD_HEADER + len as usize {
            break;
        }
        records += 1;
        cur = &cur[RECORD_HEADER + len as usize..];
    }
    if !cur.is_empty() {
        records += 1; // trailing partial or garbled record
    }
    (tail.len() as u64, records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use snb_core::dict::Dictionaries;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("snb-wal-{}-{name}", std::process::id()))
    }

    /// A fresh log that never syncs, with detached metrics.
    fn create(path: &Path) -> SnbResult<Wal> {
        Wal::create_with(path, SyncPolicy::Never, WalMetrics::detached())
    }

    fn sample_ops() -> Vec<UpdateOp> {
        // Use the generator for realistic, fully populated entities.
        let ds =
            snb_datagen::generate(snb_datagen::GeneratorConfig::with_persons(120).activity(0.3))
                .unwrap();
        let stream = ds.update_stream();
        assert!(stream.len() > 20);
        stream.into_iter().map(|s| s.op).collect()
    }

    fn ops_equal(a: &UpdateOp, b: &UpdateOp) -> bool {
        // Structural comparison via the debug representation; entities are
        // plain data so this is faithful.
        format!("{a:?}") == format!("{b:?}")
    }

    #[test]
    fn append_replay_roundtrip() {
        let _ = Dictionaries::global();
        let path = tmp("roundtrip");
        let ops = sample_ops();
        {
            let wal = create(&path).unwrap();
            for op in &ops {
                wal.append(op).unwrap();
            }
            wal.flush().unwrap();
            assert_eq!(wal.records(), ops.len() as u64);
        }
        let replayed = replay(&path).unwrap();
        assert_eq!(replayed.ops.len(), ops.len());
        assert_eq!(replayed.last_seq, ops.len() as u64);
        assert_eq!(replayed.truncated_bytes, 0);
        for (a, b) in ops.iter().zip(&replayed.ops) {
            assert!(ops_equal(a, b), "mismatch:\n{a:?}\n{b:?}");
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_is_reported_not_swallowed() {
        let path = tmp("torn");
        let ops = sample_ops();
        {
            let wal = create(&path).unwrap();
            for op in &ops {
                wal.append(op).unwrap();
            }
            wal.flush().unwrap();
        }
        // Truncate mid-record.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        let replayed = replay(&path).unwrap();
        assert_eq!(replayed.ops.len(), ops.len() - 1, "exactly the torn record dropped");
        assert_eq!(replayed.last_seq, ops.len() as u64 - 1);
        assert!(replayed.truncated_bytes > 0, "discarded tail must be reported");
        assert_eq!(replayed.truncated_records, 1);
        assert_eq!(
            replayed.valid_bytes + replayed.truncated_bytes,
            bytes.len() as u64 - 3,
            "valid prefix + discarded tail must cover the file"
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupt_record_stops_replay() {
        let path = tmp("corrupt");
        let ops = sample_ops();
        {
            let wal = create(&path).unwrap();
            for op in ops.iter().take(5) {
                wal.append(op).unwrap();
            }
            wal.flush().unwrap();
        }
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip a byte in the middle (inside some record).
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let replayed = replay(&path).unwrap();
        assert!(replayed.ops.len() < 5, "replay must stop at corruption");
        assert!(replayed.truncated_bytes > 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupted_length_field_is_detected() {
        // The v1 regression this format fixes: the checksum now covers the
        // length field, so a flipped length byte kills exactly that record
        // instead of desynchronizing the parse or being read as a huge
        // bogus record.
        let path = tmp("badlen");
        let ops = sample_ops();
        {
            let wal = create(&path).unwrap();
            for op in ops.iter().take(5) {
                wal.append(op).unwrap();
            }
            wal.flush().unwrap();
        }
        let mut bytes = std::fs::read(&path).unwrap();
        // Locate record 3's length field by walking the clean file.
        let mut off = WAL_MAGIC.len();
        for _ in 0..2 {
            let len = u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap()) as usize;
            off += RECORD_HEADER + len;
        }
        bytes[off] ^= 0x55; // low byte of record 3's length
        std::fs::write(&path, &bytes).unwrap();
        let replayed = replay(&path).unwrap();
        assert_eq!(replayed.ops.len(), 2, "replay must stop exactly before the bad length");
        assert!(replayed.truncated_bytes > 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn empty_log_replays_empty() {
        let path = tmp("empty");
        create(&path).unwrap().flush().unwrap();
        let replayed = replay(&path).unwrap();
        assert!(replayed.ops.is_empty());
        assert_eq!(replayed.valid_bytes, WAL_MAGIC.len() as u64);
        assert_eq!(replayed.truncated_bytes, 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn open_append_truncates_tail_and_resumes() {
        let path = tmp("resume");
        let ops = sample_ops();
        {
            let wal = create(&path).unwrap();
            for op in ops.iter().take(6) {
                wal.append(op).unwrap();
            }
            wal.flush().unwrap();
        }
        // Tear the last record.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();

        let metrics = WalMetrics::detached();
        let (wal, rep) = Wal::open_append(&path, SyncPolicy::Never, metrics.clone()).unwrap();
        assert_eq!(rep.ops.len(), 5);
        assert_eq!(rep.last_seq, 5);
        assert!(rep.truncated_bytes > 0);
        assert_eq!(metrics.recovery_truncated_bytes.get(), rep.truncated_bytes);
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            rep.valid_bytes,
            "torn tail must be physically truncated"
        );
        // Appending resumes at the next sequence number…
        for op in ops.iter().skip(6).take(2) {
            wal.append(op).unwrap();
        }
        wal.flush().unwrap();
        drop(wal);
        // …and a second recovery sees a clean log with all 7 records.
        let rep2 = replay(&path).unwrap();
        assert_eq!(rep2.ops.len(), 7);
        assert_eq!(rep2.last_seq, 7);
        assert_eq!(rep2.truncated_bytes, 0);
        for (a, b) in ops.iter().take(5).chain(ops.iter().skip(6).take(2)).zip(&rep2.ops) {
            assert!(ops_equal(a, b));
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn preallocated_zero_tail_is_a_clean_end() {
        let path = tmp("prealloc");
        let ops = sample_ops();
        {
            let wal = create(&path).unwrap();
            for op in ops.iter().take(4) {
                wal.append(op).unwrap();
            }
            wal.flush().unwrap();
            // Crash before the clean close: the preallocated tail stays.
            std::mem::forget(wal);
        }
        assert_eq!(std::fs::metadata(&path).unwrap().len(), PREALLOC_BYTES);
        let rep = replay(&path).unwrap();
        assert_eq!(rep.ops.len(), 4);
        assert_eq!(rep.truncated_bytes, 0, "a zeroed tail is unused space, not torn data");

        let metrics = WalMetrics::detached();
        let (wal, rep) = Wal::open_append(&path, SyncPolicy::Never, metrics.clone()).unwrap();
        assert_eq!(rep.ops.len(), 4);
        assert_eq!(metrics.recovery_truncated_bytes.get(), 0);
        for op in ops.iter().skip(4).take(3) {
            wal.append(op).unwrap();
        }
        wal.flush().unwrap();
        drop(wal);
        // The clean close gives the preallocation back; all 7 records replay.
        let len = std::fs::metadata(&path).unwrap().len();
        assert!(len < PREALLOC_BYTES, "clean close must trim, got {len}");
        let rep = replay(&path).unwrap();
        assert_eq!(rep.ops.len(), 7);
        assert_eq!(rep.last_seq, 7);
        assert_eq!(rep.valid_bytes, len);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn group_commit_shares_fsyncs_across_threads() {
        let path = tmp("groupcommit");
        let metrics = WalMetrics::detached();
        let ops = sample_ops();
        let per_thread = 10usize;
        let threads = 4usize;
        assert!(ops.len() >= per_thread * threads);
        {
            let wal = Wal::create_with(&path, SyncPolicy::Group, metrics.clone()).unwrap();
            std::thread::scope(|s| {
                for t in 0..threads {
                    let wal = &wal;
                    let chunk = &ops[t * per_thread..(t + 1) * per_thread];
                    s.spawn(move || {
                        for op in chunk {
                            let a = wal.append(op).unwrap();
                            wal.wait_durable(a.seq).unwrap();
                        }
                    });
                }
            });
            let total = (per_thread * threads) as u64;
            assert_eq!(wal.synced_seq(), total, "every acknowledged commit durable");
            assert_eq!(metrics.group_size.get(), total);
            assert!(metrics.fsyncs.get() >= 1);
            assert!(metrics.fsyncs.get() <= total, "fsyncs bounded by commits");
        }
        // All records intact and in sequence order on disk.
        let rep = replay(&path).unwrap();
        assert_eq!(rep.ops.len(), per_thread * threads);
        assert_eq!(rep.truncated_bytes, 0);
        std::fs::remove_file(&path).unwrap();

        // Deterministically: the durable horizon is cumulative, so one
        // wait on the newest of k buffered records syncs all k at once,
        // and a later wait on an older record issues no fsync.
        let metrics = WalMetrics::detached();
        let k = 5u64;
        {
            let wal = Wal::create_with(&path, SyncPolicy::Group, metrics.clone()).unwrap();
            for op in &ops[..k as usize] {
                wal.append(op).unwrap();
            }
            assert_eq!(metrics.fsyncs.get(), 0, "appends are buffered");
            wal.wait_durable(k).unwrap();
            assert_eq!(metrics.fsyncs.get(), 1);
            assert_eq!(metrics.group_size.get(), k);
            wal.wait_durable(1).unwrap();
            assert_eq!(metrics.fsyncs.get(), 1, "seq 1 was already durable");
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn sync_policy_parses_cli_spellings() {
        assert_eq!(SyncPolicy::parse("never"), Some(SyncPolicy::Never));
        assert_eq!(SyncPolicy::parse("group"), Some(SyncPolicy::Group));
        assert_eq!(SyncPolicy::default(), SyncPolicy::Group);
        for removed in ["commit", "every-commit", "group:32:250", "always"] {
            assert_eq!(SyncPolicy::parse(removed), None, "{removed}");
        }
    }
}
