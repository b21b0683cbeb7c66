//! Compact immutable runs: per-block frame-of-reference encoding.
//!
//! The merge ladder's runs (and every [`crate::tail::IndexList`] bulk
//! prefix) are immutable and `(date, id)`-sorted — ideal input for
//! columnar compression. A [`CompactRun`] stores entries in 128-entry
//! blocks. Each block holds a small header — the block's base date, its
//! minimum id, and one byte-width per column — followed by fixed-width
//! little-endian *offsets from the base* for every entry (frame of
//! reference). The date and id offsets are interleaved as one
//! `dw + iw`-byte pair per entry: the pair stride is usually at most
//! eight bytes, so a single 8-byte load decodes both values, and an
//! entry touches one cache line instead of two. A column whose values
//! are all equal (every single-entry list, every uniform date group) has
//! width zero and stores no data bytes at all.
//!
//! Fixed widths were chosen over varint deltas deliberately: they decode
//! with one unaligned load + mask instead of a byte-at-a-time dependency
//! chain, and — more importantly — they give O(1) random access *within*
//! a block. The read path's "most recent before date" walks jump straight
//! to the newest qualifying entry instead of decoding a whole block
//! prefix, and forward scans read entries straight out of the stream with
//! no per-cursor decode buffer. Typical index entries land at 4–9 bytes
//! against the 24-byte in-memory [`Entry`], a 2.5–6x reduction.
//!
//! Commit timestamps compress twice over: a run whose entries all share
//! one commit (every bulk-loaded run — [`BULK_TS`]) records it once in
//! the run header and stores no commit column; mixed runs store a
//! per-block minimum plus width-packed offsets like the other columns.
//!
//! Block selection is a binary search over fixed-width *anchors* — each
//! block's first `(date, id)` plus its byte offset. Block 0 needs no
//! anchor (its header sits at offset 0), so short runs — most per-entity
//! lists fit one block — carry no anchor array at all.
//!
//! Construction only happens where runs were already built before this
//! format existed — under the owning stripe lock at ladder-merge time, and
//! in the bulk loader's sort-once path — so readers only ever see finished,
//! immutable runs and the store's publication protocol is untouched.
//! [`Cursor`] (forward) and [`RevCursor`] (backward) are plain `Copy`
//! structs caching one parsed block header; stepping within a block is a
//! pair of masked loads, crossing a block re-parses one header.

use crate::tables::{key, Entry};
use snb_core::time::SimTime;

/// Entries per block: large enough that the ~10-byte block header and the
/// 24-byte anchor amortize to well under a byte per entry, small enough
/// that one block's offsets stay in cache while it is scanned.
pub(crate) const BLOCK: usize = 128;

/// Entries per [`Cursor::fill_dated`] refill — the forward drain's
/// read-ahead depth. Small enough that an early-exiting scan wastes at
/// most a few decodes, large enough to amortize the refill call.
pub(crate) const FILL_DATED: usize = 16;

/// The all-zero entry.
const ZERO_ENTRY: Entry = Entry { date: SimTime(0), id: 0, commit: 0 };

/// Zero bytes appended after a non-empty stream so fixed-width column
/// loads (and varint header reads) can always use a full 8-byte window —
/// including the degenerate width-0 load at the very end of the stream,
/// which reads from one past the last data byte.
const STREAM_PAD: usize = 8;

/// Append one LEB128 varint (block headers only — column data is
/// fixed-width).
fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push((v as u8) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Decode one LEB128 varint at `*pos`, advancing it.
fn read_varint(bytes: &[u8], pos: &mut usize) -> u64 {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let b = bytes[*pos];
        *pos += 1;
        v |= ((b & 0x7f) as u64) << shift;
        if b < 0x80 {
            return v;
        }
        shift += 7;
    }
}

/// Map a signed value onto the unsigned varint space (block base dates
/// can be negative).
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Bytes needed to store `range` (0..=8; 0 means every value equals the
/// base and the column stores nothing).
fn width_for(range: u64) -> u8 {
    ((64 - range.leading_zeros()) as u8).div_ceil(8)
}

/// The low-`w`-bytes mask for a column of width `w` — computed once per
/// block parse so the per-entry load is branchless (width 0 masks to 0).
fn mask_for(w: u8) -> u64 {
    match w {
        0 => 0,
        1..=7 => (1u64 << (8 * w)) - 1,
        _ => u64::MAX,
    }
}

/// Load one column value: an 8-byte little-endian window at `pos` masked
/// down to the column width. [`STREAM_PAD`] keeps the window in bounds for
/// every reachable position (including a width-0 column whose start sits
/// at the end of the data), so this is branch-free on the hot path.
#[inline]
fn load_masked(bytes: &[u8], pos: usize, mask: u64) -> u64 {
    debug_assert!(pos + 8 <= bytes.len(), "stream is padded");
    // SAFETY: streams are built in-process by `RunBuilder`, which appends
    // `STREAM_PAD` (8) zero bytes after the last data byte, and every
    // caller derives `pos` from a parsed header of the same stream: any
    // column position satisfies `pos <= data_end == bytes.len() - 8`, so
    // the window `[pos, pos + 8)` is always in bounds. `[u8; 8]` has
    // alignment 1, so the unaligned read is valid.
    let window = unsafe { *bytes.as_ptr().add(pos).cast::<[u8; 8]>() };
    u64::from_le_bytes(window) & mask
}

/// Fixed-width block header for blocks 1 and up: the block's first date
/// (so block selection is a binary search over plain structs, no
/// decoding) and the offset of the block's encoded header. Block 0 has no
/// anchor — its header sits at offset 0 of the byte stream — so a run
/// that fits one block carries no anchor array at all.
#[derive(Debug, Clone, Copy)]
struct Anchor {
    date: SimTime,
    offset: u32,
}

/// An immutable `(date, id)`-sorted run in the packed
/// block/frame-of-reference form described in the module docs.
#[derive(Debug)]
pub(crate) struct CompactRun {
    len: u32,
    /// `Some(c)` when every entry shares commit `c` (always true for
    /// bulk-loaded runs): packed blocks then store no commit column.
    commit: Option<u64>,
    /// The final (largest-keyed) entry of the run, kept decoded. Two jobs:
    /// its date answers the common "bound covers the whole run" case of
    /// `upper_bound_date` in O(1), and it seeds a reverse cursor's decode
    /// memo so a newest-first walk learns every lane's head key without
    /// parsing any block header — the lanes that lose the k-way merge
    /// never touch their byte stream at all.
    last: Entry,
    /// Anchors for blocks `1..` (`anchors[i]` describes block `i + 1`).
    anchors: Box<[Anchor]>,
    /// The encoded block stream.
    bytes: Box<[u8]>,
}

impl Default for CompactRun {
    fn default() -> CompactRun {
        CompactRun {
            len: 0,
            commit: None,
            last: ZERO_ENTRY,
            anchors: Box::default(),
            bytes: Box::default(),
        }
    }
}

/// One parsed block header: everything needed for O(1) entry reads within
/// the block. Cursors cache one of these and re-parse only on block
/// crossings.
#[derive(Debug, Clone, Copy)]
struct BlockView {
    /// Block index this view describes ([`NO_BLOCK`] = none).
    blk: u32,
    base_date: i64,
    min_id: u64,
    /// Shared commit base: the run's uniform commit, or this block's
    /// minimum commit. With `cw == 0` the addend below is always zero, so
    /// uniform runs pay no branch.
    base_commit: u64,
    /// Start of the interleaved fixed-width (date, id) offset pairs.
    pairs: u32,
    /// Start of the commit column (after the pairs).
    commits: u32,
    /// Encoded widths: date bytes, pair stride (`dw + iw`), commit bytes.
    dw: u8,
    stride: u8,
    cw: u8,
    /// Bit offset of the id inside a fused pair load (`8 * dw`, masked to
    /// 63 at use — only reachable unmasked when the id mask is 0).
    ishift: u8,
    /// Low-width masks, precomputed at parse time so per-entry loads are
    /// branch-free (a width-0 column masks to 0, so uniform columns — and
    /// elided commit columns — decode with the same instruction sequence
    /// as everything else).
    dmask: u64,
    imask: u64,
    cmask: u64,
}

/// Sentinel block index for "nothing parsed yet".
const NO_BLOCK: u32 = u32::MAX;

impl BlockView {
    const EMPTY: BlockView = BlockView {
        blk: NO_BLOCK,
        base_date: 0,
        min_id: 0,
        base_commit: 0,
        pairs: 0,
        commits: 0,
        dw: 0,
        stride: 0,
        cw: 0,
        ishift: 0,
        dmask: 0,
        imask: 0,
        cmask: 0,
    };

    /// Raw (date offset, id offset) pair at byte position `pos` — one
    /// fused load when the pair stride fits the 8-byte window, two
    /// adjacent loads otherwise.
    #[inline]
    fn pair_at(&self, bytes: &[u8], pos: usize) -> (u64, u64) {
        if self.stride <= 8 {
            let word = load_masked(bytes, pos, u64::MAX);
            (word & self.dmask, (word >> (self.ishift & 63)) & self.imask)
        } else {
            (
                load_masked(bytes, pos, self.dmask),
                load_masked(bytes, pos + self.dw as usize, self.imask),
            )
        }
    }

    /// Byte position of in-block index `i`'s pair.
    #[inline]
    fn pair_pos(&self, i: usize) -> usize {
        self.pairs as usize + i * self.stride as usize
    }

    /// Entry at in-block index `i`.
    #[inline]
    fn entry(&self, bytes: &[u8], i: usize) -> Entry {
        let (doff, ioff) = self.pair_at(bytes, self.pair_pos(i));
        let commit = self.base_commit
            + load_masked(bytes, self.commits as usize + i * self.cw as usize, self.cmask);
        Entry {
            date: SimTime(self.base_date.wrapping_add(doff as i64)),
            id: self.min_id.wrapping_add(ioff),
            commit,
        }
    }

    /// Date at in-block index `i` (the column walks and binary searches).
    #[inline]
    fn date(&self, bytes: &[u8], i: usize) -> SimTime {
        SimTime(
            self.base_date.wrapping_add(load_masked(bytes, self.pair_pos(i), self.dmask) as i64),
        )
    }

    /// `(id, date)` at in-block index `i`, skipping the commit column —
    /// the bulk-prefix lanes bypass MVCC and never look at commits, so
    /// their per-entry decode is usually a single load.
    #[inline]
    fn dated(&self, bytes: &[u8], i: usize) -> (u64, SimTime) {
        let (doff, ioff) = self.pair_at(bytes, self.pair_pos(i));
        (self.min_id.wrapping_add(ioff), SimTime(self.base_date.wrapping_add(doff as i64)))
    }
}

impl CompactRun {
    /// Encode an already-sorted slice.
    pub(crate) fn from_sorted(entries: &[Entry]) -> CompactRun {
        let uniform =
            entries.first().map(|f| f.commit).filter(|&c| entries.iter().all(|e| e.commit == c));
        let mut b = RunBuilder::with_capacity(entries.len(), entries.len() * 6, uniform);
        for &e in entries {
            b.push(e);
        }
        b.finish()
    }

    /// Entry count.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.len as usize
    }

    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Resident heap bytes: anchors plus the byte stream. (The run struct
    /// itself lives inline in its owner.)
    pub(crate) fn heap_bytes(&self) -> usize {
        self.anchors.len() * std::mem::size_of::<Anchor>() + self.bytes.len()
    }

    /// Entries in block `b`.
    #[inline]
    fn block_len(&self, b: usize) -> usize {
        (self.len() - b * BLOCK).min(BLOCK)
    }

    /// Parse block `b`'s header into a [`BlockView`].
    fn parse_block(&self, b: usize) -> BlockView {
        let bytes = &self.bytes;
        let mut pos = if b == 0 { 0 } else { self.anchors[b - 1].offset as usize };
        let base_date = unzigzag(read_varint(bytes, &mut pos));
        let min_id = read_varint(bytes, &mut pos);
        let dw = bytes[pos];
        let iw = bytes[pos + 1];
        pos += 2;
        let (base_commit, cw) = match self.commit {
            Some(c) => (c, 0),
            None => {
                let min_commit = read_varint(bytes, &mut pos);
                let cw = bytes[pos];
                pos += 1;
                (min_commit, cw)
            }
        };
        let n = self.block_len(b);
        let stride = dw + iw;
        let pairs = pos as u32;
        let commits = pairs + (n * stride as usize) as u32;
        BlockView {
            blk: b as u32,
            base_date,
            min_id,
            base_commit,
            pairs,
            commits,
            dw,
            stride,
            cw,
            ishift: 8 * dw,
            dmask: mask_for(dw),
            imask: mask_for(iw),
            cmask: mask_for(cw),
        }
    }

    /// Rank of the first entry with `date > d` — the compact equivalent of
    /// `partition_point(|e| e.date <= d)`. The run-level last-entry check
    /// answers full-coverage bounds in O(1); otherwise a binary search
    /// over the anchors picks the candidate block and a binary search over
    /// its date column (random access — no decode) finds the boundary.
    pub(crate) fn upper_bound_date(&self, d: SimTime) -> usize {
        if self.len == 0 {
            return 0;
        }
        if d >= self.last.date {
            return self.len();
        }
        let block = self.anchors.partition_point(|a| a.date <= d);
        let start = block * BLOCK;
        let v = self.parse_block(block);
        let n = self.block_len(block);
        let mut lo = 0usize;
        let mut hi = n;
        while lo < hi {
            let mid = (lo + hi) / 2;
            if v.date(&self.bytes, mid) <= d {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        start + lo
    }

    /// Forward cursor over the whole run.
    #[inline]
    pub(crate) fn cursor(&self) -> Cursor<'_> {
        Cursor::at(self, 0)
    }

    /// Decode every entry (tests and oracle paths; the hot paths use
    /// cursors).
    #[cfg(test)]
    pub(crate) fn to_vec(&self) -> Vec<Entry> {
        let mut out = Vec::with_capacity(self.len());
        let mut c = self.cursor();
        while let Some(e) = c.peek() {
            out.push(e);
            c.advance();
        }
        out
    }
}

/// Streaming encoder; entries must arrive in `(date, id)` order. Pass
/// `commit: Some(c)` when every pushed entry is known to carry commit `c`
/// — blocks then store no commit column.
pub(crate) struct RunBuilder {
    len: u32,
    commit: Option<u64>,
    anchors: Vec<Anchor>,
    bytes: Vec<u8>,
    /// Entries buffered for the block being built (`scratch_n` filled).
    scratch: Box<[Entry; BLOCK]>,
    scratch_n: usize,
    prev: Entry,
}

impl RunBuilder {
    pub(crate) fn with_capacity(
        entries: usize,
        bytes_hint: usize,
        commit: Option<u64>,
    ) -> RunBuilder {
        RunBuilder {
            len: 0,
            commit,
            anchors: Vec::with_capacity(entries.div_ceil(BLOCK).saturating_sub(1)),
            bytes: Vec::with_capacity(bytes_hint),
            scratch: Box::new([ZERO_ENTRY; BLOCK]),
            scratch_n: 0,
            prev: ZERO_ENTRY,
        }
    }

    #[inline]
    pub(crate) fn push(&mut self, e: Entry) {
        debug_assert!(self.len == 0 || key(&self.prev) <= key(&e), "runs are (date, id) sorted");
        debug_assert!(
            self.commit.is_none_or(|c| c == e.commit),
            "uniform-commit run got a differing commit"
        );
        if self.scratch_n == BLOCK {
            self.flush_block();
        }
        self.scratch[self.scratch_n] = e;
        self.scratch_n += 1;
        self.prev = e;
        self.len += 1;
    }

    /// Encode the buffered block: compute each column's base and width,
    /// emit the header, then the fixed-width offset columns.
    fn flush_block(&mut self) {
        let n = self.scratch_n;
        debug_assert!(n > 0);
        let block = &self.scratch[..n];
        let first = block[0];
        if self.len as usize > n || !self.anchors.is_empty() {
            // Not block 0: record the anchor. (Block 0 is exactly the
            // first flush of a run whose earlier flushes pushed nothing.)
            self.anchors.push(Anchor { date: first.date, offset: self.bytes.len() as u32 });
        }
        // Dates are sorted: first is the base, last the max.
        let date_range = block[n - 1].date.0.wrapping_sub(first.date.0) as u64;
        let dw = width_for(date_range);
        let (mut min_id, mut max_id) = (block[0].id, block[0].id);
        let (mut min_c, mut max_c) = (block[0].commit, block[0].commit);
        for e in &block[1..] {
            min_id = min_id.min(e.id);
            max_id = max_id.max(e.id);
            min_c = min_c.min(e.commit);
            max_c = max_c.max(e.commit);
        }
        let iw = width_for(max_id - min_id);
        put_varint(&mut self.bytes, zigzag(first.date.0));
        put_varint(&mut self.bytes, min_id);
        self.bytes.push(dw);
        self.bytes.push(iw);
        let cw = if self.commit.is_some() {
            0
        } else {
            let cw = width_for(max_c - min_c);
            put_varint(&mut self.bytes, min_c);
            self.bytes.push(cw);
            cw
        };
        for e in block {
            let doff = e.date.0.wrapping_sub(first.date.0) as u64;
            self.bytes.extend_from_slice(&doff.to_le_bytes()[..dw as usize]);
            self.bytes.extend_from_slice(&(e.id - min_id).to_le_bytes()[..iw as usize]);
        }
        if cw > 0 {
            for e in block {
                self.bytes.extend_from_slice(&(e.commit - min_c).to_le_bytes()[..cw as usize]);
            }
        }
        self.scratch_n = 0;
    }

    pub(crate) fn finish(mut self) -> CompactRun {
        if self.scratch_n > 0 {
            self.flush_block();
        }
        if self.len > 0 {
            self.bytes.extend_from_slice(&[0u8; STREAM_PAD]);
        }
        CompactRun {
            len: self.len,
            commit: self.commit,
            last: self.prev,
            anchors: self.anchors.into_boxed_slice(),
            bytes: self.bytes.into_boxed_slice(),
        }
    }
}

/// Merge two sorted compact runs into a new one (ladder carry; runs under
/// the same stripe lock, so plain two-cursor streaming). The output stays
/// in elided-commit form when its inputs make that sound.
pub(crate) fn merge_compact(a: &CompactRun, b: &CompactRun) -> CompactRun {
    let commit = if a.len == 0 {
        b.commit
    } else if b.len == 0 || a.commit == b.commit {
        a.commit
    } else {
        None
    };
    let mut out = RunBuilder::with_capacity(
        a.len() + b.len(),
        a.heap_bytes() + b.heap_bytes() + BLOCK,
        commit,
    );
    let mut ca = a.cursor();
    let mut cb = b.cursor();
    loop {
        match (ca.peek(), cb.peek()) {
            (Some(x), Some(y)) => {
                if key(&x) <= key(&y) {
                    out.push(x);
                    ca.advance();
                } else {
                    out.push(y);
                    cb.advance();
                }
            }
            (Some(x), None) => {
                out.push(x);
                ca.advance();
            }
            (None, Some(y)) => {
                out.push(y);
                cb.advance();
            }
            (None, None) => break,
        }
    }
    out.finish()
}

/// Forward cursor: serves entries oldest-first. A plain `Copy` struct —
/// one cached [`BlockView`]; `peek` is two masked loads, block crossings
/// re-parse one ~10-byte header. A cursor with no run is exhausted.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Cursor<'a> {
    run: Option<&'a CompactRun>,
    /// Next rank to yield; `[rank, end)` remain.
    rank: u32,
    /// Rank of the entry memoized in `memo` ([`NO_RANK`] = none).
    cached_rank: u32,
    end: u32,
    view: BlockView,
    /// Decode memo (`cached_rank` says which rank it holds).
    memo: Entry,
}

/// `cached_rank` sentinel: nothing memoized.
const NO_RANK: u32 = u32::MAX;

impl<'a> Cursor<'a> {
    /// An exhausted cursor.
    pub(crate) fn empty() -> Cursor<'static> {
        Cursor {
            run: None,
            rank: 0,
            cached_rank: NO_RANK,
            end: 0,
            view: BlockView::EMPTY,
            memo: ZERO_ENTRY,
        }
    }

    /// Cursor positioned at rank `start` (0 = whole run). O(1): the
    /// landing block's header is parsed on first `peek`.
    pub(crate) fn at(run: &'a CompactRun, start: usize) -> Cursor<'a> {
        if start >= run.len() {
            return Cursor::empty();
        }
        Cursor {
            run: Some(run),
            rank: start as u32,
            cached_rank: NO_RANK,
            end: run.len,
            view: BlockView::EMPTY,
            memo: ZERO_ENTRY,
        }
    }

    /// The current entry, or `None` when exhausted. `&mut` because
    /// crossing into a new block re-parses the cached header.
    #[inline]
    pub(crate) fn peek(&mut self) -> Option<Entry> {
        if self.rank >= self.end {
            return None;
        }
        let run = self.run?;
        let r = self.rank as usize;
        if self.cached_rank == self.rank {
            return Some(self.memo);
        }
        let b = (r / BLOCK) as u32;
        if self.view.blk != b {
            self.view = run.parse_block(b as usize);
        }
        let e = self.view.entry(&run.bytes, r % BLOCK);
        // Memoize: k-way merges re-peek the same lane head on every
        // rescan, so repeated peeks must not re-decode.
        self.cached_rank = self.rank;
        self.memo = e;
        Some(e)
    }

    /// Decode up to `FILL_DATED` entries starting at the current rank into
    /// `out` (ids and dates only), without advancing the cursor. Returns
    /// how many were written (0 = exhausted). Stops at block boundaries —
    /// the refill loop is branch-free per entry, with both column
    /// positions advanced incrementally. This is the forward drain's hot
    /// loop: [`crate::read::DatedIter`] serves whole-list scans out of
    /// one of these buffers.
    pub(crate) fn fill_dated(&mut self, out: &mut [(u64, SimTime); FILL_DATED]) -> u32 {
        if self.rank >= self.end {
            return 0;
        }
        let Some(run) = self.run else {
            return 0;
        };
        let r = self.rank as usize;
        let avail = (self.end - self.rank) as usize;
        let b = (r / BLOCK) as u32;
        if self.view.blk != b {
            self.view = run.parse_block(b as usize);
        }
        let i0 = r % BLOCK;
        let n = avail.min(FILL_DATED).min(BLOCK - i0);
        let bytes = &run.bytes;
        let v = &self.view;
        let mut pos = v.pair_pos(i0);
        for o in out[..n].iter_mut() {
            let (doff, ioff) = v.pair_at(bytes, pos);
            *o = (v.min_id.wrapping_add(ioff), SimTime(v.base_date.wrapping_add(doff as i64)));
            pos += v.stride as usize;
        }
        n as u32
    }

    /// Step to the next entry.
    #[inline]
    pub(crate) fn advance(&mut self) {
        debug_assert!(self.rank < self.end);
        self.rank += 1;
    }

    /// Entries left to yield.
    #[inline]
    pub(crate) fn remaining(&self) -> usize {
        (self.end - self.rank) as usize
    }
}

/// Backward cursor: serves entries newest-first from a rank bound
/// established at construction (`upper_bound_date`). Random access within
/// blocks makes `peek_back` two masked loads — no block pre-decode, so a
/// `take(k)` walk touches exactly `k` entries plus one header per block
/// crossed.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RevCursor<'a> {
    run: Option<&'a CompactRun>,
    /// Entries `[0, rem)` remain; the next yield is rank `rem - 1`.
    rem: u32,
    /// Rank of the entry memoized in `memo` ([`NO_RANK`] = none).
    cached_rank: u32,
    view: BlockView,
    /// Decode memo (`cached_rank` says which rank it holds).
    memo: Entry,
}

impl<'a> RevCursor<'a> {
    pub(crate) fn empty() -> RevCursor<'static> {
        RevCursor {
            run: None,
            rem: 0,
            cached_rank: NO_RANK,
            view: BlockView::EMPTY,
            memo: ZERO_ENTRY,
        }
    }

    /// A lane over `run`'s entries dated at or before `d`, consumed from
    /// the back — its first `run.upper_bound_date(d)` entries, fused so the
    /// lane's head entry is already decoded when the cursor is born. Walk
    /// construction plus one head peek is the per-candidate fixed cost of
    /// every "most recent N before date" query, and the lanes that lose
    /// the k-way merge are never peeked past their head, so this keeps
    /// losing lanes from ever touching their byte stream: the
    /// full-coverage case (`d` at or past the run's last entry) seeds the
    /// memo from the run's stored last entry with no parse at all, and the
    /// bounded case reuses the parse the binary search needed anyway.
    pub(crate) fn to_date_bound(run: &'a CompactRun, d: SimTime) -> RevCursor<'a> {
        if run.len == 0 {
            return RevCursor::empty();
        }
        if d >= run.last.date {
            return RevCursor {
                run: Some(run),
                rem: run.len,
                cached_rank: run.len - 1,
                view: BlockView::EMPTY,
                memo: run.last,
            };
        }
        let bytes = &run.bytes;
        let block = run.anchors.partition_point(|a| a.date <= d);
        let v = run.parse_block(block);
        let n = run.block_len(block);
        let mut lo = 0usize;
        let mut hi = n;
        while lo < hi {
            let mid = (lo + hi) / 2;
            if v.date(bytes, mid) <= d {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        let mut c = RevCursor {
            run: Some(run),
            rem: (block * BLOCK + lo) as u32,
            cached_rank: NO_RANK,
            view: v,
            memo: ZERO_ENTRY,
        };
        // Head rank `rem - 1` sits in the block just parsed unless the
        // bound fell on the block edge: decode it into the memo now.
        if lo > 0 {
            c.cached_rank = c.rem - 1;
            c.memo = v.entry(bytes, lo - 1);
        }
        c
    }

    /// The newest remaining entry, or `None` when exhausted. `&mut`
    /// because crossing into a new block re-parses the cached header.
    #[inline]
    pub(crate) fn peek_back(&mut self) -> Option<Entry> {
        if self.rem == 0 {
            return None;
        }
        let run = self.run?;
        let r = (self.rem - 1) as usize;
        if self.cached_rank == self.rem - 1 {
            return Some(self.memo);
        }
        let b = (r / BLOCK) as u32;
        if self.view.blk != b {
            self.view = run.parse_block(b as usize);
        }
        let e = self.view.entry(&run.bytes, r % BLOCK);
        // Memoize: k-way merges re-peek the same lane head on every
        // rescan, so repeated peeks must not re-decode.
        self.cached_rank = self.rem - 1;
        self.memo = e;
        Some(e)
    }

    /// `peek_back` without the commit column — for lanes whose entries
    /// bypass MVCC (the bulk prefix), where the commit load would be dead
    /// work. Reads (but never fills) the decode memo, so a cursor seeded
    /// by [`RevCursor::to_date_bound`] serves its head with no decode.
    #[inline]
    pub(crate) fn peek_back_dated(&mut self) -> Option<(u64, SimTime)> {
        if self.rem == 0 {
            return None;
        }
        let run = self.run?;
        let r = (self.rem - 1) as usize;
        if self.cached_rank == self.rem - 1 {
            return Some((self.memo.id, self.memo.date));
        }
        let b = (r / BLOCK) as u32;
        if self.view.blk != b {
            self.view = run.parse_block(b as usize);
        }
        Some(self.view.dated(&run.bytes, r % BLOCK))
    }

    /// Consume the entry `peek_back` returned.
    #[inline]
    pub(crate) fn advance_back(&mut self) {
        debug_assert!(self.rem > 0);
        self.rem -= 1;
    }

    #[inline]
    pub(crate) fn remaining(&self) -> usize {
        self.rem as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(date: i64, id: u64, commit: u64) -> Entry {
        Entry { date: SimTime(date), id, commit }
    }

    fn roundtrip(entries: &[Entry]) -> CompactRun {
        let run = CompactRun::from_sorted(entries);
        assert_eq!(run.len(), entries.len());
        let decoded = run.to_vec();
        for (a, b) in entries.iter().zip(&decoded) {
            assert_eq!((a.date, a.id, a.commit), (b.date, b.id, b.commit));
        }
        run
    }

    #[test]
    fn varint_boundary_values_roundtrip() {
        for v in [0u64, 1, 127, 128, 129, 16383, 16384, u64::MAX - 1, u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            assert!(buf.len() <= 10);
            let mut pos = 0;
            assert_eq!(read_varint(&buf, &mut pos), v);
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn zigzag_covers_extremes() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn width_for_covers_ranges() {
        assert_eq!(width_for(0), 0);
        assert_eq!(width_for(1), 1);
        assert_eq!(width_for(255), 1);
        assert_eq!(width_for(256), 2);
        assert_eq!(width_for(u32::MAX as u64), 4);
        assert_eq!(width_for(u64::MAX), 8);
    }

    #[test]
    fn empty_and_single_entry_runs() {
        let empty = CompactRun::default();
        assert!(empty.is_empty());
        assert_eq!(empty.upper_bound_date(SimTime(i64::MAX)), 0);
        assert!(empty.cursor().peek().is_none());

        let run = roundtrip(&[e(42, 7, 3)]);
        assert_eq!(run.upper_bound_date(SimTime(41)), 0);
        assert_eq!(run.upper_bound_date(SimTime(42)), 1);
        // A single-entry run: no anchor, zero-width columns, no commit
        // column (uniform) — it must undercut one raw 24-byte entry.
        assert!(run.anchors.is_empty());
        assert!(run.heap_bytes() < std::mem::size_of::<Entry>());
    }

    #[test]
    fn uniform_commits_are_elided() {
        // Same (date, id) repeated, all at the same commit: every column
        // range is zero, so each block is header-only — base date
        // (2-byte zigzag varint), min id (1 byte), two width bytes — and
        // the run stores no commit bytes anywhere.
        let entries: Vec<Entry> = (0..300).map(|_| e(1000, 5, 9)).collect();
        let run = roundtrip(&entries);
        let blocks = 300usize.div_ceil(BLOCK);
        assert_eq!(run.commit, Some(9));
        assert_eq!(run.anchors.len(), blocks - 1);
        assert_eq!(run.bytes.len(), blocks * 5 + STREAM_PAD);

        // One differing commit forces a commit column: each block gains a
        // min-commit varint + width byte, and the block holding the odd
        // entry gains one byte per entry.
        let mut mixed = entries.clone();
        mixed[150].commit = 10;
        let mixed_run = roundtrip(&mixed);
        assert_eq!(mixed_run.commit, None);
        assert_eq!(mixed_run.bytes.len(), run.bytes.len() + blocks * 2 + BLOCK);
    }

    #[test]
    fn max_width_values_roundtrip() {
        // Adversarial extremes: i64::MIN/MAX dates, u64 id wrap, max
        // commits — every column at its widest.
        let entries = vec![
            e(i64::MIN, u64::MAX, u64::MAX),
            e(i64::MIN, u64::MAX, u64::MAX - 1),
            e(0, 0, 1),
            e(i64::MAX, 1, u64::MAX),
            e(i64::MAX, u64::MAX, 0),
        ];
        // Not sorted by our comparator? It is: (MIN,MAX) <= (MIN,MAX) <=
        // (0,0) <= (MAX,1) <= (MAX,MAX).
        roundtrip(&entries);
    }

    #[test]
    fn block_boundary_seeks_and_upper_bounds() {
        // 3 full blocks + a partial one; dates rise every other entry so
        // upper_bound_date lands on every parity. Commits vary, so this
        // also covers the commit column.
        let entries: Vec<Entry> =
            (0..(3 * BLOCK + 57)).map(|i| e((i / 2) as i64, i as u64, i as u64 + 1)).collect();
        let run = roundtrip(&entries);
        for probe in [0usize, 1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK, 3 * BLOCK + 56] {
            // Seek straight to `probe` and check the cursor agrees with
            // the slice.
            let mut c = Cursor::at(&run, probe);
            assert_eq!(c.remaining(), entries.len() - probe);
            assert_eq!(c.peek().unwrap().id, entries[probe].id, "seek to {probe}");
            // upper_bound_date agrees with partition_point.
            let d = entries[probe].date;
            let expect = entries.partition_point(|x| x.date <= d);
            assert_eq!(run.upper_bound_date(d), expect, "upper bound at {probe}");
        }
        assert_eq!(run.upper_bound_date(SimTime(-1)), 0);
        assert_eq!(run.upper_bound_date(SimTime(i64::MAX)), entries.len());
    }

    #[test]
    fn reverse_cursor_matches_forward_across_blocks() {
        let entries: Vec<Entry> = (0..(2 * BLOCK + 31))
            .map(|i| e(i as i64 / 3, (i * 7) as u64 % 1000 + i as u64, i as u64))
            .collect();
        let mut sorted = entries.clone();
        sorted.sort_by_key(|x| (x.date, x.id));
        let run = CompactRun::from_sorted(&sorted);
        let mut rev = RevCursor::to_date_bound(&run, SimTime(i64::MAX));
        let mut got = Vec::new();
        while let Some(x) = rev.peek_back() {
            got.push((x.date, x.id, x.commit));
            rev.advance_back();
        }
        got.reverse();
        let want: Vec<_> = sorted.iter().map(|x| (x.date, x.id, x.commit)).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn merge_keeps_commit_elision_when_sound() {
        let a: Vec<Entry> = (0..200).map(|i| e(i * 2, i as u64, 0)).collect();
        let b: Vec<Entry> = (0..150).map(|i| e(i * 3, 1000 + i as u64, 0)).collect();
        let (ra, rb) = (CompactRun::from_sorted(&a), CompactRun::from_sorted(&b));
        assert_eq!(merge_compact(&ra, &rb).commit, Some(0));
        assert_eq!(merge_compact(&ra, &CompactRun::default()).commit, Some(0));
        assert_eq!(merge_compact(&CompactRun::default(), &rb).commit, Some(0));

        let c: Vec<Entry> = (0..10).map(|i| e(i, i as u64, 5)).collect();
        assert_eq!(merge_compact(&ra, &CompactRun::from_sorted(&c)).commit, None);
    }

    #[test]
    fn merge_compact_interleaves_sorted() {
        let a: Vec<Entry> = (0..200).map(|i| e(i * 2, i as u64, 1)).collect();
        let b: Vec<Entry> = (0..150).map(|i| e(i * 3, 1000 + i as u64, 2)).collect();
        let merged = merge_compact(&CompactRun::from_sorted(&a), &CompactRun::from_sorted(&b));
        let got = merged.to_vec();
        let mut want: Vec<Entry> = a.iter().chain(b.iter()).copied().collect();
        want.sort_by_key(|x| (x.date, x.id));
        assert_eq!(got.len(), want.len());
        for (x, y) in got.iter().zip(&want) {
            assert_eq!((x.date, x.id, x.commit), (y.date, y.id, y.commit));
        }
    }

    #[test]
    fn compression_beats_raw_entries_on_typical_data() {
        // Dense dates, clustered ids, one shared commit — the bulk-load
        // shape. Narrow columns and the elided commit should land well
        // past the headline 2x target.
        let entries: Vec<Entry> = (0..10_000)
            .map(|i| e(1_600_000_000_000 + (i * 37) as i64, (i % 500) as u64, 0))
            .collect();
        let mut sorted = entries.clone();
        sorted.sort_by_key(|x| (x.date, x.id));
        let run = CompactRun::from_sorted(&sorted);
        let raw = sorted.len() * std::mem::size_of::<Entry>();
        assert!(run.heap_bytes() * 4 <= raw, "expected >= 4x: {} vs {raw}", run.heap_bytes());
    }
}
