//! Storage-size accounting (the paper's Table 8 reports "the sizes in MB of
//! allocated database pages for \[the\] three largest tables and their largest
//! indices" in the Virtuoso SF300 run; we report the in-memory equivalent).
//!
//! Since the compact-run format landed, index bytes are *measured* (anchor
//! arrays + delta streams + raw tail slots), not estimated from entry
//! counts — and every snapshot also carries the uncompressed-oracle cost of
//! the same runs so compression ratios are first-class, reportable numbers.

use std::fmt;

/// Memory footprint of one index table (or a sum of them): what the
/// compact runs actually hold resident, next to what the same runs cost in
/// the pre-compact 24-byte-entry format.
#[derive(Debug, Default, Clone, Copy)]
pub struct IndexFootprint {
    /// Logical entries (bulk prefix + published tail, each counted once).
    pub entries: usize,
    /// Compact run bytes: bulk prefix + every ladder run (anchors +
    /// delta streams).
    pub run_bytes: usize,
    /// Raw tail slot bytes (kept uncompressed so in-place appends stay
    /// lock-free; identical in both formats).
    pub tail_bytes: usize,
    /// Lists with an allocated tail header (`IndexTail`, about 1 KB each
    /// before any entry; not in `tail_bytes`).
    pub tail_headers: usize,
    /// Raw tail slot segments allocated across those lists.
    pub tail_segments: usize,
    /// The same runs' cost as plain 24-byte entries (bulk + ladder
    /// copies) — the uncompressed baseline the compression ratio is
    /// measured against.
    pub oracle_run_bytes: usize,
}

impl IndexFootprint {
    /// Resident bytes of this index (runs + raw tail).
    pub fn bytes(&self) -> usize {
        self.run_bytes + self.tail_bytes
    }

    /// Uncompressed-run bytes over compact-run bytes (1.0 = no win).
    pub fn compression_ratio(&self) -> f64 {
        if self.run_bytes == 0 {
            1.0
        } else {
            self.oracle_run_bytes as f64 / self.run_bytes as f64
        }
    }

    pub(crate) fn merge(&mut self, other: IndexFootprint) {
        self.entries += other.entries;
        self.run_bytes += other.run_bytes;
        self.tail_bytes += other.tail_bytes;
        self.tail_headers += other.tail_headers;
        self.tail_segments += other.tail_segments;
        self.oracle_run_bytes += other.oracle_run_bytes;
    }
}

/// Raw per-table sizes gathered from the store internals.
#[derive(Debug, Default, Clone)]
pub(crate) struct RawSizes {
    pub persons: usize,
    pub person_bytes: usize,
    pub forums: usize,
    pub forum_bytes: usize,
    pub messages: usize,
    pub message_bytes: usize,
    /// `(index name, footprint)` for each index table, ordered as
    /// [`crate::counters::MEM_INDEX_NAMES`].
    pub per_index: Vec<(&'static str, IndexFootprint)>,
}

/// One table (or index) size line.
#[derive(Debug, Clone)]
pub struct TableSize {
    /// Table name.
    pub name: &'static str,
    /// Row / entry count.
    pub rows: usize,
    /// Estimated resident bytes.
    pub bytes: usize,
    /// The table's largest index: `(name, bytes)`.
    pub largest_index: (&'static str, usize),
}

/// Store-wide storage statistics.
#[derive(Debug, Clone)]
pub struct StorageStats {
    /// Per-table sizes, largest first.
    pub tables: Vec<TableSize>,
    /// Sum of all table and index bytes.
    pub total_bytes: usize,
    /// Measured per-index footprints (compact runs vs the uncompressed
    /// oracle), by index name.
    pub per_index: Vec<(&'static str, IndexFootprint)>,
    /// All index tables folded together.
    pub index: IndexFootprint,
    /// Entity-row heap bytes (persons + forums + messages, including
    /// string content).
    pub entity_bytes: usize,
    /// Visible person rows.
    pub persons: usize,
    /// Visible message rows.
    pub messages: usize,
}

impl StorageStats {
    /// The `n` largest tables (Table 8 reports three).
    pub fn largest(&self, n: usize) -> &[TableSize] {
        &self.tables[..n.min(self.tables.len())]
    }

    /// Resident bytes per person: everything the store holds (entities +
    /// index runs + raw tails) over the person count.
    pub fn bytes_per_person(&self) -> f64 {
        if self.persons == 0 {
            return 0.0;
        }
        (self.entity_bytes + self.index.bytes()) as f64 / self.persons as f64
    }

    /// Resident bytes per message: the message rows plus their primary
    /// date index (`person_messages`) over the message count.
    pub fn bytes_per_message(&self) -> f64 {
        if self.messages == 0 {
            return 0.0;
        }
        let row_bytes = self.tables.iter().find(|t| t.name == "message").map_or(0, |t| t.bytes);
        let idx_bytes = self
            .per_index
            .iter()
            .find(|(n, _)| *n == "person_messages")
            .map_or(0, |(_, f)| f.bytes());
        (row_bytes + idx_bytes) as f64 / self.messages as f64
    }

    /// Store-wide index compression ratio (uncompressed runs over compact
    /// runs).
    pub fn compression_ratio(&self) -> f64 {
        self.index.compression_ratio()
    }
}

impl fmt::Display for StorageStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{:<16} {:>12} {:>12}  largest index", "table", "rows", "MB")?;
        for t in &self.tables {
            writeln!(
                f,
                "{:<16} {:>12} {:>12.2}  {} ({:.2} MB)",
                t.name,
                t.rows,
                t.bytes as f64 / 1e6,
                t.largest_index.0,
                t.largest_index.1 as f64 / 1e6,
            )?;
        }
        writeln!(f, "total {:.2} MB", self.total_bytes as f64 / 1e6)?;
        write!(
            f,
            "index runs {:.2} MB compact vs {:.2} MB raw ({:.2}x); {:.0} B/person, {:.0} B/message",
            self.index.run_bytes as f64 / 1e6,
            self.index.oracle_run_bytes as f64 / 1e6,
            self.compression_ratio(),
            self.bytes_per_person(),
            self.bytes_per_message(),
        )
    }
}

pub(crate) fn from_raw(raw: RawSizes) -> StorageStats {
    let foot = |name: &str| -> IndexFootprint {
        raw.per_index.iter().find(|(n, _)| *n == name).map(|&(_, f)| f).unwrap_or_default()
    };
    let knows = foot("knows");
    let person_messages = foot("person_messages");
    let forum_posts = foot("forum_posts");
    let forum_members = foot("forum_members");
    let person_forums = foot("person_forums");
    let message_replies = foot("message_replies");
    let message_likes = foot("message_likes");
    let person_likes = foot("person_likes");
    let tag_posts = foot("tag_posts");

    let likes_bytes = message_likes.bytes() + person_likes.bytes();
    let membership_bytes = forum_members.bytes() + person_forums.bytes();
    let mut tables = vec![
        TableSize {
            name: "message",
            rows: raw.messages,
            bytes: raw.message_bytes,
            largest_index: ("person_messages(date)", person_messages.bytes()),
        },
        TableSize {
            name: "likes",
            rows: message_likes.entries,
            bytes: likes_bytes,
            largest_index: ("message_likes(date)", message_likes.bytes()),
        },
        TableSize {
            name: "forum_person",
            rows: forum_members.entries,
            bytes: membership_bytes,
            largest_index: ("forum_members(join)", forum_members.bytes()),
        },
        TableSize {
            name: "knows",
            rows: knows.entries,
            bytes: knows.bytes(),
            largest_index: ("knows(date)", knows.bytes()),
        },
        TableSize {
            name: "person",
            rows: raw.persons,
            bytes: raw.person_bytes,
            largest_index: ("person(pk)", raw.persons * 16),
        },
        TableSize {
            name: "forum",
            rows: raw.forums,
            bytes: raw.forum_bytes,
            largest_index: ("forum_posts(date)", forum_posts.bytes()),
        },
    ];
    tables.sort_by_key(|t| std::cmp::Reverse(t.bytes));
    let total_bytes = tables.iter().map(|t| t.bytes + t.largest_index.1).sum::<usize>()
        + message_replies.bytes()
        + tag_posts.bytes();
    let mut index = IndexFootprint::default();
    for &(_, f) in &raw.per_index {
        index.merge(f);
    }
    StorageStats {
        tables,
        total_bytes,
        per_index: raw.per_index,
        index,
        entity_bytes: raw.person_bytes + raw.forum_bytes + raw.message_bytes,
        persons: raw.persons,
        messages: raw.messages,
    }
}
