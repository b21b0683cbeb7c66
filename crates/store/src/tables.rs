//! The tables of the property graph: rows, index entries and the insert
//! and validation logic over them.
//!
//! Primary-key tables are dense in the creation-ordered id space, next to
//! the adjacency/secondary indexes the Interactive queries need:
//!
//! - `knows` adjacency with friendship dates (Q1-Q14, S3)
//! - per-person messages ordered by creation date (Q2, Q8, Q9, S2)
//! - per-forum posts and members, per-person forum joins (Q5, S6)
//! - reply trees (Q8, Q12, S7) and like edges in both directions (Q7)
//! - per-tag posts (Q6)
//!
//! [`INDEX_NAMES`] lists them in the one order every per-index report uses.
//!
//! Date-ordered index entries make the "top-20 most recent before date"
//! pattern — the backbone of half the complex reads — a reverse scan with
//! early termination, which is exactly the locality §3 says systems should
//! exploit when ids correlate with time.
//!
//! Everything here is plain data over the [`crate::tail`] containers: no
//! atomics, no locks. Writers reach it through [`crate::store`] (which
//! holds the stripe locks the insert methods require), readers through
//! [`crate::read`].

use crate::mvcc::CommitTs;
use crate::tail::{IndexList, SegVec};
use snb_core::schema::{Comment, Forum, ForumMembership, Knows, Like, Person, Post};
use snb_core::time::SimTime;
use snb_core::update::UpdateOp;
use snb_core::{ForumId, MessageId, PersonId, SnbError, SnbResult, TagId};

/// A stored message: posts and comments share one table and id space.
#[derive(Debug, Clone)]
pub struct MessageRow {
    /// Author.
    pub author: PersonId,
    /// Containing forum.
    pub forum: ForumId,
    /// Creation date.
    pub creation_date: SimTime,
    /// Content (empty for photos).
    pub content: Box<str>,
    /// Image file for photos.
    pub image_file: Option<Box<str>>,
    /// Topic tags.
    pub tags: Box<[TagId]>,
    /// Content language (posts only; comments inherit "").
    pub language: &'static str,
    /// Country the message was sent from.
    pub country: u32,
    /// `None` for posts; `Some((reply_to, root_post))` for comments.
    pub reply_info: Option<(MessageId, MessageId)>,
}

impl MessageRow {
    /// Whether this message is a comment.
    #[inline]
    pub fn is_comment(&self) -> bool {
        self.reply_info.is_some()
    }
}

/// Versioned row wrapper.
#[derive(Debug, Clone)]
pub(crate) struct Versioned<T> {
    pub(crate) commit: CommitTs,
    pub(crate) row: T,
}

/// A dated, versioned index entry pointing at an entity.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Entry {
    pub(crate) date: SimTime,
    pub(crate) id: u64,
    pub(crate) commit: CommitTs,
}

#[inline]
pub(crate) fn key(e: &Entry) -> (SimTime, u64) {
    (e.date, e.id)
}

/// Entity tables: segment 0 holds 1024 rows, 22 segments bound the id
/// space at ~4.3e9 — far beyond any scale factor we generate.
pub(crate) type EntityTable<T> = SegVec<Versioned<T>, 10, 22>;
/// Index-list tables, same geometry as [`EntityTable`].
pub(crate) type IndexTable = SegVec<IndexList, 10, 22>;

/// All tables of the store, shared lock-free between readers and writers.
/// Insert methods take `&self` but require the caller to hold the stripe
/// locks covering every id they write (the per-list single-writer
/// guarantee behind [`crate::tail::IndexTail::push`]).
#[derive(Debug)]
pub(crate) struct Tables {
    pub(crate) persons: EntityTable<Person>,
    pub(crate) forums: EntityTable<Forum>,
    pub(crate) messages: EntityTable<MessageRow>,
    /// knows adjacency, both directions; Entry.id = other person.
    pub(crate) knows: IndexTable,
    /// per-person authored messages; Entry.id = message.
    pub(crate) person_messages: IndexTable,
    /// per-person authored posts only (no comments); Entry.id = message.
    /// A covering index for the "posts by circle" scans (Q5, Q10):
    /// without it they scan `person_messages` and pay one random probe
    /// into the fat message table per entry just to discard replies —
    /// measured as the dominant cost of the complex mix.
    pub(crate) person_posts: IndexTable,
    /// per-forum posts; Entry.id = message.
    pub(crate) forum_posts: IndexTable,
    /// per-forum members; Entry.id = person, date = join date.
    pub(crate) forum_members: IndexTable,
    /// per-person joined forums; Entry.id = forum, date = join date.
    pub(crate) person_forums: IndexTable,
    /// per-message direct replies; Entry.id = replying comment.
    pub(crate) message_replies: IndexTable,
    /// per-message likes; Entry.id = liking person.
    pub(crate) message_likes: IndexTable,
    /// per-person given likes; Entry.id = liked message.
    pub(crate) person_likes: IndexTable,
    /// per-tag posts (no comments), one entry per distinct tag of each
    /// post; Entry.id = message. Drives Q6 from the tag side: a tag's list
    /// is far shorter than the posts of a 2-hop circle.
    pub(crate) tag_posts: IndexTable,
}

/// Declares the one ordered list of index tables. [`INDEX_NAMES`], the
/// `store.mem.run_bytes.<index>` gauge names and [`Tables::index_tables`]
/// all expand from the same field list, so they cannot drift.
macro_rules! index_tables {
    ($($field:ident),* $(,)?) => {
        /// Every index table's name (its field name in the store's
        /// tables), in the order of every per-index report: storage
        /// footprints and the `store.mem.run_bytes.<index>` gauges.
        pub const INDEX_NAMES: [&str; INDEXES] = [$(stringify!($field)),*];

        /// The `store.mem.run_bytes.<index>` gauge names, ordered as
        /// [`INDEX_NAMES`].
        pub(crate) const RUN_BYTES_GAUGES: [&str; INDEXES] =
            [$(concat!("store.mem.run_bytes.", stringify!($field))),*];

        impl Tables {
            /// The index tables, ordered as [`INDEX_NAMES`].
            fn index_tables(&self) -> [&IndexTable; INDEXES] {
                [$(&self.$field),*]
            }
        }
    };
}

/// Number of index tables.
pub const INDEXES: usize = 10;

index_tables!(
    knows,
    person_messages,
    person_posts,
    forum_posts,
    forum_members,
    person_forums,
    message_replies,
    message_likes,
    person_likes,
    tag_posts,
);

/// The distinct tags of a post, first occurrence first. An update that
/// names a tag twice (updates also arrive over the wire and from a WAL)
/// still enters that tag's `tag_posts` list once, as Q6 counts a post
/// once; the insert path and the bulk loader both use it.
pub(crate) fn distinct_tags(tags: &[TagId]) -> impl Iterator<Item = TagId> + '_ {
    tags.iter().enumerate().filter(|&(i, t)| !tags[..i].contains(t)).map(|(_, &t)| t)
}

impl Tables {
    pub(crate) fn new() -> Tables {
        Tables {
            persons: SegVec::new(),
            forums: SegVec::new(),
            messages: SegVec::new(),
            knows: SegVec::new(),
            person_messages: SegVec::new(),
            person_posts: SegVec::new(),
            forum_posts: SegVec::new(),
            forum_members: SegVec::new(),
            person_forums: SegVec::new(),
            message_replies: SegVec::new(),
            message_likes: SegVec::new(),
            person_likes: SegVec::new(),
            tag_posts: SegVec::new(),
        }
    }

    /// Whether no entity has ever been inserted (the parallel loader can
    /// only build a store from scratch).
    pub(crate) fn is_empty(&self) -> bool {
        self.persons.high() == 0 && self.forums.high() == 0 && self.messages.high() == 0
    }

    /// The list at `i`, created empty on first touch (with the bound
    /// raised, replicating the old `ensure` slot parity).
    fn list(table: &IndexTable, i: usize) -> &IndexList {
        table.bump(i + 1);
        table.slot(i).get_or_init(IndexList::default)
    }

    pub(crate) fn validate(&self, op: &UpdateOp) -> SnbResult<()> {
        let person_exists = |id: PersonId| -> SnbResult<()> {
            self.persons
                .get(id.index())
                .map(|_| ())
                .ok_or(SnbError::NotFound { entity: "person", id: id.raw() })
        };
        let forum_exists = |id: ForumId| -> SnbResult<()> {
            self.forums
                .get(id.index())
                .map(|_| ())
                .ok_or(SnbError::NotFound { entity: "forum", id: id.raw() })
        };
        let message_exists = |id: MessageId| -> SnbResult<()> {
            self.messages
                .get(id.index())
                .map(|_| ())
                .ok_or(SnbError::NotFound { entity: "message", id: id.raw() })
        };
        match op {
            UpdateOp::AddPerson(p) => {
                if self.persons.get(p.id.index()).is_some() {
                    return Err(SnbError::Constraint(format!("duplicate person {}", p.id)));
                }
            }
            UpdateOp::AddFriendship(k) => {
                if k.a == k.b {
                    return Err(SnbError::Constraint("self-friendship".into()));
                }
                person_exists(k.a)?;
                person_exists(k.b)?;
            }
            UpdateOp::AddForum(f) => {
                person_exists(f.moderator)?;
                if self.forums.get(f.id.index()).is_some() {
                    return Err(SnbError::Constraint(format!("duplicate forum {}", f.id)));
                }
            }
            UpdateOp::AddMembership(m) => {
                person_exists(m.person)?;
                forum_exists(m.forum)?;
            }
            UpdateOp::AddPost(p) => {
                person_exists(p.author)?;
                forum_exists(p.forum)?;
                if self.messages.get(p.id.index()).is_some() {
                    return Err(SnbError::Constraint(format!("duplicate message {}", p.id)));
                }
            }
            UpdateOp::AddComment(c) => {
                person_exists(c.author)?;
                forum_exists(c.forum)?;
                message_exists(c.reply_to)?;
                message_exists(c.root_post)?;
                if self.messages.get(c.id.index()).is_some() {
                    return Err(SnbError::Constraint(format!("duplicate message {}", c.id)));
                }
            }
            UpdateOp::AddPostLike(l) | UpdateOp::AddCommentLike(l) => {
                person_exists(l.person)?;
                message_exists(l.message)?;
            }
        }
        Ok(())
    }

    pub(crate) fn insert_person(&self, p: Person, ts: CommitTs) {
        let i = p.id.index();
        self.knows.bump(i + 1);
        self.person_messages.bump(i + 1);
        self.person_posts.bump(i + 1);
        self.person_forums.bump(i + 1);
        self.person_likes.bump(i + 1);
        self.persons.install(i, Versioned { commit: ts, row: p });
    }

    pub(crate) fn insert_knows(&self, k: &Knows, ts: CommitTs) {
        let (a, b) = (k.a.index(), k.b.index());
        Self::list(&self.knows, a).push(Entry { date: k.creation_date, id: k.b.raw(), commit: ts });
        Self::list(&self.knows, b).push(Entry { date: k.creation_date, id: k.a.raw(), commit: ts });
    }

    pub(crate) fn insert_forum(&self, f: Forum, ts: CommitTs) {
        let i = f.id.index();
        self.forum_posts.bump(i + 1);
        self.forum_members.bump(i + 1);
        self.forums.install(i, Versioned { commit: ts, row: f });
    }

    pub(crate) fn insert_membership(&self, m: &ForumMembership, ts: CommitTs) {
        Self::list(&self.forum_members, m.forum.index()).push(Entry {
            date: m.join_date,
            id: m.person.raw(),
            commit: ts,
        });
        Self::list(&self.person_forums, m.person.index()).push(Entry {
            date: m.join_date,
            id: m.forum.raw(),
            commit: ts,
        });
    }

    fn insert_message_row(&self, id: MessageId, row: MessageRow, ts: CommitTs) {
        let i = id.index();
        self.message_replies.bump(i + 1);
        self.message_likes.bump(i + 1);
        Self::list(&self.person_messages, row.author.index()).push(Entry {
            date: row.creation_date,
            id: id.raw(),
            commit: ts,
        });
        self.messages.install(i, Versioned { commit: ts, row });
    }

    pub(crate) fn insert_post(&self, p: &Post, ts: CommitTs) {
        Self::list(&self.forum_posts, p.forum.index()).push(Entry {
            date: p.creation_date,
            id: p.id.raw(),
            commit: ts,
        });
        Self::list(&self.person_posts, p.author.index()).push(Entry {
            date: p.creation_date,
            id: p.id.raw(),
            commit: ts,
        });
        for t in distinct_tags(&p.tags) {
            Self::list(&self.tag_posts, t.index()).push(Entry {
                date: p.creation_date,
                id: p.id.raw(),
                commit: ts,
            });
        }
        self.insert_message_row(p.id, post_row(p), ts);
    }

    pub(crate) fn insert_comment(&self, c: &Comment, ts: CommitTs) {
        Self::list(&self.message_replies, c.reply_to.index()).push(Entry {
            date: c.creation_date,
            id: c.id.raw(),
            commit: ts,
        });
        self.insert_message_row(c.id, comment_row(c), ts);
    }

    pub(crate) fn insert_like(&self, l: &Like, ts: CommitTs) {
        Self::list(&self.message_likes, l.message.index()).push(Entry {
            date: l.creation_date,
            id: l.person.raw(),
            commit: ts,
        });
        Self::list(&self.person_likes, l.person.index()).push(Entry {
            date: l.creation_date,
            id: l.message.raw(),
            commit: ts,
        });
    }

    /// `(name, measured footprint)` for each index table, ordered as
    /// [`INDEX_NAMES`]: compact run bytes, raw tail bytes, and the
    /// uncompressed-oracle cost of the same runs (see
    /// [`crate::stats::IndexFootprint`]).
    fn index_footprints(&self) -> Vec<(&'static str, crate::stats::IndexFootprint)> {
        let foot = |t: &IndexTable| {
            let mut f = crate::stats::IndexFootprint::default();
            for i in 0..t.high() {
                if let Some(l) = t.get(i) {
                    let (run_bytes, run_entries, tail_bytes) = l.mem();
                    f.entries += l.len();
                    f.run_bytes += run_bytes;
                    f.tail_bytes += tail_bytes;
                    f.oracle_run_bytes += run_entries * std::mem::size_of::<Entry>();
                }
            }
            f
        };
        INDEX_NAMES.into_iter().zip(self.index_tables()).map(|(name, t)| (name, foot(t))).collect()
    }

    /// Raw element counts and byte sizes per table for storage statistics.
    pub(crate) fn sizes(&self) -> crate::stats::RawSizes {
        let persons = || (0..self.persons.high()).filter_map(|i| self.persons.get(i));
        let forums = || (0..self.forums.high()).filter_map(|i| self.forums.get(i));
        let messages = || (0..self.messages.high()).filter_map(|i| self.messages.get(i));
        crate::stats::RawSizes {
            persons: persons().count(),
            person_bytes: persons()
                .map(|v| {
                    160 + v.row.location_ip.len()
                        + v.row.emails.iter().map(|e| e.len()).sum::<usize>()
                        + v.row.interests.len() * 8
                        + v.row.work_at.len() * 16
                })
                .sum(),
            forums: forums().count(),
            forum_bytes: forums().map(|v| 64 + v.row.title.len() + v.row.tags.len() * 8).sum(),
            messages: messages().count(),
            message_bytes: messages()
                .map(|v| v.row.content.len() + v.row.tags.len() * 8 + 64)
                .sum(),
            per_index: self.index_footprints(),
        }
    }
}

/// [`MessageRow`] for a post — shared by the incremental insert path and
/// the parallel bulk loader so both produce identical rows.
pub(crate) fn post_row(p: &Post) -> MessageRow {
    MessageRow {
        author: p.author,
        forum: p.forum,
        creation_date: p.creation_date,
        content: p.content.as_str().into(),
        image_file: p.image_file.as_deref().map(Into::into),
        tags: p.tags.clone().into_boxed_slice(),
        language: p.language,
        country: p.country as u32,
        reply_info: None,
    }
}

/// [`MessageRow`] for a comment — shared like [`post_row`].
pub(crate) fn comment_row(c: &Comment) -> MessageRow {
    MessageRow {
        author: c.author,
        forum: c.forum,
        creation_date: c.creation_date,
        content: c.content.as_str().into(),
        image_file: None,
        tags: c.tags.clone().into_boxed_slice(),
        language: "",
        country: c.country as u32,
        reply_info: Some((c.reply_to, c.root_post)),
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::store::Store;
    use snb_core::dict::names::Gender;
    use snb_core::schema::ForumKind;

    pub(crate) fn person(id: u64, t: i64) -> Person {
        Person {
            id: PersonId(id),
            first_name: "Karl",
            last_name: "Muller",
            gender: Gender::Male,
            birthday: SimTime(0),
            creation_date: SimTime(t),
            city: 0,
            country: 0,
            browser: "Chrome",
            location_ip: "1.2.3.4".into(),
            languages: vec!["de"],
            emails: vec![],
            interests: vec![TagId(1)],
            study_at: None,
            work_at: vec![],
        }
    }

    pub(crate) fn forum(id: u64, moderator: u64, t: i64) -> Forum {
        Forum {
            id: ForumId(id),
            title: "wall".into(),
            moderator: PersonId(moderator),
            creation_date: SimTime(t),
            tags: vec![TagId(1)],
            kind: ForumKind::Wall,
        }
    }

    pub(crate) fn post(id: u64, author: u64, forum: u64, t: i64) -> Post {
        Post {
            id: MessageId(id),
            author: PersonId(author),
            forum: ForumId(forum),
            creation_date: SimTime(t),
            content: "hello".into(),
            image_file: None,
            tags: vec![TagId(1)],
            language: "de",
            country: 0,
        }
    }

    #[test]
    fn constraint_violations_are_rejected() {
        let s = Store::new();
        s.apply(&UpdateOp::AddPerson(person(0, 10))).unwrap();
        // Duplicate person.
        assert!(matches!(
            s.apply(&UpdateOp::AddPerson(person(0, 10))),
            Err(SnbError::Constraint(_))
        ));
        // Friendship with missing endpoint.
        assert!(matches!(
            s.apply(&UpdateOp::AddFriendship(Knows {
                a: PersonId(0),
                b: PersonId(9),
                creation_date: SimTime(1),
            })),
            Err(SnbError::NotFound { .. })
        ));
        // Self-friendship.
        assert!(s
            .apply(&UpdateOp::AddFriendship(Knows {
                a: PersonId(0),
                b: PersonId(0),
                creation_date: SimTime(1),
            }))
            .is_err());
        // Post into missing forum.
        assert!(s.apply(&UpdateOp::AddPost(post(0, 0, 5, 50))).is_err());
    }

    #[test]
    fn message_indexes_are_date_ordered() {
        let s = Store::new();
        s.apply(&UpdateOp::AddPerson(person(0, 1))).unwrap();
        s.apply(&UpdateOp::AddForum(forum(0, 0, 2))).unwrap();
        // Insert posts out of date order; scans must observe sorted order.
        s.apply(&UpdateOp::AddPost(post(1, 0, 0, 50))).unwrap();
        s.apply(&UpdateOp::AddPost(post(0, 0, 0, 30))).unwrap();
        s.apply(&UpdateOp::AddPost(post(2, 0, 0, 40))).unwrap();
        let snap = s.pinned();
        let dates: Vec<i64> = snap.messages_of_iter(PersonId(0)).map(|(_, d)| d.millis()).collect();
        assert_eq!(dates, vec![30, 40, 50]);
        let recent: Vec<u64> = snap
            .recent_messages_walk(PersonId(0), SimTime(i64::MAX))
            .take(10)
            .map(|(m, _)| m)
            .collect();
        assert_eq!(recent, vec![1, 2, 0]);
    }

    #[test]
    fn a_post_enters_each_tag_list_once() {
        let s = Store::new();
        s.apply(&UpdateOp::AddPerson(person(0, 1))).unwrap();
        s.apply(&UpdateOp::AddForum(forum(0, 0, 2))).unwrap();
        let mut p = post(0, 0, 0, 10);
        p.tags = vec![TagId(3), TagId(7), TagId(3)];
        s.apply(&UpdateOp::AddPost(p)).unwrap();
        let snap = s.pinned();
        assert_eq!(snap.posts_with_tag_iter(TagId(3)).collect::<Vec<_>>(), [(0, SimTime(10))]);
        assert_eq!(snap.posts_with_tag_iter(TagId(7)).count(), 1);
        assert_eq!(snap.posts_with_tag_iter(TagId(1)).count(), 0);
    }

    #[test]
    fn comment_and_like_indexes() {
        let s = Store::new();
        s.apply(&UpdateOp::AddPerson(person(0, 1))).unwrap();
        s.apply(&UpdateOp::AddForum(forum(0, 0, 2))).unwrap();
        s.apply(&UpdateOp::AddPost(post(0, 0, 0, 10))).unwrap();
        s.apply(&UpdateOp::AddComment(Comment {
            id: MessageId(1),
            author: PersonId(0),
            creation_date: SimTime(20),
            content: "re".into(),
            reply_to: MessageId(0),
            root_post: MessageId(0),
            forum: ForumId(0),
            tags: vec![],
            country: 0,
        }))
        .unwrap();
        s.apply(&UpdateOp::AddPostLike(Like {
            person: PersonId(0),
            message: MessageId(0),
            creation_date: SimTime(30),
        }))
        .unwrap();
        let snap = s.pinned();
        assert_eq!(snap.replies_of_iter(MessageId(0)).count(), 1);
        assert_eq!(snap.likes_of_iter(MessageId(0)).next(), Some((0, SimTime(30))));
        assert_eq!(snap.likes_by_iter(PersonId(0)).next(), Some((0, SimTime(30))));
        let msg = snap.message_ref(MessageId(1)).unwrap();
        assert!(msg.is_comment());
        assert_eq!(msg.reply_info, Some((MessageId(0), MessageId(0))));
    }

    #[test]
    fn comment_requires_existing_parent() {
        let s = Store::new();
        s.apply(&UpdateOp::AddPerson(person(0, 1))).unwrap();
        s.apply(&UpdateOp::AddForum(forum(0, 0, 2))).unwrap();
        let c = Comment {
            id: MessageId(5),
            author: PersonId(0),
            creation_date: SimTime(20),
            content: "re".into(),
            reply_to: MessageId(99),
            root_post: MessageId(99),
            forum: ForumId(0),
            tags: vec![],
            country: 0,
        };
        assert!(s.apply(&UpdateOp::AddComment(c)).is_err());
    }
}
