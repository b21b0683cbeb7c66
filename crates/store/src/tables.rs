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
//! [`index_writes`] is the one definition of which list entries and list
//! slots each entity writes; [`Tables::insert`] (behind `Store::apply` and
//! WAL replay) and the bulk loader both build the lists from it.
//!
//! Everything here is plain data over the [`crate::tail`] containers: no
//! atomics, no locks. Writers reach it through [`crate::store`] (which
//! holds the stripe locks [`Tables::insert`] requires) and the bulk
//! loader, readers through [`crate::read`].

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
/// [`Tables::insert`] takes `&self` but requires the caller to hold the
/// stripe locks covering every id it writes (the per-list single-writer
/// guarantee behind [`crate::tail::IndexTail::push`]).
#[derive(Debug, Default)]
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

/// Declares the one ordered list of index tables. [`Ix`], [`INDEX_NAMES`],
/// the `store.mem.run_bytes.<index>` gauge names and
/// [`Tables::index_tables`] all expand from the same list, so they cannot
/// drift.
macro_rules! index_tables {
    ($($ix:ident => $field:ident),* $(,)?) => {
        /// An index table, named as its field in [`Tables`]; its
        /// discriminant is its position in [`INDEX_NAMES`].
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub(crate) enum Ix {
            $($ix),*
        }

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
            pub(crate) fn index_tables(&self) -> [&IndexTable; INDEXES] {
                [$(&self.$field),*]
            }

            fn index(&self, ix: Ix) -> &IndexTable {
                match ix {
                    $(Ix::$ix => &self.$field),*
                }
            }
        }
    };
}

/// Number of index tables.
pub const INDEXES: usize = 10;

index_tables!(
    Knows => knows,
    PersonMessages => person_messages,
    PersonPosts => person_posts,
    ForumPosts => forum_posts,
    ForumMembers => forum_members,
    PersonForums => person_forums,
    MessageReplies => message_replies,
    MessageLikes => message_likes,
    PersonLikes => person_likes,
    TagPosts => tag_posts,
);

/// The distinct tags of a post, first occurrence first. An update that
/// names a tag twice (updates also arrive over the wire and from a WAL)
/// still enters that tag's `tag_posts` list once, as Q6 counts a post
/// once.
fn distinct_tags(tags: &[TagId]) -> impl Iterator<Item = TagId> + '_ {
    tags.iter().enumerate().filter(|&(i, t)| !tags[..i].contains(t)).map(|(_, &t)| t)
}

/// One entity of the graph, borrowed from an update or from a dataset:
/// what both ways of building the tables, [`Tables::insert`] and the bulk
/// loader, hand to [`index_writes`].
#[derive(Debug, Clone, Copy)]
pub(crate) enum Entity<'a> {
    Person(&'a Person),
    Knows(&'a Knows),
    Forum(&'a Forum),
    Membership(&'a ForumMembership),
    Post(&'a Post),
    Comment(&'a Comment),
    Like(&'a Like),
}

impl<'a> Entity<'a> {
    /// The entity an update inserts.
    pub(crate) fn of(op: &'a UpdateOp) -> Entity<'a> {
        match op {
            UpdateOp::AddPerson(p) => Entity::Person(p),
            UpdateOp::AddFriendship(k) => Entity::Knows(k),
            UpdateOp::AddForum(f) => Entity::Forum(f),
            UpdateOp::AddMembership(m) => Entity::Membership(m),
            UpdateOp::AddPost(p) => Entity::Post(p),
            UpdateOp::AddComment(c) => Entity::Comment(c),
            UpdateOp::AddPostLike(l) | UpdateOp::AddCommentLike(l) => Entity::Like(l),
        }
    }
}

/// The one definition of what an entity writes to the index tables:
/// `w(table, slot, Some((date, id)))` for each entry it adds to the list at
/// `slot`, and `w(table, slot, None)` for each list slot its own id owns
/// (the slot exists, empty, from then on, so a table's bound is the
/// highest id that owns or holds a list). An entity's row lives at a slot
/// it names here, so the slots named are all the slots it writes.
pub(crate) fn index_writes(e: Entity<'_>, mut w: impl FnMut(Ix, usize, Option<(SimTime, u64)>)) {
    match e {
        Entity::Person(p) => {
            for ix in
                [Ix::Knows, Ix::PersonMessages, Ix::PersonPosts, Ix::PersonForums, Ix::PersonLikes]
            {
                w(ix, p.id.index(), None);
            }
        }
        Entity::Knows(k) => {
            w(Ix::Knows, k.a.index(), Some((k.creation_date, k.b.raw())));
            w(Ix::Knows, k.b.index(), Some((k.creation_date, k.a.raw())));
        }
        Entity::Forum(f) => {
            w(Ix::ForumPosts, f.id.index(), None);
            w(Ix::ForumMembers, f.id.index(), None);
        }
        Entity::Membership(m) => {
            w(Ix::ForumMembers, m.forum.index(), Some((m.join_date, m.person.raw())));
            w(Ix::PersonForums, m.person.index(), Some((m.join_date, m.forum.raw())));
        }
        Entity::Post(p) => {
            let entry = Some((p.creation_date, p.id.raw()));
            w(Ix::ForumPosts, p.forum.index(), entry);
            w(Ix::PersonPosts, p.author.index(), entry);
            for t in distinct_tags(&p.tags) {
                w(Ix::TagPosts, t.index(), entry);
            }
            w(Ix::PersonMessages, p.author.index(), entry);
            w(Ix::MessageReplies, p.id.index(), None);
            w(Ix::MessageLikes, p.id.index(), None);
        }
        Entity::Comment(c) => {
            let entry = Some((c.creation_date, c.id.raw()));
            w(Ix::MessageReplies, c.reply_to.index(), entry);
            w(Ix::PersonMessages, c.author.index(), entry);
            w(Ix::MessageReplies, c.id.index(), None);
            w(Ix::MessageLikes, c.id.index(), None);
        }
        Entity::Like(l) => {
            w(Ix::MessageLikes, l.message.index(), Some((l.creation_date, l.person.raw())));
            w(Ix::PersonLikes, l.person.index(), Some((l.creation_date, l.message.raw())));
        }
    }
}

impl Tables {
    /// Whether no entity has ever been inserted (the parallel loader can
    /// only build a store from scratch).
    pub(crate) fn is_empty(&self) -> bool {
        self.persons.high() == 0 && self.forums.high() == 0 && self.messages.high() == 0
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

    /// Insert `e` at commit timestamp `commit`: its [`index_writes`], then
    /// its row. The caller holds the stripe locks of every slot
    /// `index_writes` names.
    pub(crate) fn insert(&self, e: Entity<'_>, commit: CommitTs) {
        index_writes(e, |ix, i, entry| {
            let table = self.index(ix);
            table.bump(i + 1);
            if let Some((date, id)) = entry {
                table.slot(i).get_or_init(IndexList::default).push(Entry { date, id, commit });
            }
        });
        match e {
            Entity::Person(p) => {
                self.persons.install(p.id.index(), Versioned { commit, row: p.clone() })
            }
            Entity::Forum(f) => {
                self.forums.install(f.id.index(), Versioned { commit, row: f.clone() })
            }
            Entity::Post(p) => {
                self.messages.install(p.id.index(), Versioned { commit, row: post_row(p) })
            }
            Entity::Comment(c) => {
                self.messages.install(c.id.index(), Versioned { commit, row: comment_row(c) })
            }
            Entity::Knows(_) | Entity::Membership(_) | Entity::Like(_) => {}
        }
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
