//! Transactional update operations (§4, "Transactional update queries").
//!
//! "Since the structure of the SNB dataset is complex, the driver cannot
//! generate new data on-the-fly, rather it is pre-generated": DATAGEN splits
//! its output at one timestamp; everything later becomes the update stream,
//! replayed by the driver as the eight DML operation types U1–U8.
//!
//! Each scheduled operation carries a *due time* (`T_DUE`, the simulation
//! time it is scheduled at) and a *dependency time* (`T_DEP`, the creation
//! time of the latest operation it depends on); the driver guarantees
//! `T_DEP ≤ GCT` before executing a dependent operation (§4.2).

use crate::schema::{Comment, Forum, ForumMembership, Knows, Like, Person, Post};
use crate::time::SimTime;
use crate::wire_enum;

/// One of the eight SNB-Interactive update (DML) operations.
#[derive(Debug, Clone)]
pub enum UpdateOp {
    /// U1: add a person account (a *Dependencies* operation — others wait
    /// on it).
    AddPerson(Person),
    /// U2: add a like to a post.
    AddPostLike(Like),
    /// U3: add a like to a comment.
    AddCommentLike(Like),
    /// U4: add a forum (also a *Dependencies* operation for memberships).
    AddForum(Forum),
    /// U5: add a forum membership.
    AddMembership(ForumMembership),
    /// U6: add a post.
    AddPost(Post),
    /// U7: add a comment.
    AddComment(Comment),
    /// U8: add a friendship edge.
    AddFriendship(Knows),
}

impl UpdateOp {
    /// 1-based update-query number (U1..U8) as reported in the paper's
    /// Table 9.
    pub fn query_number(&self) -> usize {
        match self {
            UpdateOp::AddPerson(_) => 1,
            UpdateOp::AddPostLike(_) => 2,
            UpdateOp::AddCommentLike(_) => 3,
            UpdateOp::AddForum(_) => 4,
            UpdateOp::AddMembership(_) => 5,
            UpdateOp::AddPost(_) => 6,
            UpdateOp::AddComment(_) => 7,
            UpdateOp::AddFriendship(_) => 8,
        }
    }

    /// Short name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            UpdateOp::AddPerson(_) => "addPerson",
            UpdateOp::AddPostLike(_) => "addPostLike",
            UpdateOp::AddCommentLike(_) => "addCommentLike",
            UpdateOp::AddForum(_) => "addForum",
            UpdateOp::AddMembership(_) => "addMembership",
            UpdateOp::AddPost(_) => "addPost",
            UpdateOp::AddComment(_) => "addComment",
            UpdateOp::AddFriendship(_) => "addFriendship",
        }
    }

    /// Creation timestamp of the entity being inserted; the operation's
    /// natural due time.
    pub fn creation_date(&self) -> SimTime {
        match self {
            UpdateOp::AddPerson(p) => p.creation_date,
            UpdateOp::AddPostLike(l) | UpdateOp::AddCommentLike(l) => l.creation_date,
            UpdateOp::AddForum(f) => f.creation_date,
            UpdateOp::AddMembership(m) => m.join_date,
            UpdateOp::AddPost(p) => p.creation_date,
            UpdateOp::AddComment(c) => c.creation_date,
            UpdateOp::AddFriendship(k) => k.creation_date,
        }
    }

    /// Whether this operation is in the *Dependencies* set: at least one
    /// later operation may wait for it (person and forum creations; §4.2
    /// tracks person-level dependencies with GCT and captures intra-forum
    /// ones by sequential per-forum execution).
    pub fn is_dependency(&self) -> bool {
        matches!(self, UpdateOp::AddPerson(_) | UpdateOp::AddForum(_))
    }
}

wire_enum!(UpdateOp {
    1 => AddPerson(person),
    2 => AddPostLike(like),
    3 => AddCommentLike(like),
    4 => AddForum(forum),
    5 => AddMembership(membership),
    6 => AddPost(post),
    7 => AddComment(comment),
    8 => AddFriendship(knows),
});

/// Which driver stream an operation belongs to (§4.2, "Stream Execution
/// Modes"): person-level operations touch the non-partitionable FRIEND
/// graph and are tracked with GCT; forum-level operations partition cleanly
/// by forum and run in Sequential mode, which captures intra-forum
/// (post → comment → like) dependencies by causal order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StreamKey {
    /// Person stream: addPerson and addFriendship.
    Person,
    /// Per-forum stream: forum creation, membership, posts, comments, likes.
    Forum(u64),
}

/// An update operation scheduled on the simulation timeline.
#[derive(Debug, Clone)]
pub struct ScheduledUpdate {
    /// `T_DUE`: simulation time at which the driver should fire it.
    pub due: SimTime,
    /// `T_DEP`: creation time of the latest *Dependencies* operation this
    /// one must wait for (its person/forum prerequisites). `SimTime(0)` for
    /// operations with only bulk-loaded prerequisites.
    pub dep: SimTime,
    /// Stream/partition this operation belongs to. The generator resolves
    /// it (likes and comments need a message → forum lookup the driver
    /// cannot do on its own).
    pub stream: StreamKey,
    /// The operation itself.
    pub op: UpdateOp,
}

impl ScheduledUpdate {
    /// True if this operation belongs to the *Dependents* set (it must wait
    /// for `dep` via GCT).
    pub fn is_dependent(&self) -> bool {
        self.dep.millis() > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::{MessageId, PersonId};

    fn like() -> Like {
        Like {
            person: PersonId(1),
            message: MessageId(2),
            creation_date: SimTime::from_ymd(2012, 10, 1),
        }
    }

    #[test]
    fn query_numbers_match_paper_tables() {
        assert_eq!(UpdateOp::AddPostLike(like()).query_number(), 2);
        assert_eq!(UpdateOp::AddCommentLike(like()).query_number(), 3);
        let k = Knows { a: PersonId(1), b: PersonId(2), creation_date: SimTime(9) };
        assert_eq!(UpdateOp::AddFriendship(k).query_number(), 8);
    }

    #[test]
    fn dependency_classification() {
        let k = Knows { a: PersonId(1), b: PersonId(2), creation_date: SimTime(9) };
        assert!(!UpdateOp::AddFriendship(k).is_dependency());
        let s = ScheduledUpdate {
            due: SimTime(10),
            dep: SimTime(5),
            stream: StreamKey::Forum(3),
            op: UpdateOp::AddPostLike(like()),
        };
        assert!(s.is_dependent());
        let s0 = ScheduledUpdate {
            due: SimTime(10),
            dep: SimTime(0),
            stream: StreamKey::Person,
            op: UpdateOp::AddPostLike(like()),
        };
        assert!(!s0.is_dependent());
    }

    #[test]
    fn creation_date_extraction() {
        assert_eq!(UpdateOp::AddPostLike(like()).creation_date(), SimTime::from_ymd(2012, 10, 1));
    }
}
