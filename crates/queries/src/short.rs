//! The 7 short read-only queries (§4, "Simple read-only queries").
//!
//! "The bulk of the user queries are simpler and perform lookups: (i)
//! Profile view [...] (ii) Post view". Following the LDBC specification
//! these decompose into S1-S3 (person-anchored) and S4-S7
//! (message-anchored); the driver chains them in a random walk where
//! profile lookups feed post lookups and vice versa.

use crate::params::ShortQuery;
use snb_core::time::SimTime;
use snb_core::{ForumId, MessageId, PersonId};
use snb_store::PinnedSnapshot;

/// S1 — person profile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileRow {
    /// First name.
    pub first_name: &'static str,
    /// Last name.
    pub last_name: &'static str,
    /// Birthday.
    pub birthday: SimTime,
    /// IP address.
    pub location_ip: String,
    /// Browser.
    pub browser: &'static str,
    /// Home city (dictionary index).
    pub city: usize,
    /// Gender string.
    pub gender: &'static str,
    /// Account creation date.
    pub creation_date: SimTime,
}

/// Run S1.
pub fn s1_profile(snap: &PinnedSnapshot<'_>, person: PersonId) -> Option<ProfileRow> {
    let p = snap.person_ref(person)?;
    Some(ProfileRow {
        first_name: p.first_name,
        last_name: p.last_name,
        birthday: p.birthday,
        location_ip: p.location_ip.clone(),
        browser: p.browser,
        city: p.city,
        gender: p.gender.as_str(),
        creation_date: p.creation_date,
    })
}

/// S2 — a person's 10 most recent messages, with the root post of each
/// thread and its author.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecentMessageRow {
    /// The message.
    pub message: MessageId,
    /// Its content (or image file).
    pub content: String,
    /// Creation date.
    pub creation_date: SimTime,
    /// Root post of the conversation (the message itself for posts).
    pub root_post: MessageId,
    /// Author of the root post.
    pub root_author: PersonId,
}

/// S2's result limit.
pub(crate) const S2_LIMIT: usize = 10;

/// Run S2.
pub fn s2_recent_messages(snap: &PinnedSnapshot<'_>, person: PersonId) -> Vec<RecentMessageRow> {
    snap.recent_messages_walk(person, SimTime(i64::MAX))
        .take(S2_LIMIT)
        .filter_map(|(msg, date)| {
            let row = snap.message_ref(MessageId(msg))?;
            let root = row.reply_info.map(|(_, root)| root).unwrap_or(MessageId(msg));
            let root_author = snap.message_meta(root)?.author;
            let content = row
                .image_file
                .as_deref()
                .filter(|_| row.content.is_empty())
                .unwrap_or(&row.content)
                .to_string();
            Some(RecentMessageRow {
                message: MessageId(msg),
                content,
                creation_date: date,
                root_post: root,
                root_author,
            })
        })
        .collect()
}

/// S3 — friends of a person with friendship dates, newest first, id
/// tie-break ascending.
pub fn s3_friends(snap: &PinnedSnapshot<'_>, person: PersonId) -> Vec<(PersonId, SimTime)> {
    let mut friends: Vec<(PersonId, SimTime)> =
        snap.friends_iter(person).map(|(id, date)| (PersonId(id), date)).collect();
    friends.sort_by_key(|&(id, date)| (std::cmp::Reverse(date), id));
    friends
}

/// S4 — message content and creation date.
pub fn s4_message(snap: &PinnedSnapshot<'_>, message: MessageId) -> Option<(String, SimTime)> {
    let m = snap.message_ref(message)?;
    let content =
        m.image_file.as_deref().filter(|_| m.content.is_empty()).unwrap_or(&m.content).to_string();
    Some((content, m.creation_date))
}

/// S5 — creator of a message.
pub fn s5_creator(snap: &PinnedSnapshot<'_>, message: MessageId) -> Option<PersonId> {
    Some(snap.message_meta(message)?.author)
}

/// S6 — forum of a message (via the root post for comments) and its
/// moderator.
pub fn s6_forum(
    snap: &PinnedSnapshot<'_>,
    message: MessageId,
) -> Option<(ForumId, String, PersonId)> {
    let meta = snap.message_meta(message)?;
    let root = meta.reply_info.map(|(_, r)| r).unwrap_or(message);
    let forum_id = snap.message_meta(root)?.forum;
    let forum = snap.forum_ref(forum_id)?;
    Some((forum_id, forum.title.clone(), forum.moderator))
}

/// S7 — replies to a message with their authors and a flag telling whether
/// the reply author knows the original author. Newest first.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplyRow {
    /// The reply comment.
    pub comment: MessageId,
    /// Reply creation date.
    pub creation_date: SimTime,
    /// Reply author.
    pub author: PersonId,
    /// Whether the reply author knows the original message's author.
    pub knows_original_author: bool,
}

/// Run S7.
pub fn s7_replies(snap: &PinnedSnapshot<'_>, message: MessageId) -> Vec<ReplyRow> {
    let Some(original) = snap.message_meta(message) else {
        return Vec::new();
    };
    let mut replies: Vec<ReplyRow> = snap
        .replies_of_iter(message)
        .filter_map(|(reply, date)| {
            let author = snap.message_meta(MessageId(reply))?.author;
            Some(ReplyRow {
                comment: MessageId(reply),
                creation_date: date,
                author,
                knows_original_author: snap.are_friends(author, original.author),
            })
        })
        .collect();
    replies.sort_by_key(|r| (std::cmp::Reverse(r.creation_date), r.comment));
    replies
}

/// Uniform executor used by the driver; returns the result row count.
pub fn run_short(snap: &PinnedSnapshot<'_>, q: &ShortQuery) -> usize {
    let rows = match *q {
        ShortQuery::S1(p) => usize::from(s1_profile(snap, p).is_some()),
        ShortQuery::S2(p) => s2_recent_messages(snap, p).len(),
        ShortQuery::S3(p) => s3_friends(snap, p).len(),
        ShortQuery::S4(m) => usize::from(s4_message(snap, m).is_some()),
        ShortQuery::S5(m) => usize::from(s5_creator(snap, m).is_some()),
        ShortQuery::S6(m) => usize::from(s6_forum(snap, m).is_some()),
        ShortQuery::S7(m) => s7_replies(snap, m).len(),
    };
    snb_obs::tick_result_rows(rows as u64);
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{busy_person, fixture};

    #[test]
    fn s1_returns_profile() {
        let f = fixture();
        let snap = f.store.pinned();
        let person = busy_person(f);
        let row = s1_profile(&snap, person).unwrap();
        let expect = &f.ds.persons[person.index()];
        assert_eq!(row.first_name, expect.first_name);
        assert_eq!(row.city, expect.city);
        assert!(s1_profile(&snap, PersonId(u64::MAX / 2)).is_none());
    }

    #[test]
    fn s2_returns_recent_messages_with_roots() {
        let f = fixture();
        let snap = f.store.pinned();
        let rows = s2_recent_messages(&snap, busy_person(f));
        assert!(!rows.is_empty() && rows.len() <= 10);
        for w in rows.windows(2) {
            assert!(w[0].creation_date >= w[1].creation_date);
        }
        for r in &rows {
            let root = snap.message_meta(r.root_post).unwrap();
            assert!(root.reply_info.is_none(), "root must be a post");
            assert_eq!(root.author, r.root_author);
        }
    }

    #[test]
    fn s3_orders_friends_by_date_desc() {
        let f = fixture();
        let snap = f.store.pinned();
        let rows = s3_friends(&snap, busy_person(f));
        assert!(!rows.is_empty());
        for w in rows.windows(2) {
            assert!(w[0].1 > w[1].1 || (w[0].1 == w[1].1 && w[0].0 < w[1].0));
        }
    }

    #[test]
    fn s4_s5_s6_resolve_message_anchors() {
        let f = fixture();
        let snap = f.store.pinned();
        let comment = &f.ds.comments[0];
        let (content, date) = s4_message(&snap, comment.id).unwrap();
        assert_eq!(content, comment.content);
        assert_eq!(date, comment.creation_date);
        assert_eq!(s5_creator(&snap, comment.id).unwrap(), comment.author);
        let (forum, _title, moderator) = s6_forum(&snap, comment.id).unwrap();
        assert_eq!(forum, comment.forum);
        assert_eq!(moderator, f.ds.forums[forum.index()].moderator);
    }

    #[test]
    fn s7_lists_replies_with_knows_flag() {
        let f = fixture();
        let snap = f.store.pinned();
        // The first comment's parent certainly has at least one reply.
        let parent = f.ds.comments[0].reply_to;
        let rows = s7_replies(&snap, parent);
        assert!(!rows.is_empty());
        let original_author = snap.message_meta(parent).unwrap().author;
        for r in &rows {
            assert_eq!(r.knows_original_author, snap.are_friends(r.author, original_author));
        }
    }

    #[test]
    fn run_short_counts() {
        let f = fixture();
        let snap = f.store.pinned();
        let person = busy_person(f);
        assert_eq!(run_short(&snap, &ShortQuery::S1(person)), 1);
        assert!(run_short(&snap, &ShortQuery::S3(person)) > 0);
        assert_eq!(run_short(&snap, &ShortQuery::S4(MessageId(u64::MAX / 2))), 0);
    }
}
