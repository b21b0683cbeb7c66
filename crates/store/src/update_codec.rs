//! The binary encoding of an [`UpdateOp`] — the one on-disk / on-wire
//! format of an update: [`crate::wal`] frames it into log records and
//! `snb-net`'s wire protocol carries it as the payload of an update
//! request. [`encode_update`] / [`decode_update`] are the one pair both use.
//!
//! The encoding is hand-rolled and versioned rather than serde-based: the
//! schema structs hold `&'static str` dictionary references, which we
//! re-intern on decode via the dictionary intern helpers. Decoding runs on
//! bytes from disk and from the network alike, so every length prefix is
//! bounded by the bytes actually left (`get_len`) before anything is
//! allocated for it.

use snb_core::dict::names::{intern_name, Gender};
use snb_core::dict::places::intern_language;
use snb_core::schema::{
    intern_browser, Comment, Forum, ForumKind, ForumMembership, Knows, Like, Person, Post, StudyAt,
    WorkAt,
};
use snb_core::time::SimTime;
use snb_core::update::UpdateOp;
use snb_core::{ForumId, MessageId, OrganisationId, PersonId, TagId};

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_i64(buf: &mut Vec<u8>, v: i64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u64(buf, s.len() as u64);
    buf.extend_from_slice(s.as_bytes());
}

fn put_tags(buf: &mut Vec<u8>, tags: &[TagId]) {
    put_u64(buf, tags.len() as u64);
    for t in tags {
        put_u64(buf, t.raw());
    }
}

fn get_u64(p: &mut &[u8]) -> Option<u64> {
    let (bytes, rest) = p.split_first_chunk::<8>()?;
    *p = rest;
    Some(u64::from_le_bytes(*bytes))
}

fn get_i64(p: &mut &[u8]) -> Option<i64> {
    get_u64(p).map(|v| v as i64)
}

fn get_str(p: &mut &[u8]) -> Option<String> {
    let len = get_len(p, 1)?;
    let (bytes, rest) = p.split_at(len);
    *p = rest;
    String::from_utf8(bytes.to_vec()).ok()
}

/// A count of entries that take at least `min_bytes` each, or `None` when
/// the bytes left could not hold that many — so a hostile count cannot
/// make the decoder reserve more than the input could fill.
fn get_len(p: &mut &[u8], min_bytes: usize) -> Option<usize> {
    let n = get_u64(p)?;
    (n <= (p.len() / min_bytes) as u64).then_some(n as usize)
}

fn get_tags(p: &mut &[u8]) -> Option<Vec<TagId>> {
    let n = get_len(p, 8)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(TagId(get_u64(p)?));
    }
    Some(out)
}

fn encode_person(p: &Person, buf: &mut Vec<u8>) {
    put_u64(buf, p.id.raw());
    put_str(buf, p.first_name);
    put_str(buf, p.last_name);
    buf.push(matches!(p.gender, Gender::Female) as u8);
    put_i64(buf, p.birthday.millis());
    put_i64(buf, p.creation_date.millis());
    put_u64(buf, p.city as u64);
    put_u64(buf, p.country as u64);
    put_str(buf, p.browser);
    put_str(buf, &p.location_ip);
    put_u64(buf, p.languages.len() as u64);
    for l in &p.languages {
        put_str(buf, l);
    }
    put_u64(buf, p.emails.len() as u64);
    for e in &p.emails {
        put_str(buf, e);
    }
    put_tags(buf, &p.interests);
    match p.study_at {
        Some(s) => {
            buf.push(1);
            put_u64(buf, s.university.raw());
            put_i64(buf, s.class_year as i64);
        }
        None => buf.push(0),
    }
    put_u64(buf, p.work_at.len() as u64);
    for w in &p.work_at {
        put_u64(buf, w.company.raw());
        put_i64(buf, w.work_from as i64);
    }
}

fn decode_person(p: &mut &[u8]) -> Option<Person> {
    let id = PersonId(get_u64(p)?);
    let first_name = intern_name(&get_str(p)?)?;
    let last_name = intern_name(&get_str(p)?)?;
    let gender = if take_u8(p)? == 1 { Gender::Female } else { Gender::Male };
    let birthday = SimTime(get_i64(p)?);
    let creation_date = SimTime(get_i64(p)?);
    let city = get_u64(p)? as usize;
    let country = get_u64(p)? as usize;
    let browser = intern_browser(&get_str(p)?)?;
    let location_ip = get_str(p)?;
    // Strings are a length word and their bytes.
    let n_langs = get_len(p, 8)?;
    let mut languages = Vec::with_capacity(n_langs);
    for _ in 0..n_langs {
        languages.push(intern_language(&get_str(p)?)?);
    }
    let n_emails = get_len(p, 8)?;
    let mut emails = Vec::with_capacity(n_emails);
    for _ in 0..n_emails {
        emails.push(get_str(p)?);
    }
    let interests = get_tags(p)?;
    let study_at = if take_u8(p)? == 1 {
        Some(StudyAt { university: OrganisationId(get_u64(p)?), class_year: get_i64(p)? as i32 })
    } else {
        None
    };
    let n_work = get_len(p, 16)?;
    let mut work_at = Vec::with_capacity(n_work);
    for _ in 0..n_work {
        work_at
            .push(WorkAt { company: OrganisationId(get_u64(p)?), work_from: get_i64(p)? as i32 });
    }
    Some(Person {
        id,
        first_name,
        last_name,
        gender,
        birthday,
        creation_date,
        city,
        country,
        browser,
        location_ip,
        languages,
        emails,
        interests,
        study_at,
        work_at,
    })
}

fn take_u8(p: &mut &[u8]) -> Option<u8> {
    let (&b, rest) = p.split_first()?;
    *p = rest;
    Some(b)
}

/// Encode one update operation in the versioned binary format (without
/// the WAL's record framing).
pub fn encode_update(op: &UpdateOp, buf: &mut Vec<u8>) {
    match op {
        UpdateOp::AddPerson(p) => {
            buf.push(1);
            encode_person(p, buf);
        }
        UpdateOp::AddPostLike(l) => {
            buf.push(2);
            encode_like(l, buf);
        }
        UpdateOp::AddCommentLike(l) => {
            buf.push(3);
            encode_like(l, buf);
        }
        UpdateOp::AddForum(f) => {
            buf.push(4);
            put_u64(buf, f.id.raw());
            put_str(buf, &f.title);
            put_u64(buf, f.moderator.raw());
            put_i64(buf, f.creation_date.millis());
            put_tags(buf, &f.tags);
            buf.push(match f.kind {
                ForumKind::Wall => 0,
                ForumKind::Group => 1,
                ForumKind::Album => 2,
            });
        }
        UpdateOp::AddMembership(m) => {
            buf.push(5);
            put_u64(buf, m.forum.raw());
            put_u64(buf, m.person.raw());
            put_i64(buf, m.join_date.millis());
        }
        UpdateOp::AddPost(post) => {
            buf.push(6);
            put_u64(buf, post.id.raw());
            put_u64(buf, post.author.raw());
            put_u64(buf, post.forum.raw());
            put_i64(buf, post.creation_date.millis());
            put_str(buf, &post.content);
            match &post.image_file {
                Some(f) => {
                    buf.push(1);
                    put_str(buf, f);
                }
                None => buf.push(0),
            }
            put_tags(buf, &post.tags);
            put_str(buf, post.language);
            put_u64(buf, post.country as u64);
        }
        UpdateOp::AddComment(c) => {
            buf.push(7);
            put_u64(buf, c.id.raw());
            put_u64(buf, c.author.raw());
            put_i64(buf, c.creation_date.millis());
            put_str(buf, &c.content);
            put_u64(buf, c.reply_to.raw());
            put_u64(buf, c.root_post.raw());
            put_u64(buf, c.forum.raw());
            put_tags(buf, &c.tags);
            put_u64(buf, c.country as u64);
        }
        UpdateOp::AddFriendship(k) => {
            buf.push(8);
            put_u64(buf, k.a.raw());
            put_u64(buf, k.b.raw());
            put_i64(buf, k.creation_date.millis());
        }
    }
}

fn encode_like(l: &Like, buf: &mut Vec<u8>) {
    put_u64(buf, l.person.raw());
    put_u64(buf, l.message.raw());
    put_i64(buf, l.creation_date.millis());
}

fn decode_like(p: &mut &[u8]) -> Option<Like> {
    Some(Like {
        person: PersonId(get_u64(p)?),
        message: MessageId(get_u64(p)?),
        creation_date: SimTime(get_i64(p)?),
    })
}

/// Decode one update operation encoded by [`encode_update`], advancing
/// `p` past it. `None` on truncation, a length the input cannot hold, or
/// an unknown dictionary reference.
pub fn decode_update(p: &mut &[u8]) -> Option<UpdateOp> {
    match take_u8(p)? {
        1 => Some(UpdateOp::AddPerson(decode_person(p)?)),
        2 => Some(UpdateOp::AddPostLike(decode_like(p)?)),
        3 => Some(UpdateOp::AddCommentLike(decode_like(p)?)),
        4 => {
            let id = ForumId(get_u64(p)?);
            let title = get_str(p)?;
            let moderator = PersonId(get_u64(p)?);
            let creation_date = SimTime(get_i64(p)?);
            let tags = get_tags(p)?;
            let kind = match take_u8(p)? {
                0 => ForumKind::Wall,
                1 => ForumKind::Group,
                _ => ForumKind::Album,
            };
            Some(UpdateOp::AddForum(Forum { id, title, moderator, creation_date, tags, kind }))
        }
        5 => Some(UpdateOp::AddMembership(ForumMembership {
            forum: ForumId(get_u64(p)?),
            person: PersonId(get_u64(p)?),
            join_date: SimTime(get_i64(p)?),
        })),
        6 => {
            let id = MessageId(get_u64(p)?);
            let author = PersonId(get_u64(p)?);
            let forum = ForumId(get_u64(p)?);
            let creation_date = SimTime(get_i64(p)?);
            let content = get_str(p)?;
            let image_file = if take_u8(p)? == 1 { Some(get_str(p)?) } else { None };
            let tags = get_tags(p)?;
            let language = intern_language(&get_str(p)?)?;
            let country = get_u64(p)? as usize;
            Some(UpdateOp::AddPost(Post {
                id,
                author,
                forum,
                creation_date,
                content,
                image_file,
                tags,
                language,
                country,
            }))
        }
        7 => Some(UpdateOp::AddComment(Comment {
            id: MessageId(get_u64(p)?),
            author: PersonId(get_u64(p)?),
            creation_date: SimTime(get_i64(p)?),
            content: get_str(p)?,
            reply_to: MessageId(get_u64(p)?),
            root_post: MessageId(get_u64(p)?),
            forum: ForumId(get_u64(p)?),
            tags: get_tags(p)?,
            country: get_u64(p)? as usize,
        })),
        8 => Some(UpdateOp::AddFriendship(Knows {
            a: PersonId(get_u64(p)?),
            b: PersonId(get_u64(p)?),
            creation_date: SimTime(get_i64(p)?),
        })),
        _ => None,
    }
}
