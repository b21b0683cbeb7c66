//! Barrier stress test for the latch-free concurrent read/write path
//! (PR 5): N writer threads apply disjoint update streams while M pinned
//! readers run Q2/Q6/S2 against the same store. Asserts three things the
//! tentpole promises:
//!
//! 1. a pinned reader never blocks `apply` — the writers finish while
//!    readers hold long-lived pins (under the old guard-holding pin this
//!    test deadlocks on the first reader/writer overlap);
//! 2. no reader ever observes a partially published transaction — every
//!    visible index entry resolves to a visible row (each stream creates
//!    its referents before referencing them, so a visible edge with an
//!    invisible endpoint could only mean torn publication);
//! 3. the final concurrent state is pointwise identical to the same
//!    streams applied serially. The store is insert-only, reads sort by
//!    `(date, id)`, and dates are fixed per op, so the serial apply order
//!    (any dependency-respecting order, commit-ts order included) cannot
//!    change the final state — which is exactly what makes this oracle
//!    valid.

use snb_core::dict::names::Gender;
use snb_core::schema::{Comment, Forum, ForumKind, Knows, Like, Person, Post};
use snb_core::time::SimTime;
use snb_core::update::UpdateOp;
use snb_core::{ForumId, MessageId, PersonId, TagId};
use snb_queries::params::{Q2Params, Q6Params};
use snb_queries::{complex, short, Engine};
use snb_store::Store;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Barrier;

const WRITERS: usize = 4;
const READERS: usize = 2;
/// Persons per writer stream; each also creates 2 forums, ~3 messages and
/// ~2 likes per person.
const PERSONS_PER_WRITER: u64 = 12;

fn person(id: u64, t: i64) -> Person {
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
        location_ip: String::new(),
        languages: vec!["de"],
        emails: vec![],
        interests: vec![TagId(1)],
        study_at: None,
        work_at: vec![],
    }
}

/// One writer's self-contained stream: every op references only entities
/// created earlier in the same stream, so streams commute across threads.
fn stream(base: u64) -> Vec<UpdateOp> {
    let mut ops = Vec::new();
    let mut t = base as i64; // distinct dates per stream, fixed per op
    let mut date = move || {
        t += 1;
        SimTime(t)
    };
    for i in 0..PERSONS_PER_WRITER {
        ops.push(UpdateOp::AddPerson(person(base + i, date().0)));
        if i > 0 {
            ops.push(UpdateOp::AddFriendship(Knows {
                a: PersonId(base + i - 1),
                b: PersonId(base + i),
                creation_date: date(),
            }));
        }
    }
    for f in 0..2u64 {
        ops.push(UpdateOp::AddForum(Forum {
            id: ForumId(base + f),
            title: "group".into(),
            moderator: PersonId(base),
            creation_date: date(),
            tags: vec![TagId(1)],
            kind: ForumKind::Group,
        }));
    }
    let mut messages = Vec::new();
    for i in 0..PERSONS_PER_WRITER {
        let author = PersonId(base + i);
        let forum = ForumId(base + i % 2);
        let post_id = base + i * 3;
        ops.push(UpdateOp::AddPost(Post {
            id: MessageId(post_id),
            author,
            forum,
            creation_date: date(),
            content: "hello".into(),
            image_file: None,
            tags: vec![TagId(1)],
            language: "de",
            country: 0,
        }));
        messages.push(post_id);
        ops.push(UpdateOp::AddComment(Comment {
            id: MessageId(post_id + 1),
            author: PersonId(base + (i + 1) % PERSONS_PER_WRITER),
            creation_date: date(),
            content: "re".into(),
            reply_to: MessageId(post_id),
            root_post: MessageId(post_id),
            forum,
            tags: vec![],
            country: 0,
        }));
        messages.push(post_id + 1);
        ops.push(UpdateOp::AddPostLike(Like {
            person: PersonId(base + (i + 2) % PERSONS_PER_WRITER),
            message: MessageId(post_id),
            creation_date: date(),
        }));
    }
    ops
}

fn fixture_dataset() -> snb_datagen::Dataset {
    snb_datagen::generate(snb_datagen::GeneratorConfig::with_persons(120).activity(0.3).seed(23))
        .unwrap()
}

/// Entity-id window base for writer `w`, placed past every dataset id.
fn writer_base(ds: &snb_datagen::Dataset, w: usize) -> u64 {
    let persons = ds.persons.iter().map(|p| p.id.raw()).max().unwrap_or(0);
    let forums = ds.forums.iter().map(|f| f.id.raw()).max().unwrap_or(0);
    let posts = ds.posts.iter().map(|p| p.id.raw()).max().unwrap_or(0);
    let comments = ds.comments.iter().map(|c| c.id.raw()).max().unwrap_or(0);
    let floor = persons.max(forums).max(posts).max(comments) + 1;
    floor + (w as u64) * 64
}

#[test]
fn concurrent_writers_and_pinned_readers() {
    let ds = fixture_dataset();
    let store = Store::new();
    store.bulk_load(&ds);
    let streams: Vec<Vec<UpdateOp>> = (0..WRITERS).map(|w| stream(writer_base(&ds, w))).collect();
    let bases: Vec<u64> = (0..WRITERS).map(|w| writer_base(&ds, w)).collect();

    // A pin held across the whole concurrent phase: it must stay frozen
    // and must not stop a single writer from committing.
    let long_pin = store.pinned();
    let pre_write_slots = long_pin.person_slots();

    let start = Barrier::new(WRITERS + READERS);
    let done = AtomicBool::new(false);
    let reads_done = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for ops in &streams {
            let (store, start) = (&store, &start);
            scope.spawn(move || {
                start.wait();
                for op in ops {
                    store.apply(op).expect("disjoint stream op must commit");
                }
            });
        }
        for r in 0..READERS {
            let (store, start, done, reads_done) = (&store, &start, &done, &reads_done);
            let bases = &bases;
            scope.spawn(move || {
                start.wait();
                let mut last_ts = 0;
                let mut rounds = 0u64;
                while !done.load(Ordering::Acquire) || rounds == 0 {
                    let pin = store.pinned();
                    assert!(pin.ts() >= last_ts, "snapshot horizon went backwards");
                    last_ts = pin.ts();
                    // Q2/Q6/S2 on dataset persons plus this round's writer
                    // window: both engines must agree mid-write, and
                    // running them twice on one pin must be deterministic.
                    let p = PersonId((rounds * 7 + r as u64) % 120);
                    let q2 = Q2Params { person: p, max_date: SimTime(i64::MAX) };
                    let first = complex::q2::run(&pin, Engine::Intended, &q2);
                    assert_eq!(first, complex::q2::run(&pin, Engine::Naive, &q2));
                    assert_eq!(first, complex::q2::run(&pin, Engine::Intended, &q2));
                    let q6 = Q6Params { person: p, tag: 1 };
                    assert_eq!(
                        complex::q6::run(&pin, Engine::Intended, &q6),
                        complex::q6::run(&pin, Engine::Naive, &q6)
                    );
                    let s2 = short::s2_recent_messages(&pin, p);
                    assert_eq!(s2, short::s2_recent_messages(&pin, p));
                    // Torn-publication check over the writer windows: every
                    // visible index entry must resolve to a visible row.
                    for &base in bases {
                        for i in 0..PERSONS_PER_WRITER {
                            let pid = PersonId(base + i);
                            for (friend, _) in pin.friends_iter(pid) {
                                assert!(
                                    pin.person_ref(PersonId(friend)).is_some(),
                                    "visible edge to invisible person {friend}"
                                );
                            }
                            for (msg, _) in pin.messages_of_iter(pid) {
                                assert!(
                                    pin.message_ref(MessageId(msg)).is_some(),
                                    "visible authorship of invisible message {msg}"
                                );
                            }
                            for (msg, _) in pin.likes_by_iter(pid) {
                                assert!(
                                    pin.message_ref(MessageId(msg)).is_some(),
                                    "visible like of invisible message {msg}"
                                );
                            }
                        }
                    }
                    reads_done.fetch_add(1, Ordering::Relaxed);
                    rounds += 1;
                }
            });
        }
        // Writers are the first WRITERS spawned handles; the scope joins
        // everything, so flip `done` once all writer ops are visible.
        let total_ops: usize = streams.iter().map(Vec::len).sum();
        while (store.counters().commits() as usize) < total_ops {
            std::thread::yield_now();
        }
        done.store(true, Ordering::Release);
    });
    assert!(reads_done.load(Ordering::Relaxed) > 0, "readers never completed a round");

    // The long pin stayed frozen at its snapshot horizon even though every
    // writer committed underneath it. (Slot high-water marks are scan
    // bounds, not visibility facts — they may grow under a live pin, but
    // every row committed after the pin stays invisible to it.)
    assert!(long_pin.person_slots() >= pre_write_slots);
    for &base in &bases {
        for i in 0..PERSONS_PER_WRITER {
            assert!(
                long_pin.person_ref(PersonId(base + i)).is_none(),
                "post-pin commit leaked into a held pin"
            );
        }
    }

    // Final-state oracle: the same streams applied serially (stream order;
    // see the module doc for why any dependency-respecting order gives the
    // same final state as commit-ts order).
    let serial = Store::new();
    serial.bulk_load(&ds);
    for ops in &streams {
        for op in ops {
            serial.apply(op).unwrap();
        }
    }
    let a = store.pinned();
    let b = serial.pinned();
    assert_eq!(a.person_slots(), b.person_slots());
    assert_eq!(a.forum_slots(), b.forum_slots());
    assert_eq!(a.message_slots(), b.message_slots());
    for i in 0..a.person_slots() as u64 {
        let p = PersonId(i);
        assert_eq!(
            a.friends_iter(p).collect::<Vec<_>>(),
            b.friends_iter(p).collect::<Vec<_>>(),
            "friends of {p}"
        );
        assert_eq!(
            a.messages_of_iter(p).collect::<Vec<_>>(),
            b.messages_of_iter(p).collect::<Vec<_>>(),
            "messages of {p}"
        );
        assert_eq!(
            a.forums_of_iter(p).collect::<Vec<_>>(),
            b.forums_of_iter(p).collect::<Vec<_>>(),
            "forums of {p}"
        );
        assert_eq!(
            a.likes_by_iter(p).collect::<Vec<_>>(),
            b.likes_by_iter(p).collect::<Vec<_>>(),
            "likes by {p}"
        );
        assert_eq!(format!("{:?}", a.person_ref(p)), format!("{:?}", b.person_ref(p)));
    }
    for i in 0..a.forum_slots() as u64 {
        let f = ForumId(i);
        assert_eq!(
            a.posts_in_forum_iter(f).collect::<Vec<_>>(),
            b.posts_in_forum_iter(f).collect::<Vec<_>>(),
            "posts in {f}"
        );
        assert_eq!(
            a.members_of_iter(f).collect::<Vec<_>>(),
            b.members_of_iter(f).collect::<Vec<_>>(),
            "members of {f}"
        );
    }
    for i in 0..a.message_slots() as u64 {
        let m = MessageId(i);
        assert_eq!(
            a.replies_of_iter(m).collect::<Vec<_>>(),
            b.replies_of_iter(m).collect::<Vec<_>>(),
            "replies of {m}"
        );
        assert_eq!(
            a.likes_of_iter(m).collect::<Vec<_>>(),
            b.likes_of_iter(m).collect::<Vec<_>>(),
            "likes of {m}"
        );
        assert_eq!(format!("{:?}", a.message_ref(m)), format!("{:?}", b.message_ref(m)));
    }
    // And the three stressed queries agree on the final states too.
    for i in (0..120u64).step_by(17) {
        let p = PersonId(i);
        let q2 = Q2Params { person: p, max_date: SimTime(i64::MAX) };
        assert_eq!(
            complex::q2::run(&a, Engine::Intended, &q2),
            complex::q2::run(&b, Engine::Intended, &q2)
        );
        let q6 = Q6Params { person: p, tag: 1 };
        assert_eq!(
            complex::q6::run(&a, Engine::Intended, &q6),
            complex::q6::run(&b, Engine::Intended, &q6)
        );
        assert_eq!(short::s2_recent_messages(&a, p), short::s2_recent_messages(&b, p));
    }
}
