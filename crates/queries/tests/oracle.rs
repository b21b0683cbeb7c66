//! Hand-computed oracle: a small, fully specified graph where the exact
//! result of every complex query is derived on paper. The differential
//! tests (intended vs naive) cannot catch a bug present in *both* engines;
//! this fixture can.
//!
//! Topology (person ids / knows edges):
//!
//! ```text
//!   0 —— 1 —— 3 —— 5        6 —— 7      (6,7 disconnected from 0..5)
//!   |
//!   2 —— 4
//! ```
//!
//! Forum 0 is person 0's wall (members 0, 1, 2); forum 1 is a group of
//! persons 6, 7. Messages 0-6 and likes are laid out in the constants
//! below; all expected rows in the tests are derived by hand from them.

use snb_core::dict::names::Gender;
use snb_core::dict::Dictionaries;
use snb_core::schema::*;
use snb_core::time::SimTime;
use snb_core::update::UpdateOp;
use snb_core::{ForumId, MessageId, OrganisationId, PersonId, TagId};
use snb_queries::params::*;
use snb_queries::{complex, Engine};
use snb_store::Store;

/// Tag indices in the dictionary: the first country's four tags are
/// (music, football, politics, cuisine) of that country.
const T_MUSIC: u64 = 0; // class MusicalArtist
const T_SPORT: u64 = 1; // class Sport
const T_POLITICS: u64 = 2; // class Politician

fn person(id: u64, first_name: &'static str, birthday: SimTime) -> Person {
    Person {
        id: PersonId(id),
        first_name,
        last_name: "Muller",
        gender: Gender::Male,
        birthday,
        creation_date: SimTime(1_000 + id as i64),
        city: 0,
        country: 0,
        browser: "Chrome",
        location_ip: String::new(),
        languages: vec!["zh"],
        emails: vec![],
        interests: vec![TagId(T_MUSIC)],
        study_at: None,
        work_at: vec![],
    }
}

fn post(id: u64, author: u64, forum: u64, t: i64, tags: &[u64], country: usize) -> Post {
    Post {
        id: MessageId(id),
        author: PersonId(author),
        forum: ForumId(forum),
        creation_date: SimTime(t),
        content: format!("post {id}"),
        image_file: None,
        tags: tags.iter().map(|&t| TagId(t)).collect(),
        language: "zh",
        country,
    }
}

#[allow(clippy::too_many_arguments)]
fn comment(
    id: u64,
    author: u64,
    parent: u64,
    root: u64,
    forum: u64,
    t: i64,
    tags: &[u64],
    country: usize,
) -> Comment {
    Comment {
        id: MessageId(id),
        author: PersonId(author),
        creation_date: SimTime(t),
        content: format!("comment {id}"),
        reply_to: MessageId(parent),
        root_post: MessageId(root),
        forum: ForumId(forum),
        tags: tags.iter().map(|&t| TagId(t)).collect(),
        country,
    }
}

/// Build the oracle store through the transactional interface.
fn oracle_store() -> Store {
    let store = Store::new();
    let apply = |op: UpdateOp| store.apply(&op).expect("oracle insert");

    // Persons. Q1 searches for "Karl" from person 0.
    let names = ["Hans", "Walter", "Karl", "Fritz", "Karl", "Karl", "Karl", "Paul"];
    for (id, name) in names.iter().enumerate() {
        // Birthdays: person 3 → Jun 25 (horoscope month 6, day ≥ 21),
        // person 4 → Jul 10 (month 7, day < 22); others in January.
        let birthday = match id {
            3 => SimTime::from_ymd(1985, 6, 25),
            4 => SimTime::from_ymd(1985, 7, 10),
            _ => SimTime::from_ymd(1985, 1, 5),
        };
        apply(UpdateOp::AddPerson(person(id as u64, name, birthday)));
    }
    // knows edges.
    for (a, b, t) in [
        (0u64, 1u64, 2_000i64),
        (0, 2, 2_100),
        (1, 3, 2_200),
        (2, 4, 2_300),
        (3, 5, 2_400),
        (6, 7, 2_500),
    ] {
        apply(UpdateOp::AddFriendship(Knows {
            a: PersonId(a),
            b: PersonId(b),
            creation_date: SimTime(t),
        }));
    }

    // Forums.
    apply(UpdateOp::AddForum(Forum {
        id: ForumId(0),
        title: "wall of 0".into(),
        moderator: PersonId(0),
        creation_date: SimTime(3_000),
        tags: vec![TagId(T_MUSIC)],
        kind: ForumKind::Wall,
    }));
    apply(UpdateOp::AddForum(Forum {
        id: ForumId(1),
        title: "group of 6".into(),
        moderator: PersonId(6),
        creation_date: SimTime(3_100),
        tags: vec![TagId(T_POLITICS)],
        kind: ForumKind::Group,
    }));
    for (forum, p, t) in
        [(0u64, 0u64, 3_000i64), (0, 1, 3_050), (0, 2, 3_060), (1, 6, 3_100), (1, 7, 3_110)]
    {
        apply(UpdateOp::AddMembership(ForumMembership {
            forum: ForumId(forum),
            person: PersonId(p),
            join_date: SimTime(t),
        }));
    }

    // Messages (ids dense, creation-ordered).
    apply(UpdateOp::AddPost(post(0, 1, 0, 4_000, &[T_MUSIC, T_SPORT], 3)));
    apply(UpdateOp::AddPost(post(1, 2, 0, 4_100, &[T_SPORT, T_POLITICS], 5)));
    apply(UpdateOp::AddPost(post(2, 0, 0, 4_200, &[T_MUSIC], 0)));
    apply(UpdateOp::AddPost(post(3, 6, 1, 4_300, &[T_POLITICS], 0)));
    apply(UpdateOp::AddComment(comment(4, 2, 0, 0, 0, 4_400, &[T_MUSIC], 0)));
    apply(UpdateOp::AddComment(comment(5, 0, 4, 0, 0, 4_500, &[], 0)));
    apply(UpdateOp::AddComment(comment(6, 1, 2, 2, 0, 4_600, &[], 5)));

    // Likes.
    for (p, m, t) in [(2u64, 2u64, 5_000i64), (1, 2, 5_100), (0, 0, 5_200)] {
        apply(UpdateOp::AddPostLike(Like {
            person: PersonId(p),
            message: MessageId(m),
            creation_date: SimTime(t),
        }));
    }
    store
}

fn both<T: PartialEq + std::fmt::Debug>(run: impl Fn(Engine) -> T) -> T {
    let a = run(Engine::Intended);
    let b = run(Engine::Naive);
    assert_eq!(a, b, "engines disagree on the oracle graph");
    a
}

#[test]
fn q1_finds_karls_by_distance() {
    let store = oracle_store();
    let snap = store.pinned();
    let rows = both(|e| {
        complex::q1::run(&snap, e, &Q1Params { person: PersonId(0), first_name: "Karl".into() })
    });
    // Karls reachable from 0 within 3 hops: 2 (d1), 4 (d2), 5 (d3).
    // Person 6 is a Karl but unreachable.
    let got: Vec<(u64, u32)> = rows.iter().map(|r| (r.person.raw(), r.distance)).collect();
    assert_eq!(got, vec![(2, 1), (4, 2), (5, 3)]);
}

#[test]
fn q2_returns_friend_messages_newest_first() {
    let store = oracle_store();
    let snap = store.pinned();
    let rows = both(|e| {
        complex::q2::run(&snap, e, &Q2Params { person: PersonId(0), max_date: SimTime(5_000) })
    });
    // Friends of 0 = {1, 2}. Their messages ≤ 5000:
    // msg6 (by 1, 4600), msg4 (by 2, 4400), msg1 (by 2, 4100), msg0 (by 1, 4000).
    let got: Vec<u64> = rows.iter().map(|r| r.message.raw()).collect();
    assert_eq!(got, vec![6, 4, 1, 0]);
}

#[test]
fn q3_requires_messages_from_both_foreign_countries() {
    let store = oracle_store();
    let snap = store.pinned();
    let rows = both(|e| {
        complex::q3::run(
            &snap,
            e,
            &Q3Params {
                person: PersonId(0),
                country_x: 3,
                country_y: 5,
                start: SimTime(3_900),
                duration_days: 1, // window [3900, 3900 + 86400000)
            },
        )
    });
    // In-window messages from country 3: msg0 (person 1); from country 5:
    // msg1 (person 2) and msg6 (person 1). Only person 1 has both.
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0].person, PersonId(1));
    assert_eq!((rows[0].x_count, rows[0].y_count), (1, 1));
}

#[test]
fn q4_reports_only_new_topics() {
    let store = oracle_store();
    let snap = store.pinned();
    let rows = both(|e| {
        complex::q4::run(
            &snap,
            e,
            &Q4Params { person: PersonId(0), start: SimTime(4_050), duration_days: 1 },
        )
    });
    // Friend posts in-window: msg1 (tags sport, politics). Before the
    // window: msg0 (music, sport). Sport is old news; politics is new.
    let dicts = Dictionaries::global();
    let politics = dicts.tags.tag(T_POLITICS as usize).name.clone();
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0].tag, politics);
    assert_eq!(rows[0].count, 1);
}

#[test]
fn q5_counts_posts_of_recent_joiners() {
    let store = oracle_store();
    let snap = store.pinned();
    let rows = both(|e| {
        complex::q5::run(&snap, e, &Q5Params { person: PersonId(0), min_date: SimTime(3_040) })
    });
    // 2-hop circle of 0 = {1, 2, 3, 4}. Joins after 3040: 1 and 2 into
    // forum 0. Posts in forum 0 by {1, 2}: msg0, msg1 -> count 2.
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0].forum, ForumId(0));
    assert_eq!(rows[0].count, 2);
}

#[test]
fn q6_counts_cooccurring_tags_on_posts() {
    let store = oracle_store();
    let snap = store.pinned();
    let rows = both(|e| {
        complex::q6::run(&snap, e, &Q6Params { person: PersonId(0), tag: T_MUSIC as usize })
    });
    // Posts by the 2-hop circle with the music tag: msg0 (music, sport).
    // (msg2 is by person 0 — excluded; msg4 is a comment.)
    let dicts = Dictionaries::global();
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0].tag, dicts.tags.tag(T_SPORT as usize).name);
    assert_eq!(rows[0].count, 1);
}

#[test]
fn q7_returns_latest_like_per_liker() {
    let store = oracle_store();
    let snap = store.pinned();
    let rows = both(|e| complex::q7::run(&snap, e, &Q7Params { person: PersonId(0) }));
    // Likes on 0's messages (msg2, msg5): person 2 @5000, person 1 @5100.
    let got: Vec<(u64, i64)> = rows.iter().map(|r| (r.liker.raw(), r.like_date.millis())).collect();
    assert_eq!(got, vec![(1, 5_100), (2, 5_000)]);
    // Both likers are direct friends -> not "new".
    assert!(rows.iter().all(|r| !r.is_new));
}

#[test]
fn q8_returns_most_recent_replies() {
    let store = oracle_store();
    let snap = store.pinned();
    let rows = both(|e| complex::q8::run(&snap, e, &Q8Params { person: PersonId(0) }));
    // Replies to 0's messages: msg6 replies msg2 (0's post). msg5 is BY 0.
    let got: Vec<(u64, u64)> = rows.iter().map(|r| (r.comment.raw(), r.commenter.raw())).collect();
    assert_eq!(got, vec![(6, 1)]);
}

#[test]
fn q9_returns_two_hop_messages_before_date() {
    let store = oracle_store();
    let snap = store.pinned();
    let rows = both(|e| {
        complex::q9::run(&snap, e, &Q9Params { person: PersonId(0), max_date: SimTime(4_450) })
    });
    // 2-hop = {1,2,3,4}; messages ≤ 4450: msg4 (4400), msg1 (4100), msg0 (4000).
    let got: Vec<u64> = rows.iter().map(|r| r.message.raw()).collect();
    assert_eq!(got, vec![4, 1, 0]);
}

#[test]
fn q10_filters_by_horoscope_and_scores_posts() {
    let store = oracle_store();
    let snap = store.pinned();
    let rows = both(|e| complex::q10::run(&snap, e, &Q10Params { person: PersonId(0), month: 6 }));
    // Strict friends-of-friends of 0: {3, 4}. Horoscope month 6 accepts
    // person 3 (Jun 25) and person 4 (Jul 10 < 22). Neither has posts, so
    // both score 0; ties break by id.
    let got: Vec<(u64, i64)> = rows.iter().map(|r| (r.person.raw(), r.score)).collect();
    assert_eq!(got, vec![(3, 0), (4, 0)]);
}

#[test]
fn q11_finds_employment_in_country() {
    // Person 3 gets a job at the first company of country 0, then the store
    // is rebuilt with that row (work_at is set at insert time).
    let dicts = Dictionaries::global();
    let company = dicts.orgs.companies_in_country(0)[0];
    let store = Store::new();
    let mut p3 = person(3, "Fritz", SimTime::from_ymd(1985, 6, 25));
    p3.work_at = vec![WorkAt { company: OrganisationId(company as u64), work_from: 2005 }];
    // Minimal subgraph: 0 - 1 - 3.
    store.apply(&UpdateOp::AddPerson(person(0, "Hans", SimTime::from_ymd(1985, 1, 5)))).unwrap();
    store.apply(&UpdateOp::AddPerson(person(1, "Walter", SimTime::from_ymd(1985, 1, 5)))).unwrap();
    store.apply(&UpdateOp::AddPerson(p3)).unwrap();
    store
        .apply(&UpdateOp::AddFriendship(Knows {
            a: PersonId(0),
            b: PersonId(1),
            creation_date: SimTime(2_000),
        }))
        .unwrap();
    store
        .apply(&UpdateOp::AddFriendship(Knows {
            a: PersonId(1),
            b: PersonId(3),
            creation_date: SimTime(2_200),
        }))
        .unwrap();
    let snap = store.pinned();
    let rows = both(|e| {
        complex::q11::run(&snap, e, &Q11Params { person: PersonId(0), country: 0, max_year: 2013 })
    });
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0].person, PersonId(3));
    assert_eq!(rows[0].work_from, 2005);
    assert_eq!(rows[0].company, dicts.orgs.company(company).name);
    // A tighter year bound excludes it.
    let none = both(|e| {
        complex::q11::run(&snap, e, &Q11Params { person: PersonId(0), country: 0, max_year: 2005 })
    });
    assert!(none.is_empty());
}

#[test]
fn q12_counts_expert_replies_to_tagged_posts() {
    let store = oracle_store();
    let snap = store.pinned();
    let dicts = Dictionaries::global();
    let music_class = dicts.tags.tag(T_MUSIC as usize).class;
    let rows = both(|e| {
        complex::q12::run(&snap, e, &Q12Params { person: PersonId(0), tag_class: music_class })
    });
    // Friends of 0 = {1, 2}. Comments whose direct parent is a post with a
    // music-class tag: msg4 (by 2, parent msg0: music+sport) and msg6
    // (by 1, parent msg2: music). One each; ties by id.
    let got: Vec<(u64, u32)> = rows.iter().map(|r| (r.person.raw(), r.count)).collect();
    assert_eq!(got, vec![(1, 1), (2, 1)]);
}

#[test]
fn q13_and_q14_agree_with_the_drawn_topology() {
    let store = oracle_store();
    let snap = store.pinned();
    let d = |x: u64, y: u64| {
        both(|e| {
            complex::q13::run(&snap, e, &Q13Params { person_x: PersonId(x), person_y: PersonId(y) })
        })
    };
    assert_eq!(d(0, 0), 0);
    assert_eq!(d(0, 1), 1);
    assert_eq!(d(0, 4), 2);
    assert_eq!(d(0, 5), 3);
    assert_eq!(d(0, 6), -1);

    let rows = both(|e| {
        complex::q14::run(&snap, e, &Q14Params { person_x: PersonId(0), person_y: PersonId(4) })
    });
    // Single shortest path 0-2-4. Interactions: msg5 (by 0) replies msg4
    // (comment by 2) -> pair (0,2) weight 0.5; no (2,4) interactions.
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0].path, vec![PersonId(0), PersonId(2), PersonId(4)]);
    assert_eq!(rows[0].weight, 0.5);
}

/// Q5 from person 0 as `(forum, count)`, both engines agreeing.
fn q5_counts(store: &Store, min_date: i64) -> Vec<(u64, u32)> {
    let snap = store.pinned();
    let p = Q5Params { person: PersonId(0), min_date: SimTime(min_date) };
    both(|e| complex::q5::run(&snap, e, &p)).iter().map(|r| (r.forum.raw(), r.count)).collect()
}

fn join(store: &Store, forum: u64, person: u64, t: i64) {
    store
        .apply(&UpdateOp::AddMembership(ForumMembership {
            forum: ForumId(forum),
            person: PersonId(person),
            join_date: SimTime(t),
        }))
        .expect("oracle join");
}

#[test]
fn q5_joiner_without_posts_yields_a_count_zero_row() {
    // Person 3 (two hops from 0, no messages at all) joins forum 1 after
    // the cutoff: forum 1 is a row with count 0, ranked after forum 0.
    let store = oracle_store();
    join(&store, 1, 3, 3_200);
    assert_eq!(q5_counts(&store, 3_040), vec![(0, 2), (1, 0)]);
}

#[test]
fn q5_join_dated_exactly_min_date_is_excluded() {
    // Person 1 joined forum 0 at exactly 3050: "after" is strict, so only
    // person 2 (joined 3060) counts, with msg1.
    let store = oracle_store();
    assert_eq!(q5_counts(&store, 3_050), vec![(0, 1)]);
}

#[test]
fn q5_posts_in_forums_joined_before_min_date_do_not_count() {
    // Cutoff 3055. Person 3 joins forum 0 at 3045 — before the cutoff —
    // and posts there (msg7); their only later join is forum 1, where they
    // never post. msg7 does not count, although forum 0 is a result row
    // through person 2 (joined 3060, msg1).
    let store = oracle_store();
    join(&store, 0, 3, 3_045);
    join(&store, 1, 3, 3_200);
    store.apply(&UpdateOp::AddPost(post(7, 3, 0, 4_700, &[], 0))).expect("oracle insert");
    assert_eq!(q5_counts(&store, 3_055), vec![(0, 1), (1, 0)]);
}

const DAY_MS: i64 = 86_400_000;

/// Q3 from person 0 for countries 3 and 5 over `[start, start + 1 day)`
/// as `(person, x_count, y_count)`, both engines agreeing.
fn q3_rows(store: &Store, start: i64) -> Vec<(u64, u32, u32)> {
    let snap = store.pinned();
    let p = Q3Params {
        person: PersonId(0),
        country_x: 3,
        country_y: 5,
        start: SimTime(start),
        duration_days: 1,
    };
    both(|e| complex::q3::run(&snap, e, &p))
        .iter()
        .map(|r| (r.person.raw(), r.x_count, r.y_count))
        .collect()
}

#[test]
fn q3_message_dated_exactly_start_counts() {
    // Window [4000, 4000 + 1 day): msg0 (4000, country 3) is in, and msg6
    // (4600, country 5) completes person 1's pair. One millisecond later
    // msg0 falls before the window and the pair is gone.
    let store = oracle_store();
    assert_eq!(q3_rows(&store, 4_000), vec![(1, 1, 1)]);
    assert!(q3_rows(&store, 4_001).is_empty());
}

#[test]
fn q3_message_dated_exactly_end_does_not_count() {
    // Window ending at exactly 4600 drops msg6 (person 1's only country-5
    // message); ending one millisecond later keeps it.
    let store = oracle_store();
    assert!(q3_rows(&store, 4_600 - DAY_MS).is_empty());
    assert_eq!(q3_rows(&store, 4_601 - DAY_MS), vec![(1, 1, 1)]);
}

#[test]
fn q3_counts_in_window_messages_applied_after_the_bulk_load() {
    // A bulk-loaded friend `c` with bulk messages before, inside and after
    // a one-day window, plus posts applied afterwards: they sit in the
    // index's ladder tail, merged into the date order the scan stops on.
    let ds = snb_datagen::generate(
        snb_datagen::GeneratorConfig::with_persons(120).activity(0.4).seed(5),
    )
    .unwrap();
    let store = Store::new();
    store.bulk_load(&ds);
    let bulk_snap = store.pinned();
    let (p, c, start) = (0..ds.persons.len() as u64)
        .flat_map(|p| bulk_snap.friends_iter(PersonId(p)).map(move |(c, _)| (p, c)))
        .find_map(|(p, c)| {
            let msgs = bulk_snap.messages_of_iter(PersonId(c)).collect::<Vec<_>>();
            let start = msgs.get(msgs.len() / 2)?.1;
            (msgs.len() >= 3 && msgs.last()?.1.millis() > start.millis() + DAY_MS)
                .then_some((p, c, start))
        })
        .expect("a friend with messages spread over more than a day");
    drop(bulk_snap);
    let end = start.plus_days(1);
    let home = ds.persons[c as usize].country;
    let mut foreign = (0..).filter(|&k| k != home);
    let (x, y) = (foreign.next().unwrap(), foreign.next().unwrap());
    let ids = ds.posts.iter().map(|m| m.id).chain(ds.comments.iter().map(|m| m.id));
    let next_id = ids.map(|id| id.raw()).max().unwrap() + 1;
    let applied = [(start.millis() + 1, x), (start.millis() + 2, y), (end.millis(), x)];
    for (i, (t, country)) in applied.into_iter().enumerate() {
        store
            .apply(&UpdateOp::AddPost(post(
                next_id + i as u64,
                c,
                ds.forums[0].id.raw(),
                t,
                &[],
                country,
            )))
            .unwrap();
    }
    let snap = store.pinned();
    // Expected counts from the dataset and the applied posts, not the
    // store: `c`'s bulk-loaded messages plus the three above.
    let split = ds.config.update_split;
    let posts = ds.posts.iter().map(|m| (m.author, m.creation_date, m.country));
    let comments = ds.comments.iter().map(|m| (m.author, m.creation_date, m.country));
    let bulk = posts
        .chain(comments)
        .filter(|&(a, d, _)| a == PersonId(c) && d <= split)
        .map(|(_, d, country)| (d, country));
    let (mut ex, mut ey) = (0, 0);
    for (date, country) in bulk.chain(applied.map(|(t, country)| (SimTime(t), country))) {
        if date >= start && date < end {
            ex += u32::from(country == x);
            ey += u32::from(country == y);
        }
    }
    assert!(ex >= 1 && ey >= 1);
    let q = Q3Params { person: PersonId(p), country_x: x, country_y: y, start, duration_days: 1 };
    let rows = both(|e| complex::q3::run(&snap, e, &q));
    let row = rows.iter().find(|r| r.person == PersonId(c)).expect("c is a row");
    assert_eq!((row.x_count, row.y_count), (ex, ey));
}

mod short_reads {
    use super::*;
    use snb_queries::short;

    #[test]
    fn s1_profile_matches_inserted_person() {
        let store = oracle_store();
        let snap = store.pinned();
        let row = short::s1_profile(&snap, PersonId(2)).unwrap();
        assert_eq!(row.first_name, "Karl");
        assert_eq!(row.last_name, "Muller");
        assert_eq!(row.creation_date, SimTime(1_002));
    }

    #[test]
    fn s2_threads_resolve_to_root_posts() {
        let store = oracle_store();
        let snap = store.pinned();
        // Person 2's messages: msg1 (post, 4100) and msg4 (comment on msg0).
        let rows = short::s2_recent_messages(&snap, PersonId(2));
        let got: Vec<(u64, u64, u64)> = rows
            .iter()
            .map(|r| (r.message.raw(), r.root_post.raw(), r.root_author.raw()))
            .collect();
        // Newest first: msg4 roots at msg0 (author 1); msg1 roots at itself.
        assert_eq!(got, vec![(4, 0, 1), (1, 1, 2)]);
    }

    #[test]
    fn s3_friends_are_date_ordered() {
        let store = oracle_store();
        let snap = store.pinned();
        // Person 0 befriended 1 @2000 and 2 @2100 -> newest first: 2, 1.
        let rows = short::s3_friends(&snap, PersonId(0));
        let got: Vec<(u64, i64)> = rows.iter().map(|&(p, d)| (p.raw(), d.millis())).collect();
        assert_eq!(got, vec![(2, 2_100), (1, 2_000)]);
    }

    #[test]
    fn s4_s5_s6_resolve_the_comment_chain() {
        let store = oracle_store();
        let snap = store.pinned();
        // msg5 is 0's comment deep in msg0's thread (forum 0, moderator 0).
        let (content, date) = short::s4_message(&snap, MessageId(5)).unwrap();
        assert_eq!(content, "comment 5");
        assert_eq!(date, SimTime(4_500));
        assert_eq!(short::s5_creator(&snap, MessageId(5)), Some(PersonId(0)));
        let (forum, title, moderator) = short::s6_forum(&snap, MessageId(5)).unwrap();
        assert_eq!(forum, ForumId(0));
        assert_eq!(title, "wall of 0");
        assert_eq!(moderator, PersonId(0));
    }

    #[test]
    fn s7_replies_carry_the_knows_flag() {
        let store = oracle_store();
        let snap = store.pinned();
        // Replies to msg0 (by person 1): msg4 by person 2. 1 and 2 are NOT
        // friends (only 0-1 and 0-2 edges exist).
        let rows = short::s7_replies(&snap, MessageId(0));
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].comment, MessageId(4));
        assert_eq!(rows[0].author, PersonId(2));
        assert!(!rows[0].knows_original_author);
        // Replies to msg4 (by person 2): msg5 by person 0 — who DOES know 2.
        let rows = short::s7_replies(&snap, MessageId(4));
        assert_eq!(rows.len(), 1);
        assert!(rows[0].knows_original_author);
    }
}
