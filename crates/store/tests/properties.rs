//! Property-based tests for the store: model-checked MVCC visibility and
//! WAL roundtrips under arbitrary operation interleavings.

use proptest::prelude::*;
use snb_core::dict::names::Gender;
use snb_core::schema::{Comment, Forum, ForumKind, ForumMembership, Knows, Like, Person, Post};
use snb_core::time::SimTime;
use snb_core::update::{ScheduledUpdate, UpdateOp};
use snb_core::{ForumId, MessageId, PersonId, TagId};
use snb_store::Store;
use std::collections::{HashMap, HashSet};

/// A tiny op language the model checker drives. Ids are small so references
/// frequently collide (testing constraint checks) and frequently resolve
/// (testing the indexes).
#[derive(Debug, Clone)]
enum Action {
    AddPerson(u64),
    AddFriendship(u64, u64),
    AddForum(u64, u64),
    AddPost { id: u64, author: u64, forum: u64 },
    AddComment { id: u64, author: u64, parent: u64, forum: u64 },
    AddLike { person: u64, message: u64 },
    TakeSnapshot,
}

fn action_strategy() -> impl Strategy<Value = Action> {
    prop_oneof![
        (0u64..12).prop_map(Action::AddPerson),
        (0u64..12, 0u64..12).prop_map(|(a, b)| Action::AddFriendship(a, b)),
        (0u64..8, 0u64..12).prop_map(|(f, m)| Action::AddForum(f, m)),
        (0u64..30, 0u64..12, 0u64..8).prop_map(|(id, author, forum)| Action::AddPost {
            id,
            author,
            forum
        }),
        (0u64..30, 0u64..12, 0u64..30, 0u64..8).prop_map(|(id, author, parent, forum)| {
            Action::AddComment { id, author, parent, forum }
        }),
        (0u64..12, 0u64..30).prop_map(|(person, message)| Action::AddLike { person, message }),
        Just(Action::TakeSnapshot),
    ]
}

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

/// In-memory reference model: which entities exist, which edges exist.
#[derive(Debug, Default, Clone)]
struct Model {
    persons: HashSet<u64>,
    forums: HashSet<u64>,
    posts: HashSet<u64>,
    comments: HashSet<u64>,
    knows: HashSet<(u64, u64)>,
    likes: HashSet<(u64, u64)>,
}

impl Model {
    fn message_exists(&self, m: u64) -> bool {
        self.posts.contains(&m) || self.comments.contains(&m)
    }
}

fn to_op(a: &Action, t: i64, model: &Model) -> Option<(UpdateOp, bool)> {
    // Returns (op, should_succeed) per the model's view.
    match *a {
        Action::AddPerson(id) => {
            Some((UpdateOp::AddPerson(person(id, t)), !model.persons.contains(&id)))
        }
        Action::AddFriendship(a, b) => {
            let k = Knows { a: PersonId(a), b: PersonId(b), creation_date: SimTime(t) };
            let ok = a != b && model.persons.contains(&a) && model.persons.contains(&b);
            Some((UpdateOp::AddFriendship(k), ok))
        }
        Action::AddForum(f, m) => {
            let forum = Forum {
                id: ForumId(f),
                title: format!("forum {f}"),
                moderator: PersonId(m),
                creation_date: SimTime(t),
                tags: vec![TagId(0)],
                kind: ForumKind::Group,
            };
            let ok = model.persons.contains(&m) && !model.forums.contains(&f);
            Some((UpdateOp::AddForum(forum), ok))
        }
        Action::AddPost { id, author, forum } => {
            let post = Post {
                id: MessageId(id),
                author: PersonId(author),
                forum: ForumId(forum),
                creation_date: SimTime(t),
                content: "post".into(),
                image_file: None,
                tags: vec![TagId(2)],
                language: "de",
                country: 0,
            };
            let ok = model.persons.contains(&author)
                && model.forums.contains(&forum)
                && !model.message_exists(id);
            Some((UpdateOp::AddPost(post), ok))
        }
        Action::AddComment { id, author, parent, forum } => {
            // The store accepts replies to posts AND to other comments; the
            // generated op reuses the parent as root_post (the store checks
            // existence of both, not post-ness — the generator guarantees
            // well-formed roots in real data).
            let comment = Comment {
                id: MessageId(id),
                author: PersonId(author),
                creation_date: SimTime(t),
                content: "re".into(),
                reply_to: MessageId(parent),
                root_post: MessageId(parent),
                forum: ForumId(forum),
                tags: vec![],
                country: 0,
            };
            let ok = model.persons.contains(&author)
                && model.forums.contains(&forum)
                && model.message_exists(parent)
                && !model.message_exists(id);
            Some((UpdateOp::AddComment(comment), ok))
        }
        Action::AddLike { person, message } => {
            let like = Like {
                person: PersonId(person),
                message: MessageId(message),
                creation_date: SimTime(t),
            };
            let ok = model.persons.contains(&person) && model.message_exists(message);
            Some((UpdateOp::AddPostLike(like), ok))
        }
        Action::TakeSnapshot => None,
    }
}

fn apply_model(a: &Action, model: &mut Model) {
    match *a {
        Action::AddPerson(id) => {
            model.persons.insert(id);
        }
        Action::AddFriendship(a, b) => {
            model.knows.insert((a.min(b), a.max(b)));
        }
        Action::AddForum(f, _) => {
            model.forums.insert(f);
        }
        Action::AddPost { id, .. } => {
            model.posts.insert(id);
        }
        Action::AddComment { id, .. } => {
            model.comments.insert(id);
        }
        Action::AddLike { person, message } => {
            model.likes.insert((person, message));
        }
        Action::TakeSnapshot => {}
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The store accepts exactly the operations the reference model deems
    /// valid, and the final store state matches the model.
    #[test]
    fn store_matches_reference_model(actions in proptest::collection::vec(action_strategy(), 1..120)) {
        let store = Store::new();
        let mut model = Model::default();
        for (i, a) in actions.iter().enumerate() {
            let t = i as i64 + 1;
            let Some((op, should_succeed)) = to_op(a, t, &model) else { continue };
            let result = store.apply(&op);
            prop_assert_eq!(
                result.is_ok(),
                should_succeed,
                "action {:?}: store said {:?}, model said {}",
                a,
                result.err().map(|e| e.to_string()),
                should_succeed
            );
            if should_succeed {
                apply_model(a, &mut model);
            }
        }
        // Final-state equivalence.
        let snap = store.pinned();
        for id in 0..12u64 {
            prop_assert_eq!(snap.person_ref(PersonId(id)).is_some(), model.persons.contains(&id));
        }
        for f in 0..8u64 {
            prop_assert_eq!(snap.forum_ref(ForumId(f)).is_some(), model.forums.contains(&f));
        }
        for m in 0..30u64 {
            prop_assert_eq!(snap.message_ref(MessageId(m)).is_some(), model.message_exists(m));
        }
        for &(a, b) in &model.knows {
            prop_assert!(snap.are_friends(PersonId(a), PersonId(b)));
            prop_assert!(snap.are_friends(PersonId(b), PersonId(a)));
        }
        for &(p, m) in &model.likes {
            prop_assert!(snap.likes_by_iter(PersonId(p)).any(|(msg, _)| msg == m));
            prop_assert!(snap.likes_of_iter(MessageId(m)).any(|(pp, _)| pp == p));
        }
    }

    /// Snapshots are frozen: whatever commits after a snapshot was taken is
    /// invisible to it, and everything before stays visible.
    #[test]
    fn snapshots_are_immutable_views(actions in proptest::collection::vec(action_strategy(), 1..80)) {
        let store = Store::new();
        let mut model = Model::default();
        // (snapshot, model-state-at-snapshot)
        let mut snapshots: Vec<(snb_store::PinnedSnapshot<'_>, Model)> = Vec::new();
        for (i, a) in actions.iter().enumerate() {
            if matches!(a, Action::TakeSnapshot) {
                if snapshots.len() < 4 {
                    snapshots.push((store.pinned(), model.clone()));
                }
                continue;
            }
            let t = i as i64 + 1;
            let Some((op, ok)) = to_op(a, t, &model) else { continue };
            if ok {
                store.apply(&op).unwrap();
                apply_model(a, &mut model);
            }
        }
        for (snap, frozen) in &snapshots {
            for id in 0..12u64 {
                prop_assert_eq!(
                    snap.person_ref(PersonId(id)).is_some(),
                    frozen.persons.contains(&id),
                    "person {} visibility drifted",
                    id
                );
            }
            for m in 0..30u64 {
                prop_assert_eq!(snap.message_ref(MessageId(m)).is_some(), frozen.message_exists(m));
            }
            for a in 0..12u64 {
                let friends: HashSet<u64> =
                    snap.friends_iter(PersonId(a)).map(|(f, _)| f).collect();
                let expect: HashSet<u64> = frozen
                    .knows
                    .iter()
                    .filter_map(|&(x, y)| {
                        if x == a {
                            Some(y)
                        } else if y == a {
                            Some(x)
                        } else {
                            None
                        }
                    })
                    .collect();
                prop_assert_eq!(friends, expect, "friends of {} drifted", a);
                for b in 0..12u64 {
                    prop_assert_eq!(
                        snap.are_friends(PersonId(a), PersonId(b)),
                        frozen.knows.contains(&(a.min(b), a.max(b))),
                        "are_friends({}, {}) drifted",
                        a,
                        b
                    );
                }
            }
        }
    }

    /// WAL append + replay is the identity on any valid op sequence.
    #[test]
    fn wal_roundtrip_preserves_ops(actions in proptest::collection::vec(action_strategy(), 1..60), tag in any::<u32>()) {
        let path = std::env::temp_dir()
            .join(format!("snb-prop-wal-{}-{tag}", std::process::id()));
        let mut model = Model::default();
        let mut written = Vec::new();
        {
            let wal = snb_store::wal::Wal::create_with(
                &path,
                snb_store::SyncPolicy::Never,
                snb_store::WalMetrics::detached(),
            )
            .unwrap();
            for (i, a) in actions.iter().enumerate() {
                let Some((op, ok)) = to_op(a, i as i64 + 1, &model) else { continue };
                if ok {
                    wal.append(&op).unwrap();
                    written.push(op);
                    apply_model(a, &mut model);
                }
            }
            wal.flush().unwrap();
        }
        let replayed = snb_store::wal::replay(&path).unwrap();
        prop_assert_eq!(replayed.ops.len(), written.len());
        prop_assert_eq!(replayed.truncated_bytes, 0);
        for (a, b) in written.iter().zip(&replayed.ops) {
            prop_assert_eq!(format!("{a:?}"), format!("{b:?}"));
        }
        std::fs::remove_file(&path).unwrap();
    }
}

/// Shared generated dataset for the mixed bulk/update iterator property:
/// generation is deterministic and dominates the per-case cost, so it is
/// done once and each case only bulk-loads + replays a random prefix.
fn mixed_dataset() -> &'static (snb_datagen::Dataset, Vec<ScheduledUpdate>) {
    use std::sync::OnceLock;
    static DS: OnceLock<(snb_datagen::Dataset, Vec<ScheduledUpdate>)> = OnceLock::new();
    DS.get_or_init(|| {
        let ds = snb_datagen::generate(
            snb_datagen::GeneratorConfig::with_persons(150).activity(0.3).seed(11),
        )
        .unwrap();
        let stream = ds.update_stream();
        (ds, stream)
    })
}

/// One index family as the model holds it: owner id → `(date, id)`
/// entries, sorted once every input is in.
type Lists = HashMap<u64, Vec<(SimTime, u64)>>;

/// The ten index lists a store holds after `bulk_load` and an applied
/// update prefix, assembled straight from the dataset and the ops as plain
/// `(date, id)`-sorted vectors — the pre-compact representation — with
/// the bound of each entity table (highest loaded id + 1). It shares
/// nothing with the store: no bulk decoder, no tail slots, no visibility
/// check.
#[derive(Default)]
struct ListModel {
    person_slots: usize,
    forum_slots: usize,
    message_slots: usize,
    knows: Lists,
    person_messages: Lists,
    person_posts: Lists,
    person_forums: Lists,
    person_likes: Lists,
    forum_posts: Lists,
    forum_members: Lists,
    message_replies: Lists,
    message_likes: Lists,
    tag_posts: Lists,
}

fn add(lists: &mut Lists, owner: u64, date: SimTime, id: u64) {
    lists.entry(owner).or_default().push((date, id));
}

impl ListModel {
    /// Everything the loader takes (created at or before the update
    /// split), plus exactly the ops in `applied`.
    fn new(ds: &snb_datagen::Dataset, applied: &[ScheduledUpdate]) -> ListModel {
        ListModel::of_forums(ds, applied, |_| true)
    }

    /// [`ListModel::new`] with the bulk-loaded forum-rooted activity
    /// restricted to the forums `owned` accepts — a shard's slice:
    /// memberships, posts and comments by their forum, likes by their
    /// message's forum. `applied` is taken whole.
    fn of_forums(
        ds: &snb_datagen::Dataset,
        applied: &[ScheduledUpdate],
        owned: impl Fn(ForumId) -> bool,
    ) -> ListModel {
        let split = ds.config.update_split;
        let mut m = ListModel::default();
        for p in ds.persons.iter().filter(|p| p.creation_date <= split) {
            m.person_slots = m.person_slots.max(p.id.index() + 1);
        }
        for k in ds.knows.iter().filter(|k| k.creation_date <= split) {
            m.knows(k);
        }
        for f in ds.forums.iter().filter(|f| f.creation_date <= split && owned(f.id)) {
            m.forum_slots = m.forum_slots.max(f.id.index() + 1);
        }
        for f in ds.memberships.iter().filter(|f| f.join_date <= split && owned(f.forum)) {
            m.membership(f);
        }
        for p in ds.posts.iter().filter(|p| p.creation_date <= split && owned(p.forum)) {
            m.post(p);
            m.message_slots = m.message_slots.max(p.id.index() + 1);
        }
        for c in ds.comments.iter().filter(|c| c.creation_date <= split && owned(c.forum)) {
            m.comment(c);
            m.message_slots = m.message_slots.max(c.id.index() + 1);
        }
        for l in ds
            .likes
            .iter()
            .filter(|l| l.creation_date <= split && owned(ds.forum_of_message(l.message)))
        {
            m.like(l);
        }
        for u in applied {
            m.raise_slots(&u.op);
            match &u.op {
                UpdateOp::AddFriendship(k) => m.knows(k),
                UpdateOp::AddMembership(f) => m.membership(f),
                UpdateOp::AddPost(p) => m.post(p),
                UpdateOp::AddComment(c) => m.comment(c),
                UpdateOp::AddPostLike(l) | UpdateOp::AddCommentLike(l) => m.like(l),
                UpdateOp::AddPerson(_) | UpdateOp::AddForum(_) => {}
            }
        }
        for lists in [
            &mut m.knows,
            &mut m.person_messages,
            &mut m.person_posts,
            &mut m.person_forums,
            &mut m.person_likes,
            &mut m.forum_posts,
            &mut m.forum_members,
            &mut m.message_replies,
            &mut m.message_likes,
            &mut m.tag_posts,
        ] {
            for list in lists.values_mut() {
                list.sort_unstable();
            }
        }
        m
    }

    /// Raise the entity-table bound `op` inserts into. Bounds are not
    /// versioned: an op committed after a pin raises them while its
    /// entries stay invisible to that pin.
    fn raise_slots(&mut self, op: &UpdateOp) {
        let (slots, id) = match op {
            UpdateOp::AddPerson(p) => (&mut self.person_slots, p.id.index()),
            UpdateOp::AddForum(f) => (&mut self.forum_slots, f.id.index()),
            UpdateOp::AddPost(p) => (&mut self.message_slots, p.id.index()),
            UpdateOp::AddComment(c) => (&mut self.message_slots, c.id.index()),
            _ => return,
        };
        *slots = (*slots).max(id + 1);
    }

    fn knows(&mut self, k: &Knows) {
        add(&mut self.knows, k.a.raw(), k.creation_date, k.b.raw());
        add(&mut self.knows, k.b.raw(), k.creation_date, k.a.raw());
    }

    fn membership(&mut self, f: &ForumMembership) {
        add(&mut self.forum_members, f.forum.raw(), f.join_date, f.person.raw());
        add(&mut self.person_forums, f.person.raw(), f.join_date, f.forum.raw());
    }

    fn post(&mut self, p: &Post) {
        add(&mut self.forum_posts, p.forum.raw(), p.creation_date, p.id.raw());
        add(&mut self.person_posts, p.author.raw(), p.creation_date, p.id.raw());
        add(&mut self.person_messages, p.author.raw(), p.creation_date, p.id.raw());
        let distinct: std::collections::BTreeSet<u64> = p.tags.iter().map(|t| t.raw()).collect();
        for tag in distinct {
            add(&mut self.tag_posts, tag, p.creation_date, p.id.raw());
        }
    }

    /// Every entity table's bound and every list scan of `snap` equal the
    /// model: the nine ascending scans over each slot below the bounds,
    /// and the tag lists.
    fn check_all(&self, snap: &snb_store::PinnedSnapshot<'_>, what: &str) {
        assert_eq!(snap.person_slots(), self.person_slots, "{what}: person slots");
        assert_eq!(snap.forum_slots(), self.forum_slots, "{what}: forum slots");
        assert_eq!(snap.message_slots(), self.message_slots, "{what}: message slots");
        for p in 0..self.person_slots as u64 {
            let id = PersonId(p);
            let friends: Vec<_> = snap.friends_iter(id).collect();
            assert_eq!(friends, dated(&self.knows, p), "{what}: friends of {p}");
            let msgs: Vec<_> = snap.messages_of_iter(id).collect();
            assert_eq!(msgs, dated(&self.person_messages, p), "{what}: messages of {p}");
            let posts: Vec<_> = snap.posts_of_iter(id).collect();
            assert_eq!(posts, dated(&self.person_posts, p), "{what}: posts of {p}");
            let forums: Vec<_> = snap.forums_of_iter(id).collect();
            assert_eq!(forums, dated(&self.person_forums, p), "{what}: forums of {p}");
            let likes: Vec<_> = snap.likes_by_iter(id).collect();
            assert_eq!(likes, dated(&self.person_likes, p), "{what}: likes by {p}");
        }
        for f in 0..self.forum_slots as u64 {
            let id = ForumId(f);
            let posts: Vec<_> = snap.posts_in_forum_iter(id).collect();
            assert_eq!(posts, dated(&self.forum_posts, f), "{what}: posts in forum {f}");
            let members: Vec<_> = snap.members_of_iter(id).collect();
            assert_eq!(members, dated(&self.forum_members, f), "{what}: members of {f}");
        }
        for m in 0..self.message_slots as u64 {
            let id = MessageId(m);
            let replies: Vec<_> = snap.replies_of_iter(id).collect();
            assert_eq!(replies, dated(&self.message_replies, m), "{what}: replies of {m}");
            let likes: Vec<_> = snap.likes_of_iter(id).collect();
            assert_eq!(likes, dated(&self.message_likes, m), "{what}: likes of {m}");
        }
        self.check_tag_posts(snap, what);
    }

    /// `posts_with_tag_iter` for every tag the dictionary has (and one
    /// past it) equals the model's list.
    fn check_tag_posts(&self, snap: &snb_store::PinnedSnapshot<'_>, what: &str) {
        let tags = snb_core::dict::Dictionaries::global().tags.tag_count() as u64;
        let mut nonempty = 0;
        for t in 0..=tags {
            let got: Vec<_> = snap.posts_with_tag_iter(TagId(t)).collect();
            nonempty += usize::from(!got.is_empty());
            assert_eq!(got, dated(&self.tag_posts, t), "{what}: posts with tag {t}");
        }
        assert!(nonempty > 0, "{what}: no tag has posts");
    }

    fn comment(&mut self, c: &Comment) {
        add(&mut self.message_replies, c.reply_to.raw(), c.creation_date, c.id.raw());
        add(&mut self.person_messages, c.author.raw(), c.creation_date, c.id.raw());
    }

    fn like(&mut self, l: &Like) {
        add(&mut self.message_likes, l.message.raw(), l.creation_date, l.person.raw());
        add(&mut self.person_likes, l.person.raw(), l.creation_date, l.message.raw());
    }
}

/// `owner`'s model entries as the store's iterators yield them.
fn dated(lists: &Lists, owner: u64) -> Vec<(u64, SimTime)> {
    lists.get(&owner).map_or(Vec::new(), |l| l.iter().map(|&(d, id)| (id, d)).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Every list read of `PinnedSnapshot` — the nine ascending scans, the
    /// newest-first walk under its date bound and the bounded
    /// `forums_of_after_iter` scan at the date of each of the person's
    /// entries — equals a [`ListModel`] built from the inputs, on stores
    /// that mix bulk runs (anchor seek, block decode, the fast lane) with
    /// a random applied update prefix (ladder runs, sub-base singles, MVCC
    /// filtering). The snapshot is pinned before a further slice of the
    /// stream commits: those entries sit in the same tails and must stay
    /// invisible.
    #[test]
    fn compact_runs_match_uncompressed_oracle(
        prefix_pct in 0u32..=100,
        later_pct in 0u32..=10,
        day_offset in 0i64..1_096,
    ) {
        let (ds, stream) = mixed_dataset();
        let store = Store::new();
        store.bulk_load(ds);
        let applied = stream.len() * prefix_pct as usize / 100;
        let later = (applied + stream.len() * later_pct as usize / 100).min(stream.len());
        for u in &stream[..applied] {
            store.apply(&u.op).unwrap();
        }
        let snap = store.pinned();
        for u in &stream[applied..later] {
            store.apply(&u.op).unwrap();
        }
        let mut model = ListModel::new(ds, &stream[..applied]);
        for u in &stream[applied..later] {
            model.raise_slots(&u.op);
        }
        let max_date = SimTime(SimTime::SIM_START.0 + day_offset * 86_400_000);

        model.check_all(&snap, &format!("{prefix_pct} % of the stream applied"));
        for p in 0..snap.person_slots() as u64 {
            let id = PersonId(p);
            // Newest first under the date bound: the anchor seek and the
            // backward block decode at every list length and bound.
            let msgs = dated(&model.person_messages, p);
            let newest: Vec<_> = msgs.iter().rev().filter(|&&(_, d)| d <= max_date).copied().collect();
            prop_assert_eq!(snap.recent_messages_walk(id, max_date).collect::<Vec<_>>(), newest);
            // Strictly after the bound, with the bound on an entry's date
            // in every lane the list has, and off the entries.
            let forums = dated(&model.person_forums, p);
            for bound in forums.iter().map(|&(_, d)| d).chain([max_date]) {
                let after: Vec<_> = forums.iter().filter(|&&(_, d)| d > bound).copied().collect();
                prop_assert_eq!(
                    snap.forums_of_after_iter(id, bound).collect::<Vec<_>>(),
                    after,
                    "forums of {} after {:?}",
                    p,
                    bound
                );
            }
        }
    }
}

/// Every index list and entity-table bound equals [`ListModel`] on every
/// way a store is built: a bulk load at the default thread count and at 1
/// and 3 threads, each slice of a 2-shard load (only the activity of the
/// forums the shard owns), and a store recovered from its WAL (the lists
/// rebuilt by replaying `apply`). The property above covers a bulk load
/// plus a random update prefix.
#[test]
fn tag_posts_match_the_dataset_on_every_load_path() {
    let (ds, stream) = mixed_dataset();
    let split = ds.config.update_split;
    let bulk_model = ListModel::new(ds, &[]);

    let bulk = Store::new();
    bulk.bulk_load(ds);
    bulk_model.check_all(&bulk.pinned(), "bulk load");
    for threads in [1, 3] {
        let s = Store::new();
        s.bulk_load_until_threads(ds, split, threads);
        bulk_model.check_all(&s.pinned(), &format!("bulk load on {threads} threads"));
    }

    let map = snb_core::shard::ShardMap::new(2);
    for shard in 0..2 {
        let slice = Store::new();
        slice.bulk_load_sharded(ds, split, 2, map, shard);
        ListModel::of_forums(ds, &[], |f| map.owns_forum(f, shard))
            .check_all(&slice.pinned(), &format!("shard {shard} of 2"));
    }
    let path = std::env::temp_dir().join(format!("snb-tag-posts-{}.wal", std::process::id()));
    let applied = &stream[..stream.len() * 2 / 3];
    {
        let logged = Store::with_wal_policy(&path, snb_store::SyncPolicy::Never).unwrap();
        logged.bulk_load(ds);
        for u in applied {
            logged.apply(&u.op).unwrap();
        }
        logged.flush_wal().unwrap();
    }
    let (recovered, report) = Store::recover(ds, &path).unwrap();
    std::fs::remove_file(&path).unwrap();
    assert_eq!(report.replayed as usize, applied.len());
    ListModel::new(ds, applied).check_all(&recovered.pinned(), "recovered from the WAL");
}

/// Highest entity id used by [`mixed_dataset`] plus one: synthetic ops
/// offset their ids past this floor so they can never collide with (or
/// depend on) bulk-loaded entities.
fn id_floor() -> u64 {
    use std::sync::OnceLock;
    static FLOOR: OnceLock<u64> = OnceLock::new();
    *FLOOR.get_or_init(|| {
        let (ds, _) = mixed_dataset();
        let persons = ds.persons.iter().map(|p| p.id.raw()).max().unwrap_or(0);
        let forums = ds.forums.iter().map(|f| f.id.raw()).max().unwrap_or(0);
        let posts = ds.posts.iter().map(|p| p.id.raw()).max().unwrap_or(0);
        let comments = ds.comments.iter().map(|c| c.id.raw()).max().unwrap_or(0);
        persons.max(forums).max(posts).max(comments) + 1
    })
}

/// Shift every id in `a` into the window starting at `base`.
fn offset_action(a: &Action, base: u64) -> Action {
    match *a {
        Action::AddPerson(id) => Action::AddPerson(base + id),
        Action::AddFriendship(x, y) => Action::AddFriendship(base + x, base + y),
        Action::AddForum(f, m) => Action::AddForum(base + f, base + m),
        Action::AddPost { id, author, forum } => {
            Action::AddPost { id: base + id, author: base + author, forum: base + forum }
        }
        Action::AddComment { id, author, parent, forum } => Action::AddComment {
            id: base + id,
            author: base + author,
            parent: base + parent,
            forum: base + forum,
        },
        Action::AddLike { person, message } => {
            Action::AddLike { person: base + person, message: base + message }
        }
        Action::TakeSnapshot => Action::TakeSnapshot,
    }
}

/// Turn raw action vectors into per-writer streams of *valid* ops over
/// disjoint id windows (window `t` starts at `id_floor() + 64 t`), so any
/// thread interleaving applies cleanly: no stream references another
/// stream's entities. Dates are a function of `(stream, index)` — identical
/// between the concurrent run and the serial oracle.
fn disjoint_streams(raw: &[Vec<Action>]) -> Vec<Vec<UpdateOp>> {
    raw.iter()
        .enumerate()
        .map(|(t, actions)| {
            let base = id_floor() + (t as u64) * 64;
            let mut model = Model::default();
            let mut ops = Vec::new();
            for (i, a) in actions.iter().enumerate() {
                let a = offset_action(a, base);
                let date = (t as i64 + 1) * 1_000_000 + i as i64;
                if let Some((op, ok)) = to_op(&a, date, &model) {
                    if ok {
                        ops.push(op);
                        apply_model(&a, &mut model);
                    }
                }
            }
            ops
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// A store written by concurrent threads through the striped-lock
    /// commit pipeline is pointwise identical — across the adjacency
    /// iterators and every `*_ref` accessor — to a store that applied the
    /// same streams
    /// serially. Half the cases layer the writers on top of a bulk-loaded
    /// prefix, so the always-visible fast lane and the versioned tails are
    /// both exercised.
    #[test]
    fn concurrent_apply_matches_serial_apply(
        raw in proptest::collection::vec(
            proptest::collection::vec(action_strategy(), 1..48), 2..=4),
        bulk in any::<bool>(),
    ) {
        let (ds, _) = mixed_dataset();
        let streams = disjoint_streams(&raw);

        let concurrent = Store::new();
        let serial = Store::new();
        if bulk {
            concurrent.bulk_load(ds);
            serial.bulk_load(ds);
        }
        std::thread::scope(|scope| {
            for ops in &streams {
                let store = &concurrent;
                scope.spawn(move || {
                    for op in ops {
                        store.apply(op).expect("disjoint stream op must commit");
                    }
                });
            }
        });
        for ops in &streams {
            for op in ops {
                serial.apply(op).expect("serial oracle op must commit");
            }
        }

        prop_assert_eq!(
            concurrent.counters().commits(),
            serial.counters().commits()
        );
        let a = concurrent.pinned();
        let b = serial.pinned();
        prop_assert_eq!(a.person_slots(), b.person_slots());
        prop_assert_eq!(a.forum_slots(), b.forum_slots());
        prop_assert_eq!(a.message_slots(), b.message_slots());
        for i in 0..a.person_slots() as u64 {
            let p = PersonId(i);
            prop_assert_eq!(
                format!("{:?}", a.person_ref(p)), format!("{:?}", b.person_ref(p)),
                "person_ref {} drifted", i
            );
            prop_assert_eq!(a.friends_iter(p).collect::<Vec<_>>(), b.friends_iter(p).collect::<Vec<_>>(), "friends of {} drifted", i);
            prop_assert_eq!(a.messages_of_iter(p).collect::<Vec<_>>(), b.messages_of_iter(p).collect::<Vec<_>>());
            prop_assert_eq!(a.forums_of_iter(p).collect::<Vec<_>>(), b.forums_of_iter(p).collect::<Vec<_>>());
            prop_assert_eq!(a.likes_by_iter(p).collect::<Vec<_>>(), b.likes_by_iter(p).collect::<Vec<_>>());
            prop_assert_eq!(
                a.recent_messages_walk(p, SimTime(i64::MAX)).take(4).collect::<Vec<_>>(),
                b.recent_messages_walk(p, SimTime(i64::MAX)).take(4).collect::<Vec<_>>()
            );
        }
        for i in 0..a.forum_slots() as u64 {
            let f = ForumId(i);
            prop_assert_eq!(
                format!("{:?}", a.forum_ref(f)), format!("{:?}", b.forum_ref(f))
            );
            prop_assert_eq!(a.posts_in_forum_iter(f).collect::<Vec<_>>(), b.posts_in_forum_iter(f).collect::<Vec<_>>());
            prop_assert_eq!(a.members_of_iter(f).collect::<Vec<_>>(), b.members_of_iter(f).collect::<Vec<_>>());
        }
        for i in 0..a.message_slots() as u64 {
            let m = MessageId(i);
            prop_assert_eq!(
                format!("{:?}", a.message_ref(m)), format!("{:?}", b.message_ref(m))
            );
            prop_assert_eq!(a.replies_of_iter(m).collect::<Vec<_>>(), b.replies_of_iter(m).collect::<Vec<_>>());
            prop_assert_eq!(a.likes_of_iter(m).collect::<Vec<_>>(), b.likes_of_iter(m).collect::<Vec<_>>());
        }
    }
}

/// `messages_of_after_iter` is `messages_of_iter` filtered to the dates
/// strictly after its bound: on bulk-only lists, and again once the update
/// stream has given the lists tails, with the bound on every entry's date,
/// a millisecond before it, and outside the list at both ends.
#[test]
fn messages_of_after_iter_is_the_date_filtered_scan() {
    let (ds, stream) = mixed_dataset();
    let store = Store::new();
    store.bulk_load(ds);
    let check = |store: &Store| -> usize {
        let snap = store.pinned();
        let mut entries = 0;
        for p in 0..snap.person_slots() as u64 {
            let id = PersonId(p);
            let msgs: Vec<_> = snap.messages_of_iter(id).collect();
            entries += msgs.len();
            let bounds = msgs.iter().flat_map(|&(_, d)| [SimTime(d.0 - 1), d]);
            for bound in bounds.chain([SimTime(0), SimTime(i64::MAX)]) {
                let after: Vec<_> = msgs.iter().filter(|&&(_, d)| d > bound).copied().collect();
                assert_eq!(
                    snap.messages_of_after_iter(id, bound).collect::<Vec<_>>(),
                    after,
                    "messages of {p} after {bound:?}"
                );
            }
        }
        entries
    };
    let bulk_entries = check(&store);
    for u in stream {
        store.apply(&u.op).unwrap();
    }
    assert!(check(&store) > bulk_entries, "the update stream added no message to any list");
}
