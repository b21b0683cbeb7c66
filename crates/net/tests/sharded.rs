//! 2-shard loopback: the sharded data path end to end. Two `snb-net`
//! servers each bulk-load one shard slice, a [`ShardedConnector`] replays
//! the partitioned update stream through the wire, and the result must be
//! *exactly* the single-process outcome: per-shard state byte-identical
//! (logical digest) to a union-stream replay, and scatter-gather reads
//! pointwise equal to the unsharded query.

use snb_core::rng::Rng;
use snb_core::shard::ShardMap;
use snb_core::{ForumId, MessageId, PersonId, SimTime};
use snb_datagen::{generate, Dataset, GeneratorConfig};
use snb_driver::connector::{Connector, Operation, StoreConnector};
use snb_driver::mix;
use snb_driver::scheduler::{run, DriverConfig};
use snb_net::{RemoteConnector, Server, ServerConfig, ShardedConnector};
use snb_queries::params::{
    ComplexQuery, Q10Params, Q12Params, Q14Params, Q2Params, Q3Params, Q4Params, Q5Params,
    Q6Params, Q7Params, Q8Params, Q9Params, ShortQuery,
};
use snb_queries::{sharded, Engine};
use snb_store::Store;
use std::fmt::Write as _;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

fn dataset() -> &'static Dataset {
    static DS: OnceLock<Dataset> = OnceLock::new();
    DS.get_or_init(|| generate(GeneratorConfig::with_persons(260).activity(0.5)).unwrap())
}

/// Bind one shard server: a store bulk-loaded with only shard `i`'s slice
/// (plus the replicated persons/knows), announcing its identity over the
/// GCT RPC.
fn shard_server(ds: &Dataset, map: ShardMap, shard: u32) -> (Server, Arc<Store>) {
    let store = Arc::new(Store::new());
    store.bulk_load_sharded(ds, ds.config.update_split, 2, map, shard);
    let connector = Arc::new(StoreConnector::new(Arc::clone(&store), Engine::Intended));
    let config = ServerConfig { shard, shards: map.shards(), ..ServerConfig::default() };
    let server = Server::bind_with_config("127.0.0.1:0", connector, config).unwrap();
    (server, store)
}

/// Logical digest of the graph state a shard is responsible for: the full
/// replicated person/knows graph, plus the forums, memberships, messages,
/// discussion trees, and likes whose forum the shard owns. Computed purely
/// through the public snapshot API, so it compares *visible state*, not
/// storage internals — the same function applied to the single-process
/// store with the same ownership filter must produce identical bytes.
fn shard_digest(store: &Store, map: ShardMap, shard: u32) -> String {
    let snap = store.pinned();
    let mut d = String::new();
    for p in 0..snap.person_slots() {
        let id = PersonId(p as u64);
        let Some(person) = snap.person_ref(id) else { continue };
        write!(d, "P{p}={}|{}|{};", person.first_name, person.last_name, person.creation_date.0)
            .unwrap();
        for (f, date) in snap.friends_iter(id) {
            write!(d, "K{f}@{};", date.0).unwrap();
        }
    }
    for f in 0..snap.forum_slots() {
        let id = ForumId(f as u64);
        if map.shard_of_forum(id) != shard {
            continue;
        }
        let Some(forum) = snap.forum_ref(id) else { continue };
        write!(d, "F{f}={}|{}|{};", forum.title, forum.moderator.raw(), forum.creation_date.0)
            .unwrap();
        for (m, date) in snap.members_of_iter(id) {
            write!(d, "M{m}@{};", date.0).unwrap();
        }
        for (p, date) in snap.posts_in_forum_iter(id) {
            write!(d, "T{p}@{};", date.0).unwrap();
        }
    }
    for m in 0..snap.message_slots() {
        let id = MessageId(m as u64);
        let Some(row) = snap.message_ref(id) else { continue };
        if map.shard_of_forum(row.forum) != shard {
            continue;
        }
        write!(
            d,
            "G{m}={}|{}|{}|{:?};",
            row.author.raw(),
            row.creation_date.0,
            row.content,
            row.reply_info
        )
        .unwrap();
        for (r, date) in snap.replies_of_iter(id) {
            write!(d, "R{r}@{};", date.0).unwrap();
        }
        for (l, date) in snap.likes_of_iter(id) {
            write!(d, "L{l}@{};", date.0).unwrap();
        }
    }
    d
}

/// Acceptance criteria for the sharded tentpole, end to end over real
/// sockets:
///
/// 1. the partitioned update stream replayed through [`ShardedConnector`]
///    (broadcast persons/friendships, forum-routed trees, directory-routed
///    likes) leaves each shard byte-identical to a single-process replay
///    of the union stream, under the shard's ownership filter;
/// 2. the GCT dependency-visibility invariant verifies over the wire;
/// 3. every scattering read (Q2–Q10, Q12, Q14, S2) merged over the wire
///    equals the single-process rows pointwise for 24 random bindings.
#[test]
fn two_shard_loopback_replay_and_scatter_match_single_process() {
    let ds = dataset();
    let map = ShardMap::new(2);

    // Single-process oracle: union stream over the whole graph.
    let oracle = Arc::new(Store::new());
    oracle.bulk_load(ds);
    for u in ds.update_stream() {
        oracle.apply(&u.op).unwrap();
    }

    let (server0, store0) = shard_server(ds, map, 0);
    let (server1, store1) = shard_server(ds, map, 1);
    let addrs = [server0.local_addr().to_string(), server1.local_addr().to_string()];

    let router = ShardedConnector::connect(&addrs).unwrap();
    assert_eq!(router.shard_count(), 2);
    router.seed_routes(ds.message_routes());

    // Replay the update stream through the real driver scheduler: streams
    // partitioned across threads, dependent operations gated on GCT.
    let items = mix::updates_only(ds);
    assert!(!items.is_empty());
    let config = DriverConfig { partitions: 4, ..DriverConfig::default() };
    let report = run(&items, &router, &config).unwrap();
    assert_eq!(report.total_ops, items.len());

    // Every broadcast the router completed must be visible on every shard.
    assert!(router.gct_horizon() > 0, "stream contains person/friendship updates");
    router.gct_check().unwrap();

    // Final state: each shard == oracle filtered to that shard's slice.
    for (i, store) in [&store0, &store1].into_iter().enumerate() {
        let got = shard_digest(store, map, i as u32);
        let want = shard_digest(&oracle, map, i as u32);
        assert!(!want.is_empty());
        assert_eq!(got, want, "shard {i} state diverged from the single-process replay");
    }

    // Scatter-gather reads over the wire, merged client-side, versus the
    // oracle's single full partial merged the same way — pointwise, for
    // random bindings.
    let remotes: Vec<RemoteConnector> =
        addrs.iter().map(|a| RemoteConnector::connect(a.clone()).unwrap()).collect();
    let snap = oracle.pinned();
    let mut rng = Rng::new(0x51a2d);
    let persons = ds.persons.len() as u64;
    let classes = snb_core::dict::Dictionaries::global().tags.class_count() as u64;
    let places = &snb_core::dict::Dictionaries::global().places;
    let countries = ["China", "India"].map(|c| places.country_by_name(c).unwrap());
    let mut answered = std::collections::BTreeSet::new();
    for trial in 0..24 {
        let person = PersonId(rng.below(persons));
        let max_date = SimTime(ds.config.update_split.0 + rng.below(1 << 34) as i64);
        // Windows that straddle the bulk/update split, so partials read the
        // ladder tails the replay left behind.
        let start = max_date.plus_days(-60);
        let queries = [
            ComplexQuery::Q2(Q2Params { person, max_date }),
            ComplexQuery::Q3(Q3Params {
                person,
                country_x: countries[0],
                country_y: countries[1],
                start,
                duration_days: 365,
            }),
            ComplexQuery::Q4(Q4Params { person, start, duration_days: 90 }),
            ComplexQuery::Q5(Q5Params { person, min_date: start }),
            ComplexQuery::Q6(Q6Params {
                person,
                tag: ds.persons[person.index()].interests.first().map_or(0, |t| t.index()),
            }),
            ComplexQuery::Q7(Q7Params { person }),
            ComplexQuery::Q8(Q8Params { person }),
            ComplexQuery::Q9(Q9Params { person, max_date }),
            ComplexQuery::Q10(Q10Params { person, month: rng.below(12) as u8 + 1 }),
            ComplexQuery::Q12(Q12Params { person, tag_class: rng.below(classes) as usize }),
            ComplexQuery::Q14(Q14Params {
                person_x: person,
                person_y: PersonId(rng.below(persons)),
            }),
        ];
        for q in queries {
            assert!(sharded::scatters(&q));
            let op = Operation::Complex(q.clone());
            let parts = remotes.iter().map(|r| r.execute_partial(&op).unwrap().partial).collect();
            let merged = sharded::merge(&q, parts);
            let want =
                sharded::merge(&q, vec![sharded::partial(&snap, Engine::Intended, &q).unwrap()]);
            assert_eq!(merged, want, "Q{} trial {trial} diverged for {q:?}", q.number());
            if !want.is_empty() {
                answered.insert(q.number());
            }
        }

        let s = ShortQuery::S2(person);
        let op = Operation::Short(s);
        let parts = remotes.iter().map(|r| r.execute_partial(&op).unwrap().partial).collect();
        let merged = sharded::merge_short(&s, parts);
        let want = sharded::merge_short(&s, vec![sharded::partial_short(&snap, &s).unwrap()]);
        assert_eq!(merged, want, "S2 trial {trial} diverged for person {person:?}");
    }
    // Every scattering kind returned rows for some binding, so the
    // comparisons above were not all between empty results.
    assert_eq!(answered.len(), 11, "kinds with rows: {answered:?}");

    for server in [server0, server1] {
        server.shutdown();
        server.join();
    }
}

/// A mixed workload (updates + complex reads + short-read walks) driven
/// through the router completes without errors, spreads requests over
/// both shards, and surfaces per-shard identity in the disclosure.
#[test]
fn two_shard_mixed_workload_runs_and_discloses_per_shard() {
    let ds = dataset();
    let map = ShardMap::new(2);
    let (server0, _store0) = shard_server(ds, map, 0);
    let (server1, _store1) = shard_server(ds, map, 1);
    let addrs = [server0.local_addr().to_string(), server1.local_addr().to_string()];

    let router = ShardedConnector::connect(&addrs).unwrap();
    router.seed_routes(ds.message_routes());

    let bindings = snb_params::uniform_bindings(ds, 48, 11);
    let items = mix::build_mix(ds, &bindings);
    let config = DriverConfig { partitions: 4, ..DriverConfig::default() };
    let report = run(&items, &router, &config).unwrap();
    assert!(report.total_ops >= items.len(), "walks ride on scattered reads too");
    router.gct_check().unwrap();

    let counters = router.counters();
    let get = |name: &str| {
        counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
            .unwrap_or_else(|| panic!("counter {name} missing from disclosure"))
    };
    // Per-shard identity rides in the counter dump...
    assert_eq!(get("shard0.net.server.shard_index"), 0);
    assert_eq!(get("shard1.net.server.shard_index"), 1);
    assert_eq!(get("shard0.net.server.shard_count"), 2);
    // ...and both shards actually served work: scattered reads hit every
    // shard, point ops spread by id range.
    assert!(get("shard0.net.server.requests") > 0);
    assert!(get("shard1.net.server.requests") > 0);
    // The connection threads' busy/idle counters are disclosed per shard.
    assert!(get("shard0.net.server.loop_busy_nanos") > 0);
    assert!(get("shard0.net.server.loop_idle_nanos") > 0);
    // Per-shard histograms carry each link's request latency.
    let histograms = router.histograms();
    for name in ["shard0.net.client.request_micros", "shard1.net.client.request_micros"] {
        assert!(
            histograms.iter().any(|(n, h)| n == name && !h.is_empty()),
            "{name} missing or empty in disclosure"
        );
    }

    // Once the router hangs up, each shard reaps every connection it
    // accepted (asynchronously, as each connection's thread reads EOF).
    drop(router);
    let deadline = Instant::now() + Duration::from_secs(10);
    for server in [&server0, &server1] {
        let m = server.metrics();
        while m.connections.get() != m.closed.get() {
            assert!(
                Instant::now() < deadline,
                "shard leaked connections: accepted={} closed={}",
                m.connections.get(),
                m.closed.get()
            );
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    for server in [server0, server1] {
        server.shutdown();
        server.join();
    }
}

/// A scatter that cannot reach a later shard still finishes the requests
/// it already wrote to earlier ones: shard 0's connection goes back to its
/// pool, so the next request routed there neither dials nor reconnects.
#[test]
fn failed_scatter_drains_the_shards_it_already_wrote_to() {
    let ds = dataset();
    let map = ShardMap::new(2);
    let (server0, _store0) = shard_server(ds, map, 0);
    let (server1, _store1) = shard_server(ds, map, 1);
    let addrs = [server0.local_addr().to_string(), server1.local_addr().to_string()];
    let router = ShardedConnector::connect(&addrs).unwrap();

    let shard0 = |name: &str| -> u64 {
        let name = format!("shard0.net.client.{name}");
        let counters = router.counters();
        counters.iter().find(|(n, _)| *n == name).map(|&(_, v)| v).expect("counter disclosed")
    };
    let (connections, reconnects) = (shard0("connections"), shard0("reconnects"));

    server1.shutdown();
    server1.join();

    // The first scatter may still find shard 1's pooled connection (its
    // write lands in the dead socket's buffer and the read fails); by the
    // second, that connection is gone and the write loop itself fails on
    // the refused dial — after shard 0's request is already in flight.
    let person = PersonId(0);
    assert_eq!(map.shard_of_person(person), 0);
    let q9 = ComplexQuery::Q9(Q9Params { person, max_date: SimTime(i64::MAX) });
    for _ in 0..2 {
        assert!(router.execute(&Operation::Complex(q9.clone())).is_err());
    }

    router.execute(&Operation::Short(ShortQuery::S1(person))).unwrap();
    assert_eq!(shard0("connections"), connections, "shard 0 had to dial again");
    assert_eq!(shard0("reconnects"), reconnects);

    drop(router);
    server0.shutdown();
    server0.join();
}
