//! Readiness-loop server tests: connection churn must not leak, pipelined
//! requests must come back matched by correlation id, a peer with any
//! other handshake magic must be severed, each request must run on the
//! thread the dispatch rule picks for it, and an update that blocks must
//! be answered only once it is done, without the loop waiting for it.

use snb_core::time::SimTime;
use snb_core::update::UpdateOp;
use snb_core::{PersonId, SnbResult};
use snb_datagen::{generate, Dataset, GeneratorConfig};
use snb_driver::connector::{Connector, OpOutcome, Operation, PartialOutcome, StoreConnector};
use snb_net::{
    codec, PipelinedClient, RemoteConnector, Request, Response, Server, ServerConfig, NET_MAGIC_V3,
};
use snb_queries::params::{ComplexQuery, Q2Params, Q7Params, ShortQuery};
use snb_queries::sharded::Partial;
use snb_queries::Engine;
use snb_store::Store;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

fn dataset() -> &'static Dataset {
    static DS: OnceLock<Dataset> = OnceLock::new();
    DS.get_or_init(|| generate(GeneratorConfig::with_persons(200).activity(0.3)).unwrap())
}

/// One server at a time: `connection_churn_is_reaped` counts the process's
/// server threads, so no sibling test may be running its own server
/// meanwhile.
static ONE_SERVER: Mutex<()> = Mutex::new(());

/// A store-backed server plus the guard that keeps it the only one alive
/// in this test binary. Keep the guard until the server has been joined.
fn store_server(config: ServerConfig) -> (Server, MutexGuard<'static, ()>) {
    let guard = ONE_SERVER.lock().unwrap_or_else(|e| e.into_inner());
    let store = Arc::new(Store::new());
    store.bulk_load(dataset());
    let connector = Arc::new(StoreConnector::new(store, Engine::Intended));
    (Server::bind_with_config("127.0.0.1:0", connector, config).unwrap(), guard)
}

/// Block until the server has reaped every accepted connection (closed
/// catches up to connections and the open gauge hits zero) or panic after
/// a deadline. Reaping is asynchronous — the event loop learns about a
/// hangup on its next readiness wakeup.
fn wait_reaped(server: &Server, deadline: Duration) {
    let t0 = Instant::now();
    loop {
        let accepted = server.metrics().connections.get();
        let closed = server.metrics().closed.get();
        let open = server.metrics().open_conns.get();
        if accepted == closed && open == 0 {
            return;
        }
        assert!(
            t0.elapsed() < deadline,
            "connections not reaped: accepted={accepted} closed={closed} open={open}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Threads of this process that belong to a server: the event loop and
/// workers are named `snb-net-*`, and a thread spawned without a name
/// inherits its spawner's. The test harness's own threads come and go as
/// tests finish, so they are left out.
#[cfg(target_os = "linux")]
fn server_thread_count() -> usize {
    std::fs::read_dir("/proc/self/task")
        .unwrap()
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|name| name.starts_with("snb-net-"))
        .count()
}

/// Satellite: connection churn must not leak. 200 connect/disconnect
/// cycles — some after a full handshake, some hung up mid-handshake — must
/// all be reaped, with `accepted - closed` settling to zero and (on Linux)
/// no thread beyond the event loop and the fixed worker pool: there is no
/// per-connection handler to leak.
#[test]
fn connection_churn_is_reaped() {
    const WORKERS: usize = 2;
    let (server, _one_server) =
        store_server(ServerConfig { workers: WORKERS, ..ServerConfig::default() });
    let addr = server.local_addr();

    for i in 0..200u32 {
        let mut stream = TcpStream::connect(addr).unwrap();
        if i % 3 != 0 {
            // Full handshake, then hang up without sending a request.
            stream.write_all(&NET_MAGIC_V3).unwrap();
            let mut echo = [0u8; 8];
            stream.read_exact(&mut echo).unwrap();
            assert_eq!(echo, NET_MAGIC_V3);
        }
        // else: drop mid-handshake; the server sees EOF before any magic.
        drop(stream);
    }

    wait_reaped(&server, Duration::from_secs(10));
    assert_eq!(server.metrics().connections.get(), 200);

    #[cfg(target_os = "linux")]
    assert_eq!(server_thread_count(), 1 + WORKERS, "server threads after churn");

    // The server still works after all that churn.
    let mut client = PipelinedClient::connect(addr.to_string()).unwrap();
    client.send(&Operation::Short(ShortQuery::S1(PersonId(1)))).unwrap();
    let (_, response) = client.recv().unwrap();
    assert!(matches!(response, Response::Outcome(..)), "got {response:?}");

    server.shutdown();
    server.join();
}

/// Satellite: K pipelined requests on one connection all complete, and
/// every response's correlation id matches one request — regardless of the
/// order the server finished them in. Short reads, answered on the event
/// loop, are interleaved with complex reads and counters dumps, answered
/// by the pool.
#[test]
fn pipelined_requests_match_correlation_ids() {
    let (server, _one_server) = store_server(ServerConfig::default());
    let mut client = PipelinedClient::connect(server.local_addr().to_string()).unwrap();

    const K: usize = 32;
    let mut sent = std::collections::BTreeSet::new();
    for i in 0..K {
        let person = PersonId((i % 50) as u64);
        let corr = match i % 4 {
            0 => client.send(&Operation::Complex(ComplexQuery::Q2(Q2Params {
                person,
                max_date: SimTime(i64::MAX),
            }))),
            1 => client.send_counters(),
            _ => client.send(&Operation::Short(match i % 3 {
                0 => ShortQuery::S1(person),
                1 => ShortQuery::S2(person),
                _ => ShortQuery::S3(person),
            })),
        }
        .unwrap();
        assert!(sent.insert(corr), "correlation ids must be unique");
    }
    assert_eq!(client.in_flight(), K);

    let mut got = std::collections::BTreeSet::new();
    for _ in 0..K {
        let (corr, response) = client.recv().unwrap();
        assert!(got.insert(corr), "duplicate response for correlation id {corr}");
        match response {
            Response::Outcome(..) | Response::Counters { .. } => {}
            other => panic!("pipelined request failed: {other:?}"),
        }
    }
    assert_eq!(got, sent, "every request answered exactly once");
    assert_eq!(client.in_flight(), 0);
    assert_eq!(server.metrics().inline_requests.get(), K as u64 / 2, "the short reads");

    server.shutdown();
    server.join();
}

/// The retired v2 magic is severed without an echo and counted as a
/// protocol error, exactly like any other unknown magic.
#[test]
fn unknown_magic_is_severed() {
    let (server, _one_server) = store_server(ServerConfig::default());

    for (i, magic) in [*b"SNBNET2\0", *b"GET / HT"].iter().enumerate() {
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        stream.write_all(magic).unwrap();
        let mut rest = Vec::new();
        // EOF, or a reset if the close raced our write: never an echo.
        let _ = stream.read_to_end(&mut rest);
        assert!(rest.is_empty(), "server answered {magic:?} with {rest:?}");
        wait_reaped(&server, Duration::from_secs(10));
        assert_eq!(server.metrics().errors.get(), i as u64 + 1);
    }
    assert_eq!(server.metrics().requests.get(), 0);

    server.shutdown();
    server.join();
}

/// 32 clients connect, then all at once pipeline 50 short reads each:
/// every request is answered without an error, and once the clients hang
/// up the server has reaped every connection it accepted.
#[test]
fn simultaneous_pipelined_clients_see_no_errors_and_are_reaped() {
    const CLIENTS: usize = 32;
    const READS: usize = 50;
    let (server, _one_server) = store_server(ServerConfig::default());
    let addr = server.local_addr().to_string();
    let start = Barrier::new(CLIENTS);

    std::thread::scope(|scope| {
        for c in 0..CLIENTS {
            let (addr, start) = (&addr, &start);
            scope.spawn(move || {
                let mut client = PipelinedClient::connect(addr.clone()).unwrap();
                start.wait();
                for i in 0..READS {
                    let person = PersonId(((c * READS + i) % 200) as u64);
                    client.send(&Operation::Short(ShortQuery::S1(person))).unwrap();
                }
                for _ in 0..READS {
                    let (_, response) = client.recv().unwrap();
                    assert!(matches!(response, Response::Outcome(..)), "got {response:?}");
                }
            });
        }
    });

    wait_reaped(&server, Duration::from_secs(10));
    assert_eq!(server.metrics().connections.get(), CLIENTS as u64);
    assert_eq!(server.metrics().requests.get(), (CLIENTS * READS) as u64);
    assert_eq!(server.metrics().errors.get(), 0);

    server.shutdown();
    server.join();
}

/// A connection that sends garbage instead of a well-formed request is
/// answered with an error and severed, without taking the server down.
#[test]
fn malformed_frame_severs_only_that_connection() {
    let (server, _one_server) = store_server(ServerConfig::default());
    let addr = server.local_addr();

    let mut bad = TcpStream::connect(addr).unwrap();
    bad.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    bad.write_all(&NET_MAGIC_V3).unwrap();
    let mut echo = [0u8; 8];
    bad.read_exact(&mut echo).unwrap();
    // Well-framed garbage: valid length prefix, junk payload.
    codec::write_frame(&mut bad, &[0xDE, 0xAD, 0xBE, 0xEF, 0x01, 0x02, 0x03, 0x04, 0x05]).unwrap();
    // The server replies with an error frame (best effort) and closes; EOF
    // follows either way.
    let mut rest = Vec::new();
    let _ = bad.read_to_end(&mut rest);

    // A healthy client on the same server is unaffected.
    let mut good = PipelinedClient::connect(addr.to_string()).unwrap();
    good.send(&Operation::Short(ShortQuery::S1(PersonId(1)))).unwrap();
    let (_, response) = good.recv().unwrap();
    assert!(matches!(response, Response::Outcome(..)));

    server.shutdown();
    server.join();
}

/// An AddPerson `Execute` request whose language count claims 2^62
/// entries: a well-formed frame of a few hundred bytes with one lying
/// length prefix.
fn hostile_add_person() -> Vec<u8> {
    let person = dataset().persons[0].clone();
    let mut body = Vec::new();
    Request::Execute(Operation::Update(UpdateOp::AddPerson(person.clone())), None)
        .encode(&mut body);
    // Request tag, trace flag, operation class and update tag; then id,
    // gender, birthday, creation date, city and country, and four strings.
    let strings = [person.first_name, person.last_name, person.browser, &person.location_ip];
    let at = 4 + 8 + 1 + 4 * 8 + strings.iter().map(|s| 8 + s.len()).sum::<usize>();
    assert_eq!(body[at..at + 8], (person.languages.len() as u64).to_le_bytes());
    body[at..at + 8].copy_from_slice(&(1u64 << 62).to_le_bytes());
    body
}

#[test]
fn a_length_prefix_past_the_frame_decodes_to_none() {
    assert!(Request::decode(&hostile_add_person()).is_none());
}

/// A request that decodes on the event-loop thread must not be able to
/// take that thread down: the hostile frame costs its own connection only.
#[test]
fn hostile_length_prefix_severs_only_that_connection() {
    let (server, _one_server) = store_server(ServerConfig::default());
    let addr = server.local_addr();

    let mut bad = TcpStream::connect(addr).unwrap();
    bad.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    bad.write_all(&NET_MAGIC_V3).unwrap();
    let mut echo = [0u8; 8];
    bad.read_exact(&mut echo).unwrap();
    let mut payload = Vec::new();
    codec::put_corr(&mut payload, 1);
    payload.extend(hostile_add_person());
    codec::write_frame(&mut bad, &payload).unwrap();
    let mut rest = Vec::new();
    let _ = bad.read_to_end(&mut rest);
    assert_eq!(server.metrics().errors.get(), 1);

    let mut good = PipelinedClient::connect(addr.to_string()).unwrap();
    good.send(&Operation::Short(ShortQuery::S1(PersonId(1)))).unwrap();
    let (_, response) = good.recv().unwrap();
    assert!(matches!(response, Response::Outcome(..)));

    server.shutdown();
    server.join();
}

/// A stand-in SUT for the dispatch tests: every operation answers one row
/// and every partial an empty top list, except that a complex read first
/// sleeps `complex_sleep`, and with `panics` an S1 or a complex read
/// panics instead. With an `update_wait`, an update blocks: it sleeps
/// that long, standing in for a durability wait, and then sets `durable`.
#[derive(Default)]
struct Stub {
    complex_sleep: Duration,
    panics: bool,
    update_wait: Option<Duration>,
    durable: Arc<AtomicBool>,
}

impl Connector for Stub {
    fn execute(&self, op: &Operation) -> SnbResult<OpOutcome> {
        match op {
            Operation::Short(ShortQuery::S1(_)) | Operation::Complex(_) if self.panics => {
                panic!("stub SUT panics on {op:?}")
            }
            Operation::Complex(_) => std::thread::sleep(self.complex_sleep),
            Operation::Update(_) => {
                std::thread::sleep(self.update_wait.unwrap_or_default());
                self.durable.store(true, Ordering::SeqCst);
            }
            _ => {}
        }
        Ok(OpOutcome { rows: 1, ..OpOutcome::default() })
    }

    fn updates_block(&self) -> bool {
        self.update_wait.is_some()
    }

    fn execute_partial(&self, _op: &Operation) -> SnbResult<PartialOutcome> {
        Ok(PartialOutcome { partial: Partial::Top(Vec::new()), seed: None })
    }
}

fn stub_server(stub: Stub, workers: usize) -> (Server, MutexGuard<'static, ()>) {
    let guard = ONE_SERVER.lock().unwrap_or_else(|e| e.into_inner());
    let config = ServerConfig { workers, ..ServerConfig::default() };
    (Server::bind_with_config("127.0.0.1:0", Arc::new(stub), config).unwrap(), guard)
}

fn complex_read() -> Operation {
    Operation::Complex(ComplexQuery::Q7(Q7Params { person: PersonId(1) }))
}

fn update() -> Operation {
    Operation::Update(UpdateOp::AddPerson(dataset().persons[0].clone()))
}

fn ask(client: &mut PipelinedClient, op: &Operation) -> Response {
    client.send(op).unwrap();
    client.recv().unwrap().1
}

/// A panicking SUT costs the request, not the server, on both paths: the
/// S1 panics on the event-loop thread, the complex read on a worker. Each
/// is answered with an error, the connection that carried them and a fresh
/// one both keep serving, and no server thread was lost or added.
#[test]
fn a_panicking_sut_is_survived_inline_and_on_the_pool() {
    const WORKERS: usize = 2;
    let stub = Stub { panics: true, ..Stub::default() };
    let (server, _one_server) = stub_server(stub, WORKERS);
    let addr = server.local_addr().to_string();
    let mut client = PipelinedClient::connect(addr.clone()).unwrap();

    for op in [Operation::Short(ShortQuery::S1(PersonId(1))), complex_read()] {
        let response = ask(&mut client, &op);
        assert!(matches!(response, Response::Error(_)), "{op:?} answered {response:?}");
    }
    assert_eq!(server.metrics().errors.get(), 2);

    let s3 = Operation::Short(ShortQuery::S3(PersonId(1)));
    let mut fresh = PipelinedClient::connect(addr).unwrap();
    for client in [&mut client, &mut fresh] {
        let response = ask(client, &s3);
        assert!(matches!(response, Response::Outcome(..)), "S3 answered {response:?}");
    }

    #[cfg(target_os = "linux")]
    assert_eq!(server_thread_count(), 1 + WORKERS, "server threads after the panics");

    server.shutdown();
    server.join();
}

/// How far `inline_requests` moves while `call` runs.
fn inline_ticks(server: &Server, call: impl FnOnce()) -> u64 {
    let before = server.metrics().inline_requests.get();
    call();
    server.metrics().inline_requests.get() - before
}

/// Which path each request takes: the seven short reads, the S2 partial,
/// the Gct probe and an update that does not block run on the event loop;
/// a complex read, a complex partial and the counters dump go to the pool,
/// and only those record a queue wait. An update whose connector says it
/// blocks goes to the pool too, and is its one queue wait.
#[test]
fn short_reads_and_gct_run_inline_and_the_rest_on_the_pool() {
    let (server, one_server) = stub_server(Stub::default(), 2);
    let remote = RemoteConnector::connect(server.local_addr().to_string()).unwrap();

    let (p, m) = (PersonId(1), snb_core::MessageId(1));
    for s in [
        ShortQuery::S1(p),
        ShortQuery::S2(p),
        ShortQuery::S3(p),
        ShortQuery::S4(m),
        ShortQuery::S5(m),
        ShortQuery::S6(m),
        ShortQuery::S7(m),
    ] {
        let ticks = inline_ticks(&server, || {
            remote.execute(&Operation::Short(s)).unwrap();
        });
        assert_eq!(ticks, 1, "{s:?}");
    }
    let s2 = Operation::Short(ShortQuery::S2(p));
    let ticks = inline_ticks(&server, || {
        remote.execute_partial(&s2).unwrap();
    });
    assert_eq!(ticks, 1, "S2 partial");
    let ticks = inline_ticks(&server, || {
        remote.remote_gct().unwrap();
    });
    assert_eq!(ticks, 1, "Gct");
    let ticks = inline_ticks(&server, || {
        remote.execute(&update()).unwrap();
    });
    assert_eq!(ticks, 1, "an update that does not block");

    let ticks = inline_ticks(&server, || {
        remote.execute(&complex_read()).unwrap();
    });
    assert_eq!(ticks, 0, "complex read");
    let ticks = inline_ticks(&server, || {
        remote.execute_partial(&complex_read()).unwrap();
    });
    assert_eq!(ticks, 0, "complex partial");
    let ticks = inline_ticks(&server, || {
        remote.remote_counters().unwrap();
    });
    assert_eq!(ticks, 0, "counters");
    assert_eq!(server.metrics().queue_micros.count(), 3, "one queue wait per pooled request");
    drop(remote);
    server.shutdown();
    server.join();
    drop(one_server);

    let stub = Stub { update_wait: Some(Duration::from_millis(1)), ..Stub::default() };
    let (server, _one_server) = stub_server(stub, 2);
    let remote = RemoteConnector::connect(server.local_addr().to_string()).unwrap();
    let ticks = inline_ticks(&server, || {
        remote.execute(&update()).unwrap();
    });
    assert_eq!(ticks, 0, "an update that blocks");
    assert_eq!(server.metrics().queue_micros.count(), 1, "one queue wait, the update's");

    server.shutdown();
    server.join();
}

/// Acknowledged means durable, and the loop does not wait for the disk:
/// while an update blocks 300 ms on a worker (as one behind a syncing WAL
/// waits for its fsync), an S1 on a second connection is answered from
/// the event loop at once; the update's reply arrives only after its wait
/// has returned; and the wait ran on the fixed pool, not on a thread of
/// its own.
#[test]
fn a_durability_wait_neither_blocks_the_loop_nor_acks_early() {
    const WORKERS: usize = 2;
    let stub = Stub { update_wait: Some(Duration::from_millis(300)), ..Stub::default() };
    let durable = Arc::clone(&stub.durable);
    let (server, _one_server) = stub_server(stub, WORKERS);
    let addr = server.local_addr().to_string();
    let mut writer = PipelinedClient::connect(addr.clone()).unwrap();
    let mut reader = PipelinedClient::connect(addr).unwrap();

    writer.send(&update()).unwrap();
    // A worker records the queue wait as it picks the update up.
    let t0 = Instant::now();
    while server.metrics().queue_micros.count() < 1 {
        assert!(t0.elapsed() < Duration::from_secs(10), "no worker took the update");
        std::thread::yield_now();
    }

    let started = Instant::now();
    let response = ask(&mut reader, &Operation::Short(ShortQuery::S1(PersonId(1))));
    let waited = started.elapsed();
    assert!(matches!(response, Response::Outcome(..)), "S1 answered {response:?}");
    assert!(waited < Duration::from_millis(50), "S1 waited {waited:?} behind the durability wait");
    assert!(!durable.load(Ordering::SeqCst), "the 300 ms wait is still running");
    #[cfg(target_os = "linux")]
    assert_eq!(server_thread_count(), 1 + WORKERS, "server threads during a durability wait");

    let (_, response) = writer.recv().unwrap();
    assert!(durable.load(Ordering::SeqCst), "the update was acknowledged before it was durable");
    assert!(matches!(response, Response::Outcome(..)), "update answered {response:?}");
    assert_eq!(server.metrics().inline_requests.get(), 1, "the S1 alone");

    server.shutdown();
    server.join();
}

/// A short read does not wait behind slow requests: while two 300 ms
/// complex reads hold both workers, an S1 on another connection is
/// answered from the event loop at once.
#[test]
fn a_short_read_is_not_blocked_behind_busy_workers() {
    let stub = Stub { complex_sleep: Duration::from_millis(300), ..Stub::default() };
    let (server, _one_server) = stub_server(stub, 2);
    let addr = server.local_addr().to_string();
    let mut slow = PipelinedClient::connect(addr.clone()).unwrap();
    let mut fast = PipelinedClient::connect(addr).unwrap();

    slow.send(&complex_read()).unwrap();
    slow.send(&complex_read()).unwrap();
    // A worker records the queue wait as it picks a job up.
    let t0 = Instant::now();
    while server.metrics().queue_micros.count() < 2 {
        assert!(t0.elapsed() < Duration::from_secs(10), "the workers never took the reads");
        std::thread::yield_now();
    }

    let started = Instant::now();
    let response = ask(&mut fast, &Operation::Short(ShortQuery::S1(PersonId(1))));
    let waited = started.elapsed();
    assert!(matches!(response, Response::Outcome(..)), "S1 answered {response:?}");
    assert!(waited < Duration::from_millis(50), "S1 waited {waited:?} behind the workers");

    for _ in 0..2 {
        assert!(matches!(slow.recv().unwrap().1, Response::Outcome(..)));
    }
    server.shutdown();
    server.join();
}
