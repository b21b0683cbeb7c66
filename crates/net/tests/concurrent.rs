//! Thread-per-connection server tests: connection churn must not leak,
//! requests a peer writes ahead must be answered one by one in the order
//! sent, a peer with any other handshake magic must be severed, the
//! connection cap and the mid-frame stall bound must hold, and a slow
//! request must hold up only its own connection, an update being answered
//! only once it is done. Co-location: a client thread keeps its connection,
//! and so its server thread, and a loopback connection's thread moves to
//! its client's CPU.

use snb_core::time::SimTime;
use snb_core::update::UpdateOp;
use snb_core::{PersonId, SnbResult};
use snb_datagen::{generate, Dataset, GeneratorConfig};
use snb_driver::affinity::{allowed_cpus, pin_current_thread};
use snb_driver::connector::{Connector, OpOutcome, Operation, PartialOutcome, StoreConnector};
use snb_net::server::FRAME_STALL;
use snb_net::{codec, RemoteConnector, Request, Response, Server, ServerConfig, NET_MAGIC};
use snb_queries::params::{ComplexQuery, Q2Params, Q7Params, ShortQuery};
use snb_queries::sharded::Partial;
use snb_queries::Engine;
use snb_store::Store;
use std::collections::BTreeSet;
use std::io::{Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Condvar, Mutex, MutexGuard, OnceLock};
use std::thread::ThreadId;
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
/// a deadline. Reaping is asynchronous — a connection's thread learns
/// about a hangup when its next read returns.
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

/// A raw connection whose send and receive halves are decoupled, built
/// from the public codec alone: a peer may write several requests before
/// reading, and the server must answer them one at a time, in the order
/// they were sent.
struct Pipe {
    stream: TcpStream,
}

impl Pipe {
    fn connect(addr: impl ToSocketAddrs) -> Pipe {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        stream.set_nodelay(true).unwrap();
        stream.write_all(&NET_MAGIC).unwrap();
        let mut echo = [0u8; 8];
        stream.read_exact(&mut echo).unwrap();
        assert_eq!(echo, NET_MAGIC);
        Pipe { stream }
    }

    /// Write one execute request without waiting for the reply.
    fn send(&mut self, op: &Operation) {
        self.send_request(&Request::Execute(op.clone(), None));
    }

    fn send_request(&mut self, request: &Request) {
        let mut payload = Vec::new();
        request.encode(&mut payload);
        codec::write_frame(&mut self.stream, &payload).unwrap();
    }

    /// The next reply on the connection.
    fn recv(&mut self) -> Response {
        let mut frame = Vec::new();
        codec::read_frame(&mut self.stream, &mut frame).unwrap();
        Response::decode(&frame).expect("well-formed response")
    }
}

/// Threads of this process that belong to a server: the accept thread
/// and the connection threads are named `snb-net-*`, and a thread spawned
/// without a name inherits its spawner's. The test harness's own threads
/// come and go as tests finish, so they are left out.
#[cfg(target_os = "linux")]
fn server_thread_count() -> usize {
    std::fs::read_dir("/proc/self/task")
        .unwrap()
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|name| name.starts_with("snb-net-"))
        .count()
}

/// Block until the server runs `expected` threads, or panic after a
/// deadline: a reaped connection's thread exits a moment after its
/// connection ticks `closed`.
#[cfg(target_os = "linux")]
fn wait_server_threads(expected: usize, deadline: Duration) {
    let t0 = Instant::now();
    while server_thread_count() != expected {
        let running = server_thread_count();
        assert!(t0.elapsed() < deadline, "{running} server threads, expected {expected}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Satellite: connection churn must not leak. 200 connect/disconnect
/// cycles — some after a full handshake, some hung up mid-handshake — must
/// all be reaped, with `accepted - closed` settling to zero and (on Linux)
/// no thread left beyond the accept thread: every connection's thread
/// exits with it.
#[test]
fn connection_churn_is_reaped() {
    let (server, _one_server) = store_server(ServerConfig::default());
    let addr = server.local_addr();

    for i in 0..200u32 {
        let mut stream = TcpStream::connect(addr).unwrap();
        if i % 3 != 0 {
            // Full handshake, then hang up without sending a request.
            stream.write_all(&NET_MAGIC).unwrap();
            let mut echo = [0u8; 8];
            stream.read_exact(&mut echo).unwrap();
            assert_eq!(echo, NET_MAGIC);
        }
        // else: drop mid-handshake; the server sees EOF before any magic.
        drop(stream);
    }

    wait_reaped(&server, Duration::from_secs(10));
    assert_eq!(server.metrics().connections.get(), 200);

    #[cfg(target_os = "linux")]
    wait_server_threads(1, Duration::from_secs(10));

    // The server still works after all that churn.
    let mut client = Pipe::connect(addr);
    client.send(&Operation::Short(ShortQuery::S1(PersonId(1))));
    let response = client.recv();
    assert!(matches!(response, Response::Outcome(..)), "got {response:?}");

    server.shutdown();
    server.join();
}

/// One connection writes 200 requests before reading any reply, cycling
/// a Q2 (milliseconds), an S1 (a microsecond), a counters dump and a Gct
/// probe. The server answers them one at a time, so the replies come back
/// in exactly that cycle — a fast reply never overtakes a slow one — and
/// none is an error.
#[test]
fn a_peer_writing_ahead_is_answered_in_order() {
    const REQUESTS: usize = 200;
    let (server, _one_server) = store_server(ServerConfig::default());
    let mut client = Pipe::connect(server.local_addr());

    for i in 0..REQUESTS {
        let person = PersonId((i % 200) as u64);
        client.send_request(&match i % 4 {
            0 => Request::Execute(q2(person), None),
            1 => Request::Execute(Operation::Short(ShortQuery::S1(person)), None),
            2 => Request::Counters,
            _ => Request::Gct,
        });
    }
    for i in 0..REQUESTS {
        let response = client.recv();
        let in_order = match i % 4 {
            0 | 1 => matches!(response, Response::Outcome(..)),
            2 => matches!(response, Response::Counters { .. }),
            _ => matches!(response, Response::Gct { .. }),
        };
        assert!(in_order, "reply {i} is {response:?}");
    }
    assert_eq!(server.metrics().errors.get(), 0);

    drop(client);
    wait_reaped(&server, Duration::from_secs(10));
    server.shutdown();
    server.join();
}

fn q2(person: PersonId) -> Operation {
    Operation::Complex(ComplexQuery::Q2(Q2Params { person, max_date: SimTime(i64::MAX) }))
}

/// The retired v2 and v3 magics are severed without an echo and counted as
/// protocol errors, exactly like any other unknown magic.
#[test]
fn unknown_magic_is_severed() {
    let (server, _one_server) = store_server(ServerConfig::default());

    for (i, magic) in [*b"SNBNET2\0", *b"SNBNET3\0", *b"GET / HT"].iter().enumerate() {
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

/// 32 clients connect, then all at once write 50 short reads each before
/// reading the replies: every request is answered without an error, and
/// once the clients hang up the server has reaped every connection it
/// accepted.
#[test]
fn simultaneous_clients_see_no_errors_and_are_reaped() {
    const CLIENTS: usize = 32;
    const READS: usize = 50;
    let (server, _one_server) = store_server(ServerConfig::default());
    let addr = server.local_addr();
    let start = Barrier::new(CLIENTS);

    std::thread::scope(|scope| {
        for c in 0..CLIENTS {
            let start = &start;
            scope.spawn(move || {
                let mut client = Pipe::connect(addr);
                start.wait();
                for i in 0..READS {
                    let person = PersonId(((c * READS + i) % 200) as u64);
                    client.send(&Operation::Short(ShortQuery::S1(person)));
                }
                for _ in 0..READS {
                    let response = client.recv();
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
    bad.write_all(&NET_MAGIC).unwrap();
    let mut echo = [0u8; 8];
    bad.read_exact(&mut echo).unwrap();
    // Well-framed garbage: valid length prefix, junk payload.
    codec::write_frame(&mut bad, &[0xDE, 0xAD, 0xBE, 0xEF, 0x01, 0x02, 0x03, 0x04, 0x05]).unwrap();
    // The server replies with an error frame (best effort) and closes; EOF
    // follows either way.
    let mut rest = Vec::new();
    let _ = bad.read_to_end(&mut rest);

    // A healthy client on the same server is unaffected.
    let mut good = Pipe::connect(addr);
    good.send(&Operation::Short(ShortQuery::S1(PersonId(1))));
    let response = good.recv();
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

/// A hostile frame, decoded on its connection's thread, costs that
/// connection only: every other connection is still served.
#[test]
fn hostile_length_prefix_severs_only_that_connection() {
    let (server, _one_server) = store_server(ServerConfig::default());
    let addr = server.local_addr();

    let mut bad = TcpStream::connect(addr).unwrap();
    bad.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    bad.write_all(&NET_MAGIC).unwrap();
    let mut echo = [0u8; 8];
    bad.read_exact(&mut echo).unwrap();
    codec::write_frame(&mut bad, &hostile_add_person()).unwrap();
    let mut rest = Vec::new();
    let _ = bad.read_to_end(&mut rest);
    assert_eq!(server.metrics().errors.get(), 1);

    let mut good = Pipe::connect(addr);
    good.send(&Operation::Short(ShortQuery::S1(PersonId(1))));
    let response = good.recv();
    assert!(matches!(response, Response::Outcome(..)));

    server.shutdown();
    server.join();
}

/// A stand-in SUT for the slow-request tests: every operation answers one
/// row and every partial an empty top list, except that a complex read
/// first sleeps `complex_sleep`, and with `panics` an S1 or a complex read
/// panics instead. An update sleeps `update_wait`, standing in for a
/// durability wait, and then sets `durable`.
#[derive(Default)]
struct Stub {
    complex_sleep: Duration,
    panics: bool,
    update_wait: Duration,
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
                std::thread::sleep(self.update_wait);
                self.durable.store(true, Ordering::SeqCst);
            }
            _ => {}
        }
        Ok(OpOutcome { rows: 1, ..OpOutcome::default() })
    }

    fn execute_partial(&self, _op: &Operation) -> SnbResult<PartialOutcome> {
        Ok(PartialOutcome { partial: Partial::Top(Vec::new()), seed: None })
    }
}

fn stub_server(stub: Stub) -> (Server, MutexGuard<'static, ()>) {
    let guard = ONE_SERVER.lock().unwrap_or_else(|e| e.into_inner());
    (Server::bind("127.0.0.1:0", Arc::new(stub)).unwrap(), guard)
}

fn complex_read() -> Operation {
    Operation::Complex(ComplexQuery::Q7(Q7Params { person: PersonId(1) }))
}

fn s1() -> Operation {
    Operation::Short(ShortQuery::S1(PersonId(1)))
}

fn update() -> Operation {
    Operation::Update(UpdateOp::AddPerson(dataset().persons[0].clone()))
}

fn ask(client: &mut Pipe, op: &Operation) -> Response {
    client.send(op);
    client.recv()
}

/// Block until the server has begun serving `n` requests in all.
fn wait_requests(server: &Server, n: u64) {
    let t0 = Instant::now();
    while server.metrics().requests.get() < n {
        assert!(t0.elapsed() < Duration::from_secs(10), "the server never took the requests");
        std::thread::yield_now();
    }
}

/// A panicking SUT costs the request, not the server, for a short read
/// and a complex read alike. Each is answered with an error, the
/// connection that carried them and a fresh one both keep serving, and the
/// server runs the accept thread plus one thread per connection.
#[test]
fn a_panicking_sut_is_survived_inline_and_on_the_pool() {
    let stub = Stub { panics: true, ..Stub::default() };
    let (server, _one_server) = stub_server(stub);
    let addr = server.local_addr();
    let mut client = Pipe::connect(addr);

    for op in [s1(), complex_read()] {
        let response = ask(&mut client, &op);
        assert!(matches!(response, Response::Error(_)), "{op:?} answered {response:?}");
    }
    assert_eq!(server.metrics().errors.get(), 2);

    let s3 = Operation::Short(ShortQuery::S3(PersonId(1)));
    let mut fresh = Pipe::connect(addr);
    for client in [&mut client, &mut fresh] {
        let response = ask(client, &s3);
        assert!(matches!(response, Response::Outcome(..)), "S3 answered {response:?}");
    }

    #[cfg(target_os = "linux")]
    assert_eq!(server_thread_count(), 1 + 2, "server threads after the panics");

    server.shutdown();
    server.join();
}

/// Acknowledged means durable, and no other connection waits for the
/// disk: while an update blocks 300 ms (as one behind a syncing WAL waits
/// for its fsync), an S1 on a second connection is answered at once; the
/// update's reply arrives only after its wait has returned.
#[test]
fn a_durability_wait_neither_blocks_the_loop_nor_acks_early() {
    let stub = Stub { update_wait: Duration::from_millis(300), ..Stub::default() };
    let durable = Arc::clone(&stub.durable);
    let (server, _one_server) = stub_server(stub);
    let addr = server.local_addr();
    let mut writer = Pipe::connect(addr);
    let mut reader = Pipe::connect(addr);

    writer.send(&update());
    wait_requests(&server, 1);

    let started = Instant::now();
    let response = ask(&mut reader, &s1());
    let waited = started.elapsed();
    assert!(matches!(response, Response::Outcome(..)), "S1 answered {response:?}");
    assert!(waited < Duration::from_millis(50), "S1 waited {waited:?} behind the durability wait");
    assert!(!durable.load(Ordering::SeqCst), "the 300 ms wait is still running");

    let response = writer.recv();
    assert!(durable.load(Ordering::SeqCst), "the update was acknowledged before it was durable");
    assert!(matches!(response, Response::Outcome(..)), "update answered {response:?}");

    server.shutdown();
    server.join();
}

/// A short read does not wait behind slow requests: while two 300 ms
/// complex reads from two other connections run, an S1 is answered at
/// once.
#[test]
fn a_short_read_is_not_blocked_behind_busy_workers() {
    let stub = Stub { complex_sleep: Duration::from_millis(300), ..Stub::default() };
    let (server, _one_server) = stub_server(stub);
    let addr = server.local_addr();
    let mut slow = [Pipe::connect(addr), Pipe::connect(addr)];
    let mut fast = Pipe::connect(addr);

    for client in &mut slow {
        client.send(&complex_read());
    }
    wait_requests(&server, 2);

    let started = Instant::now();
    let response = ask(&mut fast, &s1());
    let waited = started.elapsed();
    assert!(matches!(response, Response::Outcome(..)), "S1 answered {response:?}");
    assert!(waited < Duration::from_millis(50), "S1 waited {waited:?} behind the workers");

    for client in &mut slow {
        assert!(matches!(client.recv(), Response::Outcome(..)));
    }
    server.shutdown();
    server.join();
}

/// With `max_connections: 4`, four handshaken connections are served, each
/// on a thread of its own, and a fifth is closed at once — EOF in place of
/// the echo — and counted as an error. Once the four hang up they are
/// reaped, their threads exit, and a new connection is answered.
#[test]
fn a_connection_past_the_cap_is_closed_at_once() {
    const CAP: usize = 4;
    let (server, _one_server) =
        store_server(ServerConfig { max_connections: CAP, ..ServerConfig::default() });
    let addr = server.local_addr();
    let mut pipes: Vec<Pipe> = (0..CAP).map(|_| Pipe::connect(addr)).collect();
    for pipe in &mut pipes {
        let response = ask(pipe, &s1());
        assert!(matches!(response, Response::Outcome(..)), "got {response:?}");
    }

    let mut fifth = TcpStream::connect(addr).unwrap();
    fifth.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut echo = [0u8; 8];
    assert_eq!(fifth.read(&mut echo).unwrap(), 0, "the fifth connection was not closed");
    assert_eq!(server.metrics().errors.get(), 1);
    assert_eq!(server.metrics().connections.get(), CAP as u64);
    #[cfg(target_os = "linux")]
    assert_eq!(server_thread_count(), 1 + CAP, "the accept thread and one per connection");

    drop(pipes);
    drop(fifth);
    wait_reaped(&server, Duration::from_secs(10));
    #[cfg(target_os = "linux")]
    wait_server_threads(1, Duration::from_secs(10));
    let mut fresh = Pipe::connect(addr);
    let response = ask(&mut fresh, &s1());
    assert!(matches!(response, Response::Outcome(..)), "got {response:?}");

    server.shutdown();
    server.join();
}

/// A peer that sends 2 bytes of a length prefix and then nothing is
/// severed once the frame has stalled for `FRAME_STALL`, and so is one
/// that connects and never sends the magic; each counts as an error. A
/// handshaken connection that sends nothing at all meanwhile is idle
/// between frames, not stalled, and is still answered afterwards.
#[test]
fn a_peer_stalled_mid_frame_is_severed_and_an_idle_one_is_not() {
    let (server, _one_server) = store_server(ServerConfig::default());
    let addr = server.local_addr();
    let mut idle = Pipe::connect(addr);
    let mut staller = Pipe::connect(addr);
    let mut silent = TcpStream::connect(addr).unwrap();

    staller.stream.write_all(&[9, 0]).unwrap();
    let started = Instant::now();
    for stream in [&mut staller.stream, &mut silent] {
        stream.set_read_timeout(Some(FRAME_STALL + Duration::from_secs(2))).unwrap();
        let mut rest = Vec::new();
        let read = stream.read_to_end(&mut rest);
        let waited = started.elapsed();
        assert!(read.is_ok() && rest.is_empty(), "a stalled peer read {read:?}, {rest:?}");
        assert!(waited > FRAME_STALL - Duration::from_secs(1), "severed after {waited:?}");
        assert!(waited < FRAME_STALL + Duration::from_secs(2), "severed after {waited:?}");
    }
    assert_eq!(server.metrics().errors.get(), 2);

    let response = ask(&mut idle, &s1());
    assert!(matches!(response, Response::Outcome(..)), "the idle connection got {response:?}");

    server.shutdown();
    server.join();
}

/// A stand-in SUT that answers each operation with the index of the thread
/// serving it (in the order the threads were first seen) as its row count,
/// and records that thread's CPU set. With a `gate`, the first
/// [`CLIENT_THREADS`] requests wait until all of them are being served at
/// once.
#[derive(Default)]
struct Whoami {
    gate: Option<Barrier>,
    calls: AtomicUsize,
    threads: Mutex<Vec<ThreadId>>,
    cpus: Mutex<Vec<Vec<usize>>>,
}

impl Connector for Whoami {
    fn execute(&self, _op: &Operation) -> SnbResult<OpOutcome> {
        let me = std::thread::current().id();
        let index = {
            let mut threads = self.threads.lock().unwrap();
            match threads.iter().position(|&t| t == me) {
                Some(i) => i,
                None => {
                    threads.push(me);
                    threads.len() - 1
                }
            }
        };
        self.cpus.lock().unwrap().push(allowed_cpus());
        if let Some(gate) = &self.gate {
            if self.calls.fetch_add(1, Ordering::SeqCst) < CLIENT_THREADS {
                gate.wait();
            }
        }
        Ok(OpOutcome { rows: index, ..OpOutcome::default() })
    }

    fn execute_partial(&self, _op: &Operation) -> SnbResult<PartialOutcome> {
        Ok(PartialOutcome { partial: Partial::Top(Vec::new()), seed: None })
    }
}

/// The two client threads of the sticky-pool test.
const CLIENT_THREADS: usize = 2;

/// The pool gives a thread back the connection it used last. Two threads
/// first have a request in flight at once, so the pool dials a second
/// connection; then they alternate, 200 requests each, through the one
/// `RemoteConnector`. Each thread is served by one server thread
/// throughout, a different one from the other's, over the server's only
/// two connections. A pool that hands out the most recently returned
/// connection gives the thread whose turn comes next the one the other
/// thread just returned.
#[test]
fn each_client_thread_keeps_its_connection() {
    let _one_server = ONE_SERVER.lock().unwrap_or_else(|e| e.into_inner());
    let stub = Arc::new(Whoami { gate: Some(Barrier::new(CLIENT_THREADS)), ..Whoami::default() });
    let server = Server::bind("127.0.0.1:0", Arc::clone(&stub) as Arc<dyn Connector>).unwrap();
    let client = RemoteConnector::connect(server.local_addr().to_string()).unwrap();
    let turn = (Mutex::new(0usize), Condvar::new());

    let served: Vec<BTreeSet<usize>> = std::thread::scope(|scope| {
        let threads: Vec<_> = (0..CLIENT_THREADS)
            .map(|me| {
                let (client, turn) = (&client, &turn);
                scope.spawn(move || {
                    let mut served = BTreeSet::new();
                    served.insert(client.execute(&s1()).unwrap().rows);
                    for round in 0..200 {
                        let (count, turned) = turn;
                        let mut next = count.lock().unwrap();
                        while *next != round * CLIENT_THREADS + me {
                            next = turned.wait(next).unwrap();
                        }
                        served.insert(client.execute(&s1()).unwrap().rows);
                        *next += 1;
                        turned.notify_all();
                    }
                    served
                })
            })
            .collect();
        threads.into_iter().map(|t| t.join().unwrap()).collect()
    });

    for (me, rows) in served.iter().enumerate() {
        assert_eq!(rows.len(), 1, "client thread {me} was served by server threads {rows:?}");
    }
    assert_ne!(served[0], served[1], "both client threads were served by one server thread");
    assert_eq!(server.metrics().connections.get(), CLIENT_THREADS as u64);

    drop(client);
    server.shutdown();
    server.join();
}

/// A loopback connection's thread moves to the CPU its requests arrive
/// from: a client thread pinned to the last allowed CPU sends requests, and
/// every one is executed by a thread allowed on that CPU alone.
#[test]
fn a_loopback_connection_thread_moves_to_its_clients_cpu() {
    let allowed = allowed_cpus();
    let stub = Arc::new(Whoami::default());
    let _one_server = ONE_SERVER.lock().unwrap_or_else(|e| e.into_inner());
    let server = Server::bind("127.0.0.1:0", Arc::clone(&stub) as Arc<dyn Connector>).unwrap();
    let addr = server.local_addr();
    let cpu = allowed.last().copied();

    std::thread::spawn(move || {
        if let Some(cpu) = cpu {
            assert!(pin_current_thread(cpu));
        }
        let mut client = Pipe::connect(addr);
        for _ in 0..20 {
            assert!(matches!(ask(&mut client, &s1()), Response::Outcome(..)));
        }
    })
    .join()
    .unwrap();

    let cpus = stub.cpus.lock().unwrap().clone();
    assert_eq!(cpus.len(), 20);
    if allowed.len() < 2 {
        eprintln!("skipped the CPU check: only {allowed:?} is allowed, so nothing moves");
    } else {
        let cpu = cpu.unwrap();
        for (i, seen) in cpus.iter().enumerate() {
            assert_eq!(seen, &vec![cpu], "request {i} ran outside its client's CPU {cpu}");
        }
    }
    server.shutdown();
    server.join();
}
