//! Loopback integration tests: the full driver workload through
//! `RemoteConnector` → TCP → `Server` → `StoreConnector` must behave
//! exactly like the in-process path, and failures must be prompt, not
//! hangs.

use snb_core::time::SimTime;
use snb_core::{MessageId, PersonId, SnbError};
use snb_datagen::{generate, Dataset, GeneratorConfig};
use snb_driver::connector::{Connector, OpOutcome, Operation, SleepConnector, StoreConnector};
use snb_driver::mix::{self, WorkItem};
use snb_driver::scheduler::{run, DriverConfig};
use snb_net::{codec, RemoteConnector, Request, Response, Server};
use snb_queries::params::{
    ComplexQuery, Q10Params, Q11Params, Q12Params, Q13Params, Q14Params, Q1Params, Q2Params,
    Q3Params, Q4Params, Q5Params, Q6Params, Q7Params, Q8Params, Q9Params, ShortQuery,
};
use snb_queries::Engine;
use snb_store::Store;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

fn dataset() -> &'static Dataset {
    static DS: OnceLock<Dataset> = OnceLock::new();
    DS.get_or_init(|| generate(GeneratorConfig::with_persons(300).activity(0.5)).unwrap())
}

fn store_server(ds: &Dataset) -> Server {
    let store = Arc::new(Store::new());
    store.bulk_load(ds);
    let connector = Arc::new(StoreConnector::new(store, Engine::Intended));
    Server::bind("127.0.0.1:0", connector).unwrap()
}

fn every_complex() -> Vec<ComplexQuery> {
    let p = PersonId(7);
    vec![
        ComplexQuery::Q1(Q1Params { person: p, first_name: "Käthe".into() }),
        ComplexQuery::Q2(Q2Params { person: p, max_date: SimTime(123_456) }),
        ComplexQuery::Q3(Q3Params {
            person: p,
            country_x: 3,
            country_y: 9,
            start: SimTime(-5),
            duration_days: 28,
        }),
        ComplexQuery::Q4(Q4Params { person: p, start: SimTime(77), duration_days: 30 }),
        ComplexQuery::Q5(Q5Params { person: p, min_date: SimTime(i64::MIN) }),
        ComplexQuery::Q6(Q6Params { person: p, tag: 11 }),
        ComplexQuery::Q7(Q7Params { person: p }),
        ComplexQuery::Q8(Q8Params { person: p }),
        ComplexQuery::Q9(Q9Params { person: p, max_date: SimTime(i64::MAX) }),
        ComplexQuery::Q10(Q10Params { person: p, month: 12 }),
        ComplexQuery::Q11(Q11Params { person: p, country: 2, max_year: 2010 }),
        ComplexQuery::Q12(Q12Params { person: p, tag_class: 4 }),
        ComplexQuery::Q13(Q13Params { person_x: p, person_y: PersonId(8) }),
        ComplexQuery::Q14(Q14Params { person_x: p, person_y: PersonId(9) }),
    ]
}

fn every_short() -> Vec<ShortQuery> {
    vec![
        ShortQuery::S1(PersonId(1)),
        ShortQuery::S2(PersonId(2)),
        ShortQuery::S3(PersonId(3)),
        ShortQuery::S4(MessageId(4)),
        ShortQuery::S5(MessageId(5)),
        ShortQuery::S6(MessageId(6)),
        ShortQuery::S7(MessageId(7)),
    ]
}

fn request_round_trip(req: &Request) -> Request {
    let mut buf = Vec::new();
    req.encode(&mut buf);
    Request::decode(&buf).expect("request must decode")
}

fn response_round_trip(resp: &Response) -> Response {
    let mut buf = Vec::new();
    resp.encode(&mut buf);
    Response::decode(&buf).expect("response must decode")
}

/// Every operation variant — all 14 complex reads, all 7 short reads, and
/// every update kind the generator emits — survives a request round trip.
#[test]
fn codec_round_trips_every_operation_variant() {
    let mut ops: Vec<Operation> = Vec::new();
    ops.extend(every_complex().into_iter().map(Operation::Complex));
    ops.extend(every_short().into_iter().map(Operation::Short));
    // All 8 update kinds appear in a generated stream.
    let mut kinds_seen = std::collections::BTreeSet::new();
    for u in dataset().update_stream() {
        if kinds_seen.insert(u.op.query_number()) {
            ops.push(Operation::Update(u.op.clone()));
        }
    }
    assert!(kinds_seen.len() >= 7, "update stream only covered {kinds_seen:?}");

    for op in &ops {
        // Both without and with a propagated trace context.
        let decoded = request_round_trip(&Request::Execute(op.clone(), None));
        let Request::Execute(back, ctx) = decoded else { panic!("wrong request variant") };
        assert_eq!(format!("{op:?}"), format!("{back:?}"));
        assert_eq!(ctx, None);
        let decoded = request_round_trip(&Request::Execute(op.clone(), Some((77, 12))));
        let Request::Execute(back, ctx) = decoded else { panic!("wrong request variant") };
        assert_eq!(format!("{op:?}"), format!("{back:?}"));
        assert_eq!(ctx, Some((77, 12)));
    }
    assert!(matches!(request_round_trip(&Request::Counters), Request::Counters));
}

/// Outcomes, all four error kinds, and counters dumps survive a response
/// round trip.
#[test]
fn codec_round_trips_every_response_variant() {
    let outcomes = [
        OpOutcome { rows: 0, seed_person: None, seed_message: None },
        OpOutcome { rows: 42, seed_person: Some(PersonId(3)), seed_message: None },
        OpOutcome { rows: 1, seed_person: None, seed_message: Some(MessageId(u64::MAX)) },
        OpOutcome { rows: 7, seed_person: Some(PersonId(0)), seed_message: Some(MessageId(9)) },
    ];
    let sample_spans = vec![
        snb_obs::trace::SpanData {
            trace_id: 9,
            span_id: 10,
            parent_id: 3,
            name: "server.execute".into(),
            start_us: 100,
            dur_us: 50,
            tid: 2,
            process: "server",
        },
        snb_obs::trace::SpanData {
            trace_id: 9,
            span_id: 11,
            parent_id: 10,
            name: "store.stage.apply".into(),
            start_us: 110,
            dur_us: 20,
            tid: 2,
            process: "server",
        },
    ];
    for out in outcomes {
        for spans in [Vec::new(), sample_spans.clone()] {
            let Response::Outcome(back, back_spans) =
                response_round_trip(&Response::Outcome(out, spans.clone()))
            else {
                panic!("wrong response variant")
            };
            assert_eq!(back.rows, out.rows);
            assert_eq!(back.seed_person, out.seed_person);
            assert_eq!(back.seed_message, out.seed_message);
            assert_eq!(back_spans, spans, "piggybacked spans must survive the wire");
        }
    }

    let errors = [
        SnbError::NotFound { entity: "forum", id: 443 },
        SnbError::Constraint("duplicate knows edge".into()),
        SnbError::Config("bad flag".into()),
        SnbError::Io(std::io::Error::other("socket gone")),
    ];
    for e in errors {
        let msg = e.to_string();
        let Response::Error(back) = response_round_trip(&Response::Error(e)) else {
            panic!("wrong response variant")
        };
        assert_eq!(back.to_string(), msg);
    }

    let counters =
        vec![("net.server.requests".to_string(), 12u64), ("store.wal.bytes".to_string(), 0)];
    let live = snb_obs::LatencyHistogram::new();
    for v in [1, 5, 1000, 123_456, 7] {
        live.record(v);
    }
    let histograms = vec![
        ("store.stage.apply_nanos".to_string(), live.snapshot()),
        ("empty".to_string(), snb_obs::HistogramSnapshot::default()),
    ];
    let Response::Counters { counters: back, histograms: back_h } =
        response_round_trip(&Response::Counters {
            counters: counters.clone(),
            histograms: histograms.clone(),
        })
    else {
        panic!("wrong response variant")
    };
    assert_eq!(back, counters);
    assert_eq!(back_h, histograms, "histogram snapshots must survive the wire losslessly");
    assert_eq!(back_h[0].1.value_at_quantile(0.99), live.value_at_quantile(0.99));
}

/// The v3 sharding extensions — partial requests, both partial response
/// shapes, and the GCT RPC — survive the wire losslessly.
#[test]
fn codec_round_trips_sharding_frames() {
    use snb_queries::sharded::{GroupRow, MergedRow, Partial};

    for op in every_complex().into_iter().map(Operation::Complex) {
        let decoded = request_round_trip(&Request::Partial(op.clone()));
        let Request::Partial(back) = decoded else { panic!("wrong request variant") };
        assert_eq!(format!("{op:?}"), format!("{back:?}"));
    }
    assert!(matches!(request_round_trip(&Request::Gct), Request::Gct));

    let top = Partial::Top(vec![
        MergedRow {
            key: [-5, 3, 0],
            cols: vec![1, -2, i64::MAX],
            text: vec!["Käthe".into(), String::new()],
        },
        MergedRow { key: [i64::MIN, i64::MAX, 7], cols: vec![], text: vec![] },
    ]);
    let groups = Partial::Groups {
        rows: vec![GroupRow { k1: 9, k2: u64::MAX, a: -4, b: 11 }],
        pairs: vec![(1, 2), (3, 4)],
        paths: vec![vec![1, 2, 3], vec![]],
    };
    let seeds = [Some((u64::MAX, i64::MIN)), None, Some((7, -3))];
    for (p, seed) in [top, groups, Partial::Top(vec![])].into_iter().zip(seeds) {
        let Response::Partial(back, s) = response_round_trip(&Response::Partial(p.clone(), seed))
        else {
            panic!("wrong response variant")
        };
        assert_eq!((back, s), (p, seed), "partial + seed must survive the wire losslessly");
    }
    // Tag 1 retired with the top layout that shipped a limit word: a peer
    // still sending it is refused rather than misread.
    let mut retired = Vec::new();
    Response::Partial(Partial::Top(vec![]), None).encode(&mut retired);
    retired[1] = 1;
    assert!(Response::decode(&retired).is_none(), "retired partial tag must not decode");

    let Response::Gct { shard, shards, horizon } =
        response_round_trip(&Response::Gct { shard: 1, shards: 4, horizon: -123 })
    else {
        panic!("wrong response variant")
    };
    assert_eq!((shard, shards, horizon), (1, 4, -123));
}

/// Truncated or trailing-garbage payloads must be rejected, and the framing
/// layer must refuse absurd lengths instead of allocating them.
#[test]
fn codec_rejects_malformed_input() {
    let mut buf = Vec::new();
    Request::Execute(Operation::Short(ShortQuery::S1(PersonId(5))), None).encode(&mut buf);
    assert!(Request::decode(&buf[..buf.len() - 1]).is_none(), "truncation must fail");
    buf.push(0xFF);
    assert!(Request::decode(&buf).is_none(), "trailing bytes must fail");
    assert!(Request::decode(&[]).is_none());
    assert!(Request::decode(&[99]).is_none(), "unknown tag must fail");

    // A length prefix past MAX_FRAME is rejected before any payload read.
    let huge = (codec::MAX_FRAME as u32 + 1).to_le_bytes();
    let mut cursor = &huge[..];
    let err = codec::read_frame(&mut cursor, &mut Vec::new()).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    // Zero-length frames are likewise invalid.
    let zero = 0u32.to_le_bytes();
    let mut cursor = &zero[..];
    assert!(codec::read_frame(&mut cursor, &mut Vec::new()).is_err());

    // A field wider on the wire than in memory must fit, not be truncated:
    // a Gct reply from shard 2^32 would otherwise pass as shard 0.
    let mut buf = Vec::new();
    Response::Gct { shard: 0, shards: 2, horizon: 0 }.encode(&mut buf);
    assert!(Response::decode(&buf).is_some());
    buf[1..9].copy_from_slice(&(1u64 << 32).to_le_bytes());
    assert!(Response::decode(&buf).is_none(), "shard past u32 must fail");
    // Likewise a Q11 year past i32, its last field.
    let q11 = ComplexQuery::Q11(Q11Params { person: PersonId(1), country: 2, max_year: 2010 });
    let mut buf = Vec::new();
    Request::Execute(Operation::Complex(q11), None).encode(&mut buf);
    assert!(Request::decode(&buf).is_some());
    let at = buf.len() - 8;
    buf[at..].copy_from_slice(&(i64::from(i32::MAX) + 1).to_le_bytes());
    assert!(Request::decode(&buf).is_none(), "max_year past i32 must fail");
}

/// Acceptance criterion: the full update stream driven through the remote
/// connector completes and executes exactly as many operations as the
/// in-process run, and both stores converge to the same counters.
#[test]
fn updates_only_loopback_matches_in_process() {
    let ds = dataset();
    let items = mix::updates_only(ds);
    assert!(!items.is_empty());
    let config = DriverConfig { partitions: 4, ..DriverConfig::default() };

    let local_store = Arc::new(Store::new());
    local_store.bulk_load(ds);
    let local = StoreConnector::new(Arc::clone(&local_store), Engine::Intended);
    let local_report = run(&items, &local, &config).unwrap();

    let server = store_server(ds);
    let remote = RemoteConnector::connect(server.local_addr().to_string()).unwrap();
    let remote_report = run(&items, &remote, &config).unwrap();

    assert_eq!(remote_report.total_ops, local_report.total_ops);
    assert_eq!(remote_report.total_ops, items.len(), "updates only: no walk short reads");
    server.shutdown();
    server.join();
}

/// Acceptance criterion: the full interactive mix (updates, complex reads,
/// short-read walks) through the wire equals the in-process run, op for
/// op, and the counters RPC exposes both SUT and net counters.
#[test]
fn mix_loopback_matches_in_process() {
    let ds = dataset();
    let bindings = snb_params::uniform_bindings(ds, 64, 7);
    let items = mix::build_mix(ds, &bindings);
    let config = DriverConfig { partitions: 4, ..DriverConfig::default() };

    let local_store = Arc::new(Store::new());
    local_store.bulk_load(ds);
    let local = StoreConnector::new(Arc::clone(&local_store), Engine::Intended);
    let local_report = run(&items, &local, &config).unwrap();
    assert!(local_report.total_ops > items.len(), "walk must add short reads");

    let server = store_server(ds);
    let remote = RemoteConnector::connect(server.local_addr().to_string()).unwrap();
    let remote_report = run(&items, &remote, &config).unwrap();

    assert_eq!(
        remote_report.total_ops, local_report.total_ops,
        "remote run must execute the identical operation count (walks included)"
    );

    // The counters RPC merges SUT counters with the server's net counters.
    let (counters, histograms) = remote.remote_counters().unwrap();
    let get = |name: &str| {
        counters.iter().find(|(n, _)| n == name).map(|&(_, v)| v).unwrap_or_else(|| {
            panic!("counter {name} missing from RPC dump");
        })
    };
    assert!(get("net.server.requests") as usize >= remote_report.total_ops);
    assert!(get("net.server.bytes_in") > 0);
    assert!(get("net.server.bytes_out") > 0);
    assert!(counters.iter().any(|(n, _)| n.starts_with("store.")), "SUT counters must be merged");
    // ... and the RPC carries the SUT's full histogram snapshots, so a
    // remote run's disclosure equals an in-process run's.
    let apply = histograms
        .iter()
        .find(|(n, _)| n == "store.stage.apply_nanos")
        .map(|(_, h)| h)
        .expect("stage histograms missing from RPC dump");
    assert!(apply.count > 0, "writes recorded stage samples");
    assert!(histograms.iter().any(|(n, _)| n == "net.server.request_micros"));
    // Driver-side counters surface through the Connector trait.
    let client_side = remote.counters();
    assert!(client_side.iter().any(|(n, _)| n == "net.client.requests"));
    let client_hists = remote.histograms();
    assert!(client_hists.iter().any(|(n, h)| n == "net.client.request_micros" && !h.is_empty()));
    assert!(client_hists.iter().any(|(n, _)| n == "store.stage.apply_nanos"));
    // The report built over the wire therefore carries the same stage
    // histogram names as an in-process report.
    let local_names: std::collections::BTreeSet<&str> =
        local_report.connector_histograms.iter().map(|(n, _)| n.as_str()).collect();
    let remote_names: std::collections::BTreeSet<&str> = remote_report
        .connector_histograms
        .iter()
        .filter(|(n, _)| !n.starts_with("net."))
        .map(|(n, _)| n.as_str())
        .collect();
    assert_eq!(local_names, remote_names, "remote disclosure must match in-process");
    // Same equality for counter names: everything the store registers —
    // including the store.mem.* memory gauges — must surface identically
    // in a remote report and an in-process one (the remote side adds only
    // net.* client/server counters on top).
    let local_counter_names: std::collections::BTreeSet<&str> =
        local_report.connector_counters.iter().map(|(n, _)| n.as_str()).collect();
    let remote_counter_names: std::collections::BTreeSet<&str> = remote_report
        .connector_counters
        .iter()
        .filter(|(n, _)| !n.starts_with("net."))
        .map(|(n, _)| n.as_str())
        .collect();
    assert_eq!(local_counter_names, remote_counter_names, "counter names must match in-process");
    for name in ["store.mem.run_bytes.person_messages", "store.mem.dict_bytes"] {
        assert!(local_counter_names.contains(name), "{name} missing from disclosure");
    }
    // The gauges carry measured values, not zeros: the loaded store holds
    // real index runs on both sides of the wire.
    let mem_value = |report: &snb_driver::RunReport, name: &str| {
        report
            .connector_counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
            .unwrap_or_default()
    };
    assert!(mem_value(&local_report, "store.mem.index_bytes") > 0);
    assert!(mem_value(&remote_report, "store.mem.index_bytes") > 0);
    // At most one connection per partition, plus the eager validation dial.
    assert!(remote.metrics().connections.get() <= config.partitions as u64 + 1);
}

/// Tentpole acceptance: with tracing enabled, a loopback run produces ONE
/// trace per operation that stitches client queue → wire RTT → server
/// execution, and the whole set renders as a well-formed Chrome trace.
#[test]
fn loopback_trace_stitches_client_and_server_spans() {
    use snb_obs::trace;

    let ds = dataset();
    let server = store_server(ds);
    let remote = RemoteConnector::connect(server.local_addr().to_string()).unwrap();

    trace::enable(1);
    let out = remote
        .execute(&Operation::Complex(ComplexQuery::Q2(Q2Params {
            person: PersonId(0),
            max_date: SimTime(i64::MAX),
        })))
        .unwrap();
    trace::disable();
    assert_eq!(out.seed_person, Some(PersonId(0)));

    let spans = trace::drain();
    let wire =
        spans.iter().find(|s| s.name == "net.client.request").expect("client wire span recorded");
    assert_eq!(wire.process, "driver");
    let server_root = spans
        .iter()
        .find(|s| s.name == "server.execute")
        .expect("server spans piggybacked on the response");
    assert_eq!(server_root.process, "server");
    assert_eq!(server_root.trace_id, wire.trace_id, "one trace across the wire");
    assert_eq!(server_root.parent_id, wire.span_id, "server root hangs off the wire span");
    // Re-anchored server time lies within the client's wire span.
    assert!(server_root.start_us >= wire.start_us);
    assert!(
        server_root.start_us + server_root.dur_us <= wire.start_us + wire.dur_us,
        "server root [{} +{}] escapes wire [{} +{}]",
        server_root.start_us,
        server_root.dur_us,
        wire.start_us,
        wire.dur_us,
    );
    // The server-side read path recorded children under its root.
    let trace_spans: Vec<_> =
        spans.iter().filter(|s| s.trace_id == wire.trace_id).cloned().collect();
    assert!(
        trace_spans.iter().any(|s| s.process == "server" && s.name.starts_with("store.read.")),
        "server read-path spans present: {trace_spans:#?}"
    );
    trace::validate_nesting(&trace_spans).expect("stitched trace nests");

    let doc = trace::export_chrome_trace(&trace_spans).render();
    assert!(doc.contains("\"traceEvents\""));
    assert!(doc.contains("\"server\""), "server process lane exported");

    server.shutdown();
    server.join();
}

/// Killing the server mid-run must abort the driver within the configured
/// request timeout — a dead SUT must fail the benchmark, not hang it.
#[test]
fn server_death_mid_run_fails_driver_promptly() {
    let server =
        Server::bind("127.0.0.1:0", Arc::new(SleepConnector::new(Duration::from_millis(2))))
            .unwrap();
    let remote = RemoteConnector::with_request_timeout(
        server.local_addr().to_string(),
        Duration::from_secs(2),
    )
    .unwrap();

    // ~4 s of work at 2 ms per op across 2 partitions; the server dies long
    // before that.
    let items: Vec<WorkItem> = (0..4000)
        .map(|i| WorkItem {
            due: SimTime(i),
            dep: SimTime(0),
            partition_hint: (i % 2) as u64,
            op: Operation::Short(ShortQuery::S1(PersonId(1))),
        })
        .collect();
    let config = DriverConfig { partitions: 2, ..DriverConfig::default() };

    let killer = std::thread::spawn({
        let started = Instant::now();
        move || {
            std::thread::sleep(Duration::from_millis(150));
            server.shutdown();
            server.join();
            started.elapsed()
        }
    });

    let t0 = Instant::now();
    let result = run(&items, &remote, &config);
    let wall = t0.elapsed();
    killer.join().unwrap();

    let err = result.expect_err("driver must fail once the server is gone");
    assert!(matches!(err, SnbError::Io(_)), "expected a transport error, got: {err}");
    assert!(
        wall < Duration::from_secs(8),
        "driver must fail within the request timeout, took {wall:?}"
    );
}

/// A peer whose reply does not decode leaves the connection with no
/// trustworthy stream position: the client must surface a transport
/// error, count it, and never hand that stream to another request.
#[test]
fn an_undecodable_reply_poisons_the_connection() {
    use std::io::{Read, Write};

    // Stub peer: echoes the handshake magic, then answers every request
    // with a well-framed reply whose response tag does not exist.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let peer = std::thread::spawn(move || {
        let handlers: Vec<_> = listener
            .incoming()
            .take(2) // the eager dial, then the re-dial after the poisoning
            .map(|stream| {
                let mut stream = stream.unwrap();
                std::thread::spawn(move || {
                    let mut magic = [0u8; 8];
                    stream.read_exact(&mut magic).unwrap();
                    stream.write_all(&magic).unwrap();
                    let mut frame = Vec::new();
                    while codec::read_frame(&mut stream, &mut frame).is_ok() {
                        codec::write_frame(&mut stream, &[0xFF]).unwrap();
                    }
                })
            })
            .collect();
        for h in handlers {
            h.join().unwrap();
        }
    });

    let remote = RemoteConnector::connect(addr).unwrap();
    let m = remote.metrics();
    assert_eq!((m.connections.get(), m.errors.get()), (1, 0));

    let op = Operation::Short(ShortQuery::S1(PersonId(1)));
    match remote.execute(&op) {
        Err(SnbError::Io(e)) => assert_eq!(e.kind(), std::io::ErrorKind::InvalidData, "{e}"),
        other => panic!("expected a transport error, got {other:?}"),
    }
    assert_eq!(m.errors.get(), 1);
    assert_eq!(m.connections.get(), 1, "the failed request itself reused the pooled stream");

    // The poisoned stream was dropped, not re-pooled: the next request dials.
    assert!(remote.execute(&op).is_err());
    assert_eq!(m.connections.get(), 2);

    drop(remote);
    peer.join().unwrap();
}
