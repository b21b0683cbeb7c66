//! The wire and write-ahead-log layouts, byte for byte: one value of every
//! `Request`, `Response` and `UpdateOp` variant encodes to the bytes the
//! protocol has always carried, and every decoder is the exact inverse of
//! its encoder, so no other bytes decode.

mod common;

use common::{every_complex, every_short};
use snb_core::dict::names::Gender;
use snb_core::schema::{
    Comment, Forum, ForumKind, ForumMembership, Knows, Like, Person, Post, StudyAt, WorkAt,
};
use snb_core::time::SimTime;
use snb_core::update::UpdateOp;
use snb_core::wire::{decode_exact, Wire};
use snb_core::{ForumId, MessageId, OrganisationId, PersonId, SnbError, TagId};
use snb_driver::connector::{OpOutcome, Operation};
use snb_net::{Request, Response};
use snb_obs::trace::SpanData;
use snb_obs::HistogramSnapshot;
use snb_queries::params::{ComplexQuery, Q10Params, ShortQuery};
use snb_queries::sharded::{GroupRow, MergedRow, Partial};

/// The encodings of `every_update`, each as a WAL record payload carries it after the version byte, in order.
const UPDATES: &[&str] = &[
    "011f0000000000000004000000000000004b61726c06000000000000004d756c6c65720000a4d9faffffffff0080207f390100000c000000000000000300000000000000070000000000000046697265666f78080000000000000031302e302e302e370200000000000000020000000000000064650200000000000000656e010000000000000010000000000000006b61726c406578616d706c652e6f7267020000000000000004000000000000008403000000000000010500000000000000d40700000000000001000000000000004d00000000000000d907000000000000",
    "0120000000000000000400000000000000416e6e6107000000000000005363686d6964740100a4d9faffffffff0080207f390100000c0000000000000003000000000000001100000000000000496e7465726e6574204578706c6f726572080000000000000031302e302e302e37000000000000000000000000000000000000000000000000000000000000000000",
    "021f0000000000000000000000000100000900000000000000",
    "031f0000000000000000000000000100000900000000000000",
    "042c010000000000000e0000000000000047726f757020666f72204b61726c1f000000000000007b80207f39010000000000000000000000",
    "042c010000000000000e0000000000000047726f757020666f72204b61726c1f000000000000007b80207f3901000002000000000000000100000000000000020000000000000001",
    "042c010000000000000e0000000000000047726f757020666f72204b61726c1f000000000000007b80207f390100000100000000000000030000000000000002",
    "052c010000000000002000000000000000ffffffffffffffff",
    "0600000000000200001f000000000000002c01000000000000f481207f390100000000000000000000010a0000000000000070686f746f372e6a706701000000000000000400000000000000020000000000000064650300000000000000",
    "0600000000000200001f000000000000002c01000000000000f481207f39010000160000000000000041626f7574204bc3a4746865204b6f6c6c7769747a2e00010000000000000004000000000000000200000000000000656e0300000000000000",
    "07010000000002000020000000000000008483207f3901000002000000000000006f6b000000000002000000000000000200002c0100000000000000000000000000000000000000000000",
    "081f000000000000002000000000000000ffffffffffffff7f",
];

/// The encodings of `every_request`, in order.
const REQUESTS: &[&str] = &[
    "01000201070000000000000006000000000000004bc3a4746865",
    "01000202070000000000000040e2010000000000",
    "01000203070000000000000003000000000000000900000000000000fbffffffffffffff1c00000000000000",
    "0100020407000000000000004d000000000000001e00000000000000",
    "0100020507000000000000000000000000000080",
    "0100020607000000000000000b00000000000000",
    "010002070700000000000000",
    "010002080700000000000000",
    "010002090700000000000000ffffffffffffff7f",
    "0100020a07000000000000000c",
    "0100020b07000000000000000200000000000000da07000000000000",
    "0100020c07000000000000000400000000000000",
    "0100020d07000000000000000800000000000000",
    "0100020e07000000000000000900000000000000",
    "010003010100000000000000",
    "010003020200000000000000",
    "010003030300000000000000",
    "010003040400000000000000",
    "010003050500000000000000",
    "010003060600000000000000",
    "010003070700000000000000",
    "010001011f0000000000000004000000000000004b61726c06000000000000004d756c6c65720000a4d9faffffffff0080207f390100000c000000000000000300000000000000070000000000000046697265666f78080000000000000031302e302e302e370200000000000000020000000000000064650200000000000000656e010000000000000010000000000000006b61726c406578616d706c652e6f7267020000000000000004000000000000008403000000000000010500000000000000d40700000000000001000000000000004d00000000000000d907000000000000",
    "0100010120000000000000000400000000000000416e6e6107000000000000005363686d6964740100a4d9faffffffff0080207f390100000c0000000000000003000000000000001100000000000000496e7465726e6574204578706c6f726572080000000000000031302e302e302e37000000000000000000000000000000000000000000000000000000000000000000",
    "010001021f0000000000000000000000000100000900000000000000",
    "010001031f0000000000000000000000000100000900000000000000",
    "010001042c010000000000000e0000000000000047726f757020666f72204b61726c1f000000000000007b80207f39010000000000000000000000",
    "010001042c010000000000000e0000000000000047726f757020666f72204b61726c1f000000000000007b80207f3901000002000000000000000100000000000000020000000000000001",
    "010001042c010000000000000e0000000000000047726f757020666f72204b61726c1f000000000000007b80207f390100000100000000000000030000000000000002",
    "010001052c010000000000002000000000000000ffffffffffffffff",
    "0100010600000000000200001f000000000000002c01000000000000f481207f390100000000000000000000010a0000000000000070686f746f372e6a706701000000000000000400000000000000020000000000000064650300000000000000",
    "0100010600000000000200001f000000000000002c01000000000000f481207f39010000160000000000000041626f7574204bc3a4746865204b6f6c6c7769747a2e00010000000000000004000000000000000200000000000000656e0300000000000000",
    "01000107010000000002000020000000000000008483207f3901000002000000000000006f6b000000000002000000000000000200002c0100000000000000000000000000000000000000000000",
    "010001081f000000000000002000000000000000ffffffffffffff7f",
    "01014d000000000000000c0000000000000003030300000000000000",
    "030201070000000000000006000000000000004bc3a4746865",
    "030202070000000000000040e2010000000000",
    "030203070000000000000003000000000000000900000000000000fbffffffffffffff1c00000000000000",
    "03020407000000000000004d000000000000001e00000000000000",
    "03020507000000000000000000000000000080",
    "02",
    "04",
];

/// The encodings of `every_response`, in order.
const RESPONSES: &[&str] = &[
    "01000000000000000000000000000000000000",
    "012a0000000000000001030000000000000001ffffffffffffffff010000000000000009000000000000000a0000000000000003000000000000000e000000000000007365727665722e65786563757465640000000000000032000000000000000200000000000000",
    "02000500000000000000666f72756dbb01000000000000",
    "02000d000000000000006d65737361676520726f7574650100000000000000",
    "020114000000000000006475706c6963617465206b6e6f77732065646765",
    "0202080000000000000062616420666c6167",
    "02030b00000000000000736f636b657420676f6e65",
    "03020000000000000013000000000000006e65742e7365727665722e72657175657374730c000000000000000f0000000000000073746f72652e77616c2e627974657300000000000000000200000000000000170000000000000073746f72652e73746167652e6170706c795f6e616e6f730300000000000000ee03000000000000e8030000000000000300000000000000010000000000000001000000000000000100000000000000050000000000000005000000000000000100000000000000e003000000000000ef0300000000000001000000000000000500000000000000656d7074790000000000000000000000000000000000000000000000000000000000000000",
    "04030200000000000000fbffffffffffffff0300000000000000000000000000000003000000000000000100000000000000feffffffffffffffffffffffffffff7f020000000000000006000000000000004bc3a474686500000000000000000000000000000080ffffffffffffff7f07000000000000000000000000000000000000000000000001ffffffffffffffff0000000000000080",
    "040201000000000000000900000000000000fffffffffffffffffcffffffffffffff0b000000000000000200000000000000010000000000000002000000000000000300000000000000040000000000000002000000000000000300000000000000010000000000000002000000000000000300000000000000000000000000000000",
    "050100000000000000040000000000000085ffffffffffffff",
];

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn encoded<T: Wire>(v: &T) -> Vec<u8> {
    let mut buf = Vec::new();
    v.put(&mut buf);
    buf
}

/// The layouts are the ones the protocol and the log have always used:
/// a peer of an older build and a log it wrote still read the same.
#[test]
fn every_variant_encodes_to_its_golden_bytes() {
    let cases = [
        (every_update().iter().map(encoded).collect::<Vec<_>>(), UPDATES),
        (every_request().iter().map(encoded).collect(), REQUESTS),
        (every_response().iter().map(encoded).collect(), RESPONSES),
    ];
    for (bytes, golden) in cases {
        assert_eq!(bytes.len(), golden.len());
        for (i, (b, g)) in bytes.iter().zip(golden).enumerate() {
            assert_eq!(hex(b), *g, "value {i} encodes differently");
        }
    }
}

/// Each encoding of `values`, and for each every truncation and every
/// single-byte replacement by 0x00, 0xFF and the byte plus one.
fn mutations<T: Wire>(values: &[T]) -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    for v in values {
        let bytes = encoded(v);
        for len in 0..=bytes.len() {
            out.push(bytes[..len].to_vec());
        }
        for i in 0..bytes.len() {
            for b in [0x00, 0xFF, bytes[i].wrapping_add(1)] {
                let mut m = bytes.clone();
                m[i] = b;
                out.push(m);
            }
        }
    }
    out
}

/// Decoding is the exact inverse of encoding: every bytes a decoder
/// accepts re-encode to themselves, so no two byte strings decode to one
/// value, and no bytes make a decoder panic.
#[test]
fn a_mutated_frame_decodes_to_none_or_to_itself() {
    fn check<T: Wire>(values: &[T], decode: impl Fn(&[u8]) -> Option<T>) -> usize {
        let mut decoded = 0;
        for m in mutations(values) {
            if let Some(v) = decode(&m) {
                assert_eq!(hex(&encoded(&v)), hex(&m), "bytes decode to a value encoded otherwise");
                decoded += 1;
            }
        }
        decoded
    }
    // Some mutations survive (an id or a date is any word), so the property
    // is exercised on both sides.
    assert!(check(&every_update(), decode_exact::<UpdateOp>) > 0);
    assert!(check(&every_request(), Request::decode) > 0);
    assert!(check(&every_response(), Response::decode) > 0);
}

/// Q10's month enters from the wire checked: `q10` computes `month + 1`.
#[test]
fn a_q10_month_outside_1_to_12_does_not_decode() {
    let q10 = |month| {
        let q = ComplexQuery::Q10(Q10Params { person: PersonId(7), month });
        encoded(&Request::Execute(Operation::Complex(q), None))
    };
    for month in [1, 12] {
        assert!(Request::decode(&q10(month)).is_some(), "month {month}");
    }
    let valid = q10(12);
    for month in [0, 13, 255] {
        let mut bytes = valid.clone();
        *bytes.last_mut().unwrap() = month;
        assert!(Request::decode(&bytes).is_none(), "month {month} must not decode");
    }
}

fn person_karl() -> Person {
    Person {
        id: PersonId(31),
        first_name: "Karl",
        last_name: "Muller",
        gender: Gender::Male,
        birthday: SimTime(-86_400_000),
        creation_date: SimTime(1_346_457_600_000),
        city: 12,
        country: 3,
        browser: "Firefox",
        location_ip: "10.0.0.7".into(),
        languages: vec!["de", "en"],
        emails: vec!["karl@example.org".into()],
        interests: vec![TagId(4), TagId(900)],
        study_at: Some(StudyAt { university: OrganisationId(5), class_year: 2004 }),
        work_at: vec![WorkAt { company: OrganisationId(77), work_from: 2009 }],
    }
}

/// One value of every update kind, each optional field both set and not.
fn every_update() -> Vec<UpdateOp> {
    let like =
        Like { person: PersonId(31), message: MessageId(1 << 40), creation_date: SimTime(9) };
    let forum = |kind, tags| Forum {
        id: ForumId(300),
        title: "Group for Karl".into(),
        moderator: PersonId(31),
        creation_date: SimTime(1_346_457_600_123),
        tags,
        kind,
    };
    let post = |image_file, language, content: &str| Post {
        id: MessageId(1 << 41),
        author: PersonId(31),
        forum: ForumId(300),
        creation_date: SimTime(1_346_457_600_500),
        content: content.into(),
        image_file,
        tags: vec![TagId(4)],
        language,
        country: 3,
    };
    vec![
        UpdateOp::AddPerson(person_karl()),
        UpdateOp::AddPerson(Person {
            id: PersonId(32),
            first_name: "Anna",
            last_name: "Schmidt",
            gender: Gender::Female,
            browser: "Internet Explorer",
            languages: vec![],
            emails: vec![],
            interests: vec![],
            study_at: None,
            work_at: vec![],
            ..person_karl()
        }),
        UpdateOp::AddPostLike(like),
        UpdateOp::AddCommentLike(like),
        UpdateOp::AddForum(forum(ForumKind::Wall, vec![])),
        UpdateOp::AddForum(forum(ForumKind::Group, vec![TagId(1), TagId(2)])),
        UpdateOp::AddForum(forum(ForumKind::Album, vec![TagId(3)])),
        UpdateOp::AddMembership(ForumMembership {
            forum: ForumId(300),
            person: PersonId(32),
            join_date: SimTime(-1),
        }),
        UpdateOp::AddPost(post(Some("photo7.jpg".into()), "de", "")),
        UpdateOp::AddPost(post(None, "en", "About Käthe Kollwitz.")),
        UpdateOp::AddComment(Comment {
            id: MessageId((1 << 41) + 1),
            author: PersonId(32),
            creation_date: SimTime(1_346_457_600_900),
            content: "ok".into(),
            reply_to: MessageId(1 << 41),
            root_post: MessageId(1 << 41),
            forum: ForumId(300),
            tags: vec![],
            country: 0,
        }),
        UpdateOp::AddFriendship(Knows {
            a: PersonId(31),
            b: PersonId(32),
            creation_date: SimTime(i64::MAX),
        }),
    ]
}

/// One value of every request variant, carrying every operation.
fn every_request() -> Vec<Request> {
    let mut ops: Vec<Operation> = Vec::new();
    ops.extend(every_complex().into_iter().map(Operation::Complex));
    ops.extend(every_short().into_iter().map(Operation::Short));
    ops.extend(every_update().into_iter().map(Operation::Update));
    let mut requests: Vec<Request> = ops.into_iter().map(|op| Request::Execute(op, None)).collect();
    requests.push(Request::Execute(Operation::Short(ShortQuery::S3(PersonId(3))), Some((77, 12))));
    requests.extend(
        every_complex().into_iter().take(5).map(|q| Request::Partial(Operation::Complex(q))),
    );
    requests.push(Request::Counters);
    requests.push(Request::Gct);
    requests
}

/// One value of every response variant, optional fields both set and not.
fn every_response() -> Vec<Response> {
    let span = SpanData {
        trace_id: 9,
        span_id: 10,
        parent_id: 3,
        name: "server.execute".into(),
        start_us: 100,
        dur_us: 50,
        tid: 2,
        process: "server",
    };
    let hist = HistogramSnapshot {
        count: 3,
        sum: 1006,
        max: 1000,
        buckets: vec![(1, 1, 1), (5, 5, 1), (992, 1007, 1)],
    };
    vec![
        Response::Outcome(OpOutcome::default(), vec![]),
        Response::Outcome(
            OpOutcome {
                rows: 42,
                seed_person: Some(PersonId(3)),
                seed_message: Some(MessageId(u64::MAX)),
            },
            vec![span],
        ),
        Response::Error(SnbError::NotFound { entity: "forum", id: 443 }),
        Response::Error(SnbError::NotFound { entity: "message route", id: 1 }),
        Response::Error(SnbError::Constraint("duplicate knows edge".into())),
        Response::Error(SnbError::Config("bad flag".into())),
        Response::Error(SnbError::Io(std::io::Error::other("socket gone"))),
        Response::Counters {
            counters: vec![("net.server.requests".into(), 12), ("store.wal.bytes".into(), 0)],
            histograms: vec![
                ("store.stage.apply_nanos".into(), hist),
                ("empty".into(), HistogramSnapshot::default()),
            ],
        },
        Response::Partial(
            Partial::Top(vec![
                MergedRow {
                    key: [-5, 3, 0],
                    cols: vec![1, -2, i64::MAX],
                    text: vec!["Käthe".into(), String::new()],
                },
                MergedRow { key: [i64::MIN, i64::MAX, 7], cols: vec![], text: vec![] },
            ]),
            Some((u64::MAX, i64::MIN)),
        ),
        Response::Partial(
            Partial::Groups {
                rows: vec![GroupRow { k1: 9, k2: u64::MAX, a: -4, b: 11 }],
                pairs: vec![(1, 2), (3, 4)],
                paths: vec![vec![1, 2, 3], vec![]],
            },
            None,
        ),
        Response::Gct { shard: 1, shards: 4, horizon: -123 },
    ]
}
