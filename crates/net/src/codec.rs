//! Wire encoding: length-prefixed binary frames over a byte stream.
//!
//! One frame is `u32 little-endian payload length | payload`. A connection
//! opens with an 8-byte magic handshake ([`NET_MAGIC`]) sent by the client
//! and echoed by the server; after that the client sends a [`Request`]
//! frame and reads its [`Response`] frame, one request at a time. Update
//! operations reuse the WAL's versioned `UpdateOp` codec
//! ([`snb_store::encode_update`]) so the workspace has a single binary
//! encoding for mutations, on disk and on the wire; query parameters are
//! encoded field-by-field here. The server severs a connection that opens
//! with any other magic.

use snb_core::time::SimTime;
use snb_core::{MessageId, PersonId, SnbError};
use snb_driver::connector::{OpOutcome, Operation};
use snb_obs::trace::SpanData;
use snb_obs::HistogramSnapshot;
use snb_queries::params::{
    ComplexQuery, Q10Params, Q11Params, Q12Params, Q13Params, Q14Params, Q1Params, Q2Params,
    Q3Params, Q4Params, Q5Params, Q6Params, Q7Params, Q8Params, Q9Params, ShortQuery,
};
use snb_queries::sharded::{GroupRow, MergedRow, Partial};
use std::io::{self, Read, Write};

/// The handshake magic, sent by the client and echoed by the server. The
/// digit versions the protocol: version 4 frames carry the message alone,
/// one request and its response at a time, where version 3 prefixed each
/// payload with a correlation id.
pub const NET_MAGIC: [u8; 8] = *b"SNBNET4\0";

/// Maximum accepted frame payload (16 MiB): large enough for any counters
/// dump, small enough that a corrupt length prefix cannot OOM the peer.
pub const MAX_FRAME: usize = 1 << 24;

// Request tags.
const REQ_EXECUTE: u8 = 1;
const REQ_COUNTERS: u8 = 2;
const REQ_PARTIAL: u8 = 3;
const REQ_GCT: u8 = 4;
// Response tags.
const RESP_OUTCOME: u8 = 1;
const RESP_ERROR: u8 = 2;
const RESP_COUNTERS: u8 = 3;
const RESP_PARTIAL: u8 = 4;
const RESP_GCT: u8 = 5;
// Partial class tags. Tag 1 was a top partial that carried a limit word
// ahead of its rows; it stays retired, so a peer from a build that still
// sends it has its partial refused instead of misread.
const PARTIAL_TOP: u8 = 3;
const PARTIAL_GROUPS: u8 = 2;
// Operation class tags.
const OP_UPDATE: u8 = 1;
const OP_COMPLEX: u8 = 2;
const OP_SHORT: u8 = 3;
// Error kind tags.
const ERR_NOT_FOUND: u8 = 0;
const ERR_CONSTRAINT: u8 = 1;
const ERR_CONFIG: u8 = 2;
const ERR_IO: u8 = 3;

/// One client-to-server message. (The size skew between variants is fine:
/// requests are built transiently for encode/decode, never stored in bulk.)
#[derive(Debug, Clone)]
#[allow(clippy::large_enum_variant)]
pub enum Request {
    /// Execute one operation and return its outcome. The optional
    /// `(trace id, parent span id)` pair propagates the client's trace
    /// context so the server can capture its execution spans under the
    /// client's wire span.
    Execute(Operation, Option<(u64, u64)>),
    /// Return the SUT's counters merged with the server's net counters.
    Counters,
    /// Execute the shard-local half of a scatterable read and return its
    /// partial result for a client-side merge (`snb_queries::sharded`).
    Partial(Operation),
    /// Return this shard's identity and replicated-update horizon (the
    /// GCT dependency-visibility probe — cheap, no execution).
    Gct,
}

/// One server-to-client message.
#[derive(Debug)]
pub enum Response {
    /// The operation executed; here is what it returned, plus any server
    /// spans captured for the request's trace context (empty when the
    /// request carried none).
    Outcome(OpOutcome, Vec<SpanData>),
    /// The operation (or the request itself) failed.
    Error(SnbError),
    /// Counters dump plus full histogram snapshots, so a remote run's
    /// disclosure equals an in-process run's.
    Counters { counters: Vec<(String, u64)>, histograms: Vec<(String, HistogramSnapshot)> },
    /// A shard's partial answer to a scatterable read, plus its
    /// shard-local walk-seed candidate (message id, creation date millis).
    Partial(Partial, Option<(u64, i64)>),
    /// Shard identity plus the replicated-update horizon (millis).
    Gct {
        /// This server's shard index.
        shard: u32,
        /// Total shards in the deployment the server was launched for.
        shards: u32,
        /// Max creation date of applied AddPerson/AddFriendship updates.
        horizon: i64,
    },
}

impl Request {
    pub fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            Request::Execute(op, trace) => encode_execute(op, *trace, buf),
            Request::Counters => buf.push(REQ_COUNTERS),
            Request::Partial(op) => encode_partial_req(op, buf),
            Request::Gct => buf.push(REQ_GCT),
        }
    }

    pub fn decode(mut p: &[u8]) -> Option<Request> {
        let req = match get_u8(&mut p)? {
            REQ_EXECUTE => {
                let trace = match get_u8(&mut p)? {
                    0 => None,
                    1 => Some((get_u64(&mut p)?, get_u64(&mut p)?)),
                    _ => return None,
                };
                Request::Execute(decode_operation(&mut p)?, trace)
            }
            REQ_COUNTERS => Request::Counters,
            REQ_PARTIAL => Request::Partial(decode_operation(&mut p)?),
            REQ_GCT => Request::Gct,
            _ => return None,
        };
        p.is_empty().then_some(req)
    }
}

/// Encode a `Partial` request from a borrowed operation (the sharded
/// client's scatter path — avoids cloning into a [`Request`]).
pub fn encode_partial_req(op: &Operation, buf: &mut Vec<u8>) {
    buf.push(REQ_PARTIAL);
    encode_operation(op, buf);
}

/// Encode an `Execute` request from a borrowed operation (the client's hot
/// path — avoids cloning the operation into a [`Request`]).
pub fn encode_execute(op: &Operation, trace: Option<(u64, u64)>, buf: &mut Vec<u8>) {
    buf.push(REQ_EXECUTE);
    match trace {
        Some((trace_id, parent_span)) => {
            buf.push(1);
            put_u64(buf, trace_id);
            put_u64(buf, parent_span);
        }
        None => buf.push(0),
    }
    encode_operation(op, buf);
}

impl Response {
    pub fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            Response::Outcome(out, spans) => {
                buf.push(RESP_OUTCOME);
                put_u64(buf, out.rows as u64);
                put_opt_u64(buf, out.seed_person.map(|p| p.0));
                put_opt_u64(buf, out.seed_message.map(|m| m.0));
                put_spans(buf, spans);
            }
            Response::Error(e) => {
                buf.push(RESP_ERROR);
                encode_error(e, buf);
            }
            Response::Counters { counters, histograms } => {
                buf.push(RESP_COUNTERS);
                put_u64(buf, counters.len() as u64);
                for (name, value) in counters {
                    put_str(buf, name);
                    put_u64(buf, *value);
                }
                put_u64(buf, histograms.len() as u64);
                for (name, hist) in histograms {
                    put_str(buf, name);
                    put_hist(buf, hist);
                }
            }
            Response::Partial(partial, seed) => {
                buf.push(RESP_PARTIAL);
                put_partial(buf, partial);
                match seed {
                    Some((m, date)) => {
                        buf.push(1);
                        put_u64(buf, *m);
                        put_i64(buf, *date);
                    }
                    None => buf.push(0),
                }
            }
            Response::Gct { shard, shards, horizon } => {
                buf.push(RESP_GCT);
                put_u64(buf, *shard as u64);
                put_u64(buf, *shards as u64);
                put_i64(buf, *horizon);
            }
        }
    }

    pub fn decode(mut p: &[u8]) -> Option<Response> {
        let resp = match get_u8(&mut p)? {
            RESP_OUTCOME => {
                let rows = get_u64(&mut p)? as usize;
                let seed_person = get_opt_u64(&mut p)?.map(PersonId);
                let seed_message = get_opt_u64(&mut p)?.map(MessageId);
                let spans = get_spans(&mut p)?;
                Response::Outcome(OpOutcome { rows, seed_person, seed_message }, spans)
            }
            RESP_ERROR => Response::Error(decode_error(&mut p)?),
            RESP_COUNTERS => {
                // Name length + value.
                let n = get_len(&mut p, 16)?;
                let mut counters = Vec::with_capacity(n);
                for _ in 0..n {
                    let name = get_str(&mut p)?;
                    let value = get_u64(&mut p)?;
                    counters.push((name, value));
                }
                // Name length + 3 header words + bucket count.
                let n = get_len(&mut p, 40)?;
                let mut histograms = Vec::with_capacity(n);
                for _ in 0..n {
                    let name = get_str(&mut p)?;
                    let hist = get_hist(&mut p)?;
                    histograms.push((name, hist));
                }
                Response::Counters { counters, histograms }
            }
            RESP_PARTIAL => {
                let partial = get_partial(&mut p)?;
                let seed = match get_u8(&mut p)? {
                    0 => None,
                    1 => Some((get_u64(&mut p)?, get_i64(&mut p)?)),
                    _ => return None,
                };
                Response::Partial(partial, seed)
            }
            RESP_GCT => Response::Gct {
                shard: u32::try_from(get_u64(&mut p)?).ok()?,
                shards: u32::try_from(get_u64(&mut p)?).ok()?,
                horizon: get_i64(&mut p)?,
            },
            _ => return None,
        };
        p.is_empty().then_some(resp)
    }
}

// ---- partials ----

/// Partial results ride the wire structurally: merged rows keep their
/// explicit sort keys, group rows their additive measures. The merge takes
/// each query's limit from the query, so none is shipped. Every length
/// prefix is bounded by the bytes left in the frame, like every other
/// variable-length decode here.
fn put_partial(buf: &mut Vec<u8>, partial: &Partial) {
    match partial {
        Partial::Top(rows) => {
            buf.push(PARTIAL_TOP);
            put_u64(buf, rows.len() as u64);
            for row in rows {
                for k in row.key {
                    put_i64(buf, k);
                }
                put_u64(buf, row.cols.len() as u64);
                for &c in &row.cols {
                    put_i64(buf, c);
                }
                put_u64(buf, row.text.len() as u64);
                for t in &row.text {
                    put_str(buf, t);
                }
            }
        }
        Partial::Groups { rows, pairs, paths } => {
            buf.push(PARTIAL_GROUPS);
            put_u64(buf, rows.len() as u64);
            for r in rows {
                put_u64(buf, r.k1);
                put_u64(buf, r.k2);
                put_i64(buf, r.a);
                put_i64(buf, r.b);
            }
            put_u64(buf, pairs.len() as u64);
            for &(a, b) in pairs {
                put_u64(buf, a);
                put_u64(buf, b);
            }
            put_u64(buf, paths.len() as u64);
            for path in paths {
                put_u64(buf, path.len() as u64);
                for &p in path {
                    put_u64(buf, p);
                }
            }
        }
    }
}

fn get_partial(p: &mut &[u8]) -> Option<Partial> {
    match get_u8(p)? {
        PARTIAL_TOP => {
            // 3 key words + 2 lengths.
            let n = get_len(p, 40)?;
            let mut rows = Vec::with_capacity(n);
            for _ in 0..n {
                let key = [get_i64(p)?, get_i64(p)?, get_i64(p)?];
                let nc = get_len(p, 8)?;
                let mut cols = Vec::with_capacity(nc);
                for _ in 0..nc {
                    cols.push(get_i64(p)?);
                }
                let nt = get_len(p, 8)?;
                let mut text = Vec::with_capacity(nt);
                for _ in 0..nt {
                    text.push(get_str(p)?);
                }
                rows.push(MergedRow { key, cols, text });
            }
            Some(Partial::Top(rows))
        }
        PARTIAL_GROUPS => {
            let n = get_len(p, 32)?;
            let mut rows = Vec::with_capacity(n);
            for _ in 0..n {
                rows.push(GroupRow {
                    k1: get_u64(p)?,
                    k2: get_u64(p)?,
                    a: get_i64(p)?,
                    b: get_i64(p)?,
                });
            }
            let n = get_len(p, 16)?;
            let mut pairs = Vec::with_capacity(n);
            for _ in 0..n {
                pairs.push((get_u64(p)?, get_u64(p)?));
            }
            let n = get_len(p, 8)?;
            let mut paths = Vec::with_capacity(n);
            for _ in 0..n {
                let len = get_len(p, 8)?;
                let mut path = Vec::with_capacity(len);
                for _ in 0..len {
                    path.push(get_u64(p)?);
                }
                paths.push(path);
            }
            Some(Partial::Groups { rows, pairs, paths })
        }
        _ => None,
    }
}

// ---- spans and histograms ----

/// Spans ride the wire as their exported fields; `process` is implied
/// ("server" — only a traced server piggybacks spans) and the timestamps
/// stay on the *server's* clock: the client re-anchors them before filing.
fn put_spans(buf: &mut Vec<u8>, spans: &[SpanData]) {
    put_u64(buf, spans.len() as u64);
    for s in spans {
        put_u64(buf, s.trace_id);
        put_u64(buf, s.span_id);
        put_u64(buf, s.parent_id);
        put_str(buf, &s.name);
        put_u64(buf, s.start_us);
        put_u64(buf, s.dur_us);
        put_u64(buf, s.tid as u64);
    }
}

fn get_spans(p: &mut &[u8]) -> Option<Vec<SpanData>> {
    let n = get_len(p, 56)?;
    let mut spans = Vec::with_capacity(n);
    for _ in 0..n {
        spans.push(SpanData {
            trace_id: get_u64(p)?,
            span_id: get_u64(p)?,
            parent_id: get_u64(p)?,
            name: get_str(p)?,
            start_us: get_u64(p)?,
            dur_us: get_u64(p)?,
            tid: u32::try_from(get_u64(p)?).ok()?,
            process: "server",
        });
    }
    Some(spans)
}

fn put_hist(buf: &mut Vec<u8>, h: &HistogramSnapshot) {
    put_u64(buf, h.count);
    put_u64(buf, h.sum);
    put_u64(buf, h.max);
    put_u64(buf, h.buckets.len() as u64);
    for &(low, high, count) in &h.buckets {
        put_u64(buf, low);
        put_u64(buf, high);
        put_u64(buf, count);
    }
}

fn get_hist(p: &mut &[u8]) -> Option<HistogramSnapshot> {
    let count = get_u64(p)?;
    let sum = get_u64(p)?;
    let max = get_u64(p)?;
    let n = get_len(p, 24)?;
    let mut buckets = Vec::with_capacity(n);
    for _ in 0..n {
        buckets.push((get_u64(p)?, get_u64(p)?, get_u64(p)?));
    }
    Some(HistogramSnapshot { count, sum, max, buckets })
}

// ---- operations ----

pub fn encode_operation(op: &Operation, buf: &mut Vec<u8>) {
    match op {
        Operation::Update(u) => {
            buf.push(OP_UPDATE);
            snb_store::encode_update(u, buf);
        }
        Operation::Complex(q) => {
            buf.push(OP_COMPLEX);
            encode_complex(q, buf);
        }
        Operation::Short(s) => {
            buf.push(OP_SHORT);
            buf.push(s.number() as u8);
            put_u64(buf, short_id(s));
        }
    }
}

pub fn decode_operation(p: &mut &[u8]) -> Option<Operation> {
    Some(match get_u8(p)? {
        OP_UPDATE => Operation::Update(snb_store::decode_update(p)?),
        OP_COMPLEX => Operation::Complex(decode_complex(p)?),
        OP_SHORT => {
            let number = get_u8(p)?;
            let id = get_u64(p)?;
            Operation::Short(match number {
                1 => ShortQuery::S1(PersonId(id)),
                2 => ShortQuery::S2(PersonId(id)),
                3 => ShortQuery::S3(PersonId(id)),
                4 => ShortQuery::S4(MessageId(id)),
                5 => ShortQuery::S5(MessageId(id)),
                6 => ShortQuery::S6(MessageId(id)),
                7 => ShortQuery::S7(MessageId(id)),
                _ => return None,
            })
        }
        _ => return None,
    })
}

fn short_id(s: &ShortQuery) -> u64 {
    match *s {
        ShortQuery::S1(p) | ShortQuery::S2(p) | ShortQuery::S3(p) => p.0,
        ShortQuery::S4(m) | ShortQuery::S5(m) | ShortQuery::S6(m) | ShortQuery::S7(m) => m.0,
    }
}

fn encode_complex(q: &ComplexQuery, buf: &mut Vec<u8>) {
    buf.push(q.number() as u8);
    match q {
        ComplexQuery::Q1(p) => {
            put_u64(buf, p.person.0);
            put_str(buf, &p.first_name);
        }
        ComplexQuery::Q2(p) => {
            put_u64(buf, p.person.0);
            put_i64(buf, p.max_date.0);
        }
        ComplexQuery::Q3(p) => {
            put_u64(buf, p.person.0);
            put_u64(buf, p.country_x as u64);
            put_u64(buf, p.country_y as u64);
            put_i64(buf, p.start.0);
            put_i64(buf, p.duration_days);
        }
        ComplexQuery::Q4(p) => {
            put_u64(buf, p.person.0);
            put_i64(buf, p.start.0);
            put_i64(buf, p.duration_days);
        }
        ComplexQuery::Q5(p) => {
            put_u64(buf, p.person.0);
            put_i64(buf, p.min_date.0);
        }
        ComplexQuery::Q6(p) => {
            put_u64(buf, p.person.0);
            put_u64(buf, p.tag as u64);
        }
        ComplexQuery::Q7(p) => put_u64(buf, p.person.0),
        ComplexQuery::Q8(p) => put_u64(buf, p.person.0),
        ComplexQuery::Q9(p) => {
            put_u64(buf, p.person.0);
            put_i64(buf, p.max_date.0);
        }
        ComplexQuery::Q10(p) => {
            put_u64(buf, p.person.0);
            buf.push(p.month);
        }
        ComplexQuery::Q11(p) => {
            put_u64(buf, p.person.0);
            put_u64(buf, p.country as u64);
            put_i64(buf, p.max_year as i64);
        }
        ComplexQuery::Q12(p) => {
            put_u64(buf, p.person.0);
            put_u64(buf, p.tag_class as u64);
        }
        ComplexQuery::Q13(p) => {
            put_u64(buf, p.person_x.0);
            put_u64(buf, p.person_y.0);
        }
        ComplexQuery::Q14(p) => {
            put_u64(buf, p.person_x.0);
            put_u64(buf, p.person_y.0);
        }
    }
}

fn decode_complex(p: &mut &[u8]) -> Option<ComplexQuery> {
    let number = get_u8(p)?;
    Some(match number {
        1 => ComplexQuery::Q1(Q1Params { person: PersonId(get_u64(p)?), first_name: get_str(p)? }),
        2 => ComplexQuery::Q2(Q2Params {
            person: PersonId(get_u64(p)?),
            max_date: SimTime(get_i64(p)?),
        }),
        3 => ComplexQuery::Q3(Q3Params {
            person: PersonId(get_u64(p)?),
            country_x: get_u64(p)? as usize,
            country_y: get_u64(p)? as usize,
            start: SimTime(get_i64(p)?),
            duration_days: get_i64(p)?,
        }),
        4 => ComplexQuery::Q4(Q4Params {
            person: PersonId(get_u64(p)?),
            start: SimTime(get_i64(p)?),
            duration_days: get_i64(p)?,
        }),
        5 => ComplexQuery::Q5(Q5Params {
            person: PersonId(get_u64(p)?),
            min_date: SimTime(get_i64(p)?),
        }),
        6 => {
            ComplexQuery::Q6(Q6Params { person: PersonId(get_u64(p)?), tag: get_u64(p)? as usize })
        }
        7 => ComplexQuery::Q7(Q7Params { person: PersonId(get_u64(p)?) }),
        8 => ComplexQuery::Q8(Q8Params { person: PersonId(get_u64(p)?) }),
        9 => ComplexQuery::Q9(Q9Params {
            person: PersonId(get_u64(p)?),
            max_date: SimTime(get_i64(p)?),
        }),
        10 => ComplexQuery::Q10(Q10Params { person: PersonId(get_u64(p)?), month: get_u8(p)? }),
        11 => ComplexQuery::Q11(Q11Params {
            person: PersonId(get_u64(p)?),
            country: get_u64(p)? as usize,
            max_year: i32::try_from(get_i64(p)?).ok()?,
        }),
        12 => ComplexQuery::Q12(Q12Params {
            person: PersonId(get_u64(p)?),
            tag_class: get_u64(p)? as usize,
        }),
        13 => ComplexQuery::Q13(Q13Params {
            person_x: PersonId(get_u64(p)?),
            person_y: PersonId(get_u64(p)?),
        }),
        14 => ComplexQuery::Q14(Q14Params {
            person_x: PersonId(get_u64(p)?),
            person_y: PersonId(get_u64(p)?),
        }),
        _ => return None,
    })
}

// ---- errors ----

fn encode_error(e: &SnbError, buf: &mut Vec<u8>) {
    match e {
        SnbError::NotFound { entity, id } => {
            buf.push(ERR_NOT_FOUND);
            put_str(buf, entity);
            put_u64(buf, *id);
        }
        SnbError::Constraint(msg) => {
            buf.push(ERR_CONSTRAINT);
            put_str(buf, msg);
        }
        SnbError::Config(msg) => {
            buf.push(ERR_CONFIG);
            put_str(buf, msg);
        }
        SnbError::Io(e) => {
            buf.push(ERR_IO);
            put_str(buf, &e.to_string());
        }
    }
}

fn decode_error(p: &mut &[u8]) -> Option<SnbError> {
    Some(match get_u8(p)? {
        ERR_NOT_FOUND => {
            // `NotFound.entity` is `&'static str`; re-intern the names the
            // store actually raises, like the WAL codec does for dictionary
            // strings.
            let entity = match get_str(p)?.as_str() {
                "person" => "person",
                "forum" => "forum",
                "message" => "message",
                _ => "entity",
            };
            SnbError::NotFound { entity, id: get_u64(p)? }
        }
        ERR_CONSTRAINT => SnbError::Constraint(get_str(p)?),
        ERR_CONFIG => SnbError::Config(get_str(p)?),
        ERR_IO => SnbError::Io(io::Error::other(get_str(p)?)),
        _ => return None,
    })
}

// ---- framing ----

/// Append one frame to `buf`: the length prefix, then whatever `payload`
/// appends. Returns the frame's length on the wire (payload + 4).
pub(crate) fn put_frame(buf: &mut Vec<u8>, payload: impl FnOnce(&mut Vec<u8>)) -> usize {
    let at = buf.len();
    buf.extend_from_slice(&[0; 4]);
    payload(buf);
    let len = buf.len() - at - 4;
    buf[at..at + 4].copy_from_slice(&(len as u32).to_le_bytes());
    len + 4
}

/// Write one frame holding `payload` with a single `write_all`, so on a
/// `TCP_NODELAY` socket the prefix and the payload leave in one segment.
/// Returns the number of bytes put on the wire (payload + 4-byte length
/// prefix) for byte accounting.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<usize> {
    if payload.is_empty() || payload.len() > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame payload of {} bytes out of range", payload.len()),
        ));
    }
    let mut frame = Vec::with_capacity(4 + payload.len());
    put_frame(&mut frame, |buf| buf.extend_from_slice(payload));
    w.write_all(&frame)?;
    Ok(frame.len())
}

/// Read one frame into `buf` (reusing its capacity). Returns the number of
/// bytes consumed from the wire. `UnexpectedEof` on the length prefix means
/// the peer closed the connection cleanly between frames.
///
/// The payload is read incrementally (`Read::take` + `read_to_end`) so
/// allocation tracks the bytes that actually arrive: a malformed length
/// prefix just under [`MAX_FRAME`] cannot force a 16 MiB zero-fill before
/// the first payload byte shows up.
pub fn read_frame(r: &mut impl Read, buf: &mut Vec<u8>) -> io::Result<usize> {
    let mut len = [0u8; 4];
    r.read_exact(&mut len)?;
    let len = u32::from_le_bytes(len) as usize;
    if len == 0 || len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} out of range"),
        ));
    }
    buf.clear();
    let got = r.take(len as u64).read_to_end(buf)?;
    if got < len {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            format!("frame truncated: {got} of {len} bytes"),
        ));
    }
    Ok(len + 4)
}

// ---- primitive helpers (same layout as the WAL codec) ----

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_i64(buf: &mut Vec<u8>, v: i64) {
    put_u64(buf, v as u64);
}

fn put_opt_u64(buf: &mut Vec<u8>, v: Option<u64>) {
    match v {
        Some(v) => {
            buf.push(1);
            put_u64(buf, v);
        }
        None => buf.push(0),
    }
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u64(buf, s.len() as u64);
    buf.extend_from_slice(s.as_bytes());
}

fn get_u8(p: &mut &[u8]) -> Option<u8> {
    let (&first, rest) = p.split_first()?;
    *p = rest;
    Some(first)
}

fn get_u64(p: &mut &[u8]) -> Option<u64> {
    let (bytes, rest) = p.split_first_chunk::<8>()?;
    *p = rest;
    Some(u64::from_le_bytes(*bytes))
}

fn get_i64(p: &mut &[u8]) -> Option<i64> {
    get_u64(p).map(|v| v as i64)
}

/// A count of entries that take at least `min_bytes` each, or `None` when
/// the bytes left could not hold that many: a length prefix is never
/// trusted past the frame it arrived in, so a decode allocates at most
/// what the frame itself could fill.
fn get_len(p: &mut &[u8], min_bytes: usize) -> Option<usize> {
    let n = get_u64(p)?;
    (n <= (p.len() / min_bytes) as u64).then_some(n as usize)
}

fn get_opt_u64(p: &mut &[u8]) -> Option<Option<u64>> {
    match get_u8(p)? {
        0 => Some(None),
        1 => Some(Some(get_u64(p)?)),
        _ => None,
    }
}

fn get_str(p: &mut &[u8]) -> Option<String> {
    let len = get_len(p, 1)?;
    let (bytes, rest) = p.split_at(len);
    *p = rest;
    String::from_utf8(bytes.to_vec()).ok()
}
