//! Wire encoding: length-prefixed binary frames over a byte stream.
//!
//! One frame is `u32 little-endian payload length | payload`. A connection
//! opens with an 8-byte magic handshake ([`NET_MAGIC`]) sent by the client
//! and echoed by the server; after that the client sends a [`Request`]
//! frame and reads its [`Response`] frame, one request at a time. The
//! server severs a connection that opens with any other magic.
//!
//! A payload is one message in the layout of `snb_core::wire`. Each type a
//! message carries declares its layout once, next to its definition (an
//! update's is the one the write-ahead log stores); this file adds the two
//! message enums' tags, and writes the two `snb-obs` types field by field
//! on the same primitives. A payload decodes only when it is exactly the
//! encoding of one message: truncated, trailing, or never-written bytes
//! (an unknown tag, an out-of-range field) decode to `None`.

use snb_core::wire::{self, Layout, Wire};
use snb_core::{wire_enum, SnbError};
use snb_driver::connector::{OpOutcome, Operation};
use snb_obs::trace::SpanData;
use snb_obs::HistogramSnapshot;
use snb_queries::sharded::Partial;
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
        self.put(buf);
    }

    pub fn decode(bytes: &[u8]) -> Option<Request> {
        wire::decode_exact(bytes)
    }
}

// Written by hand, unlike the response: an execute request carries its
// trace context ahead of its operation, and the client encodes both from a
// borrowed operation (`encode_execute`).
impl Wire for Request {
    const MIN_BYTES: usize = 1;

    fn put(&self, buf: &mut Vec<u8>) {
        match self {
            Request::Execute(op, trace) => encode_execute(op, *trace, buf),
            Request::Counters => buf.push(REQ_COUNTERS),
            Request::Partial(op) => encode_partial_req(op, buf),
            Request::Gct => buf.push(REQ_GCT),
        }
    }

    fn get(p: &mut &[u8]) -> Option<Request> {
        Some(match u8::get(p)? {
            REQ_EXECUTE => {
                let trace = Wire::get(p)?;
                Request::Execute(Wire::get(p)?, trace)
            }
            REQ_COUNTERS => Request::Counters,
            REQ_PARTIAL => Request::Partial(Wire::get(p)?),
            REQ_GCT => Request::Gct,
            _ => return None,
        })
    }
}

/// Encode a `Partial` request from a borrowed operation (the sharded
/// client's scatter path — avoids cloning into a [`Request`]).
pub fn encode_partial_req(op: &Operation, buf: &mut Vec<u8>) {
    buf.push(REQ_PARTIAL);
    op.put(buf);
}

/// Encode an `Execute` request from a borrowed operation (the client's hot
/// path — avoids cloning the operation into a [`Request`]).
pub fn encode_execute(op: &Operation, trace: Option<(u64, u64)>, buf: &mut Vec<u8>) {
    buf.push(REQ_EXECUTE);
    trace.put(buf);
    op.put(buf);
}

/// Encode one operation alone, as a request carries it.
pub fn encode_operation(op: &Operation, buf: &mut Vec<u8>) {
    op.put(buf);
}

impl Response {
    pub fn encode(&self, buf: &mut Vec<u8>) {
        self.put(buf);
    }

    pub fn decode(bytes: &[u8]) -> Option<Response> {
        wire::decode_exact(bytes)
    }
}

wire_enum!(Response {
    1 => Outcome(outcome, spans as Vec<ServerSpan>),
    2 => Error(error),
    3 => Counters { counters, histograms as Vec<NamedHistogram> },
    4 => Partial(partial, seed),
    5 => Gct { shard, shards, horizon },
});

/// A span piggybacked on an outcome: its exported fields. `process` is
/// implied ("server" — only a traced server piggybacks spans) and the
/// timestamps stay on the *server's* clock: the client re-anchors them
/// before filing.
struct ServerSpan;

impl Layout<SpanData> for ServerSpan {
    const MIN_BYTES: usize = 7 * 8;

    fn put(s: &SpanData, buf: &mut Vec<u8>) {
        s.trace_id.put(buf);
        s.span_id.put(buf);
        s.parent_id.put(buf);
        s.name.put(buf);
        s.start_us.put(buf);
        s.dur_us.put(buf);
        s.tid.put(buf);
    }

    fn get(p: &mut &[u8]) -> Option<SpanData> {
        Some(SpanData {
            trace_id: Wire::get(p)?,
            span_id: Wire::get(p)?,
            parent_id: Wire::get(p)?,
            name: Wire::get(p)?,
            start_us: Wire::get(p)?,
            dur_us: Wire::get(p)?,
            tid: Wire::get(p)?,
            process: "server",
        })
    }
}

/// A named histogram snapshot, whole: the name, three header words and
/// the buckets.
struct NamedHistogram;

impl Layout<(String, HistogramSnapshot)> for NamedHistogram {
    const MIN_BYTES: usize = 5 * 8;

    fn put((name, h): &(String, HistogramSnapshot), buf: &mut Vec<u8>) {
        name.put(buf);
        h.count.put(buf);
        h.sum.put(buf);
        h.max.put(buf);
        h.buckets.put(buf);
    }

    fn get(p: &mut &[u8]) -> Option<(String, HistogramSnapshot)> {
        let name = Wire::get(p)?;
        let h = HistogramSnapshot {
            count: Wire::get(p)?,
            sum: Wire::get(p)?,
            max: Wire::get(p)?,
            buckets: Wire::get(p)?,
        };
        Some((name, h))
    }
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
