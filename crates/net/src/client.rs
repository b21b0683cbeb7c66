//! [`RemoteConnector`] — the driver side of the wire.
//!
//! `RemoteConnector` implements [`Connector`] over TCP with a connection
//! pool sized by demand: each concurrent `execute` checks a connection
//! out, so a driver with P partitions settles on at most P connections. It
//! speaks protocol v3 (every request carries a correlation id, verified on
//! the response) but keeps one request outstanding per checked-out
//! connection — the driver's dependency-execution loop is synchronous per
//! partition. Connect failures are retried with bounded exponential
//! backoff; a request that has been *sent* is NEVER retried — updates are
//! not idempotent, and a timed-out update may well have executed. The
//! error surfaces to the driver, which aborts the run (the benchmark's
//! required behavior on SUT failure).

use crate::codec::{self, Request, Response, NET_MAGIC_V3};
use crate::metrics::NetMetrics;
use snb_core::{MessageId, SimTime, SnbError, SnbResult};
use snb_driver::connector::{Connector, OpOutcome, Operation, PartialOutcome};
use snb_obs::trace::{self, NameId, SpanData, SpanGuard};
use snb_obs::HistogramSnapshot;
use std::io::{BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// A handshaken client connection. Reads go through the buffer, so a whole
/// response frame arrives in one `recv`; writes go straight to the socket
/// through `get_mut()`, one `write_all` per frame.
pub(crate) type Stream = BufReader<TcpStream>;

/// Client-side timeouts and retry policy.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Per-address TCP connect timeout.
    pub connect_timeout: Duration,
    /// Read/write timeout for one request round trip.
    pub request_timeout: Duration,
    /// Additional dial attempts after a failed connect (0 = fail fast).
    pub connect_retries: u32,
    /// Base sleep before the first retry; the ceiling doubles per
    /// subsequent retry and each actual sleep is jittered (see
    /// [`backoff_schedule`]).
    pub retry_backoff: Duration,
}

impl Default for NetConfig {
    fn default() -> NetConfig {
        NetConfig {
            connect_timeout: Duration::from_secs(2),
            request_timeout: Duration::from_secs(10),
            connect_retries: 3,
            retry_backoff: Duration::from_millis(50),
        }
    }
}

/// What the counters RPC returns: named counter values plus named
/// histogram snapshots (SUT and `net.server.*` merged).
pub type RemoteCounters = (Vec<(String, u64)>, Vec<(String, HistogramSnapshot)>);

/// A pooled TCP client implementing the driver's [`Connector`] trait.
pub struct RemoteConnector {
    addr: String,
    config: NetConfig,
    pool: Mutex<Vec<Stream>>,
    ever_connected: AtomicBool,
    /// v3 correlation ids, unique across the whole pool so a response
    /// surfacing on the wrong connection can never be mistaken for ours.
    next_corr: AtomicU64,
    metrics: NetMetrics,
}

impl RemoteConnector {
    /// Connect with default [`NetConfig`]. Dials one connection eagerly so
    /// an unreachable server fails here, not mid-run.
    pub fn connect(addr: impl Into<String>) -> SnbResult<RemoteConnector> {
        RemoteConnector::with_config(addr, NetConfig::default())
    }

    /// Connect with an explicit config (see [`RemoteConnector::connect`]).
    pub fn with_config(addr: impl Into<String>, config: NetConfig) -> SnbResult<RemoteConnector> {
        let client = RemoteConnector {
            addr: addr.into(),
            config,
            pool: Mutex::new(Vec::new()),
            ever_connected: AtomicBool::new(false),
            next_corr: AtomicU64::new(1),
            metrics: NetMetrics::new("client"),
        };
        let conn = client.dial()?;
        client.checkin(conn);
        Ok(client)
    }

    /// The client side's net counters.
    pub fn metrics(&self) -> &NetMetrics {
        &self.metrics
    }

    /// Fetch the server's counters (SUT + `net.server.*`) and histogram
    /// snapshots via the RPC.
    pub fn remote_counters(&self) -> SnbResult<RemoteCounters> {
        let mut payload = Vec::new();
        Request::Counters.encode(&mut payload);
        match self.request(&payload)? {
            Response::Counters { counters, histograms } => Ok((counters, histograms)),
            Response::Error(e) => Err(e),
            _ => Err(SnbError::Config("protocol mismatch: wrong reply to counters".into())),
        }
    }

    /// Fetch the server's shard identity and replicated-update horizon via
    /// the GCT RPC: `(shard_index, shard_count, horizon_millis)`.
    pub fn remote_gct(&self) -> SnbResult<(u32, u32, i64)> {
        let mut payload = Vec::new();
        Request::Gct.encode(&mut payload);
        match self.request(&payload)? {
            Response::Gct { shard, shards, horizon } => Ok((shard, shards, horizon)),
            Response::Error(e) => Err(e),
            _ => Err(SnbError::Config("protocol mismatch: wrong reply to gct".into())),
        }
    }

    /// Dial with bounded retry + jittered exponential backoff. Only
    /// *connecting* is retried; requests never are.
    fn dial(&self) -> SnbResult<Stream> {
        let schedule =
            backoff_schedule(self.config.retry_backoff, self.config.connect_retries, dial_seed());
        let mut sleeps = schedule.into_iter();
        loop {
            match dial_once(&self.addr, &self.config) {
                Ok(stream) => {
                    self.metrics.connections.inc();
                    if self.ever_connected.swap(true, Ordering::Relaxed) {
                        self.metrics.reconnects.inc();
                    }
                    return Ok(stream);
                }
                Err(e) => {
                    self.metrics.errors.inc();
                    match sleeps.next() {
                        Some(delay) => std::thread::sleep(delay),
                        None => return Err(e),
                    }
                }
            }
        }
    }

    fn checkout(&self) -> SnbResult<Stream> {
        if let Some(stream) = self.pool.lock().unwrap_or_else(|e| e.into_inner()).pop() {
            return Ok(stream);
        }
        self.dial()
    }

    fn checkin(&self, stream: Stream) {
        self.pool.lock().unwrap_or_else(|e| e.into_inner()).push(stream);
    }

    /// One request round trip — [`start_request`](Self::start_request) then
    /// [`finish_request`](Self::finish_request) — timed into
    /// `request_micros` from checkout to decoded response (a request that
    /// never reached the wire leaves no sample).
    fn request(&self, payload: &[u8]) -> SnbResult<Response> {
        let started = Instant::now();
        let (stream, corr) = self.start_request(payload)?;
        let result = self.finish_request(stream, corr);
        self.metrics.request_micros.record(started.elapsed().as_micros() as u64);
        result
    }

    /// First half of a round trip: check a connection out and write one
    /// framed request without waiting for the reply. The caller holds the
    /// stream and must follow up with
    /// [`finish_request`](Self::finish_request) — a scatter writes to every
    /// shard before reading from any, overlapping the shards' execution.
    /// On a write error the connection is dropped (poisoned), never
    /// returned to the pool.
    pub(crate) fn start_request(&self, payload: &[u8]) -> SnbResult<(Stream, u64)> {
        let mut stream = self.checkout()?;
        self.metrics.requests.inc();
        let corr = self.next_corr.fetch_add(1, Ordering::Relaxed);
        match write_request(stream.get_mut(), corr, payload) {
            Ok(n) => {
                self.metrics.bytes_out.add(n as u64);
                Ok((stream, corr))
            }
            Err(e) => {
                self.metrics.errors.inc();
                drop(stream);
                Err(SnbError::Io(e))
            }
        }
    }

    /// Second half: read the response for a request started with
    /// [`start_request`](Self::start_request). A healthy exchange returns
    /// the connection to the pool; any transport error poisons it — the
    /// request reached the server, so it must not be replayed.
    pub(crate) fn finish_request(&self, mut stream: Stream, corr: u64) -> SnbResult<Response> {
        let result = (|| -> std::io::Result<Response> {
            let mut frame = Vec::new();
            let n_in = codec::read_frame(&mut stream, &mut frame)?;
            self.metrics.bytes_in.add(n_in as u64);
            decode_response(&frame, corr)
        })();
        match result {
            Ok(response) => {
                self.checkin(stream);
                Ok(response)
            }
            Err(e) => {
                self.metrics.errors.inc();
                drop(stream);
                Err(SnbError::Io(e))
            }
        }
    }
}

/// The dial-retry sleep schedule: attempt `i` (0-based) sleeps a uniformly
/// random duration in `[ceil/2, ceil]` where `ceil = base · 2^i` — the
/// classic equal-jitter variant of exponential backoff. Deterministic
/// doubling synchronizes clients that failed together (a restarting server
/// sees its whole fleet re-dial in lockstep waves); the jitter spreads
/// each wave over half its window while keeping the exponential envelope,
/// and the lower bound keeps retry pressure bounded below the
/// deterministic schedule's.
pub fn backoff_schedule(base: Duration, retries: u32, seed: u64) -> Vec<Duration> {
    let mut rng = snb_core::rng::Rng::new(seed);
    (0..retries)
        .map(|i| {
            let ceil = base.saturating_mul(1u32 << i.min(20)).as_nanos().min(u64::MAX as u128);
            let ceil = ceil as u64;
            let jittered = ceil / 2 + rng.next_u64() % (ceil / 2 + 1);
            Duration::from_nanos(jittered)
        })
        .collect()
}

/// Per-dial seed for the backoff jitter: wall-clock derived so two clients
/// that fail at the same instant still jitter apart (different nanos), and
/// so repeated dials by one client draw fresh schedules.
fn dial_seed() -> u64 {
    match std::time::SystemTime::now().duration_since(std::time::UNIX_EPOCH) {
        Ok(d) => d.as_nanos() as u64,
        Err(_) => 0x005e_edba_5e0f_f5e7u64,
    }
}

/// Perform the client half of the v3 handshake on a fresh stream: apply
/// timeouts, disable Nagle, send our magic, and require the server to echo
/// it. The read buffer goes on only after the echo, so it can hold nothing
/// but response frames.
fn handshake_v3(mut stream: TcpStream, config: &NetConfig, addr: &str) -> SnbResult<Stream> {
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(config.request_timeout))?;
    stream.set_write_timeout(Some(config.request_timeout))?;
    stream.write_all(&NET_MAGIC_V3)?;
    let mut echo = [0u8; 8];
    stream.read_exact(&mut echo)?;
    if echo != NET_MAGIC_V3 {
        return Err(SnbError::Config(format!(
            "{addr} is not an snb-net v3 server (bad handshake)"
        )));
    }
    Ok(BufReader::new(stream))
}

/// One dial attempt: resolve `addr`, connect to the first address that
/// accepts within the connect timeout, and run the v3 handshake on it.
fn dial_once(addr: &str, config: &NetConfig) -> SnbResult<Stream> {
    let addrs: Vec<SocketAddr> = addr
        .to_socket_addrs()
        .map_err(|e| SnbError::Config(format!("cannot resolve {addr}: {e}")))?
        .collect();
    let mut last_err: Option<std::io::Error> = None;
    for sock in addrs {
        match TcpStream::connect_timeout(&sock, config.connect_timeout) {
            Ok(stream) => return handshake_v3(stream, config, addr),
            Err(e) => last_err = Some(e),
        }
    }
    Err(SnbError::Io(
        last_err
            .unwrap_or_else(|| std::io::Error::other(format!("{addr} resolved to no addresses"))),
    ))
}

/// Frame `payload` under correlation id `corr` and write it with one
/// `write_all`; returns the bytes put on the wire.
fn write_request(stream: &mut TcpStream, corr: u64, payload: &[u8]) -> std::io::Result<usize> {
    codec::write_frame_with(stream, |frame| {
        codec::put_corr(frame, corr);
        frame.extend_from_slice(payload);
    })
}

/// Decode a response frame, which must echo the correlation id `sent` — a
/// mismatch means the connection's request/response pairing is broken.
/// Any error here is a transport error: the caller poisons the connection.
fn decode_response(frame: &[u8], sent: u64) -> std::io::Result<Response> {
    let invalid = |msg: String| std::io::Error::new(std::io::ErrorKind::InvalidData, msg);
    let (echoed, body) =
        codec::take_corr(frame).ok_or_else(|| invalid("response frame too short".into()))?;
    if echoed != sent {
        return Err(invalid(format!("correlation mismatch: sent {sent}, got {echoed}")));
    }
    Response::decode(body).ok_or_else(|| invalid("malformed response frame".into()))
}

/// Re-anchor server spans onto the client's clock and file them. The
/// server's root span (recorded with sentinel parent 0 because its true
/// parent — our wire span — lives in this process's id space) is centered
/// inside the wire span's unaccounted time — `offset = slack/2` splits the
/// round trip symmetrically, the classic NTP assumption — then grafted
/// onto the wire span, so the stitched trace nests: wire span ⊇ server
/// root ⊇ server children.
fn stitch_server_spans(wire: &SpanGuard, mut spans: Vec<SpanData>) {
    let rtt = trace::now_micros().saturating_sub(wire.start_us());
    let Some(root) = spans.iter().find(|s| s.parent_id == 0) else {
        return; // no recognizable root: drop rather than file unanchored
    };
    let slack = rtt.saturating_sub(root.dur_us);
    let target = wire.start_us() + slack / 2;
    let shift = target as i64 - root.start_us as i64;
    for s in &mut spans {
        s.start_us = s.start_us.saturating_add_signed(shift);
    }
    trace::record_foreign_rooted(spans, wire.span_id());
}

impl Connector for RemoteConnector {
    fn execute(&self, op: &Operation) -> SnbResult<OpOutcome> {
        // The wire span covers serialize → RTT → deserialize; its context
        // rides in the request so the server's spans come back stitched
        // underneath it.
        static SPAN_REQUEST: NameId = NameId::new("net.client.request");
        let wire = trace::span(&SPAN_REQUEST);
        let ctx = (wire.span_id() != 0).then(|| (wire.trace_id(), wire.span_id()));
        let mut payload = Vec::new();
        codec::encode_execute(op, ctx, &mut payload);
        match self.request(&payload)? {
            Response::Outcome(outcome, spans) => {
                if ctx.is_some() && !spans.is_empty() {
                    stitch_server_spans(&wire, spans);
                }
                Ok(outcome)
            }
            Response::Error(e) => {
                self.metrics.errors.inc();
                Err(e)
            }
            _ => Err(SnbError::Config("protocol mismatch: wrong reply to execute".into())),
        }
    }

    fn counters(&self) -> Vec<(String, u64)> {
        let mut counters = self.metrics.snapshot();
        if let Ok((remote, _)) = self.remote_counters() {
            counters.extend(remote);
        }
        counters
    }

    fn histograms(&self) -> Vec<(String, HistogramSnapshot)> {
        let mut histograms =
            vec![("net.client.request_micros".to_string(), self.metrics.request_micros.snapshot())];
        if let Ok((_, remote)) = self.remote_counters() {
            histograms.extend(remote);
        }
        histograms
    }

    fn execute_partial(&self, op: &Operation) -> SnbResult<PartialOutcome> {
        let mut payload = Vec::new();
        codec::encode_partial_req(op, &mut payload);
        match self.request(&payload)? {
            Response::Partial(partial, seed) => Ok(PartialOutcome {
                partial,
                seed: seed.map(|(m, date)| (MessageId(m), SimTime(date))),
            }),
            Response::Error(e) => {
                self.metrics.errors.inc();
                Err(e)
            }
            _ => Err(SnbError::Config("protocol mismatch: wrong reply to partial".into())),
        }
    }

    fn gct_horizon(&self) -> i64 {
        self.remote_gct().map(|(_, _, horizon)| horizon).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_schedule_stays_inside_the_jitter_envelope() {
        let base = Duration::from_millis(50);
        for seed in 0..64 {
            let schedule = backoff_schedule(base, 6, seed);
            assert_eq!(schedule.len(), 6);
            for (i, d) in schedule.iter().enumerate() {
                let ceil = base * (1u32 << i);
                assert!(*d >= ceil / 2, "attempt {i} slept {d:?}, below floor {:?}", ceil / 2);
                assert!(*d <= ceil, "attempt {i} slept {d:?}, above ceiling {ceil:?}");
            }
        }
    }

    #[test]
    fn backoff_schedule_actually_jitters() {
        let a = backoff_schedule(Duration::from_millis(50), 4, 1);
        let b = backoff_schedule(Duration::from_millis(50), 4, 2);
        assert_ne!(a, b, "different seeds drew identical schedules");
    }

    #[test]
    fn backoff_schedule_is_empty_when_retries_are_disabled() {
        assert!(backoff_schedule(Duration::from_millis(50), 0, 7).is_empty());
    }
}
