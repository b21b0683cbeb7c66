//! [`RemoteConnector`] — the driver side of the wire.
//!
//! `RemoteConnector` implements [`Connector`] over TCP with a connection
//! pool sized by demand: each concurrent `execute` checks a connection
//! out, so a driver with P partitions settles on at most P connections.
//! Each checked-out connection carries one request and then waits for its
//! response, as the driver's dependency-execution loop does per partition
//! and as the server requires. Connect failures are retried with bounded
//! exponential backoff; a request that has been *sent* is NEVER retried —
//! updates are not idempotent, and a timed-out update may well have
//! executed. The error surfaces to the driver, which aborts the run (the
//! benchmark's required behavior on SUT failure).

use crate::codec::{self, Request, Response, NET_MAGIC};
use crate::metrics::NetMetrics;
use snb_core::{MessageId, SimTime, SnbError, SnbResult};
use snb_driver::connector::{Connector, OpOutcome, Operation, PartialOutcome};
use snb_obs::trace::{self, NameId, SpanData, SpanGuard};
use snb_obs::HistogramSnapshot;
use std::io::{BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// A handshaken client connection. Reads go through the buffer, so a whole
/// response frame arrives in one `recv`; writes go straight to the socket
/// through `get_mut()`, one `write_all` per frame.
pub(crate) type Stream = BufReader<TcpStream>;

/// Per-address TCP connect timeout.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(2);
/// Dial attempts after a failed connect.
const CONNECT_RETRIES: u32 = 3;
/// Base sleep before the first dial retry (see [`backoff_schedule`]).
const RETRY_BACKOFF: Duration = Duration::from_millis(50);
/// Read/write timeout for one request round trip unless the caller sets
/// one.
pub(crate) const REQUEST_TIMEOUT: Duration = Duration::from_secs(10);

/// What the counters RPC returns: named counter values plus named
/// histogram snapshots (SUT and `net.server.*` merged).
pub type RemoteCounters = (Vec<(String, u64)>, Vec<(String, HistogramSnapshot)>);

/// A pooled TCP client implementing the driver's [`Connector`] trait.
pub struct RemoteConnector {
    addr: String,
    request_timeout: Duration,
    pool: Mutex<Vec<Stream>>,
    ever_connected: AtomicBool,
    metrics: NetMetrics,
}

impl RemoteConnector {
    /// Connect with the default 10 s request timeout. Dials one connection
    /// eagerly so an unreachable server fails here, not mid-run.
    pub fn connect(addr: impl Into<String>) -> SnbResult<RemoteConnector> {
        RemoteConnector::with_request_timeout(addr, REQUEST_TIMEOUT)
    }

    /// Connect with the read/write timeout for one round trip (see
    /// [`RemoteConnector::connect`]).
    pub fn with_request_timeout(
        addr: impl Into<String>,
        request_timeout: Duration,
    ) -> SnbResult<RemoteConnector> {
        let client = RemoteConnector {
            addr: addr.into(),
            request_timeout,
            pool: Mutex::new(Vec::new()),
            ever_connected: AtomicBool::new(false),
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
        let mut sleeps = backoff_schedule(RETRY_BACKOFF, CONNECT_RETRIES, dial_seed()).into_iter();
        loop {
            match dial_once(&self.addr, self.request_timeout) {
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
        let stream = self.start_request(payload)?;
        let result = self.finish_request(stream);
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
    pub(crate) fn start_request(&self, payload: &[u8]) -> SnbResult<Stream> {
        let mut stream = self.checkout()?;
        self.metrics.requests.inc();
        match codec::write_frame(stream.get_mut(), payload) {
            Ok(n) => {
                self.metrics.bytes_out.add(n as u64);
                Ok(stream)
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
    /// the connection to the pool; any transport error, or a reply that
    /// does not decode, poisons it — the request reached the server, so it
    /// must not be replayed.
    pub(crate) fn finish_request(&self, mut stream: Stream) -> SnbResult<Response> {
        let result = (|| -> std::io::Result<Response> {
            let mut frame = Vec::new();
            let n_in = codec::read_frame(&mut stream, &mut frame)?;
            self.metrics.bytes_in.add(n_in as u64);
            Response::decode(&frame).ok_or_else(|| {
                std::io::Error::new(std::io::ErrorKind::InvalidData, "malformed response frame")
            })
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

/// Perform the client half of the handshake on a fresh stream: apply
/// timeouts, disable Nagle, send our magic, and require the server to echo
/// it. The read buffer goes on only after the echo, so it can hold nothing
/// but response frames.
fn handshake(mut stream: TcpStream, request_timeout: Duration, addr: &str) -> SnbResult<Stream> {
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(request_timeout))?;
    stream.set_write_timeout(Some(request_timeout))?;
    stream.write_all(&NET_MAGIC)?;
    let mut echo = [0u8; 8];
    stream.read_exact(&mut echo)?;
    if echo != NET_MAGIC {
        return Err(SnbError::Config(format!("{addr} is not an snb-net server (bad handshake)")));
    }
    Ok(BufReader::new(stream))
}

/// One dial attempt: resolve `addr`, connect to the first address that
/// accepts within the connect timeout, and run the handshake on it.
fn dial_once(addr: &str, request_timeout: Duration) -> SnbResult<Stream> {
    let addrs: Vec<SocketAddr> = addr
        .to_socket_addrs()
        .map_err(|e| SnbError::Config(format!("cannot resolve {addr}: {e}")))?
        .collect();
    let mut last_err: Option<std::io::Error> = None;
    for sock in addrs {
        match TcpStream::connect_timeout(&sock, CONNECT_TIMEOUT) {
            Ok(stream) => return handshake(stream, request_timeout, addr),
            Err(e) => last_err = Some(e),
        }
    }
    Err(SnbError::Io(
        last_err
            .unwrap_or_else(|| std::io::Error::other(format!("{addr} resolved to no addresses"))),
    ))
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
