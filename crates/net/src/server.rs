//! Nonblocking readiness-loop TCP server wrapping any [`Connector`].
//!
//! The paper's throughput metric assumes the SUT absorbs many concurrent
//! driver sessions, so the server is built for connection counts far past
//! the driver's partition count: one event-loop thread multiplexes every
//! connection through an epoll-style poller (the vendored `polling` shim),
//! and a **fixed worker pool** executes the slow requests — thread count is
//! constant no matter how many clients connect or how hard they churn.
//!
//! Which thread executes a request is one rule (`runs_inline`). Short
//! reads S1–S7 (and the S2 partial a router scatters) and the Gct probe
//! run **inline on the event-loop thread**: they execute in about a
//! microsecond, less than the two cross-thread wake-ups (loop → worker →
//! loop) a pool hand-off costs. So do updates, when the connector says
//! they do not block ([`Connector::updates_block`]): an in-memory commit
//! takes a few microseconds. Complex reads, their partials and the
//! counters dump take milliseconds and would stall every connection while
//! they ran, and an update behind a WAL that syncs waits for `fdatasync`
//! before it may be acknowledged — on the loop thread it would stall the
//! loop and shrink group commit to one update per fsync — so those go to
//! the pool.
//!
//! Per-connection state machine: `handshake → frame-read → execute →
//! frame-write`. The handshake accepts the one protocol magic
//! ([`codec::NET_MAGIC`]) and severs anything else. The protocol is strict
//! request/response: a connection has at most one request executing, and
//! its next frame is parsed only once the reply to the previous one is
//! flushed. Read interest is on only in that idle state, so a peer that
//! writes ahead is answered one frame at a time, in order, while the
//! kernel's socket buffer holds what it sent early. A connection therefore
//! buffers at most one read chunk plus one partial frame inbound and one
//! reply frame outbound. Connection state lives in a slab keyed by poller
//! token and is reaped the moment a connection dies, so accept/close churn
//! cannot leak fds, buffers, or threads (the leak the old
//! thread-per-connection server had: it pushed every stream clone and
//! `JoinHandle` into vectors that only drained at shutdown).

use crate::codec::{self, Request, Response, MAX_FRAME, NET_MAGIC};
use crate::metrics::NetMetrics;
use snb_core::{SnbError, SnbResult};
use snb_driver::connector::{Connector, Operation};
use snb_obs::trace::{self, NameId, SpanData};
use snb_obs::HistogramSnapshot;
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Worker-pool size and shard identity of one server.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads executing requests. `0` = one per hardware thread,
    /// clamped to `[2, 8]`.
    pub workers: usize,
    /// This server's shard index (0-based). Single-process deployments
    /// keep the default `0/1`.
    pub shard: u32,
    /// Total shards in the deployment this server belongs to. Reported on
    /// the Gct RPC and as `net.server.shard_index`/`shard_count` counters
    /// so a sharded run's full disclosure identifies every participant.
    pub shards: u32,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig { workers: 0, shard: 0, shards: 1 }
    }
}

impl ServerConfig {
    fn effective_workers(&self) -> usize {
        if self.workers > 0 {
            return self.workers;
        }
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(2).clamp(2, 8)
    }
}

/// A running server. Dropping it shuts it down and joins every thread.
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    event_loop: Mutex<Option<JoinHandle<()>>>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

/// One request handed to the worker pool. `token` names the connection
/// (slot + generation) so a completion for a connection that died in the
/// meantime is recognized and dropped instead of hitting a reused slot.
struct Job {
    token: u64,
    request: Request,
    /// When the loop parsed the request, for `queue_micros`.
    parsed: Instant,
}

/// A fully framed response ready to be queued on its connection.
struct Completion {
    token: u64,
    frame: Vec<u8>,
}

struct Shared {
    connector: Arc<dyn Connector>,
    /// `!connector.updates_block()`, asked once at bind.
    inline_updates: bool,
    config: ServerConfig,
    shutdown: AtomicBool,
    poller: polling::Poller,
    jobs: Mutex<VecDeque<Job>>,
    jobs_ready: Condvar,
    completions: Mutex<Vec<Completion>>,
    metrics: NetMetrics,
}

impl Server {
    /// Bind `addr` (e.g. `"127.0.0.1:0"`) and start serving `connector`
    /// with the default [`ServerConfig`].
    pub fn bind(addr: impl ToSocketAddrs, connector: Arc<dyn Connector>) -> SnbResult<Server> {
        Server::bind_with_config(addr, connector, ServerConfig::default())
    }

    /// Bind with explicit readiness-loop / worker-pool sizing.
    pub fn bind_with_config(
        addr: impl ToSocketAddrs,
        connector: Arc<dyn Connector>,
        config: ServerConfig,
    ) -> SnbResult<Server> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let poller = polling::Poller::new()?;
        poller.add(&listener, polling::Event::readable(LISTENER_KEY))?;
        let worker_count = config.effective_workers();
        let shared = Arc::new(Shared {
            inline_updates: !connector.updates_block(),
            connector,
            config,
            shutdown: AtomicBool::new(false),
            poller,
            jobs: Mutex::new(VecDeque::new()),
            jobs_ready: Condvar::new(),
            completions: Mutex::new(Vec::new()),
            metrics: NetMetrics::new("server"),
        });

        let mut workers = Vec::with_capacity(worker_count);
        for i in 0..worker_count {
            let shared = Arc::clone(&shared);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("snb-net-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .map_err(SnbError::Io)?,
            );
        }
        let loop_shared = Arc::clone(&shared);
        let event_loop = std::thread::Builder::new()
            .name("snb-net-events".into())
            .spawn(move || EventLoop::new(listener, loop_shared).run())
            .map_err(SnbError::Io)?;
        Ok(Server {
            shared,
            addr,
            event_loop: Mutex::new(Some(event_loop)),
            workers: Mutex::new(workers),
        })
    }

    /// The bound address (with the OS-assigned port when bound to `:0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server side's net counters.
    pub fn metrics(&self) -> &NetMetrics {
        &self.shared.metrics
    }

    /// SUT counters merged with the server's net counters — the same view
    /// the counters RPC returns.
    pub fn counters(&self) -> Vec<(String, u64)> {
        merged_counters(&self.shared)
    }

    /// SUT histogram snapshots merged with the server's request-latency
    /// and queue-wait histograms — the same view the counters RPC returns.
    pub fn histograms(&self) -> Vec<(String, HistogramSnapshot)> {
        merged_histograms(&self.shared)
    }

    /// Stop accepting, sever every open connection, and wake every thread.
    /// Idempotent; does not wait for threads (see [`Server::join`]).
    pub fn shutdown(&self) {
        if self.shared.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // The event loop owns every socket; waking it is enough — it sees
        // the flag, drops the listener and all connections, and exits.
        let _ = self.shared.poller.notify();
        self.shared.jobs_ready.notify_all();
    }

    /// Wait for the event loop and every worker to exit.
    pub fn join(&self) {
        if let Some(handle) = self.event_loop.lock().unwrap_or_else(|e| e.into_inner()).take() {
            let _ = handle.join();
        }
        let workers = std::mem::take(&mut *self.workers.lock().unwrap_or_else(|e| e.into_inner()));
        for handle in workers {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
        self.join();
    }
}

// ---- worker pool ----

fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let job = {
            let mut jobs = shared.jobs.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                if let Some(job) = jobs.pop_front() {
                    break job;
                }
                jobs = shared
                    .jobs_ready
                    .wait_timeout(jobs, Duration::from_millis(100))
                    .unwrap_or_else(|e| e.into_inner())
                    .0;
            }
        };
        shared.metrics.queue_micros.record(job.parsed.elapsed().as_micros() as u64);
        let mut frame = Vec::new();
        serve_request(shared, job.request, &mut frame);
        shared
            .completions
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(Completion { token: job.token, frame });
        let _ = shared.poller.notify();
    }
}

/// Clears the thread's trace-capture buffer on **every** exit path. An
/// early return or panic between `start_capture` and `take_capture` must
/// not leave the buffer armed, or a later request handled by this worker
/// would absorb the leftover spans into its own trace.
struct CaptureGuard {
    armed: bool,
}

impl CaptureGuard {
    fn start(ctx: Option<(u64, u64)>) -> CaptureGuard {
        // The client's parent span id lives in the client's id space and
        // would be ambiguous against ids allocated here, so the capture
        // root is recorded with sentinel parent 0; the client grafts it
        // onto its wire span after remapping (`record_foreign_rooted`).
        if let Some((trace_id, _parent_span)) = ctx {
            trace::start_capture(trace_id, 0);
            CaptureGuard { armed: true }
        } else {
            CaptureGuard { armed: false }
        }
    }

    fn take(mut self) -> Vec<SpanData> {
        self.armed = false;
        trace::take_capture()
    }
}

impl Drop for CaptureGuard {
    fn drop(&mut self) {
        if self.armed {
            let _ = trace::take_capture();
        }
    }
}

/// Whether `request` executes on the event-loop thread rather than the
/// worker pool: the short reads, the S2 partial, the Gct probe, and
/// updates when `inline_updates` (the connector's updates do not block).
/// See the module docs for why exactly these.
fn runs_inline(request: &Request, inline_updates: bool) -> bool {
    match request {
        Request::Execute(Operation::Short(_), _)
        | Request::Partial(Operation::Short(_))
        | Request::Gct => true,
        Request::Execute(Operation::Update(_), _) => inline_updates,
        _ => false,
    }
}

/// Execute one request and append its fully framed response
/// (`len | payload`) to `out`; returns the frame's length. Never
/// panics outward: a panicking connector becomes an error response, and
/// the worker — or the event loop — lives on.
fn serve_request(shared: &Shared, request: Request, out: &mut Vec<u8>) -> usize {
    shared.metrics.requests.inc();
    let started = Instant::now();
    let response = match request {
        Request::Execute(op, ctx) => {
            // A request carrying a trace context adopts it: spans the
            // execution records on this thread go to a capture buffer and
            // ride back on the response, where the client stitches them
            // under its wire span.
            static SPAN_EXECUTE: NameId = NameId::new("server.execute");
            let capture = CaptureGuard::start(ctx);
            let result = catch_unwind(AssertUnwindSafe(|| {
                let _span = ctx.is_some().then(|| trace::span(&SPAN_EXECUTE));
                shared.connector.execute(&op)
            }));
            let spans = capture.take();
            match result {
                Ok(Ok(outcome)) => Response::Outcome(outcome, spans),
                // An execution error is an application-level reply, not a
                // connection failure: report it and keep serving.
                Ok(Err(e)) => {
                    shared.metrics.errors.inc();
                    Response::Error(e)
                }
                Err(_) => {
                    shared.metrics.errors.inc();
                    Response::Error(SnbError::Config("SUT panicked during execution".into()))
                }
            }
        }
        Request::Counters => Response::Counters {
            counters: merged_counters(shared),
            histograms: merged_histograms(shared),
        },
        Request::Partial(op) => {
            match catch_unwind(AssertUnwindSafe(|| shared.connector.execute_partial(&op))) {
                Ok(Ok(out)) => {
                    Response::Partial(out.partial, out.seed.map(|(m, date)| (m.raw(), date.0)))
                }
                Ok(Err(e)) => {
                    shared.metrics.errors.inc();
                    Response::Error(e)
                }
                Err(_) => {
                    shared.metrics.errors.inc();
                    Response::Error(SnbError::Config("SUT panicked during partial".into()))
                }
            }
        }
        Request::Gct => Response::Gct {
            shard: shared.config.shard,
            shards: shared.config.shards,
            horizon: shared.connector.gct_horizon(),
        },
    };
    let n = codec::put_frame(out, |frame| response.encode(frame));
    shared.metrics.request_micros.record(started.elapsed().as_micros() as u64);
    n
}

fn merged_counters(shared: &Shared) -> Vec<(String, u64)> {
    let mut counters = shared.connector.counters();
    counters.extend(shared.metrics.snapshot());
    // Shard identity rides the ordinary counters channel so a sharded
    // run's full disclosure names every participant without a codec
    // change (old clients simply see two more counters).
    counters.push(("net.server.shard_index".to_string(), shared.config.shard as u64));
    counters.push(("net.server.shard_count".to_string(), shared.config.shards as u64));
    counters
}

fn merged_histograms(shared: &Shared) -> Vec<(String, HistogramSnapshot)> {
    let mut histograms = shared.connector.histograms();
    histograms
        .push(("net.server.request_micros".to_string(), shared.metrics.request_micros.snapshot()));
    histograms
        .push(("net.server.queue_micros".to_string(), shared.metrics.queue_micros.snapshot()));
    histograms
}

// ---- event loop ----

const LISTENER_KEY: usize = 0;
/// Connection keys are `slot + KEY_BASE` so slot 0 never collides with the
/// listener's key.
const KEY_BASE: usize = 1;

/// How long `wait` may block with nothing happening. Shutdown and
/// completions arrive via `poller.notify`, so this is only a lost-wakeup
/// backstop, not a polling interval.
const WAIT_BACKSTOP: Duration = Duration::from_millis(250);

/// Read chunk size: one `read` per readiness event. A connection reads only
/// while it holds no complete frame, so this bounds its inbound buffer to
/// one chunk plus one partial frame.
const READ_CHUNK: usize = 16 * 1024;

/// Per-connection state machine.
struct Conn {
    stream: TcpStream,
    gen: u32,
    /// The peer's magic was received, accepted and echoed.
    handshaken: bool,
    /// Inbound bytes: the unparsed window is `rbuf[rpos..]`.
    rbuf: Vec<u8>,
    rpos: usize,
    /// Outbound bytes: the unflushed window is `wbuf[wpos..]`.
    wbuf: Vec<u8>,
    wpos: usize,
    /// The connection's request is on the worker pool; its reply is owed.
    busy: bool,
    /// The peer hung up or sent garbage: read no more, answer the frames
    /// already read, then close.
    read_closed: bool,
}

impl Conn {
    fn new(stream: TcpStream, gen: u32) -> Conn {
        Conn {
            stream,
            gen,
            handshaken: false,
            rbuf: Vec::with_capacity(8 * 1024),
            rpos: 0,
            wbuf: Vec::new(),
            wpos: 0,
            busy: false,
            read_closed: false,
        }
    }

    fn token(&self, slot: usize) -> u64 {
        ((self.gen as u64) << 32) | slot as u64
    }

    fn unflushed(&self) -> usize {
        self.wbuf.len() - self.wpos
    }

    /// No request executing and no reply waiting to be written: the only
    /// state in which the next frame is parsed.
    fn idle(&self) -> bool {
        !self.busy && self.unflushed() == 0
    }
}

struct EventLoop {
    listener: TcpListener,
    shared: Arc<Shared>,
    conns: Vec<Option<Conn>>,
    /// Reusable slots; `gens[slot]` bumps on every close so stale worker
    /// completions can never reach a recycled connection.
    free: Vec<usize>,
    gens: Vec<u32>,
}

impl EventLoop {
    fn new(listener: TcpListener, shared: Arc<Shared>) -> EventLoop {
        EventLoop { listener, shared, conns: Vec::new(), free: Vec::new(), gens: Vec::new() }
    }

    fn run(mut self) {
        let mut events = Vec::new();
        loop {
            events.clear();
            let wait_started = Instant::now();
            if self.shared.poller.wait(&mut events, Some(WAIT_BACKSTOP)).is_err() {
                // A persistently failing poller must not become a busy
                // loop; back off and recheck shutdown.
                std::thread::sleep(Duration::from_millis(10));
            }
            // Busy/idle split of the loop thread: `wait` time is idle,
            // everything else (accept, read, parse, dispatch, inline
            // execution, flush) is busy. busy/(busy+idle) approaching 1
            // means the single loop thread — not the worker pool — is the
            // bottleneck.
            let busy_started = Instant::now();
            self.shared
                .metrics
                .loop_idle_nanos
                .add(busy_started.duration_since(wait_started).as_nanos() as u64);
            if self.shared.shutdown.load(Ordering::SeqCst) {
                break;
            }
            self.drain_completions();
            for &event in &events {
                if event.key == LISTENER_KEY {
                    self.accept_burst();
                } else {
                    self.handle_conn_event(event.key - KEY_BASE, event);
                }
            }
            self.shared.metrics.loop_busy_nanos.add(busy_started.elapsed().as_nanos() as u64);
        }
        // Teardown: closing every fd sends FIN/RST, so blocked client
        // reads fail promptly; workers exit via the shutdown flag.
        for slot in 0..self.conns.len() {
            self.close_conn(slot);
        }
        self.shared.jobs_ready.notify_all();
    }

    fn accept_burst(&mut self) {
        let mut burst = 0u64;
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    burst += 1;
                    let _ = stream.set_nodelay(true);
                    if stream.set_nonblocking(true).is_err() {
                        continue; // never serve a stream that would block the loop
                    }
                    self.shared.metrics.connections.inc();
                    self.shared.metrics.open_conns.inc();
                    let slot = match self.free.pop() {
                        Some(slot) => slot,
                        None => {
                            self.conns.push(None);
                            self.gens.push(0);
                            self.conns.len() - 1
                        }
                    };
                    let conn = Conn::new(stream, self.gens[slot]);
                    if self
                        .shared
                        .poller
                        .add(&conn.stream, polling::Event::readable(slot + KEY_BASE))
                        .is_err()
                    {
                        self.shared.metrics.closed.inc();
                        self.shared.metrics.open_conns.dec();
                        self.gens[slot] = self.gens[slot].wrapping_add(1);
                        self.free.push(slot);
                        continue;
                    }
                    self.conns[slot] = Some(conn);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                // Transient accept errors (EMFILE, aborted connections):
                // drop this readiness round; the re-arm below retries.
                Err(_) => break,
            }
        }
        self.shared.metrics.accept_backlog.set(burst);
        let _ = self.shared.poller.modify(&self.listener, polling::Event::readable(LISTENER_KEY));
    }

    fn handle_conn_event(&mut self, slot: usize, event: polling::Event) {
        if self.conns.get(slot).is_none_or(Option::is_none) {
            return; // closed earlier this iteration
        }
        if event.readable && !self.read_into_conn(slot) {
            return; // hard error: connection already closed
        }
        self.after_progress(slot);
    }

    /// Read one chunk from the socket into `rbuf`, first dropping the bytes
    /// already parsed. An idle connection only: a hangup is reported as
    /// readable even while a reply is owed. Returns false when the
    /// connection was closed on a hard error.
    fn read_into_conn(&mut self, slot: usize) -> bool {
        let conn = self.conns[slot].as_mut().expect("checked by caller");
        if conn.read_closed || !conn.idle() {
            return true;
        }
        conn.rbuf.drain(..conn.rpos);
        conn.rpos = 0;
        let mut chunk = [0u8; READ_CHUNK];
        loop {
            match conn.stream.read(&mut chunk) {
                Ok(0) => conn.read_closed = true,
                Ok(n) => conn.rbuf.extend_from_slice(&chunk[..n]),
                // Interest is level-triggered: bytes left in the socket
                // fire again once `after_progress` re-arms it.
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.shared.metrics.errors.inc();
                    self.close_conn(slot);
                    return false;
                }
            }
            return true;
        }
    }

    /// Accept the handshake, then take the next complete frame out of
    /// `rbuf` and decode it. `None` means nothing to start: no complete
    /// frame yet, a handshake echo or error reply to flush first, or a peer
    /// that broke the protocol and was severed.
    fn parse_next(&mut self, slot: usize) -> Option<Request> {
        let conn = self.conns[slot].as_mut().expect("checked by caller");
        let window = &conn.rbuf[conn.rpos..];

        // Handshake: the client speaks first; echo the magic back.
        if !conn.handshaken {
            let magic = window.first_chunk::<8>()?; // the magic may arrive split
            if *magic != NET_MAGIC {
                self.shared.metrics.errors.inc();
                self.close_conn(slot);
                return None;
            }
            conn.handshaken = true;
            conn.rpos += 8;
            conn.wbuf.extend_from_slice(&NET_MAGIC);
            self.shared.metrics.bytes_in.add(8);
            self.shared.metrics.bytes_out.add(8);
            return None; // flush the echo before the first frame
        }

        let prefix = window.first_chunk::<4>()?;
        let len = u32::from_le_bytes(*prefix) as usize;
        if len == 0 || len > MAX_FRAME {
            // No trustworthy stream position remains; sever.
            self.shared.metrics.errors.inc();
            self.close_conn(slot);
            return None;
        }
        if window.len() < 4 + len {
            return None; // frame still arriving
        }
        let decoded = Request::decode(&window[4..4 + len]);
        conn.rpos += 4 + len;
        self.shared.metrics.bytes_in.add((4 + len) as u64);
        if decoded.is_none() {
            // A frame we could not decode leaves no trustworthy stream
            // position; reply once, then sever after the reply is flushed.
            self.shared.metrics.errors.inc();
            let error = Response::Error(SnbError::Config("malformed request frame".into()));
            let n = codec::put_frame(&mut conn.wbuf, |frame| error.encode(frame));
            self.shared.metrics.bytes_out.add(n as u64);
            conn.rbuf.clear();
            conn.rpos = 0;
            conn.read_closed = true;
        }
        decoded
    }

    /// Serve an inline request into the connection's write buffer, or hand
    /// it to the worker pool and mark the connection busy.
    fn start(&mut self, slot: usize, request: Request) {
        let conn = self.conns[slot].as_mut().expect("checked by caller");
        if runs_inline(&request, self.shared.inline_updates) {
            self.shared.metrics.inline_requests.inc();
            let n = serve_request(&self.shared, request, &mut conn.wbuf);
            self.shared.metrics.bytes_out.add(n as u64);
            return;
        }
        conn.busy = true;
        self.shared.metrics.pipeline_depth.inc();
        let job = Job { token: conn.token(slot), request, parsed: Instant::now() };
        self.shared.jobs.lock().unwrap_or_else(|e| e.into_inner()).push_back(job);
        // One job wakes one worker; waking them all would send every other
        // one straight back to sleep.
        self.shared.jobs_ready.notify_one();
    }

    /// Queue each completed reply on its connection and keep that
    /// connection moving.
    fn drain_completions(&mut self) {
        let completions =
            std::mem::take(&mut *self.shared.completions.lock().unwrap_or_else(|e| e.into_inner()));
        for completion in completions {
            let slot = (completion.token & 0xffff_ffff) as usize;
            let gen = (completion.token >> 32) as u32;
            self.shared.metrics.pipeline_depth.dec();
            let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
                continue; // connection died while the request executed
            };
            if conn.gen != gen {
                continue; // slot recycled: response belongs to a dead peer
            }
            conn.busy = false;
            self.shared.metrics.bytes_out.add(completion.frame.len() as u64);
            conn.wbuf.extend_from_slice(&completion.frame);
            self.after_progress(slot);
        }
    }

    /// Flush the reply, and while the connection is idle start the next
    /// request already read; then close a connection whose peer is gone
    /// and is owed nothing, or re-arm its poller interest: write while a
    /// reply is unflushed, read while idle, nothing while busy.
    fn after_progress(&mut self, slot: usize) {
        loop {
            if !self.flush(slot) {
                return;
            }
            if !self.conns[slot].as_ref().expect("flush kept it open").idle() {
                break;
            }
            let Some(request) = self.parse_next(slot) else {
                match &self.conns[slot] {
                    None => return, // severed for breaking the protocol
                    Some(conn) if conn.idle() => break,
                    Some(_) => continue, // flush the echo or error reply first
                }
            };
            self.start(slot, request);
        }
        let conn = self.conns[slot].as_ref().expect("still open");
        if conn.busy {
            // Left disarmed since the one-shot event that started the
            // request, so a hangup cannot wake the loop over and over; the
            // completion re-arms it.
            return;
        }
        let key = slot + KEY_BASE;
        let interest = if conn.unflushed() > 0 {
            polling::Event::writable(key)
        } else if conn.read_closed {
            return self.close_conn(slot);
        } else {
            polling::Event::readable(key)
        };
        if self.shared.poller.modify(&conn.stream, interest).is_err() {
            self.close_conn(slot);
        }
    }

    /// Write as much of the reply as the socket accepts. Returns false when
    /// the connection was closed on a hard error.
    fn flush(&mut self, slot: usize) -> bool {
        let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
            return false;
        };
        while conn.unflushed() > 0 {
            match conn.stream.write(&conn.wbuf[conn.wpos..]) {
                Ok(0) => {
                    self.shared.metrics.errors.inc();
                    self.close_conn(slot);
                    return false;
                }
                Ok(n) => conn.wpos += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.shared.metrics.errors.inc();
                    self.close_conn(slot);
                    return false;
                }
            }
        }
        conn.wbuf.clear();
        conn.wpos = 0;
        true
    }

    /// Reap one connection *now*: poller deregistration, fd close (via
    /// drop), slot recycled under a bumped generation. This runs the
    /// moment a connection dies — not at shutdown — so churn cannot
    /// accumulate state.
    fn close_conn(&mut self, slot: usize) {
        let Some(conn) = self.conns.get_mut(slot).and_then(Option::take) else {
            return;
        };
        let _ = self.shared.poller.delete(&conn.stream);
        self.shared.metrics.closed.inc();
        self.shared.metrics.open_conns.dec();
        self.gens[slot] = self.gens[slot].wrapping_add(1);
        self.free.push(slot);
        // A request of this conn still on the pool finishes there and is
        // dropped by the generation check in drain_completions;
        // `pipeline_depth` is decremented there, so the gauge stays
        // balanced.
        drop(conn);
    }
}
