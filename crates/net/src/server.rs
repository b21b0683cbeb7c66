//! Blocking TCP server wrapping any [`Connector`], one thread per
//! connection.
//!
//! The paper's driver issues one operation per partition and waits for it
//! (§4), so a connection carries one request at a time, and the server
//! gives each connection a thread of its own. An accept thread
//! (`snb-net-accept`) hands every accepted socket to a named thread,
//! `snb-net-conn`, which does the handshake and then loops: read one
//! frame, execute it with `serve_request`, write the reply. Every request
//! runs on its own connection's thread, so there is no rule choosing a
//! thread and no cross-thread hand-off: a short read costs one `read` and
//! one `write`.
//!
//! Co-location. A connection whose peer is on this host (a loopback
//! address) moves its thread to the CPU its requests arrive from: over
//! loopback that is the sending client's CPU, and the driver pins each
//! partition to a CPU of its own, so a request and its reply are same-CPU
//! wake-ups (DESIGN.md, "Co-location"). A remote peer's requests arrive on
//! a NIC queue's CPU, which says nothing about the client, so its thread is
//! left to the scheduler.
//!
//! The handshake accepts the one protocol magic ([`codec::NET_MAGIC`]) and
//! severs anything else. Replies go out strictly in order: a peer that
//! writes ahead is answered one frame at a time, while what it sent early
//! waits in its buffer and the kernel's. A frame longer than [`MAX_FRAME`],
//! or empty, severs the connection; one that does not decode is answered
//! with an error once, and then severed.
//!
//! Bounds. At most [`ServerConfig::max_connections`] connections are
//! served at once; one past the cap is accepted and closed at once. The
//! socket's read and write timeouts, set once at accept, sever a peer that
//! sends no magic, leaves a frame half sent, or leaves a reply unread, for
//! [`FRAME_STALL`]; a handshaken connection idle between frames may wait
//! forever, because a paced driver can idle that long. A drop guard reaps
//! the connection on every exit path — hangup, protocol error, stall,
//! shutdown, or a panic while decoding — so churn leaks no fd, buffer or
//! thread, and a panic ends only its own connection.

use crate::codec::{self, Request, Response, MAX_FRAME, NET_MAGIC};
use crate::metrics::NetMetrics;
use snb_core::{SnbError, SnbResult};
use snb_driver::connector::Connector;
use snb_obs::trace::{self, NameId, SpanData};
use snb_obs::HistogramSnapshot;
use std::collections::HashMap;
use std::io::{self, ErrorKind, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a peer may leave a frame half sent, or let a reply write make
/// no progress, before its connection is severed. Waiting for the first
/// byte of the next frame has no limit.
pub const FRAME_STALL: Duration = Duration::from_secs(5);

/// Initial inbound buffer, and the most one `read` adds to it: a frame
/// longer than the buffer grows it only as its bytes arrive, so a hostile
/// length prefix costs nothing up front.
const READ_CHUNK: usize = 16 * 1024;

/// Connection cap and shard identity of one server.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Connections served at once. A connection accepted past the cap is
    /// closed at once and counted in `net.server.errors`.
    pub max_connections: usize,
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
        ServerConfig { max_connections: 256, shard: 0, shards: 1 }
    }
}

/// A running server. Dropping it shuts it down and joins every thread.
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    acceptor: Mutex<Option<JoinHandle<()>>>,
}

struct Shared {
    connector: Arc<dyn Connector>,
    config: ServerConfig,
    shutdown: AtomicBool,
    /// A handle on every open connection's socket, by connection id, so
    /// shutdown can sever it. Its length is what the cap counts.
    conns: Mutex<HashMap<u64, TcpStream>>,
    metrics: NetMetrics,
}

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|e| e.into_inner())
}

impl Server {
    /// Bind `addr` (e.g. `"127.0.0.1:0"`) and start serving `connector`
    /// with the default [`ServerConfig`].
    pub fn bind(addr: impl ToSocketAddrs, connector: Arc<dyn Connector>) -> SnbResult<Server> {
        Server::bind_with_config(addr, connector, ServerConfig::default())
    }

    /// Bind with an explicit connection cap and shard identity.
    pub fn bind_with_config(
        addr: impl ToSocketAddrs,
        connector: Arc<dyn Connector>,
        config: ServerConfig,
    ) -> SnbResult<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            connector,
            config,
            shutdown: AtomicBool::new(false),
            conns: Mutex::new(HashMap::new()),
            metrics: NetMetrics::new("server"),
        });
        let accept_shared = Arc::clone(&shared);
        let acceptor = std::thread::Builder::new()
            .name("snb-net-accept".into())
            .spawn(move || accept_loop(&listener, &accept_shared))
            .map_err(SnbError::Io)?;
        Ok(Server { shared, addr, acceptor: Mutex::new(Some(acceptor)) })
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
    /// histogram — the same view the counters RPC returns.
    pub fn histograms(&self) -> Vec<(String, HistogramSnapshot)> {
        merged_histograms(&self.shared)
    }

    /// Stop accepting and sever every open connection, which unblocks its
    /// thread. Idempotent; does not wait for threads (see [`Server::join`]).
    pub fn shutdown(&self) {
        if self.shared.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Wake the accept thread out of `accept`: it sees the flag and
        // exits.
        let mut wake = self.addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        let _ = TcpStream::connect_timeout(&wake, Duration::from_secs(1));
        for stream in lock(&self.shared.conns).values() {
            let _ = stream.shutdown(Shutdown::Both);
        }
    }

    /// Wait for the accept thread and every connection thread to exit.
    pub fn join(&self) {
        if let Some(handle) = lock(&self.acceptor).take() {
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

/// Accept connections until shutdown, each on a thread of its own; then
/// join every connection thread.
fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    let mut threads: Vec<JoinHandle<()>> = Vec::new();
    let mut next_id = 0u64;
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            // Transient accept errors (EMFILE, aborted connections): back
            // off rather than spin, then retry.
            Err(_) => {
                std::thread::sleep(Duration::from_millis(10));
                continue;
            }
        };
        // Join the threads of connections that have ended, so their
        // handles do not pile up.
        let (ended, live) = std::mem::take(&mut threads).into_iter().partition(|t| t.is_finished());
        threads = live;
        ended.into_iter().for_each(|t| drop(t.join()));

        let id = {
            let mut conns = lock(&shared.conns);
            // Checked under the registry lock, so a connection is either
            // registered before shutdown severs the registry, or dropped.
            if shared.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let handle = match stream.try_clone() {
                Ok(handle) if conns.len() < shared.config.max_connections => handle,
                // Past the cap, or no handle to sever it by: dropping the
                // stream closes it.
                _ => {
                    shared.metrics.errors.inc();
                    continue;
                }
            };
            next_id += 1;
            conns.insert(next_id, handle);
            next_id
        };
        shared.metrics.connections.inc();
        shared.metrics.open_conns.inc();
        let reap = Reap { shared: Arc::clone(shared), id };
        let spawned = std::thread::Builder::new().name("snb-net-conn".into()).spawn(move || {
            if let Err(e) = serve_connection(&reap.shared, stream) {
                // A hangup is how a connection ends; anything else is an
                // error: a broken protocol, a stall, a reset.
                if e.kind() != ErrorKind::UnexpectedEof {
                    reap.shared.metrics.errors.inc();
                }
            }
        });
        match spawned {
            Ok(thread) => threads.push(thread),
            // The closure, and the `Reap` in it, were dropped: reaped.
            Err(_) => shared.metrics.errors.inc(),
        }
    }
    for thread in threads {
        let _ = thread.join();
    }
}

/// Reaps its connection when the connection's thread ends, however it
/// ends: removes the socket from the registry and ticks `closed` and
/// `open_conns` (and `errors`, if the thread is unwinding from a panic).
struct Reap {
    shared: Arc<Shared>,
    id: u64,
}

impl Drop for Reap {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.shared.metrics.errors.inc();
        }
        lock(&self.shared.conns).remove(&self.id);
        self.shared.metrics.closed.inc();
        self.shared.metrics.open_conns.dec();
    }
}

/// One connection's blocking socket and inbound buffer: `buf[pos..end]`
/// has been read but not consumed. A frame is consumed only once it is
/// whole, so `pos == end` means no byte of the next frame has arrived.
struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    pos: usize,
    end: usize,
    /// The magic was accepted: from now on the peer may idle between
    /// frames. Before it, a silent peer is stalled like one mid-frame.
    handshaken: bool,
}

impl Conn {
    /// Block until `n` unconsumed bytes are buffered. After the handshake,
    /// waiting for the first byte of a frame has no limit; otherwise a
    /// read that makes no progress for [`FRAME_STALL`] fails. A hangup is
    /// `UnexpectedEof`.
    fn fill(&mut self, n: usize) -> io::Result<()> {
        while self.end - self.pos < n {
            if self.pos == self.end {
                (self.pos, self.end) = (0, 0);
            } else if self.buf.len() - self.pos < n {
                self.buf.copy_within(self.pos..self.end, 0);
                (self.pos, self.end) = (0, self.end - self.pos);
            }
            if self.end == self.buf.len() {
                self.buf.resize((self.pos + n).min(self.end + READ_CHUNK), 0);
            }
            match self.stream.read(&mut self.buf[self.end..]) {
                Ok(0) => return Err(ErrorKind::UnexpectedEof.into()),
                Ok(read) => self.end += read,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e)
                    if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)
                        && self.handshaken
                        && self.pos == self.end => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }
}

/// Serve one connection until it ends: the handshake, then one request
/// at a time. Returns how it ended.
fn serve_connection(shared: &Shared, stream: TcpStream) -> io::Result<()> {
    let metrics = &shared.metrics;
    let local_peer = stream.peer_addr().is_ok_and(|peer| peer.ip().is_loopback());
    let mut pinned_cpu = None;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(FRAME_STALL))?;
    stream.set_write_timeout(Some(FRAME_STALL))?;
    let mut conn = Conn { stream, buf: vec![0; READ_CHUNK], pos: 0, end: 0, handshaken: false };

    // Handshake: the client speaks first; echo the magic back.
    conn.fill(NET_MAGIC.len())?;
    if conn.buf[..NET_MAGIC.len()] != NET_MAGIC {
        return Err(ErrorKind::InvalidData.into());
    }
    conn.pos = NET_MAGIC.len();
    conn.handshaken = true;
    conn.stream.write_all(&NET_MAGIC)?;
    metrics.bytes_in.add(8);
    metrics.bytes_out.add(8);

    let mut out = Vec::new();
    let mut waiting = Instant::now();
    loop {
        conn.fill(4)?;
        let prefix = conn.buf[conn.pos..conn.pos + 4].try_into().expect("4 bytes");
        let len = u32::from_le_bytes(prefix) as usize;
        if len == 0 || len > MAX_FRAME {
            // No trustworthy stream position remains; sever.
            return Err(ErrorKind::InvalidData.into());
        }
        conn.fill(4 + len)?;
        if local_peer {
            follow_incoming_cpu(&conn.stream, &mut pinned_cpu);
        }
        let started = Instant::now();
        metrics.loop_idle_nanos.add(started.duration_since(waiting).as_nanos() as u64);
        let decoded = Request::decode(&conn.buf[conn.pos + 4..conn.pos + 4 + len]);
        conn.pos += 4 + len;
        metrics.bytes_in.add((4 + len) as u64);
        out.clear();
        let Some(request) = decoded else {
            // A frame we could not decode leaves no trustworthy stream
            // position; reply once, then sever.
            metrics.errors.inc();
            let error = Response::Error(SnbError::Config("malformed request frame".into()));
            metrics.bytes_out.add(codec::put_frame(&mut out, |frame| error.encode(frame)) as u64);
            let _ = conn.stream.write_all(&out);
            return Ok(());
        };
        let n = serve_request(shared, request, &mut out);
        conn.stream.write_all(&out)?;
        metrics.bytes_out.add(n as u64);
        waiting = Instant::now();
        metrics.loop_busy_nanos.add(waiting.duration_since(started).as_nanos() as u64);
    }
}

/// Pin the calling thread to the CPU that received `stream`'s latest
/// segment, unless it is already pinned there. Errors leave the thread as
/// it is: the CPU may lie outside this process's set.
fn follow_incoming_cpu(stream: &TcpStream, pinned_cpu: &mut Option<usize>) {
    let Some(cpu) = incoming_cpu(stream) else { return };
    if *pinned_cpu != Some(cpu) && snb_driver::affinity::pin_current_thread(cpu) {
        *pinned_cpu = Some(cpu);
    }
}

/// `SO_INCOMING_CPU`: the CPU that processed the socket's latest inbound
/// segment. Bound where the option has its asm-generic number.
#[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
fn incoming_cpu(stream: &TcpStream) -> Option<usize> {
    use std::os::fd::AsRawFd;
    use std::os::raw::{c_int, c_void};
    const SOL_SOCKET: c_int = 1;
    const SO_INCOMING_CPU: c_int = 49;
    extern "C" {
        fn getsockopt(
            fd: c_int,
            level: c_int,
            name: c_int,
            value: *mut c_void,
            len: *mut u32,
        ) -> c_int;
    }
    let mut cpu: c_int = -1;
    let mut len = std::mem::size_of::<c_int>() as u32;
    // SAFETY: `cpu` is a writable int and `len` holds its size; the fd is
    // open for as long as `stream` is borrowed.
    let ret = unsafe {
        getsockopt(
            stream.as_raw_fd(),
            SOL_SOCKET,
            SO_INCOMING_CPU,
            (&mut cpu as *mut c_int).cast(),
            &mut len,
        )
    };
    (ret == 0).then_some(cpu).and_then(|cpu| usize::try_from(cpu).ok())
}

#[cfg(not(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64"))))]
fn incoming_cpu(_stream: &TcpStream) -> Option<usize> {
    None
}

/// Clears the thread's trace-capture buffer on **every** exit path. An
/// early return or panic between `start_capture` and `take_capture` must
/// not leave the buffer armed, or a later request handled by this thread
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

/// Execute one request and append its fully framed response
/// (`len | payload`) to `out`; returns the frame's length. Never
/// panics outward: a panicking connector becomes an error response, and
/// the connection lives on.
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
}
