//! # snb-net
//!
//! The networked SUT boundary. The paper's driver talks to its systems
//! under test over a client/server split (§4: the driver "issues queries
//! against the SUT" as a separate process); this crate reproduces that
//! boundary so driver-scalability experiments can measure real
//! serialization and socket costs instead of in-process calls:
//!
//! - [`codec`] — length-prefixed binary frames; updates reuse the WAL's
//!   `UpdateOp` encoding, so the workspace has one binary codec for
//!   mutations on disk and on the wire. Every frame payload is prefixed
//!   with a correlation id so responses can complete out of order.
//! - [`Server`] — a nonblocking readiness-loop TCP server (epoll-backed;
//!   short reads run on the loop thread, slow requests on a fixed worker
//!   pool) wrapping any [`snb_driver::Connector`]
//!   (`snb serve`). Pipelines up to 64 requests per connection;
//!   per-connection write queues are bounded and exert backpressure by
//!   pausing reads.
//! - [`RemoteConnector`] — a pooled client implementing `Connector`
//!   (`snb run --connect host:port`). Retries connects with bounded
//!   backoff; never retries a sent request (updates are not idempotent).
//! - [`PipelinedClient`] — a single-connection windowed client for load
//!   generation: decoupled send/recv matched by correlation id.
//!
//! Both sides keep `net.client.*` / `net.server.*` counters
//! ([`NetMetrics`]) that feed the full-disclosure report; the counters RPC
//! lets the driver pull the remote SUT's counters at run end.

pub mod client;
pub mod codec;
pub mod metrics;
pub mod router;
pub mod server;

pub use client::{NetConfig, PipelinedClient, RemoteConnector};
pub use codec::{read_frame, write_frame, Request, Response, MAX_FRAME, NET_MAGIC_V3};
pub use metrics::NetMetrics;
pub use router::ShardedConnector;
pub use server::{Server, ServerConfig};
