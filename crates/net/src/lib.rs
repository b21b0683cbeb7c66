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
//!   mutations on disk and on the wire. A connection carries one request
//!   and its response at a time.
//! - [`Server`] — a blocking TCP server with one thread per connection,
//!   each request running on its connection's thread, wrapping any
//!   [`snb_driver::Connector`] (`snb serve`). It reads a connection's next
//!   request only after answering the last one, so a peer that writes
//!   ahead is held back by its own socket buffer.
//! - [`RemoteConnector`] — a pooled client implementing `Connector`
//!   (`snb run --connect host:port`). Retries connects with bounded
//!   backoff; never retries a sent request (updates are not idempotent).
//!
//! Both sides keep `net.client.*` / `net.server.*` counters
//! ([`NetMetrics`]) that feed the full-disclosure report; the counters RPC
//! lets the driver pull the remote SUT's counters at run end.

pub mod client;
pub mod codec;
pub mod metrics;
pub mod router;
pub mod server;

pub use client::RemoteConnector;
pub use codec::{read_frame, write_frame, Request, Response, MAX_FRAME, NET_MAGIC};
pub use metrics::NetMetrics;
pub use router::ShardedConnector;
pub use server::{Server, ServerConfig};
