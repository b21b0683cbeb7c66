//! Net-layer counters, exported through the same full-disclosure channel as
//! every other subsystem (`layer.subsystem.metric` names, see `snb-obs`).

use snb_obs::{Counter, Gauge, LatencyHistogram};

/// Counters kept by one side of the wire. Both the server and the
/// [`crate::RemoteConnector`] own one; [`NetMetrics::snapshot`] renders it
/// as `net.<side>.<metric>` pairs for the counters RPC and the driver's
/// full-disclosure report.
#[derive(Debug)]
pub struct NetMetrics {
    side: &'static str,
    /// Successful dials (client) or connections served (server; one
    /// closed at once past the connection cap is an error, not counted).
    pub connections: Counter,
    /// Connections reaped after the peer hung up or erred (server only).
    /// `connections - closed` is the live count — drift past
    /// `open_conns` is a connection leak.
    pub closed: Counter,
    /// Replacement connections dialed after the first (client only).
    pub reconnects: Counter,
    /// Currently open connections (server only).
    pub open_conns: Gauge,
    /// Nanoseconds the connection threads spent serving a request — from
    /// holding a whole frame to having written its reply — summed over
    /// every connection (server only). The benchmark of record reads
    /// this name and its sibling's, so they keep their `loop_` prefix.
    pub loop_busy_nanos: Counter,
    /// Nanoseconds the connection threads spent waiting for the next
    /// frame to arrive whole, summed over every connection (server only).
    /// `busy / (busy + idle)` is the share of connection time spent
    /// serving rather than waiting on the peer.
    pub loop_idle_nanos: Counter,
    /// Requests sent (client) or served (server).
    pub requests: Counter,
    /// Failed dial attempts, transport errors, and error responses.
    pub errors: Counter,
    /// Bytes read off the wire, including frame prefixes.
    pub bytes_in: Counter,
    /// Bytes written to the wire, including frame prefixes.
    pub bytes_out: Counter,
    /// Request latency in microseconds: client-observed round trip on the
    /// client side, execute-to-encode service time on the server side.
    pub request_micros: LatencyHistogram,
}

impl NetMetrics {
    /// A metrics set whose snapshot renders under `net.<side>.`.
    pub fn new(side: &'static str) -> NetMetrics {
        NetMetrics {
            side,
            connections: Counter::detached(),
            closed: Counter::detached(),
            reconnects: Counter::detached(),
            open_conns: Gauge::new(),
            loop_busy_nanos: Counter::detached(),
            loop_idle_nanos: Counter::detached(),
            requests: Counter::detached(),
            errors: Counter::detached(),
            bytes_in: Counter::detached(),
            bytes_out: Counter::detached(),
            request_micros: LatencyHistogram::new(),
        }
    }

    /// Current values as `(name, value)` pairs, histogram summarized into
    /// count / mean / p50 / p95 / p99 / max.
    pub fn snapshot(&self) -> Vec<(String, u64)> {
        let name = |metric: &str| format!("net.{}.{metric}", self.side);
        let mut out = vec![
            (name("connections"), self.connections.get()),
            (name("reconnects"), self.reconnects.get()),
            (name("requests"), self.requests.get()),
            (name("errors"), self.errors.get()),
            (name("bytes_in"), self.bytes_in.get()),
            (name("bytes_out"), self.bytes_out.get()),
            (name("request_micros_count"), self.request_micros.count()),
        ];
        if self.side == "server" {
            out.push((name("closed"), self.closed.get()));
            out.push((name("open_conns"), self.open_conns.get()));
            out.push((name("loop_busy_nanos"), self.loop_busy_nanos.get()));
            out.push((name("loop_idle_nanos"), self.loop_idle_nanos.get()));
        }
        if !self.request_micros.is_empty() {
            out.push((name("request_micros_mean"), self.request_micros.mean() as u64));
            out.push((name("request_micros_p50"), self.request_micros.value_at_quantile(0.50)));
            out.push((name("request_micros_p95"), self.request_micros.value_at_quantile(0.95)));
            out.push((name("request_micros_p99"), self.request_micros.value_at_quantile(0.99)));
            out.push((name("request_micros_max"), self.request_micros.max()));
        }
        out
    }
}
