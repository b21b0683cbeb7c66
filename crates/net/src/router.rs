//! [`ShardedConnector`] — the driver side of a *distributed* SUT.
//!
//! The paper's driver is explicitly built to benchmark clustered systems
//! (§4: update streams are partitioned across machines and the GCT exists
//! to keep dependent updates ordered across them). This router implements
//! the driver's [`Connector`] trait over N `snb serve --shard i/N`
//! processes, each holding the replicated person/knows graph plus a
//! forum-partitioned slice of the activity (see
//! [`snb_core::shard::ShardMap`] and DESIGN.md "Sharding"):
//!
//! * **Point operations** route to one shard. Person-anchored lookups
//!   (Q1/Q11/Q13, S1/S3) can be answered anywhere — persons are
//!   replicated — so they route by person-id range to spread load.
//!   Message-anchored lookups (S4–S7) route to the shard owning the
//!   message's forum, resolved through a message → shard directory seeded
//!   from the dataset and learned from routed AddPost/AddComment.
//! * **Scatterable reads** (the other eleven complex queries and S2) fan
//!   out as `Partial` requests — written to *every* shard before
//!   reading from *any*, so the shards execute concurrently — and the
//!   exact client-side merge (`snb_queries::sharded`) reassembles the
//!   global answer.
//! * **Updates** route by ownership: forum-tree operations (U4–U7) to the
//!   forum's shard, likes (U2/U3) through the message directory, and the
//!   replicated-row operations (U1 addPerson, U8 addFriendship) broadcast
//!   to every shard, all writes before any read like a scatter. A
//!   broadcast completes only when all shards have acked, which is
//!   exactly the GCT guarantee the driver needs: by the time a dependent
//!   operation's `T_DEP ≤ GCT` gate opens, the person it depends on is
//!   visible on whichever shard the operation lands on.
//!   [`ShardedConnector::gct_check`] verifies that invariant end-to-end
//!   through the servers' GCT RPC.
//!
//! Failure semantics follow the single-shard rules: connects are retried
//! with jittered backoff, but a request that has been *sent* is never
//! replayed — one dead shard poisons its connection, surfaces an error,
//! and fails the run promptly (the benchmark's required behavior).

use crate::client::{self, RemoteConnector, REQUEST_TIMEOUT};
use crate::codec::{self, Response};
use snb_core::shard::ShardMap;
use snb_core::update::UpdateOp;
use snb_core::{ForumId, MessageId, SnbError, SnbResult};
use snb_driver::connector::{anchor_person, Connector, OpOutcome, Operation};
use snb_obs::HistogramSnapshot;
use snb_queries::params::{ComplexQuery, ShortQuery};
use snb_queries::sharded::{self, Partial};
use std::collections::HashMap;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::RwLock;
use std::time::{Duration, Instant};

/// A [`Connector`] that routes the interactive workload across N shard
/// servers and merges scattered reads exactly (see module docs).
pub struct ShardedConnector {
    shards: Vec<RemoteConnector>,
    map: ShardMap,
    /// message id → owning shard. Seeded from the dataset's message →
    /// forum index ([`ShardedConnector::seed_routes`]) and learned from
    /// every AddPost/AddComment this router routes, so any message a like
    /// or short read can reference has an entry.
    routes: RwLock<HashMap<u64, u32>>,
    /// Max creation date of *completed* replicated-update broadcasts
    /// (every shard acked). Shard horizons must never lag this value.
    broadcast_horizon: AtomicI64,
}

impl ShardedConnector {
    /// Connect to one server per address with the default 10 s request
    /// timeout.
    pub fn connect<S: AsRef<str>>(addrs: &[S]) -> SnbResult<ShardedConnector> {
        ShardedConnector::with_request_timeout(addrs, REQUEST_TIMEOUT)
    }

    /// Connect with the read/write timeout for one round trip to any
    /// shard. Each server's GCT RPC must report
    /// the shard identity its position implies — shard i of N at
    /// `addrs[i]` — so a mis-ordered address list or a server loaded with
    /// the wrong slice fails here, not with silently partial answers.
    pub fn with_request_timeout<S: AsRef<str>>(
        addrs: &[S],
        request_timeout: Duration,
    ) -> SnbResult<ShardedConnector> {
        if addrs.is_empty() {
            return Err(SnbError::Config("sharded connector needs at least one address".into()));
        }
        let shards = addrs
            .iter()
            .map(|a| RemoteConnector::with_request_timeout(a.as_ref(), request_timeout))
            .collect::<SnbResult<Vec<_>>>()?;
        let want = shards.len() as u32;
        for (i, shard) in shards.iter().enumerate() {
            let (index, count, _) = shard.remote_gct()?;
            if index != i as u32 || count != want {
                return Err(SnbError::Config(format!(
                    "shard identity mismatch at {}: server says shard {index}/{count}, \
                     address order implies {i}/{want}",
                    addrs[i].as_ref(),
                )));
            }
        }
        Ok(ShardedConnector {
            shards,
            map: ShardMap::new(want),
            routes: RwLock::new(HashMap::new()),
            broadcast_horizon: AtomicI64::new(0),
        })
    }

    /// Number of shards this router drives.
    pub fn shard_count(&self) -> u32 {
        self.map.shards()
    }

    /// Seed the message → shard directory from the dataset's message →
    /// forum index (`Dataset::message_routes`). Must cover every message a
    /// like or message-anchored short read can reference at run start;
    /// update-era messages are learned as the router routes them.
    pub fn seed_routes(&self, routes: impl IntoIterator<Item = (MessageId, ForumId)>) {
        let mut dir = self.routes.write().unwrap_or_else(|e| e.into_inner());
        for (message, forum) in routes {
            dir.insert(message.raw(), self.map.shard_of_forum(forum));
        }
    }

    fn learn_route(&self, message: MessageId, forum: ForumId) {
        self.routes
            .write()
            .unwrap_or_else(|e| e.into_inner())
            .insert(message.raw(), self.map.shard_of_forum(forum));
    }

    fn route_of_message(&self, message: MessageId) -> SnbResult<u32> {
        self.routes
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .get(&message.raw())
            .copied()
            .ok_or(SnbError::NotFound { entity: "message route", id: message.raw() })
    }

    /// Verify the GCT dependency-visibility invariant: every shard's
    /// replicated-update horizon has reached everything this router has
    /// finished broadcasting. Reads the local watermark *before* fanning
    /// out, so broadcasts completing concurrently can only help.
    pub fn gct_check(&self) -> SnbResult<()> {
        let broadcast = self.broadcast_horizon.load(Ordering::Acquire);
        for (i, shard) in self.shards.iter().enumerate() {
            let (index, count, horizon) = shard.remote_gct()?;
            if index != i as u32 || count != self.shards.len() as u32 {
                return Err(SnbError::Config(format!(
                    "shard {i} now reports identity {index}/{count}"
                )));
            }
            if horizon < broadcast {
                return Err(SnbError::Config(format!(
                    "GCT violation: shard {i} replicated horizon {horizon} lags \
                     completed broadcast watermark {broadcast}"
                )));
            }
        }
        Ok(())
    }

    fn route_update(&self, op: &Operation, u: &UpdateOp) -> SnbResult<OpOutcome> {
        match u {
            UpdateOp::AddPerson(_) | UpdateOp::AddFriendship(_) => self.broadcast(op, u),
            UpdateOp::AddForum(f) => self.to_forum_shard(op, f.id),
            UpdateOp::AddMembership(m) => self.to_forum_shard(op, m.forum),
            UpdateOp::AddPost(p) => {
                let outcome = self.to_forum_shard(op, p.forum)?;
                self.learn_route(p.id, p.forum);
                Ok(outcome)
            }
            UpdateOp::AddComment(c) => {
                let outcome = self.to_forum_shard(op, c.forum)?;
                self.learn_route(c.id, c.forum);
                Ok(outcome)
            }
            UpdateOp::AddPostLike(l) | UpdateOp::AddCommentLike(l) => {
                let shard = self.route_of_message(l.message)?;
                self.shards[shard as usize].execute(op)
            }
        }
    }

    /// Replicated rows go to every shard through [`fan_out`](Self::fan_out),
    /// so the shards apply them concurrently. The operation is complete —
    /// and GCT may advance past it — only once every shard acked; a
    /// failure leaves the shards divergent, which fails the run (updates
    /// are never retried).
    fn broadcast(&self, op: &Operation, u: &UpdateOp) -> SnbResult<OpOutcome> {
        let wire = client::wire_span();
        let payload = client::execute_payload(op, &wire);
        let mut outcomes =
            self.fan_out(&payload, |shard, reply| shard.execute_reply(&wire, reply))?;
        self.broadcast_horizon.fetch_max(u.creation_date().0, Ordering::Release);
        Ok(outcomes.pop().unwrap_or_default())
    }

    fn to_forum_shard(&self, op: &Operation, forum: ForumId) -> SnbResult<OpOutcome> {
        self.shards[self.map.shard_of_forum(forum) as usize].execute(op)
    }

    /// Write `payload` to every shard before reading any reply, so the
    /// shards execute concurrently, then decode each reply in shard order,
    /// timing each round trip into its link's `request_micros`. Every
    /// request that was started is drained even after an error — a failed
    /// write stops the fan-out, a failed read does not stop the drain — so
    /// healthy connections return to their pools; the first error wins.
    fn fan_out<T>(
        &self,
        payload: &[u8],
        mut decode: impl FnMut(&RemoteConnector, Response) -> SnbResult<T>,
    ) -> SnbResult<Vec<T>> {
        let started = Instant::now();
        let mut in_flight = Vec::with_capacity(self.shards.len());
        let mut first_err: Option<SnbError> = None;
        for shard in &self.shards {
            match shard.start_request(payload) {
                Ok(stream) => in_flight.push(stream),
                Err(e) => {
                    first_err = Some(e);
                    break;
                }
            }
        }
        let mut replies = Vec::with_capacity(self.shards.len());
        // `in_flight` is a prefix of `shards`: zip pairs each started
        // request with the shard it went to.
        for (shard, stream) in self.shards.iter().zip(in_flight) {
            let reply = shard.finish_request(stream);
            shard.metrics().request_micros.record(started.elapsed().as_micros() as u64);
            match reply.and_then(|response| decode(shard, response)) {
                Ok(decoded) => replies.push(decoded),
                Err(e) => first_err = first_err.or(Some(e)),
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(replies),
        }
    }

    /// Fan a partial request out to every shard and collect the partials
    /// plus each shard's walk-seed candidate.
    #[allow(clippy::type_complexity)]
    fn scatter(&self, op: &Operation) -> SnbResult<Vec<(Partial, Option<(u64, i64)>)>> {
        let mut payload = Vec::new();
        codec::encode_partial_req(op, &mut payload);
        self.fan_out(&payload, |_, reply| match reply {
            Response::Partial(p, seed) => Ok((p, seed)),
            Response::Error(e) => Err(e),
            _ => Err(SnbError::Config("protocol mismatch: wrong reply to partial".into())),
        })
    }

    fn scatter_complex(&self, op: &Operation, q: &ComplexQuery) -> SnbResult<OpOutcome> {
        let parts = self.scatter(op)?;
        let seed_message = merge_seed(&parts);
        let merged = sharded::merge(q, parts.into_iter().map(|(p, _)| p).collect());
        Ok(OpOutcome { rows: merged.len(), seed_person: anchor_person(q), seed_message })
    }

    fn scatter_short(&self, op: &Operation, s: &ShortQuery) -> SnbResult<OpOutcome> {
        let parts = self.scatter(op)?;
        let seed_message = merge_seed(&parts);
        let merged = sharded::merge_short(s, parts.into_iter().map(|(p, _)| p).collect());
        let seed_person = match *s {
            ShortQuery::S2(p) => Some(p),
            _ => None,
        };
        Ok(OpOutcome { rows: merged.len(), seed_person, seed_message })
    }

    fn route_short(&self, s: &ShortQuery) -> SnbResult<u32> {
        Ok(match *s {
            // Person rows are replicated; spread by id range.
            ShortQuery::S1(p) | ShortQuery::S3(p) => self.map.shard_of_person(p),
            // A message, its metadata, and its whole discussion tree
            // (S7's replies) live on the forum owner's shard.
            ShortQuery::S4(m) | ShortQuery::S5(m) | ShortQuery::S6(m) | ShortQuery::S7(m) => {
                self.route_of_message(m)?
            }
            ShortQuery::S2(_) => unreachable!("S2 scatters"),
        })
    }
}

/// The anchor person's newest message across all shards: each shard's
/// partial carries its local `(message, date)` candidate, and the walk
/// orders newest-first by `(date, id)`, so the `(date, id)`-max over
/// shards is exactly what a single-process store would seed with.
fn merge_seed(parts: &[(Partial, Option<(u64, i64)>)]) -> Option<MessageId> {
    parts.iter().filter_map(|(_, s)| *s).max_by_key(|&(m, d)| (d, m)).map(|(m, _)| MessageId(m))
}

impl Connector for ShardedConnector {
    fn execute(&self, op: &Operation) -> SnbResult<OpOutcome> {
        match op {
            Operation::Update(u) => self.route_update(op, u),
            Operation::Complex(q) if sharded::scatters(q) => self.scatter_complex(op, q),
            Operation::Complex(q) => {
                let shard = anchor_person(q).map_or(0, |p| self.map.shard_of_person(p));
                self.shards[shard as usize].execute(op)
            }
            Operation::Short(s) if sharded::scatters_short(s) => self.scatter_short(op, s),
            Operation::Short(s) => self.shards[self.route_short(s)? as usize].execute(op),
        }
    }

    /// Full disclosure with per-shard identity: every shard's counters —
    /// its client link's `net.client.*` and the server's own dump,
    /// including `net.server.shard_index` / `shard_count` — prefixed
    /// `shard<i>.` so per-shard and aggregate views coexist in one report.
    fn counters(&self) -> Vec<(String, u64)> {
        let mut out = Vec::new();
        for (i, shard) in self.shards.iter().enumerate() {
            out.extend(
                shard.counters().into_iter().map(|(name, v)| (format!("shard{i}.{name}"), v)),
            );
        }
        out
    }

    fn histograms(&self) -> Vec<(String, HistogramSnapshot)> {
        let mut out = Vec::new();
        for (i, shard) in self.shards.iter().enumerate() {
            out.extend(
                shard.histograms().into_iter().map(|(name, h)| (format!("shard{i}.{name}"), h)),
            );
        }
        out
    }

    fn gct_horizon(&self) -> i64 {
        self.broadcast_horizon.load(Ordering::Acquire)
    }
}
