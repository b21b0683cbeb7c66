//! Fixed microloops over two layers' public functions, for the per-layer
//! numbers no span can give: what framing alone costs per operation, and
//! what the store's read iterators cost per entry.

use snb_core::rng::{Rng, Stream};
use snb_core::{MessageId, PersonId, SimTime};
use snb_driver::connector::{OpOutcome, Operation};
use snb_net::codec::{encode_execute, Request, Response};
use snb_store::Store;
use std::hint::black_box;
use std::time::Instant;

/// Cost of the codec alone.
pub struct Codec {
    /// Encode + decode of one request and one outcome response.
    pub ns_per_op: f64,
    /// Request plus response payload bytes.
    pub bytes_per_op: f64,
}

/// `encode_execute` → `Request::decode`, `Response::encode` →
/// `Response::decode` over `ops` — an upper bound on how much of the wire's
/// self time framing can be.
pub fn codec(ops: &[&Operation]) -> Codec {
    let outcome = || {
        Response::Outcome(
            OpOutcome {
                rows: 20,
                seed_person: Some(PersonId(1)),
                seed_message: Some(MessageId(1)),
            },
            Vec::new(),
        )
    };
    let (mut req, mut resp) = (Vec::new(), Vec::new());
    let mut bytes = 0usize;
    let t0 = Instant::now();
    for op in ops {
        req.clear();
        encode_execute(op, None, &mut req);
        black_box(Request::decode(black_box(&req)).expect("own encoding decodes"));
        resp.clear();
        outcome().encode(&mut resp);
        black_box(Response::decode(black_box(&resp)).expect("own encoding decodes"));
        bytes += req.len() + resp.len();
    }
    let n = ops.len().max(1) as f64;
    Codec { ns_per_op: t0.elapsed().as_nanos() as f64 / n, bytes_per_op: bytes as f64 / n }
}

/// Nanoseconds per entry the pinned read view's iterators yield, over
/// `probes` persons drawn from `seed`: full friend and message lists, the
/// 20 most recent messages, and the row behind each of those.
pub fn store_read_ns_per_entry(store: &Store, persons: u64, probes: usize, seed: u64) -> f64 {
    let mut rng = Rng::for_entity(seed, Stream::Workload, 2);
    let ids: Vec<PersonId> = (0..probes).map(|_| PersonId(rng.below(persons))).collect();
    let snap = store.pinned();
    let mut entries = 0usize;
    let t0 = Instant::now();
    for &p in &ids {
        entries += snap.friends_iter(p).map(black_box).count();
        entries += snap.messages_of_iter(p).map(black_box).count();
        for (m, _) in snap.recent_messages_walk(p, SimTime(i64::MAX)).take(20) {
            black_box(snap.message_ref(MessageId(m)));
            entries += 2;
        }
    }
    t0.elapsed().as_nanos() as f64 / entries.max(1) as f64
}
