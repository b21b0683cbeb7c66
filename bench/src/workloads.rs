//! The six workloads of the benchmark of record: how each is generated from
//! the seed, deployed, replayed, checked and reduced to metrics.
//!
//! Every layer is measured from outside, by timing calls into its public
//! functions; `README.md` in this directory says why each workload exists
//! and which layer it stresses.

use crate::layers;
use crate::spans::{
    reduce, Profiles, Span, SpanSink, Tap, Waterfall, COMPLEX, KINDS, SHORT, UPDATE,
};
use crate::stats::{geomean, median, p50_and_tail};
use snb_core::rng::{Rng, Stream};
use snb_core::shard::ShardMap;
use snb_core::time::SimTime;
use snb_core::{MessageId, PersonId, SnbResult};
use snb_datagen::{generate, Dataset, GeneratorConfig};
use snb_driver::connector::{anchor_person, Connector, Operation, StoreConnector};
use snb_driver::{build_mix, run, updates_only, DriverConfig, WorkItem};
use snb_net::{RemoteConnector, Server, ServerConfig, ShardedConnector};
use snb_params::{curated_bindings, Bindings};
use snb_queries::params::ShortQuery;
use snb_queries::Engine;
use snb_store::wal::SyncPolicy;
use snb_store::Store;
use std::ops::Range;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Persons of the one dataset every workload runs on. Sized so that the
/// slowest deployment (`mix.shard2`, ≈ 7 s a replay on the reference host)
/// still gets two replays into a 12 s run; see README.md "Sizes".
pub const PERSONS: u64 = 1_000;
/// Persons under `--smoke`.
pub const SMOKE_PERSONS: u64 = 300;
/// The dataset is a fixed function of its scale, as LDBC's is per scale
/// factor: across generator seeds the same mix swings ±15 % in ops/s, which
/// would drown every bound below. `--seed` draws the workload instead.
pub const DATASET_SEED: u64 = 42;
/// Driver partitions = client threads, fixed at the reference host's two
/// hardware threads. Closed loop: each waits for its reply.
pub const PARTITIONS: usize = 2;
/// `total_ops` of the mix at [`PERSONS`] persons with `--seed 42`, identical
/// in all three deployments.
pub const EXPECTED_MIX_OPS_SEED_42: usize = 103_198;

/// Full set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Curated bindings per complex query, as `snb run` uses.
const BINDINGS_PER_QUERY: usize = 16;
/// Short reads per pass of `short.loopback` (≈ 2.3 s over loopback).
const SHORT_OPS: usize = 60_000;

/// End-to-end metrics: `(name, unit)`, as BENCHMARK.json lists them.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("kind_p50_geomean_us", "us"),
    ("store_bytes_per_message", "B"),
];

/// Printed with the end-to-end metrics but not gated: across ten runs its
/// spread reached 19 % on this host (README.md "Bounds"), wider than a
/// regression bound worth having.
pub const TAIL_DIAGNOSTIC: (&str, &str) = ("kind_tail_geomean_us", "us");

/// Per-layer metrics: `(name, unit)`, as BENCHMARK.json lists them.
pub const PER_LAYER: [(&str, &str); 30] = [
    ("datagen.generate_s", "s"),
    ("datagen.entities_per_s", "1/s"),
    ("params.curate_s", "s"),
    ("driver.build_mix_s", "s"),
    ("store.load_s", "s"),
    ("store.load_entities_per_s", "1/s"),
    ("store.bytes_per_person", "B"),
    ("driver.self_s", "s"),
    ("driver.share", "ratio"),
    ("driver.gct_wait_s", "s"),
    ("net.self_s", "s"),
    ("net.share", "ratio"),
    ("net.self_p50_us", "us"),
    ("net.loop_busy_share", "ratio"),
    ("router.self_s", "s"),
    ("router.share", "ratio"),
    ("router.self_p50_us", "us"),
    ("router.fanout", "ratio"),
    ("router.dup_work", "ratio"),
    ("exec.busy_s", "s"),
    ("exec.share", "ratio"),
    ("queries.examined_per_row", "ratio"),
    ("store.apply_us", "us"),
    ("store.wal_bytes_per_update", "B"),
    ("store.updates_per_fsync", "ratio"),
    ("store.fsync_p50_us", "us"),
    ("net.codec_ns_per_op", "ns"),
    ("net.bytes_per_op", "B"),
    ("store.read_ns_per_entry", "ns"),
    ("trace.overhead_pct", "%"),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    MixInproc,
    MixLoopback,
    MixShard2,
    ShortLoopback,
    UpdatesDurable,
    UpdatesMem,
}

impl Workload {
    pub const ALL: [Workload; 6] = [
        Workload::MixInproc,
        Workload::MixLoopback,
        Workload::MixShard2,
        Workload::ShortLoopback,
        Workload::UpdatesDurable,
        Workload::UpdatesMem,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::MixInproc => "mix.inproc",
            Workload::MixLoopback => "mix.loopback",
            Workload::MixShard2 => "mix.shard2",
            Workload::ShortLoopback => "short.loopback",
            Workload::UpdatesDurable => "updates.durable",
            Workload::UpdatesMem => "updates.mem",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn is_mix(self) -> bool {
        matches!(self, Workload::MixInproc | Workload::MixLoopback | Workload::MixShard2)
    }

    /// Server processes' worth of `Server`s between driver and store.
    fn servers(self) -> usize {
        match self {
            Workload::MixLoopback | Workload::ShortLoopback => 1,
            Workload::MixShard2 => 2,
            _ => 0,
        }
    }

    /// The kinds whose latencies make up `kind_*_geomean_us`: the class the
    /// workload exists to measure.
    fn headline(self) -> Range<usize> {
        match self {
            Workload::ShortLoopback => SHORT,
            Workload::UpdatesDurable | Workload::UpdatesMem => UPDATE,
            _ => COMPLEX,
        }
    }
}

/// What one invocation was asked to do.
pub struct Config {
    pub persons: u64,
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    /// Scratch directory inside the checkout (the WAL of `updates.durable`).
    pub tmp: PathBuf,
}

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// One row of the per-kind table.
pub struct KindRow {
    /// Index into `0..KINDS`; `spans::kind_name` prints it.
    pub kind: usize,
    /// Samples pooled over the untraced replays.
    pub samples: usize,
    pub p50_us: f64,
    pub tail_us: f64,
    /// The percentile `tail_us` was read at.
    pub tail_p: f64,
    /// From the traced replays; zero when none ran.
    pub exec_busy_s: f64,
    pub exec_share: f64,
    pub fanout: f64,
    pub examined_per_row: f64,
}

/// Everything one workload's run produced.
pub struct Outcome {
    pub workload: Workload,
    pub attempted: u64,
    pub failed: u64,
    pub replays: usize,
    pub checks: Vec<(String, bool)>,
    pub end_to_end: Vec<Metric>,
    /// [`TAIL_DIAGNOSTIC`].
    pub tail: Metric,
    /// Empty unless the run was traced.
    pub per_layer: Vec<Metric>,
    pub kinds: Vec<KindRow>,
    /// Disclosure that is neither a metric nor a check.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.1)
    }
}

struct Inputs {
    ds: Dataset,
    items: Vec<WorkItem>,
    /// One op per read kind, executed through the connector before timing
    /// so lazy set-up (pools, scratch buffers) is out of the timed phase.
    warmup: Vec<Operation>,
}

#[derive(Default, Clone, Copy)]
struct SetupTimes {
    generate_s: f64,
    curate_s: f64,
    build_s: f64,
    /// Load store(s), bind, connect, warm-up pass.
    deploy_s: f64,
    /// Person, forum and message rows the load put into the store(s).
    loaded_entities: usize,
}

impl SetupTimes {
    fn total(&self) -> f64 {
        self.generate_s + self.curate_s + self.build_s + self.deploy_s
    }
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

fn short_reads(person: PersonId, message: MessageId) -> [ShortQuery; 7] {
    [
        ShortQuery::S1(person),
        ShortQuery::S2(person),
        ShortQuery::S3(person),
        ShortQuery::S4(message),
        ShortQuery::S5(message),
        ShortQuery::S6(message),
        ShortQuery::S7(message),
    ]
}

/// The i-th execution of each complex query takes binding `i + offset`
/// instead of `i`, with one offset per query drawn from the seed: the seed
/// decides which curated parameters meet which state of the growing graph.
/// Curated bindings have bounded run-time variance by construction (§4.1),
/// so the total work stays comparable across seeds.
fn rotate_bindings(items: &mut [WorkItem], bindings: &Bindings, seed: u64) {
    let mut rng = Rng::for_entity(seed, Stream::Workload, 1);
    let offsets: [usize; 14] = std::array::from_fn(|_| rng.index(bindings.k()));
    let mut seen = [0usize; 14];
    for item in items {
        if let Operation::Complex(q) = &item.op {
            let n = q.number();
            let q = bindings.get(n, seen[n - 1] + offsets[n - 1]).clone();
            seen[n - 1] += 1;
            item.partition_hint = anchor_person(&q).map_or(0, |p| p.raw());
            item.op = Operation::Complex(q);
        }
    }
}

fn build_inputs(w: Workload, cfg: &Config) -> SnbResult<(Inputs, SetupTimes)> {
    let mut times = SetupTimes::default();
    let (ds, t) = timed(|| {
        generate(GeneratorConfig::with_persons(cfg.persons).threads(PARTITIONS).seed(DATASET_SEED))
    });
    let ds = ds?;
    times.generate_s = t;

    let mut warmup: Vec<Operation> =
        short_reads(PersonId(0), MessageId(0)).into_iter().map(Operation::Short).collect();
    let items = if w.is_mix() {
        let (bindings, t) = timed(|| curated_bindings(&ds, BINDINGS_PER_QUERY));
        times.curate_s = t;
        warmup.extend((1..=14).map(|q| Operation::Complex(bindings.get(q, 0).clone())));
        let (items, t) = timed(|| {
            let mut items = build_mix(&ds, &bindings);
            rotate_bindings(&mut items, &bindings, cfg.seed);
            items
        });
        times.build_s = t;
        items
    } else if w == Workload::ShortLoopback {
        let n = if cfg.smoke { SHORT_OPS / 10 } else { SHORT_OPS };
        let (items, t) = timed(|| short_items(&ds, n, cfg.seed));
        times.build_s = t;
        items
    } else {
        let (items, t) = timed(|| updates_only(&ds));
        times.build_s = t;
        items
    };
    Ok((Inputs { ds, items, warmup }, times))
}

/// `n` short reads, kinds cycled S1–S7, person and message ids drawn from
/// the seed over the whole (fully loaded) dataset; alternate items go to
/// alternate partitions.
fn short_items(ds: &Dataset, n: usize, seed: u64) -> Vec<WorkItem> {
    let mut rng = Rng::for_entity(seed, Stream::Workload, 0);
    let (persons, messages) = (ds.persons.len() as u64, ds.message_count() as u64);
    (0..n)
        .map(|i| {
            let reads = short_reads(PersonId(rng.below(persons)), MessageId(rng.below(messages)));
            WorkItem {
                due: SimTime(i as i64),
                dep: SimTime(0),
                partition_hint: (i % PARTITIONS) as u64,
                op: Operation::Short(reads[i % reads.len()]),
            }
        })
        .collect()
}

/// The taps of one replay. The driver-side tap is always on — it is how
/// latencies are read at nanosecond resolution; `traced` adds request
/// identifiers, the execution-side taps and their operator profiles.
struct Taps {
    sink: Arc<SpanSink>,
    profiles: Arc<Profiles>,
    traced: bool,
}

/// A deployed system under test. Field order is drop order: clients hang
/// up before their servers shut down.
struct Deployment {
    conn: Arc<dyn Connector>,
    router: Option<Arc<ShardedConnector>>,
    servers: Vec<Server>,
    stores: Vec<Arc<Store>>,
    /// Wall of the store load(s) alone.
    load_s: f64,
}

fn wal_path(cfg: &Config) -> PathBuf {
    cfg.tmp.join("updates.durable.wal")
}

/// Load the store(s) `w` needs, put `servers` servers in front of them,
/// connect, and run the warm-up pass. `servers` is `w.servers()` except for
/// the in-process reference a remote workload is checked against.
fn deploy(
    w: Workload,
    servers: usize,
    inputs: &Inputs,
    cfg: &Config,
    taps: &Taps,
) -> SnbResult<Deployment> {
    let ds = &inputs.ds;
    let shards = servers.max(1) as u32;
    let (stores, load_s) = timed(|| -> SnbResult<Vec<Arc<Store>>> {
        (0..shards)
            .map(|shard| {
                let store = match w {
                    Workload::UpdatesDurable => {
                        Store::with_wal_policy(&wal_path(cfg), SyncPolicy::default())?
                    }
                    _ => Store::new(),
                };
                match w {
                    Workload::ShortLoopback => store.load_full(ds),
                    _ if shards > 1 => store.bulk_load_sharded(
                        ds,
                        ds.config.update_split,
                        PARTITIONS,
                        ShardMap::new(shards),
                        shard,
                    ),
                    _ => store.bulk_load(ds),
                }
                Ok(Arc::new(store))
            })
            .collect()
    });
    let stores = stores?;

    let sink = || Arc::clone(&taps.sink);
    let exec =
        |shard: u32| StoreConnector::new(Arc::clone(&stores[shard as usize]), Engine::Intended);
    let (mut servers_up, mut router) = (Vec::new(), None);
    let conn: Arc<dyn Connector> = if servers == 0 {
        if taps.traced {
            Arc::new(Tap::exec(exec(0), sink(), None, Arc::clone(&taps.profiles)))
        } else {
            Arc::new(Tap::driver(exec(0), sink(), false))
        }
    } else {
        for shard in 0..shards {
            let connector: Arc<dyn Connector> = if taps.traced {
                let profiles = Arc::clone(&taps.profiles);
                Arc::new(Tap::exec(exec(shard), sink(), Some(shard as u8), profiles))
            } else {
                Arc::new(exec(shard))
            };
            let config = ServerConfig { shard, shards, ..ServerConfig::default() };
            servers_up.push(Server::bind_with_config("127.0.0.1:0", connector, config)?);
        }
        let addrs: Vec<String> = servers_up.iter().map(|s| s.local_addr().to_string()).collect();
        if servers == 1 {
            let client = RemoteConnector::connect(addrs[0].as_str())?;
            Arc::new(Tap::driver(client, sink(), taps.traced))
        } else {
            let sharded = Arc::new(ShardedConnector::connect(&addrs)?);
            sharded.seed_routes(ds.message_routes());
            router = Some(Arc::clone(&sharded));
            Arc::new(Tap::driver(sharded, sink(), taps.traced))
        }
    };
    let dep = Deployment { conn, router, servers: servers_up, stores, load_s };
    for op in &inputs.warmup {
        dep.conn.execute(op)?;
    }
    taps.sink.drain();
    Ok(dep)
}

/// Person, forum and message rows a deployment holds. Persons are
/// replicated on every shard; forums and messages are partitioned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Counts {
    persons: usize,
    forums: usize,
    messages: usize,
}

struct Footprint {
    counts: Counts,
    bytes_per_message: f64,
    bytes_per_person: f64,
}

fn footprint(stores: &[Arc<Store>]) -> Footprint {
    let mut counts = Counts { persons: 0, forums: 0, messages: 0 };
    let (mut message_bytes, mut total_bytes) = (0.0, 0.0);
    for store in stores {
        let stats = store.pinned().storage_stats();
        counts.persons = counts.persons.max(stats.persons);
        counts.forums += stats.tables.iter().find(|t| t.name == "forum").map_or(0, |t| t.rows);
        counts.messages += stats.messages;
        message_bytes += stats.bytes_per_message() * stats.messages as f64;
        total_bytes += stats.bytes_per_person() * stats.persons as f64;
    }
    Footprint {
        counts,
        bytes_per_message: message_bytes / counts.messages.max(1) as f64,
        bytes_per_person: total_bytes / counts.persons.max(1) as f64,
    }
}

struct WalStats {
    bytes: u64,
    appends: u64,
    fsyncs: u64,
    group_size: u64,
    fsync_p50_us: u64,
}

struct Replay {
    traced: bool,
    wall_s: f64,
    /// `RunReport::total_ops`.
    ops: usize,
    driver: Vec<Span>,
    server: Vec<Span>,
    load_s: f64,
    gct_wait_s: f64,
    gct_ok: bool,
    footprint: Footprint,
    wal: WalStats,
    /// Event-loop busy and idle nanoseconds, summed over servers.
    loop_ns: (u64, u64),
    profiles: Arc<Profiles>,
}

impl Replay {
    fn ops_per_s(&self) -> f64 {
        self.ops as f64 / self.wall_s
    }

    /// Operations per kind, with the short reads counted as one class:
    /// how many a walk issues is fixed by the seed, but whether a step
    /// takes a person-side (S1–S3) or message-side (S4–S7) read depends on
    /// whether the walked-to person has a message *yet*, which concurrent
    /// partitions decide.
    fn kind_counts(&self) -> [usize; KINDS] {
        let mut counts = [0; KINDS];
        for s in &self.driver {
            let kind = s.kind as usize;
            counts[if SHORT.contains(&kind) { SHORT.start } else { kind }] += 1;
        }
        counts
    }
}

/// Deploy fresh, replay the whole item list once through `driver::run`,
/// collect, tear down.
fn replay(
    w: Workload,
    servers: usize,
    inputs: &Inputs,
    cfg: &Config,
    traced: bool,
) -> SnbResult<Replay> {
    let taps = Taps { sink: SpanSink::new(), profiles: Profiles::new(), traced };
    let dep = deploy(w, servers, inputs, cfg, &taps)?;
    // Throughput mode: no pacing, every partition waits for its reply.
    let config = DriverConfig { partitions: PARTITIONS, seed: cfg.seed, ..DriverConfig::default() };
    let report = run(&inputs.items, &*dep.conn, &config)?;
    let (server, driver): (Vec<Span>, Vec<Span>) =
        taps.sink.drain().into_iter().partition(|s| s.shard.is_some());

    let gct_ok = dep.router.as_ref().is_none_or(|r| r.gct_check().is_ok());
    let counters = dep.stores[0].counters();
    let wal = WalStats {
        bytes: counters.wal_bytes.get(),
        appends: counters.wal_appends.get(),
        fsyncs: counters.wal_fsyncs.get(),
        group_size: counters.wal_group_size.get(),
        fsync_p50_us: counters.wal_fsync_micros.value_at_quantile(0.50),
    };
    let loop_ns = dep.servers.iter().fold((0, 0), |(busy, idle), s| {
        (busy + s.metrics().loop_busy_nanos.get(), idle + s.metrics().loop_idle_nanos.get())
    });
    Ok(Replay {
        traced,
        wall_s: report.wall.as_secs_f64(),
        ops: report.total_ops,
        driver,
        server,
        load_s: dep.load_s,
        gct_wait_s: report.partitions.iter().map(|p| p.gct_wait_micros).sum::<u64>() as f64 / 1e6,
        gct_ok,
        footprint: footprint(&dep.stores),
        wal,
        loop_ns,
        profiles: taps.profiles,
    })
}

/// Attach units to `(name, value)` pairs, which must be exactly the metrics
/// of `table`, in its order.
fn metrics(table: &[(&'static str, &'static str)], values: &[(&'static str, f64)]) -> Vec<Metric> {
    assert!(
        table.iter().map(|t| t.0).eq(values.iter().map(|v| v.0)),
        "metrics computed differ from the metrics declared"
    );
    table
        .iter()
        .zip(values)
        .map(|(&(name, unit), &(_, value))| Metric { name, value, unit })
        .collect()
}

fn median_of<T>(items: &[T], f: impl Fn(&T) -> f64) -> f64 {
    median(&items.iter().map(f).collect::<Vec<_>>())
}

/// Run one workload: set up (several times, for `setup_s`), replay until
/// `cfg.seconds` of timed phase have passed, check, reduce.
pub fn run_workload(w: Workload, cfg: &Config) -> SnbResult<Outcome> {
    // The last set-up's inputs are the ones replayed.
    let mut setups: Vec<SetupTimes> = Vec::new();
    let mut inputs = None;
    for _ in 0..SETUP_REPS {
        let (built, mut times) = build_inputs(w, cfg)?;
        let taps = Taps { sink: SpanSink::new(), profiles: Profiles::new(), traced: false };
        let (dep, t) = timed(|| deploy(w, w.servers(), &built, cfg, &taps));
        times.deploy_s = t;
        let loaded = footprint(&dep?.stores).counts;
        times.loaded_entities = loaded.persons + loaded.forums + loaded.messages;
        setups.push(times);
        inputs = Some(built);
    }
    let inputs = inputs.expect("SETUP_REPS > 0");

    // Timed phase: whole replays, each on a fresh deployment. A traced run
    // alternates untraced and traced replays so both see the same machine
    // state. Stop when another replay would overshoot `seconds` by more
    // than stopping now undershoots it.
    let mut replays: Vec<Replay> = Vec::new();
    let mut timed_s = 0.0;
    loop {
        let traced = cfg.trace && replays.len() % 2 == 1;
        let r = replay(w, w.servers(), &inputs, cfg, traced)?;
        timed_s += r.wall_s;
        replays.push(r);
        let enough = !cfg.trace || replays.len() >= 2;
        if enough && timed_s + 0.5 * timed_s / replays.len() as f64 > cfg.seconds {
            break;
        }
    }
    let untraced: Vec<&Replay> = replays.iter().filter(|r| !r.traced).collect();
    let traced: Vec<&Replay> = replays.iter().filter(|r| r.traced).collect();
    let last = replays.last().expect("at least one replay");

    let mut checks = check_replays(w, &inputs, cfg, &replays)?;
    let mut notes = vec![format!(
        "replays: {} untraced, {} traced, {timed_s:.2} s timed; {} items, {} ops a replay",
        untraced.len(),
        traced.len(),
        inputs.items.len(),
        last.ops,
    )];
    if w == Workload::UpdatesDurable {
        notes.push(format!(
            "flush policy: {:?}, acknowledged => fdatasync'd; WAL at {}",
            SyncPolicy::default(),
            wal_path(cfg).display(),
        ));
    }

    // End-to-end metrics come from the untraced replays only.
    let (mut kinds, p50_geomean, tail_geomean) = latencies(w, &untraced);
    let ops_per_s = median_of(&untraced, |r| r.ops_per_s());
    let end_to_end = metrics(
        &END_TO_END,
        &[
            ("setup_s", median_of(&setups, SetupTimes::total)),
            ("ops_per_s", ops_per_s),
            ("kind_p50_geomean_us", p50_geomean),
            ("store_bytes_per_message", median_of(&untraced, |r| r.footprint.bytes_per_message)),
        ],
    );
    let tail = Metric { name: TAIL_DIAGNOSTIC.0, value: tail_geomean, unit: TAIL_DIAGNOSTIC.1 };

    let mut per_layer = Vec::new();
    if !traced.is_empty() {
        let driver: Vec<Span> = traced.iter().flat_map(|r| r.driver.iter().copied()).collect();
        let server: Vec<Span> = traced.iter().flat_map(|r| r.server.iter().copied()).collect();
        let wall_ns = traced.iter().map(|r| r.wall_s * 1e9).sum::<f64>() as u64;
        let fall = reduce(&driver, &server, wall_ns * PARTITIONS as u64);
        checks.push(("every server span has a parent driver span".into(), fall.orphans == 0));
        checks.push((
            "layer times sum to partitions x wall with no span outside it".into(),
            fall.driver_self_ns >= 0,
        ));
        notes.push(waterfall_line(&fall, w));

        let mut values = setup_layers(&inputs, &setups, &replays);
        values.extend(traced_layers(w, &traced, &driver, &server, &fall, &mut kinds));
        values.extend(microloop_layers(&inputs, cfg));
        let traced_ops_per_s = median_of(&traced, |r| r.ops_per_s());
        values.push(("trace.overhead_pct", (ops_per_s - traced_ops_per_s) / ops_per_s * 100.0));
        per_layer = metrics(&PER_LAYER, &values);
    }

    Ok(Outcome {
        workload: w,
        attempted: replays.iter().map(|r| r.driver.len()).sum::<usize>() as u64,
        failed: replays.iter().flat_map(|r| &r.driver).filter(|s| !s.ok).count() as u64,
        replays: replays.len(),
        checks,
        end_to_end,
        tail,
        per_layer,
        kinds,
        notes,
    })
}

/// The correctness checks every run makes (the traced ones are added where
/// the spans are reduced).
fn check_replays(
    w: Workload,
    inputs: &Inputs,
    cfg: &Config,
    replays: &[Replay],
) -> SnbResult<Vec<(String, bool)>> {
    let mut checks: Vec<(String, bool)> = Vec::new();
    let mut check = |what: &str, ok: bool| checks.push((what.to_string(), ok));
    check("every operation succeeded", replays.iter().flat_map(|r| &r.driver).all(|s| s.ok));
    check(
        "the driver-side tap saw exactly the operations the driver reported",
        replays.iter().all(|r| r.driver.len() == r.ops),
    );
    let kind_counts = replays[0].kind_counts();
    check(
        "operation counts per complex and update kind, and of short reads, are identical in every replay",
        replays.iter().all(|r| r.kind_counts() == kind_counts),
    );
    let full = Counts {
        persons: inputs.ds.persons.len(),
        forums: inputs.ds.forums.len(),
        messages: inputs.ds.message_count(),
    };
    check(
        "final person/forum/message counts equal the dataset's in every replay",
        replays.iter().all(|r| r.footprint.counts == full),
    );
    if w.servers() > 0 {
        // The same items, same seed, in-process: what `mix.inproc` runs.
        let reference = replay(w, 0, inputs, cfg, false)?;
        check(
            "those counts equal the in-process replay of the same items",
            reference.kind_counts() == kind_counts,
        );
        if w == Workload::ShortLoopback {
            let rows = |r: &Replay| r.driver.iter().map(|s| s.rows as u64).sum::<u64>();
            check(
                "total result rows equal the in-process execution of the same reads",
                replays.iter().all(|r| rows(r) == rows(&reference)),
            );
        }
    }
    if w.is_mix() && cfg.seed == 42 && !cfg.smoke {
        check(
            "total operations equal the committed expectation for seed 42",
            replays.iter().all(|r| r.ops == EXPECTED_MIX_OPS_SEED_42),
        );
    }
    if w == Workload::MixShard2 {
        check("gct_check() passes after every replay", replays.iter().all(|r| r.gct_ok));
    }
    if w == Workload::UpdatesDurable {
        // The last replay's store is gone; only what reached its log is left.
        let (recovered, _) = Store::recover(&inputs.ds, &wal_path(cfg))?;
        let live = replays.last().expect("at least one replay").footprint.counts;
        check(
            "the store recovered from the last replay's WAL holds the live store's entity counts",
            footprint(&[Arc::new(recovered)]).counts == live,
        );
    }
    Ok(checks)
}

/// The per-kind latency table over the replays' pooled driver-side spans,
/// and the geometric means of the headline kinds' medians and tails (µs).
fn latencies(w: Workload, replays: &[&Replay]) -> (Vec<KindRow>, f64, f64) {
    let mut samples: Vec<Vec<u64>> = vec![Vec::new(); KINDS];
    for s in replays.iter().flat_map(|r| &r.driver) {
        samples[s.kind as usize].push(s.nanos());
    }
    let mut kinds: Vec<KindRow> = Vec::new();
    let (mut p50s, mut tails) = (Vec::new(), Vec::new());
    for (kind, kind_samples) in samples.iter_mut().enumerate().filter(|(_, s)| !s.is_empty()) {
        let (p50, tail, tail_p) = p50_and_tail(kind_samples);
        let (p50_us, tail_us) = (p50 as f64 / 1e3, tail as f64 / 1e3);
        if w.headline().contains(&kind) {
            p50s.push(p50_us);
            tails.push(tail_us);
        }
        kinds.push(KindRow {
            kind,
            samples: kind_samples.len(),
            p50_us,
            tail_us,
            tail_p,
            exec_busy_s: 0.0,
            exec_share: 0.0,
            fanout: 0.0,
            examined_per_row: 0.0,
        });
    }
    (kinds, geomean(&p50s), geomean(&tails))
}

fn ratio(numerator: u64, denominator: u64) -> f64 {
    if denominator == 0 {
        0.0
    } else {
        numerator as f64 / denominator as f64
    }
}

/// Layers whose calls happen during set-up and load: timed as they happen.
fn setup_layers(
    inputs: &Inputs,
    setups: &[SetupTimes],
    replays: &[Replay],
) -> Vec<(&'static str, f64)> {
    let generate_s = median_of(setups, |t| t.generate_s);
    let load_s = median_of(replays, |r| r.load_s);
    let last = replays.last().expect("at least one replay");
    vec![
        ("datagen.generate_s", generate_s),
        ("datagen.entities_per_s", inputs.ds.stats().nodes as f64 / generate_s),
        ("params.curate_s", median_of(setups, |t| t.curate_s)),
        ("driver.build_mix_s", median_of(setups, |t| t.build_s)),
        ("store.load_s", load_s),
        ("store.load_entities_per_s", setups[0].loaded_entities as f64 / load_s),
        ("store.bytes_per_person", last.footprint.bytes_per_person),
    ]
}

/// Layers measured by the traced replays' spans and counters; also fills
/// the per-kind table's traced columns. Times are per replay.
fn traced_layers(
    w: Workload,
    traced: &[&Replay],
    driver: &[Span],
    server: &[Span],
    fall: &Waterfall,
    kinds: &mut [KindRow],
) -> Vec<(&'static str, f64)> {
    let n = traced.len() as f64;
    let seconds = |ns: u64| ns as f64 / 1e9 / n;
    let share = |ns: u64| ns as f64 / fall.thread_ns as f64;
    let p50_us = |sorted: &[u64]| snb_driver::percentile_sorted(sorted, 0.50) as f64 / 1e3;

    // Index probes and versions walked on every shard, per result row the
    // driver got back (a partial execution returns no rows of its own; the
    // merged result does).
    let mut rows = [0u64; KINDS];
    for s in driver {
        rows[s.kind as usize] += s.rows as u64;
    }
    let examined = |kind: usize| {
        traced.iter().fold(0u64, |sum, r| {
            let p = r.profiles.snapshot(kind);
            sum + p.index_probes + p.versions_walked
        })
    };
    for row in kinds {
        row.exec_busy_s = seconds(fall.exec_total_ns[row.kind]);
        row.exec_share = share(fall.exec_blocking_ns[row.kind]);
        row.fanout = ratio(fall.server_spans[row.kind], fall.ops[row.kind]);
        row.examined_per_row = ratio(examined(row.kind), rows[row.kind]);
    }
    let reads = COMPLEX.start..SHORT.end;

    // Behind one server the link is the wire; behind the router it is
    // routing + fan-out + wire + merge, and is the router's to report.
    let mut link = fall.link_self.clone();
    link.sort_unstable();
    let link = [seconds(fall.link_self_ns()), share(fall.link_self_ns()), p50_us(&link)];
    let (net, router) = match w.servers() {
        1 => (link, [0.0; 3]),
        2 => ([0.0; 3], link),
        _ => ([0.0; 3], [0.0; 3]),
    };
    let exec_total: u64 = fall.exec_total_ns.iter().sum();
    let (fanout, dup_work) = match w.servers() {
        2 => (
            ratio(server.len() as u64, driver.len() as u64),
            ratio(exec_total, fall.exec_blocking_total_ns()),
        ),
        _ => (0.0, 0.0),
    };

    // `Store::apply` as the execution side saw it: the server's spans
    // behind a wire, else the driver-side ones.
    let mut applies: Vec<u64> = (if server.is_empty() { driver } else { server })
        .iter()
        .filter(|s| UPDATE.contains(&(s.kind as usize)))
        .map(Span::nanos)
        .collect();
    applies.sort_unstable();

    let sum = |f: fn(&Replay) -> u64| traced.iter().map(|r| f(r)).sum::<u64>();
    let loop_busy = sum(|r| r.loop_ns.0);
    vec![
        ("driver.self_s", fall.driver_self_ns as f64 / 1e9 / n),
        ("driver.share", fall.driver_self_ns as f64 / fall.thread_ns as f64),
        ("driver.gct_wait_s", traced.iter().map(|r| r.gct_wait_s).sum::<f64>() / n),
        ("net.self_s", net[0]),
        ("net.share", net[1]),
        ("net.self_p50_us", net[2]),
        ("net.loop_busy_share", ratio(loop_busy, loop_busy + sum(|r| r.loop_ns.1))),
        ("router.self_s", router[0]),
        ("router.share", router[1]),
        ("router.self_p50_us", router[2]),
        ("router.fanout", fanout),
        ("router.dup_work", dup_work),
        ("exec.busy_s", seconds(exec_total)),
        ("exec.share", share(fall.exec_blocking_total_ns())),
        (
            "queries.examined_per_row",
            ratio(reads.clone().map(examined).sum(), rows[reads].iter().sum()),
        ),
        ("store.apply_us", p50_us(&applies)),
        ("store.wal_bytes_per_update", ratio(sum(|r| r.wal.bytes), sum(|r| r.wal.appends))),
        ("store.updates_per_fsync", ratio(sum(|r| r.wal.group_size), sum(|r| r.wal.fsyncs))),
        ("store.fsync_p50_us", median_of(traced, |r| r.wal.fsync_p50_us as f64)),
    ]
}

/// Layers no span can isolate: fixed microloops over public functions.
fn microloop_layers(inputs: &Inputs, cfg: &Config) -> Vec<(&'static str, f64)> {
    let ops: Vec<&Operation> = inputs.items.iter().map(|i| &i.op).take(20_000).collect();
    let codec = layers::codec(&ops);
    let store = Store::new();
    store.bulk_load(&inputs.ds);
    vec![
        ("net.codec_ns_per_op", codec.ns_per_op),
        ("net.bytes_per_op", codec.bytes_per_op),
        (
            "store.read_ns_per_entry",
            layers::store_read_ns_per_entry(&store, cfg.persons, 2_000, cfg.seed),
        ),
    ]
}

/// `driver.self | net.self (or router.self) | exec` as shares of
/// partitions × wall.
fn waterfall_line(fall: &Waterfall, w: Workload) -> String {
    let pct = |ns: f64| 100.0 * ns / fall.thread_ns as f64;
    let link = match w.servers() {
        0 => "link.self",
        1 => "net.self",
        _ => "router.self",
    };
    format!(
        "waterfall: driver.self {:.1} % | {link} {:.1} % | exec {:.1} % of {} x wall = {:.2} s",
        pct(fall.driver_self_ns as f64),
        pct(fall.link_self_ns() as f64),
        pct(fall.exec_blocking_total_ns() as f64),
        PARTITIONS,
        fall.thread_ns as f64 / 1e9,
    )
}
