//! `snb` — command-line front end for the benchmark kit.
//!
//! ```text
//! snb generate --persons 5000 --out ./data         # CSV bulk + update stream
//! snb rdf      --persons 5000 --out ./data.nt      # N-Triples bulk
//! snb stats    --persons 5000                      # Table 3-style statistics
//! snb run      --persons 2000 [--accel N] [--partitions N] [--naive] [--json]
//!              [--wal PATH [--sync never|group]]
//!              [--connect HOST:PORT[,HOST:PORT…]] [--request-timeout SECS]
//!              [--trace PATH] [--trace-sample N]
//!                                                  # full benchmark + disclosure
//! snb serve    --persons 2000 [--addr HOST:PORT] [--naive] [--shard I/N]
//!              [--wal PATH [--sync never|group]]   # networked SUT (see snb-net)
//! ```
//!
//! `--wal` logs every committed update; `--sync` (default `group`) says
//! whether an update is acknowledged only once its record is fsynced
//! (`group`, one fsync shared by the commits in flight) or never synced
//! (`never`). `--sync` without `--wal` is an error, and so are `--wal` and
//! `--sync` with `--connect`: there the server owns the store, so give them
//! to `snb serve`.
//!
//! `serve` and `run --connect` split the benchmark across the paper's
//! driver/SUT process boundary: the server owns the store, the driver owns
//! the workload, and both must be given the same `--persons`/`--seed` so
//! the generated dataset (and thus the update stream) matches.
//!
//! A *sharded* SUT runs N `serve --shard i/N` processes — each bulk-loads
//! only its forum-partitioned slice plus the replicated person/knows graph
//! — and one `run --connect addr0,addr1,…` driver, whose address order
//! must match the shard order (verified over the GCT RPC at connect).
//!
//! Argument handling is deliberately dependency-free; every subcommand maps
//! onto the public library API.

use ldbc_snb::core::shard::ShardMap;
use ldbc_snb::datagen::{generate, serializer, GeneratorConfig};
use ldbc_snb::driver::{
    build_mix, full_disclosure, full_disclosure_json, run, Connector, DriverConfig, StoreConnector,
};
use ldbc_snb::net::{NetConfig, RemoteConnector, Server, ServerConfig, ShardedConnector};
use ldbc_snb::params::curated_bindings;
use ldbc_snb::queries::Engine;
use ldbc_snb::store::{Store, SyncPolicy};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

struct Args {
    command: String,
    persons: u64,
    seed: u64,
    threads: usize,
    out: PathBuf,
    accel: Option<f64>,
    partitions: usize,
    naive: bool,
    json: bool,
    wal: Option<PathBuf>,
    sync: Option<SyncPolicy>,
    addr: String,
    shard: Option<(u32, u32)>,
    connect: Option<String>,
    request_timeout: f64,
    trace: Option<PathBuf>,
    trace_sample: u64,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: snb <generate|rdf|stats|run|serve> [--persons N] [--seed N] [--threads N]\n\
         \x20          [--out PATH] [--accel N] [--partitions N] [--naive] [--json]\n\
         \x20          [--wal PATH [--sync never|group]]\n\
         \x20          [--addr HOST:PORT] [--shard I/N] [--connect HOST:PORT[,HOST:PORT...]]\n\
         \x20          [--request-timeout SECS] [--trace PATH] [--trace-sample N]"
    );
    ExitCode::from(2)
}

fn parse() -> Result<Args, ExitCode> {
    let mut argv = std::env::args().skip(1);
    let command = argv.next().ok_or_else(usage)?;
    if !["generate", "rdf", "stats", "run", "serve"].contains(&command.as_str()) {
        eprintln!("unknown command: {command}");
        return Err(usage());
    }
    let mut args = Args {
        command,
        persons: 1_000,
        seed: 42,
        threads: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(2),
        out: PathBuf::from("./snb-data"),
        accel: None,
        partitions: 4,
        naive: false,
        json: false,
        wal: None,
        sync: None,
        addr: "127.0.0.1:7455".to_string(),
        shard: None,
        connect: None,
        request_timeout: 10.0,
        trace: None,
        trace_sample: 1,
    };
    let rest: Vec<String> = argv.collect();
    let mut i = 0;
    let value = |rest: &[String], i: &mut usize| -> Result<String, ExitCode> {
        *i += 1;
        rest.get(*i - 1).cloned().ok_or_else(usage)
    };
    while i < rest.len() {
        let flag = rest[i].clone();
        i += 1;
        match flag.as_str() {
            "--persons" => args.persons = value(&rest, &mut i)?.parse().map_err(|_| usage())?,
            "--seed" => args.seed = value(&rest, &mut i)?.parse().map_err(|_| usage())?,
            "--threads" => args.threads = value(&rest, &mut i)?.parse().map_err(|_| usage())?,
            "--out" => args.out = PathBuf::from(value(&rest, &mut i)?),
            "--accel" => args.accel = Some(value(&rest, &mut i)?.parse().map_err(|_| usage())?),
            "--partitions" => {
                args.partitions = value(&rest, &mut i)?.parse().map_err(|_| usage())?
            }
            "--naive" => args.naive = true,
            "--json" => args.json = true,
            "--wal" => args.wal = Some(PathBuf::from(value(&rest, &mut i)?)),
            "--sync" => {
                let spec = value(&rest, &mut i)?;
                args.sync = Some(SyncPolicy::parse(&spec).ok_or_else(|| {
                    eprintln!("bad --sync policy: {spec} (want never or group)");
                    usage()
                })?);
            }
            "--addr" => args.addr = value(&rest, &mut i)?,
            "--shard" => {
                let spec = value(&rest, &mut i)?;
                let parsed = spec.split_once('/').and_then(|(idx, n)| {
                    let idx: u32 = idx.parse().ok()?;
                    let n: u32 = n.parse().ok()?;
                    (n >= 1 && idx < n).then_some((idx, n))
                });
                args.shard = Some(parsed.ok_or_else(|| {
                    eprintln!("bad --shard spec: {spec} (want I/N with I < N)");
                    usage()
                })?);
            }
            "--connect" => args.connect = Some(value(&rest, &mut i)?),
            "--request-timeout" => {
                args.request_timeout = value(&rest, &mut i)?.parse().map_err(|_| usage())?
            }
            "--trace" => args.trace = Some(PathBuf::from(value(&rest, &mut i)?)),
            "--trace-sample" => {
                args.trace_sample = value(&rest, &mut i)?.parse().map_err(|_| usage())?
            }
            other => {
                eprintln!("unknown flag: {other}");
                return Err(usage());
            }
        }
    }
    // A flag the command would ignore is an error, not a silent no-op.
    if args.connect.is_some() && (args.wal.is_some() || args.sync.is_some()) {
        let flag = if args.wal.is_some() { "--wal" } else { "--sync" };
        eprintln!("{flag} does not apply with --connect: the server owns the store");
        return Err(usage());
    }
    if args.sync.is_some() && args.wal.is_none() {
        eprintln!("--sync needs --wal: without a log there is nothing to sync");
        return Err(usage());
    }
    Ok(args)
}

/// The store `serve` and an in-process `run` own, logged to `--wal` if given.
fn open_store(args: &Args) -> Arc<Store> {
    Arc::new(match &args.wal {
        Some(path) => {
            Store::with_wal_policy(path, args.sync.unwrap_or_default()).expect("wal create failed")
        }
        None => Store::new(),
    })
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(code) => return code,
    };
    // Every command starts from the generated dataset; a config the
    // generator rejects (e.g. `--persons 0`) is a rejected flag.
    let config = GeneratorConfig::with_persons(args.persons).seed(args.seed).threads(args.threads);
    let ds = match generate(config) {
        Ok(ds) => ds,
        Err(e) => {
            eprintln!("bad generator flags: {e}");
            return usage();
        }
    };
    match args.command.as_str() {
        "generate" => {
            let rows = serializer::write_csv(&ds, &args.out).expect("csv write failed");
            println!("wrote {} rows of bulk CSV + update stream to {}", rows, args.out.display());
            ExitCode::SUCCESS
        }
        "rdf" => {
            let out =
                if args.out.extension().is_some() { args.out } else { args.out.join("data.nt") };
            if let Some(parent) = out.parent() {
                let _ = std::fs::create_dir_all(parent);
            }
            let triples =
                ldbc_snb::datagen::rdf::write_ntriples(&ds, &out).expect("rdf write failed");
            println!("wrote {} triples to {}", triples, out.display());
            ExitCode::SUCCESS
        }
        "stats" => {
            let s = ds.stats();
            println!("persons:  {}", s.persons);
            println!("friends:  {} (directed rows)", s.friends);
            println!("messages: {}", s.messages);
            println!("forums:   {}", s.forums);
            println!("nodes:    {}", s.nodes);
            println!("edges:    {}", s.edges);
            println!("updates:  {}", ds.update_stream().len());
            ExitCode::SUCCESS
        }
        "run" => {
            let bindings = curated_bindings(&ds, 16);
            let items = build_mix(&ds, &bindings);
            let net_config = NetConfig {
                request_timeout: Duration::from_secs_f64(args.request_timeout),
                ..NetConfig::default()
            };
            // Kept when driving a sharded SUT, for the post-run GCT
            // dependency-visibility verification.
            let mut sharded: Option<Arc<ShardedConnector>> = None;
            let conn: Box<dyn Connector> = match &args.connect {
                // Sharded SUT: one address per `serve --shard i/N`
                // process, in shard order.
                Some(spec) if spec.contains(',') => {
                    let addrs: Vec<&str> =
                        spec.split(',').map(str::trim).filter(|a| !a.is_empty()).collect();
                    let router = Arc::new(
                        ShardedConnector::with_config(&addrs, net_config)
                            .expect("sharded connect failed"),
                    );
                    router.seed_routes(ds.message_routes());
                    sharded = Some(Arc::clone(&router));
                    Box::new(router)
                }
                // Networked SUT: the workload crosses the wire; the server
                // (started with the same --persons/--seed) owns the store.
                Some(addr) => Box::new(
                    RemoteConnector::with_config(addr.clone(), net_config).expect("connect failed"),
                ),
                None => {
                    let store = open_store(&args);
                    store.bulk_load(&ds);
                    let engine = if args.naive { Engine::Naive } else { Engine::Intended };
                    Box::new(StoreConnector::new(store, engine))
                }
            };
            let driver_config = DriverConfig {
                partitions: args.partitions,
                acceleration: args.accel,
                ..DriverConfig::default()
            };
            if args.trace.is_some() {
                ldbc_snb::obs::trace::enable(args.trace_sample);
            }
            let report = run(&items, conn.as_ref(), &driver_config).expect("benchmark run failed");
            if let Some(router) = &sharded {
                router.gct_check().expect("GCT dependency-visibility check failed");
                eprintln!(
                    "GCT check passed: all {} shards reached the broadcast horizon",
                    router.shard_count()
                );
            }
            if let Some(path) = &args.trace {
                ldbc_snb::obs::trace::disable();
                let spans = ldbc_snb::obs::trace::drain();
                let doc = ldbc_snb::obs::trace::export_chrome_trace(&spans);
                std::fs::write(path, doc.render_pretty(1)).expect("trace write failed");
                eprintln!("wrote {} spans to {}", spans.len(), path.display());
            }
            if args.json {
                println!("{}", full_disclosure_json(&report).render_pretty(2));
            } else {
                println!("{}", full_disclosure(&report));
            }
            ExitCode::SUCCESS
        }
        "serve" => {
            let store = open_store(&args);
            let server_config = match args.shard {
                Some((shard, shards)) => {
                    // Load only this shard's forum slice plus the
                    // replicated person/knows graph.
                    store.bulk_load_sharded(
                        &ds,
                        ds.config.update_split,
                        args.threads,
                        ShardMap::new(shards),
                        shard,
                    );
                    ServerConfig { shard, shards, ..ServerConfig::default() }
                }
                None => {
                    store.bulk_load(&ds);
                    ServerConfig::default()
                }
            };
            let engine = if args.naive { Engine::Naive } else { Engine::Intended };
            let server = Server::bind_with_config(
                args.addr.as_str(),
                Arc::new(StoreConnector::new(store, engine)),
                server_config,
            )
            .expect("bind failed");
            let shard_note = match args.shard {
                Some((i, n)) => format!(" shard {i}/{n}"),
                None => String::new(),
            };
            println!(
                "serving {} persons (seed {}){} on {} — drive with: snb run --persons {} --seed {} --connect {}",
                args.persons,
                args.seed,
                shard_note,
                server.local_addr(),
                args.persons,
                args.seed,
                server.local_addr()
            );
            // Serve until the process is killed.
            server.join();
            ExitCode::SUCCESS
        }
        _ => unreachable!("parse rejects unknown commands"),
    }
}
