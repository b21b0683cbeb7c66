//! `record` — the benchmark of record: the Table-4 mix in three
//! deployments, a write side and a wire side, each layer measured from
//! outside. See README.md in this directory.
//!
//! ```text
//! record [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]
//!        [--out FILE] [--smoke]
//! record compare A.json B.json
//! ```
//!
//! Run from the repository root. For each workload it prints every metric
//! by name with its unit, the correctness checks, and last one JSON line
//! `{"correct", "attempted", "failed", "metrics"}` — the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`.

mod compare;
mod json;
mod layers;
mod spans;
mod stats;
mod workloads;

use snb_obs::Json;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workloads::{Config, Metric, Outcome, Workload};

const USAGE: &str = "usage: record [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1] \
[--out FILE] [--smoke]\n       record compare A.json B.json\nworkloads: mix.inproc mix.loopback \
mix.shard2 short.loopback updates.durable updates.mem";

/// Length of the timed phase unless `--seconds` says otherwise; equals
/// BENCHMARK.json's `run_seconds`.
const DEFAULT_SECONDS: f64 = 12.0;

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    out: Option<String>,
    smoke: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workloads: Workload::ALL.to_vec(),
        seed: 42,
        seconds: None,
        trace: false,
        out: None,
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if name != "all" {
                    let w = Workload::parse(name).ok_or(format!("unknown workload {name}"))?;
                    parsed.workloads = vec![w];
                }
            }
            "--seed" => {
                parsed.seed = value()?.parse().map_err(|_| "--seed takes a whole number")?
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                parsed.seconds = Some(s);
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--out" => parsed.out = Some(value()?.clone()),
            "--smoke" => parsed.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().is_some_and(|a| a == "compare") {
        let [_, a, b] = args.as_slice() else {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        };
        return match compare::compare(a, b, "BENCHMARK.json") {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("record compare: {e}");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("record: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("record: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Run the requested workloads; `Ok(true)` when every check passed.
fn run(args: &Args) -> Result<bool, String> {
    let tmp = PathBuf::from(format!(".record_tmp/{}", std::process::id()));
    std::fs::create_dir_all(&tmp).map_err(|e| format!("{}: {e}", tmp.display()))?;
    let cfg = Config {
        persons: if args.smoke { workloads::SMOKE_PERSONS } else { workloads::PERSONS },
        seed: args.seed,
        seconds: args.seconds.unwrap_or(if args.smoke { 1.0 } else { DEFAULT_SECONDS }),
        trace: args.trace,
        smoke: args.smoke,
        tmp,
    };
    let header = header(&cfg);
    println!("{}", header.render());

    let mut outcomes = Vec::new();
    let result = args.workloads.iter().try_for_each(|&w| {
        let outcome = workloads::run_workload(w, &cfg).map_err(|e| format!("{}: {e}", w.name()))?;
        print_outcome(&outcome, cfg.trace);
        outcomes.push(outcome);
        Ok::<(), String>(())
    });
    // The WAL goes whether or not the run succeeded.
    let _ = std::fs::remove_dir_all(&cfg.tmp);
    let _ = std::fs::remove_dir(".record_tmp");
    result?;

    if let Some(path) = &args.out {
        append_run(path, header, &outcomes)?;
    }
    Ok(outcomes.iter().all(Outcome::correct))
}

/// What identifies a result: written into every result and result file.
fn header(cfg: &Config) -> Json {
    let hw_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    Json::obj([
        ("bench", Json::from("record")),
        ("commit", Json::from(commit())),
        ("hw_threads", Json::from(hw_threads)),
        ("persons", Json::from(cfg.persons)),
        ("dataset_seed", Json::from(workloads::DATASET_SEED)),
        ("seed", Json::from(cfg.seed)),
        ("seconds", Json::from(cfg.seconds)),
        ("partitions", Json::from(workloads::PARTITIONS)),
        ("tmp_filesystem", Json::from(filesystem_of(&cfg.tmp))),
        ("trace", Json::from(cfg.trace)),
        ("smoke", Json::from(cfg.smoke)),
    ])
}

/// The checkout's commit, when it is a git checkout and git is installed.
fn commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or("unknown".into(), |s| s.trim().to_string())
}

/// Filesystem type and device under `path`, from /proc/mounts: fsync cost
/// is the device's, so `updates.durable` numbers carry it.
fn filesystem_of(path: &Path) -> String {
    let Ok(path) = path.canonicalize() else { return "unknown".into() };
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split(' ');
            let (device, mount, fs) = (fields.next()?, fields.next()?, fields.next()?);
            path.starts_with(mount).then(|| (mount.len(), format!("{fs} on {device}")))
        })
        .max_by_key(|(len, _)| *len)
        .map_or("unknown".into(), |(_, fs)| fs)
}

fn metrics_json(metrics: &[Metric]) -> Json {
    Json::obj(metrics.iter().map(|m| {
        (m.name, Json::obj([("value", Json::from(m.value)), ("unit", Json::from(m.unit))]))
    }))
}

/// The contract's result object; its compact rendering is the last line a
/// single-workload invocation prints.
fn result_json(o: &Outcome, trace: bool) -> Json {
    Json::obj([
        ("correct", Json::from(o.correct())),
        ("attempted", Json::from(o.attempted)),
        ("failed", Json::from(o.failed)),
        ("metrics", metrics_json(if trace { &o.per_layer } else { &o.end_to_end })),
    ])
}

fn print_outcome(o: &Outcome, trace: bool) {
    println!("== {} ==", o.workload.name());
    for note in &o.notes {
        println!("  {note}");
    }
    println!("  end-to-end (tracing off):");
    for m in &o.end_to_end {
        println!("    {:<28} {:>16.4} {}", m.name, m.value, m.unit);
    }
    println!("    {:<28} {:>16} of {} attempted", "failed_ops", o.failed, o.attempted);
    println!(
        "    {:<28} {:>16.4} {} (diagnostic, not gated)",
        o.tail.name, o.tail.value, o.tail.unit
    );
    if trace {
        println!("  per-layer (traced replays):");
        for m in &o.per_layer {
            println!("    {:<28} {:>16.4} {}", m.name, m.value, m.unit);
        }
    }
    println!(
        "    {:<5} {:>8} {:>11} {:>11} {:>5}{}",
        "kind",
        "samples",
        "p50_us",
        "tail_us",
        "at",
        if trace { "  exec.busy_s exec.share  fanout examined/row" } else { "" }
    );
    for k in &o.kinds {
        let tail_at = format!("p{:.0}", k.tail_p * 100.0);
        print!(
            "    {:<5} {:>8} {:>11.2} {:>11.2} {:>5}",
            spans::kind_name(k.kind),
            k.samples,
            k.p50_us,
            k.tail_us,
            tail_at
        );
        if trace {
            print!(
                "  {:>11.4} {:>10.4} {:>7.2} {:>12.1}",
                k.exec_busy_s, k.exec_share, k.fanout, k.examined_per_row
            );
        }
        println!();
    }
    for (what, ok) in &o.checks {
        println!("  check {}: {what}", if *ok { "ok  " } else { "FAIL" });
    }
    println!("{}", result_json(o, trace).render());
}

/// Append this invocation as one run to the result set at `path`, which
/// must have been written under the same header (commit aside: a set may
/// not mix seeds, sizes or hosts, but `compare` is what looks at commits).
fn append_run(path: &str, header: Json, outcomes: &[Outcome]) -> Result<(), String> {
    let run = Json::obj(outcomes.iter().map(|o| {
        let kinds = o.kinds.iter().map(|k| {
            Json::obj([
                ("kind", Json::from(spans::kind_name(k.kind))),
                ("samples", Json::from(k.samples)),
                ("p50_us", Json::from(k.p50_us)),
                ("tail_us", Json::from(k.tail_us)),
                ("tail_percentile", Json::from(k.tail_p)),
                ("exec_busy_s", Json::from(k.exec_busy_s)),
                ("exec_share", Json::from(k.exec_share)),
                ("fanout", Json::from(k.fanout)),
                ("examined_per_row", Json::from(k.examined_per_row)),
            ])
        });
        let checks = o.checks.iter().map(|(what, ok)| {
            Json::obj([("check", Json::from(what.as_str())), ("ok", Json::from(*ok))])
        });
        let body = [
            ("correct", Json::from(o.correct())),
            ("attempted", Json::from(o.attempted)),
            ("failed", Json::from(o.failed)),
            ("replays", Json::from(o.replays)),
            ("metrics", metrics_json(&o.end_to_end)),
            ("diagnostic", metrics_json(std::slice::from_ref(&o.tail))),
            ("per_layer", metrics_json(&o.per_layer)),
            ("kinds", Json::Arr(kinds.collect())),
            ("checks", Json::Arr(checks.collect())),
            ("notes", Json::arr(o.notes.iter().map(|n| Json::from(n.as_str())))),
        ];
        (o.workload.name(), Json::obj(body))
    }));

    let Json::Obj(header) = header else { unreachable!("header is an object") };
    let mut runs = match std::fs::read_to_string(path) {
        Ok(text) => {
            let old = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
            for (key, value) in header.iter().filter(|(key, _)| key != "commit") {
                if !json::get(&old, key).is_some_and(|v| json::same(v, value)) {
                    return Err(format!(
                        "{path} was written with a different {key}; not appending"
                    ));
                }
            }
            match json::get(&old, "runs") {
                Some(Json::Arr(runs)) => runs.clone(),
                _ => return Err(format!("{path} has no runs array")),
            }
        }
        Err(_) => Vec::new(),
    };
    runs.push(run);
    // One line per header field and per run: sets get committed, and a diff
    // should show the run that was added.
    let fields: Vec<String> = header
        .iter()
        .map(|(key, value)| format!(" {}: {}", Json::from(key.as_str()).render(), value.render()))
        .collect();
    let runs: Vec<String> = runs.iter().map(|run| format!("  {}", run.render())).collect();
    let text = format!("{{\n{},\n \"runs\": [\n{}\n ]\n}}\n", fields.join(",\n"), runs.join(",\n"));
    std::fs::write(path, text).map_err(|e| format!("{path}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let a =
            args(&["--workload", "mix.shard2", "--seed", "7", "--seconds", "12", "--trace", "1"])
                .unwrap();
        assert_eq!(a.workloads, vec![Workload::MixShard2]);
        assert_eq!((a.seed, a.seconds, a.trace, a.smoke), (7, Some(12.0), true, false));
        let all = args(&["--workload", "all", "--smoke"]).unwrap();
        assert_eq!(all.workloads, Workload::ALL.to_vec());
        assert!(all.smoke && !all.trace);
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for bad in [
            &["--workload", "mix"][..],
            &["--seed", "x"],
            &["--seconds", "0"],
            &["--trace", "2"],
            &["--seed"],
            &["--frobnicate"],
        ] {
            assert!(args(bad).is_err(), "{bad:?}");
        }
    }

    /// BENCHMARK.json must name exactly the workloads and metrics the
    /// program prints, with their units.
    #[test]
    fn benchmark_json_matches_the_program() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let list = |key: &str| match json::get(&doc, key) {
            Some(Json::Arr(items)) => items.clone(),
            _ => panic!("BENCHMARK.json has no {key} list"),
        };
        let text = |item: &Json, key: &str| match json::get(item, key) {
            Some(Json::Str(s)) => s.clone(),
            _ => panic!("entry without {key}"),
        };
        let names: Vec<String> = list("workloads").iter().map(|w| text(w, "name")).collect();
        assert_eq!(names, Workload::ALL.map(|w| w.name().to_string()));
        for (key, expected) in
            [("end_to_end", &workloads::END_TO_END[..]), ("per_layer", &workloads::PER_LAYER[..])]
        {
            let listed: Vec<(String, String)> =
                list(key).iter().map(|m| (text(m, "name"), text(m, "unit"))).collect();
            let expected: Vec<(String, String)> =
                expected.iter().map(|&(n, u)| (n.to_string(), u.to_string())).collect();
            assert_eq!(listed, expected, "{key}");
        }
        assert_eq!(json::get(&doc, "run_seconds").and_then(json::as_f64), Some(DEFAULT_SECONDS));
    }
}
