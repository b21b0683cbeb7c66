//! `snb` rejects flags it would otherwise ignore: `--sync` with no `--wal`,
//! `--wal`/`--sync` next to `--connect` (the server owns the store), and
//! every `--sync` spelling other than `never` and `group`. Each case exits
//! with status 2 before generating anything, naming the offending flag. A
//! config the generator rejects exits 2 as well, with its error, not a
//! panic.

use std::process::Command;

/// Run `snb` with `args`; return its exit code and stderr.
fn snb(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_snb")).args(args).output().expect("spawn snb");
    (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned())
}

#[test]
fn flags_the_command_would_ignore_exit_2_and_name_the_flag() {
    let wal = std::env::temp_dir().join(format!("snb-cli-flags-{}.wal", std::process::id()));
    let wal = wal.to_str().unwrap();
    let cases: [(&[&str], &str); 5] = [
        (&["run", "--persons", "40", "--sync", "group"], "--sync"),
        (&["serve", "--persons", "40", "--sync", "never"], "--sync"),
        (&["run", "--connect", "127.0.0.1:9", "--wal", wal, "--sync", "group"], "--wal"),
        (&["run", "--connect", "127.0.0.1:9", "--wal", wal], "--wal"),
        (&["run", "--connect", "127.0.0.1:9,127.0.0.1:10", "--sync", "never"], "--sync"),
    ];
    for (args, flag) in cases {
        let (code, stderr) = snb(args);
        assert_eq!(code, Some(2), "snb {args:?} must exit 2; stderr: {stderr}");
        assert!(stderr.contains(flag), "snb {args:?} must name {flag}; stderr: {stderr}");
    }
    for removed in ["commit", "every-commit", "group:8:100"] {
        let (code, stderr) = snb(&["serve", "--persons", "40", "--wal", wal, "--sync", removed]);
        assert_eq!(code, Some(2), "--sync {removed} must exit 2; stderr: {stderr}");
        assert!(stderr.contains("bad --sync policy"), "{stderr}");
    }
    assert!(!std::path::Path::new(wal).exists(), "a rejected command must not create its WAL");
}

#[test]
fn a_config_the_generator_rejects_exits_2_without_a_panic() {
    for command in ["generate", "rdf", "stats", "run", "serve"] {
        let (code, stderr) = snb(&[command, "--persons", "0"]);
        assert_eq!(code, Some(2), "snb {command} --persons 0 must exit 2; stderr: {stderr}");
        assert!(stderr.contains("need at least 2 persons"), "{stderr}");
        assert!(!stderr.contains("panicked"), "{stderr}");
    }
    let (code, stderr) = snb(&["frobnicate", "--persons", "0"]);
    assert_eq!(code, Some(2), "an unknown command must exit 2; stderr: {stderr}");
    assert!(stderr.contains("unknown command: frobnicate"), "{stderr}");
}

#[test]
fn the_two_sync_policies_are_accepted_with_a_wal() {
    // `stats` parses every flag and never opens the log, so it checks the
    // accepted combinations without running the benchmark.
    for policy in ["never", "group"] {
        let (code, stderr) =
            snb(&["stats", "--persons", "40", "--wal", "unused.wal", "--sync", policy]);
        assert_eq!(code, Some(0), "--sync {policy}: {stderr}");
    }
}
