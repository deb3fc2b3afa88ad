//! The chrome-bench binaries parse their flags in one pass through
//! `chrome_exec::cli::Args`, which treats an unknown flag, a value flag
//! with no value (at the end, or followed by another flag), a malformed
//! numeric value, and an unknown experiment, workload, scheme or
//! unreadable baseline file as usage errors: it prints the reason and
//! the usage and exits 2 before any cell runs, instead of panicking
//! (exit 101) or running with the flag misread.

use std::path::{Path, PathBuf};
use std::process::Command;

/// A tiny budget ahead of each case, so that a regression which runs
/// anyway finishes quickly.
const TINY: [&str; 4] = ["--instructions", "1000", "--warmup", "100"];

/// `bin` (at `exe`) run with `args` must print `reason` and its usage,
/// exit 2 and print nothing to stdout.
fn assert_usage_error(exe: &str, bin: &str, args: &[&str], reason: &str) {
    // the temp dir keeps a regression that runs anyway from writing
    // tables here
    let out = Command::new(exe)
        .args(args)
        .current_dir(std::env::temp_dir())
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(2),
        "{bin} {args:?} must exit 2; stderr:\n{stderr}"
    );
    assert!(
        stderr.contains(reason) && stderr.contains(&format!("usage: {bin}")),
        "{bin} {args:?} must print {reason:?} and the usage; stderr:\n{stderr}"
    );
    assert!(out.stdout.is_empty(), "{bin} {args:?} ran a cell");
}

/// A per-process path in the temp dir.
fn temp_file(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("experiment_cli_{}_{name}", std::process::id()))
}

#[test]
fn bad_run_all_flags_are_usage_errors() {
    let missing = temp_file("no_traces");
    let missing = missing.to_str().expect("utf-8 temp path");
    let no_such_dir = format!("--trace-dir {missing}: no such directory");
    let cases: [(&[&str], &str); 8] = [
        (&["--bogus"], "unknown flag --bogus"),
        // cells run once; there is no retry count to set
        (&["--retries", "2"], "unknown flag --retries"),
        (&["nope"], "unknown experiment nope"),
        // sampled cells come only from `simpoint validate`
        (&["--sampling", "k=2,ramp=100"], "unknown flag --sampling"),
        (
            &[
                "fig12_nchrome",
                "--trace-dir",
                missing,
                "--homo-workloads",
                "1",
            ],
            &no_such_dir,
        ),
        (&["--quick", "--cores"], "--cores takes a value"),
        (&["--cores", "abc"], "--cores takes a number, got \"abc\""),
        (
            &[
                "--homo-workloads",
                "1",
                "--mixes",
                "1",
                "--instructions",
                "1000",
                "--warmup",
                "100",
                "--manifest",
                "--quick",
            ],
            "--manifest takes a value, got \"--quick\"",
        ),
    ];
    for (args, reason) in cases {
        let mut argv = TINY.to_vec();
        argv.extend(args);
        assert_usage_error(env!("CARGO_BIN_EXE_run_all"), "run_all", &argv, reason);
    }
}

/// The names of the entries of `dir`, sorted.
fn entries(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .expect("readable dir")
        .map(|e| {
            e.expect("dir entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    names.sort();
    names
}

#[test]
fn a_table_without_cells_runs_without_the_grid() {
    let dir = temp_file("tab03");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir created");
    let out = Command::new(env!("CARGO_BIN_EXE_run_all"))
        .arg("tab03_overhead")
        .current_dir(&dir)
        .output()
        .expect("run_all runs");
    assert_eq!(
        out.status.code(),
        Some(0),
        "run_all tab03_overhead must exit 0; stderr:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // the table and nothing else: no grid ran, no manifest was opened
    assert_eq!(entries(&dir), ["results"]);
    assert_eq!(entries(&dir.join("results")), ["tab03_overhead.tsv"]);
    let tsv = std::fs::read_to_string(dir.join("results/tab03_overhead.tsv")).expect("table");
    assert!(tsv.lines().last().is_some_and(|l| l.starts_with("TOTAL\t")));
    std::fs::remove_dir_all(&dir).expect("temp dir removed");
}

#[test]
fn bad_throughput_flags_are_usage_errors() {
    let missing = temp_file("missing.json");
    let missing = missing.to_str().expect("utf-8 temp path");
    let malformed = temp_file("malformed.json");
    std::fs::write(&malformed, "{\"cells\": [").expect("temp file written");
    let malformed = malformed.to_str().expect("utf-8 temp path");
    let cases: [(&[&str], String); 9] = [
        (&["--reps"], "--reps takes a value".into()),
        (&["--schemes", "LRU,NOPE"], "unknown scheme NOPE".into()),
        (&["--schemes", ","], "--schemes lists no scheme".into()),
        (&["--workloads", "mcf,nope"], "unknown workload nope".into()),
        (
            &["--core-counts", "1,x"],
            "--core-counts takes a number, got \"x\"".into(),
        ),
        // a common flag throughput sets per cell itself
        (&["--cores", "8"], "unknown flag --cores".into()),
        (&["--baseline", missing], format!("--baseline {missing}: ")),
        (
            &["--baseline", malformed],
            format!("--baseline {malformed}: malformed JSON"),
        ),
        (
            &["--merge-baseline", malformed],
            format!("--merge-baseline {malformed}: malformed JSON"),
        ),
    ];
    for (args, reason) in cases {
        // one tiny cell, so that a regression which runs anyway is quick
        let mut argv = TINY.to_vec();
        argv.extend([
            "--workloads",
            "mcf",
            "--core-counts",
            "1",
            "--noc-core-counts",
            "",
            "--schemes",
            "LRU",
            "--reps",
            "1",
        ]);
        argv.extend(args);
        assert_usage_error(
            env!("CARGO_BIN_EXE_throughput"),
            "throughput",
            &argv,
            &reason,
        );
    }
    std::fs::remove_file(malformed).expect("temp file removed");
}

#[test]
fn bad_profile_flags_are_usage_errors() {
    let cases: [(&[&str], &str); 6] = [
        (&["--scheme"], "--scheme takes a value"),
        (&["--scheme", "NOPE"], "unknown scheme NOPE"),
        (&["--workload", "nope"], "unknown workload nope"),
        (&["--mix", "mcf,nope"], "unknown workload nope"),
        (&["--mix", ""], "--mix lists no workload"),
        (
            &["--workload", "--quick"],
            "--workload takes a value, got \"--quick\"",
        ),
    ];
    for (args, reason) in cases {
        let mut argv = TINY.to_vec();
        argv.extend(["--cores", "1"]);
        argv.extend(args);
        assert_usage_error(env!("CARGO_BIN_EXE_profile"), "profile", &argv, reason);
    }
}

#[test]
fn bad_tldiff_flags_are_usage_errors() {
    let dir = std::env::temp_dir();
    let dir = dir.to_str().expect("utf-8 temp dir");
    let cases: [(&[&str], &str); 3] = [
        (&[dir, dir, "--t"], "--t takes a value"),
        (&[dir, dir, "--rel", "x"], "--rel takes a number, got \"x\""),
        (&[dir, "--all"], "tldiff compares two directories, got 1"),
    ];
    for (args, reason) in cases {
        assert_usage_error(env!("CARGO_BIN_EXE_tldiff"), "tldiff", args, reason);
    }
}
