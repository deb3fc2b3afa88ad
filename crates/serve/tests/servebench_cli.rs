//! `servebench` treats a bad command line as a usage error: an unknown
//! flag, a value flag with no value (at the end, or followed by another
//! flag), a malformed number, an unknown stream or policy, a shard
//! geometry the cache cannot be built with, and a baseline file that
//! cannot be read or parsed all print the reason and the usage and exit
//! 2, before any cell runs. `--telemetry-out` writes the CHROME run's
//! binary audit trail.

use std::path::PathBuf;
use std::process::{Command, Output};

use chrome_telemetry::{parse_audit, AuditRecord};

/// Run servebench from the temp dir, which keeps a regression that runs
/// anyway from writing output files here.
fn servebench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_servebench"))
        .args(args)
        .current_dir(std::env::temp_dir())
        .output()
        .expect("servebench runs")
}

/// `args` must print `reason` and the usage, exit 2 and run no cell.
fn assert_usage_error(args: &[&str], reason: &str) {
    let out = servebench(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(2),
        "{args:?} must exit 2; stderr:\n{stderr}"
    );
    assert!(
        stderr.contains(reason) && stderr.contains("usage: servebench"),
        "{args:?} must print {reason:?} and the usage; stderr:\n{stderr}"
    );
    assert!(out.stdout.is_empty(), "{args:?} ran a cell");
}

/// A per-process path in the temp dir.
fn temp_file(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("servebench_cli_{}_{name}", std::process::id()))
}

#[test]
fn bad_servebench_flags_are_usage_errors() {
    let cases: [(&[&str], &str); 9] = [
        (
            &["--threads", "abc"],
            "--threads takes a number, got \"abc\"",
        ),
        (
            &["--threads", "--quick"],
            "--threads takes a value, got \"--quick\"",
        ),
        (&["--quick", "--threads"], "--threads takes a value"),
        (&["--out", "--gate-chrome"], "--out takes a value"),
        (&["--stream", "nope"], "unknown stream nope"),
        (&["--policies", "lru,belady"], "unknown policy belady"),
        (&["--shards", "3"], "--shards must be a power of two, got 3"),
        (&["--shard-slots", "0"], "--shard-slots must be at least 1"),
        (&["--bogus"], "unknown flag --bogus"),
    ];
    for (args, reason) in cases {
        assert_usage_error(args, reason);
    }
}

#[test]
fn unreadable_baselines_are_usage_errors() {
    let missing = temp_file("missing.json");
    let missing = missing.to_str().expect("utf-8 temp path");
    let malformed = temp_file("malformed.json");
    std::fs::write(&malformed, "{\"policies\": [").expect("temp file written");
    let malformed = malformed.to_str().expect("utf-8 temp path");
    for (path, reason) in [
        (missing, format!("--baseline {missing}: ")),
        (malformed, format!("--baseline {malformed}: malformed JSON")),
    ] {
        assert_usage_error(
            &["--quick", "--policies", "lru", "--baseline", path],
            &reason,
        );
    }
    std::fs::remove_file(malformed).expect("temp file removed");
}

#[test]
fn telemetry_out_writes_the_chrome_audit_trail() {
    let path = temp_file("audit.bin");
    let out = servebench(&[
        "--quick",
        "--policies",
        "chrome",
        "--telemetry-out",
        path.to_str().expect("utf-8 temp path"),
    ]);
    assert!(out.status.success(), "{out:?}");
    let blob = std::fs::read(&path).expect("audit trail written");
    std::fs::remove_file(&path).expect("temp file removed");
    let segments = parse_audit(&blob).expect("the file is an audit blob");
    // --quick: 8 shards, 30,000 requests
    assert_eq!(segments.len(), 8, "one segment per shard");
    let mut decisions = 0;
    for (i, seg) in segments.iter().enumerate() {
        assert_eq!(seg.stream, i as u32, "segments in shard order");
        assert_eq!(seg.dropped, 0, "shard {i} dropped records");
        decisions += seg
            .records
            .iter()
            .filter(|r| matches!(r, AuditRecord::Decision(_)))
            .count();
    }
    assert_eq!(decisions, 30_000, "one decision record per request");
}
