//! `simpoint` treats a missing or malformed numeric flag value, and a
//! `validate --trace-dir` that does not exist, as usage errors: it
//! prints the usage text and exits 2, as its header promises, instead
//! of panicking (exit 101).

use std::process::Command;

const NUMERIC_FLAGS: [&str; 10] = [
    "--workloads",
    "--cores",
    "--instructions",
    "--warmup",
    "--interval",
    "--base-seed",
    "--jobs",
    "--ipc-tol",
    "--mpki-tol",
    "--min-reduction",
];

/// Run `simpoint validate --trace-dir d <extra>`; returns the exit code
/// and stderr. Flag parsing fails before `d` is ever touched.
fn validate(extra: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_simpoint"))
        .args(["validate", "--trace-dir", "d"])
        .args(extra)
        .output()
        .expect("simpoint runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn assert_usage_error(extra: &[&str]) {
    let (code, stderr) = validate(extra);
    assert_eq!(code, Some(2), "{extra:?} must exit 2; stderr:\n{stderr}");
    assert!(
        stderr.contains("usage: simpoint"),
        "{extra:?} must print the usage text; stderr:\n{stderr}"
    );
}

#[test]
fn missing_numeric_value_is_a_usage_error() {
    for flag in NUMERIC_FLAGS {
        assert_usage_error(&[flag]);
    }
}

#[test]
fn malformed_numeric_value_is_a_usage_error() {
    for flag in NUMERIC_FLAGS {
        assert_usage_error(&[flag, "abc"]);
    }
}

#[test]
fn a_missing_trace_dir_is_a_usage_error() {
    // without --record-missing, validate needs traces it cannot find
    let dir = std::env::temp_dir().join(format!("simpoint_cli_{}_none", std::process::id()));
    let dir = dir.to_str().expect("utf-8 temp path");
    let out = Command::new(env!("CARGO_BIN_EXE_simpoint"))
        .args(["validate", "--trace-dir", dir, "--workloads", "1"])
        .args(["--instructions", "1000", "--warmup", "100", "--no-progress"])
        .current_dir(std::env::temp_dir())
        .output()
        .expect("simpoint runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr:\n{stderr}");
    assert!(
        stderr.contains(&format!("--trace-dir {dir}: no such directory"))
            && stderr.contains("usage: simpoint"),
        "must print the reason and the usage; stderr:\n{stderr}"
    );
}
