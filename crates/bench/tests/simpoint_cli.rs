//! `simpoint` treats a missing or malformed numeric flag value as a
//! usage error: it prints the usage text and exits 2, as its header
//! promises, instead of panicking (exit 101).

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
