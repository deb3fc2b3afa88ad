//! `simpoint` treats a missing or malformed numeric flag value, and a
//! `validate --trace-dir` that does not exist, as usage errors: it
//! prints the usage text and exits 2, as its header promises, instead
//! of panicking (exit 101). `simpoint inspect` prints the feature
//! matrix the sampling planner clusters.

use std::process::Command;

use chrome_simpoint::features::DIMS;
use chrome_simpoint::trace_features;
use chrome_tracefile::recorder::record_workload;
use chrome_tracefile::TraceFile;

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

#[test]
fn inspect_prints_the_planners_matrix() {
    let dir = std::env::temp_dir().join(format!("simpoint_cli_{}_inspect", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir created");
    let trace = dir.join("gcc.ctf");
    // 40 intervals of 5000 instructions on one core
    record_workload(&trace, "gcc", 1, 7, 200_000, 5_000).expect("trace recorded");
    let csv = dir.join("features.csv");
    let out = Command::new(env!("CARGO_BIN_EXE_simpoint"))
        .args(["inspect", "--trace"])
        .arg(&trace)
        .arg("--csv")
        .arg(&csv)
        .output()
        .expect("simpoint runs");
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let tf = TraceFile::open(&trace).expect("trace opens");
    let (planner, _) = trace_features(&tf).expect("planner features");
    let text = std::fs::read_to_string(&csv).expect("csv written");
    let mut lines = text.lines();
    let header: Vec<&str> = lines.next().expect("header row").split(',').collect();
    let rows: Vec<Vec<f64>> = lines
        .map(|l| l.split(',').map(|v| v.parse().expect("numeric")).collect())
        .collect();
    assert_eq!(rows.len(), 40);
    assert_eq!(rows.len(), planner.len());
    for (j, row) in rows.iter().enumerate() {
        assert_eq!(row[..2], [j as f64, planner.instructions[j] as f64]);
        assert_eq!(row[2..2 + DIMS], planner.raw[j], "raw row {j}");
        assert_eq!(row[2 + DIMS..], planner.norm[j], "normalized row {j}");
    }
    let col = |name: &str| header.iter().position(|h| *h == name).expect(name);
    let func_cpi = col("func_cpi");
    assert!(rows.iter().all(|r| r[func_cpi] > 0.0), "func_cpi is 0");
    let regions = col("region00")..=col("region15");
    assert!(
        rows.iter()
            .any(|r| r[regions.clone()].iter().any(|&v| v > 0.0)),
        "region columns are all 0"
    );
    std::fs::remove_dir_all(&dir).expect("temp dir removed");
}
