//! `tracegen` and `traceinfo` parse their flags in one pass through
//! `chrome_exec::cli::Args`: an unknown flag or workload, a missing or
//! malformed value, and a missing output or input prints the reason
//! and the usage and exits 2 before anything is recorded or read.
//! `traceinfo` checks every PATH it is given, and a file it cannot
//! open fails the run with exit 1.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// Run `exe` with `args` from the temp dir, which keeps a regression
/// that records anyway from writing here.
fn run(exe: &str, args: &[&str]) -> Output {
    Command::new(exe)
        .args(args)
        .current_dir(std::env::temp_dir())
        .output()
        .expect("binary runs")
}

/// `bin` (at `exe`) run with `args` must print `reason` and its usage,
/// exit 2 and print nothing to stdout.
fn assert_usage_error(exe: &str, bin: &str, args: &[&str], reason: &str) {
    let out = run(exe, args);
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
    assert!(out.stdout.is_empty(), "{bin} {args:?} did work");
}

/// A per-process directory in the temp dir.
fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tracefile_cli_{}_{name}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir created");
    dir
}

fn utf8(path: &Path) -> &str {
    path.to_str().expect("utf-8 temp path")
}

#[test]
fn bad_tracegen_flags_are_usage_errors() {
    let cases: [(&[&str], &str); 5] = [
        (
            &["--workload", "mcf", "--out", "x.ctf", "--cores", "abc"],
            "--cores takes a number, got \"abc\"",
        ),
        (
            &["--workload", "mcf", "--out", "x.ctf", "--codec", "compact"],
            "unknown flag --codec",
        ),
        (
            &["--workload", "mcf+nope", "--out", "x.ctf"],
            "unknown workload nope",
        ),
        (
            &["--workload", "mcf", "--out", "x.ctf", "--interval"],
            "--interval takes a value",
        ),
        (
            &["--workload", "mcf"],
            "give exactly one of --out FILE and --out-dir DIR",
        ),
    ];
    for (args, reason) in cases {
        assert_usage_error(env!("CARGO_BIN_EXE_tracegen"), "tracegen", args, reason);
    }
}

#[test]
fn bad_traceinfo_flags_are_usage_errors() {
    let cases: [(&[&str], &str); 3] = [
        (&["--verify"], "no trace file given"),
        (
            &["x.ctf", "--intervals-csv"],
            "--intervals-csv takes a value",
        ),
        (
            &["x.ctf", "y.ctf", "--intervals-csv", "i.csv"],
            "--intervals-csv takes a single PATH",
        ),
    ];
    for (args, reason) in cases {
        assert_usage_error(env!("CARGO_BIN_EXE_traceinfo"), "traceinfo", args, reason);
    }
}

#[test]
fn traceinfo_checks_every_path() {
    let dir = temp_dir("traces");
    let mut paths = Vec::new();
    for workload in ["lbm", "mcf"] {
        let path = dir.join(format!("{workload}.ctf"));
        let out = run(
            env!("CARGO_BIN_EXE_tracegen"),
            &[
                "--workload",
                workload,
                "--instructions",
                "4000",
                "--out",
                utf8(&path),
            ],
        );
        assert!(out.status.success(), "{out:?}");
        paths.push(path);
    }
    let (lbm, mcf) = (utf8(&paths[0]), utf8(&paths[1]));

    let out = run(env!("CARGO_BIN_EXE_traceinfo"), &[lbm, mcf, "--verify"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{out:?}");
    for path in [lbm, mcf] {
        assert!(stdout.contains(path), "{path} not reported:\n{stdout}");
    }
    assert_eq!(stdout.matches("verify: ok").count(), 2, "{stdout}");

    // a file that fails to open fails the run, and the others are
    // still reported
    let missing = dir.join("missing.ctf");
    let out = run(env!("CARGO_BIN_EXE_traceinfo"), &[utf8(&missing), lbm]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert!(stdout.contains(lbm), "{lbm} not reported:\n{stdout}");

    // so does a file whose header names a codec other than compact
    // frames (tag 0): it is reported, not a panic
    let tagged = dir.join("tagged.ctf");
    let mut bytes = std::fs::read(lbm).expect("lbm trace read");
    bytes[6] = 1;
    std::fs::write(&tagged, bytes).expect("tagged trace written");
    let out = run(
        env!("CARGO_BIN_EXE_traceinfo"),
        &[utf8(&tagged), "--verify"],
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert!(stderr.contains("codec tag 1"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    std::fs::remove_dir_all(&dir).expect("temp dir removed");
}
