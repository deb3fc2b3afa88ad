//! `forensics` treats a bad command line as a usage error: a missing or
//! unknown subcommand, a flag the subcommand does not take, a value flag
//! with no value (at the end, or followed by another flag), a malformed
//! number, an unknown stream, a non-power-of-two shard count, and a zero
//! core count, keyspace, shard geometry or audit cap all print the
//! reason and the usage and exit 2, before any run starts. `sim`
//! writes one report pair per workload of a `--workload` list.

use std::process::Command;

#[test]
fn bad_forensics_flags_are_usage_errors() {
    let cases: [(&[&str], &str); 17] = [
        (
            &["sim", "--cores", "abc"],
            "--cores takes a number, got \"abc\"",
        ),
        (
            &["sim", "--quick", "--cores", "0"],
            "--cores must be at least 1",
        ),
        (
            &["sim", "--quick", "--audit-cap", "0"],
            "--audit-cap must be at least 1",
        ),
        (
            &["sim", "--out", "--quick"],
            "--out takes a value, got \"--quick\"",
        ),
        (
            &["sim", "--quick", "--stream", "mixed"],
            "unknown flag --stream for sim",
        ),
        (
            &["serve", "--quick", "--shards", "3"],
            "--shards must be a power of two, got 3",
        ),
        (
            &["serve", "--quick", "--audit-cap", "0"],
            "--audit-cap must be at least 1",
        ),
        (
            &["serve", "--quick", "--stream", "nope"],
            "unknown stream nope",
        ),
        (
            &["serve", "--quick", "--bogus", "7"],
            "unknown flag --bogus",
        ),
        (&["serve", "--quick", "--seed"], "--seed takes a value"),
        (
            &["serve", "--quick", "--requests", "1e5"],
            "--requests takes a number, got \"1e5\"",
        ),
        (
            &["serve", "--quick", "--keyspace", "0"],
            "--keyspace must be at least 1",
        ),
        (
            &["serve", "--quick", "--shard-slots", "0"],
            "--shard-slots must be at least 1",
        ),
        (
            &["serve", "--quick", "--shard-bytes", "0"],
            "--shard-bytes must be at least 1",
        ),
        (&["oracle"], "oracle needs --trace FILE.ctf"),
        (&["replay"], "unknown subcommand \"replay\""),
        (&[], "missing subcommand"),
    ];
    for (args, reason) in cases {
        // the temp dir keeps a regression that runs anyway from writing
        // reports here
        let out = Command::new(env!("CARGO_BIN_EXE_forensics"))
            .args(args)
            .current_dir(std::env::temp_dir())
            .output()
            .expect("forensics runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(2),
            "{args:?} must exit 2; stderr:\n{stderr}"
        );
        assert!(
            stderr.contains(reason) && stderr.contains("usage: forensics"),
            "{args:?} must print {reason:?} and the usage; stderr:\n{stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?} started a run");
    }
}

#[test]
fn sim_reports_every_workload_of_a_list() {
    let out_dir = std::env::temp_dir().join(format!("forensics_cli_{}", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_forensics"))
        .args(["sim", "--quick", "--workload", "mcf,lbm", "--out"])
        .arg(&out_dir)
        .output()
        .expect("forensics runs");
    assert!(out.status.success(), "{out:?}");
    for workload in ["mcf", "lbm"] {
        for ext in ["jsonl", "md"] {
            let report = out_dir.join(format!("forensics_{workload}.{ext}"));
            let text = std::fs::read_to_string(&report).expect("report written");
            assert!(!text.is_empty(), "{} is empty", report.display());
        }
        let jsonl = std::fs::read_to_string(out_dir.join(format!("forensics_{workload}.jsonl")))
            .expect("report written");
        assert_eq!(jsonl.lines().count(), 2, "CHROME and N-CHROME rows");
    }
    std::fs::remove_dir_all(&out_dir).expect("temp dir removed");
}
