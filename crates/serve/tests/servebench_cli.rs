//! `servebench` treats a bad command line as a usage error: an unknown
//! flag, a value flag with no value (at the end, or followed by another
//! flag), a malformed number, an unknown stream or policy, and a shard
//! geometry the cache cannot be built with all print the reason and the
//! usage and exit 2, before any cell runs.

use std::process::Command;

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
        // the temp dir keeps a regression that runs anyway from writing
        // output files here
        let out = Command::new(env!("CARGO_BIN_EXE_servebench"))
            .args(args)
            .current_dir(std::env::temp_dir())
            .output()
            .expect("servebench runs");
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
}
