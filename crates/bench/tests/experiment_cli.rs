//! The experiment binaries parse their flags with
//! `RunParams::from_args`, which treats an unknown flag, a value flag
//! with no value and a malformed numeric value as usage errors: it
//! prints the reason and the usage and exits 2 instead of panicking
//! (exit 101).

use std::process::Command;

#[test]
fn bad_run_all_flags_are_usage_errors() {
    let cases: [(&[&str], &str); 3] = [
        (&["--bogus"], "unknown flag --bogus"),
        (&["--quick", "--cores"], "--cores takes a number"),
        (&["--cores", "abc"], "--cores takes a number, got \"abc\""),
    ];
    for (args, reason) in cases {
        // flag parsing fails before any cell runs or any table is
        // written; the temp dir keeps a regression from writing here
        let out = Command::new(env!("CARGO_BIN_EXE_run_all"))
            .args(args)
            .current_dir(std::env::temp_dir())
            .output()
            .expect("run_all runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(2),
            "{args:?} must exit 2; stderr:\n{stderr}"
        );
        assert!(
            stderr.contains(reason) && stderr.contains("usage: run_all"),
            "{args:?} must print {reason:?} and the usage; stderr:\n{stderr}"
        );
    }
}
