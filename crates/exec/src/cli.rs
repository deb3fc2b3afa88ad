//! One-pass command-line parsing for every binary in the workspace.
//!
//! [`Args`] owns the usage-error rule: an unknown flag, a value flag
//! with no value or followed by another `--` flag, or a malformed
//! number prints the reason and the binary's usage and exits 2, the
//! usage-error status, before any work starts. Binaries match their own
//! flags and hand shared flag groups to the struct that owns them.

use std::path::Path;
use std::str::FromStr;

/// A cursor over the command line after the program name.
#[derive(Debug)]
pub struct Args {
    /// The program's file name, which starts the usage line.
    program: String,
    /// The usage text printed after `usage: <program> `.
    usage: String,
    args: Vec<String>,
    /// Index of the next argument.
    at: usize,
}

impl Args {
    /// The process's command line; every usage error prints
    /// `usage: <program> <usage>`.
    pub fn new(usage: &str) -> Self {
        let mut argv = std::env::args();
        let program = argv.next().unwrap_or_default();
        let program = Path::new(&program)
            .file_name()
            .map_or(program.clone(), |n| n.to_string_lossy().into_owned());
        Self::with(program, usage, argv.collect())
    }

    fn with(program: String, usage: &str, args: Vec<String>) -> Self {
        Args {
            program,
            usage: usage.to_string(),
            args,
            at: 0,
        }
    }

    /// Whether `flag` appears anywhere on the command line, for a flag
    /// such as `--quick` that sets defaults before other flags apply.
    pub fn has(&self, flag: &str) -> bool {
        self.args.iter().any(|a| a == flag)
    }

    /// The value of `flag`: the next argument, which must exist and
    /// must not be a `--` flag. An empty value is a value.
    pub fn value(&mut self, flag: &str) -> String {
        match self.next() {
            Some(v) if !v.starts_with("--") => v,
            Some(v) => self.bad(&format!("{flag} takes a value, got {v:?}")),
            None => self.bad(&format!("{flag} takes a value")),
        }
    }

    /// The value of numeric flag `flag`.
    pub fn number<T: FromStr>(&mut self, flag: &str) -> T {
        let v = self.value(flag);
        self.parse(flag, &v)
    }

    /// `v`, a value of numeric flag `flag`, as a number.
    pub fn parse<T: FromStr>(&self, flag: &str, v: &str) -> T {
        v.parse()
            .unwrap_or_else(|_| self.bad(&format!("{flag} takes a number, got {v:?}")))
    }

    /// The comma-separated value of `flag`, without empty items.
    pub fn list(&mut self, flag: &str) -> Vec<String> {
        let v = self.value(flag);
        v.split(',')
            .filter(|x| !x.is_empty())
            .map(str::to_string)
            .collect()
    }

    /// The comma-separated names of `flag`, each read by `parse`, the
    /// registry of the `what`s they name. An unknown name or an empty
    /// list exits 2.
    pub fn names<T>(
        &mut self,
        flag: &str,
        what: &str,
        parse: impl Fn(&str) -> Option<T>,
    ) -> Vec<T> {
        let names = self.list(flag);
        if names.is_empty() {
            self.bad(&format!("{flag} lists no {what}"));
        }
        names
            .iter()
            .map(|n| parse(n).unwrap_or_else(|| self.bad(&format!("unknown {what} {n}"))))
            .collect()
    }

    /// Exit 2 on `flag`, which no one parses.
    pub fn unknown(&self, flag: &str) -> ! {
        self.bad(&format!("unknown flag {flag}"))
    }

    /// Print `reason` and the usage, then exit 2.
    pub fn bad(&self, reason: &str) -> ! {
        eprintln!("{reason}");
        eprintln!("usage: {} {}", self.program, self.usage);
        std::process::exit(2)
    }
}

impl Iterator for Args {
    type Item = String;

    /// The next argument, a flag or a positional one.
    fn next(&mut self) -> Option<String> {
        let arg = self.args.get(self.at).cloned();
        self.at += 1;
        arg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(argv: &[&str]) -> Args {
        let argv = argv.iter().map(|a| a.to_string()).collect();
        Args::with("test".into(), "[--flags]", argv)
    }

    #[test]
    fn flags_and_values_come_in_order() {
        let mut a = args(&["--cores", "4", "--out", "x.json", "dir", "--all"]);
        assert_eq!(a.next().as_deref(), Some("--cores"));
        assert_eq!(a.number::<usize>("--cores"), 4);
        assert_eq!(a.next().as_deref(), Some("--out"));
        assert_eq!(a.value("--out"), "x.json");
        assert_eq!(a.next().as_deref(), Some("dir"));
        assert_eq!(a.next().as_deref(), Some("--all"));
        assert_eq!(a.next(), None);
    }

    #[test]
    fn a_prescanned_flag_is_seen_anywhere_and_still_parsed_in_order() {
        let mut a = args(&["--requests", "9", "--quick"]);
        assert!(a.has("--quick"));
        assert!(!a.has("--full"));
        assert_eq!(a.next().as_deref(), Some("--requests"));
        assert_eq!(a.number::<u64>("--requests"), 9);
        assert_eq!(a.next().as_deref(), Some("--quick"));
        assert_eq!(a.next(), None);
    }

    #[test]
    fn an_empty_value_is_a_value_and_an_empty_list() {
        let mut a = args(&[
            "--noc-core-counts",
            "",
            "--out",
            "",
            "--schemes",
            "LRU,,CHROME",
        ]);
        assert_eq!(a.next().as_deref(), Some("--noc-core-counts"));
        assert!(a.list("--noc-core-counts").is_empty());
        assert_eq!(a.next().as_deref(), Some("--out"));
        assert_eq!(a.value("--out"), "");
        assert_eq!(a.next().as_deref(), Some("--schemes"));
        assert_eq!(a.list("--schemes"), ["LRU", "CHROME"]);
        assert_eq!(a.next(), None);
    }

    #[test]
    fn names_are_read_by_their_registry() {
        let mut a = args(&["--core-counts", "1,,16"]);
        assert_eq!(a.next().as_deref(), Some("--core-counts"));
        let counts = a.names("--core-counts", "count", |c| c.parse::<u32>().ok());
        assert_eq!(counts, [1, 16]);
        assert_eq!(a.next(), None);
    }
}
