//! Diff two telemetry artifact directories.
//!
//! Pairs files by name across the two directories: epoch series
//! (`*_epochs.csv`) are compared column-by-column with Welch's t-test
//! over the per-epoch samples, and attribution tables (`*_attrib.csv`)
//! cell-by-cell against a relative-change threshold. This is the
//! regression-detection primitive for profiler output: run a cell twice
//! (two schemes, two commits, two seeds), export with `--telemetry-out`,
//! then diff. Every artifact comes from a full run: sampled cells
//! (`simpoint validate`) export no telemetry.
//!
//! ```text
//! tldiff DIR_A DIR_B [--t THRESH] [--rel THRESH] [--all] [--fail-on-diff]
//! ```
//!
//! `--t` sets the Welch-t significance threshold (default 3.0, roughly
//! p < 0.01 for long series), `--rel` the attribution relative-change
//! threshold (default 0.05 = 5%), `--all` prints insignificant columns
//! too, and `--fail-on-diff` exits 1 when any significant delta was
//! found (for CI gates).

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::exit;

use chrome_exec::cli::Args;
use chrome_telemetry::diff::{diff_attrib_csv, diff_epoch_csv};

struct Options {
    dir_a: PathBuf,
    dir_b: PathBuf,
    t_threshold: f64,
    rel_threshold: f64,
    show_all: bool,
    fail_on_diff: bool,
}

fn parse_args() -> Options {
    let mut args = Args::new("DIR_A DIR_B [--t THRESH] [--rel THRESH] [--all] [--fail-on-diff]");
    let mut dirs = Vec::new();
    let mut opts = Options {
        dir_a: PathBuf::new(),
        dir_b: PathBuf::new(),
        t_threshold: 3.0,
        rel_threshold: 0.05,
        show_all: false,
        fail_on_diff: false,
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--t" => opts.t_threshold = args.number(&arg),
            "--rel" => opts.rel_threshold = args.number(&arg),
            "--all" => opts.show_all = true,
            "--fail-on-diff" => opts.fail_on_diff = true,
            dir if !dir.starts_with("--") => dirs.push(PathBuf::from(dir)),
            flag => args.unknown(flag),
        }
    }
    let [a, b] = <[PathBuf; 2]>::try_from(dirs).unwrap_or_else(|dirs| {
        args.bad(&format!(
            "tldiff compares two directories, got {}",
            dirs.len()
        ))
    });
    opts.dir_a = a;
    opts.dir_b = b;
    opts
}

/// Artifact file names in `dir` matching `suffix`.
fn artifacts(dir: &Path, suffix: &str) -> BTreeSet<String> {
    let Ok(entries) = std::fs::read_dir(dir) else {
        eprintln!("cannot read {}", dir.display());
        exit(2);
    };
    entries
        .filter_map(|e| e.ok())
        .filter_map(|e| e.file_name().into_string().ok())
        .filter(|n| n.ends_with(suffix))
        .collect()
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
}

fn main() {
    let opts = parse_args();
    let mut significant = 0usize;
    let mut compared = 0usize;

    for suffix in ["_epochs.csv", "_attrib.csv"] {
        let in_a = artifacts(&opts.dir_a, suffix);
        let in_b = artifacts(&opts.dir_b, suffix);
        // Pair by identical name; when the prefixes differ (e.g. two
        // schemes of the same cell) but each side holds exactly one
        // artifact of this kind, pair those.
        let pairs: Vec<(String, String)> =
            if in_a.is_disjoint(&in_b) && in_a.len() == 1 && in_b.len() == 1 {
                vec![(
                    in_a.iter().next().unwrap().clone(),
                    in_b.iter().next().unwrap().clone(),
                )]
            } else {
                for only in in_a.symmetric_difference(&in_b) {
                    println!(
                        "~ {only}: only in {}",
                        if in_a.contains(only) { "A" } else { "B" }
                    );
                }
                in_a.intersection(&in_b)
                    .map(|n| (n.clone(), n.clone()))
                    .collect()
            };
        for (name_a, name_b) in pairs {
            compared += 1;
            let label = if name_a == name_b {
                name_a.clone()
            } else {
                format!("{name_a} vs {name_b}")
            };
            let a = read(&opts.dir_a.join(&name_a));
            let b = read(&opts.dir_b.join(&name_b));
            if suffix == "_epochs.csv" {
                significant += diff_epochs(&label, &a, &b, &opts);
            } else {
                significant += diff_attrib(&label, &a, &b, &opts);
            }
        }
    }

    println!(
        "tldiff: {compared} file pair(s) compared, {significant} significant difference(s) \
         (t >= {}, rel > {:.0}%)",
        opts.t_threshold,
        100.0 * opts.rel_threshold
    );
    if opts.fail_on_diff && significant > 0 {
        exit(1);
    }
}

fn diff_epochs(name: &str, a: &str, b: &str, opts: &Options) -> usize {
    let Some(cols) = diff_epoch_csv(a, b, opts.t_threshold) else {
        println!("~ {name}: unparseable epoch CSV, skipped");
        return 0;
    };
    let mut n = 0;
    for c in &cols {
        if c.significant || opts.show_all {
            println!(
                "{} {name}: {:<24} {:>12.4} -> {:>12.4}  ({:+.1}%, t={:.2}, n={}/{})",
                if c.significant { "!" } else { " " },
                c.name,
                c.mean_a,
                c.mean_b,
                c.pct_change(),
                c.t_stat,
                c.n_a,
                c.n_b,
            );
        }
        n += c.significant as usize;
    }
    n
}

fn diff_attrib(name: &str, a: &str, b: &str, opts: &Options) -> usize {
    let Some(cells) = diff_attrib_csv(a, b, opts.rel_threshold) else {
        println!("~ {name}: unparseable attribution CSV, skipped");
        return 0;
    };
    for c in &cells {
        println!(
            "! {name}: [{}] {:<24} {:>12.0} -> {:>12.0}  ({:+.1}%)",
            c.key,
            c.column,
            c.a,
            c.b,
            100.0 * (c.b - c.a) / if c.a == 0.0 { 1.0 } else { c.a },
        );
    }
    cells.len()
}
