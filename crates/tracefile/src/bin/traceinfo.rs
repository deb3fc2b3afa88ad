//! Inspect and validate a `.ctf` trace file.
//!
//! ```text
//! traceinfo PATH... [--intervals] [--intervals-csv PATH] [--verify] [--cross-check]
//! ```
//!
//! Checks every PATH in order. By default prints each file's footer
//! manifest (quota, generator spec, content hash, per-core
//! streams, compression rate) plus an interval summary. `--intervals`
//! prints every per-interval stat row, `--intervals-csv` writes them to
//! a CSV file (the clustering input; it takes a single PATH),
//! `--verify` fully decodes all streams and recomputes the content
//! hash, and `--cross-check` re-runs the generator named in the
//! manifest's spec and compares record-by-record. Exits 1 if any file
//! fails to open or any check fails, with a descriptive message.

use std::path::{Path, PathBuf};
use std::process::exit;

use chrome_exec::cli::Args;
use chrome_tracefile::recorder::build_workload_sources;
use chrome_tracefile::{TraceFile, TraceFileError};

struct Options {
    paths: Vec<PathBuf>,
    intervals: bool,
    intervals_csv: Option<PathBuf>,
    verify: bool,
    cross_check: bool,
}

fn parse_args() -> Options {
    let mut args =
        Args::new("PATH... [--intervals] [--intervals-csv PATH] [--verify] [--cross-check]");
    let mut opts = Options {
        paths: Vec::new(),
        intervals: false,
        intervals_csv: None,
        verify: false,
        cross_check: false,
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--intervals" => opts.intervals = true,
            "--intervals-csv" => opts.intervals_csv = Some(args.value(&arg).into()),
            "--verify" => opts.verify = true,
            "--cross-check" => opts.cross_check = true,
            path if !path.starts_with("--") => opts.paths.push(path.into()),
            flag => args.unknown(flag),
        }
    }
    if opts.paths.is_empty() {
        args.bad("no trace file given");
    }
    if opts.intervals_csv.is_some() && opts.paths.len() > 1 {
        args.bad("--intervals-csv takes a single PATH");
    }
    opts
}

/// Render every core's interval stats as one CSV table (the clustering
/// input, inspectable without the `simpoint` bin).
fn intervals_csv(tf: &TraceFile, out: &PathBuf) -> Result<(), TraceFileError> {
    use std::io::Write;
    let mut f = std::io::BufWriter::new(std::fs::File::create(out)?);
    writeln!(
        f,
        "core,interval,instructions,records,loads,stores,dep_loads,distinct_lines,min_line,max_line"
    )?;
    for (i, core) in tf.manifest().cores.iter().enumerate() {
        for (j, iv) in core.intervals.iter().enumerate() {
            writeln!(
                f,
                "{i},{j},{},{},{},{},{},{},{},{}",
                iv.instructions,
                iv.records,
                iv.loads,
                iv.stores,
                iv.dep_loads,
                iv.distinct_lines,
                iv.min_line,
                iv.max_line
            )?;
        }
    }
    f.flush()?;
    Ok(())
}

fn main() {
    let opts = parse_args();
    let mut failed = false;
    for path in &opts.paths {
        failed |= !report(path, &opts);
    }
    if failed {
        exit(1);
    }
}

/// Print one file's report and run the checks `opts` asks for; false
/// if the file fails to open or any check fails.
fn report(path: &Path, opts: &Options) -> bool {
    let tf = match TraceFile::open(path) {
        Ok(tf) => tf,
        Err(e) => {
            eprintln!("traceinfo: {}: {e}", path.display());
            return false;
        }
    };
    let m = tf.manifest();
    println!("{}", path.display());
    println!(
        "  version=1 cores={} quota={} interval={}",
        m.cores.len(),
        m.quota,
        m.interval_instr
    );
    println!("  spec: {}", if m.spec.is_empty() { "-" } else { &m.spec });
    println!("  content_hash: {}", m.hash_hex());
    println!(
        "  totals: records={} instructions={} stream_bytes={} bytes/instr={:.3}",
        m.total_records(),
        m.total_instructions(),
        m.total_stream_bytes(),
        m.bytes_per_instruction()
    );
    for (i, c) in m.cores.iter().enumerate() {
        println!(
            "  core {i}: {:<16} records={:<9} instructions={:<9} bytes={:<9} intervals={}",
            c.name,
            c.records,
            c.instructions,
            c.stream_len,
            c.intervals.len()
        );
        if opts.intervals {
            for (j, iv) in c.intervals.iter().enumerate() {
                println!(
                    "    [{j:>3}] instr={:<7} rec={:<6} ld={:<6} st={:<6} dep={:<6} \
                     lines={:<6} span={:#x}..{:#x}",
                    iv.instructions,
                    iv.records,
                    iv.loads,
                    iv.stores,
                    iv.dep_loads,
                    iv.distinct_lines,
                    iv.min_line << 6,
                    (iv.max_line + 1) << 6,
                );
            }
        }
    }
    if m.cores.len() > 1 {
        // Instruction-count skew across cores: multi-core sims run until
        // the slowest core's budget is met, so a skewed trace leaves the
        // lighter cores replaying past their recorded window.
        let counts: Vec<u64> = m.cores.iter().map(|c| c.instructions).collect();
        let (min, max) = (
            *counts.iter().min().unwrap_or(&0),
            *counts.iter().max().unwrap_or(&0),
        );
        let mean = counts.iter().sum::<u64>() as f64 / counts.len() as f64;
        let lightest = counts.iter().position(|&c| c == min).unwrap_or(0);
        let heaviest = counts.iter().position(|&c| c == max).unwrap_or(0);
        let skew = if mean > 0.0 {
            100.0 * (max - min) as f64 / mean
        } else {
            0.0
        };
        println!(
            "  skew: instructions min={min} (core {lightest}) max={max} (core {heaviest}) \
             mean={mean:.0} spread={skew:.2}% of mean"
        );
    }

    let mut failed = false;
    if let Some(csv) = &opts.intervals_csv {
        match intervals_csv(&tf, csv) {
            Ok(()) => println!("  intervals-csv: wrote {}", csv.display()),
            Err(e) => {
                eprintln!("  intervals-csv: FAILED: {e}");
                failed = true;
            }
        }
    }
    if opts.verify {
        match tf.verify() {
            Ok(()) => println!("  verify: ok (streams decode, counts and hash match)"),
            Err(e) => {
                eprintln!("  verify: FAILED: {e}");
                failed = true;
            }
        }
    }
    if opts.cross_check {
        match cross_check(&tf) {
            Ok(n) => println!("  cross-check: ok ({n} records match a fresh generator run)"),
            Err(e) => {
                eprintln!("  cross-check: FAILED: {e}");
                failed = true;
            }
        }
    }
    !failed
}

/// Re-run the generator identified by the manifest spec and compare
/// record-by-record against each decoded stream.
fn cross_check(tf: &TraceFile) -> Result<u64, TraceFileError> {
    let m = tf.manifest();
    let workload = m
        .spec_field("workload")
        .ok_or_else(|| TraceFileError::Corrupt("manifest spec has no workload identity".into()))?
        .to_string();
    let cores: usize = m
        .spec_field("cores")
        .and_then(|c| c.parse().ok())
        .ok_or_else(|| TraceFileError::Corrupt("manifest spec has no core count".into()))?;
    let seed: u64 = m
        .spec_field("seed")
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| TraceFileError::Corrupt("manifest spec has no seed".into()))?;
    let mut sources = build_workload_sources(&workload, cores, seed)?;
    let mut total = 0u64;
    for (i, src) in sources.iter_mut().enumerate() {
        let decoded = tf.decode_core(i)?;
        for (j, rec) in decoded.iter().enumerate() {
            let mut live = src.next_record();
            if j == 0 {
                live.dep_prev = false; // recorder canonicalizes the leading dep
            }
            if *rec != live {
                return Err(TraceFileError::Corrupt(format!(
                    "core {i} record {j} diverges from generator: file {rec:?}, live {live:?}"
                )));
            }
            total += 1;
        }
    }
    Ok(total)
}
