//! Record a registered workload (or `+`-joined mix) to a `.ctf` trace.
//!
//! ```text
//! tracegen --workload NAME [--cores N] [--seed N | --base-seed N]
//!          [--instructions N] (--out FILE | --out-dir DIR) [--interval N]
//! ```
//!
//! `--seed` is the raw generator seed. `--base-seed` instead takes a
//! grid base seed (the experiments' `--seed`, default `0x5EED`) and
//! derives the generator seed exactly as grid cells do
//! ([`chrome_exec::workload_seed`]) — use it to record traces that
//! `--trace-dir` grid runs will resolve.
//!
//! With `--out-dir` the file is named `<workload>_c<cores>_s<seed>.ctf`
//! (with `+` mapped to `-`). The identity stored in the manifest is what
//! the grid resolves against, not the file name.

use std::path::PathBuf;
use std::process::exit;

use chrome_exec::cli::Args;
use chrome_tracefile::recorder::{record_workload, DEFAULT_INTERVAL_INSTR};

struct Options {
    workload: String,
    cores: usize,
    seed: u64,
    instructions: u64,
    /// The file to write: `--out`, or its name under `--out-dir`.
    path: PathBuf,
    interval: u64,
}

/// Parse the command line. An unknown flag, a missing or malformed
/// value, an unknown workload, or anything but exactly one of
/// `--out` and `--out-dir` is a usage error.
fn parse_args() -> Options {
    let mut args = Args::new(
        "--workload NAME [--cores N] [--seed N | --base-seed N] [--instructions N]\n\
         \x20      (--out FILE | --out-dir DIR) [--interval N]",
    );
    let mut workload = String::new();
    let (mut cores, mut seed, mut base_seed) = (1, 0x5EED, None);
    let (mut out, mut out_dir): (Option<PathBuf>, Option<PathBuf>) = (None, None);
    let mut instructions = 200_000;
    let mut interval = DEFAULT_INTERVAL_INSTR;
    while let Some(flag) = args.next() {
        let flag = flag.as_str();
        match flag {
            "--workload" => {
                workload = args.value(flag);
                let all = chrome_traces::all_workloads();
                if let Some(w) = workload.split('+').find(|w| !all.contains(w)) {
                    args.bad(&format!("unknown workload {w}"));
                }
            }
            "--cores" => cores = args.number(flag),
            "--seed" => seed = args.number(flag),
            "--base-seed" => base_seed = Some(args.number(flag)),
            "--instructions" => instructions = args.number(flag),
            "--out" => out = Some(args.value(flag).into()),
            "--out-dir" => out_dir = Some(args.value(flag).into()),
            "--interval" => interval = args.number(flag),
            _ => args.unknown(flag),
        }
    }
    if workload.is_empty() {
        args.bad("--workload is required");
    }
    // a `+`-joined mix names one workload per core
    if workload.contains('+') {
        cores = workload.split('+').count();
    }
    if let Some(base) = base_seed {
        seed = chrome_exec::workload_seed(&workload, cores as u32, base);
    }
    let path = match (out, out_dir) {
        (Some(f), None) => f,
        (None, Some(d)) => {
            std::fs::create_dir_all(&d).unwrap_or_else(|e| panic!("creating {}: {e}", d.display()));
            d.join(format!(
                "{}_c{cores}_s{seed}.ctf",
                workload.replace('+', "-")
            ))
        }
        _ => args.bad("give exactly one of --out FILE and --out-dir DIR"),
    };
    Options {
        workload,
        cores,
        seed,
        instructions,
        path,
        interval,
    }
}

fn main() {
    let opts = parse_args();
    let path = &opts.path;
    match record_workload(
        path,
        &opts.workload,
        opts.cores,
        opts.seed,
        opts.instructions,
        opts.interval,
    ) {
        Ok(m) => {
            println!("recorded {} -> {}", opts.workload, path.display());
            println!(
                "  cores={} quota={} records={} instructions={} \
                 stream_bytes={} bytes/instr={:.3} hash={}",
                m.cores.len(),
                m.quota,
                m.total_records(),
                m.total_instructions(),
                m.total_stream_bytes(),
                m.bytes_per_instruction(),
                m.hash_hex(),
            );
        }
        Err(e) => {
            eprintln!("tracegen: {e}");
            exit(1);
        }
    }
}
