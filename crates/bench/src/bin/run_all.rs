//! The experiment runner: `run_all [NAME...] [flags]` regenerates the
//! named figures and tables, or with no name the full reproduction.
//!
//! Each NAME is an experiment of the registry
//! (`chrome_bench::experiments::EXPERIMENTS`), named after its primary
//! TSV; the usage line lists them all. The selected plans run as one
//! grid, each once, in registry order (`--jobs N`, default: available
//! parallelism) with per-cell fault isolation and a checkpoint manifest
//! (`results/manifest.jsonl`; rerun with `--resume` to skip completed
//! cells). Tables are assembled
//! per-experiment from the grid outcomes once it drains. Tables III and
//! IV have no cells: naming only them never opens the manifest.
//!
//! A failed cell does not abort the run: remaining cells still run,
//! its table entries surface as NaN, the failure summary lists it, and
//! the exit status is non-zero only when a cell failed. `--resume`
//! runs the failed cells again.
//!
//! Pass `--quick` for a reduced instruction budget, and
//! `--homo-workloads N` / `--mixes N` to cap the grid for smoke runs.
//! `--trace-dir DIR` replays every cell whose workload identity matches
//! a recorded `.ctf` trace in DIR from that file. Every cell runs in
//! full: sampled cells come only from `simpoint validate`, which
//! measures their error against the full run. An unknown name or flag,
//! a malformed value, or a `--trace-dir` that is not a directory exits
//! 2 with the reason and the usage before any cell runs.

use chrome_bench::experiments::{plans, EXPERIMENTS};
use chrome_bench::{run_plans, RunParams};
use chrome_exec::cli::Args;

fn main() {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
    let mut args = Args::new(&format!(
        "[NAME...] [--cores N] [--instructions N] [--warmup N] [--seed N]\n\
         \x20      [--quick] [--full] [--jobs N] [--resume]\n\
         \x20      [--manifest PATH] [--trace-dir DIR] [--mixes N] [--homo-workloads N]\n\
         \x20      [--noc slices=..,hop=..,..] [--telemetry-out DIR]\n\
         NAME is one of: {}",
        names.join(" ")
    ));
    let mut params = RunParams::default();
    let mut selected = Vec::new();
    while let Some(arg) = args.next() {
        if params.flag(&arg, &mut args) {
            continue;
        }
        if arg.starts_with("--") {
            args.unknown(&arg);
        }
        match names.iter().find(|n| **n == arg) {
            Some(name) => selected.push(*name),
            None => args.bad(&format!("unknown experiment {arg}")),
        }
    }
    if let Some(dir) = params.trace_dir.as_deref().filter(|d| !d.is_dir()) {
        args.bad(&format!("--trace-dir {}: no such directory", dir.display()));
    }
    let code = run_plans(&params, plans(&params, &selected));
    if code == 0 {
        println!("\nAll experiments complete; tables in results/*.tsv");
    } else {
        eprintln!("\nSome cells failed; see summary above. --resume runs them again.");
    }
    std::process::exit(code);
}
