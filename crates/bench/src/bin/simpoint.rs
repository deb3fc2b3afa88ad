//! Representative-interval sampling toolkit.
//!
//! ```text
//! simpoint cluster  --trace FILE --sampling k=<k>,ramp=<n> [--base-seed N]
//! simpoint inspect  --trace FILE [--csv PATH]
//! simpoint validate --trace-dir DIR [--sampling SPEC] [--scheme NAME]
//!                   [--workloads N] [--cores N] [--instructions N]
//!                   [--warmup N] [--interval N] [--base-seed N] [--jobs N]
//!                   [--record-missing] [--out-table PATH] [--manifest PATH]
//!                   [--resume] [--ipc-tol PCT] [--mpki-tol PCT]
//!                   [--min-reduction X] [--check-kernels] [--no-progress]
//! ```
//!
//! * `cluster` — build and print the deterministic sampling plan for one
//!   trace: representative intervals, cluster weights, per-core start
//!   positions and the detail-reduction factor.
//! * `inspect` — dump the per-interval feature matrix (raw and
//!   normalized) the clustering runs on.
//! * `validate` — run full and sampled simulations for every registered
//!   workload against recorded traces, emit the sampled-vs-full error
//!   table (`results/sampling_validation.tsv` and `--out-table`), and
//!   gate: IPC and MPKI within the tolerances on EVERY workload while
//!   simulating at least `--min-reduction` times fewer detailed
//!   instructions. `--check-kernels` additionally runs each sampled
//!   cell through the grid's own sampled-cell function
//!   (`chrome_bench::sampled_cell`: plan, replay, functional profile,
//!   reconstruction) once per kernel and requires identical results.
//!
//! Exit codes: 0 pass, 1 gate/validation failure, 2 usage error.

use std::path::PathBuf;
use std::process::exit;

use chrome_bench::experiments::sampling;
use chrome_bench::grid::{resolve_traces, run_grid, sampled_cell};
use chrome_bench::RunParams;
use chrome_exec::cli::Args;
use chrome_exec::workload_seed;
use chrome_sim::Kernel;
use chrome_simpoint::features::DIM_NAMES;
use chrome_simpoint::{build_plan, extract_features, ErrorRow, SamplingSpec};
use chrome_tracefile::recorder::record_workload;
use chrome_tracefile::{Codec, TraceFile, TraceIndex};

const USAGE: &str = "cluster --trace FILE --sampling k=<k>,ramp=<n> [--base-seed N]\n\
     \x20      simpoint inspect --trace FILE [--csv PATH]\n\
     \x20      simpoint validate --trace-dir DIR [--sampling SPEC] [--scheme NAME]\n\
     \x20               [--workloads N] [--cores N] [--instructions N] [--warmup N]\n\
     \x20               [--interval N] [--base-seed N] [--jobs N] [--record-missing]\n\
     \x20               [--out-table PATH] [--manifest PATH] [--resume]\n\
     \x20               [--ipc-tol PCT] [--mpki-tol PCT] [--min-reduction X]\n\
     \x20               [--check-kernels] [--no-progress]";

struct Options {
    command: String,
    trace: Option<PathBuf>,
    trace_dir: Option<PathBuf>,
    sampling: String,
    scheme: String,
    workloads: Option<usize>,
    cores: usize,
    instructions: u64,
    warmup: u64,
    interval: u64,
    base_seed: u64,
    jobs: Option<usize>,
    record_missing: bool,
    out_table: Option<PathBuf>,
    csv: Option<PathBuf>,
    manifest: Option<PathBuf>,
    resume: bool,
    ipc_tol: f64,
    mpki_tol: f64,
    min_reduction: f64,
    check_kernels: bool,
    progress: bool,
}

fn parse_args() -> Options {
    let mut args = Args::new(USAGE);
    let command = args
        .next()
        .unwrap_or_else(|| args.bad("missing subcommand"));
    if !["cluster", "inspect", "validate"].contains(&command.as_str()) {
        args.bad(&format!("unknown subcommand {command:?}"));
    }
    let mut opts = Options {
        command,
        trace: None,
        trace_dir: None,
        // the operating point for traces recorded at 5000-instruction
        // intervals: it balances per-segment warmup-handoff bias against
        // cluster-selection variance at that granularity
        sampling: "k=26,ramp=2200,reps=3".to_string(),
        // the gate validates the sampling estimator itself, so it runs
        // the static LRU policy. Online-learning schemes (CHROME) are
        // path-dependent: sampled replay compresses the reward timeline
        // ~10x, the agent's learning trajectory diverges from the full
        // run's, and the gap is policy-state error the reconstruction
        // cannot (and should not) hide. See EXPERIMENTS.md.
        scheme: "LRU".to_string(),
        workloads: None,
        cores: 1,
        instructions: 6_000_000,
        warmup: 60_000,
        interval: 5_000,
        base_seed: 0x5EED,
        jobs: None,
        record_missing: false,
        out_table: None,
        csv: None,
        manifest: None,
        resume: false,
        ipc_tol: 3.0,
        mpki_tol: 3.0,
        min_reduction: 10.0,
        check_kernels: false,
        progress: true,
    };
    while let Some(flag) = args.next() {
        let flag = flag.as_str();
        match flag {
            "--trace" => opts.trace = Some(args.value(flag).into()),
            "--trace-dir" => opts.trace_dir = Some(args.value(flag).into()),
            "--sampling" => opts.sampling = args.value(flag),
            "--scheme" => opts.scheme = args.value(flag),
            "--workloads" => opts.workloads = Some(args.number(flag)),
            "--cores" => opts.cores = args.number(flag),
            "--instructions" => opts.instructions = args.number(flag),
            "--warmup" => opts.warmup = args.number(flag),
            "--interval" => opts.interval = args.number(flag),
            "--base-seed" => opts.base_seed = args.number(flag),
            "--jobs" => opts.jobs = Some(args.number(flag)),
            "--record-missing" => opts.record_missing = true,
            "--out-table" => opts.out_table = Some(args.value(flag).into()),
            "--csv" => opts.csv = Some(args.value(flag).into()),
            "--manifest" => opts.manifest = Some(args.value(flag).into()),
            "--resume" => opts.resume = true,
            "--ipc-tol" => opts.ipc_tol = args.number(flag),
            "--mpki-tol" => opts.mpki_tol = args.number(flag),
            "--min-reduction" => opts.min_reduction = args.number(flag),
            "--check-kernels" => opts.check_kernels = true,
            "--no-progress" => opts.progress = false,
            _ => args.unknown(flag),
        }
    }
    let needs = match opts.command.as_str() {
        "validate" if opts.trace_dir.is_none() => "--trace-dir DIR",
        "cluster" | "inspect" if opts.trace.is_none() => "--trace FILE",
        _ => "",
    };
    if !needs.is_empty() {
        args.bad(&format!("{} needs {needs}", opts.command));
    }
    if let Err(e) = SamplingSpec::parse(&opts.sampling) {
        args.bad(&format!("--sampling: {e}"));
    }
    // --record-missing creates the directory; otherwise it must exist
    if let Some(dir) = opts.trace_dir.as_deref() {
        if opts.command == "validate" && !opts.record_missing && !dir.is_dir() {
            args.bad(&format!("--trace-dir {}: no such directory", dir.display()));
        }
    }
    opts
}

fn spec_of(opts: &Options) -> SamplingSpec {
    SamplingSpec::parse(&opts.sampling).expect("checked while parsing")
}

/// `cluster`: print the deterministic sampling plan for one trace.
fn cluster(opts: &Options) -> i32 {
    let path = opts.trace.clone().expect("checked while parsing");
    let spec = spec_of(opts);
    let tf = TraceFile::open(&path).unwrap_or_else(|e| {
        eprintln!("opening {}: {e}", path.display());
        exit(1);
    });
    let m = tf.manifest();
    // cluster with the trace's own generator seed, exactly as grid
    // cells do (their workload seed IS the generator seed)
    let seed = m
        .spec_field("seed")
        .and_then(|s| s.parse::<u64>().ok())
        .unwrap_or(opts.base_seed);
    let plan = match build_plan(&tf, spec, seed) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("building plan: {e}");
            return 1;
        }
    };
    println!(
        "trace: {} ({} cores, {} instructions/core, interval {})",
        path.display(),
        m.cores.len(),
        m.cores.first().map_or(0, |c| c.instructions),
        m.interval_instr,
    );
    println!(
        "plan: {} segments over {} aligned instructions, seed {seed:#x}",
        plan.segments.len(),
        plan.total_instructions,
    );
    println!("interval  weight    detail  starts");
    for seg in &plan.segments {
        let starts: Vec<String> = seg.start.iter().map(u64::to_string).collect();
        println!(
            "{:>8}  {:.6}  {:>8}  {}",
            seg.interval,
            seg.weight,
            seg.detail,
            starts.join(",")
        );
    }
    println!(
        "detailed instructions/core: {} (ramp {} per segment)",
        plan.detailed_instructions, plan.spec.ramp,
    );
    0
}

/// `inspect`: dump the per-interval feature matrix.
fn inspect(opts: &Options) -> i32 {
    let path = opts.trace.clone().expect("checked while parsing");
    let tf = TraceFile::open(&path).unwrap_or_else(|e| {
        eprintln!("opening {}: {e}", path.display());
        exit(1);
    });
    let cores = tf.manifest().cores.len();
    let mut per_core = Vec::with_capacity(cores);
    for c in 0..cores {
        match tf.intervals_for(c) {
            Ok(iv) => per_core.push(iv),
            Err(e) => {
                eprintln!("intervals for core {c}: {e}");
                return 1;
            }
        }
    }
    let fs = extract_features(&per_core);
    let mut out = String::from("interval,instructions");
    for n in DIM_NAMES {
        out.push_str(&format!(",{n}"));
    }
    for n in DIM_NAMES {
        out.push_str(&format!(",norm_{n}"));
    }
    out.push('\n');
    for j in 0..fs.len() {
        out.push_str(&format!("{j},{}", fs.instructions[j]));
        for v in fs.raw[j] {
            out.push_str(&format!(",{v}"));
        }
        for v in fs.norm[j] {
            out.push_str(&format!(",{v}"));
        }
        out.push('\n');
    }
    match &opts.csv {
        Some(p) => {
            if let Err(e) = std::fs::write(p, &out) {
                eprintln!("writing {}: {e}", p.display());
                return 1;
            }
            println!("inspect: wrote {} intervals to {}", fs.len(), p.display());
        }
        None => print!("{out}"),
    }
    0
}

/// Record any missing validation traces into `dir`.
fn record_missing(opts: &Options, dir: &std::path::Path, workloads: &[String]) {
    let index = TraceIndex::scan(dir).unwrap_or_else(|e| {
        eprintln!("scanning {}: {e}", dir.display());
        exit(1);
    });
    // quota past the measured end: fetch cursors lead retirement by the
    // ROB contents, so the recording must cover the runahead too
    let quota = opts.warmup + opts.instructions + 50_000;
    for wl in workloads {
        let seed = workload_seed(wl, opts.cores as u32, opts.base_seed);
        if index.lookup(wl, opts.cores, seed).is_some() {
            continue;
        }
        let name = format!("{}_c{}_s{seed:x}.ctf", wl.replace('+', "-"), opts.cores);
        let path = dir.join(name);
        eprintln!("recording {} ({} instructions/core)", path.display(), quota);
        record_workload(
            &path,
            wl,
            opts.cores,
            seed,
            quota,
            Codec::Compact,
            opts.interval,
        )
        .unwrap_or_else(|e| {
            eprintln!("recording {wl}: {e}");
            exit(1);
        });
    }
}

/// Rerun every sampled cell of the validation grid on both kernels and
/// demand identical results. The cells are the grid's own
/// (`sampling::cells`), resolved against the trace directory as the
/// grid resolves them, and each kernel's run is the grid's sampled-cell
/// function, plan and all.
fn check_kernels(params: &RunParams, opts: &Options, workloads: &[String]) -> usize {
    let dir = params
        .trace_dir
        .as_deref()
        .expect("validate sets --trace-dir");
    let mut cells = sampling::cells(params, workloads, &opts.scheme, &opts.sampling);
    let traces = resolve_traces(&mut cells, dir);
    let mut mismatches = 0;
    // each workload's pair of cells is [full, sampled]
    for cell in cells.iter().skip(1).step_by(2) {
        let wl = &cell.workload;
        if cell.trace.is_empty() {
            eprintln!("kernel check: no trace for {wl}, skipping");
            mismatches += 1;
            continue;
        }
        let event = sampled_cell(cell, None, Some(&traces), Kernel::EventDriven);
        let reference = sampled_cell(cell, None, Some(&traces), Kernel::Reference);
        if event == reference {
            eprintln!("kernel check: {wl} identical");
        } else {
            eprintln!("kernel check: {wl} DIVERGED between kernels");
            mismatches += 1;
        }
    }
    mismatches
}

/// `validate`: full-vs-sampled error table with a hard gate.
fn validate(opts: &Options) -> i32 {
    let dir = opts.trace_dir.clone().expect("checked while parsing");
    let params = RunParams {
        cores: opts.cores,
        instructions: opts.instructions,
        warmup: opts.warmup,
        seed: opts.base_seed,
        jobs: opts.jobs,
        resume: opts.resume,
        manifest: opts.manifest.clone(),
        trace_dir: Some(dir.clone()),
        homo_workloads: opts.workloads,
        progress: opts.progress,
        // cells carry their own sampling spec; the global axis would
        // sample the full-reference cells too
        sampling: None,
        ..RunParams::default()
    };
    let workloads = sampling::workloads(&params);
    if opts.record_missing {
        std::fs::create_dir_all(&dir).unwrap_or_else(|e| {
            eprintln!("creating {}: {e}", dir.display());
            exit(1);
        });
        record_missing(opts, &dir, &workloads);
    }
    let cells = sampling::cells(&params, &workloads, &opts.scheme, &opts.sampling);
    let report = run_grid(&params, cells);
    let rows = sampling::error_rows(&workloads, &report.outcomes);
    sampling::table(&rows).finish().unwrap_or_else(|e| {
        eprintln!("writing results table: {e}");
        exit(1);
    });
    if let Some(path) = &opts.out_table {
        let mut tsv = ErrorRow::header();
        tsv.push('\n');
        for r in &rows {
            tsv.push_str(&r.render());
            tsv.push('\n');
        }
        if let Err(e) = std::fs::write(path, tsv) {
            eprintln!("writing {}: {e}", path.display());
            return 1;
        }
        eprintln!("validate: wrote {}", path.display());
    }

    let mut failures = 0usize;
    if rows.len() != workloads.len() {
        eprintln!(
            "validate: only {} of {} workloads produced paired results",
            rows.len(),
            workloads.len()
        );
        failures += workloads.len() - rows.len();
    }
    for r in &rows {
        let mut bad = Vec::new();
        if r.ipc_err_pct() > opts.ipc_tol {
            bad.push(format!(
                "ipc err {:.2}% > {:.2}%",
                r.ipc_err_pct(),
                opts.ipc_tol
            ));
        }
        if r.mpki_err_pct() > opts.mpki_tol {
            bad.push(format!(
                "mpki err {:.2}% > {:.2}%",
                r.mpki_err_pct(),
                opts.mpki_tol
            ));
        }
        if r.reduction < opts.min_reduction {
            bad.push(format!(
                "reduction {:.1}x < {:.1}x",
                r.reduction, opts.min_reduction
            ));
        }
        if !bad.is_empty() {
            eprintln!("validate: {} FAILED: {}", r.workload, bad.join(", "));
            failures += 1;
        }
    }
    if opts.check_kernels {
        failures += check_kernels(&params, opts, &workloads);
    }
    if failures == 0 {
        eprintln!(
            "validate: PASS — {} workloads within ±{:.1}% IPC / ±{:.1}% MPKI at ≥{:.1}x reduction",
            rows.len(),
            opts.ipc_tol,
            opts.mpki_tol,
            opts.min_reduction
        );
        0
    } else {
        eprintln!("validate: FAIL — {failures} check(s) failed");
        1
    }
}

fn main() {
    let opts = parse_args();
    let code = match opts.command.as_str() {
        "cluster" => cluster(&opts),
        "inspect" => inspect(&opts),
        _ => validate(&opts),
    };
    exit(code);
}
