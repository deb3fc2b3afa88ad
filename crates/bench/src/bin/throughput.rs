//! Simulator-throughput matrix benchmark: wall-clock cost of the paper
//! grid's inner loop across workloads, core counts and schemes.
//!
//! Each cell of the matrix (workload x cores x scheme) is timed under
//! the event-driven kernel with best-of-N repetitions — the minimum
//! elapsed time over `--reps` runs — because the benchmark box is a
//! shared machine whose per-run noise is one-sided (interference only
//! ever makes a run slower). Warmup instructions run *untimed* before
//! the measured region, so small cells are not dominated by cache/page
//! ramp-up. One reference-kernel run per cell provides the
//! event-vs-reference speedup; the differential tests guarantee both
//! kernels produce identical results, so the ratio is a pure
//! scheduling-overhead measurement. Every cell is a grid `CellSpec`
//! built by `chrome_bench::cell_system`, so it times the machine and
//! the trace instances a grid cell of that workload, core count and
//! `--seed` simulates; NoC rows run the `scaling_sweep` mesh.
//!
//! ```text
//! throughput [--workloads A,B,...] [--core-counts 1,4,16]
//!            [--noc-core-counts 16,64] [--schemes A,B,...] [--reps N]
//!            [--out FILE] [--baseline FILE] [--merge-baseline FILE]
//!            [--instructions N] [--warmup N] [--seed N] [--quick] [--full]
//! ```
//!
//! The per-core budget defaults to 400K measured and 80K warmup
//! instructions; `--quick` divides and `--full` multiplies the budget
//! set so far by 10. With `--out FILE` a machine-readable summary is
//! written (the checked-in `BENCH_sim_throughput.json` is one of
//! these). With `--baseline FILE` the run exits non-zero if any matrix
//! cell's MIPS fell more than 10% below the same cell in the baseline,
//! or if the aggregate did — the CI perf-smoke regression gate.
//! Baseline cells with no counterpart in the current run (and vice
//! versa) are skipped, so the gate tolerates matrix reshapes.
//! `--merge-baseline FILE` folds this run into FILE (see
//! `merge_baseline`), creating it if missing. Unknown workloads or
//! schemes and a baseline that cannot be read or parsed are usage
//! errors, found before any cell runs.

use std::time::Instant;

use chrome_bench::experiments::{cell, scaling::noc_spec};
use chrome_bench::{build_any_slot, cell_system, RunParams};
use chrome_exec::cli::Args;
use chrome_exec::{json, CellSpec};
use chrome_sim::Kernel;

/// Per-cell and aggregate MIPS floor vs the checked-in baseline: fail
/// on a >10% drop (CI gate). Best-of-N timing keeps the noise inside
/// this band on the shared benchmark box.
const MIPS_REGRESSION_FLOOR: f64 = 0.9;

/// Default measured instructions per core. Small enough that the full
/// 18-cell matrix runs in seconds, large enough that per-cell elapsed
/// time (with warmup untimed) is dominated by the simulation loop.
const DEFAULT_INSTRUCTIONS: u64 = 400_000;
const DEFAULT_WARMUP: u64 = 80_000;

const USAGE: &str = "[--workloads A,B,...] [--core-counts 1,4,16]\n\
     \x20      [--noc-core-counts 16,64] [--schemes A,B,...] [--reps N]\n\
     \x20      [--out FILE] [--baseline FILE] [--merge-baseline FILE]\n\
     \x20      [--instructions N] [--warmup N] [--seed N] [--quick] [--full]";

/// Everything the command line asked for.
struct Cli {
    params: RunParams,
    workloads: Vec<String>,
    core_counts: Vec<usize>,
    noc_core_counts: Vec<usize>,
    schemes: Vec<String>,
    reps: usize,
    out: Option<String>,
    baseline: Option<Baseline>,
    /// The `--merge-baseline` path and the baseline already there.
    merge: Option<(String, Option<Baseline>)>,
}

impl Cli {
    fn from_args() -> Self {
        let mut args = Args::new(USAGE);
        let names = |v: &[&str]| v.iter().map(|s| s.to_string()).collect();
        let mut cli = Cli {
            params: RunParams {
                instructions: DEFAULT_INSTRUCTIONS,
                warmup: DEFAULT_WARMUP,
                ..RunParams::default()
            },
            workloads: names(&["mcf", "libquantum", "bfs-ur"]),
            core_counts: vec![1, 4, 16],
            noc_core_counts: vec![16, 64],
            schemes: names(&["LRU", "CHROME"]),
            reps: 3,
            out: None,
            baseline: None,
            merge: None,
        };
        while let Some(flag) = args.next() {
            let flag = flag.as_str();
            match flag {
                "--workloads" => {
                    let all = chrome_traces::all_workloads();
                    cli.workloads = args.names(flag, "workload", |w| {
                        all.contains(&w).then(|| w.to_string())
                    });
                }
                "--schemes" => {
                    cli.schemes =
                        args.names(flag, "scheme", |s| build_any_slot(s).map(|_| s.to_string()));
                }
                "--core-counts" => cli.core_counts = counts(&mut args, flag),
                "--noc-core-counts" => cli.noc_core_counts = counts(&mut args, flag),
                "--reps" => cli.reps = args.number(flag),
                "--out" => cli.out = Some(args.value(flag)),
                "--baseline" => {
                    let path = args.value(flag);
                    let base = Baseline::load(&path)
                        .unwrap_or_else(|e| args.bad(&format!("--baseline {e}")));
                    cli.baseline = Some(base);
                }
                "--merge-baseline" => {
                    let path = args.value(flag);
                    let base = match std::fs::metadata(&path) {
                        Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
                        _ => Some(
                            Baseline::load(&path)
                                .unwrap_or_else(|e| args.bad(&format!("--merge-baseline {e}"))),
                        ),
                    };
                    cli.merge = Some((path, base));
                }
                "--instructions" | "--warmup" | "--seed" | "--quick" | "--full" => {
                    cli.params.flag(flag, &mut args);
                }
                _ => args.unknown(flag),
            }
        }
        cli
    }
}

#[derive(Clone)]
struct CellTiming {
    workload: String,
    cores: usize,
    scheme: String,
    /// Canonical mesh-NoC spec; empty = uniform-latency LLC. Part of
    /// the cell key (suffix) only when set, so pre-NoC baselines keep
    /// matching their cells.
    noc: String,
    sim_cycles: u64,
    /// Total measured instructions (per-core quota x cores).
    instructions: u64,
    /// Best-of-N event-kernel elapsed seconds.
    event_elapsed: f64,
    /// Single-run reference-kernel elapsed seconds.
    reference_elapsed: f64,
}

impl CellTiming {
    fn mips(&self) -> f64 {
        self.instructions as f64 / self.event_elapsed / 1e6
    }

    fn speedup(&self) -> f64 {
        self.reference_elapsed / self.event_elapsed
    }

    /// Stable identity of a cell across runs (the gate's join key).
    fn key(&self) -> String {
        if self.noc.is_empty() {
            format!("{}/{}c/{}", self.workload, self.cores, self.scheme)
        } else {
            format!("{}/{}c/{}/noc", self.workload, self.cores, self.scheme)
        }
    }
}

/// Run one matrix cell once on `kernel`: untimed warmup, then a timed
/// measured region. Returns (elapsed seconds, measured simulated
/// cycles).
fn run_once(spec: &CellSpec, kernel: Kernel) -> (f64, u64) {
    let mut sys = cell_system(spec, None);
    // Warm caches, TLBs, DRAM rows and policy state outside the timed
    // region (the warmup quota is measured-but-discarded).
    if spec.warmup > 0 {
        sys.run_with_kernel(spec.warmup, 0, kernel);
    }
    let t0 = Instant::now();
    let results = sys.run_with_kernel(spec.instructions, 0, kernel);
    (t0.elapsed().as_secs_f64().max(1e-9), results.total_cycles)
}

/// Time one matrix cell: best-of-`reps` under the event kernel plus one
/// reference-kernel run, with the cycle-count cross-check.
fn time_cell(spec: &CellSpec, reps: usize) -> CellTiming {
    let mut event_elapsed = f64::INFINITY;
    let mut sim_cycles = 0;
    for _ in 0..reps.max(1) {
        let (elapsed, cycles) = run_once(spec, Kernel::EventDriven);
        event_elapsed = event_elapsed.min(elapsed);
        sim_cycles = cycles;
    }
    let (reference_elapsed, ref_cycles) = run_once(spec, Kernel::Reference);
    assert_eq!(
        sim_cycles,
        ref_cycles,
        "kernels must simulate identical cycle counts ({})",
        spec.label()
    );
    CellTiming {
        workload: spec.workload.clone(),
        cores: spec.cores as usize,
        scheme: spec.scheme.clone(),
        noc: spec.noc.clone(),
        sim_cycles,
        instructions: spec.instructions * u64::from(spec.cores),
        event_elapsed,
        reference_elapsed,
    }
}

fn main() {
    let cli = Cli::from_args();
    let (params, reps) = (&cli.params, cli.reps);

    println!(
        "== sim throughput matrix: {} instr/core, warmup {} (untimed), best of {reps}, probe \
         kernel {} ==",
        params.instructions,
        params.warmup,
        chrome_sim::probe::kernel_name()
    );
    println!(
        "{:<24} {:>12} {:>12} {:>10} {:>9}",
        "cell", "Mcycles/s", "MIPS", "event(s)", "speedup"
    );

    let mut cells = Vec::new();
    let mut run = |workload: &str, cores: usize, scheme: &str, noc: String| {
        // a grid cell of this machine, so it replays the grid's traces
        let mut spec = cell(params, "throughput", workload, scheme);
        spec.cores = cores as u32;
        spec.noc = noc;
        let cell = time_cell(&spec, reps);
        println!(
            "{:<24} {:>12.2} {:>12.2} {:>10.3} {:>8.2}x",
            cell.key(),
            cell.sim_cycles as f64 / cell.event_elapsed / 1e6,
            cell.mips(),
            cell.event_elapsed,
            cell.speedup()
        );
        cells.push(cell);
    };
    for workload in &cli.workloads {
        for &cores in &cli.core_counts {
            for scheme in &cli.schemes {
                run(workload, cores, scheme, String::new());
            }
        }
    }
    // Mesh-NoC cells: the sliced-LLC hot path (routing, link queues,
    // per-slice accounting) has its own cost profile, so it gets its own
    // gated rows at the scaling sweep's machine sizes, on the sweep's
    // mesh.
    for &cores in &cli.noc_core_counts {
        for scheme in &cli.schemes {
            run(&cli.workloads[0], cores, scheme, noc_spec(cores));
        }
    }

    let total_instr: u64 = cells.iter().map(|c| c.instructions).sum();
    let total_event: f64 = cells.iter().map(|c| c.event_elapsed).sum();
    let total_ref: f64 = cells.iter().map(|c| c.reference_elapsed).sum();
    let aggregate_mips = total_instr as f64 / total_event / 1e6;
    let aggregate_speedup = total_ref / total_event;
    println!(
        "aggregate: {aggregate_mips:.2} MIPS, event-driven speedup {aggregate_speedup:.2}x over \
         reference"
    );

    if let Some(path) = &cli.out {
        let payload = render_json(params, reps, &cells, aggregate_mips, aggregate_speedup);
        std::fs::write(path, payload).unwrap_or_else(|e| panic!("writing {path}: {e}"));
        println!("wrote {path}");
    }

    if let Some((path, base)) = cli.merge {
        merge_baseline(&path, base, params, reps, &cells);
    }

    if let Some(base) = &cli.baseline {
        let failures = check_baseline(base, params, &cells, aggregate_mips);
        if failures > 0 {
            eprintln!(
                "THROUGHPUT REGRESSION: {failures} gate(s) failed against {}",
                base.path
            );
            std::process::exit(1);
        }
    }
}

/// The comma-separated core counts of `flag`.
fn counts(args: &mut Args, flag: &str) -> Vec<usize> {
    let list = args.list(flag);
    list.iter().map(|c| args.parse(flag, c)).collect()
}

/// A parsed `--baseline` or `--merge-baseline` summary file.
struct Baseline {
    path: String,
    /// The per-core instruction count it was measured at.
    scale: Option<f64>,
    cells: Vec<CellTiming>,
    /// The stored whole-run aggregate.
    aggregate_mips: Option<f64>,
}

impl Baseline {
    /// Read and parse the summary file at `path`.
    fn load(path: &str) -> Result<Self, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let doc = json::parse(&text).ok_or_else(|| format!("{path}: malformed JSON"))?;
        let num = |k: &str| doc.get(k).and_then(json::JsonValue::as_f64);
        Ok(Baseline {
            path: path.to_string(),
            scale: num("instructions_per_core"),
            cells: cells_from_json(&doc).map_err(|e| format!("{path}: {e}"))?,
            aggregate_mips: num("aggregate_mips"),
        })
    }
}

/// Apply the per-cell and aggregate regression gates against a baseline
/// JSON. Returns the number of failed gates (0 = pass).
///
/// MIPS is not scale-invariant: short `--quick` cells are dominated by
/// fixed per-run costs (system construction, first-touch page mapping),
/// so their throughput sits far below the same cell at full scale.
/// Gates therefore only engage when the baseline was measured at the
/// same per-core instruction count as this run; otherwise the
/// comparison is reported as skipped and passes.
fn check_baseline(
    baseline: &Baseline,
    params: &RunParams,
    cells: &[CellTiming],
    aggregate_mips: f64,
) -> u32 {
    let path = &baseline.path;
    let mut failures = 0;

    if baseline.scale != Some(params.instructions as f64) {
        println!(
            "baseline {path} was measured at a different instruction scale ({} vs {} per core); \
             MIPS gates skipped",
            baseline
                .scale
                .map_or_else(|| "unknown".to_string(), |s| format!("{s:.0}")),
            params.instructions
        );
        return 0;
    }

    // Per-cell gates over the intersection of the two matrices, while
    // accumulating both sides' matched totals so the aggregate gate
    // compares the *same* cell set (a reduced smoke matrix against a
    // full-matrix baseline would otherwise compare different mixes of
    // cheap and expensive cells).
    let mut matched = 0usize;
    let mut base_instr = 0u64;
    let mut base_elapsed = 0.0f64;
    let mut cur_instr = 0u64;
    let mut cur_elapsed = 0.0f64;
    for base in &baseline.cells {
        let Some(cur) = cells.iter().find(|c| c.key() == base.key()) else {
            continue; // matrix reshapes are not regressions
        };
        matched += 1;
        base_instr += base.instructions;
        base_elapsed += base.event_elapsed;
        cur_instr += cur.instructions;
        cur_elapsed += cur.event_elapsed;
        let base_mips = base.mips();
        let floor = base_mips * MIPS_REGRESSION_FLOOR;
        let cur_mips = cur.mips();
        let verdict = if cur_mips < floor { "FAIL" } else { "ok" };
        println!(
            "gate {:<24} current {cur_mips:>8.2} MIPS vs baseline {base_mips:>8.2} (floor \
             {floor:>8.2}) {verdict}",
            cur.key()
        );
        if cur_mips < floor {
            failures += 1;
        }
    }

    let (label, base_mips, cur_mips) = if matched > 0 {
        (
            "aggregate (matched)",
            base_instr as f64 / base_elapsed / 1e6,
            cur_instr as f64 / cur_elapsed / 1e6,
        )
    } else {
        // No shared cells (e.g. a schema-1 baseline without a cell
        // array): fall back to the stored whole-run aggregate.
        let Some(stored) = baseline.aggregate_mips else {
            println!("gate aggregate: {path} has no aggregate_mips FAIL");
            return failures + 1;
        };
        ("aggregate", stored, aggregate_mips)
    };
    let floor = base_mips * MIPS_REGRESSION_FLOOR;
    let verdict = if cur_mips < floor { "FAIL" } else { "ok" };
    println!(
        "gate {label:<24} current {cur_mips:>8.2} MIPS vs baseline {base_mips:>8.2} (floor \
         {floor:>8.2}) {verdict}"
    );
    if cur_mips < floor {
        failures += 1;
    }
    failures
}

/// Parse a schema-2 baseline document's cell array back into timings.
fn cells_from_json(doc: &json::JsonValue) -> Result<Vec<CellTiming>, String> {
    let Some(rows) = doc.get("cells").and_then(json::JsonValue::as_arr) else {
        return Ok(Vec::new());
    };
    rows.iter()
        .map(|row| {
            let field = |name: &str| {
                row.get(name)
                    .ok_or_else(|| format!("baseline cell missing {name}"))
            };
            let bad = |name: &str| format!("bad {name}");
            let text = |name: &str| {
                field(name)?
                    .as_str()
                    .map(str::to_string)
                    .ok_or_else(|| bad(name))
            };
            let count = |name: &str| field(name)?.as_u64().ok_or_else(|| bad(name));
            let secs = |name: &str| field(name)?.as_f64().ok_or_else(|| bad(name));
            Ok(CellTiming {
                workload: text("workload")?,
                // Absent in pre-NoC baselines: tolerate, meaning "off".
                noc: row
                    .get("noc")
                    .and_then(json::JsonValue::as_str)
                    .unwrap_or("")
                    .to_string(),
                cores: count("cores")? as usize,
                scheme: text("scheme")?,
                sim_cycles: count("sim_cycles")?,
                instructions: count("instructions")?,
                event_elapsed: secs("event_elapsed_sec")?,
                reference_elapsed: secs("reference_elapsed_sec")?,
            })
        })
        .collect()
}

/// Fold this run into `base`, the baseline read from `path` (`None`
/// when the file did not exist), keeping the *slower* record per cell
/// (and any baseline cells this run did not revisit), then rewrite
/// `path` with recomputed aggregates.
///
/// A drop-gate is only as good as its baseline: one lucky fast run
/// checked in as the yardstick turns every subsequent honest run into a
/// "regression" on a noisy host. Repeated `--merge-baseline` refreshes
/// ratchet the baseline toward the slowest best-of-N observed per cell
/// — the conservative envelope the 10% floor is meant to police. A
/// baseline at a different instruction scale (or missing) is replaced
/// outright.
fn merge_baseline(
    path: &str,
    base: Option<Baseline>,
    params: &RunParams,
    reps: usize,
    cells: &[CellTiming],
) {
    let mut merged: Vec<CellTiming> = match base {
        Some(b) if b.scale == Some(params.instructions as f64) => b.cells,
        Some(_) => {
            println!("baseline {path} is at a different instruction scale; replacing");
            Vec::new()
        }
        None => Vec::new(),
    };
    for cur in cells {
        match merged.iter_mut().find(|b| b.key() == cur.key()) {
            Some(base) if base.mips() <= cur.mips() => {}
            Some(base) => *base = cur.clone(),
            None => merged.push(cur.clone()),
        }
    }
    let total_instr: u64 = merged.iter().map(|c| c.instructions).sum();
    let total_event: f64 = merged.iter().map(|c| c.event_elapsed).sum();
    let total_ref: f64 = merged.iter().map(|c| c.reference_elapsed).sum();
    let aggregate_mips = total_instr as f64 / total_event / 1e6;
    let aggregate_speedup = total_ref / total_event;
    let payload = render_json(params, reps, &merged, aggregate_mips, aggregate_speedup);
    std::fs::write(path, payload).unwrap_or_else(|e| panic!("writing {path}: {e}"));
    println!(
        "merged into {path}: {} cell(s), aggregate {aggregate_mips:.2} MIPS (slowest per-cell \
         records kept)",
        merged.len()
    );
}

/// A JSON string literal (escaped and quoted).
fn quoted(s: &str) -> String {
    format!("\"{}\"", json::escape(s))
}

fn render_json(
    params: &RunParams,
    reps: usize,
    cells: &[CellTiming],
    aggregate_mips: f64,
    aggregate_speedup: f64,
) -> String {
    let cell_rows: Vec<String> = cells
        .iter()
        .map(|c| {
            let noc = if c.noc.is_empty() {
                String::new()
            } else {
                format!("\"noc\":{},", quoted(&c.noc))
            };
            format!(
                "    {{\"workload\":{},\"cores\":{},\"scheme\":{},{noc}\"sim_cycles\":{},\
                 \"instructions\":{},\"event_elapsed_sec\":{:.4},\"reference_elapsed_sec\":{:.4},\
                 \"mips\":{:.3},\"speedup\":{:.3}}}",
                quoted(&c.workload),
                c.cores,
                quoted(&c.scheme),
                c.sim_cycles,
                c.instructions,
                c.event_elapsed,
                c.reference_elapsed,
                c.mips(),
                c.speedup(),
            )
        })
        .collect();
    format!(
        "{{\n  \"name\": \"sim_throughput\",\n  \"schema\": 2,\n  \"reps\": {},\n  \
         \"probe_kernel\": {},\n  \"instructions_per_core\": {},\n  \"warmup_per_core\": {},\n  \
         \"cells\": [\n{}\n  ],\n  \"aggregate_mips\": {:.3},\n  \"aggregate_speedup\": {:.3}\n}}\n",
        reps,
        quoted(chrome_sim::probe::kernel_name()),
        params.instructions,
        params.warmup,
        cell_rows.join(",\n"),
        aggregate_mips,
        aggregate_speedup,
    )
}
