//! The one machine builder, and grid execution of simulation cells
//! via `chrome-exec`.
//!
//! [`cell_system`] builds the [`System`] a [`CellSpec`] describes.
//! Every hardware simulation a tool runs is a spec built there: full
//! and sampled grid cells, `profile`, `throughput`, `forensics sim` and
//! `simpoint validate --check-kernels`, so each replays exactly the
//! traces of the grid cell its spec names. [`simulate_cell`] runs a
//! full cell, with telemetry when asked, and [`sampled_cell`] a sampled
//! one. Only `simpoint validate` makes sampled cells
//! ([`crate::experiments::sampling::cells`]), so the sampled-vs-full
//! error of every sampled cell is measured, and none exports telemetry.
//!
//! [`run_grid`] is the single entry point `run_all` and `simpoint
//! validate` funnel their cells through: it maps each [`CellSpec`]
//! onto one simulator run, executes the grid across `--jobs` worker
//! threads with fault isolation and checkpoint/resume, and returns
//! outcomes in input order so table assembly is deterministic at any
//! thread count.
//!
//! [`CellResult`] is the compact, manifest-serializable slice of a
//! [`SchemeResult`] that table assembly consumes. Its codec round-trips
//! floats exactly (shortest-form `f64` printing), which is what lets a
//! resumed run reproduce byte-identical tables from manifest payloads
//! alone.

use std::collections::HashMap;
use std::path::{Path, PathBuf};

use chrome_exec::{CellOutcome, CellSpec, Codec, EngineConfig, GridReport, JsonValue};
use chrome_sim::{Kernel, PrefetcherConfig, SimConfig, SimResults, System};
use chrome_simpoint::{build_plan_windowed, reconstruct, SamplingSpec};
use chrome_telemetry::{AttribProfiler, EpochSeries, TelemetryConfig, TelemetrySink};
use chrome_tracefile::{TraceFile, TraceIndex};

use crate::registry::build_any_slot;
use crate::runner::RunParams;

/// Resolution table for file-backed cells: trace content hash (the
/// [`CellSpec::trace`] value, fixed-width hex) to `.ctf` path. The hash
/// is the checkpoint-stable identity; the path is the run-local detail
/// that stays out of spec hashes so manifests survive directory moves.
pub type TraceMap = HashMap<String, PathBuf>;

/// Default checkpoint manifest for grid runs.
pub const DEFAULT_MANIFEST: &str = "results/manifest.jsonl";

/// Map a [`CellSpec::prefetch`] tag onto a prefetcher configuration.
///
/// # Panics
///
/// Panics on an unknown tag (a plan bug, not user input).
#[must_use]
pub fn prefetch_config(tag: &str) -> PrefetcherConfig {
    match tag {
        "paper" => PrefetcherConfig::default_paper(),
        "stride-streamer" => PrefetcherConfig::stride_streamer(),
        "ipcp" => PrefetcherConfig::ipcp(),
        "none" => PrefetcherConfig::none(),
        other => panic!("unknown prefetch tag {other}"),
    }
}

/// The manifest-serializable result of one simulation cell: everything
/// any experiment's table assembly reads, and nothing else.
#[derive(Debug, Clone, PartialEq)]
pub struct CellResult {
    /// Per-core IPC (speedups are ratios of these against a base cell).
    pub ipc: Vec<f64>,
    /// LLC demand miss ratio.
    pub demand_miss_ratio: f64,
    /// Effective prefetch hit ratio.
    pub ephr: f64,
    /// Bypass coverage.
    pub bypass_coverage: f64,
    /// Bypassed-block outcomes `(requested_again, never, prefetch)`.
    pub bypassed_outcome: (u64, u64, u64),
    /// Evicted-unused outcomes `(requested_again, never, prefetch)`.
    pub evicted_unused: (u64, u64, u64),
    /// LLC evictions.
    pub evictions: u64,
    /// LLC evictions of never-reused blocks.
    pub evictions_unused: u64,
    /// Scheme-specific report metrics (e.g. CHROME's UPKSA).
    pub report: Vec<(String, f64)>,
    /// Mean EQ FIFO occupancy from the final epoch (0 unless the cell
    /// recorded epochs).
    pub eq_occupancy: f64,
    /// Cumulative EQ FIFO overflows from the final epoch.
    pub eq_overflows: u64,
    /// Telemetry artifact paths this cell exported.
    pub artifacts: Vec<String>,
}

impl CellResult {
    /// Sum of per-core IPCs.
    #[must_use]
    pub fn ipc_sum(&self) -> f64 {
        self.ipc.iter().sum()
    }

    /// Normalized weighted speedup against a baseline cell of the same
    /// workload: `(1/n) Σ IPC_i / IPC_i^base`.
    #[must_use]
    pub fn weighted_speedup_vs(&self, base: &CellResult) -> f64 {
        let n = self.ipc.len() as f64;
        self.ipc
            .iter()
            .zip(&base.ipc)
            .map(|(a, b)| if *b > 0.0 { a / b } else { 0.0 })
            .sum::<f64>()
            / n
    }

    /// A named metric from the scheme report.
    #[must_use]
    pub fn report_metric(&self, key: &str) -> Option<f64> {
        self.report.iter().find(|(k, _)| k == key).map(|(_, v)| *v)
    }
}

/// Borrow the result of cell `i`, if it succeeded.
#[must_use]
pub fn cell_value(out: &[CellOutcome<CellResult>], i: usize) -> Option<&CellResult> {
    out.get(i).and_then(CellOutcome::value)
}

/// A metric of cell `i`, or NaN when the cell failed — failed cells
/// surface as NaN table entries and drop out of geomeans instead of
/// aborting the whole experiment.
pub fn metric<F: Fn(&CellResult) -> f64>(out: &[CellOutcome<CellResult>], i: usize, f: F) -> f64 {
    cell_value(out, i).map_or(f64::NAN, f)
}

/// Weighted speedup of cell `i` over base cell `b`, NaN if either failed.
#[must_use]
pub fn speedup(out: &[CellOutcome<CellResult>], i: usize, b: usize) -> f64 {
    match (cell_value(out, i), cell_value(out, b)) {
        (Some(r), Some(base)) => r.weighted_speedup_vs(base),
        _ => f64::NAN,
    }
}

/// Everything one full simulation of a cell produced.
#[derive(Debug, Clone)]
pub struct SchemeResult {
    /// Raw simulation results.
    pub results: SimResults,
    /// Scheme-specific report metrics (e.g. CHROME's UPKSA) from the
    /// end-of-run policy state.
    pub report: Vec<(String, f64)>,
    /// Epoch-resolved telemetry series (empty unless the cell recorded
    /// telemetry: `--telemetry-out`, [`CellSpec::record_epochs`] or a
    /// profiling run).
    pub epochs: EpochSeries,
    /// Latency-attribution profiler state (populated only for profiling
    /// runs).
    pub attrib: Option<AttribProfiler>,
    /// Telemetry artifact files this run exported (empty without
    /// `--telemetry-out`).
    pub artifacts: Vec<PathBuf>,
}

/// Build the system a cell describes — the one way any tool builds a
/// simulated machine, so a spec always means the same machine and the
/// same traces:
///
/// * the machine: `cores` cores of the Table V configuration, the
///   [`CellSpec::prefetch`] prefetchers and, when set, the
///   [`CellSpec::noc`] mesh;
/// * the scheme, built by the policy registry;
/// * evicted-unused tracking when [`CellSpec::track_unused`] is set;
/// * the traces: a file-backed spec's recorded `.ctf` file, resolved
///   through `trace_files` (streaming, bounded memory), else the live
///   generators seeded by [`CellSpec::workload_seed`] through
///   [`chrome_traces::mix::sources`] — so every scheme of a workload
///   replays the same traces.
///
/// # Panics
///
/// Panics on an unknown workload, scheme or prefetch tag or an
/// unparsable NoC spec (plan bugs: the command lines check names and
/// canonicalize `--noc` before they reach a spec), and on a file-backed
/// spec whose trace hash cannot be resolved, whose file fails
/// validation, or whose content hash or core count disagrees with the
/// spec — the hash is re-checked at open time, so a stale resolution
/// table can never silently swap trace contents.
#[must_use]
pub fn cell_system(spec: &CellSpec, trace_files: Option<&TraceMap>) -> System {
    let cores = spec.cores as usize;
    let traces = if spec.trace.is_empty() {
        chrome_traces::mix::sources(&spec.workload, cores, spec.workload_seed())
            .unwrap_or_else(|| panic!("unknown workload {} on {cores} cores", spec.workload))
    } else {
        open_spec_trace(spec, trace_files)
            .sources()
            .unwrap_or_else(|e| panic!("streaming trace for {}: {e}", spec.label()))
    };
    let mut cfg = SimConfig::with_cores(cores);
    cfg.prefetchers = prefetch_config(&spec.prefetch);
    if !spec.noc.is_empty() {
        cfg.noc = Some(
            chrome_noc::NocConfig::parse(&spec.noc)
                .unwrap_or_else(|e| panic!("bad noc spec {:?}: {e}", spec.noc)),
        );
    }
    let policy =
        build_any_slot(&spec.scheme).unwrap_or_else(|| panic!("unknown scheme {}", spec.scheme));
    let mut sys = System::with_policy(cfg, traces, policy);
    if spec.track_unused {
        sys.enable_unused_tracking();
    }
    sys
}

/// Resolve and open a file-backed cell's trace, cross-checking content
/// hash and core count against the spec.
fn open_spec_trace(spec: &CellSpec, trace_files: Option<&TraceMap>) -> TraceFile {
    let path = trace_files
        .and_then(|m| m.get(&spec.trace))
        .unwrap_or_else(|| {
            panic!(
                "cell {} is file-backed (trace={}) but no trace map entry resolves it",
                spec.label(),
                spec.trace
            )
        });
    let tf =
        TraceFile::open(path).unwrap_or_else(|e| panic!("opening trace {}: {e}", path.display()));
    let m = tf.manifest();
    assert_eq!(
        m.hash_hex(),
        spec.trace,
        "trace file {} content hash diverged from the spec's",
        path.display()
    );
    assert_eq!(
        m.cores.len() as u32,
        spec.cores,
        "trace file {} holds the wrong number of core streams",
        path.display()
    );
    tf
}

/// The safe artifact-file prefix of a cell: workload and scheme, plus
/// the spec hash, which keeps artifact names collision-free when
/// concurrent cells from different experiments share one
/// `--telemetry-out` directory.
fn artifact_prefix(spec: &CellSpec) -> String {
    format!("{}_{}_{}", spec.workload, spec.scheme, spec.hash_hex())
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == '-' {
                c
            } else {
                '-'
            }
        })
        .collect()
}

/// Export a finished system's telemetry into `dir` (no-op without one).
fn export(sys: &System, spec: &CellSpec, dir: Option<&Path>) -> Vec<PathBuf> {
    let Some(dir) = dir else {
        return Vec::new();
    };
    sys.telemetry()
        .export(dir, &artifact_prefix(spec))
        .unwrap_or_else(|e| panic!("telemetry export to {dir:?} failed: {e}"))
}

/// Simulate one full (unsampled) cell and return everything the run
/// produced. [`run_cell`] distills its result, and the `profile` binary
/// reads it whole, so a profiled cell replays exactly the traces of its
/// grid cell. The run records telemetry when anything reads it
/// (`telemetry_out`, [`CellSpec::record_epochs`], or `profile`, which
/// also turns on the per-request latency-attribution profiler).
///
/// # Panics
///
/// Panics as [`cell_system`] does, or when telemetry export fails.
#[must_use]
pub fn simulate_cell(
    spec: &CellSpec,
    telemetry_out: Option<&Path>,
    trace_files: Option<&TraceMap>,
    profile: bool,
) -> SchemeResult {
    let mut sys = cell_system(spec, trace_files);
    if telemetry_out.is_some() || spec.record_epochs || profile {
        sys.set_telemetry(TelemetrySink::recording(TelemetryConfig { profile }));
    }
    let results = sys.run(spec.instructions, spec.warmup);
    let telemetry = sys.telemetry();
    SchemeResult {
        results,
        report: sys.hierarchy().llc.policy.report(),
        epochs: telemetry.with(|t| t.epochs.clone()).unwrap_or_default(),
        attrib: if profile {
            telemetry.with(|t| t.attrib.clone())
        } else {
            None
        },
        artifacts: export(&sys, spec, telemetry_out),
    }
}

/// Execute one cell and distill its result. This is the function the
/// engine schedules; a panic anywhere inside is the engine's to catch.
///
/// # Panics
///
/// Panics on unknown workload/scheme names or telemetry export errors.
#[must_use]
pub fn run_cell(spec: &CellSpec, telemetry_out: Option<&Path>) -> CellResult {
    run_cell_with_traces(spec, telemetry_out, None)
}

/// [`run_cell`] with an optional trace-resolution table for
/// file-backed cells (see [`cell_system`]). A cell with a
/// [`CellSpec::sampling`] spec runs as a [`sampled_cell`] on the
/// default kernel.
///
/// # Panics
///
/// Panics as [`cell_system`] and [`sampled_cell`] do.
#[must_use]
pub fn run_cell_with_traces(
    spec: &CellSpec,
    telemetry_out: Option<&Path>,
    trace_files: Option<&TraceMap>,
) -> CellResult {
    if !spec.sampling.is_empty() {
        return sampled_cell(spec, trace_files, Kernel::default());
    }
    let r = simulate_cell(spec, telemetry_out, trace_files, false);
    let (eq_occupancy, eq_overflows) = r.epochs.records().last().map_or((0.0, 0), |last| {
        (last.policy.eq_occupancy, last.policy.eq_overflows)
    });
    // every cell reports its aggregate MPKI and C-AMAT so sampled runs
    // have a full-run value to validate against
    let mut report = r.report;
    report.push(("mpki".into(), reconstruct::aggregate_mpki(&r.results)));
    report.push(("camat".into(), reconstruct::aggregate_camat(&r.results)));
    CellResult {
        ipc: r
            .results
            .per_core
            .iter()
            .map(chrome_sim::CoreStats::ipc)
            .collect(),
        demand_miss_ratio: r.results.llc.demand_miss_ratio(),
        ephr: r.results.llc.ephr(),
        bypass_coverage: r.results.llc.bypass_coverage(),
        bypassed_outcome: r.results.bypassed_outcome,
        evicted_unused: r.results.evicted_unused,
        evictions: r.results.llc.evictions,
        evictions_unused: r.results.llc.evictions_unused,
        report,
        eq_occupancy,
        eq_overflows,
        artifacts: r
            .artifacts
            .iter()
            .map(|p| p.to_string_lossy().into_owned())
            .collect(),
    }
}

/// Scale a per-interval counter rate up to the cell's full instruction
/// budget: `Σ wⱼ · (counterⱼ / instrⱼ) · budget`, rounded. Keeps
/// counter-valued [`CellResult`] fields comparable in magnitude to a
/// full run's.
fn weighted_scaled(
    weights: &[f64],
    results: &[SimResults],
    budget: u64,
    counter: impl Fn(&SimResults) -> u64,
) -> u64 {
    let wsum: f64 = weights.iter().sum();
    let mut rate = 0.0;
    for (w, r) in weights.iter().zip(results) {
        let instr: u64 = r.per_core.iter().map(|c| c.instructions).sum();
        if instr > 0 {
            rate += w / wsum * counter(r) as f64 / instr as f64;
        }
    }
    (rate * budget as f64).round() as u64
}

/// Reconstructed ratio of two counters, each first normalized to a
/// per-instruction rate and instruction-weighted across intervals.
fn weighted_ratio(
    weights: &[f64],
    results: &[SimResults],
    num: impl Fn(&SimResults) -> u64,
    den: impl Fn(&SimResults) -> u64,
) -> f64 {
    let n = weighted_scaled(weights, results, 1_000_000, num) as f64;
    let d = weighted_scaled(weights, results, 1_000_000, den) as f64;
    if d > 0.0 {
        n / d
    } else {
        0.0
    }
}

/// Execute a sampled cell on `kernel`: build the deterministic sampling
/// plan from the trace's interval stats, windowed to exactly what a
/// full run of the cell measures; replay only its representative
/// intervals (functional warmup + detailed ramp + measurement); walk
/// the whole trace once more with the functional model for the
/// per-interval control variates; and reconstruct full-run metrics
/// from the weighted per-interval results. `simpoint validate`'s grid
/// runs its sampled cells on the default kernel; `--check-kernels` runs
/// each on both kernels and compares.
///
/// # Panics
///
/// Panics when the cell is not file-backed, tracks evicted-unused
/// blocks (whole-run state no sample reconstructs), or its sampling
/// spec or plan is unusable; otherwise as [`cell_system`] does.
#[must_use]
pub fn sampled_cell(spec: &CellSpec, trace_files: Option<&TraceMap>, kernel: Kernel) -> CellResult {
    assert!(
        !spec.trace.is_empty(),
        "cell {} requests sampling ({}) but is not file-backed; \
         representative-interval sampling needs a recorded trace (--trace-dir)",
        spec.label(),
        spec.sampling
    );
    assert!(
        !spec.track_unused,
        "cell {}: evicted-unused tracking is whole-run state and cannot \
         be reconstructed from sampled intervals",
        spec.label()
    );
    let sampling = SamplingSpec::parse(&spec.sampling)
        .unwrap_or_else(|e| panic!("cell {}: {e}", spec.label()));
    let plan = build_plan_windowed(
        &open_spec_trace(spec, trace_files),
        sampling,
        spec.workload_seed(),
        spec.warmup,
        spec.instructions,
    )
    .unwrap_or_else(|e| panic!("cell {}: building sampling plan: {e}", spec.label()));
    let mut sys = cell_system(spec, trace_files);
    let results = sys.run_sampled(&plan.to_sim_plan(), kernel);
    // functional control-variate pass: full interval coverage at zero
    // detailed cost, pairing with the measured segments above
    let profile = cell_system(spec, trace_files).run_functional_profile(&plan.boundaries);
    let weights: Vec<f64> = plan.segments.iter().map(|s| s.weight).collect();
    let rec = reconstruct::reconstruct_with_profile(&plan, &results, &profile);
    let budget = spec.instructions * u64::from(spec.cores);
    let llc = |f: fn(&chrome_sim::CacheStats) -> u64| move |r: &SimResults| f(&r.llc);
    let mut report = sys.hierarchy().llc.policy.report();
    report.push(("sampled".into(), 1.0));
    report.push(("mpki".into(), rec.mpki));
    report.push(("camat".into(), rec.camat));
    report.push(("segments".into(), plan.segments.len() as f64));
    report.push((
        "detail_reduction".into(),
        plan.reduction(spec.warmup + spec.instructions),
    ));
    CellResult {
        ipc: rec.per_core_ipc,
        demand_miss_ratio: weighted_ratio(
            &weights,
            &results,
            llc(|l| l.demand_misses),
            llc(|l| l.demand_accesses),
        ),
        ephr: weighted_ratio(
            &weights,
            &results,
            llc(|l| l.prefetch_useful),
            llc(|l| l.prefetch_fills),
        ),
        bypass_coverage: weighted_ratio(&weights, &results, llc(|l| l.bypasses), |r| {
            r.llc.bypasses
                + (r.llc.demand_misses + r.llc.prefetch_misses).saturating_sub(r.llc.bypasses)
        }),
        bypassed_outcome: (0, 0, 0),
        evicted_unused: (0, 0, 0),
        evictions: weighted_scaled(&weights, &results, budget, llc(|l| l.evictions)),
        evictions_unused: weighted_scaled(&weights, &results, budget, llc(|l| l.evictions_unused)),
        report,
        eq_occupancy: 0.0,
        eq_overflows: 0,
        artifacts: Vec::new(),
    }
}

/// JSON codec for [`CellResult`] manifest payloads.
#[derive(Debug, Clone, Copy, Default)]
pub struct CellCodec;

fn nums(values: &[f64]) -> String {
    values
        .iter()
        .map(|v| chrome_exec::json::num(*v))
        .collect::<Vec<_>>()
        .join(",")
}

fn triple(t: (u64, u64, u64)) -> String {
    format!("[{},{},{}]", t.0, t.1, t.2)
}

fn parse_triple(v: Option<&JsonValue>) -> Option<(u64, u64, u64)> {
    let a = v?.as_arr()?;
    Some((
        a.first()?.as_u64()?,
        a.get(1)?.as_u64()?,
        a.get(2)?.as_u64()?,
    ))
}

impl Codec<CellResult> for CellCodec {
    fn encode(&self, r: &CellResult) -> String {
        use chrome_exec::json::{escape, num};
        let report: Vec<String> = r
            .report
            .iter()
            .map(|(k, v)| format!("[\"{}\",{}]", escape(k), num(*v)))
            .collect();
        let artifacts: Vec<String> = r
            .artifacts
            .iter()
            .map(|a| format!("\"{}\"", escape(a)))
            .collect();
        format!(
            "{{\"ipc\":[{}],\"miss\":{},\"ephr\":{},\"bypass\":{},\
             \"bypassed\":{},\"unused\":{},\"evictions\":{},\
             \"evictions_unused\":{},\"report\":[{}],\"eq_occ\":{},\
             \"eq_ovf\":{},\"artifacts\":[{}]}}",
            nums(&r.ipc),
            num(r.demand_miss_ratio),
            num(r.ephr),
            num(r.bypass_coverage),
            triple(r.bypassed_outcome),
            triple(r.evicted_unused),
            r.evictions,
            r.evictions_unused,
            report.join(","),
            num(r.eq_occupancy),
            r.eq_overflows,
            artifacts.join(","),
        )
    }

    fn decode(&self, payload: &JsonValue) -> Option<CellResult> {
        let floats = |key: &str| -> Option<Vec<f64>> {
            payload
                .get(key)?
                .as_arr()?
                .iter()
                .map(JsonValue::as_f64)
                .collect()
        };
        let report = payload
            .get("report")?
            .as_arr()?
            .iter()
            .map(|pair| {
                let p = pair.as_arr()?;
                Some((p.first()?.as_str()?.to_string(), p.get(1)?.as_f64()?))
            })
            .collect::<Option<Vec<_>>>()?;
        Some(CellResult {
            ipc: floats("ipc")?,
            demand_miss_ratio: payload.get("miss")?.as_f64()?,
            ephr: payload.get("ephr")?.as_f64()?,
            bypass_coverage: payload.get("bypass")?.as_f64()?,
            bypassed_outcome: parse_triple(payload.get("bypassed"))?,
            evicted_unused: parse_triple(payload.get("unused"))?,
            evictions: payload.get("evictions")?.as_u64()?,
            evictions_unused: payload.get("evictions_unused")?.as_u64()?,
            report,
            eq_occupancy: payload.get("eq_occ")?.as_f64()?,
            eq_overflows: payload.get("eq_ovf")?.as_u64()?,
            artifacts: payload
                .get("artifacts")?
                .as_arr()?
                .iter()
                .map(|a| a.as_str().map(str::to_string))
                .collect::<Option<Vec<_>>>()?,
        })
    }

    fn artifacts(&self, r: &CellResult) -> Vec<String> {
        r.artifacts.clone()
    }
}

/// Resolve grid cells against a directory of recorded traces: every
/// cell whose workload identity (`workload`, `cores`, generator seed)
/// matches an indexed `.ctf` becomes file-backed — its
/// [`CellSpec::trace`] is set to the trace's content hash (changing the
/// checkpoint identity, so `--resume` never pairs a checkpoint with a
/// different trace revision) — and the returned [`TraceMap`] carries
/// the hash-to-path resolution. Cells without a matching trace keep the
/// live generator.
///
/// # Panics
///
/// Panics when the directory cannot be scanned (a CLI-input error, not
/// a cell fault).
pub fn resolve_traces(cells: &mut [CellSpec], dir: &Path) -> TraceMap {
    let index = TraceIndex::scan(dir)
        .unwrap_or_else(|e| panic!("scanning --trace-dir {}: {e}", dir.display()));
    for (path, reason) in &index.rejected {
        eprintln!("trace-dir: skipping {}: {reason}", path.display());
    }
    let mut map = TraceMap::new();
    let mut backed = 0usize;
    let total = cells.len();
    for cell in cells {
        let Some(entry) = index.lookup(&cell.workload, cell.cores as usize, cell.workload_seed())
        else {
            continue;
        };
        if entry.quota < cell.warmup + cell.instructions {
            eprintln!(
                "trace-dir: {} covers {} instructions/core but {} needs {}; \
                 replay will wrap around",
                entry.path.display(),
                entry.quota,
                cell.label(),
                cell.warmup + cell.instructions,
            );
        }
        cell.trace = entry.hash_hex();
        map.insert(cell.trace.clone(), entry.path.clone());
        backed += 1;
    }
    eprintln!(
        "trace-dir: {backed} of {total} cells file-backed from {}",
        dir.display()
    );
    map
}

/// Run a grid of simulation cells under the engine configured from
/// `params` (`--jobs`, `--resume`, `--manifest`, `--trace-dir`).
/// Outcomes come back in input order; failed cells carry their panic
/// payloads instead of aborting the run.
///
/// # Panics
///
/// Panics when the checkpoint manifest cannot be written.
#[must_use]
pub fn run_grid(params: &RunParams, mut cells: Vec<CellSpec>) -> GridReport<CellResult> {
    let trace_files = params
        .trace_dir
        .as_deref()
        .map(|dir| resolve_traces(&mut cells, dir));
    let manifest = params
        .manifest
        .clone()
        .unwrap_or_else(|| PathBuf::from(DEFAULT_MANIFEST));
    let cfg = EngineConfig {
        jobs: params.jobs.unwrap_or(0),
        manifest_path: Some(manifest),
        resume: params.resume,
        progress: params.progress,
    };
    let telemetry_out = params.telemetry_out.clone();
    chrome_exec::run_grid(cells, &cfg, &CellCodec, move |spec| {
        run_cell_with_traces(spec, telemetry_out.as_deref(), trace_files.as_ref())
    })
    .unwrap_or_else(|e| panic!("grid manifest I/O failed: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CellResult {
        CellResult {
            ipc: vec![1.5, 1.0 / 3.0],
            demand_miss_ratio: 0.25,
            ephr: 0.75,
            bypass_coverage: 0.1,
            bypassed_outcome: (1, 2, 3),
            evicted_unused: (4, 5, 6),
            evictions: 100,
            evictions_unused: 40,
            report: vec![("upksa".into(), 12.5), ("q_mag".into(), 0.1)],
            eq_occupancy: 0.5,
            eq_overflows: 7,
            artifacts: vec!["results/telemetry/x_epochs.csv".into()],
        }
    }

    #[test]
    fn codec_roundtrips_exactly() {
        let r = sample();
        let encoded = CellCodec.encode(&r);
        let parsed = chrome_exec::json::parse(&encoded).expect("codec emits valid JSON");
        let back = CellCodec.decode(&parsed).expect("decodes");
        assert_eq!(back, r);
        // float bits survive (shortest round-trip printing)
        assert_eq!(back.ipc[1].to_bits(), (1.0f64 / 3.0).to_bits());
    }

    #[test]
    fn codec_roundtrips_through_render() {
        // resume path: payload is re-rendered into the manifest line
        let r = sample();
        let parsed = chrome_exec::json::parse(&CellCodec.encode(&r)).unwrap();
        let rerendered = chrome_exec::json::parse(&parsed.render()).unwrap();
        assert_eq!(CellCodec.decode(&rerendered).unwrap(), r);
    }

    #[test]
    fn weighted_speedup_matches_definition() {
        let mut a = sample();
        let mut b = sample();
        a.ipc = vec![2.0, 1.0];
        b.ipc = vec![1.0, 2.0];
        assert!((a.weighted_speedup_vs(&b) - (2.0 + 0.5) / 2.0).abs() < 1e-12);
        assert!((a.weighted_speedup_vs(&a) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn prefetch_tags_cover_all_configs() {
        assert_eq!(prefetch_config("paper"), PrefetcherConfig::default_paper());
        assert_eq!(
            prefetch_config("stride-streamer"),
            PrefetcherConfig::stride_streamer()
        );
        assert_eq!(prefetch_config("ipcp"), PrefetcherConfig::ipcp());
        assert_eq!(prefetch_config("none"), PrefetcherConfig::none());
    }

    fn unit_spec() -> CellSpec {
        CellSpec {
            experiment: "unit".into(),
            workload: "libquantum".into(),
            scheme: "LRU".into(),
            cores: 1,
            instructions: 20_000,
            warmup: 2_000,
            seed: 7,
            prefetch: "paper".into(),
            track_unused: false,
            record_epochs: false,
            trace: String::new(),
            sampling: String::new(),
            noc: String::new(),
        }
    }

    #[test]
    fn run_cell_produces_result() {
        let r = run_cell(&unit_spec(), None);
        assert_eq!(r.ipc.len(), 1);
        assert!(r.ipc[0] > 0.0);
        assert!(r.artifacts.is_empty());
    }

    #[test]
    fn simulate_cell_replays_the_grid_cell() {
        // `profile` runs cells through simulate_cell; profiled or not,
        // it must simulate exactly what run_cell measures
        for workload in ["libquantum", "mcf+libquantum"] {
            let spec = CellSpec {
                workload: workload.into(),
                cores: 2,
                ..unit_spec()
            };
            let grid = run_cell(&spec, None).ipc;
            for profile in [false, true] {
                let r = simulate_cell(&spec, None, None, profile);
                let ipc: Vec<f64> = r
                    .results
                    .per_core
                    .iter()
                    .map(chrome_sim::CoreStats::ipc)
                    .collect();
                assert_eq!(ipc, grid, "{workload}, profile={profile}");
            }
        }
    }

    #[test]
    fn sampled_cell_runs_and_reconstructs() {
        let dir = std::env::temp_dir().join("chrome-bench-grid-sampled");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let mut spec = unit_spec();
        spec.instructions = 60_000;
        spec.warmup = 5_000;
        chrome_tracefile::recorder::record_workload(
            &dir.join("libquantum.ctf"),
            &spec.workload,
            1,
            spec.workload_seed(),
            80_000,
            5_000,
        )
        .unwrap();
        let map = resolve_traces(std::slice::from_mut(&mut spec), &dir);
        let full = run_cell_with_traces(&spec, None, Some(&map));
        spec.sampling = "k=3,ramp=1000".into();
        let sampled = run_cell_with_traces(&spec, None, Some(&map));
        // deterministic across repeats
        let again = run_cell_with_traces(&spec, None, Some(&map));
        assert_eq!(sampled, again);
        // reconstruction lands in the right ballpark of the full run
        assert!(sampled.ipc[0] > 0.0);
        let rel = (sampled.ipc_sum() - full.ipc_sum()).abs() / full.ipc_sum();
        assert!(rel < 0.25, "sampled IPC off by {:.1}%", rel * 100.0);
        assert!(sampled.report_metric("sampled") == Some(1.0));
        assert!(sampled.report_metric("mpki").is_some());
        assert!(full.report_metric("mpki").is_some());
        assert!(full.report_metric("sampled").is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn file_backed_cell_matches_live_generator() {
        let dir = std::env::temp_dir().join("chrome-bench-grid-tracedir");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let mut spec = unit_spec();
        // generous quota: covers warmup + instructions + ROB runahead,
        // so the replay never wraps and matches the generator exactly
        chrome_tracefile::recorder::record_workload(
            &dir.join("libquantum.ctf"),
            &spec.workload,
            1,
            spec.workload_seed(),
            40_000,
            10_000,
        )
        .unwrap();
        let live = run_cell(&spec, None);
        let map = resolve_traces(std::slice::from_mut(&mut spec), &dir);
        assert!(!spec.trace.is_empty(), "cell resolved to the trace file");
        assert_eq!(map.len(), 1);
        let replayed = run_cell_with_traces(&spec, None, Some(&map));
        assert_eq!(replayed, live, "file replay must be result-identical");
        // an unrelated identity stays generator-backed
        let mut other = unit_spec();
        other.seed = 8;
        resolve_traces(std::slice::from_mut(&mut other), &dir);
        assert!(other.trace.is_empty());
    }
}
