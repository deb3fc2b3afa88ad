//! Audited hardware-simulation runs: drive the cycle simulator with
//! CHROME (or its concurrency-unaware ablation) at the LLC, audit
//! every decision, and compute the per-set Belady oracle over the
//! audited access sequence.
//!
//! A run is a grid [`CellSpec`] built by [`chrome_bench::cell_system`],
//! so it simulates the machine, the agent configuration and the trace
//! instances of the grid cell its spec names: generators seeded by
//! [`CellSpec::workload_seed`], or the recorded `.ctf` file of a
//! file-backed spec ([`trace_cell`]).
//!
//! The oracle's grouping mirrors the LLC exactly: the audit key is the
//! line address and `set = line & (num_sets − 1)` (the simulator's own
//! mapping), so MIN with `ways` slots per set is the clairvoyant
//! counterpart of the real cache the agent managed.

use std::path::Path;

use chrome_bench::{cell_system, TraceMap};
use chrome_exec::CellSpec;
use chrome_sim::{SimConfig, SimResults};
use chrome_telemetry::{parse_audit, AuditRecord, AuditSegment};
use chrome_tracefile::TraceFile;

use crate::oracle::{min_oracle, GroupCapacity, OracleVerdict};

/// Default audit-log record cap (`--audit-cap`).
pub const AUDIT_CAP: usize = 1 << 22;

/// One audited run with its oracle verdicts.
#[derive(Debug)]
pub struct HardwareRun {
    /// Scheme name ("CHROME" or "N-CHROME").
    pub scheme: String,
    /// Raw simulation results.
    pub results: SimResults,
    /// Parsed audit segments (one: the LLC records stream 0).
    pub segments: Vec<AuditSegment>,
    /// Oracle verdicts aligned with each segment's decision sequence.
    pub verdicts: Vec<Vec<OracleVerdict>>,
}

/// The decision-key sequence of one segment, in recorded order.
pub fn decision_keys(seg: &AuditSegment) -> Vec<u64> {
    seg.records
        .iter()
        .filter_map(|r| match r {
            AuditRecord::Decision(d) => Some(d.key),
            AuditRecord::Reward(_) => None,
        })
        .collect()
}

/// The file-backed cell of a recorded trace: `base` with the file's
/// content hash and core count, plus the one-entry [`TraceMap`] that
/// resolves it.
///
/// # Errors
///
/// Returns a message when the file cannot be opened.
pub fn trace_cell(base: &CellSpec, path: &Path) -> Result<(CellSpec, TraceMap), String> {
    let file = TraceFile::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let m = file.manifest();
    let spec = CellSpec {
        cores: m.cores.len() as u32,
        trace: m.hash_hex(),
        ..base.clone()
    };
    let traces = TraceMap::from([(spec.trace.clone(), path.to_path_buf())]);
    Ok((spec, traces))
}

/// Run one audited hardware simulation of `spec` and compute its
/// oracle. The scheme (`CHROME` or `N-CHROME`) comes from the policy
/// registry, configured as the grid runs it; `trace_files` resolves a
/// file-backed spec, and `audit_cap` bounds the audit log.
///
/// # Errors
///
/// Returns a message for an unknown workload, a scheme that keeps no
/// decision stream, or a malformed audit blob (which would be a bug).
///
/// # Panics
///
/// Panics as [`chrome_bench::cell_system`] does on any other spec it
/// cannot build.
pub fn run_hardware(
    spec: &CellSpec,
    trace_files: Option<&TraceMap>,
    audit_cap: usize,
) -> Result<HardwareRun, String> {
    let known = chrome_traces::all_workloads();
    if spec.trace.is_empty() && !spec.workload.split('+').all(|w| known.contains(&w)) {
        return Err(format!("unknown workload {}", spec.workload));
    }
    let mut sys = cell_system(spec, trace_files);
    if !sys.enable_audit(0, audit_cap) {
        return Err(format!("{} keeps no decision stream to audit", spec.scheme));
    }
    let results = sys.run(spec.instructions, spec.warmup);
    let segments = parse_audit(&sys.audit_bytes())?;
    let llc = &sys.hierarchy().llc;
    let (num_sets, ways) = (llc.num_sets() as u64, llc.ways());
    let verdicts = segments
        .iter()
        .map(|seg| {
            let keys = decision_keys(seg);
            min_oracle(
                &keys,
                GroupCapacity {
                    slots: ways,
                    bytes: None,
                },
                |k| k & (num_sets - 1),
                |_| 1,
            )
        })
        .collect();
    Ok(HardwareRun {
        scheme: spec.scheme.clone(),
        results,
        segments,
        verdicts,
    })
}

/// Standalone Belady bound for a raw `.ctf` trace: round-robin
/// interleave of every core's memory accesses against the Table V LLC
/// of the trace's core count, line = `vaddr >> 6`.
///
/// # Errors
///
/// Returns a message when the trace cannot be read.
pub fn trace_min_bound(path: &Path) -> Result<(u64, f64), String> {
    let file = TraceFile::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let cores = file.manifest().cores.len();
    let cfg = SimConfig::with_cores(cores);
    let num_sets = cfg.llc().sets() as u64;
    let per_core: Vec<Vec<u64>> = (0..cores)
        .map(|c| {
            file.decode_core(c)
                .map(|recs| recs.iter().map(|r| r.vaddr >> 6).collect())
                .map_err(|e| format!("{}: {e}", path.display()))
        })
        .collect::<Result<_, _>>()?;
    let mut keys = Vec::with_capacity(per_core.iter().map(Vec::len).sum());
    let longest = per_core.iter().map(Vec::len).max().unwrap_or(0);
    for i in 0..longest {
        for lane in &per_core {
            if let Some(&k) = lane.get(i) {
                keys.push(k);
            }
        }
    }
    let verdicts = min_oracle(
        &keys,
        GroupCapacity {
            slots: cfg.llc_ways,
            bytes: None,
        },
        |k| k & (num_sets - 1),
        |_| 1,
    );
    Ok((keys.len() as u64, crate::oracle::min_hit_ratio(&verdicts)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use chrome_bench::experiments::cell;
    use chrome_bench::{simulate_cell, RunParams};
    use chrome_tracefile::recorder::record_workload;
    use chrome_tracefile::Codec;

    fn tiny(scheme: &str) -> CellSpec {
        let params = RunParams {
            cores: 1,
            instructions: 60_000,
            warmup: 6_000,
            ..RunParams::default()
        };
        cell(&params, "forensics", "mcf", scheme)
    }

    #[test]
    fn hardware_run_audits_every_llc_decision() {
        let run = run_hardware(&tiny("CHROME"), None, AUDIT_CAP).expect("runs");
        assert_eq!(run.scheme, "CHROME");
        assert_eq!(run.segments.len(), 1, "the LLC records one stream");
        assert_eq!(run.segments[0].stream, 0);
        assert_eq!(run.segments[0].dropped, 0, "cap is generous");
        let keys = decision_keys(&run.segments[0]);
        assert!(!keys.is_empty(), "LLC decisions were recorded");
        assert_eq!(run.verdicts[0].len(), keys.len(), "1:1 join");
        assert!(run.results.llc.demand_accesses > 0);
    }

    #[test]
    fn ablation_changes_the_scheme_label_only() {
        let run = run_hardware(&tiny("N-CHROME"), None, AUDIT_CAP).expect("runs");
        assert_eq!(run.scheme, "N-CHROME");
        assert!(!decision_keys(&run.segments[0]).is_empty());
    }

    #[test]
    fn unknown_workload_is_an_error() {
        let spec = CellSpec {
            workload: "nonsense".into(),
            ..tiny("CHROME")
        };
        assert!(run_hardware(&spec, None, AUDIT_CAP).is_err());
    }

    #[test]
    fn hardware_run_replays_the_grid_cell_live_and_from_its_trace() {
        // the audited run simulates exactly what the grid's cell does
        let spec = CellSpec {
            cores: 2,
            ..tiny("CHROME")
        };
        let live = run_hardware(&spec, None, AUDIT_CAP).expect("runs");
        assert_eq!(
            live.results,
            simulate_cell(&spec, None, None, false).results
        );
        // a recording of that cell's traces, with room for the ROB's
        // runahead past the measured end, replays it exactly
        let dir =
            std::env::temp_dir().join(format!("chrome-forensics-simrun-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("mcf.ctf");
        let quota = 2 * (spec.warmup + spec.instructions);
        record_workload(
            &path,
            &spec.workload,
            2,
            spec.workload_seed(),
            quota,
            Codec::Compact,
            10_000,
        )
        .unwrap();
        // the recording, not the base spec, sets the core count
        let (file_spec, traces) = trace_cell(&tiny("CHROME"), &path).expect("opens");
        assert_eq!(file_spec.cores, 2);
        let replayed = run_hardware(&file_spec, Some(&traces), AUDIT_CAP).expect("replays");
        assert_eq!(replayed.results, live.results);
        assert_eq!(replayed.segments, live.segments, "identical audit trail");
        std::fs::remove_dir_all(&dir).ok();
    }
}
