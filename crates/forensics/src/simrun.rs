//! Audited hardware-simulation runs: drive the cycle simulator with
//! CHROME (or its concurrency-unaware ablation) at the LLC, audit
//! every decision, and compute the per-set Belady oracle over the
//! audited access sequence.
//!
//! The oracle's grouping mirrors the LLC exactly: the audit key is the
//! line address and `set = line & (num_sets − 1)` (the simulator's own
//! mapping), so MIN with `ways` slots per set is the clairvoyant
//! counterpart of the real cache the agent managed.

use std::path::Path;

use chrome_core::{Chrome, ChromeConfig};
use chrome_sim::{SimConfig, SimResults, System};
use chrome_telemetry::{parse_audit, AuditRecord, AuditSegment};
use chrome_tracefile::TraceFile;

use crate::oracle::{min_oracle, GroupCapacity, OracleVerdict};

/// Where the access stream comes from.
#[derive(Debug, Clone)]
pub enum SimSource {
    /// A named in-repo workload generator, run homogeneously on every
    /// core.
    Workload(String),
    /// A recorded `.ctf` trace file (cores come from its manifest).
    Trace(std::path::PathBuf),
}

/// Parameters for one audited hardware run.
#[derive(Debug, Clone)]
pub struct SimSpec {
    /// Access stream.
    pub source: SimSource,
    /// Cores (ignored for traces, which bring their own count).
    pub cores: usize,
    /// Measured instructions per core.
    pub instructions: u64,
    /// Warmup instructions per core.
    pub warmup: u64,
    /// Workload seed.
    pub seed: u64,
    /// Audit-log record cap.
    pub audit_cap: usize,
}

impl Default for SimSpec {
    fn default() -> Self {
        SimSpec {
            source: SimSource::Workload("mcf".to_string()),
            cores: 2,
            instructions: 1_000_000,
            warmup: 100_000,
            seed: 0x5EED,
            audit_cap: 1 << 22,
        }
    }
}

/// One audited run with its oracle verdicts.
#[derive(Debug)]
pub struct HardwareRun {
    /// Scheme label ("CHROME" or "N-CHROME").
    pub scheme: &'static str,
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

/// CHROME configured as the experiment grid runs it
/// ([`ChromeConfig::experiment`]), so the report grades the agent the
/// grid measures.
fn chrome_cfg(concurrency_aware: bool) -> ChromeConfig {
    ChromeConfig {
        concurrency_aware,
        ..ChromeConfig::experiment()
    }
}

fn trace_sources(
    spec: &SimSpec,
) -> Result<(Vec<Box<dyn chrome_sim::trace::TraceSource>>, usize), String> {
    match &spec.source {
        SimSource::Workload(name) => {
            let traces = chrome_traces::mix::homogeneous(name, spec.cores, spec.seed)
                .ok_or_else(|| format!("unknown workload {name}"))?;
            Ok((traces, spec.cores))
        }
        SimSource::Trace(path) => {
            let file = TraceFile::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
            let cores = file.manifest().cores.len();
            let sources = file
                .sources()
                .map_err(|e| format!("{}: {e}", path.display()))?;
            Ok((sources, cores))
        }
    }
}

/// Run one audited hardware simulation and compute its oracle.
///
/// # Errors
///
/// Returns a message for unknown workloads, unreadable trace files, or
/// a malformed audit blob (which would be a bug).
pub fn run_hardware(spec: &SimSpec, concurrency_aware: bool) -> Result<HardwareRun, String> {
    let (traces, cores) = trace_sources(spec)?;
    let cfg = SimConfig::with_cores(cores);
    let num_sets = cfg.llc().sets() as u64;
    let ways = cfg.llc_ways;
    let policy = Box::new(Chrome::new(chrome_cfg(concurrency_aware)));
    let mut sys = System::with_policy(cfg, traces, policy);
    assert!(
        sys.enable_audit(0, spec.audit_cap),
        "CHROME is auditable by construction"
    );
    let results = sys.run(spec.instructions, spec.warmup);
    let segments = parse_audit(&sys.audit_bytes())?;
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
        scheme: if concurrency_aware {
            "CHROME"
        } else {
            "N-CHROME"
        },
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

    fn tiny() -> SimSpec {
        SimSpec {
            cores: 1,
            instructions: 60_000,
            warmup: 6_000,
            ..SimSpec::default()
        }
    }

    #[test]
    fn hardware_run_audits_every_llc_decision() {
        let run = run_hardware(&tiny(), true).expect("runs");
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
        let run = run_hardware(&tiny(), false).expect("runs");
        assert_eq!(run.scheme, "N-CHROME");
        assert!(!decision_keys(&run.segments[0]).is_empty());
    }

    #[test]
    fn unknown_workload_is_an_error() {
        let spec = SimSpec {
            source: SimSource::Workload("nonsense".into()),
            ..tiny()
        };
        assert!(run_hardware(&spec, true).is_err());
    }
}
