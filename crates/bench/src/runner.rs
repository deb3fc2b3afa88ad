//! The experiment flags every binary shares ([`RunParams`]) and the
//! geomean that aggregates speedups.

use std::path::PathBuf;

use chrome_exec::cli::Args;

/// Parameters for one experiment run, parsed from the experiment flags
/// by [`RunParams::flag`].
#[derive(Debug, Clone)]
pub struct RunParams {
    /// Cores in the simulated system.
    pub cores: usize,
    /// Measured instructions per core.
    pub instructions: u64,
    /// Warmup instructions per core.
    pub warmup: u64,
    /// Base seed for workload generators.
    pub seed: u64,
    /// Directory for telemetry artifacts (`--telemetry-out DIR`); when
    /// set, every cell exports its epoch series and event trace there,
    /// named `<workload>_<scheme>_<spec hash>_*`.
    pub telemetry_out: Option<PathBuf>,
    /// Grid-engine worker threads (`--jobs N`); `None` means available
    /// parallelism.
    pub jobs: Option<usize>,
    /// Skip cells already recorded `ok` in the manifest (`--resume`).
    pub resume: bool,
    /// Checkpoint manifest path (`--manifest PATH`); defaults to
    /// `results/manifest.jsonl` for grid runs.
    pub manifest: Option<PathBuf>,
    /// Directory of recorded `.ctf` trace files (`--trace-dir DIR`);
    /// grid cells whose workload identity matches a recorded trace
    /// replay from the file instead of the live generator, and mix the
    /// trace content hash into their checkpoint identity.
    pub trace_dir: Option<PathBuf>,
    /// Heterogeneous mix count for experiments that sweep mixes
    /// (`--mixes N`); each experiment applies its own default.
    pub mixes: Option<usize>,
    /// Cap on per-experiment workload lists (`--homo-workloads N`);
    /// each experiment applies its own default.
    pub homo_workloads: Option<usize>,
    /// Paint live grid progress to stderr (tests switch it off).
    pub progress: bool,
    /// Mesh-NoC spec in [`chrome_noc::NocConfig::canonical`] form
    /// (`--noc slices=4,hop=2,...`); empty keeps the NoC off and the
    /// simulator byte-identical to the uniform-latency model.
    pub noc: String,
}

impl Default for RunParams {
    fn default() -> Self {
        RunParams {
            cores: 4,
            instructions: 3_000_000,
            warmup: 600_000,
            seed: 0x5EED,
            telemetry_out: None,
            jobs: None,
            resume: false,
            manifest: None,
            trace_dir: None,
            mixes: None,
            homo_workloads: None,
            progress: true,
            noc: String::new(),
        }
    }
}

impl RunParams {
    /// Parse `flag` if it is an experiment flag, taking its value from
    /// `args`: `--cores N`, `--instructions N`, `--warmup N`, `--seed N`,
    /// `--quick` (divides the instruction budget set so far by 10),
    /// `--full` (multiplies it by 10), `--telemetry-out DIR` and the grid
    /// flags. A missing or malformed value or NoC spec is a usage error.
    /// Returns false for any other flag.
    pub fn flag(&mut self, flag: &str, args: &mut Args) -> bool {
        match flag {
            "--cores" => self.cores = args.number(flag),
            "--instructions" => self.instructions = args.number(flag),
            "--warmup" => self.warmup = args.number(flag),
            "--seed" => self.seed = args.number(flag),
            "--telemetry-out" => self.telemetry_out = Some(args.value(flag).into()),
            "--jobs" => self.jobs = Some(args.number(flag)),
            "--resume" => self.resume = true,
            "--manifest" => self.manifest = Some(args.value(flag).into()),
            "--trace-dir" => self.trace_dir = Some(args.value(flag).into()),
            "--mixes" => self.mixes = Some(args.number(flag)),
            "--homo-workloads" => self.homo_workloads = Some(args.number(flag)),
            "--noc" => {
                let cfg = chrome_noc::NocConfig::parse(&args.value(flag))
                    .unwrap_or_else(|e| args.bad(&format!("--noc: {e}")));
                // Canonicalize at the CLI boundary so spec hashes
                // never depend on key order or omitted defaults.
                self.noc = cfg.canonical();
            }
            "--quick" => {
                self.instructions /= 10;
                self.warmup /= 10;
            }
            "--full" => {
                self.instructions *= 10;
                self.warmup *= 10;
            }
            _ => return false,
        }
        true
    }
}

/// Geometric mean of a slice (ignores non-positive values defensively).
pub fn geomean(values: &[f64]) -> f64 {
    let vals: Vec<f64> = values.iter().copied().filter(|&v| v > 0.0).collect();
    if vals.is_empty() {
        return 0.0;
    }
    (vals.iter().map(|v| v.ln()).sum::<f64>() / vals.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::{run_cell, simulate_cell};
    use chrome_exec::CellSpec;

    fn quick(workload: &str, scheme: &str) -> CellSpec {
        let params = RunParams {
            cores: 1,
            instructions: 30_000,
            warmup: 3_000,
            ..Default::default()
        };
        crate::experiments::cell(&params, "unit", workload, scheme)
    }

    #[test]
    fn simulated_cell_produces_results() {
        let r = simulate_cell(&quick("libquantum", "LRU"), None, None, false);
        assert!(r.results.ipc_sum() > 0.0);
        assert!(r.results.llc.demand_accesses > 0);
    }

    #[test]
    fn weighted_speedup_vs_self_is_one() {
        let r = run_cell(&quick("gcc", "LRU"), None);
        assert!((r.weighted_speedup_vs(&r) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn chrome_report_is_populated() {
        let r = simulate_cell(&quick("mcf", "CHROME"), None, None, false);
        assert!(r.report.iter().any(|(k, _)| k == "upksa"));
    }

    #[test]
    fn profile_run_populates_attrib_exactly() {
        let spec = CellSpec {
            warmup: 0,
            ..quick("libquantum", "LRU")
        };
        let r = simulate_cell(&spec, None, None, true);
        let attrib = r.attrib.expect("profiling run returns attrib state");
        if cfg!(feature = "telemetry") {
            assert!(attrib.total_requests() > 0);
            assert_eq!(attrib.mismatches(), 0, "per-stage sums must telescope");
        }
        let plain = simulate_cell(&quick("libquantum", "LRU"), None, None, false);
        assert!(plain.attrib.is_none());
    }

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
        assert!((geomean(&[2.0, 0.0]) - 2.0).abs() < 1e-12); // ignores zero
    }

    #[test]
    fn mix_runs_multiple_cores() {
        let spec = CellSpec {
            cores: 2,
            instructions: 20_000,
            warmup: 2_000,
            ..quick("mcf+libquantum", "LRU")
        };
        let r = simulate_cell(&spec, None, None, false);
        assert_eq!(r.results.per_core.len(), 2);
    }
}
