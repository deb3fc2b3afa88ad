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
    /// Representative-interval sampling spec (`--sampling k=<k>,ramp=<n>`);
    /// file-backed grid cells replay only clustered representative
    /// intervals with functional warmup and reconstruct full-run
    /// metrics. Requires `--trace-dir`.
    pub sampling: Option<String>,
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
            sampling: None,
            noc: String::new(),
        }
    }
}

impl RunParams {
    /// Parse `flag` if it is an experiment flag, taking its value from
    /// `args`: `--cores N`, `--instructions N`, `--warmup N`, `--seed N`,
    /// `--quick` (divides the instruction budget set so far by 10),
    /// `--full` (multiplies it by 10), `--telemetry-out DIR` and the grid
    /// flags. A missing or malformed value, sampling spec or NoC spec is
    /// a usage error. Returns false for any other flag.
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
            "--sampling" => {
                let spec = args.value(flag);
                if let Err(e) = chrome_simpoint::SamplingSpec::parse(&spec) {
                    args.bad(&format!("--sampling: {e}"));
                }
                self.sampling = Some(spec);
            }
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
    use crate::grid::{replay_plan, run_cell, simulate_cell, TraceMap};
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

    /// Diagnostic (opt-in): isolate plan-selection error from
    /// functional-gap state error. Runs every interval with contiguous
    /// timed state (exhaustive plan, ramp 0), then reconstructs the
    /// full-run metrics from the k-plan's representatives using those
    /// oracle-state per-interval results. The residual is pure
    /// clustering/selection error; the gap to a real sampled run is
    /// functional-warmup state error.
    ///
    /// `SP_TRACE_DIR` must point at recorded traces;
    /// `SP_WORKLOADS`/`SP_SCHEME`/`SP_SAMPLING` narrow the sweep.
    #[test]
    #[ignore = "diagnostic: needs recorded traces in SP_TRACE_DIR"]
    fn oracle_state_reconstruction() {
        use chrome_simpoint::{build_plan_windowed, reconstruct, SamplingSpec};
        let dir = std::env::var("SP_TRACE_DIR").expect("SP_TRACE_DIR");
        let wls = std::env::var("SP_WORKLOADS").unwrap_or_else(|_| "pr-or".into());
        let scheme = std::env::var("SP_SCHEME").unwrap_or_else(|_| "LRU".into());
        let spec_str =
            std::env::var("SP_SAMPLING").unwrap_or_else(|_| "k=26,ramp=2200,reps=3".into());
        let index = chrome_tracefile::TraceIndex::scan(std::path::Path::new(&dir)).unwrap();
        for wl in wls.split(',') {
            let mut cell = CellSpec {
                instructions: 6_000_000,
                warmup: 60_000,
                ..quick(wl, &scheme)
            };
            // SP_PREFETCH=none isolates prefetcher-state divergence from
            // demand-path divergence across functional gaps.
            if std::env::var("SP_PREFETCH").as_deref() == Ok("none") {
                cell.prefetch = "none".into();
            }
            let seed = cell.workload_seed();
            let entry = index.lookup(wl, 1, seed).expect("trace recorded");
            let tf = chrome_tracefile::TraceFile::open(&entry.path).unwrap();
            cell.trace = entry.hash_hex();
            let traces = TraceMap::from([(cell.trace.clone(), entry.path.clone())]);
            let exhaustive = SamplingSpec {
                k: usize::MAX / 2,
                ramp: 0,
                reps: 1,
            };
            let ex =
                build_plan_windowed(&tf, exhaustive, seed, cell.warmup, cell.instructions).unwrap();
            let truth = replay_plan(
                &cell,
                None,
                Some(&traces),
                &ex,
                chrome_sim::Kernel::EventDriven,
            );
            let w_ex: Vec<f64> = ex.segments.iter().map(|s| s.weight).collect();
            let full = reconstruct::reconstruct(&w_ex, &truth.results);
            let spec = SamplingSpec::parse(&spec_str).unwrap();
            let mut plan =
                build_plan_windowed(&tf, spec, seed, cell.warmup, cell.instructions).unwrap();
            // SP_RUNS=NxM replaces the clustered plan with N evenly
            // spaced systematic runs of M consecutive intervals each —
            // probes how state error scales with measured-run length.
            if let Ok(runs) = std::env::var("SP_RUNS") {
                let (n_runs, run_len) = runs.split_once('x').unwrap();
                let (n_runs, run_len): (usize, usize) =
                    (n_runs.parse().unwrap(), run_len.parse().unwrap());
                let spacing = ex.segments.len() / n_runs;
                let mut segs = Vec::new();
                for r in 0..n_runs {
                    let i = r * spacing + (spacing - run_len) / 2;
                    let group = &ex.segments[i..i + run_len];
                    segs.push(chrome_simpoint::Segment {
                        interval: group[0].interval,
                        weight: group.iter().map(|s| s.weight).sum(),
                        start: group[0].start.clone(),
                        detail: group.iter().map(|s| s.detail).sum(),
                    });
                }
                plan.detailed_instructions = segs.iter().map(|s| s.detail + plan.spec.ramp).sum();
                plan.segments = segs;
            }
            // SP_PROLOGUE=N prepends a weight-0 timed segment over the
            // last N warmup instructions, mirroring the full run's
            // timed warmup before the first functional gap.
            if let Ok(n) = std::env::var("SP_PROLOGUE") {
                let n: u64 = n.parse().unwrap();
                let n = n.min(cell.warmup);
                if n > 0 {
                    plan.segments.insert(
                        0,
                        chrome_simpoint::Segment {
                            interval: usize::MAX,
                            weight: 0.0,
                            start: vec![cell.warmup - n; 1],
                            detail: n,
                        },
                    );
                    plan.detailed_instructions += n;
                }
            }
            let by_interval: std::collections::HashMap<usize, &chrome_sim::SimResults> = ex
                .segments
                .iter()
                .zip(&truth.results)
                .map(|(s, r)| (s.interval, r))
                .collect();
            let sel: Vec<chrome_sim::SimResults> = plan
                .segments
                .iter()
                .filter(|s| s.interval != usize::MAX)
                .map(|s| by_interval[&s.interval].clone())
                .collect();
            let w_sel: Vec<f64> = plan
                .segments
                .iter()
                .filter(|s| s.interval != usize::MAX)
                .map(|s| s.weight)
                .collect();
            let w: Vec<f64> = plan.segments.iter().map(|s| s.weight).collect();
            let oracle = reconstruct::reconstruct(&w_sel, &sel);
            let real_run = replay_plan(
                &cell,
                None,
                Some(&traces),
                &plan,
                chrome_sim::Kernel::EventDriven,
            );
            let real = reconstruct::reconstruct(&w, &real_run.results);
            let pct = |a: f64, b: f64| 100.0 * (a - b) / b;
            // SP_DETAIL=1 prints per-interval sampled-vs-oracle stat
            // deltas to localize which machine state diverges.
            if std::env::var("SP_DETAIL").as_deref() == Ok("1") {
                for ((seg, s), o) in plan
                    .segments
                    .iter()
                    .zip(&real_run.results)
                    .filter(|(seg, _)| seg.interval != usize::MAX)
                    .zip(&sel)
                {
                    eprintln!(
                        "  iv {:>4} w {:.3}: ipc {:+6.2}% dmiss {:+6.2}% l2pf {:+6.2}% \
                         llcpf {:+6.2}% pfuse {:+6.2}% shed {:+6.2}% [o: dmiss {} l2pf {} shed {}]",
                        seg.interval,
                        seg.weight,
                        pct(s.ipc_sum(), o.ipc_sum()),
                        pct(
                            s.llc.demand_misses as f64,
                            o.llc.demand_misses.max(1) as f64
                        ),
                        pct(
                            s.l2.iter().map(|c| c.prefetch_accesses).sum::<u64>() as f64,
                            o.l2.iter().map(|c| c.prefetch_accesses).sum::<u64>().max(1) as f64
                        ),
                        pct(
                            s.llc.prefetch_accesses as f64,
                            o.llc.prefetch_accesses.max(1) as f64
                        ),
                        pct(
                            s.llc.prefetch_useful as f64,
                            o.llc.prefetch_useful.max(1) as f64
                        ),
                        pct(
                            (s.llc.prefetch_dropped
                                + s.l2.iter().map(|c| c.prefetch_dropped).sum::<u64>())
                                as f64,
                            (o.llc.prefetch_dropped
                                + o.l2.iter().map(|c| c.prefetch_dropped).sum::<u64>())
                            .max(1) as f64
                        ),
                        o.llc.demand_misses,
                        o.l2.iter().map(|c| c.prefetch_accesses).sum::<u64>(),
                        o.llc.prefetch_dropped
                            + o.l2.iter().map(|c| c.prefetch_dropped).sum::<u64>(),
                    );
                }
            }
            eprintln!(
                "{wl}: full ipc {:.4} mpki {:.3} | oracle({}) ipc {:+.2}% mpki {:+.2}% | sampled ipc {:+.2}% mpki {:+.2}%",
                full.ipc,
                full.mpki,
                plan.segments.len(),
                pct(oracle.ipc, full.ipc),
                pct(oracle.mpki, full.mpki),
                pct(real.ipc, full.ipc),
                pct(real.mpki, full.mpki),
            );
        }
    }
}
