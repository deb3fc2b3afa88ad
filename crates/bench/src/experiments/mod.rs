//! Declarative experiment plans over the grid engine.
//!
//! Every experiment is an [`ExperimentPlan`]: a flat list of
//! [`CellSpec`]s plus an `assemble` closure that turns the outcomes
//! (always delivered in cell order) into its output tables. Each plan
//! is registered once, under its table name, in [`EXPERIMENTS`];
//! `run_all NAME...` builds the named plans, [`run_plans`] concatenates
//! them into a single scheduled grid and assembles each experiment from
//! its slice — so any selection shares one cell queue, one checkpoint
//! manifest, and one progress line.

pub mod fig01;
pub mod fig02;
pub mod fig03;
pub mod fig06;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod fig16;
pub mod overheads;
pub mod sampling;
pub mod scaling;
pub mod tab07;

use chrome_exec::{CellOutcome, CellSpec, EngineConfig};

use crate::grid::{self, CellResult};
use crate::runner::RunParams;
use crate::table::TableWriter;

/// Closure assembling an experiment's tables from its cell outcomes.
pub type AssembleFn = Box<dyn FnOnce(&[CellOutcome<CellResult>]) -> Vec<TableWriter> + Send>;

/// One experiment: its simulation cells and its table assembly.
pub struct ExperimentPlan {
    /// Experiment name (also the primary TSV name).
    pub name: &'static str,
    /// Simulation cells, in the order `assemble` expects them.
    pub cells: Vec<CellSpec>,
    /// Turns outcomes (in cell order) into finished tables.
    pub assemble: AssembleFn,
}

impl std::fmt::Debug for ExperimentPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExperimentPlan")
            .field("name", &self.name)
            .field("cells", &self.cells.len())
            .finish_non_exhaustive()
    }
}

/// Build a cell with the run-wide defaults from `params`.
pub fn cell(
    params: &RunParams,
    experiment: &'static str,
    workload: &str,
    scheme: &str,
) -> CellSpec {
    CellSpec {
        experiment: experiment.to_string(),
        workload: workload.to_string(),
        scheme: scheme.to_string(),
        cores: params.cores as u32,
        instructions: params.instructions,
        warmup: params.warmup,
        seed: params.seed,
        prefetch: "paper".to_string(),
        track_unused: false,
        record_epochs: false,
        trace: String::new(),
        sampling: String::new(),
        noc: params.noc.clone(),
    }
}

/// Apply the `--homo-workloads` cap (when given) to a workload list.
pub(crate) fn limit<T>(items: Vec<T>, cap: Option<usize>) -> Vec<T> {
    match cap {
        Some(n) => items.into_iter().take(n).collect(),
        None => items,
    }
}

/// One registered experiment: its table name, its plan, and whether
/// the default replay (`run_all` with no name) runs it.
#[derive(Debug)]
pub struct Experiment {
    /// The experiment's (and its primary TSV's) name.
    pub name: &'static str,
    /// Builds the experiment's plan from the run flags.
    pub plan: fn(&RunParams) -> ExperimentPlan,
    /// Part of the default replay.
    pub replay: bool,
}

const fn replayed(name: &'static str, plan: fn(&RunParams) -> ExperimentPlan) -> Experiment {
    Experiment {
        name,
        plan,
        replay: true,
    }
}

/// Every experiment, in registry order: the order `run_all` runs and
/// assembles a selection in.
pub const EXPERIMENTS: [Experiment; 15] = [
    replayed("tab03_overhead", overheads::tab03),
    replayed("tab04_overhead_cmp", overheads::tab04),
    replayed("fig06_4core_spec", fig06::plan),
    replayed("fig02_unused_blocks", fig02::plan),
    replayed("fig03_prefetcher_sensitivity", fig03::plan),
    replayed("fig10_hetero_4core", fig10::plan),
    replayed("fig12_nchrome", fig12::plan),
    replayed("fig15_features", fig15::plan),
    replayed("fig14_prefetch_schemes", fig14::plan),
    replayed("tab07_fifo_size", tab07::plan),
    replayed("fig16_hyperparams", fig16::plan),
    replayed("fig11_scalability", fig11::plan),
    replayed("fig13_gap", fig13::plan),
    replayed("fig01_16core", fig01::plan),
    // the NoC sweep runs only when named
    Experiment {
        name: "scaling_sweep",
        plan: scaling::plan,
        replay: false,
    },
];

/// The plans of the experiments `names` selects, each once, in registry
/// order; no name selects the default replay. A name outside
/// [`EXPERIMENTS`] selects nothing.
#[must_use]
pub fn plans(params: &RunParams, names: &[&str]) -> Vec<ExperimentPlan> {
    EXPERIMENTS
        .iter()
        .filter(|e| {
            if names.is_empty() {
                e.replay
            } else {
                names.contains(&e.name)
            }
        })
        .map(|e| (e.plan)(params))
        .collect()
}

/// Execute one or more plans as a single scheduled grid, assemble and
/// write each experiment's tables, and report failures. A selection
/// without cells (Tables III and IV alone) skips the grid and never
/// opens the manifest.
///
/// A failed cell does not abort the run: remaining cells still
/// execute, the failure summary lists every failed cell, and only the
/// final exit code (the returned value) reflects them.
///
/// # Panics
///
/// Panics when result tables or the checkpoint manifest cannot be
/// written.
#[must_use]
pub fn run_plans(params: &RunParams, plans: Vec<ExperimentPlan>) -> i32 {
    let total: usize = plans.iter().map(|p| p.cells.len()).sum();
    let mut cells = Vec::with_capacity(total);
    let mut ranges = Vec::with_capacity(plans.len());
    for p in &plans {
        let start = cells.len();
        cells.extend(p.cells.iter().cloned());
        ranges.push(start..cells.len());
    }
    let report = (total > 0).then(|| {
        let jobs = EngineConfig {
            jobs: params.jobs.unwrap_or(0),
            ..EngineConfig::default()
        }
        .effective_jobs(total);
        eprintln!(
            "[exec] scheduling {total} cells from {} experiment(s) across {jobs} job(s)",
            plans.len(),
        );
        grid::run_grid(params, cells)
    });
    let outcomes = report.as_ref().map_or(&[][..], |r| &r.outcomes[..]);
    for (plan, range) in plans.into_iter().zip(ranges) {
        println!("\n########## {} ##########", plan.name);
        for table in (plan.assemble)(&outcomes[range]) {
            table.finish().expect("write results");
        }
    }
    let Some(report) = report else {
        return 0;
    };
    let ok = report.outcomes.len() - report.failed;
    eprintln!(
        "[exec] grid complete: {ok}/{} ok ({} resumed, {} executed), {} failed, {:.1}s wall",
        report.outcomes.len(),
        report.resumed,
        report.executed,
        report.failed,
        report.wall_ms as f64 / 1000.0,
    );
    let failures = report.failures();
    if failures.is_empty() {
        0
    } else {
        eprintln!("[exec] failed cells:");
        for (label, err) in &failures {
            eprintln!("[exec]   {label}: {err}");
        }
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(plans: &[ExperimentPlan]) -> Vec<&'static str> {
        plans.iter().map(|p| p.name).collect()
    }

    #[test]
    fn each_name_selects_its_own_plan_and_the_default_is_the_replay() {
        let params = RunParams::default();
        let mut registered: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
        for name in &registered {
            assert_eq!(names(&plans(&params, &[name])), [*name]);
        }
        registered.sort_unstable();
        registered.dedup();
        assert_eq!(registered.len(), EXPERIMENTS.len(), "names are unique");
        assert_eq!(
            names(&plans(&params, &[])),
            [
                "tab03_overhead",
                "tab04_overhead_cmp",
                "fig06_4core_spec",
                "fig02_unused_blocks",
                "fig03_prefetcher_sensitivity",
                "fig10_hetero_4core",
                "fig12_nchrome",
                "fig15_features",
                "fig14_prefetch_schemes",
                "tab07_fifo_size",
                "fig16_hyperparams",
                "fig11_scalability",
                "fig13_gap",
                "fig01_16core",
            ]
        );
    }

    #[test]
    fn a_selection_runs_each_plan_once_in_registry_order() {
        let params = RunParams::default();
        let picked = plans(
            &params,
            &["scaling_sweep", "fig12_nchrome", "scaling_sweep", "nope"],
        );
        assert_eq!(names(&picked), ["fig12_nchrome", "scaling_sweep"]);
    }
}
