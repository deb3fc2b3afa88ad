//! Declarative experiment plans over the grid engine.
//!
//! Every multi-cell experiment is a [`ExperimentPlan`]: a flat list of
//! [`CellSpec`]s plus an `assemble` closure that turns the outcomes
//! (always delivered in cell order) into its output tables. One plan
//! runs standalone through [`run_plans`]; `run_all` concatenates every
//! plan into a single scheduled grid and assembles each experiment from
//! its slice — so the full reproduction shares one work-stealing queue,
//! one checkpoint manifest, and one progress line.

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

/// Every experiment plan, in `run_all` replay order.
#[must_use]
pub fn all_plans(params: &RunParams) -> Vec<ExperimentPlan> {
    vec![
        fig06::plan(params),
        fig02::plan(params),
        fig03::plan(params),
        fig10::plan(params),
        fig12::plan(params),
        fig15::plan(params),
        fig14::plan(params),
        tab07::plan(params),
        fig16::plan(params),
        fig11::plan(params),
        fig13::plan(params),
        fig01::plan(params),
    ]
}

/// Execute one or more plans as a single scheduled grid, assemble and
/// write each experiment's tables, and report failures.
///
/// Unlike the old sequential replay, a failed cell does not abort the
/// run: remaining cells still execute, the failure summary lists every
/// permanently failed cell, and only the final exit code (the returned
/// value) reflects them.
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
    let jobs = EngineConfig {
        jobs: params.jobs.unwrap_or(0),
        ..EngineConfig::default()
    }
    .effective_jobs(total);
    eprintln!(
        "[exec] scheduling {total} cells from {} experiment(s) across {jobs} job(s)",
        plans.len(),
    );
    let report = grid::run_grid(params, cells);
    for (plan, range) in plans.into_iter().zip(ranges) {
        println!("\n########## {} ##########", plan.name);
        for table in (plan.assemble)(&report.outcomes[range]) {
            table.finish().expect("write results");
        }
    }
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
        eprintln!("[exec] permanently failed cells:");
        for (label, err) in &failures {
            eprintln!("[exec]   {label}: {err}");
        }
        1
    }
}
