//! # chrome-bench — the experiment harness
//!
//! One experiment runner, `run_all NAME...`, regenerates any paper
//! figure or table from its plan in [`experiments::EXPERIMENTS`] (Figs.
//! 7–9 come from the cells of `fig06_4core_spec`). Beside it sit the
//! `profile`, `simpoint`, `throughput` and `tldiff` tools and this
//! library of shared runner utilities: a unified policy registry
//! (baselines + CHROME variants), simulation runners with
//! warmup/measure phases, speedup computation against the LRU baseline,
//! and TSV/console table output.

pub mod experiments;
pub mod grid;
pub mod harness;
pub mod registry;
pub mod runner;
pub mod table;

pub use experiments::{run_plans, ExperimentPlan};
pub use grid::{
    resolve_traces, run_cell, run_cell_with_traces, run_grid, simulate_cell, CellResult, TraceMap,
};
pub use registry::{all_schemes, build_any_policy, build_any_slot};
pub use runner::{geomean, RunParams, SchemeResult};
pub use table::TableWriter;
