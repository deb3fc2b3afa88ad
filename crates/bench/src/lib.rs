//! # chrome-bench — the experiment harness
//!
//! One experiment runner, `run_all NAME...`, regenerates any paper
//! figure or table from its plan in [`experiments::EXPERIMENTS`] (Figs.
//! 7–9 come from the cells of `fig06_4core_spec`). Beside it sit the
//! `profile`, `simpoint`, `throughput` and `tldiff` tools and this
//! library: a unified policy registry (baselines + CHROME variants),
//! the one machine builder [`grid::cell_system`] with the full and
//! sampled cell runners on top of it, speedup computation against the
//! LRU baseline, and TSV/console table output.
//!
//! Every hardware simulation a tool runs is a [`chrome_exec::CellSpec`]
//! built by [`grid::cell_system`], including `forensics sim` in
//! `chrome-forensics`, so a tool replays the traces of the grid cell
//! its spec names: the recorded `.ctf` file of a file-backed spec, or
//! generators seeded by [`chrome_exec::CellSpec::workload_seed`].

pub mod experiments;
pub mod grid;
pub mod harness;
pub mod registry;
pub mod runner;
pub mod table;

pub use experiments::{run_plans, ExperimentPlan};
pub use grid::{
    cell_system, resolve_traces, run_cell, run_cell_with_traces, run_grid, sampled_cell,
    simulate_cell, CellResult, SchemeResult, TraceMap,
};
pub use registry::{all_schemes, build_any_policy, build_any_slot};
pub use runner::{geomean, RunParams};
pub use table::TableWriter;
