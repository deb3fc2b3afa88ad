//! # chrome-exec — parallel experiment execution engine
//!
//! The scheduling substrate for the reproduction's experiment grids.
//! Experiments declare their work as a flat list of [`CellSpec`]s —
//! `(workload, scheme, cores, instructions, seed)` cells, the natural
//! schedulable unit of a simulation campaign — and [`run_grid`]
//! executes them across worker threads with:
//!
//! * **deterministic results** — each cell's trace seed derives from a
//!   stable content hash of its spec ([`CellSpec::workload_seed`]), and
//!   outcomes are returned in input order, so assembled tables are
//!   bit-identical at any `--jobs` count;
//! * **fault isolation** — each cell runs once, as one call on one
//!   worker thread, under `catch_unwind`; a panic becomes a recorded
//!   failure that never aborts the remaining grid, and `--resume` runs
//!   it again;
//! * **checkpoint/resume** — one fsynced JSONL [`manifest`] record per
//!   completed cell; `resume` skips cells whose spec hash already has
//!   an `ok` record and feeds the stored payload back into assembly;
//! * **progress/ETA** — a live stderr line with done/running/failed
//!   counts and per-cell timing.
//!
//! The crate is dependency-free and knows nothing about the simulator:
//! results are any `T: Send` plus a [`Codec`] that (de)serializes them
//! for the manifest. `chrome-bench` supplies the simulation cells.
//! [`cli::Args`] is the command-line parser every workspace binary
//! shares.

pub mod cli;
pub mod engine;
pub mod json;
pub mod manifest;
mod progress;
pub mod spec;

pub use engine::{run_grid, CellOutcome, Codec, EngineConfig, GridReport, StringCodec};
pub use json::JsonValue;
pub use manifest::{load as load_manifest, ManifestRecord, ManifestWriter};
pub use spec::{fnv1a64, splitmix64, workload_seed, CellSpec};
