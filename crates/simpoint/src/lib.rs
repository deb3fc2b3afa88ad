//! # chrome-simpoint — representative-interval sampling
//!
//! SimPoint-style sampled simulation over `.ctf` trace files ("Improving
//! the Representativeness of Simulation Intervals for the Cache Memory
//! System"; Sherwood et al.'s SimPoint; SMARTS-style functional warmup):
//!
//! * [`features`] — the per-interval feature matrix the planner
//!   clusters and `simpoint inspect` prints ([`trace_features`]): the
//!   footer's `IntervalStats` scalars (memory intensity,
//!   store/dependence mix, footprint, reuse, span, position), hashed
//!   4 KiB-region histograms and functional-pass covariates.
//! * [`kmeans`] — deterministic k-means++ (seeded from
//!   `chrome_exec::workload_seed`, fixed iteration order, lowest-index
//!   tie-breaks) over those vectors; every run of the same trace and
//!   spec picks identical representatives at any job count.
//! * [`plan`] — turns cluster representatives into a
//!   [`chrome_sim::SampledInterval`] replay plan: per-core start
//!   positions from the per-core interval sums, a detailed-but-
//!   unmeasured timing ramp, and instruction-share cluster weights.
//! * [`reconstruct`](mod@reconstruct) — weighted reconstruction of full-run IPC / MPKI /
//!   C-AMAT from the per-interval `SimResults`, plus the sampled-vs-full
//!   error rows the `simpoint validate` gate asserts on.

pub mod features;
pub mod kmeans;
pub mod plan;
pub mod reconstruct;

pub use features::{trace_features, FeatureSet};
pub use kmeans::{cluster, Clustering};
pub use plan::{build_plan, build_plan_windowed, SamplingSpec, Segment, WorkloadPlan};
pub use reconstruct::{
    aggregate_camat, aggregate_ipc, aggregate_mpki, reconstruct, ErrorRow, Reconstructed,
};
