//! # chrome-forensics — why did CHROME make that decision?
//!
//! The observability capstone over the audit trail
//! ([`chrome_telemetry::AuditLog`]): every CHROME decision — in the
//! hardware LLC simulation and in the serving cache — is recorded with
//! its feature-slice values, per-action Q components, chosen action and
//! eventual reward, then judged offline against a Belady/MIN oracle
//! computed over the very same access sequence.
//!
//! * [`oracle`] — streaming MIN-with-bypass over grouped key sequences
//!   (per LLC set on the hardware path, per shard with genuine slot and
//!   byte budgets on the serve path);
//! * [`report`] — the positional join, divergence judgment,
//!   per-feature Q-delta attribution, reward calibration, and the JSONL
//!   + markdown renderers;
//! * [`simrun`] — audited cycle-simulator runs of grid cells: each is
//!   a [`chrome_exec::CellSpec`] built by [`chrome_bench::cell_system`],
//!   so it replays the grid's trace instances (seeded generators, or a
//!   recorded `.ctf` trace behind a file-backed spec), plus a
//!   standalone raw-trace MIN bound;
//! * [`serverun`] — audited serving-cache runs with an independent
//!   stream-regeneration cross-check of the join.
//!
//! The `forensics` binary drives all of it; the `forensics-smoke` CI
//! job keeps a tiny end-to-end run green.

pub mod oracle;
pub mod report;
pub mod serverun;
pub mod simrun;

pub use oracle::{min_hit_ratio, min_oracle, GroupCapacity, OracleVerdict};
pub use report::{join_segment, judge, render_markdown, summarize, JoinedDecision, Summary};
pub use serverun::{run_serve, ServeRun};
pub use simrun::{
    decision_keys, run_hardware, trace_cell, trace_min_bound, HardwareRun, AUDIT_CAP,
};
