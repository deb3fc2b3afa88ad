//! Sampling validation: sampled-vs-full error table.
//!
//! For every workload, two cells run against the same recorded trace:
//! a full simulation (warmup + measured budget) and a representative-
//! interval sampled replay of the same budget. The assembled
//! `sampling_validation.tsv` lists, per workload, the full and
//! reconstructed IPC / MPKI / C-AMAT, their relative errors, and the
//! detail-reduction factor — the table the `simpoint validate` gate
//! (±3% IPC and MPKI at ≥10x reduction) asserts over.
//!
//! [`cells`] is the only producer of sampled cells: each one is paired
//! with the full cell it is measured against.

use chrome_exec::CellOutcome;
use chrome_simpoint::ErrorRow;
use chrome_traces::all_workloads;

use super::{cell, limit};
use crate::grid::{cell_value, CellResult};
use crate::runner::RunParams;
use crate::table::TableWriter;

/// Experiment name (and primary TSV name).
pub const NAME: &str = "sampling_validation";

/// The validation workload list: every registered workload, capped by
/// `--homo-workloads`.
#[must_use]
pub fn workloads(params: &RunParams) -> Vec<String> {
    limit(
        all_workloads().into_iter().map(str::to_string).collect(),
        params.homo_workloads,
    )
}

/// Build the paired cell list: `[full, sampled]` per workload, in
/// workload order. Both cells share the workload identity (and thus the
/// trace); only the sampled one carries the sampling spec.
#[must_use]
pub fn cells(
    params: &RunParams,
    workloads: &[String],
    scheme: &str,
    sampling: &str,
) -> Vec<chrome_exec::CellSpec> {
    let mut out = Vec::with_capacity(workloads.len() * 2);
    for wl in workloads {
        let full = cell(params, NAME, wl, scheme);
        let mut sampled = full.clone();
        sampled.sampling = sampling.to_string();
        out.push(full);
        out.push(sampled);
    }
    out
}

/// Pair the outcomes back into per-workload [`ErrorRow`]s. Workloads
/// whose full or sampled cell failed are skipped (they surface through
/// the grid's failure report instead).
#[must_use]
pub fn error_rows(workloads: &[String], out: &[CellOutcome<CellResult>]) -> Vec<ErrorRow> {
    let mut rows = Vec::with_capacity(workloads.len());
    for (i, wl) in workloads.iter().enumerate() {
        let (Some(full), Some(sampled)) = (cell_value(out, 2 * i), cell_value(out, 2 * i + 1))
        else {
            continue;
        };
        rows.push(ErrorRow {
            workload: wl.clone(),
            full_ipc: full.ipc_sum(),
            sampled_ipc: sampled.ipc_sum(),
            full_mpki: full.report_metric("mpki").unwrap_or(f64::NAN),
            sampled_mpki: sampled.report_metric("mpki").unwrap_or(f64::NAN),
            full_camat: full.report_metric("camat").unwrap_or(f64::NAN),
            sampled_camat: sampled.report_metric("camat").unwrap_or(f64::NAN),
            reduction: sampled.report_metric("detail_reduction").unwrap_or(0.0),
        });
    }
    rows
}

/// Render the error rows as the `sampling_validation` table.
#[must_use]
pub fn table(rows: &[ErrorRow]) -> TableWriter {
    let header = ErrorRow::header();
    let names: Vec<&str> = header.split('\t').collect();
    let mut t = TableWriter::new(NAME, &names);
    for r in rows {
        t.row(r.render().split('\t').map(str::to_string).collect());
    }
    t
}
