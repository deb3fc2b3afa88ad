//! NoC scaling sweep: CHROME vs LRU at 16 and 64 cores with the mesh
//! NoC on and the LLC sliced one-per-four-cores.
//!
//! Thin wrapper: builds the plan and executes it on the grid engine
//! (`--jobs`, `--retries`, `--resume`, `--manifest`). `--mixes N`
//! controls heterogeneous mixes per core count; `--noc` is accepted but
//! the plan supplies its own per-cell value.

use chrome_bench::experiments::scaling;
use chrome_bench::{run_plans, RunParams};

fn main() {
    let params = RunParams::from_args();
    std::process::exit(run_plans(&params, vec![scaling::plan(&params)]));
}
