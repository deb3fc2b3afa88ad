//! Miniature figure-shaped benchmarks: each paper experiment's code path
//! exercised end-to-end at a tiny scale, so the bench target touches
//! every experiment without the multi-minute budgets of the real
//! regenerators (run those via `cargo run -p chrome-bench --bin run_all
//! -- <name>`). Each bench runs one grid cell through [`run_cell`], as
//! the experiment plans do.
//!
//! Run with `cargo bench -p chrome-bench --features bench-harness`.

use chrome_bench::experiments::cell;
use chrome_bench::harness::{bench, black_box};
use chrome_bench::{run_cell, RunParams};
use chrome_exec::CellSpec;

fn tiny(workload: &str, scheme: &str, cores: usize) -> CellSpec {
    let params = RunParams {
        cores,
        instructions: 20_000,
        warmup: 2_000,
        ..Default::default()
    };
    cell(&params, "bench", workload, scheme)
}

fn main() {
    let fig06 = tiny("gcc", "CHROME", 4);
    bench("fig06_one_cell(gcc,CHROME,4core)", || {
        black_box(run_cell(&fig06, None))
    });
    let fig10 = tiny("mcf+libquantum+gcc+soplex", "Mockingjay", 4);
    bench("fig10_one_mix(4core,Mockingjay)", || {
        black_box(run_cell(&fig10, None))
    });
    let fig13 = tiny("bfs-ur", "CHROME", 4);
    bench("fig13_one_cell(bfs-ur,CHROME,4core)", || {
        black_box(run_cell(&fig13, None))
    });
    let fig14 = CellSpec {
        prefetch: "ipcp".into(),
        ..tiny("milc", "CARE", 4)
    };
    bench("fig14_one_cell(ipcp,CARE)", || {
        black_box(run_cell(&fig14, None))
    });
    let fig11 = tiny("leslie3d", "LRU", 8);
    bench("fig11_one_cell(8core,LRU)", || {
        black_box(run_cell(&fig11, None))
    });
}
