//! Quick end-to-end sanity check: CHROME vs LRU on a few workloads.
//! Not a paper experiment; used to validate the stack and gauge speed.
//! Each (workload, scheme) pair runs as the grid cell a plan would
//! build from the same flags.

use std::time::Instant;

use chrome_bench::experiments::cell;
use chrome_bench::{simulate_cell, RunParams};

fn main() {
    let params = RunParams::from_args();
    println!("params: {params:?}");
    for wl in ["libquantum", "mcf", "soplex", "gcc"] {
        for scheme in [
            "LRU",
            "SHiP++",
            "Hawkeye",
            "Glider",
            "Mockingjay",
            "CARE",
            "CHROME",
        ] {
            let t0 = Instant::now();
            let spec = cell(&params, "sanity", wl, scheme);
            let r = simulate_cell(&spec, params.telemetry_out.as_deref(), None, false);
            let dt = t0.elapsed().as_secs_f64();
            let l1 = &r.results.l1d[0];
            println!(
                "{wl:<12} {scheme:<11} ipc={:.3} llcM%={:.0} ephr={:.2} byp={:.2} \
                 l1m%={:.0} l1pf={} llc_dA={} llc_pA={} dram_r={} dlat={:.0} [{dt:.1}s]",
                r.results.ipc_sum(),
                100.0 * r.results.llc.demand_miss_ratio(),
                r.results.llc.ephr(),
                r.results.llc.bypass_coverage(),
                100.0 * l1.demand_miss_ratio(),
                l1.prefetch_fills,
                r.results.llc.demand_accesses,
                r.results.llc.prefetch_accesses,
                r.results.dram_reads,
                r.results.dram_avg_latency,
            );
        }
    }
}
