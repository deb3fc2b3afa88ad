//! Record → replay equivalence: for every registered workload, a system
//! fed from a freshly recorded `.ctf` file produces **byte-identical**
//! `SimResults` and epoch telemetry to one fed from the live generator,
//! under both scheduling kernels.
//!
//! The recording quota must cover everything the simulation will
//! consume (cores run ahead of retirement by the ROB window, and in
//! multi-core systems early finishers keep running to preserve
//! contention); with enough margin the file source never wraps, so the
//! replayed record sequence is exactly the generator's prefix.

use std::path::PathBuf;

use chrome_sim::{Kernel, SimConfig, SimResults, System};
use chrome_telemetry::{EpochSeries, TelemetryConfig, TelemetrySink};
use chrome_tracefile::recorder::{build_workload_sources, record_workload};
use chrome_tracefile::TraceFile;

const INSTRUCTIONS: u64 = 3_000;
const WARMUP: u64 = 300;

fn tmpdir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("chrome-replay-equiv-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn run_system(
    traces: Vec<Box<dyn chrome_sim::trace::TraceSource>>,
    cores: usize,
    kernel: Kernel,
) -> (SimResults, EpochSeries) {
    let mut sys = System::new(SimConfig::with_cores(cores), traces);
    sys.set_telemetry(TelemetrySink::recording(TelemetryConfig::default()));
    let results = sys.run_with_kernel(INSTRUCTIONS, WARMUP, kernel);
    let epochs = sys
        .telemetry()
        .with(|t| t.epochs.clone())
        .unwrap_or_default();
    (results, epochs)
}

fn assert_equivalent(workload: &str, cores: usize, seed: u64, quota: u64) {
    let path = tmpdir().join(format!("{}_c{cores}.ctf", workload.replace('+', "-")));
    record_workload(&path, workload, cores, seed, quota, 1_000)
        .unwrap_or_else(|e| panic!("recording {workload}: {e}"));
    let tf = TraceFile::open(&path).unwrap();
    for kernel in [Kernel::EventDriven, Kernel::Reference] {
        let live = run_system(
            build_workload_sources(workload, cores, seed).unwrap(),
            cores,
            kernel,
        );
        let replayed = run_system(tf.sources().unwrap(), cores, kernel);
        assert_eq!(
            replayed.0, live.0,
            "{workload} ({kernel:?}): SimResults diverged between live and replay"
        );
        assert_eq!(
            replayed.1, live.1,
            "{workload} ({kernel:?}): epoch telemetry diverged between live and replay"
        );
    }
}

#[test]
fn every_registered_workload_replays_identically() {
    // single-core consumption is bounded by warmup + instructions plus
    // the ROB run-ahead; 4x the budget is far beyond that
    let quota = 4 * (WARMUP + INSTRUCTIONS);
    for (i, workload) in chrome_traces::all_workloads().iter().enumerate() {
        assert_equivalent(workload, 1, 0x5EED + i as u64, quota);
    }
}

#[test]
fn heterogeneous_mix_replays_identically() {
    // early-finishing cores keep running until the slowest meets its
    // quota, so multi-core consumption needs a much larger margin
    let quota = 40 * (WARMUP + INSTRUCTIONS);
    assert_equivalent("mcf+libquantum", 2, 0x0DDB, quota);
}
