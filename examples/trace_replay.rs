//! Record → replay: capture a workload to a `.ctf` trace file, then run
//! the same simulation twice — once from the live generator, once
//! streamed back from the file — and verify the results are identical.
//!
//! ```text
//! cargo run --release --example trace_replay
//! ```

use chrome_repro::sim::{SimConfig, System};
use chrome_repro::tracefile::recorder::{build_workload_sources, record_workload};
use chrome_repro::tracefile::TraceFile;

fn main() {
    let workload = "mcf";
    let cores = 2;
    let seed = 42;
    let instructions = 200_000;
    let warmup = 40_000;
    // the recording must cover everything the simulation consumes:
    // warmup + measured instructions, ROB run-ahead, and the extra
    // records early-finishing cores pull while the slowest catches up
    let quota = 4 * (warmup + instructions);

    let dir = std::env::temp_dir().join("chrome-trace-replay-example");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let path = dir.join(format!("{workload}_c{cores}_s{seed}.ctf"));

    println!("recording {cores}-core `{workload}` ({quota} instructions/core)...");
    let manifest =
        record_workload(&path, workload, cores, seed, quota, 100_000).expect("recording succeeds");
    println!(
        "  {} -> {} records, {} instructions, {} bytes ({:.2} bytes/instruction)",
        path.display(),
        manifest.total_records(),
        manifest.total_instructions(),
        manifest.total_stream_bytes(),
        manifest.bytes_per_instruction(),
    );
    println!("  content hash {}\n", manifest.hash_hex());

    println!("running from the live generator...");
    let traces = build_workload_sources(workload, cores, seed).expect("known workload");
    let live = System::new(SimConfig::with_cores(cores), traces).run(instructions, warmup);

    println!("running from the trace file...");
    let tf = TraceFile::open(&path).expect("recorded file validates");
    let replayed = System::new(
        SimConfig::with_cores(cores),
        tf.sources().expect("streamable"),
    )
    .run(instructions, warmup);

    println!("\n                 {:>12} {:>12}", "live", "replay");
    println!(
        "IPC (sum)        {:>12.4} {:>12.4}",
        live.ipc_sum(),
        replayed.ipc_sum()
    );
    println!(
        "LLC demand miss  {:>11.2}% {:>11.2}%",
        100.0 * live.llc.demand_miss_ratio(),
        100.0 * replayed.llc.demand_miss_ratio()
    );
    assert_eq!(replayed, live, "record -> replay must be byte-identical");
    println!("\nlive and replayed SimResults are byte-identical.");
}
