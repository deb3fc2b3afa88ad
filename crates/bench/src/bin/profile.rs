//! Latency-attribution profile of one (workload, scheme) cell.
//!
//! Runs the simulator with the per-request span profiler enabled, prints
//! the where-cycles-go attribution report, and cross-checks the
//! profiler's ground truth against `CamatTracker`'s decomposition
//! (pure AMAT vs C-AMAT vs overlap savings) and the DRAM model's running
//! latency estimate. Exits non-zero if any reconciliation fails, which
//! is what the CI perf-smoke job keys on.
//!
//! ```text
//! profile [--workload W | --mix a,b,...] [--scheme S] [--bench-json FILE]
//!         [--cores N] [--instructions N] [--warmup N] [--seed N] [--quick]
//!         [--full] [--noc slices=..,hop=..,..] [--telemetry-out DIR]
//! ```
//!
//! The workload defaults to `mcf` and the scheme to `CHROME`; `--mix`
//! wins over `--workload` and runs one core per member. The other flags
//! are the experiment flags of the same names. An unknown workload or
//! scheme is a usage error, found before the cell runs. With
//! `--telemetry-out DIR` the full artifact set is exported
//! (`*_attrib.csv`, `*_attrib.txt`, `*_trace.json` with request spans,
//! epoch series); with `--bench-json FILE` a machine-readable summary
//! (sims/sec + attribution sums) is written for trend tracking.

use std::time::Instant;

use chrome_bench::experiments::cell;
use chrome_bench::{build_any_slot, simulate_cell, RunParams, SchemeResult};
use chrome_exec::cli::Args;
use chrome_telemetry::export::attrib_text;
use chrome_telemetry::Stage;

fn main() {
    let mut args = Args::new(
        "[--workload W | --mix a,b,...] [--scheme S] [--bench-json FILE]\n\
         \x20      [--cores N] [--instructions N] [--warmup N] [--seed N] [--quick]\n\
         \x20      [--full] [--noc slices=..,hop=..,..] [--telemetry-out DIR]",
    );
    let mut params = RunParams::default();
    let (mut workload, mut mix) = ("mcf".to_string(), None);
    let mut scheme = "CHROME".to_string();
    let mut json_out = None;
    let all = chrome_traces::all_workloads();
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--workload" => {
                workload = args.value(&flag);
                if !all.contains(&workload.as_str()) {
                    args.bad(&format!("unknown workload {workload}"));
                }
            }
            "--mix" => {
                mix = Some(args.names(&flag, "workload", |w| {
                    all.contains(&w).then(|| w.to_string())
                }))
            }
            "--scheme" => {
                scheme = args.value(&flag);
                if build_any_slot(&scheme).is_none() {
                    args.bad(&format!("unknown scheme {scheme}"));
                }
            }
            "--bench-json" => json_out = Some(args.value(&flag)),
            "--cores" | "--instructions" | "--warmup" | "--seed" | "--quick" | "--full"
            | "--noc" | "--telemetry-out" => {
                params.flag(&flag, &mut args);
            }
            _ => args.unknown(&flag),
        }
    }
    // a mix runs one core per member, as a `+`-joined grid workload
    if let Some(names) = mix {
        params.cores = names.len();
        workload = names.join("+");
    }
    let spec = cell(&params, "profile", &workload, &scheme);

    let t0 = Instant::now();
    let r = simulate_cell(&spec, params.telemetry_out.as_deref(), None, true);
    let elapsed = t0.elapsed().as_secs_f64();

    let attrib = r.attrib.as_ref().expect("profiling run returns attrib");
    println!("== profile: {workload} / {scheme} ==");
    println!(
        "cores={} instructions={}/core warmup={} elapsed={elapsed:.2}s",
        params.cores, params.instructions, params.warmup
    );
    println!();
    print!("{}", attrib_text(attrib));
    println!();

    decomposition_report(&r);

    let failures = reconcile(&r);
    if let Some(path) = json_out {
        let json = bench_json(&params, &r, elapsed, failures.is_empty());
        std::fs::write(&path, json).unwrap_or_else(|e| panic!("writing {path}: {e}"));
        println!("wrote {path}");
    }
    if !failures.is_empty() {
        for f in &failures {
            eprintln!("RECONCILIATION FAILURE: {f}");
        }
        std::process::exit(1);
    }
    println!("reconciliation: OK");
}

/// Cross-check the profiler against the C-AMAT tracker and DRAM model.
fn decomposition_report(r: &SchemeResult) {
    let attrib = r.attrib.as_ref().unwrap();
    println!("-- decomposition cross-check (profiler vs CamatTracker) --");
    println!(
        "{:<6} {:>10} {:>12} {:>12} {:>12} {:>12}",
        "core", "llc_acc", "AMAT(prof)", "AMAT(camat)", "C-AMAT", "overlap"
    );
    for (i, c) in r.results.per_core.iter().enumerate() {
        let (cycles, count) = attrib.llc_demand(i);
        let prof_amat = if count == 0 {
            0.0
        } else {
            cycles as f64 / count as f64
        };
        println!(
            "{i:<6} {:>10} {:>12.2} {:>12.2} {:>12.2} {:>12.2}",
            c.llc_accesses,
            prof_amat,
            c.amat_llc(),
            c.camat_llc(),
            c.overlap_savings_llc(),
        );
    }
    let combined = attrib.combined();
    let dram_cycles: u64 = [Stage::DramQueue, Stage::DramService, Stage::DramTransfer]
        .iter()
        .map(|&s| combined.stages[s as usize])
        .sum();
    println!(
        "DRAM: avg_read_latency(model)={:.1} cycles; profiler DRAM-stage share={:.1}% of {} \
         attributed cycles",
        r.results.dram_avg_latency,
        if combined.latency_cycles == 0 {
            0.0
        } else {
            100.0 * dram_cycles as f64 / combined.latency_cycles as f64
        },
        combined.latency_cycles,
    );
    println!();
}

/// Hard invariants; any violation fails the run.
fn reconcile(r: &SchemeResult) -> Vec<String> {
    let attrib = r.attrib.as_ref().unwrap();
    let mut failures = Vec::new();
    if !cfg!(feature = "telemetry") {
        // the hot path compiles the profiler out; nothing to reconcile
        return failures;
    }
    if attrib.total_requests() == 0 {
        failures.push("profiler recorded no requests".to_string());
    }
    if attrib.mismatches() != 0 {
        failures.push(format!(
            "{} spans whose stage sums != end-to-end latency",
            attrib.mismatches()
        ));
    }
    for (i, c) in r.results.per_core.iter().enumerate() {
        let (cycles, count) = attrib.llc_demand(i);
        if count != c.llc_accesses {
            failures.push(format!(
                "core {i}: profiler saw {count} LLC demand requests, CamatTracker {}",
                c.llc_accesses
            ));
        }
        if cycles != c.llc_latency_cycles {
            failures.push(format!(
                "core {i}: profiler LLC latency sum {cycles} != CamatTracker {}",
                c.llc_latency_cycles
            ));
        }
    }
    failures
}

fn bench_json(params: &RunParams, r: &SchemeResult, elapsed: f64, reconciled: bool) -> String {
    let attrib = r.attrib.as_ref().unwrap();
    let combined = attrib.combined();
    let total_instr = params.instructions * params.cores as u64;
    let sims_per_sec = if elapsed > 0.0 {
        total_instr as f64 / elapsed
    } else {
        0.0
    };
    let stage_sums: Vec<String> = Stage::ALL
        .iter()
        .map(|&s| format!("\"{}\":{}", s.name(), combined.stages[s as usize]))
        .collect();
    format!(
        "{{\"name\":\"profile_smoke\",\"cores\":{},\"instructions\":{},\"elapsed_sec\":{:.3},\
         \"sims_per_sec\":{:.1},\"requests\":{},\"mismatches\":{},\
         \"attrib_latency_cycles\":{},\"attrib_stage_cycles\":{{{}}},\"reconciled\":{}}}\n",
        params.cores,
        total_instr,
        elapsed,
        sims_per_sec,
        attrib.total_requests(),
        attrib.mismatches(),
        combined.latency_cycles,
        stage_sums.join(","),
        reconciled,
    )
}
