//! End-to-end latency-attribution invariants: every request's per-stage
//! cycles telescope exactly to its end-to-end latency, and the epoch
//! decomposition reconciles with `CamatTracker`'s whole-run totals.
#![cfg(feature = "telemetry")]

use chrome_sim::config::SimConfig;
use chrome_sim::system::System;
use chrome_sim::trace::{RandomSource, StridedSource, TraceSource};
use chrome_telemetry::{TelemetryConfig, TelemetrySink};

fn profiled_system(cores: usize) -> System {
    let traces: Vec<Box<dyn TraceSource>> = (0..cores)
        .map(|i| -> Box<dyn TraceSource> {
            if i % 2 == 0 {
                // streaming: high MLP, lots of overlap
                Box::new(StridedSource::new((i as u64) << 32, 64, 1 << 22, 1))
            } else {
                // random over a large set: frequent DRAM trips
                Box::new(RandomSource::new(
                    (i as u64) << 32,
                    1 << 24,
                    2,
                    0xC0FE + i as u64,
                ))
            }
        })
        .collect();
    let mut sys = System::new(SimConfig::small_test(cores), traces);
    let cfg = TelemetryConfig { profile: true };
    sys.set_telemetry(TelemetrySink::recording(cfg));
    sys
}

/// The tentpole acceptance invariant: per-stage cycle sums equal the
/// end-to-end latency exactly for every completed request (the profiler
/// checks each span at record time and counts violations).
#[test]
fn every_request_stage_sum_equals_latency() {
    let mut sys = profiled_system(2);
    sys.run(40_000, 0);
    sys.telemetry()
        .with(|t| {
            assert!(t.attrib.total_requests() > 1_000, "profiler saw traffic");
            assert_eq!(t.attrib.mismatches(), 0, "stage sums must telescope");
            for span in t.attrib.spans() {
                assert_eq!(span.stage_total(), span.latency(), "sampled span exact");
                assert!(span.end >= span.start);
            }
        })
        .expect("recording sink");
}

/// Profiler ground truth matches `CamatTracker` request-for-request:
/// same LLC demand-access count, same summed (non-overlapped) latency.
#[test]
fn profiler_reconciles_with_camat_tracker() {
    let mut sys = profiled_system(2);
    let results = sys.run(40_000, 0);
    sys.telemetry()
        .with(|t| {
            for (i, c) in results.per_core.iter().enumerate() {
                let (cycles, count) = t.attrib.llc_demand(i);
                assert!(c.llc_accesses > 0, "core {i} reached the LLC");
                assert_eq!(count, c.llc_accesses, "core {i} access count");
                assert_eq!(cycles, c.llc_latency_cycles, "core {i} latency sum");
                assert!(
                    c.llc_latency_cycles >= c.llc_active_cycles,
                    "pure AMAT dominates C-AMAT"
                );
            }
        })
        .expect("recording sink");
}

/// The same reconciliation holds across a warmup boundary: both the
/// profiler and the tracker are reset at measurement start.
#[test]
fn reconciliation_survives_warmup_reset() {
    let mut sys = profiled_system(2);
    let results = sys.run(30_000, 5_000);
    sys.telemetry()
        .with(|t| {
            assert_eq!(t.attrib.mismatches(), 0);
            for (i, c) in results.per_core.iter().enumerate() {
                let (cycles, count) = t.attrib.llc_demand(i);
                assert_eq!(count, c.llc_accesses, "core {i} access count");
                assert_eq!(cycles, c.llc_latency_cycles, "core {i} latency sum");
            }
        })
        .expect("recording sink");
}

/// Per-epoch C-AMAT decomposition sums back to the whole-run totals:
/// the boundary-splitting in `CamatTracker` conserves active cycles and
/// the epoch series carries the same accesses the final stats report.
#[test]
fn epoch_decomposition_sums_to_run_totals() {
    let mut sys = profiled_system(2);
    let results = sys.run(40_000, 0);
    sys.telemetry()
        .with(|t| {
            assert!(t.epochs.len() >= 2, "run spans multiple epochs");
            for (i, c) in results.per_core.iter().enumerate() {
                let active: u64 = t.epochs.records().iter().map(|r| r.llc_active[i]).sum();
                let accesses: u64 = t.epochs.records().iter().map(|r| r.llc_accesses[i]).sum();
                assert_eq!(active, c.llc_active_cycles, "core {i} active cycles");
                assert_eq!(accesses, c.llc_accesses, "core {i} accesses");
            }
        })
        .expect("recording sink");
}

/// MSHR occupancy is sampled at every level into the epoch series.
#[test]
fn epoch_series_samples_private_mshr_occupancy() {
    let mut sys = profiled_system(2);
    sys.run(40_000, 0);
    sys.telemetry()
        .with(|t| {
            for r in t.epochs.records() {
                assert_eq!(r.l1_mshr_occupancy.len(), 2);
                assert_eq!(r.l2_mshr_occupancy.len(), 2);
            }
            // with random DRAM-bound traffic at least one sample should
            // catch a non-empty private MSHR file
            let any_busy = t.epochs.records().iter().any(|r| {
                r.l1_mshr_occupancy.iter().any(|&o| o > 0)
                    || r.l2_mshr_occupancy.iter().any(|&o| o > 0)
            });
            assert!(any_busy, "occupancy probes never fired");
        })
        .expect("recording sink");
}

/// A no-profile recording sink keeps the epoch series but records no
/// spans — the profiler is opt-in even when telemetry is on.
#[test]
fn profiling_is_opt_in() {
    let traces: Vec<Box<dyn TraceSource>> = vec![
        Box::new(StridedSource::new(0, 64, 1 << 20, 1)),
        Box::new(StridedSource::new(1 << 32, 64, 1 << 20, 1)),
    ];
    let mut sys = System::new(SimConfig::small_test(2), traces);
    sys.set_telemetry(TelemetrySink::recording(TelemetryConfig::default()));
    sys.run(20_000, 0);
    sys.telemetry()
        .with(|t| {
            assert!(!t.epochs.is_empty(), "epoch series still recorded");
            assert_eq!(t.attrib.total_requests(), 0, "no spans without profile");
        })
        .expect("recording sink");
}
