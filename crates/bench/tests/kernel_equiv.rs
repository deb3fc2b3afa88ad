//! Differential tests: the event-driven scheduling kernel must be a
//! pure scheduling transform. For every policy, core count, prefetcher
//! setting, mesh-NoC geometry and a fan of randomized configurations,
//! running the same workload under [`Kernel::EventDriven`] and
//! [`Kernel::Reference`] must produce byte-identical [`SimResults`]
//! (including obstruction vectors) and identical epoch telemetry series.
//!
//! The `noc_*` cases turn the mesh on, so LLC latency is no longer
//! uniform (per-slice routing, link contention) and the event kernel's
//! clock jumps must stay exact anyway.

use chrome_bench::registry::{all_schemes, build_any_policy};
use chrome_noc::NocConfig;
use chrome_sim::{Kernel, SimConfig, System};
use chrome_telemetry::{EpochSeries, TelemetryConfig, TelemetrySink};
use chrome_traces::mix;

/// Run one scheme/workload/config under `kernel` with a recording
/// telemetry sink; returns the results plus the full epoch series.
fn run_kernel(
    cfg: &SimConfig,
    workload: &str,
    scheme: &str,
    instructions: u64,
    warmup: u64,
    kernel: Kernel,
) -> (chrome_sim::SimResults, EpochSeries) {
    let traces = mix::homogeneous(workload, cfg.cores, 0xD1FF).expect("known workload");
    let policy = build_any_policy(scheme).expect("known scheme");
    let mut sys = System::with_policy(cfg.clone(), traces, policy);
    sys.set_telemetry(TelemetrySink::recording(TelemetryConfig::default()));
    let results = sys.run_with_kernel(instructions, warmup, kernel);
    let epochs = sys
        .telemetry()
        .with(|t| t.epochs.clone())
        .unwrap_or_default();
    (results, epochs)
}

/// Assert both kernels agree exactly on one cell.
fn assert_equivalent(
    cfg: &SimConfig,
    workload: &str,
    scheme: &str,
    instructions: u64,
    warmup: u64,
) {
    let (r_ref, e_ref) = run_kernel(
        cfg,
        workload,
        scheme,
        instructions,
        warmup,
        Kernel::Reference,
    );
    let (r_evt, e_evt) = run_kernel(
        cfg,
        workload,
        scheme,
        instructions,
        warmup,
        Kernel::EventDriven,
    );
    assert_eq!(
        r_ref, r_evt,
        "SimResults diverged: {scheme} on {workload}, {} cores",
        cfg.cores
    );
    // Obstruction vectors ride inside SimResults, but call them out so a
    // divergence names the field immediately.
    for (i, (a, b)) in r_ref.per_core.iter().zip(&r_evt.per_core).enumerate() {
        assert_eq!(
            (a.obstructed_epochs, a.total_epochs),
            (b.obstructed_epochs, b.total_epochs),
            "obstruction vector diverged at core {i}: {scheme} on {workload}"
        );
    }
    assert_eq!(
        e_ref.records(),
        e_evt.records(),
        "epoch series diverged: {scheme} on {workload}, {} cores",
        cfg.cores
    );
    assert_eq!(e_ref, e_evt, "EpochSeries equality must match records()");
}

/// Every LLC policy of the paper lineup, at a multicore size, with the
/// default prefetchers — the main byte-identity sweep.
#[test]
fn every_policy_is_kernel_invariant_multicore() {
    let cfg = SimConfig::small_test(4);
    for scheme in all_schemes() {
        assert_equivalent(&cfg, "mcf", scheme, 8_000, 800);
    }
}

/// Single-core runs exercise the degenerate rotation (`n == 1`) where
/// every cycle has exactly one candidate core.
#[test]
fn every_policy_is_kernel_invariant_single_core() {
    let cfg = SimConfig::small_test(1);
    for scheme in all_schemes() {
        assert_equivalent(&cfg, "libquantum", scheme, 10_000, 1_000);
    }
}

/// Eight cores stress partial-stall phases: some cores skipped, some
/// stepped, within the same cycle.
#[test]
fn eight_core_mixed_phases_are_kernel_invariant() {
    let cfg = SimConfig::small_test(8);
    for scheme in ["LRU", "CHROME"] {
        assert_equivalent(&cfg, "mcf", scheme, 5_000, 500);
    }
}

/// Prefetchers off: clock jumps become longer (no prefetch traffic to
/// absorb DRAM slack), exercising the jump path harder.
#[test]
fn prefetchers_off_is_kernel_invariant() {
    let mut cfg = SimConfig::small_test(4);
    cfg.prefetchers = chrome_sim::PrefetcherConfig::none();
    for scheme in ["LRU", "Hawkeye", "CHROME"] {
        assert_equivalent(&cfg, "mcf", scheme, 8_000, 800);
    }
}

/// Zero warmup: the measurement boundary coincides with cycle 0, a
/// corner where a stale warmup-loop jump could shift epoch numbering.
#[test]
fn zero_warmup_is_kernel_invariant() {
    let cfg = SimConfig::small_test(2);
    assert_equivalent(&cfg, "lbm", "LRU", 8_000, 0);
}

/// Randomized configurations: a deterministic xorshift walk over core
/// counts, ROB geometry, epoch lengths and workloads. Catches corner
/// interactions (tiny epochs force jump clamping; tiny ROBs force
/// near-permanent stall) that the fixed sweeps miss.
#[test]
fn randomized_configs_are_kernel_invariant() {
    let mut state: u64 = 0x9E3779B97F4A7C15;
    let mut next = move |bound: u64| {
        // xorshift64* — deterministic, no external entropy
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        (state.wrapping_mul(0x2545F4914F6CDD1D) >> 33) % bound
    };
    let workloads = ["mcf", "libquantum", "omnetpp", "xz"];
    let schemes = ["LRU", "Glider", "CARE", "CHROME"];
    for trial in 0..6 {
        let cores = [1usize, 2, 4, 8][next(4) as usize];
        let mut cfg = SimConfig::small_test(cores);
        cfg.rob_size = [32usize, 64, 192][next(3) as usize];
        cfg.width = [2usize, 4][next(2) as usize];
        cfg.epoch_cycles = [2_500u64, 10_000, 40_000][next(3) as usize];
        if next(2) == 0 {
            cfg.prefetchers = chrome_sim::PrefetcherConfig::none();
        }
        let workload = workloads[next(4) as usize];
        let scheme = schemes[next(4) as usize];
        eprintln!(
            "trial {trial}: {scheme} on {workload}, {cores} cores, rob {}, epoch {}",
            cfg.rob_size, cfg.epoch_cycles
        );
        assert_equivalent(&cfg, workload, scheme, 4_000, 400);
    }
}

/// A default 4-slice mesh config sized for the small-test LLC.
fn noc_on(cores: usize) -> SimConfig {
    let mut cfg = SimConfig::small_test(cores);
    cfg.noc = Some(NocConfig::default());
    cfg
}

/// NoC on, 4 cores: routing and contention state must be insensitive to
/// the kernel.
#[test]
fn noc_four_cores_are_kernel_invariant() {
    let cfg = noc_on(4);
    for scheme in ["LRU", "Hawkeye", "CHROME"] {
        assert_equivalent(&cfg, "mcf", scheme, 6_000, 600);
    }
}

/// Every registered policy under the mesh — the broad sweep at a
/// smaller budget.
#[test]
fn noc_every_policy_is_kernel_invariant() {
    let cfg = noc_on(4);
    for scheme in all_schemes() {
        assert_equivalent(&cfg, "libquantum", scheme, 4_000, 400);
    }
}

/// Sixteen cores on a 4×4 mesh make multi-hop routes common.
#[test]
fn noc_sixteen_cores_are_kernel_invariant() {
    assert_equivalent(&noc_on(16), "mcf", "CHROME", 3_000, 300);
}

/// Single core behind the mesh: one candidate per cycle, every access
/// still crosses the NoC.
#[test]
fn noc_single_core_is_kernel_invariant() {
    assert_equivalent(&noc_on(1), "libquantum", "LRU", 6_000, 600);
}

/// Slice-count sweep: 1, 2 and 8 slices change the set-to-slice map and
/// the mesh footprint.
#[test]
fn noc_slice_counts_are_kernel_invariant() {
    for slices in [1usize, 2, 8] {
        let mut cfg = SimConfig::small_test(4);
        cfg.noc = Some(NocConfig {
            slices,
            ..NocConfig::default()
        });
        assert_equivalent(&cfg, "omnetpp", "LRU", 4_000, 400);
    }
}

/// Deep contention: depth-1 link queues with two-flit messages maximize
/// backpressure, the hardest case for event-driven clock jumps.
#[test]
fn noc_tight_queues_are_kernel_invariant() {
    let mut cfg = SimConfig::small_test(8);
    cfg.noc = Some(NocConfig {
        slices: 8,
        hop_latency: 3,
        flits: 2,
        queue_depth: 1,
    });
    for scheme in ["LRU", "CHROME"] {
        assert_equivalent(&cfg, "mcf", scheme, 4_000, 400);
    }
}

/// The NoC must actually change timing (otherwise the `noc_*` cases
/// prove nothing): the same cell with the mesh on must differ from the
/// uniform-latency model.
#[test]
fn noc_actually_perturbs_timing() {
    let run = |cfg: &SimConfig| run_kernel(cfg, "mcf", "LRU", 6_000, 600, Kernel::Reference).0;
    assert_ne!(
        run(&SimConfig::small_test(4)),
        run(&noc_on(4)),
        "a default mesh must add hop latency somewhere; identical results \
         mean the NoC is not wired into the LLC path"
    );
}
