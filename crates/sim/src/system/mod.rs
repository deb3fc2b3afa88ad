//! The full simulated system: cores + hierarchy + DRAM + feedback loop.
//!
//! * `walk` — [`MemHierarchy`] and its one walk (`MemHierarchy::access`),
//!   timed or functional, plus the mesh-NoC timing state;
//! * this module — [`System`]: the cores, the stepping kernels, feedback
//!   epochs, the timed `run*` entry points and result collection;
//! * `sampled` — sampled replay ([`System::run_sampled`]) and the
//!   functional profiling pass ([`System::run_functional_profile`]).

mod sampled;
mod walk;

pub use sampled::{FunctionalProfile, SampledInterval};
pub use walk::{MemHierarchy, NocState};

use crate::camat::CamatEpoch;
use crate::config::SimConfig;
use crate::core_model::Core;
use crate::policy::{BuiltinLru, PolicySlot};
use crate::stats::{CacheStats, CoreStats, SimResults};
use crate::trace::TraceSource;
use chrome_telemetry::{EpochRecord, TelemetrySink};

/// Which scheduling kernel drives [`System::run`].
///
/// Both kernels execute the identical per-core retire/issue semantics;
/// the event-driven kernel merely skips provable no-op work. Results
/// (final stats, epoch telemetry, obstruction vectors) are byte-identical
/// by construction, and the differential tests in `chrome-bench` assert
/// it for every policy, workload class and core count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Kernel {
    /// Cycle-skipping scheduler: per-core next-activity watermarks, a
    /// linear min-scan over ≤ 16 cores, and direct clock jumps to
    /// `min(next event, next epoch boundary)`.
    #[default]
    EventDriven,
    /// Naive uniform stepping: touch every core every cycle. The same
    /// stepper as [`Kernel::EventDriven`] with every core due and no
    /// clock jumps; kept as the ground-truth reference for differential
    /// testing and as the denominator of the throughput benchmark's
    /// speedup metric.
    Reference,
}

/// The complete simulated machine.
pub struct System {
    cfg: SimConfig,
    cores: Vec<Core>,
    hier: MemHierarchy,
    cycle: u64,
    next_epoch: u64,
    obstructed_epochs: Vec<u64>,
    total_epochs: u64,
    telemetry: TelemetrySink,
    /// LLC counter snapshot at the last telemetry epoch boundary, so
    /// epoch records carry per-epoch deltas that sum to the final stats.
    epoch_base: CacheStats,
    epoch_seq: u64,
    /// Per-core conservative wake-up cycles (the event-driven kernel's
    /// next-event array). `next_event[i] > c` proves stepping core `i`
    /// at cycle `c` would be a no-op.
    next_event: Vec<u64>,
    /// Cached `min(next_event)`, refreshed by every stepping pass. When
    /// it exceeds the current cycle the kernel jumps in O(1) without
    /// rescanning the array (jumps never change any watermark).
    min_event: u64,
    /// Reused buffer for per-core epoch samples, so epoch boundaries do
    /// not allocate.
    epoch_scratch: Vec<CamatEpoch>,
}

impl std::fmt::Debug for System {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("System")
            .field("cores", &self.cores.len())
            .field("cycle", &self.cycle)
            .field("policy", &self.hier.llc.policy.name())
            .finish_non_exhaustive()
    }
}

impl System {
    /// Build a system with the built-in LRU policy at the LLC.
    ///
    /// # Panics
    ///
    /// Panics if `traces.len() != cfg.cores`.
    pub fn new(cfg: SimConfig, traces: Vec<Box<dyn TraceSource>>) -> Self {
        Self::with_policy(cfg, traces, BuiltinLru::new())
    }

    /// Build a system with an explicit LLC management policy.
    ///
    /// # Panics
    ///
    /// Panics if `traces.len() != cfg.cores`.
    pub fn with_policy(
        cfg: SimConfig,
        traces: Vec<Box<dyn TraceSource>>,
        policy: impl Into<PolicySlot>,
    ) -> Self {
        assert_eq!(traces.len(), cfg.cores, "one trace per core required");
        let hier = MemHierarchy::new(&cfg, policy.into());
        let cores = traces
            .into_iter()
            .map(|t| Core::new(t, cfg.rob_size, cfg.width))
            .collect();
        let next_epoch = cfg.epoch_cycles;
        let n = cfg.cores;
        System {
            cfg,
            cores,
            hier,
            cycle: 0,
            next_epoch,
            obstructed_epochs: Vec::new(),
            total_epochs: 0,
            telemetry: TelemetrySink::noop(),
            epoch_base: CacheStats::default(),
            epoch_seq: 0,
            next_event: vec![0; n],
            min_event: 0,
            epoch_scratch: Vec::with_capacity(n),
        }
    }

    /// Cores are always stepped sequentially on the calling thread, so
    /// `workers` must be 0 or 1. Kept for callers that pin the worker
    /// count explicitly (the `perfbench` harness calls it with 1).
    ///
    /// # Panics
    ///
    /// Panics if `workers > 1`.
    pub fn set_step_workers(&mut self, workers: usize) {
        assert!(
            workers <= 1,
            "cores step sequentially; got {workers} step workers"
        );
    }

    /// Attach a telemetry sink. The system records the epoch series
    /// into it, and the hierarchy its latency-attribution spans when the
    /// sink profiles. The management policy gets no sink: its
    /// per-decision record is the audit log ([`System::enable_audit`]).
    pub fn set_telemetry(&mut self, sink: TelemetrySink) {
        self.hier.sink = sink.clone();
        self.telemetry = sink;
    }

    /// The attached telemetry sink (no-op by default).
    pub fn telemetry(&self) -> &TelemetrySink {
        &self.telemetry
    }

    /// Enable Fig. 2 evicted-unused tracking on the LLC.
    pub fn enable_unused_tracking(&mut self) {
        self.hier.llc.enable_unused_tracking();
    }

    /// Name of the active LLC policy.
    pub fn policy_name(&self) -> &str {
        self.hier.llc.policy.name()
    }

    /// Turn on per-decision audit recording in the LLC policy, tagged
    /// `stream` and bounded to `cap` records. Returns false when the
    /// policy keeps no decision stream (heuristics).
    pub fn enable_audit(&mut self, stream: u32, cap: usize) -> bool {
        self.hier.llc.policy.enable_audit(stream, cap)
    }

    /// The recorded audit trail as a binary blob (empty unless
    /// [`System::enable_audit`] was called on an auditable policy).
    pub fn audit_bytes(&self) -> Vec<u8> {
        self.hier
            .llc
            .policy
            .audit()
            .map(|log| log.to_bytes())
            .unwrap_or_default()
    }

    /// Immutable access to the memory hierarchy (stats, DRAM, feedback).
    pub fn hierarchy(&self) -> &MemHierarchy {
        &self.hier
    }

    /// Current simulation cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// One advance of the stepping kernel, monomorphized on the kernel:
    /// `EVENT = false` is the naive reference, where every core is due
    /// every cycle and the clock never jumps; `EVENT = true` is the
    /// event-driven kernel, which steps exactly the cores that are due
    /// (in the same rotation order) and refreshes their watermarks, or,
    /// if none are due, jumps the clock straight to `min(next event,
    /// next epoch)`. One pass over the next-event array does both jobs —
    /// N ≤ 16 in every paper configuration, so a linear scan beats a
    /// heap.
    ///
    /// Skipped work is provably a no-op — a core with `next_event > c`
    /// has a full ROB whose head completes after `c`, so both `retire`
    /// and `issue` would leave all state untouched — which is what makes
    /// the event kernel a pure scheduling transform: the sequence of
    /// *effectful* `(core, cycle)` calls is identical to the reference
    /// kernel's.
    ///
    /// Returns `true` when a cycle was stepped, `false` on a clock jump.
    fn step<const EVENT: bool>(&mut self) -> bool {
        let cycle = self.cycle;
        if EVENT && self.min_event > cycle {
            // No core can retire or issue before `min_event`; the epoch
            // boundary clamps the jump so feedback epochs still tick at
            // exactly the same cycles as the reference kernel. Jumps
            // leave every watermark untouched, so the cached minimum
            // stays exact and no scan is needed.
            self.cycle = self.min_event.min(self.next_epoch);
            if self.cycle >= self.next_epoch {
                self.end_epoch();
            }
            return false;
        }
        let n = self.cores.len();
        let start = cycle as usize % n;
        let hier = &mut self.hier;
        let mut min_next = u64::MAX;
        for k in 0..n {
            // rotation `(k + cycle) % n` without the per-core modulo
            let i = start + k;
            let i = if i >= n { i - n } else { i };
            if EVENT {
                let ev = self.next_event[i];
                if ev > cycle {
                    min_next = min_next.min(ev);
                    continue;
                }
            }
            let core = &mut self.cores[i];
            core.retire(cycle);
            core.issue(cycle, |rec, t| hier.access::<true>(i, rec, t).0);
            if EVENT {
                let next = core.next_activity(cycle + 1);
                self.next_event[i] = next;
                min_next = min_next.min(next);
            }
        }
        if EVENT {
            // `min_event <= cycle` means min(next_event) <= cycle, so at
            // least one core was due: this pass always steps the clock.
            self.min_event = min_next;
        }
        self.cycle = cycle + 1;
        if self.cycle >= self.next_epoch {
            self.end_epoch();
        }
        true
    }

    /// Advance the simulation by one kernel step (one cycle, or one
    /// clock jump under the event-driven kernel). Returns `true` when a
    /// cycle was stepped — only then can any core have retired
    /// instructions.
    #[inline]
    fn advance(&mut self, kernel: Kernel) -> bool {
        match kernel {
            Kernel::EventDriven => self.step::<true>(),
            Kernel::Reference => self.step::<false>(),
        }
    }

    fn end_epoch(&mut self) {
        self.next_epoch += self.cfg.epoch_cycles;
        // T_mem is the characteristic main-memory latency (paper §IV-C);
        // using the load-inflated measured average would make obstruction
        // undetectable precisely when contention is worst.
        let t_mem = self.hier.dram.unloaded_latency();
        let mut per_core = std::mem::take(&mut self.epoch_scratch);
        self.hier
            .camat
            .end_epoch_into(self.next_epoch, &mut per_core);
        let fb = &mut self.hier.feedback;
        fb.t_mem = t_mem;
        fb.epoch += 1;
        for (i, e) in per_core.iter().enumerate() {
            fb.camat_llc[i] = e.camat;
            fb.obstructed[i] = e.accesses > 0 && e.camat > t_mem;
        }
        self.total_epochs += 1;
        if self.obstructed_epochs.len() == self.cores.len() {
            for (i, o) in self.obstructed_epochs.iter_mut().enumerate() {
                if fb.obstructed[i] {
                    *o += 1;
                }
            }
        }
        // Split borrows: hand the feedback to the policy without cloning
        // its per-core vectors.
        let MemHierarchy { llc, feedback, .. } = &mut self.hier;
        llc.policy.on_epoch(feedback);
        self.record_epoch(&per_core);
        self.epoch_scratch = per_core;
    }

    /// Append one epoch record to the telemetry sink (free when
    /// telemetry is disabled). `per_core` is the [`CamatEpoch`] slice of
    /// the epoch being closed; LLC counters are recorded as deltas
    /// against the previous boundary so the per-epoch columns sum
    /// exactly to the end-of-run [`CacheStats`].
    fn record_epoch(&mut self, per_core: &[CamatEpoch]) {
        if !cfg!(feature = "telemetry") || !self.telemetry.is_enabled() {
            return;
        }
        let t_mem = self.hier.dram.unloaded_latency();
        let llc = self.hier.llc.stats;
        let base = &self.epoch_base;
        let (dram_queue_avg, dram_queue_max) = self.hier.dram.bank_backlog(self.cycle);
        let (noc_slice_accesses, noc_link_busy) = match self.hier.noc.as_mut() {
            Some(noc) => noc.epoch_deltas(),
            None => (Vec::new(), Vec::new()),
        };
        let rec = EpochRecord {
            epoch: self.epoch_seq,
            end_cycle: self.cycle,
            camat: per_core.iter().map(|e| e.camat).collect(),
            amat: per_core.iter().map(|e| e.amat).collect(),
            obstructed: per_core
                .iter()
                .map(|e| e.accesses > 0 && e.camat > t_mem)
                .collect(),
            llc_active: per_core.iter().map(|e| e.active_cycles).collect(),
            llc_accesses: per_core.iter().map(|e| e.accesses).collect(),
            l1_mshr_occupancy: self
                .hier
                .l1d
                .iter()
                .map(|c| c.mshr.live_occupancy(self.cycle) as u32)
                .collect(),
            l2_mshr_occupancy: self
                .hier
                .l2
                .iter()
                .map(|c| c.mshr.live_occupancy(self.cycle) as u32)
                .collect(),
            demand_accesses: llc.demand_accesses - base.demand_accesses,
            demand_misses: llc.demand_misses - base.demand_misses,
            bypasses: llc.bypasses - base.bypasses,
            evictions: llc.evictions - base.evictions,
            writebacks: llc.writebacks - base.writebacks,
            mshr_occupancy: self.hier.llc.mshr.live_occupancy(self.cycle) as u32,
            mshr_capacity: self.hier.llc.mshr.capacity() as u32,
            dram_queue_avg,
            dram_queue_max,
            noc_slice_accesses,
            noc_link_busy,
            policy: self.hier.llc.policy.epoch_probe(),
        };
        self.telemetry.push_epoch(rec);
        self.epoch_base = llc;
        self.epoch_seq += 1;
    }

    /// Run `warmup` instructions per core (unmeasured), then run until
    /// every core has retired `instructions` more, under the default
    /// event-driven kernel. Returns the measured results.
    ///
    /// # Panics
    ///
    /// Panics if `instructions` is zero.
    pub fn run(&mut self, instructions: u64, warmup: u64) -> SimResults {
        self.run_with_kernel(instructions, warmup, Kernel::default())
    }

    /// [`System::run`] with an explicit scheduling [`Kernel`]. The
    /// reference kernel exists for differential testing and as the
    /// throughput benchmark's speedup denominator; both produce
    /// identical [`SimResults`] and telemetry.
    ///
    /// # Panics
    ///
    /// Panics if `instructions` is zero.
    pub fn run_with_kernel(
        &mut self,
        instructions: u64,
        warmup: u64,
        kernel: Kernel,
    ) -> SimResults {
        assert!(instructions > 0, "instruction quota must be positive");
        // Warmup phase. The quota is re-checked after every stepped
        // cycle, so the last action before the measurement boundary is
        // always the quota-meeting step — a clock jump retires nothing
        // and thus can never be the final advance.
        while self.cores.iter().any(|c| c.retired < warmup) {
            while !self.advance(kernel) {}
        }
        // Measurement boundary: warmup telemetry is discarded so the
        // epoch series covers exactly the measured region.
        self.telemetry.clear();
        self.epoch_seq = 0;
        self.run_measured(instructions, kernel)
    }

    /// Reset measurement counters at the current cycle, run until every
    /// core retires `instructions` more, and collect results. Shared by
    /// [`System::run_with_kernel`] (once, after timed warmup) and
    /// [`System::run_sampled`] (once per representative interval).
    /// Telemetry is *not* cleared here, so a sampled run's epoch series
    /// spans all of its measured intervals.
    fn run_measured(&mut self, instructions: u64, kernel: Kernel) -> SimResults {
        assert!(instructions > 0, "instruction quota must be positive");
        self.hier.reset_stats();
        self.epoch_base = CacheStats::default();
        let dram_reads0 = self.hier.dram.reads;
        let dram_writes0 = self.hier.dram.writes;
        self.obstructed_epochs = vec![0; self.cores.len()];
        self.total_epochs = 0;
        for core in &mut self.cores {
            core.measure_start_retired = core.retired;
            core.measure_start_rob_lag = core.rob_release_lag;
            core.measure_start_cycle = self.cycle;
            core.done_cycle = None;
        }
        // Measured phase: run until all cores meet their quota; cores
        // that finish early keep running to preserve contention. Quota
        // bookkeeping only runs after stepped cycles — a clock jump
        // retires nothing, so it cannot change any core's done state.
        loop {
            if !self.advance(kernel) {
                continue;
            }
            let cycle = self.cycle;
            let mut all_done = true;
            for core in &mut self.cores {
                if core.done_cycle.is_none() {
                    if core.measured_instructions() >= instructions {
                        core.done_cycle = Some(cycle);
                    } else {
                        all_done = false;
                    }
                }
            }
            if all_done {
                break;
            }
        }
        // Close the still-open partial epoch so the telemetry series
        // accounts for every measured access.
        if cfg!(feature = "telemetry") && self.telemetry.is_enabled() {
            let mut partial = std::mem::take(&mut self.epoch_scratch);
            self.hier.camat.epoch_snapshot_into(&mut partial);
            self.record_epoch(&partial);
            self.epoch_scratch = partial;
        }
        self.collect_results(instructions, dram_reads0, dram_writes0)
    }

    fn collect_results(
        &self,
        instructions: u64,
        dram_reads0: u64,
        dram_writes0: u64,
    ) -> SimResults {
        let per_core = self
            .cores
            .iter()
            .enumerate()
            .map(|(i, core)| {
                let (active, accesses) = self.hier.camat.totals(i);
                CoreStats {
                    instructions,
                    cycles: core
                        .done_cycle
                        .expect("all cores done")
                        .saturating_sub(core.measure_start_cycle)
                        .max(1),
                    llc_accesses: accesses,
                    llc_active_cycles: active,
                    llc_latency_cycles: self.hier.camat.total_latency(i),
                    rob_release_lag: core.measured_rob_release_lag(),
                    obstructed_epochs: self.obstructed_epochs.get(i).copied().unwrap_or(0),
                    total_epochs: self.total_epochs,
                }
            })
            .collect::<Vec<_>>();
        let total_cycles = per_core.iter().map(|c| c.cycles).max().unwrap_or(0);
        SimResults {
            l1d: self.hier.l1d.iter().map(|c| c.stats).collect(),
            l2: self.hier.l2.iter().map(|c| c.stats).collect(),
            llc: self.hier.llc.stats,
            dram_reads: self.hier.dram.reads - dram_reads0,
            dram_writes: self.hier.dram.writes - dram_writes0,
            dram_avg_latency: self.hier.dram.avg_read_latency(),
            total_cycles,
            evicted_unused: self.hier.llc.unused_tracker.summary(),
            bypassed_outcome: self.hier.llc.bypass_tracker.summary(),
            per_core,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{RandomSource, StridedSource};
    use crate::types::TraceRecord;

    fn boxed(t: impl TraceSource + 'static) -> Box<dyn TraceSource> {
        Box::new(t)
    }

    #[test]
    fn single_core_strided_runs() {
        let cfg = SimConfig::small_test(1);
        let mut sys = System::new(cfg, vec![boxed(StridedSource::new(0, 64, 1 << 16, 2))]);
        let r = sys.run(20_000, 2_000);
        assert_eq!(r.per_core.len(), 1);
        assert!(r.per_core[0].ipc() > 0.1, "ipc = {}", r.per_core[0].ipc());
        assert!(r.per_core[0].ipc() <= 6.0);
    }

    #[test]
    fn cache_friendly_beats_cache_hostile() {
        // A tiny working set (fits in L1) must be much faster than a
        // random scan over a large one.
        let cfg = SimConfig::small_test(1);
        let mut friendly =
            System::new(cfg.clone(), vec![boxed(StridedSource::new(0, 64, 2048, 2))]);
        let rf = friendly.run(20_000, 2_000);
        let mut hostile = System::new(cfg, vec![boxed(RandomSource::new(0, 64 << 20, 2, 9))]);
        let rh = hostile.run(20_000, 2_000);
        assert!(
            rf.per_core[0].ipc() > 2.0 * rh.per_core[0].ipc(),
            "friendly {} vs hostile {}",
            rf.per_core[0].ipc(),
            rh.per_core[0].ipc()
        );
    }

    #[test]
    fn multicore_contention_slows_cores() {
        let mk = || boxed(RandomSource::new(0, 32 << 20, 1, 5));
        let mut alone = System::new(SimConfig::small_test(1), vec![mk()]);
        let ra = alone.run(10_000, 1_000);
        let cfg4 = SimConfig::small_test(4);
        let mut shared = System::new(cfg4, (0..4).map(|_| mk()).collect());
        let rs = shared.run(10_000, 1_000);
        assert!(
            rs.per_core[0].ipc() < ra.per_core[0].ipc() * 1.05,
            "shared {} vs alone {}",
            rs.per_core[0].ipc(),
            ra.per_core[0].ipc()
        );
    }

    #[test]
    fn llc_sees_traffic_and_camat_is_positive() {
        let cfg = SimConfig::small_test(1);
        let mut sys = System::new(cfg, vec![boxed(RandomSource::new(0, 32 << 20, 1, 3))]);
        let r = sys.run(20_000, 1_000);
        assert!(r.llc.demand_accesses > 0);
        assert!(r.per_core[0].llc_accesses > 0);
        assert!(r.per_core[0].camat_llc() > 0.0);
    }

    #[test]
    fn prefetcher_reduces_misses_on_streams() {
        let mut cfg = SimConfig::small_test(1);
        cfg.prefetchers = crate::config::PrefetcherConfig::none();
        let trace = || boxed(StridedSource::new(0, 64, 8 << 20, 2));
        let mut nopf = System::new(cfg.clone(), vec![trace()]);
        let r0 = nopf.run(30_000, 2_000);
        cfg.prefetchers = crate::config::PrefetcherConfig::default_paper();
        let mut withpf = System::new(cfg, vec![trace()]);
        let r1 = withpf.run(30_000, 2_000);
        assert!(
            r1.per_core[0].ipc() > r0.per_core[0].ipc(),
            "prefetch {} vs none {}",
            r1.per_core[0].ipc(),
            r0.per_core[0].ipc()
        );
    }

    #[test]
    fn determinism() {
        let run = || {
            let cfg = SimConfig::small_test(2);
            let traces = vec![
                boxed(RandomSource::new(0, 16 << 20, 1, 7)),
                boxed(StridedSource::new(0, 128, 1 << 20, 2)),
            ];
            let mut sys = System::new(cfg, traces);
            let r = sys.run(10_000, 1_000);
            (
                r.per_core[0].cycles,
                r.per_core[1].cycles,
                r.llc.demand_misses,
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn epochs_advance() {
        let cfg = SimConfig::small_test(1);
        let mut sys = System::new(cfg, vec![boxed(RandomSource::new(0, 32 << 20, 1, 3))]);
        let r = sys.run(30_000, 1_000);
        assert!(r.per_core[0].total_epochs > 0, "epochs should tick");
    }

    #[test]
    #[should_panic(expected = "one trace per core")]
    fn trace_count_mismatch_panics() {
        let cfg = SimConfig::small_test(2);
        let _ = System::new(cfg, vec![boxed(StridedSource::new(0, 64, 1024, 0))]);
    }

    #[test]
    fn store_heavy_workload_produces_dram_writes() {
        struct Stores {
            pos: u64,
        }
        impl TraceSource for Stores {
            fn next_record(&mut self) -> TraceRecord {
                self.pos += 64;
                // alternate store and load over a big region: dirty lines
                // eventually wash out of the hierarchy as DRAM writes
                if self.pos.is_multiple_of(128) {
                    TraceRecord::store(0x400, self.pos % (64 << 20), 1)
                } else {
                    TraceRecord::load(0x404, self.pos % (64 << 20), 1)
                }
            }
            fn name(&self) -> &str {
                "stores"
            }
        }
        let cfg = SimConfig::small_test(1);
        let mut sys = System::new(cfg, vec![boxed(Stores { pos: 0 })]);
        let r = sys.run(40_000, 4_000);
        assert!(r.dram_writes > 0, "dirty evictions must reach DRAM");
        assert!(r.llc.writebacks > 0 || r.l2[0].writebacks > 0);
    }

    #[test]
    fn obstruction_flags_fire_for_serialized_miss_chains() {
        // Obstruction is a *concurrency* judgement: a pointer-chasing
        // core (no MLP) pays the full LLC-and-beyond latency per access,
        // so its C-AMAT(LLC) exceeds T_mem; a high-MLP core does not.
        struct Chase {
            pos: u64,
        }
        impl TraceSource for Chase {
            fn next_record(&mut self) -> TraceRecord {
                self.pos = crate::types::mix64(self.pos) % (1 << 19);
                TraceRecord::dep_load(0x500, self.pos * 64, 0)
            }
            fn name(&self) -> &str {
                "chase"
            }
        }
        let mut cfg = SimConfig::small_test(2);
        cfg.epoch_cycles = 20_000;
        cfg.prefetchers = crate::config::PrefetcherConfig::none();
        let traces: Vec<Box<dyn TraceSource>> = vec![
            boxed(Chase { pos: 1 }),
            boxed(RandomSource::new(0, 32 << 20, 0, 11)),
        ];
        let mut sys = System::new(cfg, traces);
        let r = sys.run(15_000, 1_000);
        assert!(
            r.per_core[0].obstructed_epochs > 0,
            "serialized chaser should be LLC-obstructed (camat={:.0})",
            r.per_core[0].camat_llc()
        );
    }

    #[test]
    fn compute_bound_core_is_never_obstructed() {
        // a tiny working set hits in L1: C-AMAT(LLC) ~ 0
        let cfg = SimConfig::small_test(1);
        let mut sys = System::new(cfg, vec![boxed(StridedSource::new(0, 64, 1024, 8))]);
        let r = sys.run(30_000, 2_000);
        assert_eq!(r.per_core[0].obstructed_epochs, 0);
    }

    #[test]
    fn prefetches_are_shed_under_saturation() {
        let cfg = SimConfig::small_test(2);
        let traces = (0..2)
            .map(|i| boxed(StridedSource::new((i as u64) << 32, 64, 32 << 20, 0)))
            .collect();
        let mut sys = System::new(cfg, traces);
        let r = sys.run(60_000, 5_000);
        let dropped: u64 =
            r.l2.iter().map(|c| c.prefetch_dropped).sum::<u64>() + r.llc.prefetch_dropped;
        assert!(dropped > 0, "dense streams must trigger prefetch shedding");
    }

    #[test]
    fn dependent_chains_have_lower_mlp_than_streams() {
        // same miss volume, but pointer chasing serializes: fewer
        // overlapping accesses => higher C-AMAT per access at the LLC
        struct Chase {
            pos: u64,
        }
        impl TraceSource for Chase {
            fn next_record(&mut self) -> TraceRecord {
                self.pos = crate::types::mix64(self.pos) % (32 << 14); // lines
                TraceRecord::dep_load(0x500, self.pos * 64, 1)
            }
            fn name(&self) -> &str {
                "chase"
            }
        }
        let mut cfg = SimConfig::small_test(1);
        cfg.prefetchers = crate::config::PrefetcherConfig::none();
        let mut chase_sys = System::new(cfg.clone(), vec![boxed(Chase { pos: 1 })]);
        let chase = chase_sys.run(20_000, 2_000);
        let mut stream_sys = System::new(cfg, vec![boxed(RandomSource::new(0, 32 << 20, 1, 5))]);
        let stream = stream_sys.run(20_000, 2_000);
        assert!(
            chase.per_core[0].ipc() < stream.per_core[0].ipc(),
            "chase {} should be slower than independent random {}",
            chase.per_core[0].ipc(),
            stream.per_core[0].ipc()
        );
    }

    #[test]
    fn event_kernel_jumps_but_never_past_epoch_boundary() {
        // A pointer-chasing workload stalls its ROB on long DRAM round
        // trips, so the event kernel must take multi-cycle jumps — but a
        // jump may never overshoot the epoch boundary, or feedback
        // epochs would fire at different cycles than the reference.
        struct Chase {
            pos: u64,
        }
        impl TraceSource for Chase {
            fn next_record(&mut self) -> TraceRecord {
                self.pos = crate::types::mix64(self.pos) % (1 << 19);
                TraceRecord::dep_load(0x500, self.pos * 64, 0)
            }
            fn name(&self) -> &str {
                "chase"
            }
        }
        let mut cfg = SimConfig::small_test(1);
        cfg.prefetchers = crate::config::PrefetcherConfig::none();
        let mut sys = System::new(cfg, vec![boxed(Chase { pos: 1 })]);
        let mut jumped = false;
        for _ in 0..200_000 {
            let before = sys.cycle;
            let epoch_target = sys.next_epoch;
            sys.advance(Kernel::EventDriven);
            // the clamp invariant: a jump lands on or before the epoch
            // boundary that was pending when it was taken
            assert!(
                sys.cycle <= epoch_target,
                "advance jumped from {before} past the epoch boundary {epoch_target} to {}",
                sys.cycle
            );
            if sys.cycle > before + 1 {
                jumped = true;
            }
        }
        assert!(jumped, "memory-bound chase should trigger clock jumps");
        assert!(sys.total_epochs > 0, "epochs must still tick while jumping");
    }

    #[test]
    fn policy_report_is_accessible_after_run() {
        let cfg = SimConfig::small_test(1);
        let mut sys = System::new(cfg, vec![boxed(RandomSource::new(0, 1 << 20, 1, 3))]);
        let _ = sys.run(5_000, 500);
        // the built-in LRU reports no custom metrics, but the plumbing
        // must be reachable through the trait object
        assert!(sys.hierarchy().llc.policy.report().is_empty());
        assert_eq!(sys.policy_name(), "LRU");
    }
}
