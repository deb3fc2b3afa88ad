//! Sampled replay: functional warmup to each representative interval,
//! a detailed ramp, then a measured interval; plus the functional-only
//! profiling pass that reconstruction uses as its control variate.

use super::{Kernel, System};
use crate::stats::SimResults;
use crate::types::AccessKind;

/// One representative interval of a sampled-replay plan (see
/// [`System::run_sampled`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SampledInterval {
    /// Per-core absolute trace fetch positions (instructions pulled,
    /// counting non-memory runs) at which the measured interval starts.
    /// Per-core rather than global because cores drift: each core's
    /// position comes from its own manifest interval sums.
    pub start: Vec<u64>,
    /// Detailed-but-unmeasured lead-in instructions per core, simulated
    /// with full timing after the functional fast-forward so MSHR, DRAM
    /// and ROB state are realistic when measurement begins.
    pub ramp: u64,
    /// Measured instructions per core.
    pub detail: u64,
}

/// Per-interval metrics from a functional-only profiling pass (see
/// [`System::run_functional_profile`]): the cheap full-coverage
/// auxiliary series that sampled reconstruction uses as control
/// variates for its detailed measurements.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FunctionalProfile {
    /// Pseudo-clock cycles each aligned interval took.
    pub cycles: Vec<u64>,
    /// LLC demand misses in each aligned interval.
    pub llc_misses: Vec<u64>,
}

impl System {
    /// Functionally fast-forward every core's trace cursor to the given
    /// absolute per-core fetch position (no-op for cores already past
    /// it). Every record on the way updates caches, policy state,
    /// prefetchers and DRAM; in-flight timing state (ROB contents,
    /// dependence chains) is discarded at the switch.
    ///
    /// Each core carries a *pseudo-clock* that starts at the shared
    /// clock and paces itself the way the timed front end does: between
    /// stalls, instructions issue at fetch-width speed, and the stalls
    /// themselves are replayed from completion estimates — a ROB-window
    /// clamp on the oldest in-flight load, `dep_prev` serialization on
    /// the producer's completion at whatever level served it, and
    /// L1-MSHR occupancy delaying the access itself. Average CPI then
    /// *emerges* from the machine model instead of being imposed, and —
    /// crucially — issue stays bursty: stall-then-drain spikes are what
    /// push DRAM bank queues past the memory-controller shed threshold,
    /// so a smooth average-CPI clock under-sheds prefetches by an order
    /// of magnitude on stall-heavy workloads. Cores are interleaved
    /// lowest-clock-first, so the DRAM model sees demand and prefetch
    /// traffic at realistic density and ordering. At the end the shared
    /// clock jumps to the farthest pseudo-clock, so the following
    /// detailed ramp continues from DRAM queues that are genuinely warm
    /// rather than fossilized in the past.
    ///
    /// Learned policies keep training through the fast-forward:
    /// freezing them was measured to be far worse (greedy decisions
    /// over a virgin/stale Q-table degenerate to a single tie-rank
    /// action for the whole gap, and the policy arrives at the
    /// measured segment untrained relative to the full run).
    fn functional_warm_to(&mut self, targets: &[u64]) {
        let n = self.cores.len();
        let warmed: Vec<bool> = (0..n).map(|i| self.cores[i].fetched < targets[i]).collect();
        let width = self.cfg.width as f64;
        let rob_size = self.cfg.rob_size as u64;
        let mut ft: Vec<f64> = vec![self.cycle as f64; n];
        // In-flight loads per core as (fetch position, completion):
        // the in-order retire window. Fetch cannot pass an incomplete
        // load by more than the ROB size — the only front-end stall the
        // timed core has, replayed here as a pseudo-clock jump.
        let mut rob: Vec<std::collections::VecDeque<(u64, u64)>> = vec![Default::default(); n];
        // Outstanding DRAM-bound misses per core, capped at the L1 MSHR
        // capacity. As in timed `mshr_acquire`, a full file delays the
        // *access* (not the front end) to the oldest completion.
        let mshr_cap: Vec<usize> = (0..n).map(|i| self.hier.l1d[i].mshr.capacity()).collect();
        let mut mshr: Vec<std::collections::VecDeque<u64>> = vec![Default::default(); n];
        // Completion of each core's most recent load, for `dep_prev`
        // serialization — pointer-chase chains run at MLP 1 in timed
        // mode and must do so here too.
        let mut last_load: Vec<u64> = vec![0; n];
        loop {
            // next record comes from the core whose pseudo-clock is
            // furthest behind (deterministic: ties break by index)
            let mut pick = None;
            let mut best = f64::INFINITY;
            for i in 0..n {
                if self.cores[i].fetched < targets[i] && ft[i] < best {
                    best = ft[i];
                    pick = Some(i);
                }
            }
            let Some(i) = pick else { break };
            let core = &mut self.cores[i];
            let rec = core.take_pending().unwrap_or_else(|| core.fetch_record());
            let pos = core.fetched;
            // Retire completed loads; stall fetch on the ROB window.
            while let Some(&(p, done)) = rob[i].front() {
                if (done as f64) <= ft[i] {
                    rob[i].pop_front();
                } else if p + rob_size <= pos {
                    ft[i] = done as f64;
                    rob[i].pop_front();
                } else {
                    break;
                }
            }
            // The leading non-memory run issues at width per cycle.
            ft[i] += f64::from(rec.nonmem_before) / width;
            let mut at = ft[i];
            if rec.dep_prev {
                at = at.max(last_load[i] as f64);
            }
            while mshr[i].front().is_some_and(|&d| (d as f64) <= at) {
                mshr[i].pop_front();
            }
            if mshr[i].len() >= mshr_cap[i] {
                let oldest = mshr[i].pop_front().unwrap();
                at = at.max(oldest as f64);
            }
            let (done, dram) = self.hier.access::<false>(i, &rec, at as u64);
            if dram {
                mshr[i].push_back(done);
            }
            if rec.kind == AccessKind::Load {
                last_load[i] = done;
                rob[i].push_back((pos, done));
            }
            ft[i] += 1.0 / width;
        }
        for (i, core) in self.cores.iter_mut().enumerate() {
            if warmed[i] {
                core.reset_timing();
            }
        }

        // Rebase the shared clock onto pseudo-time so the detailed ramp
        // runs against live DRAM queues instead of long-drained ones.
        let end = ft.iter().fold(self.cycle as f64, |a, &b| a.max(b)) as u64;
        self.cycle = end;
        // No epoch machinery ran during the gap; realign the next
        // boundary to the epoch grid so the ramp doesn't replay a burst
        // of empty feedback epochs.
        if self.cycle >= self.next_epoch {
            let e = self.cfg.epoch_cycles;
            self.next_epoch = (self.cycle / e + 1) * e;
        }
        // Pre-switch watermarks may lie arbitrarily far in the future
        // (full-ROB stalls that no longer exist); after the switch every
        // core is immediately due.
        self.next_event.fill(self.cycle);
        self.min_event = self.cycle;
    }

    /// Run detailed (timed, unmeasured) simulation until every core's
    /// fetch cursor reaches its target position — the timing ramp that
    /// re-establishes MSHR, DRAM-queue and ROB state after a functional
    /// fast-forward.
    fn run_detailed_until(&mut self, targets: &[u64], kernel: Kernel) {
        while self.cores.iter().zip(targets).any(|(c, &t)| c.fetched < t) {
            while !self.advance(kernel) {}
        }
    }

    /// Sampled replay: for each representative interval, functionally
    /// fast-forward to `start - ramp`, run a detailed-but-unmeasured
    /// timing ramp to `start`, then measure `detail` instructions per
    /// core. Returns one [`SimResults`] per interval, in plan order;
    /// full-run metrics are reconstructed by weighting them with the
    /// plan's cluster weights (see `chrome-simpoint`).
    ///
    /// Intervals must be sorted by ascending start position (traces are
    /// forward-only). Overlapping phases degrade gracefully: a core
    /// already past a functional or ramp target simply skips it.
    ///
    /// # Panics
    ///
    /// Panics if the plan is empty, an interval's `start` length does
    /// not match the core count, its `detail` is zero, or start
    /// positions are not non-decreasing.
    pub fn run_sampled(&mut self, plan: &[SampledInterval], kernel: Kernel) -> Vec<SimResults> {
        assert!(
            !plan.is_empty(),
            "sampled plan must have at least one interval"
        );
        for w in plan.windows(2) {
            assert!(
                w[0].start.iter().zip(&w[1].start).all(|(a, b)| a <= b),
                "sampled intervals must be sorted by start position"
            );
        }
        self.telemetry.clear();
        self.epoch_seq = 0;
        let mut out = Vec::with_capacity(plan.len());
        let mut warm_targets = Vec::with_capacity(self.cores.len());
        for seg in plan {
            assert_eq!(
                seg.start.len(),
                self.cores.len(),
                "one start position per core"
            );
            warm_targets.clear();
            warm_targets.extend(seg.start.iter().map(|s| s.saturating_sub(seg.ramp)));
            self.functional_warm_to(&warm_targets);
            self.run_detailed_until(&seg.start, kernel);
            out.push(self.run_measured(seg.detail, kernel));
        }
        out
    }

    /// Functional-only profiling pass: walk every aligned interval with
    /// the functional model (no detailed simulation at all), recording
    /// per-interval pseudo-cycles and LLC demand misses. These are the
    /// *control variates* sampled reconstruction pairs with detailed
    /// measurements: the functional model tracks per-interval metric
    /// *variation* far more tightly than any clustering of summary
    /// features, so estimating `full = functional_total + weighted
    /// mean(detailed − functional)` over the sampled intervals removes
    /// most of the stratified estimator's selection variance.
    ///
    /// `boundaries[c]` holds core `c`'s cumulative fetch positions at
    /// every aligned interval boundary (`n + 1` entries starting at 0).
    /// Cycles are shared-clock deltas — exact for single-core traces,
    /// a lowest-clock-sync approximation across cores.
    ///
    /// # Panics
    ///
    /// Panics if `boundaries` is empty or disagrees with the core count.
    pub fn run_functional_profile(&mut self, boundaries: &[Vec<u64>]) -> FunctionalProfile {
        assert_eq!(
            boundaries.len(),
            self.cores.len(),
            "one boundary list per core"
        );
        let n = boundaries.iter().map(|b| b.len()).min().unwrap_or(0);
        assert!(n > 1, "profile needs at least one aligned interval");
        let mut cycles = Vec::with_capacity(n - 1);
        let mut llc_misses = Vec::with_capacity(n - 1);
        let mut targets = vec![0u64; self.cores.len()];
        for j in 1..n {
            for (t, b) in targets.iter_mut().zip(boundaries) {
                *t = b[j];
            }
            let cycle0 = self.cycle;
            let miss0 = self.hier.llc.stats.demand_misses;
            self.functional_warm_to(&targets);
            cycles.push(self.cycle - cycle0);
            llc_misses.push(self.hier.llc.stats.demand_misses - miss0);
        }
        FunctionalProfile { cycles, llc_misses }
    }
}
