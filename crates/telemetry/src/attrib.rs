//! Per-request latency-attribution profiling.
//!
//! The C-AMAT feedback signal is an *aggregate* over overlapped access
//! intervals; it says how many memory-active cycles each core paid, but
//! not *where* a single request's latency went. This module is the
//! ground-truth side of that ledger: each profiled request carries a
//! [`RequestSpan`] stamped at every stage transition of the memory
//! hierarchy (L1 lookup, MSHR waits, L2 lookup, LLC lookup, DRAM
//! queueing, row/CAS service, burst transfer, in-flight fill waits),
//! and the [`AttribProfiler`] folds finished spans into per-core,
//! per-kind stage tables plus per-stage latency histograms.
//!
//! Exactness is structural: a span is built from monotone timestamps,
//! so its per-stage cycles telescope to exactly `end - start`. The
//! profiler still re-checks the invariant on every record and counts
//! violations, which the integration tests pin to zero.

use crate::metrics::Histogram;

/// Number of attribution stages (the length of every stage array).
pub const STAGE_COUNT: usize = 10;

/// One lifecycle stage of a memory request.
///
/// Stage indices are stable (they name artifact columns); new stages
/// must be appended, never reordered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Stage {
    /// L1D tag lookup / array access.
    L1Lookup = 0,
    /// Waiting on the L1 MSHR file (allocation stall or merge wait).
    L1MshrWait = 1,
    /// L2 tag lookup / array access.
    L2Lookup = 2,
    /// Waiting on the L2 MSHR file.
    L2MshrWait = 3,
    /// LLC tag lookup / array access.
    LlcLookup = 4,
    /// Waiting on the LLC MSHR file.
    LlcMshrWait = 5,
    /// DRAM bank/bus queueing (memory-controller wait).
    DramQueue = 6,
    /// DRAM array service: row activate (+ precharge) and CAS.
    DramService = 7,
    /// DRAM data-bus burst transfer.
    DramTransfer = 8,
    /// Waiting for a block whose fill is still in flight (hit on an
    /// eagerly-filled line at any level).
    FillWait = 9,
}

impl Stage {
    /// All stages, in index order.
    pub const ALL: [Stage; STAGE_COUNT] = [
        Stage::L1Lookup,
        Stage::L1MshrWait,
        Stage::L2Lookup,
        Stage::L2MshrWait,
        Stage::LlcLookup,
        Stage::LlcMshrWait,
        Stage::DramQueue,
        Stage::DramService,
        Stage::DramTransfer,
        Stage::FillWait,
    ];

    /// Stable snake_case name (artifact column header).
    pub fn name(self) -> &'static str {
        match self {
            Stage::L1Lookup => "l1_lookup",
            Stage::L1MshrWait => "l1_mshr_wait",
            Stage::L2Lookup => "l2_lookup",
            Stage::L2MshrWait => "l2_mshr_wait",
            Stage::LlcLookup => "llc_lookup",
            Stage::LlcMshrWait => "llc_mshr_wait",
            Stage::DramQueue => "dram_queue",
            Stage::DramService => "dram_service",
            Stage::DramTransfer => "dram_transfer",
            Stage::FillWait => "fill_wait",
        }
    }

    /// The hierarchy level this stage belongs to.
    pub fn level(self) -> &'static str {
        match self {
            Stage::L1Lookup | Stage::L1MshrWait => "L1",
            Stage::L2Lookup | Stage::L2MshrWait => "L2",
            Stage::LlcLookup | Stage::LlcMshrWait => "LLC",
            Stage::DramQueue | Stage::DramService | Stage::DramTransfer => "DRAM",
            Stage::FillWait => "any",
        }
    }
}

/// The hierarchy level that ultimately satisfied a request. Requests
/// merged into an outstanding MSHR entry report the level of the merge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ServiceLevel {
    /// Satisfied by the L1D.
    L1 = 0,
    /// Satisfied by the private L2.
    L2 = 1,
    /// Satisfied by the shared LLC.
    Llc = 2,
    /// Served from DRAM (including LLC-bypassed fills).
    Mem = 3,
}

/// Number of service levels.
pub const LEVEL_COUNT: usize = 4;

impl ServiceLevel {
    /// All levels, in index order.
    pub const ALL: [ServiceLevel; LEVEL_COUNT] = [
        ServiceLevel::L1,
        ServiceLevel::L2,
        ServiceLevel::Llc,
        ServiceLevel::Mem,
    ];

    /// Stable name.
    pub fn name(self) -> &'static str {
        match self {
            ServiceLevel::L1 => "L1",
            ServiceLevel::L2 => "L2",
            ServiceLevel::Llc => "LLC",
            ServiceLevel::Mem => "DRAM",
        }
    }
}

/// A finished per-request latency record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RequestSpan {
    /// Issuing core.
    pub core: u32,
    /// PC of the triggering access (0 for hardware prefetches).
    pub pc: u64,
    /// Line address.
    pub line: u64,
    /// True for prefetch-originated requests.
    pub is_prefetch: bool,
    /// True if the request merged with an outstanding MSHR entry.
    pub merged: bool,
    /// Cycle the request entered the hierarchy.
    pub start: u64,
    /// Cycle the data was available to the requester.
    pub end: u64,
    /// Level that satisfied the request.
    pub level: ServiceLevel,
    /// Cycle the request reached the LLC (`None` when satisfied above
    /// it) — the start of the interval `CamatTracker` accounts.
    pub llc_entry: Option<u64>,
    /// Cycles attributed to each [`Stage`], indexed by discriminant.
    pub stages: [u64; STAGE_COUNT],
}

impl RequestSpan {
    /// End-to-end latency in cycles.
    pub fn latency(&self) -> u64 {
        self.end - self.start
    }

    /// Sum of all per-stage cycles. Equals [`RequestSpan::latency`] for
    /// a correctly stamped span.
    pub fn stage_total(&self) -> u64 {
        self.stages.iter().sum()
    }

    /// Cycles spent at or below the LLC (`None` when the request never
    /// reached it).
    pub fn llc_latency(&self) -> Option<u64> {
        self.llc_entry.map(|t| self.end - t)
    }
}

/// Incremental builder stamped at each stage transition.
///
/// `mark(stage, t)` attributes the cycles since the previous stamp to
/// `stage`; `finish` attributes the remaining cycles to a tail stage
/// and seals the span. Because every stamp only moves time forward, the
/// per-stage cycles always telescope to `end - start` exactly.
#[derive(Debug, Clone)]
pub struct SpanBuilder {
    span: RequestSpan,
    last: u64,
}

impl SpanBuilder {
    /// Open a span for a request entering the hierarchy at `cycle`.
    pub fn start(core: u32, pc: u64, line: u64, is_prefetch: bool, cycle: u64) -> Self {
        SpanBuilder {
            span: RequestSpan {
                core,
                pc,
                line,
                is_prefetch,
                merged: false,
                start: cycle,
                end: cycle,
                level: ServiceLevel::L1,
                llc_entry: None,
                stages: [0; STAGE_COUNT],
            },
            last: cycle,
        }
    }

    /// Attribute the cycles from the previous stamp up to `t` to
    /// `stage`. Out-of-order stamps are tolerated (they attribute zero
    /// cycles); time never moves backward.
    #[inline]
    pub fn mark(&mut self, stage: Stage, t: u64) {
        self.span.stages[stage as usize] += t.saturating_sub(self.last);
        self.last = self.last.max(t);
    }

    /// Record the cycle the request reached the LLC.
    #[inline]
    pub fn mark_llc_entry(&mut self, t: u64) {
        self.span.llc_entry = Some(t);
    }

    /// Seal the span: remaining cycles up to `end` go to `tail`.
    pub fn finish(
        mut self,
        level: ServiceLevel,
        tail: Stage,
        end: u64,
        merged: bool,
    ) -> RequestSpan {
        debug_assert!(end >= self.last, "span finished before its last stamp");
        self.span.stages[tail as usize] += end.saturating_sub(self.last);
        self.span.end = end.max(self.last);
        self.span.level = level;
        self.span.merged = merged;
        self.span
    }
}

/// Per-core, per-kind accumulation of finished spans.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StageAccum {
    /// Requests folded into this accumulator.
    pub requests: u64,
    /// Sum of end-to-end latencies.
    pub latency_cycles: u64,
    /// Cycles per stage, indexed by [`Stage`] discriminant.
    pub stages: [u64; STAGE_COUNT],
    /// Requests per [`ServiceLevel`], indexed by discriminant.
    pub by_level: [u64; LEVEL_COUNT],
    /// Requests that merged with an outstanding MSHR entry.
    pub merged: u64,
}

impl StageAccum {
    /// Fold one span in.
    fn add(&mut self, span: &RequestSpan) {
        self.requests += 1;
        self.latency_cycles += span.latency();
        for (acc, s) in self.stages.iter_mut().zip(&span.stages) {
            *acc += s;
        }
        self.by_level[span.level as usize] += 1;
        self.merged += span.merged as u64;
    }

    /// Merge another accumulator in (for whole-run roll-ups).
    pub fn merge(&mut self, other: &StageAccum) {
        self.requests += other.requests;
        self.latency_cycles += other.latency_cycles;
        for (a, b) in self.stages.iter_mut().zip(&other.stages) {
            *a += b;
        }
        for (a, b) in self.by_level.iter_mut().zip(&other.by_level) {
            *a += b;
        }
        self.merged += other.merged;
    }

    /// Sum over the stage array. Equals `latency_cycles` when every
    /// folded span was exact.
    pub fn stage_total(&self) -> u64 {
        self.stages.iter().sum()
    }
}

/// The latency-attribution profiler: aggregate stage tables, per-stage
/// histograms, and a bounded ring of the newest raw spans for trace
/// export.
#[derive(Debug, Clone)]
pub struct AttribProfiler {
    demand: Vec<StageAccum>,
    prefetch: Vec<StageAccum>,
    /// Per-stage histograms of nonzero per-request stage cycles
    /// (demand requests only).
    stage_hist: Vec<Histogram>,
    /// End-to-end demand latency histogram.
    latency_hist: Histogram,
    /// Raw spans (bounded; newest kept up to capacity).
    spans: Vec<RequestSpan>,
    span_capacity: usize,
    span_next: usize,
    /// Spans recorded (demand + prefetch).
    requests: u64,
    /// Spans whose stage sum differed from their end-to-end latency.
    mismatches: u64,
    /// Per-core `(cycles, count)` of demand spans that reached the LLC,
    /// measured from LLC entry — the profiler-side mirror of
    /// `CamatTracker`'s non-overlapped latency sums.
    llc_demand: Vec<(u64, u64)>,
}

impl Default for AttribProfiler {
    fn default() -> Self {
        Self::new(crate::RING_CAPACITY)
    }
}

impl AttribProfiler {
    /// A profiler keeping the newest `span_capacity` raw spans
    /// (aggregates fold in every span).
    ///
    /// # Panics
    ///
    /// Panics if `span_capacity` is zero.
    pub fn new(span_capacity: usize) -> Self {
        assert!(span_capacity > 0, "span capacity must be positive");
        AttribProfiler {
            demand: Vec::new(),
            prefetch: Vec::new(),
            stage_hist: (0..STAGE_COUNT).map(|_| Histogram::pow2(20)).collect(),
            latency_hist: Histogram::pow2(20),
            spans: Vec::new(),
            span_capacity,
            span_next: 0,
            requests: 0,
            mismatches: 0,
            llc_demand: Vec::new(),
        }
    }

    fn ensure_core(&mut self, core: usize) {
        if self.demand.len() <= core {
            self.demand.resize_with(core + 1, StageAccum::default);
            self.prefetch.resize_with(core + 1, StageAccum::default);
            self.llc_demand.resize(core + 1, (0, 0));
        }
    }

    /// Fold a finished span into the tables and the span ring.
    pub fn record(&mut self, span: RequestSpan) {
        let core = span.core as usize;
        self.ensure_core(core);
        if span.stage_total() != span.latency() {
            self.mismatches += 1;
        }
        if span.is_prefetch {
            self.prefetch[core].add(&span);
        } else {
            self.demand[core].add(&span);
            self.latency_hist.observe(span.latency());
            for (h, &cycles) in self.stage_hist.iter_mut().zip(&span.stages) {
                if cycles > 0 {
                    h.observe(cycles);
                }
            }
            if let Some(l) = span.llc_latency() {
                let (cycles, count) = &mut self.llc_demand[core];
                *cycles += l;
                *count += 1;
            }
        }
        self.requests += 1;
        if self.spans.len() < self.span_capacity {
            self.spans.push(span);
        } else {
            self.spans[self.span_next] = span;
        }
        self.span_next = (self.span_next + 1) % self.span_capacity;
    }

    /// Per-core demand accumulators.
    pub fn demand(&self) -> &[StageAccum] {
        &self.demand
    }

    /// Per-core prefetch accumulators.
    pub fn prefetch(&self) -> &[StageAccum] {
        &self.prefetch
    }

    /// Demand + prefetch, all cores, rolled into one accumulator.
    pub fn combined(&self) -> StageAccum {
        let mut out = StageAccum::default();
        for a in self.demand.iter().chain(&self.prefetch) {
            out.merge(a);
        }
        out
    }

    /// Total spans recorded (demand + prefetch).
    pub fn total_requests(&self) -> u64 {
        self.requests
    }

    /// Spans whose stage sums did not telescope to their latency.
    pub fn mismatches(&self) -> u64 {
        self.mismatches
    }

    /// Per-core `(cycles, count)` of demand spans measured from LLC
    /// entry to completion.
    pub fn llc_demand(&self, core: usize) -> (u64, u64) {
        self.llc_demand.get(core).copied().unwrap_or((0, 0))
    }

    /// The retained raw spans (unordered beyond ring age).
    pub fn spans(&self) -> &[RequestSpan] {
        &self.spans
    }

    /// Histogram of nonzero per-request cycles for `stage` (demand).
    pub fn stage_histogram(&self, stage: Stage) -> &Histogram {
        &self.stage_hist[stage as usize]
    }

    /// Histogram of end-to-end demand latencies.
    pub fn latency_histogram(&self) -> &Histogram {
        &self.latency_hist
    }

    /// Drop everything recorded (measurement-boundary reset).
    pub fn clear(&mut self) {
        self.demand.clear();
        self.prefetch.clear();
        self.llc_demand.clear();
        for h in &mut self.stage_hist {
            *h = Histogram::pow2(20);
        }
        self.latency_hist = Histogram::pow2(20);
        self.spans.clear();
        self.span_next = 0;
        self.requests = 0;
        self.mismatches = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build_demand(core: u32, start: u64) -> RequestSpan {
        let mut b = SpanBuilder::start(core, 0x400, 7, false, start);
        b.mark(Stage::L1Lookup, start + 4);
        b.mark(Stage::L2Lookup, start + 14);
        b.mark_llc_entry(start + 14);
        b.mark(Stage::LlcLookup, start + 54);
        b.mark(Stage::DramQueue, start + 60);
        b.mark(Stage::DramService, start + 160);
        b.finish(ServiceLevel::Mem, Stage::DramTransfer, start + 170, false)
    }

    #[test]
    fn span_telescopes_exactly() {
        let s = build_demand(0, 1000);
        assert_eq!(s.latency(), 170);
        assert_eq!(s.stage_total(), 170);
        assert_eq!(s.stages[Stage::L1Lookup as usize], 4);
        assert_eq!(s.stages[Stage::DramService as usize], 100);
        assert_eq!(s.stages[Stage::DramTransfer as usize], 10);
        assert_eq!(s.llc_latency(), Some(156));
    }

    #[test]
    fn out_of_order_marks_attribute_zero() {
        let mut b = SpanBuilder::start(0, 0, 0, false, 100);
        b.mark(Stage::L1Lookup, 110);
        b.mark(Stage::L2Lookup, 105); // stale stamp: zero cycles
        let s = b.finish(ServiceLevel::L2, Stage::FillWait, 120, false);
        assert_eq!(s.stage_total(), s.latency());
        assert_eq!(s.stages[Stage::L2Lookup as usize], 0);
        assert_eq!(s.stages[Stage::FillWait as usize], 10);
    }

    #[test]
    fn zero_latency_span_is_exact() {
        let b = SpanBuilder::start(1, 0, 0, false, 5);
        let s = b.finish(ServiceLevel::L1, Stage::L1Lookup, 5, false);
        assert_eq!(s.latency(), 0);
        assert_eq!(s.stage_total(), 0);
    }

    #[test]
    fn profiler_accumulates_per_core_and_kind() {
        let mut p = AttribProfiler::new(16);
        p.record(build_demand(0, 0));
        p.record(build_demand(2, 50));
        let mut pf = build_demand(0, 100);
        pf.is_prefetch = true;
        p.record(pf);
        assert_eq!(p.demand().len(), 3);
        assert_eq!(p.demand()[0].requests, 1);
        assert_eq!(p.demand()[1].requests, 0);
        assert_eq!(p.demand()[2].requests, 1);
        assert_eq!(p.prefetch()[0].requests, 1);
        assert_eq!(p.total_requests(), 3);
        assert_eq!(p.mismatches(), 0);
        let all = p.combined();
        assert_eq!(all.requests, 3);
        assert_eq!(all.stage_total(), all.latency_cycles);
        assert_eq!(all.by_level[ServiceLevel::Mem as usize], 3);
    }

    #[test]
    fn profiler_counts_mismatched_spans() {
        let mut p = AttribProfiler::new(16);
        let mut s = build_demand(0, 0);
        s.stages[0] += 1; // corrupt the ledger
        p.record(s);
        assert_eq!(p.mismatches(), 1);
    }

    #[test]
    fn llc_demand_mirror_tracks_reached_spans() {
        let mut p = AttribProfiler::new(16);
        p.record(build_demand(0, 0)); // llc_latency = 156
        let mut b = SpanBuilder::start(0, 0, 1, false, 0);
        b.mark(Stage::L1Lookup, 4);
        let hit = b.finish(ServiceLevel::L1, Stage::FillWait, 4, false);
        p.record(hit); // never reached the LLC
        assert_eq!(p.llc_demand(0), (156, 1));
        assert_eq!(p.llc_demand(9), (0, 0));
    }

    #[test]
    fn span_ring_bounds_and_samples() {
        let mut p = AttribProfiler::new(4);
        for i in 0..12 {
            p.record(build_demand(0, i * 10));
        }
        assert_eq!(p.spans().len(), 4, "ring is bounded");
        assert_eq!(p.total_requests(), 12);
        assert_eq!(p.demand()[0].requests, 12, "aggregates see every span");
    }

    #[test]
    fn clear_resets_everything() {
        let mut p = AttribProfiler::new(8);
        p.record(build_demand(0, 0));
        p.clear();
        assert_eq!(p.total_requests(), 0);
        assert!(p.spans().is_empty());
        assert!(p.demand().is_empty());
        assert_eq!(p.latency_histogram().count(), 0);
    }

    #[test]
    fn stage_names_are_unique() {
        let mut names: Vec<&str> = Stage::ALL.iter().map(|s| s.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), STAGE_COUNT);
    }
}
