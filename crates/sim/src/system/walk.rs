//! The memory hierarchy and its one walk: private L1D/L2 per core, the
//! shared LLC (optionally sliced behind the mesh NoC), DRAM, prefetchers,
//! the MMU and C-AMAT instrumentation, walked by
//! [`MemHierarchy::access`] in timed or functional mode.

use crate::cache::PrivateCache;
use crate::camat::CamatTracker;
use crate::config::SimConfig;
use crate::dram::Dram;
use crate::llc::{LlcOutcome, SharedLlc};
use crate::mmu::Mmu;
use crate::mshr::{MshrFile, MshrOutcome};
use crate::policy::{AccessInfo, PolicySlot, SystemFeedback};
use crate::prefetch::{AnyPrefetcher, FillLevel, PrefetchRequest};
use crate::types::{AccessKind, LineAddr, TraceRecord};
use chrome_telemetry::{ServiceLevel, SpanBuilder, Stage, TelemetrySink};

/// Resolve an MSHR for `line` starting at cycle `t`: either the miss is
/// merged with an outstanding one (`Err(ready)`), or the caller may issue
/// at the returned cycle (`Ok(issue_at)`), possibly delayed by a full
/// file — this is what bounds each level's demand MLP. Only demand
/// misses allocate MSHRs; prefetch timing rides on per-block arrival
/// stamps and the DRAM queue-depth shedding instead.
fn mshr_acquire(mshr: &mut MshrFile, line: LineAddr, mut t: u64) -> Result<u64, u64> {
    loop {
        match mshr.lookup(line, t) {
            MshrOutcome::Merged { ready } => return Err(ready),
            MshrOutcome::Available => return Ok(t),
            MshrOutcome::Full { free_at } => {
                debug_assert!(free_at > t, "full MSHR must free strictly later");
                t = free_at;
            }
        }
    }
}

/// Memory-controller prefetch shedding threshold: a prefetch whose
/// target bank/bus queue exceeds this many cycles is dropped rather
/// than queued behind demand traffic.
const PREFETCH_SHED_CYCLES: u64 = 500;

/// Mesh-NoC timing wrapped around the shared LLC: the cache is split
/// into address-interleaved slices homed on mesh tiles, and every
/// core↔slice message crosses the [`chrome_noc::Mesh`] contention
/// model. Pure timing — hit/miss outcomes, policy decisions and fill
/// contents are untouched, so the NoC only shifts *when* completions
/// become visible, never *what* happens.
pub struct NocState {
    mesh: chrome_noc::Mesh,
    /// Number of address-interleaved LLC slices.
    slices: usize,
    /// `llc sets - 1` (power-of-two asserted by the LLC), so the slice
    /// interleave keys on the set index.
    set_mask: u64,
    /// Home tile of each slice (cores sit on tiles `0..cores`).
    slice_tiles: Vec<usize>,
    /// Cumulative accesses routed to each slice.
    slice_accesses: Vec<u64>,
    /// Counter snapshots at the last epoch boundary, so epoch records
    /// carry per-epoch deltas.
    epoch_slice_base: Vec<u64>,
    epoch_link_base: Vec<u64>,
}

impl NocState {
    fn new(cfg: chrome_noc::NocConfig, cores: usize, llc_sets: usize) -> Self {
        let slices = cfg.slices;
        let tiles = cores.max(slices);
        let mesh = chrome_noc::Mesh::new(tiles, cfg);
        let links = mesh.links();
        NocState {
            mesh,
            slices,
            set_mask: llc_sets as u64 - 1,
            slice_tiles: (0..slices)
                .map(|s| chrome_noc::slice_tile(s, slices, tiles))
                .collect(),
            slice_accesses: vec![0; slices],
            epoch_slice_base: vec![0; slices],
            epoch_link_base: vec![0; links],
        }
    }

    /// Number of address-interleaved LLC slices.
    pub fn slices(&self) -> usize {
        self.slices
    }

    /// Cumulative accesses routed to each slice.
    pub fn slice_accesses(&self) -> &[u64] {
        &self.slice_accesses
    }

    /// The underlying mesh (geometry, link counters, message count).
    pub fn mesh(&self) -> &chrome_noc::Mesh {
        &self.mesh
    }

    /// Route a request from `core` to `line`'s home slice, departing at
    /// `t`. Returns the arrival cycle at the slice and the slice index.
    fn request(&mut self, core: usize, line: LineAddr, t: u64) -> (u64, usize) {
        let set = (line.0 & self.set_mask) as usize;
        let slice = chrome_noc::slice_of_set(set, self.slices);
        self.slice_accesses[slice] += 1;
        (self.mesh.route(core, self.slice_tiles[slice], t), slice)
    }

    /// Route the response for a request served by `slice` back to
    /// `core`, departing at `t`. Returns the core-visible completion.
    fn respond(&mut self, slice: usize, core: usize, t: u64) -> u64 {
        self.mesh.route(self.slice_tiles[slice], core, t)
    }

    /// Per-slice access and per-link busy-cycle deltas since the
    /// previous call, advancing the epoch baselines.
    pub(super) fn epoch_deltas(&mut self) -> (Vec<u64>, Vec<u64>) {
        let slices = self
            .slice_accesses
            .iter()
            .zip(&self.epoch_slice_base)
            .map(|(a, b)| a - b)
            .collect();
        let links = self
            .mesh
            .link_busy()
            .iter()
            .zip(&self.epoch_link_base)
            .map(|(a, b)| a - b)
            .collect();
        self.epoch_rebase();
        (slices, links)
    }

    /// Snap the epoch baselines to the current counters (used at the
    /// measurement boundary so the first measured epoch starts clean).
    fn epoch_rebase(&mut self) {
        self.epoch_slice_base.copy_from_slice(&self.slice_accesses);
        self.epoch_link_base.copy_from_slice(self.mesh.link_busy());
    }
}

/// Route a slice→core response through the mesh, or pass the time
/// through untouched when the NoC is off.
#[inline]
fn noc_respond(noc: Option<&mut NocState>, slice: usize, core: usize, t: u64) -> u64 {
    match noc {
        Some(n) => n.respond(slice, core, t),
        None => t,
    }
}

/// The memory hierarchy: private L1D/L2 per core, a shared LLC, DRAM,
/// prefetchers, the MMU and C-AMAT instrumentation.
pub struct MemHierarchy {
    pub(super) l1d: Vec<PrivateCache>,
    pub(super) l2: Vec<PrivateCache>,
    /// The shared last-level cache.
    pub llc: SharedLlc,
    /// The DRAM subsystem.
    pub dram: Dram,
    /// Mesh-NoC timing between cores and LLC slices; `None` keeps the
    /// classic uniform-latency LLC, byte-identical to pre-NoC results.
    pub(super) noc: Option<NocState>,
    l1_pref: Vec<AnyPrefetcher>,
    l2_pref: Vec<AnyPrefetcher>,
    mmu: Mmu,
    /// Per-core C-AMAT accounting at the LLC.
    pub camat: CamatTracker,
    /// Epoch-refreshed concurrency feedback, shared with the LLC policy.
    pub feedback: SystemFeedback,
    l1_latency: u64,
    l2_latency: u64,
    scratch: Vec<PrefetchRequest>,
    /// Telemetry handle for the latency-attribution profiler; spans are
    /// only stamped when the sink is profiling.
    pub(super) sink: TelemetrySink,
}

impl MemHierarchy {
    pub(super) fn new(cfg: &SimConfig, policy: PolicySlot) -> Self {
        let cores = cfg.cores;
        let mut camat = CamatTracker::new(cores);
        camat.set_epoch_boundary(cfg.epoch_cycles);
        let mmu = Mmu::default_8gb();
        assert!(
            mmu.max_line().0 <= crate::probe::MAX_KEY_LINE,
            "physical memory ends at {}, past the 31-bit residency-key range",
            mmu.max_line()
        );
        MemHierarchy {
            l1d: (0..cores).map(|_| PrivateCache::new(&cfg.l1d)).collect(),
            l2: (0..cores).map(|_| PrivateCache::new(&cfg.l2)).collect(),
            llc: SharedLlc::new(&cfg.llc(), cores, policy),
            dram: Dram::new(cfg.dram),
            noc: cfg.noc.map(|nc| NocState::new(nc, cores, cfg.llc().sets())),
            l1_pref: (0..cores)
                .map(|_| AnyPrefetcher::build(cfg.prefetchers.l1, cfg.prefetch_degree))
                .collect(),
            l2_pref: (0..cores)
                .map(|_| AnyPrefetcher::build(cfg.prefetchers.l2, cfg.prefetch_degree))
                .collect(),
            mmu,
            camat,
            feedback: SystemFeedback::new(cores),
            l1_latency: cfg.l1d.latency,
            l2_latency: cfg.l2.latency,
            scratch: Vec::with_capacity(16),
            sink: TelemetrySink::noop(),
        }
    }

    /// Open a latency-attribution span when profiling a timed walk;
    /// compiles to `None` (and folds the span code away) in functional
    /// mode and without the `telemetry` feature.
    #[inline]
    fn span_start<const TIMED: bool>(
        &self,
        core: usize,
        pc: u64,
        line: LineAddr,
        is_prefetch: bool,
        cycle: u64,
    ) -> Option<SpanBuilder> {
        if TIMED && cfg!(feature = "telemetry") && self.sink.profiling() {
            Some(SpanBuilder::start(
                core as u32,
                pc,
                line.0,
                is_prefetch,
                cycle,
            ))
        } else {
            None
        }
    }

    /// Seal a span and hand it to the profiler.
    fn finish_span(
        &self,
        b: SpanBuilder,
        level: ServiceLevel,
        tail: Stage,
        end: u64,
        merged: bool,
    ) {
        self.sink.record_span(b.finish(level, tail, end, merged));
    }

    /// Write `line` back into L2 (allocating if absent), cascading dirty
    /// victims toward DRAM.
    fn writeback_to_l2(&mut self, core: usize, line: LineAddr, cycle: u64) {
        if self.l2[core].mark_dirty(line) {
            return;
        }
        if let Some(ev) = self.l2[core].fill(line, true, false, cycle) {
            if ev.dirty {
                self.writeback_to_llc(ev.line, cycle);
            }
        }
    }

    /// Write `line` back at the LLC: mark dirty if resident, otherwise
    /// send it to DRAM (non-inclusive hierarchy).
    fn writeback_to_llc(&mut self, line: LineAddr, cycle: u64) {
        if !self.llc.writeback(line) {
            self.dram.access(line, cycle, true);
        }
    }

    /// Fill `line` into L2 for `core`, handling the dirty-victim cascade.
    /// `ready` is the arrival cycle of the data.
    fn fill_l2(&mut self, core: usize, line: LineAddr, is_prefetch: bool, ready: u64) {
        if self.l2[core].probe(line).is_some() {
            return;
        }
        if let Some(ev) = self.l2[core].fill(line, false, is_prefetch, ready) {
            if ev.dirty {
                self.writeback_to_llc(ev.line, ready);
            }
        }
    }

    /// Fill `line` into L1D for `core`, handling the dirty-victim cascade.
    fn fill_l1(&mut self, core: usize, line: LineAddr, dirty: bool, is_prefetch: bool, ready: u64) {
        if self.l1d[core].probe(line).is_some() {
            return;
        }
        if let Some(ev) = self.l1d[core].fill(line, dirty, is_prefetch, ready) {
            if ev.dirty {
                self.writeback_to_l2(core, ev.line, ready);
            }
        }
    }

    /// Access the LLC (and DRAM beneath it) for a line that missed in L2.
    /// `t_llc` is the cycle at which the request reaches the LLC.
    /// Returns the completion cycle and whether the LLC missed.
    ///
    /// Fills happen eagerly at lookup time, so a hit may be on a block
    /// whose data is still in flight (e.g. just prefetched); the hit
    /// waits for its arrival stamp.
    fn access_llc<const TIMED: bool>(
        &mut self,
        core: usize,
        pc: u64,
        line: LineAddr,
        is_prefetch: bool,
        t_llc: u64,
        span: &mut Option<SpanBuilder>,
    ) -> (u64, bool) {
        if let Some(s) = span.as_mut() {
            s.mark_llc_entry(t_llc);
        }
        // With the mesh NoC enabled, the request first crosses the mesh
        // to the line's home slice; all LLC/DRAM math below then runs in
        // slice-local time, and each completion is routed back before it
        // becomes core-visible. With it off, both hops are the identity
        // and every expression below is bit-for-bit the classic
        // uniform-latency path. C-AMAT spans issue (`t_entry`) to the
        // core-visible completion, so NoC queueing shows up as memory
        // stall time exactly like MSHR or bank contention.
        let t_entry = t_llc;
        let (t_llc, slice) = match self.noc.as_mut() {
            Some(noc) => noc.request(core, line, t_llc),
            None => (t_llc, 0),
        };
        let info = AccessInfo {
            core,
            pc,
            line,
            is_prefetch,
            is_write: false,
            cycle: t_llc,
        };
        let (done, missed) = match self.llc.access(&info, &self.feedback) {
            LlcOutcome::Hit { ready } => {
                // the block may still be in flight: wait for its arrival
                let base = t_llc + self.llc.latency;
                let done = noc_respond(self.noc.as_mut(), slice, core, ready.max(base));
                if let Some(mut s) = span.take() {
                    s.mark(Stage::LlcLookup, base);
                    self.finish_span(s, ServiceLevel::Llc, Stage::FillWait, done, false);
                }
                (done, false)
            }
            LlcOutcome::Miss {
                bypassed,
                writeback,
            } => {
                // Only timed demand misses allocate LLC MSHRs; prefetch
                // shedding happens upstream in the prefetch path.
                let acquired = if TIMED && !is_prefetch {
                    mshr_acquire(&mut self.llc.mshr, line, t_llc)
                } else {
                    Ok(t_llc)
                };
                // `ready` is the slice-side fill time (what the cache
                // block and MSHR wait on); `done` is the core-visible
                // completion after the response hop.
                let (ready, done) = match acquired {
                    Err(merged_ready) => {
                        // no LlcLookup mark: the merged completion may
                        // predate the lookup latency, and the whole
                        // remainder is one MSHR wait either way
                        let done = noc_respond(self.noc.as_mut(), slice, core, merged_ready);
                        if let Some(s) = span.take() {
                            self.finish_span(s, ServiceLevel::Llc, Stage::LlcMshrWait, done, true);
                        }
                        (merged_ready, done)
                    }
                    Ok(t_issue) => {
                        let t = self
                            .dram
                            .access_timed(line, t_issue + self.llc.latency, false);
                        let done = noc_respond(self.noc.as_mut(), slice, core, t.done);
                        if let Some(mut s) = span.take() {
                            if !is_prefetch {
                                s.mark(Stage::LlcMshrWait, t_issue);
                            }
                            s.mark(Stage::LlcLookup, t_issue + self.llc.latency);
                            s.mark(Stage::DramQueue, t.start);
                            s.mark(Stage::DramService, t.row_done);
                            s.mark(Stage::DramQueue, t.xfer_start);
                            self.finish_span(
                                s,
                                ServiceLevel::Mem,
                                Stage::DramTransfer,
                                done,
                                false,
                            );
                        }
                        if TIMED && !is_prefetch {
                            self.llc.mshr.register(line, t.done);
                        }
                        (t.done, done)
                    }
                };
                if !bypassed {
                    self.llc.set_ready(line, ready);
                }
                if let Some(wb) = writeback {
                    self.dram.access(wb, t_llc, true);
                }
                (done, true)
            }
        };
        if TIMED && !is_prefetch {
            self.camat.record(core, t_entry, done);
        }
        (done, missed)
    }

    /// The hierarchy walk for one demand access from `core` at `cycle`:
    /// L1D → L2 → LLC → DRAM, with prefetcher training and the
    /// prefetches it triggers. Returns the completion cycle and whether
    /// the access missed the LLC.
    ///
    /// `TIMED = true` is the walk of every measured run, driven by the
    /// scheduler's clock. `TIMED = false` is the functional walk that
    /// sampled replay warms up with (see [`System::functional_warm_to`]),
    /// driven by a per-core pseudo-clock: cache contents, LLC policy
    /// state, prefetcher training, the MMU, the NoC and the DRAM
    /// bank/bus model all update exactly as in timed mode, so the memory
    /// controller's prefetch shed test (`queue_delay >
    /// PREFETCH_SHED_CYCLES`) fires with the full run's burstiness —
    /// shed-sensitive prefetcher and LLC warmup was by far the largest
    /// sampled-replay error source. Functional mode differs in exactly
    /// four ways, all spelled as `if TIMED` expressions:
    ///
    /// 1. no MSHR acquire or register at L1, L2 or the LLC;
    /// 2. no C-AMAT record or latency span;
    /// 3. no forwarding latency on prefetch legs (L1→L2, L2→LLC, and the
    ///    LLC-only prefetch's L1+L2 hop);
    /// 4. the demand path trains the L2 prefetcher at the pseudo-clock
    ///    `cycle`, not at `t_l2`.
    ///
    /// Like [`System::step`], each mode is its own monomorphized
    /// instance, so the timed walk pays nothing for the functional one.
    pub(crate) fn access<const TIMED: bool>(
        &mut self,
        core: usize,
        rec: &TraceRecord,
        cycle: u64,
    ) -> (u64, bool) {
        let is_write = rec.kind == AccessKind::Store;
        let line = self.mmu.translate(core, rec.vaddr);
        let mut span = self.span_start::<TIMED>(core, rec.pc, line, false, cycle);

        self.l1d[core].stats.demand_accesses += 1;
        if let Some(block_ready) = self.l1d[core].lookup(line, is_write, false) {
            // the block may still be in flight (filled eagerly by a
            // prefetch or an earlier miss): wait for its arrival
            let done = (cycle + self.l1_latency).max(block_ready);
            self.trigger_l1_prefetcher::<TIMED>(core, rec.pc, line, true, cycle);
            if let Some(mut s) = span {
                s.mark(Stage::L1Lookup, cycle + self.l1_latency);
                self.finish_span(s, ServiceLevel::L1, Stage::FillWait, done, false);
            }
            return (done, false);
        }
        self.l1d[core].stats.demand_misses += 1;
        self.trigger_l1_prefetcher::<TIMED>(core, rec.pc, line, false, cycle);

        let acquired = if TIMED {
            mshr_acquire(&mut self.l1d[core].mshr, line, cycle)
        } else {
            Ok(cycle)
        };
        let t_issue = match acquired {
            Err(ready) => {
                let done = ready.max(cycle + self.l1_latency);
                if let Some(mut s) = span {
                    s.mark(Stage::L1Lookup, cycle + self.l1_latency);
                    self.finish_span(s, ServiceLevel::L1, Stage::L1MshrWait, done, true);
                }
                return (done, false);
            }
            Ok(t) => t,
        };
        let t_l2 = t_issue + self.l1_latency;
        if let Some(s) = span.as_mut() {
            s.mark(Stage::L1MshrWait, t_issue);
            s.mark(Stage::L1Lookup, t_l2);
        }

        self.l2[core].stats.demand_accesses += 1;
        let l2_res = self.l2[core].lookup(line, false, false);
        let t_train = if TIMED { t_l2 } else { cycle };
        self.trigger_l2_prefetcher::<TIMED>(core, rec.pc, line, l2_res.is_some(), t_train);
        let (ready, missed) = match l2_res {
            Some(block_ready) => {
                let done = (t_l2 + self.l2_latency).max(block_ready);
                if let Some(mut s) = span.take() {
                    s.mark(Stage::L2Lookup, t_l2 + self.l2_latency);
                    self.finish_span(s, ServiceLevel::L2, Stage::FillWait, done, false);
                }
                (done, false)
            }
            None => {
                self.l2[core].stats.demand_misses += 1;
                let acquired = if TIMED {
                    mshr_acquire(&mut self.l2[core].mshr, line, t_l2)
                } else {
                    Ok(t_l2)
                };
                match acquired {
                    Err(ready) => {
                        if let Some(s) = span.take() {
                            self.finish_span(s, ServiceLevel::L2, Stage::L2MshrWait, ready, true);
                        }
                        (ready, false)
                    }
                    Ok(t2) => {
                        let t_llc = t2 + self.l2_latency;
                        if let Some(s) = span.as_mut() {
                            s.mark(Stage::L2MshrWait, t2);
                            s.mark(Stage::L2Lookup, t_llc);
                        }
                        let (done, missed) =
                            self.access_llc::<TIMED>(core, rec.pc, line, false, t_llc, &mut span);
                        if TIMED {
                            self.l2[core].mshr.register(line, done);
                        }
                        self.fill_l2(core, line, false, done);
                        (done, missed)
                    }
                }
            }
        };
        debug_assert!(span.is_none(), "every demand path must seal its span");
        self.fill_l1(core, line, is_write, false, ready);
        if TIMED {
            self.l1d[core].mshr.register(line, ready);
        }
        (ready, missed)
    }

    /// Issue a prefetch generated at L1 (fills L1, L2 and — policy
    /// permitting — the LLC).
    fn prefetch_from_l1<const TIMED: bool>(
        &mut self,
        core: usize,
        pc: u64,
        line: LineAddr,
        cycle: u64,
    ) {
        if self.l1d[core].probe(line).is_some() {
            return; // already resident (also dedupes in-flight prefetches)
        }
        self.l1d[core].stats.prefetch_accesses += 1;
        self.l1d[core].stats.prefetch_misses += 1;
        let t_l2 = cycle + if TIMED { self.l1_latency } else { 0 };
        // L1 prefetches extend the demand stream, so they also train the
        // L2 prefetcher (otherwise an L1 prefetcher that covers the
        // stream starves the level below of training input).
        if let Some(ready) = self.prefetch_into_l2::<TIMED>(core, pc, line, t_l2, true) {
            self.fill_l1(core, line, false, true, ready);
        }
    }

    /// Issue a prefetch into L2 — generated at L2, or the tail of an L1
    /// prefetch: look up L2, then LLC/DRAM, and fill L2 (and, policy
    /// permitting, the LLC). Returns the completion cycle, or `None` if
    /// the prefetch was shed because the target DRAM bank queue is too
    /// deep. `train_l2` lets L1-originated prefetches feed the L2
    /// prefetcher (L2's own prefetches never re-train it, bounding the
    /// feedback loop).
    fn prefetch_into_l2<const TIMED: bool>(
        &mut self,
        core: usize,
        pc: u64,
        line: LineAddr,
        t_l2: u64,
        train_l2: bool,
    ) -> Option<u64> {
        if let Some(block_ready) = self.l2[core].lookup(line, false, true) {
            return Some((t_l2 + self.l2_latency).max(block_ready));
        }
        self.l2[core].stats.prefetch_accesses += 1;
        self.l2[core].stats.prefetch_misses += 1;
        // memory-controller shedding: if the line is not in the LLC and
        // its bank queue is deep, drop the prefetch instead of queueing
        // it behind demand traffic
        if self.llc.probe(line).is_none()
            && self.dram.queue_delay(line, t_l2) > PREFETCH_SHED_CYCLES
        {
            self.l2[core].stats.prefetch_dropped += 1;
            return None;
        }
        if train_l2 {
            self.trigger_l2_prefetcher::<TIMED>(core, pc, line, false, t_l2);
        }
        let t_llc = t_l2 + if TIMED { self.l2_latency } else { 0 };
        let mut span = self.span_start::<TIMED>(core, pc, line, true, t_l2);
        if let Some(s) = span.as_mut() {
            s.mark(Stage::L2Lookup, t_llc);
        }
        let (done, _) = self.access_llc::<TIMED>(core, pc, line, true, t_llc, &mut span);
        self.fill_l2(core, line, true, done);
        Some(done)
    }

    fn trigger_l1_prefetcher<const TIMED: bool>(
        &mut self,
        core: usize,
        pc: u64,
        line: LineAddr,
        hit: bool,
        cycle: u64,
    ) {
        let mut proposals = std::mem::take(&mut self.scratch);
        proposals.clear();
        self.l1_pref[core].on_access(pc, line, hit, &mut proposals);
        for req in proposals.drain(..) {
            match req.fill {
                FillLevel::L1 => self.prefetch_from_l1::<TIMED>(core, pc, req.line, cycle),
                FillLevel::L2 => {
                    let _ = self.prefetch_into_l2::<TIMED>(core, pc, req.line, cycle, false);
                }
                FillLevel::LlcOnly => self.prefetch_llc_only::<TIMED>(core, pc, req.line, cycle),
            }
        }
        self.scratch = proposals;
    }

    fn trigger_l2_prefetcher<const TIMED: bool>(
        &mut self,
        core: usize,
        pc: u64,
        line: LineAddr,
        hit: bool,
        cycle: u64,
    ) {
        let mut proposals = std::mem::take(&mut self.scratch);
        proposals.clear();
        self.l2_pref[core].on_access(pc, line, hit, &mut proposals);
        for req in proposals.drain(..) {
            match req.fill {
                // an L2-resident prefetcher cannot fill L1
                FillLevel::L1 | FillLevel::L2 => {
                    let _ = self.prefetch_into_l2::<TIMED>(core, pc, req.line, cycle, false);
                }
                FillLevel::LlcOnly => self.prefetch_llc_only::<TIMED>(core, pc, req.line, cycle),
            }
        }
        self.scratch = proposals;
    }

    /// A far-lookahead prefetch that fills only the shared LLC (subject
    /// to the management policy's bypass decision).
    fn prefetch_llc_only<const TIMED: bool>(
        &mut self,
        core: usize,
        pc: u64,
        line: LineAddr,
        cycle: u64,
    ) {
        if self.llc.probe(line).is_none()
            && self.dram.queue_delay(line, cycle) > PREFETCH_SHED_CYCLES
        {
            self.llc.stats.prefetch_dropped += 1;
            return;
        }
        let t_llc = cycle
            + if TIMED {
                self.l1_latency + self.l2_latency
            } else {
                0
            };
        let mut span = self.span_start::<TIMED>(core, pc, line, true, cycle);
        if let Some(s) = span.as_mut() {
            s.mark(Stage::L1Lookup, cycle + self.l1_latency);
            s.mark(Stage::L2Lookup, t_llc);
        }
        let _ = self.access_llc::<TIMED>(core, pc, line, true, t_llc, &mut span);
    }

    /// Reset all measurement counters (used at the warmup boundary).
    pub(super) fn reset_stats(&mut self) {
        for c in &mut self.l1d {
            c.stats = Default::default();
        }
        for c in &mut self.l2 {
            c.stats = Default::default();
        }
        self.llc.stats = Default::default();
        self.camat.reset_totals();
        if let Some(noc) = &mut self.noc {
            noc.epoch_rebase();
        }
    }

    /// The mesh-NoC timing state, when enabled.
    pub fn noc(&self) -> Option<&NocState> {
        self.noc.as_ref()
    }
}
