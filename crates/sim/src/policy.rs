//! The pluggable LLC management-policy interface.
//!
//! Every scheme evaluated in the paper — LRU, Hawkeye, Glider, Mockingjay,
//! CARE and CHROME itself — implements [`LlcPolicy`]. The shared LLC calls
//! into the policy on every lookup, giving it the opportunity to make
//! *holistic* decisions: bypass or insert on a miss (with a chosen
//! priority), promote/demote on a hit, and select victims.

pub use crate::lru::BuiltinLru;
use crate::overhead::StorageOverhead;
use crate::types::LineAddr;
use chrome_telemetry::{AuditLog, PolicyEpochProbe, TelemetrySink};

/// Everything a policy may observe about one LLC access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessInfo {
    /// Core that initiated the access.
    pub core: usize,
    /// Program counter of the triggering instruction (for prefetches, the
    /// PC of the demand access that triggered the prefetcher).
    pub pc: u64,
    /// Line address being accessed.
    pub line: LineAddr,
    /// True if this is a prefetch request rather than a demand access.
    pub is_prefetch: bool,
    /// True if this is a store (demand write).
    pub is_write: bool,
    /// Cycle at which the access reaches the LLC.
    pub cycle: u64,
}

/// One candidate block during victim selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CandidateLine {
    /// Way index within the set.
    pub way: usize,
    /// Line address currently stored.
    pub line: LineAddr,
    /// True if the block still carries its prefetch bit.
    pub prefetch: bool,
    /// True if the block is dirty.
    pub dirty: bool,
}

/// Decision for an incoming block on an LLC miss.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FillDecision {
    /// Do not cache the block; forward it straight to the requestor.
    Bypass,
    /// Insert the block (the cache will ask for a victim if needed).
    Insert,
}

/// Concurrency-aware system feedback published once per epoch
/// (paper §IV-C): per-core C-AMAT at the LLC and the derived
/// LLC-obstruction flags.
#[derive(Debug, Clone, Default)]
pub struct SystemFeedback {
    /// Per-core C-AMAT(LLC) measured over the last epoch, in cycles.
    pub camat_llc: Vec<f64>,
    /// Per-core LLC-obstruction flags: true when
    /// `C-AMAT_i(LLC) > T_mem` during the last epoch.
    pub obstructed: Vec<bool>,
    /// Measured average main-memory latency `T_mem` (cycles).
    pub t_mem: f64,
    /// Index of the current epoch (starts at 0).
    pub epoch: u64,
}

impl SystemFeedback {
    /// Feedback for `cores` cores with no obstruction.
    pub fn new(cores: usize) -> Self {
        SystemFeedback {
            camat_llc: vec![0.0; cores],
            obstructed: vec![false; cores],
            t_mem: 200.0,
            epoch: 0,
        }
    }

    /// Whether `core` was LLC-obstructed in the last epoch. Out-of-range
    /// cores report `false`.
    pub fn is_obstructed(&self, core: usize) -> bool {
        self.obstructed.get(core).copied().unwrap_or(false)
    }
}

/// An LLC management policy (replacement + bypassing, prefetch-aware).
///
/// Implementors keep their own per-block metadata, indexed by
/// `(set, way)`; the cache guarantees `set < num_sets` and `way < ways`
/// as given to [`LlcPolicy::initialize`].
///
/// This is the *hardware* binding of cache management: the learned
/// agent in `chrome-core` is generic over an `Environment` trait, and
/// its `HwEnv` implementation adapts these callbacks (the same engine
/// also drives the software serving cache in `chrome-serve`).
pub trait LlcPolicy {
    /// Called once before simulation with the LLC geometry.
    fn initialize(&mut self, num_sets: usize, ways: usize, cores: usize);

    /// A lookup hit block `(set, way)`. The policy may update priorities.
    fn on_hit(&mut self, set: usize, way: usize, info: &AccessInfo, feedback: &SystemFeedback);

    /// A lookup missed; decide whether the incoming block should be
    /// inserted or should bypass the LLC.
    fn on_miss(&mut self, set: usize, info: &AccessInfo, feedback: &SystemFeedback)
        -> FillDecision;

    /// Choose a victim among `candidates` (all ways are valid blocks).
    /// Returns the chosen way.
    fn choose_victim(
        &mut self,
        set: usize,
        candidates: &[CandidateLine],
        info: &AccessInfo,
    ) -> usize;

    /// The incoming block was placed in `(set, way)` (after any eviction).
    fn on_fill(&mut self, set: usize, way: usize, info: &AccessInfo, feedback: &SystemFeedback);

    /// A valid block was evicted from `(set, way)`.
    /// `was_hit` reports whether it was ever hit while resident.
    fn on_evict(&mut self, set: usize, way: usize, line: LineAddr, was_hit: bool);

    /// Called at every feedback-epoch boundary with fresh C-AMAT data.
    fn on_epoch(&mut self, feedback: &SystemFeedback) {
        let _ = feedback;
    }

    /// Offer the policy a telemetry sink. Nothing in the simulator calls
    /// this: a policy's per-decision record is its audit log
    /// ([`LlcPolicy::enable_audit`]) and its epoch sample is
    /// [`LlcPolicy::epoch_probe`]. It remains so wrapping policies (such
    /// as `perfbench`'s timing decorator) can forward it; the default
    /// drops the sink.
    fn set_telemetry(&mut self, sink: TelemetrySink) {
        let _ = sink;
    }

    /// Sample policy internals for the epoch recorder (EQ occupancy and
    /// overflow, ε, mean |Q| for learned policies). The default reports
    /// all zeros.
    fn epoch_probe(&self) -> PolicyEpochProbe {
        PolicyEpochProbe::default()
    }

    /// Start recording a per-decision audit trail into a bounded log
    /// tagged with `stream`, holding at most `cap` records. Returns
    /// true when the policy supports auditing (only learned policies
    /// with a decision stream do); the default refuses.
    fn enable_audit(&mut self, stream: u32, cap: usize) -> bool {
        let _ = (stream, cap);
        false
    }

    /// The recorded audit trail, if auditing was enabled and the
    /// policy supports it.
    fn audit(&self) -> Option<&AuditLog> {
        None
    }

    /// Human-readable scheme name ("LRU", "Hawkeye", "CHROME", ...).
    fn name(&self) -> &str;

    /// Optional scheme-specific metrics, as `(name, value)` pairs
    /// (e.g. CHROME reports Q-table updates per kilo sampled accesses).
    fn report(&self) -> Vec<(String, f64)> {
        Vec::new()
    }

    /// Hardware storage budget of this scheme for an LLC with
    /// `llc_blocks` blocks (paper Table IV).
    fn storage_overhead(&self, llc_blocks: usize) -> StorageOverhead;
}

/// The LLC's policy slot: the built-in LRU baseline inlined as an enum
/// arm, everything else behind the usual trait object.
///
/// LRU is both the paper's normalization reference and the throughput
/// benchmark's fast lane, so its four per-access callbacks (`on_hit`,
/// `on_miss`, `choose_victim`, `on_fill`) deserve static dispatch — a
/// stamp write and a min-scan the optimizer can inline straight into
/// [`crate::llc::SharedLlc::access`]. Learned and heuristic policies
/// live in downstream crates (`chrome-policies`, `chrome-core`), which
/// this crate cannot name, so they stay dynamically dispatched in the
/// `Dyn` arm; their per-access work (sampler lookups, Q-table reads)
/// dwarfs a vtable hop anyway.
///
/// `From` impls keep construction source-compatible: anywhere that used
/// to pass a `Box<dyn LlcPolicy>` still compiles, and passing a bare
/// [`BuiltinLru`] opts into the static arm.
pub enum PolicySlot {
    /// The built-in true-LRU baseline, statically dispatched.
    Lru(BuiltinLru),
    /// Any other management policy, through its vtable.
    Dyn(Box<dyn LlcPolicy>),
}

impl From<BuiltinLru> for PolicySlot {
    fn from(p: BuiltinLru) -> Self {
        PolicySlot::Lru(p)
    }
}

impl From<Box<dyn LlcPolicy>> for PolicySlot {
    fn from(p: Box<dyn LlcPolicy>) -> Self {
        PolicySlot::Dyn(p)
    }
}

// Callers that box a concrete policy type (`Box<Chrome>`, `Box<Hawkeye>`)
// land in the `Dyn` arm too; the unsize coercion happens here rather
// than at every call site.
impl<P: LlcPolicy + 'static> From<Box<P>> for PolicySlot {
    fn from(p: Box<P>) -> Self {
        PolicySlot::Dyn(p)
    }
}

macro_rules! slot_dispatch {
    ($self:ident, $p:ident => $body:expr) => {
        match $self {
            PolicySlot::Lru($p) => $body,
            PolicySlot::Dyn($p) => $body,
        }
    };
}

impl PolicySlot {
    /// See [`LlcPolicy::initialize`].
    pub fn initialize(&mut self, num_sets: usize, ways: usize, cores: usize) {
        slot_dispatch!(self, p => p.initialize(num_sets, ways, cores))
    }

    /// See [`LlcPolicy::on_hit`].
    #[inline]
    pub fn on_hit(&mut self, set: usize, way: usize, info: &AccessInfo, feedback: &SystemFeedback) {
        slot_dispatch!(self, p => p.on_hit(set, way, info, feedback))
    }

    /// See [`LlcPolicy::on_miss`].
    #[inline]
    pub fn on_miss(
        &mut self,
        set: usize,
        info: &AccessInfo,
        feedback: &SystemFeedback,
    ) -> FillDecision {
        slot_dispatch!(self, p => p.on_miss(set, info, feedback))
    }

    /// See [`LlcPolicy::choose_victim`].
    #[inline]
    pub fn choose_victim(
        &mut self,
        set: usize,
        candidates: &[CandidateLine],
        info: &AccessInfo,
    ) -> usize {
        slot_dispatch!(self, p => p.choose_victim(set, candidates, info))
    }

    /// See [`LlcPolicy::on_fill`].
    #[inline]
    pub fn on_fill(
        &mut self,
        set: usize,
        way: usize,
        info: &AccessInfo,
        feedback: &SystemFeedback,
    ) {
        slot_dispatch!(self, p => p.on_fill(set, way, info, feedback))
    }

    /// See [`LlcPolicy::on_evict`].
    #[inline]
    pub fn on_evict(&mut self, set: usize, way: usize, line: LineAddr, was_hit: bool) {
        slot_dispatch!(self, p => p.on_evict(set, way, line, was_hit))
    }

    /// See [`LlcPolicy::on_epoch`].
    pub fn on_epoch(&mut self, feedback: &SystemFeedback) {
        slot_dispatch!(self, p => p.on_epoch(feedback))
    }

    /// See [`LlcPolicy::epoch_probe`].
    pub fn epoch_probe(&self) -> PolicyEpochProbe {
        slot_dispatch!(self, p => p.epoch_probe())
    }

    /// See [`LlcPolicy::enable_audit`].
    pub fn enable_audit(&mut self, stream: u32, cap: usize) -> bool {
        slot_dispatch!(self, p => p.enable_audit(stream, cap))
    }

    /// See [`LlcPolicy::audit`].
    pub fn audit(&self) -> Option<&AuditLog> {
        slot_dispatch!(self, p => p.audit())
    }

    /// See [`LlcPolicy::name`].
    pub fn name(&self) -> &str {
        slot_dispatch!(self, p => p.name())
    }

    /// See [`LlcPolicy::report`].
    pub fn report(&self) -> Vec<(String, f64)> {
        slot_dispatch!(self, p => p.report())
    }

    /// See [`LlcPolicy::storage_overhead`].
    pub fn storage_overhead(&self, llc_blocks: usize) -> StorageOverhead {
        slot_dispatch!(self, p => p.storage_overhead(llc_blocks))
    }
}

/// Index of `set` among the `sampled` observation sets used by
/// sampling-based policies (Hawkeye, Mockingjay, CHROME), in
/// `0..sampled`, or `None` if `set` is not sampled. Sets are spaced
/// evenly across the cache.
#[inline]
pub fn sampled_index(set: usize, num_sets: usize, sampled: usize) -> Option<usize> {
    if sampled == 0 {
        return None;
    }
    let stride = (num_sets / sampled).max(1);
    if set.is_multiple_of(stride) && set / stride < sampled {
        Some(set / stride)
    } else {
        None
    }
}

/// Minimal policies used by the simulator's own tests. Hidden from docs;
/// real policies live in the `chrome-policies` and `chrome-core` crates.
#[doc(hidden)]
pub mod tests_support {
    use super::*;

    pub use super::BuiltinLru as TrueLru;

    /// A policy that counts callback invocations (for wiring tests) and
    /// can be configured to always bypass.
    #[derive(Debug)]
    pub struct CountingPolicy {
        bypass: bool,
        misses: u64,
        hits: u64,
        fills: u64,
        evicts: u64,
        name: String,
    }

    impl CountingPolicy {
        /// Policy that bypasses every incoming block.
        pub fn always_bypass() -> Self {
            CountingPolicy {
                bypass: true,
                misses: 0,
                hits: 0,
                fills: 0,
                evicts: 0,
                name: "counting".into(),
            }
        }

        /// Policy that inserts every incoming block (victim = way 0).
        pub fn insert_all() -> Self {
            CountingPolicy {
                bypass: false,
                ..Self::always_bypass()
            }
        }

        fn refresh(&mut self) {
            self.name = format!(
                "counting m{} h{} f{} e{}",
                self.misses, self.hits, self.fills, self.evicts
            );
        }
    }

    impl LlcPolicy for CountingPolicy {
        fn initialize(&mut self, _: usize, _: usize, _: usize) {}

        fn on_hit(&mut self, _: usize, _: usize, _: &AccessInfo, _: &SystemFeedback) {
            self.hits += 1;
            self.refresh();
        }

        fn on_miss(&mut self, _: usize, _: &AccessInfo, _: &SystemFeedback) -> FillDecision {
            self.misses += 1;
            self.refresh();
            if self.bypass {
                FillDecision::Bypass
            } else {
                FillDecision::Insert
            }
        }

        fn choose_victim(&mut self, _: usize, _: &[CandidateLine], _: &AccessInfo) -> usize {
            0
        }

        fn on_fill(&mut self, _: usize, _: usize, _: &AccessInfo, _: &SystemFeedback) {
            self.fills += 1;
            self.refresh();
        }

        fn on_evict(&mut self, _: usize, _: usize, _: LineAddr, _: bool) {
            self.evicts += 1;
            self.refresh();
        }

        fn name(&self) -> &str {
            &self.name
        }

        fn storage_overhead(&self, _: usize) -> StorageOverhead {
            StorageOverhead::new()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampled_sets_are_spaced() {
        let num_sets = 16384;
        let count = (0..num_sets)
            .filter(|&s| sampled_index(s, num_sets, 64).is_some())
            .count();
        assert_eq!(count, 64);
        assert!(sampled_index(0, num_sets, 64).is_some());
        assert!(sampled_index(256, num_sets, 64).is_some());
        assert!(sampled_index(1, num_sets, 64).is_none());
    }

    #[test]
    fn sampled_index_matches_membership() {
        // 64 of 1024 sets: every 16th set, numbered in order
        let num_sets = 1024;
        for s in 0..num_sets {
            let idx = sampled_index(s, num_sets, 64);
            assert_eq!(idx, s.is_multiple_of(16).then_some(s / 16), "set {s}");
        }
    }

    #[test]
    fn sampling_more_than_sets_samples_everything() {
        // tiny test caches: every set is sampled
        for s in 0..8 {
            assert_eq!(sampled_index(s, 8, 64), Some(s));
        }
    }

    #[test]
    fn zero_sampled_sets() {
        assert_eq!(sampled_index(0, 64, 0), None);
    }

    #[test]
    fn feedback_out_of_range_is_unobstructed() {
        let f = SystemFeedback::new(2);
        assert!(!f.is_obstructed(0));
        assert!(!f.is_obstructed(99));
    }

    #[test]
    fn feedback_flags() {
        let mut f = SystemFeedback::new(2);
        f.obstructed[1] = true;
        assert!(!f.is_obstructed(0));
        assert!(f.is_obstructed(1));
    }
}
