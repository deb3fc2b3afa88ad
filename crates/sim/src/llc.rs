//! The shared last-level cache, managed by a pluggable
//! [`LlcPolicy`](crate::policy::LlcPolicy).

use crate::config::CacheConfig;
use crate::mshr::MshrFile;
use crate::policy::{AccessInfo, CandidateLine, FillDecision, PolicySlot, SystemFeedback};
use crate::probe::{find_key, key_of, line_of};
use crate::stats::{CacheStats, EvictedUnusedTracker};
use crate::types::LineAddr;

/// Result of an LLC access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LlcOutcome {
    /// The line was resident.
    Hit {
        /// Cycle the block's data arrives (0 for long-settled blocks);
        /// a hit on an in-flight fill waits for this. Returned inline so
        /// the hit path costs exactly one set scan.
        ready: u64,
    },
    /// The line missed and was (or will be) fetched from DRAM.
    Miss {
        /// True if the policy chose to bypass the LLC for this block.
        bypassed: bool,
        /// A dirty victim that must be written back to DRAM.
        writeback: Option<LineAddr>,
    },
}

/// `flags` bit: the block is dirty.
const DIRTY: u8 = 1;
/// `flags` bit: a prefetch filled the block and no demand access has
/// hit it since.
const PREFETCH: u8 = 2;
/// `flags` bit: an access hit the block since it was filled.
const HIT_SINCE_FILL: u8 = 4;

/// The shared LLC: geometry, per-block state, policy, and statistics.
pub struct SharedLlc {
    sets: usize,
    /// `sets - 1`; power-of-two set count asserted at construction so
    /// set indexing is a bitmask, not a 64-bit modulo.
    set_mask: u64,
    ways: usize,
    /// Access latency in cycles.
    pub latency: u64,
    /// Packed tag+valid per way (see [`crate::probe::key_of`]), `0` =
    /// invalid way.
    keys: Vec<u32>,
    /// [`DIRTY`], [`PREFETCH`] and [`HIT_SINCE_FILL`] bits per way.
    flags: Vec<u8>,
    ready_at: Vec<u64>,
    /// Block index of the most recent fill, so the common
    /// fill-then-`set_ready` sequence skips the second set scan.
    last_fill: usize,
    /// Reused victim-candidate buffer: evictions do not allocate.
    victim_scratch: Vec<CandidateLine>,
    /// The management policy (replacement + bypass decisions). The
    /// built-in LRU baseline is statically dispatched; see
    /// [`PolicySlot`].
    pub policy: PolicySlot,
    /// Outstanding-miss tracking.
    pub mshr: MshrFile,
    /// Counters.
    pub stats: CacheStats,
    /// Fig. 2 tracker (disabled by default; see
    /// [`SharedLlc::enable_unused_tracking`]).
    pub unused_tracker: EvictedUnusedTracker,
    /// Fig. 9 tracker: outcome of bypassed lines (disabled by default).
    pub bypass_tracker: EvictedUnusedTracker,
}

impl std::fmt::Debug for SharedLlc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedLlc")
            .field("sets", &self.sets)
            .field("ways", &self.ways)
            .field("policy", &self.policy.name())
            .finish_non_exhaustive()
    }
}

impl SharedLlc {
    /// Build the LLC with the given geometry and policy. Calls
    /// [`LlcPolicy::initialize`](crate::policy::LlcPolicy::initialize).
    ///
    /// # Panics
    ///
    /// Panics on a degenerate geometry (zero sets or ways) or a
    /// non-power-of-two set count (bitmask indexing).
    pub fn new(cfg: &CacheConfig, cores: usize, policy: impl Into<PolicySlot>) -> Self {
        let mut policy = policy.into();
        let sets = cfg.sets();
        assert!(sets > 0 && cfg.ways > 0, "degenerate LLC geometry");
        assert!(
            sets.is_power_of_two(),
            "LLC set count must be a power of two (got {sets})"
        );
        policy.initialize(sets, cfg.ways, cores);
        let n = sets * cfg.ways;
        SharedLlc {
            sets,
            set_mask: sets as u64 - 1,
            ways: cfg.ways,
            latency: cfg.latency,
            keys: vec![0; n],
            flags: vec![0; n],
            ready_at: vec![0; n],
            last_fill: usize::MAX,
            victim_scratch: Vec::with_capacity(cfg.ways),
            policy,
            mshr: MshrFile::new(cfg.mshr_entries),
            stats: CacheStats::default(),
            unused_tracker: EvictedUnusedTracker::new(false),
            bypass_tracker: EvictedUnusedTracker::new(false),
        }
    }

    /// Enable the (memory-hungry) Fig. 2 / Fig. 9 outcome tracking.
    pub fn enable_unused_tracking(&mut self) {
        self.unused_tracker = EvictedUnusedTracker::new(true);
        self.bypass_tracker = EvictedUnusedTracker::new(true);
    }

    /// Number of sets.
    pub fn num_sets(&self) -> usize {
        self.sets
    }

    /// Associativity.
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Set index of a line.
    #[inline]
    pub fn set_of(&self, line: LineAddr) -> usize {
        (line.0 & self.set_mask) as usize
    }

    #[inline]
    fn idx(&self, set: usize, way: usize) -> usize {
        set * self.ways + way
    }

    /// Look up `line` without side effects.
    pub fn probe(&self, line: LineAddr) -> Option<usize> {
        let base = self.set_of(line) * self.ways;
        find_key(&self.keys[base..base + self.ways], key_of(line))
    }

    /// Perform a full access: policy callbacks, statistics, fills and
    /// evictions. Returns what happened; on a non-bypassed miss the block
    /// has been inserted by the time this returns.
    pub fn access(&mut self, info: &AccessInfo, feedback: &SystemFeedback) -> LlcOutcome {
        let set = self.set_of(info.line);
        self.unused_tracker.on_access(info.line);
        if !info.is_prefetch {
            self.bypass_tracker.on_access(info.line);
        }
        if info.is_prefetch {
            self.stats.prefetch_accesses += 1;
        } else {
            self.stats.demand_accesses += 1;
        }
        if let Some(way) = self.probe(info.line) {
            let i = self.idx(set, way);
            self.flags[i] |= HIT_SINCE_FILL;
            if info.is_write {
                self.flags[i] |= DIRTY;
            }
            if !info.is_prefetch && self.flags[i] & PREFETCH != 0 {
                self.flags[i] &= !PREFETCH;
                self.stats.prefetch_useful += 1;
            }
            self.policy.on_hit(set, way, info, feedback);
            return LlcOutcome::Hit {
                ready: self.ready_at[i],
            };
        }
        // Miss path.
        if info.is_prefetch {
            self.stats.prefetch_misses += 1;
        } else {
            self.stats.demand_misses += 1;
        }
        let decision = self.policy.on_miss(set, info, feedback);
        if decision == FillDecision::Bypass {
            self.stats.bypasses += 1;
            self.bypass_tracker
                .on_unused_eviction(info.line, info.is_prefetch);
            return LlcOutcome::Miss {
                bypassed: true,
                writeback: None,
            };
        }
        let writeback = self.fill_at(set, info, feedback);
        LlcOutcome::Miss {
            bypassed: false,
            writeback,
        }
    }

    /// Insert `info.line` into `set`, evicting a victim if needed.
    /// Returns a dirty victim's line address for writeback.
    fn fill_at(
        &mut self,
        set: usize,
        info: &AccessInfo,
        feedback: &SystemFeedback,
    ) -> Option<LineAddr> {
        let base = set * self.ways;
        let way = match find_key(&self.keys[base..base + self.ways], 0) {
            Some(w) => w,
            None => {
                let mut candidates = std::mem::take(&mut self.victim_scratch);
                candidates.clear();
                candidates.extend((0..self.ways).map(|w| {
                    let i = base + w;
                    CandidateLine {
                        way: w,
                        line: line_of(self.keys[i]),
                        prefetch: self.flags[i] & PREFETCH != 0,
                        dirty: self.flags[i] & DIRTY != 0,
                    }
                }));
                let w = self.policy.choose_victim(set, &candidates, info);
                self.victim_scratch = candidates;
                assert!(w < self.ways, "policy returned out-of-range victim way");
                w
            }
        };
        let i = base + way;
        let mut writeback = None;
        if self.keys[i] != 0 {
            let victim = line_of(self.keys[i]);
            let flags = self.flags[i];
            let prefetched = flags & PREFETCH != 0;
            let reused = flags & HIT_SINCE_FILL != 0;
            self.stats.evictions += 1;
            if !reused {
                self.stats.evictions_unused += 1;
                if prefetched {
                    self.stats.evictions_unused_prefetch += 1;
                }
                self.unused_tracker.on_unused_eviction(victim, prefetched);
            }
            if flags & DIRTY != 0 {
                self.stats.writebacks += 1;
                writeback = Some(victim);
            }
            self.policy.on_evict(set, way, victim, reused);
        }
        self.keys[i] = key_of(info.line);
        self.last_fill = i;
        self.flags[i] = (DIRTY * u8::from(info.is_write)) | (PREFETCH * u8::from(info.is_prefetch));
        if info.is_prefetch {
            self.stats.prefetch_fills += 1;
        }
        self.policy.on_fill(set, way, info, feedback);
        writeback
    }

    /// Record when the data for a (just-filled) resident line arrives.
    pub fn set_ready(&mut self, line: LineAddr, ready: u64) {
        // The miss path always fills and then records readiness, so the
        // last-fill slot almost always short-circuits the set scan.
        if let Some(&k) = self.keys.get(self.last_fill) {
            if k == key_of(line) {
                self.ready_at[self.last_fill] = ready;
                return;
            }
        }
        if let Some(way) = self.probe(line) {
            let set = self.set_of(line);
            let i = self.idx(set, way);
            self.ready_at[i] = ready;
        }
    }

    /// A writeback arriving from an upper level: mark dirty if resident,
    /// otherwise report `false` so the caller forwards it to DRAM.
    pub fn writeback(&mut self, line: LineAddr) -> bool {
        if let Some(way) = self.probe(line) {
            let set = self.set_of(line);
            let i = self.idx(set, way);
            self.flags[i] |= DIRTY;
            true
        } else {
            false
        }
    }

    /// Number of valid blocks (diagnostic).
    pub fn occupancy(&self) -> usize {
        self.keys.iter().filter(|&&k| k != 0).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::tests_support::{CountingPolicy, TrueLru};

    fn info(line: u64, prefetch: bool) -> AccessInfo {
        AccessInfo {
            core: 0,
            pc: 0x400,
            line: LineAddr(line),
            is_prefetch: prefetch,
            is_write: false,
            cycle: 0,
        }
    }

    fn llc(sets: usize, ways: usize) -> SharedLlc {
        SharedLlc::new(
            &CacheConfig {
                capacity: sets * ways * 64,
                ways,
                latency: 40,
                mshr_entries: 8,
            },
            1,
            Box::new(TrueLru::new()),
        )
    }

    #[test]
    fn miss_then_hit() {
        let fb = SystemFeedback::new(1);
        let mut c = llc(4, 2);
        assert!(matches!(
            c.access(&info(8, false), &fb),
            LlcOutcome::Miss { .. }
        ));
        assert_eq!(c.access(&info(8, false), &fb), LlcOutcome::Hit { ready: 0 });
        assert_eq!(c.stats.demand_accesses, 2);
        assert_eq!(c.stats.demand_misses, 1);
    }

    #[test]
    fn victim_is_lru() {
        let fb = SystemFeedback::new(1);
        let mut c = llc(4, 2);
        c.access(&info(0, false), &fb);
        c.access(&info(4, false), &fb);
        c.access(&info(0, false), &fb); // 0 becomes MRU
        c.access(&info(8, false), &fb); // evicts 4
        assert!(c.probe(LineAddr(0)).is_some());
        assert!(c.probe(LineAddr(4)).is_none());
        assert!(c.probe(LineAddr(8)).is_some());
    }

    #[test]
    fn eviction_unused_counted() {
        let fb = SystemFeedback::new(1);
        let mut c = llc(1, 1);
        c.access(&info(0, true), &fb); // prefetch fill
        c.access(&info(1, false), &fb); // evicts 0 (never hit)
        assert_eq!(c.stats.evictions_unused, 1);
        assert_eq!(c.stats.evictions_unused_prefetch, 1);
    }

    #[test]
    fn demand_hit_on_prefetched_block_counts_useful() {
        let fb = SystemFeedback::new(1);
        let mut c = llc(4, 2);
        c.access(&info(0, true), &fb);
        assert_eq!(c.stats.prefetch_fills, 1);
        c.access(&info(0, false), &fb);
        assert_eq!(c.stats.prefetch_useful, 1);
    }

    #[test]
    fn bypass_policy_never_fills() {
        let fb = SystemFeedback::new(1);
        let mut c = SharedLlc::new(
            &CacheConfig {
                capacity: 4 * 2 * 64,
                ways: 2,
                latency: 40,
                mshr_entries: 8,
            },
            1,
            Box::new(CountingPolicy::always_bypass()),
        );
        let out = c.access(&info(0, false), &fb);
        assert_eq!(
            out,
            LlcOutcome::Miss {
                bypassed: true,
                writeback: None
            }
        );
        assert_eq!(c.occupancy(), 0);
        assert_eq!(c.stats.bypasses, 1);
    }

    #[test]
    fn dirty_eviction_produces_writeback() {
        let fb = SystemFeedback::new(1);
        let mut c = llc(1, 1);
        let w = AccessInfo {
            is_write: true,
            ..info(0, false)
        };
        c.access(&w, &fb);
        match c.access(&info(1, false), &fb) {
            LlcOutcome::Miss {
                writeback: Some(l), ..
            } => assert_eq!(l, LineAddr(0)),
            other => panic!("expected dirty writeback, got {other:?}"),
        }
    }

    #[test]
    fn upper_level_writeback_marks_dirty() {
        let fb = SystemFeedback::new(1);
        let mut c = llc(1, 1);
        c.access(&info(0, false), &fb);
        assert!(c.writeback(LineAddr(0)));
        assert!(!c.writeback(LineAddr(99)));
        match c.access(&info(1, false), &fb) {
            LlcOutcome::Miss {
                writeback: Some(l), ..
            } => assert_eq!(l, LineAddr(0)),
            other => panic!("expected writeback, got {other:?}"),
        }
    }

    #[test]
    fn policy_callbacks_fire() {
        let fb = SystemFeedback::new(1);
        let mut c = SharedLlc::new(
            &CacheConfig {
                capacity: 64,
                ways: 1,
                latency: 40,
                mshr_entries: 8,
            },
            1,
            Box::new(CountingPolicy::insert_all()),
        );
        c.access(&info(0, false), &fb); // miss + fill
        c.access(&info(0, false), &fb); // hit
        c.access(&info(1, false), &fb); // miss, evict, fill
        let counts = match c.policy.name() {
            n if n.starts_with("counting") => n.to_string(),
            n => panic!("unexpected policy {n}"),
        };
        // counting policy encodes its counters in its name
        assert!(counts.contains("m2"), "{counts}");
        assert!(counts.contains("h1"), "{counts}");
        assert!(counts.contains("f2"), "{counts}");
        assert!(counts.contains("e1"), "{counts}");
    }
}
