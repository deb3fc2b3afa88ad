//! The LRU baseline (the paper's normalization reference) and the
//! recency ranks every true-LRU set in the simulator keeps.

use crate::overhead::StorageOverhead;
use crate::policy::{AccessInfo, CandidateLine, FillDecision, LlcPolicy, SystemFeedback};
use crate::types::LineAddr;

/// Recency ranks for `sets` sets of `ways` ways, one `u8` per way. Each
/// set holds a permutation of `0..ways`, rank 0 the most recently
/// touched way; [`touch`] keeps it one. Ranks order the touched ways
/// exactly as unique LRU stamps would, and unlike a narrow stamp they
/// cannot overflow at any run length. Every set starts as `ways - 1,
/// ..., 1, 0`, so while a set has never-touched ways, the highest rank
/// is the lowest-numbered of them: a cache that fills only its
/// highest-ranked way fills its invalid ways in way order.
///
/// # Panics
///
/// Panics above 256 ways (ranks are 8-bit).
pub(crate) fn new_ranks(sets: usize, ways: usize) -> Vec<u8> {
    assert!(
        ways <= 256,
        "recency ranks are 8-bit: at most 256 ways (got {ways})"
    );
    (0..sets)
        .flat_map(|_| (0..ways).rev().map(|r| r as u8))
        .collect()
}

/// Make `way` its set's most recent way: every way ranked below it
/// moves down one place and it takes rank 0. `ranks` is one set.
#[inline]
pub(crate) fn touch(ranks: &mut [u8], way: usize) {
    let r = ranks[way];
    for x in ranks.iter_mut() {
        *x += u8::from(*x < r);
    }
    ranks[way] = 0;
}

/// True-LRU replacement with no bypassing, prefetch-oblivious — the
/// paper's baseline and the simplest possible [`LlcPolicy`]
/// implementation. Kept in the simulator crate so a [`crate::System`]
/// can be built without the policy crates, and so the LLC's policy slot
/// can dispatch to it statically.
#[derive(Debug, Default)]
pub struct BuiltinLru {
    /// Recency rank per way; see [`new_ranks`].
    rank: Vec<u8>,
    ways: usize,
}

impl BuiltinLru {
    /// Create an uninitialized LRU policy; geometry arrives via
    /// [`LlcPolicy::initialize`].
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    fn set_ranks(&mut self, set: usize) -> &mut [u8] {
        &mut self.rank[set * self.ways..(set + 1) * self.ways]
    }
}

impl LlcPolicy for BuiltinLru {
    fn initialize(&mut self, num_sets: usize, ways: usize, _cores: usize) {
        self.rank = new_ranks(num_sets, ways);
        self.ways = ways;
    }

    fn on_hit(&mut self, set: usize, way: usize, _: &AccessInfo, _: &SystemFeedback) {
        touch(self.set_ranks(set), way);
    }

    fn on_miss(&mut self, _: usize, _: &AccessInfo, _: &SystemFeedback) -> FillDecision {
        FillDecision::Insert
    }

    /// The least recently touched candidate. The LLC asks only when the
    /// set is full, and it touches every way it fills, so the ranks of
    /// a full set order all its ways by recency.
    fn choose_victim(&mut self, set: usize, c: &[CandidateLine], _: &AccessInfo) -> usize {
        c.iter()
            .max_by_key(|cand| self.rank[set * self.ways + cand.way])
            .expect("candidates nonempty")
            .way
    }

    fn on_fill(&mut self, set: usize, way: usize, _: &AccessInfo, _: &SystemFeedback) {
        touch(self.set_ranks(set), way);
    }

    fn on_evict(&mut self, _: usize, _: usize, _: LineAddr, _: bool) {}

    fn name(&self) -> &str {
        "LRU"
    }

    /// The hardware encoding: a recency stack position per block, as
    /// the simulator's ranks are.
    fn storage_overhead(&self, llc_blocks: usize) -> StorageOverhead {
        let mut o = StorageOverhead::new();
        // log2(12 ways) ≈ 4 bits of recency order per block
        o.add_table("recency stack position", llc_blocks as u64, 4);
        o
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn info(line: u64) -> AccessInfo {
        AccessInfo {
            core: 0,
            pc: 0,
            line: LineAddr(line),
            is_prefetch: false,
            is_write: false,
            cycle: 0,
        }
    }

    fn cands(n: usize) -> Vec<CandidateLine> {
        (0..n)
            .map(|w| CandidateLine {
                way: w,
                line: LineAddr(w as u64),
                prefetch: false,
                dirty: false,
            })
            .collect()
    }

    #[test]
    fn victim_is_least_recent() {
        let fb = SystemFeedback::new(1);
        let mut p = BuiltinLru::new();
        p.initialize(4, 2, 1);
        p.on_fill(0, 0, &info(1), &fb);
        p.on_fill(0, 1, &info(2), &fb);
        p.on_hit(0, 0, &info(1), &fb);
        assert_eq!(p.choose_victim(0, &cands(2), &info(3)), 1);
    }

    #[test]
    fn ranks_stay_a_permutation_in_recency_order() {
        let mut ranks = new_ranks(1, 4);
        assert_eq!(ranks, [3, 2, 1, 0]);
        for (way, expect) in [(0, [0, 3, 2, 1]), (1, [1, 0, 3, 2]), (0, [0, 1, 3, 2])] {
            touch(&mut ranks, way);
            assert_eq!(ranks, expect, "after touching way {way}");
        }
        // touching the most recent way changes nothing
        touch(&mut ranks, 0);
        assert_eq!(ranks, [0, 1, 3, 2]);
    }

    #[test]
    #[should_panic(expected = "at most 256 ways")]
    fn more_ways_than_ranks_rejected() {
        let _ = new_ranks(1, 257);
    }

    #[test]
    fn always_inserts() {
        let fb = SystemFeedback::new(1);
        let mut p = BuiltinLru::new();
        p.initialize(4, 2, 1);
        assert_eq!(p.on_miss(0, &info(1), &fb), FillDecision::Insert);
    }
}
