//! The LRU baseline (the paper's normalization reference).

use crate::overhead::StorageOverhead;
use crate::policy::{AccessInfo, CandidateLine, FillDecision, LlcPolicy, SystemFeedback};
use crate::types::LineAddr;

/// True-LRU replacement with no bypassing, prefetch-oblivious — the
/// paper's baseline and the simplest possible [`LlcPolicy`]
/// implementation. Kept in the simulator crate so a [`crate::System`]
/// can be built without the policy crates, and so the LLC's policy slot
/// can dispatch to it statically.
#[derive(Debug, Default)]
pub struct BuiltinLru {
    stamp: Vec<u64>,
    ways: usize,
    tick: u64,
}

impl BuiltinLru {
    /// Create an uninitialized LRU policy; geometry arrives via
    /// [`LlcPolicy::initialize`].
    pub fn new() -> Self {
        Self::default()
    }
}

impl LlcPolicy for BuiltinLru {
    fn initialize(&mut self, num_sets: usize, ways: usize, _cores: usize) {
        self.stamp = vec![0; num_sets * ways];
        self.ways = ways;
    }

    fn on_hit(&mut self, set: usize, way: usize, _: &AccessInfo, _: &SystemFeedback) {
        self.tick += 1;
        self.stamp[set * self.ways + way] = self.tick;
    }

    fn on_miss(&mut self, _: usize, _: &AccessInfo, _: &SystemFeedback) -> FillDecision {
        FillDecision::Insert
    }

    fn choose_victim(&mut self, set: usize, c: &[CandidateLine], _: &AccessInfo) -> usize {
        c.iter()
            .min_by_key(|cand| self.stamp[set * self.ways + cand.way])
            .expect("candidates nonempty")
            .way
    }

    fn on_fill(&mut self, set: usize, way: usize, _: &AccessInfo, _: &SystemFeedback) {
        self.tick += 1;
        self.stamp[set * self.ways + way] = self.tick;
    }

    fn on_evict(&mut self, _: usize, _: usize, _: LineAddr, _: bool) {}

    fn name(&self) -> &str {
        "LRU"
    }

    /// The hardware encoding, not the simulator's stamps: a recency
    /// stack position per block orders the ways as the stamps do.
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
    fn always_inserts() {
        let fb = SystemFeedback::new(1);
        let mut p = BuiltinLru::new();
        p.initialize(4, 2, 1);
        assert_eq!(p.on_miss(0, &info(1), &fb), FillDecision::Insert);
    }
}
