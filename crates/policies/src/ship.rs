//! SHiP++ (Young et al., CRC-2): signature-based hit prediction with
//! prefetch-aware refinements over SHiP.
//!
//! Per-block state: the filler's PC signature and an outcome bit. A
//! signature history counter table (SHCT) learns whether blocks loaded
//! by a signature are re-referenced; insertions by never-reused
//! signatures go in at distant RRPV. SHiP++ refinements implemented:
//! train only on the first re-reference, separate prefetch signatures,
//! and distant insertion for prefetch fills with cold signatures.

use chrome_sim::overhead::StorageOverhead;
use chrome_sim::policy::{AccessInfo, CandidateLine, FillDecision, LlcPolicy, SystemFeedback};
use chrome_sim::types::LineAddr;

use crate::common::{pc_signature, CounterTable, RrpvArray};

const SHCT_ENTRIES: usize = 16 * 1024;
const SHCT_MAX: u8 = 7;
const SIG_BITS: u32 = 14;

/// The SHiP++ policy.
#[derive(Debug)]
pub struct ShipPlusPlus {
    rrpv: RrpvArray,
    shct: CounterTable,
    block_sig: Vec<u16>,
    block_reused: Vec<bool>,
    ways: usize,
}

impl Default for ShipPlusPlus {
    fn default() -> Self {
        Self::new()
    }
}

impl ShipPlusPlus {
    /// Create a SHiP++ policy (geometry set by `initialize`).
    pub fn new() -> Self {
        ShipPlusPlus {
            rrpv: RrpvArray::new(1, 1, 3),
            shct: CounterTable::new(SHCT_ENTRIES, SHCT_MAX),
            block_sig: Vec::new(),
            block_reused: Vec::new(),
            ways: 0,
        }
    }

    #[inline]
    fn idx(&self, set: usize, way: usize) -> usize {
        set * self.ways + way
    }
}

impl LlcPolicy for ShipPlusPlus {
    fn initialize(&mut self, num_sets: usize, ways: usize, _cores: usize) {
        self.rrpv = RrpvArray::new(num_sets, ways, 3);
        self.block_sig = vec![0; num_sets * ways];
        self.block_reused = vec![false; num_sets * ways];
        self.ways = ways;
    }

    fn on_hit(&mut self, set: usize, way: usize, info: &AccessInfo, _: &SystemFeedback) {
        self.rrpv.set(set, way, 0);
        let i = self.idx(set, way);
        // SHiP++: train only on the first re-reference, and not on
        // prefetch hits (they say nothing about demand reuse)
        if !self.block_reused[i] && !info.is_prefetch {
            self.block_reused[i] = true;
            self.shct.bump_up(self.block_sig[i] as u64);
        }
    }

    fn on_miss(&mut self, _: usize, _: &AccessInfo, _: &SystemFeedback) -> FillDecision {
        FillDecision::Insert
    }

    fn choose_victim(&mut self, set: usize, c: &[CandidateLine], _: &AccessInfo) -> usize {
        self.rrpv.victim(set, c)
    }

    fn on_fill(&mut self, set: usize, way: usize, info: &AccessInfo, _: &SystemFeedback) {
        let sig = pc_signature(info.pc, info.is_prefetch, 0, SIG_BITS);
        let i = self.idx(set, way);
        self.block_sig[i] = sig as u16;
        self.block_reused[i] = false;
        let counter = self.shct.get(sig);
        let rrpv = if info.is_prefetch {
            // prefetches insert distant unless their signature is hot
            if counter >= SHCT_MAX {
                1
            } else {
                3
            }
        } else if counter == 0 {
            3
        } else if counter >= SHCT_MAX {
            0
        } else {
            2
        };
        self.rrpv.set(set, way, rrpv);
    }

    fn on_evict(&mut self, set: usize, way: usize, _: LineAddr, was_hit: bool) {
        let i = self.idx(set, way);
        if !was_hit {
            self.shct.bump_down(self.block_sig[i] as u64);
        }
    }

    fn name(&self) -> &str {
        "SHiP++"
    }

    fn storage_overhead(&self, llc_blocks: usize) -> StorageOverhead {
        let mut o = StorageOverhead::new();
        o.add_table("SHCT", SHCT_ENTRIES as u64, 3);
        o.add_table("per-block signature", llc_blocks as u64, SIG_BITS as u64);
        o.add_table("per-block RRPV + outcome", llc_blocks as u64, 3);
        o
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn info(line: u64, pc: u64, prefetch: bool) -> AccessInfo {
        AccessInfo {
            core: 0,
            pc,
            line: LineAddr(line),
            is_prefetch: prefetch,
            is_write: false,
            cycle: 0,
        }
    }

    fn mk() -> (ShipPlusPlus, SystemFeedback) {
        let mut p = ShipPlusPlus::new();
        p.initialize(16, 4, 1);
        (p, SystemFeedback::new(1))
    }

    #[test]
    fn cold_signature_inserts_distant() {
        let (mut p, fb) = mk();
        // teach the SHCT that pc 0x400 never reuses
        for i in 0..40 {
            p.on_fill(0, (i % 4) as usize, &info(i, 0x400, false), &fb);
            p.on_evict(0, (i % 4) as usize, LineAddr(i), false);
        }
        p.on_fill(0, 0, &info(100, 0x400, false), &fb);
        assert_eq!(p.rrpv.get(0, 0), 3);
    }

    #[test]
    fn hot_signature_inserts_near() {
        let (mut p, fb) = mk();
        for i in 0..40 {
            p.on_fill(0, 0, &info(i, 0x500, false), &fb);
            p.on_hit(0, 0, &info(i, 0x999, false), &fb);
        }
        p.on_fill(0, 1, &info(100, 0x500, false), &fb);
        assert_eq!(p.rrpv.get(0, 1), 0);
    }

    #[test]
    fn hit_promotes_to_zero() {
        let (mut p, fb) = mk();
        p.on_fill(0, 2, &info(1, 0x400, false), &fb);
        p.on_hit(0, 2, &info(1, 0x400, false), &fb);
        assert_eq!(p.rrpv.get(0, 2), 0);
    }

    #[test]
    fn trains_only_on_first_rereference() {
        let (mut p, fb) = mk();
        p.on_fill(0, 0, &info(1, 0x400, false), &fb);
        let sig = pc_signature(0x400, false, 0, SIG_BITS);
        let before = p.shct.get(sig);
        p.on_hit(0, 0, &info(1, 0x400, false), &fb);
        p.on_hit(0, 0, &info(1, 0x400, false), &fb);
        p.on_hit(0, 0, &info(1, 0x400, false), &fb);
        assert_eq!(p.shct.get(sig), before + 1);
    }

    #[test]
    fn prefetch_inserts_distant_by_default() {
        let (mut p, fb) = mk();
        p.on_fill(0, 3, &info(1, 0x600, true), &fb);
        assert_eq!(p.rrpv.get(0, 3), 3);
    }

    #[test]
    fn never_bypasses() {
        let (mut p, fb) = mk();
        assert_eq!(p.on_miss(0, &info(1, 0, false), &fb), FillDecision::Insert);
    }
}
