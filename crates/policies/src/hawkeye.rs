//! Hawkeye (Jain & Lin, ISCA'16): learn from Belady's OPT.
//!
//! OPTgen reconstructs what OPT would have done on a handful of sampled
//! sets; a PC-indexed predictor classifies loads as *cache-friendly* or
//! *cache-averse*. Friendly fills insert at RRPV 0 (with aging of other
//! friendly lines), averse fills insert at max RRPV and are evicted
//! first.

use chrome_sim::overhead::StorageOverhead;
use chrome_sim::policy::{AccessInfo, CandidateLine, FillDecision, LlcPolicy, SystemFeedback};
use chrome_sim::types::LineAddr;

use crate::common::{pc_signature, CounterTable, OptGen};

const PREDICTOR_ENTRIES: usize = 8 * 1024;
const PREDICTOR_MAX: u8 = 7;
const SIG_BITS: u32 = 13;
const RRPV_MAX: u8 = 7;
// Scale note: the paper samples 64 sets over 200M-instruction runs; our
// default runs are ~20x shorter, so experiments sample 4x more sets to
// keep per-set training volume comparable.
const SAMPLED_SETS: usize = 256;

/// The Hawkeye policy.
pub struct Hawkeye {
    predictor: CounterTable,
    optgens: Vec<OptGen>,
    rrpv: Vec<u8>,
    friendly: Vec<bool>,
    num_sets: usize,
    ways: usize,
}

impl std::fmt::Debug for Hawkeye {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Hawkeye")
            .field("sets", &self.num_sets)
            .finish_non_exhaustive()
    }
}

impl Default for Hawkeye {
    fn default() -> Self {
        Self::new()
    }
}

impl Hawkeye {
    /// Create a Hawkeye policy (geometry set by `initialize`).
    pub fn new() -> Self {
        Hawkeye {
            predictor: CounterTable::new(PREDICTOR_ENTRIES, PREDICTOR_MAX),
            optgens: Vec::new(),
            rrpv: Vec::new(),
            friendly: Vec::new(),
            num_sets: 0,
            ways: 0,
        }
    }

    #[inline]
    fn idx(&self, set: usize, way: usize) -> usize {
        set * self.ways + way
    }

    fn sampled_index(&self, set: usize) -> Option<usize> {
        chrome_sim::policy::sampled_index(set, self.num_sets, SAMPLED_SETS)
    }

    /// Feed a sampled-set access through OPTgen and train the predictor.
    fn train(&mut self, set: usize, info: &AccessInfo) {
        let Some(si) = self.sampled_index(set) else {
            return;
        };
        let sig = pc_signature(info.pc, info.is_prefetch, info.core, SIG_BITS);
        if let Some(outcome) = self.optgens[si].access(info.line.0, sig) {
            if outcome.opt_hit {
                self.predictor.bump_up(outcome.payload);
            } else {
                self.predictor.bump_down(outcome.payload);
            }
        }
    }

    fn is_friendly(&self, info: &AccessInfo) -> bool {
        let sig = pc_signature(info.pc, info.is_prefetch, info.core, SIG_BITS);
        self.predictor.is_positive(sig)
    }

    /// Age all friendly blocks in `set` (cap below averse RRPV).
    fn age_friendly(&mut self, set: usize) {
        for w in 0..self.ways {
            let i = self.idx(set, w);
            if self.friendly[i] && self.rrpv[i] < RRPV_MAX - 1 {
                self.rrpv[i] += 1;
            }
        }
    }
}

impl LlcPolicy for Hawkeye {
    fn initialize(&mut self, num_sets: usize, ways: usize, _cores: usize) {
        self.num_sets = num_sets;
        self.ways = ways;
        self.rrpv = vec![RRPV_MAX; num_sets * ways];
        self.friendly = vec![false; num_sets * ways];
        self.optgens = (0..SAMPLED_SETS.min(num_sets))
            .map(|_| OptGen::new(ways))
            .collect();
        // guard: sampled_index can return indices up to SAMPLED_SETS-1
        while self.optgens.len() < SAMPLED_SETS {
            self.optgens.push(OptGen::new(ways));
        }
    }

    fn on_hit(&mut self, set: usize, way: usize, info: &AccessInfo, _: &SystemFeedback) {
        self.train(set, info);
        let i = self.idx(set, way);
        self.friendly[i] = self.is_friendly(info);
        self.rrpv[i] = if self.friendly[i] { 0 } else { RRPV_MAX };
    }

    fn on_miss(&mut self, set: usize, info: &AccessInfo, _: &SystemFeedback) -> FillDecision {
        self.train(set, info);
        FillDecision::Insert
    }

    fn choose_victim(&mut self, set: usize, c: &[CandidateLine], _: &AccessInfo) -> usize {
        // Prefer cache-averse blocks (RRPV == max); otherwise evict the
        // oldest friendly block.
        if let Some(cand) = c
            .iter()
            .find(|cand| self.rrpv[self.idx(set, cand.way)] == RRPV_MAX)
        {
            return cand.way;
        }
        c.iter()
            .max_by_key(|cand| self.rrpv[self.idx(set, cand.way)])
            .expect("candidates nonempty")
            .way
    }

    fn on_fill(&mut self, set: usize, way: usize, info: &AccessInfo, _: &SystemFeedback) {
        let friendly = self.is_friendly(info);
        if friendly {
            self.age_friendly(set);
        }
        let i = self.idx(set, way);
        self.friendly[i] = friendly;
        self.rrpv[i] = if friendly { 0 } else { RRPV_MAX };
    }

    fn on_evict(&mut self, _: usize, _: usize, _: LineAddr, _: bool) {}

    fn name(&self) -> &str {
        "Hawkeye"
    }

    fn storage_overhead(&self, llc_blocks: usize) -> StorageOverhead {
        let mut o = StorageOverhead::new();
        o.add_table("PC predictor", PREDICTOR_ENTRIES as u64, 3);
        o.add_table("per-block RRPV + friendly", llc_blocks as u64, 4);
        // OPTgen occupancy vectors + sampler tags (per Hawkeye paper ~
        // 8x ways entries/sampled set, ~40 bits each)
        o.add_table("OPTgen samplers", 64 * 8 * 12, 40); // hardware budget uses the paper's 64 sets
        o
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn info(line: u64, pc: u64) -> AccessInfo {
        AccessInfo {
            core: 0,
            pc,
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

    fn mk() -> (Hawkeye, SystemFeedback) {
        let mut p = Hawkeye::new();
        p.initialize(64, 4, 1);
        (p, SystemFeedback::new(1))
    }

    #[test]
    fn averse_pc_learned_from_thrashing_pattern() {
        let (mut p, fb) = mk();
        // on sampled set 0: scan over many lines (reuse distance >>
        // capacity) from one PC — OPT misses, PC becomes averse
        for rep in 0..12 {
            for l in 0..40u64 {
                let i = info(l * 64, 0xBAD); // all map to set 0 (line % 64... )
                let _ = rep;
                p.on_miss(0, &i, &fb);
            }
        }
        let sig = pc_signature(0xBAD, false, 0, SIG_BITS);
        assert!(
            !p.predictor.is_positive(sig),
            "scanning PC should be averse"
        );
    }

    #[test]
    fn friendly_pc_learned_from_tight_reuse() {
        let (mut p, fb) = mk();
        for _ in 0..50 {
            for l in 0..2u64 {
                p.on_miss(0, &info(l, 0x600D), &fb);
            }
        }
        let sig = pc_signature(0x600D, false, 0, SIG_BITS);
        assert!(
            p.predictor.is_positive(sig),
            "tight-reuse PC should be friendly"
        );
    }

    #[test]
    fn averse_fill_is_first_victim() {
        let (mut p, fb) = mk();
        // make 0xBAD averse
        for _ in 0..12 {
            for l in 0..40u64 {
                p.on_miss(0, &info(l * 64, 0xBAD), &fb);
            }
        }
        // fill ways: 0..2 friendly-ish (default weakly positive), way 3 averse
        p.on_fill(1, 0, &info(1, 0x111), &fb);
        p.on_fill(1, 1, &info(2, 0x111), &fb);
        p.on_fill(1, 2, &info(3, 0x111), &fb);
        p.on_fill(1, 3, &info(4, 0xBAD), &fb);
        assert_eq!(p.choose_victim(1, &cands(4), &info(5, 0x111)), 3);
    }

    #[test]
    fn friendly_fills_age_older_friendlies() {
        let (mut p, fb) = mk();
        p.on_fill(2, 0, &info(1, 0x111), &fb);
        let before = p.rrpv[p.idx(2, 0)];
        p.on_fill(2, 1, &info(2, 0x111), &fb);
        assert_eq!(p.rrpv[p.idx(2, 0)], before + 1);
    }

    #[test]
    fn unsampled_sets_do_not_train() {
        let (p, fb) = mk();
        // set 3 is not sampled with 64 sets / 64 sampled... with
        // num_sets=64 every set is sampled, so use a bigger geometry
        let mut p2 = Hawkeye::new();
        p2.initialize(256, 4, 1);
        let sig = pc_signature(0xAAA, false, 0, SIG_BITS);
        let before = p2.predictor.get(sig);
        for l in 0..100u64 {
            p2.on_miss(3, &info(l, 0xAAA), &fb); // set 3 unsampled (stride 4)
        }
        assert_eq!(p2.predictor.get(sig), before);
        let _ = p;
    }
}
