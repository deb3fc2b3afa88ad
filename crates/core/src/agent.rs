//! The CHROME agent: an [`LlcPolicy`] that implements Algorithm 1 of the
//! paper — the RL decision task (ε-greedy action selection over the
//! Q-table on every LLC access) and the RL training task (reward
//! assignment through the Evaluation Queue and SARSA updates).
//!
//! Since the environment refactor this file holds only the *hardware
//! instantiation*: [`HwEnv`] supplies the paper's feature extraction
//! (PC signature + page number and the Table I variants), Table II
//! rewards, and C-AMAT obstruction feedback, while the RL mechanics
//! live in the generic [`crate::engine::RlEngine`] driven through
//! [`crate::env::Agent`]. [`Chrome`] wraps the pair with the LLC-side
//! state (per-block EPVs, victim selection, the audit log). The
//! `agent_equiv` integration test pins that this split reproduces the
//! pre-refactor simulation byte-for-byte.

use chrome_sim::overhead::StorageOverhead;
use chrome_sim::policy::{
    sampled_index, AccessInfo, CandidateLine, FillDecision, LlcPolicy, SystemFeedback,
};
use chrome_sim::types::{mix64, LineAddr};
use chrome_telemetry::{AuditLog, PolicyEpochProbe};

use crate::config::{ChromeConfig, FeatureSelection};
use crate::engine::{EngineConfig, RlEngine, ACTION_BYPASS};
use crate::env::{Agent, Environment};
use crate::rewards::RewardTable;

pub use crate::engine::{ChromeStats, EPV_MAX};

/// The hardware-LLC environment: the paper's feature extraction and
/// reward sources, bound to [`AccessInfo`] / [`SystemFeedback`].
#[derive(Debug)]
pub struct HwEnv {
    features: FeatureSelection,
    rewards: RewardTable,
    concurrency_aware: bool,
    multicore: bool,
    /// Per-core last accessed line (for the delta feature).
    last_line: Vec<u64>,
    /// Per-core rolling hash of the last four PCs (for the PC-sequence
    /// feature).
    pc_history: Vec<[u64; 4]>,
}

impl HwEnv {
    fn new(cfg: &ChromeConfig) -> Self {
        HwEnv {
            features: cfg.features,
            rewards: cfg.rewards,
            concurrency_aware: cfg.concurrency_aware,
            multicore: false,
            last_line: Vec::new(),
            pc_history: Vec::new(),
        }
    }

    /// Size the per-core feature history for `cores` cores.
    fn set_cores(&mut self, cores: usize) {
        self.multicore = cores > 1;
        self.last_line = vec![0; cores.max(1)];
        self.pc_history = vec![[0; 4]; cores.max(1)];
    }
}

impl Environment for HwEnv {
    type Access = AccessInfo;
    type Ctx = SystemFeedback;

    /// Extract the state feature vector for an access (paper §IV-A):
    /// PC signature hashed with the hit/miss bit, the is_prefetch bit
    /// and (in multicore systems) the core id; plus the physical page
    /// number. Returns the features in a fixed buffer.
    fn state(&mut self, info: &AccessInfo, hit: bool) -> ([u64; 2], usize) {
        let core_part = if self.multicore {
            (info.core as u64 + 1) << 24
        } else {
            0
        };
        let pc_sig =
            mix64(info.pc ^ ((hit as u64) << 62) ^ ((info.is_prefetch as u64) << 61) ^ core_part);
        let pn = info.line.page_number();
        let core = info.core.min(self.last_line.len().saturating_sub(1));
        let state = match self.features {
            FeatureSelection::PcOnly => ([pc_sig, 0], 1),
            FeatureSelection::PnOnly => ([pn, 0], 1),
            FeatureSelection::PcAndPn => ([pc_sig, pn], 2),
            FeatureSelection::PcAndDelta => {
                let delta = info.line.0.wrapping_sub(self.last_line[core]);
                ([pc_sig, mix64(info.pc ^ delta.wrapping_mul(0x9E37))], 2)
            }
            FeatureSelection::PcSeqAndPn => {
                let h = &self.pc_history[core];
                let seq = mix64(
                    h[0] ^ h[1].rotate_left(13)
                        ^ h[2].rotate_left(27)
                        ^ h[3].rotate_left(41)
                        ^ core_part,
                );
                ([seq, pn], 2)
            }
            FeatureSelection::PcOffsetAndPn => {
                let offset = info.line.0 & 0x3F; // line offset within page
                ([mix64(pc_sig ^ (offset << 48)), pn], 2)
            }
        };
        // update the per-core feature history
        self.last_line[core] = info.line.0;
        let h = &mut self.pc_history[core];
        h.rotate_right(1);
        h[0] = info.pc;
        state
    }

    fn key(&self, info: &AccessInfo) -> u64 {
        info.line.0
    }

    fn lane(&self, info: &AccessInfo) -> usize {
        info.core
    }

    fn matched_reward(&self, info: &AccessInfo, hit: bool) -> f64 {
        if hit {
            self.rewards.requested_hit(info.is_prefetch)
        } else {
            self.rewards.requested_miss(info.is_prefetch)
        }
    }

    fn unmatched_reward(&self, feedback: &SystemFeedback, lane: usize, accurate: bool) -> f64 {
        let obstructed = self.concurrency_aware && feedback.is_obstructed(lane);
        self.rewards.not_requested(accurate, obstructed)
    }
}

/// The CHROME policy (also serves as N-CHROME via
/// [`ChromeConfig::n_chrome`]).
pub struct Chrome {
    cfg: ChromeConfig,
    agent: Agent<HwEnv>,
    epv: Vec<u8>,
    num_sets: usize,
    ways: usize,
    pending_epv: u8,
    name: &'static str,
}

impl std::fmt::Debug for Chrome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Chrome")
            .field("name", &self.name)
            .field("stats", self.stats())
            .finish_non_exhaustive()
    }
}

impl Chrome {
    /// Create a CHROME agent with the given configuration.
    pub fn new(cfg: ChromeConfig) -> Self {
        let engine = RlEngine::new(EngineConfig::from(&cfg));
        let env = HwEnv::new(&cfg);
        let name = if cfg.concurrency_aware {
            "CHROME"
        } else {
            "N-CHROME"
        };
        Chrome {
            agent: Agent::new(env, engine),
            epv: Vec::new(),
            num_sets: 0,
            ways: 0,
            pending_epv: 1,
            name,
            cfg,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &ChromeConfig {
        &self.cfg
    }

    /// Agent-internal statistics.
    pub fn stats(&self) -> &ChromeStats {
        &self.agent.engine.stats
    }

    #[inline]
    fn idx(&self, set: usize, way: usize) -> usize {
        set * self.ways + way
    }

    /// Run one LLC access through the agent; returns the chosen action.
    fn decide(&mut self, set: usize, info: &AccessInfo, hit: bool, fb: &SystemFeedback) -> usize {
        let si = sampled_index(set, self.num_sets, self.cfg.sampled_sets);
        self.agent.on_access(si, info, hit, fb)
    }
}

impl LlcPolicy for Chrome {
    fn initialize(&mut self, num_sets: usize, ways: usize, cores: usize) {
        self.num_sets = num_sets;
        self.ways = ways;
        self.epv = vec![EPV_MAX; num_sets * ways];
        self.agent.env.set_cores(cores);
    }

    fn on_hit(&mut self, set: usize, way: usize, info: &AccessInfo, feedback: &SystemFeedback) {
        let action = self.decide(set, info, true, feedback);
        let i = self.idx(set, way);
        self.epv[i] = (action - 4) as u8;
    }

    fn on_miss(
        &mut self,
        set: usize,
        info: &AccessInfo,
        feedback: &SystemFeedback,
    ) -> FillDecision {
        let action = self.decide(set, info, false, feedback);
        if action == ACTION_BYPASS {
            FillDecision::Bypass
        } else {
            self.pending_epv = (action - 1) as u8;
            FillDecision::Insert
        }
    }

    fn choose_victim(&mut self, set: usize, c: &[CandidateLine], _: &AccessInfo) -> usize {
        // Victim = block with the highest EPV; age the set (RRIP-style)
        // until some block reaches EPV_MAX.
        let max = c
            .iter()
            .map(|cand| self.epv[self.idx(set, cand.way)])
            .max()
            .expect("candidates nonempty");
        if max < EPV_MAX {
            let bump = EPV_MAX - max;
            for cand in c {
                let i = self.idx(set, cand.way);
                self.epv[i] = (self.epv[i] + bump).min(EPV_MAX);
            }
        }
        c.iter()
            .find(|cand| self.epv[self.idx(set, cand.way)] >= EPV_MAX)
            .expect("aging guarantees a max-EPV block")
            .way
    }

    fn on_fill(&mut self, set: usize, way: usize, _: &AccessInfo, _: &SystemFeedback) {
        let i = self.idx(set, way);
        self.epv[i] = self.pending_epv;
    }

    fn on_evict(&mut self, _: usize, _: usize, _: LineAddr, _: bool) {}

    fn enable_audit(&mut self, stream: u32, cap: usize) -> bool {
        self.agent.enable_audit(stream, cap);
        true
    }

    fn audit(&self) -> Option<&AuditLog> {
        self.agent.audit()
    }

    fn epoch_probe(&self) -> PolicyEpochProbe {
        PolicyEpochProbe {
            eq_occupancy: self.agent.engine.eq().mean_occupancy(),
            eq_overflows: self.stats().eq_overflows,
            epsilon: self.cfg.epsilon,
            mean_q_mag: self.agent.engine.qtable().mean_abs_q(),
        }
    }

    fn name(&self) -> &str {
        self.name
    }

    fn report(&self) -> Vec<(String, f64)> {
        let stats = self.stats();
        vec![
            ("upksa".into(), stats.upksa()),
            ("q_updates".into(), stats.q_updates as f64),
            ("sampled_accesses".into(), stats.sampled_accesses as f64),
            ("explorations".into(), stats.explorations as f64),
            ("agent_bypasses".into(), stats.bypasses as f64),
        ]
    }

    fn storage_overhead(&self, llc_blocks: usize) -> StorageOverhead {
        let mut o = StorageOverhead::new();
        o.add_table(
            "Q-Table",
            (self.cfg.features.count() * self.cfg.sub_tables * self.cfg.sub_table_entries) as u64,
            16,
        );
        o.add_table(
            "EQ",
            (self.cfg.sampled_sets * self.cfg.eq_fifo_len) as u64,
            58,
        );
        o.add_table("EPV metadata", llc_blocks as u64, 2);
        o
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn info(line: u64, pc: u64, core: usize, prefetch: bool) -> AccessInfo {
        AccessInfo {
            core,
            pc,
            line: LineAddr(line),
            is_prefetch: prefetch,
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

    fn mk() -> (Chrome, SystemFeedback) {
        let cfg = ChromeConfig {
            sampled_sets: 16,
            ..Default::default()
        };
        // sample every 4th of 64 sets
        let mut p = Chrome::new(cfg);
        p.initialize(64, 4, 1);
        (p, SystemFeedback::new(1))
    }

    #[test]
    fn names_reflect_awareness() {
        assert_eq!(Chrome::new(ChromeConfig::default()).name(), "CHROME");
        assert_eq!(Chrome::new(ChromeConfig::n_chrome()).name(), "N-CHROME");
    }

    #[test]
    fn sampled_accesses_counted_only_on_sampled_sets() {
        let (mut p, fb) = mk();
        p.on_miss(0, &info(1, 0x400, 0, false), &fb); // set 0 sampled
        p.on_miss(1, &info(2, 0x400, 0, false), &fb); // set 1 not
        assert_eq!(p.stats().sampled_accesses, 1);
    }

    #[test]
    fn fill_applies_chosen_epv() {
        let (mut p, fb) = mk();
        let d = p.on_miss(2, &info(1, 0x400, 0, false), &fb);
        if d == FillDecision::Insert {
            p.on_fill(2, 0, &info(1, 0x400, 0, false), &fb);
            assert!(p.epv[p.idx(2, 0)] <= EPV_MAX);
        }
    }

    #[test]
    fn victim_prefers_high_epv() {
        let (mut p, _fb) = mk();
        let (i0, i1, i2, i3) = (p.idx(3, 0), p.idx(3, 1), p.idx(3, 2), p.idx(3, 3));
        p.epv[i0] = 0;
        p.epv[i1] = 2;
        p.epv[i2] = 1;
        p.epv[i3] = 0;
        assert_eq!(p.choose_victim(3, &cands(4), &info(9, 0, 0, false)), 1);
    }

    #[test]
    fn victim_ages_when_no_max() {
        let (mut p, _fb) = mk();
        for w in 0..4 {
            let i = p.idx(3, w);
            p.epv[i] = 0;
        }
        let v = p.choose_victim(3, &cands(4), &info(9, 0, 0, false));
        assert_eq!(v, 0); // all aged to 2, first wins
        for w in 0..4 {
            assert_eq!(p.epv[p.idx(3, w)], 2);
        }
    }

    #[test]
    fn q_updates_happen_after_fifo_overflow() {
        let cfg = ChromeConfig {
            sampled_sets: 16,
            eq_fifo_len: 4,
            ..Default::default()
        };
        let mut p = Chrome::new(cfg);
        p.initialize(64, 4, 1);
        let fb = SystemFeedback::new(1);
        for l in 0..20u64 {
            p.on_miss(0, &info(l * 64, 0x400, 0, false), &fb);
        }
        assert!(
            p.stats().q_updates >= 10,
            "updates = {}",
            p.stats().q_updates
        );
        assert!(p.stats().unmatched_rewards > 0);
    }

    #[test]
    fn rerequested_address_gets_matched_reward() {
        let (mut p, fb) = mk();
        p.on_miss(0, &info(64, 0x400, 0, false), &fb);
        p.on_hit(0, 0, &info(64, 0x400, 0, false), &fb);
        assert_eq!(p.stats().matched_rewards, 1);
    }

    #[test]
    fn scanning_pattern_learns_bypass() {
        // feed a pure scan (no reuse) through one sampled set: the agent
        // should learn that bypassing maximizes reward
        // epsilon: explore a bit faster in this tiny test
        let cfg = ChromeConfig {
            sampled_sets: 64,
            epsilon: 0.05,
            ..Default::default()
        };
        let mut p = Chrome::new(cfg);
        p.initialize(64, 4, 1);
        let fb = SystemFeedback::new(1);
        for l in 0..60_000u64 {
            let set = (l % 64) as usize;
            p.on_miss(set, &info(l * 64, 0x400, 0, false), &fb);
        }
        let late_bypass_rate = {
            let before = p.stats().bypasses;
            let before_total = 10_000u64;
            for l in 0..before_total {
                let set = (l % 64) as usize;
                p.on_miss(set, &info((1 << 40) + l * 64, 0x400, 0, false), &fb);
            }
            (p.stats().bypasses - before) as f64 / before_total as f64
        };
        assert!(
            late_bypass_rate > 0.5,
            "agent should bypass a pure scan, rate = {late_bypass_rate}"
        );
    }

    #[test]
    fn reused_pattern_learns_to_insert() {
        let cfg = ChromeConfig {
            sampled_sets: 64,
            ..Default::default()
        };
        let mut p = Chrome::new(cfg);
        p.initialize(64, 4, 1);
        let fb = SystemFeedback::new(1);
        // alternate misses and hits on the same small line set: inserting
        // pays off (hits earn R_AC for the previous action)
        for rep in 0..3000u64 {
            let l = rep % 4;
            if rep < 8 {
                p.on_miss((l % 64) as usize, &info(l * 64, 0x700, 0, false), &fb);
            } else {
                p.on_hit((l % 64) as usize, 0, &info(l * 64, 0x700, 0, false), &fb);
            }
        }
        let before = p.stats().bypasses;
        for l in 0..1000u64 {
            p.on_miss(
                ((l * 7) % 64) as usize,
                &info((1 << 41) + l * 64, 0x700, 0, true),
                &fb,
            );
        }
        let rate = (p.stats().bypasses - before) as f64 / 1000.0;
        // hit-trained PC signature differs from miss signature, so this
        // checks the agent does not degenerate into always-bypass
        assert!(rate < 0.9, "rate = {rate}");
    }

    #[test]
    fn n_chrome_ignores_obstruction() {
        let mut cfg = ChromeConfig::n_chrome();
        cfg.eq_fifo_len = 2;
        cfg.sampled_sets = 64;
        let mut p = Chrome::new(cfg);
        p.initialize(64, 4, 2);
        let mut fb = SystemFeedback::new(2);
        fb.obstructed = vec![true, true];
        // All NR rewards must use the NOB values; we can't observe the
        // reward directly, but the agent must not crash and must train.
        for l in 0..100u64 {
            p.on_miss(0, &info(l * 64, 0x400, 1, false), &fb);
        }
        assert!(p.stats().q_updates > 50);
    }

    #[test]
    fn storage_overhead_matches_table_iii() {
        let p = Chrome::new(ChromeConfig::default());
        // 4-core 12MB LLC: 196608 blocks
        let o = p.storage_overhead(196_608);
        assert!(
            (o.total_kib() - 92.7).abs() < 0.1,
            "total = {}",
            o.total_kib()
        );
    }

    #[test]
    fn report_includes_upksa() {
        let (mut p, fb) = mk();
        for l in 0..200u64 {
            p.on_miss(0, &info(l * 64, 0x400, 0, false), &fb);
        }
        let report = p.report();
        assert!(report.iter().any(|(k, _)| k == "upksa"));
    }

    #[test]
    fn upksa_zero_without_accesses() {
        assert_eq!(ChromeStats::default().upksa(), 0.0);
    }

    #[test]
    fn every_feature_selection_runs() {
        use crate::config::FeatureSelection::*;
        for features in [
            PcOnly,
            PnOnly,
            PcAndPn,
            PcAndDelta,
            PcSeqAndPn,
            PcOffsetAndPn,
        ] {
            let mut cfg = ChromeConfig {
                features,
                ..Default::default()
            };
            cfg.sampled_sets = 16;
            let mut p = Chrome::new(cfg);
            p.initialize(64, 4, 2);
            let fb = SystemFeedback::new(2);
            for l in 0..500u64 {
                let set = (l % 64) as usize;
                let i = info(l * 64, 0x400 + (l % 8) * 4, (l % 2) as usize, l % 5 == 0);
                if l % 3 == 0 {
                    p.on_hit(set, 0, &i, &fb);
                } else {
                    let _ = p.on_miss(set, &i, &fb);
                }
            }
            assert!(p.stats().sampled_accesses > 0, "{features:?}");
        }
    }

    #[test]
    fn audit_trail_records_every_decision_in_order() {
        use chrome_telemetry::{parse_audit, AuditRecord};
        let (mut p, fb) = mk();
        assert!(LlcPolicy::enable_audit(&mut p, 3, 4096));
        for l in 0..300u64 {
            let set = (l % 64) as usize;
            if l % 4 == 3 {
                p.on_hit(set, 0, &info((l % 8) * 64, 0x400, 0, false), &fb);
            } else {
                let _ = p.on_miss(set, &info(l * 64, 0x400, 0, false), &fb);
            }
        }
        let log = LlcPolicy::audit(&p).expect("auditing enabled");
        let segs = parse_audit(&log.to_bytes()).expect("well-formed blob");
        assert_eq!(segs.len(), 1);
        assert_eq!(segs[0].stream, 3);
        let mut decisions = 0u64;
        let mut last_id = None;
        let mut seen = std::collections::HashSet::new();
        for r in &segs[0].records {
            match r {
                AuditRecord::Decision(d) => {
                    assert!(Some(d.id) > last_id, "ids arrive in decision order");
                    last_id = Some(d.id);
                    seen.insert(d.id);
                    decisions += 1;
                }
                AuditRecord::Reward(w) => {
                    assert!(seen.contains(&w.id), "reward settles a seen decision");
                }
            }
        }
        assert_eq!(decisions, 300, "every access decided and was recorded");
        assert_eq!(decisions, p.stats().decisions);
    }

    #[test]
    fn audit_capture_does_not_perturb_the_agent() {
        let run = |audit: bool| {
            let (mut p, fb) = mk();
            if audit {
                LlcPolicy::enable_audit(&mut p, 0, 1 << 16);
            }
            for l in 0..2000u64 {
                let set = (l % 64) as usize;
                if l % 3 == 0 {
                    p.on_hit(set, 0, &info((l % 16) * 64, 0x400, 0, false), &fb);
                } else {
                    let _ = p.on_miss(set, &info(l * 64, 0x400, 0, false), &fb);
                }
            }
            *p.stats()
        };
        assert_eq!(run(false), run(true), "snapshotting is read-only");
    }

    #[test]
    fn delta_feature_distinguishes_strides() {
        let cfg = ChromeConfig {
            features: crate::config::FeatureSelection::PcAndDelta,
            ..Default::default()
        };
        let mut p = Chrome::new(cfg);
        p.initialize(64, 4, 1);
        // two accesses with the same pc but different deltas produce
        // different second features
        let a1 = info(0, 0x400, 0, false);
        let a2 = info(64 * 64, 0x400, 0, false); // delta 64 lines
        let a3 = info(64 * 65, 0x400, 0, false); // delta 1 line
        let _ = p.agent.env.state(&a1, false);
        let (s2, _) = p.agent.env.state(&a2, false);
        let (s3, _) = p.agent.env.state(&a3, false);
        assert_ne!(s2[1], s3[1], "different strides must differ in state");
    }

    #[test]
    fn pc_sequence_feature_tracks_history() {
        let cfg = ChromeConfig {
            features: crate::config::FeatureSelection::PcSeqAndPn,
            ..Default::default()
        };
        let mut p = Chrome::new(cfg);
        p.initialize(64, 4, 1);
        // same current context, different preceding PC history
        let warm = |p: &mut Chrome, pcs: [u64; 3]| {
            for pc in pcs {
                let _ = p.agent.env.state(&info(0, pc, 0, false), false);
            }
            p.agent.env.state(&info(64, 0x400, 0, false), false)
        };
        let (sa, _) = warm(&mut p, [0x1, 0x2, 0x3]);
        let (sb, _) = warm(&mut p, [0x9, 0x8, 0x7]);
        assert_ne!(sa[0], sb[0], "PC history must shape the sequence feature");
    }
}
