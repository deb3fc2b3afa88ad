//! The environment-agnostic SARSA engine: ε-greedy selection over the
//! Q-table, the Evaluation Queue's delayed reward assignment, and the
//! SARSA update itself (Algorithm 1's RL decision + training tasks),
//! with no knowledge of *what* is being cached.
//!
//! The engine owns the pieces of CHROME that are pure reinforcement
//! learning — [`QTable`], [`EvalQueue`], the exploration RNG, and the
//! [`ChromeStats`] counters — while everything tied to a concrete access
//! stream (feature extraction, reward values, obstruction feedback)
//! lives behind the [`crate::env::Environment`] trait. The hardware-LLC
//! reproduction ([`crate::agent::Chrome`]) and the serving-cache agent
//! (`chrome-serve`) are both thin wrappers over this type; the
//! `agent_equiv` integration test pins that this factoring left the
//! paper reproduction byte-identical.

use chrome_sim::rng::SmallRng;

use crate::config::ChromeConfig;
use crate::eq::{EqEntry, EvalQueue};
use crate::qtable::{QTable, Rows, NUM_ACTIONS};

/// Highest eviction-priority value (2-bit EPV, three levels 0..=2).
pub const EPV_MAX: u8 = 2;

/// Action encoding: 0 = bypass; 1..=3 = insert with EPV (a-1);
/// 4..=6 = re-assign EPV (a-4) on a hit.
pub const ACTION_BYPASS: usize = 0;
/// Legal actions on a miss trigger (bypass or insert at an EPV).
pub const MISS_ACTIONS: [usize; 4] = [0, 1, 2, 3];
/// Legal actions on a hit trigger (re-assign the EPV).
pub const HIT_ACTIONS: [usize; 3] = [4, 5, 6];
/// The hit action that marks a block dead (highest EPV).
pub const ACTION_HIT_EPVH: usize = 6;

/// Legal actions for a hit/miss trigger: the paper's 7-action space,
/// bypass/insert-at-EPV on a miss and re-assign-EPV on a hit.
pub fn legal_actions(hit: bool) -> &'static [usize] {
    if hit {
        &HIT_ACTIONS
    } else {
        &MISS_ACTIONS
    }
}

/// The dead-block accuracy test for an entry that was never
/// re-requested: its action was accurate when it predicted the block
/// dead — bypass on a miss trigger, the highest EPV on a hit trigger.
fn predicted_dead(entry: &EqEntry) -> bool {
    let action = usize::from(entry.action);
    if entry.trigger_hit {
        action == ACTION_HIT_EPVH
    } else {
        action == ACTION_BYPASS
    }
}

/// Fixed preference order for breaking *exact* Q ties — the signature
/// of an untrained state. Insert at mid priority on a miss, keep
/// (lowest eviction priority) on a hit, bypass last — so undertrained
/// states behave like SRRIP instead of acting randomly. *Learned*
/// preferences still win outright: a thrashing state's insert actions
/// are driven negative while bypass keeps its optimistic initial value,
/// so bypass is chosen without ever being tie-broken.
pub const TIE_RANK: [u8; NUM_ACTIONS] = [
    3, // bypass: last resort
    1, // insert at EPV0 (protect)
    0, // insert at EPV1 (neutral default)
    2, // insert at EPV2 (evict-first)
    0, // hit: EPV0 (keep)
    1, // hit: EPV1
    2, // hit: EPV2 (mark dead)
];

/// Counters the agent keeps about its own operation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChromeStats {
    /// Accesses observed on sampled sets.
    pub sampled_accesses: u64,
    /// SARSA updates applied to the Q-table.
    pub q_updates: u64,
    /// ε-greedy explorations taken.
    pub explorations: u64,
    /// Bypass actions chosen.
    pub bypasses: u64,
    /// Rewards assigned by address match (re-requested within window).
    pub matched_rewards: u64,
    /// Rewards assigned at EQ eviction (never re-requested).
    pub unmatched_rewards: u64,
    /// EQ FIFO overflows (pushes that evicted the oldest entry).
    pub eq_overflows: u64,
    /// Decisions made (every access, sampled or not). Doubles as the
    /// audit trail's monotonic decision-id counter.
    pub decisions: u64,
}

impl ChromeStats {
    /// Q-table updates per kilo sampled accesses (paper Table VII).
    pub fn upksa(&self) -> f64 {
        if self.sampled_accesses == 0 {
            0.0
        } else {
            self.q_updates as f64 * 1000.0 / self.sampled_accesses as f64
        }
    }
}

/// Engine geometry and hyper-parameters: the environment-independent
/// subset of [`ChromeConfig`] (which additionally carries feature
/// selection, reward values and concurrency awareness — all environment
/// concerns).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineConfig {
    /// Learning rate α.
    pub alpha: f64,
    /// Discount factor γ.
    pub gamma: f64,
    /// Exploration rate ε.
    pub epsilon: f64,
    /// Optimistic initial Q-value.
    pub q_init: f64,
    /// Number of state features (Q-table slices).
    pub features: usize,
    /// Sub-tables per feature.
    pub sub_tables: usize,
    /// Entries per sub-table.
    pub sub_table_entries: usize,
    /// Number of EQ FIFOs (sampled sets / sampled key buckets).
    pub sampled_sets: usize,
    /// Entries per EQ FIFO.
    pub eq_fifo_len: usize,
    /// RNG seed for ε-greedy exploration.
    pub seed: u64,
}

impl From<&ChromeConfig> for EngineConfig {
    fn from(cfg: &ChromeConfig) -> Self {
        EngineConfig {
            alpha: cfg.alpha,
            gamma: cfg.gamma,
            epsilon: cfg.epsilon,
            q_init: cfg.q_init(),
            features: cfg.features.count(),
            sub_tables: cfg.sub_tables,
            sub_table_entries: cfg.sub_table_entries,
            sampled_sets: cfg.sampled_sets,
            eq_fifo_len: cfg.eq_fifo_len,
            seed: cfg.seed,
        }
    }
}

/// What a training step (EQ overflow) settled: the two fields the
/// agent's audit log writes for a dead-block reward.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainOutcome {
    /// Decision id of the trained (EQ-evicted) entry.
    pub id: u64,
    /// Reward assigned at eviction because the entry was never
    /// re-requested (`None` if it had already been matched).
    pub unmatched: Option<f64>,
}

/// The generic SARSA engine.
#[derive(Debug)]
pub struct RlEngine {
    cfg: EngineConfig,
    qtable: QTable,
    eq: EvalQueue,
    rng: SmallRng,
    /// Agent-internal statistics.
    pub stats: ChromeStats,
}

impl RlEngine {
    /// Build the Q-table, EQ and exploration RNG for `cfg`.
    pub fn new(cfg: EngineConfig) -> Self {
        let qtable = QTable::new(
            cfg.features,
            cfg.sub_tables,
            cfg.sub_table_entries,
            cfg.q_init,
        );
        let eq = EvalQueue::new(cfg.sampled_sets, cfg.eq_fifo_len);
        RlEngine {
            rng: SmallRng::seed_from_u64(cfg.seed),
            qtable,
            eq,
            stats: ChromeStats::default(),
            cfg,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// Read access to the Q-table (epoch probes, decision forensics).
    pub fn qtable(&self) -> &QTable {
        &self.qtable
    }

    /// Read access to the Evaluation Queue (occupancy probes).
    pub fn eq(&self) -> &EvalQueue {
        &self.eq
    }

    /// ε-greedy action selection among `legal` actions for the state
    /// whose Q-table rows are `rows`. Exact Q ties — common under
    /// optimistic initialization — break by the fixed defensive
    /// [`TIE_RANK`] preference.
    pub fn select(&mut self, rows: &Rows, legal: &[usize]) -> usize {
        if self.rng.gen_f64() < self.cfg.epsilon {
            self.stats.explorations += 1;
            return legal[self.rng.gen_range(0..legal.len())];
        }
        // Q is the fixed-point sum divided by 64 exactly, so comparing
        // the sums orders and ties actions as comparing Q does
        let mut best = [0usize; 8];
        let mut n = 0;
        let mut best_q = i32::MIN;
        for &a in legal {
            let q = self.qtable.q_fixed(rows, a);
            if q > best_q {
                best_q = q;
                best[0] = a;
                n = 1;
            } else if q == best_q {
                best[n] = a;
                n += 1;
            }
        }
        if n == 1 {
            return best[0];
        }
        *best[..n]
            .iter()
            .min_by_key(|&&a| TIE_RANK[a])
            .expect("nonempty tie set")
    }

    /// Reward-match step (Algorithm 1, lines 3–8): if `key` sits
    /// unrewarded in FIFO `si`, the earlier action is now evaluated by
    /// the current request's outcome. `reward` supplies that reward and
    /// is called only on a match. Returns the matched entry's decision
    /// id and the reward it was assigned.
    pub fn try_match(
        &mut self,
        si: usize,
        key: u64,
        reward: impl FnOnce() -> f64,
    ) -> Option<(u64, f64)> {
        let entry = self.eq.fifo(si).find_unrewarded(key)?;
        let reward = reward();
        entry.assign(reward);
        let id = entry.id;
        self.stats.matched_rewards += 1;
        Some((id, reward))
    }

    /// Record the executed action, taken in the state whose Q-table
    /// rows are `rows`, in FIFO `si` and, on overflow, finalize the
    /// evicted entry's reward and run the SARSA update (Algorithm 1,
    /// lines 21–38). `unmatched_reward(lane, accurate)` supplies the
    /// dead-block reward when the evicted entry was never re-requested:
    /// `lane` is the entry's issuing lane and `accurate` the
    /// dead-block accuracy of its action.
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &mut self,
        si: usize,
        id: u64,
        rows: Rows,
        action: usize,
        trigger_hit: bool,
        key: u64,
        lane: usize,
        unmatched_reward: impl FnOnce(usize, bool) -> f64,
    ) -> Option<TrainOutcome> {
        debug_assert!(action < NUM_ACTIONS);
        let entry = EqEntry {
            id,
            rows,
            key,
            reward: 0.0,
            lane: u32::try_from(lane).expect("lane index fits u32"),
            action: action as u8,
            trigger_hit,
            rewarded: false,
        };
        let (evicted, next) = self.eq.fifo(si).push(entry)?;
        self.stats.eq_overflows += 1;
        let mut unmatched = None;
        let reward = if evicted.rewarded {
            evicted.reward
        } else {
            let reward = unmatched_reward(evicted.lane as usize, predicted_dead(&evicted));
            self.stats.unmatched_rewards += 1;
            unmatched = Some(reward);
            reward
        };
        let target = match next {
            Some((next_rows, next_action)) => {
                reward + self.cfg.gamma * self.qtable.q(&next_rows, next_action)
            }
            None => reward,
        };
        self.qtable.update(
            &evicted.rows,
            usize::from(evicted.action),
            target,
            self.cfg.alpha,
        );
        self.stats.q_updates += 1;
        Some(TrainOutcome {
            id: evicted.id,
            unmatched,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> RlEngine {
        RlEngine::new(EngineConfig::from(&ChromeConfig::default()))
    }

    #[test]
    fn engine_config_mirrors_chrome_config() {
        let cfg = ChromeConfig::default();
        let e = EngineConfig::from(&cfg);
        assert_eq!(e.features, 2);
        assert_eq!(e.sampled_sets, 64);
        assert_eq!(e.eq_fifo_len, 28);
        assert!((e.q_init - cfg.q_init()).abs() < 1e-12);
        assert_eq!(e.seed, 0xC42);
    }

    #[test]
    fn untrained_miss_tie_breaks_to_neutral_insert() {
        let mut e = engine();
        // all Q equal at init → TIE_RANK picks insert-at-EPV1 (action 2)
        let miss = e.qtable().rows(&[1, 2]);
        let hit = e.qtable().rows(&[9, 9]);
        assert_eq!(e.select(&miss, &MISS_ACTIONS), 2);
        assert_eq!(e.select(&hit, &HIT_ACTIONS), 4);
    }

    #[test]
    fn learned_preference_beats_tie_rank() {
        let mut e = engine();
        let rows = e.qtable().rows(&[77, 88]);
        for _ in 0..300 {
            e.record(0, 0, rows, 0, false, 1, 0, |_, _| 25.0);
        }
        // drive bypass far above the others; it must win despite having
        // the worst tie rank
        for _ in 0..200 {
            e.qtable.update(&rows, ACTION_BYPASS, 30.0, 0.1);
        }
        assert_eq!(e.select(&rows, &MISS_ACTIONS), ACTION_BYPASS);
    }

    #[test]
    fn select_respects_legality() {
        let mut e = RlEngine::new(EngineConfig {
            epsilon: 0.0,
            ..EngineConfig::from(&ChromeConfig::default())
        });
        let rows = e.qtable().rows(&[1, 2]);
        for _ in 0..300 {
            e.qtable.update(&rows, 5, 30.0, 0.1);
        }
        // action 5 is best overall, but only miss actions are legal on
        // a miss, where the untouched ones tie-break by TIE_RANK
        assert_eq!(e.select(&rows, &MISS_ACTIONS), 2);
        assert_eq!(e.select(&rows, &HIT_ACTIONS), 5);
    }

    #[test]
    fn record_trains_only_on_overflow() {
        let mut e = engine();
        let rows = e.qtable().rows(&[3, 4]);
        for i in 0..e.config().eq_fifo_len as u64 {
            assert!(e.record(0, i, rows, 2, false, i, 0, |_, _| 0.0).is_none());
        }
        let out = e
            .record(0, 999, rows, 2, false, 999, 0, |_, _| -10.0)
            .expect("overflow");
        assert_eq!(out.unmatched, Some(-10.0));
        assert_eq!(out.id, 0, "the oldest entry trains");
        assert_eq!(e.stats.q_updates, 1);
        assert_eq!(e.stats.eq_overflows, 1);
    }

    #[test]
    fn dead_block_accuracy_is_judged_by_the_engine() {
        // a never-re-requested action was accurate when it predicted the
        // block dead: bypass on a miss trigger, EPV_H on a hit trigger
        for (action, hit, accurate) in [
            (ACTION_BYPASS, false, true),
            (2, false, false),
            (ACTION_HIT_EPVH, true, true),
            (4, true, false),
        ] {
            let mut e = RlEngine::new(EngineConfig {
                eq_fifo_len: 1,
                ..EngineConfig::from(&ChromeConfig::default())
            });
            let rows = e.qtable().rows(&[1, 2]);
            e.record(0, 0, rows, action, hit, 1, 3, |_, _| 0.0);
            let mut judged = None;
            e.record(0, 1, rows, 2, false, 2, 0, |lane, accurate| {
                judged = Some((lane, accurate));
                0.0
            });
            assert_eq!(judged, Some((3, accurate)), "action {action}, hit {hit}");
        }
    }

    #[test]
    fn matched_entry_keeps_its_reward_at_overflow() {
        let mut e = engine();
        let rows = e.qtable().rows(&[5, 6]);
        e.record(0, 7, rows, 1, false, 42, 0, |_, _| 0.0);
        assert_eq!(e.try_match(0, 42, || 20.0), Some((7, 20.0)));
        let rematch = e.try_match(0, 42, || panic!("no entry left to reward"));
        assert!(rematch.is_none(), "already rewarded");
        for i in 0..e.config().eq_fifo_len as u64 {
            e.record(0, 100 + i, rows, 1, false, 1000 + i, 0, |_, _| -7.0);
        }
        // the matched entry was evicted first; its unmatched slot is None
        assert_eq!(e.stats.matched_rewards, 1);
        assert!(e.stats.unmatched_rewards == 0 || e.stats.q_updates >= 1);
    }

    #[test]
    fn delta_reports_pre_update_td_error() {
        // a step large enough that a bootstrap read after the update
        // would land the table somewhere else
        let mut e = RlEngine::new(EngineConfig {
            alpha: 0.5,
            ..EngineConfig::from(&ChromeConfig::default())
        });
        let rows = e.qtable().rows(&[10, 11]);
        for i in 0..e.config().eq_fifo_len as u64 {
            e.record(0, i, rows, 3, false, i, 0, |_, _| 0.0);
        }
        let q_before = e.qtable().q(&rows, 3);
        let mut reference = e.qtable().clone();
        let out = e
            .record(0, 500, rows, 3, false, 500, 0, |_, _| 12.0)
            .expect("overflow");
        assert_eq!((out.id, out.unmatched), (0, Some(12.0)));
        // the next state-action is the same (rows, 3), read before the
        // update: target = 12 + γ·q_before
        let (gamma, alpha) = (e.config().gamma, e.config().alpha);
        reference.update(&rows, 3, 12.0 + gamma * q_before, alpha);
        assert_eq!(
            e.qtable().q(&rows, 3).to_bits(),
            reference.q(&rows, 3).to_bits()
        );
        assert_ne!(e.qtable().q(&rows, 3), q_before, "the update landed");
    }

    /// The selection `select` replaced: Q compared as `f64` with a 1e-9
    /// tolerance. Returns the action, whether it explored and whether it
    /// broke a tie.
    fn select_f64(
        rng: &mut SmallRng,
        epsilon: f64,
        table: &QTable,
        rows: &Rows,
        legal: &[usize],
    ) -> (usize, bool, bool) {
        if rng.gen_f64() < epsilon {
            return (legal[rng.gen_range(0..legal.len())], true, false);
        }
        let mut best = [0usize; 8];
        let mut n = 0;
        let mut best_q = f64::NEG_INFINITY;
        for &a in legal {
            let q = table.q(rows, a);
            if q > best_q + 1e-9 {
                best_q = q;
                best[0] = a;
                n = 1;
            } else if (q - best_q).abs() <= 1e-9 {
                best[n] = a;
                n += 1;
            }
        }
        let chosen = *best[..n]
            .iter()
            .min_by_key(|&&a| TIE_RANK[a])
            .expect("nonempty tie set");
        (chosen, false, n > 1)
    }

    #[test]
    fn integer_select_matches_the_f64_select() {
        // Actions train in twin groups {1, 2} and {4, 5}: every update
        // lands on both twins, so their Q stay equal in every state and
        // trained ties are forced on both legal sets.
        const GROUPS: [&[usize]; 5] = [&[0], &[1, 2], &[3], &[4, 5], &[6]];
        let mut rng = SmallRng::seed_from_u64(0x5E1E_C700);
        let mut trained_ties = 0;
        for case in 0..48u64 {
            let cfg = EngineConfig {
                epsilon: 0.1,
                seed: case,
                sub_table_entries: [2048, 5 * NUM_ACTIONS][case as usize % 2],
                ..EngineConfig::from(&ChromeConfig::default())
            };
            let mut e = RlEngine::new(cfg);
            let mut reference = SmallRng::seed_from_u64(cfg.seed);
            let states: Vec<Rows> = (0..12)
                .map(|_| e.qtable.rows(&[rng.next_u64(), rng.next_u64()]))
                .collect();
            for step in 0..1_500 {
                let rows = &states[rng.gen_range(0..states.len())];
                let legal = legal_actions(rng.gen_range(0..2u32) == 0);
                let before = e.stats.explorations;
                let got = e.select(rows, legal);
                let (want, explored, tie) =
                    select_f64(&mut reference, cfg.epsilon, &e.qtable, rows, legal);
                assert_eq!(got, want, "case {case} step {step}");
                assert_eq!(e.stats.explorations - before, u64::from(explored));
                if tie && (e.qtable.q(rows, want) - cfg.q_init).abs() > 0.1 {
                    trained_ties += 1;
                }
                let target = [-22.0, -7.5, 0.0, 5.0, 20.0, 28.0][rng.gen_range(0..6usize)];
                for &a in GROUPS[rng.gen_range(0..GROUPS.len())] {
                    e.qtable.update(rows, a, target, 0.2);
                }
            }
            assert_eq!(
                e.rng.next_u64(),
                reference.next_u64(),
                "case {case}: RNG draws"
            );
        }
        assert!(trained_ties > 1_000, "{trained_ties} ties among trained Q");
    }

    #[test]
    fn exploration_counts_under_forced_epsilon() {
        let mut e = RlEngine::new(EngineConfig {
            epsilon: 1.0,
            ..EngineConfig::from(&ChromeConfig::default())
        });
        let rows = e.qtable().rows(&[1, 2]);
        for _ in 0..50 {
            let a = e.select(&rows, &MISS_ACTIONS);
            assert!(MISS_ACTIONS.contains(&a));
        }
        assert_eq!(e.stats.explorations, 50);
    }
}
