//! The environment abstraction: what CHROME's SARSA engine needs to
//! know about the thing it manages, and nothing more.
//!
//! The paper instantiates the agent against a hardware LLC (features =
//! PC signature + page number, rewards = Table II, obstruction =
//! C-AMAT). An [`Environment`] packages exactly that instance-specific
//! surface — feature extraction, the EQ match key, the per-decision
//! lane, and both reward sources — so the identical engine can drive
//! other access streams (the `chrome-serve` KV cache rewards with
//! observed hit/miss latency deltas instead). The action space and the
//! dead-block accuracy test are the engine's, shared by every
//! environment. [`Agent`] composes an environment with an [`RlEngine`]
//! and runs Algorithm 1's per-access flow in the exact order of the
//! original hardware agent, writing the optional audit log as it goes;
//! the `agent_equiv` test pins that order byte-for-byte.

use chrome_telemetry::{AuditLog, DecisionRecord, RewardRecord};

use crate::engine::{legal_actions, RlEngine, ACTION_BYPASS};
use crate::qtable::NUM_ACTIONS;

/// An access stream the SARSA engine can manage.
pub trait Environment {
    /// One access/request (the hardware LLC's `AccessInfo`, a serving
    /// cache's request).
    type Access;
    /// System feedback consulted when a dead-block reward is assigned
    /// (the hardware's `SystemFeedback`; a shard's pressure snapshot).
    type Ctx: ?Sized;

    /// Extract the state feature vector for an access. Returns a fixed
    /// buffer plus the number of active features; may update internal
    /// feature history (last line, PC history, EWMAs).
    fn state(&mut self, access: &Self::Access, hit: bool) -> ([u64; 2], usize);

    /// The EQ match key: a later access with the same key assigns this
    /// decision its reward.
    fn key(&self, access: &Self::Access) -> u64;

    /// The lane (core, tenant, shard) charged with the decision — used
    /// by concurrency-aware dead-block rewards.
    fn lane(&self, access: &Self::Access) -> usize;

    /// Reward for an earlier action whose key was re-requested, judged
    /// by whether the current request hit.
    fn matched_reward(&self, access: &Self::Access, hit: bool) -> f64;

    /// Reward for an action whose key was never re-requested within the
    /// EQ window (the entry aged out of its FIFO). `lane` is the
    /// decision's lane; `accurate` is the engine's dead-block verdict on
    /// its action (bypass on a miss, the highest EPV on a hit).
    fn unmatched_reward(&self, ctx: &Self::Ctx, lane: usize, accurate: bool) -> f64;
}

/// A SARSA agent bound to an environment: the engine plus the
/// per-access control flow of Algorithm 1, and the optional audit log
/// that flow writes.
#[derive(Debug)]
pub struct Agent<E: Environment> {
    /// The environment (feature extraction + reward source).
    pub env: E,
    /// The environment-agnostic SARSA engine.
    pub engine: RlEngine,
    audit: Option<AuditLog>,
}

impl<E: Environment> Agent<E> {
    /// Bind `env` to `engine`.
    pub fn new(env: E, engine: RlEngine) -> Self {
        Agent {
            env,
            engine,
            audit: None,
        }
    }

    /// Start recording every decision and reward into a bounded audit
    /// log tagged `stream`, holding at most `cap` records.
    ///
    /// # Panics
    ///
    /// Panics if `cap` is zero.
    pub fn enable_audit(&mut self, stream: u32, cap: usize) {
        self.audit = Some(AuditLog::new(stream, cap));
    }

    /// The audit log, when [`Agent::enable_audit`] was called.
    pub fn audit(&self) -> Option<&AuditLog> {
        self.audit.as_ref()
    }

    /// Run one access through the full decision + training flow:
    /// reward-match (sampled only), feature extraction, ε-greedy
    /// selection, EQ record + SARSA train (sampled only). `si` is the
    /// sampled FIFO index, `None` when the access is unsampled (it then
    /// only selects an action). The state is hashed into its Q-table
    /// rows once; selection, the audit record and the EQ entry all use
    /// those rows. Returns the selected action (paper encoding: 0
    /// bypass, 1–3 insert at EPV a−1, 4–6 re-assign EPV a−4).
    ///
    /// When auditing, the matched reward, the decision and the
    /// unmatched reward are logged in that order. The decision record's
    /// per-feature Q values are pure reads (no RNG draw, no table
    /// write), so auditing cannot perturb the agent.
    ///
    /// The step order is exactly the paper agent's; reordering it moves
    /// RNG draws and Q-updates and breaks byte-equivalence.
    pub fn on_access(
        &mut self,
        si: Option<usize>,
        access: &E::Access,
        hit: bool,
        ctx: &E::Ctx,
    ) -> usize {
        let id = self.engine.stats.decisions;
        self.engine.stats.decisions += 1;
        if let Some(si) = si {
            self.engine.stats.sampled_accesses += 1;
            let env = &self.env;
            let settled = self
                .engine
                .try_match(si, env.key(access), || env.matched_reward(access, hit));
            if let (Some((settled_id, reward)), Some(audit)) = (settled, self.audit.as_mut()) {
                audit.push_reward(RewardRecord {
                    id: settled_id,
                    matched: true,
                    reward,
                });
            }
        }
        let (buf, n) = self.env.state(access, hit);
        let rows = self.engine.qtable().rows(&buf[..n]);
        let explorations_before = self.engine.stats.explorations;
        let action = self.engine.select(&rows, legal_actions(hit));
        if let Some(audit) = self.audit.as_mut() {
            let mut state = [0; 2];
            state[..n].copy_from_slice(&buf[..n]);
            let mut q = [[0.0; NUM_ACTIONS]; 2];
            for (f, row) in q.iter_mut().enumerate().take(n) {
                for (a, slot) in row.iter_mut().enumerate() {
                    *slot = self.engine.qtable().feature_q(&rows, f, a) as f32;
                }
            }
            audit.push_decision(DecisionRecord {
                id,
                key: self.env.key(access),
                state,
                lane: self.env.lane(access) as u32,
                features: n as u8,
                action: action as u8,
                hit,
                sampled: si.is_some(),
                explored: self.engine.stats.explorations != explorations_before,
                q,
            });
        }
        let trained = si.and_then(|si| {
            let env = &self.env;
            self.engine.record(
                si,
                id,
                rows,
                action,
                hit,
                env.key(access),
                env.lane(access),
                |lane, accurate| env.unmatched_reward(ctx, lane, accurate),
            )
        });
        if let (Some(out), Some(audit)) = (trained, self.audit.as_mut()) {
            if let Some(reward) = out.unmatched {
                audit.push_reward(RewardRecord {
                    id: out.id,
                    matched: false,
                    reward,
                });
            }
        }
        if !hit && action == ACTION_BYPASS {
            self.engine.stats.bypasses += 1;
        }
        action
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ChromeConfig;
    use crate::engine::{EngineConfig, ACTION_HIT_EPVH, HIT_ACTIONS, MISS_ACTIONS};
    use chrome_telemetry::AuditRecord;

    /// A toy environment: key-identity features, fixed rewards, lane 0.
    struct ToyEnv {
        matched: f64,
        unmatched: f64,
    }

    impl Environment for ToyEnv {
        type Access = u64;
        type Ctx = ();

        fn state(&mut self, access: &u64, hit: bool) -> ([u64; 2], usize) {
            ([*access, hit as u64], 2)
        }
        fn key(&self, access: &u64) -> u64 {
            *access
        }
        fn lane(&self, _: &u64) -> usize {
            0
        }
        fn matched_reward(&self, _: &u64, hit: bool) -> f64 {
            if hit {
                self.matched
            } else {
                -self.matched
            }
        }
        fn unmatched_reward(&self, _: &(), _: usize, accurate: bool) -> f64 {
            if accurate {
                self.unmatched
            } else {
                -self.unmatched
            }
        }
    }

    fn agent() -> Agent<ToyEnv> {
        let cfg = EngineConfig {
            eq_fifo_len: 4,
            ..EngineConfig::from(&ChromeConfig::default())
        };
        Agent::new(
            ToyEnv {
                matched: 20.0,
                unmatched: 10.0,
            },
            RlEngine::new(cfg),
        )
    }

    #[test]
    fn unsampled_access_selects_without_recording() {
        let mut a = agent();
        let action = a.on_access(None, &7, false, &());
        assert!(MISS_ACTIONS.contains(&action));
        assert_eq!(a.engine.stats.sampled_accesses, 0);
        assert_eq!(a.engine.stats.q_updates, 0);
        assert_eq!(a.engine.eq().total_entries(), 0);
        assert!(a.audit().is_none(), "auditing is opt-in");
    }

    #[test]
    fn observer_sees_match_and_training() {
        let mut a = agent();
        a.enable_audit(0, 1 << 10);
        let mut keys = vec![42, 42];
        keys.extend(100..110u64);
        // the rewards the audit log holds, matched or dead-block
        let rewards = |a: &Agent<ToyEnv>, matched: bool| -> Vec<f64> {
            let records = a.audit().expect("auditing enabled").records();
            records
                .iter()
                .filter_map(|r| match r {
                    AuditRecord::Reward(w) if w.matched == matched => Some(w.reward),
                    _ => None,
                })
                .collect()
        };
        for (i, &k) in keys.iter().enumerate() {
            let before = a.engine.stats;
            let logged = (rewards(&a, true).len(), rewards(&a, false).len());
            // the same key again hits and is matched; then distinct
            // keys overflow the 4-deep FIFO into dead-block rewards
            a.on_access(Some(0), &k, i == 1, &());
            let after = a.engine.stats;
            // the log records exactly what the stats counted
            assert_eq!(
                (rewards(&a, true).len() - logged.0) as u64,
                after.matched_rewards - before.matched_rewards
            );
            assert_eq!(
                (rewards(&a, false).len() - logged.1) as u64,
                after.unmatched_rewards - before.unmatched_rewards
            );
        }
        assert_eq!(
            rewards(&a, true),
            [20.0],
            "the re-requested key, judged a hit"
        );
        assert!(rewards(&a, false).contains(&-10.0));

        let records = a.audit().expect("auditing enabled").records();
        let mut decisions = Vec::new();
        let mut rewards = 0;
        for r in records {
            match r {
                AuditRecord::Decision(d) => {
                    // decision ids are issued in order
                    assert!(decisions.last().is_none_or(|&last| d.id > last));
                    decisions.push(d.id);
                }
                AuditRecord::Reward(w) => {
                    // every reward settles a decision already logged
                    assert!(decisions.contains(&w.id), "reward for unseen id {}", w.id);
                    rewards += 1;
                }
            }
        }
        let stats = a.engine.stats;
        assert_eq!(decisions.len() as u64, stats.decisions);
        assert_eq!(rewards, stats.matched_rewards + stats.unmatched_rewards);
        assert_eq!(stats.matched_rewards, 1);
        assert!(stats.unmatched_rewards > 0, "dead-block rewards logged");
    }

    #[test]
    fn hit_actions_only_on_hits() {
        let mut a = agent();
        for k in 0..50u64 {
            let action = a.on_access(Some((k % 4) as usize), &k, true, &());
            assert!(HIT_ACTIONS.contains(&action), "{action}");
        }
    }

    #[test]
    fn legal_action_default_covers_paper_space() {
        assert_eq!(legal_actions(false), &MISS_ACTIONS);
        assert_eq!(legal_actions(true), &HIT_ACTIONS);
        assert!(legal_actions(true).contains(&ACTION_HIT_EPVH));
    }

    #[test]
    fn bypass_stat_counts_only_miss_bypasses() {
        let mut a = agent();
        // drive the miss state's insert actions down so bypass wins
        let rows = a.engine.qtable().rows(&[7, 0]);
        for action in [1, 2, 3] {
            for _ in 0..400 {
                a.engine
                    .record(0, 0, rows, action, false, 1, 0, |_, _| -20.0);
            }
        }
        let before = a.engine.stats.bypasses;
        for _ in 0..20 {
            a.on_access(None, &7, false, &());
        }
        assert!(a.engine.stats.bypasses > before, "bypass learned");
    }
}
