//! The environment abstraction: what CHROME's SARSA engine needs to
//! know about the thing it manages, and nothing more.
//!
//! The paper instantiates the agent against a hardware LLC (features =
//! PC signature + page number, rewards = Table II, obstruction =
//! C-AMAT). An [`Environment`] packages exactly that instance-specific
//! surface — feature extraction, the EQ match key, the per-decision
//! lane, and both reward sources — so the identical engine can drive
//! other access streams (the `chrome-serve` KV cache rewards with
//! observed hit/miss latency deltas instead). [`Agent`] composes an
//! environment with an [`RlEngine`] and runs Algorithm 1's per-access
//! flow in the exact order of the original hardware agent; the
//! `agent_equiv` test pins that order byte-for-byte.

use crate::engine::{RlEngine, ACTION_BYPASS, HIT_ACTIONS, MISS_ACTIONS};
use crate::eq::EqEntry;
use crate::qtable::{Rows, NUM_ACTIONS};

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
    /// EQ window (the entry aged out of its FIFO).
    fn unmatched_reward(&self, ctx: &Self::Ctx, entry: &EqEntry) -> f64;

    /// Legal actions for a hit/miss trigger. The default is the paper's
    /// 7-action space: bypass/insert-at-EPV on a miss, re-assign-EPV on
    /// a hit.
    fn legal_actions(hit: bool) -> &'static [usize] {
        if hit {
            &HIT_ACTIONS
        } else {
            &MISS_ACTIONS
        }
    }
}

/// Everything [`Agent::on_access`] knew at decision time, offered to
/// observers that asked for full decision snapshots (the audit trail).
/// Building one costs `features × actions` pure Q reads over the
/// decision's rows, so it is gated behind
/// [`DecisionObserver::wants_decisions`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecisionSnapshot<'a> {
    /// Monotonic decision id (the EQ linkage id); reward callbacks
    /// reference it.
    pub id: u64,
    /// Active feature-slice values.
    pub state: &'a [u64],
    /// True when the triggering access hit.
    pub hit: bool,
    /// True when the access landed on a sampled set/bucket.
    pub sampled: bool,
    /// True when ε-greedy exploration overrode the greedy choice.
    pub explored: bool,
    /// The chosen action.
    pub action: usize,
    /// The EQ match key.
    pub key: u64,
    /// The issuing lane.
    pub lane: usize,
    /// Per-feature Q components `q[f][a]` (rows beyond the active
    /// feature count are zero). Q(s,a) is the max over features.
    pub q: [[f64; NUM_ACTIONS]; 2],
}

impl DecisionSnapshot<'_> {
    /// Convert to an audit-log record (Q components narrowed to f32).
    pub fn to_record(&self) -> chrome_telemetry::DecisionRecord {
        let mut state = [0u64; 2];
        state[..self.state.len()].copy_from_slice(self.state);
        let mut q = [[0f32; NUM_ACTIONS]; 2];
        for (row, src) in q.iter_mut().zip(self.q.iter()) {
            for (v, s) in row.iter_mut().zip(src.iter()) {
                *v = *s as f32;
            }
        }
        chrome_telemetry::DecisionRecord {
            id: self.id,
            key: self.key,
            state,
            lane: self.lane as u32,
            features: self.state.len() as u8,
            action: self.action as u8,
            hit: self.hit,
            sampled: self.sampled,
            explored: self.explored,
            q,
        }
    }
}

/// Per-decision hooks so wrappers can observe what [`Agent::on_access`]
/// did (telemetry emission) without the engine depending on a sink.
/// Every method defaults to a no-op. Reward callbacks carry the
/// decision id the reward settles, so observers can link them back to
/// earlier [`DecisionSnapshot`]s.
pub trait DecisionObserver {
    /// A delayed reward was assigned by key match to decision `id`.
    fn reward_matched(&mut self, _id: u64, _reward: f64) {}
    /// A dead-block reward was assigned to decision `id` at EQ
    /// eviction.
    fn reward_unmatched(&mut self, _id: u64, _reward: f64) {}
    /// A SARSA update moved `action`'s Q-value toward its target;
    /// `delta` is the pre-update TD error `target − Q(s,a)`.
    fn q_update(&mut self, _delta: f64, _action: usize) {}
    /// True to receive a full [`DecisionSnapshot`] per access (costs
    /// the per-feature Q reads; off by default).
    fn wants_decisions(&self) -> bool {
        false
    }
    /// A decision was made (only called when
    /// [`DecisionObserver::wants_decisions`] returned true).
    fn decision(&mut self, _snap: &DecisionSnapshot) {}
}

/// The observer that observes nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoObserver;

impl DecisionObserver for NoObserver {}

/// What one access decided.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Decision {
    /// The selected action (paper encoding: 0 bypass, 1–3 insert at
    /// EPV a−1, 4–6 re-assign EPV a−4).
    pub action: usize,
    /// True when the access landed on a sampled set/bucket and was
    /// recorded in the EQ.
    pub sampled: bool,
    /// The feature buffer [`Environment::state`] returned for this
    /// access: the state the action was selected against.
    pub state: [u64; 2],
    /// The state's Q-table rows, hashed once for the whole decision.
    pub rows: Rows,
}

/// A SARSA agent bound to an environment: the engine plus the
/// per-access control flow of Algorithm 1.
#[derive(Debug)]
pub struct Agent<E: Environment> {
    /// The environment (feature extraction + reward source).
    pub env: E,
    /// The environment-agnostic SARSA engine.
    pub engine: RlEngine,
}

impl<E: Environment> Agent<E> {
    /// Bind `env` to `engine`.
    pub fn new(env: E, engine: RlEngine) -> Self {
        Agent { env, engine }
    }

    /// Run one access through the full decision + training flow:
    /// reward-match (sampled only), feature extraction, ε-greedy
    /// selection, EQ record + SARSA train (sampled only). `si` is the
    /// sampled FIFO index, `None` when the access is unsampled (it then
    /// only selects an action). The state is hashed into its Q-table
    /// rows once; selection, the audit snapshot, the EQ entry and the
    /// returned [`Decision`] all use those rows.
    ///
    /// The step order is exactly the paper agent's; reordering it moves
    /// RNG draws and Q-updates and breaks byte-equivalence.
    pub fn on_access(
        &mut self,
        si: Option<usize>,
        access: &E::Access,
        hit: bool,
        ctx: &E::Ctx,
        obs: &mut impl DecisionObserver,
    ) -> Decision {
        let id = self.engine.stats.decisions;
        self.engine.stats.decisions += 1;
        if let Some(si) = si {
            self.engine.stats.sampled_accesses += 1;
            let reward = self.env.matched_reward(access, hit);
            if let Some(matched) = self.engine.try_match(si, self.env.key(access), reward) {
                obs.reward_matched(matched, reward);
            }
        }
        let (buf, n) = self.env.state(access, hit);
        let state = &buf[..n];
        let rows = self.engine.qtable().rows(state);
        let explorations_before = self.engine.stats.explorations;
        let action = self.engine.select(&rows, E::legal_actions(hit));
        if obs.wants_decisions() {
            // pure Q reads: no RNG draw, no table write, so snapshotting
            // cannot perturb byte-equivalence
            let mut q = [[0.0; NUM_ACTIONS]; 2];
            for (f, row) in q.iter_mut().enumerate().take(n) {
                for (a, slot) in row.iter_mut().enumerate() {
                    *slot = self.engine.qtable().feature_q(&rows, f, a);
                }
            }
            obs.decision(&DecisionSnapshot {
                id,
                state,
                hit,
                sampled: si.is_some(),
                explored: self.engine.stats.explorations != explorations_before,
                action,
                key: self.env.key(access),
                lane: self.env.lane(access),
                q,
            });
        }
        if let Some(si) = si {
            let env = &self.env;
            let outcome = self.engine.record(
                si,
                id,
                rows,
                action,
                hit,
                env.key(access),
                env.lane(access),
                |entry| env.unmatched_reward(ctx, entry),
            );
            if let Some(out) = outcome {
                if let Some(reward) = out.unmatched {
                    obs.reward_unmatched(out.id, reward);
                }
                obs.q_update(out.delta, out.action);
            }
        }
        if !hit && action == ACTION_BYPASS {
            self.engine.stats.bypasses += 1;
        }
        Decision {
            action,
            sampled: si.is_some(),
            state: buf,
            rows,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ChromeConfig;
    use crate::engine::{EngineConfig, ACTION_HIT_EPVH};

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
        fn unmatched_reward(&self, _: &(), entry: &EqEntry) -> f64 {
            if entry.trigger_hit {
                self.unmatched
            } else {
                -self.unmatched
            }
        }
    }

    #[derive(Default)]
    struct CountingObserver {
        matched: u32,
        unmatched: u32,
        updates: u32,
        decisions: Vec<u64>,
        rewarded_ids: Vec<u64>,
    }

    impl DecisionObserver for CountingObserver {
        fn reward_matched(&mut self, id: u64, _: f64) {
            self.matched += 1;
            self.rewarded_ids.push(id);
        }
        fn reward_unmatched(&mut self, id: u64, _: f64) {
            self.unmatched += 1;
            self.rewarded_ids.push(id);
        }
        fn q_update(&mut self, _: f64, _: usize) {
            self.updates += 1;
        }
        fn wants_decisions(&self) -> bool {
            true
        }
        fn decision(&mut self, snap: &DecisionSnapshot) {
            self.decisions.push(snap.id);
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
        let d = a.on_access(None, &7, false, &(), &mut NoObserver);
        assert!(!d.sampled);
        assert!(MISS_ACTIONS.contains(&d.action));
        assert_eq!(a.engine.stats.sampled_accesses, 0);
        assert_eq!(a.engine.eq().total_entries(), 0);
    }

    #[test]
    fn observer_sees_match_and_training() {
        let mut a = agent();
        let mut obs = CountingObserver::default();
        a.on_access(Some(0), &42, false, &(), &mut obs);
        // same key again → the recorded action is matched
        a.on_access(Some(0), &42, true, &(), &mut obs);
        assert_eq!(obs.matched, 1);
        assert_eq!(a.engine.stats.matched_rewards, 1);
        // overflow the 4-deep FIFO with distinct keys → unmatched
        // rewards + q-updates flow through the observer
        for k in 100..110u64 {
            a.on_access(Some(0), &k, false, &(), &mut obs);
        }
        assert!(obs.unmatched > 0, "dead-block rewards observed");
        assert_eq!(obs.updates as u64, a.engine.stats.q_updates);
        // decision ids are issued in order and every reward settles a
        // decision the observer already saw
        assert!(obs.decisions.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(obs.decisions.len() as u64, a.engine.stats.decisions);
        for id in &obs.rewarded_ids {
            assert!(obs.decisions.contains(id), "reward for unseen id {id}");
        }
    }

    #[test]
    fn hit_actions_only_on_hits() {
        let mut a = agent();
        for k in 0..50u64 {
            let d = a.on_access(Some((k % 4) as usize), &k, true, &(), &mut NoObserver);
            assert!(HIT_ACTIONS.contains(&d.action), "{d:?}");
        }
    }

    #[test]
    fn legal_action_default_covers_paper_space() {
        assert_eq!(ToyEnv::legal_actions(false), &MISS_ACTIONS);
        assert_eq!(ToyEnv::legal_actions(true), &HIT_ACTIONS);
        assert!(ToyEnv::legal_actions(true).contains(&ACTION_HIT_EPVH));
    }

    #[test]
    fn bypass_stat_counts_only_miss_bypasses() {
        let mut a = agent();
        // drive the miss state's insert actions down so bypass wins
        let rows = a.engine.qtable().rows(&[7, 0]);
        for action in [1, 2, 3] {
            for _ in 0..400 {
                a.engine.record(0, 0, rows, action, false, 1, 0, |_| -20.0);
            }
        }
        let before = a.engine.stats.bypasses;
        for _ in 0..20 {
            a.on_access(None, &7, false, &(), &mut NoObserver);
        }
        assert!(a.engine.stats.bypasses > before, "bypass learned");
    }
}
