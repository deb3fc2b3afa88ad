//! CHROME as a serving-cache policy: the paper's SARSA engine bound to
//! a KV-request environment.
//!
//! The hardware agent and this one share [`RlEngine`] verbatim (same
//! ε-greedy selection, Q-table, evaluation queue and SARSA update);
//! only the [`Environment`] differs:
//!
//! * **state** — instead of PC signature + page number, the serve
//!   features are a *flow signature* (tenant ⊕ hit ⊕ size class: which
//!   kind of traffic is this?) and a *key neighborhood* (key >> 7: is
//!   this region of the keyspace hot?);
//! * **reward** — instead of the fixed Table II constants under C-AMAT
//!   obstruction, rewards are the same constants scaled by the
//!   *observed* hit/miss latency gap (EWMA of virtual service
//!   latencies), so actions that protect expensive-to-refetch objects
//!   earn proportionally more;
//! * **obstruction analog** — a shard is "obstructed" when its
//!   pressure window shows thrashing (evictions outpacing any possible
//!   payoff), standing in for the paper's LLC-obstruction bit.
//!
//! Unlike the hardware agent, which samples 64 sets to bound SRAM
//! overhead, the serve agent trains on every request — software has no
//! such budget and per-shard request counts are small.
//!
//! Eviction reuses the paper's 3-level EPV scheme with O(1) aging:
//! three intrusive lists indexed through a rotating `order` map, so
//! "raise everyone's eviction priority by k" is a rotation instead of
//! a walk over all slots.

use chrome_core::engine::{EngineConfig, RlEngine, ACTION_BYPASS};
use chrome_core::{Agent, Environment, RewardTable};
use chrome_sim::types::mix64;
use chrome_telemetry::AuditLog;

use crate::policy::{DList, ShardPolicy, ShardPressure};
use crate::stream::Request;

/// Virtual service latency of a cache hit, in microseconds.
pub const HIT_US: u32 = 2;

/// EWMA smoothing factor for the observed latencies (1/64 per sample).
const EWMA_SHIFT: f64 = 1.0 / 64.0;
/// Latency gap (µs) at which rewards carry their nominal Table II
/// magnitude; the observed gap scales them between 0.25× and 4×.
const NOMINAL_GAP_US: f64 = 538.0;

/// Frequency-sketch counters (power of two).
const SKETCH_SLOTS: usize = 4096;
/// Halve every sketch counter after this many accesses, so popularity
/// is recent popularity (churned-out keys decay back to cold).
const SKETCH_DECAY_PERIOD: u64 = 8192;
/// Sketch-count thresholds separating reuse classes 1/2/3.
const REUSE_THRESHOLDS: [u16; 3] = [1, 3, 8];

/// The KV-request environment for the SARSA engine.
#[derive(Debug)]
pub struct ServeEnv {
    rewards: RewardTable,
    /// False for the N-CHROME ablation: the thrashing signal is masked
    /// out of dead-key rewards.
    concurrency_aware: bool,
    /// EWMA of observed hit latencies (µs).
    hit_ewma: f64,
    /// EWMA of observed miss (backend fetch) latencies (µs).
    miss_ewma: f64,
    /// Decayed per-key frequency sketch backing the reuse class.
    sketch: Vec<u16>,
    /// Accesses folded into the sketch (drives decay).
    sketch_accesses: u64,
}

impl ServeEnv {
    fn new() -> Self {
        // Table II ratios, with the not-requested (dead-key) rewards at
        // a quarter weight: in a serving cache the dead tail is the
        // *majority* of miss traffic (hardware LLCs sample sets; we see
        // every request), and at full weight its steady reinforcement
        // of bypass drowns the rarer but decisive matched evidence
        let rewards = RewardTable {
            ac_nr_obstructed: 7.0,
            ac_nr_normal: 2.5,
            in_nr_obstructed: -5.5,
            in_nr_normal: -2.5,
            ..RewardTable::default()
        };
        ServeEnv {
            rewards,
            concurrency_aware: true,
            hit_ewma: f64::from(HIT_US),
            miss_ewma: NOMINAL_GAP_US + f64::from(HIT_US),
            sketch: vec![0; SKETCH_SLOTS],
            sketch_accesses: 0,
        }
    }

    /// Read the key's reuse class (0 = unseen … 3 = hot) from the
    /// sketch, then count this access into it. Without this signal the
    /// flow feature lumps a tenant's hot and cold keys into one state,
    /// and the dead-key majority teaches it to bypass everything.
    fn reuse_class(&mut self, key: u64) -> u64 {
        self.sketch_accesses += 1;
        if self.sketch_accesses.is_multiple_of(SKETCH_DECAY_PERIOD) {
            for c in &mut self.sketch {
                *c >>= 1;
            }
        }
        let slot = (mix64(key) >> 12) as usize & (SKETCH_SLOTS - 1);
        let count = self.sketch[slot];
        self.sketch[slot] = count.saturating_add(1);
        REUSE_THRESHOLDS.iter().filter(|&&t| count >= t).count() as u64
    }

    /// Reward multiplier: the observed hit/miss latency gap relative to
    /// nominal, clamped so a cold EWMA can neither mute nor explode the
    /// learning signal.
    fn scale(&self) -> f64 {
        ((self.miss_ewma - self.hit_ewma) / NOMINAL_GAP_US).clamp(0.25, 4.0)
    }
}

impl Environment for ServeEnv {
    type Access = Request;
    type Ctx = ShardPressure;

    fn state(&mut self, req: &Request, hit: bool) -> ([u64; 2], usize) {
        // fold the realized latency into the reward scale's EWMAs
        if hit {
            self.hit_ewma += (f64::from(HIT_US) - self.hit_ewma) * EWMA_SHIFT;
        } else {
            self.miss_ewma += (f64::from(req.miss_cost_us()) - self.miss_ewma) * EWMA_SHIFT;
        }
        let size_class = u64::from(req.size() >> 10); // 0..=3
        let reuse = self.reuse_class(req.key);
        let flow =
            (u64::from(req.tenant) + 1) | (size_class << 8) | (reuse << 16) | ((hit as u64) << 62);
        ([mix64(flow), mix64(req.key >> 7)], 2)
    }

    fn key(&self, req: &Request) -> u64 {
        req.key
    }

    fn lane(&self, req: &Request) -> usize {
        req.tenant as usize
    }

    fn matched_reward(&self, _req: &Request, hit: bool) -> f64 {
        let base = if hit {
            self.rewards.requested_hit(false)
        } else {
            self.rewards.requested_miss(false)
        };
        base * self.scale()
    }

    fn unmatched_reward(&self, pressure: &ShardPressure, _lane: usize, accurate: bool) -> f64 {
        let obstructed = self.concurrency_aware && pressure.thrashing;
        self.rewards.not_requested(accurate, obstructed) * self.scale()
    }
}

/// Per-shard engine geometry: smaller tables than the hardware agent
/// (each shard sees a slice of the traffic), faster learning rate, and
/// full-stream training instead of set sampling.
fn engine_config(seed: u64) -> EngineConfig {
    let gamma = 0.3679;
    EngineConfig {
        alpha: 0.15,
        gamma,
        epsilon: 0.02,
        q_init: 1.0 / (1.0 - gamma),
        features: 2,
        sub_tables: 2,
        sub_table_entries: 2048,
        sampled_sets: 32,
        eq_fifo_len: 64,
        seed,
    }
}

/// CHROME driving one shard: RL admission on misses, RL EPV
/// re-assignment on hits, EPV-ordered eviction.
pub struct ChromeServePolicy {
    agent: Agent<ServeEnv>,
    /// Three physical EPV lists, indexed through `order`.
    lists: [DList; 3],
    /// Virtual EPV level → physical list index. Aging rotates this map
    /// instead of touching every slot.
    order: [usize; 3],
    /// Physical list currently holding each slot.
    slot_list: Vec<u8>,
    /// EPV chosen by the admission decision, consumed by `on_insert`.
    pending_epv: u8,
    name: &'static str,
}

impl ChromeServePolicy {
    /// A CHROME policy for a shard with `cap` slots; `seed` drives the
    /// ε-greedy exploration stream.
    pub fn new(cap: usize, seed: u64) -> Self {
        Self::build(cap, seed, true)
    }

    /// The N-CHROME ablation: identical except the thrashing signal is
    /// masked out of its dead-key rewards.
    pub fn new_unaware(cap: usize, seed: u64) -> Self {
        Self::build(cap, seed, false)
    }

    fn build(cap: usize, seed: u64, concurrency_aware: bool) -> Self {
        let mut env = ServeEnv::new();
        env.concurrency_aware = concurrency_aware;
        ChromeServePolicy {
            agent: Agent::new(env, RlEngine::new(engine_config(seed))),
            lists: [DList::new(cap), DList::new(cap), DList::new(cap)],
            order: [0, 1, 2],
            slot_list: vec![0; cap],
            pending_epv: 0,
            name: if concurrency_aware {
                "chrome"
            } else {
                "chrome-nc"
            },
        }
    }

    /// The agent's engine (stats probes, tests).
    pub fn engine(&self) -> &RlEngine {
        &self.agent.engine
    }

    /// Every-request EQ bucketing: the FIFO a key's decisions record
    /// into (and are matched from).
    ///
    /// This is coupled to shard routing. `ServeCache` sends a key to
    /// shard `mix64(key) & (shards - 1)`, and the bucket is `mix64(key)
    /// % 32`: the same low bits. So a shard's agent only ever fills
    /// `32 / shards` of its FIFOs — 2 at the default 16 shards, 4 at
    /// the 8-shard `--quick` geometry — and each used FIFO covers
    /// `shards` times the keys an even spread would give it. Taking
    /// the bucket from the high bits instead lowered CHROME's hit ratio
    /// on every stream (ROADMAP item 5), so the coupling stays.
    fn bucket(&self, key: u64) -> usize {
        (mix64(key) % self.agent.engine.config().sampled_sets as u64) as usize
    }

    /// Run one request through the agent; returns the chosen action.
    fn decide(&mut self, req: &Request, hit: bool, pressure: &ShardPressure) -> usize {
        let si = self.bucket(req.key);
        self.agent.on_access(Some(si), req, hit, pressure)
    }
}

impl ShardPolicy for ChromeServePolicy {
    fn name(&self) -> &'static str {
        self.name
    }

    fn admit(&mut self, req: &Request, pressure: &ShardPressure) -> bool {
        let action = self.decide(req, false, pressure);
        if action == ACTION_BYPASS {
            false
        } else {
            self.pending_epv = (action - 1) as u8;
            true
        }
    }

    fn on_hit(&mut self, slot: u32, req: &Request, pressure: &ShardPressure) {
        let action = self.decide(req, true, pressure);
        let epv = action - 4;
        let dst = self.order[epv];
        let cur = usize::from(self.slot_list[slot as usize]);
        if cur == dst {
            self.lists[dst].move_to_front(slot);
        } else {
            self.lists[cur].remove(slot);
            self.lists[dst].push_front(slot);
            self.slot_list[slot as usize] = dst as u8;
        }
    }

    fn on_insert(&mut self, slot: u32, _req: &Request, _pressure: &ShardPressure) {
        let dst = self.order[usize::from(self.pending_epv)];
        self.lists[dst].push_front(slot);
        self.slot_list[slot as usize] = dst as u8;
    }

    fn choose_victim(&mut self) -> u32 {
        // highest non-empty virtual EPV level holds the victims
        let mut level = 2;
        while level > 0 && self.lists[self.order[level]].is_empty() {
            level -= 1;
        }
        // age every resident up by the gap (RRIP-style), O(1): the
        // rotation relabels virtual levels, and the lists above the
        // occupied one are empty so their relabeling is vacuous
        let bump = 2 - level;
        if bump > 0 {
            self.order.rotate_right(bump);
        }
        self.lists[self.order[2]]
            .back()
            .expect("victim requested from empty shard")
    }

    fn on_remove(&mut self, slot: u32) {
        let cur = usize::from(self.slot_list[slot as usize]);
        self.lists[cur].remove(slot);
    }

    fn enable_audit(&mut self, stream: u32, cap: usize) -> bool {
        self.agent.enable_audit(stream, cap);
        true
    }

    fn audit(&self) -> Option<&AuditLog> {
        self.agent.audit()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::{ServeCache, ServeConfig};
    use crate::policy::PolicyKind;
    use crate::stream::{RequestStream, StreamKind};
    use chrome_telemetry::AuditRecord;

    const CALM: ShardPressure = ShardPressure { thrashing: false };
    const THRASH: ShardPressure = ShardPressure { thrashing: true };

    fn req(key: u64, tenant: u8) -> Request {
        Request { key, tenant }
    }

    #[test]
    fn reward_scale_tracks_observed_latency_gap() {
        let mut env = ServeEnv::new();
        assert!((env.scale() - 1.0).abs() < 1e-9, "nominal gap at start");
        // a long run of hits with no misses narrows the believed gap…
        for _ in 0..2000 {
            env.state(&req(1, 0), true);
        }
        assert!(
            (env.scale() - 1.0).abs() < 1e-9,
            "hit EWMA already at floor"
        );
        // …while expensive misses widen it
        let costly = (0..500)
            .map(|k| req(k, 0))
            .max_by_key(Request::miss_cost_us)
            .unwrap();
        for _ in 0..2000 {
            env.state(&costly, false);
        }
        assert!(env.scale() > 1.0, "gap above nominal: {}", env.scale());
        assert!(env.scale() <= 4.0, "clamped");
    }

    #[test]
    fn unmatched_reward_credits_bypass_and_punishes_dead_inserts() {
        let env = ServeEnv::new();
        // a dead key's bypass was accurate, its insert was not
        let dead_bypass = |p: &ShardPressure| env.unmatched_reward(p, 0, true);
        let dead_insert = |p: &ShardPressure| env.unmatched_reward(p, 0, false);
        assert!(dead_bypass(&CALM) > 0.0);
        assert!(dead_insert(&CALM) < 0.0);
        // thrashing amplifies both judgments
        assert!(dead_bypass(&THRASH) > dead_bypass(&CALM));
        assert!(dead_insert(&THRASH) < dead_insert(&CALM));
    }

    #[test]
    fn flow_signature_separates_tenants_and_key_regions() {
        let (a, _) = ServeEnv::new().state(&req(1000, 0), false);
        let (b, _) = ServeEnv::new().state(&req(1000, 1), false);
        assert_ne!(a[0], b[0], "tenants get distinct flow signatures");
        let mut env = ServeEnv::new();
        let (c, _) = env.state(&req(1000, 0), false);
        let (d, _) = env.state(&req(1000 + 4096, 0), false);
        assert_ne!(c[1], d[1], "distant keys get distinct neighborhoods");
        let (e, _) = env.state(&req(1001, 0), false);
        assert_eq!(c[1], e[1], "adjacent keys share a neighborhood");
    }

    #[test]
    fn reuse_class_rises_with_touches_and_decays() {
        let mut env = ServeEnv::new();
        assert_eq!(env.reuse_class(77), 0, "unseen key is cold");
        assert_eq!(env.reuse_class(77), 1, "second touch sees one count");
        for _ in 0..10 {
            env.reuse_class(77);
        }
        assert_eq!(env.reuse_class(77), 3, "hot key reaches the top class");
        // flows with different reuse classes get different signatures
        let (hot, _) = env.state(&req(77, 0), false);
        let (cold, _) = ServeEnv::new().state(&req(77, 0), false);
        assert_ne!(hot[0], cold[0]);
        // a decay period halves the counters back toward cold
        for _ in 0..SKETCH_DECAY_PERIOD * 4 {
            env.reuse_class(0xDEAD_0000);
        }
        assert!(env.reuse_class(77) < 3, "stale heat decays");
    }

    #[test]
    fn admission_consumes_agent_actions() {
        let mut p = ChromeServePolicy::new(64, 0xBEEF);
        let mut admitted = 0;
        for k in 0..200u64 {
            if p.admit(&req(k, 0), &CALM) {
                p.on_insert((k % 64) as u32, &req(k, 0), &CALM);
                p.on_remove((k % 64) as u32);
                admitted += 1;
            }
        }
        // untrained agent tie-breaks to insert (TIE_RANK), ε explores
        assert!(admitted > 150, "admitted {admitted}/200");
        assert_eq!(p.engine().stats.sampled_accesses, 200);
    }

    #[test]
    fn epv_lists_age_by_rotation_and_evict_highest_epv() {
        let mut p = ChromeServePolicy::new(8, 1);
        // place slots directly: 0 at EPV0, 1 at EPV2
        p.pending_epv = 0;
        p.on_insert(0, &req(0, 0), &CALM);
        p.pending_epv = 2;
        p.on_insert(1, &req(1, 0), &CALM);
        assert_eq!(p.choose_victim(), 1, "EPV2 evicts first");
        p.on_remove(1);
        // only an EPV0 resident remains: aging rotates it up to EPV2
        assert_eq!(p.choose_victim(), 0);
        p.on_remove(0);
        // after aging, a fresh EPV0 insert lands in a now-relabeled list
        p.pending_epv = 0;
        p.on_insert(2, &req(2, 0), &CALM);
        assert_eq!(p.choose_victim(), 2);
    }

    /// Serve `reqs` through `p` as a shard would: `on_hit` for a
    /// resident key, else `admit`, evicting on a full shard.
    fn drive(p: &mut ChromeServePolicy, slots: u32, reqs: &[Request]) {
        let mut resident = std::collections::HashMap::new();
        let mut slot_key = vec![0u64; slots as usize];
        let mut free: Vec<u32> = (0..slots).collect();
        for r in reqs {
            if let Some(&slot) = resident.get(&r.key) {
                p.on_hit(slot, r, &CALM);
            } else if p.admit(r, &CALM) {
                let slot = free.pop().unwrap_or_else(|| {
                    let victim = p.choose_victim();
                    p.on_remove(victim);
                    resident.remove(&slot_key[victim as usize]);
                    victim
                });
                resident.insert(r.key, slot);
                slot_key[slot as usize] = r.key;
                p.on_insert(slot, r, &CALM);
            }
        }
    }

    #[test]
    fn a_shards_agent_fills_only_the_fifos_its_keys_reach() {
        // shard routing and `bucket` read the same low hash bits, so a
        // shard's 32 FIFOs of 64 fill only 32 / shards of the way
        let stream = RequestStream::generate(StreamKind::MixedTenant, 200_000, 20_000, 1);
        for (shards, entries) in [(16, 128), (8, 256)] {
            let cache = ServeCache::new(&ServeConfig {
                policy: PolicyKind::Chrome,
                shards,
                shard_slots: 512,
                shard_bytes: 256 * 1024,
                seed: 1,
                time_policy: false,
            });
            let mine: Vec<Request> = stream
                .iter()
                .filter(|r| cache.shard_index(r.key) == 0)
                .copied()
                .collect();
            let mut p = ChromeServePolicy::new(512, 1);
            drive(&mut p, 512, &mine);
            let eq = p.engine().eq();
            assert_eq!(eq.num_queues() * eq.capacity(), 2048);
            assert_eq!(eq.total_entries(), entries, "{shards} shards");
        }
    }

    #[test]
    fn decisions_flow_into_the_audit_log() {
        let mut p = ChromeServePolicy::new(32, 5);
        assert!(p.audit().is_none(), "auditing is opt-in");
        assert!(p.enable_audit(3, 1 << 12));
        for k in 0..300u64 {
            p.admit(&req(k % 40, 0), &CALM);
        }
        let log = p.audit().expect("auditing enabled");
        assert_eq!(log.stream(), 3);
        let decisions = log
            .records()
            .iter()
            .filter(|r| matches!(r, AuditRecord::Decision(d) if d.sampled && !d.hit))
            .count();
        assert_eq!(
            decisions, 300,
            "every admission is one sampled miss decision"
        );
        let stats = p.engine().stats;
        assert_eq!(
            log.len() as u64,
            300 + stats.matched_rewards + stats.unmatched_rewards,
            "plus one record per reward"
        );
    }
}
