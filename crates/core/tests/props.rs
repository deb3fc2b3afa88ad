//! Randomized invariant tests for CHROME's learning structures, driven
//! by a seeded in-repo RNG so every run is deterministic.

use chrome_core::config::ChromeConfig;
use chrome_core::engine::{EngineConfig, RlEngine};
use chrome_core::eq::{EqEntry, EqFifo};
use chrome_core::qtable::{QTable, NUM_ACTIONS};
use std::collections::VecDeque;

use chrome_sim::rng::SmallRng;
use chrome_sim::types::mix64;

const CASES: usize = 64;

fn entry(line: u64, action: usize) -> EqEntry {
    EqEntry {
        id: line,
        rows: QTable::new(2, 4, 2048, 1.0).rows(&[line, line >> 8]),
        key: line,
        reward: 0.0,
        lane: 0,
        action: action as u8,
        trigger_hit: action >= 4,
        rewarded: false,
    }
}

/// The Q-table's SARSA update converges toward a constant target from
/// any starting configuration.
#[test]
fn qtable_converges() {
    let mut rng = SmallRng::seed_from_u64(0xC02E_0001);
    for case in 0..CASES {
        let state = [rng.next_u64(), rng.next_u64()];
        let action = rng.gen_range(0..NUM_ACTIONS);
        let target = rng.gen_f64() * 60.0 - 30.0;
        let mut t = QTable::new(2, 4, 2048, 1.582);
        let rows = t.rows(&state);
        for _ in 0..600 {
            t.update(&rows, action, target, 0.1);
        }
        let q = t.q(&rows, action);
        assert!(
            (q - target).abs() < 3.0,
            "case {case}: q={q} target={target}"
        );
    }
}

/// Updates to one action never perturb another action of the same
/// state by more than fixed-point noise.
#[test]
fn qtable_actions_isolated() {
    let mut rng = SmallRng::seed_from_u64(0xC02E_0002);
    for case in 0..CASES {
        let state = [rng.next_u64(), rng.next_u64()];
        let a = rng.gen_range(0..NUM_ACTIONS);
        let b = (a + rng.gen_range(1..NUM_ACTIONS)) % NUM_ACTIONS;
        let mut t = QTable::new(2, 4, 2048, 1.0);
        let rows = t.rows(&state);
        let before = t.q(&rows, b);
        for _ in 0..100 {
            t.update(&rows, a, -25.0, 0.1);
        }
        let after = t.q(&rows, b);
        assert!(
            (after - before).abs() < 0.2,
            "case {case}: action {b} moved by update to {a}"
        );
    }
}

/// The reference Q-table: nested `[feature][sub_table][row * 7 +
/// action]` partials whose every read and write recomputes its slot
/// from the feature value — the layout `QTable` had before rows were
/// hashed once per decision.
struct NaiveTable {
    partials: Vec<Vec<Vec<i16>>>,
    rows: usize,
    sub_tables: usize,
    /// Updates that took the `step == 0` single-partial nudge.
    nudges: u64,
    /// Partial writes pinned at an `i16` bound.
    saturations: u64,
}

impl NaiveTable {
    const SCALE: f64 = 64.0;

    fn new(features: usize, sub_tables: usize, entries: usize, q_init: f64) -> Self {
        let rows = (entries / NUM_ACTIONS).max(1);
        let init = (q_init * Self::SCALE / sub_tables as f64).round() as i16;
        NaiveTable {
            partials: vec![vec![vec![init; rows * NUM_ACTIONS]; sub_tables]; features],
            rows,
            sub_tables,
            nudges: 0,
            saturations: 0,
        }
    }

    fn slot(&self, sub: usize, value: u64, action: usize) -> usize {
        let hashed = mix64(value ^ (0x9E37_79B9u64 << sub) ^ sub as u64);
        (hashed % self.rows as u64) as usize * NUM_ACTIONS + action
    }

    fn q_feature(&self, f: usize, value: u64, action: usize) -> f64 {
        let mut sum = 0i32;
        for sub in 0..self.sub_tables {
            sum += self.partials[f][sub][self.slot(sub, value, action)] as i32;
        }
        sum as f64 / Self::SCALE
    }

    fn q(&self, state: &[u64], action: usize) -> f64 {
        state
            .iter()
            .enumerate()
            .map(|(f, &v)| self.q_feature(f, v, action))
            .fold(f64::NEG_INFINITY, f64::max)
    }

    fn update(&mut self, state: &[u64], action: usize, target: f64, alpha: f64) {
        for (f, &v) in state.iter().enumerate() {
            let td = alpha * (target - self.q_feature(f, v, action));
            let step = (td * Self::SCALE / self.sub_tables as f64).round() as i32;
            if step == 0 {
                let nudge = if td > 0.0 {
                    1
                } else if td < 0.0 {
                    -1
                } else {
                    0
                };
                if nudge != 0 {
                    self.nudges += 1;
                    let slot = self.slot(0, v, action);
                    let p = &mut self.partials[f][0][slot];
                    *p = p.saturating_add(nudge);
                }
                continue;
            }
            for sub in 0..self.sub_tables {
                let slot = self.slot(sub, v, action);
                let p = &mut self.partials[f][sub][slot];
                let raw = *p as i32 + step;
                if raw > i16::MAX as i32 || raw < i16::MIN as i32 {
                    self.saturations += 1;
                }
                *p = raw.clamp(i16::MIN as i32, i16::MAX as i32) as i16;
            }
        }
    }
}

/// The flat `QTable` agrees bit for bit with the reference table: the
/// same random states, actions and targets give equal Q reads before
/// and after every update. Tiny learning rates exercise the `step == 0`
/// nudge, huge targets drive partials into `i16` saturation, and a
/// five-row table forces states to share rows.
#[test]
fn flat_qtable_matches_the_nested_reference() {
    let mut rng = SmallRng::seed_from_u64(0xC02E_0006);
    for (features, sub_tables) in [(1, 4), (2, 4), (2, 2)] {
        for entries in [2048, 5 * NUM_ACTIONS] {
            let q_init = rng.gen_f64() * 4.0;
            let mut flat = QTable::new(features, sub_tables, entries, q_init);
            let mut naive = NaiveTable::new(features, sub_tables, entries, q_init);
            let pool: Vec<Vec<u64>> = (0..24)
                .map(|_| (0..features).map(|_| rng.next_u64()).collect())
                .collect();
            for step in 0..4_000 {
                let state = &pool[rng.gen_range(0..pool.len())];
                let rows = flat.rows(state);
                for a in 0..NUM_ACTIONS {
                    assert_eq!(
                        flat.q(&rows, a).to_bits(),
                        naive.q(state, a).to_bits(),
                        "({features},{sub_tables},{entries}) step {step}: q(s,{a})"
                    );
                }
                let action = rng.gen_range(0..NUM_ACTIONS);
                let target = match rng.gen_range(0..4u32) {
                    0 => rng.gen_f64() * 1e6 - 5e5,
                    1 => rng.gen_f64() * 8_000.0 - 4_000.0,
                    _ => rng.gen_f64() * 80.0 - 40.0,
                };
                let alpha = [1e-7, 1e-3, 0.05, 0.5, 1.0][rng.gen_range(0..5usize)];
                flat.update(&rows, action, target, alpha);
                naive.update(state, action, target, alpha);
            }
            for state in &pool {
                let rows = flat.rows(state);
                for a in 0..NUM_ACTIONS {
                    assert_eq!(flat.q(&rows, a).to_bits(), naive.q(state, a).to_bits());
                }
            }
            assert_eq!(flat.mean_abs_q().to_bits(), {
                let parts = naive.partials.iter().flatten().flatten();
                let sum: u64 = parts.clone().map(|p| u64::from(p.unsigned_abs())).sum();
                (sum as f64 * sub_tables as f64 / parts.count() as f64 / 64.0).to_bits()
            });
            assert!(
                naive.nudges > 0 && naive.saturations > 0,
                "({features},{sub_tables},{entries}): {} nudges, {} saturations",
                naive.nudges,
                naive.saturations
            );
        }
    }
}

/// ε-greedy selection always returns a legal action, for any legal set
/// and any learned table.
#[test]
fn select_is_legal() {
    let mut rng = SmallRng::seed_from_u64(0xC02E_0003);
    for case in 0..CASES {
        let mut e = RlEngine::new(EngineConfig {
            features: 1,
            epsilon: 0.1,
            ..EngineConfig::from(&ChromeConfig::default())
        });
        let rows = e.qtable().rows(&[rng.next_u64()]);
        for i in 0..40 {
            let target = rng.gen_f64() * 60.0 - 30.0;
            e.record(
                0,
                i,
                rows,
                rng.gen_range(0..NUM_ACTIONS),
                false,
                i,
                0,
                |_, _| target,
            );
        }
        let legal_mask = rng.gen_range(1u64..127) as u8;
        let legal: Vec<usize> = (0..NUM_ACTIONS)
            .filter(|&a| legal_mask & (1 << a) != 0)
            .collect();
        assert!(!legal.is_empty());
        for _ in 0..20 {
            let chosen = e.select(&rows, &legal);
            assert!(
                legal.contains(&chosen),
                "case {case}: illegal action {chosen}"
            );
        }
    }
}

/// The EQ FIFO preserves order, respects capacity and reports
/// evictions exactly once per overflow.
#[test]
fn eq_fifo_is_fifo() {
    let mut rng = SmallRng::seed_from_u64(0xC02E_0004);
    for case in 0..CASES {
        let cap = rng.gen_range(1..16usize);
        let count = rng.gen_range(1..120usize);
        let lines: Vec<u64> = (0..count).map(|_| rng.gen_range(0u64..64)).collect();
        let mut fifo = EqFifo::new(cap);
        let mut evictions = Vec::new();
        for (i, &l) in lines.iter().enumerate() {
            if let Some((evicted, next)) = fifo.push(entry(l, i % NUM_ACTIONS)) {
                evictions.push(evicted.key);
                assert!(next.is_some(), "case {case}: FIFO nonempty after eviction");
            }
            assert!(fifo.len() <= cap, "case {case}: over capacity");
        }
        // evictions come out in insertion order
        let expected: Vec<u64> = lines
            .iter()
            .copied()
            .take(lines.len().saturating_sub(cap))
            .collect();
        assert_eq!(evictions, expected, "case {case}: eviction order broken");
    }
}

/// `find_unrewarded` only ever returns entries with the searched line
/// and no reward.
#[test]
fn eq_find_respects_filters() {
    let mut rng = SmallRng::seed_from_u64(0xC02E_0005);
    for case in 0..CASES {
        let count = rng.gen_range(1..60usize);
        let probe = rng.gen_range(0u64..8);
        let mut fifo = EqFifo::new(64);
        for i in 0..count {
            fifo.push(entry(rng.gen_range(0u64..8), i % NUM_ACTIONS));
        }
        if let Some(e) = fifo.find_unrewarded(probe) {
            assert_eq!(e.key, probe, "case {case}: wrong line");
            assert!(!e.rewarded, "case {case}: rewarded entry returned");
            e.assign(1.0);
        }
    }
}

/// The reference EQ FIFO: a `VecDeque` searched newest to oldest, with
/// each entry's reward an `Option` — the layout the ring replaced.
struct DequeFifo {
    entries: VecDeque<(EqEntry, Option<f64>)>,
    capacity: usize,
}

impl DequeFifo {
    fn push(&mut self, entry: EqEntry) -> Option<(EqEntry, Option<f64>, (u64, usize))> {
        self.entries.push_back((entry, None));
        if self.entries.len() <= self.capacity {
            return None;
        }
        let (evicted, reward) = self.entries.pop_front().expect("nonempty");
        let (next, _) = self.entries.front().expect("capacity is nonzero");
        Some((evicted, reward, (next.id, usize::from(next.action))))
    }

    fn find_unrewarded(&mut self, key: u64) -> Option<&mut (EqEntry, Option<f64>)> {
        self.entries
            .iter_mut()
            .rev()
            .find(|(e, reward)| e.key == key && reward.is_none())
    }
}

/// The ring FIFO behaves exactly like the `VecDeque` reference under
/// random pushes and reward matches: the same matched entry, the same
/// evicted entry with the same reward, the same "next" peek and the
/// same length, at every capacity from 1 to 130 (one, two and three
/// mask words, with wrapped heads in each). A five-key alphabet makes
/// duplicate and already-rewarded keys common.
#[test]
fn eq_ring_matches_the_deque_reference() {
    let mut rng = SmallRng::seed_from_u64(0xC02E_0007);
    let rows = |id: u64| QTable::new(1, 1, 64 * 7, 0.0).rows(&[id]);
    for cap in 1..=130usize {
        let mut ring = EqFifo::new(cap);
        let mut reference = DequeFifo {
            entries: VecDeque::new(),
            capacity: cap,
        };
        let mut matched = 0;
        let ops = 3 * cap + 60;
        for id in 0..ops as u64 {
            if rng.gen_range(0..3u32) == 0 {
                let key = rng.gen_range(0u64..5);
                let reward = id as f64 - 0.5;
                let got = ring.find_unrewarded(key).map(|e| {
                    e.assign(reward);
                    e.id
                });
                let want = reference.find_unrewarded(key).map(|(e, r)| {
                    *r = Some(reward);
                    e.id
                });
                assert_eq!(got, want, "cap {cap} op {id}: matched id for key {key}");
                matched += usize::from(got.is_some());
            } else {
                let e = EqEntry {
                    id,
                    rows: rows(id),
                    key: rng.gen_range(0u64..5),
                    action: rng.gen_range(0..NUM_ACTIONS) as u8,
                    ..EqEntry::default()
                };
                let got = ring.push(e);
                let want = reference.push(e);
                match (got, want) {
                    (None, None) => {}
                    (
                        Some((evicted, next)),
                        Some((want_evicted, want_reward, (next_id, next_a))),
                    ) => {
                        assert_eq!(evicted.id, want_evicted.id, "cap {cap} op {id}: evicted");
                        assert_eq!(evicted.key, want_evicted.key);
                        assert_eq!(
                            evicted.rewarded.then_some(evicted.reward),
                            want_reward,
                            "cap {cap} op {id}: evicted reward"
                        );
                        assert_eq!(
                            next,
                            Some((rows(next_id), next_a)),
                            "cap {cap} op {id}: next"
                        );
                    }
                    (got, want) => panic!(
                        "cap {cap} op {id}: ring evicted {:?}, reference {:?}",
                        got.map(|(e, _)| e.id),
                        want.map(|(e, _, _)| e.id)
                    ),
                }
            }
            assert_eq!(
                ring.len(),
                reference.entries.len(),
                "cap {cap} op {id}: len"
            );
        }
        assert!(matched > 0, "cap {cap}: no match exercised");
    }
}
