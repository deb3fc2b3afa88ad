//! The feature-sliced, sub-table-hashed Q-table (paper §V-C).
//!
//! A monolithic table over all (PC, page) states would be enormous, so
//! CHROME partitions it per *feature*: each feature has its own
//! feature-action table, itself split into several sub-tables indexed by
//! different xor-hashes of the feature value. The Q-value of a
//! feature-action pair is the **sum** of its partial values; the
//! Q-value of a state-action pair is the **max** over its features —
//! every action is driven by the feature that speaks most strongly.
//!
//! Partial values are 16-bit fixed point (the hardware budget of Table
//! III: 2 features × 4 sub-tables × 2048 16-bit slots = 32 KB, where a
//! slot is one row × action cell, so a sub-table holds 292 rows of 7
//! actions).
//!
//! A decision hashes its state into rows once: [`QTable::rows`] returns
//! the state's [`Rows`], one per `(feature, sub-table)`, and every read
//! and update of that state's Q-values takes them. The decision, its
//! Evaluation Queue entry and its SARSA update all carry the same
//! `Rows`, the software form of the paper's single pipelined lookup
//! (§V-G).

use chrome_sim::types::mix64;

/// Fixed-point scale: 1.0 == 64 units.
const SCALE: f64 = 64.0;

/// Total number of distinct actions (4 miss actions + 3 hit actions).
pub const NUM_ACTIONS: usize = 7;

/// Most `(feature, sub-table)` rows one state can address: the
/// hardware agent's 2 features × 4 sub-tables.
const MAX_ROWS: usize = 8;

/// A state's Q-table rows: for each `(feature, sub-table)`, the flat
/// offset of its hashed row's first action. Computed once per decision
/// by [`QTable::rows`] and only meaningful for the table that made it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Rows {
    base: [u32; MAX_ROWS],
}

/// `x.round() as i32` for every `f64`, inline: round half away from
/// zero, saturating at the `i32` bounds, NaN to 0. Without SSE4.1,
/// `f64::round` is a call into the compiler's software `round`.
///
/// `x as i32` truncates toward zero and saturates. Below 2^31 in
/// magnitude the truncation `t` is exact, so `x - t` is the exact
/// fractional part and decides the half-way step; beyond it `t` is
/// already the saturated bound, which the step cannot leave. The step
/// is added as 0 or 1, not branched on: its sign is the TD error's,
/// which no branch predictor can guess.
#[inline]
fn round_half_away(x: f64) -> i32 {
    let t = x as i32;
    let frac = x - f64::from(t);
    t.saturating_add(i32::from(frac >= 0.5))
        .saturating_sub(i32::from(frac <= -0.5))
}

/// The Q-table.
#[derive(Debug, Clone)]
pub struct QTable {
    /// `[feature][sub_table][row][action]` partials, flattened.
    partials: Vec<i16>,
    features: usize,
    sub_tables: usize,
    rows: usize,
}

impl QTable {
    /// Build a table for `features` features, each with `sub_tables`
    /// sub-tables of `entries` 16-bit slots (a slot is one
    /// feature-hash × action cell, so `entries / 7` hash rows — this is
    /// the Table III accounting, where 2048 entries/sub-table × 16 bits
    /// gives the 32 KB budget). Optimistically initialized so every
    /// feature-action Q starts at `q_init`.
    ///
    /// # Panics
    ///
    /// Panics on zero features, sub-tables or entries, or when
    /// `features × sub_tables` exceeds the 8 rows a [`Rows`] holds.
    pub fn new(features: usize, sub_tables: usize, entries: usize, q_init: f64) -> Self {
        assert!(
            features > 0 && sub_tables > 0 && entries > 0,
            "degenerate Q-table"
        );
        assert!(
            features * sub_tables <= MAX_ROWS,
            "{features} features x {sub_tables} sub-tables exceed the {MAX_ROWS} rows a Rows holds"
        );
        let rows = (entries / NUM_ACTIONS).max(1);
        let len = features * sub_tables * rows * NUM_ACTIONS;
        assert!(u32::try_from(len).is_ok(), "Q-table too large for u32 rows");
        let init_partial = (q_init * SCALE / sub_tables as f64).round() as i16;
        QTable {
            partials: vec![init_partial; len],
            features,
            sub_tables,
            rows,
        }
    }

    /// Number of features.
    pub fn num_features(&self) -> usize {
        self.features
    }

    /// Hash `state` into its rows: sub-table `sub` of feature `f` uses
    /// row `mix64(state[f] ^ (0x9E37_79B9 << sub) ^ sub) % rows`, each
    /// sub-table hashing the feature with a different constant.
    ///
    /// # Panics
    ///
    /// Panics if `state.len()` differs from the feature count.
    pub fn rows(&self, state: &[u64]) -> Rows {
        assert_eq!(state.len(), self.features, "state arity mismatch");
        let mut rows = Rows::default();
        for (f, &v) in state.iter().enumerate() {
            for sub in 0..self.sub_tables {
                let hashed = mix64(v ^ (0x9E37_79B9u64 << sub) ^ sub as u64);
                let row = (hashed % self.rows as u64) as usize;
                let table = f * self.sub_tables + sub;
                rows.base[table] = ((table * self.rows + row) * NUM_ACTIONS) as u32;
            }
        }
        rows
    }

    /// Feature `f`'s sub-table rows within `rows`.
    #[inline]
    fn feature_rows<'r>(&self, rows: &'r Rows, f: usize) -> &'r [u32] {
        &rows.base[f * self.sub_tables..(f + 1) * self.sub_tables]
    }

    /// One feature-action pair's partials summed, in fixed point.
    #[inline(always)]
    fn feature_sum(&self, rows: &Rows, f: usize, action: usize) -> i32 {
        debug_assert!(f < self.features && action < NUM_ACTIONS);
        self.feature_rows(rows, f)
            .iter()
            .map(|&base| i32::from(self.partials[base as usize + action]))
            .sum()
    }

    /// Q-value of one feature-action pair: the sum of its partials.
    pub(crate) fn feature_q(&self, rows: &Rows, f: usize, action: usize) -> f64 {
        self.feature_sum(rows, f, action) as f64 / SCALE
    }

    /// [`QTable::q`] in fixed point: Q(s,a) is exactly this over 64.
    /// The sums stay far inside `i32` and dividing by a power of two is
    /// exact, so `>` and `==` on them order and tie actions exactly as
    /// the same compares on Q do. Always inlined: selection calls it
    /// once per legal action, and a call per action costs more than the
    /// few loads it makes.
    #[inline(always)]
    pub(crate) fn q_fixed(&self, rows: &Rows, action: usize) -> i32 {
        let mut q = self.feature_sum(rows, 0, action);
        for f in 1..self.features {
            q = q.max(self.feature_sum(rows, f, action));
        }
        q
    }

    /// Q-value of a state-action pair: max over the state's features
    /// (paper: `Q(S,A) = max(Q(f1,A), Q(f2,A))`).
    pub fn q(&self, rows: &Rows, action: usize) -> f64 {
        self.q_fixed(rows, action) as f64 / SCALE
    }

    /// SARSA update: move every feature's Q toward
    /// `reward + γ·q_next`, each by its own TD error scaled by α.
    /// Features own disjoint sub-tables, so each feature's Q is read
    /// before any write can reach it.
    pub fn update(&mut self, rows: &Rows, action: usize, target: f64, alpha: f64) {
        for f in 0..self.features {
            let q_f = self.feature_q(rows, f, action);
            let td = alpha * (target - q_f);
            let subs = self.feature_rows(rows, f);
            // distribute the TD step across the sub-tables so the sum
            // moves by `td`
            let step = round_half_away(td * SCALE / self.sub_tables as f64);
            if step == 0 {
                // preserve learning for tiny updates: nudge one table
                let nudge = if td > 0.0 {
                    1
                } else if td < 0.0 {
                    -1
                } else {
                    0
                };
                if nudge != 0 {
                    let p = &mut self.partials[subs[0] as usize + action];
                    *p = p.saturating_add(nudge);
                }
                continue;
            }
            for &base in subs {
                let p = &mut self.partials[base as usize + action];
                *p = (*p as i32 + step).clamp(i16::MIN as i32, i16::MAX as i32) as i16;
            }
        }
    }

    /// Storage in bits (for the Table III accounting).
    pub fn storage_bits(&self) -> u64 {
        (self.partials.len() * 16) as u64
    }

    /// Mean magnitude of the table's Q mass, in Q units: the average
    /// absolute partial value scaled back by the sub-table count. Sub-
    /// tables hash the same feature differently, so exact per-state Q
    /// values cannot be enumerated; this flat-array proxy still tracks
    /// how far training has moved the table from initialization.
    pub fn mean_abs_q(&self) -> f64 {
        let sum: u64 = self
            .partials
            .iter()
            .map(|p| u64::from(p.unsigned_abs()))
            .sum();
        sum as f64 * self.sub_tables as f64 / self.partials.len() as f64 / SCALE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> QTable {
        QTable::new(2, 4, 2048, 1.582)
    }

    #[test]
    fn optimistic_initialization() {
        let t = table();
        let rows = t.rows(&[0x1234, 0x77]);
        for a in 0..NUM_ACTIONS {
            let q = t.q(&rows, a);
            assert!((q - 1.582).abs() < 0.1, "q = {q}");
        }
    }

    #[test]
    fn update_moves_toward_target() {
        let mut t = table();
        let rows = t.rows(&[42, 99]);
        let before = t.q(&rows, 3);
        for _ in 0..200 {
            t.update(&rows, 3, 20.0, 0.05);
        }
        let after = t.q(&rows, 3);
        assert!(after > before + 5.0, "{before} -> {after}");
        assert!(
            (after - 20.0).abs() < 2.0,
            "should converge near target, got {after}"
        );
    }

    #[test]
    fn negative_targets_learn_too() {
        let mut t = table();
        let rows = t.rows(&[7, 8]);
        for _ in 0..300 {
            t.update(&rows, 0, -20.0, 0.05);
        }
        assert!(t.q(&rows, 0) < -10.0);
    }

    #[test]
    fn updates_do_not_leak_across_actions() {
        let mut t = table();
        let rows = t.rows(&[11, 22]);
        let q_other = t.q(&rows, 1);
        for _ in 0..100 {
            t.update(&rows, 2, 15.0, 0.1);
        }
        assert!((t.q(&rows, 1) - q_other).abs() < 0.2);
    }

    #[test]
    fn different_states_mostly_independent() {
        let mut t = table();
        let a = t.rows(&[100, 200]);
        let b = t.rows(&[101, 201]);
        let before_b = t.q(&b, 0);
        for _ in 0..100 {
            t.update(&a, 0, -20.0, 0.1);
        }
        // hashing may collide in one sub-table but not all four
        assert!((t.q(&b, 0) - before_b).abs() < 5.0);
    }

    #[test]
    fn single_feature_table() {
        let t = QTable::new(1, 4, 2048, 1.0);
        assert_eq!(t.num_features(), 1);
        let q = t.q(&t.rows(&[5]), 0);
        assert!((q - 1.0).abs() < 0.1);
    }

    #[test]
    fn storage_matches_table_iii() {
        let t = QTable::new(2, 4, 2048, 1.582);
        // Table III: 2 features × 4 sub-tables × 2048 16-bit entries
        // ≈ 32 KB. Slots quantize to whole rows of 7 actions.
        let bits = t.storage_bits();
        let kb = bits as f64 / 8.0 / 1024.0;
        assert!((kb - 32.0).abs() < 0.5, "Q-table = {kb} KB");
    }

    #[test]
    fn round_half_away_matches_std_round() {
        let mut cases = vec![
            0.0,
            -0.0,
            0.5,
            -0.5,
            1.5,
            -1.5,
            2.5,
            -2.5,
            0.49999999999999994,
            -0.49999999999999994,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            4_503_599_627_370_496.0, // 2^52
            -4_503_599_627_370_496.0,
            4_503_599_627_370_495.5, // 2^52 - 0.5
            2_147_483_647.5,
            2_147_483_646.5,
            -2_147_483_648.5,
            -2_147_483_647.5,
            2_147_483_648.0,
            -2_147_483_649.0,
            f64::MAX,
            f64::MIN,
            f64::MIN_POSITIVE,
            f64::EPSILON,
        ];
        let mut rng = chrome_sim::rng::SmallRng::seed_from_u64(0x2A0D);
        for _ in 0..100_000 {
            let scale = [1.0, 64.0, 1e4, 3e9, 1e19][rng.gen_range(0..5usize)];
            cases.push((rng.gen_f64() * 2.0 - 1.0) * scale);
            // exact halves and their neighbours
            let half = rng.gen_range(0..1u64 << 20) as f64 + 0.5;
            cases.extend([half, -half, half.next_up(), half.next_down()]);
            cases.push(f64::from_bits(rng.next_u64()));
        }
        for x in cases {
            assert_eq!(
                round_half_away(x),
                x.round() as i32,
                "x = {x:e} ({:#x})",
                x.to_bits()
            );
        }
    }

    #[test]
    #[should_panic(expected = "state arity")]
    fn wrong_arity_panics() {
        let t = table();
        let _ = t.rows(&[1]);
    }

    #[test]
    #[should_panic(expected = "exceed the 8 rows")]
    fn oversized_geometry_panics() {
        let _ = QTable::new(3, 4, 2048, 1.0);
    }
}
