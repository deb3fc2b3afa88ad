//! CHROME configuration: rewards, hyper-parameters, table geometry
//! (paper Tables II and III).

use crate::rewards::RewardTable;

/// Which program features form the state vector.
///
/// The paper's Table I lists the candidate features (control-flow,
/// data-access, and combinations); its feature-selection pass settles on
/// PC signature + page number ([`FeatureSelection::PcAndPn`]), ablated
/// in Fig. 15 against the single-feature variants. The remaining
/// variants here expose the other Table I candidates for
/// experimentation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FeatureSelection {
    /// PC signature only.
    PcOnly,
    /// Physical page number only.
    PnOnly,
    /// Both features (the paper's configuration).
    PcAndPn,
    /// PC signature + (PC ⊕ address-delta) combination (Table I
    /// "PC + delta").
    PcAndDelta,
    /// Hash of the last four PCs + page number (Table I "sequence of
    /// last 4 PCs").
    PcSeqAndPn,
    /// (PC ⊕ page-offset) combination + page number (Table I
    /// "PC + page offset").
    PcOffsetAndPn,
}

impl FeatureSelection {
    /// Number of active features.
    pub fn count(self) -> usize {
        match self {
            FeatureSelection::PcOnly | FeatureSelection::PnOnly => 1,
            _ => 2,
        }
    }
}

/// Full CHROME configuration. [`ChromeConfig::default`] reproduces the
/// paper's Tables II and III.
#[derive(Debug, Clone)]
pub struct ChromeConfig {
    /// Learning rate α (paper: 0.0498 ≈ e⁻³).
    pub alpha: f64,
    /// Discount factor γ (paper: 0.3679 ≈ e⁻¹).
    pub gamma: f64,
    /// Exploration rate ε (paper: 0.001).
    pub epsilon: f64,
    /// Reward values (paper Table II).
    pub rewards: RewardTable,
    /// Number of sampled sets feeding the Evaluation Queue.
    pub sampled_sets: usize,
    /// Entries per EQ FIFO (paper: 28; Table VII sweeps 12–36).
    pub eq_fifo_len: usize,
    /// Sub-tables per feature in the Q-table (paper: 4).
    pub sub_tables: usize,
    /// Entries per sub-table (paper: 2048).
    pub sub_table_entries: usize,
    /// Which features form the state.
    pub features: FeatureSelection,
    /// If false, the LLC-obstruction flag is ignored and the NOB reward
    /// values are always used — this is N-CHROME.
    pub concurrency_aware: bool,
    /// RNG seed for ε-greedy exploration.
    pub seed: u64,
}

impl Default for ChromeConfig {
    fn default() -> Self {
        ChromeConfig {
            alpha: 0.0498,
            gamma: 0.3679,
            epsilon: 0.001,
            rewards: RewardTable::default(),
            sampled_sets: 64,
            eq_fifo_len: 28,
            sub_tables: 4,
            sub_table_entries: 2048,
            features: FeatureSelection::PcAndPn,
            concurrency_aware: true,
            seed: 0xC42,
        }
    }
}

impl ChromeConfig {
    /// The N-CHROME ablation: identical workflow, no concurrency
    /// awareness (paper §VII-C).
    pub fn n_chrome() -> Self {
        ChromeConfig {
            concurrency_aware: false,
            ..Self::default()
        }
    }

    /// The configuration the experiment grid runs: the paper's Tables
    /// II and III, rescaled for runs of a few million instructions.
    /// Experiments sample 512 sets (vs the paper's 64) to compensate for
    /// runs ~20x shorter than 200M instructions, and the reward window
    /// must fit those runs too: at 200M instructions a 28-deep FIFO is
    /// ~2% of a sampled set's traffic, at single-digit-million scale it
    /// would swallow all of it, so it holds 8. Hardware budget tables
    /// (Table III/IV) still use [`ChromeConfig::default`].
    pub fn experiment() -> Self {
        ChromeConfig {
            sampled_sets: 512,
            eq_fifo_len: 8,
            ..Self::default()
        }
    }

    /// Optimistic initial Q-value, `1 / (1 − γ)` (paper §V-B).
    pub fn q_init(&self) -> f64 {
        1.0 / (1.0 - self.gamma)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_table_ii() {
        let c = ChromeConfig::default();
        assert!((c.alpha - 0.0498).abs() < 1e-9);
        assert!((c.gamma - 0.3679).abs() < 1e-9);
        assert!((c.epsilon - 0.001).abs() < 1e-9);
        assert_eq!(c.eq_fifo_len, 28);
        assert_eq!(c.sampled_sets, 64);
        assert_eq!(c.sub_tables, 4);
        assert_eq!(c.sub_table_entries, 2048);
        assert!(c.concurrency_aware);
    }

    #[test]
    fn q_init_is_discount_sum() {
        let c = ChromeConfig::default();
        assert!((c.q_init() - 1.0 / (1.0 - 0.3679)).abs() < 1e-12);
    }

    #[test]
    fn n_chrome_differs_only_in_awareness() {
        let c = ChromeConfig::n_chrome();
        assert!(!c.concurrency_aware);
        assert!((c.alpha - ChromeConfig::default().alpha).abs() < 1e-12);
    }

    #[test]
    fn experiment_rescales_sampling_and_window_only() {
        let (e, d) = (ChromeConfig::experiment(), ChromeConfig::default());
        assert_eq!((e.sampled_sets, e.eq_fifo_len), (512, 8));
        assert!((e.alpha - d.alpha).abs() < 1e-12 && (e.gamma - d.gamma).abs() < 1e-12);
        assert_eq!(e.sub_table_entries, d.sub_table_entries);
        assert!(e.concurrency_aware);
    }

    #[test]
    fn feature_counts() {
        assert_eq!(FeatureSelection::PcOnly.count(), 1);
        assert_eq!(FeatureSelection::PnOnly.count(), 1);
        assert_eq!(FeatureSelection::PcAndPn.count(), 2);
    }
}
