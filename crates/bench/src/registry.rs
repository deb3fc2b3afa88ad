//! A unified policy registry covering the baselines and every CHROME
//! variant the experiments need.

use chrome_core::{Chrome, ChromeConfig, FeatureSelection};
use chrome_sim::policy::{BuiltinLru, PolicySlot};
use chrome_sim::LlcPolicy;

/// The scheme lineup of the paper's headline figures, in plot order.
pub fn all_schemes() -> &'static [&'static str] {
    &["LRU", "Hawkeye", "Glider", "Mockingjay", "CARE", "CHROME"]
}

/// Build a scheme as a [`PolicySlot`] for simulation runs. `"LRU"`
/// takes the slot's statically dispatched arm; every other name goes
/// through [`build_any_policy`].
pub fn build_any_slot(name: &str) -> Option<PolicySlot> {
    if name == "LRU" {
        return Some(PolicySlot::from(BuiltinLru::new()));
    }
    build_any_policy(name).map(PolicySlot::from)
}

/// Build any scheme by name. Beyond the baselines and `"CHROME"` /
/// `"N-CHROME"`, structured names configure CHROME variants:
///
/// * `"CHROME-pc"` / `"CHROME-pn"` — feature ablation (Fig. 15),
/// * `"CHROME-fifo=<n>"` — EQ FIFO size sweep (Table VII),
/// * `"CHROME-alpha=<x>"`, `"CHROME-gamma=<x>"`, `"CHROME-eps=<x>"` —
///   hyper-parameter sweeps (Fig. 16).
pub fn build_any_policy(name: &str) -> Option<Box<dyn LlcPolicy>> {
    if let Some(p) = chrome_policies::build_policy(name) {
        return Some(p);
    }
    let mut cfg = ChromeConfig::experiment();
    match name {
        "CHROME" => {}
        "N-CHROME" => cfg.concurrency_aware = false,
        "CHROME-pc" => cfg.features = FeatureSelection::PcOnly,
        "CHROME-pn" => cfg.features = FeatureSelection::PnOnly,
        // the other Table I feature candidates, for experimentation
        "CHROME-pcdelta" => cfg.features = FeatureSelection::PcAndDelta,
        "CHROME-pcseq" => cfg.features = FeatureSelection::PcSeqAndPn,
        "CHROME-pcoffset" => cfg.features = FeatureSelection::PcOffsetAndPn,
        _ => {
            let (key, value) = name.strip_prefix("CHROME-")?.split_once('=')?;
            match key {
                "fifo" => cfg.eq_fifo_len = value.parse().ok()?,
                "sets" => cfg.sampled_sets = value.parse().ok()?,
                "alpha" => cfg.alpha = value.parse().ok()?,
                "gamma" => cfg.gamma = value.parse().ok()?,
                "eps" => cfg.epsilon = value.parse().ok()?,
                _ => return None,
            }
        }
    }
    Some(Box::new(Chrome::new(cfg)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_schemes_build() {
        for s in all_schemes() {
            assert!(build_any_policy(s).is_some(), "{s}");
        }
        assert!(build_any_policy("N-CHROME").is_some());
        assert!(build_any_policy("SHiP++").is_some());
    }

    #[test]
    fn variant_names_parse() {
        assert_eq!(build_any_policy("CHROME-fifo=12").unwrap().name(), "CHROME");
        assert!(build_any_policy("CHROME-alpha=0.001").is_some());
        assert!(build_any_policy("CHROME-gamma=0.9").is_some());
        assert!(build_any_policy("CHROME-eps=0.01").is_some());
        assert!(build_any_policy("CHROME-pc").is_some());
        assert!(build_any_policy("CHROME-pn").is_some());
        assert!(build_any_policy("CHROME-pcdelta").is_some());
        assert!(build_any_policy("CHROME-pcseq").is_some());
        assert!(build_any_policy("CHROME-pcoffset").is_some());
        assert!(build_any_policy("CHROME-sets=1024").is_some());
        assert!(build_any_policy("DRRIP").is_some());
        assert!(build_any_policy("PACMan").is_some());
    }

    #[test]
    fn bad_variants_rejected() {
        assert!(build_any_policy("CHROME-fifo=abc").is_none());
        assert!(build_any_policy("CHROME-bogus=1").is_none());
        assert!(build_any_policy("nonsense").is_none());
    }
}
