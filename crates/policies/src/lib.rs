//! # chrome-policies — baseline LLC management schemes
//!
//! The state-of-the-art schemes the paper compares CHROME against:
//!
//! * LRU — the classic Least-Recently-Used baseline, which is the
//!   simulator's own [`BuiltinLru`] (the policy slot dispatches to it
//!   statically),
//! * [`drrip`] — DRRIP (set-dueling SRRIP/BRRIP),
//! * [`ship`] — SHiP++ (signature-based hit prediction, prefetch-aware),
//! * [`pacman`] — PACMan (static prefetch-aware RRIP, paper §VIII),
//! * [`hawkeye`] — Hawkeye (learning from Belady's OPT via OPTgen),
//! * [`glider`] — Glider's online ISVM distillation,
//! * [`mockingjay`] — Mockingjay (fine-grained reuse-distance mimicry of
//!   OPT with replacement *and* bypassing),
//! * [`care`] — CARE (concurrency-aware lightweight management using
//!   C-AMAT feedback), reconstructed from its description in the CHROME
//!   paper.
//!
//! All schemes implement [`chrome_sim::LlcPolicy`] and can be
//! instantiated by name via [`build_policy`].
//!
//! These are the hardware-LLC baselines. Their serving-cache
//! counterparts (LRU/SLRU/LFU/LFUDA/GDSF over byte-budgeted shards)
//! live in `chrome-serve::heuristics`, behind that crate's per-shard
//! `ShardPolicy` trait — the eviction ideas carry over, the metadata
//! (sizes, miss costs, resident sets) does not.

pub mod care;
pub mod common;
pub mod drrip;
pub mod glider;
pub mod hawkeye;
pub mod mockingjay;
pub mod pacman;
pub mod ship;

use chrome_sim::policy::BuiltinLru;
use chrome_sim::LlcPolicy;

pub use care::Care;
pub use drrip::Drrip;
pub use glider::Glider;
pub use hawkeye::Hawkeye;
pub use mockingjay::Mockingjay;
pub use pacman::Pacman;
pub use ship::ShipPlusPlus;

/// Names of all baseline policies provided by this crate.
pub fn baseline_policies() -> &'static [&'static str] {
    &[
        "LRU",
        "DRRIP",
        "SHiP++",
        "PACMan",
        "Hawkeye",
        "Glider",
        "Mockingjay",
        "CARE",
    ]
}

/// Construct a baseline policy by name; `None` for unknown names.
///
/// ```
/// let p = chrome_policies::build_policy("Hawkeye").expect("known");
/// assert_eq!(p.name(), "Hawkeye");
/// ```
pub fn build_policy(name: &str) -> Option<Box<dyn LlcPolicy>> {
    Some(match name {
        "LRU" => Box::new(BuiltinLru::new()),
        "DRRIP" => Box::new(Drrip::new()),
        "SHiP++" => Box::new(ShipPlusPlus::new()),
        "PACMan" => Box::new(Pacman::new()),
        "Hawkeye" => Box::new(Hawkeye::new()),
        "Glider" => Box::new(Glider::new()),
        "Mockingjay" => Box::new(Mockingjay::new()),
        "CARE" => Box::new(Care::new()),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_baseline_builds_and_names_match() {
        for name in baseline_policies() {
            let p = build_policy(name).expect("builds");
            assert_eq!(p.name(), *name);
        }
    }

    #[test]
    fn unknown_policy_is_none() {
        assert!(build_policy("OPT").is_none());
    }
}
