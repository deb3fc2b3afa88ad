//! # chrome-core — the CHROME cache-management framework
//!
//! CHROME (HPCA 2024) is a concurrency-aware *holistic* last-level-cache
//! management framework driven by online reinforcement learning. It
//! unifies three classically separate mechanisms under one SARSA agent:
//!
//! * **replacement** — every cached block carries a 2-bit Eviction
//!   Priority Value (EPV); hits re-assign it, victims are the highest-EPV
//!   blocks;
//! * **bypassing** — on a miss the agent may decline to cache the
//!   incoming block entirely;
//! * **prefetch awareness** — demand and prefetch accesses carry
//!   distinct state signatures and earn distinct rewards.
//!
//! The agent observes a two-feature state (hashed PC signature +
//! physical page number), looks actions up in a feature-sliced,
//! sub-table-hashed [`qtable::QTable`], records recent actions in a
//! 64-FIFO [`eq::EvalQueue`], and assigns each action a reward that
//! folds in *system-level concurrency feedback*: whether the issuing
//! core is LLC-obstructed according to the C-AMAT model.
//!
//! # Example
//!
//! ```
//! use chrome_core::{Chrome, ChromeConfig};
//! use chrome_sim::{System, SimConfig};
//! use chrome_sim::trace::StridedSource;
//!
//! let cfg = SimConfig::small_test(1);
//! let traces = vec![Box::new(StridedSource::new(0, 64, 1 << 20, 2))
//!     as Box<dyn chrome_sim::trace::TraceSource>];
//! let policy = Box::new(Chrome::new(ChromeConfig::default()));
//! let mut sys = System::with_policy(cfg, traces, policy);
//! let results = sys.run(5_000, 500);
//! assert!(results.per_core[0].ipc() > 0.0);
//! ```

pub mod agent;
pub mod config;
pub mod engine;
pub mod env;
pub mod eq;
pub mod qtable;
pub mod rewards;

pub use agent::Chrome;
pub use config::{ChromeConfig, FeatureSelection};
pub use engine::{ChromeStats, EngineConfig, RlEngine};
pub use env::{Agent, Environment};
pub use rewards::RewardTable;

/// Build the paper's CHROME configuration.
pub fn chrome() -> Chrome {
    Chrome::new(ChromeConfig::default())
}

/// Build N-CHROME: the ablation without concurrency-aware feedback
/// (paper §VII-C).
pub fn n_chrome() -> Chrome {
    Chrome::new(ChromeConfig::n_chrome())
}
