//! # chrome-serve — CHROME as the brain of a concurrent KV cache
//!
//! The paper trains its agent against a simulated LLC; this crate
//! points the *same* SARSA engine ([`chrome_core::RlEngine`], via the
//! [`chrome_core::Environment`] abstraction) at a software serving
//! cache: a lock-striped, sharded, byte-budgeted in-memory KV store of
//! the kind that fronts a CDN or database. The agent decides admission
//! (bypass vs. insert-at-EPV) on every miss and re-assigns eviction
//! priorities on every hit, rewarded by observed hit/miss latency
//! deltas instead of C-AMAT.
//!
//! Layering, bottom-up:
//!
//! * [`stream`] — deterministic CDN-style request generators (zipf,
//!   scan, churn, mixed-tenant);
//! * [`policy`] — the per-shard [`policy::ShardPolicy`] interface and
//!   the intrusive [`policy::DList`] shared by all policies;
//! * [`heuristics`] — the baselines: LRU, SLRU, LFU, LFUDA, GDSF;
//! * [`serve_agent`] — CHROME bound to the serving environment;
//! * [`cache`] — the sharded [`cache::ServeCache`] with its zero-copy
//!   `get_with` read path;
//! * [`bench`] — the multi-threaded measurement harness behind the
//!   `servebench` binary, byte-reproducible at any thread count.

pub mod bench;
pub mod cache;
pub mod heuristics;
pub mod policy;
pub mod serve_agent;
pub mod stream;

pub use bench::{run, run_audited, BenchParams, BenchResult};
pub use cache::{CacheStats, LatencyHist, PolicyTiming, ServeCache, ServeConfig};
pub use policy::{PolicyKind, ShardPolicy, ShardPressure};
pub use serve_agent::ChromeServePolicy;
pub use stream::{Request, RequestStream, StreamKind};
