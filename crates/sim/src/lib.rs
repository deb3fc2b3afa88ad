//! # chrome-sim — simulation substrate for the CHROME reproduction
//!
//! A cycle-approximate, trace-driven, multi-core cache-hierarchy simulator
//! in the spirit of ChampSim, built as the evaluation substrate for the
//! CHROME cache-management framework (HPCA 2024).
//!
//! The simulator models:
//!
//! * per-core trace-driven front ends with a reorder-buffer-limited
//!   out-of-order timing model ([`core_model`]),
//! * private L1D and L2 caches with LRU replacement and MSHRs ([`cache`]),
//! * a shared last-level cache with a pluggable management policy
//!   ([`llc`], [`policy::LlcPolicy`]),
//! * a DDR4-style DRAM timing model with channels, ranks, banks and a
//!   row buffer ([`dram`]),
//! * multi-level hardware prefetchers ([`prefetch`]),
//! * C-AMAT (Concurrent Average Memory Access Time) instrumentation and
//!   the LLC-obstruction detector that CHROME and CARE consume
//!   ([`camat`]).
//!
//! # Example
//!
//! ```
//! use chrome_sim::{System, SimConfig, trace::StridedSource};
//!
//! let cfg = SimConfig::with_cores(1);
//! let traces = vec![Box::new(StridedSource::new(0x1000_0000, 64, 1 << 20, 3))
//!     as Box<dyn chrome_sim::trace::TraceSource>];
//! let mut sys = System::new(cfg, traces);
//! let results = sys.run(10_000, 1_000);
//! assert!(results.per_core[0].ipc() > 0.0);
//! ```

pub mod cache;
pub mod camat;
pub mod config;
pub mod core_model;
pub mod dram;
pub mod llc;
pub mod lru;
pub mod mmu;
pub mod mshr;
pub mod overhead;
pub mod policy;
pub mod prefetch;
pub mod probe;
pub mod rng;
pub mod stats;
pub mod system;
pub mod trace;
pub mod types;

pub use config::{PrefetcherConfig, PrefetcherKind, SimConfig};
pub use policy::{AccessInfo, CandidateLine, FillDecision, LlcPolicy, SystemFeedback};
pub use stats::{CacheStats, CoreStats, SimResults};
pub use system::{FunctionalProfile, Kernel, SampledInterval, System};
pub use types::{AccessKind, LineAddr, TraceRecord};
