//! The servebench measurement harness: drive N client threads against
//! one [`ServeCache`] and report hit ratio, latency percentiles and
//! throughput — byte-identically reproducible at any thread count.
//!
//! Determinism comes from three choices:
//!
//! 1. the request stream is **pre-generated** from a seed derived via
//!    [`chrome_exec::workload_seed`] (stream name + shard count), so
//!    thread scheduling can never perturb what is asked;
//! 2. requests are **partitioned by shard** and each worker thread
//!    owns a disjoint set of shards (`shard % threads == t`), so every
//!    shard sees its requests in exactly the generated order no matter
//!    how many workers exist;
//! 3. latencies are **virtual** (hit cost + key-derived backend cost),
//!    so percentiles are functions of the access pattern alone.
//!
//! Only wall-clock figures (`rps`, `wall_ms`) vary between runs; every
//! counter and percentile is a pure function of `(params, seed)`.

use std::time::Instant;

use chrome_exec::cli::Args;
use chrome_exec::workload_seed;

use crate::cache::{CacheStats, PolicyTiming, ServeCache, ServeConfig};
use crate::policy::PolicyKind;
use crate::stream::{Request, RequestStream, StreamKind};

/// One benchmark cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BenchParams {
    /// Policy under test.
    pub policy: PolicyKind,
    /// Request stream kind.
    pub stream: StreamKind,
    /// Client threads (clamped to at least 1).
    pub threads: usize,
    /// Total requests.
    pub requests: usize,
    /// Keys per tenant.
    pub keyspace: u64,
    /// Root seed (stream + per-shard RNG derivation).
    pub seed: u64,
    /// Shard count (power of two).
    pub shards: usize,
    /// Slots per shard.
    pub shard_slots: usize,
    /// Value-byte budget per shard.
    pub shard_bytes: u64,
    /// Time the policy's decision path (see
    /// [`ServeConfig::time_policy`]).
    pub time_policy: bool,
}

impl Default for BenchParams {
    fn default() -> Self {
        BenchParams {
            policy: PolicyKind::Chrome,
            stream: StreamKind::MixedTenant,
            threads: 8,
            requests: 200_000,
            keyspace: 20_000,
            seed: 0xC42,
            shards: 16,
            shard_slots: 512,
            shard_bytes: 256 * 1024,
            time_policy: false,
        }
    }
}

impl BenchParams {
    /// The `--quick` cell of `servebench` and `forensics serve`: a
    /// smaller stream on a smaller cache.
    pub fn quick() -> Self {
        BenchParams {
            requests: 30_000,
            keyspace: 5_000,
            shards: 8,
            shard_slots: 256,
            shard_bytes: 128 * 1024,
            ..BenchParams::default()
        }
    }

    /// Parse `flag` if it is a stream or cache-geometry flag, taking
    /// its value from `args`: `--stream`, `--requests`, `--keyspace`,
    /// `--seed`, `--shards`, `--shard-slots` or `--shard-bytes`. An
    /// unknown stream or a missing or malformed value is a usage error.
    /// Returns false for any other flag.
    pub fn flag(&mut self, flag: &str, args: &mut Args) -> bool {
        match flag {
            "--stream" => {
                let s = args.value(flag);
                self.stream = StreamKind::parse(&s)
                    .unwrap_or_else(|| args.bad(&format!("unknown stream {s}")));
            }
            "--requests" => self.requests = args.number(flag),
            "--keyspace" => self.keyspace = args.number(flag),
            "--seed" => self.seed = args.number(flag),
            "--shards" => self.shards = args.number(flag),
            "--shard-slots" => self.shard_slots = args.number(flag),
            "--shard-bytes" => self.shard_bytes = args.number(flag),
            _ => return false,
        }
        true
    }

    /// Exit 2 with the usage of `args` unless a cache can be built with
    /// this geometry: a power-of-two shard count and a nonzero keyspace,
    /// slot count and byte budget.
    pub fn check(&self, args: &Args) {
        if !self.shards.is_power_of_two() {
            args.bad(&format!(
                "--shards must be a power of two, got {}",
                self.shards
            ));
        }
        for (flag, v) in [
            ("--keyspace", self.keyspace),
            ("--shard-slots", self.shard_slots as u64),
            ("--shard-bytes", self.shard_bytes),
        ] {
            if v == 0 {
                args.bad(&format!("{flag} must be at least 1"));
            }
        }
    }

    fn serve_config(&self) -> ServeConfig {
        ServeConfig {
            policy: self.policy,
            shards: self.shards,
            shard_slots: self.shard_slots,
            shard_bytes: self.shard_bytes,
            seed: self.seed,
            time_policy: self.time_policy,
        }
    }
}

/// One cell's outcome.
#[derive(Debug, Clone, Copy)]
pub struct BenchResult {
    /// Policy name.
    pub policy: &'static str,
    /// Stream name.
    pub stream: &'static str,
    /// Worker threads used.
    pub threads: usize,
    /// Merged counters.
    pub stats: CacheStats,
    /// Virtual service-latency median (µs).
    pub p50_us: u32,
    /// Virtual service-latency 99th percentile (µs).
    pub p99_us: u32,
    /// Wall-clock duration (ms) — machine-dependent.
    pub wall_ms: f64,
    /// Requests per wall-clock second — machine-dependent.
    pub rps: f64,
    /// Decision-path timing, when [`BenchParams::time_policy`] was set.
    pub timing: Option<PolicyTiming>,
}

/// Run one benchmark cell.
pub fn run(p: &BenchParams) -> BenchResult {
    run_inner(p, None).0
}

/// Run one cell with per-decision audit recording on (bounded to
/// `audit_cap` records per shard), returning the merged binary audit
/// trail alongside the result. The blob is byte-identical at any
/// thread count.
pub fn run_audited(p: &BenchParams, audit_cap: usize) -> (BenchResult, Vec<u8>) {
    let (result, audit) = run_inner(p, Some(audit_cap));
    (result, audit.expect("audit requested"))
}

fn run_inner(p: &BenchParams, audit_cap: Option<usize>) -> (BenchResult, Option<Vec<u8>>) {
    // the stream seed depends on (stream, shards, seed) but NOT the
    // thread count: any -j produces the same requests
    let stream_seed = workload_seed(p.stream.name(), p.shards as u32, p.seed);
    let requests = RequestStream::generate(p.stream, p.requests, p.keyspace, stream_seed);
    let cache = ServeCache::new(&p.serve_config());
    if let Some(cap) = audit_cap {
        cache.enable_audit(cap);
    }

    // partition per shard, preserving stream order within each shard
    let mut by_shard: Vec<Vec<Request>> = (0..p.shards).map(|_| Vec::new()).collect();
    for r in &requests {
        by_shard[cache.shard_index(r.key)].push(*r);
    }

    let threads = p.threads.clamp(1, p.shards);
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for t in 0..threads {
            let cache = &cache;
            let by_shard = &by_shard;
            scope.spawn(move || {
                // each worker owns shards ≡ t (mod threads): disjoint
                // ownership keeps per-shard order equal at any -j
                for shard in (t..by_shard.len()).step_by(threads) {
                    for r in &by_shard[shard] {
                        cache.access(r);
                    }
                }
            });
        }
    });
    let wall = t0.elapsed().as_secs_f64().max(1e-9);

    let hist = cache.histogram();
    let result = BenchResult {
        policy: p.policy.name(),
        stream: p.stream.name(),
        threads,
        stats: cache.stats(),
        p50_us: hist.percentile(0.50),
        p99_us: hist.percentile(0.99),
        wall_ms: wall * 1e3,
        rps: p.requests as f64 / wall,
        timing: cache.timing(),
    };
    let audit = audit_cap.map(|_| cache.audit_bytes());
    (result, audit)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(policy: PolicyKind, stream: StreamKind, threads: usize) -> BenchParams {
        BenchParams {
            policy,
            stream,
            threads,
            requests: 20_000,
            keyspace: 4_000,
            shards: 8,
            shard_slots: 128,
            shard_bytes: 64 * 1024,
            ..BenchParams::default()
        }
    }

    #[test]
    fn counters_are_thread_count_invariant() {
        let base = run(&quick(PolicyKind::Chrome, StreamKind::MixedTenant, 1));
        for threads in [2, 8] {
            let r = run(&quick(PolicyKind::Chrome, StreamKind::MixedTenant, threads));
            assert_eq!(r.stats, base.stats, "threads={threads}");
            assert_eq!((r.p50_us, r.p99_us), (base.p50_us, base.p99_us));
        }
    }

    #[test]
    fn percentiles_order_sanely() {
        let r = run(&quick(PolicyKind::Lru, StreamKind::Zipf, 4));
        assert!(r.p50_us <= r.p99_us);
        assert!(r.stats.hit_ratio() > 0.0);
        assert_eq!(r.stats.errors, 0);
    }

    #[test]
    fn timing_is_collected_only_on_request() {
        let mut p = quick(PolicyKind::Chrome, StreamKind::Zipf, 1);
        assert!(run(&p).timing.is_none());
        p.time_policy = true;
        let timed = run(&p);
        let t = timed.timing.expect("timing requested");
        assert!(t.admit_calls > 0 && t.hit_calls > 0);
        assert!(t.total_ns() > 0);
        assert_eq!(
            t.admit_calls, timed.stats.misses,
            "admit runs on every miss"
        );
        assert_eq!(t.hit_calls, timed.stats.hits);
    }

    #[test]
    fn audited_run_matches_plain_and_parses() {
        let p = quick(PolicyKind::Chrome, StreamKind::MixedTenant, 4);
        let plain = run(&p);
        let (audited, blob) = run_audited(&p, 1 << 20);
        assert_eq!(plain.stats, audited.stats, "auditing must not perturb");
        let segs = chrome_telemetry::parse_audit(&blob).expect("audit blob parses");
        assert_eq!(segs.len(), p.shards, "one segment per shard");
        for (i, seg) in segs.iter().enumerate() {
            assert_eq!(seg.stream, i as u32, "segments in shard order");
        }
        let decisions: u64 = segs
            .iter()
            .flat_map(|s| &s.records)
            .filter(|r| matches!(r, chrome_telemetry::AuditRecord::Decision(_)))
            .count() as u64;
        assert_eq!(
            decisions, plain.stats.requests,
            "every request is one audited decision"
        );
    }
}
