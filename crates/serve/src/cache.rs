//! The concurrent in-memory KV cache: power-of-two sharding, per-shard
//! fine-grained locking, byte-budgeted segments, and a zero-copy read
//! path.
//!
//! A key maps to a shard by `mix64(key) & (shards − 1)`; each shard is
//! an independent `Mutex<Shard>` holding its own hash index, slot
//! arena, replacement policy and statistics, so threads touching
//! different shards never contend. Reads go through
//! [`ServeCache::get_with`]: the caller's closure runs against the
//! stored value bytes *in place* under the shard lock — no copy-out,
//! the serving-cache idiom for handing bytes to a response writer.
//!
//! Every shard also keeps a pressure window: when the last
//! `PRESSURE_WINDOW` requests evicted faster than any admission could
//! pay off, the shard flags itself as thrashing — the serving analog
//! of the paper's LLC-obstruction signal, consumed by the agent's
//! dead-block rewards.

use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

use chrome_exec::splitmix64;
use chrome_sim::mmu::PageHasher;
use chrome_sim::types::mix64;

use crate::policy::{PolicyKind, ShardPolicy, ShardPressure};
use crate::serve_agent::HIT_US;
use crate::stream::Request;

/// Requests per shard-pressure window.
const PRESSURE_WINDOW: u64 = 1024;

/// Latency histogram ceiling (µs); larger samples clamp into the top
/// bucket. Backend costs are < 1000 µs by construction.
const HIST_BUCKETS: usize = 1024;

/// Cache geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Replacement/admission policy per shard.
    pub policy: PolicyKind,
    /// Number of shards (must be a power of two).
    pub shards: usize,
    /// Slot arena size per shard.
    pub shard_slots: usize,
    /// Value-byte budget per shard.
    pub shard_bytes: u64,
    /// Root seed; per-shard streams derive from it.
    pub seed: u64,
    /// Measure wall time spent inside policy callbacks (admission,
    /// hit bookkeeping, victim selection, insert bookkeeping). Off by
    /// default: the `Instant` reads cost more than a heuristic's whole
    /// callback, so timing is opt-in for overhead studies only.
    pub time_policy: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            policy: PolicyKind::Chrome,
            shards: 16,
            shard_slots: 512,
            shard_bytes: 256 * 1024,
            seed: 0xC42,
            time_policy: false,
        }
    }
}

/// Wall time spent inside the replacement policy's callbacks, split by
/// callback, merged across shards. Only collected when
/// [`ServeConfig::time_policy`] is set; the numbers are
/// machine-dependent (unlike every counter in [`CacheStats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PolicyTiming {
    /// Nanoseconds inside `admit` (the decision path on every miss).
    pub admit_ns: u64,
    /// Calls to `admit`.
    pub admit_calls: u64,
    /// Nanoseconds inside `on_hit`.
    pub hit_ns: u64,
    /// Calls to `on_hit`.
    pub hit_calls: u64,
    /// Nanoseconds inside `choose_victim`.
    pub victim_ns: u64,
    /// Calls to `choose_victim`.
    pub victim_calls: u64,
    /// Nanoseconds inside `on_insert`.
    pub insert_ns: u64,
    /// Calls to `on_insert`.
    pub insert_calls: u64,
}

impl PolicyTiming {
    /// Fold another shard's timing into this one.
    pub fn merge(&mut self, other: &PolicyTiming) {
        self.admit_ns += other.admit_ns;
        self.admit_calls += other.admit_calls;
        self.hit_ns += other.hit_ns;
        self.hit_calls += other.hit_calls;
        self.victim_ns += other.victim_ns;
        self.victim_calls += other.victim_calls;
        self.insert_ns += other.insert_ns;
        self.insert_calls += other.insert_calls;
    }

    /// Total nanoseconds across all four callbacks.
    pub fn total_ns(&self) -> u64 {
        self.admit_ns + self.hit_ns + self.victim_ns + self.insert_ns
    }

    /// Mean nanoseconds per policy call (0 when nothing was timed).
    pub fn mean_ns(&self) -> f64 {
        let calls = self.admit_calls + self.hit_calls + self.victim_calls + self.insert_calls;
        if calls == 0 {
            0.0
        } else {
            self.total_ns() as f64 / calls as f64
        }
    }
}

/// Per-shard (and merged) operation counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Requests served.
    pub requests: u64,
    /// Requests answered from the cache.
    pub hits: u64,
    /// Requests that went to the backend.
    pub misses: u64,
    /// Missed objects admitted into the cache.
    pub admits: u64,
    /// Missed objects the policy refused to store.
    pub bypasses: u64,
    /// Objects evicted to make room.
    pub evictions: u64,
    /// Integrity failures on the read path (always 0 unless a policy
    /// corrupts the slot bookkeeping).
    pub errors: u64,
}

impl CacheStats {
    /// Fold another shard's counters into this one.
    pub fn merge(&mut self, other: &CacheStats) {
        self.requests += other.requests;
        self.hits += other.hits;
        self.misses += other.misses;
        self.admits += other.admits;
        self.bypasses += other.bypasses;
        self.evictions += other.evictions;
        self.errors += other.errors;
    }

    /// Hits per request.
    pub fn hit_ratio(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.hits as f64 / self.requests as f64
        }
    }
}

/// Fixed-bucket (1 µs) latency histogram; mergeable across shards so
/// percentiles are identical at any thread count.
#[derive(Debug, Clone)]
pub struct LatencyHist {
    buckets: Vec<u64>,
    count: u64,
}

impl Default for LatencyHist {
    fn default() -> Self {
        LatencyHist {
            buckets: vec![0; HIST_BUCKETS],
            count: 0,
        }
    }
}

impl LatencyHist {
    /// Record one sample (µs).
    pub fn record(&mut self, us: u32) {
        let b = (us as usize).min(HIST_BUCKETS - 1);
        self.buckets[b] += 1;
        self.count += 1;
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Fold another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHist) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
    }

    /// The `p`-quantile (0 < p ≤ 1) in µs; 0 when empty.
    pub fn percentile(&self, p: f64) -> u32 {
        if self.count == 0 {
            return 0;
        }
        let target = ((p * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0;
        for (us, n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                return us as u32;
            }
        }
        (HIST_BUCKETS - 1) as u32
    }
}

/// One stored object.
#[derive(Debug)]
struct Entry {
    key: u64,
    value: Vec<u8>,
}

/// Deterministic value bytes for `key`: an 8-byte key prefix (checked
/// on every hit) padded with a key-derived fill byte to the logical
/// object size.
fn make_value(req: &Request) -> Vec<u8> {
    let size = req.size() as usize;
    let mut v = vec![(mix64(req.key) & 0xFF) as u8; size];
    v[..8].copy_from_slice(&req.key.to_le_bytes());
    v
}

/// A shard's key → slot index. Keys hash with the Fx-style
/// [`PageHasher`] rather than SipHash: the map never holds more than
/// `shard_slots` keys and shards are already chosen by the unkeyed
/// `mix64`, so flood resistance would buy nothing here.
type SlotMap = HashMap<u64, u32, BuildHasherDefault<PageHasher>>;

/// One lock-striped cache segment.
struct Shard {
    map: SlotMap,
    entries: Vec<Option<Entry>>,
    free: Vec<u32>,
    policy: Box<dyn ShardPolicy>,
    bytes: u64,
    budget: u64,
    pressure: ShardPressure,
    window_requests: u64,
    window_evictions: u64,
    stats: CacheStats,
    hist: LatencyHist,
    timing: Option<PolicyTiming>,
}

impl Shard {
    fn new(slots: usize, budget: u64, policy: Box<dyn ShardPolicy>, timed: bool) -> Self {
        Shard {
            map: SlotMap::with_capacity_and_hasher(slots, Default::default()),
            entries: (0..slots).map(|_| None).collect(),
            free: (0..slots as u32).rev().collect(),
            policy,
            bytes: 0,
            budget,
            pressure: ShardPressure::default(),
            window_requests: 0,
            window_evictions: 0,
            stats: CacheStats::default(),
            hist: LatencyHist::default(),
            timing: timed.then(PolicyTiming::default),
        }
    }

    /// Start the clock for one policy callback, if timing is on.
    fn clock_start(&self) -> Option<Instant> {
        self.timing.is_some().then(Instant::now)
    }

    /// Charge an elapsed callback to `(ns, calls)` picked by `lane`.
    fn clock_stop(
        &mut self,
        t0: Option<Instant>,
        lane: fn(&mut PolicyTiming) -> (&mut u64, &mut u64),
    ) {
        if let (Some(t0), Some(timing)) = (t0, self.timing.as_mut()) {
            let (ns, calls) = lane(timing);
            *ns += t0.elapsed().as_nanos() as u64;
            *calls += 1;
        }
    }

    /// Roll the pressure window: at each boundary, the last window's
    /// eviction rate decides the thrashing flag for the next.
    fn tick(&mut self) {
        if self.window_requests >= PRESSURE_WINDOW {
            self.pressure.thrashing = self.window_evictions * 3 > self.window_requests;
            self.window_requests = 0;
            self.window_evictions = 0;
        }
        self.window_requests += 1;
    }

    fn evict_one(&mut self) {
        let t0 = self.clock_start();
        let victim = self.policy.choose_victim();
        self.clock_stop(t0, |t| (&mut t.victim_ns, &mut t.victim_calls));
        let entry = self.entries[victim as usize]
            .take()
            .expect("victim slot is resident");
        self.map.remove(&entry.key);
        self.bytes -= entry.value.len() as u64;
        self.free.push(victim);
        self.policy.on_remove(victim);
        self.stats.evictions += 1;
        self.window_evictions += 1;
    }

    fn insert(&mut self, req: &Request) {
        let size = u64::from(req.size());
        if size > self.budget {
            self.stats.bypasses += 1; // can never fit
            return;
        }
        while self.bytes + size > self.budget || self.free.is_empty() {
            self.evict_one();
        }
        let slot = self.free.pop().expect("freed above");
        let value = make_value(req);
        self.bytes += value.len() as u64;
        self.map.insert(req.key, slot);
        self.entries[slot as usize] = Some(Entry {
            key: req.key,
            value,
        });
        let t0 = self.clock_start();
        self.policy.on_insert(slot, req, &self.pressure);
        self.clock_stop(t0, |t| (&mut t.insert_ns, &mut t.insert_calls));
        self.stats.admits += 1;
    }

    /// The full request path; `Some` with the closure's result on a
    /// hit, `None` on a miss (after running admission).
    fn get_with<R>(&mut self, req: &Request, f: impl FnOnce(&[u8]) -> R) -> Option<R> {
        self.tick();
        self.stats.requests += 1;
        if let Some(&slot) = self.map.get(&req.key) {
            self.stats.hits += 1;
            self.hist.record(HIT_US);
            let t0 = self.clock_start();
            self.policy.on_hit(slot, req, &self.pressure);
            self.clock_stop(t0, |t| (&mut t.hit_ns, &mut t.hit_calls));
            let entry = self.entries[slot as usize]
                .as_ref()
                .expect("mapped slot is resident");
            if entry.value[..8] != req.key.to_le_bytes() {
                self.stats.errors += 1;
            }
            Some(f(&entry.value))
        } else {
            self.stats.misses += 1;
            self.hist.record(req.miss_cost_us());
            let t0 = self.clock_start();
            let admitted = self.policy.admit(req, &self.pressure);
            self.clock_stop(t0, |t| (&mut t.admit_ns, &mut t.admit_calls));
            if admitted {
                self.insert(req);
            } else {
                self.stats.bypasses += 1;
            }
            None
        }
    }
}

/// One shard behind its lock, on cache lines of its own. A bare
/// `Mutex<Shard>` is not a multiple of 64 bytes long, so in a `Vec` one
/// shard's lock word would share a line with its neighbour's request
/// counters, and clients serving different shards would pass that line
/// back and forth on every request. 128 bytes also keeps the
/// adjacent-line prefetcher from pairing two shards.
#[repr(align(128))]
struct ShardSlot(Mutex<Shard>);

impl ShardSlot {
    fn lock(&self) -> MutexGuard<'_, Shard> {
        self.0.lock().expect("shard lock poisoned")
    }
}

/// The sharded, lock-striped cache.
pub struct ServeCache {
    shards: Vec<ShardSlot>,
    mask: u64,
}

impl ServeCache {
    /// Build the shard array for `cfg`.
    ///
    /// # Panics
    ///
    /// Panics unless `cfg.shards` is a nonzero power of two and the
    /// per-shard geometry is nonzero.
    pub fn new(cfg: &ServeConfig) -> Self {
        assert!(
            cfg.shards.is_power_of_two(),
            "shard count must be a power of two for mask selection"
        );
        assert!(cfg.shard_slots > 0 && cfg.shard_bytes > 0, "empty shard");
        let shards = (0..cfg.shards)
            .map(|s| {
                let seed = splitmix64(cfg.seed ^ (s as u64));
                let policy = cfg.policy.build(cfg.shard_slots, seed);
                ShardSlot(Mutex::new(Shard::new(
                    cfg.shard_slots,
                    cfg.shard_bytes,
                    policy,
                    cfg.time_policy,
                )))
            })
            .collect();
        ServeCache {
            shards,
            mask: (cfg.shards - 1) as u64,
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard serving `key` (power-of-two mask over the mixed hash).
    pub fn shard_index(&self, key: u64) -> usize {
        (mix64(key) & self.mask) as usize
    }

    /// Zero-copy read path: on a hit, run `f` over the stored bytes in
    /// place under the shard lock and return its result; on a miss,
    /// run the admission/eviction path and return `None`.
    pub fn get_with<R>(&self, req: &Request, f: impl FnOnce(&[u8]) -> R) -> Option<R> {
        self.shards[self.shard_index(req.key)]
            .lock()
            .get_with(req, f)
    }

    /// Serve one request, touching the value on a hit. Returns true on
    /// a hit.
    pub fn access(&self, req: &Request) -> bool {
        self.get_with(req, |bytes| {
            debug_assert!(!bytes.is_empty());
        })
        .is_some()
    }

    /// Counters merged across shards.
    pub fn stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for s in &self.shards {
            total.merge(&s.lock().stats);
        }
        total
    }

    /// Latency histogram merged across shards.
    pub fn histogram(&self) -> LatencyHist {
        let mut total = LatencyHist::default();
        for s in &self.shards {
            total.merge(&s.lock().hist);
        }
        total
    }

    /// Value bytes currently resident, across shards.
    pub fn resident_bytes(&self) -> u64 {
        self.shards.iter().map(|s| s.lock().bytes).sum()
    }

    /// Turn on per-decision audit recording in every shard, each shard
    /// tagged as its own stream and bounded to `cap` records. Returns
    /// the number of shards whose policy supports auditing (0 for
    /// heuristics).
    pub fn enable_audit(&self, cap: usize) -> usize {
        let mut enabled = 0;
        for (i, s) in self.shards.iter().enumerate() {
            let mut shard = s.lock();
            if shard.policy.enable_audit(i as u32, cap) {
                enabled += 1;
            }
        }
        enabled
    }

    /// The audit trail as one binary blob: each shard's segment in
    /// shard-index order. Since requests are routed to shards by a
    /// pure key hash and each shard is single-writer, the blob is
    /// byte-identical at any thread count.
    pub fn audit_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        for s in &self.shards {
            let shard = s.lock();
            if let Some(log) = shard.policy.audit() {
                out.extend_from_slice(&log.to_bytes());
            }
        }
        out
    }

    /// Policy-callback timing merged across shards; `None` unless the
    /// cache was built with [`ServeConfig::time_policy`].
    pub fn timing(&self) -> Option<PolicyTiming> {
        let mut total: Option<PolicyTiming> = None;
        for s in &self.shards {
            let shard = s.lock();
            if let Some(t) = shard.timing.as_ref() {
                total.get_or_insert_with(PolicyTiming::default).merge(t);
            }
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::{RequestStream, StreamKind};

    fn small(policy: PolicyKind) -> ServeCache {
        ServeCache::new(&ServeConfig {
            policy,
            shards: 4,
            shard_slots: 32,
            shard_bytes: 32 * 1024,
            seed: 7,
            time_policy: false,
        })
    }

    fn req(key: u64) -> Request {
        Request { key, tenant: 0 }
    }

    #[test]
    fn second_touch_hits_with_intact_bytes() {
        let cache = small(PolicyKind::Lru);
        assert!(!cache.access(&req(42)));
        let got = cache.get_with(&req(42), |bytes| {
            (
                bytes.len(),
                u64::from_le_bytes(bytes[..8].try_into().unwrap()),
            )
        });
        let (len, key) = got.expect("second touch hits");
        assert_eq!(key, 42);
        assert_eq!(len, req(42).size() as usize);
        assert_eq!(cache.stats().errors, 0);
    }

    #[test]
    fn byte_budget_caps_residency() {
        let cache = small(PolicyKind::Lru);
        for k in 0..10_000 {
            cache.access(&req(k));
        }
        assert!(cache.resident_bytes() <= 4 * 32 * 1024);
        let stats = cache.stats();
        assert!(stats.evictions > 0, "budget forced evictions");
        assert_eq!(stats.requests, 10_000);
        assert_eq!(stats.hits + stats.misses, stats.requests);
        assert_eq!(stats.admits, stats.misses, "LRU admits every miss");
    }

    #[test]
    fn keys_spread_across_shards() {
        let cache = small(PolicyKind::Lru);
        let mut seen = [false; 4];
        for k in 0..64 {
            seen[cache.shard_index(k)] = true;
        }
        assert_eq!(seen, [true; 4]);
    }

    #[test]
    fn every_policy_survives_a_zipf_run() {
        for policy in PolicyKind::all() {
            let cache = small(policy);
            for r in RequestStream::generate(StreamKind::Zipf, 20_000, 2_000, 11) {
                cache.access(&r);
            }
            let stats = cache.stats();
            assert_eq!(stats.errors, 0, "{}", policy.name());
            assert!(
                stats.hit_ratio() > 0.2,
                "{}: hit ratio {:.3}",
                policy.name(),
                stats.hit_ratio()
            );
            assert_eq!(
                stats.admits + stats.bypasses,
                stats.misses,
                "{}: every miss either admits or bypasses",
                policy.name()
            );
        }
    }

    #[test]
    fn chrome_cache_exports_decision_events() {
        let cache = small(PolicyKind::Chrome);
        assert_eq!(cache.enable_audit(1 << 16), 4, "every shard audits");
        let requests = RequestStream::generate(StreamKind::Zipf, 5_000, 500, 3);
        for r in &requests {
            cache.access(r);
        }
        let segs = chrome_telemetry::parse_audit(&cache.audit_bytes()).expect("blob parses");
        assert_eq!(segs.len(), 4, "one segment per shard");
        let decisions = segs
            .iter()
            .flat_map(|s| &s.records)
            .filter(|r| matches!(r, chrome_telemetry::AuditRecord::Decision(_)))
            .count();
        assert_eq!(decisions, requests.len(), "one decision per request");
        let lru = small(PolicyKind::Lru);
        assert_eq!(lru.enable_audit(1 << 16), 0, "heuristics make no decisions");
        lru.access(&req(1));
        assert!(lru.audit_bytes().is_empty());
    }

    #[test]
    fn pressure_window_flags_thrashing_scans() {
        // a pure scan over a tiny shard evicts on ~every insert
        let cache = ServeCache::new(&ServeConfig {
            policy: PolicyKind::Lru,
            shards: 1,
            shard_slots: 16,
            shard_bytes: 16 * 1024,
            seed: 1,
            time_policy: false,
        });
        for r in RequestStream::generate(StreamKind::Scan, 3 * PRESSURE_WINDOW as usize, 1 << 20, 5)
        {
            cache.access(&r);
        }
        let shard = cache.shards[0].lock();
        assert!(shard.pressure.thrashing, "scan storm must flag thrashing");
    }

    /// The 64-byte lines holding a shard's lock word and the counters
    /// every request writes.
    fn hot_lines(slot: &ShardSlot) -> Vec<usize> {
        fn span<T>(field: &T) -> std::ops::Range<usize> {
            let at = field as *const T as usize;
            at..at + std::mem::size_of::<T>()
        }
        let shard = slot.lock();
        // The mutex's own state (lock word, poison flag) precedes the
        // data it guards.
        let lock = &slot.0 as *const Mutex<Shard> as usize..&*shard as *const Shard as usize;
        let counters = [
            span(&shard.stats),
            span(&shard.window_requests),
            span(&shard.window_evictions),
            span(&shard.hist.count),
        ];
        let mut lines: Vec<usize> = std::iter::once(lock)
            .chain(counters)
            .flat_map(|r| r.start / 64..=(r.end - 1) / 64)
            .collect();
        lines.sort_unstable();
        lines.dedup();
        lines
    }

    #[test]
    fn adjacent_shards_share_no_cache_line() {
        let cache = ServeCache::new(&ServeConfig::default());
        for (i, pair) in cache.shards.windows(2).enumerate() {
            let (a, b) = (hot_lines(&pair[0]), hot_lines(&pair[1]));
            assert!(
                a.iter().all(|line| !b.contains(line)),
                "shards {i} and {} share a line: {a:?} / {b:?}",
                i + 1
            );
        }
    }
}
