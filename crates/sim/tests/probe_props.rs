//! Randomized equivalence tests pinning the vectorized set-probe kernel
//! to its scalar reference, and the data-oriented cache hot paths to
//! naive models. Driven by the seeded in-repo RNG, so every run is
//! deterministic and reproducible from the printed case index.
//!
//! These are the safety net under the `probe::find_key` dispatch and
//! the recency ranks: the AVX2 kernel and the scalar kernel must agree
//! on *first-match* semantics for every layout — including layouts with
//! several invalid (zero) ways, where which zero wins decides the
//! replacement victim and therefore the entire downstream simulation —
//! and the rank-based caches must pick the victims stamp-based LRU
//! picks. The evaluation queue's `probe::key_masks` kernel must set
//! exactly its scalar reference's bits at every lane length.

use chrome_sim::cache::PrivateCache;
use chrome_sim::config::CacheConfig;
use chrome_sim::llc::{LlcOutcome, SharedLlc};
use chrome_sim::policy::{AccessInfo, BuiltinLru, SystemFeedback};
use chrome_sim::probe::{find_key, find_key_scalar, kernel_name, key_masks, key_masks_scalar};
use chrome_sim::rng::SmallRng;
use chrome_sim::types::LineAddr;

const CASES: usize = 256;

fn packed(line: u32) -> u32 {
    (line << 1) | 1
}

/// The dispatched kernel agrees with the scalar reference on random
/// layouts: random lengths (spanning the scalar/vector dispatch
/// threshold, vector-block boundaries and tails), duplicate keys, and
/// random zero (invalid-way) masking.
#[test]
fn dispatched_kernel_matches_scalar_on_random_layouts() {
    let mut rng = SmallRng::seed_from_u64(0x5EED_0001);
    println!("probe kernel under test: {}", kernel_name());
    for case in 0..CASES {
        let len = rng.gen_range(0..33usize);
        // A small line universe forces duplicates; zeroing ~1/3 of the
        // ways exercises the invalid-way search with multiple zeros.
        let mut keys: Vec<u32> = (0..len)
            .map(|_| packed(rng.gen_range(0u64..12) as u32))
            .collect();
        for k in keys.iter_mut() {
            if rng.gen_range(0..3u32) == 0 {
                *k = 0;
            }
        }
        // Probe for every present key, an absent key, and zero.
        let mut probes: Vec<u32> = keys.clone();
        probes.push(packed(999));
        probes.push(0);
        for key in probes {
            assert_eq!(
                find_key(&keys, key),
                find_key_scalar(&keys, key),
                "case {case}: len {len} key {key:#x} layout {keys:?}"
            );
        }
    }
}

/// The dispatched `u64` mask kernel agrees with its scalar reference on
/// every lane length from 0 to 130 (empty, below the length gate, one
/// full mask word, and ragged second and third words), with duplicate
/// keys from a small alphabet and stale bits in the mask buffer.
#[test]
fn key_mask_kernel_matches_scalar_on_every_length() {
    let mut rng = SmallRng::seed_from_u64(0x5EED_0005);
    for len in 0..=130usize {
        for case in 0..8 {
            let alphabet: u64 = [1, 3, 16][case % 3];
            let keys: Vec<u64> = (0..len)
                .map(|_| {
                    rng.gen_range(0..alphabet)
                        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                })
                .collect();
            let words = len.div_ceil(64);
            for key in (0..alphabet + 1).map(|k| k.wrapping_mul(0x9E37_79B9_7F4A_7C15)) {
                let mut got = vec![rng.next_u64(); words];
                let mut want = vec![rng.next_u64(); words];
                key_masks(&keys, key, &mut got);
                key_masks_scalar(&keys, key, &mut want);
                assert_eq!(got, want, "len {len} key {key:#x} layout {keys:x?}");
                let expected = keys.iter().filter(|&&k| k == key).count();
                let set: u32 = got.iter().map(|m| m.count_ones()).sum();
                assert_eq!(set as usize, expected, "len {len}: one bit per match");
            }
        }
    }
}

/// A naive always-scalar model of a set-associative LRU cache: lines
/// with a 64-bit timestamp, searched front to back.
struct NaiveCache {
    sets: usize,
    ways: usize,
    /// `(line, lru_stamp)` per way; `None` = invalid.
    blocks: Vec<Option<(u64, u64)>>,
    tick: u64,
}

impl NaiveCache {
    fn new(sets: usize, ways: usize) -> Self {
        NaiveCache {
            sets,
            ways,
            blocks: vec![None; sets * ways],
            tick: 0,
        }
    }

    fn set_of(&self, line: u64) -> usize {
        (line as usize) % self.sets
    }

    fn lookup(&mut self, line: u64) -> bool {
        let base = self.set_of(line) * self.ways;
        for w in 0..self.ways {
            if let Some((l, _)) = self.blocks[base + w] {
                if l == line {
                    self.tick += 1;
                    self.blocks[base + w] = Some((l, self.tick));
                    return true;
                }
            }
        }
        false
    }

    /// First invalid way, else first LRU-minimal way; returns the way
    /// and the evicted line if a valid block was replaced.
    fn fill(&mut self, line: u64) -> (usize, Option<u64>) {
        let base = self.set_of(line) * self.ways;
        let mut way = 0;
        let mut best = u64::MAX;
        let mut evicted = None;
        for w in 0..self.ways {
            match self.blocks[base + w] {
                None => {
                    way = w;
                    evicted = None;
                    break;
                }
                Some((_, stamp)) if stamp < best => {
                    best = stamp;
                    way = w;
                }
                Some(_) => {}
            }
        }
        if let Some((l, _)) = self.blocks[base + way] {
            evicted = Some(l);
        }
        self.tick += 1;
        self.blocks[base + way] = Some((line, self.tick));
        (way, evicted)
    }
}

/// The SoA cache (SIMD probes, recency-rank victims) is
/// trace-equivalent to the naive model: identical hit/miss outcomes,
/// identical victims and the same way filled, access for access, across
/// random geometries — among them Table V's 12-way L1D and 20-way L2
/// sets.
#[test]
fn private_cache_matches_naive_model() {
    let mut rng = SmallRng::seed_from_u64(0x5EED_0002);
    for case in 0..CASES {
        let (sets, ways) = match rng.gen_range(0..6u32) {
            0 => (2, 4),
            1 => (4, 8),
            2 => (8, 2),
            3 => (2, 16),
            4 => (4, 12),
            _ => (2, 20),
        };
        let cfg = CacheConfig {
            capacity: sets * ways * 64,
            ways,
            latency: 1,
            mshr_entries: 4,
        };
        let mut cache = PrivateCache::new(&cfg);
        let mut model = NaiveCache::new(sets, ways);
        let accesses = rng.gen_range(16..400usize);
        for a in 0..accesses {
            let line = rng.gen_range(0u64..(sets as u64 * ways as u64 * 3));
            let hit = cache.lookup(LineAddr(line), false, false).is_some();
            let model_hit = model.lookup(line);
            assert_eq!(hit, model_hit, "case {case}: access {a} line {line}");
            if !hit {
                let ev = cache.fill(LineAddr(line), false, false, a as u64);
                let (way, model_ev) = model.fill(line);
                assert_eq!(
                    ev.map(|e| e.line.0),
                    model_ev,
                    "case {case}: access {a} victim diverged"
                );
                assert_eq!(
                    cache.probe(LineAddr(line)),
                    Some(way),
                    "case {case}: access {a} fill way diverged"
                );
            }
        }
    }
}

/// The LLC under the built-in LRU (recency ranks in the policy, the
/// LLC's own first-invalid-way fill) is trace-equivalent to the naive
/// stamp-LRU model on 12- and 16-way sets: the same hit or miss, the
/// same way filled and the same victim on every access. Random stores
/// make some victims dirty; a dirty victim must come back as the
/// writeback, and every victim must be gone from the LLC.
#[test]
fn llc_builtin_lru_matches_naive_model() {
    let mut rng = SmallRng::seed_from_u64(0x5EED_0004);
    let feedback = SystemFeedback::new(1);
    for case in 0..CASES {
        let (sets, ways) = match rng.gen_range(0..3u32) {
            0 => (4, 12),
            1 => (2, 16),
            _ => (1, 12),
        };
        let cfg = CacheConfig {
            capacity: sets * ways * 64,
            ways,
            latency: 1,
            mshr_entries: 4,
        };
        let mut llc = SharedLlc::new(&cfg, 1, BuiltinLru::new());
        let mut model = NaiveCache::new(sets, ways);
        let mut dirty = std::collections::HashSet::new();
        let accesses = rng.gen_range(16..600usize);
        for a in 0..accesses {
            let line = rng.gen_range(0u64..(sets as u64 * ways as u64 * 3));
            let is_write = rng.gen_range(0..4u32) == 0;
            let info = AccessInfo {
                core: 0,
                pc: 0x400,
                line: LineAddr(line),
                is_prefetch: false,
                is_write,
                cycle: a as u64,
            };
            let outcome = llc.access(&info, &feedback);
            let model_hit = model.lookup(line);
            let what = format!("case {case}: {sets}x{ways} access {a} line {line}");
            match outcome {
                LlcOutcome::Hit { .. } => assert!(model_hit, "{what}: LLC hit, model missed"),
                LlcOutcome::Miss {
                    bypassed,
                    writeback,
                } => {
                    assert!(!model_hit, "{what}: LLC missed, model hit");
                    assert!(!bypassed, "{what}: LRU never bypasses");
                    let (way, victim) = model.fill(line);
                    assert_eq!(llc.probe(LineAddr(line)), Some(way), "{what}: fill way");
                    if let Some(v) = victim {
                        assert!(llc.probe(LineAddr(v)).is_none(), "{what}: victim {v}");
                    }
                    let dirty_victim = victim.filter(|v| dirty.remove(v));
                    assert_eq!(writeback.map(|l| l.0), dirty_victim, "{what}: writeback");
                }
            }
            if is_write {
                dirty.insert(line);
            }
        }
        assert_eq!(llc.occupancy(), model.blocks.iter().flatten().count());
    }
}

/// The LLC's `last_fill` fast path: `set_ready` right after a fill must
/// update the same block a later probe finds, whether the short-circuit
/// hits (ready recorded immediately after the fill) or misses (other
/// fills in between force the full set scan). The hit latency a demand
/// access observes is the proof either way.
#[test]
fn llc_last_fill_fast_path_is_transparent() {
    let mut rng = SmallRng::seed_from_u64(0x5EED_0003);
    let feedback = SystemFeedback::new(1);
    for case in 0..CASES / 4 {
        let cfg = CacheConfig {
            capacity: 4 * 8 * 64,
            ways: 8,
            latency: 10,
            mshr_entries: 16,
        };
        let mut llc = SharedLlc::new(&cfg, 1, BuiltinLru::new());
        let mut pending: Vec<(u64, u64)> = Vec::new();
        let mut cycle = 0u64;
        for a in 0..200u64 {
            cycle += rng.gen_range(1..50u64);
            let line = rng.gen_range(0u64..64);
            let info = AccessInfo {
                core: 0,
                line: LineAddr(line),
                pc: line,
                is_write: false,
                is_prefetch: false,
                cycle,
            };
            match llc.access(&info, &feedback) {
                LlcOutcome::Hit { ready } => {
                    if let Some(pos) = pending.iter().position(|&(l, _)| l == line) {
                        let (_, expect) = pending.remove(pos);
                        assert_eq!(
                            ready, expect,
                            "case {case}: access {a} line {line} ready diverged"
                        );
                    }
                }
                LlcOutcome::Miss { bypassed, .. } => {
                    assert!(!bypassed, "LRU never bypasses");
                    let ready = cycle + rng.gen_range(1..200u64);
                    // Sometimes record readiness immediately (last_fill
                    // short-circuit), sometimes after other misses have
                    // moved last_fill (full scan path).
                    llc.set_ready(LineAddr(line), ready);
                    pending.retain(|&(l, _)| l != line);
                    if llc.probe(LineAddr(line)).is_some() {
                        pending.push((line, ready));
                    }
                }
            }
            // Evictions invalidate pending ready expectations.
            pending.retain(|&(l, _)| llc.probe(LineAddr(l)).is_some());
        }
    }
}
