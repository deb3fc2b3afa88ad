//! Infrastructure shared by the baseline policies: RRPV arrays, PC
//! signatures, OPTgen (Belady-oracle reconstruction over sampled sets),
//! and a sampled reuse-distance cache.

use std::collections::HashMap;

use chrome_sim::policy::CandidateLine;
use chrome_sim::types::mix64;

/// A per-block Re-Reference Prediction Value array with RRIP-style aging.
#[derive(Debug, Clone)]
pub struct RrpvArray {
    vals: Vec<u8>,
    ways: usize,
    max: u8,
}

impl RrpvArray {
    /// An array for `num_sets × ways` blocks with RRPVs in `0..=max`.
    ///
    /// # Panics
    ///
    /// Panics if `max == 0`.
    pub fn new(num_sets: usize, ways: usize, max: u8) -> Self {
        assert!(max > 0, "max RRPV must be positive");
        RrpvArray {
            vals: vec![max; num_sets * ways],
            ways,
            max,
        }
    }

    /// Maximum (most-distant) RRPV.
    pub fn max(&self) -> u8 {
        self.max
    }

    /// Read a block's RRPV.
    pub fn get(&self, set: usize, way: usize) -> u8 {
        self.vals[set * self.ways + way]
    }

    /// Write a block's RRPV (clamped to `max`).
    pub fn set(&mut self, set: usize, way: usize, v: u8) {
        self.vals[set * self.ways + way] = v.min(self.max);
    }

    /// SRRIP victim selection among `candidates`: pick a block at max
    /// RRPV, aging the whole set until one exists. Returns the way.
    ///
    /// # Panics
    ///
    /// Panics if `candidates` is empty.
    pub fn victim(&mut self, set: usize, candidates: &[CandidateLine]) -> usize {
        assert!(!candidates.is_empty(), "victim needs candidates");
        loop {
            if let Some(c) = candidates.iter().find(|c| self.get(set, c.way) >= self.max) {
                return c.way;
            }
            for c in candidates {
                let i = set * self.ways + c.way;
                self.vals[i] = (self.vals[i] + 1).min(self.max);
            }
        }
    }
}

/// Hash a PC into a `bits`-wide signature, optionally folding in the
/// prefetch flag and core id (paper §IV-A).
#[inline]
pub fn pc_signature(pc: u64, is_prefetch: bool, core: usize, bits: u32) -> u64 {
    let mixed = mix64(pc ^ ((is_prefetch as u64) << 61) ^ ((core as u64) << 53));
    mixed & ((1 << bits) - 1)
}

/// The outcome OPTgen reports for a re-accessed line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OptOutcome {
    /// Would Belady's OPT have kept this line (a hit under OPT)?
    pub opt_hit: bool,
    /// The payload stored at the previous access (e.g. the PC signature
    /// that loaded the line) — the entity to train.
    pub payload: u64,
}

/// OPTgen (Jain & Lin, ISCA'16): reconstructs Belady-OPT hit/miss
/// outcomes for one sampled set using an occupancy vector over a sliding
/// window of set accesses.
#[derive(Debug, Clone)]
pub struct OptGen {
    occupancy: Vec<u8>,
    capacity: u8,
    time: u64,
    window: u64,
    last_access: HashMap<u64, (u64, u64)>, // line -> (time, payload)
}

impl OptGen {
    /// OPTgen for a set of `ways` blocks, with an observation window of
    /// `8 × ways` set-accesses (the Hawkeye configuration).
    pub fn new(ways: usize) -> Self {
        let window = (8 * ways) as u64;
        OptGen {
            occupancy: vec![0; window as usize],
            capacity: ways as u8,
            time: 0,
            window,
            last_access: HashMap::new(),
        }
    }

    /// Record an access to `line` carrying `payload`; if the line was
    /// accessed within the window, returns the OPT outcome for the
    /// *previous* access.
    pub fn access(&mut self, line: u64, payload: u64) -> Option<OptOutcome> {
        let now = self.time;
        self.time += 1;
        // the slot for `now` starts a fresh quantum
        let idx = (now % self.window) as usize;
        self.occupancy[idx] = 0;
        // bound the history map: entries older than the window can never
        // produce a decidable outcome
        if self.last_access.len() > 4096 {
            let window = self.window;
            self.last_access.retain(|_, &mut (t, _)| now - t < window);
        }
        let prev = self.last_access.insert(line, (now, payload));
        let (prev_time, prev_payload) = prev?;
        if now - prev_time >= self.window {
            // too old to decide: treat as an OPT miss for training
            return Some(OptOutcome {
                opt_hit: false,
                payload: prev_payload,
            });
        }
        // OPT keeps the line iff every quantum in [prev_time, now) has
        // spare capacity.
        let fits =
            (prev_time..now).all(|t| self.occupancy[(t % self.window) as usize] < self.capacity);
        if fits {
            for t in prev_time..now {
                self.occupancy[(t % self.window) as usize] += 1;
            }
        }
        Some(OptOutcome {
            opt_hit: fits,
            payload: prev_payload,
        })
    }

    /// Accesses observed so far.
    pub fn time(&self) -> u64 {
        self.time
    }
}

/// A saturating counter table indexed by signature (e.g. Hawkeye's
/// PC-based predictor or SHiP's SHCT).
#[derive(Debug, Clone)]
pub struct CounterTable {
    counters: Vec<u8>,
    max: u8,
}

impl CounterTable {
    /// `entries` counters saturating at `max`, initialized to the
    /// weakly-positive midpoint.
    ///
    /// # Panics
    ///
    /// Panics if `entries == 0`.
    pub fn new(entries: usize, max: u8) -> Self {
        assert!(entries > 0, "need at least one counter");
        CounterTable {
            counters: vec![max / 2 + 1; entries],
            max,
        }
    }

    #[inline]
    fn idx(&self, sig: u64) -> usize {
        (sig % self.counters.len() as u64) as usize
    }

    /// Increment the counter for `sig`.
    pub fn bump_up(&mut self, sig: u64) {
        let i = self.idx(sig);
        self.counters[i] = (self.counters[i] + 1).min(self.max);
    }

    /// Decrement the counter for `sig`.
    pub fn bump_down(&mut self, sig: u64) {
        let i = self.idx(sig);
        self.counters[i] = self.counters[i].saturating_sub(1);
    }

    /// Read the counter for `sig`.
    pub fn get(&self, sig: u64) -> u8 {
        self.counters[self.idx(sig)]
    }

    /// True when the counter is in the upper half of its range.
    pub fn is_positive(&self, sig: u64) -> bool {
        self.get(sig) > self.max / 2
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.counters.len()
    }

    /// Always false (the constructor requires at least one entry).
    pub fn is_empty(&self) -> bool {
        false
    }
}

/// A sampled reuse-distance monitor (Mockingjay-style): for each sampled
/// set it remembers recent lines and reports the measured reuse distance
/// (in set-accesses) when a line returns.
#[derive(Debug, Clone)]
pub struct ReuseSampler {
    entries: HashMap<u64, (u64, u64)>, // line -> (time, payload)
    pending_unreused: Vec<u64>,
    time: u64,
    capacity: usize,
}

impl ReuseSampler {
    /// Monitor remembering up to `capacity` lines.
    pub fn new(capacity: usize) -> Self {
        ReuseSampler {
            entries: HashMap::new(),
            pending_unreused: Vec::new(),
            time: 0,
            capacity,
        }
    }

    /// Record an access; returns `(measured_reuse_distance, payload)` of
    /// the previous access if the line was being tracked.
    pub fn access(&mut self, line: u64, payload: u64) -> Option<(u64, u64)> {
        let now = self.time;
        self.time += 1;
        let prev = self.entries.insert(line, (now, payload));
        if self.entries.len() > self.capacity {
            // evict the stalest entry (linear scan: capacity is small);
            // it was never reused while monitored, so report it via
            // `expire`
            if let Some((&old_line, _)) = self.entries.iter().min_by_key(|&(_, &(t, _))| t) {
                if let Some((_, p)) = self.entries.remove(&old_line) {
                    self.pending_unreused.push(p);
                }
            }
        }
        prev.map(|(t, p)| (now - t, p))
    }

    /// Remove and return the payloads of lines that left the monitor
    /// without being reused: entries older than `max_age` set-accesses
    /// plus entries displaced by capacity pressure.
    pub fn expire(&mut self, max_age: u64) -> Vec<u64> {
        let now = self.time;
        let stale: Vec<u64> = self
            .entries
            .iter()
            .filter(|&(_, &(t, _))| now - t > max_age)
            .map(|(&l, _)| l)
            .collect();
        let mut out: Vec<u64> = stale
            .into_iter()
            .filter_map(|l| self.entries.remove(&l).map(|(_, p)| p))
            .collect();
        out.append(&mut self.pending_unreused);
        out
    }

    /// Current logical time (accesses observed).
    pub fn time(&self) -> u64 {
        self.time
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chrome_sim::types::LineAddr;

    fn cands(n: usize) -> Vec<CandidateLine> {
        (0..n)
            .map(|w| CandidateLine {
                way: w,
                line: LineAddr(w as u64),
                prefetch: false,
                dirty: false,
            })
            .collect()
    }

    #[test]
    fn rrpv_victim_prefers_max() {
        let mut r = RrpvArray::new(1, 4, 3);
        r.set(0, 0, 0);
        r.set(0, 1, 3);
        r.set(0, 2, 1);
        r.set(0, 3, 2);
        assert_eq!(r.victim(0, &cands(4)), 1);
    }

    #[test]
    fn rrpv_ages_until_victim_found() {
        let mut r = RrpvArray::new(1, 2, 3);
        r.set(0, 0, 0);
        r.set(0, 1, 1);
        assert_eq!(r.victim(0, &cands(2)), 1);
        // way 0 aged from 0 to 2
        assert_eq!(r.get(0, 0), 2);
    }

    #[test]
    fn rrpv_set_clamps() {
        let mut r = RrpvArray::new(1, 1, 3);
        r.set(0, 0, 250);
        assert_eq!(r.get(0, 0), 3);
    }

    #[test]
    fn pc_signature_distinguishes_prefetch_and_core() {
        let a = pc_signature(0x400, false, 0, 13);
        let b = pc_signature(0x400, true, 0, 13);
        let c = pc_signature(0x400, false, 1, 13);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert!(a < (1 << 13));
    }

    #[test]
    fn optgen_small_set_is_opt_hit() {
        let mut g = OptGen::new(4);
        // two lines alternating in a 4-way set: OPT always hits
        for i in 0..20 {
            let out = g.access(i % 2, 7);
            if i >= 2 {
                let o = out.expect("seen before");
                assert!(o.opt_hit, "iteration {i}");
                assert_eq!(o.payload, 7);
            }
        }
    }

    #[test]
    fn optgen_thrash_is_opt_miss_for_far_reuse() {
        let mut g = OptGen::new(2);
        // cycle over 8 lines in a 2-way set: reuse distance 8 > capacity,
        // OPT cannot keep them all
        let mut hits = 0;
        let mut misses = 0;
        for i in 0..64 {
            if let Some(o) = g.access(i % 8, 0) {
                if o.opt_hit {
                    hits += 1;
                } else {
                    misses += 1;
                }
            }
        }
        assert!(misses > hits, "hits={hits} misses={misses}");
        // OPT keeps exactly capacity-worth: some hits survive
        assert!(hits > 0);
    }

    #[test]
    fn optgen_first_access_is_none() {
        let mut g = OptGen::new(4);
        assert!(g.access(42, 0).is_none());
    }

    #[test]
    fn counter_table_saturates() {
        let mut t = CounterTable::new(16, 7);
        for _ in 0..20 {
            t.bump_up(3);
        }
        assert_eq!(t.get(3), 7);
        for _ in 0..20 {
            t.bump_down(3);
        }
        assert_eq!(t.get(3), 0);
        assert!(!t.is_positive(3));
    }

    #[test]
    fn reuse_sampler_measures_distance() {
        let mut s = ReuseSampler::new(8);
        assert!(s.access(1, 11).is_none());
        s.access(2, 0);
        s.access(3, 0);
        let (rd, payload) = s.access(1, 12).expect("tracked");
        assert_eq!(rd, 3);
        assert_eq!(payload, 11);
    }

    #[test]
    fn reuse_sampler_bounds_capacity() {
        let mut s = ReuseSampler::new(4);
        for i in 0..100 {
            s.access(i, 0);
        }
        // capacity is enforced approximately (one eviction per access)
        assert!(s.time() == 100);
        let tracked = s.access(99, 0);
        assert!(tracked.is_some(), "recent line should still be tracked");
    }

    #[test]
    fn reuse_sampler_expire_returns_payloads() {
        let mut s = ReuseSampler::new(16);
        s.access(1, 77);
        for i in 10..30 {
            s.access(i, 0);
        }
        let expired = s.expire(10);
        assert!(expired.contains(&77));
    }
}
