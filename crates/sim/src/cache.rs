//! Private set-associative caches (L1D, L2) with LRU replacement.

use crate::config::CacheConfig;
use crate::lru::{new_ranks, touch};
use crate::mshr::MshrFile;
use crate::probe::{find_key, key_of, line_of};
use crate::stats::CacheStats;
use crate::types::LineAddr;

/// `flags` bit: the block is dirty.
const DIRTY: u8 = 1;
/// `flags` bit: a prefetch filled the block and no demand access has
/// hit it since.
const PREFETCH: u8 = 2;

/// A block evicted from a cache, reported to the caller so writebacks can
/// be propagated down the hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Evicted {
    /// Line address of the victim.
    pub line: LineAddr,
    /// True if the victim was dirty (a writeback is required).
    pub dirty: bool,
}

/// A private, write-back, write-allocate cache with true-LRU replacement.
///
/// Used for the L1D and L2 levels; the shared LLC lives in
/// [`crate::llc::SharedLlc`] because it needs a pluggable policy.
#[derive(Debug)]
pub struct PrivateCache {
    sets: usize,
    /// `sets - 1`; set indexing is a bitmask (sets is asserted to be a
    /// power of two at construction) so the demand path never pays a
    /// 64-bit modulo.
    set_mask: u64,
    ways: usize,
    /// Access latency in cycles.
    pub latency: u64,
    /// Packed tag+valid per way (see [`crate::probe::key_of`]), `0` =
    /// invalid way. One array scanned per lookup instead of a tag array
    /// plus a valid array — the L1 lookup runs once per memory access.
    keys: Vec<u32>,
    /// [`DIRTY`] and [`PREFETCH`] bits per way.
    flags: Vec<u8>,
    /// Cycle at which each block's data arrives (fills are recorded
    /// eagerly; a hit before this time waits for the in-flight data).
    ready: Vec<u64>,
    /// Recency rank per way (see [`crate::lru::new_ranks`]). The victim
    /// is the way ranked `ways - 1`: the first invalid way while the set
    /// has one, the least recently used way once it is full.
    rank: Vec<u8>,
    /// Outstanding-miss tracking for this level.
    pub mshr: MshrFile,
    /// Counters for this cache.
    pub stats: CacheStats,
}

impl PrivateCache {
    /// Build a cache from a [`CacheConfig`].
    ///
    /// # Panics
    ///
    /// Panics if the configuration implies zero sets or zero ways, more
    /// than 256 ways, or if the set count is not a power of two (bitmask
    /// indexing).
    pub fn new(cfg: &CacheConfig) -> Self {
        let sets = cfg.sets();
        assert!(sets > 0 && cfg.ways > 0, "degenerate cache geometry");
        assert!(
            sets.is_power_of_two(),
            "cache set count must be a power of two (got {sets})"
        );
        let n = sets * cfg.ways;
        PrivateCache {
            sets,
            set_mask: sets as u64 - 1,
            ways: cfg.ways,
            latency: cfg.latency,
            keys: vec![0; n],
            flags: vec![0; n],
            ready: vec![0; n],
            rank: new_ranks(sets, cfg.ways),
            mshr: MshrFile::new(cfg.mshr_entries),
            stats: CacheStats::default(),
        }
    }

    /// Number of sets.
    pub fn num_sets(&self) -> usize {
        self.sets
    }

    /// Associativity.
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Index of the first way of `line`'s set.
    #[inline]
    fn base_of(&self, line: LineAddr) -> usize {
        (line.0 & self.set_mask) as usize * self.ways
    }

    /// Look up `line` without updating replacement state.
    pub fn probe(&self, line: LineAddr) -> Option<usize> {
        let base = self.base_of(line);
        find_key(&self.keys[base..base + self.ways], key_of(line))
    }

    /// Look up `line`; on a hit, update LRU state and the dirty bit (for
    /// stores) and return `Some(ready_cycle)` — the cycle the block's
    /// data arrives (in the past for settled blocks). `is_prefetch`
    /// suppresses demand accounting. The caller updates stats counters.
    pub fn lookup(&mut self, line: LineAddr, is_write: bool, is_prefetch: bool) -> Option<u64> {
        let base = self.base_of(line);
        let way = find_key(&self.keys[base..base + self.ways], key_of(line))?;
        touch(&mut self.rank[base..base + self.ways], way);
        let i = base + way;
        if is_write {
            self.flags[i] |= DIRTY;
        }
        if !is_prefetch && self.flags[i] & PREFETCH != 0 {
            self.flags[i] &= !PREFETCH;
            self.stats.prefetch_useful += 1;
        }
        Some(self.ready[i])
    }

    /// Insert `line`, evicting the LRU block if the set is full.
    /// `ready` is the cycle the data arrives. Returns the evicted
    /// block, if any.
    pub fn fill(
        &mut self,
        line: LineAddr,
        dirty: bool,
        is_prefetch: bool,
        ready: u64,
    ) -> Option<Evicted> {
        debug_assert!(self.probe(line).is_none(), "double fill of resident line");
        let base = self.base_of(line);
        let ranks = &mut self.rank[base..base + self.ways];
        let last = (self.ways - 1) as u8;
        let way = ranks
            .iter()
            .position(|&r| r == last)
            .expect("a set's ranks are a permutation of its ways");
        touch(ranks, way);
        let i = base + way;
        let evicted = (self.keys[i] != 0).then(|| Evicted {
            line: line_of(self.keys[i]),
            dirty: self.flags[i] & DIRTY != 0,
        });
        if let Some(e) = evicted {
            self.stats.evictions += 1;
            if e.dirty {
                self.stats.writebacks += 1;
            }
        }
        self.keys[i] = key_of(line);
        self.flags[i] = (DIRTY * u8::from(dirty)) | (PREFETCH * u8::from(is_prefetch));
        self.ready[i] = ready;
        if is_prefetch {
            self.stats.prefetch_fills += 1;
        }
        evicted
    }

    /// Mark a resident line dirty (used for writebacks arriving from an
    /// upper level). Returns `false` if the line is not resident.
    pub fn mark_dirty(&mut self, line: LineAddr) -> bool {
        if let Some(way) = self.probe(line) {
            let i = self.base_of(line) + way;
            self.flags[i] |= DIRTY;
            true
        } else {
            false
        }
    }

    /// Number of currently valid blocks (test/diagnostic helper).
    pub fn occupancy(&self) -> usize {
        self.keys.iter().filter(|&&k| k != 0).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> PrivateCache {
        // 4 sets x 2 ways
        PrivateCache::new(&CacheConfig {
            capacity: 4 * 2 * 64,
            ways: 2,
            latency: 5,
            mshr_entries: 4,
        })
    }

    #[test]
    fn hit_after_fill() {
        let mut c = tiny();
        assert!(c.lookup(LineAddr(12), false, false).is_none());
        c.fill(LineAddr(12), false, false, 0);
        assert!(c.lookup(LineAddr(12), false, false).is_some());
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny();
        // lines 0, 4, 8 all map to set 0 (4 sets)
        c.fill(LineAddr(0), false, false, 0);
        c.fill(LineAddr(4), false, false, 0);
        c.lookup(LineAddr(0), false, false); // make 0 MRU
        let ev = c.fill(LineAddr(8), false, false, 0).expect("eviction");
        assert_eq!(ev.line, LineAddr(4));
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = tiny();
        c.fill(LineAddr(0), true, false, 0);
        c.fill(LineAddr(4), false, false, 0);
        let ev = c.fill(LineAddr(8), false, false, 0).expect("eviction");
        assert!(ev.dirty);
        assert_eq!(c.stats.writebacks, 1);
    }

    #[test]
    fn store_hit_sets_dirty() {
        let mut c = tiny();
        c.fill(LineAddr(0), false, false, 0);
        c.fill(LineAddr(4), false, false, 0);
        c.lookup(LineAddr(0), true, false); // store: 0 becomes dirty and MRU
        let ev = c.fill(LineAddr(8), false, false, 0).expect("eviction");
        assert_eq!(ev.line, LineAddr(4));
        assert!(!ev.dirty);
        let ev2 = c.fill(LineAddr(4), false, false, 0).expect("eviction");
        assert_eq!(ev2.line, LineAddr(0));
        assert!(ev2.dirty);
    }

    #[test]
    fn prefetch_bit_cleared_on_demand_hit() {
        let mut c = tiny();
        c.fill(LineAddr(3), false, true, 0);
        assert_eq!(c.stats.prefetch_fills, 1);
        c.lookup(LineAddr(3), false, false);
        assert_eq!(c.stats.prefetch_useful, 1);
        // second demand hit does not double count
        c.lookup(LineAddr(3), false, false);
        assert_eq!(c.stats.prefetch_useful, 1);
    }

    #[test]
    fn occupancy_counts_valid() {
        let mut c = tiny();
        assert_eq!(c.occupancy(), 0);
        c.fill(LineAddr(1), false, false, 0);
        c.fill(LineAddr(2), false, false, 0);
        assert_eq!(c.occupancy(), 2);
    }

    #[test]
    fn mark_dirty_only_when_resident() {
        let mut c = tiny();
        assert!(!c.mark_dirty(LineAddr(9)));
        c.fill(LineAddr(9), false, false, 0);
        assert!(c.mark_dirty(LineAddr(9)));
    }
}
