//! Miss-status holding registers: bound outstanding misses and merge
//! same-line requests.

use crate::probe::{find_key, key_of};
use crate::types::LineAddr;

/// A small MSHR file, laid out as a fixed-capacity pool: one packed
/// key array plus one ready-cycle array, allocated once at
/// construction and never resized. Live entries are kept densely
/// packed in `[0, live)` — freeing a completed entry swap-removes it
/// (the last live entry moves into the hole), and registration appends
/// at `live`. Keys are unique within the file (a same-line request
/// merges instead of allocating), so every query is order-independent
/// and the swap is invisible: lookups scan only the `live` prefix with
/// the vectorized [`crate::probe::find_key`] kernel, never the full
/// capacity, and there is no allocator traffic, ever.
///
/// A `min_ready` watermark (earliest completion among live entries)
/// lets [`MshrFile::lookup`] skip the reclaim sweep entirely while
/// `now < min_ready`: no entry can have completed, so the sweep would
/// free nothing. This takes the common hit-adjacent lookup from a
/// full sweep to a single comparison.
///
/// Entries are never referenced from outside the file (callers
/// interact by line address, not slot handle), so the pool needs no
/// per-slot generation counters — there is no stale-handle hazard to
/// defend against.
#[derive(Debug, Clone)]
pub struct MshrFile {
    /// Packed line key per slot (the cache sets' encoding, see
    /// [`crate::probe::key_of`]); live entries occupy `[0, live)`,
    /// everything beyond is `0`.
    keys: Box<[u32]>,
    /// Completion cycle per slot, parallel to `keys`.
    ready: Box<[u64]>,
    /// Number of occupied slots (the packed prefix length).
    live: usize,
    /// Minimum `ready` among live slots; `u64::MAX` when empty.
    min_ready: u64,
}

/// Outcome of attempting to allocate an MSHR entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MshrOutcome {
    /// A miss to this line is already outstanding; the request completes
    /// when the existing one does.
    Merged { ready: u64 },
    /// An entry is available; the caller should issue the miss and then
    /// call [`MshrFile::register`].
    Available,
    /// The file is full; the request cannot issue before `free_at`.
    Full { free_at: u64 },
}

impl MshrFile {
    /// Create a file with `capacity` slots.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "MSHR capacity must be positive");
        MshrFile {
            keys: vec![0; capacity].into_boxed_slice(),
            ready: vec![0; capacity].into_boxed_slice(),
            live: 0,
            min_ready: u64::MAX,
        }
    }

    /// Swap-remove entries whose miss has completed by `now` and
    /// refresh the `min_ready` watermark. Callers guard on the
    /// watermark, so this only runs when at least one entry has
    /// actually completed.
    fn reclaim(&mut self, now: u64) {
        let mut min = u64::MAX;
        let mut i = 0;
        while i < self.live {
            let r = self.ready[i];
            if r <= now {
                self.live -= 1;
                self.keys[i] = self.keys[self.live];
                self.ready[i] = self.ready[self.live];
                self.keys[self.live] = 0;
            } else {
                min = min.min(r);
                i += 1;
            }
        }
        self.min_ready = min;
    }

    /// Check whether a miss to `line` at cycle `now` can be issued.
    #[inline]
    pub fn lookup(&mut self, line: LineAddr, now: u64) -> MshrOutcome {
        if now >= self.min_ready {
            self.reclaim(now);
        }
        if let Some(slot) = find_key(&self.keys[..self.live], key_of(line)) {
            return MshrOutcome::Merged {
                ready: self.ready[slot],
            };
        }
        if self.live >= self.keys.len() {
            // every live entry has `ready > now`, so the watermark is
            // the earliest cycle a slot frees
            return MshrOutcome::Full {
                free_at: self.min_ready,
            };
        }
        MshrOutcome::Available
    }

    /// Record an issued miss that will complete at `ready`.
    ///
    /// # Panics
    ///
    /// Panics if the file is full (callers must respect
    /// [`MshrOutcome::Full`]).
    #[inline]
    pub fn register(&mut self, line: LineAddr, ready: u64) {
        assert!(self.live < self.keys.len(), "MSHR overflow");
        self.keys[self.live] = key_of(line);
        self.ready[self.live] = ready;
        self.live += 1;
        self.min_ready = self.min_ready.min(ready);
    }

    /// Number of currently tracked (possibly stale) entries.
    pub fn occupancy(&self) -> usize {
        self.live
    }

    /// Entries still outstanding at cycle `now`, ignoring entries whose
    /// miss has completed but which lazy reclamation has not freed yet
    /// (the epoch telemetry's occupancy probe).
    pub fn live_occupancy(&self, now: u64) -> usize {
        self.ready[..self.live].iter().filter(|&&r| r > now).count()
    }

    /// Capacity of the file.
    pub fn capacity(&self) -> usize {
        self.keys.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_returns_existing_ready() {
        let mut m = MshrFile::new(4);
        assert_eq!(m.lookup(LineAddr(7), 10), MshrOutcome::Available);
        m.register(LineAddr(7), 100);
        assert_eq!(
            m.lookup(LineAddr(7), 20),
            MshrOutcome::Merged { ready: 100 }
        );
    }

    #[test]
    fn full_reports_earliest_free() {
        let mut m = MshrFile::new(2);
        m.register(LineAddr(1), 100);
        m.register(LineAddr(2), 80);
        assert_eq!(m.lookup(LineAddr(3), 10), MshrOutcome::Full { free_at: 80 });
    }

    #[test]
    fn reclaim_frees_completed() {
        let mut m = MshrFile::new(1);
        m.register(LineAddr(1), 50);
        // at cycle 60 the entry has completed, so a new line can allocate
        assert_eq!(m.lookup(LineAddr(2), 60), MshrOutcome::Available);
        assert_eq!(m.occupancy(), 0);
    }

    #[test]
    fn completed_entry_not_merged() {
        let mut m = MshrFile::new(2);
        m.register(LineAddr(1), 50);
        assert_eq!(m.lookup(LineAddr(1), 51), MshrOutcome::Available);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_rejected() {
        let _ = MshrFile::new(0);
    }

    #[test]
    fn watermark_gates_reclaim_and_refreshes() {
        let mut m = MshrFile::new(4);
        m.register(LineAddr(1), 50);
        m.register(LineAddr(2), 60);
        // before the watermark nothing can have completed: lookups leave
        // both entries in place (no sweep ran)
        assert_eq!(m.lookup(LineAddr(3), 49), MshrOutcome::Available);
        assert_eq!(m.occupancy(), 2);
        // crossing the watermark reclaims exactly the completed entry
        // and advances the watermark to the survivor's ready cycle
        assert_eq!(m.lookup(LineAddr(3), 55), MshrOutcome::Available);
        assert_eq!(m.occupancy(), 1);
        assert_eq!(m.lookup(LineAddr(3), 59), MshrOutcome::Available);
        assert_eq!(m.occupancy(), 1);
        assert_eq!(m.lookup(LineAddr(3), 60), MshrOutcome::Available);
        assert_eq!(m.occupancy(), 0);
    }

    #[test]
    fn slots_are_reused_without_allocation() {
        let mut m = MshrFile::new(3);
        m.register(LineAddr(1), 10);
        m.register(LineAddr(2), 1000);
        m.register(LineAddr(3), 1000);
        // line 1 completes; its slot is swap-filled and the next
        // registration reuses the freed capacity
        assert_eq!(m.lookup(LineAddr(4), 20), MshrOutcome::Available);
        m.register(LineAddr(4), 500);
        assert_eq!(m.occupancy(), 3);
        assert_eq!(
            m.lookup(LineAddr(2), 30),
            MshrOutcome::Merged { ready: 1000 }
        );
        assert_eq!(
            m.lookup(LineAddr(4), 30),
            MshrOutcome::Merged { ready: 500 }
        );
        assert_eq!(m.live_occupancy(600), 2);
    }
}
