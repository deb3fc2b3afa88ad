//! The Evaluation Queue (paper §V-D): 64 per-sampled-set FIFOs that
//! delay reward assignment until an action's consequences are visible.
//!
//! Each FIFO is a fixed ring. Its match keys sit in a `u64` lane of
//! their own, slot for slot beside the 64-byte entries, so a reward
//! match is the software form of the paper's parallel address compare:
//! one vector scan of the lane ([`key_masks`]) gives the bitmask of
//! slots holding the key, and only those candidates' entries are read,
//! newest first. A ring is allocated on its FIFO's first push, so a
//! FIFO that never records a decision costs no memory.

use chrome_sim::probe::key_masks;

use crate::qtable::Rows;

/// One recorded action awaiting (or holding) its reward. Plain `Copy`
/// data on one 64-byte line, so the EQ never touches the allocator once
/// a ring is built and a candidate costs one line read.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
#[repr(align(64))]
pub struct EqEntry {
    /// Decision id linking this entry to the audit trail — monotonic
    /// per engine, assigned at decision time.
    pub id: u64,
    /// The decision state's Q-table rows, hashed once at decision time
    /// and reused by the SARSA step that trains this entry (and by the
    /// one that bootstraps from it as the "next" state-action).
    pub rows: Rows,
    /// Match key the action concerned — the line address in the
    /// hardware LLC (hashed to 16 bits in the hardware accounting, kept
    /// exact here for correctness), the key hash in a serving cache.
    pub key: u64,
    /// Assigned reward; meaningful only once `rewarded` is set.
    pub reward: f64,
    /// Issuing lane — core, tenant or shard — for concurrency-aware
    /// dead-block rewards.
    pub lane: u32,
    /// Action index executed.
    pub action: u8,
    /// True if the action was triggered by a cache hit.
    pub trigger_hit: bool,
    /// True once `reward` holds the entry's reward.
    pub rewarded: bool,
}

impl EqEntry {
    /// Assign the entry its reward.
    pub fn assign(&mut self, reward: f64) {
        self.reward = reward;
        self.rewarded = true;
    }
}

/// A single FIFO of the EQ: a ring of `capacity` entries.
#[derive(Debug)]
pub struct EqFifo {
    capacity: usize,
    /// Slot of the oldest entry. Entries are only ever removed by the
    /// push that overwrites the oldest, so until the ring first fills
    /// the entries sit in slots `0..len` and `head` is 0.
    head: usize,
    /// Each slot's match key: the lane [`key_masks`] scans, one 64-slot
    /// word at a time.
    keys: Vec<u64>,
    entries: Vec<EqEntry>,
}

/// The SARSA "next" state-action peeked at eviction time.
pub type NextSa = Option<(Rows, usize)>;

impl EqFifo {
    /// An empty FIFO holding up to `capacity` entries. Its ring is
    /// allocated, once and at full size, by the first push.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "degenerate EQ");
        EqFifo {
            capacity,
            head: 0,
            keys: Vec::new(),
            entries: Vec::new(),
        }
    }

    /// Find the newest unrewarded entry for `key` and return a mutable
    /// reference to it.
    pub fn find_unrewarded(&mut self, key: u64) -> Option<&mut EqEntry> {
        let words = self.keys.len().div_ceil(64);
        if words == 0 {
            return None;
        }
        let keys = &self.keys;
        // The match mask of the 64-slot word `w`: one vector scan.
        let mask = |w: usize| {
            let mut mask = [0];
            key_masks(&keys[w * 64..keys.len().min(w * 64 + 64)], key, &mut mask);
            mask[0]
        };
        let entries = &self.entries;
        // The newest unrewarded candidate among `mask`'s slots of word `w`.
        let newest = |w: usize, mut mask: u64| {
            while mask != 0 {
                let bit = 63 - mask.leading_zeros() as usize;
                let slot = w * 64 + bit;
                if !entries[slot].rewarded {
                    return Some(slot);
                }
                mask ^= 1 << bit;
            }
            None
        };
        // Newest to oldest is slots head-1 down to 0, then len-1 down to
        // head: the head's word is walked below the head's bit first and
        // from it upward last. Each word is scanned at most once, and not
        // at all past the first hit.
        let (hw, below) = (self.head / 64, (1u64 << (self.head % 64)) - 1);
        let head_mask = mask(hw);
        let slot = newest(hw, head_mask & below)
            .or_else(|| (0..hw).rev().find_map(|w| newest(w, mask(w))))
            .or_else(|| (hw + 1..words).rev().find_map(|w| newest(w, mask(w))))
            .or_else(|| newest(hw, head_mask & !below))?;
        Some(&mut self.entries[slot])
    }

    /// Push a new entry. Once the FIFO is full, the new entry takes the
    /// oldest one's slot: the oldest is returned together with a peek
    /// at the new oldest (the SARSA "next" state-action).
    pub fn push(&mut self, entry: EqEntry) -> Option<(EqEntry, NextSa)> {
        if self.entries.len() < self.capacity {
            if self.entries.is_empty() {
                self.entries = Vec::with_capacity(self.capacity);
                self.keys = Vec::with_capacity(self.capacity);
            }
            self.keys.push(entry.key);
            self.entries.push(entry);
            return None;
        }
        let slot = self.head;
        self.head = if slot + 1 == self.capacity {
            0
        } else {
            slot + 1
        };
        self.keys[slot] = entry.key;
        let evicted = std::mem::replace(&mut self.entries[slot], entry);
        let next = &self.entries[self.head];
        Some((evicted, Some((next.rows, usize::from(next.action)))))
    }

    /// Current occupancy.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// The full Evaluation Queue: one FIFO per sampled set.
#[derive(Debug)]
pub struct EvalQueue {
    fifos: Vec<EqFifo>,
    capacity: usize,
}

impl EvalQueue {
    /// An EQ with `queues` FIFOs of `capacity` entries each.
    ///
    /// # Panics
    ///
    /// Panics if `queues` or `capacity` is zero.
    pub fn new(queues: usize, capacity: usize) -> Self {
        assert!(queues > 0 && capacity > 0, "degenerate EQ");
        EvalQueue {
            fifos: (0..queues).map(|_| EqFifo::new(capacity)).collect(),
            capacity,
        }
    }

    /// Access the FIFO for sampled-set index `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn fifo(&mut self, idx: usize) -> &mut EqFifo {
        &mut self.fifos[idx]
    }

    /// FIFO capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of FIFOs.
    pub fn num_queues(&self) -> usize {
        self.fifos.len()
    }

    /// Total entries currently held across all FIFOs.
    pub fn total_entries(&self) -> usize {
        self.fifos.iter().map(|f| f.len()).sum()
    }

    /// Mean per-FIFO occupancy as a fraction of capacity (the epoch
    /// telemetry's EQ-occupancy probe).
    pub fn mean_occupancy(&self) -> f64 {
        let slots = self.fifos.len() * self.capacity;
        if slots == 0 {
            0.0
        } else {
            self.total_entries() as f64 / slots as f64
        }
    }

    /// Storage bits for the Table III accounting: 58 bits per entry
    /// (state 33 + action 2 + reward 6 + hashed address 16 + trigger 1).
    pub fn storage_bits(&self) -> u64 {
        (self.num_queues() * self.capacity * 58) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qtable::QTable;

    fn entry(key: u64, action: u8) -> EqEntry {
        EqEntry {
            id: key,
            rows: QTable::new(1, 1, 64 * 7, 0.0).rows(&[key]),
            key,
            action,
            ..EqEntry::default()
        }
    }

    #[test]
    fn push_under_capacity_returns_none() {
        let mut f = EqFifo::new(3);
        assert!(f.push(entry(1, 0)).is_none());
        assert!(f.push(entry(2, 0)).is_none());
        assert_eq!(f.len(), 2);
    }

    #[test]
    fn overflow_evicts_oldest_and_reports_next() {
        let mut f = EqFifo::new(2);
        f.push(entry(1, 0));
        f.push(entry(2, 1));
        let (evicted, next) = f.push(entry(3, 2)).expect("overflow");
        assert_eq!(evicted.key, 1);
        let (next_rows, next_action) = next.expect("peek");
        assert_eq!(next_action, 1);
        assert_eq!(next_rows, entry(2, 1).rows);
    }

    #[test]
    fn entries_fill_one_cache_line() {
        // one EQ entry per sampled decision; a reward-match candidate
        // must cost one line read
        assert_eq!(std::mem::size_of::<EqEntry>(), 64);
        assert_eq!(std::mem::align_of::<EqEntry>(), 64);
    }

    #[test]
    fn find_unrewarded_skips_rewarded() {
        let mut f = EqFifo::new(8);
        f.push(entry(5, 0));
        f.find_unrewarded(5).expect("present").assign(10.0);
        assert!(f.find_unrewarded(5).is_none());
    }

    #[test]
    fn find_unrewarded_prefers_newest() {
        let mut f = EqFifo::new(8);
        f.push(entry(5, 0));
        f.push(entry(5, 3));
        assert_eq!(f.find_unrewarded(5).expect("present").action, 3);
    }

    #[test]
    fn find_unrewarded_walks_a_wrapped_ring_newest_first() {
        // 70 slots span two mask words; after 100 pushes the head sits
        // at slot 30, so the newest key-5 entry (push 99, slot 29) lies
        // below the head and the oldest (push 30, slot 30) just above it
        let mut f = EqFifo::new(70);
        for i in 0..100u64 {
            let key = if i % 3 == 0 { 5 } else { i };
            f.push(EqEntry {
                id: i,
                ..entry(key, 0)
            });
        }
        let mut order = Vec::new();
        while let Some(e) = f.find_unrewarded(5) {
            order.push(e.id);
            e.assign(1.0);
        }
        let expected: Vec<u64> = (30..100).rev().filter(|i| i % 3 == 0).collect();
        assert_eq!(order, expected);
    }

    #[test]
    fn eval_queue_geometry_and_storage() {
        let eq = EvalQueue::new(64, 28);
        assert_eq!(eq.num_queues(), 64);
        assert_eq!(eq.capacity(), 28);
        // Table III: 12.7 KB
        let kb = eq.storage_bits() as f64 / 8.0 / 1024.0;
        assert!((kb - 12.7).abs() < 0.05, "EQ = {kb} KB");
    }

    #[test]
    #[should_panic(expected = "degenerate EQ")]
    fn zero_queues_rejected() {
        let _ = EvalQueue::new(0, 28);
    }
}
