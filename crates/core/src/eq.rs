//! The Evaluation Queue (paper §V-D): 64 per-sampled-set FIFOs that
//! delay reward assignment until an action's consequences are visible.

use std::collections::VecDeque;

use crate::qtable::Rows;

/// One recorded action awaiting (or holding) its reward. Plain `Copy`
/// data, so the EQ never touches the allocator after construction.
#[derive(Debug, Clone, Copy, PartialEq)]
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
    /// Assigned reward, if any yet.
    pub reward: Option<f64>,
    /// Issuing lane — core, tenant or shard — for concurrency-aware
    /// dead-block rewards.
    pub lane: u32,
    /// Action index executed.
    pub action: u8,
    /// True if the action was triggered by a cache hit.
    pub trigger_hit: bool,
}

/// A single FIFO of the EQ.
#[derive(Debug, Default)]
pub struct EqFifo {
    entries: VecDeque<EqEntry>,
}

/// The SARSA "next" state-action peeked at eviction time.
pub type NextSa = Option<(Rows, usize)>;

impl EqFifo {
    /// A FIFO with room for `capacity` entries (plus the one transient
    /// overflow slot `push` occupies before popping), so steady-state
    /// operation never reallocates.
    pub fn with_capacity(capacity: usize) -> Self {
        EqFifo {
            entries: VecDeque::with_capacity(capacity + 1),
        }
    }

    /// Find the newest unrewarded entry for `key` and return a mutable
    /// reference to it.
    pub fn find_unrewarded(&mut self, key: u64) -> Option<&mut EqEntry> {
        self.entries
            .iter_mut()
            .rev()
            .find(|e| e.key == key && e.reward.is_none())
    }

    /// Push a new entry; if the FIFO exceeds `capacity`, pop and return
    /// the oldest entry together with a peek at the new oldest
    /// (the SARSA "next" state-action).
    pub fn push(&mut self, entry: EqEntry, capacity: usize) -> Option<(EqEntry, NextSa)> {
        self.entries.push_back(entry);
        if self.entries.len() > capacity {
            let evicted = self.entries.pop_front().expect("nonempty");
            let next = self
                .entries
                .front()
                .map(|e| (e.rows, usize::from(e.action)));
            Some((evicted, next))
        } else {
            None
        }
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
            fifos: (0..queues)
                .map(|_| EqFifo::with_capacity(capacity))
                .collect(),
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
            reward: None,
            lane: 0,
            action,
            trigger_hit: false,
        }
    }

    #[test]
    fn push_under_capacity_returns_none() {
        let mut f = EqFifo::default();
        assert!(f.push(entry(1, 0), 3).is_none());
        assert!(f.push(entry(2, 0), 3).is_none());
        assert_eq!(f.len(), 2);
    }

    #[test]
    fn overflow_evicts_oldest_and_reports_next() {
        let mut f = EqFifo::default();
        f.push(entry(1, 0), 2);
        f.push(entry(2, 1), 2);
        let (evicted, next) = f.push(entry(3, 2), 2).expect("overflow");
        assert_eq!(evicted.key, 1);
        let (next_rows, next_action) = next.expect("peek");
        assert_eq!(next_action, 1);
        assert_eq!(next_rows, entry(2, 1).rows);
    }

    #[test]
    fn entries_stay_within_80_bytes() {
        // one EQ entry per sampled decision; carrying rows instead of
        // features must not grow the FIFOs' footprint
        assert!(std::mem::size_of::<EqEntry>() <= 80);
    }

    #[test]
    fn find_unrewarded_skips_rewarded() {
        let mut f = EqFifo::default();
        f.push(entry(5, 0), 8);
        f.find_unrewarded(5).expect("present").reward = Some(10.0);
        assert!(f.find_unrewarded(5).is_none());
    }

    #[test]
    fn find_unrewarded_prefers_newest() {
        let mut f = EqFifo::default();
        f.push(entry(5, 0), 8);
        f.push(entry(5, 3), 8);
        assert_eq!(f.find_unrewarded(5).expect("present").action, 3);
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
