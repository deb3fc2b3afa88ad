//! Bounded ring-buffer trace of structured policy-decision events.
//!
//! Full runs see hundreds of millions of accesses; the ring keeps the
//! newest `capacity` events, so memory stays bounded no matter how long
//! the run is.

/// What happened, with the decision-specific payload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventKind {
    /// A replacement victim was selected.
    VictimChosen {
        /// LLC set index.
        set: u32,
        /// Chosen way.
        way: u32,
        /// Line address being evicted.
        line: u64,
    },
    /// A fill was bypassed around the LLC.
    BypassTaken {
        /// Line address that was not inserted.
        line: u64,
        /// PC of the triggering access.
        pc: u64,
    },
    /// A delayed reward was assigned to a recorded action.
    RewardApplied {
        /// Reward value.
        reward: f64,
        /// True if assigned by address match, false at EQ eviction.
        matched: bool,
    },
    /// A SARSA update changed the Q-table.
    QUpdate {
        /// TD step applied (α · TD-error).
        delta: f64,
        /// Action whose value moved.
        action: u8,
    },
    /// A baseline policy's predictor classified an access.
    PredictorVerdict {
        /// PC signature consulted.
        signature: u64,
        /// True when predicted cache-friendly.
        friendly: bool,
    },
    /// An epoch boundary passed.
    EpochBoundary {
        /// Epoch index.
        epoch: u64,
    },
}

impl EventKind {
    /// Short stable name, used by the exporters.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::VictimChosen { .. } => "victim_chosen",
            EventKind::BypassTaken { .. } => "bypass_taken",
            EventKind::RewardApplied { .. } => "reward_applied",
            EventKind::QUpdate { .. } => "q_update",
            EventKind::PredictorVerdict { .. } => "predictor_verdict",
            EventKind::EpochBoundary { .. } => "epoch_boundary",
        }
    }
}

/// One traced event with its cycle stamp and issuing core.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEvent {
    /// Simulator cycle at which the decision happened.
    pub cycle: u64,
    /// Core the access belonged to.
    pub core: u32,
    /// The decision payload.
    pub kind: EventKind,
}

/// Bounded ring buffer keeping the newest events.
#[derive(Debug, Clone)]
pub struct EventRing {
    buf: Vec<TraceEvent>,
    capacity: usize,
    /// Next write position.
    next: usize,
}

impl EventRing {
    /// A ring holding at most `capacity` events (a recording sink's
    /// holds 64K).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ring capacity must be positive");
        EventRing {
            buf: Vec::with_capacity(capacity.min(4096)),
            capacity,
            next: 0,
        }
    }

    /// Store an event, overwriting the oldest once the ring is full.
    #[inline]
    pub fn offer(&mut self, ev: TraceEvent) {
        if self.buf.len() < self.capacity {
            self.buf.push(ev);
        } else {
            self.buf[self.next] = ev;
        }
        self.next = (self.next + 1) % self.capacity;
    }

    /// Events currently retained.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Retained events, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &TraceEvent> {
        let (tail, head) = if self.buf.len() < self.capacity {
            (&self.buf[..], &[][..])
        } else {
            let (head, tail) = self.buf.split_at(self.next);
            (tail, head)
        };
        tail.iter().chain(head.iter())
    }

    /// Drop all retained events.
    pub fn clear(&mut self) {
        self.buf.clear();
        self.next = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(cycle: u64) -> TraceEvent {
        TraceEvent {
            cycle,
            core: 0,
            kind: EventKind::EpochBoundary { epoch: cycle },
        }
    }

    #[test]
    fn fills_then_wraps_keeping_newest() {
        let mut r = EventRing::new(4);
        for c in 0..10 {
            r.offer(ev(c));
        }
        assert_eq!(r.len(), 4);
        let cycles: Vec<u64> = r.iter().map(|e| e.cycle).collect();
        assert_eq!(cycles, [6, 7, 8, 9], "oldest-first, newest retained");
    }

    #[test]
    fn partial_fill_iterates_in_order() {
        let mut r = EventRing::new(8);
        for c in 0..3 {
            r.offer(ev(c));
        }
        let cycles: Vec<u64> = r.iter().map(|e| e.cycle).collect();
        assert_eq!(cycles, [0, 1, 2]);
    }

    #[test]
    fn wrap_exactly_at_capacity_boundary() {
        let mut r = EventRing::new(3);
        for c in 0..6 {
            r.offer(ev(c));
        }
        let cycles: Vec<u64> = r.iter().map(|e| e.cycle).collect();
        assert_eq!(cycles, [3, 4, 5]);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = EventRing::new(0);
    }
}
