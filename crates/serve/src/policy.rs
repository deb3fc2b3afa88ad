//! The per-shard replacement-policy interface and its shared plumbing.
//!
//! Every shard owns one boxed [`ShardPolicy`]. The shard drives the
//! protocol; the policy only ranks slots:
//!
//! 1. miss → [`ShardPolicy::admit`] — may refuse (bypass),
//! 2. while over budget → [`ShardPolicy::choose_victim`] names a slot
//!    (without unlinking it), the shard frees it and confirms with
//!    [`ShardPolicy::on_remove`],
//! 3. the shard places the object and calls [`ShardPolicy::on_insert`],
//! 4. hit → [`ShardPolicy::on_hit`].
//!
//! [`DList`] is the intrusive slot-indexed doubly-linked list all the
//! recency-ordered policies share: O(1) push/remove/move with no
//! per-node allocation, mirroring the way hardware policies keep RRPV
//! state per way rather than boxed nodes.

use chrome_telemetry::AuditLog;

use crate::heuristics::{Gdsf, Lfu, Lfuda, Lru, Slru};
use crate::serve_agent::ChromeServePolicy;
use crate::stream::Request;

/// Sentinel for "no slot" in the intrusive lists.
pub const NIL: u32 = u32::MAX;

/// A shard's load snapshot, consulted by admission decisions and by the
/// agent's obstruction-analog reward. `thrashing` is true when the
/// previous pressure window evicted faster than it could possibly pay
/// off (the serving-side analog of the paper's LLC obstruction signal).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardPressure {
    /// Evictions outpaced reuse in the last window.
    pub thrashing: bool,
}

/// What one shard policy must provide. Policies are `Send` because each
/// lives behind its shard's mutex and shards migrate across worker
/// threads.
pub trait ShardPolicy: Send {
    /// Stable display name.
    fn name(&self) -> &'static str;

    /// Admission decision for a missed object. Returning false bypasses
    /// the cache (the object is served from the backend but not
    /// stored). Heuristics admit everything; the learned policy may
    /// refuse.
    fn admit(&mut self, _req: &Request, _pressure: &ShardPressure) -> bool {
        true
    }

    /// `slot` was re-referenced.
    fn on_hit(&mut self, slot: u32, req: &Request, pressure: &ShardPressure);

    /// `req` was just placed in `slot`.
    fn on_insert(&mut self, slot: u32, req: &Request, pressure: &ShardPressure);

    /// Name the next eviction victim among resident slots. The slot
    /// stays linked until the shard confirms with
    /// [`ShardPolicy::on_remove`].
    fn choose_victim(&mut self) -> u32;

    /// `slot` was evicted; drop its metadata.
    fn on_remove(&mut self, slot: u32);

    /// Start recording a per-decision audit trail into a bounded log
    /// tagged with `stream` (the shard index), holding at most `cap`
    /// records. Returns true when the policy supports auditing; the
    /// default (heuristics have no decision stream) refuses.
    fn enable_audit(&mut self, stream: u32, cap: usize) -> bool {
        let _ = (stream, cap);
        false
    }

    /// The recorded audit trail, if auditing was enabled and the
    /// policy supports it.
    fn audit(&self) -> Option<&AuditLog> {
        None
    }
}

/// The selectable shard policies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyKind {
    /// Least-recently-used.
    Lru,
    /// Segmented LRU (probation + protected).
    Slru,
    /// Least-frequently-used, sampled eviction.
    Lfu,
    /// LFU with dynamic aging.
    Lfuda,
    /// Greedy-Dual-Size-Frequency (cost- and size-aware).
    Gdsf,
    /// CHROME: the online-RL agent drives admission and eviction.
    Chrome,
    /// N-CHROME serve analog: the same agent with the thrashing
    /// (obstruction-analog) signal masked out of its rewards — the
    /// forensics ablation baseline.
    ChromeNc,
}

impl PolicyKind {
    /// All policies, for sweeps.
    pub fn all() -> [PolicyKind; 7] {
        [
            PolicyKind::Lru,
            PolicyKind::Slru,
            PolicyKind::Lfu,
            PolicyKind::Lfuda,
            PolicyKind::Gdsf,
            PolicyKind::Chrome,
            PolicyKind::ChromeNc,
        ]
    }

    /// Stable name (CLI + JSON).
    pub fn name(&self) -> &'static str {
        match self {
            PolicyKind::Lru => "lru",
            PolicyKind::Slru => "slru",
            PolicyKind::Lfu => "lfu",
            PolicyKind::Lfuda => "lfuda",
            PolicyKind::Gdsf => "gdsf",
            PolicyKind::Chrome => "chrome",
            PolicyKind::ChromeNc => "chrome-nc",
        }
    }

    /// Parse a CLI name.
    pub fn parse(s: &str) -> Option<PolicyKind> {
        match s {
            "lru" => Some(PolicyKind::Lru),
            "slru" => Some(PolicyKind::Slru),
            "lfu" => Some(PolicyKind::Lfu),
            "lfuda" => Some(PolicyKind::Lfuda),
            "gdsf" => Some(PolicyKind::Gdsf),
            "chrome" => Some(PolicyKind::Chrome),
            "chrome-nc" => Some(PolicyKind::ChromeNc),
            _ => None,
        }
    }

    /// Build a policy instance for a shard with `cap` slots. `seed`
    /// derives the policy-internal RNG (sampled eviction, ε-greedy
    /// exploration) so shards never share streams.
    pub fn build(&self, cap: usize, seed: u64) -> Box<dyn ShardPolicy> {
        match self {
            PolicyKind::Lru => Box::new(Lru::new(cap)),
            PolicyKind::Slru => Box::new(Slru::new(cap)),
            PolicyKind::Lfu => Box::new(Lfu::new(cap, seed)),
            PolicyKind::Lfuda => Box::new(Lfuda::new(cap, seed)),
            PolicyKind::Gdsf => Box::new(Gdsf::new(cap, seed)),
            PolicyKind::Chrome => Box::new(ChromeServePolicy::new(cap, seed)),
            PolicyKind::ChromeNc => Box::new(ChromeServePolicy::new_unaware(cap, seed)),
        }
    }
}

/// Intrusive slot-indexed doubly-linked list: `prev`/`next` arrays over
/// slot ids, O(1) everything, no allocation after construction.
#[derive(Debug, Clone)]
pub struct DList {
    head: u32,
    tail: u32,
    prev: Vec<u32>,
    next: Vec<u32>,
    len: usize,
}

impl DList {
    /// An empty list over slots `0..cap`.
    pub fn new(cap: usize) -> Self {
        DList {
            head: NIL,
            tail: NIL,
            prev: vec![NIL; cap],
            next: vec![NIL; cap],
            len: 0,
        }
    }

    /// Linked slots.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no slot is linked.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The coldest slot (list back), if any.
    pub fn back(&self) -> Option<u32> {
        (self.tail != NIL).then_some(self.tail)
    }

    /// Link `slot` at the front (hottest). The slot must be unlinked.
    pub fn push_front(&mut self, slot: u32) {
        let s = slot as usize;
        self.prev[s] = NIL;
        self.next[s] = self.head;
        if self.head != NIL {
            self.prev[self.head as usize] = slot;
        } else {
            self.tail = slot;
        }
        self.head = slot;
        self.len += 1;
    }

    /// Unlink `slot`. The slot must currently be linked in this list.
    pub fn remove(&mut self, slot: u32) {
        let s = slot as usize;
        let (p, n) = (self.prev[s], self.next[s]);
        if p != NIL {
            self.next[p as usize] = n;
        } else {
            self.head = n;
        }
        if n != NIL {
            self.prev[n as usize] = p;
        } else {
            self.tail = p;
        }
        self.prev[s] = NIL;
        self.next[s] = NIL;
        self.len -= 1;
    }

    /// Unlink and return the coldest slot.
    pub fn pop_back(&mut self) -> Option<u32> {
        let back = self.back()?;
        self.remove(back);
        Some(back)
    }

    /// Move an already-linked slot to the front.
    pub fn move_to_front(&mut self, slot: u32) {
        if self.head == slot {
            return;
        }
        self.remove(slot);
        self.push_front(slot);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_remove_pop_keep_order() {
        let mut l = DList::new(8);
        l.push_front(1);
        l.push_front(2);
        l.push_front(3); // front: 3 2 1 :back
        assert_eq!(l.len(), 3);
        assert_eq!(l.back(), Some(1));
        l.remove(2); // 3 1
        assert_eq!(l.pop_back(), Some(1));
        assert_eq!(l.pop_back(), Some(3));
        assert_eq!(l.pop_back(), None);
        assert!(l.is_empty());
    }

    #[test]
    fn move_to_front_reorders() {
        let mut l = DList::new(4);
        for s in 0..4 {
            l.push_front(s);
        }
        // front: 3 2 1 0
        l.move_to_front(0);
        assert_eq!(l.back(), Some(1));
        l.move_to_front(0); // already front: no-op
        assert_eq!(l.len(), 4);
        let drained: Vec<u32> = std::iter::from_fn(|| l.pop_back()).collect();
        assert_eq!(drained, [1, 2, 3, 0]);
    }

    #[test]
    fn singleton_list_edges() {
        let mut l = DList::new(2);
        l.push_front(1);
        assert_eq!(l.back(), Some(1));
        l.remove(1);
        assert!(l.is_empty());
        assert_eq!(l.back(), None);
    }

    #[test]
    fn policy_names_roundtrip() {
        for kind in PolicyKind::all() {
            assert_eq!(PolicyKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(PolicyKind::parse("belady"), None);
    }

    #[test]
    fn every_policy_builds() {
        for kind in PolicyKind::all() {
            let p = kind.build(16, 7);
            assert_eq!(p.name(), kind.name());
        }
    }
}
