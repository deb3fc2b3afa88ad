//! The per-core timing model: a trace-driven front end bounded by a
//! reorder buffer.
//!
//! Every cycle a core retires up to `width` completed instructions in
//! order and issues up to `width` new ones while the ROB has room.
//! Non-memory instructions complete the next cycle; loads receive a
//! completion cycle from the memory hierarchy at issue time; stores
//! retire immediately (an idealized store buffer) while still exercising
//! the cache/DRAM state. Loads flagged `dep_prev` (pointer chasing)
//! cannot issue before the previous load of the same core completes,
//! which is what differentiates high-MLP streaming from serialized
//! chasing in the C-AMAT feedback.

use std::collections::VecDeque;

use crate::trace::TraceSource;
use crate::types::{AccessKind, TraceRecord};

/// Architectural state of one simulated core.
pub struct Core {
    /// The workload feeding this core.
    pub trace: Box<dyn TraceSource>,
    /// In-flight instruction completion times, in fetch order,
    /// run-length encoded as `(completion, count)`: adjacent
    /// instructions with equal completion cycles (the common case —
    /// every non-memory instruction issued in a cycle completes the
    /// next) share one entry. Retire order and per-instruction
    /// accounting are exactly those of the expanded queue.
    rob: VecDeque<(u64, u32)>,
    /// Total instructions across `rob` entries (the architectural ROB
    /// occupancy).
    rob_len: usize,
    rob_size: usize,
    width: usize,
    /// Non-memory instructions still to issue before the pending record.
    nonmem_left: u16,
    /// The next memory record, once its leading non-memory run is done.
    pending: Option<TraceRecord>,
    /// Completion cycle of the most recent load (for `dep_prev`).
    pub last_load_completion: u64,
    /// Total instructions pulled from the trace since construction
    /// (each record counts `1 + nonmem_before`). This is the trace
    /// *cursor*: sampled replay aligns functional-warmup and detailed
    /// phases on fetch positions, which — unlike `retired` — never lag
    /// behind the trace by in-flight ROB contents.
    pub fetched: u64,
    /// Total instructions retired since construction.
    pub retired: u64,
    /// Cycles completed instructions spent waiting in the ROB for
    /// in-order release (Σ retire_cycle − completion_cycle) — the
    /// profiler's post-fill attribution tail.
    pub rob_release_lag: u64,
    /// Retired count at the start of the measurement region.
    pub measure_start_retired: u64,
    /// ROB-release lag at the start of the measurement region.
    pub measure_start_rob_lag: u64,
    /// Cycle at the start of the measurement region.
    pub measure_start_cycle: u64,
    /// Cycle at which this core finished its measured quota.
    pub done_cycle: Option<u64>,
}

impl std::fmt::Debug for Core {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Core")
            .field("trace", &self.trace.name())
            .field("retired", &self.retired)
            .field("rob_occupancy", &self.rob_len)
            .finish_non_exhaustive()
    }
}

impl Core {
    /// Create a core with the given ROB size and width.
    ///
    /// # Panics
    ///
    /// Panics if `rob_size` or `width` is zero.
    pub fn new(trace: Box<dyn TraceSource>, rob_size: usize, width: usize) -> Self {
        assert!(rob_size > 0 && width > 0, "degenerate core geometry");
        Core {
            trace,
            rob: VecDeque::with_capacity(rob_size),
            rob_len: 0,
            rob_size,
            width,
            nonmem_left: 0,
            pending: None,
            last_load_completion: 0,
            fetched: 0,
            retired: 0,
            rob_release_lag: 0,
            measure_start_retired: 0,
            measure_start_rob_lag: 0,
            measure_start_cycle: 0,
            done_cycle: None,
        }
    }

    /// Retire completed instructions for this cycle. Returns how many
    /// instructions were retired.
    pub fn retire(&mut self, cycle: u64) -> usize {
        let mut n = 0;
        while n < self.width {
            match self.rob.front_mut() {
                Some(&mut (done, ref mut count)) if done <= cycle => {
                    let take = (*count as usize).min(self.width - n);
                    *count -= take as u32;
                    self.rob_len -= take;
                    self.rob_release_lag += (cycle - done) * take as u64;
                    self.retired += take as u64;
                    n += take;
                    if *count == 0 {
                        self.rob.pop_front();
                    }
                }
                _ => break,
            }
        }
        n
    }

    /// Append `count` instructions completing at `done`, merging into the
    /// tail run when the completion cycles match (the retire sequence of
    /// two adjacent equal-completion entries is order-insensitive, so the
    /// merge is observationally exact).
    fn rob_push(&mut self, done: u64, count: usize) {
        self.rob_len += count;
        if let Some(back) = self.rob.back_mut() {
            if back.0 == done {
                back.1 += count as u32;
                return;
            }
        }
        self.rob.push_back((done, count as u32));
    }

    /// True when the ROB is full (the core cannot issue).
    pub fn stalled(&self) -> bool {
        self.rob_len >= self.rob_size
    }

    /// Completion time of the ROB head, if any (used by the fast-forward
    /// optimization in the system loop).
    pub fn head_completion(&self) -> Option<u64> {
        self.rob.front().map(|&(done, _)| done)
    }

    /// Conservative earliest cycle ≥ `now` at which this core can make
    /// progress — the event-driven kernel's per-core wake-up watermark.
    ///
    /// A core with ROB headroom can issue immediately (`now`). A full
    /// ROB blocks issue until the in-order head retires, which cannot
    /// happen before the head's completion cycle; until then both
    /// `retire` and `issue` are provable no-ops, so the scheduler may
    /// skip this core (or, if every core is idle, jump the clock).
    pub fn next_activity(&self, now: u64) -> u64 {
        if self.rob_len < self.rob_size {
            return now;
        }
        // A full ROB is non-empty (rob_size > 0), so the head exists.
        // The head may already be complete (retire pops at most `width`
        // per cycle), in which case the core is due right away.
        self.head_completion().map_or(now, |done| done.max(now))
    }

    /// Issue up to `width` instructions, calling `mem_access` for each
    /// memory operation. The callback receives `(record, issue_cycle)`
    /// and returns the completion cycle of the access.
    pub fn issue<F>(&mut self, cycle: u64, mut mem_access: F) -> usize
    where
        F: FnMut(&TraceRecord, u64) -> u64,
    {
        let mut n = 0;
        while n < self.width && self.rob_len < self.rob_size {
            if self.nonmem_left > 0 {
                // Batch the non-memory run: every instruction in it
                // shares the completion cycle, so take as many as width
                // and ROB headroom allow in a single run entry.
                let take = (self.nonmem_left as usize)
                    .min(self.width - n)
                    .min(self.rob_size - self.rob_len);
                self.rob_push(cycle + 1, take);
                self.nonmem_left -= take as u16;
                n += take;
                continue;
            }
            let rec = match self.pending.take() {
                Some(r) => r,
                None => {
                    let r = self.fetch_record();
                    if r.nonmem_before > 0 {
                        self.nonmem_left = r.nonmem_before;
                        self.pending = Some(r);
                        continue; // consume the non-memory run first
                    }
                    r
                }
            };
            let issue_cycle = if rec.dep_prev {
                cycle.max(self.last_load_completion)
            } else {
                cycle
            };
            match rec.kind {
                AccessKind::Load => {
                    let done = mem_access(&rec, issue_cycle);
                    self.last_load_completion = done;
                    self.rob_push(done, 1);
                }
                AccessKind::Store => {
                    // Exercise the hierarchy but retire from the store
                    // buffer next cycle.
                    let _ = mem_access(&rec, issue_cycle);
                    self.rob_push(cycle + 1, 1);
                }
            }
            n += 1;
        }
        n
    }

    /// Pull the next record from the trace, advancing the fetch cursor
    /// by the record plus its leading non-memory run.
    pub(crate) fn fetch_record(&mut self) -> TraceRecord {
        let r = self.trace.next_record();
        self.fetched += 1 + u64::from(r.nonmem_before);
        r
    }

    /// Take the partially-issued pending record (clearing its remaining
    /// non-memory run), so a mode switch can apply it functionally
    /// instead of leaving the cursor mid-record.
    pub(crate) fn take_pending(&mut self) -> Option<TraceRecord> {
        self.nonmem_left = 0;
        self.pending.take()
    }

    /// Drop all in-flight timing state (ROB contents, load-dependence
    /// chain) at a functional/detailed mode switch. Fetched-but-unretired
    /// instructions are discarded — sampled measurement is retire-delta
    /// based, while trace alignment is fetch-cursor based, so the loss is
    /// bounded by one ROB and never double-counted.
    pub(crate) fn reset_timing(&mut self) {
        self.rob.clear();
        self.rob_len = 0;
        self.last_load_completion = 0;
    }

    /// Instructions retired in the measurement region so far.
    pub fn measured_instructions(&self) -> u64 {
        self.retired - self.measure_start_retired
    }

    /// ROB-release lag accumulated in the measurement region so far.
    pub fn measured_rob_release_lag(&self) -> u64 {
        self.rob_release_lag - self.measure_start_rob_lag
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::StridedSource;

    fn core(width: usize, rob: usize) -> Core {
        Core::new(Box::new(StridedSource::new(0, 64, 1 << 20, 0)), rob, width)
    }

    #[test]
    fn issues_up_to_width() {
        let mut c = core(4, 64);
        let issued = c.issue(0, |_, t| t + 10);
        assert_eq!(issued, 4);
    }

    #[test]
    fn rob_bounds_issue() {
        let mut c = core(8, 4);
        assert_eq!(c.issue(0, |_, t| t + 100), 4);
        assert!(c.stalled());
        assert_eq!(c.issue(1, |_, t| t + 100), 0);
    }

    #[test]
    fn retire_is_in_order() {
        let mut c = core(2, 16);
        // first load finishes late, second early: neither retires until
        // the first completes
        let mut lat = [100u64, 5].into_iter();
        c.issue(0, |_, t| t + lat.next().unwrap());
        assert_eq!(c.retire(50), 0);
        assert_eq!(c.retire(100), 2);
        assert_eq!(c.retired, 2);
    }

    #[test]
    fn nonmem_runs_take_one_cycle_each() {
        let src = StridedSource::new(0, 64, 1 << 20, 3);
        let mut c = Core::new(Box::new(src), 64, 6);
        let mut mem_count = 0;
        // width 6: 3 nonmem + 1 mem + 2 more (next record's nonmem)
        c.issue(0, |_, t| {
            mem_count += 1;
            t + 1
        });
        assert_eq!(mem_count, 1);
    }

    #[test]
    fn dependent_load_waits_for_previous() {
        use crate::types::TraceRecord;

        struct TwoDeps {
            i: usize,
        }
        impl crate::trace::TraceSource for TwoDeps {
            fn next_record(&mut self) -> TraceRecord {
                self.i += 1;
                TraceRecord::dep_load(0x400, (self.i as u64) * 4096, 0)
            }
            fn name(&self) -> &str {
                "two-deps"
            }
        }
        let mut c = Core::new(Box::new(TwoDeps { i: 0 }), 64, 2);
        let mut issue_times = Vec::new();
        c.issue(0, |_, t| {
            issue_times.push(t);
            t + 100
        });
        assert_eq!(issue_times, vec![0, 100], "second load chained on first");
    }

    #[test]
    fn stores_retire_quickly() {
        struct Stores;
        impl crate::trace::TraceSource for Stores {
            fn next_record(&mut self) -> TraceRecord {
                TraceRecord::store(0x400, 0x1000, 0)
            }
            fn name(&self) -> &str {
                "stores"
            }
        }
        let mut c = Core::new(Box::new(Stores), 64, 2);
        c.issue(0, |_, t| t + 500); // long memory time, hidden by store buffer
        assert_eq!(c.retire(1), 2);
    }

    #[test]
    fn rob_release_lag_counts_in_order_wait() {
        let mut c = core(2, 16);
        // first load finishes at 100, second at 5: the second waits
        // 95 cycles behind the ROB head
        let mut lat = [100u64, 5].into_iter();
        c.issue(0, |_, t| t + lat.next().unwrap());
        c.retire(100);
        assert_eq!(c.rob_release_lag, 95);
        assert_eq!(c.measured_rob_release_lag(), 95);
    }

    #[test]
    fn head_completion_reports_front() {
        let mut c = core(1, 8);
        assert_eq!(c.head_completion(), None);
        c.issue(0, |_, t| t + 42);
        assert_eq!(c.head_completion(), Some(42));
    }
}
