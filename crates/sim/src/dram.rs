//! DDR4-style DRAM timing model: channels, ranks, banks, row buffers.
//!
//! The model answers one question — *when does this 64-byte transfer
//! complete?* — while tracking bank busy times, open rows, and data-bus
//! occupancy so that bandwidth contention and row locality shape the
//! latency distribution, which is what the C-AMAT feedback and the
//! policy comparisons are sensitive to.

use crate::config::DramConfig;
use crate::types::LineAddr;

#[derive(Debug, Clone, Default)]
struct Bank {
    busy_until: u64,
    open_row: Option<u64>,
}

#[derive(Debug, Clone)]
struct Channel {
    bus_free: u64,
    banks: Vec<Bank>,
}

/// Absolute stage stamps of one DRAM access: `arrival <= start`
/// (bank-queue wait), `start..row_done` is array service (activate /
/// precharge / CAS), `row_done <= xfer_start` is data-bus wait, and
/// `xfer_start..done` is the burst transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramTiming {
    /// Cycle the bank started servicing the request.
    pub start: u64,
    /// Cycle the array access (activate + CAS) finished.
    pub row_done: u64,
    /// Cycle the data-bus transfer began.
    pub xfer_start: u64,
    /// Cycle the transfer completed.
    pub done: u64,
}

/// Precomputed shift/mask address decomposition, available when every
/// geometry parameter (channels, ranks×banks, lines-per-row) is a
/// power of two — which the default DDR4 config is. `l % 2^k` is
/// `l & (2^k - 1)` and `l / 2^a / 2^b` is `l >> (a + b)`, so the pow2
/// path produces bit-identical (channel, bank, row) triples to the
/// div/mod fallback; it just does it without three 64-bit divisions on
/// every DRAM access.
#[derive(Debug, Clone, Copy)]
struct Pow2Map {
    ch_mask: u64,
    ch_shift: u32,
    bank_mask: u64,
    /// `ch_shift + log2(banks) + log2(lines_per_row)`: one shift takes
    /// the line address straight to the row number.
    row_shift: u32,
}

impl Pow2Map {
    fn new(cfg: &DramConfig) -> Option<Self> {
        let channels = cfg.channels as u64;
        let banks = (cfg.ranks * cfg.banks) as u64;
        let lpr = cfg.lines_per_row;
        if !(channels.is_power_of_two() && banks.is_power_of_two() && lpr.is_power_of_two()) {
            return None;
        }
        let ch_shift = channels.trailing_zeros();
        Some(Pow2Map {
            ch_mask: channels - 1,
            ch_shift,
            bank_mask: banks - 1,
            row_shift: ch_shift + banks.trailing_zeros() + lpr.trailing_zeros(),
        })
    }
}

/// The DRAM subsystem.
#[derive(Debug)]
pub struct Dram {
    cfg: DramConfig,
    /// Shift/mask mapping fast path (`None` for non-pow2 geometries).
    pow2: Option<Pow2Map>,
    channels: Vec<Channel>,
    /// Reads served.
    pub reads: u64,
    /// Writes served.
    pub writes: u64,
    /// Row-buffer hits observed.
    pub row_hits: u64,
    /// Sum of read latencies (for the running `T_mem` estimate).
    latency_sum: u64,
    latency_count: u64,
    /// Monotone watermark: the largest `busy_until` ever assigned to any
    /// bank. Per-bank busy times only move forward, so this is exactly
    /// the current maximum — the backlog probe reads it in O(1) instead
    /// of scanning every bank, and skips the scan entirely once the
    /// subsystem has drained.
    max_bank_busy: u64,
    /// Total banks across all channels (denominator of the mean
    /// backlog, cached at construction).
    total_banks: u64,
}

impl Dram {
    /// Build a DRAM model from timing parameters.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has zero channels or banks.
    pub fn new(cfg: DramConfig) -> Self {
        assert!(
            cfg.channels > 0 && cfg.ranks > 0 && cfg.banks > 0,
            "degenerate DRAM"
        );
        let banks_per_channel = cfg.ranks * cfg.banks;
        Dram {
            pow2: Pow2Map::new(&cfg),
            channels: vec![
                Channel {
                    bus_free: 0,
                    banks: vec![Bank::default(); banks_per_channel]
                };
                cfg.channels
            ],
            reads: 0,
            writes: 0,
            row_hits: 0,
            latency_sum: 0,
            latency_count: 0,
            max_bank_busy: 0,
            total_banks: (cfg.channels * banks_per_channel) as u64,
            cfg,
        }
    }

    /// Map a line to (channel, bank, row).
    #[inline]
    fn map(&self, line: LineAddr) -> (usize, usize, u64) {
        let l = line.0;
        if let Some(m) = self.pow2 {
            let ch = (l & m.ch_mask) as usize;
            let bank = ((l >> m.ch_shift) & m.bank_mask) as usize;
            let row = l >> m.row_shift;
            return (ch, bank, row);
        }
        let ch = (l % self.cfg.channels as u64) as usize;
        let banks = (self.cfg.ranks * self.cfg.banks) as u64;
        let bank = ((l / self.cfg.channels as u64) % banks) as usize;
        let row = l / self.cfg.channels as u64 / banks / self.cfg.lines_per_row;
        (ch, bank, row)
    }

    /// Service an access arriving at `arrival`; returns the completion
    /// cycle of the 64B transfer.
    pub fn access(&mut self, line: LineAddr, arrival: u64, is_write: bool) -> u64 {
        self.access_timed(line, arrival, is_write).done
    }

    /// Like [`Dram::access`], but returns every absolute stage stamp of
    /// the service — the latency-attribution probe.
    pub fn access_timed(&mut self, line: LineAddr, arrival: u64, is_write: bool) -> DramTiming {
        let (ch_i, bank_i, row) = self.map(line);
        let ch = &mut self.channels[ch_i];
        let bank = &mut ch.banks[bank_i];

        let start = arrival.max(bank.busy_until);
        let array_latency = match bank.open_row {
            Some(open) if open == row => {
                self.row_hits += 1;
                self.cfg.t_cas
            }
            Some(_) => self.cfg.t_rp + self.cfg.t_rcd + self.cfg.t_cas,
            None => self.cfg.t_rcd + self.cfg.t_cas,
        };
        bank.open_row = Some(row);

        let row_done = start + array_latency;
        let xfer_start = row_done.max(ch.bus_free);
        let done = xfer_start + self.cfg.burst;
        ch.bus_free = done;
        bank.busy_until = done;
        self.max_bank_busy = self.max_bank_busy.max(done);

        if is_write {
            self.writes += 1;
        } else {
            self.reads += 1;
            self.latency_sum += done - arrival;
            self.latency_count += 1;
        }
        DramTiming {
            start,
            row_done,
            xfer_start,
            done,
        }
    }

    /// The unloaded (queue-free) average access latency: row activation
    /// plus column access plus transfer. This is the `T_mem` constant of
    /// the paper's LLC-obstruction test — a characteristic of the memory
    /// technology, not of the current load.
    pub fn unloaded_latency(&self) -> f64 {
        (self.cfg.t_rcd + self.cfg.t_cas + self.cfg.burst) as f64
    }

    /// How long a request to `line` arriving at `t` would wait before
    /// its bank and bus are free (a memory-controller queue-depth probe,
    /// used to shed low-priority prefetches under load).
    pub fn queue_delay(&self, line: LineAddr, t: u64) -> u64 {
        let (ch_i, bank_i, _) = self.map(line);
        let ch = &self.channels[ch_i];
        ch.banks[bank_i]
            .busy_until
            .max(ch.bus_free)
            .saturating_sub(t)
    }

    /// Mean and deepest bank backlog (cycles of already-queued work per
    /// bank) as seen at cycle `now` — the epoch telemetry's DRAM
    /// queue-occupancy probe.
    ///
    /// Incremental: the deepest backlog falls straight out of the
    /// monotone `max_bank_busy` watermark (per-bank busy times never
    /// move backwards, and the wait term `now` is common to all banks),
    /// and a fully drained subsystem answers without touching a single
    /// bank. Only channels whose data bus is still backlogged are
    /// scanned for the mean — a channel's `bus_free` is the maximum
    /// `busy_until` of its banks, so a drained bus proves every bank
    /// beneath it contributes zero.
    pub fn bank_backlog(&self, now: u64) -> (f64, u64) {
        let max = self.max_bank_busy.saturating_sub(now);
        if max == 0 {
            return (0.0, 0);
        }
        let mut sum = 0u64;
        for ch in &self.channels {
            if ch.bus_free <= now {
                continue;
            }
            for b in &ch.banks {
                sum += b.busy_until.saturating_sub(now);
            }
        }
        (sum as f64 / self.total_banks as f64, max)
    }

    /// Running average read latency (cycles); this is the paper's `T_mem`
    /// used by the LLC-obstruction test. Returns a sensible default
    /// before any read has been observed.
    pub fn avg_read_latency(&self) -> f64 {
        if self.latency_count == 0 {
            (self.cfg.t_rcd + self.cfg.t_cas + self.cfg.burst) as f64
        } else {
            self.latency_sum as f64 / self.latency_count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dram() -> Dram {
        Dram::new(DramConfig::default())
    }

    #[test]
    fn first_access_pays_rcd_cas_burst() {
        let mut d = dram();
        let done = d.access(LineAddr(0), 1000, false);
        assert_eq!(done, 1000 + 50 + 50 + 10);
    }

    #[test]
    fn row_hit_is_faster() {
        let mut d = dram();
        let t1 = d.access(LineAddr(0), 0, false);
        // same channel/bank/row: stride channels*banks stays in bank 0 and,
        // while below lines_per_row, in the same row
        let banks = (d.cfg.ranks * d.cfg.banks) as u64;
        let next_in_row = LineAddr(d.cfg.channels as u64 * banks);
        let t2 = d.access(next_in_row, t1 + 1000, false);
        assert_eq!(t2 - (t1 + 1000), d.cfg.t_cas + d.cfg.burst);
        assert_eq!(d.row_hits, 1);
    }

    #[test]
    fn row_conflict_pays_precharge() {
        let mut d = dram();
        let lines_per_row = d.cfg.lines_per_row;
        let banks = (d.cfg.ranks * d.cfg.banks) as u64;
        let t1 = d.access(LineAddr(0), 0, false);
        // a line in the same bank but a different row
        let conflict = LineAddr(d.cfg.channels as u64 * banks * lines_per_row);
        let t2 = d.access(conflict, t1 + 1000, false);
        assert_eq!(
            t2 - (t1 + 1000),
            d.cfg.t_rp + d.cfg.t_rcd + d.cfg.t_cas + d.cfg.burst
        );
    }

    #[test]
    fn bank_contention_serializes() {
        let mut d = dram();
        let t1 = d.access(LineAddr(0), 0, false);
        // same bank, same arrival: second must wait for the first
        let banks = (d.cfg.ranks * d.cfg.banks) as u64;
        let same_bank_other_row = LineAddr(d.cfg.channels as u64 * banks * d.cfg.lines_per_row);
        let t2 = d.access(same_bank_other_row, 0, false);
        assert!(t2 > t1);
    }

    #[test]
    fn different_channels_overlap() {
        let mut d = dram();
        let t1 = d.access(LineAddr(0), 0, false);
        let t2 = d.access(LineAddr(1), 0, false); // different channel
                                                  // both see an idle subsystem, so completion times are equal
        assert_eq!(t1, t2);
    }

    #[test]
    fn avg_latency_tracks_reads_only() {
        let mut d = dram();
        let before = d.avg_read_latency();
        assert!(before > 0.0);
        d.access(LineAddr(0), 0, true);
        assert_eq!(d.writes, 1);
        // writes do not perturb the read-latency estimate
        assert_eq!(d.avg_read_latency(), before);
        d.access(LineAddr(3), 0, false);
        assert!(d.avg_read_latency() > 0.0);
        assert_eq!(d.reads, 1);
    }

    #[test]
    fn timed_access_stamps_are_ordered_and_match_access() {
        let mut d = dram();
        let t = d.access_timed(LineAddr(0), 1000, false);
        assert_eq!(t.start, 1000, "idle bank starts immediately");
        assert_eq!(t.row_done - t.start, d.cfg.t_rcd + d.cfg.t_cas);
        assert_eq!(t.xfer_start, t.row_done, "idle bus: no wait");
        assert_eq!(t.done - t.xfer_start, d.cfg.burst);
        // contended follow-up on the same bank queues before starting
        let t2 = d.access_timed(LineAddr(0), 1000, false);
        assert!(t2.start >= t.done);
        assert!(t2.start <= t2.row_done && t2.row_done <= t2.xfer_start);
    }

    #[test]
    fn pow2_map_matches_divmod_fallback() {
        let cfg = DramConfig::default();
        let fast = Dram::new(cfg);
        assert!(fast.pow2.is_some(), "default geometry should be pow2");
        // a Dram with the fallback forced, same geometry
        let mut slow = Dram::new(cfg);
        slow.pow2 = None;
        let mut rng = crate::rng::SmallRng::seed_from_u64(0xD2A7);
        for _ in 0..4096 {
            let l = LineAddr(rng.next_u64() >> 8);
            assert_eq!(fast.map(l), slow.map(l), "line {l:?}");
        }
    }

    #[test]
    fn non_pow2_geometry_uses_fallback() {
        let cfg = DramConfig {
            channels: 3,
            ..DramConfig::default()
        };
        let d = Dram::new(cfg);
        assert!(d.pow2.is_none());
        assert_eq!(d.map(LineAddr(7)).0, 1); // 7 % 3
    }

    #[test]
    fn bus_contention_on_same_channel() {
        let mut d = dram();
        // two different banks on channel 0 arriving together: the data
        // bus serializes the transfers
        let banks = (d.cfg.ranks * d.cfg.banks) as u64;
        assert!(banks >= 2);
        let a = LineAddr(0);
        let b = LineAddr(d.cfg.channels as u64); // next bank, channel 0
        let t1 = d.access(a, 0, false);
        let t2 = d.access(b, 0, false);
        assert!(t2 >= t1 + d.cfg.burst || t1 >= t2 + d.cfg.burst);
    }
}
