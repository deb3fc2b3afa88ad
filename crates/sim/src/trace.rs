//! Trace sources: the interface through which workloads feed the cores.
//!
//! Rich, workload-shaped generators (SPEC-like, GAP graph kernels) live
//! in the `chrome-traces` crate; this module defines the interface plus
//! two simple deterministic sources used by tests and examples.

use crate::types::{mix64, TraceRecord};

/// An endless supply of trace records for one core.
///
/// Sources must be infinite: generators wrap around when their underlying
/// pattern is exhausted (matching the championship-simulator practice of
/// replaying traces until every core reaches its instruction quota).
pub trait TraceSource {
    /// Produce the next record.
    fn next_record(&mut self) -> TraceRecord;

    /// Workload name (e.g. `"mcf"`, `"bfs-ur"`).
    fn name(&self) -> &str;
}

// NOTE: deliberately NO `impl TraceSource for Box<dyn TraceSource>`.
// Such a blanket impl lets an already-boxed source be boxed again
// (`Box<Box<dyn TraceSource>>` coerced back to `Box<dyn TraceSource>`),
// and every `next_record` — the single hottest call in the simulator —
// then pays two dependent pointer loads plus two indirect calls.
// Without it, double-boxing is a compile error and the per-core trace
// read in `Core::fetch_record` is exactly one vtable hop.

/// A simple strided loop over a working set: `base, base+stride, ...`
/// wrapping at `span` bytes. Useful for tests and the quickstart example.
#[derive(Debug, Clone)]
pub struct StridedSource {
    base: u64,
    stride: u64,
    span: u64,
    pos: u64,
    nonmem: u16,
    name: String,
}

impl StridedSource {
    /// Create a strided source touching `span` bytes with the given
    /// byte `stride`, with `nonmem` non-memory instructions between
    /// accesses.
    ///
    /// # Panics
    ///
    /// Panics if `stride` or `span` is zero.
    pub fn new(base: u64, stride: u64, span: u64, nonmem: u16) -> Self {
        assert!(stride > 0 && span > 0, "stride and span must be positive");
        StridedSource {
            base,
            stride,
            span,
            pos: 0,
            nonmem,
            name: format!("strided-{stride}"),
        }
    }
}

impl TraceSource for StridedSource {
    fn next_record(&mut self) -> TraceRecord {
        let addr = self.base + self.pos;
        self.pos = (self.pos + self.stride) % self.span;
        TraceRecord::load(0x400_000 + self.stride, addr, self.nonmem)
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// Cyclic replay of a pre-captured record sequence. This is the
/// in-memory form of file-backed replay (the `chrome-tracefile` crate
/// streams `.ctf` files with bounded memory instead); it wraps around at
/// the end of the sequence, like every other source.
#[derive(Debug, Clone)]
pub struct ReplaySource {
    records: Vec<TraceRecord>,
    pos: usize,
    name: String,
}

impl ReplaySource {
    /// Replay `records` cyclically under the given workload `name`.
    ///
    /// # Panics
    ///
    /// Panics on an empty sequence (sources must be infinite).
    pub fn new(name: impl Into<String>, records: Vec<TraceRecord>) -> Self {
        assert!(!records.is_empty(), "replay needs at least one record");
        ReplaySource {
            records,
            pos: 0,
            name: name.into(),
        }
    }
}

impl TraceSource for ReplaySource {
    fn next_record(&mut self) -> TraceRecord {
        let rec = self.records[self.pos];
        self.pos = (self.pos + 1) % self.records.len();
        rec
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// Uniform random accesses over a working set (a worst case for any
/// cache policy). Deterministic given the seed.
#[derive(Debug, Clone)]
pub struct RandomSource {
    base: u64,
    span_lines: u64,
    state: u64,
    nonmem: u16,
}

impl RandomSource {
    /// Random loads over `span` bytes starting at `base`.
    ///
    /// # Panics
    ///
    /// Panics if `span` is smaller than one cache line.
    pub fn new(base: u64, span: u64, nonmem: u16, seed: u64) -> Self {
        let span_lines = span / 64;
        assert!(span_lines > 0, "span must cover at least one line");
        RandomSource {
            base,
            span_lines,
            state: seed | 1,
            nonmem,
        }
    }
}

impl TraceSource for RandomSource {
    fn next_record(&mut self) -> TraceRecord {
        self.state = mix64(self.state);
        let line = self.state % self.span_lines;
        TraceRecord::load(0x500_000, self.base + line * 64, self.nonmem)
    }

    fn name(&self) -> &str {
        "random"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strided_wraps() {
        let mut s = StridedSource::new(0, 64, 128, 0);
        assert_eq!(s.next_record().vaddr, 0);
        assert_eq!(s.next_record().vaddr, 64);
        assert_eq!(s.next_record().vaddr, 0);
    }

    #[test]
    fn strided_carries_nonmem() {
        let mut s = StridedSource::new(0, 64, 1024, 7);
        assert_eq!(s.next_record().nonmem_before, 7);
    }

    #[test]
    fn random_is_deterministic() {
        let mut a = RandomSource::new(0, 1 << 20, 0, 42);
        let mut b = RandomSource::new(0, 1 << 20, 0, 42);
        for _ in 0..100 {
            assert_eq!(a.next_record(), b.next_record());
        }
    }

    #[test]
    fn random_stays_in_span() {
        let mut s = RandomSource::new(4096, 64 * 10, 0, 7);
        for _ in 0..1000 {
            let r = s.next_record();
            assert!(r.vaddr >= 4096 && r.vaddr < 4096 + 640);
        }
    }

    #[test]
    fn replay_wraps_and_matches_its_input() {
        let recs = vec![
            TraceRecord::load(0x400, 0x1000, 1),
            TraceRecord::store(0x404, 0x2000, 0),
        ];
        let mut r = ReplaySource::new("replayed", recs.clone());
        assert_eq!(r.next_record(), recs[0]);
        assert_eq!(r.next_record(), recs[1]);
        assert_eq!(r.next_record(), recs[0], "wraps around");
        assert_eq!(r.name(), "replayed");
    }

    #[test]
    fn boxed_source_dispatches() {
        let mut b: Box<dyn TraceSource> = Box::new(StridedSource::new(0, 64, 128, 0));
        assert_eq!(b.next_record().vaddr, 0);
        assert_eq!(b.name(), "strided-64");
    }
}
