//! # chrome-tracefile — on-disk trace capture and replay
//!
//! The paper's evaluation runs on ChampSim DPC-3 trace files; the rest
//! of this reproduction generates workloads in-process. This crate makes
//! traces durable, exchangeable artifacts:
//!
//! * [`champsim`] — the ChampSim `input_instr` 64-byte binary record
//!   layout (ip, branch bits, destination/source registers, destination/
//!   source memory operands), so recorded traces are readable by stock
//!   ChampSim tooling and decompressed DPC-3 traces are ingestible here.
//! * [`codec`] — a native compact frame format: delta-from-previous +
//!   LEB128 varint encoding of ip/addresses, with non-memory gaps
//!   run-length encoded in the record head (well under 8 bytes per
//!   instruction on the synthetic corpus).
//! * [`recorder`] — captures any
//!   [`TraceSource`](chrome_sim::trace::TraceSource) (the SPEC-like and
//!   GAP generators, heterogeneous mixes) to a `.ctf` container with a
//!   footer manifest: record counts, per-core instruction quota, content
//!   hash, generator spec and per-interval summary stats.
//! * [`reader`] — a streaming reader with bounded memory: one
//!   synchronous cursor per core decodes a frame (or ChampSim chunk) at
//!   a time on the caller's thread, [`TraceFile::decode_core`] drains it
//!   once, and [`reader::FileSource`] replays it with wrap-around as a
//!   `chrome_sim::trace::TraceSource`, so file-backed cores drop into
//!   `System` unchanged.
//! * [`index`] — scans a `--trace-dir` and resolves `(workload, cores,
//!   seed)` identities to trace files by content hash, which is what
//!   lets grid cells keep checkpoint identity across trace revisions.
//!
//! # Example
//!
//! ```no_run
//! use chrome_tracefile::{record_workload, Codec, TraceFile};
//!
//! let manifest = record_workload(
//!     "mcf.ctf".as_ref(), "mcf", 2, 42, 200_000, Codec::Compact, 100_000,
//! ).unwrap();
//! let file = TraceFile::open("mcf.ctf".as_ref()).unwrap();
//! assert_eq!(file.manifest().content_hash, manifest.content_hash);
//! let sources = file.sources().unwrap(); // one infinite TraceSource per core
//! assert_eq!(sources.len(), 2);
//! ```

pub mod champsim;
pub mod codec;
pub mod format;
pub mod index;
pub mod reader;
pub mod recorder;

pub use format::{Codec, CoreManifest, IntervalStats, Manifest, TraceFileError};
pub use index::{TraceEntry, TraceIndex};
pub use reader::{FileSource, TraceFile};
pub use recorder::{compute_intervals, record_sources, record_workload};

use chrome_sim::types::TraceRecord;

/// FNV-1a 64-bit over a byte string (stable across platforms/builds).
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    chrome_exec::fnv1a64(bytes)
}

/// Fold one decoded record into a running content hash. The hash is
/// computed over the *decoded* record stream in a canonical byte
/// rendering, so both codecs of the same stream agree and `traceinfo
/// --verify` can recompute it from the file alone.
#[must_use]
pub fn hash_record(mut h: u64, rec: &TraceRecord) -> u64 {
    let mut buf = [0u8; 20];
    buf[0..2].copy_from_slice(&rec.nonmem_before.to_le_bytes());
    buf[2..10].copy_from_slice(&rec.pc.to_le_bytes());
    buf[10..18].copy_from_slice(&rec.vaddr.to_le_bytes());
    buf[18] = matches!(rec.kind, chrome_sim::types::AccessKind::Store) as u8;
    buf[19] = rec.dep_prev as u8;
    for &b in &buf {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// FNV-1a offset basis: the seed for [`hash_record`] chains.
pub const HASH_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

#[cfg(test)]
mod tests {
    use super::*;
    use chrome_sim::types::TraceRecord;

    #[test]
    fn hash_is_order_and_field_sensitive() {
        let a = TraceRecord::load(0x400, 0x1000, 3);
        let b = TraceRecord::store(0x400, 0x1000, 3);
        let h1 = hash_record(hash_record(HASH_BASIS, &a), &b);
        let h2 = hash_record(hash_record(HASH_BASIS, &b), &a);
        assert_ne!(h1, h2);
        assert_ne!(hash_record(HASH_BASIS, &a), hash_record(HASH_BASIS, &b));
        let dep = TraceRecord::dep_load(0x400, 0x1000, 3);
        assert_ne!(hash_record(HASH_BASIS, &a), hash_record(HASH_BASIS, &dep));
    }
}
