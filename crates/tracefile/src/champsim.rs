//! The ChampSim-compatible codec: 64-byte `input_instr` records.
//!
//! Layout (little-endian, matching ChampSim's `trace_instruction.h` /
//! the DPC-3 trace format):
//!
//! ```text
//! offset  field
//!  0..8   ip                        (u64)
//!  8      is_branch                 (u8)
//!  9      branch_taken              (u8)
//! 10..12  destination_registers[2]  (u8 × 2)
//! 12..16  source_registers[4]       (u8 × 4)
//! 16..32  destination_memory[2]     (u64 × 2)
//! 32..64  source_memory[4]          (u64 × 4)
//! ```
//!
//! Mapping onto [`TraceRecord`]:
//!
//! * a load is an instruction with `source_memory[0] = vaddr`; a store
//!   has `destination_memory[0] = vaddr`;
//! * the `nonmem_before` run materializes as that many instructions with
//!   no memory operands (this is what makes the layout 64 bytes per
//!   *instruction*, not per record);
//! * `dep_prev` is encoded through register dataflow, as in real traces:
//!   the depended-on memory instruction gets `destination_registers[0] =
//!   DEP_REG` (patched retroactively via a one-instruction delay buffer)
//!   and the dependent one `source_registers[0] = DEP_REG`. The decoder
//!   recovers `dep_prev` as "reads a register the previous memory
//!   instruction wrote", which also yields plausible dependence chains
//!   when ingesting real DPC-3 traces.
//!
//! A zero memory operand means "no operand" in this layout, so address 0
//! is unrepresentable; the encoder reports it as an error rather than
//! silently dropping the access. Decoding never fails on record content —
//! any 64 bytes is a valid instruction; a stream length that is not a
//! multiple of 64 is rejected when the file opens.

use chrome_sim::types::{AccessKind, TraceRecord};

use crate::format::TraceFileError;

/// Bytes per `input_instr`.
pub const INSTR_LEN: usize = 64;

/// The architectural register used to encode `dep_prev` dataflow.
pub const DEP_REG: u8 = 25;

const OFF_DEST_REGS: usize = 10;
const OFF_SRC_REGS: usize = 12;
const OFF_DEST_MEM: usize = 16;
const OFF_SRC_MEM: usize = 32;

fn read_u64(instr: &[u8], off: usize) -> u64 {
    u64::from_le_bytes(instr[off..off + 8].try_into().expect("8 bytes"))
}

/// Streaming encoder with the one-instruction delay buffer needed to
/// patch a depended-on instruction's destination register.
#[derive(Debug, Default)]
pub struct Encoder {
    prev: Option<[u8; INSTR_LEN]>,
}

impl Encoder {
    /// A fresh encoder (stream start).
    #[must_use]
    pub fn new() -> Self {
        Encoder::default()
    }

    /// Encode one record, appending finished instructions to `out`.
    /// The most recent memory instruction stays buffered until the next
    /// record (or [`Encoder::flush`]) decides whether it needs the
    /// dependence-target register patch.
    pub fn push(&mut self, rec: &TraceRecord, out: &mut Vec<u8>) -> Result<(), TraceFileError> {
        if rec.vaddr == 0 {
            return Err(TraceFileError::Unrepresentable(
                "address 0 is the ChampSim layout's \"no operand\" marker".into(),
            ));
        }
        let mut cur = [0u8; INSTR_LEN];
        cur[0..8].copy_from_slice(&rec.pc.to_le_bytes());
        match rec.kind {
            AccessKind::Load => {
                cur[OFF_SRC_MEM..OFF_SRC_MEM + 8].copy_from_slice(&rec.vaddr.to_le_bytes())
            }
            AccessKind::Store => {
                cur[OFF_DEST_MEM..OFF_DEST_MEM + 8].copy_from_slice(&rec.vaddr.to_le_bytes());
            }
        }
        if rec.dep_prev {
            if let Some(prev) = &mut self.prev {
                prev[OFF_DEST_REGS] = DEP_REG;
                cur[OFF_SRC_REGS] = DEP_REG;
            }
            // with no previous memory instruction the dependence is a
            // no-op (nothing to wait for); it is canonicalized away
        }
        if let Some(prev) = self.prev.take() {
            out.extend_from_slice(&prev);
        }
        // the non-memory run preceding this access, one empty
        // instruction each, carrying the access's ip
        let mut nonmem = [0u8; INSTR_LEN];
        nonmem[0..8].copy_from_slice(&rec.pc.to_le_bytes());
        for _ in 0..rec.nonmem_before {
            out.extend_from_slice(&nonmem);
        }
        self.prev = Some(cur);
        Ok(())
    }

    /// Flush the delayed instruction at end of stream.
    pub fn flush(&mut self, out: &mut Vec<u8>) {
        if let Some(prev) = self.prev.take() {
            out.extend_from_slice(&prev);
        }
    }
}

/// Streaming decoder: carries the non-memory run and the previous memory
/// instruction's destination registers across chunk boundaries.
#[derive(Debug, Default)]
pub struct Decoder {
    nonmem: u64,
    last_dest: [u8; 2],
}

impl Decoder {
    /// A fresh decoder (stream start / wraparound).
    #[must_use]
    pub fn new() -> Self {
        Decoder::default()
    }

    /// Decode one 64-byte instruction, appending any completed records.
    /// Instructions without memory operands accumulate into the next
    /// record's `nonmem_before` (saturating at `u16::MAX`; real traces
    /// with longer compute runs lose the excess, which only shortens
    /// simulated compute phases).
    pub fn push_instr(&mut self, instr: &[u8], out: &mut Vec<TraceRecord>) {
        debug_assert_eq!(instr.len(), INSTR_LEN);
        let pc = read_u64(instr, 0);
        let dest_regs = [instr[OFF_DEST_REGS], instr[OFF_DEST_REGS + 1]];
        let src_regs = &instr[OFF_SRC_REGS..OFF_SRC_REGS + 4];
        let mut operands: Vec<(u64, AccessKind)> = Vec::new();
        for i in 0..4 {
            let a = read_u64(instr, OFF_SRC_MEM + i * 8);
            if a != 0 {
                operands.push((a, AccessKind::Load));
            }
        }
        for i in 0..2 {
            let a = read_u64(instr, OFF_DEST_MEM + i * 8);
            if a != 0 {
                operands.push((a, AccessKind::Store));
            }
        }
        if operands.is_empty() {
            self.nonmem += 1;
            return;
        }
        let dep = src_regs
            .iter()
            .any(|&r| r != 0 && self.last_dest.contains(&r));
        let mut nonmem_before = self.nonmem.min(u64::from(u16::MAX)) as u16;
        self.nonmem = 0;
        let mut dep_prev = dep;
        for (vaddr, kind) in operands {
            out.push(TraceRecord {
                nonmem_before,
                pc,
                vaddr,
                kind,
                dep_prev,
            });
            nonmem_before = 0;
            dep_prev = false;
        }
        self.last_dest = dest_regs;
    }
}

/// Encode a whole record slice (validation/test path).
pub fn encode_stream(records: &[TraceRecord]) -> Result<Vec<u8>, TraceFileError> {
    let mut enc = Encoder::new();
    let mut out = Vec::with_capacity(records.len() * INSTR_LEN);
    for rec in records {
        enc.push(rec, &mut out)?;
    }
    enc.flush(&mut out);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::{write_one_core, Codec};
    use crate::TraceFile;

    /// Decode a whole stream, instruction by instruction.
    fn decode(bytes: &[u8]) -> Vec<TraceRecord> {
        let mut dec = Decoder::new();
        let mut out = Vec::new();
        for instr in bytes.chunks_exact(INSTR_LEN) {
            dec.push_instr(instr, &mut out);
        }
        out
    }

    fn canon_first_dep(mut recs: Vec<TraceRecord>) -> Vec<TraceRecord> {
        if let Some(first) = recs.first_mut() {
            first.dep_prev = false;
        }
        recs
    }

    #[test]
    fn roundtrip_with_dependences_and_gaps() {
        let recs = vec![
            TraceRecord::load(0x400_000, 0x1000, 3),
            TraceRecord::dep_load(0x400_010, 0x2000, 0),
            TraceRecord::dep_load(0x400_020, 0x3000, 5),
            TraceRecord::store(0x400_030, 0x4000, 2),
            TraceRecord::load(0x400_040, 0x5000, 0),
        ];
        let bytes = encode_stream(&recs).unwrap();
        // 5 memory instructions + 3+5+2 non-memory = 15 instructions
        assert_eq!(bytes.len(), 15 * INSTR_LEN);
        assert_eq!(decode(&bytes), recs);
    }

    #[test]
    fn leading_dependence_is_canonicalized_away() {
        let recs = vec![
            TraceRecord::dep_load(0x400, 0x1000, 0),
            TraceRecord::load(0x404, 0x2000, 1),
        ];
        let bytes = encode_stream(&recs).unwrap();
        assert_eq!(decode(&bytes), canon_first_dep(recs));
    }

    #[test]
    fn address_zero_is_rejected() {
        let rec = TraceRecord::load(0x400, 0, 0);
        assert!(matches!(
            encode_stream(&[rec]),
            Err(TraceFileError::Unrepresentable(_))
        ));
    }

    #[test]
    fn partial_record_is_truncation() {
        // a stream that ends mid-instruction cannot open
        let mut bytes = encode_stream(&[TraceRecord::load(0x400, 0x1000, 0)]).unwrap();
        bytes.pop();
        let path = std::env::temp_dir().join("chrome-tracefile-champsim-partial.ctf");
        write_one_core(&path, Codec::ChampSim, &bytes, 1, 1);
        assert!(matches!(
            TraceFile::open(&path),
            Err(TraceFileError::Corrupt(_))
        ));
    }

    #[test]
    fn multi_operand_foreign_instr_decodes_to_multiple_records() {
        // a hand-built "real trace" instruction: two loads and a store
        let mut instr = [0u8; INSTR_LEN];
        instr[0..8].copy_from_slice(&0xBEEFu64.to_le_bytes());
        instr[OFF_SRC_MEM..OFF_SRC_MEM + 8].copy_from_slice(&0x1000u64.to_le_bytes());
        instr[OFF_SRC_MEM + 8..OFF_SRC_MEM + 16].copy_from_slice(&0x2000u64.to_le_bytes());
        instr[OFF_DEST_MEM..OFF_DEST_MEM + 8].copy_from_slice(&0x3000u64.to_le_bytes());
        let mut dec = Decoder::new();
        let mut out = Vec::new();
        dec.push_instr(&instr, &mut out);
        assert_eq!(out.len(), 3);
        assert_eq!(out[0].kind, AccessKind::Load);
        assert_eq!(out[2].kind, AccessKind::Store);
        assert_eq!(out[2].nonmem_before, 0);
    }

    #[test]
    fn nonmem_saturates_at_u16_max() {
        let mut dec = Decoder::new();
        let mut out = Vec::new();
        let empty = [0u8; INSTR_LEN];
        for _ in 0..(u32::from(u16::MAX) + 10) {
            dec.push_instr(&empty, &mut out);
        }
        let mut mem = [0u8; INSTR_LEN];
        mem[OFF_SRC_MEM..OFF_SRC_MEM + 8].copy_from_slice(&0x40u64.to_le_bytes());
        dec.push_instr(&mem, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].nonmem_before, u16::MAX);
    }
}
