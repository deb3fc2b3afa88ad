//! The native compact frame codec.
//!
//! Records are grouped into frames (a few thousand records each). Every
//! frame is independently decodable — the delta state resets at each
//! frame start — which is what lets the streaming reader decode frame by
//! frame and wrap around at end of stream without carrying state.
//!
//! Frame layout:
//!
//! ```text
//! u32 payload_len | u32 record_count | payload
//! ```
//!
//! Each record in the payload:
//!
//! ```text
//! varint( nonmem_before << 2 | is_store << 1 | dep_prev )
//! varint( zigzag(pc    - prev_pc) )
//! varint( zigzag(vaddr - prev_vaddr) )
//! ```
//!
//! The head varint run-length-encodes the non-memory gap preceding the
//! access; pc/vaddr are delta-from-previous signed LEB128 (zigzag)
//! varints, so strided and looping streams cost 1–2 bytes per field.

use chrome_sim::types::{AccessKind, TraceRecord};

use crate::format::TraceFileError;

/// Records per frame the recorder targets. Small enough that a decoded
/// frame (the reader buffers one per core) stays well under a
/// megabyte; large enough that frame headers are noise.
pub const FRAME_RECORDS: usize = 4096;

/// Byte length of the fixed frame header.
pub const FRAME_HEADER_LEN: usize = 8;

/// ZigZag-map a signed delta onto an unsigned varint payload.
#[inline]
#[must_use]
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
#[inline]
#[must_use]
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Append an LEB128 varint.
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Read an LEB128 varint from `buf` at `*pos`, advancing it. Truncated
/// or overlong (> 10 byte) encodings are errors.
pub fn get_varint(buf: &[u8], pos: &mut usize) -> Result<u64, TraceFileError> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let byte = *buf
            .get(*pos)
            .ok_or(TraceFileError::Truncated("varint in frame payload"))?;
        *pos += 1;
        if shift >= 64 {
            return Err(TraceFileError::Corrupt("overlong varint".into()));
        }
        v |= u64::from(byte & 0x7f)
            .checked_shl(shift)
            .ok_or_else(|| TraceFileError::Corrupt("varint overflow".into()))?;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

/// Encode `records` into one frame (header + payload).
#[must_use]
pub fn encode_frame(records: &[TraceRecord]) -> Vec<u8> {
    let mut payload = Vec::with_capacity(records.len() * 6);
    let (mut prev_pc, mut prev_vaddr) = (0u64, 0u64);
    for rec in records {
        let head = (u64::from(rec.nonmem_before) << 2)
            | (u64::from(rec.kind == AccessKind::Store) << 1)
            | u64::from(rec.dep_prev);
        put_varint(&mut payload, head);
        put_varint(&mut payload, zigzag(rec.pc.wrapping_sub(prev_pc) as i64));
        put_varint(
            &mut payload,
            zigzag(rec.vaddr.wrapping_sub(prev_vaddr) as i64),
        );
        prev_pc = rec.pc;
        prev_vaddr = rec.vaddr;
    }
    let mut out = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&(records.len() as u32).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// Parse a frame header; returns `(payload_len, record_count)`.
pub fn decode_frame_header(h: &[u8]) -> Result<(usize, usize), TraceFileError> {
    if h.len() < FRAME_HEADER_LEN {
        return Err(TraceFileError::Truncated("frame header"));
    }
    let payload_len = u32::from_le_bytes(h[0..4].try_into().expect("4")) as usize;
    let nrec = u32::from_le_bytes(h[4..8].try_into().expect("4")) as usize;
    if nrec > (1 << 26) || payload_len > (1 << 30) {
        return Err(TraceFileError::Corrupt(format!(
            "implausible frame ({nrec} records, {payload_len} payload bytes)"
        )));
    }
    Ok((payload_len, nrec))
}

/// Decode one frame payload of `nrec` records into `out`.
pub fn decode_frame_payload(
    payload: &[u8],
    nrec: usize,
    out: &mut Vec<TraceRecord>,
) -> Result<(), TraceFileError> {
    let mut pos = 0usize;
    let (mut prev_pc, mut prev_vaddr) = (0u64, 0u64);
    out.reserve(nrec);
    for _ in 0..nrec {
        let head = get_varint(payload, &mut pos)?;
        let nonmem = head >> 2;
        if nonmem > u64::from(u16::MAX) {
            return Err(TraceFileError::Corrupt(format!(
                "non-memory run {nonmem} exceeds u16"
            )));
        }
        let pc = prev_pc.wrapping_add(unzigzag(get_varint(payload, &mut pos)?) as u64);
        let vaddr = prev_vaddr.wrapping_add(unzigzag(get_varint(payload, &mut pos)?) as u64);
        out.push(TraceRecord {
            nonmem_before: nonmem as u16,
            pc,
            vaddr,
            kind: if head & 0b10 != 0 {
                AccessKind::Store
            } else {
                AccessKind::Load
            },
            dep_prev: head & 0b01 != 0,
        });
        prev_pc = pc;
        prev_vaddr = vaddr;
    }
    if pos != payload.len() {
        return Err(TraceFileError::Corrupt(format!(
            "frame payload has {} trailing bytes",
            payload.len() - pos
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<TraceRecord> {
        vec![
            TraceRecord::load(0x400_000, 0x1000, 3),
            TraceRecord::load(0x400_004, 0x1040, 0),
            TraceRecord::store(0x400_008, 0x1080, 17),
            TraceRecord::dep_load(0x400_000, 0x9_0000_0000, 2),
            TraceRecord::load(0x3ff_ffc, 0x40, u16::MAX),
        ]
    }

    #[test]
    fn frame_roundtrips() {
        let recs = sample_records();
        let frame = encode_frame(&recs);
        let (plen, nrec) = decode_frame_header(&frame).unwrap();
        assert_eq!(nrec, recs.len());
        let mut out = Vec::new();
        decode_frame_payload(
            &frame[FRAME_HEADER_LEN..FRAME_HEADER_LEN + plen],
            nrec,
            &mut out,
        )
        .unwrap();
        assert_eq!(out, recs);
    }

    #[test]
    fn stream_of_frames_roundtrips() {
        // the delta state resets per frame, so back-to-back frames
        // decode one at a time into one record stream
        let recs = sample_records();
        let mut stream = encode_frame(&recs[..2]);
        stream.extend_from_slice(&encode_frame(&recs[2..]));
        let mut out = Vec::new();
        let mut rest = &stream[..];
        while !rest.is_empty() {
            let (plen, nrec) = decode_frame_header(rest).unwrap();
            let end = FRAME_HEADER_LEN + plen;
            decode_frame_payload(&rest[FRAME_HEADER_LEN..end], nrec, &mut out).unwrap();
            rest = &rest[end..];
        }
        assert_eq!(out, recs);
    }

    #[test]
    fn strided_stream_is_tiny() {
        // 1000 records of a 64-byte stride with pc fixed: head 1 byte,
        // pc delta 1 byte, vaddr delta 2 bytes => ~4 bytes/record.
        let recs: Vec<TraceRecord> = (0..1000)
            .map(|i| TraceRecord::load(0x400_000, 0x10_0000 + i * 64, 2))
            .collect();
        let frame = encode_frame(&recs);
        assert!(
            frame.len() < recs.len() * 5,
            "{} bytes for {} records",
            frame.len(),
            recs.len()
        );
    }

    #[test]
    fn zigzag_roundtrips_extremes() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn varint_roundtrips() {
        for v in [0u64, 1, 127, 128, 300, u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(get_varint(&buf, &mut pos).unwrap(), v);
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn truncated_and_corrupt_frames_error_not_panic() {
        let frame = encode_frame(&sample_records());
        let (plen, nrec) = decode_frame_header(&frame).unwrap();
        let payload = &frame[FRAME_HEADER_LEN..];
        assert_eq!(payload.len(), plen);
        // every truncation of the header, and of the payload, fails cleanly
        for cut in 0..FRAME_HEADER_LEN {
            assert!(decode_frame_header(&frame[..cut]).is_err());
        }
        for cut in 0..plen {
            assert!(decode_frame_payload(&payload[..cut], nrec, &mut Vec::new()).is_err());
        }
        // trailing garbage after the declared payload
        let mut padded = payload.to_vec();
        padded.extend_from_slice(&[0xff; 3]);
        assert!(decode_frame_payload(&padded, nrec, &mut Vec::new()).is_err());
        // overlong varint
        let overlong = [0xffu8; 11];
        let mut pos = 0;
        assert!(get_varint(&overlong, &mut pos).is_err());
    }

    #[test]
    fn nonmem_overflow_is_corrupt() {
        // forge a head varint with nonmem > u16::MAX
        let mut payload = Vec::new();
        put_varint(&mut payload, (u64::from(u16::MAX) + 1) << 2);
        put_varint(&mut payload, 0);
        put_varint(&mut payload, 0);
        let mut out = Vec::new();
        assert!(decode_frame_payload(&payload, 1, &mut out).is_err());
    }
}
