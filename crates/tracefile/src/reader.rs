//! Reading `.ctf` files: validation, full decode, and the streaming
//! [`FileSource`] that drops into `System` as a `TraceSource`. Both
//! walk a stream through one synchronous cursor, a frame at a time, on
//! the caller's thread.

use std::fs::File;
use std::io::{Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};

use chrome_sim::trace::TraceSource;
use chrome_sim::types::TraceRecord;

use crate::codec::{decode_frame_header, decode_frame_payload, FRAME_HEADER_LEN};
use crate::format::{
    decode_header, decode_tail, CoreManifest, Manifest, TraceFileError, HEADER_LEN, TAIL_LEN,
};
use crate::{hash_record, HASH_BASIS};

/// An opened, structurally validated `.ctf` trace file.
///
/// Opening reads and checks the header, the footer tail and the
/// manifest, and cross-checks stream bounds — corrupt or truncated
/// files fail here with a descriptive [`TraceFileError`], never a panic.
/// Stream payloads are *not* decoded at open time; use
/// [`TraceFile::verify`] for a full decode + content-hash check.
#[derive(Debug)]
pub struct TraceFile {
    path: PathBuf,
    manifest: Manifest,
}

impl TraceFile {
    /// Open and validate the container structure of `path`.
    pub fn open(path: &Path) -> Result<Self, TraceFileError> {
        let mut f = File::open(path)?;
        let len = f.metadata()?.len();
        if len < HEADER_LEN + TAIL_LEN {
            return Err(TraceFileError::Truncated("file shorter than header + tail"));
        }
        let mut header = [0u8; HEADER_LEN as usize];
        f.read_exact(&mut header)?;
        let n_cores = decode_header(&header)?;
        let mut tail = [0u8; TAIL_LEN as usize];
        f.seek(SeekFrom::End(-(TAIL_LEN as i64)))?;
        f.read_exact(&mut tail)?;
        let (moff, mlen) = decode_tail(&tail)?;
        if moff
            .checked_add(u64::from(mlen))
            .is_none_or(|end| end != len - TAIL_LEN)
            || moff < HEADER_LEN
        {
            return Err(TraceFileError::Corrupt(
                "manifest offset/length disagree with file size".into(),
            ));
        }
        f.seek(SeekFrom::Start(moff))?;
        let mut mbytes = vec![0u8; mlen as usize];
        f.read_exact(&mut mbytes)?;
        let manifest = Manifest::decode(&mbytes)?;
        if manifest.cores.len() != n_cores as usize {
            return Err(TraceFileError::Corrupt(
                "header and manifest disagree on core count".into(),
            ));
        }
        let mut expect = HEADER_LEN;
        for (i, core) in manifest.cores.iter().enumerate() {
            if core.stream_off != expect {
                return Err(TraceFileError::Corrupt(format!(
                    "core {i} stream offset {} (expected {expect})",
                    core.stream_off
                )));
            }
            expect = core
                .stream_off
                .checked_add(core.stream_len)
                .ok_or_else(|| TraceFileError::Corrupt("stream length overflow".into()))?;
        }
        if expect != moff {
            return Err(TraceFileError::Corrupt(
                "streams do not end at the manifest".into(),
            ));
        }
        // Interval-stat consistency: a zero interval length would make
        // every downstream feature vector empty (division by the
        // interval length, position reconstruction), so reject it here
        // rather than let sampling silently select nothing. Every
        // recording writes at least one interval per core, and the
        // intervals must tile the stream exactly.
        if manifest.interval_instr == 0 {
            return Err(TraceFileError::Corrupt(
                "manifest interval length is zero".into(),
            ));
        }
        for (i, core) in manifest.cores.iter().enumerate() {
            if core.intervals.is_empty() {
                return Err(TraceFileError::Corrupt(format!(
                    "core {i} carries no interval stats; re-record the trace"
                )));
            }
            let instr: u64 = core.intervals.iter().map(|iv| iv.instructions).sum();
            let recs: u64 = core.intervals.iter().map(|iv| iv.records).sum();
            if instr != core.instructions || recs != core.records {
                return Err(TraceFileError::Corrupt(format!(
                    "core {i} interval stats sum to {instr} instructions / {recs} records, \
                     but the manifest totals are {} / {}",
                    core.instructions, core.records
                )));
            }
        }
        Ok(TraceFile {
            path: path.to_path_buf(),
            manifest,
        })
    }

    /// The footer manifest.
    #[must_use]
    pub fn manifest(&self) -> &Manifest {
        &self.manifest
    }

    /// Path this file was opened from.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    fn core(&self, core: usize) -> Result<&CoreManifest, TraceFileError> {
        self.manifest
            .cores
            .get(core)
            .ok_or_else(|| TraceFileError::Corrupt(format!("no core {core} in this file")))
    }

    /// A cursor at the start of one core's stream, on its own file
    /// handle.
    fn cursor(&self, core: usize) -> Result<StreamCursor, TraceFileError> {
        let cm = self.core(core)?;
        let mut cursor = StreamCursor {
            file: File::open(&self.path)?,
            core,
            off: cm.stream_off,
            len: cm.stream_len,
            records: cm.records,
            remaining: 0,
            decoded: 0,
            bytes: Vec::new(),
        };
        cursor.rewind()?;
        Ok(cursor)
    }

    /// Fully decode one core's stream: one pass of the cursor
    /// [`TraceFile::source`] replays, collected.
    pub fn decode_core(&self, core: usize) -> Result<Vec<TraceRecord>, TraceFileError> {
        let mut cursor = self.cursor(core)?;
        let mut records = Vec::new();
        while cursor.next_batch(&mut records)? {}
        Ok(records)
    }

    /// Decode every stream and check record counts, instruction counts
    /// and the content hash against the manifest.
    pub fn verify(&self) -> Result<(), TraceFileError> {
        let mut hash = HASH_BASIS;
        for (i, cm) in self.manifest.cores.iter().enumerate() {
            let records = self.decode_core(i)?;
            let instr: u64 = records.iter().map(|r| 1 + u64::from(r.nonmem_before)).sum();
            if instr != cm.instructions {
                return Err(TraceFileError::Corrupt(format!(
                    "core {i} covers {instr} instructions, manifest says {}",
                    cm.instructions
                )));
            }
            for rec in &records {
                hash = hash_record(hash, rec);
            }
        }
        if hash != self.manifest.content_hash {
            return Err(TraceFileError::HashMismatch {
                expected: self.manifest.content_hash,
                actual: hash,
            });
        }
        Ok(())
    }

    /// A streaming, infinite [`TraceSource`] over one core's stream. It
    /// decodes one frame at a time on the caller's thread, so memory
    /// stays constant regardless of trace length; at
    /// end of stream it wraps to the start, matching the
    /// championship-simulator practice of replaying traces until every
    /// core meets its quota.
    pub fn source(&self, core: usize) -> Result<FileSource, TraceFileError> {
        let cm = self.core(core)?;
        if cm.records == 0 {
            return Err(TraceFileError::Corrupt(format!(
                "core {core} stream holds no records"
            )));
        }
        Ok(FileSource {
            cursor: self.cursor(core)?,
            buf: Vec::new(),
            idx: 0,
            name: cm.name.clone(),
        })
    }

    /// One [`FileSource`] per core, boxed for `System`.
    pub fn sources(&self) -> Result<Vec<Box<dyn TraceSource>>, TraceFileError> {
        (0..self.manifest.cores.len())
            .map(|i| Ok(Box::new(self.source(i)?) as Box<dyn TraceSource>))
            .collect()
    }
}

/// A synchronous reader over one core's stream. Each
/// [`StreamCursor::next_batch`] reads and decodes the next compact
/// frame, so one frame of bytes is buffered at a time. The pass's
/// record count is checked against the manifest when the stream ends.
#[derive(Debug)]
struct StreamCursor {
    file: File,
    core: usize,
    off: u64,
    len: u64,
    /// The manifest's record count for the stream.
    records: u64,
    /// Stream bytes not yet read in this pass.
    remaining: u64,
    /// Records decoded in this pass.
    decoded: u64,
    bytes: Vec<u8>,
}

impl StreamCursor {
    /// Seek back to the stream's start.
    fn rewind(&mut self) -> Result<(), TraceFileError> {
        self.file.seek(SeekFrom::Start(self.off))?;
        self.remaining = self.len;
        self.decoded = 0;
        Ok(())
    }

    /// Append the next frame's records to `out`. Returns `Ok(false)`,
    /// appending nothing, once the pass is complete.
    fn next_batch(&mut self, out: &mut Vec<TraceRecord>) -> Result<bool, TraceFileError> {
        if self.remaining == 0 {
            if self.decoded != self.records {
                return Err(TraceFileError::Corrupt(format!(
                    "core {} decodes to {} records, manifest says {}",
                    self.core, self.decoded, self.records
                )));
            }
            return Ok(false);
        }
        if self.remaining < FRAME_HEADER_LEN as u64 {
            return Err(TraceFileError::Truncated("frame header"));
        }
        let mut header = [0u8; FRAME_HEADER_LEN];
        self.file.read_exact(&mut header)?;
        let (payload_len, nrec) = decode_frame_header(&header)?;
        self.remaining -= FRAME_HEADER_LEN as u64;
        if payload_len as u64 > self.remaining {
            return Err(TraceFileError::Truncated("frame payload"));
        }
        self.bytes.resize(payload_len, 0);
        self.file.read_exact(&mut self.bytes)?;
        self.remaining -= payload_len as u64;
        decode_frame_payload(&self.bytes, nrec, out)?;
        self.decoded += nrec as u64;
        Ok(true)
    }
}

/// A file-backed, infinite trace source for one core. Implements
/// [`TraceSource`], so a file-backed core drops into `System` unchanged.
///
/// # Panics
///
/// [`FileSource::next_record`] panics (with the underlying
/// [`TraceFileError`] message) if the stream turns out to be corrupt
/// mid-replay — `TraceSource` has no error channel. Structural
/// corruption is caught earlier, at [`TraceFile::open`]; payload
/// corruption is caught by [`TraceFile::verify`], which `traceinfo`
/// runs.
#[derive(Debug)]
pub struct FileSource {
    cursor: StreamCursor,
    buf: Vec<TraceRecord>,
    idx: usize,
    name: String,
}

impl TraceSource for FileSource {
    fn next_record(&mut self) -> TraceRecord {
        while self.idx >= self.buf.len() {
            self.buf.clear();
            self.idx = 0;
            let step = self.cursor.next_batch(&mut self.buf).and_then(|more| {
                if more {
                    Ok(())
                } else {
                    self.cursor.rewind()
                }
            });
            if let Err(e) = step {
                panic!("trace replay failed: {e}");
            }
        }
        let rec = self.buf[self.idx];
        self.idx += 1;
        rec
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::record_sources;
    use chrome_sim::trace::{StridedSource, TraceSource};

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("chrome-tracefile-reader-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn record_strided(name: &str) -> PathBuf {
        let path = tmp(name);
        let sources: Vec<Box<dyn TraceSource>> =
            vec![Box::new(StridedSource::new(0x4000, 64, 1 << 14, 2))];
        record_sources(&path, sources, "test", 30_000, 10_000).unwrap();
        path
    }

    #[test]
    fn open_verify_and_stream_match_generator() {
        let path = record_strided("ok.ctf");
        let tf = TraceFile::open(&path).unwrap();
        tf.verify().unwrap();
        let decoded = tf.decode_core(0).unwrap();
        let mut live = StridedSource::new(0x4000, 64, 1 << 14, 2);
        for (i, rec) in decoded.iter().enumerate() {
            assert_eq!(*rec, live.next_record(), "record {i}");
        }
        // the streaming source replays the same prefix, then wraps
        let mut src = tf.source(0).unwrap();
        for (i, rec) in decoded.iter().enumerate() {
            assert_eq!(src.next_record(), *rec, "stream record {i}");
        }
        assert_eq!(src.next_record(), decoded[0], "wraparound restarts");
    }

    #[test]
    fn truncated_file_is_a_clean_error() {
        let path = record_strided("trunc.ctf");
        let bytes = std::fs::read(&path).unwrap();
        for cut in [0, 3, 15, 40, bytes.len() / 2, bytes.len() - 1] {
            let cut_path = tmp(&format!("trunc-{cut}.ctf"));
            std::fs::write(&cut_path, &bytes[..cut]).unwrap();
            assert!(TraceFile::open(&cut_path).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn bad_magic_and_flipped_payload_are_errors() {
        let path = record_strided("corrupt.ctf");
        let bytes = std::fs::read(&path).unwrap();

        let mut bad_magic = bytes.clone();
        bad_magic[0] = b'Z';
        let p = tmp("bad-magic.ctf");
        std::fs::write(&p, &bad_magic).unwrap();
        assert!(matches!(TraceFile::open(&p), Err(TraceFileError::BadMagic)));

        // flip a payload byte: structure still parses, hash must not
        let mut flipped = bytes;
        let mid = HEADER_LEN as usize + 64;
        flipped[mid] ^= 0x40;
        let p = tmp("flipped.ctf");
        std::fs::write(&p, &flipped).unwrap();
        // an Err from open is also acceptable: the flip hit structure
        if let Ok(tf) = TraceFile::open(&p) {
            assert!(tf.verify().is_err(), "flipped payload must fail verify");
        }
    }

    #[test]
    fn codec_tag_1_in_header_or_manifest_fails_to_open() {
        let path = record_strided("tag.ctf");
        let bytes = std::fs::read(&path).unwrap();
        let tail = bytes.len() - TAIL_LEN as usize;
        let manifest_off = u64::from_le_bytes(bytes[tail..tail + 8].try_into().unwrap());
        for (what, at) in [("header", 6), ("manifest", manifest_off as usize)] {
            let mut tagged = bytes.clone();
            assert_eq!(tagged[at], 0, "{what} codec byte is written as 0");
            tagged[at] = 1;
            let p = tmp(&format!("tag-1-{what}.ctf"));
            std::fs::write(&p, &tagged).unwrap();
            let err = TraceFile::open(&p).unwrap_err();
            assert!(matches!(err, TraceFileError::BadCodec(1)), "{what}: {err}");
            assert!(err.to_string().contains("codec tag 1"), "{what}: {err}");
        }
    }

    #[test]
    fn frame_declaring_more_records_than_bytes_is_corrupt() {
        let path = record_strided("overcount.ctf");
        let mut bytes = std::fs::read(&path).unwrap();
        // the first frame's record count, forged to 2^26 - 1: the header
        // stays structurally plausible, but its payload cannot hold that
        // many three-varint records
        let count = HEADER_LEN as usize + 4;
        bytes[count..count + 4].copy_from_slice(&67_108_863u32.to_le_bytes());
        let p = tmp("overcount-forged.ctf");
        std::fs::write(&p, &bytes).unwrap();
        let tf = TraceFile::open(&p).expect("the container is intact");
        assert!(matches!(tf.decode_core(0), Err(TraceFileError::Corrupt(_))));
    }

    #[test]
    fn out_of_range_core_is_an_error() {
        let path = record_strided("range.ctf");
        let tf = TraceFile::open(&path).unwrap();
        assert!(tf.source(1).is_err());
        assert!(tf.decode_core(9).is_err());
    }

    #[test]
    fn wraparound_repeats_decode_core_across_batches() {
        // every address distinct, so a frame served twice or skipped
        // cannot hide behind a repeating pattern
        let path = tmp("wrap.ctf");
        let sources: Vec<Box<dyn TraceSource>> =
            vec![Box::new(StridedSource::new(0x4000, 64, 1 << 30, 2))];
        let m = record_sources(&path, sources, "test", 30_000, 10_000).unwrap();
        // three frames, the last one partial
        assert!(m.cores[0].records > 2 * crate::codec::FRAME_RECORDS as u64);
        let tf = TraceFile::open(&path).unwrap();
        let pass = tf.decode_core(0).unwrap();
        let mut src = tf.source(0).unwrap();
        for (i, want) in pass.iter().cycle().take(pass.len() * 5 / 2).enumerate() {
            assert_eq!(src.next_record(), *want, "record {i}");
        }
    }

    #[test]
    fn corrupt_frame_panics_when_replay_reaches_it() {
        let path = record_strided("flip-replay.ctf");
        let mut bytes = std::fs::read(&path).unwrap();
        let first = HEADER_LEN as usize;
        let (plen, nrec) = decode_frame_header(&bytes[first..]).unwrap();
        // bit 7 is a varint's continuation flag: flipping it changes
        // how many varints the second frame's payload holds, so that
        // frame cannot decode
        bytes[first + 2 * FRAME_HEADER_LEN + plen + 10] ^= 0x80;
        let p = tmp("flip-replay-bad.ctf");
        std::fs::write(&p, &bytes).unwrap();
        let tf = TraceFile::open(&p).expect("the flip leaves the container intact");
        let mut src = tf.source(0).unwrap();
        let mut served = 0;
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            for _ in 0..3 * nrec {
                src.next_record();
                served += 1;
            }
        }));
        let payload = caught.expect_err("replay must stop at the corrupt frame");
        let msg = payload.downcast_ref::<String>().expect("formatted panic");
        assert!(msg.starts_with("trace replay failed"), "{msg}");
        assert_eq!(served, nrec, "the first frame replays intact");
    }
}
