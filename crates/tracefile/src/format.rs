//! The `.ctf` container format: header, footer manifest, and errors.
//!
//! ```text
//! ┌──────────────────────────────────────────────────────────────┐
//! │ header (16 B): "CTF1" | version u16 | codec u8 (always 0) |  │
//! │                cores u8 | reserved [0u8; 8]                  │
//! ├──────────────────────────────────────────────────────────────┤
//! │ core 0 stream  (compact frames)                              │
//! │ core 1 stream                                                │
//! │ ...                                                          │
//! ├──────────────────────────────────────────────────────────────┤
//! │ manifest (binary, see [`Manifest::encode`])                  │
//! ├──────────────────────────────────────────────────────────────┤
//! │ tail (16 B): manifest_off u64 | manifest_len u32 | "CTFE"    │
//! └──────────────────────────────────────────────────────────────┘
//! ```
//!
//! The manifest lives in a footer (not the header) so the recorder can
//! stream frames to disk in one pass and only seek once, after the
//! per-core totals, interval stats and content hash are known.

use std::fmt;

/// File magic at offset 0.
pub const MAGIC: &[u8; 4] = b"CTF1";
/// Trailing magic, the last 4 bytes of the file.
pub const TAIL_MAGIC: &[u8; 4] = b"CTFE";
/// Container version this build writes and reads.
pub const VERSION: u16 = 1;
/// Byte length of the fixed header.
pub const HEADER_LEN: u64 = 16;
/// Byte length of the fixed tail.
pub const TAIL_LEN: u64 = 16;

/// The stream-encoding tag the header and the manifest carry. Compact
/// frames (see [`crate::codec`]) are the only encoding, tag 0; any
/// other tag fails to decode with [`TraceFileError::BadCodec`].
pub const CODEC_TAG: u8 = 0;

fn check_codec(tag: u8) -> Result<(), TraceFileError> {
    if tag == CODEC_TAG {
        Ok(())
    } else {
        Err(TraceFileError::BadCodec(tag))
    }
}

/// Everything that can go wrong reading or writing a trace file. Corrupt
/// or truncated inputs surface as errors — never panics.
#[derive(Debug)]
pub enum TraceFileError {
    /// Underlying filesystem error.
    Io(std::io::Error),
    /// The file does not start with the `CTF1` magic (or end with `CTFE`).
    BadMagic,
    /// The container version is newer than this build understands.
    BadVersion(u16),
    /// The header or manifest names a stream encoding other than
    /// compact frames ([`CODEC_TAG`]).
    BadCodec(u8),
    /// The file ends before a structure it promises (`what` names it).
    Truncated(&'static str),
    /// A structural invariant is violated (bad offsets, counts, tags).
    Corrupt(String),
    /// The decoded stream does not hash to the manifest's content hash.
    HashMismatch {
        /// Hash recorded in the manifest.
        expected: u64,
        /// Hash recomputed from the decoded stream.
        actual: u64,
    },
    /// The recorder was asked to capture a workload name the generator
    /// registry does not know.
    UnknownWorkload(String),
}

impl fmt::Display for TraceFileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceFileError::Io(e) => write!(f, "I/O error: {e}"),
            TraceFileError::BadMagic => write!(f, "not a .ctf trace file (bad magic)"),
            TraceFileError::BadVersion(v) => {
                write!(f, "unsupported trace-file version {v} (this build reads {VERSION})")
            }
            TraceFileError::BadCodec(tag) => write!(
                f,
                "unsupported codec tag {tag} (this build reads compact frames, tag {CODEC_TAG})"
            ),
            TraceFileError::Truncated(what) => write!(f, "truncated trace file: {what}"),
            TraceFileError::Corrupt(msg) => write!(f, "corrupt trace file: {msg}"),
            TraceFileError::HashMismatch { expected, actual } => write!(
                f,
                "content hash mismatch: manifest says {expected:016x}, stream decodes to {actual:016x}"
            ),
            TraceFileError::UnknownWorkload(name) => {
                write!(f, "unknown workload {name:?} (not in the generator registry)")
            }
        }
    }
}

impl std::error::Error for TraceFileError {}

impl From<std::io::Error> for TraceFileError {
    fn from(e: std::io::Error) -> Self {
        TraceFileError::Io(e)
    }
}

/// Summary statistics for one interval of one core's stream (default
/// interval: 100K instructions), recorded for later simulation-interval
/// selection à la SimPoint/Bueno et al.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IntervalStats {
    /// Instructions covered (memory records + their non-memory runs).
    pub instructions: u64,
    /// Memory records in the interval.
    pub records: u64,
    /// Loads among them.
    pub loads: u64,
    /// Stores among them.
    pub stores: u64,
    /// Dependent (pointer-chasing) loads among them.
    pub dep_loads: u64,
    /// Distinct cache lines touched within the interval.
    pub distinct_lines: u64,
    /// Lowest line address touched (`u64::MAX` if no records).
    pub min_line: u64,
    /// Highest line address touched (0 if no records).
    pub max_line: u64,
}

impl IntervalStats {
    const FIELDS: usize = 8;

    fn encode_into(&self, out: &mut Vec<u8>) {
        for v in [
            self.instructions,
            self.records,
            self.loads,
            self.stores,
            self.dep_loads,
            self.distinct_lines,
            self.min_line,
            self.max_line,
        ] {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }

    fn decode(c: &mut Cursor<'_>) -> Result<Self, TraceFileError> {
        let mut v = [0u64; Self::FIELDS];
        for slot in &mut v {
            *slot = c.u64()?;
        }
        Ok(IntervalStats {
            instructions: v[0],
            records: v[1],
            loads: v[2],
            stores: v[3],
            dep_loads: v[4],
            distinct_lines: v[5],
            min_line: v[6],
            max_line: v[7],
        })
    }
}

/// Per-core section of the manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoreManifest {
    /// Source name this core's stream was captured from (e.g. `"mcf"`).
    pub name: String,
    /// Byte offset of this core's stream in the file.
    pub stream_off: u64,
    /// Byte length of this core's stream.
    pub stream_len: u64,
    /// Memory records in the stream.
    pub records: u64,
    /// Instructions covered (records plus non-memory runs).
    pub instructions: u64,
    /// Interval summary stats, in stream order.
    pub intervals: Vec<IntervalStats>,
}

/// The footer manifest of a `.ctf` file: everything `traceinfo` prints
/// and everything resolution/validation needs without decoding streams.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// Requested per-core instruction quota the recorder captured to.
    pub quota: u64,
    /// FNV-1a over the canonical decoded record stream of all cores in
    /// order (see [`crate::hash_record`]).
    pub content_hash: u64,
    /// Generator spec this file was recorded from, canonical
    /// `workload=<name>;cores=<n>;seed=<u64>` form.
    pub spec: String,
    /// Interval length in instructions for the per-interval stats.
    pub interval_instr: u64,
    /// One entry per core, in stream order.
    pub cores: Vec<CoreManifest>,
}

impl Manifest {
    /// Total memory records across cores.
    #[must_use]
    pub fn total_records(&self) -> u64 {
        self.cores.iter().map(|c| c.records).sum()
    }

    /// Total instructions covered across cores.
    #[must_use]
    pub fn total_instructions(&self) -> u64 {
        self.cores.iter().map(|c| c.instructions).sum()
    }

    /// Total stream bytes across cores.
    #[must_use]
    pub fn total_stream_bytes(&self) -> u64 {
        self.cores.iter().map(|c| c.stream_len).sum()
    }

    /// Mean encoded bytes per covered instruction — the compact codec's
    /// headline number (< 8 on the synthetic corpus).
    #[must_use]
    pub fn bytes_per_instruction(&self) -> f64 {
        let instr = self.total_instructions();
        if instr == 0 {
            return 0.0;
        }
        self.total_stream_bytes() as f64 / instr as f64
    }

    /// `content_hash` in the fixed-width hex form used by spec hashing
    /// and artifact names.
    #[must_use]
    pub fn hash_hex(&self) -> String {
        format!("{:016x}", self.content_hash)
    }

    /// A field of the generator [`Manifest::spec`] string
    /// (`key=value;...` form).
    #[must_use]
    pub fn spec_field(&self, key: &str) -> Option<&str> {
        self.spec
            .split(';')
            .find_map(|kv| kv.strip_prefix(key)?.strip_prefix('='))
    }

    /// Serialize to the on-disk binary form.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(256);
        out.push(CODEC_TAG);
        out.extend_from_slice(&(self.cores.len() as u32).to_le_bytes());
        out.extend_from_slice(&self.quota.to_le_bytes());
        out.extend_from_slice(&self.content_hash.to_le_bytes());
        out.extend_from_slice(&self.interval_instr.to_le_bytes());
        put_str(&mut out, &self.spec);
        for core in &self.cores {
            put_str(&mut out, &core.name);
            for v in [
                core.stream_off,
                core.stream_len,
                core.records,
                core.instructions,
            ] {
                out.extend_from_slice(&v.to_le_bytes());
            }
            out.extend_from_slice(&(core.intervals.len() as u32).to_le_bytes());
            for iv in &core.intervals {
                iv.encode_into(&mut out);
            }
        }
        out
    }

    /// Parse the on-disk binary form.
    pub fn decode(bytes: &[u8]) -> Result<Self, TraceFileError> {
        let mut c = Cursor::new(bytes);
        check_codec(c.u8()?)?;
        let n_cores = c.u32()? as usize;
        if n_cores == 0 || n_cores > 4096 {
            return Err(TraceFileError::Corrupt(format!(
                "implausible core count {n_cores}"
            )));
        }
        let quota = c.u64()?;
        let content_hash = c.u64()?;
        let interval_instr = c.u64()?;
        let spec = c.string()?;
        let mut cores = Vec::with_capacity(n_cores);
        for _ in 0..n_cores {
            let name = c.string()?;
            let stream_off = c.u64()?;
            let stream_len = c.u64()?;
            let records = c.u64()?;
            let instructions = c.u64()?;
            let n_iv = c.u32()? as usize;
            if n_iv > 1 << 24 {
                return Err(TraceFileError::Corrupt(format!(
                    "implausible interval count {n_iv}"
                )));
            }
            let mut intervals = Vec::with_capacity(n_iv);
            for _ in 0..n_iv {
                intervals.push(IntervalStats::decode(&mut c)?);
            }
            cores.push(CoreManifest {
                name,
                stream_off,
                stream_len,
                records,
                instructions,
                intervals,
            });
        }
        Ok(Manifest {
            quota,
            content_hash,
            spec,
            interval_instr,
            cores,
        })
    }
}

/// Render the fixed 16-byte header.
#[must_use]
pub fn encode_header(cores: u8) -> [u8; HEADER_LEN as usize] {
    let mut h = [0u8; HEADER_LEN as usize];
    h[0..4].copy_from_slice(MAGIC);
    h[4..6].copy_from_slice(&VERSION.to_le_bytes());
    h[6] = CODEC_TAG;
    h[7] = cores;
    h
}

/// Validate a header; returns its core count.
pub fn decode_header(h: &[u8]) -> Result<u8, TraceFileError> {
    if h.len() < HEADER_LEN as usize {
        return Err(TraceFileError::Truncated("header"));
    }
    if &h[0..4] != MAGIC {
        return Err(TraceFileError::BadMagic);
    }
    let version = u16::from_le_bytes([h[4], h[5]]);
    if version != VERSION {
        return Err(TraceFileError::BadVersion(version));
    }
    check_codec(h[6])?;
    Ok(h[7])
}

/// Render the fixed 16-byte tail.
#[must_use]
pub fn encode_tail(manifest_off: u64, manifest_len: u32) -> [u8; TAIL_LEN as usize] {
    let mut t = [0u8; TAIL_LEN as usize];
    t[0..8].copy_from_slice(&manifest_off.to_le_bytes());
    t[8..12].copy_from_slice(&manifest_len.to_le_bytes());
    t[12..16].copy_from_slice(TAIL_MAGIC);
    t
}

/// Validate a tail; returns `(manifest_off, manifest_len)`.
pub fn decode_tail(t: &[u8]) -> Result<(u64, u32), TraceFileError> {
    if t.len() < TAIL_LEN as usize {
        return Err(TraceFileError::Truncated("footer tail"));
    }
    if &t[12..16] != TAIL_MAGIC {
        return Err(TraceFileError::BadMagic);
    }
    let off = u64::from_le_bytes(t[0..8].try_into().expect("8 bytes"));
    let len = u32::from_le_bytes(t[8..12].try_into().expect("4 bytes"));
    Ok((off, len))
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

/// Bounds-checked little-endian reader over a byte slice.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], TraceFileError> {
        let end = self
            .pos
            .checked_add(n)
            .ok_or(TraceFileError::Truncated("manifest field"))?;
        if end > self.buf.len() {
            return Err(TraceFileError::Truncated("manifest field"));
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, TraceFileError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, TraceFileError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    fn u64(&mut self) -> Result<u64, TraceFileError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    fn string(&mut self) -> Result<String, TraceFileError> {
        let len = self.u32()? as usize;
        if len > 1 << 20 {
            return Err(TraceFileError::Corrupt(format!(
                "implausible string length {len}"
            )));
        }
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| TraceFileError::Corrupt("non-UTF-8 string in manifest".into()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Manifest {
        Manifest {
            quota: 200_000,
            content_hash: 0xDEAD_BEEF_CAFE_F00D,
            spec: "workload=mcf;cores=2;seed=42".into(),
            interval_instr: 100_000,
            cores: vec![
                CoreManifest {
                    name: "mcf".into(),
                    stream_off: 16,
                    stream_len: 1234,
                    records: 500,
                    instructions: 200_123,
                    intervals: vec![
                        IntervalStats {
                            instructions: 100_000,
                            records: 250,
                            loads: 200,
                            stores: 50,
                            dep_loads: 30,
                            distinct_lines: 240,
                            min_line: 0x100,
                            max_line: 0x9000,
                        },
                        IntervalStats::default(),
                    ],
                },
                CoreManifest {
                    name: "mcf".into(),
                    stream_off: 1250,
                    stream_len: 999,
                    records: 400,
                    instructions: 200_001,
                    intervals: vec![],
                },
            ],
        }
    }

    #[test]
    fn manifest_roundtrips() {
        let m = sample();
        let bytes = m.encode();
        let back = Manifest::decode(&bytes).expect("decodes");
        assert_eq!(back, m);
    }

    #[test]
    fn manifest_truncation_is_an_error() {
        let bytes = sample().encode();
        for cut in [0, 1, 5, 20, bytes.len() - 1] {
            assert!(
                Manifest::decode(&bytes[..cut]).is_err(),
                "cut at {cut} must fail"
            );
        }
    }

    #[test]
    fn header_roundtrip_and_bad_magic() {
        let h = encode_header(4);
        assert_eq!(decode_header(&h).unwrap(), 4);
        let mut bad = h;
        bad[0] = b'X';
        assert!(matches!(decode_header(&bad), Err(TraceFileError::BadMagic)));
        let mut newer = h;
        newer[4] = 99;
        assert!(matches!(
            decode_header(&newer),
            Err(TraceFileError::BadVersion(99))
        ));
    }

    #[test]
    fn tail_roundtrip() {
        let t = encode_tail(0x1234_5678_9ABC, 4096);
        assert_eq!(decode_tail(&t).unwrap(), (0x1234_5678_9ABC, 4096));
        let mut bad = t;
        bad[15] = 0;
        assert!(decode_tail(&bad).is_err());
    }

    #[test]
    fn spec_fields_parse() {
        let m = sample();
        assert_eq!(m.spec_field("workload"), Some("mcf"));
        assert_eq!(m.spec_field("cores"), Some("2"));
        assert_eq!(m.spec_field("seed"), Some("42"));
        assert_eq!(m.spec_field("nope"), None);
    }

    #[test]
    fn bytes_per_instruction_aggregates() {
        let m = sample();
        let expect = (1234 + 999) as f64 / (200_123 + 200_001) as f64;
        assert!((m.bytes_per_instruction() - expect).abs() < 1e-12);
        assert_eq!(m.total_records(), 900);
    }

    #[test]
    fn codec_tags_roundtrip() {
        // tag 0 is written and read back; header and manifest name any
        // other tag in their error
        assert_eq!(encode_header(2)[6], CODEC_TAG);
        assert_eq!(sample().encode()[0], CODEC_TAG);
        for tag in [1, 7] {
            let mut h = encode_header(2);
            h[6] = tag;
            assert!(matches!(decode_header(&h), Err(TraceFileError::BadCodec(t)) if t == tag));
            let mut m = sample().encode();
            m[0] = tag;
            let err = Manifest::decode(&m).unwrap_err();
            assert!(
                err.to_string().contains(&format!("codec tag {tag}")),
                "{err}"
            );
        }
    }
}
