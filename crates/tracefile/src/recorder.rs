//! The recorder: capture trace sources to a `.ctf` file.
//!
//! Recording streams frames straight to disk in one pass (bounded
//! memory), accumulating per-interval summary stats and the content
//! hash on the fly, then writes the footer manifest last.

use std::collections::HashSet;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;

use chrome_sim::trace::TraceSource;
use chrome_sim::types::{AccessKind, TraceRecord, LINE_SHIFT};

use crate::codec::{encode_frame, FRAME_RECORDS};
use crate::format::{
    encode_header, encode_tail, Codec, CoreManifest, IntervalStats, Manifest, TraceFileError,
    HEADER_LEN,
};
use crate::{champsim, hash_record, HASH_BASIS};

/// Default interval length (instructions) for the per-interval summary
/// stats — the paper-standard 100K-instruction granularity.
pub const DEFAULT_INTERVAL_INSTR: u64 = 100_000;

/// Running interval-stat accumulator for one core.
struct IntervalAcc {
    interval_instr: u64,
    cur: IntervalStats,
    lines: HashSet<u64>,
    done: Vec<IntervalStats>,
}

impl IntervalAcc {
    fn new(interval_instr: u64) -> Self {
        IntervalAcc {
            interval_instr,
            cur: fresh_interval(),
            lines: HashSet::new(),
            done: Vec::new(),
        }
    }

    fn push(&mut self, rec: &TraceRecord) {
        let line = rec.vaddr >> LINE_SHIFT;
        self.cur.instructions += 1 + u64::from(rec.nonmem_before);
        self.cur.records += 1;
        match rec.kind {
            AccessKind::Load => self.cur.loads += 1,
            AccessKind::Store => self.cur.stores += 1,
        }
        self.cur.dep_loads += u64::from(rec.dep_prev);
        self.lines.insert(line);
        self.cur.min_line = self.cur.min_line.min(line);
        self.cur.max_line = self.cur.max_line.max(line);
        if self.cur.instructions >= self.interval_instr {
            self.close();
        }
    }

    fn close(&mut self) {
        if self.cur.records == 0 && self.cur.instructions == 0 {
            return;
        }
        self.cur.distinct_lines = self.lines.len() as u64;
        self.done.push(self.cur);
        self.cur = fresh_interval();
        self.lines.clear();
    }

    fn finish(mut self) -> Vec<IntervalStats> {
        self.close();
        self.done
    }
}

fn fresh_interval() -> IntervalStats {
    IntervalStats {
        min_line: u64::MAX,
        ..IntervalStats::default()
    }
}

/// Recompute interval stats from an already-decoded record stream —
/// the same accumulator the recorder runs while capturing, exposed so
/// files recorded before interval stats existed (or with a different
/// interval length) can be clustered too. The leading `dep_prev`
/// canonicalization is applied, matching what the recorder hashed.
#[must_use]
pub fn compute_intervals(records: &[TraceRecord], interval_instr: u64) -> Vec<IntervalStats> {
    let mut acc = IntervalAcc::new(interval_instr.max(1));
    for (i, rec) in records.iter().enumerate() {
        let mut rec = *rec;
        if i == 0 {
            rec.dep_prev = false;
        }
        acc.push(&rec);
    }
    acc.finish()
}

/// Byte-counting writer so stream offsets fall out of the write path.
struct CountingWriter<W: Write> {
    inner: W,
    written: u64,
}

impl<W: Write> CountingWriter<W> {
    fn put(&mut self, bytes: &[u8]) -> Result<(), TraceFileError> {
        self.inner.write_all(bytes)?;
        self.written += bytes.len() as u64;
        Ok(())
    }
}

/// Record `sources` (one per core) to `path` until every core's stream
/// covers at least `quota` instructions. Returns the manifest that was
/// written into the file's footer.
///
/// The canonical record stream is hashed as it is captured; a leading
/// `dep_prev` (which has nothing to depend on and is a timing no-op) is
/// canonicalized to `false` so both codecs of the same workload produce
/// the same content hash.
///
/// # Errors
///
/// I/O failures, a zero `quota`/`interval_instr`, or (ChampSim codec
/// only) a record at address 0.
pub fn record_sources(
    path: &Path,
    mut sources: Vec<Box<dyn TraceSource>>,
    spec: &str,
    quota: u64,
    codec: Codec,
    interval_instr: u64,
) -> Result<Manifest, TraceFileError> {
    if quota == 0 || interval_instr == 0 {
        return Err(TraceFileError::Corrupt(
            "quota and interval length must be positive".into(),
        ));
    }
    if sources.is_empty() || sources.len() > 255 {
        return Err(TraceFileError::Corrupt(format!(
            "recorder needs 1..=255 sources, got {}",
            sources.len()
        )));
    }
    let file = File::create(path)?;
    let mut w = CountingWriter {
        inner: BufWriter::new(file),
        written: 0,
    };
    w.put(&encode_header(codec, sources.len() as u8))?;
    debug_assert_eq!(w.written, HEADER_LEN);

    let mut hash = HASH_BASIS;
    let mut cores = Vec::with_capacity(sources.len());
    for src in &mut sources {
        let stream_off = w.written;
        let mut acc = IntervalAcc::new(interval_instr);
        let mut records = 0u64;
        let mut instructions = 0u64;
        let mut frame: Vec<TraceRecord> = Vec::with_capacity(FRAME_RECORDS);
        let mut champ_enc = champsim::Encoder::new();
        let mut champ_buf: Vec<u8> = Vec::with_capacity(64 * 1024);
        while instructions < quota {
            let mut rec = src.next_record();
            if records == 0 {
                rec.dep_prev = false; // leading dependence is a timing no-op
            }
            hash = hash_record(hash, &rec);
            acc.push(&rec);
            records += 1;
            instructions += 1 + u64::from(rec.nonmem_before);
            match codec {
                Codec::Compact => {
                    frame.push(rec);
                    if frame.len() >= FRAME_RECORDS {
                        w.put(&encode_frame(&frame))?;
                        frame.clear();
                    }
                }
                Codec::ChampSim => {
                    champ_enc.push(&rec, &mut champ_buf)?;
                    if champ_buf.len() >= 64 * 1024 {
                        w.put(&champ_buf)?;
                        champ_buf.clear();
                    }
                }
            }
        }
        match codec {
            Codec::Compact => {
                if !frame.is_empty() {
                    w.put(&encode_frame(&frame))?;
                }
            }
            Codec::ChampSim => {
                champ_enc.flush(&mut champ_buf);
                w.put(&champ_buf)?;
            }
        }
        cores.push(CoreManifest {
            name: src.name().to_string(),
            stream_off,
            stream_len: w.written - stream_off,
            records,
            instructions,
            intervals: acc.finish(),
        });
    }

    let manifest = Manifest {
        codec,
        quota,
        content_hash: hash,
        spec: spec.to_string(),
        interval_instr,
        cores,
    };
    let manifest_off = w.written;
    let bytes = manifest.encode();
    w.put(&bytes)?;
    w.put(&encode_tail(manifest_off, bytes.len() as u32))?;
    w.inner.flush()?;
    Ok(manifest)
}

/// Record a named workload (or `+`-joined heterogeneous mix) built from
/// the `chrome-traces` registry by [`chrome_traces::mix::sources`], the
/// construction grid cells use.
///
/// # Errors
///
/// [`TraceFileError::UnknownWorkload`] for unregistered names, plus
/// everything [`record_sources`] can report.
pub fn record_workload(
    path: &Path,
    workload: &str,
    cores: usize,
    seed: u64,
    quota: u64,
    codec: Codec,
    interval_instr: u64,
) -> Result<Manifest, TraceFileError> {
    let sources = build_workload_sources(workload, cores, seed)?;
    let spec = workload_spec(workload, cores, seed);
    record_sources(path, sources, &spec, quota, codec, interval_instr)
}

/// The canonical generator-spec string stored in recorded manifests.
#[must_use]
pub fn workload_spec(workload: &str, cores: usize, seed: u64) -> String {
    format!("workload={workload};cores={cores};seed={seed}")
}

/// Build the per-core sources for a workload identity exactly as grid
/// cells do, through [`chrome_traces::mix::sources`] (shared by the
/// recorder and `traceinfo --cross-check`).
///
/// # Errors
///
/// [`TraceFileError::Corrupt`] for a `+`-mix whose name count is not
/// `cores`, [`TraceFileError::UnknownWorkload`] for unregistered names.
pub fn build_workload_sources(
    workload: &str,
    cores: usize,
    seed: u64,
) -> Result<Vec<Box<dyn TraceSource>>, TraceFileError> {
    let names = workload.split('+').count();
    if workload.contains('+') && names != cores {
        return Err(TraceFileError::Corrupt(format!(
            "mix {workload} names {names} cores, asked for {cores}"
        )));
    }
    chrome_traces::mix::sources(workload, cores, seed)
        .ok_or_else(|| TraceFileError::UnknownWorkload(workload.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use chrome_sim::trace::StridedSource;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("chrome-tracefile-recorder-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn records_cover_the_quota() {
        let path = tmp("quota.ctf");
        let sources: Vec<Box<dyn TraceSource>> =
            vec![Box::new(StridedSource::new(0x1000, 64, 1 << 16, 3))];
        let m = record_sources(&path, sources, "test", 10_000, Codec::Compact, 2_000).unwrap();
        assert_eq!(m.cores.len(), 1);
        assert!(m.cores[0].instructions >= 10_000);
        // each record covers 4 instructions; overshoot is at most one record
        assert!(m.cores[0].instructions < 10_000 + 4);
        assert!(!m.cores[0].intervals.is_empty());
        let iv_sum: u64 = m.cores[0].intervals.iter().map(|i| i.instructions).sum();
        assert_eq!(iv_sum, m.cores[0].instructions);
        let rec_sum: u64 = m.cores[0].intervals.iter().map(|i| i.records).sum();
        assert_eq!(rec_sum, m.cores[0].records);
    }

    #[test]
    fn both_codecs_hash_identically() {
        let mk = || -> Vec<Box<dyn TraceSource>> {
            vec![Box::new(StridedSource::new(0x1000, 64, 1 << 14, 2))]
        };
        let a = record_sources(&tmp("h1.ctf"), mk(), "t", 5_000, Codec::Compact, 1_000).unwrap();
        let b = record_sources(&tmp("h2.ctf"), mk(), "t", 5_000, Codec::ChampSim, 1_000).unwrap();
        assert_eq!(a.content_hash, b.content_hash);
        assert!(a.total_stream_bytes() < b.total_stream_bytes());
    }

    #[test]
    fn named_workload_records() {
        let path = tmp("mcf.ctf");
        let m = record_workload(&path, "mcf", 2, 42, 20_000, Codec::Compact, 5_000).unwrap();
        assert_eq!(m.cores.len(), 2);
        assert_eq!(m.spec_field("workload"), Some("mcf"));
        assert_eq!(m.spec_field("seed"), Some("42"));
        assert!(record_workload(&tmp("x.ctf"), "nope", 1, 1, 100, Codec::Compact, 100).is_err());
    }

    #[test]
    fn zero_quota_is_rejected() {
        let sources: Vec<Box<dyn TraceSource>> = vec![Box::new(StridedSource::new(0, 64, 1024, 0))];
        assert!(record_sources(&tmp("z.ctf"), sources, "t", 0, Codec::Compact, 100).is_err());
    }
}
