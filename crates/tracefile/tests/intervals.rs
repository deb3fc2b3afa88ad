//! Property tests for footer interval stats: per-core interval sums
//! must exactly equal the manifest totals, including when the recorded
//! source itself wraps around (re-recording from a `FileSource`), and
//! missing or structurally inconsistent interval metadata must fail at
//! open.

use std::path::PathBuf;

use chrome_sim::rng::SmallRng;
use chrome_sim::trace::TraceSource;
use chrome_sim::types::{AccessKind, TraceRecord};
use chrome_tracefile::recorder::record_sources;
use chrome_tracefile::{codec, compute_intervals, format, CoreManifest, Manifest, TraceFile};

fn tmpdir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("chrome-intervals-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A random-but-plausible stream (the leading record never carries
/// `dep_prev`).
fn random_stream(rng: &mut SmallRng, len: usize) -> Vec<TraceRecord> {
    let mut pc = 0x400_000u64;
    let mut vaddr = 0x10_0000u64;
    let mut out = Vec::with_capacity(len);
    for i in 0..len {
        pc = pc.wrapping_add(4 + (rng.next_u64() % 32));
        vaddr = match rng.next_u64() % 3 {
            0 => vaddr.wrapping_add(64),
            1 => rng.next_u64() | 1,
            _ => vaddr.wrapping_sub(8),
        };
        out.push(TraceRecord {
            nonmem_before: (rng.next_u64() % 50) as u16,
            pc,
            vaddr,
            kind: if rng.next_u64().is_multiple_of(3) {
                AccessKind::Store
            } else {
                AccessKind::Load
            },
            dep_prev: i > 0 && rng.next_u64().is_multiple_of(5),
        });
    }
    out
}

/// An infinite in-memory source that replays `recs` with wraparound —
/// the same contract a `FileSource` provides.
struct Replay {
    recs: Vec<TraceRecord>,
    i: usize,
}

impl TraceSource for Replay {
    fn next_record(&mut self) -> TraceRecord {
        let r = self.recs[self.i % self.recs.len()];
        self.i += 1;
        r
    }
    fn name(&self) -> &str {
        "replay"
    }
}

fn assert_intervals_consistent(tf: &TraceFile, label: &str) {
    let m = tf.manifest();
    for (i, core) in m.cores.iter().enumerate() {
        assert!(
            !core.intervals.is_empty(),
            "{label}: core {i} recorded no intervals"
        );
        let instr: u64 = core.intervals.iter().map(|iv| iv.instructions).sum();
        let recs: u64 = core.intervals.iter().map(|iv| iv.records).sum();
        assert_eq!(instr, core.instructions, "{label}: core {i} instr sum");
        assert_eq!(recs, core.records, "{label}: core {i} record sum");
        for (j, iv) in core.intervals.iter().enumerate() {
            assert_eq!(
                iv.loads + iv.stores,
                iv.records,
                "{label}: core {i} interval {j} load/store split"
            );
            assert!(iv.dep_loads <= iv.records);
            if j + 1 < core.intervals.len() {
                // every interval except the trailing partial one spans
                // at least the configured length (overshoot is bounded
                // by one record's non-memory run)
                assert!(
                    iv.instructions >= m.interval_instr,
                    "{label}: core {i} interval {j} shorter than {}",
                    m.interval_instr
                );
            }
        }
    }
}

#[test]
fn interval_sums_match_totals_for_all_codecs() {
    let mut rng = SmallRng::seed_from_u64(0x51AB);
    for case in 0..8 {
        let n_cores = 1 + (rng.next_u64() % 3) as usize;
        let interval = 500 + rng.next_u64() % 4_000;
        let quota = 5_000 + rng.next_u64() % 30_000;
        let sources: Vec<Box<dyn TraceSource>> = (0..n_cores)
            .map(|_| {
                let len = 200 + (rng.next_u64() % 2_000) as usize;
                Box::new(Replay {
                    recs: random_stream(&mut rng, len),
                    i: 0,
                }) as Box<dyn TraceSource>
            })
            .collect();
        let path = tmpdir().join(format!("sum-{case}.ctf"));
        record_sources(&path, sources, "test", quota, interval).unwrap();
        let tf = TraceFile::open(&path).unwrap();
        assert_intervals_consistent(&tf, &format!("case {case}"));
    }
}

#[test]
fn wraparound_rerecording_keeps_sums_exact() {
    // Record a short trace, then re-record *from its own FileSource*
    // with a quota several times the content: the reader wraps, and the
    // interval sums of the re-recording must still tile exactly.
    let mut rng = SmallRng::seed_from_u64(0x1007);
    let base = tmpdir().join("wrap-base.ctf");
    let sources: Vec<Box<dyn TraceSource>> = vec![Box::new(Replay {
        recs: random_stream(&mut rng, 400),
        i: 0,
    })];
    let m0 = record_sources(&base, sources, "test", 4_000, 1_000).unwrap();
    let tf0 = TraceFile::open(&base).unwrap();
    let rerec = tmpdir().join("wrap-re.ctf");
    let wrapping: Vec<Box<dyn TraceSource>> = vec![Box::new(tf0.source(0).unwrap())];
    let quota = m0.cores[0].instructions * 3 + 777; // force >3 wraps
    record_sources(&rerec, wrapping, "test", quota, 1_500).unwrap();
    let tf = TraceFile::open(&rerec).unwrap();
    assert!(tf.manifest().cores[0].instructions >= quota);
    assert_intervals_consistent(&tf, "wrap");
}

#[test]
fn recomputed_intervals_match_recorded_ones() {
    let mut rng = SmallRng::seed_from_u64(0xFACE);
    let path = tmpdir().join("recompute.ctf");
    let sources: Vec<Box<dyn TraceSource>> = vec![Box::new(Replay {
        recs: random_stream(&mut rng, 900),
        i: 0,
    })];
    record_sources(&path, sources, "test", 20_000, 2_500).unwrap();
    let tf = TraceFile::open(&path).unwrap();
    let decoded = tf.decode_core(0).unwrap();
    let recomputed = compute_intervals(&decoded, tf.manifest().interval_instr);
    assert_eq!(recomputed, tf.manifest().cores[0].intervals);
}

/// Hand-assemble a container around `manifest` (one core stream of
/// `recs`) so invalid manifests that the recorder refuses to produce can
/// still be exercised against `TraceFile::open`.
fn write_container(path: &PathBuf, recs: &[TraceRecord], manifest: &Manifest) {
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&format::encode_header(1));
    bytes.extend_from_slice(&codec::encode_frame(recs));
    let moff = bytes.len() as u64;
    let mbytes = manifest.encode();
    bytes.extend_from_slice(&mbytes);
    bytes.extend_from_slice(&format::encode_tail(moff, mbytes.len() as u32));
    std::fs::write(path, &bytes).unwrap();
}

fn one_core_manifest(recs: &[TraceRecord], stream_len: u64, interval_instr: u64) -> Manifest {
    let instructions: u64 = recs.iter().map(|r| 1 + u64::from(r.nonmem_before)).sum();
    Manifest {
        quota: instructions,
        content_hash: 0, // open does not rehash; verify would
        spec: String::new(),
        interval_instr,
        cores: vec![CoreManifest {
            name: "hand".into(),
            stream_off: format::HEADER_LEN,
            stream_len,
            records: recs.len() as u64,
            instructions,
            intervals: compute_intervals(recs, interval_instr.max(1)),
        }],
    }
}

#[test]
fn zero_interval_length_fails_to_open() {
    let recs = random_stream(&mut SmallRng::seed_from_u64(7), 50);
    let stream_len = codec::encode_frame(&recs).len() as u64;
    let mut manifest = one_core_manifest(&recs, stream_len, 1_000);
    manifest.interval_instr = 0;
    let path = tmpdir().join("zero-interval.ctf");
    write_container(&path, &recs, &manifest);
    let err = TraceFile::open(&path).unwrap_err();
    assert!(
        err.to_string().contains("interval length is zero"),
        "unexpected error: {err}"
    );
}

#[test]
fn inconsistent_interval_sums_fail_to_open() {
    let recs = random_stream(&mut SmallRng::seed_from_u64(8), 50);
    let stream_len = codec::encode_frame(&recs).len() as u64;
    let mut manifest = one_core_manifest(&recs, stream_len, 1_000);
    manifest.cores[0].intervals[0].instructions += 1;
    let path = tmpdir().join("bad-sums.ctf");
    write_container(&path, &recs, &manifest);
    let err = TraceFile::open(&path).unwrap_err();
    assert!(
        err.to_string().contains("interval stats sum"),
        "unexpected error: {err}"
    );
}

#[test]
fn empty_interval_list_fails_to_open() {
    // every recording writes at least one interval per core, so a core
    // without interval stats is corrupt
    let recs = random_stream(&mut SmallRng::seed_from_u64(9), 300);
    let stream_len = codec::encode_frame(&recs).len() as u64;
    let mut manifest = one_core_manifest(&recs, stream_len, 1_000);
    manifest.cores[0].intervals.clear();
    let path = tmpdir().join("no-intervals.ctf");
    write_container(&path, &recs, &manifest);
    let err = TraceFile::open(&path).unwrap_err();
    assert!(
        err.to_string()
            .contains("core 0 carries no interval stats; re-record"),
        "unexpected error: {err}"
    );
}
