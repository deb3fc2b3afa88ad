//! The run manifest: a JSONL checkpoint log with one fsynced record per
//! completed cell. `--resume` replays it to skip finished work after a
//! killed run; the torn final line such a kill can leave behind is
//! detected (it fails to parse) and ignored.
//!
//! Record schema (one object per line):
//!
//! ```json
//! {"spec_hash":"<hex16>","experiment":"...","workload":"...",
//!  "scheme":"...","status":"ok|failed","duration_ms":123,
//!  "digest":"<hex16>","error":"","artifacts":["..."],"payload":{...}}
//! ```
//!
//! `payload` is the codec-encoded cell result (only for `status:"ok"`);
//! `digest` is FNV-1a 64 of the encoded payload text, the quantity the
//! determinism tests compare across thread counts. The loader ignores
//! fields it does not know, so a manifest carrying a field this build no
//! longer writes still resumes.

use std::fs::{File, OpenOptions};
use std::io::{self, BufRead as _, BufReader, Write as _};
use std::path::Path;
use std::sync::Mutex;

use crate::json::{self, JsonValue};
use crate::spec::fnv1a64;

/// One parsed manifest record.
#[derive(Debug, Clone)]
pub struct ManifestRecord {
    /// [`crate::CellSpec::hash_hex`] of the cell this records.
    pub spec_hash: String,
    /// Owning experiment (informational; the hash is the key).
    pub experiment: String,
    /// Workload / mix label.
    pub workload: String,
    /// Scheme name.
    pub scheme: String,
    /// `"ok"` or `"failed"`.
    pub status: String,
    /// Wall-clock milliseconds the cell ran.
    pub duration_ms: u64,
    /// FNV-1a 64 hex of the encoded payload (empty when failed).
    pub digest: String,
    /// Panic payload (empty when ok).
    pub error: String,
    /// Artifact files the cell exported (telemetry, traces, ...).
    pub artifacts: Vec<String>,
    /// The encoded cell result (present when ok).
    pub payload: Option<JsonValue>,
}

impl ManifestRecord {
    /// Whether this record certifies a completed cell.
    #[must_use]
    pub fn is_ok(&self) -> bool {
        self.status == "ok"
    }

    fn from_json(v: &JsonValue) -> Option<ManifestRecord> {
        let s = |k: &str| v.get(k).and_then(JsonValue::as_str).map(str::to_string);
        Some(ManifestRecord {
            spec_hash: s("spec_hash")?,
            experiment: s("experiment")?,
            workload: s("workload")?,
            scheme: s("scheme")?,
            status: s("status")?,
            duration_ms: v.get("duration_ms")?.as_u64()?,
            digest: s("digest")?,
            error: s("error")?,
            artifacts: v
                .get("artifacts")?
                .as_arr()?
                .iter()
                .filter_map(|a| a.as_str().map(str::to_string))
                .collect(),
            payload: v.get("payload").cloned(),
        })
    }

    fn render(&self) -> String {
        let artifacts: Vec<String> = self
            .artifacts
            .iter()
            .map(|a| format!("\"{}\"", json::escape(a)))
            .collect();
        let payload = self
            .payload
            .as_ref()
            .map_or_else(|| "null".to_string(), JsonValue::render);
        format!(
            "{{\"spec_hash\":\"{}\",\"experiment\":\"{}\",\"workload\":\"{}\",\
             \"scheme\":\"{}\",\"status\":\"{}\",\"duration_ms\":{},\
             \"digest\":\"{}\",\"error\":\"{}\",\
             \"artifacts\":[{}],\"payload\":{}}}",
            json::escape(&self.spec_hash),
            json::escape(&self.experiment),
            json::escape(&self.workload),
            json::escape(&self.scheme),
            json::escape(&self.status),
            self.duration_ms,
            json::escape(&self.digest),
            json::escape(&self.error),
            artifacts.join(","),
            payload,
        )
    }
}

/// Digest of an encoded payload: FNV-1a 64 as fixed-width hex.
#[must_use]
pub fn payload_digest(encoded: &str) -> String {
    format!("{:016x}", fnv1a64(encoded.as_bytes()))
}

/// Append-only manifest writer. Every [`ManifestWriter::append`] writes
/// one line and fsyncs it, so a record present in the file is durable —
/// a killed run loses at most the (torn, hence ignored) final line.
#[derive(Debug)]
pub struct ManifestWriter {
    file: Mutex<File>,
}

impl ManifestWriter {
    /// Open for a fresh run (truncates) or a resumed one (appends).
    /// Creates parent directories as needed.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from directory or file creation.
    pub fn open(path: &Path, resume: bool) -> io::Result<ManifestWriter> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let file = OpenOptions::new()
            .create(true)
            .append(resume)
            .write(true)
            .truncate(!resume)
            .open(path)?;
        Ok(ManifestWriter {
            file: Mutex::new(file),
        })
    }

    /// Durably append one record (write + fsync under the lock).
    ///
    /// # Errors
    ///
    /// Propagates write/fsync errors.
    ///
    /// # Panics
    ///
    /// Panics if the writer mutex was poisoned.
    pub fn append(&self, rec: &ManifestRecord) -> io::Result<()> {
        let line = rec.render();
        let mut f = self.file.lock().expect("manifest lock");
        f.write_all(line.as_bytes())?;
        f.write_all(b"\n")?;
        f.sync_data()
    }
}

/// Load every complete record from a manifest file. Lines that fail to
/// parse (torn tail from a killed run, manual edits) are skipped. A
/// missing file is an empty manifest, not an error.
///
/// # Errors
///
/// Propagates I/O errors other than `NotFound`.
pub fn load(path: &Path) -> io::Result<Vec<ManifestRecord>> {
    let file = match File::open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e),
    };
    let mut out = Vec::new();
    for line in BufReader::new(file).lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        if let Some(rec) = json::parse(&line)
            .as_ref()
            .and_then(ManifestRecord::from_json)
        {
            out.push(rec);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn rec(hash: &str, status: &str) -> ManifestRecord {
        ManifestRecord {
            spec_hash: hash.to_string(),
            experiment: "fig06".into(),
            workload: "mcf".into(),
            scheme: "LRU".into(),
            status: status.into(),
            duration_ms: 42,
            digest: "00ff".into(),
            error: if status == "ok" {
                String::new()
            } else {
                "boom \"quoted\"".into()
            },
            artifacts: vec!["results/a.csv".into()],
            payload: json::parse(r#"{"ipc":[1.5,2.25]}"#),
        }
    }

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "chrome_exec_manifest_{}_{name}",
            std::process::id()
        ))
    }

    #[test]
    fn roundtrip_through_file() {
        let path = tmp("roundtrip");
        let w = ManifestWriter::open(&path, false).unwrap();
        w.append(&rec("aa", "ok")).unwrap();
        w.append(&rec("bb", "failed")).unwrap();
        let recs = load(&path).unwrap();
        assert_eq!(recs.len(), 2);
        assert!(recs[0].is_ok());
        assert_eq!(recs[0].spec_hash, "aa");
        assert_eq!(
            recs[0]
                .payload
                .as_ref()
                .unwrap()
                .get("ipc")
                .unwrap()
                .as_arr()
                .unwrap()
                .len(),
            2
        );
        assert!(!recs[1].is_ok());
        assert_eq!(recs[1].error, "boom \"quoted\"");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_is_ignored() {
        let path = tmp("torn");
        let w = ManifestWriter::open(&path, false).unwrap();
        w.append(&rec("aa", "ok")).unwrap();
        // simulate a kill mid-write: a half line with no newline
        use std::io::Write as _;
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"{\"spec_hash\":\"bb\",\"exper").unwrap();
        drop(f);
        let recs = load(&path).unwrap();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].spec_hash, "aa");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fresh_open_truncates_resume_appends() {
        let path = tmp("trunc");
        let w = ManifestWriter::open(&path, false).unwrap();
        w.append(&rec("aa", "ok")).unwrap();
        drop(w);
        let w = ManifestWriter::open(&path, true).unwrap();
        w.append(&rec("bb", "ok")).unwrap();
        drop(w);
        assert_eq!(load(&path).unwrap().len(), 2);
        let w = ManifestWriter::open(&path, false).unwrap();
        drop(w);
        assert!(load(&path).unwrap().is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_empty() {
        assert!(load(Path::new("/nonexistent/manifest.jsonl"))
            .unwrap()
            .is_empty());
    }
}
