//! Directory index: resolve workload identities to trace files.
//!
//! The grid runner (`--trace-dir`) scans a directory of `.ctf` files
//! once, keys each by the generator identity stored in its manifest
//! (`workload`, `cores`, `seed`), and then resolves every grid cell
//! that matches to file-backed replay. Files whose manifests do not
//! carry that identity (recorded from ad-hoc sources) are skipped, not
//! errors; files that fail structural validation are reported.

use std::collections::HashMap;
use std::path::{Path, PathBuf};

use crate::format::TraceFileError;
use crate::reader::TraceFile;

/// One usable trace file found in a scanned directory.
#[derive(Debug, Clone)]
pub struct TraceEntry {
    /// Path to the `.ctf` file.
    pub path: PathBuf,
    /// Canonical content hash from the manifest.
    pub content_hash: u64,
    /// Per-core instruction quota the file was recorded with.
    pub quota: u64,
}

impl TraceEntry {
    /// The content hash as fixed-width hex, as mixed into spec hashes.
    #[must_use]
    pub fn hash_hex(&self) -> String {
        format!("{:016x}", self.content_hash)
    }
}

/// An index over every valid, workload-identified `.ctf` in a directory.
#[derive(Debug, Default)]
pub struct TraceIndex {
    entries: HashMap<(String, usize, u64), TraceEntry>,
    /// Files that looked like traces but failed to open, with reasons.
    pub rejected: Vec<(PathBuf, String)>,
}

impl TraceIndex {
    /// Scan `dir` (non-recursively) for `*.ctf` files.
    ///
    /// # Errors
    ///
    /// Only if the directory itself cannot be read; unreadable or
    /// unidentified individual files land in `rejected` / are skipped.
    pub fn scan(dir: &Path) -> Result<Self, TraceFileError> {
        let mut idx = TraceIndex::default();
        let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "ctf"))
            .collect();
        paths.sort(); // deterministic precedence when identities collide
        for path in paths {
            match TraceFile::open(&path) {
                Ok(tf) => {
                    let m = tf.manifest();
                    let identity = (
                        m.spec_field("workload").map(str::to_string),
                        m.spec_field("cores").and_then(|c| c.parse::<usize>().ok()),
                        m.spec_field("seed").and_then(|s| s.parse::<u64>().ok()),
                    );
                    let (Some(workload), Some(cores), Some(seed)) = identity else {
                        continue; // valid file, but not workload-identified
                    };
                    if cores != m.cores.len() {
                        idx.rejected.push((
                            path,
                            format!(
                                "spec says {cores} cores but file holds {} streams",
                                m.cores.len()
                            ),
                        ));
                        continue;
                    }
                    let entry = TraceEntry {
                        path,
                        content_hash: m.content_hash,
                        quota: m.quota,
                    };
                    idx.entries.insert((workload, cores, seed), entry);
                }
                Err(e) => idx.rejected.push((path, e.to_string())),
            }
        }
        Ok(idx)
    }

    /// Resolve a workload identity to its trace file, if recorded here.
    #[must_use]
    pub fn lookup(&self, workload: &str, cores: usize, seed: u64) -> Option<&TraceEntry> {
        self.entries.get(&(workload.to_string(), cores, seed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::record_workload;

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("chrome-tracefile-index-tests")
            .join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn scan_indexes_by_workload_identity() {
        let dir = tmpdir("scan");
        let a = record_workload(&dir.join("a.ctf"), "mcf", 1, 7, 5_000, 1_000).unwrap();
        record_workload(&dir.join("b.ctf"), "lbm", 2, 7, 5_000, 1_000).unwrap();
        std::fs::write(dir.join("junk.ctf"), b"not a trace").unwrap();
        std::fs::write(dir.join("ignored.txt"), b"whatever").unwrap();

        let idx = TraceIndex::scan(&dir).unwrap();
        assert_eq!(idx.rejected.len(), 1, "junk.ctf is rejected with a reason");
        let e = idx.lookup("mcf", 1, 7).expect("mcf indexed");
        assert_eq!(e.path, dir.join("a.ctf"));
        assert_eq!(e.content_hash, a.content_hash);
        assert_eq!(e.quota, 5_000);
        assert!(idx.lookup("lbm", 2, 7).is_some(), "lbm indexed");
        assert!(idx.lookup("mcf", 2, 7).is_none(), "core count is identity");
        assert!(idx.lookup("mcf", 1, 8).is_none(), "seed is identity");
    }

    #[test]
    fn scan_rejects_a_codec_tag_1_file() {
        let dir = tmpdir("tag");
        let path = dir.join("mcf.ctf");
        record_workload(&path, "mcf", 1, 7, 5_000, 1_000).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[6] = 1; // the header's codec byte
        std::fs::write(&path, bytes).unwrap();

        let idx = TraceIndex::scan(&dir).unwrap();
        assert!(idx.lookup("mcf", 1, 7).is_none());
        assert_eq!(idx.rejected.len(), 1);
        assert_eq!(idx.rejected[0].0, path);
        assert!(
            idx.rejected[0].1.contains("codec tag 1"),
            "{:?}",
            idx.rejected
        );
    }

    #[test]
    fn missing_directory_is_an_error() {
        let dir = tmpdir("gone").join("nope");
        assert!(TraceIndex::scan(&dir).is_err());
    }
}
