//! # chrome-telemetry — observability for the CHROME reproduction
//!
//! CHROME's control loop is epoch-driven: obstruction detection,
//! delayed rewards and Q-updates all happen against a 100K-cycle epoch
//! clock. End-of-run aggregates hide all of that. This crate makes the
//! dynamics observable:
//!
//! * [`EpochSeries`] — one [`EpochRecord`] per epoch: per-core C-AMAT,
//!   LLC hit/miss/bypass deltas, MSHR and DRAM queue occupancy, EQ
//!   state, ε, and mean |Q|,
//! * [`AttribProfiler`] — per-request latency attribution (where each
//!   request's cycles went),
//! * [`AuditLog`] — the learned policies' per-decision record: every
//!   decision and every reward it later received,
//! * [`export`] — CSV and Chrome `trace_event` writers.
//!
//! Epochs and spans funnel through a [`TelemetrySink`]: a cheap
//! clonable handle that is either recording or a no-op, held by the
//! simulated system and its hierarchy. Disabled sinks cost one branch
//! per hook; the simulator additionally compiles its hooks away when
//! built without its `telemetry` feature. A policy holds no sink: its
//! decisions go to its own audit log.
//!
//! ```
//! use chrome_telemetry::{EpochRecord, TelemetryConfig, TelemetrySink};
//!
//! let sink = TelemetrySink::recording(TelemetryConfig::default());
//! sink.push_epoch(EpochRecord { epoch: 0, end_cycle: 100_000, ..Default::default() });
//! assert_eq!(sink.with(|t| t.epochs.len()), Some(1));
//! assert_eq!(TelemetrySink::noop().with(|t| t.epochs.len()), None);
//! ```

pub mod attrib;
pub mod audit;
pub mod diff;
pub mod epoch;
pub mod export;
pub mod metrics;

use std::cell::RefCell;
use std::io;
use std::path::{Path, PathBuf};
use std::rc::Rc;

pub use attrib::{AttribProfiler, RequestSpan, ServiceLevel, SpanBuilder, Stage, StageAccum};
pub use audit::{
    parse_audit, AuditLog, AuditRecord, AuditSegment, DecisionRecord, RewardRecord, AUDIT_ACTIONS,
    AUDIT_FEATURES,
};
pub use epoch::{EpochRecord, EpochSeries, PolicyEpochProbe};
pub use metrics::Histogram;

/// What a recording sink records beyond epochs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Record per-request latency-attribution spans. Off by default:
    /// span stamping touches every access, so it is opt-in even on a
    /// recording sink.
    pub profile: bool,
}

/// The recorded state behind a live sink.
#[derive(Debug)]
pub struct Telemetry {
    /// Per-epoch system samples.
    pub epochs: EpochSeries,
    /// Per-request latency attribution (populated only when the sink
    /// was configured with `profile: true`).
    pub attrib: AttribProfiler,
}

impl Telemetry {
    fn new() -> Self {
        Telemetry {
            epochs: EpochSeries::new(),
            attrib: AttribProfiler::default(),
        }
    }
}

/// A clonable handle that either records into a shared [`Telemetry`] or
/// does nothing. Every instrumentation hook in the stack takes one of
/// these; the no-op variant reduces each hook to a single branch.
///
/// The simulator is single-threaded, so the shared state is
/// `Rc<RefCell<…>>` — cloning is a pointer copy.
#[derive(Debug, Clone, Default)]
pub struct TelemetrySink {
    inner: Option<Rc<RefCell<Telemetry>>>,
    /// Mirrored from `TelemetryConfig::profile` so hot paths can gate
    /// span creation on a plain bool without touching the `RefCell`.
    profile: bool,
}

impl TelemetrySink {
    /// A sink that drops everything.
    pub fn noop() -> Self {
        TelemetrySink {
            inner: None,
            profile: false,
        }
    }

    /// A live sink recording into fresh storage.
    pub fn recording(cfg: TelemetryConfig) -> Self {
        TelemetrySink {
            inner: Some(Rc::new(RefCell::new(Telemetry::new()))),
            profile: cfg.profile,
        }
    }

    /// True when this sink records.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// True when this sink wants per-request latency spans.
    #[inline]
    pub fn profiling(&self) -> bool {
        self.profile && self.inner.is_some()
    }

    /// Fold a finished request span into the attribution profiler.
    #[inline]
    pub fn record_span(&self, span: RequestSpan) {
        if let Some(t) = &self.inner {
            t.borrow_mut().attrib.record(span);
        }
    }

    /// Run `f` against the recorded state (`None` for a no-op sink).
    pub fn with<T>(&self, f: impl FnOnce(&Telemetry) -> T) -> Option<T> {
        self.inner.as_ref().map(|t| f(&t.borrow()))
    }

    /// Append an epoch record.
    pub fn push_epoch(&self, rec: EpochRecord) {
        if let Some(t) = &self.inner {
            t.borrow_mut().epochs.push(rec);
        }
    }

    /// Drop everything recorded so far (measurement-boundary reset so
    /// warmup does not pollute the exported series).
    pub fn clear(&self) {
        if let Some(t) = &self.inner {
            let mut t = t.borrow_mut();
            t.epochs.clear();
            t.attrib.clear();
        }
    }

    /// Write all artifacts into `dir` as `<prefix>_epochs.csv` and
    /// `<prefix>_trace.json` — plus `<prefix>_attrib.csv` and
    /// `<prefix>_attrib.txt` when profiling. Creates `dir` if missing;
    /// a no-op sink writes nothing and returns an empty list.
    pub fn export(&self, dir: &Path, prefix: &str) -> io::Result<Vec<PathBuf>> {
        let Some(t) = &self.inner else {
            return Ok(Vec::new());
        };
        std::fs::create_dir_all(dir)?;
        let t = t.borrow();
        let mut files = vec![
            (format!("{prefix}_epochs.csv"), export::epoch_csv(&t.epochs)),
            (
                format!("{prefix}_trace.json"),
                export::chrome_trace_json(&t.epochs, t.attrib.spans()),
            ),
        ];
        if self.profile {
            files.push((
                format!("{prefix}_attrib.csv"),
                export::attrib_csv(&t.attrib),
            ));
            files.push((
                format!("{prefix}_attrib.txt"),
                export::attrib_text(&t.attrib),
            ));
        }
        let mut written = Vec::with_capacity(files.len());
        for (name, contents) in files {
            let path = dir.join(name);
            std::fs::write(&path, contents)?;
            written.push(path);
        }
        Ok(written)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_sink_records_nothing() {
        let s = TelemetrySink::noop();
        assert!(!s.is_enabled());
        s.push_epoch(EpochRecord::default());
        assert_eq!(s.with(|t| t.epochs.len()), None);
    }

    #[test]
    fn clones_share_storage() {
        let a = TelemetrySink::recording(TelemetryConfig::default());
        let b = a.clone();
        b.push_epoch(EpochRecord::default());
        a.push_epoch(EpochRecord::default());
        assert_eq!(a.with(|t| t.epochs.len()), Some(2));
    }

    #[test]
    fn clear_resets_all_streams() {
        let s = TelemetrySink::recording(TelemetryConfig::default());
        s.push_epoch(EpochRecord::default());
        s.clear();
        assert_eq!(s.with(|t| t.epochs.len()), Some(0));
    }

    #[test]
    fn export_writes_all_artifacts() {
        let dir = std::env::temp_dir().join("chrome-telemetry-test-export");
        let _ = std::fs::remove_dir_all(&dir);
        let s = TelemetrySink::recording(TelemetryConfig::default());
        s.push_epoch(EpochRecord {
            epoch: 0,
            end_cycle: 5,
            ..Default::default()
        });
        let files = s.export(&dir, "run0").unwrap();
        assert_eq!(files.len(), 2);
        for f in &files {
            assert!(f.exists(), "{f:?} missing");
        }
        let csv = std::fs::read_to_string(dir.join("run0_epochs.csv")).unwrap();
        assert_eq!(csv.lines().count(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn profiling_sink_records_spans_and_exports_attrib() {
        let dir = std::env::temp_dir().join("chrome-telemetry-test-profile");
        let _ = std::fs::remove_dir_all(&dir);
        let s = TelemetrySink::recording(TelemetryConfig { profile: true });
        assert!(s.profiling());
        assert!(!TelemetrySink::noop().profiling());
        let b = SpanBuilder::start(0, 0x400, 7, false, 100);
        s.record_span(b.finish(ServiceLevel::L1, Stage::L1Lookup, 104, false));
        assert_eq!(s.with(|t| t.attrib.total_requests()), Some(1));
        let files = s.export(&dir, "run0").unwrap();
        assert_eq!(files.len(), 4, "attrib csv+txt join the artifact set");
        assert!(dir.join("run0_attrib.csv").exists());
        assert!(dir.join("run0_attrib.txt").exists());
        s.clear();
        assert_eq!(s.with(|t| t.attrib.total_requests()), Some(0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn noop_export_writes_nothing() {
        let dir = std::env::temp_dir().join("chrome-telemetry-test-noop");
        let _ = std::fs::remove_dir_all(&dir);
        let files = TelemetrySink::noop().export(&dir, "x").unwrap();
        assert!(files.is_empty());
        assert!(!dir.exists(), "no-op export must not create the dir");
    }
}
