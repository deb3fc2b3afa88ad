//! The grid engine.
//!
//! [`run_grid`] executes a declarative list of [`CellSpec`]s across
//! `jobs` OS threads. Workers claim pending cells in input order through
//! one shared atomic cursor, so claiming a cell takes no lock. Because
//! cells are mutually independent and results are written into a slot
//! keyed by input index, assembly order — and therefore every output
//! table — is identical at any thread count.
//!
//! Each cell attempt runs under [`std::panic::catch_unwind`]: a panic
//! anywhere inside a cell is converted into a recorded failure, retried
//! up to `retries` more times with capped exponential backoff, and
//! never takes down the run. With a manifest configured, every terminal
//! cell state is durably appended (fsync per record); `resume: true`
//! pre-fills outcomes for cells whose spec hash already has an `ok`
//! record, so a killed run continues where it died.

use std::collections::HashMap;
use std::io;
use std::panic::{self, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Mutex, Once};
use std::time::{Duration, Instant};

use crate::json::{self, JsonValue};
use crate::manifest::{self, payload_digest, ManifestRecord, ManifestWriter};
use crate::progress::{self, Event};
use crate::spec::CellSpec;

/// Serialization between cell results and their manifest payloads.
///
/// `encode` must emit a single-line JSON value whose parse/`decode`
/// round-trip is lossless — resumed cells feed decoded payloads into
/// the same assembly code as freshly executed ones, and the determinism
/// guarantee covers both paths.
pub trait Codec<T> {
    /// Encode a result as compact single-line JSON.
    fn encode(&self, value: &T) -> String;
    /// Decode a manifest payload; `None` rejects the record (the cell
    /// re-runs instead of resuming).
    fn decode(&self, payload: &JsonValue) -> Option<T>;
    /// Artifact paths the result references, recorded in the manifest.
    fn artifacts(&self, _value: &T) -> Vec<String> {
        Vec::new()
    }
}

/// A codec for plain-string results (exec's own tests, simple grids).
#[derive(Debug, Clone, Copy, Default)]
pub struct StringCodec;

impl Codec<String> for StringCodec {
    fn encode(&self, value: &String) -> String {
        format!("\"{}\"", json::escape(value))
    }

    fn decode(&self, payload: &JsonValue) -> Option<String> {
        payload.as_str().map(str::to_string)
    }
}

/// Engine configuration (CLI: `--jobs N --retries K --resume`).
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Worker threads; `0` means available parallelism.
    pub jobs: usize,
    /// Extra attempts after a first panicking one (0 = fail fast).
    pub retries: u32,
    /// Base backoff before a retry; doubles per attempt.
    pub backoff_ms: u64,
    /// Backoff ceiling.
    pub backoff_cap_ms: u64,
    /// Checkpoint manifest path; `None` disables checkpointing.
    pub manifest_path: Option<PathBuf>,
    /// Skip cells with an `ok` manifest record instead of re-running.
    pub resume: bool,
    /// Paint live progress/ETA to stderr.
    pub progress: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            jobs: 0,
            retries: 2,
            backoff_ms: 50,
            backoff_cap_ms: 2_000,
            manifest_path: None,
            resume: false,
            progress: false,
        }
    }
}

impl EngineConfig {
    /// The effective worker count for `n` schedulable cells.
    #[must_use]
    pub fn effective_jobs(&self, n: usize) -> usize {
        let auto = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        let jobs = if self.jobs == 0 { auto } else { self.jobs };
        jobs.clamp(1, n.max(1))
    }
}

/// Terminal state of one cell after the grid ran.
#[derive(Debug, Clone)]
pub struct CellOutcome<T> {
    /// The spec this outcome belongs to.
    pub spec: CellSpec,
    /// The result, when the cell succeeded (freshly or via resume).
    pub result: Option<T>,
    /// Panic payload of the final failed attempt.
    pub error: Option<String>,
    /// Attempts spent (resumed cells report the manifest's count).
    pub attempts: u32,
    /// Wall milliseconds across attempts (manifest value when resumed).
    pub duration_ms: u64,
    /// Whether the result was restored from the manifest, not executed.
    pub resumed: bool,
}

impl<T> CellOutcome<T> {
    /// Whether the cell has a usable result.
    #[must_use]
    pub fn ok(&self) -> bool {
        self.result.is_some()
    }

    /// Borrow the result if present.
    #[must_use]
    pub fn value(&self) -> Option<&T> {
        self.result.as_ref()
    }
}

/// What a whole grid run produced.
#[derive(Debug)]
pub struct GridReport<T> {
    /// One outcome per input spec, in input order.
    pub outcomes: Vec<CellOutcome<T>>,
    /// Cells actually executed this run.
    pub executed: usize,
    /// Cells restored from the manifest.
    pub resumed: usize,
    /// Cells that failed permanently (all attempts panicked).
    pub failed: usize,
    /// Wall milliseconds for the whole grid.
    pub wall_ms: u64,
}

impl<T> GridReport<T> {
    /// Labels + errors of permanently failed cells, for summaries.
    #[must_use]
    pub fn failures(&self) -> Vec<(String, String)> {
        self.outcomes
            .iter()
            .filter(|o| !o.ok())
            .map(|o| {
                (
                    o.spec.label(),
                    o.error.clone().unwrap_or_else(|| "unknown".to_string()),
                )
            })
            .collect()
    }
}

thread_local! {
    static IN_CELL: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

static PANIC_FILTER: Once = Once::new();

/// Install (once, process-wide) a panic hook that suppresses the
/// default backtrace spew for panics happening inside a cell — those
/// are caught, recorded and retried; the payload ends up in the
/// manifest and the failure summary instead. Panics outside cells keep
/// the previous hook's behavior.
fn install_panic_filter() {
    PANIC_FILTER.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !IN_CELL.with(std::cell::Cell::get) {
                prev(info);
            }
        }));
    });
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

fn backoff(cfg: &EngineConfig, attempt: u32) -> Duration {
    let ms = cfg
        .backoff_ms
        .saturating_mul(1u64 << (attempt - 1).min(16))
        .min(cfg.backoff_cap_ms);
    Duration::from_millis(ms)
}

/// Execute a grid of cells and return one outcome per spec, in spec
/// order. See the module docs for scheduling, fault-isolation and
/// checkpoint semantics.
///
/// # Errors
///
/// Returns an error only for manifest I/O failures (open/append/fsync);
/// cell panics are recorded in the outcomes, never propagated.
///
/// # Panics
///
/// Panics if internal locks are poisoned (a worker panicked outside a
/// cell, which the engine itself does not do).
pub fn run_grid<T, C, F>(
    specs: Vec<CellSpec>,
    cfg: &EngineConfig,
    codec: &C,
    run: F,
) -> io::Result<GridReport<T>>
where
    T: Send,
    C: Codec<T> + Sync + ?Sized,
    F: Fn(&CellSpec) -> T + Sync,
{
    install_panic_filter();
    let started = Instant::now();
    let n = specs.len();

    // Resume: load prior records before opening (a fresh open truncates).
    let mut prior: HashMap<String, ManifestRecord> = HashMap::new();
    if cfg.resume {
        if let Some(path) = &cfg.manifest_path {
            for rec in manifest::load(path)? {
                if rec.is_ok() {
                    prior.insert(rec.spec_hash.clone(), rec);
                }
            }
        }
    }
    let writer = match &cfg.manifest_path {
        Some(path) => Some(ManifestWriter::open(path, cfg.resume)?),
        None => None,
    };

    let mut outcomes: Vec<Option<CellOutcome<T>>> = Vec::with_capacity(n);
    let mut pending: Vec<usize> = Vec::new();
    for (i, spec) in specs.iter().enumerate() {
        let restored = prior.get(&spec.hash_hex()).and_then(|rec| {
            let value = codec.decode(rec.payload.as_ref()?)?;
            Some(CellOutcome {
                spec: spec.clone(),
                result: Some(value),
                error: None,
                attempts: rec.attempts,
                duration_ms: rec.duration_ms,
                resumed: true,
            })
        });
        match restored {
            Some(o) => outcomes.push(Some(o)),
            None => {
                outcomes.push(None);
                pending.push(i);
            }
        }
    }
    let resumed = n - pending.len();

    let workers = cfg.effective_jobs(pending.len());
    // Index into `pending` of the next unclaimed cell. Relaxed suffices:
    // the cursor publishes no data (`pending` is shared read-only before
    // the workers start), and `fetch_add` alone hands each index out once.
    let cursor = AtomicUsize::new(0);

    let results: Mutex<Vec<Option<CellOutcome<T>>>> = Mutex::new(outcomes);
    let io_error: Mutex<Option<io::Error>> = Mutex::new(None);
    let (tx, rx) = mpsc::channel::<Event>();

    std::thread::scope(|scope| {
        if cfg.progress {
            let scheduled = pending.len();
            scope.spawn(move || progress::run_reporter(scheduled, resumed, &rx));
        } else {
            drop(rx);
        }
        for _ in 0..workers {
            let tx = tx.clone();
            let cursor = &cursor;
            let pending = &pending;
            let specs = &specs;
            let results = &results;
            let io_error = &io_error;
            let writer = writer.as_ref();
            let run = &run;
            scope.spawn(move || loop {
                if io_error.lock().expect("io error lock").is_some() {
                    break;
                }
                let Some(&idx) = pending.get(cursor.fetch_add(1, Ordering::Relaxed)) else {
                    break;
                };
                let spec = &specs[idx];
                let _ = tx.send(Event::Started);
                let t0 = Instant::now();
                let max_attempts = cfg.retries.saturating_add(1);
                let mut attempts = 0u32;
                let mut error = String::new();
                let mut value: Option<T> = None;
                while attempts < max_attempts {
                    attempts += 1;
                    IN_CELL.with(|c| c.set(true));
                    let caught = panic::catch_unwind(AssertUnwindSafe(|| run(spec)));
                    IN_CELL.with(|c| c.set(false));
                    match caught {
                        Ok(v) => {
                            value = Some(v);
                            break;
                        }
                        Err(payload) => {
                            error = panic_message(payload.as_ref());
                            if attempts < max_attempts {
                                let _ = tx.send(Event::Retried(spec.label(), attempts + 1));
                                std::thread::sleep(backoff(cfg, attempts));
                            }
                        }
                    }
                }
                let duration_ms = t0.elapsed().as_millis() as u64;
                if let Some(writer) = writer {
                    let (status, digest, payload, artifacts) = match &value {
                        Some(v) => {
                            let encoded = codec.encode(v);
                            let parsed = json::parse(&encoded);
                            debug_assert!(parsed.is_some(), "codec produced invalid JSON");
                            let text = parsed
                                .as_ref()
                                .map_or_else(|| "null".to_string(), JsonValue::render);
                            ("ok", payload_digest(&text), parsed, codec.artifacts(v))
                        }
                        None => ("failed", String::new(), None, Vec::new()),
                    };
                    let rec = ManifestRecord {
                        spec_hash: spec.hash_hex(),
                        experiment: spec.experiment.clone(),
                        workload: spec.workload.clone(),
                        scheme: spec.scheme.clone(),
                        status: status.to_string(),
                        attempts,
                        duration_ms,
                        digest,
                        error: error.clone(),
                        artifacts,
                        payload,
                    };
                    if let Err(e) = writer.append(&rec) {
                        io_error.lock().expect("io error lock").get_or_insert(e);
                        break;
                    }
                }
                let ok = value.is_some();
                results.lock().expect("results lock")[idx] = Some(CellOutcome {
                    spec: spec.clone(),
                    result: value,
                    error: if ok { None } else { Some(error) },
                    attempts,
                    duration_ms,
                    resumed: false,
                });
                let _ = tx.send(Event::Finished {
                    label: spec.label(),
                    ok,
                    duration_ms,
                });
            });
        }
        drop(tx);
    });

    if let Some(e) = io_error.into_inner().expect("io error lock") {
        return Err(e);
    }
    let outcomes: Vec<CellOutcome<T>> = results
        .into_inner()
        .expect("results lock")
        .into_iter()
        .map(|o| o.expect("every scheduled cell reaches a terminal state"))
        .collect();
    let failed = outcomes.iter().filter(|o| !o.ok()).count();
    let executed = n - resumed;
    Ok(GridReport {
        outcomes,
        executed,
        resumed,
        failed,
        wall_ms: started.elapsed().as_millis() as u64,
    })
}
