//! Engine-level tests with synthetic cells: fault isolation, retry
//! accounting, checkpoint/resume, and thread-count independence. Every
//! test that runs more than one worker does so under a watchdog.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Mutex;
use std::time::Duration;

use chrome_exec::{load_manifest, run_grid, CellSpec, EngineConfig, StringCodec};

fn spec(workload: &str, scheme: &str) -> CellSpec {
    CellSpec {
        experiment: "test".into(),
        workload: workload.into(),
        scheme: scheme.into(),
        cores: 1,
        instructions: 1000,
        warmup: 100,
        seed: 7,
        prefetch: "paper".into(),
        track_unused: false,
        record_epochs: false,
        trace: String::new(),
        sampling: String::new(),
        noc: String::new(),
    }
}

fn grid(n: usize) -> Vec<CellSpec> {
    (0..n).map(|i| spec(&format!("wl{i}"), "LRU")).collect()
}

fn tmp_manifest(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "chrome_exec_test_{}_{name}.jsonl",
        std::process::id()
    ))
}

fn cfg(jobs: usize, manifest: Option<PathBuf>) -> EngineConfig {
    EngineConfig {
        jobs,
        retries: 2,
        backoff_ms: 1,
        backoff_cap_ms: 2,
        manifest_path: manifest,
        resume: false,
        progress: false,
    }
}

/// How long a multi-threaded test body may run. Every body here
/// finishes in milliseconds; the bound only has to be far above that.
const WATCHDOG: Duration = Duration::from_secs(60);

/// Run `body` on its own thread and fail the test if it has not
/// finished within [`WATCHDOG`], so a scheduler deadlock fails the test
/// instead of stalling the whole suite. Panics inside `body` propagate
/// unchanged.
fn watchdog(body: impl FnOnce() + Send + 'static) {
    let (tx, rx) = mpsc::channel();
    let handle = std::thread::spawn(move || {
        body();
        let _ = tx.send(());
    });
    match rx.recv_timeout(WATCHDOG) {
        Ok(()) | Err(RecvTimeoutError::Disconnected) => {
            if let Err(panic) = handle.join() {
                std::panic::resume_unwind(panic);
            }
        }
        Err(RecvTimeoutError::Timeout) => {
            panic!("test body still running after {WATCHDOG:?}: the grid engine hung")
        }
    }
}

/// The reference cell function: a pure function of the spec.
fn eval(s: &CellSpec) -> String {
    format!("{}:{:x}", s.workload, s.workload_seed())
}

#[test]
fn results_are_in_input_order_at_any_thread_count() {
    watchdog(|| {
        let specs = grid(17);
        let sequential = run_grid(specs.clone(), &cfg(1, None), &StringCodec, eval).unwrap();
        let parallel = run_grid(specs.clone(), &cfg(8, None), &StringCodec, eval).unwrap();
        assert_eq!(sequential.outcomes.len(), 17);
        assert_eq!(parallel.executed, 17);
        assert_eq!(parallel.failed, 0);
        for (i, (a, b)) in sequential
            .outcomes
            .iter()
            .zip(&parallel.outcomes)
            .enumerate()
        {
            assert_eq!(a.spec, specs[i]);
            assert_eq!(
                a.value(),
                b.value(),
                "cell {i} differs across thread counts"
            );
            assert_eq!(a.value().unwrap(), &eval(&specs[i]));
        }
    });
}

#[test]
fn manifest_digests_are_thread_count_independent() {
    watchdog(|| {
        let specs = grid(9);
        let digests = |jobs: usize, name: &str| {
            let path = tmp_manifest(name);
            run_grid(
                specs.clone(),
                &cfg(jobs, Some(path.clone())),
                &StringCodec,
                eval,
            )
            .unwrap();
            let mut d: Vec<(String, String)> = load_manifest(&path)
                .unwrap()
                .into_iter()
                .map(|r| (r.spec_hash, r.digest))
                .collect();
            std::fs::remove_file(&path).ok();
            d.sort();
            d
        };
        assert_eq!(digests(1, "digest_j1"), digests(8, "digest_j8"));
    });
}

#[test]
fn panicking_cell_is_isolated_and_recorded() {
    watchdog(|| {
        let specs = grid(5);
        let path = tmp_manifest("fault");
        let report = run_grid(
            specs.clone(),
            &cfg(4, Some(path.clone())),
            &StringCodec,
            |s: &CellSpec| {
                assert!(s.workload != "wl2", "cell wl2 exploded");
                eval(s)
            },
        )
        .unwrap();
        // the grid finished: every other cell has a result
        assert_eq!(report.failed, 1);
        assert_eq!(report.outcomes.iter().filter(|o| o.ok()).count(), 4);
        let bad = &report.outcomes[2];
        assert!(!bad.ok());
        assert_eq!(bad.attempts, 3, "retries exhausted");
        assert!(bad.error.as_deref().unwrap().contains("wl2 exploded"));
        let failures = report.failures();
        assert_eq!(failures.len(), 1);
        assert!(failures[0].0.contains("wl2"));
        // and the manifest recorded the permanent failure
        let recs = load_manifest(&path).unwrap();
        let failed: Vec<_> = recs.iter().filter(|r| !r.is_ok()).collect();
        assert_eq!(failed.len(), 1);
        assert_eq!(failed[0].attempts, 3);
        assert!(failed[0].error.contains("wl2 exploded"));
        std::fs::remove_file(&path).ok();
    });
}

#[test]
fn flaky_cell_succeeds_on_retry_and_manifest_records_attempts() {
    watchdog(|| {
        let specs = grid(4);
        let path = tmp_manifest("flaky");
        let tries: Mutex<HashMap<String, u32>> = Mutex::new(HashMap::new());
        let report = run_grid(
            specs.clone(),
            &cfg(2, Some(path.clone())),
            &StringCodec,
            |s: &CellSpec| {
                let attempt = {
                    let mut m = tries.lock().unwrap();
                    let e = m.entry(s.workload.clone()).or_insert(0);
                    *e += 1;
                    *e
                };
                assert!(
                    s.workload != "wl1" || attempt > 1,
                    "transient failure on first attempt"
                );
                eval(s)
            },
        )
        .unwrap();
        assert_eq!(report.failed, 0, "flaky cell must recover");
        let flaky = &report.outcomes[1];
        assert!(flaky.ok());
        assert_eq!(flaky.attempts, 2);
        assert!(report.outcomes.iter().filter(|o| o.attempts == 1).count() >= 3);
        let recs = load_manifest(&path).unwrap();
        let rec = recs
            .iter()
            .find(|r| r.spec_hash == specs[1].hash_hex())
            .expect("flaky cell in manifest");
        assert!(rec.is_ok());
        assert_eq!(rec.attempts, 2, "manifest records the retry");
        std::fs::remove_file(&path).ok();
    });
}

#[test]
fn resume_skips_completed_cells_without_reexecuting() {
    watchdog(|| {
        let specs = grid(10);
        let path = tmp_manifest("resume");
        // first run dies mid-grid: only the first half is scheduled, then
        // the engine is dropped (same on-disk state as a killed process)
        let first: Vec<CellSpec> = specs[..5].to_vec();
        let r1 = run_grid(first, &cfg(2, Some(path.clone())), &StringCodec, eval).unwrap();
        assert_eq!(r1.executed, 5);
        // resume over the full grid: completed cells must not re-execute —
        // the cell fn counts invocations to prove it
        let executions = AtomicU32::new(0);
        let mut resume_cfg = cfg(2, Some(path.clone()));
        resume_cfg.resume = true;
        let r2 = run_grid(specs.clone(), &resume_cfg, &StringCodec, |s: &CellSpec| {
            executions.fetch_add(1, Ordering::SeqCst);
            eval(s)
        })
        .unwrap();
        assert_eq!(r2.resumed, 5);
        assert_eq!(r2.executed, 5);
        assert_eq!(executions.load(Ordering::SeqCst), 5);
        for (i, o) in r2.outcomes.iter().enumerate() {
            assert_eq!(o.resumed, i < 5, "cell {i}");
            assert_eq!(o.value().unwrap(), &eval(&specs[i]));
        }
        // the manifest now covers the whole grid; a second resume is a no-op
        let r3 = run_grid(
            specs.clone(),
            &resume_cfg,
            &StringCodec,
            |_: &CellSpec| -> String { panic!("nothing should execute") },
        )
        .unwrap();
        assert_eq!(r3.resumed, 10);
        assert_eq!(r3.executed, 0);
        assert_eq!(r3.failed, 0);
        std::fs::remove_file(&path).ok();
    });
}

#[test]
fn resume_reruns_failed_and_stale_cells() {
    watchdog(|| {
        let specs = grid(3);
        let path = tmp_manifest("rerun");
        // first run: wl1 fails permanently
        let r1 = run_grid(
            specs.clone(),
            &cfg(2, Some(path.clone())),
            &StringCodec,
            |s: &CellSpec| {
                assert!(s.workload != "wl1", "always fails");
                eval(s)
            },
        )
        .unwrap();
        assert_eq!(r1.failed, 1);
        // resume: the failed cell re-runs (and now succeeds); ok cells skip.
        // A changed spec (different budget => different hash) also re-runs.
        let mut changed = specs.clone();
        changed[2].instructions += 1;
        let mut resume_cfg = cfg(2, Some(path.clone()));
        resume_cfg.resume = true;
        let r2 = run_grid(changed.clone(), &resume_cfg, &StringCodec, eval).unwrap();
        assert_eq!(r2.resumed, 1, "only the unchanged ok cell skips");
        assert_eq!(r2.executed, 2);
        assert_eq!(r2.failed, 0);
        std::fs::remove_file(&path).ok();
    });
}

#[test]
fn fresh_run_truncates_stale_manifest() {
    let specs = grid(2);
    let path = tmp_manifest("truncate");
    run_grid(
        specs.clone(),
        &cfg(1, Some(path.clone())),
        &StringCodec,
        eval,
    )
    .unwrap();
    run_grid(
        specs.clone(),
        &cfg(1, Some(path.clone())),
        &StringCodec,
        eval,
    )
    .unwrap();
    // without --resume the manifest holds exactly one record per cell
    assert_eq!(load_manifest(&path).unwrap().len(), 2);
    std::fs::remove_file(&path).ok();
}

#[test]
fn empty_grid_is_fine() {
    let report = run_grid(Vec::new(), &cfg(4, None), &StringCodec, eval).unwrap();
    assert!(report.outcomes.is_empty());
    assert_eq!(report.executed, 0);
}
