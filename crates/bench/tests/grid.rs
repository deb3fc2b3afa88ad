//! End-to-end grid determinism and resume tests on real simulation
//! cells: tables must be byte-identical at any thread count, and a
//! resumed run must reproduce them from manifest payloads alone.

use std::path::{Path, PathBuf};

use chrome_bench::experiments::fig06;
use chrome_bench::{run_grid, ExperimentPlan, RunParams, TableWriter};
use chrome_exec::load_manifest;

fn tmp_manifest(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("grid-tests");
    std::fs::create_dir_all(&dir).expect("tmpdir");
    dir.join(name)
}

/// A miniature fig06 plan: 2 workloads x all schemes, scaled down to
/// 2 cores and a small instruction budget so the suite stays fast.
fn small_plan() -> ExperimentPlan {
    let params = RunParams {
        homo_workloads: Some(2),
        ..RunParams::default()
    };
    let mut p = fig06::plan(&params);
    for c in &mut p.cells {
        c.cores = 2;
        c.instructions = 12_000;
        c.warmup = 1_200;
    }
    p
}

fn exec_params(jobs: usize, manifest: &Path, resume: bool) -> RunParams {
    RunParams {
        jobs: Some(jobs),
        resume,
        manifest: Some(manifest.to_path_buf()),
        progress: false,
        ..RunParams::default()
    }
}

fn rendered(tables: Vec<TableWriter>) -> String {
    tables
        .into_iter()
        .map(|t| t.render())
        .collect::<Vec<_>>()
        .join("\n---\n")
}

fn digests(manifest: &Path) -> Vec<(String, String)> {
    let mut v: Vec<(String, String)> = load_manifest(manifest)
        .expect("readable manifest")
        .into_iter()
        .map(|r| (r.spec_hash, r.digest))
        .collect();
    v.sort();
    v
}

#[test]
fn tables_are_byte_identical_across_thread_counts() {
    let m1 = tmp_manifest("det_jobs1.jsonl");
    let m8 = tmp_manifest("det_jobs8.jsonl");
    let p1 = small_plan();
    let p8 = small_plan();

    let r1 = run_grid(&exec_params(1, &m1, false), p1.cells.clone());
    let r8 = run_grid(&exec_params(8, &m8, false), p8.cells.clone());
    assert_eq!(r1.failed, 0);
    assert_eq!(r8.failed, 0);

    let t1 = rendered((p1.assemble)(&r1.outcomes));
    let t8 = rendered((p8.assemble)(&r8.outcomes));
    assert_eq!(t1, t8, "tables differ between --jobs 1 and --jobs 8");

    // the checkpoint manifests agree cell-for-cell on result digests
    let d1 = digests(&m1);
    assert_eq!(d1, digests(&m8));
    assert_eq!(d1.len(), p1.cells.len());
}

#[test]
fn resume_reproduces_tables_without_rerunning() {
    let m = tmp_manifest("resume.jsonl");
    let plan = small_plan();
    let half = plan.cells.len() / 2;

    // simulate an interrupted run: only the first half completes
    let partial = run_grid(&exec_params(4, &m, false), plan.cells[..half].to_vec());
    assert_eq!(partial.executed, half);

    // resumed full run: completed cells load from the manifest
    let resumed = run_grid(&exec_params(4, &m, true), plan.cells.clone());
    assert_eq!(resumed.resumed, half);
    assert_eq!(resumed.executed, plan.cells.len() - half);
    assert_eq!(resumed.failed, 0);
    let resumed_tables = rendered((plan.assemble)(&resumed.outcomes));

    // a second resume executes nothing at all
    let plan2 = small_plan();
    let replay = run_grid(&exec_params(4, &m, true), plan2.cells.clone());
    assert_eq!(replay.executed, 0);
    assert_eq!(replay.resumed, plan2.cells.len());

    // and still reproduces the same bytes as a fresh single-threaded run
    let m_fresh = tmp_manifest("resume_fresh.jsonl");
    let plan3 = small_plan();
    let fresh = run_grid(&exec_params(1, &m_fresh, false), plan3.cells.clone());
    let fresh_tables = rendered((plan3.assemble)(&fresh.outcomes));
    assert_eq!(
        rendered((plan2.assemble)(&replay.outcomes)),
        fresh_tables,
        "manifest-loaded results diverge from freshly computed ones"
    );
    assert_eq!(resumed_tables, fresh_tables);
}
