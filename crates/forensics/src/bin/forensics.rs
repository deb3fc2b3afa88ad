//! Decision-forensics driver: audited runs, offline Belady oracle,
//! and trace-grounded "why" reports.
//!
//! ```text
//! forensics sim    [--workload NAME[,NAME...] | --trace FILE.ctf] [--cores N]
//!                  [--instructions N] [--warmup N] [--seed S]
//!                  [--audit-cap N] [--out DIR] [--quick]
//! forensics serve  [--stream zipf|scan|churn|mixed] [--requests N]
//!                  [--keyspace N] [--shards N] [--shard-slots N]
//!                  [--shard-bytes N] [--seed S] [--audit-cap N]
//!                  [--out DIR] [--quick]
//! forensics oracle --trace FILE.ctf
//! ```
//!
//! `sim` and `serve` each run CHROME and its concurrency-unaware
//! ablation, join every audited decision against the oracle, and write
//! `<out>/forensics_<label>.jsonl` (one summary object per policy) and
//! `<out>/forensics_<label>.md` (the human-readable report). `sim`
//! does this for every workload of a comma-separated `--workload` list
//! (default `mcf`), one report pair each, which makes it the
//! audit-vs-oracle sweep over workloads. The process exits non-zero
//! unless every run joins ≥ 99% of its recorded decisions and reports a
//! divergence rate inside [0, 1] — which is what lets CI call this
//! binary directly as its smoke gate. `oracle` prints the standalone
//! Belady bound of a raw trace file. `serve --quick` runs the same
//! quick cell as `servebench --quick`.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use chrome_exec::cli::Args;
use chrome_forensics::{
    join_segment, render_markdown, run_hardware, run_serve, summarize, trace_min_bound, SimSource,
    SimSpec, Summary,
};
use chrome_serve::{BenchParams, PolicyKind};

/// A subcommand and its settings.
enum Cmd {
    /// Audited hardware runs, one per workload; `trace` wins over
    /// `workloads`.
    Sim {
        spec: SimSpec,
        trace: Option<PathBuf>,
        workloads: Vec<String>,
    },
    /// An audited serve run with a per-shard audit cap.
    Serve {
        params: BenchParams,
        audit_cap: usize,
    },
    /// The standalone Belady bound of a trace file.
    Oracle { trace: Option<PathBuf> },
}

/// Everything the command line asked for.
struct Cli {
    cmd: Cmd,
    out: PathBuf,
}

impl Cli {
    /// Parse the command line in one pass. `--quick` shrinks the
    /// defaults before any explicit flag applies, wherever it appears.
    /// A missing or unknown subcommand, a flag the subcommand does not
    /// take, a missing or malformed value, an unknown workload or
    /// stream, or a geometry or cap the run cannot use is a usage
    /// error: print the reason and the usage and exit 2.
    fn from_args() -> Self {
        let mut args = Args::new(
            "sim    [--workload NAME[,NAME...] | --trace FILE.ctf] [--cores N]\n\
             \x20                        [--instructions N] [--warmup N] [--seed S]\n\
             \x20                        [--audit-cap N] [--out DIR] [--quick]\n\
             \x20      forensics serve  [--stream zipf|scan|churn|mixed] [--requests N]\n\
             \x20                        [--keyspace N] [--shards N] [--shard-slots N]\n\
             \x20                        [--shard-bytes N] [--seed S] [--audit-cap N]\n\
             \x20                        [--out DIR] [--quick]\n\
             \x20      forensics oracle --trace FILE.ctf",
        );
        let sub = args
            .next()
            .unwrap_or_else(|| args.bad("missing subcommand"));
        let quick = args.has("--quick");
        let mut cmd = match sub.as_str() {
            "sim" => {
                let mut spec = SimSpec::default();
                if quick {
                    spec.instructions = 200_000;
                    spec.warmup = 20_000;
                    spec.cores = 1;
                }
                Cmd::Sim {
                    spec,
                    trace: None,
                    workloads: vec!["mcf".to_string()],
                }
            }
            "serve" => Cmd::Serve {
                params: if quick {
                    BenchParams::quick()
                } else {
                    BenchParams::default()
                },
                audit_cap: SimSpec::default().audit_cap,
            },
            "oracle" => Cmd::Oracle { trace: None },
            other => args.bad(&format!("unknown subcommand {other:?}")),
        };
        let mut out = PathBuf::from("results");
        while let Some(flag) = args.next() {
            let flag = flag.as_str();
            if let Cmd::Serve { params, .. } = &mut cmd {
                if params.flag(flag, &mut args) {
                    continue;
                }
            }
            match (&mut cmd, flag) {
                (Cmd::Sim { .. } | Cmd::Serve { .. }, "--quick") => {}
                (Cmd::Sim { .. } | Cmd::Serve { .. }, "--out") => out = args.value(flag).into(),
                (Cmd::Sim { trace, .. } | Cmd::Oracle { trace }, "--trace") => {
                    *trace = Some(args.value(flag).into());
                }
                (Cmd::Sim { workloads, .. }, "--workload") => {
                    let all = chrome_traces::all_workloads();
                    *workloads = args.names(flag, "workload", |w| {
                        all.contains(&w).then(|| w.to_string())
                    });
                }
                (Cmd::Sim { spec, .. }, "--cores") => spec.cores = args.number(flag),
                (Cmd::Sim { spec, .. }, "--instructions") => spec.instructions = args.number(flag),
                (Cmd::Sim { spec, .. }, "--warmup") => spec.warmup = args.number(flag),
                (Cmd::Sim { spec, .. }, "--seed") => spec.seed = args.number(flag),
                (Cmd::Sim { spec, .. }, "--audit-cap") => spec.audit_cap = args.number(flag),
                (Cmd::Serve { audit_cap, .. }, "--audit-cap") => *audit_cap = args.number(flag),
                _ => args.bad(&format!("unknown flag {flag} for {sub}")),
            }
        }
        let at_least_one = |flag: &str, v: u64| {
            if v == 0 {
                args.bad(&format!("{flag} must be at least 1"));
            }
        };
        match &cmd {
            Cmd::Sim { spec, .. } => {
                at_least_one("--cores", spec.cores as u64);
                at_least_one("--audit-cap", spec.audit_cap as u64);
            }
            Cmd::Serve { params, audit_cap } => {
                params.check(&args);
                at_least_one("--audit-cap", *audit_cap as u64);
            }
            Cmd::Oracle { trace: None } => args.bad("oracle needs --trace FILE.ctf"),
            Cmd::Oracle { .. } => {}
        }
        Cli { cmd, out }
    }
}

/// Write the JSONL + markdown artifact pair and echo where they went.
fn write_reports(dir: &Path, label: &str, feature_names: &[&str], summaries: &[Summary]) {
    std::fs::create_dir_all(dir).unwrap_or_else(|e| panic!("mkdir {}: {e}", dir.display()));
    let jsonl: String = summaries
        .iter()
        .map(|s| format!("{}\n", s.to_json()))
        .collect();
    let jsonl_path = dir.join(format!("forensics_{label}.jsonl"));
    std::fs::write(&jsonl_path, jsonl)
        .unwrap_or_else(|e| panic!("writing {}: {e}", jsonl_path.display()));
    let md_path = dir.join(format!("forensics_{label}.md"));
    std::fs::write(&md_path, render_markdown(label, feature_names, summaries))
        .unwrap_or_else(|e| panic!("writing {}: {e}", md_path.display()));
    println!("wrote {} and {}", jsonl_path.display(), md_path.display());
}

/// The acceptance gate both subcommands and CI rely on.
fn gate(summaries: &[Summary]) -> Result<(), String> {
    for s in summaries {
        if s.joined == 0 {
            return Err(format!("{}/{}: no decisions joined", s.label, s.policy));
        }
        if s.join_rate() < 0.99 {
            return Err(format!(
                "{}/{}: join rate {:.4} below 0.99",
                s.label,
                s.policy,
                s.join_rate()
            ));
        }
        let d = s.divergence_rate();
        if !(0.0..=1.0).contains(&d) {
            return Err(format!(
                "{}/{}: divergence rate {d} outside [0,1]",
                s.label, s.policy
            ));
        }
    }
    Ok(())
}

fn print_summary(s: &Summary) {
    println!(
        "{:<10} {:<9} decisions {:>8} joined {:>6.2}% hit {:>6.2}% MIN {:>6.2}% \
         diverge {:>6.2}% calib {:.2}",
        s.label,
        s.policy,
        s.decisions,
        s.join_rate() * 100.0,
        s.realized_hit_ratio * 100.0,
        s.min_hit_ratio * 100.0,
        s.divergence_rate() * 100.0,
        s.reward_calibration,
    );
}

fn cmd_sim(
    spec: SimSpec,
    trace: Option<PathBuf>,
    workloads: Vec<String>,
    out: &Path,
) -> Result<(), String> {
    let runs: Vec<(String, SimSource)> = match trace {
        Some(p) => {
            let label = p
                .file_stem()
                .map(|s| s.to_string_lossy().into_owned())
                .unwrap_or_else(|| "trace".into());
            vec![(label, SimSource::Trace(p))]
        }
        None => workloads
            .into_iter()
            .map(|w| (w.clone(), SimSource::Workload(w)))
            .collect(),
    };

    let mut summaries = Vec::new();
    for (label, source) in runs {
        let spec = SimSpec {
            source,
            ..spec.clone()
        };
        let mut pair = Vec::new();
        for aware in [true, false] {
            let run = run_hardware(&spec, aware)?;
            let joined: Vec<_> = run
                .segments
                .iter()
                .zip(&run.verdicts)
                .map(|(seg, v)| join_segment(seg, v))
                .collect();
            let s = summarize(&label, run.scheme, &run.segments, &joined);
            print_summary(&s);
            pair.push(s);
        }
        write_reports(out, &label, &["pc", "pn"], &pair);
        summaries.extend(pair);
    }
    gate(&summaries)
}

fn cmd_serve(p: BenchParams, audit_cap: usize, out: &Path) -> Result<(), String> {
    let label = format!("serve_{}", p.stream.name());

    let mut summaries = Vec::new();
    for kind in [PolicyKind::Chrome, PolicyKind::ChromeNc] {
        let run = run_serve(&BenchParams { policy: kind, ..p }, audit_cap)?;
        if run.stream_join < 1.0 {
            return Err(format!(
                "{}: audited decisions disagree with the regenerated stream (join {:.6})",
                run.result.policy, run.stream_join
            ));
        }
        let joined: Vec<_> = run
            .segments
            .iter()
            .zip(&run.verdicts)
            .map(|(seg, v)| join_segment(seg, v))
            .collect();
        let s = summarize(&label, run.result.policy, &run.segments, &joined);
        print_summary(&s);
        summaries.push(s);
    }
    write_reports(out, &label, &["flow", "neighborhood"], &summaries);
    gate(&summaries)
}

fn cmd_oracle(path: &Path) -> Result<(), String> {
    let (accesses, bound) = trace_min_bound(path)?;
    println!(
        "{}: {accesses} line accesses, Belady LLC hit-ratio bound {:.4}",
        path.display(),
        bound
    );
    Ok(())
}

fn main() -> ExitCode {
    let Cli { cmd, out } = Cli::from_args();
    let result = match cmd {
        Cmd::Sim {
            spec,
            trace,
            workloads,
        } => cmd_sim(spec, trace, workloads, &out),
        Cmd::Serve { params, audit_cap } => cmd_serve(params, audit_cap, &out),
        Cmd::Oracle { trace } => cmd_oracle(&trace.expect("checked at parse time")),
    };
    match result {
        Ok(()) => {
            println!("forensics gate: OK");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("forensics: {e}");
            ExitCode::FAILURE
        }
    }
}
