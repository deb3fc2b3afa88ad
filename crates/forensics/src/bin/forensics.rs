//! Decision-forensics driver: audited runs, offline Belady oracle,
//! and trace-grounded "why" reports.
//!
//! ```text
//! forensics sim    [--workload NAME | --trace FILE.ctf] [--cores N]
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
//! `<out>/forensics_<label>.md` (the human-readable report). The
//! process exits non-zero unless every run joins ≥ 99% of its recorded
//! decisions and reports a divergence rate inside [0, 1] — which is
//! what lets CI call this binary directly as its smoke gate. `oracle`
//! prints the standalone Belady bound of a raw trace file.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use chrome_forensics::{
    join_segment, render_markdown, run_hardware, run_serve, summarize, trace_min_bound, SimSource,
    SimSpec, Summary,
};
use chrome_serve::{BenchParams, PolicyKind, StreamKind};

/// Print the usage and exit 2, the usage-error status.
fn usage() -> ! {
    eprintln!(
        "usage: forensics sim    [--workload NAME | --trace FILE.ctf] [--cores N]\n\
         \x20                        [--instructions N] [--warmup N] [--seed S]\n\
         \x20                        [--audit-cap N] [--out DIR] [--quick]\n\
         \x20      forensics serve  [--stream zipf|scan|churn|mixed] [--requests N]\n\
         \x20                        [--keyspace N] [--shards N] [--shard-slots N]\n\
         \x20                        [--shard-bytes N] [--seed S] [--audit-cap N]\n\
         \x20                        [--out DIR] [--quick]\n\
         \x20      forensics oracle --trace FILE.ctf"
    );
    std::process::exit(2)
}

/// Print why the command line is wrong, then the usage, and exit 2.
fn bad(reason: &str) -> ! {
    eprintln!("{reason}");
    usage()
}

/// Parse numeric flag `flag`'s value, or exit 2 with the usage.
fn number<T: std::str::FromStr>(flag: &str, v: &str) -> T {
    v.parse()
        .unwrap_or_else(|_| bad(&format!("{flag} takes a number, got {v:?}")))
}

/// A subcommand and its settings.
enum Cmd {
    /// An audited hardware run; `trace` wins over `workload`.
    Sim {
        spec: SimSpec,
        trace: Option<PathBuf>,
        workload: Option<String>,
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
    /// Parse `std::env::args` in one pass. `--quick` shrinks the
    /// defaults before any explicit flag applies, wherever it appears.
    /// A missing or unknown subcommand, a flag the subcommand does not
    /// take, a missing or malformed value, an unknown stream, or a
    /// geometry or cap the run cannot use is a usage error: print the
    /// reason and the usage and exit 2.
    fn from_args() -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        let Some((sub, flags)) = args.split_first() else {
            bad("missing subcommand")
        };
        let quick = flags.iter().any(|a| a == "--quick");
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
                    workload: None,
                }
            }
            "serve" => {
                let mut params = BenchParams::default();
                if quick {
                    params.requests = 30_000;
                    params.keyspace = 5_000;
                    params.shards = 8;
                    params.shard_slots = 256;
                    params.shard_bytes = 128 * 1024;
                }
                Cmd::Serve {
                    params,
                    audit_cap: SimSpec::default().audit_cap,
                }
            }
            "oracle" => Cmd::Oracle { trace: None },
            other => bad(&format!("unknown subcommand {other:?}")),
        };
        let mut out = PathBuf::from("results");
        let mut it = flags.iter();
        while let Some(flag) = it.next() {
            let flag = flag.as_str();
            // a value flag's argument; the next flag is not a value
            let mut value = || match it.next() {
                Some(v) if !v.starts_with("--") => v.clone(),
                Some(v) => bad(&format!("{flag} takes a value, got {v:?}")),
                None => bad(&format!("{flag} takes a value")),
            };
            match (&mut cmd, flag) {
                (Cmd::Sim { .. } | Cmd::Serve { .. }, "--quick") => {}
                (Cmd::Sim { .. } | Cmd::Serve { .. }, "--out") => out = value().into(),
                (Cmd::Sim { trace, .. } | Cmd::Oracle { trace }, "--trace") => {
                    *trace = Some(value().into());
                }
                (Cmd::Sim { workload, .. }, "--workload") => *workload = Some(value()),
                (Cmd::Sim { spec, .. }, "--cores") => spec.cores = number(flag, &value()),
                (Cmd::Sim { spec, .. }, "--instructions") => {
                    spec.instructions = number(flag, &value());
                }
                (Cmd::Sim { spec, .. }, "--warmup") => spec.warmup = number(flag, &value()),
                (Cmd::Sim { spec, .. }, "--seed") => spec.seed = number(flag, &value()),
                (Cmd::Sim { spec, .. }, "--audit-cap") => spec.audit_cap = number(flag, &value()),
                (Cmd::Serve { params, .. }, "--stream") => {
                    let s = value();
                    params.stream = StreamKind::parse(&s)
                        .unwrap_or_else(|| bad(&format!("unknown stream {s}")));
                }
                (Cmd::Serve { params, .. }, "--requests") => {
                    params.requests = number(flag, &value());
                }
                (Cmd::Serve { params, .. }, "--keyspace") => {
                    params.keyspace = number(flag, &value());
                }
                (Cmd::Serve { params, .. }, "--shards") => params.shards = number(flag, &value()),
                (Cmd::Serve { params, .. }, "--shard-slots") => {
                    params.shard_slots = number(flag, &value());
                }
                (Cmd::Serve { params, .. }, "--shard-bytes") => {
                    params.shard_bytes = number(flag, &value());
                }
                (Cmd::Serve { params, .. }, "--seed") => params.seed = number(flag, &value()),
                (Cmd::Serve { audit_cap, .. }, "--audit-cap") => {
                    *audit_cap = number(flag, &value());
                }
                _ => bad(&format!("unknown flag {flag} for {sub}")),
            }
        }
        let at_least_one = |flag: &str, v: u64| {
            if v == 0 {
                bad(&format!("{flag} must be at least 1"));
            }
        };
        match &cmd {
            Cmd::Sim { spec, .. } => {
                at_least_one("--cores", spec.cores as u64);
                at_least_one("--audit-cap", spec.audit_cap as u64);
            }
            Cmd::Serve { params, audit_cap } => {
                if !params.shards.is_power_of_two() {
                    bad(&format!(
                        "--shards must be a power of two, got {}",
                        params.shards
                    ));
                }
                at_least_one("--keyspace", params.keyspace);
                at_least_one("--shard-slots", params.shard_slots as u64);
                at_least_one("--shard-bytes", params.shard_bytes);
                at_least_one("--audit-cap", *audit_cap as u64);
            }
            Cmd::Oracle { trace: None } => bad("oracle needs --trace FILE.ctf"),
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
    mut spec: SimSpec,
    trace: Option<PathBuf>,
    workload: Option<String>,
    out: &Path,
) -> Result<(), String> {
    let label = match (trace, workload) {
        (Some(p), _) => {
            let label = p
                .file_stem()
                .map(|s| s.to_string_lossy().into_owned())
                .unwrap_or_else(|| "trace".into());
            spec.source = SimSource::Trace(p);
            label
        }
        (None, Some(w)) => {
            spec.source = SimSource::Workload(w.clone());
            w
        }
        (None, None) => "mcf".to_string(), // the SimSpec default
    };

    let mut summaries = Vec::new();
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
        summaries.push(s);
    }
    write_reports(out, &label, &["pc", "pn"], &summaries);
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
            workload,
        } => cmd_sim(spec, trace, workload, &out),
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
