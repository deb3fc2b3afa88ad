//! Serving-cache benchmark: drive client threads against the sharded
//! KV cache under each policy and report hit ratio, virtual-latency
//! percentiles and wall-clock throughput.
//!
//! ```text
//! servebench [--policies A,B,...] [--stream zipf|scan|churn|mixed]
//!            [--threads N] [--requests N] [--keyspace N] [--seed S]
//!            [--shards N] [--shard-slots N] [--shard-bytes N]
//!            [--quick] [--out FILE] [--baseline FILE]
//!            [--gate-chrome] [--telemetry-out FILE] [--time-policy]
//! ```
//!
//! Counters and percentiles are byte-reproducible for a fixed seed at
//! any `--threads`; only `rps`/`wall_ms` are machine-dependent. With
//! `--out FILE` a machine-readable summary is written (the checked-in
//! `BENCH_serve_throughput.json` is one of these). With `--baseline
//! FILE` the run exits non-zero if any matching policy row's hit ratio
//! fell below the baseline's by more than one point, or aggregate
//! throughput fell below 30% of the baseline's — the CI smoke gate; the
//! baseline is read and parsed with the flags, so a missing or
//! malformed file is a usage error. `--gate-chrome` additionally
//! requires CHROME to beat plain LRU on hit ratio (the paper's
//! serve-side acceptance claim). With `--telemetry-out FILE` a CHROME
//! run also writes its binary audit trail: every decision with its
//! features, action and per-feature Q, and every reward, one segment
//! per shard of at most `AUDIT_CAP` records, with drops counted in the
//! segment header. `--time-policy` measures wall time inside each
//! policy's decision callbacks and reports ns/call per policy — the
//! instrument behind the "where does CHROME's throughput gap come
//! from" question.

use chrome_exec::cli::Args;
use chrome_exec::json::{self, JsonValue};
use chrome_serve::{bench, BenchParams, BenchResult, PolicyKind};
use chrome_telemetry::parse_audit;

/// Tolerated wall-clock regression vs the checked-in baseline.
const RPS_REGRESSION_FLOOR: f64 = 0.3;
/// Tolerated absolute hit-ratio regression vs the baseline.
const HIT_RATIO_SLACK: f64 = 0.01;
/// Per-shard record cap of the `--telemetry-out` audit trail: the
/// `forensics` binary's default, far above what a shard records in a
/// default run.
const AUDIT_CAP: usize = 1 << 22;

/// Everything the command line asked for.
struct Cli {
    base: BenchParams,
    policies: Vec<PolicyKind>,
    gate_chrome: bool,
    telemetry_out: Option<String>,
    out: Option<String>,
    /// The `--baseline` path and its parsed contents.
    baseline: Option<(String, JsonValue)>,
}

impl Cli {
    /// Parse the command line. `--quick` selects the quick cell before
    /// any explicit geometry flag applies, wherever it appears. An
    /// unknown flag, a missing or malformed value, an unknown stream or
    /// policy, a geometry the cache cannot be built with, or a baseline
    /// file that cannot be read or parsed is a usage error: print the
    /// reason and the usage and exit 2.
    fn from_args() -> Self {
        let mut args = Args::new(
            "[--policies A,B,...] [--stream zipf|scan|churn|mixed]\n\
             \x20                 [--threads N] [--requests N] [--keyspace N] [--seed S]\n\
             \x20                 [--shards N] [--shard-slots N] [--shard-bytes N]\n\
             \x20                 [--quick] [--out FILE] [--baseline FILE]\n\
             \x20                 [--gate-chrome] [--telemetry-out FILE] [--time-policy]",
        );
        let mut cli = Cli {
            base: if args.has("--quick") {
                BenchParams::quick()
            } else {
                BenchParams::default()
            },
            policies: PolicyKind::all().to_vec(),
            gate_chrome: false,
            telemetry_out: None,
            out: None,
            baseline: None,
        };
        while let Some(flag) = args.next() {
            let flag = flag.as_str();
            match flag {
                "--quick" => {}
                "--time-policy" => cli.base.time_policy = true,
                "--gate-chrome" => cli.gate_chrome = true,
                "--policies" => cli.policies = args.names(flag, "policy", PolicyKind::parse),
                "--threads" => cli.base.threads = args.number(flag),
                "--out" => cli.out = Some(args.value(flag)),
                "--baseline" => {
                    let path = args.value(flag);
                    let doc =
                        baseline(&path).unwrap_or_else(|e| args.bad(&format!("--baseline {e}")));
                    cli.baseline = Some((path, doc));
                }
                "--telemetry-out" => cli.telemetry_out = Some(args.value(flag)),
                _ if cli.base.flag(flag, &mut args) => {}
                _ => args.unknown(flag),
            }
        }
        cli.base.check(&args);
        cli
    }
}

/// Read and parse a `--baseline` summary file.
fn baseline(path: &str) -> Result<JsonValue, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    json::parse(&text).ok_or_else(|| format!("{path}: malformed JSON"))
}

fn main() {
    let cli = Cli::from_args();
    let base = cli.base;

    println!(
        "== servebench: {} stream, {} requests, keyspace {}, {} shards x {} slots / {} KiB, {} \
         threads ==",
        base.stream.name(),
        base.requests,
        base.keyspace,
        base.shards,
        base.shard_slots,
        base.shard_bytes / 1024,
        base.threads,
    );
    println!(
        "{:<8} {:>9} {:>10} {:>10} {:>8} {:>8} {:>12} {:>7}",
        "policy", "hit%", "bypasses", "evictions", "p50us", "p99us", "req/s", "errors"
    );

    let mut rows: Vec<BenchResult> = Vec::with_capacity(cli.policies.len());
    for policy in &cli.policies {
        let r = bench::run(&BenchParams {
            policy: *policy,
            ..base
        });
        println!(
            "{:<8} {:>8.2}% {:>10} {:>10} {:>8} {:>8} {:>12.0} {:>7}",
            r.policy,
            r.stats.hit_ratio() * 100.0,
            r.stats.bypasses,
            r.stats.evictions,
            r.p50_us,
            r.p99_us,
            r.rps,
            r.stats.errors,
        );
        if let Some(t) = r.timing.as_ref() {
            println!(
                "         decision path: {:.0} ns/call (admit {:.0}ns x{}, hit {:.0}ns x{}, \
                 victim {:.0}ns x{}, insert {:.0}ns x{})",
                t.mean_ns(),
                per_call(t.admit_ns, t.admit_calls),
                t.admit_calls,
                per_call(t.hit_ns, t.hit_calls),
                t.hit_calls,
                per_call(t.victim_ns, t.victim_calls),
                t.victim_calls,
                per_call(t.insert_ns, t.insert_calls),
                t.insert_calls,
            );
        }
        assert_eq!(
            r.stats.errors, 0,
            "{}: read-path integrity failure",
            r.policy
        );
        rows.push(r);
    }

    let total_requests: u64 = rows.iter().map(|r| r.stats.requests).sum();
    let total_wall_sec: f64 = rows.iter().map(|r| r.wall_ms / 1e3).sum();
    let aggregate_rps = total_requests as f64 / total_wall_sec.max(1e-9);
    println!(
        "aggregate: {aggregate_rps:.0} req/s across {} policies",
        rows.len()
    );

    if cli.gate_chrome {
        gate_chrome(&rows);
    }

    if let Some(path) = &cli.telemetry_out {
        let chrome = BenchParams {
            policy: PolicyKind::Chrome,
            ..base
        };
        let (_, blob) = bench::run_audited(&chrome, AUDIT_CAP);
        std::fs::write(path, &blob).unwrap_or_else(|e| panic!("writing {path}: {e}"));
        let segments = parse_audit(&blob).expect("the audit trail parses");
        let records: usize = segments.iter().map(|s| s.records.len()).sum();
        let dropped: u64 = segments.iter().map(|s| s.dropped).sum();
        println!(
            "wrote {path} (chrome audit trail: {} shard segments, {records} records, {dropped} \
             dropped at the {AUDIT_CAP}-record cap)",
            segments.len()
        );
    }

    if let Some(path) = &cli.out {
        let payload = render_json(&base, &rows, aggregate_rps);
        std::fs::write(path, payload).unwrap_or_else(|e| panic!("writing {path}: {e}"));
        println!("wrote {path}");
    }

    if let Some((path, doc)) = &cli.baseline {
        gate_baseline(path, doc, &base, &rows, aggregate_rps);
    }
}

/// The paper's serve-side claim: the learned policy beats plain LRU on
/// hit ratio for the mixed-tenant churn stream.
fn gate_chrome(rows: &[BenchResult]) {
    let find = |name: &str| rows.iter().find(|r| r.policy == name);
    let (Some(chrome), Some(lru)) = (find("chrome"), find("lru")) else {
        eprintln!("GATE ERROR: --gate-chrome needs both chrome and lru in --policies");
        std::process::exit(1);
    };
    let (c, l) = (chrome.stats.hit_ratio(), lru.stats.hit_ratio());
    println!("chrome-vs-lru gate: chrome {:.4} vs lru {:.4}", c, l);
    if c <= l {
        eprintln!("CHROME GATE FAILED: chrome hit ratio {c:.4} does not beat lru {l:.4}");
        std::process::exit(1);
    }
}

/// CI regression gate against the baseline file `doc`, read from
/// `path`: per-policy hit ratios within slack, aggregate throughput
/// above the floor. Only applies when the baseline ran comparable
/// parameters.
fn gate_baseline(
    path: &str,
    doc: &JsonValue,
    base: &BenchParams,
    rows: &[BenchResult],
    aggregate_rps: f64,
) {
    let num = |k: &str| doc.get(k).and_then(JsonValue::as_u64);
    let comparable = doc.get("stream").and_then(JsonValue::as_str) == Some(base.stream.name())
        && num("requests") == Some(base.requests as u64)
        && num("keyspace") == Some(base.keyspace)
        && num("shards") == Some(base.shards as u64)
        && num("seed") == Some(base.seed);
    if !comparable {
        println!("baseline gate: {path} ran different parameters; skipping comparison");
        return;
    }
    let mut failed = false;
    if let Some(policies) = doc.get("policies").and_then(JsonValue::as_arr) {
        for base_row in policies {
            let (Some(name), Some(base_hit)) = (
                base_row.get("policy").and_then(JsonValue::as_str),
                base_row.get("hit_ratio").and_then(JsonValue::as_f64),
            ) else {
                continue;
            };
            let Some(current) = rows.iter().find(|r| r.policy == name) else {
                continue;
            };
            let hit = current.stats.hit_ratio();
            if hit + HIT_RATIO_SLACK < base_hit {
                eprintln!(
                    "HIT-RATIO REGRESSION: {name} {hit:.4} vs baseline {base_hit:.4} \
                     (slack {HIT_RATIO_SLACK})"
                );
                failed = true;
            }
        }
    }
    if let Some(base_rps) = doc.get("aggregate_rps").and_then(JsonValue::as_f64) {
        let floor = base_rps * RPS_REGRESSION_FLOOR;
        println!(
            "baseline gate: current {aggregate_rps:.0} req/s vs baseline {base_rps:.0} \
             (floor {floor:.0})"
        );
        if aggregate_rps < floor {
            eprintln!(
                "THROUGHPUT REGRESSION: {aggregate_rps:.0} req/s is below 30% of the baseline \
                 {base_rps:.0}"
            );
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}

/// A JSON string literal (escaped and quoted).
fn quoted(s: &str) -> String {
    format!("\"{}\"", json::escape(s))
}

/// Mean nanoseconds for one callback lane (0 when never called).
fn per_call(ns: u64, calls: u64) -> f64 {
    if calls == 0 {
        0.0
    } else {
        ns as f64 / calls as f64
    }
}

fn render_json(base: &BenchParams, rows: &[BenchResult], aggregate_rps: f64) -> String {
    let policy_rows: Vec<String> = rows
        .iter()
        .map(|r| {
            let timing = r
                .timing
                .as_ref()
                .map(|t| {
                    format!(
                        ",\"policy_ns_per_call\":{:.1},\"admit_ns_per_call\":{:.1},\
                         \"hit_ns_per_call\":{:.1},\"victim_ns_per_call\":{:.1},\
                         \"insert_ns_per_call\":{:.1}",
                        t.mean_ns(),
                        per_call(t.admit_ns, t.admit_calls),
                        per_call(t.hit_ns, t.hit_calls),
                        per_call(t.victim_ns, t.victim_calls),
                        per_call(t.insert_ns, t.insert_calls),
                    )
                })
                .unwrap_or_default();
            format!(
                "    {{\"policy\":{},\"requests\":{},\"hits\":{},\"misses\":{},\
                 \"admits\":{},\"bypasses\":{},\"evictions\":{},\"errors\":{},\
                 \"hit_ratio\":{:.6},\"p50_us\":{},\"p99_us\":{},\"rps\":{:.0},\
                 \"wall_ms\":{:.3}{timing}}}",
                quoted(r.policy),
                r.stats.requests,
                r.stats.hits,
                r.stats.misses,
                r.stats.admits,
                r.stats.bypasses,
                r.stats.evictions,
                r.stats.errors,
                r.stats.hit_ratio(),
                r.p50_us,
                r.p99_us,
                r.rps,
                r.wall_ms,
            )
        })
        .collect();
    format!(
        "{{\n  \"name\": \"serve_throughput\",\n  \"stream\": {},\n  \"requests\": {},\n  \
         \"keyspace\": {},\n  \"shards\": {},\n  \"shard_slots\": {},\n  \"shard_bytes\": {},\n  \
         \"threads\": {},\n  \"seed\": {},\n  \"policies\": [\n{}\n  ],\n  \
         \"aggregate_rps\": {:.0}\n}}\n",
        quoted(base.stream.name()),
        base.requests,
        base.keyspace,
        base.shards,
        base.shard_slots,
        base.shard_bytes,
        base.threads,
        base.seed,
        policy_rows.join(",\n"),
        aggregate_rps,
    )
}
