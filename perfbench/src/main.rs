//! perfbench: the repository benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--out-dir <dir>] [--revision <id>]
//! ```
//!
//! One process runs one workload. It repeats rounds — build inputs and
//! system, warm untimed, time one fixed measured region — until
//! `--seconds` of measured time have passed, checks every round's
//! outputs, and prints human-readable lines, a provenance line and, last,
//! one JSON result line. With `--trace 0` the result carries the
//! end-to-end metrics; with `--trace 1` it carries the per-layer metrics
//! of a traced run (see `README.md`). Exits non-zero when any check
//! fails.

mod checks;
mod report;
mod serve;
mod sim;
mod span;

use std::path::PathBuf;
use std::time::Instant;

use checks::Checks;
use report::{collect, peak_rss_mb, result_line, Values, END_TO_END, PER_LAYER};
use span::NamedSpan;

/// Set-up phases of one round (seconds).
#[derive(Debug, Clone, Copy, Default)]
pub struct Setup {
    /// Trace and graph build (sim) or stream generation and shard
    /// partitioning (serve).
    pub inputs_s: f64,
    /// `System` or `ServeCache` construction.
    pub build_s: f64,
    /// Untimed warmup.
    pub warmup_s: f64,
}

impl Setup {
    pub fn total(&self) -> f64 {
        self.inputs_s + self.build_s + self.warmup_s
    }
}

/// What a workload run produced.
pub struct Outcome {
    pub checks: Checks,
    /// Operations attempted: checks run (sim) or requests issued (serve).
    pub attempted: u64,
    /// Failed checks (sim) or failed requests (serve).
    pub failed: u64,
    pub rounds: usize,
    pub values: Values,
    /// Extra human-readable `(name, unit, value)` lines.
    pub human: Vec<(&'static str, &'static str, f64)>,
    /// Per-round samples behind the medians, `(name, values)`.
    pub samples: Vec<(&'static str, Vec<f64>)>,
    pub spans_written: Option<PathBuf>,
}

/// Stop starting rounds after this much wall time, whatever the round
/// count, so a run always ends well inside three minutes.
const MAX_WALL_S: f64 = 100.0;

/// Command-line options.
pub struct RunOpts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Multiplier on every instruction and request budget (1 outside
    /// tests).
    pub scale: f64,
    /// Fewest rounds a run makes (3 outside tests).
    pub min_rounds: usize,
    pub out_dir: Option<PathBuf>,
    pub revision: String,
}

impl RunOpts {
    fn parse(args: &[String]) -> Result<RunOpts, String> {
        let mut o = RunOpts {
            workload: String::new(),
            seed: 1,
            seconds: 10.0,
            trace: false,
            scale: 1.0,
            min_rounds: 3,
            out_dir: None,
            revision: "unknown".into(),
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
            let num = |v: &String| {
                v.parse::<f64>()
                    .map_err(|_| format!("{flag}: `{v}` is not a number"))
            };
            match flag.as_str() {
                "--workload" => o.workload = value()?.clone(),
                "--seed" => {
                    let v = value()?;
                    o.seed = v
                        .parse()
                        .map_err(|_| format!("--seed: `{v}` is not an integer"))?;
                }
                "--seconds" => o.seconds = num(value()?)?,
                "--trace" => {
                    o.trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        v => return Err(format!("--trace takes 0 or 1, not `{v}`")),
                    }
                }
                "--out-dir" => o.out_dir = Some(PathBuf::from(value()?)),
                "--revision" => o.revision = value()?.clone(),
                other => return Err(format!("unknown flag `{other}`")),
            }
        }
        if o.seconds.is_nan() || o.seconds < 0.0 {
            return Err("--seconds must be non-negative".into());
        }
        Ok(o)
    }

    #[cfg(test)]
    pub fn for_test(seed: u64) -> RunOpts {
        RunOpts::parse(&["--seed".into(), seed.to_string()]).expect("test options parse")
    }

    /// Whether a run has measured enough: `min_rounds` rounds and
    /// `seconds` of measured time, or the wall-time cap.
    pub fn enough(&self, rounds: usize, measured_s: f64, start: Instant) -> bool {
        let wall = start.elapsed().as_secs_f64();
        rounds >= 1
            && (wall > MAX_WALL_S || (rounds >= self.min_rounds && measured_s >= self.seconds))
    }

    /// Dump spans under `--out-dir`, returning the file written.
    pub fn write_spans(&self, workload: &str, spans: &[NamedSpan]) -> Option<PathBuf> {
        let dir = self.out_dir.as_ref()?;
        let path = dir.join(format!("{workload}-seed{}-spans.jsonl", self.seed));
        match span::write_spans(&path, spans) {
            Ok(()) => Some(path),
            Err(e) => {
                eprintln!("perfbench: writing {}: {e}", path.display());
                None
            }
        }
    }
}

/// One benchmark workload, by kind.
#[derive(Clone, Copy)]
enum Workload {
    Sim(&'static sim::SimWorkload),
    Serve(&'static serve::ServeWorkload),
}

const WORKLOADS: [Workload; 3] = [
    Workload::Sim(&sim::SIM_4C_CHROME),
    Workload::Sim(&sim::SIM_16C_NOC_LRU),
    Workload::Serve(&serve::SERVE_MIXED_CHROME),
];

impl Workload {
    fn named(name: &str) -> Option<Workload> {
        WORKLOADS.into_iter().find(|w| w.name() == name)
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Sim(w) => w.name,
            Workload::Serve(w) => w.name,
        }
    }

    fn run(self, o: &RunOpts) -> Outcome {
        match (self, o.trace) {
            (Workload::Sim(w), false) => w.run_plain(o),
            (Workload::Sim(w), true) => w.run_traced(o),
            (Workload::Serve(w), false) => w.run_plain(o),
            (Workload::Serve(w), true) => w.run_traced(o),
        }
    }

    /// Budgets at `scale`, for the provenance line.
    fn budgets(self, scale: f64) -> String {
        let s = |n: u64| (n as f64 * scale) as u64;
        match self {
            Workload::Sim(w) => format!(
                "{{\"instructions_per_core\": {}, \"warmup_per_core\": {}, \"cores\": {}, \
                 \"noc\": \"{}\"}}",
                s(w.instructions),
                s(w.warmup),
                w.mix.len(),
                w.noc.unwrap_or("")
            ),
            Workload::Serve(w) => format!(
                "{{\"requests_per_round\": {}, \"warmup_requests\": {}, \"keyspace\": {}, \
                 \"shards\": {}, \"shard_slots\": {}, \"shard_bytes\": {}, \"threads\": {}}}",
                s(w.requests as u64),
                s(w.warmup as u64),
                w.keyspace,
                w.shards,
                w.shard_slots,
                w.shard_bytes,
                w.threads
            ),
        }
    }
}

fn provenance(o: &RunOpts, workload: Workload, rounds: usize) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "{{\"revision\": \"{}\", \"nproc\": {nproc}, \"profile\": \"{profile}\", \
         \"probe_kernel\": \"{}\", \"step_workers\": 1, \"workload\": \"{}\", \"seed\": {}, \
         \"seconds\": {}, \"trace\": {}, \"rounds\": {rounds}, \"budgets\": {}}}",
        o.revision,
        chrome_sim::probe::kernel_name(),
        o.workload,
        o.seed,
        o.seconds,
        u8::from(o.trace),
        workload.budgets(o.scale)
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (opts, workload) = match RunOpts::parse(&args) {
        Ok(o) => match Workload::named(&o.workload) {
            Some(w) => (o, w),
            None => {
                let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name()).collect();
                eprintln!(
                    "perfbench: unknown workload `{}` (one of {names:?})",
                    o.workload
                );
                std::process::exit(2);
            }
        },
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let catalog = if opts.trace {
        // Calibrate the span clock before any timed region.
        span::now_ns();
        PER_LAYER
    } else {
        END_TO_END
    };

    let outcome = std::panic::catch_unwind(|| workload.run(&opts));
    let (correct, attempted, failed, mut values, rounds) = match outcome {
        Ok(out) => {
            for (name, unit, value) in &out.human {
                println!("{}: {name} = {value:.6} {unit}", opts.workload);
            }
            for (name, values) in &out.samples {
                let shown: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
                println!("{}: rounds.{name} = [{}]", opts.workload, shown.join(", "));
            }
            for f in &out.checks.failed {
                println!("{}: CHECK FAILED: {f}", opts.workload);
            }
            if let Some(path) = &out.spans_written {
                println!("{}: spans written to {}", opts.workload, path.display());
            }
            let correct = out.checks.passed() && out.failed == 0;
            (
                correct,
                out.attempted.max(1),
                out.failed,
                out.values,
                out.rounds,
            )
        }
        // A panic fails everything the run attempted.
        Err(_) => (false, 1, 1, Values::new(), 0),
    };
    if !opts.trace {
        values.insert("peak_rss_mb", peak_rss_mb());
        println!(
            "{}: error_rate = {:.6} ratio",
            opts.workload,
            failed as f64 / attempted as f64
        );
    }
    let metrics = collect(catalog, &values);
    for m in &metrics {
        println!("{}: {} = {} {}", opts.workload, m.name, m.value, m.unit);
    }
    let prov = provenance(&opts, workload, rounds);
    println!("provenance: {prov}");
    let line = result_line(correct, attempted, failed, &metrics);
    if let Some(dir) = &opts.out_dir {
        let path = dir.join(format!(
            "{}-seed{}-trace{}.json",
            opts.workload,
            opts.seed,
            u8::from(opts.trace)
        ));
        let doc = format!("{{\"provenance\": {prov}, \"result\": {line}}}\n");
        if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, doc)) {
            eprintln!("perfbench: writing {}: {e}", path.display());
        }
    }
    println!("{line}");
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The catalog behind the result lines matches `BENCHMARK.json`.
    #[test]
    fn catalog_matches_benchmark_json() {
        let doc = include_str!("../../BENCHMARK.json");
        for (section, catalog) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let start = doc
                .find(&format!("\"{section}\""))
                .expect("section present");
            let body = &doc[start..];
            let body = &body[..body.find(']').expect("section closes")];
            let names: Vec<&str> = body
                .match_indices("\"name\": \"")
                .map(|(i, m)| {
                    let rest = &body[i + m.len()..];
                    &rest[..rest.find('"').expect("name closes")]
                })
                .collect();
            let expected: Vec<&str> = catalog.iter().map(|(n, _)| *n).collect();
            assert_eq!(names, expected, "{section}");
        }
        for w in WORKLOADS {
            let name = w.name();
            assert!(
                doc.contains(&format!("\"name\": \"{name}\"")),
                "{name} listed"
            );
        }
    }

    #[test]
    fn options_reject_bad_flags() {
        assert!(RunOpts::parse(&["--trace".into(), "2".into()]).is_err());
        assert!(RunOpts::parse(&["--bogus".into()]).is_err());
        assert!(RunOpts::parse(&["--seed".into()]).is_err());
    }
}
