//! The simulator workloads: a fixed multi-programmed mix run on a fresh,
//! warmed `System` per round, through public entry points only
//! (`build_mix`, `System::with_policy`, `System::run`).

use std::sync::Arc;
use std::time::Instant;

use chrome_core::{Chrome, ChromeConfig};
use chrome_sim::policy::{BuiltinLru, PolicySlot};
use chrome_sim::{LlcPolicy, SimConfig, SimResults, System};
use chrome_traces::mix::build_mix;

use crate::checks::{check_sim, Checks};
use crate::report::{best, call_percentiles, median, ratio, setup_medians, Values, HOOK_METRICS};
use crate::span::{
    per_call, timer_cost_ns, NamedSpan, SimProbes, SpanStat, TimedPolicy, TimedTrace,
};
use crate::{Outcome, RunOpts, Setup};

/// Modelled core clock in GHz (the DRAM timings are stated for a 4 GHz
/// core), turning simulated cycles into simulated nanoseconds.
const CORE_GHZ: f64 = 4.0;

/// One simulator workload: mix, policy, interconnect and budgets.
pub struct SimWorkload {
    pub name: &'static str,
    pub mix: &'static [&'static str],
    /// CHROME at the LLC; otherwise the statically dispatched LRU.
    pub chrome: bool,
    /// Mesh NoC spec; `None` is the uniform-latency LLC.
    pub noc: Option<&'static str>,
    /// Measured instructions per core per round.
    pub instructions: u64,
    /// Untimed warmup instructions per core per round.
    pub warmup: u64,
}

pub const SIM_4C_CHROME: SimWorkload = SimWorkload {
    name: "sim-4c-chrome",
    mix: &["mcf", "libquantum", "omnetpp", "bfs-ur"],
    chrome: true,
    noc: None,
    instructions: 2_500_000,
    warmup: 1_000_000,
};

pub const SIM_16C_NOC_LRU: SimWorkload = SimWorkload {
    name: "sim-16c-noc-lru",
    mix: &[
        "mcf",
        "libquantum",
        "omnetpp",
        "bfs-ur",
        "gcc",
        "soplex",
        "lbm",
        "xalancbmk",
        "milc",
        "astar",
        "mcf17",
        "pr-ur",
        "cactuBSSN",
        "GemsFDTD",
        "leslie3d",
        "fotonik3d",
    ],
    chrome: false,
    noc: Some("slices=4,hop=2,flits=1,depth=8"),
    instructions: 500_000,
    warmup: 250_000,
};

/// The CHROME configuration of the repository's experiment grid (512
/// sampled sets and an 8-deep evaluation FIFO, sized for runs of a few
/// million instructions).
fn chrome_policy() -> Box<dyn LlcPolicy> {
    Box::new(Chrome::new(ChromeConfig {
        sampled_sets: 512,
        eq_fifo_len: 8,
        ..Default::default()
    }))
}

/// NoC counters at one instant.
struct NocSnap {
    messages: u64,
    wait: u64,
    link_busy: Vec<u64>,
    slices: Vec<u64>,
}

impl NocSnap {
    fn take(sys: &System) -> Option<NocSnap> {
        sys.hierarchy().noc().map(|n| NocSnap {
            messages: n.mesh().messages(),
            wait: n.mesh().link_wait().iter().sum(),
            link_busy: n.mesh().link_busy().to_vec(),
            slices: n.slice_accesses().to_vec(),
        })
    }

    /// Per-layer NoC metrics over the interval `before..self`.
    fn since(&self, before: &NocSnap, cycles: u64, v: &mut Values) {
        let messages = self.messages - before.messages;
        v.insert("noc.messages", messages as f64);
        v.insert(
            "noc.link_wait_cycles_per_msg",
            ratio((self.wait - before.wait) as f64, messages as f64),
        );
        let busiest = self
            .link_busy
            .iter()
            .zip(&before.link_busy)
            .map(|(a, b)| a - b)
            .max()
            .unwrap_or(0);
        v.insert(
            "noc.max_link_busy_ratio",
            ratio(busiest as f64, cycles as f64),
        );
        let per_slice: Vec<f64> = self
            .slices
            .iter()
            .zip(&before.slices)
            .map(|(a, b)| (a - b) as f64)
            .collect();
        let mean = per_slice.iter().sum::<f64>() / per_slice.len().max(1) as f64;
        let max = per_slice.iter().copied().fold(0.0, f64::max);
        v.insert("noc.slice_imbalance", ratio(max, mean) - 1.0);
    }
}

/// One timed `System::run` and what surrounded it.
struct Measured {
    results: SimResults,
    wall_s: f64,
    /// Span-clock reading at the start of the timed region.
    run_start_ns: u64,
    setup: Setup,
    noc: Option<(NocSnap, NocSnap)>,
    report: Vec<(String, f64)>,
}

impl SimWorkload {
    fn cores(&self) -> usize {
        self.mix.len()
    }

    fn quota(&self, scale: f64) -> u64 {
        ((self.instructions as f64 * scale) as u64).max(1_000)
    }

    fn config(&self) -> SimConfig {
        let mut cfg = SimConfig::with_cores(self.cores());
        cfg.noc = self.noc.map(|spec| {
            chrome_noc::NocConfig::parse(spec).expect("workload NoC spec is well-formed")
        });
        cfg
    }

    /// Build the inputs and the system, warm it untimed, then time one
    /// measured region. With `probes`, traces and policy are wrapped in
    /// timing decorators that record from the start of the timed region.
    fn round(&self, opts: &RunOpts, probes: Option<&Arc<SimProbes>>) -> Measured {
        let t0 = Instant::now();
        let mut traces = build_mix(self.mix, opts.seed).expect("every mix workload is known");
        let inputs_s = t0.elapsed().as_secs_f64();

        let t0 = Instant::now();
        let policy: PolicySlot = match probes {
            None if self.chrome => chrome_policy().into(),
            None => BuiltinLru::new().into(),
            Some(p) => {
                traces = traces
                    .into_iter()
                    .map(|t| Box::new(TimedTrace::new(t, Arc::clone(p))) as _)
                    .collect();
                let inner = if self.chrome {
                    chrome_policy()
                } else {
                    Box::new(BuiltinLru::new())
                };
                (Box::new(TimedPolicy::new(inner, Arc::clone(p))) as Box<dyn LlcPolicy>).into()
            }
        };
        let mut sys = System::with_policy(self.config(), traces, policy);
        sys.set_step_workers(1);
        let build_s = t0.elapsed().as_secs_f64();

        let t0 = Instant::now();
        let warmup = ((self.warmup as f64 * opts.scale) as u64).max(1);
        std::hint::black_box(sys.run(warmup, 0));
        let warmup_s = t0.elapsed().as_secs_f64();

        if let Some(p) = probes {
            p.arm();
        }
        let before = NocSnap::take(&sys);
        let run_start_ns = crate::span::now_ns();
        let t0 = Instant::now();
        let results = sys.run(self.quota(opts.scale), 0);
        let wall_s = t0.elapsed().as_secs_f64();
        let noc = before.zip(NocSnap::take(&sys));
        Measured {
            wall_s,
            run_start_ns,
            setup: Setup {
                inputs_s,
                build_s,
                warmup_s,
            },
            noc,
            report: sys.hierarchy().llc.policy.report(),
            results,
        }
    }

    fn instructions_per_round(&self, scale: f64) -> f64 {
        (self.quota(scale) * self.cores() as u64) as f64
    }

    /// Untimed-layer run: rounds until `opts.seconds` of measured time.
    pub fn run_plain(&self, opts: &RunOpts) -> Outcome {
        let mut checks = Checks::default();
        let mut rounds: Vec<Measured> = Vec::new();
        let start = Instant::now();
        let mut measured = 0.0;
        while !opts.enough(rounds.len(), measured, start) {
            let m = self.round(opts, None);
            check_sim(
                &mut checks,
                &m.results,
                self.cores(),
                self.quota(opts.scale),
            );
            if let Some(first) = rounds.first() {
                checks.check(first.results == m.results, || {
                    format!("round {} results differ from round 0", rounds.len())
                });
            }
            measured += m.wall_s;
            rounds.push(m);
        }
        let first = &rounds[0].results;
        let instr = self.instructions_per_round(opts.scale);
        let mops_samples: Vec<f64> = rounds.iter().map(|m| instr / m.wall_s / 1e6).collect();
        let setups: Vec<f64> = rounds.iter().map(|m| m.setup.total()).collect();

        let mut e2e = Values::new();
        e2e.insert("setup_s", median(&setups));
        e2e.insert("mops", best(&mops_samples));
        e2e.insert("hit_ratio", 1.0 - first.llc.demand_miss_ratio());
        e2e.insert("virtual_ns_per_op", virtual_ns_per_instr(first));
        let human = vec![
            ("sim_mips", "MIPS", best(&mops_samples)),
            ("sim_ipc_sum", "ipc", first.ipc_sum()),
            ("sim_llc_mpki", "1/kinstr", first.llc_mpki()),
        ];
        Outcome {
            attempted: checks.run,
            failed: checks.failed.len() as u64,
            checks,
            rounds: rounds.len(),
            values: e2e,
            human,
            samples: vec![("mops", mops_samples), ("setup_s", setups)],
            spans_written: None,
        }
    }

    /// Traced run: each round times an untraced and a decorated system
    /// on the same inputs; their results must be identical.
    pub fn run_traced(&self, opts: &RunOpts) -> Outcome {
        let mut checks = Checks::default();
        let total = SimProbes::default();
        let run_span = SpanStat::default();
        let (mut wall_plain, mut wall_traced) = (0.0, 0.0);
        let mut setups: Vec<Setup> = Vec::new();
        let mut first: Option<Measured> = None;
        let start = Instant::now();
        while !opts.enough(setups.len(), wall_plain + wall_traced, start) {
            let plain = self.round(opts, None);
            let probes = Arc::new(SimProbes::default());
            let traced = self.round(opts, Some(&probes));
            run_span.record_dur(traced.run_start_ns, (traced.wall_s * 1e9) as u64);
            check_sim(
                &mut checks,
                &plain.results,
                self.cores(),
                self.quota(opts.scale),
            );
            checks.check(traced.results == plain.results, || {
                "traced results differ from untraced".to_string()
            });
            let children = probes.next_record.total_ns()
                + probes
                    .hooks()
                    .iter()
                    .map(|(_, s)| s.total_ns())
                    .sum::<u64>();
            checks.check(children as f64 <= traced.wall_s * 1e9, || {
                "child spans exceed their root span".to_string()
            });
            total.next_record.absorb(&probes.next_record);
            for ((_, t), (_, p)) in total.hooks().iter().zip(probes.hooks().iter()) {
                t.absorb(p);
            }
            wall_plain += plain.wall_s;
            wall_traced += traced.wall_s;
            setups.push(plain.setup);
            first.get_or_insert(traced);
        }
        let first = first.expect("at least one round ran");
        let r = &first.results;
        let rounds = setups.len();
        let instr = self.instructions_per_round(opts.scale) * rounds as f64;
        let wall_ns = wall_traced * 1e9;

        let mut v = Values::new();
        setup_medians(&setups, &mut v);
        v.insert("trace.timer_ns", timer_cost_ns());
        v.insert("trace_overhead", wall_traced / wall_plain - 1.0);

        let trace_ns = total.next_record.total_ns() as f64;
        v.insert("traces.records", total.next_record.calls() as f64);
        v.insert(
            "traces.ns_per_record",
            per_call(total.next_record.total_ns(), total.next_record.calls()),
        );
        v.insert("traces.share", trace_ns / wall_ns);

        let merged = SpanStat::default();
        let timed = [
            &total.on_hit,
            &total.on_miss,
            &total.choose_victim,
            &total.on_fill,
        ];
        for ((calls, ns), hook) in HOOK_METRICS.into_iter().zip(timed) {
            v.insert(calls, hook.calls() as f64);
            v.insert(ns, per_call(hook.total_ns(), hook.calls()));
        }
        v.insert("policy.evict.calls", total.on_evict.calls() as f64);
        v.insert("policy.epoch.calls", total.on_epoch.calls() as f64);
        for (_, s) in total.hooks() {
            merged.absorb(s);
        }
        let policy_ns = merged.total_ns() as f64;
        v.insert(
            "policy.ns_per_call",
            per_call(merged.total_ns(), merged.calls()),
        );
        v.insert("policy.share", policy_ns / wall_ns);
        for (key, value) in &first.report {
            if let Some(name) = report_key(key) {
                v.insert(name, *value);
            }
        }
        call_percentiles(&merged, &mut v);

        let self_ns = wall_ns - trace_ns - policy_ns;
        let llc_accesses = (r.llc.demand_accesses + r.llc.prefetch_accesses) as f64;
        v.insert("engine.self_share", self_ns / wall_ns);
        v.insert("engine.self_ns_per_op", self_ns / instr);
        v.insert(
            "engine.self_ns_per_access",
            self_ns / (llc_accesses * rounds as f64),
        );
        simulated_counters(r, &mut v);
        if let Some((before, after)) = &first.noc {
            after.since(before, r.total_cycles, &mut v);
        }

        let mut spans = vec![NamedSpan {
            name: "sim.run",
            parent: "",
            stat: &run_span,
        }];
        spans.push(NamedSpan {
            name: "traces.next_record",
            parent: "sim.run",
            stat: &total.next_record,
        });
        let hooks = total.hooks();
        for (hook, stat) in &hooks {
            spans.push(NamedSpan {
                name: hook,
                parent: "sim.run",
                stat,
            });
        }
        let human = vec![
            ("trace_overhead", "ratio", wall_traced / wall_plain - 1.0),
            ("traces.share", "ratio", trace_ns / wall_ns),
            ("policy.share", "ratio", policy_ns / wall_ns),
            ("sim.self_share", "ratio", self_ns / wall_ns),
        ];
        Outcome {
            attempted: checks.run,
            failed: checks.failed.len() as u64,
            checks,
            rounds,
            values: v,
            human,
            samples: Vec::new(),
            spans_written: opts.write_spans(self.name, &spans),
        }
    }
}

fn report_key(key: &str) -> Option<&'static str> {
    Some(match key {
        "upksa" => "policy.report.upksa",
        "q_updates" => "policy.report.q_updates",
        "sampled_accesses" => "policy.report.sampled_accesses",
        "explorations" => "policy.report.explorations",
        "agent_bypasses" => "policy.report.agent_bypasses",
        _ => return None,
    })
}

/// Simulated nanoseconds per instruction, over all cores.
pub fn virtual_ns_per_instr(r: &SimResults) -> f64 {
    let cycles: u64 = r.per_core.iter().map(|c| c.cycles).sum();
    let instr: u64 = r.per_core.iter().map(|c| c.instructions).sum();
    ratio(cycles as f64, instr as f64) / CORE_GHZ
}

/// Deterministic simulated counters of one measured region.
fn simulated_counters(r: &SimResults, v: &mut Values) {
    let instr: u64 = r.per_core.iter().map(|c| c.instructions).sum();
    let kilo = instr as f64 / 1000.0;
    let misses = |levels: &[chrome_sim::CacheStats]| {
        levels.iter().map(|s| s.demand_misses).sum::<u64>() as f64
    };
    let cores = r.per_core.len() as f64;
    v.insert("sim.ipc_sum", r.ipc_sum());
    v.insert("sim.llc_mpki", r.llc_mpki());
    v.insert("l1d.mpki", misses(&r.l1d) / kilo);
    v.insert("l2.mpki", misses(&r.l2) / kilo);
    v.insert(
        "llc.accesses",
        (r.llc.demand_accesses + r.llc.prefetch_accesses) as f64,
    );
    v.insert("llc.bypass_ratio", r.llc.bypass_coverage());
    v.insert(
        "llc.unused_eviction_ratio",
        ratio(r.llc.evictions_unused as f64, r.llc.evictions as f64),
    );
    v.insert("prefetch.ephr", r.llc.ephr());
    let dropped: u64 = r
        .l1d
        .iter()
        .chain(&r.l2)
        .chain(std::iter::once(&r.llc))
        .map(|s| s.prefetch_dropped)
        .sum();
    v.insert("prefetch.dropped", dropped as f64);
    v.insert("dram.reads", r.dram_reads as f64);
    v.insert("dram.writes", r.dram_writes as f64);
    v.insert("dram.avg_latency_cycles", r.dram_avg_latency);
    v.insert(
        "camat.llc_cycles",
        r.per_core.iter().map(|c| c.camat_llc()).sum::<f64>() / cores,
    );
    v.insert(
        "camat.amat_llc_cycles",
        r.per_core.iter().map(|c| c.amat_llc()).sum::<f64>() / cores,
    );
    let obstructed: u64 = r.per_core.iter().map(|c| c.obstructed_epochs).sum();
    let epochs: u64 = r.per_core.iter().map(|c| c.total_epochs).sum();
    v.insert(
        "camat.obstructed_epoch_ratio",
        ratio(obstructed as f64, epochs as f64),
    );
    let lag: u64 = r.per_core.iter().map(|c| c.rob_release_lag).sum();
    v.insert(
        "core.rob_release_lag_per_instr",
        ratio(lag as f64, instr as f64),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(seed: u64) -> RunOpts {
        RunOpts {
            scale: 0.01,
            min_rounds: 1,
            seconds: 0.0,
            ..RunOpts::for_test(seed)
        }
    }

    #[test]
    fn traced_results_equal_untraced_on_both_sim_workloads() {
        for w in [&SIM_4C_CHROME, &SIM_16C_NOC_LRU] {
            let opts = small(3);
            let plain = w.round(&opts, None);
            let probes = Arc::new(SimProbes::default());
            let traced = w.round(&opts, Some(&probes));
            assert_eq!(plain.results, traced.results, "{}", w.name);
            assert!(
                probes.next_record.calls() > 0,
                "{}: traces were timed",
                w.name
            );
            assert!(probes.on_miss.calls() > 0, "{}: policy was timed", w.name);
        }
    }

    #[test]
    fn plain_runs_pass_their_checks_and_repeat_exactly() {
        let opts = RunOpts {
            min_rounds: 2,
            ..small(5)
        };
        let out = SIM_4C_CHROME.run_plain(&opts);
        assert!(out.checks.passed(), "{:?}", out.checks.failed);
        assert_eq!(out.rounds, 2);
        assert!(out.checks.run > 2);
    }

    #[test]
    fn traced_run_reports_every_layer_share() {
        let out = SIM_16C_NOC_LRU.run_traced(&small(7));
        assert!(out.checks.passed(), "{:?}", out.checks.failed);
        let share = |k: &str| out.values[k];
        let total = share("traces.share") + share("policy.share") + share("engine.self_share");
        assert!((total - 1.0).abs() < 1e-9, "shares sum to {total}");
        assert!(out.values["noc.messages"] > 0.0);
    }
}
