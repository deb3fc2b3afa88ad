//! The metric catalog, medians, process memory and the result line.

use std::collections::BTreeMap;

use crate::span::SpanStat;
use crate::Setup;

/// Values a workload measured, keyed by catalog name.
pub type Values = BTreeMap<&'static str, f64>;

/// End-to-end metrics `(name, unit)`, reported by every untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("mops", "Mop/s"),
    ("hit_ratio", "ratio"),
    ("virtual_ns_per_op", "ns"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics `(name, unit)`, reported by every traced run.
/// A layer a workload does not exercise reports 0 for its counts and
/// ratios; every time-valued metric is measured on every workload.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("setup.inputs_s", "s"),
    ("setup.build_s", "s"),
    ("setup.warmup_s", "s"),
    ("trace.timer_ns", "ns"),
    ("trace_overhead", "ratio"),
    ("traces.records", "count"),
    ("traces.ns_per_record", "ns"),
    ("traces.share", "ratio"),
    ("policy.hit.calls", "count"),
    ("policy.hit.ns_per_call", "ns"),
    ("policy.miss.calls", "count"),
    ("policy.miss.ns_per_call", "ns"),
    ("policy.victim.calls", "count"),
    ("policy.victim.ns_per_call", "ns"),
    ("policy.fill.calls", "count"),
    ("policy.fill.ns_per_call", "ns"),
    ("policy.evict.calls", "count"),
    ("policy.epoch.calls", "count"),
    ("policy.ns_per_call", "ns"),
    ("policy.share", "ratio"),
    ("policy.report.upksa", "count"),
    ("policy.report.q_updates", "count"),
    ("policy.report.sampled_accesses", "count"),
    ("policy.report.explorations", "count"),
    ("policy.report.agent_bypasses", "count"),
    ("engine.self_share", "ratio"),
    ("engine.self_ns_per_op", "ns"),
    ("engine.self_ns_per_access", "ns"),
    ("call_ns.p50", "ns"),
    ("call_ns.p99", "ns"),
    ("call_ns.p999", "ns"),
    ("call_samples", "count"),
    ("sim.ipc_sum", "ipc"),
    ("sim.llc_mpki", "1/kinstr"),
    ("l1d.mpki", "1/kinstr"),
    ("l2.mpki", "1/kinstr"),
    ("llc.accesses", "count"),
    ("llc.bypass_ratio", "ratio"),
    ("llc.unused_eviction_ratio", "ratio"),
    ("prefetch.ephr", "ratio"),
    ("prefetch.dropped", "count"),
    ("dram.reads", "count"),
    ("dram.writes", "count"),
    ("dram.avg_latency_cycles", "cycles"),
    ("camat.llc_cycles", "cycles"),
    ("camat.amat_llc_cycles", "cycles"),
    ("camat.obstructed_epoch_ratio", "ratio"),
    ("core.rob_release_lag_per_instr", "cycles/instr"),
    ("noc.messages", "count"),
    ("noc.link_wait_cycles_per_msg", "cycles/msg"),
    ("noc.max_link_busy_ratio", "ratio"),
    ("noc.slice_imbalance", "ratio"),
    ("serve.hit_ratio", "ratio"),
    ("serve.backend_us_per_req", "vus/req"),
    ("serve.admit_ratio", "ratio"),
    ("serve.bypass_ratio", "ratio"),
    ("serve.evictions_per_req", "ratio"),
    ("serve.thread_busy_imbalance", "ratio"),
];

/// `(calls, ns_per_call)` names of the four policy hooks both kinds of
/// workload time, in the order hit, miss, victim, fill.
pub const HOOK_METRICS: [(&str, &str); 4] = [
    ("policy.hit.calls", "policy.hit.ns_per_call"),
    ("policy.miss.calls", "policy.miss.ns_per_call"),
    ("policy.victim.calls", "policy.victim.ns_per_call"),
    ("policy.fill.calls", "policy.fill.ns_per_call"),
];

/// The catalog's metrics in catalog order, taking each value from
/// `values` (0 when absent).
///
/// # Panics
///
/// Panics if `values` holds a name the catalog lacks (a benchmark bug).
pub fn collect(catalog: &[(&'static str, &'static str)], values: &Values) -> Vec<Metric> {
    for name in values.keys() {
        assert!(
            catalog.iter().any(|(n, _)| n == name),
            "metric {name} is not in the catalog"
        );
    }
    catalog
        .iter()
        .map(|&(name, unit)| metric(name, unit, values.get(name).copied().unwrap_or(0.0)))
        .collect()
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric {
        name,
        unit,
        value: if value.is_finite() { value } else { 0.0 },
    }
}

/// Median of a non-empty sample (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Largest value of a non-empty sample: the best-of-N throughput. Every
/// round repeats identical work, and interference on a shared host only
/// ever slows a round, so the fastest round is the least disturbed one.
pub fn best(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "best of no samples");
    values.iter().copied().fold(f64::MIN, f64::max)
}

/// `num / den`, 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// High-water resident set size of this process (VmHWM), in MB; 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn json_metrics(metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// The final stdout line: `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        json_metrics(metrics)
    )
}

/// Median of each set-up phase over rounds.
pub fn setup_medians(setups: &[Setup], v: &mut Values) {
    let phase = |f: fn(&Setup) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>());
    v.insert("setup.inputs_s", phase(|s| s.inputs_s));
    v.insert("setup.build_s", phase(|s| s.build_s));
    v.insert("setup.warmup_s", phase(|s| s.warmup_s));
}

/// Percentiles of individually timed calls at the workload's decision
/// boundary.
pub fn call_percentiles(calls: &SpanStat, v: &mut Values) {
    v.insert("call_ns.p50", calls.percentile(0.50) as f64);
    v.insert("call_ns.p99", calls.percentile(0.99) as f64);
    v.insert("call_ns.p999", calls.percentile(0.999) as f64);
    v.insert("call_samples", calls.calls() as f64);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn result_line_has_the_four_keys() {
        let line = result_line(true, 3, 0, &[metric("setup_s", "s", 0.25)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn non_finite_values_are_zeroed() {
        assert_eq!(metric("x", "s", f64::NAN).value, 0.0);
    }
}
