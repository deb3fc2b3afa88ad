//! Exporters: CSV for the epoch series, Chrome `trace_event` JSON for
//! the epochs and request spans, and the latency-attribution reports.
//!
//! Everything is hand-serialised — the schemas are small and fixed, and
//! owning the writer keeps the workspace free of registry dependencies.
//! Output is deterministic: column order is fixed and floats print with
//! a fixed precision.

use std::fmt::Write as _;

use crate::attrib::{AttribProfiler, RequestSpan, ServiceLevel, Stage, StageAccum};
use crate::epoch::{EpochRecord, EpochSeries};

fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.6}")
    } else {
        // CSV readers choke on Infinity/NaN
        "0.000000".to_string()
    }
}

/// CSV header for a series with `cores` cores. Per-core vector columns
/// come first (one block per field), scalar columns after.
pub fn epoch_csv_header(cores: usize) -> String {
    let mut h = String::from("epoch,end_cycle");
    for name in [
        "camat",
        "amat",
        "obstructed",
        "llc_active",
        "llc_accesses",
        "l1_mshr",
        "l2_mshr",
    ] {
        for i in 0..cores {
            let _ = write!(h, ",{name}{i}");
        }
    }
    h.push_str(
        ",demand_accesses,demand_misses,bypasses,evictions,writebacks,\
         mshr_occupancy,mshr_capacity,dram_queue_avg,dram_queue_max,\
         eq_occupancy,eq_overflows,epsilon,mean_q_mag",
    );
    h
}

fn epoch_csv_row(r: &EpochRecord) -> String {
    let mut row = format!("{},{}", r.epoch, r.end_cycle);
    for c in &r.camat {
        let _ = write!(row, ",{}", fmt_f64(*c));
    }
    for a in &r.amat {
        let _ = write!(row, ",{}", fmt_f64(*a));
    }
    for o in &r.obstructed {
        let _ = write!(row, ",{}", *o as u8);
    }
    for v in &r.llc_active {
        let _ = write!(row, ",{v}");
    }
    for v in &r.llc_accesses {
        let _ = write!(row, ",{v}");
    }
    for v in &r.l1_mshr_occupancy {
        let _ = write!(row, ",{v}");
    }
    for v in &r.l2_mshr_occupancy {
        let _ = write!(row, ",{v}");
    }
    let _ = write!(
        row,
        ",{},{},{},{},{},{},{},{},{},{},{},{},{}",
        r.demand_accesses,
        r.demand_misses,
        r.bypasses,
        r.evictions,
        r.writebacks,
        r.mshr_occupancy,
        r.mshr_capacity,
        fmt_f64(r.dram_queue_avg),
        r.dram_queue_max,
        fmt_f64(r.policy.eq_occupancy),
        r.policy.eq_overflows,
        fmt_f64(r.policy.epsilon),
        fmt_f64(r.policy.mean_q_mag),
    );
    for v in &r.noc_slice_accesses {
        let _ = write!(row, ",{v}");
    }
    for v in &r.noc_link_busy {
        let _ = write!(row, ",{v}");
    }
    row
}

/// Render the epoch series as CSV (header + one row per epoch). When
/// the run had the mesh NoC enabled (the first record carries per-slice
/// and per-link vectors), matching `noc_slice{i}` / `noc_link{i}`
/// columns are appended after the scalar block; NoC-off output is
/// unchanged.
pub fn epoch_csv(series: &EpochSeries) -> String {
    let first = series.records().first();
    let cores = first.map_or(0, |r| r.camat.len());
    let mut out = epoch_csv_header(cores);
    if let Some(r) = first {
        for i in 0..r.noc_slice_accesses.len() {
            let _ = write!(out, ",noc_slice{i}");
        }
        for i in 0..r.noc_link_busy.len() {
            let _ = write!(out, ",noc_link{i}");
        }
    }
    out.push('\n');
    for r in series.records() {
        out.push_str(&epoch_csv_row(r));
        out.push('\n');
    }
    out
}

/// Render the epoch series and any sampled request spans as Chrome
/// `trace_event` JSON — openable in `chrome://tracing` and Perfetto.
/// Cycles map to microsecond timestamps 1:1; each core is a thread,
/// epochs span thread 0 as duration events. Each request span becomes
/// one outer duration event tiled exactly by its per-stage slices, so
/// the stages nest under the request.
pub fn chrome_trace_json(series: &EpochSeries, spans: &[RequestSpan]) -> String {
    let mut parts: Vec<String> = Vec::with_capacity(series.len() + spans.len());
    let mut prev_end = 0u64;
    for r in series.records() {
        parts.push(format!(
            "{{\"name\":\"epoch {}\",\"cat\":\"epoch\",\"ph\":\"X\",\
             \"ts\":{},\"dur\":{},\"pid\":0,\"tid\":0,\"args\":{{\"epoch\":{}}}}}",
            r.epoch,
            prev_end,
            r.end_cycle.saturating_sub(prev_end),
            r.epoch,
        ));
        prev_end = r.end_cycle;
    }
    for s in spans {
        let kind = if s.is_prefetch { "prefetch" } else { "demand" };
        parts.push(format!(
            "{{\"name\":\"{kind}\",\"cat\":\"request\",\"ph\":\"X\",\
             \"ts\":{},\"dur\":{},\"pid\":0,\"tid\":{},\
             \"args\":{{\"line\":{},\"pc\":{},\"level\":\"{}\",\"merged\":{}}}}}",
            s.start,
            s.latency(),
            s.core + 1,
            s.line,
            s.pc,
            s.level.name(),
            s.merged,
        ));
        let mut t = s.start;
        for stage in Stage::ALL {
            let dur = s.stages[stage as usize];
            if dur == 0 {
                continue;
            }
            parts.push(format!(
                "{{\"name\":\"{}\",\"cat\":\"stage\",\"ph\":\"X\",\
                 \"ts\":{t},\"dur\":{dur},\"pid\":0,\"tid\":{}}}",
                stage.name(),
                s.core + 1,
            ));
            t += dur;
        }
    }
    format!(
        "{{\"displayTimeUnit\":\"ns\",\"traceEvents\":[{}]}}",
        parts.join(",")
    )
}

/// CSV header for the attribution table.
pub fn attrib_csv_header() -> String {
    let mut h = String::from("core,kind,requests,merged,latency_cycles");
    for lvl in ServiceLevel::ALL {
        let _ = write!(h, ",served_{}", lvl.name().to_ascii_lowercase());
    }
    for stage in Stage::ALL {
        let _ = write!(h, ",{}", stage.name());
    }
    h
}

fn attrib_csv_row(core: &str, kind: &str, a: &StageAccum) -> String {
    let mut row = format!(
        "{core},{kind},{},{},{}",
        a.requests, a.merged, a.latency_cycles
    );
    for v in &a.by_level {
        let _ = write!(row, ",{v}");
    }
    for v in &a.stages {
        let _ = write!(row, ",{v}");
    }
    row
}

/// Render the attribution profiler as CSV: one row per (core, kind)
/// plus an `all,total` roll-up row.
pub fn attrib_csv(p: &AttribProfiler) -> String {
    let mut out = attrib_csv_header();
    out.push('\n');
    for (core, a) in p.demand().iter().enumerate() {
        out.push_str(&attrib_csv_row(&core.to_string(), "demand", a));
        out.push('\n');
    }
    for (core, a) in p.prefetch().iter().enumerate() {
        out.push_str(&attrib_csv_row(&core.to_string(), "prefetch", a));
        out.push('\n');
    }
    out.push_str(&attrib_csv_row("all", "total", &p.combined()));
    out.push('\n');
    out
}

fn pct(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        100.0 * part as f64 / whole as f64
    }
}

/// Render the attribution profiler as a human-readable
/// "where-cycles-go" report.
pub fn attrib_text(p: &AttribProfiler) -> String {
    let mut out = String::new();
    let all = p.combined();
    let _ = writeln!(out, "latency attribution — where cycles go");
    let _ = writeln!(
        out,
        "  requests: {} ({} merged), total latency: {} cycles, \
         mean: {} cycles, mismatches: {}",
        all.requests,
        all.merged,
        all.latency_cycles,
        fmt_f64(if all.requests == 0 {
            0.0
        } else {
            all.latency_cycles as f64 / all.requests as f64
        }),
        p.mismatches(),
    );
    let _ = writeln!(out, "\n  {:<14} {:>16} {:>8}", "stage", "cycles", "share");
    for stage in Stage::ALL {
        let cycles = all.stages[stage as usize];
        let _ = writeln!(
            out,
            "  {:<14} {:>16} {:>7.2}%",
            stage.name(),
            cycles,
            pct(cycles, all.latency_cycles),
        );
    }
    let _ = writeln!(
        out,
        "\n  {:<14} {:>16} {:>8}",
        "served by", "requests", "share"
    );
    for lvl in ServiceLevel::ALL {
        let n = all.by_level[lvl as usize];
        let _ = writeln!(
            out,
            "  {:<14} {:>16} {:>7.2}%",
            lvl.name(),
            n,
            pct(n, all.requests),
        );
    }
    let _ = writeln!(
        out,
        "\n  {:<6} {:>10} {:>14} {:>10} {:>10}",
        "core", "demand", "lat cycles", "mean", "prefetch"
    );
    for (core, a) in p.demand().iter().enumerate() {
        let pf = p.prefetch().get(core).map_or(0, |x| x.requests);
        let _ = writeln!(
            out,
            "  {core:<6} {:>10} {:>14} {:>10} {pf:>10}",
            a.requests,
            a.latency_cycles,
            fmt_f64(if a.requests == 0 {
                0.0
            } else {
                a.latency_cycles as f64 / a.requests as f64
            }),
        );
    }
    let h = p.latency_histogram();
    if h.count() > 0 {
        let q = |q: f64| {
            h.quantile_bound(q)
                .map_or("overflow".to_string(), |b| format!("<={b}"))
        };
        let _ = writeln!(
            out,
            "\n  demand latency quantile bounds: p50 {} p90 {} p99 {}",
            q(0.5),
            q(0.9),
            q(0.99),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::epoch::PolicyEpochProbe;

    fn sample_series() -> EpochSeries {
        let mut s = EpochSeries::new();
        s.push(EpochRecord {
            epoch: 0,
            end_cycle: 100_000,
            camat: vec![1.5, 2.0],
            amat: vec![3.5, 4.0],
            obstructed: vec![false, true],
            llc_active: vec![150, 200],
            llc_accesses: vec![100, 100],
            l1_mshr_occupancy: vec![1, 2],
            l2_mshr_occupancy: vec![3, 4],
            demand_accesses: 100,
            demand_misses: 30,
            bypasses: 5,
            evictions: 25,
            writebacks: 8,
            mshr_occupancy: 3,
            mshr_capacity: 64,
            dram_queue_avg: 12.25,
            dram_queue_max: 40,
            noc_slice_accesses: Vec::new(),
            noc_link_busy: Vec::new(),
            policy: PolicyEpochProbe {
                eq_occupancy: 4.5,
                eq_overflows: 2,
                epsilon: 0.001,
                mean_q_mag: 1.25,
            },
        });
        s
    }

    fn noc_series() -> EpochSeries {
        let mut r = sample_series().records()[0].clone();
        r.noc_slice_accesses = vec![60, 40];
        r.noc_link_busy = vec![5, 0, 7, 1];
        let mut s = EpochSeries::new();
        s.push(r);
        s
    }

    #[test]
    fn csv_has_header_and_matching_columns() {
        let csv = epoch_csv(&sample_series());
        let mut lines = csv.lines();
        let header = lines.next().unwrap();
        let row = lines.next().unwrap();
        assert!(header.starts_with("epoch,end_cycle,camat0,camat1,amat0,amat1,obstructed0"));
        assert!(header.contains(",llc_active0,llc_active1,llc_accesses0"));
        assert!(header.contains(",l1_mshr0,l1_mshr1,l2_mshr0,l2_mshr1,"));
        assert_eq!(header.split(',').count(), row.split(',').count());
        assert!(row.contains(",0.001000,"));
        assert!(lines.next().is_none());
    }

    #[test]
    fn noc_columns_appear_only_when_present() {
        // NoC off: no noc columns anywhere
        let csv = epoch_csv(&sample_series());
        assert!(!csv.contains("noc_"));
        // NoC on: per-slice and per-link columns, still rectangular
        let csv = epoch_csv(&noc_series());
        let mut lines = csv.lines();
        let header = lines.next().unwrap();
        let row = lines.next().unwrap();
        assert!(header.ends_with(",noc_slice0,noc_slice1,noc_link0,noc_link1,noc_link2,noc_link3"));
        assert_eq!(header.split(',').count(), row.split(',').count());
        assert!(row.ends_with(",60,40,5,0,7,1"));
    }

    #[test]
    fn epoch_debug_hides_empty_noc_fields() {
        let plain = format!("{:?}", sample_series().records()[0]);
        assert!(!plain.contains("noc_"), "NoC-off Debug must match pre-NoC");
        let noc = format!("{:?}", noc_series().records()[0]);
        assert!(noc.contains("noc_slice_accesses: [60, 40]"));
        assert!(noc.contains("noc_link_busy: [5, 0, 7, 1]"));
    }

    fn sample_span() -> RequestSpan {
        use crate::attrib::SpanBuilder;
        let mut b = SpanBuilder::start(1, 0x400, 7, false, 1000);
        b.mark(Stage::L1Lookup, 1004);
        b.mark(Stage::L2Lookup, 1014);
        b.mark_llc_entry(1014);
        b.finish(ServiceLevel::Llc, Stage::LlcLookup, 1054, false)
    }

    #[test]
    fn chrome_trace_shape() {
        let json = chrome_trace_json(&sample_series(), &[sample_span()]);
        assert!(json.starts_with("{\"displayTimeUnit\""));
        assert!(json.contains("\"traceEvents\":["));
        // the epoch span, its boundary index in args
        assert!(json.contains("\"name\":\"epoch 0\",\"cat\":\"epoch\",\"ph\":\"X\""));
        assert!(
            json.contains("\"ts\":0,\"dur\":100000,\"pid\":0,\"tid\":0,\"args\":{\"epoch\":0}}")
        );
        assert!(json.contains("\"name\":\"demand\""));
        assert!(json.contains("\"cat\":\"stage\""));
        assert!(json.contains("\"name\":\"llc_lookup\""));
        assert!(json.ends_with("]}"));
        // braces balance (cheap well-formedness check)
        let open = json.matches('{').count();
        let close = json.matches('}').count();
        assert_eq!(open, close);
    }

    #[test]
    fn span_stage_slices_tile_the_request() {
        let s = sample_span();
        let json = chrome_trace_json(&EpochSeries::new(), &[s]);
        // outer request event covers [1000, 1054); stage slices are
        // contiguous: 1000+4, 1004+10, 1014+40
        assert!(json.contains("\"ts\":1000,\"dur\":54"));
        assert!(json.contains("\"ts\":1000,\"dur\":4"));
        assert!(json.contains("\"ts\":1004,\"dur\":10"));
        assert!(json.contains("\"ts\":1014,\"dur\":40"));
    }

    #[test]
    fn attrib_csv_rows_align_with_header() {
        let mut p = AttribProfiler::new(8);
        p.record(sample_span());
        let csv = attrib_csv(&p);
        let lines: Vec<&str> = csv.lines().collect();
        // cores 0..=1 × (demand, prefetch) + total
        assert_eq!(lines.len(), 1 + 2 * 2 + 1);
        let width = lines[0].split(',').count();
        for l in &lines {
            assert_eq!(l.split(',').count(), width, "ragged row: {l}");
        }
        assert!(lines[0].contains(",served_l1,served_l2,served_llc,served_dram,"));
        assert!(lines[0].ends_with("fill_wait"));
        assert!(lines.last().unwrap().starts_with("all,total,1,"));
    }

    #[test]
    fn attrib_text_reports_stages_and_levels() {
        let mut p = AttribProfiler::new(8);
        p.record(sample_span());
        let txt = attrib_text(&p);
        assert!(txt.contains("where cycles go"));
        assert!(txt.contains("llc_lookup"));
        assert!(txt.contains("mismatches: 0"));
        assert!(txt.contains("LLC"));
    }

    #[test]
    fn non_finite_floats_are_sanitised() {
        assert_eq!(fmt_f64(f64::NAN), "0.000000");
        assert_eq!(fmt_f64(f64::INFINITY), "0.000000");
    }
}
