//! Per-interval feature vectors from `.ctf` footer interval stats plus
//! streamed memory region vectors.
//!
//! Each aligned interval index (interval `j` across every core) becomes
//! one point in a [`DIMS`]-dimensional space. The first
//! [`SCALAR_DIMS`] dimensions come straight from the footer stats and
//! capture the memory behaviour the cache hierarchy reacts to: access
//! intensity, store and dependence mix, footprint, line reuse, address
//! span — and the interval's temporal position. Position matters
//! because full-run miss counts are dominated by the cold-cache
//! transient: early and late intervals with identical memory mix see
//! very different hierarchy state, and without a time dimension k-means
//! lumps them together and picks warm-bulk representatives that
//! undercount misses.
//!
//! The remaining [`REGION_DIMS`] dimensions are a *memory region
//! vector* — the memory analogue of SimPoint's basic-block vector.
//! Scalar summaries cannot tell two intervals apart when they touch
//! the same *number* of lines in different *places*, which is exactly
//! what distinguishes the phases of the phase-heavy SPEC workloads;
//! clustering on scalars alone leaves high miss-rate variance inside
//! each cluster and the sampled estimate inherits it as selection
//! noise. The region vector hashes each access's 4 KiB region into a
//! fixed-width histogram (feature hashing plays the role of SimPoint's
//! random projection), so intervals land near each other only when
//! they concentrate their traffic in the same parts of the address
//! space. Dimensions are min-max normalized over the workload so
//! k-means distances weigh each behaviour equally regardless of raw
//! units.
//!
//! The final [`FUNC_DIMS`] dimensions cluster directly on the
//! *covariate*: per-interval pseudo-CPI and LLC demand MPKI from a
//! functional-warmup pass over the whole trace (cheap — it costs no
//! detailed instructions). Footer scalars and region vectors are
//! proxies for cache behaviour; the functional profile measures it.
//! Grouping intervals by functional miss rate collapses the
//! within-cluster miss variance that dominates sampled-MPKI error on
//! phase-heavy workloads, and it makes the regression estimator's
//! covariate nearly constant inside each cluster, so the residual
//! correction stays small and stable.

use chrome_sim::types::{TraceRecord, LINE_SHIFT};
use chrome_sim::{SimConfig, System};
use chrome_tracefile::{IntervalStats, TraceFile, TraceFileError};

/// Scalar feature dimensions straight from the footer interval stats.
pub const SCALAR_DIMS: usize = 7;

/// Hashed region-histogram dimensions per interval.
pub const REGION_DIMS: usize = 16;

/// Functional-profile covariate dimensions per interval: pseudo-CPI
/// and LLC demand MPKI from a functional pass over the whole trace.
pub const FUNC_DIMS: usize = 2;

/// Total feature dimensions per interval.
pub const DIMS: usize = SCALAR_DIMS + REGION_DIMS + FUNC_DIMS;

/// Cache lines per region: `1 << REGION_LINE_SHIFT` lines = 4 KiB.
const REGION_LINE_SHIFT: u64 = 6;

/// Column names, index-aligned with the vectors ([`DIMS`] entries).
pub const DIM_NAMES: [&str; DIMS] = [
    "mem_intensity",
    "store_ratio",
    "dep_ratio",
    "footprint",
    "reuse",
    "span",
    "position",
    "region00",
    "region01",
    "region02",
    "region03",
    "region04",
    "region05",
    "region06",
    "region07",
    "region08",
    "region09",
    "region10",
    "region11",
    "region12",
    "region13",
    "region14",
    "region15",
    "func_cpi",
    "func_mpki",
];

/// Feature matrix for one workload: one row per aligned interval.
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureSet {
    /// Raw (unnormalized) feature rows, for inspection/export.
    pub raw: Vec<[f64; DIMS]>,
    /// Min-max normalized rows — what clustering runs on. Constant
    /// dimensions normalize to 0.
    pub norm: Vec<[f64; DIMS]>,
    /// Total instructions (summed over cores) per interval — the
    /// cluster-weight basis.
    pub instructions: Vec<u64>,
}

impl FeatureSet {
    /// Number of aligned intervals (rows).
    #[must_use]
    pub fn len(&self) -> usize {
        self.norm.len()
    }

    /// True when no aligned interval exists.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.norm.is_empty()
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn raw_features(
    agg: &[&IntervalStats],
    position: f64,
    region: &[u64; REGION_DIMS],
    func: [f64; FUNC_DIMS],
) -> [f64; DIMS] {
    let instructions: u64 = agg.iter().map(|s| s.instructions).sum();
    let records: u64 = agg.iter().map(|s| s.records).sum();
    let stores: u64 = agg.iter().map(|s| s.stores).sum();
    let dep_loads: u64 = agg.iter().map(|s| s.dep_loads).sum();
    let distinct: u64 = agg.iter().map(|s| s.distinct_lines).sum();
    let min_line = agg.iter().map(|s| s.min_line).min().unwrap_or(u64::MAX);
    let max_line = agg.iter().map(|s| s.max_line).max().unwrap_or(0);
    let span = if min_line == u64::MAX || max_line <= min_line {
        0.0
    } else {
        ((max_line - min_line) as f64).ln_1p()
    };
    let mut out = [0.0; DIMS];
    out[..SCALAR_DIMS].copy_from_slice(&[
        ratio(records, instructions),
        ratio(stores, records),
        ratio(dep_loads, records),
        (distinct as f64).ln_1p(),
        ratio(records, distinct.max(1)),
        span,
        position,
    ]);
    let region_total: u64 = region.iter().sum();
    for (o, &c) in out[SCALAR_DIMS..].iter_mut().zip(region) {
        *o = ratio(c, region_total);
    }
    out[SCALAR_DIMS + REGION_DIMS..].copy_from_slice(&func);
    out
}

/// Hashed region histograms for one core: one [`REGION_DIMS`]-bucket
/// count vector per footer interval. The footer's per-interval record
/// counts partition the decoded stream exactly (the recorder assigns a
/// record wholly to the interval it closes), so interval `j` is simply
/// the next `intervals[j].records` records. Each access's 4 KiB region
/// hashes (SplitMix64 — the workload-seed finalizer, deterministic
/// everywhere) into one bucket.
#[must_use]
pub fn region_histograms(
    records: &[TraceRecord],
    intervals: &[IntervalStats],
) -> Vec<[u64; REGION_DIMS]> {
    let mut out = Vec::with_capacity(intervals.len());
    let mut next = 0usize;
    for iv in intervals {
        let mut hist = [0u64; REGION_DIMS];
        let end = (next + iv.records as usize).min(records.len());
        for rec in &records[next..end] {
            let region = (rec.vaddr >> LINE_SHIFT) >> REGION_LINE_SHIFT;
            let bucket = (chrome_exec::splitmix64(region) % REGION_DIMS as u64) as usize;
            hist[bucket] += 1;
        }
        next = end;
        out.push(hist);
    }
    out
}

/// The feature matrix the sampling planner clusters for `tf`, and each
/// core's cumulative fetch position at every interval boundary
/// (`intervals + 1` entries per core, starting at 0). Per core, it reads
/// the footer interval stats and decodes the records once for the
/// region histograms; one functional pass over the whole trace yields
/// the covariates.
/// `simpoint inspect` prints this same matrix.
///
/// # Errors
///
/// Returns the trace file's error when a core's records cannot be
/// read.
pub fn trace_features(tf: &TraceFile) -> Result<(FeatureSet, Vec<Vec<u64>>), TraceFileError> {
    let cores = tf.manifest().cores.len();
    let per_core: Vec<Vec<IntervalStats>> = tf
        .manifest()
        .cores
        .iter()
        .map(|core| core.intervals.clone())
        .collect();
    let mut regions = Vec::with_capacity(cores);
    for (c, intervals) in per_core.iter().enumerate() {
        // one linear decode per core feeds the region vectors; the
        // scalar footer stats alone cannot separate phases that touch
        // different parts of the address space
        regions.push(region_histograms(&tf.decode_core(c)?, intervals));
    }

    // per-core cumulative fetch positions at each interval boundary
    let mut cum: Vec<Vec<u64>> = Vec::with_capacity(cores);
    for intervals in &per_core {
        let mut acc = 0u64;
        let mut cur = Vec::with_capacity(intervals.len() + 1);
        cur.push(0);
        for iv in intervals {
            acc += iv.instructions;
            cur.push(acc);
        }
        cum.push(cur);
    }

    // functional-covariate columns: one functional pass over the whole
    // trace under the default policy (scheme-independent, so every
    // grid cell on the same trace clusters identically) yields each
    // interval's pseudo-CPI and LLC demand MPKI
    let n_aligned = per_core.iter().map(Vec::len).min().unwrap_or(0);
    let func: Vec<[f64; FUNC_DIMS]> = {
        let mut sys = System::new(SimConfig::with_cores(cores), tf.sources()?);
        let profile = sys.run_functional_profile(&cum);
        (0..n_aligned)
            .map(|j| {
                let instr: u64 = per_core.iter().map(|core| core[j].instructions).sum();
                let instr = instr.max(1) as f64;
                [
                    profile.cycles[j] as f64 / instr,
                    profile.llc_misses[j] as f64 / instr * 1000.0,
                ]
            })
            .collect()
    };

    let features = extract_features_with_regions(&per_core, &regions, &func);
    Ok((features, cum))
}

/// Build the feature matrix from each core's interval list, each
/// core's region histograms from [`region_histograms`] and the
/// per-interval functional covariates — `[pseudo-CPI, LLC demand
/// MPKI]` from a functional profile pass
/// ([`chrome_sim::System::run_functional_profile`]). Only the first
/// `min(len)` intervals participate — cores drift apart by at most one
/// trailing partial interval, and an unmatched tail has no aligned
/// system state to sample.
///
/// # Panics
///
/// Panics if `per_core` is empty (a trace always has at least one
/// core), or if `regions` or `func` has fewer entries than aligned
/// intervals.
#[must_use]
pub fn extract_features_with_regions(
    per_core: &[Vec<IntervalStats>],
    regions: &[Vec<[u64; REGION_DIMS]>],
    func: &[[f64; FUNC_DIMS]],
) -> FeatureSet {
    assert!(!per_core.is_empty(), "no cores in interval data");
    let n = per_core.iter().map(Vec::len).min().unwrap_or(0);
    let mut raw = Vec::with_capacity(n);
    let mut instructions = Vec::with_capacity(n);
    for j in 0..n {
        let agg: Vec<&IntervalStats> = per_core.iter().map(|c| &c[j]).collect();
        let mut region = [0u64; REGION_DIMS];
        for core in regions {
            for (b, &c) in region.iter_mut().zip(&core[j]) {
                *b += c;
            }
        }
        raw.push(raw_features(&agg, j as f64, &region, func[j]));
        instructions.push(agg.iter().map(|s| s.instructions).sum());
    }
    FeatureSet {
        norm: normalize(&raw),
        raw,
        instructions,
    }
}

/// Normalize for clustering. Scalar columns min-max into [0, 1]
/// (constant columns map to 0 so they contribute nothing to
/// distances). Region columns pass through as raw fractions: they are
/// already commensurate (each interval's region block sums to 1), and
/// min-max stretching would blow narrow-band fraction noise up to
/// full-range signal — on streaming workloads whose bucket shares
/// wobble in a tight band, that noise swamps the scalar dimensions
/// and clustering degrades badly. Functional-covariate columns get a
/// mean-relative squash `x / (x + mean)` instead of min-max for the
/// same reason: a workload whose functional miss rate is flat would
/// otherwise have its measurement noise stretched to full range,
/// while the squash leaves a flat column constant (≈ 0.5) and spreads
/// a genuinely phase-y one across [0, 1).
fn normalize(raw: &[[f64; DIMS]]) -> Vec<[f64; DIMS]> {
    let mut lo = [f64::INFINITY; SCALAR_DIMS];
    let mut hi = [f64::NEG_INFINITY; SCALAR_DIMS];
    for row in raw {
        for d in 0..SCALAR_DIMS {
            lo[d] = lo[d].min(row[d]);
            hi[d] = hi[d].max(row[d]);
        }
    }
    let func0 = SCALAR_DIMS + REGION_DIMS;
    let mut mean = [0.0; FUNC_DIMS];
    for row in raw {
        for (m, &v) in mean.iter_mut().zip(&row[func0..]) {
            *m += v;
        }
    }
    for m in &mut mean {
        *m /= raw.len().max(1) as f64;
    }
    raw.iter()
        .map(|row| {
            let mut out = *row;
            for d in 0..SCALAR_DIMS {
                let range = hi[d] - lo[d];
                out[d] = if range > 0.0 {
                    (row[d] - lo[d]) / range
                } else {
                    0.0
                };
            }
            for (d, m) in (func0..DIMS).zip(mean) {
                out[d] = if m > 0.0 { row[d] / (row[d] + m) } else { 0.0 };
            }
            out
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(instructions: u64, records: u64, stores: u64, distinct: u64) -> IntervalStats {
        IntervalStats {
            instructions,
            records,
            loads: records - stores,
            stores,
            dep_loads: records / 4,
            distinct_lines: distinct,
            min_line: 0x100,
            max_line: 0x100 + distinct,
        }
    }

    /// The features of `per_core` with explicit zero region and
    /// functional rows.
    fn scalar_features(per_core: &[Vec<IntervalStats>]) -> FeatureSet {
        let regions: Vec<Vec<[u64; REGION_DIMS]>> = per_core
            .iter()
            .map(|core| vec![[0; REGION_DIMS]; core.len()])
            .collect();
        let n = per_core.iter().map(Vec::len).min().unwrap_or(0);
        extract_features_with_regions(per_core, &regions, &vec![[0.0; FUNC_DIMS]; n])
    }

    #[test]
    fn aligned_length_is_min_over_cores() {
        let fs = scalar_features(&[
            vec![
                iv(1000, 100, 10, 50),
                iv(1000, 200, 20, 60),
                iv(300, 5, 1, 4),
            ],
            vec![iv(1000, 150, 30, 40), iv(900, 100, 10, 30)],
        ]);
        assert_eq!(fs.len(), 2);
        assert_eq!(fs.instructions, vec![2000, 1900]);
    }

    #[test]
    fn normalization_bounds_and_constant_columns() {
        let fs = scalar_features(&[vec![
            iv(1000, 100, 10, 50),
            iv(1000, 500, 250, 400),
            iv(1000, 300, 30, 200),
        ]]);
        for row in &fs.norm {
            for &v in row {
                assert!(
                    (0.0..=1.0).contains(&v),
                    "normalized value {v} out of range"
                );
            }
        }
        // identical intervals ⇒ every behaviour column constant ⇒ zero;
        // only the position column still spreads across [0, 1]
        let flat = scalar_features(&[vec![iv(1000, 100, 10, 50); 4]]);
        let pos = SCALAR_DIMS - 1;
        assert!(flat.norm.iter().all(|r| r[..pos].iter().all(|&v| v == 0.0)));
        assert!(flat
            .norm
            .iter()
            .all(|r| r[SCALAR_DIMS..].iter().all(|&v| v == 0.0)));
        let positions: Vec<f64> = flat.norm.iter().map(|r| r[pos]).collect();
        assert_eq!(positions, vec![0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0]);
        assert_eq!(flat.raw[0][..pos], flat.raw[3][..pos]);
    }

    #[test]
    fn region_histograms_partition_by_footer_record_counts() {
        use chrome_sim::types::AccessKind;
        // two intervals of 3 and 2 records; addresses pin the buckets
        let rec = |vaddr: u64| TraceRecord {
            nonmem_before: 0,
            pc: 0x400,
            vaddr,
            kind: AccessKind::Load,
            dep_prev: false,
        };
        let records = vec![
            rec(0x0000),
            rec(0x1000),
            rec(0x0040),
            rec(0x2000),
            rec(0x2040),
        ];
        let intervals = vec![
            IntervalStats {
                records: 3,
                ..iv(3, 3, 0, 2)
            },
            IntervalStats {
                records: 2,
                ..iv(2, 2, 0, 1)
            },
        ];
        let hists = region_histograms(&records, &intervals);
        assert_eq!(hists.len(), 2);
        assert_eq!(hists[0].iter().sum::<u64>(), 3);
        assert_eq!(hists[1].iter().sum::<u64>(), 2);
        // same 4 KiB region ⇒ same bucket: records 3 and 4 share 0x2000
        let b = (chrome_exec::splitmix64(0x2000 >> LINE_SHIFT >> 6) % REGION_DIMS as u64) as usize;
        assert_eq!(hists[1][b], 2);
        // the whole feature pipeline spreads intervals that differ only
        // in where (not how much) they touch memory
        let fs = extract_features_with_regions(
            std::slice::from_ref(&intervals),
            &[hists],
            &[[0.0; FUNC_DIMS]; 2],
        );
        assert!(
            fs.norm[0][SCALAR_DIMS..SCALAR_DIMS + REGION_DIMS]
                != fs.norm[1][SCALAR_DIMS..SCALAR_DIMS + REGION_DIMS]
        );
    }

    #[test]
    fn empty_interval_features_are_finite() {
        // a (degenerate) interval with no records must not produce NaN
        let fs = scalar_features(&[vec![
            IntervalStats {
                instructions: 10,
                records: 0,
                loads: 0,
                stores: 0,
                dep_loads: 0,
                distinct_lines: 0,
                min_line: u64::MAX,
                max_line: 0,
            },
            iv(1000, 100, 10, 50),
        ]]);
        assert!(fs.raw.iter().flatten().all(|v| v.is_finite()));
        assert!(fs.norm.iter().flatten().all(|v| v.is_finite()));
    }
}
