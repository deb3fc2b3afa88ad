//! Sampling specs and sampled-replay plans.
//!
//! A [`SamplingSpec`] is the grid-visible knob (`k=<k>,ramp=<n>` with
//! an optional `,reps=<m>`): how many clusters to form, how many
//! detailed-but-unmeasured instructions to run before each measurement
//! window, and how many representatives to measure per cluster.
//! [`build_plan`] turns a trace file plus a seed into a
//! [`WorkloadPlan`] — per-core start positions, per-segment measurement
//! budgets and cluster weights — which `to_sim_plan` lowers to the
//! simulator's [`chrome_sim::SampledInterval`] form.

use chrome_sim::SampledInterval;
use chrome_tracefile::{TraceFile, TraceFileError};

use crate::features::trace_features;
use crate::kmeans::cluster;

/// Parsed form of the `k=<k>,ramp=<n>[,reps=<m>]` sampling axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SamplingSpec {
    /// Number of behaviour clusters per workload.
    pub k: usize,
    /// Detailed-but-unmeasured instructions per core run before each
    /// measurement window, to warm timing state (ROB, MSHRs, DRAM
    /// queues) that functional warmup deliberately skips.
    pub ramp: u64,
    /// Representatives measured per cluster (≥ 1). One rep estimates a
    /// cluster by its centroid-closest member alone; more reps spread
    /// across the cluster (farthest-point traversal) and split its
    /// weight, shrinking the estimator's rep-selection variance.
    pub reps: usize,
}

impl SamplingSpec {
    /// Parse `"k=<k>,ramp=<n>"` or `"k=<k>,ramp=<n>,reps=<m>"` (fixed
    /// field order, no other spellings — the canonical rendering is
    /// part of checkpoint identity, so exactly one spelling per value
    /// is legal; `reps=1` must be spelled by omission).
    pub fn parse(s: &str) -> Result<SamplingSpec, String> {
        let mut parts = s.split(',');
        let k = parts
            .next()
            .and_then(|p| p.strip_prefix("k="))
            .ok_or_else(|| format!("sampling spec `{s}`: expected `k=<k>,ramp=<n>[,reps=<m>]`"))?
            .parse::<usize>()
            .map_err(|e| format!("sampling spec `{s}`: bad k: {e}"))?;
        let ramp = parts
            .next()
            .and_then(|p| p.strip_prefix("ramp="))
            .ok_or_else(|| format!("sampling spec `{s}`: expected `k=<k>,ramp=<n>[,reps=<m>]`"))?
            .parse::<u64>()
            .map_err(|e| format!("sampling spec `{s}`: bad ramp: {e}"))?;
        let reps = match parts.next() {
            None => 1,
            Some(p) => p
                .strip_prefix("reps=")
                .ok_or_else(|| format!("sampling spec `{s}`: expected `reps=<m>` third field"))?
                .parse::<usize>()
                .map_err(|e| format!("sampling spec `{s}`: bad reps: {e}"))?,
        };
        if parts.next().is_some() {
            return Err(format!("sampling spec `{s}`: trailing fields"));
        }
        if k == 0 {
            return Err(format!("sampling spec `{s}`: k must be positive"));
        }
        if reps < 2 && s.contains("reps=") {
            return Err(format!("sampling spec `{s}`: reps < 2 must be omitted"));
        }
        Ok(SamplingSpec { k, ramp, reps })
    }

    /// Canonical rendering; `parse(render()) == self`. `reps=1` is
    /// rendered by omission so legacy `k=…,ramp=…` strings (and the
    /// cell hashes derived from them) are unchanged.
    #[must_use]
    pub fn render(&self) -> String {
        if self.reps > 1 {
            format!("k={},ramp={},reps={}", self.k, self.ramp, self.reps)
        } else {
            format!("k={},ramp={}", self.k, self.ramp)
        }
    }
}

/// One representative interval in a workload's sampling plan.
#[derive(Debug, Clone, PartialEq)]
pub struct Segment {
    /// Aligned interval index this segment represents.
    pub interval: usize,
    /// Fraction of the workload's instructions its cluster covers.
    pub weight: f64,
    /// Per-core absolute fetch positions where the interval begins.
    pub start: Vec<u64>,
    /// Measured instructions per core (the shortest core's interval
    /// length, so no core's measurement spills into its next interval).
    pub detail: u64,
}

/// A complete sampling plan for one workload trace.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadPlan {
    /// The spec the plan was built from.
    pub spec: SamplingSpec,
    /// Segments ordered by interval index (and thus by start position).
    pub segments: Vec<Segment>,
    /// Instructions (summed over cores) across all aligned intervals —
    /// what the weights are shares of.
    pub total_instructions: u64,
    /// Detailed instructions per core the plan will simulate
    /// (ramp + measured, summed over segments).
    pub detailed_instructions: u64,
    /// Per-core cumulative fetch positions at every aligned interval
    /// boundary (`n + 1` entries each, starting at 0) — the grid a
    /// functional profiling pass walks and reconstruction weights over.
    pub boundaries: Vec<Vec<u64>>,
    /// The measured window `[skip, end)` in per-core instructions that
    /// the weights are shares of.
    pub window: (u64, u64),
}

impl WorkloadPlan {
    /// Lower to the simulator's replay form.
    #[must_use]
    pub fn to_sim_plan(&self) -> Vec<SampledInterval> {
        self.segments
            .iter()
            .map(|s| SampledInterval {
                start: s.start.clone(),
                ramp: self.spec.ramp,
                detail: s.detail,
            })
            .collect()
    }

    /// Detail-reduction factor versus a full run of `full_instructions`
    /// measured instructions per core (warmup included in both sides).
    #[must_use]
    pub fn reduction(&self, full_instructions: u64) -> f64 {
        if self.detailed_instructions == 0 {
            0.0
        } else {
            full_instructions as f64 / self.detailed_instructions as f64
        }
    }
}

/// Build the sampling plan for `tf`: extract its feature matrix
/// ([`trace_features`]), cluster with the deterministic seed, and emit
/// one segment per cluster representative with instruction-share
/// weights.
///
/// Fewer aligned intervals than `k` degrades gracefully to exact
/// sampling (every interval is its own segment).
pub fn build_plan(
    tf: &TraceFile,
    spec: SamplingSpec,
    seed: u64,
) -> Result<WorkloadPlan, TraceFileError> {
    build_plan_windowed(tf, spec, seed, 0, u64::MAX)
}

/// [`build_plan`] restricted to the measured window: only intervals
/// overlapping `[skip, skip + len)` per-core instructions participate,
/// and weights are their share of *overlapping* instructions. A grid
/// cell passes its `(warmup, instructions)` here so the reconstruction
/// estimates exactly what the full run measures — weighting the
/// warmup-only head or the never-measured tail would bias every metric
/// by their (unmeasured) behaviour.
pub fn build_plan_windowed(
    tf: &TraceFile,
    spec: SamplingSpec,
    seed: u64,
    skip: u64,
    len: u64,
) -> Result<WorkloadPlan, TraceFileError> {
    let (features, cum) = trace_features(tf)?;
    assert!(
        !features.is_empty(),
        "trace {} has no aligned intervals to sample",
        tf.manifest().spec
    );

    // instruction weight of interval j = summed per-core overlap with
    // the measured window; out-of-window intervals drop out entirely
    let window_end = skip.saturating_add(len);
    let overlap: Vec<u64> = (0..features.len())
        .map(|j| {
            cum.iter()
                .map(|core| {
                    let lo = core[j].max(skip);
                    let hi = core[j + 1].min(window_end);
                    hi.saturating_sub(lo)
                })
                .sum()
        })
        .collect();
    let in_window: Vec<usize> = (0..features.len()).filter(|&j| overlap[j] > 0).collect();
    assert!(
        !in_window.is_empty(),
        "measured window [{skip}, {window_end}) overlaps no recorded interval"
    );
    let points: Vec<[f64; crate::features::DIMS]> =
        in_window.iter().map(|&j| features.norm[j]).collect();
    let clustering = cluster(&points, spec.k, seed);

    // cluster weight = its members' share of in-window instructions
    let total_instructions: u64 = in_window.iter().map(|&j| overlap[j]).sum();
    let n_clusters = clustering
        .assignment
        .iter()
        .copied()
        .max()
        .map_or(0, |m| m + 1);
    let mut cluster_instr = vec![0u64; n_clusters];
    for (p, &c) in clustering.assignment.iter().enumerate() {
        cluster_instr[c] += overlap[in_window[p]];
    }

    // reps=1: one segment per cluster, its centroid-closest member
    // (classic SimPoint). reps>1: a k·reps segment budget allocated to
    // clusters in proportion to their instruction weight (largest-
    // remainder rounding, every cluster keeps at least one), each
    // cluster sampled at evenly spaced temporal ranks. Equal per-
    // cluster allocation estimates the heavy clusters — where most of
    // the run lives — from a single centroid-ish member, which both
    // wastes budget on tiny clusters and biases the estimate toward
    // feature-average behaviour; weight-proportional rank-spread
    // sampling is the stratified estimator of the window mean.
    let mut chosen: Vec<(usize, usize)> = Vec::new(); // (point idx, cluster)
    if spec.reps <= 1 {
        chosen.extend(
            clustering
                .representatives
                .iter()
                .map(|&rep_p| (rep_p, clustering.assignment[rep_p])),
        );
    } else {
        let budget = spec.k.saturating_mul(spec.reps).min(points.len());
        let clusters: Vec<usize> = clustering
            .representatives
            .iter()
            .map(|&r| clustering.assignment[r])
            .collect();
        let sizes: Vec<usize> = clusters
            .iter()
            .map(|&c| clustering.assignment.iter().filter(|&&a| a == c).count())
            .collect();
        // every cluster keeps one segment; hand the rest out one at a
        // time to the cluster with the largest weight deficit (lowest
        // index on ties — deterministic), capped at its member count
        let mut alloc = vec![1usize; clusters.len()];
        let mut spare = budget.saturating_sub(clusters.len());
        while spare > 0 {
            let mut best: Option<(f64, usize)> = None;
            for (i, &c) in clusters.iter().enumerate() {
                if alloc[i] >= sizes[i] {
                    continue;
                }
                let target =
                    cluster_instr[c] as f64 / total_instructions.max(1) as f64 * budget as f64;
                let deficit = target - alloc[i] as f64;
                match best {
                    Some((bd, _)) if bd >= deficit => {}
                    _ => best = Some((deficit, i)),
                }
            }
            let Some((_, i)) = best else { break };
            alloc[i] += 1;
            spare -= 1;
        }
        for (i, &c) in clusters.iter().enumerate() {
            let members: Vec<usize> = (0..points.len())
                .filter(|&p| clustering.assignment[p] == c)
                .collect();
            let m = alloc[i].min(members.len());
            let mut picked: Vec<usize> = (0..m)
                .map(|j| members[(j * 2 + 1) * members.len() / (m * 2)])
                .collect();
            picked.dedup();
            chosen.extend(picked.into_iter().map(|p| (p, c)));
        }
    }
    // the simulator replays forward only: segments sorted by position
    chosen.sort_unstable();
    let mut cluster_reps = vec![0usize; n_clusters];
    for &(_, c) in &chosen {
        cluster_reps[c] += 1;
    }

    let mut segments = Vec::with_capacity(chosen.len());
    let mut detailed_instructions = 0u64;
    for &(rep_p, c) in &chosen {
        let rep = in_window[rep_p];
        let start: Vec<u64> = cum.iter().map(|core| core[rep]).collect();
        let detail = cum
            .iter()
            .map(|core| core[rep + 1] - core[rep])
            .min()
            .unwrap_or(0)
            .max(1);
        detailed_instructions += spec.ramp + detail;
        segments.push(Segment {
            interval: rep,
            weight: if total_instructions == 0 {
                0.0
            } else {
                cluster_instr[c] as f64 / total_instructions as f64 / cluster_reps[c] as f64
            },
            start,
            detail,
        });
    }
    Ok(WorkloadPlan {
        spec,
        segments,
        total_instructions,
        detailed_instructions,
        boundaries: cum
            .iter()
            .map(|core| core[..=features.len()].to_vec())
            .collect(),
        window: (skip, window_end),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use chrome_sim::rng::SmallRng;
    use chrome_sim::trace::TraceSource;
    use chrome_sim::types::{AccessKind, TraceRecord};
    use chrome_tracefile::record_sources;
    use std::path::PathBuf;

    #[test]
    fn spec_parse_render_roundtrip() {
        for s in ["k=1,ramp=0", "k=5,ramp=2000", "k=30,ramp=123456"] {
            let spec = SamplingSpec::parse(s).unwrap();
            assert_eq!(spec.render(), s);
            assert_eq!(SamplingSpec::parse(&spec.render()).unwrap(), spec);
        }
    }

    #[test]
    fn spec_parse_rejects_malformed() {
        for s in [
            "",
            "k=5",
            "ramp=5,k=2",
            "k=0,ramp=10",
            "k=5,ramp=10,extra=1",
            "k=x,ramp=10",
            "k=5,ramp=-2",
        ] {
            assert!(SamplingSpec::parse(s).is_err(), "accepted `{s}`");
        }
    }

    struct Phased {
        rng: SmallRng,
        i: u64,
    }

    impl TraceSource for Phased {
        fn next_record(&mut self) -> TraceRecord {
            // two alternating phases with very different locality
            self.i += 1;
            let phase = (self.i / 512).is_multiple_of(2);
            let vaddr = if phase {
                0x10_000 + (self.i % 16) * 64
            } else {
                self.rng.next_u64() | 1
            };
            TraceRecord {
                nonmem_before: if phase { 2 } else { 9 },
                pc: 0x400_000 + (self.i % 97) * 4,
                vaddr,
                kind: if self.i.is_multiple_of(4) {
                    AccessKind::Store
                } else {
                    AccessKind::Load
                },
                dep_prev: !phase && self.i.is_multiple_of(3),
            }
        }
        fn name(&self) -> &str {
            "phased"
        }
    }

    fn phased_trace(cores: usize, quota: u64, interval: u64) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("chrome-simpoint-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("plan-{cores}-{quota}-{interval}.ctf"));
        let sources: Vec<Box<dyn TraceSource>> = (0..cores)
            .map(|c| {
                Box::new(Phased {
                    rng: SmallRng::seed_from_u64(0xAB + c as u64),
                    i: c as u64 * 131,
                }) as Box<dyn TraceSource>
            })
            .collect();
        record_sources(&path, sources, "test", quota, interval).unwrap();
        path
    }

    #[test]
    fn plan_is_deterministic_and_sorted() {
        let path = phased_trace(2, 40_000, 1_000);
        let tf = TraceFile::open(&path).unwrap();
        let spec = SamplingSpec {
            k: 5,
            ramp: 500,
            reps: 1,
        };
        let a = build_plan(&tf, spec, 0x5EED).unwrap();
        let b = build_plan(&tf, spec, 0x5EED).unwrap();
        assert_eq!(a, b);
        assert!(!a.segments.is_empty() && a.segments.len() <= 5);
        // sorted by interval index and by every core's start position
        for w in a.segments.windows(2) {
            assert!(w[0].interval < w[1].interval);
            for (s0, s1) in w[0].start.iter().zip(&w[1].start) {
                assert!(s0 < s1);
            }
        }
        let total_w: f64 = a.segments.iter().map(|s| s.weight).sum();
        assert!((total_w - 1.0).abs() < 1e-9, "weights sum to {total_w}");
    }

    #[test]
    fn plan_starts_match_interval_boundaries() {
        let path = phased_trace(1, 20_000, 1_000);
        let tf = TraceFile::open(&path).unwrap();
        let plan = build_plan(
            &tf,
            SamplingSpec {
                k: 3,
                ramp: 100,
                reps: 1,
            },
            7,
        )
        .unwrap();
        let intervals = &tf.manifest().cores[0].intervals;
        for seg in &plan.segments {
            let expect: u64 = intervals[..seg.interval]
                .iter()
                .map(|i| i.instructions)
                .sum();
            assert_eq!(seg.start, vec![expect]);
            assert!(seg.detail <= intervals[seg.interval].instructions);
        }
        let sim_plan = plan.to_sim_plan();
        assert_eq!(sim_plan.len(), plan.segments.len());
        assert!(sim_plan.iter().all(|s| s.ramp == 100));
    }

    #[test]
    fn degenerate_small_trace_samples_every_interval() {
        let path = phased_trace(1, 3_000, 1_000);
        let tf = TraceFile::open(&path).unwrap();
        let n = tf.manifest().cores[0].intervals.len();
        let plan = build_plan(
            &tf,
            SamplingSpec {
                k: 50,
                ramp: 0,
                reps: 1,
            },
            1,
        )
        .unwrap();
        assert_eq!(plan.segments.len(), n);
        for (j, seg) in plan.segments.iter().enumerate() {
            assert_eq!(seg.interval, j);
        }
    }
}
