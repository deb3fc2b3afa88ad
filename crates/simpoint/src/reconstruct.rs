//! Weighted reconstruction of full-run metrics from sampled intervals.
//!
//! Each representative interval's `SimResults` stands in for its whole
//! cluster; cluster weights are instruction shares, so the right
//! averages are the instruction-weighted ones:
//!
//! * **IPC** — cycles-per-instruction is additive over instructions, so
//!   per core `cpi = Σ wⱼ·cpiⱼ` and `ipc = 1/cpi` (weighted harmonic
//!   mean); the aggregate is the per-core sum, matching
//!   `SimResults::ipc_sum`.
//! * **MPKI** — misses-per-kilo-instruction is already an
//!   instruction-normalized rate, so the weighted arithmetic mean is
//!   exact.
//! * **C-AMAT** — a ratio of two instruction-normalized rates
//!   (active cycles per instruction over accesses per instruction);
//!   reconstruct numerator and denominator separately, then divide.

use chrome_sim::stats::SimResults;

/// Aggregate IPC of one run: sum of per-core IPCs (the grid's
/// throughput metric).
#[must_use]
pub fn aggregate_ipc(r: &SimResults) -> f64 {
    r.ipc_sum()
}

/// Aggregate LLC MPKI of one run.
#[must_use]
pub fn aggregate_mpki(r: &SimResults) -> f64 {
    r.llc_mpki()
}

/// Aggregate C-AMAT at the LLC: total memory-active cycles over total
/// LLC accesses, pooled across cores.
#[must_use]
pub fn aggregate_camat(r: &SimResults) -> f64 {
    let active: u64 = r.per_core.iter().map(|c| c.llc_active_cycles).sum();
    let accesses: u64 = r.per_core.iter().map(|c| c.llc_accesses).sum();
    if accesses == 0 {
        0.0
    } else {
        active as f64 / accesses as f64
    }
}

/// Full-run estimates reconstructed from weighted interval results.
#[derive(Debug, Clone, PartialEq)]
pub struct Reconstructed {
    /// Estimated aggregate IPC (sum of per-core IPCs).
    pub ipc: f64,
    /// Estimated per-core IPCs (weighted harmonic means).
    pub per_core_ipc: Vec<f64>,
    /// Estimated LLC MPKI.
    pub mpki: f64,
    /// Estimated LLC C-AMAT (cycles per access).
    pub camat: f64,
}

/// Reconstruct full-run metrics from per-interval results and cluster
/// weights.
///
/// # Panics
///
/// Panics if `weights` and `results` differ in length, are empty, or
/// the runs disagree on core count.
#[must_use]
pub fn reconstruct(weights: &[f64], results: &[SimResults]) -> Reconstructed {
    assert_eq!(weights.len(), results.len(), "one weight per interval");
    assert!(!results.is_empty(), "nothing to reconstruct");
    let cores = results[0].per_core.len();
    assert!(results.iter().all(|r| r.per_core.len() == cores));
    let wsum: f64 = weights.iter().sum();
    assert!(wsum > 0.0, "weights must not all be zero");

    // IPC: weighted harmonic per core, then summed
    let mut per_core_ipc = Vec::with_capacity(cores);
    for c in 0..cores {
        let mut cpi = 0.0;
        for (w, r) in weights.iter().zip(results) {
            let interval_ipc = r.per_core[c].ipc();
            if interval_ipc > 0.0 {
                cpi += w / wsum / interval_ipc;
            }
        }
        per_core_ipc.push(if cpi > 0.0 { 1.0 / cpi } else { 0.0 });
    }
    let ipc = per_core_ipc.iter().sum();

    // MPKI: weighted arithmetic mean of an instruction-normalized rate
    let mpki = weights
        .iter()
        .zip(results)
        .map(|(w, r)| w / wsum * aggregate_mpki(r))
        .sum();

    // C-AMAT: weighted per-instruction rates, divided at the end
    let mut active_rate = 0.0;
    let mut access_rate = 0.0;
    for (w, r) in weights.iter().zip(results) {
        let instr: u64 = r.per_core.iter().map(|c| c.instructions).sum();
        if instr == 0 {
            continue;
        }
        let active: u64 = r.per_core.iter().map(|c| c.llc_active_cycles).sum();
        let accesses: u64 = r.per_core.iter().map(|c| c.llc_accesses).sum();
        active_rate += w / wsum * active as f64 / instr as f64;
        access_rate += w / wsum * accesses as f64 / instr as f64;
    }
    let camat = if access_rate > 0.0 {
        active_rate / access_rate
    } else {
        0.0
    };

    Reconstructed {
        ipc,
        per_core_ipc,
        mpki,
        camat,
    }
}

/// Reconstruct full-run metrics using a functional profiling pass as a
/// control variate (regression estimator).
///
/// The plain stratified estimator's error is the within-cluster spread
/// of the metrics themselves — irreducibly large for heavy-tailed
/// interval distributions at any affordable segment count. The
/// functional pass walks *every* aligned interval with the same
/// hierarchy (its pseudo-clock CPI and LLC misses track the detailed
/// model closely), so for each metric we estimate
///
/// ```text
/// full ≈ d̄ + β·(F − f̄)      β = Cov(d, f) / Var(f)
/// ```
///
/// where `d̄` is the weighted sampled mean of the detailed metric, `f̄`
/// the same weighting of the functional metric over the sampled
/// intervals, and `F` the functional total over *all* intervals. With
/// a faithful covariate `β → 1` (the full difference-estimator
/// correction); where the functional pseudo-clock is noisy for a
/// workload, `β` shrinks and the estimator degrades gracefully toward
/// the plain stratified one instead of injecting the covariate's
/// noise. β is estimated from the sampled pairs themselves (weighted,
/// clamped to [0, 2], shrunk by the pairs' r² — see
/// `regression_estimate`). IPC is corrected in CPI space per core
/// (additive over instructions), MPKI in per-instruction miss rate;
/// C-AMAT keeps the plain weighted estimator (the functional pass has
/// no MSHR/latency accounting to pair with).
///
/// # Panics
///
/// Panics if `results` disagrees with the plan's segment count, or the
/// profile is shorter than the plan's aligned interval grid.
#[must_use]
pub fn reconstruct_with_profile(
    plan: &crate::plan::WorkloadPlan,
    results: &[SimResults],
    profile: &chrome_sim::FunctionalProfile,
) -> Reconstructed {
    assert_eq!(
        plan.segments.len(),
        results.len(),
        "one measured result per plan segment"
    );
    assert!(!results.is_empty(), "nothing to reconstruct");
    let cores = results[0].per_core.len();
    assert_eq!(plan.boundaries.len(), cores, "plan cores match results");
    let n = plan.boundaries.iter().map(|b| b.len()).min().unwrap_or(1) - 1;
    assert!(
        profile.cycles.len() >= n && profile.llc_misses.len() >= n,
        "functional profile covers {} intervals, plan has {n}",
        profile.cycles.len()
    );
    let weights: Vec<f64> = plan.segments.iter().map(|s| s.weight).collect();
    let wsum: f64 = weights.iter().sum();
    assert!(wsum > 0.0, "weights must not all be zero");
    let (skip, end) = plan.window;

    // per-interval instruction counts and window overlaps
    let instr = |c: usize, j: usize| plan.boundaries[c][j + 1] - plan.boundaries[c][j];
    let ov = |c: usize, j: usize| {
        let lo = plan.boundaries[c][j].max(skip);
        let hi = plan.boundaries[c][j + 1].min(end);
        hi.saturating_sub(lo)
    };

    // functional per-interval rates
    let f_mpki = |j: usize| {
        let it: u64 = (0..cores).map(|c| instr(c, j)).sum();
        if it == 0 {
            0.0
        } else {
            profile.llc_misses[j] as f64 / it as f64 * 1000.0
        }
    };
    let f_cpi = |c: usize, j: usize| {
        let it = instr(c, j);
        if it == 0 {
            0.0
        } else {
            profile.cycles[j] as f64 / it as f64
        }
    };

    // functional totals over the measured window (overlap-weighted)
    let w_tot: f64 = (0..n)
        .map(|j| (0..cores).map(|c| ov(c, j)).sum::<u64>() as f64)
        .sum();
    let mut big_f_mpki = 0.0;
    for j in 0..n {
        let o: u64 = (0..cores).map(|c| ov(c, j)).sum();
        big_f_mpki += o as f64 / w_tot * f_mpki(j);
    }
    let mut big_f_cpi = vec![0.0; cores];
    for (c, f) in big_f_cpi.iter_mut().enumerate() {
        let wc: f64 = (0..n).map(|j| ov(c, j) as f64).sum();
        for j in 0..n {
            *f += ov(c, j) as f64 / wc * f_cpi(c, j);
        }
    }

    let pairs_mpki: Vec<(f64, f64, f64)> = plan
        .segments
        .iter()
        .zip(&weights)
        .zip(results)
        .map(|((seg, &w), r)| (w, aggregate_mpki(r), f_mpki(seg.interval)))
        .collect();
    let mpki = regression_estimate(&pairs_mpki, big_f_mpki).max(0.0);

    let mut cpi = vec![0.0; cores];
    for (c, cpi_c) in cpi.iter_mut().enumerate() {
        let pairs: Vec<(f64, f64, f64)> = plan
            .segments
            .iter()
            .zip(&weights)
            .zip(results)
            .map(|((seg, &w), r)| {
                let ipc = r.per_core[c].ipc();
                let d = if ipc > 0.0 { 1.0 / ipc } else { 0.0 };
                (w, d, f_cpi(c, seg.interval))
            })
            .collect();
        *cpi_c = regression_estimate(&pairs, big_f_cpi[c]);
    }
    let per_core_ipc: Vec<f64> = cpi
        .iter()
        .map(|&c| if c > 1e-12 { 1.0 / c } else { 0.0 })
        .collect();

    Reconstructed {
        ipc: per_core_ipc.iter().sum(),
        per_core_ipc,
        mpki,
        camat: reconstruct(&weights, results).camat,
    }
}

/// Weighted regression (control-variate) estimate from `(weight,
/// detailed, functional)` sample pairs and the functional population
/// total `big_f`: `d̄ + r²·β·(F − f̄)` with `β = Cov(d, f)/Var(f)`
/// clamped to `[0, 2]` and `r²` the weighted coefficient of
/// determination between the pairs. The `r²` shrinkage is what keeps
/// the correction honest: when the covariate genuinely tracks the
/// detailed metric (r² ≈ 1, e.g. a phase-y miss series) the full
/// difference-estimator correction applies, but when clustering has
/// already absorbed the covariate's variation the residual correlation
/// is noise, a raw β would be fit to that noise, and scaling by r² ≈ 0
/// backs off to the plain stratified estimate instead of injecting the
/// noise into the result. A near-constant covariate or metric also
/// yields a zero correction.
fn regression_estimate(pairs: &[(f64, f64, f64)], big_f: f64) -> f64 {
    let wsum: f64 = pairs.iter().map(|p| p.0).sum();
    if wsum <= 0.0 {
        return 0.0;
    }
    let d_bar: f64 = pairs.iter().map(|p| p.0 / wsum * p.1).sum();
    let f_bar: f64 = pairs.iter().map(|p| p.0 / wsum * p.2).sum();
    let cov: f64 = pairs
        .iter()
        .map(|p| p.0 / wsum * (p.1 - d_bar) * (p.2 - f_bar))
        .sum();
    let var_f: f64 = pairs
        .iter()
        .map(|p| p.0 / wsum * (p.2 - f_bar) * (p.2 - f_bar))
        .sum();
    let var_d: f64 = pairs
        .iter()
        .map(|p| p.0 / wsum * (p.1 - d_bar) * (p.1 - d_bar))
        .sum();
    let beta = if var_f > 1e-12 && var_d > 1e-12 {
        let r2 = (cov * cov / (var_f * var_d)).min(1.0);
        r2 * (cov / var_f).clamp(0.0, 2.0)
    } else {
        0.0
    };
    d_bar + beta * (big_f - f_bar)
}

/// One row of a sampled-vs-full validation table.
#[derive(Debug, Clone, PartialEq)]
pub struct ErrorRow {
    /// Workload label.
    pub workload: String,
    /// Full-run aggregate IPC.
    pub full_ipc: f64,
    /// Reconstructed IPC.
    pub sampled_ipc: f64,
    /// Full-run LLC MPKI.
    pub full_mpki: f64,
    /// Reconstructed MPKI.
    pub sampled_mpki: f64,
    /// Full-run LLC C-AMAT.
    pub full_camat: f64,
    /// Reconstructed C-AMAT.
    pub sampled_camat: f64,
    /// Detail-reduction factor (full detailed instructions over sampled
    /// detailed instructions, per core).
    pub reduction: f64,
}

fn pct_err(full: f64, sampled: f64) -> f64 {
    if full == 0.0 {
        if sampled == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (sampled - full).abs() / full.abs() * 100.0
    }
}

impl ErrorRow {
    /// IPC error in percent of the full-run value.
    #[must_use]
    pub fn ipc_err_pct(&self) -> f64 {
        pct_err(self.full_ipc, self.sampled_ipc)
    }

    /// MPKI error in percent of the full-run value.
    #[must_use]
    pub fn mpki_err_pct(&self) -> f64 {
        pct_err(self.full_mpki, self.sampled_mpki)
    }

    /// C-AMAT error in percent of the full-run value.
    #[must_use]
    pub fn camat_err_pct(&self) -> f64 {
        pct_err(self.full_camat, self.sampled_camat)
    }

    /// TSV header matching [`ErrorRow::render`].
    #[must_use]
    pub fn header() -> String {
        "workload\tfull_ipc\tsampled_ipc\tipc_err_pct\tfull_mpki\tsampled_mpki\t\
         mpki_err_pct\tfull_camat\tsampled_camat\tcamat_err_pct\treduction"
            .to_string()
    }

    /// One TSV line (fixed precision so tables are byte-stable across
    /// job counts and platforms).
    #[must_use]
    pub fn render(&self) -> String {
        format!(
            "{}\t{:.6}\t{:.6}\t{:.3}\t{:.6}\t{:.6}\t{:.3}\t{:.6}\t{:.6}\t{:.3}\t{:.2}",
            self.workload,
            self.full_ipc,
            self.sampled_ipc,
            self.ipc_err_pct(),
            self.full_mpki,
            self.sampled_mpki,
            self.mpki_err_pct(),
            self.full_camat,
            self.sampled_camat,
            self.camat_err_pct(),
            self.reduction,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chrome_sim::stats::{CacheStats, CoreStats};

    fn run(ipc_num: u64, ipc_den: u64, misses: u64, active: u64, accesses: u64) -> SimResults {
        SimResults {
            per_core: vec![CoreStats {
                instructions: ipc_num,
                cycles: ipc_den,
                llc_accesses: accesses,
                llc_active_cycles: active,
                ..Default::default()
            }],
            llc: CacheStats {
                demand_misses: misses,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    #[test]
    fn identity_single_interval() {
        let r = run(1000, 2000, 5, 600, 20);
        let rec = reconstruct(&[1.0], std::slice::from_ref(&r));
        assert!((rec.ipc - aggregate_ipc(&r)).abs() < 1e-12);
        assert!((rec.mpki - aggregate_mpki(&r)).abs() < 1e-12);
        assert!((rec.camat - aggregate_camat(&r)).abs() < 1e-12);
    }

    #[test]
    fn equal_intervals_reconstruct_exactly() {
        // two identical intervals with any weight split give the
        // single-interval answer
        let r = run(1000, 2500, 7, 900, 30);
        let rec = reconstruct(&[0.3, 0.7], &[r.clone(), r.clone()]);
        assert!((rec.ipc - aggregate_ipc(&r)).abs() < 1e-12);
        assert!((rec.mpki - aggregate_mpki(&r)).abs() < 1e-12);
        assert!((rec.camat - aggregate_camat(&r)).abs() < 1e-12);
    }

    #[test]
    fn harmonic_ipc_matches_pooled_cycles() {
        // interval A: 1000 instr in 1000 cycles; interval B: 1000 instr
        // in 3000 cycles. A full run covering both halves equally has
        // ipc = 2000/4000 = 0.5 — the harmonic mean, not the arithmetic
        // (which would say 0.667).
        let a = run(1000, 1000, 0, 0, 0);
        let b = run(1000, 3000, 0, 0, 0);
        let rec = reconstruct(&[0.5, 0.5], &[a, b]);
        assert!((rec.ipc - 0.5).abs() < 1e-12, "got {}", rec.ipc);
    }

    #[test]
    fn mpki_is_weighted_arithmetic() {
        let a = run(1000, 1000, 10, 0, 0); // 10 mpki
        let b = run(1000, 1000, 30, 0, 0); // 30 mpki
        let rec = reconstruct(&[0.25, 0.75], &[a, b]);
        assert!((rec.mpki - 25.0).abs() < 1e-12);
    }

    #[test]
    fn camat_pools_rates_not_ratios() {
        // A: 100 active / 10 accesses (camat 10); B: 900 active / 30
        // accesses (camat 30); both over 1000 instructions. Pooled:
        // 1000 active / 40 accesses = 25 — not the access-blind mean 20.
        let a = run(1000, 1000, 0, 100, 10);
        let b = run(1000, 1000, 0, 900, 30);
        let rec = reconstruct(&[0.5, 0.5], &[a, b]);
        assert!((rec.camat - 25.0).abs() < 1e-12, "got {}", rec.camat);
    }

    #[test]
    fn weights_need_not_be_normalized() {
        let a = run(1000, 1000, 10, 100, 10);
        let b = run(1000, 3000, 30, 900, 30);
        let r1 = reconstruct(&[0.25, 0.75], &[a.clone(), b.clone()]);
        let r2 = reconstruct(&[1.0, 3.0], &[a, b]);
        assert!((r1.ipc - r2.ipc).abs() < 1e-12);
        assert!((r1.mpki - r2.mpki).abs() < 1e-12);
        assert!((r1.camat - r2.camat).abs() < 1e-12);
    }

    #[test]
    fn error_row_percentages_and_rendering() {
        let row = ErrorRow {
            workload: "mcf".into(),
            full_ipc: 2.0,
            sampled_ipc: 2.05,
            full_mpki: 10.0,
            sampled_mpki: 9.7,
            full_camat: 40.0,
            sampled_camat: 41.0,
            reduction: 12.5,
        };
        assert!((row.ipc_err_pct() - 2.5).abs() < 1e-9);
        assert!((row.mpki_err_pct() - 3.0).abs() < 1e-9);
        assert!((row.camat_err_pct() - 2.5).abs() < 1e-9);
        let line = row.render();
        assert!(line.starts_with("mcf\t"));
        assert_eq!(
            line.split('\t').count(),
            ErrorRow::header().split('\t').count()
        );
        // zero-vs-zero is 0% error, zero-vs-nonzero is unbounded
        assert_eq!(pct_err(0.0, 0.0), 0.0);
        assert!(pct_err(0.0, 1.0).is_infinite());
    }

    #[test]
    fn regression_recovers_exact_linear_relation() {
        // d = 2 + 0.5·f with no residual: r² = 1, β = 0.5, and the
        // estimate lands exactly on the population value 2 + 0.5·F no
        // matter how unrepresentative the sample mean is
        let pairs: Vec<(f64, f64, f64)> = [1.0, 4.0, 9.0]
            .iter()
            .map(|&f| (1.0, 2.0 + 0.5 * f, f))
            .collect();
        let est = regression_estimate(&pairs, 20.0);
        assert!((est - 12.0).abs() < 1e-9, "got {est}");
    }

    #[test]
    fn regression_with_flat_covariate_is_plain_mean() {
        // constant covariate ⇒ Var(f) = 0 ⇒ β = 0 ⇒ weighted mean of d
        let pairs = [(0.25, 10.0, 3.0), (0.75, 30.0, 3.0)];
        let est = regression_estimate(&pairs, 7.0);
        assert!((est - 25.0).abs() < 1e-9, "got {est}");
    }

    #[test]
    fn regression_ignores_uncorrelated_covariate() {
        // d symmetric around its mean while f varies: Cov = 0 ⇒ β = 0,
        // so a large F − f̄ gap injects nothing
        let pairs = [
            (1.0, 10.0, 1.0),
            (1.0, 20.0, 2.0),
            (1.0, 20.0, 0.0),
            (1.0, 10.0, 3.0),
        ];
        let est = regression_estimate(&pairs, 100.0);
        assert!((est - 15.0).abs() < 1e-9, "got {est}");
    }

    #[test]
    fn exhaustive_profile_reconstruction_matches_plain() {
        use crate::plan::{SamplingSpec, Segment, WorkloadPlan};
        // every interval sampled with its exact instruction share: the
        // functional totals equal the sampled functional mean (F = f̄),
        // the correction term vanishes, and the profile estimator must
        // agree with the plain weighted one
        let results = vec![run(1000, 1000, 10, 100, 10), run(1000, 3000, 30, 900, 30)];
        let plan = WorkloadPlan {
            spec: SamplingSpec {
                k: 2,
                ramp: 0,
                reps: 1,
            },
            segments: (0..2)
                .map(|j| Segment {
                    interval: j,
                    weight: 0.5,
                    start: vec![j as u64 * 1000],
                    detail: 1000,
                })
                .collect(),
            total_instructions: 2000,
            detailed_instructions: 2000,
            boundaries: vec![vec![0, 1000, 2000]],
            window: (0, 2000),
        };
        let profile = chrome_sim::FunctionalProfile {
            cycles: vec![1200, 2800],
            llc_misses: vec![12, 27],
        };
        let with = reconstruct_with_profile(&plan, &results, &profile);
        let plain = reconstruct(&[0.5, 0.5], &results);
        assert!((with.ipc - plain.ipc).abs() < 1e-9);
        assert!((with.mpki - plain.mpki).abs() < 1e-9);
        assert!((with.camat - plain.camat).abs() < 1e-9);
    }

    #[test]
    fn profile_correction_moves_toward_population() {
        use crate::plan::{SamplingSpec, Segment, WorkloadPlan};
        // three intervals, only the first two sampled; detailed MPKI
        // tracks the functional misses exactly (d = f), so the
        // estimator must recover the full-window functional mean —
        // including interval 2's unsampled spike — not the sample mean
        let results = vec![run(1000, 1000, 10, 0, 0), run(1000, 1000, 20, 0, 0)];
        let plan = WorkloadPlan {
            spec: SamplingSpec {
                k: 2,
                ramp: 0,
                reps: 1,
            },
            segments: (0..2)
                .map(|j| Segment {
                    interval: j,
                    weight: 0.5,
                    start: vec![j as u64 * 1000],
                    detail: 1000,
                })
                .collect(),
            total_instructions: 3000,
            detailed_instructions: 2000,
            boundaries: vec![vec![0, 1000, 2000, 3000]],
            window: (0, 3000),
        };
        let profile = chrome_sim::FunctionalProfile {
            cycles: vec![1000, 1000, 1000],
            llc_misses: vec![10, 20, 60],
        };
        let rec = reconstruct_with_profile(&plan, &results, &profile);
        // F = mean(10, 20, 60) = 30 mpki; sample mean alone is 15
        assert!((rec.mpki - 30.0).abs() < 1e-9, "got {}", rec.mpki);
    }
}
