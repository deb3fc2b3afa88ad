//! Fixed-bucket histograms (the latency-attribution profiler's stage
//! and end-to-end latency distributions).

/// A fixed-bucket histogram over `u64` observations.
///
/// Bucket `i` counts observations `v <= bounds[i]` (first matching
/// bound); one implicit overflow bucket catches everything above the
/// last bound. Fixed buckets keep `observe` allocation-free and O(log b).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    bounds: Vec<u64>,
    counts: Vec<u64>,
    count: u64,
    sum: u64,
}

impl Histogram {
    /// A histogram with the given strictly increasing bucket upper
    /// bounds (inclusive), plus an implicit overflow bucket.
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is empty or not strictly increasing.
    pub fn new(bounds: &[u64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            count: 0,
            sum: 0,
        }
    }

    /// Power-of-two bounds `1, 2, 4, …, 2^(n-1)` — a good default for
    /// latency- and occupancy-shaped data.
    pub fn pow2(n: u32) -> Self {
        let bounds: Vec<u64> = (0..n).map(|i| 1u64 << i).collect();
        Histogram::new(&bounds)
    }

    /// Record one observation.
    #[inline]
    pub fn observe(&mut self, v: u64) {
        let idx = self.bounds.partition_point(|&b| b < v);
        self.counts[idx] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Mean observation, or 0 for an empty histogram.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Per-bucket counts; the final entry is the overflow bucket.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Upper bound of the bucket holding the `q`-quantile observation
    /// (`q` in `[0, 1]`); `None` when empty or when the quantile falls in
    /// the unbounded overflow bucket.
    pub fn quantile_bound(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut acc = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            acc += c;
            if acc >= target {
                return self.bounds.get(i).copied();
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_by_inclusive_upper_bound() {
        let mut h = Histogram::new(&[10, 100, 1000]);
        h.observe(0);
        h.observe(10); // boundary: still the first bucket
        h.observe(11);
        h.observe(100);
        h.observe(1000);
        h.observe(1001); // overflow
        assert_eq!(h.counts(), &[2, 2, 1, 1]);
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 2122);
    }

    #[test]
    fn pow2_histogram_covers_wide_range() {
        let mut h = Histogram::pow2(10);
        h.observe(1);
        h.observe(512);
        h.observe(100_000); // beyond 2^9 -> overflow
        assert_eq!(h.counts()[0], 1);
        assert_eq!(h.counts()[9], 1);
        assert_eq!(*h.counts().last().unwrap(), 1);
    }

    #[test]
    fn quantile_bound_walks_buckets() {
        let mut h = Histogram::new(&[1, 2, 4, 8]);
        for v in [1, 1, 2, 2, 4, 8] {
            h.observe(v);
        }
        assert_eq!(h.quantile_bound(0.0), Some(1));
        assert_eq!(h.quantile_bound(0.5), Some(2));
        assert_eq!(h.quantile_bound(1.0), Some(8));
        assert_eq!(Histogram::new(&[1]).quantile_bound(0.5), None);
    }

    #[test]
    fn quantile_in_overflow_is_none() {
        let mut h = Histogram::new(&[1]);
        h.observe(100);
        assert_eq!(h.quantile_bound(0.9), None);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_bounds_rejected() {
        let _ = Histogram::new(&[5, 5]);
    }
}
