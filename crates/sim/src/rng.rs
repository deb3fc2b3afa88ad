//! A small, fast, deterministic PRNG (xoshiro256++) so the workspace
//! carries no external dependency for randomness.
//!
//! Simulation results must be bit-reproducible across machines and
//! toolchains; owning the generator pins the stream forever, which an
//! external crate's internals would not. The API mirrors the handful of
//! operations the workloads and the ε-greedy agent actually need:
//! seeding from a `u64`, uniform floats in `[0, 1)`, and unbiased
//! integer ranges.

use std::ops::{Range, RangeInclusive};

/// xoshiro256++ by Blackman & Vigna: 256-bit state, passes BigCrush,
/// a handful of ALU ops per draw.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SmallRng {
    s: [u64; 4],
}

/// SplitMix64 step, used to expand a 64-bit seed into the full state.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SmallRng {
    /// Expand `seed` into a full 256-bit state via SplitMix64 (the
    /// initialisation the xoshiro authors recommend).
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        SmallRng {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// Next 64 uniformly random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let out = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        out
    }

    /// Uniform `f64` in `[0, 1)` from the top 53 bits.
    #[inline]
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f32` in `[0, 1)` from the top 24 bits.
    #[inline]
    pub fn gen_f32(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }

    /// Uniform draw from a half-open or inclusive integer range.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    #[inline]
    pub fn gen_range<R: SampleRange>(&mut self, range: R) -> R::Output {
        range.sample(self)
    }

    /// Unbiased integer in `[0, span)` via Lemire's nearly-divisionless
    /// rejection method: the rejection threshold `2^64 mod span` is below
    /// `span`, so a draw whose low product word reaches `span` is accepted
    /// without computing it.
    #[inline]
    fn bounded_u64(&mut self, span: u64) -> u64 {
        debug_assert!(span > 0);
        let mut m = (self.next_u64() as u128) * (span as u128);
        if (m as u64) < span {
            let threshold = span.wrapping_neg() % span;
            while (m as u64) < threshold {
                m = (self.next_u64() as u128) * (span as u128);
            }
        }
        (m >> 64) as u64
    }
}

/// Integer range types [`SmallRng::gen_range`] accepts.
pub trait SampleRange {
    /// The element type produced.
    type Output;
    /// Draw one uniform sample.
    fn sample(self, rng: &mut SmallRng) -> Self::Output;
}

macro_rules! impl_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange for Range<$t> {
            type Output = $t;
            #[inline]
            fn sample(self, rng: &mut SmallRng) -> $t {
                assert!(self.start < self.end, "empty range");
                let span = (self.end - self.start) as u64;
                self.start + rng.bounded_u64(span) as $t
            }
        }
        impl SampleRange for RangeInclusive<$t> {
            type Output = $t;
            #[inline]
            fn sample(self, rng: &mut SmallRng) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "empty range");
                let span = (end - start) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                start + rng.bounded_u64(span + 1) as $t
            }
        }
    )*};
}

impl_sample_range!(u32, u64, usize);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_equal_seeds() {
        let mut a = SmallRng::seed_from_u64(42);
        let mut b = SmallRng::seed_from_u64(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn seeds_decorrelate() {
        let mut a = SmallRng::seed_from_u64(1);
        let mut b = SmallRng::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn floats_in_unit_interval() {
        let mut r = SmallRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let x = r.gen_f64();
            assert!((0.0..1.0).contains(&x));
            let y = r.gen_f32();
            assert!((0.0..1.0).contains(&y));
        }
    }

    #[test]
    fn unit_floats_cover_both_halves() {
        let mut r = SmallRng::seed_from_u64(9);
        let lows = (0..1000).filter(|_| r.gen_f64() < 0.5).count();
        assert!((300..700).contains(&lows), "badly skewed: {lows}");
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut r = SmallRng::seed_from_u64(3);
        for _ in 0..10_000 {
            assert!((10u64..20).contains(&r.gen_range(10u64..20)));
            assert!((0u32..7).contains(&r.gen_range(0u32..7)));
            let v = r.gen_range(5usize..=9);
            assert!((5..=9).contains(&v));
        }
    }

    #[test]
    fn all_range_values_reachable() {
        let mut r = SmallRng::seed_from_u64(11);
        let mut seen = [false; 8];
        for _ in 0..1000 {
            seen[r.gen_range(0usize..8)] = true;
        }
        assert!(seen.iter().all(|&s| s), "some bucket never drawn");
    }

    /// The division-per-draw form `bounded_u64` replaced.
    fn bounded_u64_reference(rng: &mut SmallRng, span: u64) -> u64 {
        loop {
            let x = rng.next_u64();
            let m = (x as u128) * (span as u128);
            let low = m as u64;
            if low >= span.wrapping_neg() % span {
                return (m >> 64) as u64;
            }
        }
    }

    #[test]
    fn bounded_draws_match_the_division_form() {
        let mut spans = vec![1, 2, 3, 13, 1 << 20, (1 << 32) - 1, (1 << 63) + 1, u64::MAX];
        let mut r = SmallRng::seed_from_u64(17);
        spans.extend((0..64).map(|i| r.next_u64() >> (i % 64)).filter(|&s| s > 0));
        for span in spans {
            let mut fast = SmallRng::seed_from_u64(span);
            let mut slow = fast.clone();
            for _ in 0..1000 {
                assert_eq!(
                    fast.bounded_u64(span),
                    bounded_u64_reference(&mut slow, span),
                    "span {span}"
                );
                assert_eq!(fast, slow, "span {span}");
            }
        }
    }

    #[test]
    fn singleton_inclusive_range() {
        let mut r = SmallRng::seed_from_u64(5);
        assert_eq!(r.gen_range(4u64..=4), 4);
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        SmallRng::seed_from_u64(0).gen_range(3u64..3);
    }
}
