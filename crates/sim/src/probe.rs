//! Vectorized set probes over packed residency keys.
//!
//! Both [`crate::cache::PrivateCache`] and [`crate::llc::SharedLlc`]
//! store one packed `u64` per way — `(line << 1) | 1`, with `0` meaning
//! "invalid way" — laid out structure-of-arrays so one set is one
//! contiguous `&[u64]` of length `ways`. A lookup is "find the first way
//! whose key equals the probe key", and an invalid-way search is the
//! same question with key `0`. That single primitive, [`find_key`],
//! runs once or twice per L1/L2/LLC access and is the hottest loop in
//! the simulator, so it is vectorized: four ways per compare with AVX2
//! (`VPCMPEQQ` + sign-mask + trailing-zero count), falling back to the
//! scalar loop for the tail and on other architectures.
//!
//! Dispatch strategy: `std::simd` is still nightly-only, so the vector
//! kernel uses `std::arch::x86_64` intrinsics directly. The AVX2 check
//! is `is_x86_feature_detected!`, which std caches in a process-global
//! after the first cpuid — the steady-state cost is one predictable
//! branch on an already-loaded flag. The scalar kernel is the path on
//! other architectures and the reference ([`find_key_scalar`]) the
//! property test pins the vector kernel to.
//!
//! Equivalence contract: every kernel returns the index of the FIRST
//! matching element, exactly like `slice::iter().position()`. Residency
//! keys are unique within a set (a line lives in at most one way), but
//! invalid-way searches routinely see several zero keys, and
//! replacement decisions key off which one is chosen — first-match
//! semantics are load-bearing for byte-identical `SimResults`.

/// Slices shorter than this take the inline scalar loop even when AVX2
/// is present. `#[target_feature]` functions cannot inline into their
/// (non-AVX2) callers, so the vector kernel costs a real call; profiled
/// on the throughput bench, that call only pays for itself from about
/// three vector blocks up. 8-way L1/L2 sets stay scalar-and-inlined;
/// 12/16/20-way LLC sets and 16+-entry MSHR files go vector.
#[cfg(target_arch = "x86_64")]
const AVX2_MIN_LEN: usize = 12;

/// Find the first way whose packed key equals `key` (use `key = 0` to
/// find the first invalid way). Returns `None` when no way matches.
#[inline]
pub fn find_key(keys: &[u64], key: u64) -> Option<usize> {
    #[cfg(target_arch = "x86_64")]
    {
        if keys.len() >= AVX2_MIN_LEN && std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 support was just verified at runtime.
            return unsafe { find_key_avx2(keys, key) };
        }
    }
    find_key_scalar(keys, key)
}

/// The scalar reference kernel: exactly `keys.iter().position(|&k| k ==
/// key)`. Public so the property test can pin the vector kernel to it.
#[inline]
pub fn find_key_scalar(keys: &[u64], key: u64) -> Option<usize> {
    keys.iter().position(|&k| k == key)
}

/// AVX2 kernel: compare four packed ways per iteration, extract the
/// per-lane equality sign bits, and count trailing zeros to recover the
/// first matching way. The `< 4` tail falls through to the scalar loop,
/// which also preserves first-match order (vector blocks are scanned
/// low-to-high and `trailing_zeros` picks the lowest matching lane).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn find_key_avx2(keys: &[u64], key: u64) -> Option<usize> {
    use std::arch::x86_64::*;
    let n = keys.len();
    let ptr = keys.as_ptr();
    let needle = _mm256_set1_epi64x(key as i64);
    let mut i = 0;
    while i + 4 <= n {
        // SAFETY: `i + 4 <= n` bounds the unaligned 32-byte load.
        let block = _mm256_loadu_si256(ptr.add(i).cast());
        let eq = _mm256_cmpeq_epi64(block, needle);
        // One sign bit per 64-bit lane, lane 0 in bit 0.
        let mask = _mm256_movemask_pd(_mm256_castsi256_pd(eq)) as u32;
        if mask != 0 {
            return Some(i + mask.trailing_zeros() as usize);
        }
        i += 4;
    }
    while i < n {
        // SAFETY: `i < n` by the loop condition.
        if *keys.get_unchecked(i) == key {
            return Some(i);
        }
        i += 1;
    }
    None
}

/// Which probe kernel this build + machine actually runs (diagnostics
/// and bench metadata).
pub fn kernel_name() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            return "avx2";
        }
    }
    "scalar"
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_tiny_slices() {
        assert_eq!(find_key(&[], 7), None);
        assert_eq!(find_key(&[7], 7), Some(0));
        assert_eq!(find_key(&[3], 7), None);
        assert_eq!(find_key(&[0, 0, 7], 7), Some(2));
    }

    #[test]
    fn first_match_wins_across_block_boundaries() {
        // Duplicate zeros (the invalid-way search case) spanning the
        // vector block and the scalar tail.
        for ways in [4, 5, 8, 11, 12, 16, 20] {
            for first_zero in 0..ways {
                let mut keys: Vec<u64> = (0..ways as u64).map(|i| (i << 1) | 1).collect();
                for k in keys.iter_mut().skip(first_zero) {
                    *k = 0;
                }
                assert_eq!(find_key(&keys, 0), Some(first_zero), "ways={ways}");
                assert_eq!(find_key_scalar(&keys, 0), Some(first_zero));
            }
        }
    }

    #[test]
    fn matches_scalar_on_every_position() {
        for ways in 1..=24 {
            let keys: Vec<u64> = (0..ways as u64).map(|i| ((i + 100) << 1) | 1).collect();
            for (w, &k) in keys.iter().enumerate() {
                assert_eq!(find_key(&keys, k), Some(w), "ways={ways} way={w}");
            }
            assert_eq!(find_key(&keys, (999 << 1) | 1), None);
        }
    }
}
