//! Vectorized set probes over packed residency keys, and the match
//! bitmask kernel the agent's evaluation queue scans its key lane with.
//!
//! The L1D and L2 ([`crate::cache::PrivateCache`]), the LLC
//! ([`crate::llc::SharedLlc`]) and every MSHR file
//! ([`crate::mshr::MshrFile`]) store one packed `u32` per way —
//! `key_of` gives `(line << 1) | 1`, with `0` meaning "invalid way" —
//! laid out structure-of-arrays so one set is one contiguous `&[u32]`
//! of length `ways`. A lookup is "find the first way whose key equals
//! the probe key", and an invalid-way search is the same question with
//! key `0`. That single primitive, [`find_key`], runs once or twice per
//! L1/L2/LLC access and is the hottest loop in the simulator, so it is
//! vectorized: eight ways per compare with AVX2 (`VPCMPEQD`, a sign
//! mask and a trailing-zero count), and the scalar loop on other
//! architectures and below the length gate.
//!
//! Dispatch strategy: `std::simd` is still nightly-only, so the vector
//! kernel uses `std::arch::x86_64` intrinsics directly. The AVX2 check
//! is `is_x86_feature_detected!`, which std caches in a process-global
//! after the first cpuid — the steady-state cost is one predictable
//! branch on an already-loaded flag. The scalar kernel is the path on
//! other architectures and the reference ([`find_key_scalar`]) the
//! property test pins the vector kernel to.
//!
//! The second kernel, [`key_masks`], answers "which of these `u64` keys
//! equal the probe key" for a whole lane at once: one bit per key, 64
//! keys per mask word, four keys per AVX2 compare (`VPCMPEQQ` and a
//! `movemask_pd`). It takes the same runtime gate and length gate as
//! [`find_key`], and [`key_masks_scalar`] is its reference.
//!
//! Equivalence contract: every `find_key` kernel returns the index of the FIRST
//! matching element, exactly like `slice::iter().position()`. Residency
//! keys are unique within a set (a line lives in at most one way), but
//! invalid-way searches routinely see several zero keys, and
//! replacement decisions key off which one is chosen — first-match
//! semantics are load-bearing for byte-identical `SimResults`.

use crate::types::LineAddr;

/// Largest line address a residency key can hold: the shift in
/// [`key_of`] leaves 31 bits. The 8 GB MMU's physical lines stay below
/// 2^27 (`MemHierarchy` asserts its largest line fits).
pub(crate) const MAX_KEY_LINE: u64 = (1 << 31) - 1;

/// Pack a line into its residency key, `(line << 1) | 1`: the tag and
/// the valid bit in one `u32` compare.
///
/// # Panics
///
/// Panics if `line` exceeds [`MAX_KEY_LINE`]; a key never truncates.
#[inline]
pub(crate) fn key_of(line: LineAddr) -> u32 {
    if line.0 > MAX_KEY_LINE {
        key_overflow(line);
    }
    ((line.0 as u32) << 1) | 1
}

#[cold]
#[inline(never)]
fn key_overflow(line: LineAddr) -> ! {
    panic!("{line} does not fit a 31-bit residency key")
}

/// The line a (valid) residency key packs.
#[inline]
pub(crate) fn line_of(key: u32) -> LineAddr {
    LineAddr(u64::from(key >> 1))
}

/// Slices shorter than this take the inline scalar loop even when AVX2
/// is present. `#[target_feature]` functions cannot inline into their
/// (non-AVX2) callers, so the vector kernel costs a real call, and it
/// needs one full 8-lane block: the tail is one overlapping block ending
/// at the last way. From 8 ways up, the call plus one or two compares
/// beats the scalar loop, so every Table V set (12-way L1D and LLC,
/// 20-way L2) and MSHR files with 8+ live entries go vector.
#[cfg(target_arch = "x86_64")]
const AVX2_MIN_LEN: usize = 8;

/// Find the first way whose packed key equals `key` (use `key = 0` to
/// find the first invalid way). Returns `None` when no way matches.
#[inline]
pub fn find_key(keys: &[u32], key: u32) -> Option<usize> {
    #[cfg(target_arch = "x86_64")]
    {
        if keys.len() >= AVX2_MIN_LEN && std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 support was just verified at runtime, and the
            // slice holds at least one full block.
            return unsafe { find_key_avx2(keys, key) };
        }
    }
    find_key_scalar(keys, key)
}

/// The scalar reference kernel: exactly `keys.iter().position(|&k| k ==
/// key)`. Public so the property test can pin the vector kernel to it.
#[inline]
pub fn find_key_scalar(keys: &[u32], key: u32) -> Option<usize> {
    keys.iter().position(|&k| k == key)
}

/// AVX2 kernel: compare eight packed ways per iteration, extract the
/// per-lane equality sign bits, and count trailing zeros to recover the
/// first matching way. A ragged tail is one more block ending at the
/// last way; its lanes that overlap the blocks already scanned matched
/// nothing there, so their bits are clear and first-match order holds
/// (blocks are scanned low-to-high and `trailing_zeros` picks the
/// lowest matching lane).
///
/// # Safety
///
/// The CPU must support AVX2 and `keys.len()` must be at least 8.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn find_key_avx2(keys: &[u32], key: u32) -> Option<usize> {
    use std::arch::x86_64::*;
    let n = keys.len();
    debug_assert!(n >= 8, "the AVX2 probe needs one full block");
    let needle = _mm256_set1_epi32(key as i32);
    let mut i = 0;
    loop {
        // SAFETY: `i + 8 <= n` (`i` is 0 or at most `n - 8`) bounds the
        // unaligned 32-byte load.
        let block = _mm256_loadu_si256(keys.as_ptr().add(i).cast());
        let eq = _mm256_cmpeq_epi32(block, needle);
        // One sign bit per 32-bit lane, lane 0 in bit 0.
        let mask = _mm256_movemask_ps(_mm256_castsi256_ps(eq)) as u32;
        if mask != 0 {
            return Some(i + mask.trailing_zeros() as usize);
        }
        if i + 8 >= n {
            return None;
        }
        i = (i + 8).min(n - 8);
    }
}

/// The match bitmask of a `u64` key lane: bit `i % 64` of
/// `masks[i / 64]` is set iff `keys[i] == key`, and every other bit of
/// `masks` is clear. Order-free, so callers walk the set bits in
/// whatever order their lane means (the evaluation queue walks its ring
/// from newest to oldest).
///
/// # Panics
///
/// Panics unless `masks` holds exactly `keys.len().div_ceil(64)` words.
#[inline]
pub fn key_masks(keys: &[u64], key: u64, masks: &mut [u64]) {
    assert_eq!(
        masks.len(),
        keys.len().div_ceil(64),
        "one mask word per 64 keys"
    );
    #[cfg(target_arch = "x86_64")]
    {
        if keys.len() >= AVX2_MIN_LEN && std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 support was just verified at runtime.
            unsafe { key_masks_avx2(keys, key, masks) };
            return;
        }
    }
    key_masks_scalar(keys, key, masks);
}

/// The scalar reference for [`key_masks`], one compare per key. Public
/// so the property test can pin the vector kernel to it.
///
/// # Panics
///
/// Panics unless `masks` holds exactly `keys.len().div_ceil(64)` words.
pub fn key_masks_scalar(keys: &[u64], key: u64, masks: &mut [u64]) {
    assert_eq!(
        masks.len(),
        keys.len().div_ceil(64),
        "one mask word per 64 keys"
    );
    for (word, chunk) in masks.iter_mut().zip(keys.chunks(64)) {
        *word = key_masks_scalar_word(chunk, key);
    }
}

/// AVX2 kernel: compare four keys per `VPCMPEQQ`, take one sign bit per
/// 64-bit lane, and shift each 4-bit group into place in its 64-key
/// word (a full word is 16 compares with fixed shifts). A word of four
/// or more keys that is not a multiple of four adds one block ending at
/// its last key; the lanes it shares with the block before set the same
/// bits again. Only a final word of one to three keys compares scalar.
///
/// # Safety
///
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn key_masks_avx2(keys: &[u64], key: u64, masks: &mut [u64]) {
    use std::arch::x86_64::*;
    let needle = _mm256_set1_epi64x(key as i64);
    // The 4 match bits of the block starting at `chunk[at]`.
    let block_bits = |chunk: &[u64], at: usize| {
        // SAFETY: callers pass `at + 4 <= chunk.len()`, which bounds
        // the unaligned 32-byte load.
        let block = _mm256_loadu_si256(chunk.as_ptr().add(at).cast());
        let eq = _mm256_cmpeq_epi64(block, needle);
        // One sign bit per 64-bit lane, lane 0 in bit 0.
        _mm256_movemask_pd(_mm256_castsi256_pd(eq)) as u64
    };
    for (word, chunk) in masks.iter_mut().zip(keys.chunks(64)) {
        let n = chunk.len();
        *word = if n == 64 {
            (0..16).fold(0, |m, b| m | (block_bits(chunk, 4 * b) << (4 * b)))
        } else if n >= 4 {
            let tail = if n % 4 == 0 {
                0
            } else {
                block_bits(chunk, n - 4) << (n - 4)
            };
            (0..n / 4).fold(tail, |m, b| m | (block_bits(chunk, 4 * b) << (4 * b)))
        } else {
            key_masks_scalar_word(chunk, key)
        };
    }
}

/// One mask word from at most 64 keys, one compare per key.
fn key_masks_scalar_word(chunk: &[u64], key: u64) -> u64 {
    chunk
        .iter()
        .enumerate()
        .fold(0, |m, (i, &k)| m | (u64::from(k == key) << i))
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
        // vector blocks and the overlapping tail block.
        for ways in [4, 5, 8, 9, 11, 12, 16, 20, 23] {
            for first_zero in 0..ways {
                let mut keys: Vec<u32> = (0..ways as u32).map(|i| (i << 1) | 1).collect();
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
            let keys: Vec<u32> = (0..ways as u32).map(|i| ((i + 100) << 1) | 1).collect();
            for (w, &k) in keys.iter().enumerate() {
                assert_eq!(find_key(&keys, k), Some(w), "ways={ways} way={w}");
            }
            assert_eq!(find_key(&keys, (999 << 1) | 1), None);
        }
    }

    #[test]
    fn key_masks_mark_every_match_per_word() {
        // 130 keys: two full words and a ragged two-key third word
        let keys: Vec<u64> = (0..130u64).map(|i| i % 3).collect();
        let mut masks = [0u64; 3];
        key_masks(&keys, 0, &mut masks);
        let every_third = (0..64).step_by(3).fold(0u64, |m, i| m | 1 << i);
        assert_eq!(masks[0], every_third);
        assert_eq!(masks[1], every_third << 2, "keys 66, 69, .. are 0");
        assert_eq!(masks[2], 0b10, "key 129 is 0");
        let mut none = [u64::MAX; 3];
        key_masks(&keys, 7, &mut none);
        assert_eq!(none, [0; 3], "stale bits are cleared");
        key_masks(&[], 7, &mut []);
    }

    #[test]
    #[should_panic(expected = "one mask word per 64 keys")]
    fn key_masks_rejects_a_short_mask_buffer() {
        key_masks(&[0; 65], 0, &mut [0]);
    }

    #[test]
    fn keys_round_trip_up_to_the_limit() {
        for line in [0, 1, 0x7FF_FFFF, MAX_KEY_LINE] {
            let key = key_of(LineAddr(line));
            assert_ne!(key, 0, "a valid key is never the invalid-way key");
            assert_eq!(line_of(key), LineAddr(line));
        }
    }

    #[test]
    #[should_panic(expected = "does not fit a 31-bit residency key")]
    fn oversized_line_panics_instead_of_truncating() {
        key_of(LineAddr(MAX_KEY_LINE + 1));
    }
}
