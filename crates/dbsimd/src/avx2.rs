//! AVX2 (256-bit) predicate-evaluation kernels.
//!
//! These follow the algorithms of Section 4.2 and Appendix C of the paper:
//!
//! * *find initial matches*: compare 32/16/8/4 code words per iteration, convert the
//!   comparison result to a bit-mask with `movemask`, and turn each 8-bit (or 4-bit)
//!   slice of the mask into match positions with a single lookup in the pre-computed
//!   positions table. The full 8-lane position vector is stored unconditionally and
//!   the write cursor advances by the number of matches, so the kernel is insensitive
//!   to selectivity.
//! * *reduce matches*: gather the attribute values at the existing match positions
//!   (`vpgatherdd` / `vpgatherdq`), evaluate the additional predicate, and compact the
//!   match vector using the table entry as a shuffle control mask
//!   (`vpermd`), exactly as sketched in Figure 7(b).
//!
//! The 1-, 2- and 4-byte code words compare unsigned, by the `min/max +
//! compare-equal` idiom which is unsigned by construction. 8-byte words compare by
//! AVX2's signed 64-bit compare: `i64` words directly, `u64` code words biased by
//! `1 << 63` first.
//!
//! # Safety
//!
//! Every function in this module is `unsafe` because it requires the `avx2` target
//! feature. Callers go through [`crate::find_matches`] / [`crate::reduce_matches`],
//! which verify CPU support at runtime before dispatching here.

#![allow(clippy::missing_safety_doc)] // module-level safety contract documented above

use crate::postable::{COUNTS_4, COUNTS_8, POSITIONS_4_I32, POSITIONS_8_I32};
use crate::predicate::{CodeWord, RangePredicate};
use crate::scalar;

#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::*;

/// Ensure `out` has room for `extra` more positions plus `slack` over-store lanes,
/// returning the current logical length (the append start).
#[inline]
fn prepare_out(out: &mut Vec<u32>, extra: usize, slack: usize) -> usize {
    let start = out.len();
    out.reserve(extra + slack);
    start
}

// ---------------------------------------------------------------------------------
// find matches: u8
// ---------------------------------------------------------------------------------

/// AVX2 find-matches kernel for 1-byte code words (32 lanes per iteration).
#[target_feature(enable = "avx2")]
pub unsafe fn find_matches_u8(
    data: &[u8],
    pred: &RangePredicate<u8>,
    base: u32,
    out: &mut Vec<u32>,
) -> usize {
    if pred.is_empty() {
        return 0;
    }
    let start = prepare_out(out, data.len(), 8);
    let ptr = out.as_mut_ptr().add(start);
    let mut w = 0usize;

    let lo = _mm256_set1_epi8(pred.lo as i8);
    let hi = _mm256_set1_epi8(pred.hi as i8);
    let n = data.len();
    let simd_iters = n / 32;

    for i in 0..simd_iters {
        let scan_pos = (i * 32) as u32;
        let v = _mm256_loadu_si256(data.as_ptr().add(i * 32) as *const __m256i);
        // x >= lo  <=>  max_unsigned(x, lo) == x ;  x <= hi  <=>  min_unsigned(x, hi) == x
        let ge_lo = _mm256_cmpeq_epi8(_mm256_max_epu8(v, lo), v);
        let le_hi = _mm256_cmpeq_epi8(_mm256_min_epu8(v, hi), v);
        let mask = _mm256_movemask_epi8(_mm256_and_si256(ge_lo, le_hi)) as u32;

        // Process the 32-bit movemask one byte at a time through the positions table.
        let mut sub = 0u32;
        let mut m = mask;
        while sub < 32 {
            let byte = (m & 0xFF) as usize;
            let entry = _mm256_loadu_si256(POSITIONS_8_I32[byte].as_ptr() as *const __m256i);
            let positions =
                _mm256_add_epi32(entry, _mm256_set1_epi32((base + scan_pos + sub) as i32));
            _mm256_storeu_si256(ptr.add(w) as *mut __m256i, positions);
            w += COUNTS_8[byte] as usize;
            m >>= 8;
            sub += 8;
        }
    }
    out.set_len(start + w);

    // Tail: remaining (< 32) elements scalar.
    let tail_start = simd_iters * 32;
    let tail =
        scalar::find_matches_scalar(&data[tail_start..], pred, base + tail_start as u32, out);
    w + tail
}

// ---------------------------------------------------------------------------------
// find matches: u16
// ---------------------------------------------------------------------------------

/// AVX2 find-matches kernel for 2-byte code words (16 lanes per iteration).
#[target_feature(enable = "avx2")]
pub unsafe fn find_matches_u16(
    data: &[u16],
    pred: &RangePredicate<u16>,
    base: u32,
    out: &mut Vec<u32>,
) -> usize {
    if pred.is_empty() {
        return 0;
    }
    let start = prepare_out(out, data.len(), 8);
    let ptr = out.as_mut_ptr().add(start);
    let mut w = 0usize;

    let lo = _mm256_set1_epi16(pred.lo as i16);
    let hi = _mm256_set1_epi16(pred.hi as i16);
    let zero = _mm256_setzero_si256();
    let n = data.len();
    let simd_iters = n / 16;

    for i in 0..simd_iters {
        let scan_pos = (i * 16) as u32;
        let v = _mm256_loadu_si256(data.as_ptr().add(i * 16) as *const __m256i);
        let ge_lo = _mm256_cmpeq_epi16(_mm256_max_epu16(v, lo), v);
        let le_hi = _mm256_cmpeq_epi16(_mm256_min_epu16(v, hi), v);
        let m16 = _mm256_and_si256(ge_lo, le_hi);
        // Compact the 16-bit lane mask to one bit per lane: saturating pack (0xFFFF →
        // 0xFF, 0 → 0) then movemask. packs works per 128-bit lane, so the low byte of
        // the movemask covers lanes 0..8 and bits 16..24 cover lanes 8..16.
        let packed = _mm256_packs_epi16(m16, zero);
        let mm = _mm256_movemask_epi8(packed) as u32;
        let mask16 = (mm & 0xFF) | ((mm >> 16) & 0xFF) << 8;

        let mut sub = 0u32;
        let mut m = mask16;
        while sub < 16 {
            let byte = (m & 0xFF) as usize;
            let entry = _mm256_loadu_si256(POSITIONS_8_I32[byte].as_ptr() as *const __m256i);
            let positions =
                _mm256_add_epi32(entry, _mm256_set1_epi32((base + scan_pos + sub) as i32));
            _mm256_storeu_si256(ptr.add(w) as *mut __m256i, positions);
            w += COUNTS_8[byte] as usize;
            m >>= 8;
            sub += 8;
        }
    }
    out.set_len(start + w);

    let tail_start = simd_iters * 16;
    let tail =
        scalar::find_matches_scalar(&data[tail_start..], pred, base + tail_start as u32, out);
    w + tail
}

// ---------------------------------------------------------------------------------
// find matches: u32
// ---------------------------------------------------------------------------------

/// AVX2 find-matches kernel for 4-byte code words (8 lanes per iteration).
#[target_feature(enable = "avx2")]
pub unsafe fn find_matches_u32(
    data: &[u32],
    pred: &RangePredicate<u32>,
    base: u32,
    out: &mut Vec<u32>,
) -> usize {
    if pred.is_empty() {
        return 0;
    }
    let start = prepare_out(out, data.len(), 8);
    let ptr = out.as_mut_ptr().add(start);
    let mut w = 0usize;

    let lo = _mm256_set1_epi32(pred.lo as i32);
    let hi = _mm256_set1_epi32(pred.hi as i32);
    let n = data.len();
    let simd_iters = n / 8;

    for i in 0..simd_iters {
        let scan_pos = (i * 8) as u32;
        let v = _mm256_loadu_si256(data.as_ptr().add(i * 8) as *const __m256i);
        let ge_lo = _mm256_cmpeq_epi32(_mm256_max_epu32(v, lo), v);
        let le_hi = _mm256_cmpeq_epi32(_mm256_min_epu32(v, hi), v);
        let mask = _mm256_movemask_ps(_mm256_castsi256_ps(_mm256_and_si256(ge_lo, le_hi))) as usize;

        let entry = _mm256_loadu_si256(POSITIONS_8_I32[mask].as_ptr() as *const __m256i);
        let positions = _mm256_add_epi32(entry, _mm256_set1_epi32((base + scan_pos) as i32));
        _mm256_storeu_si256(ptr.add(w) as *mut __m256i, positions);
        w += COUNTS_8[mask] as usize;
    }
    out.set_len(start + w);

    let tail_start = simd_iters * 8;
    let tail =
        scalar::find_matches_scalar(&data[tail_start..], pred, base + tail_start as u32, out);
    w + tail
}

// ---------------------------------------------------------------------------------
// find matches: u64 and i64
// ---------------------------------------------------------------------------------

/// AVX2 find-matches kernel for unsigned 8-byte code words (4 lanes per iteration).
#[target_feature(enable = "avx2")]
pub unsafe fn find_matches_u64(
    data: &[u64],
    pred: &RangePredicate<u64>,
    base: u32,
    out: &mut Vec<u32>,
) -> usize {
    find_matches_64(data, pred, i64::MIN, base, out)
}

/// AVX2 find-matches kernel for signed 8-byte words (4 lanes per iteration).
#[target_feature(enable = "avx2")]
pub unsafe fn find_matches_i64(
    data: &[i64],
    pred: &RangePredicate<i64>,
    base: u32,
    out: &mut Vec<u32>,
) -> usize {
    find_matches_64(data, pred, 0, base, out)
}

/// The 8-byte find kernel: the words' bits are XORed with `bias` and compared
/// signed, so `i64::MIN` compares unsigned words and `0` signed ones.
#[target_feature(enable = "avx2")]
unsafe fn find_matches_64<T: CodeWord>(
    data: &[T],
    pred: &RangePredicate<T>,
    bias: i64,
    base: u32,
    out: &mut Vec<u32>,
) -> usize {
    debug_assert_eq!(std::mem::size_of::<T>(), 8);
    if pred.is_empty() {
        return 0;
    }
    let start = prepare_out(out, data.len(), 4);
    let ptr = out.as_mut_ptr().add(start);
    let mut w = 0usize;

    let bias = _mm256_set1_epi64x(bias);
    let lo = _mm256_xor_si256(_mm256_set1_epi64x(pred.lo.as_u64() as i64), bias);
    let hi = _mm256_xor_si256(_mm256_set1_epi64x(pred.hi.as_u64() as i64), bias);
    let n = data.len();
    let simd_iters = n / 4;

    for i in 0..simd_iters {
        let scan_pos = (i * 4) as u32;
        let raw = _mm256_loadu_si256(data.as_ptr().add(i * 4) as *const __m256i);
        let v = _mm256_xor_si256(raw, bias);
        // in-range = !(lo > v) && !(v > hi)
        let lt_lo = _mm256_cmpgt_epi64(lo, v);
        let gt_hi = _mm256_cmpgt_epi64(v, hi);
        let out_of_range = _mm256_or_si256(lt_lo, gt_hi);
        let mask = (!(_mm256_movemask_pd(_mm256_castsi256_pd(out_of_range)) as usize)) & 0b1111;

        let entry = _mm_loadu_si128(POSITIONS_4_I32[mask].as_ptr() as *const __m128i);
        let positions = _mm_add_epi32(entry, _mm_set1_epi32((base + scan_pos) as i32));
        _mm_storeu_si128(ptr.add(w) as *mut __m128i, positions);
        w += COUNTS_4[mask] as usize;
    }
    out.set_len(start + w);

    let tail_start = simd_iters * 4;
    let tail =
        scalar::find_matches_scalar(&data[tail_start..], pred, base + tail_start as u32, out);
    w + tail
}

// ---------------------------------------------------------------------------------
// reduce matches: u32 (gather + permute compaction, Figure 7(b))
// ---------------------------------------------------------------------------------

/// AVX2 reduce-matches kernel for 4-byte code words.
#[target_feature(enable = "avx2")]
pub unsafe fn reduce_matches_u32(
    data: &[u32],
    pred: &RangePredicate<u32>,
    base: u32,
    matches: &mut Vec<u32>,
) -> usize {
    if pred.is_empty() {
        matches.clear();
        return 0;
    }
    let n = matches.len();
    let lo = _mm256_set1_epi32(pred.lo as i32);
    let hi = _mm256_set1_epi32(pred.hi as i32);
    let base_v = _mm256_set1_epi32(base as i32);
    let ptr = matches.as_mut_ptr();

    let mut w = 0usize;
    let simd_iters = n / 8;
    for i in 0..simd_iters {
        let pos = _mm256_loadu_si256(ptr.add(i * 8) as *const __m256i);
        let idx = _mm256_sub_epi32(pos, base_v);
        // Gather the attribute values at the (still valid) match positions.
        let v = _mm256_i32gather_epi32::<4>(data.as_ptr() as *const i32, idx);
        let ge_lo = _mm256_cmpeq_epi32(_mm256_max_epu32(v, lo), v);
        let le_hi = _mm256_cmpeq_epi32(_mm256_min_epu32(v, hi), v);
        let mask = _mm256_movemask_ps(_mm256_castsi256_ps(_mm256_and_si256(ge_lo, le_hi))) as usize;

        // Use the table entry as a shuffle control mask to compact the surviving
        // positions to the front of the register, then store over the write cursor.
        let control = _mm256_loadu_si256(POSITIONS_8_I32[mask].as_ptr() as *const __m256i);
        let compacted = _mm256_permutevar8x32_epi32(pos, control);
        _mm256_storeu_si256(ptr.add(w) as *mut __m256i, compacted);
        w += COUNTS_8[mask] as usize;
    }

    // Tail scalar: the writes above never exceed the read cursor, so in-place
    // compaction is safe to continue element-wise.
    for r in simd_iters * 8..n {
        let pos = *ptr.add(r);
        let v = data[(pos - base) as usize];
        *ptr.add(w) = pos;
        w += pred.contains(v) as usize;
    }
    matches.truncate(w);
    w
}

/// AVX2 reduce-matches kernel for unsigned 8-byte code words (4-wide 64-bit
/// gathers).
#[target_feature(enable = "avx2")]
pub unsafe fn reduce_matches_u64(
    data: &[u64],
    pred: &RangePredicate<u64>,
    base: u32,
    matches: &mut Vec<u32>,
) -> usize {
    reduce_matches_64(data, pred, i64::MIN, base, matches)
}

/// AVX2 reduce-matches kernel for signed 8-byte words (4-wide 64-bit gathers).
#[target_feature(enable = "avx2")]
pub unsafe fn reduce_matches_i64(
    data: &[i64],
    pred: &RangePredicate<i64>,
    base: u32,
    matches: &mut Vec<u32>,
) -> usize {
    reduce_matches_64(data, pred, 0, base, matches)
}

/// The 8-byte reduce kernel, comparing as [`find_matches_64`] does.
#[target_feature(enable = "avx2")]
unsafe fn reduce_matches_64<T: CodeWord>(
    data: &[T],
    pred: &RangePredicate<T>,
    bias: i64,
    base: u32,
    matches: &mut Vec<u32>,
) -> usize {
    debug_assert_eq!(std::mem::size_of::<T>(), 8);
    if pred.is_empty() {
        matches.clear();
        return 0;
    }
    let n = matches.len();
    let bias = _mm256_set1_epi64x(bias);
    let lo = _mm256_xor_si256(_mm256_set1_epi64x(pred.lo.as_u64() as i64), bias);
    let hi = _mm256_xor_si256(_mm256_set1_epi64x(pred.hi.as_u64() as i64), bias);
    let base_v = _mm_set1_epi32(base as i32);
    let ptr = matches.as_mut_ptr();

    let mut w = 0usize;
    let simd_iters = n / 4;
    for i in 0..simd_iters {
        let pos = _mm_loadu_si128(ptr.add(i * 4) as *const __m128i);
        let idx = _mm_sub_epi32(pos, base_v);
        let raw = _mm256_i32gather_epi64::<8>(data.as_ptr() as *const i64, idx);
        let v = _mm256_xor_si256(raw, bias);
        let lt_lo = _mm256_cmpgt_epi64(lo, v);
        let gt_hi = _mm256_cmpgt_epi64(v, hi);
        let out_of_range = _mm256_or_si256(lt_lo, gt_hi);
        let mask = (!(_mm256_movemask_pd(_mm256_castsi256_pd(out_of_range)) as usize)) & 0b1111;

        // Compact as the 4-byte kernel does: the table entry of the 4-bit mask
        // moves the surviving positions to the front, a store writes all four
        // over the write cursor (which never passes the read cursor). A loop over
        // the survivors instead mispredicts at every change of their count.
        let control = _mm256_loadu_si256(POSITIONS_8_I32[mask].as_ptr() as *const __m256i);
        let compacted = _mm256_permutevar8x32_epi32(_mm256_castsi128_si256(pos), control);
        _mm_storeu_si128(
            ptr.add(w) as *mut __m128i,
            _mm256_castsi256_si128(compacted),
        );
        w += COUNTS_4[mask] as usize;
    }

    for r in simd_iters * 4..n {
        let pos = *ptr.add(r);
        let v = data[(pos - base) as usize];
        *ptr.add(w) = pos;
        w += pred.contains(v) as usize;
    }
    matches.truncate(w);
    w
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scalar::{find_matches_scalar, reduce_matches_scalar};

    fn avx2_available() -> bool {
        std::arch::is_x86_feature_detected!("avx2")
    }

    fn pseudo_random(n: usize, modulus: u64, seed: u64) -> Vec<u64> {
        // xorshift64*, deterministic data for the kernel equivalence tests
        let mut x = seed | 1;
        (0..n)
            .map(|_| {
                x ^= x >> 12;
                x ^= x << 25;
                x ^= x >> 27;
                (x.wrapping_mul(0x2545_F491_4F6C_DD1D)) % modulus
            })
            .collect()
    }

    #[test]
    fn find_u8_matches_scalar_oracle() {
        if !avx2_available() {
            return;
        }
        let data: Vec<u8> = pseudo_random(10_007, 256, 42)
            .iter()
            .map(|&v| v as u8)
            .collect();
        for (lo, hi) in [
            (0u8, 255u8),
            (10, 20),
            (200, 100),
            (5, 5),
            (0, 0),
            (255, 255),
        ] {
            let pred = RangePredicate::between(lo, hi);
            let mut expected = Vec::new();
            find_matches_scalar(&data, &pred, 7, &mut expected);
            let mut got = Vec::new();
            unsafe { find_matches_u8(&data, &pred, 7, &mut got) };
            assert_eq!(got, expected, "lo={lo} hi={hi}");
        }
    }

    #[test]
    fn find_u16_matches_scalar_oracle() {
        if !avx2_available() {
            return;
        }
        let data: Vec<u16> = pseudo_random(8_191, 65_536, 7)
            .iter()
            .map(|&v| v as u16)
            .collect();
        for (lo, hi) in [(0u16, u16::MAX), (1000, 2000), (60_000, 100), (777, 777)] {
            let pred = RangePredicate::between(lo, hi);
            let mut expected = Vec::new();
            find_matches_scalar(&data, &pred, 0, &mut expected);
            let mut got = Vec::new();
            unsafe { find_matches_u16(&data, &pred, 0, &mut got) };
            assert_eq!(got, expected, "lo={lo} hi={hi}");
        }
    }

    #[test]
    fn find_u32_matches_scalar_oracle() {
        if !avx2_available() {
            return;
        }
        let data: Vec<u32> = pseudo_random(4_099, 1 << 20, 99)
            .iter()
            .map(|&v| v as u32)
            .collect();
        for (lo, hi) in [(0u32, u32::MAX), (1 << 10, 1 << 15), (1 << 19, 1 << 10)] {
            let pred = RangePredicate::between(lo, hi);
            let mut expected = Vec::new();
            find_matches_scalar(&data, &pred, 123, &mut expected);
            let mut got = Vec::new();
            unsafe { find_matches_u32(&data, &pred, 123, &mut got) };
            assert_eq!(got, expected, "lo={lo} hi={hi}");
        }
    }

    #[test]
    fn find_u64_matches_scalar_oracle() {
        if !avx2_available() {
            return;
        }
        // Include values around the sign bit to exercise the unsigned bias.
        let mut data = pseudo_random(2_053, u64::MAX, 3);
        data.extend_from_slice(&[0, 1, u64::MAX, u64::MAX - 1, 1 << 63, (1 << 63) - 1]);
        for (lo, hi) in [
            (0u64, u64::MAX),
            (1 << 62, 1 << 63),
            ((1 << 63) - 2, (1 << 63) + 2),
            (u64::MAX, 0),
        ] {
            let pred = RangePredicate::between(lo, hi);
            let mut expected = Vec::new();
            find_matches_scalar(&data, &pred, 0, &mut expected);
            let mut got = Vec::new();
            unsafe { find_matches_u64(&data, &pred, 0, &mut got) };
            assert_eq!(got, expected, "lo={lo} hi={hi}");
        }
    }

    #[test]
    fn reduce_u32_matches_scalar_oracle() {
        if !avx2_available() {
            return;
        }
        let data: Vec<u32> = pseudo_random(16_384, 1 << 16, 5)
            .iter()
            .map(|&v| v as u32)
            .collect();
        let first = RangePredicate::between(100u32, 40_000);
        let second = RangePredicate::between(500u32, 20_000);
        let mut expected = Vec::new();
        find_matches_scalar(&data, &first, 0, &mut expected);
        let mut got = expected.clone();
        reduce_matches_scalar(&data, &second, 0, &mut expected);
        unsafe { reduce_matches_u32(&data, &second, 0, &mut got) };
        assert_eq!(got, expected);
    }

    #[test]
    fn reduce_u64_matches_scalar_oracle() {
        if !avx2_available() {
            return;
        }
        let data = pseudo_random(9_999, 1 << 40, 11);
        let first = RangePredicate::at_least(1u64 << 20);
        let second = RangePredicate::between(1u64 << 30, 1 << 39);
        let mut expected = Vec::new();
        find_matches_scalar(&data, &first, 64, &mut expected);
        let mut got = expected.clone();
        reduce_matches_scalar(&data, &second, 64, &mut expected);
        unsafe { reduce_matches_u64(&data, &second, 64, &mut got) };
        assert_eq!(got, expected);
    }

    #[test]
    fn reduce_on_empty_match_vector() {
        if !avx2_available() {
            return;
        }
        let data: Vec<u32> = vec![1, 2, 3];
        let mut matches: Vec<u32> = Vec::new();
        let n = unsafe { reduce_matches_u32(&data, &RangePredicate::all(), 0, &mut matches) };
        assert_eq!(n, 0);
    }
}
