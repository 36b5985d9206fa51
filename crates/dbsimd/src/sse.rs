//! SSE4.1 (128-bit) find-matches kernels.
//!
//! These exist to reproduce the "SSE" series of the paper's Figure 8. They use the
//! same movemask → positions-table conversion as the AVX2 kernels, with half the lane
//! count. The 8-byte kernels need SSE4.2's 64-bit compare and check for it at
//! runtime. Reduce-matches has no SSE variant (the paper evaluates reduce only for
//! scalar vs AVX2, Figure 9), so SSE callers fall back to the scalar reduce kernel.
//!
//! # Safety
//!
//! Functions require the `sse4.1` target feature; callers dispatch through
//! [`crate::find_matches`] which performs runtime detection.

#![allow(clippy::missing_safety_doc)]

use crate::postable::{COUNTS_4, COUNTS_8, POSITIONS_4_I32, POSITIONS_8_I32};
use crate::predicate::{CodeWord, RangePredicate};
use crate::scalar;

#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::*;

#[inline]
fn prepare_out(out: &mut Vec<u32>, extra: usize, slack: usize) -> usize {
    let start = out.len();
    out.reserve(extra + slack);
    start
}

/// SSE4.1 find-matches kernel for 1-byte code words (16 lanes per iteration).
#[target_feature(enable = "sse4.1")]
#[allow(clippy::needless_range_loop)] // positions-table expansion over raw pointers
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

    let lo = _mm_set1_epi8(pred.lo as i8);
    let hi = _mm_set1_epi8(pred.hi as i8);
    let simd_iters = data.len() / 16;

    for i in 0..simd_iters {
        let scan_pos = (i * 16) as u32;
        let v = _mm_loadu_si128(data.as_ptr().add(i * 16) as *const __m128i);
        let ge_lo = _mm_cmpeq_epi8(_mm_max_epu8(v, lo), v);
        let le_hi = _mm_cmpeq_epi8(_mm_min_epu8(v, hi), v);
        let mask = _mm_movemask_epi8(_mm_and_si128(ge_lo, le_hi)) as u32;

        let mut sub = 0u32;
        let mut m = mask;
        while sub < 16 {
            let byte = (m & 0xFF) as usize;
            for k in 0..COUNTS_8[byte] as usize {
                *ptr.add(w + k) = base + scan_pos + sub + POSITIONS_8_I32[byte][k] as u32;
            }
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

/// SSE4.1 find-matches kernel for 2-byte code words (8 lanes per iteration).
#[target_feature(enable = "sse4.1")]
#[allow(clippy::needless_range_loop)] // positions-table expansion over raw pointers
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

    let lo = _mm_set1_epi16(pred.lo as i16);
    let hi = _mm_set1_epi16(pred.hi as i16);
    let zero = _mm_setzero_si128();
    let simd_iters = data.len() / 8;

    for i in 0..simd_iters {
        let scan_pos = (i * 8) as u32;
        let v = _mm_loadu_si128(data.as_ptr().add(i * 8) as *const __m128i);
        let ge_lo = _mm_cmpeq_epi16(_mm_max_epu16(v, lo), v);
        let le_hi = _mm_cmpeq_epi16(_mm_min_epu16(v, hi), v);
        let m16 = _mm_and_si128(ge_lo, le_hi);
        // Pack the 8 16-bit lanes down to bytes: movemask's low 8 bits then carry one
        // bit per original lane.
        let mask = (_mm_movemask_epi8(_mm_packs_epi16(m16, zero)) & 0xFF) as usize;

        for k in 0..COUNTS_8[mask] as usize {
            *ptr.add(w + k) = base + scan_pos + POSITIONS_8_I32[mask][k] as u32;
        }
        w += COUNTS_8[mask] as usize;
    }
    out.set_len(start + w);

    let tail_start = simd_iters * 8;
    let tail =
        scalar::find_matches_scalar(&data[tail_start..], pred, base + tail_start as u32, out);
    w + tail
}

/// SSE4.1 find-matches kernel for 4-byte code words (4 lanes per iteration).
#[target_feature(enable = "sse4.1")]
pub unsafe fn find_matches_u32(
    data: &[u32],
    pred: &RangePredicate<u32>,
    base: u32,
    out: &mut Vec<u32>,
) -> usize {
    if pred.is_empty() {
        return 0;
    }
    let start = prepare_out(out, data.len(), 4);
    let ptr = out.as_mut_ptr().add(start);
    let mut w = 0usize;

    let lo = _mm_set1_epi32(pred.lo as i32);
    let hi = _mm_set1_epi32(pred.hi as i32);
    let simd_iters = data.len() / 4;

    for i in 0..simd_iters {
        let scan_pos = (i * 4) as u32;
        let v = _mm_loadu_si128(data.as_ptr().add(i * 4) as *const __m128i);
        let ge_lo = _mm_cmpeq_epi32(_mm_max_epu32(v, lo), v);
        let le_hi = _mm_cmpeq_epi32(_mm_min_epu32(v, hi), v);
        let mask = _mm_movemask_ps(_mm_castsi128_ps(_mm_and_si128(ge_lo, le_hi))) as usize;

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

/// SSE find-matches kernel for unsigned 8-byte code words (2 lanes per iteration).
///
/// The compare is SSE4.2's `pcmpgtq`; on a CPU with SSE4.1 only the call runs
/// the scalar kernel.
pub unsafe fn find_matches_u64(
    data: &[u64],
    pred: &RangePredicate<u64>,
    base: u32,
    out: &mut Vec<u32>,
) -> usize {
    find_matches_64(data, pred, i64::MIN, base, out)
}

/// SSE find-matches kernel for signed 8-byte words (2 lanes per iteration), under
/// the same SSE4.2 condition as [`find_matches_u64`].
pub unsafe fn find_matches_i64(
    data: &[i64],
    pred: &RangePredicate<i64>,
    base: u32,
    out: &mut Vec<u32>,
) -> usize {
    find_matches_64(data, pred, 0, base, out)
}

/// Run [`find_matches_64_sse42`] where the CPU has SSE4.2, else the scalar kernel.
unsafe fn find_matches_64<T: CodeWord>(
    data: &[T],
    pred: &RangePredicate<T>,
    bias: i64,
    base: u32,
    out: &mut Vec<u32>,
) -> usize {
    if std::arch::is_x86_feature_detected!("sse4.2") {
        // SAFETY: the kernel's one target feature was detected just above.
        find_matches_64_sse42(data, pred, bias, base, out)
    } else {
        scalar::find_matches_scalar(data, pred, base, out)
    }
}

/// The 8-byte find kernel: the words' bits are XORed with `bias` and compared
/// signed, so `i64::MIN` compares unsigned words and `0` signed ones.
#[target_feature(enable = "sse4.2")]
unsafe fn find_matches_64_sse42<T: CodeWord>(
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

    let bias = _mm_set1_epi64x(bias);
    let lo = _mm_xor_si128(_mm_set1_epi64x(pred.lo.as_u64() as i64), bias);
    let hi = _mm_xor_si128(_mm_set1_epi64x(pred.hi.as_u64() as i64), bias);
    let simd_iters = data.len() / 2;

    for i in 0..simd_iters {
        let scan_pos = (i * 2) as u32;
        let raw = _mm_loadu_si128(data.as_ptr().add(i * 2) as *const __m128i);
        let v = _mm_xor_si128(raw, bias);
        let out_of_range = _mm_or_si128(_mm_cmpgt_epi64(lo, v), _mm_cmpgt_epi64(v, hi));
        let mask = (!(_mm_movemask_pd(_mm_castsi128_pd(out_of_range)) as usize)) & 0b11;

        let entry = _mm_loadu_si128(POSITIONS_4_I32[mask].as_ptr() as *const __m128i);
        let positions = _mm_add_epi32(entry, _mm_set1_epi32((base + scan_pos) as i32));
        _mm_storeu_si128(ptr.add(w) as *mut __m128i, positions);
        w += COUNTS_4[mask] as usize;
    }
    out.set_len(start + w);

    let tail_start = simd_iters * 2;
    let tail =
        scalar::find_matches_scalar(&data[tail_start..], pred, base + tail_start as u32, out);
    w + tail
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scalar::find_matches_scalar;

    fn sse_available() -> bool {
        std::arch::is_x86_feature_detected!("sse4.1")
    }

    fn data_u32(n: usize, modulus: u32) -> Vec<u32> {
        let mut x = 0x9E37_79B9u32;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                x % modulus
            })
            .collect()
    }

    #[test]
    fn sse_u8_matches_scalar_oracle() {
        if !sse_available() {
            return;
        }
        let data: Vec<u8> = data_u32(5_003, 256).iter().map(|&v| v as u8).collect();
        for (lo, hi) in [(0u8, 255), (20, 60), (250, 10), (128, 128)] {
            let pred = RangePredicate::between(lo, hi);
            let mut expected = Vec::new();
            find_matches_scalar(&data, &pred, 3, &mut expected);
            let mut got = Vec::new();
            unsafe { find_matches_u8(&data, &pred, 3, &mut got) };
            assert_eq!(got, expected, "lo={lo} hi={hi}");
        }
    }

    #[test]
    fn sse_u16_matches_scalar_oracle() {
        if !sse_available() {
            return;
        }
        let data: Vec<u16> = data_u32(4_001, 65_536).iter().map(|&v| v as u16).collect();
        for (lo, hi) in [(0u16, u16::MAX), (1_000, 30_000), (50_000, 2)] {
            let pred = RangePredicate::between(lo, hi);
            let mut expected = Vec::new();
            find_matches_scalar(&data, &pred, 0, &mut expected);
            let mut got = Vec::new();
            unsafe { find_matches_u16(&data, &pred, 0, &mut got) };
            assert_eq!(got, expected, "lo={lo} hi={hi}");
        }
    }

    #[test]
    fn sse_u32_matches_scalar_oracle() {
        if !sse_available() {
            return;
        }
        let data = data_u32(3_001, 1 << 24);
        for (lo, hi) in [(0u32, u32::MAX), (1 << 10, 1 << 20), (1 << 23, 1 << 22)] {
            let pred = RangePredicate::between(lo, hi);
            let mut expected = Vec::new();
            find_matches_scalar(&data, &pred, 11, &mut expected);
            let mut got = Vec::new();
            unsafe { find_matches_u32(&data, &pred, 11, &mut got) };
            assert_eq!(got, expected, "lo={lo} hi={hi}");
        }
    }

    #[test]
    fn sse_u64_and_i64_match_scalar_oracle() {
        if !sse_available() {
            return;
        }
        let mut data: Vec<u64> = data_u32(2_001, u32::MAX)
            .iter()
            .map(|&v| (v as u64) << 32 | v as u64)
            .collect();
        data.extend_from_slice(&[0, 1, u64::MAX, 1 << 63, (1 << 63) - 1]);
        for (lo, hi) in [(0u64, u64::MAX), (1 << 62, 1 << 63), (u64::MAX, 0)] {
            let pred = RangePredicate::between(lo, hi);
            let mut expected = Vec::new();
            find_matches_scalar(&data, &pred, 5, &mut expected);
            let mut got = Vec::new();
            unsafe { find_matches_u64(&data, &pred, 5, &mut got) };
            assert_eq!(got, expected, "u64 lo={lo} hi={hi}");
        }
        let signed: Vec<i64> = data.iter().map(|&v| v as i64).collect();
        for (lo, hi) in [(i64::MIN, i64::MAX), (-5, 1 << 40), (i64::MIN, -1), (1, -1)] {
            let pred = RangePredicate::between(lo, hi);
            let mut expected = Vec::new();
            find_matches_scalar(&signed, &pred, 5, &mut expected);
            let mut got = Vec::new();
            unsafe { find_matches_i64(&signed, &pred, 5, &mut got) };
            assert_eq!(got, expected, "i64 lo={lo} hi={hi}");
        }
    }
}
