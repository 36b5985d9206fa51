//! Per-width dispatch between the scalar, SSE and AVX2 kernels.

use crate::predicate::{CodeWord, RangePredicate};
use crate::scalar;
use crate::IsaLevel;

/// The word types supported by the SIMD kernels: 1-, 2-, 4- and 8-byte unsigned
/// integers — exactly the widths Data Blocks compress attributes into — and `i64`,
/// the payload of a hot chunk's integer attribute.
///
/// The trait is sealed: the kernels are hand-written per type and the set of types
/// is fixed by the storage format.
pub trait ScanWord: CodeWord + sealed::Sealed {
    /// Dispatch a find-matches call to the kernel for the requested ISA level.
    fn find(
        isa: IsaLevel,
        data: &[Self],
        pred: &RangePredicate<Self>,
        base: u32,
        out: &mut Vec<u32>,
    ) -> usize;

    /// Dispatch a reduce-matches call to the kernel for the requested ISA level.
    fn reduce(
        isa: IsaLevel,
        data: &[Self],
        pred: &RangePredicate<Self>,
        base: u32,
        matches: &mut Vec<u32>,
    ) -> usize;
}

mod sealed {
    pub trait Sealed {}
    impl Sealed for u8 {}
    impl Sealed for u16 {}
    impl Sealed for u32 {}
    impl Sealed for u64 {}
    impl Sealed for i64 {}
}

macro_rules! impl_scan_word {
    ($t:ty, $find_sse:path, $find_avx2:path, $reduce_avx2:expr) => {
        impl ScanWord for $t {
            fn find(
                isa: IsaLevel,
                data: &[Self],
                pred: &RangePredicate<Self>,
                base: u32,
                out: &mut Vec<u32>,
            ) -> usize {
                match isa {
                    IsaLevel::Scalar => scalar::find_matches_scalar(data, pred, base, out),
                    #[cfg(target_arch = "x86_64")]
                    IsaLevel::Sse => unsafe { $find_sse(data, pred, base, out) },
                    #[cfg(target_arch = "x86_64")]
                    IsaLevel::Avx2 => unsafe { $find_avx2(data, pred, base, out) },
                    #[cfg(not(target_arch = "x86_64"))]
                    _ => scalar::find_matches_scalar(data, pred, base, out),
                }
            }

            fn reduce(
                isa: IsaLevel,
                data: &[Self],
                pred: &RangePredicate<Self>,
                base: u32,
                matches: &mut Vec<u32>,
            ) -> usize {
                match isa {
                    #[cfg(target_arch = "x86_64")]
                    IsaLevel::Avx2 => {
                        let f: Option<
                            unsafe fn(&[Self], &RangePredicate<Self>, u32, &mut Vec<u32>) -> usize,
                        > = $reduce_avx2;
                        match f {
                            Some(kernel) => unsafe { kernel(data, pred, base, matches) },
                            None => scalar::reduce_matches_scalar(data, pred, base, matches),
                        }
                    }
                    _ => scalar::reduce_matches_scalar(data, pred, base, matches),
                }
            }
        }
    };
}

// 8- and 16-bit reduce kernels fall back to scalar: AVX2 has no 8/16-bit gathers, and
// the paper notes the emulated gathers bring no benefit for those widths.
impl_scan_word!(
    u8,
    crate::sse::find_matches_u8,
    crate::avx2::find_matches_u8,
    None
);
impl_scan_word!(
    u16,
    crate::sse::find_matches_u16,
    crate::avx2::find_matches_u16,
    None
);
impl_scan_word!(
    u32,
    crate::sse::find_matches_u32,
    crate::avx2::find_matches_u32,
    Some(crate::avx2::reduce_matches_u32)
);

impl_scan_word!(
    u64,
    crate::sse::find_matches_u64,
    crate::avx2::find_matches_u64,
    Some(crate::avx2::reduce_matches_u64)
);
impl_scan_word!(
    i64,
    crate::sse::find_matches_i64,
    crate::avx2::find_matches_i64,
    Some(crate::avx2::reduce_matches_i64)
);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{find_matches, reduce_matches, CmpOp};

    fn gen_u32(n: usize, modulus: u32) -> Vec<u32> {
        let mut x = 0xACE1u32;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                x % modulus
            })
            .collect()
    }

    fn check_all_isas<T: ScanWord>(data: &[T], pred: RangePredicate<T>) {
        let mut expected = Vec::new();
        scalar::find_matches_scalar(data, &pred, 0, &mut expected);
        for isa in IsaLevel::available() {
            let mut got = Vec::new();
            find_matches(isa, data, &pred, 0, &mut got);
            assert_eq!(got, expected, "find isa={isa:?}");

            let mut all: Vec<u32> = (0..data.len() as u32).collect();
            let mut all_expected = all.clone();
            scalar::reduce_matches_scalar(data, &pred, 0, &mut all_expected);
            reduce_matches(isa, data, &pred, 0, &mut all);
            assert_eq!(all, all_expected, "reduce isa={isa:?}");
        }
    }

    #[test]
    fn all_widths_all_isas_agree() {
        let raw = gen_u32(3_333, 60_000);
        let d8: Vec<u8> = raw.iter().map(|&v| (v % 256) as u8).collect();
        check_all_isas::<u8>(&d8, RangePredicate::between(40, 200));
        let d16: Vec<u16> = raw.iter().map(|&v| v as u16).collect();
        check_all_isas::<u16>(&d16, RangePredicate::between(5_000, 30_000));
        let d32: Vec<u32> = raw.iter().map(|&v| v * 7).collect();
        check_all_isas::<u32>(&d32, RangePredicate::between(10_000, 200_000));
        let d64: Vec<u64> = d32.iter().map(|&v| v as u64 * 1_000_003).collect();
        check_all_isas::<u64>(&d64, RangePredicate::at_least(50_000_000));
    }

    #[test]
    fn i64_compares_signed_at_every_isa() {
        // Spread over the whole i64 range, both signs, with the extremes and the
        // values next to zero.
        let mut data: Vec<i64> = gen_u32(3_001, u32::MAX)
            .iter()
            .map(|&v| (v as i64 - (1 << 31)) << 32 | v as i64)
            .collect();
        data.extend_from_slice(&[i64::MIN, i64::MIN + 1, -2, -1, 0, 1, 2, i64::MAX - 1]);
        data.extend_from_slice(&[i64::MAX, 0, -1, 1, i64::MIN]);
        let lt = |t: i64| RangePredicate::from_cmp(CmpOp::Lt, t).unwrap();
        let gt = |t: i64| RangePredicate::from_cmp(CmpOp::Gt, t).unwrap();
        for pred in [
            RangePredicate::all(),
            RangePredicate::empty(),
            RangePredicate::equals(i64::MIN),
            RangePredicate::equals(i64::MAX),
            RangePredicate::equals(0),
            RangePredicate::between(-1, 1),
            RangePredicate::between(-(1 << 40), 1 << 40),
            RangePredicate::between(i64::MIN, -1),
            RangePredicate::between(0, i64::MAX),
            // `< t` is `[i64::MIN, t - 1]`, `> t` is `[t + 1, i64::MAX]`
            lt(0),
            lt(1),
            lt(i64::MIN + 1),
            lt(i64::MAX),
            gt(-1),
            gt(i64::MIN),
            gt(i64::MAX - 1),
        ] {
            let naive: Vec<u32> = (0..data.len() as u32)
                .filter(|&i| pred.lo <= data[i as usize] && data[i as usize] <= pred.hi)
                .collect();
            let mut scalar = Vec::new();
            scalar::find_matches_scalar(&data, &pred, 0, &mut scalar);
            assert_eq!(scalar, naive, "{pred:?}");
            check_all_isas::<i64>(&data, pred);
        }
        assert!(lt(i64::MIN).is_empty() && gt(i64::MAX).is_empty());
    }
}
