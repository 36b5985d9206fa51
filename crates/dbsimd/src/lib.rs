//! # dbsimd — SIMD predicate-evaluation kernels
//!
//! This crate implements the vectorized predicate-evaluation subsystem described in
//! Section 4.2 of *"Data Blocks: Hybrid OLTP and OLAP on Compressed Storage using both
//! Vectorization and Compilation"* (SIGMOD 2016):
//!
//! * **Find initial matches** — scan a contiguous integer column (the compressed code
//!   words of a Data Block attribute, or a raw uncompressed column), evaluate a
//!   SARGable range predicate and produce a *match vector* of global record positions.
//! * **Reduce matches** — given an existing match vector, gather the attribute values
//!   at those positions, evaluate a further conjunctive predicate, and shrink the
//!   match vector in place.
//!
//! Both operations avoid the expensive bit-mask → position conversion by using a
//! pre-computed positions table indexed by the `movemask` of an 8-way SIMD comparison
//! (see [`postable`]). The kernels come in three ISA flavours — portable scalar
//! (branch-free), SSE (128-bit) and AVX2 (256-bit) — selected at runtime via
//! [`IsaLevel::detect`] or forced explicitly, which is what the paper's Figure 8 and
//! Figure 9 micro-benchmarks do.
//!
//! All predicates are normalised to an inclusive [`RangePredicate`] (`lo <= x <= hi`),
//! which covers every SARGable comparison (`=`, `<`, `<=`, `>`, `>=`, `between`) on
//! integer words. Data Blocks always store compressed data as unsigned 1-, 2-, 4- or
//! 8-byte integers, and a hot chunk stores an integer attribute as plain `i64`s, so
//! the kernels support those five types ([`ScanWord`]), comparing the unsigned ones
//! unsigned and `i64` signed; everything else (doubles, strings) is evaluated by
//! scalar loops in the storage layer.
//!
//! ```
//! use dbsimd::{find_matches, reduce_matches, IsaLevel, RangePredicate};
//!
//! let data: Vec<u32> = (0..1000).collect();
//! let isa = IsaLevel::detect();
//! let mut matches = Vec::new();
//! // 100 <= x <= 199
//! find_matches(isa, &data, &RangePredicate::between(100u32, 199), 0, &mut matches);
//! assert_eq!(matches.len(), 100);
//! // and x >= 150
//! reduce_matches(isa, &data, &RangePredicate::at_least(150u32), 0, &mut matches);
//! assert_eq!(matches.len(), 50);
//! assert_eq!(matches[0], 150);
//! ```

pub mod postable;
pub mod predicate;
pub mod scalar;
mod word;

#[cfg(target_arch = "x86_64")]
pub mod avx2;
#[cfg(target_arch = "x86_64")]
pub mod sse;

pub use predicate::{CmpOp, RangePredicate};
pub use word::ScanWord;

use std::sync::atomic::{AtomicU8, Ordering};

/// The instruction-set level used by the kernels.
///
/// `Scalar` is the portable branch-free fallback, `Sse` uses 128-bit SSE4.1 vectors
/// and `Avx2` uses 256-bit AVX2 vectors (with gathers for the reduce kernels). The
/// micro-benchmarks of the paper's Figures 8 and 9 compare exactly these levels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum IsaLevel {
    /// Portable scalar (branch-free) code. Always available.
    Scalar,
    /// 128-bit SSE4.1 kernels (find-matches only; reduce falls back to scalar).
    Sse,
    /// 256-bit AVX2 kernels, including gather-based reduce-matches.
    Avx2,
}

const ISA_UNKNOWN: u8 = 0;
const ISA_SCALAR: u8 = 1;
const ISA_SSE: u8 = 2;
const ISA_AVX2: u8 = 3;

static DETECTED: AtomicU8 = AtomicU8::new(ISA_UNKNOWN);

impl IsaLevel {
    /// Detect the best ISA level supported by the current CPU.
    ///
    /// The result is cached; detection runs at most once per process.
    pub fn detect() -> IsaLevel {
        match DETECTED.load(Ordering::Relaxed) {
            ISA_SCALAR => return IsaLevel::Scalar,
            ISA_SSE => return IsaLevel::Sse,
            ISA_AVX2 => return IsaLevel::Avx2,
            _ => {}
        }
        let level = Self::detect_uncached();
        let tag = match level {
            IsaLevel::Scalar => ISA_SCALAR,
            IsaLevel::Sse => ISA_SSE,
            IsaLevel::Avx2 => ISA_AVX2,
        };
        DETECTED.store(tag, Ordering::Relaxed);
        level
    }

    fn detect_uncached() -> IsaLevel {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                return IsaLevel::Avx2;
            }
            if std::arch::is_x86_feature_detected!("sse4.1") {
                return IsaLevel::Sse;
            }
        }
        IsaLevel::Scalar
    }

    /// All ISA levels available on this machine, weakest first.
    ///
    /// Useful for benchmarks that sweep over the available levels.
    pub fn available() -> Vec<IsaLevel> {
        let best = Self::detect();
        let mut v = vec![IsaLevel::Scalar];
        if best >= IsaLevel::Sse {
            v.push(IsaLevel::Sse);
        }
        if best >= IsaLevel::Avx2 {
            v.push(IsaLevel::Avx2);
        }
        v
    }
}

impl std::fmt::Display for IsaLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IsaLevel::Scalar => write!(f, "x86 scalar"),
            IsaLevel::Sse => write!(f, "SSE"),
            IsaLevel::Avx2 => write!(f, "AVX2"),
        }
    }
}

/// Append the global positions (`base + index`) of all elements of `data` that satisfy
/// `pred` to `out`, returning the number of positions appended.
///
/// This is the *find initial matches* kernel of Section 4.2. Positions are appended in
/// ascending order. The requested `isa` level is honoured if supported by the CPU,
/// otherwise the call silently degrades to the strongest supported level.
pub fn find_matches<T: ScanWord>(
    isa: IsaLevel,
    data: &[T],
    pred: &RangePredicate<T>,
    base: u32,
    out: &mut Vec<u32>,
) -> usize {
    let isa = clamp_isa(isa);
    T::find(isa, data, pred, base, out)
}

/// Shrink an existing match vector by applying an additional conjunctive predicate.
///
/// Every position `p` in `matches` refers to `data[(p - base) as usize]`; positions
/// whose value does not satisfy `pred` are removed in place (order preserved). Returns
/// the new number of matches. This is the *reduce matches* kernel of Section 4.2,
/// implemented with SIMD gathers on AVX2.
pub fn reduce_matches<T: ScanWord>(
    isa: IsaLevel,
    data: &[T],
    pred: &RangePredicate<T>,
    base: u32,
    matches: &mut Vec<u32>,
) -> usize {
    let isa = clamp_isa(isa);
    T::reduce(isa, data, pred, base, matches)
}

fn clamp_isa(requested: IsaLevel) -> IsaLevel {
    let best = IsaLevel::detect();
    if requested <= best {
        requested
    } else {
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detect_is_stable() {
        let a = IsaLevel::detect();
        let b = IsaLevel::detect();
        assert_eq!(a, b);
    }

    #[test]
    fn available_contains_scalar() {
        let levels = IsaLevel::available();
        assert!(levels.contains(&IsaLevel::Scalar));
        assert!(!levels.is_empty());
    }

    #[test]
    fn clamp_never_exceeds_best() {
        let best = IsaLevel::detect();
        assert!(clamp_isa(IsaLevel::Avx2) <= best || best == IsaLevel::Avx2);
        assert_eq!(clamp_isa(IsaLevel::Scalar), IsaLevel::Scalar);
    }

    #[test]
    fn doc_example() {
        let data: Vec<u32> = (0..1000).collect();
        let isa = IsaLevel::detect();
        let mut matches = Vec::new();
        find_matches(
            isa,
            &data,
            &RangePredicate::between(100u32, 199),
            0,
            &mut matches,
        );
        assert_eq!(matches.len(), 100);
        reduce_matches(
            isa,
            &data,
            &RangePredicate::at_least(150u32),
            0,
            &mut matches,
        );
        assert_eq!(matches.len(), 50);
        assert_eq!(matches[0], 150);
    }

    #[test]
    fn display_names() {
        assert_eq!(IsaLevel::Scalar.to_string(), "x86 scalar");
        assert_eq!(IsaLevel::Sse.to_string(), "SSE");
        assert_eq!(IsaLevel::Avx2.to_string(), "AVX2");
    }
}
