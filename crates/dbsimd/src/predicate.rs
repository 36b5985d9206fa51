//! SARGable predicate representation.
//!
//! All SARGable comparisons on integer words (`=`, `<`, `<=`, `>`, `>=`,
//! `between`) are normalised into an inclusive [`RangePredicate`] `lo <= x <= hi`.
//! This is the only shape the SIMD kernels need to understand: an equality becomes a
//! degenerate range, a one-sided comparison saturates the other bound at the domain
//! limit, and an empty range (`lo > hi`) matches nothing.

/// A SARGable comparison operator, as they appear in scan restrictions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `attribute = constant`
    Eq,
    /// `attribute <> constant` — note: *not* range-normalisable; handled by the caller
    /// as the complement of an equality range.
    Ne,
    /// `attribute < constant`
    Lt,
    /// `attribute <= constant`
    Le,
    /// `attribute > constant`
    Gt,
    /// `attribute >= constant`
    Ge,
}

impl CmpOp {
    /// Evaluate the operator on two ordered values.
    pub fn eval<T: PartialOrd>(self, lhs: T, rhs: T) -> bool {
        match self {
            CmpOp::Eq => lhs == rhs,
            CmpOp::Ne => lhs != rhs,
            CmpOp::Lt => lhs < rhs,
            CmpOp::Le => lhs <= rhs,
            CmpOp::Gt => lhs > rhs,
            CmpOp::Ge => lhs >= rhs,
        }
    }

    /// The operator with its operands swapped (`a op b` ⇔ `b op.flip() a`).
    pub fn flip(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
        }
    }
}

/// Marker trait for the integer word types the kernels operate on: the unsigned
/// code words of Data Blocks and the signed `i64` payload of hot chunks.
pub trait CodeWord: Copy + Ord + std::fmt::Debug {
    /// Smallest representable value.
    const MIN_VALUE: Self;
    /// Largest representable value.
    const MAX_VALUE: Self;
    /// `self + 1` saturating at the domain maximum.
    fn saturating_next(self) -> Self;
    /// `self - 1` saturating at the domain minimum.
    fn saturating_prev(self) -> Self;
    /// Widening conversion to `u64` (used for PSMA deltas and diagnostics); an
    /// `i64` keeps its bits.
    fn as_u64(self) -> u64;
}

macro_rules! impl_code_word {
    ($($t:ty),*) => {$(
        impl CodeWord for $t {
            const MIN_VALUE: Self = <$t>::MIN;
            const MAX_VALUE: Self = <$t>::MAX;
            #[inline]
            fn saturating_next(self) -> Self { self.saturating_add(1) }
            #[inline]
            fn saturating_prev(self) -> Self { self.saturating_sub(1) }
            #[inline]
            fn as_u64(self) -> u64 { self as u64 }
        }
    )*};
}

impl_code_word!(u8, u16, u32, u64, i64);

/// An inclusive range predicate `lo <= x <= hi` over integer words.
///
/// Empty ranges (`lo > hi`) are representable and match nothing; they arise naturally
/// when a scan restriction contradicts a block's SMA or dictionary domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RangePredicate<T> {
    /// Inclusive lower bound.
    pub lo: T,
    /// Inclusive upper bound.
    pub hi: T,
}

impl<T: CodeWord> RangePredicate<T> {
    /// Range matching exactly `value`.
    pub fn equals(value: T) -> Self {
        RangePredicate {
            lo: value,
            hi: value,
        }
    }

    /// Range matching `lo <= x <= hi` (a SQL `BETWEEN`).
    pub fn between(lo: T, hi: T) -> Self {
        RangePredicate { lo, hi }
    }

    /// Range matching `x >= value`.
    pub fn at_least(value: T) -> Self {
        RangePredicate {
            lo: value,
            hi: T::MAX_VALUE,
        }
    }

    /// Range matching `x <= value`.
    pub fn at_most(value: T) -> Self {
        RangePredicate {
            lo: T::MIN_VALUE,
            hi: value,
        }
    }

    /// Range matching everything in the domain.
    pub fn all() -> Self {
        RangePredicate {
            lo: T::MIN_VALUE,
            hi: T::MAX_VALUE,
        }
    }

    /// A canonical empty range matching nothing.
    pub fn empty() -> Self {
        RangePredicate {
            lo: T::MAX_VALUE,
            hi: T::MIN_VALUE,
        }
    }

    /// Normalise `x op constant` into an inclusive range.
    ///
    /// Returns `None` for [`CmpOp::Ne`], which is not expressible as a single range —
    /// callers evaluate it as the complement of [`RangePredicate::equals`].
    pub fn from_cmp(op: CmpOp, constant: T) -> Option<Self> {
        match op {
            CmpOp::Eq => Some(Self::equals(constant)),
            CmpOp::Ne => None,
            CmpOp::Lt => {
                if constant == T::MIN_VALUE {
                    Some(Self::empty())
                } else {
                    Some(Self::at_most(constant.saturating_prev()))
                }
            }
            CmpOp::Le => Some(Self::at_most(constant)),
            CmpOp::Gt => {
                if constant == T::MAX_VALUE {
                    Some(Self::empty())
                } else {
                    Some(Self::at_least(constant.saturating_next()))
                }
            }
            CmpOp::Ge => Some(Self::at_least(constant)),
        }
    }

    /// Does `value` satisfy the predicate?
    #[inline(always)]
    pub fn contains(&self, value: T) -> bool {
        value >= self.lo && value <= self.hi
    }

    /// True if the range can never match.
    pub fn is_empty(&self) -> bool {
        self.lo > self.hi
    }

    /// True if the range matches the whole domain.
    pub fn is_all(&self) -> bool {
        self.lo == T::MIN_VALUE && self.hi == T::MAX_VALUE
    }

    /// Intersect two conjunctive range predicates on the same attribute.
    pub fn intersect(&self, other: &Self) -> Self {
        RangePredicate {
            lo: if self.lo > other.lo {
                self.lo
            } else {
                other.lo
            },
            hi: if self.hi < other.hi {
                self.hi
            } else {
                other.hi
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cmp_op_eval() {
        assert!(CmpOp::Eq.eval(3, 3));
        assert!(!CmpOp::Eq.eval(3, 4));
        assert!(CmpOp::Ne.eval(3, 4));
        assert!(CmpOp::Lt.eval(3, 4));
        assert!(!CmpOp::Lt.eval(4, 4));
        assert!(CmpOp::Le.eval(4, 4));
        assert!(CmpOp::Gt.eval(5, 4));
        assert!(CmpOp::Ge.eval(4, 4));
    }

    #[test]
    fn cmp_op_flip() {
        assert_eq!(CmpOp::Lt.flip(), CmpOp::Gt);
        assert_eq!(CmpOp::Le.flip(), CmpOp::Ge);
        assert_eq!(CmpOp::Gt.flip(), CmpOp::Lt);
        assert_eq!(CmpOp::Ge.flip(), CmpOp::Le);
        assert_eq!(CmpOp::Eq.flip(), CmpOp::Eq);
        assert_eq!(CmpOp::Ne.flip(), CmpOp::Ne);
        // flipping twice is the identity
        for op in [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ] {
            assert_eq!(op.flip().flip(), op);
        }
    }

    #[test]
    fn equals_is_degenerate_range() {
        let p = RangePredicate::equals(42u32);
        assert!(p.contains(42));
        assert!(!p.contains(41));
        assert!(!p.contains(43));
    }

    #[test]
    fn from_cmp_lt_le_gt_ge() {
        let lt = RangePredicate::from_cmp(CmpOp::Lt, 10u8).unwrap();
        assert!(lt.contains(9));
        assert!(!lt.contains(10));
        let le = RangePredicate::from_cmp(CmpOp::Le, 10u8).unwrap();
        assert!(le.contains(10));
        assert!(!le.contains(11));
        let gt = RangePredicate::from_cmp(CmpOp::Gt, 10u8).unwrap();
        assert!(!gt.contains(10));
        assert!(gt.contains(11));
        let ge = RangePredicate::from_cmp(CmpOp::Ge, 10u8).unwrap();
        assert!(ge.contains(10));
        assert!(!ge.contains(9));
    }

    #[test]
    fn from_cmp_ne_is_none() {
        assert!(RangePredicate::from_cmp(CmpOp::Ne, 7u16).is_none());
    }

    #[test]
    fn from_cmp_boundary_saturation() {
        // x < MIN matches nothing
        let p = RangePredicate::from_cmp(CmpOp::Lt, u8::MIN).unwrap();
        assert!(p.is_empty());
        // x > MAX matches nothing
        let p = RangePredicate::from_cmp(CmpOp::Gt, u8::MAX).unwrap();
        assert!(p.is_empty());
        // x <= MAX matches everything
        let p = RangePredicate::from_cmp(CmpOp::Le, u8::MAX).unwrap();
        assert!(p.is_all());
        // x >= MIN matches everything
        let p = RangePredicate::from_cmp(CmpOp::Ge, u8::MIN).unwrap();
        assert!(p.is_all());
    }

    #[test]
    fn empty_and_all() {
        let e = RangePredicate::<u32>::empty();
        assert!(e.is_empty());
        assert!(!e.contains(0));
        assert!(!e.contains(u32::MAX));
        let a = RangePredicate::<u32>::all();
        assert!(a.is_all());
        assert!(a.contains(0));
        assert!(a.contains(u32::MAX));
    }

    #[test]
    fn intersect_ranges() {
        let a = RangePredicate::between(10u32, 50);
        let b = RangePredicate::between(30u32, 80);
        let c = a.intersect(&b);
        assert_eq!(c, RangePredicate::between(30, 50));
        let d = RangePredicate::between(60u32, 70);
        assert!(a.intersect(&d).is_empty());
    }

    #[test]
    fn intersect_with_all_is_identity() {
        let a = RangePredicate::between(10u64, 50);
        assert_eq!(a.intersect(&RangePredicate::all()), a);
    }
}
