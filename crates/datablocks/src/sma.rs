//! Small Materialized Aggregates (SMA) — per-attribute min/max values used to rule
//! out whole Data Blocks during a scan (Section 3.2, after Moerkotte's SMAs).
//!
//! An SMA and a compression scheme are both read off the attribute's value
//! domain in its block, so freezing produces them in one pass: the SMA comes out of
//! [`crate::compression::ColumnCompression::compress`].

use crate::scan::Restriction;
use crate::value::Value;
use std::ops::Bound;

/// Min/max aggregate for one attribute of one Data Block.
///
/// `Untyped` covers the degenerate cases (empty block, or a column that is entirely
/// NULL) where no domain information exists; such an SMA can never rule a block out
/// for `IS NULL` restrictions but rules it out for every value restriction.
#[derive(Debug, Clone, PartialEq)]
pub enum Sma {
    /// Integer domain `[min, max]` of the non-NULL values.
    Int {
        /// Smallest non-NULL value.
        min: i64,
        /// Largest non-NULL value.
        max: i64,
    },
    /// Floating point domain `[min, max]` of the non-NULL values.
    Double {
        /// Smallest non-NULL value.
        min: f64,
        /// Largest non-NULL value.
        max: f64,
    },
    /// Lexicographic string domain `[min, max]` of the non-NULL values.
    Str {
        /// Lexicographically smallest non-NULL value.
        min: String,
        /// Lexicographically largest non-NULL value.
        max: String,
    },
    /// No non-NULL values exist.
    AllNull,
}

impl Sma {
    /// The minimum value as a [`Value`] (`Null` for an all-NULL column).
    pub fn min_value(&self) -> Value {
        match self {
            Sma::Int { min, .. } => Value::Int(*min),
            Sma::Double { min, .. } => Value::Double(*min),
            Sma::Str { min, .. } => Value::Str(min.clone()),
            Sma::AllNull => Value::Null,
        }
    }

    /// The maximum value as a [`Value`] (`Null` for an all-NULL column).
    pub fn max_value(&self) -> Value {
        match self {
            Sma::Int { max, .. } => Value::Int(*max),
            Sma::Double { max, .. } => Value::Double(*max),
            Sma::Str { max, .. } => Value::Str(max.clone()),
            Sma::AllNull => Value::Null,
        }
    }

    /// The SMA block-skipping gate: can any record of the block satisfy
    /// `restriction`? `false` rules the whole block out. A range restriction
    /// compares its [`Restriction::bounds`] with `[min, max]`; `<>` is ruled
    /// out only when every value equals the constant; the NULL tests always
    /// pass. A constant that compares with no value of the block (NULL, NaN,
    /// another type) rules it out, as does an all-NULL block for every
    /// comparison.
    ///
    /// Both rule-out sites call this one function — the scan planner
    /// ([`crate::scan::plan_scan`]) on a loaded block, and
    /// [`crate::frame::BlockSummary::may_match`] on a cold block's summary — so
    /// the two agree by construction.
    pub fn may_match(&self, restriction: &Restriction) -> bool {
        use std::cmp::Ordering::{Equal, Greater, Less};
        let Some((lo, hi)) = restriction.bounds() else {
            return match restriction {
                Restriction::Cmp { value, .. } => matches!(
                    (self.min_value().sql_cmp(value), self.max_value().sql_cmp(value)),
                    (Some(at_min), Some(at_max)) if (at_min, at_max) != (Equal, Equal)
                ),
                _ => true,
            };
        };
        let max_reaches = match lo {
            Bound::Unbounded => true,
            Bound::Included(v) => matches!(self.max_value().sql_cmp(v), Some(Greater | Equal)),
            Bound::Excluded(v) => self.max_value().sql_cmp(v) == Some(Greater),
        };
        let min_reaches = match hi {
            Bound::Unbounded => true,
            Bound::Included(v) => matches!(self.min_value().sql_cmp(v), Some(Less | Equal)),
            Bound::Excluded(v) => self.min_value().sql_cmp(v) == Some(Less),
        };
        max_reaches && min_reaches
    }

    /// Serialized size of the SMA in bytes (min + max), used by the layout module.
    pub fn serialized_size(&self) -> usize {
        match self {
            Sma::Int { .. } => 16,
            Sma::Double { .. } => 16,
            Sma::Str { min, max } => 8 + min.len() + max.len(),
            Sma::AllNull => 2,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbsimd::CmpOp;

    fn gate(sma: &Sma, op: CmpOp, constant: &Value) -> bool {
        sma.may_match(&Restriction::cmp(0, op, constant.clone()))
    }

    #[test]
    fn may_match_eq_inside_and_outside() {
        let sma = Sma::Int { min: 10, max: 20 };
        assert!(gate(&sma, CmpOp::Eq, &Value::Int(10)));
        assert!(gate(&sma, CmpOp::Eq, &Value::Int(15)));
        assert!(!gate(&sma, CmpOp::Eq, &Value::Int(9)));
        assert!(!gate(&sma, CmpOp::Eq, &Value::Int(21)));
    }

    #[test]
    fn may_match_inequalities() {
        let sma = Sma::Int { min: 10, max: 20 };
        assert!(!gate(&sma, CmpOp::Lt, &Value::Int(10)));
        assert!(gate(&sma, CmpOp::Lt, &Value::Int(11)));
        assert!(gate(&sma, CmpOp::Le, &Value::Int(10)));
        assert!(!gate(&sma, CmpOp::Gt, &Value::Int(20)));
        assert!(gate(&sma, CmpOp::Ge, &Value::Int(20)));
        assert!(!gate(&sma, CmpOp::Ge, &Value::Int(21)));
    }

    #[test]
    fn may_match_ne_only_ruled_out_for_constant_block() {
        let constant = Sma::Int { min: 5, max: 5 };
        assert!(!gate(&constant, CmpOp::Ne, &Value::Int(5)));
        assert!(gate(&constant, CmpOp::Ne, &Value::Int(6)));
        let varied = Sma::Int { min: 5, max: 9 };
        assert!(gate(&varied, CmpOp::Ne, &Value::Int(5)));
    }

    #[test]
    fn may_match_between() {
        let sma = Sma::Int { min: 100, max: 200 };
        assert!(sma.may_match(&Restriction::between(0, 150i64, 300i64)));
        assert!(sma.may_match(&Restriction::between(0, 0i64, 100i64)));
        assert!(!sma.may_match(&Restriction::between(0, 201i64, 300i64)));
        assert!(!sma.may_match(&Restriction::between(0, 0i64, 99i64)));
    }

    #[test]
    fn incomparable_constant_never_matches() {
        let sma = Sma::Int { min: 1, max: 2 };
        assert!(!gate(&sma, CmpOp::Eq, &Value::from("one")));
        assert!(!gate(&sma, CmpOp::Eq, &Value::Null));
    }

    #[test]
    fn string_sma_range_check() {
        let sma = Sma::Str {
            min: "HOUSEHOLD".into(),
            max: "MACHINERY".into(),
        };
        assert!(gate(&sma, CmpOp::Eq, &Value::from("MACHINERY")));
        assert!(!gate(&sma, CmpOp::Eq, &Value::from("AUTOMOBILE")));
    }
}
