//! Small Materialized Aggregates (SMA) — per-attribute min/max values used to rule
//! out whole Data Blocks during a scan (Section 3.2, after Moerkotte's SMAs).

use crate::column::Column;
use crate::scan::Restriction;
use crate::value::{DataType, Value};
use dbsimd::CmpOp;

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
    /// Compute the SMA of a column (hot representation) while freezing it.
    pub fn compute(column: &Column) -> Sma {
        let n = column.len();
        let mut any = false;
        match column.data_type() {
            DataType::Int => {
                let data = column.data.as_int().expect("int column");
                let (mut min, mut max) = (i64::MAX, i64::MIN);
                for (row, &v) in data.iter().enumerate().take(n) {
                    if column.is_null(row) {
                        continue;
                    }
                    any = true;
                    min = min.min(v);
                    max = max.max(v);
                }
                if any {
                    Sma::Int { min, max }
                } else {
                    Sma::AllNull
                }
            }
            DataType::Double => {
                let data = column.data.as_double().expect("double column");
                let (mut min, mut max) = (f64::INFINITY, f64::NEG_INFINITY);
                for (row, &v) in data.iter().enumerate().take(n) {
                    if column.is_null(row) {
                        continue;
                    }
                    any = true;
                    min = min.min(v);
                    max = max.max(v);
                }
                if any {
                    Sma::Double { min, max }
                } else {
                    Sma::AllNull
                }
            }
            DataType::Str => {
                let data = column.data.strings().expect("string column");
                let mut min: Option<&str> = None;
                let mut max: Option<&str> = None;
                for row in 0..n {
                    if column.is_null(row) {
                        continue;
                    }
                    let s = data.get(row);
                    min = Some(match min {
                        Some(m) if m <= s => m,
                        _ => s,
                    });
                    max = Some(match max {
                        Some(m) if m >= s => m,
                        _ => s,
                    });
                }
                match (min, max) {
                    (Some(mn), Some(mx)) => Sma::Str {
                        min: mn.to_string(),
                        max: mx.to_string(),
                    },
                    _ => Sma::AllNull,
                }
            }
        }
    }

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

    /// Can a comparison `attribute op constant` possibly be satisfied by any value in
    /// this block? `false` means the whole block can be skipped for this restriction.
    pub fn may_match_cmp(&self, op: CmpOp, constant: &Value) -> bool {
        let (min, max) = match self {
            Sma::AllNull => return false,
            _ => (self.min_value(), self.max_value()),
        };
        let cmp_min = min.sql_cmp(constant);
        let cmp_max = max.sql_cmp(constant);
        let (cmp_min, cmp_max) = match (cmp_min, cmp_max) {
            (Some(a), Some(b)) => (a, b),
            // Incomparable constant (type mismatch or NULL) can never match.
            _ => return false,
        };
        use std::cmp::Ordering::*;
        match op {
            CmpOp::Eq => cmp_min != Greater && cmp_max != Less,
            // `<>` can only be ruled out when every value equals the constant, which
            // requires min == max == constant.
            CmpOp::Ne => !(cmp_min == Equal && cmp_max == Equal),
            CmpOp::Lt => cmp_min == Less,
            CmpOp::Le => cmp_min != Greater,
            CmpOp::Gt => cmp_max == Greater,
            CmpOp::Ge => cmp_max != Less,
        }
    }

    /// Can a `BETWEEN lo AND hi` restriction possibly be satisfied?
    pub fn may_match_between(&self, lo: &Value, hi: &Value) -> bool {
        self.may_match_cmp(CmpOp::Ge, lo) && self.may_match_cmp(CmpOp::Le, hi)
    }

    /// The SMA block-skipping gate: can any record of the block satisfy
    /// `restriction`? `false` rules the whole block out. Only comparisons other
    /// than `<>` and `BETWEEN` are decided here; every other restriction passes.
    ///
    /// Both rule-out sites call this one function — the scan planner
    /// ([`crate::scan::plan_scan`]) on a loaded block, and
    /// [`crate::frame::BlockSummary::may_match`] on a cold block's summary — so
    /// the two agree by construction.
    pub fn may_match(&self, restriction: &Restriction) -> bool {
        match restriction {
            Restriction::Cmp { op, value, .. } if *op != CmpOp::Ne => {
                self.may_match_cmp(*op, value)
            }
            Restriction::Between { lo, hi, .. } => self.may_match_between(lo, hi),
            _ => true,
        }
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
    use crate::column::ColumnData;

    fn int_column(values: &[i64]) -> Column {
        Column::from_data(ColumnData::Int(values.to_vec()))
    }

    #[test]
    fn compute_int_min_max() {
        let sma = Sma::compute(&int_column(&[5, -3, 12, 7]));
        assert_eq!(sma, Sma::Int { min: -3, max: 12 });
    }

    #[test]
    fn compute_ignores_nulls() {
        let mut col = Column::new(DataType::Int);
        col.push(Value::Null);
        col.push(Value::Int(10));
        col.push(Value::Null);
        col.push(Value::Int(4));
        assert_eq!(Sma::compute(&col), Sma::Int { min: 4, max: 10 });
    }

    #[test]
    fn compute_all_null() {
        let mut col = Column::new(DataType::Int);
        col.push(Value::Null);
        col.push(Value::Null);
        assert_eq!(Sma::compute(&col), Sma::AllNull);
        assert!(!Sma::AllNull.may_match_cmp(CmpOp::Eq, &Value::Int(0)));
    }

    #[test]
    fn compute_string_min_max() {
        let col = Column::from_data(ColumnData::Str(vec![
            "pear".into(),
            "apple".into(),
            "zebra".into(),
        ]));
        assert_eq!(
            Sma::compute(&col),
            Sma::Str {
                min: "apple".into(),
                max: "zebra".into()
            }
        );
    }

    #[test]
    fn compute_double_min_max() {
        let col = Column::from_data(ColumnData::Double(vec![2.5, -1.0, 7.25]));
        assert_eq!(
            Sma::compute(&col),
            Sma::Double {
                min: -1.0,
                max: 7.25
            }
        );
    }

    #[test]
    fn may_match_eq_inside_and_outside() {
        let sma = Sma::Int { min: 10, max: 20 };
        assert!(sma.may_match_cmp(CmpOp::Eq, &Value::Int(10)));
        assert!(sma.may_match_cmp(CmpOp::Eq, &Value::Int(15)));
        assert!(!sma.may_match_cmp(CmpOp::Eq, &Value::Int(9)));
        assert!(!sma.may_match_cmp(CmpOp::Eq, &Value::Int(21)));
    }

    #[test]
    fn may_match_inequalities() {
        let sma = Sma::Int { min: 10, max: 20 };
        assert!(!sma.may_match_cmp(CmpOp::Lt, &Value::Int(10)));
        assert!(sma.may_match_cmp(CmpOp::Lt, &Value::Int(11)));
        assert!(sma.may_match_cmp(CmpOp::Le, &Value::Int(10)));
        assert!(!sma.may_match_cmp(CmpOp::Gt, &Value::Int(20)));
        assert!(sma.may_match_cmp(CmpOp::Ge, &Value::Int(20)));
        assert!(!sma.may_match_cmp(CmpOp::Ge, &Value::Int(21)));
    }

    #[test]
    fn may_match_ne_only_ruled_out_for_constant_block() {
        let constant = Sma::Int { min: 5, max: 5 };
        assert!(!constant.may_match_cmp(CmpOp::Ne, &Value::Int(5)));
        assert!(constant.may_match_cmp(CmpOp::Ne, &Value::Int(6)));
        let varied = Sma::Int { min: 5, max: 9 };
        assert!(varied.may_match_cmp(CmpOp::Ne, &Value::Int(5)));
    }

    #[test]
    fn may_match_between() {
        let sma = Sma::Int { min: 100, max: 200 };
        assert!(sma.may_match_between(&Value::Int(150), &Value::Int(300)));
        assert!(sma.may_match_between(&Value::Int(0), &Value::Int(100)));
        assert!(!sma.may_match_between(&Value::Int(201), &Value::Int(300)));
        assert!(!sma.may_match_between(&Value::Int(0), &Value::Int(99)));
    }

    #[test]
    fn incomparable_constant_never_matches() {
        let sma = Sma::Int { min: 1, max: 2 };
        assert!(!sma.may_match_cmp(CmpOp::Eq, &Value::from("one")));
        assert!(!sma.may_match_cmp(CmpOp::Eq, &Value::Null));
    }

    #[test]
    fn string_sma_range_check() {
        let sma = Sma::Str {
            min: "HOUSEHOLD".into(),
            max: "MACHINERY".into(),
        };
        assert!(sma.may_match_cmp(CmpOp::Eq, &Value::from("MACHINERY")));
        assert!(!sma.may_match_cmp(CmpOp::Eq, &Value::from("AUTOMOBILE")));
    }
}
