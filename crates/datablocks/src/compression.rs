//! Attribute compression schemes (Section 3.3).
//!
//! Data Blocks only use *light-weight, byte-addressable* schemes so that point
//! accesses stay O(1) and predicate evaluation can run directly on the compressed
//! code words with the integer SIMD kernels:
//!
//! * **single value** — all values of the attribute in the block are identical
//!   (including the all-NULL case); nothing but the value itself is stored.
//! * **ordered dictionary** — distinct values are stored sorted, rows store the
//!   dictionary code. Order preservation means range predicates translate to code
//!   ranges. Strings are always compressed this way.
//! * **truncation** — a Frame-of-Reference encoding with the block minimum as the
//!   reference: `code = value − min`, stored in the narrowest of 1-, 2-, 4- or
//!   8-byte unsigned integers.
//! * **uncompressed doubles** — floating-point attributes are never truncated; if
//!   they are not constant they are stored as-is.
//!
//! The scheme is chosen *per attribute, per block*, purely by resulting size.

use std::ops::Bound;
use std::sync::Arc;

use crate::bitmap::Bitmap;
use crate::column::Column;
use crate::sma::Sma;
use crate::unpack::Rows;
use crate::value::{DataType, Value};
use dbsimd::{IsaLevel, RangePredicate};

/// A vector of unsigned code words in the narrowest sufficient byte width.
#[derive(Debug, Clone, PartialEq)]
pub enum CodeVec {
    /// 1-byte codes.
    U8(Vec<u8>),
    /// 2-byte codes.
    U16(Vec<u16>),
    /// 4-byte codes.
    U32(Vec<u32>),
    /// 8-byte codes.
    U64(Vec<u64>),
}

impl CodeVec {
    /// Encode `codes` using the narrowest width that can represent `max_code`.
    pub fn encode(codes: &[u64], max_code: u64) -> CodeVec {
        if max_code <= u8::MAX as u64 {
            CodeVec::U8(codes.iter().map(|&c| c as u8).collect())
        } else if max_code <= u16::MAX as u64 {
            CodeVec::U16(codes.iter().map(|&c| c as u16).collect())
        } else if max_code <= u32::MAX as u64 {
            CodeVec::U32(codes.iter().map(|&c| c as u32).collect())
        } else {
            CodeVec::U64(codes.to_vec())
        }
    }

    /// Number of code words.
    pub fn len(&self) -> usize {
        match self {
            CodeVec::U8(v) => v.len(),
            CodeVec::U16(v) => v.len(),
            CodeVec::U32(v) => v.len(),
            CodeVec::U64(v) => v.len(),
        }
    }

    /// True if the vector is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Width of one code word in bytes (1, 2, 4 or 8).
    pub fn byte_width(&self) -> usize {
        match self {
            CodeVec::U8(_) => 1,
            CodeVec::U16(_) => 2,
            CodeVec::U32(_) => 4,
            CodeVec::U64(_) => 8,
        }
    }

    /// Total payload size in bytes.
    pub fn byte_size(&self) -> usize {
        self.len() * self.byte_width()
    }

    /// Read the code word at `row`: point access, one width dispatch per call. A
    /// loop over many rows goes through [`CodeVec::gather`], which dispatches once.
    #[inline]
    pub fn get(&self, row: usize) -> u64 {
        match self {
            CodeVec::U8(v) => v[row] as u64,
            CodeVec::U16(v) => v[row] as u64,
            CodeVec::U32(v) => v[row] as u64,
            CodeVec::U64(v) => v[row],
        }
    }

    /// Append `f(code)` for the code word at each of `rows` to `dst`, in order:
    /// one width dispatch, then one loop over the typed codes (see [`Rows`]).
    #[inline]
    pub fn gather<U>(&self, rows: Rows<'_>, dst: &mut Vec<U>, f: impl Fn(u64) -> U) {
        match self {
            CodeVec::U8(v) => rows.map_into(v, dst, |&c| f(c as u64)),
            CodeVec::U16(v) => rows.map_into(v, dst, |&c| f(c as u64)),
            CodeVec::U32(v) => rows.map_into(v, dst, |&c| f(c as u64)),
            CodeVec::U64(v) => rows.map_into(v, dst, |&c| f(c)),
        }
    }

    /// Find matches of the inclusive code range `[lo, hi]` within the position window
    /// `[from, to)`, appending *block-relative* positions to `out`.
    pub fn find_matches(
        &self,
        isa: IsaLevel,
        lo: u64,
        hi: u64,
        from: usize,
        to: usize,
        out: &mut Vec<u32>,
    ) -> usize {
        debug_assert!(from <= to && to <= self.len());
        match self {
            CodeVec::U8(v) => {
                let pred = clamp_pred::<u8>(lo, hi);
                dbsimd::find_matches(isa, &v[from..to], &pred, from as u32, out)
            }
            CodeVec::U16(v) => {
                let pred = clamp_pred::<u16>(lo, hi);
                dbsimd::find_matches(isa, &v[from..to], &pred, from as u32, out)
            }
            CodeVec::U32(v) => {
                let pred = clamp_pred::<u32>(lo, hi);
                dbsimd::find_matches(isa, &v[from..to], &pred, from as u32, out)
            }
            CodeVec::U64(v) => {
                let pred = RangePredicate::between(lo, hi);
                dbsimd::find_matches(isa, &v[from..to], &pred, from as u32, out)
            }
        }
    }

    /// Reduce an existing match vector of block-relative positions by the inclusive
    /// code range `[lo, hi]`.
    pub fn reduce_matches(&self, isa: IsaLevel, lo: u64, hi: u64, matches: &mut Vec<u32>) -> usize {
        match self {
            CodeVec::U8(v) => {
                let pred = clamp_pred::<u8>(lo, hi);
                dbsimd::reduce_matches(isa, v, &pred, 0, matches)
            }
            CodeVec::U16(v) => {
                let pred = clamp_pred::<u16>(lo, hi);
                dbsimd::reduce_matches(isa, v, &pred, 0, matches)
            }
            CodeVec::U32(v) => {
                let pred = clamp_pred::<u32>(lo, hi);
                dbsimd::reduce_matches(isa, v, &pred, 0, matches)
            }
            CodeVec::U64(v) => {
                let pred = RangePredicate::between(lo, hi);
                dbsimd::reduce_matches(isa, v, &pred, 0, matches)
            }
        }
    }
}

/// Clamp a `u64` inclusive code range to the narrower code-word domain `T`.
fn clamp_pred<T>(lo: u64, hi: u64) -> RangePredicate<T>
where
    T: dbsimd::ScanWord + TryFrom<u64>,
{
    let t_max = T::MAX_VALUE.as_u64();
    if lo > t_max {
        return RangePredicate::empty();
    }
    let lo_t = T::try_from(lo).unwrap_or(T::MAX_VALUE);
    let hi_t = T::try_from(hi.min(t_max)).unwrap_or(T::MAX_VALUE);
    RangePredicate::between(lo_t, hi_t)
}

/// Identifier of the compression scheme chosen for an attribute (part of a block's
/// "storage layout combination" — the thing that makes JIT code paths explode).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SchemeKind {
    /// All values identical.
    SingleValue,
    /// Frame-of-Reference truncation to `n`-byte codes.
    Truncated(u8),
    /// Ordered integer dictionary with `n`-byte codes.
    DictInt(u8),
    /// Ordered string dictionary with `n`-byte codes.
    DictStr(u8),
    /// Uncompressed 8-byte floating point.
    Double,
}

/// The compressed representation of one attribute in one Data Block.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnCompression {
    /// Every row holds the same value (possibly NULL).
    SingleValue(Value),
    /// Frame-of-Reference truncation: `value = min + code`.
    Truncated {
        /// The reference (block minimum over non-NULL values).
        min: i64,
        /// The per-row codes.
        codes: CodeVec,
    },
    /// Ordered dictionary over integers: `value = dict[code]`.
    DictInt {
        /// Sorted distinct values.
        dict: Vec<i64>,
        /// The per-row codes.
        codes: CodeVec,
    },
    /// Ordered dictionary over strings: `value = dict[code]`.
    DictStr {
        /// Sorted distinct values, shared by `Arc` with every column unpacked from
        /// this block in coded form ([`crate::ColumnData::Dict`]).
        dict: Arc<[String]>,
        /// The per-row codes.
        codes: CodeVec,
    },
    /// Uncompressed 8-byte floating point values.
    Double(Vec<f64>),
}

impl ColumnCompression {
    /// Compress one column, choosing the scheme with the smallest resulting size.
    /// The one pass over its values that chooses the scheme also yields the
    /// attribute's [`Sma`].
    ///
    /// NULL rows receive code 0; the block-level validity bitmap marks them. It is
    /// returned third: the column's own when some but not all rows are NULL, none
    /// otherwise (an all-NULL attribute is the single value NULL).
    pub fn compress(column: &Column) -> (ColumnCompression, Sma, Option<Bitmap>) {
        let n = column.len();
        let null_count = column.null_count();
        if null_count == n {
            return (
                ColumnCompression::SingleValue(Value::Null),
                Sma::AllNull,
                None,
            );
        }
        let (compression, sma) = match column.data_type() {
            DataType::Int => Self::compress_int(column, n, null_count),
            DataType::Str => Self::compress_str(column, n, null_count),
            DataType::Double => Self::compress_double(column, n, null_count),
        };
        let validity = column.validity.clone().filter(|_| null_count > 0);
        (compression, sma, validity)
    }

    fn compress_int(column: &Column, n: usize, null_count: usize) -> (ColumnCompression, Sma) {
        let data = column.data.as_int().expect("int column");
        let mut distinct: Vec<i64> = Vec::with_capacity(n);
        let mut min = i64::MAX;
        let mut max = i64::MIN;
        for (row, &v) in data.iter().enumerate().take(n) {
            if column.is_null(row) {
                continue;
            }
            min = min.min(v);
            max = max.max(v);
            distinct.push(v);
        }
        distinct.sort_unstable();
        distinct.dedup();
        let sma = Sma::Int { min, max };

        if distinct.len() == 1 && null_count == 0 {
            return (ColumnCompression::SingleValue(Value::Int(distinct[0])), sma);
        }

        // Candidate 1: truncation (codes relative to min).
        let range = (max as i128 - min as i128) as u64;
        let trunc_width = width_for(range);
        let trunc_size = n * trunc_width;

        // Candidate 2: ordered dictionary (codes index sorted distinct values).
        let dict_width = width_for(distinct.len().saturating_sub(1) as u64);
        let dict_size = n * dict_width + distinct.len() * 8;

        let compression = if dict_size < trunc_size {
            let codes: Vec<u64> = (0..n)
                .map(|row| {
                    if column.is_null(row) {
                        0
                    } else {
                        distinct.binary_search(&data[row]).expect("value in dict") as u64
                    }
                })
                .collect();
            let codes = CodeVec::encode(&codes, distinct.len().saturating_sub(1) as u64);
            ColumnCompression::DictInt {
                dict: distinct,
                codes,
            }
        } else {
            let codes: Vec<u64> = (0..n)
                .map(|row| {
                    if column.is_null(row) {
                        0
                    } else {
                        data[row].wrapping_sub(min) as u64
                    }
                })
                .collect();
            let codes = CodeVec::encode(&codes, range);
            ColumnCompression::Truncated { min, codes }
        };
        (compression, sma)
    }

    fn compress_str(column: &Column, n: usize, null_count: usize) -> (ColumnCompression, Sma) {
        // Plain or coded alike: a column of any form can be frozen.
        let data = column.data.strings().expect("string column");
        let mut distinct: Vec<&str> = (0..n)
            .filter(|&row| !column.is_null(row))
            .map(|row| data.get(row))
            .collect();
        distinct.sort_unstable();
        distinct.dedup();
        // The dictionary is sorted: its ends are the SMA.
        let sma = Sma::Str {
            min: distinct[0].to_string(),
            max: distinct[distinct.len() - 1].to_string(),
        };

        if distinct.len() == 1 && null_count == 0 {
            return (
                ColumnCompression::SingleValue(Value::Str(distinct[0].to_string())),
                sma,
            );
        }

        let codes: Vec<u64> = (0..n)
            .map(|row| {
                if column.is_null(row) {
                    0
                } else {
                    distinct
                        .binary_search(&data.get(row))
                        .expect("value in dict") as u64
                }
            })
            .collect();
        let codes = CodeVec::encode(&codes, distinct.len().saturating_sub(1) as u64);
        let dict = distinct.into_iter().map(String::from).collect();
        (ColumnCompression::DictStr { dict, codes }, sma)
    }

    fn compress_double(column: &Column, n: usize, null_count: usize) -> (ColumnCompression, Sma) {
        let data = column.data.as_double().expect("double column");
        let first = (0..n)
            .find(|&row| !column.is_null(row))
            .map(|row| data[row])
            .expect("non-null value");
        // `f64::min`/`max` skip NaN, so an all-NaN attribute keeps `[+inf, -inf]`;
        // between -0.0 and 0.0 either may come back. The frame tests pin both.
        let (mut min, mut max) = (f64::INFINITY, f64::NEG_INFINITY);
        let mut constant = true;
        for (row, &v) in data.iter().enumerate() {
            if column.is_null(row) {
                continue;
            }
            min = min.min(v);
            max = max.max(v);
            constant &= v.to_bits() == first.to_bits();
        }
        let sma = Sma::Double { min, max };
        if constant && null_count == 0 {
            return (ColumnCompression::SingleValue(Value::Double(first)), sma);
        }
        (ColumnCompression::Double(data.to_vec()), sma)
    }

    /// The scheme identifier (used for layout-combination accounting).
    pub fn kind(&self) -> SchemeKind {
        match self {
            ColumnCompression::SingleValue(_) => SchemeKind::SingleValue,
            ColumnCompression::Truncated { codes, .. } => {
                SchemeKind::Truncated(codes.byte_width() as u8)
            }
            ColumnCompression::DictInt { codes, .. } => {
                SchemeKind::DictInt(codes.byte_width() as u8)
            }
            ColumnCompression::DictStr { codes, .. } => {
                SchemeKind::DictStr(codes.byte_width() as u8)
            }
            ColumnCompression::Double(_) => SchemeKind::Double,
        }
    }

    /// Decompress the value at `row` (NULL handling happens at the block level).
    pub fn get(&self, row: usize) -> Value {
        match self {
            ColumnCompression::SingleValue(v) => v.clone(),
            ColumnCompression::Truncated { min, codes } => {
                Value::Int(min.wrapping_add(codes.get(row) as i64))
            }
            ColumnCompression::DictInt { dict, codes } => Value::Int(dict[codes.get(row) as usize]),
            ColumnCompression::DictStr { dict, codes } => {
                Value::Str(dict[codes.get(row) as usize].clone())
            }
            ColumnCompression::Double(v) => Value::Double(v[row]),
        }
    }

    /// Translate a value-space inclusive range `[lo, hi]` into code space.
    ///
    /// Returns `None` when no code can possibly satisfy the range (the block — or at
    /// least this attribute — rules the restriction out), mirroring the dictionary
    /// binary-search early-out of Section 3.4.
    pub fn translate_int_range(&self, lo: i64, hi: i64) -> Option<(u64, u64)> {
        if lo > hi {
            return None;
        }
        match self {
            ColumnCompression::Truncated { min, codes } => {
                // A code is `value − min` modulo 2^64: for a value at or above
                // `min` that is exact as a `u64`, even where the difference
                // exceeds `i64::MAX` (a domain spanning most of `i64`).
                let lo_code = if lo <= *min {
                    0
                } else {
                    lo.wrapping_sub(*min) as u64
                };
                if hi < *min {
                    return None;
                }
                let hi_code = hi.wrapping_sub(*min) as u64;
                // Clamp to the code width; anything above the width's max cannot occur.
                let width_max = match codes.byte_width() {
                    1 => u8::MAX as u64,
                    2 => u16::MAX as u64,
                    4 => u32::MAX as u64,
                    _ => u64::MAX,
                };
                if lo_code > width_max {
                    return None;
                }
                Some((lo_code, hi_code.min(width_max)))
            }
            ColumnCompression::DictInt { dict, .. } => {
                let lo_code = dict.partition_point(|v| *v < lo) as u64;
                let hi_code = dict.partition_point(|v| *v <= hi) as u64;
                if lo_code >= hi_code {
                    None
                } else {
                    Some((lo_code, hi_code - 1))
                }
            }
            _ => None,
        }
    }

    /// Translate value-space bounds ([`crate::scan::Restriction::bounds`])
    /// into dictionary-code space for a string attribute. Returns `None` when no
    /// code can satisfy them — no dictionary entry lies within, or a bound is
    /// not a string (strings compare with no other type).
    pub fn translate_str_bounds(&self, lo: Bound<&Value>, hi: Bound<&Value>) -> Option<(u64, u64)> {
        let ColumnCompression::DictStr { dict, .. } = self else {
            return None;
        };
        // The first code at or above `s`, and the first above it.
        let at = |s: &str| dict.partition_point(|d| d.as_str() < s);
        let above = |s: &str| dict.partition_point(|d| d.as_str() <= s);
        let lo_code = match lo {
            Bound::Unbounded => 0,
            Bound::Included(v) => at(v.as_str()?),
            Bound::Excluded(v) => above(v.as_str()?),
        };
        let hi_end = match hi {
            Bound::Unbounded => dict.len(),
            Bound::Included(v) => above(v.as_str()?),
            Bound::Excluded(v) => at(v.as_str()?),
        };
        (lo_code < hi_end).then(|| (lo_code as u64, hi_end as u64 - 1))
    }

    /// The per-row code vector (if the scheme stores one).
    pub fn codes(&self) -> Option<&CodeVec> {
        match self {
            ColumnCompression::Truncated { codes, .. } => Some(codes),
            ColumnCompression::DictInt { codes, .. } => Some(codes),
            ColumnCompression::DictStr { codes, .. } => Some(codes),
            _ => None,
        }
    }

    /// In-memory size in bytes of the compressed representation (codes + dictionary +
    /// string payload), used by the Table 1 / Figure 10 size accounting.
    pub fn byte_size(&self) -> usize {
        match self {
            ColumnCompression::SingleValue(v) => match v {
                Value::Str(s) => 8 + s.len(),
                _ => 8,
            },
            ColumnCompression::Truncated { codes, .. } => 8 + codes.byte_size(),
            ColumnCompression::DictInt { dict, codes } => dict.len() * 8 + codes.byte_size(),
            ColumnCompression::DictStr { dict, codes } => {
                // dictionary: offsets (4 B each) + string bytes
                dict.iter().map(|s| s.len() + 4).sum::<usize>() + codes.byte_size()
            }
            ColumnCompression::Double(v) => v.len() * 8,
        }
    }
}

/// Narrowest byte width (1, 2, 4, 8) that can hold `max_code`.
pub fn width_for(max_code: u64) -> usize {
    if max_code <= u8::MAX as u64 {
        1
    } else if max_code <= u16::MAX as u64 {
        2
    } else if max_code <= u32::MAX as u64 {
        4
    } else {
        8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::ColumnData;

    fn int_col(values: &[i64]) -> Column {
        Column::from_data(ColumnData::Int(values.to_vec()))
    }

    fn str_col(values: &[&str]) -> Column {
        Column::from_data(ColumnData::Str(
            values.iter().map(|s| s.to_string()).collect(),
        ))
    }

    #[test]
    fn codevec_width_selection() {
        assert_eq!(CodeVec::encode(&[0, 255], 255).byte_width(), 1);
        assert_eq!(CodeVec::encode(&[0, 256], 256).byte_width(), 2);
        assert_eq!(CodeVec::encode(&[0, 70_000], 70_000).byte_width(), 4);
        assert_eq!(CodeVec::encode(&[0, u64::MAX], u64::MAX).byte_width(), 8);
    }

    #[test]
    fn codevec_roundtrip_get() {
        let cv = CodeVec::encode(&[1, 300, 65_536], 65_536);
        assert_eq!(cv.byte_width(), 4);
        assert_eq!(cv.get(0), 1);
        assert_eq!(cv.get(1), 300);
        assert_eq!(cv.get(2), 65_536);
        assert_eq!(cv.byte_size(), 12);
    }

    #[test]
    fn codevec_find_and_reduce() {
        let cv = CodeVec::encode(&(0..1000u64).collect::<Vec<_>>(), 999);
        let mut out = Vec::new();
        cv.find_matches(IsaLevel::detect(), 100, 199, 0, 1000, &mut out);
        assert_eq!(out.len(), 100);
        assert_eq!(out[0], 100);
        cv.reduce_matches(IsaLevel::detect(), 150, u64::MAX, &mut out);
        assert_eq!(out.len(), 50);
        // windowed find
        let mut windowed = Vec::new();
        cv.find_matches(IsaLevel::detect(), 100, 199, 150, 1000, &mut windowed);
        assert_eq!(windowed.len(), 50);
        assert_eq!(windowed[0], 150);
    }

    #[test]
    fn clamp_pred_over_width() {
        // A range entirely above the u8 domain matches nothing.
        let p: RangePredicate<u8> = clamp_pred(300, 400);
        assert!(p.is_empty());
        // A range straddling the max clamps.
        let p: RangePredicate<u8> = clamp_pred(200, 400);
        assert_eq!(p, RangePredicate::between(200u8, 255));
    }

    #[test]
    fn compute_int_min_max() {
        let (_, sma, _) = ColumnCompression::compress(&int_col(&[5, -3, 12, 7]));
        assert_eq!(sma, Sma::Int { min: -3, max: 12 });
    }

    #[test]
    fn compute_ignores_nulls() {
        let mut col = Column::new(DataType::Int);
        col.push(Value::Null);
        col.push(Value::Int(10));
        col.push(Value::Null);
        col.push(Value::Int(4));
        let (_, sma, _) = ColumnCompression::compress(&col);
        assert_eq!(sma, Sma::Int { min: 4, max: 10 });
    }

    #[test]
    fn compute_all_null() {
        let mut col = Column::new(DataType::Int);
        col.push(Value::Null);
        col.push(Value::Null);
        let (_, sma, _) = ColumnCompression::compress(&col);
        assert_eq!(sma, Sma::AllNull);
        let eq_zero = crate::scan::Restriction::cmp(0, dbsimd::CmpOp::Eq, Value::Int(0));
        assert!(!sma.may_match(&eq_zero));
    }

    #[test]
    fn compute_string_min_max() {
        let (_, sma, _) = ColumnCompression::compress(&str_col(&["pear", "apple", "zebra"]));
        assert_eq!(
            sma,
            Sma::Str {
                min: "apple".into(),
                max: "zebra".into()
            }
        );
    }

    #[test]
    fn compute_double_min_max() {
        let col = Column::from_data(ColumnData::Double(vec![2.5, -1.0, 7.25]));
        let (_, sma, _) = ColumnCompression::compress(&col);
        assert_eq!(
            sma,
            Sma::Double {
                min: -1.0,
                max: 7.25
            }
        );
    }

    #[test]
    fn single_value_detection() {
        let (c, ..) = ColumnCompression::compress(&int_col(&[7, 7, 7, 7]));
        assert_eq!(c, ColumnCompression::SingleValue(Value::Int(7)));
        assert_eq!(c.kind(), SchemeKind::SingleValue);
        assert_eq!(c.get(3), Value::Int(7));
    }

    #[test]
    fn all_null_is_single_value_null() {
        let mut col = Column::new(DataType::Int);
        col.push(Value::Null);
        col.push(Value::Null);
        let (c, ..) = ColumnCompression::compress(&col);
        assert_eq!(c, ColumnCompression::SingleValue(Value::Null));
    }

    #[test]
    fn truncation_chosen_for_dense_domains() {
        // 0..=200 dense: truncation to 1 byte beats a 201-entry dictionary.
        let values: Vec<i64> = (0..4096).map(|i| 1000 + (i % 200)).collect();
        let (c, ..) = ColumnCompression::compress(&int_col(&values));
        match &c {
            ColumnCompression::Truncated { min, codes } => {
                assert_eq!(*min, 1000);
                assert_eq!(codes.byte_width(), 1);
            }
            other => panic!("expected truncation, got {other:?}"),
        }
        assert_eq!(c.get(1), Value::Int(1001));
    }

    #[test]
    fn dictionary_chosen_for_sparse_domains() {
        // Two distinct values far apart: truncation would need 4-byte codes, the
        // dictionary needs 1-byte codes plus a 16-byte dictionary.
        let values: Vec<i64> = (0..1024)
            .map(|i| if i % 2 == 0 { 5 } else { 5_000_000 })
            .collect();
        let (c, ..) = ColumnCompression::compress(&int_col(&values));
        match &c {
            ColumnCompression::DictInt { dict, codes } => {
                assert_eq!(dict.as_slice(), &[5, 5_000_000]);
                assert_eq!(codes.byte_width(), 1);
            }
            other => panic!("expected dictionary, got {other:?}"),
        }
        assert_eq!(c.get(1), Value::Int(5_000_000));
        assert_eq!(c.get(2), Value::Int(5));
    }

    #[test]
    fn string_dictionary_is_ordered() {
        let (c, ..) = ColumnCompression::compress(&str_col(&["pear", "apple", "pear", "fig"]));
        match &c {
            ColumnCompression::DictStr { dict, .. } => {
                assert_eq!(&dict[..], ["apple", "fig", "pear"]);
            }
            other => panic!("expected string dictionary, got {other:?}"),
        }
        assert_eq!(c.get(0), Value::Str("pear".into()));
        assert_eq!(c.get(3), Value::from("fig"));
    }

    #[test]
    fn constant_string_is_single_value() {
        let (c, ..) = ColumnCompression::compress(&str_col(&["x", "x", "x"]));
        assert_eq!(c, ColumnCompression::SingleValue(Value::Str("x".into())));
    }

    #[test]
    fn double_columns_stay_uncompressed_unless_constant() {
        let (c, ..) = ColumnCompression::compress(&Column::from_data(ColumnData::Double(vec![
            1.0, 2.0, 3.0,
        ])));
        assert_eq!(c.kind(), SchemeKind::Double);
        assert_eq!(c.get(2), Value::Double(3.0));
        let (constant, ..) =
            ColumnCompression::compress(&Column::from_data(ColumnData::Double(vec![0.5, 0.5])));
        assert_eq!(constant, ColumnCompression::SingleValue(Value::Double(0.5)));
    }

    #[test]
    fn translate_int_range_truncated() {
        let values: Vec<i64> = (100..300).collect();
        let (c, ..) = ColumnCompression::compress(&int_col(&values));
        assert_eq!(c.translate_int_range(150, 160), Some((50, 60)));
        // below the min clamps to code 0
        assert_eq!(c.translate_int_range(0, 120), Some((0, 20)));
        // entirely below min
        assert_eq!(c.translate_int_range(0, 99), None);
        // lo > hi
        assert_eq!(c.translate_int_range(10, 5), None);
    }

    #[test]
    fn translate_int_range_dict() {
        let values: Vec<i64> = (0..512)
            .map(|i| if i % 2 == 0 { 10 } else { 1_000_000 })
            .collect();
        let (c, ..) = ColumnCompression::compress(&int_col(&values));
        assert_eq!(c.translate_int_range(10, 10), Some((0, 0)));
        assert_eq!(c.translate_int_range(11, 999_999), None);
        assert_eq!(c.translate_int_range(10, 2_000_000), Some((0, 1)));
    }

    #[test]
    fn translate_str_predicates() {
        let (c, ..) =
            ColumnCompression::compress(&str_col(&["BRASS", "COPPER", "NICKEL", "STEEL", "TIN"]));
        let range = |lo: &str, hi: &str| {
            let (lo, hi) = (Value::from(lo), Value::from(hi));
            c.translate_str_bounds(Bound::Included(&lo), Bound::Included(&hi))
        };
        assert_eq!(range("NICKEL", "NICKEL"), Some((2, 2)));
        assert_eq!(range("GOLD", "GOLD"), None);
        assert_eq!(range("COPPER", "STEEL"), Some((1, 3)));
        assert_eq!(range("U", "Z"), None);
        assert_eq!(range("STEEL", "COPPER"), None);
        let nickel = Value::from("NICKEL");
        let above = c.translate_str_bounds(Bound::Excluded(&nickel), Bound::Unbounded);
        assert_eq!(above, Some((3, 4)));
        let below = c.translate_str_bounds(Bound::Unbounded, Bound::Excluded(&nickel));
        assert_eq!(below, Some((0, 1)));
        let number = Value::Int(1);
        let any = c.translate_str_bounds(Bound::Included(&number), Bound::Unbounded);
        assert_eq!(any, None);
    }

    #[test]
    fn nulls_get_code_zero_and_are_not_in_dict() {
        let mut col = Column::new(DataType::Int);
        col.push(Value::Int(500));
        col.push(Value::Null);
        col.push(Value::Int(900));
        let (c, ..) = ColumnCompression::compress(&col);
        // With a NULL present, single-value is not applicable even though only two
        // distinct non-null values exist.
        assert!(c.codes().is_some());
        assert_eq!(c.get(0), Value::Int(500));
        assert_eq!(c.get(2), Value::Int(900));
    }

    #[test]
    fn byte_size_is_smaller_than_uncompressed() {
        let values: Vec<i64> = (0..65_536).map(|i| i % 100).collect();
        let col = int_col(&values);
        let (c, ..) = ColumnCompression::compress(&col);
        assert!(c.byte_size() < col.byte_size() / 4);
    }
}
