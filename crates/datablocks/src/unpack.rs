//! Unpacking matches: materialising the attribute values of the matching record
//! positions into uncompressed output vectors that are pushed to the consuming
//! operator tuple at a time (Section 3.4 / Figure 6).
//!
//! Because Data Blocks are byte-addressable, unpacking a *sparse* set of positions is
//! cheap — this is the property Section 5.4 contrasts against bit-packed storage,
//! where sparse decompression dominates the scan cost.
//!
//! An attribute is unpacked by one loop over its typed payload: the scheme and the
//! code width are matched once per call ([`CodeVec::gather`]), never per value. The
//! loop takes one of two shapes ([`Rows`]):
//!
//! * **run** — the positions are `first, first + 1, …, first + n − 1`, as when a
//!   window has no restriction or every row meets it: the loop maps the slice
//!   `[first, first + n)`, which the compiler vectorises;
//! * **gather** — any other positions: the loop maps the value at each one.
//!
//! The run test is exact for any input, not a guess from the first and last
//! position (`[1, 1, 3]` spans three rows but is no run): it compares every
//! position with `first` plus its index. Both shapes produce the same output.

use std::sync::Arc;

use crate::bitmap::Bitmap;
use crate::block::{BlockColumn, DataBlock};
use crate::column::{Column, ColumnData};
use crate::compression::{CodeVec, ColumnCompression};
use crate::value::{DataType, Value};

/// Match positions in the shape an unpack loop takes them: one contiguous run of
/// rows, or a list to gather from (see the module docs).
#[derive(Debug, Clone, Copy)]
pub struct Rows<'a> {
    positions: &'a [u32],
    run: bool,
}

impl<'a> Rows<'a> {
    /// The positions `positions`, in order; classified as a run or not, exactly.
    pub fn new(positions: &'a [u32]) -> Rows<'a> {
        Rows {
            positions,
            run: is_run(positions),
        }
    }

    /// Append `f(&src[p])` for each position `p` to `dst`, in order: a map over a
    /// slice for a run, a gather otherwise.
    #[inline]
    pub fn map_into<T, U>(self, src: &[T], dst: &mut Vec<U>, mut f: impl FnMut(&T) -> U) {
        match (self.run, self.positions.first()) {
            (true, Some(&first)) => {
                let first = first as usize;
                dst.extend(src[first..first + self.positions.len()].iter().map(f));
            }
            _ => dst.extend(self.positions.iter().map(|&p| f(&src[p as usize]))),
        }
    }

    /// The bits of `src` at the positions, in order: a copy of 64 bits at a time
    /// for a run, a gather otherwise.
    fn bits_of(self, src: &Bitmap) -> Bitmap {
        match (self.run, self.positions.first()) {
            (true, Some(&first)) => {
                let first = first as usize;
                let mut bits = Bitmap::default();
                bits.extend_from(src, first..first + self.positions.len());
                bits
            }
            _ => src.gather(self.positions),
        }
    }
}

/// Positions checked per step of [`is_run`]: a step folds its mismatches without
/// branching, so the compiler vectorises it; a list that is no run stops at the
/// first step that shows it.
const RUN_STEP: usize = 64;

/// Is every position `positions[0] + i`, its index `i` counted from 0? Exact for
/// any input; an empty list is no run.
fn is_run(positions: &[u32]) -> bool {
    let Some(&first) = positions.first() else {
        return false;
    };
    // The last position of a run, `first + len − 1`, must be a `u32`; then
    // `first + i` never wraps below.
    let last = u32::try_from(positions.len() - 1)
        .ok()
        .and_then(|span| first.checked_add(span));
    last.is_some()
        && positions.chunks(RUN_STEP).enumerate().all(|(step, chunk)| {
            let base = first.wrapping_add((step * RUN_STEP) as u32);
            let miss = chunk
                .iter()
                .enumerate()
                .fold(0, |miss, (i, &p)| miss | (p ^ base.wrapping_add(i as u32)));
            miss == 0
        })
}

/// Append the values of attribute `col` at the given positions to `out`.
///
/// `out` must have the attribute's logical type; NULL rows append `Value::Null`
/// (tracked in the output column's validity bitmap). A dictionary-compressed string
/// attribute is appended in coded form ([`ColumnData::Dict`], sharing the block's
/// dictionary), which an empty `out` takes as it is; see [`crate::column`] for what
/// appending it to a non-empty one does.
pub fn unpack_column(block: &DataBlock, col: usize, positions: &[u32], out: &mut Column) {
    unpack_rows(block.column(col), Rows::new(positions), out);
}

/// Unpack several attributes at once, appending to one output column per requested
/// attribute. This is the operation a vectorized Data Block scan performs per match
/// vector before handing tuples to the JIT-compiled pipeline.
pub fn unpack_columns(block: &DataBlock, cols: &[usize], positions: &[u32], out: &mut [Column]) {
    assert_eq!(
        cols.len(),
        out.len(),
        "one output column per requested attribute"
    );
    let rows = Rows::new(positions);
    for (slot, &col) in cols.iter().enumerate() {
        unpack_rows(block.column(col), rows, &mut out[slot]);
    }
}

/// [`unpack_column`] for positions already classified.
fn unpack_rows(column: &BlockColumn, rows: Rows<'_>, out: &mut Column) {
    if rows.positions.is_empty() {
        return;
    }
    let start = out.len();
    match (&column.compression, &mut out.data) {
        (ColumnCompression::Truncated { min, codes }, ColumnData::Int(dst)) => {
            codes.gather(rows, dst, |c| min.wrapping_add(c as i64));
        }
        (ColumnCompression::DictInt { dict, codes }, ColumnData::Int(dst)) => {
            codes.gather(rows, dst, |c| dict[c as usize]);
        }
        (ColumnCompression::Double(values), ColumnData::Double(dst)) => {
            rows.map_into(values, dst, |&v| v);
        }
        // Strings stay coded: the rows get the block's codes and share its
        // dictionary, so no string is copied (nullable or not).
        (ColumnCompression::DictStr { dict, codes }, _) => {
            unpack_coded(dict, codes, column.validity.as_ref(), rows, out);
            return;
        }
        (ColumnCompression::SingleValue(value), data) => {
            if !fill(data, value, rows.positions.len()) {
                push_each(column, rows, out);
                return;
            }
        }
        _ => {
            push_each(column, rows, out);
            return;
        }
    }
    append_validity(out, start, column.validity.as_ref(), rows);
}

/// Append the rows one [`Value`] at a time: the path for an output column of
/// another type than the attribute's (an integer widened into a double column).
fn push_each(column: &BlockColumn, rows: Rows<'_>, out: &mut Column) {
    for &pos in rows.positions {
        out.push(column.get(pos as usize));
    }
}

/// Append the rows of a dictionary-compressed string attribute in coded form.
fn unpack_coded(
    dict: &Arc<[String]>,
    codes: &CodeVec,
    valid: Option<&Bitmap>,
    rows: Rows<'_>,
    out: &mut Column,
) {
    let mut picked = Vec::with_capacity(rows.positions.len());
    codes.gather(rows, &mut picked, |c| c as u32);
    out.append(Column {
        data: ColumnData::Dict {
            dict: Arc::clone(dict),
            codes: picked,
        },
        validity: valid
            .map(|valid| rows.bits_of(valid))
            .filter(|valid| valid.count_ones() < valid.len()),
    });
}

/// Append `n` copies of `value` to `data`; `false`, appending nothing, when the
/// value does not have the column's type.
fn fill(data: &mut ColumnData, value: &Value, n: usize) -> bool {
    match (data, value) {
        (ColumnData::Int(dst), Value::Int(v)) => dst.resize(dst.len() + n, *v),
        (ColumnData::Double(dst), Value::Double(v)) => dst.resize(dst.len() + n, *v),
        (data, Value::Str(v)) if data.data_type() == DataType::Str => {
            let dst = data.plain_mut();
            dst.resize(dst.len() + n, v.clone());
        }
        _ => return false,
    }
    true
}

/// Bring `out`'s validity up to date after a fast path appended the payload of
/// `rows` from `start` on: the attribute's validity `valid` at `rows`, with the
/// type's default written under each NULL. A bitmap appears only once a NULL does.
/// A hot chunk's gather shares it with the unpack loops.
pub fn append_validity(out: &mut Column, start: usize, valid: Option<&Bitmap>, rows: Rows<'_>) {
    let Some(valid) = valid else {
        if let Some(validity) = &mut out.validity {
            validity.fill_to(start + rows.positions.len(), true);
        }
        return;
    };
    let bits = rows.bits_of(valid);
    if bits.count_ones() < bits.len() {
        let nulls = !&bits;
        match &mut out.data {
            ColumnData::Int(dst) => clear_nulls(&mut dst[start..], &nulls),
            ColumnData::Double(dst) => clear_nulls(&mut dst[start..], &nulls),
            ColumnData::Str(dst) => clear_nulls(&mut dst[start..], &nulls),
            ColumnData::Dict { .. } => unreachable!("coded rows take their own path"),
        }
        out.validity
            .get_or_insert_with(|| Bitmap::filled(start, true));
    }
    if let Some(validity) = &mut out.validity {
        validity.extend_from(&bits, 0..bits.len());
    }
}

/// Overwrite each value at a set bit of `nulls` with the type's default, the
/// payload [`ColumnData::push_default`] gives a NULL row.
fn clear_nulls<T: Default>(values: &mut [T], nulls: &Bitmap) {
    nulls.ones().for_each(|row| values[row] = T::default());
}

/// Unpack a single record (point access) across the requested attributes.
pub fn unpack_point(block: &DataBlock, row: usize, cols: &[usize]) -> Vec<Value> {
    cols.iter().map(|&col| block.get(row, col)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{double_column, freeze, int_column, str_column};
    use crate::column::Column;
    use crate::compression::SchemeKind;

    fn block() -> DataBlock {
        let a = int_column((0..1000).map(|i| i * 2).collect());
        let b = str_column((0..1000).map(|i| format!("g{}", i % 7)).collect());
        let c = double_column((0..1000).map(|i| i as f64 / 4.0).collect());
        freeze(&[a, b, c])
    }

    const ROWS: usize = 1000;

    /// One attribute per scheme the unpack loops special-case, each built so that
    /// `freeze` picks that scheme, with NULLs at every fifth row if `nullable`.
    fn scheme_columns(nullable: bool) -> Vec<(SchemeKind, Column)> {
        let null_at = |i: usize| nullable && i % 5 == 2;
        let column = |ty: DataType, value: &dyn Fn(usize) -> Value| {
            let mut col = Column::new(ty);
            (0..ROWS).for_each(|i| col.push(if null_at(i) { Value::Null } else { value(i) }));
            col
        };
        let int =
            |value: &dyn Fn(i64) -> i64| column(DataType::Int, &|i| Value::Int(value(i as i64)));
        let mut columns = vec![
            (SchemeKind::Truncated(1), int(&|i| i64::MAX - (i * 7) % 256)),
            (
                SchemeKind::Truncated(2),
                int(&|i| i64::MIN + (i * 61) % 60_000),
            ),
            (SchemeKind::Truncated(4), int(&|i| i64::MAX - i * 4_000_000)),
            (
                SchemeKind::Truncated(8),
                int(&|i| {
                    if i % 2 == 0 {
                        i64::MIN + i
                    } else {
                        i64::MAX - i
                    }
                }),
            ),
            (
                SchemeKind::DictInt(1),
                int(&|i| [0, 1 << 40, 1 << 50, -5][i as usize % 4]),
            ),
            (
                SchemeKind::DictStr(1),
                column(DataType::Str, &|i| Value::Str(format!("s{}", i % 9))),
            ),
            (
                SchemeKind::DictStr(2),
                column(DataType::Str, &|i| Value::Str(format!("t{i}"))),
            ),
            (
                SchemeKind::Double,
                column(DataType::Double, &|i| Value::Double(i as f64 * -0.25)),
            ),
        ];
        if nullable {
            // A constant attribute with NULLs is stored as a dictionary or a
            // double column; the one single value with NULLs is all NULL.
            for ty in [DataType::Int, DataType::Double, DataType::Str] {
                let mut col = Column::new(ty);
                (0..ROWS).for_each(|_| col.push(Value::Null));
                columns.push((SchemeKind::SingleValue, col));
            }
        } else {
            columns.push((SchemeKind::SingleValue, int(&|_| -3)));
            columns.push((
                SchemeKind::SingleValue,
                column(DataType::Double, &|_| Value::Double(2.5)),
            ));
            columns.push((
                SchemeKind::SingleValue,
                column(DataType::Str, &|_| Value::from("c")),
            ));
        }
        columns
    }

    fn position_sets() -> Vec<Vec<u32>> {
        let n = ROWS as u32;
        let mut gap: Vec<u32> = (0..200).collect();
        gap.remove(130); // a run but for one row, past the first check step
        vec![
            vec![],
            vec![7],
            (0..n).collect(),
            (100..300).collect(),
            (0..n).step_by(3).collect(),
            (n - 50..n).collect(),
            (1..n).step_by(2).collect(),
            vec![1, 1, 3],
            (0..10).rev().collect(),
            vec![n - 1, n - 2],
            gap,
        ]
    }

    fn start_columns(ty: DataType) -> Vec<Column> {
        let some = match ty {
            DataType::Int => Value::Int(42),
            DataType::Double => Value::Double(4.5),
            DataType::Str => Value::from("x"),
        };
        let mut non_empty = Column::new(ty);
        non_empty.push(some.clone());
        let mut with_bitmap = Column::new(ty);
        with_bitmap.push(Value::Null);
        with_bitmap.push(some);
        vec![Column::new(ty), non_empty, with_bitmap]
    }

    /// The payload as bit patterns, so that `-0.0` and `0.0` differ.
    fn double_bits(column: &Column) -> Option<Vec<u64>> {
        Some(
            column
                .data
                .as_double()?
                .iter()
                .map(|v| v.to_bits())
                .collect(),
        )
    }

    #[test]
    fn unpack_matches_a_per_row_push_for_every_scheme_and_shape() {
        let mut cases = 0;
        for nullable in [false, true] {
            for (kind, col) in scheme_columns(nullable) {
                let block = freeze(std::slice::from_ref(&col));
                assert_eq!(block.column(0).compression.kind(), kind, "{col:?}");
                let ty = col.data_type();
                // An integer attribute is also unpacked into a double column.
                let out_types: &[DataType] = match ty {
                    DataType::Int => &[DataType::Int, DataType::Double],
                    _ => &[ty],
                };
                for &out_ty in out_types {
                    for positions in position_sets() {
                        for start in start_columns(out_ty) {
                            let mut expected = start.clone();
                            for &pos in &positions {
                                expected.push(block.get(pos as usize, 0));
                            }
                            let mut got = start.clone();
                            unpack_column(&block, 0, &positions, &mut got);
                            let mut got_many = [start.clone()];
                            unpack_columns(&block, &[0], &positions, &mut got_many);
                            let case = format!("{kind:?} nullable={nullable} into {out_ty:?} at {positions:?} after {start:?}");
                            for got in [got, got_many.into_iter().next().unwrap()] {
                                if matches!(kind, SchemeKind::DictStr(_)) {
                                    // Coded rows keep the block's code under a NULL,
                                    // where a per-row push stores ""; compare values.
                                    assert_eq!(got.len(), expected.len(), "{case}");
                                    assert!(
                                        (0..got.len()).all(|r| got.get(r) == expected.get(r)),
                                        "{case}"
                                    );
                                    assert_eq!(got.validity, expected.validity, "{case}");
                                } else {
                                    assert_eq!(got, expected, "{case}");
                                    assert_eq!(double_bits(&got), double_bits(&expected), "{case}");
                                }
                            }
                            cases += 1;
                        }
                    }
                }
            }
        }
        assert!(cases > 500, "{cases} cases");
    }

    #[test]
    fn only_consecutive_positions_are_a_run() {
        let runs: [&[u32]; 4] = [&[0], &[5, 6, 7], &[u32::MAX], &[u32::MAX - 1, u32::MAX]];
        for positions in runs {
            assert!(is_run(positions), "{positions:?}");
        }
        let mut long: Vec<u32> = (10..300).collect();
        long[250] += 1;
        let others: [&[u32]; 6] = [&[], &[1, 1, 3], &[3, 2, 1], &[1, 3], &[u32::MAX, 0], &long];
        for positions in others {
            assert!(!is_run(positions), "{positions:?}");
        }
    }

    #[test]
    fn unpack_int_fast_path() {
        let block = block();
        let mut out = Column::new(DataType::Int);
        unpack_column(&block, 0, &[1, 5, 999], &mut out);
        assert_eq!(out.data.as_int().unwrap(), &[2, 10, 1998]);
    }

    #[test]
    fn unpack_str_and_double() {
        let block = block();
        let mut out = [Column::new(DataType::Str), Column::new(DataType::Double)];
        unpack_columns(&block, &[1, 2], &[0, 7, 13], &mut out);
        let ColumnCompression::DictStr { dict, .. } = &block.column(1).compression else {
            panic!("strings are dictionary-compressed");
        };
        match &out[0].data {
            ColumnData::Dict {
                dict: shared,
                codes,
            } => {
                assert!(
                    Arc::ptr_eq(shared, dict),
                    "the block's dictionary is shared"
                );
                assert_eq!(codes, &[0, 0, 6]);
            }
            other => panic!("expected the coded form, got {other:?}"),
        }
        assert_eq!(out[0].get(2), Value::Str("g6".into()));
        assert_eq!(out[1].data.as_double().unwrap(), &[0.0, 1.75, 3.25]);
    }

    #[test]
    fn unpack_nullable_strings_keeps_codes_and_nulls() {
        let mut col = Column::new(DataType::Str);
        for i in 0..20 {
            col.push(if i % 4 == 0 {
                Value::Null
            } else {
                Value::Str(format!("s{}", i % 3))
            });
        }
        let block = freeze(&[col.clone()]);
        let mut out = Column::new(DataType::Str);
        unpack_column(&block, 0, &[1, 4, 5, 8], &mut out);
        assert!(matches!(out.data, ColumnData::Dict { .. }));
        let expected: Vec<Value> = [1, 4, 5, 8].iter().map(|&r| col.get(r)).collect();
        assert_eq!((0..4).map(|r| out.get(r)).collect::<Vec<_>>(), expected);
        // rows without a NULL carry no bitmap; a second unpack extends the codes
        let mut valid = Column::new(DataType::Str);
        unpack_column(&block, 0, &[1, 2], &mut valid);
        assert!(valid.validity.is_none());
        unpack_column(&block, 0, &[3, 4], &mut valid);
        assert!(matches!(valid.data, ColumnData::Dict { .. }));
        assert_eq!(valid.null_count(), 1);
        assert_eq!(valid.get(2), col.get(3));
    }

    #[test]
    fn unpack_appends_to_existing_output() {
        let block = block();
        let mut out = Column::new(DataType::Int);
        unpack_column(&block, 0, &[1], &mut out);
        unpack_column(&block, 0, &[2], &mut out);
        assert_eq!(out.data.as_int().unwrap(), &[2, 4]);
    }

    #[test]
    fn unpack_nullable_column_preserves_nulls() {
        let mut col = Column::new(DataType::Int);
        for i in 0..100i64 {
            if i % 3 == 0 {
                col.push(Value::Null);
            } else {
                col.push(Value::Int(i));
            }
        }
        let block = freeze(&[col]);
        let mut out = Column::new(DataType::Int);
        unpack_column(&block, 0, &[0, 1, 2, 3, 4], &mut out);
        assert_eq!(out.get(0), Value::Null);
        assert_eq!(out.get(1), Value::Int(1));
        assert_eq!(out.get(3), Value::Null);
        assert_eq!(out.null_count(), 2);
    }

    #[test]
    fn unpack_single_value_column() {
        let block = freeze(&[int_column(vec![9; 50]), int_column((0..50).collect())]);
        let mut out = Column::new(DataType::Int);
        unpack_column(&block, 0, &[3, 4, 5], &mut out);
        assert_eq!(out.data.as_int().unwrap(), &[9, 9, 9]);
    }

    #[test]
    fn unpack_point_access() {
        let block = block();
        let row = unpack_point(&block, 10, &[0, 1, 2]);
        assert_eq!(
            row,
            vec![Value::Int(20), Value::Str("g3".into()), Value::Double(2.5)]
        );
    }

    #[test]
    fn mixed_validity_output_column_stays_consistent() {
        // First unpack from a nullable column (creates a validity bitmap in `out`),
        // then from a non-nullable one (fast path must keep the bitmap in sync).
        let mut nullable = Column::new(DataType::Int);
        nullable.push(Value::Null);
        nullable.push(Value::Int(5));
        let block_a = freeze(&[nullable]);
        let block_b = freeze(&[int_column(vec![7, 8])]);
        let mut out = Column::new(DataType::Int);
        unpack_column(&block_a, 0, &[0, 1], &mut out);
        unpack_column(&block_b, 0, &[0, 1], &mut out);
        assert_eq!(out.len(), 4);
        assert_eq!(out.get(0), Value::Null);
        assert_eq!(out.get(2), Value::Int(7));
        assert_eq!(out.null_count(), 1);
    }
}
