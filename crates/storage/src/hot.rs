//! Hot, uncompressed chunks — the write-optimised tail of every relation.
//!
//! Hot chunks keep plain columnar vectors with no SMAs, PSMAs or compression:
//! maintaining those under OLTP updates would cost more than it saves (Section 3).
//! OLTP inserts append here; scans over hot chunks evaluate SARGable predicates
//! vector at a time and copy matching attributes into temporary vectors, exactly
//! like the "interpreted vectorized scan on uncompressed chunk" box of Figure 6.
//! Both steps of a scan — the first restriction's *find* and every further one's
//! *reduce* — run on the typed payload wherever the restriction is a range of the
//! attribute's type: `i64` attributes through the [`dbsimd`] kernels, doubles and
//! strings by branch-free loops over the slice. Only what is no range in the type
//! (`<>`, a `Double` bound on an `Int` attribute) is read back row by row as a
//! [`Value`].

use std::ops::{Bound, RangeBounds};

use datablocks::scan::{Inclusive, Restriction};
use datablocks::unpack::{append_validity, Rows};
use datablocks::{Bitmap, Column, ColumnData, IsaLevel, Value};
use dbsimd::RangePredicate;

use crate::schema::Schema;

/// Default number of records per hot chunk (matches the Data Block capacity so a full
/// hot chunk freezes into exactly one block).
pub const DEFAULT_CHUNK_CAPACITY: usize = datablocks::DEFAULT_BLOCK_CAPACITY;

/// A mutable, uncompressed chunk of a relation.
#[derive(Debug, Clone)]
pub struct HotChunk {
    columns: Vec<Column>,
    deleted: Bitmap,
    capacity: usize,
}

impl HotChunk {
    /// An empty chunk for the given schema.
    pub fn new(schema: &Schema, capacity: usize) -> HotChunk {
        HotChunk {
            columns: schema
                .columns()
                .iter()
                .map(|c| Column::new(c.data_type))
                .collect(),
            deleted: Bitmap::default(),
            capacity,
        }
    }

    /// Number of records (including deleted ones).
    pub fn len(&self) -> usize {
        self.deleted.len()
    }

    /// True if the chunk holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of records not marked deleted.
    pub fn live_len(&self) -> usize {
        self.len() - self.deleted.count_ones()
    }

    /// Is the chunk at its capacity (and therefore a candidate for freezing)?
    pub fn is_full(&self) -> bool {
        self.len() >= self.capacity
    }

    /// The chunk's columns (used when freezing into a Data Block).
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Append a record. Returns its row index within the chunk.
    ///
    /// # Panics
    ///
    /// Panics if the value count does not match the column count (a schema violation).
    pub fn insert(&mut self, values: Vec<Value>) -> usize {
        assert_eq!(
            values.len(),
            self.columns.len(),
            "value count must match the schema"
        );
        for (column, value) in self.columns.iter_mut().zip(values) {
            column.push(value);
        }
        self.deleted.push(false);
        self.deleted.len() - 1
    }

    /// Read attribute `col` of record `row`.
    pub fn get(&self, row: usize, col: usize) -> Value {
        self.columns[col].get(row)
    }

    /// Read a whole record.
    pub fn get_row(&self, row: usize) -> Vec<Value> {
        self.columns.iter().map(|c| c.get(row)).collect()
    }

    /// Is record `row` deleted?
    #[inline]
    pub fn is_deleted(&self, row: usize) -> bool {
        self.deleted.get(row)
    }

    /// The delete flags, one per record.
    pub(crate) fn deleted(&self) -> &Bitmap {
        &self.deleted
    }

    /// Mark record `row` deleted; returns `false` if it already was.
    pub fn delete(&mut self, row: usize) -> bool {
        let fresh = !self.deleted.get(row);
        self.deleted.set(row, true);
        fresh
    }

    /// Overwrite attribute `col` of record `row` in place (hot data is mutable; only
    /// frozen data forces the delete + re-insert path).
    pub fn update_in_place(&mut self, row: usize, col: usize, value: Value) {
        // Columns do not support random-position writes for strings cheaply, so
        // rebuild the affected column slot via a small typed match.
        match (&mut self.columns[col].data, &value) {
            (datablocks::ColumnData::Int(v), Value::Int(x)) => v[row] = *x,
            (datablocks::ColumnData::Double(v), Value::Double(x)) => v[row] = *x,
            (datablocks::ColumnData::Double(v), Value::Int(x)) => v[row] = *x as f64,
            (datablocks::ColumnData::Str(v), Value::Str(x)) => v[row] = x.clone(),
            (_, Value::Null) => {
                self.columns[col].validity_mut().set(row, false);
                return;
            }
            (col_data, value) => panic!(
                "type mismatch updating a {:?} column with {value:?}",
                col_data.data_type()
            ),
        }
        if let Some(validity) = &mut self.columns[col].validity {
            validity.set(row, true);
        }
    }

    /// Uncompressed size in bytes: the columns' (see [`Column::byte_size`]) and a
    /// byte per delete flag.
    pub fn byte_size(&self) -> usize {
        self.columns.iter().map(|c| c.byte_size()).sum::<usize>() + self.deleted.len()
    }

    /// Evaluate `restrictions` over the window `[from, to)` and append the matching
    /// row indexes to `matches`, ascending, skipping deleted rows. One restriction
    /// at a time: the first finds its rows in the window, every further one reduces
    /// them. Both steps read the typed payload (see the module docs), and every
    /// answer is, row for row, what [`Restriction::matches_value`] keeps.
    pub fn find_matches(
        &self,
        restrictions: &[Restriction],
        from: usize,
        to: usize,
        matches: &mut Vec<u32>,
    ) -> usize {
        debug_assert!(to <= self.len());
        if !matches.is_empty() {
            // The reduce kernels shrink a whole match vector: start a new one.
            let mut found = Vec::new();
            self.find_matches(restrictions, from, to, &mut found);
            matches.extend_from_slice(&found);
            return found.len();
        }
        match restrictions.split_first() {
            None => matches.extend(from as u32..to as u32),
            Some((first, rest)) => {
                self.find(first, from, to, matches);
                for restriction in rest {
                    if matches.is_empty() {
                        break;
                    }
                    self.reduce(restriction, matches);
                }
            }
        }
        if self.deleted.count_ones() > 0 {
            retain(matches, |row| !self.deleted.get(row));
        }
        matches.len()
    }

    /// Append the rows of `[from, to)` that pass `restriction` to the empty `out`:
    /// an `i64` range by the dbsimd find kernel, anything else as a reduce of the
    /// whole window.
    fn find(&self, restriction: &Restriction, from: usize, to: usize, out: &mut Vec<u32>) {
        let column = &self.columns[restriction.column()];
        match (&column.data, restriction.int_bounds()) {
            (ColumnData::Int(values), Inclusive::Range(lo, hi)) => {
                let pred = RangePredicate::between(lo, hi);
                // The ISA level a default `ScanOptions` scans at.
                let isa = IsaLevel::detect();
                dbsimd::find_matches(isa, &values[from..to], &pred, from as u32, out);
                retain_valid(column, out);
            }
            _ => {
                out.extend(from as u32..to as u32);
                self.reduce(restriction, out);
            }
        }
    }

    /// Keep the `matches` whose row passes `restriction`. A range of the
    /// attribute's type compares the payload and ANDs in the validity (NULL
    /// matches no range), a NULL test reads the validity alone, and only what is
    /// no range in the type builds a [`Value`] per row.
    fn reduce(&self, restriction: &Restriction, matches: &mut Vec<u32>) {
        let column = &self.columns[restriction.column()];
        let outcome = match (restriction, &column.data) {
            (Restriction::IsNull { .. }, _) => {
                let validity = column.validity.as_ref();
                return retain(matches, |row| validity.is_some_and(|v| !v.get(row)));
            }
            (Restriction::IsNotNull { .. }, _) => return retain_valid(column, matches),
            (_, ColumnData::Int(values)) => on_range(restriction.int_bounds(), |lo, hi| {
                let pred = RangePredicate::between(lo, hi);
                dbsimd::reduce_matches(IsaLevel::detect(), values, &pred, 0, matches);
            }),
            (_, ColumnData::Double(values)) => on_range(restriction.double_bounds(), |lo, hi| {
                retain(matches, |row| (lo <= values[row]) & (values[row] <= hi));
            }),
            (_, ColumnData::Str(values)) => match restriction.bounds() {
                None => Inclusive::Inexpressible,
                Some((lo, hi)) => match (str_bound(lo), str_bound(hi)) {
                    (Some(lo), Some(hi)) => {
                        retain(matches, |row| (lo, hi).contains(&values[row].as_str()));
                        Inclusive::Range((), ())
                    }
                    // A number or NULL constant compares with no string.
                    _ => Inclusive::Empty,
                },
            },
            (_, ColumnData::Dict { .. }) => Inclusive::Inexpressible,
        };
        match outcome {
            Inclusive::Range((), ()) => retain_valid(column, matches),
            Inclusive::Empty => matches.clear(),
            Inclusive::Inexpressible => {
                retain(matches, |row| restriction.matches_value(&column.get(row)))
            }
        }
    }

    /// Copy the values of attribute `col` at `rows` into `out` (the "copying of
    /// matches" step of the vectorized scan on uncompressed chunks): the payload
    /// typed, the validity gathered beside it.
    pub fn gather(&self, col: usize, rows: &[u32], out: &mut Column) {
        let column = &self.columns[col];
        let picked = Rows::new(rows);
        let start = out.len();
        match (&column.data, &mut out.data) {
            (ColumnData::Int(src), ColumnData::Int(dst)) => picked.map_into(src, dst, |&v| v),
            (ColumnData::Double(src), ColumnData::Double(dst)) => picked.map_into(src, dst, |&v| v),
            (ColumnData::Str(src), ColumnData::Str(dst)) => {
                picked.map_into(src, dst, String::clone)
            }
            _ => {
                for &row in rows {
                    out.push(column.get(row as usize));
                }
                return;
            }
        }
        append_validity(out, start, column.validity.as_ref(), picked);
    }
}

/// Run `reduce` on the bounds of a range; returns what `bounds` came to.
fn on_range<T>(bounds: Inclusive<T>, reduce: impl FnOnce(T, T)) -> Inclusive<()> {
    match bounds {
        Inclusive::Range(lo, hi) => {
            reduce(lo, hi);
            Inclusive::Range((), ())
        }
        Inclusive::Empty => Inclusive::Empty,
        Inclusive::Inexpressible => Inclusive::Inexpressible,
    }
}

/// A bound of [`Restriction::bounds`] over strings, borrowed; `None` for a
/// constant that is no string.
fn str_bound(bound: Bound<&Value>) -> Option<Bound<&str>> {
    match bound {
        Bound::Unbounded => Some(Bound::Unbounded),
        Bound::Included(Value::Str(s)) => Some(Bound::Included(s)),
        Bound::Excluded(Value::Str(s)) => Some(Bound::Excluded(s)),
        Bound::Included(_) | Bound::Excluded(_) => None,
    }
}

/// Keep the `matches` whose value in `column` is not NULL.
fn retain_valid(column: &Column, matches: &mut Vec<u32>) {
    if let Some(validity) = &column.validity {
        retain(matches, |row| validity.get(row));
    }
}

/// Keep the `matches` that pass `keep`, in order. Branch-free: each position is
/// written and the cursor advances by the outcome.
fn retain(matches: &mut Vec<u32>, keep: impl Fn(usize) -> bool) {
    let mut w = 0;
    for r in 0..matches.len() {
        let row = matches[r];
        matches[w] = row;
        w += keep(row as usize) as usize;
    }
    matches.truncate(w);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnDef;
    use datablocks::DataType;
    use dbsimd::CmpOp;

    fn schema() -> Schema {
        Schema::new(vec![
            ColumnDef::new("k", DataType::Int),
            ColumnDef::new("name", DataType::Str),
            ColumnDef::new("weight", DataType::Double),
        ])
    }

    fn filled_chunk(n: usize) -> HotChunk {
        let schema = schema();
        let mut chunk = HotChunk::new(&schema, DEFAULT_CHUNK_CAPACITY);
        for i in 0..n as i64 {
            chunk.insert(vec![
                Value::Int(i),
                Value::Str(format!("n{}", i % 10)),
                Value::Double(i as f64 * 0.5),
            ]);
        }
        chunk
    }

    #[test]
    fn insert_get_roundtrip() {
        let chunk = filled_chunk(100);
        assert_eq!(chunk.len(), 100);
        assert_eq!(chunk.get(42, 0), Value::Int(42));
        assert_eq!(chunk.get(42, 1), Value::Str("n2".into()));
        assert_eq!(
            chunk.get_row(3),
            vec![Value::Int(3), Value::Str("n3".into()), Value::Double(1.5)]
        );
    }

    #[test]
    fn delete_and_live_count() {
        let mut chunk = filled_chunk(10);
        assert!(chunk.delete(5));
        assert!(!chunk.delete(5));
        assert!(chunk.is_deleted(5));
        assert_eq!(chunk.live_len(), 9);
    }

    #[test]
    fn update_in_place_changes_values_and_nulls() {
        let mut chunk = filled_chunk(5);
        chunk.update_in_place(2, 0, Value::Int(999));
        assert_eq!(chunk.get(2, 0), Value::Int(999));
        chunk.update_in_place(2, 1, Value::Str("renamed".into()));
        assert_eq!(chunk.get(2, 1), Value::Str("renamed".into()));
        chunk.update_in_place(3, 0, Value::Null);
        assert_eq!(chunk.get(3, 0), Value::Null);
        // writing a value again clears the NULL
        chunk.update_in_place(3, 0, Value::Int(7));
        assert_eq!(chunk.get(3, 0), Value::Int(7));
    }

    #[test]
    fn find_matches_int_and_string() {
        let chunk = filled_chunk(1000);
        let mut matches = Vec::new();
        chunk.find_matches(
            &[Restriction::between(0, 100i64, 199i64)],
            0,
            1000,
            &mut matches,
        );
        assert_eq!(matches.len(), 100);
        matches.clear();
        chunk.find_matches(
            &[
                Restriction::between(0, 100i64, 199i64),
                Restriction::eq(1, "n5"),
            ],
            0,
            1000,
            &mut matches,
        );
        assert_eq!(matches.len(), 10);
        assert!(matches.iter().all(|&m| m % 10 == 5));
    }

    #[test]
    fn strict_double_bounds_at_a_signed_zero_exclude_both_zeros() {
        let mut chunk = HotChunk::new(&schema(), DEFAULT_CHUNK_CAPACITY);
        for (k, d) in [-1.0, -0.0, 0.0, 1.0].into_iter().enumerate() {
            chunk.insert(vec![
                Value::Int(k as i64),
                Value::Str("n".into()),
                Value::Double(d),
            ]);
        }
        let find = |op, c: f64| {
            let mut matches = Vec::new();
            chunk.find_matches(&[Restriction::cmp(2, op, c)], 0, 4, &mut matches);
            let generic: Vec<u32> = (0..4)
                .filter(|&row| {
                    Restriction::cmp(2, op, c).matches_value(&chunk.get(row as usize, 2))
                })
                .collect();
            assert_eq!(matches, generic, "{op:?} {c:?}");
            matches
        };
        for c in [0.0, -0.0] {
            assert_eq!(find(CmpOp::Lt, c), [0], "< {c:?}");
            assert_eq!(find(CmpOp::Gt, c), [3], "> {c:?}");
            assert_eq!(find(CmpOp::Le, c), [0, 1, 2], "<= {c:?}");
            assert_eq!(find(CmpOp::Ge, c), [1, 2, 3], ">= {c:?}");
            assert_eq!(find(CmpOp::Eq, c), [1, 2], "= {c:?}");
        }
        assert!(find(CmpOp::Lt, f64::NEG_INFINITY).is_empty());
        assert!(find(CmpOp::Gt, f64::INFINITY).is_empty());
    }

    #[test]
    fn a_between_with_a_double_bound_on_an_int_column_is_not_an_equality() {
        let chunk = filled_chunk(5);
        let between = Restriction::between(0, 1i64, 2.5f64);
        let mut matches = Vec::new();
        chunk.find_matches(std::slice::from_ref(&between), 0, 5, &mut matches);
        assert_eq!(matches, [1, 2]);
        assert!(
            (0..5).all(|row| between.matches_value(&chunk.get(row, 0)) == (1..=2).contains(&row))
        );
    }

    #[test]
    fn find_matches_skips_deleted() {
        let mut chunk = filled_chunk(50);
        chunk.delete(10);
        let mut matches = Vec::new();
        chunk.find_matches(&[], 0, 50, &mut matches);
        assert_eq!(matches.len(), 49);
        assert!(!matches.contains(&10));
    }

    #[test]
    fn find_matches_double_and_ne() {
        let chunk = filled_chunk(100);
        let mut matches = Vec::new();
        chunk.find_matches(&[Restriction::cmp(2, CmpOp::Lt, 5.0)], 0, 100, &mut matches);
        assert_eq!(matches.len(), 10);
        matches.clear();
        chunk.find_matches(
            &[Restriction::cmp(0, CmpOp::Ne, 7i64)],
            0,
            100,
            &mut matches,
        );
        assert_eq!(matches.len(), 99);
    }

    #[test]
    fn find_matches_respects_window() {
        let chunk = filled_chunk(100);
        let mut matches = Vec::new();
        chunk.find_matches(&[], 20, 30, &mut matches);
        assert_eq!(matches, (20u32..30).collect::<Vec<_>>());
        // A second call appends.
        let pair = [
            Restriction::cmp(0, CmpOp::Ge, 40i64),
            Restriction::cmp(0, CmpOp::Lt, 43i64),
        ];
        assert_eq!(chunk.find_matches(&pair, 35, 60, &mut matches), 3);
        assert_eq!(matches[10..], [40, 41, 42]);
    }

    #[test]
    fn gather_copies_requested_rows() {
        let chunk = filled_chunk(20);
        let mut out = Column::new(DataType::Int);
        chunk.gather(0, &[1, 3, 5], &mut out);
        assert_eq!(out.data.as_int().unwrap(), &[1, 3, 5]);
        let mut names = Column::new(DataType::Str);
        chunk.gather(1, &[0, 19], &mut names);
        // hot strings are plain
        assert!(matches!(&names.data, datablocks::ColumnData::Str(v) if v == &["n0", "n9"]));
    }

    #[test]
    fn gather_keeps_nulls_across_a_word_boundary() {
        let mut chunk = HotChunk::new(&schema(), DEFAULT_CHUNK_CAPACITY);
        for i in 0..200i64 {
            let row = [
                Value::Int(i),
                Value::Str(format!("n{i}")),
                Value::Double(i as f64),
            ];
            let null = i % 5 == 2 || (60..70).contains(&i);
            chunk.insert(row.map(|v| if null { Value::Null } else { v }).to_vec());
        }
        // A NULL written over a value leaves that value in the payload.
        for col in 0..3 {
            chunk.update_in_place(130, col, Value::Null);
        }
        let types = [DataType::Int, DataType::Str, DataType::Double];
        let picks: [Vec<u32>; 4] = [
            (0..200).collect(),
            (58..73).collect(),
            vec![1, 2, 63, 64, 65, 67, 128, 130, 199],
            vec![],
        ];
        for (col, &ty) in types.iter().enumerate() {
            let mut got = Column::new(ty);
            let mut expected = Column::new(ty);
            for rows in &picks {
                chunk.gather(col, rows, &mut got);
                rows.iter()
                    .for_each(|&row| expected.push(chunk.get(row as usize, col)));
                assert_eq!(got, expected, "column {col}, rows {rows:?}");
            }
        }
    }

    #[test]
    fn every_restriction_reduces_nullable_rows_as_matches_value_does() {
        let mut chunk = HotChunk::new(&schema(), DEFAULT_CHUNK_CAPACITY);
        for i in 0..150i64 {
            let null = |v| if i % 7 == 3 { Value::Null } else { v };
            chunk.insert(vec![
                null(Value::Int(i - 75)),
                null(Value::Str(format!("n{}", i % 10))),
                null(Value::Double(i as f64 * 0.5 - 20.0)),
            ]);
        }
        chunk.delete(77);
        let restrictions = [
            Restriction::cmp(0, CmpOp::Lt, 10i64),
            Restriction::cmp(0, CmpOp::Ne, -3i64),
            Restriction::between(0, -50i64, 2.5f64),
            Restriction::cmp(1, CmpOp::Ge, "n3"),
            Restriction::cmp(1, CmpOp::Lt, 5i64),
            Restriction::cmp(2, CmpOp::Gt, -0.0),
            Restriction::IsNull { column: 1 },
            Restriction::IsNotNull { column: 2 },
        ];
        for first in &restrictions {
            for second in &restrictions {
                let pair = [first.clone(), second.clone()];
                let mut found = Vec::new();
                chunk.find_matches(&pair, 3, 145, &mut found);
                let expected: Vec<u32> = (3..145)
                    .filter(|&row| {
                        !chunk.is_deleted(row)
                            && pair
                                .iter()
                                .all(|r| r.matches_value(&chunk.get(row, r.column())))
                    })
                    .map(|row| row as u32)
                    .collect();
                assert_eq!(found, expected, "{pair:?}");
            }
        }
    }

    #[test]
    fn capacity_reporting() {
        let schema = schema();
        let mut chunk = HotChunk::new(&schema, 4);
        assert!(chunk.is_empty());
        for i in 0..4 {
            chunk.insert(vec![
                Value::Int(i),
                Value::Str("x".into()),
                Value::Double(0.0),
            ]);
        }
        assert!(chunk.is_full());
        assert!(chunk.byte_size() > 0);
    }
}
