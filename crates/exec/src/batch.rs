//! Tuple batches — the unit of data flowing between the vectorized scan subsystem and
//! the relational operators above it.
//!
//! A batch holds up to one vector's worth of records (8192 by default) in columnar
//! form. The scan materialises requested attributes of matching records into a batch,
//! and every operator above it works on whole columns: expressions evaluate a column
//! at a time under a selection vector ([`crate::expr`]), a filter is a selection plus
//! one [`Batch::take`], pipeline breakers keep typed columns and row indices. The
//! row-wise accessors ([`Batch::row`], [`Batch::value`], [`Batch::push_row`]) are for
//! tests, result rendering and row-oriented callers outside the query path.
//!
//! The per-column primitives live here too (`gather`, `append_column`, `cmp_rows`,
//! `sorted_rows`): they are what `take`/`append`/sorting are made of, and the hash
//! operators use them directly on their build-side and group-key columns.

use std::cmp::Ordering;

use datablocks::{Column, ColumnData, DataType, Value};

/// A columnar batch of tuples.
#[derive(Debug, Clone)]
pub struct Batch {
    columns: Vec<Column>,
}

impl Batch {
    /// An empty batch with the given column types.
    pub fn new(types: &[DataType]) -> Batch {
        Batch {
            columns: types.iter().map(|&t| Column::new(t)).collect(),
        }
    }

    /// Wrap existing columns (all must have equal length).
    pub fn from_columns(columns: Vec<Column>) -> Batch {
        if let Some(first) = columns.first() {
            assert!(
                columns.iter().all(|c| c.len() == first.len()),
                "all batch columns must have the same length"
            );
        }
        Batch { columns }
    }

    /// Build a batch from rows (mostly used in tests and by pipeline breakers).
    pub fn from_rows(types: &[DataType], rows: &[Vec<Value>]) -> Batch {
        let mut batch = Batch::new(types);
        for row in rows {
            batch.push_row(row.clone());
        }
        batch
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.columns.first().map(|c| c.len()).unwrap_or(0)
    }

    /// True if the batch holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of columns.
    pub fn column_count(&self) -> usize {
        self.columns.len()
    }

    /// Borrow a column.
    pub fn column(&self, idx: usize) -> &Column {
        &self.columns[idx]
    }

    /// Borrow all columns.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Read a single value.
    pub fn value(&self, row: usize, col: usize) -> Value {
        self.columns[col].get(row)
    }

    /// Read a whole tuple.
    pub fn row(&self, row: usize) -> Vec<Value> {
        self.columns.iter().map(|c| c.get(row)).collect()
    }

    /// Append a tuple.
    pub fn push_row(&mut self, row: Vec<Value>) {
        assert_eq!(
            row.len(),
            self.columns.len(),
            "row arity must match the batch"
        );
        for (column, value) in self.columns.iter_mut().zip(row) {
            column.push(value);
        }
    }

    /// Append every tuple of `other` (schemas must match positionally), column by
    /// column.
    pub fn append(&mut self, other: &Batch) {
        assert_eq!(self.column_count(), other.column_count());
        for (column, more) in self.columns.iter_mut().zip(&other.columns) {
            extend_column(column, more);
        }
    }

    /// [`Batch::append`] for a batch the caller is done with: payloads move, so no
    /// string is cloned — and an empty `self` simply becomes `other`.
    pub fn append_owned(&mut self, other: Batch) {
        assert_eq!(self.column_count(), other.column_count());
        for (column, more) in self.columns.iter_mut().zip(other.columns) {
            append_column(column, more);
        }
    }

    /// Keep only the rows at the given indexes (in the given order): one gather per
    /// column.
    pub fn take(&self, rows: &[u32]) -> Batch {
        Batch {
            columns: self.columns.iter().map(|c| gather(c, rows)).collect(),
        }
    }

    /// Give up the columns.
    pub fn into_columns(self) -> Vec<Column> {
        self.columns
    }

    /// The column types of the batch.
    pub fn types(&self) -> Vec<DataType> {
        self.columns.iter().map(|c| c.data_type()).collect()
    }
}

/// `rows` default payload slots of type `ty` (what sits under a NULL).
pub(crate) fn zeroed(ty: DataType, rows: usize) -> ColumnData {
    match ty {
        DataType::Int => ColumnData::Int(vec![0; rows]),
        DataType::Double => ColumnData::Double(vec![0.0; rows]),
        DataType::Str => ColumnData::Str(vec![String::new(); rows]),
    }
}

/// The values at positions `rows`, in that order.
pub(crate) fn pick<T: Clone>(values: &[T], rows: &[u32]) -> Vec<T> {
    rows.iter().map(|&r| values[r as usize].clone()).collect()
}

/// Rows `rows` of `column`, in that order.
pub(crate) fn gather(column: &Column, rows: &[u32]) -> Column {
    Column {
        data: match &column.data {
            ColumnData::Int(v) => ColumnData::Int(pick(v, rows)),
            ColumnData::Double(v) => ColumnData::Double(pick(v, rows)),
            ColumnData::Str(v) => ColumnData::Str(pick(v, rows)),
        },
        validity: column.validity.as_ref().map(|v| pick(v, rows)),
    }
}

/// Make room in `dst`'s validity for `more` rows coming from a column with validity
/// `src`: a bitmap appears only once one side has NULLs.
fn extend_validity(dst: &mut Column, src: Option<&[bool]>, more: usize) {
    if dst.validity.is_none() && src.is_none() {
        return;
    }
    let len = dst.len();
    let validity = dst.validity.get_or_insert_with(|| vec![true; len]);
    match src {
        Some(src) => validity.extend_from_slice(src),
        None => validity.resize(len + more, true),
    }
}

/// Append a copy of every row of `src` to `dst` (same type; a mismatch is a
/// planning bug).
pub(crate) fn extend_column(dst: &mut Column, src: &Column) {
    extend_validity(dst, src.validity.as_deref(), src.len());
    match (&mut dst.data, &src.data) {
        (ColumnData::Int(d), ColumnData::Int(s)) => d.extend_from_slice(s),
        (ColumnData::Double(d), ColumnData::Double(s)) => d.extend_from_slice(s),
        (ColumnData::Str(d), ColumnData::Str(s)) => d.extend_from_slice(s),
        (d, s) => panic!(
            "type mismatch: cannot append a {} column to a {} column",
            s.data_type(),
            d.data_type()
        ),
    }
}

/// Append every row of `src` to `dst`, moving the payload (an empty `dst` takes
/// `src`'s buffers as they are).
pub(crate) fn append_column(dst: &mut Column, src: Column) {
    if dst.is_empty() && dst.data_type() == src.data_type() {
        *dst = src;
        return;
    }
    extend_validity(dst, src.validity.as_deref(), src.len());
    match (&mut dst.data, src.data) {
        (ColumnData::Int(d), ColumnData::Int(s)) => d.extend(s),
        (ColumnData::Double(d), ColumnData::Double(s)) => d.extend(s),
        (ColumnData::Str(d), ColumnData::Str(s)) => d.extend(s),
        (d, s) => panic!(
            "type mismatch: cannot append a {} column to a {} column",
            s.data_type(),
            d.data_type()
        ),
    }
}

/// Append row `row` of `src` to `dst` (same type).
pub(crate) fn push_row_of(dst: &mut Column, src: &Column, row: usize) {
    let valid = !src.is_null(row);
    extend_validity(dst, (!valid).then_some(&[false][..]), 1);
    match (&mut dst.data, &src.data) {
        (ColumnData::Int(d), ColumnData::Int(s)) => d.push(s[row]),
        (ColumnData::Double(d), ColumnData::Double(s)) => d.push(s[row]),
        (ColumnData::Str(d), ColumnData::Str(s)) => d.push(s[row].clone()),
        (d, s) => panic!(
            "type mismatch: cannot append a {} value to a {} column",
            s.data_type(),
            d.data_type()
        ),
    }
}

/// Total order of two rows of one column, the order [`Value::total_cmp`] gives their
/// values: NULLs first, integers and strings by value, doubles by IEEE total order.
pub(crate) fn cmp_rows(column: &Column, a: usize, b: usize) -> Ordering {
    match (column.is_null(a), column.is_null(b)) {
        (true, true) => Ordering::Equal,
        (true, false) => Ordering::Less,
        (false, true) => Ordering::Greater,
        (false, false) => match &column.data {
            ColumnData::Int(v) => v[a].cmp(&v[b]),
            ColumnData::Double(v) => v[a].total_cmp(&v[b]),
            ColumnData::Str(v) => v[a].cmp(&v[b]),
        },
    }
}

/// The permutation of `0..rows` that sorts by `keys` (column, descending?), most
/// significant first, ties broken by position — what a stable sort produces. With a
/// `limit` only that many leading positions are returned, selected before they are
/// sorted.
pub(crate) fn sorted_rows(keys: &[(&Column, bool)], rows: usize, limit: Option<usize>) -> Vec<u32> {
    let order = |a: &u32, b: &u32| {
        for &(column, descending) in keys {
            let ord = cmp_rows(column, *a as usize, *b as usize);
            if ord != Ordering::Equal {
                return if descending { ord.reverse() } else { ord };
            }
        }
        a.cmp(b)
    };
    let mut perm: Vec<u32> = (0..rows as u32).collect();
    if let Some(limit) = limit.filter(|&limit| limit < rows) {
        if limit > 0 {
            perm.select_nth_unstable_by(limit - 1, order);
        }
        perm.truncate(limit);
    }
    perm.sort_unstable_by(order);
    perm
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch() -> Batch {
        Batch::from_rows(
            &[DataType::Int, DataType::Str],
            &[
                vec![Value::Int(1), Value::Str("a".into())],
                vec![Value::Int(2), Value::Str("b".into())],
                vec![Value::Int(3), Value::Str("c".into())],
            ],
        )
    }

    #[test]
    fn construction_and_access() {
        let b = batch();
        assert_eq!(b.len(), 3);
        assert_eq!(b.column_count(), 2);
        assert_eq!(b.value(1, 0), Value::Int(2));
        assert_eq!(b.row(2), vec![Value::Int(3), Value::Str("c".into())]);
        assert_eq!(b.types(), vec![DataType::Int, DataType::Str]);
        assert!(!b.is_empty());
    }

    #[test]
    fn push_and_append() {
        let mut b = batch();
        b.push_row(vec![Value::Int(4), Value::Str("d".into())]);
        assert_eq!(b.len(), 4);
        let other = batch();
        b.append(&other);
        assert_eq!(b.len(), 7);
    }

    #[test]
    fn take_selects_rows_in_order() {
        let b = batch();
        let t = b.take(&[2, 0]);
        assert_eq!(t.len(), 2);
        assert_eq!(t.value(0, 0), Value::Int(3));
        assert_eq!(t.value(1, 0), Value::Int(1));
    }

    #[test]
    fn append_grows_a_validity_bitmap_only_when_a_side_has_nulls() {
        let plain = batch();
        let mut nullable = Batch::new(&[DataType::Int, DataType::Str]);
        nullable.push_row(vec![Value::Null, Value::Str("n".into())]);

        let mut both = plain.clone();
        both.append(&plain);
        assert!(both.column(0).validity.is_none());
        both.append(&nullable);
        both.append_owned(plain.clone());
        assert_eq!(both.len(), 10);
        assert_eq!(both.column(0).null_count(), 1);
        assert_eq!(both.value(6, 0), Value::Null);
        assert_eq!(both.value(7, 0), Value::Int(1));
        assert!(
            both.column(1).validity.is_none(),
            "the string column saw no NULL"
        );

        // an empty batch becomes the appended one
        let mut empty = Batch::new(&[DataType::Int, DataType::Str]);
        empty.append_owned(both.clone());
        assert_eq!(empty.row(6), both.row(6));
        assert_eq!(empty.len(), 10);
        // gathers keep NULLs where they were
        let taken = both.take(&[6, 0, 6]);
        assert_eq!(taken.row(0), vec![Value::Null, Value::Str("n".into())]);
        assert_eq!(taken.row(1), vec![Value::Int(1), Value::Str("a".into())]);
        assert_eq!(taken.column(0).null_count(), 2);
    }

    #[test]
    #[should_panic(expected = "type mismatch")]
    fn appending_another_type_is_rejected() {
        let mut ints = Batch::new(&[DataType::Int]);
        ints.push_row(vec![Value::Int(1)]);
        let mut strs = Batch::new(&[DataType::Str]);
        strs.push_row(vec![Value::Str("x".into())]);
        ints.append(&strs);
    }

    #[test]
    fn sorted_rows_is_a_stable_sort_and_a_limit_keeps_its_prefix() {
        // few distinct keys, NULLs included, so ties are everywhere
        let rows: Vec<Vec<Value>> = (0..97i64)
            .map(|i| {
                let a = match i * 7 % 5 {
                    0 => Value::Null,
                    k => Value::Int(k % 3),
                };
                vec![a, Value::Double((i * 11 % 4) as f64 - 1.0), Value::Int(i)]
            })
            .collect();
        let batch = Batch::from_rows(&[DataType::Int, DataType::Double, DataType::Int], &rows);
        let mut expected: Vec<u32> = (0..rows.len() as u32).collect();
        expected.sort_by(|&x, &y| {
            let (x, y) = (&rows[x as usize], &rows[y as usize]);
            x[0].total_cmp(&y[0]).reverse().then(x[1].total_cmp(&y[1]))
        });
        let keys = [(batch.column(0), true), (batch.column(1), false)];
        assert_eq!(sorted_rows(&keys, rows.len(), None), expected);
        for limit in [0, 1, 10, 96, 97, 1_000] {
            assert_eq!(
                sorted_rows(&keys, rows.len(), Some(limit)),
                expected[..limit.min(rows.len())],
                "limit {limit}"
            );
        }
        assert_eq!(sorted_rows(&[], 3, None), [0, 1, 2], "no keys: input order");
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_mismatch_rejected() {
        batch().push_row(vec![Value::Int(1)]);
    }

    #[test]
    #[should_panic(expected = "same length")]
    fn ragged_columns_rejected() {
        Batch::from_columns(vec![
            Column::from_data(datablocks::ColumnData::Int(vec![1, 2])),
            Column::from_data(datablocks::ColumnData::Int(vec![1])),
        ]);
    }
}
