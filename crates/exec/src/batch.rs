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
//! # Strings
//!
//! A string column is plain or coded ([`datablocks::column`]): a batch scanned from
//! a frozen block carries the block's dictionary and one `u32` code per row, and
//! keeps that form through [`Batch::take`] (codes are gathered, the dictionary is
//! shared) and [`Batch::append`] (same dictionary: codes extend; another one: the
//! rows are re-coded, or both sides go plain where a dictionary stops paying). A
//! string becomes bytes only where something needs them: an expression reads it in
//! place, a new group key or a `CASE` result copies it, the wire encoder writes it.
//!
//! The per-column primitives `take`/`append` are made of are [`Column`]'s own
//! ([`Column::take`], [`Column::extend_from`], [`Column::append`],
//! [`Column::push_row_of`]); the ordering ones live here (`cmp_rows`,
//! `sorted_rows`), and the hash operators use both directly on their build-side and
//! group-key columns.

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
    /// column ([`Column::extend_from`]: coded strings stay coded where that is
    /// cheap).
    pub fn append(&mut self, other: &Batch) {
        assert_eq!(self.column_count(), other.column_count());
        for (column, more) in self.columns.iter_mut().zip(&other.columns) {
            column.extend_from(more);
        }
    }

    /// [`Batch::append`] for a batch the caller is done with: payloads move, so no
    /// plain string is cloned — and an empty `self` simply becomes `other`.
    pub fn append_owned(&mut self, other: Batch) {
        assert_eq!(self.column_count(), other.column_count());
        for (column, more) in self.columns.iter_mut().zip(other.columns) {
            column.append(more);
        }
    }

    /// Keep only the rows at the given indexes (in the given order): one gather per
    /// column ([`Column::take`]; coded strings gather codes and share the
    /// dictionary).
    pub fn take(&self, rows: &[u32]) -> Batch {
        Batch {
            columns: self.columns.iter().map(|c| c.take(rows)).collect(),
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

/// Total order of two rows of one column, the order [`Value::total_cmp`] gives their
/// values: NULLs first, integers and strings by value, doubles by IEEE total order.
/// Coded strings compare by their strings — a dictionary's order is not assumed.
pub(crate) fn cmp_rows(column: &Column, a: usize, b: usize) -> Ordering {
    match (column.is_null(a), column.is_null(b)) {
        (true, true) => Ordering::Equal,
        (true, false) => Ordering::Less,
        (false, true) => Ordering::Greater,
        (false, false) => match &column.data {
            ColumnData::Int(v) => v[a].cmp(&v[b]),
            ColumnData::Double(v) => v[a].total_cmp(&v[b]),
            data => {
                let strings = data.strings().expect("a string column");
                strings.get(a).cmp(strings.get(b))
            }
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
    use std::sync::Arc;

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

    /// An Int column and a string column — plain, or coded over `dict` — holding
    /// `words` (None = NULL).
    fn strings_batch(words: &[Option<&str>], dict: Option<&Arc<[String]>>) -> Batch {
        let ints = Column::from_data(ColumnData::Int((0..words.len() as i64).collect()));
        let validity = (words.contains(&None))
            .then(|| datablocks::Bitmap::from_fn(words.len(), |row| words[row].is_some()));
        let data = match dict {
            None => ColumnData::Str(words.iter().map(|w| w.unwrap_or("").to_string()).collect()),
            Some(dict) => ColumnData::Dict {
                dict: dict.clone(),
                codes: (words.iter())
                    .map(|w| w.map_or(0, |w| dict.iter().position(|d| d == w).unwrap()) as u32)
                    .collect(),
            },
        };
        Batch::from_columns(vec![ints, Column { data, validity }])
    }

    /// A test's name for a batch, its words and its dictionary (None = plain).
    type Side<'a> = (&'a str, &'a [Option<&'a str>], Option<&'a Arc<[String]>>);

    fn rows_of(batch: &Batch) -> Vec<Vec<Value>> {
        (0..batch.len()).map(|row| batch.row(row)).collect()
    }

    #[test]
    fn coded_strings_take_append_and_sort_like_plain_ones() {
        let dict =
            |words: &[&str]| -> Arc<[String]> { words.iter().map(|w| w.to_string()).collect() };
        let fruit = dict(&["pear", "fig", "apple", "kiwi", "unused"]);
        let shuffled = dict(&["kiwi", "apple", "unused", "fig", "pear"]);
        let other = dict(&["x", "y"]);
        let words = [
            Some("pear"),
            Some("fig"),
            None,
            Some("apple"),
            Some("fig"),
            Some("kiwi"),
        ];
        let xy = [Some("y"), Some("x"), Some("y")];
        // (name, words, dictionary): plain, the same dictionary twice, an
        // overlapping one, a disjoint one
        let sides: [Side; 5] = [
            ("plain", &words, None),
            ("fruit", &words, Some(&fruit)),
            ("fruit again", &words[1..], Some(&fruit)),
            ("shuffled", &words[2..], Some(&shuffled)),
            ("disjoint", &xy, Some(&other)),
        ];
        for (left, left_words, left_dict) in sides {
            for (right, right_words, right_dict) in sides {
                let mut expected = rows_of(&strings_batch(left_words, None));
                expected.extend(rows_of(&strings_batch(right_words, None)));
                let (a, b) = (
                    strings_batch(left_words, left_dict),
                    strings_batch(right_words, right_dict),
                );
                let mut appended = a.clone();
                appended.append(&b);
                let mut owned = a.clone();
                owned.append_owned(b.clone());
                for got in [&appended, &owned] {
                    assert_eq!(rows_of(got), expected, "{left} + {right}");
                }
                if left_dict.is_some_and(|l| right_dict.is_some_and(|r| Arc::ptr_eq(l, r))) {
                    assert!(
                        matches!(appended.column(1).data, ColumnData::Dict { .. }),
                        "{left} + {right}: one dictionary, codes extended"
                    );
                }
            }
        }
        // take gathers codes and shares the dictionary
        let coded = strings_batch(&words, Some(&fruit));
        let taken = coded.take(&[5, 2, 0, 2]);
        assert_eq!(
            rows_of(&taken),
            rows_of(&strings_batch(&words, None).take(&[5, 2, 0, 2]))
        );
        assert!(
            matches!(&taken.column(1).data, ColumnData::Dict { dict, .. } if Arc::ptr_eq(dict, &fruit))
        );
        // sorting compares strings, not codes (the dictionary is not in order here)
        for (coded, plain) in [
            (
                strings_batch(&words, Some(&fruit)),
                strings_batch(&words, None),
            ),
            (
                strings_batch(&words, Some(&shuffled)),
                strings_batch(&words, None),
            ),
        ] {
            for descending in [false, true] {
                for limit in [None, Some(2)] {
                    assert_eq!(
                        sorted_rows(&[(coded.column(1), descending)], words.len(), limit),
                        sorted_rows(&[(plain.column(1), descending)], words.len(), limit),
                    );
                }
            }
            for (a, b) in (0..words.len()).flat_map(|a| (0..words.len()).map(move |b| (a, b))) {
                assert_eq!(
                    cmp_rows(coded.column(1), a, b),
                    cmp_rows(plain.column(1), a, b)
                );
            }
        }
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
