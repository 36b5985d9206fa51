//! Uncompressed columnar data — the representation of *hot* chunks and of the
//! intermediate buffers that vectorized scans unpack matches into.
//!
//! # The two forms of a string column
//!
//! A string column is **plain** ([`ColumnData::Str`], one owned `String` per row) or
//! **coded** ([`ColumnData::Dict`], one `u32` code per row into a dictionary shared by
//! `Arc`). Hot chunks, computed strings and decoded wire batches are plain. Unpacking
//! a frozen block's dictionary-compressed attribute yields the coded form: the rows
//! get the block's codes and share its dictionary, so no string is copied
//! (Section 3.4 — the compressed form is also the processing form). Both forms have
//! type [`DataType::Str`], compare equal when their rows do, and are read in place,
//! row by row, through [`Strings`]. Nothing may assume that a coded column's
//! dictionary is sorted, free of duplicates or fully used: a gather keeps the whole
//! dictionary, and re-coding (below) appends to it.
//!
//! Appending ([`Column::extend_from`], [`Column::append`]) keeps the coded form while
//! it is cheap. Rows coded against the same dictionary extend the codes; rows coded
//! against another one are **re-coded** into this column's dictionary, which grows by
//! the entries it lacks — unless the merged dictionary would hold more than one entry
//! per two rows, where a dictionary saves nothing and both sides become plain.
//!
//! A coded column keeps its dictionary alive. A batch unpacked from a spilled block
//! holds that block's dictionary after the block cache has evicted the block, and the
//! cache does not count those bytes.

use std::collections::HashMap;
use std::sync::Arc;

use crate::bitmap::Bitmap;
use crate::value::{DataType, Value};

/// The typed payload of an uncompressed column.
///
/// Equality is by value: a plain and a coded string column with the same rows are
/// equal.
#[derive(Debug, Clone)]
pub enum ColumnData {
    /// 64-bit integers (also dates, scaled decimals, char(1) code points).
    Int(Vec<i64>),
    /// 64-bit floats.
    Double(Vec<f64>),
    /// Owned strings: the plain form of a string column.
    Str(Vec<String>),
    /// Strings as codes into a shared dictionary, the coded form of a string column:
    /// row `i` is `dict[codes[i]]` (see the module docs).
    Dict {
        /// The dictionary, shared with the Data Block it came from and with every
        /// column gathered from this one.
        dict: Arc<[String]>,
        /// One dictionary index per row.
        codes: Vec<u32>,
    },
}

/// The rows of a string column in either form, borrowed: one `&str` per row.
#[derive(Debug, Clone, Copy)]
pub enum Strings<'a> {
    /// A plain column's strings.
    Plain(&'a [String]),
    /// A coded column's dictionary and codes.
    Coded(&'a [String], &'a [u32]),
}

impl<'a> Strings<'a> {
    /// Row `row`.
    #[inline]
    pub fn get(self, row: usize) -> &'a str {
        match self {
            Strings::Plain(values) => &values[row],
            Strings::Coded(dict, codes) => &dict[codes[row] as usize],
        }
    }

    /// Number of rows.
    pub fn len(self) -> usize {
        match self {
            Strings::Plain(values) => values.len(),
            Strings::Coded(_, codes) => codes.len(),
        }
    }

    /// True if there are no rows.
    pub fn is_empty(self) -> bool {
        self.len() == 0
    }
}

impl PartialEq for ColumnData {
    fn eq(&self, other: &ColumnData) -> bool {
        match (self, other) {
            (ColumnData::Int(a), ColumnData::Int(b)) => a == b,
            (ColumnData::Double(a), ColumnData::Double(b)) => a == b,
            _ => match (self.strings(), other.strings()) {
                (Some(a), Some(b)) => {
                    a.len() == b.len() && (0..a.len()).all(|r| a.get(r) == b.get(r))
                }
                _ => false,
            },
        }
    }
}

/// The values at positions `rows`, in that order.
fn pick<T: Clone>(values: &[T], rows: &[u32]) -> Vec<T> {
    rows.iter().map(|&r| values[r as usize].clone()).collect()
}

impl ColumnData {
    /// The logical type of the column.
    pub fn data_type(&self) -> DataType {
        match self {
            ColumnData::Int(_) => DataType::Int,
            ColumnData::Double(_) => DataType::Double,
            ColumnData::Str(_) | ColumnData::Dict { .. } => DataType::Str,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            ColumnData::Int(v) => v.len(),
            ColumnData::Double(v) => v.len(),
            ColumnData::Str(v) => v.len(),
            ColumnData::Dict { codes, .. } => codes.len(),
        }
    }

    /// True if the column holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// An empty column of the given type (strings plain).
    pub fn new(ty: DataType) -> ColumnData {
        match ty {
            DataType::Int => ColumnData::Int(Vec::new()),
            DataType::Double => ColumnData::Double(Vec::new()),
            DataType::Str => ColumnData::Str(Vec::new()),
        }
    }

    /// An empty column of the given type with pre-reserved capacity (strings plain).
    pub fn with_capacity(ty: DataType, cap: usize) -> ColumnData {
        match ty {
            DataType::Int => ColumnData::Int(Vec::with_capacity(cap)),
            DataType::Double => ColumnData::Double(Vec::with_capacity(cap)),
            DataType::Str => ColumnData::Str(Vec::with_capacity(cap)),
        }
    }

    /// Read one row as an owned [`Value`].
    pub fn get(&self, row: usize) -> Value {
        match self {
            ColumnData::Int(v) => Value::Int(v[row]),
            ColumnData::Double(v) => Value::Double(v[row]),
            ColumnData::Str(v) => Value::Str(v[row].clone()),
            ColumnData::Dict { dict, codes } => Value::Str(dict[codes[row] as usize].clone()),
        }
    }

    /// Append a non-null value; panics on a type mismatch (schema violations are
    /// programming errors, not runtime conditions). A coded column turns plain first.
    pub fn push(&mut self, value: Value) {
        match (self, value) {
            (ColumnData::Int(v), Value::Int(x)) => v.push(x),
            (ColumnData::Double(v), Value::Double(x)) => v.push(x),
            (ColumnData::Double(v), Value::Int(x)) => v.push(x as f64),
            (col, Value::Str(x)) if col.data_type() == DataType::Str => col.plain_mut().push(x),
            (col, value) => panic!(
                "type mismatch: cannot push {:?} into a {} column",
                value,
                col.data_type()
            ),
        }
    }

    /// Append a default "zero" value (used as the payload slot of NULL rows).
    pub fn push_default(&mut self) {
        match self {
            ColumnData::Int(v) => v.push(0),
            ColumnData::Double(v) => v.push(0.0),
            col => col.plain_mut().push(String::new()),
        }
    }

    /// Borrow the integer payload; `None` if this is not an integer column.
    pub fn as_int(&self) -> Option<&[i64]> {
        match self {
            ColumnData::Int(v) => Some(v),
            _ => None,
        }
    }

    /// Borrow the float payload; `None` if this is not a double column.
    pub fn as_double(&self) -> Option<&[f64]> {
        match self {
            ColumnData::Double(v) => Some(v),
            _ => None,
        }
    }

    /// Borrow the rows of a string column, plain or coded; `None` if this is not a
    /// string column.
    pub fn strings(&self) -> Option<Strings<'_>> {
        match self {
            ColumnData::Str(v) => Some(Strings::Plain(v)),
            ColumnData::Dict { dict, codes } => Some(Strings::Coded(dict, codes)),
            _ => None,
        }
    }

    /// Heap size of the payload in bytes (used for the Table 1 size accounting of
    /// uncompressed storage).
    ///
    /// A coded column counts 4 bytes per code plus its dictionary once. The
    /// dictionary is shared — with the block it came from and with every column
    /// gathered from this one — so a sum over such columns counts it once per column.
    pub fn byte_size(&self) -> usize {
        // A string in uncompressed storage costs its bytes plus the Vec<String>
        // header (pointer + len + capacity), which is how an in-memory row store
        // or column store would hold it.
        let string_bytes = |v: &[String]| v.iter().map(|s| s.len() + 24).sum::<usize>();
        match self {
            ColumnData::Int(v) => v.len() * 8,
            ColumnData::Double(v) => v.len() * 8,
            ColumnData::Str(v) => string_bytes(v),
            ColumnData::Dict { dict, codes } => codes.len() * 4 + string_bytes(dict),
        }
    }

    /// The plain strings of a string column, decoding a coded one in place.
    pub(crate) fn plain_mut(&mut self) -> &mut Vec<String> {
        if let ColumnData::Dict { dict, codes } = self {
            *self = ColumnData::Str(codes.iter().map(|&c| dict[c as usize].clone()).collect());
        }
        match self {
            ColumnData::Str(v) => v,
            col => panic!("a {} column holds no strings", col.data_type()),
        }
    }

    /// Rows `rows`, in that order; a coded column keeps its dictionary.
    fn take(&self, rows: &[u32]) -> ColumnData {
        match self {
            ColumnData::Int(v) => ColumnData::Int(pick(v, rows)),
            ColumnData::Double(v) => ColumnData::Double(pick(v, rows)),
            ColumnData::Str(v) => ColumnData::Str(pick(v, rows)),
            ColumnData::Dict { dict, codes } => ColumnData::Dict {
                dict: Arc::clone(dict),
                codes: pick(codes, rows),
            },
        }
    }

    /// Append a copy of every row of `other` (same type, else a panic).
    fn extend_from(&mut self, other: &ColumnData) {
        match (&mut *self, other) {
            (ColumnData::Int(d), ColumnData::Int(s)) => d.extend_from_slice(s),
            (ColumnData::Double(d), ColumnData::Double(s)) => d.extend_from_slice(s),
            (ColumnData::Str(d), ColumnData::Str(s)) => d.extend_from_slice(s),
            (d, s) if d.data_type() != s.data_type() => panic!(
                "type mismatch: cannot append a {} column to a {} column",
                s.data_type(),
                d.data_type()
            ),
            // Two string columns, at least one of them coded.
            (d, s) if d.is_empty() => *d = s.clone(),
            (d, ColumnData::Dict { dict, codes }) => {
                if !d.recode_from(dict, codes) {
                    let decoded = codes.iter().map(|&code| dict[code as usize].clone());
                    d.plain_mut().extend(decoded);
                }
            }
            (d, ColumnData::Str(s)) => d.plain_mut().extend_from_slice(s),
            _ => unreachable!("numbers are matched above"),
        }
    }

    /// Append rows coded against `from` to this coded column: their codes as they
    /// are if `from` is this column's dictionary, else re-coded into it, growing it
    /// by the entries it lacks. Returns `false` and changes nothing when this column
    /// is plain or the merged dictionary would hold more than one entry per two rows.
    fn recode_from(&mut self, from: &Arc<[String]>, more: &[u32]) -> bool {
        let ColumnData::Dict { dict, codes } = self else {
            return false;
        };
        if Arc::ptr_eq(dict, from) {
            codes.extend_from_slice(more);
            return true;
        }
        let rows = codes.len() + more.len();
        if dict.len() * 2 > rows {
            return false;
        }
        let mut index: HashMap<&str, u32> = (dict.iter().enumerate())
            .map(|(code, s)| (s.as_str(), code as u32))
            .collect();
        // Only the entries the appended rows use are looked up (a block's
        // dictionary covers the whole block, a batch a part of it).
        let mut added: Vec<&str> = Vec::new();
        let mut translate = vec![u32::MAX; from.len()];
        for &code in more {
            let slot = &mut translate[code as usize];
            if *slot == u32::MAX {
                let s = from[code as usize].as_str();
                *slot = *index.entry(s).or_insert_with(|| {
                    added.push(s);
                    (dict.len() + added.len() - 1) as u32
                });
            }
        }
        if (dict.len() + added.len()) * 2 > rows {
            return false;
        }
        if !added.is_empty() {
            let merged = dict.iter().map(String::as_str).chain(added);
            *dict = merged.map(String::from).collect();
        }
        codes.extend(more.iter().map(|&code| translate[code as usize]));
        true
    }
}

/// An uncompressed column: typed payload plus an optional validity bitmap.
///
/// Row `i` is NULL when bit `i` of the validity is clear; the payload slot of a NULL
/// row holds an arbitrary default and must not be interpreted. A column without a
/// bitmap has no NULLs.
#[derive(Debug, Clone, PartialEq)]
pub struct Column {
    /// The typed values.
    pub data: ColumnData,
    /// Optional validity bitmap (set = value present).
    pub validity: Option<Bitmap>,
}

impl Column {
    /// A new, empty, non-nullable column.
    pub fn new(ty: DataType) -> Column {
        Column {
            data: ColumnData::new(ty),
            validity: None,
        }
    }

    /// Wrap fully-valid data.
    pub fn from_data(data: ColumnData) -> Column {
        Column {
            data,
            validity: None,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the column holds no rows.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The logical type.
    pub fn data_type(&self) -> DataType {
        self.data.data_type()
    }

    /// Is row `row` NULL?
    #[inline]
    pub fn is_null(&self, row: usize) -> bool {
        self.validity.as_ref().is_some_and(|v| !v.get(row))
    }

    /// Number of NULL rows.
    pub fn null_count(&self) -> usize {
        self.validity
            .as_ref()
            .map_or(0, |v| v.len() - v.count_ones())
    }

    /// Read row `row`, honouring NULLs.
    pub fn get(&self, row: usize) -> Value {
        if self.is_null(row) {
            Value::Null
        } else {
            self.data.get(row)
        }
    }

    /// Append a value (NULL allocates a validity bitmap on first use).
    pub fn push(&mut self, value: Value) {
        self.push_validity(!value.is_null());
        match value {
            Value::Null => self.data.push_default(),
            v => self.data.push(v),
        }
    }

    /// Size in bytes of the uncompressed form, a coded column's shared dictionary
    /// included (see [`ColumnData::byte_size`]). A validity bitmap counts one byte
    /// per row, the cost of a flag in a plain uncompressed store.
    pub fn byte_size(&self) -> usize {
        self.data.byte_size() + self.validity.as_ref().map_or(0, Bitmap::len)
    }

    /// Rows `rows`, in that order: a gather of payload and validity. A coded
    /// column's result shares its dictionary.
    pub fn take(&self, rows: &[u32]) -> Column {
        Column {
            data: self.data.take(rows),
            validity: self.validity.as_ref().map(|v| v.gather(rows)),
        }
    }

    /// Append a copy of every row of `other`, which must have the same type (a
    /// mismatch is a planning bug and panics). Strings keep the coded form as the
    /// module docs describe.
    pub fn extend_from(&mut self, other: &Column) {
        self.extend_validity(other.validity.as_ref(), other.len());
        self.data.extend_from(&other.data);
    }

    /// [`Column::extend_from`] for a column the caller is done with: payloads move,
    /// so no string is cloned — and an empty column simply becomes `other`.
    pub fn append(&mut self, other: Column) {
        if self.is_empty() && self.data_type() == other.data_type() {
            *self = other;
            return;
        }
        self.extend_validity(other.validity.as_ref(), other.len());
        match (&mut self.data, other.data) {
            (ColumnData::Int(d), ColumnData::Int(s)) => d.extend(s),
            (ColumnData::Double(d), ColumnData::Double(s)) => d.extend(s),
            (ColumnData::Str(d), ColumnData::Str(s)) => d.extend(s),
            (d, s) => d.extend_from(&s),
        }
    }

    /// Append row `row` of `other` (same type, else a panic). A string is copied
    /// unless both columns share one dictionary, where its code is.
    pub fn push_row_of(&mut self, other: &Column, row: usize) {
        let valid = !other.is_null(row);
        self.push_validity(valid);
        match (&mut self.data, &other.data) {
            (ColumnData::Int(d), ColumnData::Int(s)) => d.push(s[row]),
            (ColumnData::Double(d), ColumnData::Double(s)) => d.push(s[row]),
            (
                ColumnData::Dict { dict, codes },
                ColumnData::Dict {
                    dict: from,
                    codes: more,
                },
            ) if Arc::ptr_eq(dict, from) => codes.push(more[row]),
            (d, s) => match (d.data_type(), s.strings()) {
                // Under a NULL, whatever the source holds is not copied.
                (DataType::Str, Some(strings)) => d
                    .plain_mut()
                    .push(if valid { strings.get(row) } else { "" }.to_string()),
                _ => panic!(
                    "type mismatch: cannot append a {} value to a {} column",
                    s.data_type(),
                    d.data_type()
                ),
            },
        }
    }

    /// Record the validity of one row about to be appended: a bitmap appears with
    /// the first NULL.
    fn push_validity(&mut self, valid: bool) {
        if !valid || self.validity.is_some() {
            self.validity_mut().push(valid);
        }
    }

    /// Make room in the validity for `more` rows coming from a column with validity
    /// `src`: a bitmap appears only once one side has NULLs.
    fn extend_validity(&mut self, src: Option<&Bitmap>, more: usize) {
        match (src, &mut self.validity) {
            (Some(src), _) => self.validity_mut().extend_from(src, 0..src.len()),
            (None, Some(validity)) => validity.fill_to(validity.len() + more, true),
            (None, None) => {}
        }
    }

    /// The validity bitmap, made all-valid over the rows there are if there is none.
    pub fn validity_mut(&mut self) -> &mut Bitmap {
        let len = self.len();
        self.validity
            .get_or_insert_with(|| Bitmap::filled(len, true))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn column_data_push_and_get() {
        let mut c = ColumnData::new(DataType::Int);
        c.push(Value::Int(1));
        c.push(Value::Int(2));
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(1), Value::Int(2));
        assert_eq!(c.as_int().unwrap(), &[1, 2]);
        assert!(c.strings().is_none());
    }

    #[test]
    fn int_widens_into_double_column() {
        let mut c = ColumnData::new(DataType::Double);
        c.push(Value::Int(3));
        c.push(Value::Double(1.5));
        assert_eq!(c.as_double().unwrap(), &[3.0, 1.5]);
    }

    #[test]
    #[should_panic(expected = "type mismatch")]
    fn type_mismatch_panics() {
        let mut c = ColumnData::new(DataType::Int);
        c.push(Value::from("nope"));
    }

    #[test]
    fn column_null_handling() {
        let mut c = Column::new(DataType::Int);
        c.push(Value::Int(10));
        c.push(Value::Null);
        c.push(Value::Int(30));
        assert_eq!(c.len(), 3);
        assert_eq!(c.null_count(), 1);
        assert!(c.is_null(1));
        assert!(!c.is_null(0));
        assert_eq!(c.get(0), Value::Int(10));
        assert_eq!(c.get(1), Value::Null);
        assert_eq!(c.get(2), Value::Int(30));
    }

    #[test]
    fn column_without_nulls_has_no_bitmap() {
        let mut c = Column::new(DataType::Str);
        c.push(Value::from("a"));
        c.push(Value::from("b"));
        assert!(c.validity.is_none());
        assert_eq!(c.null_count(), 0);
    }

    #[test]
    fn byte_size_accounting() {
        let c = Column::from_data(ColumnData::Int(vec![1, 2, 3, 4]));
        assert_eq!(c.byte_size(), 32);
        let s = Column::from_data(ColumnData::Str(vec!["ab".into(), "cdef".into()]));
        assert_eq!(s.byte_size(), 2 + 4 + 2 * 24);
        // a coded column: 4 bytes a code, the dictionary once
        let coded = Column::from_data(dict(&["ab", "cdef"], &[1, 1, 0]));
        assert_eq!(coded.byte_size(), 3 * 4 + 2 + 4 + 2 * 24);
    }

    #[test]
    fn with_capacity_preserves_type() {
        let c = ColumnData::with_capacity(DataType::Str, 100);
        assert_eq!(c.data_type(), DataType::Str);
        assert!(c.is_empty());
    }

    fn dict(entries: &[&str], codes: &[u32]) -> ColumnData {
        ColumnData::Dict {
            dict: entries.iter().map(|s| s.to_string()).collect(),
            codes: codes.to_vec(),
        }
    }

    fn plain(values: &[&str]) -> ColumnData {
        ColumnData::Str(values.iter().map(|s| s.to_string()).collect())
    }

    fn dictionary(data: &ColumnData) -> &Arc<[String]> {
        match data {
            ColumnData::Dict { dict, .. } => dict,
            other => panic!("expected a coded column, got {other:?}"),
        }
    }

    #[test]
    fn a_coded_column_reads_and_compares_like_its_plain_twin() {
        let coded = dict(&["x", "a", "unused"], &[1, 0, 1]);
        assert_eq!(coded.data_type(), DataType::Str);
        assert_eq!(coded.len(), 3);
        assert_eq!(coded.get(2), Value::Str("a".into()));
        assert_eq!(coded, plain(&["a", "x", "a"]));
        assert_ne!(coded, plain(&["a", "x", "b"]));
        assert_ne!(coded, ColumnData::Int(vec![0, 1, 0]));
        let strings = coded.strings().unwrap();
        assert_eq!(
            (0..3).map(|r| strings.get(r)).collect::<Vec<_>>(),
            ["a", "x", "a"]
        );
        // pushing turns it plain
        let mut pushed = coded.clone();
        pushed.push(Value::Str("new".into()));
        pushed.push_default();
        assert_eq!(pushed, plain(&["a", "x", "a", "new", ""]));
        assert!(matches!(pushed, ColumnData::Str(_)));
    }

    #[test]
    fn take_keeps_the_dictionary() {
        let coded = Column::from_data(dict(&["p", "q"], &[0, 1, 1, 0]));
        let taken = coded.take(&[3, 1, 1]);
        assert!(Arc::ptr_eq(
            dictionary(&taken.data),
            dictionary(&coded.data)
        ));
        assert_eq!(taken.data, plain(&["p", "q", "q"]));
    }

    #[test]
    fn appends_extend_recode_or_decode() {
        let first = Column::from_data(dict(&["b", "a"], &[0, 1, 0, 1, 0, 1]));
        // the same dictionary: codes extend
        let mut same = first.clone();
        same.extend_from(&first.take(&[1, 0]));
        assert!(Arc::ptr_eq(dictionary(&same.data), dictionary(&first.data)));
        assert_eq!(same.len(), 8);
        // another dictionary with the same entries: re-coded, the dictionary stays
        let mut overlapping = first.clone();
        overlapping.extend_from(&Column::from_data(dict(&["a", "b", "c"], &[0, 0, 1])));
        assert!(Arc::ptr_eq(
            dictionary(&overlapping.data),
            dictionary(&first.data)
        ));
        assert_eq!(
            overlapping.data,
            plain(&["b", "a", "b", "a", "b", "a", "a", "a", "b"])
        );
        // new entries grow it (only the ones used)
        let mut grown = first.clone();
        grown.append(Column::from_data(dict(&["c", "d", "b"], &[0, 2, 0])));
        assert_eq!(&**dictionary(&grown.data), ["b", "a", "c"]);
        assert_eq!(
            grown.data,
            plain(&["b", "a", "b", "a", "b", "a", "c", "b", "c"])
        );
        // a dictionary longer than half the rows is not worth keeping
        let mut disjoint = first.clone();
        disjoint.extend_from(&Column::from_data(dict(
            &["w", "x", "y", "z"],
            &[0, 1, 2, 3],
        )));
        assert!(matches!(disjoint.data, ColumnData::Str(_)));
        assert_eq!(
            disjoint.data,
            plain(&["b", "a", "b", "a", "b", "a", "w", "x", "y", "z"])
        );
        // mixed with plain, either way round; an empty column adopts the coded form
        let mut mixed = Column::from_data(plain(&["p"]));
        mixed.extend_from(&first);
        assert_eq!(mixed.data, plain(&["p", "b", "a", "b", "a", "b", "a"]));
        let mut mixed = first.clone();
        mixed.append(Column::from_data(plain(&["p"])));
        assert_eq!(mixed.data, plain(&["b", "a", "b", "a", "b", "a", "p"]));
        let mut empty = Column::new(DataType::Str);
        empty.extend_from(&first);
        assert!(Arc::ptr_eq(
            dictionary(&empty.data),
            dictionary(&first.data)
        ));
    }

    #[test]
    #[should_panic(expected = "type mismatch")]
    fn appending_a_coded_column_to_ints_is_rejected() {
        let mut ints = Column::from_data(ColumnData::Int(vec![1]));
        ints.extend_from(&Column::from_data(dict(&["a"], &[0])));
    }

    #[test]
    fn push_row_of_copies_codes_only_within_one_dictionary() {
        let mut coded = Column {
            data: dict(&["a", "b"], &[1, 0]),
            validity: Some(Bitmap::from_fn(2, |row| row == 0)),
        };
        let same = coded.clone();
        coded.push_row_of(&same, 0);
        coded.push_row_of(&same, 1);
        assert!(matches!(coded.data, ColumnData::Dict { .. }));
        assert_eq!(coded.get(2), Value::Str("b".into()));
        assert_eq!(coded.get(3), Value::Null);
        let mut plain_keys = Column::new(DataType::Str);
        plain_keys.push_row_of(&same, 0);
        plain_keys.push_row_of(&Column::from_data(dict(&["z"], &[0])), 0);
        assert_eq!(plain_keys.data, plain(&["b", "z"]));
        assert!(plain_keys.validity.is_none());
    }
}
