//! Freezing cold chunks into Data Blocks.
//!
//! When the storage layer identifies a chunk as cold it is *frozen*: each attribute
//! is compressed with the scheme that is optimal for its value distribution in that
//! chunk, the same pass over its values yields its SMA, its PSMA is built, and the
//! result becomes an immutable [`DataBlock`]. Freezing may optionally re-order the
//! chunk by a sort attribute to cluster similar values, which sharpens the PSMA
//! ranges (Section 3.2; this is what the paper's Figure 11 experiment does to
//! `l_shipdate`).

use crate::block::{BlockColumn, DataBlock};
use crate::column::{Column, ColumnData};
use crate::compression::ColumnCompression;

/// Freeze a chunk (one [`Column`] per attribute, all of equal length) into a Data
/// Block, preserving the insertion order of the records.
///
/// # Panics
///
/// Panics if the columns have differing lengths or the chunk is empty — both are
/// storage-layer invariants, not runtime conditions.
pub fn freeze(columns: &[Column]) -> DataBlock {
    assert!(
        !columns.is_empty(),
        "cannot freeze a chunk with no attributes"
    );
    let rows = columns[0].len();
    assert!(rows > 0, "cannot freeze an empty chunk");
    assert!(
        columns.iter().all(|c| c.len() == rows),
        "all attributes of a chunk must have the same length"
    );
    assert!(
        rows <= u32::MAX as usize,
        "a Data Block addresses records with 32-bit positions"
    );

    let block_columns = columns.iter().map(freeze_column).collect();
    DataBlock::from_parts(rows as u32, block_columns)
}

/// Freeze a chunk after re-ordering its records by ascending value of attribute
/// `sort_by` (NULLs first). All attributes are permuted consistently, so the block
/// still represents the same set of tuples.
pub fn freeze_sorted(columns: &[Column], sort_by: usize) -> DataBlock {
    assert!(sort_by < columns.len(), "sort attribute out of range");
    let rows = columns[0].len();
    let mut permutation: Vec<u32> = (0..rows as u32).collect();
    let key = &columns[sort_by];
    permutation.sort_by(|&a, &b| key.get(a as usize).total_cmp(&key.get(b as usize)));

    let reordered: Vec<Column> = columns.iter().map(|c| c.take(&permutation)).collect();
    freeze(&reordered)
}

fn freeze_column(column: &Column) -> BlockColumn {
    // One pass over the attribute's values chooses its scheme and yields its SMA.
    let (compression, sma, validity) = ColumnCompression::compress(column);
    // The PSMA indexes the compressed code words: for truncation the code *is* the
    // delta to the SMA minimum (exactly the paper's Δ(v)), for dictionaries the code
    // order mirrors the value order because the dictionaries are order-preserving.
    BlockColumn::frozen(compression, sma, validity)
}

/// Total uncompressed in-memory size of a chunk in bytes (for compression-ratio
/// reporting).
pub fn uncompressed_size(columns: &[Column]) -> usize {
    columns.iter().map(|c| c.byte_size()).sum()
}

/// Helper: an integer column without NULLs.
pub fn int_column(values: Vec<i64>) -> Column {
    Column::from_data(ColumnData::Int(values))
}

/// Helper: a double column without NULLs.
pub fn double_column(values: Vec<f64>) -> Column {
    Column::from_data(ColumnData::Double(values))
}

/// Helper: a string column without NULLs.
pub fn str_column(values: Vec<String>) -> Column {
    Column::from_data(ColumnData::Str(values))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::{DataType, Value};

    #[test]
    fn freeze_roundtrips_every_value() {
        let a = int_column((0..1000).map(|i| i % 97).collect());
        let b = str_column((0..1000).map(|i| format!("v{}", i % 13)).collect());
        let c = double_column((0..1000).map(|i| i as f64 * 0.25).collect());
        let block = freeze(&[a.clone(), b.clone(), c.clone()]);
        for row in (0..1000).step_by(37) {
            assert_eq!(block.get(row, 0), a.get(row));
            assert_eq!(block.get(row, 1), b.get(row));
            assert_eq!(block.get(row, 2), c.get(row));
        }
    }

    #[test]
    fn freeze_preserves_nulls() {
        let mut col = Column::new(DataType::Int);
        for i in 0..100 {
            if i % 10 == 0 {
                col.push(Value::Null);
            } else {
                col.push(Value::Int(i));
            }
        }
        let block = freeze(&[col.clone()]);
        for row in 0..100 {
            assert_eq!(block.get(row, 0), col.get(row), "row {row}");
        }
    }

    #[test]
    fn freeze_sorted_clusters_values() {
        let key = int_column(vec![5, 1, 9, 3, 7]);
        let payload = str_column(vec![
            "e".into(),
            "a".into(),
            "i".into(),
            "c".into(),
            "g".into(),
        ]);
        let block = freeze_sorted(&[key, payload], 0);
        let keys: Vec<Value> = (0..5).map(|r| block.get(r, 0)).collect();
        assert_eq!(
            keys,
            vec![
                Value::Int(1),
                Value::Int(3),
                Value::Int(5),
                Value::Int(7),
                Value::Int(9)
            ]
        );
        // The payload column is permuted consistently.
        assert_eq!(block.get(0, 1), Value::Str("a".into()));
        assert_eq!(block.get(4, 1), Value::Str("i".into()));
    }

    #[test]
    fn a_coded_column_freezes_like_its_plain_twin() {
        // A shuffled dictionary with an unused entry, and a NULL row: freezing reads
        // the strings, not the codes, so the blocks are identical.
        let mut plain = Column::new(DataType::Str);
        for value in ["pear", "apple", "", "pear"] {
            plain.push(Value::from(value));
        }
        plain.push(Value::Null);
        let coded = Column {
            data: ColumnData::Dict {
                dict: ["fig", "pear", "", "apple"].map(String::from).into(),
                codes: vec![1, 3, 2, 1, 0],
            },
            validity: plain.validity.clone(),
        };
        assert_eq!(
            freeze(std::slice::from_ref(&coded)),
            freeze(std::slice::from_ref(&plain))
        );
        assert_eq!(freeze_sorted(&[coded], 0), freeze_sorted(&[plain], 0));
    }

    #[test]
    fn compression_shrinks_typical_chunks() {
        // low-cardinality strings + dense ints compress well below uncompressed size
        let a = int_column((0..10_000).map(|i| 20_000 + (i % 500)).collect());
        let b = str_column((0..10_000).map(|i| format!("status-{}", i % 4)).collect());
        let uncompressed = uncompressed_size(&[a.clone(), b.clone()]);
        let block = freeze(&[a, b]);
        assert!(
            block.byte_size() * 3 < uncompressed,
            "expected >3x compression, got {} vs {}",
            block.byte_size(),
            uncompressed
        );
    }

    #[test]
    #[should_panic(expected = "same length")]
    fn freeze_rejects_ragged_chunks() {
        let a = int_column(vec![1, 2, 3]);
        let b = int_column(vec![1]);
        freeze(&[a, b]);
    }

    #[test]
    #[should_panic(expected = "empty chunk")]
    fn freeze_rejects_empty_chunks() {
        freeze(&[int_column(vec![])]);
    }
}
