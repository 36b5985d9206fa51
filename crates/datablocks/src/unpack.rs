//! Unpacking matches: materialising the attribute values of the matching record
//! positions into uncompressed output vectors that are pushed to the consuming
//! operator tuple at a time (Section 3.4 / Figure 6).
//!
//! Because Data Blocks are byte-addressable, unpacking a *sparse* set of positions is
//! cheap — this is the property Section 5.4 contrasts against bit-packed storage,
//! where sparse decompression dominates the scan cost.

use std::sync::Arc;

use crate::block::DataBlock;
use crate::column::{Column, ColumnData};
use crate::compression::ColumnCompression;
use crate::value::Value;

/// Append the values of attribute `col` at the given positions to `out`.
///
/// `out` must have the attribute's logical type; NULL rows append `Value::Null`
/// (tracked in the output column's validity bitmap). A dictionary-compressed string
/// attribute is appended in coded form ([`ColumnData::Dict`], sharing the block's
/// dictionary), which an empty `out` takes as it is; see [`crate::column`] for what
/// appending it to a non-empty one does.
pub fn unpack_column(block: &DataBlock, col: usize, positions: &[u32], out: &mut Column) {
    let column = block.column(col);
    match &column.compression {
        // Fast paths that avoid per-row Value boxing.
        ColumnCompression::Truncated { min, codes } => {
            if let (ColumnData::Int(dst), None) = (&mut out.data, &column.validity) {
                dst.reserve(positions.len());
                for &pos in positions {
                    dst.push(min.wrapping_add(codes.get(pos as usize) as i64));
                }
                sync_validity(out, positions.len());
                return;
            }
        }
        ColumnCompression::DictInt { dict, codes } => {
            if let (ColumnData::Int(dst), None) = (&mut out.data, &column.validity) {
                dst.reserve(positions.len());
                for &pos in positions {
                    dst.push(dict[codes.get(pos as usize) as usize]);
                }
                sync_validity(out, positions.len());
                return;
            }
        }
        // Strings stay coded: the rows get the block's codes and share its
        // dictionary, so no string is copied (nullable or not).
        ColumnCompression::DictStr { dict, codes } => {
            let validity = column.validity.as_ref().map(|valid| {
                positions
                    .iter()
                    .map(|&pos| valid[pos as usize])
                    .collect::<Vec<_>>()
            });
            out.append(Column {
                data: ColumnData::Dict {
                    dict: Arc::clone(dict),
                    codes: codes.gather_u32(positions),
                },
                validity: validity.filter(|valid| valid.contains(&false)),
            });
            return;
        }
        ColumnCompression::Double(values) => {
            if let (ColumnData::Double(dst), None) = (&mut out.data, &column.validity) {
                dst.reserve(positions.len());
                for &pos in positions {
                    dst.push(values[pos as usize]);
                }
                sync_validity(out, positions.len());
                return;
            }
        }
        ColumnCompression::SingleValue(_) => {}
    }
    // General path: per-row Value extraction (nullable columns, single-value columns,
    // or a type-widening output column).
    for &pos in positions {
        out.push(column.get(pos as usize));
    }
}

/// Keep a pre-existing validity bitmap consistent when a fast path appended
/// `appended` definitely-valid rows directly to the data vector.
fn sync_validity(out: &mut Column, appended: usize) {
    if let Some(validity) = &mut out.validity {
        validity.extend(std::iter::repeat_n(true, appended));
    }
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
    for (slot, &col) in cols.iter().enumerate() {
        unpack_column(block, col, positions, &mut out[slot]);
    }
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
    use crate::value::DataType;

    fn block() -> DataBlock {
        let a = int_column((0..1000).map(|i| i * 2).collect());
        let b = str_column((0..1000).map(|i| format!("g{}", i % 7)).collect());
        let c = double_column((0..1000).map(|i| i as f64 / 4.0).collect());
        freeze(&[a, b, c])
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
