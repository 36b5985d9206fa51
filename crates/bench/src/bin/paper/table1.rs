//! Table 1: database sizes for TPC-H, IMDB cast_info and the flights data set,
//! comparing uncompressed in-memory storage, compressed Data Blocks and the heavy
//! (Vectorwise-style PFOR/PDICT) baseline.

use bitpack::HeavyColumn;
use datablocks::{DataType, Value, DEFAULT_BLOCK_CAPACITY};
use db_bench::{fmt_bytes, print_table_header, print_table_row};
use storage::Relation;
use workloads::{flights, imdb};

use crate::{Claim, Ctx, Paper, SCALE_FACTOR};

/// Records of the IMDB and the flights relation.
const ROWS: usize = 200_000;

/// Whole-column heavy compression over each frozen block's logical columns. The
/// codec follows the attribute's declared type: a nullable string column whose
/// first row is NULL is still compressed as strings.
fn heavy_size(relation: &Relation) -> usize {
    let mut total = 0;
    for idx in 0..relation.cold_block_count() {
        let block = relation.cold_block(idx);
        for col in 0..block.column_count() {
            let values = (0..block.tuple_count() as usize).map(|r| block.get(r, col));
            total += match relation.schema().column(col).data_type {
                DataType::Str => {
                    let strings: Vec<String> = values
                        .map(|v| v.as_str().unwrap_or("").to_string())
                        .collect();
                    HeavyColumn::compress_strings(&strings).byte_size()
                }
                DataType::Int | DataType::Double => {
                    let ints: Vec<i64> = values
                        .map(|v| match v {
                            Value::Int(v) => v,
                            Value::Double(v) => (v * 100.0) as i64,
                            _ => 0,
                        })
                        .collect();
                    HeavyColumn::compress_ints(&ints).byte_size()
                }
            };
        }
    }
    total
}

/// Print one data set's row; returns its uncompressed, Data Blocks and heavy bytes.
fn report(name: &str, relations: &[&Relation], widths: &[usize]) -> [usize; 3] {
    let sizes = [
        relations
            .iter()
            .map(|r| r.storage_stats().cold_bytes_uncompressed)
            .sum(),
        relations.iter().map(|r| r.storage_stats().cold_bytes).sum(),
        relations.iter().map(|r| heavy_size(r)).sum(),
    ];
    let ratio = |bytes: usize| format!("{:.2}x", sizes[0] as f64 / bytes.max(1) as f64);
    let mut cells = vec![name.to_string()];
    cells.extend(sizes.map(fmt_bytes));
    cells.extend([ratio(sizes[1]), ratio(sizes[2])]);
    print_table_row(&cells, widths);
    sizes
}

pub fn run(ctx: &Ctx) -> Vec<Claim> {
    let widths = [14, 14, 14, 16, 12, 12];
    print_table_header(
        "Table 1: database sizes (uncompressed vs Data Blocks vs heavy/PFOR baseline)",
        &[
            "data set",
            "uncompressed",
            "Data Blocks",
            "heavy (PFOR)",
            "DB ratio",
            "heavy ratio",
        ],
        &widths,
    );
    let tpch: Vec<&Relation> = ctx.frozen.db.relations().collect();
    let [uncompressed, datablocks, heavy] =
        report(&format!("TPC-H sf{SCALE_FACTOR}"), &tpch, &widths);
    let mut cast = imdb::generate(ROWS, DEFAULT_BLOCK_CAPACITY);
    cast.freeze_all();
    report("IMDB cast_info", &[&cast], &widths);
    let mut fl = flights::generate(ROWS, DEFAULT_BLOCK_CAPACITY);
    fl.freeze_all();
    report("Flights", &[&fl], &widths);

    let ratio = uncompressed as f64 / datablocks as f64;
    let smaller = (1.0 - heavy as f64 / datablocks as f64) * 100.0;
    vec![
        Paper("Data Blocks compress TPC-H at least 1.9x (SF 100: 126 GB → 66 GB)")
            .ours(format!("{ratio:.2}x"), ratio >= 1.9),
        Paper("heavy compression (Vectorwise) is ~25 % smaller than Data Blocks")
            .ours(format!("TPC-H: {smaller:.0} % smaller"), heavy < datablocks),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use storage::{ColumnDef, Schema};

    #[test]
    fn heavy_size_compresses_a_null_led_string_column_as_strings() {
        let schema = Schema::new(vec![ColumnDef::nullable("note", DataType::Str)]);
        let mut relation = Relation::with_chunk_capacity("notes", schema, 64);
        for row in 0..256 {
            relation.insert(vec![if row % 64 == 0 || row % 3 == 0 {
                Value::Null
            } else {
                Value::Str(format!("(note {})", row % 5))
            }]);
        }
        relation.freeze_all();
        assert_eq!(relation.cold_block_count(), 4);
        let expected: usize = (0..4)
            .map(|idx| {
                let block = relation.cold_block(idx);
                assert!(block.get(0, 0).is_null());
                let values: Vec<String> = (0..block.tuple_count() as usize)
                    .map(|r| block.get(r, 0).as_str().unwrap_or("").to_string())
                    .collect();
                HeavyColumn::compress_strings(&values).byte_size()
            })
            .sum();
        assert_eq!(heavy_size(&relation), expected);
    }
}
