//! Quickstart: freeze a chunk into a Data Block, run SARGable scans on the
//! compressed data, and read individual records back.
//!
//! Run with: `cargo run --release --example quickstart`

use data_blocks::datablocks::builder::{freeze, int_column, str_column};
use data_blocks::datablocks::{scan_collect, CmpOp, Restriction, ScanOptions, Value};

fn main() {
    // A cold chunk of an orders-like relation: 65 536 records, three attributes.
    let n = 1 << 16;
    let order_id = int_column((0..n as i64).collect());
    let quantity = int_column((0..n as i64).map(|i| 1 + (i * 7) % 50).collect());
    let status = str_column(
        (0..n)
            .map(|i| ["OPEN", "SHIPPED", "RETURNED"][i % 3].to_string())
            .collect(),
    );

    // Freeze it: each attribute gets the compression scheme optimal for its domain,
    // plus SMA (min/max) and PSMA (positional) light-weight indexes.
    let block = freeze(&[order_id, quantity, status]);
    println!(
        "frozen {} records into a Data Block of {} bytes",
        block.tuple_count(),
        block.byte_size()
    );
    for (idx, column) in block.columns().enumerate() {
        println!("  attribute {idx}: {:?}", column.compression.kind());
    }

    // Point access: O(1) on compressed data — this is what keeps OLTP fast.
    assert_eq!(block.get(4711, 0), Value::Int(4711));
    println!(
        "record 4711 = ({}, {}, {})",
        block.get(4711, 0),
        block.get(4711, 1),
        block.get(4711, 2)
    );

    // SARGable scan: predicates are evaluated on the compressed code words with SIMD,
    // the match positions are returned, and only matches are unpacked.
    let matches = scan_collect(
        &block,
        &[
            Restriction::between(1, 10i64, 19i64),
            Restriction::eq(2, "SHIPPED"),
        ],
        ScanOptions::default(),
    );
    println!(
        "scan: {} records have quantity in [10,19] and status SHIPPED",
        matches.len()
    );

    // The same scan with a restriction outside the block's value domain is answered
    // from the SMA alone, without touching the data.
    let none = scan_collect(
        &block,
        &[Restriction::cmp(1, CmpOp::Gt, 1_000i64)],
        ScanOptions::default(),
    );
    assert!(none.is_empty());
    println!("scan with impossible predicate touched no data (SMA block skipping)");
}
