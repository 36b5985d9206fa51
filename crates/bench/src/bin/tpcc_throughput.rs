//! Section 5.3: TPC-C transaction throughput.
//!
//! Experiment 1: the full mix keeps running while old neworder records are frozen
//! into Data Blocks. Experiment 2: the read-only transactions (order-status,
//! stock-level) over a completely hot vs completely frozen database.

use db_bench::{env_knob, print_table_header, print_table_row};
use workloads::TpccDb;

fn main() {
    let warehouses: i64 = env_knob("TPCC_WAREHOUSES", 5);
    let write_txns: usize = env_knob("TPCC_TXNS", 20_000);
    let widths = [44usize, 18];

    // Experiment 1: new-order throughput, hot vs old-neworders-frozen.
    print_table_header(
        "TPC-C: new-order throughput (5 warehouses)",
        &["configuration", "txns/second"],
        &widths,
    );
    let mut hot = TpccDb::generate(warehouses);
    let start = std::time::Instant::now();
    for _ in 0..write_txns {
        hot.new_order();
    }
    let hot_tps = write_txns as f64 / start.elapsed().as_secs_f64();
    print_table_row(
        &["uncompressed".to_string(), format!("{hot_tps:.0}")],
        &widths,
    );

    let mut frozen = TpccDb::generate(warehouses);
    for _ in 0..write_txns {
        frozen.new_order();
    }
    frozen.freeze_old_neworders();
    let start = std::time::Instant::now();
    for _ in 0..write_txns {
        frozen.new_order();
    }
    let frozen_tps = write_txns as f64 / start.elapsed().as_secs_f64();
    print_table_row(
        &[
            "cold neworder records in Data Blocks".to_string(),
            format!("{frozen_tps:.0}"),
        ],
        &widths,
    );

    // Experiment 2: read-only transactions, fully hot vs fully frozen.
    print_table_header(
        "TPC-C: read-only transactions (order-status + stock-level)",
        &["configuration", "txns/second"],
        &widths,
    );
    let read_txns = write_txns / 4;
    let run_reads = |db: &mut TpccDb| {
        let start = std::time::Instant::now();
        for i in 0..read_txns {
            if i % 2 == 0 {
                std::hint::black_box(db.order_status());
            } else {
                std::hint::black_box(db.stock_level());
            }
        }
        read_txns as f64 / start.elapsed().as_secs_f64()
    };
    let hot_read_tps = run_reads(&mut hot);
    print_table_row(
        &["uncompressed".to_string(), format!("{hot_read_tps:.0}")],
        &widths,
    );
    frozen.freeze_everything();
    let frozen_read_tps = run_reads(&mut frozen);
    print_table_row(
        &[
            "entire database in Data Blocks".to_string(),
            format!("{frozen_read_tps:.0}"),
        ],
        &widths,
    );

    println!("\nExpected shape (paper): freezing old neworder records costs <1% of write");
    println!("throughput (89,229 vs 88,699 tps); the read-only mix loses ~9% when the whole");
    println!("database is frozen (119,889 vs 109,649 tps).");
    println!(
        "\nMeasured deltas: writes {:.1}% , reads {:.1}%",
        (1.0 - frozen_tps / hot_tps) * 100.0,
        (1.0 - frozen_read_tps / hot_read_tps) * 100.0
    );
}
