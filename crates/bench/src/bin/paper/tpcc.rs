//! Section 5.3: TPC-C transaction throughput.
//!
//! Experiment 1: the full mix keeps running while old neworder records are frozen
//! into Data Blocks. Experiment 2: the read-only transactions (order-status,
//! stock-level) over a completely hot vs completely frozen database.

use db_bench::{print_table_header, print_table_row};
use workloads::tpcc::measure_throughput;
use workloads::TpccDb;

use crate::{Claim, Ctx, Paper};

const WAREHOUSES: i64 = 5;
/// New-order transactions per write measurement; the read mix runs a quarter.
const WRITE_TXNS: usize = 20_000;

/// Alternate order-status and stock-level; returns transactions per second.
fn read_throughput(db: &mut TpccDb) -> f64 {
    let mut i = 0;
    measure_throughput(WRITE_TXNS / 4, || {
        if i % 2 == 0 {
            std::hint::black_box(db.order_status());
        } else {
            std::hint::black_box(db.stock_level());
        }
        i += 1;
    })
}

pub fn run(_: &Ctx) -> Vec<Claim> {
    let widths = [44, 18];
    let row =
        |label: &str, tps: f64| print_table_row(&[label.into(), format!("{tps:.0}")], &widths);

    // Experiment 1: new-order throughput, hot vs old-neworders-frozen.
    let mut hot = TpccDb::generate(WAREHOUSES);
    let title = format!(
        "TPC-C: new-order throughput ({} warehouses)",
        hot.warehouses()
    );
    print_table_header(&title, &["configuration", "txns/second"], &widths);
    let hot_tps = measure_throughput(WRITE_TXNS, || {
        hot.new_order();
    });
    row("uncompressed", hot_tps);

    let mut frozen = TpccDb::generate(WAREHOUSES);
    for _ in 0..WRITE_TXNS {
        frozen.new_order();
    }
    frozen.freeze_old_neworders();
    let frozen_tps = measure_throughput(WRITE_TXNS, || {
        frozen.new_order();
    });
    row("cold neworder records in Data Blocks", frozen_tps);

    // Experiment 2: read-only transactions, fully hot vs fully frozen.
    print_table_header(
        "TPC-C: read-only transactions (order-status + stock-level)",
        &["configuration", "txns/second"],
        &widths,
    );
    let hot_read_tps = read_throughput(&mut hot);
    row("uncompressed", hot_read_tps);
    frozen.freeze_everything();
    let frozen_read_tps = read_throughput(&mut frozen);
    row("entire database in Data Blocks", frozen_read_tps);

    // throughput change from hot to frozen, in percent
    let write_change = (frozen_tps / hot_tps - 1.0) * 100.0;
    let read_change = (frozen_read_tps / hot_read_tps - 1.0) * 100.0;
    vec![
        Paper("freezing old neworder records costs < 1 % of new-order throughput (89,229 vs 88,699 tps)")
            .ours(format!("{write_change:+.1} %"), write_change > -1.0),
        Paper("the read-only mix is slower on a fully frozen database, by ~9 % (119,889 vs 109,649 tps)")
            .ours(format!("{read_change:+.1} %"), read_change < 0.0),
    ]
}
