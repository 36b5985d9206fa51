//! Section 5.2: the flights query (Appendix D) — average arrival delay per carrier
//! into SFO for 1998–2008 — comparing a JIT-style scan on uncompressed storage with
//! Data Block scans using SMAs and PSMAs on the naturally date-ordered data set.

use datablocks::DEFAULT_BLOCK_CAPACITY;
use db_bench::{fmt_duration, print_table_header, print_table_row, time_median};
use exec::ScanConfig;
use workloads::flights;

use crate::{Claim, Ctx, Paper};

/// Records of the flights relation.
const ROWS: usize = 500_000;

pub fn run(ctx: &Ctx) -> Vec<Claim> {
    let threads = ctx.threads;
    println!("{ROWS} flight rows (scan threads: {threads})");
    let hot = flights::generate(ROWS, DEFAULT_BLOCK_CAPACITY);
    let mut cold = flights::generate(ROWS, DEFAULT_BLOCK_CAPACITY);
    cold.freeze_all();
    let configs = [
        ("JIT (uncompressed)", &hot, "jit"),
        ("Vectorized +SARG (uncompressed)", &hot, "vectorized+sarg"),
        ("Data Blocks +SARG/SMA", &cold, "datablocks+sarg"),
        ("Data Blocks +PSMA", &cold, "datablocks+psma"),
    ];
    let widths = [32, 12, 10, 16, 14];
    print_table_header(
        "Flights query: avg arrival delay per carrier into SFO, 1998-2008",
        &[
            "configuration",
            "runtime",
            "speedup",
            "blocks skipped",
            "rows scanned",
        ],
        &widths,
    );
    // (speedup over JIT, blocks skipped, rows scanned) per configuration
    let mut results = Vec::new();
    let mut baseline = None;
    for (label, relation, config) in configs {
        let config = ScanConfig::named(config).with_threads(threads);
        let ((_, stats), elapsed) = time_median(3, || flights::sfo_delay_query(relation, config));
        let speedup = baseline.get_or_insert(elapsed).as_secs_f64() / elapsed.as_secs_f64();
        print_table_row(
            &[
                label.to_string(),
                fmt_duration(elapsed),
                format!("{speedup:.1}x"),
                format!("{}/{}", stats.blocks_skipped, stats.blocks_total),
                format!("{}", stats.rows_scanned),
            ],
            &widths,
        );
        results.push((speedup, stats.blocks_skipped, stats.rows_scanned));
    }

    let ((_, skipped, sma_rows), (psma_gain, _, psma_rows)) = (results[2], results[3]);
    vec![
        Paper("Data Blocks +PSMA run the flights query >20x faster than the JIT scan")
            .ours(format!("{psma_gain:.1}x"), psma_gain > 20.0),
        Paper("on date-ordered data, SMAs skip blocks and PSMAs narrow the rest").ours(
            format!("{skipped} blocks skipped; rows scanned {sma_rows} → {psma_rows}"),
            skipped > 0 && psma_rows < sma_rows,
        ),
    ]
}
