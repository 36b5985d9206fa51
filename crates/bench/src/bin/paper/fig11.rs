//! Figure 11: speedup of TPC-H Q6 when each lineitem Data Block is sorted on
//! l_shipdate at freeze time, isolating the PSMA contribution.

use db_bench::{fmt_duration, print_table_header, print_table_row, time_median};
use exec::ScanConfig;
use workloads::tpch::{q6, TpchDb};

use crate::{Claim, Ctx, Paper, SCALE_FACTOR};

pub fn run(ctx: &Ctx) -> Vec<Claim> {
    let mut sorted = TpchDb::generate(SCALE_FACTOR);
    sorted.freeze_lineitem_sorted_by_shipdate();
    let runs = [
        ("JIT (uncompressed)", &ctx.hot, "jit"),
        ("Vectorized (uncompressed)", &ctx.hot, "vectorized+sarg"),
        ("Data Blocks (+PSMA)", &ctx.frozen, "datablocks+psma"),
        ("+SORT (-PSMA)", &sorted, "datablocks+sarg"),
        ("+SORT (+PSMA)", &sorted, "datablocks+psma"),
    ];
    let widths = [28, 12, 12, 14];
    print_table_header(
        "Figure 11: TPC-H Q6 on block-wise sorted lineitem",
        &["configuration", "runtime", "speedup", "rows scanned"],
        &widths,
    );
    // (speedup over JIT, rows scanned) per configuration
    let mut results = Vec::new();
    let mut baseline = None;
    for (label, db, config) in runs {
        let config = ScanConfig::named(config);
        let (result, elapsed) = time_median(3, || q6(db, config));
        let speedup = baseline.get_or_insert(elapsed).as_secs_f64() / elapsed.as_secs_f64();
        let rows = result.scan_stats.rows_scanned;
        print_table_row(
            &[
                label.to_string(),
                fmt_duration(elapsed),
                format!("{speedup:.2}x"),
                format!("{rows}"),
            ],
            &widths,
        );
        results.push((speedup, rows));
    }

    let (unsorted, sorted) = (results[2], results[4]);
    let next_best = results[..4].iter().map(|r| r.0).fold(0.0, f64::max);
    vec![
        Paper("sorting blocks on l_shipdate lets the PSMA narrow the Q6 scan drastically").ours(
            format!("rows scanned {} → {}", unsorted.1, sorted.1),
            sorted.1 < unsorted.1,
        ),
        Paper("+SORT (+PSMA) is the largest speedup over JIT").ours(
            format!("{:.2}x, next best {next_best:.2}x", sorted.0),
            sorted.0 > next_best,
        ),
    ]
}
