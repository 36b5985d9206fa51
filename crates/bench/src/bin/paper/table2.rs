//! Table 2 / Table 4: TPC-H query runtimes under the six scan configurations —
//! JIT-compiled scan and vectorized scan (±SARG) on uncompressed storage, and Data
//! Block scans (plain, +SARG/SMA, +PSMA) on compressed storage.
//!
//! The reproduced query subset is Q1, Q3, Q6, Q12 and Q14 (the scan-dominated
//! queries the paper's storage comparison exercises most directly).

use db_bench::{fmt_duration, geometric_mean, print_table_header, print_table_row, time_median};
use exec::ScanConfig;
use std::time::Duration;
use workloads::tpch::{run_query, TpchDb, QUERY_SUBSET};

use crate::{Claim, Ctx, Paper, SCALE_FACTOR};

/// The runtime of each query of [`QUERY_SUBSET`] under `config`.
pub fn query_runtimes(db: &TpchDb, config: ScanConfig) -> Vec<Duration> {
    QUERY_SUBSET
        .iter()
        .map(|q| time_median(3, || run_query(db, q, config)).1)
        .collect()
}

pub fn run(ctx: &Ctx) -> Vec<Claim> {
    let threads = ctx.threads;
    println!("TPC-H scale factor {SCALE_FACTOR} (scan threads: {threads})");
    // (label, database, scan configuration)
    let configs = [
        ("JIT (uncompressed)", &ctx.hot, "jit"),
        ("Vectorized (uncompressed)", &ctx.hot, "vectorized"),
        ("+ SARG", &ctx.hot, "vectorized+sarg"),
        ("Data Blocks (compressed)", &ctx.frozen, "datablocks"),
        ("+ SARG/SMA", &ctx.frozen, "datablocks+sarg"),
        ("+ PSMA", &ctx.frozen, "datablocks+psma"),
    ];

    let widths = [28, 10, 10, 10, 10, 10, 12, 12];
    let header = [&["scan type"], QUERY_SUBSET, &["geo. mean", "sum"]].concat();
    print_table_header(
        "Table 2 / Table 4: TPC-H query runtimes by scan type",
        &header,
        &widths,
    );
    // per configuration: each query's runtime, and their geometric mean
    let mut rows: Vec<(Vec<Duration>, Duration)> = Vec::new();
    for (label, db, config) in configs {
        let runtimes = query_runtimes(db, ScanConfig::named(config).with_threads(threads));
        let geo = geometric_mean(&runtimes);
        let speedup = rows.first().map_or(geo, |first| first.1).as_secs_f64() / geo.as_secs_f64();
        let mut cells = vec![label.to_string()];
        cells.extend(runtimes.iter().map(|d| fmt_duration(*d)));
        cells.push(format!("{} ({speedup:.2}x)", fmt_duration(geo)));
        cells.push(fmt_duration(runtimes.iter().sum()));
        print_table_row(&cells, &widths);
        rows.push((runtimes, geo));
    }

    // + SARG/SMA (row 4) over Data Blocks without SARG (row 3)
    let gain = |plain: &Duration, sarg: &Duration| plain.as_secs_f64() / sarg.as_secs_f64();
    let geo_gain = gain(&rows[3].1, &rows[4].1);
    let gains = rows[3].0.iter().zip(&rows[4].0).map(|(p, s)| gain(p, s));
    let (best, best_gain) = QUERY_SUBSET
        .iter()
        .zip(gains)
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .expect("five queries");
    vec![
        Paper("+SARG/SMA beats Data Blocks without SARG in the geometric mean (1.26x)")
            .ours(format!("{geo_gain:.2}x"), geo_gain > 1.0),
        Paper("Q6 gains the most from +SARG/SMA (6.7x)")
            .ours(format!("most: {best} {best_gain:.1}x"), *best == "Q6"),
    ]
}
