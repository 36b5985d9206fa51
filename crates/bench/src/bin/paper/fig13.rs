//! Figure 13 (Appendix A): impact of the scan vector size on query performance —
//! geometric mean of the reproduced TPC-H query subset for vector sizes from 256 to
//! 64K records, on uncompressed storage and on Data Blocks.

use db_bench::{fmt_duration, geometric_mean, print_table_header, print_table_row};
use exec::ScanConfig;

use crate::table2::query_runtimes;
use crate::{Claim, Ctx, Paper};

pub fn run(ctx: &Ctx) -> Vec<Claim> {
    let storages = [
        (&ctx.hot, "vectorized+sarg"),
        (&ctx.frozen, "datablocks+psma"),
    ];
    let widths = [12, 22, 20];
    print_table_header(
        "Figure 13: geometric mean of TPC-H query runtimes vs vector size",
        &["vector", "vectorized (uncomp.)", "Data Block scan"],
        &widths,
    );
    let mut sweep = Vec::new();
    for exp in 8..=16 {
        let vector = 1usize << exp;
        let geo = storages.map(|(db, config)| {
            let mut config = ScanConfig::named(config);
            config.options.vector_size = vector;
            geometric_mean(&query_runtimes(db, config))
        });
        let mut cells = vec![format!("{vector}")];
        cells.extend(geo.map(fmt_duration));
        print_table_row(&cells, &widths);
        sweep.push(geo);
    }
    // runtime at 256 (row 0) and at 64K records (row 8) over 8K records (row 5)
    let vs_8k =
        |row: usize| [0, 1].map(|s| sweep[row][s].as_secs_f64() / sweep[5][s].as_secs_f64());
    let fmt = |r: [f64; 2]| format!("{:.2}x / {:.2}x (uncompressed / Data Blocks)", r[0], r[1]);
    let (small, large) = (vs_8k(0), vs_8k(8));
    vec![
        Paper("very small vectors (256 records) are slower than 8K-record vectors")
            .ours(fmt(small), small.iter().all(|&r| r > 1.0)),
        Paper("vectors past cache capacity (64K records) are slower than 8K-record vectors")
            .ours(fmt(large), large.iter().all(|&r| r > 1.0)),
    ]
}
