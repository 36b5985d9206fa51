//! Figure 10: compression ratio as a function of the number of records per Data
//! Block (2^11 … 2^16) for TPC-H, IMDB cast_info and the flights data set.

use db_bench::{print_table_header, print_table_row};
use storage::Relation;
use workloads::{flights, imdb, TpchDb};

use crate::{Claim, Ctx, Paper, SCALE_FACTOR};

/// Records of the IMDB and the flights relation.
const ROWS: usize = 150_000;

/// Uncompressed over compressed bytes of the frozen `relations`.
fn ratio<'a>(relations: impl IntoIterator<Item = &'a Relation>) -> f64 {
    let (mut compressed, mut uncompressed) = (0, 0);
    for relation in relations {
        let stats = relation.storage_stats();
        compressed += stats.cold_bytes;
        uncompressed += stats.cold_bytes_uncompressed;
    }
    uncompressed as f64 / compressed as f64
}

pub fn run(_: &Ctx) -> Vec<Claim> {
    let widths = [10, 10, 10, 10];
    print_table_header(
        "Figure 10: compression ratio vs records per Data Block",
        &["records", "TPC-H", "IMDB", "Flights"],
        &widths,
    );
    // per block size: the TPC-H, IMDB and flights ratio
    let mut ratios = Vec::new();
    for exp in 11..=16 {
        let block = 1usize << exp;
        let mut tpch = TpchDb::generate_with_chunk(SCALE_FACTOR, block);
        tpch.freeze();
        let [mut cast, mut fl] = [imdb::generate(ROWS, block), flights::generate(ROWS, block)];
        cast.freeze_all();
        fl.freeze_all();
        let row = [ratio(tpch.db.relations()), ratio([&cast]), ratio([&fl])];
        let mut cells = vec![format!("{block}")];
        cells.extend(row.map(|ratio| format!("{ratio:.2}x")));
        print_table_row(&cells, &widths);
        ratios.push(row);
    }

    let growth = |from: usize| [0, 1, 2].map(|set| ratios[5][set] / ratios[from][set]);
    let fmt = |g: [f64; 3]| g.map(|g| format!("{g:.2}x")).join(" / ");
    let grows = ratios
        .windows(2)
        .all(|w| (0..3).all(|set| w[1][set] > w[0][set]));
    vec![
        Paper("compression ratios grow with every doubling of the block size").ours(
            format!("2^11 → 2^16: {} (TPC-H / IMDB / Flights)", fmt(growth(0))),
            grows,
        ),
        Paper("ratios flatten around 2^16: doubling 2^15 to 2^16 adds < 5 %")
            .ours(fmt(growth(4)), growth(4).iter().all(|&g| g < 1.05)),
    ]
}
