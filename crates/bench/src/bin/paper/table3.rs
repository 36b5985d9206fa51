//! Table 3: OLTP point-access throughput on the TPC-H customer relation — random
//! `select * from customer where c_custkey = ?` lookups with and without a primary
//! key index, on uncompressed storage (JIT / vectorized scan) and on Data Blocks
//! (with and without PSMAs), for key-ordered and shuffled physical layouts.

use datablocks::{ScanOptions, Value};
use db_bench::{print_table_header, print_table_row};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};
use storage::Relation;

use crate::{Claim, Ctx, Paper, SCALE_FACTOR};

/// How long each configuration runs lookups.
const BUDGET: Duration = Duration::from_millis(300);

/// A shuffled copy of the hot customer relation (no longer ordered on c_custkey).
fn shuffled_copy(customer: &Relation) -> Relation {
    let mut rows: Vec<Vec<Value>> = customer
        .hot_chunks()
        .iter()
        .flat_map(|chunk| (0..chunk.len()).map(|row| chunk.get_row(row)))
        .collect();
    let mut rng = StdRng::seed_from_u64(0x5817FF1E);
    for i in (1..rows.len()).rev() {
        rows.swap(i, rng.gen_range(0..=i));
    }
    let mut out = Relation::with_chunk_capacity(
        "customer_shuffled",
        customer.schema().clone(),
        customer.chunk_capacity(),
    );
    for row in rows {
        out.insert(row);
    }
    out
}

fn lookups_per_second(
    relation: &Relation,
    customers: i64,
    index: bool,
    options: ScanOptions,
) -> f64 {
    let mut rng = StdRng::seed_from_u64(0xACCE55);
    let start = Instant::now();
    let mut done = 0u64;
    while start.elapsed() < BUDGET {
        let key = rng.gen_range(1..=customers);
        let found = if index {
            relation.lookup_pk(key)
        } else {
            relation.lookup_pk_scan(key, options)
        };
        // materialise the whole record, like `select *`
        if let Some(id) = found {
            std::hint::black_box(relation.get_row(id));
        }
        done += 1;
    }
    done as f64 / start.elapsed().as_secs_f64()
}

pub fn run(ctx: &Ctx) -> Vec<Claim> {
    let customers = workloads::tpch::cardinality("customer", SCALE_FACTOR) as i64;
    println!("customer relation: {customers} records (TPC-H sf {SCALE_FACTOR})");

    // the key-ordered and the shuffled customer relation, hot and frozen
    let ordered_hot = ctx.hot.relation("customer");
    let shuffled_hot = shuffled_copy(ordered_hot);
    let mut shuffled_cold = shuffled_copy(ordered_hot);
    shuffled_cold.freeze_all();
    let hot = [ordered_hot, &shuffled_hot];
    let cold = [ctx.frozen.relation("customer"), &shuffled_cold];

    let psma_on = ScanOptions::default();
    let psma_off = ScanOptions {
        use_psma: false,
        ..psma_on
    };

    let widths = [30, 10, 14, 14];
    print_table_header(
        "Table 3: random point-access throughput (lookups/second)",
        &["storage", "index", "ordered", "shuffled"],
        &widths,
    );
    // (label, PK index?, relations, scan options)
    let rows = [
        ("uncompressed", true, hot, psma_off),
        ("uncompressed (scan)", false, hot, psma_off),
        ("Data Blocks", true, cold, psma_off),
        ("Data Blocks (scan, -PSMA)", false, cold, psma_off),
        ("Data Blocks (scan, +PSMA)", false, cold, psma_on),
    ];
    // lookups/second on key-ordered data, per row
    let mut ordered_rates = Vec::new();
    for (label, index, relations, options) in rows {
        let rates = relations.map(|r| lookups_per_second(r, customers, index, options));
        let index_label = if index { "PK" } else { "none" };
        let mut cells = vec![label.to_string(), index_label.to_string()];
        cells.extend(rates.map(|rate| format!("{rate:.0}")));
        print_table_row(&cells, &widths);
        ordered_rates.push(rates[0]);
    }

    // indexed lookups/second from uncompressed to Data Blocks, in percent
    let index_change = (ordered_rates[2] / ordered_rates[0] - 1.0) * 100.0;
    let scan_gain = ordered_rates[4] / ordered_rates[1];
    vec![
        Paper("indexed lookups are slower on Data Blocks than uncompressed, by 40–60 %")
            .ours(format!("{index_change:+.0} %"), index_change < 0.0),
        Paper("on key-ordered data, a +PSMA Data Block scan beats an uncompressed scan")
            .ours(format!("{scan_gain:.2}x"), scan_gain > 1.0),
    ]
}
