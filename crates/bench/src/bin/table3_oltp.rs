//! Table 3: OLTP point-access throughput on the TPC-H customer relation — random
//! `select * from customer where c_custkey = ?` lookups with and without a primary
//! key index, on uncompressed storage (JIT / vectorized scan) and on Data Blocks
//! (with and without PSMAs), for key-ordered and shuffled physical layouts.

use datablocks::{ScanOptions, Value};
use db_bench::{env_knob, print_table_header, print_table_row, tpch_scale_factor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use storage::Relation;
use workloads::TpchDb;

/// Build a shuffled copy of the customer relation (no longer ordered on c_custkey).
fn shuffled_copy(customer: &Relation) -> Relation {
    let mut rows: Vec<Vec<Value>> = Vec::with_capacity(customer.row_count());
    for chunk in customer.hot_chunks() {
        for row in 0..chunk.len() {
            rows.push(chunk.get_row(row));
        }
    }
    for idx in 0..customer.cold_block_count() {
        let block = customer.cold_block(idx);
        for row in 0..block.tuple_count() as usize {
            rows.push(
                (0..block.column_count())
                    .map(|c| block.get(row, c))
                    .collect(),
            );
        }
    }
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
    use_index: bool,
    options: ScanOptions,
    budget: std::time::Duration,
) -> f64 {
    let mut rng = StdRng::seed_from_u64(0xACCE55);
    let start = std::time::Instant::now();
    let mut done = 0u64;
    while start.elapsed() < budget {
        let key = rng.gen_range(1..=customers);
        let found = if use_index {
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

fn main() {
    let sf = tpch_scale_factor();
    let customers = workloads::tpch::cardinality("customer", sf) as i64;
    println!("customer relation: {customers} records (TPC-H sf {sf})");
    let budget = std::time::Duration::from_millis(env_knob("OLTP_MS", 300));

    // ordered and shuffled variants
    let base = TpchDb::generate(sf);
    let ordered_hot = base.relation("customer");
    let shuffled_hot = shuffled_copy(ordered_hot);
    let mut ordered_cold_db = TpchDb::generate(sf);
    ordered_cold_db.db.relation_mut("customer").freeze_all();
    let ordered_cold = ordered_cold_db.relation("customer");
    let mut shuffled_cold = shuffled_copy(ordered_hot);
    shuffled_cold.freeze_all();

    let psma_on = ScanOptions::default();
    let psma_off = ScanOptions {
        use_psma: false,
        ..ScanOptions::default()
    };

    let widths = [30usize, 10, 14, 14];
    print_table_header(
        "Table 3: random point-access throughput (lookups/second)",
        &["storage", "index", "ordered", "shuffled"],
        &widths,
    );
    let rows: Vec<(&str, bool, &Relation, &Relation, ScanOptions)> = vec![
        ("uncompressed", true, ordered_hot, &shuffled_hot, psma_off),
        (
            "uncompressed (scan)",
            false,
            ordered_hot,
            &shuffled_hot,
            psma_off,
        ),
        ("Data Blocks", true, ordered_cold, &shuffled_cold, psma_off),
        (
            "Data Blocks (scan, -PSMA)",
            false,
            ordered_cold,
            &shuffled_cold,
            psma_off,
        ),
        (
            "Data Blocks (scan, +PSMA)",
            false,
            ordered_cold,
            &shuffled_cold,
            psma_on,
        ),
    ];
    for (label, index, ordered, shuffled, options) in rows {
        let ordered_rate = lookups_per_second(ordered, customers, index, options, budget);
        let shuffled_rate = lookups_per_second(shuffled, customers, index, options, budget);
        print_table_row(
            &[
                label.to_string(),
                if index { "PK" } else { "none" }.to_string(),
                format!("{ordered_rate:.0}"),
                format!("{shuffled_rate:.0}"),
            ],
            &widths,
        );
    }
    println!("\nExpected shape (paper): indexed lookups are fastest and ~40-60% slower on Data");
    println!("Blocks than uncompressed; without an index, Data Block scans beat uncompressed");
    println!("scans on key-ordered data (SMAs/PSMAs narrow the scan) but not on shuffled data.");
}
