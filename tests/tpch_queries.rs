//! Integration tests for the TPC-H workload: results must be identical across every
//! scan configuration and consistent with hand-computed expectations on the
//! generated data.

use data_blocks::exec::ScanConfig;
use data_blocks::workloads::tpch::{self, TpchDb};

fn db() -> TpchDb {
    let mut db = TpchDb::generate_with_chunk(0.002, 2_048);
    db.freeze();
    db
}

#[test]
fn all_queries_agree_across_all_scan_configurations() {
    let db = db();
    for query in tpch::QUERY_SUBSET {
        let reference = tpch::run_query(&db, query, ScanConfig::named("jit")).batch;
        for config in [
            "vectorized",
            "vectorized+sarg",
            "datablocks",
            "datablocks+sarg",
            "datablocks+psma",
        ] {
            let result = tpch::run_query(&db, query, ScanConfig::named(config)).batch;
            assert_eq!(result.len(), reference.len(), "{query} under {config}");
            for row in 0..reference.len() {
                assert_eq!(
                    result.row(row),
                    reference.row(row),
                    "{query} under {config}, row {row}"
                );
            }
        }
    }
}

#[test]
fn q1_aggregates_are_internally_consistent() {
    let db = db();
    let result = tpch::q1(&db, ScanConfig::default()).batch;
    // count > 0 for every group, avg_qty = sum_qty / count
    for row in 0..result.len() {
        let sum_qty = result.value(row, 2).as_int().unwrap() as f64;
        let avg_qty = result.value(row, 6).as_double().unwrap();
        let count = result.value(row, 9).as_int().unwrap() as f64;
        assert!(count > 0.0);
        assert!((sum_qty / count - avg_qty).abs() < 1e-6);
    }
}

#[test]
fn q6_revenue_matches_brute_force() {
    let db = db();
    // brute force over the frozen lineitem relation using point accesses
    let lineitem = db.relation("lineitem");
    let s = lineitem.schema();
    let (ship, disc, qty, price) = (
        s.idx("l_shipdate"),
        s.idx("l_discount"),
        s.idx("l_quantity"),
        s.idx("l_extendedprice"),
    );
    let lo = data_blocks::datablocks::date_to_days(1994, 1, 1);
    let hi = data_blocks::datablocks::date_to_days(1995, 1, 1) - 1;
    let mut expected = 0.0f64;
    for idx in 0..lineitem.cold_block_count() {
        let block = lineitem.cold_block(idx);
        for row in 0..block.tuple_count() as usize {
            let d = block.get(row, ship).as_int().unwrap();
            let discount = block.get(row, disc).as_int().unwrap();
            let quantity = block.get(row, qty).as_int().unwrap();
            if d >= lo && d <= hi && (5..=7).contains(&discount) && quantity < 24 {
                expected +=
                    block.get(row, price).as_int().unwrap() as f64 * discount as f64 / 100.0;
            }
        }
    }
    let got = tpch::q6(&db, ScanConfig::default())
        .batch
        .value(0, 0)
        .as_double()
        .unwrap();
    assert!(
        (got - expected).abs() < 1e-6 * expected.max(1.0),
        "{got} vs {expected}"
    );
}

#[test]
fn compression_shrinks_tpch_and_layouts_are_diverse() {
    let db = db();
    let mut total_ratio = 0.0;
    let mut layouts = 0;
    for name in tpch::RELATIONS {
        let stats = db.relation(name).storage_stats();
        assert_eq!(stats.hot_rows, 0, "{name} should be fully frozen");
        total_ratio += stats.compression_ratio();
        layouts += db.relation(name).layout_combinations();
    }
    assert!(total_ratio / tpch::RELATIONS.len() as f64 > 1.3);
    assert!(layouts >= tpch::RELATIONS.len());
}

/// A block read back from its frame builds a column's PSMA only when a scan
/// first probes it, yet accounts for every table from the start: each lineitem
/// and orders block decodes to the frozen block's `byte_size`, before and after
/// all its PSMAs are built, and each built table is the one freezing built and
/// is as large as the accounting said.
#[test]
fn decoded_blocks_account_for_psmas_exactly_before_and_after_they_are_built() {
    use data_blocks::datablocks::frame::{from_frame, to_frame};
    let db = db();
    for name in ["lineitem", "orders"] {
        let relation = db.relation(name);
        assert!(relation.cold_block_count() > 1, "{name}");
        for idx in 0..relation.cold_block_count() {
            let frozen = relation.cold_block(idx);
            let decoded = from_frame(&to_frame(&frozen)).expect("frame decodes");
            assert_eq!(
                decoded.byte_size(),
                frozen.byte_size(),
                "{name} block {idx}"
            );
            for (col, column) in decoded.columns().enumerate() {
                let accounted = column.byte_size() - column.byte_size_without_psma();
                let built = column.psma();
                assert_eq!(
                    built,
                    frozen.column(col).psma(),
                    "{name} block {idx} col {col}"
                );
                assert_eq!(
                    built.map_or(0, |psma| psma.byte_size()),
                    accounted,
                    "{name} block {idx} col {col}"
                );
            }
            assert_eq!(
                decoded.byte_size(),
                frozen.byte_size(),
                "{name} block {idx}"
            );
            assert!(decoded == *frozen, "{name} block {idx}");
        }
    }
}

// ------------------------------------------------------- cross-commit answer pin

/// The rendering of `crates/workloads/queries/answers/*.txt`: a `types:` line, then
/// one line per row, doubles as `to_bits()` hex.
fn render(batch: &data_blocks::exec::Batch) -> String {
    use data_blocks::datablocks::Value;
    let types: Vec<String> = batch.types().iter().map(|t| t.to_string()).collect();
    let mut out = format!("types: {}\n", types.join(" "));
    for row in 0..batch.len() {
        let cells: Vec<String> = batch
            .row(row)
            .iter()
            .map(|value| match value {
                Value::Null => "NULL".to_string(),
                Value::Int(v) => format!("i:{v}"),
                Value::Double(v) => format!("d:{:016x}", v.to_bits()),
                Value::Str(s) => format!("s:{s:?}"),
            })
            .collect();
        out.push_str(&cells.join(" "));
        out.push('\n');
    }
    out
}

fn pinned_answer(query: &str) -> &'static str {
    match query {
        "Q1" => include_str!("../crates/workloads/queries/answers/q1.txt"),
        "Q3" => include_str!("../crates/workloads/queries/answers/q3.txt"),
        "Q6" => include_str!("../crates/workloads/queries/answers/q6.txt"),
        "Q12" => include_str!("../crates/workloads/queries/answers/q12.txt"),
        "Q14" => include_str!("../crates/workloads/queries/answers/q14.txt"),
        other => panic!("no pinned answer for {other}"),
    }
}

/// The answers under `queries/answers/` were written by the commit *before* the
/// operators went column-at-a-time (PR 14), at SF 0.01, 4096-row blocks, one
/// worker. The differentials elsewhere compare hand-built trees with planned SQL —
/// both of which run on `exec::ops`, so a slip in a shared kernel passes them. This
/// one cannot be satisfied by two paths agreeing with each other: one worker must
/// reproduce the pinned bytes (double sums in row order, group and sort order,
/// types), and more workers may only reassociate the double sums.
#[test]
fn answers_are_byte_identical_to_the_pinned_ones_at_one_worker() {
    use data_blocks::datablocks::Value;
    let mut db = TpchDb::generate_with_chunk(0.01, 4_096);
    db.freeze();
    for query in tpch::QUERY_SUBSET {
        let pinned = pinned_answer(query);
        let one = ScanConfig::default().with_threads(1);
        let hand = tpch::run_query(&db, query, one).batch;
        assert_eq!(render(&hand), pinned, "{query}, hand-built tree");
        assert_eq!(
            render(&tpch::run_query_ir(&db, query, one)),
            pinned,
            "{query}, IR"
        );
        assert_eq!(
            render(&tpch::run_query_sql(&db, query, one)),
            pinned,
            "{query}, SQL"
        );
        for threads in [2usize, 4, 8] {
            let got = tpch::run_query_sql(&db, query, ScanConfig::default().with_threads(threads));
            assert_eq!(got.types(), hand.types(), "{query} threads {threads}");
            assert_eq!(got.len(), hand.len(), "{query} threads {threads}");
            for row in 0..hand.len() {
                for (a, b) in got.row(row).iter().zip(hand.row(row)) {
                    match (a, &b) {
                        (Value::Double(x), Value::Double(y)) => assert!(
                            (x - y).abs() <= 1e-9 * x.abs().max(y.abs()).max(1.0),
                            "{query} threads {threads} row {row}: {x} vs {y}"
                        ),
                        _ => assert_eq!(a, &b, "{query} threads {threads} row {row}"),
                    }
                }
            }
        }
    }
}
