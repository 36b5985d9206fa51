//! Parallel-aggregation throughput benchmark: rows/s of morsel-parallel partitioned
//! hash aggregation over a frozen TPC-H lineitem, serial vs 2/4/8 workers.
//!
//! Two aggregation shapes bracket the design space:
//!
//! * `q1_groups` — the TPC-H Q1 shape: a handful of groups, so the build phase is
//!   pure aggregation arithmetic and the partition-wise merge is trivial;
//! * `orderkey_groups` — one group per order key, so the per-worker partitioned
//!   hash tables grow large and the merge phase does real work.
//!
//! Emits `BENCH_agg.json` (machine-readable, one entry per thread count) which the
//! CI trajectory step folds into `BENCH_trajectory.jsonl`. Knobs:
//!
//! * `TPCH_SF` — scale factor; the default 0.2 yields ≥ 1.2 M lineitem rows.
//! * `--threads N` / `THREADS` — appends an extra thread count to the sweep.

use std::io::Write as _;

use db_bench::{fmt_duration, print_table_header, print_table_row, threads_arg, time_median};
use exec::prelude::*;
use workloads::tpch::TpchDb;

use datablocks::scan::Restriction;
use datablocks::{date_to_days, CmpOp, DataType};

/// One benchmarked aggregation shape.
struct AggShape {
    name: &'static str,
    projection: Vec<usize>,
    restrictions: Vec<Restriction>,
    group_exprs: Vec<Expr>,
    group_types: Vec<DataType>,
    aggregates: Vec<AggSpec>,
}

fn main() {
    let sf = std::env::var("TPCH_SF")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.2);
    println!("generating TPC-H scale factor {sf} ...");
    let mut db = TpchDb::generate(sf);
    db.freeze();
    let lineitem = db.relation("lineitem");
    let s = lineitem.schema();
    let rows = lineitem.row_count();
    println!(
        "lineitem: {rows} rows, {} blocks",
        lineitem.cold_block_count()
    );

    let cutoff = date_to_days(1998, 12, 1) - 90;
    let shapes = vec![
        AggShape {
            name: "q1_groups",
            // scan output: 0 returnflag, 1 linestatus, 2 quantity, 3 extendedprice
            projection: vec![
                s.idx("l_returnflag"),
                s.idx("l_linestatus"),
                s.idx("l_quantity"),
                s.idx("l_extendedprice"),
            ],
            restrictions: vec![Restriction::cmp(s.idx("l_shipdate"), CmpOp::Le, cutoff)],
            group_exprs: vec![Expr::col(0), Expr::col(1)],
            group_types: vec![DataType::Str, DataType::Str],
            aggregates: vec![
                AggSpec::new(AggFunc::CountStar, Expr::lit(0i64), DataType::Int),
                AggSpec::new(AggFunc::Sum, Expr::col(2), DataType::Int),
                AggSpec::new(AggFunc::Sum, Expr::col(3), DataType::Int),
                AggSpec::new(AggFunc::Avg, Expr::col(3), DataType::Double),
            ],
        },
        AggShape {
            name: "orderkey_groups",
            // scan output: 0 orderkey, 1 quantity
            projection: vec![s.idx("l_orderkey"), s.idx("l_quantity")],
            restrictions: vec![],
            group_exprs: vec![Expr::col(0)],
            group_types: vec![DataType::Int],
            aggregates: vec![
                AggSpec::new(AggFunc::CountStar, Expr::lit(0i64), DataType::Int),
                AggSpec::new(AggFunc::Sum, Expr::col(1), DataType::Int),
                AggSpec::new(AggFunc::Max, Expr::col(1), DataType::Int),
            ],
        },
    ];

    // `0 = all hardware threads` is resolved before recording, so BENCH_agg.json
    // always names the actual worker count.
    let mut sweep = vec![1usize, 2, 4, 8];
    let extra = exec::morsel::effective_threads(threads_arg());
    if !sweep.contains(&extra) {
        sweep.push(extra);
    }

    let widths = [18usize, 10, 12, 14, 10, 10];
    print_table_header(
        "Parallel lineitem aggregation",
        &[
            "aggregation",
            "threads",
            "median",
            "rows/s",
            "groups",
            "speedup",
        ],
        &widths,
    );

    let mut entries = Vec::new();
    for shape in &shapes {
        let mut serial_secs = None;
        for &threads in &sweep {
            let config = ScanConfig::default().with_threads(threads);
            let spec =
                PipelineSpec::scan(shape.projection.clone(), shape.restrictions.clone(), config);
            let (groups, elapsed) = time_median(3, || {
                let mut agg = HashAggregateOp::over_relation(
                    lineitem,
                    spec.clone(),
                    shape.group_exprs.clone(),
                    shape.group_types.clone(),
                    shape.aggregates.clone(),
                );
                agg.collect_all().len()
            });
            let secs = elapsed.as_secs_f64();
            let rows_per_s = rows as f64 / secs;
            let base = *serial_secs.get_or_insert(secs);
            let speedup = base / secs;
            print_table_row(
                &[
                    shape.name.to_string(),
                    format!("{threads}"),
                    fmt_duration(elapsed),
                    format!("{:.2e}", rows_per_s),
                    format!("{groups}"),
                    format!("{speedup:.2}x"),
                ],
                &widths,
            );
            entries.push(format!(
                "    {{\"agg\": \"{}\", \"threads\": {threads}, \
                 \"elapsed_ms\": {:.3}, \"rows_per_s\": {:.0}, \"groups\": {groups}, \
                 \"speedup_vs_serial\": {speedup:.3}}}",
                shape.name,
                secs * 1e3,
                rows_per_s,
            ));
        }
    }

    let json = format!(
        "{{\n  \"benchmark\": \"parallel_agg\",\n  \"relation\": \"lineitem\",\n  \
         \"scale_factor\": {sf},\n  \"rows\": {rows},\n  \"hardware_threads\": {},\n  \
         \"results\": [\n{}\n  ]\n}}\n",
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        entries.join(",\n"),
    );
    let path = "BENCH_agg.json";
    let mut file = std::fs::File::create(path).expect("create BENCH_agg.json");
    file.write_all(json.as_bytes())
        .expect("write BENCH_agg.json");
    println!("\nwrote {path}");
}
