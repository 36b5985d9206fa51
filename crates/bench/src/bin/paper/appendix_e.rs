//! Appendix E: early probing of an upstream hash join during the scan — a tag/Bloom
//! style pre-filter rejects probe tuples before the full hash-table lookup. The paper
//! reports ~1.2x on join-heavy TPC-H queries when applied selectively.

use datablocks::{DataType, Restriction};
use db_bench::{fmt_duration, print_table_header, print_table_row, time_median};
use exec::prelude::*;
use workloads::TpchDb;

use crate::{Claim, Ctx, Paper};

fn q3_like(db: &TpchDb, early_probe: bool) -> usize {
    // orders of one customer segment joined with all their lineitems
    let customer = db.relation("customer");
    let cs = customer.schema();
    let orders = db.relation("orders");
    let os = orders.schema();
    let lineitem = db.relation("lineitem");
    let ls = lineitem.schema();

    let cust = RelationScanner::new(
        customer,
        vec![cs.idx("c_custkey")],
        vec![Restriction::eq(cs.idx("c_mktsegment"), "BUILDING")],
        ScanConfig::default(),
    );
    let ord = RelationScanner::new(
        orders,
        vec![os.idx("o_orderkey"), os.idx("o_custkey")],
        vec![],
        ScanConfig::default(),
    );
    let cust_orders = HashJoinOp::new(
        Box::new(ScanOp::new(cust)),
        Box::new(ScanOp::new(ord)),
        vec![0],
        vec![1],
        JoinType::ProbeSemi,
    )
    .with_early_probe(early_probe);
    let li = RelationScanner::new(
        lineitem,
        vec![ls.idx("l_orderkey"), ls.idx("l_extendedprice")],
        vec![],
        ScanConfig::default(),
    );
    let join = HashJoinOp::new(
        Box::new(cust_orders),
        Box::new(ScanOp::new(li)),
        vec![0],
        vec![0],
        JoinType::Inner,
    )
    .with_early_probe(early_probe);
    let count = AggSpec::new(AggFunc::CountStar, Expr::lit(0i64), DataType::Int);
    let mut agg = HashAggregateOp::new(Box::new(join), vec![], vec![], vec![count]);
    agg.collect_all().value(0, 0).as_int().unwrap_or(0) as usize
}

pub fn run(ctx: &Ctx) -> Vec<Claim> {
    let widths = [28, 12, 12];
    print_table_header(
        "Appendix E: early join probing inside the scan pipeline",
        &["configuration", "runtime", "join rows"],
        &widths,
    );
    let [(full_rows, full), (early_rows, early)] =
        [("full hash probe", false), ("early tag probe", true)].map(|(label, early)| {
            let (rows, elapsed) = time_median(3, || q3_like(&ctx.frozen, early));
            print_table_row(
                &[label.to_string(), fmt_duration(elapsed), format!("{rows}")],
                &widths,
            );
            (rows, elapsed)
        });
    let speedup = full.as_secs_f64() / early.as_secs_f64();
    vec![
        Paper("early probing leaves the join result unchanged").ours(
            format!("{full_rows} vs {early_rows} join rows"),
            full_rows == early_rows,
        ),
        Paper("early probing speeds up a selective join (~1.2x)")
            .ours(format!("{speedup:.2}x"), speedup > 1.0),
    ]
}
