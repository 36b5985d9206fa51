//! Appendix E: early probing of an upstream hash join during the scan — a tag/Bloom
//! style pre-filter rejects probe tuples before the full hash-table lookup. The paper
//! reports ~1.2x on join-heavy TPC-H queries when applied selectively.

use datablocks::{DataType, Restriction};
use db_bench::{fmt_duration, print_table_header, print_table_row, time_median, tpch_scale_factor};
use exec::prelude::*;
use workloads::TpchDb;

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
    let mut join = HashJoinOp::new(
        Box::new(cust_orders),
        Box::new(ScanOp::new(li)),
        vec![0],
        vec![0],
        JoinType::Inner,
    )
    .with_early_probe(early_probe);
    let mut agg = HashAggregateOp::new(
        Box::new(TakeBatches(&mut join)),
        vec![],
        vec![],
        vec![AggSpec::new(
            AggFunc::CountStar,
            Expr::lit(0i64),
            DataType::Int,
        )],
    );
    let out = agg.collect_all();
    out.value(0, 0).as_int().unwrap_or(0) as usize
}

struct TakeBatches<'a, 'b>(&'b mut HashJoinOp<'a>);
impl<'a, 'b> Operator for TakeBatches<'a, 'b> {
    fn next_batch(&mut self) -> Result<Option<Batch>, exec::Error> {
        self.0.next_batch()
    }
    fn output_types(&self) -> Vec<DataType> {
        self.0.output_types()
    }
}

fn main() {
    let sf = tpch_scale_factor();
    let mut db = TpchDb::generate(sf);
    db.freeze();

    let widths = [28usize, 12, 12];
    print_table_header(
        "Appendix E: early join probing inside the scan pipeline",
        &["configuration", "runtime", "join rows"],
        &widths,
    );
    for (label, early) in [("full hash probe", false), ("early tag probe", true)] {
        let (rows, elapsed) = time_median(3, || q3_like(&db, early));
        print_table_row(
            &[label.to_string(), fmt_duration(elapsed), format!("{rows}")],
            &widths,
        );
    }
    println!("\nExpected shape (paper): early probing helps when the join is selective (here the");
    println!("BUILDING segment keeps ~20% of orders); results are identical either way.");
}
