//! TPC-H data generator and reference queries.
//!
//! The generator is a dbgen-equivalent: it produces the TPC-H relations with the
//! value domains, distributions and insertion order of the specification (uniform
//! dates over 1992–1998, primary-key order, 25 nations, the standard dictionaries
//! for flags, priorities, segments and ship modes). Monetary values are generated as
//! *scaled integers* (cents / basis points) — the same decision real systems make for
//! DECIMAL columns — which keeps SARGable predicates on them integer-typed so they
//! can be evaluated on compressed Data Blocks with SIMD.
//!
//! The scale factor is continuous: `sf = 1.0` corresponds to 6 M lineitem rows. The
//! evaluation of the paper uses SF 100; this reproduction runs much smaller factors
//! (the `paper` bin's experiments use SF 0.01; ARCHITECTURE.md, "Benchmarks") and
//! reports relative behaviour.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use datablocks::scan::Restriction;
use datablocks::{date_to_days, CmpOp, DataType, Value};
use exec::prelude::*;
use query::Connect;
use storage::{ColumnDef, Database, Relation, Schema};

/// Fixed seed so every run generates the same database.
const SEED: u64 = 0x5EED_DA7A_B10C;

/// Names of the TPC-H relations this generator produces.
pub const RELATIONS: &[&str] = &[
    "lineitem", "orders", "customer", "part", "supplier", "nation", "region",
];

const REGIONS: &[&str] = &["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"];
const NATIONS: &[(&str, i64)] = &[
    ("ALGERIA", 0),
    ("ARGENTINA", 1),
    ("BRAZIL", 1),
    ("CANADA", 1),
    ("EGYPT", 4),
    ("ETHIOPIA", 0),
    ("FRANCE", 3),
    ("GERMANY", 3),
    ("INDIA", 2),
    ("INDONESIA", 2),
    ("IRAN", 4),
    ("IRAQ", 4),
    ("JAPAN", 2),
    ("JORDAN", 4),
    ("KENYA", 0),
    ("MOROCCO", 0),
    ("MOZAMBIQUE", 0),
    ("PERU", 1),
    ("CHINA", 2),
    ("ROMANIA", 3),
    ("SAUDI ARABIA", 4),
    ("VIETNAM", 2),
    ("RUSSIA", 3),
    ("UNITED KINGDOM", 3),
    ("UNITED STATES", 1),
];
const SEGMENTS: &[&str] = &[
    "AUTOMOBILE",
    "BUILDING",
    "FURNITURE",
    "MACHINERY",
    "HOUSEHOLD",
];
const PRIORITIES: &[&str] = &["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"];
const SHIP_MODES: &[&str] = &["REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"];
const SHIP_INSTRUCT: &[&str] = &[
    "DELIVER IN PERSON",
    "COLLECT COD",
    "NONE",
    "TAKE BACK RETURN",
];
const CONTAINERS: &[&str] = &[
    "SM CASE",
    "SM BOX",
    "SM PACK",
    "SM PKG",
    "MED BAG",
    "MED BOX",
    "MED PKG",
    "MED PACK",
    "LG CASE",
    "LG BOX",
    "LG PACK",
    "LG PKG",
    "JUMBO BAG",
    "JUMBO BOX",
    "JUMBO PACK",
    "JUMBO PKG",
];
const TYPES_SYLL1: &[&str] = &["STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"];
const TYPES_SYLL2: &[&str] = &["ANODIZED", "BURNISHED", "PLATED", "POLISHED", "BRUSHED"];
const TYPES_SYLL3: &[&str] = &["TIN", "NICKEL", "BRASS", "STEEL", "COPPER"];
const BRANDS: usize = 25;

/// Cardinalities (per unit scale factor) of the TPC-H relations.
pub fn cardinality(relation: &str, sf: f64) -> usize {
    let scale = |n: f64| (n * sf).round().max(1.0) as usize;
    match relation {
        "lineitem" => scale(6_000_000.0),
        "orders" => scale(1_500_000.0),
        "customer" => scale(150_000.0),
        "part" => scale(200_000.0),
        "supplier" => scale(10_000.0),
        "nation" => 25,
        "region" => 5,
        other => panic!("unknown TPC-H relation {other:?}"),
    }
}

/// Column index helper bundling the generated database with its scale factor.
pub struct TpchDb {
    /// The populated database (relations hot until [`TpchDb::freeze`] is called).
    pub db: Database,
    /// The scale factor used for generation.
    pub scale_factor: f64,
}

impl TpchDb {
    /// Generate a TPC-H database at the given scale factor with the default chunk
    /// capacity (2^16 records per Data Block).
    pub fn generate(scale_factor: f64) -> TpchDb {
        Self::generate_with_chunk(scale_factor, datablocks::DEFAULT_BLOCK_CAPACITY)
    }

    /// Generate with a specific chunk/block capacity (used by the Figure 10 sweep).
    pub fn generate_with_chunk(scale_factor: f64, chunk_capacity: usize) -> TpchDb {
        let mut rng = StdRng::seed_from_u64(SEED);
        let mut db = Database::new();
        db.add_relation(gen_region(chunk_capacity));
        db.add_relation(gen_nation(chunk_capacity));
        db.add_relation(gen_supplier(&mut rng, scale_factor, chunk_capacity));
        db.add_relation(gen_part(&mut rng, scale_factor, chunk_capacity));
        db.add_relation(gen_customer(&mut rng, scale_factor, chunk_capacity));
        let (orders, lineitem) = gen_orders_lineitem(&mut rng, scale_factor, chunk_capacity);
        db.add_relation(orders);
        db.add_relation(lineitem);
        TpchDb { db, scale_factor }
    }

    /// Freeze every relation into Data Blocks (insertion order preserved, as the
    /// paper does for its TPC-H experiments).
    pub fn freeze(&mut self) {
        self.db.freeze_all();
    }

    /// Freeze every relation, but sort each lineitem block by `l_shipdate` first
    /// (the Figure 11 configuration).
    pub fn freeze_lineitem_sorted_by_shipdate(&mut self) {
        for name in RELATIONS {
            let relation = self.db.relation_mut(name);
            if *name == "lineitem" {
                let col = relation.schema().idx("l_shipdate");
                relation.freeze_all_sorted_by(col);
            } else {
                relation.freeze_all();
            }
        }
    }

    /// Borrow a relation.
    pub fn relation(&self, name: &str) -> &Relation {
        self.db.relation(name)
    }
}

fn money(rng: &mut StdRng, lo: f64, hi: f64) -> i64 {
    // monetary amounts in cents
    (rng.gen_range(lo..hi) * 100.0).round() as i64
}

fn date_range() -> (i64, i64) {
    (date_to_days(1992, 1, 1), date_to_days(1998, 12, 31))
}

fn gen_region(chunk: usize) -> Relation {
    let schema = Schema::new(vec![
        ColumnDef::new("r_regionkey", DataType::Int),
        ColumnDef::new("r_name", DataType::Str),
        ColumnDef::new("r_comment", DataType::Str),
    ])
    .with_primary_key("r_regionkey");
    let mut rel = Relation::with_chunk_capacity("region", schema, chunk);
    for (i, name) in REGIONS.iter().enumerate() {
        rel.insert(vec![
            Value::Int(i as i64),
            Value::Str(name.to_string()),
            Value::Str(format!("region comment {i}")),
        ]);
    }
    rel
}

fn gen_nation(chunk: usize) -> Relation {
    let schema = Schema::new(vec![
        ColumnDef::new("n_nationkey", DataType::Int),
        ColumnDef::new("n_name", DataType::Str),
        ColumnDef::new("n_regionkey", DataType::Int),
        ColumnDef::new("n_comment", DataType::Str),
    ])
    .with_primary_key("n_nationkey");
    let mut rel = Relation::with_chunk_capacity("nation", schema, chunk);
    for (i, (name, region)) in NATIONS.iter().enumerate() {
        rel.insert(vec![
            Value::Int(i as i64),
            Value::Str(name.to_string()),
            Value::Int(*region),
            Value::Str(format!("nation comment {i}")),
        ]);
    }
    rel
}

fn gen_supplier(rng: &mut StdRng, sf: f64, chunk: usize) -> Relation {
    let schema = Schema::new(vec![
        ColumnDef::new("s_suppkey", DataType::Int),
        ColumnDef::new("s_name", DataType::Str),
        ColumnDef::new("s_nationkey", DataType::Int),
        ColumnDef::new("s_acctbal", DataType::Int),
    ])
    .with_primary_key("s_suppkey");
    let mut rel = Relation::with_chunk_capacity("supplier", schema, chunk);
    for key in 1..=cardinality("supplier", sf) as i64 {
        rel.insert(vec![
            Value::Int(key),
            Value::Str(format!("Supplier#{key:09}")),
            Value::Int(rng.gen_range(0..25)),
            Value::Int(money(rng, -999.99, 9999.99)),
        ]);
    }
    rel
}

fn gen_part(rng: &mut StdRng, sf: f64, chunk: usize) -> Relation {
    let schema = Schema::new(vec![
        ColumnDef::new("p_partkey", DataType::Int),
        ColumnDef::new("p_name", DataType::Str),
        ColumnDef::new("p_brand", DataType::Str),
        ColumnDef::new("p_type", DataType::Str),
        ColumnDef::new("p_size", DataType::Int),
        ColumnDef::new("p_container", DataType::Str),
        ColumnDef::new("p_retailprice", DataType::Int),
    ])
    .with_primary_key("p_partkey");
    let mut rel = Relation::with_chunk_capacity("part", schema, chunk);
    for key in 1..=cardinality("part", sf) as i64 {
        let brand = rng.gen_range(1..=BRANDS);
        let p_type = format!(
            "{} {} {}",
            TYPES_SYLL1[rng.gen_range(0..TYPES_SYLL1.len())],
            TYPES_SYLL2[rng.gen_range(0..TYPES_SYLL2.len())],
            TYPES_SYLL3[rng.gen_range(0..TYPES_SYLL3.len())]
        );
        rel.insert(vec![
            Value::Int(key),
            Value::Str(format!("part {key} lavender blush")),
            Value::Str(format!("Brand#{brand:02}")),
            Value::Str(p_type),
            Value::Int(rng.gen_range(1..=50)),
            Value::Str(CONTAINERS[rng.gen_range(0..CONTAINERS.len())].to_string()),
            Value::Int(90_000 + (key % 200_000) * 10),
        ]);
    }
    rel
}

fn gen_customer(rng: &mut StdRng, sf: f64, chunk: usize) -> Relation {
    let schema = Schema::new(vec![
        ColumnDef::new("c_custkey", DataType::Int),
        ColumnDef::new("c_name", DataType::Str),
        ColumnDef::new("c_address", DataType::Str),
        ColumnDef::new("c_nationkey", DataType::Int),
        ColumnDef::new("c_phone", DataType::Str),
        ColumnDef::new("c_acctbal", DataType::Int),
        ColumnDef::new("c_mktsegment", DataType::Str),
        ColumnDef::new("c_comment", DataType::Str),
    ])
    .with_primary_key("c_custkey");
    let mut rel = Relation::with_chunk_capacity("customer", schema, chunk);
    for key in 1..=cardinality("customer", sf) as i64 {
        let nation = rng.gen_range(0..25i64);
        rel.insert(vec![
            Value::Int(key),
            Value::Str(format!("Customer#{key:09}")),
            Value::Str(format!("address-{}", rng.gen_range(0..1_000_000))),
            Value::Int(nation),
            Value::Str(format!(
                "{}-{:03}-{:03}-{:04}",
                10 + nation,
                key % 1000,
                (key * 7) % 1000,
                (key * 13) % 10_000
            )),
            Value::Int(money(rng, -999.99, 9999.99)),
            Value::Str(SEGMENTS[rng.gen_range(0..SEGMENTS.len())].to_string()),
            Value::Str(format!("customer comment {}", key % 50)),
        ]);
    }
    rel
}

fn gen_orders_lineitem(rng: &mut StdRng, sf: f64, chunk: usize) -> (Relation, Relation) {
    let orders_schema = Schema::new(vec![
        ColumnDef::new("o_orderkey", DataType::Int),
        ColumnDef::new("o_custkey", DataType::Int),
        ColumnDef::new("o_orderstatus", DataType::Str),
        ColumnDef::new("o_totalprice", DataType::Int),
        ColumnDef::new("o_orderdate", DataType::Int),
        ColumnDef::new("o_orderpriority", DataType::Str),
        ColumnDef::new("o_shippriority", DataType::Int),
    ])
    .with_primary_key("o_orderkey");
    let lineitem_schema = Schema::new(vec![
        ColumnDef::new("l_orderkey", DataType::Int),
        ColumnDef::new("l_partkey", DataType::Int),
        ColumnDef::new("l_suppkey", DataType::Int),
        ColumnDef::new("l_linenumber", DataType::Int),
        ColumnDef::new("l_quantity", DataType::Int),
        ColumnDef::new("l_extendedprice", DataType::Int),
        ColumnDef::new("l_discount", DataType::Int),
        ColumnDef::new("l_tax", DataType::Int),
        ColumnDef::new("l_returnflag", DataType::Str),
        ColumnDef::new("l_linestatus", DataType::Str),
        ColumnDef::new("l_shipdate", DataType::Int),
        ColumnDef::new("l_commitdate", DataType::Int),
        ColumnDef::new("l_receiptdate", DataType::Int),
        ColumnDef::new("l_shipinstruct", DataType::Str),
        ColumnDef::new("l_shipmode", DataType::Str),
    ]);
    let mut orders = Relation::with_chunk_capacity("orders", orders_schema, chunk);
    let mut lineitem = Relation::with_chunk_capacity("lineitem", lineitem_schema, chunk);

    let n_orders = cardinality("orders", sf) as i64;
    let n_customers = cardinality("customer", sf) as i64;
    let n_parts = cardinality("part", sf) as i64;
    let n_suppliers = cardinality("supplier", sf) as i64;
    let (date_lo, date_hi) = date_range();
    // The last ~151 days hold no new orders (dates must leave room for ship dates).
    let order_date_hi = date_hi - 151;

    for orderkey in 1..=n_orders {
        let orderdate = rng.gen_range(date_lo..=order_date_hi);
        let custkey = rng.gen_range(1..=n_customers);
        let lines = rng.gen_range(1..=7i64);
        let mut total = 0i64;
        let mut any_open = false;
        let mut all_fulfilled = true;
        for line in 1..=lines {
            let quantity = rng.gen_range(1..=50i64);
            let partkey = rng.gen_range(1..=n_parts);
            let extendedprice = quantity * (90_000 + (partkey % 200_000) * 10) / 100;
            let discount = rng.gen_range(0..=10i64); // hundredths: 0.00 – 0.10
            let tax = rng.gen_range(0..=8i64);
            let shipdate = orderdate + rng.gen_range(1..=121);
            let commitdate = orderdate + rng.gen_range(30..=90);
            let receiptdate = shipdate + rng.gen_range(1..=30);
            let today = date_to_days(1995, 6, 17);
            let (returnflag, linestatus) = if receiptdate <= today {
                (if rng.gen_bool(0.5) { "R" } else { "A" }, "F")
            } else {
                ("N", "O")
            };
            if linestatus == "O" {
                any_open = true;
                all_fulfilled = false;
            }
            total += extendedprice;
            lineitem.insert(vec![
                Value::Int(orderkey),
                Value::Int(partkey),
                Value::Int(rng.gen_range(1..=n_suppliers)),
                Value::Int(line),
                Value::Int(quantity),
                Value::Int(extendedprice),
                Value::Int(discount),
                Value::Int(tax),
                Value::Str(returnflag.to_string()),
                Value::Str(linestatus.to_string()),
                Value::Int(shipdate),
                Value::Int(commitdate),
                Value::Int(receiptdate),
                Value::Str(SHIP_INSTRUCT[rng.gen_range(0..SHIP_INSTRUCT.len())].to_string()),
                Value::Str(SHIP_MODES[rng.gen_range(0..SHIP_MODES.len())].to_string()),
            ]);
        }
        let status = if all_fulfilled {
            "F"
        } else if any_open && rng.gen_bool(0.5) {
            "O"
        } else {
            "P"
        };
        orders.insert(vec![
            Value::Int(orderkey),
            Value::Int(custkey),
            Value::Str(status.to_string()),
            Value::Int(total),
            Value::Int(orderdate),
            Value::Str(PRIORITIES[rng.gen_range(0..PRIORITIES.len())].to_string()),
            Value::Int(0),
        ]);
    }
    (orders, lineitem)
}

// ======================================================================== queries

/// Result of running a reference query: the output batch plus the scan statistics of
/// the driving table scan.
pub struct QueryResult {
    /// Query output.
    pub batch: Batch,
    /// Statistics of the largest (driving) scan.
    pub scan_stats: ScanStats,
}

/// Run a single-table aggregation inside the morsel workers of the scan
/// (`config.threads` of them): the shared shape of the scan-dominated aggregation
/// queries (Q1, Q6).
fn scan_aggregation(
    relation: &Relation,
    projection: Vec<usize>,
    restrictions: Vec<Restriction>,
    config: ScanConfig,
    group_exprs: Vec<Expr>,
    group_types: Vec<DataType>,
    aggregates: Vec<AggSpec>,
) -> QueryResult {
    let spec = PipelineSpec::scan(projection, restrictions, config);
    let mut agg =
        HashAggregateOp::over_relation(relation, spec, group_exprs, group_types, aggregates);
    let batch = agg.collect_all();
    QueryResult {
        batch,
        scan_stats: agg.scan_stats(),
    }
}

/// TPC-H Q1: scan-heavy aggregation over almost all of lineitem.
pub fn q1(db: &TpchDb, config: ScanConfig) -> QueryResult {
    let lineitem = db.relation("lineitem");
    let s = lineitem.schema();
    let cutoff = date_to_days(1998, 12, 1) - 90;
    let projection = vec![
        s.idx("l_returnflag"),
        s.idx("l_linestatus"),
        s.idx("l_quantity"),
        s.idx("l_extendedprice"),
        s.idx("l_discount"),
        s.idx("l_tax"),
    ];
    let restrictions = vec![Restriction::cmp(s.idx("l_shipdate"), CmpOp::Le, cutoff)];
    // After projection by the scan: 0 flag, 1 status, 2 qty, 3 price, 4 disc, 5 tax
    let disc_price = Expr::col(3).mul(Expr::lit(1.0).sub(Expr::col(4).div(Expr::lit(100i64))));
    let charge = disc_price
        .clone()
        .mul(Expr::lit(1.0).add(Expr::col(5).div(Expr::lit(100i64))));
    let group_exprs = vec![Expr::col(0), Expr::col(1)];
    let group_types = vec![DataType::Str, DataType::Str];
    let aggregates = vec![
        AggSpec::new(AggFunc::Sum, Expr::col(2), DataType::Int),
        AggSpec::new(AggFunc::Sum, Expr::col(3), DataType::Int),
        AggSpec::new(AggFunc::Sum, disc_price, DataType::Double),
        AggSpec::new(AggFunc::Sum, charge, DataType::Double),
        AggSpec::new(AggFunc::Avg, Expr::col(2), DataType::Double),
        AggSpec::new(AggFunc::Avg, Expr::col(3), DataType::Double),
        AggSpec::new(AggFunc::Avg, Expr::col(4), DataType::Double),
        AggSpec::new(AggFunc::CountStar, Expr::lit(0i64), DataType::Int),
    ];
    scan_aggregation(
        lineitem,
        projection,
        restrictions,
        config,
        group_exprs,
        group_types,
        aggregates,
    )
}

/// TPC-H Q6: the forecasting revenue change query — highly selective SARGable
/// restrictions on lineitem, the paper's showcase for SARG/SMA/PSMA push-down.
pub fn q6(db: &TpchDb, config: ScanConfig) -> QueryResult {
    let lineitem = db.relation("lineitem");
    let s = lineitem.schema();
    let year_lo = date_to_days(1994, 1, 1);
    let year_hi = date_to_days(1995, 1, 1) - 1;
    let projection = vec![s.idx("l_extendedprice"), s.idx("l_discount")];
    let restrictions = vec![
        Restriction::between(s.idx("l_shipdate"), year_lo, year_hi),
        Restriction::between(s.idx("l_discount"), 5i64, 7i64),
        Restriction::cmp(s.idx("l_quantity"), CmpOp::Lt, 24i64),
    ];
    let revenue = Expr::col(0).mul(Expr::col(1)).div(Expr::lit(100i64));
    let aggregates = vec![AggSpec::new(AggFunc::Sum, revenue, DataType::Double)];
    scan_aggregation(
        lineitem,
        projection,
        restrictions,
        config,
        vec![],
        vec![],
        aggregates,
    )
}

/// TPC-H Q3 (shipping priority): customer ⋈ orders ⋈ lineitem with restrictions on
/// all three tables, top-10 by revenue.
pub fn q3(db: &TpchDb, config: ScanConfig) -> QueryResult {
    let cutoff = date_to_days(1995, 3, 15);
    // customer: keys of the BUILDING segment
    let customer = db.relation("customer");
    let cs = customer.schema();
    let cust_scan = RelationScanner::new(
        customer,
        vec![cs.idx("c_custkey")],
        vec![Restriction::eq(cs.idx("c_mktsegment"), "BUILDING")],
        config,
    );
    // orders before the cutoff
    let orders = db.relation("orders");
    let os = orders.schema();
    let orders_scan = RelationScanner::new(
        orders,
        vec![
            os.idx("o_orderkey"),
            os.idx("o_custkey"),
            os.idx("o_orderdate"),
            os.idx("o_shippriority"),
        ],
        vec![Restriction::cmp(os.idx("o_orderdate"), CmpOp::Lt, cutoff)],
        config,
    );
    // join customers with orders (semi: keep order columns); the customer scan
    // runs as many workers as the scan configuration asks for
    let cust_orders = HashJoinOp::new(
        Box::new(ScanOp::new(cust_scan)),
        Box::new(ScanOp::new(orders_scan)),
        vec![0],
        vec![1], // o_custkey
        JoinType::ProbeSemi,
    );
    // lineitem after the cutoff — the driving scan
    let lineitem = db.relation("lineitem");
    let ls = lineitem.schema();
    let lineitem_scan = RelationScanner::new(
        lineitem,
        vec![
            ls.idx("l_orderkey"),
            ls.idx("l_extendedprice"),
            ls.idx("l_discount"),
        ],
        vec![Restriction::cmp(ls.idx("l_shipdate"), CmpOp::Gt, cutoff)],
        config,
    );
    let mut lineitem_op = ScanOp::new(lineitem_scan);
    // join: build on qualified orders (an intermediate result, pulled on this
    // thread), probe with lineitem
    let join = HashJoinOp::new(
        Box::new(cust_orders),
        Box::new(TakeStats::new(&mut lineitem_op)),
        vec![0], // o_orderkey
        vec![0], // l_orderkey
        JoinType::Inner,
    );
    // output of inner join: [o_orderkey, o_custkey, o_orderdate, o_shippriority,
    //                        l_orderkey, l_extendedprice, l_discount]
    let revenue = Expr::col(5).mul(Expr::lit(1.0).sub(Expr::col(6).div(Expr::lit(100i64))));
    let agg = HashAggregateOp::new(
        Box::new(join),
        vec![Expr::col(0), Expr::col(2), Expr::col(3)],
        vec![DataType::Int, DataType::Int, DataType::Int],
        vec![AggSpec::new(AggFunc::Sum, revenue, DataType::Double)],
    );
    let mut sort = SortOp::new(
        Box::new(agg),
        vec![SortKey::desc(3), SortKey::asc(1)],
        Some(10),
    );
    let batch = sort.collect_all();
    drop(sort);
    QueryResult {
        batch,
        scan_stats: lineitem_op.stats(),
    }
}

/// TPC-H Q12 (shipping modes and order priority): lineitem ⋈ orders with range
/// restrictions on receipt/commit/ship dates and an IN-list on ship mode.
pub fn q12(db: &TpchDb, config: ScanConfig) -> QueryResult {
    let year_lo = date_to_days(1994, 1, 1);
    let year_hi = date_to_days(1995, 1, 1) - 1;
    let lineitem = db.relation("lineitem");
    let ls = lineitem.schema();
    let lineitem_scan = RelationScanner::new(
        lineitem,
        vec![
            ls.idx("l_orderkey"),
            ls.idx("l_shipmode"),
            ls.idx("l_commitdate"),
            ls.idx("l_shipdate"),
            ls.idx("l_receiptdate"),
        ],
        vec![Restriction::between(
            ls.idx("l_receiptdate"),
            year_lo,
            year_hi,
        )],
        config,
    );
    let mut lineitem_op = ScanOp::new(lineitem_scan);
    // residual: l_shipmode in ('MAIL','SHIP') and l_commitdate < l_receiptdate and
    //           l_shipdate < l_commitdate
    let residual = Expr::col(1)
        .cmp(CmpOp::Eq, Expr::lit("MAIL"))
        .or(Expr::col(1).cmp(CmpOp::Eq, Expr::lit("SHIP")))
        .and(Expr::col(2).cmp(CmpOp::Lt, Expr::col(4)))
        .and(Expr::col(3).cmp(CmpOp::Lt, Expr::col(2)));
    let filtered = FilterOp::new(Box::new(TakeStats::new(&mut lineitem_op)), residual);

    let orders = db.relation("orders");
    let os = orders.schema();
    let orders_scan = RelationScanner::new(
        orders,
        vec![os.idx("o_orderkey"), os.idx("o_orderpriority")],
        vec![],
        config,
    );
    let join = HashJoinOp::new(
        Box::new(ScanOp::new(orders_scan)),
        Box::new(filtered),
        vec![0],
        vec![0],
        JoinType::Inner,
    );
    // join output: [o_orderkey, o_orderpriority, l_orderkey, l_shipmode, ...]
    let high = Expr::col(1)
        .cmp(CmpOp::Eq, Expr::lit("1-URGENT"))
        .or(Expr::col(1).cmp(CmpOp::Eq, Expr::lit("2-HIGH")));
    let high_line = Expr::Case(
        Box::new(high.clone()),
        Box::new(Expr::lit(1i64)),
        Box::new(Expr::lit(0i64)),
    );
    let low_line = Expr::Case(
        Box::new(high),
        Box::new(Expr::lit(0i64)),
        Box::new(Expr::lit(1i64)),
    );
    let agg = HashAggregateOp::new(
        Box::new(join),
        vec![Expr::col(3)],
        vec![DataType::Str],
        vec![
            AggSpec::new(AggFunc::Sum, high_line, DataType::Int),
            AggSpec::new(AggFunc::Sum, low_line, DataType::Int),
        ],
    );
    let mut sort = SortOp::new(Box::new(agg), vec![SortKey::asc(0)], None);
    let batch = sort.collect_all();
    drop(sort);
    QueryResult {
        batch,
        scan_stats: lineitem_op.stats(),
    }
}

/// TPC-H Q14 (promotion effect): lineitem ⋈ part over one month of ship dates.
pub fn q14(db: &TpchDb, config: ScanConfig) -> QueryResult {
    let month_lo = date_to_days(1995, 9, 1);
    let month_hi = date_to_days(1995, 10, 1) - 1;
    let lineitem = db.relation("lineitem");
    let ls = lineitem.schema();
    let lineitem_scan = RelationScanner::new(
        lineitem,
        vec![
            ls.idx("l_partkey"),
            ls.idx("l_extendedprice"),
            ls.idx("l_discount"),
        ],
        vec![Restriction::between(
            ls.idx("l_shipdate"),
            month_lo,
            month_hi,
        )],
        config,
    );
    let mut lineitem_op = ScanOp::new(lineitem_scan);
    let part = db.relation("part");
    let ps = part.schema();
    let part_scan = RelationScanner::new(
        part,
        vec![ps.idx("p_partkey"), ps.idx("p_type")],
        vec![],
        config,
    );
    let join = HashJoinOp::new(
        Box::new(ScanOp::new(part_scan)),
        Box::new(TakeStats::new(&mut lineitem_op)),
        vec![0],
        vec![0],
        JoinType::Inner,
    );
    // join output: [p_partkey, p_type, l_partkey, l_extendedprice, l_discount]
    let disc_price = Expr::col(3).mul(Expr::lit(1.0).sub(Expr::col(4).div(Expr::lit(100i64))));
    let is_promo = Expr::col(1)
        .cmp(CmpOp::Ge, Expr::lit("PROMO"))
        .and(Expr::col(1).cmp(CmpOp::Lt, Expr::lit("PROMP")));
    let promo_revenue = Expr::Case(
        Box::new(is_promo),
        Box::new(disc_price.clone()),
        Box::new(Expr::lit(0.0)),
    );
    let mut agg = HashAggregateOp::new(
        Box::new(join),
        vec![],
        vec![],
        vec![
            AggSpec::new(AggFunc::Sum, promo_revenue, DataType::Double),
            AggSpec::new(AggFunc::Sum, disc_price, DataType::Double),
        ],
    );
    let batch = agg.collect_all();
    drop(agg);
    QueryResult {
        batch,
        scan_stats: lineitem_op.stats(),
    }
}

/// The query subset reproduced by the Table 2 / Table 4 harness.
pub const QUERY_SUBSET: &[&str] = &["Q1", "Q3", "Q6", "Q12", "Q14"];

/// Run a query of [`QUERY_SUBSET`] by name.
pub fn run_query(db: &TpchDb, name: &str, config: ScanConfig) -> QueryResult {
    match name {
        "Q1" => q1(db, config),
        "Q3" => q3(db, config),
        "Q6" => q6(db, config),
        "Q12" => q12(db, config),
        "Q14" => q14(db, config),
        other => panic!("query {other:?} is not part of the reproduced subset"),
    }
}

/// The checked-in JSON IR document of a [`QUERY_SUBSET`] query — the same plan
/// expressed through the `query` crate's IR (see `crates/query/README.md`)
/// instead of a hand-assembled operator tree.
pub fn query_ir(name: &str) -> &'static str {
    match name {
        "Q1" => include_str!("../queries/q1.json"),
        "Q3" => include_str!("../queries/q3.json"),
        "Q6" => include_str!("../queries/q6.json"),
        "Q12" => include_str!("../queries/q12.json"),
        "Q14" => include_str!("../queries/q14.json"),
        other => panic!("query {other:?} is not part of the reproduced subset"),
    }
}

/// The checked-in SQL text of a [`QUERY_SUBSET`] query. Lowering it with
/// `query::parse_sql` produces byte-for-byte the IR document [`query_ir`]
/// returns (`plan_dump --check` and the golden tests pin that equality), so
/// SQL, JSON IR and the hand-built operator trees are all the same plan.
pub fn query_sql(name: &str) -> &'static str {
    match name {
        "Q1" => include_str!("../queries/sql/q1.sql"),
        "Q3" => include_str!("../queries/sql/q3.sql"),
        "Q6" => include_str!("../queries/sql/q6.sql"),
        "Q12" => include_str!("../queries/sql/q12.sql"),
        "Q14" => include_str!("../queries/sql/q14.sql"),
        other => panic!("query {other:?} is not part of the reproduced subset"),
    }
}

/// Run a [`QUERY_SUBSET`] query from its checked-in IR file through the query
/// service ([`query::Session`]) instead of the hand-built operator tree. The
/// differential suite (`tests/ir_differential.rs`) pins both paths
/// byte-identical across thread counts and cache regimes.
pub fn run_query_ir(db: &TpchDb, name: &str, config: ScanConfig) -> Batch {
    db.db
        .connect()
        .with_config(config)
        .query_ir(query_ir(name))
        .and_then(|stream| stream.collect())
        .unwrap_or_else(|err| panic!("running {name}: {err}"))
}

/// Run a [`QUERY_SUBSET`] query from its checked-in SQL text through the query
/// service. Identical results to [`run_query_ir`] because the SQL lowers to
/// the same IR document.
pub fn run_query_sql(db: &TpchDb, name: &str, config: ScanConfig) -> Batch {
    db.db
        .connect()
        .with_config(config)
        .sql(query_sql(name))
        .and_then(|stream| stream.collect())
        .unwrap_or_else(|err| panic!("running {name}: {err}"))
}

/// Adapter passing batches through while leaving ownership of the wrapped operator
/// with the caller, so scan statistics remain accessible after the pipeline ran.
struct TakeStats<'a, 'b> {
    inner: &'b mut ScanOp<'a>,
}

impl<'a, 'b> TakeStats<'a, 'b> {
    fn new(inner: &'b mut ScanOp<'a>) -> Self {
        TakeStats { inner }
    }
}

impl<'a, 'b> Operator for TakeStats<'a, 'b> {
    fn next_batch(&mut self) -> Result<Option<Batch>, exec::Error> {
        self.inner.next_batch()
    }
    fn output_types(&self) -> Vec<DataType> {
        self.inner.output_types()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_db(frozen: bool) -> TpchDb {
        let mut db = TpchDb::generate_with_chunk(0.001, 1024);
        if frozen {
            db.freeze();
        }
        db
    }

    #[test]
    fn generator_cardinalities_scale() {
        assert_eq!(cardinality("lineitem", 1.0), 6_000_000);
        assert_eq!(cardinality("orders", 0.01), 15_000);
        assert_eq!(cardinality("nation", 0.01), 25);
        let db = tiny_db(false);
        assert_eq!(db.relation("nation").row_count(), 25);
        assert_eq!(db.relation("region").row_count(), 5);
        assert_eq!(db.relation("orders").row_count(), 1_500);
        let li = db.relation("lineitem").row_count();
        assert!((4_500..=10_500).contains(&li), "lineitem rows {li}");
    }

    #[test]
    fn generated_domains_are_plausible() {
        let db = tiny_db(false);
        let lineitem = db.relation("lineitem");
        let s = lineitem.schema();
        let chunk = &lineitem.hot_chunks()[0];
        for row in (0..chunk.len()).step_by(113) {
            let qty = chunk.get(row, s.idx("l_quantity")).as_int().unwrap();
            assert!((1..=50).contains(&qty));
            let disc = chunk.get(row, s.idx("l_discount")).as_int().unwrap();
            assert!((0..=10).contains(&disc));
            let ship = chunk.get(row, s.idx("l_shipdate")).as_int().unwrap();
            assert!(ship >= date_to_days(1992, 1, 1) && ship <= date_to_days(1998, 12, 31) + 130);
            let flag = chunk.get(row, s.idx("l_returnflag"));
            assert!(matches!(flag.as_str(), Some("A" | "N" | "R")));
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = TpchDb::generate_with_chunk(0.0005, 512);
        let b = TpchDb::generate_with_chunk(0.0005, 512);
        let ra = a.relation("lineitem");
        let rb = b.relation("lineitem");
        assert_eq!(ra.row_count(), rb.row_count());
        let s = ra.schema();
        let ca = &ra.hot_chunks()[0];
        let cb = &rb.hot_chunks()[0];
        for row in (0..ca.len()).step_by(37) {
            assert_eq!(
                ca.get(row, s.idx("l_extendedprice")),
                cb.get(row, s.idx("l_extendedprice"))
            );
        }
    }

    #[test]
    fn q1_and_q6_results_are_identical_across_scan_configs() {
        let mut db = tiny_db(false);
        db.freeze();
        let configs = [
            "jit",
            "vectorized",
            "vectorized+sarg",
            "datablocks+sarg",
            "datablocks+psma",
        ];
        let q1_results: Vec<Batch> = configs
            .iter()
            .map(|c| q1(&db, ScanConfig::named(c)).batch)
            .collect();
        let q6_results: Vec<Batch> = configs
            .iter()
            .map(|c| q6(&db, ScanConfig::named(c)).batch)
            .collect();
        for other in &q1_results[1..] {
            assert_eq!(other.len(), q1_results[0].len());
            for row in 0..other.len() {
                assert_eq!(other.row(row), q1_results[0].row(row));
            }
        }
        for other in &q6_results[1..] {
            assert_eq!(other.len(), q6_results[0].len());
            for row in 0..other.len() {
                assert_eq!(other.row(row), q6_results[0].row(row));
            }
        }
        // Q1 groups by (returnflag, linestatus): at most 6 combinations exist
        assert!(q1_results[0].len() <= 6 && q1_results[0].len() >= 3);
        // Q6 yields a single revenue number
        assert_eq!(q6_results[0].len(), 1);
        assert!(q6_results[0].value(0, 0).as_double().unwrap() > 0.0);
    }

    #[test]
    fn join_queries_run_and_agree_across_configs() {
        let mut db = tiny_db(false);
        db.freeze();
        for name in ["Q3", "Q12", "Q14"] {
            let reference = run_query(&db, name, ScanConfig::named("jit")).batch;
            let with_datablocks = run_query(&db, name, ScanConfig::named("datablocks+psma")).batch;
            assert_eq!(reference.len(), with_datablocks.len(), "{name}");
            for row in 0..reference.len() {
                assert_eq!(
                    reference.row(row),
                    with_datablocks.row(row),
                    "{name} row {row}"
                );
            }
        }
    }

    #[test]
    fn q6_scan_skips_blocks_when_lineitem_sorted_by_shipdate() {
        let mut sorted = tiny_db(false);
        sorted.freeze_lineitem_sorted_by_shipdate();
        let mut unsorted = tiny_db(false);
        unsorted.freeze();
        let sorted_stats = q6(&sorted, ScanConfig::named("datablocks+psma")).scan_stats;
        let unsorted_stats = q6(&unsorted, ScanConfig::named("datablocks+psma")).scan_stats;
        // With block-wise sorting the PSMA narrows ranges, so fewer rows are scanned.
        assert!(
            sorted_stats.rows_scanned <= unsorted_stats.rows_scanned,
            "sorted {sorted_stats:?} vs unsorted {unsorted_stats:?}"
        );
        // And the result is identical (up to floating-point summation order, which
        // legitimately differs when block contents are re-ordered).
        let a = q6(&sorted, ScanConfig::named("datablocks+psma"))
            .batch
            .value(0, 0);
        let b = q6(&unsorted, ScanConfig::named("datablocks+psma"))
            .batch
            .value(0, 0);
        let (a, b) = (a.as_double().unwrap(), b.as_double().unwrap());
        assert!((a - b).abs() / b.abs() < 1e-9, "{a} vs {b}");
    }

    #[test]
    fn queries_agree_between_serial_and_parallel_execution() {
        let mut db = tiny_db(false);
        db.freeze();
        for name in QUERY_SUBSET {
            let serial = run_query(&db, name, ScanConfig::default()).batch;
            for threads in [2usize, 4] {
                let config = ScanConfig::default().with_threads(threads);
                let parallel = run_query(&db, name, config).batch;
                assert_eq!(serial.len(), parallel.len(), "{name} threads {threads}");
                for row in 0..serial.len() {
                    for col in 0..serial.column_count() {
                        let (a, b) = (serial.value(row, col), parallel.value(row, col));
                        match (&a, &b) {
                            // Parallel aggregation reassociates double sums; every
                            // other value (keys, counts, integer sums, join output)
                            // must be byte-identical.
                            (Value::Double(x), Value::Double(y)) => {
                                let scale = x.abs().max(y.abs()).max(1.0);
                                assert!(
                                    (x - y).abs() / scale < 1e-9,
                                    "{name} threads {threads} row {row} col {col}: {x} vs {y}"
                                );
                            }
                            _ => assert_eq!(a, b, "{name} threads {threads} row {row} col {col}"),
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "not part of the reproduced subset")]
    fn unknown_query_panics() {
        let db = tiny_db(true);
        run_query(&db, "Q99", ScanConfig::default());
    }
}
