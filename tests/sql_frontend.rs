//! The SQL front end pinned end to end: every checked-in TPC-H SQL text
//! (`crates/workloads/queries/sql/*.sql`) must lower to **byte-for-byte** the
//! checked-in IR document (`crates/workloads/queries/*.json`). Because SQL becomes
//! an IR document first — `Session::sql` and `Session::query_ir` differ only in
//! the parser in front of the planner — the plan goldens, the fuzz oracle and
//! `ir_differential` (results against the hand-built operator trees, across
//! thread counts and cache regimes) all pin the same artifact, and this suite
//! does not run the queries a second time.

mod common;

use common::assert_batches_agree;
use data_blocks::exec::ScanConfig;
use data_blocks::query::{parse_sql, to_sql, Connect};
use data_blocks::workloads::tpch::{query_ir, query_sql, TpchDb};

const QUERIES: &[&str] = &["Q1", "Q6", "Q3", "Q12", "Q14"];

fn tpch() -> TpchDb {
    let mut db = TpchDb::generate_with_chunk(0.02, 2_048);
    db.freeze();
    db
}

/// A plan's shape is a function of the query alone: every checked-in SQL text
/// renders the same tree at `threads` 1, 2, 4 and 0 (only the header line names
/// the worker count), and the plans compiled at 1 and at 4 workers return the same
/// batch. (`query::planner`'s unit tests pin the same for `COUNT_WHERE`.)
#[test]
fn plan_shape_is_independent_of_thread_count() {
    let db = tpch();
    for &name in QUERIES {
        let compile = |threads: usize| {
            let plan = db
                .db
                .connect()
                .with_config(ScanConfig::default().with_threads(threads))
                .compile_sql(query_sql(name))
                .unwrap_or_else(|err| panic!("planning {name}: {err}"));
            let text = plan.to_string();
            let (header, tree) = text.split_once('\n').expect("header line, then the tree");
            assert!(
                header.contains(&format!("threads={threads},")),
                "{name}: {header}"
            );
            (plan, tree.to_string())
        };
        let (one, tree) = compile(1);
        for threads in [2usize, 4, 0] {
            assert_eq!(compile(threads).1, tree, "{name} threads {threads}");
        }
        let (four, _) = compile(4);
        assert_batches_agree(
            &format!("{name} planned at 1 vs 4 workers"),
            &one.execute(&db.db),
            &four.execute(&db.db),
            false,
        );
    }
}

/// SQL → IR byte goldens: lowering each checked-in SQL text reproduces the
/// checked-in JSON document exactly (`plan_dump --update` regenerates both).
#[test]
fn sql_lowers_to_checked_in_ir_byte_identically() {
    let db = TpchDb::generate_with_chunk(0.001, 1_024);
    for &name in QUERIES {
        let ir = parse_sql(&db.db, query_sql(name))
            .unwrap_or_else(|err| panic!("lowering {name}: {err}"));
        assert_eq!(
            ir.to_pretty(),
            query_ir(name),
            "{name}: SQL no longer lowers to the checked-in IR document; \
             run `cargo run --bin plan_dump -- --update` and review the diff"
        );
    }
}

/// The canonical SQL printer round-trips the checked-in queries: printing the
/// lowered IR and re-parsing reproduces the same document.
#[test]
fn checked_in_queries_round_trip_through_canonical_sql() {
    let db = TpchDb::generate_with_chunk(0.001, 1_024);
    for &name in QUERIES {
        let ir = parse_sql(&db.db, query_sql(name)).expect("lowering");
        let printed = to_sql(&ir);
        let reparsed = parse_sql(&db.db, &printed).unwrap_or_else(|err| {
            panic!("{name}: canonical SQL does not re-parse: {err}\n{printed}")
        });
        assert_eq!(reparsed.to_pretty(), ir.to_pretty(), "{name}: {printed}");
    }
}

/// SQL errors come back positioned (1-based line/column into the SQL text)
/// through the unified service error, with the same taxonomy as the JSON
/// surface.
#[test]
fn sql_errors_are_positioned_through_the_session() {
    let db = tpch();
    let session = db.db.connect();
    let err = session
        .sql("SELECT l_quantity\nFROM lineitme")
        .expect_err("unknown relation");
    assert_eq!(
        err.to_string(),
        "semantic error at line 2, column 6: unknown relation `lineitme`"
    );
    let err = session
        .sql("SELECT sum(l_quantity FROM lineitem")
        .expect_err("missing paren");
    assert!(
        err.to_string()
            .starts_with("syntax error at line 1, column 23"),
        "unexpected rendering: {err}"
    );
}

/// A strict bound at a signed zero excludes both zeros: `d < 0.0` and
/// `d < -0.0` match only −1.0 and `d > ±0.0` only 1.0, in a hot chunk and in a
/// frozen block alike. The restriction is pushed into the scan; `d + 0.0 op c`
/// is not, and the filter that evaluates it is the reference.
#[test]
fn strict_bounds_at_a_signed_zero_match_the_unpushed_filter() {
    use data_blocks::datablocks::{DataType, Value};
    use data_blocks::storage::{ColumnDef, Database, Relation, Schema};
    for frozen in [false, true] {
        let schema = Schema::new(vec![ColumnDef::new("d", DataType::Double)]);
        let mut rel = Relation::with_chunk_capacity("t", schema, 1024);
        for d in [-1.0, -0.0, 0.0, 1.0] {
            rel.insert(vec![Value::Double(d)]);
        }
        if frozen {
            rel.freeze_all();
        }
        let mut db = Database::new();
        db.add_relation(rel);
        let session = db.connect();
        let bits = |sql: &str| -> Vec<u64> {
            let batch = session.sql(sql).and_then(|s| s.collect()).unwrap();
            let mut bits: Vec<u64> = (0..batch.len())
                .map(|row| match batch.value(row, 0) {
                    Value::Double(d) => d.to_bits(),
                    other => panic!("{sql}: {other:?}"),
                })
                .collect();
            bits.sort_unstable();
            bits
        };
        for op in ["<", "<=", ">", ">=", "="] {
            for c in ["0.0", "-0.0"] {
                let pushed = bits(&format!("SELECT d FROM t WHERE d {op} {c}"));
                let filtered = bits(&format!("SELECT d FROM t WHERE d + 0.0 {op} {c}"));
                assert_eq!(pushed, filtered, "frozen {frozen}: d {op} {c}");
            }
        }
        assert_eq!(bits("SELECT d FROM t WHERE d < 0.0"), [(-1.0f64).to_bits()]);
        assert_eq!(bits("SELECT d FROM t WHERE d > -0.0"), [1.0f64.to_bits()]);
    }
}
