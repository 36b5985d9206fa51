//! Which side an inner join hashes.
//!
//! The planner hashes an inner join's logical probe side when block metadata
//! estimates it to be less than half the build side, and only under a parent
//! that cannot see row order. Four pins:
//! * `HashJoinOp` turned around (probe hashed, probe columns emitted first)
//!   yields the same rows, as a multiset, and the same output types;
//! * the tag filter every join probes through changes no row and no row order;
//! * the planner's rule table, over TPC-H and over a small synthetic catalog,
//!   where each synthetic case also runs the full differential against the
//!   reference interpreter;
//! * the turned-around TPC-H Q12 answers exactly what the written one does.

use data_blocks::datablocks::{DataType, Value};
use data_blocks::exec::{
    collect_operator, Batch, HashJoinOp, JoinType, Operator, ScanConfig, ValuesOp,
};
use data_blocks::query::fuzz::{self, Catalog, ColumnSpec, FuzzCase, RelationData};
use data_blocks::query::{self, parse_ir};
use data_blocks::workloads::tpch::{self, TpchDb};

/// The rows of a batch in a canonical order, for multiset comparison.
fn sorted_rows(batch: &Batch) -> Vec<Vec<Value>> {
    let mut rows: Vec<Vec<Value>> = (0..batch.len()).map(|row| batch.row(row)).collect();
    rows.sort_by(|a, b| {
        (a.iter().zip(b))
            .map(|(x, y)| x.total_cmp(y))
            .find(|order| order.is_ne())
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    rows
}

fn values(types: &[DataType], rows: &[Vec<Value>]) -> Box<ValuesOp> {
    Box::new(ValuesOp::new(Batch::from_rows(types, rows)))
}

#[test]
fn a_join_hashing_its_probe_side_emits_the_same_rows_and_types() {
    // build: (key, payload) with duplicate and NULL keys
    let build_types = [DataType::Int, DataType::Str];
    let build: Vec<Vec<Value>> = (0..40)
        .map(|i| {
            let key = if i % 9 == 0 {
                Value::Null
            } else {
                Value::Int(i % 6)
            };
            vec![key, Value::Str(format!("b{i}"))]
        })
        .collect();
    // probe: (id, key, price) with duplicate and NULL keys, some unmatched
    let probe_types = [DataType::Int, DataType::Int, DataType::Double];
    let probe: Vec<Vec<Value>> = (0..30)
        .map(|i| {
            let key = if i % 7 == 0 {
                Value::Null
            } else {
                Value::Int(i % 8)
            };
            vec![Value::Int(i), key, Value::Double(i as f64 * 0.5)]
        })
        .collect();

    let none = Vec::new();
    let cases = [
        ("duplicate and NULL keys", &build, &probe),
        ("empty build", &none, &probe),
        ("empty probe", &build, &none),
    ];
    for (name, build, probe) in cases {
        for early_probe in [false, true] {
            let mut written = HashJoinOp::new(
                values(&build_types, build),
                values(&probe_types, probe),
                vec![0],
                vec![1],
                JoinType::Inner,
            )
            .with_early_probe(early_probe);
            let mut turned = HashJoinOp::new(
                values(&probe_types, probe),
                values(&build_types, build),
                vec![1],
                vec![0],
                JoinType::Inner,
            )
            .with_probe_columns_first()
            .with_early_probe(early_probe);
            assert_eq!(written.output_types(), turned.output_types(), "{name}");
            let (a, b) = (
                collect_operator(&mut written),
                collect_operator(&mut turned),
            );
            assert_eq!(a.types(), b.types(), "{name}");
            assert_eq!(sorted_rows(&a), sorted_rows(&b), "{name}");
            if name == "duplicate and NULL keys" {
                assert!(a.len() > build.len(), "duplicate keys multiply matches");
            } else {
                assert_eq!(a.len(), 0, "{name}");
            }
        }
    }
}

/// Rows and types equal, row by row in order, doubles by bit pattern.
fn assert_identical(got: &Batch, want: &Batch, context: &str) {
    assert_eq!(got.types(), want.types(), "{context}");
    assert_eq!(got.len(), want.len(), "{context}");
    for row in 0..want.len() {
        let (have, expect) = (got.row(row), want.row(row));
        assert_eq!(have, expect, "{context} row {row}");
        for (h, w) in have.iter().zip(&expect) {
            if let (Value::Double(h), Value::Double(w)) = (h, w) {
                assert_eq!(h.to_bits(), w.to_bits(), "{context} row {row}");
            }
        }
    }
}

/// Every join probes through a tag filter of the build keys' hashes; turned off
/// (`with_early_probe(false)`) it passes every probe row to the hash table. Both
/// must emit the same rows in the same order, inner and semi, written and turned
/// around: for probe keys none of which is a build key (the filter passes few or
/// no rows), all of which are, NULL keys (never joined, whether or not their hash
/// passes the filter), a two-column key, and an empty build side.
#[test]
fn the_tag_filter_emits_what_a_probe_of_every_row_emits() {
    let types = [DataType::Int, DataType::Int, DataType::Double];
    let row = |k1: Option<i64>, k2: i64, i: i64| {
        let k1 = k1.map_or(Value::Null, Value::Int);
        vec![k1, Value::Int(k2), Value::Double(i as f64 * 0.25 - 1.0)]
    };
    // build: k1 in 0, 3, …, 297 (twice each, k2 0 and 1) and every 17th k1 NULL
    let build: Vec<Vec<Value>> = (0..200)
        .map(|i| row((i % 17 != 0).then_some(i / 2 * 3), i % 2, i))
        .collect();
    let misses: Vec<_> = (0..500).map(|i| row(Some(1_000 + i), 0, i)).collect();
    let hits: Vec<_> = (0..500).map(|i| row(Some(i % 100 * 3), i % 2, i)).collect();
    let nulls: Vec<_> = (0..500)
        .map(|i| row((i % 3 != 0).then_some(i % 100 * 3), i % 2, i))
        .collect();
    let pairs: Vec<_> = (0..500).map(|i| row(Some(i % 120 * 3), i % 3, i)).collect();
    let none = Vec::new();
    let cases = [
        ("no probe key in the build", &build, &misses, vec![0]),
        ("every probe key in the build", &build, &hits, vec![0]),
        ("NULL probe keys", &build, &nulls, vec![0]),
        ("a two-column key", &build, &pairs, vec![0, 1]),
        ("an empty build side", &none, &hits, vec![0]),
    ];
    for (name, build, probe, keys) in cases {
        for join_type in [JoinType::Inner, JoinType::ProbeSemi] {
            let written = |filter: bool| {
                let join = HashJoinOp::new(
                    values(&types, build),
                    values(&types, probe),
                    keys.clone(),
                    keys.clone(),
                    join_type,
                );
                collect_operator(&mut join.with_early_probe(filter))
            };
            let context = format!("{name}, {join_type:?}");
            let want = written(false);
            assert_identical(&written(true), &want, &context);
            let matched = !name.starts_with("no probe") && !name.ends_with("empty build side");
            assert_eq!(want.is_empty(), !matched, "{context}");
            let probe_k1 = if join_type == JoinType::Inner { 3 } else { 0 };
            for r in 0..want.len() {
                assert!(
                    !want.value(r, probe_k1).is_null(),
                    "{context}: a NULL key joined"
                );
            }
            if join_type == JoinType::Inner {
                let turned = |filter: bool| {
                    let join = HashJoinOp::new(
                        values(&types, probe),
                        values(&types, build),
                        keys.clone(),
                        keys.clone(),
                        join_type,
                    );
                    collect_operator(&mut join.with_probe_columns_first().with_early_probe(filter))
                };
                let context = format!("{context}, turned around");
                assert_identical(&turned(true), &turned(false), &context);
                assert_eq!(sorted_rows(&turned(true)), sorted_rows(&want), "{context}");
            }
        }
    }
}

// ------------------------------------------------------------ the rule table

fn probe_side_builds(db: &TpchDb, name: &str) -> usize {
    query::compile(&db.db, ScanConfig::default(), tpch::query_ir(name))
        .unwrap_or_else(|err| panic!("planning {name}: {err}"))
        .probe_side_builds()
}

#[test]
fn tpch_q12_hashes_its_probe_side_and_q1_q3_q14_keep_theirs() {
    let mut db = TpchDb::generate_with_chunk(0.002, 2_048);
    db.freeze();
    // Q12 hashes ~570 estimated lineitem rows instead of 3 000 orders.
    assert_eq!(probe_side_builds(&db, "Q12"), 1);
    // Q1 has no join; Q3's outer build is a semi join, which has no estimate;
    // Q14's probe is the smaller side, but its double sums add in row order.
    for name in ["Q1", "Q3", "Q6", "Q14"] {
        assert_eq!(probe_side_builds(&db, name), 0, "{name}");
    }
    // Turned around, Q12 gives the answer of the operator tree as written.
    for threads in [1, 4] {
        let config = ScanConfig::default().with_threads(threads);
        assert_eq!(
            sorted_rows(&tpch::run_query_sql(&db, "Q12", config)),
            sorted_rows(&tpch::run_query(&db, "Q12", config).batch),
            "threads {threads}"
        );
    }
}

fn int_column(name: &str) -> ColumnSpec {
    ColumnSpec {
        name: name.into(),
        ty: DataType::Int,
        nullable: false,
    }
}

/// `big` (600 rows in three frozen blocks; `k` repeats every 12 rows) and
/// `small` (6 rows), for joins whose sides differ a hundredfold.
fn catalog() -> Catalog {
    let big = RelationData {
        name: "big".into(),
        chunk_capacity: 256,
        freeze: true,
        columns: vec![
            int_column("k"),
            int_column("v"),
            ColumnSpec {
                name: "d".into(),
                ty: DataType::Double,
                nullable: false,
            },
        ],
        rows: (0..600)
            .map(|i| {
                vec![
                    Value::Int(i % 12),
                    Value::Int(i),
                    Value::Double(if i % 2 == 0 { 0.0 } else { -0.0 }),
                ]
            })
            .collect(),
    };
    let small = RelationData {
        name: "small".into(),
        chunk_capacity: 256,
        freeze: true,
        columns: vec![int_column("k"), int_column("w")],
        rows: (0..6)
            .map(|i| vec![Value::Int(i * 2), Value::Int(100 + i)])
            .collect(),
    };
    Catalog {
        relations: vec![big, small],
    }
}

const BIG: &str = r#"{"op": "scan", "relation": "big", "columns": ["k", "v", "d"]}"#;
const SMALL: &str = r#"{"op": "scan", "relation": "small", "columns": ["k", "w"]}"#;

/// A join of `build` and `probe` on their column 0.
fn join(kind: &str, build: &str, probe: &str) -> String {
    format!(
        r#"{{"op": "join", "type": "{kind}", "build": {build}, "probe": {probe},
            "build_keys": [0], "probe_keys": [0]}}"#
    )
}

/// An aggregate grouping `input` by its column 0.
fn aggregate(input: &str, aggregates: &str) -> String {
    format!(
        r#"{{"op": "aggregate", "input": {input},
            "groups": [{{"expr": {{"col": 0}}, "type": "int"}}],
            "aggregates": [{aggregates}]}}"#
    )
}

#[test]
fn the_probe_side_is_hashed_only_under_an_order_insensitive_aggregate() {
    let inner = join("inner", BIG, SMALL);
    let count = r#"{"func": "count_star", "type": "int"}"#;
    let sort = |input: &str, limit: &str| {
        format!(r#"{{"op": "sort", "input": {input}, "keys": [{{"column": 1}}]{limit}}}"#)
    };
    // Filter and project are row-wise, so the aggregate above still decides.
    let filtered = format!(
        r#"{{"op": "project", "input": {{"op": "filter", "input": {inner},
                "predicate": {{"lt": [{{"col": 1}}, {{"int": 500}}]}}}},
            "exprs": [{{"expr": {{"col": 0}}, "type": "int"}},
                      {{"expr": {{"col": 4}}, "type": "int"}}]}}"#
    );
    let int_aggs = r#"{"func": "sum", "expr": {"col": 1}, "type": "int"},
                      {"func": "avg", "expr": {"col": 1}, "type": "double"}"#;
    let min_max = r#"{"func": "min", "expr": {"col": 2}, "type": "double"},
                     {"func": "max", "expr": {"col": 2}, "type": "double"},
                     {"func": "count", "expr": {"col": 4}, "type": "int"}"#;
    let double_sum = r#"{"func": "sum", "expr": {"col": 2}, "type": "double"}"#;
    let sorted_big = sort(BIG, "");
    let cases: Vec<(&str, String, usize)> = vec![
        ("a join at the root", inner.clone(), 0),
        ("under a sort", sort(&inner, ""), 0),
        (
            "under a sort with a limit",
            sort(&inner, r#", "limit": 5"#),
            0,
        ),
        ("under count(*)", aggregate(&inner, count), 1),
        (
            "through a filter and a project under integer sum and avg",
            aggregate(&filtered, int_aggs),
            1,
        ),
        (
            "under double min, max and count",
            aggregate(&inner, min_max),
            1,
        ),
        ("under a double sum", aggregate(&inner, double_sum), 0),
        (
            "a semi join",
            aggregate(&join("semi", BIG, SMALL), count),
            0,
        ),
        (
            "the build side already smaller",
            aggregate(&join("inner", SMALL, BIG), count),
            0,
        ),
        (
            "a side that is not a scan chain",
            aggregate(&join("inner", &sorted_big, SMALL), count),
            0,
        ),
    ];
    for (name, plan, want) in cases {
        let text = format!(r#"{{"version": 1, "plan": {plan}}}"#);
        let case = FuzzCase {
            seed: 0,
            catalog: catalog(),
            ir: parse_ir(&text).unwrap_or_else(|err| panic!("{name}: {err}")),
        };
        assert!(
            !fuzz::reference_rows(&case).unwrap().is_empty(),
            "{name}: the join must produce rows"
        );
        // The differential runs threads {1, 4} × {memory, spill} against the
        // reference interpreter and returns how many joins hash their probe side.
        match fuzz::check_case(&case) {
            Ok(got) => assert_eq!(got, want, "{name}"),
            Err(failure) => panic!("{name}: {failure}"),
        }
    }
}
