//! Differential tests for the JSON-IR query surface: every checked-in TPC-H IR
//! document (`crates/workloads/queries/*.json`) must plan and execute to the
//! same result as the hand-built operator tree in `workloads::tpch::run_query`,
//! across thread counts and storage tiers. At `threads = 1` both paths are fully
//! serial and deterministic, so rows must be **byte-identical**; at higher thread
//! counts the morsel scheduler assigns work dynamically, so parallel double sums
//! are equal up to reassociation (the PR-2 contract) while every other value
//! stays byte-identical.
//!
//! Also covered here: predicate pushdown producing the same answer as scan-level
//! restrictions, and the parser/planner rejecting malformed IR with positioned
//! errors (satellite of the query-surface PR).

mod common;

use common::assert_batches_agree;
use data_blocks::exec::ScanConfig;
use data_blocks::query::{self, parse_ir, Connect, IrErrorKind};
use data_blocks::storage::SpillPolicy;
use data_blocks::workloads::tpch::{query_sql, run_query, run_query_ir, TpchDb};

const THREAD_COUNTS: &[usize] = &[1, 2, 4, 8];
const QUERIES: &[&str] = &["Q1", "Q6", "Q3", "Q12", "Q14"];

/// A TPC-H database whose lineitem spans many small blocks, so the morsel
/// scheduler and (when spilled) the block cache both get exercised.
fn tpch() -> TpchDb {
    let mut db = TpchDb::generate_with_chunk(0.02, 2_048);
    db.freeze();
    db
}

#[test]
fn ir_queries_match_hand_built_plans_across_threads() {
    let db = tpch();
    for &name in QUERIES {
        for &threads in THREAD_COUNTS {
            let config = ScanConfig::default().with_threads(threads);
            let expected = run_query(&db, name, config).batch;
            let actual = run_query_ir(&db, name, config);
            assert!(!actual.is_empty(), "{name} must produce rows");
            assert_batches_agree(
                &format!("{name} threads {threads}"),
                &expected,
                &actual,
                threads == 1,
            );
        }
    }
}

#[test]
fn ir_queries_match_across_cache_regimes() {
    let in_memory = tpch();
    // Cache capacities covering the three regimes: everything resident, partially
    // resident, thrashing.
    for &(regime, capacity) in &[
        ("all_fits", usize::MAX),
        ("half_fits", 256 << 10),
        ("thrash", 1),
    ] {
        let mut spilled = tpch();
        spilled
            .db
            .enable_spill(SpillPolicy::with_cache_capacity(capacity))
            .expect("enable spill");
        for &name in QUERIES {
            for &threads in &[1usize, 4] {
                let config = ScanConfig::default().with_threads(threads);
                let expected = run_query(&in_memory, name, config).batch;
                let actual = run_query_ir(&spilled, name, config);
                assert_batches_agree(
                    &format!("{name} cache {regime} threads {threads}"),
                    &expected,
                    &actual,
                    threads == 1,
                );
                if regime != "thrash" {
                    continue;
                }
                // Plan once, execute many: a plan compiled from the SQL text and
                // run through `execute_plan` agrees with the one-shot path.
                let session = spilled.db.connect().with_config(config);
                let reused = session
                    .compile_sql(query_sql(name))
                    .and_then(|plan| session.execute_plan(&plan)?.collect())
                    .unwrap_or_else(|err| panic!("re-running {name}: {err}"));
                assert_batches_agree(
                    &format!("{name} cache {regime} threads {threads} (plan reuse)"),
                    &actual,
                    &reused,
                    threads == 1,
                );
            }
        }
    }
}

/// Q6 authored as an explicit `filter` over an unrestricted scan. The planner
/// must push all five sargable conjuncts down into scan restrictions (merging
/// the `ge`/`le` pairs into ranges), drop the filter entirely, and produce the
/// same answer as the checked-in scan-level-predicate form.
const Q6_AS_FILTER: &str = r#"{
  "version": 1,
  "plan": {
    "op": "aggregate",
    "input": {
      "op": "filter",
      "input": {
        "op": "scan",
        "relation": "lineitem",
        "columns": ["l_extendedprice", "l_discount", "l_shipdate", "l_quantity"]
      },
      "predicate": {
        "and": [
          {"ge": [{"col": 2}, {"int": 8766}]},
          {"le": [{"col": 2}, {"int": 9130}]},
          {"ge": [{"col": 1}, {"int": 5}]},
          {"le": [{"col": 1}, {"int": 7}]},
          {"lt": [{"col": 3}, {"int": 24}]}
        ]
      }
    },
    "groups": [],
    "aggregates": [
      {
        "func": "sum",
        "expr": {"div": [{"mul": [{"col": 0}, {"col": 1}]}, {"int": 100}]},
        "type": "double"
      }
    ]
  }
}"#;

#[test]
fn filter_pushdown_is_equivalent_to_scan_level_predicates() {
    let db = tpch();
    let config = ScanConfig::default();
    let plan = query::compile(&db.db, config, Q6_AS_FILTER).expect("Q6-as-filter plans");
    let rendered = format!("{plan}");
    assert!(
        rendered.contains("(pushed)"),
        "all conjuncts are sargable and must be pushed:\n{rendered}"
    );
    assert!(
        !rendered.contains("filter "),
        "a fully-pushed filter must disappear from the plan:\n{rendered}"
    );
    assert!(
        rendered.contains("between 8766 and 9130"),
        "ge/le pairs must merge into ranges:\n{rendered}"
    );

    let pushed = plan.execute(&db.db);
    let reference = run_query_ir(&db, "Q6", config);
    assert_batches_agree("Q6 pushdown equivalence", &reference, &pushed, true);
}

#[test]
fn parser_rejects_malformed_ir_with_positioned_errors() {
    // Unsupported version — schema error anchored to the version value.
    let err =
        parse_ir(r#"{"version": 2, "plan": {"op": "scan", "relation": "t", "columns": ["a"]}}"#)
            .unwrap_err();
    assert_eq!(err.kind, IrErrorKind::Schema);
    assert!(err.to_string().contains("version"), "{err}");
    assert_eq!((err.pos.line, err.pos.col), (1, 13), "{err}");

    // Unknown node kind — schema error naming the bad kind.
    let err =
        parse_ir(r#"{"version": 1, "plan": {"op": "scann", "relation": "t", "columns": ["a"]}}"#)
            .unwrap_err();
    assert_eq!(err.kind, IrErrorKind::Schema);
    assert!(err.to_string().contains("scann"), "{err}");

    // Unknown field — schema error naming the field.
    let err = parse_ir(
        r#"{"version": 1, "plan": {"op": "scan", "relation": "t", "columns": ["a"], "morsels": 4}}"#,
    )
    .unwrap_err();
    assert_eq!(err.kind, IrErrorKind::Schema);
    assert!(err.to_string().contains("morsels"), "{err}");

    // Truncated document — syntax error, not a panic.
    let err = parse_ir(r#"{"version": 1, "plan": {"op": "scan","#).unwrap_err();
    assert_eq!(err.kind, IrErrorKind::Syntax);
    assert!(err.to_string().contains("truncated"), "{err}");
}

#[test]
fn planner_rejects_semantic_errors_with_positions() {
    let db = tpch();
    let config = ScanConfig::default();

    // Unknown relation.
    let err = query::compile(
        &db.db,
        config,
        r#"{"version": 1, "plan": {"op": "scan", "relation": "lineitems", "columns": ["l_orderkey"]}}"#,
    )
    .unwrap_err();
    assert_eq!(err.kind, IrErrorKind::Semantic);
    assert!(err.to_string().contains("lineitems"), "{err}");

    // Comparing a string column against an integer literal.
    let err = query::compile(
        &db.db,
        config,
        r#"{
  "version": 1,
  "plan": {
    "op": "filter",
    "input": {"op": "scan", "relation": "lineitem", "columns": ["l_shipmode"]},
    "predicate": {"eq": [{"col": 0}, {"int": 3}]}
  }
}"#,
    )
    .unwrap_err();
    assert_eq!(err.kind, IrErrorKind::Semantic);
    assert!(
        err.pos.line > 1,
        "position must point into the document: {err}"
    );
}
