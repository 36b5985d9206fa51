//! Deterministic IR fuzzing suite (see `query::fuzz` for the harness).
//!
//! Four pins, each a differential against the row-at-a-time reference
//! interpreter:
//! * a fixed-seed sweep of generated catalogs + well-typed plans, checked
//!   across threads {1, 4} × {memory, thrash-cache spill};
//! * full determinism — the same seed regenerates byte-identical cases and
//!   verdicts (what makes CI failures one-command reproducible);
//! * the harness's own teeth — a deliberately injected planner-style bug
//!   (`<=` mis-compiled as `<`) must be *caught* and *shrunk* to a minimal
//!   self-contained repro;
//! * hand-written degenerate cases (empty relation, all-NULL group keys,
//!   zero-row aggregate, empty build side) through the full
//!   IR → planner → exec path.
//!
//! Plus the round-trip/golden property over every checked-in query document
//! (`crates/workloads/queries/*.json`): `parse → to_pretty → parse` is a fixed
//! point and the rendered physical plan matches the golden byte-for-byte.

use data_blocks::datablocks::Value;
use data_blocks::exec::ScanConfig;
use data_blocks::query::fuzz::{self, Catalog, ColumnSpec, FuzzCase, RelationData};
use data_blocks::query::{self, parse_ir};
use data_blocks::workloads::tpch::TpchDb;

#[test]
fn fixed_seed_sweep_agrees_with_reference() {
    for seed in 1..=80u64 {
        if let Err(failure) = fuzz::run_seed(seed) {
            let case = fuzz::generate_case(seed);
            panic!(
                "seed {seed} failed: {failure}\nself-contained repro:\n{}",
                fuzz::repro_json(&case)
            );
        }
    }
}

/// The sweep's seeds include plans whose joins hash their probe side, so the
/// differential above covers turned-around joins.
#[test]
fn fixed_seed_sweep_plans_joins_that_hash_their_probe_side() {
    let builds: usize = (1..=80u64)
        .map(|seed| {
            let case = fuzz::generate_case(seed);
            let db = case.catalog.build_database();
            query::Planner::new(&db, ScanConfig::default())
                .plan(&case.ir)
                .unwrap_or_else(|err| panic!("seed {seed}: {err}"))
                .probe_side_builds()
        })
        .sum();
    assert!(builds > 0, "no join in seeds 1..=80 hashes its probe side");
}

#[test]
fn generation_and_verdicts_are_deterministic() {
    for seed in [1u64, 7, 42, 913] {
        let a = fuzz::generate_case(seed);
        let b = fuzz::generate_case(seed);
        assert_eq!(
            a.ir.to_pretty(),
            b.ir.to_pretty(),
            "seed {seed}: plan drift"
        );
        assert_eq!(
            fuzz::repro_json(&a),
            fuzz::repro_json(&b),
            "seed {seed}: case drift"
        );
        let va = fuzz::check_case(&a).is_ok();
        let vb = fuzz::check_case(&b).is_ok();
        assert_eq!(va, vb, "seed {seed}: verdict drift");
    }
}

/// The differential predicate for the injected bug: run the engine on the
/// plan with its first `<=` flipped to `<` while the reference interprets the
/// original — observationally a planner that mis-compiles the comparison
/// (e.g. a flipped bound while merging push-down ranges).
fn flipped_le_fails(case: &FuzzCase) -> bool {
    let Some(flipped) = fuzz::flip_first_le(&case.ir) else {
        return false;
    };
    matches!(
        fuzz::check_case_with(case, Some(&flipped)),
        Err(f) if f.kind == fuzz::FailureKind::Result
    )
}

#[test]
fn injected_comparison_bug_is_caught_and_shrunk() {
    // Scan seeds for cases where the flip is semantically visible (cheap:
    // reference vs reference), then demand the full differential catches
    // every one of them as a result mismatch.
    let mut caught = Vec::new();
    for seed in 1..=400u64 {
        let case = fuzz::generate_case(seed);
        let Some(flipped) = fuzz::flip_first_le(&case.ir) else {
            continue;
        };
        let mutated = FuzzCase {
            ir: flipped.clone(),
            ..case.clone()
        };
        let (Ok(original), Ok(mutant)) =
            (fuzz::reference_rows(&case), fuzz::reference_rows(&mutated))
        else {
            continue;
        };
        if original == mutant {
            continue;
        }
        let failure = fuzz::check_case_with(&case, Some(&flipped))
            .expect_err("a semantically visible flip must fail the differential");
        assert_eq!(
            failure.kind,
            fuzz::FailureKind::Result,
            "seed {seed}: {failure}"
        );
        caught.push(case);
    }
    assert!(
        !caught.is_empty(),
        "no seed in range exposed the injected bug — generator coverage regressed"
    );

    // Shrink the first catch and verify the minimized case still fails the
    // same way, with a dramatically smaller self-contained repro.
    let case = &caught[0];
    let shrunk = fuzz::shrink_case(case, &flipped_le_fails);
    assert!(
        fuzz::case_size(&shrunk) < fuzz::case_size(case),
        "shrinker made no progress on a generated failing case"
    );
    assert!(
        flipped_le_fails(&shrunk),
        "minimized case no longer reproduces the failure"
    );
    let repro = fuzz::repro_json(&shrunk);
    assert!(
        repro.len() < fuzz::repro_json(case).len(),
        "minimized repro must be smaller"
    );
    let reparsed = fuzz::parse_repro(&repro).expect("minimized repro parses");
    assert!(
        flipped_le_fails(&reparsed),
        "repro document must reproduce the failure after a round-trip"
    );
}

// ------------------------------------------------------- degenerate inputs

fn int_column(name: &str, nullable: bool) -> ColumnSpec {
    ColumnSpec {
        name: name.into(),
        ty: data_blocks::datablocks::DataType::Int,
        nullable,
    }
}

fn relation(name: &str, columns: Vec<ColumnSpec>, rows: Vec<Vec<Value>>) -> RelationData {
    RelationData {
        name: name.into(),
        chunk_capacity: 4,
        freeze: true,
        columns,
        rows,
    }
}

fn check(case: &FuzzCase) {
    if let Err(failure) = fuzz::check_case(case) {
        panic!("{failure}\nrepro:\n{}", fuzz::repro_json(case));
    }
}

#[test]
fn degenerate_empty_relation_through_full_path() {
    let case = FuzzCase {
        seed: 0,
        catalog: Catalog {
            relations: vec![relation("empty", vec![int_column("a", false)], vec![])],
        },
        ir: parse_ir(
            r#"{"version": 1, "plan": {
                "op": "sort",
                "input": {"op": "scan", "relation": "empty", "columns": ["a"]},
                "keys": [{"column": 0, "order": "desc"}]}}"#,
        )
        .unwrap(),
    };
    assert_eq!(fuzz::reference_rows(&case).unwrap().len(), 0);
    check(&case);
}

#[test]
fn degenerate_aggregate_over_zero_rows_emits_no_groups() {
    // A global aggregate over an empty input emits zero rows (the engine's
    // hash table has no entries) — the reference pins that contract too.
    let case = FuzzCase {
        seed: 0,
        catalog: Catalog {
            relations: vec![relation(
                "t",
                vec![int_column("a", false)],
                vec![vec![Value::Int(5)], vec![Value::Int(9)]],
            )],
        },
        ir: parse_ir(
            r#"{"version": 1, "plan": {
                "op": "aggregate",
                "input": {"op": "scan", "relation": "t", "columns": ["a"],
                          "predicates": [{"column": "a", "cmp": "lt", "value": {"int": 0}}]},
                "groups": [],
                "aggregates": [
                    {"func": "sum", "expr": {"col": 0}, "type": "int"},
                    {"func": "count_star", "type": "int"}]}}"#,
        )
        .unwrap(),
    };
    assert_eq!(fuzz::reference_rows(&case).unwrap().len(), 0);
    check(&case);
}

#[test]
fn degenerate_all_null_group_keys_form_one_group() {
    let case = FuzzCase {
        seed: 0,
        catalog: Catalog {
            relations: vec![relation(
                "t",
                vec![int_column("k", true), int_column("v", false)],
                vec![
                    vec![Value::Null, Value::Int(1)],
                    vec![Value::Null, Value::Int(2)],
                    vec![Value::Null, Value::Int(3)],
                ],
            )],
        },
        ir: parse_ir(
            r#"{"version": 1, "plan": {
                "op": "aggregate",
                "input": {"op": "scan", "relation": "t", "columns": ["k", "v"]},
                "groups": [{"expr": {"col": 0}, "type": "int"}],
                "aggregates": [
                    {"func": "count", "expr": {"col": 0}, "type": "int"},
                    {"func": "sum", "expr": {"col": 1}, "type": "int"}]}}"#,
        )
        .unwrap(),
    };
    // One NULL-keyed group: count over the key sees no non-NULL values, the
    // sum still folds every row.
    assert_eq!(
        fuzz::reference_rows(&case).unwrap(),
        vec![vec![Value::Null, Value::Int(0), Value::Int(6)]]
    );
    check(&case);
}

#[test]
fn degenerate_join_with_empty_build_side() {
    let case = FuzzCase {
        seed: 0,
        catalog: Catalog {
            relations: vec![
                relation("build", vec![int_column("a", false)], vec![]),
                relation(
                    "probe",
                    vec![int_column("b", false)],
                    vec![vec![Value::Int(1)], vec![Value::Int(2)]],
                ),
            ],
        },
        ir: parse_ir(
            r#"{"version": 1, "plan": {
                "op": "join",
                "type": "inner",
                "build": {"op": "scan", "relation": "build", "columns": ["a"]},
                "probe": {"op": "scan", "relation": "probe", "columns": ["b"]},
                "build_keys": [0],
                "probe_keys": [0]}}"#,
        )
        .unwrap(),
    };
    assert_eq!(fuzz::reference_rows(&case).unwrap().len(), 0);
    check(&case);
}

/// `min`/`max` over doubles break the one tie `==` leaves, `-0.0 == 0.0`, by
/// bit pattern: `min` keeps −0.0 and `max` keeps +0.0, whatever order the rows
/// arrive in — in the engine at one and four workers, and in the reference.
#[test]
fn double_min_max_keep_signed_zero_in_every_input_order() {
    const PERMUTATIONS: [[usize; 3]; 6] = [
        [0, 1, 2],
        [0, 2, 1],
        [1, 0, 2],
        [1, 2, 0],
        [2, 0, 1],
        [2, 1, 0],
    ];
    // Group "a" ties at its minimum, group "b" at its maximum.
    let a = [1.0, 0.0, -0.0];
    let b = [-1.0, 0.0, -0.0];
    let bits = |value: &Value| match value {
        Value::Double(v) => v.to_bits(),
        other => panic!("not a double: {other:?}"),
    };
    let want = [
        (-0.0f64).to_bits(),
        1.0f64.to_bits(),
        (-1.0f64).to_bits(),
        0.0f64.to_bits(),
    ];
    let ir = r#"{"version": 1, "plan": {
        "op": "aggregate",
        "input": {"op": "scan", "relation": "t", "columns": ["g", "x"]},
        "groups": [{"expr": {"col": 0}, "type": "str"}],
        "aggregates": [
            {"func": "min", "expr": {"col": 1}, "type": "double"},
            {"func": "max", "expr": {"col": 1}, "type": "double"}]}}"#;
    for order in PERMUTATIONS {
        let rows: Vec<Vec<Value>> = (order.iter())
            .flat_map(|&i| {
                [
                    vec![Value::Str("a".into()), Value::Double(a[i])],
                    vec![Value::Str("b".into()), Value::Double(b[i])],
                ]
            })
            .collect();
        for freeze in [false, true] {
            let case = FuzzCase {
                seed: 0,
                catalog: Catalog {
                    relations: vec![RelationData {
                        name: "t".into(),
                        // one row per morsel, so four workers fold them apart
                        chunk_capacity: 1,
                        freeze,
                        columns: vec![
                            ColumnSpec {
                                name: "g".into(),
                                ty: data_blocks::datablocks::DataType::Str,
                                nullable: false,
                            },
                            ColumnSpec {
                                name: "x".into(),
                                ty: data_blocks::datablocks::DataType::Double,
                                nullable: false,
                            },
                        ],
                        rows: rows.clone(),
                    }],
                },
                ir: parse_ir(ir).unwrap(),
            };
            let context = format!("order {order:?} freeze {freeze}");
            let reference = fuzz::reference_rows(&case).unwrap();
            let got: Vec<u64> = (reference.iter())
                .flat_map(|row| [bits(&row[1]), bits(&row[2])])
                .collect();
            assert_eq!(got, want, "reference, {context}");
            let db = case.catalog.build_database();
            for threads in [1, 4] {
                let config = ScanConfig::default().with_threads(threads);
                let batch = query::compile(&db, config, ir).unwrap().execute(&db);
                let got: Vec<u64> = (0..batch.len())
                    .flat_map(|row| {
                        let row = batch.row(row);
                        [bits(&row[1]), bits(&row[2])]
                    })
                    .collect();
                assert_eq!(got, want, "engine at {threads} workers, {context}");
            }
        }
    }
}

// --------------------------------------- checked-in query round-trip/golden

const CHECKED_IN_QUERIES: &[&str] = &["Q1", "Q6", "Q3", "Q12", "Q14"];

#[test]
fn checked_in_queries_round_trip_and_match_plan_goldens() {
    use data_blocks::workloads::tpch::query_ir;
    // The database `plan_dump` renders against: tiny and hot, its row
    // estimates still hash Q12's lineitem side, as at SF 0.2 frozen.
    let db = TpchDb::generate_with_chunk(0.001, 1_024);
    let golden_dir =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/workloads/queries/plans");

    for &name in CHECKED_IN_QUERIES {
        // parse → to_pretty → re-parse is a fixed point.
        let text = query_ir(name);
        let ir = parse_ir(text).unwrap_or_else(|err| panic!("{name}: {err}"));
        let pretty = ir.to_pretty();
        let reparsed = parse_ir(&pretty).unwrap_or_else(|err| panic!("{name} re-parse: {err}"));
        assert_eq!(
            reparsed.to_pretty(),
            pretty,
            "{name}: to_pretty is not a serializer fixed point"
        );

        // The rendered physical plan matches the golden byte-for-byte (one
        // rendering: the tree does not depend on the thread count), and the
        // re-serialized document plans identically.
        let config = ScanConfig::default();
        let plan = query::compile(&db.db, config, text)
            .unwrap_or_else(|err| panic!("planning {name}: {err}"));
        let roundtripped = query::compile(&db.db, config, &pretty)
            .unwrap_or_else(|err| panic!("planning re-serialized {name}: {err}"));
        assert_eq!(
            plan.to_string(),
            roundtripped.to_string(),
            "{name}: re-serialized document lowers differently"
        );
        let rendered = format!("-- {name}\n{plan}\n");
        let golden_path = golden_dir.join(format!("{}.plan", name.to_lowercase()));
        let golden = std::fs::read_to_string(&golden_path)
            .unwrap_or_else(|err| panic!("reading {}: {err}", golden_path.display()));
        assert_eq!(
            golden,
            rendered,
            "{name}: rendered plan drifted from {}",
            golden_path.display()
        );
    }
}
