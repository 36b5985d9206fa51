//! Differential tests for the pipeline breakers — hash aggregation and the hash-join
//! build — across worker counts. There is one implementation of each; what these
//! tests pin is that the worker count changes nothing but time:
//!
//! * at **one worker** the result equals an in-test fold over the rows in scan
//!   order (or a nested-loop join in stream order) **exactly** — counts, min/max,
//!   integer sums and double sums bit for bit — for both aggregate constructors;
//! * at **2, 4 and 8 workers** it equals the one-worker result, except that double
//!   sums are a parallel floating-point reduction and get a relative epsilon.
//!
//! Inputs: skewed group keys, NULL groups/keys, mixed hot/cold storage and keys that
//! leave most radix partitions empty.

use data_blocks::datablocks::{CmpOp, DataType, Restriction, Value};
use data_blocks::exec::{
    collect_operator, AggFunc, AggSpec, Batch, Expr, FilterOp, HashAggregateOp, HashJoinOp,
    JoinType, PipelineSpec, ProjectOp, RelationScanner, ScanConfig, ScanOp, ValuesOp,
};
use data_blocks::storage::{ColumnDef, Relation, Schema};

const THREAD_COUNTS: &[usize] = &[1, 2, 4, 8];

/// A relation with a heavily skewed string group column (~80 % of rows fall into
/// one group, the rest spread over a long tail), a nullable int group column
/// (NULL groups must aggregate like any other key), and int/double payloads.
/// The full chunks of the first half are frozen before the second half is
/// inserted: cold blocks plus a hot tail that spans several chunks, so workers race
/// over hot morsels as well as cold ones.
fn skewed_relation(rows: usize, chunk: usize) -> Relation {
    let schema = Schema::new(vec![
        ColumnDef::new("id", DataType::Int),
        ColumnDef::new("grp", DataType::Str),
        ColumnDef::nullable("maybe", DataType::Int),
        ColumnDef::new("val", DataType::Int),
        ColumnDef::new("price", DataType::Double),
    ]);
    let mut rel = Relation::with_chunk_capacity("skewed", schema, chunk);
    for i in 0..rows {
        if i == rows / 2 {
            rel.freeze_full_chunks();
        }
        // deterministic skew: 4 of 5 rows hit the hot group
        let grp = if i % 5 != 0 {
            "hot".to_string()
        } else {
            format!("tail{}", i % 31)
        };
        let maybe = if i % 7 == 0 {
            Value::Null
        } else {
            Value::Int((i % 3) as i64)
        };
        rel.insert(vec![
            Value::Int(i as i64),
            Value::Str(grp),
            maybe,
            Value::Int((i * i % 1_000) as i64),
            Value::Double((i % 997) as f64 * 0.25),
        ]);
    }
    rel
}

/// Order-insensitive aggregates over input columns 0 id, 1 grp, 2 maybe, 3 val, as
/// `(function, input column)` — the form [`fold_in_row_order`] evaluates.
const INT_AGGREGATES: &[(AggFunc, usize)] = &[
    (AggFunc::CountStar, 0),
    (AggFunc::Count, 2),
    (AggFunc::Sum, 3),
    (AggFunc::Min, 3),
    (AggFunc::Max, 3),
    (AggFunc::Avg, 3),
];

/// The operator's [`AggSpec`]s for a `(function, input column)` list.
fn specs(aggregates: &[(AggFunc, usize)], types: &[DataType]) -> Vec<AggSpec> {
    aggregates
        .iter()
        .map(|&(func, col)| {
            let output = match func {
                AggFunc::CountStar | AggFunc::Count => DataType::Int,
                AggFunc::Avg => DataType::Double,
                AggFunc::Sum | AggFunc::Min | AggFunc::Max => types[col],
            };
            AggSpec::new(func, Expr::col(col), output)
        })
        .collect()
}

/// All rows of `rel` in scan order (cold blocks, then the hot tail).
fn rows_in_scan_order(rel: &Relation, projection: Vec<usize>) -> Vec<Vec<Value>> {
    let batch = RelationScanner::new(rel, projection, vec![], ScanConfig::default()).collect_all();
    (0..batch.len()).map(|row| batch.row(row)).collect()
}

/// The reference: fold `rows` in order into one accumulator per group, written
/// without any of the operator's machinery, and emit groups sorted by key. Sums
/// add in row order, so one worker must reproduce even the double sums bit for bit.
fn fold_in_row_order(
    rows: &[Vec<Value>],
    group: impl Fn(&[Value]) -> Vec<Value>,
    aggregates: &[(AggFunc, usize)],
) -> Vec<Vec<Value>> {
    #[derive(Clone)]
    struct Acc {
        rows: i64,
        non_null: i64,
        sum: Value,
        min: Value,
        max: Value,
    }
    let add = |sum: &Value, value: &Value| match (sum, value) {
        (Value::Null, v) => v.clone(),
        (Value::Int(a), Value::Int(b)) => Value::Int(a + b),
        (Value::Double(a), Value::Double(b)) => Value::Double(a + b),
        other => panic!("mixed-type sum {other:?}"),
    };
    let mut groups: Vec<(Vec<Value>, Vec<Acc>)> = Vec::new();
    for row in rows {
        let key = group(row);
        let idx = groups
            .iter()
            .position(|(k, _)| *k == key)
            .unwrap_or_else(|| {
                let fresh = Acc {
                    rows: 0,
                    non_null: 0,
                    sum: Value::Null,
                    min: Value::Null,
                    max: Value::Null,
                };
                groups.push((key, vec![fresh; aggregates.len()]));
                groups.len() - 1
            });
        for (acc, &(func, col)) in groups[idx].1.iter_mut().zip(aggregates) {
            acc.rows += 1;
            let value = &row[col];
            if func == AggFunc::CountStar || value.is_null() {
                continue;
            }
            acc.non_null += 1;
            acc.sum = add(&acc.sum, value);
            if acc.min.is_null() || value.total_cmp(&acc.min).is_lt() {
                acc.min = value.clone();
            }
            if acc.max.is_null() || value.total_cmp(&acc.max).is_gt() {
                acc.max = value.clone();
            }
        }
    }
    groups.sort_by(|(a, _), (b, _)| {
        a.iter()
            .zip(b)
            .map(|(x, y)| x.total_cmp(y))
            .find(|ord| ord.is_ne())
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    groups
        .into_iter()
        .map(|(mut out, accs)| {
            for (acc, &(func, _)) in accs.iter().zip(aggregates) {
                out.push(match func {
                    AggFunc::CountStar => Value::Int(acc.rows),
                    AggFunc::Count => Value::Int(acc.non_null),
                    AggFunc::Sum => acc.sum.clone(),
                    AggFunc::Min => acc.min.clone(),
                    AggFunc::Max => acc.max.clone(),
                    AggFunc::Avg => match &acc.sum {
                        Value::Null => Value::Null,
                        Value::Int(sum) => Value::Double(*sum as f64 / acc.non_null as f64),
                        sum => Value::Double(sum.as_double().unwrap() / acc.non_null as f64),
                    },
                });
            }
            out
        })
        .collect()
}

/// Byte equality with the reference, doubles by bit pattern.
fn assert_matches_fold(got: &Batch, expected: &[Vec<Value>], context: &str) {
    assert_eq!(got.len(), expected.len(), "{context}: row counts differ");
    for (row, want) in expected.iter().enumerate() {
        let have = got.row(row);
        assert_eq!(&have, want, "{context} row {row}");
        for (h, w) in have.iter().zip(want) {
            if let (Value::Double(h), Value::Double(w)) = (h, w) {
                assert_eq!(h.to_bits(), w.to_bits(), "{context} row {row}");
            }
        }
    }
}

/// `HashAggregateOp::new` over a calling-thread scan of the whole relation.
fn pulled_agg(
    rel: &Relation,
    projection: Vec<usize>,
    group_exprs: Vec<Expr>,
    group_types: Vec<DataType>,
    aggregates: Vec<AggSpec>,
) -> Batch {
    let scanner = RelationScanner::new(rel, projection, vec![], ScanConfig::default());
    let mut agg = HashAggregateOp::new(
        Box::new(ScanOp::new(scanner)),
        group_exprs,
        group_types,
        aggregates,
    );
    collect_operator(&mut agg)
}

/// Aggregation reproduces the row-order fold byte for byte on skewed and
/// NULL-bearing group keys — through both constructors, for every thread count
/// (every aggregate here is order-insensitive).
#[test]
fn aggregation_matches_row_order_fold_on_skewed_and_null_groups() {
    let rel = skewed_relation(6_400, 1_000);
    let projection = vec![0usize, 1, 2, 3];
    let types = [DataType::Int, DataType::Str, DataType::Int, DataType::Int];
    let group_exprs = vec![Expr::col(1), Expr::col(2)];
    let group_types = vec![DataType::Str, DataType::Int];
    let expected = fold_in_row_order(
        &rows_in_scan_order(&rel, projection.clone()),
        |row| vec![row[1].clone(), row[2].clone()],
        INT_AGGREGATES,
    );
    assert!(expected.len() > 30, "skew + NULL tail yields many groups");
    let pulled = pulled_agg(
        &rel,
        projection.clone(),
        group_exprs.clone(),
        group_types.clone(),
        specs(INT_AGGREGATES, &types),
    );
    assert_matches_fold(&pulled, &expected, "new over a scan");
    for &threads in THREAD_COUNTS {
        let config = ScanConfig::default().with_threads(threads);
        let spec = PipelineSpec::scan(projection.clone(), vec![], config);
        let mut agg = HashAggregateOp::over_relation(
            &rel,
            spec,
            group_exprs.clone(),
            group_types.clone(),
            specs(INT_AGGREGATES, &types),
        );
        let got = collect_operator(&mut agg);
        assert_matches_fold(&got, &expected, &format!("threads {threads}"));
    }
}

/// The per-morsel operator chain (scan → filter → project → aggregate build) agrees
/// with the same chain of pull operators, and both with the fold.
#[test]
fn pipelined_filter_and_project_match_pull_operators() {
    let rel = skewed_relation(4_000, 900);
    let predicate = Expr::col(3).cmp(CmpOp::Ge, Expr::lit(100i64));
    let project_exprs = vec![Expr::col(1), Expr::col(3).mul(Expr::lit(2i64))];
    let project_types = vec![DataType::Str, DataType::Int];
    let aggregates = [(AggFunc::CountStar, 0), (AggFunc::Sum, 1)];

    let projected: Vec<Vec<Value>> = rows_in_scan_order(&rel, vec![0, 1, 2, 3])
        .into_iter()
        .filter(|row| row[3].as_int().unwrap() >= 100)
        .map(|row| vec![row[1].clone(), Value::Int(row[3].as_int().unwrap() * 2)])
        .collect();
    let expected = fold_in_row_order(&projected, |row| vec![row[0].clone()], &aggregates);

    let scanner = RelationScanner::new(&rel, vec![0, 1, 2, 3], vec![], ScanConfig::default());
    let filtered = FilterOp::new(Box::new(ScanOp::new(scanner)), predicate.clone());
    let projected = ProjectOp::new(
        Box::new(filtered),
        project_exprs.clone(),
        project_types.clone(),
    );
    let mut pulled = HashAggregateOp::new(
        Box::new(projected),
        vec![Expr::col(0)],
        vec![DataType::Str],
        specs(&aggregates, &project_types),
    );
    assert_matches_fold(&collect_operator(&mut pulled), &expected, "pull operators");

    for &threads in THREAD_COUNTS {
        let config = ScanConfig::default().with_threads(threads);
        let spec = PipelineSpec::scan(vec![0, 1, 2, 3], vec![], config)
            .then_filter(predicate.clone())
            .then_project(project_exprs.clone(), project_types.clone());
        assert_eq!(spec.output_types(&rel), project_types);
        let mut agg = HashAggregateOp::over_relation(
            &rel,
            spec,
            vec![Expr::col(0)],
            vec![DataType::Str],
            specs(&aggregates, &project_types),
        );
        let got = collect_operator(&mut agg);
        assert_matches_fold(&got, &expected, &format!("threads {threads}"));
    }
}

/// Double sums: one worker adds in scan order and matches the fold bit for bit,
/// through both constructors; more workers are a parallel floating-point reduction,
/// equal up to reassociation.
#[test]
fn double_sums_are_exact_at_one_worker_and_reassociated_above() {
    let rel = skewed_relation(5_000, 1_000);
    let projection = vec![0usize, 1, 2, 3, 4];
    let types = [
        DataType::Int,
        DataType::Str,
        DataType::Int,
        DataType::Int,
        DataType::Double,
    ];
    let aggregates = [(AggFunc::Sum, 4), (AggFunc::CountStar, 0)];
    let expected = fold_in_row_order(
        &rows_in_scan_order(&rel, projection.clone()),
        |row| vec![row[1].clone()],
        &aggregates,
    );
    let pulled = pulled_agg(
        &rel,
        projection.clone(),
        vec![Expr::col(1)],
        vec![DataType::Str],
        specs(&aggregates, &types),
    );
    assert_matches_fold(&pulled, &expected, "new over a scan");
    for &threads in THREAD_COUNTS {
        let config = ScanConfig::default().with_threads(threads);
        let spec = PipelineSpec::scan(projection.clone(), vec![], config);
        let mut agg = HashAggregateOp::over_relation(
            &rel,
            spec,
            vec![Expr::col(1)],
            vec![DataType::Str],
            specs(&aggregates, &types),
        );
        let got = collect_operator(&mut agg);
        if threads == 1 {
            assert_matches_fold(&got, &expected, "one worker");
            continue;
        }
        assert_eq!(got.len(), expected.len());
        for (row, want) in expected.iter().enumerate() {
            // group key and count: byte-identical
            assert_eq!(got.value(row, 0), want[0]);
            assert_eq!(got.value(row, 2), want[2]);
            let (a, b) = (
                got.value(row, 1).as_double().unwrap(),
                want[1].as_double().unwrap(),
            );
            let scale = a.abs().max(b.abs()).max(1.0);
            assert!(
                (a - b).abs() / scale < 1e-9,
                "threads {threads} row {row}: {a} vs {b}"
            );
        }
    }
}

/// Empty inputs and single-group inputs (63 of 64 radix partitions empty).
#[test]
fn aggregation_handles_empty_and_single_partition_inputs() {
    let types = [DataType::Int, DataType::Str, DataType::Int, DataType::Int];
    let run = |rel: &Relation, restrictions: Vec<Restriction>, group: Expr, threads: usize| {
        let spec = PipelineSpec::scan(
            vec![0, 1, 2, 3],
            restrictions,
            ScanConfig::default().with_threads(threads),
        );
        let mut agg = HashAggregateOp::over_relation(
            rel,
            spec,
            vec![group],
            vec![DataType::Str],
            specs(INT_AGGREGATES, &types),
        );
        collect_operator(&mut agg)
    };
    // empty relation → no groups, zero-row output
    let empty = skewed_relation(0, 100);
    // restriction matches nothing → same
    let rel = skewed_relation(2_000, 500);
    let nothing = vec![Restriction::cmp(0, CmpOp::Lt, -1i64)];
    for threads in [1usize, 4] {
        assert_eq!(run(&empty, vec![], Expr::col(1), threads).len(), 0);
        assert_eq!(run(&rel, nothing.clone(), Expr::col(1), threads).len(), 0);
    }

    // constant group key → every row in one radix partition, the rest empty
    let expected = fold_in_row_order(
        &rows_in_scan_order(&rel, vec![0, 1, 2, 3]),
        |_| vec![Value::Str("all".into())],
        INT_AGGREGATES,
    );
    assert_eq!(expected.len(), 1);
    for &threads in THREAD_COUNTS {
        let got = run(&rel, vec![], Expr::lit("all"), threads);
        assert_matches_fold(&got, &expected, &format!("threads {threads}"));
    }
}

/// The join's reference: a nested loop in probe-stream order emitting, per probe
/// row, the matching build rows in build-stream order.
fn nested_loop_join(
    build: &[Vec<Value>],
    probe: &[Vec<Value>],
    join_type: JoinType,
) -> Vec<Vec<Value>> {
    let mut out = Vec::new();
    for probe_row in probe {
        let key = &probe_row[1];
        let matches = build.iter().filter(|b| !key.is_null() && b[0] == *key);
        match join_type {
            JoinType::Inner => out.extend(matches.map(|b| {
                let mut joined = b.clone();
                joined.extend(probe_row.iter().cloned());
                joined
            })),
            JoinType::ProbeSemi => out.extend(matches.take(1).map(|_| probe_row.clone())),
        }
    }
    out
}

/// A build relation with skewed duplicate keys and NULL keys, scanned and built
/// with 1–8 workers, joins byte-identically to the nested loop — each key's build
/// rows in stream order — inner and semi, with and without the early-probe filter.
#[test]
fn join_build_matches_nested_loop_for_every_worker_count() {
    // build: key skew (key 1 carries most rows) + NULL keys
    let build_schema = Schema::new(vec![
        ColumnDef::nullable("k", DataType::Int),
        ColumnDef::new("payload", DataType::Str),
    ]);
    // The full chunks of the first half frozen, the rest a hot tail of 3 chunks.
    let mut build_rel = Relation::with_chunk_capacity("build", build_schema, 300);
    for i in 0..1_500usize {
        if i == 750 {
            build_rel.freeze_full_chunks();
        }
        let key = match i % 10 {
            0 => Value::Null,
            1..=6 => Value::Int(1), // skew
            _ => Value::Int((i % 40) as i64),
        };
        build_rel.insert(vec![key, Value::Str(format!("p{i}"))]);
    }

    // probe: ids with a key column overlapping the build keys (and NULLs)
    let probe_schema = Schema::new(vec![
        ColumnDef::new("id", DataType::Int),
        ColumnDef::nullable("k", DataType::Int),
    ]);
    let mut probe_rel = Relation::with_chunk_capacity("probe", probe_schema, 400);
    for i in 0..2_000usize {
        let key = if i % 13 == 0 {
            Value::Null
        } else {
            Value::Int((i % 50) as i64)
        };
        probe_rel.insert(vec![Value::Int(i as i64), key]);
    }
    probe_rel.freeze_full_chunks();

    let build_rows = rows_in_scan_order(&build_rel, vec![0, 1]);
    let probe_rows = rows_in_scan_order(&probe_rel, vec![0, 1]);
    for join_type in [JoinType::Inner, JoinType::ProbeSemi] {
        let expected = nested_loop_join(&build_rows, &probe_rows, join_type);
        assert!(
            !expected.is_empty(),
            "{join_type:?}: join must produce rows"
        );
        for early_probe in [false, true] {
            for &threads in THREAD_COUNTS {
                let config = ScanConfig::default().with_threads(threads);
                let build = RelationScanner::new(&build_rel, vec![0, 1], vec![], config);
                let probe =
                    RelationScanner::new(&probe_rel, vec![0, 1], vec![], ScanConfig::default());
                let mut join = HashJoinOp::new(
                    Box::new(ScanOp::new(build)),
                    Box::new(ScanOp::new(probe)),
                    vec![0],
                    vec![1],
                    join_type,
                )
                .with_early_probe(early_probe);
                let got = collect_operator(&mut join);
                assert_matches_fold(
                    &got,
                    &expected,
                    &format!("{join_type:?} early_probe={early_probe} threads {threads}"),
                );
            }
        }
    }
}

/// A scan of an empty relation on the build side produces an empty join for every
/// scan worker count.
#[test]
fn join_with_empty_build_side() {
    let probe = Batch::from_rows(
        &[DataType::Int],
        &(0..50).map(|i| vec![Value::Int(i)]).collect::<Vec<_>>(),
    );
    let empty = Relation::new(
        "empty",
        Schema::new(vec![ColumnDef::new("k", DataType::Int)]),
    );
    for &threads in THREAD_COUNTS {
        let config = ScanConfig::default().with_threads(threads);
        let build = RelationScanner::new(&empty, vec![0], vec![], config);
        let mut join = HashJoinOp::new(
            Box::new(ScanOp::new(build)),
            Box::new(ValuesOp::new(probe.clone())),
            vec![0],
            vec![0],
            JoinType::Inner,
        );
        assert_eq!(collect_operator(&mut join).len(), 0, "threads {threads}");
    }
}
