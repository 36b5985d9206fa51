//! Property-based tests over the core data structures: compression roundtrips, PSMA
//! coverage, SIMD kernel equivalence and scan correctness against a brute-force
//! oracle.
//!
//! The original version of this file used `proptest`; the build environment is
//! offline, so the same properties are exercised with a seeded in-repo generator
//! (`rand` stand-in crate) running a fixed number of random cases per property.
//! Failures print the offending case seed, so a reproduction is one seed away.

use data_blocks::datablocks::builder::freeze;
use data_blocks::datablocks::{
    scan_collect, CmpOp, Column, ColumnData, Psma, Restriction, ScanOptions, Value,
};
use data_blocks::dbsimd::{find_matches, reduce_matches, IsaLevel, RangePredicate};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CASES: u64 = 64;

fn case_rng(property: &str, case: u64) -> StdRng {
    // Mix the property name into the seed so properties draw distinct streams.
    let tag: u64 = property.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x1000_0000_01b3)
    });
    StdRng::seed_from_u64(tag ^ case)
}

fn int_vec(rng: &mut StdRng, len_lo: usize, len_hi: usize, lo: i64, hi: i64) -> Vec<i64> {
    let len = rng.gen_range(len_lo..len_hi);
    (0..len).map(|_| rng.gen_range(lo..hi)).collect()
}

/// Freezing and point access are lossless for arbitrary integer columns.
#[test]
fn compression_roundtrip_ints() {
    for case in 0..CASES {
        let mut rng = case_rng("roundtrip_ints", case);
        let values = int_vec(&mut rng, 1, 2_000, -1_000_000, 1_000_000);
        let column = Column::from_data(ColumnData::Int(values.clone()));
        let block = freeze(&[column]);
        for (row, expected) in values.iter().enumerate() {
            assert_eq!(block.get(row, 0), Value::Int(*expected), "case {case}");
        }
    }
}

/// Freezing and point access are lossless for arbitrary string columns.
#[test]
fn compression_roundtrip_strings() {
    for case in 0..CASES {
        let mut rng = case_rng("roundtrip_strings", case);
        let len = rng.gen_range(1..500usize);
        let values: Vec<String> = (0..len)
            .map(|_| {
                let chars = rng.gen_range(0..=12usize);
                (0..chars)
                    .map(|_| rng.gen_range(b'a'..=b'z') as char)
                    .collect()
            })
            .collect();
        let column = Column::from_data(ColumnData::Str(values.clone()));
        let block = freeze(&[column]);
        for (row, expected) in values.iter().enumerate() {
            assert_eq!(
                block.get(row, 0),
                Value::Str(expected.clone()),
                "case {case}"
            );
        }
    }
}

/// The flat serialization is a faithful roundtrip.
#[test]
fn layout_roundtrip() {
    for case in 0..CASES {
        let mut rng = case_rng("layout_roundtrip", case);
        let values = int_vec(&mut rng, 1, 1_500, 0, 50_000);
        let block = freeze(&[Column::from_data(ColumnData::Int(values.clone()))]);
        let restored = data_blocks::datablocks::layout::from_bytes(
            &data_blocks::datablocks::layout::to_bytes(&block),
        )
        .unwrap();
        for row in 0..values.len() {
            assert_eq!(restored.get(row, 0), block.get(row, 0), "case {case}");
        }
    }
}

/// Every position of a probed value lies inside the PSMA range.
#[test]
fn psma_ranges_cover_all_occurrences() {
    for case in 0..CASES {
        let mut rng = case_rng("psma_cover", case);
        let keys = int_vec(&mut rng, 1, 3_000, 0, 10_000);
        let probe = rng.gen_range(0..10_000i64);
        let psma = Psma::build(&keys).unwrap();
        let range = psma.probe_eq(probe);
        for (pos, &k) in keys.iter().enumerate() {
            if k == probe {
                assert!(
                    (pos as u32) >= range.begin && (pos as u32) < range.end,
                    "case {case}: position {pos} of probe {probe} outside {range:?}"
                );
            }
        }
    }
}

/// SIMD find/reduce kernels agree with the scalar kernels for every ISA level.
#[test]
fn simd_kernels_match_scalar() {
    for case in 0..CASES {
        let mut rng = case_rng("simd_match_scalar", case);
        let len = rng.gen_range(0..3_000usize);
        let data: Vec<u32> = (0..len).map(|_| rng.gen_range(0..100_000u32)).collect();
        let mut lo = rng.gen_range(0..100_000u32);
        let mut hi = rng.gen_range(0..100_000u32);
        if lo > hi {
            std::mem::swap(&mut lo, &mut hi);
        }
        let pred = RangePredicate::between(lo, hi);
        let mut expected = Vec::new();
        find_matches(IsaLevel::Scalar, &data, &pred, 0, &mut expected);
        for isa in IsaLevel::available() {
            let mut got = Vec::new();
            find_matches(isa, &data, &pred, 0, &mut got);
            assert_eq!(got, expected, "case {case} isa {isa}");

            let mut all: Vec<u32> = (0..data.len() as u32).collect();
            let mut all_expected = all.clone();
            reduce_matches(IsaLevel::Scalar, &data, &pred, 0, &mut all_expected);
            reduce_matches(isa, &data, &pred, 0, &mut all);
            assert_eq!(all, all_expected, "case {case} isa {isa}");
        }
    }
}

/// Block scans with arbitrary conjunctive restrictions match a brute-force oracle,
/// regardless of SMA/PSMA usage.
#[test]
fn block_scan_matches_oracle() {
    for case in 0..CASES {
        let mut rng = case_rng("scan_oracle", case);
        let a = int_vec(&mut rng, 100, 2_000, 0, 500);
        let lo = rng.gen_range(0..500i64);
        let width = rng.gen_range(0..200i64);
        let eq_choice = rng.gen_range(0..4usize);
        let n = a.len();
        let b: Vec<String> = (0..n).map(|i| format!("s{}", i % 4)).collect();
        let block = freeze(&[
            Column::from_data(ColumnData::Int(a.clone())),
            Column::from_data(ColumnData::Str(b.clone())),
        ]);
        let restrictions = vec![
            Restriction::between(0, lo, lo + width),
            Restriction::eq(1, format!("s{eq_choice}")),
        ];
        let expected: Vec<u32> = (0..n)
            .filter(|&i| a[i] >= lo && a[i] <= lo + width && b[i] == format!("s{eq_choice}"))
            .map(|i| i as u32)
            .collect();
        for options in [
            ScanOptions::default(),
            ScanOptions {
                use_sma: false,
                use_psma: false,
                ..ScanOptions::default()
            },
            ScanOptions {
                vector_size: 64,
                ..ScanOptions::default()
            },
        ] {
            assert_eq!(
                scan_collect(&block, &restrictions, options),
                expected,
                "case {case} options {options:?}"
            );
        }
    }
}

/// Scans never return NULL rows for value predicates, and IS NULL / IS NOT NULL
/// partition the block.
#[test]
fn null_semantics_partition_rows() {
    for case in 0..CASES {
        let mut rng = case_rng("null_partition", case);
        let len = rng.gen_range(50..1_000usize);
        let raw: Vec<Option<i64>> = (0..len)
            .map(|_| {
                if rng.gen_bool(0.5) {
                    Some(rng.gen_range(0..100i64))
                } else {
                    None
                }
            })
            .collect();
        let mut column = Column::new(data_blocks::datablocks::DataType::Int);
        for v in &raw {
            column.push(match v {
                Some(x) => Value::Int(*x),
                None => Value::Null,
            });
        }
        let block = freeze(&[column]);
        let nulls = scan_collect(
            &block,
            &[Restriction::IsNull { column: 0 }],
            ScanOptions::default(),
        );
        let not_nulls = scan_collect(
            &block,
            &[Restriction::IsNotNull { column: 0 }],
            ScanOptions::default(),
        );
        assert_eq!(nulls.len() + not_nulls.len(), raw.len(), "case {case}");
        let ge_zero = scan_collect(
            &block,
            &[Restriction::cmp(0, CmpOp::Ge, 0i64)],
            ScanOptions::default(),
        );
        assert_eq!(ge_zero.len(), not_nulls.len(), "case {case}");
    }
}

/// Radix partition assignment for parallel pipeline breakers is a pure function of
/// the key values: bounded by the partition count, identical on every evaluation
/// (hence identical whatever the thread count or morsel schedule), and
/// non-degenerate over random keys.
#[test]
fn radix_partition_assignment_is_stable() {
    use data_blocks::exec::{radix_partition, RADIX_PARTITIONS};
    for case in 0..CASES {
        let mut rng = case_rng("radix_partition", case);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..64 {
            let arity = rng.gen_range(1..=3usize);
            let key: Vec<Value> = (0..arity)
                .map(|_| match rng.gen_range(0..4usize) {
                    0 => Value::Int(rng.gen_range(-1_000..1_000i64)),
                    1 => Value::Double(rng.gen_range(-10.0..10.0)),
                    2 => Value::Str(format!("s{}", rng.gen_range(0..500u32))),
                    _ => Value::Null,
                })
                .collect();
            let partition = radix_partition(&key);
            assert!(partition < RADIX_PARTITIONS, "case {case}");
            for _ in 0..3 {
                assert_eq!(
                    radix_partition(&key),
                    partition,
                    "case {case}: partition of {key:?} must be stable"
                );
            }
            seen.insert(partition);
        }
        assert!(
            seen.len() > 1,
            "case {case}: random keys all landed in one partition"
        );
    }
}

/// Merging the per-worker aggregation partitions in any order yields identical
/// results: aggregating the same batches of rows loaded in random order, at
/// different thread counts, produces aggregates byte-identical to one worker over
/// the original order (for order-insensitive aggregate functions).
#[test]
fn agg_invariant_under_merge_and_batch_order() {
    use data_blocks::datablocks::DataType;
    use data_blocks::exec::{
        AggFunc, AggSpec, Batch, Expr, HashAggregateOp, Operator, PipelineSpec, ScanConfig,
    };
    use data_blocks::storage::{ColumnDef, Relation, Schema};
    for case in 0..16u64 {
        let mut rng = case_rng("agg_merge_order", case);
        let groups = rng.gen_range(1..40i64);
        let batch_count = rng.gen_range(1..12usize);
        let batches: Vec<Vec<Vec<Value>>> = (0..batch_count)
            .map(|_| {
                (0..rng.gen_range(1..200usize))
                    .map(|_| {
                        let g = if rng.gen_bool(0.1) {
                            Value::Null
                        } else {
                            Value::Int(rng.gen_range(0..groups))
                        };
                        vec![g, Value::Int(rng.gen_range(-500..500i64))]
                    })
                    .collect()
            })
            .collect();
        let aggregates = vec![
            AggSpec::new(AggFunc::CountStar, Expr::lit(0i64), DataType::Int),
            AggSpec::new(AggFunc::Sum, Expr::col(1), DataType::Int),
            AggSpec::new(AggFunc::Min, Expr::col(1), DataType::Int),
            AggSpec::new(AggFunc::Max, Expr::col(1), DataType::Int),
        ];
        // Load the batches in `order` (the first half of the rows frozen into cold
        // blocks of 64, the rest a hot tail over several 64-row chunks) and
        // aggregate with `threads` workers, a morsel per block and per hot chunk.
        let run = |order: &[usize], threads: usize| -> Batch {
            let schema = Schema::new(vec![
                ColumnDef::nullable("g", DataType::Int),
                ColumnDef::new("v", DataType::Int),
            ]);
            let mut rel = Relation::with_chunk_capacity("shuffled", schema, 64);
            let rows: Vec<&Vec<Value>> = order.iter().flat_map(|&i| &batches[i]).collect();
            let (frozen, tail) = rows.split_at(rows.len() / 2);
            for row in frozen {
                rel.insert((*row).clone());
            }
            rel.freeze_full_chunks();
            for row in tail {
                rel.insert((*row).clone());
            }
            let config = ScanConfig::default().with_threads(threads);
            let mut agg = HashAggregateOp::over_relation(
                &rel,
                PipelineSpec::scan(vec![0, 1], vec![], config),
                vec![Expr::col(0)],
                vec![DataType::Int],
                aggregates.clone(),
            );
            agg.collect_all()
        };
        let identity: Vec<usize> = (0..batch_count).collect();
        let reference = run(&identity, 1);
        for threads in [1usize, 2, 4, 8] {
            // Fisher–Yates shuffle with the case RNG (the rand stand-in has no
            // shuffle helper)
            let mut order = identity.clone();
            for i in (1..order.len()).rev() {
                let j = rng.gen_range(0..=i);
                order.swap(i, j);
            }
            let got = run(&order, threads);
            assert_eq!(got.len(), reference.len(), "case {case} threads {threads}");
            for row in 0..reference.len() {
                assert_eq!(
                    got.row(row),
                    reference.row(row),
                    "case {case} threads {threads} row {row}"
                );
            }
        }
    }
}

// ------------------------------------------------ expression differential (PR 14)

/// Random expression trees × random batches × random selection vectors: the
/// engine's column-at-a-time evaluation against the fuzz oracle's row-at-a-time
/// interpreter, which shares no evaluation code with it.
mod expression_differential {
    use super::case_rng;
    use data_blocks::datablocks::{CmpOp, Column, ColumnData, DataType, Value};
    use data_blocks::exec::{ArithOp, Batch, Expr};
    use data_blocks::query::fuzz::reference_eval;
    use data_blocks::query::ir::{ExprKind, IrExpr};
    use data_blocks::query::Pos;
    use rand::rngs::StdRng;
    use rand::Rng;

    /// An integer no arithmetic survives: any `+ - *` with it overflows `i64`.
    const HUGE: i64 = i64::MAX / 3 * 2;

    /// The batch of one case and what the expression generator may do with it.
    struct Input {
        batch: Batch,
        /// Numeric columns that are small on every row the case selects (one of
        /// them, the *hazard* column, is [`HUGE`] on every row it does not).
        numbers: Vec<usize>,
        strings: Vec<usize>,
        /// Int column that is [`HUGE`] wherever `ok` is not 1, selected or not.
        guarded: usize,
        /// Int 1/0/NULL column: the guard of `guarded`.
        ok: usize,
    }

    fn node(kind: ExprKind) -> IrExpr {
        IrExpr {
            pos: Pos { line: 1, col: 1 },
            kind,
        }
    }

    fn small_int(rng: &mut StdRng) -> i64 {
        rng.gen_range(-50..=50i64)
    }

    fn small_double(rng: &mut StdRng) -> f64 {
        match rng.gen_range(0..6u32) {
            0 => 0.0,
            1 => -0.0,
            2 => 0.5,
            3 => -2.25,
            _ => rng.gen_range(-100.0..100.0),
        }
    }

    fn word(rng: &mut StdRng) -> String {
        ["", "", "a", "ab", "MAIL", "SHIP", "z"][rng.gen_range(0..7usize)].to_string()
    }

    /// `rows` values from `value`, with no NULLs (and no validity bitmap), a NULL on
    /// about every fourth row, or nothing but NULLs.
    fn column(
        rng: &mut StdRng,
        rows: usize,
        mut value: impl FnMut(&mut StdRng) -> Value,
    ) -> Vec<Value> {
        let nulls = [0.0, 0.0, 0.25, 0.25, 1.0][rng.gen_range(0..5usize)];
        (0..rows)
            .map(|_| {
                if rng.gen_bool(nulls) {
                    Value::Null
                } else {
                    value(rng)
                }
            })
            .collect()
    }

    /// A batch of 0–60 rows and the selection the case evaluates under.
    fn input(rng: &mut StdRng) -> (Input, Option<Vec<u32>>) {
        let rows = [0, 1, 7, 60][rng.gen_range(0..4usize)].min(rng.gen_range(0..61usize) + 1);
        let rows = if rng.gen_bool(0.05) { 0 } else { rows };
        let sel: Option<Vec<u32>> = match rng.gen_range(0..5u32) {
            0 | 1 => None,
            2 => Some(Vec::new()),
            3 => Some((0..rows as u32).filter(|_| rng.gen_bool(0.3)).collect()),
            _ => Some(
                (0..rows as u32)
                    .rev()
                    .filter(|_| rng.gen_bool(0.8))
                    .collect(),
            ),
        };
        let selected = |row: usize| sel.as_ref().is_none_or(|sel| sel.contains(&(row as u32)));

        let mut types = Vec::new();
        let mut columns: Vec<Vec<Value>> = Vec::new();
        let (mut numbers, mut strings) = (Vec::new(), Vec::new());
        // at least one column of every type, then a few more
        for slot in 0..rng.gen_range(3..7usize) {
            let ty = [DataType::Int, DataType::Double, DataType::Str][if slot < 3 {
                slot
            } else {
                rng.gen_range(0..3usize)
            }];
            match ty {
                DataType::Str => strings.push(columns.len()),
                _ => numbers.push(columns.len()),
            }
            types.push(ty);
            columns.push(match ty {
                DataType::Int => column(rng, rows, |rng| Value::Int(small_int(rng))),
                DataType::Double => column(rng, rows, |rng| Value::Double(small_double(rng))),
                DataType::Str => column(rng, rows, |rng| Value::Str(word(rng))),
            });
        }
        // the hazard column: fine where selected, HUGE everywhere else
        numbers.push(columns.len());
        types.push(DataType::Int);
        columns.push(
            (0..rows)
                .map(|row| Value::Int(if selected(row) { small_int(rng) } else { HUGE }))
                .collect(),
        );
        // the guarded column and its guard
        let ok: Vec<Value> = (0..rows)
            .map(|_| match rng.gen_range(0..10u32) {
                0 => Value::Null,
                1..=3 => Value::Int(0),
                _ => Value::Int(1),
            })
            .collect();
        let guarded = ok
            .iter()
            .map(|ok| {
                Value::Int(if *ok == Value::Int(1) {
                    small_int(rng)
                } else {
                    HUGE
                })
            })
            .collect();
        let (guarded_at, ok_at) = (columns.len(), columns.len() + 1);
        types.extend([DataType::Int, DataType::Int]);
        columns.extend([guarded, ok]);

        let table: Vec<Vec<Value>> = (0..rows)
            .map(|row| columns.iter().map(|column| column[row].clone()).collect())
            .collect();
        let input = Input {
            batch: Batch::from_rows(&types, &table),
            numbers,
            strings,
            guarded: guarded_at,
            ok: ok_at,
        };
        (input, sel)
    }

    fn pick<T: Copy>(rng: &mut StdRng, from: &[T]) -> T {
        from[rng.gen_range(0..from.len())]
    }

    const CMP: [CmpOp; 6] = [
        CmpOp::Eq,
        CmpOp::Ne,
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Gt,
        CmpOp::Ge,
    ];
    const ARITH: [ArithOp; 4] = [ArithOp::Add, ArithOp::Sub, ArithOp::Mul, ArithOp::Div];

    /// Anything with a truth value: a number or a string.
    fn truth(rng: &mut StdRng, input: &Input, depth: u32, guarded: bool) -> IrExpr {
        if rng.gen_bool(0.8) {
            number(rng, input, depth, guarded)
        } else {
            string(rng, input, depth, guarded)
        }
    }

    /// The guard: true exactly where the guarded column is small.
    fn guard(rng: &mut StdRng, input: &Input) -> IrExpr {
        let ok = node(ExprKind::Col(input.ok));
        if rng.gen_bool(0.5) {
            return ok;
        }
        let one = node(ExprKind::Lit(Value::Int(1)));
        node(ExprKind::Cmp(CmpOp::Eq, Box::new(ok), Box::new(one)))
    }

    /// A numeric expression; with `guarded` it may read the guarded column.
    fn number(rng: &mut StdRng, input: &Input, depth: u32, guarded: bool) -> IrExpr {
        let b = Box::new;
        if depth == 0 || rng.gen_bool(0.3) {
            return node(match rng.gen_range(0..10u32) {
                0 => ExprKind::Lit(Value::Null),
                1 | 2 => ExprKind::Lit(Value::Int(small_int(rng))),
                3 => ExprKind::Lit(Value::Double(small_double(rng))),
                4 | 5 if guarded => ExprKind::Col(input.guarded),
                _ => ExprKind::Col(pick(rng, &input.numbers)),
            });
        }
        let d = depth - 1;
        node(match rng.gen_range(0..20u32) {
            0..=6 => ExprKind::Arith(
                pick(rng, &ARITH),
                b(number(rng, input, d, guarded)),
                b(number(rng, input, d, guarded)),
            ),
            7..=9 => ExprKind::Cmp(
                pick(rng, &CMP),
                b(number(rng, input, d, guarded)),
                b(number(rng, input, d, guarded)),
            ),
            10 => ExprKind::Cmp(
                pick(rng, &CMP),
                b(string(rng, input, d, guarded)),
                b(string(rng, input, d, guarded)),
            ),
            11 | 12 => ExprKind::And(
                b(truth(rng, input, d, guarded)),
                b(truth(rng, input, d, guarded)),
            ),
            13 | 14 => ExprKind::Or(
                b(truth(rng, input, d, guarded)),
                b(truth(rng, input, d, guarded)),
            ),
            15 | 16 => ExprKind::Case(
                b(truth(rng, input, d, guarded)),
                b(number(rng, input, d, guarded)),
                b(number(rng, input, d, guarded)),
            ),
            // the THEN arm would overflow wherever the guard is not true
            17 => ExprKind::Case(
                b(guard(rng, input)),
                b(number(rng, input, d, true)),
                b(number(rng, input, d, guarded)),
            ),
            // ill-typed, NULL on every row: string arithmetic, string against number
            18 => ExprKind::Arith(
                pick(rng, &ARITH),
                b(string(rng, input, d, guarded)),
                b(number(rng, input, d, guarded)),
            ),
            _ => ExprKind::Cmp(
                pick(rng, &CMP),
                b(number(rng, input, d, guarded)),
                b(string(rng, input, d, guarded)),
            ),
        })
    }

    fn string(rng: &mut StdRng, input: &Input, depth: u32, guarded: bool) -> IrExpr {
        if depth == 0 || rng.gen_bool(0.6) {
            return node(match rng.gen_range(0..6u32) {
                0 => ExprKind::Lit(Value::Null),
                1 | 2 => ExprKind::Lit(Value::Str(word(rng))),
                _ => ExprKind::Col(pick(rng, &input.strings)),
            });
        }
        let d = depth - 1;
        node(ExprKind::Case(
            Box::new(truth(rng, input, d, guarded)),
            Box::new(string(rng, input, d, guarded)),
            Box::new(string(rng, input, d, guarded)),
        ))
    }

    /// Does the tree hold a `CASE` with an Int and a Double arm — where the column
    /// kernel widens up front and the row-wise interpreter does not?
    fn widens(expr: &Expr, types: &[DataType]) -> bool {
        match expr {
            Expr::Col(_) | Expr::Const(_) => false,
            Expr::Arith(_, l, r) | Expr::Cmp(_, l, r) | Expr::And(l, r) | Expr::Or(l, r) => {
                widens(l, types) || widens(r, types)
            }
            Expr::Case(c, t, e) => {
                let arms = (t.static_type(types), e.static_type(types));
                matches!(arms, (Some(a), Some(b)) if a != b)
                    || [c, t, e].iter().any(|sub| widens(sub, types))
            }
        }
    }

    /// Engine value against oracle value: doubles by bit pattern. Below a widening
    /// `CASE` the engine computes in doubles what the oracle may compute in
    /// integers, so there the two are compared as numbers (exact for |i| < 2^53,
    /// which the generator's value pool guarantees).
    fn agree(engine: &Value, oracle: &Value, widened: bool) -> bool {
        match (engine, oracle) {
            (Value::Double(e), Value::Double(o)) if !widened => e.to_bits() == o.to_bits(),
            (Value::Double(e), Value::Double(o)) => e == o,
            (Value::Double(e), Value::Int(o)) if widened => *e == *o as f64,
            _ => engine == oracle,
        }
    }

    fn is_true(value: &Value) -> bool {
        match value {
            Value::Null => false,
            Value::Int(v) => *v != 0,
            Value::Double(v) => *v != 0.0,
            Value::Str(s) => !s.is_empty(),
        }
    }

    /// How [`coded`] presents a string column.
    #[derive(Debug, Clone, Copy)]
    enum Coding {
        /// Over its distinct strings in order — a Data Block's dictionary.
        Ordered,
        /// Over its distinct strings shuffled — a re-coded, merged dictionary.
        Shuffled,
        /// Shuffled among entries no row uses, one of them a duplicate.
        Unused,
    }

    /// `batch` with every string column in coded form. A NULL row gets a random
    /// code: what lies under a NULL must never show.
    fn coded(batch: &Batch, coding: Coding, rng: &mut StdRng) -> Batch {
        let columns = batch.columns().iter().map(|column| {
            let Some(strings) = column.data.strings() else {
                return column.clone();
            };
            let mut dict: Vec<String> = (0..column.len())
                .filter(|&row| !column.is_null(row))
                .map(|row| strings.get(row).to_string())
                .collect();
            dict.sort();
            dict.dedup();
            if let Coding::Unused = coding {
                let duplicate = dict.first().cloned().unwrap_or_default();
                dict.extend(["unused".into(), "MAILBOX".into(), "~".into(), duplicate]);
            }
            if !matches!(coding, Coding::Ordered) {
                for i in (1..dict.len()).rev() {
                    dict.swap(i, rng.gen_range(0..=i));
                }
            }
            if dict.is_empty() && !column.is_empty() {
                dict.push("under every NULL".into());
            }
            let codes = (0..column.len())
                .map(|row| match column.is_null(row) {
                    true => rng.gen_range(0..dict.len()) as u32,
                    false => dict.iter().position(|d| d == strings.get(row)).unwrap() as u32,
                })
                .collect();
            Column {
                data: ColumnData::Dict {
                    dict: dict.into(),
                    codes,
                },
                validity: column.validity.clone(),
            }
        });
        Batch::from_columns(columns.collect())
    }

    /// Names the case a panic came from — an overflow inside the engine has no
    /// assertion message to carry it.
    struct Running(u64);

    impl Drop for Running {
        fn drop(&mut self) {
            if std::thread::panicking() {
                eprintln!("expression differential failed at case seed {}", self.0);
            }
        }
    }

    pub fn run(cases: std::ops::Range<u64>) {
        for case in cases {
            let _running = Running(case);
            let mut rng = case_rng("expression_differential", case);
            let (input, sel) = input(&mut rng);
            let batch = &input.batch;
            let types = batch.types();
            let rows: Vec<usize> = match &sel {
                None => (0..batch.len()).collect(),
                Some(sel) => sel.iter().map(|&row| row as usize).collect(),
            };

            // one expression, as a column
            let ir = truth(&mut rng, &input, 3, false);
            let expr = ir.to_exec();
            let widened = widens(&expr, &types);
            let column = expr.evaluate(batch, sel.as_deref());
            assert_eq!(column.len(), rows.len(), "case {case}: {expr:?}");
            // The same strings coded (a stream of its own, so the cases above do not
            // move): the same column, hence also the oracle's.
            let mut coding_rng = case_rng("expression_differential_coded", case);
            let presentations: Vec<(Coding, Batch)> =
                [Coding::Ordered, Coding::Shuffled, Coding::Unused]
                    .into_iter()
                    .map(|coding| (coding, coded(batch, coding, &mut coding_rng)))
                    .collect();
            for (coding, coded) in &presentations {
                let got = expr.evaluate(coded, sel.as_deref());
                assert_eq!(got.len(), column.len(), "case {case} {coding:?}: {expr:?}");
                for k in 0..column.len() {
                    assert!(
                        agree(&got.get(k), &column.get(k), false),
                        "case {case} {coding:?}, row {k}: coded {:?}, plain {:?} for {expr:?}",
                        got.get(k),
                        column.get(k),
                    );
                }
            }
            if let Some(ty) = expr.static_type(&types) {
                assert_eq!(column.data_type(), ty, "case {case}: {expr:?}");
            }
            for (k, &row) in rows.iter().enumerate() {
                let oracle = reference_eval(&ir, &batch.row(row)).unwrap();
                assert!(
                    agree(&column.get(k), &oracle, widened),
                    "case {case}, batch row {row} (selection {sel:?}): engine {:?}, oracle \
                     {oracle:?} for {expr:?} over {:?}",
                    column.get(k),
                    batch.row(row),
                );
            }

            // a conjunctive filter: once the guard is a conjunct, later ones may
            // overflow wherever it is not true — they must never get to see those rows
            let mut conjuncts = Vec::new();
            let mut guarded = false;
            for _ in 0..rng.gen_range(1..4usize) {
                if !guarded && rng.gen_bool(0.4) {
                    conjuncts.push(guard(&mut rng, &input));
                    guarded = true;
                } else {
                    conjuncts.push(truth(&mut rng, &input, 2, guarded));
                }
            }
            let expected: Vec<u32> = rows
                .iter()
                .filter(|&&row| {
                    conjuncts
                        .iter()
                        .all(|c| is_true(&reference_eval(c, &batch.row(row)).unwrap()))
                })
                .map(|&row| row as u32)
                .collect();
            let predicate = conjuncts
                .iter()
                .map(IrExpr::to_exec)
                .reduce(Expr::and)
                .expect("at least one conjunct");
            assert_eq!(
                predicate.select(batch, sel.as_deref()),
                expected,
                "case {case} (selection {sel:?}): {predicate:?}"
            );
            for (coding, coded) in &presentations {
                assert_eq!(
                    predicate.select(coded, sel.as_deref()),
                    expected,
                    "case {case} {coding:?} (selection {sel:?}): {predicate:?}"
                );
            }
        }
    }
}

/// Column-at-a-time expression evaluation equals the reference interpreter's
/// row-wise value on every selected row (doubles by `to_bits()`), with string
/// columns plain and coded (ordered, shuffled and padded dictionaries, random codes
/// under NULLs), and rows outside the selection — or outside a `CASE` arm, or
/// dropped by an earlier conjunct — are never evaluated: in this (debug) build,
/// evaluating one would overflow and panic.
#[test]
fn expression_columns_match_the_reference_interpreter() {
    expression_differential::run(0..CASES * 8);
}

/// The same differential at a case count for CI's release-mode run
/// (`cargo test --release --test property_based -- --ignored`); a failure prints
/// its case seed like every property in this file.
#[test]
#[ignore = "long: run by CI in release mode"]
fn expression_columns_match_the_reference_interpreter_long() {
    expression_differential::run(0..200_000);
}

/// A relation with a primary key and 64-row chunks agrees with a `HashMap` model
/// of its live rows through random inserts, deletes, updates of hot and of cold
/// rows (key kept or changed), freezes of the full chunks, of every chunk, and of
/// every chunk sorted by an attribute (only while no hot chunk holds a deletion),
/// with a spill store attached at one random step. After every step the indexed
/// lookup and its row, the scan lookup and the live row count match the model.
/// Snapshots taken along the way scan to the model as it was when they were
/// taken; on a spilling relation only until a delete follows, because a delete of
/// a spilled row shows through to older snapshots.
#[test]
fn relation_matches_a_model_through_freezes_and_spill() {
    use data_blocks::datablocks::DataType;
    use data_blocks::exec::{RelationScanner, ScanConfig};
    use data_blocks::storage::{ColumnDef, Relation, ScanSnapshot, Schema, Segment, SpillPolicy};
    use std::collections::HashMap;

    const STEPS: usize = 200;
    let row = |key: i64, value: i64| vec![Value::Int(key), Value::Int(value)];
    for case in 0..16u64 {
        let mut rng = case_rng("relation_model", case);
        let schema = Schema::new(vec![
            ColumnDef::new("k", DataType::Int),
            ColumnDef::new("v", DataType::Int),
        ])
        .with_primary_key("k");
        let mut rel = Relation::with_chunk_capacity("model", schema, 64);
        let mut model: HashMap<i64, i64> = HashMap::new();
        let mut next_key = 0i64;
        let spill_at = rng.gen_range(0..STEPS);
        // Each snapshot, the model at its step, and whether it is still checked.
        let mut snapshots: Vec<(ScanSnapshot, HashMap<i64, i64>, bool)> = Vec::new();
        for step in 0..STEPS {
            let at = format!("case {case} step {step}");
            if step == spill_at {
                let cache = rng.gen_range(0..16_384usize);
                rel.enable_spill(&SpillPolicy::with_cache_capacity(cache))
                    .unwrap();
            }
            let mut keys: Vec<i64> = model.keys().copied().collect();
            keys.sort_unstable();
            let pick = |rng: &mut StdRng| keys[rng.gen_range(0..keys.len())];
            let mut deleted = false;
            match rng.gen_range(0..100u32) {
                0..=39 => {
                    for _ in 0..rng.gen_range(1..=40) {
                        let value = rng.gen_range(-1_000..1_000i64);
                        rel.insert(row(next_key, value));
                        model.insert(next_key, value);
                        next_key += 1;
                    }
                }
                40..=51 if !keys.is_empty() => {
                    let key = pick(&mut rng);
                    assert!(rel.delete(rel.lookup_pk(key).unwrap()), "{at}");
                    model.remove(&key);
                    deleted = true;
                }
                52..=81 if !keys.is_empty() => {
                    // A few draws for a row in the tier asked for, else the last.
                    let cold = rng.gen_bool(0.5);
                    let mut key = pick(&mut rng);
                    for _ in 0..16 {
                        if matches!(rel.lookup_pk(key).unwrap().segment, Segment::Cold(_)) == cold {
                            break;
                        }
                        key = pick(&mut rng);
                    }
                    // The key kept, a fresh one, or one no live row holds.
                    let new_key = match rng.gen_range(0..3u32) {
                        0 => key,
                        1 => next_key,
                        _ => Some(rng.gen_range(0..next_key))
                            .filter(|k| *k == key || !model.contains_key(k))
                            .unwrap_or(next_key),
                    };
                    next_key += i64::from(new_key == next_key);
                    let value = rng.gen_range(-1_000..1_000i64);
                    let id = rel.lookup_pk(key).unwrap();
                    rel.update(id, row(new_key, value));
                    model.remove(&key);
                    model.insert(new_key, value);
                    deleted = matches!(id.segment, Segment::Cold(_));
                }
                82..=89 => rel.freeze_full_chunks(),
                90..=94 => rel.freeze_all(),
                95..=99 if rel.hot_chunks().iter().all(|c| c.live_len() == c.len()) => {
                    rel.freeze_all_sorted_by(rng.gen_range(0..2usize))
                }
                _ => {}
            }

            assert_eq!(rel.live_row_count(), model.len(), "{at}");
            // Keys live before the step, and keys from the whole range ever used.
            for draw in 0..6 {
                let key = match draw {
                    0..=2 if !keys.is_empty() => pick(&mut rng),
                    _ => rng.gen_range(-1..=next_key),
                };
                let found = rel.lookup_pk(key);
                assert_eq!(
                    found.map(|id| rel.get_row(id)),
                    model.get(&key).map(|&value| row(key, value)),
                    "{at}: key {key}"
                );
                let scanned = rel.lookup_pk_scan(key, ScanOptions::default());
                assert_eq!(scanned, found, "{at}: key {key}");
            }

            if deleted && rel.has_spill() {
                snapshots.iter_mut().for_each(|snapshot| snapshot.2 = false);
            }
            if rng.gen_bool(0.05) {
                snapshots.push((rel.scan_snapshot(), model.clone(), true));
            }
            if rng.gen_bool(0.1) || step == STEPS - 1 {
                for (i, (snapshot, then, _)) in snapshots.iter().enumerate().filter(|s| s.1 .2) {
                    let config = ScanConfig::default().with_threads(rng.gen_range(1..=2));
                    let batch =
                        RelationScanner::new(snapshot, vec![0, 1], vec![], config).collect_all();
                    let int = |r: usize, c: usize| batch.value(r, c).as_int().unwrap();
                    let scanned: HashMap<i64, i64> =
                        (0..batch.len()).map(|r| (int(r, 0), int(r, 1))).collect();
                    assert_eq!(batch.len(), then.len(), "{at}: snapshot {i}");
                    assert_eq!(&scanned, then, "{at}: snapshot {i}");
                }
            }
        }
    }
}
