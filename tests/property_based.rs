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
        // Load the batches in `order` (cold blocks of 64 rows plus a hot tail) and
        // aggregate with `threads` workers over 32-row hot morsels.
        let run = |order: &[usize], threads: usize| -> Batch {
            let schema = Schema::new(vec![
                ColumnDef::nullable("g", DataType::Int),
                ColumnDef::new("v", DataType::Int),
            ]);
            let mut rel = Relation::with_chunk_capacity("shuffled", schema, 64);
            for row in order.iter().flat_map(|&i| &batches[i]) {
                rel.insert(row.clone());
            }
            rel.freeze_full_chunks();
            let config = ScanConfig::default()
                .with_threads(threads)
                .with_morsel_rows(32);
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
