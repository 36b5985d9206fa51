//! Differential test: the morsel-driven parallel scan must produce **byte-identical**
//! results to the single-threaded `scan_collect` reference — for random blocks,
//! random restriction sets and every tested thread count (1, 2, 8), over cold blocks
//! and a hot tail of several chunks, including NULLs, deleted rows and PSMA-narrowed
//! ranges. The parallel path is the
//! bounded streaming pipeline, so the same cases also pin down that tight channel
//! capacities change neither results nor statistics and that the in-flight bound
//! holds.

use data_blocks::datablocks::{scan_collect, CmpOp, DataType, Restriction, Value};
use data_blocks::exec::{drive_streaming, RelationScanner, ScanConfig, ScanMode};
use data_blocks::storage::{ColumnDef, Relation, Schema};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const THREAD_COUNTS: &[usize] = &[1, 2, 8];

/// Build a random relation: column 0 is a dense row id (so scan output maps back to
/// positions), plus a clustered int column (PSMA-friendly), a small-domain string
/// column, a double column and a nullable int column. With `freeze_at: Some(n)` the
/// full chunks of the first `n` rows are frozen before the rest is inserted.
fn random_relation(
    rng: &mut StdRng,
    rows: usize,
    chunk_capacity: usize,
    freeze_at: Option<usize>,
) -> Relation {
    let schema = Schema::new(vec![
        ColumnDef::new("id", DataType::Int),
        ColumnDef::new("clustered", DataType::Int),
        ColumnDef::new("grp", DataType::Str),
        ColumnDef::new("price", DataType::Double),
        ColumnDef::nullable("maybe", DataType::Int),
    ]);
    let mut rel = Relation::with_chunk_capacity("t", schema, chunk_capacity);
    let cluster_width = rng.gen_range(50..400usize);
    let groups = rng.gen_range(2..8usize);
    for i in 0..rows {
        if freeze_at == Some(i) {
            rel.freeze_full_chunks();
        }
        let maybe = if rng.gen_bool(0.2) {
            Value::Null
        } else {
            Value::Int(rng.gen_range(0..50i64))
        };
        rel.insert(vec![
            Value::Int(i as i64),
            // ascending clusters so PSMAs genuinely narrow ranges
            Value::Int((i / cluster_width) as i64),
            Value::Str(format!("g{}", rng.gen_range(0..groups))),
            Value::Double(rng.gen_range(0.0..1_000.0)),
            maybe,
        ]);
    }
    rel
}

/// A random relation of `rows` rows with chunks of `chunk` rows: the full chunks
/// of the first part frozen into cold blocks, then 2–4 chunks' worth of rows
/// inserted after the freeze, a hot tail that spans several chunks — so the
/// workers race over hot morsels as well as cold ones.
fn mixed_relation(rng: &mut StdRng, rows: usize, chunk: usize) -> (Relation, usize) {
    let tail = rng.gen_range(2 * chunk..4 * chunk);
    let rel = random_relation(rng, rows + tail, chunk, Some(rows));
    assert!(rel.cold_block_count() >= 1 && rel.hot_chunks().len() >= 2);
    (rel, rows + tail)
}

/// A random conjunction of 1–3 restrictions over the relation's columns.
fn random_restrictions(rng: &mut StdRng, rows: usize) -> Vec<Restriction> {
    let count = rng.gen_range(1..=3usize);
    let max_cluster = (rows / 50).max(1) as i64;
    (0..count)
        .map(|_| match rng.gen_range(0..6usize) {
            0 => {
                let lo = rng.gen_range(0..max_cluster);
                Restriction::between(1, lo, lo + rng.gen_range(0..3i64))
            }
            1 => {
                let ops = [
                    CmpOp::Eq,
                    CmpOp::Ne,
                    CmpOp::Lt,
                    CmpOp::Le,
                    CmpOp::Gt,
                    CmpOp::Ge,
                ];
                Restriction::cmp(
                    1,
                    ops[rng.gen_range(0..ops.len())],
                    rng.gen_range(0..max_cluster),
                )
            }
            2 => Restriction::eq(2, format!("g{}", rng.gen_range(0..8usize))),
            3 => {
                let lo = rng.gen_range(0.0..900.0);
                Restriction::between(3, lo, lo + rng.gen_range(0.0..300.0))
            }
            4 => Restriction::IsNull { column: 4 },
            _ => Restriction::cmp(4, CmpOp::Le, rng.gen_range(0..50i64)),
        })
        .collect()
}

fn collect_ids(mut scanner: RelationScanner<'_>) -> Vec<i64> {
    let batch = scanner.collect_all();
    (0..batch.len())
        .map(|row| batch.value(row, 0).as_int().unwrap())
        .collect()
}

/// Parallel scans of a single frozen block reproduce `scan_collect`'s match
/// positions exactly, for every thread count.
#[test]
fn parallel_block_scan_matches_scan_collect_reference() {
    for case in 0..12u64 {
        let mut rng = StdRng::seed_from_u64(0xB10C_5CA9 ^ case);
        let rows = rng.gen_range(500..6_000usize);
        // one chunk; random deletions applied before freezing on some cases, after on others
        let mut rel = random_relation(&mut rng, rows, rows, None);
        let delete_after_freeze = rng.gen_bool(0.5);
        let victims: Vec<usize> = (0..rows).filter(|_| rng.gen_bool(0.05)).collect();
        if !delete_after_freeze {
            for &row in &victims {
                rel.delete(data_blocks::storage::RowId {
                    segment: data_blocks::storage::Segment::Hot(0),
                    row: row as u32,
                });
            }
        }
        rel.freeze_all();
        if delete_after_freeze {
            for &row in &victims {
                rel.delete(data_blocks::storage::RowId {
                    segment: data_blocks::storage::Segment::Cold(0),
                    row: row as u32,
                });
            }
        }
        assert_eq!(rel.cold_block_count(), 1);

        let restrictions = random_restrictions(&mut rng, rows);
        let block = &*rel.cold_block(0);
        let expected: Vec<i64> = scan_collect(
            block,
            &restrictions,
            data_blocks::datablocks::ScanOptions::default(),
        )
        .into_iter()
        .map(|pos| pos as i64)
        .collect();

        for &threads in THREAD_COUNTS {
            let config = ScanConfig::default().with_threads(threads);
            let scanner = RelationScanner::new(&rel, vec![0], restrictions.clone(), config);
            let got = collect_ids(scanner);
            assert_eq!(
                got, expected,
                "case {case}: threads {threads}, restrictions {restrictions:?}"
            );
        }
    }
}

/// On mixed hot/cold relations the parallel scan reproduces the serial scan
/// row-for-row in every scan mode.
#[test]
fn parallel_scan_matches_serial_on_mixed_relations() {
    for case in 0..8u64 {
        let mut rng = StdRng::seed_from_u64(0x0D15_C0DE ^ case);
        let rows = rng.gen_range(1_500..8_000usize);
        let chunk = rng.gen_range(400..1_500usize);
        let (rel, rows) = mixed_relation(&mut rng, rows, chunk);
        let restrictions = random_restrictions(&mut rng, rows);

        for mode in [
            ScanMode::Jit,
            ScanMode::Vectorized { sarg: false },
            ScanMode::Vectorized { sarg: true },
        ] {
            let base = ScanConfig {
                mode,
                ..ScanConfig::default()
            };
            let expected = collect_ids(RelationScanner::new(
                &rel,
                vec![0],
                restrictions.clone(),
                base,
            ));
            for &threads in THREAD_COUNTS {
                let config = base.with_threads(threads);
                let got = collect_ids(RelationScanner::new(
                    &rel,
                    vec![0],
                    restrictions.clone(),
                    config,
                ));
                assert_eq!(
                    got, expected,
                    "case {case}: mode {mode:?}, threads {threads}, \
                     restrictions {restrictions:?}"
                );
            }
        }
    }
}

/// Random mixed relations through the explicit streaming entry point, with a
/// deliberately tight channel: results byte-identical to serial for every thread
/// count and the reorder channel never buffers past its bound.
#[test]
fn streaming_scan_matches_serial_under_tight_channel_caps() {
    for case in 0..6u64 {
        let mut rng = StdRng::seed_from_u64(0x057A_EA11 ^ case);
        let rows = rng.gen_range(1_500..6_000usize);
        let chunk = rng.gen_range(400..1_200usize);
        let (rel, rows) = mixed_relation(&mut rng, rows, chunk);
        let restrictions = random_restrictions(&mut rng, rows);
        let expected = collect_ids(RelationScanner::new(
            &rel,
            vec![0],
            restrictions.clone(),
            ScanConfig::default(),
        ));
        for &threads in THREAD_COUNTS {
            for cap in [1usize, 3] {
                let config = ScanConfig::default()
                    .with_threads(threads)
                    .with_channel_cap(cap);
                let mut stream =
                    drive_streaming(rel.scan_snapshot(), vec![0], restrictions.clone(), config);
                let mut got = Vec::new();
                while let Some(batch) = stream.try_next_batch().unwrap() {
                    for row in 0..batch.len() {
                        got.push(batch.value(row, 0).as_int().unwrap());
                    }
                }
                assert_eq!(
                    got, expected,
                    "case {case}: threads {threads}, cap {cap}, restrictions {restrictions:?}"
                );
                assert!(
                    stream.max_in_flight() <= cap,
                    "case {case}: threads {threads}, cap {cap}: high-water {}",
                    stream.max_in_flight()
                );
            }
        }
    }
}

/// PSMA narrowing stays on in the parallel path: a clustered equality restriction
/// scans far fewer rows than the block holds, and results still match the reference.
#[test]
fn parallel_scan_with_psma_narrowed_ranges() {
    let schema = Schema::new(vec![
        ColumnDef::new("id", DataType::Int),
        ColumnDef::new("clustered", DataType::Int),
    ]);
    let rows = 65_536usize;
    let mut rel = Relation::with_chunk_capacity("t", schema, rows);
    for i in 0..rows {
        rel.insert(vec![Value::Int(i as i64), Value::Int((i / 256) as i64)]);
    }
    rel.freeze_all();
    let restrictions = vec![Restriction::eq(1, 100i64)];

    let expected: Vec<i64> = scan_collect(
        &rel.cold_block(0),
        &restrictions,
        data_blocks::datablocks::ScanOptions::default(),
    )
    .into_iter()
    .map(|pos| pos as i64)
    .collect();
    assert_eq!(expected.len(), 256);

    for &threads in THREAD_COUNTS {
        let config = ScanConfig::default().with_threads(threads);
        let mut scanner = RelationScanner::new(&rel, vec![0], restrictions.clone(), config);
        let batch = scanner.collect_all();
        let got: Vec<i64> = (0..batch.len())
            .map(|row| batch.value(row, 0).as_int().unwrap())
            .collect();
        assert_eq!(got, expected, "threads {threads}");
        // the PSMA narrowed the scan to (roughly) the cluster, in parallel too
        assert!(
            scanner.stats().rows_scanned <= 1_024,
            "threads {threads}: scanned {} rows of {rows}",
            scanner.stats().rows_scanned
        );
    }
}
