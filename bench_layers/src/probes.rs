//! Probe passes: direct calls of single layers' public functions, run after the
//! measured phase against the workload's own data. They give the per-layer
//! numbers a span around a whole operation cannot separate.

use std::hint::black_box;
use std::time::Instant;

use datablocks::{Column, Value};
use dbsimd::{IsaLevel, RangePredicate, ScanWord};
use storage::{Database, Relation, RowId, ScanSource, Segment};

use crate::harness::{Outcome, Rng};
use crate::stats;

/// Code words per SIMD kernel probe (one Data Block's worth).
const KERNEL_WORDS: usize = 1 << 16;
/// Repetitions of each timed probe; the median is reported.
const REPS: usize = 15;

/// Median nanoseconds of `REPS` runs of `f`.
fn median_ns(mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..REPS)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_nanos() as f64
        })
        .collect();
    stats::median(&times).expect("REPS > 0")
}

fn kernel_ns_per_elem<T: ScanWord>(rng: &mut Rng, word: impl Fn(u64) -> T, reduce: bool) -> f64 {
    // values uniform in 0..200, predicate [0, 19]: 10 % selectivity
    let data: Vec<T> = (0..KERNEL_WORDS).map(|_| word(rng.below(200))).collect();
    let pred = RangePredicate::between(word(0), word(19));
    let isa = IsaLevel::detect();
    let all: Vec<u32> = (0..KERNEL_WORDS as u32).collect();
    let mut out = Vec::with_capacity(KERNEL_WORDS);
    let ns = median_ns(|| {
        out.clear();
        if reduce {
            out.extend_from_slice(&all);
            dbsimd::reduce_matches(isa, &data, &pred, 0, &mut out);
        } else {
            dbsimd::find_matches(isa, &data, &pred, 0, &mut out);
        }
        black_box(out.len());
    });
    ns / KERNEL_WORDS as f64
}

/// Every probe pass, and the byte totals of `db` at the end of the run:
/// `dbsimd.*`, `datablocks.*` on the relation named `driving` (the one the
/// workload scans), `storage.relation.*` on a clone of the one named `keyed`.
pub fn all(outcome: &mut Outcome, db: &Database, driving: &str, keyed: &str, seed: u64) {
    dbsimd(outcome, seed);
    datablocks(outcome, db.relation(driving), seed);
    relation(outcome, db.relation(keyed), seed);
    storage_bytes(outcome, db);
}

/// `dbsimd.*`: the find and reduce kernels over 65 536 code words at 10 %
/// selectivity, at the detected ISA level.
fn dbsimd(outcome: &mut Outcome, seed: u64) {
    let mut rng = Rng::new(seed, 0xD851);
    outcome.set(
        "dbsimd.find_u8_ns_per_elem",
        kernel_ns_per_elem(&mut rng, |v| v as u8, false),
    );
    outcome.set(
        "dbsimd.find_u16_ns_per_elem",
        kernel_ns_per_elem(&mut rng, |v| v as u16, false),
    );
    outcome.set(
        "dbsimd.find_u32_ns_per_elem",
        kernel_ns_per_elem(&mut rng, |v| v as u32, false),
    );
    outcome.set(
        "dbsimd.reduce_u32_ns_per_elem",
        kernel_ns_per_elem(&mut rng, |v| v as u32, true),
    );
}

/// `datablocks.*` that no scan span gives: point access, freezing, frame
/// encode/decode and the compression ratio, on the first frozen blocks of
/// `relation`. Leaves the metrics unset for a relation without frozen blocks.
fn datablocks(outcome: &mut Outcome, relation: &Relation, seed: u64) {
    let blocks = relation.cold_block_count().min(3);
    if blocks == 0 {
        return;
    }
    let mut rng = Rng::new(seed, 0xDA7A);
    let cols: Vec<usize> = (0..relation.schema().column_count()).collect();
    let (mut point, mut freeze, mut encode, mut decode) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for idx in 0..blocks {
        let block = relation.cold_block(idx);
        let rows = block.tuple_count() as usize;
        let picks: Vec<usize> = (0..1024).map(|_| rng.below(rows as u64) as usize).collect();
        point.push(
            median_ns(|| {
                for &row in &picks {
                    black_box(datablocks::unpack::unpack_point(&block, row, &cols));
                }
            }) / picks.len() as f64,
        );

        let all: Vec<u32> = (0..rows as u32).collect();
        let mut columns: Vec<Column> = cols
            .iter()
            .map(|&c| Column::new(relation.schema().column(c).data_type))
            .collect();
        datablocks::unpack::unpack_columns(&block, &cols, &all, &mut columns);
        let start = Instant::now();
        let refrozen = datablocks::builder::freeze(&columns);
        freeze.push(start.elapsed().as_nanos() as f64 / rows as f64);
        black_box(refrozen.tuple_count());

        let start = Instant::now();
        let frame = datablocks::frame::to_frame(&block);
        encode.push(frame.len() as f64 / (1 << 20) as f64 / start.elapsed().as_secs_f64());
        let start = Instant::now();
        let decoded = datablocks::frame::from_frame(&frame).expect("frame just encoded");
        decode.push(frame.len() as f64 / (1 << 20) as f64 / start.elapsed().as_secs_f64());
        black_box(decoded.tuple_count());
    }
    outcome.set("datablocks.point_ns", stats::median(&point).unwrap_or(0.0));
    outcome.set(
        "datablocks.freeze_ns_per_row",
        stats::median(&freeze).unwrap_or(0.0),
    );
    outcome.set(
        "datablocks.frame_encode_mib_per_s",
        stats::median(&encode).unwrap_or(0.0),
    );
    outcome.set(
        "datablocks.frame_decode_mib_per_s",
        stats::median(&decode).unwrap_or(0.0),
    );
    outcome.set(
        "datablocks.compression_ratio",
        relation.storage_stats().compression_ratio(),
    );
}

/// Rows each `storage.relation` probe touches.
const PROBE_ROWS: usize = 4096;

/// `storage.relation.*` call costs, on a clone of `relation` (which must have an
/// integer primary key and heap-resident cold blocks, so the clone is
/// independent): insert, primary-key lookup, whole-row reads of hot and of
/// frozen rows, in-place update, delete of frozen rows, freezing one full
/// chunk, taking a snapshot and the first write after one.
fn relation(outcome: &mut Outcome, relation: &Relation, seed: u64) {
    let mut rng = Rng::new(seed, 0x5E1A);
    let mut rel = relation.clone();
    let schema = rel.schema().clone();
    let pk = schema
        .primary_key()
        .expect("probe relation has a primary key");

    // existing keys, through a scan of the key column
    let keys = crate::scans::Materialized::new(&rel, &[pk])
        .column(pk)
        .to_vec();
    if keys.is_empty() {
        return;
    }
    let picks: Vec<i64> = (0..PROBE_ROWS)
        .map(|_| keys[rng.below(keys.len() as u64) as usize])
        .collect();
    let ids: Vec<RowId> = picks.iter().filter_map(|&k| rel.lookup_pk(k)).collect();
    outcome.set(
        "storage.relation.lookup_pk_ns",
        median_ns(|| {
            for &k in &picks {
                black_box(rel.lookup_pk(k));
            }
        }) / picks.len() as f64,
    );
    let cold: Vec<RowId> = ids
        .iter()
        .copied()
        .filter(|id| matches!(id.segment, Segment::Cold(_)))
        .collect();
    if !cold.is_empty() {
        outcome.set(
            "storage.relation.get_row_cold_ns",
            median_ns(|| {
                for &id in &cold {
                    black_box(rel.get_row(id));
                }
            }) / cold.len() as f64,
        );
    }

    // fresh rows: copies of existing ones under new keys, into a relation of
    // the same shape, until one chunk is full — then freeze that chunk
    let template = rel.get_row(ids[0]);
    let next_key = keys.iter().copied().max().unwrap_or(0) + 1;
    let fresh_row = |i: usize| {
        let mut row = template.clone();
        row[pk] = Value::Int(next_key + i as i64);
        row
    };
    let chunk = rel.chunk_capacity();
    let mut scratch = Relation::with_chunk_capacity("probe", schema.clone(), chunk);
    let rows: Vec<Vec<Value>> = (0..chunk).map(fresh_row).collect();
    let start = Instant::now();
    for row in rows {
        scratch.insert(row);
    }
    outcome.set(
        "storage.relation.insert_ns",
        start.elapsed().as_nanos() as f64 / chunk as f64,
    );
    let start = Instant::now();
    scratch.freeze_full_chunks();
    outcome.set(
        "storage.relation.freeze_ms_per_chunk",
        start.elapsed().as_secs_f64() * 1e3,
    );
    black_box(scratch.cold_block_count());
    drop(scratch);

    // hot rows in the clone: insert, read, update in place
    let hot: Vec<RowId> = (0..PROBE_ROWS).map(|i| rel.insert(fresh_row(i))).collect();
    outcome.set(
        "storage.relation.get_row_hot_ns",
        median_ns(|| {
            for &id in &hot {
                black_box(rel.get_row(id));
            }
        }) / hot.len() as f64,
    );
    let rows: Vec<Vec<Value>> = (0..hot.len()).map(fresh_row).collect();
    let start = Instant::now();
    for (&id, row) in hot.iter().zip(rows) {
        black_box(rel.update(id, row));
    }
    outcome.set(
        "storage.relation.update_ns",
        start.elapsed().as_nanos() as f64 / hot.len() as f64,
    );

    // snapshot, then the first write while it is alive (copies the tail chunk)
    let mut snapshot_us = Vec::new();
    let mut cow_us = Vec::new();
    for i in 0..9 {
        let start = Instant::now();
        let snapshot = rel.scan_snapshot();
        snapshot_us.push(start.elapsed().as_nanos() as f64 / 1e3);
        let start = Instant::now();
        rel.insert(fresh_row(PROBE_ROWS + i));
        cow_us.push(start.elapsed().as_nanos() as f64 / 1e3);
        black_box(snapshot.cold_block_count());
    }
    outcome.set(
        "storage.relation.snapshot_us",
        stats::median(&snapshot_us).unwrap_or(0.0),
    );
    outcome.set(
        "storage.relation.cow_first_write_us",
        stats::median(&cow_us).unwrap_or(0.0),
    );

    // deletes of frozen rows, last: the first delete in a block the original
    // still shares copies that block
    let victims: Vec<RowId> = cold.iter().copied().take(64).collect();
    if !victims.is_empty() {
        let start = Instant::now();
        for &id in &victims {
            black_box(rel.delete(id));
        }
        outcome.set(
            "storage.relation.delete_cold_us",
            start.elapsed().as_nanos() as f64 / 1e3 / victims.len() as f64,
        );
    }
}

/// The hot and cold byte totals of a database at the end of a run.
fn storage_bytes(outcome: &mut Outcome, db: &Database) {
    let (mut hot, mut cold) = (0usize, 0usize);
    for relation in db.relations() {
        let s = relation.storage_stats();
        hot += s.hot_bytes;
        cold += s.cold_bytes;
    }
    outcome.set("storage.relation.hot_bytes", hot as f64);
    outcome.set("storage.relation.cold_bytes", cold as f64);
}
