//! Scan operations: what the scan workloads run, how their answers are checked,
//! and the two bottom rungs of the layer ladder — the same scan composed from
//! `datablocks` calls (so spans nest) and run through `exec::RelationScanner`.

use std::time::Instant;

use datablocks::scan::Restriction;
use datablocks::unpack::unpack_columns;
use datablocks::{BlockScan, CmpOp, Column, ScanOptions};
use exec::{Batch, RelationScanner, ScanConfig, ScanMode, ScanStats};
use storage::{ColdReadError, ScanSource};

use crate::harness::{Outcome, Rng, POOL};
use crate::stats;
use crate::trace::{self, Span, Tracer};

/// A SARGable predicate on an integer column, kept in a form the answer check
/// can evaluate without the engine.
#[derive(Debug, Clone, Copy)]
pub enum Pred {
    /// `lo <= col <= hi`
    Between { col: usize, lo: i64, hi: i64 },
    /// `col < v`
    Lt { col: usize, v: i64 },
    /// `col <= v`
    Le { col: usize, v: i64 },
    /// `col > v`
    Gt { col: usize, v: i64 },
    /// `col = v`
    Eq { col: usize, v: i64 },
}

impl Pred {
    fn col(&self) -> usize {
        match *self {
            Pred::Between { col, .. }
            | Pred::Lt { col, .. }
            | Pred::Le { col, .. }
            | Pred::Gt { col, .. }
            | Pred::Eq { col, .. } => col,
        }
    }

    fn restriction(&self) -> Restriction {
        match *self {
            Pred::Between { col, lo, hi } => Restriction::between(col, lo, hi),
            Pred::Lt { col, v } => Restriction::cmp(col, CmpOp::Lt, v),
            Pred::Le { col, v } => Restriction::cmp(col, CmpOp::Le, v),
            Pred::Gt { col, v } => Restriction::cmp(col, CmpOp::Gt, v),
            Pred::Eq { col, v } => Restriction::eq(col, v),
        }
    }

    fn matches(&self, value: i64) -> bool {
        match *self {
            Pred::Between { lo, hi, .. } => lo <= value && value <= hi,
            Pred::Lt { v, .. } => value < v,
            Pred::Le { v, .. } => value <= v,
            Pred::Gt { v, .. } => value > v,
            Pred::Eq { v, .. } => value == v,
        }
    }
}

/// What a scan returned, reduced to what the check compares: the row count and
/// an order-insensitive checksum over every projected integer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Answer {
    /// Rows returned.
    pub rows: u64,
    /// Wrapping sum of `value * (slot + 1)` over all projected values.
    pub checksum: i64,
}

impl Answer {
    fn add(&mut self, slot: usize, values: impl Iterator<Item = i64>) {
        let sum = values.fold(0i64, i64::wrapping_add);
        self.checksum = self
            .checksum
            .wrapping_add(sum.wrapping_mul(slot as i64 + 1));
    }

    /// Fold one result batch in (integer columns only).
    pub fn fold(&mut self, batch: &Batch) {
        self.rows += batch.len() as u64;
        for (slot, column) in batch.columns().iter().enumerate() {
            if let Some(values) = column.data.as_int() {
                self.add(slot, values.iter().copied());
            }
        }
    }
}

/// One scan with its parameters bound.
#[derive(Debug, Clone)]
pub struct ScanOp {
    /// Columns returned.
    pub projection: Vec<usize>,
    /// Predicates, all pushed into the scan.
    pub preds: Vec<Pred>,
    /// `ScanConfig::threads` for this op.
    pub threads: usize,
    /// The answer an independent path computed at set-up, when there is one.
    pub expected: Option<Answer>,
}

impl ScanOp {
    /// A serial scan without an expected answer yet.
    pub fn new(projection: Vec<usize>, preds: Vec<Pred>) -> ScanOp {
        ScanOp {
            projection,
            preds,
            threads: 1,
            expected: None,
        }
    }

    /// The predicates as the engine takes them.
    pub fn restrictions(&self) -> Vec<Restriction> {
        self.preds.iter().map(Pred::restriction).collect()
    }
}

/// Integer columns of a relation copied out through the tuple-at-a-time scan
/// (`ScanMode::Jit`, no restriction): no SMA, PSMA, SIMD kernel or vectorised
/// unpack is on that path, which makes it the independent one expected answers
/// come from.
pub struct Materialized {
    cols: Vec<usize>,
    data: Vec<Vec<i64>>,
}

impl Materialized {
    /// Copy `cols` of `source` out.
    pub fn new<S: ScanSource>(source: &S, cols: &[usize]) -> Materialized {
        let config = ScanConfig {
            mode: ScanMode::Jit,
            ..ScanConfig::default()
        };
        let mut scanner = RelationScanner::new(source, cols.to_vec(), Vec::new(), config);
        let mut data: Vec<Vec<i64>> = vec![Vec::new(); cols.len()];
        while let Some(batch) = scanner.next_batch() {
            for (slot, column) in batch.columns().iter().enumerate() {
                data[slot].extend_from_slice(column.data.as_int().expect("integer column"));
            }
        }
        Materialized {
            cols: cols.to_vec(),
            data,
        }
    }

    /// The copied values of relation column `col`.
    pub fn column(&self, col: usize) -> &[i64] {
        let slot = self
            .cols
            .iter()
            .position(|&c| c == col)
            .expect("column was materialised");
        &self.data[slot]
    }

    /// The answer of `op` by plain loops over the copied columns.
    pub fn answer(&self, op: &ScanOp) -> Answer {
        let rows = self.data.first().map_or(0, Vec::len);
        let mut keep = vec![true; rows];
        for pred in &op.preds {
            for (flag, &value) in keep.iter_mut().zip(self.column(pred.col())) {
                *flag &= pred.matches(value);
            }
        }
        let mut answer = Answer {
            rows: keep.iter().filter(|&&k| k).count() as u64,
            checksum: 0,
        };
        for (slot, &col) in op.projection.iter().enumerate() {
            let kept = self
                .column(col)
                .iter()
                .zip(&keep)
                .filter_map(|(&v, &k)| k.then_some(v));
            answer.add(slot, kept);
        }
        answer
    }
}

/// What one run of a scan through `RelationScanner` reported.
pub struct ScannerRun {
    /// The result, reduced.
    pub answer: Answer,
    /// The scanner's own counters.
    pub stats: ScanStats,
    /// Nanoseconds until the first batch arrived (the whole scan if none did).
    pub first_batch_ns: u64,
    /// Batches returned.
    pub batches: u64,
}

/// Run `op` through `exec::RelationScanner` with pushdown.
pub fn run_scanner<S: ScanSource>(source: &S, op: &ScanOp) -> Result<ScannerRun, ColdReadError> {
    let start = Instant::now();
    let config = ScanConfig::default().with_threads(op.threads);
    let mut scanner =
        RelationScanner::new(source, op.projection.clone(), op.restrictions(), config);
    let mut answer = Answer::default();
    let mut first_batch_ns = None;
    let mut batches = 0;
    while let Some(batch) = scanner.try_next_batch()? {
        first_batch_ns.get_or_insert_with(|| start.elapsed().as_nanos() as u64);
        batches += 1;
        answer.fold(&batch);
    }
    Ok(ScannerRun {
        answer,
        stats: scanner.stats(),
        first_batch_ns: first_batch_ns.unwrap_or_else(|| start.elapsed().as_nanos() as u64),
        batches,
    })
}

/// Run `op` without pushdown (`ScanMode::Vectorized { sarg: false }`): the
/// restrictions are evaluated tuple at a time on copied vectors. Used to
/// re-check answers where the data changes while the workload runs.
pub fn run_without_pushdown<S: ScanSource>(
    source: &S,
    op: &ScanOp,
) -> Result<Answer, ColdReadError> {
    let config = ScanConfig {
        mode: ScanMode::Vectorized { sarg: false },
        ..ScanConfig::default()
    };
    let mut scanner =
        RelationScanner::new(source, op.projection.clone(), op.restrictions(), config);
    let mut answer = Answer::default();
    while let Some(batch) = scanner.try_next_batch()? {
        answer.fold(&batch);
    }
    Ok(answer)
}

/// Counts taken while a scan is composed from `datablocks` calls.
#[derive(Debug, Default, Clone, Copy)]
pub struct ComposedCounts {
    /// Cold blocks looked at.
    pub blocks_total: u64,
    /// Cold blocks a plan was made for (not pruned from the directory).
    pub blocks_planned: u64,
    /// Cold blocks ruled out, by the directory summary or by the plan.
    pub blocks_ruled_out: u64,
    /// Records of the blocks that were scanned at all.
    pub rows_in_scanned_blocks: u64,
    /// Records inside the narrowed scan ranges.
    pub rows_scanned: u64,
    /// Values unpacked (matches x projected columns).
    pub values_unpacked: u64,
}

/// The same scan `RelationScanner` runs in pushdown mode, composed here from the
/// layers below it — `ScanSource::cold_block` (page-in), `BlockScan::new` (plan),
/// `BlockScan::next_matches` (find and reduce), `unpack_columns` — with a span
/// around each call. `spilled` says whether page-in goes to a block store.
pub fn composed_scan<S: ScanSource>(
    source: &S,
    op: &ScanOp,
    spilled: bool,
    tracer: &mut Tracer,
    counts: &mut ComposedCounts,
) -> Result<Answer, ColdReadError> {
    let options = ScanOptions::default();
    let restrictions = op.restrictions();
    let types: Vec<_> = op
        .projection
        .iter()
        .map(|&c| source.column_type(c))
        .collect();
    let mut answer = Answer::default();
    let mut matches = Vec::new();
    tracer.enter("datablocks", "scan");
    for idx in 0..source.cold_block_count() {
        counts.blocks_total += 1;
        if !source.cold_block_may_match(idx, &restrictions, &options) {
            counts.blocks_ruled_out += 1;
            continue;
        }
        if spilled {
            tracer.enter("storage.blockstore", "page_in");
        }
        let block = source.cold_block(idx);
        if spilled {
            tracer.exit();
        }
        let block = match block {
            Ok(block) => block,
            Err(err) => {
                tracer.exit();
                return Err(err);
            }
        };
        tracer.enter("datablocks", "plan");
        let mut scan = BlockScan::new(&block, &restrictions, options);
        tracer.exit();
        counts.blocks_planned += 1;
        if scan.plan().is_ruled_out() {
            counts.blocks_ruled_out += 1;
            continue;
        }
        counts.rows_in_scanned_blocks += u64::from(block.tuple_count());
        counts.rows_scanned += u64::from(scan.plan().scan_range().len());
        loop {
            tracer.enter("datablocks", "find");
            let found = scan.next_matches(&mut matches);
            tracer.exit();
            match found {
                None => break,
                Some(0) => continue,
                Some(found) => {
                    let mut columns: Vec<Column> = types.iter().map(|&t| Column::new(t)).collect();
                    tracer.enter("datablocks", "unpack");
                    unpack_columns(&block, &op.projection, &matches, &mut columns);
                    tracer.exit();
                    counts.values_unpacked += (found * columns.len()) as u64;
                    answer.fold(&Batch::from_columns(columns));
                }
            }
        }
    }
    for chunk in source.hot_chunks() {
        tracer.enter("storage.relation", "hot_scan");
        matches.clear();
        chunk.find_matches(&restrictions, 0, chunk.len(), &mut matches);
        let mut columns: Vec<Column> = types.iter().map(|&t| Column::new(t)).collect();
        for (slot, &col) in op.projection.iter().enumerate() {
            chunk.gather(col, &matches, &mut columns[slot]);
        }
        tracer.exit();
        counts.rows_scanned += chunk.len() as u64;
        answer.fold(&Batch::from_columns(columns));
    }
    tracer.exit();
    Ok(answer)
}

/// The two scan rungs measured over one round of scan ops.
pub struct ScanLadder {
    /// Median milliseconds of one round through `RelationScanner`.
    pub scanner_ms: f64,
    /// Spans of every composed pass.
    pub spans: Vec<Span>,
}

/// Run `passes` rounds of `ops` at both scan rungs and fill the `datablocks.*`,
/// `storage.blockstore.self_ms` and `exec.scan.*` metrics. Counts are those of
/// one round (the last pass); times are medians over the passes. A failed or
/// wrong scan counts as a failed operation.
pub fn scan_ladder<S: ScanSource>(
    source: &S,
    ops: &[&ScanOp],
    passes: usize,
    spilled: bool,
    epoch: Instant,
    outcome: &mut Outcome,
) -> ScanLadder {
    let mut tracer = Tracer::new(epoch);
    let mut composed_ms = Vec::new();
    let mut scanner_ms = Vec::new();
    let mut page_in_ms = Vec::new();
    let mut counts = ComposedCounts::default();
    let mut stats_round = ScanStats::default();
    let mut first_batch_us = Vec::new();
    let mut batches = 0;
    let mut pass_spans = Vec::new();
    for _ in 0..passes {
        counts = ComposedCounts::default();
        let start = Instant::now();
        for op in ops {
            tracer.next_op();
            outcome.attempted += 1;
            match composed_scan(source, op, spilled, &mut tracer, &mut counts) {
                Ok(answer) if op.expected.is_none_or(|e| e == answer) => {}
                _ => outcome.failed += 1,
            }
        }
        composed_ms.push(start.elapsed().as_secs_f64() * 1e3);
        pass_spans = tracer.take();
        let page_in_ns = trace::self_ns_by_layer(&pass_spans)
            .get("storage.blockstore")
            .copied();
        page_in_ms.push(page_in_ns.unwrap_or(0) as f64 / 1e6);

        stats_round = ScanStats::default();
        batches = 0;
        let start = Instant::now();
        for op in ops {
            outcome.attempted += 1;
            match run_scanner(source, op) {
                Ok(run) if op.expected.is_none_or(|e| e == run.answer) => {
                    stats_round.merge(&run.stats);
                    first_batch_us.push(run.first_batch_ns as f64 / 1e3);
                    batches += run.batches;
                }
                _ => outcome.failed += 1,
            }
        }
        scanner_ms.push(start.elapsed().as_secs_f64() * 1e3);
    }
    let composed = stats::median(&composed_ms).unwrap_or(0.0);
    let scanner = stats::median(&scanner_ms).unwrap_or(0.0);
    let page_in = stats::median(&page_in_ms).unwrap_or(0.0);
    let span_ns = |name| trace::total_ns(&pass_spans, "datablocks", name).0 as f64;
    let per = |num: f64, den: u64| if den == 0 { 0.0 } else { num / den as f64 };

    outcome.set(
        "datablocks.scan_ns_per_row",
        per(span_ns("find"), counts.rows_scanned),
    );
    outcome.set(
        "datablocks.plan_us_per_block",
        per(span_ns("plan") / 1e3, counts.blocks_planned),
    );
    outcome.set(
        "datablocks.unpack_ns_per_value",
        per(span_ns("unpack"), counts.values_unpacked),
    );
    outcome.set(
        "datablocks.ruled_out_ratio",
        per(counts.blocks_ruled_out as f64, counts.blocks_total),
    );
    outcome.set(
        "datablocks.psma_narrow_ratio",
        if counts.rows_in_scanned_blocks == 0 {
            0.0
        } else {
            1.0 - counts.rows_scanned.min(counts.rows_in_scanned_blocks) as f64
                / counts.rows_in_scanned_blocks as f64
        },
    );
    outcome.set("datablocks.self_ms", composed - page_in);
    outcome.set("storage.blockstore.self_ms", page_in);
    outcome.set("exec.scan.total_ms", scanner);
    outcome.set("exec.scan.self_ms", scanner - composed);
    outcome.set(
        "exec.scan.ratio_to_below",
        if composed > 0.0 {
            scanner / composed
        } else {
            0.0
        },
    );
    outcome.set("exec.scan.rows_scanned", stats_round.rows_scanned as f64);
    outcome.set("exec.scan.rows_matched", stats_round.rows_matched as f64);
    outcome.set("exec.scan.blocks_total", stats_round.blocks_total as f64);
    outcome.set(
        "exec.scan.blocks_skipped",
        stats_round.blocks_skipped as f64,
    );
    outcome.set(
        "exec.scan.skip_ratio",
        per(
            stats_round.blocks_skipped as f64,
            stats_round.blocks_total as u64,
        ),
    );
    outcome.set("exec.scan.batches", batches as f64);
    outcome.set(
        "exec.scan.first_batch_us",
        stats::median(&first_batch_us).unwrap_or(0.0),
    );
    ScanLadder {
        scanner_ms: scanner,
        spans: pass_spans,
    }
}

// ------------------------------------------------------------- lineitem pools

/// Op types of the scan workloads, in table order.
pub const SCAN_KINDS: [&str; 5] = ["q6", "disc", "point", "full", "disc_t2"];

/// Lineitem columns the scan ops touch (and the answer check copies out).
pub fn lineitem_cols(schema: &storage::Schema) -> Vec<usize> {
    [
        "l_orderkey",
        "l_quantity",
        "l_extendedprice",
        "l_discount",
        "l_shipdate",
    ]
    .iter()
    .map(|name| schema.idx(name))
    .collect()
}

/// Seeded pools of [`POOL`] parameter sets per scan op type over lineitem:
/// `q6` (Q6's three restrictions), `disc` (a discount range matching ~45 %),
/// `point` (equality on `l_orderkey`), `full` (no restriction, two columns — it
/// has no parameter, its sets are equal) and, when `with_t2`, `disc_t2` (`disc`
/// at two scan threads). Sets of one type select the same share of the
/// relation, so a seed changes which rows are read, not how many.
pub fn lineitem_pools(
    schema: &storage::Schema,
    orders: i64,
    rng: &mut Rng,
    with_t2: bool,
) -> Vec<Vec<ScanOp>> {
    let col = |name: &str| schema.idx(name);
    let (price, discount, quantity) =
        (col("l_extendedprice"), col("l_discount"), col("l_quantity"));
    let mut pools: Vec<Vec<ScanOp>> = vec![Vec::new(); if with_t2 { 5 } else { 4 }];
    for _ in 0..POOL {
        // a year that lies wholly inside the shipped dates, so every
        // parameter set selects about one seventh of the relation
        let start =
            datablocks::date_to_days(rng.range(1993, 1996) as i32, rng.range(1, 12) as u32, 1);
        let disc_lo = rng.range(1, 7);
        pools[0].push(ScanOp::new(
            vec![price, discount],
            vec![
                Pred::Between {
                    col: col("l_shipdate"),
                    lo: start,
                    hi: start + 364,
                },
                Pred::Between {
                    col: discount,
                    lo: disc_lo,
                    hi: disc_lo + 2,
                },
                Pred::Lt {
                    col: quantity,
                    v: rng.range(24, 25),
                },
            ],
        ));
        let lo = rng.range(0, 6);
        let disc = ScanOp::new(
            vec![price, discount],
            vec![Pred::Between {
                col: discount,
                lo,
                hi: lo + 4,
            }],
        );
        if with_t2 {
            pools[4].push(ScanOp {
                threads: 2,
                ..disc.clone()
            });
        }
        pools[1].push(disc);
        pools[2].push(ScanOp::new(
            vec![col("l_orderkey"), price, discount],
            vec![Pred::Eq {
                col: col("l_orderkey"),
                v: rng.range(1, orders),
            }],
        ));
        pools[3].push(ScanOp::new(vec![quantity, price], Vec::new()));
    }
    pools
}

#[cfg(test)]
mod tests {
    use super::*;
    use datablocks::{DataType, Value};
    use storage::{ColumnDef, Relation, Schema};

    fn relation() -> Relation {
        let schema = Schema::new(vec![
            ColumnDef::new("k", DataType::Int),
            ColumnDef::new("v", DataType::Int),
        ]);
        let mut rel = Relation::with_chunk_capacity("t", schema, 256);
        for i in 0..1000i64 {
            rel.insert(vec![Value::Int(i), Value::Int(i % 7)]);
        }
        rel.freeze_full_chunks(); // three frozen blocks and a hot tail
        rel
    }

    #[test]
    fn three_paths_agree_on_the_answer() {
        let rel = relation();
        let table = Materialized::new(&rel, &[0, 1]);
        let mut op = ScanOp::new(
            vec![0, 1],
            vec![
                Pred::Between {
                    col: 0,
                    lo: 100,
                    hi: 899,
                },
                Pred::Lt { col: 1, v: 3 },
            ],
        );
        let expected = table.answer(&op);
        assert_eq!(
            expected.rows,
            (100..900).filter(|i| i % 7 < 3).count() as u64
        );
        op.expected = Some(expected);
        assert_eq!(run_scanner(&rel, &op).unwrap().answer, expected);
        assert_eq!(run_without_pushdown(&rel, &op).unwrap(), expected);
        let mut tracer = Tracer::new(Instant::now());
        let mut counts = ComposedCounts::default();
        assert_eq!(
            composed_scan(&rel, &op, false, &mut tracer, &mut counts).unwrap(),
            expected
        );
        assert_eq!(counts.blocks_total, 3);
        let spans = tracer.take();
        assert!(spans.iter().all(|s| s.layer != "storage.blockstore"));
        assert_eq!(
            trace::total_ns(&spans, "datablocks", "plan").1,
            counts.blocks_planned
        );
    }

    #[test]
    fn a_wrong_answer_is_told_apart() {
        let rel = relation();
        let table = Materialized::new(&rel, &[0, 1]);
        let op = ScanOp::new(vec![1], vec![Pred::Eq { col: 0, v: 5 }]);
        let off_by_one = ScanOp::new(vec![1], vec![Pred::Eq { col: 0, v: 6 }]);
        assert_eq!(table.answer(&op).rows, 1);
        assert_ne!(table.answer(&op), table.answer(&off_by_one));
    }
}
