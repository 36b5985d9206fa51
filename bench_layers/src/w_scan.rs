//! `scan_mem` and `scan_spill`: one thread of `exec::RelationScanner` scans over
//! frozen TPC-H lineitem — in memory, or spilled behind a block cache that holds
//! a quarter of the cold bytes.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use storage::blockstore::Durability;
use storage::{Relation, SpillPolicy};
use workloads::tpch::TpchDb;

use crate::harness::{self, OpKind, Outcome, Rng, RunArgs, POOL};
use crate::probes;
use crate::scans::{self, ComposedCounts, Materialized, ScanOp, SCAN_KINDS};
use crate::stats::{self, Stream};
use crate::trace::Tracer;

/// A directory under the benchmark's output directory, removed on drop.
struct ScratchDir(PathBuf);

impl ScratchDir {
    /// Create `<out>/<name>-<pid>`.
    fn new(name: &str) -> std::io::Result<ScratchDir> {
        let path = harness::out_dir().join(format!("{name}-{}", std::process::id()));
        std::fs::create_dir_all(&path)?;
        Ok(ScratchDir(path))
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Spill `relation` to `<dir>/<name>.dbs` behind a cache of a quarter of its
/// cold bytes (`Durability::Buffered`; scans use read-ahead 0). Returns the
/// write rate in MiB/s.
fn spill_quarter_cache(relation: &mut Relation, dir: &ScratchDir) -> f64 {
    let cold_bytes = relation.storage_stats().cold_bytes;
    let policy = SpillPolicy {
        cache_capacity_bytes: cold_bytes / 4,
        path: Some(dir.0.join(format!("{}.dbs", relation.name()))),
        durability: Durability::Buffered,
        ..SpillPolicy::default()
    };
    let start = Instant::now();
    relation.enable_spill(&policy).expect("spill lineitem");
    let secs = start.elapsed().as_secs_f64();
    let written = relation
        .spill_store()
        .expect("store attached")
        .stats()
        .bytes_written;
    written as f64 / (1 << 20) as f64 / secs
}

/// One shuffled round of the op types, each with a seeded parameter set.
/// With a tracer, serial scans are composed from the lower layers so spans nest
/// (whether or not the tracer is recording right now).
fn round(
    lineitem: &Relation,
    pools: &[Vec<ScanOp>],
    rng: &mut Rng,
    stream: &mut Stream,
    outcome: &mut Outcome,
    tracer: Option<&mut Tracer>,
) {
    let mut order: Vec<usize> = (0..pools.len()).collect();
    rng.shuffle(&mut order);
    let spilled = lineitem.has_spill();
    let mut tracer = tracer;
    for kind in order {
        let op = &pools[kind][rng.below(POOL as u64) as usize];
        outcome.attempted += 1;
        stream.tick();
        let start = Instant::now();
        let answer = match tracer.as_deref_mut() {
            Some(tracer) => {
                tracer.next_op();
                tracer.enter("workload", SCAN_KINDS[kind]);
                let answer = if op.threads == 1 {
                    scans::composed_scan(
                        lineitem,
                        op,
                        spilled,
                        tracer,
                        &mut ComposedCounts::default(),
                    )
                } else {
                    tracer.enter("exec.scan", "scan");
                    let run = scans::run_scanner(lineitem, op).map(|run| run.answer);
                    tracer.exit();
                    run
                };
                tracer.exit();
                answer
            }
            None => scans::run_scanner(lineitem, op).map(|run| run.answer),
        };
        let dur_ns = start.elapsed().as_nanos() as u64;
        match answer {
            Ok(answer) if Some(answer) == op.expected => stream.push(kind as u8, dur_ns),
            _ => outcome.failed += 1,
        }
    }
    stream.end_round();
}

/// Rounds until `seconds` have passed, as `[spans off, spans on]`. Without a
/// tracer every round is the plain `RelationScanner` loop. With one, every
/// round composes its scans and rounds alternate spans on and off
/// ([`stats::spans_on`]); the phase ends on a whole group of four.
fn rounds_for(
    seconds: f64,
    lineitem: &Relation,
    pools: &[Vec<ScanOp>],
    rng: &mut Rng,
    outcome: &mut Outcome,
    mut tracer: Option<&mut Tracer>,
) -> [Stream; 2] {
    let mut streams = [Stream::default(), Stream::default()];
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut i = 0;
    loop {
        let on = tracer
            .as_deref_mut()
            .is_some_and(|t| t.record(stats::spans_on(i)));
        round(
            lineitem,
            pools,
            rng,
            &mut streams[usize::from(on)],
            outcome,
            tracer.as_deref_mut(),
        );
        i += 1;
        if Instant::now() >= deadline && (tracer.is_none() || i % 4 == 0) {
            return streams;
        }
    }
}

/// `storage.blockstore.*`: counters of one fixed piece of work (the ladder
/// passes from a cold cache) and the cost of a pin that misses or hits.
fn blockstore_metrics(
    outcome: &mut Outcome,
    lineitem: &Relation,
    ladder_ops: u64,
    write_mib_per_s: f64,
) {
    let store = lineitem.spill_store().expect("scan_spill attaches a store");
    let io = store.stats();
    outcome.set("storage.blockstore.block_reads", io.block_reads as f64);
    outcome.set("storage.blockstore.bytes_read", io.bytes_read as f64);
    outcome.set("storage.blockstore.cache_hits", io.cache_hits as f64);
    outcome.set("storage.blockstore.cache_misses", io.cache_misses as f64);
    outcome.set(
        "storage.blockstore.hit_ratio",
        io.cache_hits as f64 / (io.cache_hits + io.cache_misses).max(1) as f64,
    );
    outcome.set("storage.blockstore.evictions", io.evictions as f64);
    outcome.set(
        "storage.blockstore.prefetch_reads",
        io.prefetch_reads as f64,
    );
    outcome.set("storage.blockstore.retries", io.retries as f64);
    outcome.set(
        "storage.blockstore.reads_per_op",
        io.block_reads as f64 / ladder_ops.max(1) as f64,
    );
    outcome.set("storage.blockstore.spill_write_mib_per_s", write_mib_per_s);
    outcome.set(
        "storage.blockstore.cache_high_water_bytes",
        store.cache_high_water_bytes() as f64,
    );

    store.clear_cache();
    let (mut miss_ms, mut hit_us) = (Vec::new(), Vec::new());
    for idx in 0..lineitem.cold_block_count() {
        let start = Instant::now();
        let first = lineitem.try_cold_block(idx);
        miss_ms.push(start.elapsed().as_secs_f64() * 1e3);
        let start = Instant::now();
        let second = lineitem.try_cold_block(idx);
        hit_us.push(start.elapsed().as_nanos() as f64 / 1e3);
        if first.is_err() || second.is_err() {
            outcome.failed += 1;
        }
    }
    outcome.set(
        "storage.blockstore.pin_miss_ms",
        stats::median(&miss_ms).unwrap_or(0.0),
    );
    outcome.set(
        "storage.blockstore.pin_hit_us",
        stats::median(&hit_us).unwrap_or(0.0),
    );
}

/// Run `scan_mem` (`spill` off) or `scan_spill` (`spill` on).
pub fn run(args: &RunArgs, spill: bool) -> Outcome {
    let mut outcome = Outcome::default();
    let scratch = spill.then(|| ScratchDir::new("spill").expect("create the spill directory"));
    let ((db, write_mib_per_s), setup_s) = harness::timed_setup(args.setup_repeats(), || {
        let mut db = TpchDb::generate(args.tpch_sf());
        db.freeze();
        let rate = scratch.as_ref().map_or(0.0, |dir| {
            spill_quarter_cache(db.db.relation_mut("lineitem"), dir)
        });
        (db, rate)
    });
    let lineitem = db.relation("lineitem");
    let schema = lineitem.schema();

    // op pools, with expected answers from the tuple-at-a-time copy
    let mut rng = Rng::new(args.seed, u64::from(spill));
    let orders = db.relation("orders").row_count() as i64;
    let mut pools = scans::lineitem_pools(schema, orders, &mut rng, !spill);
    {
        let table = Materialized::new(lineitem, &scans::lineitem_cols(schema));
        for op in pools.iter_mut().flatten() {
            op.expected = Some(table.answer(op));
        }
    }
    let kinds: Vec<OpKind> = SCAN_KINDS[..pools.len()]
        .iter()
        .map(|&name| OpKind { name, read: true })
        .collect();
    let stats_now = lineitem.storage_stats();
    outcome.note(
        "lineitem",
        format!(
            "{} rows, {} blocks, {} cold bytes",
            lineitem.row_count(),
            stats_now.cold_blocks,
            stats_now.cold_bytes
        ),
    );
    harness::begin_measuring(&mut outcome);

    // warm-up, then the untraced measured phase
    let mut warm = Outcome::default();
    rounds_for(args.warm_up(), lineitem, &pools, &mut rng, &mut warm, None);
    let [stream, _] = rounds_for(
        args.window(),
        lineitem,
        &pools,
        &mut rng,
        &mut outcome,
        None,
    );
    let untraced = harness::summarize(
        &kinds,
        std::slice::from_ref(&stream),
        &mut outcome,
        "untraced",
    );
    if !args.trace {
        harness::set_end_to_end(&mut outcome, &untraced, setup_s, &db.db);
        return outcome;
    }

    // traced phase: the same rounds with serial scans composed from datablocks
    // calls (not `RelationScanner`: the ladder below says how the two compare),
    // spans recorded in every other round
    let epoch = Instant::now();
    let mut tracer = Tracer::new(epoch);
    let traced = rounds_for(
        args.window(),
        lineitem,
        &pools,
        &mut rng,
        &mut outcome,
        Some(&mut tracer),
    );
    let workload_spans = tracer.take();

    // the ladder: one fixed round (parameter set 0 of every serial op type)
    if let Some(store) = lineitem.spill_store() {
        store.clear_cache();
        store.reset_stats();
    }
    let ladder_ops: Vec<&ScanOp> = pools
        .iter()
        .map(|pool| &pool[0])
        .filter(|op| op.threads == 1)
        .collect();
    let passes = 3;
    let ladder = scans::scan_ladder(lineitem, &ladder_ops, passes, spill, epoch, &mut outcome);
    if spill {
        blockstore_metrics(
            &mut outcome,
            lineitem,
            (passes * ladder_ops.len() * 2) as u64,
            write_mib_per_s,
        );
    }
    if let (Some(t1), Some(t2)) = (
        stats::median(&durations(&stream, 1)),
        stats::median(&durations(&stream, 4)),
    ) {
        outcome.set("exec.morsel.t2_over_t1", t2 / t1);
    }

    probes::all(&mut outcome, &db.db, "lineitem", "orders", args.seed);
    harness::finish_traced(
        &mut outcome,
        args,
        &untraced,
        &[traced],
        &[workload_spans, ladder.spans],
    );
    outcome
}

fn durations(stream: &Stream, op: u8) -> Vec<f64> {
    stream
        .samples
        .iter()
        .filter(|s| s.op == op)
        .map(|s| s.dur_ns as f64)
        .collect()
}
