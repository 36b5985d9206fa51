//! `oltp_tpcc` and `hybrid_tpcc`: TPC-C transactions against `storage.relation`
//! with no query layer — alone on one thread, or as a writer that publishes
//! orderline snapshots beside a reader scanning the newest one.
//!
//! Both run a **fixed count** of transactions, scaled by `--seconds` and never
//! by speed: the database grows with every write, so a time-boxed run would
//! change the data size with the speed of the code under test.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use storage::ScanSnapshot;
use workloads::tpcc::ITEMS;
use workloads::TpccDb;

use crate::harness::{self, OpKind, Outcome, Rng, RunArgs, POOL};
use crate::probes;
use crate::scans::{self, ComposedCounts, Materialized, Pred, ScanOp};
use crate::stats::{self, Stream};
use crate::trace::{Span, Tracer};

const WAREHOUSES: i64 = 2;
/// Unmeasured `new_order`s before the history is first frozen.
const PRELOAD: usize = 20_000;
/// `freeze_old_neworders()` runs inline after this many `new_order`s, charged
/// to the transaction that triggered it.
const FREEZE_EVERY: usize = 4096;
/// The hybrid writer publishes an orderline snapshot after this many `new_order`s.
const SNAPSHOT_EVERY: usize = 256;
/// Every this-many-th reader scan is run again without pushdown and compared.
const RECHECK_EVERY: u64 = 32;
/// `oltp_tpcc` cycles per second of `--seconds`: sized once so the phase takes
/// 0.6 to 0.8 of `--seconds` at the commit that defined the benchmark, on a
/// quiet machine (a fixed count stretches when the machine is slow, a window
/// does not). Part of the workload's definition — never scaled at run time.
const OLTP_CYCLES_PER_SECOND: f64 = 5_000.0;
/// `hybrid_tpcc` `new_order`s per second of `--seconds`, sized the same way.
const HYBRID_TXNS_PER_SECOND: f64 = 80_000.0;

const NEW_ORDER: u8 = 0;
const ORDER_STATUS: u8 = 1;
const STOCK_LEVEL: u8 = 2;
const OLTP_KINDS: [OpKind; 3] = [
    OpKind {
        name: "new_order",
        read: false,
    },
    OpKind {
        name: "order_status",
        read: true,
    },
    OpKind {
        name: "stock_level",
        read: true,
    },
];
const READER_SCAN: u8 = 1;
const HYBRID_KINDS: [OpKind; 2] = [
    OpKind {
        name: "new_order",
        read: false,
    },
    OpKind {
        name: "scan",
        read: true,
    },
];

fn setup(quick: bool) -> TpccDb {
    let mut db = TpccDb::generate(WAREHOUSES);
    for _ in 0..if quick { PRELOAD / 10 } else { PRELOAD } {
        db.new_order();
    }
    db.freeze_old_neworders();
    db
}

/// What the writer side counted beside its latency samples.
#[derive(Default)]
struct WriteCounts {
    new_orders: usize,
    freeze_calls: u64,
    freeze_stall_ms_max: f64,
    snapshots_taken: u64,
}

/// One timed `new_order`, with the inline freeze rule; returns the latency.
fn new_order(
    db: &mut TpccDb,
    counts: &mut WriteCounts,
    tracer: &mut Tracer,
    publish: Option<&Mutex<Arc<ScanSnapshot>>>,
) -> u64 {
    tracer.next_op();
    tracer.enter("workload", "new_order");
    let start = Instant::now();
    db.new_order();
    counts.new_orders += 1;
    if counts.new_orders.is_multiple_of(FREEZE_EVERY) {
        tracer.enter("storage.relation", "freeze");
        let freeze = Instant::now();
        db.freeze_old_neworders();
        counts.freeze_stall_ms_max = counts
            .freeze_stall_ms_max
            .max(freeze.elapsed().as_secs_f64() * 1e3);
        counts.freeze_calls += 1;
        tracer.exit();
    }
    if let Some(slot) = publish {
        if counts.new_orders.is_multiple_of(SNAPSHOT_EVERY) {
            tracer.enter("storage.relation", "snapshot");
            let snapshot = Arc::new(db.db.relation("orderline").scan_snapshot());
            *slot.lock().expect("snapshot slot") = snapshot;
            counts.snapshots_taken += 1;
            tracer.exit();
        }
    }
    let dur_ns = start.elapsed().as_nanos() as u64;
    tracer.exit();
    dur_ns
}

/// Row counts of the relations `new_order` writes to, and the order lines the
/// neworder rows say they have (read back through the tuple-at-a-time scan).
fn write_rows(db: &TpccDb) -> (usize, usize, i64) {
    let neworder = db.db.relation("neworder");
    let line_count = neworder.schema().idx("no_ol_cnt");
    let lines = Materialized::new(neworder, &[line_count])
        .column(line_count)
        .iter()
        .sum();
    (
        neworder.row_count(),
        db.db.relation("orderline").row_count(),
        lines,
    )
}

/// Check the row-count deltas of a phase: one neworder row per transaction, and
/// as many new orderline rows as the new neworder rows declare. A mismatch is
/// one failed operation.
fn check_deltas(
    db: &TpccDb,
    before: (usize, usize, i64),
    counts: &WriteCounts,
    outcome: &mut Outcome,
) {
    let after = write_rows(db);
    let ok = after.0 == before.0 + counts.new_orders
        && (after.1 - before.1) as i64 == after.2 - before.2;
    if !ok {
        eprintln!(
            "row-count check failed: {before:?} -> {after:?} over {} new_order",
            counts.new_orders
        );
        outcome.failed += 1;
    }
}

/// `cycles` of `8 x new_order, 1 x order_status, 1 x stock_level`; the seed
/// picks where in each cycle the two reads run. Returns `[spans off, spans on]`:
/// a recording tracer is switched off and on from cycle to cycle
/// ([`stats::spans_on`]); a tracer that is off leaves every cycle in the first.
fn oltp_phase(
    db: &mut TpccDb,
    cycles: usize,
    rng: &mut Rng,
    outcome: &mut Outcome,
    tracer: &mut Tracer,
) -> ([Stream; 2], WriteCounts) {
    let mut streams = [Stream::default(), Stream::default()];
    let mut counts = WriteCounts::default();
    let before = write_rows(db);
    for cycle in 0..cycles {
        let stream = &mut streams[usize::from(tracer.record(stats::spans_on(cycle)))];
        let status_slot = rng.below(10);
        let level_slot = (status_slot + 1 + rng.below(9)) % 10;
        for slot in 0..10 {
            outcome.attempted += 1;
            stream.tick();
            if slot == status_slot || slot == level_slot {
                let (kind, name) = if slot == status_slot {
                    (ORDER_STATUS, "order_status")
                } else {
                    (STOCK_LEVEL, "stock_level")
                };
                tracer.next_op();
                tracer.enter("workload", name);
                let start = Instant::now();
                let touched = if kind == ORDER_STATUS {
                    db.order_status()
                } else {
                    db.stock_level()
                };
                let dur_ns = start.elapsed().as_nanos() as u64;
                tracer.exit();
                // order_status always finds its customer; stock_level counts
                // stock rows of one warehouse
                let ok = if kind == ORDER_STATUS {
                    touched >= 1
                } else {
                    touched <= ITEMS as usize
                };
                if ok {
                    stream.push(kind, dur_ns);
                } else {
                    outcome.failed += 1;
                }
            } else {
                let dur_ns = new_order(db, &mut counts, tracer, None);
                stream.push(NEW_ORDER, dur_ns);
            }
        }
        stream.end_round();
    }
    check_deltas(db, before, &counts, outcome);
    (streams, counts)
}

/// The reader's op pool: `sum(ol_amount) where ol_i_id between a and a+99`.
fn reader_pool(db: &TpccDb, rng: &mut Rng) -> Vec<ScanOp> {
    let schema = db.db.relation("orderline").schema();
    (0..POOL)
        .map(|_| {
            let lo = rng.range(1, ITEMS - 99);
            ScanOp::new(
                vec![schema.idx("ol_amount")],
                vec![Pred::Between {
                    col: schema.idx("ol_i_id"),
                    lo,
                    hi: lo + 99,
                }],
            )
        })
        .collect()
}

/// Writer and reader of one hybrid phase, with what each recorded; streams are
/// `[spans off, spans on]`.
struct HybridPhase {
    writer: [Stream; 2],
    reader: [Stream; 2],
    counts: WriteCounts,
    spans: [Vec<Span>; 2],
}

/// `txns` `new_order`s on this thread, publishing an orderline snapshot every
/// [`SNAPSHOT_EVERY`]; a second thread scans the newest snapshot until the
/// writer is done. The relation grows thirtyfold under the reader, so its
/// stream is cut into slices where the writer's is — at every fifth of `txns`
/// — not at every fifth of its own samples: each slice then saw the same data
/// sizes in every run, however the two threads' speeds compare. `epoch` set:
/// the reader composes its scans from the lower layers, and both sides
/// alternate spans on and off ([`stats::spans_on`]: the writer from snapshot
/// to snapshot, the reader from scan to scan).
fn hybrid_phase(
    db: &mut TpccDb,
    txns: usize,
    pool: &[ScanOp],
    seed: u64,
    outcome: &mut Outcome,
    epoch: Option<Instant>,
) -> HybridPhase {
    let slot = Mutex::new(Arc::new(db.db.relation("orderline").scan_snapshot()));
    let done = AtomicBool::new(false);
    let written = AtomicUsize::new(0);
    let before = write_rows(db);
    let mut writer = [Stream::default(), Stream::default()];
    let mut counts = WriteCounts::default();
    let mut tracer = Tracer::for_phase(epoch);
    let (reader, reader_outcome, reader_spans) = std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            let mut rng = Rng::new(seed, 0x4EAD);
            let mut streams = [Stream::default(), Stream::default()];
            let mut outcome = Outcome::default();
            let mut tracer = Tracer::for_phase(epoch);
            let mut fifth = 0;
            while !done.load(Ordering::Acquire) {
                while fifth < written.load(Ordering::Relaxed) * stats::SLICES / txns {
                    streams.iter_mut().for_each(Stream::end_round);
                    fifth += 1;
                }
                let snapshot = Arc::clone(&slot.lock().expect("snapshot slot"));
                let op = &pool[rng.below(POOL as u64) as usize];
                let on = tracer.record(stats::spans_on(outcome.attempted as usize));
                outcome.attempted += 1;
                streams[usize::from(on)].tick();
                let start = Instant::now();
                let answer = if epoch.is_some() {
                    tracer.next_op();
                    tracer.enter("workload", "scan");
                    let answer = scans::composed_scan(
                        &*snapshot,
                        op,
                        false,
                        &mut tracer,
                        &mut ComposedCounts::default(),
                    );
                    tracer.exit();
                    answer
                } else {
                    scans::run_scanner(&*snapshot, op).map(|run| run.answer)
                };
                let dur_ns = start.elapsed().as_nanos() as u64;
                let recheck = outcome.attempted % RECHECK_EVERY == 0;
                match answer {
                    Ok(answer)
                        if !recheck
                            || scans::run_without_pushdown(&*snapshot, op)
                                .is_ok_and(|a| a == answer) =>
                    {
                        streams[usize::from(on)].push(READER_SCAN, dur_ns)
                    }
                    _ => outcome.failed += 1,
                }
            }
            streams.iter_mut().for_each(Stream::end_round);
            (streams, outcome, tracer.take())
        });
        for txn in 0..txns {
            outcome.attempted += 1;
            let on = tracer.record(stats::spans_on(txn / SNAPSHOT_EVERY));
            writer[usize::from(on)].tick();
            let dur_ns = new_order(db, &mut counts, &mut tracer, Some(&slot));
            writer[usize::from(on)].push(NEW_ORDER, dur_ns);
            written.store(txn + 1, Ordering::Relaxed);
        }
        done.store(true, Ordering::Release);
        reader.join().expect("reader thread")
    });
    outcome.attempted += reader_outcome.attempted;
    outcome.failed += reader_outcome.failed;
    check_deltas(db, before, &counts, outcome);
    HybridPhase {
        writer,
        reader,
        counts,
        spans: [tracer.take(), reader_spans],
    }
}

/// Run `oltp_tpcc` (`hybrid` off) or `hybrid_tpcc` (`hybrid` on).
pub fn run(args: &RunArgs, hybrid: bool) -> Outcome {
    let mut outcome = Outcome::default();
    // set-up takes a tenth of a second here: fifteen repeats steady its median
    let (mut db, setup_s) =
        harness::timed_setup(if args.trace { 1 } else { 15 }, || setup(args.quick));
    let pool = reader_pool(&db, &mut Rng::new(args.seed, 2));
    // both measured phases draw the same sequence
    let phase_rng = || Rng::new(args.seed, 3);
    let mut rng = phase_rng();
    // the fixed count is the same in both modes: a traced run's untraced phase
    // ends on the database an untraced run ends on
    let count = |per_second: f64, quick: usize| {
        if args.quick {
            quick
        } else {
            (per_second * args.seconds) as usize
        }
    };
    let cycles = count(OLTP_CYCLES_PER_SECOND, 2_000);
    let txns = count(HYBRID_TXNS_PER_SECOND, 20_000);
    outcome.note(
        "fixed_count",
        if hybrid {
            format!("{txns} new_order")
        } else {
            format!("{cycles} cycles")
        },
    );
    harness::begin_measuring(&mut outcome);
    let kinds: &[OpKind] = if hybrid { &HYBRID_KINDS } else { &OLTP_KINDS };

    // the untraced measured phase
    let (streams, counts) = if hybrid {
        let phase = hybrid_phase(&mut db, txns, &pool, args.seed, &mut outcome, None);
        let ([writer, _], [reader, _]) = (phase.writer, phase.reader);
        (vec![writer, reader], phase.counts)
    } else {
        let ([stream, _], counts) =
            oltp_phase(&mut db, cycles, &mut rng, &mut outcome, &mut Tracer::off());
        (vec![stream], counts)
    };
    let untraced = harness::summarize(kinds, &streams, &mut outcome, "untraced");
    if !args.trace {
        harness::set_end_to_end(&mut outcome, &untraced, setup_s, &db.db);
        return outcome;
    }
    outcome.set("storage.relation.freeze_calls", counts.freeze_calls as f64);
    outcome.set(
        "storage.relation.freeze_stall_ms_max",
        counts.freeze_stall_ms_max,
    );
    outcome.set(
        "storage.relation.snapshots_taken",
        counts.snapshots_taken as f64,
    );

    // traced phase: the same transactions against a database set up again, so
    // both phases see the same data sizes; spans on and off alternate
    drop(db);
    let mut db = setup(args.quick);
    let mut rng = phase_rng();
    let epoch = Instant::now();
    let (traced, mut span_threads) = if hybrid {
        let phase = hybrid_phase(&mut db, txns, &pool, args.seed, &mut outcome, Some(epoch));
        (vec![phase.writer, phase.reader], Vec::from(phase.spans))
    } else {
        let mut tracer = Tracer::new(epoch);
        let (streams, _) = oltp_phase(&mut db, cycles, &mut rng, &mut outcome, &mut tracer);
        (vec![streams], vec![tracer.take()])
    };

    // the scan rungs: the reader's scan over orderline for the hybrid
    // workload, stock_level's scan over (hot) stock for the OLTP one
    let ladder = if hybrid {
        let ops: Vec<&ScanOp> = pool.iter().take(4).collect();
        scans::scan_ladder(
            db.db.relation("orderline"),
            &ops,
            3,
            false,
            epoch,
            &mut outcome,
        )
    } else {
        let schema = db.db.relation("stock").schema();
        let ops: Vec<ScanOp> = (1..=WAREHOUSES)
            .map(|w| {
                ScanOp::new(
                    vec![schema.idx("s_i_id")],
                    vec![
                        Pred::Eq {
                            col: schema.idx("s_w_id"),
                            v: w,
                        },
                        Pred::Lt {
                            col: schema.idx("s_quantity"),
                            v: 15,
                        },
                    ],
                )
            })
            .collect();
        let ops: Vec<&ScanOp> = ops.iter().collect();
        scans::scan_ladder(db.db.relation("stock"), &ops, 3, false, epoch, &mut outcome)
    };

    probes::all(&mut outcome, &db.db, "orderline", "neworder", args.seed);
    span_threads.push(ladder.spans);
    harness::finish_traced(&mut outcome, args, &untraced, &traced, &span_threads);
    outcome
}
