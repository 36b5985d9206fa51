//! Tests of the bounded streaming morsel pipeline (`exec::morsel::drive_streaming`):
//! a deliberately slow consumer must cap in-flight batches at the channel bound and
//! must not deadlock for any thread count; output stays byte-identical to the
//! serial scan; cold-morsel pins are acquired and released incrementally (never
//! more than one per worker); dropping the stream early cancels the workers
//! instead of hanging or leaking them; and a cancel token raised while the consumer
//! is parked on the channel ends the scan with `Error::Cancelled`, in process and
//! over the wire.

mod common;

use std::sync::mpsc::RecvTimeoutError;
use std::sync::Arc;
use std::time::Duration;

use data_blocks::datablocks::{DataType, Restriction, Value};
use data_blocks::exec::{
    cancel, drive_streaming, CancelToken, Error, Operator, RelationScanner, ScanConfig, ScanOp,
};
use data_blocks::query::net::{ClientError, ErrorCode};
use data_blocks::query::{QueryService, ServiceConfig};
use data_blocks::storage::{BlockStore, ColumnDef, Database, Relation, Schema, SpillPolicy};

const THREAD_COUNTS: &[usize] = &[1, 2, 4, 8];

/// Run `body` on a watchdog thread: a deadlock in the streaming machinery fails
/// the test with a timeout instead of wedging the whole suite. A panic in `body`
/// drops the sender at once; it is re-raised here as it was, not as a timeout.
fn with_timeout<T: Send + 'static>(secs: u64, body: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = std::sync::mpsc::channel();
    let handle = std::thread::spawn(move || {
        let _ = tx.send(body());
    });
    match rx.recv_timeout(Duration::from_secs(secs)) {
        Ok(value) => {
            handle.join().expect("test body panicked");
            value
        }
        Err(RecvTimeoutError::Disconnected) => match handle.join() {
            Err(payload) => std::panic::resume_unwind(payload),
            Ok(()) => unreachable!("the body returned without sending its value"),
        },
        Err(RecvTimeoutError::Timeout) => {
            panic!("timed out after {secs}s — streaming scan deadlocked?")
        }
    }
}

/// A mixed hot/cold relation with many morsels: ids `0..rows` across
/// `chunk_capacity`-sized chunks with the full chunks frozen, then ids
/// `rows..rows + tail` inserted after the freeze — a hot tail that spans several
/// chunks, so workers race over hot morsels as well as cold ones.
fn mixed_relation(rows: i64, tail: i64, chunk_capacity: usize) -> Relation {
    let schema = Schema::new(vec![
        ColumnDef::new("id", DataType::Int),
        ColumnDef::new("val", DataType::Int),
        ColumnDef::new("grp", DataType::Str),
    ]);
    let mut rel = Relation::with_chunk_capacity("stream", schema, chunk_capacity);
    let row = |i: i64| {
        vec![
            Value::Int(i),
            Value::Int(i % 97),
            Value::Str(format!("g{}", i % 5)),
        ]
    };
    for i in 0..rows {
        rel.insert(row(i));
    }
    rel.freeze_full_chunks();
    for i in rows..rows + tail {
        rel.insert(row(i));
    }
    rel
}

fn serial_rows(rel: &Relation, restrictions: &[Restriction]) -> Vec<Vec<Value>> {
    let mut scanner = RelationScanner::new(
        rel,
        vec![0, 1],
        restrictions.to_vec(),
        ScanConfig::default(),
    );
    let batch = scanner.collect_all();
    (0..batch.len()).map(|row| batch.row(row)).collect()
}

/// The tentpole contract: a slow consumer suspends the workers — in-flight batches
/// never exceed the configured channel bound, total produced batches far exceed the
/// bound (so the scan genuinely streamed instead of materialising), and the output
/// is byte-identical to the serial scan. Threads {1, 2, 4, 8} × tight channel caps,
/// all under a watchdog.
#[test]
fn slow_consumer_is_backpressured_within_the_channel_bound() {
    with_timeout(300, || {
        let rel = mixed_relation(10_250, 10_250, 1_000);
        let restrictions = vec![Restriction::cmp(
            1,
            data_blocks::datablocks::CmpOp::Ge,
            0i64,
        )];
        let reference = serial_rows(&rel, &restrictions);
        assert_eq!(reference.len(), 20_500, "unselective scan returns all rows");

        for &threads in THREAD_COUNTS {
            for cap in [1usize, 2, 4] {
                let config = ScanConfig::default()
                    .with_threads(threads)
                    .with_channel_cap(cap);
                let mut stream = drive_streaming(
                    rel.scan_snapshot(),
                    vec![0, 1],
                    restrictions.clone(),
                    config,
                );
                let mut rows = Vec::new();
                let mut batches = 0usize;
                while let Some(batch) = stream.try_next_batch().unwrap() {
                    batches += 1;
                    // Stall every few batches: workers must suspend, not buffer.
                    if batches.is_multiple_of(4) {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    for row in 0..batch.len() {
                        rows.push(batch.row(row));
                    }
                }
                assert_eq!(
                    rows, reference,
                    "threads {threads} cap {cap}: stream must match serial order"
                );
                assert!(
                    stream.max_in_flight() <= cap,
                    "threads {threads} cap {cap}: in-flight high-water {} exceeds the bound",
                    stream.max_in_flight()
                );
                assert!(
                    batches > cap * 4,
                    "threads {threads} cap {cap}: only {batches} batches — scan did not stream"
                );
            }
        }
    });
}

/// The peak-memory bound that replaced the materialise-then-stream scan: a scan
/// whose full result is hundreds of batches keeps at most `channel_cap` of them
/// buffered (batch-count high-water mark), instead of all of them at once.
#[test]
fn streaming_scan_never_buffers_more_than_the_channel_cap() {
    with_timeout(300, || {
        let rel = mixed_relation(20_000, 20_000, 1_000);
        for &threads in THREAD_COUNTS {
            let cap = 3usize;
            let config = ScanConfig::default()
                .with_threads(threads)
                .with_channel_cap(cap);
            let mut stream = drive_streaming(rel.scan_snapshot(), vec![0], Vec::new(), config);
            let mut total_batches = 0usize;
            let mut total_rows = 0usize;
            while let Some(batch) = stream.try_next_batch().unwrap() {
                total_batches += 1;
                total_rows += batch.len();
            }
            assert_eq!(total_rows, 40_000, "threads {threads}");
            assert!(
                total_batches >= 40, // one per morsel (block or hot chunk) at minimum
                "threads {threads}: expected many batches, got {total_batches}"
            );
            assert!(
                stream.max_in_flight() <= cap,
                "threads {threads}: high-water {} > cap {cap} on a {total_batches}-batch scan",
                stream.max_in_flight()
            );
            // The scan statistics of the drained stream match the serial scan.
            let mut serial = RelationScanner::new(&rel, vec![0], vec![], ScanConfig::default());
            serial.collect_all();
            assert_eq!(stream.stats(), serial.stats(), "threads {threads}");
        }
    });
}

/// Cold-morsel pin lifetimes are per-morsel, not per-scan: while a spilled
/// relation streams, the store never holds more than `threads` pins, and every pin
/// is released by the time the stream is drained — even with a consumer slow
/// enough that workers sit suspended on the channel while holding their pin.
#[test]
fn streaming_scan_holds_at_most_one_pin_per_worker() {
    with_timeout(300, || {
        let mut rel = mixed_relation(12_000, 4_000, 1_000);
        rel.enable_spill(&SpillPolicy::with_cache_capacity(1)) // thrash: real paging
            .expect("enable spill");
        let store = rel.spill_store().expect("store attached").clone();

        for &threads in THREAD_COUNTS {
            store.clear_cache();
            let config = ScanConfig::default()
                .with_threads(threads)
                .with_channel_cap(2);
            let mut stream = drive_streaming(rel.scan_snapshot(), vec![0], Vec::new(), config);
            let mut rows = 0usize;
            while let Some(batch) = stream.try_next_batch().unwrap() {
                rows += batch.len();
                assert!(
                    store.pinned_count() <= threads,
                    "threads {threads}: {} pins live at once",
                    store.pinned_count()
                );
                std::thread::sleep(Duration::from_micros(200));
            }
            assert_eq!(rows, 16_000, "threads {threads}");
            assert_eq!(
                store.pinned_count(),
                0,
                "threads {threads}: pins must all be released after the scan"
            );
        }
    });
}

/// Dropping the stream (or the scanner wrapping it) mid-scan cancels the workers:
/// they observe the flag at their next push and exit, and the drop joins them — no
/// deadlock, no runaway producer.
#[test]
fn dropping_the_stream_early_cancels_the_workers() {
    with_timeout(120, || {
        let rel = mixed_relation(15_000, 15_000, 1_000);
        for &threads in THREAD_COUNTS {
            let config = ScanConfig::default()
                .with_threads(threads)
                .with_channel_cap(1);
            let mut stream = drive_streaming(rel.scan_snapshot(), vec![0], Vec::new(), config);
            let first = stream.try_next_batch().unwrap();
            assert!(first.is_some(), "threads {threads}");
            drop(stream); // must join the (suspended) workers promptly
        }

        // The same through the scanner's pull interface.
        let mut scanner = RelationScanner::new(
            &rel,
            vec![0],
            vec![],
            ScanConfig::default().with_threads(4).with_channel_cap(1),
        );
        assert!(scanner.next_batch().is_some());
        drop(scanner);
    });
}

/// Streams over empty relations and over relations whose every block is pruned
/// terminate immediately with correct statistics.
#[test]
fn empty_and_fully_pruned_streams_terminate() {
    with_timeout(120, || {
        let schema = Schema::new(vec![ColumnDef::new("id", DataType::Int)]);
        let empty = Relation::with_chunk_capacity("empty", schema, 128);
        let mut stream = drive_streaming(
            empty.scan_snapshot(),
            vec![0],
            Vec::new(),
            ScanConfig::default().with_threads(4),
        );
        assert!(stream.try_next_batch().unwrap().is_none());
        assert_eq!(stream.stats().rows_matched, 0);

        // Every block ruled out by its SMA: the stream yields nothing but still
        // counts the examined blocks.
        let mut rel = mixed_relation(4_000, 0, 1_000);
        rel.enable_spill(&SpillPolicy::default()).expect("spill");
        let restrictions = vec![Restriction::between(0, 1_000_000i64, 2_000_000i64)];
        let mut stream = drive_streaming(
            rel.scan_snapshot(),
            vec![0],
            restrictions,
            ScanConfig::default().with_threads(2),
        );
        assert!(stream.try_next_batch().unwrap().is_none());
        let stats = stream.stats();
        assert_eq!(stats.blocks_total, 4);
        assert_eq!(stats.blocks_skipped, 4);
        assert_eq!(rel.spill_store().unwrap().stats().block_reads, 0);
    });
}

/// 400 frozen blocks of 8 192 rows `(id, val = (id % 97) * 2)`. A scan of
/// `val = 51` cannot prune a block from its summary (51 is inside every block's
/// SMA range) and matches no row (`val` is even): behind a one-byte block cache it
/// pages every block in — 400 reads for a full scan — and never produces a batch,
/// so its workers never reach a push and its consumer parks on the reorder channel.
fn match_free_relation() -> Relation {
    let schema = Schema::new(vec![
        ColumnDef::new("id", DataType::Int),
        ColumnDef::new("val", DataType::Int),
    ]);
    let mut rel = Relation::with_chunk_capacity("even", schema, 8_192);
    for i in 0..400 * 8_192i64 {
        rel.insert(vec![Value::Int(i), Value::Int((i % 97) * 2)]);
    }
    rel.freeze_all();
    rel
}

const MATCH_FREE_BLOCKS: u64 = 400;

/// Spawn the second thread of the cancel tests: it reports in (so its start-up is
/// not part of the race), then runs `cancel` once the scan under test has
/// demonstrably started paging blocks in, and returns the store's read count right
/// after — every read past that count happened under a raised token.
fn cancel_after_three_reads(
    store: Arc<BlockStore>,
    cancel: impl FnOnce() + Send + 'static,
) -> std::thread::JoinHandle<u64> {
    let (ready, wait_ready) = std::sync::mpsc::channel();
    let canceller = std::thread::spawn(move || {
        ready.send(()).expect("the test waits for this");
        while store.stats().block_reads < 3 {
            std::hint::spin_loop();
        }
        cancel();
        store.stats().block_reads
    });
    wait_ready.recv().expect("canceller started");
    canceller
}

/// Both tests race a scan of 10–50 ms (release build) against a second thread, which
/// the scheduler may keep off the CPU, or off the store's lock, for most of that: an
/// attempt whose cancel landed in the second half of the scan shows nothing and is
/// repeated. So does a wire cancel that reached the server only after the scan had
/// read every block: the frame was sent early, but its reader thread was kept off
/// the CPU too. With two and four workers on two CPUs, over a third of the attempts
/// land late, so a run makes enough of them that all landing late is not a chance.
const ATTEMPTS: usize = 32;

/// The regression test of the cancel hang: the token is raised while the consumer
/// of the match-free scan is parked on the channel (several workers) or deep inside
/// one pull (one worker). The pull must return `Err(Cancelled)` — not park forever,
/// not scan on to the end and report exhaustion — after at most one more block per
/// worker, with every worker joined and no pin left.
#[test]
fn a_token_raised_mid_scan_ends_a_match_free_scan_with_cancelled() {
    with_timeout(120, || {
        let mut rel = match_free_relation();
        rel.enable_spill(&SpillPolicy::with_cache_capacity(1))
            .expect("enable spill");
        let store = rel.spill_store().expect("store attached").clone();
        let idle_handles = Arc::strong_count(&store);

        for threads in [1usize, 2, 4] {
            let landed_early = (0..ATTEMPTS).any(|_| {
                store.clear_cache();
                store.reset_stats();
                let token = CancelToken::new();
                let mut scan = ScanOp::new(RelationScanner::new(
                    &rel,
                    vec![0],
                    vec![Restriction::eq(1, 51i64)],
                    ScanConfig::default().with_threads(threads),
                ));
                let canceller = cancel_after_three_reads(store.clone(), {
                    let token = token.clone();
                    move || token.cancel()
                });
                let pulled = cancel::scoped(&token, || scan.next_batch());
                let reads = store.stats().block_reads;
                let reads_at_cancel = canceller.join().expect("canceller");
                drop(scan);
                assert_eq!(
                    store.stats().block_reads,
                    reads,
                    "threads {threads}: a worker was still reading after the pull returned"
                );
                assert_eq!(store.pinned_count(), 0, "threads {threads}");
                assert_eq!(
                    Arc::strong_count(&store),
                    idle_handles,
                    "threads {threads}: a worker still holds the snapshot"
                );
                if reads_at_cancel >= MATCH_FREE_BLOCKS / 2 {
                    return false;
                }
                assert!(
                    matches!(pulled, Err(Error::Cancelled)),
                    "threads {threads}: {pulled:?} after {reads} block reads, \
                     token raised at {reads_at_cancel}"
                );
                // A worker that passed its check just before the token went up
                // reads one more block; nobody reads two.
                assert!(
                    reads <= reads_at_cancel + threads as u64,
                    "threads {threads}: token raised at {reads_at_cancel} reads, \
                     scan went on to {reads}"
                );
                true
            });
            assert!(
                landed_early,
                "threads {threads}: no cancel landed in the first half of the scan"
            );
        }
    });
}

/// The same scenario end to end: two scan workers under a `QueryService`, the
/// cancel arriving as a wire frame while the server's pull is parked. The client
/// gets the typed error, the grant returns to the pool, the connection serves the
/// next query, and the server shuts down (its connection thread is not wedged).
#[test]
fn a_wire_cancel_ends_a_match_free_scan_and_the_connection_survives() {
    with_timeout(120, || {
        let mut db = Database::new();
        db.add_relation(match_free_relation());
        db.enable_spill(SpillPolicy::with_cache_capacity(1))
            .expect("enable spill");
        let store = db.relation("even").spill_store().expect("store").clone();
        let service = Arc::new(QueryService::new(
            Arc::new(db),
            ScanConfig::default().with_threads(2),
            ServiceConfig::default(),
        ));
        let (server, mut client) = common::loopback(&service);

        let landed_early = (0..ATTEMPTS).any(|_| {
            store.clear_cache();
            store.reset_stats();
            let canceller = client.canceller();
            let watcher = cancel_after_three_reads(store.clone(), move || canceller.cancel());
            let mut stream = client
                .query_sql("SELECT id FROM even WHERE val = 51")
                .expect("query");
            let outcome = stream.next_batch();
            // The stream has ended, so the server's workers are joined: a scan
            // that read every block finished before the cancel reached it. One
            // that stopped short yet reports no error lost the cancel.
            let reads = store.stats().block_reads;
            drop(stream);
            let reads_at_cancel = watcher.join().expect("watcher");
            assert_eq!(store.pinned_count(), 0);
            assert_eq!(service.stats().granted_bytes, 0);
            assert_eq!(service.stats().running, 0);
            if reads_at_cancel >= MATCH_FREE_BLOCKS / 2 || reads == MATCH_FREE_BLOCKS {
                return false;
            }
            match outcome {
                Err(ClientError::Remote { code, message }) => {
                    assert_eq!(code, ErrorCode::Cancelled);
                    assert_eq!(message, "query cancelled");
                }
                other => panic!(
                    "expected the remote cancellation, got {other:?} \
                     (cancel sent at {reads_at_cancel} block reads, scan stopped at {reads})"
                ),
            }
            true
        });
        assert!(
            landed_early,
            "no cancel was sent in the first half of the scan and landed before its end"
        );

        let batch = client
            .query_sql("SELECT count(*) FROM even WHERE id < 10")
            .and_then(|stream| stream.collect())
            .expect("query after cancel");
        assert_eq!(batch.value(0, 0), Value::Int(10));
        drop(client);
        server.shutdown();
    });
}
