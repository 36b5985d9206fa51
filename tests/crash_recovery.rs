//! Crash-recovery stress tests for the durable block store: a spilled TPC-H
//! database must survive a close (or a simulated crash) and reopen from its
//! persisted manifests to **byte-identical** query results — including deletes
//! performed before the crash and a dead-frame compaction cycle — and a torn
//! final manifest record (the bytes a crash leaves mid-append) must be detected
//! and discarded cleanly.
//!
//! CI runs this suite as its dedicated crash-recovery step (release mode), on
//! top of the regular debug run in `cargo test`.

use data_blocks::datablocks::{date_to_days, CmpOp, Restriction, Value};
use data_blocks::exec::{RelationScanner, ScanConfig};
use data_blocks::storage::{Database, Relation, RowId, Segment, SpillPolicy};
use data_blocks::workloads::tpch::{run_query, TpchDb};

const QUERIES: &[&str] = &["Q1", "Q6", "Q3", "Q12", "Q14"];
const THREAD_COUNTS: &[usize] = &[1, 2, 4, 8];

/// A TPC-H database whose lineitem spans many small blocks (same shape the
/// spill differential tests use). Generation is deterministic, so two calls
/// produce identical databases — the in-memory reference and the
/// spill-and-reopen subject.
fn tpch() -> TpchDb {
    let mut db = TpchDb::generate_with_chunk(0.02, 2_048);
    db.freeze();
    db
}

fn unique_dir(tag: &str) -> std::path::PathBuf {
    static N: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "datablocks-crash-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("create test dir");
    dir
}

fn dir_policy(dir: &std::path::Path) -> SpillPolicy {
    SpillPolicy {
        cache_capacity_bytes: 4 << 20,
        path: Some(dir.to_path_buf()),
        // Hold garbage until the test compacts explicitly, so the compaction
        // counters below are deterministic (auto-compaction is exercised by the
        // blockstore unit tests).
        compaction_garbage_ratio: 1.0,
        ..SpillPolicy::default()
    }
}

/// Deterministic delete set: a handful of rows of every 7th lineitem cold
/// block. Applied identically to the reference and the spilled database
/// (generation is deterministic, so the block layout matches).
fn delete_some_lineitem_rows(db: &mut TpchDb) -> usize {
    let lineitem = db.db.relation_mut("lineitem");
    let mut deleted = 0;
    for block in (0..lineitem.cold_block_count()).step_by(7) {
        for row in 0..5 {
            if lineitem.delete(RowId {
                segment: Segment::Cold(block),
                row,
            }) {
                deleted += 1;
            }
        }
    }
    deleted
}

fn assert_queries_match(expected: &TpchDb, actual: &TpchDb, threads: usize, context: &str) {
    for query in QUERIES {
        let config = ScanConfig::default().with_threads(threads);
        let reference = run_query(expected, query, config);
        let result = run_query(actual, query, config);
        assert_eq!(
            reference.batch.len(),
            result.batch.len(),
            "{context}: {query} threads {threads}"
        );
        for row in 0..reference.batch.len() {
            let (e, a) = (reference.batch.row(row), result.batch.row(row));
            for (col, (ev, av)) in e.iter().zip(&a).enumerate() {
                match (ev, av) {
                    // Parallel double sums are an FP reduction (equal up to
                    // reassociation, per the PR-2 contract); all other values
                    // must be byte-identical.
                    (Value::Double(x), Value::Double(y)) => {
                        let scale = x.abs().max(y.abs()).max(1.0);
                        assert!(
                            (x - y).abs() / scale < 1e-9,
                            "{context}: {query} threads {threads} row {row} col {col}: {x} vs {y}"
                        );
                    }
                    _ => assert_eq!(
                        ev, av,
                        "{context}: {query} threads {threads} row {row} col {col}"
                    ),
                }
            }
        }
    }
}

/// Reopen the whole spilled database directory with the schemas of `reference`.
fn reopen_database(reference: &TpchDb, dir: &std::path::Path) -> TpchDb {
    let schemas: Vec<(String, data_blocks::storage::Schema)> = reference
        .db
        .relations()
        .map(|rel| (rel.name().to_string(), rel.schema().clone()))
        .collect();
    let db = Database::open_spilled(dir_policy(dir), schemas).expect("reopen spilled database");
    TpchDb {
        db,
        scale_factor: reference.scale_factor,
    }
}

/// The end-to-end crash-recovery contract: spill, delete, compact, close,
/// reopen — Q1/Q3/Q6/Q12/Q14 byte-identical to the in-memory run, across
/// threads {1, 2, 4, 8}.
#[test]
fn reopened_database_matches_in_memory_after_deletes_and_compaction() {
    let mut reference = tpch();
    let dir = unique_dir("roundtrip");
    {
        let mut spilled = tpch();
        spilled
            .db
            .enable_spill(dir_policy(&dir))
            .expect("enable spill");
        // identical deletes on both sides, through the spill store on one
        let deleted_spilled = delete_some_lineitem_rows(&mut spilled);
        let deleted_reference = delete_some_lineitem_rows(&mut reference);
        assert_eq!(deleted_spilled, deleted_reference);
        assert!(deleted_spilled > 0, "the delete set must not be empty");
        // force a full dead-frame compaction cycle before the close
        let store = spilled.db.relation("lineitem").spill_store().unwrap();
        assert!(store.dead_bytes() > 0, "deletes must have created garbage");
        store.compact().expect("compact lineitem store");
        assert_eq!(store.stats().compactions, 1);
        assert_eq!(store.dead_bytes(), 0);
        assert_queries_match(&reference, &spilled, 1, "pre-close sanity");
    } // drop = clean close: every store checkpoints its manifest

    let reopened = reopen_database(&reference, &dir);
    let lineitem = reopened.db.relation("lineitem");
    assert_eq!(
        lineitem.live_row_count(),
        reference.db.relation("lineitem").live_row_count(),
        "tombstones survived close + reopen"
    );
    // the directory was rebuilt from the manifest, not from block payloads —
    // and the compacted store reopened onto its new generation file
    let store = lineitem.spill_store().unwrap();
    assert_eq!(store.dead_bytes(), 0, "compaction survived the reopen");
    for &threads in THREAD_COUNTS {
        assert_queries_match(&reference, &reopened, threads, "after reopen");
    }
    drop(reopened);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Under `Durability::Sync { group_commit: 1 }` every acknowledged operation
/// is on stable storage before the call returns. Simulate a power cut after
/// each acknowledgement by copying the data file plus the manifest *truncated
/// to the length it had at that ack*: every prefix image must reopen to
/// exactly the acked state — no acknowledged write lost, no unacked write
/// required.
#[test]
fn synced_prefix_reopens_to_exactly_the_acked_state() {
    use data_blocks::datablocks::builder::{freeze, int_column};
    use data_blocks::storage::{BlockStore, Durability};
    use std::sync::Arc;

    let dir = unique_dir("syncprefix");
    let path = dir.join("store.dbs");
    let manifest = dir.join("store.dbs.manifest");
    let block = |tag: i64| {
        Arc::new(freeze(&[int_column(
            (0..128).map(|i| tag * 1000 + i).collect(),
        )]))
    };

    // (manifest length at ack, expected (tag, row0_deleted) per block id)
    let mut cuts: Vec<(u64, Vec<(i64, bool)>)> = Vec::new();
    {
        let store = BlockStore::create_opts(
            &path,
            usize::MAX,
            Durability::Sync { group_commit: 1 },
            None,
        )
        .expect("create store");
        // keep everything in generation 0 so each crash image is two files
        store.set_garbage_threshold(1.0);
        let mut state: Vec<(i64, bool)> = Vec::new();
        type Op<'a> = Box<dyn FnMut(&Arc<BlockStore>, &mut Vec<(i64, bool)>) + 'a>;
        let mut ops: Vec<Op<'_>> = vec![
            Box::new(|s, m| {
                s.append(block(m.len() as i64)).expect("append");
                m.push((m.len() as i64, false));
            }),
            Box::new(|s, m| {
                s.append(block(m.len() as i64)).expect("append");
                m.push((m.len() as i64, false));
            }),
            Box::new(|s, m| {
                s.mutate(0, |b| {
                    let mut updated = b.clone();
                    updated.delete(0);
                    (Some(updated), ())
                })
                .expect("mutate");
                m[0].1 = true;
            }),
            Box::new(|s, m| {
                s.append(block(m.len() as i64)).expect("append");
                m.push((m.len() as i64, false));
            }),
        ];
        for op in &mut ops {
            op(&store, &mut state);
            // the ack is durable: snapshot the crash image while the store
            // is live (no clean-close checkpoint has rewritten the log)
            let len = std::fs::metadata(&manifest).expect("manifest").len();
            cuts.push((len, state.clone()));
            let k = cuts.len() - 1;
            std::fs::copy(&path, dir.join(format!("cut{k}.dbs"))).expect("copy data");
            std::fs::copy(&manifest, dir.join(format!("cut{k}.dbs.manifest")))
                .expect("copy manifest");
            let img = std::fs::OpenOptions::new()
                .write(true)
                .open(dir.join(format!("cut{k}.dbs.manifest")))
                .expect("open manifest image");
            img.set_len(len)
                .expect("truncate manifest image to the ack");
        }
    }
    assert_eq!(cuts.len(), 4);
    for (k, (_, expected)) in cuts.iter().enumerate() {
        let store = BlockStore::reopen(dir.join(format!("cut{k}.dbs")), usize::MAX)
            .unwrap_or_else(|err| panic!("reopen synced prefix {k}: {err}"));
        assert_eq!(
            store.block_count(),
            expected.len(),
            "prefix {k}: exactly the acked directory"
        );
        for (id, &(tag, row0_deleted)) in expected.iter().enumerate() {
            let pinned = store
                .pin(id)
                .unwrap_or_else(|err| panic!("prefix {k}: acked block {id} unreadable: {err}"));
            assert_eq!(
                pinned.get(1, 0),
                data_blocks::datablocks::Value::Int(tag * 1000 + 1),
                "prefix {k} block {id}"
            );
            assert_eq!(
                pinned.is_deleted(0),
                row0_deleted,
                "prefix {k} block {id} tombstone"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Seeded randomized torn-write fuzz over the manifest: cut the log at an
/// arbitrary point (and sometimes flip a byte inside the kept prefix), reopen,
/// and require **Ok with every block decoding cleanly, or a loud error —
/// never a panic, never silently wrong data**. Both manifest shapes are
/// fuzzed: the incremental Put log of a crashed store and the snapshot a
/// clean close checkpoints.
#[test]
fn randomized_manifest_torn_writes_reopen_or_fail_loudly() {
    use data_blocks::datablocks::builder::{freeze, int_column};
    use data_blocks::storage::{BlockStore, FaultInjector};
    use std::sync::Arc;

    let dir = unique_dir("tornfuzz");
    let path = dir.join("store.dbs");
    let manifest = dir.join("store.dbs.manifest");
    let dirty_data = dir.join("dirty.bin");
    let dirty_manifest = dir.join("dirty.manifest");
    let block = |tag: i64| {
        Arc::new(freeze(&[int_column(
            (0..128).map(|i| tag * 1000 + i).collect(),
        )]))
    };
    {
        let store = BlockStore::create(&path, usize::MAX).expect("create store");
        store.set_garbage_threshold(1.0);
        for tag in 0..4 {
            store.append(block(tag)).expect("append");
        }
        store
            .mutate(1, |b| {
                let mut updated = b.clone();
                updated.delete(3);
                (Some(updated), ())
            })
            .expect("mutate");
        // dirty image: incremental log, taken while live (= crash)
        std::fs::copy(&path, &dirty_data).expect("copy data");
        std::fs::copy(&manifest, &dirty_manifest).expect("copy manifest");
    } // clean close: `path` now carries a checkpointed snapshot manifest
    let images = [
        ("dirty", &dirty_data, &dirty_manifest),
        ("clean", &path, &manifest),
    ];

    let rng = FaultInjector::new(0x5EED_CAFE);
    let mut reopened_ok = 0usize;
    for round in 0..24 {
        let (shape, data, mani) = images[round % 2];
        let len = std::fs::metadata(mani).expect("manifest").len();
        let cut = 1 + rng.next_u64() % len;
        let target = dir.join(format!("round{round}.dbs"));
        std::fs::copy(data, &target).expect("copy data");
        std::fs::copy(mani, dir.join(format!("round{round}.dbs.manifest"))).expect("copy manifest");
        {
            let img = std::fs::OpenOptions::new()
                .read(true)
                .write(true)
                .open(dir.join(format!("round{round}.dbs.manifest")))
                .expect("open manifest image");
            img.set_len(cut).expect("tear the manifest");
            if rng.next_u64().is_multiple_of(2) && cut > 1 {
                use std::os::unix::fs::FileExt as _;
                let poke = rng.next_u64() % cut;
                let mut byte = [0u8];
                img.read_exact_at(&mut byte, poke).expect("read byte");
                byte[0] ^= 1 << (rng.next_u64() % 8);
                img.write_all_at(&byte, poke).expect("flip byte");
            }
        }
        match BlockStore::reopen(&target, usize::MAX) {
            Ok(store) => {
                reopened_ok += 1;
                for id in 0..store.block_count() {
                    let pinned = store.pin(id).unwrap_or_else(|err| {
                        panic!("round {round} ({shape}): directory served unreadable block {id}: {err}")
                    });
                    let tag = match pinned.get(0, 0) {
                        data_blocks::datablocks::Value::Int(v) => v / 1000,
                        other => panic!("round {round}: row 0 decoded to {other:?}"),
                    };
                    assert!(
                        (0..4).contains(&tag),
                        "round {round} ({shape}): block {id} carries impossible tag {tag}"
                    );
                    assert_eq!(
                        pinned.get(5, 0),
                        data_blocks::datablocks::Value::Int(tag * 1000 + 5),
                        "round {round} ({shape}): block {id} internally inconsistent"
                    );
                }
            }
            // a cut inside a checkpoint's declared entry set (or a flipped
            // checksum) is unrecoverable corruption: failing loudly is the
            // contract — only a panic or silent wrongness would be a bug
            Err(err) => {
                let _ = format!("{err}");
            }
        }
    }
    assert!(
        reopened_ok > 0,
        "fuzz never produced a recoverable image; the matrix is vacuous"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Durability is invisible to queries: the same TPC-H database spilled under
/// `Durability::Sync` answers Q1/Q3/Q6/Q12/Q14 byte-identically to the
/// in-memory reference (and therefore to the `Buffered` run of the roundtrip
/// test) across threads {1, 2, 4, 8}, before and after a close + reopen.
#[test]
fn sync_durability_answers_byte_identically_across_threads() {
    use data_blocks::storage::Durability;

    let reference = tpch();
    let dir = unique_dir("syncmode");
    let sync_policy = SpillPolicy {
        durability: Durability::Sync { group_commit: 8 },
        ..dir_policy(&dir)
    };
    {
        let mut spilled = tpch();
        spilled
            .db
            .enable_spill(sync_policy.clone())
            .expect("enable spill under Sync");
        for &threads in THREAD_COUNTS {
            assert_queries_match(&reference, &spilled, threads, "sync durability");
        }
    } // clean close: checkpoint through the Sync commit point
    let schemas: Vec<(String, data_blocks::storage::Schema)> = reference
        .db
        .relations()
        .map(|rel| (rel.name().to_string(), rel.schema().clone()))
        .collect();
    let db = Database::open_spilled(sync_policy, schemas).expect("reopen under Sync");
    let reopened = TpchDb {
        db,
        scale_factor: reference.scale_factor,
    };
    assert_queries_match(&reference, &reopened, 4, "sync durability after reopen");
    drop(reopened);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A crash mid-manifest-append leaves a torn final record after the valid log.
/// Reopen must detect it (length/checksum), discard it, truncate the manifest
/// back to its valid prefix, and still re-verify Q1/Q6 exactly. (A cut *inside*
/// the clean-close checkpoint is different, deliberately: fewer entries than
/// the checkpoint declared is unrecoverable corruption and fails loudly — the
/// blockstore unit tests pin that down.)
#[test]
fn torn_final_manifest_record_is_discarded_on_reopen() {
    use data_blocks::datablocks::builder::{freeze, int_column};
    use data_blocks::datablocks::frame::{manifest_record_to_bytes, ManifestRecord};
    use data_blocks::datablocks::BlockSummary;

    let reference = tpch();
    let dir = unique_dir("torn");
    {
        let mut spilled = tpch();
        spilled
            .db
            .enable_spill(dir_policy(&dir))
            .expect("enable spill");
    }
    // Simulate a crash mid-append of one more directory mutation: tack the
    // first half of a real record's bytes onto the checkpointed log.
    let manifest = dir.join("lineitem.dbs.manifest");
    let clean_len = std::fs::metadata(&manifest).expect("manifest exists").len();
    let summary = BlockSummary::of(&freeze(&[int_column((0..64).collect())]));
    let record = manifest_record_to_bytes(&ManifestRecord::Put {
        block_id: 0,
        generation: 0,
        offset: 0,
        len: 999,
        summary,
    });
    {
        use std::io::Write as _;
        let mut file = std::fs::OpenOptions::new()
            .append(true)
            .open(&manifest)
            .expect("open manifest for torn append");
        file.write_all(&record[..record.len() / 2])
            .expect("append torn record");
    }

    let reopened = reopen_database(&reference, &dir);
    assert_eq!(
        std::fs::metadata(&manifest).expect("manifest kept").len(),
        clean_len,
        "manifest truncated back to its valid prefix"
    );
    for query in ["Q1", "Q6"] {
        let config = ScanConfig::default();
        let expected = run_query(&reference, query, config);
        let actual = run_query(&reopened, query, config);
        assert_eq!(expected.batch.len(), actual.batch.len(), "{query}");
        for row in 0..expected.batch.len() {
            for (ev, av) in expected.batch.row(row).iter().zip(actual.batch.row(row)) {
                match (ev, &av) {
                    (Value::Double(x), Value::Double(y)) => {
                        assert!((x - y).abs() / x.abs().max(1.0) < 1e-9, "{query} row {row}")
                    }
                    _ => assert_eq!(*ev, av, "{query} row {row}"),
                }
            }
        }
    }
    drop(reopened);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A crash that never reaches the clean-close checkpoint leaves only the
/// incremental Put log. A byte-level copy of the store files taken while the
/// store is open is exactly that crash image; reopening it must replay the log
/// — including a delete's rewrite (duplicate block id, last-writer-wins) — to
/// the same scan results as the live relation.
#[test]
fn crash_image_without_checkpoint_replays_incremental_log() {
    let db = tpch();
    let dir = unique_dir("image");
    let live_path = dir.join("lineitem.dbs");
    let image_path = dir.join("lineitem-image.dbs");

    let mut lineitem = db.db.relation("lineitem").clone();
    lineitem
        .enable_spill(&SpillPolicy {
            cache_capacity_bytes: 4 << 20,
            path: Some(live_path.clone()),
            ..SpillPolicy::default()
        })
        .expect("enable spill");
    // a few deletes → rewrites → duplicate block ids in the incremental log
    for block in 0..3 {
        assert!(lineitem.delete(RowId {
            segment: Segment::Cold(block),
            row: 1,
        }));
    }
    // crash image: copy data + manifest while the store is live (no checkpoint)
    std::fs::copy(&live_path, &image_path).expect("copy data file");
    std::fs::copy(
        dir.join("lineitem.dbs.manifest"),
        dir.join("lineitem-image.dbs.manifest"),
    )
    .expect("copy manifest");

    let s = lineitem.schema();
    let restrictions = vec![
        Restriction::between(
            s.idx("l_shipdate"),
            date_to_days(1994, 1, 1),
            date_to_days(1995, 1, 1) - 1,
        ),
        Restriction::cmp(s.idx("l_quantity"), CmpOp::Lt, 24i64),
    ];
    let projection = vec![s.idx("l_orderkey"), s.idx("l_extendedprice")];
    let scan = |rel: &Relation, threads: usize| -> Vec<Vec<Value>> {
        let mut scanner = RelationScanner::new(
            rel,
            projection.clone(),
            restrictions.clone(),
            ScanConfig::default().with_threads(threads),
        );
        let batch = scanner.collect_all();
        (0..batch.len()).map(|row| batch.row(row)).collect()
    };
    let expected = scan(&lineitem, 1);

    let recovered = Relation::reopen_spilled(
        "lineitem",
        lineitem.schema().clone(),
        &SpillPolicy {
            cache_capacity_bytes: 4 << 20,
            path: Some(image_path),
            ..SpillPolicy::default()
        },
    )
    .expect("reopen crash image");
    assert_eq!(recovered.live_row_count(), lineitem.live_row_count());
    for &threads in THREAD_COUNTS {
        assert_eq!(
            scan(&recovered, threads),
            expected,
            "crash image scan, threads {threads}"
        );
    }
    drop(recovered);
    drop(lineitem);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every file of `dir` with its bytes.
fn dir_contents(dir: &std::path::Path) -> std::collections::BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir)
        .expect("list test dir")
        .map(|entry| {
            let entry = entry.expect("dir entry");
            let name = entry.file_name().to_string_lossy().into_owned();
            (name, std::fs::read(entry.path()).expect("read file"))
        })
        .collect()
}

/// A closed store at `<dir>/store.dbs` with two 1 000-row blocks, block 0
/// rewritten with row 0 deleted (and, with `compact`, every live frame
/// compacted into `store.dbs.g1`), whose manifest was then removed.
fn store_without_manifest(dir: &std::path::Path, compact: bool) -> std::path::PathBuf {
    use data_blocks::datablocks::builder::{freeze, int_column};
    use data_blocks::storage::BlockStore;
    use std::sync::Arc;

    let path = dir.join("store.dbs");
    {
        let store = BlockStore::create(&path, usize::MAX).expect("create store");
        store.set_garbage_threshold(1.0);
        for tag in 0..2 {
            let ids = int_column((0..1000).map(|i| tag * 1000 + i).collect());
            store.append(Arc::new(freeze(&[ids]))).expect("append");
        }
        store
            .mutate(0, |b| {
                let mut updated = b.clone();
                updated.delete(0);
                (Some(updated), ())
            })
            .expect("delete a row");
        if compact {
            store.compact().expect("compact");
        }
    }
    std::fs::remove_file(dir.join("store.dbs.manifest")).expect("remove manifest");
    path
}

/// `BlockStore::reopen` of a store without its manifest is a `NotFound` that
/// names the manifest, and it leaves every file of the directory as it was.
fn assert_reopen_refused(dir: &std::path::Path, path: &std::path::Path) {
    use data_blocks::storage::{BlockStore, StoreError};

    let before = dir_contents(dir);
    match BlockStore::reopen(path, usize::MAX) {
        Err(StoreError::Io(err)) => {
            assert_eq!(err.kind(), std::io::ErrorKind::NotFound, "{err}");
            assert!(err.to_string().contains("store.dbs.manifest"), "{err}");
        }
        Err(err) => panic!("expected NotFound naming the manifest, got {err}"),
        Ok(store) => {
            let live: u32 = (0..store.block_count())
                .map(|id| store.with_summary(id, |s| s.live_tuple_count()))
                .sum();
            panic!(
                "reopened without a manifest: {} blocks, {live} live rows",
                store.block_count()
            );
        }
    }
    assert_eq!(
        dir_contents(dir),
        before,
        "a refused reopen removes, truncates and creates no file"
    );
}

/// The manifest is the store's only directory. After a delete's rewrite,
/// generation 0 holds the superseded frame of block 0 beside the live one, so
/// the frames alone would bring the deleted row back as a third block.
#[test]
fn reopen_without_manifest_after_a_rewrite_fails_loudly() {
    let dir = unique_dir("nomanifest-rewrite");
    let path = store_without_manifest(&dir, false);
    assert_reopen_refused(&dir, &path);
    let _ = std::fs::remove_dir_all(&dir);
}

/// After a compaction, generation 0 is empty and `store.dbs.g1` holds every
/// live block. A reopen without the manifest must fail without unlinking it.
#[test]
fn reopen_without_manifest_after_a_compaction_keeps_every_file() {
    let dir = unique_dir("nomanifest-compact");
    let path = store_without_manifest(&dir, true);
    let g1 = dir.join("store.dbs.g1");
    let live_frames = std::fs::read(&g1).expect("compaction wrote generation 1");
    assert_reopen_refused(&dir, &path);
    assert_eq!(
        std::fs::read(&g1).expect("generation 1 survives the refused reopen"),
        live_frames
    );
    let _ = std::fs::remove_dir_all(&dir);
}

fn t_schema() -> data_blocks::storage::Schema {
    use data_blocks::datablocks::DataType;
    use data_blocks::storage::{ColumnDef, Schema};

    Schema::new(vec![
        ColumnDef::new("id", DataType::Int),
        ColumnDef::new("v", DataType::Int),
    ])
}

/// Insert `t(id, v = 3 id)` rows `0..rows` into `rel` and freeze them.
fn fill(rel: &mut Relation, rows: i64) {
    for i in 0..rows {
        rel.insert(vec![Value::Int(i), Value::Int(i * 3)]);
    }
    rel.freeze_all();
}

/// `Database::open_spilled` picks reopen over a fresh relation when the spill
/// file exists; without its manifest that reopen is an error naming the
/// manifest, not a relation rebuilt from the frames.
#[test]
fn open_spilled_without_a_manifest_names_it() {
    let dir = unique_dir("db-nomanifest");
    {
        let mut rel = Relation::with_chunk_capacity("t", t_schema(), 512);
        fill(&mut rel, 1024);
        let mut db = Database::new();
        db.add_relation(rel);
        db.enable_spill(dir_policy(&dir)).expect("enable spill");
    }
    std::fs::remove_file(dir.join("t.dbs.manifest")).expect("remove manifest");
    let err = Database::open_spilled(dir_policy(&dir), [("t".to_string(), t_schema())])
        .expect_err("a spill file without its manifest must not reopen");
    assert_eq!(err.kind(), std::io::ErrorKind::NotFound, "{err}");
    assert!(err.to_string().contains("t.dbs.manifest"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A crash inside store creation can leave the manifest without the spill
/// file (the manifest is created first). `Database::open_spilled` sees no
/// spill file and starts the relation afresh, spilling as usual.
#[test]
fn open_spilled_over_a_lone_manifest_is_an_empty_spilling_relation() {
    let dir = unique_dir("db-lonemanifest");
    std::fs::write(dir.join("t.dbs.manifest"), b"").expect("write lone manifest");
    let mut db = Database::open_spilled(dir_policy(&dir), [("t".to_string(), t_schema())])
        .expect("open over a lone manifest");
    let rel = db.relation_mut("t");
    assert_eq!(rel.live_row_count(), 0);
    assert_eq!(rel.spill_store().expect("spilling").block_count(), 0);
    fill(rel, 512);
    assert_eq!(rel.spill_store().expect("spilling").block_count(), 1);
    assert!(dir.join("t.dbs").exists());
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}
