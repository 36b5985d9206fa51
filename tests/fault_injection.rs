//! Deterministic fault-injection matrix for the block store's durability
//! protocol: a seeded [`FaultInjector`] crashes (or tears the write short) at
//! **every named failpoint site**, the store is dropped like a killed process
//! and reopened cold, and the test asserts the recovery contract:
//!
//! * **old-or-new** — every block the reopened directory serves decodes
//!   cleanly and matches a version that was actually written (the pre-fault or
//!   the in-flight one), never a silent mix;
//! * **zero loss of synced writes** — under `Durability::Sync { group_commit:
//!   1 }` every operation that was *acknowledged* before the crash is present
//!   after the reopen;
//! * **loud, structured failure** — a genuinely corrupt frame surfaces as a
//!   typed [`ColdReadError`] naming the block, generation and byte offset (on
//!   both the serial and the parallel streaming scan path, whose workers
//!   cancel and join cleanly) instead of a worker panic;
//! * **transient-error absorption** — short `Interrupted` bursts are retried
//!   invisibly and counted in [`IoStats::retries`].
//!
//! Every site runs on the caller's thread — the store does no background I/O —
//! so the workload is synchronous. The site inventory lives in the
//! `storage::blockstore` module docs; the discovery test below pins the workload
//! to it so a new failpoint cannot be added without extending this matrix.

mod common;

use std::sync::Arc;

use data_blocks::datablocks::builder::{freeze, int_column};
use data_blocks::datablocks::{DataBlock, DataType, Value};
use data_blocks::exec::{RelationScanner, ScanConfig};
use data_blocks::storage::{
    BlockStore, ColumnDef, Durability, FaultAction, FaultInjector, Relation, Schema, SpillPolicy,
    StoreError,
};

/// Every failpoint site the store's I/O goes through (kept in sync with the
/// table in the `storage::blockstore` module docs — the discovery test fails
/// if the workload misses one).
const ALL_SITES: &[&str] = &[
    "gen.append_write",
    "gen.rewrite_write",
    "gen.sync",
    "manifest.append",
    "manifest.sync",
    "pin.read",
    "compact.read",
    "compact.write",
    "compact.sync",
    "compact.reclaim",
    "checkpoint.write",
    "checkpoint.sync",
    "checkpoint.rename",
    "checkpoint.dir_sync",
];

/// The sites where a *write* payload can be torn short by a power cut. At
/// every other site `Torn` degrades to `Crash`, which the crash matrix covers.
const WRITE_SITES: &[&str] = &[
    "gen.append_write",
    "gen.rewrite_write",
    "manifest.append",
    "compact.write",
    "checkpoint.write",
];

const ROWS: i64 = 256;

fn test_block(tag: i64) -> Arc<DataBlock> {
    Arc::new(freeze(&[int_column(
        (0..ROWS).map(|i| tag * 1000 + i).collect(),
    )]))
}

fn unique_dir(tag: &str) -> std::path::PathBuf {
    static N: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "datablocks-fault-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("create test dir");
    dir
}

/// What the test believes about one block id: every version whose write was
/// *attempted* (chronological), and the index of the latest version whose
/// operation was *acknowledged* (`Ok` returned to the caller). A version is
/// `(tag, row0_deleted)` — tag fixes all 256 values, the flag is the one
/// mutation the workload performs.
#[derive(Debug, Clone)]
struct BlockModel {
    versions: Vec<(i64, bool)>,
    acked: Option<usize>,
}

/// Drive one store through every failpoint site: three appends, a demand pin
/// after a cache flush, a delete-flag mutation (rewrite), an
/// explicit compaction and an explicit checkpoint. Returns the acked/attempted
/// model; each operation's error (the armed fault, or crash-stop after it) is
/// deliberately swallowed — the disk, not the return values, is under test.
fn run_workload(store: &Arc<BlockStore>) -> Vec<BlockModel> {
    let mut model: Vec<BlockModel> = Vec::new();
    for tag in 0..3 {
        let mut entry = BlockModel {
            versions: vec![(tag, false)],
            acked: None,
        };
        if store.append(test_block(tag)).is_ok() {
            entry.acked = Some(0);
        }
        model.push(entry);
    }
    // demand read of a cache miss
    store.clear_cache();
    let _ = store.pin(0);
    // delete-flag mutation: rewrite block 0 with row 0 tombstoned
    model[0].versions.push((0, true));
    let mutated = store.mutate(0, |block| {
        let mut updated = block.clone();
        updated.delete(0);
        (Some(updated), ())
    });
    if mutated.is_ok() {
        model[0].acked = Some(1);
    }
    // dead-frame compaction (commit point = the checkpoint swap) and one more
    // explicit checkpoint on top
    let _ = store.compact();
    let _ = store.checkpoint();
    model
}

/// The reopen contract against the model: acked operations are all present
/// (zero loss of synced writes), and every block the directory serves decodes
/// cleanly to a version that was actually written — at least as new as the
/// last acked one, never older, never a mix, never garbage.
fn verify_against_model(store: &Arc<BlockStore>, model: &[BlockModel], context: &str) {
    assert!(
        store.block_count() <= model.len(),
        "{context}: reopened {} blocks but only {} were ever appended",
        store.block_count(),
        model.len()
    );
    for (id, entry) in model.iter().enumerate() {
        if entry.acked.is_some() {
            assert!(
                id < store.block_count(),
                "{context}: acknowledged block {id} lost on reopen"
            );
        }
    }
    for (id, entry) in model.iter().enumerate().take(store.block_count()) {
        let pinned = store
            .pin(id)
            .unwrap_or_else(|err| panic!("{context}: block {id} unreadable after reopen: {err}"));
        let tag = match pinned.get(1, 0) {
            Value::Int(v) => v / 1000,
            other => panic!("{context}: block {id} row 1 decoded to {other:?}"),
        };
        for row in 0..ROWS as usize {
            assert_eq!(
                pinned.get(row, 0),
                Value::Int(tag * 1000 + row as i64),
                "{context}: block {id} row {row} inconsistent with tag {tag}"
            );
        }
        let state = (tag, pinned.is_deleted(0));
        let floor = entry.acked.unwrap_or(0);
        assert!(
            entry.versions[floor..].contains(&state),
            "{context}: block {id} reopened as {state:?}, acceptable versions {:?}",
            &entry.versions[floor..]
        );
    }
}

/// Arm one fault at one site, run the workload under `Sync { group_commit: 1 }`,
/// drop the store (the crashed process), reopen the files cold and verify.
fn check_fault_at(site: &'static str, action: FaultAction, seed: u64) {
    let dir = unique_dir("site");
    let path = dir.join("store.dbs");
    let model = {
        let injector = FaultInjector::new(seed);
        injector.arm(site, action);
        let store = BlockStore::create_opts(
            &path,
            usize::MAX,
            Durability::Sync { group_commit: 1 },
            Some(Arc::clone(&injector)),
        )
        .expect("create store");
        let model = run_workload(&store);
        assert!(
            injector.sites_hit().contains(&site),
            "workload never reached armed failpoint {site}; hit: {:?}",
            injector.sites_hit()
        );
        assert!(
            injector.crashed(),
            "{action:?} at {site} must enter crash-stop"
        );
        model
    }; // drop = the crashed process going away; its checkpoint attempt fails
    let reopened = BlockStore::reopen(&path, usize::MAX)
        .unwrap_or_else(|err| panic!("reopen after {action:?} at {site}: {err}"));
    verify_against_model(&reopened, &model, &format!("{action:?} at {site}"));
    drop(reopened);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The workload reaches every failpoint in the inventory (so the matrices
/// below actually exercise what they claim to), and with nothing armed every
/// operation acks.
#[test]
fn workload_visits_every_failpoint() {
    let dir = unique_dir("discovery");
    let path = dir.join("store.dbs");
    let injector = FaultInjector::new(42);
    let store = BlockStore::create_opts(
        &path,
        usize::MAX,
        Durability::Sync { group_commit: 1 },
        Some(Arc::clone(&injector)),
    )
    .expect("create store");
    let model = run_workload(&store);
    assert!(!injector.crashed());
    for (id, entry) in model.iter().enumerate() {
        assert!(entry.acked.is_some(), "unfaulted op on block {id} failed");
    }
    let hit = injector.sites_hit();
    for site in ALL_SITES {
        assert!(
            hit.contains(site),
            "workload never reached failpoint {site}; hit: {hit:?}"
        );
    }
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The crash-point matrix: crash-stop at every failpoint, reopen, verify
/// old-or-new plus zero loss of acknowledged writes.
#[test]
fn crash_at_every_failpoint_reopens_old_or_new() {
    for (i, &site) in ALL_SITES.iter().enumerate() {
        check_fault_at(site, FaultAction::Crash, 0xC0FFEE + i as u64);
    }
}

/// The torn-write matrix: at every write site, persist only a prefix of the
/// payload (0 bytes, a short deterministic cut, and a cut past most frames)
/// before crash-stop — the manifest ordering must keep every torn prefix
/// unreachable or detectable.
#[test]
fn torn_write_at_every_write_site_reopens_old_or_new() {
    let cuts = FaultInjector::new(0xDEAD_BEEF);
    for &site in WRITE_SITES {
        for keep in [0, 7 + (cuts.next_u64() % 64) as usize, 4000] {
            check_fault_at(site, FaultAction::Torn { keep }, 0xBAD5EED);
        }
    }
}

/// A short transient burst (within the retry budget) is absorbed invisibly
/// and counted; a burst one longer than the budget surfaces the error, after
/// which the site heals and the next attempt succeeds.
#[test]
fn transient_errors_are_retried_and_counted() {
    let injector = FaultInjector::new(7);
    let store = BlockStore::create_temp_opts(
        usize::MAX,
        Durability::Buffered,
        Some(Arc::clone(&injector)),
    )
    .expect("create store");
    injector.arm("gen.append_write", FaultAction::Transient { times: 3 });
    let id = store
        .append(test_block(5))
        .expect("append retries through a 3-error burst");
    assert_eq!(store.stats().retries, 3, "absorbed retries are counted");
    // one more failure than the budget: the error surfaces to the caller
    store.clear_cache();
    injector.arm("pin.read", FaultAction::Transient { times: 4 });
    let err = store
        .pin(id)
        .expect_err("a 4-error burst exceeds the retry budget");
    assert!(matches!(err, StoreError::Io(_)), "surfaced as I/O: {err}");
    // the burst consumed the plan: the site healed, the demand read succeeds
    let pinned = store.pin(id).expect("pin after the site healed");
    assert_eq!(pinned.get(1, 0), Value::Int(5001));
    assert_eq!(store.stats().retries, 6);
    assert!(!injector.crashed(), "transient faults never crash-stop");
}

/// Group commit really groups: 64 appends write 64 manifest records in every
/// durability mode, and `fsync` the manifest never (`Buffered`), once per record
/// (`group_commit: 1`) or once per eight (`group_commit: 8`). Every other test
/// here would still pass if `Sync` synced each record whatever the group size.
#[test]
fn group_commit_syncs_the_manifest_once_per_group() {
    const APPENDS: u64 = 64;
    for (durability, syncs) in [
        (Durability::Buffered, 0),
        (Durability::Sync { group_commit: 1 }, APPENDS),
        (Durability::Sync { group_commit: 8 }, APPENDS / 8),
    ] {
        let injector = FaultInjector::new(1);
        let store =
            BlockStore::create_temp_opts(usize::MAX, durability, Some(Arc::clone(&injector)))
                .expect("create store");
        for tag in 0..APPENDS as i64 {
            store.append(test_block(tag)).expect("append");
        }
        assert_eq!(injector.hits("manifest.append"), APPENDS, "{durability:?}");
        assert_eq!(injector.hits("manifest.sync"), syncs, "{durability:?}");
    }
}

/// A genuinely corrupt on-disk frame surfaces as a *structured* error naming
/// the block, generation and byte offset — on the serial scan path and on the
/// parallel streaming path, whose workers cancel and join cleanly instead of
/// panicking the process.
#[test]
fn corrupt_frame_surfaces_structured_scan_error() {
    let dir = unique_dir("corrupt");
    let path = dir.join("rel.dbs");
    let schema = Schema::new(vec![
        ColumnDef::new("id", DataType::Int),
        ColumnDef::new("v", DataType::Int),
    ])
    .with_primary_key("id");
    // small chunks → several cold blocks, all spilled
    let mut rel = Relation::with_chunk_capacity("t", schema, 512);
    rel.enable_spill(&SpillPolicy {
        cache_capacity_bytes: usize::MAX,
        path: Some(path.clone()),
        ..SpillPolicy::default()
    })
    .expect("enable spill");
    for i in 0..4 * 512 {
        rel.insert(vec![Value::Int(i), Value::Int(i * 3)]);
    }
    rel.freeze_all();
    let store = Arc::clone(rel.spill_store().expect("spill store"));
    assert!(store.block_count() >= 4, "need several spilled blocks");

    // flip one byte of block 2's header section, behind the store's back
    let target = 2;
    let offset = common::corrupt_frame(&store, target);

    // the typed pin path names the exact on-disk position
    let err = store
        .pin_described(target)
        .expect_err("checksum must catch the flipped byte");
    assert_eq!(err.block_id, target);
    assert_eq!(err.generation, 0);
    assert_eq!(err.offset, offset);
    assert!(!err.detail.is_empty());

    // serial scan: structured error, not a panic
    let scan_error = |projection: Vec<usize>, threads: usize| {
        let mut scanner = RelationScanner::new(
            &rel,
            projection,
            vec![],
            ScanConfig::default().with_threads(threads),
        );
        loop {
            match scanner.try_next_batch() {
                Ok(Some(_)) => continue,
                Ok(None) => panic!("scan with {threads} threads missed the corrupt frame"),
                Err(err) => {
                    // After the error the parallel stream is cancelled and
                    // every worker joined; the serial scanner resumes with the
                    // next morsel. Either way, pulling again must not hang,
                    // panic, or re-surface the same morsel's error forever.
                    match scanner.try_next_batch() {
                        Ok(_) => {}
                        Err(after) => assert_eq!(after.block_id, err.block_id),
                    }
                    return err;
                }
            }
        }
    };
    for threads in [1, 4] {
        let err = scan_error(vec![0, 1], threads);
        assert_eq!(err.block_id, target, "threads {threads}");
        assert_eq!(err.generation, 0, "threads {threads}");
        assert_eq!(err.offset, offset, "threads {threads}");
    }
    // A scan that pages in one attribute still verifies the header section.
    for col in [0, 1] {
        let err = scan_error(vec![col], 1);
        assert_eq!(err.block_id, target, "attribute {col}");
        assert_eq!(err.offset, offset, "attribute {col}");
    }
    drop(rel);
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}
