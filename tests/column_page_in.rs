//! Differential tests for projected page-in: a scan of a spilled relation pages
//! in only the header section and the attributes it reads (its projection and
//! every restricted attribute) of each block it does not prune, and its rows are
//! **byte-identical** to the same scan over the resident relation — in every
//! scan mode, for column sets from none to all, at 1, 2 and 4 workers, in the
//! four cache regimes of `spill_differential`, and across a delete that
//! rewrites a spilled block between scans. The store's counters pin the I/O:
//! one block read per unpruned block, and exactly the bytes of the sections
//! the scan touches.

use data_blocks::datablocks::{date_to_days, CmpOp, Restriction, ScanOptions, Value};
use data_blocks::exec::{RelationScanner, ScanConfig, ScanMode, ScanStats};
use data_blocks::storage::{BlockStore, Relation, RowId, Segment, SpillPolicy};
use data_blocks::workloads::tpch::TpchDb;

const THREAD_COUNTS: &[usize] = &[1, 2, 4];

const MODES: [ScanMode; 3] = [
    ScanMode::Jit,
    ScanMode::Vectorized { sarg: false },
    ScanMode::Vectorized { sarg: true },
];

/// Lineitem over many small blocks, frozen and resident.
fn lineitem() -> Relation {
    let mut db = TpchDb::generate_with_chunk(0.01, 1_024);
    db.freeze();
    db.relation("lineitem").clone()
}

/// Q6's restrictions: every block of lineitem spans their ranges, so none is
/// pruned by its summary.
fn q6(rel: &Relation) -> Vec<Restriction> {
    let s = rel.schema();
    vec![
        Restriction::between(
            s.idx("l_shipdate"),
            date_to_days(1994, 1, 1),
            date_to_days(1995, 1, 1) - 1,
        ),
        Restriction::between(s.idx("l_discount"), 5i64, 7i64),
        Restriction::cmp(s.idx("l_quantity"), CmpOp::Lt, 24i64),
    ]
}

/// `(name, projection, restrictions)`: no projection, only the restricted
/// attributes, one attribute, every attribute, and a scan that reads no
/// attribute at all (header sections only).
type Case = (&'static str, Vec<usize>, Vec<Restriction>);

fn cases(rel: &Relation) -> Vec<Case> {
    let s = rel.schema();
    let restrictions = q6(rel);
    let restricted: Vec<usize> = restrictions.iter().map(Restriction::column).collect();
    vec![
        ("empty projection", vec![], restrictions.clone()),
        ("restricted attributes", restricted, restrictions.clone()),
        (
            "one attribute",
            vec![s.idx("l_extendedprice")],
            restrictions.clone(),
        ),
        (
            "every attribute",
            (0..s.column_count()).collect(),
            restrictions,
        ),
        ("no attribute", vec![], vec![]),
    ]
}

fn scan(
    rel: &Relation,
    projection: &[usize],
    restrictions: &[Restriction],
    config: ScanConfig,
) -> (Vec<Vec<Value>>, ScanStats) {
    let mut scanner = RelationScanner::new(rel, projection.to_vec(), restrictions.to_vec(), config);
    let mut rows = Vec::new();
    while let Some(batch) = scanner.try_next_batch().expect("every block pages in") {
        rows.extend((0..batch.len()).map(|row| batch.row(row)));
    }
    (rows, scanner.stats())
}

/// The store reads a scan of `spilled` must make from a cold cache: for each
/// block it does not prune from the directory, one read of the header section
/// and of every attribute of `projection` and `restrictions`. Returns
/// `(block reads, bytes read)`.
fn expected_reads(
    spilled: &Relation,
    store: &BlockStore,
    projection: &[usize],
    restrictions: &[Restriction],
    mode: ScanMode,
) -> (u64, u64) {
    let mut columns: Vec<usize> = (projection.iter().copied())
        .chain(restrictions.iter().map(Restriction::column))
        .collect();
    columns.sort_unstable();
    columns.dedup();
    let options = ScanOptions::default();
    let read: Vec<usize> = (0..spilled.cold_block_count())
        .filter(|&idx| {
            mode != (ScanMode::Vectorized { sarg: true })
                || spilled.cold_block_may_match(idx, restrictions, &options)
        })
        .collect();
    let bytes = (read.iter())
        .map(|&idx| {
            let table = store.sections(idx).expect("written by this process");
            let attributes: u64 = (columns.iter())
                .map(|&col| u64::from(table.attributes[col].len))
                .sum();
            u64::from(table.header_len) + attributes
        })
        .sum();
    (read.len() as u64, bytes)
}

/// Cache capacities for `cold_bytes` of frozen data: everything resident, half
/// resident, thrashing (`None`: no store — the resident relation itself).
fn regimes(cold_bytes: usize) -> Vec<(&'static str, Option<usize>)> {
    vec![
        ("memory", None),
        ("all_fits", Some(usize::MAX)),
        ("half_fits", Some(cold_bytes / 2)),
        ("thrash", Some(1)),
    ]
}

#[test]
fn spilled_scans_read_only_their_attributes_and_match_resident_rows() {
    let resident = lineitem();
    assert!(resident.cold_block_count() >= 40, "many blocks");
    let cold_bytes = resident.storage_stats().cold_bytes;
    for (regime, capacity) in regimes(cold_bytes) {
        let mut relation = resident.clone();
        if let Some(capacity) = capacity {
            relation
                .enable_spill(&SpillPolicy::with_cache_capacity(capacity))
                .expect("enable spill");
        }
        let store = relation.spill_store().cloned();
        for (case, projection, restrictions) in cases(&resident) {
            for mode in MODES {
                let config = ScanConfig {
                    mode,
                    ..ScanConfig::default()
                };
                let (reference, reference_stats) =
                    scan(&resident, &projection, &restrictions, config);
                for &threads in THREAD_COUNTS {
                    let label = format!("{regime}, {case}, {mode:?}, {threads} threads");
                    if let Some(store) = &store {
                        store.clear_cache();
                        store.reset_stats();
                    }
                    let config = config.with_threads(threads);
                    let (rows, stats) = scan(&relation, &projection, &restrictions, config);
                    assert_eq!(rows, reference, "{label}: rows");
                    assert_eq!(stats, reference_stats, "{label}: scan counters");
                    if let Some(store) = &store {
                        let io = store.stats();
                        let (reads, bytes) =
                            expected_reads(&relation, store, &projection, &restrictions, mode);
                        assert_eq!(io.block_reads, reads, "{label}: one read per block");
                        assert_eq!(io.bytes_read, bytes, "{label}: the sections read");
                        assert_eq!(store.pinned_count(), 0, "{label}: no pin left");
                    }
                }
            }
        }
    }
}

#[test]
fn a_delete_that_rewrites_a_spilled_block_between_scans_shows_in_both_tiers() {
    let resident = lineitem();
    let s = resident.schema().clone();
    let projection = vec![s.idx("l_orderkey"), s.idx("l_extendedprice")];
    let restrictions = q6(&resident);
    let cold_bytes = resident.storage_stats().cold_bytes;
    for (regime, capacity) in regimes(cold_bytes).into_iter().skip(1) {
        let mut spilled = resident.clone();
        spilled
            .enable_spill(&SpillPolicy::with_cache_capacity(
                capacity.expect("spilling"),
            ))
            .expect("enable spill");
        let store = spilled.spill_store().expect("store attached").clone();
        // Warm the cache with the scan's attributes only, so the delete finds
        // partly paged-in entries to complete and replace.
        scan(&spilled, &projection, &restrictions, ScanConfig::default());
        let mut resident = resident.clone();
        for block in [0usize, 7, 21] {
            let id = RowId {
                segment: Segment::Cold(block),
                row: 100,
            };
            assert!(spilled.delete(id), "{regime}: block {block}");
            assert!(resident.delete(id), "{regime}: block {block}");
            assert!(spilled.is_deleted(id), "{regime}: block {block}");
        }
        for (clear, threads) in [(false, 1), (true, 1), (false, 4), (true, 2)] {
            if clear {
                store.clear_cache();
            }
            for mode in MODES {
                let config = ScanConfig {
                    mode,
                    ..ScanConfig::default()
                }
                .with_threads(threads);
                let label = format!("{regime}, cleared {clear}, {mode:?}, {threads} threads");
                let expected = scan(&resident, &projection, &restrictions, config);
                let got = scan(&spilled, &projection, &restrictions, config);
                assert_eq!(got, expected, "{label}");
            }
        }
        // The rewritten blocks decode whole, as the resident ones are.
        for block in [0usize, 7, 21] {
            let spilled_block = spilled.cold_block(block);
            assert_eq!(*spilled_block, *resident.cold_block(block), "{regime}");
        }
    }
}

/// The op shapes of the scan benchmark — q6, disc, full — read 4, 2 and 2 of
/// lineitem's 15 attributes, so a cold scan reads that share of each frame
/// plus its header section.
#[test]
fn a_cold_scan_reads_a_fraction_of_each_frame() {
    let mut db = TpchDb::generate(0.02);
    db.freeze();
    let mut lineitem = db.relation("lineitem").clone();
    lineitem
        .enable_spill(&SpillPolicy::with_cache_capacity(usize::MAX))
        .expect("enable spill");
    let store = lineitem.spill_store().expect("store attached").clone();
    let s = lineitem.schema().clone();
    let blocks = lineitem.cold_block_count();
    let frames: u64 = (0..blocks).map(|id| store.entry_len(id) as u64).sum();
    let (price, discount, quantity) = (
        s.idx("l_extendedprice"),
        s.idx("l_discount"),
        s.idx("l_quantity"),
    );
    let ops: [(&str, Vec<usize>, Vec<Restriction>, f64); 3] = [
        ("q6", vec![price, discount], q6(&lineitem), 0.35),
        (
            "disc",
            vec![price, discount],
            vec![Restriction::between(discount, 2i64, 6i64)],
            0.23,
        ),
        ("full", vec![quantity, price], vec![], 0.23),
    ];
    for (op, projection, restrictions, bound) in ops {
        store.clear_cache();
        store.reset_stats();
        scan(&lineitem, &projection, &restrictions, ScanConfig::default());
        let io = store.stats();
        assert_eq!(io.block_reads, blocks as u64, "{op}");
        let share = io.bytes_read as f64 / frames as f64;
        assert!(share <= bound, "{op}: read {share:.3} of the frames");
    }
}
