//! The operator tree's one error channel: every operator shape reports a raised
//! cancel token as `Err(Error::Cancelled)` and an unreadable spilled block as
//! `Err(Error::ColdRead(_))` naming the block's on-disk position — from
//! `Operator::next_batch`, at one and at two workers — and the same failure under
//! `Session::sql` and over the wire arrives typed, with the admission budget
//! returned and the connection usable. Nothing on these paths panics: a
//! process-wide panic hook counts, and every test ends by reading zero.

mod common;

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use data_blocks::datablocks::{CmpOp, DataType, Value};
use data_blocks::exec::prelude::*;
use data_blocks::exec::{cancel, CancelToken, Error};
use data_blocks::query::net::{ClientError, ErrorCode};
use data_blocks::query::{self, QueryService, ServiceConfig};
use data_blocks::storage::{ColdReadError, ColumnDef, Database, Relation, Schema, SpillPolicy};

static PANICS: AtomicUsize = AtomicUsize::new(0);

/// Count every panic of the process (worker and server threads included) in front
/// of the default hook.
fn count_panics() {
    static INSTALL: std::sync::Once = std::sync::Once::new();
    INSTALL.call_once(|| {
        let default_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            PANICS.fetch_add(1, Ordering::SeqCst);
            default_hook(info);
        }));
    });
}

const BLOCK_ROWS: i64 = 512;
const CORRUPT_BLOCK: usize = 2;

/// `t(id, v = 3 id)`: four frozen blocks.
fn relation() -> Relation {
    let schema = Schema::new(vec![
        ColumnDef::new("id", DataType::Int),
        ColumnDef::new("v", DataType::Int),
    ]);
    let mut rel = Relation::with_chunk_capacity("t", schema, BLOCK_ROWS as usize);
    for i in 0..4 * BLOCK_ROWS {
        rel.insert(vec![Value::Int(i), Value::Int(i * 3)]);
    }
    rel.freeze_all();
    rel
}

/// Corrupt the spilled frame of `rel`'s block [`CORRUPT_BLOCK`]; returns the error
/// every scan of the relation must now end in, checked against the store's
/// directory entry for that block.
fn corrupt(rel: &Relation) -> ColdReadError {
    let store = rel.spill_store().expect("spilled");
    let offset = common::corrupt_frame(store, CORRUPT_BLOCK);
    let expected = store
        .pin_described(CORRUPT_BLOCK)
        .expect_err("checksum must catch the flipped byte");
    assert_eq!(expected.block_id, CORRUPT_BLOCK);
    assert_eq!(expected.generation, store.entry_generation(CORRUPT_BLOCK));
    assert_eq!(expected.offset, offset);
    expected
}

fn scan(rel: &Relation, threads: usize) -> BoxedOperator<'_> {
    let config = ScanConfig::default().with_threads(threads);
    Box::new(ScanOp::new(RelationScanner::new(
        rel,
        vec![0, 1],
        vec![],
        config,
    )))
}

fn ten_keys() -> BoxedOperator<'static> {
    let rows: Vec<_> = (0..10).map(|k| vec![Value::Int(k)]).collect();
    Box::new(ValuesOp::new(Batch::from_rows(&[DataType::Int], &rows)))
}

fn count_star() -> Vec<AggSpec> {
    vec![AggSpec::new(
        AggFunc::CountStar,
        Expr::lit(0i64),
        DataType::Int,
    )]
}

type Shape = (
    &'static str,
    for<'a> fn(&'a Relation, usize) -> BoxedOperator<'a>,
);

/// Every way an operator can sit between a failing scan and the caller.
const SHAPES: &[Shape] = &[
    ("scan", scan),
    ("aggregate fused with its scan", |rel, threads| {
        let config = ScanConfig::default().with_threads(threads);
        let spec = PipelineSpec::scan(vec![0, 1], vec![], config);
        Box::new(HashAggregateOp::over_relation(
            rel,
            spec,
            vec![],
            vec![],
            count_star(),
        ))
    }),
    ("aggregate over a scan operator", |rel, threads| {
        Box::new(HashAggregateOp::new(
            scan(rel, threads),
            vec![],
            vec![],
            count_star(),
        ))
    }),
    ("join, scan on the build side", |rel, threads| {
        let join = HashJoinOp::new(
            scan(rel, threads),
            ten_keys(),
            vec![0],
            vec![0],
            JoinType::Inner,
        );
        Box::new(join.with_parallel_build(threads))
    }),
    ("join, scan on the probe side", |rel, threads| {
        let join = HashJoinOp::new(
            ten_keys(),
            scan(rel, threads),
            vec![0],
            vec![0],
            JoinType::Inner,
        );
        Box::new(join.with_parallel_build(threads))
    }),
    ("sort", |rel, threads| {
        Box::new(SortOp::new(
            scan(rel, threads),
            vec![SortKey::desc(1)],
            Some(10),
        ))
    }),
    ("filter and project", |rel, threads| {
        let filter = FilterOp::new(
            scan(rel, threads),
            Expr::col(1).cmp(CmpOp::Ge, Expr::lit(0i64)),
        );
        Box::new(ProjectOp::new(
            Box::new(filter),
            vec![Expr::col(0).add(Expr::col(1))],
            vec![DataType::Int],
        ))
    }),
];

#[test]
fn a_raised_token_is_err_cancelled_from_every_operator_shape() {
    count_panics();
    let rel = relation();
    let token = CancelToken::new();
    token.cancel();
    for (name, build) in SHAPES {
        for threads in [1, 2] {
            let mut op = build(&rel, threads);
            let pulled = cancel::scoped(&token, || op.next_batch());
            assert!(
                matches!(pulled, Err(Error::Cancelled)),
                "{name}, {threads} workers: {pulled:?}"
            );
        }
    }
    assert_eq!(PANICS.load(Ordering::SeqCst), 0);
}

#[test]
fn an_unreadable_block_is_err_cold_read_from_every_operator_shape() {
    count_panics();
    let mut rel = relation();
    rel.enable_spill(&SpillPolicy::default())
        .expect("enable spill");
    let expected = corrupt(&rel);
    for (name, build) in SHAPES {
        for threads in [1, 2] {
            let mut op = build(&rel, threads);
            let failure = loop {
                match op.next_batch() {
                    Ok(Some(_)) => continue,
                    Ok(None) => panic!("{name}, {threads} workers: missed the corrupt frame"),
                    Err(err) => break err,
                }
            };
            assert_eq!(
                failure,
                Error::ColdRead(expected.clone()),
                "{name}, {threads} workers"
            );
            drop(op);
            let store = rel.spill_store().expect("spilled");
            assert_eq!(store.pinned_count(), 0, "{name}, {threads} workers");
        }
    }
    assert_eq!(PANICS.load(Ordering::SeqCst), 0);
}

/// The same corrupt frame under the query surfaces: `Session::sql` with the scan
/// at the root, fused into an aggregate and as a join's build side, then over a
/// loopback wire connection.
#[test]
fn an_unreadable_block_is_typed_under_a_session_and_over_the_wire() {
    count_panics();
    let mut db = Database::new();
    db.add_relation(relation());
    let dim = db.create_relation(
        "d",
        Schema::new(vec![
            ColumnDef::new("k", DataType::Int),
            ColumnDef::new("w", DataType::Int),
        ]),
    );
    for k in 0..10 {
        dim.insert(vec![Value::Int(k), Value::Int(k + 100)]);
    }
    db.freeze_all();
    db.enable_spill(SpillPolicy::default())
        .expect("enable spill");
    let expected = corrupt(db.relation("t"));
    let db = Arc::new(db);

    const QUERIES: [&str; 3] = [
        "SELECT id, v FROM t",
        "SELECT count(*) FROM t",
        "SELECT v, w FROM t JOIN d ON id = k",
    ];
    const BUDGET: usize = 8 << 20;
    for threads in [1, 2] {
        let service = Arc::new(QueryService::new(
            Arc::clone(&db),
            ScanConfig::default().with_threads(threads),
            ServiceConfig::default(),
        ));
        let session = service.session(BUDGET);
        for sql in QUERIES {
            let failure = session
                .sql(sql)
                .and_then(|stream| stream.collect())
                .expect_err("the scan of t cannot finish");
            assert_eq!(
                failure,
                query::Error::ColdRead(expected.clone()),
                "{sql}, {threads} workers"
            );
            assert_eq!(failure.to_string(), format!("cold read error: {expected}"));
            assert_eq!(service.stats().granted_bytes, 0, "{sql}");
            assert_eq!(service.stats().running, 0, "{sql}");
        }

        let (server, mut client) = common::loopback(&service);
        for sql in QUERIES {
            let failure = client
                .query_sql(sql)
                .and_then(|stream| stream.collect())
                .expect_err("the scan of t cannot finish");
            match failure {
                ClientError::Remote { code, message } => {
                    assert_eq!(code, ErrorCode::ColdRead, "{sql}");
                    assert_eq!(message, format!("cold read error: {expected}"), "{sql}");
                }
                other => panic!("{sql}, {threads} workers: {other:?}"),
            }
            // The connection survived the failed query.
            let dims = client
                .query_sql("SELECT count(*) FROM d")
                .and_then(|stream| stream.collect())
                .expect("a query that does not touch t");
            assert_eq!(dims.value(0, 0), Value::Int(10));
        }
        assert_eq!(service.stats().granted_bytes, 0);
        drop(client);
        server.shutdown();
    }
    assert_eq!(PANICS.load(Ordering::SeqCst), 0);
}
