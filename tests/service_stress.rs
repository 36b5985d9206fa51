//! Concurrent query-service stress: K sessions race TPC-H Q1/Q3/Q6 against one
//! shared, thrash-cache spilled database under a shared admission budget.
//!
//! Pinned here:
//! * every concurrent result is **byte-identical** to the serial answer (the
//!   sessions plan at one thread, so no reassociation slack is needed);
//! * the aggregate block-cache high-water mark across all relations stays
//!   within the cache share the service budget derives
//!   ([`derive_spill_policy`]);
//! * a session whose budget exceeds the whole pool is rejected loudly with
//!   [`Error::OverBudget`] — never queued, never deadlocked;
//! * the whole race finishes under a watchdog, so an admission-control
//!   regression that deadlocks shows up as a test failure, not a hung CI job.

use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

use data_blocks::exec::{Batch, ScanConfig};
use data_blocks::query::service::derive_spill_policy;
use data_blocks::query::{Connect, Error, QueryService, ServiceConfig};
use data_blocks::storage::SpillPolicy;
use data_blocks::workloads::tpch::{query_sql, TpchDb};

const SESSIONS: usize = 8;
const ROUNDS: usize = 3;
const QUERIES: &[&str] = &["Q1", "Q3", "Q6"];
const TOTAL_BUDGET: usize = 64 << 20;
const WATCHDOG: Duration = Duration::from_secs(300);

fn assert_batches_identical(label: &str, expected: &Batch, actual: &Batch) {
    assert_eq!(expected.len(), actual.len(), "{label}: row count");
    for row in 0..expected.len() {
        assert_eq!(
            expected.row(row),
            actual.row(row),
            "{label} row {row}: values differ"
        );
    }
}

#[test]
fn concurrent_sessions_match_serial_within_budget() {
    // A spilled database whose per-relation cache capacity is derived from the
    // service budget; every block read during the race goes through these
    // caches.
    let mut db = TpchDb::generate_with_chunk(0.02, 2_048);
    db.freeze();
    let relation_count = db.db.relation_names().len();
    let policy = derive_spill_policy(SpillPolicy::default(), TOTAL_BUDGET, relation_count);
    let cache_share_per_store = policy.cache_capacity_bytes;
    db.db.enable_spill(policy).expect("enable spill");

    // Serial reference answers, straight through a stand-alone session.
    let serial_config = ScanConfig::default().with_threads(1);
    let serial: Vec<(String, Batch)> = QUERIES
        .iter()
        .map(|&name| {
            let batch = db
                .db
                .connect()
                .with_config(serial_config)
                .sql(query_sql(name))
                .and_then(|stream| stream.collect())
                .unwrap_or_else(|err| panic!("serial {name}: {err}"));
            (name.to_string(), batch)
        })
        .collect();

    let db = Arc::new(db.db);
    let service = Arc::new(QueryService::new(
        Arc::clone(&db),
        serial_config,
        ServiceConfig {
            max_concurrent: 4,
            total_budget_bytes: TOTAL_BUDGET,
        },
    ));

    // K sessions × R rounds over the query mix, every result shipped back for
    // comparison. The watchdog turns a deadlocked admission queue into a loud
    // failure instead of a hung test.
    let (tx, rx) = mpsc::channel::<(usize, String, Result<Batch, Error>)>();
    let mut handles = Vec::new();
    for k in 0..SESSIONS {
        let service = Arc::clone(&service);
        let tx = tx.clone();
        handles.push(std::thread::spawn(move || {
            // Budgets differ per session so grants fragment the pool unevenly.
            let budget = (TOTAL_BUDGET / SESSIONS) * (1 + k % 3);
            let session = service.session(budget);
            for round in 0..ROUNDS {
                let name = QUERIES[(k + round) % QUERIES.len()];
                let result = session
                    .sql(query_sql(name))
                    .and_then(|stream| stream.collect());
                tx.send((k, name.to_string(), result)).expect("send result");
            }
        }));
    }
    drop(tx);

    let mut received = 0usize;
    while let Ok((k, name, result)) = rx.recv_timeout(WATCHDOG) {
        received += 1;
        let batch = result.unwrap_or_else(|err| panic!("session {k} {name}: {err}"));
        let (_, expected) = serial
            .iter()
            .find(|(serial_name, _)| *serial_name == name)
            .expect("query in serial set");
        assert_batches_identical(&format!("session {k} {name}"), expected, &batch);
    }
    assert_eq!(
        received,
        SESSIONS * ROUNDS,
        "not every query finished before the watchdog fired — admission deadlock?"
    );
    for handle in handles {
        handle.join().expect("session thread panicked");
    }

    // The aggregate cache high-water across every relation's store must stay
    // within the cache share the budget derivation handed out. (Per store the
    // block cache can transiently overshoot its capacity while batches hold
    // pins, which is exactly why `derive_spill_policy` only spends half the
    // budget on caches.)
    let mut aggregate_high_water = 0usize;
    for rel in db.relations() {
        if let Some(store) = rel.spill_store() {
            let high_water = store.cache_high_water_bytes();
            assert!(
                high_water <= 2 * cache_share_per_store,
                "{}: cache high-water {high_water} more than doubled its {cache_share_per_store} byte share",
                rel.name(),
            );
            aggregate_high_water += high_water;
        }
    }
    assert!(
        aggregate_high_water > 0,
        "the race never touched a block cache — the database did not spill"
    );
    assert!(
        aggregate_high_water <= TOTAL_BUDGET,
        "aggregate cache high-water {aggregate_high_water} exceeds the service budget {TOTAL_BUDGET}"
    );
}

#[test]
fn over_budget_sessions_fail_loudly_and_never_queue() {
    let mut db = TpchDb::generate_with_chunk(0.005, 2_048);
    db.freeze();
    let service = QueryService::new(
        Arc::new(db.db),
        ScanConfig::default().with_threads(1),
        ServiceConfig {
            max_concurrent: 2,
            total_budget_bytes: 8 << 20,
        },
    );

    // Saturate the pool from one thread, then ask for more than the whole
    // pool: the rejection must come back immediately even though the pool is
    // busy (an over-budget query must never wait on the queue).
    let greedy = service.session(16 << 20);
    let err = greedy.sql(query_sql("Q6")).expect_err("over budget");
    match err {
        Error::OverBudget {
            requested_bytes,
            total_bytes,
        } => {
            assert_eq!(requested_bytes, 16 << 20);
            assert_eq!(total_bytes, 8 << 20);
        }
        other => panic!("expected OverBudget, got: {other}"),
    }

    // A fitting session still gets through afterwards.
    let ok = service.session(4 << 20);
    let batch = ok
        .sql(query_sql("Q6"))
        .and_then(|stream| stream.collect())
        .expect("within budget");
    assert_eq!(batch.len(), 1);
}
