//! `olap_wire`: two `WireClient` connections over loopback, each looping a
//! seeded shuffle of TPC-H Q1 Q3 Q6 Q12 Q14 (the checked-in SQL) and a
//! three-column fetch that returns ~45 % of lineitem — and the **ladder**: the
//! same op types entered at every layer boundary from the block scan up to the
//! wire, in one currency.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use datablocks::{date_to_days, Value};
use exec::{collect_operator, Batch, RelationScanner, ScanConfig};
use query::net::{ClientConfig, WireClient, WireConfig, WireServer};
use query::{parse_sql, Connect, Planner, QueryService, ServiceConfig};
use storage::Database;
use workloads::tpch::{query_sql, run_query, TpchDb};

use crate::harness::{self, OpKind, Outcome, Rng, RunArgs, POOL};
use crate::manifest;
use crate::probes;
use crate::scans::{self, Answer, Materialized, Pred, ScanOp};
use crate::stats::{self, Stream};
use crate::trace::{Span, Tracer};

const KINDS: [OpKind; 6] = [
    OpKind {
        name: "q1",
        read: true,
    },
    OpKind {
        name: "q3",
        read: true,
    },
    OpKind {
        name: "q6",
        read: true,
    },
    OpKind {
        name: "q12",
        read: true,
    },
    OpKind {
        name: "q14",
        read: true,
    },
    OpKind {
        name: "fetch",
        read: true,
    },
];
const QUERY_NAMES: [&str; 5] = ["Q1", "Q3", "Q6", "Q12", "Q14"];
const FETCH: usize = 5;
const AUTH: &str = "bench-layers";
const CLIENTS: usize = 2;
const SESSION_BUDGET: usize = 32 << 20;
const WINDOW: u32 = 4;

/// The base relations each op type scans: the ladder's input-row currency is
/// the sum of their row counts, the same number at every rung.
const BASE_RELATIONS: [&[&str]; 6] = [
    &["lineitem"],
    &["customer", "orders", "lineitem"],
    &["lineitem"],
    &["lineitem", "orders"],
    &["lineitem", "part"],
    &["lineitem"],
];

/// What an op must answer.
enum Expected {
    /// A small result, compared row by row (order-insensitive, doubles to 1e-9).
    Rows(Batch),
    /// A large result, compared by row count and checksum.
    Reduced(Answer),
}

/// One op with its parameters bound.
struct Op {
    kind: usize,
    sql: String,
    /// The scan of lineitem that drives the query, for the two scan rungs.
    driving: ScanOp,
    expected: Expected,
}

fn fetch_sql(lo: i64) -> String {
    format!(
        "SELECT l_orderkey, l_extendedprice, l_discount FROM lineitem WHERE l_discount BETWEEN {lo} AND {}",
        lo + 4
    )
}

/// The lineitem scan under each checked-in query, as its hand-built tree in
/// `workloads::tpch` pushes it down.
fn driving_scan(kind: usize, schema: &storage::Schema, fetch_lo: i64) -> ScanOp {
    let c = |name: &str| schema.idx(name);
    let year_1994 = (date_to_days(1994, 1, 1), date_to_days(1995, 1, 1) - 1);
    let (projection, preds): (Vec<&str>, Vec<Pred>) = match kind {
        0 => (
            vec![
                "l_returnflag",
                "l_linestatus",
                "l_quantity",
                "l_extendedprice",
                "l_discount",
                "l_tax",
            ],
            vec![Pred::Le {
                col: c("l_shipdate"),
                v: date_to_days(1998, 12, 1) - 90,
            }],
        ),
        1 => (
            vec!["l_orderkey", "l_extendedprice", "l_discount"],
            vec![Pred::Gt {
                col: c("l_shipdate"),
                v: date_to_days(1995, 3, 15),
            }],
        ),
        2 => (
            vec!["l_extendedprice", "l_discount"],
            vec![
                Pred::Between {
                    col: c("l_shipdate"),
                    lo: year_1994.0,
                    hi: year_1994.1,
                },
                Pred::Between {
                    col: c("l_discount"),
                    lo: 5,
                    hi: 7,
                },
                Pred::Lt {
                    col: c("l_quantity"),
                    v: 24,
                },
            ],
        ),
        3 => (
            vec![
                "l_orderkey",
                "l_shipmode",
                "l_commitdate",
                "l_shipdate",
                "l_receiptdate",
            ],
            vec![Pred::Between {
                col: c("l_receiptdate"),
                lo: year_1994.0,
                hi: year_1994.1,
            }],
        ),
        4 => (
            vec!["l_partkey", "l_extendedprice", "l_discount"],
            vec![Pred::Between {
                col: c("l_shipdate"),
                lo: date_to_days(1995, 9, 1),
                hi: date_to_days(1995, 10, 1) - 1,
            }],
        ),
        _ => (
            vec!["l_orderkey", "l_extendedprice", "l_discount"],
            vec![Pred::Between {
                col: c("l_discount"),
                lo: fetch_lo,
                hi: fetch_lo + 4,
            }],
        ),
    };
    ScanOp::new(projection.into_iter().map(c).collect(), preds)
}

/// Order-insensitive comparison of two small results, doubles to 1e-9 relative.
fn same_rows(a: &Batch, b: &Batch) -> bool {
    if a.len() != b.len() || a.column_count() != b.column_count() {
        return false;
    }
    let sorted = |batch: &Batch| {
        let mut rows: Vec<Vec<Value>> = (0..batch.len()).map(|r| batch.row(r)).collect();
        rows.sort_by(|x, y| {
            x.iter()
                .zip(y)
                .map(|(l, r)| l.total_cmp(r))
                .find(|o| o.is_ne())
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        rows
    };
    sorted(a).iter().zip(&sorted(b)).all(|(x, y)| {
        x.iter().zip(y).all(|(l, r)| match (l, r) {
            (Value::Double(l), Value::Double(r)) => {
                (l - r).abs() <= 1e-9 * l.abs().max(r.abs()).max(1.0)
            }
            _ => l == r,
        })
    })
}

impl Op {
    fn check_batch(&self, got: &Batch) -> bool {
        match &self.expected {
            Expected::Rows(want) => same_rows(want, got),
            Expected::Reduced(want) => {
                let mut answer = Answer::default();
                answer.fold(got);
                answer == *want
            }
        }
    }
}

/// The op pools: one bound op per checked-in query, [`POOL`] seeded fetches.
/// Expected answers come from the hand-wired operator trees, in process; the
/// fetch's from the tuple-at-a-time copy of lineitem.
fn build_ops(tpch: &TpchDb, rng: &mut Rng) -> Vec<Vec<Op>> {
    let lineitem = tpch.relation("lineitem");
    let schema = lineitem.schema();
    let config = ScanConfig::default().with_threads(1);
    let mut pools: Vec<Vec<Op>> = QUERY_NAMES
        .iter()
        .enumerate()
        .map(|(kind, name)| {
            vec![Op {
                kind,
                sql: query_sql(name).to_string(),
                driving: driving_scan(kind, schema, 0),
                expected: Expected::Rows(run_query(tpch, name, config).batch),
            }]
        })
        .collect();
    let table = Materialized::new(
        lineitem,
        &[
            schema.idx("l_orderkey"),
            schema.idx("l_extendedprice"),
            schema.idx("l_discount"),
        ],
    );
    let fetches = (0..POOL)
        .map(|_| {
            let lo = rng.range(0, 6);
            let mut driving = driving_scan(FETCH, schema, lo);
            let answer = table.answer(&driving);
            driving.expected = Some(answer);
            Op {
                kind: FETCH,
                sql: fetch_sql(lo),
                driving,
                expected: Expected::Reduced(answer),
            }
        })
        .collect();
    pools.push(fetches);
    pools
}

/// A copy of the database for the service to own: relations are cloned, frozen
/// blocks shared. (The hand-wired trees need the `TpchDb` itself.)
fn share(db: &Database) -> Arc<Database> {
    let mut copy = Database::new();
    for relation in db.relations() {
        copy.add_relation(relation.clone());
    }
    Arc::new(copy)
}

fn connect(addr: SocketAddr) -> WireClient {
    WireClient::connect(
        addr,
        &ClientConfig {
            auth_token: AUTH.into(),
            budget_bytes: SESSION_BUDGET as u64,
            window: WINDOW,
        },
    )
    .expect("wire handshake")
}

/// Run one op over the wire; returns whether the answer was right and the time
/// to the first result batch.
fn wire_op(client: &mut WireClient, op: &Op, tracer: &mut Tracer) -> (bool, Option<Duration>) {
    let start = Instant::now();
    tracer.enter("query.net", "query");
    let Ok(mut stream) = client.query_sql(&op.sql) else {
        tracer.exit();
        return (false, None);
    };
    let mut first = None;
    let mut answer = Answer::default();
    let mut rows = Batch::new(stream.output_types());
    let ok = loop {
        match stream.next_batch() {
            Ok(Some(batch)) => {
                first.get_or_insert_with(|| start.elapsed());
                match op.expected {
                    Expected::Rows(_) => rows.append(&batch),
                    Expected::Reduced(_) => answer.fold(&batch),
                }
            }
            Ok(None) => break true,
            Err(_) => break false,
        }
    };
    tracer.exit();
    let right = ok
        && match &op.expected {
            Expected::Rows(want) => same_rows(want, &rows),
            Expected::Reduced(want) => answer == *want,
        };
    (right, first)
}

/// What one client recorded in a phase; streams are `[spans off, spans on]`.
struct ClientRun {
    streams: [Stream; 2],
    attempted: u64,
    failed: u64,
    /// Time to the first batch of every `fetch`, with the index of its sample
    /// in the stream that holds it.
    fetch_ttfb_ms: Vec<(usize, f64)>,
    spans: Vec<Span>,
}

/// One client: rounds of the six op types in seeded order until `seconds`
/// passed. A traced phase (`epoch` set) alternates spans on and off from round
/// to round ([`stats::spans_on`]) and ends on a whole group of four.
fn client_loop(
    addr: SocketAddr,
    pools: &[Vec<Op>],
    seed: u64,
    client: u64,
    seconds: f64,
    epoch: Option<Instant>,
) -> ClientRun {
    let mut wire = connect(addr);
    let mut rng = Rng::new(seed, 0xC11E + client);
    let mut tracer = Tracer::for_phase(epoch);
    let mut run = ClientRun {
        streams: [Stream::default(), Stream::default()],
        attempted: 0,
        failed: 0,
        fetch_ttfb_ms: Vec::new(),
        spans: Vec::new(),
    };
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut round = 0;
    loop {
        let stream = &mut run.streams[usize::from(tracer.record(stats::spans_on(round)))];
        let mut order: Vec<usize> = (0..pools.len()).collect();
        rng.shuffle(&mut order);
        for kind in order {
            let op = &pools[kind][rng.below(pools[kind].len() as u64) as usize];
            run.attempted += 1;
            stream.tick();
            tracer.next_op();
            tracer.enter("workload", KINDS[kind].name);
            let start = Instant::now();
            let (right, first) = wire_op(&mut wire, op, &mut tracer);
            let dur_ns = start.elapsed().as_nanos() as u64;
            tracer.exit();
            if right {
                stream.push(kind as u8, dur_ns);
                if let (FETCH, Some(first)) = (kind, first) {
                    run.fetch_ttfb_ms
                        .push((stream.samples.len() - 1, first.as_secs_f64() * 1e3));
                }
            } else {
                run.failed += 1;
            }
        }
        stream.end_round();
        round += 1;
        if Instant::now() >= deadline && (epoch.is_none() || round % 4 == 0) {
            run.spans = tracer.take();
            return run;
        }
    }
}

/// Both clients for `seconds`; counts go to `outcome`.
fn phase(
    addr: SocketAddr,
    pools: &[Vec<Op>],
    seed: u64,
    seconds: f64,
    epoch: Option<Instant>,
    outcome: &mut Outcome,
) -> Vec<ClientRun> {
    let runs: Vec<ClientRun> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS as u64)
            .map(|client| {
                scope.spawn(move || client_loop(addr, pools, seed, client, seconds, epoch))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    for run in &runs {
        outcome.attempted += run.attempted;
        outcome.failed += run.failed;
    }
    runs
}

/// Milliseconds each op of one round of `f` over `ops` took; a wrong answer is
/// a failed operation.
fn round_ms(ops: &[&Op], outcome: &mut Outcome, mut f: impl FnMut(usize, &Op) -> bool) -> Vec<f64> {
    ops.iter()
        .enumerate()
        .map(|(i, op)| {
            outcome.attempted += 1;
            let start = Instant::now();
            if !f(i, op) {
                outcome.failed += 1;
            }
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect()
}

/// Median over the passes of the round totals, and of each op's time.
fn rung_medians(passes: &[Vec<f64>]) -> (f64, Vec<f64>) {
    let totals: Vec<f64> = passes.iter().map(|pass| pass.iter().sum()).collect();
    let per_op = (0..passes[0].len())
        .map(|op| {
            let times: Vec<f64> = passes.iter().map(|pass| pass[op]).collect();
            stats::median(&times).expect("passes > 0")
        })
        .collect();
    (stats::median(&totals).expect("passes > 0"), per_op)
}

/// The rungs above the scan, bottom to top, named by the layer each enters.
const UPPER_RUNGS: [&str; 5] = [
    "exec.ops",
    "query.plan",
    "query.session",
    "query.service",
    "query.net",
];

/// The ladder: `passes` rounds of one bound op per type at every boundary, from
/// the composed block scan up to a loopback client; a pass visits every rung
/// before the next pass starts, so drift falls on all rungs alike. Fills the
/// `total_ms`, `self_ms` and `ratio_to_below` of every rung (the self times sum
/// to the top rung's total) and the parse, plan and codec numbers; returns the
/// scan spans.
fn ladder(
    tpch: &TpchDb,
    service: &QueryService,
    addr: SocketAddr,
    pools: &[Vec<Op>],
    passes: usize,
    epoch: Instant,
    outcome: &mut Outcome,
) -> Vec<Span> {
    let ops: Vec<&Op> = pools.iter().map(|pool| &pool[0]).collect();
    let config = ScanConfig::default().with_threads(1);
    let db = &tpch.db;

    // rungs 0 and 1: the driving scans, composed and through RelationScanner
    let driving: Vec<&ScanOp> = ops.iter().map(|op| &op.driving).collect();
    let scan = scans::scan_ladder(
        tpch.relation("lineitem"),
        &driving,
        passes,
        false,
        epoch,
        outcome,
    );

    let session = db.connect().with_config(config);
    let plans: Vec<_> = ops
        .iter()
        .map(|op| {
            session
                .compile_sql(&op.sql)
                .expect("checked-in SQL compiles")
        })
        .collect();
    let irs: Vec<_> = ops
        .iter()
        .map(|op| parse_sql(db, &op.sql).expect("checked-in SQL parses"))
        .collect();
    let service_session = service.session(SESSION_BUDGET);
    let mut wire = connect(addr);
    let mut first_batch_ms = Vec::new();
    let mut rungs: [Vec<Vec<f64>>; 5] = Default::default();
    let (mut parse_ms, mut planner_ms) = (Vec::new(), Vec::new());
    for _ in 0..passes {
        // rung 2: the hand-wired operator trees
        rungs[0].push(round_ms(&ops, outcome, |_, op| {
            let got = if op.kind == FETCH {
                let scanner = RelationScanner::new(
                    tpch.relation("lineitem"),
                    op.driving.projection.clone(),
                    op.driving.restrictions(),
                    config,
                );
                collect_operator(&mut exec::ScanOp::new(scanner))
            } else {
                run_query(tpch, QUERY_NAMES[op.kind], config).batch
            };
            op.check_batch(&got)
        }));
        // rung 3: the planner's lowering of the same SQL, compiled once
        rungs[1].push(round_ms(&ops, outcome, |i, op| {
            op.check_batch(&plans[i].execute(db))
        }));
        // rung 4: SQL text through a stand-alone session (parse + plan + stream)
        rungs[2].push(round_ms(&ops, outcome, |_, op| {
            session
                .sql(&op.sql)
                .and_then(|stream| stream.collect())
                .is_ok_and(|got| op.check_batch(&got))
        }));
        // rung 5: the same through an admission-controlled service session
        rungs[3].push(round_ms(&ops, outcome, |_, op| {
            service_session
                .sql(&op.sql)
                .and_then(|stream| stream.collect())
                .is_ok_and(|got| op.check_batch(&got))
        }));
        // rung 6: one client over loopback
        rungs[4].push(round_ms(&ops, outcome, |_, op| {
            let (right, first) = wire_op(&mut wire, op, &mut Tracer::off());
            if let (FETCH, Some(first)) = (op.kind, first) {
                first_batch_ms.push(first.as_secs_f64() * 1e3);
            }
            right
        }));
        // parse and plan alone, summed over the round
        parse_ms.push(
            round_ms(&ops, outcome, |_, op| parse_sql(db, &op.sql).is_ok())
                .iter()
                .sum(),
        );
        planner_ms.push(
            round_ms(&ops, outcome, |i, _| {
                Planner::new(db, config).plan(&irs[i]).is_ok()
            })
            .iter()
            .sum(),
        );
    }

    let mut totals = vec![scan.scanner_ms];
    let mut per_op: Vec<Vec<f64>> = Vec::new();
    for passes in &rungs {
        let (total, ops_ms) = rung_medians(passes);
        totals.push(total);
        per_op.push(ops_ms);
    }
    for (i, op) in ops.iter().enumerate() {
        let cells: Vec<String> = UPPER_RUNGS
            .iter()
            .zip(&per_op)
            .map(|(layer, ops_ms)| format!("{layer} {:.3}", ops_ms[i]))
            .collect();
        outcome.note(
            &format!("ladder.{}_ms", KINDS[op.kind].name),
            cells.join(", "),
        );
    }
    let selfs = stats::ladder_self(&totals);
    for (i, layer) in UPPER_RUNGS.iter().enumerate() {
        let name = |suffix: &str| -> &'static str {
            manifest::spec(&format!("{layer}.{suffix}"))
                .expect("ladder metric declared")
                .name
        };
        outcome.set(name("total_ms"), totals[i + 1]);
        outcome.set(name("self_ms"), selfs[i + 1]);
        outcome.set(name("ratio_to_below"), totals[i + 1] / totals[i]);
    }
    let input_rows: usize = ops
        .iter()
        .flat_map(|op| BASE_RELATIONS[op.kind])
        .map(|name| db.relation(name).row_count())
        .sum();
    outcome.note("ladder.input_rows_per_round", input_rows);
    outcome.set(
        "exec.ops.input_rows_per_s",
        input_rows as f64 / (totals[1] / 1e3),
    );
    outcome.set(
        "query.net.first_batch_ms",
        stats::median(&first_batch_ms).unwrap_or(0.0),
    );
    outcome.set(
        "query.sql.parse_us",
        stats::median(&parse_ms).unwrap_or(0.0) * 1e3,
    );
    outcome.set(
        "query.planner.plan_us",
        stats::median(&planner_ms).unwrap_or(0.0) * 1e3,
    );

    // batch codec, on the first batch of the fetch
    if let Ok(Some(batch)) = session
        .sql(&ops[FETCH].sql)
        .and_then(|mut stream| stream.next_batch())
    {
        let types = batch.types();
        let start = Instant::now();
        let payload = query::net::frame::encode_batch(&batch);
        let encode_s = start.elapsed().as_secs_f64();
        let start = Instant::now();
        let decoded = query::net::frame::decode_batch(&payload, &types);
        let decode_s = start.elapsed().as_secs_f64();
        let mib = payload.len() as f64 / (1 << 20) as f64;
        outcome.set("query.net.encode_batch_mib_per_s", mib / encode_s);
        outcome.set("query.net.decode_batch_mib_per_s", mib / decode_s);
        outcome.set(
            "query.net.bytes_per_row",
            payload.len() as f64 / batch.len().max(1) as f64,
        );
        if decoded.is_ok_and(|b| b.len() != batch.len()) {
            outcome.failed += 1;
        }
    }
    scan.spans
}

/// Run `olap_wire`.
pub fn run(args: &RunArgs) -> Outcome {
    let mut outcome = Outcome::default();
    let (tpch, generate_s) = harness::timed_setup(args.setup_repeats(), || {
        let mut db = TpchDb::generate(args.tpch_sf());
        db.freeze();
        db
    });
    let start = Instant::now();
    let service = Arc::new(QueryService::new(
        share(&tpch.db),
        ScanConfig::default().with_threads(1),
        ServiceConfig {
            max_concurrent: 8,
            total_budget_bytes: 256 << 20,
        },
    ));
    let server = WireServer::serve(
        Arc::clone(&service),
        "127.0.0.1:0",
        WireConfig {
            auth_token: AUTH.into(),
            ..WireConfig::default()
        },
    )
    .expect("bind the wire server to loopback");
    let addr = server.local_addr();
    drop(connect(addr));
    let setup_s = generate_s + start.elapsed().as_secs_f64();

    let mut rng = Rng::new(args.seed, 4);
    let pools = build_ops(&tpch, &mut rng);
    outcome.note("lineitem_rows", tpch.relation("lineitem").row_count());
    harness::begin_measuring(&mut outcome);

    // warm-up (one round per client at least), then the untraced measured phase
    phase(
        addr,
        &pools,
        args.seed ^ 0x3A3A,
        args.warm_up(),
        None,
        &mut Outcome::default(),
    );
    let runs = phase(addr, &pools, args.seed, args.window(), None, &mut outcome);
    let streams: Vec<Stream> = runs.iter().map(|r| r.streams[0].clone()).collect();
    let untraced = harness::summarize(&KINDS, &streams, &mut outcome, "untraced");
    if !args.trace {
        harness::set_end_to_end(&mut outcome, &untraced, setup_s, &tpch.db);
        server.shutdown();
        return outcome;
    }
    // at reference speed, as the latencies are
    let ttfb: Vec<f64> = runs
        .iter()
        .flat_map(|r| {
            let speeds = r.streams[0].speeds();
            r.fetch_ttfb_ms.iter().map(move |&(i, ms)| ms * speeds[i])
        })
        .collect();
    outcome.set("ttfb_p50_ms", stats::median(&ttfb).unwrap_or(0.0));
    outcome.note("untraced.fetch_ttfb", format!("{} samples", ttfb.len()));

    // traced phase: the same two clients, spans at the client boundary in
    // every other round
    let epoch = Instant::now();
    let traced_runs = phase(
        addr,
        &pools,
        args.seed.wrapping_add(1),
        args.window(),
        Some(epoch),
        &mut outcome,
    );
    let (traced, mut span_threads): (Vec<[Stream; 2]>, Vec<Vec<Span>>) = traced_runs
        .into_iter()
        .map(|r| (r.streams, r.spans))
        .unzip();

    span_threads.push(ladder(
        &tpch,
        &service,
        addr,
        &pools,
        3,
        epoch,
        &mut outcome,
    ));
    let wire_stats = server.stats();
    outcome.set(
        "query.net.peak_unacked_batches",
        f64::from(wire_stats.peak_unacked_batches),
    );
    outcome.set(
        "query.net.protocol_errors",
        wire_stats.protocol_errors as f64,
    );
    server.shutdown();

    probes::all(&mut outcome, &tpch.db, "lineitem", "orders", args.seed);
    harness::finish_traced(&mut outcome, args, &untraced, &traced, &span_threads);
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use datablocks::DataType;

    #[test]
    fn small_results_compare_order_insensitively_with_tolerance() {
        let types = [DataType::Str, DataType::Double];
        let a = Batch::from_rows(
            &types,
            &[
                vec![Value::Str("x".into()), Value::Double(1.0)],
                vec![Value::Str("y".into()), Value::Double(2e12)],
            ],
        );
        let b = Batch::from_rows(
            &types,
            &[
                vec![Value::Str("y".into()), Value::Double(2e12 + 1e-3)],
                vec![Value::Str("x".into()), Value::Double(1.0)],
            ],
        );
        let c = Batch::from_rows(
            &types,
            &[
                vec![Value::Str("y".into()), Value::Double(2.1e12)],
                vec![Value::Str("x".into()), Value::Double(1.0)],
            ],
        );
        assert!(same_rows(&a, &b));
        assert!(!same_rows(&a, &c));
        assert!(!same_rows(&a, &Batch::new(&types)));
    }
}
