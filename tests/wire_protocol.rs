//! Loopback integration suite for the wire protocol (`query::net`): a real
//! `WireServer` over a TPC-H database, exercised by real `WireClient`s on
//! 127.0.0.1.
//!
//! Pinned here:
//! * every `QUERY_SUBSET` result that crosses the wire matches the in-process
//!   answer across thread counts and cache regimes (in-memory and
//!   thrash-spilled): **byte-identical** at one thread — the batch codec
//!   loses nothing, every `f64` travels as raw bits — and equal up to the
//!   engine's own parallel-merge reassociation at four;
//! * results are **streamed**: server-side buffering never exceeds the
//!   connection's credit window (asserted via `peak_unacked_batches`), even
//!   against a deliberately slow client, a client returning more credits than
//!   the window, or one pipelining its queries;
//! * malformed, truncated and oversized frames are answered with a loud
//!   `PROTOCOL` error frame and kill only their own connection — the server
//!   and its other connections keep working;
//! * auth failures and over-budget handshakes are refused with typed error
//!   frames carrying the pinned `Display` messages;
//! * a mid-stream client disconnect returns the session's admission budget to
//!   the pool deterministically (polled via `QueryService::stats`);
//! * `CANCEL` stops a query mid-scan with the typed `CANCELLED` error frame
//!   and the **same connection** then runs the next query successfully;
//! * a connection thread serves one connection after another: a new one
//!   starts only while more connections are open than threads exist;
//! * idle connections are reaped, graceful shutdown drains, and every test
//!   runs under a watchdog so a protocol deadlock fails loudly instead of
//!   hanging CI.

mod common;

use std::io::ErrorKind;
use std::net::TcpStream;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use common::assert_batches_agree;
use data_blocks::exec::ScanConfig;
use data_blocks::query::net::frame::{
    decode_done, decode_error, decode_hello_ok, encode_credit, encode_hello, encode_query,
    read_frame, write_frame, FrameError, FrameType, Hello, QueryKind, WIRE_MAGIC, WIRE_VERSION,
};
use data_blocks::query::net::{
    ClientConfig, ClientError, ErrorCode, WireClient, WireConfig, WireServer,
};
use data_blocks::query::{QueryService, ServiceConfig};
use data_blocks::storage::SpillPolicy;
use data_blocks::workloads::tpch::{query_sql, TpchDb, QUERY_SUBSET};

const AUTH: &str = "tpch-wire-secret";
const WATCHDOG: Duration = Duration::from_secs(300);
const BUDGET: u64 = 32 << 20;
/// A result spanning many more batches than any window used here.
const SCAN: &str = "SELECT l_quantity FROM lineitem";

/// Run `body` on a helper thread under a watchdog: a hang fails loudly.
fn with_watchdog(body: impl FnOnce() + Send + 'static) {
    let (tx, rx) = mpsc::channel::<()>();
    let worker = std::thread::spawn(move || {
        body();
        let _ = tx.send(());
    });
    match rx.recv_timeout(WATCHDOG) {
        Ok(()) | Err(mpsc::RecvTimeoutError::Disconnected) => {
            if let Err(payload) = worker.join() {
                std::panic::resume_unwind(payload);
            }
        }
        Err(mpsc::RecvTimeoutError::Timeout) => {
            panic!("watchdog fired after {WATCHDOG:?}: wire test hung")
        }
    }
}

fn server_config() -> WireConfig {
    WireConfig {
        auth_token: AUTH.into(),
        ..WireConfig::default()
    }
}

fn client_config() -> ClientConfig {
    ClientConfig {
        auth_token: AUTH.into(),
        budget_bytes: BUDGET,
        window: 4,
    }
}

/// A service + wire server over a freshly generated TPC-H database.
/// `thrash` additionally spills every relation behind a one-byte block cache,
/// so every scan goes through the cold-read path.
fn serve_tpch(threads: usize, thrash: bool) -> (Arc<QueryService>, WireServer) {
    let mut db = TpchDb::generate_with_chunk(0.02, 2_048);
    db.freeze();
    if thrash {
        db.db
            .enable_spill(SpillPolicy::with_cache_capacity(1))
            .expect("enable spill");
    }
    let service = Arc::new(QueryService::new(
        Arc::new(db.db),
        ScanConfig::default().with_threads(threads),
        ServiceConfig::default(),
    ));
    let server = WireServer::serve(Arc::clone(&service), "127.0.0.1:0", server_config())
        .expect("bind wire server");
    (service, server)
}

/// The tentpole fidelity pin: all five reproduced TPC-H queries over the wire
/// against the in-process session answer — at one and four threads, in memory
/// and thrash-spilled, all over one connection per regime. Serial results are
/// byte-identical (so the batch codec provably loses nothing — every `f64`
/// crosses as raw bits); four-thread aggregates agree up to the engine's own
/// parallel-merge reassociation, exactly like the in-process differential
/// suites.
#[test]
fn wire_results_match_in_process_across_threads_and_regimes() {
    with_watchdog(|| {
        for thrash in [false, true] {
            for threads in [1usize, 4] {
                let (service, server) = serve_tpch(threads, thrash);
                let mut client =
                    WireClient::connect(server.local_addr(), &client_config()).expect("handshake");
                for &name in QUERY_SUBSET {
                    let label = format!(
                        "{name} threads={threads} {}",
                        if thrash { "thrash" } else { "memory" }
                    );
                    let expected = service
                        .session(BUDGET as usize)
                        .sql(query_sql(name))
                        .and_then(|stream| stream.collect())
                        .unwrap_or_else(|err| panic!("{label} in-process: {err}"));
                    let actual = client
                        .query_sql(query_sql(name))
                        .and_then(|stream| stream.collect())
                        .unwrap_or_else(|err| panic!("{label} wire: {err}"));
                    assert_batches_agree(&label, &expected, &actual, threads == 1);
                }
                drop(client);
                server.shutdown();
            }
        }
    });
}

/// Protocol robustness: garbage magic, an oversized length prefix, a corrupt
/// checksum and a truncated frame each kill only their own connection — with
/// a `PROTOCOL` error frame where one can still be delivered — while the
/// server keeps serving well-behaved clients.
#[test]
fn malformed_frames_kill_one_connection_not_the_server() {
    with_watchdog(|| {
        let (_service, server) = serve_tpch(1, false);
        let addr = server.local_addr();

        // Garbage magic straight at the handshake.
        {
            let mut client = WireClient::connect(addr, &client_config()).expect("handshake");
            client.send_raw(b"XXXXnot a frame at all").expect("send");
            let (ty, payload) = client.read_raw_frame().expect("protocol error frame");
            assert_eq!(ty, FrameType::Error);
            assert_eq!(payload[0], ErrorCode::Protocol as u8);
        }

        // An oversized length prefix must be refused before allocation.
        {
            let mut client = WireClient::connect(addr, &client_config()).expect("handshake");
            let mut frame = Vec::new();
            frame.extend_from_slice(&WIRE_MAGIC);
            frame.push(FrameType::Query as u8);
            frame.extend_from_slice(&u32::MAX.to_le_bytes());
            client.send_raw(&frame).expect("send");
            let (ty, payload) = client.read_raw_frame().expect("protocol error frame");
            assert_eq!(ty, FrameType::Error);
            assert_eq!(payload[0], ErrorCode::Protocol as u8);
        }

        // A flipped payload bit fails the frame checksum.
        {
            let mut client = WireClient::connect(addr, &client_config()).expect("handshake");
            let mut frame = Vec::new();
            write_frame(
                &mut frame,
                FrameType::Query,
                &encode_query(QueryKind::Sql, "SELECT count(*) FROM lineitem"),
            )
            .expect("encode");
            let payload_byte = frame.len() - 12;
            frame[payload_byte] ^= 0x01;
            client.send_raw(&frame).expect("send");
            let (ty, payload) = client.read_raw_frame().expect("protocol error frame");
            assert_eq!(ty, FrameType::Error);
            assert_eq!(payload[0], ErrorCode::Protocol as u8);
        }

        // A frame cut off mid-payload followed by a hangup: the server just
        // drops the connection (nobody is left to answer).
        {
            let client = WireClient::connect(addr, &client_config()).expect("handshake");
            let mut frame = Vec::new();
            write_frame(
                &mut frame,
                FrameType::Query,
                &encode_query(QueryKind::Sql, "SELECT count(*) FROM lineitem"),
            )
            .expect("encode");
            client.send_raw(&frame[..frame.len() / 2]).expect("send");
            drop(client);
        }

        // The server survived all four: a fresh client still gets answers.
        let mut client = WireClient::connect(addr, &client_config()).expect("handshake");
        let batch = client
            .query_sql(query_sql("Q6"))
            .and_then(|stream| stream.collect())
            .expect("query after abuse");
        assert_eq!(batch.len(), 1);
        assert!(server.stats().protocol_errors >= 3, "{:?}", server.stats());
        server.shutdown();
    });
}

/// A wrong auth token is refused with a typed `AUTH` error frame.
#[test]
fn bad_auth_token_is_refused() {
    with_watchdog(|| {
        let (_service, server) = serve_tpch(1, false);
        let config = ClientConfig {
            auth_token: "wrong".into(),
            ..client_config()
        };
        match WireClient::connect(server.local_addr(), &config) {
            Err(ClientError::Remote { code, message }) => {
                assert_eq!(code, ErrorCode::Auth);
                assert_eq!(message, "authentication failed");
            }
            other => panic!("expected auth refusal, got {other:?}"),
        }
        server.shutdown();
    });
}

/// A handshake budget larger than the service pool is refused with the same
/// typed admission error (and pinned message) the in-process API raises.
#[test]
fn over_budget_handshake_is_refused() {
    with_watchdog(|| {
        let (service, server) = serve_tpch(1, false);
        let total = service.config().total_budget_bytes;
        let config = ClientConfig {
            budget_bytes: (total as u64) * 2,
            ..client_config()
        };
        match WireClient::connect(server.local_addr(), &config) {
            Err(ClientError::Remote { code, message }) => {
                assert_eq!(code, ErrorCode::OverBudget);
                assert_eq!(
                    message,
                    format!(
                        "admission error: query budget {} bytes exceeds the service budget {total} bytes",
                        total * 2
                    )
                );
            }
            other => panic!("expected admission refusal, got {other:?}"),
        }
        server.shutdown();
    });
}

/// A client that vanishes mid-result-stream (no GOODBYE, frames still in
/// flight) must not leak its admission grant: the server closes the session
/// and the pool recovers, observably via `QueryService::stats`.
#[test]
fn mid_stream_disconnect_releases_budget() {
    with_watchdog(|| {
        let (service, server) = serve_tpch(1, false);
        {
            let mut client =
                WireClient::connect(server.local_addr(), &client_config()).expect("handshake");
            let mut stream = client
                .query_sql("SELECT l_quantity FROM lineitem")
                .expect("query");
            let first = stream.next_batch().expect("first batch");
            assert!(first.is_some(), "scan must produce at least one batch");
            assert!(service.stats().granted_bytes > 0, "query must hold budget");
            // Dropping the stream mid-flight poisons the client; dropping the
            // poisoned client hangs up without GOODBYE.
        }
        let deadline = Instant::now() + WATCHDOG;
        loop {
            let stats = service.stats();
            if stats.granted_bytes == 0 && stats.running == 0 {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "budget never returned after disconnect: {stats:?}"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        server.shutdown();
    });
}

/// Out-of-band cancellation mid-scan: the stream terminates with the typed
/// `CANCELLED` error frame (pinned message), the connection survives, and the
/// very same connection then runs the next query to completion.
#[test]
fn cancel_mid_scan_is_typed_and_connection_survives() {
    with_watchdog(|| {
        let (service, server) = serve_tpch(4, false);
        let config = ClientConfig {
            // A tiny window guarantees the query is still mid-scan (blocked
            // on credits) when the cancel lands, making the test deterministic.
            window: 2,
            ..client_config()
        };
        let mut client = WireClient::connect(server.local_addr(), &config).expect("handshake");
        let canceller = client.canceller();
        let mut stream = client
            .query_sql("SELECT l_quantity, l_extendedprice FROM lineitem")
            .expect("query");
        // Receiving a batch proves the query is executing (the cancel cannot
        // race the session's token re-arm).
        stream.next_batch().expect("first batch");
        canceller.cancel();
        let err = loop {
            match stream.next_batch() {
                Ok(Some(_)) => continue, // batches already in flight
                Ok(None) => panic!("query finished despite cancel"),
                Err(err) => break err,
            }
        };
        match err {
            ClientError::Remote { code, message } => {
                assert_eq!(code, ErrorCode::Cancelled);
                assert_eq!(message, "query cancelled");
            }
            other => panic!("expected remote cancellation, got {other:?}"),
        }
        drop(stream);

        // Same connection, next query: the session re-arms and serves it.
        let batch = client
            .query_sql(query_sql("Q6"))
            .and_then(|stream| stream.collect())
            .expect("query after cancel");
        assert_eq!(batch.len(), 1);

        // The cancelled query's grant went back to the pool.
        assert_eq!(service.stats().granted_bytes, 0);
        drop(client);
        server.shutdown();
    });
}

/// The streaming-memory pin: against a slow client with a window of two, the
/// server never has more than two un-credited batches outstanding — buffering
/// is O(window), not O(result) — while flow control demonstrably engaged
/// (the result spans far more batches than the window).
#[test]
fn slow_client_bounds_server_side_buffering() {
    with_watchdog(|| {
        let (service, server) = serve_tpch(4, false);
        let config = ClientConfig {
            window: 2,
            ..client_config()
        };
        let mut client = WireClient::connect(server.local_addr(), &config).expect("handshake");
        assert_eq!(client.window(), 2);

        let expected = service
            .session(BUDGET as usize)
            .sql("SELECT l_quantity FROM lineitem")
            .and_then(|stream| stream.collect())
            .expect("in-process reference");

        let mut stream = client
            .query_sql("SELECT l_quantity FROM lineitem")
            .expect("query");
        let mut rows = 0usize;
        let mut batches = 0usize;
        while let Some(batch) = stream.next_batch().expect("batch") {
            rows += batch.len();
            batches += 1;
            if batches.is_multiple_of(8) {
                // Dawdle: give the server every chance to overrun its window.
                std::thread::sleep(Duration::from_millis(2));
            }
        }
        assert_eq!(rows, expected.len(), "streamed rows match the reference");
        assert!(
            batches > 8,
            "result must span many more batches ({batches}) than the window"
        );
        let stats = server.stats();
        assert!(
            stats.peak_unacked_batches <= 2,
            "server buffered {} batches ahead of a window of 2",
            stats.peak_unacked_batches
        );
        assert!(stats.peak_unacked_batches > 0, "flow control never engaged");
        drop(stream);
        drop(client);
        server.shutdown();
    });
}

/// A raw connection to `server` after a HELLO asking for `window` credits.
fn raw_connect(server: &WireServer, window: u32) -> TcpStream {
    let mut raw = TcpStream::connect(server.local_addr()).expect("connect");
    let hello = Hello {
        version: WIRE_VERSION,
        budget_bytes: BUDGET,
        window,
        auth_token: AUTH.into(),
    };
    write_frame(&mut raw, FrameType::Hello, &encode_hello(&hello)).expect("HELLO");
    let (ty, payload) = read_frame(&mut raw).expect("HELLO_OK");
    assert_eq!(ty, FrameType::HelloOk);
    assert_eq!(decode_hello_ok(&payload).expect("HELLO_OK").1, window);
    raw
}

/// Read the rest of one query's result from `raw`, crediting every
/// `RESULT_BATCH` as it is read, up to its `RESULT_DONE`. `batches` were read
/// before; returns the rows the server reports, after checking its batch count.
fn finish_query(raw: &mut TcpStream, mut batches: u32) -> u64 {
    loop {
        match read_frame(raw).expect("a result frame") {
            (FrameType::ResultBatch, _) => {
                batches += 1;
                write_frame(raw, FrameType::Credit, &encode_credit(1)).expect("CREDIT");
            }
            (FrameType::ResultDone, payload) => {
                let (rows, sent) = decode_done(&payload).expect("RESULT_DONE");
                assert_eq!(sent, batches, "batches read");
                return rows;
            }
            (FrameType::Error, payload) => panic!("{:?}", decode_error(&payload)),
            (other, _) => panic!("unexpected {other:?} frame"),
        }
    }
}

/// Poll until the server holds no connection and the service no grant or
/// running query.
fn wait_until_released(service: &QueryService, server: &WireServer) {
    let deadline = Instant::now() + WATCHDOG;
    loop {
        let (wire, stats) = (server.stats(), service.stats());
        if wire.active_connections == 0 && stats.granted_bytes == 0 && stats.running == 0 {
            return;
        }
        assert!(Instant::now() < deadline, "{wire:?} {stats:?}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// A raw client that returns more credits than the window holds — `CREDIT 100`
/// right after `RESULT_SCHEMA`, on a window of 4 — does not widen the window.
/// Until the client credits what it read, the server sends at most the 4
/// batches it may have sent before the credit landed plus 4 more, and it
/// reports at most 4 unacked. The query then answers in full and the
/// connection serves the next one.
#[test]
fn over_crediting_cannot_widen_the_window() {
    with_watchdog(|| {
        let (service, server) = serve_tpch(1, false);
        let expected = service
            .session(BUDGET as usize)
            .sql(SCAN)
            .and_then(|stream| stream.collect())
            .expect("in-process reference")
            .len() as u64;
        let mut raw = raw_connect(&server, 4);
        write_frame(
            &mut raw,
            FrameType::Query,
            &encode_query(QueryKind::Sql, SCAN),
        )
        .expect("QUERY");
        let schema = read_frame(&mut raw).expect("RESULT_SCHEMA").0;
        assert_eq!(schema, FrameType::ResultSchema);
        write_frame(&mut raw, FrameType::Credit, &encode_credit(100)).expect("CREDIT");

        // Read without crediting until the server goes quiet.
        raw.set_read_timeout(Some(Duration::from_millis(500)))
            .expect("read timeout");
        let mut early = 0u32;
        loop {
            match read_frame(&mut raw) {
                Ok((FrameType::ResultBatch, _)) => early += 1,
                Ok((other, _)) => panic!("{other:?} after {early} batches: the window widened"),
                Err(FrameError::Io(err))
                    if matches!(err.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) =>
                {
                    break
                }
                Err(err) => panic!("after {early} batches: {err}"),
            }
        }
        assert!(early <= 8, "{early} batches sent on a window of 4");
        raw.set_read_timeout(None).expect("read timeout");
        write_frame(&mut raw, FrameType::Credit, &encode_credit(early)).expect("CREDIT");
        assert_eq!(finish_query(&mut raw, early), expected);

        let q6 = encode_query(QueryKind::Sql, query_sql("Q6"));
        write_frame(&mut raw, FrameType::Query, &q6).expect("QUERY");
        assert_eq!(
            read_frame(&mut raw).expect("RESULT_SCHEMA").0,
            FrameType::ResultSchema
        );
        assert_eq!(finish_query(&mut raw, 0), 1);
        write_frame(&mut raw, FrameType::Goodbye, &[]).expect("GOODBYE");
        wait_until_released(&service, &server);
        let stats = server.stats();
        assert_eq!(stats.protocol_errors, 0);
        assert!(stats.peak_unacked_batches <= 4, "{stats:?}");
        server.shutdown();
    });
}

/// Pipelining: a raw client sends three QUERYs back to back on a window of 2,
/// then credits every batch as it reads it. Credits for one query's last
/// batches reach the server after the next query started with a full window;
/// every query still answers in full, in order, on the one connection.
#[test]
fn pipelined_queries_all_answer() {
    with_watchdog(|| {
        let (service, server) = serve_tpch(1, false);
        let queries = [SCAN, SCAN, query_sql("Q6")];
        let expected: Vec<u64> = queries
            .iter()
            .map(|sql| {
                let session = service.session(BUDGET as usize);
                let rows = session.sql(sql).and_then(|stream| stream.collect());
                rows.expect("in-process reference").len() as u64
            })
            .collect();
        let mut raw = raw_connect(&server, 2);
        for sql in queries {
            write_frame(
                &mut raw,
                FrameType::Query,
                &encode_query(QueryKind::Sql, sql),
            )
            .expect("QUERY");
        }
        for (sql, expected) in queries.iter().zip(expected) {
            let schema = read_frame(&mut raw).expect("RESULT_SCHEMA").0;
            assert_eq!(schema, FrameType::ResultSchema, "{sql}");
            assert_eq!(finish_query(&mut raw, 0), expected, "{sql}");
        }
        write_frame(&mut raw, FrameType::Goodbye, &[]).expect("GOODBYE");
        wait_until_released(&service, &server);
        let stats = server.stats();
        assert_eq!(stats.protocol_errors, 0);
        assert!(stats.peak_unacked_batches <= 2, "{stats:?}");
        server.shutdown();
    });
}

/// Idle connections are reaped after the configured timeout, and graceful
/// shutdown drains: both observable as the active-connection count returning
/// to zero while the server (then) still answers statistics.
#[test]
fn idle_connections_are_reaped_and_shutdown_drains() {
    with_watchdog(|| {
        let (_service, server) = serve_tpch(1, false);
        let mut db = TpchDb::generate_with_chunk(0.005, 2_048);
        db.freeze();
        let service = Arc::new(QueryService::new(
            Arc::new(db.db),
            ScanConfig::default(),
            ServiceConfig::default(),
        ));
        let config = WireConfig {
            auth_token: AUTH.into(),
            idle_timeout: Duration::from_millis(400),
            ..WireConfig::default()
        };
        let short_idle = WireServer::serve(Arc::clone(&service), "127.0.0.1:0", config)
            .expect("bind wire server");

        let client =
            WireClient::connect(short_idle.local_addr(), &client_config()).expect("handshake");
        let deadline = Instant::now() + WATCHDOG;
        while short_idle.stats().active_connections > 0 {
            assert!(Instant::now() < deadline, "idle connection never reaped");
            std::thread::sleep(Duration::from_millis(50));
        }
        drop(client);
        short_idle.shutdown();

        // Graceful drain with a live (idle) connection: shutdown returns and
        // joins every thread rather than hanging.
        let client = WireClient::connect(server.local_addr(), &client_config()).expect("handshake");
        server.shutdown();
        drop(client);
    });
}

/// A connection thread outlives its connection: connections opened one after
/// another are all served by the first thread, a second starts only while two
/// connections are open at once, and shutdown joins both.
#[test]
fn connection_threads_serve_one_connection_after_another() {
    with_watchdog(|| {
        let (service, server) = serve_tpch(1, false);
        let q6 = |client: &mut WireClient| {
            let batch = client
                .query_sql(query_sql("Q6"))
                .and_then(|stream| stream.collect())
                .expect("Q6 over the wire");
            assert_eq!(batch.len(), 1);
        };
        for _ in 0..3 {
            let mut client =
                WireClient::connect(server.local_addr(), &client_config()).expect("handshake");
            q6(&mut client);
            drop(client);
            wait_until_released(&service, &server);
        }
        assert_eq!(server.stats().connection_threads, 1);
        assert_eq!(server.stats().connections, 3);

        let mut first = WireClient::connect(server.local_addr(), &client_config()).expect("first");
        let mut second =
            WireClient::connect(server.local_addr(), &client_config()).expect("second");
        q6(&mut first);
        q6(&mut second);
        assert_eq!(server.stats().connection_threads, 2);
        drop((first, second));
        wait_until_released(&service, &server);
        server.shutdown();
    });
}
