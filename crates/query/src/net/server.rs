//! The wire server: a dependency-free `std::net` TCP front end over a
//! [`QueryService`].
//!
//! Each accepted connection is served by **two** threads:
//!
//! * the **executor** thread performs the handshake, then runs queued queries
//!   one at a time, draining each [`QueryStream`](crate::QueryStream) into
//!   `RESULT_BATCH` frames under credit-based flow control;
//! * the **reader** thread owns the socket's read half and parses incoming
//!   frames — `QUERY` and `GOODBYE` are queued for the executor, `CREDIT`
//!   replenishes the flow-control window, and `CANCEL` raises the session's
//!   [`CancelToken`] *immediately*, out of band, so a query streaming (or
//!   blocked on credits) is stopped at its next morsel boundary even while
//!   the executor is busy.
//!
//! The executor runs on a **connection thread**, which outlives its
//! connection: when the connection ends the thread waits, idle, for the next
//! accepted one, and the accept loop starts a new connection thread only when
//! none is idle. Connection threads are joined at shutdown; there are never
//! more of them than connections were open at once
//! ([`WireServerStats::connection_threads`]). Reuse keeps the memory a
//! connection's queries freed with the thread that serves the next one: a
//! thread that exits leaves its heap behind (glibc keeps a malloc arena per
//! thread, resident until some later thread takes it over), and which later
//! thread takes over which arena is a race, so resident memory would vary from
//! run to run.
//!
//! Flow control bounds the server's memory: a query's results may be at most
//! `window` un-credited batches ahead of the client. A slow client therefore
//! backpressures the executor, which backpressures the parallel scan's bounded
//! reorder channel — server-side buffering is **O(window)**, never
//! O(result size). The high-water mark is recorded in
//! [`WireServerStats::peak_unacked_batches`] so tests can assert the bound.
//!
//! Connection lifecycle: malformed, oversized or out-of-order frames are
//! answered with a `PROTOCOL` error frame and the connection is closed — the
//! server itself and its other connections are unaffected. A connection idle
//! longer than [`WireConfig::idle_timeout`] (no frames, no running query) is
//! reaped. [`WireServer::shutdown`] drains gracefully: the listener stops
//! accepting, in-flight queries finish, idle connections close, and every
//! connection thread is joined. Whatever ends a connection, its session is
//! [closed](crate::Session::close), so the client's admission budget returns
//! to the pool deterministically — not whenever drop order gets around to it.

use std::collections::VecDeque;
use std::io::{self, ErrorKind, Read};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use exec::CancelToken;

use super::frame::{
    decode_credit, decode_hello, decode_query, encode_done, encode_error, encode_hello_ok,
    encode_schema, read_frame, write_frame, ErrorCode, FrameError, FrameType, QueryKind,
    WIRE_VERSION,
};
use crate::net::frame::encode_batch;
use crate::service::{Error, QueryService, Session};

/// How often the reader thread wakes to check idle/drain state when no frame
/// is arriving.
const READ_TICK: Duration = Duration::from_millis(200);

/// Configuration of a [`WireServer`].
#[derive(Debug, Clone)]
pub struct WireConfig {
    /// Shared-secret auth token; a `HELLO` whose token differs is refused
    /// with an `AUTH` error frame.
    pub auth_token: String,
    /// Upper bound on the per-connection credit window; a `HELLO` requesting
    /// more is granted this much (requests of 0 are granted 1).
    pub max_window: u32,
    /// Connections with no running query and no incoming frames for this long
    /// are closed.
    pub idle_timeout: Duration,
    /// How long a freshly accepted connection may take to send its `HELLO`.
    pub handshake_timeout: Duration,
}

impl Default for WireConfig {
    fn default() -> WireConfig {
        WireConfig {
            auth_token: String::new(),
            max_window: 8,
            idle_timeout: Duration::from_secs(30),
            handshake_timeout: Duration::from_secs(5),
        }
    }
}

/// Counters of a running [`WireServer`] (see [`WireServer::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WireServerStats {
    /// Connections accepted since the server started.
    pub connections: u64,
    /// Connections currently being served.
    pub active_connections: usize,
    /// Queries received over the wire.
    pub queries: u64,
    /// Frames refused as protocol violations (bad magic, bad checksum,
    /// oversized, out of order, ...).
    pub protocol_errors: u64,
    /// High-water mark of result batches sent but not yet credited back by
    /// any one connection — the observable server-side buffering bound
    /// (never exceeds the largest granted window).
    pub peak_unacked_batches: u32,
    /// Connection threads started since the server started. Each serves one
    /// connection after another, so this never exceeds the largest number of
    /// connections that were open at once.
    pub connection_threads: usize,
}

/// A running TCP front end over a [`QueryService`]. Dropping the handle shuts
/// the server down (gracefully — see [`WireServer::shutdown`]).
pub struct WireServer {
    shared: Arc<ServerShared>,
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
}

struct ServerShared {
    service: Arc<QueryService>,
    config: WireConfig,
    draining: AtomicBool,
    connections: AtomicU64,
    active: AtomicUsize,
    queries: AtomicU64,
    protocol_errors: AtomicU64,
    peak_unacked: AtomicU32,
    handoff: Mutex<Handoff>,
    /// Wakes an idle connection thread: a connection was queued, or the server
    /// drains.
    wake: Condvar,
    conns: Mutex<Vec<JoinHandle<()>>>,
}

/// Accepted connections waiting for a connection thread, and how many
/// connection threads wait for one.
struct Handoff {
    streams: VecDeque<TcpStream>,
    idle: usize,
}

impl ServerShared {
    fn handoff(&self) -> std::sync::MutexGuard<'_, Handoff> {
        self.handoff.lock().expect("wire connection handoff")
    }
}

impl WireServer {
    /// Bind `addr` (use port 0 for an ephemeral port) and start serving
    /// `service` in background threads. Returns once the listener is bound —
    /// clients may connect immediately.
    pub fn serve(
        service: Arc<QueryService>,
        addr: impl ToSocketAddrs,
        config: WireConfig,
    ) -> io::Result<WireServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(ServerShared {
            service,
            config,
            draining: AtomicBool::new(false),
            connections: AtomicU64::new(0),
            active: AtomicUsize::new(0),
            queries: AtomicU64::new(0),
            protocol_errors: AtomicU64::new(0),
            peak_unacked: AtomicU32::new(0),
            handoff: Mutex::new(Handoff {
                streams: VecDeque::new(),
                idle: 0,
            }),
            wake: Condvar::new(),
            conns: Mutex::new(Vec::new()),
        });
        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::Builder::new()
            .name("wire-accept".into())
            .spawn(move || accept_loop(&accept_shared, &listener))?;
        Ok(WireServer {
            shared,
            addr,
            accept: Some(accept),
        })
    }

    /// The bound address (the actual port when bound with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A snapshot of the server's counters.
    pub fn stats(&self) -> WireServerStats {
        WireServerStats {
            connections: self.shared.connections.load(Ordering::Relaxed),
            active_connections: self.shared.active.load(Ordering::Relaxed),
            queries: self.shared.queries.load(Ordering::Relaxed),
            protocol_errors: self.shared.protocol_errors.load(Ordering::Relaxed),
            peak_unacked_batches: self.shared.peak_unacked.load(Ordering::Relaxed),
            connection_threads: self.shared.conns.lock().expect("wire conn registry").len(),
        }
    }

    /// Graceful drain: stop accepting, let in-flight queries finish, close
    /// idle connections, and join every server thread. Returns when the last
    /// connection is gone.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shared.draining.store(true, Ordering::Release);
        // Poke the blocking accept() so the loop observes the drain flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        // Idle connection threads see the drain flag and exit. Taking the lock
        // first orders this after any thread's check of the flag before it waits.
        drop(self.shared.handoff());
        self.shared.wake.notify_all();
        let conns = std::mem::take(&mut *self.shared.conns.lock().expect("wire conn registry"));
        for conn in conns {
            let _ = conn.join();
        }
    }
}

impl Drop for WireServer {
    fn drop(&mut self) {
        self.stop();
    }
}

fn accept_loop(server: &Arc<ServerShared>, listener: &TcpListener) {
    for stream in listener.incoming() {
        if server.draining.load(Ordering::Acquire) {
            return;
        }
        let Ok(stream) = stream else { continue };
        {
            let mut handoff = server.handoff();
            handoff.streams.push_back(stream);
            if handoff.idle >= handoff.streams.len() {
                server.wake.notify_one();
                continue;
            }
        }
        // No thread is idle: start one. (Should that fail, the connection waits
        // for the next thread to turn idle.)
        let conn_server = Arc::clone(server);
        let handle = std::thread::Builder::new()
            .name("wire-conn".into())
            .spawn(move || connection_thread(&conn_server));
        if let Ok(handle) = handle {
            server
                .conns
                .lock()
                .expect("wire conn registry")
                .push(handle);
        }
    }
}

// ------------------------------------------------------------ per-connection

/// What the reader queues for the executor.
enum Command {
    Query {
        kind: QueryKind,
        text: String,
        /// A `CANCEL` frame arrived after this query was queued but before it
        /// started executing. Starting a query re-arms the session's cancel
        /// token, so the flag re-raises it post-start — the wire ordering
        /// "QUERY then CANCEL" must cancel *this* query, not evaporate.
        pre_cancelled: bool,
    },
    Goodbye,
}

/// State shared between a connection's reader and executor threads.
struct ConnShared {
    /// The credit window granted at the handshake.
    window: u32,
    state: Mutex<ConnState>,
    cond: Condvar,
}

struct ConnState {
    queue: VecDeque<Command>,
    /// Remaining flow-control credits of the current query's result stream;
    /// never above the window.
    credits: u32,
    /// A query is executing (idle-timeout accounting ignores this time).
    running: bool,
    /// Terminal: socket error, protocol violation, idle timeout, or drain.
    dead: bool,
}

impl ConnShared {
    fn new(window: u32) -> Arc<ConnShared> {
        Arc::new(ConnShared {
            window,
            state: Mutex::new(ConnState {
                queue: VecDeque::new(),
                credits: window,
                running: false,
                dead: false,
            }),
            cond: Condvar::new(),
        })
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, ConnState> {
        self.state.lock().expect("wire conn state")
    }

    /// Mark the connection terminal and cancel whatever is running.
    fn kill(&self, cancel: &CancelToken) {
        self.lock().dead = true;
        cancel.cancel();
        self.cond.notify_all();
    }
}

/// A connection thread: serve queued connections one after another, waiting
/// idle in between, until the server drains.
fn connection_thread(server: &Arc<ServerShared>) {
    let mut handoff = server.handoff();
    loop {
        if let Some(stream) = handoff.streams.pop_front() {
            drop(handoff);
            server.connections.fetch_add(1, Ordering::Relaxed);
            server.active.fetch_add(1, Ordering::Relaxed);
            let _ = connection_loop(server, stream);
            // Under the lock, so that once a connection no longer counts as
            // active the accept loop sees its thread as idle.
            handoff = server.handoff();
            server.active.fetch_sub(1, Ordering::Relaxed);
        } else if server.draining.load(Ordering::Acquire) {
            return;
        } else {
            handoff.idle += 1;
            handoff = server.wake.wait(handoff).expect("wire connection handoff");
            handoff.idle -= 1;
        }
    }
}

/// Handshake, then serve queries until the connection ends (any way it can).
/// `Err` only for transport failures — every protocol-level refusal has
/// already been answered with an `ERROR` frame.
fn connection_loop(server: &Arc<ServerShared>, mut stream: TcpStream) -> io::Result<()> {
    let _ = stream.set_nodelay(true);
    stream.set_read_timeout(Some(server.config.handshake_timeout))?;
    let hello = match read_frame(&mut stream) {
        Ok((FrameType::Hello, payload)) => match decode_hello(&payload) {
            Ok(hello) => hello,
            Err(err) => return refuse(server, &stream, ErrorCode::Protocol, &err.to_string()),
        },
        Ok((ty, _)) => {
            let msg = format!("expected HELLO, got {ty:?}");
            return refuse(server, &stream, ErrorCode::Protocol, &msg);
        }
        Err(FrameError::Io(err)) => return Err(err),
        Err(err) => return refuse(server, &stream, ErrorCode::Protocol, &err.to_string()),
    };
    if hello.version != WIRE_VERSION {
        let msg = format!(
            "unsupported protocol version {} (server speaks {WIRE_VERSION})",
            hello.version
        );
        return refuse(server, &stream, ErrorCode::Protocol, &msg);
    }
    if hello.auth_token != server.config.auth_token {
        return refuse(server, &stream, ErrorCode::Auth, "authentication failed");
    }
    let budget = hello.budget_bytes as usize;
    let total = server.service.config().total_budget_bytes;
    if budget > total {
        // The same typed rejection (and exact message) in-process admission
        // gives — it just rides an ERROR frame here.
        let err = Error::OverBudget {
            requested_bytes: budget,
            total_bytes: total,
        };
        return refuse(server, &stream, ErrorCode::OverBudget, &err.to_string());
    }
    let window = hello.window.clamp(1, server.config.max_window.max(1));
    write_frame(
        &mut stream,
        FrameType::HelloOk,
        &encode_hello_ok(WIRE_VERSION, window),
    )?;

    let session = server.service.session(budget);
    let cancel = session.cancel_token();
    let conn = ConnShared::new(window);
    let writer = Arc::new(Mutex::new(stream.try_clone()?));

    let reader = {
        let server = Arc::clone(server);
        let conn = Arc::clone(&conn);
        let writer = Arc::clone(&writer);
        let cancel = cancel.clone();
        std::thread::Builder::new()
            .name("wire-read".into())
            .spawn(move || reader_loop(&server, &conn, stream, &writer, &cancel))?
    };

    executor_loop(server, &session, &conn, &writer);

    // Whatever ended the loop: return the budget now, stop the reader, join.
    session.close();
    conn.kill(&cancel);
    let _ = writer.lock().expect("wire writer").shutdown(Shutdown::Both);
    let _ = reader.join();
    Ok(())
}

/// Refuse the handshake with a typed error frame and close the connection.
fn refuse(
    server: &ServerShared,
    mut stream: &TcpStream,
    code: ErrorCode,
    message: &str,
) -> io::Result<()> {
    if code == ErrorCode::Protocol {
        server.protocol_errors.fetch_add(1, Ordering::Relaxed);
    }
    write_frame(&mut stream, FrameType::Error, &encode_error(code, message))
}

// ------------------------------------------------------------------ executor

fn executor_loop(
    server: &ServerShared,
    session: &Session<'_>,
    conn: &ConnShared,
    writer: &Mutex<TcpStream>,
) {
    loop {
        let command = {
            let mut state = conn.lock();
            loop {
                if state.dead {
                    return;
                }
                if let Some(command) = state.queue.pop_front() {
                    state.running = true;
                    break command;
                }
                state = conn.cond.wait(state).expect("wire conn state");
            }
        };
        let alive = match command {
            Command::Goodbye => false,
            Command::Query {
                kind,
                text,
                pre_cancelled,
            } => {
                server.queries.fetch_add(1, Ordering::Relaxed);
                run_query(server, session, conn, writer, kind, &text, pre_cancelled)
            }
        };
        {
            let mut state = conn.lock();
            state.running = false;
            if !alive {
                state.dead = true;
            }
        }
        conn.cond.notify_all();
        if !alive {
            return;
        }
    }
}

/// Run one query and stream its result frames. Returns whether the connection
/// is still usable (query-level errors are answered and keep it alive;
/// transport failures and disconnects do not).
fn run_query(
    server: &ServerShared,
    session: &Session<'_>,
    conn: &ConnShared,
    writer: &Mutex<TcpStream>,
    kind: QueryKind,
    text: &str,
    pre_cancelled: bool,
) -> bool {
    // Each query starts with a full window; CREDIT frames replenish it as the
    // client consumes batches.
    conn.lock().credits = conn.window;
    let result = match kind {
        QueryKind::Sql => session.sql(text),
        QueryKind::Ir => session.query_ir(text),
    };
    let mut stream = match result {
        Ok(stream) => stream,
        Err(err) => return send_service_error(writer, &err),
    };
    if pre_cancelled {
        // The CANCEL outran the query's start (which re-armed the token):
        // re-raise it so the first pull reports Error::Cancelled.
        session.cancel_token().cancel();
    }
    if !send(
        writer,
        FrameType::ResultSchema,
        &encode_schema(stream.output_types()),
    ) {
        return false;
    }
    let mut batches = 0u32;
    loop {
        // Flow control: block until the client has window room. A CANCEL (or
        // a dead connection) wakes us; the cancelled pull below then reports
        // Error::Cancelled after the scan workers joined.
        {
            let mut state = conn.lock();
            while state.credits == 0 && !state.dead && !session.cancel_token().is_cancelled() {
                state = conn.cond.wait(state).expect("wire conn state");
            }
            if state.dead {
                // Dropping the stream cancels + joins the scan workers.
                return false;
            }
        }
        match stream.next_batch() {
            Ok(Some(batch)) => {
                {
                    let mut state = conn.lock();
                    state.credits = state.credits.saturating_sub(1);
                    let unacked = conn.window.saturating_sub(state.credits);
                    server.peak_unacked.fetch_max(unacked, Ordering::Relaxed);
                }
                batches += 1;
                if !send(writer, FrameType::ResultBatch, &encode_batch(&batch)) {
                    return false;
                }
            }
            Ok(None) => {
                let done = encode_done(stream.rows_yielded(), batches);
                return send(writer, FrameType::ResultDone, &done);
            }
            Err(err) => return send_service_error(writer, &err),
        }
    }
}

fn send(writer: &Mutex<TcpStream>, ty: FrameType, payload: &[u8]) -> bool {
    let mut stream = writer.lock().expect("wire writer");
    write_frame(&mut *stream, ty, payload).is_ok()
}

/// Answer a failed query with its typed error frame: the wire code from
/// [`ErrorCode::of_error`], the message the error's pinned `Display`.
fn send_service_error(writer: &Mutex<TcpStream>, err: &Error) -> bool {
    send(
        writer,
        FrameType::Error,
        &encode_error(ErrorCode::of_error(err), &err.to_string()),
    )
}

// -------------------------------------------------------------------- reader

/// The reader thread: parses client frames until the connection dies. Runs
/// with a short read timeout so it can account idle time and observe the
/// drain flag even when the client sends nothing.
fn reader_loop(
    server: &ServerShared,
    conn: &ConnShared,
    stream: TcpStream,
    writer: &Mutex<TcpStream>,
    cancel: &CancelToken,
) {
    let _ = stream.set_read_timeout(Some(READ_TICK));
    // A peer may stall mid-frame for at most the idle timeout before we treat
    // the connection as dead.
    let max_stalls =
        (server.config.idle_timeout.as_millis() / READ_TICK.as_millis().max(1)).max(1) as u32;
    let mut idle = Duration::ZERO;
    loop {
        if conn.lock().dead {
            return;
        }
        let mut ticked = TickedReader {
            stream: &stream,
            started: false,
            stalls: 0,
            max_stalls,
        };
        match read_frame(&mut ticked) {
            Ok((ty, payload)) => {
                idle = Duration::ZERO;
                match ty {
                    FrameType::Query => match decode_query(&payload) {
                        Ok((kind, text)) => {
                            let mut state = conn.lock();
                            state.queue.push_back(Command::Query {
                                kind,
                                text,
                                pre_cancelled: false,
                            });
                            drop(state);
                            conn.cond.notify_all();
                        }
                        Err(err) => return protocol_violation(server, conn, writer, cancel, &err),
                    },
                    FrameType::Cancel => {
                        // Out of band: stop the in-flight query at its next
                        // morsel boundary, even while the executor streams. A
                        // cancel that arrives while its query is still queued
                        // is pinned to that query instead (raising the token
                        // now would be erased by the query's start re-arm).
                        let mut state = conn.lock();
                        let running = state.running;
                        match state.queue.back_mut() {
                            Some(Command::Query { pre_cancelled, .. }) if !running => {
                                *pre_cancelled = true;
                            }
                            _ => cancel.cancel(),
                        }
                        drop(state);
                        conn.cond.notify_all();
                    }
                    FrameType::Credit => match decode_credit(&payload) {
                        Ok(n) => {
                            let mut state = conn.lock();
                            // Capped at the window: a pipelining client's credits
                            // for a finished query's batches may land after the
                            // next query refilled it.
                            state.credits = state.credits.saturating_add(n).min(conn.window);
                            drop(state);
                            conn.cond.notify_all();
                        }
                        Err(err) => return protocol_violation(server, conn, writer, cancel, &err),
                    },
                    FrameType::Goodbye => {
                        let mut state = conn.lock();
                        state.queue.push_back(Command::Goodbye);
                        drop(state);
                        conn.cond.notify_all();
                        return;
                    }
                    other => {
                        let msg = format!("unexpected {other:?} frame");
                        send_protocol_error(server, writer, &msg);
                        conn.kill(cancel);
                        return;
                    }
                }
            }
            Err(FrameError::Io(err))
                if matches!(err.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) =>
            {
                // Idle tick: no frame started within the read timeout.
                let (running, draining) = {
                    let state = conn.lock();
                    (
                        state.running || !state.queue.is_empty(),
                        server.draining.load(Ordering::Acquire),
                    )
                };
                if running {
                    idle = Duration::ZERO;
                    continue;
                }
                if draining {
                    conn.kill(cancel);
                    return;
                }
                idle += READ_TICK;
                if idle >= server.config.idle_timeout {
                    conn.kill(cancel);
                    return;
                }
            }
            Err(FrameError::Io(_)) => {
                // Disconnect (EOF, reset, mid-frame stall limit): cancel the
                // in-flight query; the executor closes the session, which
                // returns the budget.
                conn.kill(cancel);
                return;
            }
            Err(err) => return protocol_violation(server, conn, writer, cancel, &err),
        }
    }
}

/// Answer a malformed frame with a `PROTOCOL` error frame and kill the
/// connection (the stream may be desynchronized, so it cannot continue).
fn protocol_violation(
    server: &ServerShared,
    conn: &ConnShared,
    writer: &Mutex<TcpStream>,
    cancel: &CancelToken,
    err: &FrameError,
) {
    send_protocol_error(server, writer, &err.to_string());
    conn.kill(cancel);
}

fn send_protocol_error(server: &ServerShared, writer: &Mutex<TcpStream>, message: &str) {
    server.protocol_errors.fetch_add(1, Ordering::Relaxed);
    let _ = send(
        writer,
        FrameType::Error,
        &encode_error(ErrorCode::Protocol, message),
    );
}

/// A read adapter over the reader's ticked socket: a timeout **before** a
/// frame's first byte surfaces as `WouldBlock` (an idle tick for the caller),
/// but a timeout **mid-frame** retries — a frame fragmented across TCP
/// segments must not be torn by the tick — up to `max_stalls` consecutive
/// stalls, after which the peer is considered gone.
struct TickedReader<'a> {
    stream: &'a TcpStream,
    started: bool,
    stalls: u32,
    max_stalls: u32,
}

impl Read for TickedReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        loop {
            match (&mut self.stream).read(buf) {
                Ok(n) => {
                    self.started = true;
                    self.stalls = 0;
                    return Ok(n);
                }
                Err(err)
                    if matches!(err.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)
                        && self.started =>
                {
                    self.stalls += 1;
                    if self.stalls > self.max_stalls {
                        return Err(io::Error::new(
                            ErrorKind::TimedOut,
                            "peer stalled mid-frame",
                        ));
                    }
                }
                Err(err) => return Err(err),
            }
        }
    }
}
