//! The blocking wire client: connect, run queries, pull result batches, and
//! cancel from another thread.
//!
//! [`WireClient::connect`] performs the handshake (version, auth token,
//! session budget, requested credit window) and returns a connected client.
//! [`WireClient::query_sql`] / [`WireClient::query_ir`] send a query and
//! return a [`RemoteStream`] — the wire twin of the in-process
//! [`QueryStream`](crate::QueryStream): pull batches with
//! [`RemoteStream::next_batch`], or materialise with
//! [`RemoteStream::collect`]. Each consumed batch returns one flow-control
//! credit to the server, so a client that pulls slowly bounds what the server
//! may buffer ahead.
//!
//! [`WireClient::canceller`] hands out a [`Canceller`] — a cheap clone of the
//! connection's write half that any thread may use to send the out-of-band
//! `CANCEL` frame while the owning thread is blocked pulling batches. The
//! stream then terminates with the server's `CANCELLED` error frame (whose
//! message is the pinned `"query cancelled"` rendering).
//!
//! A [`RemoteStream`] dropped before its terminal frame leaves result frames
//! in flight, so the connection is poisoned: further queries fail with
//! [`ClientError::Poisoned`] and the socket is closed without `GOODBYE` on
//! drop. Drain a stream (to `Ok(None)` or an error) to keep the connection
//! reusable.

use std::io::{self, Write};
use std::net::{Shutdown, TcpStream, ToSocketAddrs};
use std::sync::{Arc, Mutex};

use datablocks::DataType;
use exec::Batch;

use super::frame::{
    decode_batch, decode_done, decode_error, decode_hello_ok, decode_schema, encode_credit,
    encode_hello, encode_query, read_frame, write_frame, ErrorCode, FrameError, FrameType, Hello,
    QueryKind, WIRE_VERSION,
};

/// What a client presents (and requests) at handshake time.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Auth token; must match the server's
    /// [`WireConfig::auth_token`](super::WireConfig::auth_token).
    pub auth_token: String,
    /// Memory budget the session's queries request from the service pool.
    /// A budget larger than the pool is refused at the handshake.
    pub budget_bytes: u64,
    /// Requested credit window (the server may grant less; see
    /// [`WireClient::window`]).
    pub window: u32,
}

impl Default for ClientConfig {
    fn default() -> ClientConfig {
        ClientConfig {
            auth_token: String::new(),
            budget_bytes: 32 << 20,
            window: 4,
        }
    }
}

/// Everything that can go wrong on the client side of the wire.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure (connect, read, write, hangup).
    Io(io::Error),
    /// A received frame failed to parse or verify.
    Frame(FrameError),
    /// The server answered with a typed `ERROR` frame. For service errors
    /// the message is the pinned `Display` rendering of the corresponding
    /// [`crate::Error`] (so `code == Cancelled` comes with
    /// `"query cancelled"`).
    Remote {
        /// The wire error code.
        code: ErrorCode,
        /// The server's error message.
        message: String,
    },
    /// The server sent a frame this connection state does not allow.
    Protocol(String),
    /// A previous [`RemoteStream`] was dropped before its terminal frame;
    /// the connection cannot be resynchronized.
    Poisoned,
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(err) => write!(f, "wire i/o error: {err}"),
            ClientError::Frame(err) => write!(f, "wire frame error: {err}"),
            ClientError::Remote { code, message } => {
                write!(f, "server error ({code:?}): {message}")
            }
            ClientError::Protocol(detail) => write!(f, "wire protocol error: {detail}"),
            ClientError::Poisoned => {
                write!(f, "connection poisoned by an undrained result stream")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(err: io::Error) -> ClientError {
        ClientError::Io(err)
    }
}

impl From<FrameError> for ClientError {
    fn from(err: FrameError) -> ClientError {
        match err {
            FrameError::Io(err) => ClientError::Io(err),
            other => ClientError::Frame(other),
        }
    }
}

/// A connected wire session: one server connection, one query at a time.
pub struct WireClient {
    reader: TcpStream,
    writer: Arc<Mutex<TcpStream>>,
    window: u32,
    poisoned: bool,
}

impl WireClient {
    /// Connect and perform the handshake. A refused handshake (wrong version,
    /// bad token, over-budget) surfaces as [`ClientError::Remote`] with the
    /// server's typed error frame.
    pub fn connect(
        addr: impl ToSocketAddrs,
        config: &ClientConfig,
    ) -> Result<WireClient, ClientError> {
        let mut stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        let hello = Hello {
            version: WIRE_VERSION,
            budget_bytes: config.budget_bytes,
            window: config.window,
            auth_token: config.auth_token.clone(),
        };
        write_frame(&mut stream, FrameType::Hello, &encode_hello(&hello))?;
        let (ty, payload) = read_frame(&mut stream)?;
        let window = match ty {
            FrameType::HelloOk => {
                let (version, window) = decode_hello_ok(&payload)?;
                if version != WIRE_VERSION {
                    return Err(ClientError::Protocol(format!(
                        "server speaks protocol version {version}, client speaks {WIRE_VERSION}"
                    )));
                }
                window
            }
            FrameType::Error => {
                let (code, message) = decode_error(&payload)?;
                return Err(ClientError::Remote { code, message });
            }
            other => {
                return Err(ClientError::Protocol(format!(
                    "expected HELLO_OK, got {other:?}"
                )))
            }
        };
        let writer = Arc::new(Mutex::new(stream.try_clone()?));
        Ok(WireClient {
            reader: stream,
            writer,
            window,
            poisoned: false,
        })
    }

    /// The credit window the server granted (≤ the requested window): the
    /// most result batches the server will send ahead of this client's
    /// consumption.
    pub fn window(&self) -> u32 {
        self.window
    }

    /// Run a SQL query; stream the result.
    pub fn query_sql(&mut self, sql: &str) -> Result<RemoteStream<'_>, ClientError> {
        self.query(QueryKind::Sql, sql)
    }

    /// Run a JSON-IR query; stream the result.
    pub fn query_ir(&mut self, ir: &str) -> Result<RemoteStream<'_>, ClientError> {
        self.query(QueryKind::Ir, ir)
    }

    fn query(&mut self, kind: QueryKind, text: &str) -> Result<RemoteStream<'_>, ClientError> {
        if self.poisoned {
            return Err(ClientError::Poisoned);
        }
        self.send(FrameType::Query, &encode_query(kind, text))?;
        // The first frame of a query's response is its schema — or the typed
        // error that prevented it from starting (parse, plan, admission).
        let (ty, payload) = read_frame(&mut self.reader)?;
        match ty {
            FrameType::ResultSchema => {
                let types = decode_schema(&payload)?;
                Ok(RemoteStream {
                    client: self,
                    types,
                    rows: 0,
                    batches: 0,
                    done: false,
                })
            }
            FrameType::Error => {
                let (code, message) = decode_error(&payload)?;
                Err(ClientError::Remote { code, message })
            }
            other => {
                self.poisoned = true;
                Err(ClientError::Protocol(format!(
                    "expected RESULT_SCHEMA or ERROR, got {other:?}"
                )))
            }
        }
    }

    /// A handle that can send the out-of-band `CANCEL` frame from any thread
    /// — including while this client is blocked in
    /// [`RemoteStream::next_batch`].
    pub fn canceller(&self) -> Canceller {
        Canceller {
            writer: Arc::clone(&self.writer),
        }
    }

    fn send(&self, ty: FrameType, payload: &[u8]) -> Result<(), ClientError> {
        let mut stream = self.writer.lock().expect("wire client writer");
        Ok(write_frame(&mut *stream, ty, payload)?)
    }

    /// Send raw bytes down the connection — deliberately bypassing the frame
    /// codec. This exists for protocol-robustness tests (malformed magic,
    /// corrupt checksums, oversized lengths); a well-behaved client never
    /// needs it.
    pub fn send_raw(&self, bytes: &[u8]) -> Result<(), ClientError> {
        let mut stream = self.writer.lock().expect("wire client writer");
        stream.write_all(bytes)?;
        stream.flush()?;
        Ok(())
    }

    /// Read the next raw frame off the connection — for tests asserting on
    /// the server's error frames after [`WireClient::send_raw`]. Poisons the
    /// client for further queries.
    pub fn read_raw_frame(&mut self) -> Result<(FrameType, Vec<u8>), ClientError> {
        self.poisoned = true;
        Ok(read_frame(&mut self.reader)?)
    }
}

impl std::fmt::Debug for WireClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WireClient")
            .field("window", &self.window)
            .field("poisoned", &self.poisoned)
            .finish_non_exhaustive()
    }
}

impl Drop for WireClient {
    fn drop(&mut self) {
        // A clean goodbye lets the server drain deterministically; a poisoned
        // connection just hangs up (the server treats EOF as a disconnect and
        // reclaims the session budget either way).
        if !self.poisoned {
            let _ = self.send(FrameType::Goodbye, &[]);
        }
        let _ = self.reader.shutdown(Shutdown::Both);
    }
}

/// A cloneable handle for the out-of-band `CANCEL` frame.
#[derive(Clone)]
pub struct Canceller {
    writer: Arc<Mutex<TcpStream>>,
}

impl Canceller {
    /// Ask the server to cancel the connection's in-flight query. The running
    /// [`RemoteStream`] then terminates with a `CANCELLED` error frame (unless
    /// the query finished first). Errors are ignored — a cancel racing a
    /// closed connection is moot.
    pub fn cancel(&self) {
        let mut stream = self.writer.lock().expect("wire client writer");
        let _ = write_frame(&mut *stream, FrameType::Cancel, &[]);
    }
}

/// A streaming query result arriving over the wire. Pull with
/// [`RemoteStream::next_batch`]; every consumed batch is credited back to the
/// server, re-opening its flow-control window.
pub struct RemoteStream<'a> {
    client: &'a mut WireClient,
    types: Vec<DataType>,
    rows: u64,
    batches: u32,
    done: bool,
}

impl RemoteStream<'_> {
    /// Column types of the stream's batches (from the `RESULT_SCHEMA` frame).
    pub fn output_types(&self) -> &[DataType] {
        &self.types
    }

    /// Pull the next batch. `Ok(None)` once the query completed (the server's
    /// `RESULT_DONE` totals are verified against what was received); an `Err`
    /// is terminal. Server-side failures — including cancellation — arrive as
    /// [`ClientError::Remote`].
    pub fn next_batch(&mut self) -> Result<Option<Batch>, ClientError> {
        if self.done {
            return Ok(None);
        }
        let (ty, payload) = match read_frame(&mut self.client.reader) {
            Ok(frame) => frame,
            Err(err) => {
                self.done = true;
                self.client.poisoned = true;
                return Err(err.into());
            }
        };
        match ty {
            FrameType::ResultBatch => {
                let batch = decode_batch(&payload, &self.types)?;
                self.rows += batch.len() as u64;
                self.batches += 1;
                // Credit the batch back immediately: this client's window
                // re-opens as fast as it pulls.
                self.client.send(FrameType::Credit, &encode_credit(1))?;
                Ok(Some(batch))
            }
            FrameType::ResultDone => {
                self.done = true;
                let (rows, batches) = decode_done(&payload)?;
                if rows != self.rows || batches != self.batches {
                    self.client.poisoned = true;
                    return Err(ClientError::Protocol(format!(
                        "RESULT_DONE says {rows} rows / {batches} batches, received {} / {}",
                        self.rows, self.batches
                    )));
                }
                Ok(None)
            }
            FrameType::Error => {
                self.done = true;
                let (code, message) = decode_error(&payload)?;
                Err(ClientError::Remote { code, message })
            }
            other => {
                self.done = true;
                self.client.poisoned = true;
                Err(ClientError::Protocol(format!(
                    "expected a result frame, got {other:?}"
                )))
            }
        }
    }

    /// Drain the stream into one materialised [`Batch`].
    pub fn collect(mut self) -> Result<Batch, ClientError> {
        let mut out = Batch::new(&self.types.clone());
        while let Some(batch) = self.next_batch()? {
            out.append(&batch);
        }
        Ok(out)
    }
}

impl Drop for RemoteStream<'_> {
    fn drop(&mut self) {
        if !self.done {
            // Result frames are still in flight; the connection cannot serve
            // another query.
            self.client.poisoned = true;
        }
    }
}

impl Iterator for RemoteStream<'_> {
    type Item = Result<Batch, ClientError>;

    /// Iterator view: `Some(Err(_))` exactly once on failure, then `None`.
    fn next(&mut self) -> Option<Result<Batch, ClientError>> {
        self.next_batch().transpose()
    }
}
