//! # net — the query service's wire protocol
//!
//! A dependency-free (`std::net`) TCP front end over the multi-tenant
//! [`QueryService`](crate::QueryService), plus the matching blocking client.
//! The protocol is framed, checksummed, versioned, and credit-flow-controlled;
//! its normative byte-level specification lives in `crates/query/README.md`
//! (§ "Wire protocol") — [`frame`] implements it, [`server`] and [`client`]
//! speak it.
//!
//! Design goals, in order:
//!
//! 1. **Streaming, bounded memory.** Results travel as `RESULT_BATCH` frames
//!    as execution produces them. The server never buffers more than the
//!    connection's credit *window* of un-consumed batches: a slow client
//!    backpressures the executor, which backpressures the scan's bounded
//!    reorder channel. Server-side buffering is O(window), not O(result).
//! 2. **Out-of-band cancellation.** A `CANCEL` frame is handled by the
//!    connection's reader thread while the executor streams, raising the
//!    session's [`CancelToken`](crate::CancelToken); morsel workers stop at
//!    their next boundary and the client receives the typed `CANCELLED`
//!    error frame. The connection survives and can run the next query.
//! 3. **Typed errors, same taxonomy.** Error frames carry an [`ErrorCode`]
//!    mapping 1:1 onto [`crate::Error`] (plus `AUTH` and `PROTOCOL` for
//!    connection-level failures) and the error's pinned `Display` message —
//!    a wire client sees byte-identical error text to an in-process caller.
//! 4. **Robustness.** Every frame is length-prefixed (with a hard 16 MiB
//!    cap checked before allocation) and XXH64-checksummed. Malformed input
//!    kills one connection with a loud `PROTOCOL` error frame, never the
//!    server. Disconnects — mid-stream or idle — close the session, which
//!    deterministically returns its admission budget to the pool.
//!
//! ```no_run
//! use std::sync::Arc;
//! use query::net::{ClientConfig, WireClient, WireConfig, WireServer};
//! use query::{QueryService, ServiceConfig};
//! # fn db() -> storage::Database { unimplemented!() }
//!
//! let service = Arc::new(QueryService::new(
//!     Arc::new(db()),
//!     exec::ScanConfig::default(),
//!     ServiceConfig::default(),
//! ));
//! let server = WireServer::serve(service, "127.0.0.1:0", WireConfig::default()).unwrap();
//!
//! let mut client = WireClient::connect(server.local_addr(), &ClientConfig::default()).unwrap();
//! let mut stream = client.query_sql("SELECT count(*) FROM t").unwrap();
//! while let Some(batch) = stream.next_batch().unwrap() {
//!     println!("{} rows", batch.len());
//! }
//! server.shutdown();
//! ```

pub mod client;
pub mod frame;
pub mod server;

pub use client::{Canceller, ClientConfig, ClientError, RemoteStream, WireClient};
pub use frame::{ErrorCode, FrameError, FrameType, QueryKind, MAX_FRAME_PAYLOAD, WIRE_VERSION};
pub use server::{WireConfig, WireServer, WireServerStats};
