//! Pull-based query results: a [`QueryStream`] yields the result **in
//! batches**, as execution produces them, instead of one materialised
//! [`Batch`].
//!
//! This is the execution shape a network service needs — the wire server
//! drains a stream into result frames, so a slow client backpressures the
//! scan's bounded reorder channel instead of forcing the server to buffer the
//! whole relation. In-process callers that want the old behaviour call
//! [`QueryStream::collect`].
//!
//! The stream owns everything its query needs to finish or die cleanly:
//!
//! * the instantiated operator tree (borrowing only the database);
//! * the session's [`CancelToken`], installed around every pull so the
//!   morsel-boundary cancellation checks in `exec` observe it;
//! * the admission grant of a service session — returned to the pool when
//!   the stream finishes, errors, is cancelled, or is dropped (idempotently,
//!   so a [`Session::close`](crate::Session::close) force-release may race a
//!   drop without double-counting).
//!
//! A pull is [`exec::Operator::next_batch`] on the tree's root, and the tree's
//! [`exec::Error`] converts variant for variant into [`Error`]
//! ([`Error::Cancelled`], [`Error::ColdRead`] with the block's position). Around
//! that pull sits one unwind barrier, a fault barrier and nothing more: a plan
//! can still reach a panic (a hand-built [`crate::PhysicalPlan`] whose declared
//! types do not fit its values, integer overflow in a debug build), one query
//! doing so must not take down a server thread with its budget granted, and
//! whatever is caught is reported as [`Error::Io`] carrying the panic's message.
//! Errors are terminal: a stream that reported one is exhausted.

use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;

use datablocks::DataType;
use exec::{cancel, Batch, BoxedOperator, CancelToken};

use crate::service::{Error, Grant};

/// A running query: an iterator of result [`Batch`]es in deterministic
/// (serial-scan) order, plus the output schema. Obtained from
/// [`Session::sql`](crate::Session::sql) and friends.
///
/// Dropping the stream before exhaustion cancels and joins any parallel scan
/// workers (the existing early-drop path) and releases the admission grant.
pub struct QueryStream<'db> {
    /// `None` once the stream finished, failed, or was cancelled.
    op: Option<BoxedOperator<'db>>,
    types: Vec<DataType>,
    cancel: CancelToken,
    grant: Option<Arc<Grant>>,
    /// Total rows yielded so far (final once the stream is exhausted).
    rows: u64,
}

impl<'db> QueryStream<'db> {
    pub(crate) fn new(
        op: BoxedOperator<'db>,
        types: Vec<DataType>,
        grant: Option<Arc<Grant>>,
        cancel: CancelToken,
    ) -> QueryStream<'db> {
        QueryStream {
            op: Some(op),
            types,
            cancel,
            grant,
            rows: 0,
        }
    }

    /// Column types of the stream's batches (available before the first pull).
    pub fn output_types(&self) -> &[DataType] {
        &self.types
    }

    /// The cancel token observed by this stream's pulls — the same token as
    /// [`Session::cancel_token`](crate::Session::cancel_token).
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// Rows yielded so far.
    pub fn rows_yielded(&self) -> u64 {
        self.rows
    }

    /// Pull the next result batch. `Ok(None)` once the query is complete (at
    /// which point the admission grant has been released); an `Err` is
    /// terminal — the workers are already joined and the grant released.
    ///
    /// Empty batches are never yielded.
    pub fn next_batch(&mut self) -> Result<Option<Batch>, Error> {
        loop {
            let Some(op) = self.op.as_mut() else {
                return Ok(None);
            };
            if self.cancel.is_cancelled() {
                // Dropping the tree cancels + joins streaming workers before
                // we report, so no worker outlives the cancellation.
                self.finish();
                return Err(Error::Cancelled);
            }
            let cancel = &self.cancel;
            let pulled = panic::catch_unwind(AssertUnwindSafe(|| {
                cancel::scoped(cancel, || op.next_batch())
            }))
            .map(|pulled| pulled.map_err(Error::from))
            .unwrap_or_else(|payload| Err(Error::Io(panic_message(payload))));
            match pulled {
                Ok(Some(batch)) if batch.is_empty() => continue,
                Ok(Some(batch)) => {
                    self.rows += batch.len() as u64;
                    return Ok(Some(batch));
                }
                end => {
                    self.finish();
                    return end;
                }
            }
        }
    }

    /// Drain the stream into one materialised [`Batch`] — the pre-streaming
    /// `Session` behaviour, kept as a convenience for tests, benches and
    /// small results.
    pub fn collect(mut self) -> Result<Batch, Error> {
        let types = self.types.clone();
        let mut out = Batch::new(&types);
        while let Some(batch) = self.next_batch()? {
            debug_assert_eq!(batch.types(), types, "stream batch schema drift");
            out.append(&batch);
        }
        Ok(out)
    }

    /// Drop the operator tree (joining any workers) and release the grant.
    fn finish(&mut self) {
        self.op = None;
        if let Some(grant) = self.grant.take() {
            grant.release();
        }
    }
}

impl std::fmt::Debug for QueryStream<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryStream")
            .field("types", &self.types)
            .field("rows_yielded", &self.rows)
            .field("exhausted", &self.op.is_none())
            .finish()
    }
}

impl Iterator for QueryStream<'_> {
    type Item = Result<Batch, Error>;

    /// Iterator view: `Some(Err(_))` exactly once on failure, then `None`.
    fn next(&mut self) -> Option<Result<Batch, Error>> {
        self.next_batch().transpose()
    }
}

/// The message of a panic the fault barrier caught.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| payload.downcast_ref::<&str>().copied())
        .unwrap_or("query execution panicked")
        .to_string()
}

#[cfg(test)]
mod tests {
    use datablocks::Value;
    use storage::{ColumnDef, Database, Schema};

    use crate::{Connect, Error};

    fn db_with_rows(rows: i64) -> Database {
        let mut db = Database::new();
        let rel = db.create_relation(
            "t",
            Schema::new(vec![ColumnDef::new("a", datablocks::DataType::Int)]),
        );
        for i in 0..rows {
            rel.insert(vec![Value::Int(i)]);
        }
        db.freeze_all();
        db
    }

    #[test]
    fn stream_batches_concatenate_to_collect() {
        let db = db_with_rows(20_000);
        let session = db.connect();
        let reference = session.sql("SELECT a FROM t").unwrap().collect().unwrap();
        let mut stream = session.sql("SELECT a FROM t").unwrap();
        assert_eq!(stream.output_types(), reference.types().as_slice());
        let mut rebuilt = exec::Batch::new(&reference.types());
        let mut batches = 0usize;
        while let Some(batch) = stream.next_batch().unwrap() {
            assert!(!batch.is_empty(), "streams never yield empty batches");
            rebuilt.append(&batch);
            batches += 1;
        }
        assert!(batches > 1, "20k rows must stream in multiple batches");
        assert_eq!(stream.rows_yielded(), reference.len() as u64);
        assert_eq!(rebuilt.len(), reference.len());
        for row in 0..reference.len() {
            assert_eq!(rebuilt.row(row), reference.row(row));
        }
    }

    #[test]
    fn cancelled_token_surfaces_as_cancelled_error() {
        let db = db_with_rows(1_000);
        let session = db.connect();
        let mut stream = session.sql("SELECT a FROM t").unwrap();
        stream.cancel_token().cancel();
        match stream.next_batch() {
            Err(Error::Cancelled) => {}
            other => panic!("expected Cancelled, got {other:?}"),
        }
        // Terminal: the stream is exhausted afterwards.
        assert!(matches!(stream.next_batch(), Ok(None)));
    }

    #[test]
    fn iterator_yields_error_once_then_ends() {
        let db = db_with_rows(1_000);
        let session = db.connect();
        let mut stream = session.sql("SELECT a FROM t").unwrap();
        session.cancel_token().cancel();
        assert!(matches!(stream.next(), Some(Err(Error::Cancelled))));
        assert!(stream.next().is_none());
    }
}
