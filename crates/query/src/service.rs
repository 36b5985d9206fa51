//! The query service: one entry point for every query surface, plus
//! multi-tenant admission control.
//!
//! [`Session`] is the single documented way to run a query — SQL text
//! ([`Session::sql`]), a JSON-IR document ([`Session::query_ir`]), or a
//! pre-built [`PhysicalPlan`] ([`Session::execute_plan`]) all go through it.
//! A stand-alone session borrows a database via [`Connect::connect`]
//! (`db.connect()`); a multi-tenant session comes from
//! [`QueryService::session`] and additionally participates in admission
//! control:
//!
//! * at most [`ServiceConfig::max_concurrent`] queries run at once;
//! * each query runs under the session's declared memory budget, granted from
//!   the shared [`ServiceConfig::total_budget_bytes`] pool **before** the
//!   query starts and returned when it finishes. Admission is FIFO: a query
//!   whose budget does not currently fit waits at the head of the queue (no
//!   overtaking, so no starvation), and a budget larger than the whole pool is
//!   rejected immediately with [`Error::OverBudget`] — it can never be
//!   admitted, so queueing it would deadlock the queue head.
//! * the granted budget derives the query's back-pressure: the scan's
//!   reorder-channel capacity is `clamp(budget / 1 MiB, 1, 2 × workers + 2)`
//!   batches, so a small budget bounds how much decompressed data a parallel
//!   scan keeps in flight. The block-cache half of the budget is derived once
//!   per database with [`derive_spill_policy`].
//!
//! Every failure surfaces as the unified [`Error`] with a stable `Display`
//! rendering — parse/plan errors keep their 1-based line/column positions, an
//! [`exec::Error`] returned by the operator tree keeps its variant (a cold-read
//! failure its block's on-disk position), and admission rejections name both
//! the requested and the available budget.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, Weak};

use exec::{morsel, CancelToken, ScanConfig};
use storage::{blockstore::SpillPolicy, ColdReadError, Database};

use crate::error::IrError;
use crate::planner::{PhysicalPlan, Planner};
use crate::sql::parse_sql;
use crate::stream::QueryStream;
use crate::{parse_ir, QueryIr};

/// Bytes of budget that buy one in-flight batch slot in the scan's reorder
/// channel (a decompressed Data Block batch is on this order of magnitude).
const CHANNEL_SLOT_BYTES: usize = 1 << 20;

// ------------------------------------------------------------------ error type

/// The unified error of the query service: everything that can go wrong
/// between query text and result batch, with a stable `Display` rendering.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// Parse / schema / planning failure (positioned; renders as the
    /// underlying [`IrError`], e.g. `syntax error at line 1, column 8: ...`).
    Query(IrError),
    /// A cold block could not be read back from the spill store during
    /// execution; carries the block's id, generation and byte offset. Renders
    /// as `cold read error: <the ColdReadError>`.
    ColdRead(ColdReadError),
    /// Admission rejected the query because its budget can never be granted.
    /// Renders as `admission error: query budget N bytes exceeds the service
    /// budget M bytes`.
    OverBudget {
        /// The budget the session asked for.
        requested_bytes: usize,
        /// The service's whole budget pool.
        total_bytes: usize,
    },
    /// The query was cancelled cooperatively — the session's
    /// [`CancelToken`] was raised (or the session was
    /// [closed](Session::close)) and the morsel workers stopped at their next
    /// boundary. Renders as `query cancelled`.
    Cancelled,
    /// Any other failure, I/O-flavoured or a panic the stream's fault barrier
    /// caught. Renders as `i/o error: <detail>`.
    Io(String),
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Query(err) => err.fmt(f),
            Error::ColdRead(err) => write!(f, "cold read error: {err}"),
            Error::OverBudget {
                requested_bytes,
                total_bytes,
            } => write!(
                f,
                "admission error: query budget {requested_bytes} bytes exceeds the service budget {total_bytes} bytes"
            ),
            Error::Cancelled => write!(f, "query cancelled"),
            Error::Io(detail) => write!(f, "i/o error: {detail}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Query(err) => Some(err),
            Error::ColdRead(err) => Some(err),
            _ => None,
        }
    }
}

impl From<IrError> for Error {
    fn from(err: IrError) -> Error {
        Error::Query(err)
    }
}

impl From<exec::Error> for Error {
    fn from(err: exec::Error) -> Error {
        match err {
            exec::Error::Cancelled => Error::Cancelled,
            exec::Error::ColdRead(err) => Error::ColdRead(err),
        }
    }
}

impl From<std::io::Error> for Error {
    fn from(err: std::io::Error) -> Error {
        Error::Io(err.to_string())
    }
}

// ------------------------------------------------------------------- sessions

/// The single entry point for running queries against a [`Database`].
///
/// Obtained from [`Connect::connect`] (stand-alone, borrowing the database) or
/// [`QueryService::session`] (shared database + admission control). All three
/// query surfaces go through it; results are identical across them because SQL
/// and JSON both lower to the same IR before planning.
pub struct Session<'db> {
    db: DbRef<'db>,
    config: ScanConfig,
    service: Option<ServiceHandle>,
    shared: Arc<SessionShared>,
}

/// State shared between a session, its in-flight [`QueryStream`]s, and any
/// thread holding the session's [`CancelToken`] — the pieces a network server
/// must reach from its reader thread while the executor is mid-query.
struct SessionShared {
    /// The session's cooperative cancel flag (see [`Session::cancel_token`]).
    cancel: CancelToken,
    /// Set by [`Session::close`]: the session admits no further queries.
    closed: AtomicBool,
    /// Admission grants of the session's in-flight queries. [`Session::close`]
    /// force-releases them so the service's budget pool recovers immediately
    /// on client disconnect, instead of waiting for stream drop order.
    grants: Mutex<Vec<Weak<Grant>>>,
}

impl SessionShared {
    fn new() -> Arc<SessionShared> {
        Arc::new(SessionShared {
            cancel: CancelToken::new(),
            closed: AtomicBool::new(false),
            grants: Mutex::new(Vec::new()),
        })
    }
}

enum DbRef<'db> {
    Borrowed(&'db Database),
    Shared(Arc<Database>),
}

impl DbRef<'_> {
    fn get(&self) -> &Database {
        match self {
            DbRef::Borrowed(db) => db,
            DbRef::Shared(db) => db,
        }
    }
}

struct ServiceHandle {
    admission: Arc<Admission>,
    budget_bytes: usize,
}

/// `Database::connect()` — the ergonomic way to a [`Session`].
pub trait Connect {
    /// Open a stand-alone session on this database (default [`ScanConfig`],
    /// no admission control; configure with [`Session::with_config`]).
    fn connect(&self) -> Session<'_>;
}

impl Connect for Database {
    fn connect(&self) -> Session<'_> {
        Session {
            db: DbRef::Borrowed(self),
            config: ScanConfig::default(),
            service: None,
            shared: SessionShared::new(),
        }
    }
}

impl<'db> Session<'db> {
    /// The same session with a different scan configuration (scan mode,
    /// worker threads, channel capacity).
    pub fn with_config(mut self, config: ScanConfig) -> Session<'db> {
        self.config = config;
        self
    }

    /// The scan configuration queries on this session plan against, after
    /// applying the session's budget derivation (if any).
    pub fn effective_config(&self) -> ScanConfig {
        let mut config = self.config;
        if let Some(service) = &self.service {
            let workers = morsel::effective_threads(config.threads);
            let default_cap = 2 * workers + 2;
            let slots = (service.budget_bytes / CHANNEL_SLOT_BYTES).max(1);
            config.channel_cap = slots.min(default_cap);
        }
        config
    }

    /// The database this session runs against.
    pub fn database(&self) -> &Database {
        self.db.get()
    }

    /// Parse SQL, plan it, and start executing it as a pull-based
    /// [`QueryStream`] (call [`QueryStream::collect`] for the materialised
    /// result). Admission (for service sessions) happens here, before the
    /// stream is returned.
    pub fn sql(&self, text: &str) -> Result<QueryStream<'_>, Error> {
        let ir = parse_sql(self.db.get(), text)?;
        self.run_ir(&ir)
    }

    /// Parse a JSON-IR document, plan it, and start executing it.
    pub fn query_ir(&self, text: &str) -> Result<QueryStream<'_>, Error> {
        let ir = parse_ir(text)?;
        self.run_ir(&ir)
    }

    /// Plan an already-parsed IR document and start executing it.
    pub fn run_ir(&self, ir: &QueryIr) -> Result<QueryStream<'_>, Error> {
        let plan = Planner::new(self.db.get(), self.effective_config()).plan(ir)?;
        self.start(&plan)
    }

    /// Lower SQL to a reusable [`PhysicalPlan`] (plan once, execute many).
    pub fn compile_sql(&self, text: &str) -> Result<PhysicalPlan, Error> {
        let ir = parse_sql(self.db.get(), text)?;
        Ok(Planner::new(self.db.get(), self.effective_config()).plan(&ir)?)
    }

    /// Lower a JSON-IR document to a reusable [`PhysicalPlan`].
    pub fn compile_ir(&self, text: &str) -> Result<PhysicalPlan, Error> {
        let ir = parse_ir(text)?;
        Ok(Planner::new(self.db.get(), self.effective_config()).plan(&ir)?)
    }

    /// Execute a pre-built plan as a [`QueryStream`]. The plan's
    /// reorder-channel capacity is overridden by the session's budget
    /// derivation; every other planning decision (thread count, operator
    /// choice) is the plan's own.
    pub fn execute_plan(&self, plan: &PhysicalPlan) -> Result<QueryStream<'_>, Error> {
        self.start(plan)
    }

    /// The session's cooperative cancel token. Raising it (from any thread —
    /// a network server's reader thread, a timeout watchdog, ...) stops the
    /// in-flight query at its next morsel boundary: the workers cancel and
    /// join, and the query's [`QueryStream`] reports [`Error::Cancelled`].
    /// Starting a new query re-arms the token, so a cancel aimed at a
    /// finished query does not poison the next one.
    pub fn cancel_token(&self) -> CancelToken {
        self.shared.cancel.clone()
    }

    /// Close the session: cancel the in-flight query (if any), release its
    /// admission grant back to the service pool **immediately** — without
    /// waiting for the [`QueryStream`] to be dropped — and refuse further
    /// queries (they return [`Error::Cancelled`]). Idempotent. This is how a
    /// network server returns a disconnected client's budget deterministically
    /// rather than depending on drop order.
    pub fn close(&self) {
        self.shared.closed.store(true, Ordering::Release);
        self.shared.cancel.cancel();
        let mut grants = self.shared.grants.lock().expect("session grants");
        for grant in grants.drain(..) {
            if let Some(grant) = grant.upgrade() {
                grant.release();
            }
        }
    }

    /// Has [`Session::close`] been called?
    pub fn is_closed(&self) -> bool {
        self.shared.closed.load(Ordering::Acquire)
    }

    /// Start a plan under admission control (waits for a grant when the
    /// session belongs to a service) and hand it to a pull-based
    /// [`QueryStream`], its tree built with the session's reorder-channel
    /// capacity. Execution errors surface from the stream's pulls, not from
    /// here.
    fn start(&self, plan: &PhysicalPlan) -> Result<QueryStream<'_>, Error> {
        if self.is_closed() {
            return Err(Error::Cancelled);
        }
        // Re-arm the token: a cancel aimed at the previous query must not
        // poison this one. (A cancel that races the new query start simply
        // cancels the new query — the same semantics as a wire cancel frame
        // arriving just after a query began.)
        self.shared.cancel.reset();
        let grant = match &self.service {
            Some(service) => {
                let grant = service.admission.acquire(service.budget_bytes)?;
                let mut grants = self.shared.grants.lock().expect("session grants");
                grants.retain(|g| g.strong_count() > 0);
                grants.push(Arc::downgrade(&grant));
                Some(grant)
            }
            None => None,
        };
        if self.is_closed() {
            // close() raced admission: hand the budget straight back.
            if let Some(grant) = &grant {
                grant.release();
            }
            return Err(Error::Cancelled);
        }
        let config = ScanConfig {
            channel_cap: self.effective_config().channel_cap,
            ..plan.config()
        };
        Ok(QueryStream::new(
            plan.build_tree(self.db.get(), config),
            plan.output_types().to_vec(),
            grant,
            self.shared.cancel.clone(),
        ))
    }
}

// -------------------------------------------------------------- query service

/// Configuration of a [`QueryService`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Maximum number of queries executing at once (further queries wait).
    pub max_concurrent: usize,
    /// Shared memory-budget pool, in bytes, that running queries' budgets are
    /// granted from.
    pub total_budget_bytes: usize,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            max_concurrent: 8,
            total_budget_bytes: 256 << 20,
        }
    }
}

/// A multi-tenant query service over one shared database: hands out
/// [`Session`]s whose queries are admitted under a shared concurrency limit
/// and memory-budget pool.
pub struct QueryService {
    db: Arc<Database>,
    base_config: ScanConfig,
    admission: Arc<Admission>,
    config: ServiceConfig,
}

impl QueryService {
    /// A service over `db` planning with `base_config` (per-session overrides
    /// via [`Session::with_config`]).
    pub fn new(db: Arc<Database>, base_config: ScanConfig, config: ServiceConfig) -> QueryService {
        QueryService {
            db,
            base_config,
            admission: Arc::new(Admission::new(
                config.max_concurrent.max(1),
                config.total_budget_bytes,
            )),
            config,
        }
    }

    /// The service's configuration.
    pub fn config(&self) -> ServiceConfig {
        self.config
    }

    /// The shared database.
    pub fn database(&self) -> &Arc<Database> {
        &self.db
    }

    /// Open a session whose queries each run under `budget_bytes` of the
    /// shared pool. The session is `'static` (it shares ownership of the
    /// database), so it can move to another thread.
    pub fn session(&self, budget_bytes: usize) -> Session<'static> {
        Session {
            db: DbRef::Shared(Arc::clone(&self.db)),
            config: self.base_config,
            service: Some(ServiceHandle {
                admission: Arc::clone(&self.admission),
                budget_bytes,
            }),
            shared: SessionShared::new(),
        }
    }

    /// A snapshot of the admission state — what is running and how much of
    /// the budget pool is granted right now. Deterministically reflects every
    /// release that happened-before the call (a disconnect test polls this to
    /// pin that a dead client's budget actually came back).
    pub fn stats(&self) -> ServiceStats {
        let state = self.admission.state.lock().expect("admission lock");
        ServiceStats {
            running: state.running,
            granted_bytes: state.granted_bytes,
        }
    }
}

/// A point-in-time snapshot of a [`QueryService`]'s admission state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceStats {
    /// Queries currently holding a run slot.
    pub running: usize,
    /// Bytes of the shared pool currently granted out.
    pub granted_bytes: usize,
}

/// Derive the database's per-relation block-cache capacity from a service
/// budget: half the budget is reserved for block caches (the other half covers
/// in-flight batches and operator state), split evenly across relations
/// because [`Database::enable_spill`] gives every relation's store the policy's
/// full `cache_capacity_bytes`. Pins can overshoot a store's capacity
/// transiently, which is why the cache half is not the whole budget.
pub fn derive_spill_policy(
    base: SpillPolicy,
    total_budget_bytes: usize,
    relation_count: usize,
) -> SpillPolicy {
    let per_store = (total_budget_bytes / 2) / relation_count.max(1);
    SpillPolicy {
        cache_capacity_bytes: per_store.max(1),
        ..base
    }
}

// ------------------------------------------------------------------ admission

/// FIFO admission: a ticket queue over (running queries, granted bytes).
struct Admission {
    max_concurrent: usize,
    total_budget: usize,
    state: Mutex<AdmissionState>,
    cond: Condvar,
}

#[derive(Default)]
struct AdmissionState {
    running: usize,
    granted_bytes: usize,
    /// Next ticket to hand out.
    next_ticket: u64,
    /// Ticket currently at the head of the queue.
    serving: u64,
}

impl Admission {
    fn new(max_concurrent: usize, total_budget: usize) -> Admission {
        Admission {
            max_concurrent,
            total_budget,
            state: Mutex::new(AdmissionState::default()),
            cond: Condvar::new(),
        }
    }

    /// Block until `budget_bytes` and a run slot are granted (FIFO). Requests
    /// larger than the whole pool fail fast — they could never be granted.
    fn acquire(self: &Arc<Admission>, budget_bytes: usize) -> Result<Arc<Grant>, Error> {
        if budget_bytes > self.total_budget {
            return Err(Error::OverBudget {
                requested_bytes: budget_bytes,
                total_bytes: self.total_budget,
            });
        }
        let mut state = self.state.lock().expect("admission lock");
        let ticket = state.next_ticket;
        state.next_ticket += 1;
        while !(state.serving == ticket
            && state.running < self.max_concurrent
            && state.granted_bytes + budget_bytes <= self.total_budget)
        {
            state = self.cond.wait(state).expect("admission lock");
        }
        state.serving += 1;
        state.running += 1;
        state.granted_bytes += budget_bytes;
        // Wake the next ticket: it may be admittable immediately.
        self.cond.notify_all();
        Ok(Arc::new(Grant {
            admission: Arc::clone(self),
            budget_bytes,
            released: AtomicBool::new(false),
        }))
    }

    fn release(&self, budget_bytes: usize) {
        let mut state = self.state.lock().expect("admission lock");
        state.running -= 1;
        state.granted_bytes -= budget_bytes;
        drop(state);
        self.cond.notify_all();
    }
}

/// A granted admission; returns its budget and run slot when released —
/// explicitly (a [`Session::close`] force-release) or on drop, whichever
/// comes first. Release is idempotent, so both may happen.
pub(crate) struct Grant {
    admission: Arc<Admission>,
    budget_bytes: usize,
    released: AtomicBool,
}

impl Grant {
    /// Return the budget and run slot to the pool (idempotent).
    pub(crate) fn release(&self) {
        if !self.released.swap(true, Ordering::AcqRel) {
            self.admission.release(self.budget_bytes);
        }
    }
}

impl Drop for Grant {
    fn drop(&mut self) {
        self.release();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datablocks::{DataType, Value};
    use storage::{ColumnDef, Schema};

    fn small_db() -> Database {
        let mut db = Database::new();
        let rel = db.create_relation("t", Schema::new(vec![ColumnDef::new("a", DataType::Int)]));
        for i in 0..100i64 {
            rel.insert(vec![Value::Int(i)]);
        }
        db.freeze_all();
        db
    }

    #[test]
    fn sql_json_and_plan_paths_agree() {
        let db = small_db();
        let session = db.connect();
        let from_sql = session
            .sql("SELECT count(*) FROM t PREWHERE a < 50")
            .unwrap()
            .collect()
            .unwrap();
        let from_ir = session
            .query_ir(
                r#"{"version": 1, "plan": {
                    "op": "aggregate",
                    "input": {"op": "scan", "relation": "t", "columns": ["a"],
                              "predicates": [{"column": "a", "cmp": "lt", "value": {"int": 50}}]},
                    "groups": [],
                    "aggregates": [{"func": "count_star", "type": "int"}]}}"#,
            )
            .unwrap()
            .collect()
            .unwrap();
        let plan = session
            .compile_sql("SELECT count(*) FROM t PREWHERE a < 50")
            .unwrap();
        let from_plan = session.execute_plan(&plan).unwrap().collect().unwrap();
        assert_eq!(from_sql.value(0, 0), Value::Int(50));
        assert_eq!(from_ir.value(0, 0), Value::Int(50));
        assert_eq!(from_plan.value(0, 0), Value::Int(50));
    }

    #[test]
    fn error_display_is_stable() {
        let db = small_db();
        let session = db.connect();
        let err = session.sql("SELECT nope FROM t").unwrap_err();
        assert_eq!(
            err.to_string(),
            "semantic error at line 1, column 8: unknown column `nope` in relation `t`"
        );
        let err = Error::OverBudget {
            requested_bytes: 10,
            total_bytes: 5,
        };
        assert_eq!(
            err.to_string(),
            "admission error: query budget 10 bytes exceeds the service budget 5 bytes"
        );
        assert_eq!(Error::Cancelled.to_string(), "query cancelled");
        let cold = ColdReadError {
            block_id: 7,
            generation: 2,
            offset: 4096,
            detail: "boom".into(),
        };
        assert_eq!(
            Error::from(exec::Error::ColdRead(cold)).to_string(),
            "cold read error: cold block 7 unreadable (generation 2, offset 4096): boom"
        );
        assert_eq!(Error::from(exec::Error::Cancelled), Error::Cancelled);
        assert_eq!(Error::Io("boom".into()).to_string(), "i/o error: boom");
    }

    #[test]
    fn close_releases_budget_before_stream_drop() {
        let service = QueryService::new(
            Arc::new(small_db()),
            ScanConfig::default(),
            ServiceConfig {
                max_concurrent: 2,
                total_budget_bytes: 8 << 20,
            },
        );
        let session = service.session(4 << 20);
        let mut stream = session.sql("SELECT a FROM t").unwrap();
        assert_eq!(service.stats().granted_bytes, 4 << 20);
        assert_eq!(service.stats().running, 1);

        // close() must return the budget immediately — the pinned release
        // ordering is "close() happens-before the pool recovers", NOT "the
        // stream drop does". The stream is still alive here.
        session.close();
        assert_eq!(service.stats().granted_bytes, 0);
        assert_eq!(service.stats().running, 0);

        // The closed session's in-flight stream reports Cancelled, new
        // queries are refused, and dropping the stream later must not
        // double-release (release is idempotent).
        assert!(matches!(stream.next_batch(), Err(Error::Cancelled)));
        assert!(matches!(
            session.sql("SELECT a FROM t"),
            Err(Error::Cancelled)
        ));
        drop(stream);
        assert_eq!(service.stats().granted_bytes, 0);
        assert_eq!(service.stats().running, 0);
    }

    #[test]
    fn over_budget_is_rejected_immediately() {
        let service = QueryService::new(
            Arc::new(small_db()),
            ScanConfig::default(),
            ServiceConfig {
                max_concurrent: 2,
                total_budget_bytes: 1 << 20,
            },
        );
        let session = service.session(2 << 20);
        let err = session.sql("SELECT count(*) FROM t").unwrap_err();
        assert!(matches!(err, Error::OverBudget { .. }), "{err}");
    }

    #[test]
    fn budget_derives_channel_cap() {
        let service = QueryService::new(
            Arc::new(small_db()),
            ScanConfig::default().with_threads(4),
            ServiceConfig::default(),
        );
        // Tiny budget: one slot. Large budget: the config default (2w + 2).
        assert_eq!(service.session(1).effective_config().channel_cap, 1);
        assert_eq!(
            service.session(1 << 30).effective_config().channel_cap,
            2 * 4 + 2
        );
    }

    #[test]
    fn admission_serializes_when_pool_is_tight() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let service = Arc::new(QueryService::new(
            Arc::new(small_db()),
            ScanConfig::default(),
            ServiceConfig {
                max_concurrent: 8,
                total_budget_bytes: 8 << 20,
            },
        ));
        let peak = Arc::new(AtomicUsize::new(0));
        let running = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..6 {
            let service = Arc::clone(&service);
            let peak = Arc::clone(&peak);
            let running = Arc::clone(&running);
            handles.push(std::thread::spawn(move || {
                // 5 MiB each against an 8 MiB pool: at most one runs at a time.
                let session = service.session(5 << 20);
                for _ in 0..3 {
                    let grant = session
                        .service
                        .as_ref()
                        .unwrap()
                        .admission
                        .acquire(5 << 20)
                        .unwrap();
                    let now = running.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(now, Ordering::SeqCst);
                    std::thread::sleep(std::time::Duration::from_millis(1));
                    running.fetch_sub(1, Ordering::SeqCst);
                    drop(grant);
                }
            }));
        }
        for handle in handles {
            handle.join().unwrap();
        }
        assert_eq!(peak.load(Ordering::SeqCst), 1);
    }
}
