//! # query — a versioned JSON IR for logical plans, and its planner
//!
//! This crate is the engine's query surface: a small, versioned JSON IR for
//! **logical** plans (`scan` / `filter` / `project` / `aggregate` / `join` /
//! `sort` over named relations, with typed literals and the scalar expression
//! vocabulary of [`exec::expr`]), plus the **logical → physical planner** that
//! lowers a parsed plan onto [`exec::ops`] operator trees — choosing serial vs.
//! morsel-parallel operators from the [`exec::ScanConfig`] and pushing SARGable
//! predicates into the SMA/PSMA-pruned scan path.
//!
//! The IR's byte-level contract (every node's JSON schema, the typing rules,
//! versioning policy and error taxonomy) lives in `crates/query/README.md`; the
//! parser is dependency-free (see [`json`]) and every rejection is an
//! [`IrError`] positioned at a line/column of the source text.
//!
//! ```
//! use datablocks::{DataType, Value};
//! use exec::ScanConfig;
//! use storage::{ColumnDef, Database, Relation, Schema};
//!
//! // A one-column relation, frozen into compressed Data Blocks.
//! let schema = Schema::new(vec![ColumnDef::new("qty", DataType::Int)]);
//! let mut rel = Relation::with_chunk_capacity("t", schema, 1024);
//! for i in 0..1_000i64 {
//!     rel.insert(vec![Value::Int(i % 100)]);
//! }
//! rel.freeze_all();
//! let mut db = Database::new();
//! db.add_relation(rel);
//!
//! // select count(*) from t where qty between 10 and 19
//! let ir = r#"{
//!   "version": 1,
//!   "plan": {
//!     "op": "aggregate",
//!     "input": {
//!       "op": "scan",
//!       "relation": "t",
//!       "columns": ["qty"],
//!       "predicates": [{"column": "qty", "between": [{"int": 10}, {"int": 19}]}]
//!     },
//!     "groups": [],
//!     "aggregates": [{"func": "count_star", "type": "int"}]
//!   }
//! }"#;
//! let plan = query::compile(&db, ScanConfig::default(), ir).unwrap();
//! assert_eq!(plan.execute(&db).value(0, 0), Value::Int(100));
//! ```

#![warn(missing_docs)]

pub mod error;
pub mod fuzz;
pub mod ir;
pub mod json;
pub mod net;
pub mod planner;
pub mod service;
pub mod sql;
pub mod stream;

pub use error::{IrError, IrErrorKind};
pub use exec::CancelToken;
pub use ir::{parse_ir, Node, QueryIr, IR_VERSION};
pub use json::Pos;
pub use planner::{PhysicalPlan, Planner};
pub use service::{Connect, Error, QueryService, ServiceConfig, ServiceStats, Session};
pub use sql::{parse_sql, to_sql, SqlCatalog};
pub use stream::QueryStream;

use exec::ScanConfig;
use storage::Database;

/// Parse IR text and lower it to a physical plan in one step — the common
/// entry point for tools and workloads.
pub fn compile(db: &Database, config: ScanConfig, text: &str) -> Result<PhysicalPlan, IrError> {
    let ir = parse_ir(text)?;
    Planner::new(db, config).plan(&ir)
}
