//! # exec — vectorized scans feeding vectorized query pipelines
//!
//! This crate implements the query-processing half of the paper: an **interpreted
//! vectorized scan subsystem** that works over both hot uncompressed chunks and cold
//! compressed Data Blocks behind a single interface (Figure 6), and the **relational
//! operators** consuming those batches a column at a time ([`expr`], [`ops`]),
//! morsel-driven ([`morsel`]). (The paper feeds its scans into JIT-compiled
//! tuple-at-a-time pipelines; this engine has no code generator, so the pipelines
//! above the scan are vectorized like the scan is.)
//!
//! ```
//! use exec::prelude::*;
//! use datablocks::{DataType, Value};
//! use storage::{ColumnDef, Relation, Schema};
//!
//! // A small relation, fully frozen into Data Blocks.
//! let schema = Schema::new(vec![
//!     ColumnDef::new("id", DataType::Int),
//!     ColumnDef::new("qty", DataType::Int),
//! ]);
//! let mut rel = Relation::with_chunk_capacity("t", schema, 1024);
//! for i in 0..5_000 {
//!     rel.insert(vec![Value::Int(i), Value::Int(i % 100)]);
//! }
//! rel.freeze_all();
//!
//! // select count(*), sum(qty) from t where qty between 10 and 19
//! let scan = RelationScanner::new(
//!     &rel,
//!     vec![1],
//!     vec![Restriction::between(1, 10i64, 19i64)],
//!     ScanConfig::default(),
//! );
//! let mut agg = HashAggregateOp::new(
//!     Box::new(ScanOp::new(scan)),
//!     vec![],
//!     vec![],
//!     vec![
//!         AggSpec::new(AggFunc::CountStar, Expr::lit(0i64), DataType::Int),
//!         AggSpec::new(AggFunc::Sum, Expr::col(0), DataType::Int),
//!     ],
//! );
//! let result = agg.collect_all();
//! assert_eq!(result.value(0, 0), Value::Int(500));
//! ```

#![warn(missing_docs)]

pub mod batch;
pub mod cancel;
pub mod expr;
pub mod morsel;
pub mod ops;
pub mod scan;

pub use batch::Batch;
pub use cancel::CancelToken;
pub use expr::{ArithOp, Expr};
pub use morsel::{
    drive_pipeline, drive_streaming, merge_partitionwise, MorselSink, PipelineSpec, PipelineStep,
    ScanStream, RADIX_BITS, RADIX_PARTITIONS,
};
pub use ops::{
    collect_operator, radix_partition, AggFunc, AggSpec, BoxedOperator, FilterOp, HashAggregateOp,
    HashJoinOp, JoinType, Operator, ProjectOp, ScanOp, SortKey, SortOp, ValuesOp,
};
pub use scan::{RelationScanner, ScanConfig, ScanMode, ScanStats};

/// Why an execution path stopped before its input was exhausted: the one error
/// every [`Operator::next_batch`] and morsel driver returns. Producers are the
/// morsel workers ([`morsel`]) and the scan leaf ([`ScanOp`]); every operator in
/// between passes it up with `?`, after its workers are joined.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// The driving thread's [`CancelToken`] was raised (see [`cancel`]).
    Cancelled,
    /// A spilled block could not be paged in; names its on-disk position.
    ColdRead(storage::ColdReadError),
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Cancelled => f.write_str("query cancelled"),
            Error::ColdRead(err) => err.fmt(f),
        }
    }
}

impl std::error::Error for Error {}

impl From<storage::ColdReadError> for Error {
    fn from(err: storage::ColdReadError) -> Error {
        Error::ColdRead(err)
    }
}

/// Commonly used items for building queries by hand.
pub mod prelude {
    pub use crate::batch::Batch;
    pub use crate::expr::{ArithOp, Expr};
    pub use crate::morsel::{MorselSink, PipelineSpec, PipelineStep};
    pub use crate::ops::{
        collect_operator, radix_partition, AggFunc, AggSpec, BoxedOperator, FilterOp,
        HashAggregateOp, HashJoinOp, JoinType, Operator, ProjectOp, ScanOp, SortKey, SortOp,
        ValuesOp,
    };
    pub use crate::scan::{RelationScanner, ScanConfig, ScanMode, ScanStats};
    pub use datablocks::scan::Restriction;
    pub use datablocks::{CmpOp, IsaLevel, ScanOptions};
}
