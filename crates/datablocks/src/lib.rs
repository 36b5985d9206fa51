//! # datablocks — compressed, byte-addressable columnar blocks for hybrid OLTP & OLAP
//!
//! This crate is the core contribution of the reproduced paper, *"Data Blocks: Hybrid
//! OLTP and OLAP on Compressed Storage using both Vectorization and Compilation"*
//! (SIGMOD 2016): a storage format for **cold** relation chunks that
//!
//! * compresses each attribute of each chunk with the light-weight, byte-addressable
//!   scheme that is optimal for that attribute's value distribution in that chunk
//!   (single value, order-preserving dictionary, or Frame-of-Reference truncation),
//! * keeps **point accesses O(1)** so OLTP transactions can still touch frozen
//!   records cheaply,
//! * attaches **SMAs** (min/max) to skip entire blocks and **Positional SMAs** — a
//!   concise lookup table mapping value deltas to position ranges — to narrow the
//!   scan range inside a block, and
//! * evaluates SARGable predicates **directly on the compressed code words** with the
//!   SIMD kernels of the [`dbsimd`] crate, producing match-position vectors that are
//!   then unpacked and pushed into the consuming query pipeline.
//!
//! ## Quick tour
//!
//! ```
//! use datablocks::{
//!     builder::{freeze, int_column, str_column},
//!     scan::{scan_collect, Restriction, ScanOptions},
//!     Value,
//! };
//!
//! // A cold chunk of a relation: two attributes, 10 000 records.
//! let quantity = int_column((0..10_000).map(|i| i % 50).collect());
//! let status = str_column((0..10_000).map(|i| format!("S{}", i % 3)).collect());
//!
//! // Freeze it into an immutable, compressed Data Block.
//! let block = freeze(&[quantity, status]);
//! assert!(block.byte_size() < 10_000 * (8 + 26));
//!
//! // Point access stays cheap on compressed data.
//! assert_eq!(block.get(4711, 0), Value::Int(4711 % 50));
//!
//! // SARGable predicates are evaluated on the compressed representation.
//! let matches = scan_collect(
//!     &block,
//!     &[Restriction::between(0, 10i64, 19i64), Restriction::eq(1, "S1")],
//!     ScanOptions::default(),
//! );
//! assert!(!matches.is_empty());
//! ```

#![warn(missing_docs)]

pub mod bitmap;
pub mod block;
pub mod builder;
pub mod column;
pub mod compression;
pub mod frame;
pub mod layout;
pub mod psma;
pub mod scan;
pub mod sma;
pub mod unpack;
pub mod value;

pub use bitmap::Bitmap;
pub use block::{BlockColumn, DataBlock, DEFAULT_BLOCK_CAPACITY};
pub use column::{Column, ColumnData, Strings};
pub use compression::{CodeVec, ColumnCompression, SchemeKind};
pub use frame::{BlockSummary, ColumnSummary, FrameError, ManifestRecord};
pub use psma::{Psma, ScanRange};
pub use scan::{
    plan_scan, scan_collect, scan_collect_into, BlockScan, Inclusive, Restriction, ScanOptions,
    ScanPlan,
};
pub use sma::Sma;
pub use value::{date_to_days, days_to_date, DataType, Value};

// Re-export the predicate vocabulary so downstream crates only need one import path.
pub use dbsimd::{CmpOp, IsaLevel};
