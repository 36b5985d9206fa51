//! # storage — chunked hybrid OLTP/OLAP relational storage
//!
//! This crate provides the storage substrate the Data Blocks format plugs into:
//! relations divided into fixed-size chunks, where the mutable tail is kept **hot**
//! (plain uncompressed columns, cheap inserts and in-place updates) and chunks
//! identified as cold are **frozen** into immutable, compressed
//! [`datablocks::DataBlock`]s. Point accesses go through an optional primary-key hash
//! index; deletes tombstone records in place; updates of frozen records become a
//! delete plus a re-insert into the hot tail — the life cycle described in Section 3
//! of the paper.
//!
//! Relations scale past main memory through the [`blockstore`] module: with a
//! [`SpillPolicy`] attached, frozen blocks are written to a file-backed
//! [`BlockStore`] at freeze time and paged back in on demand through a pinning,
//! capacity-bounded block cache, while the block directory keeps SMA summaries hot
//! in memory so scans can skip cold blocks without any I/O.
//!
//! ```
//! use storage::{ColumnDef, Relation, Schema};
//! use datablocks::{DataType, Value};
//!
//! let schema = Schema::new(vec![
//!     ColumnDef::new("id", DataType::Int),
//!     ColumnDef::new("name", DataType::Str),
//! ])
//! .with_primary_key("id");
//!
//! let mut rel = Relation::with_chunk_capacity("users", schema, 1024);
//! for i in 0..3000 {
//!     rel.insert(vec![Value::Int(i), Value::Str(format!("user-{i}"))]);
//! }
//! // Cold chunks become compressed Data Blocks; the tail stays hot.
//! rel.freeze_full_chunks();
//! assert_eq!(rel.cold_block_count(), 2);
//!
//! // OLTP point access works against both hot and frozen data.
//! let id = rel.lookup_pk(42).unwrap();
//! assert_eq!(rel.get(id, 1), Value::Str("user-42".into()));
//! ```

#![warn(missing_docs)]

pub mod blockstore;
pub mod database;
pub mod faults;
pub mod hot;
pub mod relation;
pub mod schema;

pub use blockstore::{
    BlockId, BlockRef, BlockStore, ColdReadError, Durability, IoStats, PinnedBlock, SpillPolicy,
    StoreError,
};
pub use database::Database;
pub use faults::{FaultAction, FaultInjector, StoreFile};
pub use hot::{HotChunk, DEFAULT_CHUNK_CAPACITY};
pub use relation::{
    Relation, RowId, ScanSnapshot, ScanSource, Segment, StorageStats, DEFAULT_SELECTIVITY,
};
pub use schema::{ColumnDef, Schema};
