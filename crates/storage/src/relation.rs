//! Relations: chunked hybrid storage with hot uncompressed chunks and cold frozen
//! Data Blocks, plus the OLTP surface (insert / point lookup / delete / update).
//!
//! A relation is divided into fixed-size chunks. New records go to the hot tail
//! chunk; chunks identified as cold are *frozen* into immutable Data Blocks with the
//! per-column-optimal compression (Section 3). Updates to frozen records are
//! internally translated into a delete (flag on the block) followed by an insert into
//! the hot tail. An optional primary-key hash index maps key values to record
//! locations for OLTP point accesses.
//!
//! # Larger-than-memory relations
//!
//! With a [`SpillPolicy`] attached ([`Relation::enable_spill`]), freezing writes each
//! new Data Block to the relation's [`BlockStore`] instead of retaining it on the
//! heap: the cold tier then lives on secondary storage, with only the block
//! directory (offsets + SMA summaries) and a capacity-bounded block cache in memory.
//! Every cold-block access goes through [`Relation::cold_block`], which returns a
//! [`BlockRef`] resolving transparently to the heap-resident block or to a pinned
//! copy paged in from disk — scans, point accesses and index builds are oblivious to
//! which tier a block currently occupies, and
//! [`Relation::cold_block_may_match`] lets scans apply SMA skipping to cold blocks
//! from the in-memory directory without any I/O.

use std::collections::HashMap;
use std::sync::Arc;

use datablocks::builder::{freeze, freeze_sorted};
use datablocks::scan::{Inclusive, Restriction};
use datablocks::{DataBlock, DataType, ScanOptions, Sma, Value};
use dbsimd::CmpOp;

use crate::blockstore::{BlockId, BlockRef, BlockStore, ColdReadError, SpillPolicy};
use crate::hot::{HotChunk, DEFAULT_CHUNK_CAPACITY};
use crate::schema::Schema;

/// Which storage class a record currently lives in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Segment {
    /// Cold, frozen Data Block number `n`.
    Cold(usize),
    /// Hot, uncompressed chunk number `n`.
    Hot(usize),
}

/// Location of a record: its segment and row index within that segment.
///
/// A `RowId` is valid until its relation's next freeze, which turns hot chunks into
/// cold blocks. The relation's own primary-key index keeps segment serial numbers
/// instead ([`ScanSource::segment`]), which a freeze does not change, and
/// [`Relation::lookup_pk`] turns one into the `RowId` of the moment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RowId {
    /// The segment holding the record.
    pub segment: Segment,
    /// Row index within the segment.
    pub row: u32,
}

/// Statistics about a relation's storage (reported by Table 1 / Figure 10).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StorageStats {
    /// Number of cold (frozen) Data Blocks.
    pub cold_blocks: usize,
    /// Number of hot uncompressed chunks.
    pub hot_chunks: usize,
    /// Records in cold blocks (including deleted).
    pub cold_rows: usize,
    /// Records in hot chunks (including deleted).
    pub hot_rows: usize,
    /// Bytes used by cold blocks: in-memory size (compressed, including SMAs/PSMAs)
    /// for heap-resident blocks, serialized on-disk frame size for spilled blocks.
    pub cold_bytes: usize,
    /// Bytes used by hot chunks (uncompressed).
    pub hot_bytes: usize,
    /// Bytes the cold rows would occupy uncompressed.
    pub cold_bytes_uncompressed: usize,
}

impl StorageStats {
    /// Total bytes currently used.
    pub fn total_bytes(&self) -> usize {
        self.cold_bytes + self.hot_bytes
    }

    /// Compression ratio achieved on the cold part (uncompressed ÷ compressed).
    pub fn compression_ratio(&self) -> f64 {
        if self.cold_bytes == 0 {
            1.0
        } else {
            self.cold_bytes_uncompressed as f64 / self.cold_bytes as f64
        }
    }
}

/// Where one frozen block of a relation currently lives.
#[derive(Debug, Clone)]
enum ColdSlot {
    /// On the heap (the pre-spill behaviour; also cheap to `Clone` — blocks are
    /// immutable, so clones share the `Arc`).
    Resident(Arc<DataBlock>),
    /// In the relation's [`BlockStore`], identified by its directory id.
    Spilled(BlockId),
}

/// Resolve one cold slot to a borrowable block, pinning spilled blocks with
/// attributes `columns` paged in (`None`: every attribute). A heap-resident
/// block holds every attribute either way. A spilled block that cannot be paged
/// in (disk error, corrupt frame) comes back as a typed [`ColdReadError`]
/// naming the block's exact on-disk position, so scan workers can carry it out
/// instead of panicking.
fn resolve_cold_slot(
    slot: &ColdSlot,
    store: Option<&Arc<BlockStore>>,
    columns: Option<&[usize]>,
) -> Result<BlockRef, ColdReadError> {
    match slot {
        ColdSlot::Resident(block) => Ok(BlockRef::resident(Arc::clone(block))),
        ColdSlot::Spilled(block_id) => {
            // A spilled slot without a store is a construction bug, not an I/O
            // condition — keep it a loud invariant.
            let store = store.expect("spilled slot without store");
            match columns {
                Some(columns) => store.pin_columns_described(*block_id, columns),
                None => store.pin_described(*block_id),
            }
            .map(BlockRef::pinned)
        }
    }
}

/// SMA gate for one cold slot: answered from the store's in-memory directory for
/// spilled blocks (zero I/O), always `true` for heap-resident blocks (the scan
/// planner decides with the full block at hand).
fn cold_slot_may_match(
    slot: &ColdSlot,
    store: Option<&Arc<BlockStore>>,
    restrictions: &[Restriction],
    options: &ScanOptions,
) -> bool {
    match slot {
        ColdSlot::Resident(_) => true,
        ColdSlot::Spilled(block_id) => {
            let store = store.expect("spilled slot without store");
            store.with_summary(*block_id, |s| s.may_match(restrictions, options))
        }
    }
}

/// The share of rows a restriction keeps where no SMA can price it — every row
/// of a hot chunk, and string or `IS [NOT] NULL` restrictions on a frozen block.
/// These are the fixed defaults of Selinger et al. (SIGMOD 1979): an equality
/// keeps one row in ten, anything else one in three.
pub const DEFAULT_SELECTIVITY: f64 = 1.0 / 3.0;

/// [`DEFAULT_SELECTIVITY`] for an equality.
const DEFAULT_EQ_SELECTIVITY: f64 = 0.1;

fn default_selectivity(restriction: &Restriction) -> f64 {
    match restriction {
        Restriction::Cmp { op: CmpOp::Eq, .. } => DEFAULT_EQ_SELECTIVITY,
        _ => DEFAULT_SELECTIVITY,
    }
}

/// The share of one block's rows `restriction` keeps, priced from the block's
/// SMA as the part of its `[min, max]` the restriction covers. Restrictions the
/// SMA rules out keep nothing; those it cannot measure take
/// [`default_selectivity`].
fn sma_selectivity(sma: &Sma, restriction: &Restriction) -> f64 {
    match (restriction, sma) {
        (Restriction::IsNull { .. }, Sma::AllNull) => return 1.0,
        (_, Sma::AllNull) => return 0.0,
        _ if !sma.may_match(restriction) => return 0.0,
        _ => {}
    }
    let share = match restriction {
        Restriction::Cmp {
            op: CmpOp::Ne,
            column,
            value,
        } => range_share(sma, &Restriction::eq(*column, value.clone())).map(|share| 1.0 - share),
        _ => range_share(sma, restriction),
    };
    share.unwrap_or_else(|| default_selectivity(restriction))
}

/// The share of an SMA's `[min, max]` that the restriction's inclusive bounds
/// cover — integers counted as values, doubles measured as a length. `None`
/// where the SMA cannot measure it: a string domain, a restriction that is no
/// range in the SMA's type (`<>`, a NULL test, a constant of another type),
/// or a single point of a double domain wider than one value.
fn range_share(sma: &Sma, restriction: &Restriction) -> Option<f64> {
    match *sma {
        Sma::Int { min, max } => match restriction.int_bounds() {
            Inclusive::Range(lo, hi) => {
                let covered = hi.min(max) as f64 - lo.max(min) as f64 + 1.0;
                Some((covered / (max as f64 - min as f64 + 1.0)).clamp(0.0, 1.0))
            }
            Inclusive::Empty => Some(0.0),
            Inclusive::Inexpressible => None,
        },
        Sma::Double { min, max } => match restriction.double_bounds() {
            Inclusive::Range(lo, hi) => {
                let (lo, hi) = (lo.max(min), hi.min(max));
                if lo > hi {
                    Some(0.0)
                } else if min == max {
                    Some(1.0)
                } else if lo == hi {
                    None
                } else {
                    Some((hi - lo) / (max - min))
                }
            }
            Inclusive::Empty => Some(0.0),
            Inclusive::Inexpressible => None,
        },
        _ => None,
    }
}

/// Estimated live rows of one frozen block that match every restriction,
/// treating the restrictions as independent.
fn block_estimate<'s>(
    live: u32,
    sma_of: impl Fn(usize) -> Option<&'s Sma>,
    restrictions: &[Restriction],
) -> f64 {
    restrictions
        .iter()
        .fold(f64::from(live), |rows, restriction| {
            rows * sma_of(restriction.column()).map_or_else(
                || default_selectivity(restriction),
                |sma| sma_selectivity(sma, restriction),
            )
        })
}

/// Anything a scan can read: a live [`Relation`] borrow or an owned
/// [`ScanSnapshot`]. The trait is the seam that lets the streaming parallel scan
/// run its morsel workers on plain (non-scoped) threads — workers capture an owned
/// snapshot instead of borrowing the relation across an unknowable lifetime — while
/// the serial scanner and the scoped pipeline driver keep borrowing the relation
/// directly.
pub trait ScanSource: Send + Sync {
    /// Declared type of column `col`.
    fn column_type(&self, col: usize) -> DataType;

    /// The hot, uncompressed tail chunks.
    fn hot_chunks(&self) -> &[Arc<HotChunk>];

    /// Number of frozen Data Blocks.
    fn cold_block_count(&self) -> usize;

    /// Borrow cold block `idx` with every attribute, pinning it when it lives
    /// on secondary storage: the all-attributes case of
    /// [`ScanSource::cold_block_columns`].
    fn cold_block(&self, idx: usize) -> Result<BlockRef, ColdReadError>;

    /// Borrow cold block `idx` with attributes `columns` paged in, pinning it
    /// when it lives on secondary storage ([`BlockStore::pin_columns`], the
    /// store's only page-in path: a scan reads a spilled block when it reaches
    /// it, never ahead, and reads only the attributes it names). Reading any
    /// other attribute of a spilled block panics. The returned [`BlockRef`]
    /// *is* the per-morsel pin guard: holding it keeps a spilled block cached,
    /// dropping it releases the pin — so a streaming scan acquires and releases
    /// pins one morsel at a time.
    ///
    /// A spilled block that cannot be paged in surfaces as a [`ColdReadError`]
    /// (block id, generation, offset, cause) — the structured error scan
    /// workers propagate instead of panicking, so a corrupt frame cancels the
    /// scan loudly and the worker pool joins cleanly.
    fn cold_block_columns(&self, idx: usize, columns: &[usize]) -> Result<BlockRef, ColdReadError>;

    /// Can any record of cold block `idx` match all `restrictions`? Zero I/O for
    /// spilled blocks (answered from the directory summary).
    fn cold_block_may_match(
        &self,
        idx: usize,
        restrictions: &[Restriction],
        options: &ScanOptions,
    ) -> bool;

    /// An owned, cheaply-cloneable snapshot of the scannable state (see
    /// [`ScanSnapshot`]).
    fn snapshot(&self) -> ScanSnapshot;

    /// Segment `n` of the source's one serial numbering, or `None` past the last:
    /// cold block `n` while `n` is below [`ScanSource::cold_block_count`], hot
    /// chunk `n - cold_block_count()` after it. Scan morsels are numbered this way
    /// (so the serial scan order is every block, then every chunk), and so are the
    /// entries of a relation's primary-key index. A freeze moves a prefix of the
    /// hot chunks to the end of the cold blocks, row for row, so no segment's
    /// number changes.
    fn segment(&self, n: usize) -> Option<Segment> {
        let cold = self.cold_block_count();
        match n.checked_sub(cold) {
            None => Some(Segment::Cold(n)),
            Some(hot) if hot < self.hot_chunks().len() => Some(Segment::Hot(hot)),
            Some(_) => None,
        }
    }
}

/// An owned point-in-time view of a relation's scannable state, safe to move onto
/// worker threads that outlive the borrow a scan started from.
///
/// Taking a snapshot is cheap: cold blocks are `Arc`-shared (spilled ones stay in
/// the shared [`BlockStore`]), hot chunks are `Arc`-shared with copy-on-write
/// mutation on the relation side (an insert/delete/update after the snapshot copies
/// the affected chunk, leaving the snapshot's version untouched), and only the
/// column-type vector is cloned outright.
///
/// Caveat (same as relation clones): the cold tier of a *spilling* relation is
/// shared mutable state — a delete that rewrites a spilled block through the shared
/// store is visible to snapshots taken before it.
#[derive(Debug, Clone)]
pub struct ScanSnapshot {
    types: Vec<DataType>,
    cold: Vec<ColdSlot>,
    hot: Vec<Arc<HotChunk>>,
    store: Option<Arc<BlockStore>>,
}

impl ScanSource for ScanSnapshot {
    fn column_type(&self, col: usize) -> DataType {
        self.types[col]
    }

    fn hot_chunks(&self) -> &[Arc<HotChunk>] {
        &self.hot
    }

    fn cold_block_count(&self) -> usize {
        self.cold.len()
    }

    fn cold_block(&self, idx: usize) -> Result<BlockRef, ColdReadError> {
        resolve_cold_slot(&self.cold[idx], self.store.as_ref(), None)
    }

    fn cold_block_columns(&self, idx: usize, columns: &[usize]) -> Result<BlockRef, ColdReadError> {
        resolve_cold_slot(&self.cold[idx], self.store.as_ref(), Some(columns))
    }

    fn cold_block_may_match(
        &self,
        idx: usize,
        restrictions: &[Restriction],
        options: &ScanOptions,
    ) -> bool {
        cold_slot_may_match(&self.cold[idx], self.store.as_ref(), restrictions, options)
    }

    fn snapshot(&self) -> ScanSnapshot {
        self.clone()
    }
}

impl ScanSource for Relation {
    fn column_type(&self, col: usize) -> DataType {
        self.schema.column(col).data_type
    }

    fn hot_chunks(&self) -> &[Arc<HotChunk>] {
        &self.hot
    }

    fn cold_block_count(&self) -> usize {
        self.cold.len()
    }

    fn cold_block(&self, idx: usize) -> Result<BlockRef, ColdReadError> {
        Relation::try_cold_block(self, idx)
    }

    fn cold_block_columns(&self, idx: usize, columns: &[usize]) -> Result<BlockRef, ColdReadError> {
        resolve_cold_slot(&self.cold[idx], self.store.as_ref(), Some(columns))
    }

    fn cold_block_may_match(
        &self,
        idx: usize,
        restrictions: &[Restriction],
        options: &ScanOptions,
    ) -> bool {
        Relation::cold_block_may_match(self, idx, restrictions, options)
    }

    fn snapshot(&self) -> ScanSnapshot {
        ScanSnapshot {
            types: self.schema.columns().iter().map(|c| c.data_type).collect(),
            cold: self.cold.clone(),
            hot: self.hot.clone(),
            store: self.store.clone(),
        }
    }
}

/// One primary-key index entry: a segment's serial number
/// ([`ScanSource::segment`]) and a row within that segment.
type PkEntry = (u32, u32);

/// A chunked relation with hot and cold storage.
///
/// # Clone semantics
///
/// Cloning is cheap (frozen blocks are shared via `Arc`) but the two copies are
/// only fully independent while every cold block is heap-resident: deletes on
/// resident blocks are copy-on-write and clone-local, whereas once a spill store
/// is attached the cold tier is *shared mutable state* — a delete on a spilled
/// block is visible to every clone, and the other clones' primary-key indexes are
/// not updated. Treat clones of a spilling relation as read-only snapshots of the
/// hot tier over a shared cold tier.
#[derive(Debug, Clone)]
pub struct Relation {
    name: String,
    schema: Schema,
    cold: Vec<ColdSlot>,
    cold_uncompressed_bytes: usize,
    /// Hot chunks are `Arc`-shared with [`ScanSnapshot`]s (and clones); mutation
    /// goes through `Arc::make_mut`, so a chunk is copied only when a snapshot of
    /// it is still alive — the common case (no snapshot) mutates in place.
    hot: Vec<Arc<HotChunk>>,
    chunk_capacity: usize,
    pk_index: Option<HashMap<i64, PkEntry>>,
    /// The spill store, once [`Relation::enable_spill`] ran. Shared by clones of the
    /// relation (blocks are immutable, so sharing is safe; the delete path rewrites
    /// through the store, which clones see too).
    store: Option<Arc<BlockStore>>,
}

impl Relation {
    /// Create an empty relation. A primary-key index is allocated automatically when
    /// the schema declares a primary key.
    pub fn new(name: impl Into<String>, schema: Schema) -> Relation {
        Relation::with_chunk_capacity(name, schema, DEFAULT_CHUNK_CAPACITY)
    }

    /// Create an empty relation with a specific chunk capacity (the number of records
    /// per chunk and therefore per Data Block).
    pub fn with_chunk_capacity(
        name: impl Into<String>,
        schema: Schema,
        chunk_capacity: usize,
    ) -> Relation {
        assert!(chunk_capacity > 0);
        let pk_index = schema.primary_key().map(|_| HashMap::new());
        Relation {
            name: name.into(),
            schema,
            cold: Vec::new(),
            cold_uncompressed_bytes: 0,
            hot: Vec::new(),
            chunk_capacity,
            pk_index,
            store: None,
        }
    }

    // ------------------------------------------------------------------- spilling

    /// Attach a spill store: frozen blocks move to secondary storage, with only the
    /// block directory (offsets + SMA summaries) and a `cache_capacity_bytes`-bounded
    /// block cache resident in memory. Already-frozen heap blocks are written out
    /// immediately; every subsequent freeze spills its blocks instead of retaining
    /// them. Query results are byte-identical to the all-in-memory relation for any
    /// cache capacity (the differential tests in `tests/spill_differential.rs` pin
    /// this down); only I/O counts change.
    ///
    /// Reconfiguration is not supported: a second call returns
    /// [`std::io::ErrorKind::AlreadyExists`] instead of silently keeping the old
    /// store (and its old path and cache capacity).
    pub fn enable_spill(&mut self, policy: &SpillPolicy) -> std::io::Result<()> {
        if self.store.is_some() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::AlreadyExists,
                "spill store already attached; reconfiguring a relation's spill policy is not supported",
            ));
        }
        let store = match &policy.path {
            Some(path) => {
                BlockStore::create_opts(path, policy.cache_capacity_bytes, policy.durability, None)?
            }
            None => {
                BlockStore::create_temp_opts(policy.cache_capacity_bytes, policy.durability, None)?
            }
        };
        store.set_garbage_threshold(policy.compaction_garbage_ratio);
        // Write every block out *before* touching any slot: a failed append (disk
        // full, ...) must leave the relation exactly as it was — fully in memory,
        // no store attached — not half-converted to slots pointing into a store
        // that was never kept.
        let mut ids = Vec::with_capacity(self.cold.len());
        for slot in &self.cold {
            ids.push(match slot {
                ColdSlot::Resident(block) => Some(store.append(Arc::clone(block))?),
                ColdSlot::Spilled(_) => None,
            });
        }
        for (slot, id) in self.cold.iter_mut().zip(ids) {
            if let Some(id) = id {
                *slot = ColdSlot::Spilled(id);
            }
        }
        self.store = Some(store);
        Ok(())
    }

    /// Reopen a spilled relation from its on-disk store: the cold tier comes
    /// back from `policy.path` (which must name the relation's spill file) by
    /// replaying the store's persisted manifest — **no block payload is read**
    /// to rebuild the directory, including every tombstone recorded before the
    /// close or crash. The caller supplies the name and schema (they are not
    /// persisted in the store); a primary-key index, if the schema declares one,
    /// is rebuilt by paging the cold tier in once.
    ///
    /// The hot tail is *not* recovered — it lived in memory, so a crash loses
    /// it; that is the honest contract of the spill tier (only frozen blocks
    /// reach the store). `storage_stats().cold_bytes_uncompressed` restarts at
    /// zero and the chunk capacity resets to [`DEFAULT_CHUNK_CAPACITY`] for the
    /// same reason (neither is persisted).
    ///
    /// # Errors
    ///
    /// * [`std::io::ErrorKind::AlreadyExists`] when the path backs a store that
    ///   is still live in this process — same loud error as reconfiguring
    ///   [`Relation::enable_spill`], because both would split one file across
    ///   two caches.
    /// * [`std::io::ErrorKind::InvalidInput`] when `policy.path` is `None`.
    /// * [`std::io::ErrorKind::NotFound`], naming `<path>.manifest`, when the
    ///   store's manifest is missing: it is the store's only directory, so the
    ///   spill file alone is not reopened.
    /// * [`std::io::ErrorKind::InvalidData`] for a corrupt manifest (beyond a
    ///   torn final record, which is discarded silently).
    ///
    /// On every error the store's files are left as they were (see
    /// [`BlockStore::reopen`]).
    pub fn reopen_spilled(
        name: impl Into<String>,
        schema: Schema,
        policy: &SpillPolicy,
    ) -> std::io::Result<Relation> {
        let path = policy.path.as_ref().ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "Relation::reopen_spilled requires SpillPolicy.path to name the spill file",
            )
        })?;
        let store =
            BlockStore::reopen_opts(path, policy.cache_capacity_bytes, policy.durability, None)
                .map_err(std::io::Error::from)?;
        store.set_garbage_threshold(policy.compaction_garbage_ratio);
        let cold: Vec<ColdSlot> = (0..store.block_count()).map(ColdSlot::Spilled).collect();
        let pk_index = schema.primary_key().map(|_| HashMap::new());
        let mut relation = Relation {
            name: name.into(),
            schema,
            cold,
            cold_uncompressed_bytes: 0,
            hot: Vec::new(),
            chunk_capacity: DEFAULT_CHUNK_CAPACITY,
            pk_index,
            store: Some(store),
        };
        if relation.pk_index.is_some() {
            relation.build_pk_index();
        }
        Ok(relation)
    }

    /// Is a spill store attached?
    pub fn has_spill(&self) -> bool {
        self.store.is_some()
    }

    /// The spill store, if [`Relation::enable_spill`] ran (benchmarks and tests read
    /// its I/O counters and drop its cache through this).
    pub fn spill_store(&self) -> Option<&Arc<BlockStore>> {
        self.store.as_ref()
    }

    /// The relation name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The relation schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of records per chunk / Data Block.
    pub fn chunk_capacity(&self) -> usize {
        self.chunk_capacity
    }

    /// Drop the primary-key index (Table 3 measures point lookups with and without
    /// one). The schema still remembers which attribute is the key.
    pub fn drop_pk_index(&mut self) {
        self.pk_index = None;
    }

    /// (Re-)build the primary-key index over all live records.
    pub fn build_pk_index(&mut self) {
        let Some(pk_col) = self.schema.primary_key() else {
            return;
        };
        let mut index = HashMap::new();
        for block_idx in 0..self.cold.len() {
            let block = self.cold_block_with(block_idx, &[pk_col]);
            for row in 0..block.tuple_count() as usize {
                if block.is_deleted(row) {
                    continue;
                }
                if let Value::Int(key) = block.get(row, pk_col) {
                    index.insert(key, (block_idx as u32, row as u32));
                }
            }
        }
        for (chunk_idx, chunk) in self.hot.iter().enumerate() {
            let number = (self.cold.len() + chunk_idx) as u32;
            for row in 0..chunk.len() {
                if chunk.is_deleted(row) {
                    continue;
                }
                if let Value::Int(key) = chunk.get(row, pk_col) {
                    index.insert(key, (number, row as u32));
                }
            }
        }
        self.pk_index = Some(index);
    }

    /// Does the relation currently maintain a primary-key index?
    pub fn has_pk_index(&self) -> bool {
        self.pk_index.is_some()
    }

    // ----------------------------------------------------------------- OLTP surface

    /// Insert a record (one value per attribute). Returns its location.
    pub fn insert(&mut self, values: Vec<Value>) -> RowId {
        assert_eq!(
            values.len(),
            self.schema.column_count(),
            "value count must match the schema"
        );
        let pk_value = self.schema.primary_key().map(|col| values[col].clone());
        if self.hot.last().map(|c| c.is_full()).unwrap_or(true) {
            let chunk = HotChunk::new(&self.schema, self.chunk_capacity);
            self.hot.push(Arc::new(chunk));
        }
        let chunk_idx = self.hot.len() - 1;
        let row = Arc::make_mut(&mut self.hot[chunk_idx]).insert(values) as u32;
        if let (Some(index), Some(Value::Int(key))) = (&mut self.pk_index, pk_value) {
            index.insert(key, ((self.cold.len() + chunk_idx) as u32, row));
        }
        RowId {
            segment: Segment::Hot(chunk_idx),
            row,
        }
    }

    /// Read one attribute of a record (paging in that attribute of the block if
    /// it is spilled).
    pub fn get(&self, id: RowId, col: usize) -> Value {
        match id.segment {
            Segment::Cold(b) => self.cold_block_with(b, &[col]).get(id.row as usize, col),
            Segment::Hot(c) => self.hot[c].get(id.row as usize, col),
        }
    }

    /// Read a whole record (one page-in of the whole block if it is spilled).
    pub fn get_row(&self, id: RowId) -> Vec<Value> {
        let columns = 0..self.schema.column_count();
        match id.segment {
            Segment::Cold(b) => {
                let block = self.cold_block(b);
                columns.map(|col| block.get(id.row as usize, col)).collect()
            }
            Segment::Hot(c) => columns
                .map(|col| self.hot[c].get(id.row as usize, col))
                .collect(),
        }
    }

    /// Is the record marked deleted? (Pages in only the header section of a
    /// spilled block, which holds its delete flags.)
    pub fn is_deleted(&self, id: RowId) -> bool {
        match id.segment {
            Segment::Cold(b) => self.cold_block_with(b, &[]).is_deleted(id.row as usize),
            Segment::Hot(c) => self.hot[c].is_deleted(id.row as usize),
        }
    }

    /// Delete a record (tombstone in hot chunks, delete flag in frozen blocks).
    ///
    /// On a **spilled** block the flagged version is rewritten through the store
    /// (append-new-frame + directory repoint), so the delete is durable on the
    /// spill file and visible to every clone sharing the store.
    ///
    /// Note the tier-dependent clone semantics this implies: deleting a
    /// heap-resident cold record is copy-on-write (`Arc::make_mut`) and therefore
    /// clone-local, while deleting a spilled record is observed by every clone
    /// (whose own primary-key indexes are *not* updated — treat clones of a
    /// spilling relation as read-only snapshots of the hot tier plus a shared,
    /// mutable cold tier; see the `Relation` docs).
    ///
    /// # Panics
    ///
    /// Panics if the spill store fails to load or rewrite the block. Fault-aware
    /// callers use [`Relation::try_delete`].
    pub fn delete(&mut self, id: RowId) -> bool {
        self.try_delete(id)
            .unwrap_or_else(|err| panic!("rewrite spilled block: {err}"))
    }

    /// Fallible variant of [`Relation::delete`]: an I/O failure while loading or
    /// rewriting a **spilled** block surfaces as the underlying
    /// [`std::io::Error`] instead of a panic, leaving the record untouched
    /// (the store never repoints the directory at a write that failed).
    /// Deleting hot or heap-resident records never does I/O and never errors.
    pub fn try_delete(&mut self, id: RowId) -> std::io::Result<bool> {
        let row = id.row as usize;
        // The primary-key value is captured on the same access that performs the
        // delete, so the spilled path never pages the block in a second time.
        let pk_col = if self.pk_index.is_some() {
            self.schema.primary_key()
        } else {
            None
        };
        let (deleted, key) = match id.segment {
            Segment::Cold(b) => match &mut self.cold[b] {
                ColdSlot::Resident(block) => {
                    let block = Arc::make_mut(block);
                    let deleted = block.delete(row);
                    let key = pk_col.map(|col| block.get(row, col));
                    (deleted, key)
                }
                ColdSlot::Spilled(block_id) => {
                    // `mutate` holds the store's mutation lock across the whole
                    // load → flag → rewrite sequence, so concurrent deletes from
                    // relation clones sharing the store serialise (no lost
                    // tombstones).
                    let store = self.store.as_ref().expect("spilled slot without store");
                    store.mutate(*block_id, |current| {
                        if current.is_deleted(row) {
                            (None, (false, None))
                        } else {
                            let key = pk_col.map(|col| current.get(row, col));
                            let mut block = current.clone();
                            block.delete(row);
                            (Some(block), (true, key))
                        }
                    })?
                }
            },
            Segment::Hot(c) => {
                let chunk = Arc::make_mut(&mut self.hot[c]);
                let deleted = chunk.delete(row);
                let key = pk_col.map(|col| chunk.get(row, col));
                (deleted, key)
            }
        };
        if deleted {
            if let (Some(index), Some(Value::Int(key))) = (&mut self.pk_index, key) {
                index.remove(&key);
            }
        }
        Ok(deleted)
    }

    /// Update a record with new values.
    ///
    /// Hot records are updated in place; frozen records are invalidated (delete flag)
    /// and the new version is re-inserted into the hot tail — exactly the paper's
    /// "update = delete followed by insert" rule for cold data. Returns the location
    /// of the current version.
    pub fn update(&mut self, id: RowId, values: Vec<Value>) -> RowId {
        assert_eq!(
            values.len(),
            self.schema.column_count(),
            "value count must match the schema"
        );
        match id.segment {
            Segment::Hot(c) => {
                let row = id.row as usize;
                let pk_col = self.schema.primary_key();
                let old_key = pk_col.map(|col| self.hot[c].get(row, col));
                let new_key = pk_col.map(|col| values[col].clone());
                let chunk = Arc::make_mut(&mut self.hot[c]);
                for (col, value) in values.into_iter().enumerate() {
                    chunk.update_in_place(row, col, value);
                }
                if let Some(index) = &mut self.pk_index {
                    match (old_key, new_key) {
                        // The key stays: so does its entry.
                        (Some(Value::Int(old)), Some(Value::Int(new))) if old == new => {}
                        (old, new) => {
                            if let Some(Value::Int(old)) = old {
                                index.remove(&old);
                            }
                            if let Some(Value::Int(new)) = new {
                                index.insert(new, ((self.cold.len() + c) as u32, id.row));
                            }
                        }
                    }
                }
                id
            }
            Segment::Cold(_) => {
                self.delete(id);
                self.insert(values)
            }
        }
    }

    /// Point lookup via the primary-key index, if one exists.
    pub fn lookup_pk(&self, key: i64) -> Option<RowId> {
        let &(number, row) = self.pk_index.as_ref()?.get(&key)?;
        let segment = self
            .segment(number as usize)
            .expect("index entry past the last segment");
        let id = RowId { segment, row };
        if self.is_deleted(id) {
            None
        } else {
            Some(id)
        }
    }

    /// Point lookup without an index: a scan over all segments restricted on the
    /// primary-key attribute (SMAs/PSMAs on frozen blocks narrow this scan; on hot
    /// chunks it is a plain scan). Returns the first live match.
    pub fn lookup_pk_scan(&self, key: i64, options: datablocks::ScanOptions) -> Option<RowId> {
        let pk_col = self.schema.primary_key()?;
        let restriction = [Restriction::eq(pk_col, key)];
        // One scratch + one result buffer reused across every block and chunk.
        let mut scratch = Vec::new();
        let mut matches = Vec::new();
        for block_idx in 0..self.cold.len() {
            // SMA pruning from the in-memory directory: a spilled block whose
            // summary rules the key out is never read from disk.
            if !self.cold_block_may_match(block_idx, &restriction, &options) {
                continue;
            }
            let block = self.cold_block_with(block_idx, &[pk_col]);
            matches.clear();
            datablocks::scan::scan_collect_into(
                &block,
                &restriction,
                options,
                &mut scratch,
                &mut matches,
            );
            if let Some(&row) = matches.first() {
                return Some(RowId {
                    segment: Segment::Cold(block_idx),
                    row,
                });
            }
        }
        for (chunk_idx, chunk) in self.hot.iter().enumerate() {
            matches.clear();
            chunk.find_matches(&restriction, 0, chunk.len(), &mut matches);
            if let Some(&row) = matches.first() {
                return Some(RowId {
                    segment: Segment::Hot(chunk_idx),
                    row,
                });
            }
        }
        None
    }

    // ------------------------------------------------------------------- freezing

    /// Freeze every *full* hot chunk into a Data Block, leaving the (possibly
    /// partially filled) tail chunk hot. This is the steady-state behaviour of the
    /// system: cold data migrates to compressed blocks, the hot tail stays mutable.
    /// With a spill store attached the new blocks are written out to disk instead of
    /// retained on the heap.
    ///
    /// # Panics
    ///
    /// Panics if the spill store fails to write a block out. Fault-aware callers
    /// use [`Relation::try_freeze_full_chunks`].
    pub fn freeze_full_chunks(&mut self) {
        self.try_freeze_full_chunks()
            .unwrap_or_else(|err| panic!("spill frozen block: {err}"))
    }

    /// Freeze **all** hot chunks (including the tail). Used when bulk-loading a
    /// relation that is known to be cold, e.g. the OLAP experiments.
    ///
    /// # Panics
    ///
    /// Panics if the spill store fails to write a block out. Fault-aware callers
    /// use [`Relation::try_freeze_all`].
    pub fn freeze_all(&mut self) {
        self.try_freeze_all()
            .unwrap_or_else(|err| panic!("spill frozen block: {err}"))
    }

    /// Freeze all hot chunks, re-ordering the records of each chunk by the given
    /// attribute before compression (the Section 3.2 clustering used by Figure 11).
    ///
    /// # Panics
    ///
    /// Panics if the spill store fails to write a block out. Fault-aware callers
    /// use [`Relation::try_freeze_all_sorted_by`].
    pub fn freeze_all_sorted_by(&mut self, column: usize) {
        self.try_freeze_all_sorted_by(column)
            .unwrap_or_else(|err| panic!("spill frozen block: {err}"))
    }

    /// Fallible variant of [`Relation::freeze_full_chunks`]: a spill-store write
    /// failure surfaces as the underlying [`std::io::Error`]. The freeze itself
    /// still completes — a block whose spill failed stays heap-**resident**
    /// (nothing is lost, it just did not reach disk), and the first error is
    /// returned so the caller knows durability was not achieved.
    pub fn try_freeze_full_chunks(&mut self) -> std::io::Result<()> {
        self.freeze_internal(false, None)
    }

    /// Fallible variant of [`Relation::freeze_all`]; same error contract as
    /// [`Relation::try_freeze_full_chunks`].
    pub fn try_freeze_all(&mut self) -> std::io::Result<()> {
        self.freeze_internal(true, None)
    }

    /// Fallible variant of [`Relation::freeze_all_sorted_by`]; same error
    /// contract as [`Relation::try_freeze_full_chunks`].
    pub fn try_freeze_all_sorted_by(&mut self, column: usize) -> std::io::Result<()> {
        self.freeze_internal(true, Some(column))
    }

    fn freeze_internal(
        &mut self,
        include_partial: bool,
        sort_by: Option<usize>,
    ) -> std::io::Result<()> {
        // `insert` opens a chunk only when the last one is full, so every full
        // chunk is the full prefix of `hot`. Moving that prefix onto the end of
        // `cold` keeps every segment's number (`ScanSource::segment`), and an
        // unsorted freeze keeps every row in place: no PK index entry changes.
        let frozen = (self.hot.iter())
            .take_while(|chunk| chunk.is_full() || (include_partial && !chunk.is_empty()))
            .count();
        debug_assert!(
            self.hot.len() - frozen <= 1,
            "only the tail chunk can be partial"
        );
        let mut first_err: Option<std::io::Error> = None;
        for chunk in self.hot.drain(..frozen) {
            self.cold_uncompressed_bytes += chunk.byte_size();
            let block = match sort_by {
                Some(col) => freeze_sorted(chunk.columns(), col),
                None => freeze(chunk.columns()),
            };
            // Carry over tombstones: records deleted while hot stay deleted when
            // frozen (their positions are preserved by an unsorted freeze; a sorted
            // freeze of a chunk with deletions is rejected to keep ids meaningful).
            // A snapshot may share the chunk, so its flags are copied, a word at a time.
            assert!(
                sort_by.is_none() || chunk.live_len() == chunk.len(),
                "cannot sort-freeze a chunk that already has deletions"
            );
            let block = Arc::new(block.with_deleted(chunk.deleted().clone()));
            let slot = match &self.store {
                // A failed spill keeps the block resident: the freeze still
                // completes (data intact, just not on disk) and the first error
                // is carried out to the caller below.
                Some(store) => match store.append(Arc::clone(&block)) {
                    Ok(id) => ColdSlot::Spilled(id),
                    Err(err) => {
                        if first_err.is_none() {
                            first_err = Some(err);
                        }
                        ColdSlot::Resident(block)
                    }
                },
                None => ColdSlot::Resident(block),
            };
            self.cold.push(slot);
        }
        // A sorted freeze permutes rows: rebuild, paging every cold block's keys in.
        if sort_by.is_some() && self.pk_index.is_some() {
            self.build_pk_index();
        }
        match first_err {
            Some(err) => Err(err),
            None => Ok(()),
        }
    }

    // ------------------------------------------------------------------ inspection

    /// Number of frozen Data Blocks (heap-resident and spilled).
    pub fn cold_block_count(&self) -> usize {
        self.cold.len()
    }

    /// Borrow cold block `idx`, paging it in (and pinning it in the block cache)
    /// when it is spilled. The returned [`BlockRef`] dereferences to [`DataBlock`];
    /// holding it keeps a spilled block pinned, so scans hold one per morsel.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range or the spill store fails to load the block
    /// (I/O error or checksum mismatch). Callers that must survive a bad frame —
    /// scan workers above all — use [`Relation::try_cold_block`].
    pub fn cold_block(&self, idx: usize) -> BlockRef {
        self.try_cold_block(idx)
            .unwrap_or_else(|err| panic!("{err}"))
    }

    /// Fallible variant of [`Relation::cold_block`]: a spilled block that cannot
    /// be paged in (disk error, corrupt frame) comes back as a typed
    /// [`ColdReadError`] naming the block's exact on-disk position instead of
    /// panicking. Still panics if `idx` is out of range (a caller bug, not an
    /// I/O condition).
    pub fn try_cold_block(&self, idx: usize) -> Result<BlockRef, ColdReadError> {
        resolve_cold_slot(&self.cold[idx], self.store.as_ref(), None)
    }

    /// Cold block `idx` with attributes `columns` paged in (see
    /// [`ScanSource::cold_block_columns`]): what the point paths read.
    ///
    /// # Panics
    ///
    /// Like [`Relation::cold_block`], if the spill store fails to load the
    /// block.
    fn cold_block_with(&self, idx: usize, columns: &[usize]) -> BlockRef {
        resolve_cold_slot(&self.cold[idx], self.store.as_ref(), Some(columns))
            .unwrap_or_else(|err| panic!("{err}"))
    }

    /// Can any record of cold block `idx` match all `restrictions`?
    ///
    /// For a spilled block this consults the SMA summary in the store's in-memory
    /// directory — **zero I/O** — replicating exactly the scan planner's SMA
    /// block-skipping gate (see [`datablocks::BlockSummary::may_match`]; the
    /// planner's non-SMA rule-outs, e.g. dictionary probes, still require loading
    /// the block). For a heap-resident block it returns `true` and leaves the
    /// decision to the scan planner, which has the full block at hand; either way
    /// the scan's result and its skip counters are identical.
    pub fn cold_block_may_match(
        &self,
        idx: usize,
        restrictions: &[Restriction],
        options: &ScanOptions,
    ) -> bool {
        cold_slot_may_match(&self.cold[idx], self.store.as_ref(), restrictions, options)
    }

    /// The hot chunks (`Arc`-shared with any live [`ScanSnapshot`]s).
    pub fn hot_chunks(&self) -> &[Arc<HotChunk>] {
        &self.hot
    }

    /// An owned point-in-time view of the scannable state (see [`ScanSnapshot`]).
    pub fn scan_snapshot(&self) -> ScanSnapshot {
        ScanSource::snapshot(self)
    }

    /// Tuple count of one cold slot, answered from the directory summary for
    /// spilled blocks (no I/O).
    fn cold_slot_tuples(&self, slot: &ColdSlot) -> (usize, usize) {
        match slot {
            ColdSlot::Resident(block) => (
                block.tuple_count() as usize,
                block.live_tuple_count() as usize,
            ),
            ColdSlot::Spilled(block_id) => {
                let store = self.store.as_ref().expect("spilled slot without store");
                store.with_summary(*block_id, |s| {
                    (s.tuple_count as usize, s.live_tuple_count() as usize)
                })
            }
        }
    }

    /// Total number of records (live and deleted) across all segments.
    pub fn row_count(&self) -> usize {
        self.cold
            .iter()
            .map(|slot| self.cold_slot_tuples(slot).0)
            .sum::<usize>()
            + self.hot.iter().map(|c| c.len()).sum::<usize>()
    }

    /// Number of live (not deleted) records.
    pub fn live_row_count(&self) -> usize {
        self.cold
            .iter()
            .map(|slot| self.cold_slot_tuples(slot).1)
            .sum::<usize>()
            + self.hot.iter().map(|c| c.live_len()).sum::<usize>()
    }

    /// Estimated number of live records matching every one of `restrictions`,
    /// from metadata alone: a frozen block's SMAs price the share of its rows
    /// each restriction keeps (see `sma_selectivity`), and a hot chunk's rows
    /// take fixed defaults ([`DEFAULT_SELECTIVITY`]; one in ten for `=`).
    /// A spilled block is priced from the store's in-memory directory summary,
    /// so the estimate reads no block and pages nothing in. It only has to get
    /// the order of magnitude right: the query planner compares two such
    /// estimates to pick a join's build side.
    pub fn estimate_rows(&self, restrictions: &[Restriction]) -> f64 {
        let cold: f64 = (self.cold.iter())
            .map(|slot| match slot {
                ColdSlot::Resident(block) => block_estimate(
                    block.live_tuple_count(),
                    |c| (c < block.column_count()).then(|| &block.column(c).sma),
                    restrictions,
                ),
                ColdSlot::Spilled(block_id) => {
                    let store = self.store.as_ref().expect("spilled slot without store");
                    store.with_summary(*block_id, |s| {
                        block_estimate(
                            s.live_tuple_count(),
                            |c| s.columns.get(c).map(|column| &column.sma),
                            restrictions,
                        )
                    })
                }
            })
            .sum();
        let hot_rows: usize = self.hot.iter().map(|c| c.live_len()).sum();
        let hot_share: f64 = restrictions.iter().map(default_selectivity).product();
        cold + hot_rows as f64 * hot_share
    }

    /// Distinct storage-layout combinations across the frozen blocks (each one would
    /// be a separate code path for a JIT-compiled scan — Figure 5). Loads spilled
    /// blocks through the cache.
    pub fn layout_combinations(&self) -> usize {
        let mut layouts: Vec<_> = (0..self.cold.len())
            .map(|idx| self.cold_block(idx).layout_combination())
            .collect();
        layouts.sort();
        layouts.dedup();
        layouts.len()
    }

    /// Storage statistics for size/compression reporting. For spilled blocks
    /// `cold_bytes` reports the serialized on-disk frame size (answered from the
    /// directory, no I/O).
    pub fn storage_stats(&self) -> StorageStats {
        let cold_bytes = self
            .cold
            .iter()
            .map(|slot| match slot {
                ColdSlot::Resident(block) => block.byte_size(),
                ColdSlot::Spilled(block_id) => {
                    let store = self.store.as_ref().expect("spilled slot without store");
                    store.entry_len(*block_id)
                }
            })
            .sum();
        StorageStats {
            cold_blocks: self.cold.len(),
            hot_chunks: self.hot.len(),
            cold_rows: self
                .cold
                .iter()
                .map(|slot| self.cold_slot_tuples(slot).0)
                .sum(),
            hot_rows: self.hot.iter().map(|c| c.len()).sum(),
            cold_bytes,
            hot_bytes: self.hot.iter().map(|c| c.byte_size()).sum(),
            cold_bytes_uncompressed: self.cold_uncompressed_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnDef;
    use datablocks::{DataType, ScanOptions};

    fn schema() -> Schema {
        Schema::new(vec![
            ColumnDef::new("id", DataType::Int),
            ColumnDef::new("grp", DataType::Str),
            ColumnDef::new("amount", DataType::Int),
        ])
        .with_primary_key("id")
    }

    fn filled_relation(rows: i64, chunk_capacity: usize) -> Relation {
        let mut rel = Relation::with_chunk_capacity("t", schema(), chunk_capacity);
        for i in 0..rows {
            rel.insert(vec![
                Value::Int(i),
                Value::Str(format!("g{}", i % 4)),
                Value::Int(i * 10),
            ]);
        }
        rel
    }

    #[test]
    fn insert_and_point_lookup_hot() {
        let rel = filled_relation(100, 1000);
        let id = rel.lookup_pk(42).expect("indexed lookup");
        assert_eq!(rel.get(id, 2), Value::Int(420));
        assert_eq!(rel.get_row(id)[1], Value::Str("g2".into()));
        assert_eq!(rel.row_count(), 100);
    }

    #[test]
    fn freeze_moves_rows_to_cold_and_lookups_still_work() {
        let mut rel = filled_relation(2_500, 1000);
        assert_eq!(rel.hot_chunks().len(), 3);
        rel.freeze_full_chunks();
        assert_eq!(rel.cold_block_count(), 2);
        assert_eq!(rel.hot_chunks().len(), 1);
        // indexed lookup finds rows in both cold and hot segments
        let cold_id = rel.lookup_pk(500).unwrap();
        assert!(matches!(cold_id.segment, Segment::Cold(_)));
        assert_eq!(rel.get(cold_id, 2), Value::Int(5000));
        let hot_id = rel.lookup_pk(2_400).unwrap();
        assert!(matches!(hot_id.segment, Segment::Hot(_)));
        // non-indexed scan lookup agrees
        let scanned = rel.lookup_pk_scan(500, ScanOptions::default()).unwrap();
        assert_eq!(rel.get(scanned, 0), Value::Int(500));
    }

    #[test]
    fn freeze_all_includes_partial_tail() {
        let mut rel = filled_relation(1_500, 1000);
        rel.freeze_all();
        assert_eq!(rel.cold_block_count(), 2);
        assert!(rel.hot_chunks().is_empty());
        assert_eq!(rel.live_row_count(), 1_500);
    }

    #[test]
    fn delete_hides_record_from_lookup() {
        let mut rel = filled_relation(100, 50);
        rel.freeze_all();
        let id = rel.lookup_pk(10).unwrap();
        assert!(rel.delete(id));
        assert!(rel.is_deleted(id));
        assert!(rel.lookup_pk(10).is_none());
        assert!(rel.lookup_pk_scan(10, ScanOptions::default()).is_none());
        assert_eq!(rel.live_row_count(), 99);
    }

    #[test]
    fn update_cold_record_becomes_delete_plus_insert() {
        let mut rel = filled_relation(100, 50);
        rel.freeze_all();
        let old_id = rel.lookup_pk(7).unwrap();
        assert!(matches!(old_id.segment, Segment::Cold(_)));
        let new_id = rel.update(
            old_id,
            vec![Value::Int(7), Value::Str("updated".into()), Value::Int(777)],
        );
        assert!(matches!(new_id.segment, Segment::Hot(_)));
        assert!(rel.is_deleted(old_id));
        let found = rel.lookup_pk(7).unwrap();
        assert_eq!(found, new_id);
        assert_eq!(rel.get(found, 1), Value::Str("updated".into()));
        assert_eq!(rel.get(found, 2), Value::Int(777));
    }

    #[test]
    fn update_hot_record_in_place() {
        let mut rel = filled_relation(10, 100);
        let id = rel.lookup_pk(3).unwrap();
        let same = rel.update(
            id,
            vec![Value::Int(3), Value::Str("x".into()), Value::Int(-1)],
        );
        assert_eq!(id, same);
        assert_eq!(rel.get(id, 2), Value::Int(-1));
    }

    #[test]
    fn a_hot_update_moves_the_index_entry_only_with_its_key() {
        let mut rel = filled_relation(10, 100);
        let id = rel.lookup_pk(3).unwrap();
        rel.update(
            id,
            vec![Value::Int(3), Value::Str("kept".into()), Value::Int(30)],
        );
        assert_eq!(
            rel.lookup_pk(3),
            Some(id),
            "an unchanged key still finds its row"
        );
        rel.update(
            id,
            vec![Value::Int(42), Value::Str("moved".into()), Value::Int(30)],
        );
        assert_eq!(rel.lookup_pk(3), None, "the old key is gone");
        assert_eq!(rel.lookup_pk(42), Some(id), "the new key finds the row");
        assert_eq!(rel.get(id, 1), Value::Str("moved".into()));
        assert_eq!(
            rel.lookup_pk(4).map(|id| rel.get(id, 0)),
            Some(Value::Int(4))
        );
    }

    #[test]
    fn pk_index_can_be_dropped_and_rebuilt() {
        let mut rel = filled_relation(200, 64);
        rel.freeze_all();
        assert!(rel.has_pk_index());
        rel.drop_pk_index();
        assert!(!rel.has_pk_index());
        assert!(rel.lookup_pk(5).is_none());
        assert!(rel.lookup_pk_scan(5, ScanOptions::default()).is_some());
        rel.build_pk_index();
        assert!(rel.lookup_pk(5).is_some());
    }

    #[test]
    fn storage_stats_report_compression() {
        let mut rel = filled_relation(5_000, 1000);
        rel.freeze_all();
        let stats = rel.storage_stats();
        assert_eq!(stats.cold_blocks, 5);
        assert_eq!(stats.cold_rows, 5_000);
        assert_eq!(stats.hot_rows, 0);
        assert!(
            stats.compression_ratio() > 1.5,
            "ratio {}",
            stats.compression_ratio()
        );
        assert!(stats.total_bytes() > 0);
    }

    #[test]
    fn layout_combinations_counted() {
        let mut rel = filled_relation(3_000, 1000);
        rel.freeze_all();
        assert!(rel.layout_combinations() >= 1);
    }

    #[test]
    fn tombstones_survive_freezing() {
        let mut rel = filled_relation(100, 100);
        let id = rel.lookup_pk(55).unwrap();
        rel.delete(id);
        rel.freeze_all();
        assert!(rel.lookup_pk(55).is_none());
        assert_eq!(rel.live_row_count(), 99);
    }

    /// Four frozen blocks of 1 000 ids each (`id` 0..3 999, so block `b` has the
    /// SMA `[1 000 b, 1 000 b + 999]`) and a hot tail of 500 more.
    fn estimate_rows_cases(rel: &Relation) -> Vec<f64> {
        let cases = [
            vec![],
            vec![Restriction::Between {
                column: 0,
                lo: Value::Int(0),
                hi: Value::Int(999),
            }],
            vec![Restriction::cmp(0, CmpOp::Lt, 500i64)],
            vec![Restriction::eq(0, 7i64)],
            vec![Restriction::cmp(0, CmpOp::Ne, 7i64)],
            vec![Restriction::eq(1, "g1")],
            vec![Restriction::cmp(0, CmpOp::Gt, 9_999i64)],
        ];
        cases.iter().map(|c| rel.estimate_rows(c)).collect()
    }

    #[test]
    fn estimate_rows_prices_restrictions_from_smas_without_reading_a_block() {
        let mut rel = filled_relation(4_000, 1_000);
        rel.freeze_all();
        for i in 4_000..4_500 {
            rel.insert(vec![
                Value::Int(i),
                Value::Str(format!("g{}", i % 4)),
                Value::Int(i * 10),
            ]);
        }
        let hot = 500.0;
        let expected = [
            4_500.0,
            // the range covers block 0 and misses the other three
            1_000.0 + hot * DEFAULT_SELECTIVITY,
            500.0 + hot * DEFAULT_SELECTIVITY,
            1.0 + hot * DEFAULT_EQ_SELECTIVITY,
            3_999.0 + hot * DEFAULT_SELECTIVITY,
            // strings are not priced from the SMA: the default, in every block
            4_000.0 * DEFAULT_EQ_SELECTIVITY + hot * DEFAULT_EQ_SELECTIVITY,
            hot * DEFAULT_SELECTIVITY,
        ];
        let resident = estimate_rows_cases(&rel);
        for (got, want) in resident.iter().zip(expected) {
            assert!((got - want).abs() < 1e-6, "{resident:?} vs {expected:?}");
        }

        // Spilled behind a cache smaller than one block, the same estimates
        // come from the directory summaries without a single block read.
        rel.enable_spill(&SpillPolicy::with_cache_capacity(1))
            .unwrap();
        let store = rel.spill_store().unwrap().clone();
        store.clear_cache();
        let reads = store.stats().block_reads;
        assert_eq!(estimate_rows_cases(&rel), resident);
        assert_eq!(store.stats().block_reads, reads);

        // Deleted rows are not estimated.
        rel.delete(rel.lookup_pk(3).unwrap());
        assert_eq!(rel.estimate_rows(&[]), 4_499.0);
    }

    #[test]
    fn enable_spill_moves_existing_and_future_blocks_to_disk() {
        let mut rel = filled_relation(2_500, 1000);
        rel.freeze_full_chunks(); // 2 resident blocks + hot tail
        assert!(!rel.has_spill());
        rel.enable_spill(&SpillPolicy::with_cache_capacity(usize::MAX))
            .unwrap();
        assert!(rel.has_spill());
        let store = rel.spill_store().unwrap().clone();
        assert_eq!(store.block_count(), 2, "existing blocks written out");
        // subsequent freezes spill instead of retaining
        for i in 2_500..4_000 {
            rel.insert(vec![
                Value::Int(i),
                Value::Str(format!("g{}", i % 4)),
                Value::Int(i * 10),
            ]);
        }
        rel.freeze_all();
        assert_eq!(store.block_count(), rel.cold_block_count());
        // everything still readable after dropping the cache (true cold reads)
        store.clear_cache();
        let id = rel.lookup_pk(3_999).unwrap();
        assert_eq!(rel.get(id, 2), Value::Int(39_990));
        assert!(store.stats().block_reads > 0);
    }

    #[test]
    fn enable_spill_twice_is_rejected() {
        let mut rel = filled_relation(100, 100);
        rel.enable_spill(&SpillPolicy::default()).unwrap();
        let err = rel.enable_spill(&SpillPolicy::default()).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::AlreadyExists);
    }

    fn spill_path(tag: &str) -> std::path::PathBuf {
        static N: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        std::env::temp_dir().join(format!(
            "datablocks-relation-{tag}-{}-{}.dbs",
            std::process::id(),
            N.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        ))
    }

    fn named_policy(path: std::path::PathBuf) -> SpillPolicy {
        SpillPolicy {
            cache_capacity_bytes: usize::MAX,
            path: Some(path),
            ..SpillPolicy::default()
        }
    }

    fn remove_spill_files(path: &std::path::Path) {
        BlockStore::remove_files(path).expect("remove spill files");
    }

    #[test]
    fn reopen_spilled_round_trips_cold_tier_and_tombstones() {
        let path = spill_path("reopen");
        let policy = named_policy(path.clone());
        {
            let mut rel = filled_relation(1_000, 250);
            rel.freeze_all();
            rel.enable_spill(&policy).unwrap();
            let id = rel.lookup_pk(123).unwrap();
            assert!(rel.delete(id));
        } // drop closes the store (manifest checkpoint)
        let reopened = Relation::reopen_spilled("t", schema(), &policy).unwrap();
        assert_eq!(reopened.cold_block_count(), 4);
        assert_eq!(reopened.row_count(), 1_000);
        assert_eq!(reopened.live_row_count(), 999, "tombstone survived reopen");
        assert!(reopened.lookup_pk(123).is_none());
        let id = reopened.lookup_pk(456).unwrap();
        assert_eq!(reopened.get(id, 2), Value::Int(4_560));
        // the reopened relation keeps working as a normal spilling relation
        let mut reopened = reopened;
        for i in 1_000..1_300 {
            reopened.insert(vec![
                Value::Int(i),
                Value::Str(format!("g{}", i % 4)),
                Value::Int(i * 10),
            ]);
        }
        reopened.freeze_all();
        assert_eq!(reopened.live_row_count(), 1_299);
        assert!(reopened.spill_store().unwrap().block_count() > 4);
        drop(reopened);
        remove_spill_files(&path);
    }

    #[test]
    fn reopen_spilled_of_live_store_fails_loudly() {
        let path = spill_path("live");
        let policy = named_policy(path.clone());
        let mut rel = filled_relation(200, 100);
        rel.freeze_all();
        rel.enable_spill(&policy).unwrap();
        // same loud error as enable_spill reconfiguration: AlreadyExists
        let err = Relation::reopen_spilled("t", schema(), &policy).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::AlreadyExists);
        drop(rel);
        let reopened = Relation::reopen_spilled("t", schema(), &policy).unwrap();
        assert_eq!(reopened.live_row_count(), 200);
        drop(reopened);
        remove_spill_files(&path);
    }

    #[test]
    fn reopen_spilled_requires_a_path() {
        let err = Relation::reopen_spilled("t", schema(), &SpillPolicy::default()).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    }

    #[test]
    fn spilled_delete_is_durable_across_cache_drops() {
        let mut rel = filled_relation(200, 100);
        rel.freeze_all();
        rel.enable_spill(&SpillPolicy::with_cache_capacity(1))
            .unwrap();
        let id = rel.lookup_pk(42).unwrap();
        assert!(rel.delete(id));
        assert!(!rel.delete(id), "double delete reports false");
        rel.spill_store().unwrap().clear_cache();
        assert!(rel.is_deleted(id));
        assert!(rel.lookup_pk(42).is_none());
        assert_eq!(rel.live_row_count(), 199);
    }

    #[test]
    fn spilled_stats_report_on_disk_bytes_without_io() {
        let mut rel = filled_relation(3_000, 1000);
        rel.freeze_all();
        let resident_stats = rel.storage_stats();
        rel.enable_spill(&SpillPolicy::with_cache_capacity(0))
            .unwrap();
        let store = rel.spill_store().unwrap().clone();
        store.clear_cache();
        store.reset_stats();
        let spilled_stats = rel.storage_stats();
        assert_eq!(spilled_stats.cold_blocks, resident_stats.cold_blocks);
        assert_eq!(spilled_stats.cold_rows, resident_stats.cold_rows);
        assert!(spilled_stats.cold_bytes > 0);
        assert_eq!(rel.row_count(), 3_000);
        assert_eq!(rel.live_row_count(), 3_000);
        // counts and sizes came from the directory, not the payloads
        assert_eq!(store.stats().block_reads, 0);
    }

    /// The spilled relation of the point-path tests — three blocks of 1000 rows
    /// behind a one-byte cache — with its cache cleared and counters reset.
    fn spilled_points() -> (Relation, Arc<BlockStore>) {
        let mut rel = filled_relation(3_000, 1000);
        rel.freeze_all();
        rel.enable_spill(&SpillPolicy::with_cache_capacity(1))
            .unwrap();
        let store = rel.spill_store().unwrap().clone();
        store.clear_cache();
        store.reset_stats();
        (rel, store)
    }

    #[test]
    fn a_cold_get_reads_the_header_section_and_one_attribute() {
        let (rel, store) = spilled_points();
        let id = RowId {
            segment: Segment::Cold(1),
            row: 17,
        };
        let table = store.sections(1).unwrap();
        assert_eq!(rel.get(id, 2), Value::Int(10_170));
        let io = store.stats();
        assert_eq!(io.block_reads, 1);
        // the header section (89 bytes for three attributes and no deletes)
        // and `amount`'s section (1 000 two-byte codes, 2 033 bytes)
        assert_eq!(io.bytes_read, 2_122);
        assert_eq!(
            io.bytes_read,
            u64::from(table.header_len) + u64::from(table.attributes[2].len)
        );
        // a delete flag is in the header section
        store.clear_cache();
        store.reset_stats();
        assert!(!rel.is_deleted(id));
        assert_eq!(store.stats().bytes_read, u64::from(table.header_len));
    }

    #[test]
    fn key_paths_read_the_key_attribute_only() {
        let (mut rel, store) = spilled_points();
        let key_and_header: u64 = (0..3)
            .map(|b| {
                let table = store.sections(b).unwrap();
                u64::from(table.header_len) + u64::from(table.attributes[0].len)
            })
            .sum();
        rel.build_pk_index();
        assert_eq!(store.stats().bytes_read, key_and_header);
        store.clear_cache();
        store.reset_stats();
        let id = rel.lookup_pk_scan(2_500, ScanOptions::default()).unwrap();
        assert_eq!(id.segment, Segment::Cold(2));
        // the summary prunes blocks 0 and 1: only block 2's key is read
        let table = store.sections(2).unwrap();
        assert_eq!(
            store.stats().bytes_read,
            u64::from(table.header_len) + u64::from(table.attributes[0].len)
        );
    }

    #[test]
    fn clones_share_the_spill_store() {
        let mut rel = filled_relation(1_000, 500);
        rel.freeze_all();
        rel.enable_spill(&SpillPolicy::default()).unwrap();
        let clone = rel.clone();
        assert!(Arc::ptr_eq(
            rel.spill_store().unwrap(),
            clone.spill_store().unwrap()
        ));
        let id = clone.lookup_pk(123).unwrap();
        assert_eq!(clone.get(id, 2), Value::Int(1_230));
    }

    #[test]
    fn sorted_freeze_orders_block_contents() {
        let mut rel = Relation::with_chunk_capacity("t", schema(), 1000);
        for i in (0..1000i64).rev() {
            rel.insert(vec![Value::Int(i), Value::Str("g".into()), Value::Int(i)]);
        }
        rel.freeze_all_sorted_by(0);
        let block = rel.cold_block(0);
        assert_eq!(block.get(0, 0), Value::Int(0));
        assert_eq!(block.get(999, 0), Value::Int(999));
        // index still finds the right record after the permutation
        let id = rel.lookup_pk(123).unwrap();
        assert_eq!(rel.get(id, 2), Value::Int(123));
    }
}
