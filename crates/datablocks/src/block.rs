//! The Data Block container: a self-contained, immutable, compressed columnar
//! representation of one chunk of a relation (Section 3).

use std::sync::OnceLock;

use crate::compression::{ColumnCompression, SchemeKind};
use crate::psma::{psma_slots_for, Psma};
use crate::sma::Sma;
use crate::value::Value;

/// Default number of records frozen into one Data Block (the paper's default of
/// 2^16; smaller blocks pay proportionally more metadata overhead, see Figure 10).
pub const DEFAULT_BLOCK_CAPACITY: usize = 1 << 16;

/// One attribute of a Data Block: the chosen compression, its Small Materialized
/// Aggregate, its Positional SMA and (if the attribute is nullable) a validity bitmap.
#[derive(Debug, Clone)]
pub struct BlockColumn {
    /// The compressed payload.
    pub compression: ColumnCompression,
    /// Min/max of the attribute in this block.
    pub sma: Sma,
    /// Positional SMA over the compressed code words, read through
    /// [`BlockColumn::psma`]. Freezing builds it; a block decoded from its flat
    /// layout leaves it empty until a scan first probes it, so a page-in costs a
    /// copy and not a table build per attribute. Set to `None` when the
    /// attribute has no PSMA (single-value and floating-point attributes have
    /// no code vector to index).
    psma: OnceLock<Option<Psma>>,
    /// Validity bitmap (`false` = NULL); absent when the attribute has no NULLs.
    pub validity: Option<Vec<bool>>,
}

impl BlockColumn {
    /// A freshly frozen attribute, its PSMA built now.
    pub(crate) fn frozen(
        compression: ColumnCompression,
        sma: Sma,
        validity: Option<Vec<bool>>,
    ) -> BlockColumn {
        let psma = compression.codes().and_then(Psma::of_codes);
        BlockColumn {
            compression,
            sma,
            psma: OnceLock::from(psma),
            validity,
        }
    }

    /// A decoded attribute whose PSMA, if `has_psma`, waits for its first probe.
    pub(crate) fn decoded(
        compression: ColumnCompression,
        sma: Sma,
        has_psma: bool,
        validity: Option<Vec<bool>>,
    ) -> BlockColumn {
        let pending = has_psma && compression.codes().is_some_and(|codes| !codes.is_empty());
        let psma = if pending {
            OnceLock::new()
        } else {
            OnceLock::from(None)
        };
        BlockColumn {
            compression,
            sma,
            psma,
            validity,
        }
    }

    /// The attribute's PSMA, built on the first call if the block was decoded.
    pub fn psma(&self) -> Option<&Psma> {
        self.psma
            .get_or_init(|| self.compression.codes().and_then(Psma::of_codes))
            .as_ref()
    }

    /// Does the attribute carry a PSMA? Answered without building it.
    pub fn has_psma(&self) -> bool {
        self.psma.get().is_none_or(Option::is_some)
    }

    /// Is the value at `row` NULL?
    #[inline]
    pub fn is_null(&self, row: usize) -> bool {
        match &self.compression {
            ColumnCompression::SingleValue(Value::Null) => true,
            _ => self.validity.as_ref().map(|v| !v[row]).unwrap_or(false),
        }
    }

    /// Decompress the value at `row`, honouring NULLs.
    pub fn get(&self, row: usize) -> Value {
        if self.is_null(row) {
            Value::Null
        } else {
            self.compression.get(row)
        }
    }

    /// In-memory size of the column's compressed data, SMA and PSMA in bytes.
    pub fn byte_size(&self) -> usize {
        self.byte_size_without_psma() + self.psma_byte_size()
    }

    /// Size without the PSMA index (used to quantify the PSMA overhead).
    pub fn byte_size_without_psma(&self) -> usize {
        self.compression.byte_size()
            + self.sma.serialized_size()
            + self.validity.as_ref().map(|v| v.len() / 8 + 1).unwrap_or(0)
    }

    /// Size of the PSMA table, built or not: `psma_slots_for(max code)` slots of
    /// 8 bytes, the max code read off the scheme (every code from 0 to it
    /// occurs), so a decoded block accounts exactly like the frozen one.
    fn psma_byte_size(&self) -> usize {
        if !self.has_psma() {
            return 0;
        }
        let max_code = match (&self.compression, &self.sma) {
            (ColumnCompression::Truncated { .. }, Sma::Int { min, max }) => {
                max.wrapping_sub(*min) as u64
            }
            (ColumnCompression::DictInt { dict, .. }, _) => dict.len().saturating_sub(1) as u64,
            (ColumnCompression::DictStr { dict, .. }, _) => dict.len().saturating_sub(1) as u64,
            _ => 0,
        };
        psma_slots_for(max_code) * 8
    }
}

/// Two attributes are equal when their data is: the PSMA is derived from the
/// codes, so only whether one exists is compared, and nothing is built.
impl PartialEq for BlockColumn {
    fn eq(&self, other: &BlockColumn) -> bool {
        self.compression == other.compression
            && self.sma == other.sma
            && self.has_psma() == other.has_psma()
            && self.validity == other.validity
    }
}

/// An immutable ("frozen") compressed block of records.
///
/// A Data Block stores all attributes of a sequence of tuples in compressed columnar
/// format (PAX-style). Once frozen the contained data never changes; the only
/// permitted mutation is marking a record as deleted, which sets a flag — updates are
/// handled by the storage layer as delete-plus-reinsert into a hot chunk.
#[derive(Debug, Clone, PartialEq)]
pub struct DataBlock {
    tuple_count: u32,
    columns: Vec<BlockColumn>,
    /// Lazily allocated delete flags (`true` = record deleted).
    deleted: Option<Vec<bool>>,
    deleted_count: u32,
}

impl DataBlock {
    /// Assemble a block from already-frozen columns. Used by the builder; all columns
    /// must describe the same number of records.
    pub(crate) fn from_parts(tuple_count: u32, columns: Vec<BlockColumn>) -> DataBlock {
        DataBlock {
            tuple_count,
            columns,
            deleted: None,
            deleted_count: 0,
        }
    }

    /// Number of records stored in the block (including deleted ones).
    pub fn tuple_count(&self) -> u32 {
        self.tuple_count
    }

    /// Number of records not marked as deleted.
    pub fn live_tuple_count(&self) -> u32 {
        self.tuple_count - self.deleted_count
    }

    /// Number of attributes.
    pub fn column_count(&self) -> usize {
        self.columns.len()
    }

    /// Access one attribute's block-level metadata and compressed payload.
    pub fn column(&self, col: usize) -> &BlockColumn {
        &self.columns[col]
    }

    /// All attributes.
    pub fn columns(&self) -> &[BlockColumn] {
        &self.columns
    }

    /// Point access: decompress attribute `col` of record `row` (Section 3.4 —
    /// point accesses skip all scan machinery and unpack a single position).
    pub fn get(&self, row: usize, col: usize) -> Value {
        self.columns[col].get(row)
    }

    /// Has record `row` been marked deleted?
    pub fn is_deleted(&self, row: usize) -> bool {
        self.deleted.as_ref().map(|d| d[row]).unwrap_or(false)
    }

    /// Mark record `row` as deleted. Returns `false` if it was already deleted.
    ///
    /// This is the only mutation a frozen block supports.
    pub fn delete(&mut self, row: usize) -> bool {
        let flags = self
            .deleted
            .get_or_insert_with(|| vec![false; self.tuple_count as usize]);
        if flags[row] {
            false
        } else {
            flags[row] = true;
            self.deleted_count += 1;
            true
        }
    }

    /// True if any record in the block carries a delete flag.
    pub fn has_deletions(&self) -> bool {
        self.deleted_count > 0
    }

    /// Borrow the delete-flag bitmap, if any deletions happened.
    pub fn deleted_flags(&self) -> Option<&[bool]> {
        self.deleted.as_deref()
    }

    /// The storage-layout combination of this block: the compression scheme of every
    /// attribute. A tuple-at-a-time JIT engine would need one generated code path per
    /// distinct combination (Section 4, Figure 5).
    pub fn layout_combination(&self) -> Vec<SchemeKind> {
        self.columns.iter().map(|c| c.compression.kind()).collect()
    }

    /// Total in-memory size of the block in bytes, including SMAs, PSMAs, validity
    /// and delete bitmaps, plus a fixed per-attribute header (tuple count, scheme tag
    /// and the four offsets of Figure 3).
    pub fn byte_size(&self) -> usize {
        let header = 4 + self.columns.len() * 20;
        header
            + self.columns.iter().map(|c| c.byte_size()).sum::<usize>()
            + self.deleted.as_ref().map(|d| d.len() / 8 + 1).unwrap_or(0)
    }

    /// Block size excluding the PSMA lookup tables (quantifies index overhead).
    pub fn byte_size_without_psma(&self) -> usize {
        let header = 4 + self.columns.len() * 20;
        header
            + self
                .columns
                .iter()
                .map(|c| c.byte_size_without_psma())
                .sum::<usize>()
            + self.deleted.as_ref().map(|d| d.len() / 8 + 1).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::freeze;
    use crate::column::{Column, ColumnData};
    use crate::layout::tests::rich_block;

    fn sample_block() -> DataBlock {
        let a = Column::from_data(ColumnData::Int((0..100).collect()));
        let b = Column::from_data(ColumnData::Str(
            (0..100).map(|i| format!("s{}", i % 5)).collect(),
        ));
        let c = Column::from_data(ColumnData::Double(
            (0..100).map(|i| i as f64 / 2.0).collect(),
        ));
        freeze(&[a, b, c])
    }

    #[test]
    fn point_access_roundtrip() {
        let block = sample_block();
        assert_eq!(block.tuple_count(), 100);
        assert_eq!(block.column_count(), 3);
        assert_eq!(block.get(42, 0), Value::Int(42));
        assert_eq!(block.get(42, 1), Value::Str("s2".into()));
        assert_eq!(block.get(42, 2), Value::Double(21.0));
    }

    #[test]
    fn delete_flags() {
        let mut block = sample_block();
        assert!(!block.is_deleted(10));
        assert!(!block.has_deletions());
        assert!(block.delete(10));
        assert!(block.is_deleted(10));
        assert!(!block.delete(10), "double delete reports false");
        assert_eq!(block.live_tuple_count(), 99);
        assert!(block.has_deletions());
        // Deleting does not change the stored data — the record is only flagged.
        assert_eq!(block.get(10, 0), Value::Int(10));
    }

    #[test]
    fn layout_combination_lists_all_attributes() {
        let block = sample_block();
        let layout = block.layout_combination();
        assert_eq!(layout.len(), 3);
        assert!(matches!(layout[0], SchemeKind::Truncated(1)));
        assert!(matches!(layout[1], SchemeKind::DictStr(1)));
        assert!(matches!(layout[2], SchemeKind::Double));
    }

    #[test]
    fn byte_size_includes_psma_overhead() {
        let block = sample_block();
        assert!(block.byte_size() > block.byte_size_without_psma());
    }

    /// Columns of `block` whose PSMA has been built.
    fn built_psmas(block: &DataBlock) -> usize {
        block
            .columns()
            .iter()
            .filter(|c| c.psma.get().is_some())
            .count()
    }

    #[test]
    fn decoding_and_accounting_build_no_psma() {
        let block = rich_block();
        let frozen_psmas = built_psmas(&block);
        assert_eq!(
            frozen_psmas,
            block.column_count(),
            "freeze fills every PSMA slot"
        );
        let bytes = crate::layout::to_bytes(&block);
        let restored = crate::layout::from_bytes(&bytes).unwrap();
        // single-value and double columns are settled at decode: they have none
        let settled = restored.columns().iter().filter(|c| !c.has_psma()).count();
        assert_eq!(built_psmas(&restored), settled);
        assert_eq!(crate::layout::to_bytes(&restored), bytes);
        let _ = crate::frame::BlockSummary::of(&restored);
        assert_eq!(restored.byte_size(), block.byte_size());
        assert_eq!(
            restored.byte_size_without_psma(),
            block.byte_size_without_psma()
        );
        assert_eq!(restored, block);
        assert_eq!(
            built_psmas(&restored),
            settled,
            "no accessor but psma() builds"
        );
        assert!(restored.column(0).psma().is_some());
        assert_eq!(
            built_psmas(&restored),
            settled + 1,
            "a probe builds one column"
        );
    }

    #[test]
    fn concurrent_first_probes_build_one_table() {
        let block = rich_block();
        let restored = std::sync::Arc::new(
            crate::layout::from_bytes(&crate::layout::to_bytes(&block)).unwrap(),
        );
        let tables: Vec<Psma> = std::thread::scope(|scope| {
            let probes: Vec<_> = (0..8)
                .map(|_| scope.spawn(|| restored.column(2).psma().cloned().unwrap()))
                .collect();
            probes
                .into_iter()
                .map(|probe| probe.join().unwrap())
                .collect()
        });
        let expected = block.column(2).psma().unwrap();
        assert!(tables.iter().all(|table| table == expected));
        assert!(std::ptr::eq(
            restored.column(2).psma().unwrap(),
            restored.column(2).psma().unwrap()
        ));
    }
}
