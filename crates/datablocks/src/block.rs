//! The Data Block container: a self-contained, immutable, compressed columnar
//! representation of one chunk of a relation (Section 3).

use std::sync::{Arc, OnceLock};

use crate::bitmap::Bitmap;
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
    /// copy and not a table build per attribute. Either build takes the code
    /// domain from the scheme (`max_code`) and stops scanning once every slot
    /// it can reach is settled. Set to `None` when the
    /// attribute has no PSMA (single-value and floating-point attributes have
    /// no code vector to index).
    psma: OnceLock<Option<Psma>>,
    /// Validity bitmap (a clear bit = NULL); absent when the attribute has no NULLs.
    pub validity: Option<Bitmap>,
}

impl BlockColumn {
    /// A freshly frozen attribute, its PSMA built now.
    pub(crate) fn frozen(
        compression: ColumnCompression,
        sma: Sma,
        validity: Option<Bitmap>,
    ) -> BlockColumn {
        let column = BlockColumn {
            compression,
            sma,
            psma: OnceLock::new(),
            validity,
        };
        column.psma();
        column
    }

    /// A decoded attribute whose PSMA, if `has_psma`, waits for its first probe.
    pub(crate) fn decoded(
        compression: ColumnCompression,
        sma: Sma,
        has_psma: bool,
        validity: Option<Bitmap>,
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
            .get_or_init(|| Psma::of_codes(self.compression.codes()?, self.max_code()?))
            .as_ref()
    }

    /// The largest code of the attribute's code vector, read off the scheme:
    /// for truncation the SMA's max less its min, for a dictionary its last
    /// index. Codes run from 0 to it and both ends occur (a NULL row holds
    /// code 0). `None` without a code vector.
    fn max_code(&self) -> Option<u64> {
        Some(match (&self.compression, &self.sma) {
            (ColumnCompression::Truncated { .. }, Sma::Int { min, max }) => {
                max.wrapping_sub(*min) as u64
            }
            (ColumnCompression::DictInt { dict, .. }, _) => dict.len().saturating_sub(1) as u64,
            (ColumnCompression::DictStr { dict, .. }, _) => dict.len().saturating_sub(1) as u64,
            _ => return None,
        })
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
            _ => self.validity.as_ref().is_some_and(|v| !v.get(row)),
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
            + self.validity.as_ref().map_or(0, |v| v.len() / 8 + 1)
    }

    /// Size of the PSMA table, built or not: `psma_slots_for(max_code)` slots of
    /// 8 bytes, the domain the build takes, so a decoded block accounts
    /// exactly like the frozen one.
    fn psma_byte_size(&self) -> usize {
        match self.max_code() {
            Some(max_code) if self.has_psma() => psma_slots_for(max_code) * 8,
            _ => 0,
        }
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
///
/// A block paged in from a frame may hold only some of its attributes: a
/// projected page-in ([`crate::frame::decode_header`] plus
/// [`crate::frame::SectionTable::decode_attribute`]) decodes the header and the
/// attributes a reader asked for, and the others stay on disk. Reading an
/// attribute that was not paged in panics, naming it; it never yields a value.
#[derive(Debug, Clone, PartialEq)]
pub struct DataBlock {
    tuple_count: u32,
    columns: Attributes,
    /// Delete flags (a set bit = record deleted); `None` until a record is deleted.
    deleted: Option<Bitmap>,
}

/// The attributes of a block: held in place when the block has all of them,
/// which keeps a scan of a frozen block one load from its attribute; shared
/// one by one when it was paged in by attribute, so a block that gains
/// attributes shares the ones it had with every earlier view of it.
#[derive(Debug, Clone)]
enum Attributes {
    /// Every attribute: a frozen block, or one decoded whole.
    All(Vec<BlockColumn>),
    /// One slot per attribute, `None` for an attribute left on disk.
    Paged(Vec<Option<Arc<BlockColumn>>>),
}

impl Attributes {
    fn len(&self) -> usize {
        match self {
            Attributes::All(columns) => columns.len(),
            Attributes::Paged(slots) => slots.len(),
        }
    }

    fn get(&self, col: usize) -> Option<&BlockColumn> {
        match self {
            Attributes::All(columns) => Some(&columns[col]),
            Attributes::Paged(slots) => slots[col].as_deref(),
        }
    }
}

/// Equal when the same attributes are held and hold the same data, whichever
/// way they are held.
impl PartialEq for Attributes {
    fn eq(&self, other: &Attributes) -> bool {
        self.len() == other.len() && (0..self.len()).all(|col| self.get(col) == other.get(col))
    }
}

impl DataBlock {
    /// Assemble a block from already-frozen columns. Used by the builder; all columns
    /// must describe the same number of records.
    pub(crate) fn from_parts(tuple_count: u32, columns: Vec<BlockColumn>) -> DataBlock {
        DataBlock {
            tuple_count,
            columns: Attributes::All(columns),
            deleted: None,
        }
    }

    /// A block of `column_count` attributes of which none is paged in yet: what
    /// a frame's header section decodes to.
    pub(crate) fn header_only(tuple_count: u32, column_count: usize) -> DataBlock {
        DataBlock {
            tuple_count,
            columns: Attributes::Paged(vec![None; column_count]),
            deleted: None,
        }
    }

    /// This header-only block with every attribute, `columns` in attribute
    /// order: a block decoded whole.
    pub(crate) fn with_all_columns(mut self, columns: Vec<BlockColumn>) -> DataBlock {
        assert_eq!(
            columns.len(),
            self.column_count(),
            "one column per attribute"
        );
        self.columns = Attributes::All(columns);
        self
    }

    /// This block with `columns` filled into the attribute slots it lacks. An
    /// attribute the block already holds keeps its own copy (and its PSMA, if
    /// built).
    pub fn with_columns(
        &self,
        columns: impl IntoIterator<Item = (usize, Arc<BlockColumn>)>,
    ) -> DataBlock {
        let mut block = self.clone();
        if let Attributes::Paged(slots) = &mut block.columns {
            for (col, column) in columns {
                slots[col].get_or_insert(column);
            }
        }
        block
    }

    /// Number of records stored in the block (including deleted ones).
    pub fn tuple_count(&self) -> u32 {
        self.tuple_count
    }

    /// Number of records not marked as deleted.
    pub fn live_tuple_count(&self) -> u32 {
        self.tuple_count - self.deleted.as_ref().map_or(0, Bitmap::count_ones) as u32
    }

    /// Number of attributes, paged in or not.
    pub fn column_count(&self) -> usize {
        self.columns.len()
    }

    /// Is attribute `col` paged in? Always `true` for a block that was frozen
    /// or decoded whole.
    pub fn has_column(&self, col: usize) -> bool {
        self.columns.get(col).is_some()
    }

    /// Is every attribute paged in? Answered without a walk for a block that
    /// was frozen or decoded whole.
    pub fn has_all_columns(&self) -> bool {
        match &self.columns {
            Attributes::All(_) => true,
            Attributes::Paged(slots) => slots.iter().all(Option::is_some),
        }
    }

    /// Access one attribute's block-level metadata and compressed payload.
    ///
    /// # Panics
    ///
    /// If attribute `col` was not paged in.
    pub fn column(&self, col: usize) -> &BlockColumn {
        match self.columns.get(col) {
            Some(column) => column,
            None => panic!("attribute {col} of this Data Block was not paged in"),
        }
    }

    /// All attributes, in attribute order.
    ///
    /// # Panics
    ///
    /// On reaching an attribute that was not paged in.
    pub fn columns(&self) -> impl ExactSizeIterator<Item = &BlockColumn> {
        (0..self.columns.len()).map(|col| self.column(col))
    }

    /// Point access: decompress attribute `col` of record `row` (Section 3.4 —
    /// point accesses skip all scan machinery and unpack a single position).
    pub fn get(&self, row: usize, col: usize) -> Value {
        self.column(col).get(row)
    }

    /// Has record `row` been marked deleted?
    #[inline]
    pub fn is_deleted(&self, row: usize) -> bool {
        self.deleted.as_ref().is_some_and(|d| d.get(row))
    }

    /// Mark record `row` as deleted. Returns `false` if it was already deleted.
    ///
    /// This is the only mutation a frozen block supports.
    pub fn delete(&mut self, row: usize) -> bool {
        let rows = self.tuple_count as usize;
        let flags = self
            .deleted
            .get_or_insert_with(|| Bitmap::filled(rows, false));
        let fresh = !flags.get(row);
        flags.set(row, true);
        fresh
    }

    /// This block with the records set in `flags`, one flag per record, deleted.
    pub fn with_deleted(mut self, flags: Bitmap) -> DataBlock {
        let rows = self.tuple_count as usize;
        assert_eq!(flags.len(), rows, "one flag per record");
        self.deleted = (flags.count_ones() > 0).then_some(flags);
        self
    }

    /// Borrow the delete-flag bitmap, if any deletions happened.
    pub fn deleted_flags(&self) -> Option<&Bitmap> {
        self.deleted.as_ref()
    }

    /// The storage-layout combination of this block: the compression scheme of every
    /// attribute. A tuple-at-a-time JIT engine would need one generated code path per
    /// distinct combination (Section 4, Figure 5).
    pub fn layout_combination(&self) -> Vec<SchemeKind> {
        self.columns().map(|c| c.compression.kind()).collect()
    }

    /// Total in-memory size of the block in bytes, including SMAs, PSMAs, validity
    /// and delete bitmaps, plus a fixed per-attribute header (tuple count, scheme tag
    /// and the four offsets of Figure 3). An attribute that is not paged in
    /// counts only its header entry: this is the size a block cache accounts.
    pub fn byte_size(&self) -> usize {
        self.header_byte_size() + self.loaded().map(|c| c.byte_size()).sum::<usize>()
    }

    /// Block size excluding the PSMA lookup tables (quantifies index overhead).
    pub fn byte_size_without_psma(&self) -> usize {
        self.header_byte_size()
            + self
                .loaded()
                .map(|c| c.byte_size_without_psma())
                .sum::<usize>()
    }

    /// The accounted size of the header: the tuple count, a fixed entry per
    /// attribute and the delete bitmap.
    pub fn header_byte_size(&self) -> usize {
        4 + self.columns.len() * 20 + self.deleted.as_ref().map_or(0, |d| d.len() / 8 + 1)
    }

    /// The attributes that are paged in.
    fn loaded(&self) -> impl Iterator<Item = &BlockColumn> {
        (0..self.columns.len()).filter_map(|col| self.columns.get(col))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::freeze;
    use crate::column::{Column, ColumnData};
    use crate::compression::CodeVec;
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
        assert!(block.deleted_flags().is_none());
        assert!(block.delete(10));
        assert!(block.is_deleted(10));
        assert!(!block.delete(10), "double delete reports false");
        assert_eq!(block.live_tuple_count(), 99);
        assert!(block.deleted_flags().is_some());
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
        block.columns().filter(|c| c.psma.get().is_some()).count()
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
        let settled = restored.columns().filter(|c| !c.has_psma()).count();
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

    /// A named code vector and its validity bitmap.
    type Case = (&'static str, Vec<u64>, Option<Bitmap>);

    /// Seeded code vectors, each running from 0 to its max code, in the
    /// shapes that decide where the bounded build stops.
    fn code_vectors(max: u64, seed: u64) -> Vec<Case> {
        let mut x = seed;
        let mut next = move |bound: u64| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 11) % bound
        };
        let uniform = |next: &mut dyn FnMut(u64) -> u64, n: usize| -> Vec<u64> {
            let mut codes: Vec<u64> = (0..n).map(|_| next(max.saturating_add(1))).collect();
            let (a, b) = (next(n as u64) as usize, next(n as u64) as usize);
            codes[a] = 0;
            codes[if a == b { (b + 1) % n } else { b }] = max;
            codes
        };
        let shuffle = |next: &mut dyn FnMut(u64) -> u64, mut codes: Vec<u64>| {
            for i in (1..codes.len()).rev() {
                codes.swap(i, next(i as u64 + 1) as usize);
            }
            codes
        };
        // one code per slot the domain reaches: every delta below 256, then
        // the top byte of each wider delta
        let mut reps: Vec<u64> = (0..=max.min(255)).collect();
        for r in 1..8 {
            reps.extend((1..256u64).map(|m| m << (8 * r)).take_while(|&d| d <= max));
        }
        reps.push(max);
        reps.dedup();
        let mut cases = vec![
            (
                "low cardinality",
                {
                    let mid = max / 2;
                    (0..5000).map(|_| [0, mid, max][next(3) as usize]).collect()
                },
                None,
            ),
            ("uniform", uniform(&mut next, 5000), None),
            ("every slot", shuffle(&mut next, reps.repeat(3)), None),
            (
                "sorted runs",
                {
                    let mut codes = uniform(&mut next, 5000);
                    codes.sort_unstable();
                    codes
                },
                None,
            ),
            (
                "max in the first row only",
                {
                    let mut codes = shuffle(&mut next, reps.repeat(2));
                    codes.retain(|&c| c != max);
                    codes.insert(0, max);
                    codes
                },
                None,
            ),
            (
                "max in the last row only",
                {
                    let mut codes = shuffle(&mut next, reps.repeat(2));
                    codes.retain(|&c| c != max);
                    codes.push(max);
                    codes
                },
                None,
            ),
        ];
        if max == 0 {
            cases.push(("single row", vec![0], None));
        }
        let gone = crate::psma::psma_slot(reps[reps.len() / 2]);
        if gone != 0 && gone != crate::psma::psma_slot(max) {
            let mut codes = shuffle(&mut next, reps.repeat(3));
            codes.retain(|&c| crate::psma::psma_slot(c) != gone);
            cases.push(("one slot missing", codes, None));
        }
        // a NULL row holds code 0; rows 0 and 1 are valid and hold the ends
        let mut codes = uniform(&mut next, 5000);
        let validity = Bitmap::from_fn(codes.len(), |row| row % 7 != 3);
        for row in (!&validity).ones() {
            codes[row] = 0;
        }
        codes[0] = max;
        codes[1] = 0;
        cases.push(("nullable", codes, Some(validity)));
        cases
    }

    /// `codes` stored at every width that holds `max`.
    fn at_every_width(codes: &[u64], max: u64) -> Vec<CodeVec> {
        let mut widths = vec![CodeVec::U64(codes.to_vec())];
        if max <= u32::MAX as u64 {
            widths.push(CodeVec::U32(codes.iter().map(|&c| c as u32).collect()));
        }
        if max <= u16::MAX as u64 {
            widths.push(CodeVec::U16(codes.iter().map(|&c| c as u16).collect()));
        }
        if max <= u8::MAX as u64 {
            widths.push(CodeVec::U8(codes.iter().map(|&c| c as u8).collect()));
        }
        widths
    }

    #[test]
    fn psma_equals_the_reference_build_frozen_and_decoded() {
        let domains = [
            0,
            1,
            2,
            10,
            255,
            256,
            1000,
            65_535,
            70_000,
            3_000_000_000,
            1 << 40,
        ];
        let mut checked = 0;
        for (seed, &max) in domains.iter().enumerate() {
            for (case, codes, validity) in code_vectors(max, seed as u64 + 1) {
                let keys: Vec<i64> = codes.iter().map(|&c| c as i64).collect();
                let reference = crate::psma::reference_build(&keys).unwrap();
                assert_eq!(
                    (reference.min(), reference.max()),
                    (0, max as i64),
                    "{case}"
                );
                for codes in at_every_width(&codes, max) {
                    let base = -1_000;
                    let mut schemes = vec![(
                        ColumnCompression::Truncated {
                            min: base,
                            codes: codes.clone(),
                        },
                        Sma::Int {
                            min: base,
                            max: base + max as i64,
                        },
                    )];
                    if max <= 70_000 {
                        let dict: Vec<i64> = (0..=max as i64).map(|c| c * 3 - 7).collect();
                        let sma = Sma::Int {
                            min: dict[0],
                            max: dict[max as usize],
                        };
                        schemes.push((
                            ColumnCompression::DictInt {
                                dict,
                                codes: codes.clone(),
                            },
                            sma,
                        ));
                        let dict: Vec<String> = (0..=max).map(|c| format!("v{c:06}")).collect();
                        let sma = Sma::Str {
                            min: dict[0].clone(),
                            max: dict[max as usize].clone(),
                        };
                        let dict = dict.into();
                        schemes.push((
                            ColumnCompression::DictStr {
                                dict,
                                codes: codes.clone(),
                            },
                            sma,
                        ));
                    }
                    for (compression, sma) in schemes {
                        let column = BlockColumn::frozen(compression, sma, validity.clone());
                        let block = DataBlock::from_parts(keys.len() as u32, vec![column]);
                        let decoded =
                            crate::layout::from_bytes(&crate::layout::to_bytes(&block)).unwrap();
                        for (form, block) in [("frozen", &block), ("decoded", &decoded)] {
                            let column = block.column(0);
                            let what = format!(
                                "{case}, max {max}, {:?} {form}",
                                column.compression.kind()
                            );
                            assert_eq!(column.psma_byte_size(), reference.byte_size(), "{what}");
                            assert_eq!(column.psma(), Some(&reference), "{what}");
                            checked += 1;
                        }
                    }
                }
            }
        }
        assert!(checked > 400, "{checked}");
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
