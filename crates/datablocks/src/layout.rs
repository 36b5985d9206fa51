//! Flat binary layout of a Data Block (Figure 3).
//!
//! A Data Block is self-contained and pointer-free so it can be evicted to secondary
//! storage (or NVRAM) and read back — or even accessed in place — without any fix-up.
//! This module implements that flat layout, version [`VERSION`]:
//!
//! * a **header**: the magic `DBLK`, the version, the tuple count, the attribute
//!   count, then per attribute the byte offset and the length of its area
//!   (offsets count from the first byte of the layout), then the delete flags (a
//!   presence byte and, if set, a bitmap);
//! * one **area per attribute**, back to back in attribute order, each at the
//!   offset the header names: the compression tag, the SMA, the compressed
//!   payload (single value; frame-of-reference base and code vector; dictionary
//!   and code vector; or plain doubles), whether the attribute had a PSMA, and the
//!   validity bitmap if the attribute holds NULLs.
//!
//! The offset table makes the layout byte-addressable per attribute: a reader
//! that has the header can decode any one attribute from its area alone,
//! which is what lets a spilled block be paged in one attribute at a time
//! ([`crate::frame::SectionTable::decode_attribute`]). PSMAs are derived data
//! and are not stored; a decoded attribute rebuilds its table on the first
//! probe.
//!
//! The in-memory [`DataBlock`] remains the primary working representation; the
//! serialized form is used for persistence, eviction and the size accounting of the
//! evaluation (the serialized size is what Table 1 and Figure 10 report).

use crate::bitmap::Bitmap;
use crate::block::{BlockColumn, DataBlock};
use crate::compression::{CodeVec, ColumnCompression};
use crate::sma::Sma;
use crate::value::Value;

/// Magic bytes identifying a serialized Data Block.
pub const MAGIC: &[u8; 4] = b"DBLK";
/// Current version of the serialized layout.
pub const VERSION: u32 = 2;

/// Errors produced when decoding a serialized Data Block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LayoutError {
    /// The buffer does not start with the Data Block magic.
    BadMagic,
    /// The buffer declares an unsupported layout version.
    UnsupportedVersion(u32),
    /// The buffer ended before the declared content.
    Truncated,
    /// A tag or offset field holds an invalid value.
    Corrupt(&'static str),
}

impl std::fmt::Display for LayoutError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LayoutError::BadMagic => write!(f, "not a serialized Data Block (bad magic)"),
            LayoutError::UnsupportedVersion(v) => write!(f, "unsupported Data Block version {v}"),
            LayoutError::Truncated => write!(f, "serialized Data Block is truncated"),
            LayoutError::Corrupt(what) => write!(f, "corrupt Data Block: {what}"),
        }
    }
}

impl std::error::Error for LayoutError {}

// --- little helpers (shared with the frame module) -------------------------------

pub(crate) struct Writer {
    pub(crate) buf: Vec<u8>,
}

impl Writer {
    pub(crate) fn new() -> Writer {
        Writer { buf: Vec::new() }
    }
    pub(crate) fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    pub(crate) fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    pub(crate) fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    pub(crate) fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    pub(crate) fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    pub(crate) fn bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }
    /// Append `values` little-endian, `N` bytes each, in one pass over a
    /// buffer sized up front.
    fn le_slice<T: Copy, const N: usize>(&mut self, values: &[T], to_le: impl Fn(T) -> [u8; N]) {
        let start = self.buf.len();
        self.buf.resize(start + values.len() * N, 0);
        let (out, _) = self.buf[start..].as_chunks_mut::<N>();
        for (out, &v) in out.iter_mut().zip(values) {
            *out = to_le(v);
        }
    }
    pub(crate) fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.bytes(s.as_bytes());
    }
}

pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }
    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], LayoutError> {
        if self.pos + n > self.buf.len() {
            return Err(LayoutError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    pub(crate) fn u8(&mut self) -> Result<u8, LayoutError> {
        Ok(self.take(1)?[0])
    }
    pub(crate) fn u32(&mut self) -> Result<u32, LayoutError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }
    pub(crate) fn u64(&mut self) -> Result<u64, LayoutError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }
    pub(crate) fn i64(&mut self) -> Result<i64, LayoutError> {
        Ok(i64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }
    pub(crate) fn f64(&mut self) -> Result<f64, LayoutError> {
        Ok(f64::from_bits(self.u64()?))
    }
    /// Read `len` little-endian values of `N` bytes each, as one slice copy.
    fn le_vec<T, const N: usize>(
        &mut self,
        len: usize,
        from_le: impl Fn([u8; N]) -> T,
    ) -> Result<Vec<T>, LayoutError> {
        let raw = self.take(len.checked_mul(N).ok_or(LayoutError::Truncated)?)?;
        Ok(raw.as_chunks::<N>().0.iter().map(|&c| from_le(c)).collect())
    }
    pub(crate) fn str(&mut self) -> Result<String, LayoutError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| LayoutError::Corrupt("invalid utf-8"))
    }
}

// --- serialization ---------------------------------------------------------------

const TAG_SINGLE: u8 = 0;
const TAG_TRUNC: u8 = 1;
const TAG_DICT_INT: u8 = 2;
const TAG_DICT_STR: u8 = 3;
const TAG_DOUBLE: u8 = 4;

const VALUE_NULL: u8 = 0;
const VALUE_INT: u8 = 1;
const VALUE_DOUBLE: u8 = 2;
const VALUE_STR: u8 = 3;

/// Serialize a Data Block into its flat, self-contained byte representation.
pub fn to_bytes(block: &DataBlock) -> Vec<u8> {
    let mut w = Writer::new();
    write_block(&mut w, block);
    w.buf
}

/// Where [`write_block`] put the parts of a layout, as ranges of the writer's
/// buffer.
pub(crate) struct Extents {
    /// End of the header (the first attribute area starts here).
    pub(crate) header_end: usize,
    /// One area per attribute, in attribute order.
    pub(crate) attributes: Vec<std::ops::Range<usize>>,
}

/// Append the flat representation of `block` to `w`, reporting where its header
/// and attribute areas landed.
pub(crate) fn write_block(w: &mut Writer, block: &DataBlock) -> Extents {
    let start = w.buf.len();
    w.bytes(MAGIC);
    w.u32(VERSION);
    w.u32(block.tuple_count());
    w.u32(block.column_count() as u32);
    let table = w.buf.len();
    w.bytes(&vec![0; block.column_count() * 8]);
    match block.deleted_flags() {
        Some(flags) => {
            w.u8(1);
            write_bitmap(w, flags);
        }
        None => w.u8(0),
    }
    let header_end = w.buf.len();
    let mut attributes = Vec::with_capacity(block.column_count());
    for (col, column) in block.columns().enumerate() {
        let area_start = w.buf.len();
        write_column(w, column, block.tuple_count() as usize);
        let (offset, len) = (area_start - start, w.buf.len() - area_start);
        let entry = table + col * 8;
        w.buf[entry..entry + 4].copy_from_slice(&(offset as u32).to_le_bytes());
        w.buf[entry + 4..entry + 8].copy_from_slice(&(len as u32).to_le_bytes());
        attributes.push(area_start..w.buf.len());
    }
    Extents {
        header_end,
        attributes,
    }
}

/// Append one attribute's area: tag, SMA, payload, PSMA flag, validity.
fn write_column(w: &mut Writer, column: &BlockColumn, rows: usize) {
    // compression tag
    match &column.compression {
        ColumnCompression::SingleValue(_) => w.u8(TAG_SINGLE),
        ColumnCompression::Truncated { .. } => w.u8(TAG_TRUNC),
        ColumnCompression::DictInt { .. } => w.u8(TAG_DICT_INT),
        ColumnCompression::DictStr { .. } => w.u8(TAG_DICT_STR),
        ColumnCompression::Double(_) => w.u8(TAG_DOUBLE),
    }
    // SMA
    write_sma(w, &column.sma);
    // compressed payload
    match &column.compression {
        ColumnCompression::SingleValue(v) => write_value(w, v),
        ColumnCompression::Truncated { min, codes } => {
            w.i64(*min);
            write_codes(w, codes);
        }
        ColumnCompression::DictInt { dict, codes } => {
            w.u32(dict.len() as u32);
            w.le_slice(dict, i64::to_le_bytes);
            write_codes(w, codes);
        }
        ColumnCompression::DictStr { dict, codes } => {
            w.u32(dict.len() as u32);
            for s in dict.iter() {
                w.str(s);
            }
            write_codes(w, codes);
        }
        ColumnCompression::Double(values) => {
            w.u32(values.len() as u32);
            w.le_slice(values, f64::to_le_bytes);
        }
    }
    // PSMA: built on first probe after load (it is derived data); we only record
    // whether one existed so the loaded block is identical feature-wise.
    w.u8(column.has_psma() as u8);
    // validity bitmap
    match &column.validity {
        Some(validity) => {
            w.u8(1);
            debug_assert_eq!(validity.len(), rows);
            write_bitmap(w, validity);
        }
        None => w.u8(0),
    }
}

pub(crate) fn write_sma(w: &mut Writer, sma: &Sma) {
    match sma {
        Sma::Int { min, max } => {
            w.u8(1);
            w.i64(*min);
            w.i64(*max);
        }
        Sma::Double { min, max } => {
            w.u8(2);
            w.f64(*min);
            w.f64(*max);
        }
        Sma::Str { min, max } => {
            w.u8(3);
            w.str(min);
            w.str(max);
        }
        Sma::AllNull => w.u8(0),
    }
}

fn write_value(w: &mut Writer, value: &Value) {
    match value {
        Value::Null => w.u8(VALUE_NULL),
        Value::Int(v) => {
            w.u8(VALUE_INT);
            w.i64(*v);
        }
        Value::Double(v) => {
            w.u8(VALUE_DOUBLE);
            w.f64(*v);
        }
        Value::Str(s) => {
            w.u8(VALUE_STR);
            w.str(s);
        }
    }
}

fn write_codes(w: &mut Writer, codes: &CodeVec) {
    w.u8(codes.byte_width() as u8);
    w.u32(codes.len() as u32);
    match codes {
        CodeVec::U8(v) => w.bytes(v),
        CodeVec::U16(v) => w.le_slice(v, u16::to_le_bytes),
        CodeVec::U32(v) => w.le_slice(v, u32::to_le_bytes),
        CodeVec::U64(v) => w.le_slice(v, u64::to_le_bytes),
    }
}

/// A bitmap: its bit count, then [`Bitmap::to_le_bytes`].
fn write_bitmap(w: &mut Writer, bits: &Bitmap) {
    w.u32(bits.len() as u32);
    w.bytes(&bits.to_le_bytes());
}

// --- deserialization ---------------------------------------------------------------

/// Reconstruct a Data Block from its serialized representation.
pub fn from_bytes(bytes: &[u8]) -> Result<DataBlock, LayoutError> {
    let header = read_header(bytes)?;
    let end = header
        .areas
        .last()
        .map_or(header.len, |&(offset, len)| offset + len);
    if bytes.len() < end {
        return Err(LayoutError::Truncated);
    }
    if bytes.len() > end {
        return Err(LayoutError::Corrupt("bytes after the last attribute"));
    }
    let rows = header.block.tuple_count();
    let mut columns = Vec::with_capacity(header.areas.len());
    for &(offset, len) in &header.areas {
        columns.push(read_attribute(&bytes[offset..offset + len], rows)?);
    }
    Ok(header.block.with_all_columns(columns))
}

/// A decoded layout header.
pub(crate) struct Header {
    /// The block with its tuple count and delete flags and no attribute paged in.
    pub(crate) block: DataBlock,
    /// Offset (from the first byte of the layout) and length of each attribute's
    /// area, in attribute order. The areas follow the header back to back.
    pub(crate) areas: Vec<(usize, usize)>,
    /// Length of the header: the first area starts here.
    pub(crate) len: usize,
}

/// Decode the header at the start of `bytes`. Only the header's own bytes
/// are read; the areas it points at may lie beyond the end of `bytes`.
pub(crate) fn read_header(bytes: &[u8]) -> Result<Header, LayoutError> {
    let mut r = Reader::new(bytes);
    if r.take(4)? != MAGIC {
        return Err(LayoutError::BadMagic);
    }
    let version = r.u32()?;
    if version != VERSION {
        return Err(LayoutError::UnsupportedVersion(version));
    }
    let tuple_count = r.u32()?;
    let column_count = r.u32()? as usize;
    let mut areas = Vec::with_capacity(column_count.min(bytes.len() / 8));
    for _ in 0..column_count {
        areas.push((r.u32()? as usize, r.u32()? as usize));
    }
    let mut block = DataBlock::header_only(tuple_count, column_count);
    if r.u8()? == 1 {
        let flags = read_bitmap(&mut r)?;
        if flags.len() != tuple_count as usize {
            return Err(LayoutError::Corrupt("delete bitmap length mismatch"));
        }
        block = block.with_deleted(flags);
    }
    let len = r.pos;
    let mut next = len;
    for &(offset, len) in &areas {
        if offset != next {
            return Err(LayoutError::Corrupt("attribute areas are not back to back"));
        }
        next = offset
            .checked_add(len)
            .ok_or(LayoutError::Corrupt("attribute area overflows"))?;
    }
    Ok(Header { block, areas, len })
}

/// Decode one attribute from its area, which must hold exactly the attribute;
/// `rows` is the block's tuple count.
pub(crate) fn read_attribute(area: &[u8], rows: u32) -> Result<BlockColumn, LayoutError> {
    let mut r = Reader::new(area);
    let column = read_column(&mut r, rows as usize)?;
    if r.pos != area.len() {
        return Err(LayoutError::Corrupt("attribute area length mismatch"));
    }
    Ok(column)
}

fn read_column(r: &mut Reader<'_>, rows: usize) -> Result<BlockColumn, LayoutError> {
    let tag = r.u8()?;
    let sma = read_sma(r)?;
    let compression = match tag {
        TAG_SINGLE => ColumnCompression::SingleValue(read_value(r)?),
        TAG_TRUNC => {
            let min = r.i64()?;
            let codes = read_codes(r)?;
            ColumnCompression::Truncated { min, codes }
        }
        TAG_DICT_INT => {
            let n = r.u32()? as usize;
            let dict = r.le_vec(n, i64::from_le_bytes)?;
            let codes = read_codes(r)?;
            ColumnCompression::DictInt { dict, codes }
        }
        TAG_DICT_STR => {
            let n = r.u32()? as usize;
            let mut dict = Vec::with_capacity(n);
            for _ in 0..n {
                dict.push(r.str()?);
            }
            let codes = read_codes(r)?;
            ColumnCompression::DictStr {
                dict: dict.into(),
                codes,
            }
        }
        TAG_DOUBLE => {
            let n = r.u32()? as usize;
            ColumnCompression::Double(r.le_vec(n, f64::from_le_bytes)?)
        }
        _ => return Err(LayoutError::Corrupt("unknown compression tag")),
    };
    let had_psma = r.u8()? == 1;
    let validity = if r.u8()? == 1 {
        let bits = read_bitmap(r)?;
        if bits.len() != rows {
            return Err(LayoutError::Corrupt("validity bitmap length mismatch"));
        }
        Some(bits)
    } else {
        None
    };
    Ok(BlockColumn::decoded(compression, sma, had_psma, validity))
}

pub(crate) fn read_sma(r: &mut Reader<'_>) -> Result<Sma, LayoutError> {
    Ok(match r.u8()? {
        0 => Sma::AllNull,
        1 => Sma::Int {
            min: r.i64()?,
            max: r.i64()?,
        },
        2 => Sma::Double {
            min: r.f64()?,
            max: r.f64()?,
        },
        3 => Sma::Str {
            min: r.str()?,
            max: r.str()?,
        },
        _ => return Err(LayoutError::Corrupt("unknown SMA tag")),
    })
}

fn read_value(r: &mut Reader<'_>) -> Result<Value, LayoutError> {
    Ok(match r.u8()? {
        VALUE_NULL => Value::Null,
        VALUE_INT => Value::Int(r.i64()?),
        VALUE_DOUBLE => Value::Double(r.f64()?),
        VALUE_STR => Value::Str(r.str()?),
        _ => return Err(LayoutError::Corrupt("unknown value tag")),
    })
}

fn read_codes(r: &mut Reader<'_>) -> Result<CodeVec, LayoutError> {
    let width = r.u8()?;
    let len = r.u32()? as usize;
    Ok(match width {
        1 => CodeVec::U8(r.take(len)?.to_vec()),
        2 => CodeVec::U16(r.le_vec(len, u16::from_le_bytes)?),
        4 => CodeVec::U32(r.le_vec(len, u32::from_le_bytes)?),
        8 => CodeVec::U64(r.le_vec(len, u64::from_le_bytes)?),
        _ => return Err(LayoutError::Corrupt("unknown code width")),
    })
}

/// The inverse of [`write_bitmap`]; padding bits are dropped.
fn read_bitmap(r: &mut Reader<'_>) -> Result<Bitmap, LayoutError> {
    let len = r.u32()? as usize;
    Ok(Bitmap::from_le_bytes(r.take(len.div_ceil(8))?, len))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::builder::{double_column, freeze, int_column, str_column};
    use crate::column::Column;
    use crate::value::DataType;

    pub(crate) fn rich_block() -> DataBlock {
        let ints = int_column((0..5000).map(|i| 100 + i % 700).collect());
        let sparse = int_column(
            (0..5000)
                .map(|i| if i % 2 == 0 { 3 } else { 9_000_000 })
                .collect(),
        );
        let strings = str_column((0..5000).map(|i| format!("cat-{}", i % 11)).collect());
        let doubles = double_column((0..5000).map(|i| i as f64 * 0.125).collect());
        let constant = int_column(vec![77; 5000]);
        let mut nullable = Column::new(DataType::Int);
        for i in 0..5000i64 {
            if i % 13 == 0 {
                nullable.push(Value::Null);
            } else {
                nullable.push(Value::Int(i % 40));
            }
        }
        freeze(&[ints, sparse, strings, doubles, constant, nullable])
    }

    #[test]
    fn roundtrip_preserves_every_value() {
        let block = rich_block();
        let bytes = to_bytes(&block);
        let restored = from_bytes(&bytes).expect("roundtrip");
        assert_eq!(restored.tuple_count(), block.tuple_count());
        assert_eq!(restored.column_count(), block.column_count());
        for row in (0..block.tuple_count() as usize).step_by(97) {
            for col in 0..block.column_count() {
                assert_eq!(
                    restored.get(row, col),
                    block.get(row, col),
                    "row {row} col {col}"
                );
            }
        }
        assert_eq!(restored.layout_combination(), block.layout_combination());
    }

    #[test]
    fn roundtrip_preserves_delete_flags() {
        let mut block = rich_block();
        block.delete(3);
        block.delete(4999);
        let restored = from_bytes(&to_bytes(&block)).unwrap();
        assert!(restored.is_deleted(3));
        assert!(restored.is_deleted(4999));
        assert!(!restored.is_deleted(5));
        assert_eq!(restored.live_tuple_count(), block.live_tuple_count());
    }

    /// The padding bits of a delete bitmap's last byte are no records: set on
    /// disk, they neither count as deletions nor show in the decoded flags.
    #[test]
    fn padding_bits_of_the_delete_bitmap_are_no_records() {
        let mut block = freeze(&[int_column((0..1003).collect())]);
        block.delete(1002);
        let mut bytes = to_bytes(&block);
        // magic, version, tuple count, attribute count, one offset table entry,
        // the presence byte and the bit count; then the bitmap's 126 bytes
        let last = 4 + 4 + 4 + 4 + 8 + 1 + 4 + 1003usize.div_ceil(8) - 1;
        assert_eq!(bytes[last], 1 << (1002 % 8));
        bytes[last] |= 0xff << (1003 % 8);
        let restored = from_bytes(&bytes).unwrap();
        assert_eq!(restored.live_tuple_count(), 1002);
        assert_eq!(restored, block);
    }

    #[test]
    fn roundtrip_rebuilds_psma_equivalently() {
        let block = rich_block();
        let restored = from_bytes(&to_bytes(&block)).unwrap();
        for col in 0..block.column_count() {
            assert_eq!(
                restored.column(col).has_psma(),
                block.column(col).has_psma(),
                "col {col}"
            );
            assert_eq!(
                restored.column(col).psma(),
                block.column(col).psma(),
                "col {col}"
            );
        }
    }

    #[test]
    fn bad_magic_is_rejected() {
        assert_eq!(from_bytes(b"NOPE"), Err(LayoutError::BadMagic));
    }

    #[test]
    fn truncated_buffer_is_rejected() {
        let block = rich_block();
        let bytes = to_bytes(&block);
        let err = from_bytes(&bytes[..bytes.len() / 2]).unwrap_err();
        assert!(matches!(
            err,
            LayoutError::Truncated | LayoutError::Corrupt(_)
        ));
    }

    #[test]
    fn unsupported_version_is_rejected() {
        let block = rich_block();
        let mut bytes = to_bytes(&block);
        bytes[4..8].copy_from_slice(&99u32.to_le_bytes());
        assert_eq!(from_bytes(&bytes), Err(LayoutError::UnsupportedVersion(99)));
    }

    #[test]
    fn error_display_messages() {
        assert!(LayoutError::BadMagic.to_string().contains("magic"));
        assert!(LayoutError::Truncated.to_string().contains("truncated"));
        assert!(LayoutError::Corrupt("x").to_string().contains("x"));
        assert!(LayoutError::UnsupportedVersion(7).to_string().contains('7'));
    }

    #[test]
    fn serialized_size_tracks_block_size() {
        let block = rich_block();
        let bytes = to_bytes(&block);
        // Serialized form excludes the (derived) PSMA tables but includes everything
        // else; the two size measures should be in the same ballpark.
        let lower = block.byte_size_without_psma() / 2;
        let upper = block.byte_size() * 2;
        assert!(
            bytes.len() > lower && bytes.len() < upper,
            "{} not in ({lower}, {upper})",
            bytes.len()
        );
    }
}
