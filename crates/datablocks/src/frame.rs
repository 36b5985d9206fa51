//! The on-disk *frame* around a serialized Data Block, and the block-store
//! *manifest* records that say where frames live.
//!
//! [`crate::layout`] defines the flat byte representation of a block: a header
//! with a per-attribute offset table, then one area per attribute. A frame wraps
//! it for secondary storage and checksums it in **sections**, so a reader can
//! page in one attribute without reading or hashing the others:
//!
//! * the **header section** — frame bytes `[0, header_len)`: the magic, the
//!   version, the section's own XXH64, `header_len`, the attribute count, one
//!   XXH64 per attribute section, and the layout header (tuple count, offset
//!   table, delete flags);
//! * one **attribute section** per attribute — its layout area, in attribute
//!   order, back to back after the header section.
//!
//! [`decode_header`] verifies and decodes the header section into a
//! [`SectionTable`] and a block with no attribute paged in;
//! [`SectionTable::decode_attribute`] verifies and decodes one attribute
//! section. [`from_frame`] is the two together over a whole frame. The checksum
//! turns a torn write or bit rot into [`FrameError::ChecksumMismatch`] instead of
//! a block decoded from garbage — for every section a reader decodes.
//!
//! A frame is not self-describing: the store's manifest is the only record of
//! where a frame lives and what it holds. Each [`ManifestRecord::Put`] carries
//! the block's [`BlockSummary`] — tuple/deleted counts and per-attribute SMAs —
//! so a store rebuilds its directory, and decides SMA block-skipping for
//! **cold** blocks ([`BlockSummary::may_match`]), without any payload I/O: the
//! paper's scan-skipping survives a block's eviction to disk. The byte-exact
//! formats are specified in `crates/datablocks/README.md`.

use std::ops::Range;

use crate::block::{BlockColumn, DataBlock};
use crate::layout::{self, LayoutError, Reader, Writer};
use crate::scan::{Restriction, ScanOptions};
use crate::sma::Sma;

/// Magic bytes identifying a Data Block frame.
pub const FRAME_MAGIC: &[u8; 4] = b"DBFM";
/// Current version of the frame format.
pub const FRAME_VERSION: u32 = 4;
/// Size of the frame's fixed prefix (magic, version, header checksum, header
/// length) in bytes: what a reader needs to learn how long the header section
/// is ([`header_len`]).
pub const FRAME_PREFIX_LEN: usize = 20;
/// Bytes before the per-attribute checksums: the prefix and the attribute count.
const SECTION_SUMS_AT: usize = FRAME_PREFIX_LEN + 4;

/// Magic bytes identifying a block-store *manifest* record.
pub const MANIFEST_MAGIC: &[u8; 4] = b"DBMF";
/// Current version of the manifest record format.
pub const MANIFEST_VERSION: u32 = 2;
/// Size of the fixed manifest record header (magic, version, checksum, body
/// length) in bytes.
pub const MANIFEST_HEADER_LEN: usize = 20;

/// Errors produced when decoding a frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The buffer does not start with the frame magic.
    BadMagic,
    /// The frame declares an unsupported format version.
    UnsupportedVersion(u32),
    /// The buffer ended before the declared content.
    Truncated,
    /// The stored checksum does not match the recomputed one.
    ChecksumMismatch {
        /// Checksum recorded in the header.
        stored: u64,
        /// Checksum recomputed over the frame payload or manifest record body.
        actual: u64,
    },
    /// A manifest record or summary field holds an invalid value.
    Corrupt(&'static str),
    /// The payload failed to decode as a Data Block.
    Layout(LayoutError),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::BadMagic => write!(f, "not a Data Block frame (bad magic)"),
            FrameError::UnsupportedVersion(v) => write!(f, "unsupported frame version {v}"),
            FrameError::Truncated => write!(f, "Data Block frame is truncated"),
            FrameError::ChecksumMismatch { stored, actual } => write!(
                f,
                "frame checksum mismatch (stored {stored:#018x}, actual {actual:#018x})"
            ),
            FrameError::Corrupt(what) => write!(f, "corrupt Data Block frame: {what}"),
            FrameError::Layout(err) => write!(f, "frame payload does not decode: {err}"),
        }
    }
}

impl std::error::Error for FrameError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FrameError::Layout(err) => Some(err),
            _ => None,
        }
    }
}

impl From<LayoutError> for FrameError {
    fn from(err: LayoutError) -> FrameError {
        // A short buffer surfaces identically whether the reader stopped in a
        // header, a summary or the payload.
        match err {
            LayoutError::Truncated => FrameError::Truncated,
            other => FrameError::Layout(other),
        }
    }
}

/// XXH64 with seed 0, the one checksum of this code base: it protects frame
/// payloads, manifest records and wire frames. Not cryptographic — it detects
/// torn writes and bit rot, which is all a local block store needs. It is the
/// published XXH64 (four 64-bit lanes over 32-byte stripes, then the 8-, 4- and
/// 1-byte tails and an avalanche), written out here so that it stays
/// dependency-free, and it hashes eight bytes per multiply where a byte-wise
/// hash does one.
pub fn xxh64(bytes: &[u8]) -> u64 {
    const P1: u64 = 0x9E37_79B1_85EB_CA87;
    const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
    const P3: u64 = 0x1656_67B1_9E37_79F9;
    const P4: u64 = 0x85EB_CA77_C2B2_AE63;
    const P5: u64 = 0x27D4_EB2F_1656_67C5;
    fn round(acc: u64, lane: u64) -> u64 {
        acc.wrapping_add(lane.wrapping_mul(P2))
            .rotate_left(31)
            .wrapping_mul(P1)
    }
    fn merge(acc: u64, lane: u64) -> u64 {
        (acc ^ round(0, lane)).wrapping_mul(P1).wrapping_add(P4)
    }
    fn u64_at(bytes: &[u8]) -> u64 {
        u64::from_le_bytes(bytes[..8].try_into().expect("8 bytes"))
    }

    let stripes = bytes.chunks_exact(32);
    let mut rest = stripes.remainder();
    let mut hash = if bytes.len() >= 32 {
        let [mut v1, mut v2, mut v3, mut v4] = [P1.wrapping_add(P2), P2, 0, P1.wrapping_neg()];
        for stripe in stripes {
            v1 = round(v1, u64_at(&stripe[0..]));
            v2 = round(v2, u64_at(&stripe[8..]));
            v3 = round(v3, u64_at(&stripe[16..]));
            v4 = round(v4, u64_at(&stripe[24..]));
        }
        let hash = v1
            .rotate_left(1)
            .wrapping_add(v2.rotate_left(7))
            .wrapping_add(v3.rotate_left(12))
            .wrapping_add(v4.rotate_left(18));
        [v1, v2, v3, v4].into_iter().fold(hash, merge)
    } else {
        P5
    };
    hash = hash.wrapping_add(bytes.len() as u64);
    while rest.len() >= 8 {
        hash = (hash ^ round(0, u64_at(rest)))
            .rotate_left(27)
            .wrapping_mul(P1)
            .wrapping_add(P4);
        rest = &rest[8..];
    }
    if rest.len() >= 4 {
        let word = u32::from_le_bytes(rest[..4].try_into().expect("4 bytes")) as u64;
        hash = (hash ^ word.wrapping_mul(P1))
            .rotate_left(23)
            .wrapping_mul(P2)
            .wrapping_add(P3);
        rest = &rest[4..];
    }
    for &byte in rest {
        hash = (hash ^ (byte as u64).wrapping_mul(P5))
            .rotate_left(11)
            .wrapping_mul(P1);
    }
    hash ^= hash >> 33;
    hash = hash.wrapping_mul(P2);
    hash ^= hash >> 29;
    hash = hash.wrapping_mul(P3);
    hash ^ (hash >> 32)
}

/// Per-attribute slice of a [`BlockSummary`].
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnSummary {
    /// Min/max of the attribute in the summarised block.
    pub sma: Sma,
    /// Did the attribute carry a Positional SMA? Purely informational for
    /// directory introspection (e.g. size accounting, deciding whether a scan of
    /// this block can narrow ranges): PSMAs are derived data, and it is the
    /// *payload's* `had_psma` flag ([`crate::layout`]) that lets a loaded block
    /// build the table on its first probe — a reloaded block is feature-identical
    /// regardless of this field. Summarising a block builds no PSMA.
    pub has_psma: bool,
}

/// The directory-resident summary of one frozen block: everything SMA pruning and
/// size accounting need without deserializing the payload. On disk it lives only
/// in the block's manifest [`ManifestRecord::Put`].
#[derive(Debug, Clone, PartialEq)]
pub struct BlockSummary {
    /// Records in the block (including deleted).
    pub tuple_count: u32,
    /// Records carrying a delete flag.
    pub deleted_count: u32,
    /// One summary per attribute, in attribute order.
    pub columns: Vec<ColumnSummary>,
}

impl BlockSummary {
    /// Summarise an in-memory block (what a store records at write-out time).
    pub fn of(block: &DataBlock) -> BlockSummary {
        BlockSummary {
            tuple_count: block.tuple_count(),
            deleted_count: block.tuple_count() - block.live_tuple_count(),
            columns: block
                .columns()
                .map(|c| ColumnSummary {
                    sma: c.sma.clone(),
                    has_psma: c.has_psma(),
                })
                .collect(),
        }
    }

    /// Records not marked deleted.
    pub fn live_tuple_count(&self) -> u32 {
        self.tuple_count - self.deleted_count
    }

    /// Can any record of the summarised block match all `restrictions`?
    ///
    /// This is the **SMA** block-skipping gate of [`crate::scan::plan_scan`] — the
    /// same [`Sma::may_match`] call on the same SMA values, gated on
    /// [`ScanOptions::use_sma`] — so a scan that prunes a cold block from its summary
    /// reports byte-identical results *and counters* to one that loads the block and
    /// lets the scan planner rule it out. `false` means the block is guaranteed
    /// empty of matches and its payload never needs to be read.
    ///
    /// The SMA gate is the only rule-out the summary can decide: the planner's
    /// remaining rule-out causes (dictionary probes, single-value evaluation,
    /// `NULL`-validity reasoning) need data that is deliberately not summarised, so
    /// a block ruled out for one of those reasons still costs one load before it is
    /// counted as skipped. Skip *counters* agree with an all-in-memory scan either
    /// way; only the zero-I/O guarantee is scoped to SMA-prunable restrictions.
    pub fn may_match(&self, restrictions: &[Restriction], options: &ScanOptions) -> bool {
        !options.use_sma
            || restrictions.iter().all(|restriction| {
                self.columns
                    .get(restriction.column())
                    .is_none_or(|column| column.sma.may_match(restriction))
            })
    }
}

/// One attribute section of a frame: where it lies and what it hashes to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Section {
    /// Byte offset of the section within the frame.
    pub offset: u32,
    /// Length of the section in bytes.
    pub len: u32,
    /// XXH64 of the section's bytes.
    pub checksum: u64,
}

impl Section {
    /// The section's bytes as a range of the frame.
    pub fn range(&self) -> Range<usize> {
        self.offset as usize..self.offset as usize + self.len as usize
    }
}

/// Where the sections of a frame lie: the header section, frame bytes
/// `[0, header_len)`, then one [`Section`] per attribute, back to back. Read
/// off a verified header section by [`decode_header`]; a block store keeps it
/// in its directory so a later page-in can read exactly the sections it needs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SectionTable {
    /// Length of the header section in bytes.
    pub header_len: u32,
    /// One section per attribute, in attribute order.
    pub attributes: Vec<Section>,
}

impl SectionTable {
    /// Length of the whole frame: the end of its last section.
    pub fn frame_len(&self) -> usize {
        self.attributes
            .last()
            .map_or(self.header_len as usize, |last| last.range().end)
    }

    /// Verify and decode attribute `col` from `section`, the bytes of its
    /// section; `rows` is the block's tuple count. The bytes are checksummed
    /// before anything is decoded.
    pub fn decode_attribute(
        &self,
        col: usize,
        section: &[u8],
        rows: u32,
    ) -> Result<BlockColumn, FrameError> {
        let expected = &self.attributes[col];
        if section.len() != expected.len as usize {
            return Err(FrameError::Truncated);
        }
        verify(section, expected.checksum)?;
        Ok(layout::read_attribute(section, rows)?)
    }
}

fn verify(bytes: &[u8], stored: u64) -> Result<(), FrameError> {
    let actual = xxh64(bytes);
    if actual == stored {
        Ok(())
    } else {
        Err(FrameError::ChecksumMismatch { stored, actual })
    }
}

/// Serialize a block into a complete frame: the header section, then one
/// section per attribute, written into one buffer. The checksums and the
/// header length are filled in once the sections are there.
pub fn to_frame(block: &DataBlock) -> Vec<u8> {
    let mut w = Writer::new();
    w.bytes(FRAME_MAGIC);
    w.u32(FRAME_VERSION);
    w.bytes(&[0; 12]);
    w.u32(block.column_count() as u32);
    w.bytes(&vec![0; block.column_count() * 8]);
    let extents = layout::write_block(&mut w, block);
    for (col, area) in extents.attributes.iter().enumerate() {
        let at = SECTION_SUMS_AT + col * 8;
        let sum = xxh64(&w.buf[area.clone()]);
        w.buf[at..at + 8].copy_from_slice(&sum.to_le_bytes());
    }
    let header_len = extents.header_end;
    w.buf[16..20].copy_from_slice(&(header_len as u32).to_le_bytes());
    let sum = xxh64(&w.buf[16..header_len]);
    w.buf[8..16].copy_from_slice(&sum.to_le_bytes());
    w.buf
}

/// Length of a frame's header section, read off the frame's first
/// [`FRAME_PREFIX_LEN`] bytes after checking their magic and version. The
/// length itself is verified only by [`decode_header`]'s checksum.
pub fn header_len(prefix: &[u8]) -> Result<usize, FrameError> {
    let mut r = Reader::new(prefix);
    if r.take(4)? != FRAME_MAGIC {
        return Err(FrameError::BadMagic);
    }
    let version = r.u32()?;
    if version != FRAME_VERSION {
        return Err(FrameError::UnsupportedVersion(version));
    }
    r.u64()?;
    Ok(r.u32()? as usize)
}

/// Verify and decode a frame's header section, the first
/// [`header_len`] bytes of `bytes` (which may hold more of the frame), into
/// the frame's [`SectionTable`] and its block with no attribute paged in:
/// tuple count and delete flags only.
pub fn decode_header(bytes: &[u8]) -> Result<(SectionTable, DataBlock), FrameError> {
    let header_len = header_len(bytes)?;
    if header_len < SECTION_SUMS_AT {
        return Err(FrameError::Corrupt(
            "header section shorter than its prefix",
        ));
    }
    let header = bytes.get(..header_len).ok_or(FrameError::Truncated)?;
    let stored = u64::from_le_bytes(header[8..16].try_into().expect("8 bytes"));
    verify(&header[16..], stored)?;
    let mut r = Reader::new(&header[FRAME_PREFIX_LEN..]);
    let count = r.u32()? as usize;
    let sums_len = count.checked_mul(8).ok_or(FrameError::Truncated)?;
    let sums = r.take(sums_len)?;
    let layout_at = SECTION_SUMS_AT + sums_len;
    let decoded = layout::read_header(&header[layout_at..])?;
    if decoded.block.column_count() != count {
        return Err(FrameError::Corrupt(
            "attribute count disagrees with the layout",
        ));
    }
    if layout_at + decoded.len != header_len {
        return Err(FrameError::Corrupt(
            "header length disagrees with the layout",
        ));
    }
    let attributes = (decoded.areas.iter().zip(sums.as_chunks::<8>().0))
        .map(|(&(offset, len), sum)| {
            let offset = u32::try_from(layout_at + offset)
                .map_err(|_| FrameError::Corrupt("attribute section past 4 GiB"))?;
            Ok(Section {
                offset,
                len: len as u32,
                checksum: u64::from_le_bytes(*sum),
            })
        })
        .collect::<Result<_, FrameError>>()?;
    let table = SectionTable {
        header_len: header_len as u32,
        attributes,
    };
    Ok((table, decoded.block))
}

/// Decode a whole frame back into a [`DataBlock`], verifying every section's
/// checksum before decoding it.
pub fn from_frame(bytes: &[u8]) -> Result<DataBlock, FrameError> {
    let (table, header) = decode_header(bytes)?;
    match bytes.len().cmp(&table.frame_len()) {
        std::cmp::Ordering::Less => return Err(FrameError::Truncated),
        std::cmp::Ordering::Greater => {
            return Err(FrameError::Corrupt("bytes after the last section"))
        }
        std::cmp::Ordering::Equal => {}
    }
    let rows = header.tuple_count();
    let mut columns = Vec::with_capacity(table.attributes.len());
    for (col, section) in table.attributes.iter().enumerate() {
        columns.push(table.decode_attribute(col, &bytes[section.range()], rows)?);
    }
    Ok(header.with_all_columns(columns))
}

// ------------------------------------------------------------- manifest records

/// One record of a block-store **manifest**: the append-only log from which
/// [`crate::frame`]-aware stores rebuild their directory on reopen without
/// scanning block payloads.
///
/// A manifest file is a plain concatenation of records, each wrapped in a
/// fixed [`MANIFEST_HEADER_LEN`]-byte header (magic, version, XXH64 body
/// checksum, body length). The checksum makes a torn final record — the bytes a
/// crash leaves behind mid-append — detectable: replay discards it, and fails
/// on any other damage ([`replay_manifest`]).
#[derive(Debug, Clone, PartialEq)]
pub enum ManifestRecord {
    /// Set directory entry `block_id`: the block's frame lives at `offset`/`len`
    /// of generation file `generation`, with the given hot summary. Emitted for
    /// appends *and* rewrites — replay is last-writer-wins per `block_id`, so the
    /// latest `Put` for an id (including its tombstone counts, carried in the
    /// summary) defines the reopened directory.
    Put {
        /// Directory index of the block.
        block_id: u32,
        /// Generation file holding the frame (0 is the store's base file).
        generation: u32,
        /// Byte offset of the frame within the generation file.
        offset: u64,
        /// Length of the frame in bytes.
        len: u32,
        /// The block's directory summary (tuple/deleted counts, per-column SMAs).
        summary: BlockSummary,
    },
    /// Directory reset marking the start of a **checkpoint**: the `entries`
    /// [`ManifestRecord::Put`]s that follow form the complete directory, and
    /// `generation` is the store's current append generation. Written as the
    /// first record of a freshly checkpointed manifest (close, compaction).
    Snapshot {
        /// Append generation at checkpoint time.
        generation: u32,
        /// Number of `Put` records that follow.
        entries: u32,
    },
}

const MANIFEST_KIND_PUT: u8 = 1;
const MANIFEST_KIND_SNAPSHOT: u8 = 2;

/// Serialize one manifest record (header + body).
pub fn manifest_record_to_bytes(record: &ManifestRecord) -> Vec<u8> {
    let mut body = Writer::new();
    match record {
        ManifestRecord::Put {
            block_id,
            generation,
            offset,
            len,
            summary,
        } => {
            body.u8(MANIFEST_KIND_PUT);
            body.u32(*block_id);
            body.u32(*generation);
            body.u64(*offset);
            body.u32(*len);
            body.bytes(&write_summary(summary));
        }
        ManifestRecord::Snapshot {
            generation,
            entries,
        } => {
            body.u8(MANIFEST_KIND_SNAPSHOT);
            body.u32(*generation);
            body.u32(*entries);
        }
    }
    let mut w = Writer::new();
    w.bytes(MANIFEST_MAGIC);
    w.u32(MANIFEST_VERSION);
    w.u64(xxh64(&body.buf));
    w.u32(body.buf.len() as u32);
    debug_assert_eq!(w.buf.len(), MANIFEST_HEADER_LEN);
    w.bytes(&body.buf);
    w.buf
}

/// Decode the manifest record at the start of `bytes`, returning it together with
/// the total number of bytes it occupies (header + body) so a caller can walk a
/// concatenated record log. A record that is cut short, carries a wrong checksum
/// or fails structural validation is an error; [`replay_manifest`] decides
/// whether it is the torn tail of the log.
pub fn read_manifest_record(bytes: &[u8]) -> Result<(ManifestRecord, usize), FrameError> {
    let mut r = Reader::new(bytes);
    if r.take(4)? != MANIFEST_MAGIC {
        return Err(FrameError::BadMagic);
    }
    let version = r.u32()?;
    if version != MANIFEST_VERSION {
        return Err(FrameError::UnsupportedVersion(version));
    }
    let checksum = r.u64()?;
    let body_len = r.u32()? as usize;
    let total = MANIFEST_HEADER_LEN
        .checked_add(body_len)
        .ok_or(FrameError::Corrupt("manifest body length overflows"))?;
    if bytes.len() < total {
        return Err(FrameError::Truncated);
    }
    let body = &bytes[MANIFEST_HEADER_LEN..total];
    let actual = xxh64(body);
    if actual != checksum {
        return Err(FrameError::ChecksumMismatch {
            stored: checksum,
            actual,
        });
    }
    let mut b = Reader::new(body);
    let record = match b.u8()? {
        MANIFEST_KIND_PUT => {
            let block_id = b.u32()?;
            let generation = b.u32()?;
            let offset = b.u64()?;
            let len = b.u32()?;
            let summary = parse_summary(&body[1 + 4 + 4 + 8 + 4..])?;
            ManifestRecord::Put {
                block_id,
                generation,
                offset,
                len,
                summary,
            }
        }
        MANIFEST_KIND_SNAPSHOT => ManifestRecord::Snapshot {
            generation: b.u32()?,
            entries: b.u32()?,
        },
        _ => return Err(FrameError::Corrupt("unknown manifest record kind")),
    };
    Ok((record, total))
}

/// Walk a manifest byte log from the front, collecting every valid record, and
/// report the length of the **valid prefix**.
///
/// Only the log's *final* record may fail, and only as the tear a crashed
/// append leaves: cut short by the end of the log, or failing its checksum
/// while ending exactly where the log ends. That record is dropped and the
/// valid prefix ends before it. Any other failure — a record of another
/// [`MANIFEST_VERSION`], a bad magic, a structurally invalid body, or a failing
/// record that further bytes follow — is damage no crash can leave, and is
/// returned as the error: replaying past it would silently shrink the store.
pub fn replay_manifest(bytes: &[u8]) -> Result<(Vec<ManifestRecord>, usize), FrameError> {
    let mut records = Vec::new();
    let mut offset = 0usize;
    while offset < bytes.len() {
        let rest = &bytes[offset..];
        match read_manifest_record(rest) {
            Ok((record, consumed)) => {
                records.push(record);
                offset += consumed;
            }
            Err(err) => {
                // The record's extent as its header declares it (`body_len`
                // is the header's last field), if the header is whole.
                let declared = rest
                    .get(MANIFEST_HEADER_LEN - 4..MANIFEST_HEADER_LEN)
                    .map(|len| {
                        let body_len = u32::from_le_bytes(len.try_into().expect("4 bytes"));
                        MANIFEST_HEADER_LEN + body_len as usize
                    });
                let torn_tail = match err {
                    FrameError::Truncated => declared.is_none_or(|total| total > rest.len()),
                    FrameError::ChecksumMismatch { .. } => declared == Some(rest.len()),
                    _ => false,
                };
                return if torn_tail {
                    Ok((records, offset))
                } else {
                    Err(err)
                };
            }
        }
    }
    Ok((records, offset))
}

fn write_summary(summary: &BlockSummary) -> Vec<u8> {
    let mut w = Writer::new();
    w.u32(summary.tuple_count);
    w.u32(summary.deleted_count);
    w.u32(summary.columns.len() as u32);
    for column in &summary.columns {
        layout::write_sma(&mut w, &column.sma);
        w.u8(column.has_psma as u8);
    }
    w.buf
}

fn parse_summary(bytes: &[u8]) -> Result<BlockSummary, FrameError> {
    let mut r = Reader::new(bytes);
    let tuple_count = r.u32()?;
    let deleted_count = r.u32()?;
    if deleted_count > tuple_count {
        return Err(FrameError::Corrupt("deleted count exceeds tuple count"));
    }
    let column_count = r.u32()? as usize;
    let mut columns = Vec::with_capacity(column_count);
    for _ in 0..column_count {
        let sma = layout::read_sma(&mut r)?;
        let has_psma = r.u8()? == 1;
        columns.push(ColumnSummary { sma, has_psma });
    }
    Ok(BlockSummary {
        tuple_count,
        deleted_count,
        columns,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{double_column, freeze, int_column, str_column};
    use crate::scan::plan_scan;
    use crate::value::Value;
    use dbsimd::CmpOp;
    use std::sync::Arc;

    fn block() -> DataBlock {
        let ids = int_column((0..3000).collect());
        let grp = str_column((0..3000).map(|i| format!("g{}", i % 7)).collect());
        let amount = double_column((0..3000).map(|i| i as f64 * 0.5).collect());
        freeze(&[ids, grp, amount])
    }

    /// `summary` as a store reads it back: encoded into a manifest `Put`, the
    /// summary's only copy on disk, and decoded again.
    fn through_manifest(summary: BlockSummary) -> BlockSummary {
        let put = ManifestRecord::Put {
            block_id: 0,
            generation: 0,
            offset: 0,
            len: 0,
            summary,
        };
        match read_manifest_record(&manifest_record_to_bytes(&put)).unwrap() {
            (ManifestRecord::Put { summary, .. }, _) => summary,
            (other, _) => panic!("a Put decoded as {other:?}"),
        }
    }

    #[test]
    fn frame_roundtrip_preserves_block() {
        let original = block();
        let frame = to_frame(&original);
        let restored = from_frame(&frame).expect("roundtrip");
        assert_eq!(restored.tuple_count(), original.tuple_count());
        for row in (0..3000).step_by(131) {
            for col in 0..original.column_count() {
                assert_eq!(restored.get(row, col), original.get(row, col));
            }
        }
    }

    /// One block holding every scheme the layout writes: a single value,
    /// truncation at each code width, an integer and a string dictionary,
    /// doubles, a nullable column and deleted rows. 1003 rows, so each bitmap
    /// ends in a padded byte.
    fn every_scheme_block() -> DataBlock {
        use crate::column::Column;
        use crate::compression::SchemeKind;
        use crate::value::DataType;
        let rows = 0..1003i64;
        let mut nullable = Column::new(DataType::Int);
        for i in rows.clone() {
            nullable.push(if i % 7 == 0 {
                Value::Null
            } else {
                Value::Int(i % 300)
            });
        }
        let mut block = freeze(&[
            int_column(vec![77; 1003]),
            int_column(rows.clone().map(|i| i % 200).collect()),
            int_column(rows.clone().map(|i| i * 50).collect()),
            int_column(rows.clone().map(|i| -i * 1_000_000).collect()),
            int_column(rows.clone().map(|i| i * 10_000_000_000).collect()),
            int_column(rows.clone().map(|i| i % 3 * 1_000_000_007).collect()),
            str_column(rows.clone().map(|i| format!("s{}", i % 5)).collect()),
            double_column(rows.clone().map(|i| (i - 500) as f64 * 0.25).collect()),
            nullable,
        ]);
        assert_eq!(
            block.layout_combination(),
            [
                SchemeKind::SingleValue,
                SchemeKind::Truncated(1),
                SchemeKind::Truncated(2),
                SchemeKind::Truncated(4),
                SchemeKind::Truncated(8),
                SchemeKind::DictInt(1),
                SchemeKind::DictStr(1),
                SchemeKind::Double,
                SchemeKind::Truncated(2),
            ]
        );
        assert!(block.column(8).validity.is_some());
        for row in [0, 3, 511, 1002] {
            block.delete(row);
        }
        block
    }

    #[test]
    fn the_frame_of_a_fixed_block_is_pinned() {
        let block = every_scheme_block();
        let frame = to_frame(&block);
        assert_eq!(
            (frame.len(), xxh64(&frame)),
            (27_852, 0xE875_8E25_A7C5_3EAE),
            "the frame format changed: bump FRAME_VERSION"
        );
        assert_eq!(from_frame(&frame).unwrap(), block);
    }

    /// The same block framed by version 3, the last format with one checksum
    /// over one payload.
    pub(crate) const EVERY_SCHEME_BLOCK_V3: &[u8] =
        include_bytes!("../testdata/every_scheme_block.v3.frame");

    #[test]
    fn a_version_3_frame_is_refused() {
        assert_eq!(EVERY_SCHEME_BLOCK_V3.len(), 27_704);
        assert_eq!(xxh64(EVERY_SCHEME_BLOCK_V3), 0xB33B_4985_692C_ADC2);
        assert_eq!(
            from_frame(EVERY_SCHEME_BLOCK_V3),
            Err(FrameError::UnsupportedVersion(3))
        );
        assert_eq!(
            header_len(EVERY_SCHEME_BLOCK_V3),
            Err(FrameError::UnsupportedVersion(3))
        );
    }

    /// An SMA as its exact bits: doubles by `to_bits`, so NaN and the sign of
    /// zero compare.
    fn sma_bits(sma: &Sma) -> String {
        match sma {
            Sma::Int { min, max } => format!("Int {min} {max}"),
            Sma::Double { min, max } => {
                format!("Double {:#018x} {:#018x}", min.to_bits(), max.to_bits())
            }
            Sma::Str { min, max } => format!("Str {min:?} {max:?}"),
            Sma::AllNull => "AllNull".to_string(),
        }
    }

    #[test]
    fn the_smas_of_hazard_columns_are_pinned() {
        use crate::bitmap::Bitmap;
        use crate::column::{Column, ColumnData};
        use crate::value::DataType;
        let (nan, inf) = (f64::NAN, f64::INFINITY);
        // The payload of a NULL row lies outside the column's domain, so an SMA
        // that read it would show.
        let nullable = |data, nulls: &[usize]| Column {
            data,
            validity: Some(Bitmap::from_fn(6, |row| !nulls.contains(&row))),
        };
        let mut all_null = Column::new(DataType::Int);
        (0..6).for_each(|_| all_null.push(Value::Null));
        let block = freeze(&[
            double_column(vec![1.5, nan, -2.0, nan, 3.0, 0.5]),
            double_column(vec![nan; 6]),
            double_column(vec![-0.0, 0.0, -0.0, 0.0, -0.0, 0.0]),
            double_column(vec![0.0, -0.0, 0.0, -0.0, 0.0, -0.0]),
            double_column(vec![inf, 1.0, -inf, 0.0, 2.0, -1.0]),
            nullable(
                ColumnData::Double(vec![-100.0, 4.0, nan, 4.5, 100.0, 4.25]),
                &[0, 4],
            ),
            int_column(vec![i64::MIN, 0, i64::MAX, -1, 1, 7]),
            nullable(
                ColumnData::Dict {
                    dict: ["fig", "pear", "", "apple", "zebra"]
                        .map(String::from)
                        .into(),
                    codes: vec![1, 3, 2, 1, 3, 4],
                },
                &[5],
            ),
            nullable(ColumnData::Int(vec![5, 5, -9, 5, 5, 5]), &[2]),
            all_null,
        ]);
        let smas: Vec<String> = (0..block.column_count())
            .map(|col| sma_bits(&block.column(col).sma))
            .collect();
        assert_eq!(
            smas,
            [
                "Double 0xc000000000000000 0x4008000000000000",
                "Double 0x7ff0000000000000 0xfff0000000000000",
                "Double 0x8000000000000000 0x8000000000000000",
                "Double 0x0000000000000000 0x0000000000000000",
                "Double 0xfff0000000000000 0x7ff0000000000000",
                "Double 0x4010000000000000 0x4012000000000000",
                "Int -9223372036854775808 9223372036854775807",
                "Str \"\" \"pear\"",
                "Int 5 5",
                "AllNull",
            ]
        );
        let frame = to_frame(&block);
        assert_eq!((frame.len(), xxh64(&frame)), (782, 0xD7C4_67E6_1223_CA53));
        // NaN is not equal to itself, so the roundtrip compares frame bytes.
        assert_eq!(to_frame(&from_frame(&frame).unwrap()), frame);
    }

    #[test]
    fn sections_tile_the_frame_and_decode_one_attribute_each() {
        let block = every_scheme_block();
        let frame = to_frame(&block);
        let (table, header) = decode_header(&frame).unwrap();
        assert_eq!(table.attributes.len(), block.column_count());
        assert_eq!(table.frame_len(), frame.len());
        let mut next = table.header_len as usize;
        for section in &table.attributes {
            assert_eq!(section.range().start, next, "sections are back to back");
            next = section.range().end;
        }
        assert_eq!(
            (header.tuple_count(), header.live_tuple_count()),
            (1003, 999)
        );
        assert!((0..block.column_count()).all(|col| !header.has_column(col)));
        for (col, section) in table.attributes.iter().enumerate() {
            let column = table
                .decode_attribute(col, &frame[section.range()], header.tuple_count())
                .unwrap();
            assert_eq!(&column, block.column(col), "attribute {col}");
        }
    }

    #[test]
    #[should_panic(expected = "attribute 2 of this Data Block was not paged in")]
    fn reading_an_attribute_that_was_not_paged_in_panics_naming_it() {
        let frame = to_frame(&block());
        let (table, header) = decode_header(&frame).unwrap();
        let section = table.attributes[0];
        let ids = table
            .decode_attribute(0, &frame[section.range()], 3000)
            .unwrap();
        let block = header.with_columns([(0, Arc::new(ids))]);
        assert_eq!(block.get(7, 0), Value::Int(7));
        block.get(7, 2);
    }

    #[test]
    fn summary_records_deletions() {
        let mut b = block();
        b.delete(0);
        b.delete(17);
        let summary = through_manifest(BlockSummary::of(&b));
        assert_eq!(summary.deleted_count, 2);
        assert_eq!(summary.live_tuple_count(), 2998);
    }

    #[test]
    fn summary_pruning_matches_plan_scan_rule_out() {
        let b = block();
        let summary = BlockSummary::of(&b);
        let options = ScanOptions::default();
        let cases = vec![
            vec![Restriction::between(0, 100i64, 199i64)], // inside the domain
            vec![Restriction::between(0, 5000i64, 6000i64)], // outside: prune
            vec![Restriction::cmp(0, CmpOp::Lt, 0i64)],    // outside: prune
            vec![Restriction::eq(1, "g3")],                // string inside
            vec![Restriction::eq(1, "zzz")],               // string outside: prune
            vec![
                Restriction::between(0, 0i64, 10i64),
                Restriction::eq(1, "zzz"), // second restriction prunes
            ],
            vec![Restriction::cmp(0, CmpOp::Ne, 5i64)], // `<>` never prunes on the SMA
            vec![
                Restriction::cmp(1, CmpOp::Ne, "g3"),
                Restriction::cmp(0, CmpOp::Gt, 2999i64), // prunes past the `<>`
            ],
            vec![Restriction::between(2, 100.0, 200.0)], // double inside
            vec![Restriction::cmp(2, CmpOp::Gt, 1499.5)], // double outside: prune
        ];
        for restrictions in cases {
            let plan = plan_scan(&b, &restrictions, &options);
            assert_eq!(
                summary.may_match(&restrictions, &options),
                !plan.is_ruled_out(),
                "{restrictions:?}"
            );
        }
    }

    #[test]
    fn summary_pruning_disabled_with_sma_off() {
        let summary = BlockSummary::of(&block());
        let options = ScanOptions {
            use_sma: false,
            ..ScanOptions::default()
        };
        assert!(summary.may_match(&[Restriction::between(0, 5000i64, 6000i64)], &options));
    }

    #[test]
    fn corrupted_checksum_is_rejected() {
        let mut frame = to_frame(&block());
        let last = frame.len() - 1;
        frame[last] ^= 0xff; // flip payload bits
        assert!(matches!(
            from_frame(&frame),
            Err(FrameError::ChecksumMismatch { .. })
        ));
        // flipping the stored checksum itself is also caught
        let mut frame2 = to_frame(&block());
        frame2[8] ^= 0x01;
        assert!(matches!(
            from_frame(&frame2),
            Err(FrameError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn overflowing_header_offsets_are_rejected_not_panicking() {
        // a corrupt payload length must come back as an error, never as a
        // panic or a 4 GiB allocation inside a scan worker
        let mut frame = to_frame(&block());
        frame[16..20].copy_from_slice(&u32::MAX.to_le_bytes()); // payload_len
        assert_eq!(from_frame(&frame), Err(FrameError::Truncated));
    }

    #[test]
    fn truncated_frame_is_rejected() {
        let frame = to_frame(&block());
        for cut in [
            0,
            3,
            FRAME_PREFIX_LEN - 1,
            FRAME_PREFIX_LEN + 2,
            frame.len() - 1,
        ] {
            let err = from_frame(&frame[..cut]).unwrap_err();
            assert!(
                matches!(err, FrameError::Truncated | FrameError::BadMagic),
                "cut {cut}: {err:?}"
            );
        }
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let mut frame = to_frame(&block());
        frame[4..8].copy_from_slice(&42u32.to_le_bytes());
        assert_eq!(from_frame(&frame), Err(FrameError::UnsupportedVersion(42)));
        // frames of the previous formats are refused, not misparsed
        for old in [1u32, 2, 3] {
            frame[4..8].copy_from_slice(&old.to_le_bytes());
            assert_eq!(from_frame(&frame), Err(FrameError::UnsupportedVersion(old)));
        }
    }

    #[test]
    fn bad_magic_is_rejected() {
        assert_eq!(
            from_frame(b"NOPEnopeNOPEnopeNOPEnopeNOPEnope"),
            Err(FrameError::BadMagic)
        );
    }

    #[test]
    fn single_value_and_null_columns_summarise() {
        let constant = int_column(vec![9; 500]);
        let mut nullable = crate::column::Column::new(crate::value::DataType::Int);
        for _ in 0..500 {
            nullable.push(Value::Null);
        }
        let b = freeze(&[constant, nullable]);
        let summary = through_manifest(BlockSummary::of(&b));
        assert_eq!(summary.columns[1].sma, Sma::AllNull);
        // an all-NULL attribute prunes every value restriction
        assert!(!summary.may_match(&[Restriction::eq(1, 9i64)], &ScanOptions::default()));
    }

    #[test]
    fn manifest_record_roundtrip() {
        let summary = BlockSummary::of(&block());
        let put = ManifestRecord::Put {
            block_id: 7,
            generation: 3,
            offset: 4096,
            len: 1234,
            summary: summary.clone(),
        };
        let bytes = manifest_record_to_bytes(&put);
        let (decoded, consumed) = read_manifest_record(&bytes).unwrap();
        assert_eq!(decoded, put);
        assert_eq!(consumed, bytes.len());

        let snap = ManifestRecord::Snapshot {
            generation: 2,
            entries: 42,
        };
        let bytes = manifest_record_to_bytes(&snap);
        let (decoded, consumed) = read_manifest_record(&bytes).unwrap();
        assert_eq!(decoded, snap);
        assert_eq!(consumed, bytes.len());
    }

    #[test]
    fn manifest_replay_walks_concatenated_records() {
        let summary = BlockSummary::of(&block());
        let records = vec![
            ManifestRecord::Snapshot {
                generation: 0,
                entries: 1,
            },
            ManifestRecord::Put {
                block_id: 0,
                generation: 0,
                offset: 0,
                len: 100,
                summary: summary.clone(),
            },
            ManifestRecord::Put {
                block_id: 0,
                generation: 0,
                offset: 100,
                len: 90,
                summary,
            },
        ];
        let mut log = Vec::new();
        for record in &records {
            log.extend_from_slice(&manifest_record_to_bytes(record));
        }
        let (replayed, valid_len) = replay_manifest(&log).unwrap();
        assert_eq!(replayed, records);
        assert_eq!(valid_len, log.len());
    }

    #[test]
    fn manifest_torn_final_record_is_detected_and_prefix_kept() {
        let summary = BlockSummary::of(&block());
        let full = manifest_record_to_bytes(&ManifestRecord::Put {
            block_id: 0,
            generation: 0,
            offset: 0,
            len: 100,
            summary: summary.clone(),
        });
        let torn = manifest_record_to_bytes(&ManifestRecord::Put {
            block_id: 1,
            generation: 0,
            offset: 100,
            len: 200,
            summary,
        });
        // a crash can cut the final record anywhere: inside the header, right
        // after it, or inside the body
        for cut in [1, 4, MANIFEST_HEADER_LEN - 1, MANIFEST_HEADER_LEN + 3] {
            let mut log = full.clone();
            log.extend_from_slice(&torn[..cut]);
            let (records, valid_len) = replay_manifest(&log).unwrap();
            assert_eq!(records.len(), 1, "cut {cut}");
            assert_eq!(valid_len, full.len(), "cut {cut}");
        }
        // a final record whose checksum fails is a tear too
        let mut log = full.clone();
        log.extend_from_slice(&torn);
        *log.last_mut().unwrap() ^= 0x01;
        let (records, valid_len) = replay_manifest(&log).unwrap();
        assert_eq!((records.len(), valid_len), (1, full.len()));
    }

    #[test]
    fn manifest_damage_before_the_final_record_fails_replay() {
        let snapshot = |generation| {
            manifest_record_to_bytes(&ManifestRecord::Snapshot {
                generation,
                entries: 0,
            })
        };
        // a bit flip in a record that another record follows
        let mut log = snapshot(0);
        log[MANIFEST_HEADER_LEN + 2] ^= 0x04;
        log.extend_from_slice(&snapshot(1));
        assert!(matches!(
            replay_manifest(&log),
            Err(FrameError::ChecksumMismatch { .. })
        ));
        // a record of the previous format, first or final, whole or cut short
        let mut old = snapshot(0);
        old[4..8].copy_from_slice(&1u32.to_le_bytes());
        for log in [
            [old.clone(), snapshot(1)].concat(),
            [snapshot(1), old.clone()].concat(),
            [snapshot(1), old[..MANIFEST_HEADER_LEN - 2].to_vec()].concat(),
        ] {
            assert_eq!(
                replay_manifest(&log),
                Err(FrameError::UnsupportedVersion(1))
            );
        }
        // garbage after the log is not a tear: no append writes a bad magic
        let log = [snapshot(0), b"garbage!".to_vec()].concat();
        assert_eq!(replay_manifest(&log), Err(FrameError::BadMagic));
    }

    #[test]
    fn xxh64_matches_the_published_vectors() {
        assert_eq!(xxh64(b""), 0xEF46_DB37_51D8_E999);
        assert_eq!(xxh64(b"a"), 0xD24E_C4F1_A98C_6E5B);
        assert_eq!(xxh64(b"abc"), 0x44BC_2CF5_AD77_0999);
        // 39 bytes: one 32-byte stripe, then a 4-byte and three 1-byte tails
        assert_eq!(
            xxh64(b"Nobody inspects the spammish repetition"),
            0xFBCE_A83C_8A37_8BF1
        );
    }

    /// Page in attributes `cols` of `frame` as a block store does: the header
    /// section, then each named attribute section, each from its own bytes.
    /// `table` is the section table the store learned when it wrote the frame.
    fn projected(
        table: &SectionTable,
        frame: &[u8],
        cols: &[usize],
    ) -> Result<DataBlock, FrameError> {
        let (read, header) = decode_header(&frame[..table.header_len as usize])?;
        if read != *table {
            return Err(FrameError::Corrupt("section table changed"));
        }
        let mut columns = Vec::new();
        for &col in cols {
            let section = &frame[table.attributes[col].range()];
            let column = table.decode_attribute(col, section, header.tuple_count())?;
            columns.push((col, Arc::new(column)));
        }
        Ok(header.with_columns(columns))
    }

    #[test]
    fn every_single_bit_flip_of_a_frame_or_manifest_record_is_rejected() {
        let small = freeze(&[int_column((0..480).map(|i| i * 7 % 300).collect())]);
        let frame = to_frame(&small);
        assert!((900..1300).contains(&frame.len()), "{}", frame.len());
        for bit in 0..frame.len() * 8 {
            let mut flipped = frame.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert!(from_frame(&flipped).is_err(), "frame bit {bit}");
        }
        // A projected page-in of attribute 1 of three rejects exactly the flips
        // in the header section and in attribute 1's section; a flip in a
        // section it does not read leaves what it does read intact.
        let mut three = freeze(&[
            int_column((0..300).map(|i| i * 7 % 300).collect()),
            str_column((0..300).map(|i| format!("s{}", i % 9)).collect()),
            double_column((0..300).map(|i| i as f64 * 0.5).collect()),
        ]);
        three.delete(17);
        let frame = to_frame(&three);
        let (table, _) = decode_header(&frame).unwrap();
        let read = table.attributes[1].range();
        let expected = projected(&table, &frame, &[1]).unwrap();
        assert_eq!(expected.column(1), three.column(1));
        for bit in 0..frame.len() * 8 {
            let mut flipped = frame.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert!(from_frame(&flipped).is_err(), "frame bit {bit}");
            let byte = bit / 8;
            let got = projected(&table, &flipped, &[1]);
            if byte < table.header_len as usize || read.contains(&byte) {
                assert!(got.is_err(), "projected page-in, frame bit {bit}");
            } else {
                assert_eq!(
                    got.as_ref(),
                    Ok(&expected),
                    "projected page-in, frame bit {bit}"
                );
            }
        }
        let record = manifest_record_to_bytes(&ManifestRecord::Put {
            block_id: 3,
            generation: 1,
            offset: 4096,
            len: frame.len() as u32,
            summary: BlockSummary::of(&block()),
        });
        for bit in 0..record.len() * 8 {
            let mut flipped = record.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert!(read_manifest_record(&flipped).is_err(), "record bit {bit}");
        }
    }

    #[test]
    fn manifest_bit_flipped_checksum_is_rejected() {
        let summary = BlockSummary::of(&block());
        let mut bytes = manifest_record_to_bytes(&ManifestRecord::Put {
            block_id: 0,
            generation: 0,
            offset: 0,
            len: 100,
            summary,
        });
        // flip one byte of the body (the block_id)
        bytes[MANIFEST_HEADER_LEN + 1] ^= 0xff;
        assert!(matches!(
            read_manifest_record(&bytes),
            Err(FrameError::ChecksumMismatch { .. })
        ));
        // flip the stored checksum itself
        let mut bytes2 = manifest_record_to_bytes(&ManifestRecord::Snapshot {
            generation: 0,
            entries: 0,
        });
        bytes2[8] ^= 0x01;
        assert!(matches!(
            read_manifest_record(&bytes2),
            Err(FrameError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn manifest_version_and_kind_are_validated() {
        let mut bytes = manifest_record_to_bytes(&ManifestRecord::Snapshot {
            generation: 0,
            entries: 0,
        });
        for old in [1u32, 9] {
            bytes[4..8].copy_from_slice(&old.to_le_bytes());
            assert_eq!(
                read_manifest_record(&bytes).unwrap_err(),
                FrameError::UnsupportedVersion(old)
            );
        }
        // an unknown record kind is corrupt, not silently skipped — but the
        // checksum covers the body, so the kind byte must be re-signed to reach
        // the structural check
        let mut body = vec![99u8];
        body.extend_from_slice(&0u32.to_le_bytes());
        let mut forged = Vec::new();
        forged.extend_from_slice(MANIFEST_MAGIC);
        forged.extend_from_slice(&MANIFEST_VERSION.to_le_bytes());
        forged.extend_from_slice(&xxh64(&body).to_le_bytes());
        forged.extend_from_slice(&(body.len() as u32).to_le_bytes());
        forged.extend_from_slice(&body);
        assert_eq!(
            read_manifest_record(&forged).unwrap_err(),
            FrameError::Corrupt("unknown manifest record kind")
        );
    }

    #[test]
    fn error_display_messages() {
        assert!(FrameError::BadMagic.to_string().contains("magic"));
        assert!(FrameError::Truncated.to_string().contains("truncated"));
        assert!(FrameError::UnsupportedVersion(9).to_string().contains('9'));
        assert!(FrameError::ChecksumMismatch {
            stored: 1,
            actual: 2
        }
        .to_string()
        .contains("checksum"));
        assert!(FrameError::Corrupt("x").to_string().contains('x'));
        let layout_err = FrameError::Layout(LayoutError::BadMagic);
        assert!(layout_err.to_string().contains("magic"));
        assert!(std::error::Error::source(&layout_err).is_some());
    }
}
