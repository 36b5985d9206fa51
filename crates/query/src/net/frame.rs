//! The wire frame codec: length-prefixed, checksummed frames and the payload
//! encodings of every message of the protocol.
//!
//! The byte-level layout is normative and specified in
//! `crates/query/README.md` (§ "Wire protocol"); this module is its
//! implementation. Every frame is
//!
//! ```text
//! [magic "DBWP": 4][type: u8][len: u32 LE][payload: len bytes][checksum: u64 LE]
//! ```
//!
//! with the checksum an XXH64 with seed 0 ([`datablocks::frame::xxh64`], the
//! same function protecting the on-disk block frames and manifest records) over
//! `type || len || payload`. All multi-byte integers are little-endian,
//! matching the on-disk formats.

use std::io::{self, Read, Write};

use datablocks::frame::xxh64;
use datablocks::{Bitmap, Column, ColumnData, DataType};
use exec::Batch;

/// Frame magic: `DBWP` ("Data Blocks Wire Protocol").
pub const WIRE_MAGIC: [u8; 4] = *b"DBWP";

/// Protocol version carried in the handshake. A server speaking a different
/// version rejects the hello with [`ErrorCode::Protocol`]. Version 2 changed
/// the frame checksum to XXH64.
pub const WIRE_VERSION: u16 = 2;

/// Hard cap on a frame's payload length. A `len` beyond this is rejected
/// *before* any allocation — a corrupt or hostile length prefix must not make
/// the server reserve gigabytes.
pub const MAX_FRAME_PAYLOAD: usize = 16 << 20;

/// Frame envelope overhead: magic + type + len + trailing checksum.
pub const FRAME_OVERHEAD: usize = 4 + 1 + 4 + 8;

/// Frame types (the `type` byte of the envelope).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameType {
    /// Client → server: protocol version, auth token, budget, credit window.
    Hello = 0x01,
    /// Server → client: handshake accepted (version + granted window).
    HelloOk = 0x02,
    /// Client → server: run a query (SQL text or JSON-IR document).
    Query = 0x03,
    /// Server → client: the output schema of the running query.
    ResultSchema = 0x04,
    /// Server → client: one result batch (consumes one window credit).
    ResultBatch = 0x05,
    /// Server → client: the query finished (total rows + batches).
    ResultDone = 0x06,
    /// Server → client: a typed error (see [`ErrorCode`]).
    Error = 0x07,
    /// Client → server, out of band: cancel the in-flight query.
    Cancel = 0x08,
    /// Client → server: return `n` window credits (batches consumed).
    Credit = 0x09,
    /// Client → server: graceful goodbye; the server closes the connection.
    Goodbye = 0x0a,
}

impl FrameType {
    fn from_u8(byte: u8) -> Option<FrameType> {
        Some(match byte {
            0x01 => FrameType::Hello,
            0x02 => FrameType::HelloOk,
            0x03 => FrameType::Query,
            0x04 => FrameType::ResultSchema,
            0x05 => FrameType::ResultBatch,
            0x06 => FrameType::ResultDone,
            0x07 => FrameType::Error,
            0x08 => FrameType::Cancel,
            0x09 => FrameType::Credit,
            0x0a => FrameType::Goodbye,
            _ => return None,
        })
    }
}

/// Error codes of an [`FrameType::Error`] frame — the wire rendering of the
/// [`crate::Error`] taxonomy plus the two connection-level failures that have
/// no in-process equivalent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// Parse / schema / planning failure ([`crate::Error::Query`]).
    Query = 1,
    /// Unreadable spilled block ([`crate::Error::ColdRead`]).
    ColdRead = 2,
    /// Admission rejection ([`crate::Error::OverBudget`]).
    OverBudget = 3,
    /// Other I/O failure ([`crate::Error::Io`]).
    Io = 4,
    /// The query was cancelled ([`crate::Error::Cancelled`]).
    Cancelled = 5,
    /// The handshake's auth token was rejected.
    Auth = 6,
    /// A malformed, oversized or out-of-order frame (or a version mismatch).
    Protocol = 7,
}

impl ErrorCode {
    /// Decode the code byte of an error frame.
    pub fn from_u8(byte: u8) -> Option<ErrorCode> {
        Some(match byte {
            1 => ErrorCode::Query,
            2 => ErrorCode::ColdRead,
            3 => ErrorCode::OverBudget,
            4 => ErrorCode::Io,
            5 => ErrorCode::Cancelled,
            6 => ErrorCode::Auth,
            7 => ErrorCode::Protocol,
            _ => return None,
        })
    }

    /// The wire code of a service error. The error *message* on the wire is
    /// the error's pinned `Display` rendering, so clients see the exact text
    /// in-process callers see.
    pub fn of_error(err: &crate::Error) -> ErrorCode {
        match err {
            crate::Error::Query(_) => ErrorCode::Query,
            crate::Error::ColdRead(_) => ErrorCode::ColdRead,
            crate::Error::OverBudget { .. } => ErrorCode::OverBudget,
            crate::Error::Io(_) => ErrorCode::Io,
            crate::Error::Cancelled => ErrorCode::Cancelled,
        }
    }
}

/// Why a frame could not be read. [`FrameError::Io`] wraps transport
/// failures (including EOF); everything else is a protocol violation the
/// server answers with a loud [`ErrorCode::Protocol`] error frame before
/// closing the connection.
#[derive(Debug)]
pub enum FrameError {
    /// Transport failure or peer hangup.
    Io(io::Error),
    /// The 4 magic bytes were wrong — the peer is not speaking this protocol.
    BadMagic([u8; 4]),
    /// Unknown frame-type byte.
    BadType(u8),
    /// Declared payload length exceeds [`MAX_FRAME_PAYLOAD`].
    Oversized(usize),
    /// The trailing checksum did not match the frame body.
    BadChecksum {
        /// Checksum carried by the frame.
        expected: u64,
        /// Checksum computed over the received body.
        actual: u64,
    },
    /// The payload did not decode as the frame type's message.
    BadPayload(&'static str),
    /// A `HELLO` of another protocol version.
    UnsupportedVersion(u16),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(err) => write!(f, "i/o: {err}"),
            FrameError::BadMagic(magic) => write!(f, "bad frame magic {magic:02x?}"),
            FrameError::BadType(byte) => write!(f, "unknown frame type 0x{byte:02x}"),
            FrameError::Oversized(len) => write!(
                f,
                "frame payload of {len} bytes exceeds the {MAX_FRAME_PAYLOAD}-byte limit"
            ),
            FrameError::BadChecksum { expected, actual } => write!(
                f,
                "frame checksum mismatch: header says {expected:#018x}, body hashes to {actual:#018x}"
            ),
            FrameError::BadPayload(what) => write!(f, "malformed {what} payload"),
            FrameError::UnsupportedVersion(version) => write!(
                f,
                "unsupported protocol version {version} (server speaks {WIRE_VERSION})"
            ),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(err: io::Error) -> FrameError {
        FrameError::Io(err)
    }
}

/// Serialize one frame into a writer (a single buffered `write_all`, so a
/// frame is never interleaved with another writer holding the same lock).
pub fn write_frame(w: &mut impl Write, ty: FrameType, payload: &[u8]) -> io::Result<()> {
    let mut buf = Vec::with_capacity(FRAME_OVERHEAD + payload.len());
    buf.extend_from_slice(&WIRE_MAGIC);
    buf.push(ty as u8);
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(payload);
    let checksum = xxh64(&buf[4..]);
    buf.extend_from_slice(&checksum.to_le_bytes());
    w.write_all(&buf)?;
    w.flush()
}

/// Read and verify one frame. Length is validated against
/// [`MAX_FRAME_PAYLOAD`] *before* the payload is allocated or read.
pub fn read_frame(r: &mut impl Read) -> Result<(FrameType, Vec<u8>), FrameError> {
    let mut head = [0u8; 9];
    r.read_exact(&mut head)?;
    if head[0..4] != WIRE_MAGIC {
        return Err(FrameError::BadMagic([head[0], head[1], head[2], head[3]]));
    }
    let ty = FrameType::from_u8(head[4]).ok_or(FrameError::BadType(head[4]))?;
    let len = u32::from_le_bytes([head[5], head[6], head[7], head[8]]) as usize;
    if len > MAX_FRAME_PAYLOAD {
        return Err(FrameError::Oversized(len));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    let mut checksum = [0u8; 8];
    r.read_exact(&mut checksum)?;
    let expected = u64::from_le_bytes(checksum);
    let mut body = Vec::with_capacity(5 + len);
    body.push(head[4]);
    body.extend_from_slice(&head[5..9]);
    body.extend_from_slice(&payload);
    let actual = xxh64(&body);
    if actual != expected {
        // A HELLO's version leads its payload in every protocol version, so a
        // client of another version, whose frames carry another checksum, is
        // still told which version is refused.
        if ty == FrameType::Hello {
            if let Ok(hello) = decode_hello(&payload) {
                if hello.version != WIRE_VERSION {
                    return Err(FrameError::UnsupportedVersion(hello.version));
                }
            }
        }
        return Err(FrameError::BadChecksum { expected, actual });
    }
    Ok((ty, payload))
}

// ------------------------------------------------------------------- payloads

/// The decoded `HELLO` message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hello {
    /// Protocol version the client speaks ([`WIRE_VERSION`]).
    pub version: u16,
    /// Memory budget (bytes) the session's queries request from the pool.
    pub budget_bytes: u64,
    /// Requested credit window (max unacknowledged result batches).
    pub window: u32,
    /// Auth token; must match the server's configured token.
    pub auth_token: String,
}

/// Encode a `HELLO` payload.
pub fn encode_hello(hello: &Hello) -> Vec<u8> {
    let auth = hello.auth_token.as_bytes();
    let mut buf = Vec::with_capacity(2 + 8 + 4 + 2 + auth.len());
    buf.extend_from_slice(&hello.version.to_le_bytes());
    buf.extend_from_slice(&hello.budget_bytes.to_le_bytes());
    buf.extend_from_slice(&hello.window.to_le_bytes());
    buf.extend_from_slice(&(auth.len() as u16).to_le_bytes());
    buf.extend_from_slice(auth);
    buf
}

/// Decode a `HELLO` payload.
pub fn decode_hello(payload: &[u8]) -> Result<Hello, FrameError> {
    let mut c = Cursor::new(payload);
    let version = c.u16()?;
    let budget_bytes = c.u64()?;
    let window = c.u32()?;
    let auth_len = c.u16()? as usize;
    let auth_token = c.str(auth_len)?;
    c.done()?;
    Ok(Hello {
        version,
        budget_bytes,
        window,
        auth_token,
    })
}

/// Encode a `HELLO_OK` payload (version + granted window).
pub fn encode_hello_ok(version: u16, window: u32) -> Vec<u8> {
    let mut buf = Vec::with_capacity(6);
    buf.extend_from_slice(&version.to_le_bytes());
    buf.extend_from_slice(&window.to_le_bytes());
    buf
}

/// Decode a `HELLO_OK` payload into `(version, granted window)`.
pub fn decode_hello_ok(payload: &[u8]) -> Result<(u16, u32), FrameError> {
    let mut c = Cursor::new(payload);
    let version = c.u16()?;
    let window = c.u32()?;
    c.done()?;
    Ok((version, window))
}

/// The query surface a `QUERY` frame addresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryKind {
    /// The payload text is SQL.
    Sql,
    /// The payload text is a JSON-IR document.
    Ir,
}

/// Encode a `QUERY` payload.
pub fn encode_query(kind: QueryKind, text: &str) -> Vec<u8> {
    let bytes = text.as_bytes();
    let mut buf = Vec::with_capacity(1 + 4 + bytes.len());
    buf.push(match kind {
        QueryKind::Sql => 0,
        QueryKind::Ir => 1,
    });
    buf.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
    buf.extend_from_slice(bytes);
    buf
}

/// Decode a `QUERY` payload.
pub fn decode_query(payload: &[u8]) -> Result<(QueryKind, String), FrameError> {
    let mut c = Cursor::new(payload);
    let kind = match c.u8()? {
        0 => QueryKind::Sql,
        1 => QueryKind::Ir,
        _ => return Err(FrameError::BadPayload("query kind")),
    };
    let len = c.u32()? as usize;
    let text = c.str(len)?;
    c.done()?;
    Ok((kind, text))
}

fn type_code(ty: DataType) -> u8 {
    match ty {
        DataType::Int => 0,
        DataType::Double => 1,
        DataType::Str => 2,
    }
}

fn code_type(code: u8) -> Result<DataType, FrameError> {
    Ok(match code {
        0 => DataType::Int,
        1 => DataType::Double,
        2 => DataType::Str,
        _ => return Err(FrameError::BadPayload("column type")),
    })
}

/// Encode a `RESULT_SCHEMA` payload.
pub fn encode_schema(types: &[DataType]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(2 + types.len());
    buf.extend_from_slice(&(types.len() as u16).to_le_bytes());
    buf.extend(types.iter().map(|&t| type_code(t)));
    buf
}

/// Decode a `RESULT_SCHEMA` payload.
pub fn decode_schema(payload: &[u8]) -> Result<Vec<DataType>, FrameError> {
    let mut c = Cursor::new(payload);
    let ncols = c.u16()? as usize;
    let mut types = Vec::with_capacity(ncols);
    for _ in 0..ncols {
        types.push(code_type(c.u8()?)?);
    }
    c.done()?;
    Ok(types)
}

/// Encode a `RESULT_BATCH` payload: row count, column count, then each column
/// as `[type u8][null bitmap][values]` (values of every row; NULL rows carry
/// the type's default so decode needs no branching on lengths).
///
/// Each column is written from its typed slice; a coded string column writes
/// every row's dictionary entry, so the bytes do not depend on the column's form.
pub fn encode_batch(batch: &Batch) -> Vec<u8> {
    let rows = batch.len();
    let mut buf = Vec::with_capacity(16 + rows * 8 * batch.column_count().max(1));
    buf.extend_from_slice(&(rows as u32).to_le_bytes());
    buf.extend_from_slice(&(batch.column_count() as u16).to_le_bytes());
    for column in batch.columns() {
        buf.push(type_code(column.data_type()));
        match &column.validity {
            Some(validity) => buf.extend_from_slice(&(!validity).to_le_bytes()),
            None => buf.resize(buf.len() + rows.div_ceil(8), 0),
        }
        let valid = |row: usize| !column.is_null(row);
        match &column.data {
            ColumnData::Int(values) => {
                for (row, &v) in values.iter().enumerate() {
                    let v = if valid(row) { v } else { 0 };
                    buf.extend_from_slice(&v.to_le_bytes());
                }
            }
            ColumnData::Double(values) => {
                for (row, &v) in values.iter().enumerate() {
                    let bits = if valid(row) { v.to_bits() } else { 0 };
                    buf.extend_from_slice(&bits.to_le_bytes());
                }
            }
            data => {
                let strings = data.strings().expect("a string column");
                for row in 0..rows {
                    let v = if valid(row) { strings.get(row) } else { "" };
                    buf.extend_from_slice(&(v.len() as u32).to_le_bytes());
                    buf.extend_from_slice(v.as_bytes());
                }
            }
        }
    }
    buf
}

/// Decode a `RESULT_BATCH` payload. `types` is the schema announced by the
/// query's `RESULT_SCHEMA` frame; a column-count or type mismatch is a
/// protocol error.
///
/// Each column is read into its typed vector (strings plain); NULL rows hold the
/// type's default whatever the frame carried under them. Nothing is reserved
/// before the bytes it stands for have been bounds-checked, so a row count the
/// payload cannot hold is an error, not an allocation.
pub fn decode_batch(payload: &[u8], types: &[DataType]) -> Result<Batch, FrameError> {
    let mut c = Cursor::new(payload);
    let rows = c.u32()? as usize;
    let ncols = c.u16()? as usize;
    if ncols != types.len() {
        return Err(FrameError::BadPayload("batch column count"));
    }
    let mut columns = Vec::with_capacity(ncols);
    for &ty in types {
        if code_type(c.u8()?)? != ty {
            return Err(FrameError::BadPayload("batch column type"));
        }
        let nulls = Bitmap::from_le_bytes(c.bytes(rows.div_ceil(8))?, rows);
        let data = match ty {
            DataType::Int | DataType::Double => {
                let width = rows
                    .checked_mul(8)
                    .ok_or(FrameError::BadPayload("truncated"))?;
                let words = c
                    .bytes(width)?
                    .chunks_exact(8)
                    .enumerate()
                    .map(|(row, word)| {
                        let word = u64::from_le_bytes(word.try_into().expect("8 bytes"));
                        if nulls.get(row) {
                            0
                        } else {
                            word
                        }
                    });
                match ty {
                    DataType::Int => ColumnData::Int(words.map(|w| w as i64).collect()),
                    _ => ColumnData::Double(words.map(f64::from_bits).collect()),
                }
            }
            DataType::Str => {
                let mut values = Vec::new();
                for row in 0..rows {
                    let len = c.u32()? as usize;
                    let value = c.str(len)?;
                    values.push(if nulls.get(row) { String::new() } else { value });
                }
                ColumnData::Str(values)
            }
        };
        let validity = (nulls.count_ones() > 0).then(|| !&nulls);
        columns.push(Column { data, validity });
    }
    c.done()?;
    Ok(Batch::from_columns(columns))
}

/// Encode a `RESULT_DONE` payload (total rows + batches of the query).
pub fn encode_done(rows: u64, batches: u32) -> Vec<u8> {
    let mut buf = Vec::with_capacity(12);
    buf.extend_from_slice(&rows.to_le_bytes());
    buf.extend_from_slice(&batches.to_le_bytes());
    buf
}

/// Decode a `RESULT_DONE` payload into `(rows, batches)`.
pub fn decode_done(payload: &[u8]) -> Result<(u64, u32), FrameError> {
    let mut c = Cursor::new(payload);
    let rows = c.u64()?;
    let batches = c.u32()?;
    c.done()?;
    Ok((rows, batches))
}

/// Encode an `ERROR` payload.
pub fn encode_error(code: ErrorCode, message: &str) -> Vec<u8> {
    let bytes = message.as_bytes();
    let mut buf = Vec::with_capacity(1 + 4 + bytes.len());
    buf.push(code as u8);
    buf.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
    buf.extend_from_slice(bytes);
    buf
}

/// Decode an `ERROR` payload into `(code, message)`.
pub fn decode_error(payload: &[u8]) -> Result<(ErrorCode, String), FrameError> {
    let mut c = Cursor::new(payload);
    let code = ErrorCode::from_u8(c.u8()?).ok_or(FrameError::BadPayload("error code"))?;
    let len = c.u32()? as usize;
    let message = c.str(len)?;
    c.done()?;
    Ok((code, message))
}

/// Encode a `CREDIT` payload (`n` credits returned).
pub fn encode_credit(n: u32) -> Vec<u8> {
    n.to_le_bytes().to_vec()
}

/// Decode a `CREDIT` payload.
pub fn decode_credit(payload: &[u8]) -> Result<u32, FrameError> {
    let mut c = Cursor::new(payload);
    let n = c.u32()?;
    c.done()?;
    Ok(n)
}

/// A bounds-checked little-endian reader over a payload slice.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Cursor<'a> {
        Cursor { bytes, pos: 0 }
    }

    fn bytes(&mut self, n: usize) -> Result<&'a [u8], FrameError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.bytes.len())
            .ok_or(FrameError::BadPayload("truncated"))?;
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, FrameError> {
        Ok(self.bytes(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, FrameError> {
        Ok(u16::from_le_bytes(self.bytes(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, FrameError> {
        Ok(u32::from_le_bytes(self.bytes(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, FrameError> {
        Ok(u64::from_le_bytes(self.bytes(8)?.try_into().unwrap()))
    }

    fn str(&mut self, n: usize) -> Result<String, FrameError> {
        String::from_utf8(self.bytes(n)?.to_vec())
            .map_err(|_| FrameError::BadPayload("invalid utf-8"))
    }

    /// Every payload byte must be consumed — trailing garbage is a protocol
    /// error, not something to silently ignore.
    fn done(&self) -> Result<(), FrameError> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(FrameError::BadPayload("trailing bytes"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datablocks::Value;

    #[test]
    fn frame_roundtrip_and_checksum() {
        let payload = encode_query(QueryKind::Sql, "SELECT 1");
        let mut wire = Vec::new();
        write_frame(&mut wire, FrameType::Query, &payload).unwrap();
        assert_eq!(wire.len(), FRAME_OVERHEAD + payload.len());
        let (ty, decoded) = read_frame(&mut wire.as_slice()).unwrap();
        assert_eq!(ty, FrameType::Query);
        assert_eq!(decoded, payload);

        // A flipped payload bit must fail the checksum loudly.
        let mut corrupt = wire.clone();
        corrupt[12] ^= 0x40;
        assert!(matches!(
            read_frame(&mut corrupt.as_slice()),
            Err(FrameError::BadChecksum { .. })
        ));

        // Wrong magic is rejected before anything is read.
        let mut bad_magic = wire.clone();
        bad_magic[0] = b'X';
        assert!(matches!(
            read_frame(&mut bad_magic.as_slice()),
            Err(FrameError::BadMagic(_))
        ));
    }

    #[test]
    fn every_single_bit_flip_of_a_frame_is_rejected() {
        let payload = encode_query(QueryKind::Sql, "SELECT l_orderkey FROM lineitem");
        let mut wire = Vec::new();
        write_frame(&mut wire, FrameType::Query, &payload).unwrap();
        for bit in 0..wire.len() * 8 {
            let mut flipped = wire.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert!(read_frame(&mut flipped.as_slice()).is_err(), "bit {bit}");
        }
    }

    #[test]
    fn oversized_length_is_rejected_before_allocation() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&WIRE_MAGIC);
        wire.push(FrameType::Query as u8);
        wire.extend_from_slice(&(u32::MAX).to_le_bytes());
        assert!(matches!(
            read_frame(&mut wire.as_slice()),
            Err(FrameError::Oversized(_))
        ));
    }

    #[test]
    fn hello_roundtrip() {
        let hello = Hello {
            version: WIRE_VERSION,
            budget_bytes: 32 << 20,
            window: 4,
            auth_token: "secret".into(),
        };
        assert_eq!(decode_hello(&encode_hello(&hello)).unwrap(), hello);
    }

    #[test]
    fn batch_roundtrip_with_nulls() {
        let types = [DataType::Int, DataType::Double, DataType::Str];
        let batch = Batch::from_rows(
            &types,
            &[
                vec![Value::Int(-7), Value::Double(1.5), Value::Str("a".into())],
                vec![Value::Null, Value::Null, Value::Null],
                vec![Value::Int(9), Value::Double(-0.0), Value::Str("".into())],
            ],
        );
        let decoded = decode_batch(&encode_batch(&batch), &types).unwrap();
        assert_eq!(decoded.columns(), batch.columns());
        for row in 0..batch.len() {
            assert_eq!(decoded.row(row), batch.row(row));
        }
        // -0.0 keeps its sign bit
        assert_eq!(
            decoded.value(2, 1).as_double().unwrap().to_bits(),
            (-0.0f64).to_bits()
        );
        // Schema mismatch is a loud protocol error.
        assert!(decode_batch(&encode_batch(&batch), &[DataType::Int]).is_err());
    }

    /// The bytes of a 70-row batch whose NULLs sit on both sides of a 64-row word
    /// boundary and in the last, partly filled bitmap byte.
    #[test]
    fn the_wire_bytes_of_a_fixed_batch_are_pinned() {
        let types = [DataType::Int, DataType::Double, DataType::Str];
        let rows: Vec<Vec<Value>> = (0..70i64)
            .map(|row| {
                if [0, 7, 8, 63, 64, 69].contains(&row) {
                    vec![Value::Null; 3]
                } else {
                    let text = "ab".repeat(row as usize % 5);
                    vec![
                        Value::Int(row * 37 - 1000),
                        Value::Double(row as f64 * -0.75),
                        Value::Str(text),
                    ]
                }
            })
            .collect();
        let batch = Batch::from_rows(&types, &rows);
        let bytes = encode_batch(&batch);
        assert_eq!((bytes.len(), xxh64(&bytes)), (1684, 0x9dd0_4451_c4e8_445d));
        assert_eq!(
            decode_batch(&bytes, &types).unwrap().columns(),
            batch.columns()
        );
    }

    /// A two-row string column: "pear", then NULL — coded (over a shuffled
    /// dictionary with an unused entry and a non-empty string under the NULL) and
    /// plain.
    fn coded_and_plain() -> (Batch, Batch) {
        let validity = Some(Bitmap::from_fn(2, |row| row == 0));
        let coded = Column {
            data: ColumnData::Dict {
                dict: ["fig", "pear", "unused"].map(String::from).into(),
                codes: vec![1, 0],
            },
            validity: validity.clone(),
        };
        let plain = Column {
            data: ColumnData::Str(vec!["pear".into(), String::new()]),
            validity,
        };
        let ints = Column::from_data(ColumnData::Int(vec![1, 2]));
        (
            Batch::from_columns(vec![coded, ints.clone()]),
            Batch::from_columns(vec![plain, ints]),
        )
    }

    #[test]
    fn a_coded_column_encodes_to_the_bytes_of_its_plain_twin() {
        let (coded, plain) = coded_and_plain();
        let bytes = encode_batch(&coded);
        assert_eq!(bytes, encode_batch(&plain));
        let decoded = decode_batch(&bytes, &[DataType::Str, DataType::Int]).unwrap();
        assert!(matches!(decoded.column(0).data, ColumnData::Str(_)));
        assert_eq!(decoded.columns(), plain.columns());
    }

    #[test]
    fn malformed_batches_are_errors_not_allocations() {
        let types = [DataType::Str, DataType::Int];
        let good = encode_batch(&coded_and_plain().1);
        assert!(decode_batch(&good, &types).is_ok());
        let bad_payload = |payload: &[u8], types: &[DataType]| {
            matches!(decode_batch(payload, types), Err(FrameError::BadPayload(_)))
        };
        // every truncation
        for len in 0..good.len() {
            assert!(bad_payload(&good[..len], &types), "truncated to {len}");
        }
        // a wrong type byte (the first column's, right after the header)
        let mut wrong_type = good.clone();
        wrong_type[6] = type_code(DataType::Double);
        assert!(bad_payload(&wrong_type, &types));
        wrong_type[6] = 9;
        assert!(bad_payload(&wrong_type, &types));
        // bad UTF-8 in the first string ("pear": header 6, type 1, bitmap 1, len 4)
        let mut bad_utf8 = good.clone();
        bad_utf8[12] = 0xff;
        assert!(bad_payload(&bad_utf8, &types));
        // trailing bytes
        let mut trailing = good.clone();
        trailing.push(0);
        assert!(bad_payload(&trailing, &types));
        // A 10-byte payload claiming u32::MAX rows: reserving for them first would
        // ask for tens of GiB and abort the test process.
        for ty in [DataType::Int, DataType::Double, DataType::Str] {
            let mut huge = u32::MAX.to_le_bytes().to_vec();
            huge.extend_from_slice(&1u16.to_le_bytes());
            huge.push(type_code(ty));
            huge.extend_from_slice(&[0; 3]);
            assert_eq!(huge.len(), 10);
            assert!(bad_payload(&huge, &[ty]), "{ty}");
            // … and the same with a bitmap that fits, past which the values do not
            let mut rows = 1_000_000u32.to_le_bytes().to_vec();
            rows.extend_from_slice(&huge[4..]);
            rows.extend(std::iter::repeat_n(0u8, 1_000_000 / 8));
            assert!(bad_payload(&rows, &[ty]), "{ty}");
        }
    }
}
