//! The framed wire protocol shared by server and client.
//!
//! Every message travels as one frame: `[u32 len][u32 crc32(payload)]
//! [payload]`, little-endian, the same layout the WAL uses on disk — a
//! torn or bit-flipped frame is detected the same way a torn log record
//! is. The first payload byte is a message tag; requests and responses
//! use disjoint tag ranges so a desynchronized stream fails loudly
//! instead of misparsing.
//!
//! The protocol is versioned: a connection opens with
//! [`Request::Hello`] carrying [`PROTOCOL_VERSION`]; the server answers
//! [`Response::HelloAck`] or a typed error and closes. Everything after
//! the handshake is `Query` / response streams. Row payloads reuse the
//! WAL's row codec ([`oltap_txn::wal::encode_row`]) so values roundtrip
//! identically on disk and on the wire.

use bytes::{Buf, BufMut};
use oltap_common::{crc32, DataType, DbError, Field, Result, Row};
use oltap_txn::wal::{decode_row, encode_row};
use std::io::{Read, Write};

/// Wire protocol version. Bumped on any incompatible frame or codec
/// change; the handshake rejects mismatches with a typed error.
pub const PROTOCOL_VERSION: u32 = 1;

/// Hard cap on a single frame (defense against a corrupt or hostile
/// length prefix allocating unbounded memory).
pub const MAX_FRAME: usize = 16 * 1024 * 1024;

/// Client → server messages.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Protocol handshake; must be the first message on a connection.
    Hello {
        /// The client's [`PROTOCOL_VERSION`].
        version: u32,
    },
    /// Execute one SQL statement.
    Query {
        /// The statement text.
        sql: String,
    },
    /// Orderly connection close (the server drops the session, aborting
    /// any open transaction, exactly as it would on an abrupt drop).
    Close,
}

/// What a [`Response::Done`] message terminates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DoneKind {
    /// End of a row stream (preceded by `Schema` + zero or more `Rows`).
    RowsEnd,
    /// A DML statement; the count is rows affected.
    Affected,
    /// DDL completed.
    Ddl,
    /// Transaction control completed (note carries "BEGIN"/"COMMIT"/...).
    Txn,
}

/// Server → client messages.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Handshake accepted.
    HelloAck {
        /// The server's [`PROTOCOL_VERSION`].
        version: u32,
    },
    /// Result-set schema; precedes the `Rows` frames of a SELECT.
    Schema {
        /// Output fields.
        fields: Vec<Field>,
    },
    /// One chunk of result rows (a SELECT streams several).
    Rows {
        /// The rows in this chunk.
        rows: Vec<Row>,
    },
    /// Statement finished successfully.
    Done {
        /// What finished.
        kind: DoneKind,
        /// Rows affected (DML) or total rows streamed (SELECT).
        count: u64,
        /// Human-readable note ("COMMIT", ...); empty when meaningless.
        note: String,
    },
    /// Statement failed (or the connection is being refused). The
    /// connection stays usable after a statement error; transport-level
    /// errors close it.
    Error {
        /// The typed engine error.
        error: DbError,
        /// Minimum milliseconds to wait before retrying (0 = client's
        /// own backoff pace). Nonzero on admission-surface rejections.
        retry_after_ms: u64,
    },
}

// ---------------------------------------------------------------- framing

/// Writes one frame. The caller picks the sink (socket, Vec for tests).
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
    let mut head = [0u8; 8];
    head[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    head[4..].copy_from_slice(&crc32(payload).to_le_bytes());
    w.write_all(&head)?;
    w.write_all(payload)?;
    w.flush()
}

/// Serializes a frame into a buffer (for queueing before the socket).
pub fn frame_bytes(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 8);
    put_frame(&mut out, payload);
    out
}

/// Appends one frame to `out`: the frames of one answer queue up in one
/// buffer and leave in one write.
pub(crate) fn put_frame(out: &mut Vec<u8>, payload: &[u8]) {
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
}

/// The payload length and CRC a frame header holds, the length checked
/// against [`MAX_FRAME`] — before anything is allocated for the payload.
pub(crate) fn header(head: &[u8; 8]) -> Result<(usize, u32)> {
    let len = u32::from_le_bytes(head[..4].try_into().expect("four bytes")) as usize;
    if len > MAX_FRAME {
        return Err(DbError::Corruption(format!(
            "frame length {len} exceeds cap {MAX_FRAME}"
        )));
    }
    let crc = u32::from_le_bytes(head[4..].try_into().expect("four bytes"));
    Ok((len, crc))
}

fn verify(payload: &[u8], crc: u32) -> Result<()> {
    match crc32(payload) == crc {
        true => Ok(()),
        false => Err(DbError::Corruption("frame CRC mismatch".into())),
    }
}

/// The payload of the frame at the front of `buf` and the bytes it takes,
/// once all of it is there; `Ok(None)` until then.
pub(crate) fn split_frame(buf: &[u8]) -> Result<Option<(&[u8], usize)>> {
    let Some(head) = buf.first_chunk() else {
        return Ok(None);
    };
    let (len, crc) = header(head)?;
    let Some(payload) = buf.get(8..8 + len) else {
        return Ok(None);
    };
    verify(payload, crc)?;
    Ok(Some((payload, 8 + len)))
}

/// Reads one full frame, verifying length sanity and CRC. An EOF before
/// the first header byte returns `Ok(None)` (orderly peer close); an EOF
/// or timeout mid-frame is a torn frame ([`DbError::Corruption`] /
/// [`DbError::DeadlineExceeded`]).
pub fn read_frame(r: &mut impl Read) -> Result<Option<Vec<u8>>> {
    let mut head = [0u8; 8];
    match read_exact_or_eof(r, &mut head)? {
        ReadOutcome::Eof => return Ok(None),
        ReadOutcome::Partial => {
            return Err(DbError::Corruption("torn frame header".into()))
        }
        ReadOutcome::Full => {}
    }
    let (len, crc) = header(&head)?;
    let mut payload = vec![0u8; len];
    match read_exact_or_eof(r, &mut payload)? {
        ReadOutcome::Full => {}
        ReadOutcome::Eof | ReadOutcome::Partial => {
            return Err(DbError::Corruption("torn frame payload".into()))
        }
    }
    verify(&payload, crc)?;
    Ok(Some(payload))
}

enum ReadOutcome {
    Full,
    Eof,
    Partial,
}

/// `read_exact` that distinguishes clean EOF (no bytes) from a torn read
/// (some bytes then EOF), and maps a socket read timeout to
/// [`DbError::DeadlineExceeded`] so the caller can tell "peer is idle"
/// from "peer stalled mid-frame".
fn read_exact_or_eof(r: &mut impl Read, buf: &mut [u8]) -> Result<ReadOutcome> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return Ok(if filled == 0 {
                    ReadOutcome::Eof
                } else {
                    ReadOutcome::Partial
                })
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                return Err(DbError::DeadlineExceeded(
                    "read deadline mid-frame".into(),
                ))
            }
            Err(e) => return Err(e.into()),
        }
    }
    Ok(ReadOutcome::Full)
}

// ----------------------------------------------------------- tag helpers

const TAG_HELLO: u8 = 0x01;
const TAG_QUERY: u8 = 0x02;
const TAG_CLOSE: u8 = 0x03;
const TAG_HELLO_ACK: u8 = 0x81;
const TAG_SCHEMA: u8 = 0x82;
const TAG_ROWS: u8 = 0x83;
const TAG_DONE: u8 = 0x84;
const TAG_ERROR: u8 = 0x85;

fn put_str(buf: &mut Vec<u8>, s: &str) {
    buf.put_u32_le(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

fn get_str(buf: &mut &[u8]) -> Result<String> {
    if buf.remaining() < 4 {
        return Err(DbError::Corruption("truncated string length".into()));
    }
    let len = buf.get_u32_le() as usize;
    if buf.remaining() < len {
        return Err(DbError::Corruption("truncated string bytes".into()));
    }
    let s = std::str::from_utf8(&buf[..len])
        .map_err(|_| DbError::Corruption("invalid utf8 on wire".into()))?
        .to_string();
    buf.advance(len);
    Ok(s)
}

fn get_u8(buf: &mut &[u8]) -> Result<u8> {
    if buf.remaining() < 1 {
        return Err(DbError::Corruption("truncated u8".into()));
    }
    Ok(buf.get_u8())
}

fn get_u32(buf: &mut &[u8]) -> Result<u32> {
    if buf.remaining() < 4 {
        return Err(DbError::Corruption("truncated u32".into()));
    }
    Ok(buf.get_u32_le())
}

fn get_u64(buf: &mut &[u8]) -> Result<u64> {
    if buf.remaining() < 8 {
        return Err(DbError::Corruption("truncated u64".into()));
    }
    Ok(buf.get_u64_le())
}

fn dtype_tag(dt: DataType) -> u8 {
    match dt {
        DataType::Int64 => 0,
        DataType::Float64 => 1,
        DataType::Utf8 => 2,
        DataType::Bool => 3,
        DataType::Timestamp => 4,
    }
}

fn dtype_from(tag: u8) -> Result<DataType> {
    Ok(match tag {
        0 => DataType::Int64,
        1 => DataType::Float64,
        2 => DataType::Utf8,
        3 => DataType::Bool,
        4 => DataType::Timestamp,
        t => return Err(DbError::Corruption(format!("bad dtype tag {t}"))),
    })
}

// -------------------------------------------------------- request codec

impl Request {
    /// Serializes this request to a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(16);
        match self {
            Request::Hello { version } => {
                buf.put_u8(TAG_HELLO);
                buf.put_u32_le(*version);
            }
            Request::Query { sql } => {
                buf.put_u8(TAG_QUERY);
                put_str(&mut buf, sql);
            }
            Request::Close => buf.put_u8(TAG_CLOSE),
        }
        buf
    }

    /// Parses a frame payload as a request.
    pub fn decode(mut payload: &[u8]) -> Result<Request> {
        let buf = &mut payload;
        let req = match get_u8(buf)? {
            TAG_HELLO => Request::Hello {
                version: get_u32(buf)?,
            },
            TAG_QUERY => Request::Query { sql: get_str(buf)? },
            TAG_CLOSE => Request::Close,
            t => {
                return Err(DbError::Corruption(format!(
                    "unknown request tag {t:#x}"
                )))
            }
        };
        if !buf.is_empty() {
            return Err(DbError::Corruption("trailing bytes in request".into()));
        }
        Ok(req)
    }
}

// ------------------------------------------------------- response codec

impl Response {
    /// Serializes this response to a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(32);
        match self {
            Response::HelloAck { version } => {
                buf.put_u8(TAG_HELLO_ACK);
                buf.put_u32_le(*version);
            }
            Response::Schema { fields } => {
                buf.put_u8(TAG_SCHEMA);
                buf.put_u16_le(fields.len() as u16);
                for f in fields {
                    put_str(&mut buf, &f.name);
                    buf.put_u8(dtype_tag(f.data_type));
                    buf.put_u8(f.nullable as u8);
                }
            }
            Response::Rows { rows } => {
                buf.put_u8(TAG_ROWS);
                buf.put_u32_le(rows.len() as u32);
                for r in rows {
                    let bytes = encode_row(r);
                    buf.put_u32_le(bytes.len() as u32);
                    buf.put_slice(&bytes);
                }
            }
            Response::Done { kind, count, note } => {
                buf.put_u8(TAG_DONE);
                buf.put_u8(match kind {
                    DoneKind::RowsEnd => 0,
                    DoneKind::Affected => 1,
                    DoneKind::Ddl => 2,
                    DoneKind::Txn => 3,
                });
                buf.put_u64_le(*count);
                put_str(&mut buf, note);
            }
            Response::Error {
                error,
                retry_after_ms,
            } => {
                buf.put_u8(TAG_ERROR);
                encode_error(&mut buf, error);
                buf.put_u64_le(*retry_after_ms);
            }
        }
        buf
    }

    /// Parses a frame payload as a response.
    pub fn decode(mut payload: &[u8]) -> Result<Response> {
        let buf = &mut payload;
        let resp = match get_u8(buf)? {
            TAG_HELLO_ACK => Response::HelloAck {
                version: get_u32(buf)?,
            },
            TAG_SCHEMA => {
                if buf.remaining() < 2 {
                    return Err(DbError::Corruption("truncated schema".into()));
                }
                let n = buf.get_u16_le() as usize;
                let mut fields = Vec::with_capacity(n);
                for _ in 0..n {
                    let name = get_str(buf)?;
                    let dt = dtype_from(get_u8(buf)?)?;
                    let nullable = get_u8(buf)? != 0;
                    fields.push(Field {
                        name,
                        data_type: dt,
                        nullable,
                    });
                }
                Response::Schema { fields }
            }
            TAG_ROWS => {
                let n = get_u32(buf)? as usize;
                let mut rows = Vec::with_capacity(n.min(64 * 1024));
                for _ in 0..n {
                    let len = get_u32(buf)? as usize;
                    if buf.remaining() < len {
                        return Err(DbError::Corruption("truncated row".into()));
                    }
                    rows.push(decode_row(&buf[..len])?);
                    buf.advance(len);
                }
                Response::Rows { rows }
            }
            TAG_DONE => {
                let kind = match get_u8(buf)? {
                    0 => DoneKind::RowsEnd,
                    1 => DoneKind::Affected,
                    2 => DoneKind::Ddl,
                    3 => DoneKind::Txn,
                    t => {
                        return Err(DbError::Corruption(format!(
                            "bad done kind {t}"
                        )))
                    }
                };
                Response::Done {
                    kind,
                    count: get_u64(buf)?,
                    note: get_str(buf)?,
                }
            }
            TAG_ERROR => {
                let error = decode_error(buf)?;
                Response::Error {
                    error,
                    retry_after_ms: get_u64(buf)?,
                }
            }
            t => {
                return Err(DbError::Corruption(format!(
                    "unknown response tag {t:#x}"
                )))
            }
        };
        if !buf.is_empty() {
            return Err(DbError::Corruption("trailing bytes in response".into()));
        }
        Ok(resp)
    }
}

// ---------------------------------------------------------- error codec

/// Encodes a [`DbError`] so the client reconstructs the exact variant —
/// typed errors are the contract: retry logic branches on the variant,
/// not on string matching.
fn encode_error(buf: &mut Vec<u8>, e: &DbError) {
    match e {
        DbError::TypeMismatch { expected, actual } => {
            buf.put_u8(0);
            put_str(buf, expected);
            put_str(buf, actual);
        }
        DbError::TableNotFound(s) => {
            buf.put_u8(1);
            put_str(buf, s);
        }
        DbError::ColumnNotFound(s) => {
            buf.put_u8(2);
            put_str(buf, s);
        }
        DbError::AlreadyExists(s) => {
            buf.put_u8(3);
            put_str(buf, s);
        }
        DbError::DuplicateKey(s) => {
            buf.put_u8(4);
            put_str(buf, s);
        }
        DbError::KeyNotFound(s) => {
            buf.put_u8(5);
            put_str(buf, s);
        }
        DbError::WriteConflict(s) => {
            buf.put_u8(6);
            put_str(buf, s);
        }
        DbError::TxnClosed(s) => {
            buf.put_u8(7);
            put_str(buf, s);
        }
        DbError::Parse(s) => {
            buf.put_u8(8);
            put_str(buf, s);
        }
        DbError::Plan(s) => {
            buf.put_u8(9);
            put_str(buf, s);
        }
        DbError::Execution(s) => {
            buf.put_u8(10);
            put_str(buf, s);
        }
        DbError::Corruption(s) => {
            buf.put_u8(11);
            put_str(buf, s);
        }
        DbError::Cluster(s) => {
            buf.put_u8(12);
            put_str(buf, s);
        }
        DbError::ShardUnavailable { partition, reason } => {
            buf.put_u8(13);
            buf.put_u64_le(*partition);
            put_str(buf, reason);
        }
        DbError::TxnInDoubt { gtxn } => {
            buf.put_u8(14);
            buf.put_u64_le(*gtxn);
        }
        DbError::Unsupported(s) => {
            buf.put_u8(15);
            put_str(buf, s);
        }
        DbError::InvalidArgument(s) => {
            buf.put_u8(16);
            put_str(buf, s);
        }
        DbError::Io(s) => {
            buf.put_u8(17);
            put_str(buf, s);
        }
        DbError::Cancelled(s) => {
            buf.put_u8(18);
            put_str(buf, s);
        }
        DbError::DeadlineExceeded(s) => {
            buf.put_u8(19);
            put_str(buf, s);
        }
        DbError::ResourceExhausted {
            class,
            requested,
            available,
        } => {
            buf.put_u8(20);
            put_str(buf, class);
            buf.put_u64_le(*requested);
            buf.put_u64_le(*available);
        }
        DbError::FaultInjected(s) => {
            buf.put_u8(21);
            put_str(buf, s);
        }
        DbError::Unavailable {
            reason,
            retry_after_ms,
        } => {
            buf.put_u8(22);
            put_str(buf, reason);
            buf.put_u64_le(*retry_after_ms);
        }
    }
}

fn decode_error(buf: &mut &[u8]) -> Result<DbError> {
    Ok(match get_u8(buf)? {
        0 => DbError::TypeMismatch {
            expected: get_str(buf)?,
            actual: get_str(buf)?,
        },
        1 => DbError::TableNotFound(get_str(buf)?),
        2 => DbError::ColumnNotFound(get_str(buf)?),
        3 => DbError::AlreadyExists(get_str(buf)?),
        4 => DbError::DuplicateKey(get_str(buf)?),
        5 => DbError::KeyNotFound(get_str(buf)?),
        6 => DbError::WriteConflict(get_str(buf)?),
        7 => DbError::TxnClosed(get_str(buf)?),
        8 => DbError::Parse(get_str(buf)?),
        9 => DbError::Plan(get_str(buf)?),
        10 => DbError::Execution(get_str(buf)?),
        11 => DbError::Corruption(get_str(buf)?),
        12 => DbError::Cluster(get_str(buf)?),
        13 => DbError::ShardUnavailable {
            partition: get_u64(buf)?,
            reason: get_str(buf)?,
        },
        14 => DbError::TxnInDoubt { gtxn: get_u64(buf)? },
        15 => DbError::Unsupported(get_str(buf)?),
        16 => DbError::InvalidArgument(get_str(buf)?),
        17 => DbError::Io(get_str(buf)?),
        18 => DbError::Cancelled(get_str(buf)?),
        19 => DbError::DeadlineExceeded(get_str(buf)?),
        20 => DbError::ResourceExhausted {
            class: get_str(buf)?,
            requested: get_u64(buf)?,
            available: get_u64(buf)?,
        },
        21 => DbError::FaultInjected(get_str(buf)?),
        22 => DbError::Unavailable {
            reason: get_str(buf)?,
            retry_after_ms: get_u64(buf)?,
        },
        t => return Err(DbError::Corruption(format!("bad error code {t}"))),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use oltap_common::Value;

    #[test]
    fn frame_roundtrip_and_crc_detection() {
        let payload = b"hello wire".to_vec();
        let mut buf = Vec::new();
        write_frame(&mut buf, &payload).unwrap();
        assert_eq!(buf, frame_bytes(&payload));
        let got = read_frame(&mut buf.as_slice()).unwrap().unwrap();
        assert_eq!(got, payload);

        // Flip one payload bit: CRC must catch it.
        let mut torn = buf.clone();
        let last = torn.len() - 1;
        torn[last] ^= 0x40;
        let err = read_frame(&mut torn.as_slice()).unwrap_err();
        assert!(matches!(err, DbError::Corruption(_)), "{err}");

        // Truncate mid-payload: torn frame, not clean EOF.
        let err = read_frame(&mut &buf[..buf.len() - 3]).unwrap_err();
        assert!(matches!(err, DbError::Corruption(_)), "{err}");

        // Empty stream: clean EOF.
        assert!(read_frame(&mut [].as_slice()).unwrap().is_none());
    }

    #[test]
    fn oversized_frame_rejected() {
        let mut head = Vec::new();
        head.extend_from_slice(&(u32::MAX).to_le_bytes());
        head.extend_from_slice(&0u32.to_le_bytes());
        let err = read_frame(&mut head.as_slice()).unwrap_err();
        assert!(matches!(err, DbError::Corruption(m) if m.contains("cap")));
    }

    #[test]
    fn request_roundtrip() {
        for req in [
            Request::Hello {
                version: PROTOCOL_VERSION,
            },
            Request::Query {
                sql: "SELECT 1 FROM t WHERE x = 'naïve'".into(),
            },
            Request::Close,
        ] {
            assert_eq!(Request::decode(&req.encode()).unwrap(), req);
        }
        assert!(Request::decode(&[0x7f]).is_err());
    }

    #[test]
    fn response_roundtrip() {
        let rows = vec![
            Row::new(vec![Value::Int(1), Value::Str("a".into()), Value::Null]),
            Row::new(vec![
                Value::Int(-7),
                Value::Str("".into()),
                Value::Float(2.5),
            ]),
        ];
        for resp in [
            Response::HelloAck {
                version: PROTOCOL_VERSION,
            },
            Response::Schema {
                fields: vec![
                    Field::not_null("id", DataType::Int64),
                    Field::new("tag", DataType::Utf8),
                    Field::new("v", DataType::Float64),
                ],
            },
            Response::Rows { rows },
            Response::Done {
                kind: DoneKind::Affected,
                count: 42,
                note: String::new(),
            },
            Response::Done {
                kind: DoneKind::Txn,
                count: 0,
                note: "COMMIT".into(),
            },
        ] {
            assert_eq!(Response::decode(&resp.encode()).unwrap(), resp);
        }
    }

    #[test]
    fn every_error_variant_roundtrips() {
        let errors = vec![
            DbError::TypeMismatch {
                expected: "Int64".into(),
                actual: "Utf8".into(),
            },
            DbError::TableNotFound("t".into()),
            DbError::ColumnNotFound("c".into()),
            DbError::AlreadyExists("t".into()),
            DbError::DuplicateKey("k".into()),
            DbError::KeyNotFound("k".into()),
            DbError::WriteConflict("w".into()),
            DbError::TxnClosed("x".into()),
            DbError::Parse("p".into()),
            DbError::Plan("p".into()),
            DbError::Execution("e".into()),
            DbError::Corruption("c".into()),
            DbError::Cluster("c".into()),
            DbError::ShardUnavailable {
                partition: 3,
                reason: "no leader".into(),
            },
            DbError::TxnInDoubt { gtxn: 9 },
            DbError::Unsupported("u".into()),
            DbError::InvalidArgument("i".into()),
            DbError::Io("io".into()),
            DbError::Cancelled("c".into()),
            DbError::DeadlineExceeded("d".into()),
            DbError::ResourceExhausted {
                class: "olap".into(),
                requested: 10,
                available: 2,
            },
            DbError::FaultInjected("f".into()),
            DbError::Unavailable {
                reason: "draining".into(),
                retry_after_ms: 125,
            },
        ];
        for e in errors {
            let resp = Response::Error {
                error: e.clone(),
                retry_after_ms: 17,
            };
            match Response::decode(&resp.encode()).unwrap() {
                Response::Error {
                    error,
                    retry_after_ms,
                } => {
                    assert_eq!(error, e);
                    assert_eq!(retry_after_ms, 17);
                }
                other => panic!("decoded {other:?}"),
            }
        }
    }
}
