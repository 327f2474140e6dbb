//! The write-ahead log: redo logging of committed transactions and replay.
//!
//! The engine uses *redo-only, commit-time* logging: a transaction's DML is
//! buffered in its write set and a single log record containing all of its
//! operations is appended (and optionally fsync'd) at commit. Uncommitted
//! work never reaches the log, so recovery is a single forward scan that
//! re-applies records in commit order — no undo pass. This mirrors how the
//! in-memory systems the paper surveys (HANA, MemSQL, HyPer) log logical
//! operations rather than physical pages.
//!
//! Record framing: `[u32 payload_len][u32 crc32(payload)][payload]`.
//! A truncated or corrupt tail (the crash case) stops replay cleanly at the
//! last intact record.

use crate::clock::Ts;
use bytes::{Buf, BufMut};
use oltap_common::fault::{points, FaultInjector};
use oltap_common::ids::TxnId;
use oltap_common::{DbError, Result, Row, Value};
use parking_lot::Mutex;
use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// The frame checksum, re-exported under the path it was first written at.
pub use oltap_common::crc32;

/// One logical DML operation in the log.
#[derive(Debug, Clone, PartialEq)]
pub enum WalOp {
    /// Insert `row` into `table`.
    Insert {
        /// Target table name.
        table: String,
        /// Full row image.
        row: Row,
    },
    /// Update the row identified by `key` in `table` to the full image `row`.
    Update {
        /// Target table name.
        table: String,
        /// Primary-key values.
        key: Row,
        /// New full row image.
        row: Row,
    },
    /// Delete the row identified by `key` from `table`.
    Delete {
        /// Target table name.
        table: String,
        /// Primary-key values.
        key: Row,
    },
    /// A DDL statement, logged as its SQL text and replayed by re-parsing
    /// (logical logging; keeps the WAL schema-free).
    Ddl {
        /// The original statement text.
        sql: String,
    },
}

/// The unit of logging: everything a transaction did, stamped with its
/// commit timestamp.
#[derive(Debug, Clone, PartialEq)]
pub struct CommitRecord {
    /// The committing transaction.
    pub txn: TxnId,
    /// Its commit timestamp.
    pub commit_ts: Ts,
    /// The redo operations, in execution order.
    pub ops: Vec<WalOp>,
}

// ---------------------------------------------------------------------------
// Value / Row binary encoding
// ---------------------------------------------------------------------------

/// Appends one value in the WAL's binary value codec (also the executor's
/// spill records).
pub fn put_value(buf: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => buf.put_u8(0),
        Value::Bool(b) => {
            buf.put_u8(1);
            buf.put_u8(*b as u8);
        }
        Value::Int(i) => {
            buf.put_u8(2);
            buf.put_i64_le(*i);
        }
        Value::Timestamp(i) => {
            buf.put_u8(3);
            buf.put_i64_le(*i);
        }
        Value::Float(f) => {
            buf.put_u8(4);
            buf.put_f64_le(*f);
        }
        Value::Str(s) => {
            buf.put_u8(5);
            buf.put_u32_le(s.len() as u32);
            buf.put_slice(s.as_bytes());
        }
    }
}

/// Reads one value written by [`put_value`] off the front of `buf`.
pub fn get_value(buf: &mut &[u8]) -> Result<Value> {
    if buf.is_empty() {
        return Err(DbError::Corruption("truncated value".into()));
    }
    let tag = buf.get_u8();
    Ok(match tag {
        0 => Value::Null,
        1 => {
            check_len(buf, 1)?;
            Value::Bool(buf.get_u8() != 0)
        }
        2 => {
            check_len(buf, 8)?;
            Value::Int(buf.get_i64_le())
        }
        3 => {
            check_len(buf, 8)?;
            Value::Timestamp(buf.get_i64_le())
        }
        4 => {
            check_len(buf, 8)?;
            Value::Float(buf.get_f64_le())
        }
        5 => {
            check_len(buf, 4)?;
            let n = buf.get_u32_le() as usize;
            check_len(buf, n)?;
            let s = String::from_utf8(buf[..n].to_vec())
                .map_err(|_| DbError::Corruption("invalid utf8 in wal".into()))?;
            buf.advance(n);
            Value::Str(s)
        }
        t => return Err(DbError::Corruption(format!("bad value tag {t}"))),
    })
}

fn check_len(buf: &[u8], n: usize) -> Result<()> {
    if buf.len() < n {
        Err(DbError::Corruption("truncated record".into()))
    } else {
        Ok(())
    }
}

fn put_row(buf: &mut Vec<u8>, row: &Row) {
    buf.put_u16_le(row.len() as u16);
    for v in row.values() {
        put_value(buf, v);
    }
}

fn get_row(buf: &mut &[u8]) -> Result<Row> {
    check_len(buf, 2)?;
    let n = buf.get_u16_le() as usize;
    let mut vals = Vec::with_capacity(n);
    for _ in 0..n {
        vals.push(get_value(buf)?);
    }
    Ok(Row::new(vals))
}

/// Encodes a row with the WAL's binary value codec (also used by the
/// distributed layer for Raft commands).
pub fn encode_row(row: &Row) -> Vec<u8> {
    let mut buf = Vec::with_capacity(32);
    put_row(&mut buf, row);
    buf
}

/// Decodes a row produced by [`encode_row`].
pub fn decode_row(mut bytes: &[u8]) -> Result<Row> {
    let row = get_row(&mut bytes)?;
    if !bytes.is_empty() {
        return Err(DbError::Corruption("trailing bytes after row".into()));
    }
    Ok(row)
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    buf.put_u32_le(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

fn get_str(buf: &mut &[u8]) -> Result<String> {
    check_len(buf, 4)?;
    let n = buf.get_u32_le() as usize;
    check_len(buf, n)?;
    let s = String::from_utf8(buf[..n].to_vec())
        .map_err(|_| DbError::Corruption("invalid utf8 in wal".into()))?;
    buf.advance(n);
    Ok(s)
}

impl WalOp {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            WalOp::Insert { table, row } => {
                buf.put_u8(0);
                put_str(buf, table);
                put_row(buf, row);
            }
            WalOp::Update { table, key, row } => {
                buf.put_u8(1);
                put_str(buf, table);
                put_row(buf, key);
                put_row(buf, row);
            }
            WalOp::Delete { table, key } => {
                buf.put_u8(2);
                put_str(buf, table);
                put_row(buf, key);
            }
            WalOp::Ddl { sql } => {
                buf.put_u8(3);
                put_str(buf, sql);
            }
        }
    }

    fn decode(buf: &mut &[u8]) -> Result<WalOp> {
        check_len(buf, 1)?;
        let tag = buf.get_u8();
        Ok(match tag {
            0 => WalOp::Insert {
                table: get_str(buf)?,
                row: get_row(buf)?,
            },
            1 => WalOp::Update {
                table: get_str(buf)?,
                key: get_row(buf)?,
                row: get_row(buf)?,
            },
            2 => WalOp::Delete {
                table: get_str(buf)?,
                key: get_row(buf)?,
            },
            3 => WalOp::Ddl {
                sql: get_str(buf)?,
            },
            t => return Err(DbError::Corruption(format!("bad op tag {t}"))),
        })
    }
}

impl CommitRecord {
    /// Serializes the record payload (without framing).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(64);
        buf.put_u64_le(self.txn.raw());
        buf.put_u64_le(self.commit_ts);
        buf.put_u32_le(self.ops.len() as u32);
        for op in &self.ops {
            op.encode(&mut buf);
        }
        buf
    }

    /// Deserializes a record payload.
    pub fn decode(mut buf: &[u8]) -> Result<CommitRecord> {
        check_len(buf, 20)?;
        let txn = TxnId(buf.get_u64_le());
        let commit_ts = buf.get_u64_le();
        let n = buf.get_u32_le() as usize;
        let mut ops = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            ops.push(WalOp::decode(&mut buf)?);
        }
        if !buf.is_empty() {
            return Err(DbError::Corruption("trailing bytes in record".into()));
        }
        Ok(CommitRecord {
            txn,
            commit_ts,
            ops,
        })
    }
}

/// The write-ahead log. In-memory buffer with optional file backing.
///
/// Chaos testing: a [`FaultInjector`] wired in via [`Wal::with_faults`] /
/// [`Wal::open_with_faults`] can tear an append at an arbitrary byte
/// offset (`wal.torn_write` — the crash-mid-write artifact) or silently
/// flip a payload byte after its CRC was computed (`wal.crc_corrupt` —
/// media corruption). Probes happen under the append lock, so with the
/// same seed a commit sequence produces byte-identical log images.
#[derive(Debug)]
pub struct Wal {
    buf: Mutex<WalInner>,
    faults: Arc<FaultInjector>,
}

#[derive(Debug)]
struct WalInner {
    bytes: Vec<u8>,
    file: Option<File>,
    path: Option<PathBuf>,
    records: u64,
}

impl Default for Wal {
    fn default() -> Self {
        Self::new_in_memory()
    }
}

impl Wal {
    /// An in-memory log (tests, benchmarks, ephemeral databases).
    pub fn new_in_memory() -> Self {
        Self::with_faults(FaultInjector::disabled())
    }

    /// An in-memory log with a fault injector attached.
    pub fn with_faults(faults: Arc<FaultInjector>) -> Self {
        Wal {
            buf: Mutex::new(WalInner {
                bytes: Vec::new(),
                file: None,
                path: None,
                records: 0,
            }),
            faults,
        }
    }

    /// A file-backed log; appends are written through. Pre-existing file
    /// contents are loaded so replay sees the full history. A damaged tail
    /// (torn frame, CRC mismatch — the crash artifacts) is **truncated**,
    /// on disk and in memory: without this, records appended after the
    /// damage would sit behind an unreadable frame and silently vanish on
    /// the next replay.
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        Self::open_with_faults(path, FaultInjector::disabled())
    }

    /// A file-backed log with a fault injector attached. See [`Wal::open`]
    /// for the tail-truncation semantics.
    pub fn open_with_faults(path: impl AsRef<Path>, faults: Arc<FaultInjector>) -> Result<Self> {
        let path = path.as_ref().to_path_buf();
        let mut bytes = Vec::new();
        if path.exists() {
            File::open(&path)?.read_to_end(&mut bytes)?;
        }
        let (records, valid_len) = Self::scan_intact_prefix(&bytes);
        if valid_len < bytes.len() {
            bytes.truncate(valid_len);
            let f = OpenOptions::new().write(true).open(&path)?;
            f.set_len(valid_len as u64)?;
            f.sync_all()?;
        }
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        Ok(Wal {
            buf: Mutex::new(WalInner {
                bytes,
                file: Some(file),
                path: Some(path),
                records,
            }),
            faults,
        })
    }

    /// The attached fault injector (disabled unless wired via `with_faults`).
    pub fn faults(&self) -> &Arc<FaultInjector> {
        &self.faults
    }

    /// Walks the frames of a raw log image, validating each (length, CRC,
    /// decodability — the same checks [`replay`] applies). Returns the
    /// number of intact records and the byte length of the intact prefix.
    fn scan_intact_prefix(bytes: &[u8]) -> (u64, usize) {
        let mut n = 0;
        let mut off = 0;
        while bytes.len() - off >= 8 {
            let len = u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap()) as usize;
            if bytes.len() - off < 8 + len {
                break;
            }
            let crc = u32::from_le_bytes(bytes[off + 4..off + 8].try_into().unwrap());
            let payload = &bytes[off + 8..off + 8 + len];
            if crc32(payload) != crc || CommitRecord::decode(payload).is_err() {
                break;
            }
            off += 8 + len;
            n += 1;
        }
        (n, off)
    }

    /// Appends a commit record (framed + checksummed) and flushes it to the
    /// backing file if any. This is the durability point of a transaction.
    ///
    /// Fault points (probed under the append lock, so the schedule is a
    /// deterministic function of the commit sequence):
    ///
    /// * `wal.crc_corrupt` — flips one payload byte *after* the checksum was
    ///   computed, simulating silent media corruption. The append still
    ///   reports success; replay stops at the mismatching record.
    /// * `wal.torn_write` — persists only a prefix of the framed record (the
    ///   fire value picks the tear offset) and returns
    ///   [`DbError::FaultInjected`], simulating a crash mid-write.
    pub fn append(&self, record: &CommitRecord) -> Result<()> {
        let payload = record.encode();
        let mut framed = Vec::with_capacity(payload.len() + 8);
        framed.put_u32_le(payload.len() as u32);
        framed.put_u32_le(crc32(&payload));
        framed.extend_from_slice(&payload);

        let mut inner = self.buf.lock();
        if let Some(v) = self.faults.fire_value(points::WAL_CRC_CORRUPT) {
            // Corrupt one payload byte; the header (and its CRC) stand.
            let idx = 8 + (v as usize) % payload.len().max(1);
            if idx < framed.len() {
                framed[idx] ^= 0x40;
            }
        }
        if let Some(v) = self.faults.fire_value(points::WAL_TORN_WRITE) {
            // Crash mid-write: only a strict prefix reaches the log.
            let cut = (v as usize) % framed.len();
            let prefix = &framed[..cut];
            inner.bytes.extend_from_slice(prefix);
            if let Some(f) = inner.file.as_mut() {
                f.write_all(prefix)?;
                f.flush()?;
            }
            return Err(DbError::FaultInjected(format!(
                "wal.torn_write: {cut}/{} bytes persisted",
                framed.len()
            )));
        }
        inner.bytes.extend_from_slice(&framed);
        inner.records += 1;
        if let Some(f) = inner.file.as_mut() {
            f.write_all(&framed)?;
            f.flush()?;
        }
        Ok(())
    }

    /// Number of appended records.
    pub fn record_count(&self) -> u64 {
        self.buf.lock().records
    }

    /// Size of the log in bytes.
    pub fn size_bytes(&self) -> usize {
        self.buf.lock().bytes.len()
    }

    /// Snapshot of the raw log bytes (crash-simulation tests truncate this).
    pub fn to_bytes(&self) -> Vec<u8> {
        self.buf.lock().bytes.clone()
    }

    /// The backing file path, if file-backed.
    pub fn path(&self) -> Option<PathBuf> {
        self.buf.lock().path.clone()
    }

    /// Replays this log's records in order. See [`replay`].
    pub fn replay_records(&self) -> (Vec<CommitRecord>, Option<DbError>) {
        replay(&self.buf.lock().bytes)
    }
}

/// Scans a raw log image and returns every intact record, in order, plus
/// the error that terminated the scan (if the tail was torn). A clean
/// truncation mid-frame is the expected crash artifact and is reported but
/// does not invalidate the preceding records.
pub fn replay(mut bytes: &[u8]) -> (Vec<CommitRecord>, Option<DbError>) {
    let mut out = Vec::new();
    while !bytes.is_empty() {
        if bytes.len() < 8 {
            return (out, Some(DbError::Corruption("torn frame header".into())));
        }
        let len = u32::from_le_bytes(bytes[0..4].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
        if bytes.len() < 8 + len {
            return (out, Some(DbError::Corruption("torn frame payload".into())));
        }
        let payload = &bytes[8..8 + len];
        if crc32(payload) != crc {
            return (out, Some(DbError::Corruption("crc mismatch".into())));
        }
        match CommitRecord::decode(payload) {
            Ok(r) => out.push(r),
            Err(e) => return (out, Some(e)),
        }
        bytes = &bytes[8 + len..];
    }
    (out, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use oltap_common::fault::FaultPoint;
    use oltap_common::row;

    fn sample_record(txn: u64, ts: Ts) -> CommitRecord {
        CommitRecord {
            txn: TxnId(txn),
            commit_ts: ts,
            ops: vec![
                WalOp::Insert {
                    table: "orders".into(),
                    row: row![1i64, "widget", 9.99f64],
                },
                WalOp::Update {
                    table: "orders".into(),
                    key: row![1i64],
                    row: row![1i64, "widget", 12.50f64],
                },
                WalOp::Delete {
                    table: "stock".into(),
                    key: row![42i64],
                },
                WalOp::Ddl {
                    sql: "CREATE TABLE x (a INT)".into(),
                },
            ],
        }
    }

    #[test]
    fn record_roundtrip() {
        let r = sample_record(7, 100);
        let enc = r.encode();
        let dec = CommitRecord::decode(&enc).unwrap();
        assert_eq!(r, dec);
    }

    #[test]
    fn roundtrip_all_value_kinds() {
        let r = CommitRecord {
            txn: TxnId(1),
            commit_ts: 2,
            ops: vec![WalOp::Insert {
                table: "t".into(),
                row: Row::new(vec![
                    Value::Null,
                    Value::Bool(true),
                    Value::Int(-5),
                    Value::Timestamp(123456),
                    Value::Float(-0.25),
                    Value::Str("héllo".into()),
                ]),
            }],
        };
        assert_eq!(CommitRecord::decode(&r.encode()).unwrap(), r);
    }

    #[test]
    fn wal_append_and_replay() {
        let wal = Wal::new_in_memory();
        for i in 0..10 {
            wal.append(&sample_record(i, i * 2)).unwrap();
        }
        assert_eq!(wal.record_count(), 10);
        let (records, err) = wal.replay_records();
        assert!(err.is_none());
        assert_eq!(records.len(), 10);
        assert_eq!(records[3].commit_ts, 6);
    }

    #[test]
    fn truncated_tail_recovers_prefix() {
        let wal = Wal::new_in_memory();
        wal.append(&sample_record(1, 1)).unwrap();
        wal.append(&sample_record(2, 2)).unwrap();
        let mut bytes = wal.to_bytes();
        // Tear the last record mid-payload.
        bytes.truncate(bytes.len() - 5);
        let (records, err) = replay(&bytes);
        assert_eq!(records.len(), 1);
        assert!(matches!(err, Some(DbError::Corruption(_))));
    }

    #[test]
    fn bitflip_detected_by_crc() {
        let wal = Wal::new_in_memory();
        wal.append(&sample_record(1, 1)).unwrap();
        let mut bytes = wal.to_bytes();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        let (records, err) = replay(&bytes);
        assert!(records.is_empty());
        assert!(err.is_some());
    }

    #[test]
    fn file_backed_roundtrip() {
        let dir = std::env::temp_dir().join(format!("oltap_wal_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("test.wal");
        let _ = std::fs::remove_file(&path);
        {
            let wal = Wal::open(&path).unwrap();
            wal.append(&sample_record(1, 5)).unwrap();
            wal.append(&sample_record(2, 6)).unwrap();
        }
        // Re-open: history is preserved, new appends extend it.
        let wal = Wal::open(&path).unwrap();
        assert_eq!(wal.record_count(), 2);
        wal.append(&sample_record(3, 7)).unwrap();
        let (records, err) = wal.replay_records();
        assert!(err.is_none());
        assert_eq!(records.len(), 3);
        assert_eq!(records[2].commit_ts, 7);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn empty_ops_record() {
        let r = CommitRecord {
            txn: TxnId(9),
            commit_ts: 3,
            ops: vec![],
        };
        assert_eq!(CommitRecord::decode(&r.encode()).unwrap(), r);
    }

    #[test]
    fn torn_write_fault_leaves_exact_prefix() {
        let faults = FaultInjector::new(0xC4A5);
        faults.arm(points::WAL_TORN_WRITE, FaultPoint::times(1).after(2));
        let wal = Wal::with_faults(Arc::clone(&faults));
        wal.append(&sample_record(1, 1)).unwrap();
        wal.append(&sample_record(2, 2)).unwrap();
        let intact = wal.size_bytes();
        // Third append is torn mid-write.
        let err = wal.append(&sample_record(3, 3)).unwrap_err();
        assert!(matches!(err, DbError::FaultInjected(_)), "{err}");
        assert_eq!(wal.record_count(), 2, "torn record must not be counted");
        assert!(wal.size_bytes() >= intact, "prefix shrank");

        // Recovery: the two committed records survive; the torn tail is
        // reported but never resurrected as a record.
        let (records, tail) = wal.replay_records();
        assert_eq!(records.len(), 2);
        assert_eq!(records[1].commit_ts, 2);
        if wal.size_bytes() > intact {
            assert!(matches!(tail, Some(DbError::Corruption(_))));
        }
    }

    #[test]
    fn torn_write_schedule_is_seed_reproducible() {
        let run = |seed: u64| {
            let faults = FaultInjector::new(seed);
            faults.arm(
                points::WAL_TORN_WRITE,
                FaultPoint::with_probability(0.4),
            );
            let wal = Wal::with_faults(faults);
            let mut outcomes = Vec::new();
            for i in 0..32u64 {
                outcomes.push(wal.append(&sample_record(i, i)).is_ok());
            }
            (outcomes, wal.to_bytes())
        };
        let (o1, b1) = run(77);
        let (o2, b2) = run(77);
        assert_eq!(o1, o2, "same seed must tear the same appends");
        assert_eq!(b1, b2, "same seed must produce byte-identical logs");
        let (o3, _) = run(78);
        assert_ne!(o1, o3, "different seed should differ (probabilistic)");
    }

    #[test]
    fn crc_corrupt_fault_detected_on_replay() {
        let faults = FaultInjector::new(1);
        faults.arm(points::WAL_CRC_CORRUPT, FaultPoint::times(1).after(1));
        let wal = Wal::with_faults(faults);
        wal.append(&sample_record(1, 1)).unwrap();
        wal.append(&sample_record(2, 2)).unwrap(); // silently corrupted
        wal.append(&sample_record(3, 3)).unwrap();
        // Replay stops at the corrupt record: later records are unreachable
        // (by design — a CRC mismatch means the log tail is untrustworthy).
        let (records, tail) = wal.replay_records();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].commit_ts, 1);
        assert!(matches!(tail, Some(DbError::Corruption(_))), "{tail:?}");
    }

    #[test]
    fn torn_write_on_file_backed_wal_recovers_on_reopen() {
        let dir = std::env::temp_dir().join(format!("oltap_walf_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("torn_fault.wal");
        let _ = std::fs::remove_file(&path);
        {
            let faults = FaultInjector::new(9);
            faults.arm(points::WAL_TORN_WRITE, FaultPoint::times(1).after(3));
            let wal = Wal::open_with_faults(&path, faults).unwrap();
            for i in 0..3 {
                wal.append(&sample_record(i, i + 10)).unwrap();
            }
            wal.append(&sample_record(3, 13)).unwrap_err(); // torn on disk
        }
        // "Restart": reopen without faults; intact prefix is fully readable.
        let wal = Wal::open(&path).unwrap();
        assert_eq!(wal.record_count(), 3);
        let (records, _tail) = wal.replay_records();
        assert_eq!(records.len(), 3);
        assert_eq!(records[2].commit_ts, 12);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn reopen_truncates_torn_tail_so_later_appends_survive() {
        let dir = std::env::temp_dir().join(format!("oltap_walt_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("truncate_tail.wal");
        let _ = std::fs::remove_file(&path);
        {
            let faults = FaultInjector::new(9);
            faults.arm(points::WAL_TORN_WRITE, FaultPoint::times(1).after(1));
            let wal = Wal::open_with_faults(&path, faults).unwrap();
            wal.append(&sample_record(0, 10)).unwrap();
            wal.append(&sample_record(1, 11)).unwrap_err(); // torn on disk
        }
        // Recovery must cut the torn tail; otherwise the records appended
        // below would sit behind an unreadable frame and be lost on the
        // next replay.
        {
            let wal = Wal::open(&path).unwrap();
            assert_eq!(wal.record_count(), 1);
            let (_, tail_err) = wal.replay_records();
            assert!(tail_err.is_none(), "tail damage must be gone after open");
            wal.append(&sample_record(2, 12)).unwrap();
            wal.append(&sample_record(3, 13)).unwrap();
        }
        let wal = Wal::open(&path).unwrap();
        let (records, tail_err) = wal.replay_records();
        assert!(tail_err.is_none());
        assert_eq!(
            records.iter().map(|r| r.commit_ts).collect::<Vec<_>>(),
            vec![10, 12, 13],
            "post-recovery commits lost behind the torn tail"
        );
        std::fs::remove_file(&path).unwrap();
    }
}
