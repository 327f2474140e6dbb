//! On-disk column-page files: the persistent half of the paged segment
//! store.
//!
//! A *page* is one encoded column chunk of one row group — the same
//! [`EncodedColumn`] the in-memory path scans, serialized with a small
//! self-describing codec. A segment's pages live in a single page file:
//!
//! ```text
//!   seg-<pid>-<n>.pages:  [len u32 LE][crc32 u32 LE][payload] ...
//! ```
//!
//! The framing is the WAL's (`oltap_txn::wal`) and the crash-hygiene
//! contract is the spill module's: pages are written to a `.tmp` file and
//! renamed into place on [`PageFileWriter::finish`], so a crash mid-build
//! leaves either a `.tmp` or nothing; [`purge_page_root`] removes both
//! kinds at database open (segments are rebuilt from the WAL on recovery,
//! so *every* page file found at open is garbage).
//!
//! Reads re-verify the CRC of every page faulted from disk. The
//! [`points::STORAGE_PAGE_READ_FAIL`] fault flips one payload byte after
//! the read so chaos tests can prove that a torn or bit-rotten page
//! surfaces as a typed [`DbError::Corruption`], never a panic and never
//! silently wrong rows.

use crate::encoding::{BitPacked, DeltaEnc, Dictionary, ForPacked, IntEncoding, Rle, StrEncoding};
use crate::segment::EncodedColumn;
use oltap_common::fault::{points, FaultInjector};
use oltap_common::{crc32, BitSet, DbError, Result};
use std::fs::{self, File};
use std::io::{BufWriter, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Distinguishes page files of concurrent processes within one root.
static PAGE_SEQ: AtomicU64 = AtomicU64::new(0);

/// Location and checksum of one page inside a page file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageMeta {
    /// Byte offset of the payload (past the 8-byte frame header).
    pub offset: u64,
    /// Payload length in bytes.
    pub len: u32,
    /// CRC-32 of the payload.
    pub crc: u32,
}

/// Removes every page file (sealed or `.tmp`) under a database's page
/// root. Called at database open: segments never survive a restart (WAL
/// replay rebuilds them), so anything found here is leakage from a crash.
///
/// Returns the number of entries removed. A missing root is not an error.
pub fn purge_page_root(root: &Path) -> Result<u64> {
    let mut removed = 0;
    let entries = match fs::read_dir(root) {
        Ok(e) => e,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(0),
        Err(e) => return Err(e.into()),
    };
    for entry in entries {
        let entry = entry?;
        let p = entry.path();
        if p.is_dir() {
            fs::remove_dir_all(&p)?;
        } else {
            fs::remove_file(&p)?;
        }
        removed += 1;
    }
    Ok(removed)
}

/// Writes a page file under a root directory, one framed page at a time.
///
/// All writes go to `<name>.tmp`; [`PageFileWriter::finish`] flushes and
/// renames to the final name, making segment publication atomic at the
/// file level.
#[derive(Debug)]
pub struct PageFileWriter {
    out: BufWriter<File>,
    tmp_path: PathBuf,
    final_path: PathBuf,
    file_id: u64,
    directory: Vec<PageMeta>,
    offset: u64,
    faults: Arc<FaultInjector>,
}

impl PageFileWriter {
    /// Opens a fresh uniquely-named page file under `root` (creating
    /// `root` itself if needed).
    pub fn create_under(root: &Path, faults: Arc<FaultInjector>) -> Result<PageFileWriter> {
        fs::create_dir_all(root)?;
        let file_id = PAGE_SEQ.fetch_add(1, Ordering::Relaxed);
        let final_path = root.join(format!("seg-{}-{}.pages", std::process::id(), file_id));
        let tmp_path = final_path.with_extension("pages.tmp");
        let file = File::create(&tmp_path)?;
        Ok(PageFileWriter {
            out: BufWriter::new(file),
            tmp_path,
            final_path,
            file_id,
            directory: Vec::new(),
            offset: 0,
            faults,
        })
    }

    /// Process-unique id of the file being written (buffer-pool page keys
    /// are `(file_id, page_index)`).
    pub fn file_id(&self) -> u64 {
        self.file_id
    }

    /// Encodes and appends one column page; returns its page index.
    pub fn append_column(&mut self, col: &EncodedColumn) -> Result<u32> {
        self.append_page(&encode_page(col))
    }

    /// Appends one raw framed page; returns its page index.
    pub fn append_page(&mut self, payload: &[u8]) -> Result<u32> {
        let len = u32::try_from(payload.len()).map_err(|_| {
            DbError::InvalidArgument(format!("column page too large: {} B", payload.len()))
        })?;
        let crc = crc32(payload);
        self.out.write_all(&len.to_le_bytes())?;
        self.out.write_all(&crc.to_le_bytes())?;
        self.out.write_all(payload)?;
        let idx = self.directory.len() as u32;
        self.directory.push(PageMeta {
            offset: self.offset + 8,
            len,
            crc,
        });
        self.offset += 8 + payload.len() as u64;
        Ok(idx)
    }

    /// Flushes, seals, and publishes the file (tmp → final rename),
    /// returning the readable handle with its in-memory page directory.
    pub fn finish(mut self) -> Result<PageFile> {
        self.out.flush()?;
        fs::rename(&self.tmp_path, &self.final_path)?;
        let file = File::open(&self.final_path)?;
        Ok(PageFile {
            path: std::mem::take(&mut self.final_path),
            file,
            file_id: self.file_id,
            directory: std::mem::take(&mut self.directory),
            faults: Arc::clone(&self.faults),
        })
    }
}

impl Drop for PageFileWriter {
    fn drop(&mut self) {
        // An abandoned build (error mid-write) removes its tmp file; after
        // a successful `finish` the tmp no longer exists and this is a
        // no-op. A hard crash skips Drop entirely — that is what
        // `purge_page_root` at database open is for.
        let _ = fs::remove_file(&self.tmp_path);
    }
}

/// A sealed, readable page file plus its resident page directory.
///
/// The directory (offset/len/crc per page) is the only per-page state a
/// paged segment keeps in memory; payloads are faulted in on demand
/// through the buffer manager, each with one positional read that shares
/// no file cursor — faults of distinct pages of one file run concurrently.
/// Dropping the handle removes the file: page files never outlive their
/// segment, and never survive a restart.
#[derive(Debug)]
pub struct PageFile {
    path: PathBuf,
    file: File,
    file_id: u64,
    directory: Vec<PageMeta>,
    faults: Arc<FaultInjector>,
}

impl PageFile {
    /// Process-unique id (buffer-pool key component).
    pub fn file_id(&self) -> u64 {
        self.file_id
    }

    /// Number of pages.
    pub fn page_count(&self) -> usize {
        self.directory.len()
    }

    /// The page directory.
    pub fn directory(&self) -> &[PageMeta] {
        &self.directory
    }

    /// On-disk payload bytes across all pages (framing excluded).
    pub fn payload_bytes(&self) -> u64 {
        self.directory.iter().map(|m| m.len as u64).sum()
    }

    /// The file path (diagnostics / leak assertions in tests).
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Reads page `idx` from disk and verifies its checksum.
    ///
    /// The [`points::STORAGE_PAGE_READ_FAIL`] fault corrupts one payload
    /// byte after the read, so the *real* CRC verification path is what
    /// turns the injected torn read into [`DbError::Corruption`].
    pub fn read_page(&self, idx: usize) -> Result<Vec<u8>> {
        let meta = *self.directory.get(idx).ok_or_else(|| {
            DbError::InvalidArgument(format!(
                "page {idx} out of range ({} pages)",
                self.directory.len()
            ))
        })?;
        let mut buf = vec![0u8; meta.len as usize];
        self.file.read_exact_at(&mut buf, meta.offset).map_err(|e| {
            if e.kind() == std::io::ErrorKind::UnexpectedEof {
                DbError::Corruption(format!("truncated column page {idx}"))
            } else {
                DbError::from(e)
            }
        })?;
        if self.faults.should_fire(points::STORAGE_PAGE_READ_FAIL) && !buf.is_empty() {
            let flip = idx % buf.len();
            buf[flip] ^= 0x40;
        }
        if crc32(&buf) != meta.crc {
            return Err(DbError::Corruption(format!(
                "column page {idx} failed checksum verification"
            )));
        }
        Ok(buf)
    }

    /// Reads and decodes page `idx` into an [`EncodedColumn`].
    pub fn read_column(&self, idx: usize) -> Result<EncodedColumn> {
        decode_page(&self.read_page(idx)?)
    }
}

impl Drop for PageFile {
    fn drop(&mut self) {
        // Best-effort: a failed removal leaves an orphan for
        // `purge_page_root` at next startup.
        let _ = fs::remove_file(&self.path);
    }
}

// ---------------------------------------------------------------------------
// Column page codec
// ---------------------------------------------------------------------------

const TAG_INT: u8 = 0;
const TAG_FLOAT: u8 = 1;
const TAG_STR: u8 = 2;
const TAG_BOOL: u8 = 3;

const INT_RAW: u8 = 0;
const INT_FOR: u8 = 1;
const INT_RLE: u8 = 2;
const INT_DICT: u8 = 3;
const INT_DELTA: u8 = 4;

const STR_RAW: u8 = 0;
const STR_DICT: u8 = 1;

/// Serializes one encoded column into a page payload. The encoding chosen
/// at build time is preserved exactly, so a faulted-in page evaluates
/// predicates on the same compressed representation as a resident column.
pub fn encode_page(col: &EncodedColumn) -> Vec<u8> {
    let mut out = Vec::new();
    match col {
        EncodedColumn::Int { enc, validity } => {
            out.push(TAG_INT);
            match enc {
                IntEncoding::Raw(values) => {
                    out.push(INT_RAW);
                    put_u64(&mut out, values.len() as u64);
                    for &v in values {
                        out.extend_from_slice(&v.to_le_bytes());
                    }
                }
                IntEncoding::For(f) => {
                    out.push(INT_FOR);
                    out.extend_from_slice(&f.base().to_le_bytes());
                    put_bitpacked(&mut out, f.packed());
                }
                IntEncoding::Rle(r) => {
                    out.push(INT_RLE);
                    put_u64(&mut out, r.len() as u64);
                    put_u64(&mut out, r.runs().len() as u64);
                    for &(v, n) in r.runs() {
                        out.extend_from_slice(&v.to_le_bytes());
                        out.extend_from_slice(&n.to_le_bytes());
                    }
                }
                IntEncoding::Dict(d) => {
                    out.push(INT_DICT);
                    put_u64(&mut out, d.dict().len() as u64);
                    for &v in d.dict() {
                        out.extend_from_slice(&v.to_le_bytes());
                    }
                    put_bitpacked(&mut out, d.codes());
                }
                IntEncoding::Delta(d) => {
                    out.push(INT_DELTA);
                    put_u64(&mut out, d.len() as u64);
                    put_u64(&mut out, d.anchors().len() as u64);
                    for &v in d.anchors() {
                        out.extend_from_slice(&v.to_le_bytes());
                    }
                    put_bitpacked(&mut out, d.deltas());
                }
            }
            put_validity(&mut out, validity);
        }
        EncodedColumn::Float { values, validity } => {
            out.push(TAG_FLOAT);
            put_u64(&mut out, values.len() as u64);
            for &v in values {
                out.extend_from_slice(&v.to_le_bytes());
            }
            put_validity(&mut out, validity);
        }
        EncodedColumn::Str { enc, validity } => {
            out.push(TAG_STR);
            match enc {
                StrEncoding::Raw(values) => {
                    out.push(STR_RAW);
                    put_u64(&mut out, values.len() as u64);
                    for v in values {
                        put_str(&mut out, v);
                    }
                }
                StrEncoding::Dict(d) => {
                    out.push(STR_DICT);
                    put_u64(&mut out, d.dict().len() as u64);
                    for v in d.dict() {
                        put_str(&mut out, v);
                    }
                    put_bitpacked(&mut out, d.codes());
                }
            }
            put_validity(&mut out, validity);
        }
        EncodedColumn::Bool { values, validity } => {
            out.push(TAG_BOOL);
            put_bitset(&mut out, values);
            put_validity(&mut out, validity);
        }
    }
    out
}

/// Deserializes a page payload back into an [`EncodedColumn`]. Every
/// length and tag is bounds-checked: a corrupt payload that slipped past
/// the CRC (or a logic bug) yields [`DbError::Corruption`], not a panic.
pub fn decode_page(buf: &[u8]) -> Result<EncodedColumn> {
    let mut cur = Cursor { buf, pos: 0 };
    let col = match cur.u8()? {
        TAG_INT => {
            let enc = match cur.u8()? {
                INT_RAW => {
                    let n = cur.len()?;
                    IntEncoding::Raw(cur.words(n, i64::from_le_bytes)?)
                }
                INT_FOR => {
                    let base = cur.i64()?;
                    IntEncoding::For(ForPacked::from_parts(base, cur.bitpacked()?))
                }
                INT_RLE => {
                    let len = cur.logical_len()?;
                    let nruns = cur.len()?;
                    let mut runs = Vec::with_capacity(nruns);
                    for _ in 0..nruns {
                        let v = cur.i64()?;
                        let n = cur.u32()?;
                        runs.push((v, n));
                    }
                    IntEncoding::Rle(Rle::from_parts(runs, len)?)
                }
                INT_DICT => {
                    let card = cur.len()?;
                    let dict = cur.words(card, i64::from_le_bytes)?;
                    IntEncoding::Dict(Box::new(Dictionary::from_parts(dict, cur.bitpacked()?)?))
                }
                INT_DELTA => {
                    let len = cur.logical_len()?;
                    let nanchors = cur.len()?;
                    let anchors = cur.words(nanchors, i64::from_le_bytes)?;
                    IntEncoding::Delta(DeltaEnc::from_parts(anchors, cur.bitpacked()?, len)?)
                }
                t => return Err(corrupt(format!("unknown int encoding tag {t}"))),
            };
            let validity = cur.validity()?;
            EncodedColumn::Int { enc, validity }
        }
        TAG_FLOAT => {
            let n = cur.len()?;
            let values = cur.words(n, f64::from_le_bytes)?;
            let validity = cur.validity()?;
            EncodedColumn::Float { values, validity }
        }
        TAG_STR => {
            let enc = match cur.u8()? {
                STR_RAW => {
                    let n = cur.len()?;
                    let mut values = Vec::with_capacity(n);
                    for _ in 0..n {
                        values.push(cur.string()?);
                    }
                    StrEncoding::Raw(values)
                }
                STR_DICT => {
                    let card = cur.len()?;
                    let mut dict = Vec::with_capacity(card);
                    for _ in 0..card {
                        dict.push(cur.string()?);
                    }
                    StrEncoding::Dict(Box::new(Dictionary::from_parts(dict, cur.bitpacked()?)?))
                }
                t => return Err(corrupt(format!("unknown string encoding tag {t}"))),
            };
            let validity = cur.validity()?;
            EncodedColumn::Str { enc, validity }
        }
        TAG_BOOL => {
            let values = cur.bitset()?;
            let validity = cur.validity()?;
            EncodedColumn::Bool { values, validity }
        }
        t => return Err(corrupt(format!("unknown column tag {t}"))),
    };
    if cur.pos != buf.len() {
        return Err(corrupt(format!(
            "column page has {} trailing bytes",
            buf.len() - cur.pos
        )));
    }
    Ok(col)
}

fn corrupt(msg: String) -> DbError {
    DbError::Corruption(msg)
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn put_bitpacked(out: &mut Vec<u8>, bp: &BitPacked) {
    out.push(bp.width());
    put_u64(out, bp.len() as u64);
    put_u64(out, bp.words().len() as u64);
    for &w in bp.words() {
        out.extend_from_slice(&w.to_le_bytes());
    }
}

fn put_bitset(out: &mut Vec<u8>, bs: &BitSet) {
    put_u64(out, bs.len() as u64);
    for &w in bs.words() {
        out.extend_from_slice(&w.to_le_bytes());
    }
}

fn put_validity(out: &mut Vec<u8>, validity: &Option<BitSet>) {
    match validity {
        Some(v) => {
            out.push(1);
            put_bitset(out, v);
        }
        None => out.push(0),
    }
}

/// Bounds-checked sequential reader over a page payload.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl Cursor<'_> {
    fn array<const N: usize>(&mut self) -> Result<[u8; N]> {
        let end = self.pos.checked_add(N).filter(|&e| e <= self.buf.len());
        let end = end.ok_or_else(|| corrupt("column page truncated".into()))?;
        let mut a = [0u8; N];
        a.copy_from_slice(&self.buf[self.pos..end]);
        self.pos = end;
        Ok(a)
    }

    /// `n` little-endian 8-byte values: one bounds check for the run, then
    /// a conversion loop over exact chunks (a raw 1 024-row column is a
    /// thousand of these on every fault).
    fn words<T>(&mut self, n: usize, from_le: impl Fn([u8; 8]) -> T) -> Result<Vec<T>> {
        let end = n.checked_mul(8).and_then(|bytes| self.pos.checked_add(bytes));
        let end = end
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| corrupt("column page truncated".into()))?;
        let run = self.buf[self.pos..end].chunks_exact(8);
        self.pos = end;
        Ok(run
            .map(|w| from_le(w.try_into().expect("chunks_exact(8) yields 8 bytes")))
            .collect())
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.array::<1>()?[0])
    }

    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    fn i64(&mut self) -> Result<i64> {
        Ok(i64::from_le_bytes(self.array()?))
    }

    /// A u64 count that sizes an allocation, validated against the bytes
    /// actually present so a corrupt length cannot trigger a giant one.
    fn len(&mut self) -> Result<usize> {
        let v = self.u64()?;
        if v > self.buf.len() as u64 * 64 {
            return Err(corrupt(format!("implausible element count {v}")));
        }
        Ok(v as usize)
    }

    /// A u64 *row* count that sizes no allocation here: run-length, delta
    /// and zero-width bit-packed columns legitimately hold far more rows
    /// than bytes (a constant 4 096-row column is a few dozen bytes), so it
    /// is bounded only by `usize`; the encoding's `from_parts` checks it
    /// against the parts that were read.
    fn logical_len(&mut self) -> Result<usize> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| corrupt(format!("row count {v} exceeds usize")))
    }

    fn string(&mut self) -> Result<String> {
        let n = self.u32()? as usize;
        let end = self.pos.checked_add(n).filter(|&e| e <= self.buf.len());
        let end = end.ok_or_else(|| corrupt("column page truncated".into()))?;
        let s = std::str::from_utf8(&self.buf[self.pos..end])
            .map_err(|_| corrupt("invalid UTF-8 in column page".into()))?
            .to_string();
        self.pos = end;
        Ok(s)
    }

    fn bitpacked(&mut self) -> Result<BitPacked> {
        let width = self.u8()?;
        let len = self.logical_len()?;
        let nwords = self.len()?;
        BitPacked::from_parts(width, len, self.words(nwords, u64::from_le_bytes)?)
    }

    fn bitset(&mut self) -> Result<BitSet> {
        let len = self.len()?;
        let words = self.words(len.div_ceil(64), u64::from_le_bytes)?;
        Ok(BitSet::from_words(words, len))
    }

    fn validity(&mut self) -> Result<Option<BitSet>> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.bitset()?)),
            t => Err(corrupt(format!("unknown validity tag {t}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oltap_common::fault::FaultPoint;
    use oltap_common::Value;

    fn temp_root(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "oltap-pages-{tag}-{}-{}",
            std::process::id(),
            PAGE_SEQ.fetch_add(1, Ordering::Relaxed)
        ))
    }

    fn sample_columns() -> Vec<EncodedColumn> {
        let ints: Vec<i64> = (0..500).map(|i| 1000 + (i % 37)).collect();
        let runs: Vec<i64> = (0..500).map(|i| i / 100).collect();
        let low_card: Vec<i64> = (0..500).map(|i| (i % 4) * 1_000_000).collect();
        let strs: Vec<String> = (0..500).map(|i| format!("city_{}", i % 5)).collect();
        let uniq: Vec<String> = (0..50).map(|i| format!("unique-{i:05}")).collect();
        let mut validity = BitSet::all_set(500);
        validity.clear(3);
        validity.clear(499);
        let mut bools = BitSet::with_len(500);
        for i in (0..500).step_by(3) {
            bools.set(i);
        }
        vec![
            EncodedColumn::Int {
                enc: IntEncoding::Raw((0..500).map(|i| i * 0x9E3779B9i64).collect()),
                validity: None,
            },
            EncodedColumn::Int {
                enc: IntEncoding::For(ForPacked::encode(&ints)),
                validity: Some(validity.clone()),
            },
            EncodedColumn::Int {
                enc: IntEncoding::Rle(Rle::encode(&runs)),
                validity: None,
            },
            EncodedColumn::Int {
                enc: IntEncoding::Dict(Box::new(Dictionary::encode(&low_card))),
                validity: None,
            },
            EncodedColumn::Float {
                values: (0..500).map(|i| i as f64 / 7.0).collect(),
                validity: Some(validity.clone()),
            },
            EncodedColumn::Str {
                enc: StrEncoding::choose(strs.clone()),
                validity: None,
            },
            EncodedColumn::Str {
                enc: StrEncoding::Raw(uniq),
                validity: None,
            },
            EncodedColumn::Bool {
                values: bools,
                validity: Some(validity),
            },
        ]
    }

    fn values_of(col: &EncodedColumn) -> Vec<Value> {
        (0..col.len()).map(|i| col.value_at(i)).collect()
    }

    #[test]
    fn codec_roundtrips_every_encoding() {
        for col in sample_columns() {
            let payload = encode_page(&col);
            let back = decode_page(&payload).unwrap();
            assert_eq!(back.encoding_name(), col.encoding_name());
            assert_eq!(values_of(&back), values_of(&col));
        }
    }

    /// Benchmark defect 2: columns whose row count dwarfs their byte size —
    /// constant (zero-width FOR / one-entry dictionary) and run-length
    /// pages of 4 096 rows — are legal and must decode.
    #[test]
    fn codec_roundtrips_pages_with_more_rows_than_bytes() {
        let n = 4096usize;
        let constant = vec![7i64; n];
        let cols = [
            EncodedColumn::Int {
                enc: IntEncoding::For(ForPacked::encode(&constant)),
                validity: None,
            },
            EncodedColumn::Int {
                enc: IntEncoding::Rle(Rle::encode(&constant)),
                validity: None,
            },
            EncodedColumn::Int {
                enc: IntEncoding::Dict(Box::new(Dictionary::encode(&constant))),
                validity: None,
            },
            EncodedColumn::Str {
                enc: StrEncoding::Dict(Box::new(Dictionary::encode(&vec!["x".to_string(); n]))),
                validity: None,
            },
        ];
        for col in &cols {
            let payload = encode_page(col);
            // More rows than the allocation bound would let a count claim.
            assert!(payload.len() * 64 < n, "{}", col.encoding_name());
            let back = decode_page(&payload).unwrap();
            assert_eq!(back.len(), n, "{}", col.encoding_name());
            assert_eq!(values_of(&back), values_of(col), "{}", col.encoding_name());
        }
    }

    #[test]
    fn file_roundtrip_and_directory() {
        let root = temp_root("rt");
        let mut w = PageFileWriter::create_under(&root, FaultInjector::disabled()).unwrap();
        let cols = sample_columns();
        for col in &cols {
            w.append_column(col).unwrap();
        }
        let f = w.finish().unwrap();
        assert_eq!(f.page_count(), cols.len());
        assert!(f.payload_bytes() > 0);
        for (i, col) in cols.iter().enumerate() {
            let back = f.read_column(i).unwrap();
            assert_eq!(values_of(&back), values_of(col));
        }
        assert!(matches!(
            f.read_page(cols.len()),
            Err(DbError::InvalidArgument(_))
        ));
        let path = f.path().to_path_buf();
        drop(f);
        assert!(!path.exists(), "page file removed on drop");
        let _ = fs::remove_dir_all(&root);
    }

    /// One flipped bit on disk — in the first byte, either side of the
    /// checksum kernel's first 64-byte step, the last byte — of an
    /// 8 202-byte page (1 024 raw `f64`s, `ol_amount`'s shape) is a typed
    /// error; the page reads back once the bit is restored.
    #[test]
    fn on_disk_corruption_is_typed() {
        let root = temp_root("corrupt");
        let mut w = PageFileWriter::create_under(&root, FaultInjector::disabled()).unwrap();
        let idx = w
            .append_column(&EncodedColumn::Float {
                values: (0..1024).map(|i| i as f64 / 7.0).collect(),
                validity: None,
            })
            .unwrap() as usize;
        let f = w.finish().unwrap();
        let meta = f.directory()[idx];
        assert_eq!(meta.len, 8202);
        let clean = fs::read(f.path()).unwrap();
        for at in [0, 63, 64, 8201] {
            // Behind the handle's back.
            let mut bytes = clean.clone();
            bytes[meta.offset as usize + at] ^= 0x08;
            fs::write(f.path(), &bytes).unwrap();
            assert!(
                matches!(f.read_page(idx), Err(DbError::Corruption(_))),
                "flipped bit in byte {at} went unnoticed"
            );
        }
        fs::write(f.path(), &clean).unwrap();
        assert!(f.read_column(idx).is_ok());
        drop(f);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn page_read_fault_fires_real_crc_path() {
        let faults = FaultInjector::new(0x9A6E);
        faults.arm(points::STORAGE_PAGE_READ_FAIL, FaultPoint::times(1));
        let root = temp_root("fault");
        let mut w = PageFileWriter::create_under(&root, faults.clone()).unwrap();
        w.append_column(&sample_columns()[0]).unwrap();
        let f = w.finish().unwrap();
        assert!(matches!(f.read_page(0), Err(DbError::Corruption(_))));
        assert_eq!(faults.fired_count(), 1);
        // Fault exhausted: the same page reads back clean.
        assert!(f.read_page(0).is_ok());
        drop(f);
        let _ = fs::remove_dir_all(&root);
    }

    /// Positional reads share no cursor: readers of one file on several
    /// threads each get the page they asked for. (With a shared cursor and
    /// no lock, a `seek` from one thread would land between another's
    /// `seek` and `read`.)
    #[test]
    fn concurrent_reads_of_one_page_file_return_their_own_pages() {
        let root = temp_root("concurrent");
        let mut w = PageFileWriter::create_under(&root, FaultInjector::disabled()).unwrap();
        // Pages of distinct content and length, several of each encoding.
        let cols: Vec<EncodedColumn> = (0..6)
            .flat_map(|round| {
                sample_columns().into_iter().chain([EncodedColumn::Int {
                    enc: IntEncoding::Raw((0..300 + round).map(|i| i * (round + 1)).collect()),
                    validity: None,
                }])
            })
            .collect();
        for col in &cols {
            w.append_column(col).unwrap();
        }
        let f = w.finish().unwrap();
        let want: Vec<Vec<Value>> = cols.iter().map(values_of).collect();
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let (f, want, start) = (&f, &want, &start);
                s.spawn(move || {
                    let mut state = 0x9E37_79B9_7F4A_7C15u64 ^ (t + 1);
                    start.wait();
                    for _ in 0..2000 {
                        state ^= state << 13;
                        state ^= state >> 7;
                        state ^= state << 17;
                        let idx = (state % want.len() as u64) as usize;
                        let got = f.read_column(idx).unwrap();
                        assert_eq!(values_of(&got), want[idx], "thread {t} page {idx}");
                    }
                });
            }
        });
        drop(f);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn decoder_rejects_garbage_without_panicking() {
        assert!(decode_page(&[]).is_err());
        assert!(decode_page(&[99]).is_err());
        assert!(decode_page(&[TAG_INT, 99]).is_err());
        // Truncated length prefix.
        assert!(decode_page(&[TAG_FLOAT, 1, 2, 3]).is_err());
        // Implausible count must not allocate.
        let mut huge = vec![TAG_FLOAT];
        huge.extend_from_slice(&u64::MAX.to_le_bytes());
        assert!(decode_page(&huge).is_err());
        // A row count the words read cannot hold is rejected by the
        // encoding, overflow included.
        let mut short = vec![TAG_INT, INT_FOR];
        short.extend_from_slice(&0i64.to_le_bytes());
        short.push(64); // width
        short.extend_from_slice(&(u64::MAX / 2).to_le_bytes()); // len
        short.extend_from_slice(&1u64.to_le_bytes()); // nwords
        short.extend_from_slice(&7u64.to_le_bytes());
        short.push(0); // no validity
        assert!(matches!(decode_page(&short), Err(DbError::Corruption(_))));
        // Trailing garbage after a valid column.
        let mut payload = encode_page(&sample_columns()[0]);
        payload.push(0);
        assert!(decode_page(&payload).is_err());
    }

    #[test]
    fn crash_mid_build_leaves_only_purgeable_tmp() {
        let root = temp_root("crash");
        let mut w = PageFileWriter::create_under(&root, FaultInjector::disabled()).unwrap();
        w.append_column(&sample_columns()[0]).unwrap();
        w.out.flush().unwrap();
        // Simulate a crash: the writer vanishes without finish() or Drop.
        std::mem::forget(w);
        let names: Vec<String> = fs::read_dir(&root)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert!(
            names.iter().all(|n| n.ends_with(".tmp")),
            "unfinished build left sealed files: {names:?}"
        );
        assert_eq!(purge_page_root(&root).unwrap(), names.len() as u64);
        assert_eq!(fs::read_dir(&root).unwrap().count(), 0);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn purge_of_missing_root_is_ok() {
        let ghost = std::env::temp_dir().join("oltap-pages-does-not-exist-xyz");
        assert_eq!(purge_page_root(&ghost).unwrap(), 0);
    }
}
