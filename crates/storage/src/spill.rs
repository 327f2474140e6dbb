//! Spill-to-disk file management for memory-bounded operators.
//!
//! When a pipeline breaker's [`oltap_common::mem::MemoryBudget`]
//! reservation fails, the operator writes part of its state to a spill
//! file and releases the memory. This module owns the file-level
//! mechanics so the executor only thinks in records:
//!
//! * [`SpillDir`] — a per-query scratch directory under the database's
//!   spill root, named and made on disk by the first [`SpillDir::writer`]
//!   call: a query that never spills never formats a path or touches the
//!   file system. Dropping it
//!   (query completion, success *or* error) removes every file it handed
//!   out; [`purge_spill_root`] removes orphans left by a crash, and is
//!   called on recovery startup.
//! * [`SpillWriter`] / [`SpillReader`] — length-framed record streams
//!   (`u32` little-endian length + payload) over buffered files. The
//!   payload codec belongs to the caller: the join build, the hash
//!   aggregator, and the external sort each frame their own entries
//!   (see `oltap-exec`), typically reusing the WAL's row codec.
//!
//! Records are read back in exactly the order they were written, which
//! is what lets the spilling operators preserve the engine's
//! serial-identical determinism contract: spilled state re-enters the
//! operator in a deterministic order (or carries explicit sequence
//! numbers that make re-ordering harmless).

use oltap_common::{DbError, Result};
use std::fs::{self, File};
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Distinguishes spill dirs of concurrent processes / queries.
static SPILL_SEQ: AtomicU64 = AtomicU64::new(0);

/// A scratch directory whose contents live exactly as long as the handle.
///
/// Under a database-level spill root, and named and made on disk only when
/// the first file is asked for; every file allocated through
/// [`SpillDir::writer`] is removed when the `SpillDir` drops, so a query —
/// successful, failed, or cancelled — cannot leak spill files.
#[derive(Debug)]
pub struct SpillDir {
    root: Arc<Path>,
    /// `root/q-{pid}-{n}`, formatted by the first writer.
    path: OnceLock<PathBuf>,
    files: AtomicU64,
    /// Set once the directory exists on disk; `Drop` removes nothing
    /// otherwise.
    created: AtomicBool,
}

impl SpillDir {
    /// A scratch dir under `root`, to be named uniquely by the first
    /// [`SpillDir::writer`] call, which also makes it on disk.
    pub fn under(root: Arc<Path>) -> SpillDir {
        SpillDir {
            root,
            path: OnceLock::new(),
            files: AtomicU64::new(0),
            created: AtomicBool::new(false),
        }
    }

    /// [`SpillDir::under`] a borrowed `root`, which is copied.
    pub fn create_under(root: &Path) -> Result<SpillDir> {
        Ok(Self::under(Arc::from(root)))
    }

    /// A scratch dir under the OS temp dir (tests, standalone executors).
    pub fn create_temp() -> Result<SpillDir> {
        Self::create_under(&std::env::temp_dir().join("oltap-spill"))
    }

    /// The directory path, once the first writer has named it
    /// (diagnostics / leak assertions in tests).
    pub fn path(&self) -> Option<&Path> {
        self.path.get().map(PathBuf::as_path)
    }

    /// Number of spill files allocated so far.
    pub fn file_count(&self) -> u64 {
        self.files.load(Ordering::Relaxed)
    }

    /// Opens a new spill file for writing, making the directory (and the
    /// root above it) on first use. `label` is a human-readable tag
    /// (`"join-p3"`, `"agg-p7"`, `"sort-run"`); a counter makes the name
    /// unique.
    pub fn writer(&self, label: &str) -> Result<SpillWriter> {
        // Workers of one query may race here: one name wins, and
        // `create_dir_all` is idempotent. Acquire/Release pair with
        // `Drop`'s load so a dir made by any worker is removed.
        let dir = self.path.get_or_init(|| {
            let n = SPILL_SEQ.fetch_add(1, Ordering::Relaxed);
            self.root.join(format!("q-{}-{}", std::process::id(), n))
        });
        if !self.created.load(Ordering::Acquire) {
            fs::create_dir_all(dir)?;
            self.created.store(true, Ordering::Release);
        }
        let n = self.files.fetch_add(1, Ordering::Relaxed);
        let path = dir.join(format!("{label}-{n}.spill"));
        let file = File::create(&path)?;
        Ok(SpillWriter {
            out: BufWriter::new(file),
            path,
            records: 0,
            bytes: 0,
        })
    }
}

impl Drop for SpillDir {
    fn drop(&mut self) {
        // Best-effort: a failed removal leaves orphans for
        // `purge_spill_root` at next startup.
        if let Some(path) = self
            .path
            .get()
            .filter(|_| self.created.load(Ordering::Acquire))
        {
            let _ = fs::remove_dir_all(path);
        }
    }
}

/// Removes every per-query scratch dir under a database's spill root.
/// Called on recovery startup: spill files never outlive a process on
/// purpose, so anything found here is leakage from a crash.
///
/// Returns the number of entries removed.
pub fn purge_spill_root(root: &Path) -> Result<u64> {
    let mut removed = 0;
    let entries = match fs::read_dir(root) {
        Ok(e) => e,
        // A missing root means nothing ever spilled: not an error.
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

/// Append-only, length-framed record writer over a buffered spill file.
#[derive(Debug)]
pub struct SpillWriter {
    out: BufWriter<File>,
    path: PathBuf,
    records: u64,
    bytes: u64,
}

impl SpillWriter {
    /// Appends one record (`u32` LE length + payload).
    pub fn write_record(&mut self, payload: &[u8]) -> Result<()> {
        let len = u32::try_from(payload.len()).map_err(|_| {
            DbError::InvalidArgument(format!("spill record too large: {} B", payload.len()))
        })?;
        self.out.write_all(&len.to_le_bytes())?;
        self.out.write_all(payload)?;
        self.records += 1;
        self.bytes += 4 + payload.len() as u64;
        Ok(())
    }

    /// Flushes and seals the file, returning a handle for reading back.
    pub fn finish(mut self) -> Result<SpillHandle> {
        self.out.flush()?;
        Ok(SpillHandle {
            path: self.path.clone(),
            records: self.records,
            bytes: self.bytes,
        })
    }
}

/// A sealed spill file: metadata plus the ability to open readers.
#[derive(Debug, Clone)]
pub struct SpillHandle {
    path: PathBuf,
    records: u64,
    bytes: u64,
}

impl SpillHandle {
    /// Number of records in the file.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// On-disk size in bytes (framing included).
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Opens a sequential reader positioned at the first record.
    pub fn reader(&self) -> Result<SpillReader> {
        let file = File::open(&self.path)?;
        Ok(SpillReader {
            input: BufReader::new(file),
            remaining: self.records,
        })
    }
}

/// Sequential record reader; yields payloads in write order.
#[derive(Debug)]
pub struct SpillReader {
    input: BufReader<File>,
    remaining: u64,
}

impl SpillReader {
    /// The next record, or `None` after the last one.
    pub fn next_record(&mut self) -> Result<Option<Vec<u8>>> {
        if self.remaining == 0 {
            return Ok(None);
        }
        let mut len_buf = [0u8; 4];
        self.input.read_exact(&mut len_buf).map_err(truncated)?;
        let len = u32::from_le_bytes(len_buf) as usize;
        let mut payload = vec![0u8; len];
        self.input.read_exact(&mut payload).map_err(truncated)?;
        self.remaining -= 1;
        Ok(Some(payload))
    }

    /// Records left to read.
    pub fn remaining(&self) -> u64 {
        self.remaining
    }
}

fn truncated(e: std::io::Error) -> DbError {
    if e.kind() == std::io::ErrorKind::UnexpectedEof {
        DbError::Corruption("truncated spill record".into())
    } else {
        e.into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_records_in_order() {
        let dir = SpillDir::create_temp().unwrap();
        let mut w = dir.writer("test").unwrap();
        for i in 0..100u32 {
            w.write_record(&i.to_le_bytes()).unwrap();
        }
        let h = w.finish().unwrap();
        assert_eq!(h.records(), 100);
        let mut r = h.reader().unwrap();
        for i in 0..100u32 {
            let rec = r.next_record().unwrap().unwrap();
            assert_eq!(rec, i.to_le_bytes());
        }
        assert!(r.next_record().unwrap().is_none());
    }

    #[test]
    fn empty_and_large_records() {
        let dir = SpillDir::create_temp().unwrap();
        let mut w = dir.writer("test").unwrap();
        w.write_record(&[]).unwrap();
        let big = vec![0xAB; 1 << 20];
        w.write_record(&big).unwrap();
        let h = w.finish().unwrap();
        let mut r = h.reader().unwrap();
        assert_eq!(r.next_record().unwrap().unwrap().len(), 0);
        assert_eq!(r.next_record().unwrap().unwrap(), big);
    }

    #[test]
    fn drop_removes_directory() {
        let dir = SpillDir::create_temp().unwrap();
        let mut w = dir.writer("x").unwrap();
        let path = dir.path().unwrap().to_path_buf();
        w.write_record(b"abc").unwrap();
        let _h = w.finish().unwrap();
        assert!(path.exists());
        drop(dir);
        assert!(!path.exists(), "spill dir removed on drop");
    }

    #[test]
    fn nothing_is_created_until_the_first_writer() {
        let root = std::env::temp_dir().join(format!(
            "oltap-spill-lazy-{}-{}",
            std::process::id(),
            SPILL_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let dir = SpillDir::create_under(&root).unwrap();
        assert!(!root.exists(), "create_under alone touched the disk");
        // Nothing formatted a name for it either, and dropping it unused is
        // silent and still creates nothing.
        assert!(dir.path().is_none(), "create_under alone named the dir");
        drop(dir);
        assert!(!root.exists());

        let dir = SpillDir::create_under(&root).unwrap();
        let w = dir.writer("first").unwrap();
        let path = dir.path().expect("the first writer names the dir");
        assert!(root.is_dir() && path.is_dir() && path.starts_with(&root));
        w.finish().unwrap();
        drop(dir);
        // The query's dir goes; the root stays for the next spill.
        assert_eq!(fs::read_dir(&root).unwrap().count(), 0);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn purge_removes_orphans() {
        let root = std::env::temp_dir().join(format!(
            "oltap-spill-purge-{}-{}",
            std::process::id(),
            SPILL_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        // Simulate a crash: create a scratch dir and forget the handle.
        let d = SpillDir::create_under(&root).unwrap();
        let mut w = d.writer("leak").unwrap();
        w.write_record(b"orphan").unwrap();
        w.finish().unwrap();
        std::mem::forget(d);
        assert_eq!(purge_spill_root(&root).unwrap(), 1);
        assert_eq!(fs::read_dir(&root).unwrap().count(), 0);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn purge_of_missing_root_is_ok() {
        let ghost = std::env::temp_dir().join("oltap-spill-does-not-exist-xyz");
        assert_eq!(purge_spill_root(&ghost).unwrap(), 0);
    }

    #[test]
    fn multiple_files_have_unique_names() {
        let dir = SpillDir::create_temp().unwrap();
        let a = dir.writer("p").unwrap().finish().unwrap();
        let b = dir.writer("p").unwrap().finish().unwrap();
        assert_ne!(a.path, b.path);
        assert_eq!(dir.file_count(), 2);
    }
}
