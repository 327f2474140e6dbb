//! # oltap-storage
//!
//! The storage engines of `oltapdb`, covering the physical-design spectrum
//! the tutorial's §1 lays out ("row-based, column-oriented, or hybrid"):
//!
//! * [`rowstore`] — an OLTP row store: a lock-free insert-only concurrent
//!   [`skiplist`] indexing MVCC version chains (MemSQL-style).
//! * [`segment`] + [`encoding`] + [`zonemap`] — the compressed, immutable,
//!   zone-mapped columnar "main" store (HANA / DB2 BLU / Oracle DBIM
//!   style), with predicate evaluation over compressed codes.
//! * [`delta`] — the delta + main architecture with an MVCC-safe merge
//!   (differential files / LSM lineage, §4). A table (`oltap-core`'s
//!   `TableHandle`) is a row store, a delta + main table, or both — the
//!   dual format (Oracle Database In-Memory style, §3).
//! * [`predicate`] — pushed-down scan predicates shared by all formats.
//! * [`spill`] — length-framed spill files under per-query scratch dirs,
//!   the disk half of the executor's memory-bounded operators.
//! * [`pagefile`] + [`buffer`] — checksummed on-disk column pages behind
//!   a governed, clock-evicted buffer pool, making segments
//!   larger-than-memory (§2's "operational analytics under one memory
//!   hierarchy").

mod arena;
pub mod buffer;
pub mod delta;
pub mod encoding;
pub mod pagefile;
pub mod predicate;
pub mod rowstore;
pub mod segment;
pub mod skiplist;
pub mod spill;
pub mod zonemap;

pub use buffer::{BufferManager, BufferStats, PageGuard, PageKey, ScanPass, SegmentPager};
pub use delta::{DeltaMainTable, FreezeStats, HeatStats, MergeBell, MergeStats, TableSizes};
pub use pagefile::{purge_page_root, PageFile, PageFileWriter};
pub use predicate::{CmpOp, ColumnPredicate, JoinFilter, ScanPredicate};
pub use rowstore::RowStore;
pub use segment::Segment;
pub use skiplist::SkipList;
pub use spill::{purge_spill_root, SpillDir, SpillHandle, SpillReader, SpillWriter};
pub use zonemap::{ColumnZone, ZoneMap};
