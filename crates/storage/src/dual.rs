//! Dual-format tables: a row store and a columnar image of the same data,
//! simultaneously active and transactionally consistent.
//!
//! This models Oracle Database In-Memory's architecture (paper §3,
//! \[22, 27\]): the row store remains the system of record and serves OLTP;
//! a compressed columnar image (built by *population*) serves analytics;
//! DML invalidates columnar rows through a journal, and scans reconcile
//! image + journal so that analytic queries are **always** consistent with
//! the row store at their snapshot — the "strict transactional consistency
//! between both formats, in real time" the paper highlights.
//!
//! Mechanics:
//!
//! * All DML executes against the [`RowStore`] under MVCC, and additionally
//!   enlists a journal entry that records the touched primary key at commit
//!   time. Until then the key is listed as pending under its writer, so
//!   that transaction's own scans overlay its uncommitted writes too.
//! * [`DualFormatTable::populate`] (re)builds the columnar segments from
//!   the row-store state at the GC watermark and prunes the journal below
//!   it. Population is the analog of Oracle's IMCU build.
//! * An analytic scan at snapshot `s` ([`DualFormatTable::scan_parts`])
//!   reads the segments, masks out rows whose key appears in the journal
//!   within `(image_ts, s]` (stale), and overlays the current row-store
//!   versions of those keys plus newly-inserted keys — each visible row is
//!   produced exactly once.

use crate::buffer::SegmentPager;
use crate::predicate::ScanPredicate;
use crate::rowstore::RowStore;
use crate::segment::Segment;
use oltap_common::hash::{FxHashMap, FxHashSet};
use oltap_common::ids::{SegmentId, TxnId};
use oltap_common::schema::SchemaRef;
use oltap_common::{Batch, BitSet, DbError, Result, Row};
use oltap_txn::{Transaction, Ts, WriteSetEntry};
use parking_lot::RwLock;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The shared invalidation journal: (commit_ts, primary key).
type Journal = Arc<RwLock<Vec<(Ts, Row)>>>;

/// Keys with uncommitted writes, by writer. Only the writer's own scans
/// read its list; it goes when the transaction ends either way.
type Pending = Arc<RwLock<FxHashMap<TxnId, Vec<Row>>>>;

/// Write-set adapter that publishes touched keys at commit time.
struct JournalEntry {
    journal: Journal,
    pending: Pending,
    key: Row,
}

impl WriteSetEntry for JournalEntry {
    fn commit(&self, txn: TxnId, commit_ts: Ts) {
        self.journal.write().push((commit_ts, self.key.clone()));
        self.pending.write().remove(&txn);
    }
    fn abort(&self, txn: TxnId) {
        self.pending.write().remove(&txn);
    }
}

struct ColumnarImage {
    /// Snapshot timestamp the image was built at.
    image_ts: Ts,
    segments: Vec<Arc<Segment>>,
    /// Primary key → (segment index, offset) in the image.
    pk_locs: FxHashMap<Row, (usize, u32)>,
}

/// What [`DualFormatTable::scan_parts`] hands a scan: the image's segments,
/// each beside its stale rows, and the overlay's batches.
pub type ScanParts = (Vec<(Arc<Segment>, Option<BitSet>)>, Vec<Batch>);

/// A dual-format table.
pub struct DualFormatTable {
    schema: SchemaRef,
    rows: RowStore,
    image: RwLock<ColumnarImage>,
    journal: Journal,
    pending: Pending,
    next_segment: AtomicU64,
    /// Rows per columnar segment when populating.
    segment_rows: usize,
    /// When set, populated image segments are paged through the buffer
    /// pool instead of held resident.
    pager: Option<Arc<SegmentPager>>,
}

impl std::fmt::Debug for DualFormatTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let image = self.image.read();
        f.debug_struct("DualFormatTable")
            .field("image_ts", &image.image_ts)
            .field("segments", &image.segments.len())
            .field("journal_len", &self.journal.read().len())
            .finish()
    }
}

impl DualFormatTable {
    /// Creates a dual-format table. Requires a primary key (the journal
    /// identifies rows by key).
    pub fn new(schema: SchemaRef) -> Result<Self> {
        Self::with_pager(schema, None)
    }

    /// Creates a dual-format table whose columnar image is paged through
    /// `pager`'s buffer pool when one is supplied.
    pub fn with_pager(schema: SchemaRef, pager: Option<Arc<SegmentPager>>) -> Result<Self> {
        if !schema.has_primary_key() {
            return Err(DbError::InvalidArgument(
                "dual-format tables require a primary key".into(),
            ));
        }
        Ok(DualFormatTable {
            rows: RowStore::new(Arc::clone(&schema)),
            image: RwLock::new(ColumnarImage {
                image_ts: 0,
                segments: Vec::new(),
                pk_locs: FxHashMap::default(),
            }),
            journal: Arc::new(RwLock::new(Vec::new())),
            pending: Pending::default(),
            next_segment: AtomicU64::new(1),
            segment_rows: 131_072,
            schema,
            pager,
        })
    }

    /// The table schema.
    pub fn schema(&self) -> &SchemaRef {
        &self.schema
    }

    /// Unpruned journal length (freshness metric).
    pub fn journal_len(&self) -> usize {
        self.journal.read().len()
    }

    /// The image's population timestamp.
    pub fn image_ts(&self) -> Ts {
        self.image.read().image_ts
    }

    /// Number of columnar segments in the image.
    pub fn segment_count(&self) -> usize {
        self.image.read().segments.len()
    }

    fn enlist_journal(&self, txn: &Transaction, key: Row) -> Result<()> {
        txn.enlist(Arc::new(JournalEntry {
            journal: Arc::clone(&self.journal),
            pending: Arc::clone(&self.pending),
            key: key.clone(),
        }))?;
        // Listed only once enlisted: the entry is what unlists it.
        self.pending.write().entry(txn.id()).or_default().push(key);
        Ok(())
    }

    /// Transactional insert (row store + journal).
    pub fn insert(&self, txn: &Transaction, row: Row) -> Result<()> {
        self.schema.check_row(&row)?;
        let key = self.schema.key_of(&row);
        self.rows.insert(txn, row)?;
        self.enlist_journal(txn, key)
    }

    /// Bulk-loads committed rows (bypasses transactions and the journal —
    /// call [`DualFormatTable::populate`] afterwards).
    pub fn bulk_load(&self, rows: &[Row], ts: Ts) -> Result<()> {
        for r in rows {
            self.rows.load_committed(r.clone(), ts)?;
        }
        // Bulk loads invalidate wholesale: journal each key so scans stay
        // correct before the next population.
        let mut journal = self.journal.write();
        for r in rows {
            journal.push((ts, self.schema.key_of(r)));
        }
        Ok(())
    }

    /// Transactional update.
    pub fn update(&self, txn: &Transaction, key: &Row, row: Row) -> Result<()> {
        self.rows.update(txn, key, row)?;
        self.enlist_journal(txn, key.clone())
    }

    /// Transactional delete.
    pub fn delete(&self, txn: &Transaction, key: &Row) -> Result<()> {
        self.rows.delete(txn, key)?;
        self.enlist_journal(txn, key.clone())
    }

    /// OLTP point lookup — always served by the row format.
    pub fn get(&self, key: &Row, read_ts: Ts, me: TxnId) -> Option<Row> {
        self.rows.get(key, read_ts, me)
    }

    /// Rebuilds the columnar image from the row store at `watermark` and
    /// prunes the journal below it. Returns the number of image rows.
    pub fn populate(&self, watermark: Ts) -> Result<usize> {
        // Snapshot the rows first (cheap reads, no image lock held).
        let rows: Vec<Row> = self
            .rows
            .scan_rows(watermark, TxnId(u64::MAX - 2), None)
            .collect();
        let mut segments = Vec::new();
        let mut pk_locs = FxHashMap::default();
        for chunk in rows.chunks(self.segment_rows.max(1)) {
            let id = SegmentId(self.next_segment.fetch_add(1, Ordering::Relaxed));
            let seg = Segment::from_rows(
                id,
                Arc::clone(&self.schema),
                chunk,
                watermark,
                self.pager.as_ref(),
            )?;
            let seg_idx = segments.len();
            for (off, r) in chunk.iter().enumerate() {
                pk_locs.insert(self.schema.key_of(r), (seg_idx, off as u32));
            }
            segments.push(Arc::new(seg));
        }
        let n = rows.len();
        let mut image = self.image.write();
        *image = ColumnarImage {
            image_ts: watermark,
            segments,
            pk_locs,
        };
        // Prune journal entries at or below the new image timestamp.
        self.journal.write().retain(|(ts, _)| *ts > watermark);
        Ok(n)
    }

    /// The parts of an analytic scan — the columnar image reconciled with
    /// the journal overlay, consistent at `read_ts`: the image's segments,
    /// each beside the offsets of its rows whose columnar copy may be
    /// stale (to be hidden like deleted ones), and the overlay — the row
    /// store's current versions of those keys and of new ones, projected,
    /// in batches. A snapshot older than the image is the row store's
    /// alone: no segment, every visible row in the overlay.
    pub fn scan_parts(
        &self,
        projection: &[usize],
        pred: &ScanPredicate,
        read_ts: Ts,
        me: TxnId,
        batch_size: usize,
    ) -> Result<ScanParts> {
        pred.validate(&self.schema)?;
        let image = self.image.read();
        if read_ts < image.image_ts {
            // The snapshot predates the image: fall back to the row store
            // (only possible for snapshots older than the population
            // watermark, i.e. none in steady state).
            let rows = self.rows.scan_validated(projection, pred, read_ts, me, batch_size)?;
            return Ok((Vec::new(), rows));
        }
        // Keys whose columnar copy may be stale. No upper bound on the
        // journal timestamp is needed: the overlay below reads the row
        // store *at the snapshot*, so a key invalidated after `read_ts`
        // simply overlays the same version the image holds — still exactly
        // once, still the right version. The bound is inclusive at
        // `image_ts` so that bootstrap loads stamped at the initial (empty)
        // image timestamp are not considered covered by it.
        let mut stale: FxHashSet<Row> = self
            .journal
            .read()
            .iter()
            .filter(|(ts, _)| *ts >= image.image_ts)
            .map(|(_, k)| k.clone())
            .collect();
        // The reader's own uncommitted writes are not in the journal yet:
        // overlay them from the row store the same way.
        if let Some(own) = self.pending.read().get(&me) {
            stale.extend(own.iter().cloned());
        }

        // Per-segment mask of stale offsets.
        let mut segments: Vec<(Arc<Segment>, Option<BitSet>)> =
            image.segments.iter().map(|seg| (Arc::clone(seg), None)).collect();
        for key in &stale {
            if let Some(&(seg_idx, off)) = image.pk_locs.get(key) {
                let (seg, mask) = &mut segments[seg_idx];
                mask.get_or_insert_with(|| BitSet::with_len(seg.row_count()))
                    .set(off as usize);
            }
        }

        // Overlay: current row-store versions of stale/new keys.
        let mut overlay = Vec::new();
        if !stale.is_empty() {
            let proj_schema = self.schema.project(projection);
            let mut buf = Vec::new();
            for key in &stale {
                if let Some(row) = self.rows.get(key, read_ts, me) {
                    if pred.matches_row(&row) {
                        buf.push(row.project(projection));
                    }
                }
            }
            for chunk in buf.chunks(batch_size.max(1)) {
                overlay.push(Batch::from_rows(&proj_schema, chunk)?);
            }
        }
        Ok((segments, overlay))
    }

    /// OLTP-style scan — served entirely by the row format (for
    /// comparison and for queries the optimizer routes to the row store).
    pub fn scan_oltp(
        &self,
        projection: &[usize],
        pred: &ScanPredicate,
        read_ts: Ts,
        me: TxnId,
        batch_size: usize,
    ) -> Result<Vec<Batch>> {
        self.rows.scan(projection, pred, read_ts, me, batch_size)
    }

    /// Estimated visible rows.
    pub fn row_count_estimate(&self) -> usize {
        self.rows.key_count()
    }

    /// Runs MVCC GC on the row store.
    pub fn gc(&self, watermark: Ts) -> usize {
        self.rows.gc(watermark)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::CmpOp;
    use oltap_common::row;
    use oltap_common::{DataType, Field, Schema, Value};
    use oltap_txn::TransactionManager;

    const NOBODY: TxnId = TxnId(u64::MAX - 1);

    /// An analytic scan drained: [`DualFormatTable::scan_parts`]'s segments
    /// a row group at a time, stale rows hidden, then the overlay.
    trait Analytic {
        fn scan_analytic(
            &self,
            projection: &[usize],
            pred: &ScanPredicate,
            read_ts: Ts,
            me: TxnId,
            batch_size: usize,
        ) -> Result<Vec<Batch>>;
    }

    impl Analytic for DualFormatTable {
        fn scan_analytic(
            &self,
            projection: &[usize],
            pred: &ScanPredicate,
            read_ts: Ts,
            me: TxnId,
            batch_size: usize,
        ) -> Result<Vec<Batch>> {
            let (segments, overlay) = self.scan_parts(projection, pred, read_ts, me, batch_size)?;
            let mut out = Vec::new();
            for (seg, stale) in &segments {
                if let Some(mut selector) = seg.selector(pred, read_ts, me)? {
                    if let Some(stale) = stale {
                        selector.hide(stale.clone());
                    }
                    out.extend(selector.scan(projection, batch_size)?);
                }
            }
            out.extend(overlay);
            Ok(out)
        }
    }

    fn schema() -> SchemaRef {
        Arc::new(
            Schema::with_primary_key(
                vec![
                    Field::not_null("id", DataType::Int64),
                    Field::new("region", DataType::Utf8),
                    Field::new("amount", DataType::Int64),
                ],
                &["id"],
            )
            .unwrap(),
        )
    }

    fn table() -> (Arc<TransactionManager>, DualFormatTable) {
        (
            Arc::new(TransactionManager::new()),
            DualFormatTable::new(schema()).unwrap(),
        )
    }

    fn count(t: &DualFormatTable, read_ts: Ts) -> usize {
        t.scan_analytic(&[0], &ScanPredicate::all(), read_ts, NOBODY, 4096)
            .unwrap()
            .iter()
            .map(|b| b.len())
            .sum()
    }

    #[test]
    fn requires_primary_key() {
        let schema = Arc::new(Schema::new(vec![Field::new("x", DataType::Int64)]));
        assert!(DualFormatTable::new(schema).is_err());
    }

    #[test]
    fn analytic_scan_before_population_reads_journal_overlay() {
        let (mgr, t) = table();
        let tx = mgr.begin();
        for i in 0..10 {
            t.insert(&tx, row![i as i64, "eu", i as i64]).unwrap();
        }
        let cts = tx.commit().unwrap();
        assert_eq!(t.segment_count(), 0);
        assert_eq!(count(&t, cts), 10);
    }

    #[test]
    fn population_builds_image_and_prunes_journal() {
        let (mgr, t) = table();
        let tx = mgr.begin();
        for i in 0..100 {
            t.insert(&tx, row![i as i64, "eu", i as i64]).unwrap();
        }
        tx.commit().unwrap();
        assert_eq!(t.journal_len(), 100);
        let n = t.populate(mgr.gc_watermark()).unwrap();
        assert_eq!(n, 100);
        assert_eq!(t.journal_len(), 0);
        assert!(t.segment_count() >= 1);
        assert_eq!(count(&t, mgr.now()), 100);
    }

    #[test]
    fn update_after_population_is_visible_exactly_once() {
        let (mgr, t) = table();
        let tx = mgr.begin();
        for i in 0..10 {
            t.insert(&tx, row![i as i64, "eu", 0i64]).unwrap();
        }
        tx.commit().unwrap();
        t.populate(mgr.gc_watermark()).unwrap();

        let tx = mgr.begin();
        t.update(&tx, &row![3i64], row![3i64, "eu", 999i64]).unwrap();
        let cts = tx.commit().unwrap();

        // New snapshot: 10 rows, row 3 shows the new value.
        let batches = t
            .scan_analytic(&[0, 2], &ScanPredicate::all(), cts, NOBODY, 4096)
            .unwrap();
        let rows: Vec<Row> = batches.iter().flat_map(|b| b.to_rows()).collect();
        assert_eq!(rows.len(), 10);
        let updated: Vec<&Row> = rows.iter().filter(|r| r[0] == Value::Int(3)).collect();
        assert_eq!(updated.len(), 1);
        assert_eq!(updated[0][1], Value::Int(999));

        // Old snapshot: still the old value.
        let batches = t
            .scan_analytic(&[0, 2], &ScanPredicate::all(), cts - 1, NOBODY, 4096)
            .unwrap();
        let rows: Vec<Row> = batches.iter().flat_map(|b| b.to_rows()).collect();
        let old: Vec<&Row> = rows.iter().filter(|r| r[0] == Value::Int(3)).collect();
        assert_eq!(old.len(), 1);
        assert_eq!(old[0][1], Value::Int(0));
    }

    #[test]
    fn insert_and_delete_after_population() {
        let (mgr, t) = table();
        let tx = mgr.begin();
        for i in 0..10 {
            t.insert(&tx, row![i as i64, "eu", 0i64]).unwrap();
        }
        tx.commit().unwrap();
        t.populate(mgr.gc_watermark()).unwrap();

        let tx = mgr.begin();
        t.insert(&tx, row![100i64, "us", 5i64]).unwrap();
        t.delete(&tx, &row![0i64]).unwrap();
        let cts = tx.commit().unwrap();

        assert_eq!(count(&t, cts), 10); // +1 insert, -1 delete
        assert_eq!(count(&t, cts - 1), 10);
        let rows: Vec<Row> = t
            .scan_analytic(&[0], &ScanPredicate::all(), cts, NOBODY, 4096)
            .unwrap()
            .iter()
            .flat_map(|b| b.to_rows())
            .collect();
        assert!(rows.iter().any(|r| r[0] == Value::Int(100)));
        assert!(!rows.iter().any(|r| r[0] == Value::Int(0)));
    }

    /// A transaction's analytic scan reads its own uncommitted insert,
    /// update and delete, as its point reads do; nobody else's scan does,
    /// and an abort leaves no trace.
    #[test]
    fn analytic_scan_reads_the_transactions_own_writes() {
        let (mgr, t) = table();
        let tx = mgr.begin();
        for i in 0..10 {
            t.insert(&tx, row![i as i64, "eu", 0i64]).unwrap();
        }
        tx.commit().unwrap();
        t.populate(mgr.gc_watermark()).unwrap();

        let amounts = |read_ts: Ts, me: TxnId| -> Vec<(Value, Value)> {
            let mut rows: Vec<(Value, Value)> = t
                .scan_analytic(&[0, 2], &ScanPredicate::all(), read_ts, me, 4096)
                .unwrap()
                .iter()
                .flat_map(|b| b.to_rows())
                .map(|r| (r[0].clone(), r[1].clone()))
                .collect();
            rows.sort();
            rows
        };
        let before = amounts(mgr.now(), NOBODY);

        let tx = mgr.begin();
        t.insert(&tx, row![100i64, "us", 5i64]).unwrap();
        t.update(&tx, &row![1i64], row![1i64, "eu", 7i64]).unwrap();
        t.delete(&tx, &row![0i64]).unwrap();
        let own = amounts(tx.begin_ts(), tx.id());
        assert_eq!(own.len(), 10);
        assert_eq!(own[0], (Value::Int(1), Value::Int(7)));
        assert_eq!(own[9], (Value::Int(100), Value::Int(5)));
        assert_eq!(
            amounts(mgr.now(), NOBODY),
            before,
            "uncommitted writes leaked"
        );
        tx.abort().unwrap();
        assert_eq!(amounts(mgr.now(), NOBODY), before);
        assert!(t.pending.read().is_empty());
    }

    #[test]
    fn predicate_applies_to_both_image_and_overlay() {
        let (mgr, t) = table();
        let tx = mgr.begin();
        for i in 0..20 {
            t.insert(&tx, row![i as i64, "eu", (i % 2) as i64]).unwrap();
        }
        tx.commit().unwrap();
        t.populate(mgr.gc_watermark()).unwrap();
        // Flip row 0's amount from 0 to 1 post-population.
        let tx = mgr.begin();
        t.update(&tx, &row![0i64], row![0i64, "eu", 1i64]).unwrap();
        let cts = tx.commit().unwrap();

        let pred = ScanPredicate::single(2, CmpOp::Eq, Value::Int(1));
        let total: usize = t
            .scan_analytic(&[0], &pred, cts, NOBODY, 4096)
            .unwrap()
            .iter()
            .map(|b| b.len())
            .sum();
        assert_eq!(total, 11); // 10 odd rows + updated row 0
    }

    #[test]
    fn point_reads_always_row_store() {
        let (mgr, t) = table();
        let tx = mgr.begin();
        t.insert(&tx, row![1i64, "eu", 7i64]).unwrap();
        let cts = tx.commit().unwrap();
        assert_eq!(t.get(&row![1i64], cts, NOBODY).unwrap()[2], Value::Int(7));
        assert!(t.get(&row![2i64], cts, NOBODY).is_none());
    }

    #[test]
    fn repopulation_after_heavy_dml() {
        let (mgr, t) = table();
        let tx = mgr.begin();
        for i in 0..50 {
            t.insert(&tx, row![i as i64, "eu", 0i64]).unwrap();
        }
        tx.commit().unwrap();
        t.populate(mgr.gc_watermark()).unwrap();
        for i in 0..50 {
            let tx = mgr.begin();
            t.update(&tx, &row![i as i64], row![i as i64, "eu", 1i64])
                .unwrap();
            tx.commit().unwrap();
        }
        assert_eq!(t.journal_len(), 50);
        t.populate(mgr.gc_watermark()).unwrap();
        assert_eq!(t.journal_len(), 0);
        let pred = ScanPredicate::single(2, CmpOp::Eq, Value::Int(1));
        let total: usize = t
            .scan_analytic(&[0], &pred, mgr.now(), NOBODY, 4096)
            .unwrap()
            .iter()
            .map(|b| b.len())
            .sum();
        assert_eq!(total, 50);
    }

    #[test]
    fn bulk_load_then_scan_consistent() {
        let (mgr, t) = table();
        let rows: Vec<Row> = (0..30).map(|i| row![i as i64, "eu", i as i64]).collect();
        t.bulk_load(&rows, 0).unwrap();
        assert_eq!(count(&t, mgr.now()), 30);
        t.populate(mgr.gc_watermark()).unwrap();
        assert_eq!(count(&t, mgr.now()), 30);
    }

    /// The DUAL twin of core's
    /// `filtered_and_aggregated_column_faults_once_per_group`: a column the
    /// scan both filters and projects is faulted once per row group under a
    /// pool smaller than that column (a whole-segment selection followed by
    /// a gather faults it twice), stale rows are overlaid exactly once, and
    /// the answer is the resident table's.
    #[test]
    fn filtered_and_projected_column_faults_once_per_group() {
        use crate::buffer::BufferManager;
        use oltap_common::fault::FaultInjector;
        let (pool_bytes, group_rows, n) = (4096, 256, 4096i64);
        let root = std::env::temp_dir().join(format!("oltap-dual-pages-{}", std::process::id()));
        let pager = SegmentPager::new(
            root,
            BufferManager::new(pool_bytes, None, FaultInjector::disabled()),
            group_rows,
            FaultInjector::disabled(),
        );
        let mgr = Arc::new(TransactionManager::new());
        let paged = DualFormatTable::with_pager(schema(), Some(Arc::clone(&pager))).unwrap();
        let resident = DualFormatTable::new(schema()).unwrap();
        for t in [&paged, &resident] {
            let tx = mgr.begin();
            for i in 0..n {
                t.insert(&tx, row![i, "eu", (i * 7919) % 60_000]).unwrap();
            }
            tx.commit().unwrap();
            t.populate(mgr.gc_watermark()).unwrap();
            // Stale keys in two groups: masked in the image, overlaid from
            // the row store.
            let tx = mgr.begin();
            t.update(&tx, &row![3i64], row![3i64, "eu", 1i64]).unwrap();
            t.delete(&tx, &row![1000i64]).unwrap();
            tx.commit().unwrap();
        }

        // Every group has a passing row: none is pruned or filtered empty.
        let pred = ScanPredicate::single(2, CmpOp::Ge, Value::Int(0));
        let answer = |t: &DualFormatTable| -> Vec<Row> {
            let mut rows: Vec<Row> = t
                .scan_analytic(&[2, 0], &pred, mgr.now(), NOBODY, 1000)
                .unwrap()
                .iter()
                .flat_map(|b| b.to_rows())
                .collect();
            rows.sort();
            rows
        };
        let before = pager.buffer().stats().misses;
        let got = answer(&paged);
        let faulted = pager.buffer().stats().misses - before;
        assert_eq!(got.len(), n as usize - 1);
        assert_eq!(got, answer(&resident));

        let image = paged.image.read();
        let groups: usize = image.segments.iter().map(|s| s.group_count()).sum();
        assert_eq!(groups, n as usize / group_rows);
        let amount_bytes: usize = image
            .segments
            .iter()
            .flat_map(|s| {
                (0..s.group_count()).map(move |g| s.column_chunk(g, 2).unwrap().size_bytes())
            })
            .sum();
        assert!(
            amount_bytes as u64 > pool_bytes,
            "{amount_bytes} B filtered"
        );
        assert_eq!(faulted, (groups * 2) as u64);
    }
}
