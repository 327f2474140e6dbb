//! Dual-format tables: a row store and a columnar copy of the same data,
//! simultaneously active and transactionally consistent.
//!
//! This models Oracle Database In-Memory's architecture (paper §3,
//! \[22, 27\]): the row store remains the system of record and serves OLTP;
//! a compressed columnar copy serves analytics, and DML invalidates its
//! rows so that analytic queries are **always** consistent with the row
//! store at their snapshot — the "strict transactional consistency between
//! both formats, in real time" the paper highlights.
//!
//! The columnar side is a [`DeltaMainTable`], the engine's one columnar
//! mechanism: every statement's write goes to the row store first (its
//! errors are the statement's) and then, the same write, to the columnar
//! side. There an update or a delete of a merged row stamps the segment
//! row deleted and an update puts the new version in the delta — the
//! stamp is DBIM's invalidation, the merge its repopulation. Both sides
//! apply first-committer-wins to the same history, so a columnar write
//! cannot fail where the row write succeeded, and both commit or abort
//! with the transaction.

use crate::delta::DeltaMainTable;
use crate::predicate::ScanPredicate;
use crate::rowstore::RowStore;
use oltap_common::ids::TxnId;
use oltap_common::schema::SchemaRef;
use oltap_common::{Batch, DbError, Result, Row};
use oltap_txn::{Transaction, Ts};
use std::sync::Arc;

/// A dual-format table: its row store beside its columnar side.
#[derive(Debug)]
pub struct DualFormatTable {
    rows: RowStore,
    columns: Arc<DeltaMainTable>,
}

impl DualFormatTable {
    /// Creates a dual-format table with a resident columnar side. Requires
    /// a primary key (both sides identify rows by key).
    pub fn new(schema: SchemaRef) -> Result<Self> {
        Self::with_columns(DeltaMainTable::new(schema))
    }

    /// Creates a dual-format table whose columnar side is `columns`, an
    /// empty table built with whatever pager and merge bell it should have.
    pub fn with_columns(columns: DeltaMainTable) -> Result<Self> {
        let schema = Arc::clone(columns.schema());
        if !schema.has_primary_key() {
            return Err(DbError::InvalidArgument(
                "dual-format tables require a primary key".into(),
            ));
        }
        Ok(DualFormatTable {
            rows: RowStore::new(schema),
            columns: Arc::new(columns),
        })
    }

    /// The table schema.
    pub fn schema(&self) -> &SchemaRef {
        self.columns.schema()
    }

    /// The columnar side: what analytic scans read and maintenance merges.
    pub fn columns(&self) -> &Arc<DeltaMainTable> {
        &self.columns
    }

    /// Transactional insert (row store, then the columnar side).
    pub fn insert(&self, txn: &Transaction, row: Row) -> Result<()> {
        self.rows.insert(txn, row.clone())?;
        self.columns.insert(txn, row)
    }

    /// Transactional update.
    pub fn update(&self, txn: &Transaction, key: &Row, row: Row) -> Result<()> {
        self.rows.update(txn, key, row.clone())?;
        self.columns.update(txn, key, row)
    }

    /// Transactional delete.
    pub fn delete(&self, txn: &Transaction, key: &Row) -> Result<()> {
        self.rows.delete(txn, key)?;
        self.columns.delete(txn, key)
    }

    /// OLTP point lookup — always served by the row format.
    pub fn get(&self, key: &Row, read_ts: Ts, me: TxnId) -> Option<Row> {
        self.rows.get(key, read_ts, me)
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
    use crate::buffer::SegmentPager;
    use crate::predicate::CmpOp;
    use oltap_common::fault::FaultInjector;
    use oltap_common::row;
    use oltap_common::{DataType, Field, Schema, Value};
    use oltap_txn::TransactionManager;

    const NOBODY: TxnId = TxnId(u64::MAX - 1);

    /// An analytic scan drained: the columnar side's segments, then its
    /// delta.
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
            let (segments, delta) =
                (self.columns).fused_scan_parts(projection, pred, read_ts, me, batch_size)?;
            let mut out = Vec::new();
            for seg in &segments {
                out.extend(seg.scan(projection, pred, read_ts, me, batch_size)?);
            }
            out.extend(delta);
            Ok(out)
        }
    }

    /// A maintenance pass over the table at the manager's watermark, as
    /// the database runs it.
    fn maintain(mgr: &TransactionManager, t: &DualFormatTable) {
        let watermark = mgr.gc_watermark();
        (t.columns).maintain(watermark, &FaultInjector::disabled()).unwrap();
        t.gc(watermark);
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

    /// Before any merge (DBIM's population) every row is in the delta —
    /// the columnar side's overlay of fresh rows.
    #[test]
    fn analytic_scan_before_population_reads_journal_overlay() {
        let (mgr, t) = table();
        let tx = mgr.begin();
        for i in 0..10 {
            t.insert(&tx, row![i as i64, "eu", i as i64]).unwrap();
        }
        let cts = tx.commit().unwrap();
        assert_eq!(t.columns().sizes().segments, 0);
        assert_eq!(count(&t, cts), 10);
    }

    /// Maintenance populates the columnar side: the delta merges into a
    /// segment and is left empty.
    #[test]
    fn population_builds_image_and_prunes_journal() {
        let (mgr, t) = table();
        let tx = mgr.begin();
        for i in 0..100 {
            t.insert(&tx, row![i as i64, "eu", i as i64]).unwrap();
        }
        tx.commit().unwrap();
        assert_eq!(t.columns().sizes().delta_rows, 100);
        maintain(&mgr, &t);
        let sizes = t.columns().sizes();
        assert_eq!((sizes.main_rows, sizes.delta_rows), (100, 0));
        assert!(sizes.segments >= 1);
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
        maintain(&mgr, &t);

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
        maintain(&mgr, &t);

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
        maintain(&mgr, &t);

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
    }

    /// The pushdown filters the merged segment and the delta alike.
    #[test]
    fn predicate_applies_to_both_image_and_overlay() {
        let (mgr, t) = table();
        let tx = mgr.begin();
        for i in 0..20 {
            t.insert(&tx, row![i as i64, "eu", (i % 2) as i64]).unwrap();
        }
        tx.commit().unwrap();
        maintain(&mgr, &t);
        // Flip row 0's amount from 0 to 1 after the merge.
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
        maintain(&mgr, &t);
        for i in 0..50 {
            let tx = mgr.begin();
            t.update(&tx, &row![i as i64], row![i as i64, "eu", 1i64])
                .unwrap();
            tx.commit().unwrap();
        }
        assert_eq!(t.columns().sizes().delta_rows, 50);
        maintain(&mgr, &t);
        let sizes = t.columns().sizes();
        assert_eq!((sizes.delta_rows, sizes.main_rows - sizes.main_dead_rows), (0, 50));
        let pred = ScanPredicate::single(2, CmpOp::Eq, Value::Int(1));
        let total: usize = t
            .scan_analytic(&[0], &pred, mgr.now(), NOBODY, 4096)
            .unwrap()
            .iter()
            .map(|b| b.len())
            .sum();
        assert_eq!(total, 50);
    }

    /// The DUAL twin of core's
    /// `filtered_and_aggregated_column_faults_once_per_group`: a column the
    /// scan both filters and projects is faulted once per row group under a
    /// pool smaller than that column (a whole-segment selection followed by
    /// a gather faults it twice), rows updated or deleted after the merge
    /// are read once, and the answer is the resident table's.
    #[test]
    fn filtered_and_projected_column_faults_once_per_group() {
        use crate::buffer::BufferManager;
        let (pool_bytes, group_rows, n) = (4096, 256, 4096i64);
        let root = std::env::temp_dir().join(format!("oltap-dual-pages-{}", std::process::id()));
        let pager = SegmentPager::new(
            root,
            BufferManager::new(pool_bytes, None, FaultInjector::disabled()),
            group_rows,
            FaultInjector::disabled(),
        );
        let mgr = Arc::new(TransactionManager::new());
        let paged = DeltaMainTable::with_pager(schema(), Some(Arc::clone(&pager)));
        let paged = DualFormatTable::with_columns(paged).unwrap();
        let resident = DualFormatTable::new(schema()).unwrap();
        for t in [&paged, &resident] {
            let tx = mgr.begin();
            for i in 0..n {
                t.insert(&tx, row![i, "eu", (i * 7919) % 60_000]).unwrap();
            }
            tx.commit().unwrap();
            maintain(&mgr, t);
            // Rows in two groups stamped deleted in the segment, one of
            // them with its new version in the delta.
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

        let (segments, _) = (paged.columns)
            .fused_scan_parts(&[], &ScanPredicate::all(), mgr.now(), NOBODY, 1000)
            .unwrap();
        let groups: usize = segments.iter().map(|s| s.group_count()).sum();
        assert_eq!(groups, n as usize / group_rows);
        let amount_bytes: usize = segments
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
