//! Unit tests of the dual format: a [`TableHandle`](crate::TableHandle)
//! with both sides, whose analytic scan reads the columnar side and whose
//! point reads the row side, both kept consistent by every statement
//! (Oracle Database In-Memory's architecture, the tutorial's §3).

#[cfg(test)]
mod tests {
    use crate::catalog::{TableFormat, TableHandle};
    use oltap_common::fault::FaultInjector;
    use oltap_common::ids::TxnId;
    use oltap_common::row;
    use oltap_common::schema::SchemaRef;
    use oltap_common::{DataType, Field, Row, Schema, Value};
    use oltap_storage::{BufferManager, CmpOp, ScanPredicate, SegmentPager};
    use oltap_txn::{TransactionManager, Ts};
    use std::sync::Arc;

    const NOBODY: TxnId = TxnId(u64::MAX - 1);

    /// A maintenance pass over the table at the manager's watermark, as
    /// the database runs it.
    fn maintain(mgr: &TransactionManager, t: &TableHandle) {
        t.maintain(mgr.gc_watermark()).unwrap();
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

    fn table() -> (Arc<TransactionManager>, TableHandle) {
        (
            Arc::new(TransactionManager::new()),
            TableHandle::create(schema(), TableFormat::Dual).unwrap(),
        )
    }

    /// The analytic scan's rows: the columnar side's segments, then its
    /// delta.
    fn scan(t: &TableHandle, cols: &[usize], pred: &ScanPredicate, ts: Ts, me: TxnId) -> Vec<Row> {
        let batches = t.scan(cols, pred, ts, me, 4096).unwrap();
        batches.iter().flat_map(|b| b.to_rows()).collect()
    }

    fn count(t: &TableHandle, read_ts: Ts) -> usize {
        scan(t, &[0], &ScanPredicate::all(), read_ts, NOBODY).len()
    }

    #[test]
    fn requires_primary_key() {
        let schema = Arc::new(Schema::new(vec![Field::new("x", DataType::Int64)]));
        assert!(TableHandle::create(schema, TableFormat::Dual).is_err());
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
        assert_eq!(t.columns().unwrap().sizes().segments, 0);
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
        assert_eq!(t.columns().unwrap().sizes().delta_rows, 100);
        maintain(&mgr, &t);
        let sizes = t.columns().unwrap().sizes();
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
        let rows = scan(&t, &[0, 2], &ScanPredicate::all(), cts, NOBODY);
        assert_eq!(rows.len(), 10);
        let updated: Vec<&Row> = rows.iter().filter(|r| r[0] == Value::Int(3)).collect();
        assert_eq!(updated.len(), 1);
        assert_eq!(updated[0][1], Value::Int(999));

        // Old snapshot: still the old value.
        let rows = scan(&t, &[0, 2], &ScanPredicate::all(), cts - 1, NOBODY);
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
        let rows = scan(&t, &[0], &ScanPredicate::all(), cts, NOBODY);
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
            let all = ScanPredicate::all();
            let mut rows: Vec<(Value, Value)> = scan(&t, &[0, 2], &all, read_ts, me)
                .into_iter()
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
        assert_eq!(scan(&t, &[0], &pred, cts, NOBODY).len(), 11); // 10 odd rows + updated row 0
    }

    /// A point read is the row side's: it finds a row the columnar side
    /// has not got.
    #[test]
    fn point_reads_always_row_store() {
        let (mgr, t) = table();
        let tx = mgr.begin();
        t.insert(&tx, row![1i64, "eu", 7i64]).unwrap();
        let cts = tx.commit().unwrap();
        assert_eq!(t.get(&row![1i64], cts, NOBODY).unwrap().unwrap()[2], Value::Int(7));
        assert!(t.get(&row![2i64], cts, NOBODY).unwrap().is_none());

        let tx = mgr.begin();
        t.rows().unwrap().insert(&tx, row![2i64, "eu", 8i64]).unwrap();
        let cts = tx.commit().unwrap();
        assert_eq!(t.get(&row![2i64], cts, NOBODY).unwrap().unwrap()[2], Value::Int(8));
        assert_eq!(t.columns().unwrap().get(&row![2i64], cts, NOBODY).unwrap(), None);
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
        assert_eq!(t.columns().unwrap().sizes().delta_rows, 50);
        maintain(&mgr, &t);
        let sizes = t.columns().unwrap().sizes();
        assert_eq!((sizes.delta_rows, sizes.main_rows - sizes.main_dead_rows), (0, 50));
        let pred = ScanPredicate::single(2, CmpOp::Eq, Value::Int(1));
        assert_eq!(scan(&t, &[0], &pred, mgr.now(), NOBODY).len(), 50);
    }

    /// The DUAL twin of `filtered_and_aggregated_column_faults_once_per_group`:
    /// a column the scan both filters and projects is faulted once per row
    /// group under a pool smaller than that column (a whole-segment
    /// selection followed by a gather faults it twice), rows updated or
    /// deleted after the merge are read once, and the answer is the
    /// resident table's.
    #[test]
    fn filtered_and_projected_column_faults_once_per_group() {
        let (pool_bytes, group_rows, n) = (4096, 256, 4096i64);
        let root = std::env::temp_dir().join(format!("oltap-dual-pages-{}", std::process::id()));
        let pager = SegmentPager::new(
            root,
            BufferManager::new(pool_bytes, None, FaultInjector::disabled()),
            group_rows,
            FaultInjector::disabled(),
        );
        let mgr = Arc::new(TransactionManager::new());
        let paged =
            TableHandle::create_with(schema(), TableFormat::Dual, Some(Arc::clone(&pager)), None)
                .unwrap();
        let resident = TableHandle::create(schema(), TableFormat::Dual).unwrap();
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
        let answer = |t: &TableHandle| -> Vec<Row> {
            let mut rows = t
                .scan(&[2, 0], &pred, mgr.now(), NOBODY, 1000)
                .unwrap()
                .iter()
                .flat_map(|b| b.to_rows())
                .collect::<Vec<Row>>();
            rows.sort();
            rows
        };
        let before = pager.buffer().stats().misses;
        let got = answer(&paged);
        let faulted = pager.buffer().stats().misses - before;
        assert_eq!(got.len(), n as usize - 1);
        assert_eq!(got, answer(&resident));

        let (segments, _) = paged
            .columns()
            .unwrap()
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
