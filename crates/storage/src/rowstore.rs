//! The row store: a concurrent skip-list primary-key index over MVCC
//! version chains.
//!
//! This is the OLTP-facing store of the engine, modeled on MemSQL's
//! lock-free skip-list row store (paper §3, \[26\]): point inserts, lookups,
//! updates, and deletes are index traversals plus version-chain operations
//! — no latching of unrelated keys, readers never block.

use crate::predicate::ScanPredicate;
use crate::skiplist::SkipList;
use oltap_common::ids::TxnId;
use oltap_common::schema::SchemaRef;
use oltap_common::{Batch, ColumnVector, DataType, DbError, Result, Row, Value};
use oltap_txn::{Transaction, Ts, VersionChain};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A row store table.
pub struct RowStore {
    schema: SchemaRef,
    index: SkipList<Row, Arc<VersionChain<Row>>>,
    /// Sequence for tables without a declared primary key (each row gets a
    /// hidden, monotonically increasing key; point DML is then unsupported).
    hidden_seq: AtomicU64,
    /// Keys walked by scans of this store since it was built: what a delta
    /// has cost the statements that read it, the break-even merge trigger's
    /// input ([`crate::DeltaMainTable`]).
    visits: AtomicU64,
}

impl std::fmt::Debug for RowStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RowStore")
            .field("keys", &self.index.len())
            .finish()
    }
}

impl RowStore {
    /// Creates an empty row store for `schema`.
    pub fn new(schema: SchemaRef) -> Self {
        RowStore {
            schema,
            index: SkipList::new(),
            hidden_seq: AtomicU64::new(0),
            visits: AtomicU64::new(0),
        }
    }

    /// The table schema.
    pub fn schema(&self) -> &SchemaRef {
        &self.schema
    }

    /// Number of distinct keys ever inserted (includes logically deleted).
    pub fn key_count(&self) -> usize {
        self.index.len()
    }

    /// Keys the scans of this store have walked since it was built or last
    /// reset (a merge resets it).
    pub fn visits(&self) -> u64 {
        self.visits.load(Ordering::Relaxed)
    }

    /// Starts the visit count over (a merge has just paid for them).
    pub(crate) fn reset_visits(&self) {
        self.visits.store(0, Ordering::Relaxed);
    }

    /// The index key `row` is inserted under: its primary key, or the next
    /// hidden key of a table without one.
    pub(crate) fn key_for_insert(&self, row: &Row) -> Row {
        if self.schema.has_primary_key() {
            self.schema.key_of(row)
        } else {
            Row::new(vec![Value::Int(
                self.hidden_seq.fetch_add(1, Ordering::Relaxed) as i64,
            )])
        }
    }

    fn require_pk(&self) -> Result<()> {
        if self.schema.has_primary_key() {
            Ok(())
        } else {
            Err(DbError::Unsupported(
                "point operation on table without primary key".into(),
            ))
        }
    }

    /// Inserts `row` under `txn`. Duplicate-key and write-conflict errors
    /// propagate from the version chain.
    pub fn insert(&self, txn: &Transaction, row: Row) -> Result<()> {
        self.schema.check_row(&row)?;
        let key = self.key_for_insert(&row);
        self.insert_keyed(txn, key, row)
    }

    /// [`insert`](Self::insert) of a row the caller has checked against
    /// the schema, under the `key` [`key_for_insert`](Self::key_for_insert)
    /// gave it: at most one search of the index (none for a key above every
    /// present one), and a chain made only for a new key.
    pub(crate) fn insert_keyed(&self, txn: &Transaction, key: Row, row: Row) -> Result<()> {
        let chain = self
            .index
            .get_or_insert_with(key, || Arc::new(VersionChain::new()));
        chain.insert(row, txn.id(), txn.begin_ts())?;
        txn.enlist(chain.clone())?;
        Ok(())
    }

    /// Point lookup at a snapshot.
    pub fn get(&self, key: &Row, read_ts: Ts, me: TxnId) -> Option<Row> {
        self.index
            .get(key)
            .and_then(|chain| chain.read(read_ts, me))
    }

    /// Updates the row at `key` to `row` under `txn`.
    pub fn update(&self, txn: &Transaction, key: &Row, row: Row) -> Result<()> {
        self.require_pk()?;
        self.schema.check_row(&row)?;
        if self.schema.key_of(&row) != *key {
            return Err(DbError::InvalidArgument(
                "update must not change the primary key".into(),
            ));
        }
        let chain = self
            .index
            .get(key)
            .ok_or_else(|| DbError::KeyNotFound(format!("{key}")))?;
        chain.update(row, txn.id(), txn.begin_ts())?;
        txn.enlist(chain.clone())?;
        Ok(())
    }

    /// Deletes the row at `key` under `txn`.
    pub fn delete(&self, txn: &Transaction, key: &Row) -> Result<()> {
        self.require_pk()?;
        let chain = self
            .index
            .get(key)
            .ok_or_else(|| DbError::KeyNotFound(format!("{key}")))?;
        chain.delete(txn.id(), txn.begin_ts())?;
        txn.enlist(chain.clone())?;
        Ok(())
    }

    /// Iterates the visible rows at a snapshot, in key order, optionally
    /// starting at `start_key`.
    pub fn scan_rows<'a>(
        &'a self,
        read_ts: Ts,
        me: TxnId,
        start_key: Option<&Row>,
    ) -> impl Iterator<Item = Row> + 'a {
        self.index
            .iter_from(start_key)
            .filter_map(move |(_, chain)| chain.read(read_ts, me))
    }

    /// Full scan into batches of at most `batch_size` rows, in key order,
    /// with the pushdown applied row-wise.
    pub fn scan(
        &self,
        projection: &[usize],
        pred: &ScanPredicate,
        read_ts: Ts,
        me: TxnId,
        batch_size: usize,
    ) -> Result<Vec<Batch>> {
        pred.validate(&self.schema)?;
        self.scan_validated(projection, pred, read_ts, me, batch_size)
    }

    /// [`scan`](Self::scan) for a table that has already validated `pred`
    /// against this schema (the delta of a [`crate::DeltaMainTable`]).
    ///
    /// Projection-first: each visible version is borrowed in place under
    /// its chain's lock, the pushdown reads the borrowed row, and only the
    /// projected values of a matching row are copied — straight into the
    /// batch's column vectors. No `Row` is built on the way.
    pub(crate) fn scan_validated(
        &self,
        projection: &[usize],
        pred: &ScanPredicate,
        read_ts: Ts,
        me: TxnId,
        batch_size: usize,
    ) -> Result<Vec<Batch>> {
        let types: Vec<DataType> = projection
            .iter()
            .map(|&c| self.schema.field(c).data_type)
            .collect();
        let capacity = self.key_count().min(batch_size);
        let fresh = || -> Vec<ColumnVector> {
            types
                .iter()
                .map(|&t| ColumnVector::with_capacity(t, capacity))
                .collect()
        };
        let mut out = Vec::new();
        let mut columns = fresh();
        // Counted apart from the columns: an empty projection has none.
        let mut rows = 0usize;
        let mut walked = 0;
        for (_, chain) in self.index.iter() {
            walked += 1;
            let pushed = chain.with_visible(read_ts, me, |row| -> Result<bool> {
                if !pred.matches_row(row) {
                    return Ok(false);
                }
                for (column, &c) in columns.iter_mut().zip(projection) {
                    column.push(&row[c])?;
                }
                Ok(true)
            });
            if pushed.transpose()? == Some(true) {
                rows += 1;
                if rows >= batch_size {
                    out.push(Batch::new(std::mem::replace(&mut columns, fresh()))?);
                    rows = 0;
                }
            }
        }
        if rows > 0 {
            out.push(Batch::new(columns)?);
        }
        self.visits.fetch_add(walked, Ordering::Relaxed);
        Ok(out)
    }

    /// Counts visible rows at a snapshot (O(n)).
    pub fn count_visible(&self, read_ts: Ts, me: TxnId) -> usize {
        self.index
            .iter()
            .filter(|(_, chain)| chain.exists_for(read_ts, me))
            .count()
    }

    /// Runs MVCC garbage collection on every chain; returns pruned
    /// version count.
    pub fn gc(&self, watermark: Ts) -> usize {
        self.index.iter().map(|(_, chain)| chain.gc(watermark)).sum()
    }

    /// Merge hook: ends (at `watermark`) and takes every row whose latest
    /// version committed at or before `watermark` and is not being
    /// rewritten by an in-flight transaction, and hands back beside them the
    /// store rebuilt without the chains that leaves dead to every snapshot
    /// at or after `watermark` (the skip list is insert-only, so merged keys
    /// would otherwise accumulate and slow down delta scans forever). One
    /// walk does both, and a taken version is pruned with its chain's dead
    /// ones, so its row is moved out, not copied
    /// (`VersionChain::drain_latest_committed`).
    ///
    /// The caller must re-publish the returned rows in a main-store segment
    /// with `visible_from = watermark` and put the rebuilt store in this
    /// one's place (see [`crate::delta`]); the table-level lock makes the
    /// three atomic with respect to readers. Chains that live on are moved
    /// by `Arc`, so transactions holding write-set references keep
    /// operating on the same objects.
    pub fn drain_committed(&self, watermark: Ts) -> (Vec<Row>, RowStore) {
        let fresh = RowStore::new(Arc::clone(&self.schema));
        let mut drained = Vec::new();
        for (key, chain) in self.index.iter() {
            let (row, left) = chain.drain_latest_committed(watermark);
            drained.extend(row);
            if left > 0 {
                let _ = fresh.index.insert(key.clone(), Arc::clone(chain));
            }
        }
        // Hidden-key sequences must keep ascending across rebuilds.
        fresh
            .hidden_seq
            .store(self.hidden_seq.load(Ordering::SeqCst), Ordering::SeqCst);
        (drained, fresh)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oltap_common::row;
    use oltap_common::{DataType, Field, Schema};
    use oltap_txn::TransactionManager;

    fn store() -> (Arc<TransactionManager>, RowStore) {
        let schema = Arc::new(
            Schema::with_primary_key(
                vec![
                    Field::not_null("id", DataType::Int64),
                    Field::new("name", DataType::Utf8),
                    Field::new("qty", DataType::Int64),
                ],
                &["id"],
            )
            .unwrap(),
        );
        (Arc::new(TransactionManager::new()), RowStore::new(schema))
    }

    const NOBODY: TxnId = TxnId(u64::MAX - 1);

    #[test]
    fn insert_commit_read() {
        let (mgr, rs) = store();
        let t = mgr.begin();
        rs.insert(&t, row![1i64, "ada", 10i64]).unwrap();
        rs.insert(&t, row![2i64, "bob", 20i64]).unwrap();
        let cts = t.commit().unwrap();
        assert_eq!(
            rs.get(&row![1i64], cts, NOBODY).unwrap(),
            row![1i64, "ada", 10i64]
        );
        assert_eq!(rs.count_visible(cts, NOBODY), 2);
    }

    #[test]
    fn duplicate_pk_rejected() {
        let (mgr, rs) = store();
        let t = mgr.begin();
        rs.insert(&t, row![1i64, "ada", 10i64]).unwrap();
        t.commit().unwrap();
        let t2 = mgr.begin();
        assert!(matches!(
            rs.insert(&t2, row![1i64, "eve", 5i64]),
            Err(DbError::DuplicateKey(_))
        ));
    }

    #[test]
    fn update_delete_roundtrip() {
        let (mgr, rs) = store();
        let t = mgr.begin();
        rs.insert(&t, row![1i64, "ada", 10i64]).unwrap();
        t.commit().unwrap();

        let t2 = mgr.begin();
        rs.update(&t2, &row![1i64], row![1i64, "ada", 99i64]).unwrap();
        let cts2 = t2.commit().unwrap();
        assert_eq!(
            rs.get(&row![1i64], cts2, NOBODY).unwrap()[2],
            Value::Int(99)
        );

        let t3 = mgr.begin();
        rs.delete(&t3, &row![1i64]).unwrap();
        let cts3 = t3.commit().unwrap();
        assert!(rs.get(&row![1i64], cts3, NOBODY).is_none());
        // Older snapshot still sees it.
        assert!(rs.get(&row![1i64], cts2, NOBODY).is_some());
    }

    #[test]
    fn pk_change_rejected() {
        let (mgr, rs) = store();
        let t = mgr.begin();
        rs.insert(&t, row![1i64, "ada", 10i64]).unwrap();
        t.commit().unwrap();
        let t2 = mgr.begin();
        assert!(rs
            .update(&t2, &row![1i64], row![2i64, "ada", 10i64])
            .is_err());
    }

    #[test]
    fn write_conflict_between_txns() {
        let (mgr, rs) = store();
        let t = mgr.begin();
        rs.insert(&t, row![1i64, "ada", 10i64]).unwrap();
        t.commit().unwrap();

        let t1 = mgr.begin();
        let t2 = mgr.begin();
        rs.update(&t1, &row![1i64], row![1i64, "ada", 11i64]).unwrap();
        assert!(matches!(
            rs.update(&t2, &row![1i64], row![1i64, "ada", 12i64]),
            Err(DbError::WriteConflict(_))
        ));
        t1.commit().unwrap();
    }

    #[test]
    fn abort_via_drop_leaves_no_trace() {
        let (mgr, rs) = store();
        {
            let t = mgr.begin();
            rs.insert(&t, row![1i64, "ada", 10i64]).unwrap();
        }
        assert_eq!(rs.count_visible(mgr.now(), NOBODY), 0);
        // Key can be reused after the implicit abort.
        let t = mgr.begin();
        rs.insert(&t, row![1i64, "eve", 1i64]).unwrap();
        let cts = t.commit().unwrap();
        assert_eq!(
            rs.get(&row![1i64], cts, NOBODY).unwrap()[1],
            Value::Str("eve".into())
        );
    }

    #[test]
    fn scan_is_key_ordered_and_snapshot_consistent() {
        let (mgr, rs) = store();
        let t = mgr.begin();
        for i in (0..50).rev() {
            rs.insert(&t, row![i as i64, "x", i as i64]).unwrap();
        }
        let cts = t.commit().unwrap();

        // A writer modifies concurrently; the old snapshot is unaffected.
        let t2 = mgr.begin();
        rs.update(&t2, &row![0i64], row![0i64, "x", 999i64]).unwrap();

        let rows: Vec<Row> = rs.scan_rows(cts, NOBODY, None).collect();
        assert_eq!(rows.len(), 50);
        assert!(rows.windows(2).all(|w| w[0][0] < w[1][0]));
        assert_eq!(rows[0][2], Value::Int(0));
        t2.commit().unwrap();
    }

    #[test]
    fn scan_batches_with_predicate() {
        let (mgr, rs) = store();
        let t = mgr.begin();
        for i in 0..100 {
            rs.insert(&t, row![i as i64, "x", (i % 10) as i64]).unwrap();
        }
        let cts = t.commit().unwrap();
        let pred = ScanPredicate::single(2, crate::predicate::CmpOp::Eq, Value::Int(3));
        let batches = rs.scan(&[0, 2], &pred, cts, NOBODY, 7).unwrap();
        let total: usize = batches.iter().map(|b| b.len()).sum();
        assert_eq!(total, 10);
        assert!(batches.iter().all(|b| b.len() <= 7));
        assert!(batches[0].row(0)[1] == Value::Int(3));
    }

    /// The body `scan` had before it went projection-first — owned rows out
    /// of `scan_rows`, filtered, projected, `Batch::from_rows` a bufferful at
    /// a time — kept as the model the new body is held to.
    fn scan_by_rows(
        rs: &RowStore,
        projection: &[usize],
        pred: &ScanPredicate,
        read_ts: Ts,
        me: TxnId,
        batch_size: usize,
    ) -> Result<Vec<Batch>> {
        let proj_schema = rs.schema.project(projection);
        let mut out = Vec::new();
        let mut buf: Vec<Row> = Vec::new();
        for row in rs.scan_rows(read_ts, me, None) {
            if pred.matches_row(&row) {
                buf.push(row.project(projection));
                if buf.len() >= batch_size {
                    out.push(Batch::from_rows(&proj_schema, &buf)?);
                    buf.clear();
                }
            }
        }
        if !buf.is_empty() {
            out.push(Batch::from_rows(&proj_schema, &buf)?);
        }
        Ok(out)
    }

    /// Random inserts, updates, deletes, commits and aborts by up to three
    /// open transactions; at random moments every kind of reader — an
    /// outsider at a random past timestamp, and each open transaction with
    /// its own pending writes and pending deletes — scans through the new
    /// body and through the model: the same rows in the same key order, cut
    /// at the same batch boundaries, NULLs, strings and an empty projection
    /// (`COUNT(*)`) included.
    #[test]
    fn scan_matches_the_row_at_a_time_model() {
        use crate::predicate::CmpOp;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let schema = Arc::new(
            Schema::with_primary_key(
                vec![
                    Field::not_null("id", DataType::Int64),
                    Field::new("name", DataType::Utf8),
                    Field::new("qty", DataType::Int64),
                    Field::new("price", DataType::Float64),
                ],
                &["id"],
            )
            .unwrap(),
        );
        let projections: [&[usize]; 4] = [&[], &[0, 1, 2, 3], &[3, 1], &[2]];
        let preds = [
            ScanPredicate::all(),
            ScanPredicate::single(2, CmpOp::Ge, Value::Int(5)),
            ScanPredicate::single(3, CmpOp::Lt, Value::Float(7.5))
                .and(1, CmpOp::Eq, Value::Str("n3".into())),
        ];
        // Scans in which a transaction's own view differed from an
        // outsider's at the same timestamp: the test must have seen some.
        let mut own_views = 0usize;
        for seed in 0..6u64 {
            let mut rng = StdRng::seed_from_u64(0xD317A ^ seed);
            let mgr = Arc::new(TransactionManager::new());
            let rs = RowStore::new(Arc::clone(&schema));
            let mut open: Vec<Transaction> = Vec::new();
            for step in 0..600 {
                if open.len() < 3 && (open.is_empty() || rng.gen_range(0..4) == 0) {
                    open.push(mgr.begin());
                }
                let who = rng.gen_range(0..open.len());
                let key = rng.gen_range(0..40i64);
                // One value in five is NULL.
                let mut pick = |of: fn(i64) -> Value| match rng.gen_range(0..5) {
                    0 => Value::Null,
                    _ => of(rng.gen_range(0..60)),
                };
                let row = Row::new(vec![
                    Value::Int(key),
                    pick(|n| Value::Str(format!("n{}", n % 6))),
                    pick(|n| Value::Int(n % 10)),
                    pick(|n| Value::Float(n as f64 * 0.25)),
                ]);
                // A refused write (duplicate, conflict, missing key) changes
                // nothing, which is as good a step as any.
                match rng.gen_range(0..10) {
                    0..=3 => drop(rs.insert(&open[who], row)),
                    4..=5 => drop(rs.update(&open[who], &row![key], row)),
                    6..=7 => drop(rs.delete(&open[who], &row![key])),
                    8 => drop(open.swap_remove(who).commit()),
                    _ => drop(open.swap_remove(who).abort()),
                }
                if step % 7 != 0 {
                    continue;
                }
                let mut readers = vec![(rng.gen_range(0..=mgr.now()), NOBODY)];
                readers.extend(open.iter().map(|t| (t.begin_ts(), t.id())));
                for &(read_ts, me) in &readers {
                    let seen = |me| rs.scan_rows(read_ts, me, None).collect::<Vec<_>>();
                    own_views += usize::from(me != NOBODY && seen(me) != seen(NOBODY));
                    for projection in projections {
                        for pred in &preds {
                            for batch_size in [1, 3, 4096] {
                                let got = rs.scan(projection, pred, read_ts, me, batch_size);
                                let want =
                                    scan_by_rows(&rs, projection, pred, read_ts, me, batch_size);
                                assert_eq!(
                                    got.unwrap(),
                                    want.unwrap(),
                                    "seed {seed} step {step} reader ({read_ts}, {me:?}) \
                                     projection {projection:?} batch_size {batch_size} {pred:?}"
                                );
                            }
                        }
                    }
                }
            }
        }
        assert!(own_views > 50, "own pending writes seen {own_views} times");
    }

    /// A stored value of the wrong type for its column (which `insert`
    /// refuses, so the chain is planted) is the scan's typed error, whatever
    /// batch it would have fallen in — not a batch one row short.
    #[test]
    fn scan_reports_a_mistyped_value() {
        let (mgr, rs) = store();
        let t = mgr.begin();
        for i in 0..5 {
            rs.insert(&t, row![i as i64, "x", i as i64]).unwrap();
        }
        let cts = t.commit().unwrap();
        let planted = VersionChain::with_committed(row![9i64, "x", "not a quantity"], 0);
        assert!(rs.index.insert(row![9i64], Arc::new(planted)).is_ok());
        for batch_size in [1, 4, 4096] {
            for scanned in [
                rs.scan(&[0, 2], &ScanPredicate::all(), cts, NOBODY, batch_size),
                scan_by_rows(&rs, &[0, 2], &ScanPredicate::all(), cts, NOBODY, batch_size),
            ] {
                assert!(
                    matches!(scanned, Err(DbError::TypeMismatch { .. })),
                    "batch_size {batch_size}: {scanned:?}"
                );
            }
            // The column is not projected: nothing reads the value.
            let unread = rs.scan(&[0, 1], &ScanPredicate::all(), cts, NOBODY, batch_size);
            assert_eq!(unread.unwrap().iter().map(Batch::len).sum::<usize>(), 6);
        }
    }

    #[test]
    fn hidden_key_table_supports_insert_and_scan_only() {
        let schema = Arc::new(Schema::new(vec![Field::new("v", DataType::Int64)]));
        let rs = RowStore::new(schema);
        let mgr = Arc::new(TransactionManager::new());
        let t = mgr.begin();
        rs.insert(&t, row![7i64]).unwrap();
        rs.insert(&t, row![7i64]).unwrap(); // duplicates fine
        let cts = t.commit().unwrap();
        assert_eq!(rs.count_visible(cts, NOBODY), 2);
        let t2 = mgr.begin();
        assert!(matches!(
            rs.delete(&t2, &row![0i64]),
            Err(DbError::Unsupported(_))
        ));
    }

    #[test]
    fn gc_reduces_version_counts() {
        let (mgr, rs) = store();
        let t = mgr.begin();
        rs.insert(&t, row![1i64, "a", 0i64]).unwrap();
        t.commit().unwrap();
        for i in 0..10 {
            let t = mgr.begin();
            rs.update(&t, &row![1i64], row![1i64, "a", i as i64]).unwrap();
            t.commit().unwrap();
        }
        let pruned = rs.gc(mgr.gc_watermark());
        assert!(pruned >= 9, "pruned {pruned}");
        assert!(rs.get(&row![1i64], mgr.now(), NOBODY).is_some());
    }

    /// Writers re-stamp chains (update + commit: the old version's end and
    /// the new version's begin, under the chain's write lock) while a reader
    /// scans at the clock's current time. `with_visible` hands the closure a
    /// whole version or nothing, so every scan finds every key exactly once —
    /// a chain caught between its two stamps would show no version or two —
    /// with a row whose columns were written together, and a later scan
    /// never finds an older one.
    #[test]
    fn scan_under_concurrent_writers_sees_whole_versions() {
        const KEYS_PER_WRITER: i64 = 25;
        const WRITERS: i64 = 3;
        let (mgr, rs) = store();
        let t = mgr.begin();
        for id in 0..WRITERS * KEYS_PER_WRITER {
            rs.insert(&t, row![id, "v0", 0i64]).unwrap();
        }
        t.commit().unwrap();
        let rs = Arc::new(rs);
        let start = Arc::new(std::sync::Barrier::new(WRITERS as usize + 1));
        let writers: Vec<_> = (0..WRITERS)
            .map(|w| {
                let (mgr, rs, start) = (Arc::clone(&mgr), Arc::clone(&rs), Arc::clone(&start));
                std::thread::spawn(move || {
                    start.wait();
                    for n in 1..=400i64 {
                        let id = w * KEYS_PER_WRITER + n % KEYS_PER_WRITER;
                        let t = mgr.begin();
                        rs.update(&t, &row![id], row![id, format!("v{n}"), n])
                            .unwrap();
                        t.commit().unwrap();
                    }
                })
            })
            .collect();
        start.wait();
        let mut newest = vec![0i64; (WRITERS * KEYS_PER_WRITER) as usize];
        while !writers.iter().all(|w| w.is_finished()) {
            let batches = rs
                .scan(&[0, 1, 2], &ScanPredicate::all(), mgr.now(), NOBODY, 4096)
                .unwrap();
            let rows: Vec<Row> = batches.iter().flat_map(Batch::to_rows).collect();
            let ids: Vec<i64> = rows.iter().map(|r| r[0].as_int().unwrap()).collect();
            assert_eq!(ids, (0..WRITERS * KEYS_PER_WRITER).collect::<Vec<_>>());
            for (row, newest) in rows.iter().zip(&mut newest) {
                let n = row[2].as_int().unwrap();
                assert_eq!(row[1], Value::Str(format!("v{n}")), "torn row {row}");
                assert!(n >= *newest, "{row} after version {newest}");
                *newest = n;
            }
        }
        for w in writers {
            w.join().unwrap();
        }
    }

    #[test]
    fn concurrent_inserts_across_threads() {
        let (mgr, rs) = store();
        let rs = Arc::new(rs);
        let handles: Vec<_> = (0..4)
            .map(|tid| {
                let mgr = Arc::clone(&mgr);
                let rs = Arc::clone(&rs);
                std::thread::spawn(move || {
                    for i in 0..500 {
                        let t = mgr.begin();
                        let id = (tid * 1000 + i) as i64;
                        rs.insert(&t, row![id, "w", 1i64]).unwrap();
                        t.commit().unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(rs.count_visible(mgr.now(), NOBODY), 2000);
    }
}
