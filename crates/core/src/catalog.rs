//! The table catalog and the table handle.
//!
//! A table is one type with two optional sides: a skip-list row store and
//! a columnar side (delta + compressed columnar main with background
//! merge). The tutorial's three physical designs (§1) are which sides a
//! table has:
//!
//! * [`TableFormat::Row`] — the row side alone (MemSQL-style OLTP).
//! * [`TableFormat::Column`] — the columnar side alone (HANA/BLU-style
//!   operational analytics). The default.
//! * [`TableFormat::Dual`] — both (Oracle DBIM-style): the row side is the
//!   system of record, the columnar side a transactionally consistent copy.
//!
//! Every operation follows one rule. A write goes to each side the table
//! has, the row side first: its error is the statement's, and both sides
//! apply first-committer-wins to the same history, so the columnar write
//! cannot fail where the row write succeeded. A point read and the row
//! count use the row side if there is one; a scan uses the columnar side if
//! there is one. Maintenance garbage-collects the row side and runs the
//! columnar side's full pass. [`TableHandle::columns`] is the one columnar
//! mechanism: scans, maintenance, the merge trigger, the freeze pass, heat
//! and the fused aggregate all go through it.
//!
//! An insert refused because a newer version of its key exists takes the
//! row side's kind when the table has a row side: `DuplicateKey` where that
//! version is live, `WriteConflict` where it is a delete after the snapshot
//! or another transaction's pending write. A column table checks its merged
//! rows first, so a merged row deleted after the snapshot is a
//! `WriteConflict` even where the key has been inserted again since.

use oltap_common::fault::FaultInjector;
use oltap_common::hash::FxHashMap;
use oltap_common::ids::TxnId;
use oltap_common::schema::SchemaRef;
use oltap_common::{Batch, DbError, Result, Row};
use oltap_exec::{Helpers, Source};
use oltap_sql::CatalogView;
use oltap_storage::{
    DeltaMainTable, FreezeStats, HeatStats, MergeBell, RowStore, ScanPredicate, SegmentPager,
};
use oltap_txn::{Transaction, Ts};
use std::sync::Arc;

/// The physical format of a table: which sides it has.
pub use oltap_sql::ast::FormatOpt as TableFormat;

/// A handle to one table: a row side, a columnar side, or both — never
/// neither ([`create_with`](Self::create_with) is the only way to make one).
#[derive(Clone, Debug)]
pub struct TableHandle {
    rows: Option<Arc<RowStore>>,
    columns: Option<Arc<DeltaMainTable>>,
}

impl TableHandle {
    /// Creates an empty table of the requested format.
    pub fn create(schema: SchemaRef, format: TableFormat) -> Result<TableHandle> {
        Self::create_with(schema, format, None, None)
    }

    /// Creates an empty table; when `pager` is set, the columnar side's
    /// segments are paged through its buffer pool. A row side ignores the
    /// pager — it is the OLTP working set. The columnar side rings `bell`
    /// when its delta becomes worth merging. A table with both sides needs
    /// a primary key: both identify rows by key.
    pub fn create_with(
        schema: SchemaRef,
        format: TableFormat,
        pager: Option<Arc<SegmentPager>>,
        bell: Option<Arc<MergeBell>>,
    ) -> Result<TableHandle> {
        if format == TableFormat::Dual && !schema.has_primary_key() {
            return Err(DbError::InvalidArgument(
                "dual-format tables require a primary key".into(),
            ));
        }
        let rows = (format != TableFormat::Column)
            .then(|| Arc::new(RowStore::new(Arc::clone(&schema))));
        let columns = (format != TableFormat::Row).then(|| {
            let columns = DeltaMainTable::with_pager(schema, pager);
            Arc::new(match bell {
                Some(bell) => columns.with_bell(bell),
                None => columns,
            })
        });
        Ok(TableHandle { rows, columns })
    }

    /// The table's row side: `None` for a column table.
    pub fn rows(&self) -> Option<&Arc<RowStore>> {
        self.rows.as_ref()
    }

    /// The table's columnar side: `None` for a row table.
    pub fn columns(&self) -> Option<&Arc<DeltaMainTable>> {
        self.columns.as_ref()
    }

    /// The side a table without the other one has.
    fn only_rows(&self) -> &RowStore {
        self.rows.as_deref().expect("a table without a columnar side has a row side")
    }

    fn only_columns(&self) -> &DeltaMainTable {
        self.columns.as_deref().expect("a table without a row side has a columnar side")
    }

    /// The table's format, from the sides it has.
    pub fn format(&self) -> TableFormat {
        if self.columns.is_none() {
            TableFormat::Row
        } else if self.rows.is_none() {
            TableFormat::Column
        } else {
            TableFormat::Dual
        }
    }

    /// The schema.
    pub fn schema(&self) -> &SchemaRef {
        if let Some(rows) = &self.rows {
            return rows.schema();
        }
        self.only_columns().schema()
    }

    /// Transactional insert.
    pub fn insert(&self, txn: &Transaction, row: Row) -> Result<()> {
        self.write(row, |t, row| t.insert(txn, row), |t, row| t.insert(txn, row))
    }

    /// Transactional update by primary key (full row image).
    pub fn update(&self, txn: &Transaction, key: &Row, row: Row) -> Result<()> {
        self.write(row, |t, row| t.update(txn, key, row), |t, row| t.update(txn, key, row))
    }

    /// Transactional delete by primary key.
    pub fn delete(&self, txn: &Transaction, key: &Row) -> Result<()> {
        if let Some(rows) = &self.rows {
            rows.delete(txn, key)?;
        }
        if let Some(columns) = &self.columns {
            columns.delete(txn, key)?;
        }
        Ok(())
    }

    /// Writes `row` to each side, the row side first; the row is cloned
    /// only when both sides take it.
    fn write(
        &self,
        row: Row,
        to_rows: impl FnOnce(&RowStore, Row) -> Result<()>,
        to_columns: impl FnOnce(&DeltaMainTable, Row) -> Result<()>,
    ) -> Result<()> {
        if let Some(rows) = &self.rows {
            if self.columns.is_none() {
                return to_rows(rows, row);
            }
            to_rows(rows, row.clone())?;
        }
        to_columns(self.only_columns(), row)
    }

    /// Point lookup at a snapshot. Fallible: a paged columnar side may
    /// need to fault the row's pages in.
    pub fn get(&self, key: &Row, read_ts: Ts, me: TxnId) -> Result<Option<Row>> {
        if let Some(rows) = &self.rows {
            return Ok(rows.get(key, read_ts, me));
        }
        self.only_columns().get(key, read_ts, me)
    }

    /// Snapshot scan with predicate pushdown: [`source`](Self::source)
    /// drained on the caller's thread.
    pub fn scan(
        &self,
        projection: &[usize],
        pred: &ScanPredicate,
        read_ts: Ts,
        me: TxnId,
        batch_size: usize,
    ) -> Result<Vec<Batch>> {
        self.source(projection, pred, read_ts, me, batch_size)?.drain()
    }

    /// The morsels of a snapshot scan with predicate pushdown: the columnar
    /// side's segments and then its delta's rows, or the row side's rows
    /// when there is no columnar side. Tail rows come in batches of at most
    /// `batch_size`.
    pub fn source(
        &self,
        projection: &[usize],
        pred: &ScanPredicate,
        read_ts: Ts,
        me: TxnId,
        batch_size: usize,
    ) -> Result<Source> {
        let (segments, tail) = match &self.columns {
            Some(columns) => columns.fused_scan_parts(projection, pred, read_ts, me, batch_size)?,
            None => (Vec::new(), self.only_rows().scan(projection, pred, read_ts, me, batch_size)?),
        };
        Ok(Source::scan(segments, tail, pred, projection, (read_ts, me)))
    }

    /// Estimated visible rows (planning / diagnostics).
    pub fn row_count_estimate(&self) -> usize {
        if let Some(rows) = &self.rows {
            return rows.key_count();
        }
        self.only_columns().row_count_estimate()
    }

    /// Maintenance at `watermark`: the columnar side's full pass, row-side
    /// GC. Returns a human-readable note.
    pub fn maintain(&self, watermark: Ts) -> Result<String> {
        self.maintain_full(watermark, &FaultInjector::disabled())
    }

    /// Maintenance with the database's fault injector threaded through, so
    /// chaos points inside the background passes fire. A columnar side
    /// runs merge → coalesce → freeze → gc ([`DeltaMainTable::maintain`])
    /// every tick — which is also what re-evaluates segments an earlier
    /// pass skipped for in-flight deletes once those deletes commit and
    /// the GC watermark passes them.
    pub fn maintain_full(&self, watermark: Ts, faults: &FaultInjector) -> Result<String> {
        let mut notes = Vec::new();
        if let Some(columns) = &self.columns {
            notes.push(columns.maintain(watermark, faults)?);
        }
        if let Some(rows) = &self.rows {
            let side = if self.columns.is_some() { "row store " } else { "" };
            notes.push(format!("{side}gc pruned {} versions", rows.gc(watermark)));
        }
        Ok(notes.join("; "))
    }

    /// Runs the cold-segment freeze pass over the columnar side (`None`
    /// for a row table). `force` ignores heat.
    pub fn freeze(
        &self,
        watermark: Ts,
        faults: &FaultInjector,
        force: bool,
    ) -> Result<Option<FreezeStats>> {
        self.columns().map(|t| t.freeze(watermark, faults, force)).transpose()
    }

    /// Heat / freeze counters of the columnar side.
    pub fn heat_stats(&self) -> Option<HeatStats> {
        self.columns().map(|t| t.heat_stats())
    }

    /// Restores access heat persisted before a restart (a row table has no
    /// freeze pass and ignores the seed).
    pub fn seed_heat(&self, total: u64) {
        if let Some(t) = self.columns() {
            t.seed_heat(total);
        }
    }
}

/// The named-table registry.
#[derive(Default)]
pub struct Catalog {
    tables: FxHashMap<String, TableHandle>,
    /// Bumped by every change to the table set: a plan made at an older
    /// generation may name a table, a column ordinal or a type that no
    /// longer is.
    generation: u64,
    /// Who may claim the morsels of a statement over these tables beside
    /// its own thread: the owning database's pool, behind its OLTP-first
    /// gate (no one, for a catalog of its own).
    helpers: Helpers,
}

impl Catalog {
    /// Empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// The threads a statement over these tables may borrow.
    pub fn helpers(&self) -> &Helpers {
        &self.helpers
    }

    /// Lends the statements over these tables `helpers`.
    pub(crate) fn set_helpers(&mut self, helpers: Helpers) {
        self.helpers = helpers;
    }

    /// Registers a new table.
    pub fn create(&mut self, name: &str, handle: TableHandle) -> Result<()> {
        if self.tables.contains_key(name) {
            return Err(DbError::AlreadyExists(name.to_string()));
        }
        self.tables.insert(name.to_string(), handle);
        self.generation += 1;
        Ok(())
    }

    /// Removes a table.
    pub fn drop_table(&mut self, name: &str) -> Result<()> {
        self.tables
            .remove(name)
            .ok_or_else(|| DbError::TableNotFound(name.to_string()))?;
        self.generation += 1;
        Ok(())
    }

    /// The catalog's generation: it changes whenever a table is created or
    /// dropped.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Looks a table up.
    pub fn get(&self, name: &str) -> Result<TableHandle> {
        self.tables
            .get(name)
            .cloned()
            .ok_or_else(|| DbError::TableNotFound(name.to_string()))
    }

    /// All table names, sorted.
    pub fn table_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.tables.keys().cloned().collect();
        names.sort();
        names
    }

    /// All handles.
    pub fn handles(&self) -> impl Iterator<Item = (&String, &TableHandle)> {
        self.tables.iter()
    }
}

impl CatalogView for Catalog {
    fn table_schema(&self, name: &str) -> Result<SchemaRef> {
        Ok(Arc::clone(self.get(name)?.schema()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oltap_common::row;
    use oltap_common::{DataType, Field, Schema};
    use oltap_txn::TransactionManager;

    fn schema() -> SchemaRef {
        Arc::new(
            Schema::with_primary_key(
                vec![
                    Field::not_null("id", DataType::Int64),
                    Field::new("v", DataType::Int64),
                ],
                &["id"],
            )
            .unwrap(),
        )
    }

    #[test]
    fn catalog_crud() {
        let mut c = Catalog::new();
        c.create("t", TableHandle::create(schema(), TableFormat::Row).unwrap())
            .unwrap();
        assert!(c.get("t").is_ok());
        assert!(matches!(
            c.create("t", TableHandle::create(schema(), TableFormat::Row).unwrap()),
            Err(DbError::AlreadyExists(_))
        ));
        assert_eq!(c.table_names(), vec!["t"]);
        c.drop_table("t").unwrap();
        assert!(matches!(c.get("t"), Err(DbError::TableNotFound(_))));
        assert!(c.drop_table("t").is_err());
    }

    #[test]
    fn all_formats_share_the_same_api() {
        let mgr = Arc::new(TransactionManager::new());
        for format in [TableFormat::Row, TableFormat::Column, TableFormat::Dual] {
            let h = TableHandle::create(schema(), format).unwrap();
            assert_eq!(h.format(), format);
            let tx = mgr.begin();
            h.insert(&tx, row![1i64, 10i64]).unwrap();
            h.insert(&tx, row![2i64, 20i64]).unwrap();
            let cts = tx.commit().unwrap();

            let me = TxnId(u64::MAX - 9);
            assert_eq!(h.get(&row![1i64], cts, me).unwrap().unwrap()[1], row![10i64][0]);
            let total: usize = h
                .scan(&[0, 1], &ScanPredicate::all(), cts, me, 4096)
                .unwrap()
                .iter()
                .map(|b| b.len())
                .sum();
            assert_eq!(total, 2, "{format:?}");

            let tx = mgr.begin();
            h.update(&tx, &row![1i64], row![1i64, 99i64]).unwrap();
            h.delete(&tx, &row![2i64]).unwrap();
            let cts = tx.commit().unwrap();
            assert_eq!(h.get(&row![1i64], cts, me).unwrap().unwrap()[1], row![99i64][0]);
            assert!(h.get(&row![2i64], cts, me).unwrap().is_none());

            let note = h.maintain(mgr.gc_watermark()).unwrap();
            assert!(!note.is_empty());
            // Post-maintenance reads still correct.
            let total: usize = h
                .scan(&[0], &ScanPredicate::all(), mgr.now(), me, 4096)
                .unwrap()
                .iter()
                .map(|b| b.len())
                .sum();
            assert_eq!(total, 1, "{format:?} after maintenance");
        }
    }

    #[test]
    fn dual_requires_pk() {
        let keyless = Arc::new(Schema::new(vec![Field::new("v", DataType::Int64)]));
        assert!(TableHandle::create(keyless, TableFormat::Dual).is_err());
    }
}
