//! The table catalog and the format-polymorphic table handle.
//!
//! A table lives in one of three physical designs — exactly the spectrum
//! the tutorial's §1 lays out:
//!
//! * [`TableFormat::Row`] — a pure skip-list row store (MemSQL-style
//!   OLTP).
//! * [`TableFormat::Column`] — delta + compressed columnar main with
//!   background merge (HANA/BLU-style operational analytics). The default.
//! * [`TableFormat::Dual`] — a row store beside a delta + main columnar
//!   side, both written by every statement (Oracle DBIM-style), with point
//!   reads routed to the row format and scans to the columnar side.
//!
//! Column and dual tables have one columnar mechanism between them,
//! [`TableHandle::columns`]: scans, maintenance, the merge trigger, the
//! freeze pass, heat and the fused aggregate all go through it.

use oltap_common::fault::FaultInjector;
use oltap_common::hash::FxHashMap;
use oltap_common::ids::TxnId;
use oltap_common::schema::SchemaRef;
use oltap_common::{Batch, DbError, Result, Row};
use oltap_exec::{Helpers, Source};
use oltap_sql::ast::FormatOpt;
use oltap_sql::CatalogView;
use oltap_storage::{
    DeltaMainTable, DualFormatTable, FreezeStats, HeatStats, MergeBell, RowStore, ScanPredicate,
    SegmentPager,
};
use oltap_txn::{Transaction, Ts};
use std::sync::Arc;

/// The physical format of a table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TableFormat {
    /// Skip-list row store.
    Row,
    /// Delta + columnar main.
    Column,
    /// Dual format (row store + delta + main columnar side).
    Dual,
}

impl From<FormatOpt> for TableFormat {
    fn from(f: FormatOpt) -> Self {
        match f {
            FormatOpt::Row => TableFormat::Row,
            FormatOpt::Column => TableFormat::Column,
            FormatOpt::Dual => TableFormat::Dual,
        }
    }
}

/// A handle to one table, dispatching over its physical format.
#[derive(Clone)]
pub enum TableHandle {
    /// Row store.
    Row(Arc<RowStore>),
    /// Delta + main.
    Column(Arc<DeltaMainTable>),
    /// Dual format.
    Dual(Arc<DualFormatTable>),
}

impl std::fmt::Debug for TableHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TableHandle::Row(_) => f.write_str("TableHandle::Row"),
            TableHandle::Column(_) => f.write_str("TableHandle::Column"),
            TableHandle::Dual(_) => f.write_str("TableHandle::Dual"),
        }
    }
}

impl TableHandle {
    /// Creates an empty table of the requested format.
    pub fn create(schema: SchemaRef, format: TableFormat) -> Result<TableHandle> {
        Self::create_with(schema, format, None, None)
    }

    /// Creates an empty table; when `pager` is set, columnar segments
    /// (of a column table and of a dual table's columnar side) are paged
    /// through its buffer pool. Row stores ignore the pager — they are the
    /// OLTP working set. A columnar side rings `bell` when its delta
    /// becomes worth merging.
    pub fn create_with(
        schema: SchemaRef,
        format: TableFormat,
        pager: Option<Arc<SegmentPager>>,
        bell: Option<Arc<MergeBell>>,
    ) -> Result<TableHandle> {
        if format == TableFormat::Row {
            return Ok(TableHandle::Row(Arc::new(RowStore::new(schema))));
        }
        let columns = DeltaMainTable::with_pager(schema, pager);
        let columns = match bell {
            Some(bell) => columns.with_bell(bell),
            None => columns,
        };
        Ok(match format {
            TableFormat::Dual => TableHandle::Dual(Arc::new(DualFormatTable::with_columns(columns)?)),
            _ => TableHandle::Column(Arc::new(columns)),
        })
    }

    /// The table's columnar side: a column table itself, a dual table's
    /// [`DualFormatTable::columns`]; `None` for a row table.
    pub fn columns(&self) -> Option<&Arc<DeltaMainTable>> {
        match self {
            TableHandle::Row(_) => None,
            TableHandle::Column(t) => Some(t),
            TableHandle::Dual(t) => Some(t.columns()),
        }
    }

    /// The table's format.
    pub fn format(&self) -> TableFormat {
        match self {
            TableHandle::Row(_) => TableFormat::Row,
            TableHandle::Column(_) => TableFormat::Column,
            TableHandle::Dual(_) => TableFormat::Dual,
        }
    }

    /// The schema.
    pub fn schema(&self) -> &SchemaRef {
        match self {
            TableHandle::Row(t) => t.schema(),
            TableHandle::Column(t) => t.schema(),
            TableHandle::Dual(t) => t.schema(),
        }
    }

    /// Transactional insert.
    pub fn insert(&self, txn: &Transaction, row: Row) -> Result<()> {
        match self {
            TableHandle::Row(t) => t.insert(txn, row),
            TableHandle::Column(t) => t.insert(txn, row),
            TableHandle::Dual(t) => t.insert(txn, row),
        }
    }

    /// Transactional update by primary key (full row image).
    pub fn update(&self, txn: &Transaction, key: &Row, row: Row) -> Result<()> {
        match self {
            TableHandle::Row(t) => t.update(txn, key, row),
            TableHandle::Column(t) => t.update(txn, key, row),
            TableHandle::Dual(t) => t.update(txn, key, row),
        }
    }

    /// Transactional delete by primary key.
    pub fn delete(&self, txn: &Transaction, key: &Row) -> Result<()> {
        match self {
            TableHandle::Row(t) => t.delete(txn, key),
            TableHandle::Column(t) => t.delete(txn, key),
            TableHandle::Dual(t) => t.delete(txn, key),
        }
    }

    /// Point lookup at a snapshot. Fallible: paged column stores may need
    /// to fault the row's pages in.
    pub fn get(&self, key: &Row, read_ts: Ts, me: TxnId) -> Result<Option<Row>> {
        match self {
            TableHandle::Row(t) => Ok(t.get(key, read_ts, me)),
            TableHandle::Column(t) => t.get(key, read_ts, me),
            TableHandle::Dual(t) => Ok(t.get(key, read_ts, me)),
        }
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

    /// The morsels of a snapshot scan with predicate pushdown, each format
    /// by its best analytic access path: the columnar side's segments and
    /// then its delta's rows, or a row table's rows. Tail rows come in
    /// batches of at most `batch_size`.
    pub fn source(
        &self,
        projection: &[usize],
        pred: &ScanPredicate,
        read_ts: Ts,
        me: TxnId,
        batch_size: usize,
    ) -> Result<Source> {
        let (segments, tail) = match self {
            TableHandle::Row(t) => (Vec::new(), t.scan(projection, pred, read_ts, me, batch_size)?),
            TableHandle::Column(t) => t.fused_scan_parts(projection, pred, read_ts, me, batch_size)?,
            TableHandle::Dual(t) => (t.columns()).fused_scan_parts(projection, pred, read_ts, me, batch_size)?,
        };
        Ok(Source::scan(segments, tail, pred, projection, (read_ts, me)))
    }

    /// Estimated visible rows (planning / diagnostics).
    pub fn row_count_estimate(&self) -> usize {
        match self {
            TableHandle::Row(t) => t.key_count(),
            TableHandle::Column(t) => t.row_count_estimate(),
            TableHandle::Dual(t) => t.row_count_estimate(),
        }
    }

    /// Format-appropriate maintenance at `watermark`: the columnar side's
    /// full pass (column, dual), row-store GC (row, dual). Returns a
    /// human-readable note.
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
        Ok(match self {
            TableHandle::Row(t) => format!("gc pruned {} versions", t.gc(watermark)),
            TableHandle::Column(t) => t.maintain(watermark, faults)?,
            TableHandle::Dual(t) => {
                let columns = t.columns().maintain(watermark, faults)?;
                format!("{columns}; row store gc pruned {} versions", t.gc(watermark))
            }
        })
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
