//! The `Database` facade: catalog + transactions + WAL + maintenance.

use crate::catalog::{Catalog, TableFormat, TableHandle};
use crate::prepared::PlanCache;
use crate::session::{QueryResult, Session};
use oltap_common::fault::{points, FaultInjector};
use oltap_common::mem::{MemoryGovernor, WorkloadClass};
use oltap_common::schema::SchemaRef;
use oltap_common::{CancellationToken, DataType, DbError, Field, Result, Schema};
use oltap_exec::{ExecResources, Helpers};
use oltap_sched::{AdmissionConfig, AdmissionController, AdmissionTicket, WorkerPool};
use oltap_sql::ast::Statement;
use oltap_sql::parse;
use oltap_storage::spill::{purge_spill_root, SpillDir};
use oltap_storage::{
    purge_page_root, BufferManager, BufferStats, FreezeStats, HeatStats, MergeBell, MergeStats,
    SegmentPager,
};
use oltap_txn::wal::{CommitRecord, Wal, WalOp};
use oltap_txn::{Transaction, TransactionManager, Ts};
use parking_lot::{Mutex, RwLock, RwLockReadGuard};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Memory-governance configuration: the process pool, its per-class
/// carve-outs, and the per-query cap handed to each statement's
/// [`oltap_common::mem::MemoryBudget`].
#[derive(Debug, Clone)]
pub struct MemoryConfig {
    /// Process-wide pool for query working memory.
    pub total_bytes: u64,
    /// OLTP class carve-out.
    pub oltp_bytes: u64,
    /// OLAP class carve-out.
    pub olap_bytes: u64,
    /// Per-query cap; a pipeline breaker that crosses it spills.
    pub query_bytes: u64,
}

impl MemoryConfig {
    /// A pool of `total_bytes` split 25/75 between OLTP and OLAP, with
    /// each query capped at half the OLAP carve-out.
    pub fn with_total(total_bytes: u64) -> MemoryConfig {
        let olap = total_bytes - total_bytes / 4;
        MemoryConfig {
            total_bytes,
            oltp_bytes: total_bytes / 4,
            olap_bytes: olap,
            query_bytes: (olap / 2).max(1),
        }
    }
}

/// Buffer-pool configuration for larger-than-memory column stores.
///
/// When set, columnar segments built by merges, compactions, bulk loads,
/// and dual-format population are written to checksummed page files and
/// faulted back in page-at-a-time through a clock-evicted buffer pool,
/// instead of being held fully resident. Only zone maps, schemas, delete
/// stamps, and page directories stay in memory.
#[derive(Debug, Clone)]
pub struct BufferConfig {
    /// Buffer-pool capacity in bytes. When [`DbConfig::memory`] is also
    /// set, this becomes a carve-out of the governed process total, so
    /// page caching and operator budgets compete in one hierarchy.
    pub pool_bytes: u64,
    /// Rows per column page (one page holds one column of one row group).
    pub page_rows: usize,
    /// Page-file directory override. Defaults to `<wal>.pages/` next to
    /// the WAL for durable databases, or a per-database temp dir
    /// otherwise.
    pub page_root: Option<PathBuf>,
}

impl BufferConfig {
    /// A pool of `pool_bytes` with the default page granularity.
    pub fn with_pool(pool_bytes: u64) -> BufferConfig {
        BufferConfig {
            pool_bytes,
            page_rows: 4096,
            page_root: None,
        }
    }
}

/// Database configuration.
#[derive(Debug, Clone, Default)]
pub struct DbConfig {
    /// WAL file path; `None` keeps the log in memory (ephemeral database).
    pub wal_path: Option<PathBuf>,
    /// Fault injector for chaos testing; `None` means no faults.
    pub faults: Option<Arc<FaultInjector>>,
    /// Memory governance; `None` leaves query memory unmetered.
    pub memory: Option<MemoryConfig>,
    /// Query admission control; `None` admits everything immediately.
    pub admission: Option<AdmissionConfig>,
    /// Spill root override. Defaults to `<wal>.spill/` next to the WAL
    /// for durable databases, or a per-database temp dir otherwise.
    pub spill_root: Option<PathBuf>,
    /// Buffer-pool governance for columnar base data; `None` keeps
    /// segments fully resident (the pre-paging behaviour).
    pub buffer: Option<BufferConfig>,
}

/// The engine.
pub struct Database {
    catalog: RwLock<Catalog>,
    txn_mgr: Arc<TransactionManager>,
    wal: Wal,
    faults: Arc<FaultInjector>,
    /// The database's one worker pool: `available_parallelism()` workers
    /// from open (none on a one-CPU host), `n` after
    /// [`set_parallelism(n)`](Database::set_parallelism). Every statement's
    /// helpers come from it.
    pool: RwLock<Option<Arc<WorkerPool>>>,
    /// Sessions open (see [`Database::session`]).
    sessions: Arc<AtomicUsize>,
    /// Memory governance, fixed at open: the governor and each query's cap.
    memory: Option<(Arc<MemoryGovernor>, u64)>,
    admission: RwLock<Option<Arc<AdmissionController>>>,
    spill_root: PathBuf,
    /// Segment pager; when set, every columnar table built after open
    /// pages its base data through the shared buffer pool.
    pager: Option<Arc<SegmentPager>>,
    /// Oldest timestamp historical (`AS OF`) reads may target. Merge, GC,
    /// and the freeze pass all destroy row versions at or below the
    /// maintenance watermark, so each pass raises this floor to the
    /// watermark it ran at.
    history_floor: AtomicU64,
    /// Sidecar file holding per-table access heat (durable databases
    /// only). Snapshotted after every maintenance pass and reloaded at
    /// open so a restart does not zero the hot/cold state and let the
    /// freeze pass immediately re-freeze the working set.
    heat_path: Option<PathBuf>,
    /// Rung by a column table whose delta a scan has found worth merging;
    /// the maintenance daemon waits on it between its passes.
    bell: Arc<MergeBell>,
    /// Plans by statement shape (see [`crate::prepared`]).
    plans: PlanCache,
    /// Set when a log append fails: the log may end in a torn frame, which
    /// replay reads nothing behind, so nothing more is logged (and nothing
    /// more committed) until the database is reopened. Every append runs
    /// under this lock, so none can slip in behind a failing one.
    log_failed: Mutex<bool>,
}

/// A session, counted open until dropped.
pub(crate) struct OpenSession(Arc<AtomicUsize>);

impl Drop for OpenSession {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Sequence for per-database temp roots (ephemeral databases).
static SPILL_ROOT_SEQ: AtomicU64 = AtomicU64::new(0);

fn default_db_dir(wal_path: Option<&PathBuf>, suffix: &str) -> PathBuf {
    match wal_path {
        // Durable database: a sibling dir of the WAL, stable across
        // restarts so recovery can purge crash leftovers.
        Some(p) => {
            let mut os = p.clone().into_os_string();
            os.push(suffix);
            PathBuf::from(os)
        }
        // Ephemeral database: a unique temp dir (nothing survives the
        // process, so there is nothing to purge on open).
        None => std::env::temp_dir().join(format!(
            "oltap{}-{}-{}",
            suffix,
            std::process::id(),
            SPILL_ROOT_SEQ.fetch_add(1, Ordering::Relaxed)
        )),
    }
}

fn default_spill_root(wal_path: Option<&PathBuf>) -> PathBuf {
    default_db_dir(wal_path, ".spill")
}

impl std::fmt::Debug for Database {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Database")
            .field("tables", &self.catalog.read().table_names())
            .field("wal_records", &self.wal.record_count())
            .finish()
    }
}

impl Database {
    /// An ephemeral in-memory database.
    pub fn new() -> Arc<Database> {
        let db = Arc::new(Database {
            catalog: RwLock::new(Catalog::new()),
            txn_mgr: Arc::new(TransactionManager::new()),
            wal: Wal::new_in_memory(),
            faults: FaultInjector::disabled(),
            pool: RwLock::new(None),
            sessions: Arc::default(),
            memory: None,
            admission: RwLock::new(None),
            spill_root: default_spill_root(None),
            pager: None,
            history_floor: AtomicU64::new(0),
            heat_path: None,
            bell: Arc::default(),
            plans: PlanCache::default(),
            log_failed: Mutex::new(false),
        });
        db.set_parallelism(std::thread::available_parallelism().map_or(1, usize::from));
        db
    }

    /// Opens (and recovers) a database according to `config`.
    pub fn with_config(config: DbConfig) -> Result<Arc<Database>> {
        let faults = config.faults.unwrap_or_else(FaultInjector::disabled);
        let wal = match &config.wal_path {
            Some(p) => Wal::open_with_faults(p, Arc::clone(&faults))?,
            None => Wal::with_faults(Arc::clone(&faults)),
        };
        let spill_root = config
            .spill_root
            .unwrap_or_else(|| default_spill_root(config.wal_path.as_ref()));
        // When both memory governance and a buffer pool are configured,
        // the pool is a carve-out of the governed total: page residency
        // claims count against the process limit alongside query budgets.
        let governor = config.memory.as_ref().map(|c| {
            let buffer_limit = config
                .buffer
                .as_ref()
                .map_or(u64::MAX, |b| b.pool_bytes);
            MemoryGovernor::with_buffer_pool(
                c.total_bytes,
                c.oltp_bytes,
                c.olap_bytes,
                buffer_limit,
                Arc::clone(&faults),
            )
        });
        let pager = match &config.buffer {
            Some(b) => {
                let root = b
                    .page_root
                    .clone()
                    .unwrap_or_else(|| default_db_dir(config.wal_path.as_ref(), ".pages"));
                // Segments are rebuilt from the WAL on recovery, so any
                // page file present at open is leakage from a crash.
                purge_page_root(&root)?;
                let buffer =
                    BufferManager::new(b.pool_bytes, governor.clone(), Arc::clone(&faults));
                Some(SegmentPager::new(
                    root,
                    buffer,
                    b.page_rows,
                    Arc::clone(&faults),
                ))
            }
            None => None,
        };
        let heat_path = config
            .wal_path
            .as_ref()
            .map(|p| default_db_dir(Some(p), ".heat"));
        let db = Arc::new(Database {
            catalog: RwLock::new(Catalog::new()),
            txn_mgr: Arc::new(TransactionManager::new()),
            wal,
            faults,
            pool: RwLock::new(None),
            sessions: Arc::default(),
            memory: governor.zip(config.memory.as_ref().map(|c| c.query_bytes)),
            admission: RwLock::new(None),
            spill_root,
            pager,
            history_floor: AtomicU64::new(0),
            heat_path,
            bell: Arc::default(),
            plans: PlanCache::default(),
            log_failed: Mutex::new(false),
        });
        db.set_parallelism(std::thread::available_parallelism().map_or(1, usize::from));
        db.set_admission_config(config.admission);
        // Spill files never outlive a process on purpose; anything under
        // the root at open time is leakage from a crash.
        purge_spill_root(&db.spill_root)?;
        db.recover()?;
        // After the catalog is rebuilt, restore the pre-crash access heat
        // so the freeze pass does not treat every recovered segment as
        // cold (recovery rebuilds segments from the WAL with zero heat).
        db.restore_heat();
        Ok(db)
    }

    /// Enables (or disables) query-granularity admission control.
    pub fn set_admission_config(&self, cfg: Option<AdmissionConfig>) {
        *self.admission.write() = cfg.map(AdmissionController::new);
    }

    /// Hands the catalog the pool as it is now, for the statements planned
    /// over it, behind the OLTP-first gate: a helper
    /// claims work only while no session but the statement's own is open —
    /// another session's transactions have first call on the cores. (A
    /// gate on running OLTP statements alone, or on open statements and
    /// transactions, still cost `htap_mixed`'s transactional stream: it
    /// spends most of its time between statements, and a helper wakes into
    /// that gap.)
    fn lend_helpers(&self) {
        let sessions = Arc::clone(&self.sessions);
        self.catalog.write().set_helpers(Helpers {
            pool: self.pool.read().clone(),
            gate: Some(Arc::new(move || sessions.load(Ordering::Relaxed) <= 1)),
        });
    }

    /// Counts a session as open until the guard drops.
    pub(crate) fn open_session(&self) -> OpenSession {
        self.sessions.fetch_add(1, Ordering::Relaxed);
        OpenSession(Arc::clone(&self.sessions))
    }

    /// The memory governor, if governance is enabled.
    pub fn memory_governor(&self) -> Option<Arc<MemoryGovernor>> {
        self.memory.as_ref().map(|(g, _)| Arc::clone(g))
    }

    /// The admission controller, if one is configured.
    pub fn admission(&self) -> Option<Arc<AdmissionController>> {
        self.admission.read().clone()
    }

    /// The directory per-query spill scratch dirs are created under.
    pub fn spill_root(&self) -> &std::path::Path {
        &self.spill_root
    }

    /// Admits one query of `class` under its statement's token; `None`
    /// when no admission control is configured. Blocks (queue-with-timeout)
    /// when OLAP is saturated, and leaves the queue once `cancel` trips.
    pub(crate) fn admit(
        &self,
        class: WorkloadClass,
        cancel: &CancellationToken,
    ) -> Result<Option<AdmissionTicket>> {
        match self.admission() {
            Some(ctrl) => Ok(Some(ctrl.admit_under(class, cancel)?)),
            None => Ok(None),
        }
    }

    /// Execution resources for one query of `class`: a budget from the
    /// governor plus the name of a per-query spill dir (made on disk only
    /// if the query spills), or [`ExecResources::unlimited`] when
    /// governance is off.
    pub(crate) fn exec_resources(&self, class: WorkloadClass) -> Result<ExecResources> {
        match &self.memory {
            Some((gov, query_bytes)) => {
                let budget = gov.budget(class, *query_bytes);
                let dir = SpillDir::create_under(&self.spill_root)?;
                Ok(ExecResources::new(budget, Some(Arc::new(dir))))
            }
            None => Ok(ExecResources::unlimited()),
        }
    }

    /// The fault injector (disabled unless configured via [`DbConfig`]).
    pub fn faults(&self) -> &Arc<FaultInjector> {
        &self.faults
    }

    /// The segment pager, if a buffer pool is configured.
    pub fn pager(&self) -> Option<&Arc<SegmentPager>> {
        self.pager.as_ref()
    }

    /// Buffer-pool counters (hits, misses, evictions, pinned/resident
    /// bytes), or `None` when no buffer pool is configured.
    pub fn buffer_stats(&self) -> Option<BufferStats> {
        self.pager.as_ref().map(|p| p.buffer().stats())
    }

    /// Sets the degree of intra-query parallelism for SELECTs: replaces the
    /// database's one worker pool with one of `workers` workers (none for
    /// `workers <= 1`).
    ///
    /// A statement's morsels — a pipeline's, or a fused `Aggregate(Scan)`'s
    /// — are claimed by its session's thread and up to `workers - 1` of the
    /// pool's, as many as there are morsels beyond the first, while no
    /// other session is open; a statement over paged segments keeps its
    /// one pass. Until this is called the pool has `available_parallelism()`
    /// workers (none on a one-CPU host). Results are identical at every
    /// setting, float sums included: an aggregate's stripes count rows.
    pub fn set_parallelism(&self, workers: usize) {
        *self.pool.write() = (workers > 1).then(|| Arc::new(WorkerPool::new(workers)));
        self.lend_helpers();
    }

    /// The database's worker pool (see [`Database::set_parallelism`]), if it
    /// has one: how many helper tasks it has run is its
    /// [`completed`](WorkerPool::completed) count.
    pub fn worker_pool(&self) -> Option<Arc<WorkerPool>> {
        self.pool.read().clone()
    }

    /// Opens a file-backed database at `path` (recovering prior state).
    pub fn open(path: impl Into<PathBuf>) -> Result<Arc<Database>> {
        Self::with_config(DbConfig {
            wal_path: Some(path.into()),
            ..DbConfig::default()
        })
    }

    /// The transaction manager.
    pub fn txn_manager(&self) -> &Arc<TransactionManager> {
        &self.txn_mgr
    }

    /// Starts an interactive session.
    pub fn session(self: &Arc<Self>) -> Session {
        Session::new(Arc::clone(self))
    }

    /// Executes one statement with auto-commit semantics.
    pub fn execute(self: &Arc<Self>, sql: &str) -> Result<QueryResult> {
        self.session().execute(sql)
    }

    /// Convenience: run a query and return its rows.
    pub fn query(self: &Arc<Self>, sql: &str) -> Result<Vec<oltap_common::Row>> {
        match self.execute(sql)? {
            QueryResult::Rows { rows, .. } => Ok(rows),
            other => Err(DbError::InvalidArgument(format!(
                "not a query: {other:?}"
            ))),
        }
    }

    /// The plan cache sessions share.
    pub(crate) fn plans(&self) -> &PlanCache {
        &self.plans
    }

    /// Read access to the catalog (held across bind + execute so the
    /// table set is stable for the statement).
    pub fn catalog_read(&self) -> RwLockReadGuard<'_, Catalog> {
        self.catalog.read()
    }

    /// Looks up a table handle.
    pub fn table(&self, name: &str) -> Result<TableHandle> {
        self.catalog.read().get(name)
    }

    /// Names of all tables.
    pub fn table_names(&self) -> Vec<String> {
        self.catalog.read().table_names()
    }

    /// Programmatic CREATE TABLE. Logged to the WAL as generated DDL SQL.
    pub fn create_table(
        &self,
        name: &str,
        schema: SchemaRef,
        format: TableFormat,
    ) -> Result<()> {
        let sql = render_create_table(name, &schema, format);
        let handle = self.new_table(schema, format)?;
        self.publish_ddl(&sql, DdlChange::Create(name.to_string(), handle))
    }

    /// Applies a parsed DDL statement (used by sessions); `sql` is the
    /// original text, logged verbatim.
    pub(crate) fn execute_ddl(&self, stmt: &Statement, sql: &str) -> Result<()> {
        self.publish_ddl(sql, self.ddl_change(stmt)?)
    }

    /// The change `stmt` makes to the table set (a CREATE's table built).
    fn ddl_change(&self, stmt: &Statement) -> Result<DdlChange> {
        match stmt {
            Statement::CreateTable {
                name,
                columns,
                primary_key,
                format,
            } => {
                let fields: Vec<Field> = columns
                    .iter()
                    .map(|c| Field {
                        name: c.name.clone(),
                        data_type: c.data_type,
                        nullable: !c.not_null,
                    })
                    .collect();
                let key_refs: Vec<&str> = primary_key.iter().map(|s| s.as_str()).collect();
                let schema = Arc::new(Schema::with_primary_key(fields, &key_refs)?);
                let handle = self.new_table(schema, (*format).into())?;
                Ok(DdlChange::Create(name.clone(), handle))
            }
            Statement::DropTable { name } => Ok(DdlChange::Drop(name.clone())),
            other => Err(DbError::Unsupported(format!("not DDL: {other:?}"))),
        }
    }

    /// Applies DDL the way a commit applies writes — checked, logged, then
    /// published — all under the catalog's write lock: no statement sees a
    /// table set the log lacks, and a change that cannot apply is never
    /// logged. Publishing bumps the catalog's generation, which retires
    /// every plan made before it.
    fn publish_ddl(&self, sql: &str, change: DdlChange) -> Result<()> {
        let mut catalog = self.catalog.write();
        change.check(&catalog)?;
        self.append(&CommitRecord {
            txn: oltap_common::ids::TxnId(0),
            commit_ts: self.txn_mgr.tick(),
            ops: vec![WalOp::Ddl {
                sql: sql.to_string(),
            }],
        })?;
        change.apply(&mut catalog)
    }

    /// An empty table paged through the database's pool, if it has one,
    /// and ringing its merge bell.
    fn new_table(&self, schema: SchemaRef, format: TableFormat) -> Result<TableHandle> {
        let bell = Some(Arc::clone(&self.bell));
        TableHandle::create_with(schema, format, self.pager.clone(), bell)
    }

    /// Appends `record` to the log — or refuses, once an append has failed:
    /// the failed append may have left a torn frame, and replay reads
    /// nothing behind one, so a record logged after it would be lost at the
    /// next open. Reopening truncates the torn tail and writes again.
    fn append(&self, record: &CommitRecord) -> Result<()> {
        let mut failed = self.log_failed.lock();
        if *failed {
            return Err(DbError::Io(
                "the write-ahead log failed an append; reopen the database to write again"
                    .into(),
            ));
        }
        self.wal.append(record).inspect_err(|_| *failed = true)
    }

    /// Commits `txn`, logging its redo `ops` inside the commit window (the
    /// write-ahead point of the engine): a commit the log refuses is rolled
    /// back, so it is neither visible nor acknowledged. A transaction that
    /// wrote nothing commits without logging.
    pub(crate) fn commit_txn(&self, txn: &Transaction, ops: Vec<WalOp>) -> Result<Ts> {
        if ops.is_empty() {
            return txn.commit();
        }
        txn.commit_logged(|commit_ts| {
            self.append(&CommitRecord {
                txn: txn.id(),
                commit_ts,
                ops,
            })
        })
    }

    /// WAL record count (diagnostics).
    pub fn wal_records(&self) -> u64 {
        self.wal.record_count()
    }

    /// Replays the WAL into a fresh catalog. Called on open; idempotent
    /// only on an empty database.
    fn recover(self: &Arc<Self>) -> Result<()> {
        let (records, tail_error) = self.wal.replay_records();
        for rec in &records {
            self.txn_mgr.advance_to(rec.commit_ts);
            self.apply_record(rec)?;
        }
        // A torn tail is the expected crash artifact; anything before it
        // has been applied.
        if let Some(DbError::Corruption(_)) = tail_error {
            // Tolerated: the tail record never committed.
        }
        Ok(())
    }

    fn apply_record(self: &Arc<Self>, rec: &CommitRecord) -> Result<()> {
        // DDL records hold exactly one op.
        if let [WalOp::Ddl { sql }] = rec.ops.as_slice() {
            return self.ddl_change(&parse(sql)?)?.apply(&mut self.catalog.write());
        }
        let txn = self.txn_mgr.begin();
        for op in &rec.ops {
            match op {
                WalOp::Insert { table, row } => {
                    self.table(table)?.insert(&txn, row.clone())?;
                }
                WalOp::Update { table, key, row } => {
                    self.table(table)?.update(&txn, key, row.clone())?;
                }
                WalOp::Delete { table, key } => {
                    self.table(table)?.delete(&txn, key)?;
                }
                WalOp::Ddl { .. } => {
                    return Err(DbError::Corruption(
                        "DDL mixed into a DML record".into(),
                    ))
                }
            }
        }
        txn.commit()?;
        Ok(())
    }

    /// Runs one maintenance pass over every table at the current GC
    /// watermark: delta merges, dual-format population, version GC.
    pub fn maintenance(&self) -> MaintenanceStats {
        // Chaos point: a merge pass that dies mid-flight. The background
        // daemon must survive this (see `start_maintenance`).
        if self.faults.should_fire(points::MERGE_ABORT) {
            panic!("fault injected: merge.abort");
        }
        let watermark = self.txn_mgr.gc_watermark();
        // Merge/GC/freeze destroy versions at or below the watermark, so
        // `AS OF` reads below it are no longer answerable.
        self.history_floor.fetch_max(watermark, Ordering::SeqCst);
        let mut notes = Vec::new();
        {
            let catalog = self.catalog.read();
            for (name, handle) in catalog.handles() {
                match handle.maintain_full(watermark, &self.faults) {
                    Ok(note) => notes.push((name.clone(), note)),
                    Err(e) => notes.push((name.clone(), format!("error: {e}"))),
                }
            }
        }
        // Snapshot post-decay heat so a restart restores the hot/cold
        // state instead of treating every recovered segment as cold.
        self.persist_heat();
        MaintenanceStats { watermark, notes }
    }

    /// The merge trigger's pass: merges every column table whose delta a
    /// scan has found worth merging since its last merge (see
    /// `oltap_storage::delta`), at the current GC watermark, raising the
    /// history floor as [`maintenance`](Self::maintenance) does. Returns
    /// the tables it merged, with what each merge moved; a table whose
    /// merge fails is left to the next full pass, which reports the error.
    pub fn merge_due(&self) -> Vec<(String, MergeStats)> {
        let watermark = self.txn_mgr.gc_watermark();
        self.history_floor.fetch_max(watermark, Ordering::SeqCst);
        let catalog = self.catalog.read();
        let mut merged = Vec::new();
        for (name, handle) in catalog.handles() {
            if let TableHandle::Column(t) = handle {
                if let Ok(Some(stats)) = t.merge_if_due(watermark) {
                    merged.push((name.clone(), stats));
                }
            }
        }
        merged
    }

    /// Writes the per-table heat snapshot next to the WAL (tmp+rename,
    /// CRC-framed records). Best-effort: heat is advisory — a lost
    /// snapshot only means segments restart cold — so I/O errors are
    /// swallowed rather than failing the maintenance pass.
    fn persist_heat(&self) {
        let Some(path) = &self.heat_path else { return };
        let mut buf = Vec::new();
        for (name, handle) in self.catalog.read().handles() {
            let Some(hs) = handle.heat_stats() else { continue };
            let mut payload = Vec::with_capacity(name.len() + 12);
            payload.extend_from_slice(&(name.len() as u32).to_le_bytes());
            payload.extend_from_slice(name.as_bytes());
            payload.extend_from_slice(&hs.total_heat.to_le_bytes());
            buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            buf.extend_from_slice(&oltap_common::crc32(&payload).to_le_bytes());
            buf.extend_from_slice(&payload);
        }
        let tmp = path.with_extension("heat.tmp");
        if std::fs::write(&tmp, &buf).is_ok() {
            let _ = std::fs::rename(&tmp, path);
        }
    }

    /// Reloads the heat snapshot written by [`Database::persist_heat`].
    /// Tolerates a missing file (first open, or an operator reset) and
    /// stops at the first torn or CRC-failing record — the snapshot is a
    /// hint, never a correctness input.
    fn restore_heat(&self) {
        let Some(path) = &self.heat_path else { return };
        let Ok(bytes) = std::fs::read(path) else { return };
        let catalog = self.catalog.read();
        let mut off = 0usize;
        while off + 8 <= bytes.len() {
            let len =
                u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap()) as usize;
            let crc = u32::from_le_bytes(bytes[off + 4..off + 8].try_into().unwrap());
            off += 8;
            if off + len > bytes.len() {
                return; // torn tail
            }
            let payload = &bytes[off..off + len];
            off += len;
            if oltap_common::crc32(payload) != crc || payload.len() < 12 {
                return;
            }
            let nlen = u32::from_le_bytes(payload[0..4].try_into().unwrap()) as usize;
            if payload.len() != 4 + nlen + 8 {
                return;
            }
            let Ok(name) = std::str::from_utf8(&payload[4..4 + nlen]) else {
                return;
            };
            let heat =
                u64::from_le_bytes(payload[4 + nlen..].try_into().unwrap());
            // Tables dropped since the snapshot simply skip their record.
            if let Ok(handle) = catalog.get(name) {
                handle.seed_heat(heat);
            }
        }
    }

    /// Oldest timestamp an `AS OF` read may target (see maintenance).
    pub fn history_floor(&self) -> Ts {
        self.history_floor.load(Ordering::SeqCst)
    }

    /// Forces the freeze pass over every column table at the current GC
    /// watermark, ignoring heat (tests and benchmarks; the background
    /// daemon freezes only cold segments).
    pub fn freeze_all(&self, force: bool) -> Result<FreezeStats> {
        let watermark = self.txn_mgr.gc_watermark();
        self.history_floor.fetch_max(watermark, Ordering::SeqCst);
        let catalog = self.catalog.read();
        let mut total = FreezeStats::default();
        for (_, handle) in catalog.handles() {
            if let Some(stats) = handle.freeze(watermark, &self.faults, force)? {
                total.absorb(&stats);
            }
        }
        Ok(total)
    }

    /// Storage-engine counters: buffer-pool hits/misses (when a pool is
    /// configured) plus hot/cold heat and freeze statistics aggregated
    /// over every column table.
    pub fn stats(&self) -> DbStats {
        let mut heat = HeatStats::default();
        for (_, handle) in self.catalog.read().handles() {
            if let Some(h) = handle.heat_stats() {
                heat.absorb(&h);
            }
        }
        let (plan_hits, plan_misses, plan_invalidations, plan_shapes) = self.plans.counters();
        DbStats {
            buffer: self.buffer_stats(),
            heat,
            history_floor: self.history_floor(),
            plan_hits,
            plan_misses,
            plan_invalidations,
            plan_shapes,
        }
    }

    /// Spawns a background maintenance thread: a full pass
    /// ([`maintenance`](Self::maintenance)) every `interval`, and between
    /// passes, whenever a column table rings the merge bell, the trigger's
    /// merge of the tables that are due ([`merge_due`](Self::merge_due)).
    /// The thread waits on the bell, not in a sleep, so dropping the
    /// daemon wakes it at once.
    ///
    /// The daemon is panic-safe: a merge pass that panics (a bug, or the
    /// `merge.abort` chaos point) is caught and counted, and the daemon
    /// keeps ticking — one bad pass must not silently stop compaction
    /// for the lifetime of the process.
    pub fn start_maintenance(self: &Arc<Self>, interval: Duration) -> MaintenanceDaemon {
        let db = Arc::clone(self);
        let bell = Arc::clone(&self.bell);
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let panics = Arc::new(AtomicU64::new(0));
        let panics2 = Arc::clone(&panics);
        let ticks = Arc::new(AtomicU64::new(0));
        let ticks2 = Arc::clone(&ticks);
        let handle = std::thread::Builder::new()
            .name("oltap-maintenance".into())
            .spawn(move || {
                let mut rings = 0;
                let mut next_pass = Instant::now() + interval;
                loop {
                    let rung = db.bell.wait(&mut rings, next_pass);
                    if stop2.load(Ordering::SeqCst) {
                        break;
                    }
                    let full = Instant::now() >= next_pass;
                    let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        if rung {
                            db.merge_due();
                        }
                        if full {
                            db.maintenance();
                        }
                    }));
                    if res.is_err() {
                        panics2.fetch_add(1, Ordering::SeqCst);
                        eprintln!("maintenance pass panicked; daemon continues");
                    }
                    if full {
                        ticks2.fetch_add(1, Ordering::SeqCst);
                        next_pass = Instant::now() + interval;
                    }
                }
            })
            .expect("spawn maintenance daemon");
        MaintenanceDaemon {
            stop,
            bell,
            panics,
            ticks,
            handle: Some(handle),
        }
    }
}

/// Storage-engine counters surfaced by [`Database::stats`].
#[derive(Debug, Clone)]
pub struct DbStats {
    /// Buffer-pool counters; `None` when no pool is configured.
    pub buffer: Option<BufferStats>,
    /// Heat / freeze counters aggregated over all column tables.
    pub heat: HeatStats,
    /// Oldest timestamp `AS OF` reads may target.
    pub history_floor: Ts,
    /// Statements whose shape found its plan in the plan cache.
    pub plan_hits: u64,
    /// Statements whose shape did not (each planned its shape).
    pub plan_misses: u64,
    /// Of the misses, those that found a plan made before a DDL.
    pub plan_invalidations: u64,
    /// Shapes the cache holds now (at most
    /// [`crate::prepared::PLAN_CACHE_SHAPES`]).
    pub plan_shapes: usize,
}

/// One change to the table set.
enum DdlChange {
    Create(String, TableHandle),
    Drop(String),
}

impl DdlChange {
    /// Whether the change applies to `catalog`.
    fn check(&self, catalog: &Catalog) -> Result<()> {
        match self {
            DdlChange::Create(name, _) if catalog.get(name).is_ok() => {
                Err(DbError::AlreadyExists(name.clone()))
            }
            DdlChange::Create(..) => Ok(()),
            DdlChange::Drop(name) => catalog.get(name).map(drop),
        }
    }

    fn apply(self, catalog: &mut Catalog) -> Result<()> {
        match self {
            DdlChange::Create(name, handle) => catalog.create(&name, handle),
            DdlChange::Drop(name) => catalog.drop_table(&name),
        }
    }
}

/// Result of one maintenance pass.
#[derive(Debug, Clone)]
pub struct MaintenanceStats {
    /// The watermark the pass ran at.
    pub watermark: Ts,
    /// Per-table notes.
    pub notes: Vec<(String, String)>,
}

/// Handle to the background maintenance thread (stops on drop).
pub struct MaintenanceDaemon {
    stop: Arc<AtomicBool>,
    /// Rung on drop, to wake the thread out of its wait.
    bell: Arc<MergeBell>,
    panics: Arc<AtomicU64>,
    ticks: Arc<AtomicU64>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl MaintenanceDaemon {
    /// Number of maintenance passes that panicked (and were survived).
    pub fn panics(&self) -> u64 {
        self.panics.load(Ordering::SeqCst)
    }

    /// Number of completed ticks (including panicked ones).
    pub fn ticks(&self) -> u64 {
        self.ticks.load(Ordering::SeqCst)
    }
}

impl Drop for MaintenanceDaemon {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        self.bell.ring();
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// Renders a schema back to CREATE TABLE SQL (for WAL logging of
/// programmatic DDL).
fn render_create_table(name: &str, schema: &Schema, format: TableFormat) -> String {
    let mut cols: Vec<String> = schema
        .fields()
        .iter()
        .map(|f| {
            let ty = match f.data_type {
                DataType::Int64 => "BIGINT",
                DataType::Float64 => "DOUBLE",
                DataType::Utf8 => "TEXT",
                DataType::Bool => "BOOLEAN",
                DataType::Timestamp => "TIMESTAMP",
            };
            format!(
                "{} {}{}",
                f.name,
                ty,
                if f.nullable { "" } else { " NOT NULL" }
            )
        })
        .collect();
    if schema.has_primary_key() {
        let keys: Vec<&str> = schema
            .primary_key()
            .iter()
            .map(|&i| schema.field(i).name.as_str())
            .collect();
        cols.push(format!("PRIMARY KEY ({})", keys.join(", ")));
    }
    let fmt = match format {
        TableFormat::Row => "ROW",
        TableFormat::Column => "COLUMN",
        TableFormat::Dual => "DUAL",
    };
    format!("CREATE TABLE {name} ({}) USING FORMAT {fmt}", cols.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;
    use oltap_common::{Row, Value};

    fn ints(rows: &[Row], col: usize) -> Vec<i64> {
        rows.iter().map(|r| r[col].as_int().unwrap()).collect()
    }

    #[test]
    fn end_to_end_sql_roundtrip() {
        let db = Database::new();
        db.execute(
            "CREATE TABLE orders (id BIGINT PRIMARY KEY, region TEXT, amount BIGINT)",
        )
        .unwrap();
        let r = db
            .execute("INSERT INTO orders VALUES (1, 'eu', 100), (2, 'us', 200), (3, 'eu', 50)")
            .unwrap();
        assert_eq!(r.affected(), 3);

        let rows = db
            .query("SELECT region, SUM(amount) AS s FROM orders GROUP BY region ORDER BY region")
            .unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0][0], Value::Str("eu".into()));
        assert_eq!(rows[0][1], Value::Int(150));

        let r = db
            .execute("UPDATE orders SET amount = amount + 10 WHERE region = 'eu'")
            .unwrap();
        assert_eq!(r.affected(), 2);
        let rows = db
            .query("SELECT SUM(amount) FROM orders")
            .unwrap();
        assert_eq!(rows[0][0], Value::Int(370));

        let r = db.execute("DELETE FROM orders WHERE id = 2").unwrap();
        assert_eq!(r.affected(), 1);
        let rows = db.query("SELECT COUNT(*) FROM orders").unwrap();
        assert_eq!(rows[0][0], Value::Int(2));
    }

    #[test]
    fn query_timeout_cancels_select() {
        let db = Database::new();
        db.execute("CREATE TABLE big (id BIGINT PRIMARY KEY, v BIGINT)")
            .unwrap();
        for chunk in 0..4 {
            let vals: Vec<String> = (0..250)
                .map(|i| format!("({}, {})", chunk * 250 + i, i))
                .collect();
            db.execute(&format!("INSERT INTO big VALUES {}", vals.join(", ")))
                .unwrap();
        }
        let mut s = db.session();
        // An already-expired deadline: the query must terminate at the
        // first batch boundary with the *deadline* error (distinct from
        // an explicit cancel) — no hang, no panic, no partial result.
        s.set_query_timeout(Some(Duration::ZERO));
        let err = s.execute("SELECT SUM(v) FROM big").unwrap_err();
        assert!(matches!(err, DbError::DeadlineExceeded(_)), "{err}");
        // Clearing the timeout restores normal execution on the same
        // session.
        s.set_query_timeout(None);
        let r = s.execute("SELECT COUNT(*) FROM big").unwrap();
        assert_eq!(r.rows()[0][0], Value::Int(1000));
    }

    #[test]
    fn maintenance_daemon_survives_injected_panic() {
        let faults = FaultInjector::new(3);
        faults.arm(
            oltap_common::fault::points::MERGE_ABORT,
            oltap_common::FaultPoint::times(2),
        );
        let db = Database::with_config(DbConfig {
            wal_path: None,
            faults: Some(faults),
            ..DbConfig::default()
        })
        .unwrap();
        db.execute("CREATE TABLE t (id BIGINT PRIMARY KEY, v BIGINT)")
            .unwrap();
        let daemon = db.start_maintenance(Duration::from_millis(2));
        // Wait until the daemon has both panicked (twice) and completed
        // at least one clean pass afterwards.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while (daemon.panics() < 2 || daemon.ticks() <= daemon.panics())
            && std::time::Instant::now() < deadline
        {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(daemon.panics(), 2, "both injected aborts observed");
        assert!(
            daemon.ticks() > daemon.panics(),
            "daemon kept ticking after the panics"
        );
        // The database is still fully functional.
        db.execute("INSERT INTO t VALUES (1, 10)").unwrap();
        assert_eq!(
            db.query("SELECT COUNT(*) FROM t").unwrap()[0][0],
            Value::Int(1)
        );
        drop(daemon); // must join cleanly
    }

    #[test]
    fn explain_shows_pushdown_and_pruning() {
        let db = Database::new();
        db.execute("CREATE TABLE t (id BIGINT PRIMARY KEY, a BIGINT, b TEXT)")
            .unwrap();
        let rows = db
            .query("EXPLAIN SELECT id FROM t WHERE a > 5 ORDER BY id LIMIT 3")
            .unwrap();
        let text: String = rows
            .iter()
            .map(|r| r[0].as_str().unwrap().to_string())
            .collect::<Vec<_>>()
            .join("\n");
        assert!(text.contains("Scan t"), "{text}");
        assert!(text.contains("pushdown"), "{text}");
        assert!(text.contains("Limit"), "{text}");
        // Projection pruning: only id and a (pushed) are needed; b must
        // not be decoded.
        assert!(text.contains("cols=[0]"), "{text}");
    }

    #[test]
    fn all_three_formats_via_sql() {
        let db = Database::new();
        for (name, fmt) in [("tr", "ROW"), ("tc", "COLUMN"), ("td", "DUAL")] {
            db.execute(&format!(
                "CREATE TABLE {name} (id BIGINT PRIMARY KEY, v BIGINT) USING FORMAT {fmt}"
            ))
            .unwrap();
            db.execute(&format!("INSERT INTO {name} VALUES (1, 10), (2, 20)"))
                .unwrap();
            let rows = db
                .query(&format!("SELECT v FROM {name} ORDER BY v"))
                .unwrap();
            assert_eq!(ints(&rows, 0), vec![10, 20], "{name}");
        }
    }

    #[test]
    fn explicit_transactions_commit_and_rollback() {
        let db = Database::new();
        db.execute("CREATE TABLE t (id BIGINT PRIMARY KEY, v BIGINT)")
            .unwrap();
        let mut s = db.session();
        s.execute("BEGIN").unwrap();
        s.execute("INSERT INTO t VALUES (1, 1)").unwrap();
        // The writer's own session sees it; another session does not.
        assert_eq!(s.execute("SELECT COUNT(*) FROM t").unwrap().rows()[0][0], Value::Int(1));
        assert_eq!(db.query("SELECT COUNT(*) FROM t").unwrap()[0][0], Value::Int(0));
        s.execute("COMMIT").unwrap();
        assert_eq!(db.query("SELECT COUNT(*) FROM t").unwrap()[0][0], Value::Int(1));

        s.execute("BEGIN").unwrap();
        s.execute("INSERT INTO t VALUES (2, 2)").unwrap();
        s.execute("ROLLBACK").unwrap();
        assert_eq!(db.query("SELECT COUNT(*) FROM t").unwrap()[0][0], Value::Int(1));
    }

    #[test]
    fn write_conflict_surfaces_as_error() {
        let db = Database::new();
        db.execute("CREATE TABLE t (id BIGINT PRIMARY KEY, v BIGINT)")
            .unwrap();
        db.execute("INSERT INTO t VALUES (1, 0)").unwrap();
        let mut s1 = db.session();
        let mut s2 = db.session();
        s1.execute("BEGIN").unwrap();
        s2.execute("BEGIN").unwrap();
        s1.execute("UPDATE t SET v = 1 WHERE id = 1").unwrap();
        assert!(matches!(
            s2.execute("UPDATE t SET v = 2 WHERE id = 1"),
            Err(DbError::WriteConflict(_))
        ));
        s1.execute("COMMIT").unwrap();
    }

    #[test]
    fn insert_with_column_list_and_nulls() {
        let db = Database::new();
        db.execute("CREATE TABLE t (id BIGINT PRIMARY KEY, a TEXT, b BIGINT)")
            .unwrap();
        db.execute("INSERT INTO t (id, b) VALUES (1, 5)").unwrap();
        let rows = db.query("SELECT a, b FROM t").unwrap();
        assert_eq!(rows[0][0], Value::Null);
        assert_eq!(rows[0][1], Value::Int(5));
        // NULL into NOT NULL / PK rejected.
        assert!(db.execute("INSERT INTO t (a) VALUES ('x')").is_err());
    }

    #[test]
    fn update_changing_primary_key() {
        let db = Database::new();
        db.execute("CREATE TABLE t (id BIGINT PRIMARY KEY, v BIGINT)")
            .unwrap();
        db.execute("INSERT INTO t VALUES (1, 10)").unwrap();
        db.execute("UPDATE t SET id = 2 WHERE id = 1").unwrap();
        let rows = db.query("SELECT id, v FROM t").unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][0], Value::Int(2));
        assert_eq!(rows[0][1], Value::Int(10));
    }

    #[test]
    fn duplicate_table_and_missing_table_errors() {
        let db = Database::new();
        db.execute("CREATE TABLE t (id BIGINT PRIMARY KEY)").unwrap();
        assert!(matches!(
            db.execute("CREATE TABLE t (id BIGINT PRIMARY KEY)"),
            Err(DbError::AlreadyExists(_))
        ));
        assert!(matches!(
            db.execute("SELECT * FROM missing"),
            Err(DbError::TableNotFound(_))
        ));
        db.execute("DROP TABLE t").unwrap();
        assert!(db.execute("SELECT * FROM t").is_err());
    }

    #[test]
    fn crash_recovery_from_wal_file() {
        let dir = std::env::temp_dir().join(format!("oltap_core_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("recovery.wal");
        let _ = std::fs::remove_file(&path);
        {
            let db = Database::open(&path).unwrap();
            db.execute(
                "CREATE TABLE t (id BIGINT PRIMARY KEY, v BIGINT) USING FORMAT COLUMN",
            )
            .unwrap();
            db.execute("INSERT INTO t VALUES (1, 10), (2, 20)").unwrap();
            db.execute("UPDATE t SET v = 99 WHERE id = 1").unwrap();
            db.execute("DELETE FROM t WHERE id = 2").unwrap();
            db.execute("INSERT INTO t VALUES (3, 30)").unwrap();
            // "crash": drop without any shutdown protocol.
        }
        let db = Database::open(&path).unwrap();
        let rows = db.query("SELECT id, v FROM t ORDER BY id").unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0][1], Value::Int(99));
        assert_eq!(rows[1][0], Value::Int(3));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn recovery_tolerates_torn_tail() {
        let dir = std::env::temp_dir().join(format!("oltap_torn_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("torn.wal");
        let _ = std::fs::remove_file(&path);
        {
            let db = Database::open(&path).unwrap();
            db.execute("CREATE TABLE t (id BIGINT PRIMARY KEY)").unwrap();
            db.execute("INSERT INTO t VALUES (1)").unwrap();
            db.execute("INSERT INTO t VALUES (2)").unwrap();
        }
        // Tear the last record.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        let db = Database::open(&path).unwrap();
        let rows = db.query("SELECT COUNT(*) FROM t").unwrap();
        assert_eq!(rows[0][0], Value::Int(1));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn maintenance_merges_and_keeps_results_stable() {
        let db = Database::new();
        db.execute(
            "CREATE TABLE t (id BIGINT PRIMARY KEY, v BIGINT) USING FORMAT COLUMN",
        )
        .unwrap();
        for i in 0..200 {
            db.execute(&format!("INSERT INTO t VALUES ({i}, {})", i % 10))
                .unwrap();
        }
        let before = db.query("SELECT COUNT(*), SUM(v) FROM t").unwrap();
        let stats = db.maintenance();
        assert!(stats.notes.iter().any(|(_, n)| n.contains("merged 200")));
        let after = db.query("SELECT COUNT(*), SUM(v) FROM t").unwrap();
        assert_eq!(before[0], after[0]);
        // The note also says what the pass left: an update of a merged row
        // is a second segment and a dead row in the first.
        let left = "now 1 segments, 200 main rows (0 dead), 0 delta keys";
        assert!(stats.notes.iter().any(|(_, n)| n.ends_with(left)), "{stats:?}");
        db.execute("UPDATE t SET v = 99 WHERE id = 7").unwrap();
        let stats = db.maintenance();
        let left = "now 2 segments, 201 main rows (1 dead), 0 delta keys";
        assert!(stats.notes.iter().any(|(_, n)| n.ends_with(left)), "{stats:?}");
        // One segment and one row are no run: nothing coalesced. The note
        // also says what the trigger and the write lock did.
        let note = &stats.notes.iter().find(|(t, _)| t == "t").unwrap().1;
        assert!(note.contains("(0 triggered merges since the last pass)"), "{note}");
        assert!(note.contains("coalesced 0 runs (0 -> 0 segments, 0 rows dropped)"), "{note}");
        assert!(note.contains("longest write hold "), "{note}");
    }

    #[test]
    fn programmatic_create_table_logged_for_recovery() {
        let dir = std::env::temp_dir().join(format!("oltap_prog_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("prog.wal");
        let _ = std::fs::remove_file(&path);
        {
            let db = Database::open(&path).unwrap();
            let schema = Arc::new(
                Schema::with_primary_key(
                    vec![
                        Field::not_null("k", DataType::Int64),
                        Field::new("who", DataType::Utf8),
                        Field::new("ok", DataType::Bool),
                        Field::new("at", DataType::Timestamp),
                        Field::new("score", DataType::Float64),
                    ],
                    &["k"],
                )
                .unwrap(),
            );
            db.create_table("mix", schema, TableFormat::Dual).unwrap();
            db.execute("INSERT INTO mix VALUES (1, 'a', TRUE, 5, 0.5)")
                .unwrap();
        }
        let db = Database::open(&path).unwrap();
        let rows = db.query("SELECT who, ok FROM mix").unwrap();
        assert_eq!(rows[0][0], Value::Str("a".into()));
        assert_eq!(rows[0][1], Value::Bool(true));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn maintenance_daemon_runs_and_stops() {
        let db = Database::new();
        db.execute("CREATE TABLE t (id BIGINT PRIMARY KEY, v BIGINT) USING FORMAT COLUMN")
            .unwrap();
        db.execute("INSERT INTO t VALUES (1, 1)").unwrap();
        let daemon = db.start_maintenance(Duration::from_millis(10));
        std::thread::sleep(Duration::from_millis(50));
        drop(daemon); // must join cleanly
        let rows = db.query("SELECT COUNT(*) FROM t").unwrap();
        assert_eq!(rows[0][0], Value::Int(1));
    }

    /// The daemon waits on the merge bell, not in a sleep: dropping it
    /// returns at once however long its interval.
    #[test]
    fn dropping_the_daemon_returns_at_once_with_a_long_interval() {
        let db = Database::new();
        let daemon = db.start_maintenance(Duration::from_secs(10));
        std::thread::sleep(Duration::from_millis(20));
        let started = Instant::now();
        drop(daemon);
        let took = started.elapsed();
        assert!(took < Duration::from_millis(50), "drop took {took:?}");
    }

    fn column_table(db: &Database, name: &str) -> Arc<oltap_storage::DeltaMainTable> {
        match db.table(name).unwrap() {
            TableHandle::Column(t) => t,
            other => panic!("{name} is {other:?}"),
        }
    }

    /// Between two passes of a daemon that ticks every ten seconds, the
    /// trigger merges the table a reader keeps scanning, once its scans
    /// have paid for it, and leaves the table nobody reads in its delta.
    #[test]
    fn the_trigger_merges_a_scanned_table_and_never_a_write_only_one() {
        let db = Database::new();
        for name in ["scanned", "written"] {
            db.execute(&format!(
                "CREATE TABLE {name} (id BIGINT PRIMARY KEY, v BIGINT) USING FORMAT COLUMN"
            ))
            .unwrap();
        }
        let daemon = db.start_maintenance(Duration::from_secs(10));
        for name in ["scanned", "written"] {
            let values: Vec<String> = (0..200).map(|i| format!("({i}, {i})")).collect();
            db.execute(&format!("INSERT INTO {name} VALUES {}", values.join(", ")))
                .unwrap();
        }
        let (scanned, written) = (column_table(&db, "scanned"), column_table(&db, "written"));
        let deadline = Instant::now() + Duration::from_secs(10);
        while scanned.sizes().segments == 0 && Instant::now() < deadline {
            let sum = db.query("SELECT SUM(v) FROM scanned").unwrap();
            assert_eq!(sum[0][0], Value::Int(199 * 200 / 2));
        }
        assert_eq!(scanned.sizes().segments, 1, "the trigger never merged the scanned table");
        assert_eq!(scanned.sizes().delta_rows, 0);
        assert_eq!(daemon.ticks(), 0, "a full pass ran: the test proves nothing");
        assert_eq!(written.sizes().segments, 0);
        assert_eq!(written.sizes().delta_rows, 200);
        assert!(db.history_floor() > 0, "the trigger's merge left the floor down");
        drop(daemon);
    }

    #[test]
    fn snapshot_reads_are_stable_under_concurrent_writes() {
        let db = Database::new();
        db.execute("CREATE TABLE t (id BIGINT PRIMARY KEY, v BIGINT) USING FORMAT COLUMN")
            .unwrap();
        for i in 0..50 {
            db.execute(&format!("INSERT INTO t VALUES ({i}, 1)")).unwrap();
        }
        let mut reader = db.session();
        reader.execute("BEGIN").unwrap();
        let before = reader.execute("SELECT SUM(v) FROM t").unwrap().rows()[0][0].clone();
        // Concurrent auto-commit writes.
        db.execute("UPDATE t SET v = 100 WHERE id = 0").unwrap();
        db.execute("INSERT INTO t VALUES (999, 100)").unwrap();
        let during = reader.execute("SELECT SUM(v) FROM t").unwrap().rows()[0][0].clone();
        assert_eq!(before, during, "snapshot must not move inside a txn");
        reader.execute("COMMIT").unwrap();
        let after = db.query("SELECT SUM(v) FROM t").unwrap()[0][0].clone();
        assert_eq!(after, Value::Int(50 - 1 + 100 + 100));
    }

    fn paged_config(pool_bytes: u64, page_rows: usize) -> DbConfig {
        DbConfig {
            buffer: Some(BufferConfig {
                pool_bytes,
                page_rows,
                page_root: None,
            }),
            ..DbConfig::default()
        }
    }

    #[test]
    fn paged_column_store_matches_resident_results() {
        let paged = Database::with_config(paged_config(256, 64)).unwrap();
        let resident = Database::new();
        for db in [&paged, &resident] {
            db.execute(
                "CREATE TABLE t (id BIGINT PRIMARY KEY, grp BIGINT, v BIGINT) USING FORMAT COLUMN",
            )
            .unwrap();
            for chunk in 0..5 {
                let vals: Vec<String> = (0..100)
                    .map(|i| {
                        let id = chunk * 100 + i;
                        format!("({id}, {}, {})", id % 7, id * 3)
                    })
                    .collect();
                db.execute(&format!("INSERT INTO t VALUES {}", vals.join(", ")))
                    .unwrap();
            }
            db.maintenance(); // merge the delta into (paged) main segments
        }
        for q in [
            "SELECT COUNT(*), SUM(v) FROM t",
            "SELECT grp, SUM(v) AS s FROM t GROUP BY grp ORDER BY grp",
            "SELECT id, v FROM t WHERE id >= 480 ORDER BY id",
            "SELECT v FROM t WHERE grp = 3 ORDER BY v LIMIT 10",
        ] {
            assert_eq!(paged.query(q).unwrap(), resident.query(q).unwrap(), "{q}");
        }
        let stats = paged.buffer_stats().expect("buffer pool configured");
        assert!(stats.misses > 0, "paged scans must fault pages: {stats:?}");
        assert!(
            stats.evictions > 0,
            "a pool smaller than the data must evict: {stats:?}"
        );
        assert!(resident.buffer_stats().is_none());
    }

    #[test]
    fn paged_point_reads_and_dml_after_merge() {
        let db = Database::with_config(paged_config(8 * 1024, 32)).unwrap();
        db.execute("CREATE TABLE t (id BIGINT PRIMARY KEY, v BIGINT) USING FORMAT COLUMN")
            .unwrap();
        for i in 0..200 {
            db.execute(&format!("INSERT INTO t VALUES ({i}, {i})")).unwrap();
        }
        db.maintenance();
        // Updates and deletes against rows that now live in paged segments.
        db.execute("UPDATE t SET v = 999 WHERE id = 7").unwrap();
        db.execute("DELETE FROM t WHERE id = 8").unwrap();
        let rows = db.query("SELECT v FROM t WHERE id = 7").unwrap();
        assert_eq!(rows[0][0], Value::Int(999));
        assert!(db.query("SELECT v FROM t WHERE id = 8").unwrap().is_empty());
        assert_eq!(
            db.query("SELECT COUNT(*) FROM t").unwrap()[0][0],
            Value::Int(199)
        );
    }

    #[test]
    fn orphaned_page_files_are_purged_at_open() {
        let dir = std::env::temp_dir().join(format!(
            "oltap_orphan_{}_{}",
            std::process::id(),
            SPILL_ROOT_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let root = dir.join("pages");
        std::fs::create_dir_all(&root).unwrap();
        // Leftovers from a simulated crash in the middle of a paged segment
        // build: a published page file whose segment never made it into the WAL,
        // and a torn tmp file from an unfinished writer.
        std::fs::write(root.join("seg-1-1.pages"), b"orphan").unwrap();
        std::fs::write(root.join("seg-1-2.pages.tmp"), b"torn").unwrap();
        let db = Database::with_config(DbConfig {
            buffer: Some(BufferConfig {
                pool_bytes: 1 << 20,
                page_rows: 128,
                page_root: Some(root.clone()),
            }),
            ..DbConfig::default()
        })
        .unwrap();
        let leftovers: Vec<_> = std::fs::read_dir(&root).unwrap().collect();
        assert!(leftovers.is_empty(), "open must purge orphans: {leftovers:?}");
        // The purged root is immediately reusable for new segments.
        db.execute("CREATE TABLE t (id BIGINT PRIMARY KEY) USING FORMAT COLUMN")
            .unwrap();
        db.execute("INSERT INTO t VALUES (1)").unwrap();
        db.maintenance();
        assert_eq!(db.query("SELECT COUNT(*) FROM t").unwrap()[0][0], Value::Int(1));
        drop(db);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn buffer_pool_is_a_governed_carveout() {
        let db = Database::with_config(DbConfig {
            memory: Some(MemoryConfig::with_total(1 << 20)),
            buffer: Some(BufferConfig::with_pool(64 * 1024)),
            ..DbConfig::default()
        })
        .unwrap();
        db.execute("CREATE TABLE t (id BIGINT PRIMARY KEY, v BIGINT) USING FORMAT COLUMN")
            .unwrap();
        for i in 0..100 {
            db.execute(&format!("INSERT INTO t VALUES ({i}, {i})")).unwrap();
        }
        db.maintenance();
        db.query("SELECT SUM(v) FROM t").unwrap();
        let gov = db.memory_governor().unwrap();
        let stats = db.buffer_stats().unwrap();
        assert_eq!(
            gov.buffer_used(),
            stats.resident_bytes,
            "resident pages must be claimed from the governor carve-out"
        );
        assert!(gov.buffer_used() <= 64 * 1024);
    }

    #[test]
    fn as_of_reads_historical_snapshots() {
        let db = Database::new();
        db.execute("CREATE TABLE t (id BIGINT PRIMARY KEY, v BIGINT) USING FORMAT COLUMN")
            .unwrap();
        db.execute("INSERT INTO t VALUES (1, 10), (2, 20)").unwrap();
        let ts1 = db.txn_manager().now();
        db.execute("UPDATE t SET v = 99 WHERE id = 1").unwrap();
        db.execute("DELETE FROM t WHERE id = 2").unwrap();
        db.execute("INSERT INTO t VALUES (3, 30)").unwrap();

        // The present sees the mutations; AS OF ts1 sees the old world.
        assert_eq!(
            db.query("SELECT SUM(v) FROM t").unwrap()[0][0],
            Value::Int(99 + 30)
        );
        let hist = db
            .query(&format!("SELECT id, v FROM t AS OF {ts1} ORDER BY id"))
            .unwrap();
        assert_eq!(ints(&hist, 0), vec![1, 2]);
        assert_eq!(ints(&hist, 1), vec![10, 20]);

        // Future timestamps are rejected.
        let err = db.query("SELECT v FROM t AS OF 99999999").unwrap_err();
        assert!(matches!(err, DbError::InvalidArgument(_)), "{err}");

        // Maintenance destroys versions at/below the watermark, so the
        // same historical read now fails with a typed error.
        db.maintenance();
        assert!(db.history_floor() > ts1);
        let err = db
            .query(&format!("SELECT v FROM t AS OF {ts1}"))
            .unwrap_err();
        assert!(
            matches!(&err, DbError::InvalidArgument(m) if m.contains("history floor")),
            "{err}"
        );
        // Reads at or above the floor still work.
        let now = db.txn_manager().now();
        assert_eq!(
            db.query(&format!("SELECT SUM(v) FROM t AS OF {now}")).unwrap()[0][0],
            Value::Int(129)
        );
    }

    #[test]
    fn as_of_inside_txn_ignores_pending_writes() {
        let db = Database::new();
        db.execute("CREATE TABLE t (id BIGINT PRIMARY KEY, v BIGINT)").unwrap();
        db.execute("INSERT INTO t VALUES (1, 10)").unwrap();
        let ts = db.txn_manager().now();
        let mut s = db.session();
        s.execute("BEGIN").unwrap();
        s.execute("UPDATE t SET v = 77 WHERE id = 1").unwrap();
        // The session snapshot sees its own write; the historical read
        // must not.
        assert_eq!(
            s.execute("SELECT v FROM t").unwrap().rows()[0][0],
            Value::Int(77)
        );
        assert_eq!(
            s.execute(&format!("SELECT v FROM t AS OF {ts}")).unwrap().rows()[0][0],
            Value::Int(10)
        );
        s.execute("ROLLBACK").unwrap();
    }

    #[test]
    fn stats_surface_heat_and_freeze_counters() {
        let db = Database::new();
        db.execute("CREATE TABLE t (id BIGINT PRIMARY KEY, grp BIGINT, v BIGINT) USING FORMAT COLUMN")
            .unwrap();
        for chunk in 0..4 {
            let vals: Vec<String> = (0..250)
                .map(|i| {
                    let id = chunk * 250 + i;
                    format!("({id}, {}, {})", id % 5, id)
                })
                .collect();
            db.execute(&format!("INSERT INTO t VALUES {}", vals.join(", ")))
                .unwrap();
        }
        let before = db.query("SELECT grp, SUM(v) AS s FROM t GROUP BY grp ORDER BY grp").unwrap();
        db.maintenance(); // merge the delta into a main segment
        let stats = db.freeze_all(true).unwrap();
        assert!(stats.segments_frozen >= 1, "{stats:?}");
        assert!(
            stats.bytes_after <= stats.bytes_before,
            "frozen re-encoding must not grow: {stats:?}"
        );
        let after = db.query("SELECT grp, SUM(v) AS s FROM t GROUP BY grp ORDER BY grp").unwrap();
        assert_eq!(before, after, "freezing must not change results");

        let s = db.stats();
        assert!(s.heat.frozen_segments >= 1, "{s:?}");
        assert!(s.heat.frozen_scan_hits > 0, "frozen scans must be counted: {s:?}");
        assert_eq!(s.heat.segments_frozen_total, stats.segments_frozen as u64);
        assert!(s.buffer.is_none(), "no pool configured");

        // OLTP updates against frozen rows redirect through the delta.
        db.execute("UPDATE t SET v = 0 WHERE id = 3").unwrap();
        assert_eq!(
            db.query("SELECT v FROM t WHERE id = 3").unwrap()[0][0],
            Value::Int(0)
        );
    }

    #[test]
    fn heat_snapshot_survives_restart() {
        let dir = std::env::temp_dir().join(format!(
            "oltap_heat_{}_{}",
            std::process::id(),
            SPILL_ROOT_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let wal = dir.join("heat.wal");
        let heat_file = dir.join("heat.wal.heat");
        {
            let db = Database::open(&wal).unwrap();
            db.execute(
                "CREATE TABLE t (id BIGINT PRIMARY KEY, v BIGINT) USING FORMAT COLUMN",
            )
            .unwrap();
            let vals: Vec<String> = (0..300).map(|i| format!("({i}, {i})")).collect();
            db.execute(&format!("INSERT INTO t VALUES {}", vals.join(", ")))
                .unwrap();
            db.maintenance(); // merge the delta into a main segment
            for _ in 0..16 {
                db.query("SELECT SUM(v) FROM t").unwrap(); // heat it up
            }
            db.maintenance(); // decays + snapshots the heat
            assert!(heat_file.exists(), "maintenance must write the snapshot");
            assert!(db.stats().heat.total_heat > 0);
            // "crash": drop without any shutdown protocol.
        }
        {
            // Restart with the snapshot: two idle maintenance ticks are
            // enough to freeze a cold segment, but the restored heat must
            // keep the previously-hot one unfrozen.
            let db = Database::open(&wal).unwrap();
            db.maintenance();
            db.maintenance();
            assert_eq!(
                db.stats().heat.frozen_segments,
                0,
                "restart instantly re-froze a hot segment"
            );
            assert_eq!(
                db.query("SELECT COUNT(*) FROM t").unwrap()[0][0],
                Value::Int(300)
            );
        }
        {
            // Control: delete the snapshot and the same idle ticks freeze
            // the (now heatless) segment.
            std::fs::remove_file(&heat_file).unwrap();
            let db = Database::open(&wal).unwrap();
            db.maintenance();
            db.maintenance();
            db.maintenance();
            assert!(
                db.stats().heat.frozen_segments >= 1,
                "without the snapshot the recovered segment must freeze: {:?}",
                db.stats().heat
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn render_create_table_roundtrips_through_parser() {
        let schema = Schema::with_primary_key(
            vec![
                Field::not_null("a", DataType::Int64),
                Field::new("b", DataType::Utf8),
            ],
            &["a"],
        )
        .unwrap();
        let sql = render_create_table("x", &schema, TableFormat::Dual);
        let stmt = parse(&sql).unwrap();
        assert!(matches!(stmt, Statement::CreateTable { .. }));
    }
}
