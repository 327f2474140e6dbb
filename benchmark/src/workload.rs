//! The five workloads, and the environment each one runs in: a fresh
//! database, loaded, maintained once, behind a server on a loopback port.

use crate::ch::{self, Population};
use crate::gen::{OlapStream, OltpShape, OltpStream, Stream};
use oltap_core::{BufferConfig, Database, DbConfig, MaintenanceDaemon, MemoryConfig};
use oltap_sched::AdmissionConfig;
use oltap_server::{Server, ServerConfig};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// Why the workload exists, in one line (also in `BENCHMARK.json`).
    pub why: &'static str,
    pub warehouses: i64,
    /// Column pages go through a buffer pool a quarter the size of the
    /// page files.
    pub paged: bool,
    /// File WAL, loaded through SQL so that the load is logged, and checked
    /// after a reopen.
    pub durable: bool,
    /// Background maintenance interval.
    pub maintenance: Option<Duration>,
    pub oltp: Option<OltpShape>,
    /// `Some(true)` adds the freshness count to the analytic rotation.
    pub olap: Option<bool>,
    /// Ops the traced run replays.
    pub trace_ops: usize,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "point_read",
        why: "primary-key selects, one connection: session, parse, plan and edge overhead is most of the time, kernels almost none",
        warehouses: 16,
        paged: false,
        durable: false,
        maintenance: None,
        oltp: Some(OltpShape::PointRead),
        olap: None,
        trace_ops: 2000,
    },
    Workload {
        name: "olap_scan",
        why: "single-table CH scan+aggregate queries on resident data: milliseconds per statement, nearly all in exec and storage scan",
        warehouses: 16,
        paged: false,
        durable: false,
        maintenance: None,
        oltp: None,
        olap: Some(false),
        trace_ops: 126,
    },
    Workload {
        name: "olap_scan_paged",
        why: "the olap_scan statements with a buffer pool a quarter of the page files: page faulting and eviction dominate",
        warehouses: 16,
        paged: true,
        durable: false,
        maintenance: None,
        oltp: None,
        olap: Some(false),
        trace_ops: 126,
    },
    Workload {
        name: "oltp_write",
        why: "CH NewOrder and Payment transactions onto a file WAL: the point_read layers used for writes, plus MVCC commit, WAL append and delta insert",
        warehouses: 4,
        paged: false,
        durable: true,
        maintenance: None,
        oltp: Some(OltpShape::Write),
        olap: None,
        trace_ops: 200,
    },
    Workload {
        name: "htap_mixed",
        why: "one transactional and one analytic connection with maintenance ticking: admission, merge and CPU contention between the classes",
        warehouses: 8,
        paged: false,
        durable: false,
        maintenance: Some(Duration::from_millis(250)),
        oltp: Some(OltpShape::Mixed),
        olap: Some(true),
        trace_ops: 2000,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// The op streams, one per client connection; the transactional one
    /// first.
    pub fn streams(&self, seed: u64) -> Vec<Stream> {
        let mut out = Vec::new();
        if let Some(shape) = self.oltp {
            out.push(Stream::Oltp(OltpStream::new(seed, shape, self.warehouses)));
        }
        if let Some(freshness) = self.olap {
            out.push(Stream::Olap(OlapStream::new(
                seed ^ 0xA5A5_A5A5_5A5A_5A5A,
                freshness,
            )));
        }
        out
    }

    /// Every statement is a `SELECT`.
    pub fn read_only(&self) -> bool {
        matches!(self.oltp, None | Some(OltpShape::PointRead))
    }

    pub fn clients(&self) -> usize {
        usize::from(self.oltp.is_some()) + usize::from(self.olap.is_some())
    }

    /// `Some(reason)` when the host cannot run the workload as designed.
    pub fn skip_reason(&self) -> Option<String> {
        let cpus = available_parallelism();
        (self.clients() > cpus).then(|| {
            format!(
                "{} needs {} client threads and the host offers {cpus}",
                self.name,
                self.clients()
            )
        })
    }
}

pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Rows per column page. `BufferConfig::with_pool`'s default of 4096 makes
/// every CH scan fail (see the README's defect list), so it is pinned.
pub const PAGE_ROWS: usize = 1024;

/// The pool, as a share of the measured page-file bytes.
pub const POOL_SHARE: f64 = 0.25;

const MEMORY_TOTAL: u64 = 1 << 30;

/// The per-query cap `MemoryConfig::with_total` derives: half the analytic
/// carve-out, which is three quarters of the total.
pub const QUERY_BYTES: u64 = (MEMORY_TOTAL - MEMORY_TOTAL / 4) / 2;

/// A directory under `benchmark/out/`, removed when dropped. Everything a
/// run writes besides its reports lives in one.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    pub fn create(out_dir: &Path) -> std::io::Result<ScratchDir> {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = out_dir.join(format!(
            "run-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir)?;
        Ok(ScratchDir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

pub struct Env {
    pub db: Arc<Database>,
    pub server: Server,
    pub daemon: Option<MaintenanceDaemon>,
    pub dir: ScratchDir,
    pub wal_path: Option<PathBuf>,
    /// Bytes of page files after the first maintenance pass (paged only).
    pub page_file_bytes: Option<u64>,
    /// Buffer-pool capacity (paged only).
    pub pool_bytes: Option<u64>,
    /// Create + load + first maintenance + server start.
    pub setup_s: f64,
}

impl Env {
    /// Builds the workload's environment. `page_file_bytes` is the
    /// footprint an earlier build measured; without it a paged database
    /// gets an unbounded pool, which is how the footprint is measured.
    pub fn build(
        w: &Workload,
        pop: &Population,
        out_dir: &Path,
        page_file_bytes: Option<u64>,
    ) -> Result<Env, String> {
        let dir = ScratchDir::create(out_dir).map_err(|e| format!("scratch dir: {e}"))?;
        let wal_path = w.durable.then(|| dir.path().join("wal"));
        let pool_bytes = w
            .paged
            .then(|| page_file_bytes.map_or(u64::MAX, |b| ((b as f64 * POOL_SHARE) as u64).max(1)));
        let start = Instant::now();
        let db = Database::with_config(DbConfig {
            wal_path: wal_path.clone(),
            memory: Some(MemoryConfig::with_total(MEMORY_TOTAL)),
            admission: Some(AdmissionConfig::default()),
            spill_root: Some(dir.path().join("spill")),
            buffer: pool_bytes.map(|pool_bytes| BufferConfig {
                pool_bytes,
                page_rows: PAGE_ROWS,
                page_root: Some(dir.path().join("pages")),
            }),
            ..DbConfig::default()
        })
        .map_err(|e| format!("open database: {e}"))?;
        load(&db, pop, w.durable).map_err(|e| format!("load: {e}"))?;
        db.maintenance();
        let server = Server::start(Arc::clone(&db), ServerConfig::default())
            .map_err(|e| format!("start server: {e}"))?;
        let setup_s = start.elapsed().as_secs_f64();

        let page_file_bytes = w.paged.then(|| dir_bytes(&dir.path().join("pages")));
        let daemon = w.maintenance.map(|every| db.start_maintenance(every));
        Ok(Env {
            db,
            server,
            daemon,
            dir,
            wal_path,
            page_file_bytes,
            pool_bytes,
            setup_s,
        })
    }

    pub fn addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    /// Stops maintenance, drains the server and drops the database. The
    /// scratch directory is handed back so the caller can reopen the WAL.
    pub fn shutdown(self) -> Result<(ScratchDir, u64), String> {
        let ticks = self.daemon.as_ref().map_or(0, |d| d.ticks());
        drop(self.daemon);
        let report = self.server.drain();
        if report.forced > 0 || report.cancelled_after_grace > 0 {
            return Err(format!("server drain had to cut connections: {report:?}"));
        }
        drop(self.server);
        Arc::try_unwrap(self.db)
            .map(drop)
            .map_err(|_| "database still referenced after the drain".to_string())?;
        Ok((self.dir, ticks))
    }
}

fn load(db: &Arc<Database>, pop: &Population, through_sql: bool) -> oltap_common::Result<()> {
    for stmt in ch::ddl() {
        db.execute(stmt)?;
    }
    for (table, rows) in &pop.tables {
        if through_sql {
            // Bulk loads through `TableHandle::insert` bypass the WAL (see
            // the README's defect list); a durable workload loads through
            // statements so that a reopen finds the population.
            let mut session = db.session();
            for chunk in rows.chunks(500) {
                session.execute(&ch::insert_sql(table, chunk))?;
            }
        } else {
            let handle = db.table(table)?;
            for chunk in rows.chunks(2000) {
                let txn = db.txn_manager().begin();
                for row in chunk {
                    handle.insert(&txn, row.clone())?;
                }
                txn.commit()?;
            }
        }
    }
    Ok(())
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}
