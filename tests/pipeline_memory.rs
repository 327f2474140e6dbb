//! What a pipeline scan holds: each thread gathers the rows of the morsel
//! it claimed, so a statement's heap never holds the scan's whole output.
//! The oracle is the allocator itself — a counting `#[global_allocator]`
//! that shares no code with the engine.

use oltapdb::common::{Row, Value};
use oltapdb::core::{BufferConfig, Database, DbConfig, MemoryConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// The system allocator, counting the bytes live and their high-water mark.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded to `System` unchanged; the counters only
// observe the sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            let live = LIVE.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
            PEAK.fetch_max(live, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        unsafe { System.dealloc(p, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Rows of the probed table: twenty 16 Ki-row morsels, held or paged.
const ROWS: i64 = 20 * 16 * 1024;

/// Each statement, and the bytes its scan of `t` projects: eight a column
/// a row.
const STATEMENTS: [(&str, usize); 2] = [
    ("SELECT id, v FROM t ORDER BY v DESC, id LIMIT 10", ROWS as usize * 16),
    // A tenth of `t` finds a partner among the dimension's 100 rows.
    (
        "SELECT t.id, d.w FROM t JOIN d ON t.g = d.g ORDER BY t.v DESC, t.id LIMIT 10",
        ROWS as usize * 24,
    ),
];

/// `t` bulk-loaded into segments (paged through a pool of `pool_bytes`
/// when given), `d` a 100-row dimension; each query capped at
/// `query_bytes` when given.
fn load(pool_bytes: Option<u64>, query_bytes: Option<u64>) -> Arc<Database> {
    let db = Database::with_config(DbConfig {
        buffer: pool_bytes.map(|pool_bytes| BufferConfig {
            pool_bytes,
            page_rows: 16 * 1024,
            page_root: None,
        }),
        memory: query_bytes.map(|query_bytes| MemoryConfig {
            query_bytes,
            ..MemoryConfig::with_total(1 << 30)
        }),
        ..DbConfig::default()
    })
    .unwrap();
    db.execute("CREATE TABLE t (id BIGINT PRIMARY KEY, g BIGINT, v BIGINT, pad BIGINT) USING FORMAT COLUMN")
        .unwrap();
    db.execute("CREATE TABLE d (g BIGINT PRIMARY KEY, w BIGINT) USING FORMAT COLUMN")
        .unwrap();
    let int = Value::Int;
    let rows: Vec<Row> = (0..ROWS)
        .map(|i| Row::new(vec![int(i), int(i % 1000), int(i * 7919 % 1_000_003), int(i / 3)]))
        .collect();
    db.table("t").unwrap().columns().unwrap().bulk_load(&rows).unwrap();
    let txn = db.txn_manager().begin();
    let d = db.table("d").unwrap();
    for g in 0..100 {
        d.insert(&txn, Row::new(vec![int(g), int(g * 10)])).unwrap();
    }
    txn.commit().unwrap();
    db.maintenance();
    db
}

/// `sql`'s answer, and how far the heap grew above where it stood while
/// the statement ran.
fn measured(db: &Arc<Database>, sql: &str) -> (Vec<Row>, usize) {
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let rows = db.query(sql).unwrap();
    (rows, PEAK.load(Ordering::Relaxed).saturating_sub(base))
}

/// An `ORDER BY … LIMIT` over the table and a join probing it, held and
/// paged (a pool a quarter of the table), at one and two workers: the heap
/// grows by less than a quarter of the projected bytes — what one morsel
/// per thread holds, not the scan. Under a query budget below the
/// projected bytes the statements answer exactly as they do unbudgeted.
#[test]
fn a_pipeline_scan_holds_a_morsel_per_thread() {
    let held = load(None, None);
    let table_bytes = held.table("t").unwrap().columns().unwrap().sizes().main_bytes as u64;
    let budget = Some(ROWS as u64 * 16 / 8);
    for pool in [None, Some(table_bytes / 4)] {
        let storage = if pool.is_some() { "paged" } else { "held" };
        let unbudgeted = if pool.is_some() { load(pool, None) } else { Arc::clone(&held) };
        let budgeted = load(pool, budget);
        for workers in [1, 2] {
            for (sql, projected) in STATEMENTS {
                let mut want = None;
                for (db, tag) in [(&unbudgeted, "unbudgeted"), (&budgeted, "budgeted")] {
                    db.set_parallelism(workers);
                    let tag = format!("{storage} {tag} workers={workers}: {sql}");
                    // Once to meet everything for the first time (the pool's
                    // frames, the plan cache), then measured.
                    let warm = db.query(sql).unwrap();
                    let (rows, grew) = measured(db, sql);
                    assert_eq!(rows, warm, "{tag}");
                    assert_eq!(rows.len(), 10, "{tag}");
                    assert!(grew < projected / 4, "{tag}: the heap grew {grew} B; the scan projects {projected} B");
                    assert_eq!(&rows, want.get_or_insert_with(|| rows.clone()), "{tag}");
                }
            }
        }
    }
}
