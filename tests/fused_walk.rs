//! A fused `Aggregate(Scan)` answers the same bits whoever folds it. Its
//! float sums are defined over stripes of selected rows in scan order, so
//! they cannot depend on how many workers claim the walk's morsels and
//! stripes, on where the rows are stored, or on which path each piece
//! takes.

use oltapdb::common::fault::{points, FaultInjector, FaultPoint};
use oltapdb::common::{Row, Value};
use oltapdb::core::{BufferConfig, Database, DbConfig, TableHandle};
use oltapdb::sched::WorkerPool;
use std::sync::Arc;

#[allow(dead_code)]
mod common;

use common::{model_aggregate, same_rows, STRIPE_ROWS};

/// Rows in the first segment: exactly two stripes, so an unfiltered walk
/// cuts a stripe at the boundary between the segments.
const FIRST: i64 = 2 * STRIPE_ROWS as i64;
/// Rows in the second segment, some of them deleted.
const SECOND: i64 = 30_000;
/// Rows left in the delta: the fourth stripe cut falls among them.
const FRESH: i64 = 8_232;

/// Floats whose sum depends on the order they are added in: tenths at
/// magnitudes from 1e-3 to 1e9, every seventeenth NULL.
fn amount(i: i64) -> Value {
    if i % 17 == 0 {
        return Value::Null;
    }
    Value::Float((i * 37 % 1009) as f64 * 0.1 * 10f64.powi((i % 5) as i32 * 3 - 3))
}

fn row(i: i64) -> Row {
    let s = ["a", "b", "c", "d", "e"][(i % 5) as usize];
    Row::new(vec![
        Value::Int(i),
        Value::Int(i % 7),
        Value::Str(s.into()),
        Value::Int((i * 31) % 11),
        amount(i),
    ])
}

/// How the table's segments are stored.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Storage {
    Held,
    /// 64-row pages, so each row group is 64 rows.
    Paged,
    Frozen,
    /// The two segments coalesced into one by the maintenance pass.
    Coalesced,
}

/// The table, loaded: a segment of [`FIRST`] rows, one of [`SECOND`] rows
/// with every 97th deleted, and [`FRESH`] committed rows in the delta —
/// more than four stripes. The database's fault injector is returned for
/// the caller to arm.
fn load(storage: Storage) -> (Arc<Database>, Arc<FaultInjector>) {
    let faults = FaultInjector::new(0x35);
    let buffer = (storage == Storage::Paged).then_some(BufferConfig {
        pool_bytes: u64::MAX,
        page_rows: 64,
        page_root: None,
    });
    let db = Database::with_config(DbConfig {
        faults: Some(Arc::clone(&faults)),
        buffer,
        ..DbConfig::default()
    })
    .unwrap();
    db.execute("CREATE TABLE t (id BIGINT PRIMARY KEY, g BIGINT, s TEXT, v BIGINT, f DOUBLE) USING FORMAT COLUMN")
        .unwrap();
    let handle = db.table("t").unwrap();
    let TableHandle::Column(t) = &handle else {
        panic!("a column table");
    };
    let insert = |ids: std::ops::Range<i64>| {
        let txn = db.txn_manager().begin();
        for i in ids {
            handle.insert(&txn, row(i)).unwrap();
        }
        txn.commit().unwrap();
    };
    // Merged one load at a time, so the segments are the loads.
    insert(0..FIRST);
    t.merge(db.txn_manager().gc_watermark()).unwrap();
    insert(FIRST..FIRST + SECOND);
    t.merge(db.txn_manager().gc_watermark()).unwrap();
    let txn = db.txn_manager().begin();
    for i in (FIRST..FIRST + SECOND).filter(|i| i % 97 == 5) {
        handle.delete(&txn, &Row::new(vec![Value::Int(i)])).unwrap();
    }
    txn.commit().unwrap();
    match storage {
        Storage::Frozen => assert!(db.freeze_all(true).unwrap().segments_frozen >= 2),
        Storage::Coalesced => drop(db.maintenance()),
        Storage::Held | Storage::Paged => {}
    }
    assert_eq!(t.sizes().segments, if storage == Storage::Coalesced { 1 } else { 2 });
    insert(FIRST + SECOND..FIRST + SECOND + FRESH);
    (db, faults)
}

const STATEMENTS: [&str; 3] = [
    "SELECT g, COUNT(*), SUM(f), AVG(f), MIN(f), MAX(v) FROM t GROUP BY g ORDER BY g",
    // Filtered: the stripe cuts fall inside selection words.
    "SELECT COUNT(*), SUM(f), AVG(v) FROM t WHERE v <> 3",
    "SELECT s, SUM(f), COUNT(f) FROM t WHERE f > 0.5 GROUP BY s ORDER BY s",
];

/// The expression-key (or expression-filter) twin of each of
/// [`STATEMENTS`], in order: the same aggregates over the same rows, which
/// the fused path refuses, so the pipelines' aggregate sink answers — at
/// more than one worker, fanned out over parked stage output.
const TWINS: [&str; 3] = [
    "SELECT g + 0, COUNT(*), SUM(f), AVG(f), MIN(f), MAX(v) FROM t GROUP BY g + 0",
    "SELECT COUNT(*), SUM(f), AVG(v) FROM t WHERE v + 0 <> 3",
    "SELECT s, SUM(f), COUNT(f) FROM t WHERE f + 0.0 > 0.5 GROUP BY s ORDER BY s",
];

/// The tasks `pool` has finished, once it is idle: a task hands its work in
/// a moment before the pool counts it.
fn settled(pool: &WorkerPool) -> u64 {
    let since = std::time::Instant::now();
    while !pool.is_idle() {
        assert!(since.elapsed().as_secs() < 10, "the pool never settled");
        std::thread::yield_now();
    }
    pool.completed()
}

/// Held, paged (64-row pages), frozen and coalesced, at 1, 2 and 4 workers,
/// with `exec.kernel_fallback` at 0, 0.4 and 1: every answer is the same
/// bits, and those are the model's. Beside the walk, another transaction
/// holds pending deletes in both segments and a bystander a pending insert
/// — neither visible, neither in the way. On held segments the pool's
/// helpers did run: the statement's pool tasks outnumber the paged walk's,
/// which takes one pass. Each statement's twin ([`TWINS`]) answers the same
/// bits at every storage and worker count, and the model's; on held
/// storage at more than one worker the pool's helpers ran it.
#[test]
fn fused_walk_is_worker_count_independent() {
    let mut want: Option<Vec<Vec<Row>>> = None;
    // Pool tasks a statement caused on the paged table, by (statement,
    // workers): the pipelines' alone.
    let mut pipeline_tasks = std::collections::HashMap::new();
    for storage in [Storage::Paged, Storage::Held, Storage::Frozen, Storage::Coalesced] {
        let (db, faults) = load(storage);
        let handle = db.table("t").unwrap();
        let deleter = db.txn_manager().begin();
        for i in (100..150).chain(40_000..40_100).filter(|i| i % 97 != 5) {
            handle.delete(&deleter, &Row::new(vec![Value::Int(i)])).unwrap();
        }
        let bystander = db.txn_manager().begin();
        for i in 80_000..80_100 {
            handle.insert(&bystander, row(i)).unwrap();
        }
        for workers in [1, 2, 4] {
            db.set_parallelism(workers);
            for p in [0.0, 0.4, 1.0] {
                faults.arm(points::EXEC_KERNEL_FALLBACK, FaultPoint::with_probability(p));
                let answers: Vec<Vec<Row>> = STATEMENTS
                    .iter()
                    .enumerate()
                    .map(|(q, sql)| {
                        let done = |db: &Arc<Database>| db.worker_pool().map_or(0, |pool| settled(&pool));
                        let before = done(&db);
                        let answer = db.query(sql).unwrap();
                        let tasks = done(&db) - before;
                        if workers > 1 {
                            let tag = format!("{storage:?} {sql} workers={workers}");
                            match storage {
                                Storage::Paged => {
                                    pipeline_tasks.insert((q, workers), tasks);
                                }
                                _ => assert!(tasks > pipeline_tasks[&(q, workers)], "{tag}: no helper ran"),
                            }
                        }
                        answer
                    })
                    .collect();
                if p == 0.0 {
                    for ((twin, sql), answer) in TWINS.iter().zip(STATEMENTS).zip(&answers) {
                        let tag = format!("{storage:?} workers={workers}: {twin}");
                        let before = db.worker_pool().map_or(0, |pool| settled(&pool));
                        let got = db.query(twin).unwrap();
                        let tasks = db.worker_pool().map_or(0, |pool| settled(&pool)) - before;
                        assert!(same_rows(&got, answer), "{tag}: not {sql}'s answer\n{got:?}\n{answer:?}");
                        assert!(same_rows(&got, &model_aggregate(&db, twin)), "{tag}: not the model's");
                        if workers > 1 && storage != Storage::Paged {
                            assert!(tasks > 0, "{tag}: no helper ran");
                        }
                    }
                }
                let tag = format!("{storage:?} workers={workers} fallback={p}");
                match &want {
                    None => {
                        for (sql, answer) in STATEMENTS.iter().zip(&answers) {
                            assert!(same_rows(answer, &model_aggregate(&db, sql)), "model: {sql}");
                        }
                        want = Some(answers);
                    }
                    Some(want) => {
                        for ((sql, a), w) in STATEMENTS.iter().zip(&answers).zip(want) {
                            assert!(same_rows(a, w), "{tag}: {sql}\n{a:?}\n{w:?}");
                        }
                    }
                }
            }
            faults.disarm(points::EXEC_KERNEL_FALLBACK);
        }
        assert!(faults.fired_count() > 0, "{storage:?}: the scalar path never ran");
        deleter.abort().unwrap();
        drop(bystander);
    }
}
