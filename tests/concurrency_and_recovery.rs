//! Integration tests for concurrency (snapshot isolation, conflicts,
//! concurrent sessions) and durability (WAL crash recovery, torn tails).

use oltapdb::common::{DbError, Value};
use oltapdb::core::{Database, QueryResult};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

#[test]
fn concurrent_transfer_storm_conserves_total() {
    // The classic bank test: concurrent transfers between accounts must
    // conserve the total balance despite write conflicts.
    let db = Database::new();
    db.execute("CREATE TABLE accts (id BIGINT PRIMARY KEY, bal BIGINT)")
        .unwrap();
    let accounts = 20i64;
    let mut s = db.session();
    s.execute("BEGIN").unwrap();
    for i in 0..accounts {
        s.execute(&format!("INSERT INTO accts VALUES ({i}, 1000)"))
            .unwrap();
    }
    s.execute("COMMIT").unwrap();

    let conflicts = Arc::new(AtomicU64::new(0));
    let committed = Arc::new(AtomicU64::new(0));
    std::thread::scope(|scope| {
        for t in 0..4u64 {
            let db = Arc::clone(&db);
            let conflicts = Arc::clone(&conflicts);
            let committed = Arc::clone(&committed);
            scope.spawn(move || {
                let mut session = db.session();
                for i in 0..100u64 {
                    let from = ((t * 37 + i * 11) % accounts as u64) as i64;
                    let to = ((t * 13 + i * 7) % accounts as u64) as i64;
                    if from == to {
                        continue;
                    }
                    session.execute("BEGIN").unwrap();
                    let r = (|| -> Result<(), DbError> {
                        session
                            .execute(&format!(
                                "UPDATE accts SET bal = bal - 10 WHERE id = {from}"
                            ))?;
                        session
                            .execute(&format!(
                                "UPDATE accts SET bal = bal + 10 WHERE id = {to}"
                            ))?;
                        Ok(())
                    })();
                    match r {
                        Ok(()) => {
                            session.execute("COMMIT").unwrap();
                            committed.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(_) => {
                            let _ = session.execute("ROLLBACK");
                            conflicts.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            });
        }
    });

    let total = db.query("SELECT SUM(bal) FROM accts").unwrap()[0][0]
        .as_int()
        .unwrap();
    assert_eq!(total, accounts * 1000, "money leaked!");
    assert!(committed.load(Ordering::Relaxed) > 0);
    // With 4 threads over 20 accounts we expect some conflicts; all must
    // have rolled back cleanly (asserted by the conserved total).
}

#[test]
fn long_analytic_snapshot_ignores_later_commits() {
    let db = Database::new();
    db.execute("CREATE TABLE t (id BIGINT PRIMARY KEY, v BIGINT) USING FORMAT COLUMN")
        .unwrap();
    let mut s = db.session();
    s.execute("BEGIN").unwrap();
    for i in 0..1000 {
        s.execute(&format!("INSERT INTO t VALUES ({i}, 1)")).unwrap();
    }
    s.execute("COMMIT").unwrap();

    let mut analyst = db.session();
    analyst.execute("BEGIN").unwrap();
    let sum0 = analyst.execute("SELECT SUM(v) FROM t").unwrap().rows()[0][0].clone();

    // Heavy concurrent churn, including a merge.
    std::thread::scope(|scope| {
        let db2 = Arc::clone(&db);
        scope.spawn(move || {
            for i in 0..200 {
                db2.execute(&format!("UPDATE t SET v = 100 WHERE id = {i}"))
                    .unwrap();
            }
            db2.maintenance();
        });
        for _ in 0..10 {
            let s = analyst.execute("SELECT SUM(v) FROM t").unwrap().rows()[0][0].clone();
            assert_eq!(s, sum0, "analyst's snapshot drifted");
        }
    });
    analyst.execute("COMMIT").unwrap();

    let now = db.query("SELECT SUM(v) FROM t").unwrap()[0][0].clone();
    assert_eq!(now, Value::Int(1000 - 200 + 200 * 100));
}

#[test]
fn recovery_replays_interleaved_ddl_and_dml() {
    let dir = std::env::temp_dir().join(format!("oltap_it_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("interleaved.wal");
    let _ = std::fs::remove_file(&path);
    {
        let db = Database::open(&path).unwrap();
        db.execute("CREATE TABLE a (id BIGINT PRIMARY KEY, v BIGINT)").unwrap();
        db.execute("INSERT INTO a VALUES (1, 1)").unwrap();
        db.execute("CREATE TABLE b (id BIGINT PRIMARY KEY, s TEXT) USING FORMAT DUAL")
            .unwrap();
        db.execute("INSERT INTO b VALUES (1, 'x')").unwrap();
        db.execute("UPDATE a SET v = 2 WHERE id = 1").unwrap();
        db.execute("DROP TABLE b").unwrap();
        db.execute("CREATE TABLE b (id BIGINT PRIMARY KEY, n BIGINT)").unwrap();
        db.execute("INSERT INTO b VALUES (7, 70)").unwrap();
        // Multi-statement transaction.
        let mut s = db.session();
        s.execute("BEGIN").unwrap();
        s.execute("INSERT INTO a VALUES (2, 20)").unwrap();
        s.execute("INSERT INTO b VALUES (8, 80)").unwrap();
        s.execute("COMMIT").unwrap();
        // An aborted transaction must NOT reappear after recovery.
        let mut s = db.session();
        s.execute("BEGIN").unwrap();
        s.execute("INSERT INTO a VALUES (99, 99)").unwrap();
        s.execute("ROLLBACK").unwrap();
    }
    let db = Database::open(&path).unwrap();
    assert_eq!(
        db.query("SELECT v FROM a WHERE id = 1").unwrap()[0][0],
        Value::Int(2)
    );
    assert_eq!(
        db.query("SELECT COUNT(*) FROM a").unwrap()[0][0],
        Value::Int(2)
    );
    // The recreated b has the new schema and both rows.
    let rows = db.query("SELECT id, n FROM b ORDER BY id").unwrap();
    assert_eq!(rows.len(), 2);
    assert_eq!(rows[1][1], Value::Int(80));
    // Aborted insert is gone.
    assert_eq!(
        db.query("SELECT COUNT(*) FROM a WHERE id = 99").unwrap()[0][0],
        Value::Int(0)
    );
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn recovery_is_deterministic_after_repeated_crashes() {
    let dir = std::env::temp_dir().join(format!("oltap_it2_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("repeat.wal");
    let _ = std::fs::remove_file(&path);
    // Crash/reopen in a loop, appending more work each generation.
    for generation in 0..5i64 {
        let db = Database::open(&path).unwrap();
        if generation == 0 {
            db.execute("CREATE TABLE g (id BIGINT PRIMARY KEY, gen BIGINT)").unwrap();
        }
        for i in 0..20 {
            db.execute(&format!(
                "INSERT INTO g VALUES ({}, {generation})",
                generation * 100 + i
            ))
            .unwrap();
        }
        // dropped = crash
    }
    let db = Database::open(&path).unwrap();
    assert_eq!(
        db.query("SELECT COUNT(*) FROM g").unwrap()[0][0],
        Value::Int(100)
    );
    let per_gen = db
        .query("SELECT gen, COUNT(*) FROM g GROUP BY gen ORDER BY gen")
        .unwrap();
    assert_eq!(per_gen.len(), 5);
    for r in per_gen {
        assert_eq!(r[1], Value::Int(20));
    }
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn sessions_are_isolated_from_each_other() {
    let db = Database::new();
    db.execute("CREATE TABLE t (id BIGINT PRIMARY KEY, v BIGINT)").unwrap();
    db.execute("INSERT INTO t VALUES (1, 0)").unwrap();

    let mut s1 = db.session();
    let mut s2 = db.session();
    s1.execute("BEGIN").unwrap();
    s2.execute("BEGIN").unwrap();
    s1.execute("INSERT INTO t VALUES (2, 2)").unwrap();
    // s2 does not see s1's uncommitted insert.
    assert_eq!(
        s2.execute("SELECT COUNT(*) FROM t").unwrap().rows()[0][0],
        Value::Int(1)
    );
    // s1 sees its own.
    assert_eq!(
        s1.execute("SELECT COUNT(*) FROM t").unwrap().rows()[0][0],
        Value::Int(2)
    );
    s1.execute("COMMIT").unwrap();
    // s2's snapshot predates the commit.
    assert_eq!(
        s2.execute("SELECT COUNT(*) FROM t").unwrap().rows()[0][0],
        Value::Int(1)
    );
    s2.execute("COMMIT").unwrap();
    assert_eq!(
        db.query("SELECT COUNT(*) FROM t").unwrap()[0][0],
        Value::Int(2)
    );
}

/// MVCC snapshots under a write storm (tutorial §4, HyPer): one analytic
/// transaction scans again and again while writer threads commit updates
/// under it, and a writer holds uncommitted versions of half the rows it
/// scans. Every scan sums what the first did, and none waits on a writer:
/// the holder never commits while the reader runs, so a scan that waited
/// would wait forever.
#[test]
fn analytic_scans_are_stable_and_unblocked_under_writer_threads() {
    const ROWS: i64 = 2_000;
    for format in ["ROW", "COLUMN", "DUAL"] {
        let db = Database::new();
        db.execute(&format!(
            "CREATE TABLE t (id BIGINT PRIMARY KEY, v BIGINT) USING FORMAT {format}"
        ))
        .unwrap();
        let values: Vec<String> = (0..ROWS).map(|i| format!("({i}, 1)")).collect();
        db.execute(&format!("INSERT INTO t VALUES {}", values.join(", ")))
            .unwrap();
        // Merged, so the writers stamp main rows as well as delta versions.
        db.maintenance();
        let mut holder = db.session();
        holder.execute("BEGIN").unwrap();
        holder
            .execute(&format!("UPDATE t SET v = v + 1000 WHERE id >= {}", ROWS / 2))
            .unwrap();

        let stop = Arc::new(AtomicBool::new(false));
        let committed = Arc::new(AtomicU64::new(0));
        let writers: Vec<_> = (0..3)
            .map(|w| {
                let (db, stop) = (Arc::clone(&db), Arc::clone(&stop));
                let committed = Arc::clone(&committed);
                std::thread::spawn(move || {
                    // The lower half only; two writers on one key may
                    // conflict, and the loser's update is rolled back.
                    let mut i = w;
                    while !stop.load(Ordering::Relaxed) {
                        let sql = format!("UPDATE t SET v = v + 1 WHERE id = {}", i % (ROWS / 2));
                        if db.execute(&sql).is_ok() {
                            committed.fetch_add(1, Ordering::Relaxed);
                        }
                        i += 3;
                    }
                })
            })
            .collect();

        let (tx, rx) = mpsc::channel();
        let (reader_db, reader_committed) = (Arc::clone(&db), Arc::clone(&committed));
        std::thread::spawn(move || {
            let mut reader = reader_db.session();
            reader.execute("BEGIN").unwrap();
            let mut sum = || reader.execute("SELECT SUM(v) FROM t").unwrap().rows()[0][0].clone();
            let mut sums = vec![sum()];
            let floor = reader_committed.load(Ordering::Relaxed) + 200;
            while sums.len() < 10 || reader_committed.load(Ordering::Relaxed) < floor {
                sums.push(sum());
            }
            reader.execute("COMMIT").unwrap();
            tx.send(sums).unwrap();
        });
        let sums = rx.recv_timeout(Duration::from_secs(120));
        stop.store(true, Ordering::Relaxed);
        for w in writers {
            w.join().unwrap();
        }
        let sums = sums.unwrap_or_else(|_| panic!("{format}: a scan waited on a writer"));
        holder.execute("ROLLBACK").unwrap();

        assert!(sums.iter().all(|s| *s == sums[0]), "{format}: {sums:?}");
        let total = ROWS + committed.load(Ordering::Relaxed) as i64;
        assert_eq!(db.query("SELECT SUM(v) FROM t").unwrap()[0][0], Value::Int(total), "{format}");
    }
}

/// A statement that fails inside `BEGIN` after it has written rolls the
/// whole transaction back: its rows are never visible, every later
/// statement answers `TxnClosed` until `COMMIT` (which answers it too) or
/// `ROLLBACK`, and what a live database shows is what it shows reopened.
/// A statement that fails before writing leaves the transaction open.
#[test]
fn a_statement_failing_after_it_wrote_rolls_its_transaction_back() {
    let dir = std::env::temp_dir().join(format!("oltap_it_atomic_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let closed = |r: Result<QueryResult, DbError>| {
        matches!(r, Err(DbError::TxnClosed(_)))
    };
    for format in ["ROW", "COLUMN", "DUAL"] {
        let path = dir.join(format!("{format}.wal"));
        let _ = std::fs::remove_file(&path);
        let all = "SELECT id, v FROM t ORDER BY id";
        let live = {
            let db = Database::open(&path).unwrap();
            let ddl = format!("CREATE TABLE t (id BIGINT PRIMARY KEY, v BIGINT) USING FORMAT {format}");
            db.execute(&ddl).unwrap();
            db.execute("INSERT INTO t VALUES (2, 20), (3, 30)").unwrap();
            let mut s = db.session();

            // An INSERT whose first row lands and whose second is a
            // duplicate; COMMIT answers `TxnClosed` and ends the block.
            s.execute("BEGIN").unwrap();
            s.execute("INSERT INTO t VALUES (5, 50)").unwrap();
            assert!(s.execute("INSERT INTO t VALUES (1, 10), (2, 21)").is_err(), "{format}");
            assert!(closed(s.execute("SELECT COUNT(*) FROM t")), "{format}");
            assert!(closed(s.execute("INSERT INTO t VALUES (6, 60)")), "{format}");
            assert!(closed(s.execute("COMMIT")), "{format}");
            assert!(!s.in_transaction(), "{format}");

            // A primary-key-changing UPDATE: its delete lands, its insert
            // is a duplicate; ROLLBACK answers as ever.
            s.execute("BEGIN").unwrap();
            assert!(s.execute("UPDATE t SET id = 3 WHERE id = 2").is_err(), "{format}");
            assert!(closed(s.execute("UPDATE t SET v = 0 WHERE id = 3")), "{format}");
            let rollback = s.execute("ROLLBACK").unwrap();
            assert!(matches!(rollback, QueryResult::Txn("ROLLBACK")), "{format}");

            // Failing before any write leaves the transaction open.
            s.execute("BEGIN").unwrap();
            assert!(s.execute("INSERT INTO t VALUES (2, 22)").is_err(), "{format}");
            s.execute("INSERT INTO t VALUES (7, 70)").unwrap();
            s.execute("COMMIT").unwrap();

            let live = db.query(all).unwrap();
            let want = [[2, 20], [3, 30], [7, 70]].map(|r| r.map(Value::Int).to_vec());
            assert_eq!(
                live.iter().map(|r| r.values().to_vec()).collect::<Vec<_>>(),
                want,
                "{format}"
            );
            live
        };
        let reopened = Database::open(&path).unwrap().query(all).unwrap();
        assert_eq!(live, reopened, "{format}: live state is what the log holds");
        std::fs::remove_file(&path).unwrap();
    }
}
