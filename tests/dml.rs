//! DML as a plan: an `UPDATE` or `DELETE` finds its rows as the
//! `SELECT * … WHERE` it implies, and every DML statement ends in one write
//! sink that counts target rows and checks keys at statement end.

use oltapdb::common::{DbError, Value};
use oltapdb::core::Database;
use std::collections::BTreeMap;
use std::sync::Arc;

fn formats() -> [&'static str; 3] {
    ["ROW", "COLUMN", "DUAL"]
}

fn table(format: &str, rows: &str) -> Arc<Database> {
    let db = Database::new();
    db.execute(&format!(
        "CREATE TABLE t (id BIGINT PRIMARY KEY, v BIGINT) USING FORMAT {format}"
    ))
    .unwrap();
    db.execute(&format!("INSERT INTO t VALUES {rows}")).unwrap();
    db
}

fn pairs(db: &Arc<Database>) -> Vec<(i64, i64)> {
    db.query("SELECT id, v FROM t ORDER BY id")
        .unwrap()
        .iter()
        .map(|r| (r[0].as_int().unwrap(), r[1].as_int().unwrap()))
        .collect()
}

/// `affected` is the number of rows the statement targeted, whatever
/// writes it took to change them: a key-changing row is one row.
#[test]
fn affected_counts_target_rows() {
    for format in formats() {
        let db = table(format, "(1, 10), (2, 20), (3, 30)");
        let affected = |sql: &str| db.execute(sql).unwrap().affected();
        assert_eq!(affected("UPDATE t SET v = v + 1 WHERE id >= 2"), 2, "{format}");
        assert_eq!(affected("UPDATE t SET id = id + 10 WHERE id >= 2"), 2, "{format}");
        assert_eq!(affected("DELETE FROM t WHERE id > 10"), 2, "{format}");
        assert_eq!(affected("INSERT INTO t VALUES (4, 40), (5, 50), (6, 60)"), 3, "{format}");
        // A filter whose literals fold is planned from them each time.
        assert_eq!(affected("UPDATE t SET v = v WHERE id = 2 - 1"), 1, "{format}");
        assert_eq!(pairs(&db), [(1, 10), (4, 40), (5, 50), (6, 60)], "{format}");
    }
}

/// A statement's keys are checked at its end, not row by row in scan
/// order: shifting every key up by one succeeds as shifting it down does,
/// and what a live database shows is what its log replays to.
#[test]
fn key_changes_are_checked_at_statement_end() {
    let dir = std::env::temp_dir().join(format!("oltap_it_dml_keys_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for format in formats() {
        let path = dir.join(format!("{format}.wal"));
        let _ = std::fs::remove_file(&path);
        let live = {
            let db = Database::open(&path).unwrap();
            db.execute(&format!(
                "CREATE TABLE t (id BIGINT PRIMARY KEY, v BIGINT) USING FORMAT {format}"
            ))
            .unwrap();
            db.execute("INSERT INTO t VALUES (1, 10), (2, 20), (3, 30)").unwrap();
            let affected = |sql: &str| db.execute(sql).unwrap().affected();
            assert_eq!(affected("UPDATE t SET id = id + 1"), 3, "{format}");
            assert_eq!(pairs(&db), [(2, 10), (3, 20), (4, 30)], "{format}");
            assert_eq!(affected("UPDATE t SET id = id - 1"), 3, "{format}");
            assert_eq!(pairs(&db), [(1, 10), (2, 20), (3, 30)], "{format}");

            // Two rows moved onto one key: refused, and neither moves.
            let err = db.execute("UPDATE t SET id = 7 WHERE id <= 2").unwrap_err();
            assert!(matches!(err, DbError::DuplicateKey(_)), "{format}: {err}");
            assert_eq!(pairs(&db), [(1, 10), (2, 20), (3, 30)], "{format}");

            // Inside a transaction, beside a key change that stays put.
            let mut s = db.session();
            s.execute("BEGIN").unwrap();
            s.execute("UPDATE t SET id = id + 1, v = v + 1").unwrap();
            s.execute("UPDATE t SET id = id * 10 WHERE id >= 3").unwrap();
            s.execute("COMMIT").unwrap();
            let live = pairs(&db);
            assert_eq!(live, [(2, 11), (30, 21), (40, 31)], "{format}");
            live
        };
        let reopened = pairs(&Database::open(&path).unwrap());
        assert_eq!(live, reopened, "{format}: live state is what the log holds");
        std::fs::remove_file(&path).unwrap();
    }
}

/// The Halloween problem: a statement never sees its own writes, so an
/// `UPDATE` that moves every key past the scan's position moves each row
/// exactly once — over merged segments and the delta, with the scan fanned
/// out over helpers — and a `DELETE` of the moved rows removes each once.
#[test]
fn every_target_row_moves_exactly_once() {
    const SHIFT: i64 = 1_000_000;
    for format in ["COLUMN", "DUAL"] {
        let db = Database::new();
        db.set_parallelism(2);
        db.execute(&format!(
            "CREATE TABLE t (id BIGINT PRIMARY KEY, v BIGINT) USING FORMAT {format}"
        ))
        .unwrap();
        let mut model = BTreeMap::new();
        let mut load = |from: i64, n: i64| {
            for chunk in (from..from + n).collect::<Vec<_>>().chunks(2000) {
                let values: Vec<String> = chunk
                    .iter()
                    .map(|id| {
                        model.insert(*id, id % 97);
                        format!("({id}, {})", id % 97)
                    })
                    .collect();
                db.execute(&format!("INSERT INTO t VALUES {}", values.join(", ")))
                    .unwrap();
            }
        };
        load(0, 20_000);
        db.maintenance();
        load(20_000, 20_000);
        db.maintenance();
        load(40_000, 4_000);
        let n = model.len();
        let pool = db.worker_pool().unwrap();
        let helped = pool.completed();

        let moved = db
            .execute(&format!("UPDATE t SET id = id + {SHIFT} WHERE id < {SHIFT}"))
            .unwrap()
            .affected();
        assert_eq!(moved, n, "{format}");
        while !pool.is_idle() {
            std::thread::yield_now();
        }
        assert!(pool.completed() > helped, "{format}: no helper claimed a morsel — vacuous");
        let model: BTreeMap<i64, i64> = model.into_iter().map(|(id, v)| (id + SHIFT, v)).collect();
        let got: BTreeMap<i64, i64> = pairs(&db).into_iter().collect();
        assert!(got == model, "{format}: {} rows against {} modelled", got.len(), model.len());

        let deleted = db
            .execute(&format!("DELETE FROM t WHERE id >= {SHIFT}"))
            .unwrap()
            .affected();
        assert_eq!(deleted, n, "{format}");
        assert_eq!(db.query("SELECT COUNT(*) FROM t").unwrap()[0][0], Value::Int(0), "{format}");
    }
}
