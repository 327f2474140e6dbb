//! Every statement of a seeded stream from two racing sessions gets the
//! same outcome from a ROW, a COLUMN and a DUAL table: three tables of one
//! type, with a row side, a columnar side or both. A DUAL table writes
//! each statement to its row side and then to its columnar side. Both sides
//! apply first-committer-wins to the same history, so the columnar write
//! never fails where the row write succeeded, and the two sides hold the
//! same rows at every snapshot, `AS OF` included.

use oltapdb::common::ids::TxnId;
use oltapdb::common::{DbError, Result, Row};
use oltapdb::core::{Database, QueryResult, Session};
use oltapdb::storage::ScanPredicate;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

const KEYS: i64 = 40;
const NOBODY: TxnId = TxnId(u64::MAX - 3);
/// The formats the stream runs against; the first is the one whose two
/// sides are compared.
const FORMATS: [&str; 3] = ["DUAL", "COLUMN", "ROW"];

/// What a statement came to: its rows or count, or the kind of its error.
/// An insert refused because a newer version of its key exists takes the
/// row side's kind when the table has a row side: `DuplicateKey` where that
/// version is live, `WriteConflict` where it is a delete after the
/// snapshot. A COLUMN table checks its merged rows first, so a merged row
/// deleted after the snapshot is a `WriteConflict` even where the key has
/// been inserted again since (`a_refused_insert_takes_the_row_sides_kind`).
/// Both kinds are the same refusal, and shown as one.
fn outcome(r: Result<QueryResult>) -> String {
    match r {
        Ok(QueryResult::Affected(n)) => format!("affected {n}"),
        Ok(QueryResult::Txn(done)) => done.to_string(),
        Ok(r) => format!("{:?}", r.rows()),
        Err(DbError::WriteConflict(_) | DbError::DuplicateKey(_)) => "refused".into(),
        Err(e) => format!("{e:?}"),
    }
}

fn database(format: &str) -> Arc<Database> {
    let db = Database::new();
    db.execute(&format!(
        "CREATE TABLE t (id BIGINT PRIMARY KEY, g BIGINT, v BIGINT) USING FORMAT {format}"
    ))
    .unwrap();
    db
}

/// The next statement of a session, `open` when it is inside `BEGIN`.
fn statement(rng: &mut StdRng, open: bool) -> String {
    let (k, x) = (rng.gen_range(0..KEYS), rng.gen_range(-9..10i64));
    match rng.gen_range(0..if open { 10 } else { 8 }) {
        0 if !open => "BEGIN".into(),
        0 => "SELECT COUNT(*), SUM(v) FROM t".into(),
        1 | 2 => format!("INSERT INTO t VALUES ({k}, {}, {x})", k % 4),
        3 | 4 => format!("UPDATE t SET v = v + {x} WHERE id = {k}"),
        5 => format!("DELETE FROM t WHERE id = {k}"),
        // Targets found by a scan: the columnar side's, for DUAL.
        6 => format!("UPDATE t SET v = v * 2 WHERE g = {} AND v > {x}", k % 4),
        7 => "SELECT id, g, v FROM t ORDER BY id".into(),
        8 => "COMMIT".into(),
        _ => "ROLLBACK".into(),
    }
}

/// The rows of `t` at `read_ts` two ways: the row side's scan and the
/// columnar side's, each sorted.
fn both_sides(db: &Arc<Database>, read_ts: u64) -> (Vec<Row>, Vec<Row>) {
    let handle = db.table("t").unwrap();
    let all = ScanPredicate::all();
    let sorted = |batches: Vec<oltapdb::common::Batch>| {
        let mut rows: Vec<Row> = batches.iter().flat_map(|b| b.to_rows()).collect();
        rows.sort();
        rows
    };
    assert!(handle.columns().is_some(), "a columnar side, which `scan` reads");
    let rows = handle.rows().expect("a row side").scan(&[0, 1, 2], &all, read_ts, NOBODY, 7);
    (sorted(rows.unwrap()), sorted(handle.scan(&[0, 1, 2], &all, read_ts, NOBODY, 7).unwrap()))
}

#[test]
fn conflicting_sessions_get_the_column_twins_outcomes_and_both_sides_agree() {
    for case in 0..6u64 {
        let seed = 0xD0A1 ^ case;
        let mut rng = StdRng::seed_from_u64(seed);
        let dbs = FORMATS.map(database);
        let dual = &dbs[0];
        let mut sessions: Vec<[Session; 2]> =
            dbs.iter().map(|db| [db.session(), db.session()]).collect();
        let (mut conflicts, mut snapshots) = (0, Vec::new());
        for step in 0..600 {
            let who = rng.gen_range(0..2);
            let sql = statement(&mut rng, sessions[0][who].in_transaction());
            let got: Vec<_> = sessions.iter_mut().map(|s| s[who].execute(&sql)).collect();
            conflicts += usize::from(matches!(got[0], Err(DbError::WriteConflict(_))));
            let got: Vec<String> = got.into_iter().map(outcome).collect();
            for (format, twin) in FORMATS.iter().zip(&got).skip(1) {
                let at = format!("seed={seed:#x} step {step} session {who} {format}");
                assert_eq!(&got[0], twin, "{at}: {sql}");
            }
            if step % 150 == 149 && step < 450 {
                for db in &dbs {
                    db.maintenance();
                }
            }
            // Whatever the sessions hold open, a reader sees one table.
            let now = dbs.each_ref().map(|db| db.txn_manager().now());
            let (rows, columns) = both_sides(dual, now[0]);
            assert_eq!(rows, columns, "seed={seed:#x} step {step}: {sql}");
            if step >= 450 {
                snapshots.push((now, rows));
            }
        }
        assert!(conflicts > 0, "seed={seed:#x}: no write conflicted — vacuous");
        drop(sessions);
        let floors = dbs.each_ref().map(|db| db.history_floor());
        snapshots.retain(|(at, _)| at.iter().zip(&floors).all(|(at, floor)| at >= floor));
        assert!(snapshots.len() > 100, "seed={seed:#x}: {} snapshots kept", snapshots.len());
        for (at, rows) in snapshots {
            let sides = both_sides(dual, at[0]);
            assert_eq!(sides, (rows.clone(), rows.clone()), "seed={seed:#x} at {at:?}");
            for ((db, at), format) in dbs.iter().zip(at).zip(FORMATS) {
                let as_of = db.query(&format!("SELECT id, g, v FROM t AS OF {at} ORDER BY id"));
                assert_eq!(as_of.unwrap(), rows, "seed={seed:#x} {format} AS OF {at}");
            }
        }
    }
}

/// An insert refused because a newer version of its key exists: the row
/// side decides when there is one, so ROW and DUAL give one kind, and a
/// COLUMN table differs only where its merged row was deleted after the
/// snapshot and the key inserted again since. Keys 1 and 2 are merged; the
/// reader's snapshot predates every race.
#[test]
fn a_refused_insert_takes_the_row_sides_kind() {
    let refusals = |format: &str| -> Vec<&'static str> {
        let db = database(format);
        db.execute("INSERT INTO t VALUES (1, 0, 0), (2, 0, 0)").unwrap();
        db.maintenance();
        let merged = db.table("t").unwrap().columns().map(|c| c.sizes().main_rows);
        assert!(matches!(merged, None | Some(2)), "{format}: {merged:?}");
        let (mut reader, mut writer) = (db.session(), db.session());
        reader.execute("BEGIN").unwrap();
        for sql in [
            "DELETE FROM t WHERE id = 1",
            "DELETE FROM t WHERE id = 2",
            "INSERT INTO t VALUES (2, 0, 1)",
            "INSERT INTO t VALUES (3, 0, 0)",
            "BEGIN",
            "INSERT INTO t VALUES (4, 0, 0)",
        ] {
            writer.execute(sql).unwrap();
        }
        (1..=4)
            .map(|k| match reader.execute(&format!("INSERT INTO t VALUES ({k}, 9, 9)")) {
                Err(DbError::DuplicateKey(_)) => "DuplicateKey",
                Err(DbError::WriteConflict(_)) => "WriteConflict",
                other => panic!("{format}: insert of {k}: {other:?}"),
            })
            .collect()
    };
    // Deleted after the snapshot; deleted and inserted again; inserted
    // after the snapshot; inserted by a transaction still open.
    let row = ["WriteConflict", "DuplicateKey", "DuplicateKey", "WriteConflict"];
    assert_eq!(refusals("ROW"), row);
    assert_eq!(refusals("DUAL"), row);
    let column = ["WriteConflict", "WriteConflict", "DuplicateKey", "WriteConflict"];
    assert_eq!(refusals("COLUMN"), column);
}
