//! A DUAL table writes every statement to its row store and then to its
//! columnar side. Both apply first-committer-wins to the same history, so
//! the columnar write never fails where the row write succeeded: two
//! sessions racing conflicting writes get, statement by statement, what
//! they get on a COLUMN table, and afterwards the row store and the
//! columnar side hold the same rows at every snapshot, `AS OF` included.

use oltapdb::common::ids::TxnId;
use oltapdb::common::{DbError, Result, Row};
use oltapdb::core::{Database, QueryResult, Session, TableHandle};
use oltapdb::storage::ScanPredicate;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

const KEYS: i64 = 40;
const NOBODY: TxnId = TxnId(u64::MAX - 3);

/// What a statement came to: its rows or count, or the kind of its error.
/// An insert refused by a concurrent change to its key is a
/// `DuplicateKey` from the row store where the key's latest version is
/// live, and a `WriteConflict` from a column table that finds the key's
/// merged row deleted after the snapshot first: the same refusal, and
/// shown as one.
fn outcome(r: Result<QueryResult>) -> String {
    match r {
        Ok(QueryResult::Affected(n)) => format!("affected {n}"),
        Ok(QueryResult::Txn(done)) => done.to_string(),
        Ok(r) => format!("{:?}", r.rows()),
        Err(DbError::WriteConflict(_) | DbError::DuplicateKey(_)) => "refused".into(),
        Err(e) => format!("{e:?}"),
    }
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

/// The rows of `t` at `read_ts` two ways: the row store's scan and the
/// columnar side's, each sorted.
fn both_sides(db: &Arc<Database>, read_ts: u64) -> (Vec<Row>, Vec<Row>) {
    let handle = db.table("t").unwrap();
    let TableHandle::Dual(dual) = &handle else {
        panic!("a dual table");
    };
    let all = ScanPredicate::all();
    let sorted = |batches: Vec<oltapdb::common::Batch>| {
        let mut rows: Vec<Row> = batches.iter().flat_map(|b| b.to_rows()).collect();
        rows.sort();
        rows
    };
    let rows = sorted(dual.scan_oltp(&[0, 1, 2], &all, read_ts, NOBODY, 7).unwrap());
    let columns = sorted(handle.scan(&[0, 1, 2], &all, read_ts, NOBODY, 7).unwrap());
    (rows, columns)
}

#[test]
fn conflicting_sessions_get_the_column_twins_outcomes_and_both_sides_agree() {
    for case in 0..6u64 {
        let seed = 0xD0A1 ^ case;
        let mut rng = StdRng::seed_from_u64(seed);
        let dbs = ["DUAL", "COLUMN"].map(|format| {
            let db = Database::new();
            db.execute(&format!(
                "CREATE TABLE t (id BIGINT PRIMARY KEY, g BIGINT, v BIGINT) USING FORMAT {format}"
            ))
            .unwrap();
            db
        });
        let [dual, twin] = &dbs;
        let mut sessions: Vec<[Session; 2]> =
            dbs.iter().map(|db| [db.session(), db.session()]).collect();
        let (mut conflicts, mut snapshots) = (0, Vec::new());
        for step in 0..600 {
            let who = rng.gen_range(0..2);
            let sql = statement(&mut rng, sessions[0][who].in_transaction());
            let [got, want] = [0, 1].map(|d| sessions[d][who].execute(&sql));
            conflicts += usize::from(matches!(got, Err(DbError::WriteConflict(_))));
            let [got, want] = [got, want].map(outcome);
            assert_eq!(got, want, "seed={seed:#x} step {step} session {who}: {sql}");
            if step % 150 == 149 && step < 450 {
                for db in &dbs {
                    db.maintenance();
                }
            }
            // Whatever the sessions hold open, a reader sees one table.
            let now = dual.txn_manager().now();
            let (rows, columns) = both_sides(dual, now);
            assert_eq!(rows, columns, "seed={seed:#x} step {step}: {sql}");
            if step >= 450 {
                snapshots.push((now, twin.txn_manager().now(), rows));
            }
        }
        assert!(conflicts > 0, "seed={seed:#x}: no write conflicted — vacuous");
        drop(sessions);
        let (floor, twin_floor) = (dual.history_floor(), twin.history_floor());
        snapshots.retain(|(at, twin_at, _)| *at >= floor && *twin_at >= twin_floor);
        assert!(snapshots.len() > 100, "seed={seed:#x}: {} snapshots kept", snapshots.len());
        for (at, twin_at, rows) in snapshots {
            assert_eq!(both_sides(dual, at), (rows.clone(), rows.clone()), "seed={seed:#x} at {at}");
            let sql = |ts: u64| format!("SELECT id, g, v FROM t AS OF {ts} ORDER BY id");
            let as_of = dual.query(&sql(at)).unwrap();
            assert_eq!(as_of, rows, "seed={seed:#x} AS OF {at}");
            assert_eq!(twin.query(&sql(twin_at)).unwrap(), as_of, "seed={seed:#x} twin AS OF {twin_at}");
        }
    }
}
