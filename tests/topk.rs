//! `ORDER BY … LIMIT k` runs a top-K sink that compares an offered row's
//! keys where they stand and builds a row only when it enters a heap. Its
//! answer must be the full `ORDER BY`'s first `k` rows — ties in arrival
//! order, across morsels and workers — over more than a thousand groups
//! and over a raw-column scan of several morsels, at every worker count.

use oltapdb::common::{Row, Value};
use oltapdb::core::Database;
use oltapdb::exec::{topk_counts, MORSEL_ROWS};
use std::sync::Arc;

/// Rows in the table: its one segment spans three morsels and part of a
/// fourth.
const ROWS: i64 = 3 * MORSEL_ROWS as i64 + 1_000;
/// Distinct group keys besides NULL.
const GROUPS: i64 = 1_500;

/// Every 13th `v`, 11th `f`, 17th `s` and 251st `g` NULL; few distinct
/// values of each, so keys tie across morsels.
fn row(i: i64) -> Row {
    let null_or = |every: i64, v: Value| if i % every == 0 { Value::Null } else { v };
    Row::new(vec![
        Value::Int(i),
        null_or(251, Value::Int((i * 7) % GROUPS)),
        null_or(13, Value::Int((i * 7919) % 97)),
        null_or(11, Value::Float((i % 50) as f64 * 0.5 - 7.0)),
        null_or(17, Value::Str(["x", "y", "z", "xx", "yz"][(i % 5) as usize].into())),
    ])
}

fn load() -> Arc<Database> {
    let db = Database::new();
    db.execute("CREATE TABLE t (id BIGINT PRIMARY KEY, g BIGINT, v BIGINT, f DOUBLE, s TEXT) USING FORMAT COLUMN")
        .unwrap();
    let handle = db.table("t").unwrap();
    let txn = db.txn_manager().begin();
    for i in 0..ROWS {
        handle.insert(&txn, row(i)).unwrap();
    }
    txn.commit().unwrap();
    db.maintenance();
    assert_eq!(handle.columns().unwrap().sizes().delta_rows, 0);
    db
}

/// Statements without their `LIMIT`, and whether every `k` up to past the
/// answer's length may be asked of them (a top-K sink takes up to a batch).
const STATEMENTS: [(&str, bool); 5] = [
    // Raw columns, filtered to fewer rows than a batch: NULL keys first, an
    // ascending key then a descending one, ties left for the sequence.
    ("SELECT id, v, f FROM t WHERE id % 37 = 0 ORDER BY v, f DESC", true),
    // Strings descending (NULL last), floats ascending.
    ("SELECT id, s, f FROM t WHERE id % 37 = 0 ORDER BY s DESC, f", true),
    // Every row: a float key with a few dozen values, so the first rows
    // tie across all four morsels.
    ("SELECT id, f FROM t ORDER BY f", false),
    // Over the groups: counts tie by the hundred.
    (
        "SELECT g, COUNT(*) AS n, SUM(v) AS sv FROM t GROUP BY g ORDER BY n DESC, sv",
        true,
    ),
    (
        "SELECT g, AVG(f) AS af, MIN(s) AS ms FROM t GROUP BY g ORDER BY ms DESC, af",
        true,
    ),
];

#[test]
fn a_limited_order_by_is_the_full_order_by_cut_at_k() {
    let db = load();
    let mut want: Vec<Vec<Row>> = Vec::new();
    for workers in [1, 2, 4] {
        db.set_parallelism(workers);
        for (s, &(sql, every_k)) in STATEMENTS.iter().enumerate() {
            let full = db.query(sql).unwrap();
            if workers == 1 {
                want.push(full.clone());
            }
            assert_eq!(full, want[s], "workers={workers}: {sql}");
            let n = full.len();
            assert!(n >= 1_000, "{sql}: {n} rows");
            let ks: Vec<usize> = if every_k { vec![1, 5, n, n + 1] } else { vec![1, 5, 4_096] };
            for k in ks {
                let tag = format!("workers={workers} k={k}: {sql}");
                let before = topk_counts();
                let got = db.query(&format!("{sql} LIMIT {k}")).unwrap();
                let after = topk_counts();
                assert_eq!(got, full[..k.min(n)], "{tag}");
                // The sink ran, and let in — built — fewer rows than it was
                // offered: over every row, with `LIMIT 5`, a few dozen of
                // fifty thousand. (This binary runs no other statement.)
                let offered = after.offered - before.offered;
                let entered = after.entered - before.entered;
                assert!(offered >= n as u64, "{tag}: {offered} rows offered");
                if k < n {
                    assert!(entered < offered, "{tag}: {entered} of {offered} entered");
                }
                if k == 5 && !every_k {
                    assert!(entered * 100 < offered, "{tag}: {entered} of {offered} entered");
                }
            }
        }
    }
}
