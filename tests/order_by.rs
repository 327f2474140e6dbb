//! A full `ORDER BY` is a stable sort of what the same `SELECT` returns
//! unsorted: rows in scan order, ordered by `Value::cmp` under each key's
//! direction, ties left in scan order. The oracle below is that definition
//! written out with the standard library's stable sort; it shares no code
//! with the engine's sort sink. It holds at one, two and four workers,
//! unbudgeted and under a query budget that makes every statement spill
//! runs, over keys that tie across morsels, hold NULLs or none and run
//! descending, of integer, float and string type.

use oltapdb::common::{Row, Value};
use oltapdb::core::{Database, DbConfig, MemoryConfig};
use oltapdb::exec::MORSEL_ROWS;
use std::cmp::Ordering;
use std::sync::Arc;

/// Rows bulk-loaded into the segment: three morsels and part of a fourth.
const LOADED: i64 = 3 * MORSEL_ROWS as i64 + 500;
/// Rows inserted after it, left in the delta: tail morsels of their own.
const INSERTED: i64 = 2_000;

/// Every 11th `f` and 13th `s` NULL, no `k`, `x` or `n`; few distinct values
/// of each, so every key ties across morsels.
fn row(i: i64) -> Row {
    let null_or = |every: i64, v: Value| if i % every == 0 { Value::Null } else { v };
    Row::new(vec![
        Value::Int(i),
        Value::Int((i * 7919) % 7 - 3),
        null_or(11, Value::Float((i % 9) as f64 * 0.75 - 2.0)),
        null_or(13, Value::Str(["b", "a", "ab", "", "é"][(i % 5) as usize].into())),
        Value::Float((i * 31 % 6) as f64 * -0.5),
        Value::Str(format!("n{}", i * 13 % 17)),
    ])
}

/// The table, unbudgeted or under a per-query budget of `query_bytes`.
fn load(query_bytes: Option<u64>) -> Arc<Database> {
    let db = Database::with_config(DbConfig {
        memory: query_bytes.map(|query_bytes| MemoryConfig {
            query_bytes,
            ..MemoryConfig::with_total(1 << 30)
        }),
        ..DbConfig::default()
    })
    .unwrap();
    db.execute("CREATE TABLE t (id BIGINT PRIMARY KEY, k BIGINT, f DOUBLE, s TEXT, x DOUBLE, n TEXT) USING FORMAT COLUMN")
        .unwrap();
    let handle = db.table("t").unwrap();
    let loaded: Vec<Row> = (0..LOADED).map(row).collect();
    handle.columns().unwrap().bulk_load(&loaded).unwrap();
    let txn = db.txn_manager().begin();
    for i in LOADED..LOADED + INSERTED {
        handle.insert(&txn, row(i)).unwrap();
    }
    txn.commit().unwrap();
    db
}

/// Each statement's keys, `(column, descending)`; every statement selects
/// `id, k, f, s, x, n`.
const ORDERS: [&[(usize, bool)]; 9] = [
    &[(1, false)],
    &[(2, true)],
    &[(3, false), (1, true)],
    &[(3, true), (2, false)],
    &[(1, true), (2, true), (3, false)],
    &[(4, false), (3, true)],
    &[(4, true)],
    &[(5, false)],
    &[(5, true), (2, false)],
];

/// The `ORDER BY` clause of `keys`.
fn clause(keys: &[(usize, bool)]) -> String {
    let names = ["id", "k", "f", "s", "x", "n"];
    let keys: Vec<String> = keys
        .iter()
        .map(|&(c, desc)| format!("{}{}", names[c], if desc { " DESC" } else { "" }))
        .collect();
    keys.join(", ")
}

/// The oracle: `rows` stably sorted by `keys`, `Value::cmp` per column,
/// reversed where descending.
fn stable_sorted(mut rows: Vec<Row>, keys: &[(usize, bool)]) -> Vec<Row> {
    rows.sort_by(|a, b| {
        for &(c, desc) in keys {
            let ord = a[c].cmp(&b[c]);
            let ord = if desc { ord.reverse() } else { ord };
            if ord != Ordering::Equal {
                return ord;
            }
        }
        Ordering::Equal
    });
    rows
}

#[test]
fn a_full_order_by_is_a_stable_sort_of_the_unsorted_select() {
    for budget in [None, Some(256 << 10)] {
        let db = load(budget);
        let unsorted = db.query("SELECT id, k, f, s, x, n FROM t").unwrap();
        assert_eq!(unsorted.len() as i64, LOADED + INSERTED);
        let want: Vec<Vec<Row>> = ORDERS.iter().map(|keys| stable_sorted(unsorted.clone(), keys)).collect();
        for workers in [1, 2, 4] {
            db.set_parallelism(workers);
            for (keys, want) in ORDERS.iter().zip(&want) {
                let sql = format!("SELECT id, k, f, s, x, n FROM t ORDER BY {}", clause(keys));
                let tag = format!("budget {budget:?}, {workers} workers: {sql}");
                let spills = db.memory_governor().map(|g| g.spill_events());
                let got = db.query(&sql).unwrap();
                if let Some(before) = spills {
                    let runs = db.memory_governor().unwrap().spill_events() - before;
                    assert!(runs >= 2, "{tag}: {runs} runs spilled");
                }
                assert!(got == *want, "{tag}: not the stable sort");
            }
        }
    }
}
