//! Float `SUM` / `AVG` over a table with a populated delta: the delta scan
//! fills its columns from borrowed versions (ISSUE 30), and a float sum says
//! at once whether it handed over the same values in the same order. The
//! same bits must come out of the fused path (encoded segments, then the
//! delta's batches), of the pipelines — under `exec.kernel_fallback` and
//! through an expression-key twin — at 1 and 4 workers, and again once a
//! merge has moved the delta into a segment, where no delta scan is left to
//! differ. (A twin at 4 workers adds per-worker partial sums, so its floats
//! are held to a relative 1e-12 and everything else in its rows exactly.)

use oltapdb::common::fault::{points, FaultInjector, FaultPoint};
use oltapdb::common::{Row, Value};
use oltapdb::core::{Database, DbConfig};
use std::sync::Arc;

#[allow(dead_code)]
mod common;

const MERGED: i64 = 3000;
/// More than one 4096-row batch of delta.
const FRESH: i64 = 5000;

/// Floats whose sum depends on the order they are added in.
fn amount(i: i64) -> Value {
    if i % 17 == 0 {
        return Value::Null;
    }
    let mantissa = (i.wrapping_mul(2_654_435_761) % 100_000) as f64 * 0.001;
    Value::Float(mantissa * 10f64.powi((i % 9) as i32 - 3))
}

fn row(id: i64, salt: i64) -> Row {
    let group = if id % 23 == 0 {
        Value::Null
    } else {
        Value::Int((id + salt) % 7)
    };
    let tag = ["red", "green", "blue"][((id + salt) % 3) as usize];
    Row::new(vec![
        Value::Int(id),
        group,
        Value::Str(tag.to_string()),
        amount(id + salt),
    ])
}

/// The same rows by bits ([`common::same_rows`]), or — `float_slack` — with
/// floats within a relative 1e-12 of each other.
fn same(got: &[Row], want: &[Row], float_slack: bool) -> bool {
    if !float_slack {
        return common::same_rows(got, want);
    }
    let close = |a: &Value, b: &Value| match (a, b) {
        (Value::Float(a), Value::Float(b)) => (a - b).abs() <= 1e-12 * a.abs().max(b.abs()),
        _ => common::same(a, b),
    };
    got.len() == want.len()
        && (got.iter().zip(want)).all(|(g, w)| {
            g.len() == w.len() && g.values().iter().zip(w.values()).all(|(a, b)| close(a, b))
        })
}

/// `(fused statement, its pipeline twin)`: the twin groups by an expression,
/// which keeps it off the fused path.
const STATEMENTS: [(&str, &str); 3] = [
    (
        "SELECT g, COUNT(*), SUM(f), AVG(f) FROM m GROUP BY g ORDER BY g",
        "SELECT g + 0, COUNT(*), SUM(f), AVG(f) FROM m GROUP BY g + 0 ORDER BY g + 0",
    ),
    (
        "SELECT tag, SUM(f), AVG(f), COUNT(f) FROM m WHERE f > 0.5 GROUP BY tag ORDER BY tag",
        "SELECT tag, SUM(f + 0.0), AVG(f + 0.0), COUNT(f) FROM m WHERE f > 0.5 \
         GROUP BY tag ORDER BY tag",
    ),
    (
        "SELECT g, SUM(f) FROM m WHERE tag = 'red' AND g >= 2 GROUP BY g ORDER BY g",
        "SELECT g + 0, SUM(f) FROM m WHERE tag = 'red' AND g >= 2 GROUP BY g + 0 ORDER BY g + 0",
    ),
];

#[test]
fn float_sums_over_a_populated_delta_keep_their_bits() {
    let faults = FaultInjector::new(0x30);
    let db = Database::with_config(DbConfig {
        faults: Some(Arc::clone(&faults)),
        ..DbConfig::default()
    })
    .unwrap();
    db.execute(
        "CREATE TABLE m (id BIGINT PRIMARY KEY, g BIGINT, tag TEXT, f DOUBLE) USING FORMAT COLUMN",
    )
    .unwrap();
    let handle = db.table("m").unwrap();
    let table = handle.columns().unwrap();

    let txn = db.txn_manager().begin();
    for id in 0..MERGED {
        handle.insert(&txn, row(id, 0)).unwrap();
    }
    txn.commit().unwrap();
    db.maintenance();
    assert_eq!(table.sizes().delta_rows, 0);

    // The delta: fresh keys, new versions of merged rows (each a dead row in
    // the segment), deletes of merged rows and of fresh ones, and a second
    // version of some fresh rows.
    let txn = db.txn_manager().begin();
    for id in MERGED..MERGED + FRESH {
        handle.insert(&txn, row(id, 0)).unwrap();
    }
    for id in (0..MERGED).step_by(10) {
        handle
            .update(&txn, &Row::new(vec![Value::Int(id)]), row(id, 1))
            .unwrap();
    }
    txn.commit().unwrap();
    let txn = db.txn_manager().begin();
    for id in (5..MERGED + FRESH).step_by(31) {
        handle
            .delete(&txn, &Row::new(vec![Value::Int(id)]))
            .unwrap();
    }
    for id in (MERGED..MERGED + FRESH).step_by(13) {
        let key = Row::new(vec![Value::Int(id)]);
        if handle
            .get(&key, txn.begin_ts(), txn.id())
            .unwrap()
            .is_some()
        {
            handle.update(&txn, &key, row(id, 2)).unwrap();
        }
    }
    txn.commit().unwrap();
    // Someone else's pending insert and pending delete: no statement below
    // may see either, before the merge or after it.
    let bystander = db.txn_manager().begin();
    handle.insert(&bystander, row(MERGED + FRESH, 0)).unwrap();
    handle
        .delete(&bystander, &Row::new(vec![Value::Int(MERGED + 1)]))
        .unwrap();
    assert!(table.sizes().delta_rows > 4096, "{:?}", table.sizes());

    // The reference: the fused path, one worker, nothing armed.
    let want: Vec<Vec<Row>> = STATEMENTS
        .iter()
        .map(|(fused, _)| db.query(fused).unwrap())
        .collect();
    assert!(want.iter().all(|rows| !rows.is_empty()));

    for merged in [false, true] {
        if merged {
            db.maintenance();
            // What is left are the two chains the bystander has a stamp on.
            assert!(table.sizes().delta_rows <= 2, "{:?}", table.sizes());
        }
        for workers in [1, 4] {
            db.set_parallelism(workers);
            for forced_scalar in [false, true] {
                if forced_scalar {
                    faults.arm(points::EXEC_KERNEL_FALLBACK, FaultPoint::always());
                }
                for ((fused, twin), want) in STATEMENTS.iter().zip(&want) {
                    for (sql, is_twin) in [(fused, false), (twin, true)] {
                        let got = db.query(sql).unwrap();
                        assert!(
                            same(&got, want, is_twin && workers > 1),
                            "merged={merged} workers={workers} forced_scalar={forced_scalar} \
                             `{sql}`:\n got  {got:?}\n want {want:?}"
                        );
                    }
                }
                faults.disarm(points::EXEC_KERNEL_FALLBACK);
            }
        }
    }
    assert!(faults.fired_count() > 0, "the scalar fallback never ran");
    bystander.abort().unwrap();
}
