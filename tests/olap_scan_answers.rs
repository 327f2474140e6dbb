//! The seven `olap_scan` statements answer, byte for byte, what a model
//! that shares no code with the engine's aggregation answers, over the
//! benchmark's own 16-warehouse population, which this test loads through
//! the benchmark's own generator.
//!
//! The model reads each table's rows through `TableHandle::scan`, filters,
//! groups and orders them itself, and adds a float `SUM` / `AVG` by the
//! engine's definition — in scan order within each stripe of
//! [`STRIPE_ROWS`] selected rows, the stripes' sums added in stripe order —
//! restated here, not imported. Its checksums are pinned below; the two
//! statements with no float sum (Q2, Q12) keep the bytes recorded at commit
//! `4e0eded`, the row-at-a-time, state-enum-per-aggregate engine. The engine
//! is held to them at one worker, four, and the database's default, on the
//! dense path and on the forced scalar one.
//!
//! Regenerate (after a deliberate change to `benchmark/src/ch.rs`) by
//! printing the model's checksums — never the engine's.
#![allow(dead_code)]

#[path = "../benchmark/src/ch.rs"]
mod ch;
#[path = "../benchmark/src/rng.rs"]
mod rng;

use oltapdb::common::fault::{points, FaultInjector, FaultPoint};
use oltapdb::common::ids::TxnId;
use oltapdb::common::{Row, Value};
use oltapdb::core::{Database, DbConfig};
use oltapdb::storage::ScanPredicate;
use std::collections::BTreeMap;
use std::sync::Arc;

/// `benchmark/src/oracle.rs`'s checksum: FNV-1a over the engine's row
/// codec, row order included.
fn checksum(rows: &[Row]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    let mut write = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    for row in rows {
        let bytes = oltapdb::txn::wal::encode_row(row);
        write(&(bytes.len() as u32).to_le_bytes());
        write(&bytes);
    }
    h
}

/// `(statement, rows, checksum)`: the model's.
const ANSWERS: [(&str, usize, u64); 7] = [
    ("Q1", 10, 0xd272_0590_766f_0179),
    ("Q6", 1, 0x6a6a_22ab_b201_f7c2),
    ("Q14", 1, 0x89a6_ec3b_21b0_9567),
    ("Q15", 5, 0x5676_282a_a190_6748),
    ("Q2", 20, 0x346a_03ee_7e65_ac48),
    ("Q12", 6, 0x3eef_6ff1_5b07_2b47),
    ("Q18", 8, 0xa056_5568_7a3d_a106),
];

/// Selected rows a stripe holds (the engine's definition, restated).
const STRIPE_ROWS: usize = 16 * 1024;

/// A float sum of `vals`, each beside its position among the statement's
/// selected rows, stripe by stripe.
fn striped(vals: &[(usize, f64)]) -> f64 {
    let (mut total, mut stripe, mut part) = (0.0, None, 0.0);
    for &(position, v) in vals {
        if stripe != Some(position / STRIPE_ROWS) {
            if stripe.is_some() {
                total += part;
            }
            (stripe, part) = (Some(position / STRIPE_ROWS), 0.0);
        }
        part += v;
    }
    if stripe.is_some() {
        total += part;
    }
    total
}

/// The visible rows of `table` that `keep` passes, in scan order
/// (segments, then the delta), as the values of `columns`.
fn selected(db: &Arc<Database>, table: &str, columns: &[&str], keep: impl Fn(&[Value]) -> bool) -> Vec<Vec<Value>> {
    let handle = db.table(table).unwrap();
    let schema = handle.schema();
    let projection: Vec<usize> = columns.iter().map(|c| schema.index_of(c).unwrap()).collect();
    let batches = handle
        .scan(&projection, &ScanPredicate::all(), db.txn_manager().now(), TxnId(u64::MAX - 8), 4096)
        .unwrap();
    batches
        .iter()
        .flat_map(|b| b.to_rows())
        .map(Row::into_values)
        .filter(|v| keep(v))
        .collect()
}

/// One group's rows: how many, and each float input beside its row's
/// position among the selected rows.
#[derive(Default)]
struct Group {
    rows: i64,
    floats: Vec<(usize, f64)>,
    ints: i64,
}

/// `rows` grouped by `key`, `input` folded per group: in key order.
fn group(rows: &[Vec<Value>], key: impl Fn(&[Value]) -> Value, input: Option<usize>) -> Vec<(Value, Group)> {
    let mut groups: BTreeMap<Value, Group> = BTreeMap::new();
    for (position, row) in rows.iter().enumerate() {
        let g = groups.entry(key(row)).or_default();
        g.rows += 1;
        match input.map(|c| &row[c]) {
            Some(Value::Float(f)) => g.floats.push((position, *f)),
            Some(Value::Int(i)) => g.ints += i,
            _ => {}
        }
    }
    groups.into_iter().collect()
}

fn float(v: &Value) -> f64 {
    match v {
        Value::Float(f) => *f,
        other => panic!("not a float: {other:?}"),
    }
}

fn int(v: &Value) -> i64 {
    match v {
        Value::Int(i) | Value::Timestamp(i) => *i,
        other => panic!("not an integer: {other:?}"),
    }
}

/// A stable sort on column `c` (descending if `desc`), keeping `limit`
/// rows: ties stay in key order, as the engine's sort keeps them in input
/// order.
fn top(mut rows: Vec<Row>, c: usize, desc: bool, limit: usize) -> Vec<Row> {
    rows.sort_by(|a, b| if desc { b[c].cmp(&a[c]) } else { a[c].cmp(&b[c]) });
    rows.truncate(limit);
    rows
}

/// The model's answer to statement `id`.
fn model(db: &Arc<Database>, id: &str) -> Vec<Row> {
    let all = |_: &[Value]| true;
    match id {
        "Q1" => {
            let rows = selected(db, "order_line", &["ol_quantity", "ol_amount"], all);
            group(&rows, |r| r[0].clone(), Some(1))
                .into_iter()
                .map(|(k, g)| {
                    let total = striped(&g.floats);
                    let avg = total / g.floats.len() as f64;
                    Row::new(vec![k, Value::Int(g.rows), Value::Float(total), Value::Float(avg)])
                })
                .collect()
        }
        "Q6" => {
            let keep = |r: &[Value]| int(&r[0]) >= 5 && float(&r[1]) > 400.0;
            let rows = selected(db, "order_line", &["ol_quantity", "ol_amount"], keep);
            let vals: Vec<(usize, f64)> = rows.iter().enumerate().map(|(p, r)| (p, float(&r[1]))).collect();
            vec![Row::new(vec![Value::Float(striped(&vals))])]
        }
        "Q14" => {
            let keep = |r: &[Value]| (1_000_000..2_000_000).contains(&int(&r[0]));
            let rows = selected(db, "order_line", &["ol_delivery_d", "ol_amount"], keep);
            let vals: Vec<(usize, f64)> = rows.iter().enumerate().map(|(p, r)| (p, float(&r[1]))).collect();
            vec![Row::new(vec![Value::Int(rows.len() as i64), Value::Float(striped(&vals))])]
        }
        "Q15" => {
            let rows = selected(db, "order_line", &["ol_w_id", "ol_amount"], all);
            let groups = group(&rows, |r| r[0].clone(), Some(1));
            let rows = groups
                .into_iter()
                .map(|(k, g)| Row::new(vec![k, Value::Float(striped(&g.floats))]))
                .collect();
            top(rows, 1, true, 5)
        }
        "Q2" => {
            let keep = |r: &[Value]| int(&r[1]) < 25;
            let rows = selected(db, "stock", &["s_i_id", "s_quantity"], keep);
            let groups = group(&rows, |r| r[0].clone(), Some(1));
            let rows = groups.into_iter().map(|(k, g)| Row::new(vec![k, Value::Int(g.ints)])).collect();
            top(rows, 1, false, 20)
        }
        "Q12" => {
            let keep = |r: &[Value]| !r[1].is_null();
            let rows = selected(db, "orders", &["o_ol_cnt", "o_carrier_id"], keep);
            group(&rows, |r| r[0].clone(), None)
                .into_iter()
                .map(|(k, g)| Row::new(vec![k, Value::Int(g.rows)]))
                .collect()
        }
        "Q18" => {
            let rows = selected(db, "customer", &["c_state", "c_balance"], all);
            let groups = group(&rows, |r| r[0].clone(), Some(1));
            let rows = groups
                .into_iter()
                .map(|(k, g)| Row::new(vec![k, Value::Int(g.rows), Value::Float(striped(&g.floats))]))
                .collect();
            top(rows, 2, false, 8)
        }
        other => panic!("no model of {other}"),
    }
}

#[test]
fn olap_scan_answers_are_the_models() {
    let faults = FaultInjector::new(0x22);
    let db = Database::with_config(DbConfig {
        faults: Some(Arc::clone(&faults)),
        ..DbConfig::default()
    })
    .unwrap();
    for stmt in ch::ddl() {
        db.execute(stmt).unwrap();
    }
    // The benchmark's load: 2000-row transactions, then one maintenance pass.
    for (table, rows) in &ch::populate(16).tables {
        let handle = db.table(table).unwrap();
        for chunk in rows.chunks(2000) {
            let txn = db.txn_manager().begin();
            for row in chunk {
                handle.insert(&txn, row.clone()).unwrap();
            }
            txn.commit().unwrap();
        }
    }
    db.maintenance();
    for ((id, _), (answer_id, rows, sum)) in ch::OLAP.iter().zip(ANSWERS) {
        assert_eq!(*id, answer_id);
        let model = model(&db, id);
        assert_eq!(model.len(), rows, "{id}: the model");
        assert_eq!(checksum(&model), sum, "{id}: not the model's pinned bytes");
    }
    for workers in [None, Some(1), Some(4)] {
        if let Some(workers) = workers {
            db.set_parallelism(workers);
        }
        for forced_scalar in [false, true] {
            if forced_scalar {
                faults.arm(points::EXEC_KERNEL_FALLBACK, FaultPoint::always());
            }
            for ((id, sql), (_, _, sum)) in ch::OLAP.iter().zip(ANSWERS) {
                let answer = db.query(sql).unwrap();
                assert_eq!(
                    checksum(&answer),
                    sum,
                    "{id} workers={workers:?} forced_scalar={forced_scalar}: not the model's bytes"
                );
            }
            faults.disarm(points::EXEC_KERNEL_FALLBACK);
        }
    }
    assert!(faults.fired_count() > 0, "the scalar reference never ran");
}
