//! Oracles shared by the integration tests (`mod common;`).

use oltapdb::common::{Row, Value};
use oltapdb::core::Database;
use std::collections::BTreeMap;
use std::sync::Arc;

/// A model of `GROUP BY` that shares nothing with the engine but [`Value`]
/// and `Row`: the statement's unaggregated projection is fetched through
/// SQL (rows arrive in scan order, segments then delta), grouped in a
/// `BTreeMap`, and each aggregate folded naively over its group in that
/// order — so float `SUM` / `AVG` are comparable by bits. `sql` is `SELECT
/// <keys and FUNC(column) items> FROM … [WHERE …] [GROUP BY <keys>] [ORDER
/// BY <keys>]`.
pub fn model_aggregate(db: &Arc<Database>, sql: &str) -> Vec<Row> {
    let (items, from) = sql["SELECT ".len()..].split_once(" FROM ").unwrap();
    let from = from.split(" GROUP BY ").next().unwrap().split(" ORDER BY ").next().unwrap();
    // Each item: a key expression, or an aggregate and its input.
    fn aggregate(item: &str) -> Option<(&str, &str)> {
        let (func, arg) = item.strip_suffix(')')?.split_once('(')?;
        ["COUNT", "SUM", "AVG", "MIN", "MAX"].contains(&func).then_some((func, arg))
    }
    let items: Vec<&str> = items.split(", ").collect();
    let keys: Vec<&str> = items.iter().copied().filter(|i| aggregate(i).is_none()).collect();
    let aggs: Vec<(&str, &str)> = items.iter().filter_map(|i| aggregate(i)).collect();
    let inputs: Vec<&str> = aggs.iter().map(|(_, arg)| *arg).filter(|arg| *arg != "*").collect();
    // (`id`, which every table here has, so that `COUNT(*)` alone projects something.)
    let projection = [&keys[..], &inputs[..], &["id"]].concat().join(", ");
    let rows = db.query(&format!("SELECT {projection} FROM {from}")).unwrap();

    let mut groups: BTreeMap<Row, Vec<&Row>> = BTreeMap::new();
    if keys.is_empty() {
        groups.insert(Row::new(Vec::new()), Vec::new());
    }
    for row in &rows {
        groups.entry(Row::new(row.values()[..keys.len()].to_vec())).or_default().push(row);
    }
    let float = |v: &Value| match v {
        Value::Float(f) => *f,
        v => v.as_int().unwrap() as f64,
    };
    let mut out = Vec::new();
    for (key, rows) in groups {
        let mut answer = key.into_values();
        let mut input = keys.len();
        for (func, arg) in &aggs {
            if *arg == "*" {
                answer.push(Value::Int(rows.len() as i64));
                continue;
            }
            let vals: Vec<&Value> = rows.iter().map(|r| &r[input]).filter(|v| !v.is_null()).collect();
            input += 1;
            answer.push(match (*func, vals.first()) {
                ("COUNT", _) => Value::Int(vals.len() as i64),
                (_, None) => Value::Null,
                ("SUM", Some(Value::Float(_))) => Value::Float(vals.iter().fold(0.0, |s, v| s + float(v))),
                ("SUM", _) => Value::Int(vals.iter().fold(0i64, |s, v| s.wrapping_add(v.as_int().unwrap()))),
                ("AVG", _) => Value::Float(vals.iter().fold(0.0, |s, v| s + float(v)) / vals.len() as f64),
                ("MIN", _) => (*vals.iter().min().unwrap()).clone(),
                (_, _) => (*vals.iter().max().unwrap()).clone(),
            });
        }
        out.push(Row::new(answer));
    }
    out
}

/// Same kind of value, same bits.
pub fn same(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Null, Value::Null) => true,
        (Value::Bool(x), Value::Bool(y)) => x == y,
        (Value::Int(x) | Value::Timestamp(x), Value::Int(y) | Value::Timestamp(y)) => x == y,
        (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
        (Value::Str(x), Value::Str(y)) => x == y,
        _ => false,
    }
}

/// The same rows, value for value by [`same`].
pub fn same_rows(a: &[Row], b: &[Row]) -> bool {
    let same_row = |(a, b): (&Row, &Row)| {
        a.len() == b.len() && a.values().iter().zip(b.values()).all(|(a, b)| same(a, b))
    };
    a.len() == b.len() && a.iter().zip(b).all(same_row)
}
