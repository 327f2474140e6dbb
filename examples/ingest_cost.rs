//! What a load costs: the probe behind the row store's append path and
//! one-allocation skip-list nodes (EXPERIMENTS.md E4b, DESIGN.md § "What
//! a row costs").
//!
//! Creates an `order_line`-shaped COLUMN table (a four-column primary key,
//! as the benchmark's largest table has) and, in each of three rounds on a
//! fresh database, times on one thread:
//!
//! * `insert` — N rows in ascending key order through
//!   `TableHandle::insert`, 2 000 rows a transaction, as the benchmark's
//!   load does: every row lands in the delta's skip list;
//! * `get (delta)` — N point `get`s of those keys, still in the delta: the
//!   skip list's search, a guard that the node layout does not slow reads;
//! * `maintenance` — one `Database::maintenance()`, which merges the delta
//!   into a segment and frees it;
//! * `get (main)` — the same N `get`s, now answered by the main store;
//!
//! and prints each phase's best in ms and ns a row, then the process's peak
//! resident set (`VmHWM`, where `/proc/self/status` has it).
//!
//! Run with: `cargo run --release --example ingest_cost [rows]` (default
//! 200 000; CI passes 20 000 and reads only the exit status). Release only,
//! and only beside the other commit's build on the same host, alternately:
//! the numbers move with the host's regime.

use oltapdb::common::{Row, Value};
use oltapdb::core::Database;
use std::time::Instant;

const ROUNDS: usize = 3;
const TXN_ROWS: usize = 2_000;
const PHASES: [&str; 4] = ["insert", "get (delta)", "maintenance", "get (main)"];

/// Row `i`'s primary key: ten lines an order, 3 000 orders a district, ten
/// districts a warehouse — ascending in `i`.
fn key(i: i64) -> [i64; 4] {
    [
        1 + i / 30_000,
        1 + i / 3_000 % 10,
        1 + i / 10 % 3_000,
        1 + i % 10,
    ]
}

fn row(i: i64) -> Row {
    let mut values: Vec<Value> = key(i).into_iter().map(Value::Int).collect();
    values.extend([
        Value::Int(i % 100_000),
        Value::Int(5),
        Value::Float((i % 9_973) as f64 * 0.01),
    ]);
    Row::new(values)
}

/// One round on a fresh database: each phase's time in ms.
fn round(rows: i64) -> [f64; 4] {
    let db = Database::new();
    db.set_parallelism(1);
    db.execute(
        "CREATE TABLE order_line (ol_w_id BIGINT NOT NULL, ol_d_id BIGINT NOT NULL, \
         ol_o_id BIGINT NOT NULL, ol_number BIGINT NOT NULL, ol_i_id BIGINT, \
         ol_quantity BIGINT, ol_amount DOUBLE, \
         PRIMARY KEY (ol_w_id, ol_d_id, ol_o_id, ol_number)) USING FORMAT COLUMN",
    )
    .unwrap();
    let table = db.table("order_line").unwrap();
    let load: Vec<Row> = (0..rows).map(row).collect();
    let keys: Vec<Row> = (0..rows)
        .map(|i| Row::new(key(i).into_iter().map(Value::Int).collect()))
        .collect();
    let mut ms = [0.0; 4];

    let t = Instant::now();
    for chunk in load.chunks(TXN_ROWS) {
        let txn = db.txn_manager().begin();
        for r in chunk {
            table.insert(&txn, r.clone()).unwrap();
        }
        txn.commit().unwrap();
    }
    ms[0] = t.elapsed().as_secs_f64() * 1e3;

    let gets = |phase: usize, ms: &mut [f64; 4]| {
        let txn = db.txn_manager().begin();
        let t = Instant::now();
        let found = keys
            .iter()
            .filter(|k| table.get(k, txn.begin_ts(), txn.id()).unwrap().is_some())
            .count();
        ms[phase] = t.elapsed().as_secs_f64() * 1e3;
        assert_eq!(found as i64, rows, "{}", PHASES[phase]);
    };
    gets(1, &mut ms);

    let t = Instant::now();
    let notes = db.maintenance().notes;
    ms[2] = t.elapsed().as_secs_f64() * 1e3;
    assert_eq!(table.columns().unwrap().sizes().delta_rows, 0, "{notes:?}");

    gets(3, &mut ms);
    ms
}

/// The process's peak resident set, as `/proc/self/status` reports it.
fn peak_rss() -> Option<String> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    Some(line["VmHWM:".len()..].trim().to_string())
}

fn main() {
    let rows: i64 = std::env::args()
        .nth(1)
        .map_or(200_000, |n| n.parse().expect("rows"));
    let mut best = [f64::INFINITY; 4];
    for _ in 0..ROUNDS {
        for (best, ms) in best.iter_mut().zip(round(rows)) {
            *best = best.min(ms);
        }
    }
    println!("{rows} rows in ascending key order, {TXN_ROWS} a transaction, one thread, best of {ROUNDS}:");
    for (phase, ms) in PHASES.iter().zip(best) {
        println!(
            "  {phase:<12} {ms:>9.2} ms {:>7.0} ns a row",
            ms * 1e6 / rows as f64
        );
    }
    if let Some(peak) = peak_rss() {
        println!("  peak RSS     {peak}");
    }
}
