//! What a load costs, and what its merge leaves the writers after it: the
//! probe behind the row store's append path, the skip list's arena and the
//! inline first version (EXPERIMENTS.md E4b and E4c, DESIGN.md § "What a
//! row costs").
//!
//! Creates an `order_line`-shaped table (a four-column primary key, as the
//! benchmark's largest table has), once COLUMN and once DUAL, and, in each
//! of three rounds on a fresh database, times on one thread:
//!
//! * `insert` — N rows in ascending key order through
//!   `TableHandle::insert`, 2 000 rows a transaction, as the benchmark's
//!   load does: every row lands in the delta's skip list (and, for DUAL,
//!   in the row store's too); the allocator requests the phase makes are
//!   counted, and reported a key;
//! * `get (delta)` — N point `get`s of those keys, still in the delta: the
//!   skip list's search, a guard that the node layout does not slow reads;
//! * `maintenance` — one `Database::maintenance()`, which merges the delta
//!   into a segment and frees it;
//! * `update` — the next 1 000 point updates, one transaction each, each
//!   timed alone: the longest is what freeing the old delta left the first
//!   writers after the merge to pay;
//! * `get (main)` — the same N `get`s, now answered by the main store (by
//!   the row store, for DUAL);
//!
//! and prints each phase's best in ms and ns a row, each round's longest
//! update, the allocations a key, then the process's peak resident set
//! (`VmHWM`, where `/proc/self/status` has it).
//!
//! Run with: `cargo run --release --example ingest_cost [rows]` (default
//! 200 000; CI passes 20 000 and reads only the exit status). Release only,
//! and only beside the other commit's build on the same host, alternately:
//! the numbers move with the host's regime.

use oltapdb::common::{Row, Value};
use oltapdb::core::Database;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// The system allocator, counting its requests.
struct Counting;

static REQUESTS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded to `System` unchanged; the counter only
// observes them.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        REQUESTS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        REQUESTS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        REQUESTS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(p, layout, new_size) }
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        unsafe { System.dealloc(p, layout) };
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const ROUNDS: usize = 3;
const TXN_ROWS: usize = 2_000;
const UPDATES: usize = 1_000;
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

/// Row `i`, its quantity `quantity`.
fn row(i: i64, quantity: i64) -> Row {
    let mut values: Vec<Value> = key(i).into_iter().map(Value::Int).collect();
    values.extend([
        Value::Int(i % 100_000),
        Value::Int(quantity),
        Value::Float((i % 9_973) as f64 * 0.01),
    ]);
    Row::new(values)
}

/// What one round measured.
struct Round {
    /// Each phase's time in ms.
    ms: [f64; 4],
    /// The longest of the updates after the merge, in ms, and its index.
    longest_update: (f64, usize),
    /// Allocator requests made while inserting.
    insert_requests: usize,
}

/// One round on a fresh database with a table of `format`.
fn round(format: &str, rows: i64) -> Round {
    let db = Database::new();
    db.set_parallelism(1);
    db.execute(&format!(
        "CREATE TABLE order_line (ol_w_id BIGINT NOT NULL, ol_d_id BIGINT NOT NULL, \
         ol_o_id BIGINT NOT NULL, ol_number BIGINT NOT NULL, ol_i_id BIGINT, \
         ol_quantity BIGINT, ol_amount DOUBLE, \
         PRIMARY KEY (ol_w_id, ol_d_id, ol_o_id, ol_number)) USING FORMAT {format}"
    ))
    .unwrap();
    let table = db.table("order_line").unwrap();
    let mut load = (0..rows).map(|i| row(i, 5)).collect::<Vec<_>>().into_iter();
    let keys: Vec<Row> = (0..rows)
        .map(|i| Row::new(key(i).into_iter().map(Value::Int).collect()))
        .collect();
    let mut ms = [0.0; 4];

    let requests = REQUESTS.load(Ordering::Relaxed);
    let t = Instant::now();
    while load.len() > 0 {
        let txn = db.txn_manager().begin();
        for r in load.by_ref().take(TXN_ROWS) {
            table.insert(&txn, r).unwrap();
        }
        txn.commit().unwrap();
    }
    ms[0] = t.elapsed().as_secs_f64() * 1e3;
    let insert_requests = REQUESTS.load(Ordering::Relaxed) - requests;

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

    // Updates of merged rows, spread over the table as E12's are.
    let mut longest_update = (0.0, 0);
    for u in 0..UPDATES {
        let i = (u as i64 * 7_919) % rows;
        let t = Instant::now();
        let txn = db.txn_manager().begin();
        table.update(&txn, &keys[i as usize], row(i, 6)).unwrap();
        txn.commit().unwrap();
        let took = t.elapsed().as_secs_f64() * 1e3;
        if took > longest_update.0 {
            longest_update = (took, u);
        }
    }

    gets(3, &mut ms);
    Round {
        ms,
        longest_update,
        insert_requests,
    }
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
    println!("{rows} rows in ascending key order, {TXN_ROWS} a transaction, one thread, best of {ROUNDS}:");
    for format in ["COLUMN", "DUAL"] {
        let rounds: Vec<Round> = (0..ROUNDS).map(|_| round(format, rows)).collect();
        println!("{format}");
        for (phase, name) in PHASES.iter().enumerate() {
            let ms = rounds
                .iter()
                .map(|r| r.ms[phase])
                .fold(f64::INFINITY, f64::min);
            println!(
                "  {name:<12} {ms:>9.2} ms {:>7.0} ns a row",
                ms * 1e6 / rows as f64
            );
        }
        let longest: Vec<String> = rounds
            .iter()
            .map(|r| format!("{:.2} ms (#{})", r.longest_update.0, r.longest_update.1))
            .collect();
        println!(
            "  longest of the first {UPDATES} updates after maintenance, each round: {}",
            longest.join(", ")
        );
        let requests = rounds.iter().map(|r| r.insert_requests).min().unwrap();
        println!(
            "  allocations a key while inserting: {:.2}",
            requests as f64 / rows as f64
        );
    }
    if let Some(peak) = peak_rss() {
        println!("peak RSS       {peak}");
    }
}
