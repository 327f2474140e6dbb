//! What an unmerged row costs an analytic statement: the probe behind the
//! delta rows of DESIGN.md § "What a row costs".
//!
//! Loads the benchmark's own 8-warehouse CH population (`htap_mixed`'s),
//! runs one maintenance pass so every delta is empty, then runs NewOrder
//! transactions — the benchmark generator's shape, its own SQL — through a
//! `Session` with **no maintenance**, so `order_line` and `stock` grow a
//! delta in front of their segments. Each time `order_line`'s delta reaches
//! the next target it times, best of five rounds, µs per call:
//!
//! * `walk`: `fused_scan_parts` of `order_line` with an empty projection —
//!   every chain visited, its visible version found, no value copied
//!   (`cold`: the same, best single call after a sweep that empties L2);
//! * `fused`: `fused_scan_parts` with Q15's projection (`ol_w_id`,
//!   `ol_amount`) — the walk plus filling two columns;
//! * the four `order_line` statements and `stock`'s Q2, whole.
//!
//! Run with: `cargo run --release --example delta_scan_cost [most delta rows]`
//! (default 6 000: targets 0, 200, 800, 1 500, 3 000, 4 000, 6 000; CI passes a
//! small cap and reads only the exit status).
#![allow(dead_code)]

#[path = "../benchmark/src/ch.rs"]
mod ch;
#[path = "../benchmark/src/rng.rs"]
mod rng;

use ch::{card, NewOrder};
use oltapdb::common::ids::TxnId;
use oltapdb::core::Database;
use oltapdb::storage::ScanPredicate;
use std::hint::black_box;
use std::time::Instant;

const WAREHOUSES: i64 = 8;
const TARGETS: [usize; 7] = [0, 200, 800, 1500, 3000, 4000, 6000];
const ROUNDS: usize = 5;
const CALLS: usize = 20;
/// Swept between two `cold` calls: several times the largest L2 around.
const EVICT_BYTES: usize = 16 << 20;
/// A reader that owns no pending write.
const NOBODY: TxnId = TxnId(u64::MAX - 1);
/// The statements timed whole: `ch::OLAP` ids, `order_line`'s then `stock`'s.
const STATEMENTS: [&str; 5] = ["Q1", "Q6", "Q14", "Q15", "Q2"];

/// The benchmark generator's NewOrder (`OltpStream::new_order`): 5–10 lines
/// on distinct items of one warehouse, each an `order_line` insert and a
/// `stock` update.
fn new_order(rng: &mut rng::Rng, o_id: i64) -> NewOrder {
    let w = rng.range(1, WAREHOUSES);
    let d = rng.range(1, card::DISTRICTS);
    let c = rng.range(1, card::CUSTOMERS);
    let ol_cnt = rng.range(card::MIN_OL, card::MAX_OL) as usize;
    let mut lines: Vec<(i64, i64)> = Vec::with_capacity(ol_cnt);
    while lines.len() < ol_cnt {
        let item = rng.range(1, card::ITEMS);
        if lines.iter().all(|&(i, _)| i != item) {
            lines.push((item, rng.range(1, 10)));
        }
    }
    NewOrder {
        w,
        d,
        o_id,
        c,
        lines,
    }
}

/// Best-of-`ROUNDS` µs per call of `f` over `CALLS` calls.
fn best_us(mut f: impl FnMut()) -> f64 {
    (0..ROUNDS)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..CALLS {
                f();
            }
            t.elapsed().as_secs_f64() * 1e6 / CALLS as f64
        })
        .fold(f64::INFINITY, f64::min)
}

fn main() -> oltapdb::common::Result<()> {
    let cap: usize = match std::env::args().nth(1) {
        Some(n) => n.parse().expect("most delta rows: an integer"),
        None => 6000,
    };

    let db = Database::new();
    for stmt in ch::ddl() {
        db.execute(stmt)?;
    }
    // The benchmark's load: 2000-row transactions, then one maintenance pass.
    for (table, rows) in &ch::populate(WAREHOUSES).tables {
        let handle = db.table(table)?;
        for chunk in rows.chunks(2000) {
            let txn = db.txn_manager().begin();
            for row in chunk {
                handle.insert(&txn, row.clone())?;
            }
            txn.commit()?;
        }
    }
    db.maintenance();
    let (order_line, stock) = (db.table("order_line")?, db.table("stock")?);
    let order_line = order_line.columns().expect("the CH tables are COLUMN tables");
    let stock = stock.columns().expect("the CH tables are COLUMN tables");

    println!(
        "{WAREHOUSES} warehouses, order_line {} main rows in {} segments; best of {ROUNDS} x {CALLS} calls, us per call",
        order_line.sizes().main_rows,
        order_line.sizes().segments
    );
    print!(
        "{:>9} {:>9} {:>8} {:>8} {:>8} {:>8}",
        "ol delta", "st delta", "walk", "ns/row", "cold", "fused"
    );
    for id in STATEMENTS {
        print!(" {id:>8}");
    }
    println!();

    let mut session = db.session();
    let mut rng = rng::Rng::new(1);
    let mut next_o_id = ch::FIRST_NEW_O_ID;
    let all = ScanPredicate::all();
    let evict: Vec<u64> = (0..EVICT_BYTES as u64 / 8).collect();
    for target in TARGETS.into_iter().filter(|&t| t <= cap) {
        while order_line.sizes().delta_rows < target {
            for sql in new_order(&mut rng, next_o_id).statements() {
                session.execute(&sql)?;
            }
            next_o_id += 1;
        }
        let delta_rows = order_line.sizes().delta_rows;
        let read_ts = db.txn_manager().now();
        let scan = |projection: &[usize]| {
            black_box(order_line.fused_scan_parts(projection, &all, read_ts, NOBODY, 4096))
                .expect("the delta scans");
        };
        let walk = best_us(|| scan(&[]));
        // As a statement meets it: the segment scan before it has pushed the
        // chains out of L2, so sweep `evict` between calls and time the walk
        // alone, one call at a time.
        let cold = (0..ROUNDS * 4)
            .map(|_| {
                black_box(evict.iter().sum::<u64>());
                let t = Instant::now();
                scan(&[]);
                t.elapsed().as_secs_f64() * 1e6
            })
            .fold(f64::INFINITY, f64::min);
        let fused = best_us(|| scan(&[0, 6]));
        print!(
            "{delta_rows:>9} {:>9} {walk:>8.1} {:>8.1} {cold:>8.1} {fused:>8.1}",
            stock.sizes().delta_rows,
            // Of an empty delta the walk is the call's fixed cost, not a row's.
            if delta_rows == 0 { 0.0 } else { walk * 1e3 / delta_rows as f64 },
        );
        for id in STATEMENTS {
            let (_, sql) = ch::OLAP
                .iter()
                .find(|(q, _)| *q == id)
                .expect("a CH statement");
            let us = best_us(|| {
                black_box(session.execute(sql)).expect("the statement runs");
            });
            print!(" {us:>8.1}");
        }
        println!();
    }
    Ok(())
}
