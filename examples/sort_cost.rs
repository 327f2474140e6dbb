//! What a full `ORDER BY` costs beside the same `SELECT` unsorted: the
//! probe behind the bar on the columnar sort (ROADMAP item 14, EXPERIMENTS.md
//! E18c).
//!
//! Bulk-loads `t (id, g, f, s)` with 50 000 rows by default, held in one
//! segment, and times on one worker, best of 20 rounds, the three taking
//! turns round by round:
//!
//! * `SELECT id, f FROM t ORDER BY f` — the full sort sink;
//! * `SELECT id, f FROM t` — the same rows unsorted;
//! * `SELECT id, f FROM t ORDER BY f LIMIT 4096` — the top-K sink.
//!
//! and prints each in ms, then the sort's ratio to the unsorted `SELECT`.
//!
//! Run with: `cargo run --release --example sort_cost [rows]` (CI passes
//! 2000 and reads only the exit status). Release only, and only beside the
//! other commit's build on the same host, alternately: the numbers move
//! with the host's regime.

use oltapdb::common::{Row, Value};
use oltapdb::core::Database;
use std::time::Instant;

const ROUNDS: usize = 20;

const STATEMENTS: [(&str, &str); 3] = [
    ("ORDER BY f", "SELECT id, f FROM t ORDER BY f"),
    ("unsorted", "SELECT id, f FROM t"),
    ("ORDER BY f LIMIT 4096", "SELECT id, f FROM t ORDER BY f LIMIT 4096"),
];

fn main() {
    let rows: i64 = std::env::args().nth(1).map_or(50_000, |n| n.parse().expect("rows"));
    let db = Database::new();
    db.set_parallelism(1);
    db.execute("CREATE TABLE t (id BIGINT PRIMARY KEY, g BIGINT, f DOUBLE, s TEXT) USING FORMAT COLUMN")
        .unwrap();
    let load: Vec<Row> = (0..rows)
        .map(|i| {
            Row::new(vec![
                Value::Int(i),
                Value::Int(i % 100),
                Value::Float(((i * 7919) % 100_003) as f64 * 0.25),
                Value::Str(format!("s{}", i % 37)),
            ])
        })
        .collect();
    db.table("t").unwrap().columns().unwrap().bulk_load(&load).unwrap();
    let mut best = [f64::INFINITY; 3];
    for _ in 0..ROUNDS {
        for ((_, sql), best) in STATEMENTS.iter().zip(&mut best) {
            let t = Instant::now();
            let answer = db.query(sql).unwrap();
            *best = best.min(t.elapsed().as_secs_f64() * 1e3);
            assert_eq!(answer.len() as i64, if sql.contains("LIMIT") { rows.min(4096) } else { rows });
        }
    }
    println!("{rows} held rows, one worker, best of {ROUNDS}:");
    for ((name, _), ms) in STATEMENTS.iter().zip(best) {
        println!("  {name:<24} {ms:>8.2} ms");
    }
    println!("  sorted / unsorted        {:>8.2}x", best[0] / best[1]);
}
