//! What segments and the merge policy cost the analytic statements: the
//! probe behind DESIGN.md § "Hot/cold compaction" and the three costs of the
//! break-even merge trigger (`oltapdb::storage::delta`).
//!
//! Loads the benchmark's own 8-warehouse CH population (`htap_mixed`'s),
//! runs one maintenance pass, then N NewOrder transactions — the benchmark
//! generator's shape, its own SQL — through a `Session`. Every 34 NewOrders
//! it runs the seven CH statements `ROTATIONS` times (about as many analytic
//! statements as `htap_mixed` issues per 34 NewOrders, so a delta key is
//! visited about as often as there) and records the mean rotation. Three
//! ways to maintain the tables:
//!
//! * `clock`: a full pass (`Database::maintenance`) every 340 NewOrders and
//!   nothing between — the daemon's 250 ms tick at `htap_mixed`'s rate, the
//!   only cadence there was before the trigger;
//! * `policy`: the same passes, and after every sample the trigger's pass
//!   (`Database::merge_due`), which merges the tables whose visits have paid
//!   for a merge — what the daemon does when a table rings;
//! * `rebuilt`: the live rows `policy` ended with, loaded into a fresh
//!   database as one segment a table with every delta empty — the ceiling.
//!
//! For each it prints the time-averaged rotation and the time maintenance
//! took, and per NewOrder table the segments, stored rows, dead rows and
//! merges it ended with. Then the trigger's three costs where it runs: a
//! statement's ns per delta key walked (the four `order_line` statements
//! over a delta, and again once it has merged), and a merge's ns per row and
//! fixed µs (merges of three delta sizes, least squares).
//!
//! Run with: `cargo run --release --example segment_cost [NewOrders]`
//! (default 6 800; CI passes 680 and reads only the exit status).
#![allow(dead_code)]

#[path = "../benchmark/src/ch.rs"]
mod ch;
#[path = "../benchmark/src/rng.rs"]
mod rng;

use ch::{card, NewOrder};
use oltapdb::core::{Database, Session};
use oltapdb::storage::DeltaMainTable;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

const WAREHOUSES: i64 = 8;
const SAMPLE_EVERY: usize = 34;
const PASS_EVERY: usize = 340;
const ROTATIONS: usize = 5;
/// The tables a NewOrder writes.
const WRITTEN: [&str; 3] = ["orders", "order_line", "stock"];
/// The statements over `order_line`, by `ch::OLAP` id.
const ORDER_LINE: [&str; 4] = ["Q1", "Q6", "Q14", "Q15"];

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

/// The benchmark's database: the population in 2000-row transactions, then
/// one maintenance pass.
fn load() -> oltapdb::common::Result<Arc<Database>> {
    let db = Database::new();
    for stmt in ch::ddl() {
        db.execute(stmt)?;
    }
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
    Ok(db)
}

fn column(db: &Database, name: &str) -> oltapdb::common::Result<Arc<DeltaMainTable>> {
    Ok(Arc::clone(db.table(name)?.columns().expect("the CH tables are COLUMN tables")))
}

fn sql_of(id: &str) -> &'static str {
    ch::OLAP
        .iter()
        .find(|(q, _)| *q == id)
        .expect("a CH statement")
        .1
}

/// µs of the statements `ids`, once each.
fn statements_us(session: &mut Session, ids: &[&str]) -> oltapdb::common::Result<f64> {
    let started = Instant::now();
    for id in ids {
        black_box(session.execute(sql_of(id))?);
    }
    Ok(started.elapsed().as_secs_f64() * 1e6)
}

fn rotation_us(session: &mut Session) -> oltapdb::common::Result<f64> {
    let all: Vec<&str> = ch::OLAP.iter().map(|(id, _)| *id).collect();
    statements_us(session, &all)
}

#[derive(Default)]
struct Run {
    /// Mean rotation, µs, one per sample.
    rotations: Vec<f64>,
    maintenance_ms: f64,
    /// Merges per table, and the rows they moved.
    merges: BTreeMap<String, (usize, usize)>,
    /// Per table, the longest hold of its state write lock between two
    /// passes, µs, one per pass.
    holds_us: BTreeMap<String, Vec<u64>>,
}

/// The number after `label` in a maintenance note.
fn note_number(note: &str, label: &str) -> Option<u64> {
    let at = note.find(label)? + label.len();
    note[at..]
        .split(|c: char| !c.is_ascii_digit())
        .find(|s| !s.is_empty())?
        .parse()
        .ok()
}

/// `new_orders` NewOrders with a full pass every `PASS_EVERY`, and — when
/// `trigger` — the trigger's pass after every sample.
fn run(new_orders: usize, trigger: bool) -> oltapdb::common::Result<(Run, Arc<Database>)> {
    let db = load()?;
    let mut session = db.session();
    let mut rng = rng::Rng::new(1);
    let mut run = Run::default();
    for n in 1..=new_orders {
        for sql in new_order(&mut rng, ch::FIRST_NEW_O_ID + n as i64 - 1).statements() {
            session.execute(&sql)?;
        }
        if n % SAMPLE_EVERY == 0 {
            let mut total = 0.0;
            for _ in 0..ROTATIONS {
                total += rotation_us(&mut session)?;
            }
            run.rotations.push(total / ROTATIONS as f64);
            if trigger {
                let started = Instant::now();
                for (table, stats) in db.merge_due() {
                    let merges = run.merges.entry(table).or_default();
                    merges.0 += 1;
                    merges.1 += stats.rows_merged;
                }
                run.maintenance_ms += started.elapsed().as_secs_f64() * 1e3;
            }
        }
        if n % PASS_EVERY == 0 {
            let started = Instant::now();
            let pass = db.maintenance();
            run.maintenance_ms += started.elapsed().as_secs_f64() * 1e3;
            for (table, note) in pass.notes {
                let hold = note_number(&note, "longest write hold ").unwrap_or(0);
                run.holds_us.entry(table.clone()).or_default().push(hold);
                let rows = note_number(&note, "merged ").unwrap_or(0) as usize;
                if rows > 0 {
                    let merges = run.merges.entry(table).or_default();
                    merges.0 += 1;
                    merges.1 += rows;
                }
            }
        }
    }
    Ok((run, db))
}

/// The live rows of `db`, one segment a table, every delta empty.
fn rebuilt(db: &Arc<Database>) -> oltapdb::common::Result<Arc<Database>> {
    let fresh = Database::new();
    for stmt in ch::ddl() {
        fresh.execute(stmt)?;
    }
    for name in db.table_names() {
        let rows = db.query(&format!("SELECT * FROM {name}"))?;
        let handle = fresh.table(&name)?;
        for chunk in rows.chunks(2000) {
            let txn = fresh.txn_manager().begin();
            for row in chunk {
                handle.insert(&txn, row.clone())?;
            }
            txn.commit()?;
        }
    }
    fresh.maintenance();
    Ok(fresh)
}

fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len().max(1) as f64
}

fn report(arm: &str, run: &Run, db: &Database) -> oltapdb::common::Result<()> {
    let merged: usize = run.merges.values().map(|&(_, rows)| rows).sum();
    println!(
        "{arm:>8}: rotation {:>7.0} us time-averaged over {} samples, maintenance {:>6.0} ms \
         ({:.0} ns a merged row, all in)",
        mean(&run.rotations),
        run.rotations.len(),
        run.maintenance_ms,
        run.maintenance_ms * 1e6 / merged.max(1) as f64
    );
    for name in WRITTEN {
        let sizes = column(db, name)?.sizes();
        let (merges, rows) = run.merges.get(name).copied().unwrap_or_default();
        let mut holds = run.holds_us.get(name).cloned().unwrap_or_default();
        holds.sort_unstable();
        let (median, max) = (holds.get(holds.len() / 2), holds.last());
        println!(
            "{:>10}  {:>12}: {:>3} segments, {:>6} stored rows ({:>6} dead), {:>4} delta keys, {merges:>4} merges of {rows:>6} rows, longest write hold a pass {:>5} us median, {:>5} max",
            "", name, sizes.segments, sizes.main_rows, sizes.main_dead_rows, sizes.delta_rows,
            median.copied().unwrap_or(0), max.copied().unwrap_or(0)
        );
    }
    Ok(())
}

/// A statement's ns per delta key, and a merge's ns per row and fixed µs,
/// over `order_line` deltas of about 1/200, 1/20 and 1/2 of `new_orders`
/// keys.
fn costs(new_orders: usize) -> oltapdb::common::Result<()> {
    let db = load()?;
    let order_line = column(&db, "order_line")?;
    let mut session = db.session();
    let mut rng = rng::Rng::new(7);
    let mut o_id = ch::FIRST_NEW_O_ID;
    let mut grow = |session: &mut Session, keys: usize| -> oltapdb::common::Result<()> {
        while order_line.sizes().delta_rows < keys {
            for sql in new_order(&mut rng, o_id).statements() {
                session.execute(&sql)?;
            }
            o_id += 1;
        }
        Ok(())
    };
    let best = |session: &mut Session| -> oltapdb::common::Result<f64> {
        let mut best = f64::INFINITY;
        for _ in 0..5 {
            best = best.min(statements_us(session, &ORDER_LINE)?);
        }
        Ok(best)
    };
    // Merges of three sizes, three times each.
    let mut points = Vec::new();
    let sizes = [new_orders / 200, new_orders / 20, new_orders / 2].map(|keys| keys.max(1));
    for keys in sizes.into_iter().cycle().take(9) {
        grow(&mut session, keys)?;
        let with_delta = best(&mut session)?;
        let walked = order_line.sizes().delta_rows;
        let started = Instant::now();
        let merged = order_line
            .merge(db.txn_manager().gc_watermark())?
            .rows_merged;
        let merge_us = started.elapsed().as_secs_f64() * 1e6;
        let merged_away = best(&mut session)?;
        points.push((merged as f64, merge_us));
        if keys == sizes[2] {
            println!(
                "visit: {walked} delta keys cost the four order_line statements {:.0} us: {:.0} ns a key a statement",
                with_delta - merged_away,
                (with_delta - merged_away) * 1e3 / (walked * ORDER_LINE.len()) as f64
            );
        }
        // Put the segments back to one, as the next pass would.
        db.maintenance();
    }
    let n = points.len() as f64;
    let (sx, sy) = (
        points.iter().map(|p| p.0).sum::<f64>(),
        points.iter().map(|p| p.1).sum::<f64>(),
    );
    let sxx = points.iter().map(|p| p.0 * p.0).sum::<f64>();
    let sxy = points.iter().map(|p| p.0 * p.1).sum::<f64>();
    let per_row = (n * sxy - sx * sy) / (n * sxx - sx * sx);
    let fixed = (sy - per_row * sx) / n;
    println!(
        "merge: {:.0} ns a row, {fixed:.0} us fixed (rows, us: {})",
        per_row * 1e3,
        points
            .iter()
            .map(|(r, us)| format!("{r:.0} {us:.0}"))
            .collect::<Vec<_>>()
            .join(", ")
    );
    Ok(())
}

fn main() -> oltapdb::common::Result<()> {
    let new_orders: usize = match std::env::args().nth(1) {
        Some(n) => n.parse().expect("NewOrders: an integer"),
        None => 6800,
    };
    println!(
        "{WAREHOUSES} warehouses, {new_orders} NewOrders, a sample ({ROTATIONS} rotations of the {} CH statements) every {SAMPLE_EVERY}, a full pass every {PASS_EVERY}",
        ch::OLAP.len()
    );
    let (clock, clock_db) = run(new_orders, false)?;
    report("clock", &clock, &clock_db)?;
    drop(clock_db);
    let (policy, policy_db) = run(new_orders, true)?;
    report("policy", &policy, &policy_db)?;
    let ceiling = rebuilt(&policy_db)?;
    let mut session = ceiling.session();
    let mut samples = Vec::new();
    for _ in 0..policy.rotations.len().clamp(1, 20) {
        samples.push(rotation_us(&mut session)?);
    }
    println!(
        "{:>8}: rotation {:>7.0} us over {} rotations",
        "rebuilt",
        mean(&samples),
        samples.len()
    );
    costs(new_orders)
}
