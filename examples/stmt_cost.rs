//! What a statement costs the engine before it touches a row: the probe
//! behind DESIGN.md § "Plan cache".
//!
//! Loads the benchmark's own CH population (`point_read`'s 16 warehouses by
//! default) and times, median µs per call:
//!
//! * a point `SELECT` (the benchmark's customer read): the stages a
//!   plan-cache *miss* pays — `tokenize` (the one lexer: tokens, shape and
//!   literals), `parse`, `bind`, `optimize` — then `Session::execute`
//!   whole three ways, taking turns call by call: a *miss* (the shape's
//!   plan retired by an untimed DDL just before), a *hit*, and *planned
//!   alone* (`parse` + `Session::execute_statement`, no cache);
//! * a Payment (the benchmark's): its customer `UPDATE`'s parse (lex +
//!   parse), bind (binding its SET list, and binding and optimizing the
//!   `SELECT *` its WHERE implies — the plan that finds its row), the
//!   `get` + `update` it does in storage, and its SET expressions filled
//!   from the literals — what a hit still pays per statement, and all that
//!   reading their parameters at evaluation could save; then the `UPDATE`
//!   whole (auto-commit) and `BEGIN` + three `UPDATE`s + `COMMIT` whole,
//!   the same three ways.
//!
//! Run with: `cargo run --release --example stmt_cost [warehouses]`
//! (default 16; CI passes 1 and reads only the exit status). Release only,
//! and only beside the other commit's build on the same host: the numbers
//! move with the host's regime.
#![allow(dead_code)]

#[path = "../benchmark/src/ch.rs"]
mod ch;
#[path = "../benchmark/src/rng.rs"]
mod rng;

use oltapdb::common::{Result, Value};
use oltapdb::core::{Database, Session};
use oltapdb::sql::ast::{SelectStmt, Statement};
use oltapdb::sql::plan::fill_expr;
use oltapdb::sql::{bind_scalar, bind_select, lex, optimize_shape, parse, parse_tokens};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

const CALLS: usize = 3000;

/// Median µs of `CALLS` calls of `timed`, each after an untimed `setup`
/// whose output it consumes.
fn median_us<S>(mut setup: impl FnMut(usize) -> S, mut timed: impl FnMut(S)) -> f64 {
    let mut us: Vec<f64> = (0..CALLS)
        .map(|i| {
            let input = setup(i);
            let t = Instant::now();
            timed(input);
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    us.sort_by(f64::total_cmp);
    us[CALLS / 2]
}

/// How a statement meets the plan cache.
#[derive(Clone, Copy, PartialEq)]
enum Way {
    /// Its shape's plan retired (by an untimed DDL) just before.
    Miss,
    /// Its shape planned by the call before.
    Hit,
    /// `parse` + `Session::execute_statement`: planned for itself, no cache.
    Alone,
}

/// Median µs of `timed` each [`Way`] (miss, hit, alone), `CALLS` calls
/// each, the three taking turns call by call so that the host's drift
/// falls on all three alike; every 600 calls an untimed maintenance pass
/// merges what the writes left.
fn three_ways<S>(
    db: &Arc<Database>,
    mut setup: impl FnMut(usize) -> S,
    mut timed: impl FnMut(S, Way),
) -> [f64; 3] {
    let mut us: [Vec<f64>; 3] = Default::default();
    for i in 0..3 * CALLS {
        let way = [Way::Miss, Way::Hit, Way::Alone][i % 3];
        if i % 600 == 0 {
            db.maintenance();
        }
        if way == Way::Miss {
            db.execute("CREATE TABLE probe_retire (id BIGINT PRIMARY KEY)")
                .and_then(|_| db.execute("DROP TABLE probe_retire"))
                .expect("DDL runs");
        }
        let input = setup(i);
        let t = Instant::now();
        timed(input, way);
        us[i % 3].push(t.elapsed().as_secs_f64() * 1e6);
    }
    us.map(|mut v| {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    })
}

/// Runs `sql` the [`Way`] asked.
fn run(session: &mut Session, sql: &str, way: Way) {
    let answer = match way {
        Way::Alone => parse(sql).and_then(|s| session.execute_statement(s, sql)),
        Way::Miss | Way::Hit => session.execute(sql),
    };
    black_box(answer.expect("runs"));
}

fn main() -> Result<()> {
    let warehouses: i64 = match std::env::args().nth(1) {
        Some(n) => n.parse().expect("warehouses: an integer"),
        None => 16,
    };
    let db = Database::new();
    for stmt in ch::ddl() {
        db.execute(stmt)?;
    }
    // The benchmark's load: 2000-row transactions, then one maintenance pass.
    for (table, rows) in &ch::populate(warehouses).tables {
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
    let mut rng = rng::Rng::new(1);
    let mut point = move |_| {
        ch::PointKey::Customer(
            rng.range(1, warehouses),
            rng.range(1, ch::card::DISTRICTS),
            rng.range(1, ch::card::CUSTOMERS),
        )
        .sql()
    };
    let mut session = db.session();
    println!("{warehouses} warehouses; median of {CALLS} calls, us per call");

    // --------------------------------------------------------- point SELECT
    let tokenize = median_us(&mut point, |sql| drop(black_box(lex(&sql))));
    let parse_us = median_us(
        |i| lex(&point(i)).expect("lexes"),
        |l| drop(black_box(parse_tokens(l.tokens, &l.params))),
    );
    let select = |l: oltapdb::sql::Lexed| match parse_tokens(l.tokens, &l.params) {
        Ok(Statement::Select(sel)) => sel,
        other => panic!("not a SELECT: {other:?}"),
    };
    let bind = median_us(
        |i| select(lex(&point(i)).expect("lexes")),
        |sel| drop(black_box(bind_select(&sel, &*db.catalog_read()))),
    );
    let optimize = median_us(
        |i| bind_select(&select(lex(&point(i)).expect("lexes")), &*db.catalog_read()),
        |bound| drop(black_box(optimize_shape(bound.expect("binds")))),
    );
    // A hit follows its miss: two calls of one statement.
    let mut last = String::new();
    let [miss, hit, alone] = three_ways(
        &db,
        |i| {
            if i % 3 != 1 {
                last = point(i);
            }
            last.clone()
        },
        |sql, way| run(&mut session, &sql, way),
    );
    println!("point SELECT (customer)");
    println!("  miss stages   tokenize {tokenize:6.2}  parse {parse_us:6.2}  bind {bind:6.2}  optimize {optimize:6.2}");
    println!("  whole         miss {miss:6.2}  hit {hit:6.2}  (hit/miss {:.2})  planned alone {alone:6.2}", hit / miss);

    // -------------------------------------------------------------- Payment
    let mut rng = rng::Rng::new(2);
    let mut payment = move |_| ch::Payment {
        w: rng.range(1, warehouses),
        d: rng.range(1, ch::card::DISTRICTS),
        c: rng.range(1, ch::card::CUSTOMERS),
        amount: rng.range(100, 499_999) as f64 / 100.0,
    };
    let customer_update = |p: &ch::Payment| p.statements()[1].clone();
    let update_parse = median_us(
        |i| customer_update(&payment(i)),
        |sql| drop(black_box(lex(&sql).and_then(|l| parse_tokens(l.tokens, &l.params)))),
    );
    let customer = db.table("customer")?;
    let schema = Arc::clone(customer.schema());
    let update_bind = median_us(
        |i| {
            let l = lex(&customer_update(&payment(i))).expect("lexes");
            parse_tokens(l.tokens, &l.params).expect("parses")
        },
        |stmt| {
            let Statement::Update { table, set, filter } = stmt else {
                panic!("not an UPDATE")
            };
            for (_, e) in &set {
                black_box(bind_scalar(e, &schema).expect("binds"));
            }
            let rows = bind_select(&SelectStmt::rows_of(&table, filter), &*db.catalog_read());
            black_box(optimize_shape(rows.expect("binds")).expect("optimizes"));
        },
    );
    // A hit's per-statement expression work: the bound SET expressions,
    // filled from the literals.
    let bound_set: Vec<_> = {
        let l = lex(&customer_update(&payment(0)))?;
        let Statement::Update { set, .. } = parse_tokens(l.tokens, &l.params)? else {
            unreachable!("an UPDATE")
        };
        set.iter()
            .map(|(_, e)| bind_scalar(e, &schema))
            .collect::<Result<_>>()?
    };
    let fill = median_us(
        |i| lex(&customer_update(&payment(i))).expect("lexes").params,
        |params| {
            for e in &bound_set {
                let mut e = e.clone();
                fill_expr(&mut e, &params);
                black_box(e);
            }
        },
    );
    let get_update = median_us(
        |i| {
            let p = payment(i);
            let key = oltapdb::common::Row::new(vec![Value::Int(p.w), Value::Int(p.d), Value::Int(p.c)]);
            (db.txn_manager().begin(), key)
        },
        |(txn, key)| {
            let row = customer
                .get(&key, txn.begin_ts(), txn.id())
                .expect("reads")
                .expect("the customer exists");
            customer.update(&txn, &key, row).expect("updates");
            // Dropped unfinished: the write rolls back.
        },
    );
    let mut last = ch::Payment { w: 1, d: 1, c: 1, amount: 1.0 };
    let mut next = |i: usize| {
        if i % 3 != 1 {
            last = payment(i);
        }
        last.clone()
    };
    let [update_miss, update_hit, update_alone] = three_ways(&db, &mut next, |p, way| {
        run(&mut session, &customer_update(&p), way)
    });
    let [payment_miss, payment_hit, payment_alone] = three_ways(&db, &mut next, |p, way| {
        for sql in p.statements() {
            run(&mut session, &sql, way);
        }
    });
    println!("Payment");
    println!("  customer UPDATE  parse {update_parse:6.2}  bind {update_bind:6.2}  get + update {get_update:6.2}  hit's SET fill {fill:6.2}");
    println!("  customer UPDATE whole (auto-commit)  miss {update_miss:6.2}  hit {update_hit:6.2}  (saved {:.2})  planned alone {update_alone:6.2}", update_miss - update_hit);
    println!("  BEGIN + 3 UPDATE + COMMIT  miss {payment_miss:6.2}  hit {payment_hit:6.2}  (saved {:.2})  planned alone {payment_alone:6.2}", payment_miss - payment_hit);
    let stats = db.stats();
    println!(
        "plan cache: {} hits, {} misses, {} invalidations, {} shapes",
        stats.plan_hits, stats.plan_misses, stats.plan_invalidations, stats.plan_shapes
    );
    Ok(())
}
