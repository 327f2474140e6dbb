//! The plan cache: a statement run through `execute` — its shape planned
//! once, its literals filling the plan's slots — answers what the same
//! statement planned for itself alone (`execute_statement(parse(sql))`)
//! answers, bit for bit, with the same access path and pushdown; DDL
//! retires plans; the benchmark's statements hit.
#![allow(dead_code)]

#[path = "../benchmark/src/ch.rs"]
mod ch;
#[path = "../benchmark/src/rng.rs"]
mod rng;

use oltapdb::common::{DbError, Result, Row, Value};
use oltapdb::core::prepared::PLAN_CACHE_SHAPES;
use oltapdb::core::{Database, DbStats, QueryResult, Session};
use oltapdb::sql::parse;
use std::sync::Arc;

/// A value's bits: floats by their IEEE image, so `-0.0` is not `0.0`.
fn bits(v: &Value) -> String {
    match v {
        Value::Float(f) => format!("F{:016x}", f.to_bits()),
        other => format!("{other:?}"),
    }
}

/// What a statement answered, comparable by bits: the result set with its
/// schema, the affected count, or the kind of error.
fn answer(r: Result<QueryResult>) -> String {
    match r {
        Ok(QueryResult::Rows { schema, rows }) => {
            let cols: Vec<String> = schema
                .fields()
                .iter()
                .map(|f| format!("{}:{:?}", f.name, f.data_type))
                .collect();
            let rows: Vec<String> = rows
                .iter()
                .map(|r| r.values().iter().map(bits).collect::<Vec<_>>().join(","))
                .collect();
            format!("[{}] {}", cols.join(","), rows.join(" | "))
        }
        Ok(QueryResult::Affected(n)) => format!("affected {n}"),
        Ok(other) => format!("{other:?}"),
        Err(e) => format!("error {:?}", std::mem::discriminant(&e)),
    }
}

fn uncached(s: &mut Session, sql: &str) -> Result<QueryResult> {
    s.execute_statement(parse(sql)?, sql)
}

/// The same database twice: `cached` runs everything through `execute`,
/// `plain` through `execute_statement`.
struct Twins {
    cached: Session,
    plain: Session,
    dbs: [Arc<Database>; 2],
}

impl Twins {
    fn new(setup: &[String]) -> Twins {
        let dbs = [Database::new(), Database::new()];
        let (mut cached, mut plain) = (dbs[0].session(), dbs[1].session());
        for sql in setup {
            cached.execute(sql).unwrap();
            uncached(&mut plain, sql).unwrap();
        }
        Twins { cached, plain, dbs }
    }

    /// Runs `sql` on both and returns the common answer, failing the test
    /// where they differ. A SELECT's EXPLAIN must agree too: the cached
    /// plan, filled, is the plan of this statement alone.
    fn run(&mut self, sql: &str) -> String {
        let got = answer(self.cached.execute(sql));
        let want = answer(uncached(&mut self.plain, sql));
        assert_eq!(got, want, "{sql}");
        if sql.starts_with("SELECT") {
            let explain = format!("EXPLAIN {sql}");
            let got = answer(self.cached.execute(&explain));
            let want = answer(uncached(&mut self.plain, &explain));
            assert_eq!(got, want, "{explain}");
        }
        got
    }

    fn stats(&self) -> DbStats {
        self.dbs[0].stats()
    }
}

/// SplitMix64 literals for a template: `{i}` a small integer, `{k}` a key
/// of `m`, `{n}` a key of `n`, `{f}` a float (sometimes `-0.0`), `{s}` a
/// category.
fn instantiate(template: &str, rng: &mut rng::Rng) -> String {
    let mut out = template.to_string();
    while let Some(at) = out.find('{') {
        let end = at + out[at..].find('}').unwrap();
        let lit = match &out[at + 1..end] {
            "i" => rng.range(-3, 60).to_string(),
            "k" => rng.range(0, 520).to_string(),
            "n" => rng.range(0, 5).to_string(),
            "f" => match rng.range(0, 4) {
                0 => "-0.0".to_string(),
                _ => format!("{:?}", rng.range(-500, 5000) as f64 / 10.0),
            },
            "s" => format!("'{}'", ["a", "b", "c", "zz"][rng.range(0, 3) as usize]),
            other => panic!("unknown placeholder {other}"),
        };
        out.replace_range(at..=end, &lit);
    }
    out
}

fn fixture(format: &str) -> Vec<String> {
    let mut setup = vec![
        format!(
            "CREATE TABLE m (id BIGINT PRIMARY KEY, cat TEXT, x BIGINT, y DOUBLE) \
             USING FORMAT {format}"
        ),
        format!("CREATE TABLE n (id BIGINT PRIMARY KEY, v BIGINT) USING FORMAT {format}"),
        "INSERT INTO n VALUES (1, 10), (2, NULL), (3, 30), (4, -9223372036854775807)".into(),
        "CREATE TABLE users (uid BIGINT PRIMARY KEY, name TEXT, country TEXT)".into(),
        "CREATE TABLE events (eid BIGINT PRIMARY KEY, uid BIGINT, kind TEXT)".into(),
        "CREATE TABLE countries (code TEXT NOT NULL, region TEXT, PRIMARY KEY (code))".into(),
        "INSERT INTO users VALUES (1,'ada','de'), (2,'bob','us'), (3,'chen','de')".into(),
        "INSERT INTO countries VALUES ('de','emea'), ('us','amer')".into(),
    ];
    for i in 0..500i64 {
        setup.push(format!(
            "INSERT INTO m VALUES ({i}, '{}', {}, {:?})",
            ["a", "b", "c"][(i % 3) as usize],
            i % 50,
            i as f64 / 10.0
        ));
    }
    for i in 0..90i64 {
        setup.push(format!(
            "INSERT INTO events VALUES ({i}, {}, '{}')",
            i % 3 + 1,
            ["click", "view"][(i % 2) as usize]
        ));
    }
    setup
}

/// `tests/sql_end_to_end.rs`'s statements, with their literals as
/// placeholders, and generated point, range and DML statements.
const TEMPLATES: &[&str] = &[
    "SELECT id, x FROM m WHERE x >= {i} AND cat <> {s} ORDER BY id",
    "SELECT cat, COUNT(*) AS n, SUM(x) AS sx, AVG(y) AS ay FROM m \
     GROUP BY cat HAVING COUNT(*) > {i} ORDER BY sx DESC LIMIT 2",
    "SELECT MIN(cat), MAX(cat), COUNT(cat) FROM m WHERE x < {i}",
    "SELECT (0 - 9223372036854775807 - 1) / {i} FROM n",
    "SELECT id FROM n WHERE (0 - 9223372036854775807 - 1) % v = {i}",
    "SELECT v / {i} AS q FROM n WHERE id = {n}",
    "SELECT 1 / 0 FROM n",
    "UPDATE m SET x = {i} WHERE id < {i}",
    "DELETE FROM m WHERE cat = {s} AND id >= {k}",
    "SELECT COUNT(*) FROM m WHERE x = {i}",
    "UPDATE m SET x = 0 WHERE id % {i} = 0",
    "SELECT cat, SUM(x), COUNT(*) FROM m GROUP BY cat ORDER BY cat",
    "SELECT c.region, COUNT(*) AS n FROM events e JOIN users u ON e.uid = u.uid \
     JOIN countries c ON u.country = c.code WHERE e.kind = {s} \
     GROUP BY c.region ORDER BY n DESC",
    "SELECT u.name, e.kind FROM users u LEFT JOIN events e ON u.uid = e.uid \
     WHERE u.uid = {i} ORDER BY e.eid LIMIT 4",
    "SELECT COUNT(*) FROM n WHERE v > {i}",
    "SELECT COUNT(*), COUNT(v), SUM(v), AVG(v) FROM n WHERE v IS NULL OR v < {i}",
    "SELECT v + {i} FROM n ORDER BY id",
    "SELECT {i} FROM n WHERE id = {n}",
    "SELECT {i} AS one, v FROM n WHERE id = {n}",
    "SELECT id FROM m WHERE x + {i} > id ORDER BY id LIMIT 5",
    "SELECT id FROM m WHERE y * {f} = {f} ORDER BY id",
    "SELECT id FROM m WHERE y < {f} AND {i} = {i} ORDER BY id",
    "SELECT id, x * {i} + {i} AS score FROM m ORDER BY x DESC, id LIMIT 3",
    "INSERT INTO m VALUES ({k}, {s}, {i}, {f})",
    "INSERT INTO m VALUES ({k}, {s})",
    "INSERT INTO m VALUES ({k}, {i}, 0, 0.0)",
    "INSERT INTO m VALUES (NULL, {s}, 0, 0.0)",
    "INSERT INTO m (id, y) VALUES ({k}, {f}), ({k}, -({f}))",
    // Generated point, range and DML shapes.
    "SELECT cat, x, y FROM m WHERE id = {k}",
    "SELECT cat, x, y FROM m WHERE {k} = id AND x > {i}",
    "SELECT id, y FROM m WHERE id >= {k} AND id < {k} ORDER BY id",
    "SELECT SUM(y) AS s FROM m WHERE id > {k} AND cat = {s}",
    "UPDATE m SET y = y + {f}, x = x - {i} WHERE id = {k}",
    "UPDATE m SET y = y / {i} WHERE id >= {k} AND id < {k}",
    "UPDATE m SET id = {k} WHERE id = {k}",
    "DELETE FROM m WHERE id = {k}",
    "DELETE FROM m WHERE id > {k} AND x = {i}",
];

#[test]
fn cached_statements_answer_as_statements_planned_alone() {
    let mut rng = rng::Rng::new(0x32);
    for format in ["COLUMN", "ROW", "DUAL"] {
        let mut twins = Twins::new(&fixture(format));
        let before = twins.stats().plan_hits;
        for template in TEMPLATES {
            // The first run plans the shape, the next two reuse it with
            // fresh literals.
            for _ in 0..3 {
                twins.run(&instantiate(template, &mut rng));
            }
        }
        for table in ["m", "n", "events"] {
            twins.run(&format!("SELECT * FROM {table} ORDER BY 1"));
        }
        let stats = twins.stats();
        assert!(stats.plan_hits - before >= TEMPLATES.len() as u64, "{stats:?}");
    }
}

#[test]
fn the_same_merged_and_unmerged() {
    let mut rng = rng::Rng::new(0x33);
    let mut twins = Twins::new(&fixture("COLUMN"));
    for round in 0..4 {
        for template in TEMPLATES.iter().filter(|t| t.starts_with("SELECT")) {
            twins.run(&instantiate(template, &mut rng));
        }
        if round % 2 == 0 {
            for db in &twins.dbs {
                db.maintenance();
            }
        }
    }
}

/// `w = 2`, `w = 2.0`, `w = '2'`, `w = NULL` and `w = TRUE` are five
/// shapes (`-2` is `2`'s), each answering (or failing) as it does planned
/// alone — through a SELECT, an UPDATE and a DELETE.
#[test]
fn a_literals_type_splits_the_shape() {
    let setup: Vec<String> = vec![
        "CREATE TABLE t (w BIGINT NOT NULL, d BIGINT NOT NULL, v BIGINT, PRIMARY KEY (w, d))".into(),
        "INSERT INTO t VALUES (1, 1, 10), (2, 1, 20), (2, 2, 30), (-2, 2, 40)".into(),
    ];
    let mut twins = Twins::new(&setup);
    let literals = ["2", "2.0", "'2'", "NULL", "TRUE", "-2"];
    let before = twins.stats().plan_shapes;
    for round in 0..2 {
        for lit in literals {
            twins.run(&format!("SELECT v FROM t WHERE w = {lit} AND d = 1"));
            twins.run(&format!("SELECT v FROM t WHERE w = {lit}"));
            twins.run(&format!("UPDATE t SET v = v + {round} WHERE w = {lit} AND d = 2"));
            twins.run(&format!("DELETE FROM t WHERE w = {lit} AND d = 3"));
        }
    }
    twins.run("SELECT w, d, v FROM t ORDER BY w, d");
    // Five types, four statements and two EXPLAINs each, and the last one
    // with its EXPLAIN.
    assert_eq!(twins.stats().plan_shapes - before, 5 * 6 + 2);
}

/// DROP then CREATE of a same-named table with its columns reordered leaves
/// no stale ordinal behind; a statement that fails to plan is not kept.
#[test]
fn ddl_retires_plans_and_failures_are_not_kept() {
    let db = Database::new();
    let mut s = db.session();
    s.execute("CREATE TABLE t (a BIGINT PRIMARY KEY, b TEXT, c DOUBLE)").unwrap();
    s.execute("INSERT INTO t VALUES (1, 'one', 1.5)").unwrap();
    let read = |s: &mut Session, k: i64| s.execute(&format!("SELECT b FROM t WHERE a = {k}"));
    assert_eq!(read(&mut s, 1).unwrap().rows(), [Row::new(vec![Value::Str("one".into())])]);
    s.execute("UPDATE t SET b = 'uno' WHERE a = 1").unwrap();
    s.execute("INSERT INTO t (a, b) VALUES (2, 'two')").unwrap();

    s.execute("DROP TABLE t").unwrap();
    assert!(matches!(read(&mut s, 1), Err(DbError::TableNotFound(_))));
    s.execute("CREATE TABLE t (c DOUBLE, b TEXT, a BIGINT PRIMARY KEY)").unwrap();
    s.execute("INSERT INTO t (a, b) VALUES (7, 'seven')").unwrap();
    s.execute("INSERT INTO t VALUES (2.5, 'eight', 8)").unwrap();
    let invalidated = db.stats().plan_invalidations;
    assert!(invalidated >= 1, "{:?}", db.stats());
    assert_eq!(read(&mut s, 7).unwrap().rows(), [Row::new(vec![Value::Str("seven".into())])]);
    s.execute("UPDATE t SET b = 'sept' WHERE a = 7").unwrap();
    assert_eq!(
        s.execute("SELECT c, b, a FROM t ORDER BY a").unwrap().rows(),
        [
            Row::new(vec![Value::Null, Value::Str("sept".into()), Value::Int(7)]),
            Row::new(vec![Value::Float(2.5), Value::Str("eight".into()), Value::Int(8)]),
        ]
    );
    assert!(db.stats().plan_invalidations > invalidated);

    // Failing to bind keeps nothing; the same text plans once it can.
    let shapes = db.stats().plan_shapes;
    for _ in 0..2 {
        assert!(matches!(
            s.execute("SELECT v FROM later WHERE id = 1"),
            Err(DbError::TableNotFound(_))
        ));
        assert!(matches!(
            s.execute("SELECT nope FROM t WHERE a = 1"),
            Err(DbError::ColumnNotFound(_))
        ));
        assert!(s.execute("UPDATE t SET nope = 1 WHERE a = 1").is_err());
    }
    assert_eq!(db.stats().plan_shapes, shapes);
    s.execute("CREATE TABLE later (id BIGINT PRIMARY KEY, v BIGINT)").unwrap();
    s.execute("INSERT INTO later VALUES (1, 11)").unwrap();
    assert_eq!(
        s.execute("SELECT v FROM later WHERE id = 1").unwrap().rows(),
        [Row::new(vec![Value::Int(11)])]
    );
}

/// Bugs earlier PRs fixed, replayed through one cached shape.
#[test]
fn earlier_fixes_hold_through_a_cached_shape() {
    let db = Database::new();
    let mut s = db.session();
    s.execute("CREATE TABLE t (id BIGINT PRIMARY KEY, v BIGINT)").unwrap();
    s.execute("INSERT INTO t VALUES (1, 10), (2, 0), (3, 30)").unwrap();

    // A failing UPDATE inside BEGIN changes no row, and COMMIT keeps only
    // what the statements that succeeded wrote.
    s.execute("BEGIN").unwrap();
    assert_eq!(s.execute("UPDATE t SET v = 100 / v WHERE id >= 3").unwrap().affected(), 1);
    let err = s.execute("UPDATE t SET v = 100 / v WHERE id >= 1").unwrap_err();
    assert!(matches!(err, DbError::Execution(_)), "{err}");
    s.execute("COMMIT").unwrap();
    let rows = s.execute("SELECT id, v FROM t WHERE id >= 0 ORDER BY id").unwrap();
    assert_eq!(
        rows.rows().iter().map(|r| r[1].clone()).collect::<Vec<_>>(),
        [Value::Int(10), Value::Int(0), Value::Int(3)]
    );

    // `i64::MIN / -1` wraps, a division by zero is a typed error: no panic,
    // in a cached shape or in one whose constants fold.
    s.execute("INSERT INTO t VALUES (4, -9223372036854775807)").unwrap();
    s.execute("UPDATE t SET v = v - 1 WHERE id = 4").unwrap();
    for _ in 0..2 {
        let q = s.execute("SELECT v / -1 AS q FROM t WHERE id = 4").unwrap();
        assert_eq!(q.rows()[0][0], Value::Int(i64::MIN));
        let err = s.execute("SELECT v / 0 AS q FROM t WHERE id = 4").unwrap_err();
        assert!(matches!(err, DbError::Execution(_)), "{err}");
        let q = s.execute("SELECT (0 - 9223372036854775807 - 1) / -1 AS q FROM t WHERE id = 4");
        assert_eq!(q.unwrap().rows()[0][0], Value::Int(i64::MIN));
    }

    // `AS OF` above the floor answers; below it and in the future fail,
    // as does a negative timestamp.
    let ts = db.txn_manager().now();
    s.execute("UPDATE t SET v = 77 WHERE id = 1").unwrap();
    let at = |s: &mut Session, ts: i64| {
        s.execute(&format!("SELECT v FROM t AS OF {ts} WHERE id = 1"))
    };
    assert_eq!(at(&mut s, ts as i64).unwrap().rows()[0][0], Value::Int(10));
    let future = db.txn_manager().now() as i64 + 1000;
    assert!(matches!(at(&mut s, future), Err(DbError::InvalidArgument(_))));
    assert!(matches!(at(&mut s, -1), Err(DbError::Parse(_))));
    db.maintenance();
    let err = at(&mut s, ts as i64).unwrap_err();
    assert!(matches!(&err, DbError::InvalidArgument(m) if m.contains("history floor")), "{err}");
    let now = db.txn_manager().now() as i64;
    assert_eq!(at(&mut s, now).unwrap().rows()[0][0], Value::Int(77));
    assert!(db.stats().plan_hits > 0);
}

/// Four threads run one shape with their own literals and each gets its
/// own answers.
#[test]
fn concurrent_sessions_fill_one_plan_with_their_own_literals() {
    let db = Database::new();
    db.execute("CREATE TABLE t (id BIGINT PRIMARY KEY, v BIGINT)").unwrap();
    let rows: Vec<String> = (0..400).map(|i| format!("({i}, {})", i * 3)).collect();
    db.execute(&format!("INSERT INTO t VALUES {}", rows.join(", "))).unwrap();
    let threads: Vec<_> = (0..4i64)
        .map(|t| {
            let db = Arc::clone(&db);
            std::thread::spawn(move || {
                let mut s = db.session();
                for round in 0..200i64 {
                    let k = (round * 4 + t) % 400;
                    let got = s.execute(&format!("SELECT v FROM t WHERE id = {k}")).unwrap();
                    assert_eq!(got.rows()[0][0], Value::Int(k * 3 + round.min(1) * t * 1000));
                    if round == 0 {
                        // Each thread moves its own rows once, by its own amount.
                        for key in (t..400).step_by(4) {
                            let sql = format!("UPDATE t SET v = v + {} WHERE id = {key}", t * 1000);
                            assert_eq!(s.execute(&sql).unwrap().affected(), 1);
                        }
                    }
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    let stats = db.stats();
    assert!(stats.plan_hits >= 4 * 300 - 20, "{stats:?}");
}

/// More shapes than the cache holds: every answer right, the cache at
/// its bound.
#[test]
fn more_shapes_than_the_bound() {
    let db = Database::new();
    db.execute("CREATE TABLE t (id BIGINT PRIMARY KEY, v BIGINT)").unwrap();
    db.execute("INSERT INTO t VALUES (1, 10), (2, 20), (3, 30)").unwrap();
    let mut s = db.session();
    for n in 0..PLAN_CACHE_SHAPES + 300 {
        // `LIMIT` counts are part of the shape: each is a shape of its own.
        let sql = format!("SELECT v FROM t WHERE id > {} ORDER BY id LIMIT {}", n % 3, n + 1);
        let got = s.execute(&sql).unwrap();
        let want: Vec<Value> =
            (n % 3 + 1..=3).take(n + 1).map(|i| Value::Int(10 * i as i64)).collect();
        assert_eq!(got.rows().iter().map(|r| r[0].clone()).collect::<Vec<_>>(), want, "{sql}");
        assert!(db.stats().plan_shapes <= PLAN_CACHE_SHAPES);
    }
    assert_eq!(db.stats().plan_shapes, PLAN_CACHE_SHAPES);
    // A kept shape still hits.
    let hits = db.stats().plan_hits;
    let last = format!("SELECT v FROM t WHERE id > 2 ORDER BY id LIMIT {}", PLAN_CACHE_SHAPES + 300);
    s.execute(&last).unwrap();
    assert_eq!(db.stats().plan_hits, hits + 1);
}

/// The benchmark's statements hit: `point_read` is 3 shapes, the analytic
/// rotation 8, a Payment 5 (a NewOrder adds its INSERTs and UPDATE).
#[test]
fn the_benchmarks_statements_are_few_shapes() {
    let db = Database::new();
    let pop = ch::populate(1);
    for ddl in ch::ddl() {
        db.execute(ddl).unwrap();
    }
    for (table, rows) in &pop.tables {
        for chunk in rows.chunks(500) {
            db.execute(&ch::insert_sql(table, chunk)).unwrap();
        }
    }
    let mut rng = rng::Rng::new(5);
    let mut s = db.session();
    let mut phase = |name: &str, want_shapes: usize, statements: Vec<String>| {
        let before = db.stats();
        let n = statements.len() as u64;
        for sql in &statements {
            s.execute(sql).unwrap();
        }
        let after = db.stats();
        assert_eq!(after.plan_shapes - before.plan_shapes, want_shapes, "{name}");
        assert_eq!(after.plan_misses - before.plan_misses, want_shapes as u64, "{name}");
        assert_eq!(after.plan_hits - before.plan_hits, n - want_shapes as u64, "{name}");
    };
    let points = (0..30)
        .map(|i| {
            let w = 1;
            match i % 3 {
                0 => ch::PointKey::Customer(w, rng.range(1, 10), rng.range(1, 300)),
                1 => ch::PointKey::Stock(w, rng.range(1, 1000)),
                _ => ch::PointKey::District(w, rng.range(1, 10)),
            }
            .sql()
        })
        .collect();
    phase("point_read", 3, points);
    let rotation = (0..3)
        .flat_map(|_| ch::OLAP.iter().map(|(_, sql)| sql.to_string()))
        .chain((0..3).map(|_| ch::freshness_sql()))
        .collect();
    phase("analytic rotation", 8, rotation);
    let payments = (0..10)
        .flat_map(|_| {
            ch::Payment {
                w: 1,
                d: rng.range(1, 10),
                c: rng.range(1, 300),
                amount: rng.range(100, 499_999) as f64 / 100.0,
            }
            .statements()
        })
        .collect();
    phase("payment", 5, payments);
}
