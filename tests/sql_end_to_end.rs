//! End-to-end SQL integration tests, run against every table format.

use oltapdb::common::Value;
use oltapdb::core::Database;
use std::sync::Arc;

fn formats() -> [&'static str; 3] {
    ["ROW", "COLUMN", "DUAL"]
}

fn fresh(format: &str) -> Arc<Database> {
    let db = Database::new();
    db.execute(&format!(
        "CREATE TABLE m (id BIGINT PRIMARY KEY, cat TEXT, x BIGINT, y DOUBLE) \
         USING FORMAT {format}"
    ))
    .unwrap();
    let mut s = db.session();
    s.execute("BEGIN").unwrap();
    for i in 0..500i64 {
        s.execute(&format!(
            "INSERT INTO m VALUES ({i}, '{}', {}, {})",
            ["a", "b", "c"][(i % 3) as usize],
            i % 50,
            i as f64 / 10.0
        ))
        .unwrap();
    }
    s.execute("COMMIT").unwrap();
    db
}

#[test]
fn filters_and_projections_match_across_formats() {
    let mut reference: Option<Vec<String>> = None;
    for f in formats() {
        let db = fresh(f);
        let rows = db
            .query("SELECT id, x FROM m WHERE x >= 25 AND cat <> 'b' ORDER BY id")
            .unwrap();
        let printable: Vec<String> = rows.iter().map(|r| r.to_string()).collect();
        match &reference {
            None => reference = Some(printable),
            Some(want) => assert_eq!(&printable, want, "format {f} diverged"),
        }
    }
}

#[test]
fn aggregates_having_orderby_limit() {
    for f in formats() {
        let db = fresh(f);
        let rows = db
            .query(
                "SELECT cat, COUNT(*) AS n, SUM(x) AS sx, AVG(y) AS ay FROM m \
                 GROUP BY cat HAVING COUNT(*) > 10 ORDER BY sx DESC LIMIT 2",
            )
            .unwrap();
        assert_eq!(rows.len(), 2, "format {f}");
        // 500 rows over 3 categories: 167/167/166.
        let n0 = rows[0][1].as_int().unwrap();
        assert!(n0 >= 166, "format {f}");
        // Descending by sum.
        assert!(rows[0][2] >= rows[1][2], "format {f}");
    }
}

/// `MIN` and `MAX` of one string or boolean column in one statement are two
/// answers, in whichever order they are asked for, grouped or not, merged
/// into segments or still in the delta — on every format (the fused path
/// shares accumulators between aggregates of one input, and must not share
/// these).
#[test]
fn min_and_max_of_one_string_or_bool_column_are_two_answers() {
    for f in formats() {
        let db = Database::new();
        db.execute(&format!(
            "CREATE TABLE t (id BIGINT PRIMARY KEY, g BIGINT, s TEXT, b BOOLEAN) USING FORMAT {f}"
        ))
        .unwrap();
        let vals: Vec<String> = (0..200)
            .map(|i| format!("({i}, {}, 's{i:03}', {})", i % 2, i % 3 == 0))
            .collect();
        db.execute(&format!("INSERT INTO t VALUES {}", vals.join(", "))).unwrap();
        let s = |s: &str| Value::Str(s.into());
        for merged in [false, true] {
            if merged {
                db.maintenance();
            }
            let rows = db.query("SELECT MIN(s), MAX(s), MIN(b), MAX(b) FROM t").unwrap();
            let want = [s("s000"), s("s199"), Value::Bool(false), Value::Bool(true)];
            assert_eq!(rows[0].values(), &want, "format {f} merged={merged}");
            let rows = db.query("SELECT MAX(s), MIN(s), COUNT(s) FROM t").unwrap();
            let want = [s("s199"), s("s000"), Value::Int(200)];
            assert_eq!(rows[0].values(), &want, "format {f} merged={merged}");
            let rows = db
                .query("SELECT g, MIN(s), MAX(s), MAX(b), MIN(b) FROM t GROUP BY g ORDER BY g")
                .unwrap();
            let want = [
                [Value::Int(0), s("s000"), s("s198"), Value::Bool(true), Value::Bool(false)],
                [Value::Int(1), s("s001"), s("s199"), Value::Bool(true), Value::Bool(false)],
            ];
            assert_eq!(rows.len(), 2, "format {f} merged={merged}");
            for (row, want) in rows.iter().zip(&want) {
                assert_eq!(row.values(), want, "format {f} merged={merged}");
            }
        }
    }
}

/// Constant folding is the evaluator's arithmetic: `i64::MIN / -1`,
/// `i64::MIN % -1` and `-(i64::MIN)` wrap, folded (literals only — this
/// panicked in the optimizer) exactly as unfolded (a column in the
/// expression), on every format; and a literal division by zero is still
/// the statement's error, not the planner's.
#[test]
fn overflowing_constants_fold_to_the_evaluators_wrapped_values() {
    const MIN: &str = "(0 - 9223372036854775807 - 1)";
    for f in formats() {
        let db = Database::new();
        db.execute(&format!("CREATE TABLE t (id BIGINT PRIMARY KEY, d BIGINT) USING FORMAT {f}")).unwrap();
        db.execute("INSERT INTO t VALUES (1, -1)").unwrap();
        for (literal, with_column, want) in [
            (format!("{MIN} / -1"), format!("{MIN} / d"), i64::MIN),
            (format!("{MIN} % -1"), format!("{MIN} % d"), 0),
            (format!("-{MIN}"), format!("-({MIN} - d - 1)"), i64::MIN),
        ] {
            for e in [literal, with_column] {
                let rows = db.query(&format!("SELECT {e} FROM t")).unwrap();
                assert_eq!(rows[0].values(), &[Value::Int(want)], "format {f}: {e}");
                let want = if want == 0 { "0" } else { MIN };
                let kept = db.query(&format!("SELECT id FROM t WHERE {e} = {want}")).unwrap();
                assert_eq!(kept.len(), 1, "format {f}: WHERE {e} = {want}");
            }
        }
        let err = db.query("SELECT 1 / 0 FROM t").unwrap_err();
        assert!(matches!(err, oltapdb::common::DbError::Execution(_)), "format {f}: {err}");
    }
}

/// `i64::MIN` written as a literal — the sign is part of the number, not a
/// negation of 9223372036854775808 — is inserted, found by a point read of
/// its key and by a scan comparing with it, and `- -9223372036854775808`
/// wraps back to it as the evaluator's negation does; through the plan
/// cache and planned alone, on every format.
#[test]
fn the_least_integer_is_a_literal() {
    const MIN: &str = "-9223372036854775808";
    for f in formats() {
        for cached in [true, false] {
            let db = Database::new();
            let mut s = db.session();
            let mut run = |sql: &str| {
                let answer = if cached {
                    s.execute(sql)
                } else {
                    oltapdb::sql::parse(sql).and_then(|stmt| s.execute_statement(stmt, sql))
                };
                answer.unwrap_or_else(|e| panic!("{f} cached={cached}: {sql}: {e}")).rows().to_vec()
            };
            run(&format!("CREATE TABLE t (id BIGINT PRIMARY KEY, v BIGINT) USING FORMAT {f}"));
            run(&format!("INSERT INTO t VALUES ({MIN}, 1), (2, {MIN})"));
            run(&format!("INSERT INTO t VALUES (3, - {MIN})"));
            let by_key = run(&format!("SELECT v FROM t WHERE id = {MIN}"));
            assert_eq!(by_key.len(), 1, "{f} cached={cached}");
            assert_eq!(by_key[0][0], Value::Int(1), "{f} cached={cached}");
            let ids: Vec<Value> = run(&format!("SELECT id FROM t WHERE v = {MIN} ORDER BY id"))
                .iter()
                .map(|r| r[0].clone())
                .collect();
            assert_eq!(ids, [Value::Int(2), Value::Int(3)], "{f} cached={cached}");
        }
    }
}

#[test]
fn update_delete_visibility_across_formats() {
    for f in formats() {
        let db = fresh(f);
        assert_eq!(
            db.execute("UPDATE m SET x = 999 WHERE id < 10").unwrap().affected(),
            10,
            "format {f}"
        );
        assert_eq!(
            db.execute("DELETE FROM m WHERE cat = 'c' AND id >= 490")
                .unwrap()
                .affected(),
            3, // 491, 494, 497
            "format {f}"
        );
        let total = db.query("SELECT COUNT(*) FROM m").unwrap()[0][0]
            .as_int()
            .unwrap();
        assert_eq!(total, 497, "format {f}");
        let updated = db
            .query("SELECT COUNT(*) FROM m WHERE x = 999")
            .unwrap()[0][0]
            .as_int()
            .unwrap();
        assert_eq!(updated, 10, "format {f}");
    }
}

#[test]
fn results_stable_across_maintenance() {
    for f in formats() {
        let db = fresh(f);
        db.execute("UPDATE m SET x = 0 WHERE id % 7 = 0").unwrap();
        let q = "SELECT cat, SUM(x), COUNT(*) FROM m GROUP BY cat ORDER BY cat";
        let before = db.query(q).unwrap();
        db.maintenance();
        let after = db.query(q).unwrap();
        assert_eq!(before, after, "format {f}: maintenance changed results");
        // Run it twice more (merge + compaction paths).
        db.maintenance();
        assert_eq!(db.query(q).unwrap(), before, "format {f}: second pass");
    }
}

#[test]
fn three_way_join_with_aggregation() {
    let db = Database::new();
    db.execute("CREATE TABLE users (uid BIGINT PRIMARY KEY, name TEXT, country TEXT)")
        .unwrap();
    db.execute("CREATE TABLE events (eid BIGINT PRIMARY KEY, uid BIGINT, kind TEXT)")
        .unwrap();
    db.execute("CREATE TABLE countries (code TEXT NOT NULL, region TEXT, PRIMARY KEY (code))")
        .unwrap();
    db.execute(
        "INSERT INTO users VALUES (1,'ada','de'), (2,'bob','us'), (3,'chen','de')",
    )
    .unwrap();
    db.execute("INSERT INTO countries VALUES ('de','emea'), ('us','amer')")
        .unwrap();
    let mut s = db.session();
    s.execute("BEGIN").unwrap();
    for i in 0..90i64 {
        s.execute(&format!(
            "INSERT INTO events VALUES ({i}, {}, '{}')",
            i % 3 + 1,
            ["click", "view"][(i % 2) as usize]
        ))
        .unwrap();
    }
    s.execute("COMMIT").unwrap();

    let rows = db
        .query(
            "SELECT c.region, COUNT(*) AS n \
             FROM events e \
             JOIN users u ON e.uid = u.uid \
             JOIN countries c ON u.country = c.code \
             WHERE e.kind = 'click' \
             GROUP BY c.region ORDER BY n DESC",
        )
        .unwrap();
    assert_eq!(rows.len(), 2);
    assert_eq!(rows[0][0], Value::Str("emea".into()));
    assert_eq!(rows[0][1], Value::Int(30)); // users 1,3 click 15 each
    assert_eq!(rows[1][1], Value::Int(15));
}

#[test]
fn left_join_preserves_unmatched() {
    let db = Database::new();
    db.execute("CREATE TABLE a (id BIGINT PRIMARY KEY)").unwrap();
    db.execute("CREATE TABLE b (id BIGINT PRIMARY KEY, tag TEXT)").unwrap();
    db.execute("INSERT INTO a VALUES (1), (2), (3)").unwrap();
    db.execute("INSERT INTO b VALUES (2, 'two')").unwrap();
    let rows = db
        .query("SELECT a.id, b.tag FROM a LEFT JOIN b ON a.id = b.id ORDER BY a.id")
        .unwrap();
    assert_eq!(rows.len(), 3);
    assert_eq!(rows[0][1], Value::Null);
    assert_eq!(rows[1][1], Value::Str("two".into()));
    assert_eq!(rows[2][1], Value::Null);
}

#[test]
fn null_semantics_through_sql() {
    let db = Database::new();
    db.execute("CREATE TABLE n (id BIGINT PRIMARY KEY, v BIGINT)").unwrap();
    db.execute("INSERT INTO n VALUES (1, 10), (2, NULL), (3, 30)").unwrap();
    // NULL never matches comparisons.
    assert_eq!(db.query("SELECT COUNT(*) FROM n WHERE v > 0").unwrap()[0][0], Value::Int(2));
    assert_eq!(db.query("SELECT COUNT(*) FROM n WHERE v IS NULL").unwrap()[0][0], Value::Int(1));
    // Aggregates skip NULLs; COUNT(*) does not.
    let r = &db.query("SELECT COUNT(*), COUNT(v), SUM(v), AVG(v) FROM n").unwrap()[0];
    assert_eq!(r[0], Value::Int(3));
    assert_eq!(r[1], Value::Int(2));
    assert_eq!(r[2], Value::Int(40));
    assert_eq!(r[3], Value::Float(20.0));
    // Arithmetic propagates NULL.
    let rows = db.query("SELECT v + 1 FROM n ORDER BY id").unwrap();
    assert_eq!(rows[1][0], Value::Null);
}

/// Column-against-column integer comparisons past 2^53, where neighbouring
/// integers are one f64: the answer is the integer answer, with or without
/// a NULL elsewhere in the batch.
#[test]
fn integer_comparisons_past_2_53_are_exact_with_or_without_a_null_in_the_batch() {
    const P53: i64 = 1 << 53;
    let cases = [
        ("a = b", vec![]),
        ("a < b", vec![3]),
        ("a <> b", vec![1, 3]),
        ("a + 1 > b", vec![1]),
    ];
    for f in formats() {
        for with_null in [false, true] {
            let db = Database::new();
            db.execute(&format!(
                "CREATE TABLE t (id BIGINT PRIMARY KEY, a BIGINT, b BIGINT) USING FORMAT {f}"
            ))
            .unwrap();
            db.execute(&format!(
                "INSERT INTO t VALUES (1, {}, {P53}), (3, {P53}, {})",
                P53 + 1,
                P53 + 1
            ))
            .unwrap();
            if with_null {
                db.execute("INSERT INTO t VALUES (2, NULL, 5)").unwrap();
            }
            for merged in [false, true] {
                if merged {
                    db.maintenance();
                }
                for (cond, want) in &cases {
                    let got: Vec<Value> = db
                        .query(&format!("SELECT id FROM t WHERE {cond} ORDER BY id"))
                        .unwrap()
                        .iter()
                        .map(|r| r[0].clone())
                        .collect();
                    let want: Vec<Value> = want.iter().map(|&id| Value::Int(id)).collect();
                    assert_eq!(got, want, "{f} null={with_null} merged={merged}: {cond}");
                }
            }
        }
    }
}

/// Expressions an f64 evaluator answers its own way — products that wrap
/// `i64`, `-0.0` against `0.0` — mean what the interpreter says they mean,
/// with or without a NULL elsewhere in the batch.
#[test]
fn wrapping_products_and_negative_zero_answer_alike_with_or_without_a_null_in_the_batch() {
    let cases = [
        // 3037000501^2 is just past i64::MAX: it wraps negative.
        ("a * a > 0", vec![2]),
        ("a * a < 0", vec![1]),
        // Floats order as `total_cmp` does: -0.0 is below 0.0.
        ("f * 1.0 = 0.0", vec![1]),
        ("f * 1.0 < 0.0", vec![2]),
    ];
    for f in formats() {
        for with_null in [false, true] {
            let db = Database::new();
            db.execute(&format!(
                "CREATE TABLE t (id BIGINT PRIMARY KEY, a BIGINT, f DOUBLE) USING FORMAT {f}"
            ))
            .unwrap();
            db.execute("INSERT INTO t VALUES (1, 3037000501, 0.0), (2, -2, -0.0), (3, 0, 1.5)")
                .unwrap();
            if with_null {
                db.execute("INSERT INTO t VALUES (4, NULL, NULL)").unwrap();
            }
            for merged in [false, true] {
                if merged {
                    db.maintenance();
                }
                for (cond, want) in &cases {
                    let got: Vec<Value> = db
                        .query(&format!("SELECT id FROM t WHERE {cond} ORDER BY id"))
                        .unwrap()
                        .iter()
                        .map(|r| r[0].clone())
                        .collect();
                    let want: Vec<Value> = want.iter().map(|&id| Value::Int(id)).collect();
                    assert_eq!(got, want, "{f} null={with_null} merged={merged}: {cond}");
                }
            }
        }
    }
}

#[test]
fn computed_expressions_and_order_by_expression() {
    let db = fresh("COLUMN");
    let rows = db
        .query("SELECT id, x * 2 + 1 AS score FROM m ORDER BY x DESC, id LIMIT 3")
        .unwrap();
    assert_eq!(rows.len(), 3);
    assert_eq!(rows[0][1], Value::Int(99)); // x = 49 → 99
}

#[test]
fn insert_conflicts_and_constraints_via_sql() {
    let db = fresh("COLUMN");
    // Duplicate PK.
    assert!(db.execute("INSERT INTO m VALUES (1, 'a', 0, 0.0)").is_err());
    // Arity mismatch.
    assert!(db.execute("INSERT INTO m VALUES (1000, 'a')").is_err());
    // Type mismatch.
    assert!(db.execute("INSERT INTO m VALUES (1000, 5, 0, 0.0)").is_err());
    // NULL PK.
    assert!(db.execute("INSERT INTO m VALUES (NULL, 'a', 0, 0.0)").is_err());
    // Nothing half-applied.
    assert_eq!(
        db.query("SELECT COUNT(*) FROM m").unwrap()[0][0],
        Value::Int(500)
    );
}

/// `ORDER BY … LIMIT k` with `k` past a batch sorts under the query's
/// budget — spilling when the rows do not fit — instead of keeping `k` rows
/// a thread in heaps no budget sees; a `k` far past the table asks for no
/// memory up front. Budgeted, unbudgeted and the model answer alike.
#[test]
fn order_by_with_a_large_limit_sorts_within_the_query_budget() {
    use oltapdb::common::Row;
    use oltapdb::core::{DbConfig, MemoryConfig};

    const ROWS: i64 = 20_000;
    let load = |memory: Option<MemoryConfig>| {
        let db = Database::with_config(DbConfig { memory, ..DbConfig::default() }).unwrap();
        db.execute("CREATE TABLE t (id BIGINT PRIMARY KEY, v BIGINT) USING FORMAT COLUMN")
            .unwrap();
        let t = db.table("t").unwrap();
        let rows: Vec<Row> = (0..ROWS)
            .map(|i| Row::new(vec![Value::Int(i), Value::Int(i * 7919 % 1009)]))
            .collect();
        t.columns().unwrap().bulk_load(&rows).unwrap();
        db
    };
    let unbudgeted = load(None);
    let budgeted = load(Some(MemoryConfig {
        query_bytes: 64 << 10,
        ..MemoryConfig::with_total(64 << 20)
    }));
    let mut model: Vec<(i64, i64)> = (0..ROWS).map(|i| (i, i * 7919 % 1009)).collect();
    model.sort_by_key(|&(id, v)| (std::cmp::Reverse(v), id));
    for k in [10_000usize, 100_000_000_000] {
        let sql = format!("SELECT id, v FROM t ORDER BY v DESC, id LIMIT {k}");
        let want: Vec<Vec<Value>> = model
            .iter()
            .take(k)
            .map(|&(id, v)| vec![Value::Int(id), Value::Int(v)])
            .collect();
        for db in [&unbudgeted, &budgeted] {
            for workers in [1, 2] {
                db.set_parallelism(workers);
                let got: Vec<Vec<Value>> = db.query(&sql).unwrap().iter().map(|r| r.values().to_vec()).collect();
                assert_eq!(got, want, "LIMIT {k} at {workers} workers");
            }
        }
    }
    let spills = budgeted.memory_governor().unwrap().spill_events();
    assert!(spills > 0, "the budgeted sorts spilled");
}

/// A GROUP BY over two non-integer columns keys its groups by whole rows:
/// a DOUBLE key holding `0.0`, `-0.0`, NaN and NULL (and integral and
/// fractional values), a TEXT key holding NULL, empty and non-ASCII
/// strings. Unbudgeted and under a budget that forces the group store to
/// spill, on a ROW table and on a merged COLUMN table, at one and two
/// workers, the groups are those of a `BTreeMap<Vec<Value>, _>` — `Value`'s
/// own equality and order.
#[test]
fn a_two_column_row_key_group_by_matches_a_value_keyed_model() {
    use oltapdb::common::Row;
    use oltapdb::core::{DbConfig, MemoryConfig};
    use std::collections::BTreeMap;

    const ROWS: i64 = 6_000;
    let key = |i: i64| {
        let f = match i % 9 {
            0 => Value::Null,
            1 => Value::Float(0.0),
            2 => Value::Float(-0.0),
            3 => Value::Float(f64::NAN),
            _ => Value::Float((i % 1_500) as f64 * 0.5),
        };
        let s = match i % 5 {
            0 => Value::Null,
            1 => Value::Str(String::new()),
            2 => Value::Str("grüße".into()),
            _ => Value::Str(format!("s{}", i % 3)),
        };
        (f, s)
    };
    let rows: Vec<Row> = (0..ROWS)
        .map(|i| {
            let (f, s) = key(i);
            Row::new(vec![Value::Int(i), f, s, Value::Int(i % 97 - 40)])
        })
        .collect();
    let mut model: BTreeMap<Vec<Value>, (i64, i64)> = BTreeMap::new();
    for r in &rows {
        let group = model.entry(r.values()[1..3].to_vec()).or_default();
        group.0 += 1;
        group.1 += r[3].as_int().unwrap();
    }
    let want: Vec<Vec<Value>> = model
        .into_iter()
        .map(|(mut k, (n, sum))| {
            k.extend([Value::Int(n), Value::Int(sum)]);
            k
        })
        .collect();
    assert!(want.len() > 1_000, "enough groups to spill");

    for format in ["ROW", "COLUMN"] {
        let load = |memory: Option<MemoryConfig>| {
            let db = Database::with_config(DbConfig { memory, ..DbConfig::default() }).unwrap();
            db.execute(&format!(
                "CREATE TABLE t (id BIGINT PRIMARY KEY, f DOUBLE, s TEXT, v BIGINT) USING FORMAT {format}"
            ))
            .unwrap();
            let t = db.table("t").unwrap();
            let tx = db.txn_manager().begin();
            for r in &rows {
                t.insert(&tx, r.clone()).unwrap();
            }
            tx.commit().unwrap();
            db.maintenance();
            db
        };
        let budgeted = load(Some(MemoryConfig {
            query_bytes: 16 << 10,
            ..MemoryConfig::with_total(64 << 20)
        }));
        for db in [&load(None), &budgeted] {
            for workers in [1, 2] {
                db.set_parallelism(workers);
                let got = db.query("SELECT f, s, COUNT(*), SUM(v) FROM t GROUP BY f, s").unwrap();
                let mut got: Vec<Vec<Value>> = got.iter().map(|r| r.values().to_vec()).collect();
                got.sort();
                assert_eq!(got, want, "{format} at {workers} workers");
            }
        }
        let spills = budgeted.memory_governor().unwrap().spill_events();
        assert!(spills > 0, "{format}: the budgeted group store spilled");
    }
}
