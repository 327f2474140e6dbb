//! Property-based integration tests: the engine against simple oracles.
//!
//! These use a seeded mini-harness (deterministic [`StdRng`] loops) rather
//! than a shrinking property-testing framework: every case derives from a
//! fixed seed, so a failure message's `seed=` value reproduces it exactly.

use oltapdb::common::{row, DataType, Field, Schema, Value};
use oltapdb::core::Database;
use oltapdb::storage::encoding::{BitPacked, Dictionary, ForPacked, IntEncoding, Rle, StrEncoding};
use oltapdb::storage::{ScanPredicate, SkipList};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::sync::Arc;

mod common;
use common::{model_aggregate, same, same_rows};

const BASE_SEED: u64 = 0x01_7A_BD_08;

fn rng_for(case: u64) -> StdRng {
    StdRng::seed_from_u64(BASE_SEED ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

fn random_i64s(rng: &mut StdRng, max_len: usize) -> Vec<i64> {
    let n = rng.gen_range(0..max_len);
    (0..n).map(|_| rng.gen::<i64>()).collect()
}

fn random_strings(rng: &mut StdRng, max_len: usize) -> Vec<String> {
    let n = rng.gen_range(0..max_len);
    (0..n)
        .map(|_| {
            let len = rng.gen_range(0..=12usize);
            (0..len)
                .map(|_| (b'a' + rng.gen_range(0..26u8)) as char)
                .collect()
        })
        .collect()
}

/// Every integer encoding round-trips arbitrary data.
#[test]
fn int_encodings_roundtrip() {
    for case in 0..64 {
        let mut rng = rng_for(case);
        let values = random_i64s(&mut rng, 300);
        assert_eq!(IntEncoding::choose(&values).decode(), values, "seed={case}");
        assert_eq!(ForPacked::encode(&values).decode(), values, "seed={case}");
        assert_eq!(Rle::encode(&values).decode(), values, "seed={case}");
        assert_eq!(Dictionary::encode(&values).decode(), values, "seed={case}");
    }
}

/// Bit-packing round-trips any width that fits.
#[test]
fn bitpack_roundtrip() {
    for case in 0..64 {
        let mut rng = rng_for(case ^ 0xB17);
        let n = rng.gen_range(0..200usize);
        let values: Vec<u64> = (0..n).map(|_| rng.gen::<u64>()).collect();
        let extra = rng.gen_range(0..8u8);
        let width = (BitPacked::width_for(&values) + extra).min(64);
        let packed = BitPacked::pack(&values, width).unwrap();
        assert_eq!(packed.unpack(), values, "seed={case}");
    }
}

/// String encodings round-trip.
#[test]
fn str_encodings_roundtrip() {
    for case in 0..64 {
        let mut rng = rng_for(case ^ 0x57F);
        let values = random_strings(&mut rng, 200);
        assert_eq!(StrEncoding::choose(values.clone()).decode(), values, "seed={case}");
        assert_eq!(Dictionary::encode(&values).decode(), values, "seed={case}");
    }
}

/// The concurrent skip list agrees with BTreeMap under random inserts.
#[test]
fn skiplist_models_btreemap() {
    for case in 0..64 {
        let mut rng = rng_for(case ^ 0x5CA1);
        let keys = random_i64s(&mut rng, 400);
        let sl: SkipList<i64, i64> = SkipList::new();
        let mut model = BTreeMap::new();
        for (i, k) in keys.iter().enumerate() {
            let v = i as i64;
            if sl.insert(*k, v).is_ok() {
                model.insert(*k, v);
            }
        }
        assert_eq!(sl.len(), model.len(), "seed={case}");
        let got: Vec<(i64, i64)> = sl.iter().map(|(k, v)| (*k, *v)).collect();
        let want: Vec<(i64, i64)> = model.into_iter().collect();
        assert_eq!(got, want, "seed={case}");
    }
}

/// A row of the model test's table, after its key:
/// `x BIGINT, f DOUBLE, ts TIMESTAMP, s TEXT`.
type ModelRow = (i64, f64, i64, Option<String>);

/// The row `Insert(k, v)` / `Update(k, v)` write under key `k`.
fn model_row(v: i64) -> ModelRow {
    (v, (v % 2001) as f64 * 0.25, v.rem_euclid(1_000_000), Some(format!("s{}", v.rem_euclid(7))))
}

/// The SET list of an UPDATE statement, as SQL and over the model.
#[derive(Debug, Clone, Copy)]
enum SetExpr {
    /// `x = x + c` (wraps).
    AddX(i64),
    /// `f = f * 1.5 - x`.
    ScaleF,
    /// `ts = ts + 1`.
    BumpTs,
    /// `s = NULL`.
    NullS,
    /// `x = 1000 / (k - c)`: a division by zero in the row keyed `c`.
    DivX(i64),
    /// `x = f`: a DOUBLE into a BIGINT column, a type error in every row.
    FloatIntoX,
}

impl SetExpr {
    fn sql(self) -> String {
        match self {
            SetExpr::AddX(c) => format!("x = x + {c}"),
            SetExpr::ScaleF => "f = f * 1.5 - x".into(),
            SetExpr::BumpTs => "ts = ts + 1".into(),
            SetExpr::NullS => "s = NULL".into(),
            SetExpr::DivX(c) => format!("x = 1000 / (k - {c})"),
            SetExpr::FloatIntoX => "x = f".into(),
        }
    }

    /// The row after the SET, or `None` where evaluating it is an error.
    fn apply(self, k: i64, (x, f, ts, s): ModelRow) -> Option<ModelRow> {
        Some(match self {
            SetExpr::AddX(c) => (x.wrapping_add(c), f, ts, s),
            SetExpr::ScaleF => (x, f * 1.5 - x as f64, ts, s),
            SetExpr::BumpTs => (x, f, ts + 1, s),
            SetExpr::NullS => (x, f, ts, None),
            SetExpr::DivX(c) if k == c => return None,
            SetExpr::DivX(c) => (1000 / (k - c), f, ts, s),
            SetExpr::FloatIntoX => return None,
        })
    }
}

/// The WHERE clause of a DML statement, as SQL and over the model.
#[derive(Debug, Clone, Copy)]
enum Pred {
    /// `k = a AND x + k > c`: a point lookup plus a residual conjunct.
    KeyAndResidual(i64, i64),
    /// `k = a AND x >= c`: a point lookup plus a conjunct storage checks.
    KeyAndPushed(i64, i64),
    /// `x > c`: a non-key range storage evaluates.
    XAbove(i64),
    /// `f * 1.0 < c`: a non-key range left to the expression evaluator.
    FBelow(i64),
    /// `x <> x`: false for every row, found only by evaluating it.
    Never,
    /// `k = a AND k = a + 1`: false for every row, a point lookup.
    Contradiction(i64),
}

impl Pred {
    fn sql(self) -> String {
        match self {
            Pred::KeyAndResidual(a, c) => format!("k = {a} AND x + k > {c}"),
            Pred::KeyAndPushed(a, c) => format!("k = {a} AND x >= {c}"),
            Pred::XAbove(c) => format!("x > {c}"),
            Pred::FBelow(c) => format!("f * 1.0 < {c}"),
            Pred::Never => "x <> x".into(),
            Pred::Contradiction(a) => format!("k = {a} AND k = {}", a + 1),
        }
    }

    fn matches(self, k: i64, (x, f, _, _): &ModelRow) -> bool {
        match self {
            Pred::KeyAndResidual(a, c) => k == a && x.wrapping_add(k) > c,
            Pred::KeyAndPushed(a, c) => k == a && *x >= c,
            Pred::XAbove(c) => *x > c,
            Pred::FBelow(c) => (f * 1.0).total_cmp(&(c as f64)).is_lt(),
            Pred::Never | Pred::Contradiction(_) => false,
        }
    }
}

/// How a statement op is wrapped.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Wrap {
    AutoCommit,
    BeginCommit,
    BeginRollback,
}

/// A random DML op for the model test.
#[derive(Debug, Clone)]
enum Op {
    Insert(i64, i64),
    Update(i64, i64),
    Delete(i64),
    Maintain,
    /// `UPDATE t SET .. WHERE ..` (`DELETE FROM t WHERE ..` without a SET
    /// list) through a session.
    Statement(Option<SetExpr>, Pred, Wrap),
}

fn random_ops(rng: &mut StdRng) -> Vec<Op> {
    let n = rng.gen_range(1..120usize);
    (0..n)
        .map(|_| match rng.gen_range(0..10u8) {
            0 | 1 => Op::Insert(rng.gen_range(0..40i64), rng.gen::<i64>()),
            2 | 3 => Op::Update(rng.gen_range(0..40i64), rng.gen::<i64>()),
            4 | 5 => Op::Delete(rng.gen_range(0..40i64)),
            6 => Op::Maintain,
            _ => {
                let key = rng.gen_range(0..40i64);
                // Within what the SQL lexer reads after a minus sign.
                let bound = rng.gen::<i64>() / 2;
                let set = match rng.gen_range(0..9u8) {
                    0 => None,
                    1 | 2 => Some(SetExpr::AddX(bound)),
                    3 => Some(SetExpr::ScaleF),
                    4 => Some(SetExpr::BumpTs),
                    5 => Some(SetExpr::NullS),
                    6 | 7 => Some(SetExpr::DivX(key)),
                    _ => Some(SetExpr::FloatIntoX),
                };
                let pred = match rng.gen_range(0..8u8) {
                    0 | 1 => Pred::KeyAndResidual(key, bound),
                    2 => Pred::KeyAndPushed(key, bound),
                    3 | 4 => Pred::XAbove(bound),
                    5 => Pred::FBelow(rng.gen_range(-300..300i64)),
                    6 => Pred::Never,
                    _ => Pred::Contradiction(key),
                };
                let wrap = match rng.gen_range(0..5u8) {
                    0 | 1 => Wrap::AutoCommit,
                    2 | 3 => Wrap::BeginCommit,
                    _ => Wrap::BeginRollback,
                };
                Op::Statement(set, pred, wrap)
            }
        })
        .collect()
}

/// Every table format, fed a random DML sequence — keyed writes through
/// the table handle, `UPDATE`/`DELETE` statements with expression SET
/// lists and point, range and never-true predicates through a session, in
/// and out of explicit transactions, with interleaved merges/populations —
/// matches a BTreeMap model exactly. A statement whose SET list fails in
/// any row it targets (division by zero, a mistyped value) is an error
/// that changes no row.
#[test]
fn formats_match_model_under_random_dml() {
    fn engine_row(k: i64, (x, f, ts, s): &ModelRow) -> oltapdb::common::Row {
        let s = s.clone().map_or(Value::Null, Value::Str);
        oltapdb::common::Row::new(vec![
            Value::Int(k),
            Value::Int(*x),
            Value::Float(*f),
            Value::Timestamp(*ts),
            s,
        ])
    }
    fn model_of(r: &oltapdb::common::Row) -> (i64, (i64, u64, i64, Option<String>)) {
        let s = (!r[4].is_null()).then(|| r[4].as_str().unwrap().to_string());
        let f = r[2].as_float().unwrap().to_bits();
        (r[0].as_int().unwrap(), (r[1].as_int().unwrap(), f, r[3].as_int().unwrap(), s))
    }

    let (mut failed_statements, mut partly_failed_in_txn) = (0, 0);
    for case in 0..48 {
        let mut rng = rng_for(case ^ 0xD317);
        let ops = random_ops(&mut rng);
        for format in ["ROW", "COLUMN", "DUAL"] {
            let db = Database::new();
            db.execute(&format!(
                "CREATE TABLE t (k BIGINT PRIMARY KEY, x BIGINT, f DOUBLE, ts TIMESTAMP, s TEXT) \
                 USING FORMAT {format}"
            ))
            .unwrap();
            let mgr = db.txn_manager();
            let table = db.table("t").unwrap();
            let mut session = db.session();
            let mut model: BTreeMap<i64, ModelRow> = BTreeMap::new();

            for op in &ops {
                match op {
                    Op::Insert(k, v) => {
                        let tx = mgr.begin();
                        match table.insert(&tx, engine_row(*k, &model_row(*v))) {
                            Ok(()) => {
                                tx.commit().unwrap();
                                let prev = model.insert(*k, model_row(*v));
                                assert!(prev.is_none(), "{format:?}: engine accepted dup {k}");
                            }
                            Err(_) => {
                                assert!(
                                    model.contains_key(k),
                                    "{format:?}: engine rejected fresh key {k}"
                                );
                            }
                        }
                    }
                    Op::Update(k, v) => {
                        let tx = mgr.begin();
                        match table.update(&tx, &row![*k], engine_row(*k, &model_row(*v))) {
                            Ok(()) => {
                                tx.commit().unwrap();
                                assert!(
                                    model.insert(*k, model_row(*v)).is_some(),
                                    "{format:?}: engine updated missing key {k}"
                                );
                            }
                            Err(_) => {
                                assert!(
                                    !model.contains_key(k),
                                    "{format:?}: engine failed update of live key {k}"
                                );
                            }
                        }
                    }
                    Op::Delete(k) => {
                        let tx = mgr.begin();
                        match table.delete(&tx, &row![*k]) {
                            Ok(()) => {
                                tx.commit().unwrap();
                                assert!(
                                    model.remove(k).is_some(),
                                    "{format:?}: engine deleted missing key {k}"
                                );
                            }
                            Err(_) => {
                                assert!(
                                    !model.contains_key(k),
                                    "{format:?}: engine failed delete of live key {k}"
                                );
                            }
                        }
                    }
                    Op::Maintain => {
                        table.maintain(mgr.gc_watermark()).unwrap();
                    }
                    Op::Statement(set, pred, wrap) => {
                        let sql = match set {
                            Some(set) => format!("UPDATE t SET {} WHERE {}", set.sql(), pred.sql()),
                            None => format!("DELETE FROM t WHERE {}", pred.sql()),
                        };
                        // What the statement does to the model: the targeted
                        // keys and their new rows (`None` = deleted), or
                        // `Err` when the SET list fails in a targeted row.
                        let effect: Result<Vec<(i64, Option<ModelRow>)>, ()> = model
                            .iter()
                            .filter(|(k, r)| pred.matches(**k, r))
                            .map(|(k, r)| match set {
                                Some(set) => Ok((*k, Some(set.apply(*k, r.clone()).ok_or(())?))),
                                None => Ok((*k, None)),
                            })
                            .collect();
                        if *wrap != Wrap::AutoCommit {
                            session.execute("BEGIN").unwrap();
                        }
                        let what = format!("{format}: {sql} (seed={case})");
                        match (session.execute(&sql), &effect) {
                            (Ok(r), Ok(rows)) => assert_eq!(r.affected(), rows.len(), "{what}"),
                            (Err(_), Err(())) => {
                                failed_statements += 1;
                                let targets = model.iter().filter(|(k, r)| pred.matches(**k, r));
                                partly_failed_in_txn +=
                                    (*wrap == Wrap::BeginCommit && targets.count() > 1) as usize;
                            }
                            (got, want) => panic!("{what}: engine {got:?}, model {want:?}"),
                        }
                        match wrap {
                            Wrap::AutoCommit => {}
                            Wrap::BeginCommit => drop(session.execute("COMMIT").unwrap()),
                            Wrap::BeginRollback => drop(session.execute("ROLLBACK").unwrap()),
                        }
                        if *wrap != Wrap::BeginRollback {
                            for (k, new) in effect.unwrap_or_default() {
                                match new {
                                    Some(r) => model.insert(k, r),
                                    None => model.remove(&k),
                                };
                            }
                        }
                    }
                }
            }

            // Full-state comparison through the scan path.
            let me = oltapdb::common::ids::TxnId(u64::MAX - 30);
            let mut got: Vec<_> = table
                .scan(&[0, 1, 2, 3, 4], &ScanPredicate::all(), mgr.now(), me, 4096)
                .unwrap()
                .iter()
                .flat_map(|b| b.to_rows())
                .map(|r| model_of(&r))
                .collect();
            got.sort_unstable();
            let want: Vec<_> = model.iter().map(|(k, r)| model_of(&engine_row(*k, r))).collect();
            assert_eq!(got, want, "{format:?}: scan state diverged (seed={case})");

            // Point reads agree too.
            for k in 0..40i64 {
                let got = table.get(&row![k], mgr.now(), me).unwrap().map(|r| model_of(&r));
                let want = model.get(&k).map(|r| model_of(&engine_row(k, r)));
                assert_eq!(got, want, "{format:?}: get({k}) diverged (seed={case})");
            }
        }
    }
    // Not vacuous: statements did fail in a targeted row, some of them with
    // other targets, inside a transaction that then committed.
    assert!(failed_statements > 10, "only {failed_statements} failed statements");
    assert!(partly_failed_in_txn > 3, "only {partly_failed_in_txn} in a committed transaction");
}

/// Zone-map pruning is sound: a pushed-down range predicate returns the
/// same rows as a full scan filtered in memory.
#[test]
fn pushdown_equals_postfilter() {
    for case in 0..16 {
        let mut rng = rng_for(case ^ 0xF117);
        let n = rng.gen_range(1..300usize);
        let values: Vec<i64> = (0..n).map(|_| rng.gen_range(-1000..1000i64)).collect();
        let lo = rng.gen_range(-1000..1000i64);

        let db = Database::new();
        db.execute("CREATE TABLE p (id BIGINT PRIMARY KEY, v BIGINT) USING FORMAT COLUMN")
            .unwrap();
        let handle = db.table("p").unwrap();
        let tx = db.txn_manager().begin();
        for (i, v) in values.iter().enumerate() {
            handle.insert(&tx, row![i as i64, *v]).unwrap();
        }
        tx.commit().unwrap();
        db.maintenance(); // move data into zone-mapped segments

        let pushed = db
            .query(&format!("SELECT COUNT(*) FROM p WHERE v >= {lo}"))
            .unwrap()[0][0]
            .as_int()
            .unwrap();
        let expected = values.iter().filter(|&&v| v >= lo).count() as i64;
        assert_eq!(pushed, expected, "seed={case}");
    }
}

/// Builds a random star-schema pair (`fact`, `dim`) and a set of random
/// query shapes covering every operator the morsel-driven executor
/// parallelizes: scan, filter, project, aggregate, hash join (inner and
/// left), sort, top-K, and limit/offset.
fn random_parallel_workload(rng: &mut StdRng) -> (Arc<Database>, Vec<String>) {
    let db = Database::new();
    let queries = load_star_schema(&db, rng);
    (db, queries)
}

/// Loads the random star schema of [`random_parallel_workload`] into an
/// existing database, so the same seed reproduces identical data under
/// different database configurations.
fn load_star_schema(db: &Arc<Database>, rng: &mut StdRng) -> Vec<String> {
    db.execute(
        "CREATE TABLE fact (id BIGINT PRIMARY KEY, g BIGINT, v BIGINT, f DOUBLE, s TEXT) USING FORMAT COLUMN",
    )
    .unwrap();
    db.execute("CREATE TABLE dim (g BIGINT PRIMARY KEY, w BIGINT) USING FORMAT ROW")
        .unwrap();

    let n = rng.gen_range(50..800usize);
    let groups = rng.gen_range(2..12i64);
    let fact = db.table("fact").unwrap();
    let rows: Vec<oltapdb::common::Row> = (0..n)
        .map(|i| {
            // `f`: multiples of 0.25 within ±1 000, so every partial sum is
            // exact and workers may add them in any grouping.
            let f = Value::Float(rng.gen_range(-4000..=4000i64) as f64 * 0.25);
            let s = Value::Str(format!("s{:02}", rng.gen_range(0..40u8)));
            let nullable = |rng: &mut StdRng, v| if rng.gen_bool(0.1) { Value::Null } else { v };
            oltapdb::common::Row::new(vec![
                Value::Int(i as i64),
                Value::Int(rng.gen_range(0..groups * 2)),
                Value::Int(rng.gen_range(-100..100i64)),
                nullable(rng, f),
                nullable(rng, s),
            ])
        })
        .collect();
    // Two or three pieces, each merged into a segment of its own (the last
    // by the maintenance below): a scan is a morsel per segment, so pool
    // workers each hold a share of a sort, a join build, a GROUP BY. Each
    // piece is four times the next — a coalesce folds a segment into the
    // one behind it only at twice or less.
    let count = rng.gen_range(2..4usize);
    let weight = |k: usize| 4usize.pow((count - 1 - k) as u32);
    let total: usize = (0..count).map(weight).sum();
    let mut rest = &rows[..];
    let pieces: Vec<&[oltapdb::common::Row]> = (0..count)
        .map(|k| {
            let take = if k + 1 == count { rest.len() } else { n * weight(k) / total };
            let (piece, tail) = rest.split_at(take);
            rest = tail;
            piece
        })
        .collect();
    for (i, piece) in pieces.iter().enumerate() {
        let tx = db.txn_manager().begin();
        for row in *piece {
            fact.insert(&tx, row.clone()).unwrap();
        }
        tx.commit().unwrap();
        if i + 1 < pieces.len() {
            db.maintenance();
        }
    }
    // Dimension covers only half the group domain, so LEFT JOIN exercises
    // both matched and padded rows.
    let dim = db.table("dim").unwrap();
    let tx = db.txn_manager().begin();
    for g in 0..groups {
        dim.insert(&tx, row![g, rng.gen_range(0..1000i64)]).unwrap();
    }
    tx.commit().unwrap();
    db.maintenance();

    let x = rng.gen_range(-50..50i64);
    let k = rng.gen_range(1..40usize);
    let o = rng.gen_range(0..20usize);
    let queries = vec![
        "SELECT * FROM fact".to_string(),
        format!("SELECT id, v + g FROM fact WHERE v > {x}"),
        "SELECT g, COUNT(*), SUM(v) FROM fact GROUP BY g".to_string(),
        format!("SELECT COUNT(*) FROM fact WHERE v < {x}"),
        "SELECT id FROM fact ORDER BY v, id".to_string(),
        format!("SELECT id, v FROM fact ORDER BY v DESC, id LIMIT {k}"),
        format!("SELECT id FROM fact LIMIT {k} OFFSET {o}"),
        format!(
            "SELECT fact.id, dim.w FROM fact JOIN dim ON fact.g = dim.g WHERE fact.v >= {x}"
        ),
        "SELECT fact.id, dim.w FROM fact LEFT JOIN dim ON fact.g = dim.g".to_string(),
        "SELECT g, AVG(v), MIN(v), MAX(v) FROM fact GROUP BY g ORDER BY g".to_string(),
        // Aggregates the pipelines run (the ones above are fused, and
        // answered on the session thread at any worker count): an
        // expression key, one input expression under two aggregates,
        // extremes of a string, exact float sums, an aggregate over a join.
        "SELECT g + 0, COUNT(*), SUM(f), AVG(f), MIN(f), MAX(f), COUNT(f) FROM fact GROUP BY g + 0".to_string(),
        "SELECT g, SUM(v * 2), AVG(v * 2), COUNT(v * 2), MIN(v * 2) FROM fact GROUP BY g".to_string(),
        "SELECT g + 0, MIN(s), MAX(s), COUNT(s) FROM fact GROUP BY g + 0".to_string(),
        format!("SELECT SUM(f * 2.0), AVG(f * 2.0), MAX(s), COUNT(*) FROM fact WHERE v + 0 > {x}"),
        "SELECT dim.w, COUNT(*), SUM(fact.f), AVG(fact.v), MIN(fact.s) FROM fact JOIN dim ON fact.g = dim.g \
         GROUP BY dim.w"
            .to_string(),
    ];
    queries
}

/// The pipeline executor's results do not depend on its worker count: for
/// random tables and every query shape, results on 2 and 8 pool workers
/// are identical to the inline one-worker run — same rows, same order.
#[test]
fn parallel_matches_serial_across_workers() {
    for case in 0..12u64 {
        let mut rng = rng_for(case ^ 0x9A12_77E1);
        let (db, queries) = random_parallel_workload(&mut rng);
        for sql in &queries {
            db.set_parallelism(1);
            let serial = db.query(sql).unwrap();
            for workers in [2, 8] {
                db.set_parallelism(workers);
                let parallel = db.query(sql).unwrap();
                assert_eq!(
                    serial, parallel,
                    "seed={case} workers={workers} query=`{sql}`"
                );
            }
        }
    }
}

/// Determinism survives chaos: with faults injected at morsel boundaries
/// (each retried transparently by the pipeline driver — inline and on the
/// pool alike), pooled results still match the one-worker run exactly.
#[test]
fn parallel_matches_serial_under_morsel_faults() {
    use oltapdb::common::fault::{points, FaultInjector, FaultPoint};
    use oltapdb::core::DbConfig;

    for case in 0..6u64 {
        let mut rng = rng_for(case ^ 0x0FA_0175);
        let faults = FaultInjector::new(BASE_SEED ^ case);
        faults.arm(points::EXEC_MORSEL_FAIL, FaultPoint::with_probability(0.3));
        let db = Database::with_config(DbConfig {
            wal_path: None,
            faults: Some(Arc::clone(&faults)),
            ..DbConfig::default()
        })
        .unwrap();
        db.execute(
            "CREATE TABLE fact (id BIGINT PRIMARY KEY, g BIGINT, v BIGINT) USING FORMAT COLUMN",
        )
        .unwrap();
        let fact = db.table("fact").unwrap();
        let tx = db.txn_manager().begin();
        let n = rng.gen_range(100..600usize);
        for i in 0..n {
            fact.insert(&tx, row![i as i64, rng.gen_range(0..8i64), rng.gen_range(-100..100i64)])
                .unwrap();
        }
        tx.commit().unwrap();
        db.maintenance();

        let x = rng.gen_range(-50..50i64);
        for sql in [
            "SELECT * FROM fact".to_string(),
            format!("SELECT id, v FROM fact WHERE v > {x}"),
            "SELECT g, COUNT(*), SUM(v) FROM fact GROUP BY g".to_string(),
            "SELECT id FROM fact ORDER BY v DESC, id LIMIT 10".to_string(),
        ] {
            db.set_parallelism(1);
            let serial = db.query(&sql).unwrap();
            for workers in [2, 8] {
                db.set_parallelism(workers);
                let parallel = db.query(&sql).unwrap();
                assert_eq!(
                    serial, parallel,
                    "seed={case} workers={workers} query=`{sql}`"
                );
            }
        }
        assert!(
            faults.fired_count() > 0,
            "seed={case}: chaos run never injected a fault"
        );
    }
}

/// Join edge cases — NULL keys on both sides, duplicate build keys, an
/// empty build side, and a fully-unmatched LEFT probe — produce identical
/// results inline and at every parallelism level. The INNER
/// queries also exercise the sideways Bloom filter (the optimizer marks
/// them), so this doubles as a semantics check for scan-side join
/// filtering.
#[test]
fn join_edge_cases_match_serial() {
    let db = Database::new();
    db.execute(
        "CREATE TABLE probe (pid BIGINT PRIMARY KEY, k BIGINT, v BIGINT) USING FORMAT COLUMN",
    )
    .unwrap();
    db.execute("CREATE TABLE build (bid BIGINT PRIMARY KEY, k BIGINT, w BIGINT) USING FORMAT ROW")
        .unwrap();
    db.execute(
        "CREATE TABLE empty_build (bid BIGINT PRIMARY KEY, k BIGINT, w BIGINT) USING FORMAT ROW",
    )
    .unwrap();

    let probe = db.table("probe").unwrap();
    let tx = db.txn_manager().begin();
    for i in 0..200i64 {
        // Every third probe key is NULL; the rest span 0..20, so keys
        // 10..20 never match the build side.
        let k = if i % 3 == 0 { Value::Null } else { Value::Int(i % 20) };
        probe.insert(&tx, row![i, k, i * 7]).unwrap();
    }
    tx.commit().unwrap();

    let build = db.table("build").unwrap();
    let tx = db.txn_manager().begin();
    let mut bid = 0i64;
    for k in 0..10i64 {
        // Even keys are duplicated ×3 (probe fan-out); key 5 is NULL on
        // the build side (must never join).
        let copies = if k % 2 == 0 { 3 } else { 1 };
        for c in 0..copies {
            let key = if k == 5 { Value::Null } else { Value::Int(k) };
            build.insert(&tx, row![bid, key, k * 100 + c]).unwrap();
            bid += 1;
        }
    }
    tx.commit().unwrap();
    db.maintenance();

    let queries = [
        "SELECT p.pid, b.bid, b.w FROM probe p JOIN build b ON p.k = b.k",
        "SELECT p.pid, b.w FROM probe p LEFT JOIN build b ON p.k = b.k",
        "SELECT p.pid, b.w FROM probe p JOIN empty_build b ON p.k = b.k",
        "SELECT p.pid, b.w FROM probe p LEFT JOIN empty_build b ON p.k = b.k",
    ];
    for (qi, sql) in queries.iter().enumerate() {
        db.set_parallelism(1);
        let serial = db.query(sql).unwrap();
        for workers in [2, 8] {
            db.set_parallelism(workers);
            let parallel = db.query(sql).unwrap();
            assert_eq!(serial, parallel, "workers={workers} query=`{sql}`");
        }
        match qi {
            // INNER over empty build: no rows, regardless of probe size.
            2 => assert!(serial.is_empty(), "empty build must join to nothing"),
            // LEFT over empty build: every probe row survives, padded.
            3 => {
                assert_eq!(serial.len(), 200);
                assert!(serial.iter().all(|r| r[1] == Value::Null));
            }
            _ => assert!(!serial.is_empty(), "query=`{sql}` should match rows"),
        }
    }

    // Oracle for the INNER fan-out: each non-NULL probe key k < 10 (and
    // k != 5) matches `copies(k)` build rows; NULL keys match nothing.
    db.set_parallelism(1);
    let inner = db.query(queries[0]).unwrap();
    let expected: usize = (0..200i64)
        .filter(|i| i % 3 != 0)
        .map(|i| i % 20)
        .filter(|&k| k < 10 && k != 5)
        .map(|k| if k % 2 == 0 { 3usize } else { 1 })
        .sum();
    assert_eq!(inner.len(), expected, "inner-join fan-out diverged");
}

/// Determinism survives chaos at the join-build boundary: with
/// `exec.join_build_fail` armed, partitioned-build morsels fail and are
/// retried transparently at every worker count, and pooled join results
/// still match the one-worker run exactly.
#[test]
fn parallel_matches_serial_under_join_build_faults() {
    use oltapdb::common::fault::{points, FaultInjector, FaultPoint};
    use oltapdb::core::DbConfig;

    for case in 0..4u64 {
        let mut rng = rng_for(case ^ 0x10B_F417);
        let faults = FaultInjector::new(BASE_SEED ^ case);
        faults.arm(
            points::EXEC_JOIN_BUILD_FAIL,
            FaultPoint::with_probability(0.3),
        );
        let db = Database::with_config(DbConfig {
            wal_path: None,
            faults: Some(Arc::clone(&faults)),
            ..DbConfig::default()
        })
        .unwrap();
        db.execute(
            "CREATE TABLE fact (id BIGINT PRIMARY KEY, g BIGINT, v BIGINT) USING FORMAT COLUMN",
        )
        .unwrap();
        db.execute("CREATE TABLE dim (g BIGINT PRIMARY KEY, w BIGINT) USING FORMAT ROW")
            .unwrap();
        let fact = db.table("fact").unwrap();
        let tx = db.txn_manager().begin();
        let n = rng.gen_range(100..600usize);
        for i in 0..n {
            fact.insert(
                &tx,
                row![i as i64, rng.gen_range(0..16i64), rng.gen_range(-100..100i64)],
            )
            .unwrap();
        }
        tx.commit().unwrap();
        let dim = db.table("dim").unwrap();
        let tx = db.txn_manager().begin();
        for g in 0..8i64 {
            dim.insert(&tx, row![g, rng.gen_range(0..1000i64)]).unwrap();
        }
        tx.commit().unwrap();
        db.maintenance();

        let x = rng.gen_range(-50..50i64);
        for sql in [
            "SELECT fact.id, dim.w FROM fact JOIN dim ON fact.g = dim.g".to_string(),
            format!("SELECT fact.id, dim.w FROM fact JOIN dim ON fact.g = dim.g WHERE fact.v > {x}"),
            "SELECT fact.id, dim.w FROM fact LEFT JOIN dim ON fact.g = dim.g".to_string(),
        ] {
            db.set_parallelism(1);
            let serial = db.query(&sql).unwrap();
            for workers in [2, 8] {
                db.set_parallelism(workers);
                let parallel = db.query(&sql).unwrap();
                assert_eq!(
                    serial, parallel,
                    "seed={case} workers={workers} query=`{sql}`"
                );
            }
        }
        assert!(
            faults.fired_count() > 0,
            "seed={case}: join-build fault never fired"
        );
    }
}

/// Spilling is an execution strategy, not an answer-changing fallback: a
/// memory-governed database whose per-query budget forces joins,
/// aggregates, and sorts to disk answers every query byte-identically to
/// an unbudgeted in-memory run — inline and at every parallelism level.
#[test]
fn spilled_results_match_in_memory() {
    use oltapdb::core::{DbConfig, MemoryConfig};

    let mut total_spills = 0u64;
    for case in 0..6u64 {
        let seed = case ^ 0x5B11_7D15;
        let mut rng = rng_for(seed);
        let (reference, queries) = random_parallel_workload(&mut rng);

        // Same seed, same data — but under a budget small enough that the
        // larger cases cannot keep a pipeline breaker resident.
        let governed = Database::with_config(DbConfig {
            memory: Some(MemoryConfig {
                total_bytes: 1 << 20,
                oltp_bytes: 256 << 10,
                olap_bytes: 768 << 10,
                query_bytes: 16 << 10,
            }),
            ..DbConfig::default()
        })
        .unwrap();
        let mut rng2 = rng_for(seed);
        let replayed = load_star_schema(&governed, &mut rng2);
        assert_eq!(queries, replayed, "seed={case}: workload replay diverged");

        for sql in &queries {
            reference.set_parallelism(1);
            let want = reference.query(sql).unwrap();
            governed.set_parallelism(1);
            assert_eq!(
                governed.query(sql).unwrap(),
                want,
                "seed={case} serial query=`{sql}`"
            );
            for workers in [2, 8] {
                governed.set_parallelism(workers);
                assert_eq!(
                    governed.query(sql).unwrap(),
                    want,
                    "seed={case} workers={workers} query=`{sql}`"
                );
            }
        }
        total_spills += governed.memory_governor().unwrap().spill_events();
    }
    assert!(total_spills > 0, "no case ever spilled — property is vacuous");
}

/// WAL replay is prefix-closed: truncating the log at *every* byte offset
/// yields an exact prefix of the committed records — never an error, never
/// a resurrected or reordered record. This is the crash-safety contract
/// torn-write recovery relies on.
#[test]
fn wal_replay_is_prefix_closed() {
    use oltapdb::txn::wal::{replay, CommitRecord, Wal, WalOp};

    for case in 0..8u64 {
        let mut rng = rng_for(case ^ 0x3A1);
        let n_records = rng.gen_range(1..12usize);
        let wal = Wal::new_in_memory();
        let mut records: Vec<CommitRecord> = Vec::new();
        for i in 0..n_records {
            let n_ops = rng.gen_range(0..4usize);
            let rec = CommitRecord {
                txn: oltapdb::common::ids::TxnId(i as u64 + 1),
                commit_ts: i as u64 + 100,
                ops: (0..n_ops)
                    .map(|j| WalOp::Insert {
                        table: "t".into(),
                        row: row![j as i64, rng.gen::<i64>()],
                    })
                    .collect(),
            };
            wal.append(&rec).unwrap();
            records.push(rec);
        }
        let full = wal.to_bytes();

        // Every truncation point, including 0 and full length.
        let mut max_seen = 0usize;
        for cut in 0..=full.len() {
            let (replayed, _torn) = replay(&full[..cut]);
            assert!(
                replayed.len() <= records.len(),
                "seed={case} cut={cut}: more records than written"
            );
            // Exact prefix: record i matches written record i.
            for (i, got) in replayed.iter().enumerate() {
                assert_eq!(
                    got, &records[i],
                    "seed={case} cut={cut}: record {i} diverged"
                );
            }
            // Monotone: more bytes never yield fewer records.
            assert!(
                replayed.len() >= max_seen,
                "seed={case} cut={cut}: replay went backwards"
            );
            max_seen = replayed.len();
        }
        assert_eq!(max_seen, records.len(), "seed={case}: full log incomplete");
    }
}

/// Larger-than-memory paging is invisible to queries: a buffer pool
/// around a tenth of the data answers every query shape byte-identically
/// to an unlimited pool and to the fully-resident (unpaged) path, on the
/// serial and the parallel executor alike — one statement at a time, in a
/// repeated rotation (what a scan leaves in the pool is what the next one
/// finds), and with two sessions scanning the same segments at once.
#[test]
fn paged_scans_match_resident_at_any_pool_size() {
    use oltapdb::core::{BufferConfig, DbConfig};
    let mut any_evictions = false;
    for case in 0..8u64 {
        let seed = case ^ 0xBF_F3_4D;
        let resident = Database::new();
        let queries = load_star_schema(&resident, &mut rng_for(seed));
        // A fused aggregate, a filtered projection, a pipeline aggregate,
        // and a self-join: two passes over each segment in one statement.
        let rotation = [
            queries[2].as_str(),
            queries[1].as_str(),
            queries[10].as_str(),
            "SELECT a.id, b.v FROM fact a JOIN fact b ON a.id = b.id WHERE a.v >= 0",
        ];
        let wanted: Vec<_> = rotation.iter().map(|sql| resident.query(sql).unwrap()).collect();

        // A pool far below the merged segment footprint (a 64-row page of
        // doubles is 528 bytes, and the pages a row group's readers hold
        // are pinned side by side: 2 KiB is the floor), one that holds two
        // statements' pins but not the data, and one that never evicts.
        // All must agree with the resident baseline.
        for pool_bytes in [2048u64, 8192, u64::MAX] {
            let db = Database::with_config(DbConfig {
                buffer: Some(BufferConfig {
                    pool_bytes,
                    page_rows: 64,
                    page_root: None,
                }),
                ..DbConfig::default()
            })
            .unwrap();
            // Same seed → byte-identical data and query list.
            let paged_queries = load_star_schema(&db, &mut rng_for(seed));
            assert_eq!(queries, paged_queries, "seed={seed:#x}");
            for sql in &queries {
                let want = resident.query(sql).unwrap();
                db.set_parallelism(1);
                let serial = db.query(sql).unwrap();
                db.set_parallelism(4);
                let parallel = db.query(sql).unwrap();
                assert_eq!(
                    serial, want,
                    "seed={seed:#x} pool={pool_bytes} serial `{sql}`"
                );
                assert_eq!(
                    parallel, want,
                    "seed={seed:#x} pool={pool_bytes} parallel `{sql}`"
                );
            }
            let rotate = |who: &str| {
                for round in 0..3 {
                    for (sql, want) in rotation.iter().zip(&wanted) {
                        assert_eq!(
                            &db.query(sql).unwrap(),
                            want,
                            "seed={seed:#x} pool={pool_bytes} {who} round {round} `{sql}`"
                        );
                    }
                }
            };
            for workers in [1, 4] {
                db.set_parallelism(workers);
                rotate(&format!("{workers} workers"));
                // The starved pool holds one statement's pins, not two.
                if pool_bytes > 2048 {
                    std::thread::scope(|s| {
                        s.spawn(|| rotate("first of two sessions"));
                        s.spawn(|| rotate("second of two sessions"));
                    });
                }
            }
            let stats = db.buffer_stats().unwrap();
            assert!(stats.misses > 0, "seed={seed:#x}: nothing faulted — vacuous");
            assert_eq!(stats.pinned_bytes, 0, "seed={seed:#x} pool={pool_bytes}");
            any_evictions |= stats.evictions > 0;
        }
    }
    assert!(
        any_evictions,
        "no workload ever overflowed the tiny pool — vacuous"
    );
}

/// `BufferConfig::with_pool`'s own default of 4 096 rows a page scans what
/// resident storage scans, on the columns whose pages are far smaller
/// than their row count: constant and low-cardinality ones (a 4 096-row
/// constant column is a few dozen bytes; the page decoder used to reject
/// it as an implausible element count).
#[test]
fn paged_scans_at_default_page_rows_match_resident() {
    use oltapdb::core::{BufferConfig, DbConfig};
    let load = |db: &Arc<Database>| {
        db.execute(
            "CREATE TABLE wide (id BIGINT PRIMARY KEY, k BIGINT, g BIGINT, tag TEXT, ok BOOLEAN) \
             USING FORMAT COLUMN",
        )
        .unwrap();
        for chunk in 0..10i64 {
            let vals: Vec<String> = (chunk * 1000..(chunk + 1) * 1000)
                .map(|i| format!("({i}, 7, {}, 'same', true)", i / 4000))
                .collect();
            db.execute(&format!("INSERT INTO wide VALUES {}", vals.join(", ")))
                .unwrap();
        }
        db.maintenance();
    };
    let resident = Database::new();
    load(&resident);
    let paged = Database::with_config(DbConfig {
        buffer: Some(BufferConfig::with_pool(64 << 10)),
        ..DbConfig::default()
    })
    .unwrap();
    load(&paged);
    for sql in [
        "SELECT COUNT(*), SUM(k), MIN(g), MAX(g) FROM wide",
        "SELECT g, COUNT(*), SUM(k) FROM wide GROUP BY g ORDER BY g",
        "SELECT tag, ok, COUNT(*) FROM wide WHERE k = 7 GROUP BY tag, ok ORDER BY tag",
        "SELECT id, k, g, tag, ok FROM wide WHERE g = 1 ORDER BY id LIMIT 5",
        "SELECT k, g, tag FROM wide WHERE id = 4097",
    ] {
        assert_eq!(
            paged.query(sql).unwrap(),
            resident.query(sql).unwrap(),
            "`{sql}`"
        );
    }
    assert!(
        paged.buffer_stats().unwrap().misses > 0,
        "nothing was paged — vacuous"
    );
}

/// The engine's packed-code kernel (`cmp_codes_block`) and the SWAR
/// baseline both match the naive decode-then-compare baseline over random
/// widths, values, and literals, including the all-hit / no-hit
/// selectivity extremes — so E3 / E18 time three scans of one answer.
#[test]
fn packed_scan_kernels_equal_scalar_reference() {
    use oltap_bench::baselines::packed_scan::{
        scan_engine_block, scan_naive, scan_swar, PackedCmp,
    };

    for case in 0..64u64 {
        let mut rng = rng_for(case ^ 0x5CAB_51DE);
        let width = rng.gen_range(1..=20u8);
        let n = rng.gen_range(0..500usize);
        let max = 1u64.checked_shl(width as u32).unwrap() - 1;
        let values: Vec<u64> = (0..n).map(|_| rng.gen_range(0..=max)).collect();
        let packed = BitPacked::pack(&values, width).unwrap();
        let literals = [0, max / 2, max, rng.gen_range(0..=max)];
        for cmp in [PackedCmp::Eq, PackedCmp::Lt, PackedCmp::Gt] {
            for &lit in &literals {
                let want = scan_naive(&packed, cmp, lit);
                let block = scan_engine_block(&packed, cmp, lit);
                assert_eq!(block, want, "seed={case} w={width} {cmp:?} lit={lit}");
                if let Some(swar) = scan_swar(&packed, cmp, lit) {
                    assert_eq!(swar, want, "seed={case} w={width} swar {cmp:?} lit={lit}");
                }
            }
        }
    }
}

/// The code-domain comparison kernel agrees with decoding every code and
/// comparing in the value domain: every operator at every width, literals
/// at 0, at the largest code and past it, alone and as the second bound of
/// a range, with and without NULLs and a selection to AND into.
#[test]
fn code_domain_compare_equals_decode_then_evaluate() {
    use oltapdb::common::BitSet;
    use oltapdb::storage::segment::cmp_codes_block;
    use oltapdb::storage::CmpOp;

    const OPS: [CmpOp; 6] = [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge];
    for width in 0..=64u8 {
        let mut rng = rng_for(u64::from(width) ^ 0xC0DE_D011);
        let n = rng.gen_range(1..400usize);
        let max = u64::MAX.checked_shr(64 - u32::from(width)).unwrap_or(0);
        let values: Vec<u64> = (0..n)
            .map(|i| if i % 9 == 0 { max } else { rng.gen_range(0..=max) })
            .collect();
        let packed = BitPacked::pack(&values, width).unwrap();
        let valid: Vec<usize> = (0..n).filter(|_| rng.gen_range(0..8) != 0).collect();
        let validity = BitSet::from_indexes(n, &valid);
        let preselected: Vec<usize> = (0..n).filter(|i| !(64..128).contains(i) && i % 6 != 1).collect();
        let literals = [0, max / 2, max, rng.gen_range(0..=max), max.saturating_add(1), u64::MAX];
        let passes = |i: usize, (op, lit): (CmpOp, u64)| op.matches(values[i].cmp(&lit));
        for first_op in OPS {
            for &first in &literals {
                let bound = (CmpOp::Le, literals[3]);
                for (second, validity) in [(None, None), (Some(bound), None), (None, Some(&validity))] {
                    let mut got = BitSet::from_indexes(n, &preselected);
                    cmp_codes_block(&packed, (first_op, first), second, validity, &mut got);
                    let want: Vec<usize> = preselected
                        .iter()
                        .copied()
                        .filter(|&i| validity.is_none_or(|v| v.get(i)))
                        .filter(|&i| passes(i, (first_op, first)) && second.is_none_or(|s| passes(i, s)))
                        .collect();
                    assert_eq!(
                        got,
                        BitSet::from_indexes(n, &want),
                        "w={width} {first_op:?} {first} and {second:?} nulls={}",
                        validity.is_some()
                    );
                }
            }
        }
    }
}

/// How a database of the fused-aggregation workload stores its main rows.
#[derive(Debug, Clone, Copy, PartialEq)]
enum AggStorage {
    Resident,
    /// 64-row pages behind a pool of this many bytes.
    Paged(u64),
    Frozen,
}

/// Loads a random aggregation workload built to show any regrouping of
/// float additions: `f` mixes `0.1`-style fractions over magnitudes
/// 1e-9…1e15 with ±0.0, NULLs and one non-finite value (which one is the
/// seed's — `inf - inf` and two NaNs in one sum have no defined bits), so
/// nearly every reordering of a sum changes its last bits. Group columns
/// cover every key source of the dense path — `tag` dictionary strings,
/// `g` a narrow frame of reference, `r` runs, `w` a few or many values
/// spread over the whole `i64` range — with NULL keys; rows are deleted
/// from the main store and from the delta tail. Returns the queries: the
/// shapes the dense path takes and the ones it leaves to the scalar path.
fn load_fused_agg_workload(db: &Arc<Database>, rng: &mut StdRng, storage: AggStorage) -> Vec<String> {
    db.execute(
        "CREATE TABLE m (id BIGINT PRIMARY KEY, tag TEXT, g BIGINT, r BIGINT, w BIGINT, \
         v BIGINT, f DOUBLE) USING FORMAT COLUMN",
    )
    .unwrap();
    let tags = ["red", "green", "blue", "cyan", "teal"];
    let n = rng.gen_range(100..900usize);
    let non_finite = [f64::INFINITY, f64::NEG_INFINITY, f64::NAN, 0.1][rng.gen_range(0..4usize)];
    let wide: Vec<i64> = (0..[5usize, 300][rng.gen_range(0..2usize)])
        .map(|_| rng.gen::<i64>())
        .collect();
    let run_len = rng.gen_range(1..120i64);
    let float = |rng: &mut StdRng| match rng.gen_range(0..64u8) {
        0..=3 => Value::Null,
        4..=6 => Value::Float(0.0),
        7..=9 => Value::Float(-0.0),
        10 => Value::Float(non_finite),
        _ => {
            let magnitude = 10f64.powi(rng.gen_range(-9..=15));
            Value::Float(rng.gen_range(-9999..9999i64) as f64 * 0.1 * magnitude)
        }
    };
    let nullable = |rng: &mut StdRng, one_in: u8, v: Value| match rng.gen_range(0..one_in) {
        0 => Value::Null,
        _ => v,
    };
    let t = db.table("m").unwrap();
    let tx = db.txn_manager().begin();
    for i in 0..n {
        let tag = Value::Str(tags[rng.gen_range(0..tags.len())].to_string());
        let g = Value::Int(rng.gen_range(0..7i64));
        let v = Value::Int(rng.gen_range(-1000..1000i64));
        let w = Value::Int(wide[rng.gen_range(0..wide.len())]);
        t.insert(
            &tx,
            oltapdb::common::Row::new(vec![
                Value::Int(i as i64),
                nullable(rng, 10, tag),
                nullable(rng, 15, g),
                Value::Int(i as i64 / run_len),
                nullable(rng, 20, w),
                nullable(rng, 12, v),
                float(rng),
            ]),
        )
        .unwrap();
    }
    tx.commit().unwrap();
    // Merge most rows into (possibly paged, possibly frozen) main segments,
    // then add a small delta tail so the fused path exercises both stores.
    db.maintenance();
    if storage == AggStorage::Frozen {
        assert!(db.freeze_all(true).unwrap().segments_frozen > 0);
    }
    let tail = rng.gen_range(1..40usize);
    let tx = db.txn_manager().begin();
    for i in 0..tail {
        t.insert(
            &tx,
            oltapdb::common::Row::new(vec![
                Value::Int((n + i) as i64),
                Value::Str(tags[i % tags.len()].to_string()),
                Value::Int((i % 7) as i64),
                Value::Int((n as i64 - 1) / run_len),
                Value::Int(wide[i % wide.len()]),
                Value::Int((i as i64) - 20),
                float(rng),
            ]),
        )
        .unwrap();
    }
    tx.commit().unwrap();
    for _ in 0..rng.gen_range(1..30usize) {
        let id = rng.gen_range(0..n + tail);
        db.execute(&format!("DELETE FROM m WHERE id = {id}")).unwrap();
    }
    // A thousand groups under a frame-of-reference key: a group's rows are
    // scattered over every row group, so its float sum shows any regrouping.
    db.execute("CREATE TABLE k1 (id BIGINT PRIMARY KEY, k BIGINT, v BIGINT, f DOUBLE) USING FORMAT COLUMN")
        .unwrap();
    let k1 = db.table("k1").unwrap();
    let tx = db.txn_manager().begin();
    for i in 0..3000i64 {
        let v = Value::Int(rng.gen_range(-1000..1000i64));
        let row = vec![Value::Int(i), Value::Int(500 + (i * 7919) % 1000), nullable(rng, 12, v), float(rng)];
        k1.insert(&tx, oltapdb::common::Row::new(row)).unwrap();
    }
    tx.commit().unwrap();
    db.maintenance();
    if storage == AggStorage::Frozen {
        db.freeze_all(true).unwrap();
    }
    let x = rng.gen_range(-500..500i64);
    vec![
        // Aggregates that share accumulators: one sum for SUM and AVG, one
        // row count less the input's NULLs for every count.
        "SELECT g, SUM(f), AVG(f), COUNT(f), COUNT(*), SUM(v), AVG(v), COUNT(v) FROM m GROUP BY g ORDER BY g"
            .into(),
        "SELECT AVG(f), COUNT(*), SUM(f), COUNT(f), AVG(v), COUNT(v), SUM(v) FROM m".into(),
        format!("SELECT k, COUNT(*), SUM(f), AVG(f), COUNT(v), MAX(v) FROM k1 WHERE v < {x} GROUP BY k ORDER BY k"),
        "SELECT tag, COUNT(*), SUM(v), MIN(v), MAX(v), AVG(v), SUM(f), AVG(f), MIN(f), MAX(f) \
         FROM m GROUP BY tag ORDER BY tag"
            .into(),
        "SELECT g, COUNT(v), SUM(v), COUNT(f), SUM(f), AVG(v) FROM m GROUP BY g ORDER BY g".into(),
        "SELECT r, COUNT(*), SUM(f), MIN(f), MAX(f), COUNT(tag) FROM m GROUP BY r ORDER BY r".into(),
        "SELECT w, COUNT(*), AVG(f), SUM(v) FROM m GROUP BY w ORDER BY w".into(),
        "SELECT COUNT(*), SUM(v), MIN(v), MAX(v), AVG(v), COUNT(f), SUM(f), AVG(f), MIN(f), MAX(f) \
         FROM m"
            .into(),
        format!("SELECT tag, SUM(v), SUM(f) FROM m WHERE v > {x} GROUP BY tag ORDER BY tag"),
        "SELECT g, COUNT(*), SUM(f) FROM m WHERE f > 0.5 GROUP BY g ORDER BY g".into(),
        format!("SELECT r, AVG(f) FROM m WHERE v >= {x}.5 AND tag IS NOT NULL GROUP BY r ORDER BY r"),
        format!("SELECT COUNT(*), AVG(f) FROM m WHERE g = {}", x.rem_euclid(7)),
        "SELECT SUM(f) FROM m WHERE f < 0.0".into(),
        "SELECT g, COUNT(*) FROM m WHERE f IS NOT NULL AND w IS NOT NULL GROUP BY g ORDER BY g".into(),
        // Left to the scalar path: two keys, a float key, MIN of strings.
        "SELECT tag, g, SUM(f), AVG(v) FROM m GROUP BY tag, g ORDER BY tag, g".into(),
        "SELECT f, COUNT(*) FROM m GROUP BY f ORDER BY f".into(),
        "SELECT g, MIN(tag), SUM(f) FROM m GROUP BY g ORDER BY g".into(),
        // MIN and MAX of one string column: two accumulators, not one shared.
        "SELECT g, MAX(tag), MIN(tag), COUNT(tag) FROM m GROUP BY g ORDER BY g".into(),
        "SELECT MIN(tag), MAX(tag) FROM m".into(),
    ]
}

/// Fused aggregation is invisible, bit for bit: at fallback probability 0
/// (all dense), 0.4 (dense and scalar row groups mixed mid-query) and 1
/// (the scalar reference), on resident, paged (64-row pages, starved and
/// unbounded pools) and frozen storage, at 1 and 4 workers, every GROUP BY
/// gives the rows the all-scalar resident run gives — float sums included —
/// and those are the rows [`model_aggregate`] folds out of the statement's
/// own projection, for the fused statements and for their unfused twins
/// (which share the store with them, so only the model can catch an
/// accumulator two aggregates must not share).
#[test]
fn fused_aggregation_matches_scalar_everywhere() {
    use oltapdb::common::fault::{points, FaultInjector, FaultPoint};
    use oltapdb::core::{BufferConfig, DbConfig};

    for case in 0..8u64 {
        let seed = case ^ 0xF0_5ED_A66;
        let mut want: Option<(Vec<String>, Vec<Vec<oltapdb::common::Row>>)> = None;
        for storage in [
            AggStorage::Resident,
            // Starved: a 64-row page of raw `w` keys and one of floats are
            // ~0.5 KiB each and pinned together, so 2 KiB is the floor.
            AggStorage::Paged(2048),
            AggStorage::Paged(u64::MAX),
            AggStorage::Frozen,
        ] {
            for prob in [1.0f64, 0.4, 0.0] {
                let faults = FaultInjector::new(seed ^ prob.to_bits());
                if prob > 0.0 {
                    faults.arm(points::EXEC_KERNEL_FALLBACK, FaultPoint::with_probability(prob));
                }
                let db = Database::with_config(DbConfig {
                    faults: Some(Arc::clone(&faults)),
                    buffer: match storage {
                        AggStorage::Paged(pool_bytes) => Some(BufferConfig {
                            pool_bytes,
                            page_rows: 64,
                            page_root: None,
                        }),
                        _ => None,
                    },
                    ..DbConfig::default()
                })
                .unwrap();
                let queries = load_fused_agg_workload(&db, &mut rng_for(seed), storage);
                let held_to_model = |sql: &str| {
                    let (got, model) = (db.query(sql).unwrap(), model_aggregate(&db, sql));
                    assert!(
                        same_rows(&got, &model),
                        "seed={seed:#x} {storage:?} fallback_prob={prob} `{sql}`:\n engine {got:?}\n model  {model:?}"
                    );
                };
                queries.iter().for_each(|sql| held_to_model(sql));
                // The reference: the first combination, resident and all scalar.
                let (queries, want) = want.get_or_insert_with(|| {
                    let rows = queries.iter().map(|sql| db.query(sql).unwrap()).collect();
                    (queries, rows)
                });
                for workers in [1, 4] {
                    db.set_parallelism(workers);
                    for (sql, want) in queries.iter().zip(want.iter()) {
                        assert_eq!(
                            &db.query(sql).unwrap(),
                            want,
                            "seed={seed:#x} {storage:?} fallback_prob={prob} workers={workers} `{sql}`"
                        );
                    }
                }
                // An expression key takes the unfused batch pipeline, which
                // meets the rows in the same order: the same bits again, and
                // from states no fused aggregate shares with another.
                db.set_parallelism(1);
                for (twin_of, twin) in [
                    (4, "SELECT g + 0, COUNT(v), SUM(v), COUNT(f), SUM(f), AVG(v) FROM m \
                         GROUP BY g + 0 ORDER BY g + 0"),
                    (17, "SELECT g + 0, MAX(tag), MIN(tag), COUNT(tag) FROM m \
                          GROUP BY g + 0 ORDER BY g + 0"),
                ] {
                    assert_eq!(
                        db.query(twin).unwrap(),
                        want[twin_of],
                        "seed={seed:#x} {storage:?} fallback_prob={prob} unfused twin of `{}`",
                        queries[twin_of]
                    );
                    held_to_model(twin);
                }
                assert!(
                    prob == 0.0 || faults.fired_count() > 0,
                    "seed={seed:#x}: fallback fault never exercised"
                );
            }
        }
    }
}

/// Freezing is invisible to queries: for random workloads, a database
/// whose segments were frozen (in random subsets, via staged merges)
/// returns byte-identical results to a never-frozen control — across
/// resident and paged storage, serial and parallel execution, scans,
/// aggregates, and joins.
#[test]
fn frozen_scans_match_hot_everywhere() {
    use oltapdb::core::{BufferConfig, DbConfig};

    for case in 0..6u64 {
        let seed = case ^ 0x0C01_D51D;
        let control = Database::new();
        let queries = load_star_schema(&control, &mut rng_for(seed));

        // Staged extra batches; the freeze point lands between two random
        // stages, so only a random subset of segments ends up frozen.
        let mut extra = rng_for(seed ^ 0xF0F0);
        let split = extra.gen_range(0..3u32);
        let staged: Vec<String> = (0..3u32)
            .map(|stage| {
                let base = 100_000 + stage as i64 * 1000;
                let vals: Vec<String> = (0..40)
                    .map(|i| {
                        format!(
                            "({}, {}, {}, {}.25, 's{}')",
                            base + i,
                            extra.gen_range(0..8i64),
                            extra.gen_range(-100..100i64),
                            extra.gen_range(-100..100i64),
                            i % 7
                        )
                    })
                    .collect();
                format!("INSERT INTO fact VALUES {}", vals.join(", "))
            })
            .collect();
        // The control gets the same rows, merged but never frozen.
        for sql in &staged {
            control.execute(sql).unwrap();
            control.maintenance();
        }

        for pool_bytes in [None, Some(2048u64)] {
            let db = match pool_bytes {
                None => Database::new(),
                Some(pool) => Database::with_config(DbConfig {
                    buffer: Some(BufferConfig {
                        pool_bytes: pool,
                        page_rows: 64,
                        page_root: None,
                    }),
                    ..DbConfig::default()
                })
                .unwrap(),
            };
            assert_eq!(queries, load_star_schema(&db, &mut rng_for(seed)));

            for (stage, sql) in staged.iter().enumerate() {
                if stage as u32 == split {
                    let stats = db.freeze_all(true).unwrap();
                    assert!(
                        stats.segments_frozen > 0,
                        "seed={seed:#x} stage={stage}: nothing froze — vacuous"
                    );
                }
                db.execute(sql).unwrap();
                db.maintenance();
            }

            let heat = db.stats().heat;
            assert!(heat.frozen_segments > 0, "seed={seed:#x}: no frozen segment live");
            for sql in &queries {
                let want = control.query(sql).unwrap();
                db.set_parallelism(1);
                assert_eq!(db.query(sql).unwrap(), want, "seed={seed:#x} serial `{sql}`");
                db.set_parallelism(4);
                assert_eq!(
                    db.query(sql).unwrap(),
                    want,
                    "seed={seed:#x} parallel `{sql}`"
                );
            }
            // Point reads against frozen rows.
            assert_eq!(
                db.query("SELECT v FROM fact WHERE id = 1").unwrap(),
                control.query("SELECT v FROM fact WHERE id = 1").unwrap(),
                "seed={seed:#x}"
            );
        }
    }
}

/// `AS OF` oracle: replaying a random DML history and snapshotting the
/// full table after every statement, a later `AS OF ts` query must
/// reproduce each snapshot exactly — including after merges and freezes
/// run below a pinned watermark. Once the history floor passes a
/// snapshot, reading it fails with a typed error instead of a wrong
/// answer.
#[test]
fn as_of_matches_snapshot_oracle() {
    use oltapdb::common::DbError;

    for case in 0..6u64 {
        let mut rng = rng_for(case ^ 0xA50F_0A5E);
        let db = Database::new();
        db.execute("CREATE TABLE t (id BIGINT PRIMARY KEY, v BIGINT) USING FORMAT COLUMN")
            .unwrap();
        for i in 0..50 {
            db.execute(&format!("INSERT INTO t VALUES ({i}, {})", i * 2))
                .unwrap();
        }
        // Merge the base data; this raises the history floor, so record
        // snapshots only from here on.
        db.maintenance();

        // A pinned reader holds the GC watermark down, so merges and
        // freezes during the history keep every later snapshot readable.
        let mut pin = db.session();
        pin.execute("BEGIN").unwrap();

        let mut snapshots: Vec<(u64, Vec<oltapdb::common::Row>)> = Vec::new();
        for step in 0..30 {
            let id = rng.gen_range(0..60i64);
            let choice = rng.gen_range(0..3u32);
            let _ = match choice {
                0 => db.execute(&format!(
                    "UPDATE t SET v = {} WHERE id = {id}",
                    rng.gen_range(-500..500i64)
                )),
                1 => db.execute(&format!("DELETE FROM t WHERE id = {id}")),
                _ => db.execute(&format!(
                    "INSERT INTO t VALUES ({}, {})",
                    1000 + step,
                    rng.gen_range(-500..500i64)
                )),
            };
            let ts = db.txn_manager().now();
            let rows = db.query("SELECT id, v FROM t ORDER BY id").unwrap();
            snapshots.push((ts, rows));
            if step % 10 == 4 {
                db.maintenance();
                db.freeze_all(true).unwrap();
            }
        }

        // Every snapshot is reproducible, serially and in parallel.
        for (ts, want) in &snapshots {
            let sql = format!("SELECT id, v FROM t AS OF {ts} ORDER BY id");
            db.set_parallelism(1);
            assert_eq!(&db.query(&sql).unwrap(), want, "seed={case} ts={ts} serial");
            db.set_parallelism(4);
            assert_eq!(&db.query(&sql).unwrap(), want, "seed={case} ts={ts} parallel");
        }
        db.set_parallelism(1);

        // Unpin and let maintenance reclaim the history: snapshots below
        // the new floor now fail loudly.
        pin.execute("COMMIT").unwrap();
        db.maintenance();
        let floor = db.history_floor();
        let (first_ts, _) = snapshots[0];
        assert!(first_ts < floor, "seed={case}: floor did not advance");
        let err = db
            .query(&format!("SELECT id FROM t AS OF {first_ts}"))
            .unwrap_err();
        assert!(
            matches!(&err, DbError::InvalidArgument(m) if m.contains("history floor")),
            "seed={case}: {err}"
        );
        // Present-time reads are unaffected.
        let now = db.txn_manager().now();
        assert_eq!(
            db.query(&format!("SELECT id, v FROM t AS OF {now} ORDER BY id"))
                .unwrap(),
            db.query("SELECT id, v FROM t ORDER BY id").unwrap(),
            "seed={case}"
        );
    }
}

// ===================================================================
// Retry/backoff properties (`oltapdb::common::retry::Backoff`): the
// client edge leans on these bounds for its reconnect loops, so they
// are pinned here against the closed form
// `delay = min(base * 2^attempt, cap) + jitter(0..50%)`.
// ===================================================================

/// Every delay stays within the closed-form envelope:
/// `exp <= delay < exp * 1.5` where `exp = min(base << attempt, cap)`.
#[test]
fn prop_backoff_delays_within_jitter_envelope() {
    use oltapdb::common::retry::Backoff;
    use std::time::Duration;
    for case in 0..200u64 {
        let mut rng = rng_for(6000 + case);
        let base_ms = rng.gen_range(1..50u64);
        let cap_ms = rng.gen_range(base_ms..base_ms * 64);
        let seed = rng.gen::<u64>();
        let mut b = Backoff::new(
            Duration::from_millis(base_ms),
            Duration::from_millis(cap_ms),
        )
        .seeded(seed);
        for attempt in 0..20u32 {
            let exp = Duration::from_millis(base_ms)
                .saturating_mul(1u32 << attempt.min(16))
                .min(Duration::from_millis(cap_ms));
            let d = b.next_delay();
            assert!(
                d >= exp,
                "attempt {attempt}: delay {d:?} below deterministic floor {exp:?} \
                 (base={base_ms}ms cap={cap_ms}ms seed={seed:#x})"
            );
            let ceil = exp + exp.mul_f64(0.5);
            assert!(
                d <= ceil,
                "attempt {attempt}: delay {d:?} above jitter ceiling {ceil:?} \
                 (base={base_ms}ms cap={cap_ms}ms seed={seed:#x})"
            );
        }
    }
}

/// Averaged over many seeds, successive delays are non-decreasing until
/// the cap (exponential growth dominates the jitter noise), and a
/// `reset()` starts the schedule over.
#[test]
fn prop_backoff_monotone_on_average_and_resets() {
    use oltapdb::common::retry::Backoff;
    use std::time::Duration;
    let base = Duration::from_millis(4);
    let cap = Duration::from_secs(2);
    const SEEDS: u64 = 300;
    const ATTEMPTS: usize = 8; // 4ms << 8 is still under the 2s cap
    let mut sums = [Duration::ZERO; ATTEMPTS];
    for s in 0..SEEDS {
        let mut rng = rng_for(6200 + s);
        let mut b = Backoff::new(base, cap).seeded(rng.gen());
        for sum in sums.iter_mut() {
            *sum += b.next_delay();
        }
        // After a reset, the schedule starts from the base again.
        b.reset();
        let restarted = b.next_delay();
        assert!(
            restarted < base * 2,
            "reset must restart the schedule: got {restarted:?}"
        );
    }
    for w in sums.windows(2) {
        assert!(
            w[1] > w[0],
            "average delay must grow per attempt below the cap: {sums:?}"
        );
    }
}

/// A cancellable backoff sleep honors its floor (the server's
/// retry-after hint) and returns promptly — not after the full delay —
/// when the token trips mid-sleep.
#[test]
fn prop_backoff_sleep_honors_floor_and_cancels_promptly() {
    use oltapdb::common::retry::Backoff;
    use oltapdb::common::{CancellationToken, DbError};
    use std::time::{Duration, Instant};

    // Floor: a tiny backoff sleeps at least the requested retry-after.
    let mut b = Backoff::new(Duration::from_millis(1), Duration::from_millis(2)).seeded(7);
    let cancel = CancellationToken::new();
    let floor = Duration::from_millis(60);
    let start = Instant::now();
    b.sleep_cancellable(&cancel, floor).unwrap();
    assert!(
        start.elapsed() >= floor,
        "sleep returned before the retry-after floor: {:?}",
        start.elapsed()
    );

    // Prompt cancellation: a long sleep ends within the slice budget of
    // the cancel, not after the full multi-second delay.
    let mut b = Backoff::new(Duration::from_secs(5), Duration::from_secs(5)).seeded(7);
    let cancel = CancellationToken::new();
    let canceller = {
        let cancel = cancel.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            cancel.cancel();
        })
    };
    let start = Instant::now();
    let err = b
        .sleep_cancellable(&cancel, Duration::ZERO)
        .expect_err("tripped token must abort the sleep");
    assert!(matches!(err, DbError::Cancelled(_)), "got {err:?}");
    assert!(
        start.elapsed() < Duration::from_millis(500),
        "cancellation must interrupt the sleep promptly, took {:?}",
        start.elapsed()
    );
    canceller.join().unwrap();
}

// ===================================================================
// Access paths: a primary-key point statement is answered by a key
// lookup (`AccessPath::PkPoint`), everything else by the table scan. The
// lookup must be invisible in results.
// ===================================================================

/// The rows of a `Project? / Filter? / Scan` plan computed with
/// `TableHandle::scan` called directly — whatever access path the plan
/// names — and the tuple-at-a-time reference evaluator for the rest.
fn rows_via_scan(
    plan: &oltapdb::sql::LogicalPlan,
    db: &Database,
    read_ts: u64,
    me: oltapdb::common::ids::TxnId,
) -> oltapdb::common::Result<Vec<oltapdb::common::Row>> {
    use oltap_bench::baselines::tuple_eval::eval_row;
    use oltapdb::common::Row;
    use oltapdb::sql::LogicalPlan;
    match plan {
        LogicalPlan::Scan {
            table,
            projection,
            pushdown,
            ..
        } => {
            let batches = db
                .table(table)?
                .scan(projection, pushdown, read_ts, me, 1024)?;
            Ok(batches.iter().flat_map(|b| b.to_rows()).collect())
        }
        LogicalPlan::Filter { input, predicate } => {
            let mut out = Vec::new();
            for row in rows_via_scan(input, db, read_ts, me)? {
                if eval_row(predicate, &row)? == Value::Bool(true) {
                    out.push(row);
                }
            }
            Ok(out)
        }
        LogicalPlan::Project { input, exprs } => rows_via_scan(input, db, read_ts, me)?
            .iter()
            .map(|row| {
                let vals: oltapdb::common::Result<Vec<Value>> =
                    exprs.iter().map(|(e, _)| eval_row(e, row)).collect();
                vals.map(Row::new)
            })
            .collect(),
        other => panic!("oracle does not interpret {}", other.explain()),
    }
}

/// For ROW / COLUMN / DUAL tables, resident, paged through a tiny pool
/// and frozen, with single and composite keys: every point statement —
/// keys present, absent, deleted, updated in the delta, merged to main;
/// residual conjuncts true and false; contradictory, duplicated, NULL and
/// cross-typed key literals; projections with and without the key — reads
/// exactly what the same plan reads through `TableHandle::scan`, now,
/// `AS OF` an older timestamp, and inside a transaction with writes of
/// its own.
#[test]
fn prop_point_get_matches_scan() {
    use oltapdb::core::physical::{execute_plan, snapshot_ctx, ExecContext};
    use oltapdb::core::{BufferConfig, DbConfig};
    use oltapdb::sql::{bind_select, optimize, parse, AccessPath, LogicalPlan, Statement};

    fn plan_of(db: &Database, sql: &str) -> LogicalPlan {
        let Statement::Select(sel) = parse(sql).unwrap() else {
            panic!("not a SELECT: {sql}")
        };
        optimize(bind_select(&sel, &*db.catalog_read()).unwrap()).unwrap()
    }
    fn is_point(plan: &LogicalPlan) -> bool {
        match plan {
            LogicalPlan::Scan { access, .. } => matches!(access, AccessPath::PkPoint { .. }),
            LogicalPlan::Filter { input, .. } | LogicalPlan::Project { input, .. } => {
                is_point(input)
            }
            _ => false,
        }
    }
    // Errors compare by message: a `TypeMismatch` must stay one.
    fn shown(r: oltapdb::common::Result<Vec<oltapdb::common::Row>>) -> String {
        format!("{:?}", r.map_err(|e| e.to_string()))
    }

    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Storage {
        Resident,
        Paged,
        Frozen,
    }
    const IDS: i64 = 120;
    let (mut point_plans, mut hits) = (0usize, 0usize);

    for case in 0..8u64 {
        for format in ["ROW", "COLUMN", "DUAL"] {
            for storage in [Storage::Resident, Storage::Paged, Storage::Frozen] {
                let seed = case ^ 0x0090_176E_7000;
                let tag = format!("seed={seed:#x} {format} {storage:?}");
                let mut rng = rng_for(seed);
                let db = match storage {
                    Storage::Paged => Database::with_config(DbConfig {
                        buffer: Some(BufferConfig {
                            pool_bytes: 512,
                            page_rows: 64,
                            page_root: None,
                        }),
                        ..DbConfig::default()
                    })
                    .unwrap(),
                    _ => Database::new(),
                };
                db.execute(&format!(
                    "CREATE TABLE s (id BIGINT PRIMARY KEY, g BIGINT, v BIGINT, name TEXT) \
                     USING FORMAT {format}"
                ))
                .unwrap();
                db.execute(&format!(
                    "CREATE TABLE c (w BIGINT NOT NULL, d BIGINT NOT NULL, v BIGINT, name TEXT, \
                     PRIMARY KEY (w, d)) USING FORMAT {format}"
                ))
                .unwrap();
                let s_vals: Vec<String> = (0..IDS)
                    .map(|i| {
                        format!(
                            "({i}, {}, {}, 'n{}')",
                            i % 7,
                            rng.gen_range(-50..50i64),
                            i % 5
                        )
                    })
                    .collect();
                db.execute(&format!("INSERT INTO s VALUES {}", s_vals.join(", ")))
                    .unwrap();
                let c_vals: Vec<String> = (0..IDS)
                    .map(|i| {
                        format!(
                            "({}, {}, {}, 'n{}')",
                            i / 20,
                            i % 20,
                            rng.gen_range(-50..50i64),
                            i % 5
                        )
                    })
                    .collect();
                db.execute(&format!("INSERT INTO c VALUES {}", c_vals.join(", ")))
                    .unwrap();
                db.maintenance();

                // Random autocommit DML on both tables: updates of main rows
                // land in the delta, deletes stamp main, inserts are new
                // delta keys.
                let churn = |rng: &mut StdRng, rounds: usize| {
                    for _ in 0..rounds {
                        let id = rng.gen_range(0..IDS + 20);
                        let (w, d) = (id / 20, id % 20);
                        let v = rng.gen_range(-50..50i64);
                        let (s_sql, c_sql) = match rng.gen_range(0..3u32) {
                            0 => (
                                format!("UPDATE s SET v = {v} WHERE id = {id}"),
                                format!("UPDATE c SET v = {v} WHERE w = {w} AND d = {d}"),
                            ),
                            1 => (
                                format!("DELETE FROM s WHERE id = {id}"),
                                format!("DELETE FROM c WHERE w = {w} AND d = {d}"),
                            ),
                            _ => (
                                format!(
                                    "INSERT INTO s VALUES ({id}, {}, {v}, 'n{}')",
                                    id % 7,
                                    id % 5
                                ),
                                format!("INSERT INTO c VALUES ({w}, {d}, {v}, 'n{}')", id % 5),
                            ),
                        };
                        // Duplicate-key inserts fail; that is part of the mix.
                        let _ = db.execute(&s_sql);
                        let _ = db.execute(&c_sql);
                    }
                };
                // Phase A, then maintenance: its survivors are merged to
                // main (a second segment), its deletes applied.
                churn(&mut rng, 25);
                db.maintenance();
                if storage == Storage::Frozen {
                    let stats = db.freeze_all(true).unwrap();
                    if format != "ROW" {
                        assert!(stats.segments_frozen > 0, "{tag}: nothing froze — vacuous");
                    }
                }
                // A pinned reader keeps the history from here readable.
                let mut pin = db.session();
                pin.execute("BEGIN").unwrap();
                let ts_old = db.txn_manager().now();
                // Phase B stays in the delta (the pin holds the watermark).
                churn(&mut rng, 25);
                db.maintenance();

                // An open transaction with an insert, an update and a delete
                // of its own on each table.
                let txn = db.txn_manager().begin();
                let (s_tab, c_tab) = (db.table("s").unwrap(), db.table("c").unwrap());
                let reader = snapshot_ctx(0).me;
                let now = db.txn_manager().now();
                let live: Vec<i64> = (0..IDS + 20)
                    .filter(|&i| s_tab.get(&row![i], now, reader).unwrap().is_some())
                    .collect();
                let (upd, del, ins) = (live[0], live[live.len() / 2], IDS + 30);
                s_tab.insert(&txn, row![ins, 1i64, 1i64, "own"]).unwrap();
                s_tab
                    .update(&txn, &row![upd], row![upd, 2i64, 2i64, "own"])
                    .unwrap();
                s_tab.delete(&txn, &row![del]).unwrap();
                c_tab.insert(&txn, row![9i64, 9i64, 1i64, "own"]).unwrap();
                let own_ids = [upd, del, ins];

                let snapshots = [
                    ("now", now, reader),
                    ("as-of", ts_old, reader),
                    ("in-txn", txn.begin_ts(), txn.id()),
                ];
                for q in 0..60 {
                    // Mostly random keys (some never existed), sometimes the
                    // transaction's own.
                    let id = if q % 6 == 0 {
                        own_ids[q / 6 % 3]
                    } else {
                        rng.gen_range(0..IDS + 35)
                    };
                    let (w, d) = if id == ins {
                        (9, 9)
                    } else {
                        (id / 20, id % 20)
                    };
                    let other = rng.gen_range(0..IDS);
                    let x = rng.gen_range(-50..50i64);
                    let cols = ["*", "v, name", "id", "name, g", "v + g"][rng.gen_range(0..5usize)];
                    let residual = [
                        String::new(),
                        format!(" AND v > {x}"),
                        format!(" AND name = 'n{}'", rng.gen_range(0..5)),
                        " AND name <> 'own'".to_string(),
                        format!(" AND v + v > {x}"),
                        " AND name = 5".to_string(), // mistyped: the scan's TypeMismatch
                    ][rng.gen_range(0..6usize)]
                    .clone();
                    let key = match rng.gen_range(0..12u32) {
                        0 => format!("id = {id} AND id = {other}"), // contradictory (or duplicated)
                        1 => format!("id = {id} AND id = {id}"),
                        2 => "id = NULL".to_string(),
                        3 => format!("id = {id}.0"),
                        4 => format!("id = {id}.5"),
                        5 => format!("id = {id}.0 AND {id} = id"),
                        6 => format!("id >= {id} AND id <= {id}"), // a scan either way
                        _ => format!("id = {id}"),
                    };
                    let c_cols = if cols == "id" || cols == "name, g" {
                        "d, name"
                    } else {
                        cols
                    };
                    let c_cols = c_cols.replace("v + g", "v + w");
                    let statements = [
                        (
                            format!("SELECT {cols} FROM s"),
                            format!("WHERE {key}{residual}"),
                        ),
                        (
                            format!("SELECT {c_cols} FROM c"),
                            match q % 4 {
                                0 => format!("WHERE w = {w}{residual}"), // partial key: a scan
                                1 => format!("WHERE d = {d} AND w = {w} AND w = {w}{residual}"),
                                _ => format!("WHERE w = {w} AND d = {d}{residual}"),
                            },
                        ),
                    ];
                    for (select, filter) in &statements {
                        let plan = plan_of(&db, &format!("{select} {filter}"));
                        point_plans += is_point(&plan) as usize;
                        for (what, read_ts, me) in snapshots {
                            let want = rows_via_scan(&plan, &db, read_ts, me);
                            // Through SQL where SQL can name the snapshot; the
                            // transaction's through the executor.
                            let got = match what {
                                "now" => db.query(&format!("{select} {filter}")),
                                "as-of" => db.query(&format!("{select} AS OF {ts_old} {filter}")),
                                _ => {
                                    let ctx = ExecContext {
                                        read_ts,
                                        me,
                                        ..snapshot_ctx(0)
                                    };
                                    execute_plan(&plan, &db.catalog_read(), &ctx)
                                        .map(|bs| bs.iter().flat_map(|b| b.to_rows()).collect())
                                }
                            };
                            hits += matches!(&got, Ok(rows) if !rows.is_empty()) as usize;
                            assert_eq!(
                                shown(got),
                                shown(want),
                                "{tag} {what}: `{select} {filter}`\n{}",
                                plan.explain()
                            );
                        }
                    }

                    // Shapes the scan oracle does not interpret, against the
                    // same statement written as a range (a scan): a point scan
                    // under an aggregate, and one carrying a sideways join
                    // filter from the join above it.
                    for (point, range) in [
                        (
                            format!("SELECT COUNT(*), SUM(v) FROM s WHERE id = {id}"),
                            format!("SELECT COUNT(*), SUM(v) FROM s WHERE id >= {id} AND id <= {id}"),
                        ),
                        (
                            format!("SELECT s.v, c.v FROM s JOIN c ON s.g = c.w WHERE s.id = {id} ORDER BY c.v"),
                            format!(
                                "SELECT s.v, c.v FROM s JOIN c ON s.g = c.w \
                                 WHERE s.id >= {id} AND s.id <= {id} ORDER BY c.v"
                            ),
                        ),
                    ] {
                        assert!(plan_of(&db, &point).explain().contains("access=pk-point"));
                        assert!(!plan_of(&db, &range).explain().contains("access=pk-point"));
                        assert_eq!(
                            shown(db.query(&point)),
                            shown(db.query(&range)),
                            "{tag}: `{point}`"
                        );
                    }
                }
                txn.abort().unwrap();
                pin.execute("COMMIT").unwrap();
            }
        }
    }
    // Not vacuous: most statements were point plans, and many found a row.
    assert!(point_plans > 4000, "only {point_plans} point plans");
    assert!(hits > 4000, "only {hits} non-empty answers");
}

/// A table without a primary key has no point path to take: `=` on any
/// column is a scan, duplicates and all.
#[test]
fn keyless_tables_keep_scanning() {
    let db = Database::new();
    db.execute("CREATE TABLE h (a BIGINT, b BIGINT) USING FORMAT COLUMN")
        .unwrap();
    db.execute("INSERT INTO h VALUES (1, 10), (1, 11), (2, 20)")
        .unwrap();
    db.maintenance();
    let explain = db.query("EXPLAIN SELECT b FROM h WHERE a = 1").unwrap();
    assert!(!format!("{explain:?}").contains("access="), "{explain:?}");
    assert_eq!(
        db.query("SELECT b FROM h WHERE a = 1 ORDER BY b").unwrap(),
        vec![row![10i64], row![11i64]]
    );
}

/// Generator for [`prop_expr_engines_agree`]: random well-typed expression
/// trees over the columns `i j (Int64) t (Timestamp) f g (Float64) b c
/// (Bool) s u (Utf8)`.
mod expr_gen {
    use super::*;
    use oltapdb::exec::{BinOp, Expr, UnOp};

    #[derive(Clone, Copy, PartialEq)]
    pub enum Ty {
        Int,
        Float,
        Bool,
        Str,
    }

    const P53: i64 = 1 << 53;
    pub const INTS: [i64; 14] = [
        0,
        1,
        -1,
        7,
        i64::MIN,
        i64::MAX,
        P53,
        -P53,
        P53 + 1,
        P53 - 1,
        -P53 - 1,
        -P53 + 1,
        3_037_000_501,
        1 << 31,
    ];
    pub const FLOATS: [f64; 12] = [
        f64::NAN,
        0.0,
        -0.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        1.5,
        -2.25,
        P53 as f64,
        9007199254740994.0,
        1e300,
        -1e-300,
        7.0,
    ];
    pub const STRS: [&str; 4] = ["", "a", "ab", "b"];

    pub fn schema() -> Schema {
        Schema::new(vec![
            Field::new("i", DataType::Int64),
            Field::new("j", DataType::Int64),
            Field::new("t", DataType::Timestamp),
            Field::new("f", DataType::Float64),
            Field::new("g", DataType::Float64),
            Field::new("b", DataType::Bool),
            Field::new("c", DataType::Bool),
            Field::new("s", DataType::Utf8),
            Field::new("u", DataType::Utf8),
        ])
    }

    fn pick<T: Clone>(rng: &mut StdRng, xs: &[T]) -> T {
        xs[rng.gen_range(0..xs.len())].clone()
    }

    /// A non-NULL value of the column type `ty`: special half the time.
    pub fn value(rng: &mut StdRng, ty: Ty) -> Value {
        let special = rng.gen_bool(0.5);
        match ty {
            Ty::Int if special => Value::Int(pick(rng, &INTS)),
            Ty::Int => Value::Int(rng.gen_range(-50..50i64)),
            Ty::Float if special => Value::Float(pick(rng, &FLOATS)),
            Ty::Float => Value::Float(rng.gen_range(-400..400i64) as f64 * 0.25),
            Ty::Bool => Value::Bool(rng.gen_bool(0.5)),
            Ty::Str => Value::Str(pick(rng, &STRS).to_string()),
        }
    }

    fn leaf(rng: &mut StdRng, ty: Ty, vm: bool) -> Expr {
        if rng.gen_bool(0.65) {
            return Expr::col(match ty {
                Ty::Int => rng.gen_range(0..3usize),
                Ty::Float => rng.gen_range(3..5usize),
                Ty::Bool => rng.gen_range(5..7usize),
                Ty::Str => rng.gen_range(7..9usize),
            });
        }
        // A NULL literal types as Int64.
        if ty == Ty::Int && !vm && rng.gen_bool(0.1) {
            return Expr::Literal(Value::Null);
        }
        Expr::Literal(value(rng, ty))
    }

    fn numeric(rng: &mut StdRng) -> Ty {
        pick(rng, &[Ty::Int, Ty::Float])
    }

    /// A random expression of type `ty`, at most `depth` operators deep.
    /// With `vm` it stays inside what the f64 VM compiles (integers only
    /// as leaves, no strings, no `IS NULL`, no NULL literal), so that
    /// half of the trees exercise the VM and not only its declining.
    pub fn gen(rng: &mut StdRng, ty: Ty, depth: u32, vm: bool) -> Expr {
        if depth == 0 || ty == Ty::Str || (ty == Ty::Int && vm) || rng.gen_bool(0.2) {
            return leaf(rng, ty, vm);
        }
        let d = depth - 1;
        let unary = |op, e| Expr::Unary {
            op,
            expr: Box::new(e),
        };
        let arith = [BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Div, BinOp::Mod];
        match ty {
            Ty::Int if rng.gen_bool(0.15) => unary(UnOp::Neg, gen(rng, Ty::Int, d, vm)),
            Ty::Int => Expr::binary(
                pick(rng, &arith),
                gen(rng, Ty::Int, d, vm),
                gen(rng, Ty::Int, d, vm),
            ),
            Ty::Float if rng.gen_bool(0.15) => unary(UnOp::Neg, gen(rng, Ty::Float, d, vm)),
            Ty::Float => {
                let (l, r) = pick(
                    rng,
                    &[(Ty::Float, Ty::Float), (Ty::Int, Ty::Float), (Ty::Float, Ty::Int)],
                );
                Expr::binary(pick(rng, &arith), gen(rng, l, d, vm), gen(rng, r, d, vm))
            }
            Ty::Bool => match rng.gen_range(0..if vm { 8 } else { 10u8 }) {
                0..=3 => {
                    let cmp = [BinOp::Eq, BinOp::Ne, BinOp::Lt, BinOp::Le, BinOp::Gt, BinOp::Ge];
                    let (l, r) = match rng.gen_range(if vm { 1 } else { 0 }..6u8) {
                        0 => (Ty::Str, Ty::Str),
                        1 => (Ty::Bool, Ty::Bool),
                        _ => (numeric(rng), numeric(rng)),
                    };
                    Expr::binary(pick(rng, &cmp), gen(rng, l, d, vm), gen(rng, r, d, vm))
                }
                4..=6 => Expr::binary(
                    pick(rng, &[BinOp::And, BinOp::Or]),
                    gen(rng, Ty::Bool, d, vm),
                    gen(rng, Ty::Bool, d, vm),
                ),
                7 => unary(UnOp::Not, gen(rng, Ty::Bool, d, vm)),
                n => {
                    let of = pick(rng, &[Ty::Int, Ty::Float, Ty::Bool, Ty::Str]);
                    let inner = Box::new(gen(rng, of, d, vm));
                    if n == 8 {
                        Expr::IsNull(inner)
                    } else {
                        Expr::IsNotNull(inner)
                    }
                }
            },
            Ty::Str => unreachable!("strings are leaves"),
        }
    }
}

/// Whether evaluating `e` over `row` does arithmetic on two NaNs. Which
/// operand's sign and payload the result carries is decided by operand
/// order, which LLVM may commute, so there — and in any comparison over
/// the result — no evaluator is held to another's bits.
fn two_nan_arithmetic(e: &oltapdb::exec::Expr, row: &oltapdb::common::Row) -> bool {
    use oltap_bench::baselines::tuple_eval::eval_row;
    use oltapdb::exec::Expr;
    match e {
        Expr::Binary { op, left, right } => {
            let nan =
                |x: &Expr| matches!(eval_row(x, row), Ok(Value::Float(v)) if v.is_nan());
            (!op.is_comparison() && !op.is_logic() && nan(left) && nan(right))
                || two_nan_arithmetic(left, row)
                || two_nan_arithmetic(right, row)
        }
        Expr::Unary { expr, .. } | Expr::IsNull(expr) | Expr::IsNotNull(expr) => {
            two_nan_arithmetic(expr, row)
        }
        Expr::Column(_) | Expr::Literal(_) | Expr::Param(..) => false,
    }
}

/// One meaning, three engines: over random well-typed expressions and
/// batches seeded with NaN, ±0.0, ±inf, `i64::MIN/MAX`, ±2^53±1 and NULLs,
/// at lengths straddling the VM's block size, the vectorized interpreter,
/// the f64 VM baseline (wherever it does not decline) and the
/// tuple-at-a-time reference give the same value — kind and bits — in
/// every row, and fail alike: an integer division by zero in a valid row
/// is an `Execution` error in the interpreter and the reference, in a NULL
/// row in neither, and the VM never runs such an expression.
#[test]
fn prop_expr_engines_agree() {
    use expr_gen::{gen, value, Ty};
    use oltap_bench::baselines::f64_vm::{compile, BLOCK};
    use oltap_bench::baselines::tuple_eval::eval_row;
    use oltapdb::common::{Batch, DbError, Row};

    let schema = expr_gen::schema();
    let col_types = [
        Ty::Int,
        Ty::Int,
        Ty::Int,
        Ty::Float,
        Ty::Float,
        Ty::Bool,
        Ty::Bool,
        Ty::Str,
        Ty::Str,
    ];
    let (mut compiled_runs, mut errors, mut exprs) = (0usize, 0usize, 0usize);
    for case in 0..80u64 {
        let mut rng = rng_for(case ^ 0xE4A1);
        let len = [0, 1, BLOCK - 1, BLOCK, BLOCK + 1][case as usize % 5];
        // Three in five batches have no NULL at all, so the VM runs; one in
        // five of those keeps integers within what it loads.
        let null_rate = if case % 5 < 3 { 0.0 } else { 0.15 };
        let small_ints = case % 5 == 0;
        let rows: Vec<Row> = (0..len)
            .map(|_| {
                Row::new(
                    col_types
                        .iter()
                        .map(|&ty| {
                            if rng.gen_bool(null_rate) {
                                Value::Null
                            } else if ty == Ty::Int && small_ints {
                                Value::Int(rng.gen_range(-50..50i64))
                            } else {
                                value(&mut rng, ty)
                            }
                        })
                        .collect(),
                )
            })
            .collect();
        let batch = Batch::from_rows(&schema, &rows).unwrap();
        let rows = batch.to_rows();
        for n in 0..60 {
            let ty = [Ty::Bool, Ty::Bool, Ty::Float, Ty::Int][rng.gen_range(0..4usize)];
            let e = gen(&mut rng, ty, 4, n % 2 == 0);
            let what = format!("seed={case} len={len} {e}");
            e.data_type(&schema).unwrap_or_else(|err| panic!("{what}: ill-typed: {err}"));
            let program = compile(&e, &schema);
            let reference: Result<Vec<Value>, DbError> =
                rows.iter().map(|r| eval_row(&e, r)).collect();
            exprs += 1;
            let vm = program.and_then(|p| p.run(&batch));
            compiled_runs += vm.is_some() as usize;
            match (e.eval_batch(&batch), reference) {
                (Ok(v), Ok(r)) => {
                    assert_eq!(v.len(), len, "{what}");
                    if let Some(c) = &vm {
                        assert_eq!((c.len(), c.data_type()), (len, v.data_type()), "{what}");
                    }
                    for (i, want) in r.iter().enumerate() {
                        let (c, v) = (vm.as_ref().map(|c| c.value_at(i)), v.value_at(i));
                        assert!(
                            (c.as_ref().is_none_or(|c| same(c, want)) && same(&v, want))
                                || two_nan_arithmetic(&e, &rows[i]),
                            "{what}: row {i} {:?}: VM {c:?}, interpreter {v:?}, tuple {want:?}",
                            rows[i]
                        );
                    }
                }
                (Err(DbError::Execution(_)), Err(DbError::Execution(_))) if vm.is_none() => errors += 1,
                (v, r) => panic!(
                    "{what}: VM {:?}, interpreter {:?}, tuple {:?}",
                    vm.map(|_| "ok"),
                    v.map(|_| "ok"),
                    r.map(|_| "ok")
                ),
            }
        }
    }
    // Not vacuous: the VM ran, and divisions by zero were met.
    assert!(compiled_runs > 300, "the VM answered {compiled_runs} of {exprs}");
    assert!(errors > 20, "only {errors} errors");
}

/// Constant folding is evaluation: for random literal-only trees (the
/// generator's, every column replaced by a literal of its type),
/// `fold_expr(e)` evaluates to what `e` does — kind and bits, `i64::MIN /
/// -1` and `-(i64::MIN)` wrapped — and a tree the evaluator refuses (an
/// integer division by zero) is refused folded too, not folded away
/// (unless a boolean identity dropped the refused operand).
#[test]
fn prop_folded_constants_evaluate_as_unfolded() {
    use expr_gen::{gen, value, Ty};
    use oltapdb::common::{Batch, Row};
    use oltapdb::exec::{BinOp, Expr, UnOp};
    use oltapdb::sql::optimizer::fold_expr;

    fn literal_only(e: Expr, rng: &mut StdRng) -> Expr {
        let sub = |e: Box<Expr>, rng: &mut StdRng| Box::new(literal_only(*e, rng));
        match e {
            // A NULL literal types as Int64.
            Expr::Column(c) if c < 3 && rng.gen_bool(0.2) => Expr::Literal(Value::Null),
            Expr::Column(c) => {
                let ty = [Ty::Int, Ty::Int, Ty::Int, Ty::Float, Ty::Float, Ty::Bool, Ty::Bool, Ty::Str, Ty::Str];
                Expr::Literal(value(rng, ty[c]))
            }
            Expr::Binary { op, left, right } => Expr::Binary { op, left: sub(left, rng), right: sub(right, rng) },
            Expr::Unary { op, expr } => Expr::Unary { op, expr: sub(expr, rng) },
            Expr::IsNull(e) => Expr::IsNull(sub(e, rng)),
            Expr::IsNotNull(e) => Expr::IsNotNull(sub(e, rng)),
            literal => literal,
        }
    }

    let schema = expr_gen::schema();
    let one_row = Batch::from_rows(&schema, &[Row::new(vec![Value::Null; schema.len()])]).unwrap();
    let eval = |e: &Expr| e.eval_batch(&one_row).map(|c| c.value_at(0));
    let (mut folded_away, mut refused) = (0, 0);
    for case in 0..40u64 {
        let mut rng = rng_for(case ^ 0xF01D);
        for _ in 0..60 {
            let ty = [Ty::Bool, Ty::Float, Ty::Int][rng.gen_range(0..3usize)];
            let e = gen(&mut rng, ty, 4, false);
            let e = literal_only(e, &mut rng);
            let folded = fold_expr(e.clone());
            match (eval(&e), eval(&folded)) {
                (Ok(want), Ok(got)) => {
                    assert!(
                        same(&want, &got) || two_nan_arithmetic(&e, &one_row.row(0)),
                        "seed={case} {e}: {want:?}, folded to {folded}: {got:?}"
                    );
                    // Kleene short-circuits aside, a tree that evaluates folds whole.
                    folded_away += matches!(folded, Expr::Literal(_)) as usize;
                }
                (Err(_), Err(_)) => refused += 1,
                // `FALSE AND x → FALSE` and `TRUE OR x → TRUE` drop `x`
                // unevaluated, its error with it: a plan rewrite, not a fold.
                (Err(_), Ok(Value::Bool(_))) if [" AND ", " OR "].iter().any(|op| e.to_string().contains(op)) => {}
                (want, got) => panic!("seed={case} {e}: {want:?}, folded to {folded}: {got:?}"),
            }
        }
    }
    assert!(folded_away > 1500 && refused > 50, "{folded_away} folded, {refused} refused");

    // The three overflows the hand-written folder panicked on.
    let min = Expr::lit(i64::MIN);
    for (e, want) in [
        (Expr::binary(BinOp::Div, min.clone(), Expr::lit(-1i64)), i64::MIN),
        (Expr::binary(BinOp::Mod, min.clone(), Expr::lit(-1i64)), 0),
        (Expr::Unary { op: UnOp::Neg, expr: Box::new(min) }, i64::MIN),
    ] {
        assert_eq!(fold_expr(e), Expr::Literal(Value::Int(want)));
    }
}
