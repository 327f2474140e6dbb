//! Coalescing changes how a table is stored, never what it answers. A long
//! run of random inserts, updates and deletes, each tick ending in the full
//! maintenance pass (merge → coalesce → freeze → gc), is mirrored onto a
//! twin that gets the same operations and only ever merges: float `SUM` /
//! `AVG` — whose bits depend on the order the rows are added in — come out
//! of both the same, through the fused path at 1 and 4 workers and through
//! an expression-key twin at 1, on held segments, on paged ones of 64-row
//! groups, and on frozen ones. Coalescing joins only adjacent segments and
//! keeps the survivors in order, so every visible row keeps its place.
//! Then `AS OF` at the history floor reads across a coalesce exactly what it
//! read before it.

use oltapdb::common::{Row, Value};
use oltapdb::core::{BufferConfig, Database, DbConfig};
use oltapdb::storage::DeltaMainTable;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

#[allow(dead_code)]
mod common;

const TICKS: usize = 200;

/// Floats whose sum depends on the order they are added in.
fn amount(i: i64) -> Value {
    if i % 17 == 0 {
        return Value::Null;
    }
    let mantissa = (i.wrapping_mul(2_654_435_761) % 100_000) as f64 * 0.001;
    Value::Float(mantissa * 10f64.powi((i % 9) as i32 - 3))
}

fn row(id: i64, salt: i64) -> Row {
    Row::new(vec![
        Value::Int(id),
        Value::Int((id + salt) % 7),
        Value::Str(["red", "green", "blue"][((id + salt) % 3) as usize].to_string()),
        amount(id + salt),
    ])
}

/// Fused statements (bare group keys and inputs), then their twin through
/// the pipelines (an expression key).
const FUSED: [&str; 3] = [
    "SELECT g, COUNT(*), SUM(f), AVG(f) FROM m GROUP BY g ORDER BY g",
    "SELECT SUM(f), AVG(f), COUNT(f) FROM m WHERE f > 0.5",
    "SELECT tag, SUM(f), AVG(f) FROM m WHERE g >= 2 GROUP BY tag ORDER BY tag",
];
const PIPELINE: &str = "SELECT g + 0, SUM(f), AVG(f) FROM m GROUP BY g + 0 ORDER BY g + 0";

fn column(db: &Database) -> Arc<DeltaMainTable> {
    Arc::clone(db.table("m").unwrap().columns().unwrap())
}

#[test]
fn float_sums_over_a_coalesced_table_keep_their_bits() {
    for storage in ["held", "paged", "frozen"] {
        let config = || DbConfig {
            buffer: (storage == "paged").then_some(BufferConfig {
                pool_bytes: u64::MAX,
                page_rows: 64,
                page_root: None,
            }),
            ..DbConfig::default()
        };
        let (subject, twin) = (
            Database::with_config(config()).unwrap(),
            Database::with_config(config()).unwrap(),
        );
        for db in [&subject, &twin] {
            db.execute(
                "CREATE TABLE m (id BIGINT PRIMARY KEY, g BIGINT, tag TEXT, f DOUBLE) \
                 USING FORMAT COLUMN",
            )
            .unwrap();
        }
        let mut rng = StdRng::seed_from_u64(0x0C0A_1E5C);
        let mut keys: Vec<i64> = Vec::new();
        let mut next_id = 0i64;
        for tick in 0..TICKS {
            // One transaction of inserts, updates and deletes, the same on
            // both databases.
            let mut ops: Vec<(u32, i64)> = Vec::new();
            for _ in 0..20 {
                let op = rng.gen_range(0..10u32);
                if op < 4 || keys.is_empty() {
                    ops.push((0, next_id));
                    keys.push(next_id);
                    next_id += 1;
                    continue;
                }
                let at = rng.gen_range(0..keys.len());
                let id = keys[at];
                if ops.iter().any(|&(_, k)| k == id) {
                    continue;
                }
                if op < 8 {
                    ops.push((1, id));
                } else {
                    ops.push((2, id));
                    keys.swap_remove(at);
                }
            }
            for db in [&subject, &twin] {
                let handle = db.table("m").unwrap();
                let txn = db.txn_manager().begin();
                for &(op, id) in &ops {
                    let key = Row::new(vec![Value::Int(id)]);
                    match op {
                        0 => handle.insert(&txn, row(id, 0)).unwrap(),
                        1 => handle.update(&txn, &key, row(id, tick as i64 + 1)).unwrap(),
                        _ => handle.delete(&txn, &key).unwrap(),
                    }
                }
                txn.commit().unwrap();
                if storage == "frozen" && tick % 20 == 19 {
                    db.freeze_all(true).unwrap();
                }
            }
            subject.maintenance();
            column(&twin)
                .merge(twin.txn_manager().gc_watermark())
                .unwrap();

            if tick % 20 != 19 {
                continue;
            }
            let tag = format!("{storage} tick {tick}");
            for workers in [1, 4] {
                subject.set_parallelism(workers);
                twin.set_parallelism(workers);
                let statements = FUSED.iter().chain((workers == 1).then_some(&PIPELINE));
                for sql in statements {
                    let (got, want) = (subject.query(sql).unwrap(), twin.query(sql).unwrap());
                    assert!(!want.is_empty(), "{tag}: `{sql}` is vacuous");
                    assert!(
                        common::same_rows(&got, &want),
                        "{tag} workers={workers} `{sql}`:\n got  {got:?}\n want {want:?}"
                    );
                }
            }
            let (coalesced, merged) = (column(&subject).sizes(), column(&twin).sizes());
            assert!(
                coalesced.segments <= 20 && merged.segments > coalesced.segments,
                "{tag}: {coalesced:?} against {merged:?}"
            );
            assert!(coalesced.main_rows <= 2 * (coalesced.main_rows - coalesced.main_dead_rows));
        }
    }
}

/// A pass whose watermark a reader pins at `T` makes `T` the history floor
/// and coalesces under it — dropping the rows deleted before `T`, carrying
/// the stamps of the deletes after it. `AS OF T` reads what it read before
/// the pass, rows and float sums bit for bit; below `T` is refused.
#[test]
fn as_of_at_the_floor_reads_the_same_across_a_coalesce() {
    let db = Database::new();
    db.execute(
        "CREATE TABLE m (id BIGINT PRIMARY KEY, g BIGINT, tag TEXT, f DOUBLE) USING FORMAT COLUMN",
    )
    .unwrap();
    let handle = db.table("m").unwrap();
    let key = |id: i64| Row::new(vec![Value::Int(id)]);
    // Two segments, the second under half the first: no run yet. (A scan
    // before each pass keeps them hot: a segment cold for two passes
    // freezes, and frozen and unfrozen segments do not share a run.)
    for ids in [0..300, 300..400] {
        let txn = db.txn_manager().begin();
        for id in ids {
            handle.insert(&txn, row(id, 0)).unwrap();
        }
        txn.commit().unwrap();
        db.query("SELECT COUNT(*) FROM m").unwrap();
        db.maintenance();
    }
    assert_eq!(column(&db).sizes().segments, 2);
    // A third of the first dies: at most twice the second live, a run.
    let txn = db.txn_manager().begin();
    for id in (0..300).step_by(3) {
        handle.delete(&txn, &key(id)).unwrap();
    }
    txn.commit().unwrap();

    let pin = db.txn_manager().begin();
    let at = pin.begin_ts();
    let rows = |ts: u64| format!("SELECT id, g, tag, f FROM m AS OF {ts} ORDER BY id");
    let sums =
        |ts: u64| format!("SELECT g, SUM(f), AVG(f) FROM m AS OF {ts} GROUP BY g ORDER BY g");
    let recorded = (db.query(&rows(at)).unwrap(), db.query(&sums(at)).unwrap());
    assert_eq!(recorded.0.len(), 300);

    // After the pin: new versions of stored rows, and deletes.
    let txn = db.txn_manager().begin();
    for id in (1..400).step_by(5).filter(|id| id % 3 != 0) {
        handle.update(&txn, &key(id), row(id, 3)).unwrap();
    }
    for id in (2..400).step_by(7).filter(|id| id % 3 != 0 && id % 5 != 1) {
        handle.delete(&txn, &key(id)).unwrap();
    }
    txn.commit().unwrap();

    db.query("SELECT COUNT(*) FROM m").unwrap();
    let stats = db.maintenance();
    assert_eq!(stats.watermark, at, "the pin holds the watermark");
    assert_eq!(db.history_floor(), at);
    let note = &stats.notes.iter().find(|(t, _)| t == "m").unwrap().1;
    assert!(
        note.contains("coalesced 1 runs (2 -> 1 segments, 100 rows dropped)"),
        "{note}"
    );
    let after = (db.query(&rows(at)).unwrap(), db.query(&sums(at)).unwrap());
    assert!(common::same_rows(&after.0, &recorded.0));
    assert!(
        common::same_rows(&after.1, &recorded.1),
        "{:?}\n{:?}",
        after.1,
        recorded.1
    );
    assert!(
        db.query(&rows(at - 1)).is_err(),
        "a read below the floor was answered"
    );
    pin.commit().unwrap();
}
