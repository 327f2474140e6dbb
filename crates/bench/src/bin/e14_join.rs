//! E14 — Radix-partitioned hash join + Bloom-filter sideways passing.
//!
//! Claim (tutorial §4; HyPer \[28\] / Willhalm et al. \[42\] lineage): a
//! partitioned hash join over flat open-addressing tables beats a
//! `HashMap<Row, Vec<Row>>` join (which allocates a boxed key per probe
//! row), and pushing a Bloom filter + key min/max derived from the build
//! side *into the probe scan* (sideways information passing) wins again
//! when the join is selective — the fact table's non-matching rows are
//! dropped segment-by-segment before the probe ever sees them.
//!
//! Shape on a selective star-schema probe (fact ≫ dim, ~1% match rate):
//! partitioned > legacy on probe throughput, and partitioned+SIP > both,
//! approaching the cost of scanning only the matching fraction.
//!
//! Emits a machine-readable summary to `results/BENCH_join.json`
//! (override with `BENCH_JOIN_OUT`).

use oltap_bench::harness::{rate, scaled, time, TextTable};
use oltap_common::hash::FxHashMap;
use oltap_common::ids::TxnId;
use oltap_common::vector::BATCH_SIZE;
use oltap_common::{row, Batch, Row};
use oltap_core::Database;
use oltap_exec::{
    join_output_schema, probe_batch, CompiledExpr, Expr, JoinTableBuilder, JoinType, ProbeScratch,
};
use oltap_storage::ScanPredicate;

/// Key domain: dim covers every 100th key, so ~1% of fact rows join.
const KEY_DOMAIN: i64 = 100_000;

fn main() {
    let n = scaled(1_000_000);
    let dim_n = (n / 1000).max(10);
    let db = Database::new();
    db.execute(
        "CREATE TABLE fact (id BIGINT PRIMARY KEY, k BIGINT, v BIGINT) USING FORMAT COLUMN",
    )
    .unwrap();
    db.execute("CREATE TABLE dim (k BIGINT PRIMARY KEY, w BIGINT) USING FORMAT COLUMN")
        .unwrap();
    let fact = db.table("fact").unwrap();
    let dim = db.table("dim").unwrap();
    let (_, load_secs) = time(|| {
        let tx = db.txn_manager().begin();
        for i in 0..n {
            // Multiplicative scramble spreads keys over the whole domain.
            let k = ((i as i64).wrapping_mul(2_654_435_761)).rem_euclid(KEY_DOMAIN);
            fact.insert(&tx, row![i as i64, k, (i % 997) as i64]).unwrap();
        }
        for j in 0..dim_n {
            dim.insert(&tx, row![(j as i64 * 100) % KEY_DOMAIN, j as i64])
                .unwrap();
        }
        tx.commit().unwrap();
        db.maintenance();
    });
    println!(
        "E14: {n} fact + {dim_n} dim rows loaded in {load_secs:.2}s ({})",
        rate(n + dim_n, load_secs)
    );

    let me = TxnId(u64::MAX - 40);
    let ts = db.txn_manager().now();
    let fact_schema = fact.schema().clone();
    let dim_schema = dim.schema().clone();
    let out_schema = join_output_schema(&fact_schema, &dim_schema, JoinType::Inner);
    let dim_batches = dim
        .scan(&[0, 1], &ScanPredicate::all(), ts, me, BATCH_SIZE)
        .unwrap();
    let probe_keys = CompiledExpr::list([Expr::col(1)], &fact_schema);
    let reps = 3;

    // Variant 1 — the pre-partitioned join: HashMap<Row, Vec<Row>> build,
    // one boxed key Row allocated per probe row.
    let legacy = |batches: &[Batch]| -> usize {
        let mut table: FxHashMap<Row, Vec<Row>> = FxHashMap::default();
        for b in dim_batches.iter() {
            for r in b.to_rows() {
                table.entry(Row::new(vec![r[0].clone()])).or_default().push(r);
            }
        }
        let mut out = 0usize;
        for b in batches {
            let keys = b.column(1);
            for i in 0..b.len() {
                let key = Row::new(vec![keys.value_at(i)]);
                if let Some(matches) = table.get(&key) {
                    out += matches.len();
                }
            }
        }
        out
    };

    // Variant 2 — radix-partitioned JoinTable, vectorized probe.
    let build_table = || {
        let mut builder = JoinTableBuilder::new(1, dim_schema.len());
        for (i, b) in dim_batches.iter().enumerate() {
            let key_cols = vec![b.column(0).clone()];
            builder.push_batch(&key_cols, b, i).unwrap();
        }
        builder.finish().unwrap()
    };
    let partitioned = |batches: &[Batch]| -> usize {
        let table = build_table();
        let mut scratch = ProbeScratch::new();
        let mut out = 0usize;
        for b in batches {
            if let Some(joined) = probe_batch(
                &table,
                &probe_keys,
                JoinType::Inner,
                &out_schema,
                b,
                &mut scratch,
            )
            .unwrap()
            {
                out += joined.len();
            }
        }
        out
    };

    let scan_plain =
        || fact.scan(&[0, 1, 2], &ScanPredicate::all(), ts, me, BATCH_SIZE).unwrap();
    // Variant 3 — same table, Bloom filter pushed into the scan.
    let scan_sip = || {
        let jf = build_table().filter(vec![1]);
        fact.scan(
            &[0, 1, 2],
            &ScanPredicate::all().with_join(jf),
            ts,
            me,
            BATCH_SIZE,
        )
        .unwrap()
    };

    let mut t = TextTable::new(&["variant", "best secs", "probe throughput", "rows out"]);
    let mut json_series = Vec::new();
    let mut counts = Vec::new();
    let mut baseline = f64::NAN;
    type Variant<'a> = (&'a str, Box<dyn Fn() -> usize + 'a>);
    let variants: Vec<Variant> = vec![
        ("legacy-hashmap", Box::new(|| legacy(&scan_plain()))),
        ("partitioned", Box::new(|| partitioned(&scan_plain()))),
        ("partitioned+sip", Box::new(|| partitioned(&scan_sip()))),
    ];
    for (name, run) in &variants {
        let mut best = f64::INFINITY;
        let mut rows_out = 0usize;
        for _ in 0..reps {
            let (r, secs) = time(run);
            rows_out = r;
            best = best.min(secs);
        }
        if baseline.is_nan() {
            baseline = best;
        }
        counts.push(rows_out);
        let speedup = baseline / best;
        t.row(&[
            name.to_string(),
            format!("{best:.4}"),
            rate(n, best),
            rows_out.to_string(),
        ]);
        json_series.push(format!(
            "{{\"variant\":\"{name}\",\"secs\":{best:.6},\"rows_scanned\":{n},\
             \"rows_out\":{rows_out},\"speedup_vs_legacy\":{speedup:.3}}}"
        ));
    }
    assert!(
        counts.windows(2).all(|w| w[0] == w[1]),
        "variants disagree on join cardinality: {counts:?}"
    );
    t.print("E14: selective star-schema join (fact ≫ dim, ~1% match)");
    println!("expected shape: partitioned > legacy; partitioned+sip > partitioned");

    let out = std::env::var("BENCH_JOIN_OUT")
        .unwrap_or_else(|_| "results/BENCH_join.json".to_string());
    let json = format!(
        "{{\"experiment\":\"e14_join\",\"rows\":{n},\"dim_rows\":{dim_n},\"reps\":{reps},\
         \"series\":[\n  {}\n]}}\n",
        json_series.join(",\n  ")
    );
    if let Some(dir) = std::path::Path::new(&out).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    std::fs::write(&out, &json).expect("write BENCH_join.json");
    println!("wrote {out}");
}
