//! E8 — Shared scans: predictable per-query latency under concurrency.
//!
//! Claim (tutorial §4, QPipe \[12\] / Crescando clock scan \[39\]): with a
//! shared circulating scan, per-query latency stays roughly constant as
//! concurrent scan queries are added (everyone rides the same revolution),
//! where independently executed scans degrade as they contend for the
//! machine. Expected shape: independent mean latency grows with N; clock
//! scan latency stays ~flat (≈ one revolution), so the ratio grows with N.
//!
//! A second table compares the *batched* multi-query evaluation against
//! per-query storage scans with full pushdown — the honest baseline: in
//! memory, pushdown scans are excellent, and sharing pays off through
//! better aggregate cost as query count grows.

use oltap_bench::harness::{scaled, time, TextTable};
use oltap_common::{row, Row, Value};
use oltap_common::{DataType, Field, Schema};
use oltap_bench::baselines::shared_scan::{
    run_independent, run_shared_batch, ClockScan, ScanQuery,
};
use oltap_storage::{CmpOp, DeltaMainTable, ScanPredicate};
use oltap_txn::TransactionManager;
use std::sync::Arc;
use std::time::Instant;


const BUCKETS: usize = 64;

fn bucket_query(q: usize) -> ScanQuery {
    ScanQuery {
        predicate: ScanPredicate::single(1, CmpOp::Eq, Value::Int((q % BUCKETS) as i64)),
        agg_column: 2,
    }
}

fn expected_count(n: usize, bucket: usize) -> u64 {
    (n / BUCKETS + usize::from(bucket < n % BUCKETS)) as u64
}

fn main() {
    let n = scaled(1_000_000);
    println!("E8: shared vs independent scans over {n} rows");

    let schema = Arc::new(
        Schema::with_primary_key(
            vec![
                Field::not_null("id", DataType::Int64),
                Field::new("bucket", DataType::Int64),
                Field::new("v", DataType::Int64),
            ],
            &["id"],
        )
        .unwrap(),
    );
    let mgr = Arc::new(TransactionManager::new());
    let table = Arc::new(DeltaMainTable::new(schema));
    let rows: Vec<Row> = (0..n)
        .map(|i| row![i as i64, (i % BUCKETS) as i64, 1i64])
        .collect();
    table.bulk_load(&rows).unwrap();
    drop(rows);

    // Part A: aggregate cost, one thread — batched multi-query evaluation
    // vs per-query pushdown scans.
    let mut t = TextTable::new(&[
        "queries",
        "independent_s",
        "shared_s",
        "aggregate speedup",
    ]);
    for k in [1usize, 4, 16, 64] {
        let queries: Vec<ScanQuery> = (0..k).map(bucket_query).collect();
        let (ri, indep_s) = time(|| run_independent(&table, mgr.now(), &queries).unwrap());
        let (rs, shared_s) = time(|| run_shared_batch(&table, mgr.now(), &queries).unwrap());
        assert_eq!(ri, rs, "shared and independent answers diverged");
        for (q, r) in rs.iter().enumerate() {
            assert_eq!(r.count, expected_count(n, q % BUCKETS));
        }
        t.row(&[
            k.to_string(),
            format!("{indep_s:.3}"),
            format!("{shared_s:.3}"),
            format!("{:.2}x", indep_s / shared_s),
        ]);
    }
    t.print("E8a: aggregate cost of N queries (single thread)");

    // Part B: per-query latency under concurrency — the predictability
    // claim. N client threads each need one answer, now.
    let mut t2 = TextTable::new(&[
        "concurrent queries",
        "independent mean ms",
        "independent max ms",
        "clock mean ms",
        "clock max ms",
    ]);
    for k in [1usize, 8, 32, 64] {
        // Independent: every client scans for itself, all at once.
        let lat_indep: Vec<f64> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..k)
                .map(|q| {
                    let table = Arc::clone(&table);
                    let ts = mgr.now();
                    s.spawn(move || {
                        let start = Instant::now();
                        let r = run_independent(&table, ts, &[bucket_query(q)]).unwrap();
                        assert_eq!(r[0].count, expected_count(n, q % BUCKETS));
                        start.elapsed().as_secs_f64() * 1000.0
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });

        // Clock scan: every client attaches to the shared cursor.
        let clock = Arc::new(ClockScan::start(Arc::clone(&table), mgr.now()));
        // Warm the sweeper's snapshot.
        let _ = clock.query(bucket_query(0));
        let lat_clock: Vec<f64> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..k)
                .map(|q| {
                    let clock = Arc::clone(&clock);
                    s.spawn(move || {
                        let start = Instant::now();
                        let r = clock.query(bucket_query(q));
                        assert_eq!(r.count, expected_count(n, q % BUCKETS));
                        start.elapsed().as_secs_f64() * 1000.0
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        drop(clock);

        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        let max = |v: &[f64]| v.iter().copied().fold(0.0, f64::max);
        t2.row(&[
            k.to_string(),
            format!("{:.1}", mean(&lat_indep)),
            format!("{:.1}", max(&lat_indep)),
            format!("{:.1}", mean(&lat_clock)),
            format!("{:.1}", max(&lat_clock)),
        ]);
    }
    t2.print("E8b: per-query latency under concurrency (predictability)");
    println!(
        "expected shape: independent latency grows with concurrency; \
         clock-scan latency stays near one revolution"
    );
}
