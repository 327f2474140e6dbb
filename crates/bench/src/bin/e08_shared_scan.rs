//! E8 — Shared scans: one circulating scan answers many concurrent queries.
//!
//! Claim (tutorial §4, QPipe \[12\] / Crescando clock scan \[39\]): with a
//! shared circulating scan, the work of a scan query stops depending on
//! how many run at once — everyone rides the same revolution — where each
//! independently executed scan pays a full pass of its own. Expected shape:
//! N concurrent queries cost the clock scan one revolution, N times fewer
//! rows swept per answer than independent scans.
//!
//! Gated: `independent_over_clock_rows_swept_per_query` at N = 64, the rows
//! an independent scan sweeps for its answer (the whole table: each bucket
//! is in every row group, so nothing prunes) over the rows the clock scan
//! sweeps per answer — a count. It falls if attached queries stop sharing
//! revolutions. Recorded in `results/BENCH_shared_scan.json`; `--gate`
//! judges a run against it (`harness::Report`). The wall-clock side of the
//! claim does not hold in memory (EXPERIMENTS.md E8) and is not measured.

use oltap_bench::baselines::shared_scan::{run_independent, ClockScan, ScanQuery};
use oltap_bench::harness::{scaled, Report};
use oltap_common::{row, Row, Value};
use oltap_common::{DataType, Field, Schema};
use oltap_storage::{CmpOp, DeltaMainTable, ScanPredicate};
use oltap_txn::TransactionManager;
use std::sync::Arc;

const QUERIES: usize = 64;

fn bucket_query(q: usize) -> ScanQuery {
    ScanQuery {
        predicate: ScanPredicate::single(1, CmpOp::Eq, Value::Int(q as i64)),
        agg_column: 2,
    }
}

fn main() {
    let n = scaled(1_000_000);
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
    let mgr = TransactionManager::new();
    let table = Arc::new(DeltaMainTable::new(schema));
    let rows: Vec<Row> = (0..n)
        .map(|i| row![i as i64, (i % QUERIES) as i64, 1i64])
        .collect();
    table.bulk_load(&rows).unwrap();
    drop(rows);

    let queries: Vec<ScanQuery> = (0..QUERIES).map(bucket_query).collect();
    let clock = ClockScan::start(Arc::clone(&table), mgr.now());
    let receivers = clock.submit_all(queries.iter().cloned());
    let clock_answers: Vec<_> = receivers.iter().map(|rx| rx.recv().unwrap()).collect();
    let swept = clock.rows_swept();
    let independent = run_independent(&table, mgr.now(), &queries).unwrap();
    assert_eq!(clock_answers, independent, "clock and independent answers diverged");
    for (q, a) in independent.iter().enumerate() {
        assert_eq!(a.count as usize, n / QUERIES + usize::from(q < n % QUERIES));
    }

    let mut report = Report::new("e08_shared_scan");
    report.cell(
        "independent_over_clock_rows_swept_per_query",
        n as f64 / (swept as f64 / QUERIES as f64),
        true,
        &[
            ("queries", QUERIES as f64),
            ("rows", n as f64),
            ("clock_rows_swept", swept as f64),
        ],
    );
    report.finish("shared_scan");
}
