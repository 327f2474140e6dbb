//! E5 — Delta + merge: what a merge takes off every later scan.
//!
//! Claim (tutorial §4, LSM/differential files \[29, 16\]): the writable
//! row-format delta absorbs ingest fast, but every scan walks it; merging
//! into the compressed main leaves a scan only the rows ingested since.
//! Expected shape: after eight steps of ingest and one merge, a scan walks
//! one step's rows in the delta instead of eight.
//!
//! Gated: `delta_rows_walked_before_over_after_merge`, the delta rows a
//! scan walks before the merge over those it walks after the merge and one
//! further step of ingest — a count, so the host cancels out; it falls if a
//! merge leaves rows or dead chains behind. The scan times ride along as
//! detail. Recorded in `results/BENCH_delta_merge.json`; `--gate` judges a
//! run against it (`harness::Report`).

use oltap_bench::harness::{best, scaled, Report};
use oltap_bench::workloads::TelemetryGen;
use oltap_common::ids::TxnId;
use oltap_common::{DataType, Field, Row, Schema};
use oltap_core::{TableFormat, TableHandle};
use oltap_storage::ScanPredicate;
use oltap_txn::TransactionManager;
use std::sync::Arc;

const NOBODY: TxnId = TxnId(u64::MAX - 11);

fn telemetry_schema() -> Arc<Schema> {
    Arc::new(
        Schema::with_primary_key(
            vec![
                Field::not_null("reading_id", DataType::Int64),
                Field::new("host", DataType::Utf8),
                Field::new("metric", DataType::Utf8),
                Field::new("ts", DataType::Timestamp),
                Field::new("value", DataType::Float64),
                Field::new("status", DataType::Int64),
            ],
            &["reading_id"],
        )
        .unwrap(),
    )
}

fn main() {
    let step = scaled(100_000);
    let steps = 8;
    let mgr = Arc::new(TransactionManager::new());
    let scanned = TableHandle::create(telemetry_schema(), TableFormat::Column).unwrap();
    let table = scanned.columns().unwrap();
    let mut gen = TelemetryGen::new(200, 8, 5);
    let ingest = |rows: Vec<Row>| {
        for chunk in rows.chunks(5_000) {
            let tx = mgr.begin();
            for r in chunk {
                table.insert(&tx, r.clone()).unwrap();
            }
            tx.commit().unwrap();
        }
    };
    // The delta rows every scan walks, and the scan's time.
    let walk = |rows: usize| {
        let scan = || scanned.scan(&[0, 5], &ScanPredicate::all(), mgr.now(), NOBODY, 4096);
        let (batches, secs) = best(5, || scan().unwrap());
        assert_eq!(batches.iter().map(|b| b.len()).sum::<usize>(), rows);
        (table.sizes().delta_rows, secs)
    };

    for _ in 0..steps {
        ingest(gen.batch(step));
    }
    let (before, before_s) = walk(steps * step);
    let merged = table.merge(mgr.gc_watermark()).unwrap().rows_merged;
    ingest(gen.batch(step));
    let (after, after_s) = walk((steps + 1) * step);

    let mut report = Report::new("e05_delta_merge");
    report.cell(
        "delta_rows_walked_before_over_after_merge",
        before as f64 / after as f64,
        true,
        &[
            ("delta_rows_before", before as f64),
            ("delta_rows_after", after as f64),
            ("rows_merged", merged as f64),
            ("scan_secs_before", before_s),
            ("scan_secs_after", after_s),
        ],
    );
    report.finish("delta_merge");
}
