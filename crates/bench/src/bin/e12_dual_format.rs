//! E12 — Dual format: the cost of keeping both formats and the gain from
//! routing each workload to its format.
//!
//! Claim (tutorial §3, Oracle DBIM \[22, 27\]): maintaining a columnar copy
//! next to the row store costs a modest constant on DML, while analytic
//! scans gain integer factors over the row format — and both formats stay
//! transactionally consistent. Expected shape: dual DML ≈ row DML minus a
//! small tax; dual analytic scan ≫ row scan; both paths give one answer.
//!
//! The dual table's columnar side is a delta + main table written beside
//! the row store, so its DML tax is a second write.
//!
//! Gated: `dual_analytic_over_row_scan`, a filtered aggregate's time over
//! the dual table's row path over its time over the columnar side (merged
//! segments plus a fresh 1 % tail in the delta), best of nine each within
//! one run. The DML tax, insert and point update timed once each against a
//! row-only table, is recorded and not gated (`row_over_dual_*`). Recorded
//! in `results/BENCH_dual_format.json`; `--gate` judges a run against it
//! (`harness::Report`).

use oltap_bench::harness::{best, scaled, time, Report};
use oltap_common::ids::TxnId;
use oltap_common::{row, Row, Value};
use oltap_common::{DataType, Field, Schema};
use oltap_core::{TableFormat, TableHandle};
use oltap_storage::{CmpOp, RowStore, ScanPredicate};
use oltap_txn::TransactionManager;
use std::sync::Arc;

const NOBODY: TxnId = TxnId(u64::MAX - 13);

fn schema() -> Arc<Schema> {
    Arc::new(
        Schema::with_primary_key(
            vec![
                Field::not_null("id", DataType::Int64),
                Field::new("region", DataType::Int64),
                Field::new("amount", DataType::Int64),
            ],
            &["id"],
        )
        .unwrap(),
    )
}

fn main() {
    // 400 000 rows at least: the columnar side's scan takes ≈ 2 ms there.
    let n = scaled(400_000).max(400_000);
    let updates = scaled(50_000);

    let mgr = Arc::new(TransactionManager::new());
    let row_table = RowStore::new(schema());
    let dual = TableHandle::create(schema(), TableFormat::Dual).unwrap();

    // DML cost: inserts.
    let rows: Vec<Row> = (0..n)
        .map(|i| row![i as i64, (i % 16) as i64, ((i * 31) % 1000) as i64])
        .collect();
    let (_, row_ins) = time(|| {
        for chunk in rows.chunks(10_000) {
            let tx = mgr.begin();
            for r in chunk {
                row_table.insert(&tx, r.clone()).unwrap();
            }
            tx.commit().unwrap();
        }
    });
    let (_, dual_ins) = time(|| {
        for chunk in rows.chunks(10_000) {
            let tx = mgr.begin();
            for r in chunk {
                dual.insert(&tx, r.clone()).unwrap();
            }
            tx.commit().unwrap();
        }
    });

    // Populate the columnar side: one maintenance tick merges its delta.
    dual.maintain(mgr.gc_watermark()).unwrap();

    // DML cost: point updates of merged rows (the columnar side stamps the
    // segment row and puts the new version in its delta). Both tables
    // update the same keys.
    let update_key = |i: usize| ((i * 7919) % n) as i64;
    let (_, row_upd) = time(|| {
        for i in 0..updates {
            let tx = mgr.begin();
            let id = update_key(i);
            row_table
                .update(&tx, &row![id], row![id, (i % 16) as i64, 1i64])
                .unwrap();
            tx.commit().unwrap();
        }
    });
    let (_, dual_upd) = time(|| {
        for i in 0..updates {
            let tx = mgr.begin();
            let id = update_key(i);
            dual.update(&tx, &row![id], row![id, (i % 16) as i64, 1i64])
                .unwrap();
            tx.commit().unwrap();
        }
    });

    // Steady state for the scan comparison: the maintenance daemon would
    // have merged by now; keep a small fresh tail (1% of rows) in the
    // delta so the scan reads both the segments and the delta.
    dual.maintain(mgr.gc_watermark()).unwrap();
    let fresh_tail = n / 100;
    for i in 0..fresh_tail {
        let tx = mgr.begin();
        let id = ((i * 6151) % n) as i64;
        dual.update(&tx, &row![id], row![id, (i % 16) as i64, 2i64])
            .unwrap();
        tx.commit().unwrap();
    }

    // Analytic gain: filtered aggregate, row path vs columnar side.
    let pred = ScanPredicate::single(1, CmpOp::Eq, Value::Int(3));
    let read_ts = mgr.now();
    let sum_of = |batches: Vec<oltap_common::Batch>| -> (usize, i64) {
        let mut rows = 0usize;
        let mut sum = 0i64;
        for b in batches {
            rows += b.len();
            sum += b.column(1).as_i64().unwrap().iter().sum::<i64>();
        }
        (rows, sum)
    };
    let scan_oltp = || dual.rows().unwrap().scan(&[0, 2], &pred, read_ts, NOBODY, 4096).unwrap();
    let scan_columns = || dual.scan(&[0, 2], &pred, read_ts, NOBODY, 4096).unwrap();
    let (row_res, row_scan) = best(9, || sum_of(scan_oltp()));
    let (col_res, col_scan) = best(9, || sum_of(scan_columns()));
    assert_eq!(row_res, col_res, "formats disagree!");

    let mut report = Report::new("e12_dual_format");
    report.cell(
        "dual_analytic_over_row_scan",
        row_scan / col_scan,
        true,
        &[
            ("row_secs", row_scan),
            ("columnar_secs", col_scan),
            ("rows", n as f64),
            ("delta_rows", dual.columns().unwrap().sizes().delta_rows as f64),
        ],
    );
    let insert = [("row_secs", row_ins), ("dual_secs", dual_ins), ("rows", n as f64)];
    report.cell("row_over_dual_insert", row_ins / dual_ins, false, &insert);
    let update = [("row_secs", row_upd), ("dual_secs", dual_upd), ("rows", updates as f64)];
    report.cell("row_over_dual_update", row_upd / dual_upd, false, &update);
    report.finish("dual_format");
}
