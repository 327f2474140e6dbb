//! E12 — Dual format: the cost of keeping both formats and the gain from
//! routing each workload to its format.
//!
//! Claim (tutorial §3, Oracle DBIM \[22, 27\]): maintaining a columnar copy
//! next to the row store costs a modest constant on DML, while analytic
//! scans gain integer factors over the row format — and both formats stay
//! transactionally consistent. Expected shape: dual DML ≈ row DML minus a
//! small tax; dual analytic scan ≫ row scan; consistency check passes.
//!
//! The dual table's columnar side is a delta + main table written beside
//! the row store, so its DML tax is a second write, and maintenance is the
//! column format's: E12c times the ticks on a table nobody changes.

use oltap_bench::harness::{rate, scaled, time, TextTable};
use oltap_common::ids::TxnId;
use oltap_common::{row, Row, Value};
use oltap_common::{DataType, Field, Schema};
use oltap_core::TableHandle;
use oltap_storage::{CmpOp, DualFormatTable, RowStore, ScanPredicate};
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
    let n = scaled(400_000);
    let updates = scaled(50_000);
    println!("E12: dual-format maintenance cost and routing gain ({n} rows)");

    let mgr = Arc::new(TransactionManager::new());
    let row_table = RowStore::new(schema());
    let dual = Arc::new(DualFormatTable::new(schema()).unwrap());
    let engine = TableHandle::Dual(Arc::clone(&dual));

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
    let (_, pop_s) = time(|| engine.maintain(mgr.gc_watermark()).unwrap());

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
    engine.maintain(mgr.gc_watermark()).unwrap();
    let fresh_tail = n / 100;
    for i in 0..fresh_tail {
        let tx = mgr.begin();
        let id = ((i * 6151) % n) as i64;
        dual.update(&tx, &row![id], row![id, (i % 16) as i64, 2i64])
            .unwrap();
        tx.commit().unwrap();
    }

    let mut t = TextTable::new(&["operation", "row-only", "dual-format", "dual tax"]);
    t.row(&[
        "insert".into(),
        rate(n, row_ins),
        rate(n, dual_ins),
        format!("{:.0}%", 100.0 * (dual_ins - row_ins) / row_ins),
    ]);
    t.row(&[
        "point update".into(),
        rate(updates, row_upd),
        rate(updates, dual_upd),
        format!("{:.0}%", 100.0 * (dual_upd - row_upd) / row_upd),
    ]);
    t.print("E12a: DML cost of maintaining both formats");
    println!("(first maintenance tick, merging every row into the columnar side: {pop_s:.2}s)");

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
    // Warm both paths once, then time.
    let _ = sum_of(dual.scan_oltp(&[0, 2], &pred, read_ts, NOBODY, 4096).unwrap());
    let _ = sum_of(engine.scan(&[0, 2], &pred, read_ts, NOBODY, 4096).unwrap());
    let (row_res, row_scan) = time(|| {
        sum_of(
            dual.scan_oltp(&[0, 2], &pred, read_ts, NOBODY, 4096)
                .unwrap(),
        )
    });
    let (col_res, col_scan) = time(|| {
        sum_of(
            engine.scan(&[0, 2], &pred, read_ts, NOBODY, 4096)
                .unwrap(),
        )
    });
    assert_eq!(row_res, col_res, "formats disagree!");

    let mut t2 = TextTable::new(&["access path", "scan_s", "speedup"]);
    t2.row(&["row format".into(), format!("{row_scan:.3}"), "1.0x".into()]);
    t2.row(&[
        "columnar side (segments + delta)".into(),
        format!("{col_scan:.3}"),
        format!("{:.1}x", row_scan / col_scan),
    ]);
    t2.print("E12b: analytic scan, row path vs dual's columnar path");
    println!(
        "consistency: both paths returned rows={} sum={} — identical at the same snapshot",
        row_res.0, row_res.1
    );
    let sizes = dual.columns().sizes();
    println!(
        "columnar side at scan time: {} segments, {} main rows ({} dead), {} delta keys ({}% of rows)",
        sizes.segments,
        sizes.main_rows,
        sizes.main_dead_rows,
        sizes.delta_rows,
        100 * sizes.delta_rows / n
    );

    // Maintenance on a table nobody changes, a tick split into its two
    // halves: the columnar side's pass (the first merges the fresh tail;
    // once nobody has scanned for two ticks the segments freeze; after
    // that there is nothing to merge, coalesce or freeze) and the row
    // store's version GC, which walks every key.
    let mut t3 = TextTable::new(&["tick", "columnar side ms", "row-store gc ms", "segments"]);
    for tick in 1..=8 {
        let watermark = mgr.gc_watermark();
        let faults = oltap_common::fault::FaultInjector::disabled();
        let (_, columns_s) = time(|| dual.columns().maintain(watermark, &faults).unwrap());
        let (_, gc_s) = time(|| dual.gc(watermark));
        t3.row(&[
            tick.to_string(),
            format!("{:.1}", columns_s * 1e3),
            format!("{:.1}", gc_s * 1e3),
            dual.columns().sizes().segments.to_string(),
        ]);
    }
    t3.print("E12c: maintenance ticks on the unchanged table after the scans");
    println!("expected shape: small DML tax; multi-x analytic speedup; consistency holds");
}
