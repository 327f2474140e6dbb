//! E5 — Delta + merge: ingest speed vs. scan speed, and what merge buys.
//!
//! Claim (tutorial §4, LSM/differential files \[29, 16\]): the writable
//! row-format delta absorbs ingest fast, but scans degrade as it grows;
//! merging into the compressed main restores scan speed. Expected shape:
//! scan latency climbs with delta size and drops sharply after merge;
//! merged (compressed) bytes ≪ delta bytes.

use oltap_bench::harness::{bytes, rate, scaled, time, TextTable};
use oltap_bench::workloads::TelemetryGen;
use oltap_common::ids::TxnId;
use oltap_common::{DataType, Field, Schema};
use oltap_core::TableHandle;
use oltap_storage::{DeltaMainTable, ScanPredicate};
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

fn scan_ms(t: &Arc<DeltaMainTable>, read_ts: u64) -> f64 {
    let pred = ScanPredicate::all();
    let t = TableHandle::Column(Arc::clone(t));
    let (_n, secs) = time(|| {
        let mut rows = 0usize;
        for b in t.scan(&[0, 5], &pred, read_ts, NOBODY, 4096).unwrap() {
            rows += b.len();
        }
        rows
    });
    secs * 1000.0
}

fn main() {
    let step = scaled(100_000);
    let steps = 8;
    println!("E5: delta growth vs scan latency ({} rows/step, {steps} steps)", step);

    let mgr = Arc::new(TransactionManager::new());
    let table = Arc::new(DeltaMainTable::new(telemetry_schema()));
    let mut gen = TelemetryGen::new(200, 8, 5);

    let mut t = TextTable::new(&[
        "step",
        "delta_rows",
        "main_rows",
        "scan_ms (no merge)",
    ]);
    // Phase 1: ingest without merging; scans slow down with delta size.
    for s in 1..=steps {
        let rows = gen.batch(step);
        let (_, _ingest) = time(|| {
            for chunk in rows.chunks(5_000) {
                let tx = mgr.begin();
                for r in chunk {
                    table.insert(&tx, r.clone()).unwrap();
                }
                tx.commit().unwrap();
            }
        });
        let sizes = table.sizes();
        t.row(&[
            s.to_string(),
            sizes.delta_rows.to_string(),
            sizes.main_rows.to_string(),
            format!("{:.1}", scan_ms(&table, mgr.now())),
        ]);
    }
    t.print("E5a: scan latency as the delta grows (merge disabled)");

    // Phase 2: merge and re-measure.
    let before = scan_ms(&table, mgr.now());
    let (stats, merge_s) = time(|| table.merge(mgr.gc_watermark()).unwrap());
    let after = scan_ms(&table, mgr.now());
    let sizes = table.sizes();
    let mut t2 = TextTable::new(&["metric", "value"]);
    t2.row(&["rows merged".into(), stats.rows_merged.to_string()]);
    t2.row(&["merge time".into(), format!("{merge_s:.2} s")]);
    t2.row(&["scan before merge".into(), format!("{before:.1} ms")]);
    t2.row(&["scan after merge".into(), format!("{after:.1} ms")]);
    t2.row(&[
        "speedup".into(),
        format!("{:.1}x", before / after.max(1e-9)),
    ]);
    t2.row(&["compressed main".into(), bytes(sizes.main_bytes)]);
    t2.print("E5b: effect of one full merge");

    // Phase 3: steady-state policy sweep — merge every k steps.
    let mut t3 = TextTable::new(&[
        "merge every",
        "ingest rate",
        "avg scan_ms",
        "final delta",
    ]);
    for policy in [1usize, 4, usize::MAX] {
        let mgr = Arc::new(TransactionManager::new());
        let table = Arc::new(DeltaMainTable::new(telemetry_schema()));
        let mut gen = TelemetryGen::new(200, 8, 6);
        let mut scan_total = 0.0;
        let mut ingest_total = 0.0;
        for s in 1..=steps {
            let rows = gen.batch(step);
            let (_, ing) = time(|| {
                for chunk in rows.chunks(5_000) {
                    let tx = mgr.begin();
                    for r in chunk {
                        table.insert(&tx, r.clone()).unwrap();
                    }
                    tx.commit().unwrap();
                }
            });
            ingest_total += ing;
            if policy != usize::MAX && s % policy == 0 {
                let (_, m) = time(|| table.merge(mgr.gc_watermark()).unwrap());
                ingest_total += m; // merge steals ingest time
            }
            scan_total += scan_ms(&table, mgr.now());
        }
        t3.row(&[
            if policy == usize::MAX {
                "never".into()
            } else {
                format!("{policy} steps")
            },
            rate(step * steps, ingest_total),
            format!("{:.1}", scan_total / steps as f64),
            table.sizes().delta_rows.to_string(),
        ]);
    }
    t3.print("E5c: merge-policy sweep");
    println!("expected shape: E5a latency grows with delta; E5b speedup > 1; \
              E5c frequent merges trade ingest rate for scan latency");
}
