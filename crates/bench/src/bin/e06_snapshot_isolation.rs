//! E6 — Snapshot isolation under write load: analytic readers never block
//! and see a stable view.
//!
//! Claim (tutorial §4, HyPer \[19\] and the MVCC systems of §3): analytic
//! queries run against a consistent snapshot while OLTP updates proceed —
//! no blocking either way. Expected shape: reader latency roughly flat as
//! the update rate grows; every repeated scan inside one transaction
//! returns the identical aggregate.

use oltap_bench::harness::{scaled, time, TextTable};
use oltap_common::{row, Row};
use oltap_common::{DataType, Field, Schema};
use oltap_core::TableHandle;
use oltap_storage::{DeltaMainTable, ScanPredicate};
use oltap_txn::TransactionManager;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;


fn main() {
    let n = scaled(400_000);
    println!("E6: analytic snapshots under concurrent updates ({n} rows)");

    let schema = Arc::new(
        Schema::with_primary_key(
            vec![
                Field::not_null("id", DataType::Int64),
                Field::new("v", DataType::Int64),
            ],
            &["id"],
        )
        .unwrap(),
    );

    let mut t = TextTable::new(&[
        "writer threads",
        "updates/s",
        "scan p50 ms",
        "scan max ms",
        "snapshot stable",
        "versions GCed",
    ]);

    for writers in [0usize, 1, 2, 4] {
        let mgr = Arc::new(TransactionManager::new());
        let table = Arc::new(DeltaMainTable::new(Arc::clone(&schema)));
        table
            .bulk_load(&(0..n).map(|i| row![i as i64, 1i64]).collect::<Vec<Row>>())
            .unwrap();

        let stop = Arc::new(AtomicBool::new(false));
        let updates = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for w in 0..writers {
            let mgr = Arc::clone(&mgr);
            let table = Arc::clone(&table);
            let stop = Arc::clone(&stop);
            let updates = Arc::clone(&updates);
            handles.push(std::thread::spawn(move || {
                let mut i = w as i64;
                while !stop.load(Ordering::Relaxed) {
                    let tx = mgr.begin();
                    let key = row![i % n as i64];
                    if table.update(&tx, &key, row![i % n as i64, 2i64]).is_ok() {
                        let _ = tx.commit();
                        updates.fetch_add(1, Ordering::Relaxed);
                    }
                    i += writers.max(1) as i64;
                }
            }));
        }

        // Reader: one long transaction scanning repeatedly; the sum of the
        // snapshot must never change.
        let reader = mgr.begin();
        let scanned = TableHandle::Column(Arc::clone(&table));
        let mut latencies = Vec::new();
        let mut sums = Vec::new();
        let (_, wall) = time(|| {
            for _ in 0..15 {
                let (sum, secs) = time(|| {
                    let mut s = 0i64;
                    for b in scanned
                        .scan(&[1], &ScanPredicate::all(), reader.begin_ts(), reader.id(), 4096)
                        .unwrap()
                    {
                        s += b.column(0).as_i64().unwrap().iter().sum::<i64>();
                    }
                    s
                });
                latencies.push(secs * 1000.0);
                sums.push(sum);
            }
        });
        reader.commit().unwrap();
        stop.store(true, Ordering::SeqCst);
        for h in handles {
            h.join().unwrap();
        }

        let stable = sums.windows(2).all(|w| w[0] == w[1]);
        latencies.sort_by(f64::total_cmp);
        let p50 = latencies[latencies.len() / 2];
        let max = latencies.last().copied().unwrap();
        let gced = table.gc(mgr.gc_watermark());
        t.row(&[
            writers.to_string(),
            format!("{:.0}", updates.load(Ordering::Relaxed) as f64 / wall),
            format!("{p50:.1}"),
            format!("{max:.1}"),
            stable.to_string(),
            gced.to_string(),
        ]);
        assert!(stable, "snapshot moved under the reader!");
    }
    t.print("E6: reader latency and stability vs writer load");
    println!("expected shape: 'snapshot stable' always true; p50 roughly flat in writers");
}
