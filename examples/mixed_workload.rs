//! Mixed OLTP + OLAP on one engine: a miniature CH-benCHmark session.
//!
//! TPC-C-style terminals hammer transactions while CH-style analytic
//! queries run concurrently on the same tables — the defining workload of
//! the paper. Demonstrates snapshot-isolated analytics over live data and
//! the engine's own workload management: every SELECT passes the
//! database's admission controller, which admits streaming reads at once
//! and caps concurrent analytics (tighter while streaming reads are in
//! flight), queueing the rest.
//!
//! ```bash
//! cargo run --release --example mixed_workload
//! ```

use oltap_bench::ch::{ch_queries, load_ch, ChTerminal, LoadSpec, TxnMix};
use oltap_bench::harness::TextTable;
use oltapdb::core::{Database, DbConfig, TableFormat};
use oltapdb::sched::AdmissionConfig;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let db = Database::with_config(DbConfig {
        admission: Some(AdmissionConfig::default()),
        ..DbConfig::default()
    })?;
    let rows = load_ch(
        &db,
        LoadSpec {
            warehouses: 1,
            format: TableFormat::Column,
            seed: 1,
        },
    )?;
    println!("CH-benCHmark loaded: {rows} rows across {} tables", db.table_names().len());
    db.maintenance();

    let stop = Arc::new(AtomicBool::new(false));
    let committed = Arc::new(AtomicU64::new(0));

    // Two OLTP terminals.
    let mut terminals = Vec::new();
    for t in 0..2u64 {
        let db = Arc::clone(&db);
        let stop = Arc::clone(&stop);
        let committed = Arc::clone(&committed);
        terminals.push(std::thread::spawn(move || {
            let mut term = ChTerminal::new(db, 1, 10 + t);
            let mix = TxnMix::default();
            while !stop.load(Ordering::Relaxed) {
                term.run_one(&mix).expect("txn");
            }
            committed.fetch_add(term.stats.committed, Ordering::Relaxed);
            term.stats
        }));
    }

    // Four OLAP streams, each a session of its own, beside the terminals'
    // reads (every one sorts or counts, so each is OLAP too): admission runs
    // at most four analytic statements at once and queues the rest.
    let olap_done = Arc::new(AtomicU64::new(0));
    let streams: Vec<_> = (0..4)
        .map(|k| {
            let mut session = db.session();
            let stop = Arc::clone(&stop);
            let done = Arc::clone(&olap_done);
            std::thread::spawn(move || {
                let queries = ch_queries();
                let mut i = k;
                while !stop.load(Ordering::Relaxed) {
                    if session.execute(queries[i % queries.len()].sql).is_ok() {
                        done.fetch_add(1, Ordering::Relaxed);
                    }
                    i += 1;
                }
            })
        })
        .collect();

    std::thread::sleep(Duration::from_secs(3));
    stop.store(true, Ordering::SeqCst);
    let mut oltp_stats = Vec::new();
    for t in terminals {
        oltp_stats.push(t.join().expect("terminal"));
    }
    for s in streams {
        s.join().expect("olap stream");
    }

    let mut table = TextTable::new(&["metric", "value"]);
    let total_committed: u64 = oltp_stats.iter().map(|s| s.committed).sum();
    let total_aborted: u64 = oltp_stats.iter().map(|s| s.aborted).sum();
    let new_orders: u64 = oltp_stats.iter().map(|s| s.new_orders).sum();
    table.row(&["OLTP committed".into(), total_committed.to_string()]);
    table.row(&["OLTP conflicts/aborts".into(), total_aborted.to_string()]);
    table.row(&["NewOrder txns (tpmC basis)".into(), new_orders.to_string()]);
    table.row(&[
        "mean OLTP latency".into(),
        format!("{:.0} us", oltp_stats.iter().map(|s| s.mean_latency_us()).sum::<f64>() / 2.0),
    ]);
    table.row(&["OLAP queries answered".into(), olap_done.load(Ordering::Relaxed).to_string()]);
    let admission = db.admission().expect("admission is configured").stats();
    // DML never passes admission (transactions do not queue); a SELECT with
    // an aggregate, a join or a sort is OLAP, the terminals' read-only
    // transactions' included.
    table.row(&[
        "SELECTs admitted as OLTP / OLAP".into(),
        format!("{} / {}", admission.oltp_admitted, admission.olap_admitted),
    ]);
    table.row(&["OLAP queued for a slot".into(), admission.olap_queued.to_string()]);
    table.row(&["OLAP timed out queueing".into(), admission.olap_timeouts.to_string()]);
    table.row(&["decisions under the throttle".into(), admission.throttled_decisions.to_string()]);
    table.print("3-second mixed workload");

    // Verify transactional consistency survived the storm: every order's
    // line count matches its order_line rows.
    let orders: i64 = db.query("SELECT SUM(o_ol_cnt) FROM orders")?[0][0].as_int()?;
    let lines: i64 = db.query("SELECT COUNT(*) FROM order_line")?[0][0].as_int()?;
    println!("consistency: SUM(o_ol_cnt)={orders} == COUNT(order_line)={lines}");
    assert_eq!(orders, lines);
    Ok(())
}
