//! Social-retail surge analytics: the paper's second motivating
//! application (§1) — "analytic insights on immediate surges of interest
//! on social media platforms to derive targeted product trends in real
//! time".
//!
//! Uses a DUAL-format table (Oracle DBIM style): event ingest and point
//! lookups ride the row store; the trend queries ride the columnar side —
//! merged segments plus the delta of rows since the last merge — which
//! every write updates beside the row store, so results are consistent
//! with the very latest committed events.
//!
//! ```bash
//! cargo run --release --example retail_analytics
//! ```

use oltap_bench::workloads::RetailGen;
use oltapdb::core::Database;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let db = Database::new();
    db.execute(&RetailGen::ddl("DUAL"))?;

    let mut gen = RetailGen::new(100, 7);
    let handle = db.table("retail_events")?;

    // Phase 1: historical backlog, then merge it into columnar segments.
    let backlog = gen.batch(50_000);
    let txn = db.txn_manager().begin();
    for r in &backlog {
        handle.insert(&txn, r.clone())?;
    }
    txn.commit()?;
    db.maintenance(); // merges the dual table's columnar side
    println!("loaded {} historical events; columnar side merged", backlog.len());

    // Phase 2: live events keep arriving (they sit in the columnar delta).
    let live = gen.batch(5_000);
    let txn = db.txn_manager().begin();
    for r in &live {
        handle.insert(&txn, r.clone())?;
    }
    txn.commit()?;
    println!("+{} live events since the merge\n", live.len());

    // Trend board: top products by recent mention volume — served by the
    // columnar segments + delta, consistent with all commits.
    println!("top products by mentions (live-consistent):");
    for r in db.query(
        "SELECT product, SUM(mentions) AS buzz, SUM(purchases) AS sold
         FROM retail_events GROUP BY product ORDER BY buzz DESC LIMIT 5",
    )? {
        println!("  {r}");
    }

    // Surge detection: products whose single-event mention counts spike.
    println!("\nsurging products (events with >= 50 mentions):");
    for r in db.query(
        "SELECT product, COUNT(*) AS spikes, MAX(mentions) AS peak
         FROM retail_events WHERE mentions >= 50
         GROUP BY product ORDER BY spikes DESC LIMIT 5",
    )? {
        println!("  {r}");
    }

    // Conversion by region.
    println!("\nconversion by region:");
    for r in db.query(
        "SELECT region, SUM(purchases) AS sold, SUM(mentions) AS buzz
         FROM retail_events GROUP BY region ORDER BY sold DESC",
    )? {
        println!("  {r}");
    }

    // OLTP side: a point read for one event rides the row store.
    let one = db.query("SELECT product, mentions FROM retail_events WHERE event_id = 42")?;
    println!("\nevent 42: {}", one[0]);

    // Freshness bookkeeping of the dual format.
    if let Some(columns) = db.table("retail_events")?.columns() {
        let sizes = columns.sizes();
        println!(
            "\ncolumnar side: {} segments, {} main rows ({} dead), {} delta keys",
            sizes.segments, sizes.main_rows, sizes.main_dead_rows, sizes.delta_rows
        );
    }
    Ok(())
}
