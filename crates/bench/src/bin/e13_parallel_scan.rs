//! E13 — Morsel-driven parallel execution speedup.
//!
//! Claim (HyPer \[28\] morsel parallelism; tutorial §4): decomposing a
//! query into pipelines over fixed-size morsels and fanning them out on a
//! worker pool scales analytic throughput near-linearly until the scan
//! becomes memory-bandwidth bound. Expected shape: ≥2x at 4 workers on
//! both a filter-heavy scan and a group-by aggregation, flattening as the
//! worker count approaches the machine's effective bandwidth limit.
//!
//! The last two statements are `Aggregate(Scan)` shapes, which take the
//! fused walk: over held segments its morsels and stripes are claimed by
//! the statement's thread and `workers - 1` of the pool's.
//!
//! Prints per-worker-count times and records nothing: a row whose workers
//! outnumber the host's CPUs measures time-slicing, not scaling, and is
//! marked so. That every worker count gives the *same answer* is a test
//! (`results_are_worker_count_independent_for_all_shapes`, the `parallel`
//! property tests), not this program's business.

use oltap_bench::harness::{best, rate, scaled, time, TextTable};
use oltap_common::row;
use oltap_core::Database;

fn main() {
    let n = scaled(1_000_000);
    let db = Database::new();
    db.execute(
        "CREATE TABLE fact (id BIGINT PRIMARY KEY, g BIGINT, v BIGINT) USING FORMAT COLUMN",
    )
    .unwrap();
    let fact = db.table("fact").unwrap();
    let (_, load_secs) = time(|| {
        let tx = db.txn_manager().begin();
        for i in 0..n {
            fact.insert(&tx, row![i as i64, (i % 64) as i64, (i % 1000) as i64])
                .unwrap();
        }
        tx.commit().unwrap();
        db.maintenance(); // merge the delta into zone-mapped segments
    });
    println!(
        "E13: {n} rows loaded + merged in {load_secs:.2}s ({})",
        rate(n, load_secs)
    );

    // Two shapes that run on the morsel pipelines, then two the fused walk
    // answers (E18 measures its kernels on one core).
    let queries = [
        (
            "filter-project",
            "SELECT COUNT(*) FROM fact WHERE v * 2 + g > 1000",
        ),
        (
            "group-by-expr",
            "SELECT g + 0, COUNT(*), SUM(v) FROM fact GROUP BY g + 0",
        ),
        ("fused-group-by", "SELECT g, COUNT(*), SUM(v) FROM fact GROUP BY g"),
        (
            "fused-filter",
            "SELECT COUNT(*), SUM(v) FROM fact WHERE v < 500",
        ),
    ];
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("host CPUs: {cpus}");

    let mut t = TextTable::new(&["query", "workers", "best ms", "throughput", "note"]);
    for (qname, sql) in &queries {
        for workers in [1usize, 2, 4, 8] {
            db.set_parallelism(workers);
            let (_, secs) = best(3, || db.query(sql).unwrap());
            t.row(&[
                qname.to_string(),
                workers.to_string(),
                format!("{:.3}", secs * 1e3),
                rate(n, secs),
                if workers > cpus {
                    "oversubscribed — not a scaling measurement".to_string()
                } else {
                    String::new()
                },
            ]);
        }
    }
    t.print("E13: morsel-driven parallel execution (workers vs time)");
    println!(
        "expected shape on a host with >= 4 CPUs: near-linear to 4 workers, bandwidth-bound beyond"
    );
}
