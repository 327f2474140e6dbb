//! E15 — OLTP latency under analytic overload, admission control off/on.
//!
//! Claim (tutorial §3; Psaroudakis et al. \[32\] workload-management
//! lineage): a burst of memory-hungry analytic queries degrades OLTP tail
//! latency unless the system gates analytics at admission. With the
//! query-granularity admission controller on (OLAP concurrency capped,
//! cap dropping further while OLTP is in flight), transaction p99 stays
//! close to the no-analytics baseline while OLAP either queues or is
//! rejected with a typed `ResourceExhausted` error instead of starving
//! the short queries.
//!
//! Cells: OLTP + OLAP burst unmanaged, and the same with admission
//! control. Both run under the memory governor, so the analytic side also
//! spills instead of ballooning. (OLTP with no analytics beside it is the
//! `point_read` workload of `benchmark/`; the two classes side by side
//! through the wire are `htap_mixed`.) Prints its table and records
//! nothing, because today it has no ratio a gate could hold: since the
//! point-select fast path and the fused aggregates, the burst no longer
//! overloads a two-CPU host — unmanaged OLTP p99 is 10–16 µs, managed
//! 34–58 µs over ten quick and three full runs (EXPERIMENTS.md E15), so
//! what the table shows is admission's queueing and rejections, not a
//! rescued tail.

use oltap_bench::harness::{scale, scaled, TextTable};
use oltap_common::row;
use oltap_core::{Database, DbConfig, MemoryConfig};
use oltap_sched::AdmissionConfig;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const OLTP_THREADS: usize = 2;
const OLAP_THREADS: usize = 4;

struct CellResult {
    oltp_qps: f64,
    p50_us: f64,
    p99_us: f64,
    olap_done: u64,
    olap_failed: u64,
}

fn percentile(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[((sorted.len() - 1) as f64 * q).round() as usize] as f64
}

/// Drives `OLTP_THREADS` point-query loops (latency-sampled) against
/// `OLAP_THREADS` analytic loops for `seconds`.
fn run_cell(db: &Arc<Database>, n: usize, seconds: f64) -> CellResult {
    let stop = Arc::new(AtomicBool::new(false));
    let latencies: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
    let olap_done = Arc::new(AtomicU64::new(0));
    let olap_failed = Arc::new(AtomicU64::new(0));

    let start = Instant::now();
    let mut drivers = Vec::new();
    for t in 0..OLTP_THREADS {
        let db = Arc::clone(db);
        let stop = Arc::clone(&stop);
        let latencies = Arc::clone(&latencies);
        drivers.push(std::thread::spawn(move || {
            let mut local = Vec::new();
            let mut i = t as u64;
            while !stop.load(Ordering::Relaxed) {
                // Multiplicative scramble: uniform point lookups.
                let id = (i.wrapping_mul(2_654_435_761) % n as u64) as i64;
                let q = Instant::now();
                db.query(&format!("SELECT v FROM fact WHERE id = {id}"))
                    .unwrap();
                local.push(q.elapsed().as_micros() as u64);
                i += 1;
            }
            latencies.lock().unwrap().extend(local);
        }));
    }
    for s in 0..OLAP_THREADS {
        let db = Arc::clone(db);
        let stop = Arc::clone(&stop);
        let done = Arc::clone(&olap_done);
        let failed = Arc::clone(&olap_failed);
        drivers.push(std::thread::spawn(move || {
            let queries = [
                "SELECT g, COUNT(*), SUM(v) FROM fact GROUP BY g ORDER BY g",
                "SELECT fact.id, dim.w FROM fact JOIN dim ON fact.g = dim.g ORDER BY fact.id LIMIT 100",
                "SELECT g, MIN(v), MAX(v), AVG(v) FROM fact GROUP BY g ORDER BY g",
            ];
            let mut i = s;
            while !stop.load(Ordering::Relaxed) {
                // Under admission control a query may be rejected with
                // `ResourceExhausted` after queueing; that is the managed
                // outcome, not a bench failure.
                match db.query(queries[i % queries.len()]) {
                    Ok(_) => drop(done.fetch_add(1, Ordering::Relaxed)),
                    Err(_) => drop(failed.fetch_add(1, Ordering::Relaxed)),
                }
                i += 1;
            }
        }));
    }

    std::thread::sleep(Duration::from_secs_f64(seconds));
    stop.store(true, Ordering::SeqCst);
    for d in drivers {
        d.join().unwrap();
    }
    let elapsed = start.elapsed().as_secs_f64();

    let mut lat = Arc::try_unwrap(latencies).unwrap().into_inner().unwrap();
    lat.sort_unstable();
    CellResult {
        oltp_qps: lat.len() as f64 / elapsed,
        p50_us: percentile(&lat, 0.50),
        p99_us: percentile(&lat, 0.99),
        olap_done: olap_done.load(Ordering::Relaxed),
        olap_failed: olap_failed.load(Ordering::Relaxed),
    }
}

fn main() {
    let n = scaled(200_000);
    let seconds = (3.0 * scale()).clamp(1.0, 30.0);
    println!("E15: OLTP under analytic overload ({seconds:.1}s per cell)");

    // Governed memory in every cell: the analytic burst spills rather
    // than ballooning, so admission is the only knob that changes.
    let db = Database::with_config(DbConfig {
        memory: Some(MemoryConfig::with_total(64 << 20)),
        ..DbConfig::default()
    })
    .unwrap();
    db.execute(
        "CREATE TABLE fact (id BIGINT PRIMARY KEY, g BIGINT, v BIGINT) USING FORMAT COLUMN",
    )
    .unwrap();
    db.execute("CREATE TABLE dim (g BIGINT PRIMARY KEY, w BIGINT) USING FORMAT ROW")
        .unwrap();
    let fact = db.table("fact").unwrap();
    let dim = db.table("dim").unwrap();
    let tx = db.txn_manager().begin();
    for i in 0..n {
        fact.insert(&tx, row![i as i64, (i % 500) as i64, (i % 997) as i64])
            .unwrap();
    }
    for g in 0..500i64 {
        dim.insert(&tx, row![g, g * 10]).unwrap();
    }
    tx.commit().unwrap();
    db.maintenance();
    println!("loaded {n} fact + 500 dim rows");

    let managed_cfg = AdmissionConfig {
        max_olap: 2,
        throttled_olap: 1,
        pressure_threshold: 1,
        queue_timeout: Duration::from_millis(250),
    };

    let mut t = TextTable::new(&[
        "cell",
        "oltp q/s",
        "p50 µs",
        "p99 µs",
        "olap ok",
        "olap rejected",
    ]);
    let mut record = |name: &str, r: &CellResult| {
        t.row(&[
            name.to_string(),
            format!("{:.0}", r.oltp_qps),
            format!("{:.0}", r.p50_us),
            format!("{:.0}", r.p99_us),
            r.olap_done.to_string(),
            r.olap_failed.to_string(),
        ]);
    };

    db.set_admission_config(None);
    record("overload-unmanaged", &run_cell(&db, n, seconds));

    db.set_admission_config(Some(managed_cfg));
    record("overload-managed", &run_cell(&db, n, seconds));
    let stats = db.admission().unwrap().stats();

    t.print("E15: OLTP point-query latency vs analytic burst, admission off/on");
    println!(
        "admission stats: oltp={} olap={} queued={} timeouts={} throttled={}",
        stats.oltp_admitted,
        stats.olap_admitted,
        stats.olap_queued,
        stats.olap_timeouts,
        stats.throttled_decisions
    );
    println!("expected shape: managed p99 < unmanaged p99, analytics queued or rejected instead");
}
