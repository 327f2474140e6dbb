//! E19 — Hot/cold compaction: frozen read-optimized cold segments.
//!
//! Claim (tutorial §2/§4; SAP HANA aging / Hekaton Siberia lineage):
//! rewriting cold segments into a frozen representation — full-cardinality
//! ordered dictionaries, frame-of-reference with the tightest bit width,
//! delta encoding for sorted runs — shrinks the on-disk footprint by well
//! over a quarter and speeds up scans at 10×-data-to-pool, because the
//! same buffer pool now holds proportionally more of the column data.
//! Freezing is OLTP-transparent: a writer thread hammering the table
//! while the maintenance daemon freezes under it must see **zero**
//! write errors.
//!
//! Every gated cell is a **ratio measured within one run** — frozen vs
//! unfrozen scan time over the same data and pool, compressed bytes
//! before vs after the freeze rewrite, or the one-pass band kernel vs
//! the two-pass compose it replaces. Ratios are machine-portable where
//! absolute rows/sec are not.
//!
//! Records `results/BENCH_coldstore.json`; run with `--gate` it writes
//! nothing and instead fails if a gated ratio is more than 20% below that
//! file's (`harness::Report`) — the CI quick-mode perf gate.

use oltap_bench::harness::{best, bytes, scaled, time, Report};
use oltap_common::row;
use oltap_core::{BufferConfig, Database, DbConfig};
use oltap_bench::baselines::packed_scan::{scan_swar, scan_swar_band, PackedCmp};
use oltap_storage::encoding::BitPacked;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// The acceptance floor: frozen segments must shed at least a quarter of
/// their compressed bytes on this workload.
const MIN_SIZE_REDUCTION: f64 = 0.25;

const PAGE_ROWS: usize = 4096;

fn bench_rows() -> usize {
    scaled(400_000).max(100_000)
}

/// A paged column table shaped like aged operational data: a sequential
/// primary key (sorted-run delta), a low-cardinality wide group key and
/// tag (ordered dictionary), and a narrow-range metric (tight FOR).
fn loaded_db(pool_bytes: u64) -> Arc<Database> {
    let db = Database::with_config(DbConfig {
        buffer: Some(BufferConfig {
            pool_bytes,
            page_rows: PAGE_ROWS,
            page_root: None,
        }),
        ..DbConfig::default()
    })
    .unwrap();
    db.execute(
        "CREATE TABLE cold (id BIGINT PRIMARY KEY, tag TEXT, g BIGINT, v BIGINT) \
         USING FORMAT COLUMN",
    )
    .unwrap();
    let t = db.table("cold").unwrap();
    let tags = ["warm", "cool", "cold", "ice"];
    let tx = db.txn_manager().begin();
    for i in 0..bench_rows() as i64 {
        let g = (i % 40) * 1_000_000_007;
        // 400 distinct values spread over a ~4e9 range: above the hot
        // encoder's sampled dictionary cutoff (so the hot path keeps a
        // 32-bit FOR), but a tight ~9-bit full-cardinality ordered
        // dictionary once frozen.
        let v = (i.wrapping_mul(2_654_435_761) % 400) * 10_000_019;
        t.insert(&tx, row![i, tags[(i % 4) as usize], g, v]).unwrap();
    }
    tx.commit().unwrap();
    // Merge the delta into paged main segments (unfrozen).
    db.maintenance();
    db
}

/// Total bytes of page files on disk — the measured footprint the
/// 10×-data-to-pool sizing is taken from.
fn page_file_bytes(db: &Database) -> u64 {
    let root = db.pager().expect("paged database").root().to_path_buf();
    std::fs::read_dir(root)
        .map(|rd| {
            rd.filter_map(|e| e.ok())
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

const QUERIES: [(&str, &str); 2] = [
    (
        "scan_agg",
        "SELECT g, COUNT(*), SUM(v), MIN(v), MAX(v) FROM cold GROUP BY g ORDER BY g",
    ),
    (
        "scan_filter",
        "SELECT tag, COUNT(*), SUM(v) FROM cold WHERE v < 2000000000 AND tag <> 'ice' \
         GROUP BY tag ORDER BY tag",
    ),
];

/// Frozen vs unfrozen scans over the same database and pool: measure the
/// merged-but-hot representation, freeze every segment, measure again.
/// The pool is a tenth of the unfrozen on-disk footprint, so the frozen
/// side's advantage is exactly its tighter encodings.
fn scan_cells(report: &mut Report) {
    // Size the pool from a measured footprint, not an estimate.
    let sizing = loaded_db(u64::MAX);
    let unfrozen_disk = page_file_bytes(&sizing);
    drop(sizing);
    let pool = (unfrozen_disk / 10).max(64 * 1024);
    println!(
        "e19: {} unfrozen on disk, pool {} (10x data-to-pool)",
        bytes(unfrozen_disk as usize),
        bytes(pool as usize)
    );

    let db = loaded_db(pool);
    let n = bench_rows();
    let mut unfrozen: Vec<(&str, Vec<oltap_common::Row>, f64)> = Vec::new();
    for (name, sql) in QUERIES {
        let (rows, secs) = best(5, || db.query(sql).unwrap());
        unfrozen.push((name, rows, secs));
    }

    let stats = db.freeze_all(true).unwrap();
    assert!(stats.segments_frozen > 0, "nothing froze");
    let frozen_disk = page_file_bytes(&db);
    let reduction = 1.0 - stats.bytes_after as f64 / stats.bytes_before.max(1) as f64;
    assert!(
        reduction >= MIN_SIZE_REDUCTION,
        "frozen representation saved only {:.1}% (< {:.0}% floor): {} -> {}",
        reduction * 100.0,
        MIN_SIZE_REDUCTION * 100.0,
        stats.bytes_before,
        stats.bytes_after
    );

    for (name, hot_rows, hot_secs) in unfrozen {
        let (rows, secs) = best(5, || db.query(QUERIES.iter().find(|q| q.0 == name).unwrap().1).unwrap());
        assert_eq!(rows, hot_rows, "{name}: frozen scan changed results");
        let ratio = hot_secs / secs;
        let cell_name = match name {
            "scan_agg" => "frozen_scan_agg",
            _ => "frozen_scan_filter",
        };
        let detail = [
            ("frozen_secs", secs),
            ("unfrozen_secs", hot_secs),
            ("rows_per_sec", n as f64 / secs.max(1e-12)),
        ];
        report.cell(cell_name, ratio, true, &detail);
    }

    let detail = [
        ("bytes_before", stats.bytes_before as f64),
        ("bytes_after", stats.bytes_after as f64),
        ("disk_before", unfrozen_disk as f64),
        ("disk_after", frozen_disk as f64),
    ];
    let size_ratio = stats.bytes_before as f64 / stats.bytes_after.max(1) as f64;
    report.cell("size_reduction", size_ratio, true, &detail);
}

/// One-pass band kernel (`lo <= x <= hi` in a single SWAR sweep) vs the
/// two-pass compose it replaces: `!(x < lo) & !(hi < x)` as two full
/// scans intersected. Same packed data, same run.
fn band_cell(report: &mut Report) {
    let n = scaled(4_000_000).max(200_000);
    let width = 8u8;
    let max = (1u64 << width) - 1;
    let values: Vec<u64> = (0..n)
        .map(|i| ((i as u64).wrapping_mul(2654435761)) & max)
        .collect();
    let packed = BitPacked::pack(&values, width).unwrap();
    let (lo, hi) = (max / 4, 3 * max / 4); // ~50% selectivity band
    let (two, two_s) = best(5, || {
        let mut ge_lo = scan_swar(&packed, PackedCmp::Lt, lo).unwrap();
        ge_lo.negate();
        let mut le_hi = scan_swar(&packed, PackedCmp::Gt, hi).unwrap();
        le_hi.negate();
        ge_lo.intersect_with(&le_hi);
        ge_lo
    });
    let (one, one_s) = best(5, || scan_swar_band(&packed, lo, hi).unwrap());
    assert_eq!(one.count_ones(), two.count_ones(), "band kernel diverged");
    let detail = [("rows_per_sec", n as f64 / one_s.max(1e-12))];
    report.cell("band_swar_w8", two_s / one_s, true, &detail);
}

/// OLTP writes racing the freeze daemon: a writer thread inserts and
/// updates while the main thread loops merge + forced freeze passes.
/// The acceptance bar is **zero** write errors; throughput is recorded
/// but never gated (absolute ops/sec are machine-local).
fn oltp_cell(report: &mut Report) {
    let db = loaded_db(u64::MAX);
    let stop = Arc::new(AtomicBool::new(false));
    let writer = {
        let db = Arc::clone(&db);
        let stop = Arc::clone(&stop);
        let base = bench_rows() as i64;
        std::thread::spawn(move || {
            let (mut ops, mut errs) = (0u64, 0u64);
            let mut i = 0i64;
            while !stop.load(Ordering::Relaxed) {
                let sql = if i % 3 == 0 {
                    format!("UPDATE cold SET v = {} WHERE id = {}", 9_000_000 + i, i % base)
                } else {
                    format!(
                        "INSERT INTO cold VALUES ({}, 'new', {}, {})",
                        base + i,
                        (i % 40) * 1_000_000_007,
                        5_000_000 + i % 1000
                    )
                };
                match db.execute(&sql) {
                    Ok(_) => ops += 1,
                    Err(e) => {
                        errs += 1;
                        eprintln!("oltp write error during freeze: {e}");
                    }
                }
                i += 1;
            }
            (ops, errs)
        })
    };
    let mut frozen = 0usize;
    let (_, secs) = time(|| {
        for _ in 0..20 {
            db.maintenance();
            frozen += db.freeze_all(true).unwrap().segments_frozen;
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
    });
    stop.store(true, Ordering::Relaxed);
    let (ops, errs) = writer.join().unwrap();
    assert_eq!(errs, 0, "OLTP writes failed during concurrent freezing");
    assert!(frozen > 0, "no segment froze while the writer ran");
    let detail = [
        ("ops", ops as f64),
        ("errors", errs as f64),
        ("segments_frozen", frozen as f64),
    ];
    report.cell("oltp_during_freeze", ops as f64 / secs.max(1e-12), false, &detail);
}

fn main() {
    println!("E19: hot/cold compaction — frozen cold segments");
    let mut report = Report::new("e19_coldstore");
    scan_cells(&mut report);
    band_cell(&mut report);
    oltp_cell(&mut report);
    println!(
        "expected shape: every gated ratio > 1; size_reduction >= {:.2}x",
        1.0 / (1.0 - MIN_SIZE_REDUCTION)
    );
    report.finish("coldstore");
}
