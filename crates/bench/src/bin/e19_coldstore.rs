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
//! Emits `results/BENCH_coldstore.json` (override with
//! `BENCH_COLDSTORE_OUT`). With `BENCH_COLDSTORE_GATE=1` it additionally
//! compares each gated ratio against the checked-in baseline
//! (`BENCH_COLDSTORE_BASELINE`, default the output path, read *before*
//! overwriting) and exits nonzero if any ratio regressed by more than
//! 20% — the CI quick-mode perf gate.

use oltap_bench::harness::{bytes, rate, scaled, time, TextTable};
use oltap_common::row;
use oltap_core::{BufferConfig, Database, DbConfig};
use oltap_bench::baselines::packed_scan::{scan_swar, scan_swar_band, PackedCmp};
use oltap_storage::encoding::BitPacked;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A gated cell fails the gate when its ratio drops below this fraction
/// of the checked-in baseline (>20% regression).
const GATE_FRACTION: f64 = 0.8;

/// The acceptance floor: frozen segments must shed at least a quarter of
/// their compressed bytes on this workload.
const MIN_SIZE_REDUCTION: f64 = 0.25;

const PAGE_ROWS: usize = 4096;

/// Best-of-N timing (minimum over `reps` runs — stable at CI scales).
fn best<T>(reps: usize, mut f: impl FnMut() -> T) -> (T, f64) {
    let (mut out, mut secs) = time(&mut f);
    for _ in 1..reps {
        let (v, s) = time(&mut f);
        if s < secs {
            out = v;
            secs = s;
        }
    }
    (out, secs)
}

struct Cell {
    name: &'static str,
    /// The gated metric: a same-run ratio (or informational rows/sec
    /// and byte counts for ungated cells).
    metric: f64,
    gated: bool,
    detail: String,
}

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
fn scan_cells(cells: &mut Vec<Cell>, table: &mut TextTable) {
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
        table.row(&[
            cell_name.to_string(),
            format!("{ratio:.2}x vs unfrozen"),
            rate(n, secs),
            "yes".to_string(),
        ]);
        cells.push(Cell {
            name: cell_name,
            metric: ratio,
            gated: true,
            detail: format!(
                "\"frozen_secs\":{secs:.6},\"unfrozen_secs\":{hot_secs:.6},\
                 \"rows_per_sec\":{:.1}",
                n as f64 / secs.max(1e-12)
            ),
        });
    }

    let size_ratio = stats.bytes_before as f64 / stats.bytes_after.max(1) as f64;
    table.row(&[
        "size_reduction".to_string(),
        format!("{size_ratio:.2}x smaller"),
        format!("{:.1}% saved", reduction * 100.0),
        "yes".to_string(),
    ]);
    cells.push(Cell {
        name: "size_reduction",
        metric: size_ratio,
        gated: true,
        detail: format!(
            "\"bytes_before\":{},\"bytes_after\":{},\"disk_before\":{unfrozen_disk},\
             \"disk_after\":{frozen_disk}",
            stats.bytes_before, stats.bytes_after
        ),
    });
}

/// One-pass band kernel (`lo <= x <= hi` in a single SWAR sweep) vs the
/// two-pass compose it replaces: `!(x < lo) & !(hi < x)` as two full
/// scans intersected. Same packed data, same run.
fn band_cell(cells: &mut Vec<Cell>, table: &mut TextTable) {
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
    let ratio = two_s / one_s;
    table.row(&[
        "band_swar_w8".to_string(),
        format!("{ratio:.2}x vs two-pass"),
        rate(n, one_s),
        "yes".to_string(),
    ]);
    cells.push(Cell {
        name: "band_swar_w8",
        metric: ratio,
        gated: true,
        detail: format!("\"rows_per_sec\":{:.1}", n as f64 / one_s.max(1e-12)),
    });
}

/// OLTP writes racing the freeze daemon: a writer thread inserts and
/// updates while the main thread loops merge + forced freeze passes.
/// The acceptance bar is **zero** write errors; throughput is recorded
/// but never gated (absolute ops/sec are machine-local).
fn oltp_cell(cells: &mut Vec<Cell>, table: &mut TextTable) {
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
    let ops_per_sec = ops as f64 / secs.max(1e-12);
    table.row(&[
        "oltp_during_freeze".to_string(),
        "(informational)".to_string(),
        format!("{ops_per_sec:.0} ops/s, 0 errors"),
        "no".to_string(),
    ]);
    cells.push(Cell {
        name: "oltp_during_freeze",
        metric: ops_per_sec,
        gated: false,
        detail: format!("\"ops\":{ops},\"errors\":{errs},\"segments_frozen\":{frozen}"),
    });
}

/// Pulls `(name, metric, gated)` out of a BENCH_coldstore.json payload
/// (flat cells, same shape as the kernels baseline).
fn parse_cells(json: &str) -> Vec<(String, f64, bool)> {
    let mut out = Vec::new();
    let mut rest = json;
    while let Some(i) = rest.find("{\"name\":\"") {
        rest = &rest[i + 9..];
        let Some(name_end) = rest.find('"') else { break };
        let name = rest[..name_end].to_string();
        let Some(cell_end) = rest.find('}') else { break };
        let cell = &rest[..cell_end];
        if let Some(m) = cell.find("\"metric\":") {
            let tail = &cell[m + 9..];
            let num = &tail[..tail.find(',').unwrap_or(tail.len())];
            if let Ok(metric) = num.trim().parse::<f64>() {
                out.push((name, metric, cell.contains("\"gated\":true")));
            }
        }
        rest = &rest[cell_end..];
    }
    out
}

/// Compares current gated ratios against the checked-in baseline. Any
/// cell below `GATE_FRACTION` of its baseline fails the run.
fn run_gate(baseline_json: &str, cells: &[Cell]) -> bool {
    let baseline = parse_cells(baseline_json);
    let mut t = TextTable::new(&["cell", "baseline", "current", "floor", "verdict"]);
    let mut failures = 0;
    for (name, base, gated) in &baseline {
        if !gated {
            continue;
        }
        let Some(cur) = cells.iter().find(|c| c.name == name) else {
            println!("gate: baseline cell {name} missing from this run");
            failures += 1;
            continue;
        };
        let floor = base * GATE_FRACTION;
        let ok = cur.metric >= floor;
        failures += usize::from(!ok);
        t.row(&[
            name.clone(),
            format!("{base:.2}x"),
            format!("{:.2}x", cur.metric),
            format!("{floor:.2}x"),
            if ok { "ok" } else { "REGRESSED" }.to_string(),
        ]);
    }
    t.print("E19 gate: ratios vs checked-in baseline");
    failures == 0
}

fn main() {
    println!("E19: hot/cold compaction — frozen cold segments");
    let mut cells = Vec::new();
    let mut table = TextTable::new(&["cell", "ratio", "throughput", "gated"]);
    scan_cells(&mut cells, &mut table);
    band_cell(&mut cells, &mut table);
    oltp_cell(&mut cells, &mut table);
    table.print("E19: frozen-representation ratios (measured within this run)");
    println!(
        "expected shape: every gated ratio > 1; size_reduction >= {:.2}x",
        1.0 / (1.0 - MIN_SIZE_REDUCTION)
    );

    let out = std::env::var("BENCH_COLDSTORE_OUT")
        .unwrap_or_else(|_| "results/BENCH_coldstore.json".to_string());
    // Read the baseline before writing: by default they are the same
    // file, and the gate must compare against the *checked-in* ratios.
    let baseline_path =
        std::env::var("BENCH_COLDSTORE_BASELINE").unwrap_or_else(|_| out.clone());
    let baseline_json = std::fs::read_to_string(&baseline_path).ok();

    let json_cells: Vec<String> = cells
        .iter()
        .map(|c| {
            format!(
                "{{\"name\":\"{}\",\"metric\":{:.4},\"gated\":{},{}}}",
                c.name, c.metric, c.gated, c.detail
            )
        })
        .collect();
    let json = format!(
        "{{\"experiment\":\"e19_coldstore\",\"gate_fraction\":{GATE_FRACTION},\
         \"cells\":[\n  {}\n]}}\n",
        json_cells.join(",\n  ")
    );
    if let Some(dir) = std::path::Path::new(&out).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    std::fs::write(&out, &json).expect("write BENCH_coldstore.json");
    println!("wrote {out}");

    if std::env::var("BENCH_COLDSTORE_GATE").is_ok_and(|v| !v.is_empty() && v != "0") {
        let Some(baseline_json) = baseline_json else {
            eprintln!("gate: no baseline at {baseline_path} — cannot gate");
            std::process::exit(1);
        };
        if !run_gate(&baseline_json, &cells) {
            eprintln!(
                "gate: cold-store ratio regressed >{:.0}% vs {baseline_path}",
                (1.0 - GATE_FRACTION) * 100.0
            );
            std::process::exit(1);
        }
        println!("gate: all gated ratios within {GATE_FRACTION}x of baseline");
    }
}
