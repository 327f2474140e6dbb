//! E18 — Operate-on-compressed kernels: fused decode+eval, code-domain
//! aggregation, and the perf-regression gate.
//!
//! Claim (tutorial §3/§4; Willhalm et al. \[42\], HANA/BLU lineage):
//! evaluating predicates and aggregates directly on packed dictionary
//! codes beats decode-then-evaluate, and the fused scan+aggregate path
//! beats the row-at-a-time fallback it shadows. Expected shape: every
//! speedup ratio > 1, growing as code width shrinks.
//!
//! Every gated cell is a **speedup ratio measured within one run** —
//! fused vs the same engine with the `exec.kernel_fallback` fault point
//! armed `always()`, or a packed kernel vs the naive per-code loop over
//! the same data. Ratios are machine-portable where absolute rows/sec
//! are not, which is what makes a checked-in baseline meaningful across
//! laptops and CI runners alike.
//!
//! Records `results/BENCH_kernels.json`; run with `--gate` it writes
//! nothing and instead fails if a gated ratio is more than 20% below that
//! file's (`harness::Report`) — the CI quick-mode perf gate.

use oltap_bench::harness::{best, scaled, Report};
use oltap_common::fault::{points, FaultInjector, FaultPoint};
use oltap_common::row;
use oltap_core::{Database, DbConfig};
use oltap_bench::baselines::packed_scan::{scan_engine_block, scan_naive, scan_swar, PackedCmp};
use oltap_common::BitSet;
use oltap_storage::encoding::BitPacked;
use oltap_storage::segment::cmp_floats_block;
use oltap_storage::CmpOp;
use std::sync::Arc;

/// Nanoseconds a row.
fn ns_per_row(secs: f64, rows: usize) -> f64 {
    secs * 1e9 / rows.max(1) as f64
}

/// Packed-scan kernels vs the naive per-code loop, at the widths the
/// dictionary encoder actually emits for low-cardinality columns; beside
/// them the unpack alone (`unpack_block` vs a `get` per code).
fn scan_cells(report: &mut Report) {
    let n = scaled(4_000_000).max(200_000);
    for (width, names) in [
        (4u8, ["scan_block_w4", "scan_swar_w4", "unpack_w4"]),
        (8, ["scan_block_w8", "scan_swar_w8", "unpack_w8"]),
        (16, ["scan_block_w16", "scan_swar_w16", "unpack_w16"]),
    ] {
        let max = (1u64 << width) - 1;
        let values: Vec<u64> = (0..n)
            .map(|i| ((i as u64).wrapping_mul(2654435761)) & max)
            .collect();
        let packed = BitPacked::pack(&values, width).unwrap();
        let lit = max / 2; // ~50% selectivity: the worst case for branches
        let (a, naive_s) = best(5, || scan_naive(&packed, PackedCmp::Lt, lit));
        // The `block` cells time the engine's kernel; `swar` a baseline.
        let (b, block_s) = best(5, || scan_engine_block(&packed, PackedCmp::Lt, lit));
        let (c, swar_s) = best(5, || scan_swar(&packed, PackedCmp::Lt, lit).unwrap());
        assert_eq!(a.count_ones(), b.count_ones(), "block kernel diverged");
        assert_eq!(b.count_ones(), c.count_ones(), "swar kernel diverged");
        // The unpack under the block kernel, into the 64-bit lanes the
        // aggregates decode into, against random access.
        let (x, get_s) = best(5, || (0..n).fold(0u64, |x, i| x ^ packed.get(i)));
        let (y, unpack_s) = best(5, || {
            let mut buf = [0u64; 64];
            (0..n / 64).fold(0u64, |y, b| {
                packed.unpack_block(b * 64, &mut buf);
                buf.iter().fold(y, |y, &v| y ^ v)
            })
        });
        assert_eq!(
            y,
            x ^ (n / 64 * 64..n).fold(0, |t, i| t ^ packed.get(i)),
            "unpack diverged"
        );
        for (name, ratio, secs) in [
            (names[0], naive_s / block_s, block_s),
            (names[1], naive_s / swar_s, swar_s),
            (names[2], get_s / unpack_s, unpack_s),
        ] {
            let detail = [
                ("rows_per_sec", n as f64 / secs.max(1e-12)),
                ("ns_per_row", ns_per_row(secs, n)),
            ];
            report.cell(name, ratio, true, &detail);
        }
    }
}

/// The float compare kernel (64 values to a mask word) vs the per-row
/// `total_cmp` loop it stands in for, at ~50% selectivity.
fn float_cell(report: &mut Report) {
    let n = scaled(4_000_000).max(200_000);
    let values: Vec<f64> = (0..n)
        .map(|i| ((i as u64).wrapping_mul(2654435761) % 50_000) as f64 / 100.0)
        .collect();
    let lit = 250.0;
    let (a, row_s) = best(5, || {
        let mut out = BitSet::with_len(n);
        for (i, v) in values.iter().enumerate() {
            if v.total_cmp(&lit).is_gt() {
                out.set(i);
            }
        }
        out
    });
    let (b, block_s) = best(5, || {
        let mut out = BitSet::all_set(n);
        cmp_floats_block(&values, CmpOp::Gt, lit, None, &mut out);
        out
    });
    assert_eq!(a, b, "float kernel diverged");
    report.cell(
        "float_cmp",
        row_s / block_s,
        true,
        &[("ns_per_row", ns_per_row(block_s, n))],
    );
}

/// A column-format metrics table with one group key per key source of the
/// fused dense path — `g` dictionary-coded, `q` a 4-bit frame of reference,
/// `w` run-length encoded, `tag` dictionary strings — and an integer and a
/// float measure: the shapes the fused kernels target.
fn agg_db(faults: Option<Arc<FaultInjector>>) -> Arc<Database> {
    let db = Database::with_config(DbConfig {
        faults,
        ..DbConfig::default()
    })
    .unwrap();
    db.execute(
        "CREATE TABLE m (id BIGINT PRIMARY KEY, tag TEXT, g BIGINT, v BIGINT, f DOUBLE, \
         q BIGINT, w BIGINT) USING FORMAT COLUMN",
    )
    .unwrap();
    let t = db.table("m").unwrap();
    // Floor high enough that the fastest fused query still takes ~1ms+:
    // sub-millisecond samples make the gated ratios scheduler-noise.
    let n = scaled(400_000).max(150_000) as i64;
    let tags = ["disk", "net", "cpu", "mem"];
    let tx = db.txn_manager().begin();
    for i in 0..n {
        let k = i.wrapping_mul(2_654_435_761) % 1000;
        // 50 distinct group keys spread over a wide range: low cardinality
        // with a wide FOR width is exactly where the encoder picks a
        // dictionary, which is what the dense code-domain lane keys on.
        let g = (i % 50) * 1_000_000_007;
        // `q`: ten scattered values, as CH's ol_quantity; `w`: sixteen
        // long runs, as its ol_w_id under a warehouse-ordered load.
        let (q, w) = (k % 10 + 1, i * 16 / n + 1);
        t.insert(
            &tx,
            row![i, tags[(i % 4) as usize], g, k, (k as f64) * 0.25, q, w],
        )
        .unwrap();
    }
    tx.commit().unwrap();
    db.maintenance();
    db
}

/// Fused scan+aggregate vs the same engine forced onto the scalar
/// fallback via `exec.kernel_fallback` armed `always()`. Same data, same
/// plan, same machine, same run — the ratio isolates exactly the fused
/// kernels.
fn agg_cells(report: &mut Report) {
    let fused_db = agg_db(None);
    let faults = FaultInjector::new(0x0e18);
    faults.arm(points::EXEC_KERNEL_FALLBACK, FaultPoint::always());
    let fallback_db = agg_db(Some(Arc::clone(&faults)));

    let rows = fused_db.query("SELECT COUNT(*) FROM m").unwrap()[0][0].as_int().unwrap() as usize;
    let queries: [(&'static str, &str); 9] = [
        (
            "agg_group_int",
            "SELECT g, COUNT(*), SUM(v), MIN(v), MAX(v) FROM m GROUP BY g ORDER BY g",
        ),
        (
            "agg_group_str",
            "SELECT tag, COUNT(*), COUNT(v), SUM(v) FROM m GROUP BY tag ORDER BY tag",
        ),
        (
            "agg_global",
            "SELECT COUNT(*), COUNT(v), SUM(v), MIN(v), MAX(v) FROM m",
        ),
        (
            "agg_filtered",
            "SELECT tag, COUNT(*), SUM(v) FROM m WHERE v < 250 AND tag <> 'net' \
             GROUP BY tag ORDER BY tag",
        ),
        // What the CH statements of `benchmark/` run: FOR- and RLE-coded
        // integer keys, and float sums held to the row-order additions.
        (
            "agg_group_for_key",
            "SELECT q, COUNT(*), SUM(v) FROM m GROUP BY q ORDER BY q",
        ),
        (
            "agg_group_rle_key",
            "SELECT w, COUNT(*), SUM(v) FROM m GROUP BY w ORDER BY w",
        ),
        (
            "agg_float_sum",
            "SELECT COUNT(*), SUM(f) FROM m WHERE v < 500",
        ),
        (
            "agg_float_avg",
            "SELECT q, COUNT(*), SUM(f), AVG(f) FROM m GROUP BY q ORDER BY q",
        ),
        // The grouped float update alone: one running sum a row, its group
        // found through the key's slot.
        (
            "agg_float_grouped",
            "SELECT q, SUM(f) FROM m GROUP BY q ORDER BY q",
        ),
    ];
    for (name, sql) in queries {
        let (fused, fused_s) = best(9, || fused_db.query(sql).unwrap());
        let (scalar, scalar_s) = best(9, || fallback_db.query(sql).unwrap());
        assert_eq!(fused, scalar, "{name}: fused and fallback disagree");
        let detail = [
            ("fused_secs", fused_s),
            ("fallback_secs", scalar_s),
            ("ns_per_row", ns_per_row(fused_s, rows)),
        ];
        report.cell(name, scalar_s / fused_s, true, &detail);
    }
    assert!(
        faults.fired_count() > 0,
        "kernel-fallback fault never fired — the fallback lane was vacuous"
    );
}

/// Batched hash-probe throughput through the full SQL path. There is no
/// in-engine scalar probe to ratio against (the batched probe *is* the
/// join), so this cell is informational — recorded, never gated.
fn join_cell(report: &mut Report) {
    let n = scaled(1_000_000).max(100_000);
    let dim_n = (n / 100).max(10);
    let db = Database::new();
    db.execute("CREATE TABLE fact (id BIGINT PRIMARY KEY, k BIGINT, v BIGINT) USING FORMAT COLUMN")
        .unwrap();
    db.execute("CREATE TABLE dim (k BIGINT PRIMARY KEY, w BIGINT) USING FORMAT COLUMN")
        .unwrap();
    let fact = db.table("fact").unwrap();
    let dim = db.table("dim").unwrap();
    let tx = db.txn_manager().begin();
    for i in 0..n as i64 {
        fact.insert(&tx, row![i, i.wrapping_mul(2_654_435_761).rem_euclid(dim_n as i64), i % 997])
            .unwrap();
    }
    for j in 0..dim_n as i64 {
        dim.insert(&tx, row![j, j * 3]).unwrap();
    }
    tx.commit().unwrap();
    db.maintenance();
    let sql = "SELECT COUNT(*), SUM(fact.v) FROM fact JOIN dim ON fact.k = dim.k";
    let (_, secs) = best(3, || db.query(sql).unwrap());
    let detail = [("probe_rows", n as f64), ("ns_per_row", ns_per_row(secs, n))];
    report.cell("join_probe", n as f64 / secs.max(1e-12), false, &detail);
}

fn main() {
    println!("E18: operate-on-compressed kernel microbench");
    let mut report = Report::new("e18_kernels");
    scan_cells(&mut report);
    float_cell(&mut report);
    agg_cells(&mut report);
    join_cell(&mut report);
    println!(
        "expected shape: every gated ratio > 1; scan ratios grow as the \
         code width shrinks"
    );
    report.finish("kernels");
}
