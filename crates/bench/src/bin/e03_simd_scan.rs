//! E3 — SIMD-style scans over bit-packed codes.
//!
//! Claim (tutorial §3, Willhalm et al. \[42\]): evaluating predicates
//! directly on packed dictionary codes, many per word, is several times
//! faster than per-value evaluation. Expected shape: block-unpack (the
//! engine's `cmp_codes_block`) > naive; SWAR ≥ block-unpack at narrow
//! widths.

use oltap_bench::harness::{rate, scaled, time, TextTable};
use oltap_bench::baselines::packed_scan::{scan_engine_block, scan_naive, scan_swar, PackedCmp};
use oltap_storage::encoding::BitPacked;

fn main() {
    let n = scaled(8_000_000);
    println!("E3: packed predicate scans over {n} codes");
    let mut t = TextTable::new(&[
        "width",
        "selectivity",
        "naive",
        "block-unpack",
        "swar",
        "block/naive",
        "swar/naive",
    ]);
    for width in [4u8, 8, 16] {
        let max = (1u64 << width) - 1;
        let values: Vec<u64> = (0..n)
            .map(|i| ((i as u64).wrapping_mul(2654435761)) & max)
            .collect();
        let packed = BitPacked::pack(&values, width).unwrap();
        for (sel_name, lit) in [("~1%", max / 100), ("~50%", max / 2), ("~99%", max)] {
            let (a, naive_s) = time(|| scan_naive(&packed, PackedCmp::Lt, lit));
            // The engine's kernel; the other two are baselines.
            let (b, block_s) = time(|| scan_engine_block(&packed, PackedCmp::Lt, lit));
            let (c, swar_s) = time(|| scan_swar(&packed, PackedCmp::Lt, lit).unwrap());
            assert_eq!(a.count_ones(), b.count_ones());
            assert_eq!(b.count_ones(), c.count_ones());
            t.row(&[
                format!("{width}b"),
                sel_name.to_string(),
                rate(n, naive_s),
                rate(n, block_s),
                rate(n, swar_s),
                format!("{:.2}x", naive_s / block_s),
                format!("{:.2}x", naive_s / swar_s),
            ]);
        }
    }
    t.print("E3: SIMD-style scan kernels (predicate: code < literal)");
    println!("expected shape: block/naive and swar/naive > 1, growing as width shrinks");
}
