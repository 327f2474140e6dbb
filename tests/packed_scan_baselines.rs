//! The packed-scan baselines of E3 / E18 / E19 (`oltap-bench`'s
//! `baselines::packed_scan`) against a plain reference loop, and the engine's
//! kernel against them. They live here, not beside the baselines, because
//! `crates/bench` is not a default workspace member: this way the tier-1
//! `cargo test` still runs them.

use oltap_bench::baselines::packed_scan::{
    scan_engine_block, scan_naive, scan_swar, scan_swar_band, PackedCmp,
};
use oltapdb::storage::encoding::BitPacked;

fn codes_with_width(width: u8, n: usize) -> (Vec<u64>, BitPacked) {
    let max = if width == 0 { 0 } else { (1u64 << width) - 1 };
    let values: Vec<u64> = (0..n)
        .map(|i| ((i as u64).wrapping_mul(2654435761)) & max)
        .collect();
    let packed = BitPacked::pack(&values, width).unwrap();
    (values, packed)
}

fn reference(values: &[u64], cmp: PackedCmp, lit: u64) -> Vec<usize> {
    values
        .iter()
        .enumerate()
        .filter(|(_, &v)| match cmp {
            PackedCmp::Eq => v == lit,
            PackedCmp::Lt => v < lit,
            PackedCmp::Gt => v > lit,
        })
        .map(|(i, _)| i)
        .collect()
}

#[test]
fn naive_matches_reference() {
    let (values, packed) = codes_with_width(7, 500);
    for cmp in [PackedCmp::Eq, PackedCmp::Lt, PackedCmp::Gt] {
        let got: Vec<usize> = scan_naive(&packed, cmp, 42).iter_ones().collect();
        assert_eq!(got, reference(&values, cmp, 42));
    }
}

#[test]
fn engine_block_matches_naive_all_widths() {
    for width in [1u8, 2, 3, 5, 8, 11, 13, 16, 21, 32, 40, 63] {
        let (_, packed) = codes_with_width(width, 3000);
        let lit = 1u64 << (width / 2);
        for cmp in [PackedCmp::Eq, PackedCmp::Lt, PackedCmp::Gt] {
            let a: Vec<usize> = scan_naive(&packed, cmp, lit).iter_ones().collect();
            let b: Vec<usize> = scan_engine_block(&packed, cmp, lit).iter_ones().collect();
            assert_eq!(a, b, "width {width} cmp {cmp:?}");
        }
    }
}

#[test]
fn swar_matches_naive_supported_widths() {
    for width in [1u8, 2, 4, 8, 16, 32] {
        let (_, packed) = codes_with_width(width, 2048);
        let max = (1u64 << width) - 1;
        for lit in [0u64, 1, max / 2, max] {
            for cmp in [PackedCmp::Eq, PackedCmp::Lt, PackedCmp::Gt] {
                let a: Vec<usize> = scan_naive(&packed, cmp, lit).iter_ones().collect();
                let b: Vec<usize> = scan_swar(&packed, cmp, lit)
                    .unwrap()
                    .iter_ones()
                    .collect();
                assert_eq!(a, b, "width {width} lit {lit} cmp {cmp:?}");
            }
        }
    }
}

#[test]
fn swar_rejects_odd_widths() {
    let (_, packed) = codes_with_width(7, 100);
    assert!(scan_swar(&packed, PackedCmp::Eq, 3).is_none());
    assert!(scan_swar_band(&packed, 1, 5).is_none());
}

#[test]
fn swar_band_matches_two_pass_reference() {
    for width in [1u8, 2, 4, 8, 16, 32] {
        let (values, packed) = codes_with_width(width, 2048);
        let max = (1u64 << width) - 1;
        for (lo, hi) in [(0u64, 0u64), (0, max), (1, max / 2), (max / 3, max)] {
            let got: Vec<usize> = scan_swar_band(&packed, lo, hi)
                .unwrap()
                .iter_ones()
                .collect();
            let want: Vec<usize> = values
                .iter()
                .enumerate()
                .filter(|(_, &v)| lo <= v && v <= hi)
                .map(|(i, _)| i)
                .collect();
            assert_eq!(got, want, "width {width} band [{lo}, {hi}]");
        }
    }
}

#[test]
fn swar_band_degenerate_bounds() {
    let (values, packed) = codes_with_width(8, 300);
    // Empty band.
    assert_eq!(scan_swar_band(&packed, 10, 3).unwrap().count_ones(), 0);
    // lo above the code domain.
    assert_eq!(scan_swar_band(&packed, 1 << 8, u64::MAX).unwrap().count_ones(), 0);
    // hi above the domain clamps to the lane maximum.
    let got = scan_swar_band(&packed, 0, u64::MAX).unwrap().count_ones();
    assert_eq!(got, values.len());
}

#[test]
fn swar_out_of_domain_literal() {
    let (_, packed) = codes_with_width(8, 100);
    let all = scan_swar(&packed, PackedCmp::Lt, 1 << 8).unwrap();
    assert_eq!(all.count_ones(), 100);
    let none = scan_swar(&packed, PackedCmp::Gt, 1 << 8).unwrap();
    assert_eq!(none.count_ones(), 0);
}

#[test]
fn non_multiple_lengths() {
    // Lengths that do not fill the last word's lanes.
    for n in [1usize, 7, 63, 64, 65, 1023, 1025] {
        let (values, packed) = codes_with_width(8, n);
        let a: Vec<usize> = scan_naive(&packed, PackedCmp::Gt, 100).iter_ones().collect();
        let b: Vec<usize> = scan_swar(&packed, PackedCmp::Gt, 100)
            .unwrap()
            .iter_ones()
            .collect();
        let c: Vec<usize> = scan_engine_block(&packed, PackedCmp::Gt, 100)
            .iter_ones()
            .collect();
        let r = reference(&values, PackedCmp::Gt, 100);
        assert_eq!(a, r, "n {n}");
        assert_eq!(b, r, "n {n}");
        assert_eq!(c, r, "n {n}");
    }
}

#[test]
fn empty_input() {
    let packed = BitPacked::pack(&[], 8).unwrap();
    assert_eq!(scan_naive(&packed, PackedCmp::Eq, 0).count_ones(), 0);
    assert_eq!(scan_engine_block(&packed, PackedCmp::Eq, 0).count_ones(), 0);
    assert_eq!(
        scan_swar(&packed, PackedCmp::Eq, 0).unwrap().count_ones(),
        0
    );
}
