//! SIMD-style scan kernels over bit-packed codes.
//!
//! Willhalm et al.'s SIMD-scan (paper §3, \[42\]) evaluates predicates
//! directly on packed dictionary codes, processing many codes per vector
//! register. Without unstable `std::simd`, this module reproduces the idea
//! two ways:
//!
//! * [`scan_unpack_block`] — block-decode 1024 codes into a stack buffer,
//!   then a branch-free compare loop the autovectorizer turns into SIMD.
//! * [`scan_swar`] — SIMD-within-a-register: for widths that divide 64,
//!   compare all codes inside each `u64` word *simultaneously* using the
//!   classic parallel-compare bit tricks (no per-code loop at all).
//!
//! The naive baseline [`scan_naive`] does a bounds-checked `get(i)` per
//! code — the shape every row-at-a-time engine is stuck with. Experiment
//! E3 measures all three.

use oltap_common::BitSet;
use oltap_storage::encoding::BitPacked;

/// Comparison supported by the packed kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PackedCmp {
    /// code == literal
    Eq,
    /// code < literal
    Lt,
    /// code > literal
    Gt,
}

/// Naive per-code scan: random-access decode and compare, one at a time.
pub fn scan_naive(codes: &BitPacked, cmp: PackedCmp, literal: u64) -> BitSet {
    let n = codes.len();
    let mut out = BitSet::with_len(n);
    for i in 0..n {
        let v = codes.get(i);
        let hit = match cmp {
            PackedCmp::Eq => v == literal,
            PackedCmp::Lt => v < literal,
            PackedCmp::Gt => v > literal,
        };
        if hit {
            out.set(i);
        }
    }
    out
}

/// Block size of the unpack kernel.
const UNPACK_BLOCK: usize = 1024;

/// Vectorized scan: decode a block of codes into a stack buffer, then run a
/// branch-free compare loop over it. The two inner loops are written so
/// LLVM autovectorizes them.
pub fn scan_unpack_block(codes: &BitPacked, cmp: PackedCmp, literal: u64) -> BitSet {
    let n = codes.len();
    let mut out = BitSet::with_len(n);
    let mut buf = [0u64; UNPACK_BLOCK];
    let mut start = 0usize;
    // UNPACK_BLOCK is a multiple of 64, so every block (and every 64-code
    // sub-chunk below) starts word-aligned in the output bitmap.
    while start < n {
        let len = (n - start).min(UNPACK_BLOCK);
        // Sequential block decode: the cursor-based unpacker avoids the
        // per-element bounds check and index arithmetic of `get`.
        codes.unpack_block(start, &mut buf[..len]);
        // Branch-free compare, 64 hits packed per output word.
        let mut o = 0usize;
        while o < len {
            let chunk = (len - o).min(64);
            let mut word = 0u64;
            for (j, &v) in buf[o..o + chunk].iter().enumerate() {
                let hit = match cmp {
                    PackedCmp::Eq => (v == literal) as u64,
                    PackedCmp::Lt => (v < literal) as u64,
                    PackedCmp::Gt => (v > literal) as u64,
                };
                word |= hit << j;
            }
            out.or_word((start + o) / 64, word);
            o += 64;
        }
        start += len;
    }
    out
}

/// SWAR scan: for widths 1/2/4/8/16/32 (codes aligned within words),
/// compare every code of a 64-bit word at once.
///
/// Technique (Lamport 1975 / Willhalm et al.): with `w`-bit lanes,
/// `x - y` per lane with borrow isolation gives per-lane `<`; equality is
/// `~(x ^ y)` collapsing to the lane's top bit. Returns `None` when the
/// width is unsupported (caller falls back to the block kernel).
pub fn scan_swar(codes: &BitPacked, cmp: PackedCmp, literal: u64) -> Option<BitSet> {
    let w = codes.width() as usize;
    if !matches!(w, 1 | 2 | 4 | 8 | 16 | 32) {
        return None;
    }
    if literal >= (1u64 << w) {
        // Literal outside the code domain: Eq/Gt match nothing; Lt matches
        // everything.
        let n = codes.len();
        return Some(match cmp {
            PackedCmp::Lt => BitSet::all_set(n),
            _ => BitSet::with_len(n),
        });
    }
    let n = codes.len();
    let lanes = 64 / w;
    let rep = replicate(literal, w, lanes);
    let (high, low) = lane_masks(w, lanes);
    let steps = compaction_steps(w, lanes);

    let words = codes.words();
    let mut out = BitSet::with_len(n);
    let mut emit = MaskEmitter::new(&mut out, lanes);
    for &x in words.iter() {
        // Per-lane comparison producing a 1 in each matching lane's MSB.
        let msb_hits = match cmp {
            PackedCmp::Eq => {
                // z = x ^ rep is 0 in matching lanes. Detect zero lanes:
                // (z | ((z & low) + low)) has MSB set iff lane non-zero.
                let z = x ^ rep;
                !((z | ((z & low) + low)) | z) & high
            }
            PackedCmp::Lt => swar_lt(x, rep, high),
            PackedCmp::Gt => swar_lt(rep, x, high),
        };
        emit.push(msb_hits, w, &steps);
    }
    emit.finish();
    Some(out)
}

/// One-pass SWAR band scan: per lane, `lo <= code <= hi` (inclusive).
///
/// This is the frozen-segment range shape: a value-domain range predicate
/// on an order-preserving dictionary or FOR column rewrites to a band of
/// codes, which the two-sided borrow trick answers in a single pass over
/// the packed words — half the work of `Ge`-scan ∧ `Le`-scan. Returns
/// `None` for unsupported widths (caller falls back to two passes).
pub fn scan_swar_band(codes: &BitPacked, lo: u64, hi: u64) -> Option<BitSet> {
    let w = codes.width() as usize;
    if !matches!(w, 1 | 2 | 4 | 8 | 16 | 32) {
        return None;
    }
    let n = codes.len();
    let max = (1u64 << w) - 1;
    if lo > hi || lo > max {
        return Some(BitSet::with_len(n));
    }
    let hi = hi.min(max);
    let lanes = 64 / w;
    let rep_lo = replicate(lo, w, lanes);
    let rep_hi = replicate(hi, w, lanes);
    let (high, _) = lane_masks(w, lanes);
    let steps = compaction_steps(w, lanes);

    let words = codes.words();
    let mut out = BitSet::with_len(n);
    let mut emit = MaskEmitter::new(&mut out, lanes);
    for &x in words.iter() {
        // In-band iff neither borrow fires: !(x < lo) & !(hi < x).
        let below = swar_lt(x, rep_lo, high);
        let above = swar_lt(rep_hi, x, high);
        emit.push(!(below | above) & high, w, &steps);
    }
    emit.finish();
    Some(out)
}

/// Per-lane `a < b` (unsigned): borrow out of `a - b`, isolated to each
/// lane's MSB. Standard SWAR subtract-borrow.
#[inline]
fn swar_lt(a: u64, b: u64, high: u64) -> u64 {
    let d = (a | high).wrapping_sub(b & !high);
    let borrow = (!a & b) | ((!a | b) & !d);
    borrow & high
}

/// Replicates a `w`-bit literal into every lane of a word.
#[inline]
fn replicate(literal: u64, w: usize, lanes: usize) -> u64 {
    let mut rep = 0u64;
    for _ in 0..lanes {
        rep = (rep << w) | literal;
    }
    rep
}

/// Per-lane MSB mask and low-bits (non-MSB) mask.
fn lane_masks(w: usize, lanes: usize) -> (u64, u64) {
    let lane_mask = if w == 64 { u64::MAX } else { (1u64 << w) - 1 };
    let mut high = 0u64;
    for lane in 0..lanes {
        high |= 1u64 << (lane * w + (w - 1));
    }
    let low = !high & {
        let mut m = 0u64;
        for lane in 0..lanes {
            m |= lane_mask << (lane * w);
        }
        m
    };
    (high, low)
}

/// The lane-compaction schedule: each step halves the spacing of the
/// (shifted-down) lane hit bits, so `log2(lanes)` shift/or/mask rounds
/// replace a per-hit `trailing_zeros` scatter. This is a branch-free
/// movemask — the cost per input word is constant regardless of
/// selectivity.
fn compaction_steps(w: usize, lanes: usize) -> Vec<(u32, u64)> {
    let mut steps: Vec<(u32, u64)> = Vec::new();
    let mut g = 1usize; // contiguous group size
    let mut s = w; // group spacing
    while g < lanes {
        let shift = (s - g) as u32;
        let (ng, ns) = (g * 2, s * 2);
        let mut mask = 0u64;
        let mut p = 0;
        while p < 64 {
            mask |= (((1u128 << ng) - 1) as u64) << p;
            p += ns;
        }
        steps.push((shift, mask));
        g = ng;
        s = ns;
    }
    steps
}

/// Packs per-word lane-MSB hit masks into the output bitmap, 64 selection
/// bits at a time. Trailing garbage lanes of the last input word fall
/// beyond the bitmap length and are masked by `or_word`.
struct MaskEmitter<'a> {
    out: &'a mut BitSet,
    lanes: usize,
    acc: u64,
    filled: usize,
    out_word: usize,
}

impl<'a> MaskEmitter<'a> {
    fn new(out: &'a mut BitSet, lanes: usize) -> Self {
        MaskEmitter {
            out,
            lanes,
            acc: 0,
            filled: 0,
            out_word: 0,
        }
    }

    #[inline]
    fn push(&mut self, msb_hits: u64, w: usize, steps: &[(u32, u64)]) {
        let mut compact = msb_hits >> (w - 1);
        for &(sh, m) in steps {
            compact = (compact | (compact >> sh)) & m;
        }
        self.acc |= compact << self.filled;
        self.filled += self.lanes;
        if self.filled == 64 {
            self.out.or_word(self.out_word, self.acc);
            self.out_word += 1;
            self.acc = 0;
            self.filled = 0;
        }
    }

    fn finish(self) {
        if self.filled > 0 {
            self.out.or_word(self.out_word, self.acc);
        }
    }
}

/// Running integer fold for the fused filter+aggregate path: COUNT, a
/// wrapping SUM, and MIN/MAX of the selected lanes of 64-row blocks.
///
/// One fold instance accumulates one aggregate input column; the caller
/// supplies each block's decoded values plus a 64-bit mask (selection ∧
/// validity). Every operation here is associative and commutative in the
/// wrapping-integer domain, so block order and block/scalar grouping
/// cannot change the result — the byte-identity contract the property
/// tests pin down.
#[derive(Debug, Clone, Copy)]
pub struct IntFold {
    /// Number of selected lanes folded so far.
    pub count: i64,
    /// Wrapping sum of selected values.
    pub sum: i64,
    /// Minimum selected value (`i64::MAX` until `count > 0`).
    pub min: i64,
    /// Maximum selected value (`i64::MIN` until `count > 0`).
    pub max: i64,
}

impl Default for IntFold {
    fn default() -> Self {
        IntFold {
            count: 0,
            sum: 0,
            min: i64::MAX,
            max: i64::MIN,
        }
    }
}

impl IntFold {
    /// Folds one block: `vals[o]` participates iff bit `o` of `mask` is
    /// set. Count/sum are branch-free multiply-accumulates; min/max use
    /// select-style conditionals, so the whole loop autovectorizes.
    pub fn update_block(&mut self, vals: &[i64], mask: u64) {
        if mask == 0 {
            return;
        }
        debug_assert!(vals.len() <= 64);
        let mut count = 0i64;
        let mut sum = 0i64;
        let mut mn = self.min;
        let mut mx = self.max;
        for (o, &v) in vals.iter().enumerate() {
            let bit = (mask >> o) & 1;
            let m = bit as i64;
            count += m;
            sum = sum.wrapping_add(v.wrapping_mul(m));
            mn = if bit == 1 && v < mn { v } else { mn };
            mx = if bit == 1 && v > mx { v } else { mx };
        }
        self.count += count;
        self.sum = self.sum.wrapping_add(sum);
        self.min = mn;
        self.max = mx;
    }
}

/// The positions of `mask`'s set bits, ascending: how the fused kernels
/// walk the selected rows of a 64-row block.
#[inline]
pub fn set_bits(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let o = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            o
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn unpack_block_matches_naive_all_widths() {
        for width in [1u8, 2, 3, 5, 8, 11, 13, 16, 21, 32, 40, 63] {
            let (_, packed) = codes_with_width(width, 3000);
            let lit = 1u64 << (width / 2);
            for cmp in [PackedCmp::Eq, PackedCmp::Lt, PackedCmp::Gt] {
                let a: Vec<usize> = scan_naive(&packed, cmp, lit).iter_ones().collect();
                let b: Vec<usize> = scan_unpack_block(&packed, cmp, lit).iter_ones().collect();
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
            let c: Vec<usize> = scan_unpack_block(&packed, PackedCmp::Gt, 100)
                .iter_ones()
                .collect();
            let r = reference(&values, PackedCmp::Gt, 100);
            assert_eq!(a, r, "n {n}");
            assert_eq!(b, r, "n {n}");
            assert_eq!(c, r, "n {n}");
        }
    }

    #[test]
    fn int_fold_matches_scalar_reference() {
        let vals: Vec<i64> = (0..300)
            .map(|i| ((i * 2654435761i64) % 1000) - 500)
            .collect();
        let mut fold = IntFold::default();
        let mut ref_count = 0i64;
        let mut ref_sum = 0i64;
        let mut ref_min = i64::MAX;
        let mut ref_max = i64::MIN;
        for (b, block) in vals.chunks(64).enumerate() {
            let mask = 0xA5A5_A5A5_A5A5_A5A5u64.rotate_left(b as u32);
            fold.update_block(block, mask);
            for (o, &v) in block.iter().enumerate() {
                if (mask >> o) & 1 == 1 {
                    ref_count += 1;
                    ref_sum = ref_sum.wrapping_add(v);
                    ref_min = ref_min.min(v);
                    ref_max = ref_max.max(v);
                }
            }
        }
        assert_eq!(fold.count, ref_count);
        assert_eq!(fold.sum, ref_sum);
        assert_eq!(fold.min, ref_min);
        assert_eq!(fold.max, ref_max);
        let mut empty = IntFold::default();
        empty.update_block(&vals[..64], 0);
        assert_eq!(empty.count, 0);
    }

    #[test]
    fn empty_input() {
        let packed = BitPacked::pack(&[], 8).unwrap();
        assert_eq!(scan_naive(&packed, PackedCmp::Eq, 0).count_ones(), 0);
        assert_eq!(scan_unpack_block(&packed, PackedCmp::Eq, 0).count_ones(), 0);
        assert_eq!(
            scan_swar(&packed, PackedCmp::Eq, 0).unwrap().count_ones(),
            0
        );
    }
}
