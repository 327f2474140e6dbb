//! Packed-code scan baselines: the comparison subjects of E3, E18 and E19.
//!
//! Willhalm et al.'s SIMD-scan (paper §3, \[42\]) evaluates predicates
//! directly on packed dictionary codes, processing many codes per vector
//! register. The engine's form of that idea is
//! [`oltap_storage::segment::cmp_codes_block`] (unpack 64 codes by a
//! width-specialised body into the narrowest lane that holds them, compare
//! all 64 into byte-wide hits, gather the hits into a mask word by
//! multiplication), wrapped here as [`scan_engine_block`]. The rest of this
//! module is what the experiments measure it against; no statement reaches
//! any of it:
//!
//! * [`scan_naive`] — a bounds-checked `get(i)` per code, the shape every
//!   row-at-a-time engine is stuck with.
//! * [`scan_swar`] / [`scan_swar_band`] — SIMD-within-a-register: for
//!   widths that divide 64, compare all codes inside each `u64` word
//!   *simultaneously* using the classic parallel-compare bit tricks (no
//!   per-code loop at all).

use oltap_common::BitSet;
use oltap_storage::encoding::BitPacked;
use oltap_storage::segment::cmp_codes_block;
use oltap_storage::CmpOp;

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

/// The engine's kernel ([`cmp_codes_block`]) in the baselines' call shape,
/// so the harnesses time like against like: one fresh bitmap per scan.
pub fn scan_engine_block(codes: &BitPacked, cmp: PackedCmp, literal: u64) -> BitSet {
    let op = match cmp {
        PackedCmp::Eq => CmpOp::Eq,
        PackedCmp::Lt => CmpOp::Lt,
        PackedCmp::Gt => CmpOp::Gt,
    };
    let mut out = BitSet::all_set(codes.len());
    cmp_codes_block(codes, (op, literal), None, None, &mut out);
    out
}

/// SWAR scan: for widths 1/2/4/8/16/32 (codes aligned within words),
/// compare every code of a 64-bit word at once.
///
/// Technique (Lamport 1975 / Willhalm et al.): with `w`-bit lanes,
/// `x - y` per lane with borrow isolation gives per-lane `<`; equality is
/// `~(x ^ y)` collapsing to the lane's top bit. Returns `None` when the
/// width is unsupported.
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
