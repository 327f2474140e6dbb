//! The two block primitives the fused filter+aggregate path
//! ([`crate::fused`]) is built from: an integer fold over the selected
//! lanes of a 64-row block, and the walk over a mask's set bits.
//!
//! Predicates over packed codes are evaluated in the storage layer
//! (`oltap_storage::segment::cmp_codes_block`); the naive and SWAR scans
//! that E3 / E18 / E19 compare it against live in
//! `oltap-bench::baselines::packed_scan`.

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
}
