//! A packed bitmap used for validity masks, selection vectors, and delete
//! vectors.
//!
//! The representation is a `Vec<u64>` of words plus a logical length in
//! bits. All bulk operations (`union`, `intersect`, `count_ones`) work a
//! word at a time, which the compiler autovectorizes — this matters because
//! delete-vector application sits on the scan hot path.


/// A growable, packed bitmap.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BitSet {
    words: Vec<u64>,
    len: usize,
}

impl BitSet {
    /// Creates an empty bitset.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a bitset of `len` bits, all clear.
    pub fn with_len(len: usize) -> Self {
        Self {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Creates a bitset of `len` bits, all set.
    pub fn all_set(len: usize) -> Self {
        let mut s = Self {
            words: vec![u64::MAX; len.div_ceil(64)],
            len,
        };
        s.clear_trailing();
        s
    }

    fn clear_trailing(&mut self) {
        let tail = self.len % 64;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }

    /// Number of bits in the set.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the set holds zero bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Extends the bitset with `n` clear bits.
    pub fn grow(&mut self, n: usize) {
        self.len += n;
        let need = self.len.div_ceil(64);
        if need > self.words.len() {
            self.words.resize(need, 0);
        }
    }

    /// Appends a single bit.
    pub fn push(&mut self, bit: bool) {
        let idx = self.len;
        self.grow(1);
        if bit {
            self.set(idx);
        }
    }

    /// Sets bit `i`. Panics if out of range.
    #[inline]
    pub fn set(&mut self, i: usize) {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    /// Clears bit `i`. Panics if out of range.
    #[inline]
    pub fn clear(&mut self, i: usize) {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        self.words[i / 64] &= !(1u64 << (i % 64));
    }

    /// Returns bit `i`. Panics if out of range.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Returns bit `i`, or `false` when out of range (useful for sparse
    /// delete vectors that only grow on first delete).
    #[inline]
    pub fn get_or_false(&self, i: usize) -> bool {
        if i < self.len {
            self.get(i)
        } else {
            false
        }
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True when no bit is set.
    pub fn none_set(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// In-place union with `other` (must have the same length).
    pub fn union_with(&mut self, other: &BitSet) {
        assert_eq!(self.len, other.len, "bitset length mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= *b;
        }
    }

    /// In-place intersection with `other` (must have the same length).
    pub fn intersect_with(&mut self, other: &BitSet) {
        assert_eq!(self.len, other.len, "bitset length mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= *b;
        }
    }

    /// In-place set difference: clears every bit set in `other`.
    pub fn difference_with(&mut self, other: &BitSet) {
        assert_eq!(self.len, other.len, "bitset length mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= !*b;
        }
    }

    /// Flips every bit in place.
    pub fn negate(&mut self) {
        for w in &mut self.words {
            *w = !*w;
        }
        self.clear_trailing();
    }

    /// Iterator over the indexes of set bits, ascending.
    pub fn iter_ones(&self) -> Ones<'_> {
        Ones {
            words: &self.words,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
            len: self.len,
        }
    }

    /// Collects set-bit indexes into a `Vec<u32>` selection vector.
    pub fn to_selection(&self) -> Vec<u32> {
        let mut out = Vec::with_capacity(self.count_ones());
        out.extend(self.iter_ones().map(|i| i as u32));
        out
    }

    /// Builds a bitset of length `len` with the given positions set.
    pub fn from_indexes(len: usize, idx: &[usize]) -> Self {
        let mut s = Self::with_len(len);
        for &i in idx {
            s.set(i);
        }
        s
    }

    /// ORs a full 64-bit word of bits into word slot `idx` (bit `idx*64 + j`
    /// for each set bit `j`). Bits beyond the logical length are masked
    /// off. Used by vectorized kernels that produce hits a word at a time.
    pub fn or_word(&mut self, idx: usize, bits: u64) {
        if idx >= self.words.len() || bits == 0 {
            return;
        }
        self.words[idx] |= bits;
        if idx == self.words.len() - 1 {
            self.clear_trailing();
        }
    }

    /// ANDs `bits` into word slot `idx`: the filter-side twin of
    /// [`BitSet::or_word`], for kernels that compare 64 values to a mask
    /// word. Slots past the end are ignored.
    pub fn and_word(&mut self, idx: usize, bits: u64) {
        if let Some(w) = self.words.get_mut(idx) {
            *w &= bits;
        }
    }

    /// Makes this a set of `len` bits, every one equal to `value`, keeping
    /// the allocation: scratch selections are reset once per row group
    /// instead of reallocated.
    pub fn reset(&mut self, len: usize, value: bool) {
        self.words.clear();
        self.words
            .resize(len.div_ceil(64), if value { u64::MAX } else { 0 });
        self.len = len;
        self.clear_trailing();
    }

    /// Raw word access (read-only), used by vectorized kernels.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// ORs `src` into this set with `src`'s bit 0 landing on bit `start` —
    /// the inverse of [`BitSet::slice`], by the same word shifts, so a row
    /// group's selection joins the segment's without a per-bit loop.
    pub fn paste(&mut self, start: usize, src: &BitSet) {
        assert!(start + src.len <= self.len, "paste out of range");
        let base = start / 64;
        let off = start % 64;
        if off == 0 {
            for (d, s) in self.words[base..].iter_mut().zip(&src.words) {
                *d |= *s;
            }
            return;
        }
        for (k, &s) in src.words.iter().enumerate() {
            self.words[base + k] |= s << off;
            // `src` keeps its trailing bits clear, so a non-zero carry
            // belongs to bits below `start + src.len`: the word exists.
            let carry = s >> (64 - off);
            if carry != 0 {
                self.words[base + k + 1] |= carry;
            }
        }
    }

    /// Copies bits `[start, start + len)` into a fresh bitset whose bit 0
    /// is the source's bit `start`. Word-shift copy, so row-group slices of
    /// a segment-wide selection stay cheap even when groups are not
    /// 64-aligned.
    pub fn slice(&self, start: usize, len: usize) -> BitSet {
        assert!(start + len <= self.len, "slice out of range");
        let nwords = len.div_ceil(64);
        let mut words = vec![0u64; nwords];
        let base = start / 64;
        let off = start % 64;
        if off == 0 {
            words.copy_from_slice(&self.words[base..base + nwords]);
        } else {
            for (k, w) in words.iter_mut().enumerate() {
                let lo = self.words[base + k] >> off;
                let hi = self
                    .words
                    .get(base + k + 1)
                    .map_or(0, |next| next << (64 - off));
                *w = lo | hi;
            }
        }
        let mut s = BitSet { words, len };
        s.clear_trailing();
        s
    }

    /// Rebuilds a bitset from raw words and a logical length (the inverse
    /// of [`BitSet::words`], used by the column-page codec). Missing words
    /// are zero-filled; surplus words and trailing bits are masked off.
    pub fn from_words(mut words: Vec<u64>, len: usize) -> Self {
        words.resize(len.div_ceil(64), 0);
        let mut s = Self { words, len };
        s.clear_trailing();
        s
    }
}

/// Iterator over set-bit indexes produced by [`BitSet::iter_ones`].
pub struct Ones<'a> {
    words: &'a [u64],
    word_idx: usize,
    current: u64,
    len: usize,
}

impl Iterator for Ones<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                let idx = self.word_idx * 64 + bit;
                if idx < self.len {
                    return Some(idx);
                }
                return None;
            }
            self.word_idx += 1;
            if self.word_idx >= self.words.len() {
                return None;
            }
            self.current = self.words[self.word_idx];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_clear() {
        let mut b = BitSet::with_len(130);
        assert!(!b.get(0));
        b.set(0);
        b.set(64);
        b.set(129);
        assert!(b.get(0) && b.get(64) && b.get(129));
        assert_eq!(b.count_ones(), 3);
        b.clear(64);
        assert!(!b.get(64));
        assert_eq!(b.count_ones(), 2);
    }

    #[test]
    #[should_panic]
    fn out_of_range_panics() {
        let b = BitSet::with_len(10);
        b.get(10);
    }

    #[test]
    fn get_or_false_tolerates_short_sets() {
        let mut b = BitSet::with_len(5);
        b.set(3);
        assert!(b.get_or_false(3));
        assert!(!b.get_or_false(1000));
    }

    #[test]
    fn all_set_masks_trailing_bits() {
        let b = BitSet::all_set(70);
        assert_eq!(b.count_ones(), 70);
        let b = BitSet::all_set(64);
        assert_eq!(b.count_ones(), 64);
        let b = BitSet::all_set(0);
        assert_eq!(b.count_ones(), 0);
    }

    #[test]
    fn push_and_grow() {
        let mut b = BitSet::new();
        for i in 0..100 {
            b.push(i % 3 == 0);
        }
        assert_eq!(b.len(), 100);
        assert_eq!(b.count_ones(), 34); // 0,3,...,99
    }

    #[test]
    fn boolean_algebra() {
        let mut a = BitSet::from_indexes(10, &[1, 3, 5]);
        let b = BitSet::from_indexes(10, &[3, 5, 7]);
        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(u.to_selection(), vec![1, 3, 5, 7]);
        let mut i = a.clone();
        i.intersect_with(&b);
        assert_eq!(i.to_selection(), vec![3, 5]);
        a.difference_with(&b);
        assert_eq!(a.to_selection(), vec![1]);
    }

    #[test]
    fn negate_respects_length() {
        let mut b = BitSet::from_indexes(70, &[0, 69]);
        b.negate();
        assert_eq!(b.count_ones(), 68);
        assert!(!b.get(0) && !b.get(69));
        assert!(b.get(1));
    }

    #[test]
    fn iter_ones_crosses_words() {
        let idx = [0usize, 63, 64, 127, 128, 199];
        let b = BitSet::from_indexes(200, &idx);
        let got: Vec<usize> = b.iter_ones().collect();
        assert_eq!(got, idx);
    }

    #[test]
    fn slice_matches_per_bit_copy() {
        let idx: Vec<usize> = (0..500).filter(|i| i % 7 == 0 || i % 13 == 0).collect();
        let b = BitSet::from_indexes(500, &idx);
        for (start, len) in [(0, 64), (0, 500), (1, 63), (63, 130), (64, 64), (37, 251), (499, 1), (500, 0)] {
            let s = b.slice(start, len);
            assert_eq!(s.len(), len);
            for i in 0..len {
                assert_eq!(s.get(i), b.get(start + i), "start {start} len {len} bit {i}");
            }
        }
    }

    #[test]
    fn paste_matches_per_bit_copy_and_inverts_slice() {
        let idx: Vec<usize> = (0..300).filter(|i| i % 5 == 0 || i % 11 == 3).collect();
        for len in [0usize, 1, 63, 64, 65, 128, 191, 300] {
            let src = BitSet::from_indexes(300, &idx).slice(0, len);
            for start in [0usize, 1, 37, 63, 64, 65, 127, 200] {
                // Into a destination that already holds bits: paste ORs.
                let total = start + len + 70;
                let before = BitSet::from_indexes(total, &[0, total - 1]);
                let mut got = before.clone();
                got.paste(start, &src);
                let mut want = before;
                for i in src.iter_ones() {
                    want.set(start + i);
                }
                assert_eq!(got, want, "start {start} len {len}");
                assert_eq!(got.slice(start, len).count_ones(), src.count_ones());
            }
        }
        // Flush against the end: the carry word must not be touched.
        let mut tight = BitSet::with_len(127);
        tight.paste(63, &BitSet::all_set(64));
        assert_eq!(tight.to_selection(), (63..127).collect::<Vec<u32>>());
    }

    #[test]
    fn reset_reuses_and_masks() {
        let mut b = BitSet::from_indexes(200, &[3, 199]);
        b.reset(70, true);
        assert_eq!((b.len(), b.count_ones()), (70, 70));
        b.reset(130, false);
        assert_eq!((b.len(), b.count_ones()), (130, 0));
        b.reset(65, true);
        b.and_word(0, 0b101);
        b.and_word(9, 0); // past the end: ignored
        assert_eq!(b.to_selection(), vec![0, 2, 64]);
    }

    #[test]
    fn iter_ones_empty_and_full() {
        assert_eq!(BitSet::with_len(100).iter_ones().count(), 0);
        assert_eq!(BitSet::all_set(100).iter_ones().count(), 100);
        assert_eq!(BitSet::new().iter_ones().count(), 0);
    }
}
