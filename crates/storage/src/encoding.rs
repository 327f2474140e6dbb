//! Column encodings for the compressed in-memory column store.
//!
//! The tutorial attributes much of the analytic speed of HANA, DB2 BLU, and
//! Oracle DBIM to *processing data in compressed form*: order-preserving
//! dictionary compression, run-length encoding, and dense bit-packing let a
//! scan touch a fraction of the bytes and evaluate predicates on small
//! integer codes instead of full values (§3; Willhalm et al. \[42\],
//! Raman et al. \[34\]). This module implements those encodings from scratch:
//!
//! * [`BitPacked`] — fixed-width bit-packing of `u64` codes (the substrate
//!   for everything else).
//! * [`ForPacked`] — frame-of-reference: store `v - min` bit-packed.
//! * [`Rle`] — run-length encoding for sorted/low-churn columns.
//! * [`Dictionary`] — order-preserving dictionary (sorted distinct values,
//!   codes are ranks) over any `Ord` value; comparisons against a literal
//!   become comparisons against a code.
//! * [`IntEncoding`] / [`StrEncoding`] — per-column choice made by a simple
//!   cost model ([`IntEncoding::choose`]).

use oltap_common::hash::FxHashMap;
use oltap_common::{DbError, Result};

// ---------------------------------------------------------------------------
// Bit packing
// ---------------------------------------------------------------------------

/// An unsigned lane packed codes are decoded into. A kernel picks the
/// narrowest one that holds the width, so the compare that follows covers
/// the most codes an instruction can.
pub trait Lane: Copy + Default + Ord {
    /// Bits in the lane.
    const BITS: usize;
    /// The low [`Lane::BITS`] bits of `v`.
    fn truncate(v: u64) -> Self;
}

macro_rules! impl_lane {
    ($($t:ty)*) => {$(
        impl Lane for $t {
            const BITS: usize = <$t>::BITS as usize;
            #[inline(always)]
            fn truncate(v: u64) -> Self {
                v as $t
            }
        }
    )*};
}
impl_lane!(u8 u16 u32 u64);

/// Invokes `$m!` on the literals 0 through 63: the width-specialised
/// unpack bodies and their 64 straight-line extractions are generated from
/// this one list.
macro_rules! seq64 {
    ($m:ident) => {
        $m!(0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23 24 25 26 27 28 29 30 31
            32 33 34 35 36 37 38 39 40 41 42 43 44 45 46 47 48 49 50 51 52 53 54 55 56 57 58 59 60
            61 62 63)
    };
}

/// Code `i` of a 64-code block packed at `W` bits in `words`. With `W` and
/// `i` constants, the word index, the shift and whether the code straddles
/// two words all fold away.
#[inline(always)]
fn code_at<const W: usize>(words: &[u64; W], i: usize) -> u64 {
    let (word, off) = (i * W / 64, i * W % 64);
    let mut v = words[word] >> off;
    if off + W > 64 {
        v |= words[word + 1] << (64 - off);
    }
    if W < 64 {
        v &= (1u64 << W) - 1;
    }
    v
}

/// Unpacks the 64 codes held in the first `W` of `words`: 64 extractions
/// with nothing left to decide at run time. A lane narrower than `W` is a
/// caller's bug ([`BitPacked::unpack_block`] asserts it), and compiles to
/// nothing but the panic.
fn unpack64<const W: usize, T: Lane>(words: &[u64], out: &mut [T; 64]) {
    assert!(W <= T::BITS, "lane narrower than the packed width");
    let words: &[u64; W] = words[..W].try_into().expect("sliced to W words");
    macro_rules! extract {
        ($($i:literal)*) => {
            $(out[$i] = T::truncate(code_at::<W>(words, $i));)*
        };
    }
    seq64!(extract);
}

/// Densely bit-packed unsigned codes with a fixed width of 0..=64 bits.
///
/// Width 0 is the degenerate "all values are zero" case and stores nothing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitPacked {
    width: u8,
    len: usize,
    words: Vec<u64>,
}

impl BitPacked {
    /// Packs `values`, each of which must fit in `width` bits.
    pub fn pack(values: &[u64], width: u8) -> Result<Self> {
        assert!(width as usize <= 64);
        if width < 64 {
            let limit = 1u64 << width;
            if let Some(&bad) = values.iter().find(|&&v| v >= limit) {
                return Err(DbError::InvalidArgument(format!(
                    "value {bad} does not fit in {width} bits"
                )));
            }
        }
        let total_bits = values.len() * width as usize;
        let mut words = vec![0u64; total_bits.div_ceil(64)];
        let w = width as usize;
        for (i, &v) in values.iter().enumerate() {
            if w == 0 {
                continue;
            }
            let bit = i * w;
            let word = bit / 64;
            let off = bit % 64;
            words[word] |= v << off;
            if off + w > 64 {
                words[word + 1] |= v >> (64 - off);
            }
        }
        Ok(BitPacked {
            width,
            len: values.len(),
            words,
        })
    }

    /// Minimal width able to represent every value in `values`.
    pub fn width_for(values: &[u64]) -> u8 {
        let max = values.iter().copied().max().unwrap_or(0);
        if max == 0 {
            0
        } else {
            (64 - max.leading_zeros()) as u8
        }
    }

    /// Number of packed values.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is packed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The fixed width in bits.
    pub fn width(&self) -> u8 {
        self.width
    }

    /// Random access to value `i`.
    #[inline]
    pub fn get(&self, i: usize) -> u64 {
        debug_assert!(i < self.len);
        let w = self.width as usize;
        if w == 0 {
            return 0;
        }
        let bit = i * w;
        let word = bit / 64;
        let off = bit % 64;
        let mask = if w == 64 { u64::MAX } else { (1u64 << w) - 1 };
        let mut v = self.words[word] >> off;
        if off + w > 64 {
            v |= self.words[word + 1] << (64 - off);
        }
        v & mask
    }

    /// Unpacks everything into a fresh vector.
    pub fn unpack(&self) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.len);
        self.unpack_into(&mut out);
        out
    }

    /// Unpacks into `out` (cleared first), a 64-code block at a time.
    pub fn unpack_into(&self, out: &mut Vec<u64>) {
        out.clear();
        out.resize(self.len, 0);
        for (b, block) in out.chunks_mut(64).enumerate() {
            self.unpack_block(b * 64, block);
        }
    }

    /// Decodes `out.len()` consecutive values starting at `start` into
    /// `out`, whose lane must hold the width. This is the one block
    /// accessor every operate-on-compressed kernel uses. A whole block on a
    /// 64-aligned start is exactly `width` whole words, so it dispatches
    /// once on the width to a body whose word indexes, shifts and straddles
    /// are compile-time constants (`unpack64`); any other range walks a
    /// bit cursor.
    #[inline]
    pub fn unpack_block<T: Lane>(&self, start: usize, out: &mut [T]) {
        let w = self.width as usize;
        debug_assert!(start + out.len() <= self.len && w <= T::BITS);
        if w == 0 {
            return out.fill(T::default());
        }
        if start.is_multiple_of(64) {
            if let Ok(out) = <&mut [T; 64]>::try_from(&mut *out) {
                let words = &self.words[start / 64 * w..];
                macro_rules! by_width {
                    ($($i:literal)*) => {
                        match w - 1 {
                            $($i => unpack64::<{ $i + 1 }, T>(words, out),)*
                            _ => unreachable!("bit widths end at 64"),
                        }
                    };
                }
                return seq64!(by_width);
            }
        }
        let mask = if w == 64 { u64::MAX } else { (1u64 << w) - 1 };
        let mut bit = start * w;
        for slot in out.iter_mut() {
            let (word, off) = (bit >> 6, bit & 63);
            let mut v = self.words[word] >> off;
            if off + w > 64 {
                v |= self.words[word + 1] << (64 - off);
            }
            *slot = T::truncate(v & mask);
            bit += w;
        }
    }

    /// Heap bytes used by the packed representation.
    pub fn size_bytes(&self) -> usize {
        self.words.len() * 8
    }

    /// Raw packed words (vectorized kernels operate on these directly).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Reassembles from raw parts (the inverse of [`BitPacked::words`] /
    /// [`BitPacked::width`] / [`BitPacked::len`], used by the column-page
    /// codec). Rejects a word vector too short for `len * width` bits so a
    /// truncated page cannot build an out-of-bounds accessor.
    pub fn from_parts(width: u8, len: usize, words: Vec<u64>) -> Result<Self> {
        if width as usize > 64 {
            return Err(DbError::InvalidArgument(format!(
                "bit width {width} out of range"
            )));
        }
        let need = len
            .checked_mul(width as usize)
            .ok_or_else(|| {
                DbError::Corruption(format!("bit-packed length {len} x width {width} overflows"))
            })?
            .div_ceil(64);
        if words.len() < need {
            return Err(DbError::Corruption(format!(
                "bit-packed payload has {} words, needs {need}",
                words.len()
            )));
        }
        Ok(BitPacked { width, len, words })
    }
}

// ---------------------------------------------------------------------------
// Frame of reference
// ---------------------------------------------------------------------------

/// Frame-of-reference encoding of signed integers: stores `v - min`
/// bit-packed with the minimal width.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ForPacked {
    base: i64,
    packed: BitPacked,
}

impl ForPacked {
    /// Encodes `values`.
    pub fn encode(values: &[i64]) -> Self {
        let base = values.iter().copied().min().unwrap_or(0);
        let shifted: Vec<u64> = values.iter().map(|&v| (v.wrapping_sub(base)) as u64).collect();
        let width = BitPacked::width_for(&shifted);
        ForPacked {
            base,
            packed: BitPacked::pack(&shifted, width).expect("width_for guarantees fit"),
        }
    }

    /// Number of values.
    pub fn len(&self) -> usize {
        self.packed.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.packed.is_empty()
    }

    /// Random access.
    #[inline]
    pub fn get(&self, i: usize) -> i64 {
        self.base.wrapping_add(self.packed.get(i) as i64)
    }

    /// Decodes everything.
    pub fn decode(&self) -> Vec<i64> {
        (0..self.len()).map(|i| self.get(i)).collect()
    }

    /// The frame base (minimum value).
    pub fn base(&self) -> i64 {
        self.base
    }

    /// Bits per value.
    pub fn width(&self) -> u8 {
        self.packed.width()
    }

    /// Heap bytes used.
    pub fn size_bytes(&self) -> usize {
        self.packed.size_bytes() + 8
    }

    /// The underlying bit-packed shifted codes (for serialization).
    pub fn packed(&self) -> &BitPacked {
        &self.packed
    }

    /// Reassembles from a frame base and packed codes (page codec inverse
    /// of [`ForPacked::base`] / [`ForPacked::packed`]).
    pub fn from_parts(base: i64, packed: BitPacked) -> Self {
        ForPacked { base, packed }
    }
}

// ---------------------------------------------------------------------------
// Run-length encoding
// ---------------------------------------------------------------------------

/// Run-length encoding of `i64` values: `(value, run_length)` pairs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rle {
    runs: Vec<(i64, u32)>,
    len: usize,
}

impl Rle {
    /// Encodes `values`.
    pub fn encode(values: &[i64]) -> Self {
        let mut runs: Vec<(i64, u32)> = Vec::new();
        for &v in values {
            match runs.last_mut() {
                Some((rv, rl)) if *rv == v && *rl < u32::MAX => *rl += 1,
                _ => runs.push((v, 1)),
            }
        }
        Rle {
            runs,
            len: values.len(),
        }
    }

    /// Number of values.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of runs (compression quality metric).
    pub fn run_count(&self) -> usize {
        self.runs.len()
    }

    /// The runs.
    pub fn runs(&self) -> &[(i64, u32)] {
        &self.runs
    }

    /// Decodes everything.
    pub fn decode(&self) -> Vec<i64> {
        let mut out = Vec::with_capacity(self.len);
        for &(v, n) in &self.runs {
            out.extend(std::iter::repeat_n(v, n as usize));
        }
        out
    }

    /// Random access by binary search over cumulative run offsets — O(runs)
    /// here since we do a linear scan; callers needing hot random access
    /// should decode first.
    pub fn get(&self, mut i: usize) -> i64 {
        for &(v, n) in &self.runs {
            if i < n as usize {
                return v;
            }
            i -= n as usize;
        }
        panic!("RLE index out of range");
    }

    /// Heap bytes used.
    pub fn size_bytes(&self) -> usize {
        self.runs.len() * 12
    }

    /// Reassembles from runs (page codec inverse of [`Rle::runs`]). The
    /// run lengths must sum to `len`; a mismatch means a corrupt page.
    pub fn from_parts(runs: Vec<(i64, u32)>, len: usize) -> Result<Self> {
        let total: usize = runs.iter().map(|&(_, n)| n as usize).sum();
        if total != len {
            return Err(DbError::Corruption(format!(
                "RLE runs cover {total} rows, header says {len}"
            )));
        }
        Ok(Rle { runs, len })
    }
}

// ---------------------------------------------------------------------------
// Sorted-run delta encoding
// ---------------------------------------------------------------------------

/// Delta encoding for *non-decreasing* integer runs: the value at every
/// 64-row block start is stored verbatim (an anchor) and everything else as
/// a bit-packed unsigned delta from its predecessor. Sorted cold data — a
/// time column ordered by the merge, a clustered key — compresses to the
/// width of its typical *step* instead of its range, and sortedness makes
/// range predicates answerable by binary search instead of a scan.
///
/// Only the freeze pass emits this encoding ([`IntEncoding::choose_frozen`]);
/// the hot write path never pays the sortedness check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeltaEnc {
    anchors: Vec<i64>,
    deltas: BitPacked,
    len: usize,
}

impl DeltaEnc {
    /// Encodes `values` when they are non-decreasing; `None` otherwise.
    pub fn try_encode(values: &[i64]) -> Option<Self> {
        if values.windows(2).any(|w| w[0] > w[1]) {
            return None;
        }
        let mut anchors = Vec::with_capacity(values.len().div_ceil(64));
        let mut deltas = Vec::with_capacity(values.len());
        for (i, &v) in values.iter().enumerate() {
            if i % 64 == 0 {
                anchors.push(v);
                deltas.push(0);
            } else {
                // Non-decreasing ⇒ the true difference is non-negative and
                // fits u64 even across the full i64 range.
                deltas.push(v.wrapping_sub(values[i - 1]) as u64);
            }
        }
        let width = BitPacked::width_for(&deltas);
        Some(DeltaEnc {
            anchors,
            deltas: BitPacked::pack(&deltas, width).expect("width_for guarantees fit"),
            len: values.len(),
        })
    }

    /// Number of values.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Random access: decode the 64-block prefix up to `i`.
    pub fn get(&self, i: usize) -> i64 {
        debug_assert!(i < self.len);
        let bstart = (i / 64) * 64;
        let mut v = self.anchors[i / 64];
        let n = i - bstart;
        if n > 0 {
            let mut buf = [0u64; 64];
            self.deltas.unpack_block(bstart + 1, &mut buf[..n]);
            for &d in &buf[..n] {
                v = v.wrapping_add(d as i64);
            }
        }
        v
    }

    /// Decodes `out.len()` consecutive values starting at `start` — the
    /// block accessor the scan kernels feed from. Runs a prefix sum over
    /// each touched 64-delta block from its anchor.
    pub fn decode_block(&self, start: usize, out: &mut [i64]) {
        debug_assert!(start + out.len() <= self.len);
        let mut filled = 0usize;
        let mut bstart = (start / 64) * 64;
        let mut dbuf = [0u64; 64];
        while filled < out.len() {
            let blen = (self.len - bstart).min(64);
            self.deltas.unpack_block(bstart, &mut dbuf[..blen]);
            let mut v = self.anchors[bstart / 64];
            for (j, &d) in dbuf[..blen].iter().enumerate() {
                if j > 0 {
                    v = v.wrapping_add(d as i64);
                }
                if bstart + j >= start {
                    out[filled] = v;
                    filled += 1;
                    if filled == out.len() {
                        return;
                    }
                }
            }
            bstart += blen;
        }
    }

    /// Decodes everything.
    pub fn decode(&self) -> Vec<i64> {
        let mut out = vec![0i64; self.len];
        if self.len > 0 {
            self.decode_block(0, &mut out);
        }
        out
    }

    /// First index whose value is `>= value` (the column is sorted, so
    /// range predicates become two binary searches).
    pub fn lower_bound(&self, value: i64) -> usize {
        let (mut lo, mut hi) = (0usize, self.len);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.get(mid) < value {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// First index whose value is `> value`.
    pub fn upper_bound(&self, value: i64) -> usize {
        let (mut lo, mut hi) = (0usize, self.len);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.get(mid) <= value {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Heap bytes used.
    pub fn size_bytes(&self) -> usize {
        self.anchors.len() * 8 + self.deltas.size_bytes()
    }

    /// Block anchors (for serialization).
    pub fn anchors(&self) -> &[i64] {
        &self.anchors
    }

    /// Packed per-row deltas (for serialization).
    pub fn deltas(&self) -> &BitPacked {
        &self.deltas
    }

    /// Reassembles from parts (page codec inverse of [`DeltaEnc::anchors`] /
    /// [`DeltaEnc::deltas`]). The shape must be internally consistent or the
    /// page is corrupt.
    pub fn from_parts(anchors: Vec<i64>, deltas: BitPacked, len: usize) -> Result<Self> {
        if deltas.len() != len || anchors.len() != len.div_ceil(64) {
            return Err(DbError::Corruption(format!(
                "delta encoding shape mismatch: {} anchors / {} deltas for {len} rows",
                anchors.len(),
                deltas.len()
            )));
        }
        Ok(DeltaEnc {
            anchors,
            deltas,
            len,
        })
    }
}

// ---------------------------------------------------------------------------
// Order-preserving dictionary
// ---------------------------------------------------------------------------

/// Order-preserving dictionary encoding over any `Ord + Clone` value.
///
/// The dictionary is the sorted distinct values; a code is the rank of its
/// value, so `code_a < code_b ⇔ value_a < value_b` and range predicates can
/// be evaluated entirely on codes (the HANA/BLU trick the paper highlights).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dictionary<T: Ord + Clone> {
    dict: Vec<T>,
    codes: BitPacked,
}

impl<T: Ord + Clone + std::hash::Hash> Dictionary<T> {
    /// Builds the dictionary and codes for `values`.
    pub fn encode(values: &[T]) -> Self {
        let mut dict: Vec<T> = values.to_vec();
        dict.sort_unstable();
        dict.dedup();
        let rank: FxHashMap<&T, u64> = dict
            .iter()
            .enumerate()
            .map(|(i, v)| (v, i as u64))
            .collect();
        let codes: Vec<u64> = values.iter().map(|v| rank[v]).collect();
        let width = BitPacked::width_for(&codes);
        Dictionary {
            dict,
            codes: BitPacked::pack(&codes, width).expect("codes fit"),
        }
    }

    /// Number of encoded values.
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// Dictionary cardinality.
    pub fn cardinality(&self) -> usize {
        self.dict.len()
    }

    /// The sorted distinct values.
    pub fn dict(&self) -> &[T] {
        &self.dict
    }

    /// The packed codes.
    pub fn codes(&self) -> &BitPacked {
        &self.codes
    }

    /// The value at row `i`.
    pub fn get(&self, i: usize) -> &T {
        &self.dict[self.codes.get(i) as usize]
    }

    /// Decodes all rows.
    pub fn decode(&self) -> Vec<T> {
        (0..self.len()).map(|i| self.get(i).clone()).collect()
    }

    /// The code for `value` if it occurs in the dictionary.
    pub fn code_of(&self, value: &T) -> Option<u64> {
        self.dict.binary_search(value).ok().map(|i| i as u64)
    }

    /// The rank a value *would* have: the number of dictionary entries
    /// `< value`. Lets range predicates on absent literals still be lowered
    /// to code comparisons.
    pub fn lower_bound_code(&self, value: &T) -> u64 {
        match self.dict.binary_search(value) {
            Ok(i) | Err(i) => i as u64,
        }
    }

    /// Reassembles from a sorted dictionary and packed codes (page codec
    /// inverse of [`Dictionary::dict`] / [`Dictionary::codes`]). Every code
    /// must index into the dictionary; out-of-range codes mean corruption.
    pub fn from_parts(dict: Vec<T>, codes: BitPacked) -> Result<Self> {
        let card = dict.len() as u64;
        // This runs on every fault of a dictionary page. When the dictionary
        // has an entry for every code the width can spell there is nothing
        // to check (an 8-entry dictionary under 3-bit codes); otherwise one
        // `get` per row is the cheapest exact check measured — unpacking
        // 64-code blocks and comparing their maximum costs a third more.
        let spellable = 1u64.checked_shl(u32::from(codes.width()));
        if spellable.is_none_or(|n| n > card) {
            if let Some(bad) = (0..codes.len()).map(|i| codes.get(i)).find(|&c| c >= card) {
                return Err(DbError::Corruption(format!(
                    "dictionary code {bad} out of range (cardinality {card})"
                )));
            }
        }
        Ok(Dictionary { dict, codes })
    }
}

impl Dictionary<String> {
    /// Heap bytes used (dictionary strings + packed codes).
    pub fn size_bytes(&self) -> usize {
        self.dict.iter().map(|s| s.len() + 24).sum::<usize>() + self.codes.size_bytes()
    }
}

// ---------------------------------------------------------------------------
// Per-column encoding selection
// ---------------------------------------------------------------------------

/// The encoding chosen for an `i64` column chunk.
#[derive(Debug, Clone, PartialEq)]
pub enum IntEncoding {
    /// Uncompressed values (fallback / incompressible).
    Raw(Vec<i64>),
    /// Frame-of-reference bit-packed.
    For(ForPacked),
    /// Run-length encoded.
    Rle(Rle),
    /// Dictionary (pays off at very low cardinality with wide ranges).
    Dict(Box<Dictionary<i64>>),
    /// Sorted-run delta encoding (frozen cold segments only).
    Delta(DeltaEnc),
}

impl IntEncoding {
    /// Picks the smallest encoding for `values` by measuring each
    /// candidate's footprint (cheap: FOR and RLE are O(n), dictionary is
    /// only attempted when a sample suggests low cardinality).
    pub fn choose(values: &[i64]) -> Self {
        if values.is_empty() {
            return IntEncoding::Raw(Vec::new());
        }
        let raw_size = values.len() * 8;
        let fo = ForPacked::encode(values);
        let fo_size = fo.size_bytes();

        let rle = Rle::encode(values);
        let rle_size = rle.size_bytes();
        // Sample cardinality to decide whether a dictionary is worth building.
        let sample_card = {
            let mut set = oltap_common::hash::FxHashSet::default();
            for &v in values.iter().take(1024) {
                set.insert(v);
            }
            set.len()
        };
        let dict = if sample_card <= 256 {
            Some(Dictionary::encode(values))
        } else {
            None
        };
        let dict_size = dict
            .as_ref()
            .map(|d| d.dict().len() * 8 + d.codes().size_bytes())
            .unwrap_or(usize::MAX);

        let best = [
            (raw_size, 0usize),
            (fo_size, 1),
            (rle_size, 2),
            (dict_size, 3),
        ]
        .into_iter()
        .min_by_key(|&(s, _)| s)
        .unwrap()
        .1;

        match best {
            1 => IntEncoding::For(fo),
            2 => IntEncoding::Rle(rle),
            3 => IntEncoding::Dict(Box::new(dict.unwrap())),
            _ => IntEncoding::Raw(values.to_vec()),
        }
    }

    /// The freeze-pass encoding choice: exact costing with every candidate
    /// on the table. Unlike [`IntEncoding::choose`], the dictionary is
    /// costed from the *full* cardinality (no 1024-row sample cap — cold
    /// data is rewritten once, off the write path, so the O(n log n) build
    /// is acceptable) and sorted runs are offered [`DeltaEnc`]. Ties prefer
    /// FOR, whose packed codes feed the code-domain compare kernel directly.
    pub fn choose_frozen(values: &[i64]) -> Self {
        if values.is_empty() {
            return IntEncoding::Raw(Vec::new());
        }
        let raw_size = values.len() * 8;
        let fo = ForPacked::encode(values);
        let fo_size = fo.size_bytes();
        let rle = Rle::encode(values);
        let rle_size = rle.size_bytes();
        let dict = Dictionary::encode(values);
        let dict_size = dict.dict().len() * 8 + dict.codes().size_bytes();
        let delta = DeltaEnc::try_encode(values);
        let delta_size = delta.as_ref().map(|d| d.size_bytes()).unwrap_or(usize::MAX);

        let best = [
            (fo_size, 0usize),
            (delta_size, 1),
            (rle_size, 2),
            (dict_size, 3),
            (raw_size, 4),
        ]
        .into_iter()
        .min_by_key(|&(s, _)| s)
        .unwrap()
        .1;

        match best {
            0 => IntEncoding::For(fo),
            1 => IntEncoding::Delta(delta.unwrap()),
            2 => IntEncoding::Rle(rle),
            3 => IntEncoding::Dict(Box::new(dict)),
            _ => IntEncoding::Raw(values.to_vec()),
        }
    }

    /// Number of values.
    pub fn len(&self) -> usize {
        match self {
            IntEncoding::Raw(v) => v.len(),
            IntEncoding::For(f) => f.len(),
            IntEncoding::Rle(r) => r.len(),
            IntEncoding::Dict(d) => d.len(),
            IntEncoding::Delta(d) => d.len(),
        }
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Random access.
    pub fn get(&self, i: usize) -> i64 {
        match self {
            IntEncoding::Raw(v) => v[i],
            IntEncoding::For(f) => f.get(i),
            IntEncoding::Rle(r) => r.get(i),
            IntEncoding::Dict(d) => *d.get(i),
            IntEncoding::Delta(d) => d.get(i),
        }
    }

    /// Decodes the whole chunk.
    pub fn decode(&self) -> Vec<i64> {
        match self {
            IntEncoding::Raw(v) => v.clone(),
            IntEncoding::For(f) => f.decode(),
            IntEncoding::Rle(r) => r.decode(),
            IntEncoding::Dict(d) => d.decode(),
            IntEncoding::Delta(d) => d.decode(),
        }
    }

    /// Heap bytes used.
    pub fn size_bytes(&self) -> usize {
        match self {
            IntEncoding::Raw(v) => v.len() * 8,
            IntEncoding::For(f) => f.size_bytes(),
            IntEncoding::Rle(r) => r.size_bytes(),
            IntEncoding::Dict(d) => d.dict().len() * 8 + d.codes().size_bytes(),
            IntEncoding::Delta(d) => d.size_bytes(),
        }
    }

    /// Short name for diagnostics and the compression experiment.
    pub fn name(&self) -> &'static str {
        match self {
            IntEncoding::Raw(_) => "raw",
            IntEncoding::For(_) => "for",
            IntEncoding::Rle(_) => "rle",
            IntEncoding::Dict(_) => "dict",
            IntEncoding::Delta(_) => "delta",
        }
    }
}

/// The encoding chosen for a string column chunk (always dictionary — the
/// paper's systems do the same; raw is kept for incompressible columns).
#[derive(Debug, Clone, PartialEq)]
pub enum StrEncoding {
    /// Uncompressed strings.
    Raw(Vec<String>),
    /// Order-preserving dictionary.
    Dict(Box<Dictionary<String>>),
}

impl StrEncoding {
    /// Chooses dictionary when it is smaller than raw storage.
    pub fn choose(values: &[String]) -> Self {
        if values.is_empty() {
            return StrEncoding::Raw(Vec::new());
        }
        let dict = Dictionary::encode(values);
        let raw_size: usize = values.iter().map(|s| s.len() + 24).sum();
        if dict.size_bytes() < raw_size {
            StrEncoding::Dict(Box::new(dict))
        } else {
            StrEncoding::Raw(values.to_vec())
        }
    }

    /// Number of values.
    pub fn len(&self) -> usize {
        match self {
            StrEncoding::Raw(v) => v.len(),
            StrEncoding::Dict(d) => d.len(),
        }
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Random access.
    pub fn get(&self, i: usize) -> &str {
        match self {
            StrEncoding::Raw(v) => &v[i],
            StrEncoding::Dict(d) => d.get(i),
        }
    }

    /// Decodes the whole chunk.
    pub fn decode(&self) -> Vec<String> {
        match self {
            StrEncoding::Raw(v) => v.clone(),
            StrEncoding::Dict(d) => d.decode(),
        }
    }

    /// Heap bytes used.
    pub fn size_bytes(&self) -> usize {
        match self {
            StrEncoding::Raw(v) => v.iter().map(|s| s.len() + 24).sum(),
            StrEncoding::Dict(d) => d.size_bytes(),
        }
    }

    /// Short name for diagnostics.
    pub fn name(&self) -> &'static str {
        match self {
            StrEncoding::Raw(_) => "raw",
            StrEncoding::Dict(_) => "dict",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitpack_roundtrip_widths() {
        for width in [0u8, 1, 3, 7, 8, 13, 31, 32, 33, 63, 64] {
            let max = if width == 0 {
                0
            } else if width == 64 {
                u64::MAX
            } else {
                (1u64 << width) - 1
            };
            let values: Vec<u64> = (0..257).map(|i| (i as u64 * 2654435761) & max).collect();
            let packed = BitPacked::pack(&values, width).unwrap();
            assert_eq!(packed.unpack(), values, "width {width}");
            for (i, &v) in values.iter().enumerate() {
                assert_eq!(packed.get(i), v, "width {width} idx {i}");
            }
        }
    }

    #[test]
    fn unpack_block_matches_get_at_any_offset() {
        /// `unpack_block` into lane `T` against `get`, for every length at
        /// aligned and unaligned starts.
        fn check<T: Lane + std::fmt::Debug>(packed: &BitPacked, values: &[u64]) {
            for len in [0usize, 1, 63, 64, 65, 1000] {
                for start in [0usize, 64, 128, 1, 63, 65, 77] {
                    let mut out = vec![T::default(); len];
                    packed.unpack_block(start, &mut out);
                    let want: Vec<T> = (start..start + len).map(|i| T::truncate(packed.get(i))).collect();
                    assert_eq!(out, want, "width {} at {start} len {len}", packed.width());
                    assert!(values[start..start + len].iter().zip(&out).all(|(&v, &o)| T::truncate(v) == o));
                }
            }
        }
        for width in 0u8..=64 {
            let max = match width {
                0 => 0,
                64 => u64::MAX,
                w => (1u64 << w) - 1,
            };
            // Every seventh value the maximum, so every bit of a code is seen set.
            let values: Vec<u64> = (0..1200u64)
                .map(|i| if i % 7 == 0 { max } else { i.wrapping_mul(0x9E37_79B9_7F4A_7C15) & max })
                .collect();
            let packed = BitPacked::pack(&values, width).unwrap();
            check::<u64>(&packed, &values);
            match width {
                0..=8 => {
                    check::<u8>(&packed, &values);
                    check::<u16>(&packed, &values);
                }
                9..=16 => check::<u16>(&packed, &values),
                17..=32 => check::<u32>(&packed, &values),
                _ => {}
            }
            assert_eq!(packed.unpack(), values, "width {width}");
        }
    }

    #[test]
    fn bitpack_rejects_oversized() {
        assert!(BitPacked::pack(&[8], 3).is_err());
        assert!(BitPacked::pack(&[7], 3).is_ok());
    }

    #[test]
    fn width_for_examples() {
        assert_eq!(BitPacked::width_for(&[]), 0);
        assert_eq!(BitPacked::width_for(&[0, 0]), 0);
        assert_eq!(BitPacked::width_for(&[1]), 1);
        assert_eq!(BitPacked::width_for(&[255]), 8);
        assert_eq!(BitPacked::width_for(&[256]), 9);
        assert_eq!(BitPacked::width_for(&[u64::MAX]), 64);
    }

    #[test]
    fn for_roundtrip_negative_values() {
        let values = vec![-100i64, -50, 0, 25, 99, -100, 99];
        let f = ForPacked::encode(&values);
        assert_eq!(f.decode(), values);
        assert_eq!(f.base(), -100);
        assert_eq!(f.width(), 8); // range 199 fits in 8 bits
    }

    #[test]
    fn for_handles_extremes() {
        let values = vec![i64::MIN, i64::MAX, 0];
        let f = ForPacked::encode(&values);
        assert_eq!(f.decode(), values);
    }

    #[test]
    fn rle_roundtrip_and_compression() {
        let values: Vec<i64> = (0..1000).map(|i| i / 100).collect();
        let r = Rle::encode(&values);
        assert_eq!(r.run_count(), 10);
        assert_eq!(r.decode(), values);
        assert_eq!(r.get(0), 0);
        assert_eq!(r.get(999), 9);
        assert!(r.size_bytes() < values.len() * 8 / 10);
    }

    #[test]
    fn dict_is_order_preserving() {
        let values: Vec<String> = ["pear", "apple", "fig", "apple", "pear"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let d = Dictionary::encode(&values);
        assert_eq!(d.cardinality(), 3);
        assert_eq!(d.decode(), values);
        // Codes order like values: apple < fig < pear.
        let ca = d.code_of(&"apple".to_string()).unwrap();
        let cf = d.code_of(&"fig".to_string()).unwrap();
        let cp = d.code_of(&"pear".to_string()).unwrap();
        assert!(ca < cf && cf < cp);
        assert_eq!(d.code_of(&"grape".to_string()), None);
        // lower_bound: 'grape' sorts between fig and pear.
        assert_eq!(d.lower_bound_code(&"grape".to_string()), cp);
    }

    #[test]
    fn dict_from_parts_rejects_the_first_code_past_the_dictionary() {
        let pack = |codes: &[u64], width: u8| BitPacked::pack(codes, width).unwrap();
        let mut codes: Vec<u64> = (0..200).map(|i| i % 5).collect();
        let dict: Vec<i64> = (0..5).map(|v| v * 10).collect();
        let ok = Dictionary::from_parts(dict.clone(), pack(&codes, 3)).unwrap();
        assert_eq!(ok.get(7), &20);
        // Past the first 64-row block, with a larger offender after it: the
        // message names the first one, as the per-row check did.
        codes[130] = 6;
        codes[190] = 7;
        match Dictionary::from_parts(dict.clone(), pack(&codes, 3)) {
            Err(DbError::Corruption(m)) => {
                assert_eq!(m, "dictionary code 6 out of range (cardinality 5)")
            }
            other => panic!("{other:?}"),
        }
        // Zero-width codes are all code 0, which needs one dictionary entry.
        assert!(Dictionary::from_parts(vec![9i64], pack(&[0; 70], 0)).is_ok());
        assert!(matches!(
            Dictionary::<i64>::from_parts(Vec::new(), pack(&[0; 70], 0)),
            Err(DbError::Corruption(_))
        ));
        assert!(Dictionary::<i64>::from_parts(Vec::new(), pack(&[], 0)).is_ok());
    }

    #[test]
    fn int_encoding_choices() {
        // Sorted low-churn → RLE.
        let runs: Vec<i64> = (0..10_000).map(|i| i / 1000).collect();
        assert_eq!(IntEncoding::choose(&runs).name(), "rle");
        // Narrow range randoms → FOR.
        let narrow: Vec<i64> = (0..10_000)
            .map(|i| 1_000_000 + ((i * 2654435761u64 as i64) % 1000).abs())
            .collect();
        let e = IntEncoding::choose(&narrow);
        assert!(e.name() == "for" || e.name() == "dict", "got {}", e.name());
        assert_eq!(e.decode(), narrow);
        // Wide-range randoms → raw or for(64); must roundtrip regardless.
        let wide: Vec<i64> = (0..1000)
            .map(|i| (i as i64).wrapping_mul(0x9E3779B97F4A7C15u64 as i64))
            .collect();
        let e = IntEncoding::choose(&wide);
        assert_eq!(e.decode(), wide);
    }

    #[test]
    fn int_encoding_random_access_matches_decode() {
        let values: Vec<i64> = (0..500).map(|i| (i % 7) * 100).collect();
        for enc in [
            IntEncoding::Raw(values.clone()),
            IntEncoding::For(ForPacked::encode(&values)),
            IntEncoding::Rle(Rle::encode(&values)),
            IntEncoding::Dict(Box::new(Dictionary::encode(&values))),
        ] {
            let dec = enc.decode();
            for i in [0usize, 1, 250, 499] {
                assert_eq!(enc.get(i), dec[i], "{}", enc.name());
            }
        }
    }

    #[test]
    fn str_encoding_chooses_dict_for_low_cardinality() {
        let values: Vec<String> = (0..1000).map(|i| format!("status_{}", i % 4)).collect();
        let e = StrEncoding::choose(&values);
        assert_eq!(e.name(), "dict");
        assert_eq!(e.decode(), values);
        assert!(e.size_bytes() < 1000 * 10);
    }

    #[test]
    fn str_encoding_falls_back_to_raw() {
        // All-distinct long strings: dictionary adds only overhead.
        let values: Vec<String> = (0..100).map(|i| format!("unique-value-{i:06}")).collect();
        let e = StrEncoding::choose(&values);
        assert_eq!(e.decode(), values);
    }

    #[test]
    fn empty_inputs() {
        assert_eq!(IntEncoding::choose(&[]).len(), 0);
        assert_eq!(StrEncoding::choose(&[]).len(), 0);
        assert!(ForPacked::encode(&[]).is_empty());
        assert!(Rle::encode(&[]).is_empty());
    }
}
