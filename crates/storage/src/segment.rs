//! Immutable compressed columnar segments — the "main" store.
//!
//! A segment is the unit of the read-optimized column store: a few hundred
//! thousand rows, each column independently encoded
//! ([`crate::encoding`]), fronted by a [`ZoneMap`], and carrying an MVCC
//! *delete-stamp table* so that logical deletes/updates of merged rows
//! remain snapshot-consistent (the DB2 BLU approach: "deletes are logical
//! operations that retain the old version rows").
//!
//! MVCC contract: segments are built only from rows whose commit timestamp
//! is at or below the transaction manager's GC watermark at merge time, so
//! every live snapshot can see every merged row. Visibility therefore
//! reduces to "not (visibly deleted)".

use crate::buffer::{PageGuard, ScanPass, SegmentPager};
use crate::encoding::{BitPacked, IntEncoding, Lane, StrEncoding};
use crate::pagefile::{PageFile, PageFileWriter};
use crate::predicate::{CmpOp, ColumnPredicate, ScanPredicate};
use crate::zonemap::{ColumnZone, ZoneMap};
use oltap_common::hash::FxHashMap;
use oltap_common::ids::{SegmentId, TxnId};
use oltap_common::{BitSet, ColumnVector, DataType, DbError, Result, Row, Value};
use oltap_common::schema::SchemaRef;
use oltap_txn::{Stamp, Ts};
use parking_lot::RwLock;
use std::mem::take;
use std::ops::Range;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

/// One encoded column plus its validity bitmap.
#[derive(Debug, Clone)]
pub enum EncodedColumn {
    /// Int64/Timestamp column.
    Int {
        /// The chosen encoding.
        enc: IntEncoding,
        /// Validity (None = all valid).
        validity: Option<BitSet>,
    },
    /// Float64 column (stored raw: float compression is future work).
    Float {
        /// Dense values.
        values: Vec<f64>,
        /// Validity.
        validity: Option<BitSet>,
    },
    /// Utf8 column.
    Str {
        /// The chosen encoding.
        enc: StrEncoding,
        /// Validity.
        validity: Option<BitSet>,
    },
    /// Bool column.
    Bool {
        /// Packed values.
        values: BitSet,
        /// Validity.
        validity: Option<BitSet>,
    },
}

impl EncodedColumn {
    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            EncodedColumn::Int { enc, .. } => enc.len(),
            EncodedColumn::Float { values, .. } => values.len(),
            EncodedColumn::Str { enc, .. } => enc.len(),
            EncodedColumn::Bool { values, .. } => values.len(),
        }
    }

    /// True when the column holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Heap bytes used by the encoded form.
    pub fn size_bytes(&self) -> usize {
        let v = match self {
            EncodedColumn::Int { enc, .. } => enc.size_bytes(),
            EncodedColumn::Float { values, .. } => values.len() * 8,
            EncodedColumn::Str { enc, .. } => enc.size_bytes(),
            EncodedColumn::Bool { values, .. } => values.len() / 8 + 8,
        };
        v + self.validity().map_or(0, |b| b.len() / 8 + 8)
    }

    /// The validity bitmap (`None` = no NULLs).
    pub fn validity(&self) -> Option<&BitSet> {
        match self {
            EncodedColumn::Int { validity, .. }
            | EncodedColumn::Float { validity, .. }
            | EncodedColumn::Str { validity, .. }
            | EncodedColumn::Bool { validity, .. } => validity.as_ref(),
        }
    }

    /// Encoding name for diagnostics.
    pub fn encoding_name(&self) -> &'static str {
        match self {
            EncodedColumn::Int { enc, .. } => enc.name(),
            EncodedColumn::Float { .. } => "raw",
            EncodedColumn::Str { enc, .. } => enc.name(),
            EncodedColumn::Bool { .. } => "bitpack",
        }
    }

    /// Materializes the value at row `i`.
    pub fn value_at(&self, i: usize) -> Value {
        if let Some(v) = self.validity() {
            if !v.get(i) {
                return Value::Null;
            }
        }
        match self {
            EncodedColumn::Int { enc, .. } => Value::Int(enc.get(i)),
            EncodedColumn::Float { values, .. } => Value::Float(values[i]),
            EncodedColumn::Str { enc, .. } => Value::Str(enc.get(i).to_string()),
            EncodedColumn::Bool { values, .. } => Value::Bool(values.get(i)),
        }
    }

    /// Gathers `sel` rows into a decoded [`ColumnVector`]. `sel` must be
    /// ascending (scan selections always are).
    pub fn gather(&self, sel: &[u32]) -> ColumnVector {
        debug_assert!(sel.windows(2).all(|w| w[0] < w[1]), "gather needs ascending indexes");
        // Contiguous-selection fast path: full-group scans and dense ranges
        // decode sequentially (block cursor + memcpy) instead of per-index.
        if let Some(&first) = sel.first() {
            let last = sel[sel.len() - 1];
            if (last - first) as usize == sel.len() - 1 {
                return self.gather_range(first as usize, sel.len());
            }
        }
        let gather_validity = |validity: &Option<BitSet>| {
            validity.as_ref().map(|v| {
                let mut out = BitSet::with_len(sel.len());
                for (o, &s) in sel.iter().enumerate() {
                    if v.get(s as usize) {
                        out.set(o);
                    }
                }
                out
            })
        };
        match self {
            EncodedColumn::Int { enc, validity } => ColumnVector::Int64 {
                values: sel.iter().map(|&i| enc.get(i as usize)).collect(),
                validity: gather_validity(validity),
            },
            EncodedColumn::Float { values, validity } => ColumnVector::Float64 {
                values: sel.iter().map(|&i| values[i as usize]).collect(),
                validity: gather_validity(validity),
            },
            EncodedColumn::Str { enc, validity } => ColumnVector::Utf8 {
                values: sel.iter().map(|&i| enc.get(i as usize).to_string()).collect(),
                validity: gather_validity(validity),
            },
            EncodedColumn::Bool { values, validity } => {
                let mut bits = BitSet::with_len(sel.len());
                for (o, &s) in sel.iter().enumerate() {
                    if values.get(s as usize) {
                        bits.set(o);
                    }
                }
                ColumnVector::Bool {
                    values: bits,
                    validity: gather_validity(validity),
                }
            }
        }
    }

    /// Decodes the dense row range `[start, start + len)` — the contiguous
    /// fast path of [`EncodedColumn::gather`].
    fn gather_range(&self, start: usize, len: usize) -> ColumnVector {
        let sub_validity =
            |validity: &Option<BitSet>| validity.as_ref().map(|v| v.slice(start, len));
        match self {
            EncodedColumn::Int { enc, validity } => ColumnVector::Int64 {
                values: decode_int_range(enc, start, len),
                validity: sub_validity(validity),
            },
            EncodedColumn::Float { values, validity } => ColumnVector::Float64 {
                values: values[start..start + len].to_vec(),
                validity: sub_validity(validity),
            },
            EncodedColumn::Str { enc, validity } => {
                let values = match enc {
                    StrEncoding::Raw(v) => v[start..start + len].to_vec(),
                    StrEncoding::Dict(d) => {
                        let mut codes = vec![0u64; len];
                        d.codes().unpack_block(start, &mut codes);
                        let dict = d.dict();
                        codes.iter().map(|&c| dict[c as usize].clone()).collect()
                    }
                };
                ColumnVector::Utf8 {
                    values,
                    validity: sub_validity(validity),
                }
            }
            EncodedColumn::Bool { values, validity } => ColumnVector::Bool {
                values: values.slice(start, len),
                validity: sub_validity(validity),
            },
        }
    }

    /// Block-decodes integer rows `[start, start + out.len())` into `out`
    /// without allocating (FOR/dict codes are unpacked 64 at a time, RLE
    /// runs are walked with a skip counter). Returns `false`, leaving
    /// `out` untouched, for non-integer columns.
    pub fn decode_int_block(&self, start: usize, out: &mut [i64]) -> bool {
        match self {
            EncodedColumn::Int { enc, .. } => {
                decode_int_block(enc, start, out);
                true
            }
            _ => false,
        }
    }

    /// ANDs `test` over rows `[from, from + sel.len())` into `sel`, whose
    /// bit `i` is row `from + i` (AND only clears bits, so rows already
    /// deselected stay so); `from` is a multiple of 64, so the chunk's
    /// blocks line up with `sel`'s words. NULL rows never match. `matches`
    /// is the caller's scratch, reused across conjuncts and row groups.
    fn filter(
        &self,
        test: &Test<'_>,
        from: usize,
        sel: &mut BitSet,
        matches: &mut BitSet,
    ) -> Result<()> {
        debug_assert!(from.is_multiple_of(64) && from + sel.len() <= self.len());
        let (n, w0) = (sel.len(), from / 64);
        match (self, test) {
            (_, Test::NotNull) => {}
            // Compared 64 values to a mask word, straight into `sel`.
            (EncodedColumn::Float { values, validity }, Test::Float(op, lit)) => {
                let values = &values[from..from + n];
                cmp_floats_words(values, *op, *lit, (validity.as_ref(), w0), sel);
                return Ok(());
            }
            (EncodedColumn::Int { enc, validity }, Test::Int(first, second)) => {
                let tests = [*first, second.unwrap_or(*first)];
                let tests = &tests[..1 + usize::from(second.is_some())];
                and_int(enc, tests, (validity.as_ref(), w0), sel, matches);
                return Ok(());
            }
            (EncodedColumn::Int { enc, .. }, Test::IntOutside(x, y)) => {
                // The rows inside the band, then everything but them.
                let mut inside = BitSet::all_set(n);
                let band = [(CmpOp::Ge, *x), (CmpOp::Le, *y)];
                and_int(enc, &band, (None, w0), &mut inside, matches);
                sel.difference_with(&inside);
            }
            (EncodedColumn::Str { enc: StrEncoding::Dict(d), validity }, Test::Str(op, lit)) => {
                let lit = lit.to_string();
                let pred = translate_code_pred(*op, d.code_of(&lit), d.lower_bound_code(&lit));
                and_codes(d.codes(), [pred, TranslatedPred::All], (validity.as_ref(), w0), sel);
                return Ok(());
            }
            (EncodedColumn::Str { enc: StrEncoding::Raw(values), .. }, Test::Str(op, lit)) => {
                matches.reset(n, false);
                for (i, v) in values[from..from + n].iter().enumerate() {
                    if op.matches(v.as_str().cmp(lit)) {
                        matches.set(i);
                    }
                }
                sel.intersect_with(matches);
            }
            (EncodedColumn::Bool { values, .. }, Test::Bool(op, lit)) => {
                matches.reset(n, false);
                for i in 0..n {
                    if op.matches(values.get(from + i).cmp(lit)) {
                        matches.set(i);
                    }
                }
                sel.intersect_with(matches);
            }
            // Tests are typed from the schema; a chunk of another type is a
            // page that does not belong to this column.
            _ => {
                return Err(DbError::Corruption(format!(
                    "{} column chunk under a {test:?} test",
                    self.encoding_name()
                )))
            }
        }
        and_valid(sel, (self.validity(), w0));
        Ok(())
    }
}

/// A validity mask and the word of it that lines up with a selection's
/// first word: a selection of rows `[64 * w0, …)` of its chunk.
type Validity<'v> = (Option<&'v BitSet>, usize);

/// ANDs the validity words lining up with `sel` into it.
fn and_valid(sel: &mut BitSet, (validity, w0): Validity<'_>) {
    if let Some(validity) = validity {
        for w in 0..sel.words().len() {
            sel.and_word(w, validity.words()[w0 + w]);
        }
    }
}

/// One pushed-down comparison as the kernels take it: typed from the
/// column's schema type once per [`Segment::selector`], so no kernel looks at
/// a [`Value`] again.
#[derive(Debug)]
enum Test<'a> {
    /// Every non-NULL row passes.
    NotNull,
    /// Integer column against one integer, or two at once: both bounds of a
    /// range are answered from one unpack of the column.
    Int((CmpOp, i64), Option<(CmpOp, i64)>),
    /// Integer column outside `[x, y]` (`<> float` past 2^53).
    IntOutside(i64, i64),
    /// Float column, `total_cmp` order.
    Float(CmpOp, f64),
    /// String column.
    Str(CmpOp, &'a str),
    /// Bool column.
    Bool(CmpOp, bool),
}

/// Types `pred`'s conjuncts for the kernels. `None` when a conjunct can
/// match no row (a NULL literal, `int_col = 7.5`).
///
/// A float literal on an integer column becomes the integer comparison(s)
/// with the same answer as the row-wise `(a as f64).total_cmp(&lit)` the
/// delta store and the zone maps use, so a statement answers the same
/// whichever store a row lives in: `= 7.0` is `= 7`, `= 7.5` is nothing,
/// `> 6.5` is `>= 7`, NaN and ±inf are all or nothing.
fn typed_conjuncts<'a>(
    pred: &'a ScanPredicate,
    schema: &oltap_common::Schema,
) -> Result<Option<Vec<(usize, Test<'a>)>>> {
    let mut out = Vec::with_capacity(pred.conjuncts.len());
    for ColumnPredicate { column, op, value } in &pred.conjuncts {
        let field = schema
            .fields()
            .get(*column)
            .ok_or_else(|| DbError::ColumnNotFound(format!("ordinal {column}")))?;
        let (column, op) = (*column, *op);
        if value.is_null() {
            return Ok(None);
        }
        match (field.data_type, value) {
            (DataType::Int64 | DataType::Timestamp, Value::Float(lit)) => {
                if !int_tests_for_float(column, op, *lit, &mut out) {
                    return Ok(None);
                }
            }
            (DataType::Int64 | DataType::Timestamp, _) => {
                let lit = value.as_int()?;
                // `>= MIN` is how the optimizer spells IS NOT NULL.
                match (op, lit) {
                    (CmpOp::Ge, i64::MIN) => out.push((column, Test::NotNull)),
                    _ => push_int(&mut out, column, op, lit),
                }
            }
            (DataType::Float64, _) => out.push((column, Test::Float(op, value.as_float()?))),
            (DataType::Utf8, _) => out.push((column, Test::Str(op, value.as_str()?))),
            (DataType::Bool, _) => out.push((column, Test::Bool(op, value.as_bool()?))),
        }
    }
    Ok(Some(out))
}

/// Adds `column <op> lit`: as the second bound of a comparison on the column
/// that has none yet, else as a conjunct of its own.
fn push_int(out: &mut Vec<(usize, Test<'_>)>, column: usize, op: CmpOp, lit: i64) {
    for (c, test) in out.iter_mut() {
        if let (true, Test::Int(_, second @ None)) = (*c == column, test) {
            *second = Some((op, lit));
            return;
        }
    }
    out.push((column, Test::Int((op, lit), None)));
}

/// Lowers `int_col <op> lit` for a float `lit`. `a as f64` is monotone in
/// `a`, so the integers comparing below `lit` and those comparing above it
/// are two rays around the (possibly empty, past 2^53 possibly long) run
/// that compares equal, found by binary search on the comparison itself.
/// Returns `false` when no integer passes.
fn int_tests_for_float(
    column: usize,
    op: CmpOp,
    lit: f64,
    out: &mut Vec<(usize, Test<'_>)>,
) -> bool {
    use std::cmp::Ordering::{Equal, Less};
    const MIN: i128 = i64::MIN as i128;
    const MAX: i128 = i64::MAX as i128;
    // How many integers, counted up from MIN, compare below `lit` (or at
    // most `lit`): the first integer that does not, MAX + 1 if all do.
    let first_not_below = |or_equal: bool| -> i128 {
        let (mut lo, mut hi) = (MIN, MAX + 1);
        while lo < hi {
            let mid = (lo + hi) >> 1;
            let c = (mid as i64 as f64).total_cmp(&lit);
            if c == Less || (or_equal && c == Equal) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    };
    let ge = first_not_below(false); // first a with a >= lit
    let gt = first_not_below(true); // first a with a > lit
    // The passing integers are those inside [x, y], or those outside it.
    let (x, y, inside) = match op {
        CmpOp::Eq => (ge, gt - 1, true),
        CmpOp::Ne => (ge, gt - 1, false),
        CmpOp::Lt => (MIN, ge - 1, true),
        CmpOp::Le => (MIN, gt - 1, true),
        CmpOp::Gt => (gt, MAX, true),
        CmpOp::Ge => (ge, MAX, true),
    };
    let (empty, full) = (x > y, x == MIN && y == MAX);
    let mut int = |op: CmpOp, lit: i128| push_int(out, column, op, lit as i64);
    match (inside, empty, full) {
        (true, true, _) | (false, _, true) => return false,
        (true, _, true) | (false, true, _) => out.push((column, Test::NotNull)),
        (true, ..) if x == y => int(CmpOp::Eq, x),
        (true, ..) if x == MIN => int(CmpOp::Le, y),
        (true, ..) if y == MAX => int(CmpOp::Ge, x),
        (true, ..) => {
            int(CmpOp::Ge, x);
            int(CmpOp::Le, y);
        }
        (false, ..) if x == y => int(CmpOp::Ne, x),
        (false, ..) if x == MIN => int(CmpOp::Gt, y),
        (false, ..) if y == MAX => int(CmpOp::Lt, x),
        // Strictly inside (MIN, MAX), so neither bound wraps.
        (false, ..) => out.push((column, Test::IntOutside(x as i64, y as i64))),
    }
    true
}

/// `f64::total_cmp`'s key: the integer whose order is the total order.
#[inline]
fn total_order_key(v: f64) -> i64 {
    let bits = v.to_bits() as i64;
    bits ^ (((bits >> 63) as u64) >> 1) as i64
}

/// The mask of the lanes of `block` passing `<op> lit`: one branch-free
/// loop compares all 64 into byte-wide hits — the release build emits
/// packed SSE2 compares for it, sixteen `u8` lanes or two `f64`s an
/// instruction — and a multiply gathers the hits eight at a time into mask
/// bits. No per-row shift into the word, which is what the loop cost before.
#[inline(always)]
fn cmp_mask<T: PartialOrd + Copy>(block: &[T; 64], op: CmpOp, lit: T) -> u64 {
    #[inline(always)]
    fn gather<T: Copy>(block: &[T; 64], hit: impl Fn(T) -> bool) -> u64 {
        let mut hits = [0u8; 64];
        for (h, &v) in hits.iter_mut().zip(block) {
            *h = u8::from(hit(v));
        }
        let mut word = 0;
        for (i, eight) in hits.chunks_exact(8).enumerate() {
            let eight = u64::from_le_bytes(eight.try_into().expect("chunks of eight"));
            // Byte j's low bit lands on bit 56 + j of the product, and no
            // two partial products share a bit, so nothing carries.
            word |= (eight.wrapping_mul(0x0102_0408_1020_4080) >> 56) << (8 * i);
        }
        word
    }
    match op {
        CmpOp::Eq => gather(block, |v| v == lit),
        CmpOp::Ne => gather(block, |v| v != lit),
        CmpOp::Lt => gather(block, |v| v < lit),
        CmpOp::Le => gather(block, |v| v <= lit),
        CmpOp::Gt => gather(block, |v| v > lit),
        CmpOp::Ge => gather(block, |v| v >= lit),
    }
}

/// The word of `bits` covering block `w` (`None` = every row set).
#[inline]
fn word_of(bits: Option<&BitSet>, w: usize) -> u64 {
    bits.map_or(u64::MAX, |b| b.words()[w])
}

/// ANDs `values <op> lit` (in `total_cmp` order, NULLs failing) into `sel`,
/// 64 values to a mask word; words `sel` has already emptied are skipped.
/// The `f64`s are compared as they are wherever that is the total order:
/// the two differ only on a NaN (either side) or on zeros of opposite sign,
/// so a NaN or zero literal, or a block holding a NaN, is compared through
/// `total_order_key` instead. Public for E18, which times it.
pub fn cmp_floats_block(
    values: &[f64],
    op: CmpOp,
    lit: f64,
    validity: Option<&BitSet>,
    sel: &mut BitSet,
) {
    cmp_floats_words(values, op, lit, (validity, 0), sel)
}

/// [`cmp_floats_block`] over `values` whose validity words start at word
/// `w0` of `validity`.
fn cmp_floats_words(
    values: &[f64],
    op: CmpOp,
    lit: f64,
    (validity, w0): Validity<'_>,
    sel: &mut BitSet,
) {
    let plain = !lit.is_nan() && lit != 0.0;
    let mut tail = [0.0; 64];
    for (w, chunk) in values.chunks(64).enumerate() {
        if sel.words()[w] == 0 {
            continue;
        }
        // Lanes past a short last block hold zeros; `sel` has no bits there.
        let block: &[f64; 64] = chunk.try_into().unwrap_or_else(|_| {
            tail[..chunk.len()].copy_from_slice(chunk);
            &tail
        });
        let word = if plain && !block.iter().fold(false, |nan, v| nan | v.is_nan()) {
            cmp_mask(block, op, lit)
        } else {
            cmp_mask(&block.map(total_order_key), op, total_order_key(lit))
        };
        sel.and_word(w, word & word_of(validity, w0 + w));
    }
}

/// ANDs every comparison of `tests` (one, or the two bounds of a range)
/// over an integer encoding into `sel`, NULLs failing: in the code domain
/// for the packed encodings, by runs or binary search for the others.
/// `sel` holds rows `[64 * w0, …)` of the encoding, `w0` the validity's.
fn and_int(
    enc: &IntEncoding,
    tests: &[(CmpOp, i64)],
    validity: Validity<'_>,
    sel: &mut BitSet,
    matches: &mut BitSet,
) {
    let mut preds = [TranslatedPred::All; 2];
    let codes = match enc {
        IntEncoding::For(f) => {
            for (pred, &(op, lit)) in preds.iter_mut().zip(tests) {
                // Relative to the frame: every code is above a negative
                // literal; one past the width is the kernel's to decide.
                *pred = match (u64::try_from(lit as i128 - f.base() as i128), op) {
                    (Ok(rel), _) => TranslatedPred::Cmp(op, rel),
                    (Err(_), CmpOp::Ne | CmpOp::Gt | CmpOp::Ge) => TranslatedPred::All,
                    (Err(_), _) => TranslatedPred::None,
                };
            }
            f.packed()
        }
        IntEncoding::Dict(d) => {
            for (pred, &(op, lit)) in preds.iter_mut().zip(tests) {
                *pred = translate_code_pred(op, d.code_of(&lit), d.lower_bound_code(&lit));
            }
            d.codes()
        }
        _ => {
            let from = validity.1 * 64;
            for &(op, lit) in tests {
                matches.reset(sel.len(), false);
                or_unpacked_int(enc, op, lit, from, matches);
                sel.intersect_with(matches);
            }
            and_valid(sel, validity);
            return;
        }
    };
    and_codes(codes, preds, validity, sel);
}

/// ORs the rows passing `<op> lit` into `out`, whose bit `i` is row
/// `from + i`, for the integer encodings that have no packed codes to
/// compare: a sorted run answers with two binary searches, run lengths with
/// one comparison a run, raw values row by row.
fn or_unpacked_int(enc: &IntEncoding, op: CmpOp, lit: i64, from: usize, out: &mut BitSet) {
    // Rows `[lo, hi)` of the encoding, as far as `out` holds them.
    let mut set = |lo: usize, hi: usize| {
        let end = from + out.len();
        set_bit_range(out, lo.clamp(from, end) - from, hi.clamp(from, end) - from)
    };
    match enc {
        IntEncoding::Rle(r) => {
            let mut offset = 0usize;
            for &(v, run) in r.runs() {
                if op.matches(v.cmp(&lit)) {
                    set(offset, offset + run as usize);
                }
                offset += run as usize;
            }
        }
        IntEncoding::Delta(d) => {
            let n = d.len();
            match op {
                CmpOp::Eq => set(d.lower_bound(lit), d.upper_bound(lit)),
                CmpOp::Ne => {
                    set(0, d.lower_bound(lit));
                    set(d.upper_bound(lit), n);
                }
                CmpOp::Lt => set(0, d.lower_bound(lit)),
                CmpOp::Le => set(0, d.upper_bound(lit)),
                CmpOp::Gt => set(d.upper_bound(lit), n),
                CmpOp::Ge => set(d.lower_bound(lit), n),
            }
        }
        IntEncoding::Raw(values) => {
            for (i, &v) in values[from..from + out.len()].iter().enumerate() {
                if op.matches(v.cmp(&lit)) {
                    out.set(i);
                }
            }
        }
        IntEncoding::For(_) | IntEncoding::Dict(_) => {
            unreachable!("packed codes are compared in the code domain")
        }
    }
}

/// ORs the contiguous index range `[lo, hi)` into `out`, whole words at a
/// time (the sorted-run predicate path produces exactly such ranges).
fn set_bit_range(out: &mut BitSet, lo: usize, hi: usize) {
    if lo >= hi {
        return;
    }
    let (lw, hw) = (lo / 64, (hi - 1) / 64);
    for w in lw..=hw {
        let from = if w == lw { lo % 64 } else { 0 };
        let to = if w == hw { (hi - 1) % 64 } else { 63 };
        let bits = if to - from == 63 {
            u64::MAX
        } else {
            ((1u64 << (to - from + 1)) - 1) << from
        };
        out.or_word(w, bits);
    }
}

/// ANDs comparisons already translated into the code domain into `sel`.
fn and_codes(
    codes: &BitPacked,
    preds: [TranslatedPred; 2],
    validity: Validity<'_>,
    sel: &mut BitSet,
) {
    let mut tests = preds.iter().filter_map(|p| match p {
        TranslatedPred::Cmp(op, code) => Some((*op, *code)),
        _ => None,
    });
    if preds.contains(&TranslatedPred::None) {
        sel.reset(sel.len(), false);
    } else if let Some(first) = tests.next() {
        cmp_codes_words(codes, first, tests.next(), validity, sel);
    } else {
        and_valid(sel, validity);
    }
}

/// ANDs `code <op> literal` — for `first` and, when given, `second`: the
/// two bounds of a range cost one unpack — over every packed code into
/// `sel`, rows NULL in `validity` failing. The one code-domain compare:
/// codes are unpacked 64 to a block into the narrowest lane that holds the
/// width and compared there (`cmp_mask`); blocks `sel` has already
/// emptied are not unpacked at all. A literal past every code the width
/// can spell is decided here, before it could be truncated to the lane.
/// Public so property tests can pit it against decode-then-evaluate.
pub fn cmp_codes_block(
    codes: &BitPacked,
    first: (CmpOp, u64),
    second: Option<(CmpOp, u64)>,
    validity: Option<&BitSet>,
    sel: &mut BitSet,
) {
    cmp_codes_words(codes, first, second, (validity, 0), sel)
}

/// [`cmp_codes_block`] over codes `[64 * w0, …)`, `sel`'s bit 0 the first.
fn cmp_codes_words(
    codes: &BitPacked,
    first: (CmpOp, u64),
    second: Option<(CmpOp, u64)>,
    validity: Validity<'_>,
    sel: &mut BitSet,
) {
    let max_code = u64::MAX.checked_shr(64 - u32::from(codes.width())).unwrap_or(0);
    let mut tests = [first; 2];
    let mut n = 0;
    for (op, lit) in [Some(first), second].into_iter().flatten() {
        match op {
            _ if lit <= max_code => {
                tests[n] = (op, lit);
                n += 1;
            }
            CmpOp::Ne | CmpOp::Lt | CmpOp::Le => {}
            CmpOp::Eq | CmpOp::Gt | CmpOp::Ge => return sel.reset(sel.len(), false),
        }
    }
    if n == 0 {
        return and_valid(sel, validity);
    }
    fn run<T: Lane>(
        codes: &BitPacked,
        tests: &[(CmpOp, u64)],
        (validity, w0): Validity<'_>,
        sel: &mut BitSet,
    ) {
        let mut block = [T::default(); 64];
        for w in 0..sel.words().len() {
            if sel.words()[w] == 0 {
                continue;
            }
            // Lanes past a short last block are stale; `sel` has no bits there.
            let take = (codes.len() - (w0 + w) * 64).min(64);
            codes.unpack_block((w0 + w) * 64, &mut block[..take]);
            let mut word = word_of(validity, w0 + w);
            for &(op, lit) in tests {
                word &= cmp_mask(&block, op, T::truncate(lit));
            }
            sel.and_word(w, word);
        }
    }
    match codes.width() {
        0..=8 => run::<u8>(codes, &tests[..n], validity, sel),
        9..=16 => run::<u16>(codes, &tests[..n], validity, sel),
        17..=32 => run::<u32>(codes, &tests[..n], validity, sel),
        _ => run::<u64>(codes, &tests[..n], validity, sel),
    }
}

/// Decodes the dense row range `[start, start + len)` of an integer
/// encoding without touching the rest of the column — the workhorse
/// behind [`EncodedColumn::gather_range`] and the fused aggregate path.
fn decode_int_range(enc: &IntEncoding, start: usize, len: usize) -> Vec<i64> {
    let mut out = vec![0i64; len];
    decode_int_block(enc, start, &mut out);
    out
}

/// Non-allocating version of [`decode_int_range`]: decodes
/// `[start, start + out.len())` into a caller-provided buffer, so the
/// fused kernels can reuse one stack block across row groups.
fn decode_int_block(enc: &IntEncoding, start: usize, out: &mut [i64]) {
    let len = out.len();
    match enc {
        IntEncoding::Raw(values) => out.copy_from_slice(&values[start..start + len]),
        IntEncoding::For(f) => {
            let base = f.base();
            let mut codes = [0u64; 64];
            let mut done = 0usize;
            while done < len {
                let take = (len - done).min(64);
                f.packed().unpack_block(start + done, &mut codes[..take]);
                for (slot, &c) in out[done..done + take].iter_mut().zip(&codes[..take]) {
                    *slot = base.wrapping_add(c as i64);
                }
                done += take;
            }
        }
        IntEncoding::Rle(r) => {
            let mut skip = start;
            let mut filled = 0usize;
            for &(v, run) in r.runs() {
                let run = run as usize;
                if skip >= run {
                    skip -= run;
                    continue;
                }
                let avail = run - skip;
                skip = 0;
                let take = avail.min(len - filled);
                out[filled..filled + take].fill(v);
                filled += take;
                if filled == len {
                    break;
                }
            }
        }
        IntEncoding::Dict(d) => {
            let dict = d.dict();
            let mut codes = [0u64; 64];
            let mut done = 0usize;
            while done < len {
                let take = (len - done).min(64);
                d.codes().unpack_block(start + done, &mut codes[..take]);
                for (slot, &c) in out[done..done + take].iter_mut().zip(&codes[..take]) {
                    *slot = dict[c as usize];
                }
                done += take;
            }
        }
        IntEncoding::Delta(d) => d.decode_block(start, out),
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum TranslatedPred {
    /// No row can match.
    None,
    /// Every row matches.
    All,
    /// Compare codes against this code with this operator.
    Cmp(CmpOp, u64),
}

/// Rewrites `value <op> literal` into code space for an order-preserving
/// dictionary. `exact` is the literal's code if present; `lb` is the number
/// of dictionary entries strictly less than the literal.
fn translate_code_pred(op: CmpOp, exact: Option<u64>, lb: u64) -> TranslatedPred {
    match (op, exact) {
        (CmpOp::Eq, Some(c)) => TranslatedPred::Cmp(CmpOp::Eq, c),
        (CmpOp::Eq, None) => TranslatedPred::None,
        (CmpOp::Ne, Some(c)) => TranslatedPred::Cmp(CmpOp::Ne, c),
        (CmpOp::Ne, None) => TranslatedPred::All,
        // value < literal  ⇔  code < lb (entries below the literal)
        (CmpOp::Lt, _) => {
            if lb == 0 {
                TranslatedPred::None
            } else {
                TranslatedPred::Cmp(CmpOp::Lt, lb)
            }
        }
        (CmpOp::Le, Some(c)) => TranslatedPred::Cmp(CmpOp::Le, c),
        (CmpOp::Le, None) => {
            if lb == 0 {
                TranslatedPred::None
            } else {
                TranslatedPred::Cmp(CmpOp::Lt, lb)
            }
        }
        // value > literal ⇔ code ≥ first entry greater than the literal
        (CmpOp::Gt, Some(c)) => TranslatedPred::Cmp(CmpOp::Gt, c),
        (CmpOp::Gt, None) => TranslatedPred::Cmp(CmpOp::Ge, lb),
        (CmpOp::Ge, _) => TranslatedPred::Cmp(CmpOp::Ge, lb),
    }
}

/// Metadata for one row group: the group's global row range plus its own
/// zone map. A group whose zone map disproves the predicate is skipped
/// without touching (for paged segments: faulting) any of its chunks.
#[derive(Debug)]
pub struct RowGroupMeta {
    /// Global row offset of the group's first row.
    pub row_start: usize,
    /// Number of rows in the group.
    pub rows: usize,
    /// Zone map over just this group's rows.
    pub zone: ZoneMap,
}

/// Where a segment's encoded column chunks live: held in memory, or paged
/// out to a checksummed column-page file and faulted in through the buffer
/// pool. Either way chunk `g * ncols + c` is row group `g`'s column `c`.
#[derive(Debug)]
enum ChunkStore {
    Held(Vec<EncodedColumn>),
    Paged {
        pager: Arc<SegmentPager>,
        file: Arc<PageFile>,
    },
}

/// A paged segment's frames leave the pool with it: once the segment is
/// merged or frozen away nothing can pin them again.
impl Drop for ChunkStore {
    fn drop(&mut self) {
        if let ChunkStore::Paged { pager, file } = self {
            pager.buffer().forget_file(file.file_id());
        }
    }
}

/// A borrowed (held) or pinned (paged) reference to one encoded column
/// chunk. Dereferences to [`EncodedColumn`]; the pinned variant keeps its
/// buffer frame unevictable until dropped.
#[derive(Debug)]
pub enum ColumnRef<'a> {
    /// Chunk borrowed from a segment that holds its chunks.
    Borrowed(&'a EncodedColumn),
    /// Column page pinned in the buffer pool.
    Pinned(PageGuard),
}

impl std::ops::Deref for ColumnRef<'_> {
    type Target = EncodedColumn;
    fn deref(&self) -> &EncodedColumn {
        match self {
            ColumnRef::Borrowed(c) => c,
            ColumnRef::Pinned(g) => g,
        }
    }
}

/// A segment's delete stamps, and the segment that took its rows over.
#[derive(Debug, Default)]
struct Deletes {
    /// Row offset → stamp of the deleting transaction.
    stamps: FxHashMap<u32, Stamp>,
    /// Set by [`Segment::retire_into`] in the critical section that copies
    /// the stamps over: a later `commit_deletes` / `abort_deletes` of a
    /// stamp pending here is forwarded to the rewrite as well.
    successor: Option<Arc<Segment>>,
}

/// `moved[offset]` of a rewritten row that did not survive the rewrite.
pub(crate) const DROPPED: u32 = u32::MAX;

/// An immutable columnar segment: row groups over a chunk store. A segment
/// built without a pager is the degenerate case of one group spanning all
/// its rows, its chunks held in memory.
#[derive(Debug)]
pub struct Segment {
    id: SegmentId,
    schema: SchemaRef,
    row_count: usize,
    /// Row groups in row order; empty only for a segment of zero rows.
    groups: Vec<RowGroupMeta>,
    chunks: ChunkStore,
    zone_map: ZoneMap,
    /// Snapshots older than this timestamp must not see the segment's rows
    /// (they see them in the delta store instead). `0` for bulk loads.
    visible_from: Ts,
    /// MVCC delete stamps, and where they go once the segment is retired.
    deletes: RwLock<Deletes>,
    /// True when this segment is a freeze-pass rewrite (cold data,
    /// re-encoded with the denser frozen encodings).
    frozen: bool,
    /// Per-row-group access heat: bumped (relaxed) by every scan that
    /// survives zone pruning into the group and by point row access,
    /// halved by the maintenance daemon. Purely advisory — no ordering.
    heat: Vec<AtomicU32>,
    /// Consecutive maintenance decays that observed zero total heat
    /// (the freeze pass's coldness signal).
    cold_ticks: AtomicU32,
    /// Scans served by this segment since it was frozen.
    frozen_scan_hits: AtomicU64,
}

impl Segment {
    /// Builds a segment from materialized rows, visible to snapshots at or
    /// after `visible_from` (use 0 for bulk loads). With a pager the rows
    /// are cut into its row groups and every chunk goes to a page file;
    /// without one the segment is one group held in memory. Each group's
    /// slice is transposed straight into typed column vectors and encoded.
    pub fn from_rows(
        id: SegmentId,
        schema: SchemaRef,
        rows: &[Row],
        visible_from: Ts,
        pager: Option<&Arc<SegmentPager>>,
    ) -> Result<Self> {
        let mut builder = Self::builder(id, schema, visible_from, pager)?;
        for group in rows.chunks(builder.group_rows) {
            let mut columns = builder.empty_columns(group.len());
            for row in group {
                if row.len() != columns.len() {
                    return Err(arity_mismatch());
                }
                for (column, value) in columns.iter_mut().zip(row.values()) {
                    column.push(value)?;
                }
            }
            builder.flush_group(columns)?;
        }
        builder.finish()
    }

    /// True when the segment's chunks live in a page file rather than in
    /// memory.
    pub fn is_paged(&self) -> bool {
        matches!(self.chunks, ChunkStore::Paged { .. })
    }

    /// Starts a streamed build (see [`SegmentBuilder`]): rows are pushed a
    /// row or a column batch at a time and each full row group is encoded
    /// and dropped, so a paged build holds one row group at a time, not the
    /// segment.
    pub fn builder(
        id: SegmentId,
        schema: SchemaRef,
        visible_from: Ts,
        pager: Option<&Arc<SegmentPager>>,
    ) -> Result<SegmentBuilder> {
        let sink = match pager {
            Some(pager) => ChunkSink::Paged {
                writer: pager.create_file()?,
                pager: Arc::clone(pager),
            },
            None => ChunkSink::Held(Vec::with_capacity(schema.len())),
        };
        let mut builder = SegmentBuilder {
            id,
            zone: ZoneMap::empty(schema.len()),
            schema,
            visible_from,
            frozen: false,
            group_rows: pager.map_or(usize::MAX, |p| p.rows_per_group()),
            buf: Vec::new(),
            buffered: 0,
            groups: Vec::new(),
            row_count: 0,
            sink,
        };
        builder.buf = builder.empty_columns(0);
        Ok(builder)
    }

    /// The earliest snapshot timestamp that may see this segment's rows.
    pub fn visible_from(&self) -> Ts {
        self.visible_from
    }

    /// True when this segment is a freeze-pass rewrite.
    pub fn is_frozen(&self) -> bool {
        self.frozen
    }

    /// Total access heat across all row groups.
    pub fn heat(&self) -> u64 {
        self.heat.iter().map(|h| h.load(Ordering::Relaxed) as u64).sum()
    }

    /// Access heat of row group `g`.
    pub fn group_heat(&self, g: usize) -> u32 {
        self.heat.get(g).map_or(0, |h| h.load(Ordering::Relaxed))
    }

    /// Maintenance decay: halves every group's heat counter and tracks how
    /// many consecutive decays observed zero total heat. Returns the total
    /// heat *before* this decay.
    pub fn decay_heat(&self) -> u64 {
        let mut total = 0u64;
        for h in &self.heat {
            let cur = h.load(Ordering::Relaxed);
            total += cur as u64;
            h.store(cur / 2, Ordering::Relaxed);
        }
        if total == 0 {
            self.cold_ticks.fetch_add(1, Ordering::Relaxed);
        } else {
            self.cold_ticks.store(0, Ordering::Relaxed);
        }
        total
    }

    /// Consecutive zero-heat maintenance decays (coldness signal).
    pub fn cold_ticks(&self) -> u32 {
        self.cold_ticks.load(Ordering::Relaxed)
    }

    /// Seeds access heat restored from a pre-restart snapshot, spread
    /// evenly across row groups (the snapshot is per-table: segment
    /// boundaries do not survive a WAL-replay rebuild, so per-group
    /// placement is unknowable). Resets `cold_ticks` — a segment that was
    /// hot before the crash must earn its coldness again under the decay
    /// schedule rather than freeze on the first post-restart tick.
    pub fn seed_heat(&self, total: u64) {
        if total == 0 {
            return;
        }
        let per_group = (total / self.heat.len() as u64).max(1).min(u32::MAX as u64) as u32;
        for h in &self.heat {
            h.fetch_add(per_group, Ordering::Relaxed);
        }
        self.cold_ticks.store(0, Ordering::Relaxed);
    }

    /// Scans served since this segment was frozen (0 for hot segments).
    pub fn frozen_scan_hits(&self) -> u64 {
        self.frozen_scan_hits.load(Ordering::Relaxed)
    }

    /// Whether a snapshot at `read_ts` may see this segment at all.
    #[inline]
    pub fn visible_to(&self, read_ts: Ts) -> bool {
        read_ts >= self.visible_from
    }

    /// The delete stamp of row `offset`, if any (conflict analysis).
    pub fn delete_stamp(&self, offset: u32) -> Option<Stamp> {
        self.deletes.read().stamps.get(&offset).copied()
    }

    /// True when any delete stamp is still pending (blocks a freeze from
    /// rewriting this segment).
    pub fn has_pending_deletes(&self) -> bool {
        (self.deletes.read().stamps.values()).any(|s| matches!(s, Stamp::Pending(_)))
    }

    /// The segment id.
    pub fn id(&self) -> SegmentId {
        self.id
    }

    /// The table schema.
    pub fn schema(&self) -> &SchemaRef {
        &self.schema
    }

    /// Total rows (including logically deleted ones).
    pub fn row_count(&self) -> usize {
        self.row_count
    }

    /// The zone map.
    pub fn zone_map(&self) -> &ZoneMap {
        &self.zone_map
    }

    /// Number of row groups (one for a non-empty segment built without a
    /// pager, none for an empty segment).
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// `(row_start, rows)` of group `g`.
    pub fn group_bounds(&self, g: usize) -> (usize, usize) {
        (self.groups[g].row_start, self.groups[g].rows)
    }

    /// The zone map guarding group `g`.
    pub fn group_zone(&self, g: usize) -> &ZoneMap {
        &self.groups[g].zone
    }

    /// The group holding global row `row` (`row < row_count`).
    fn group_of(&self, row: usize) -> usize {
        self.groups
            .partition_point(|gr| gr.row_start + gr.rows <= row)
    }

    /// Column `c` of group `g`: a plain borrow when the chunks are held, a
    /// pinned buffer-pool page when they are paged (faulted in on a miss).
    /// For a point read or a diagnostic; a scan reads through its pass
    /// ([`PassChunks::column_chunk`]).
    pub fn column_chunk(&self, g: usize, c: usize) -> Result<ColumnRef<'_>> {
        self.chunk(g, c, None)
    }

    /// A pass over every row group for a rewrite that reads the segment out
    /// whole (a coalesce or a freeze): its pins count towards the pass, so
    /// a segment larger than the pool recycles the frames it loaded itself
    /// rather than everyone else's, and it bumps no heat.
    pub(crate) fn rewrite_pass(&self) -> PassChunks<'_> {
        PassChunks {
            seg: self,
            pass: Arc::new(Pass {
                admitted: self.groups.iter().map(|group| group.rows > 0).collect(),
                pool: ScanPass::default(),
            }),
        }
    }

    /// The one place that knows where a chunk lives. A `pass` tells the
    /// pool which row group it is reading and, the first time it reads a
    /// column, how many bytes of that column it may go on to pin: the page
    /// directory's lengths over the row groups the zone maps leave it. On
    /// entering a row group it tells the pager's loader too, which reads
    /// ahead the pages of the later row groups the zone maps leave it.
    fn chunk(&self, g: usize, c: usize, pass: Option<&Pass>) -> Result<ColumnRef<'_>> {
        let ncols = self.schema.len();
        if c >= ncols {
            return Err(DbError::ColumnNotFound(format!("ordinal {c}")));
        }
        if g >= self.groups.len() {
            return Err(DbError::InvalidArgument(format!(
                "row group {g} out of range"
            )));
        }
        let chunk = g * ncols + c;
        match &self.chunks {
            ChunkStore::Held(chunks) => Ok(ColumnRef::Borrowed(&chunks[chunk])),
            ChunkStore::Paged { pager, file } => {
                let pass = pass.map(|pass| {
                    let entering = pass.pool.reading(g, c, || {
                        let pages = file.directory().iter().skip(c).step_by(ncols);
                        (pages.zip(&pass.admitted))
                            .filter(|(_, admitted)| **admitted)
                            .map(|(page, _)| page.len as u64)
                            .sum()
                    });
                    if entering {
                        pager.read_ahead(&pass.pool, g, |columns| {
                            let later = (g + 1..self.groups.len()).filter(|&h| pass.admitted[h]);
                            let page = move |h, c| (h, (h * ncols + c) as u32);
                            later
                                .flat_map(|h| columns.iter().map(move |&c| page(h, c)))
                                .collect()
                        });
                    }
                    &pass.pool
                });
                Ok(ColumnRef::Pinned(pager.pin(file, chunk as u32, pass)?))
            }
        }
    }

    /// Encoding name of column `c` in the first row group (diagnostics;
    /// pins that page of a paged segment). Empty segments report
    /// `"empty"`.
    pub fn column_encoding_name(&self, c: usize) -> Result<&'static str> {
        if self.groups.is_empty() && c < self.schema.len() {
            return Ok("empty");
        }
        Ok(self.column_chunk(0, c)?.encoding_name())
    }

    /// Compressed footprint in bytes: heap bytes of held chunks, on-disk
    /// payload bytes of paged ones (what faulting everything in would
    /// cost).
    pub fn size_bytes(&self) -> usize {
        match &self.chunks {
            ChunkStore::Held(chunks) => chunks.iter().map(|c| c.size_bytes()).sum(),
            ChunkStore::Paged { file, .. } => file.payload_bytes() as usize,
        }
    }

    /// Number of delete stamps (committed or pending).
    pub fn delete_count(&self) -> usize {
        self.deletes.read().stamps.len()
    }

    /// Number of rows whose delete has committed: still stored, dead to
    /// every new snapshot, dropped by the next rewrite of this segment.
    pub fn committed_delete_count(&self) -> usize {
        self.dead_count_at(Ts::MAX)
    }

    /// How many rows [`dead_at`](Self::dead_at) `watermark` would mark.
    pub(crate) fn dead_count_at(&self, watermark: Ts) -> usize {
        let deletes = self.deletes.read();
        let dead = |stamp: &&Stamp| matches!(stamp, Stamp::Committed(ts) if *ts <= watermark);
        deletes.stamps.values().filter(dead).count()
    }

    /// The rows whose delete committed at or before `watermark`, one bit a
    /// row: dead to every snapshot a reader may still take, so a rewrite
    /// leaves them out. A stamp committed later, or still pending, keeps
    /// its row.
    pub(crate) fn dead_at(&self, watermark: Ts) -> BitSet {
        let mut dead = BitSet::with_len(self.row_count);
        for (&offset, stamp) in &self.deletes.read().stamps {
            if matches!(stamp, Stamp::Committed(ts) if *ts <= watermark)
                && (offset as usize) < self.row_count
            {
                dead.set(offset as usize);
            }
        }
        dead
    }

    /// Is row `offset` visibly deleted for snapshot (`read_ts`, `me`)?
    pub fn is_deleted(&self, offset: u32, read_ts: Ts, me: TxnId) -> bool {
        (self.deletes.read().stamps.get(&offset))
            .is_some_and(|stamp| stamp_deletes(stamp, read_ts, me))
    }

    /// Marks row `offset` deleted by `me` (first-committer-wins).
    pub fn delete_row(&self, offset: u32, me: TxnId, begin_ts: Ts) -> Result<()> {
        if offset as usize >= self.row_count {
            return Err(DbError::InvalidArgument(format!(
                "offset {offset} out of range"
            )));
        }
        let deletes = &mut self.deletes.write().stamps;
        match deletes.get(&offset) {
            Some(Stamp::Pending(t)) if *t == me => Ok(()), // idempotent
            Some(Stamp::Pending(_)) => {
                Err(DbError::WriteConflict("row delete in flight".into()))
            }
            Some(Stamp::Committed(ts)) if *ts > begin_ts => Err(DbError::WriteConflict(
                "row deleted after snapshot".into(),
            )),
            Some(Stamp::Committed(_)) => {
                Err(DbError::KeyNotFound("row already deleted".into()))
            }
            Some(Stamp::Infinity) | None => {
                deletes.insert(offset, Stamp::Pending(me));
                Ok(())
            }
        }
    }

    /// Re-registers a delete stamp at a new offset (a rewrite carries
    /// not-yet-globally-dead stamps into the segment it builds).
    pub fn restore_delete_stamp(&self, offset: u32, stamp: Stamp) {
        self.deletes.write().stamps.insert(offset, stamp);
    }

    /// Commit hook: finalizes `me`'s pending delete stamps at `cts` — here,
    /// and in the segment that took this one's rows over, if a rewrite has
    /// retired it since the stamps were set.
    pub fn commit_deletes(&self, me: TxnId, cts: Ts) {
        let successor = {
            let mut deletes = self.deletes.write();
            for stamp in deletes.stamps.values_mut() {
                if matches!(stamp, Stamp::Pending(t) if *t == me) {
                    *stamp = Stamp::Committed(cts);
                }
            }
            deletes.successor.clone()
        };
        if let Some(next) = successor {
            next.commit_deletes(me, cts);
        }
    }

    /// Abort hook: removes `me`'s pending delete stamps, here and in the
    /// segment that took this one's rows over.
    pub fn abort_deletes(&self, me: TxnId) {
        let successor = {
            let mut deletes = self.deletes.write();
            (deletes.stamps).retain(|_, stamp| !matches!(stamp, Stamp::Pending(t) if *t == me));
            deletes.successor.clone()
        };
        if let Some(next) = successor {
            next.abort_deletes(me);
        }
    }

    /// Retires this segment into `successor`, the rewrite that took its
    /// rows over (`None`: no row survived): every stamp moves to its row's
    /// new offset (`moved[offset]`, [`DROPPED`] for a row left out), and
    /// from then on a commit or abort of a stamp still pending here is
    /// forwarded there. Copy and forward are one critical section on this
    /// segment's stamps, so a transaction resolving its delete meanwhile
    /// lands either before the copy or through the forward.
    pub(crate) fn retire_into(&self, successor: Option<&Arc<Segment>>, moved: &[u32]) {
        let mut deletes = self.deletes.write();
        if let Some(next) = successor {
            for (&offset, &stamp) in &deletes.stamps {
                match moved.get(offset as usize) {
                    Some(&new) if new != DROPPED => next.restore_delete_stamp(new, stamp),
                    _ => {}
                }
            }
        }
        deletes.successor = successor.cloned();
    }

    /// Gives a rewrite its inputs' standing: `heat` spread over its groups
    /// as [`seed_heat`](Self::seed_heat) spreads it, and the coldness the
    /// inputs had earned (`cold_ticks`), so that coalescing neither heats
    /// nor cools anything.
    pub(crate) fn inherit(&self, heat: u64, cold_ticks: u32) {
        self.seed_heat(heat);
        self.cold_ticks.store(cold_ticks, Ordering::Relaxed);
    }

    /// Opens a statement's pass over this segment for a snapshot (see
    /// [`GroupSelector`]). `None` when the segment's zone map, or a conjunct
    /// no row can pass, proves nothing matches.
    pub fn selector<'a>(
        &'a self,
        pred: &'a ScanPredicate,
        read_ts: Ts,
        me: TxnId,
    ) -> Result<Option<GroupSelector<'a>>> {
        if !self.zone_map.may_match(pred) {
            return Ok(None);
        }
        // Ordinals were checked once for the statement
        // ([`ScanPredicate::validate`], which every table scan runs first);
        // here the literals are typed for the kernels, once for the segment.
        let Some(conjuncts) = typed_conjuncts(pred, &self.schema)? else {
            return Ok(None);
        };
        if self.frozen {
            self.frozen_scan_hits.fetch_add(1, Ordering::Relaxed);
        }
        let mut deleted = None;
        for (&offset, stamp) in &self.deletes.read().stamps {
            if stamp_deletes(stamp, read_ts, me) && (offset as usize) < self.row_count {
                deleted
                    .get_or_insert_with(|| BitSet::with_len(self.row_count))
                    .set(offset as usize);
            }
        }
        let admitted = (self.groups.iter())
            .map(|group| group.rows > 0 && group.zone.may_match(pred))
            .collect();
        Ok(Some(GroupSelector {
            chunks: PassChunks {
                seg: self,
                pass: Arc::new(Pass {
                    admitted,
                    pool: ScanPass::default(),
                }),
            },
            pred,
            conjuncts,
            deleted,
            local: BitSet::new(),
            matches: BitSet::new(),
        }))
    }

    /// Scans the segment: predicate + visibility + projection, producing
    /// batches of at most `batch_size` rows ([`GroupSelector::scan`] over
    /// this snapshot's [`selector`](Self::selector)).
    pub fn scan(
        &self,
        projection: &[usize],
        pred: &ScanPredicate,
        read_ts: Ts,
        me: TxnId,
        batch_size: usize,
    ) -> Result<Vec<oltap_common::Batch>> {
        match self.selector(pred, read_ts, me)? {
            Some(selector) => selector.scan(projection, batch_size),
            None => Ok(Vec::new()),
        }
    }

    /// Gathers the projected columns at the given ascending global row
    /// indexes (each `< row_count`): the indexes are cut into runs that
    /// fall into one row group, each `(group, column)` chunk is fetched
    /// once per run, and later runs are appended to the first. Indexes
    /// inside one group — always, for a one-group segment — are a single
    /// run gathered straight into the result.
    fn gather_columns(
        &self,
        projection: &[usize],
        indexes: &[u32],
        pass: Option<&Pass>,
    ) -> Result<Vec<ColumnVector>> {
        let mut out = Vec::with_capacity(projection.len());
        if indexes.is_empty() {
            for &c in projection {
                let field = self
                    .schema
                    .fields()
                    .get(c)
                    .ok_or_else(|| DbError::ColumnNotFound(format!("ordinal {c}")))?;
                out.push(ColumnVector::new(field.data_type));
            }
            return Ok(out);
        }
        let mut local = Vec::new();
        let mut lo = 0;
        while lo < indexes.len() {
            let g = self.group_of(indexes[lo] as usize);
            let (start, rows) = self.group_bounds(g);
            let hi = lo + indexes[lo..].partition_point(|&i| (i as usize) < start + rows);
            // Chunks index their rows from the group's first row.
            let run = if start == 0 {
                &indexes[lo..hi]
            } else {
                local.clear();
                local.extend(indexes[lo..hi].iter().map(|&i| i - start as u32));
                &local[..]
            };
            for (k, &c) in projection.iter().enumerate() {
                let piece = self.chunk(g, c, pass)?.gather(run);
                if lo == 0 {
                    out.push(piece);
                } else {
                    append_vector(&mut out[k], piece)?;
                }
            }
            lo = hi;
        }
        Ok(out)
    }

    /// Materializes the full row at `offset` (no visibility check — caller
    /// is responsible). Faults the row's pages for paged segments.
    pub fn row_at(&self, offset: u32) -> Result<Row> {
        let i = offset as usize;
        if i >= self.row_count {
            return Err(DbError::InvalidArgument(format!(
                "row offset {offset} out of range"
            )));
        }
        let g = self.group_of(i);
        if let Some(h) = self.heat.get(g) {
            h.fetch_add(1, Ordering::Relaxed);
        }
        let local = i - self.groups[g].row_start;
        let mut values = Vec::with_capacity(self.schema.len());
        for c in 0..self.schema.len() {
            values.push(self.column_chunk(g, c)?.value_at(local));
        }
        Ok(Row::new(values))
    }
}

/// Does `stamp` delete its row for snapshot (`read_ts`, `me`)?
fn stamp_deletes(stamp: &Stamp, read_ts: Ts, me: TxnId) -> bool {
    match stamp {
        Stamp::Committed(ts) => *ts <= read_ts,
        Stamp::Pending(t) => *t == me,
        Stamp::Infinity => false,
    }
}

/// What a pass shares with whoever reads chunks for it.
#[derive(Debug)]
struct Pass {
    /// The row groups the zone maps leave the pass (and that hold rows).
    admitted: Vec<bool>,
    /// The buffer pool's record of the pass.
    pool: ScanPass,
}

/// A pass's way to its segment's chunks ([`GroupSelector::chunks`]): what
/// it pins, the pool counts towards the pass, so that a pass larger than
/// the pool recycles its own frames instead of everyone else's.
#[derive(Debug, Clone)]
pub struct PassChunks<'a> {
    seg: &'a Segment,
    pass: Arc<Pass>,
}

impl<'a> PassChunks<'a> {
    /// [`Segment::column_chunk`], pinned for this pass.
    pub fn column_chunk(&self, g: usize, c: usize) -> Result<ColumnRef<'a>> {
        self.seg.chunk(g, c, Some(&self.pass))
    }
}

/// One statement's pass over one segment for one snapshot: what is decided
/// once (the typed conjuncts, the rows the snapshot sees as deleted) and the
/// scratch each row group's selection is built in. The row group is the
/// unit: a reader selects group `g`, consumes the selection while the pages
/// the filter pinned are still in the pool, and only then moves on —
/// selecting the whole segment first faults every filtered-and-read column
/// twice once the pool is smaller than the column.
#[derive(Debug)]
pub struct GroupSelector<'a> {
    chunks: PassChunks<'a>,
    pred: &'a ScanPredicate,
    conjuncts: Vec<(usize, Test<'a>)>,
    /// The rows the snapshot sees as deleted, if any.
    deleted: Option<BitSet>,
    local: BitSet,
    matches: BitSet,
}

impl<'a> GroupSelector<'a> {
    /// The handle the pass's other reads go through: the columns a reader
    /// aggregates or projects, beside the ones `select_group` filters.
    pub fn chunks(&self) -> PassChunks<'a> {
        self.chunks.clone()
    }

    /// Hides `rows` (one bit per segment row) from this pass as if the
    /// snapshot saw them deleted — a dual-format table's stale keys.
    pub fn hide(&mut self, rows: BitSet) {
        match &mut self.deleted {
            Some(deleted) => deleted.union_with(&rows),
            None => self.deleted = Some(rows),
        }
    }

    /// Runs the pass: batches of at most `batch_size` rows of the projected
    /// columns. Each row group is selected and gathered before the next is
    /// touched, so a column that is both filtered and projected is faulted
    /// once; batch boundaries depend only on the selection and
    /// `batch_size`, so the same rows give byte-identical output however
    /// they are cut into groups.
    pub fn scan(
        mut self,
        projection: &[usize],
        batch_size: usize,
    ) -> Result<Vec<oltap_common::Batch>> {
        let PassChunks { seg, pass } = self.chunks();
        let batch_size = batch_size.max(1);
        let mut out = Vec::new();
        // The batch being filled: its columns so far and their row count.
        let (mut open, mut open_rows) = (Vec::new(), 0);
        for g in 0..seg.group_count() {
            let Some(local) = self.select_group(g)? else {
                continue;
            };
            let start = seg.groups[g].row_start as u32;
            let indexes: Vec<u32> = local.iter_ones().map(|i| start + i as u32).collect();
            let mut rest = &indexes[..];
            while !rest.is_empty() {
                let (piece, tail) = rest.split_at(rest.len().min(batch_size - open_rows));
                let columns = seg.gather_columns(projection, piece, Some(&pass))?;
                if open_rows == 0 {
                    open = columns;
                } else {
                    for (column, more) in open.iter_mut().zip(columns) {
                        append_vector(column, more)?;
                    }
                }
                open_rows += piece.len();
                if open_rows == batch_size {
                    out.push(oltap_common::Batch::new(std::mem::take(&mut open))?);
                    open_rows = 0;
                }
                rest = tail;
            }
        }
        if open_rows > 0 {
            out.push(oltap_common::Batch::new(open)?);
        }
        Ok(out)
    }

    /// The projected columns of the rows `sel` selects, gathered through
    /// this pass: bit `i` of `sel` is row `first + i` of group `g` (a
    /// morsel's selection from [`select_rows`](Self::select_rows)).
    pub fn gather(
        &self,
        g: usize,
        first: usize,
        sel: &BitSet,
        projection: &[usize],
    ) -> Result<oltap_common::Batch> {
        let PassChunks { seg, pass } = &self.chunks;
        let start = (seg.groups[g].row_start + first) as u32;
        let indexes: Vec<u32> = sel.iter_ones().map(|i| start + i as u32).collect();
        oltap_common::Batch::new(seg.gather_columns(projection, &indexes, Some(pass))?)
    }

    /// The visible rows of group `g` that pass the predicate, indexed from
    /// the group's first row; `None` when there are none. A group whose zone
    /// map disproves the predicate faults no pages — cold pruned groups
    /// stay cold; any other group's heat rises by one.
    pub fn select_group(&mut self, g: usize) -> Result<Option<&BitSet>> {
        let rows = self.chunks.seg.group_bounds(g).1;
        let (mut local, mut matches) = (take(&mut self.local), take(&mut self.matches));
        let any = self.select_into(g, 0..rows, &mut local, &mut matches);
        (self.local, self.matches) = (local, matches);
        Ok(any?.then_some(&self.local))
    }

    /// [`select_group`](Self::select_group) of rows `rows` of group `g`
    /// alone — a morsel of it — into `into`, whose bit `i` becomes row
    /// `rows.start + i`; `rows.start` is a multiple of 64. `false` when no
    /// row is selected. Takes `&self`, so one pass's morsels can be selected
    /// in any order, by any thread. The group's heat rises with the morsel
    /// that starts it.
    pub fn select_rows(&self, g: usize, rows: Range<usize>, into: &mut BitSet) -> Result<bool> {
        self.select_into(g, rows, into, &mut BitSet::new())
    }

    /// Selects rows `rows` of group `g` into `local`: `false` when none is
    /// selected.
    fn select_into(
        &self,
        g: usize,
        rows: Range<usize>,
        local: &mut BitSet,
        matches: &mut BitSet,
    ) -> Result<bool> {
        let (chunks, pred) = (&self.chunks, self.pred);
        let seg = chunks.seg;
        let start = seg.group_bounds(g).0;
        if !chunks.pass.admitted[g] {
            return Ok(false);
        }
        // The group survived zone pruning: it is about to be touched.
        if let (0, Some(h)) = (rows.start, seg.heat.get(g)) {
            h.fetch_add(1, Ordering::Relaxed);
        }
        local.reset(rows.len(), true);
        for (column, test) in &self.conjuncts {
            chunks
                .column_chunk(g, *column)?
                .filter(test, rows.start, local, matches)?;
            if local.none_set() {
                return Ok(false);
            }
        }
        // Sideways join filter: drop rows that provably have no join
        // partner (NULL key, outside the build key envelope, or
        // missing from the build-side Bloom filter). Key columns are
        // pinned once per group, not once per row.
        if let Some(jf) = &pred.join {
            let mut keys: FxHashMap<usize, ColumnRef<'_>> = FxHashMap::default();
            for &c in &jf.columns {
                if let std::collections::hash_map::Entry::Vacant(e) = keys.entry(c) {
                    e.insert(chunks.column_chunk(g, c)?);
                }
            }
            for i in local.to_selection() {
                if !jf.matches_at(|c| keys[&c].value_at(rows.start + i as usize)) {
                    local.clear(i as usize);
                }
            }
        }
        if let Some(deleted) = &self.deleted {
            local.difference_with(&deleted.slice(start + rows.start, rows.len()));
        }
        Ok(!local.none_set())
    }
}

/// The one way a segment is built. Rows arrive one at a time
/// ([`push_row`](Self::push_row): a merge draining the delta) or a column
/// batch at a time ([`push_columns`](Self::push_columns): a coalesce or a
/// freeze, which gather each input row group's surviving rows straight out
/// of its encoded chunks, so no `Row` is built); either way they are
/// buffered as one typed [`ColumnVector`] a column, and each full row group
/// is encoded, folded into the zone maps and its chunks handed to the sink,
/// then dropped. A paged build therefore buffers at most one row group
/// plus one encoded chunk. Without a pager there is no boundary to flush
/// at: the group is the segment, so every row is buffered and encoded at
/// `finish`.
pub struct SegmentBuilder {
    id: SegmentId,
    schema: SchemaRef,
    visible_from: Ts,
    frozen: bool,
    /// Rows per group: the pager's, or unbounded without one.
    group_rows: usize,
    /// The open row group, one vector a column, `buffered` rows each.
    buf: Vec<ColumnVector>,
    buffered: usize,
    groups: Vec<RowGroupMeta>,
    zone: ZoneMap,
    row_count: usize,
    sink: ChunkSink,
}

/// Where the builder's encoded chunks go, in `g * ncols + c` order.
enum ChunkSink {
    Held(Vec<EncodedColumn>),
    Paged {
        pager: Arc<SegmentPager>,
        writer: PageFileWriter,
    },
}

impl SegmentBuilder {
    /// Switches the build to the *frozen* encodings (exact-cost selection,
    /// sorted-run delta): what the freeze pass uses to rewrite cold data.
    pub fn frozen(mut self) -> Self {
        self.frozen = true;
        self
    }

    /// Appends one row; may flush a completed row group. The values move
    /// into the open group's column vectors. A row that does not fit the
    /// schema is an error that leaves the build unusable.
    pub fn push_row(&mut self, row: Row) -> Result<()> {
        if row.len() != self.buf.len() {
            return Err(arity_mismatch());
        }
        for (column, value) in self.buf.iter_mut().zip(row.into_values()) {
            column.push_owned(value)?;
        }
        self.buffered += 1;
        self.flush_full_groups()
    }

    /// Appends a batch of rows given column by column — one vector a
    /// schema column, in schema order, all equally long; may flush
    /// completed row groups. The rewrite path: a coalesce or a freeze
    /// gathers an input row group's surviving rows out of its encoded
    /// chunks into these.
    pub fn push_columns(&mut self, columns: Vec<ColumnVector>) -> Result<()> {
        let rows = columns.first().map_or(0, ColumnVector::len);
        if columns.len() != self.buf.len() || columns.iter().any(|c| c.len() != rows) {
            return Err(DbError::InvalidArgument(
                "column batch shape mismatch while building segment".into(),
            ));
        }
        for (column, piece) in self.buf.iter_mut().zip(columns) {
            if column.data_type() != piece.data_type() {
                return Err(DbError::TypeMismatch {
                    expected: column.data_type().name().into(),
                    actual: piece.data_type().name().into(),
                });
            }
            if column.is_empty() {
                *column = piece;
            } else {
                append_vector(column, piece)?;
            }
        }
        self.buffered += rows;
        self.flush_full_groups()
    }

    /// Rows pushed so far (their offsets in the finished segment).
    pub fn rows_pushed(&self) -> usize {
        self.row_count + self.buffered
    }

    /// Rows currently buffered in memory — bounded by one row group in a
    /// paged build (asserted by tests).
    pub fn buffered_rows(&self) -> usize {
        self.buffered
    }

    /// One empty vector a schema column, with room for `rows` values.
    fn empty_columns(&self, rows: usize) -> Vec<ColumnVector> {
        (self.schema.fields().iter())
            .map(|field| ColumnVector::with_capacity(field.data_type, rows))
            .collect()
    }

    /// Seals every full row group at the front of the buffer.
    fn flush_full_groups(&mut self) -> Result<()> {
        let n = self.group_rows;
        while self.buffered >= n {
            let rest: Vec<ColumnVector> = self.buf.iter_mut().map(|c| c.split_off(n)).collect();
            let group = std::mem::replace(&mut self.buf, rest);
            self.buffered -= n;
            self.flush_group(group)?;
        }
        Ok(())
    }

    /// Seals `columns` (one vector a schema column, equally long) as the
    /// next row group.
    fn flush_group(&mut self, columns: Vec<ColumnVector>) -> Result<()> {
        let rows = columns.first().map_or(0, ColumnVector::len);
        if rows == 0 {
            return Ok(());
        }
        let mut zone = ZoneMap::empty(0);
        for (field, column) in self.schema.fields().iter().zip(columns) {
            zone.columns.push(ColumnZone::of_vector(&column, field.data_type));
            let chunk = encode_column(field.data_type, column, self.frozen)?;
            match &mut self.sink {
                ChunkSink::Held(chunks) => chunks.push(chunk),
                // Dropped right after framing: peak memory is one chunk.
                ChunkSink::Paged { writer, .. } => {
                    writer.append_column(&chunk)?;
                }
            }
        }
        self.zone.absorb(&zone);
        self.groups.push(RowGroupMeta {
            row_start: self.row_count,
            rows,
            zone,
        });
        self.row_count += rows;
        Ok(())
    }

    /// Flushes the tail group and seals the segment.
    pub fn finish(mut self) -> Result<Segment> {
        let tail = std::mem::take(&mut self.buf);
        self.flush_group(tail)?;
        let chunks = match self.sink {
            ChunkSink::Held(chunks) => ChunkStore::Held(chunks),
            ChunkSink::Paged { pager, writer } => ChunkStore::Paged {
                pager,
                file: Arc::new(writer.finish()?),
            },
        };
        Ok(Segment {
            id: self.id,
            schema: self.schema,
            row_count: self.row_count,
            // At least one counter, so table-level heat seeding has a place
            // to land even in an empty segment.
            heat: (0..self.groups.len().max(1))
                .map(|_| AtomicU32::new(0))
                .collect(),
            groups: self.groups,
            chunks,
            zone_map: self.zone,
            visible_from: self.visible_from,
            deletes: RwLock::new(Deletes::default()),
            frozen: self.frozen,
            cold_ticks: AtomicU32::new(0),
            frozen_scan_hits: AtomicU64::new(0),
        })
    }
}

fn arity_mismatch() -> DbError {
    DbError::InvalidArgument("row arity mismatch while building segment".into())
}

/// Appends a later run's gather result to its column's earlier runs. Both
/// come from the same column, so a variant mismatch is page corruption that
/// slipped past the CRC — reported, not assumed.
fn append_vector(out: &mut ColumnVector, piece: ColumnVector) -> Result<()> {
    /// `piece`'s bits after `out`'s, a word at a time.
    fn append_bits(out: &mut BitSet, piece: &BitSet) {
        let at = out.len();
        out.grow(piece.len());
        out.paste(at, piece);
    }
    // Merge validity first: absent validity means "all valid".
    fn merge_validity(
        out_validity: &mut Option<BitSet>,
        out_len: usize,
        piece_validity: Option<BitSet>,
        piece_len: usize,
    ) {
        match (out_validity.as_mut(), piece_validity) {
            (None, None) => {}
            (Some(v), piece) => {
                append_bits(v, &piece.unwrap_or_else(|| BitSet::all_set(piece_len)))
            }
            (None, Some(piece)) => {
                let mut v = BitSet::all_set(out_len);
                append_bits(&mut v, &piece);
                *out_validity = Some(v);
            }
        }
    }
    match (out, piece) {
        (
            ColumnVector::Int64 { values, validity },
            ColumnVector::Int64 {
                values: pv,
                validity: pval,
            },
        ) => {
            merge_validity(validity, values.len(), pval, pv.len());
            values.extend(pv);
        }
        (
            ColumnVector::Float64 { values, validity },
            ColumnVector::Float64 {
                values: pv,
                validity: pval,
            },
        ) => {
            merge_validity(validity, values.len(), pval, pv.len());
            values.extend(pv);
        }
        (
            ColumnVector::Utf8 { values, validity },
            ColumnVector::Utf8 {
                values: pv,
                validity: pval,
            },
        ) => {
            merge_validity(validity, values.len(), pval, pv.len());
            values.extend(pv);
        }
        (
            ColumnVector::Bool { values, validity },
            ColumnVector::Bool {
                values: pv,
                validity: pval,
            },
        ) => {
            merge_validity(validity, values.len(), pval, pv.len());
            append_bits(values, &pv);
        }
        _ => {
            return Err(DbError::Corruption(
                "column page type mismatch across row groups".into(),
            ))
        }
    }
    Ok(())
}

/// Encodes one column of a row group (`frozen`: the freeze pass's denser
/// integer choices). The vector must be `data_type`'s; a validity bitmap
/// with no NULL in it is dropped, so a column reads the same however its
/// rows were pushed.
fn encode_column(data_type: DataType, column: ColumnVector, frozen: bool) -> Result<EncodedColumn> {
    let expected = ColumnVector::new(data_type).data_type();
    if column.data_type() != expected {
        return Err(DbError::TypeMismatch {
            expected: expected.name().into(),
            actual: column.data_type().name().into(),
        });
    }
    let nulls = |validity: Option<BitSet>| validity.filter(|v| v.count_ones() < v.len());
    Ok(match column {
        ColumnVector::Int64 { values, validity } => EncodedColumn::Int {
            enc: if frozen {
                IntEncoding::choose_frozen(&values)
            } else {
                IntEncoding::choose(&values)
            },
            validity: nulls(validity),
        },
        ColumnVector::Float64 {
            mut values,
            validity,
        } => {
            values.shrink_to_fit();
            EncodedColumn::Float {
                values,
                validity: nulls(validity),
            }
        }
        ColumnVector::Utf8 { values, validity } => EncodedColumn::Str {
            enc: StrEncoding::choose(&values),
            validity: nulls(validity),
        },
        ColumnVector::Bool { values, validity } => EncodedColumn::Bool {
            values,
            validity: nulls(validity),
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::BufferManager;
    use oltap_common::fault::FaultInjector;
    use oltap_common::row;
    use oltap_common::{Field, Schema};
    use std::sync::Arc;

    fn schema() -> SchemaRef {
        Arc::new(Schema::new(vec![
            Field::not_null("id", DataType::Int64),
            Field::new("city", DataType::Utf8),
            Field::new("temp", DataType::Float64),
        ]))
    }

    fn sample_rows() -> Vec<Row> {
        (0..1000)
            .map(|i| {
                row![
                    i as i64,
                    ["berlin", "munich", "cologne", "hamburg"][i % 4],
                    (i as f64) / 10.0
                ]
            })
            .collect()
    }

    fn sample_segment() -> Segment {
        Segment::from_rows(SegmentId(1), schema(), &sample_rows(), 0, None).unwrap()
    }

    fn test_pager(pool_bytes: u64, rows_per_group: usize) -> Arc<SegmentPager> {
        let root = std::env::temp_dir().join(format!(
            "oltap-seg-pages-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        SegmentPager::new(
            root,
            BufferManager::new(pool_bytes, None, FaultInjector::disabled()),
            rows_per_group,
            FaultInjector::disabled(),
        )
    }

    const NOBODY: TxnId = TxnId(u64::MAX);

    impl Segment {
        /// The whole-segment selection — [`GroupSelector::select_group`]
        /// over the row groups, pasted together; `None` when the zone map
        /// proves nothing matches. No reader works this way (it faults a
        /// filtered-and-read column twice under a small pool); it is what
        /// `select_is_the_concatenation_of_select_group` compares against.
        fn select(&self, pred: &ScanPredicate, read_ts: Ts, me: TxnId) -> Result<Option<BitSet>> {
            let Some(mut selector) = self.selector(pred, read_ts, me)? else {
                return Ok(None);
            };
            let mut sel = BitSet::with_len(self.row_count);
            for g in 0..self.group_count() {
                if let Some(local) = selector.select_group(g)? {
                    sel.paste(self.groups[g].row_start, local);
                }
            }
            Ok(Some(sel))
        }
    }

    #[test]
    fn streamed_paged_build_buffers_at_most_one_row_group() {
        let group = 128;
        let mut builder =
            Segment::builder(SegmentId(1), schema(), 5, Some(&test_pager(u64::MAX, group)))
                .unwrap();
        for (i, r) in sample_rows().into_iter().enumerate() {
            builder.push_row(r).unwrap();
            assert!(
                builder.buffered_rows() <= group,
                "streamed build buffered {} rows at push {i} (group = {group})",
                builder.buffered_rows()
            );
        }
        assert_eq!(builder.finish().unwrap().row_count(), 1000);
    }

    /// A segment built from column batches — of ragged sizes that straddle
    /// the row groups, NULLs in two columns — is the segment built row by
    /// row: the same groups, zones, encodings and rows, held, paged and
    /// frozen; a paged build still buffers at most one group.
    #[test]
    fn column_batches_build_the_segment_rows_build() {
        let rows = mixed_rows(300);
        let pager = test_pager(u64::MAX, 64);
        for (pager, frozen) in [(None, false), (Some(&pager), false), (Some(&pager), true), (None, true)] {
            let by_rows = build(&rows, pager, frozen);
            let mut builder = Segment::builder(SegmentId(2), schema(), 0, pager).unwrap();
            if frozen {
                builder = builder.frozen();
            }
            let mut at = 0;
            for size in [1, 63, 2, 100, 0, 134] {
                let mut columns: Vec<ColumnVector> =
                    schema().fields().iter().map(|f| ColumnVector::new(f.data_type)).collect();
                for row in &rows[at..at + size] {
                    for (column, value) in columns.iter_mut().zip(row.values()) {
                        column.push(value).unwrap();
                    }
                }
                builder.push_columns(columns).unwrap();
                assert!(pager.is_none() || builder.buffered_rows() < 64);
                at += size;
            }
            let by_columns = builder.finish().unwrap();
            let tag = format!("paged {} frozen {frozen}", pager.is_some());
            assert_eq!(by_columns.group_count(), by_rows.group_count(), "{tag}");
            for g in 0..by_rows.group_count() {
                assert_eq!(by_columns.group_bounds(g), by_rows.group_bounds(g), "{tag}");
                assert_eq!(by_columns.group_zone(g), by_rows.group_zone(g), "{tag}");
                for c in 0..3 {
                    let name = |s: &Segment| s.column_chunk(g, c).unwrap().encoding_name();
                    assert_eq!(name(&by_columns), name(&by_rows), "{tag} group {g} column {c}");
                }
            }
            assert_eq!(by_columns.zone_map(), by_rows.zone_map(), "{tag}");
            for (i, row) in rows.iter().enumerate() {
                assert_eq!(&by_columns.row_at(i as u32).unwrap(), row, "{tag} row {i}");
            }
        }
    }

    #[test]
    fn build_and_read_back() {
        let s = sample_segment();
        assert_eq!(s.row_count(), 1000);
        assert_eq!(s.row_at(0).unwrap(), row![0i64, "berlin", 0.0f64]);
        assert_eq!(s.row_at(999).unwrap(), row![999i64, "hamburg", 99.9f64]);
    }

    #[test]
    fn compression_kicks_in() {
        let s = sample_segment();
        // 1000 rows * (8 + ~7 + 8) raw ≈ 23KB; encoded should be far less
        // for id (FOR 10-bit) and city (dict 2-bit).
        assert!(s.size_bytes() < 12_000, "size {}", s.size_bytes());
        assert_eq!(s.column_encoding_name(1).unwrap(), "dict");
    }

    #[test]
    fn scan_with_int_predicate() {
        let s = sample_segment();
        let pred = ScanPredicate::all()
            .and(0, CmpOp::Ge, Value::Int(100))
            .and(0, CmpOp::Lt, Value::Int(110));
        let batches = s.scan(&[0, 1], &pred, 100, NOBODY, 4096).unwrap();
        let total: usize = batches.iter().map(|b| b.len()).sum();
        assert_eq!(total, 10);
        assert_eq!(batches[0].row(0)[0], Value::Int(100));
    }

    #[test]
    fn scan_with_string_predicate() {
        let s = sample_segment();
        let pred = ScanPredicate::single(1, CmpOp::Eq, Value::Str("munich".into()));
        let batches = s.scan(&[0], &pred, 100, NOBODY, 4096).unwrap();
        let total: usize = batches.iter().map(|b| b.len()).sum();
        assert_eq!(total, 250);
        // First munich row is id 1.
        assert_eq!(batches[0].row(0)[0], Value::Int(1));
    }

    #[test]
    fn string_range_predicate_on_dict() {
        let s = sample_segment();
        // city < "c" matches only berlin (250 rows).
        let pred = ScanPredicate::single(1, CmpOp::Lt, Value::Str("c".into()));
        let total: usize = s
            .scan(&[1], &pred, 100, NOBODY, 4096)
            .unwrap()
            .iter()
            .map(|b| b.len())
            .sum();
        assert_eq!(total, 250);
        // city >= "munich": only munich (literal present).
        let pred = ScanPredicate::single(1, CmpOp::Ge, Value::Str("munich".into()));
        let total: usize = s
            .scan(&[1], &pred, 100, NOBODY, 4096)
            .unwrap()
            .iter()
            .map(|b| b.len())
            .sum();
        assert_eq!(total, 250);
        // city > "dresden" (absent literal): hamburg + munich.
        let pred = ScanPredicate::single(1, CmpOp::Gt, Value::Str("dresden".into()));
        let total: usize = s
            .scan(&[1], &pred, 100, NOBODY, 4096)
            .unwrap()
            .iter()
            .map(|b| b.len())
            .sum();
        assert_eq!(total, 500);
    }

    #[test]
    fn zone_map_skips_impossible_scans() {
        let s = sample_segment();
        let pred = ScanPredicate::single(0, CmpOp::Gt, Value::Int(10_000));
        assert!(s.select(&pred, 100, NOBODY).unwrap().is_none());
    }

    #[test]
    fn float_predicate() {
        let s = sample_segment();
        let pred = ScanPredicate::single(2, CmpOp::Ge, Value::Float(99.0));
        let total: usize = s
            .scan(&[2], &pred, 100, NOBODY, 4096)
            .unwrap()
            .iter()
            .map(|b| b.len())
            .sum();
        assert_eq!(total, 10); // 99.0 .. 99.9
    }

    #[test]
    fn mvcc_deletes_respect_snapshots() {
        let s = sample_segment();
        let t1 = TxnId(1);
        s.delete_row(5, t1, 100).unwrap();
        // Pending: invisible deletion for others, visible for deleter.
        assert!(!s.is_deleted(5, 100, NOBODY));
        assert!(s.is_deleted(5, 100, t1));
        s.commit_deletes(t1, 150);
        // Old snapshot still sees the row; new snapshot does not.
        assert!(!s.is_deleted(5, 149, NOBODY));
        assert!(s.is_deleted(5, 150, NOBODY));

        let pred = ScanPredicate::all();
        let old: usize = s
            .scan(&[0], &pred, 149, NOBODY, 4096)
            .unwrap()
            .iter()
            .map(|b| b.len())
            .sum();
        let new: usize = s
            .scan(&[0], &pred, 150, NOBODY, 4096)
            .unwrap()
            .iter()
            .map(|b| b.len())
            .sum();
        assert_eq!(old, 1000);
        assert_eq!(new, 999);
    }

    #[test]
    fn delete_conflicts() {
        let s = sample_segment();
        let (t1, t2) = (TxnId(1), TxnId(2));
        s.delete_row(7, t1, 100).unwrap();
        assert!(matches!(
            s.delete_row(7, t2, 100),
            Err(DbError::WriteConflict(_))
        ));
        s.commit_deletes(t1, 120);
        // FCW: t2's snapshot (100) predates the delete commit.
        assert!(matches!(
            s.delete_row(7, t2, 100),
            Err(DbError::WriteConflict(_))
        ));
        // A fresh snapshot sees it already deleted.
        assert!(matches!(
            s.delete_row(7, t2, 120),
            Err(DbError::KeyNotFound(_))
        ));
    }

    #[test]
    fn abort_restores_row() {
        let s = sample_segment();
        let t1 = TxnId(1);
        s.delete_row(3, t1, 100).unwrap();
        s.abort_deletes(t1);
        assert!(!s.is_deleted(3, 200, NOBODY));
        assert_eq!(s.delete_count(), 0);
    }

    #[test]
    fn nulls_in_segment() {
        let schema = Arc::new(Schema::new(vec![Field::new("x", DataType::Int64)]));
        let rows: Vec<Row> = (0..10)
            .map(|i| {
                Row::new(vec![if i % 2 == 0 {
                    Value::Null
                } else {
                    Value::Int(i)
                }])
            })
            .collect();
        let s = Segment::from_rows(SegmentId(2), schema, &rows, 0, None).unwrap();
        assert_eq!(s.row_at(0).unwrap(), Row::new(vec![Value::Null]));
        assert_eq!(s.row_at(1).unwrap(), row![1i64]);
        // NULL rows never match predicates.
        let pred = ScanPredicate::single(0, CmpOp::Ge, Value::Int(0));
        let total: usize = s
            .scan(&[0], &pred, 10, NOBODY, 4096)
            .unwrap()
            .iter()
            .map(|b| b.len())
            .sum();
        assert_eq!(total, 5);
    }

    #[test]
    fn ne_predicate_on_dict() {
        let s = sample_segment();
        let pred = ScanPredicate::single(1, CmpOp::Ne, Value::Str("berlin".into()));
        let total: usize = s
            .scan(&[1], &pred, 100, NOBODY, 4096)
            .unwrap()
            .iter()
            .map(|b| b.len())
            .sum();
        assert_eq!(total, 750);
        // Ne with absent literal matches everything.
        let pred = ScanPredicate::single(1, CmpOp::Ne, Value::Str("zzz".into()));
        let total: usize = s
            .scan(&[1], &pred, 100, NOBODY, 4096)
            .unwrap()
            .iter()
            .map(|b| b.len())
            .sum();
        assert_eq!(total, 1000);
    }

    #[test]
    fn empty_segment() {
        let s = Segment::from_rows(SegmentId(3), schema(), &[], 0, None).unwrap();
        assert_eq!(s.row_count(), 0);
        let batches = s
            .scan(&[0], &ScanPredicate::all(), 10, NOBODY, 4096)
            .unwrap();
        let total: usize = batches.iter().map(|b| b.len()).sum();
        assert_eq!(total, 0);
    }

    /// Every scan outcome must be byte-identical between a resident and a
    /// paged build of the same rows — including under a pool far smaller
    /// than the data, which forces eviction and re-faulting mid-scan.
    #[test]
    fn paged_scans_match_resident_byte_for_byte() {
        let rows = sample_rows();
        let resident = sample_segment();
        // ~10 groups of 100 rows; pool fits only a handful of pages.
        let pager = test_pager(4096, 100);
        let paged =
            Segment::from_rows(SegmentId(1), schema(), &rows, 0, Some(&pager)).unwrap();
        assert!(paged.is_paged());
        assert_eq!(paged.group_count(), 10);

        let preds = [
            ScanPredicate::all(),
            ScanPredicate::all()
                .and(0, CmpOp::Ge, Value::Int(100))
                .and(0, CmpOp::Lt, Value::Int(110)),
            ScanPredicate::single(1, CmpOp::Eq, Value::Str("munich".into())),
            ScanPredicate::single(1, CmpOp::Lt, Value::Str("c".into())),
            ScanPredicate::single(2, CmpOp::Ge, Value::Float(99.0)),
            ScanPredicate::single(0, CmpOp::Gt, Value::Int(10_000)),
        ];
        for (k, pred) in preds.iter().enumerate() {
            for batch_size in [7usize, 128, 4096] {
                let a = resident.scan(&[0, 1, 2], pred, 100, NOBODY, batch_size).unwrap();
                let b = paged.scan(&[0, 1, 2], pred, 100, NOBODY, batch_size).unwrap();
                assert_eq!(a.len(), b.len(), "pred {k} batch {batch_size}");
                for (x, y) in a.iter().zip(&b) {
                    assert_eq!(x.to_rows(), y.to_rows(), "pred {k} batch {batch_size}");
                }
            }
        }
        // Eviction actually happened under the tiny pool.
        assert!(pager.buffer().stats().evictions > 0);
        // Point reads agree too.
        for off in [0u32, 99, 100, 500, 999] {
            assert_eq!(resident.row_at(off).unwrap(), paged.row_at(off).unwrap());
        }
    }

    /// Zone-pruned row groups must fault zero pages: a predicate touching
    /// only the last group's id range reads only that group's pages.
    #[test]
    fn zone_pruned_groups_fault_no_pages() {
        let rows = sample_rows(); // id is 0..1000, sorted → disjoint group zones
        let pager = test_pager(u64::MAX, 100);
        let paged =
            Segment::from_rows(SegmentId(1), schema(), &rows, 0, Some(&pager)).unwrap();
        let pred = ScanPredicate::single(0, CmpOp::Ge, Value::Int(950));
        let total: usize = paged
            .scan(&[0], &pred, 100, NOBODY, 4096)
            .unwrap()
            .iter()
            .map(|b| b.len())
            .sum();
        assert_eq!(total, 50);
        // Only the last group may fault: its id column for the predicate
        // (the projection re-pins the same resident page).
        let misses = pager.buffer().stats().misses;
        assert_eq!(misses, 1, "pruned groups faulted pages");
    }

    #[test]
    fn paged_deletes_and_nulls_match_resident() {
        let schema = Arc::new(Schema::new(vec![Field::new("x", DataType::Int64)]));
        let rows: Vec<Row> = (0..100)
            .map(|i| {
                Row::new(vec![if i % 3 == 0 {
                    Value::Null
                } else {
                    Value::Int(i)
                }])
            })
            .collect();
        let resident = Segment::from_rows(SegmentId(2), Arc::clone(&schema), &rows, 0, None).unwrap();
        let pager = test_pager(u64::MAX, 17);
        let paged =
            Segment::from_rows(SegmentId(2), Arc::clone(&schema), &rows, 0, Some(&pager)).unwrap();
        let t1 = TxnId(1);
        for s in [&resident, &paged] {
            s.delete_row(10, t1, 100).unwrap();
            s.delete_row(55, t1, 100).unwrap();
            s.commit_deletes(t1, 120);
        }
        let pred = ScanPredicate::single(0, CmpOp::Ge, Value::Int(0));
        for read_ts in [119u64, 120, 200] {
            let a = resident.scan(&[0], &pred, read_ts, NOBODY, 13).unwrap();
            let b = paged.scan(&[0], &pred, read_ts, NOBODY, 13).unwrap();
            let ra: Vec<Row> = a.iter().flat_map(|x| x.to_rows()).collect();
            let rb: Vec<Row> = b.iter().flat_map(|x| x.to_rows()).collect();
            assert_eq!(ra, rb, "read_ts {read_ts}");
        }
        assert_eq!(resident.row_at(0).unwrap(), paged.row_at(0).unwrap());
    }

    const ALL_OPS: [CmpOp; 6] = [
        CmpOp::Eq,
        CmpOp::Ne,
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Gt,
        CmpOp::Ge,
    ];

    /// The word-at-a-time float compare against the per-row `total_cmp`
    /// loop it replaced: NaNs of both signs, -0.0 vs 0.0, infinities,
    /// NULLs, a selection that is already partly clear, a ragged tail.
    #[test]
    fn float_block_compare_matches_the_per_row_loop() {
        let specials = [
            f64::NAN,
            -f64::NAN,
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            1.5,
            -1.5,
            f64::MIN_POSITIVE / 2.0,
            1e15,
            0.1,
        ];
        // Block 0 mixes every special, block 1 has zeros of both signs but
        // no NaN, block 2 neither (the plain `f64` compare runs on those
        // two), and the short last block has a NaN again.
        let values: Vec<f64> = (0..203usize)
            .map(|i| match i / 64 {
                1 => specials[2 + (i * 7 + i / 11) % (specials.len() - 2)],
                2 => specials[4 + (i * 7 + i / 11) % (specials.len() - 4)],
                _ => specials[(i * 7 + i / 11) % specials.len()],
            })
            .collect();
        assert!(values[64..192].iter().all(|v| !v.is_nan()) && values[192..].iter().any(|v| v.is_nan()));
        let n = values.len();
        let nulls: Vec<usize> = (0..n).filter(|i| i % 7 != 3).collect();
        let validity = BitSet::from_indexes(n, &nulls);
        let preselected: Vec<usize> = (0..n).filter(|i| i % 5 != 0 && !(64..128).contains(i)).collect();
        for validity in [None, Some(&validity)] {
            for op in ALL_OPS {
                for &lit in &specials {
                    let mut got = BitSet::from_indexes(n, &preselected);
                    cmp_floats_block(&values, op, lit, validity, &mut got);
                    let want: Vec<usize> = preselected
                        .iter()
                        .copied()
                        .filter(|&i| validity.is_none_or(|v| v.get(i)))
                        .filter(|&i| op.matches(values[i].total_cmp(&lit)))
                        .collect();
                    assert_eq!(
                        got,
                        BitSet::from_indexes(n, &want),
                        "{op:?} {lit:?} nulls={}",
                        validity.is_some()
                    );
                }
            }
        }
    }

    /// Two comparisons bounding one integer column are typed as one test
    /// and answered from one unpack: the selection is the intersection of
    /// the two single conjuncts', whatever the encoding, for bounds inside,
    /// at the edges of and outside the column's range, held and paged.
    #[test]
    fn range_conjunct_equals_the_two_single_conjuncts() {
        let schema: SchemaRef = Arc::new(Schema::new(
            ["for", "dict", "rle", "raw", "sorted"].map(|n| Field::new(n, DataType::Int64)).to_vec(),
        ));
        let rows: Vec<Row> = (0..700i64)
            .map(|i| {
                let null_or = |v: i64| if i % 13 == 4 { Value::Null } else { Value::Int(v) };
                Row::new(vec![
                    null_or(100 + (i * 37) % 90),
                    null_or((i % 5) * 1_000_000_007),
                    null_or(i / 100),
                    null_or(i.wrapping_mul(0x9E37_79B9_7F4A_7C15u64 as i64)),
                    Value::Int(i * 3),
                ])
            })
            .collect();
        let pager = test_pager(1 << 20, 64);
        for (pager, frozen) in [(None, false), (Some(&pager), false), (None, true)] {
            let mut builder = Segment::builder(SegmentId(1), Arc::clone(&schema), 0, pager).unwrap();
            if frozen {
                builder = builder.frozen();
            }
            for r in &rows {
                builder.push_row(r.clone()).unwrap();
            }
            let seg = builder.finish().unwrap();
            let select = |pred: &ScanPredicate| {
                seg.select(pred, 1, TxnId(1)).unwrap().unwrap_or_else(|| BitSet::with_len(rows.len()))
            };
            for (c, bounds) in [
                (0, [99, 100, 140, 189, 190]),
                (1, [-1, 0, 2_000_000_014, 4_000_000_028, 4_000_000_029]),
                (2, [-1, 0, 3, 6, 7]),
                (3, [i64::MIN, -1, 0, 1 << 62, i64::MAX]),
                (4, [-1, 0, 1000, 2097, 2098]),
            ] {
                for (lo_op, hi_op) in [(CmpOp::Ge, CmpOp::Lt), (CmpOp::Gt, CmpOp::Le), (CmpOp::Ne, CmpOp::Eq)] {
                    for lo in bounds {
                        for hi in bounds {
                            let pred = ScanPredicate::single(c, lo_op, Value::Int(lo)).and(c, hi_op, Value::Int(hi));
                            // (`>= i64::MIN` is typed as IS NOT NULL.)
                            assert!(matches!(
                                typed_conjuncts(&pred, &schema).unwrap().as_deref(),
                                Some([(_, Test::Int(_, Some(_)))] | [(_, Test::NotNull), _])
                            ));
                            let mut want = select(&ScanPredicate::single(c, lo_op, Value::Int(lo)));
                            want.intersect_with(&select(&ScanPredicate::single(c, hi_op, Value::Int(hi))));
                            assert_eq!(select(&pred), want, "column {c}: {lo_op:?} {lo} and {hi_op:?} {hi}");
                            let by_row: Vec<usize> = (0..rows.len()).filter(|&i| pred.matches_row(&rows[i])).collect();
                            assert_eq!(want, BitSet::from_indexes(rows.len(), &by_row));
                        }
                    }
                }
            }
        }
    }

    /// `int_col <op> <float literal>` answers in a segment as it does row
    /// by row (the delta store's comparison), whatever the encoding and
    /// whether resident or paged — beyond 2^53, where several integers
    /// equal one float, and for NaN, ±inf and -0.0 too.
    #[test]
    fn float_literals_on_int_columns_answer_as_the_row_wise_comparison() {
        const P53: i64 = 1 << 53;
        let edges = [
            i64::MIN,
            i64::MIN + 1,
            -P53 - 1,
            -P53,
            -8,
            -7,
            -1,
            0,
            1,
            6,
            7,
            8,
            P53 - 1,
            P53,
            P53 + 1,
            P53 + 2,
            i64::MAX - 1,
            i64::MAX,
        ];
        let column = |ints: Vec<i64>| -> Vec<Row> {
            ints.into_iter()
                .enumerate()
                .map(|(i, v)| Row::new(vec![if i % 9 == 4 { Value::Null } else { Value::Int(v) }]))
                .collect()
        };
        let tables = [
            // wide (raw / dict), narrow (FOR), runs (RLE)
            column(edges.iter().cycle().take(150).copied().collect()),
            column((0..150).map(|i| (i * 5) % 17 - 3).collect()),
            column((0..150).map(|i| 5 + i / 40).collect()),
        ];
        let lits = [
            7.0,
            7.5,
            6.5,
            -7.5,
            0.0,
            -0.0,
            1e-300,
            P53 as f64,
            (P53 + 2) as f64,
            -(P53 as f64),
            -(i64::MIN as f64), // 2^63: above every i64
            i64::MIN as f64,
            1e19,
            -1e19,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
        ];
        let schema = Arc::new(Schema::new(vec![Field::new("x", DataType::Int64)]));
        for rows in &tables {
            let resident = Segment::from_rows(SegmentId(1), Arc::clone(&schema), rows, 0, None).unwrap();
            let paged =
                Segment::from_rows(SegmentId(1), Arc::clone(&schema), rows, 0, Some(&test_pager(u64::MAX, 64)))
                    .unwrap();
            for op in ALL_OPS {
                for &lit in &lits {
                    let pred = ScanPredicate::single(0, op, Value::Float(lit));
                    let want: Vec<u32> = (0..rows.len() as u32)
                        .filter(|&i| pred.matches_row(&rows[i as usize]))
                        .collect();
                    for seg in [&resident, &paged] {
                        let got = seg
                            .select(&pred, 10, NOBODY)
                            .unwrap()
                            .map_or(Vec::new(), |s| s.to_selection());
                        assert_eq!(
                            got,
                            want,
                            "{} x {op:?} {lit:?} paged={}",
                            seg.column_encoding_name(0).unwrap(),
                            seg.is_paged()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn paged_empty_segment() {
        let pager = test_pager(u64::MAX, 64);
        let s = Segment::from_rows(SegmentId(3), schema(), &[], 0, Some(&pager)).unwrap();
        assert_eq!(s.row_count(), 0);
        assert_eq!(s.group_count(), 0);
        assert!(s
            .scan(&[0], &ScanPredicate::all(), 10, NOBODY, 4096)
            .unwrap()
            .is_empty());
        assert_eq!(s.column_encoding_name(0).unwrap(), "empty");
    }

    /// Rows with NULLs in every column, a sorted id, a low-cardinality
    /// string and a float: each encoding family, hot and frozen.
    fn mixed_rows(n: usize) -> Vec<Row> {
        (0..n)
            .map(|i| {
                Row::new(vec![
                    Value::Int(i as i64),
                    if i % 11 == 3 {
                        Value::Null
                    } else {
                        Value::Str(["berlin", "munich", "cologne"][i % 3].into())
                    },
                    if i % 7 == 5 {
                        Value::Null
                    } else {
                        Value::Float(i as f64 / 8.0)
                    },
                ])
            })
            .collect()
    }

    fn build(rows: &[Row], pager: Option<&Arc<SegmentPager>>, frozen: bool) -> Segment {
        if !frozen {
            return Segment::from_rows(SegmentId(1), schema(), rows, 0, pager).unwrap();
        }
        let mut builder = Segment::builder(SegmentId(1), schema(), 0, pager)
            .unwrap()
            .frozen();
        for r in rows {
            builder.push_row(r.clone()).unwrap();
        }
        builder.finish().unwrap()
    }

    /// A held segment is nothing but a paged one whose single group spans
    /// the segment: with `rows_per_group >= row_count` the two stores agree
    /// on all metadata and on every read, hot and frozen.
    #[test]
    fn one_group_paged_segment_equals_the_held_segment() {
        let rows = mixed_rows(300);
        let preds = [
            ScanPredicate::all(),
            ScanPredicate::single(0, CmpOp::Ge, Value::Int(250)),
            ScanPredicate::single(1, CmpOp::Eq, Value::Str("munich".into())),
            ScanPredicate::single(2, CmpOp::Lt, Value::Float(10.0)),
            ScanPredicate::single(0, CmpOp::Gt, Value::Int(10_000)),
        ];
        for frozen in [false, true] {
            for rows_per_group in [300, 4096] {
                let held = build(&rows, None, frozen);
                let paged = build(&rows, Some(&test_pager(u64::MAX, rows_per_group)), frozen);
                assert!(paged.is_paged() && !held.is_paged());
                assert_eq!(held.is_frozen(), frozen);
                assert_eq!(paged.is_frozen(), frozen);
                assert_eq!(held.group_count(), 1);
                assert_eq!(paged.group_count(), 1);
                assert_eq!(held.group_bounds(0), paged.group_bounds(0));
                assert_eq!(held.group_zone(0), paged.group_zone(0));
                assert_eq!(held.group_zone(0), held.zone_map());
                assert_eq!(held.zone_map(), paged.zone_map());
                assert_eq!(held.heat.len(), paged.heat.len());
                for c in 0..3 {
                    assert_eq!(
                        held.column_encoding_name(c).unwrap(),
                        paged.column_encoding_name(c).unwrap(),
                        "column {c} frozen={frozen}"
                    );
                }
                for (k, pred) in preds.iter().enumerate() {
                    assert_eq!(
                        held.select(pred, 10, NOBODY).unwrap(),
                        paged.select(pred, 10, NOBODY).unwrap(),
                        "pred {k} frozen={frozen}"
                    );
                    let a = held.scan(&[2, 0, 1], pred, 10, NOBODY, 64).unwrap();
                    let b = paged.scan(&[2, 0, 1], pred, 10, NOBODY, 64).unwrap();
                    assert_eq!(a.len(), b.len(), "pred {k} frozen={frozen}");
                    for (x, y) in a.iter().zip(&b) {
                        assert_eq!(x.to_rows(), y.to_rows(), "pred {k} frozen={frozen}");
                    }
                }
                let picks = [0u32, 1, 63, 64, 65, 299];
                assert_eq!(
                    held.gather_columns(&[1, 2], &picks, None).unwrap(),
                    paged.gather_columns(&[1, 2], &picks, None).unwrap()
                );
                for off in picks {
                    assert_eq!(held.row_at(off).unwrap(), rows[off as usize]);
                    assert_eq!(paged.row_at(off).unwrap(), rows[off as usize]);
                }
                assert_eq!(held.heat(), paged.heat());
            }
        }
    }

    /// Zero rows is zero groups in either store; every read is defined.
    #[test]
    fn empty_segments_through_both_stores() {
        let pager = test_pager(u64::MAX, 64);
        for pager in [None, Some(&pager)] {
            for frozen in [false, true] {
                let s = build(&[], pager, frozen);
                assert_eq!(s.row_count(), 0);
                assert_eq!(s.group_count(), 0);
                assert!(s
                    .scan(&[0], &ScanPredicate::all(), 10, NOBODY, 4096)
                    .unwrap()
                    .is_empty());
                assert_eq!(
                    s.gather_columns(&[0, 2], &[], None).unwrap(),
                    vec![
                        ColumnVector::new(DataType::Int64),
                        ColumnVector::new(DataType::Float64)
                    ]
                );
                assert_eq!(s.column_encoding_name(0).unwrap(), "empty");
                assert!(matches!(
                    s.column_encoding_name(3),
                    Err(DbError::ColumnNotFound(_))
                ));
                assert!(matches!(s.row_at(0), Err(DbError::InvalidArgument(_))));
                assert!(matches!(
                    s.column_chunk(0, 0),
                    Err(DbError::InvalidArgument(_))
                ));
                s.seed_heat(8);
                assert_eq!(s.heat(), 8);
            }
        }
    }

    /// `column_chunk` range-checks the group whichever store holds it.
    #[test]
    fn column_chunk_rejects_groups_and_columns_out_of_range() {
        let rows = mixed_rows(100);
        let pager = test_pager(u64::MAX, 64);
        for pager in [None, Some(&pager)] {
            let s = build(&rows, pager, false);
            let groups = s.group_count();
            assert!(s.column_chunk(groups - 1, 2).is_ok());
            assert!(matches!(
                s.column_chunk(groups, 0),
                Err(DbError::InvalidArgument(_))
            ));
            assert!(matches!(
                s.column_chunk(0, 3),
                Err(DbError::ColumnNotFound(_))
            ));
        }
    }

    /// `gather_columns` over index lists inside one group, across two and
    /// across all of them, at group sizes 1, 64 and the whole segment,
    /// equals reading the rows one by one.
    #[test]
    fn gather_columns_across_groups_equals_row_at() {
        let rows = mixed_rows(200);
        let index_lists: [Vec<u32>; 5] = [
            vec![70],
            vec![65, 66, 90, 127],
            vec![60, 63, 64, 100],
            (0..200).step_by(7).collect(),
            (0..200).collect(),
        ];
        let (one, sixty_four) = (test_pager(u64::MAX, 1), test_pager(u64::MAX, 64));
        for pager in [Some(&one), Some(&sixty_four), None] {
            for frozen in [false, true] {
                let s = build(&rows, pager, frozen);
                for indexes in &index_lists {
                    let cols = s.gather_columns(&[0, 1, 2], indexes, None).unwrap();
                    let got = oltap_common::Batch::new(cols).unwrap().to_rows();
                    let want: Vec<Row> =
                        indexes.iter().map(|&i| s.row_at(i).unwrap()).collect();
                    assert_eq!(got, want, "groups={} frozen={frozen}", s.group_count());
                    assert_eq!(
                        want,
                        indexes.iter().map(|&i| rows[i as usize].clone()).collect::<Vec<_>>()
                    );
                }
            }
        }
    }
    /// `select` is nothing but `select_group` over the row groups, pasted
    /// at their offsets — on a held segment (one group), a paged one cut
    /// into 64-row groups and a frozen one, with the three kinds of delete
    /// stamp a snapshot can meet. Each group a statement does not prune
    /// gains exactly one heat; each group it prunes faults no page.
    #[test]
    fn select_is_the_concatenation_of_select_group() {
        let rows = mixed_rows(300);
        let (me, other, read_ts) = (TxnId(7), TxnId(9), 100);
        let preds = [
            ScanPredicate::all(),
            ScanPredicate::single(0, CmpOp::Ge, Value::Int(250)),
            ScanPredicate::single(1, CmpOp::Eq, Value::Str("munich".into())),
            ScanPredicate::single(2, CmpOp::Lt, Value::Float(10.0)),
            ScanPredicate::single(0, CmpOp::Gt, Value::Int(10_000)),
        ];
        for (paged, frozen) in [(false, false), (true, false), (true, true)] {
            for pred in &preds {
                // A segment and a cold pool per statement shape, so that
                // the miss count is this statement's alone.
                let pager = paged.then(|| test_pager(u64::MAX, 64));
                let seg = build(&rows, pager.as_ref(), frozen);
                let tag = format!("paged {paged} frozen {frozen} {pred:?}");
                // Mine and pending (deleted for me), committed before the
                // snapshot (deleted), committed after it and a foreign
                // pending one (both still visible).
                for offset in [5, 70] {
                    seg.delete_row(offset, me, read_ts).unwrap();
                }
                for (txn, offsets, cts) in [(TxnId(1), [10, 130], 50), (TxnId(2), [131, 299], 200)] {
                    for offset in offsets {
                        seg.delete_row(offset, txn, 0).unwrap();
                    }
                    seg.commit_deletes(txn, cts);
                }
                seg.delete_row(200, other, read_ts).unwrap();

                let groups = seg.group_count();
                assert_eq!(groups, if paged { 5 } else { 1 }, "{tag}");
                let survives = |g: usize| seg.zone_map().may_match(pred) && seg.group_zone(g).may_match(pred);
                let heat = || (0..groups).map(|g| seg.group_heat(g)).collect::<Vec<_>>();
                let want_heat = |before: &[u32]| -> Vec<u32> {
                    (0..groups).map(|g| before[g] + survives(g) as u32).collect()
                };

                let before = heat();
                let mut pasted = BitSet::with_len(seg.row_count());
                match seg.selector(pred, read_ts, me).unwrap() {
                    None => assert!((0..groups).all(|g| !survives(g)), "{tag}"),
                    Some(mut selector) => {
                        for g in 0..groups {
                            let (start, n) = seg.group_bounds(g);
                            if let Some(local) = selector.select_group(g).unwrap() {
                                assert_eq!(local.len(), n, "{tag} group {g}");
                                assert!(survives(g) && !local.none_set(), "{tag} group {g}");
                                pasted.paste(start, local);
                            }
                        }
                    }
                }
                assert_eq!(heat(), want_heat(&before), "{tag}");
                if let Some(pager) = &pager {
                    // One page per surviving group per filtered column.
                    let pages = (0..groups).filter(|&g| survives(g)).count() * pred.conjuncts.len();
                    assert_eq!(pager.buffer().stats().misses, pages as u64, "{tag}");
                }

                // The row-wise definition of the selection.
                let oracle: Vec<usize> = (0..rows.len())
                    .filter(|&i| pred.matches_row(&rows[i]) && !seg.is_deleted(i as u32, read_ts, me))
                    .collect();
                assert_eq!(pasted.iter_ones().collect::<Vec<_>>(), oracle, "{tag}");
                for offset in [131, 200, 299] {
                    assert_eq!(pasted.get(offset), pred.matches_row(&rows[offset]), "{tag}");
                }

                let before = heat();
                let whole = seg.select(pred, read_ts, me).unwrap();
                assert_eq!(whole.unwrap_or_else(|| BitSet::with_len(rows.len())), pasted, "{tag}");
                assert_eq!(heat(), want_heat(&before), "{tag}");
            }
        }
    }
}

#[cfg(test)]
mod read_ahead {
    use super::*;
    use crate::buffer::{BufferManager, BufferStats};
    use oltap_common::fault::FaultInjector;
    use oltap_common::{Field, Schema};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    const ROWS: usize = 64;
    const NOBODY: TxnId = TxnId(u64::MAX);

    fn root() -> std::path::PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        std::env::temp_dir().join(format!(
            "oltap-read-ahead-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ))
    }

    fn pager(pool_bytes: u64, loader: bool) -> Arc<SegmentPager> {
        let buffer = BufferManager::new(pool_bytes, None, FaultInjector::disabled());
        match loader {
            true => SegmentPager::new(root(), buffer, ROWS, FaultInjector::disabled()),
            false => SegmentPager::without_loader(root(), buffer, ROWS),
        }
    }

    /// `groups` row groups of two integer columns, `id` and `2 * id`: every
    /// page of a column is the same size.
    fn segment(pager: &Arc<SegmentPager>, groups: usize) -> Segment {
        let schema = Arc::new(Schema::new(vec![
            Field::not_null("id", DataType::Int64),
            Field::not_null("twice", DataType::Int64),
        ]));
        let rows: Vec<Row> = (0..(groups * ROWS) as i64)
            .map(|i| Row::new(vec![Value::Int(i), Value::Int(2 * i)]))
            .collect();
        Segment::from_rows(SegmentId(1), schema, &rows, 0, Some(pager)).unwrap()
    }

    fn eventually(what: &str, mut done: impl FnMut() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !done() {
            assert!(Instant::now() < deadline, "timed out: {what}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// One pass as a fused aggregate makes it: group by group, the filter
    /// column pinned by `select_group`, the other one beside it. Returns
    /// each group's sum of `twice`; `at(g)` runs as the pass enters group `g`.
    fn pass(seg: &Segment, mut at: impl FnMut(usize)) -> Result<Vec<i64>> {
        let pred = ScanPredicate::single(0, CmpOp::Ge, Value::Int(0));
        let mut selector = seg.selector(&pred, 1, NOBODY)?.expect("nothing is pruned");
        let chunks = selector.chunks();
        let mut sums = Vec::new();
        for g in 0..seg.group_count() {
            at(g);
            let rows: Vec<usize> = match selector.select_group(g)? {
                Some(local) => local.iter_ones().collect(),
                None => continue,
            };
            let twice = chunks.column_chunk(g, 1)?;
            sums.push(
                rows.iter()
                    .map(|&i| twice.value_at(i).as_int().unwrap())
                    .sum(),
            );
        }
        Ok(sums)
    }

    fn counts(stats: BufferStats) -> [u64; 5] {
        [
            stats.hits,
            stats.misses,
            stats.evictions,
            stats.resident_bytes,
            stats.pinned_bytes,
        ]
    }

    /// A page the loader read is published by the pass's own pin, as a miss
    /// with its room made then: three passes read the same sums with the
    /// loader as without it, with the same hits, misses, evictions and
    /// resident bytes — under a pool that holds them, and one a quarter of
    /// their size, which churns the pass's own frames.
    #[test]
    fn reading_ahead_changes_no_answer_and_no_pool_decision() {
        let groups = 40;
        let whole = segment(&pager(u64::MAX, false), groups).size_bytes() as u64;
        for pool_bytes in [u64::MAX, whole / 4] {
            let run = |loader: bool| {
                let pager = pager(pool_bytes, loader);
                let seg = segment(&pager, groups);
                let sums: Vec<Vec<i64>> = (0..3)
                    .map(|_| {
                        pass(&seg, |g| {
                            // The loader starts at the first miss after group
                            // 0; let it read something before going on.
                            let loads = || pager.buffer().stats().loader_loads;
                            if loader && g == 2 && loads() == 0 {
                                eventually("a read ahead", || loads() > 0);
                            }
                        })
                        .unwrap()
                    })
                    .collect();
                (sums, pager.buffer().stats())
            };
            let ((read_ahead, with), (alone, without)) = (run(true), run(false));
            assert_eq!(read_ahead, alone, "pool {pool_bytes}");
            assert_eq!(counts(with), counts(without), "pool {pool_bytes}");
            assert!(
                with.loader_loads > 0 && without.loader_loads == 0,
                "{with:?}"
            );
            assert!(pool_bytes == u64::MAX || with.evictions > 0, "{with:?}");
        }
    }

    /// How far ahead the loader runs: a quarter of what the pool can keep,
    /// at the pass's bytes per row group — here `window` row groups. It
    /// starts at the pass's first miss after its first row group (group 1),
    /// leaves the next row group (2) to the pass, stops at the window's edge,
    /// and goes on once the pass has gone half a window further.
    #[test]
    fn the_loader_runs_a_window_ahead_and_resumes_half_a_window_on() {
        let groups = 60;
        let window: usize = 8;
        let probe = segment(&pager(u64::MAX, false), groups);
        let per_group = (probe.size_bytes() / groups) as u64;
        let pager = pager(4 * window as u64 * per_group, true);
        let seg = segment(&pager, groups);
        let loads = || pager.buffer().stats().loader_loads;
        let settled = |want: u64| {
            eventually(&format!("{want} pages read ahead"), || loads() == want);
            std::thread::sleep(Duration::from_millis(20));
            assert_eq!(loads(), want, "the loader ran past its window");
        };
        let resume = (1 + window + 1) - window.div_ceil(2);
        pass(&seg, |g| match g {
            // Listed at group 1, started there: groups 3 ..= 1 + window.
            2 => settled(2 * (window as u64 - 1)),
            // Still stopped just before the pass has gone half a window on.
            g if g == resume - 1 => settled(2 * (window as u64 - 1)),
            // Woken: up to `resume + window`.
            g if g == resume + 1 => settled(2 * (resume + window - 2) as u64),
            _ => {}
        })
        .unwrap();
        assert_eq!(pager.jobs(), 0);
    }

    /// A pass that ends part-way — dropped, as a cancelled or failed
    /// statement drops it — ends its job there: the loader, stopped at the
    /// window's edge with row groups still to read, reads no more of them;
    /// no job, load under way or pin is left; only what the pass pinned
    /// became a frame; and the segment and the pager then go, the loader
    /// thread with them, within a time bound.
    #[test]
    fn a_pass_dropped_part_way_leaves_nothing_behind() {
        let (groups, window) = (40, 4);
        let probe = segment(&pager(u64::MAX, false), groups);
        let per_group = (probe.size_bytes() / groups) as u64;
        let pager = pager(4 * window * per_group, true);
        let seg = segment(&pager, groups);
        let loads = || pager.buffer().stats().loader_loads;
        let pred = ScanPredicate::single(0, CmpOp::Ge, Value::Int(0));
        let mut selector = seg.selector(&pred, 1, NOBODY).unwrap().unwrap();
        for g in 0..3 {
            selector.select_group(g).unwrap();
            selector.chunks().column_chunk(g, 1).unwrap();
        }
        // Groups 3 ..= 1 + window read, the rest of the list waiting.
        eventually("the window read", || loads() == 2 * (window - 1));
        assert_eq!(pager.jobs(), 1);
        drop(selector);
        let stats = pager.buffer().stats();
        assert_eq!(
            (pager.jobs(), pager.buffer().loading(), stats.pinned_bytes),
            (0, 0, 0)
        );
        assert_eq!(stats.misses, 2 * 3);
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(
            loads(),
            2 * (window - 1),
            "the loader read on for a pass that ended"
        );
        let started = Instant::now();
        drop(seg);
        drop(pager);
        let took = started.elapsed();
        assert!(
            took < Duration::from_secs(5),
            "dropping the pager took {took:?}"
        );
    }
}
