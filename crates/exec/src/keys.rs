//! Key columns: the one way the pipeline breakers hash, match and order the
//! rows of their key columns, and the one record all of them spill.
//!
//! A key is either a row of key columns, compared where it stands in its
//! batch, or a stored key, packed [`Value`]s. Both follow `Value`'s own
//! semantics. Equality and order are `Value::cmp`: NULL first, `Int`,
//! `Timestamp` and `Float` compared as numbers, `-0.0` below `0.0`, a NaN
//! equal to itself. The hash is the `join_hash_*` family, whose classes
//! are `Value`'s `Hash` classes (an integral float hashes as the integer),
//! so the scan-side `JoinFilter` agrees with the join's table.
//!
//! NULL. [`hash_rows`] marks the rows holding one and hashes NULL as a class
//! of its own. The join drops marked rows (SQL equality never joins NULL);
//! the group store keeps them, NULL being a group key like any other.
//!
//! Users: the group store's row keys ([`crate::groups`]) and the join's
//! distinct build keys ([`crate::join`]) are each a [`KeyIndex`]; the sort
//! ([`crate::sort`]) orders parked rows by [`cmp_rows`] and spilled records
//! by [`cmp_keys`], and top-K an offered row against its heap by
//! [`cmp_row`]; and all three spill through [`write_record`] /
//! [`read_record`].

use oltap_common::hash::{
    join_hash_bool, join_hash_combine, join_hash_float, join_hash_int, join_hash_str,
    join_hash_value, JOIN_KEY_SEED,
};
use oltap_common::{ColumnVector, DbError, Result, Value};
use oltap_storage::spill::{SpillReader, SpillWriter};
use oltap_txn::wal::{get_value, put_value};
use std::borrow::Borrow;
use std::cmp::Ordering;
use std::ops::Range;

/// "No key" in a [`KeyIndex`] slot, and "end of chain" to its users.
pub(crate) const NONE: u32 = u32::MAX;

/// Hashes rows `rows` of the key columns `cols` into `hashes`, one a row
/// from `rows.start`, and marks in `nulls` the rows with a NULL in any
/// column. Vectorized per column type; a row hashes as [`hash_key`] of its
/// values.
pub(crate) fn hash_rows<C: Borrow<ColumnVector>>(
    cols: &[C],
    rows: Range<usize>,
    hashes: &mut Vec<u64>,
    nulls: &mut Vec<bool>,
) {
    hashes.clear();
    hashes.resize(rows.len(), JOIN_KEY_SEED);
    nulls.clear();
    nulls.resize(rows.len(), false);
    let null = join_hash_value(&Value::Null);
    // The validity match is hoisted out of the row loop: the common
    // all-valid case runs a straight-line combine with no per-row branch.
    macro_rules! hash_col {
        ($validity:expr, $hash_at:expr) => {
            match $validity {
                None => {
                    for (h, i) in hashes.iter_mut().zip(rows.clone()) {
                        *h = join_hash_combine(*h, $hash_at(i));
                    }
                }
                Some(valid) => {
                    for ((h, is_null), i) in hashes.iter_mut().zip(nulls.iter_mut()).zip(rows.clone()) {
                        if valid.get(i) {
                            *h = join_hash_combine(*h, $hash_at(i));
                        } else {
                            *is_null = true;
                            *h = join_hash_combine(*h, null);
                        }
                    }
                }
            }
        };
    }
    for col in cols {
        match col.borrow() {
            ColumnVector::Int64 { values, validity } => {
                hash_col!(validity, |i: usize| join_hash_int(values[i]))
            }
            ColumnVector::Float64 { values, validity } => {
                hash_col!(validity, |i: usize| join_hash_float(values[i]))
            }
            ColumnVector::Utf8 { values, validity } => {
                hash_col!(validity, |i: usize| join_hash_str(&values[i]))
            }
            ColumnVector::Bool { values, validity } => {
                hash_col!(validity, |i: usize| join_hash_bool(values.get(i)))
            }
        }
    }
}

/// The hash of a stored key: what [`hash_rows`] gives a row holding it.
pub(crate) fn hash_key(key: &[Value]) -> u64 {
    key.iter()
        .fold(JOIN_KEY_SEED, |h, v| join_hash_combine(h, join_hash_value(v)))
}

/// `col`'s value at `i` against `v`, in [`Value`] order: what
/// `col.value_at(i).cmp(v)` answers, without building the value to ask.
pub(crate) fn cmp_at(col: &ColumnVector, i: usize, v: &Value) -> Ordering {
    if !col.is_valid(i) {
        return Value::Null.cmp(v);
    }
    match (col, v) {
        (ColumnVector::Int64 { values, .. }, Value::Int(b) | Value::Timestamp(b)) => values[i].cmp(b),
        (ColumnVector::Float64 { values, .. }, Value::Float(b)) => values[i].total_cmp(b),
        (ColumnVector::Utf8 { values, .. }, Value::Str(b)) => values[i].as_str().cmp(b),
        // Against anything but a string the order of the types decides, and
        // an empty string allocates nothing.
        (ColumnVector::Utf8 { .. }, _) => Value::Str(String::new()).cmp(v),
        _ => col.value_at(i).cmp(v),
    }
}

/// Row `i` of the key columns `cols` against the stored key `key`, a
/// column's order reversed where `desc` says so.
pub(crate) fn cmp_row<C: Borrow<ColumnVector>>(cols: &[C], i: usize, key: &[Value], desc: &[bool]) -> Ordering {
    directed(cols.iter().zip(key).map(|(col, v)| cmp_at(col.borrow(), i, v)), desc)
}

/// Row `i` of the key columns `a` against row `j` of the key columns `b`,
/// a column's order reversed where `desc` says so: what [`cmp_keys`]
/// answers of their values.
pub(crate) fn cmp_rows(a: &[ColumnVector], i: usize, b: &[ColumnVector], j: usize, desc: &[bool]) -> Ordering {
    directed(a.iter().zip(b).map(|(a, b)| cmp_in(a, i, b, j)), desc)
}

/// `a`'s value at `i` against `b`'s at `j`, in [`Value`] order: typed where
/// both are of one type and hold no NULL, else as [`cmp_at`] `b`'s value.
fn cmp_in(a: &ColumnVector, i: usize, b: &ColumnVector, j: usize) -> Ordering {
    use ColumnVector::{Float64, Int64, Utf8};
    match (a, b) {
        (Int64 { values: x, validity: None }, Int64 { values: y, validity: None }) => x[i].cmp(&y[j]),
        (Float64 { values: x, validity: None }, Float64 { values: y, validity: None }) => x[i].total_cmp(&y[j]),
        (Utf8 { values: x, validity: None }, Utf8 { values: y, validity: None }) => x[i].cmp(&y[j]),
        _ => cmp_at(a, i, &b.value_at(j)),
    }
}

/// Two stored keys, a column's order reversed where `desc` says so.
pub(crate) fn cmp_keys(a: &[Value], b: &[Value], desc: &[bool]) -> Ordering {
    directed(a.iter().zip(b).map(|(x, y)| x.cmp(y)), desc)
}

/// The first unequal column's order, reversed where `desc` says so.
fn directed(ords: impl Iterator<Item = Ordering>, desc: &[bool]) -> Ordering {
    ords.zip(desc)
        .find(|(ord, _)| ord.is_ne())
        .map_or(Ordering::Equal, |(ord, &desc)| if desc { ord.reverse() } else { ord })
}

/// Whether row `i` of the key columns `cols` is the stored key `key`.
pub(crate) fn eq_row<C: Borrow<ColumnVector>>(cols: &[C], i: usize, key: &[Value]) -> bool {
    cols.iter().zip(key).all(|(col, v)| cmp_at(col.borrow(), i, v).is_eq())
}

/// Distinct keys, packed: key `id` is `width` values at `id * width`, found
/// by its hash through an open-addressing slot table (linear probing).
#[derive(Debug)]
pub(crate) struct KeyIndex {
    width: usize,
    /// Key ids, [`NONE`] where empty: none before the first key, then a
    /// power of two at least twice the keys, so a probe always ends.
    slots: Vec<u32>,
    hashes: Vec<u64>,
    keys: Vec<Value>,
}

impl KeyIndex {
    /// An empty index of `width`-value keys with room for `n` of them.
    pub(crate) fn with_capacity(width: usize, n: usize) -> Self {
        KeyIndex {
            width,
            slots: if n == 0 { Vec::new() } else { vec![NONE; (2 * n).next_power_of_two()] },
            hashes: Vec::with_capacity(n),
            keys: Vec::with_capacity(n * width),
        }
    }

    /// Keys held.
    pub(crate) fn len(&self) -> usize {
        self.hashes.len()
    }

    /// Key `id`'s values.
    pub(crate) fn key(&self, id: u32) -> &[Value] {
        &self.keys[id as usize * self.width..][..self.width]
    }

    /// Key `id`'s hash.
    pub(crate) fn hash(&self, id: u32) -> u64 {
        self.hashes[id as usize]
    }

    /// The key of hash `hash` that `is` accepts: its id, or else the empty
    /// slot [`insert`](Self::insert) puts it in.
    #[inline]
    pub(crate) fn find(&self, hash: u64, is: impl Fn(&[Value]) -> bool) -> std::result::Result<u32, usize> {
        let Some(mask) = self.slots.len().checked_sub(1) else {
            return Err(0);
        };
        let mut s = hash as usize & mask;
        loop {
            let id = self.slots[s];
            if id == NONE {
                return Err(s);
            }
            if self.hashes[id as usize] == hash && is(self.key(id)) {
                return Ok(id);
            }
            s = (s + 1) & mask;
        }
    }

    /// Adds a key [`find`](Self::find) did not find, in the slot it
    /// answered; the key's id is the number of keys before it.
    pub(crate) fn insert(&mut self, slot: usize, hash: u64, key: impl IntoIterator<Item = Value>) -> u32 {
        let id = self.hashes.len() as u32;
        self.hashes.push(hash);
        self.keys.extend(key);
        if 2 * self.hashes.len() > self.slots.len() {
            let mask = (2 * self.hashes.len()).next_power_of_two().max(16) - 1;
            self.slots = vec![NONE; mask + 1];
            for (id, &h) in self.hashes.iter().enumerate() {
                let mut s = h as usize & mask;
                while self.slots[s] != NONE {
                    s = (s + 1) & mask;
                }
                self.slots[s] = id as u32;
            }
        } else {
            self.slots[slot] = id;
        }
        id
    }

    /// Issues a prefetch for the slot a probe of `hash` starts at (x86-64
    /// only: there is no portable prefetch). A probe loop that runs one
    /// pass of prefetches over a small chunk of keys, then a pass of
    /// [`find`](Self::find)s, overlaps their cache misses instead of
    /// stalling on one at a time.
    #[inline(always)]
    pub(crate) fn prefetch(&self, hash: u64) {
        #[cfg(target_arch = "x86_64")]
        if let Some(mask) = self.slots.len().checked_sub(1) {
            // SAFETY: the slot is masked into bounds; a prefetch has no
            // side effects.
            unsafe {
                let slot = self.slots.as_ptr().add(hash as usize & mask);
                core::arch::x86_64::_mm_prefetch(slot.cast::<i8>(), core::arch::x86_64::_MM_HINT_T0);
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = hash;
    }
}

/// One spilled record: an arrival sequence where its spiller keeps one
/// (`tag`), its key's `hash` where it keeps that, and its values.
#[derive(Debug, PartialEq)]
pub(crate) struct Record {
    pub(crate) tag: u64,
    pub(crate) hash: u64,
    pub(crate) values: Vec<Value>,
}

/// Appends one record to `w`: `[tag u64][hash u64][n u16]` and the `n`
/// values of `parts`, in order, in the WAL's value codec.
pub(crate) fn write_record(w: &mut SpillWriter, tag: u64, hash: u64, parts: &[&[Value]]) -> Result<()> {
    let n: usize = parts.iter().map(|p| p.len()).sum();
    let mut buf = Vec::with_capacity(18 + 12 * n);
    buf.extend_from_slice(&tag.to_le_bytes());
    buf.extend_from_slice(&hash.to_le_bytes());
    buf.extend_from_slice(&(n as u16).to_le_bytes());
    for v in parts.iter().flat_map(|p| p.iter()) {
        put_value(&mut buf, v);
    }
    w.write_record(&buf)
}

/// The next record of `r`, which must hold `width` values: a short,
/// truncated or overlong one is [`DbError::Corruption`].
pub(crate) fn read_record(r: &mut SpillReader, width: usize) -> Result<Option<Record>> {
    let Some(bytes) = r.next_record()? else {
        return Ok(None);
    };
    let corrupt = |what: String| DbError::Corruption(format!("spill record {what}"));
    let word = |at: usize| u64::from_le_bytes(std::array::from_fn(|b| bytes[at + b]));
    if bytes.len() < 18 {
        return Err(corrupt(format!("of {} bytes is truncated", bytes.len())));
    }
    let n = u16::from_le_bytes([bytes[16], bytes[17]]) as usize;
    if n != width {
        return Err(corrupt(format!("holds {n} values, expected {width}")));
    }
    let mut rest = &bytes[18..];
    let values = (0..n).map(|_| get_value(&mut rest)).collect::<Result<Vec<_>>>()?;
    if !rest.is_empty() {
        return Err(corrupt(format!("has {} bytes past its values", rest.len())));
    }
    Ok(Some(Record {
        tag: word(0),
        hash: word(8),
        values,
    }))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use oltap_common::DataType;
    use oltap_storage::spill::SpillDir;
    use std::collections::BTreeSet;

    /// The values the identity is pinned on: NULL, both float zeros, NaN,
    /// integral and fractional floats beside the integers and timestamps
    /// they equal or not, empty and non-ASCII strings, bools.
    fn values() -> Vec<Value> {
        vec![
            Value::Null,
            Value::Bool(false),
            Value::Bool(true),
            Value::Int(-3),
            Value::Int(0),
            Value::Int(2),
            Value::Timestamp(2),
            Value::Float(0.0),
            Value::Float(-0.0),
            Value::Float(f64::NAN),
            Value::Float(2.0),
            Value::Float(2.5),
            Value::Float(-3.0),
            Value::Str(String::new()),
            Value::Str("a".into()),
            Value::Str("é".into()),
            Value::Str("日本".into()),
        ]
    }

    /// Typed key columns holding every pair of the values their types take
    /// (NULL included when `null`), one row a pair.
    fn columns(types: [DataType; 2], null: bool) -> Vec<ColumnVector> {
        let fits = |t: DataType| -> Vec<Value> {
            let fits = |v: &Value| (null || !v.is_null()) && (v.is_null() || v.check_type(t).is_ok());
            values().into_iter().filter(fits).collect()
        };
        let mut cols = types.map(ColumnVector::new);
        for a in fits(types[0]) {
            for b in fits(types[1]) {
                cols[0].push(&a).unwrap();
                cols[1].push(&b).unwrap();
            }
        }
        cols.to_vec()
    }

    /// The model: `Value::cmp` column by column under `desc`.
    fn model_cmp(a: &[Value], b: &[Value], desc: &[bool]) -> Ordering {
        for ((x, y), &d) in a.iter().zip(b).zip(desc) {
            let ord = if d { y.cmp(x) } else { x.cmp(y) };
            if ord.is_ne() {
                return ord;
            }
        }
        Ordering::Equal
    }

    /// The one hash, equality and order of a row of typed key columns
    /// against every stored two-value key are `join_hash_value`'s fold,
    /// `Value ==` and `Value::cmp` (under every `desc` mix); stored keys
    /// agree with the same three; and a key index over the stored keys
    /// finds a row exactly when a stored key equals it.
    #[test]
    fn typed_rows_hash_match_and_order_as_their_values() {
        use DataType::*;
        let stored: Vec<Vec<Value>> = values()
            .into_iter()
            .flat_map(|a| values().into_iter().map(move |b| vec![a.clone(), b]))
            .collect();
        let model_hash = |key: &[Value]| {
            key.iter()
                .fold(JOIN_KEY_SEED, |h, v| join_hash_combine(h, join_hash_value(v)))
        };
        let mut index = KeyIndex::with_capacity(2, 0);
        for key in &stored {
            let h = hash_key(key);
            assert_eq!(h, model_hash(key), "{key:?}");
            if let Err(slot) = index.find(h, |k| k == &key[..]) {
                index.insert(slot, h, key.iter().cloned());
            }
        }
        let distinct: BTreeSet<&Vec<Value>> = stored.iter().collect();
        assert_eq!(index.len(), distinct.len());
        let desc_mixes = [[false, false], [false, true], [true, false], [true, true]];
        for a in &stored {
            for b in &stored {
                for desc in &desc_mixes {
                    assert_eq!(cmp_keys(a, b, desc), model_cmp(a, b, desc), "{a:?} {b:?} {desc:?}");
                }
            }
        }
        for types in [[Float64, Utf8], [Int64, Float64], [Utf8, Bool], [Bool, Int64]] {
            let cols = columns(types, true);
            let len = cols[0].len();
            let (mut hashes, mut nulls) = (Vec::new(), Vec::new());
            hash_rows(&cols, 0..len, &mut hashes, &mut nulls);
            // A range hashes as its rows do in the whole.
            let (mut tail, mut tail_nulls) = (Vec::new(), Vec::new());
            hash_rows(&cols, 3..len, &mut tail, &mut tail_nulls);
            assert_eq!((&tail[..], &tail_nulls[..]), (&hashes[3..], &nulls[3..]));
            for i in 0..len {
                let row: Vec<Value> = cols.iter().map(|c| c.value_at(i)).collect();
                assert_eq!(hashes[i], model_hash(&row), "{types:?} {row:?}");
                assert_eq!(nulls[i], row.iter().any(Value::is_null), "{row:?}");
                for key in &stored {
                    assert_eq!(eq_row(&cols, i, key), row == *key, "{row:?} = {key:?}");
                    for desc in &desc_mixes {
                        let want = model_cmp(&row, key, desc);
                        assert_eq!(cmp_row(&cols, i, key, desc), want, "{row:?} {key:?} {desc:?}");
                    }
                }
                let found = index.find(hashes[i], |k| eq_row(&cols, i, k));
                let id = found.unwrap_or_else(|_| panic!("{row:?} is among the stored keys"));
                assert_eq!(index.key(id), &row[..]);
            }
            // Rows of columns with NULLs and without (compared typed), each
            // set against itself and the other.
            let sets = [cols, columns(types, false)];
            let at = |s: usize, j: usize| -> Vec<Value> { sets[s].iter().map(|c| c.value_at(j)).collect() };
            for (a, b) in [(0, 0), (0, 1), (1, 0), (1, 1)] {
                for i in 0..sets[a][0].len() {
                    for j in 0..sets[b][0].len() {
                        for desc in &desc_mixes {
                            let want = model_cmp(&at(a, i), &at(b, j), desc);
                            assert_eq!(cmp_rows(&sets[a], i, &sets[b], j, desc), want, "{:?} {:?}", at(a, i), at(b, j));
                        }
                    }
                }
            }
        }
    }

    /// A record reads back as written, whatever its parts, and a short,
    /// truncated or overlong one — or one of another width — is corrupt.
    #[test]
    fn a_record_round_trips_and_a_damaged_one_is_corruption() {
        let dir = SpillDir::create_temp().unwrap();
        let key = [Value::Str("k".into()), Value::Int(42)];
        let row = [Value::Float(2.5), Value::Null, Value::Str("日本".into())];
        let mut w = dir.writer("record").unwrap();
        write_record(&mut w, 7 << 32 | 3, 99, &[&key, &row]).unwrap();
        write_record(&mut w, 0, u64::MAX, &[&[]]).unwrap();
        let mut r = w.finish().unwrap().reader().unwrap();
        let first = read_record(&mut r, 5).unwrap().unwrap();
        let values = key.iter().chain(&row).cloned().collect();
        assert_eq!(first, Record { tag: 7 << 32 | 3, hash: 99, values });
        let empty = read_record(&mut r, 0).unwrap().unwrap();
        assert_eq!(empty, Record { tag: 0, hash: u64::MAX, values: Vec::new() });
        assert_eq!(read_record(&mut r, 0).unwrap(), None);

        let mut w = dir.writer("whole").unwrap();
        write_record(&mut w, 1, 2, &[&row]).unwrap();
        let whole = w.finish().unwrap().reader().unwrap().next_record().unwrap().unwrap();
        let mut overlong = whole.clone();
        overlong.push(0);
        for (case, bytes, width) in [
            ("short", &whole[..5], 3),
            ("truncated", &whole[..whole.len() - 1], 3),
            ("overlong", &overlong[..], 3),
            ("another width", &whole[..], 4),
        ] {
            let mut w = dir.writer(case).unwrap();
            w.write_record(bytes).unwrap();
            let err = read_record(&mut w.finish().unwrap().reader().unwrap(), width).unwrap_err();
            assert!(matches!(err, DbError::Corruption(_)), "{case}: {err}");
        }
    }

    /// Cuts the first record of every spill file under `dir` to its first
    /// `keep` bytes (`None`: all but its last), its framing intact: what a
    /// reader meets is a short or truncated record.
    pub(crate) fn cut_first_records(dir: &SpillDir, keep: Option<usize>) {
        for entry in std::fs::read_dir(dir.path().expect("a dir that spilled")).unwrap() {
            let path = entry.unwrap().path();
            let bytes = std::fs::read(&path).unwrap();
            let len = u32::from_le_bytes(bytes[..4].try_into().unwrap()) as usize;
            let keep = keep.unwrap_or(len - 1).min(len - 1);
            let mut out = (keep as u32).to_le_bytes().to_vec();
            out.extend_from_slice(&bytes[4..4 + keep]);
            out.extend_from_slice(&bytes[4 + len..]);
            std::fs::write(&path, out).unwrap();
        }
    }
}
