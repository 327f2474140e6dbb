//! Typed columnar vectors and batches — the unit of vectorized execution.
//!
//! A [`ColumnVector`] holds one column's values for a run of rows in a
//! dense, typed representation; a [`Batch`] is a set of equally long
//! vectors. The executor processes batches of ~4K rows at a time, which is
//! the standard way (MonetDB/X100 lineage, adopted by HANA, BLU, and
//! friends — see the paper's §3/§4) to amortize interpretation overhead
//! while staying cache-resident.

use crate::bitset::BitSet;
use crate::error::{DbError, Result};
use crate::row::Row;
use crate::schema::Schema;
use crate::types::{DataType, Value};

/// Default number of rows the executor processes per batch.
pub const BATCH_SIZE: usize = 4096;

/// One column's values in dense typed storage plus an optional validity
/// bitmap (a set bit means "valid/non-null"; absence of a bitmap means all
/// valid).
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnVector {
    /// 64-bit integers (also carries `Timestamp` physically).
    Int64 {
        /// Dense values; positions whose validity bit is clear hold 0.
        values: Vec<i64>,
        /// Validity bitmap (`None` = all valid).
        validity: Option<BitSet>,
    },
    /// 64-bit floats.
    Float64 {
        /// Dense values.
        values: Vec<f64>,
        /// Validity bitmap.
        validity: Option<BitSet>,
    },
    /// UTF-8 strings.
    Utf8 {
        /// Dense values (empty string at null positions).
        values: Vec<String>,
        /// Validity bitmap.
        validity: Option<BitSet>,
    },
    /// Booleans, bit-packed.
    Bool {
        /// Packed values.
        values: BitSet,
        /// Validity bitmap.
        validity: Option<BitSet>,
    },
}

impl ColumnVector {
    /// Creates an empty vector of the given logical type. `Timestamp` maps
    /// onto the `Int64` physical representation.
    pub fn new(data_type: DataType) -> Self {
        Self::with_capacity(data_type, 0)
    }

    /// [`new`](Self::new) with room for `rows` values, so a producer that
    /// knows its row count up front never regrows while it pushes.
    pub fn with_capacity(data_type: DataType, rows: usize) -> Self {
        match data_type {
            DataType::Int64 | DataType::Timestamp => ColumnVector::Int64 {
                values: Vec::with_capacity(rows),
                validity: None,
            },
            DataType::Float64 => ColumnVector::Float64 {
                values: Vec::with_capacity(rows),
                validity: None,
            },
            DataType::Utf8 => ColumnVector::Utf8 {
                values: Vec::with_capacity(rows),
                validity: None,
            },
            // Bit-packed, 64 rows a word: nothing worth reserving.
            DataType::Bool => ColumnVector::Bool {
                values: BitSet::new(),
                validity: None,
            },
        }
    }

    /// Creates an all-valid Int64 vector.
    pub fn from_i64(values: Vec<i64>) -> Self {
        ColumnVector::Int64 {
            values,
            validity: None,
        }
    }

    /// Creates an all-valid Bool vector.
    pub fn from_bools(bools: &[bool]) -> Self {
        let mut bits = BitSet::with_len(bools.len());
        for (i, &b) in bools.iter().enumerate() {
            if b {
                bits.set(i);
            }
        }
        ColumnVector::Bool {
            values: bits,
            validity: None,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            ColumnVector::Int64 { values, .. } => values.len(),
            ColumnVector::Float64 { values, .. } => values.len(),
            ColumnVector::Utf8 { values, .. } => values.len(),
            ColumnVector::Bool { values, .. } => values.len(),
        }
    }

    /// True when the vector holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The physical type of this vector (`Timestamp` reports as `Int64`).
    pub fn data_type(&self) -> DataType {
        match self {
            ColumnVector::Int64 { .. } => DataType::Int64,
            ColumnVector::Float64 { .. } => DataType::Float64,
            ColumnVector::Utf8 { .. } => DataType::Utf8,
            ColumnVector::Bool { .. } => DataType::Bool,
        }
    }

    /// Whether the row at `i` is non-null.
    #[inline]
    pub fn is_valid(&self, i: usize) -> bool {
        match self.validity() {
            Some(v) => v.get(i),
            None => true,
        }
    }

    /// The validity bitmap, if any.
    pub fn validity(&self) -> Option<&BitSet> {
        match self {
            ColumnVector::Int64 { validity, .. }
            | ColumnVector::Float64 { validity, .. }
            | ColumnVector::Utf8 { validity, .. }
            | ColumnVector::Bool { validity, .. } => validity.as_ref(),
        }
    }

    /// Materializes the value at `i` as a dynamically typed [`Value`].
    pub fn value_at(&self, i: usize) -> Value {
        if !self.is_valid(i) {
            return Value::Null;
        }
        match self {
            ColumnVector::Int64 { values, .. } => Value::Int(values[i]),
            ColumnVector::Float64 { values, .. } => Value::Float(values[i]),
            ColumnVector::Utf8 { values, .. } => Value::Str(values[i].clone()),
            ColumnVector::Bool { values, .. } => Value::Bool(values.get(i)),
        }
    }

    /// Appends a dynamically typed value, promoting to a validity bitmap on
    /// the first NULL.
    pub fn push(&mut self, value: &Value) -> Result<()> {
        let idx = self.len();
        let is_null = value.is_null();
        match self {
            ColumnVector::Int64 { values, validity } => {
                values.push(if is_null { 0 } else { value.as_int()? });
                push_validity(validity, idx, is_null);
            }
            ColumnVector::Float64 { values, validity } => {
                values.push(if is_null { 0.0 } else { value.as_float()? });
                push_validity(validity, idx, is_null);
            }
            ColumnVector::Utf8 { values, validity } => {
                values.push(if is_null {
                    String::new()
                } else {
                    value.as_str()?.to_string()
                });
                push_validity(validity, idx, is_null);
            }
            ColumnVector::Bool { values, validity } => {
                values.push(if is_null { false } else { value.as_bool()? });
                push_validity(validity, idx, is_null);
            }
        }
        Ok(())
    }

    /// [`push`](Self::push) for a value the caller gives up: a string moves
    /// into the vector instead of being copied.
    pub fn push_owned(&mut self, value: Value) -> Result<()> {
        match (self, value) {
            (ColumnVector::Utf8 { values, validity }, Value::Str(s)) => {
                let idx = values.len();
                values.push(s);
                push_validity(validity, idx, false);
                Ok(())
            }
            (column, value) => column.push(&value),
        }
    }

    /// Splits the vector at row `at` (`at <= len`, as `Vec::split_off`):
    /// `self` keeps `[0, at)` and the rows `[at, len)` are returned.
    pub fn split_off(&mut self, at: usize) -> ColumnVector {
        fn split_bits(bits: &mut BitSet, at: usize) -> BitSet {
            let tail = bits.slice(at, bits.len() - at);
            *bits = bits.slice(0, at);
            tail
        }
        let split_validity =
            |validity: &mut Option<BitSet>| validity.as_mut().map(|bits| split_bits(bits, at));
        match self {
            ColumnVector::Int64 { values, validity } => ColumnVector::Int64 {
                values: values.split_off(at),
                validity: split_validity(validity),
            },
            ColumnVector::Float64 { values, validity } => ColumnVector::Float64 {
                values: values.split_off(at),
                validity: split_validity(validity),
            },
            ColumnVector::Utf8 { values, validity } => ColumnVector::Utf8 {
                values: values.split_off(at),
                validity: split_validity(validity),
            },
            ColumnVector::Bool { values, validity } => ColumnVector::Bool {
                values: split_bits(values, at),
                validity: split_validity(validity),
            },
        }
    }

    /// Gathers row `r` of `parts[p]` for each `(p, r)` of `picks` into a new
    /// vector of the first part's type: [`take`](Self::take) over several
    /// vectors. Numbers and strings copy typed until a NULL; the rest goes
    /// value by value as [`push`](Self::push) takes it.
    pub fn gather(parts: &[&ColumnVector], picks: &[(u32, u32)]) -> Result<ColumnVector> {
        use ColumnVector::{Float64, Int64, Utf8};
        let data_type = parts.first().map_or(DataType::Int64, |c| c.data_type());
        let mut col = ColumnVector::with_capacity(data_type, picks.len());
        for &(p, r) in picks {
            let (part, r) = (parts[p as usize], r as usize);
            match (&mut col, part) {
                (Int64 { values, validity: None }, Int64 { values: v, validity: None }) => values.push(v[r]),
                (Float64 { values, validity: None }, Float64 { values: v, validity: None }) => values.push(v[r]),
                (Utf8 { values, validity: None }, Utf8 { values: v, validity: None }) => values.push(v[r].clone()),
                (col, part) => col.push(&part.value_at(r))?,
            }
        }
        Ok(col)
    }

    /// Gathers the rows at `sel` into a new vector (selection-vector
    /// application).
    pub fn take(&self, sel: &[u32]) -> ColumnVector {
        let gather_validity = |validity: &Option<BitSet>| -> Option<BitSet> {
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
            ColumnVector::Int64 { values, validity } => ColumnVector::Int64 {
                values: sel.iter().map(|&i| values[i as usize]).collect(),
                validity: gather_validity(validity),
            },
            ColumnVector::Float64 { values, validity } => ColumnVector::Float64 {
                values: sel.iter().map(|&i| values[i as usize]).collect(),
                validity: gather_validity(validity),
            },
            ColumnVector::Utf8 { values, validity } => ColumnVector::Utf8 {
                values: sel.iter().map(|&i| values[i as usize].clone()).collect(),
                validity: gather_validity(validity),
            },
            ColumnVector::Bool { values, validity } => {
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

    /// Borrows the dense `i64` values; errors for other types.
    pub fn as_i64(&self) -> Result<&[i64]> {
        match self {
            ColumnVector::Int64 { values, .. } => Ok(values),
            other => Err(DbError::TypeMismatch {
                expected: "Int64".into(),
                actual: other.data_type().name().into(),
            }),
        }
    }

    /// Borrows the dense `f64` values; errors for other types.
    pub fn as_f64(&self) -> Result<&[f64]> {
        match self {
            ColumnVector::Float64 { values, .. } => Ok(values),
            other => Err(DbError::TypeMismatch {
                expected: "Float64".into(),
                actual: other.data_type().name().into(),
            }),
        }
    }

    /// Borrows the packed booleans; errors for other types.
    pub fn as_bools(&self) -> Result<&BitSet> {
        match self {
            ColumnVector::Bool { values, .. } => Ok(values),
            other => Err(DbError::TypeMismatch {
                expected: "Bool".into(),
                actual: other.data_type().name().into(),
            }),
        }
    }

    /// Approximate heap footprint in bytes.
    pub fn approx_size(&self) -> usize {
        match self {
            ColumnVector::Int64 { values, .. } => values.len() * 8,
            ColumnVector::Float64 { values, .. } => values.len() * 8,
            ColumnVector::Utf8 { values, .. } => values
                .iter()
                .map(|s| s.len() + std::mem::size_of::<String>())
                .sum(),
            ColumnVector::Bool { values, .. } => values.len() / 8 + 8,
        }
    }
}

#[inline]
fn push_validity(validity: &mut Option<BitSet>, idx: usize, is_null: bool) {
    match validity {
        Some(v) => v.push(!is_null),
        None if is_null => {
            // First NULL: promote to a bitmap with all prior rows valid.
            let mut v = BitSet::all_set(idx);
            v.push(false);
            *validity = Some(v);
        }
        None => {}
    }
}

/// A set of equally long column vectors — the executor's unit of work.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Batch {
    columns: Vec<ColumnVector>,
    len: usize,
}

impl Batch {
    /// Builds a batch from columns (all must have equal length).
    pub fn new(columns: Vec<ColumnVector>) -> Result<Self> {
        let len = columns.first().map_or(0, |c| c.len());
        if columns.iter().any(|c| c.len() != len) {
            return Err(DbError::InvalidArgument(
                "batch columns have differing lengths".into(),
            ));
        }
        Ok(Batch { columns, len })
    }

    /// An empty batch shaped like `schema`.
    pub fn empty(schema: &Schema) -> Self {
        Batch {
            columns: schema
                .fields()
                .iter()
                .map(|f| ColumnVector::new(f.data_type))
                .collect(),
            len: 0,
        }
    }

    /// Builds a batch from rows, using `schema` to type the columns.
    pub fn from_rows(schema: &Schema, rows: &[Row]) -> Result<Self> {
        let mut cols: Vec<ColumnVector> = schema
            .fields()
            .iter()
            .map(|f| ColumnVector::new(f.data_type))
            .collect();
        for row in rows {
            if row.len() != cols.len() {
                return Err(DbError::InvalidArgument(format!(
                    "row arity {} != schema arity {}",
                    row.len(),
                    cols.len()
                )));
            }
            for (c, v) in cols.iter_mut().zip(row.values()) {
                c.push(v)?;
            }
        }
        Batch::new(cols)
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the batch has no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of columns.
    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    /// The column at ordinal `i`.
    pub fn column(&self, i: usize) -> &ColumnVector {
        &self.columns[i]
    }

    /// All columns.
    pub fn columns(&self) -> &[ColumnVector] {
        &self.columns
    }

    /// Consumes the batch, returning its columns.
    pub fn into_columns(self) -> Vec<ColumnVector> {
        self.columns
    }

    /// Materializes row `i`.
    pub fn row(&self, i: usize) -> Row {
        Row::new(self.columns.iter().map(|c| c.value_at(i)).collect())
    }

    /// Materializes every row (test/utility path, not the hot path).
    pub fn to_rows(&self) -> Vec<Row> {
        (0..self.len).map(|i| self.row(i)).collect()
    }

    /// Applies a selection vector to every column.
    pub fn take(&self, sel: &[u32]) -> Batch {
        Batch {
            columns: self.columns.iter().map(|c| c.take(sel)).collect(),
            len: sel.len(),
        }
    }

    /// Keeps only the given column ordinals, in order.
    pub fn project(&self, indexes: &[usize]) -> Batch {
        Batch {
            columns: indexes.iter().map(|&i| self.columns[i].clone()).collect(),
            len: self.len,
        }
    }

    /// Vertically concatenates `other` onto `self` (same column shapes).
    pub fn append(&mut self, other: &Batch) -> Result<()> {
        if self.num_columns() != other.num_columns() {
            return Err(DbError::InvalidArgument(
                "appending batches with different column counts".into(),
            ));
        }
        for i in 0..other.len {
            for (c, o) in self.columns.iter_mut().zip(&other.columns) {
                c.push(&o.value_at(i))?;
            }
        }
        self.len += other.len;
        Ok(())
    }

    /// Gathers row `r` of `parts[p]` for each `(p, r)` of `picks` into a new
    /// batch, column by column ([`ColumnVector::gather`]).
    pub fn gather(parts: &[&Batch], picks: &[(u32, u32)]) -> Result<Batch> {
        let width = parts.first().map_or(0, |b| b.num_columns());
        let columns = (0..width)
            .map(|c| ColumnVector::gather(&parts.iter().map(|b| &b.columns[c]).collect::<Vec<_>>(), picks))
            .collect::<Result<_>>()?;
        Ok(Batch { columns, len: picks.len() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Field;

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new("a", DataType::Int64),
            Field::new("b", DataType::Utf8),
            Field::new("c", DataType::Float64),
            Field::new("d", DataType::Bool),
        ])
    }

    #[test]
    fn from_rows_roundtrip() {
        let s = schema();
        let rows = vec![
            Row::new(vec![
                Value::Int(1),
                Value::Str("x".into()),
                Value::Float(0.5),
                Value::Bool(true),
            ]),
            Row::new(vec![Value::Int(2), Value::Null, Value::Null, Value::Null]),
        ];
        let b = Batch::from_rows(&s, &rows).unwrap();
        assert_eq!(b.len(), 2);
        assert_eq!(b.to_rows(), rows);
    }

    #[test]
    fn null_promotion_is_lazy() {
        let mut c = ColumnVector::new(DataType::Int64);
        c.push(&Value::Int(1)).unwrap();
        assert!(c.validity().is_none());
        c.push(&Value::Null).unwrap();
        let v = c.validity().unwrap();
        assert!(v.get(0));
        assert!(!v.get(1));
        assert_eq!(c.value_at(0), Value::Int(1));
        assert_eq!(c.value_at(1), Value::Null);
    }

    #[test]
    fn type_errors_on_push() {
        let mut c = ColumnVector::new(DataType::Int64);
        assert!(c.push(&Value::Str("no".into())).is_err());
    }

    #[test]
    fn take_gathers_and_preserves_nulls() {
        let s = Schema::new(vec![Field::new("a", DataType::Int64)]);
        let rows: Vec<Row> = (0..10)
            .map(|i| {
                Row::new(vec![if i % 3 == 0 {
                    Value::Null
                } else {
                    Value::Int(i)
                }])
            })
            .collect();
        let b = Batch::from_rows(&s, &rows).unwrap();
        let t = b.take(&[0, 4, 9]);
        assert_eq!(t.row(0)[0], Value::Null);
        assert_eq!(t.row(1)[0], Value::Int(4));
        assert_eq!(t.row(2)[0], Value::Null);
    }

    #[test]
    fn mismatched_columns_rejected() {
        let a = ColumnVector::from_i64(vec![1, 2]);
        let b = ColumnVector::from_i64(vec![1]);
        assert!(Batch::new(vec![a, b]).is_err());
    }

    #[test]
    fn append_batches() {
        let s = Schema::new(vec![Field::new("a", DataType::Int64)]);
        let mut b1 = Batch::from_rows(&s, &[Row::new(vec![Value::Int(1)])]).unwrap();
        let b2 = Batch::from_rows(&s, &[Row::new(vec![Value::Int(2)])]).unwrap();
        b1.append(&b2).unwrap();
        assert_eq!(b1.len(), 2);
        assert_eq!(b1.row(1)[0], Value::Int(2));
    }

    /// A gather holds the picked parts' values in the picked order, NULLs
    /// included, typed or value by value; parts of two types are an error.
    #[test]
    fn gather_picks_the_parts_values() {
        let parts = [
            vec![Value::Int(1), Value::Int(2)],
            vec![Value::Null, Value::Int(-3), Value::Null],
            vec![Value::Int(4)],
        ];
        let picks = [(1, 1), (0, 0), (2, 0), (1, 0), (0, 1), (1, 2), (0, 0)];
        for data_type in [DataType::Int64, DataType::Float64, DataType::Utf8, DataType::Bool] {
            let cast = |v: &Value| match (v, data_type) {
                (Value::Int(i), DataType::Float64) => Value::Float(*i as f64 / 2.0),
                (Value::Int(i), DataType::Utf8) => Value::Str(format!("s{i}")),
                (Value::Int(i), DataType::Bool) => Value::Bool(i % 2 == 0),
                (v, _) => v.clone(),
            };
            let cols: Vec<ColumnVector> = parts
                .iter()
                .map(|part| {
                    let mut col = ColumnVector::new(data_type);
                    part.iter().for_each(|v| col.push(&cast(v)).unwrap());
                    col
                })
                .collect();
            for from in [&cols[..], &cols[..1]] {
                let picks: Vec<(u32, u32)> = picks.into_iter().filter(|&(p, _)| (p as usize) < from.len()).collect();
                let got = ColumnVector::gather(&from.iter().collect::<Vec<_>>(), &picks).unwrap();
                let want: Vec<Value> = picks.iter().map(|&(p, r)| cast(&parts[p as usize][r as usize])).collect();
                assert_eq!((0..got.len()).map(|i| got.value_at(i)).collect::<Vec<_>>(), want, "{data_type}");
            }
        }
        let (ints, bools) = (ColumnVector::from_i64(vec![1]), ColumnVector::from_bools(&[true]));
        assert!(ColumnVector::gather(&[&ints, &bools], &[(0, 0), (1, 0)]).is_err());
    }

    #[test]
    fn bool_vector_roundtrip() {
        let c = ColumnVector::from_bools(&[true, false, true]);
        assert_eq!(c.value_at(0), Value::Bool(true));
        assert_eq!(c.value_at(1), Value::Bool(false));
        let t = c.take(&[2, 1]);
        assert_eq!(t.value_at(0), Value::Bool(true));
        assert_eq!(t.value_at(1), Value::Bool(false));
    }

    #[test]
    fn project_reorders() {
        let s = schema();
        let b = Batch::from_rows(
            &s,
            &[Row::new(vec![
                Value::Int(1),
                Value::Str("x".into()),
                Value::Float(0.5),
                Value::Bool(false),
            ])],
        )
        .unwrap();
        let p = b.project(&[1, 0]);
        assert_eq!(p.num_columns(), 2);
        assert_eq!(p.row(0)[0], Value::Str("x".into()));
    }

    /// `split_off` keeps the head and returns the tail, validity and bits
    /// with them, at every cut; `push_owned` is `push` with the string moved.
    #[test]
    fn split_off_and_push_owned() {
        let values = [Value::Str("a".into()), Value::Null, Value::Str("c".into())];
        for at in 0..=values.len() {
            let mut column = ColumnVector::new(DataType::Utf8);
            let mut bools = ColumnVector::new(DataType::Bool);
            for (i, v) in values.iter().enumerate() {
                column.push_owned(v.clone()).unwrap();
                bools.push(&if v.is_null() { Value::Null } else { Value::Bool(i == 2) }).unwrap();
            }
            let (tail, bool_tail) = (column.split_off(at), bools.split_off(at));
            assert_eq!((column.len(), tail.len()), (at, values.len() - at));
            for (i, want) in values.iter().enumerate() {
                let (got, got_bool) = if i < at {
                    (column.value_at(i), bools.value_at(i))
                } else {
                    (tail.value_at(i - at), bool_tail.value_at(i - at))
                };
                assert_eq!(&got, want, "at {at}, row {i}");
                assert_eq!(got_bool.is_null(), want.is_null(), "at {at}, row {i}");
            }
        }
        let mut ints = ColumnVector::new(DataType::Int64);
        assert!(ints.push_owned(Value::Str("no".into())).is_err());
    }
}
