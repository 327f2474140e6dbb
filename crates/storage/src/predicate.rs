//! Scan predicates that storage can evaluate natively.
//!
//! The executor lowers the pushable part of a WHERE clause into a
//! conjunction of simple column-vs-literal comparisons. The column store
//! uses them twice: against zone maps to skip whole segments (Oracle's
//! "in-memory storage indexes") and against compressed codes inside a
//! segment (the SIMD-scan idea).

//!
//! On top of the literal conjuncts, a scan can carry a [`JoinFilter`]: a
//! Bloom filter + key min/max derived from a hash-join build side and
//! pushed *sideways* into the probe-side scan (semi-join reduction). The
//! filter has no false negatives, so applying it before the join is
//! semantics-preserving for inner joins; false positives are re-checked
//! exactly by the join probe.

use oltap_common::bloom::BlockedBloom;
use oltap_common::hash::{join_hash_combine, join_hash_value, JOIN_KEY_SEED};
use oltap_common::{DataType, Result, Row, Schema, Value};
use std::borrow::Borrow;
use std::sync::Arc;

/// Comparison operator of a simple predicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// Applies the operator to an ordering result.
    #[inline]
    pub fn matches(self, ord: std::cmp::Ordering) -> bool {
        use std::cmp::Ordering::*;
        match self {
            CmpOp::Eq => ord == Equal,
            CmpOp::Ne => ord != Equal,
            CmpOp::Lt => ord == Less,
            CmpOp::Le => ord != Greater,
            CmpOp::Gt => ord == Greater,
            CmpOp::Ge => ord != Less,
        }
    }

    /// SQL spelling.
    pub fn symbol(self) -> &'static str {
        match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "<>",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        }
    }
}

/// One `column <op> literal` comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnPredicate {
    /// Ordinal of the column in the table schema.
    pub column: usize,
    /// The comparison.
    pub op: CmpOp,
    /// The literal. NULL never matches (SQL three-valued logic collapses
    /// to false for filtering).
    pub value: Value,
}

impl ColumnPredicate {
    /// Builds a predicate.
    pub fn new(column: usize, op: CmpOp, value: Value) -> Self {
        ColumnPredicate { column, op, value }
    }

    /// Evaluates against a materialized row.
    pub fn matches_row(&self, row: &Row) -> bool {
        let v = &row[self.column];
        if v.is_null() || self.value.is_null() {
            return false;
        }
        self.op.matches(v.cmp(&self.value))
    }
}

/// A semi-join reduction filter derived from a hash-join build side.
///
/// `columns[k]` is the table ordinal of the probe-side key column that is
/// positionally equi-joined with build key column `k`. A row can only
/// find a join partner when every key is non-NULL, every key falls inside
/// the build side's `[min, max]` envelope, and the combined key hash hits
/// the Bloom filter. All three checks are conservative (no false
/// negatives), so rows they reject are provably partnerless.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinFilter {
    /// Probe-side table ordinals of the join key columns.
    pub columns: Vec<usize>,
    /// Min/max of each build-side key column (None when no build row has
    /// a non-NULL key in that column).
    pub ranges: Vec<Option<(Value, Value)>>,
    /// Blocked Bloom filter over the combined key hash of each build row.
    pub bloom: Arc<BlockedBloom>,
    /// Build-side row count; 0 means nothing can ever match.
    pub build_rows: usize,
}

impl JoinFilter {
    /// Evaluates the filter against one row, fetching key values through
    /// `value_at(table_ordinal)` — owned (a segment decodes its keys by
    /// value) or borrowed (a row already holds them).
    pub fn matches_at<V: Borrow<Value>>(&self, mut value_at: impl FnMut(usize) -> V) -> bool {
        if self.build_rows == 0 {
            return false;
        }
        let mut h = JOIN_KEY_SEED;
        for (k, &c) in self.columns.iter().enumerate() {
            let v = value_at(c);
            let v = v.borrow();
            if v.is_null() {
                return false; // NULL keys never join.
            }
            if let Some(Some((lo, hi))) = self.ranges.get(k) {
                if v < lo || v > hi {
                    return false;
                }
            }
            h = join_hash_combine(h, join_hash_value(v));
        }
        self.bloom.contains(h)
    }

    /// Evaluates the filter against a materialized row, in place.
    pub fn matches_row(&self, row: &Row) -> bool {
        self.matches_at(|c| &row[c])
    }
}

/// A conjunction of simple predicates (empty = always true), optionally
/// carrying a sideways [`JoinFilter`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ScanPredicate {
    /// The conjuncts.
    pub conjuncts: Vec<ColumnPredicate>,
    /// Optional join pre-filter pushed in from a hash-join build side.
    pub join: Option<JoinFilter>,
}

impl ScanPredicate {
    /// The always-true predicate.
    pub fn all() -> Self {
        ScanPredicate::default()
    }

    /// A single-conjunct predicate.
    pub fn single(column: usize, op: CmpOp, value: Value) -> Self {
        ScanPredicate {
            conjuncts: vec![ColumnPredicate::new(column, op, value)],
            join: None,
        }
    }

    /// Adds a conjunct (builder style).
    pub fn and(mut self, column: usize, op: CmpOp, value: Value) -> Self {
        self.conjuncts.push(ColumnPredicate::new(column, op, value));
        self
    }

    /// Attaches a sideways join filter (builder style).
    pub fn with_join(mut self, filter: JoinFilter) -> Self {
        self.join = Some(filter);
        self
    }

    /// True when there are no conjuncts and no join filter.
    pub fn is_trivial(&self) -> bool {
        self.conjuncts.is_empty() && self.join.is_none()
    }

    /// Evaluates against a materialized row.
    pub fn matches_row(&self, row: &Row) -> bool {
        self.conjuncts.iter().all(|c| c.matches_row(row))
            && self.join.as_ref().is_none_or(|j| j.matches_row(row))
    }

    /// The primary key this predicate pins, when every key column of
    /// `schema` carries an `=` conjunct a keyed lookup answers exactly —
    /// the one test for "this is a point statement", shared by the
    /// optimizer's access-path choice and DML.
    ///
    /// Only a predicate whose *every* literal is NULL or of its column's
    /// own type qualifies. [`ScanPredicate::validate`] also admits
    /// Int↔Float comparisons, and those do not mean the same thing
    /// everywhere: `Ord` equates 2^53 + 1 with 2^53 as a float where `Hash`
    /// does not, so a hashed key lookup could miss a row the scan finds.
    /// Such a predicate keeps scanning, which answers it numerically in
    /// every store. Int and Timestamp are the same integer to `Ord`, `Hash`
    /// and the kernels (and SQL has no timestamp literal), so they stand in
    /// for one another.
    ///
    /// The key is a *candidate*: callers re-check the whole predicate
    /// against the fetched row, which is what makes contradictory
    /// (`k = 1 AND k = 2`), NULL, residual and join-filter conjuncts come
    /// out as they would under a scan.
    pub fn pk_point(&self, schema: &Schema) -> Option<Row> {
        let integer = |t| matches!(t, DataType::Int64 | DataType::Timestamp);
        let exactly_typed = |c: &ColumnPredicate| {
            schema.fields().get(c.column).is_some_and(|f| {
                c.value
                    .data_type()
                    .is_none_or(|t| t == f.data_type || (integer(t) && integer(f.data_type)))
            })
        };
        if !schema.has_primary_key() || !self.conjuncts.iter().all(exactly_typed) {
            return None;
        }
        schema
            .primary_key()
            .iter()
            .map(|&k| {
                self.conjuncts
                    .iter()
                    .find(|c| c.column == k && c.op == CmpOp::Eq && !c.value.is_null())
                    .map(|c| c.value.clone())
            })
            .collect::<Option<Vec<Value>>>()
            .map(Row::new)
    }

    /// Checks that referenced columns exist and literals are comparable
    /// with the column type.
    pub fn validate(&self, schema: &oltap_common::Schema) -> Result<()> {
        for c in &self.conjuncts {
            if c.column >= schema.len() {
                return Err(oltap_common::DbError::ColumnNotFound(format!(
                    "ordinal {}",
                    c.column
                )));
            }
            if !c.value.is_null() {
                let field = schema.field(c.column);
                // Numeric cross-comparisons (Int vs Float) are permitted.
                let ok = match (field.data_type, c.value.data_type()) {
                    (_, None) => true,
                    (a, Some(b)) if a == b => true,
                    (oltap_common::DataType::Int64, Some(oltap_common::DataType::Float64))
                    | (oltap_common::DataType::Float64, Some(oltap_common::DataType::Int64))
                    | (oltap_common::DataType::Timestamp, Some(oltap_common::DataType::Int64))
                    | (oltap_common::DataType::Int64, Some(oltap_common::DataType::Timestamp)) => {
                        true
                    }
                    _ => false,
                };
                if !ok {
                    return Err(oltap_common::DbError::TypeMismatch {
                        expected: field.data_type.name().into(),
                        actual: c.value.type_name().into(),
                    });
                }
            }
        }
        if let Some(j) = &self.join {
            for &c in &j.columns {
                if c >= schema.len() {
                    return Err(oltap_common::DbError::ColumnNotFound(format!(
                        "join filter ordinal {c}"
                    )));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oltap_common::row;
    use oltap_common::{DataType, Field, Schema};

    #[test]
    fn cmp_ops() {
        use std::cmp::Ordering::*;
        assert!(CmpOp::Eq.matches(Equal));
        assert!(!CmpOp::Eq.matches(Less));
        assert!(CmpOp::Ne.matches(Greater));
        assert!(CmpOp::Le.matches(Equal));
        assert!(CmpOp::Le.matches(Less));
        assert!(!CmpOp::Lt.matches(Equal));
        assert!(CmpOp::Ge.matches(Greater));
    }

    #[test]
    fn row_matching() {
        let r = row![5i64, "berlin"];
        assert!(ColumnPredicate::new(0, CmpOp::Gt, Value::Int(3)).matches_row(&r));
        assert!(!ColumnPredicate::new(0, CmpOp::Lt, Value::Int(3)).matches_row(&r));
        assert!(ColumnPredicate::new(1, CmpOp::Eq, Value::Str("berlin".into())).matches_row(&r));
    }

    #[test]
    fn null_never_matches() {
        let r = Row::new(vec![Value::Null]);
        for op in [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Ge] {
            assert!(!ColumnPredicate::new(0, op, Value::Int(1)).matches_row(&r));
        }
        let r2 = row![1i64];
        assert!(!ColumnPredicate::new(0, CmpOp::Eq, Value::Null).matches_row(&r2));
    }

    #[test]
    fn conjunction_semantics() {
        let p = ScanPredicate::all()
            .and(0, CmpOp::Ge, Value::Int(10))
            .and(0, CmpOp::Lt, Value::Int(20));
        assert!(p.matches_row(&row![15i64]));
        assert!(!p.matches_row(&row![25i64]));
        assert!(!p.matches_row(&row![5i64]));
        assert!(ScanPredicate::all().matches_row(&row![1i64]));
    }

    fn filter_over(keys: &[Value], columns: Vec<usize>) -> JoinFilter {
        let mut bloom = BlockedBloom::with_capacity(keys.len());
        let mut lo: Option<Value> = None;
        let mut hi: Option<Value> = None;
        for k in keys {
            bloom.insert(join_hash_combine(JOIN_KEY_SEED, join_hash_value(k)));
            lo = Some(lo.map_or(k.clone(), |m| if *k < m { k.clone() } else { m }));
            hi = Some(hi.map_or(k.clone(), |m| if *k > m { k.clone() } else { m }));
        }
        JoinFilter {
            columns,
            ranges: vec![lo.zip(hi)],
            bloom: Arc::new(bloom),
            build_rows: keys.len(),
        }
    }

    #[test]
    fn join_filter_keeps_build_keys_and_rejects_out_of_range() {
        let f = filter_over(&[Value::Int(10), Value::Int(20), Value::Int(30)], vec![0]);
        assert!(f.matches_row(&row![10i64, "x"]));
        assert!(f.matches_row(&row![30i64, "y"]));
        // Outside [10, 30]: range check rejects without consulting the bloom.
        assert!(!f.matches_row(&row![9i64, "z"]));
        assert!(!f.matches_row(&row![31i64, "z"]));
        // NULL keys never join.
        assert!(!f.matches_row(&Row::new(vec![Value::Null, Value::Str("n".into())])));
    }

    #[test]
    fn empty_build_side_rejects_everything() {
        let f = filter_over(&[], vec![0]);
        assert!(!f.matches_row(&row![10i64]));
    }

    #[test]
    fn join_filter_in_scan_predicate() {
        let p = ScanPredicate::single(0, CmpOp::Ge, Value::Int(0))
            .with_join(filter_over(&[Value::Int(5)], vec![0]));
        assert!(!p.is_trivial());
        assert!(p.matches_row(&row![5i64]));
        assert!(!p.matches_row(&row![6i64]));
        assert!(!p.matches_row(&row![-5i64]));
    }

    #[test]
    fn pk_point_wants_a_typed_equality_on_every_key_column() {
        let s = Schema::with_primary_key(
            vec![
                Field::not_null("w", DataType::Int64),
                Field::not_null("d", DataType::Int64),
                Field::new("name", DataType::Utf8),
            ],
            &["w", "d"],
        )
        .unwrap();
        let full = ScanPredicate::single(1, CmpOp::Eq, Value::Int(7))
            .and(2, CmpOp::Ne, Value::Str("x".into()))
            .and(0, CmpOp::Eq, Value::Int(3));
        // Key-column order, whatever the conjunct order; residuals ignored.
        assert_eq!(full.pk_point(&s), Some(row![3i64, 7i64]));
        // Contradictory conjuncts still name a candidate (the first); the
        // caller's re-check is what empties the result.
        let contradictory = full.clone().and(0, CmpOp::Eq, Value::Int(4));
        assert_eq!(contradictory.pk_point(&s), Some(row![3i64, 7i64]));

        let not_points = [
            ScanPredicate::all(),
            ScanPredicate::single(0, CmpOp::Eq, Value::Int(3)), // partial key
            ScanPredicate::single(0, CmpOp::Eq, Value::Int(3)).and(1, CmpOp::Ge, Value::Int(7)),
            ScanPredicate::single(0, CmpOp::Eq, Value::Int(3)).and(1, CmpOp::Ne, Value::Int(7)),
            ScanPredicate::single(0, CmpOp::Eq, Value::Int(3)).and(1, CmpOp::Eq, Value::Null),
            ScanPredicate::single(0, CmpOp::Eq, Value::Int(3)).and(1, CmpOp::Eq, Value::Float(7.0)),
        ];
        for p in &not_points {
            assert_eq!(p.pk_point(&s), None, "{p:?}");
        }
        // NULL conjuncts do not disqualify (they empty the re-check); a
        // cross-typed literal anywhere does, key column or not.
        let with_null = full.clone().and(1, CmpOp::Eq, Value::Null);
        assert_eq!(with_null.pk_point(&s), Some(row![3i64, 7i64]));
        for spoiler in [
            ColumnPredicate::new(0, CmpOp::Eq, Value::Float(3.0)),
            ColumnPredicate::new(2, CmpOp::Ne, Value::Int(5)),
            ColumnPredicate::new(9, CmpOp::Eq, Value::Int(1)),
        ] {
            let mut p = full.clone();
            p.conjuncts.push(spoiler);
            assert_eq!(p.pk_point(&s), None, "{p:?}");
        }

        // No declared key: nothing to look up by.
        let keyless = Schema::new(vec![Field::new("w", DataType::Int64)]);
        assert_eq!(
            ScanPredicate::single(0, CmpOp::Eq, Value::Int(3)).pk_point(&keyless),
            None
        );
        // Int literals reach a Timestamp key: same integer to Ord and Hash.
        let timed =
            Schema::with_primary_key(vec![Field::not_null("ts", DataType::Timestamp)], &["ts"])
                .unwrap();
        assert_eq!(
            ScanPredicate::single(0, CmpOp::Eq, Value::Int(9)).pk_point(&timed),
            Some(row![9i64])
        );
    }

    #[test]
    fn validation() {
        let s = Schema::new(vec![
            Field::new("a", DataType::Int64),
            Field::new("b", DataType::Utf8),
        ]);
        assert!(ScanPredicate::single(0, CmpOp::Eq, Value::Int(1))
            .validate(&s)
            .is_ok());
        assert!(ScanPredicate::single(0, CmpOp::Eq, Value::Float(1.5))
            .validate(&s)
            .is_ok());
        assert!(ScanPredicate::single(1, CmpOp::Eq, Value::Int(1))
            .validate(&s)
            .is_err());
        assert!(ScanPredicate::single(9, CmpOp::Eq, Value::Int(1))
            .validate(&s)
            .is_err());
    }
}
