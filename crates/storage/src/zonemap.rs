//! Zone maps — per-segment min/max "in-memory storage indexes".
//!
//! Oracle Database In-Memory calls these *storage indexes*; Netezza called
//! them zone maps. Before scanning a segment, the engine checks each
//! pushed-down predicate against the column's `[min, max]` envelope and
//! skips the segment outright when no row can match — turning full scans
//! into partial scans for range-correlated data (time series especially,
//! which is exactly the machine-telemetry workload of the paper's §1).

use crate::predicate::{CmpOp, ColumnPredicate, JoinFilter, ScanPredicate};
use oltap_common::{BitSet, ColumnVector, DataType, Value};
use std::cmp::Ordering;

/// Min/max/null statistics for one column of one segment.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnZone {
    /// Minimum non-null value (None when all rows are NULL).
    pub min: Option<Value>,
    /// Maximum non-null value.
    pub max: Option<Value>,
    /// Number of NULL rows.
    pub null_count: usize,
    /// Total rows.
    pub row_count: usize,
}

impl ColumnZone {
    /// Builds the zone from values.
    pub fn build(values: &[Value]) -> Self {
        Self::build_iter(values.iter(), values.len())
    }

    /// Builds the zone of one column of a row group as a segment build holds
    /// it, typed: the bounds are found on the native values and only they
    /// become `Value`s (`data_type` tells an integer column from a
    /// timestamp one, which share a vector). Same bounds as
    /// [`ColumnZone::build`] over the same values: floats order by
    /// `total_cmp`, as `Value` does.
    pub(crate) fn of_vector(column: &ColumnVector, data_type: DataType) -> Self {
        /// The least and the greatest of the valid rows under `cmp`.
        fn bounds<'a, T: 'a>(
            values: impl Iterator<Item = &'a T>,
            cmp: impl Fn(&T, &T) -> Ordering,
        ) -> Option<(&'a T, &'a T)> {
            values.fold(None, |acc, v| match acc {
                None => Some((v, v)),
                Some((lo, hi)) => Some((
                    if cmp(v, lo) == Ordering::Less { v } else { lo },
                    if cmp(v, hi) == Ordering::Greater { v } else { hi },
                )),
            })
        }
        /// The values of the rows `validity` (`None`: all) marks valid.
        fn valid<'a, T>(
            values: &'a [T],
            validity: Option<&'a BitSet>,
        ) -> impl Iterator<Item = &'a T> {
            let valid = move |i: &usize| validity.is_none_or(|v| v.get(*i));
            (0..values.len()).filter(valid).map(move |i| &values[i])
        }
        let row_count = column.len();
        let validity = column.validity();
        let (min, max) = match column {
            ColumnVector::Int64 { values, .. } => {
                let wrap = |v: i64| match data_type {
                    DataType::Timestamp => Value::Timestamp(v),
                    _ => Value::Int(v),
                };
                bounds(valid(values, validity), Ord::cmp).map(|(lo, hi)| (wrap(*lo), wrap(*hi)))
            }
            ColumnVector::Float64 { values, .. } => bounds(valid(values, validity), f64::total_cmp)
                .map(|(lo, hi)| (Value::Float(*lo), Value::Float(*hi))),
            ColumnVector::Utf8 { values, .. } => bounds(valid(values, validity), Ord::cmp)
                .map(|(lo, hi)| (Value::Str(lo.clone()), Value::Str(hi.clone()))),
            ColumnVector::Bool { values, .. } => {
                let bits: Vec<bool> = (0..row_count).map(|i| values.get(i)).collect();
                bounds(valid(&bits, validity), Ord::cmp)
                    .map(|(lo, hi)| (Value::Bool(*lo), Value::Bool(*hi)))
            }
        }
        .unzip();
        ColumnZone {
            min,
            max,
            null_count: validity.map_or(0, |v| row_count - v.count_ones()),
            row_count,
        }
    }

    fn build_iter<'a>(values: impl Iterator<Item = &'a Value>, row_count: usize) -> Self {
        let mut min: Option<&Value> = None;
        let mut max: Option<&Value> = None;
        let mut null_count = 0;
        for v in values {
            if v.is_null() {
                null_count += 1;
                continue;
            }
            min = Some(match min {
                Some(m) if m <= v => m,
                _ => v,
            });
            max = Some(match max {
                Some(m) if m >= v => m,
                _ => v,
            });
        }
        ColumnZone {
            min: min.cloned(),
            max: max.cloned(),
            null_count,
            row_count,
        }
    }

    /// Widens this zone to also cover `other` (streamed segment builds
    /// fold per-group zones into the segment zone group by group).
    pub fn absorb(&mut self, other: &ColumnZone) {
        self.null_count += other.null_count;
        self.row_count += other.row_count;
        if let Some(omin) = &other.min {
            if self.min.as_ref().is_none_or(|m| omin < m) {
                self.min = Some(omin.clone());
            }
        }
        if let Some(omax) = &other.max {
            if self.max.as_ref().is_none_or(|m| omax > m) {
                self.max = Some(omax.clone());
            }
        }
    }

    /// Can any row in this zone match `op literal`?
    ///
    /// Returns `true` conservatively; `false` is a proof that the segment
    /// can be skipped.
    pub fn may_match(&self, op: CmpOp, literal: &Value) -> bool {
        if literal.is_null() {
            return false; // NULL comparisons never match.
        }
        let (min, max) = match (&self.min, &self.max) {
            (Some(a), Some(b)) => (a, b),
            _ => return false, // all NULL
        };
        match op {
            CmpOp::Eq => min <= literal && literal <= max,
            // Ne can only be pruned when every row equals the literal.
            CmpOp::Ne => !(min == literal && max == literal && self.null_count == 0),
            CmpOp::Lt => min.cmp(literal) == Ordering::Less,
            CmpOp::Le => min <= literal,
            CmpOp::Gt => max.cmp(literal) == Ordering::Greater,
            CmpOp::Ge => max >= literal,
        }
    }
}

/// Zone maps for every column of a segment.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ZoneMap {
    /// One entry per column, in schema order.
    pub columns: Vec<ColumnZone>,
}

impl ZoneMap {
    /// Builds zones column by column (input: per-column value slices).
    pub fn build(columns: &[Vec<Value>]) -> Self {
        ZoneMap {
            columns: columns.iter().map(|c| ColumnZone::build(c)).collect(),
        }
    }

    /// An all-empty zone map for `ncols` columns (streamed builds widen it
    /// with [`ZoneMap::absorb`] as groups flush).
    pub fn empty(ncols: usize) -> Self {
        ZoneMap {
            columns: (0..ncols)
                .map(|_| ColumnZone {
                    min: None,
                    max: None,
                    null_count: 0,
                    row_count: 0,
                })
                .collect(),
        }
    }

    /// Widens every column zone to also cover `other` (same arity).
    pub fn absorb(&mut self, other: &ZoneMap) {
        debug_assert_eq!(self.columns.len(), other.columns.len());
        for (z, o) in self.columns.iter_mut().zip(&other.columns) {
            z.absorb(o);
        }
    }

    /// Can any row of the segment satisfy the whole conjunction?
    pub fn may_match(&self, pred: &ScanPredicate) -> bool {
        pred.conjuncts.iter().all(|c| self.may_match_one(c))
            && pred.join.as_ref().is_none_or(|j| self.may_match_join(j))
    }

    fn may_match_one(&self, c: &ColumnPredicate) -> bool {
        match self.columns.get(c.column) {
            Some(zone) => zone.may_match(c.op, &c.value),
            None => true, // unknown column: stay conservative
        }
    }

    /// Can any row of the segment find a join partner? The segment's key
    /// envelope must overlap the build side's key envelope in every key
    /// column. Equal values compare equal under `Value`'s total order, so
    /// disjoint envelopes prove the segment joins nothing.
    fn may_match_join(&self, j: &JoinFilter) -> bool {
        if j.build_rows == 0 {
            return false;
        }
        for (k, &c) in j.columns.iter().enumerate() {
            let Some(zone) = self.columns.get(c) else {
                continue; // unknown column: stay conservative
            };
            let (Some(zmin), Some(zmax)) = (&zone.min, &zone.max) else {
                return false; // all keys NULL: nothing joins
            };
            if let Some(Some((lo, hi))) = j.ranges.get(k) {
                if zmax < lo || zmin > hi {
                    return false;
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn zone(lo: i64, hi: i64) -> ColumnZone {
        ColumnZone {
            min: Some(Value::Int(lo)),
            max: Some(Value::Int(hi)),
            null_count: 0,
            row_count: 100,
        }
    }

    #[test]
    fn build_computes_min_max_nulls() {
        let z = ColumnZone::build(&[
            Value::Int(5),
            Value::Null,
            Value::Int(-3),
            Value::Int(9),
            Value::Null,
        ]);
        assert_eq!(z.min, Some(Value::Int(-3)));
        assert_eq!(z.max, Some(Value::Int(9)));
        assert_eq!(z.null_count, 2);
        assert_eq!(z.row_count, 5);
    }

    #[test]
    fn all_null_zone_matches_nothing() {
        let z = ColumnZone::build(&[Value::Null, Value::Null]);
        assert!(!z.may_match(CmpOp::Eq, &Value::Int(1)));
        assert!(!z.may_match(CmpOp::Ne, &Value::Int(1)) || z.min.is_none());
        // Explicitly: pruning is allowed since no non-null values exist.
        assert!(!z.may_match(CmpOp::Gt, &Value::Int(i64::MIN)));
    }

    #[test]
    fn eq_pruning() {
        let z = zone(10, 20);
        assert!(z.may_match(CmpOp::Eq, &Value::Int(15)));
        assert!(z.may_match(CmpOp::Eq, &Value::Int(10)));
        assert!(z.may_match(CmpOp::Eq, &Value::Int(20)));
        assert!(!z.may_match(CmpOp::Eq, &Value::Int(9)));
        assert!(!z.may_match(CmpOp::Eq, &Value::Int(21)));
    }

    #[test]
    fn range_pruning() {
        let z = zone(10, 20);
        assert!(!z.may_match(CmpOp::Lt, &Value::Int(10)));
        assert!(z.may_match(CmpOp::Le, &Value::Int(10)));
        assert!(!z.may_match(CmpOp::Gt, &Value::Int(20)));
        assert!(z.may_match(CmpOp::Ge, &Value::Int(20)));
        assert!(z.may_match(CmpOp::Lt, &Value::Int(100)));
        assert!(z.may_match(CmpOp::Gt, &Value::Int(0)));
    }

    #[test]
    fn ne_pruning_only_for_constant_segments() {
        let constant = zone(7, 7);
        assert!(!constant.may_match(CmpOp::Ne, &Value::Int(7)));
        assert!(constant.may_match(CmpOp::Ne, &Value::Int(8)));
        let varied = zone(7, 9);
        assert!(varied.may_match(CmpOp::Ne, &Value::Int(7)));
        // Constant value but some NULLs: NULL rows don't match Ne either,
        // but pruning is still safe... actually NULL never matches, so a
        // constant-7 segment with nulls still has no matching rows.
        let mut with_nulls = zone(7, 7);
        with_nulls.null_count = 3;
        // Conservative implementation keeps it scannable; that is allowed.
        let _ = with_nulls.may_match(CmpOp::Ne, &Value::Int(7));
    }

    #[test]
    fn null_literal_prunes() {
        let z = zone(0, 100);
        assert!(!z.may_match(CmpOp::Eq, &Value::Null));
    }

    #[test]
    fn zonemap_conjunction() {
        let zm = ZoneMap {
            columns: vec![zone(0, 100), zone(1000, 2000)],
        };
        let p = ScanPredicate::all()
            .and(0, CmpOp::Gt, Value::Int(50))
            .and(1, CmpOp::Lt, Value::Int(1500));
        assert!(zm.may_match(&p));
        let p2 = ScanPredicate::all()
            .and(0, CmpOp::Gt, Value::Int(50))
            .and(1, CmpOp::Gt, Value::Int(5000));
        assert!(!zm.may_match(&p2));
        // Out-of-range column ordinal: conservative true.
        let p3 = ScanPredicate::single(9, CmpOp::Eq, Value::Int(1));
        assert!(zm.may_match(&p3));
    }

    #[test]
    fn join_filter_envelope_pruning() {
        use crate::predicate::JoinFilter;
        use oltap_common::bloom::BlockedBloom;
        use std::sync::Arc;

        let zm = ZoneMap {
            columns: vec![zone(0, 100)],
        };
        let filter = |range: Option<(i64, i64)>, build_rows: usize| JoinFilter {
            columns: vec![0],
            ranges: vec![range.map(|(a, b)| (Value::Int(a), Value::Int(b)))],
            bloom: Arc::new(BlockedBloom::with_capacity(8)),
            build_rows,
        };
        // Overlapping envelope: must scan.
        let p = ScanPredicate::all().with_join(filter(Some((50, 200)), 10));
        assert!(zm.may_match(&p));
        // Disjoint envelope: provably no join partner.
        let p = ScanPredicate::all().with_join(filter(Some((500, 900)), 10));
        assert!(!zm.may_match(&p));
        // Empty build side: skip regardless of ranges.
        let p = ScanPredicate::all().with_join(filter(None, 0));
        assert!(!zm.may_match(&p));
        // All-NULL key zone: NULL keys never join.
        let all_null = ZoneMap {
            columns: vec![ColumnZone::build(&[Value::Null, Value::Null])],
        };
        let p = ScanPredicate::all().with_join(filter(Some((0, 100)), 10));
        assert!(!all_null.may_match(&p));
    }

    #[test]
    fn string_zones() {
        let z = ColumnZone::build(&[
            Value::Str("berlin".into()),
            Value::Str("munich".into()),
            Value::Str("cologne".into()),
        ]);
        assert!(z.may_match(CmpOp::Eq, &Value::Str("cologne".into())));
        assert!(!z.may_match(CmpOp::Eq, &Value::Str("aachen".into())));
        assert!(!z.may_match(CmpOp::Gt, &Value::Str("zurich".into())));
    }

    /// The typed zone of a column vector is the zone of its values: NULLs
    /// counted and skipped, floats by `total_cmp` (NaN and both zeros),
    /// integers and timestamps, strings, booleans, an all-NULL column.
    #[test]
    fn a_vectors_zone_is_the_zone_of_its_values() {
        use oltap_common::{ColumnVector, DataType};
        let columns: [(DataType, Vec<Value>); 6] = [
            (DataType::Int64, vec![Value::Int(5), Value::Null, Value::Int(-3), Value::Int(9)]),
            (DataType::Timestamp, vec![Value::Timestamp(7), Value::Timestamp(2)]),
            (
                DataType::Float64,
                vec![
                    Value::Float(0.0),
                    Value::Float(-0.0),
                    Value::Null,
                    Value::Float(f64::NAN),
                    Value::Float(-1.5),
                ],
            ),
            (
                DataType::Utf8,
                vec![Value::Str("munich".into()), Value::Null, Value::Str("berlin".into())],
            ),
            (DataType::Bool, vec![Value::Bool(true), Value::Null, Value::Bool(true)]),
            (DataType::Int64, vec![Value::Null, Value::Null]),
        ];
        for (data_type, values) in columns {
            let mut column = ColumnVector::new(data_type);
            for v in &values {
                column.push(v).unwrap();
            }
            let (typed, by_value) = (ColumnZone::of_vector(&column, data_type), ColumnZone::build(&values));
            assert_eq!(typed, by_value, "{data_type:?}");
            // Equal under `Value`'s order is not enough for floats: same bits.
            if let (Some(Value::Float(a)), Some(Value::Float(b))) = (&typed.min, &by_value.min) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }
}
