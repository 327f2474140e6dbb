//! The logical type system: [`DataType`] and dynamically typed [`Value`]s.

use crate::error::{DbError, Result};
use std::cmp::Ordering;
use std::fmt;

/// Logical column types supported by the engine.
///
/// The set is intentionally small but covers the workloads the paper's
/// motivating applications need: integers and floats for metrics, strings
/// for dimensions, booleans for flags, and timestamps (microseconds since
/// epoch) for event time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 64-bit signed integer.
    Int64,
    /// 64-bit IEEE-754 float.
    Float64,
    /// UTF-8 string.
    Utf8,
    /// Boolean.
    Bool,
    /// Microseconds since the Unix epoch, stored as `i64`.
    Timestamp,
}

impl DataType {
    /// Human-readable name, used in error messages and `EXPLAIN` output.
    pub fn name(self) -> &'static str {
        match self {
            DataType::Int64 => "Int64",
            DataType::Float64 => "Float64",
            DataType::Utf8 => "Utf8",
            DataType::Bool => "Bool",
            DataType::Timestamp => "Timestamp",
        }
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A dynamically typed scalar value.
///
/// `Value` implements a *total* order so it can serve as a key in ordered
/// containers (zone maps, sort operators, primary-key indexes). Values of
/// different types order by a fixed type rank (`Null < Bool < Int64 <
/// Timestamp < Float64 < Utf8`); `Float64` uses IEEE `total_cmp`, so `NaN`
/// participates in the order deterministically.
#[derive(Debug, Clone)]
pub enum Value {
    /// SQL NULL (untyped).
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit integer.
    Int(i64),
    /// Timestamp in microseconds since the epoch.
    Timestamp(i64),
    /// 64-bit float.
    Float(f64),
    /// UTF-8 string.
    Str(String),
}

impl Value {
    /// The value's logical type, or `None` for NULL.
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Bool(_) => Some(DataType::Bool),
            Value::Int(_) => Some(DataType::Int64),
            Value::Timestamp(_) => Some(DataType::Timestamp),
            Value::Float(_) => Some(DataType::Float64),
            Value::Str(_) => Some(DataType::Utf8),
        }
    }

    /// True for `Value::Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Approximate in-memory footprint in bytes (enum slot + string heap),
    /// the unit the executor's memory accounting works in.
    pub fn approx_size(&self) -> usize {
        std::mem::size_of::<Value>()
            + match self {
                Value::Str(s) => s.len(),
                _ => 0,
            }
    }

    /// Extracts an `i64`, accepting both `Int` and `Timestamp`.
    pub fn as_int(&self) -> Result<i64> {
        match self {
            Value::Int(v) | Value::Timestamp(v) => Ok(*v),
            other => Err(DbError::TypeMismatch {
                expected: "Int64".into(),
                actual: other.type_name().into(),
            }),
        }
    }

    /// Extracts an `f64`, widening integers.
    pub fn as_float(&self) -> Result<f64> {
        match self {
            Value::Float(v) => Ok(*v),
            Value::Int(v) | Value::Timestamp(v) => Ok(*v as f64),
            other => Err(DbError::TypeMismatch {
                expected: "Float64".into(),
                actual: other.type_name().into(),
            }),
        }
    }

    /// Extracts a string slice.
    pub fn as_str(&self) -> Result<&str> {
        match self {
            Value::Str(s) => Ok(s),
            other => Err(DbError::TypeMismatch {
                expected: "Utf8".into(),
                actual: other.type_name().into(),
            }),
        }
    }

    /// Extracts a boolean.
    pub fn as_bool(&self) -> Result<bool> {
        match self {
            Value::Bool(b) => Ok(*b),
            other => Err(DbError::TypeMismatch {
                expected: "Bool".into(),
                actual: other.type_name().into(),
            }),
        }
    }

    /// Type name for diagnostics (`"Null"` for NULL).
    pub fn type_name(&self) -> &'static str {
        match self.data_type() {
            Some(t) => t.name(),
            None => "Null",
        }
    }

    /// Checks that the value is NULL or of `expected` type. `Int64` and
    /// `Timestamp` are mutually assignable (timestamps are integer
    /// microseconds and SQL has no timestamp literal syntax).
    pub fn check_type(&self, expected: DataType) -> Result<()> {
        match self.data_type() {
            None => Ok(()),
            Some(t) if t == expected => Ok(()),
            Some(DataType::Int64) if expected == DataType::Timestamp => Ok(()),
            Some(DataType::Timestamp) if expected == DataType::Int64 => Ok(()),
            // Standard SQL numeric widening: integer literals are
            // assignable to DOUBLE columns (readers coerce via as_float).
            Some(DataType::Int64) if expected == DataType::Float64 => Ok(()),
            Some(t) => Err(DbError::TypeMismatch {
                expected: expected.name().into(),
                actual: t.name().into(),
            }),
        }
    }

    fn type_rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) => 2,
            Value::Timestamp(_) => 3,
            Value::Float(_) => 4,
            Value::Str(_) => 5,
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Bool(a), Bool(b)) => a.cmp(b),
            (Int(a), Int(b))
            | (Timestamp(a), Timestamp(b))
            | (Int(a), Timestamp(b))
            | (Timestamp(a), Int(b)) => a.cmp(b),
            // Cross int/float comparisons happen in mixed arithmetic;
            // compare numerically so predicates behave intuitively.
            (Int(a), Float(b)) | (Timestamp(a), Float(b)) => (*a as f64).total_cmp(b),
            (Float(a), Int(b)) | (Float(a), Timestamp(b)) => a.total_cmp(&(*b as f64)),
            (Float(a), Float(b)) => a.total_cmp(b),
            (Str(a), Str(b)) => a.cmp(b),
            _ => self.type_rank().cmp(&other.type_rank()),
        }
    }
}

impl std::hash::Hash for Value {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => 0u8.hash(state),
            Value::Bool(b) => {
                1u8.hash(state);
                b.hash(state);
            }
            Value::Int(v) | Value::Timestamp(v) => {
                2u8.hash(state);
                v.hash(state);
            }
            Value::Float(v) => {
                // Integral floats compare equal to the corresponding Int
                // under our numeric Ord, so they must hash identically.
                if v.fract() == 0.0 && *v >= i64::MIN as f64 && *v <= i64::MAX as f64 {
                    2u8.hash(state);
                    (*v as i64).hash(state);
                } else {
                    3u8.hash(state);
                    v.to_bits().hash(state);
                }
            }
            Value::Str(s) => {
                4u8.hash(state);
                s.hash(state);
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("NULL"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(v) => write!(f, "{v}"),
            Value::Timestamp(v) => write!(f, "ts:{v}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Str(s) => write!(f, "'{s}'"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_enforce_types() {
        assert_eq!(Value::Int(7).as_int().unwrap(), 7);
        assert_eq!(Value::Timestamp(7).as_int().unwrap(), 7);
        assert_eq!(Value::Int(7).as_float().unwrap(), 7.0);
        assert!(Value::Str("x".into()).as_int().is_err());
        assert_eq!(Value::Str("x".into()).as_str().unwrap(), "x");
        assert!(Value::Bool(true).as_bool().unwrap());
        assert!(Value::Int(1).as_bool().is_err());
    }

    #[test]
    fn total_order_within_types() {
        assert!(Value::Int(1) < Value::Int(2));
        assert!(Value::Str("a".into()) < Value::Str("b".into()));
        assert!(Value::Float(1.5) < Value::Float(2.5));
        assert!(Value::Bool(false) < Value::Bool(true));
    }

    #[test]
    fn null_sorts_first() {
        assert!(Value::Null < Value::Int(i64::MIN));
        assert!(Value::Null < Value::Bool(false));
        assert!(Value::Null < Value::Str(String::new()));
    }

    #[test]
    fn mixed_numeric_comparisons_are_numeric() {
        assert_eq!(Value::Int(2), Value::Float(2.0));
        assert!(Value::Int(2) < Value::Float(2.5));
        assert!(Value::Float(1.5) < Value::Int(2));
    }

    #[test]
    fn nan_participates_in_total_order() {
        let nan = Value::Float(f64::NAN);
        let one = Value::Float(1.0);
        // total_cmp: NaN > all finite numbers (positive NaN).
        assert!(nan > one);
        assert_eq!(nan.cmp(&nan), Ordering::Equal);
    }

    #[test]
    fn check_type_accepts_null() {
        assert!(Value::Null.check_type(DataType::Int64).is_ok());
        assert!(Value::Int(1).check_type(DataType::Int64).is_ok());
        assert!(Value::Int(1).check_type(DataType::Utf8).is_err());
    }

    #[test]
    fn display_roundtrip_smoke() {
        assert_eq!(Value::Int(5).to_string(), "5");
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Str("hi".into()).to_string(), "'hi'");
    }

    #[test]
    fn hash_consistent_with_eq_for_int_timestamp() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let h = |v: &Value| {
            let mut s = DefaultHasher::new();
            v.hash(&mut s);
            s.finish()
        };
        // Int(5) == Timestamp(5) under our Ord; hashes must agree.
        assert_eq!(Value::Int(5).cmp(&Value::Timestamp(5)), Ordering::Equal);
        assert_eq!(h(&Value::Int(5)), h(&Value::Timestamp(5)));
    }
}
