//! Expression trees and the vectorized interpreter that defines them.
//!
//! The tutorial contrasts three execution models (§4: Volcano-style
//! interpretation vs. vectorized processing vs. compiled queries
//! \[28, 40\]). The engine evaluates every expression with one of them:
//! [`Expr::eval_batch`], vectorized interpretation — one tree walk per
//! *batch*, with typed kernels over column vectors (MonetDB/X100-style) —
//! and [`Expr::filter`] over it for predicates. It is the definition of
//! what an expression means.
//!
//! The other two are experiment subjects only (E11, in
//! `oltap-bench::baselines`): `tuple_eval`, one tree walk *per row* over
//! dynamically typed [`Value`]s, the baseline every modern engine moved
//! away from; and `f64_vm`, a fused block evaluator standing in for LLVM
//! code generation (HyPer-style), which declines what f64 cannot
//! reproduce.
//!
//! Semantics: integers wrap; floats compare by `f64::total_cmp`
//! (`-0.0 < 0.0`, `NaN = NaN`, as `Value`'s ordering and the storage
//! pushdown do); `Int64 (op) Float64` promotes the integer with `as f64`.
//! SQL three-valued logic: NULL propagates through arithmetic and
//! comparisons; `AND`/`OR` use Kleene semantics; a WHERE clause keeps rows
//! whose predicate is exactly TRUE.

use oltap_common::{BitSet, Batch, ColumnVector, DataType, DbError, Result, Schema, Value};
use std::fmt;

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/` (integer division for Int64 operands, float otherwise)
    Div,
    /// `%`
    Mod,
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
    /// `AND`
    And,
    /// `OR`
    Or,
}

impl BinOp {
    /// Is this a comparison producing Bool?
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
        )
    }

    /// Is this AND/OR?
    pub fn is_logic(self) -> bool {
        matches!(self, BinOp::And | BinOp::Or)
    }

    /// SQL spelling.
    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Mod => "%",
            BinOp::Eq => "=",
            BinOp::Ne => "<>",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::And => "AND",
            BinOp::Or => "OR",
        }
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnOp {
    /// Logical NOT.
    Not,
    /// Arithmetic negation.
    Neg,
}

/// A scalar expression over a row/batch with a fixed input schema.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Input column by ordinal.
    Column(usize),
    /// A constant.
    Literal(Value),
    /// A statement parameter: slot `0` of the values a planned statement
    /// runs with, typed by `1`, the value it was planned with. A plan
    /// carries it until the slot is filled with a [`Expr::Literal`] before
    /// the plan runs; evaluating an unfilled slot is an error.
    Param(usize, Value),
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        left: Box<Expr>,
        /// Right operand.
        right: Box<Expr>,
    },
    /// Unary operation.
    Unary {
        /// Operator.
        op: UnOp,
        /// Operand.
        expr: Box<Expr>,
    },
    /// `expr IS NULL` (never NULL itself).
    IsNull(Box<Expr>),
    /// `expr IS NOT NULL`.
    IsNotNull(Box<Expr>),
}

impl Expr {
    /// Column reference.
    pub fn col(i: usize) -> Expr {
        Expr::Column(i)
    }

    /// Literal.
    pub fn lit(v: impl Into<Value>) -> Expr {
        Expr::Literal(v.into())
    }

    /// Builder: binary node.
    pub fn binary(op: BinOp, left: Expr, right: Expr) -> Expr {
        Expr::Binary {
            op,
            left: Box::new(left),
            right: Box::new(right),
        }
    }

    /// `self AND other`.
    pub fn and(self, other: Expr) -> Expr {
        Expr::binary(BinOp::And, self, other)
    }

    /// `self OR other`.
    pub fn or(self, other: Expr) -> Expr {
        Expr::binary(BinOp::Or, self, other)
    }

    /// Whether `other` is the same tree down to its literals' kinds, so
    /// that one evaluation answers for both. (`==` is not that: `Value`
    /// equality is numeric, and `v * 2` equals `v * 2.0` under it.)
    pub fn identical(&self, other: &Expr) -> bool {
        match (self, other) {
            (Expr::Literal(a), Expr::Literal(b)) => {
                std::mem::discriminant(a) == std::mem::discriminant(b) && a == b
            }
            (
                Expr::Binary { op, left, right },
                Expr::Binary {
                    op: o,
                    left: l,
                    right: r,
                },
            ) => op == o && left.identical(l) && right.identical(r),
            (Expr::Unary { op, expr }, Expr::Unary { op: o, expr: e }) => {
                op == o && expr.identical(e)
            }
            (Expr::IsNull(a), Expr::IsNull(b)) | (Expr::IsNotNull(a), Expr::IsNotNull(b)) => {
                a.identical(b)
            }
            (Expr::Column(a), Expr::Column(b)) => a == b,
            _ => false,
        }
    }

    /// Every column ordinal referenced by the expression.
    pub fn referenced_columns(&self, out: &mut Vec<usize>) {
        match self {
            Expr::Column(i) => out.push(*i),
            Expr::Literal(_) | Expr::Param(..) => {}
            Expr::Binary { left, right, .. } => {
                left.referenced_columns(out);
                right.referenced_columns(out);
            }
            Expr::Unary { expr, .. } | Expr::IsNull(expr) | Expr::IsNotNull(expr) => {
                expr.referenced_columns(out)
            }
        }
    }

    /// Result type given the input schema. Numeric operators promote
    /// `Int64 (op) Float64` to `Float64`; `Timestamp` behaves as `Int64`.
    pub fn data_type(&self, schema: &Schema) -> Result<DataType> {
        match self {
            Expr::Column(i) => {
                if *i >= schema.len() {
                    return Err(DbError::Plan(format!("column ordinal {i} out of range")));
                }
                Ok(normalize(schema.field(*i).data_type))
            }
            Expr::Literal(v) | Expr::Param(_, v) => Ok(v
                .data_type()
                .map(normalize)
                .unwrap_or(DataType::Int64)), // NULL literal defaults to Int64
            Expr::Binary { op, left, right } => {
                let lt = left.data_type(schema)?;
                let rt = right.data_type(schema)?;
                if op.is_comparison() || op.is_logic() {
                    if op.is_logic() && (lt != DataType::Bool || rt != DataType::Bool) {
                        return Err(DbError::Plan(format!(
                            "{} requires boolean operands",
                            op.symbol()
                        )));
                    }
                    Ok(DataType::Bool)
                } else {
                    match (lt, rt) {
                        (DataType::Int64, DataType::Int64) => Ok(DataType::Int64),
                        (DataType::Float64, DataType::Float64)
                        | (DataType::Int64, DataType::Float64)
                        | (DataType::Float64, DataType::Int64) => Ok(DataType::Float64),
                        _ => Err(DbError::Plan(format!(
                            "arithmetic on non-numeric types {lt}/{rt}"
                        ))),
                    }
                }
            }
            Expr::Unary { op, expr } => {
                let t = expr.data_type(schema)?;
                match op {
                    UnOp::Not if t == DataType::Bool => Ok(DataType::Bool),
                    UnOp::Not => Err(DbError::Plan("NOT requires boolean".into())),
                    UnOp::Neg if matches!(t, DataType::Int64 | DataType::Float64) => Ok(t),
                    UnOp::Neg => Err(DbError::Plan("negation requires numeric".into())),
                }
            }
            Expr::IsNull(_) | Expr::IsNotNull(_) => Ok(DataType::Bool),
        }
    }

    // -----------------------------------------------------------------
    // Vectorized interpretation
    // -----------------------------------------------------------------

    /// Evaluates against a whole batch, producing one column vector.
    pub fn eval_batch(&self, batch: &Batch) -> Result<ColumnVector> {
        match self {
            Expr::Column(i) => batch
                .columns()
                .get(*i)
                .cloned()
                .ok_or_else(|| DbError::Execution(format!("column {i} out of range"))),
            Expr::Literal(v) => broadcast(v, batch.len()),
            Expr::Param(i, _) => Err(DbError::Execution(format!(
                "parameter ${i} was never filled"
            ))),
            Expr::Binary { op, left, right } => {
                let l = left.eval_batch(batch)?;
                let r = right.eval_batch(batch)?;
                eval_binary_vector(*op, &l, &r)
            }
            Expr::Unary { op, expr } => {
                let v = expr.eval_batch(batch)?;
                eval_unary_vector(*op, &v)
            }
            Expr::IsNull(e) => {
                let v = e.eval_batch(batch)?;
                let n = v.len();
                let mut bits = BitSet::with_len(n);
                match v.validity() {
                    None => {}
                    Some(val) => {
                        for i in 0..n {
                            if !val.get(i) {
                                bits.set(i);
                            }
                        }
                    }
                }
                Ok(ColumnVector::Bool {
                    values: bits,
                    validity: None,
                })
            }
            Expr::IsNotNull(e) => {
                let v = e.eval_batch(batch)?;
                let n = v.len();
                let mut bits = BitSet::all_set(n);
                if let Some(val) = v.validity() {
                    for i in 0..n {
                        if !val.get(i) {
                            bits.clear(i);
                        }
                    }
                }
                Ok(ColumnVector::Bool {
                    values: bits,
                    validity: None,
                })
            }
        }
    }

    /// Evaluates every expression of a list over `batch`, one column each:
    /// an operator's key or output list.
    pub fn eval_all(exprs: &[Expr], batch: &Batch) -> Result<Vec<ColumnVector>> {
        exprs.iter().map(|e| e.eval_batch(batch)).collect()
    }

    /// Evaluates as a filter over a batch: the selection vector of rows
    /// where the predicate is TRUE (not NULL, not FALSE).
    pub fn filter(&self, batch: &Batch) -> Result<Vec<u32>> {
        let v = self.eval_batch(batch)?;
        let bits = v.as_bools()?;
        Ok(match v.validity() {
            None => bits.iter_ones().map(|i| i as u32).collect(),
            Some(val) => bits
                .iter_ones()
                .filter(|&i| val.get(i))
                .map(|i| i as u32)
                .collect(),
        })
    }
}

fn normalize(t: DataType) -> DataType {
    match t {
        DataType::Timestamp => DataType::Int64,
        other => other,
    }
}

fn op_cmp(op: BinOp, ord: std::cmp::Ordering) -> bool {
    use std::cmp::Ordering::*;
    match op {
        BinOp::Eq => ord == Equal,
        BinOp::Ne => ord != Equal,
        BinOp::Lt => ord == Less,
        BinOp::Le => ord != Greater,
        BinOp::Gt => ord == Greater,
        BinOp::Ge => ord != Less,
        _ => unreachable!("not a comparison"),
    }
}

fn arith_f64(op: BinOp, a: f64, b: f64) -> f64 {
    match op {
        BinOp::Add => a + b,
        BinOp::Sub => a - b,
        BinOp::Mul => a * b,
        BinOp::Div => a / b,
        BinOp::Mod => a % b,
        _ => unreachable!("not arithmetic"),
    }
}

// ---------------------------------------------------------------------------
// Vector kernels
// ---------------------------------------------------------------------------

fn broadcast(v: &Value, n: usize) -> Result<ColumnVector> {
    Ok(match v {
        Value::Null => ColumnVector::Int64 {
            values: vec![0; n],
            validity: Some(BitSet::with_len(n)),
        },
        Value::Int(x) | Value::Timestamp(x) => ColumnVector::Int64 {
            values: vec![*x; n],
            validity: None,
        },
        Value::Float(x) => ColumnVector::Float64 {
            values: vec![*x; n],
            validity: None,
        },
        Value::Str(s) => ColumnVector::Utf8 {
            values: vec![s.clone(); n],
            validity: None,
        },
        Value::Bool(b) => ColumnVector::Bool {
            values: if *b {
                BitSet::all_set(n)
            } else {
                BitSet::with_len(n)
            },
            validity: None,
        },
    })
}

fn merged_validity(l: Option<&BitSet>, r: Option<&BitSet>) -> Option<BitSet> {
    match (l, r) {
        (None, None) => None,
        (Some(a), None) => Some(a.clone()),
        (None, Some(b)) => Some(b.clone()),
        (Some(a), Some(b)) => {
            let mut v = a.clone();
            v.intersect_with(b);
            Some(v)
        }
    }
}

fn eval_binary_vector(op: BinOp, l: &ColumnVector, r: &ColumnVector) -> Result<ColumnVector> {
    if l.len() != r.len() {
        return Err(DbError::Execution("operand length mismatch".into()));
    }
    if op.is_logic() {
        return kleene_vector(op, l, r);
    }
    if op.is_comparison() {
        return compare_vector(op, l, r);
    }
    let validity = merged_validity(l.validity(), r.validity());
    match (l, r) {
        (ColumnVector::Int64 { values: a, .. }, ColumnVector::Int64 { values: b, .. }) => {
            // Division needs zero checks only on valid rows.
            if matches!(op, BinOp::Div | BinOp::Mod) {
                let mut out = Vec::with_capacity(a.len());
                for i in 0..a.len() {
                    let valid = validity.as_ref().is_none_or(|v| v.get(i));
                    if valid && b[i] == 0 {
                        return Err(DbError::Execution("division by zero".into()));
                    }
                    out.push(if valid {
                        match op {
                            BinOp::Div => a[i].wrapping_div(b[i]),
                            _ => a[i].wrapping_rem(b[i]),
                        }
                    } else {
                        0
                    });
                }
                return Ok(ColumnVector::Int64 {
                    values: out,
                    validity,
                });
            }
            let out: Vec<i64> = match op {
                BinOp::Add => a.iter().zip(b).map(|(x, y)| x.wrapping_add(*y)).collect(),
                BinOp::Sub => a.iter().zip(b).map(|(x, y)| x.wrapping_sub(*y)).collect(),
                BinOp::Mul => a.iter().zip(b).map(|(x, y)| x.wrapping_mul(*y)).collect(),
                _ => unreachable!(),
            };
            Ok(ColumnVector::Int64 {
                values: out,
                validity,
            })
        }
        // Mixed/float arithmetic: operate on borrowed slices directly —
        // no operand cloning (this is the hot path of float expressions).
        (ColumnVector::Float64 { values: a, .. }, ColumnVector::Float64 { values: b, .. }) => {
            let out: Vec<f64> = a
                .iter()
                .zip(b.iter())
                .map(|(x, y)| arith_f64(op, *x, *y))
                .collect();
            Ok(ColumnVector::Float64 {
                values: out,
                validity,
            })
        }
        (ColumnVector::Float64 { values: a, .. }, ColumnVector::Int64 { values: b, .. }) => {
            let out: Vec<f64> = a
                .iter()
                .zip(b.iter())
                .map(|(x, y)| arith_f64(op, *x, *y as f64))
                .collect();
            Ok(ColumnVector::Float64 {
                values: out,
                validity,
            })
        }
        (ColumnVector::Int64 { values: a, .. }, ColumnVector::Float64 { values: b, .. }) => {
            let out: Vec<f64> = a
                .iter()
                .zip(b.iter())
                .map(|(x, y)| arith_f64(op, *x as f64, *y))
                .collect();
            Ok(ColumnVector::Float64 {
                values: out,
                validity,
            })
        }
        (l, r) => Err(DbError::TypeMismatch {
            expected: "numeric".into(),
            actual: format!("{}/{}", l.data_type().name(), r.data_type().name()),
        }),
    }
}

fn to_f64(v: &ColumnVector) -> Result<Vec<f64>> {
    match v {
        ColumnVector::Float64 { values, .. } => Ok(values.clone()),
        ColumnVector::Int64 { values, .. } => Ok(values.iter().map(|&x| x as f64).collect()),
        other => Err(DbError::TypeMismatch {
            expected: "numeric".into(),
            actual: other.data_type().name().into(),
        }),
    }
}

fn compare_vector(op: BinOp, l: &ColumnVector, r: &ColumnVector) -> Result<ColumnVector> {
    let n = l.len();
    let validity = merged_validity(l.validity(), r.validity());
    let mut bits = BitSet::with_len(n);
    match (l, r) {
        (ColumnVector::Int64 { values: a, .. }, ColumnVector::Int64 { values: b, .. }) => {
            for i in 0..n {
                if op_cmp(op, a[i].cmp(&b[i])) {
                    bits.set(i);
                }
            }
        }
        (ColumnVector::Utf8 { values: a, .. }, ColumnVector::Utf8 { values: b, .. }) => {
            for i in 0..n {
                if op_cmp(op, a[i].cmp(&b[i])) {
                    bits.set(i);
                }
            }
        }
        (ColumnVector::Bool { values: a, .. }, ColumnVector::Bool { values: b, .. }) => {
            for i in 0..n {
                if op_cmp(op, a.get(i).cmp(&b.get(i))) {
                    bits.set(i);
                }
            }
        }
        _ => {
            let a = to_f64(l)?;
            let b = to_f64(r)?;
            for i in 0..n {
                if op_cmp(op, a[i].total_cmp(&b[i])) {
                    bits.set(i);
                }
            }
        }
    }
    Ok(ColumnVector::Bool {
        values: bits,
        validity,
    })
}

fn kleene_vector(op: BinOp, l: &ColumnVector, r: &ColumnVector) -> Result<ColumnVector> {
    let (lb, lv) = match l {
        ColumnVector::Bool { values, validity } => (values, validity.as_ref()),
        other => {
            return Err(DbError::Execution(format!(
                "logic on non-boolean {}",
                other.data_type().name()
            )))
        }
    };
    let (rb, rv) = match r {
        ColumnVector::Bool { values, validity } => (values, validity.as_ref()),
        other => {
            return Err(DbError::Execution(format!(
                "logic on non-boolean {}",
                other.data_type().name()
            )))
        }
    };
    let n = lb.len();
    let mut out = BitSet::with_len(n);
    let mut validity = BitSet::all_set(n);
    let mut any_null = false;
    for i in 0..n {
        let a = if lv.is_none_or(|v| v.get(i)) {
            Some(lb.get(i))
        } else {
            None
        };
        let b = if rv.is_none_or(|v| v.get(i)) {
            Some(rb.get(i))
        } else {
            None
        };
        let res = match op {
            BinOp::And => match (a, b) {
                (Some(false), _) | (_, Some(false)) => Some(false),
                (Some(true), Some(true)) => Some(true),
                _ => None,
            },
            BinOp::Or => match (a, b) {
                (Some(true), _) | (_, Some(true)) => Some(true),
                (Some(false), Some(false)) => Some(false),
                _ => None,
            },
            _ => unreachable!(),
        };
        match res {
            Some(true) => out.set(i),
            Some(false) => {}
            None => {
                validity.clear(i);
                any_null = true;
            }
        }
    }
    Ok(ColumnVector::Bool {
        values: out,
        validity: if any_null { Some(validity) } else { None },
    })
}

fn eval_unary_vector(op: UnOp, v: &ColumnVector) -> Result<ColumnVector> {
    match (op, v) {
        (UnOp::Not, ColumnVector::Bool { values, validity }) => {
            let mut out = values.clone();
            out.negate();
            Ok(ColumnVector::Bool {
                values: out,
                validity: validity.clone(),
            })
        }
        (UnOp::Neg, ColumnVector::Int64 { values, validity }) => Ok(ColumnVector::Int64 {
            values: values.iter().map(|&x| x.wrapping_neg()).collect(),
            validity: validity.clone(),
        }),
        (UnOp::Neg, ColumnVector::Float64 { values, validity }) => Ok(ColumnVector::Float64 {
            values: values.iter().map(|&x| -x).collect(),
            validity: validity.clone(),
        }),
        (op, other) => Err(DbError::Execution(format!(
            "bad operand for {op:?}: {}",
            other.data_type().name()
        ))),
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Column(i) => write!(f, "#{i}"),
            Expr::Literal(v) => write!(f, "{v}"),
            Expr::Param(i, _) => write!(f, "${i}"),
            Expr::Binary { op, left, right } => {
                write!(f, "({left} {} {right})", op.symbol())
            }
            Expr::Unary { op: UnOp::Not, expr } => write!(f, "(NOT {expr})"),
            Expr::Unary { op: UnOp::Neg, expr } => write!(f, "(-{expr})"),
            Expr::IsNull(e) => write!(f, "({e} IS NULL)"),
            Expr::IsNotNull(e) => write!(f, "({e} IS NOT NULL)"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oltap_common::row;
    use oltap_common::{Field, Row, Schema};

    fn batch() -> Batch {
        let schema = Schema::new(vec![
            Field::new("a", DataType::Int64),
            Field::new("b", DataType::Int64),
            Field::new("f", DataType::Float64),
            Field::new("s", DataType::Utf8),
        ]);
        let rows: Vec<Row> = (0..8)
            .map(|i| {
                if i == 3 {
                    Row::new(vec![
                        Value::Null,
                        Value::Int(i),
                        Value::Null,
                        Value::Str("x".into()),
                    ])
                } else {
                    row![i, i * 2, i as f64 * 0.5, "y"]
                }
            })
            .collect();
        Batch::from_rows(&schema, &rows).unwrap()
    }

    #[test]
    fn null_propagates_through_arithmetic() {
        let b = batch();
        let e = Expr::binary(BinOp::Add, Expr::col(0), Expr::lit(1i64));
        let v = e.eval_batch(&b).unwrap();
        assert_eq!(v.value_at(3), Value::Null);
        assert_eq!(v.value_at(2), Value::Int(3));
    }

    #[test]
    fn division_by_zero_is_error() {
        let b = batch();
        let e = Expr::binary(BinOp::Div, Expr::col(0), Expr::lit(0i64));
        assert!(e.eval_batch(&b).is_err());
        // Float division by zero is IEEE infinity, not an error.
        let e = Expr::binary(BinOp::Div, Expr::col(2), Expr::lit(0.0f64));
        assert!(e.eval_batch(&b).is_ok());
    }

    #[test]
    fn type_inference() {
        let schema = Schema::new(vec![
            Field::new("a", DataType::Int64),
            Field::new("f", DataType::Float64),
            Field::new("s", DataType::Utf8),
            Field::new("t", DataType::Timestamp),
        ]);
        let int_plus_int = Expr::binary(BinOp::Add, Expr::col(0), Expr::col(0));
        assert_eq!(int_plus_int.data_type(&schema).unwrap(), DataType::Int64);
        let int_plus_float = Expr::binary(BinOp::Add, Expr::col(0), Expr::col(1));
        assert_eq!(
            int_plus_float.data_type(&schema).unwrap(),
            DataType::Float64
        );
        let ts = Expr::binary(BinOp::Sub, Expr::col(3), Expr::col(3));
        assert_eq!(ts.data_type(&schema).unwrap(), DataType::Int64);
        let cmp = Expr::binary(BinOp::Lt, Expr::col(0), Expr::col(1));
        assert_eq!(cmp.data_type(&schema).unwrap(), DataType::Bool);
        let bad = Expr::binary(BinOp::Add, Expr::col(0), Expr::col(2));
        assert!(bad.data_type(&schema).is_err());
        let bad_logic = Expr::binary(BinOp::And, Expr::col(0), Expr::col(0));
        assert!(bad_logic.data_type(&schema).is_err());
    }

    #[test]
    fn referenced_columns() {
        let e = Expr::binary(BinOp::Add, Expr::col(2), Expr::col(0))
            .and(Expr::lit(true));
        // `and` wraps in logic; referenced columns come from both sides.
        let mut cols = Vec::new();
        e.referenced_columns(&mut cols);
        cols.sort_unstable();
        assert_eq!(cols, vec![0, 2]);
    }

    #[test]
    fn display_roundtrips_visually() {
        let e = Expr::binary(
            BinOp::Mul,
            Expr::binary(BinOp::Add, Expr::col(0), Expr::lit(1i64)),
            Expr::col(1),
        );
        assert_eq!(e.to_string(), "((#0 + 1) * #1)");
    }
}
