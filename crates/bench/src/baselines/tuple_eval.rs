//! Tuple-at-a-time expression interpretation: the comparison subject of
//! E11 and the row-by-row reference of the expression property tests.
//!
//! The classic Volcano shape (tutorial §4): one tree walk *per row* over
//! dynamically typed [`Value`]s — the baseline every modern engine moved
//! away from. The engine evaluates expressions a batch at a time with
//! `Expr::eval_batch`; no statement reaches this module. Its
//! semantics are the engine's: wrapping integers, [`Value`]'s total order
//! for comparisons, Kleene logic, integer division by zero an error.

use oltap_common::{DbError, Result, Row, Value};
use oltap_exec::expr::{BinOp, Expr, UnOp};

/// Evaluates `expr` against a single row, Volcano style.
pub fn eval_row(expr: &Expr, row: &Row) -> Result<Value> {
    match expr {
        Expr::Column(i) => Ok(row
            .values()
            .get(*i)
            .cloned()
            .ok_or_else(|| DbError::Execution(format!("column {i} out of range")))?),
        Expr::Literal(v) => Ok(v.clone()),
        Expr::Param(i, _) => Err(DbError::Execution(format!("parameter ${i} was never filled"))),
        Expr::Binary { op, left, right } => {
            let l = eval_row(left, row)?;
            // Short-circuit-free for AND/OR: Kleene logic needs both.
            let r = eval_row(right, row)?;
            eval_binary_scalar(*op, &l, &r)
        }
        Expr::Unary { op, expr } => {
            let v = eval_row(expr, row)?;
            match (op, &v) {
                (_, Value::Null) => Ok(Value::Null),
                (UnOp::Not, Value::Bool(b)) => Ok(Value::Bool(!b)),
                (UnOp::Neg, Value::Int(i)) => Ok(Value::Int(i.wrapping_neg())),
                (UnOp::Neg, Value::Float(f)) => Ok(Value::Float(-f)),
                _ => Err(DbError::Execution(format!(
                    "bad operand for {op:?}: {}",
                    v.type_name()
                ))),
            }
        }
        Expr::IsNull(e) => Ok(Value::Bool(eval_row(e, row)?.is_null())),
        Expr::IsNotNull(e) => Ok(Value::Bool(!eval_row(e, row)?.is_null())),
    }
}

fn eval_binary_scalar(op: BinOp, l: &Value, r: &Value) -> Result<Value> {
    if op.is_logic() {
        return kleene_scalar(op, l, r);
    }
    if l.is_null() || r.is_null() {
        return Ok(Value::Null);
    }
    if op.is_comparison() {
        use std::cmp::Ordering::*;
        let ord = l.cmp(r);
        return Ok(Value::Bool(match op {
            BinOp::Eq => ord == Equal,
            BinOp::Ne => ord != Equal,
            BinOp::Lt => ord == Less,
            BinOp::Le => ord != Greater,
            BinOp::Gt => ord == Greater,
            _ => ord != Less,
        }));
    }
    // Arithmetic with Int/Float promotion.
    match (l, r) {
        (Value::Int(a), Value::Int(b))
        | (Value::Timestamp(a), Value::Int(b))
        | (Value::Int(a), Value::Timestamp(b))
        | (Value::Timestamp(a), Value::Timestamp(b)) => arith_i64(op, *a, *b),
        _ => {
            let a = l.as_float()?;
            let b = r.as_float()?;
            Ok(Value::Float(match op {
                BinOp::Add => a + b,
                BinOp::Sub => a - b,
                BinOp::Mul => a * b,
                BinOp::Div => a / b,
                BinOp::Mod => a % b,
                _ => unreachable!("not arithmetic"),
            }))
        }
    }
}

fn arith_i64(op: BinOp, a: i64, b: i64) -> Result<Value> {
    Ok(Value::Int(match op {
        BinOp::Add => a.wrapping_add(b),
        BinOp::Sub => a.wrapping_sub(b),
        BinOp::Mul => a.wrapping_mul(b),
        BinOp::Div => {
            if b == 0 {
                return Err(DbError::Execution("division by zero".into()));
            }
            a.wrapping_div(b)
        }
        BinOp::Mod => {
            if b == 0 {
                return Err(DbError::Execution("division by zero".into()));
            }
            a.wrapping_rem(b)
        }
        _ => unreachable!("not arithmetic"),
    }))
}

fn kleene_scalar(op: BinOp, l: &Value, r: &Value) -> Result<Value> {
    let lb = match l {
        Value::Null => None,
        Value::Bool(b) => Some(*b),
        other => {
            return Err(DbError::Execution(format!(
                "logic on non-boolean {}",
                other.type_name()
            )))
        }
    };
    let rb = match r {
        Value::Null => None,
        Value::Bool(b) => Some(*b),
        other => {
            return Err(DbError::Execution(format!(
                "logic on non-boolean {}",
                other.type_name()
            )))
        }
    };
    Ok(match (op, lb, rb) {
        (BinOp::And, Some(false), _) | (BinOp::And, _, Some(false)) => Value::Bool(false),
        (BinOp::And, Some(true), Some(true)) => Value::Bool(true),
        (BinOp::And, _, _) => Value::Null,
        (BinOp::Or, Some(true), _) | (BinOp::Or, _, Some(true)) => Value::Bool(true),
        (BinOp::Or, Some(false), Some(false)) => Value::Bool(false),
        (BinOp::Or, _, _) => Value::Null,
        _ => unreachable!(),
    })
}
