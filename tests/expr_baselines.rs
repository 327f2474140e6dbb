//! The tuple-at-a-time expression walk of E11 (`oltap-bench`'s
//! `baselines::tuple_eval`) against the engine's evaluators on fixed
//! expressions; `prop_expr_engines_agree` (property_based.rs) is the random
//! version. They live here, not beside the baseline, because
//! `crates/bench` is not a default workspace member: this way the tier-1
//! `cargo test` still runs them.

use oltap_bench::baselines::tuple_eval::eval_row;
use oltapdb::common::{row, Batch, DataType, Field, Row, Schema, Value};
use oltapdb::exec::{BinOp, CompiledExpr, Expr, UnOp};

fn schema() -> Schema {
    Schema::new(vec![
        Field::new("a", DataType::Int64),
        Field::new("b", DataType::Int64),
        Field::new("f", DataType::Float64),
        Field::new("s", DataType::Utf8),
    ])
}

fn batch() -> Batch {
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
    Batch::from_rows(&schema(), &rows).unwrap()
}

/// Row, batch and entry-point evaluation must agree everywhere.
fn check_consistency(e: &Expr, b: &Batch) {
    let vec_result = e.eval_batch(b).unwrap();
    let entry_result = CompiledExpr::new(e.clone(), &schema()).eval(b).unwrap();
    for i in 0..b.len() {
        let row_result = eval_row(e, &b.row(i)).unwrap();
        assert_eq!(
            vec_result.value_at(i),
            row_result,
            "row {i} disagrees for {e}"
        );
        assert_eq!(
            entry_result.value_at(i),
            row_result,
            "row {i} disagrees for {e}"
        );
    }
}

#[test]
fn arithmetic_consistency() {
    let b = batch();
    // (a + b) * 2 - a
    let e = Expr::binary(
        BinOp::Sub,
        Expr::binary(
            BinOp::Mul,
            Expr::binary(BinOp::Add, Expr::col(0), Expr::col(1)),
            Expr::lit(2i64),
        ),
        Expr::col(0),
    );
    check_consistency(&e, &b);
    // Mixed int/float promotes.
    let e = Expr::binary(BinOp::Add, Expr::col(0), Expr::col(2));
    check_consistency(&e, &b);
}

#[test]
fn comparison_consistency() {
    let b = batch();
    for op in [
        BinOp::Eq,
        BinOp::Ne,
        BinOp::Lt,
        BinOp::Le,
        BinOp::Gt,
        BinOp::Ge,
    ] {
        let e = Expr::binary(op, Expr::col(0), Expr::lit(4i64));
        check_consistency(&e, &b);
    }
    let e = Expr::binary(BinOp::Eq, Expr::col(3), Expr::lit("y"));
    check_consistency(&e, &b);
}

#[test]
fn logic_kleene_consistency() {
    let b = batch();
    // (a > 2 AND b < 10) OR a IS NULL — exercises NULL propagation.
    let e = Expr::binary(BinOp::Gt, Expr::col(0), Expr::lit(2i64))
        .and(Expr::binary(BinOp::Lt, Expr::col(1), Expr::lit(10i64)))
        .or(Expr::IsNull(Box::new(Expr::col(0))));
    check_consistency(&e, &b);
    let e = Expr::Unary {
        op: UnOp::Not,
        expr: Box::new(Expr::binary(BinOp::Gt, Expr::col(0), Expr::lit(2i64))),
    };
    check_consistency(&e, &b);
}

#[test]
fn division_by_zero_is_error() {
    let b = batch();
    let e = Expr::binary(BinOp::Div, Expr::col(0), Expr::lit(0i64));
    assert!(eval_row(&e, &b.row(0)).is_err());
    assert!(CompiledExpr::new(e, &schema()).eval(&b).is_err());
}
