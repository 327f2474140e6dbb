//! E11's two baselines (`oltap-bench`'s `baselines::tuple_eval`, the
//! tuple-at-a-time walk, and `baselines::f64_vm`, the register VM) against
//! the engine's interpreter on fixed expressions; `prop_expr_engines_agree`
//! (property_based.rs) is the random version. They live here, not beside
//! the baselines, because `crates/bench` is not a default workspace member:
//! this way the tier-1 `cargo test` still runs them.

use oltap_bench::baselines::tuple_eval::eval_row;
use oltapdb::common::{row, Batch, DataType, Field, Row, Schema, Value};
use oltapdb::exec::{BinOp, Expr, UnOp};

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

/// Row and batch evaluation must agree everywhere.
fn check_consistency(e: &Expr, b: &Batch) {
    let vec_result = e.eval_batch(b).unwrap();
    for i in 0..b.len() {
        let row_result = eval_row(e, &b.row(i)).unwrap();
        assert_eq!(
            vec_result.value_at(i),
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
    assert!(e.eval_batch(&b).is_err());
}

/// The f64 register VM of E11 (`oltap-bench`'s `baselines::f64_vm`): a
/// program agrees with the interpreter wherever the VM runs it, and the VM
/// declines — no program, or no answer for a batch — what f64 cannot
/// reproduce, which a caller then evaluates with the interpreter.
mod f64_vm {
    use oltap_bench::baselines::f64_vm::{compile, BLOCK};
    use oltapdb::common::row;
    use oltapdb::common::{Batch, DataType, Field, Result, Row, Schema, Value};
    use oltapdb::exec::{BinOp, Expr, UnOp};

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new("a", DataType::Int64),
            Field::new("b", DataType::Int64),
            Field::new("f", DataType::Float64),
            Field::new("s", DataType::Utf8),
        ])
    }

    fn batch(n: usize) -> Batch {
        let rows: Vec<Row> = (0..n)
            .map(|i| row![i as i64, (i % 97) as i64, i as f64 * 0.25, "k"])
            .collect();
        Batch::from_rows(&schema(), &rows).unwrap()
    }

    fn assert_matches_interpreter(e: &Expr, b: &Batch) {
        let s = schema();
        let p = compile(e, &s).unwrap();
        let compiled = p.run(b).unwrap();
        let interpreted = e.eval_batch(b).unwrap();
        assert_eq!(compiled.data_type(), interpreted.data_type(), "{e}");
        for i in 0..b.len() {
            let (c, v) = (compiled.value_at(i), interpreted.value_at(i));
            assert_eq!(c, v, "row {i}: compiled {c:?} vs interpreted {v:?} for {e}");
        }
    }

    #[test]
    fn arithmetic_agrees_with_interpreter() {
        let b = batch(3000); // multiple blocks
        let e = Expr::binary(
            BinOp::Add,
            Expr::binary(BinOp::Mul, Expr::col(2), Expr::lit(3i64)),
            Expr::binary(BinOp::Sub, Expr::col(1), Expr::col(2)),
        );
        assert_matches_interpreter(&e, &b);
    }

    #[test]
    fn float_mix_agrees() {
        let b = batch(1500);
        let e = Expr::binary(
            BinOp::Div,
            Expr::binary(BinOp::Add, Expr::col(2), Expr::lit(1.0f64)),
            Expr::lit(2.0f64),
        );
        assert_matches_interpreter(&e, &b);
    }

    #[test]
    fn predicates_agree() {
        let b = batch(2500);
        let e = Expr::binary(BinOp::Gt, Expr::col(0), Expr::lit(1000i64)).and(Expr::binary(
            BinOp::Lt,
            Expr::col(1),
            Expr::lit(50i64),
        ));
        assert_matches_interpreter(&e, &b);
        let e = Expr::Unary {
            op: UnOp::Not,
            expr: Box::new(Expr::binary(BinOp::Eq, Expr::col(1), Expr::lit(0i64))),
        };
        assert_matches_interpreter(&e, &b);
    }

    #[test]
    fn deep_expression_register_allocation() {
        // ((((f+1)+1)+1)...) 40 deep: register count stays small because
        // the tree is left-leaning.
        let mut e = Expr::col(2);
        for _ in 0..40 {
            e = Expr::binary(BinOp::Add, e, Expr::lit(1i64));
        }
        let b = batch(100);
        assert_matches_interpreter(&e, &b);
        let p = compile(&e, &schema()).unwrap();
        assert!(p.size().1 <= 3, "regs {}", p.size().1);
    }

    #[test]
    fn right_leaning_expression() {
        // f + (f + (f + ...)): needs one register per level.
        let mut e = Expr::col(2);
        for _ in 0..20 {
            e = Expr::binary(BinOp::Add, Expr::col(2), e);
        }
        let b = batch(64);
        assert_matches_interpreter(&e, &b);
    }

    #[test]
    fn strings_fall_back() {
        let s = schema();
        let e = Expr::binary(BinOp::Eq, Expr::col(3), Expr::lit("k"));
        assert!(compile(&e, &s).is_none());
        // But the interpreter evaluates it.
        let b = batch(10);
        let v = e.eval_batch(&b).unwrap();
        assert_eq!(v.value_at(0), Value::Bool(true));
    }

    #[test]
    fn nulls_fall_back_at_runtime() {
        let s = Schema::new(vec![Field::new("a", DataType::Int64)]);
        let rows = vec![Row::new(vec![Value::Int(1)]), Row::new(vec![Value::Null])];
        let b = Batch::from_rows(&s, &rows).unwrap();
        let e = Expr::binary(BinOp::Add, Expr::col(0), Expr::lit(1.5f64));
        let p = compile(&e, &s).unwrap();
        assert!(p.run(&b).is_none());
        let v = e.eval_batch(&b).unwrap(); // what a caller falls back to
        assert_eq!(v.value_at(0), Value::Float(2.5));
        assert_eq!(v.value_at(1), Value::Null);
    }

    #[test]
    fn integers_beyond_2_53_fall_back() {
        const P53: i64 = 1 << 53;
        let s = Schema::new(vec![
            Field::new("a", DataType::Int64),
            Field::new("b", DataType::Int64),
            Field::new("f", DataType::Float64),
        ]);
        // A literal the VM cannot hold is declined at compile time; the
        // last exact one is not.
        for (lit, compiles) in [
            (P53, true),
            (-P53, true),
            (P53 + 1, false),
            (i64::MIN, false),
        ] {
            let e = Expr::binary(BinOp::Eq, Expr::col(0), Expr::lit(lit));
            assert_eq!(compile(&e, &s).is_some(), compiles, "{lit}");
            let e = Expr::binary(BinOp::Sub, Expr::lit(lit), Expr::col(2));
            assert_eq!(compile(&e, &s).is_some(), compiles, "{lit} - f");
        }
        // A column value it cannot hold is declined per block, and the
        // interpreter answers: a and b are distinct integers that are the
        // same f64.
        let rows = vec![row![1i64, 1i64, 0.0f64], row![P53 + 1, P53, 0.0f64]];
        let b = Batch::from_rows(&s, &rows).unwrap();
        let e = Expr::binary(BinOp::Eq, Expr::col(0), Expr::col(1));
        let p = compile(&e, &s).unwrap();
        assert!(p.run(&b).is_none());
        let v = e.eval_batch(&b).unwrap();
        assert_eq!(v.value_at(0), Value::Bool(true));
        assert_eq!(v.value_at(1), Value::Bool(false));
    }

    /// Rows `a, f` beside an unrelated `u`, once NULL-free (the VM runs)
    /// and once with one `u` NULL (the VM declines the batch): `pred OR u <
    /// 0` must select the same rows from the VM and from the interpreter
    /// over either batch.
    fn selected_with_and_without_a_null(
        pred: Expr,
        a: [i64; 4],
        f: [f64; 4],
        compiles: bool,
    ) -> Vec<u32> {
        let s = Schema::new(vec![
            Field::new("a", DataType::Int64),
            Field::new("f", DataType::Float64),
            Field::new("u", DataType::Int64),
        ]);
        let e = pred.or(Expr::binary(BinOp::Lt, Expr::col(2), Expr::lit(0i64)));
        let p = compile(&e, &s);
        assert_eq!(p.is_some(), compiles, "{e}");
        let mut rows: Vec<Row> = (0..4).map(|i| row![a[i], f[i], 7i64]).collect();
        let null_free = Batch::from_rows(&s, &rows).unwrap();
        let interpreted = e.filter(&null_free).unwrap();
        if let Some(p) = &p {
            let mask = p.run(&null_free).unwrap();
            let compiled: Vec<u32> = mask
                .as_bools()
                .unwrap()
                .iter_ones()
                .map(|i| i as u32)
                .collect();
            assert_eq!(compiled, interpreted, "{e}");
        }
        rows[0].values_mut()[2] = Value::Null;
        let with_null = Batch::from_rows(&s, &rows).unwrap();
        assert!(p.is_none_or(|p| p.run(&with_null).is_none()));
        assert_eq!(interpreted, e.filter(&with_null).unwrap(), "{e}");
        interpreted
    }

    #[test]
    fn negative_zero_is_below_zero_with_or_without_a_null_in_the_batch() {
        let e = Expr::binary(BinOp::Eq, Expr::col(1), Expr::lit(0.0f64));
        let sel = selected_with_and_without_a_null(e, [0; 4], [0.0, -0.0, 1.0, -0.0], true);
        assert_eq!(sel, vec![0]);
    }

    #[test]
    fn nan_equals_itself_with_or_without_a_null_in_the_batch() {
        let e = Expr::binary(BinOp::Eq, Expr::col(1), Expr::col(1));
        let sel =
            selected_with_and_without_a_null(e, [0; 4], [1.0, f64::NAN, -0.0, f64::NAN], true);
        assert_eq!(sel, vec![0, 1, 2, 3]);
    }

    #[test]
    fn integer_products_wrap_with_or_without_a_null_in_the_batch() {
        // 3037000501^2 is just past i64::MAX: it wraps negative. (No f64
        // program computes that, so there is none.)
        let e = Expr::binary(
            BinOp::Gt,
            Expr::binary(BinOp::Mul, Expr::col(0), Expr::col(0)),
            Expr::lit(0i64),
        );
        let sel = selected_with_and_without_a_null(e, [1, 3_037_000_501, -2, 0], [0.0; 4], false);
        assert_eq!(sel, vec![0, 2]);
    }

    #[test]
    fn integers_promote_into_float_arithmetic_exactly() {
        const P53: i64 = 1 << 53;
        let s = Schema::new(vec![
            Field::new("a", DataType::Int64),
            Field::new("f", DataType::Float64),
        ]);
        let rows = vec![row![P53, 0.5f64], row![-P53, -0.0f64], row![0i64, f64::NAN]];
        let b = Batch::from_rows(&s, &rows).unwrap();
        for op in [
            BinOp::Add,
            BinOp::Sub,
            BinOp::Mul,
            BinOp::Div,
            BinOp::Mod,
            BinOp::Le,
        ] {
            for e in [
                Expr::binary(op, Expr::col(0), Expr::col(1)),
                Expr::binary(op, Expr::col(1), Expr::lit(3i64)),
                Expr::binary(op, Expr::lit(-7i64), Expr::col(1)),
            ] {
                let vm = compile(&e, &s).unwrap().run(&b).unwrap();
                let interpreted = e.eval_batch(&b).unwrap();
                for i in 0..b.len() {
                    assert_eq!(vm.value_at(i), interpreted.value_at(i), "row {i} of {e}");
                }
            }
        }
    }

    #[test]
    fn what_has_no_exact_program_is_never_compiled() {
        let s = Schema::new(vec![
            Field::new("a", DataType::Int64),
            Field::new("t", DataType::Bool),
            Field::new("f", DataType::Float64),
        ]);
        let declined = [
            // Nothing to fuse.
            Expr::col(0),
            Expr::lit(1i64),
            // The interpreter reports a type error here; the VM would not.
            Expr::binary(BinOp::Eq, Expr::col(1), Expr::lit(1i64)),
            Expr::binary(BinOp::Add, Expr::col(1), Expr::col(0)),
            Expr::binary(BinOp::And, Expr::col(0), Expr::col(1)),
            // `i64` arithmetic wraps; f64 would round.
            Expr::binary(BinOp::Mul, Expr::col(0), Expr::col(0)),
            Expr::binary(
                BinOp::Lt,
                Expr::Unary {
                    op: UnOp::Neg,
                    expr: Box::new(Expr::col(0)),
                },
                Expr::col(2),
            ),
            Expr::IsNull(Box::new(Expr::col(0))),
            Expr::binary(BinOp::Eq, Expr::col(0), Expr::Literal(Value::Null)),
        ];
        for e in declined {
            assert!(compile(&e, &s).is_none(), "{e}");
        }
        let e = Expr::binary(BinOp::Eq, Expr::col(1), Expr::lit(true));
        assert!(compile(&e, &s).is_some());
    }

    #[test]
    fn integer_division_rejected_at_compile_time() {
        // SQL integer division truncates; the f64 VM would not, so such
        // expressions stay on the interpreter.
        let e = Expr::binary(BinOp::Div, Expr::col(0), Expr::col(1));
        assert!(compile(&e, &schema()).is_none());
    }

    #[test]
    fn float_division_by_zero_is_ieee() {
        // Matches the interpreter: x / 0.0 = inf, no error.
        let b = batch(10);
        let e = Expr::binary(BinOp::Div, Expr::lit(1.0f64), Expr::col(2));
        let p = compile(&e, &schema()).unwrap();
        let v = p.run(&b).unwrap();
        assert_eq!(v.value_at(0), Value::Float(f64::INFINITY)); // f[0] = 0.0
        let interp = e.eval_batch(&b).unwrap();
        assert_eq!(interp.value_at(0), Value::Float(f64::INFINITY));
    }

    #[test]
    fn literal_operands_fold_into_bin_const() {
        let s = schema();
        let b = batch(2048);
        // Right-side literal: LoadCol + BinConst = 2 instructions.
        let e = Expr::binary(BinOp::Gt, Expr::col(0), Expr::lit(100i64));
        let p = compile(&e, &s).unwrap();
        assert_eq!(p.size().0, 2, "{:?}", p);
        assert_matches_interpreter(&e, &b);
        // Left-side literal mirrors the comparison: 5 < a ⇒ a > 5.
        let e = Expr::binary(BinOp::Lt, Expr::lit(5i64), Expr::col(0));
        let p = compile(&e, &s).unwrap();
        assert_eq!(p.size().0, 2);
        assert_matches_interpreter(&e, &b);
        // Left-side literal on a non-mirrorable op stays generic (3
        // instructions) but still agrees.
        let e = Expr::binary(BinOp::Sub, Expr::lit(1000.0f64), Expr::col(2));
        let p = compile(&e, &s).unwrap();
        assert_eq!(p.size().0, 3);
        assert_matches_interpreter(&e, &b);
        // Folding must not change register pressure for a chain.
        let mut e = Expr::col(2);
        for _ in 0..16 {
            e = Expr::binary(BinOp::Add, e, Expr::lit(2i64));
        }
        let p = compile(&e, &schema()).unwrap();
        assert_eq!(p.size().1, 1);
        assert_matches_interpreter(&e, &b);
    }

    #[test]
    fn block_boundary_exactness() {
        // Exactly BLOCK rows, BLOCK+1, BLOCK-1.
        for n in [BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK] {
            let b = batch(n);
            let e = Expr::binary(BinOp::Mul, Expr::col(2), Expr::lit(2i64));
            let p = compile(&e, &schema()).unwrap();
            let v = p.run(&b).unwrap();
            assert_eq!(v.len(), n);
            assert_eq!(v.value_at(n - 1), Value::Float((n - 1) as f64 * 0.5));
        }
    }

    /// `a` = 0..8 with row 3 NULL, which the VM never answers over.
    fn filter_over_a_null(e: Expr) -> Result<Vec<u32>> {
        let s = Schema::new(vec![Field::new("a", DataType::Int64)]);
        let rows: Vec<Row> = (0..8)
            .map(|i| {
                if i == 3 {
                    Row::new(vec![Value::Null])
                } else {
                    row![i as i64]
                }
            })
            .collect();
        let b = Batch::from_rows(&s, &rows).unwrap();
        assert!(compile(&e, &s).is_none_or(|p| p.run(&b).is_none()));
        e.filter(&b)
    }

    #[test]
    fn filter_semantics_true_only() {
        // a > 2: rows 4..7 true, row 3 NULL (excluded), rows 0..2 false.
        let e = Expr::binary(BinOp::Gt, Expr::col(0), Expr::lit(2i64));
        assert_eq!(filter_over_a_null(e).unwrap(), vec![4, 5, 6, 7]);
        // Not a predicate.
        assert!(filter_over_a_null(Expr::col(0)).is_err());
    }

    #[test]
    fn is_null_handling() {
        let e = Expr::IsNull(Box::new(Expr::col(0)));
        assert_eq!(filter_over_a_null(e).unwrap(), vec![3]);
        let e = Expr::IsNotNull(Box::new(Expr::col(0)));
        assert_eq!(filter_over_a_null(e).unwrap().len(), 7);
    }
}
