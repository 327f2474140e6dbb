//! E11 — Query compilation: tuple-at-a-time vs. vectorized vs. compiled
//! expression evaluation.
//!
//! Claim (tutorial §4; Neumann \[28\], Viglas \[40\], Impala \[41\]): removing
//! per-tuple interpretation overhead is worth integer factors; compiled
//! (fused) evaluation beats vectorized interpretation, which beats
//! tuple-at-a-time by a wide margin. Expected shape:
//! compiled ≥ vectorized ≫ tuple-at-a-time.
//!
//! The three arms: the tuple-at-a-time baseline
//! (`oltap_bench::baselines::tuple_eval`), the vectorized interpreter
//! (`Expr::eval_batch`) — the engine's one evaluator, the path a statement
//! takes — and the f64 register VM (`oltap_bench::baselines::f64_vm`),
//! which declines what f64 cannot reproduce exactly (integer arithmetic).
//!
//! `vec_over_tuple_<shape>` is the tuple walk's time over the
//! interpreter's on the same rows, best of nine each within one run. It is
//! gated for `a*3 + b > 5000` alone, the one shape whose ratio held through
//! every gate run on a 2-vCPU host; the other three are recorded ungated
//! (EXPERIMENTS.md E11). The VM's `vm_over_tuple_<shape>`, for the shapes it compiles, is
//! recorded and not gated: it is a baseline, not the engine. Recorded in
//! `results/BENCH_compilation.json`; `--gate` judges a run against it
//! (`harness::Report`).

use oltap_bench::baselines::f64_vm::compile;
use oltap_bench::baselines::tuple_eval::eval_row;
use oltap_bench::harness::{best, scaled, Report};
use oltap_common::{row, Batch, Row};
use oltap_common::{DataType, Field, Schema};
use oltap_exec::expr::{BinOp, Expr};

fn main() {
    // A million rows at least: the interpreter takes ≥ 1 ms there.
    let n = scaled(2_000_000).max(1_000_000);

    let schema = Schema::new(vec![
        Field::new("a", DataType::Int64),
        Field::new("b", DataType::Int64),
        Field::new("f", DataType::Float64),
    ]);
    let rows: Vec<Row> = (0..n)
        .map(|i| row![i as i64, (i % 97) as i64, (i as f64) * 0.25])
        .collect();
    let batches: Vec<Batch> = rows
        .chunks(4096)
        .map(|c| Batch::from_rows(&schema, c).unwrap())
        .collect();

    // (a*3 + b) * 2 - a; a > 1000 AND b < 50; a*3 + b > 5000; f * 1.1 + a.
    // The flag: whether the shape's vectorized ratio is gated.
    let cases: Vec<(&str, bool, Expr)> = vec![
        (
            "arith",
            false,
            Expr::binary(
                BinOp::Sub,
                Expr::binary(
                    BinOp::Mul,
                    Expr::binary(
                        BinOp::Add,
                        Expr::binary(BinOp::Mul, Expr::col(0), Expr::lit(3i64)),
                        Expr::col(1),
                    ),
                    Expr::lit(2i64),
                ),
                Expr::col(0),
            ),
        ),
        (
            "pred_and",
            false,
            Expr::binary(BinOp::Gt, Expr::col(0), Expr::lit(1000i64)).and(Expr::binary(
                BinOp::Lt,
                Expr::col(1),
                Expr::lit(50i64),
            )),
        ),
        (
            "pred_arith",
            true,
            Expr::binary(
                BinOp::Gt,
                Expr::binary(
                    BinOp::Add,
                    Expr::binary(BinOp::Mul, Expr::col(0), Expr::lit(3i64)),
                    Expr::col(1),
                ),
                Expr::lit(5000i64),
            ),
        ),
        (
            "float",
            false,
            Expr::binary(
                BinOp::Add,
                Expr::binary(BinOp::Mul, Expr::col(2), Expr::lit(1.1f64)),
                Expr::col(0),
            ),
        ),
    ];

    let mut report = Report::new("e11_compilation");
    for &(name, gated, ref expr) in &cases {
        let (_, tuple_s) = best(9, || {
            rows.iter()
                .filter(|r| eval_row(expr, r).unwrap().is_null())
                .count()
        });
        let (_, vec_s) = best(9, || {
            (batches.iter())
                .map(|b| expr.eval_batch(b).unwrap().len())
                .sum::<usize>()
        });
        let secs = [("tuple_secs", tuple_s), ("vec_secs", vec_s), ("rows", n as f64)];
        report.cell(&format!("vec_over_tuple_{name}"), tuple_s / vec_s, gated, &secs);
        if let Some(program) = compile(expr, &schema) {
            let run = |b| program.run(b).expect("no NULL, no integer past 2^53").len();
            let (_, vm_s) = best(9, || batches.iter().map(run).sum::<usize>());
            let secs = [("tuple_secs", tuple_s), ("vm_secs", vm_s), ("rows", n as f64)];
            report.cell(&format!("vm_over_tuple_{name}"), tuple_s / vm_s, false, &secs);
        }
    }
    report.finish("compilation");
}
