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
//! takes — and the f64 register VM (`oltap_bench::baselines::f64_vm`).
//! The `VM` column says whether the VM compiled the expression; where it
//! says `no` the VM declines it, and its two cells are `-`.

use oltap_bench::baselines::f64_vm::compile;
use oltap_bench::baselines::tuple_eval::eval_row;
use oltap_bench::harness::{rate, scaled, time, TextTable};
use oltap_common::{row, Batch, Row};
use oltap_common::{DataType, Field, Schema};
use oltap_exec::expr::{BinOp, Expr};

fn main() {
    let n = scaled(2_000_000);
    println!("E11: expression engines over {n} rows");

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

    let cases: Vec<(&str, Expr)> = vec![
        (
            "arith: (a*3 + b) * 2 - a",
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
            "pred: a > 1000 AND b < 50",
            Expr::binary(BinOp::Gt, Expr::col(0), Expr::lit(1000i64)).and(Expr::binary(
                BinOp::Lt,
                Expr::col(1),
                Expr::lit(50i64),
            )),
        ),
        (
            "pred: a*3 + b > 5000",
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
            "float: f * 1.1 + a",
            Expr::binary(
                BinOp::Add,
                Expr::binary(BinOp::Mul, Expr::col(2), Expr::lit(1.1f64)),
                Expr::col(0),
            ),
        ),
    ];

    let mut t = TextTable::new(&[
        "expression",
        "tuple-at-a-time",
        "vectorized",
        "compiled",
        "VM",
        "vec/tuple",
        "comp/tuple",
    ]);
    for (name, expr) in &cases {
        // Tuple-at-a-time: one tree interpretation per row.
        let (_, tuple_s) = time(|| {
            let mut sink = 0usize;
            for r in &rows {
                let v = eval_row(expr, r).unwrap();
                sink += v.is_null() as usize;
            }
            sink
        });
        // Vectorized interpretation.
        let (_, vec_s) = time(|| {
            let mut sink = 0usize;
            for b in &batches {
                let v = expr.eval_batch(b).unwrap();
                sink += v.len();
            }
            sink
        });
        // The VM: a compiled block program, where it is exact.
        let program = compile(expr, &schema);
        let comp_s = program.as_ref().map(|p| {
            let run = |b| p.run(b).expect("no NULL, no integer past 2^53").len();
            time(|| batches.iter().map(run).sum::<usize>()).1
        });
        let declined = || "-".to_string();
        t.row(&[
            name.to_string(),
            rate(n, tuple_s),
            rate(n, vec_s),
            comp_s.map_or_else(declined, |s| rate(n, s)),
            if program.is_some() { "yes" } else { "no" }.to_string(),
            format!("{:.1}x", tuple_s / vec_s),
            comp_s.map_or_else(declined, |s| format!("{:.1}x", tuple_s / s)),
        ]);
    }
    t.print("E11: expression engine comparison");
    println!("expected shape: vectorized and compiled are integer factors over tuple-at-a-time");
}
