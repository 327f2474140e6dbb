//! Criterion bench for E11: the three expression engines.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use oltap_bench::baselines::tuple_eval::eval_row;
use oltap_common::{row, Batch, DataType, Field, Row, Schema};
use oltap_exec::expr::{BinOp, Expr};
use oltap_exec::CompiledExpr;

fn bench(c: &mut Criterion) {
    let n = 500_000usize;
    let schema = Schema::new(vec![
        Field::new("a", DataType::Int64),
        Field::new("f", DataType::Float64),
    ]);
    let rows: Vec<Row> = (0..n).map(|i| row![i as i64, i as f64 * 0.25]).collect();
    let batches: Vec<Batch> = rows
        .chunks(4096)
        .map(|c| Batch::from_rows(&schema, c).unwrap())
        .collect();
    // E11's float row: one the entry point holds a compiled program for.
    let expr = Expr::binary(
        BinOp::Add,
        Expr::binary(BinOp::Mul, Expr::col(1), Expr::lit(1.1f64)),
        Expr::col(0),
    );
    let compiled = CompiledExpr::new(expr.clone(), &schema);
    assert!(compiled.is_compiled());

    let mut g = c.benchmark_group("expr_eval");
    g.sample_size(10);
    g.throughput(Throughput::Elements(n as u64));
    g.bench_function("tuple_at_a_time", |b| {
        b.iter(|| {
            let mut sink = 0usize;
            for r in &rows {
                sink += eval_row(&expr, r).unwrap().is_null() as usize;
            }
            sink
        })
    });
    g.bench_function("vectorized", |b| {
        b.iter(|| {
            let mut sink = 0usize;
            for batch in &batches {
                sink += expr.eval_batch(batch).unwrap().len();
            }
            sink
        })
    });
    g.bench_function("compiled", |b| {
        b.iter(|| {
            let mut sink = 0usize;
            for batch in &batches {
                sink += compiled.eval(batch).unwrap().len();
            }
            sink
        })
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
