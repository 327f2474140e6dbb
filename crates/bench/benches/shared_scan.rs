//! Criterion bench for E8: batched shared scan vs independent scans.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use oltap_common::{row, Row, Value, DataType, Field, Schema};
use oltap_bench::baselines::shared_scan::{run_independent, run_shared_batch, ScanQuery};
use oltap_storage::{CmpOp, DeltaMainTable, ScanPredicate};
use oltap_txn::TransactionManager;
use std::sync::Arc;

fn bench(c: &mut Criterion) {
    let n = 500_000usize;
    let schema = Arc::new(
        Schema::with_primary_key(
            vec![
                Field::not_null("id", DataType::Int64),
                Field::new("bucket", DataType::Int64),
                Field::new("v", DataType::Int64),
            ],
            &["id"],
        )
        .unwrap(),
    );
    let mgr = Arc::new(TransactionManager::new());
    let table = DeltaMainTable::new(schema);
    let rows: Vec<Row> = (0..n).map(|i| row![i as i64, (i % 64) as i64, 1i64]).collect();
    table.bulk_load(&rows).unwrap();
    let ts = mgr.now();

    let mut g = c.benchmark_group("shared_scan");
    g.sample_size(10);
    for k in [4usize, 16, 64] {
        let queries: Vec<ScanQuery> = (0..k)
            .map(|q| ScanQuery {
                predicate: ScanPredicate::single(1, CmpOp::Eq, Value::Int((q % 64) as i64)),
                agg_column: 2,
            })
            .collect();
        g.bench_with_input(BenchmarkId::new("independent", k), &queries, |b, q| {
            b.iter(|| run_independent(&table, ts, q).unwrap())
        });
        g.bench_with_input(BenchmarkId::new("shared", k), &queries, |b, q| {
            b.iter(|| run_shared_batch(&table, ts, q).unwrap())
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
