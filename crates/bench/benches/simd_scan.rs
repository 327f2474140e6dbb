//! Criterion bench for E3: packed-code scan kernels.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use oltap_bench::baselines::packed_scan::{scan_engine_block, scan_naive, scan_swar, PackedCmp};
use oltap_storage::encoding::BitPacked;

fn bench(c: &mut Criterion) {
    let n = 2_000_000usize;
    let mut g = c.benchmark_group("simd_scan");
    g.sample_size(10);
    g.throughput(Throughput::Elements(n as u64));
    for width in [8u8, 16] {
        let max = (1u64 << width) - 1;
        let values: Vec<u64> = (0..n)
            .map(|i| ((i as u64).wrapping_mul(2654435761)) & max)
            .collect();
        let packed = BitPacked::pack(&values, width).unwrap();
        let lit = max / 2;
        g.bench_with_input(BenchmarkId::new("naive", width), &packed, |b, p| {
            b.iter(|| scan_naive(p, PackedCmp::Lt, lit))
        });
        g.bench_with_input(BenchmarkId::new("block", width), &packed, |b, p| {
            b.iter(|| scan_engine_block(p, PackedCmp::Lt, lit))
        });
        g.bench_with_input(BenchmarkId::new("swar", width), &packed, |b, p| {
            b.iter(|| scan_swar(p, PackedCmp::Lt, lit).unwrap())
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
