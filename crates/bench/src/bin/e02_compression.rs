//! E2 — Compression: what the column encodings save per column shape.
//!
//! Claim (tutorial §3, HANA \[35\] / BLU \[34\]): dictionary and light-weight
//! encodings give multi-× capacity reduction. Expected shape: raw ÷ encoded
//! ≫ 1 for sorted runs, low cardinality and narrow ranges; ≈ 1 for wide
//! random ids, which nothing compresses.
//!
//! Gated: one cell per shape, raw bytes ÷ the bytes of the encoding the
//! column store chooses — a deterministic quantity over seeded data, so any
//! change in the choice or the layout of an encoding shows. Recorded in
//! `results/BENCH_compression.json`; `--gate` judges a run against it
//! (`harness::Report`). Each encoding must also decode to its input.

use oltap_bench::harness::{scaled, Report};
use oltap_storage::encoding::{IntEncoding, StrEncoding};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    let n = scaled(4_000_000);
    let mut rng = StdRng::seed_from_u64(2);
    let mut report = Report::new("e02_compression");
    let mut cell = |name: &str, raw: usize, encoded: usize| {
        let detail = [("raw_bytes", raw as f64), ("encoded_bytes", encoded as f64)];
        report.cell(name, raw as f64 / encoded as f64, true, &detail);
    };

    let shapes: [(&str, Vec<i64>); 4] = [
        ("sorted_runs", (0..n).map(|i| (i / 10_000) as i64).collect()),
        ("low_card", (0..n).map(|_| rng.gen_range(0..8)).collect()),
        ("narrow_range", (0..n).map(|_| 500_000 + rng.gen_range(0..4096)).collect()),
        ("wide_random", (0..n).map(|_| rng.gen::<i64>() >> 1).collect()),
    ];
    for (name, values) in &shapes {
        let enc = IntEncoding::choose(values);
        assert_eq!(&enc.decode(), values, "{name} via {}", enc.name());
        cell(name, values.len() * 8, enc.size_bytes());
    }

    let cities = ["berlin", "munich", "hamburg", "cologne", "frankfurt"];
    let strs: Vec<String> = (0..n / 4)
        .map(|_| cities[rng.gen_range(0..cities.len())].to_string())
        .collect();
    let enc = StrEncoding::choose(strs.clone());
    assert_eq!(enc.decode(), strs, "strings via {}", enc.name());
    // A `String` is its bytes plus a 24-byte header.
    cell("strings_low_card", strs.iter().map(|s| s.len() + 24).sum(), enc.size_bytes());

    report.finish("compression");
}
