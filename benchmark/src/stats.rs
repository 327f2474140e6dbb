//! Order statistics over latency samples and run-to-run values.

/// Median of `values` (mean of the two middle values for an even count).
/// `values` must not be empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartile by the "exclusive" method, the one Python's
/// `statistics.quantiles(values, n=4)` uses by default, so that spreads
/// computed here match the ones the driver computes. Needs two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |k: usize| {
        // Position k*(n+1)/4 in one-based ranks; like Python, the rank is
        // clamped to the data and the interpolation weight is not.
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Distance between the quartiles as a share of the median.
pub fn iqr_share(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values)
}

/// The tail percentile a sample supports: the highest of p99.99, p99.9,
/// p99, p95 and p90 that still leaves at least ten samples beyond it.
#[derive(Debug, Clone, PartialEq)]
pub struct Tail {
    /// `"p99"` and the like.
    pub label: &'static str,
    pub value: f64,
    pub samples: usize,
}

/// `sorted` is ascending.
pub fn tail(sorted: &[f64]) -> Option<Tail> {
    // (label, quantile in ten-thousandths); integers keep the ranks exact.
    const CANDIDATES: [(&str, usize); 5] = [
        ("p99.99", 9999),
        ("p99.9", 9990),
        ("p99", 9900),
        ("p95", 9500),
        ("p90", 9000),
    ];
    let n = sorted.len();
    CANDIDATES.iter().find_map(|&(label, q)| {
        let rank = (n * q).div_ceil(10_000);
        (n - rank >= 10).then(|| Tail {
            label,
            value: sorted[rank - 1],
            samples: n,
        })
    })
}

/// Completed ops per second in each `slice_ns`-long slice of the window
/// `[origin_ns, origin_ns + window_ns)`; `ops` are `(start, end)` times on
/// the same clock. An op that spans a slice boundary, or an end of the
/// window, is credited to each slice by the share of its duration that
/// falls inside, so a slow op is not rounded into one slice or the other.
pub fn slice_rates(ops: &[(u64, u64)], origin_ns: u64, window_ns: u64, slice_ns: u64) -> Vec<f64> {
    let n = (window_ns / slice_ns).max(1) as usize;
    let mut credit = vec![0.0f64; n];
    for &(start, end) in ops {
        let dur = (end - start).max(1) as f64;
        let first = (start.saturating_sub(origin_ns) / slice_ns) as usize;
        for (s, c) in credit.iter_mut().enumerate().skip(first) {
            let lo = start.max(origin_ns + s as u64 * slice_ns);
            let hi = end.min(origin_ns + (s as u64 + 1) * slice_ns);
            if hi <= lo {
                break;
            }
            *c += (hi - lo) as f64 / dur;
        }
    }
    credit
        .into_iter()
        .map(|c| c * 1e9 / slice_ns as f64)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_match_python() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(median(&v), 5.5);
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2, 5, 4], n=4) == [1.5, 3.0, 4.5]
        let (q1, q3) = quartiles(&[3.0, 1.0, 2.0, 5.0, 4.0]);
        assert!((q1 - 1.5).abs() < 1e-12 && (q3 - 4.5).abs() < 1e-12);
        assert!((iqr_share(&[3.0, 1.0, 2.0, 5.0, 4.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let sample = |n: usize| -> Vec<f64> { (1..=n).map(|i| i as f64).collect() };
        // 99 samples: nothing beyond p90 but 9 values.
        assert_eq!(tail(&sample(99)), None);
        // 100 samples: p90 leaves exactly ten beyond.
        let t = tail(&sample(100)).unwrap();
        assert_eq!((t.label, t.value, t.samples), ("p90", 90.0, 100));
        // 999 samples support p95 (49 beyond) but not p99 (9 beyond).
        assert_eq!(tail(&sample(999)).unwrap().label, "p95");
        assert_eq!(tail(&sample(1000)).unwrap().label, "p99");
        assert_eq!(tail(&sample(10_000)).unwrap().label, "p99.9");
        let t = tail(&sample(100_000)).unwrap();
        assert_eq!((t.label, t.value), ("p99.99", 99_990.0));
    }

    #[test]
    fn slice_rates_split_ops_across_boundaries() {
        // One op wholly in slice 0, one straddling slices 0 and 1 evenly.
        let ops = [(100, 600), (850, 1350)];
        let r = slice_rates(&ops, 100, 2000, 1000);
        assert!((r[0] - 1.5e6).abs() < 1e-3 && (r[1] - 0.5e6).abs() < 1e-3);
        // An op running into or out of the window counts for its part inside.
        let r = slice_rates(&[(1600, 2600), (0, 400)], 100, 2000, 1000);
        assert!((r[1] - 0.5e6).abs() < 1e-3 && (r[0] - 0.75e6).abs() < 1e-3);
    }
}
