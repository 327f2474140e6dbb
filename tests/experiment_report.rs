//! The one output-and-gate path of the experiment binaries
//! (`oltap_bench::harness::Report`): the file shape round-trips, the gate
//! fails on exactly what it should, `--gate` never writes, and the
//! checked-in baselines read back whole. Here, not beside the harness,
//! because `crates/bench` is not a default workspace member: this way the
//! tier-1 `cargo test` runs them.

use oltap_bench::harness::{Report, GATE_FRACTION};
use std::path::PathBuf;

/// A run of `e99_sample`: one gated ratio, one ungated throughput.
fn run(ratio: f64, throughput: f64) -> Report {
    let mut r = Report::new("e99_sample");
    r.cell(
        "ratio",
        ratio,
        true,
        &[("fast_secs", 0.000812), ("rows", 150_000.0)],
    );
    r.cell("throughput", throughput, false, &[]);
    r
}

fn results(file: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("results")
        .join(file)
}

/// A scratch path no other test (or process) shares.
fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("oltap-report-{}-{name}.json", std::process::id()))
}

#[test]
fn write_then_parse_is_the_cells() {
    let r = run(5.0925, 16068404.0961);
    let json = r.to_json();
    assert_eq!(
        json,
        "{\"experiment\":\"e99_sample\",\"gate_fraction\":0.8,\"cells\":[\n  \
         {\"name\":\"ratio\",\"metric\":5.0925,\"gated\":true,\"fast_secs\":0.000812,\"rows\":150000},\n  \
         {\"name\":\"throughput\",\"metric\":16068404.0961,\"gated\":false}\n]}\n"
    );
    assert_eq!(Report::parse(&json).unwrap(), r);
    // What a report holds is what its file says: metrics to four decimals,
    // details to six.
    let mut fine = Report::new("e99_sample");
    fine.cell("ratio", 1.0 / 3.0, true, &[("secs", 1.0 / 3000.0)]);
    assert_eq!(fine.cells[0].metric, 0.3333);
    assert_eq!(fine.cells[0].detail[0].1, 0.000333);
    assert_eq!(Report::parse(&fine.to_json()).unwrap(), fine);
}

#[test]
fn unparsable_text_is_an_error_not_an_empty_baseline() {
    let good = run(2.0, 1.0).to_json();
    assert!(Report::parse(&good).is_ok());
    for bad in [
        String::new(),
        "{}".to_string(),
        // The series shape the experiments used to write.
        "{\"experiment\":\"e13\",\"rows\":1,\"series\":[\n  {\"query\":\"q\",\"secs\":0.1}\n]}\n"
            .to_string(),
        good.replace("\"metric\":2.0000", "\"metric\":fast"),
        good.replace("\"gated\":true,", ""),
        // A nested detail is not a cell this type can hold.
        good.replace("\"rows\":150000", "\"curve\":[{\"conns\":8}]"),
        good.replace("\n]}", ""),
    ] {
        assert!(Report::parse(&bad).is_err(), "parsed: {bad}");
    }
}

#[test]
fn the_gate_fails_below_four_fifths_of_the_baseline() {
    assert_eq!(GATE_FRACTION, 0.8);
    let baseline = run(10.0, 1000.0);
    assert_eq!(run(8.1, 1000.0).gate(&baseline), Vec::<String>::new());
    assert_eq!(run(8.0, 1000.0).gate(&baseline), Vec::<String>::new());
    assert_eq!(run(7.9, 1000.0).gate(&baseline), ["ratio: REGRESSED"]);
    // Ungated cells are never judged: not when they collapse, not when they
    // are not numbers, not when they are absent on either side.
    assert!(run(10.0, 1.0).gate(&baseline).is_empty());
    assert!(run(10.0, f64::NAN).gate(&baseline).is_empty());
    let mut without = Report::new("e99_sample");
    without.cell("ratio", 10.0, true, &[]);
    assert!(without.gate(&baseline).is_empty());
    assert!(baseline.gate(&without).is_empty());
}

#[test]
fn a_number_that_is_not_one_fails() {
    let baseline = run(10.0, 1000.0);
    assert_eq!(run(f64::NAN, 1000.0).gate(&baseline), ["ratio: REGRESSED"]);
    assert_eq!(
        run(10.0, 1000.0).gate(&run(f64::NAN, 1000.0)),
        ["ratio: REGRESSED"]
    );
    // ... and survives the file, so a NaN baseline fails from disk too.
    let reread = Report::parse(&run(f64::NAN, 1.0).to_json()).unwrap();
    assert!(reread.cells[0].metric.is_nan());
}

#[test]
fn a_baseline_nothing_can_fall_below_fails() {
    // A floor of 0.8 × 0 (or of a negative number) holds every run: such a
    // gated cell gates nothing, so it is a failure, not a pass. An infinite
    // baseline's floor holds none.
    for (base, verdict) in [
        (0.0, "CANNOT FAIL"),
        (-3.0, "CANNOT FAIL"),
        (f64::INFINITY, "REGRESSED"),
    ] {
        let failures = run(5.0, 1000.0).gate(&run(base, 1000.0));
        assert_eq!(failures, [format!("ratio: {verdict}")], "baseline {base}");
    }
    // ... from disk too; an ungated cell of 0 is only a record.
    let path = scratch("zero");
    run(0.0, 0.0).write_or_gate(&path, false).unwrap();
    let err = run(5.0, 0.0).write_or_gate(&path, true).unwrap_err();
    assert!(err.contains("ratio: CANNOT FAIL"), "{err}");
    run(5.0, 1000.0).write_or_gate(&path, false).unwrap();
    assert!(run(5.0, 0.0).write_or_gate(&path, true).is_ok());
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn a_gated_cell_on_one_side_only_fails() {
    let baseline = run(10.0, 1000.0);
    // The baseline gates a cell this run did not produce.
    let mut renamed = Report::new("e99_sample");
    renamed.cell("ratio_v2", 10.0, true, &[]);
    assert_eq!(
        renamed.gate(&baseline),
        ["ratio: MISSING", "ratio_v2: NO BASELINE"]
    );
    // A new gated cell is not silently ungated until someone refreshes the
    // file — nor does an ungated baseline cell of its name stand in.
    let mut grown = run(10.0, 1000.0);
    grown.cell("second_ratio", 3.0, true, &[]);
    assert_eq!(grown.gate(&baseline), ["second_ratio: NO BASELINE"]);
    let mut promoted = Report::new("e99_sample");
    promoted.cell("ratio", 10.0, true, &[]);
    promoted.cell("throughput", 1000.0, true, &[]);
    assert_eq!(promoted.gate(&baseline), ["throughput: NO BASELINE"]);
    // Another experiment's file is not a baseline.
    let mut other = Report::new("e98_other");
    other.cell("ratio", 10.0, true, &[]);
    assert_eq!(other.gate(&baseline).len(), 1);
}

#[test]
fn gating_reads_the_baseline_and_never_writes_it() {
    let path = scratch("gate");
    run(10.0, 1000.0).write_or_gate(&path, false).unwrap();
    let recorded = std::fs::read(&path).unwrap();
    assert_eq!(recorded, run(10.0, 1000.0).to_json().into_bytes());

    // Passing or failing, a gated run leaves the file's bytes alone.
    run(9.0, 5.0).write_or_gate(&path, true).unwrap();
    assert_eq!(std::fs::read(&path).unwrap(), recorded);
    let err = run(7.9, 5.0).write_or_gate(&path, true).unwrap_err();
    assert!(err.contains("ratio: REGRESSED"), "{err}");
    assert_eq!(std::fs::read(&path).unwrap(), recorded);

    // An ungated run is how a baseline is refreshed, on purpose.
    run(7.9, 5.0).write_or_gate(&path, false).unwrap();
    assert_ne!(std::fs::read(&path).unwrap(), recorded);
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn a_missing_or_unparsable_baseline_fails_the_gate() {
    let path = scratch("missing");
    let err = run(10.0, 1000.0).write_or_gate(&path, true).unwrap_err();
    assert!(err.contains("no usable baseline"), "{err}");
    assert!(!path.exists(), "a gated run created {}", path.display());

    std::fs::write(&path, "{\"experiment\":\"e99_sample\",\"series\":[]}\n").unwrap();
    let err = run(10.0, 1000.0).write_or_gate(&path, true).unwrap_err();
    assert!(err.contains("no usable baseline"), "{err}");
    std::fs::remove_file(&path).unwrap();
}

/// Every `results/BENCH_*.json` is in the one shape, holds at least one
/// gated cell, and is what a report of it would write back (up to the
/// trailing zeros the older files print their details with).
#[test]
fn every_checked_in_baseline_parses_whole_and_gates_something() {
    let mut seen = Vec::new();
    for entry in std::fs::read_dir(results("")).unwrap() {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        if !(name.starts_with("BENCH_") && name.ends_with(".json")) {
            continue;
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let report = Report::parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(
            report.cells.len(),
            text.matches("{\"name\":").count(),
            "{name}"
        );
        assert!(report.cells.iter().any(|c| c.gated), "{name} gates nothing");
        assert!(report.gate(&report).is_empty(), "{name} fails itself");
        assert_eq!(Report::parse(&report.to_json()).unwrap(), report, "{name}");
        seen.push((name, report.experiment.clone(), report.cells.len()));
    }
    seen.sort();
    let cells = |file: &str| {
        seen.iter()
            .find(|s| s.0 == file)
            .map(|s| (s.1.as_str(), s.2))
    };
    assert_eq!(cells("BENCH_kernels.json"), Some(("e18_kernels", 20)));
    assert_eq!(cells("BENCH_coldstore.json"), Some(("e19_coldstore", 5)));
    assert_eq!(cells("BENCH_dist.json"), Some(("e10_scaleout", 1)));
    assert_eq!(cells("BENCH_join.json"), Some(("e14_join", 3)));

    // Spot values of the two baselines this PR must not have touched.
    let kernels =
        Report::parse(&std::fs::read_to_string(results("BENCH_kernels.json")).unwrap()).unwrap();
    let last = kernels.cells.last().unwrap();
    assert_eq!((last.name.as_str(), last.gated), ("join_probe", false));
    assert_eq!(last.detail, [("probe_rows".to_string(), 500_000.0)]);
    assert_eq!(kernels.cells.iter().filter(|c| c.gated).count(), 19);
    let cold =
        Report::parse(&std::fs::read_to_string(results("BENCH_coldstore.json")).unwrap()).unwrap();
    assert_eq!(cold.cells[2].name, "size_reduction");
    assert_eq!(cold.cells[2].metric, 2.0085);
    assert_eq!(
        cold.cells[2].detail[0],
        ("bytes_before".to_string(), 661_367.0)
    );
}

/// Every experiment binary ends in one `Report` with a baseline: each
/// `crates/bench/src/bin/*.rs` is the `experiment` of exactly one
/// `results/BENCH_*.json`, that file gates at least one cell, and no file
/// belongs to a binary that is gone.
#[test]
fn every_experiment_binary_gates_through_exactly_one_baseline() {
    let bins = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("crates/bench/src/bin");
    let mut binaries: Vec<String> = std::fs::read_dir(bins)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "rs"))
        .map(|p| p.file_stem().unwrap().to_string_lossy().into_owned())
        .collect();
    binaries.sort();
    let mut baselines: Vec<(String, String, bool)> = std::fs::read_dir(results(""))
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|name| name.starts_with("BENCH_") && name.ends_with(".json"))
        .map(|name| {
            let report = Report::parse(&std::fs::read_to_string(results(&name)).unwrap())
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            let gates = report.cells.iter().any(|c| c.gated);
            (report.experiment, name, gates)
        })
        .collect();
    baselines.sort();
    for bin in &binaries {
        let files: Vec<_> = baselines.iter().filter(|b| &b.0 == bin).collect();
        assert_eq!(files.len(), 1, "{bin} records into {files:?}");
        assert!(files[0].2, "{} gates nothing", files[0].1);
    }
    for (experiment, name, _) in &baselines {
        assert!(binaries.contains(experiment), "{name} is of `{experiment}`, no binary");
    }
}
