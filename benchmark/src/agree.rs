//! Agreement mode: two interleaved sets of runs of the same code, each run
//! a fresh process on another seed, as the driver makes them. Prints, per
//! workload and end-to-end metric, each set's median, quartiles and spread,
//! and whether the two sets agree within the metric's bound.

use crate::json::Json;
use crate::report::END_TO_END;
use crate::stats;
use crate::workload::{self, WORKLOADS};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

/// Runs this binary on one workload and returns its result line.
fn run_once(workload: &str, seed: u64, seconds: u64, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "{workload} seed {seed} exited with {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().ok_or("no output")?;
    let result = Json::parse(line)?;
    if result.get("correct").and_then(Json::as_bool) != Some(true) {
        return Err(format!("{workload} seed {seed} was not correct: {line}"));
    }
    Ok(result)
}

fn metric(result: &Json, name: &str) -> Result<f64, String> {
    result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("result has no metric {name}"))
}

pub fn run(k: usize, seed: u64, seconds: u64, out_dir: &Path) -> Result<i32, String> {
    let workloads: Vec<&str> = WORKLOADS
        .iter()
        .filter(|w| match w.skip_reason() {
            Some(reason) => {
                println!("skipped: {reason}\n");
                false
            }
            None => true,
        })
        .map(|w| w.name)
        .collect();

    // values[(workload, metric)][set] = one value per run.
    let mut values: BTreeMap<(&str, &str), [Vec<f64>; 2]> = BTreeMap::new();
    for run in 0..k {
        for set in 0..2 {
            let run_seed = seed + (2 * run + set) as u64;
            for &w in &workloads {
                eprintln!(
                    "agree: run {run} set {} {w} seed {run_seed}",
                    ["A", "B"][set]
                );
                let result = run_once(w, run_seed, seconds, false)?;
                for d in &END_TO_END {
                    values.entry((w, d.name)).or_default()[set].push(metric(&result, d.name)?);
                }
            }
        }
    }

    println!("# Agreement of two sets of {k} runs\n");
    println!(
        "Window {seconds} s, seeds {seed}..{}; set A has the even offsets, set B the odd ones, \
         run alternately. `spread` is the distance between the quartiles as a share of the \
         median; `apart` is the distance between the two medians as a share of the smaller.\n",
        seed + 2 * k as u64 - 1
    );
    println!("| workload | metric | bound | A median [q1, q3] | A spread | B median [q1, q3] | B spread | apart | verdict |");
    println!("|---|---|---|---|---|---|---|---|---|");
    let mut disagreements = 0;
    for &w in &workloads {
        for d in &END_TO_END {
            let bound = d.bound.expect("end-to-end metrics have bounds");
            let sets = &values[&(w, d.name)];
            let med = [stats::median(&sets[0]), stats::median(&sets[1])];
            let q = [stats::quartiles(&sets[0]), stats::quartiles(&sets[1])];
            let spread = [stats::iqr_share(&sets[0]), stats::iqr_share(&sets[1])];
            let apart = (med[0] - med[1]).abs() / med[0].min(med[1]);
            // The set-up time's spread is reported and not judged: only its
            // medians have to agree.
            let steady = d.name == "setup_s" || spread.iter().all(|s| *s <= bound);
            let verdict = match (apart <= bound, steady) {
                (true, true) => "agree",
                (true, false) => "SPREAD OVER BOUND",
                (false, _) => "DISAGREE",
            };
            if verdict != "agree" {
                disagreements += 1;
            }
            println!(
                "| {w} | {} ({}) | {bound} | {:.4} [{:.4}, {:.4}] | {:.2}% | {:.4} [{:.4}, {:.4}] | {:.2}% | {:.2}% | {verdict} |",
                d.name,
                d.unit,
                med[0],
                q[0].0,
                q[0].1,
                spread[0] * 100.0,
                med[1],
                q[1].0,
                q[1].1,
                spread[1] * 100.0,
                apart * 100.0,
            );
        }
    }

    // Tracing overhead: the traced run's median round trip against the
    // untraced runs' median latency, on the workload with the shortest ops.
    let traced = run_once("point_read", seed, seconds, true)?;
    let detail = std::fs::read_to_string(out_dir.join("result.json"))
        .map_err(|e| format!("read result.json: {e}"))
        .and_then(|t| Json::parse(&t))?;
    let traced_p50 = detail
        .get("workloads")
        .and_then(|w| w.get("point_read"))
        .and_then(|w| w.get("detail"))
        .and_then(|d| d.get("roundtrip_p50_us"))
        .and_then(Json::as_f64)
        .ok_or("traced result has no roundtrip_p50_us")?;
    let untraced: Vec<f64> = values[&("point_read", "p50_us")].concat();
    let untraced_p50 = stats::median(&untraced);
    println!(
        "\ntrace_overhead_frac = {:.4} (traced point_read round trip p50 {traced_p50:.1} us over \
         {} ops, untraced p50 {untraced_p50:.1} us; mean traced round trip {:.1} us)",
        traced_p50 / untraced_p50 - 1.0,
        workload::find("point_read").map_or(0, |w| w.trace_ops),
        metric(&traced, "client.roundtrip_us")?,
    );

    if disagreements > 0 {
        println!("\n{disagreements} end-to-end metric(s) did not agree within their bounds.");
        return Ok(1);
    }
    println!("\nEvery end-to-end metric agrees within its bound.");
    Ok(0)
}
