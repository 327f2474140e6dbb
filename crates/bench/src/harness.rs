//! Shared utilities for the experiment binaries: timing, table rendering,
//! scale selection, and the one [`Report`] every experiment writes and
//! gates through.

use std::path::Path;
use std::time::Instant;

/// Times a closure, returning (result, elapsed seconds).
pub fn time<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let r = f();
    (r, start.elapsed().as_secs_f64())
}

/// Best-of-N timing: the minimum over `reps` runs (and that run's result),
/// far more stable than one sample at quick-mode scales.
pub fn best<T>(reps: usize, mut f: impl FnMut() -> T) -> (T, f64) {
    let (mut out, mut secs) = time(&mut f);
    for _ in 1..reps {
        let (v, s) = time(&mut f);
        if s < secs {
            (out, secs) = (v, s);
        }
    }
    (out, secs)
}

/// Formats rows/second with a unit prefix.
pub fn rate(rows: usize, secs: f64) -> String {
    let rps = rows as f64 / secs.max(1e-12);
    if rps >= 1e9 {
        format!("{:.2} Grows/s", rps / 1e9)
    } else if rps >= 1e6 {
        format!("{:.2} Mrows/s", rps / 1e6)
    } else if rps >= 1e3 {
        format!("{:.2} Krows/s", rps / 1e3)
    } else {
        format!("{rps:.0} rows/s")
    }
}

/// Formats a byte count.
pub fn bytes(n: usize) -> String {
    if n >= 1 << 30 {
        format!("{:.2} GiB", n as f64 / (1u64 << 30) as f64)
    } else if n >= 1 << 20 {
        format!("{:.2} MiB", n as f64 / (1 << 20) as f64)
    } else if n >= 1 << 10 {
        format!("{:.2} KiB", n as f64 / (1 << 10) as f64)
    } else {
        format!("{n} B")
    }
}

/// A fixed-width text table printed to stdout (the harness output format
/// recorded in EXPERIMENTS.md).
pub struct TextTable {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// A table with the given column headers.
    pub fn new(headers: &[&str]) -> TextTable {
        TextTable {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Adds a row (stringify everything up front).
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        assert_eq!(cells.len(), self.headers.len(), "column count mismatch");
        self.rows.push(cells.to_vec());
        self
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for r in &self.rows {
            for (i, c) in r.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let sep: String = widths
            .iter()
            .map(|w| "-".repeat(w + 2))
            .collect::<Vec<_>>()
            .join("+");
        let fmt_row = |cells: &[String]| {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!(" {:<width$} ", c, width = widths[i]))
                .collect::<Vec<_>>()
                .join("|")
        };
        let mut out = String::new();
        out.push_str(&fmt_row(&self.headers));
        out.push('\n');
        out.push_str(&sep);
        out.push('\n');
        for r in &self.rows {
            out.push_str(&fmt_row(r));
            out.push('\n');
        }
        out
    }

    /// Prints the table with a title banner.
    pub fn print(&self, title: &str) {
        println!("\n=== {title} ===");
        print!("{}", self.render());
    }
}

/// Reads the experiment scale factor from `OLTAP_SCALE` (default 1.0).
/// Harnesses multiply their row counts by this, so CI can run tiny and a
/// workstation can run big.
pub fn scale() -> f64 {
    std::env::var("OLTAP_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1.0)
}

/// `n` scaled by [`scale`], with a floor.
pub fn scaled(n: usize) -> usize {
    ((n as f64 * scale()) as usize).max(100)
}

/// A gated cell fails the gate when its metric drops below this fraction of
/// the checked-in baseline (a regression of more than 20 %).
pub const GATE_FRACTION: f64 = 0.8;

/// One measured number of an experiment. A `gated` metric is higher-is-better
/// and measured so that the machine cancels out — a ratio of two timings
/// within one run, or a count — which is what makes a checked-in baseline
/// mean something on another host; ungated cells are recorded, never judged.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    pub name: String,
    pub metric: f64,
    pub gated: bool,
    /// What the metric was computed from, for the reader. Numbers only: a
    /// cell is flat by construction, so it is one brace-free JSON object and
    /// [`Report::parse`] can cut it at the next `}`.
    pub detail: Vec<(String, f64)>,
}

/// An experiment's cells, the one file shape they are recorded in
/// (`{"experiment", "gate_fraction", "cells": [{name, metric, gated, …}]}`)
/// and the one gate that judges them against a recorded file.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    pub experiment: String,
    pub cells: Vec<Cell>,
}

/// `v` kept to `decimals` places: a report holds what its file will say.
fn rounded(v: f64, decimals: i32) -> f64 {
    let p = 10f64.powi(decimals);
    (v * p).round() / p
}

impl Report {
    /// An empty report for the experiment (its binary's name).
    pub fn new(experiment: &str) -> Report {
        Report {
            experiment: experiment.to_string(),
            cells: Vec::new(),
        }
    }

    /// Records a cell; the metric is kept to four decimals and each detail
    /// value to six.
    pub fn cell(&mut self, name: &str, metric: f64, gated: bool, detail: &[(&str, f64)]) {
        self.cells.push(Cell {
            name: name.to_string(),
            metric: rounded(metric, 4),
            gated,
            detail: detail
                .iter()
                .map(|&(k, v)| (k.to_string(), rounded(v, 6)))
                .collect(),
        });
    }

    /// The file's text.
    pub fn to_json(&self) -> String {
        let cells: Vec<String> = self
            .cells
            .iter()
            .map(|c| {
                let detail: String = c
                    .detail
                    .iter()
                    .map(|(k, v)| format!(",\"{k}\":{v}"))
                    .collect();
                format!(
                    "{{\"name\":\"{}\",\"metric\":{:.4},\"gated\":{}{detail}}}",
                    c.name, c.metric, c.gated
                )
            })
            .collect();
        format!(
            "{{\"experiment\":\"{}\",\"gate_fraction\":{GATE_FRACTION},\"cells\":[\n  {}\n]}}\n",
            self.experiment,
            cells.join(",\n  ")
        )
    }

    /// Reads a file's text back. Strict: a cell without a name, a numeric
    /// metric and a `gated` flag, or with a detail that is not a number, is
    /// an error, not a cell skipped — a baseline half read is a gate half
    /// applied.
    pub fn parse(json: &str) -> Result<Report, String> {
        let unquote = |s: &str| -> Option<String> {
            Some(s.trim().strip_prefix('"')?.strip_suffix('"')?.to_string())
        };
        let header = json
            .trim()
            .strip_prefix("{\"experiment\":")
            .and_then(|rest| rest.split_once(",\"gate_fraction\":"))
            .and_then(|(name, rest)| Some((unquote(name)?, rest.split_once(",\"cells\":[")?.1)));
        let Some((experiment, mut rest)) = header else {
            return Err("not an experiment report".into());
        };
        let mut cells = Vec::new();
        while let Some((_, after)) = rest.split_once('{') {
            let (body, tail) = after.split_once('}').ok_or("unclosed cell")?;
            rest = tail;
            let (mut name, mut metric, mut gated, mut detail) = (None, None, None, Vec::new());
            for field in body.split(',') {
                let bad = || format!("cell field `{field}`");
                let (key, value) = field.split_once(':').ok_or_else(bad)?;
                let key = unquote(key).ok_or_else(bad)?;
                match key.as_str() {
                    "name" => name = Some(unquote(value).ok_or_else(bad)?),
                    "gated" => gated = Some(value.trim().parse::<bool>().map_err(|_| bad())?),
                    _ => {
                        let v = value.trim().parse::<f64>().map_err(|_| bad())?;
                        if key == "metric" {
                            metric = Some(v);
                        } else {
                            detail.push((key, v));
                        }
                    }
                }
            }
            match (name, metric, gated) {
                (Some(name), Some(metric), Some(gated)) => cells.push(Cell {
                    name,
                    metric,
                    gated,
                    detail,
                }),
                _ => return Err(format!("cell `{body}` lacks name, metric or gated")),
            }
        }
        if rest.trim() != "]}" {
            return Err(format!("trailing `{}`", rest.trim()));
        }
        Ok(Report { experiment, cells })
    }

    /// Judges this run against a recorded one and returns what failed: a
    /// gated metric below [`GATE_FRACTION`] of its baseline (or not a
    /// number), a gated baseline cell this run did not produce, a gated cell
    /// the baseline does not hold, and a gated baseline cell that is not a
    /// finite number above zero — its floor is one nothing falls below.
    /// Ungated cells are not looked at.
    pub fn gate(&self, baseline: &Report) -> Vec<String> {
        let mut failures = Vec::new();
        if baseline.experiment != self.experiment {
            failures.push(format!(
                "baseline is of `{}`, not `{}`",
                baseline.experiment, self.experiment
            ));
        }
        let mut t = TextTable::new(&["cell", "baseline", "current", "floor", "verdict"]);
        for base in baseline.cells.iter().filter(|c| c.gated) {
            let floor = base.metric * GATE_FRACTION;
            let current = self.cells.iter().find(|c| c.name == base.name);
            let verdict = match current {
                None => "MISSING",
                // NaN on either side compares false.
                Some(c) if c.metric >= floor && base.metric.is_finite() && base.metric > 0.0 => {
                    "ok"
                }
                Some(c) if c.metric >= floor => "CANNOT FAIL",
                Some(_) => "REGRESSED",
            };
            if verdict != "ok" {
                failures.push(format!("{}: {verdict}", base.name));
            }
            t.row(&[
                base.name.clone(),
                format!("{:.4}", base.metric),
                current.map_or("-".to_string(), |c| format!("{:.4}", c.metric)),
                format!("{floor:.4}"),
                verdict.to_string(),
            ]);
        }
        for c in self.cells.iter().filter(|c| c.gated) {
            if !baseline.cells.iter().any(|b| b.gated && b.name == c.name) {
                failures.push(format!("{}: NO BASELINE", c.name));
                t.row(&[
                    c.name.clone(),
                    "-".to_string(),
                    format!("{:.4}", c.metric),
                    "-".to_string(),
                    "NO BASELINE".to_string(),
                ]);
            }
        }
        t.print(&format!(
            "{} gate: gated cells vs recorded baseline",
            self.experiment
        ));
        failures
    }

    /// Without `gate`, records this run at `path`. With it, `path` is the
    /// baseline: read, never written, and a file that is missing or does not
    /// parse fails like a regression does.
    pub fn write_or_gate(&self, path: &Path, gate: bool) -> Result<(), String> {
        if !gate {
            if let Some(dir) = path.parent() {
                std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            }
            return std::fs::write(path, self.to_json())
                .map(|()| println!("wrote {}", path.display()))
                .map_err(|e| format!("{}: {e}", path.display()));
        }
        let baseline = std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|json| Report::parse(&json))
            .map_err(|e| format!("gate: no usable baseline at {}: {e}", path.display()))?;
        let failures = self.gate(&baseline);
        if failures.is_empty() {
            println!(
                "gate: every gated cell within {GATE_FRACTION}x of {}",
                path.display()
            );
            return Ok(());
        }
        Err(format!(
            "gate: failed against {}: {}",
            path.display(),
            failures.join("; ")
        ))
    }

    /// Ends an experiment binary: prints the cells, then records them as
    /// `results/BENCH_<stem>.json` — or, when the binary was run with
    /// `--gate`, judges them against that file and exits nonzero on failure.
    pub fn finish(self, stem: &str) {
        let mut t = TextTable::new(&["cell", "metric", "gated", "detail"]);
        for c in &self.cells {
            let detail: Vec<String> = c.detail.iter().map(|(k, v)| format!("{k}={v}")).collect();
            t.row(&[
                c.name.clone(),
                format!("{:.4}", c.metric),
                if c.gated { "yes" } else { "no" }.to_string(),
                detail.join(" "),
            ]);
        }
        t.print(&format!("{}: cells", self.experiment));
        let path = format!("results/BENCH_{stem}.json");
        let gate = std::env::args().any(|a| a == "--gate");
        if let Err(e) = self.write_or_gate(Path::new(&path), gate) {
            eprintln!("{e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = TextTable::new(&["name", "value"]);
        t.row(&["a".into(), "1".into()]);
        t.row(&["longer-name".into(), "22".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[0].len(), lines[2].len());
        assert!(lines[2].starts_with(" a "));
    }

    #[test]
    fn formatting_helpers() {
        assert!(rate(2_000_000, 1.0).contains("Mrows"));
        assert!(rate(500, 1.0).contains("rows/s"));
        assert_eq!(bytes(512), "512 B");
        assert!(bytes(3 << 20).contains("MiB"));
    }

    #[test]
    fn timing_returns_result() {
        let (v, secs) = time(|| 40 + 2);
        assert_eq!(v, 42);
        assert!(secs >= 0.0);
    }
}
