//! The socket-to-socket OLTAP benchmark. See `benchmark/README.md`.
//!
//! ```text
//! benchmark [--workload <name>] [--seed <n>] [--seconds <s>] [--trace [0|1]]
//! benchmark --agree <k> [--seed <n>] [--seconds <s>]
//! ```
//!
//! Without `--workload` every workload runs in turn. The last line of
//! standard output is one JSON object: `correct`, `attempted`, `failed`,
//! `metrics`.

mod agree;
mod ch;
mod drive;
mod gen;
mod json;
mod oracle;
mod report;
mod rng;
mod stats;
mod trace;
mod workload;

use json::{obj, Json};
use oracle::Oracle;
use report::{END_TO_END, PER_LAYER};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Duration;
use workload::{Env, Workload, WORKLOADS};

/// Default measured window; `BENCHMARK.json` passes the same.
pub const DEFAULT_SECONDS: u64 = 12;

/// Before each episode's window opens: caches fill, both sides' buffers
/// grow to size.
const WARMUP: Duration = Duration::from_secs(1);

/// Environments built per end-to-end run. Each serves one episode of the
/// window, and `setup_s` is the median of their build times.
const EPISODES: usize = 3;

pub struct Args {
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    agree: Option<usize>,
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: benchmark [--workload <{}>] [--seed <n>] [--seconds <1..60>] [--trace [0|1]] [--agree <k>]",
        names.join("|")
    )
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        agree: None,
    };
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        argv.get(*i).cloned().ok_or(format!("{flag} needs a value"))
    };
    while i < argv.len() {
        let flag = argv[i].as_str();
        match flag {
            "--workload" => {
                let name = value(&mut i, flag)?;
                args.workload =
                    Some(workload::find(&name).ok_or(format!("no workload named {name}"))?);
            }
            "--seed" => {
                args.seed = value(&mut i, flag)?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                args.seconds = value(&mut i, flag)?
                    .parse()
                    .ok()
                    .filter(|s| (1..=60).contains(s))
                    .ok_or("--seconds takes a whole number from 1 to 60")?;
            }
            "--trace" => match argv.get(i + 1).map(String::as_str) {
                Some("0") => {
                    args.trace = false;
                    i += 1;
                }
                Some("1") => {
                    args.trace = true;
                    i += 1;
                }
                _ => args.trace = true,
            },
            "--agree" => {
                args.agree = Some(
                    value(&mut i, flag)?
                        .parse()
                        .ok()
                        .filter(|k| *k >= 2)
                        .ok_or("--agree takes the runs per set, at least 2")?,
                );
            }
            "--help" | "-h" => return Err(usage()),
            other => return Err(format!("unknown argument {other}\n{}", usage())),
        }
        i += 1;
    }
    Ok(args)
}

/// One workload's run, end-to-end or traced.
pub struct Outcome {
    workload: &'static str,
    /// The metrics of the mode that ran, by name.
    metrics: BTreeMap<&'static str, f64>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    /// Everything else worth keeping: configuration, tails, per-template
    /// medians.
    detail: Json,
}

impl Outcome {
    fn correct(&self) -> bool {
        self.failed == 0
    }

    fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Appends `key: value` to a detail object under construction.
fn put(detail: &mut Vec<(String, Json)>, key: &str, value: impl Into<Json>) {
    detail.push((key.to_string(), value.into()));
}

/// The bytes of page files the workload's data makes: a paged database is
/// built once with an unbounded pool to measure what the real pool is then
/// sized from.
fn page_file_bytes(
    w: &Workload,
    pop: &ch::Population,
    out_dir: &Path,
) -> Result<Option<u64>, String> {
    if !w.paged {
        return Ok(None);
    }
    let env = Env::build(w, pop, out_dir, None)?;
    let bytes = env.page_file_bytes;
    env.shutdown()?;
    Ok(bytes)
}

/// The checksums a resident copy of the data gives: what the paged
/// workload's answers must equal byte for byte.
fn resident_checksums(
    w: &Workload,
    pop: &ch::Population,
    out_dir: &Path,
) -> Result<Option<Vec<u64>>, String> {
    if !w.paged {
        return Ok(None);
    }
    let resident = Workload { paged: false, ..*w };
    let env = Env::build(&resident, pop, out_dir, None)?;
    let sums = oracle::olap_checksums(&env.db)?;
    env.shutdown()?;
    Ok(Some(sums))
}

fn config_json(w: &Workload, pop: &ch::Population, env: &Env, seed: u64) -> Vec<(String, Json)> {
    vec![
        ("warehouses".to_string(), Json::from(w.warehouses as u64)),
        (
            "rows".to_string(),
            Json::Obj(
                pop.tables
                    .iter()
                    .map(|(t, r)| (t.to_string(), r.len().into()))
                    .collect(),
            ),
        ),
        ("clients".to_string(), w.clients().into()),
        ("page_file_bytes".to_string(), env.page_file_bytes.into()),
        ("pool_bytes".to_string(), env.pool_bytes.into()),
        (
            "page_rows".to_string(),
            w.paged.then_some(workload::PAGE_ROWS).into(),
        ),
        (
            "maintenance_interval_ms".to_string(),
            w.maintenance.map(|d| d.as_millis() as u64).into(),
        ),
        (
            "statement_stream_hash".to_string(),
            format!("{:016x}", gen::stream_hash(w.streams(seed), 1000)).into(),
        ),
    ]
}

/// The seed of a run's `episode`th pair of streams.
fn episode_seed(seed: u64, episode: usize) -> u64 {
    seed.wrapping_add((episode as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

fn run_end_to_end(
    w: &'static Workload,
    seed: u64,
    seconds: u64,
    out_dir: &Path,
) -> Result<Outcome, String> {
    let pop = ch::populate(w.warehouses);
    let resident = resident_checksums(w, &pop, out_dir)?;
    let page_bytes = page_file_bytes(w, &pop, out_dir)?;

    // The window is measured in EPISODES equal parts, each against an
    // environment built for it, and the samples are pooled: set-up time
    // gets its repetitions, and no single build's memory layout or a short
    // disturbance decides the run.
    let window = Duration::from_secs_f64(seconds as f64 / EPISODES as f64);
    let mut detail = Vec::new();
    let mut setup_s = Vec::new();
    let mut episodes = Vec::new();
    let (mut lost, mut reopen_checked, mut ticks) = (0u64, 0usize, 0u64);
    let mut errors = Vec::new();
    for episode in 0..EPISODES {
        let env = Env::build(w, &pop, out_dir, page_bytes)?;
        setup_s.push(env.setup_s);
        let oracle = Oracle::build(w, &env.db, resident.clone())?;
        if episode == 0 {
            detail = config_json(w, &pop, &env, seed);
        }
        let streams = w.streams(episode_seed(seed, episode));
        let logs = drive::run_streams(env.addr(), streams, &oracle, WARMUP, window)?;

        if episode + 1 == EPISODES {
            let wal_bytes = env
                .wal_path
                .as_ref()
                .and_then(|p| std::fs::metadata(p).ok())
                .map(|m| m.len());
            put(&mut detail, "wal_file_bytes", wal_bytes);
            put(&mut detail, "wal_records", env.db.wal_records());
            if let Some(b) = env.db.buffer_stats() {
                let accesses = (b.hits + b.misses).max(1);
                put(
                    &mut detail,
                    "buffer",
                    obj([
                        ("hits", b.hits.into()),
                        ("misses", b.misses.into()),
                        ("evictions", b.evictions.into()),
                        ("hit_rate", (b.hits as f64 / accesses as f64).into()),
                    ]),
                );
            }
        }
        let (dir, episode_ticks) = env.shutdown()?;
        ticks += episode_ticks;
        if w.durable {
            // Only the bytes the WAL holds are left: reopen and look for
            // every transaction that was acknowledged, warm-up included.
            let committed: Vec<gen::Op> = logs.iter().flat_map(|l| l.committed.clone()).collect();
            let db = oltap_core::Database::open(dir.path().join("wal"))
                .map_err(|e| format!("reopen: {e}"))?;
            let (missing, examples) = oracle::verify_reopened(&db, &pop, &committed);
            lost += missing;
            reopen_checked += committed.len();
            errors.extend(examples);
        }
        drop(dir);
        episodes.push(logs);
    }

    // One summary per stream, over its episodes.
    let summaries = (0..w.clients())
        .map(|stream| {
            let logs: Vec<&drive::StreamLog> = episodes.iter().map(|e| &e[stream]).collect();
            drive::summarize(&logs, WARMUP, window)
        })
        .collect::<Result<Vec<_>, _>>()?;
    let attempted: u64 = summaries.iter().map(|s| s.attempted).sum();
    let failed: u64 = summaries.iter().map(|s| s.failed).sum::<u64>() + lost;
    errors.extend(episodes.iter().flatten().flat_map(|l| l.errors.clone()));
    errors.truncate(10);

    let primary = &summaries[0];
    let olap = summaries.last().expect("a stream");
    let metrics = BTreeMap::from([
        ("ops_per_s", primary.ops_per_s),
        ("p50_us", primary.p50_us),
        // A workload with one stream has no separate analytic rate; the
        // metric then repeats ops_per_s, so that it is defined, and never
        // zero, on every workload.
        ("olap_ops_per_s", olap.ops_per_s),
        ("setup_s", stats::median(&setup_s)),
    ]);

    put(&mut detail, "episodes", EPISODES);
    put(&mut detail, "episode_window_s", window.as_secs_f64());
    put(
        &mut detail,
        "setup_s_each",
        Json::Arr(setup_s.iter().map(|&s| s.into()).collect()),
    );
    put(&mut detail, "maintenance_ticks", ticks);
    if w.durable {
        put(&mut detail, "reopen_checked_txns", reopen_checked);
    }
    put(
        &mut detail,
        "streams",
        Json::Obj(
            episodes[0]
                .iter()
                .zip(&summaries)
                .map(|(l, s)| (l.class.to_string(), s.informational()))
                .collect(),
        ),
    );
    Ok(Outcome {
        workload: w.name,
        metrics,
        attempted: attempted.max(failed),
        failed,
        errors,
        detail: Json::Obj(detail),
    })
}

fn run_traced(w: &'static Workload, seed: u64, out_dir: &Path) -> Result<Outcome, String> {
    let pop = ch::populate(w.warehouses);
    let resident = resident_checksums(w, &pop, out_dir)?;
    let page_bytes = page_file_bytes(w, &pop, out_dir)?;
    let env = Env::build(w, &pop, out_dir, page_bytes)?;
    let oracle = Oracle::build(w, &env.db, resident)?;
    let mut detail = config_json(w, &pop, &env, seed);

    let report = trace::run(w, &env, &oracle, seed, pop.total_rows())?;
    env.shutdown()?;

    let path = out_dir.join(format!("trace-{}.json", w.name));
    report::write_file(&path, &trace::spans_json(&report.spans).compact())?;

    // Shares of the wire round trip, for the report.
    let roundtrip = report.metrics["client.roundtrip_us"];
    let shares: Vec<(String, Json)> = report
        .metrics
        .iter()
        .filter(|(name, _)| name.ends_with("_us") && **name != "client.roundtrip_us")
        .map(|(name, v)| (name.to_string(), (v / roundtrip).into()))
        .collect();
    put(&mut detail, "share_of_roundtrip", Json::Obj(shares));
    put(&mut detail, "roundtrip_p50_us", report.roundtrip_p50_us);
    put(&mut detail, "spans", report.spans.len());
    put(&mut detail, "spans_file", path.display().to_string());
    if w.read_only() {
        let check = trace::check_attribution(&report.metrics);
        if let Err(why) = &check {
            eprintln!("trace check: {why}");
        }
        put(
            &mut detail,
            "attribution_check",
            check.err().unwrap_or_else(|| "ok".to_string()),
        );
    }
    Ok(Outcome {
        workload: w.name,
        metrics: report.metrics,
        attempted: report.attempted,
        failed: report.failed,
        errors: report.errors,
        detail: Json::Obj(detail),
    })
}

fn print_outcome(o: &Outcome, defs: &[report::MetricDef]) {
    println!("== {} ==", o.workload);
    for d in defs {
        println!(
            "  {:<42} {:>16.4} {:<6} ({} is better)",
            d.name, o.metrics[d.name], d.unit, d.better
        );
    }
    println!(
        "  {:<42} {:>16.6} ratio ({} of {})",
        "failed_frac",
        o.failed_frac(),
        o.failed,
        o.attempted
    );
    for e in &o.errors {
        println!("  failure: {e}");
    }
}

fn run(args: &Args) -> Result<i32, String> {
    let out_dir = report::benchmark_dir().join("out");
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("create {}: {e}", out_dir.display()))?;
    if let Some(k) = args.agree {
        return agree::run(k, args.seed, args.seconds, &out_dir);
    }

    let selected: Vec<&'static Workload> = match args.workload {
        Some(w) => vec![w],
        None => WORKLOADS.iter().collect(),
    };
    let defs: &[report::MetricDef] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut outcomes = Vec::new();
    let mut skipped = Vec::new();
    for w in selected {
        if let Some(reason) = w.skip_reason() {
            println!("== {} == skipped: {reason}", w.name);
            skipped.push((w.name, reason));
            continue;
        }
        let outcome = if args.trace {
            run_traced(w, args.seed, &out_dir)?
        } else {
            run_end_to_end(w, args.seed, args.seconds, &out_dir)?
        };
        print_outcome(&outcome, defs);
        outcomes.push(outcome);
    }

    let mode = if args.trace {
        "per_layer"
    } else {
        "end_to_end"
    };
    let mut per_workload = Vec::new();
    for o in &outcomes {
        per_workload.push((
            o.workload.to_string(),
            obj([
                (mode, report::metrics_json(defs, &o.metrics)?),
                ("correct", o.correct().into()),
                ("attempted", o.attempted.into()),
                ("failed", o.failed.into()),
                ("failed_frac", o.failed_frac().into()),
                (
                    "failures",
                    Json::Arr(o.errors.iter().map(|e| e.as_str().into()).collect()),
                ),
                ("detail", o.detail.clone()),
            ]),
        ));
    }
    for (name, reason) in &skipped {
        per_workload.push((name.to_string(), obj([("skipped", reason.as_str().into())])));
    }
    let doc = obj([
        ("mode", mode.into()),
        (
            "provenance",
            report::provenance(args.seed, args.seconds, WARMUP.as_secs(), EPISODES),
        ),
        ("workloads", Json::Obj(per_workload)),
    ]);
    let path = out_dir.join("result.json");
    report::write_file(&path, &doc.pretty())?;
    println!("wrote {}", path.display());

    // The result line: one workload's metrics by name; several workloads'
    // metrics as `<workload>.<metric>`.
    let Some(first) = outcomes.first() else {
        return Ok(3);
    };
    let metrics = if outcomes.len() == 1 {
        report::metrics_json(defs, &first.metrics)?
    } else {
        let mut all = Vec::new();
        for o in &outcomes {
            if let Json::Obj(pairs) = report::metrics_json(defs, &o.metrics)? {
                all.extend(
                    pairs
                        .into_iter()
                        .map(|(k, v)| (format!("{}.{k}", o.workload), v)),
                );
            }
        }
        Json::Obj(all)
    };
    println!(
        "{}",
        report::result_line(
            outcomes.iter().all(Outcome::correct),
            outcomes.iter().map(|o| o.attempted).sum(),
            outcomes.iter().map(|o| o.failed).sum(),
            metrics,
        )
    );
    Ok(0)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let code = match parse_args(&argv) {
        Err(why) => {
            eprintln!("{why}");
            2
        }
        Ok(args) => run(&args).unwrap_or_else(|why| {
            eprintln!("benchmark failed: {why}");
            1
        }),
    };
    std::process::exit(code);
}
