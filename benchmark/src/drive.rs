//! The end-to-end run: closed-loop clients over the wire, tracing off.

use crate::gen::{Op, Stream};
use crate::json::{obj, Json};
use crate::oracle::{Answer, Checker, Oracle};
use crate::stats;
use oltap_client::Client;
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::atomic::AtomicU64;
use std::time::{Duration, Instant};

/// Slice of the measured window over which a throughput sample is taken.
const SLICE: Duration = Duration::from_secs(1);

struct Sample {
    /// Since the run's origin, warm-up included.
    start_ns: u64,
    end_ns: u64,
    template: &'static str,
    ok: bool,
}

/// What one client connection did.
pub struct StreamLog {
    pub class: &'static str,
    samples: Vec<Sample>,
    /// The first few failures, for the report.
    pub errors: Vec<String>,
    /// Transactions acknowledged, warm-up included.
    pub committed: Vec<Op>,
}

/// Executes a statement over the wire.
pub fn wire_exec(client: &mut Client) -> impl FnMut(&str) -> oltap_common::Result<Answer> + '_ {
    move |sql| {
        client.query(sql).map(|out| Answer {
            rows: out.rows,
            count: out.count,
        })
    }
}

fn drive_stream(
    addr: SocketAddr,
    mut stream: Stream,
    oracle: &Oracle,
    acked: &AtomicU64,
    origin: Instant,
    deadline: Duration,
) -> Result<StreamLog, String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let mut checker = Checker::new(oracle, acked);
    let mut log = StreamLog {
        class: stream.class(),
        samples: Vec::new(),
        errors: Vec::new(),
        committed: Vec::new(),
    };
    loop {
        let start = origin.elapsed();
        if start >= deadline {
            break;
        }
        let op = stream.next_op();
        let outcome = checker.run(&op, &mut wire_exec(&mut client));
        let end = origin.elapsed();
        if let Err(why) = &outcome {
            if log.errors.len() < 5 {
                log.errors.push(format!("{}: {why}", op.template()));
            }
        }
        log.samples.push(Sample {
            start_ns: start.as_nanos() as u64,
            end_ns: end.as_nanos() as u64,
            template: op.template(),
            ok: outcome.is_ok(),
        });
    }
    client.close().map_err(|e| format!("close: {e}"))?;
    log.committed = checker.committed;
    Ok(log)
}

/// Runs every stream of a workload against `addr` for `warmup + window`,
/// one thread and one connection per stream.
pub fn run_streams(
    addr: SocketAddr,
    streams: Vec<Stream>,
    oracle: &Oracle,
    warmup: Duration,
    window: Duration,
) -> Result<Vec<StreamLog>, String> {
    let acked = AtomicU64::new(0);
    let origin = Instant::now();
    let deadline = warmup + window;
    std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .into_iter()
            .map(|s| {
                let acked = &acked;
                scope.spawn(move || drive_stream(addr, s, oracle, acked, origin, deadline))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "client thread panicked".to_string())?)
            .collect()
    })
}

/// The measured windows of one stream, pooled over a run's episodes.
pub struct StreamSummary {
    pub attempted: u64,
    pub failed: u64,
    /// Median over one-second slices of correct ops completed per second.
    pub ops_per_s: f64,
    /// The slices' rates, in order.
    pub slice_rates: Vec<f64>,
    pub p50_us: f64,
    pub tail: Option<stats::Tail>,
    pub samples: usize,
    /// Median latency and sample count per statement template.
    pub per_template: BTreeMap<&'static str, (f64, usize)>,
}

/// Pools the episodes of one stream: each episode ran for `warmup +
/// window` against an environment of its own.
pub fn summarize(
    episodes: &[&StreamLog],
    warmup: Duration,
    window: Duration,
) -> Result<StreamSummary, String> {
    let warm_ns = warmup.as_nanos() as u64;
    let lat_us = |s: &Sample| (s.end_ns - s.start_ns) as f64 / 1e3;
    let in_window: Vec<&Sample> = episodes
        .iter()
        .flat_map(|log| log.samples.iter().filter(|s| s.start_ns >= warm_ns))
        .collect();
    let ok: Vec<&Sample> = in_window.iter().copied().filter(|s| s.ok).collect();
    if ok.is_empty() {
        let errors: Vec<&String> = episodes.iter().flat_map(|l| &l.errors).collect();
        return Err(format!(
            "a stream completed no correct op in its windows: {errors:?}"
        ));
    }
    let mut sorted: Vec<f64> = ok.iter().map(|s| lat_us(s)).collect();
    sorted.sort_by(f64::total_cmp);

    // Throughput counts every correct op overlapping a window, the one
    // that straddles the end of the warm-up included, by its share inside.
    let mut rates = Vec::new();
    for log in episodes {
        let spans: Vec<(u64, u64)> = log
            .samples
            .iter()
            .filter(|s| s.ok && s.end_ns > warm_ns)
            .map(|s| (s.start_ns, s.end_ns))
            .collect();
        rates.extend(stats::slice_rates(
            &spans,
            warm_ns,
            window.as_nanos() as u64,
            SLICE.as_nanos() as u64,
        ));
    }

    let mut by_template: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for s in &ok {
        by_template.entry(s.template).or_default().push(lat_us(s));
    }
    Ok(StreamSummary {
        attempted: in_window.len() as u64,
        failed: (in_window.len() - ok.len()) as u64,
        ops_per_s: stats::median(&rates),
        slice_rates: rates,
        p50_us: stats::median(&sorted),
        tail: stats::tail(&sorted),
        samples: sorted.len(),
        per_template: by_template
            .into_iter()
            .map(|(t, v)| (t, (stats::median(&v), v.len())))
            .collect(),
    })
}

impl StreamSummary {
    pub fn informational(&self) -> Json {
        let mut pairs = vec![
            ("samples".to_string(), self.samples.into()),
            ("attempted".to_string(), self.attempted.into()),
            ("failed".to_string(), self.failed.into()),
        ];
        if let Some(t) = &self.tail {
            pairs.push((
                "tail".to_string(),
                obj([
                    ("percentile", t.label.into()),
                    ("value_us", t.value.into()),
                    ("samples", t.samples.into()),
                ]),
            ));
        }
        pairs.push((
            "ops_per_s_by_slice".to_string(),
            Json::Arr(self.slice_rates.iter().map(|&r| r.into()).collect()),
        ));
        pairs.push((
            "p50_us_by_template".to_string(),
            Json::Obj(
                self.per_template
                    .iter()
                    .map(|(t, (p50, n))| {
                        (
                            t.to_string(),
                            obj([("p50_us", (*p50).into()), ("samples", (*n).into())]),
                        )
                    })
                    .collect(),
            ),
        ));
        Json::Obj(pairs)
    }
}
