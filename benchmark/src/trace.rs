//! The traced run: a fixed count of ops replayed on one thread, with a
//! span around every call the benchmark makes into a crate's public
//! functions. This is the only module that calls below
//! `Database::with_config`, `Server::start` and `Client::query`, so a later
//! benchmark change can re-point it without touching the end-to-end
//! numbers.
//!
//! Pass 1 sends every op over the wire and takes the counters (server,
//! admission, buffer pool, WAL) around it. Pass 2 runs the same ops in
//! process, stage by stage; a transaction, which cannot run twice, is
//! replaced by its twin on fresh keys. A span's parent is the span that
//! caused it: `client.roundtrip` of pass 1 is the root of an op, and a
//! stage replayed in isolation hangs under the call it is a stage of, so a
//! child's interval need not lie inside its parent's. Self time is the
//! span's duration less its children's.

use crate::ch;
use crate::drive::wire_exec;
use crate::gen::{Op, Stream};
use crate::json::{obj, Json};
use crate::oracle::{snapshot_reader, Answer, Checker, Oracle};
use crate::workload::{Env, Workload, QUERY_BYTES};
use oltap_client::Client;
use oltap_common::mem::WorkloadClass;
use oltap_common::Row;
use oltap_core::physical::{execute_plan, snapshot_ctx};
use oltap_core::{Database, QueryResult, Session};
use oltap_server::wire::{frame_bytes, read_frame, DoneKind, Request, Response};
use oltap_server::ServerConfig;
use oltap_sql::{bind_select, optimize, parse, LogicalPlan, Statement};
use oltap_storage::SpillDir;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub op_id: u32,
    /// The crate the timed call belongs to.
    pub layer: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the causing span.
    pub parent: Option<usize>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Spans are kept in memory and written out when the run is over.
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn enter(
        &mut self,
        op_id: u32,
        layer: &'static str,
        name: &'static str,
        parent: Option<usize>,
    ) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            op_id,
            layer,
            name,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        self.spans.len() - 1
    }

    pub fn exit(&mut self, span: usize) {
        self.spans[span].end_ns = self.now_ns();
    }

    /// Times `f` as a leaf span.
    fn time<T>(
        &mut self,
        op_id: u32,
        layer: &'static str,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (usize, T) {
        let span = self.enter(op_id, layer, name, parent);
        let out = f();
        self.exit(span);
        (span, out)
    }
}

/// Duration of each span less the durations of its children. Negative
/// where stages replayed in isolation came out slower than the call they
/// are stages of; sums over many ops are what is reported.
pub fn self_times_ns(spans: &[Span]) -> Vec<i64> {
    let mut own: Vec<i64> = spans.iter().map(|s| s.duration_ns() as i64).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= s.duration_ns() as i64;
        }
    }
    own
}

/// Total duration and total self time per span name, in nanoseconds.
fn totals(spans: &[Span]) -> BTreeMap<&'static str, (u64, i64)> {
    let own = self_times_ns(spans);
    let mut out: BTreeMap<&'static str, (u64, i64)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(own) {
        let e = out.entry(s.name).or_default();
        e.0 += s.duration_ns();
        e.1 += own;
    }
    out
}

/// Engine counters the traced run reads before and after pass 1.
#[derive(Debug, Clone, Copy, Default)]
struct Counters {
    queries: u64,
    olap_admitted: u64,
    olap_queued: u64,
    olap_timeouts: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    wal_records: u64,
    wal_bytes: u64,
}

impl Counters {
    fn read(env: &Env) -> Counters {
        let adm = env.db.admission().map(|a| a.stats()).unwrap_or_default();
        let buf = env.db.buffer_stats();
        Counters {
            queries: env.server.stats().queries,
            olap_admitted: adm.olap_admitted,
            olap_queued: adm.olap_queued,
            olap_timeouts: adm.olap_timeouts,
            hits: buf.as_ref().map_or(0, |b| b.hits),
            misses: buf.as_ref().map_or(0, |b| b.misses),
            evictions: buf.as_ref().map_or(0, |b| b.evictions),
            wal_records: env.db.wal_records(),
            wal_bytes: env
                .wal_path
                .as_ref()
                .and_then(|p| std::fs::metadata(p).ok())
                .map_or(0, |m| m.len()),
        }
    }
}

/// What the traced run of one workload produced.
pub struct TraceReport {
    pub spans: Vec<Span>,
    /// Every per-layer metric, by name.
    pub metrics: BTreeMap<&'static str, f64>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// Median `client.roundtrip` per op, for the tracing overhead.
    pub roundtrip_p50_us: f64,
}

/// How a plan's statement is classed for admission (`core::session` keeps
/// its classifier private): a pipeline breaker makes it analytic.
fn classify(plan: &LogicalPlan) -> WorkloadClass {
    match plan {
        LogicalPlan::Aggregate { .. } | LogicalPlan::Join { .. } | LogicalPlan::Sort { .. } => {
            WorkloadClass::Olap
        }
        LogicalPlan::Scan { .. } => WorkloadClass::Oltp,
        LogicalPlan::Filter { input, .. }
        | LogicalPlan::Project { input, .. }
        | LogicalPlan::Limit { input, .. } => classify(input),
    }
}

fn scans<'a>(plan: &'a LogicalPlan, out: &mut Vec<&'a LogicalPlan>) {
    match plan {
        LogicalPlan::Scan { .. } => out.push(plan),
        LogicalPlan::Filter { input, .. }
        | LogicalPlan::Project { input, .. }
        | LogicalPlan::Aggregate { input, .. }
        | LogicalPlan::Sort { input, .. }
        | LogicalPlan::Limit { input, .. } => scans(input, out),
        LogicalPlan::Join { left, right, .. } => {
            scans(left, out);
            scans(right, out);
        }
    }
}

/// The frames the server would send for `result`.
fn responses(result: &QueryResult, rows_per_frame: usize) -> Vec<Response> {
    let done = |kind, count: usize, note: &str| Response::Done {
        kind,
        count: count as u64,
        note: note.to_string(),
    };
    match result {
        QueryResult::Rows { schema, rows } => {
            let mut out = vec![Response::Schema {
                fields: schema.fields().to_vec(),
            }];
            out.extend(
                rows.chunks(rows_per_frame.max(1))
                    .map(|c| Response::Rows { rows: c.to_vec() }),
            );
            out.push(done(DoneKind::RowsEnd, rows.len(), ""));
            out
        }
        QueryResult::Affected(n) => vec![done(DoneKind::Affected, *n, "")],
        QueryResult::Ddl => vec![done(DoneKind::Ddl, 0, "")],
        QueryResult::Txn(kind) => vec![done(DoneKind::Txn, 0, kind)],
    }
}

/// Pass 2 for one statement: parse and execute in process under a
/// `core.session` span, then replay the codecs and, for a SELECT, the
/// stages of the session, each under the span it is a stage of.
struct Replay<'a> {
    tracer: &'a mut Tracer,
    db: &'a Arc<Database>,
    session: &'a mut Session,
    op_id: u32,
    root: Option<usize>,
    rows_per_frame: usize,
    examined_rows: &'a mut u64,
    returned_rows: &'a mut u64,
}

impl Replay<'_> {
    fn statement(&mut self, sql: &str) -> oltap_common::Result<Answer> {
        let (op_id, root) = (self.op_id, self.root);
        let t = &mut *self.tracer;

        // client → server: the request frame.
        let (_, frame) = t.time(op_id, "client", "client.encode", root, || {
            frame_bytes(&Request::Query { sql: sql.into() }.encode())
        });
        t.time(op_id, "server", "server.decode", root, || {
            read_frame(&mut frame.as_slice()).and_then(|p| Request::decode(&p.unwrap_or_default()))
        })
        .1?;

        // The session, as `Session::execute` runs it: parse, then execute.
        let session_span = t.enter(op_id, "core", "core.session", root);
        let (_, stmt) = t.time(op_id, "sql", "sql.parse", Some(session_span), || parse(sql));
        let stmt = stmt?;
        let select = match &stmt {
            Statement::Select(sel) => Some(sel.clone()),
            _ => None,
        };
        let (layer, name) = match &stmt {
            Statement::Select(_) => ("core", "core.select"),
            Statement::Begin => ("txn", "txn.begin"),
            Statement::Commit => ("txn", "txn.commit"),
            _ => ("core", "core.dml"),
        };
        let session = &mut *self.session;
        let (exec_span, result) = t.time(op_id, layer, name, Some(session_span), || {
            session.execute_statement(stmt, sql)
        });
        t.exit(session_span);
        let result = result?;

        // server → client: the response frames.
        let resp = responses(&result, self.rows_per_frame);
        let (_, frames) = t.time(
            op_id,
            "server",
            "server.encode",
            root,
            || -> Vec<Vec<u8>> { resp.iter().map(|r| frame_bytes(&r.encode())).collect() },
        );
        t.time(op_id, "client", "client.decode", root, || {
            frames.iter().try_for_each(|f| {
                read_frame(&mut f.as_slice())
                    .and_then(|p| Response::decode(&p.unwrap_or_default()))
                    .map(drop)
            })
        })
        .1?;

        if let Some(sel) = select {
            self.select_stages(&sel, exec_span)?;
        }
        Ok(match result {
            QueryResult::Rows { rows, .. } => Answer {
                count: rows.len() as u64,
                rows,
            },
            other => Answer {
                count: other.affected() as u64,
                rows: Vec::new(),
            },
        })
    }

    /// The stages `Session::execute` goes through for a SELECT, each called
    /// through its crate's public function.
    fn select_stages(
        &mut self,
        sel: &oltap_sql::ast::SelectStmt,
        parent: usize,
    ) -> oltap_common::Result<()> {
        let (op_id, db) = (self.op_id, self.db);
        let t = &mut *self.tracer;
        let parent = Some(parent);
        let catalog = db.catalog_read();
        let bound = t
            .time(op_id, "sql", "sql.bind", parent, || {
                bind_select(sel, &*catalog)
            })
            .1?;
        let plan = t
            .time(op_id, "sql", "sql.optimize", parent, || optimize(bound))
            .1?;
        if let Some(admission) = db.admission() {
            let class = classify(&plan);
            t.time(op_id, "sched", "sched.admit", parent, || {
                admission.admit(class).map(drop)
            })
            .1?;
        }
        // What `Database::exec_resources` sets up for a governed query: a
        // budget from the governor and a scratch directory of its own.
        if let Some(governor) = db.memory_governor() {
            let class = classify(&plan);
            t.time(op_id, "core", "core.resources", parent, || {
                let budget = governor.budget(class, QUERY_BYTES);
                SpillDir::create_under(db.spill_root()).map(|dir| drop((budget, dir)))
            })
            .1?;
        }
        let ctx = snapshot_ctx(db.txn_manager().now());
        let (exec_span, batches) = t.time(op_id, "core", "core.execute", parent, || {
            execute_plan(&plan, &catalog, &ctx)
        });
        let batches = batches?;
        let (_, rows) = t.time(op_id, "core", "core.materialize", parent, || -> Vec<Row> {
            batches.iter().flat_map(|b| b.to_rows()).collect()
        });
        *self.returned_rows += rows.len() as u64;

        // The scan under the plan, with the optimized plan's own
        // projection and pushdown.
        let mut leaves = Vec::new();
        scans(&plan, &mut leaves);
        for leaf in leaves {
            let LogicalPlan::Scan {
                table,
                projection,
                pushdown,
                ..
            } = leaf
            else {
                continue;
            };
            let handle = catalog.get(table)?;
            *self.examined_rows += handle.row_count_estimate() as u64;
            t.time(op_id, "storage", "storage.scan", Some(exec_span), || {
                handle.scan(projection, pushdown, ctx.read_ts, ctx.me, ctx.batch_size)
            })
            .1?;
        }
        Ok(())
    }
}

/// Runs the traced replay of `w` in `env`.
pub fn run(
    w: &Workload,
    env: &Env,
    oracle: &Oracle,
    seed: u64,
    rows_loaded: usize,
) -> Result<TraceReport, String> {
    let mut streams = w.streams(seed);
    // The transactional stream is the traced one when there are two; the
    // analytic stream then runs untraced on its own connection beside it.
    let mut traced = streams.remove(0);
    let background = streams.pop();
    let ops: Vec<Op> = (0..w.trace_ops).map(|_| traced.next_op()).collect();

    let acked = AtomicU64::new(0);
    let stop = AtomicBool::new(false);
    let addr = env.addr();
    std::thread::scope(|scope| {
        let bg = background.map(|stream| {
            let (acked, stop) = (&acked, &stop);
            scope.spawn(move || background_stream(addr, stream, oracle, acked, stop))
        });
        let report = replay(env, oracle, &acked, &ops, rows_loaded);
        stop.store(true, Ordering::SeqCst);
        let bg_failures = match bg {
            Some(h) => h
                .join()
                .map_err(|_| "analytic thread panicked".to_string())??,
            None => Vec::new(),
        };
        let mut report = report?;
        report.failed += bg_failures.len() as u64;
        report.attempted += bg_failures.len() as u64;
        report.errors.extend(bg_failures.into_iter().take(5));
        Ok(report)
    })
}

/// The untraced analytic connection of a two-stream workload; returns its
/// failures.
fn background_stream(
    addr: std::net::SocketAddr,
    mut stream: Stream,
    oracle: &Oracle,
    acked: &AtomicU64,
    stop: &AtomicBool,
) -> Result<Vec<String>, String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let mut checker = Checker::new(oracle, acked);
    let mut failures = Vec::new();
    while !stop.load(Ordering::SeqCst) {
        let op = stream.next_op();
        if let Err(why) = checker.run(&op, &mut wire_exec(&mut client)) {
            failures.push(format!("{}: {why}", op.template()));
        }
    }
    client.close().map_err(|e| format!("close: {e}"))?;
    Ok(failures)
}

fn replay(
    env: &Env,
    oracle: &Oracle,
    acked: &AtomicU64,
    ops: &[Op],
    rows_loaded: usize,
) -> Result<TraceReport, String> {
    let mut tracer = Tracer::new();
    let mut checker = Checker::new(oracle, acked);
    let mut failed = 0u64;
    let mut errors = Vec::new();
    let mut fail = |what: &str, op: &Op, why: String| {
        failed += 1;
        if errors.len() < 5 {
            errors.push(format!("{what} {}: {why}", op.template()));
        }
    };

    // Pass 1: over the wire.
    let mut client = Client::connect(env.addr()).map_err(|e| format!("connect: {e}"))?;
    let before = Counters::read(env);
    let mut roots = Vec::with_capacity(ops.len());
    let (mut txns, mut user_bytes) = (0u64, 0u64);
    for (id, op) in ops.iter().enumerate() {
        let (root, outcome) = tracer.time(id as u32, "client", "client.roundtrip", None, || {
            checker.run(op, &mut wire_exec(&mut client))
        });
        roots.push(root);
        if let Err(why) = outcome {
            fail("wire", op, why);
        }
        match op {
            Op::NewOrder(no) => {
                txns += 1;
                user_bytes += ch::new_order_user_bytes(no);
            }
            Op::Payment(_) => {
                txns += 1;
                user_bytes += ch::PAYMENT_USER_BYTES;
            }
            _ => {}
        }
    }
    let after = Counters::read(env);
    client.close().map_err(|e| format!("close: {e}"))?;
    let wire_failed_txns =
        ops.iter().filter(|o| o.is_transaction()).count() as u64 - checker.committed.len() as u64;

    // Pass 2: in process, stage by stage.
    let mut session = env.db.session();
    let rows_per_frame = ServerConfig::default().rows_per_frame;
    let (mut examined_rows, mut returned_rows) = (0u64, 0u64);
    for (id, op) in ops.iter().enumerate() {
        let op = op.twin();
        let mut replay = Replay {
            tracer: &mut tracer,
            db: &env.db,
            session: &mut session,
            op_id: id as u32,
            root: Some(roots[id]),
            rows_per_frame,
            examined_rows: &mut examined_rows,
            returned_rows: &mut returned_rows,
        };
        if let Err(why) = checker.run(&op, &mut |sql| replay.statement(sql)) {
            fail("in-process", &op, why);
        }
        if let Op::Point(key) = &op {
            let handle = env.db.table(key.table()).map_err(|e| e.to_string())?;
            let (read_ts, key_row) = (env.db.txn_manager().now(), key.key_row());
            let got = tracer
                .time(id as u32, "storage", "storage.get", None, || {
                    handle.get(&key_row, read_ts, snapshot_reader())
                })
                .1;
            if !matches!(got, Ok(Some(_))) {
                fail("get", &op, format!("{got:?}"));
            }
        }
    }
    drop(session);

    // One foreground maintenance pass on the state the run left behind.
    let tick = Instant::now();
    env.db.maintenance();
    let maintenance_tick_ms = tick.elapsed().as_secs_f64() * 1e3;

    let n = ops.len() as f64;
    let sums = totals(&tracer.spans);
    let dur_us = |name: &str| sums.get(name).map_or(0.0, |t| t.0 as f64 / 1e3 / n);
    // Self time is floored once, on the total: flooring span by span would
    // keep the noise of one sign and drop the other.
    let own_us = |name: &str| sums.get(name).map_or(0.0, |t| t.1.max(0) as f64 / 1e3 / n);
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    let per_op = |count: u64| count as f64 / n;

    let faults = after.misses - before.misses;
    let hits = after.hits - before.hits;
    let wal_bytes = after.wal_bytes - before.wal_bytes;
    let execute_s = sums.get("core.execute").map_or(0.0, |t| t.0 as f64 / 1e9);

    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    m.insert("client.roundtrip_us", dur_us("client.roundtrip"));
    m.insert(
        "client.codec_us",
        dur_us("client.encode") + dur_us("client.decode"),
    );
    m.insert(
        "server.codec_us",
        dur_us("server.decode") + dur_us("server.encode"),
    );
    m.insert("server.edge_us", own_us("client.roundtrip"));
    m.insert(
        "server.queries_per_op",
        per_op(after.queries - before.queries),
    );
    m.insert("sql.parse_us", dur_us("sql.parse"));
    m.insert("sql.bind_us", dur_us("sql.bind"));
    m.insert("sql.optimize_us", dur_us("sql.optimize"));
    m.insert("sched.admit_us", dur_us("sched.admit"));
    m.insert(
        "sched.olap_admitted",
        (after.olap_admitted - before.olap_admitted) as f64,
    );
    m.insert(
        "sched.olap_queued",
        (after.olap_queued - before.olap_queued) as f64,
    );
    m.insert(
        "sched.olap_timeouts",
        (after.olap_timeouts - before.olap_timeouts) as f64,
    );
    m.insert("core.session_us", dur_us("core.session"));
    m.insert("core.execute_us", dur_us("core.execute"));
    m.insert("core.materialize_us", dur_us("core.materialize"));
    m.insert("core.resources_us", dur_us("core.resources"));
    m.insert("core.unattributed_us", own_us("core.select"));
    m.insert("core.dml_us", dur_us("core.dml"));
    m.insert("core.maintenance_tick_ms", maintenance_tick_ms);
    m.insert("exec.self_us", own_us("core.execute"));
    m.insert(
        "exec.rows_per_s",
        if execute_s > 0.0 {
            examined_rows as f64 / execute_s
        } else {
            0.0
        },
    );
    m.insert("storage.scan_us", dur_us("storage.scan"));
    m.insert("storage.get_us", dur_us("storage.get"));
    m.insert(
        "storage.rows_examined_per_row_returned",
        ratio(examined_rows, returned_rows),
    );
    m.insert("storage.buffer_hit_rate", ratio(hits, hits + faults));
    m.insert("storage.pages_faulted_per_op", per_op(faults));
    m.insert(
        "storage.evictions_per_op",
        per_op(after.evictions - before.evictions),
    );
    m.insert(
        "storage.page_bytes_per_row",
        ratio(env.page_file_bytes.unwrap_or(0), rows_loaded as u64),
    );
    m.insert(
        "txn.begin_commit_us",
        dur_us("txn.begin") + dur_us("txn.commit"),
    );
    m.insert(
        "txn.wal_records_per_txn",
        ratio(after.wal_records - before.wal_records, txns),
    );
    m.insert("txn.wal_bytes_per_txn", ratio(wal_bytes, txns));
    m.insert("txn.wal_bytes_per_user_byte", ratio(wal_bytes, user_bytes));
    m.insert("txn.abort_frac", ratio(wire_failed_txns, txns));

    let mut roundtrips: Vec<f64> = roots
        .iter()
        .map(|&r| tracer.spans[r].duration_ns() as f64 / 1e3)
        .collect();
    roundtrips.sort_by(f64::total_cmp);
    Ok(TraceReport {
        spans: tracer.spans,
        metrics: m,
        attempted: 2 * ops.len() as u64,
        failed,
        errors,
        roundtrip_p50_us: crate::stats::median(&roundtrips),
    })
}

/// A stage is missing from the replay when the statement's own session
/// time is not mostly accounted for by the stages timed under it. Only
/// meaningful where every statement is a SELECT.
pub fn check_attribution(metrics: &BTreeMap<&'static str, f64>) -> Result<(), String> {
    const MAX_UNATTRIBUTED: f64 = 0.15;
    let get = |name: &str| metrics.get(name).copied().unwrap_or(0.0);
    let (session, unattributed) = (get("core.session_us"), get("core.unattributed_us"));
    if session <= 0.0 {
        return Err("no session time was traced".to_string());
    }
    let share = unattributed / session;
    if share > MAX_UNATTRIBUTED {
        return Err(format!(
            "core.unattributed_us is {:.1}% of core.session_us (limit {:.0}%): a stage is missing",
            share * 100.0,
            MAX_UNATTRIBUTED * 100.0
        ));
    }
    Ok(())
}

pub fn spans_json(spans: &[Span]) -> Json {
    Json::Arr(
        spans
            .iter()
            .map(|s| {
                obj([
                    ("op_id", Json::from(u64::from(s.op_id))),
                    ("layer", s.layer.into()),
                    ("name", s.name.into()),
                    ("start_ns", s.start_ns.into()),
                    ("end_ns", s.end_ns.into()),
                    ("parent", s.parent.into()),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            op_id: 0,
            layer: "core",
            name,
            start_ns: start,
            end_ns: end,
            parent,
        }
    }

    #[test]
    fn self_time_is_parent_less_children() {
        let spans = vec![
            span("root", 0, 1000, None),
            span("session", 100, 700, Some(0)),
            // Replayed out of its parent's interval: only durations count.
            span("parse", 2000, 2100, Some(1)),
            span("execute", 2100, 2500, Some(1)),
            span("scan", 3000, 3300, Some(3)),
            // Slower in isolation than inside its parent: negative.
            span("over", 0, 5000, Some(4)),
        ];
        assert_eq!(self_times_ns(&spans), [400, 100, 100, 100, -4700, 5000]);
        let t = totals(&spans);
        assert_eq!(t["session"], (600, 100));
    }

    #[test]
    fn tracer_nests_enter_and_exit() {
        let mut t = Tracer::new();
        let outer = t.enter(7, "core", "core.session", None);
        let (inner, v) = t.time(7, "sql", "sql.parse", Some(outer), || 42);
        t.exit(outer);
        assert_eq!(v, 42);
        let (o, i) = (&t.spans[outer], &t.spans[inner]);
        assert!(o.start_ns <= i.start_ns && i.end_ns <= o.end_ns);
        assert_eq!((i.parent, i.op_id, i.layer), (Some(outer), 7, "sql"));
    }

    #[test]
    fn attribution_check_fails_above_fifteen_percent() {
        let m = |session: f64, un: f64| {
            BTreeMap::from([("core.session_us", session), ("core.unattributed_us", un)])
        };
        assert!(check_attribution(&m(100.0, 15.0)).is_ok());
        assert!(check_attribution(&m(100.0, 15.1)).is_err());
        assert!(check_attribution(&m(0.0, 0.0)).is_err());
    }
}
