//! Sessions: statement execution with explicit or automatic transactions.

use crate::catalog::Catalog;
use crate::database::{Database, OpenSession};
use crate::physical::{execute_fragment, execute_plan, execute_point_plan, ExecContext, Partial};
use crate::prepared::{filled, Prepared, PLAN_CACHE_SHAPE_BYTES};
use crate::sink::WriteSink;
use oltap_common::ids::TxnId;
use oltap_common::mem::WorkloadClass;
use oltap_common::schema::SchemaRef;
use oltap_common::vector::BATCH_SIZE;
use oltap_common::{CancellationToken, DbError, Result, Row, Value};
use oltap_sql::ast::{AstExpr, Statement};
use oltap_sql::plan::{as_of_timestamp, literal_value};
use oltap_sql::{lex, parse, parse_tokens, Lexed, LogicalPlan};
use oltap_txn::wal::WalOp;
use oltap_txn::Transaction;
use parking_lot::RwLockReadGuard;
use std::borrow::Cow;
use std::sync::Arc;

/// The result of executing one statement.
#[derive(Debug)]
pub enum QueryResult {
    /// A result set.
    Rows {
        /// Result schema.
        schema: SchemaRef,
        /// Materialized rows.
        rows: Vec<Row>,
    },
    /// Number of rows a DML statement touched.
    Affected(usize),
    /// DDL completed.
    Ddl,
    /// Transaction-control statement completed ("BEGIN"/"COMMIT"/...).
    Txn(&'static str),
}

impl QueryResult {
    /// The rows, for tests/examples that know they ran a query.
    pub fn rows(&self) -> &[Row] {
        match self {
            QueryResult::Rows { rows, .. } => rows,
            _ => &[],
        }
    }

    /// Affected-row count (0 for non-DML).
    pub fn affected(&self) -> usize {
        match self {
            QueryResult::Affected(n) => *n,
            _ => 0,
        }
    }
}

/// A live view of what a session is doing right now, shared with the
/// owner of the connection (the network server) so a drain can decide
/// per class: cancel analytic queries immediately, give transactional
/// work a grace period.
#[derive(Debug, Clone, Default)]
pub struct SessionActivity(Arc<parking_lot::Mutex<Option<WorkloadClass>>>);

impl SessionActivity {
    /// The workload class of the statement executing right now (`None`
    /// when the session is idle between statements).
    pub fn current(&self) -> Option<WorkloadClass> {
        *self.0.lock()
    }

    fn set(&self, class: Option<WorkloadClass>) {
        *self.0.lock() = class;
    }
}

/// Marks a planned statement as running: its cancel token and workload class
/// are what [`Session::cancel_token`] and [`SessionActivity::current`] hand
/// out, from here until the guard drops — on every exit, `?` included, so
/// neither ever describes a query that is not executing.
struct Running<'a>(&'a Session);

impl<'a> Running<'a> {
    fn enter(session: &'a Session, class: WorkloadClass, cancel: CancellationToken) -> Self {
        *session.active_cancel.lock() = Some(cancel);
        session.activity.set(Some(class));
        Running(session)
    }
}

impl Drop for Running<'_> {
    fn drop(&mut self) {
        self.0.activity.set(None);
        *self.0.active_cancel.lock() = None;
    }
}

/// An interactive session: holds at most one open transaction.
///
/// A statement is atomic inside a transaction too. One that fails after
/// it has written rolls the whole transaction back, and the session then
/// answers every statement with [`DbError::TxnClosed`] until `COMMIT`
/// (answered the same, ending the block) or `ROLLBACK`. One that fails
/// before writing leaves the transaction open.
pub struct Session {
    db: Arc<Database>,
    txn: Option<Transaction>,
    /// A failed statement rolled the open transaction back; its block
    /// has not ended yet.
    rolled_back: bool,
    pending_ops: Vec<WalOp>,
    query_timeout: Option<std::time::Duration>,
    /// Connection-scoped cancellation: when set, every statement's
    /// per-query token is a child of this one, so tripping it (peer went
    /// away, deadline, drain) cancels whatever the session is running.
    session_cancel: Option<CancellationToken>,
    active_cancel: parking_lot::Mutex<Option<CancellationToken>>,
    activity: SessionActivity,
    /// Counts this session among the database's open ones.
    _open: OpenSession,
}

impl Session {
    pub(crate) fn new(db: Arc<Database>) -> Session {
        Session {
            _open: db.open_session(),
            db,
            txn: None,
            rolled_back: false,
            pending_ops: Vec::new(),
            query_timeout: None,
            session_cancel: None,
            active_cancel: parking_lot::Mutex::new(None),
            activity: SessionActivity::default(),
        }
    }

    /// Whether a transaction block is open: `BEGIN` has not been ended by
    /// `COMMIT` or `ROLLBACK`, even if a failed statement rolled it back.
    pub fn in_transaction(&self) -> bool {
        self.txn.is_some() || self.rolled_back
    }

    /// Sets a per-statement timeout: a statement past its deadline
    /// terminates at the next batch boundary with
    /// [`DbError::DeadlineExceeded`]; a DML statement that has not begun to
    /// write by then writes nothing. `None` disables the timeout.
    pub fn set_query_timeout(&mut self, timeout: Option<std::time::Duration>) {
        self.query_timeout = timeout;
    }

    /// Installs (or clears) a connection-scoped cancellation token. Every
    /// subsequent statement checks it on entry and links its per-query
    /// token under it, so the connection owner can cancel in-flight work
    /// without a handle to the individual query.
    pub fn set_session_cancel(&mut self, token: Option<CancellationToken>) {
        self.session_cancel = token;
    }

    /// A shared view of the statement class currently executing (for
    /// class-aware drains; see [`SessionActivity`]).
    pub fn activity(&self) -> SessionActivity {
        self.activity.clone()
    }

    /// A handle to cancel the currently running statement (if any) from
    /// another thread. Each statement installs a fresh token, so grab this
    /// after the statement has started.
    pub fn cancel_token(&self) -> Option<CancellationToken> {
        self.active_cancel.lock().clone()
    }

    /// Executes one SQL statement through the database's plan cache: the
    /// text is lexed into its shape and its literals; the plan kept for the
    /// shape runs with them, or the statement is parsed and planned once
    /// for its shape, kept, and run (see [`crate::prepared`]).
    ///
    /// A statement longer than [`PLAN_CACHE_SHAPE_BYTES`] — a bulk `INSERT`
    /// — is not kept: it runs as [`Session::execute_statement`] runs it.
    pub fn execute(&mut self, sql: &str) -> Result<QueryResult> {
        if sql.len() > PLAN_CACHE_SHAPE_BYTES {
            return self.execute_statement(parse(sql)?, sql);
        }
        self.check_connection()?;
        let db = Arc::clone(&self.db);
        let Lexed {
            tokens,
            params,
            shape,
        } = lex(sql)?;
        let catalog = db.catalog_read();
        let generation = catalog.generation();
        if let Some(prepared) = db.plans().get(&shape, generation) {
            return self.run_prepared(&prepared, &params, catalog, sql);
        }
        match Prepared::new(parse_tokens(tokens, &params)?, &catalog)? {
            Some(prepared) => {
                let prepared = db.plans().insert(shape, generation, prepared);
                self.run_prepared(&prepared, &params, catalog, sql)
            }
            // Its plan would depend on its literals' values: plan them.
            None => {
                drop(catalog);
                self.execute_statement(parse(sql)?, sql)
            }
        }
    }

    /// Executes an already parsed statement of literals, as [`parse`]
    /// makes it (`sql` is kept for DDL logging): planned for itself alone,
    /// without the plan cache.
    pub fn execute_statement(&mut self, stmt: Statement, sql: &str) -> Result<QueryResult> {
        self.check_connection()?;
        let db = Arc::clone(&self.db);
        let catalog = db.catalog_read();
        let prepared = Prepared::new(stmt, &catalog)?.ok_or_else(|| {
            DbError::Plan("this statement binds by its literals' values: execute its text".into())
        })?;
        self.run_prepared(&prepared, &[], catalog, sql)
    }

    /// A tripped connection token rejects new statements immediately — the
    /// connection is dead, draining, or past its deadline.
    fn check_connection(&self) -> Result<()> {
        match &self.session_cancel {
            Some(conn) => conn.check(),
            None => Ok(()),
        }
    }

    /// Runs `prepared` with `params` in its slots. `catalog` is the guard it
    /// was found or planned under: a SELECT runs under it, a DML statement
    /// finds its table through it.
    fn run_prepared(
        &mut self,
        prepared: &Prepared,
        params: &[Value],
        catalog: RwLockReadGuard<'_, Catalog>,
        sql: &str,
    ) -> Result<QueryResult> {
        if self.rolled_back {
            self.rolled_back = !matches!(prepared, Prepared::Commit | Prepared::Rollback);
            return match prepared {
                Prepared::Rollback => Ok(QueryResult::Txn("ROLLBACK")),
                _ => Err(DbError::TxnClosed("a failed statement rolled the transaction back".into())),
            };
        }
        match prepared {
            Prepared::Select {
                plan,
                schema,
                point_schema,
                as_of,
                explain,
            } => {
                let plan = with_params(plan, params);
                if *explain {
                    return Ok(explain_rows(&plan));
                }
                self.execute_select(
                    &plan,
                    schema,
                    point_schema.as_ref(),
                    as_of.as_ref(),
                    params,
                    &catalog,
                )
            }
            Prepared::Begin => {
                if self.txn.is_some() {
                    return Err(DbError::InvalidArgument(
                        "transaction already open".into(),
                    ));
                }
                self.txn = Some(self.db.txn_manager().begin());
                self.pending_ops.clear();
                Ok(QueryResult::Txn("BEGIN"))
            }
            Prepared::Commit => {
                let txn = self
                    .txn
                    .take()
                    .ok_or_else(|| DbError::InvalidArgument("no open transaction".into()))?;
                let ops = std::mem::take(&mut self.pending_ops);
                self.db.commit_txn(&txn, ops)?;
                Ok(QueryResult::Txn("COMMIT"))
            }
            Prepared::Rollback => {
                let txn = self
                    .txn
                    .take()
                    .ok_or_else(|| DbError::InvalidArgument("no open transaction".into()))?;
                txn.abort()?;
                self.pending_ops.clear();
                Ok(QueryResult::Txn("ROLLBACK"))
            }
            Prepared::Ddl(stmt) => {
                drop(catalog);
                if self.txn.is_some() {
                    return Err(DbError::Unsupported(
                        "DDL inside an open transaction".into(),
                    ));
                }
                self.db.execute_ddl(stmt, sql)?;
                Ok(QueryResult::Ddl)
            }
            Prepared::Insert { table, .. }
            | Prepared::Update { table, .. }
            | Prepared::Delete { table, .. } => self.execute_dml(prepared, table, params, catalog),
        }
    }

    fn snapshot(&self) -> (oltap_txn::Ts, TxnId) {
        match &self.txn {
            Some(t) => (t.begin_ts(), t.id()),
            None => (self.db.txn_manager().now(), TxnId(u64::MAX - 8)),
        }
    }

    /// Runs a SELECT's plan; `schema` is its output schema, and
    /// `point_schema` its scan's when it is a point plan.
    fn execute_select(
        &self,
        plan: &LogicalPlan,
        schema: &SchemaRef,
        point_schema: Option<&SchemaRef>,
        as_of: Option<&AstExpr>,
        params: &[Value],
        catalog: &Catalog,
    ) -> Result<QueryResult> {
        let (read_ts, me) = match as_of {
            // Time travel: pin the snapshot to the requested timestamp.
            // The reader identity is an anonymous snapshot reader, so a
            // historical read inside an open transaction does not see that
            // transaction's own pending writes.
            Some(ts) => {
                let ts = as_of_timestamp(ts, params)? as oltap_txn::Ts;
                let floor = self.db.history_floor();
                if ts < floor {
                    return Err(DbError::InvalidArgument(format!(
                        "AS OF {ts} is below the history floor {floor}: \
                         maintenance already reclaimed versions at or \
                         before the floor"
                    )));
                }
                let now = self.db.txn_manager().now();
                if ts > now {
                    return Err(DbError::InvalidArgument(format!(
                        "AS OF {ts} is in the future (current ts {now})"
                    )));
                }
                (ts, TxnId(u64::MAX - 8))
            }
            None => self.snapshot(),
        };
        let batches = self.run(
            classify_plan(plan),
            (read_ts, me),
            |ctx| match point_schema {
                Some(scan_schema) => execute_point_plan(plan, scan_schema, catalog, ctx),
                None => execute_plan(plan, catalog, ctx),
            },
        )?;
        let rows: Vec<Row> = batches.iter().flat_map(|b| b.to_rows()).collect();
        Ok(QueryResult::Rows {
            schema: Arc::clone(schema),
            rows,
        })
    }

    /// Runs a fragment of a SELECT planned elsewhere — a distributed
    /// statement's `cut`, bound against a catalog with this one's tables —
    /// as a statement of this session: at its snapshot, under its admission
    /// ticket, budget and cancellation, stopping at a [`Partial`].
    pub fn execute_fragment(&self, cut: &LogicalPlan) -> Result<Partial> {
        let catalog = self.db.catalog_read();
        self.run(classify_plan(cut), self.snapshot(), |ctx| {
            execute_fragment(cut, &catalog, ctx)
        })
    }

    /// Runs `f` as the execution of a statement of `class` of this
    /// session's, reading at `(read_ts, me)`.
    fn run<T>(
        &self,
        class: WorkloadClass,
        (read_ts, me): (oltap_txn::Ts, TxnId),
        f: impl FnOnce(&ExecContext) -> Result<T>,
    ) -> Result<T> {
        // Per-query token: a child of the connection token when one is
        // installed, so peer loss / deadlines / drain cancel the query.
        let cancel = match (&self.session_cancel, self.query_timeout) {
            (Some(conn), t) => conn.child(t),
            (None, Some(t)) => CancellationToken::with_timeout(t),
            (None, None) => CancellationToken::new(),
        };
        let _running = Running::enter(self, class, cancel.clone());
        // Admission gate first (may queue the query), then the
        // per-query budget; the ticket is RAII and outlives execution.
        let _ticket = self.db.admit(class, &cancel)?;
        f(&ExecContext {
            read_ts,
            me,
            batch_size: BATCH_SIZE,
            cancel,
            mem: self.db.exec_resources(class)?,
            faults: Arc::clone(self.db.faults()),
        })
    }

    /// Runs a DML statement in the open transaction, or in a fresh
    /// auto-commit one, as a statement of this session: under its admission
    /// ticket, budget and cancellation, at the transaction's snapshot. An
    /// UPDATE or DELETE runs its plan under `catalog`, which is dropped
    /// before anything is written; every DML statement ends in the
    /// [`WriteSink`].
    fn execute_dml(
        &mut self,
        dml: &Prepared,
        table: &str,
        params: &[Value],
        catalog: RwLockReadGuard<'_, Catalog>,
    ) -> Result<QueryResult> {
        let handle = catalog.get(table)?;
        let own = self.txn.is_none().then(|| self.db.txn_manager().begin());
        let mut ops = Vec::new();
        let txn = own.as_ref().or(self.txn.as_ref()).expect("a transaction");
        // DML is transactional work by definition: drains see Oltp and
        // grant the grace period instead of cancelling immediately.
        let written = self.run(WorkloadClass::Oltp, (txn.begin_ts(), txn.id()), |ctx| {
            let mut sink = WriteSink::new(handle.schema());
            match dml {
                Prepared::Insert { targets, rows, .. } => {
                    for cells in rows {
                        let mut vals = vec![Value::Null; handle.schema().len()];
                        for (&t, cell) in targets.iter().zip(cells) {
                            vals[t] = literal_value(cell, params)?;
                        }
                        sink.insert(Row::new(vals));
                    }
                }
                Prepared::Update { rows, set, .. } => {
                    let set: Vec<_> = set.iter().map(|(c, e)| (*c, filled(e, params))).collect();
                    for batch in &execute_plan(&with_params(rows, params), &catalog, ctx)? {
                        sink.update(&set, batch)?;
                    }
                }
                Prepared::Delete { rows, .. } => {
                    for batch in &execute_plan(&with_params(rows, params), &catalog, ctx)? {
                        sink.delete(batch);
                    }
                }
                other => return Err(DbError::Unsupported(format!("not DML: {other:?}"))),
            }
            drop(catalog);
            // The last point the statement can stop at without having written.
            ctx.cancel.check()?;
            sink.apply(txn, &handle, table, &mut ops)
        });
        match (written, own) {
            (Ok(n), Some(txn)) => {
                self.db.commit_txn(&txn, ops)?;
                Ok(QueryResult::Affected(n))
            }
            (Ok(n), None) => {
                self.pending_ops.extend(ops);
                Ok(QueryResult::Affected(n))
            }
            (Err(e), Some(txn)) => {
                let _ = txn.abort();
                Err(e)
            }
            // What it wrote is in the transaction's write set, beside the
            // earlier statements' writes: only the whole can go.
            (Err(e), None) if !ops.is_empty() => {
                if let Some(txn) = self.txn.take() {
                    let _ = txn.abort();
                }
                self.pending_ops.clear();
                self.rolled_back = true;
                Err(e)
            }
            (Err(e), None) => Err(e),
        }
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        // An un-finalized transaction aborts implicitly (Transaction::drop).
        self.txn = None;
        self.pending_ops.clear();
    }
}

/// Classifies a bound plan for admission and memory accounting: plans
/// containing a pipeline breaker (aggregate, join, sort) are analytic;
/// streaming scan/filter/project/limit shapes — the OLTP read pattern —
/// are transactional.
pub(crate) fn classify_plan(plan: &LogicalPlan) -> WorkloadClass {
    match plan {
        LogicalPlan::Aggregate { .. } | LogicalPlan::Join { .. } | LogicalPlan::Sort { .. } => {
            WorkloadClass::Olap
        }
        LogicalPlan::Scan { .. } => WorkloadClass::Oltp,
        LogicalPlan::Filter { input, .. }
        | LogicalPlan::Project { input, .. }
        | LogicalPlan::Limit { input, .. } => classify_plan(input),
    }
}

/// `plan` with `params` in its slots: borrowed when there are none.
fn with_params<'p>(plan: &'p LogicalPlan, params: &[Value]) -> Cow<'p, LogicalPlan> {
    if params.is_empty() {
        return Cow::Borrowed(plan);
    }
    let mut plan = plan.clone();
    plan.fill(params);
    Cow::Owned(plan)
}

/// EXPLAIN's answer: the plan tree, one row per line.
fn explain_rows(plan: &LogicalPlan) -> QueryResult {
    let schema = Arc::new(oltap_common::Schema::new(vec![oltap_common::Field::new(
        "plan",
        oltap_common::DataType::Utf8,
    )]));
    let rows: Vec<Row> = plan
        .explain()
        .lines()
        .map(|l| Row::new(vec![Value::Str(l.to_string())]))
        .collect();
    QueryResult::Rows { schema, rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A SELECT that fails before it runs — in the binder here, in
    /// admission or under a deadline elsewhere — leaves no cancel token and
    /// no activity behind: both describe a query only while it executes.
    #[test]
    fn failed_select_leaves_no_cancel_token() {
        let db = Database::new();
        let mut s = db.session();
        let err = s.execute("SELECT x FROM no_such_table").unwrap_err();
        assert!(matches!(err, DbError::TableNotFound(_)), "{err}");
        assert!(s.cancel_token().is_none());
        assert!(s.activity().current().is_none());

        s.execute("CREATE TABLE t (id BIGINT PRIMARY KEY, v BIGINT)")
            .unwrap();
        s.set_query_timeout(Some(std::time::Duration::ZERO));
        let err = s.execute("SELECT SUM(v) FROM t").unwrap_err();
        assert!(matches!(err, DbError::DeadlineExceeded(_)), "{err}");
        assert!(s.cancel_token().is_none());
        assert!(s.activity().current().is_none());
    }

    /// A statement queued for an OLAP slot leaves the queue when its token
    /// trips, not when the queue times out: its deadline passing is
    /// `DeadlineExceeded`, its connection's cancel (a drain, a lost peer)
    /// `Cancelled` — each well before the 5 s queue timeout.
    #[test]
    fn a_queued_statement_is_shed_when_its_token_trips() {
        use oltap_sched::AdmissionConfig;
        use std::time::{Duration, Instant};
        let db = Database::with_config(crate::DbConfig {
            admission: Some(AdmissionConfig {
                max_olap: 1,
                ..AdmissionConfig::default()
            }),
            ..crate::DbConfig::default()
        })
        .unwrap();
        db.execute("CREATE TABLE t (id BIGINT PRIMARY KEY, v BIGINT)").unwrap();
        db.execute("INSERT INTO t VALUES (1, 10), (2, 20)").unwrap();
        let admission = db.admission().unwrap();
        let held = admission.admit(WorkloadClass::Olap).unwrap();

        let mut s = db.session();
        s.set_query_timeout(Some(Duration::from_millis(50)));
        let since = Instant::now();
        let err = s.execute("SELECT SUM(v) FROM t").unwrap_err();
        assert!(matches!(err, DbError::DeadlineExceeded(_)), "{err}");
        assert!(since.elapsed() < Duration::from_millis(500), "{:?}", since.elapsed());
        assert_eq!(admission.queue_depth(), 0);

        s.set_query_timeout(None);
        let connection = CancellationToken::new();
        s.set_session_cancel(Some(connection.clone()));
        let queued = std::thread::spawn(move || {
            let since = Instant::now();
            (s.execute("SELECT SUM(v) FROM t").map(drop), since.elapsed())
        });
        while admission.queue_depth() == 0 {
            std::thread::yield_now();
        }
        connection.cancel();
        let (got, waited) = queued.join().unwrap();
        assert!(matches!(got, Err(DbError::Cancelled(_))), "{got:?}");
        assert!(waited < Duration::from_secs(1), "{waited:?}");
        assert_eq!(admission.queue_depth(), 0);
        assert_eq!(admission.stats().olap_timeouts, 0);
        drop(held);
        assert_eq!(admission.running(), (0, 0));
        assert_eq!(db.query("SELECT SUM(v) FROM t").unwrap(), vec![oltap_common::row![30i64]]);
    }

    /// DML runs as a statement of its session: admitted as OLTP work and
    /// bounded by the query timeout. An UPDATE past its deadline fails
    /// before it writes, so it changes no row and leaves an open
    /// transaction open, and its admission ticket is handed back.
    #[test]
    fn dml_runs_under_the_statements_deadline_and_ticket() {
        use oltap_sched::AdmissionConfig;
        use std::time::Duration;
        let db = Database::with_config(crate::DbConfig {
            admission: Some(AdmissionConfig::default()),
            ..crate::DbConfig::default()
        })
        .unwrap();
        db.execute("CREATE TABLE t (id BIGINT PRIMARY KEY, v BIGINT)").unwrap();
        db.execute("INSERT INTO t VALUES (1, 10), (2, 20)").unwrap();
        let admission = db.admission().unwrap();
        let admitted = admission.stats().oltp_admitted;
        db.execute("UPDATE t SET v = v + 1 WHERE id = 1").unwrap();
        assert_eq!(admission.stats().oltp_admitted, admitted + 1);

        let mut s = db.session();
        s.set_query_timeout(Some(Duration::ZERO));
        for in_txn in [false, true] {
            if in_txn {
                s.set_query_timeout(None);
                s.execute("BEGIN").unwrap();
                s.set_query_timeout(Some(Duration::ZERO));
            }
            for sql in ["UPDATE t SET v = 0 WHERE id = 1", "UPDATE t SET v = 0", "DELETE FROM t"] {
                let err = s.execute(sql).unwrap_err();
                assert!(matches!(err, DbError::DeadlineExceeded(_)), "{sql}: {err}");
                assert_eq!(admission.running(), (0, 0), "{sql}");
                assert!(s.cancel_token().is_none() && s.activity().current().is_none());
            }
            assert_eq!(s.in_transaction(), in_txn);
        }
        s.set_query_timeout(None);
        assert_eq!(s.execute("UPDATE t SET v = v + 1 WHERE id = 2").unwrap().affected(), 1);
        s.execute("COMMIT").unwrap();
        assert_eq!(
            db.query("SELECT id, v FROM t ORDER BY id").unwrap(),
            vec![oltap_common::row![1i64, 11i64], oltap_common::row![2i64, 21i64]]
        );
    }

    /// DML finds its point-lookup key with the extractor SELECT's access
    /// path uses: `WHERE <full key>` touches one row whatever else the
    /// filter says, and shapes the extractor declines still work by scan.
    #[test]
    fn dml_point_filters_touch_exactly_the_keyed_row() {
        let db = Database::new();
        db.execute(
            "CREATE TABLE t (w BIGINT NOT NULL, d BIGINT NOT NULL, v BIGINT, PRIMARY KEY (w, d))",
        )
        .unwrap();
        db.execute("INSERT INTO t VALUES (1, 1, 10), (1, 2, 20), (2, 1, 30)")
            .unwrap();
        let affected = |sql: &str| db.execute(sql).unwrap().affected();
        assert_eq!(affected("UPDATE t SET v = 11 WHERE d = 1 AND w = 1"), 1);
        assert_eq!(
            affected("UPDATE t SET v = 0 WHERE w = 1 AND d = 1 AND v = 99"),
            0
        );
        assert_eq!(
            affected("UPDATE t SET v = 0 WHERE w = 1 AND d = 1 AND w = 2"),
            0
        );
        assert_eq!(
            affected("UPDATE t SET v = v + 1 WHERE w = 1 AND d = 2 AND v + 1 = 21"),
            1
        );
        // Declined by the extractor (cross-typed literal, partial key): scans.
        assert_eq!(affected("UPDATE t SET v = 31 WHERE w = 2.0 AND d = 1"), 1);
        assert_eq!(affected("DELETE FROM t WHERE w = 1"), 2);
        assert_eq!(
            db.query("SELECT w, d, v FROM t").unwrap(),
            vec![oltap_common::row![2i64, 1i64, 31i64]]
        );
    }
}
