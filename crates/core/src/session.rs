//! Sessions: statement execution with explicit or automatic transactions.

use crate::catalog::{Catalog, TableHandle};
use crate::database::{Database, OpenSession};
use crate::physical::{execute_fragment, execute_plan, ExecContext, Partial};
use crate::prepared::{filled, Prepared, Target, PLAN_CACHE_SHAPE_BYTES};
use oltap_common::ids::TxnId;
use oltap_common::mem::WorkloadClass;
use oltap_common::schema::SchemaRef;
use oltap_common::vector::BATCH_SIZE;
use oltap_common::{Batch, CancellationToken, DbError, Result, Row, Value};
use oltap_sql::ast::{AstExpr, Statement};
use oltap_sql::plan::{as_of_timestamp, literal_value};
use oltap_sql::{lex, parse, parse_tokens, Lexed, LogicalPlan};
use oltap_txn::wal::WalOp;
use oltap_txn::Transaction;
use parking_lot::RwLockReadGuard;
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

/// Marks a planned SELECT as running: its cancel token and workload class
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
pub struct Session {
    db: Arc<Database>,
    txn: Option<Transaction>,
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
            pending_ops: Vec::new(),
            query_timeout: None,
            session_cancel: None,
            active_cancel: parking_lot::Mutex::new(None),
            activity: SessionActivity::default(),
        }
    }

    /// Whether a transaction is open.
    pub fn in_transaction(&self) -> bool {
        self.txn.is_some()
    }

    /// Sets a per-statement timeout for SELECTs: a query past its deadline
    /// terminates at the next batch boundary with [`DbError::Cancelled`].
    /// `None` disables the timeout.
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

    /// A handle to cancel the currently running SELECT (if any) from
    /// another thread. Each SELECT installs a fresh token, so grab this
    /// after the query has started.
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
        match prepared {
            Prepared::Select {
                plan,
                schema,
                as_of,
                explain,
            } => {
                let filled;
                let plan = if params.is_empty() {
                    plan
                } else {
                    let mut p = plan.clone();
                    p.fill(params);
                    filled = p;
                    &filled
                };
                if *explain {
                    return Ok(explain_rows(plan));
                }
                self.execute_select(plan, schema, as_of.as_ref(), params, &catalog)
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
            | Prepared::Delete { table, .. } => {
                let handle = catalog.get(table)?;
                drop(catalog);
                self.execute_dml(prepared, &handle, params)
            }
        }
    }

    fn snapshot(&self) -> (oltap_txn::Ts, TxnId) {
        match &self.txn {
            Some(t) => (t.begin_ts(), t.id()),
            None => (self.db.txn_manager().now(), TxnId(u64::MAX - 8)),
        }
    }

    fn execute_select(
        &self,
        plan: &LogicalPlan,
        schema: &SchemaRef,
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
        let batches = self.run(plan, (read_ts, me), |ctx| execute_plan(plan, catalog, ctx))?;
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
        self.run(cut, self.snapshot(), |ctx| execute_fragment(cut, &catalog, ctx))
    }

    /// Runs `f` as the execution of `plan`, a SELECT of this session's.
    fn run<T>(
        &self,
        plan: &LogicalPlan,
        (read_ts, me): (oltap_txn::Ts, TxnId),
        f: impl FnOnce(&ExecContext) -> Result<T>,
    ) -> Result<T> {
        let class = classify_plan(plan);
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

    /// Runs DML in the open transaction, or in a fresh auto-commit one.
    fn execute_dml(
        &mut self,
        dml: &Prepared,
        handle: &TableHandle,
        params: &[Value],
    ) -> Result<QueryResult> {
        // DML is transactional work by definition: drains see Oltp and
        // grant the grace period instead of cancelling immediately.
        self.activity.set(Some(WorkloadClass::Oltp));
        let out = self.execute_dml_inner(dml, handle, params);
        self.activity.set(None);
        out
    }

    fn execute_dml_inner(
        &mut self,
        dml: &Prepared,
        handle: &TableHandle,
        params: &[Value],
    ) -> Result<QueryResult> {
        if let Some(txn) = &self.txn {
            let (n, ops) = self.apply_dml(txn, dml, handle, params)?;
            self.pending_ops.extend(ops);
            Ok(QueryResult::Affected(n))
        } else {
            let txn = self.db.txn_manager().begin();
            match self.apply_dml(&txn, dml, handle, params) {
                Ok((n, ops)) => {
                    self.db.commit_txn(&txn, ops)?;
                    Ok(QueryResult::Affected(n))
                }
                Err(e) => {
                    let _ = txn.abort();
                    Err(e)
                }
            }
        }
    }

    /// Applies a DML statement under `txn`; returns (affected, redo ops).
    fn apply_dml(
        &self,
        txn: &Transaction,
        dml: &Prepared,
        handle: &TableHandle,
        params: &[Value],
    ) -> Result<(usize, Vec<WalOp>)> {
        match dml {
            Prepared::Insert {
                table,
                width,
                targets,
                rows,
            } => {
                // Every row is built before any is written: a value that
                // fails leaves no row behind.
                let rows = rows
                    .iter()
                    .map(|cells| {
                        let mut vals = vec![Value::Null; *width];
                        for (&t, cell) in targets.iter().zip(cells) {
                            vals[t] = literal_value(cell, params)?;
                        }
                        Ok(Row::new(vals))
                    })
                    .collect::<Result<Vec<_>>>()?;
                let mut ops = Vec::with_capacity(rows.len());
                for row in rows {
                    handle.insert(txn, row.clone())?;
                    ops.push(WalOp::Insert {
                        table: table.clone(),
                        row,
                    });
                }
                Ok((ops.len(), ops))
            }
            Prepared::Update {
                table,
                schema,
                set,
                target,
            } => {
                let targets = self.matching_rows(txn, handle, schema, target, params)?;
                // Every SET expression reads the old rows, and is evaluated
                // over all of them before any is written: a division by
                // zero or a mistyped value fails the statement with no row
                // changed.
                let mut new_rows = targets.clone();
                if !targets.is_empty() {
                    let old = Batch::from_rows(schema, &targets)?;
                    for (i, e) in set {
                        let col = filled(e, params).eval_batch(&old)?;
                        for (r, new) in new_rows.iter_mut().enumerate() {
                            let v = col.value_at(r);
                            v.check_type(schema.field(*i).data_type)?;
                            new.values_mut()[*i] = v;
                        }
                    }
                }
                let mut ops = Vec::with_capacity(targets.len());
                let pk_cols = schema.primary_key();
                for (old, new) in targets.into_iter().zip(new_rows) {
                    let old_key = schema.key_of(&old);
                    let pk_changed = pk_cols
                        .iter()
                        .any(|&i| old.values()[i] != new.values()[i]);
                    if pk_changed {
                        handle.delete(txn, &old_key)?;
                        handle.insert(txn, new.clone())?;
                        ops.push(WalOp::Delete {
                            table: table.clone(),
                            key: old_key,
                        });
                        ops.push(WalOp::Insert {
                            table: table.clone(),
                            row: new,
                        });
                    } else {
                        handle.update(txn, &old_key, new.clone())?;
                        ops.push(WalOp::Update {
                            table: table.clone(),
                            key: old_key,
                            row: new,
                        });
                    }
                }
                Ok((ops.len(), ops))
            }
            Prepared::Delete {
                table,
                schema,
                target,
            } => {
                let targets = self.matching_rows(txn, handle, schema, target, params)?;
                let mut ops = Vec::with_capacity(targets.len());
                for row in &targets {
                    let key = schema.key_of(row);
                    handle.delete(txn, &key)?;
                    ops.push(WalOp::Delete {
                        table: table.clone(),
                        key,
                    });
                }
                Ok((targets.len(), ops))
            }
            other => Err(DbError::Unsupported(format!("not DML: {other:?}"))),
        }
    }

    /// Materializes the rows a DML statement targets, at the transaction's
    /// snapshot (its own writes included). The filter is lowered as a
    /// SELECT's is: the conjuncts storage evaluates are pushed into the
    /// access — a point lookup when they pin every primary-key column with
    /// equality (the OLTP shape: `WHERE pk = ...`, found by the extractor a
    /// SELECT's access path is chosen with,
    /// [`oltap_storage::ScanPredicate::pk_point`]), a
    /// scan otherwise — and the residual conjuncts filter what it returns.
    fn matching_rows(
        &self,
        txn: &Transaction,
        handle: &TableHandle,
        schema: &oltap_common::Schema,
        target: &Target,
        params: &[Value],
    ) -> Result<Vec<Row>> {
        let (pushed, residual) = target.fill(params);
        let (read_ts, me) = (txn.begin_ts(), txn.id());
        let batches = match pushed.pk_point(schema) {
            // The key only nominates a row: the whole pushdown is
            // re-checked against it.
            Some(key) => match handle.get(&key, read_ts, me)? {
                Some(row) if pushed.matches_row(&row) => {
                    if residual.is_none() {
                        return Ok(vec![row]);
                    }
                    vec![Batch::from_rows(schema, &[row])?]
                }
                _ => return Ok(Vec::new()),
            },
            None => {
                let all: Vec<usize> = (0..schema.len()).collect();
                handle.scan(&all, &pushed, read_ts, me, BATCH_SIZE)?
            }
        };
        let mut out = Vec::new();
        for b in &batches {
            match &residual {
                None => out.extend(b.to_rows()),
                Some(p) => out.extend(p.filter(b)?.into_iter().map(|i| b.row(i as usize))),
            }
        }
        Ok(out)
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
