//! Statements planned once: what a session runs, and the per-database
//! cache that keeps them by shape (DESIGN.md § "Plan cache").
//!
//! Every statement a [`Session`](crate::Session) runs is a `Prepared`.
//! [`Session::execute`](crate::Session::execute) lexes the text into its
//! shape and its lifted literals ([`oltap_sql::lex`]), finds the shape's
//! plan in the `PlanCache` or parses and plans it once, and runs it with
//! the literals filling its parameter slots;
//! [`Session::execute_statement`](crate::Session::execute_statement)
//! plans an already parsed statement of literals the same way and runs it
//! without consulting the cache — the degenerate case, with no slots.

use crate::catalog::Catalog;
use oltap_common::hash::FxHashMap;
use oltap_common::schema::SchemaRef;
use oltap_common::{DbError, Result, Value};
use oltap_exec::Expr;
use oltap_sql::ast::{AstExpr, SelectStmt, Statement};
use oltap_sql::plan::{bind_scalar, binds_by_value, fill_expr};
use oltap_sql::{bind_select, optimize_shape, AccessPath, CatalogView, LogicalPlan};
use parking_lot::RwLock;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Most statement shapes a database keeps planned. A constant, not a
/// setting: a shape costs a few hundred bytes to a few KiB and an
/// application issues tens of them, so the bound exists to keep memory
/// bounded against a client that never repeats a shape, not to be tuned.
pub const PLAN_CACHE_SHAPES: usize = 1024;

/// Longest statement kept, in bytes of its text and of its shape
/// ([`oltap_sql::Lexed::shape`]): a statement past it — a bulk `INSERT` of
/// hundreds of rows — is planned each time, which costs it little beside
/// its rows and keeps every entry small.
pub const PLAN_CACHE_SHAPE_BYTES: usize = 4096;

/// A statement planned for every statement of its shape: its literals are
/// parameter slots, filled from each statement's own values when it runs.
#[derive(Debug)]
pub(crate) enum Prepared {
    /// SELECT (or EXPLAIN of one): the optimized plan, access path and
    /// pushdown included, and its output schema.
    Select {
        /// The plan, with slots.
        plan: LogicalPlan,
        /// Its output schema.
        schema: SchemaRef,
        /// The output schema of its scan when it reads one row by key (a
        /// point plan), which the lowering takes rather than projecting the
        /// table's fields every statement.
        point_schema: Option<SchemaRef>,
        /// `AS OF` timestamp, a literal or a slot.
        as_of: Option<AstExpr>,
        /// EXPLAIN: render the filled plan instead of running it.
        explain: bool,
    },
    /// INSERT: a row template.
    Insert {
        /// Table name.
        table: String,
        /// The column each value of a row fills.
        targets: Vec<usize>,
        /// Each row's values: literals and slots, evaluated when the row is
        /// built (and type-checked when it is inserted).
        rows: Vec<Vec<AstExpr>>,
    },
    /// UPDATE: the rows it changes and what each becomes.
    Update {
        /// Table name.
        table: String,
        /// The plan that finds the rows it changes: the `SELECT *` its
        /// WHERE implies ([`SelectStmt::rows_of`]) less its projection, with
        /// slots.
        rows: LogicalPlan,
        /// (column, new value over the old row).
        set: Vec<(usize, Expr)>,
    },
    /// DELETE: the rows it removes.
    Delete {
        /// Table name.
        table: String,
        /// The plan that finds the rows it removes, as UPDATE's.
        rows: LogicalPlan,
    },
    /// BEGIN.
    Begin,
    /// COMMIT.
    Commit,
    /// ROLLBACK.
    Rollback,
    /// CREATE / DROP TABLE: applied from the statement, never kept.
    Ddl(Statement),
}

/// `e` with its slots filled from `params`.
pub(crate) fn filled(e: &Expr, params: &[Value]) -> Expr {
    let mut e = e.clone();
    fill_expr(&mut e, params);
    e
}

impl Prepared {
    /// Plans `stmt` against `catalog`. `None` for a statement whose plan
    /// would depend on its parameters' values — a SELECT that binds by them
    /// ([`binds_by_value`]), or a SELECT, UPDATE or DELETE whose filter
    /// folds them ([`optimize_shape`]) — which must be planned from its
    /// literals instead. A statement that fails to plan is an error, and
    /// nothing is kept.
    pub(crate) fn new(stmt: Statement, catalog: &Catalog) -> Result<Option<Prepared>> {
        Ok(Some(match stmt {
            Statement::Select(sel) => return Prepared::select(*sel, catalog, false),
            Statement::Explain(sel) => return Prepared::select(*sel, catalog, true),
            Statement::Insert {
                table,
                columns,
                rows,
            } => {
                let schema = catalog.table_schema(&table)?;
                let targets = match &columns {
                    None => (0..schema.len()).collect(),
                    Some(cols) => cols
                        .iter()
                        .map(|c| schema.index_of(c))
                        .collect::<Result<Vec<_>>>()?,
                };
                if let Some(row) = rows.iter().find(|r| r.len() != targets.len()) {
                    return Err(DbError::InvalidArgument(match columns {
                        None => format!(
                            "INSERT has {} values, table has {} columns",
                            row.len(),
                            schema.len()
                        ),
                        Some(_) => "INSERT column/value count mismatch".into(),
                    }));
                }
                Prepared::Insert {
                    table,
                    targets,
                    rows,
                }
            }
            Statement::Update { table, set, filter } => {
                let schema = keyed_schema(catalog, &table, "UPDATE")?;
                let set = set
                    .iter()
                    .map(|(c, e)| {
                        let e = bind_scalar(e, &schema)?;
                        Ok((schema.index_of(c)?, e))
                    })
                    .collect::<Result<Vec<_>>>()?;
                let Some(rows) = rows_of(&table, filter, catalog)? else {
                    return Ok(None);
                };
                Prepared::Update { table, rows, set }
            }
            Statement::Delete { table, filter } => {
                keyed_schema(catalog, &table, "DELETE")?;
                let Some(rows) = rows_of(&table, filter, catalog)? else {
                    return Ok(None);
                };
                Prepared::Delete { table, rows }
            }
            Statement::Begin => Prepared::Begin,
            Statement::Commit => Prepared::Commit,
            Statement::Rollback => Prepared::Rollback,
            ddl @ (Statement::CreateTable { .. } | Statement::DropTable { .. }) => {
                Prepared::Ddl(ddl)
            }
        }))
    }

    fn select(sel: SelectStmt, catalog: &Catalog, explain: bool) -> Result<Option<Prepared>> {
        if binds_by_value(&sel) {
            return Ok(None);
        }
        let Some(plan) = optimize_shape(bind_select(&sel, catalog)?)? else {
            return Ok(None);
        };
        Ok(Some(Prepared::Select {
            schema: plan.output_schema()?,
            point_schema: point_scan(&plan)
                .map(LogicalPlan::output_schema)
                .transpose()?,
            plan,
            as_of: sel.as_of,
            explain,
        }))
    }
}

/// The one scan of `plan` when it reads a row by key under streaming
/// operators only: a point plan's.
fn point_scan(plan: &LogicalPlan) -> Option<&LogicalPlan> {
    match plan {
        LogicalPlan::Scan {
            access: AccessPath::PkPoint { .. },
            ..
        } => Some(plan),
        LogicalPlan::Project { input, .. }
        | LogicalPlan::Filter { input, .. }
        | LogicalPlan::Sort { input, .. }
        | LogicalPlan::Limit { input, .. } => point_scan(input),
        _ => None,
    }
}

/// The plan of `SELECT * FROM table [WHERE filter]`, the rows an UPDATE or
/// DELETE changes, planned as that SELECT is: the same access path, zone
/// maps and pushdown. `None` where [`optimize_shape`] declines the shape.
fn rows_of(table: &str, filter: Option<AstExpr>, catalog: &Catalog) -> Result<Option<LogicalPlan>> {
    let plan = optimize_shape(bind_select(&SelectStmt::rows_of(table, filter), catalog)?)?;
    Ok(plan.map(|plan| match plan {
        // `*` is every column in table order, as the scan below it reads
        // them: the write sink takes the scan's (or its filter's) batches.
        LogicalPlan::Project { input, .. } => *input,
        other => other,
    }))
}

/// The schema of `table`, which `verb` needs a primary key of.
fn keyed_schema(catalog: &Catalog, table: &str, verb: &str) -> Result<SchemaRef> {
    let schema = catalog.table_schema(table)?;
    if !schema.has_primary_key() {
        return Err(DbError::Unsupported(format!(
            "{verb} on table without primary key"
        )));
    }
    Ok(schema)
}

/// The plans a database keeps, by statement shape, each with the catalog
/// generation it was planned at: a plan from an older generation is a miss
/// (and counted as an invalidation), so no DDL leaves a stale ordinal.
#[derive(Debug, Default)]
pub(crate) struct PlanCache {
    plans: RwLock<FxHashMap<String, (u64, Arc<Prepared>)>>,
    hits: AtomicU64,
    misses: AtomicU64,
    invalidations: AtomicU64,
}

impl PlanCache {
    /// The plan kept for `shape`, if it was planned at `generation`.
    pub(crate) fn get(&self, shape: &str, generation: u64) -> Option<Arc<Prepared>> {
        let found = self.plans.read().get(shape).cloned();
        match found {
            Some((g, prepared)) if g == generation => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Some(prepared);
            }
            Some(_) => {
                self.invalidations.fetch_add(1, Ordering::Relaxed);
            }
            None => {}
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Keeps `prepared`, planned at `generation`, for `shape` — unless it
    /// is DDL or the shape is too long — and hands it back. A full cache
    /// drops one plan of its choosing (a stale plan is replaced when its
    /// shape is planned again, or dropped like any other).
    pub(crate) fn insert(&self, shape: String, generation: u64, prepared: Prepared) -> Arc<Prepared> {
        let prepared = Arc::new(prepared);
        if matches!(*prepared, Prepared::Ddl(_)) || shape.len() > PLAN_CACHE_SHAPE_BYTES {
            return prepared;
        }
        let mut plans = self.plans.write();
        if plans.len() >= PLAN_CACHE_SHAPES && !plans.contains_key(&shape) {
            if let Some(victim) = plans.keys().next().cloned() {
                plans.remove(&victim);
            }
        }
        plans.insert(shape, (generation, Arc::clone(&prepared)));
        prepared
    }

    /// (hits, misses, invalidations, shapes held).
    pub(crate) fn counters(&self) -> (u64, u64, u64, usize) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
            self.invalidations.load(Ordering::Relaxed),
            self.plans.read().len(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Database;
    use oltap_sql::{lex, AccessPath};

    /// Runs `sql` (it changes `affected` rows) and returns the access path
    /// of the scan in the UPDATE plan kept for its shape.
    fn kept_access(db: &Arc<Database>, sql: &str, affected: usize) -> AccessPath {
        assert_eq!(db.execute(sql).unwrap().affected(), affected, "{sql}");
        let generation = db.catalog_read().generation();
        let kept = db.plans().get(&lex(sql).unwrap().shape, generation);
        let Some(Prepared::Update { rows, .. }) = kept.as_deref() else {
            panic!("no UPDATE plan kept for {sql}: {kept:?}");
        };
        let mut plan = rows;
        loop {
            match plan {
                LogicalPlan::Scan { access, .. } => return access.clone(),
                LogicalPlan::Filter { input, .. } => plan = input,
                other => panic!("{sql}: not a scan's plan: {other:?}"),
            }
        }
    }

    /// The benchmark's four UPDATE shapes — Payment's customer, warehouse
    /// and district updates, NewOrder's stock update — pin their tables'
    /// whole (composite) keys, and their kept plans reach the row by key.
    /// A filter on part of a key, or a key compared with a literal of
    /// another type, scans.
    #[test]
    fn the_benchmarks_updates_keep_point_plans() {
        let db = Database::new();
        for ddl in [
            "CREATE TABLE warehouse (w_id BIGINT NOT NULL, w_name TEXT, w_tax DOUBLE, \
             w_ytd DOUBLE, PRIMARY KEY (w_id)) USING FORMAT COLUMN",
            "CREATE TABLE district (d_w_id BIGINT NOT NULL, d_id BIGINT NOT NULL, \
             d_name TEXT, d_tax DOUBLE, d_ytd DOUBLE, d_next_o_id BIGINT, \
             PRIMARY KEY (d_w_id, d_id)) USING FORMAT COLUMN",
            "CREATE TABLE customer (c_w_id BIGINT NOT NULL, c_d_id BIGINT NOT NULL, \
             c_id BIGINT NOT NULL, c_name TEXT, c_state TEXT, c_balance DOUBLE, \
             c_ytd_payment DOUBLE, c_payment_cnt BIGINT, \
             PRIMARY KEY (c_w_id, c_d_id, c_id)) USING FORMAT COLUMN",
            "CREATE TABLE stock (s_w_id BIGINT NOT NULL, s_i_id BIGINT NOT NULL, \
             s_quantity BIGINT, s_ytd BIGINT, s_order_cnt BIGINT, \
             PRIMARY KEY (s_w_id, s_i_id)) USING FORMAT COLUMN",
            "INSERT INTO warehouse VALUES (1, 'w', 0.1, 0.0)",
            "INSERT INTO district VALUES (1, 2, 'd', 0.1, 0.0, 1), (1, 3, 'd', 0.1, 0.0, 1)",
            "INSERT INTO customer VALUES (1, 2, 3, 'c', 'CA', 0.0, 0.0, 0)",
            "INSERT INTO stock VALUES (1, 7, 50, 0, 0)",
        ] {
            db.execute(ddl).unwrap();
        }
        let point = [
            "UPDATE customer SET c_balance = c_balance - 12.5, \
             c_ytd_payment = c_ytd_payment + 12.5, c_payment_cnt = c_payment_cnt + 1 \
             WHERE c_w_id = 1 AND c_d_id = 2 AND c_id = 3",
            "UPDATE warehouse SET w_ytd = w_ytd + 12.5 WHERE w_id = 1",
            "UPDATE district SET d_ytd = d_ytd + 12.5 WHERE d_w_id = 1 AND d_id = 2",
            "UPDATE stock SET s_quantity = s_quantity - 5, s_ytd = s_ytd + 5, \
             s_order_cnt = s_order_cnt + 1 WHERE s_w_id = 1 AND s_i_id = 7",
        ];
        for sql in point {
            let access = kept_access(&db, sql, 1);
            assert!(matches!(access, AccessPath::PkPoint { .. }), "{sql}: {access:?}");
        }
        for (sql, affected) in [
            ("UPDATE district SET d_ytd = 0.0 WHERE d_w_id = 1", 2),
            ("UPDATE warehouse SET w_ytd = 0.0 WHERE w_id = 1.0", 1),
        ] {
            assert_eq!(kept_access(&db, sql, affected), AccessPath::FullScan, "{sql}");
        }
    }
}
