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
use oltap_common::{DbError, Result, Schema, Value};
use oltap_exec::Expr;
use oltap_sql::ast::{AstExpr, SelectStmt, Statement};
use oltap_sql::optimizer::split_pushdown;
use oltap_sql::plan::{bind_scalar, binds_by_value, fill_expr, ParamSlot};
use oltap_sql::{bind_select, optimize_shape, CatalogView, LogicalPlan};
use oltap_storage::ScanPredicate;
use parking_lot::RwLock;
use std::borrow::Cow;
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
        /// `AS OF` timestamp, a literal or a slot.
        as_of: Option<AstExpr>,
        /// EXPLAIN: render the filled plan instead of running it.
        explain: bool,
    },
    /// INSERT: a row template.
    Insert {
        /// Table name.
        table: String,
        /// The table's width.
        width: usize,
        /// The column each value of a row fills.
        targets: Vec<usize>,
        /// Each row's values: literals and slots, evaluated when the row is
        /// built (and type-checked when it is inserted).
        rows: Vec<Vec<AstExpr>>,
    },
    /// UPDATE: bound SET expressions and the rows they change.
    Update {
        /// Table name.
        table: String,
        /// The schema the ordinals refer to.
        schema: SchemaRef,
        /// (column, new value over the old row).
        set: Vec<(usize, Expr)>,
        /// The rows the WHERE selects.
        target: Target,
    },
    /// DELETE: the rows it removes.
    Delete {
        /// Table name.
        table: String,
        /// The schema the ordinals refer to.
        schema: SchemaRef,
        /// The rows the WHERE selects.
        target: Target,
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

/// The rows an UPDATE or DELETE reaches: its WHERE split as a SELECT's
/// scan splits it — conjuncts storage evaluates (a point lookup when they
/// pin the whole primary key, found from the filled values by
/// [`ScanPredicate::pk_point`]) and a residual filter.
#[derive(Debug)]
pub(crate) struct Target {
    pushdown: ScanPredicate,
    slots: Vec<ParamSlot>,
    residual: Option<Expr>,
}

impl Target {
    fn new(filter: Option<&AstExpr>, schema: &Schema) -> Result<Target> {
        let all: Vec<usize> = (0..schema.len()).collect();
        let split = match filter {
            Some(f) => split_pushdown(&bind_scalar(f, schema)?, &all, schema),
            None => Default::default(),
        };
        Ok(Target {
            pushdown: ScanPredicate {
                conjuncts: split.pushed,
                join: None,
            },
            slots: split.slots,
            residual: split.residual.into_iter().reduce(Expr::and),
        })
    }

    /// The pushdown and the residual filter, filled from `params` (every
    /// literal of the statement, so one for each slot).
    pub(crate) fn fill(&self, params: &[Value]) -> (Cow<'_, ScanPredicate>, Option<Expr>) {
        let mut pushdown = Cow::Borrowed(&self.pushdown);
        for s in &self.slots {
            pushdown.to_mut().conjuncts[s.conjunct].value = params[s.param].clone();
        }
        let residual = self.residual.as_ref().map(|r| filled(r, params));
        (pushdown, residual)
    }
}

/// `e` with its slots filled from `params`.
pub(crate) fn filled(e: &Expr, params: &[Value]) -> Expr {
    let mut e = e.clone();
    fill_expr(&mut e, params);
    e
}

impl Prepared {
    /// Plans `stmt` against `catalog`. `None` for a SELECT whose plan
    /// would depend on its parameters' values — it binds by them
    /// ([`binds_by_value`]) or folds them ([`optimize_shape`]) — which must
    /// be planned from its literals instead. A statement that fails to plan
    /// is an error, and nothing is kept.
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
                    width: schema.len(),
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
                let target = Target::new(filter.as_ref(), &schema)?;
                Prepared::Update {
                    table,
                    schema,
                    set,
                    target,
                }
            }
            Statement::Delete { table, filter } => {
                let schema = keyed_schema(catalog, &table, "DELETE")?;
                let target = Target::new(filter.as_ref(), &schema)?;
                Prepared::Delete {
                    table,
                    schema,
                    target,
                }
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
            plan,
            as_of: sel.as_of,
            explain,
        }))
    }
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
