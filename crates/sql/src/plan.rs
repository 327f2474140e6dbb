//! Binding and logical planning: turns a parsed [`SelectStmt`] into a
//! typed [`LogicalPlan`] over executor expressions with resolved column
//! ordinals.

use crate::ast::*;
use oltap_common::schema::SchemaRef;
use oltap_common::{DbError, Field, Result, Row, Schema, Value};
use oltap_exec::aggregate::{AggExpr, AggFunc};
use oltap_exec::expr::{Expr, UnOp};
use oltap_exec::join::JoinType;
use oltap_exec::sort::SortKey;
use oltap_storage::ScanPredicate;
use std::sync::Arc;

/// Read-only catalog access the binder needs.
pub trait CatalogView {
    /// Schema of the named table.
    fn table_schema(&self, name: &str) -> Result<SchemaRef>;
}

/// Marks a scan as the probe side of a sideways-information-passing
/// equi-join: the physical planner builds the join's hash table first,
/// derives a `JoinFilter` from it, and attaches it to this scan's
/// pushdown before lowering.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SipScan {
    /// Identifier linking this scan to its `Join { sip: Some(id), .. }`.
    pub join_id: u32,
    /// Table ordinals of the probe key columns, positionally matching the
    /// join's build keys.
    pub key_columns: Vec<usize>,
}

/// How a scan node reaches its rows. A property of the plan, chosen by the
/// optimizer from what the pushdown pins — never from a setting — and the
/// seam a secondary-index path would plug into.
#[derive(Debug, Clone, Default, PartialEq)]
pub enum AccessPath {
    /// Read the table through its scan (zone maps, compressed-domain
    /// predicates), filtering by the pushdown.
    #[default]
    FullScan,
    /// The pushdown pins every primary-key column with `=`
    /// ([`ScanPredicate::pk_point`]): fetch `key` through the key index and
    /// re-check the whole pushdown against the one row found.
    PkPoint {
        /// The pinned key, in key-column order.
        key: Row,
    },
}

impl AccessPath {
    /// The access path for a scan of `table_schema` filtered by `pushdown`.
    pub fn choose(pushdown: &ScanPredicate, table_schema: &Schema) -> AccessPath {
        match pushdown.pk_point(table_schema) {
            Some(key) => AccessPath::PkPoint { key },
            None => AccessPath::FullScan,
        }
    }
}

/// A pushdown conjunct whose value is a statement parameter: filled by
/// [`LogicalPlan::fill`] before the plan runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParamSlot {
    /// Index into the scan's `pushdown.conjuncts`.
    pub conjunct: usize,
    /// Index into the statement's parameters.
    pub param: usize,
}

/// A bound logical plan node.
#[derive(Debug, Clone)]
pub enum LogicalPlan {
    /// Base table scan.
    Scan {
        /// Table name.
        table: String,
        /// The table's full schema.
        table_schema: SchemaRef,
        /// Ordinals (into `table_schema`) this scan produces, in order.
        projection: Vec<usize>,
        /// Conjuncts pushed into the storage layer (ordinals refer to
        /// `table_schema`, not `projection`).
        pushdown: ScanPredicate,
        /// Sideways join-filter mark set by the optimizer.
        sip: Option<SipScan>,
        /// How the rows are reached, set by the optimizer with the
        /// pushdown.
        access: AccessPath,
        /// The pushdown conjuncts whose value is a statement parameter
        /// (empty in a plan of literals).
        slots: Vec<ParamSlot>,
    },
    /// Row filter (ordinals refer to the input's output).
    Filter {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Boolean predicate.
        predicate: Expr,
    },
    /// Column computation / reordering.
    Project {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// (expression, output name) pairs.
        exprs: Vec<(Expr, String)>,
    },
    /// Hash aggregation.
    Aggregate {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Group-by expressions with output names.
        group: Vec<(Expr, String)>,
        /// Aggregates.
        aggs: Vec<AggExpr>,
    },
    /// Hash equi-join; output = left columns then right columns.
    Join {
        /// Left (probe) input.
        left: Box<LogicalPlan>,
        /// Right (build) input.
        right: Box<LogicalPlan>,
        /// Left key expressions.
        left_keys: Vec<Expr>,
        /// Right key expressions (ordinals refer to the right input).
        right_keys: Vec<Expr>,
        /// Inner or left outer.
        join_type: JoinType,
        /// When set, a probe-side scan carries the matching [`SipScan`]
        /// mark and receives this join's build-side filter.
        sip: Option<u32>,
    },
    /// Sort.
    Sort {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Sort keys.
        keys: Vec<SortKey>,
    },
    /// Limit/offset.
    Limit {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Rows to skip.
        offset: usize,
        /// Max rows to produce.
        limit: usize,
    },
}

impl LogicalPlan {
    /// The plan node's output schema.
    pub fn output_schema(&self) -> Result<SchemaRef> {
        Ok(match self {
            LogicalPlan::Scan {
                table_schema,
                projection,
                ..
            } => Arc::new(table_schema.project(projection)),
            LogicalPlan::Filter { input, .. } | LogicalPlan::Limit { input, .. } => {
                input.output_schema()?
            }
            LogicalPlan::Sort { input, .. } => input.output_schema()?,
            LogicalPlan::Project { input, exprs } => {
                let in_schema = input.output_schema()?;
                let fields = exprs
                    .iter()
                    .map(|(e, n)| Ok(Field::new(n.clone(), e.data_type(&in_schema)?)))
                    .collect::<Result<Vec<_>>>()?;
                Arc::new(Schema::new(fields))
            }
            LogicalPlan::Aggregate { input, group, aggs } => {
                let in_schema = input.output_schema()?;
                let mut fields = Vec::new();
                for (e, n) in group {
                    fields.push(Field::new(n.clone(), e.data_type(&in_schema)?));
                }
                for a in aggs {
                    let t = match a.func {
                        AggFunc::CountStar | AggFunc::Count => oltap_common::DataType::Int64,
                        AggFunc::Avg => oltap_common::DataType::Float64,
                        _ => a
                            .input
                            .as_ref()
                            .ok_or_else(|| DbError::Plan("aggregate without input".into()))?
                            .data_type(&in_schema)?,
                    };
                    fields.push(Field::new(a.label.clone(), t));
                }
                Arc::new(Schema::new(fields))
            }
            LogicalPlan::Join { left, right, .. } => {
                let ls = left.output_schema()?;
                let rs = right.output_schema()?;
                let mut fields = ls.fields().to_vec();
                fields.extend(rs.fields().iter().cloned());
                for i in 0..fields.len() {
                    if fields[..i].iter().any(|f| f.name == fields[i].name) {
                        fields[i].name = format!("{}#{}", fields[i].name, i);
                    }
                }
                Arc::new(Schema::new(fields))
            }
        })
    }

    /// Fills every parameter slot with its value from `params`: each
    /// [`Expr::Param`] becomes a literal ([`fill_expr`]), each pushdown
    /// [`ParamSlot`] gets its value, and a scan's access path is chosen
    /// again from the filled pushdown (the parameters' types, fixed by the
    /// shape, decide *which* path; their values are the key). `params`
    /// holds every literal the statement's text was lexed with, so it has
    /// a value for each slot.
    pub fn fill(&mut self, params: &[Value]) {
        match self {
            LogicalPlan::Scan {
                table_schema,
                pushdown,
                access,
                slots,
                ..
            } => {
                for s in slots.iter() {
                    pushdown.conjuncts[s.conjunct].value = params[s.param].clone();
                }
                if !slots.is_empty() {
                    *access = AccessPath::choose(pushdown, table_schema);
                }
            }
            LogicalPlan::Filter { input, predicate } => {
                fill_expr(predicate, params);
                input.fill(params);
            }
            LogicalPlan::Project { input, exprs } => {
                exprs.iter_mut().for_each(|(e, _)| fill_expr(e, params));
                input.fill(params);
            }
            LogicalPlan::Aggregate { input, group, aggs } => {
                group.iter_mut().for_each(|(e, _)| fill_expr(e, params));
                aggs.iter_mut()
                    .filter_map(|a| a.input.as_mut())
                    .for_each(|e| fill_expr(e, params));
                input.fill(params);
            }
            LogicalPlan::Join {
                left,
                right,
                left_keys,
                right_keys,
                ..
            } => {
                left_keys.iter_mut().for_each(|e| fill_expr(e, params));
                right_keys.iter_mut().for_each(|e| fill_expr(e, params));
                left.fill(params);
                right.fill(params);
            }
            LogicalPlan::Sort { input, keys } => {
                keys.iter_mut().for_each(|k| fill_expr(&mut k.expr, params));
                input.fill(params);
            }
            LogicalPlan::Limit { input, .. } => input.fill(params),
        }
    }

    /// Pretty-prints the plan tree (EXPLAIN output).
    pub fn explain(&self) -> String {
        let mut out = String::new();
        self.explain_into(&mut out, 0);
        out
    }

    fn explain_into(&self, out: &mut String, indent: usize) {
        let pad = "  ".repeat(indent);
        match self {
            LogicalPlan::Scan {
                table,
                projection,
                pushdown,
                sip,
                access,
                ..
            } => {
                out.push_str(&format!("{pad}Scan {table} cols={projection:?}"));
                if let AccessPath::PkPoint { key } = access {
                    out.push_str(&format!(" access=pk-point key={key}"));
                }
                if !pushdown.conjuncts.is_empty() {
                    out.push_str(" pushdown=[");
                    for (i, c) in pushdown.conjuncts.iter().enumerate() {
                        if i > 0 {
                            out.push_str(" AND ");
                        }
                        out.push_str(&format!("#{} {} {}", c.column, c.op.symbol(), c.value));
                    }
                    out.push(']');
                }
                if let Some(s) = sip {
                    out.push_str(&format!(
                        " sip=#{} keys={:?}",
                        s.join_id, s.key_columns
                    ));
                }
                out.push('\n');
            }
            LogicalPlan::Filter { input, predicate } => {
                out.push_str(&format!("{pad}Filter {predicate}\n"));
                input.explain_into(out, indent + 1);
            }
            LogicalPlan::Project { input, exprs } => {
                let cols: Vec<String> =
                    exprs.iter().map(|(e, n)| format!("{e} AS {n}")).collect();
                out.push_str(&format!("{pad}Project {}\n", cols.join(", ")));
                input.explain_into(out, indent + 1);
            }
            LogicalPlan::Aggregate { input, group, aggs } => {
                let g: Vec<String> = group.iter().map(|(e, _)| e.to_string()).collect();
                let a: Vec<String> = aggs
                    .iter()
                    .map(|x| format!("{}({:?})", x.func.name(), x.input))
                    .collect();
                out.push_str(&format!(
                    "{pad}Aggregate group=[{}] aggs=[{}]\n",
                    g.join(", "),
                    a.join(", ")
                ));
                input.explain_into(out, indent + 1);
            }
            LogicalPlan::Join {
                left,
                right,
                left_keys,
                right_keys,
                join_type,
                sip,
            } => {
                let keys: Vec<String> = left_keys
                    .iter()
                    .zip(right_keys)
                    .map(|(l, r)| format!("{l}={r}"))
                    .collect();
                let sip_note = match sip {
                    Some(id) => format!(" sip=#{id}"),
                    None => String::new(),
                };
                out.push_str(&format!(
                    "{pad}{join_type:?}Join on {}{sip_note}\n",
                    keys.join(", ")
                ));
                left.explain_into(out, indent + 1);
                right.explain_into(out, indent + 1);
            }
            LogicalPlan::Sort { input, keys } => {
                let k: Vec<String> = keys
                    .iter()
                    .map(|k| format!("{}{}", k.expr, if k.desc { " DESC" } else { "" }))
                    .collect();
                out.push_str(&format!("{pad}Sort {}\n", k.join(", ")));
                input.explain_into(out, indent + 1);
            }
            LogicalPlan::Limit {
                input,
                offset,
                limit,
            } => {
                out.push_str(&format!("{pad}Limit {limit} offset {offset}\n"));
                input.explain_into(out, indent + 1);
            }
        }
    }
}

/// Name-resolution scope: (qualifier, column name) per output ordinal.
#[derive(Debug, Clone, Default)]
pub struct Scope {
    entries: Vec<(Option<String>, String)>,
}

impl Scope {
    fn from_table(table: &TableRef, schema: &Schema) -> Scope {
        let q = table.effective_name().to_string();
        Scope {
            entries: schema
                .fields()
                .iter()
                .map(|f| (Some(q.clone()), f.name.clone()))
                .collect(),
        }
    }

    fn concat(&self, other: &Scope) -> Scope {
        let mut entries = self.entries.clone();
        entries.extend(other.entries.iter().cloned());
        Scope { entries }
    }

    fn resolve(&self, name: &ColumnName) -> Result<usize> {
        let mut hits = self.entries.iter().enumerate().filter(|(_, (q, n))| {
            n == &name.name
                && match (&name.qualifier, q) {
                    (None, _) => true,
                    (Some(want), Some(have)) => want == have,
                    (Some(_), None) => false,
                }
        });
        match (hits.next(), hits.next()) {
            (Some((i, _)), None) => Ok(i),
            (Some(_), Some(_)) => Err(DbError::Plan(format!("ambiguous column {name}"))),
            (None, _) => Err(DbError::ColumnNotFound(name.to_string())),
        }
    }

    /// Number of columns in scope.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Replaces every [`Expr::Param`] in `e` with a literal, its value from
/// `params` (every literal of the statement, so one for each slot).
pub fn fill_expr(e: &mut Expr, params: &[Value]) {
    match e {
        Expr::Param(i, _) => *e = Expr::Literal(params[*i].clone()),
        Expr::Column(_) | Expr::Literal(_) => {}
        Expr::Binary { left, right, .. } => {
            fill_expr(left, params);
            fill_expr(right, params);
        }
        Expr::Unary { expr, .. } | Expr::IsNull(expr) | Expr::IsNotNull(expr) => {
            fill_expr(expr, params)
        }
    }
}

/// Binds a scalar [`AstExpr`] (no aggregates allowed) against a scope.
fn bind_expr(e: &AstExpr, scope: &Scope) -> Result<Expr> {
    Ok(match e {
        AstExpr::Column(c) => Expr::Column(scope.resolve(c)?),
        AstExpr::Literal(v) => Expr::Literal(v.clone()),
        AstExpr::Param(i, v) => Expr::Param(*i, v.clone()),
        AstExpr::Binary { op, left, right } => Expr::Binary {
            op: *op,
            left: Box::new(bind_expr(left, scope)?),
            right: Box::new(bind_expr(right, scope)?),
        },
        AstExpr::Not(x) => Expr::Unary {
            op: UnOp::Not,
            expr: Box::new(bind_expr(x, scope)?),
        },
        AstExpr::Neg(x) => Expr::Unary {
            op: UnOp::Neg,
            expr: Box::new(bind_expr(x, scope)?),
        },
        AstExpr::IsNull(x) => Expr::IsNull(Box::new(bind_expr(x, scope)?)),
        AstExpr::IsNotNull(x) => Expr::IsNotNull(Box::new(bind_expr(x, scope)?)),
        AstExpr::Aggregate { .. } => {
            return Err(DbError::Plan(
                "aggregate not allowed in this context".into(),
            ))
        }
    })
}

/// Binds a scalar expression against a single table schema (used by DML:
/// UPDATE SET / WHERE, DELETE WHERE).
pub fn bind_scalar(e: &AstExpr, schema: &Schema) -> Result<Expr> {
    let scope = Scope {
        entries: schema
            .fields()
            .iter()
            .map(|f| (None, f.name.clone()))
            .collect(),
    };
    bind_expr(e, &scope)
}

fn contains_aggregate(e: &AstExpr) -> bool {
    match e {
        AstExpr::Aggregate { .. } => true,
        AstExpr::Column(_) | AstExpr::Literal(_) | AstExpr::Param(..) => false,
        AstExpr::Binary { left, right, .. } => {
            contains_aggregate(left) || contains_aggregate(right)
        }
        AstExpr::Not(x) | AstExpr::Neg(x) | AstExpr::IsNull(x) | AstExpr::IsNotNull(x) => {
            contains_aggregate(x)
        }
    }
}

fn agg_func(name: &str, has_arg: bool) -> Result<AggFunc> {
    Ok(match (name, has_arg) {
        ("COUNT", false) => AggFunc::CountStar,
        ("COUNT", true) => AggFunc::Count,
        ("SUM", true) => AggFunc::Sum,
        ("MIN", true) => AggFunc::Min,
        ("MAX", true) => AggFunc::Max,
        ("AVG", true) => AggFunc::Avg,
        _ => return Err(DbError::Plan(format!("bad aggregate {name}"))),
    })
}

/// Binds a full SELECT statement into a logical plan.
pub fn bind_select(stmt: &SelectStmt, catalog: &dyn CatalogView) -> Result<LogicalPlan> {
    // FROM and JOINs.
    let base_schema = catalog.table_schema(&stmt.from.name)?;
    let mut scope = Scope::from_table(&stmt.from, &base_schema);
    let mut plan = LogicalPlan::Scan {
        table: stmt.from.name.clone(),
        projection: (0..base_schema.len()).collect(),
        table_schema: base_schema,
        pushdown: ScanPredicate::all(),
        sip: None,
        access: AccessPath::FullScan,
        slots: Vec::new(),
    };
    for j in &stmt.joins {
        let right_schema = catalog.table_schema(&j.table.name)?;
        let right_scope = Scope::from_table(&j.table, &right_schema);
        let right_plan = LogicalPlan::Scan {
            table: j.table.name.clone(),
            projection: (0..right_schema.len()).collect(),
            table_schema: right_schema,
            pushdown: ScanPredicate::all(),
            sip: None,
            access: AccessPath::FullScan,
            slots: Vec::new(),
        };
        let mut left_keys = Vec::new();
        let mut right_keys = Vec::new();
        for (a, b) in &j.on {
            // Each side of the equality may name either input.
            let (l, r) = match (scope.resolve(a), right_scope.resolve(b)) {
                (Ok(l), Ok(r)) => (l, r),
                _ => {
                    let l = scope.resolve(b).map_err(|_| {
                        DbError::Plan(format!("cannot resolve join key {a} = {b}"))
                    })?;
                    let r = right_scope.resolve(a).map_err(|_| {
                        DbError::Plan(format!("cannot resolve join key {a} = {b}"))
                    })?;
                    (l, r)
                }
            };
            left_keys.push(Expr::Column(l));
            right_keys.push(Expr::Column(r));
        }
        let join_type = match j.join_type {
            AstJoinType::Inner => JoinType::Inner,
            AstJoinType::Left => JoinType::Left,
        };
        scope = scope.concat(&right_scope);
        plan = LogicalPlan::Join {
            left: Box::new(plan),
            right: Box::new(right_plan),
            left_keys,
            right_keys,
            join_type,
            sip: None,
        };
    }

    // WHERE.
    if let Some(f) = &stmt.filter {
        if contains_aggregate(f) {
            return Err(DbError::Plan("aggregates not allowed in WHERE".into()));
        }
        plan = LogicalPlan::Filter {
            input: Box::new(plan),
            predicate: bind_expr(f, &scope)?,
        };
    }

    if aggregates(stmt) {
        bind_aggregate_query(stmt, plan, &scope)
    } else {
        bind_simple_query(stmt, plan, &scope)
    }
}

/// Whether `stmt` is an aggregate query.
fn aggregates(stmt: &SelectStmt) -> bool {
    !stmt.group_by.is_empty()
        || stmt.items.iter().any(|i| match i {
            SelectItem::Expr { expr, .. } => contains_aggregate(expr),
            SelectItem::Wildcard => false,
        })
        || stmt.having.as_ref().is_some_and(contains_aggregate)
}

/// Whether binding `stmt` reads a parameter's *value*, so that its plan
/// is not one plan for every statement of its shape: an aggregate query
/// matches its SELECT list, GROUP BY, HAVING and ORDER BY expressions
/// against each other by their literals, and an unaliased literal in the
/// SELECT list names its output column.
pub fn binds_by_value(stmt: &SelectStmt) -> bool {
    fn has_param(e: &AstExpr) -> bool {
        match e {
            AstExpr::Param(..) => true,
            AstExpr::Column(_) | AstExpr::Literal(_) => false,
            AstExpr::Binary { left, right, .. } => has_param(left) || has_param(right),
            AstExpr::Not(x) | AstExpr::Neg(x) | AstExpr::IsNull(x) | AstExpr::IsNotNull(x) => {
                has_param(x)
            }
            AstExpr::Aggregate { arg, .. } => arg.as_deref().is_some_and(has_param),
        }
    }
    let items = stmt.items.iter().filter_map(|i| match i {
        SelectItem::Expr { expr, alias } => Some((expr, alias.is_some())),
        SelectItem::Wildcard => None,
    });
    if aggregates(stmt) {
        let mut matched = items
            .map(|(e, _)| e)
            .chain(&stmt.group_by)
            .chain(&stmt.having)
            .chain(stmt.order_by.iter().map(|o| &o.expr));
        matched.any(has_param)
    } else {
        items
            .filter(|(_, aliased)| !aliased)
            .any(|(e, _)| matches!(e, AstExpr::Param(..)))
    }
}

/// Non-aggregate SELECT: Filter → Sort (pre-projection) → Project → Limit.
fn bind_simple_query(
    stmt: &SelectStmt,
    mut plan: LogicalPlan,
    scope: &Scope,
) -> Result<LogicalPlan> {
    if stmt.having.is_some() {
        return Err(DbError::Plan("HAVING requires GROUP BY/aggregates".into()));
    }
    // ORDER BY binds against the full input so non-projected columns can
    // be sort keys.
    if !stmt.order_by.is_empty() {
        let keys = stmt
            .order_by
            .iter()
            .map(|o| {
                Ok(SortKey {
                    expr: bind_expr(&o.expr, scope)?,
                    desc: o.desc,
                })
            })
            .collect::<Result<Vec<_>>>()?;
        plan = LogicalPlan::Sort {
            input: Box::new(plan),
            keys,
        };
    }
    // SELECT list.
    let mut exprs = Vec::new();
    for item in &stmt.items {
        match item {
            SelectItem::Wildcard => {
                for (i, (_, name)) in scope.entries.iter().enumerate() {
                    exprs.push((Expr::Column(i), name.clone()));
                }
            }
            SelectItem::Expr { expr, alias } => {
                let bound = bind_expr(expr, scope)?;
                let name = alias.clone().unwrap_or_else(|| display_name(expr));
                exprs.push((bound, name));
            }
        }
    }
    plan = LogicalPlan::Project {
        input: Box::new(plan),
        exprs,
    };
    Ok(apply_limit(stmt, plan))
}

/// Aggregate SELECT: Aggregate → Having-Filter → Project → Sort → Limit.
fn bind_aggregate_query(
    stmt: &SelectStmt,
    plan: LogicalPlan,
    scope: &Scope,
) -> Result<LogicalPlan> {
    // Bind group expressions.
    let mut group: Vec<(Expr, String)> = Vec::new();
    let mut group_ast: Vec<&AstExpr> = Vec::new();
    for g in &stmt.group_by {
        if contains_aggregate(g) {
            return Err(DbError::Plan("aggregates not allowed in GROUP BY".into()));
        }
        group.push((bind_expr(g, scope)?, display_name(g)));
        group_ast.push(g);
    }

    // Collect aggregates from SELECT, HAVING, and ORDER BY.
    let mut aggs: Vec<AggExpr> = Vec::new();
    let mut collect = |e: &AstExpr| -> Result<()> {
        collect_aggs(e, scope, &mut aggs)
    };
    for item in &stmt.items {
        match item {
            SelectItem::Wildcard => {
                return Err(DbError::Plan(
                    "SELECT * is not valid with GROUP BY/aggregates".into(),
                ))
            }
            SelectItem::Expr { expr, .. } => collect(expr)?,
        }
    }
    if let Some(h) = &stmt.having {
        collect(h)?;
    }
    for o in &stmt.order_by {
        collect(&o.expr)?;
    }

    let agg_plan = LogicalPlan::Aggregate {
        input: Box::new(plan),
        group: group.clone(),
        aggs: aggs.clone(),
    };

    // Scope over the aggregate output: group exprs then agg labels.
    // References to grouped columns rebind to the group ordinal; aggregate
    // calls rebind to their agg ordinal.
    let rebind = |e: &AstExpr| -> Result<Expr> {
        rebind_over_aggregate(e, scope, &group_ast, &aggs)
    };

    let mut plan = agg_plan;
    if let Some(h) = &stmt.having {
        plan = LogicalPlan::Filter {
            input: Box::new(plan),
            predicate: rebind(h)?,
        };
    }

    // SELECT list over the aggregate output.
    let mut exprs = Vec::new();
    let mut out_names = Vec::new();
    for item in &stmt.items {
        if let SelectItem::Expr { expr, alias } = item {
            let bound = rebind(expr)?;
            let name = alias.clone().unwrap_or_else(|| display_name(expr));
            out_names.push((expr, name.clone()));
            exprs.push((bound, name));
        }
    }
    plan = LogicalPlan::Project {
        input: Box::new(plan),
        exprs,
    };

    // ORDER BY over the projected output: resolve aliases first, then
    // re-derivable expressions.
    if !stmt.order_by.is_empty() {
        let mut keys = Vec::new();
        for o in &stmt.order_by {
            // Alias reference?
            let key_expr = if let AstExpr::Column(c) = &o.expr {
                out_names
                    .iter()
                    .position(|(_, n)| c.qualifier.is_none() && *n == c.name)
                    .map(Expr::Column)
            } else {
                None
            };
            let key_expr = match key_expr {
                Some(e) => e,
                None => {
                    // Structural match against a projected expression.
                    let pos = out_names
                        .iter()
                        .position(|(ast, _)| *ast == &o.expr)
                        .ok_or_else(|| {
                            DbError::Plan(
                                "ORDER BY in aggregate queries must reference the \
                                 SELECT list"
                                    .into(),
                            )
                        })?;
                    Expr::Column(pos)
                }
            };
            keys.push(SortKey {
                expr: key_expr,
                desc: o.desc,
            });
        }
        plan = LogicalPlan::Sort {
            input: Box::new(plan),
            keys,
        };
    }
    Ok(apply_limit(stmt, plan))
}

fn apply_limit(stmt: &SelectStmt, plan: LogicalPlan) -> LogicalPlan {
    match (stmt.limit, stmt.offset) {
        (None, None) => plan,
        (limit, offset) => LogicalPlan::Limit {
            input: Box::new(plan),
            offset: offset.unwrap_or(0),
            limit: limit.unwrap_or(usize::MAX),
        },
    }
}

/// Registers every aggregate call in `e` (deduplicated structurally).
fn collect_aggs(e: &AstExpr, scope: &Scope, aggs: &mut Vec<AggExpr>) -> Result<()> {
    match e {
        AstExpr::Aggregate { func, arg } => {
            let f = agg_func(func, arg.is_some())?;
            let input = match arg {
                Some(a) => {
                    if contains_aggregate(a) {
                        return Err(DbError::Plan("nested aggregates".into()));
                    }
                    Some(bind_expr(a, scope)?)
                }
                None => None,
            };
            let exists = aggs.iter().any(|x| x.func == f && x.input == input);
            if !exists {
                let label = format!("{}_{}", f.name().replace("(*)", "_star"), aggs.len());
                aggs.push(AggExpr {
                    func: f,
                    input,
                    label,
                });
            }
            Ok(())
        }
        AstExpr::Column(_) | AstExpr::Literal(_) | AstExpr::Param(..) => Ok(()),
        AstExpr::Binary { left, right, .. } => {
            collect_aggs(left, scope, aggs)?;
            collect_aggs(right, scope, aggs)
        }
        AstExpr::Not(x) | AstExpr::Neg(x) | AstExpr::IsNull(x) | AstExpr::IsNotNull(x) => {
            collect_aggs(x, scope, aggs)
        }
    }
}

/// Rewrites an expression over the aggregate node's output schema
/// (`group.len()` group columns followed by `aggs.len()` aggregates).
fn rebind_over_aggregate(
    e: &AstExpr,
    scope: &Scope,
    group_ast: &[&AstExpr],
    aggs: &[AggExpr],
) -> Result<Expr> {
    // A whole subtree equal to a group expression becomes that column.
    if let Some(i) = group_ast.iter().position(|g| *g == e) {
        return Ok(Expr::Column(i));
    }
    match e {
        AstExpr::Aggregate { func, arg } => {
            let f = agg_func(func, arg.is_some())?;
            let input = match arg {
                Some(a) => Some(bind_expr(a, scope)?),
                None => None,
            };
            let pos = aggs
                .iter()
                .position(|x| x.func == f && x.input == input)
                .ok_or_else(|| DbError::Plan("aggregate not collected".into()))?;
            Ok(Expr::Column(group_ast.len() + pos))
        }
        AstExpr::Literal(v) => Ok(Expr::Literal(v.clone())),
        AstExpr::Param(i, v) => Ok(Expr::Param(*i, v.clone())),
        AstExpr::Column(c) => Err(DbError::Plan(format!(
            "column {c} must appear in GROUP BY or inside an aggregate"
        ))),
        AstExpr::Binary { op, left, right } => Ok(Expr::Binary {
            op: *op,
            left: Box::new(rebind_over_aggregate(left, scope, group_ast, aggs)?),
            right: Box::new(rebind_over_aggregate(right, scope, group_ast, aggs)?),
        }),
        AstExpr::Not(x) => Ok(Expr::Unary {
            op: UnOp::Not,
            expr: Box::new(rebind_over_aggregate(x, scope, group_ast, aggs)?),
        }),
        AstExpr::Neg(x) => Ok(Expr::Unary {
            op: UnOp::Neg,
            expr: Box::new(rebind_over_aggregate(x, scope, group_ast, aggs)?),
        }),
        AstExpr::IsNull(x) => Ok(Expr::IsNull(Box::new(rebind_over_aggregate(
            x, scope, group_ast, aggs,
        )?))),
        AstExpr::IsNotNull(x) => Ok(Expr::IsNotNull(Box::new(rebind_over_aggregate(
            x, scope, group_ast, aggs,
        )?))),
    }
}

fn display_name(e: &AstExpr) -> String {
    match e {
        AstExpr::Column(c) => c.name.clone(),
        AstExpr::Aggregate { func, arg } => match arg {
            None => "count".to_string(),
            Some(a) => format!("{}_{}", func.to_ascii_lowercase(), display_name(a)),
        },
        AstExpr::Literal(v) | AstExpr::Param(_, v) => v.to_string(),
        _ => "expr".to_string(),
    }
}

/// The value of an INSERT cell: a literal, a parameter (its value from
/// `params`), or a negation of one.
pub fn literal_value(e: &AstExpr, params: &[Value]) -> Result<Value> {
    match e {
        AstExpr::Literal(v) => Ok(v.clone()),
        AstExpr::Param(i, _) => params
            .get(*i)
            .cloned()
            .ok_or_else(|| DbError::Execution(format!("parameter ${i} was never filled"))),
        AstExpr::Neg(inner) => match literal_value(inner, params)? {
            // Wraps as the evaluator's negation does: `-(i64::MIN)` is itself.
            Value::Int(i) => Ok(Value::Int(i.wrapping_neg())),
            Value::Float(f) => Ok(Value::Float(-f)),
            other => Err(DbError::Plan(format!("cannot negate {other}"))),
        },
        other => Err(DbError::Plan(format!(
            "expected a literal value, found {other:?}"
        ))),
    }
}

/// The timestamp of an `AS OF` clause: a non-negative integer.
pub fn as_of_timestamp(e: &AstExpr, params: &[Value]) -> Result<i64> {
    match literal_value(e, params)? {
        Value::Int(n) if n >= 0 => Ok(n),
        other => Err(DbError::Parse(format!(
            "expected non-negative integer, found {other:?}"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use oltap_common::hash::FxHashMap;
    use oltap_common::DataType;

    struct TestCatalog {
        tables: FxHashMap<String, SchemaRef>,
    }

    impl CatalogView for TestCatalog {
        fn table_schema(&self, name: &str) -> Result<SchemaRef> {
            self.tables
                .get(name)
                .cloned()
                .ok_or_else(|| DbError::TableNotFound(name.into()))
        }
    }

    fn catalog() -> TestCatalog {
        let mut tables = FxHashMap::default();
        tables.insert(
            "orders".to_string(),
            Arc::new(
                Schema::with_primary_key(
                    vec![
                        Field::not_null("id", DataType::Int64),
                        Field::new("cust_id", DataType::Int64),
                        Field::new("amount", DataType::Float64),
                        Field::new("region", DataType::Utf8),
                    ],
                    &["id"],
                )
                .unwrap(),
            ),
        );
        tables.insert(
            "customers".to_string(),
            Arc::new(
                Schema::with_primary_key(
                    vec![
                        Field::not_null("id", DataType::Int64),
                        Field::new("name", DataType::Utf8),
                    ],
                    &["id"],
                )
                .unwrap(),
            ),
        );
        TestCatalog { tables }
    }

    fn plan_of(sql: &str) -> Result<LogicalPlan> {
        let stmt = parse(sql).unwrap();
        match stmt {
            Statement::Select(s) => bind_select(&s, &catalog()),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn binds_simple_select() {
        let p = plan_of("SELECT id, amount FROM orders WHERE amount > 10").unwrap();
        let s = p.output_schema().unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!(s.field(0).name, "id");
        assert_eq!(s.field(1).data_type, DataType::Float64);
        assert!(p.explain().contains("Filter"));
    }

    #[test]
    fn wildcard_expands() {
        let p = plan_of("SELECT * FROM orders").unwrap();
        assert_eq!(p.output_schema().unwrap().len(), 4);
    }

    #[test]
    fn unknown_column_rejected() {
        assert!(matches!(
            plan_of("SELECT nope FROM orders"),
            Err(DbError::ColumnNotFound(_))
        ));
    }

    #[test]
    fn unknown_table_rejected() {
        assert!(matches!(
            plan_of("SELECT * FROM missing"),
            Err(DbError::TableNotFound(_))
        ));
    }

    #[test]
    fn qualified_and_aliased_names() {
        let p = plan_of(
            "SELECT o.id, c.name FROM orders o JOIN customers c ON o.cust_id = c.id",
        )
        .unwrap();
        let s = p.output_schema().unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!(s.field(1).name, "name");
    }

    #[test]
    fn ambiguous_column_rejected() {
        // `id` exists on both sides.
        assert!(plan_of(
            "SELECT id FROM orders o JOIN customers c ON o.cust_id = c.id"
        )
        .is_err());
    }

    #[test]
    fn join_keys_either_order() {
        // ON c.id = o.cust_id (right key first) also binds.
        let p = plan_of(
            "SELECT o.id FROM orders o JOIN customers c ON c.id = o.cust_id",
        )
        .unwrap();
        if let LogicalPlan::Limit { .. } = p { unreachable!() }
        assert!(p.explain().contains("Join"));
    }

    #[test]
    fn aggregate_binding() {
        let p = plan_of(
            "SELECT region, COUNT(*) AS n, SUM(amount) AS total FROM orders \
             GROUP BY region HAVING COUNT(*) > 2 ORDER BY n DESC LIMIT 3",
        )
        .unwrap();
        let s = p.output_schema().unwrap();
        assert_eq!(s.len(), 3);
        assert_eq!(s.field(0).name, "region");
        assert_eq!(s.field(1).name, "n");
        assert_eq!(s.field(1).data_type, DataType::Int64);
        assert_eq!(s.field(2).data_type, DataType::Float64);
        let plan_text = p.explain();
        assert!(plan_text.contains("Aggregate"));
        assert!(plan_text.contains("Sort"));
        assert!(plan_text.contains("Limit"));
    }

    #[test]
    fn duplicate_aggregates_dedup() {
        let p = plan_of(
            "SELECT COUNT(*), COUNT(*) + 1 FROM orders",
        )
        .unwrap();
        // Only one physical aggregate underneath.
        fn find_agg(p: &LogicalPlan) -> Option<usize> {
            match p {
                LogicalPlan::Aggregate { aggs, .. } => Some(aggs.len()),
                LogicalPlan::Filter { input, .. }
                | LogicalPlan::Project { input, .. }
                | LogicalPlan::Sort { input, .. }
                | LogicalPlan::Limit { input, .. } => find_agg(input),
                _ => None,
            }
        }
        assert_eq!(find_agg(&p), Some(1));
    }

    #[test]
    fn non_grouped_column_rejected() {
        assert!(plan_of("SELECT region, amount FROM orders GROUP BY region").is_err());
    }

    #[test]
    fn group_by_expression_matches_select() {
        let p = plan_of(
            "SELECT amount * 2, COUNT(*) FROM orders GROUP BY amount * 2",
        )
        .unwrap();
        assert_eq!(p.output_schema().unwrap().len(), 2);
    }

    #[test]
    fn order_by_non_projected_column_simple_query() {
        let p = plan_of("SELECT id FROM orders ORDER BY amount DESC").unwrap();
        // Sort must be below the projection.
        match &p {
            LogicalPlan::Project { input, .. } => {
                assert!(matches!(**input, LogicalPlan::Sort { .. }));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn order_by_unknown_in_aggregate_rejected() {
        assert!(plan_of(
            "SELECT region, COUNT(*) FROM orders GROUP BY region ORDER BY amount"
        )
        .is_err());
    }

    #[test]
    fn aggregates_in_where_rejected() {
        assert!(plan_of("SELECT id FROM orders WHERE COUNT(*) > 1").is_err());
    }

    #[test]
    fn having_without_group_rejected() {
        assert!(plan_of("SELECT id FROM orders HAVING id > 1").is_err());
    }

    #[test]
    fn global_aggregate_without_group() {
        let p = plan_of("SELECT COUNT(*), AVG(amount) FROM orders WHERE region = 'eu'").unwrap();
        let s = p.output_schema().unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!(s.field(1).data_type, DataType::Float64);
    }

    #[test]
    fn bind_scalar_for_dml() {
        let schema = catalog().table_schema("orders").unwrap();
        let stmt = parse("UPDATE orders SET amount = amount + 1 WHERE id = 3").unwrap();
        match stmt {
            Statement::Update { set, filter, .. } => {
                let e = bind_scalar(&set[0].1, &schema).unwrap();
                assert!(e.to_string().contains('+'));
                let f = bind_scalar(&filter.unwrap(), &schema).unwrap();
                assert!(f.to_string().contains('='));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn literal_values() {
        assert_eq!(
            literal_value(&AstExpr::Neg(Box::new(AstExpr::Literal(Value::Int(5)))), &[]).unwrap(),
            Value::Int(-5)
        );
        assert!(literal_value(
            &AstExpr::Column(ColumnName {
                qualifier: None,
                name: "x".into()
            }),
            &[]
        )
        .is_err());
        // A parameter reads the statement's value, not the one it was
        // planned with.
        let param = AstExpr::Neg(Box::new(AstExpr::Param(0, Value::Int(1))));
        assert_eq!(literal_value(&param, &[Value::Float(2.5)]).unwrap(), Value::Float(-2.5));
        // One it was never given is an error, never the planned value.
        assert!(matches!(literal_value(&param, &[]), Err(DbError::Execution(_))));
    }
}
