//! Rule-based logical optimization: constant folding, predicate pushdown
//! into storage scans, and scan projection pruning.
//!
//! These are the three optimizations that matter most for the column-store
//! architecture the engine implements (tutorial §1/§3): pushdown lets the
//! storage layer use zone maps and compressed-domain evaluation; pruning
//! means a scan decodes only the referenced columns — the defining
//! advantage of columnar layouts.
//!
//! Pushdown also decides each scan's [`AccessPath`]: a pushdown that pins
//! the whole primary key with `=` makes the scan a key lookup.
//!
//! A fourth, join-specific pass runs last: [`optimize`] marks INNER
//! equi-joins whose probe side reaches a bare scan so the physical planner
//! can push a Bloom-filter join filter (sideways information passing) into
//! that scan once the build side is materialized.

use crate::plan::{AccessPath, LogicalPlan, ParamSlot, SipScan};
use oltap_common::{Batch, DataType, Field, Result, Row, Schema, Value};
use oltap_exec::expr::{BinOp, Expr};
use oltap_exec::join::JoinType;
use oltap_storage::{CmpOp, ColumnPredicate};
use std::collections::BTreeSet;

/// Runs every rule to fixpoint-ish (each rule once, in dependency order —
/// folding first so pushdown sees literals, pruning last so it sees the
/// final column references, sideways-join marking last of all so the scan
/// ordinals it records are the pruned ones the executor will see).
pub fn optimize(plan: LogicalPlan) -> Result<LogicalPlan> {
    optimize_folded(fold_plan(plan, &mut false)?)
}

/// [`optimize`] for a plan bound from a statement's parameters
/// ([`crate::ast::AstExpr::Param`]): `None` when constant folding met a
/// parameter — where the same statement's literals would fold (`id = 3 +
/// 4`, `x AND TRUE`) the plan depends on their values, and the statement
/// must be planned with its literals.
pub fn optimize_shape(plan: LogicalPlan) -> Result<Option<LogicalPlan>> {
    let mut met_param = false;
    let plan = fold_plan(plan, &mut met_param)?;
    if met_param {
        return Ok(None);
    }
    optimize_folded(plan).map(Some)
}

fn optimize_folded(plan: LogicalPlan) -> Result<LogicalPlan> {
    let plan = push_down_predicates(plan)?;
    let plan = prune_scan_projections(plan)?;
    let mut next_id = 0u32;
    Ok(mark_sideways_joins(plan, &mut next_id))
}

// ---------------------------------------------------------------------------
// Constant folding
// ---------------------------------------------------------------------------

fn fold_plan(plan: LogicalPlan, met: &mut bool) -> Result<LogicalPlan> {
    Ok(match plan {
        LogicalPlan::Filter { input, predicate } => LogicalPlan::Filter {
            input: Box::new(fold_plan(*input, met)?),
            predicate: fold(predicate, met),
        },
        LogicalPlan::Project { input, exprs } => LogicalPlan::Project {
            input: Box::new(fold_plan(*input, met)?),
            exprs: exprs
                .into_iter()
                .map(|(e, n)| (fold(e, met), n))
                .collect(),
        },
        LogicalPlan::Aggregate { input, group, aggs } => LogicalPlan::Aggregate {
            input: Box::new(fold_plan(*input, met)?),
            group: group.into_iter().map(|(e, n)| (fold(e, met), n)).collect(),
            aggs,
        },
        LogicalPlan::Join {
            left,
            right,
            left_keys,
            right_keys,
            join_type,
            sip,
        } => LogicalPlan::Join {
            left: Box::new(fold_plan(*left, met)?),
            right: Box::new(fold_plan(*right, met)?),
            left_keys,
            right_keys,
            join_type,
            sip,
        },
        LogicalPlan::Sort { input, keys } => LogicalPlan::Sort {
            input: Box::new(fold_plan(*input, met)?),
            keys,
        },
        LogicalPlan::Limit {
            input,
            offset,
            limit,
        } => LogicalPlan::Limit {
            input: Box::new(fold_plan(*input, met)?),
            offset,
            limit,
        },
        scan @ LogicalPlan::Scan { .. } => scan,
    })
}

/// Folds literal-only subtrees bottom-up, each by evaluating it with the
/// engine's evaluator — so a folded statement answers exactly as the
/// unfolded one would (integers wrap, comparisons promote). A subtree the
/// evaluator rejects (division by zero, a type error) stays unfolded: the
/// error must surface at execution. A parameter is not a literal: it never
/// folds.
pub fn fold_expr(e: Expr) -> Expr {
    fold(e, &mut false)
}

/// [`fold_expr`], setting `met_param` where a parameter stands in a place
/// a literal would have folded.
fn fold(e: Expr, met_param: &mut bool) -> Expr {
    let is_literal = |e: &Expr| matches!(e, Expr::Literal(_));
    let constant = |e: &Expr| matches!(e, Expr::Literal(_) | Expr::Param(..));
    // The node over its folded operands.
    let e = match e {
        Expr::Binary { op, left, right } => {
            match (op, fold(*left, met_param), fold(*right, met_param)) {
                (op, left, right) if is_literal(&left) && is_literal(&right) => {
                    Expr::binary(op, left, right)
                }
                // Boolean identities — plan rewrites, not arithmetic.
                (BinOp::And, Expr::Literal(Value::Bool(true)), x)
                | (BinOp::And, x, Expr::Literal(Value::Bool(true)))
                | (BinOp::Or, Expr::Literal(Value::Bool(false)), x)
                | (BinOp::Or, x, Expr::Literal(Value::Bool(false))) => return x,
                (BinOp::And, f @ Expr::Literal(Value::Bool(false)), _)
                | (BinOp::And, _, f @ Expr::Literal(Value::Bool(false))) => return f,
                (BinOp::Or, t @ Expr::Literal(Value::Bool(true)), _)
                | (BinOp::Or, _, t @ Expr::Literal(Value::Bool(true))) => return t,
                (op, left, right) => {
                    let boolean = |e: &Expr| matches!(e, Expr::Param(_, Value::Bool(_)));
                    *met_param |= (constant(&left) && constant(&right))
                        || (op.is_logic() && (boolean(&left) || boolean(&right)));
                    Expr::binary(op, left, right)
                }
            }
        }
        Expr::Unary { op, expr } => Expr::Unary {
            op,
            expr: Box::new(fold(*expr, met_param)),
        },
        Expr::IsNull(inner) => Expr::IsNull(Box::new(fold(*inner, met_param))),
        Expr::IsNotNull(inner) => Expr::IsNotNull(Box::new(fold(*inner, met_param))),
        leaf => return leaf,
    };
    let literal_only = match &e {
        Expr::Binary { left, right, .. } => is_literal(left) && is_literal(right),
        Expr::Unary { expr, .. } | Expr::IsNull(expr) | Expr::IsNotNull(expr) => {
            *met_param |= matches!(**expr, Expr::Param(..));
            is_literal(expr)
        }
        Expr::Column(_) | Expr::Literal(_) | Expr::Param(..) => false,
    };
    if literal_only {
        return eval_literal_only(&e).unwrap_or(e);
    }
    e
}

/// The literal the engine's evaluator answers for `e`, which reads no
/// column; `None` when it refuses, or when the literal would not type as
/// `e` does (a NULL literal is an integer: a boolean NULL stays a tree).
fn eval_literal_only(e: &Expr) -> Option<Expr> {
    // Any one-row batch will do.
    let schema = Schema::new(vec![Field::new("", DataType::Int64)]);
    let one_row = Batch::from_rows(&schema, &[Row::new(vec![Value::Int(0)])]).ok()?;
    let answer = e.eval_batch(&one_row).ok()?;
    let folded = Expr::Literal(answer.value_at(0));
    (folded.data_type(&schema).ok()? == e.data_type(&schema).ok()?).then_some(folded)
}

// ---------------------------------------------------------------------------
// Predicate pushdown
// ---------------------------------------------------------------------------

fn push_down_predicates(plan: LogicalPlan) -> Result<LogicalPlan> {
    Ok(match plan {
        LogicalPlan::Filter { input, predicate } => {
            let input = push_down_predicates(*input)?;
            match input {
                LogicalPlan::Scan {
                    table,
                    table_schema,
                    projection,
                    mut pushdown,
                    sip,
                    access: _,
                    mut slots,
                } => {
                    let split = split_pushdown(&predicate, &projection, &table_schema);
                    let base = pushdown.conjuncts.len();
                    slots.extend(split.slots.into_iter().map(|s| ParamSlot {
                        conjunct: base + s.conjunct,
                        ..s
                    }));
                    pushdown.conjuncts.extend(split.pushed);
                    // The access path is a function of the pushdown: chosen
                    // here, where the pushdown is decided.
                    let access = AccessPath::choose(&pushdown, &table_schema);
                    let scan = LogicalPlan::Scan {
                        table,
                        table_schema,
                        projection,
                        pushdown,
                        sip,
                        access,
                        slots,
                    };
                    match rebuild_conjunction(split.residual) {
                        Some(pred) => LogicalPlan::Filter {
                            input: Box::new(scan),
                            predicate: pred,
                        },
                        None => scan,
                    }
                }
                LogicalPlan::Join {
                    left,
                    right,
                    left_keys,
                    right_keys,
                    join_type,
                    sip,
                } => {
                    // Route single-side conjuncts below the join. For LEFT
                    // joins only left-side conjuncts may move (right-side
                    // ones would incorrectly eliminate NULL-padded rows).
                    let left_width = left.output_schema()?.len();
                    let mut left_preds = Vec::new();
                    let mut right_preds = Vec::new();
                    let mut keep = Vec::new();
                    for conj in split_conjuncts(predicate) {
                        let mut refs = BTreeSet::new();
                        add_refs(&conj, &mut refs);
                        if refs.iter().all(|&i| i < left_width) {
                            left_preds.push(conj);
                        } else if refs.iter().all(|&i| i >= left_width)
                            && join_type == JoinType::Inner
                        {
                            right_preds.push(shift_expr(conj, left_width));
                        } else {
                            keep.push(conj);
                        }
                    }
                    let mut new_left = *left;
                    if let Some(p) = rebuild_conjunction(left_preds) {
                        new_left = push_down_predicates(LogicalPlan::Filter {
                            input: Box::new(new_left),
                            predicate: p,
                        })?;
                    }
                    let mut new_right = *right;
                    if let Some(p) = rebuild_conjunction(right_preds) {
                        new_right = push_down_predicates(LogicalPlan::Filter {
                            input: Box::new(new_right),
                            predicate: p,
                        })?;
                    }
                    let join = LogicalPlan::Join {
                        left: Box::new(new_left),
                        right: Box::new(new_right),
                        left_keys,
                        right_keys,
                        join_type,
                        sip,
                    };
                    match rebuild_conjunction(keep) {
                        Some(p) => LogicalPlan::Filter {
                            input: Box::new(join),
                            predicate: p,
                        },
                        None => join,
                    }
                }
                other => LogicalPlan::Filter {
                    input: Box::new(other),
                    predicate,
                },
            }
        }
        LogicalPlan::Project { input, exprs } => LogicalPlan::Project {
            input: Box::new(push_down_predicates(*input)?),
            exprs,
        },
        LogicalPlan::Aggregate { input, group, aggs } => LogicalPlan::Aggregate {
            input: Box::new(push_down_predicates(*input)?),
            group,
            aggs,
        },
        LogicalPlan::Join {
            left,
            right,
            left_keys,
            right_keys,
            join_type,
            sip,
        } => LogicalPlan::Join {
            left: Box::new(push_down_predicates(*left)?),
            right: Box::new(push_down_predicates(*right)?),
            left_keys,
            right_keys,
            join_type,
            sip,
        },
        LogicalPlan::Sort { input, keys } => LogicalPlan::Sort {
            input: Box::new(push_down_predicates(*input)?),
            keys,
        },
        LogicalPlan::Limit {
            input,
            offset,
            limit,
        } => LogicalPlan::Limit {
            input: Box::new(push_down_predicates(*input)?),
            offset,
            limit,
        },
        scan @ LogicalPlan::Scan { .. } => scan,
    })
}

/// Splits an AND tree into conjuncts.
pub fn split_conjuncts(e: Expr) -> Vec<Expr> {
    match e {
        Expr::Binary {
            op: BinOp::And,
            left,
            right,
        } => {
            let mut out = split_conjuncts(*left);
            out.extend(split_conjuncts(*right));
            out
        }
        other => vec![other],
    }
}

/// A predicate split for a scan by [`split_pushdown`].
#[derive(Debug, Default)]
pub struct Split {
    /// The conjuncts storage evaluates natively, in source order.
    pub pushed: Vec<ColumnPredicate>,
    /// Which of `pushed` compare against a statement parameter.
    pub slots: Vec<ParamSlot>,
    /// The conjuncts an executor filter keeps, in source order.
    pub residual: Vec<Expr>,
}

/// Splits `predicate` into the conjuncts storage evaluates natively
/// (`column <op> literal` or `column <op> parameter`, as ordinals of
/// `table_schema` through `projection`) and the residual ones an executor
/// filter keeps.
pub fn split_pushdown(predicate: &Expr, projection: &[usize], table_schema: &Schema) -> Split {
    fn walk(e: &Expr, projection: &[usize], table_schema: &Schema, out: &mut Split) {
        match e {
            Expr::Binary {
                op: BinOp::And,
                left,
                right,
            } => {
                walk(left, projection, table_schema, out);
                walk(right, projection, table_schema, out);
            }
            conj => match to_column_predicate(conj, projection, table_schema) {
                Some((cp, param)) => {
                    if let Some(param) = param {
                        out.slots.push(ParamSlot {
                            conjunct: out.pushed.len(),
                            param,
                        });
                    }
                    out.pushed.push(cp);
                }
                None => out.residual.push(conj.clone()),
            },
        }
    }
    let mut out = Split::default();
    walk(predicate, projection, table_schema, &mut out);
    out
}

fn rebuild_conjunction(mut conjuncts: Vec<Expr>) -> Option<Expr> {
    let first = if conjuncts.is_empty() {
        return None;
    } else {
        conjuncts.remove(0)
    };
    Some(conjuncts.into_iter().fold(first, |acc, c| Expr::Binary {
        op: BinOp::And,
        left: Box::new(acc),
        right: Box::new(c),
    }))
}

/// Tries to convert `#col op literal` or `#col op parameter` (either
/// side) or `#col IS NOT NULL` into a storage predicate, with the
/// parameter's index when it compares against one (the predicate then
/// holds the value the parameter was planned with). `projection` maps plan
/// ordinals back to table ordinals.
fn to_column_predicate(
    e: &Expr,
    projection: &[usize],
    table_schema: &Schema,
) -> Option<(ColumnPredicate, Option<usize>)> {
    let (op, l, r) = match e {
        Expr::Binary { op, left, right } => (*op, left.as_ref(), right.as_ref()),
        // A storage comparison never matches NULL, so `>=` the least value
        // of the column's type passes exactly the non-NULL rows.
        Expr::IsNotNull(inner) => {
            let Expr::Column(c) = inner.as_ref() else {
                return None;
            };
            let column = *projection.get(*c)?;
            let least = match table_schema.fields().get(column)?.data_type {
                DataType::Int64 | DataType::Timestamp => Value::Int(i64::MIN),
                // First in `total_cmp` order: the negative NaN of largest payload.
                DataType::Float64 => Value::Float(f64::from_bits(u64::MAX)),
                DataType::Utf8 => Value::Str(String::new()),
                DataType::Bool => Value::Bool(false),
            };
            return Some((ColumnPredicate::new(column, CmpOp::Ge, least), None));
        }
        _ => return None,
    };
    let cmp = match op {
        BinOp::Eq => CmpOp::Eq,
        BinOp::Ne => CmpOp::Ne,
        BinOp::Lt => CmpOp::Lt,
        BinOp::Le => CmpOp::Le,
        BinOp::Gt => CmpOp::Gt,
        BinOp::Ge => CmpOp::Ge,
        _ => return None,
    };
    let constant = |e: &Expr| match e {
        Expr::Literal(v) => Some((v.clone(), None)),
        Expr::Param(i, v) => Some((v.clone(), Some(*i))),
        _ => None,
    };
    let (c, cmp, (value, param)) = match (l, r) {
        (Expr::Column(c), other) => (c, cmp, constant(other)?),
        (other, Expr::Column(c)) => {
            let flipped = match cmp {
                CmpOp::Lt => CmpOp::Gt,
                CmpOp::Le => CmpOp::Ge,
                CmpOp::Gt => CmpOp::Lt,
                CmpOp::Ge => CmpOp::Le,
                other => other,
            };
            (c, flipped, constant(other)?)
        }
        _ => return None,
    };
    Some((ColumnPredicate::new(*projection.get(*c)?, cmp, value), param))
}

// ---------------------------------------------------------------------------
// Scan projection pruning
// ---------------------------------------------------------------------------

/// Prunes every scan to the columns its ancestors actually reference,
/// rewriting ordinals along the way. The root requires all of its output.
fn prune_scan_projections(plan: LogicalPlan) -> Result<LogicalPlan> {
    let width = plan.output_schema()?.len();
    let all: BTreeSet<usize> = (0..width).collect();
    let (plan, _mapping) = prune(plan, &all)?;
    Ok(plan)
}

/// Returns the rewritten plan and, for each *old* output ordinal, its new
/// ordinal (plans other than Scan keep their output shape, so the mapping
/// is identity except under Scan).
fn prune(plan: LogicalPlan, required: &BTreeSet<usize>) -> Result<(LogicalPlan, Vec<usize>)> {
    match plan {
        LogicalPlan::Scan {
            table,
            table_schema,
            projection,
            pushdown,
            sip,
            access,
            slots,
        } => {
            // Keep only required ordinals (in original order). A scan must
            // keep at least one column, otherwise batches lose their row
            // count (COUNT(*) with no column references).
            let mut keep: Vec<usize> = (0..projection.len())
                .filter(|i| required.contains(i))
                .collect();
            if keep.is_empty() && !projection.is_empty() {
                keep.push(0);
            }
            let new_projection: Vec<usize> = keep.iter().map(|&i| projection[i]).collect();
            let mut mapping = vec![usize::MAX; projection.len()];
            for (new, &old) in keep.iter().enumerate() {
                mapping[old] = new;
            }
            Ok((
                LogicalPlan::Scan {
                    table,
                    table_schema,
                    projection: new_projection,
                    pushdown, // table-ordinal based: unaffected
                    sip,      // table-ordinal based too (marked after pruning)
                    access,   // a key of table values: unaffected
                    slots,    // pushdown positions: unaffected
                },
                mapping,
            ))
        }
        LogicalPlan::Filter { input, predicate } => {
            let mut need = required.clone();
            add_refs(&predicate, &mut need);
            let (input, mapping) = prune(*input, &need)?;
            Ok((
                LogicalPlan::Filter {
                    input: Box::new(input),
                    predicate: remap_expr(predicate, &mapping),
                },
                mapping,
            ))
        }
        LogicalPlan::Sort { input, keys } => {
            let mut need = required.clone();
            for k in &keys {
                add_refs(&k.expr, &mut need);
            }
            let (input, mapping) = prune(*input, &need)?;
            let keys = keys
                .into_iter()
                .map(|k| oltap_exec::sort::SortKey {
                    expr: remap_expr(k.expr, &mapping),
                    desc: k.desc,
                })
                .collect();
            Ok((
                LogicalPlan::Sort {
                    input: Box::new(input),
                    keys,
                },
                mapping,
            ))
        }
        LogicalPlan::Limit {
            input,
            offset,
            limit,
        } => {
            let (input, mapping) = prune(*input, required)?;
            Ok((
                LogicalPlan::Limit {
                    input: Box::new(input),
                    offset,
                    limit,
                },
                mapping,
            ))
        }
        LogicalPlan::Project { input, exprs } => {
            // Output shape is fixed by the projection; the child needs the
            // union of refs of all projected expressions.
            let mut need = BTreeSet::new();
            for (e, _) in &exprs {
                add_refs(e, &mut need);
            }
            let (input, child_map) = prune(*input, &need)?;
            let exprs = exprs
                .into_iter()
                .map(|(e, n)| (remap_expr(e, &child_map), n))
                .collect::<Vec<_>>();
            let identity: Vec<usize> = (0..exprs.len()).collect();
            Ok((
                LogicalPlan::Project {
                    input: Box::new(input),
                    exprs,
                },
                identity,
            ))
        }
        LogicalPlan::Aggregate { input, group, aggs } => {
            let mut need = BTreeSet::new();
            for (e, _) in &group {
                add_refs(e, &mut need);
            }
            for a in &aggs {
                if let Some(e) = &a.input {
                    add_refs(e, &mut need);
                }
            }
            let (input, child_map) = prune(*input, &need)?;
            let group = group
                .into_iter()
                .map(|(e, n)| (remap_expr(e, &child_map), n))
                .collect::<Vec<(Expr, String)>>();
            let aggs = aggs
                .into_iter()
                .map(|mut a| {
                    a.input = a.input.map(|e| remap_expr(e, &child_map));
                    a
                })
                .collect::<Vec<_>>();
            let identity: Vec<usize> = (0..group.len() + aggs.len()).collect();
            Ok((
                LogicalPlan::Aggregate {
                    input: Box::new(input),
                    group,
                    aggs,
                },
                identity,
            ))
        }
        LogicalPlan::Join {
            left,
            right,
            left_keys,
            right_keys,
            join_type,
            sip,
        } => {
            // The join output is the concatenation of both inputs; keep
            // everything required above plus the key columns on each side.
            let left_width = left.output_schema()?.len();
            let mut left_need: BTreeSet<usize> = required
                .iter()
                .copied()
                .filter(|&i| i < left_width)
                .collect();
            let mut right_need: BTreeSet<usize> = required
                .iter()
                .copied()
                .filter(|&i| i >= left_width)
                .map(|i| i - left_width)
                .collect();
            for k in &left_keys {
                add_refs(k, &mut left_need);
            }
            for k in &right_keys {
                add_refs(k, &mut right_need);
            }
            let (left, lmap) = prune(*left, &left_need)?;
            let (right, rmap) = prune(*right, &right_need)?;
            let new_left_width = left.output_schema()?.len();
            let left_keys = left_keys
                .into_iter()
                .map(|e| remap_expr(e, &lmap))
                .collect();
            let right_keys = right_keys
                .into_iter()
                .map(|e| remap_expr(e, &rmap))
                .collect();
            // Combined old→new mapping over the concatenated output.
            let mut mapping = vec![usize::MAX; left_width + rmap.len()];
            for (old, &new) in lmap.iter().enumerate() {
                if new != usize::MAX {
                    mapping[old] = new;
                }
            }
            for (old, &new) in rmap.iter().enumerate() {
                if new != usize::MAX {
                    mapping[left_width + old] = new_left_width + new;
                }
            }
            Ok((
                LogicalPlan::Join {
                    left: Box::new(left),
                    right: Box::new(right),
                    left_keys,
                    right_keys,
                    join_type,
                    sip,
                },
                mapping,
            ))
        }
    }
}

// ---------------------------------------------------------------------------
// Sideways information passing (join-filter marking)
// ---------------------------------------------------------------------------

/// Marks INNER equi-joins whose probe (left) side reaches a bare scan
/// through Filter nodes only. The physical planner uses the mark to build
/// the join's hash table first, derive a Bloom filter + key min/max from
/// it, and attach that as a scan-side pre-filter — rows that cannot join
/// are dropped segment-by-segment before they ever reach the probe.
///
/// Only INNER joins qualify (a LEFT join must emit unmatched probe rows,
/// so dropping them at the scan would change results) and every left key
/// must be a bare column reference the scan's projection can map back to
/// a table ordinal. Join and scan are linked by a plan-unique `join_id`.
fn mark_sideways_joins(plan: LogicalPlan, next_id: &mut u32) -> LogicalPlan {
    match plan {
        LogicalPlan::Join {
            left,
            right,
            left_keys,
            right_keys,
            join_type,
            sip,
        } => {
            let mut left = mark_sideways_joins(*left, next_id);
            let right = mark_sideways_joins(*right, next_id);
            let mut sip = sip;
            if join_type == JoinType::Inner && sip.is_none() {
                let cols: Option<Vec<usize>> = left_keys
                    .iter()
                    .map(|e| match e {
                        Expr::Column(c) => Some(*c),
                        _ => None,
                    })
                    .collect();
                if let Some(cols) = cols {
                    let id = *next_id;
                    let (marked, attached) = attach_sip(left, &cols, id);
                    left = marked;
                    if attached {
                        *next_id += 1;
                        sip = Some(id);
                    }
                }
            }
            LogicalPlan::Join {
                left: Box::new(left),
                right: Box::new(right),
                left_keys,
                right_keys,
                join_type,
                sip,
            }
        }
        LogicalPlan::Filter { input, predicate } => LogicalPlan::Filter {
            input: Box::new(mark_sideways_joins(*input, next_id)),
            predicate,
        },
        LogicalPlan::Project { input, exprs } => LogicalPlan::Project {
            input: Box::new(mark_sideways_joins(*input, next_id)),
            exprs,
        },
        LogicalPlan::Aggregate { input, group, aggs } => LogicalPlan::Aggregate {
            input: Box::new(mark_sideways_joins(*input, next_id)),
            group,
            aggs,
        },
        LogicalPlan::Sort { input, keys } => LogicalPlan::Sort {
            input: Box::new(mark_sideways_joins(*input, next_id)),
            keys,
        },
        LogicalPlan::Limit {
            input,
            offset,
            limit,
        } => LogicalPlan::Limit {
            input: Box::new(mark_sideways_joins(*input, next_id)),
            offset,
            limit,
        },
        scan @ LogicalPlan::Scan { .. } => scan,
    }
}

/// Walks the probe side through Filter-only chains to an unmarked scan and
/// records the join's key columns there (as table ordinals). Filters do
/// not reshape their input, so the join's plan ordinals are the scan's
/// output ordinals; `projection` maps those back to table ordinals. Any
/// unmappable key (or a scan already feeding another join's filter) means
/// no mark.
fn attach_sip(plan: LogicalPlan, plan_cols: &[usize], id: u32) -> (LogicalPlan, bool) {
    match plan {
        LogicalPlan::Filter { input, predicate } => {
            let (input, attached) = attach_sip(*input, plan_cols, id);
            (
                LogicalPlan::Filter {
                    input: Box::new(input),
                    predicate,
                },
                attached,
            )
        }
        LogicalPlan::Scan {
            table,
            table_schema,
            projection,
            pushdown,
            sip: None,
            access,
            slots,
        } => {
            let mapped: Option<Vec<usize>> = plan_cols
                .iter()
                .map(|&c| projection.get(c).copied())
                .collect();
            let attached = mapped.is_some();
            (
                LogicalPlan::Scan {
                    table,
                    table_schema,
                    projection,
                    pushdown,
                    sip: mapped.map(|key_columns| SipScan {
                        join_id: id,
                        key_columns,
                    }),
                    access,
                    slots,
                },
                attached,
            )
        }
        other => (other, false),
    }
}

/// Shifts every column ordinal down by `by` (join-output → right-input).
fn shift_expr(e: Expr, by: usize) -> Expr {
    match e {
        Expr::Column(i) => Expr::Column(i - by),
        leaf @ (Expr::Literal(_) | Expr::Param(..)) => leaf,
        Expr::Binary { op, left, right } => Expr::Binary {
            op,
            left: Box::new(shift_expr(*left, by)),
            right: Box::new(shift_expr(*right, by)),
        },
        Expr::Unary { op, expr } => Expr::Unary {
            op,
            expr: Box::new(shift_expr(*expr, by)),
        },
        Expr::IsNull(x) => Expr::IsNull(Box::new(shift_expr(*x, by))),
        Expr::IsNotNull(x) => Expr::IsNotNull(Box::new(shift_expr(*x, by))),
    }
}

fn add_refs(e: &Expr, out: &mut BTreeSet<usize>) {
    let mut cols = Vec::new();
    e.referenced_columns(&mut cols);
    out.extend(cols);
}

fn remap_expr(e: Expr, mapping: &[usize]) -> Expr {
    match e {
        Expr::Column(i) => {
            let new = mapping.get(i).copied().unwrap_or(i);
            Expr::Column(if new == usize::MAX { i } else { new })
        }
        leaf @ (Expr::Literal(_) | Expr::Param(..)) => leaf,
        Expr::Binary { op, left, right } => Expr::Binary {
            op,
            left: Box::new(remap_expr(*left, mapping)),
            right: Box::new(remap_expr(*right, mapping)),
        },
        Expr::Unary { op, expr } => Expr::Unary {
            op,
            expr: Box::new(remap_expr(*expr, mapping)),
        },
        Expr::IsNull(x) => Expr::IsNull(Box::new(remap_expr(*x, mapping))),
        Expr::IsNotNull(x) => Expr::IsNotNull(Box::new(remap_expr(*x, mapping))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use crate::plan::{bind_select, CatalogView};
    use oltap_common::hash::FxHashMap;
    use oltap_common::schema::SchemaRef;
    use oltap_common::{DataType, DbError, Field, Schema};
    use oltap_storage::ScanPredicate;
    use std::sync::Arc;

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
            "t".to_string(),
            Arc::new(Schema::new(vec![
                Field::new("a", DataType::Int64),
                Field::new("b", DataType::Int64),
                Field::new("c", DataType::Utf8),
                Field::new("d", DataType::Float64),
            ])),
        );
        tables.insert(
            "u".to_string(),
            Arc::new(Schema::new(vec![
                Field::new("x", DataType::Int64),
                Field::new("y", DataType::Utf8),
            ])),
        );
        // Keyed tables, for the access-path choice.
        tables.insert(
            "k".to_string(),
            Arc::new(
                Schema::with_primary_key(
                    vec![
                        Field::not_null("id", DataType::Int64),
                        Field::new("v", DataType::Int64),
                    ],
                    &["id"],
                )
                .unwrap(),
            ),
        );
        tables.insert(
            "k2".to_string(),
            Arc::new(
                Schema::with_primary_key(
                    vec![
                        Field::not_null("w", DataType::Int64),
                        Field::not_null("d", DataType::Int64),
                        Field::new("v", DataType::Utf8),
                    ],
                    &["w", "d"],
                )
                .unwrap(),
            ),
        );
        TestCatalog { tables }
    }

    fn optimized(sql: &str) -> LogicalPlan {
        let stmt = parse(sql).unwrap();
        let sel = match stmt {
            crate::ast::Statement::Select(s) => s,
            _ => unreachable!(),
        };
        optimize(bind_select(&sel, &catalog()).unwrap()).unwrap()
    }

    fn find_scan(p: &LogicalPlan) -> (&Vec<usize>, &ScanPredicate) {
        match p {
            LogicalPlan::Scan {
                projection,
                pushdown,
                ..
            } => (projection, pushdown),
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Project { input, .. }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Aggregate { input, .. }
            | LogicalPlan::Limit { input, .. } => find_scan(input),
            LogicalPlan::Join { left, .. } => find_scan(left),
        }
    }

    #[test]
    fn folds_constants() {
        let e = fold_expr(Expr::binary(
            BinOp::Mul,
            Expr::binary(BinOp::Add, Expr::lit(2i64), Expr::lit(3i64)),
            Expr::lit(4i64),
        ));
        assert_eq!(e, Expr::Literal(Value::Int(20)));
        // Boolean identities.
        let e = fold_expr(Expr::lit(true).and(Expr::col(0)));
        assert_eq!(e, Expr::col(0));
        // Division by zero must NOT fold.
        let e = fold_expr(Expr::binary(BinOp::Div, Expr::lit(1i64), Expr::lit(0i64)));
        assert!(matches!(e, Expr::Binary { .. }));
    }

    #[test]
    fn pushdown_simple_comparisons() {
        let p = optimized("SELECT a FROM t WHERE a > 5 AND b <= 10 AND c = 'x'");
        let (_, pushdown) = find_scan(&p);
        assert_eq!(pushdown.conjuncts.len(), 3);
        // No residual Filter should remain.
        assert!(!p.explain().contains("Filter"));
    }

    #[test]
    fn pushdown_flips_literal_first() {
        let p = optimized("SELECT a FROM t WHERE 5 < a");
        let (_, pushdown) = find_scan(&p);
        assert_eq!(pushdown.conjuncts[0].op, CmpOp::Gt);
        assert_eq!(pushdown.conjuncts[0].value, Value::Int(5));
    }

    #[test]
    fn is_not_null_pushed_as_at_least_the_least_value() {
        let p = optimized("SELECT b FROM t WHERE a IS NOT NULL AND c IS NOT NULL AND d IS NOT NULL");
        assert!(!p.explain().contains("Filter"), "{}", p.explain());
        let (_, pushdown) = find_scan(&p);
        let least = [
            Value::Int(i64::MIN),
            Value::Str(String::new()),
            Value::Float(f64::from_bits(u64::MAX)),
        ];
        for (c, (column, least)) in pushdown.conjuncts.iter().zip([0, 2, 3].into_iter().zip(least)) {
            assert_eq!((c.column, c.op, &c.value), (column, CmpOp::Ge, &least));
        }
        // Every non-NULL value passes, NULL does not — the negative NaN of
        // largest payload included, the first float in the total order.
        let d = &pushdown.conjuncts[2];
        for v in [f64::NEG_INFINITY, -f64::NAN, f64::from_bits(u64::MAX), 0.0] {
            assert!(d.matches_row(&oltap_common::Row::new(vec![
                Value::Null,
                Value::Null,
                Value::Null,
                Value::Float(v)
            ])));
        }
        // IS NULL and IS NOT NULL of an expression stay with the executor.
        let p = optimized("SELECT a FROM t WHERE a IS NULL AND a + b IS NOT NULL");
        assert!(find_scan(&p).1.is_trivial());
    }

    #[test]
    fn residual_stays_in_filter() {
        // a + b = 3 is not a simple column-literal comparison.
        let p = optimized("SELECT a FROM t WHERE a > 5 AND a + b = 3");
        let (_, pushdown) = find_scan(&p);
        assert_eq!(pushdown.conjuncts.len(), 1);
        assert!(p.explain().contains("Filter"));
    }

    #[test]
    fn or_predicates_not_pushed() {
        let p = optimized("SELECT a FROM t WHERE a > 5 OR b < 2");
        let (_, pushdown) = find_scan(&p);
        assert!(pushdown.is_trivial());
        assert!(p.explain().contains("Filter"));
    }

    #[test]
    fn projection_pruned_to_referenced_columns() {
        let p = optimized("SELECT a FROM t WHERE d > 0.5");
        let (projection, pushdown) = find_scan(&p);
        // Needs a (projected) and d (pushed down, evaluated in storage →
        // not needed in the output!).
        assert_eq!(pushdown.conjuncts.len(), 1);
        assert_eq!(pushdown.conjuncts[0].column, 3); // table ordinal of d
        assert_eq!(projection, &vec![0]);
    }

    #[test]
    fn pruning_keeps_residual_filter_columns() {
        let p = optimized("SELECT a FROM t WHERE a + b = 3");
        let (projection, _) = find_scan(&p);
        assert_eq!(projection, &vec![0, 1]);
    }

    #[test]
    fn pruning_under_aggregate() {
        let p = optimized("SELECT c, SUM(a) FROM t GROUP BY c");
        let (projection, _) = find_scan(&p);
        assert_eq!(projection, &vec![0, 2]); // a and c
    }

    #[test]
    fn pruning_under_join_keeps_keys() {
        let p = optimized(
            "SELECT t.a, u.y FROM t JOIN u ON t.b = u.x WHERE u.y <> 'z'",
        );
        // Left scan needs a (projected) + b (key); right needs x (key) +
        // y (projected; its predicate is pushed into storage).
        match &p {
            LogicalPlan::Project { input, .. } => match &**input {
                LogicalPlan::Join { left, right, .. } => {
                    let (lp, _) = find_scan(left);
                    let (rp, rpush) = find_scan(right);
                    assert_eq!(lp, &vec![0, 1]);
                    assert_eq!(rp, &vec![0, 1]);
                    assert_eq!(rpush.conjuncts.len(), 1);
                }
                other => panic!("expected join, got {}", other.explain()),
            },
            other => panic!("expected project, got {}", other.explain()),
        }
    }

    #[test]
    fn join_side_filters_pushed_through() {
        // WHERE references only the right side; the binder put the Filter
        // above the Join, so the conjunct cannot reach the right scan's
        // pushdown — but the plan must still be correct.
        let p = optimized("SELECT t.a FROM t JOIN u ON t.b = u.x WHERE t.a > 1");
        let total: usize = p.output_schema().unwrap().len();
        assert_eq!(total, 1);
    }

    #[test]
    fn sip_marks_inner_equi_join_probe_scan() {
        let p = optimized("SELECT t.a, u.y FROM t JOIN u ON t.b = u.x");
        let e = p.explain();
        // Both the join and its probe scan carry the same filter id.
        assert!(e.contains("sip=#0"), "{e}");
        fn find_sip(p: &LogicalPlan) -> Option<&crate::plan::SipScan> {
            match p {
                LogicalPlan::Scan { sip, .. } => sip.as_ref(),
                LogicalPlan::Filter { input, .. }
                | LogicalPlan::Project { input, .. }
                | LogicalPlan::Sort { input, .. }
                | LogicalPlan::Aggregate { input, .. }
                | LogicalPlan::Limit { input, .. } => find_sip(input),
                LogicalPlan::Join { left, .. } => find_sip(left),
            }
        }
        let sip = find_sip(&p).expect("probe scan should be marked");
        assert_eq!(sip.join_id, 0);
        // The key is t.b → table ordinal 1, even though the pruned scan
        // projects [a, b] and the join key is plan ordinal 1 of the scan.
        assert_eq!(sip.key_columns, vec![1]);
    }

    #[test]
    fn sip_not_marked_for_left_join() {
        let p = optimized("SELECT t.a, u.y FROM t LEFT JOIN u ON t.b = u.x");
        assert!(!p.explain().contains("sip="), "{}", p.explain());
    }

    #[test]
    fn sip_survives_residual_probe_filter() {
        // A residual (non-pushable) filter between join and scan must not
        // block the mark: Filters do not reshape ordinals.
        let p = optimized("SELECT t.a FROM t JOIN u ON t.b = u.x WHERE t.a + t.b = 3");
        assert!(p.explain().contains("sip=#0"), "{}", p.explain());
    }

    fn find_access(p: &LogicalPlan) -> &AccessPath {
        match p {
            LogicalPlan::Scan { access, .. } => access,
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Project { input, .. }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Aggregate { input, .. }
            | LogicalPlan::Limit { input, .. } => find_access(input),
            LogicalPlan::Join { left, .. } => find_access(left),
        }
    }

    #[test]
    fn pk_point_chosen_for_full_key_equality() {
        use oltap_common::row;
        for (sql, key) in [
            ("SELECT v FROM k WHERE id = 7", row![7i64]),
            ("SELECT v FROM k WHERE 7 = id AND v > 1", row![7i64]),
            ("SELECT v FROM k WHERE id = 3 + 4", row![7i64]), // folded first
            ("SELECT v FROM k WHERE id = 7 AND id = 8", row![7i64]),
            ("SELECT v FROM k WHERE id = 7 AND v + id = 9", row![7i64]), // residual Filter above
            ("SELECT v FROM k2 WHERE d = 2 AND w = 1", row![1i64, 2i64]),
            ("SELECT COUNT(*) FROM k WHERE id = 7", row![7i64]),
            (
                "SELECT k.v, u.y FROM k JOIN u ON k.v = u.x WHERE k.id = 7",
                row![7i64],
            ),
        ] {
            let p = optimized(sql);
            assert_eq!(find_access(&p), &AccessPath::PkPoint { key }, "{sql}");
            assert!(
                p.explain().contains("access=pk-point key="),
                "{}",
                p.explain()
            );
        }
    }

    #[test]
    fn full_scan_kept_for_everything_else() {
        for sql in [
            "SELECT v FROM k",
            "SELECT v FROM k WHERE v = 7",            // not the key
            "SELECT v FROM k WHERE id > 7",           // range
            "SELECT v FROM k WHERE id <> 7",          // inequality
            "SELECT v FROM k WHERE id = 7 OR id = 8", // disjunction: not pushed
            "SELECT v FROM k WHERE id = 7.0",         // cross-typed literal
            "SELECT v FROM k WHERE id = NULL",
            "SELECT v FROM k2 WHERE w = 1", // partial composite key
            "SELECT v FROM k2 WHERE w = 1 AND d >= 2",
            "SELECT a FROM t WHERE a = 1", // no primary key
        ] {
            let p = optimized(sql);
            assert_eq!(find_access(&p), &AccessPath::FullScan, "{sql}");
            assert!(!p.explain().contains("access="), "{}", p.explain());
        }
    }

    #[test]
    fn optimized_plans_keep_schema() {
        for sql in [
            "SELECT a, b FROM t WHERE a > 1 ORDER BY d LIMIT 3",
            "SELECT c, COUNT(*) FROM t WHERE b = 2 GROUP BY c",
            "SELECT t.a, u.y FROM t LEFT JOIN u ON t.b = u.x",
        ] {
            let stmt = parse(sql).unwrap();
            let sel = match stmt {
                crate::ast::Statement::Select(s) => s,
                _ => unreachable!(),
            };
            let bound = bind_select(&sel, &catalog()).unwrap();
            let before = bound.output_schema().unwrap();
            let after = optimize(bound).unwrap().output_schema().unwrap();
            assert_eq!(before, after, "{sql}");
        }
    }
}
