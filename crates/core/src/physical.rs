//! Physical planning and execution: the engine's one lowering of an
//! optimized [`LogicalPlan`] onto the morsel pipelines of `oltap-exec`.
//!
//! A plan is decomposed at **pipeline breakers** (hash-join build,
//! aggregate, sort / top-K) into a sequence of pipelines, innermost first.
//! Each pipeline is a [`Source`] of morsels — a scan's are its table's
//! `(segment, row group, rows)` pieces and then its delta's (or a row
//! store's) rows, a breaker's its output batches — a chain of streaming
//! [`StageSpec`]s (filter / project / join probe), and a sink chosen by the
//! breaker above it. `oltap_exec::pipeline` runs it: the statement's thread
//! and the catalog's [helpers](Catalog::helpers) claim the morsels, each
//! selecting and gathering only the rows it claimed, with results
//! byte-identical at every worker count.
//!
//! Physical decisions beyond 1:1 lowering:
//!
//! * `Limit(Sort) → TopK`, the bounded-heap optimization for
//!   dashboard-style `ORDER BY ... LIMIT k` queries with `k` up to a batch —
//!   through the projections SQL plans between the two, applied to the `k`
//!   rows.
//! * `Aggregate(Scan)` over a columnar table runs fused over the encoded
//!   segments when its shape qualifies (`try_fused_aggregate`).
//! * A scan the optimizer marked [`AccessPath::PkPoint`] is answered by a
//!   key lookup and a re-check (`point_get`) instead of the table scan.
//! * Sideways information passing for joins the optimizer marked: the
//!   build pipeline runs *before* the probe side is decomposed, its
//!   [`JoinTable`](oltap_exec::JoinTable) yields a Bloom-filter
//!   [`JoinFilter`], and the probe-side scan carries that filter in its
//!   pushdown — storage skips or thins segments before batches ever reach
//!   the probe.

use crate::catalog::{Catalog, TableHandle};
use oltap_common::fault::FaultInjector;
use oltap_common::hash::FxHashMap;
use oltap_common::ids::TxnId;
use oltap_common::schema::{Schema, SchemaRef};
use oltap_common::vector::BATCH_SIZE;
use oltap_common::{Batch, CancellationToken, DbError, Result, Row};
use oltap_exec::pipeline::{limit_batches, ParallelContext, ProbeStage, StageSpec};
use oltap_exec::{
    fused_aggregate, join_output_schema, AggExpr, AggregatorCore, ExecResources, Expr, Fused,
    RunningGroups, Source,
};
use oltap_sql::{AccessPath, LogicalPlan};
use oltap_storage::{JoinFilter, ScanPredicate};
use oltap_txn::Ts;
use std::sync::Arc;

/// Execution-time context: the snapshot the query reads at, plus the
/// cancellation, memory and fault plumbing its pipelines run under (who
/// helps the statement's thread is [`Catalog::helpers`]'s to say).
#[derive(Clone)]
pub struct ExecContext {
    /// Snapshot timestamp.
    pub read_ts: Ts,
    /// Transaction identity (sees its own uncommitted writes).
    pub me: TxnId,
    /// Batch size for scans.
    pub batch_size: usize,
    /// Cancellation/deadline token, checked at every morsel boundary;
    /// [`CancellationToken::none`] for unguarded execution.
    pub cancel: CancellationToken,
    /// Memory budget + spill directory for the pipeline breakers;
    /// [`ExecResources::unlimited`] for unmetered execution.
    pub mem: ExecResources,
    /// Fault injector probed at morsel and join-build boundaries and by
    /// the fused kernels (forcing their scalar fallback);
    /// [`FaultInjector::disabled`] outside chaos tests.
    pub faults: Arc<FaultInjector>,
}

/// A decomposed pipeline: source morsels, the streaming stage chain to run
/// over each, and the schema of the chain's output.
struct Pipeline {
    source: Source,
    stages: Vec<StageSpec>,
    schema: SchemaRef,
}

impl Pipeline {
    /// A pipeline of no stages yet over `source`: a scan's morsels, or
    /// batches already at hand — a breaker's output, a key lookup's row, a
    /// distributed statement's leaf.
    fn of(source: impl Into<Source>, schema: SchemaRef) -> Pipeline {
        Pipeline {
            source: source.into(),
            stages: Vec::new(),
            schema,
        }
    }

    /// The pipeline with a projection computing `exprs` appended.
    fn project(mut self, exprs: &[(Expr, String)]) -> Result<Pipeline> {
        let (stage, schema) = StageSpec::project(exprs, &self.schema)?;
        self.stages.push(stage);
        self.schema = schema;
        Ok(self)
    }
}

/// The state one plan's decomposition threads through its recursion.
struct Lowering<'a> {
    catalog: &'a Catalog,
    ctx: &'a ExecContext,
    pctx: ParallelContext,
    /// Join filters published by sideways-marked joins, keyed by join id,
    /// for the probe-side scans decomposed after them.
    sips: FxHashMap<u32, JoinFilter>,
    /// A node of the plan (by address) and the batches that stand for it: a
    /// distributed statement's cut, answered by the shards.
    leaf: Option<(&'a LogicalPlan, Vec<Batch>)>,
}

/// Executes `plan` at `ctx`'s snapshot and returns its non-empty result
/// batches in order.
pub fn execute_plan(
    plan: &LogicalPlan,
    catalog: &Catalog,
    ctx: &ExecContext,
) -> Result<Vec<Batch>> {
    execute_above(plan, None, catalog, ctx)
}

/// [`execute_plan`] with the node `leaf` names answered by the batches
/// beside it: what a distributed statement runs above its cut.
pub fn execute_above(
    plan: &LogicalPlan,
    leaf: Option<(&LogicalPlan, Vec<Batch>)>,
    catalog: &Catalog,
    ctx: &ExecContext,
) -> Result<Vec<Batch>> {
    let mut lowering = Lowering::new(catalog, ctx, leaf);
    let p = lowering.decompose(plan)?;
    let batches = lowering.drain(p)?;
    Ok(batches.into_iter().filter(|b| !b.is_empty()).collect())
}

/// What one partition hands up for a plan fragment: its root `Aggregate`'s
/// groups, sealed but not finished, or — any other root — its batches.
/// Partitions [`merge`](Partial::merge) in order and [`finish`](Partial::finish) once.
pub enum Partial {
    /// The fragment's root was an `Aggregate`.
    Groups(Box<RunningGroups>),
    /// The fragment's root was anything else.
    Batches(Vec<Batch>),
}

impl Partial {
    /// Folds the next partition's answer to the same fragment into this one.
    pub fn merge(&mut self, next: Partial) -> Result<()> {
        match (self, next) {
            (Partial::Groups(mine), Partial::Groups(theirs)) => mine.merge(*theirs),
            (Partial::Batches(mine), Partial::Batches(theirs)) => {
                mine.extend(theirs);
                Ok(())
            }
            _ => Err(DbError::Execution("merging partials of different fragments".into())),
        }
    }

    /// The fragment's batches, as the operator above it would be handed them.
    pub fn finish(self) -> Result<Vec<Batch>> {
        match self {
            Partial::Groups(groups) => groups.finish(),
            Partial::Batches(batches) => Ok(batches),
        }
    }
}

/// Executes the fragment rooted at `cut` at `ctx`'s snapshot; an
/// `Aggregate` root stops at its sealed groups (spilled rows replayed here,
/// under this partition's budget) instead of finishing them.
pub fn execute_fragment(cut: &LogicalPlan, catalog: &Catalog, ctx: &ExecContext) -> Result<Partial> {
    let mut lowering = Lowering::new(catalog, ctx, None);
    if let LogicalPlan::Aggregate { input, group, aggs } = cut {
        let mut groups = lowering.aggregate(input, group, aggs)?;
        return groups.seal().map(|()| Partial::Groups(Box::new(groups)));
    }
    let p = lowering.decompose(cut)?;
    lowering.drain(p).map(Partial::Batches)
}

impl<'a> Lowering<'a> {
    fn new(catalog: &'a Catalog, ctx: &'a ExecContext, leaf: Option<(&'a LogicalPlan, Vec<Batch>)>) -> Self {
        Lowering {
            catalog,
            ctx,
            pctx: ParallelContext {
                helpers: catalog.helpers().clone(),
                cancel: ctx.cancel.clone(),
                faults: Arc::clone(&ctx.faults),
                mem: ctx.mem.clone(),
            },
            sips: FxHashMap::default(),
            leaf,
        }
    }

    /// Runs a pipeline into batches, in morsel order; batches no stage
    /// changes are handed on as they are. Handing over batches is a batch
    /// boundary too: a cancelled query never returns a result.
    fn drain(&self, mut p: Pipeline) -> Result<Vec<Batch>> {
        self.ctx.cancel.check()?;
        if p.stages.is_empty() {
            if let Some(batches) = p.source.take_tail() {
                return Ok(batches);
            }
        }
        self.pctx.run_collect(p.source, p.stages)
    }

    /// Recursively decomposes a plan. Streaming operators extend the
    /// current pipeline's stage chain; pipeline breakers run the chain
    /// built so far through their sink and start a fresh pipeline over the
    /// materialized result.
    fn decompose(&mut self, plan: &LogicalPlan) -> Result<Pipeline> {
        if let Some((_, batches)) = self.leaf.take_if(|(node, _)| std::ptr::eq(*node, plan)) {
            return Ok(Pipeline::of(batches, plan.output_schema()?));
        }
        Ok(match plan {
            LogicalPlan::Scan {
                table,
                projection,
                pushdown,
                sip,
                access,
                ..
            } => {
                let handle = self.catalog.get(table)?;
                // Attach the sideways join filter registered by the join
                // breaker this scan feeds (builds run before probe-side
                // decomposition, so the filter is ready here).
                let sip_pushdown = sip.as_ref().and_then(|s| {
                    self.sips.get(&s.join_id).map(|template| {
                        let mut jf = template.clone();
                        jf.columns = s.key_columns.clone();
                        pushdown.clone().with_join(jf)
                    })
                });
                let pushdown = sip_pushdown.as_ref().unwrap_or(pushdown);
                let ctx = self.ctx;
                let schema = plan.output_schema()?;
                let source = match access {
                    AccessPath::PkPoint { key } => {
                        point_get(&handle, key, projection, &schema, pushdown, ctx)?.into()
                    }
                    AccessPath::FullScan => {
                        handle.source(projection, pushdown, ctx.read_ts, ctx.me, ctx.batch_size)?
                    }
                };
                Pipeline::of(source, schema)
            }
            LogicalPlan::Filter { input, predicate } => {
                let mut p = self.decompose(input)?;
                p.stages
                    .push(StageSpec::filter(predicate.clone(), &p.schema)?);
                p
            }
            LogicalPlan::Project { input, exprs } => self.decompose(input)?.project(exprs)?,
            LogicalPlan::Aggregate { input, group, aggs } => {
                let groups = self.aggregate(input, group, aggs)?;
                let schema = groups.schema();
                Pipeline::of(groups.finish()?, schema)
            }
            LogicalPlan::Join {
                left,
                right,
                left_keys,
                right_keys,
                join_type,
                sip,
            } => {
                if left_keys.len() != right_keys.len() || left_keys.is_empty() {
                    return Err(DbError::Plan(
                        "join requires one or more positionally paired keys".into(),
                    ));
                }
                // Build pipeline first, then extend the probe-side
                // pipeline in place. Per-worker build sinks merge into one
                // deterministic JoinTable.
                let build = self.decompose(right)?;
                let table = Arc::new(self.pctx.run_join_build(
                    build.source,
                    build.stages,
                    right_keys.clone(),
                    build.schema.len(),
                )?);
                if let Some(id) = sip {
                    // Publish the Bloom filter for the probe-side scan
                    // before the probe pipeline is decomposed.
                    self.sips.insert(*id, table.filter(Vec::new()));
                }
                let mut p = self.decompose(left)?;
                let schema = join_output_schema(&p.schema, &build.schema, *join_type);
                p.stages.push(StageSpec::Probe(Arc::new(ProbeStage {
                    table,
                    keys: left_keys.clone(),
                    join_type: *join_type,
                    schema: Arc::clone(&schema),
                })));
                p.schema = schema;
                p
            }
            LogicalPlan::Sort { input, keys } => {
                let p = self.decompose(input)?;
                let batches =
                    self.pctx
                        .run_sort(p.source, p.stages, keys.clone(), Arc::clone(&p.schema))?;
                Pipeline::of(batches, p.schema)
            }
            LogicalPlan::Limit {
                input,
                offset,
                limit,
            } => {
                // Physical rewrite: Limit(Project*(Sort(x))) with offset 0 →
                // top-K sink, whose unbudgeted heaps keep at most a batch of
                // rows each; a larger k sorts (budgeted, spilling) and slices.
                if *offset == 0 && *limit <= BATCH_SIZE {
                    if let Some(p) = self.top_k(input, *limit)? {
                        return Ok(p);
                    }
                }
                // General limit/offset is inherently sequential and cheap:
                // slice the morsel-ordered stream.
                let p = self.decompose(input)?;
                let schema = Arc::clone(&p.schema);
                let ordered = self.drain(p)?;
                Pipeline::of(limit_batches(ordered, *offset, *limit), schema)
            }
        })
    }

    /// The first `k` rows of `plan` from a top-K sink, when `plan` is a
    /// sort under projections (which work row by row, so they commute with
    /// the limit); `None` for any other plan.
    fn top_k(&mut self, plan: &LogicalPlan, k: usize) -> Result<Option<Pipeline>> {
        match plan {
            LogicalPlan::Project { input, exprs } => self.top_k(input, k)?.map(|p| p.project(exprs)).transpose(),
            LogicalPlan::Sort { input, keys } => {
                let p = self.decompose(input)?;
                let schema = Arc::clone(&p.schema);
                let batches = self.pctx.run_topk(p.source, p.stages, keys.clone(), k, p.schema)?;
                Ok(Some(Pipeline::of(batches, schema)))
            }
            _ => Ok(None),
        }
    }

    /// An `Aggregate`'s groups, every input row folded in: fused over the
    /// encoded segments when the shape qualifies, else by the pipelines'
    /// sink. The lowering finishes them; [`execute_fragment`] does not.
    fn aggregate(
        &mut self,
        input: &LogicalPlan,
        group: &[(Expr, String)],
        aggs: &[AggExpr],
    ) -> Result<RunningGroups> {
        if let Some(fused) = self.try_fused_aggregate(input, group, aggs)? {
            return Ok(fused.groups);
        }
        let p = self.decompose(input)?;
        let core = Arc::new(AggregatorCore::new(&p.schema, group.to_vec(), aggs.to_vec())?);
        self.pctx.run_aggregate(p.source, p.stages, core)
    }

    /// Attempts the fused operate-on-compressed path for an
    /// `Aggregate(Scan)` plan over a delta-main table: group keys and
    /// aggregate inputs are read straight from the encoded segments, then
    /// the delta's rows, in stripes (see `oltap_exec::fused`) — on the
    /// catalog's [helpers](Catalog::helpers) too when the segments are held
    /// — into the [`RunningGroups`] that stand for the whole subtree;
    /// beside them, which path each piece took and what the helpers did.
    /// Returns `None` — fall back to the pipelines — when the shape doesn't
    /// qualify (non-column expressions, non-columnar tables, a scan
    /// carrying a sideways join filter, or one the optimizer answers with a
    /// key lookup) or the memory governor refuses one of its groups during
    /// the segment walk (refused one while folding the delta, the store
    /// freezes and spills like any other).
    fn try_fused_aggregate(
        &self,
        input: &LogicalPlan,
        group: &[(Expr, String)],
        aggs: &[AggExpr],
    ) -> Result<Option<Fused>> {
        let ctx = self.ctx;
        let LogicalPlan::Scan {
            table,
            projection,
            pushdown,
            sip,
            access,
            ..
        } = input
        else {
            return Ok(None);
        };
        if sip.is_some() || *access != AccessPath::FullScan {
            return Ok(None);
        }
        let handle = self.catalog.get(table)?;
        if !matches!(handle, TableHandle::Column(_)) {
            return Ok(None);
        }
        let input_schema = input.output_schema()?;
        let core = Arc::new(AggregatorCore::new(&input_schema, group.to_vec(), aggs.to_vec())?);
        if !core.reads_bare_columns() {
            return Ok(None);
        }
        let source = handle.source(projection, pushdown, ctx.read_ts, ctx.me, ctx.batch_size)?;
        // `None` from the walk: the governor refused a group mid-walk. The
        // attempt has published nothing and handed back what it reserved:
        // the statement runs through the pipelines, whose sink is the same
        // store fed row by row, and spills. (Any other refusal — the buffer
        // pool's, say — is the statement's error.)
        fused_aggregate(&core, source, &self.pctx)
    }
}

/// The [`AccessPath::PkPoint`] access method: the scan's answer — validated
/// predicate, snapshot visibility, projection, cancellation — for a
/// pushdown that pins the whole primary key, from one keyed lookup. The key
/// only nominates a row; the *whole* pushdown (residual conjuncts,
/// contradictory key conjuncts, the sideways join filter) is re-checked
/// against it, so the result is the scan's: that row in one batch, or none.
fn point_get(
    handle: &TableHandle,
    key: &Row,
    projection: &[usize],
    projected: &Schema,
    pred: &ScanPredicate,
    ctx: &ExecContext,
) -> Result<Vec<Batch>> {
    ctx.cancel.check()?;
    // What every `scan` does first. The optimizer only marks pushdowns
    // whose literals are exactly typed, but the plan is a public value and
    // the join filter arrives at run time: a bad ordinal or a mistyped
    // literal is the scan's typed error, not an empty answer.
    pred.validate(handle.schema())?;
    match handle.get(key, ctx.read_ts, ctx.me)? {
        Some(row) if pred.matches_row(&row) => Ok(vec![Batch::from_rows(
            projected,
            &[row.project(projection)],
        )?]),
        _ => Ok(Vec::new()),
    }
}

/// Default execution context for a snapshot read: unguarded and
/// unmetered.
pub fn snapshot_ctx(read_ts: Ts) -> ExecContext {
    ExecContext {
        read_ts,
        me: TxnId(u64::MAX - 8),
        batch_size: oltap_common::vector::BATCH_SIZE,
        cancel: CancellationToken::none(),
        mem: ExecResources::unlimited(),
        faults: FaultInjector::disabled(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{TableFormat, TableHandle};
    use oltap_common::row;
    use oltap_common::{DataType, Field, Row, Schema, Value};
    use oltap_sched::WorkerPool;
    use oltap_sql::{bind_select, optimize, parse, Statement};
    use oltap_txn::TransactionManager;

    /// `t`: 500 columnar rows (`id`, `grp` cycling a/b/c, `v = id % 10`);
    /// `dim`: a row-store dimension labelling groups a and b only.
    fn setup() -> (Arc<TransactionManager>, Catalog) {
        let mgr = Arc::new(TransactionManager::new());
        let mut cat = Catalog::new();
        let schema = Arc::new(
            Schema::with_primary_key(
                vec![
                    Field::not_null("id", DataType::Int64),
                    Field::new("grp", DataType::Utf8),
                    Field::new("v", DataType::Int64),
                ],
                &["id"],
            )
            .unwrap(),
        );
        let h = TableHandle::create(schema, TableFormat::Column).unwrap();
        let tx = mgr.begin();
        for i in 0..500 {
            h.insert(&tx, row![i as i64, ["a", "b", "c"][i % 3], (i % 10) as i64])
                .unwrap();
        }
        tx.commit().unwrap();
        cat.create("t", h).unwrap();

        let dim_schema = Arc::new(
            Schema::with_primary_key(
                vec![
                    Field::not_null("g", DataType::Utf8),
                    Field::new("label", DataType::Utf8),
                ],
                &["g"],
            )
            .unwrap(),
        );
        let d = TableHandle::create(dim_schema, TableFormat::Row).unwrap();
        let tx = mgr.begin();
        for (g, l) in [("a", "alpha"), ("b", "beta")] {
            d.insert(&tx, row![g, l]).unwrap();
        }
        tx.commit().unwrap();
        cat.create("dim", d).unwrap();
        (mgr, cat)
    }

    fn plan_for(sql: &str, cat: &Catalog) -> LogicalPlan {
        let stmt = parse(sql).unwrap();
        let sel = match stmt {
            Statement::Select(s) => s,
            other => panic!("{other:?}"),
        };
        optimize(bind_select(&sel, cat).unwrap()).unwrap()
    }

    /// A snapshot context for statements over `cat` at `workers` workers:
    /// the statement's thread alone for one, beside a dedicated pool's
    /// otherwise, lent through the catalog.
    fn ctx_at(mgr: &TransactionManager, cat: &mut Catalog, workers: usize) -> ExecContext {
        cat.set_helpers(oltap_exec::Helpers {
            pool: (workers > 1).then(|| Arc::new(WorkerPool::new(workers))),
            gate: None,
        });
        snapshot_ctx(mgr.now())
    }

    fn run_at(sql: &str, mgr: &TransactionManager, cat: &mut Catalog, workers: usize) -> Vec<Row> {
        let ctx = ctx_at(mgr, cat, workers);
        let batches = execute_plan(&plan_for(sql, cat), cat, &ctx).unwrap();
        batches.iter().flat_map(|b| b.to_rows()).collect()
    }

    fn run(sql: &str, mgr: &TransactionManager, cat: &Catalog) -> Vec<Row> {
        let batches = execute_plan(&plan_for(sql, cat), cat, &snapshot_ctx(mgr.now())).unwrap();
        batches.iter().flat_map(|b| b.to_rows()).collect()
    }

    #[test]
    fn end_to_end_select() {
        let (mgr, cat) = setup();
        let rows = run("SELECT id FROM t WHERE v = 3 ORDER BY id", &mgr, &cat);
        assert_eq!(rows.len(), 50);
        assert_eq!(rows[0][0], Value::Int(3));
    }

    #[test]
    fn end_to_end_aggregate() {
        let (mgr, cat) = setup();
        let rows = run(
            "SELECT grp, COUNT(*) AS n, SUM(v) AS s FROM t GROUP BY grp ORDER BY grp",
            &mgr,
            &cat,
        );
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0][0], Value::Str("a".into()));
        assert_eq!(rows[0][1], Value::Int(167));
    }

    #[test]
    fn topk_rewrite_fires() {
        let (mgr, cat) = setup();
        let rows = run("SELECT id FROM t ORDER BY id DESC LIMIT 3", &mgr, &cat);
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0][0], Value::Int(499));
        assert_eq!(rows[2][0], Value::Int(497));
    }

    #[test]
    fn limit_with_offset_not_rewritten() {
        let (mgr, cat) = setup();
        let rows = run("SELECT id FROM t ORDER BY id LIMIT 5 OFFSET 10", &mgr, &cat);
        assert_eq!(rows.len(), 5);
        assert_eq!(rows[0][0], Value::Int(10));
    }

    #[test]
    fn self_join() {
        let (mgr, cat) = setup();
        let rows = run(
            "SELECT a.id FROM t a JOIN t b ON a.id = b.id WHERE a.v > 7 ORDER BY a.id LIMIT 2",
            &mgr,
            &cat,
        );
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0][0], Value::Int(8));
    }

    #[test]
    fn point_select_is_one_lookup_rechecked() {
        let (mgr, cat) = setup();
        let plan = plan_for("SELECT grp, v FROM t WHERE id = 7", &cat);
        assert!(
            plan.explain().contains("access=pk-point key=(7)"),
            "{}",
            plan.explain()
        );
        assert_eq!(
            run("SELECT grp, v FROM t WHERE id = 7", &mgr, &cat),
            vec![row!["b", 7i64]]
        );
        // The key only nominates the row: residual, contradictory and
        // mistyped conjuncts decide as they would under the scan.
        assert!(run("SELECT v FROM t WHERE id = 7 AND grp = 'a'", &mgr, &cat).is_empty());
        assert!(run("SELECT v FROM t WHERE id = 7 AND id = 8", &mgr, &cat).is_empty());
        assert!(run("SELECT v FROM t WHERE id = 7 AND v + 1 = 0", &mgr, &cat).is_empty());
        assert!(run("SELECT v FROM t WHERE id = 777", &mgr, &cat).is_empty());
        assert_eq!(
            run("SELECT COUNT(*) FROM t WHERE id = 7", &mgr, &cat),
            vec![row![1i64]]
        );
        let mistyped = plan_for("SELECT v FROM t WHERE id = 7 AND grp = 5", &cat);
        let err = execute_plan(&mistyped, &cat, &snapshot_ctx(mgr.now())).unwrap_err();
        assert!(matches!(err, DbError::TypeMismatch { .. }), "{err:?}");
        // A hand-built plan cannot smuggle a mistyped pushdown past the
        // lookup either.
        let mut forced = mistyped;
        let LogicalPlan::Project { input, .. } = &mut forced else {
            panic!("expected Project(Scan)")
        };
        let LogicalPlan::Scan { access, .. } = input.as_mut() else {
            panic!("expected Scan")
        };
        *access = AccessPath::PkPoint { key: row![7i64] };
        let err = execute_plan(&forced, &cat, &snapshot_ctx(mgr.now())).unwrap_err();
        assert!(matches!(err, DbError::TypeMismatch { .. }), "{err:?}");
    }

    #[test]
    fn sip_join_matches_plain_filter() {
        let (mgr, cat) = setup();
        // The build side is restricted to v = 3 (50 of 500 ids), so the
        // sideways filter prunes most probe rows at the scan — but the
        // result must match the equivalent single-table query exactly.
        let joined = run(
            "SELECT a.id FROM t a JOIN t b ON a.id = b.id WHERE b.v = 3 ORDER BY a.id",
            &mgr,
            &cat,
        );
        let direct = run("SELECT id FROM t WHERE v = 3 ORDER BY id", &mgr, &cat);
        assert_eq!(joined, direct);
        assert_eq!(joined.len(), 50);
    }

    #[test]
    fn sip_empty_build_side_yields_no_rows() {
        let (mgr, cat) = setup();
        let rows = run(
            "SELECT a.id FROM t a JOIN t b ON a.id = b.id WHERE b.v = 12345",
            &mgr,
            &cat,
        );
        assert!(rows.is_empty());
    }

    #[test]
    fn join_without_paired_keys_is_rejected() {
        let (mgr, cat) = setup();
        let keyless = LogicalPlan::Join {
            left: Box::new(plan_for("SELECT * FROM t", &cat)),
            right: Box::new(plan_for("SELECT * FROM dim", &cat)),
            left_keys: vec![Expr::col(1)],
            right_keys: Vec::new(),
            join_type: oltap_exec::JoinType::Inner,
            sip: None,
        };
        let err = execute_plan(&keyless, &cat, &snapshot_ctx(mgr.now())).unwrap_err();
        assert!(matches!(err, DbError::Plan(_)), "{err:?}");
    }

    #[test]
    fn results_are_worker_count_independent_for_all_shapes() {
        let (mgr, mut cat) = setup();
        let queries = [
            "SELECT * FROM t",
            "SELECT id, v * 2 FROM t WHERE v > 4",
            "SELECT grp, COUNT(*), SUM(v), MIN(id), MAX(v) FROM t GROUP BY grp ORDER BY grp",
            "SELECT COUNT(*) FROM t WHERE v = 3",
            "SELECT id, v FROM t ORDER BY v DESC, id",
            "SELECT id FROM t ORDER BY v LIMIT 7",
            "SELECT id FROM t ORDER BY id LIMIT 5 OFFSET 13",
            "SELECT t.id, dim.label FROM t JOIN dim ON t.grp = dim.g WHERE t.v < 3 \
             ORDER BY t.id LIMIT 20",
            "SELECT t.id, dim.label FROM t LEFT JOIN dim ON t.grp = dim.g ORDER BY t.id",
            "SELECT grp, AVG(v) FROM t WHERE id < 300 GROUP BY grp ORDER BY grp",
        ];
        assert_worker_count_independent(&mgr, &mut cat, &queries);
    }

    #[test]
    fn empty_table_all_shapes() {
        let mgr = Arc::new(TransactionManager::new());
        let mut cat = Catalog::new();
        let schema = Arc::new(
            Schema::with_primary_key(
                vec![
                    Field::not_null("id", DataType::Int64),
                    Field::new("v", DataType::Int64),
                ],
                &["id"],
            )
            .unwrap(),
        );
        cat.create(
            "e",
            TableHandle::create(schema, TableFormat::Column).unwrap(),
        )
        .unwrap();
        let queries = [
            "SELECT * FROM e",
            "SELECT COUNT(*) FROM e",
            "SELECT id FROM e ORDER BY v LIMIT 3",
        ];
        assert_worker_count_independent(&mgr, &mut cat, &queries);
        // Global COUNT over empty input still yields its zero row.
        for workers in [1, 4] {
            let rows = run_at("SELECT COUNT(*) FROM e", &mgr, &mut cat, workers);
            assert_eq!(rows[0][0], Value::Int(0));
        }
    }

    /// 1 ≡ 2 ≡ 8 workers: identical rows in identical order.
    fn assert_worker_count_independent(mgr: &TransactionManager, cat: &mut Catalog, queries: &[&str]) {
        for sql in queries {
            let inline = run_at(sql, mgr, cat, 1);
            for workers in [2, 8] {
                assert_eq!(
                    inline,
                    run_at(sql, mgr, cat, workers),
                    "{sql} at workers={workers}"
                );
            }
        }
    }

    // --- the analytic statement path on a CH-shaped database ---------------

    use crate::database::{BufferConfig, Database, DbConfig};
    use oltap_common::fault::{points, FaultPoint};

    /// The benchmark's `olap_scan` statements (`benchmark/src/ch.rs`).
    const OLAP_SCAN: [(&str, &str); 7] = [
        (
            "Q1",
            "SELECT ol_quantity, COUNT(*) AS cnt, SUM(ol_amount) AS total, \
             AVG(ol_amount) AS avg_amount FROM order_line \
             GROUP BY ol_quantity ORDER BY ol_quantity",
        ),
        (
            "Q6",
            "SELECT SUM(ol_amount) AS revenue FROM order_line \
             WHERE ol_quantity >= 5 AND ol_amount > 400.0",
        ),
        (
            "Q14",
            "SELECT COUNT(*) AS n, SUM(ol_amount) AS rev FROM order_line \
             WHERE ol_delivery_d >= 1000000 AND ol_delivery_d < 2000000",
        ),
        (
            "Q15",
            "SELECT ol_w_id, SUM(ol_amount) AS v FROM order_line \
             GROUP BY ol_w_id ORDER BY v DESC LIMIT 5",
        ),
        (
            "Q2",
            "SELECT s_i_id, SUM(s_quantity) AS q FROM stock \
             WHERE s_quantity < 25 GROUP BY s_i_id ORDER BY q LIMIT 20",
        ),
        (
            "Q12",
            "SELECT o_ol_cnt, COUNT(*) AS n FROM orders \
             WHERE o_carrier_id IS NOT NULL GROUP BY o_ol_cnt ORDER BY o_ol_cnt",
        ),
        (
            "Q18",
            "SELECT c_state, COUNT(*) AS n, SUM(c_balance) AS bal FROM customer \
             GROUP BY c_state ORDER BY bal LIMIT 8",
        ),
    ];

    /// A database with the benchmark's DDL for the four tables `olap_scan`
    /// reads and its column value ranges, at three warehouses of 30
    /// customers and 30 orders a district: 6.7k order lines, so a paged
    /// `order_line` has several 1024-row groups. Merged into main segments.
    fn ch_database(buffer: Option<BufferConfig>) -> Arc<Database> {
        let db = Database::with_config(DbConfig {
            faults: Some(FaultInjector::new(0xC4)),
            buffer,
            ..DbConfig::default()
        })
        .unwrap();
        for ddl in [
            "CREATE TABLE customer (c_w_id BIGINT NOT NULL, c_d_id BIGINT NOT NULL, \
             c_id BIGINT NOT NULL, c_name TEXT, c_state TEXT, c_balance DOUBLE, \
             c_ytd_payment DOUBLE, c_payment_cnt BIGINT, \
             PRIMARY KEY (c_w_id, c_d_id, c_id)) USING FORMAT COLUMN",
            "CREATE TABLE stock (s_w_id BIGINT NOT NULL, s_i_id BIGINT NOT NULL, \
             s_quantity BIGINT, s_ytd BIGINT, s_order_cnt BIGINT, \
             PRIMARY KEY (s_w_id, s_i_id)) USING FORMAT COLUMN",
            "CREATE TABLE orders (o_w_id BIGINT NOT NULL, o_d_id BIGINT NOT NULL, \
             o_id BIGINT NOT NULL, o_c_id BIGINT, o_entry_d TIMESTAMP, \
             o_carrier_id BIGINT, o_ol_cnt BIGINT, \
             PRIMARY KEY (o_w_id, o_d_id, o_id)) USING FORMAT COLUMN",
            "CREATE TABLE order_line (ol_w_id BIGINT NOT NULL, ol_d_id BIGINT NOT NULL, \
             ol_o_id BIGINT NOT NULL, ol_number BIGINT NOT NULL, ol_i_id BIGINT, \
             ol_quantity BIGINT, ol_amount DOUBLE, ol_delivery_d TIMESTAMP, \
             PRIMARY KEY (ol_w_id, ol_d_id, ol_o_id, ol_number)) USING FORMAT COLUMN",
        ] {
            db.execute(ddl).unwrap();
        }
        // SplitMix64, as the benchmark's generator.
        let mut state = 0x0C4B_E9C4u64;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let mut range = |lo: i64, hi: i64| lo + (next() % (hi - lo + 1) as u64) as i64;
        const STATES: [&str; 8] = ["CA", "NY", "TX", "WA", "IL", "MA", "FL", "OR"];
        let int = Value::Int;
        let (mut customer, mut stock, mut orders, mut order_line) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        let mut ts = 1_000_000i64;
        for w in 1..=3 {
            for i in 1..=1000 {
                stock.push(Row::new(vec![int(w), int(i), int(range(10, 99)), int(0), int(0)]));
            }
            for d in 1..=10 {
                for c in 1..=30 {
                    customer.push(Row::new(vec![
                        int(w),
                        int(d),
                        int(c),
                        Value::Str(format!("cust-{w}-{d}-{c}")),
                        Value::Str(STATES[range(0, 7) as usize].to_string()),
                        Value::Float(-10.0),
                        Value::Float(10.0),
                        int(1),
                    ]));
                }
                for o in 1..=30 {
                    let ol_cnt = range(5, 10);
                    let carrier = if o < 21 { int(range(1, 10)) } else { Value::Null };
                    ts += range(1, 49);
                    orders.push(Row::new(vec![
                        int(w),
                        int(d),
                        int(o),
                        int(range(1, 30)),
                        Value::Timestamp(ts),
                        carrier,
                        int(ol_cnt),
                    ]));
                    for n in 1..=ol_cnt {
                        let amount = 1.0 + (range(0, (1 << 53) - 1) as f64 / (1u64 << 53) as f64) * 499.0;
                        order_line.push(Row::new(vec![
                            int(w),
                            int(d),
                            int(o),
                            int(n),
                            int(range(1, 1000)),
                            int(range(1, 10)),
                            Value::Float(amount),
                            Value::Timestamp(ts + range(0, 999)),
                        ]));
                    }
                }
            }
        }
        for (table, rows) in [
            ("customer", customer),
            ("stock", stock),
            ("orders", orders),
            ("order_line", order_line),
        ] {
            let handle = db.table(table).unwrap();
            for chunk in rows.chunks(2000) {
                let txn = db.txn_manager().begin();
                for row in chunk {
                    handle.insert(&txn, row.clone()).unwrap();
                }
                txn.commit().unwrap();
            }
        }
        db.maintenance();
        db
    }

    fn aggregate_over_scan(plan: &LogicalPlan) -> Option<&LogicalPlan> {
        match plan {
            LogicalPlan::Aggregate { input, .. } if matches!(**input, LogicalPlan::Scan { .. }) => {
                Some(plan)
            }
            LogicalPlan::Aggregate { input, .. }
            | LogicalPlan::Filter { input, .. }
            | LogicalPlan::Project { input, .. }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Limit { input, .. } => aggregate_over_scan(input),
            LogicalPlan::Scan { .. } | LogicalPlan::Join { .. } => None,
        }
    }

    /// Runs `sql`'s `Aggregate(Scan)` node the way the lowering does:
    /// its rows, and the row groups that went dense and scalar.
    fn fused_node(db: &Arc<Database>, sql: &str) -> (Vec<Row>, (usize, usize)) {
        let ctx = ExecContext {
            faults: Arc::clone(db.faults()),
            ..snapshot_ctx(db.txn_manager().now())
        };
        fused_node_in(db, sql, &ctx).unwrap()
    }

    /// [`fused_node`] under `ctx`'s guards. The node's own result: nothing
    /// downstream of it (the hand-over's cancellation check, say) has run.
    fn fused_node_in(
        db: &Arc<Database>,
        sql: &str,
        ctx: &ExecContext,
    ) -> Result<(Vec<Row>, (usize, usize))> {
        let catalog = db.catalog_read();
        let plan = plan_for(sql, &catalog);
        let Some(LogicalPlan::Aggregate { input, group, aggs }) = aggregate_over_scan(&plan) else {
            panic!("no Aggregate(Scan) in the plan of `{sql}`:\n{}", plan.explain());
        };
        let fused = Lowering::new(&catalog, ctx, None)
            .try_fused_aggregate(input, group, aggs)?
            .unwrap_or_else(|| panic!("`{sql}` did not fuse"));
        let rows = fused.groups.finish()?.iter().flat_map(|b| b.to_rows()).collect();
        Ok((rows, (fused.dense, fused.scalar)))
    }

    /// A fused aggregate looks at its statement's token while it scans, on
    /// the dense and on the scalar path, over a held segment (one row group
    /// of all its rows) and a paged one: a token cancelled beforehand and a
    /// deadline that runs out mid-scan both end the node itself with the
    /// typed error, the latter well before a whole scan's time is up.
    #[test]
    fn fused_statements_honour_cancellation() {
        use std::time::{Duration, Instant};
        let sql = "SELECT q, COUNT(*), SUM(a), AVG(a) FROM big GROUP BY q";
        let paged = BufferConfig {
            pool_bytes: u64::MAX,
            page_rows: 8192,
            page_root: None,
        };
        for buffer in [None, Some(paged)] {
            let tag = if buffer.is_some() { "paged" } else { "held" };
            let db = Database::with_config(DbConfig {
                faults: Some(FaultInjector::new(0xCA)),
                buffer,
                ..DbConfig::default()
            })
            .unwrap();
            db.execute("CREATE TABLE big (k BIGINT PRIMARY KEY, q BIGINT, a DOUBLE) USING FORMAT COLUMN")
                .unwrap();
            let t = db.table("big").unwrap();
            let tx = db.txn_manager().begin();
            for k in 0..65_536i64 {
                t.insert(&tx, row![k, (k * 7919) % 10 + 1, k as f64 * 0.25]).unwrap();
            }
            tx.commit().unwrap();
            db.maintenance();
            for scalar in [false, true] {
                if scalar {
                    db.faults().arm(points::EXEC_KERNEL_FALLBACK, FaultPoint::always());
                }
                let guarded = |cancel: CancellationToken| ExecContext {
                    faults: Arc::clone(db.faults()),
                    cancel,
                    ..snapshot_ctx(db.txn_manager().now())
                };
                // What a whole scan takes: the quickest of a few, the first
                // of which pays for everything met for the first time.
                let mut whole_scan = Duration::MAX;
                for _ in 0..4 {
                    let started = Instant::now();
                    let (rows, (dense, scalar_groups)) =
                        fused_node_in(&db, sql, &guarded(CancellationToken::none())).unwrap();
                    whole_scan = whole_scan.min(started.elapsed());
                    assert_eq!(rows.len(), 10, "{tag}");
                    assert_eq!(dense == 0, scalar, "{tag}: {dense} dense, {scalar_groups} scalar");
                }

                let cancelled = CancellationToken::new();
                cancelled.cancel();
                let err = fused_node_in(&db, sql, &guarded(cancelled)).unwrap_err();
                assert!(matches!(err, DbError::Cancelled(_)), "{tag} scalar={scalar}: {err:?}");

                // A tenth of a scan in, the deadline passes; the scan looks
                // every 4096 rows of its 65 536. Timing a scan is noisy, so
                // the best of a few attempts is held to the bound.
                let mut quickest = Duration::MAX;
                for _ in 0..5 {
                    let started = Instant::now();
                    let token = CancellationToken::with_timeout(whole_scan / 10);
                    let err = fused_node_in(&db, sql, &guarded(token)).unwrap_err();
                    quickest = quickest.min(started.elapsed());
                    assert!(matches!(err, DbError::DeadlineExceeded(_)), "{tag} scalar={scalar}: {err:?}");
                }
                assert!(
                    quickest < whole_scan * 3 / 4,
                    "{tag} scalar={scalar}: gave up after {quickest:?} of a {whole_scan:?} scan"
                );
                db.faults().disarm(points::EXEC_KERNEL_FALLBACK);
            }
        }
    }

    /// A walk over held segments fans out on the database's pool, and its
    /// helpers claim morsels and stripes — but not one while another
    /// session is open: its transactions have first call on the cores. The
    /// same gate holds for a pipeline (an expression-key aggregate, whose
    /// helpers show in the pool's counts).
    #[test]
    fn helpers_claim_nothing_while_another_session_is_open() {
        let db = Database::new();
        db.set_parallelism(2);
        db.execute("CREATE TABLE big (k BIGINT PRIMARY KEY, q BIGINT, a DOUBLE) USING FORMAT COLUMN")
            .unwrap();
        let t = db.table("big").unwrap();
        let tx = db.txn_manager().begin();
        for k in 0..100_000i64 {
            t.insert(&tx, row![k, k % 10, k as f64 * 0.25]).unwrap();
        }
        tx.commit().unwrap();
        db.maintenance();
        let fused = || {
            let sql = "SELECT q, COUNT(*), SUM(a) FROM big GROUP BY q";
            let catalog = db.catalog_read();
            let plan = plan_for(sql, &catalog);
            let Some(LogicalPlan::Aggregate { input, group, aggs }) = aggregate_over_scan(&plan)
            else {
                unreachable!()
            };
            let ctx = snapshot_ctx(db.txn_manager().now());
            let fused = Lowering::new(&catalog, &ctx, None)
                .try_fused_aggregate(input, group, aggs)
                .unwrap()
                .unwrap();
            (fused.helped, fused.groups.finish().unwrap())
        };
        let pipeline = || {
            let sql = "SELECT q + 0, COUNT(*), SUM(a) FROM big GROUP BY q + 0";
            let pool = db.worker_pool().unwrap();
            let before = settled(&pool);
            let catalog = db.catalog_read();
            let ctx = snapshot_ctx(db.txn_manager().now());
            let answer = execute_plan(&plan_for(sql, &catalog), &catalog, &ctx).unwrap();
            ((settled(&pool) - before) as usize, answer)
        };
        let inputs: [&dyn Fn() -> (usize, Vec<Batch>); 2] = [&fused, &pipeline];
        for helped in inputs {
            // The statement stands for one of this session.
            let _mine = db.session();
            let (_, want) = helped();
            // A helper that wakes late finds the statement's thread done.
            assert!(
                (0..50).any(|_| helped().0 > 0),
                "the helper never claimed anything"
            );
            let other = db.session();
            for _ in 0..10 {
                let (claimed, answer) = helped();
                assert_eq!(claimed, 0, "a helper claimed work beside another session");
                assert_eq!(rows_of(&answer), rows_of(&want));
            }
            drop(other);
        }
    }

    /// The tasks `pool` has finished, once it is idle: a task hands its
    /// work in a moment before the pool counts it.
    fn settled(pool: &WorkerPool) -> u64 {
        let since = std::time::Instant::now();
        while !pool.is_idle() {
            assert!(since.elapsed().as_secs() < 10, "the pool never settled");
            std::thread::yield_now();
        }
        pool.completed()
    }

    /// The gate is looked at before every claim, not only when the walk
    /// fans out: a gate that shuts right after the statement's own look
    /// leaves its helpers nothing, while one that stays open lets them
    /// claim.
    #[test]
    fn a_helper_claims_nothing_once_the_gate_shuts() {
        use oltap_exec::Helpers;
        use std::sync::atomic::{AtomicUsize, Ordering};
        let mgr = Arc::new(TransactionManager::new());
        let schema = Arc::new(
            Schema::with_primary_key(
                vec![Field::not_null("k", DataType::Int64), Field::new("a", DataType::Float64)],
                &["k"],
            )
            .unwrap(),
        );
        let h = TableHandle::create(schema, TableFormat::Column).unwrap();
        let tx = mgr.begin();
        for k in 0..100_000i64 {
            h.insert(&tx, row![k, k as f64 * 0.5]).unwrap();
        }
        tx.commit().unwrap();
        h.maintain(mgr.gc_watermark()).unwrap();
        let mut cat = Catalog::new();
        cat.create("big", h).unwrap();
        let pool = Arc::new(WorkerPool::new(2));
        let sql = "SELECT COUNT(*), SUM(a) FROM big";
        let mut helped = |gate: Arc<dyn Fn() -> bool + Send + Sync>| {
            cat.set_helpers(Helpers {
                pool: Some(Arc::clone(&pool)),
                gate: Some(gate),
            });
            let plan = plan_for(sql, &cat);
            let Some(LogicalPlan::Aggregate { input, group, aggs }) = aggregate_over_scan(&plan)
            else {
                unreachable!()
            };
            let ctx = snapshot_ctx(mgr.now());
            let lowering = Lowering::new(&cat, &ctx, None);
            lowering.try_fused_aggregate(input, group, aggs).unwrap().unwrap().helped
        };
        assert!(
            (0..50).any(|_| helped(Arc::new(|| true)) > 0),
            "an open gate never let the helper claim"
        );
        for _ in 0..10 {
            let looks = AtomicUsize::new(0);
            let once = move || looks.fetch_add(1, Ordering::Relaxed) == 0;
            assert_eq!(helped(Arc::new(once)), 0, "a helper claimed past a shut gate");
        }
    }

    fn rows_of(batches: &[Batch]) -> Vec<Row> {
        batches.iter().flat_map(|b| b.to_rows()).collect()
    }

    /// Every `olap_scan` statement runs wholly on the dense path — no row
    /// group decoded row by row — on resident, paged and frozen storage,
    /// and answers bit for bit what the forced scalar path answers.
    #[test]
    fn olap_scan_shapes_run_dense_on_every_storage() {
        let paged = BufferConfig {
            pool_bytes: u64::MAX,
            page_rows: 1024,
            page_root: None,
        };
        for (storage, buffer, freeze) in [
            ("resident", None, false),
            ("paged", Some(paged), false),
            ("frozen", None, true),
        ] {
            let db = ch_database(buffer);
            if freeze {
                assert!(db.freeze_all(true).unwrap().segments_frozen >= 4);
            }
            for (id, sql) in OLAP_SCAN {
                let (rows, (dense, scalar)) = fused_node(&db, sql);
                assert!(dense > 0 && scalar == 0, "{storage} {id}: {dense} dense, {scalar} scalar");
                assert!(!rows.is_empty(), "{storage} {id}: vacuous");
                if storage == "paged" && sql.contains("order_line") && !sql.contains("WHERE") {
                    assert!(dense > 4, "{storage} {id}: {dense} row groups");
                }
                let answer = db.query(sql).unwrap();

                db.faults()
                    .arm(points::EXEC_KERNEL_FALLBACK, FaultPoint::always());
                let (reference, (ref_dense, ref_scalar)) = fused_node(&db, sql);
                let reference_answer = db.query(sql).unwrap();
                db.faults().disarm(points::EXEC_KERNEL_FALLBACK);

                assert_eq!((ref_dense, ref_scalar), (0, dense), "{storage} {id}");
                assert_eq!(rows, reference, "{storage} {id}");
                assert_eq!(answer, reference_answer, "{storage} {id}");
            }
        }
    }

    /// A statement visits each row group once: the column it both filters
    /// and aggregates (Q6's `ol_amount`, Q2's `s_quantity`) is faulted once
    /// per group even when the pool is smaller than that column, where a
    /// selection sweep followed by an aggregation sweep faults it twice. The
    /// misses are exactly the distinct (group, column) pages the statement
    /// reads, on the dense path and on the forced scalar one, and the
    /// answer is the resident one.
    #[test]
    fn filtered_and_aggregated_column_faults_once_per_group() {
        let resident = ch_database(None);
        // The columns a statement reads, the filtered-and-aggregated first.
        for (id, table, columns, pool_bytes) in [
            ("Q6", "order_line", ["ol_amount", "ol_quantity"], 4096),
            ("Q2", "stock", ["s_quantity", "s_i_id"], 1024),
        ] {
            let sql = OLAP_SCAN.iter().find(|(q, _)| *q == id).unwrap().1;
            let want = resident.query(sql).unwrap();
            for fallback in [false, true] {
                let tag = format!("{id} fallback {fallback}");
                // A cold pool per run: the count is this statement's alone.
                let db = ch_database(Some(BufferConfig {
                    pool_bytes,
                    page_rows: 256,
                    page_root: None,
                }));
                let (segments, pushdown) = {
                    let catalog = db.catalog_read();
                    let plan = plan_for(sql, &catalog);
                    let Some(LogicalPlan::Aggregate { input, .. }) = aggregate_over_scan(&plan)
                    else {
                        panic!("{tag}: no Aggregate(Scan)");
                    };
                    let LogicalPlan::Scan { projection, pushdown, .. } = &**input else {
                        unreachable!()
                    };
                    let TableHandle::Column(t) = catalog.get(table).unwrap() else {
                        panic!("{tag}: {table} is not a column table");
                    };
                    let ctx = snapshot_ctx(db.txn_manager().now());
                    let parts = t.fused_scan_parts(projection, pushdown, ctx.read_ts, ctx.me, 4096);
                    (parts.unwrap().0, pushdown.clone())
                };
                let groups: usize = segments.iter().map(|s| s.group_count()).sum();
                assert!(groups > 8, "{tag}: {groups} row groups");

                if fallback {
                    db.faults()
                        .arm(points::EXEC_KERNEL_FALLBACK, FaultPoint::always());
                }
                let before = db.buffer_stats().unwrap().misses;
                let answer = db.query(sql).unwrap();
                let faulted = db.buffer_stats().unwrap().misses - before;
                db.faults().disarm(points::EXEC_KERNEL_FALLBACK);
                assert_eq!(answer, want, "{tag}");
                assert_eq!(faulted, (groups * columns.len()) as u64, "{tag}");

                // What the count above assumes: no group is pruned or
                // filtered empty (it would need fewer pages), and the pool
                // cannot hold the filtered column between two sweeps.
                let mut filtered_bytes = 0;
                for seg in &segments {
                    let both = seg.schema().index_of(columns[0]).unwrap();
                    let mut selector = seg.selector(&pushdown, u64::MAX, TxnId(u64::MAX));
                    let selector = selector.as_mut().unwrap().as_mut().unwrap();
                    for g in 0..seg.group_count() {
                        assert!(selector.select_group(g).unwrap().is_some(), "{tag}: group {g}");
                        filtered_bytes += seg.column_chunk(g, both).unwrap().size_bytes() as u64;
                    }
                }
                assert!(filtered_bytes > pool_bytes, "{tag}: {filtered_bytes} B filtered");
            }
        }
    }

    /// Scans larger than the pool recycle their own frames, so a rotation
    /// of them finds part of what it reads still resident: Q1 and Q14
    /// each read about three times the pool (`ol_amount` alone is 105
    /// pages of 528 bytes against 20 KB), and the later rotations fault
    /// fewer pages than the first, by counts that repeat exactly. Under
    /// the clock alone every rotation faults the first one's 387: each
    /// statement flushes the pool for the next. A statement that fits
    /// (Q12, 28 pages) is cached whole, and still is after a large pass
    /// has run through the pool.
    #[test]
    fn a_rotation_of_scans_larger_than_the_pool_keeps_part_of_it() {
        let resident = ch_database(None);
        let db = ch_database(Some(BufferConfig {
            pool_bytes: 20 << 10,
            page_rows: 64,
            page_root: None,
        }));
        let sql = |id: &str| OLAP_SCAN.iter().find(|(q, _)| *q == id).unwrap().1;
        let faults = |ids: &[&str]| {
            let before = db.buffer_stats().unwrap().misses;
            for id in ids {
                assert_eq!(db.query(sql(id)).unwrap(), resident.query(sql(id)).unwrap(), "{id}");
            }
            db.buffer_stats().unwrap().misses - before
        };
        let rotations = [0; 3].map(|_| faults(&["Q1", "Q14"]));
        assert_eq!(rotations, [387, 312, 323]);
        let around_a_scan = [faults(&["Q12"]), faults(&["Q12"]), faults(&["Q1"]), faults(&["Q12"])];
        assert_eq!(around_a_scan, [28, 0, 173, 0]);
        let stats = db.buffer_stats().unwrap();
        assert_eq!(stats.pinned_bytes, 0);
        assert!(stats.resident_bytes <= stats.capacity_bytes);
    }

    /// A float literal against an integer column is one question, whichever
    /// store holds the rows: delta, resident, paged or frozen segments.
    #[test]
    fn float_literal_on_int_column_answers_alike_in_every_store() {
        let load = |db: &Arc<Database>| {
            db.execute("CREATE TABLE q (id BIGINT PRIMARY KEY, n BIGINT) USING FORMAT COLUMN")
                .unwrap();
            let values: Vec<String> = (0..1500)
                .map(|i| match i % 13 {
                    5 => format!("({i}, NULL)"),
                    _ => format!("({i}, {})", (i * 7) % 11 + 1),
                })
                .collect();
            db.execute(&format!("INSERT INTO q VALUES {}", values.join(", ")))
                .unwrap();
        };
        let paged = || {
            Database::with_config(DbConfig {
                buffer: Some(BufferConfig {
                    pool_bytes: u64::MAX,
                    page_rows: 256,
                    page_root: None,
                }),
                ..DbConfig::default()
            })
            .unwrap()
        };
        let stores: [(&str, Arc<Database>); 4] = [
            ("delta", Database::new()),
            ("resident", Database::new()),
            ("paged", paged()),
            ("frozen", Database::new()),
        ];
        for (store, db) in &stores {
            load(db);
            if *store != "delta" {
                db.maintenance();
            }
            if *store == "frozen" {
                assert!(db.freeze_all(true).unwrap().segments_frozen > 0);
            }
        }
        for cond in [
            "n >= 5.0",
            "n = 7.0",
            "n = 7.5",
            "n > 6.5",
            "n <> 7.0",
            "n <> 7.5",
            "n < 0.5",
            "n <= 11.0",
            "4.5 < n",
            "n >= 5.0 AND n < 8.5",
            "n > 99999999999999999999.0",
            "n < 99999999999999999999.0",
            "n IS NOT NULL",
        ] {
            let answers: Vec<_> = stores
                .iter()
                .map(|(_, db)| {
                    let count = db.query(&format!("SELECT COUNT(*) FROM q WHERE {cond}"));
                    let ids = db.query(&format!("SELECT id FROM q WHERE {cond} ORDER BY id"));
                    (count.unwrap(), ids.unwrap())
                })
                .collect();
            let (count, ids) = &answers[0];
            assert_eq!(count[0][0], Value::Int(ids.len() as i64), "{cond}");
            for ((store, _), answer) in stores.iter().zip(&answers) {
                assert_eq!(answer, &answers[0], "{cond}: {store} differs from delta");
            }
        }
        // The pinned case: seven of eleven values are >= 5.
        let (_, db) = &stores[1];
        let n = db.query("SELECT COUNT(*) FROM q WHERE n >= 5.0").unwrap();
        assert_eq!(n, db.query("SELECT COUNT(*) FROM q WHERE n >= 5").unwrap());
        assert!(matches!(n[0][0], Value::Int(c) if c > 800));
    }

    #[test]
    fn pre_cancelled_token_cancels_at_any_worker_count() {
        let (mgr, mut cat) = setup();
        for sql in [
            "SELECT SUM(v) FROM t",
            "SELECT * FROM t",
            "SELECT v FROM t WHERE id = 7",   // key lookup, row found
            "SELECT * FROM t WHERE id = 777", // key lookup, no row
        ] {
            let plan = plan_for(sql, &cat);
            for workers in [1, 4] {
                let mut ctx = ctx_at(&mgr, &mut cat, workers);
                ctx.cancel = CancellationToken::new();
                ctx.cancel.cancel();
                let err = execute_plan(&plan, &cat, &ctx).unwrap_err();
                assert!(
                    matches!(err, DbError::Cancelled(_)),
                    "{sql} workers={workers}: {err:?}"
                );
            }
        }
    }
}
