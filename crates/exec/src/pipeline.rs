//! The morsel-driven pipeline executor — the engine's only executor.
//!
//! The HyPer lineage (Funke, Kemper, Neumann) gets its OLAP throughput
//! from **morsel-driven parallelism**: a plan is cut at pipeline breakers
//! (hash-join build, aggregate, sort) into pipelines; each pipeline's
//! source hands out *morsels* — segment-granular batches — and workers run
//! the pipeline's stage chain thread-locally before merging into
//! thread-partitioned sinks. This module provides the executor half of
//! that design; plan decomposition lives in `oltap-core`.
//!
//! The worker count is a runtime quantity. Without a pool
//! ([`ParallelContext::pool`] is `None`) a pipeline runs **inline**: one
//! worker, on the caller's thread, taking morsels in index order into one
//! sink — no dispenser, no channel, no thread hand-off. That degenerate
//! case is the sequential reference; with a pool the same loop runs once
//! per pool worker over a shared NUMA-affine dispenser.
//!
//! Determinism contract: results are **byte-identical** at every worker
//! count. Three mechanisms deliver that:
//!
//! 1. Morsel indices are the source's batch order, and stage chains are
//!    1:1 per batch, so ordering sinks by morsel index reconstructs the
//!    one-worker batch stream exactly.
//! 2. Row-level sinks (sort runs, top-K candidates, join build rows) tag
//!    every row with a sequence number `(morsel_index << 32) | row_in_batch`;
//!    merges break key ties by that sequence, which is the order a stable
//!    sort / in-order build scan over the one-worker stream produces.
//! 3. Per-worker group stores merge per key in worker order
//!    ([`RunningGroups::merge`]) and emit in sorted group-key order.
//!
//! Cancellation and fault injection work at morsel granularity at every
//! worker count: the token is checked and the [`points::EXEC_MORSEL_FAIL`]
//! fault point is probed at every morsel boundary, with a bounded retry so
//! probabilistic chaos runs still complete. The join build pipeline probes
//! its own [`points::EXEC_JOIN_BUILD_FAIL`] point per build morsel with
//! the same retry budget.

use crate::aggregate::AggregatorCore;
use crate::expr::Expr;
use crate::groups::RunningGroups;
use crate::join::{probe_batch, JoinTable, JoinTableBuilder, JoinType, ProbeScratch};
use crate::resources::ExecResources;
use crate::sort::{merge_spilled_sort, sort_entries, SortBuffer, SortEntry, SortKey, TopKAcc};
use oltap_common::fault::{points, FaultInjector};
use oltap_common::schema::SchemaRef;
use oltap_common::vector::BATCH_SIZE;
use oltap_common::{Batch, CancellationToken, DataType, DbError, Field, Result, Row, Schema};
use oltap_sched::{WorkerPool, WorkloadClass};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};

/// How many times a worker re-probes [`points::EXEC_MORSEL_FAIL`] before
/// giving up on a morsel and surfacing [`DbError::FaultInjected`]. With a
/// fire probability `p < 1` the chance of exhausting the budget is
/// `p^(RETRIES+1)` — negligible for chaos-test probabilities.
pub const MORSEL_FAULT_RETRIES: u32 = 16;

/// One unit of parallel work: a batch plus its dispatch metadata.
#[derive(Debug)]
pub struct Morsel {
    /// Position in the source's batch order (drives result determinism).
    pub index: usize,
    /// Simulated NUMA socket this morsel's data lives on.
    pub socket: usize,
    /// The rows.
    pub batch: Batch,
}

/// Shared atomic morsel dispenser with NUMA-affine queues.
///
/// Morsels are assigned round-robin to per-socket queues (mirroring
/// [`oltap_sched::DataPlacement::round_robin`] segment placement); a
/// worker first drains its own socket's queue via an atomic cursor and
/// only then steals from remote sockets, so placement locality is
/// preserved until load imbalance makes stealing worthwhile.
pub struct MorselDispenser {
    /// Each morsel is handed out exactly once; `take()` under the slot
    /// lock makes dispatch race-free even when cursors wrap sockets.
    slots: Vec<Mutex<Option<Batch>>>,
    /// Per-socket morsel indices.
    queues: Vec<Vec<usize>>,
    /// Per-socket dispatch cursors.
    cursors: Vec<AtomicUsize>,
    sockets: usize,
    local: AtomicUsize,
    remote: AtomicUsize,
}

impl MorselDispenser {
    /// Distributes `batches` round-robin over `sockets` queues, keeping
    /// the original index as the morsel's identity.
    pub fn new(batches: Vec<Batch>, sockets: usize) -> Self {
        let sockets = sockets.max(1);
        let mut queues: Vec<Vec<usize>> = vec![Vec::new(); sockets];
        let slots: Vec<Mutex<Option<Batch>>> = batches
            .into_iter()
            .enumerate()
            .map(|(i, b)| {
                queues[i % sockets].push(i);
                Mutex::new(Some(b))
            })
            .collect();
        let cursors = (0..sockets).map(|_| AtomicUsize::new(0)).collect();
        MorselDispenser {
            slots,
            queues,
            cursors,
            sockets,
            local: AtomicUsize::new(0),
            remote: AtomicUsize::new(0),
        }
    }

    /// Hands out the next morsel for a worker pinned to `socket`,
    /// preferring the local queue and stealing from remote sockets only
    /// when it is empty. `None` once every morsel has been dispatched.
    pub fn next_for(&self, socket: usize) -> Option<Morsel> {
        let home = socket % self.sockets;
        for off in 0..self.sockets {
            let s = (home + off) % self.sockets;
            loop {
                let pos = self.cursors[s].fetch_add(1, Ordering::Relaxed);
                let Some(&idx) = self.queues[s].get(pos) else {
                    break;
                };
                if let Some(batch) = self.slots[idx].lock().take() {
                    let counter = if off == 0 { &self.local } else { &self.remote };
                    counter.fetch_add(1, Ordering::Relaxed);
                    return Some(Morsel {
                        index: idx,
                        socket: s,
                        batch,
                    });
                }
            }
        }
        None
    }

    /// `(local, remote)` dispatch counts, for placement diagnostics.
    pub fn placement_stats(&self) -> (usize, usize) {
        (
            self.local.load(Ordering::Relaxed),
            self.remote.load(Ordering::Relaxed),
        )
    }
}

/// The streaming (non-breaking) operators a pipeline runs per morsel,
/// their expressions type-checked once where the stage is built; workers
/// share them read-only.
#[derive(Clone)]
pub enum StageSpec {
    /// Keep rows where the boolean predicate holds (see
    /// [`StageSpec::filter`]).
    Filter(Arc<Expr>),
    /// Compute one output column per expression.
    Project(Arc<[Expr]>),
    /// Probe a pre-built (shared, read-only) hash-join table.
    Probe(Arc<ProbeStage>),
}

impl StageSpec {
    /// A filter stage over `input_schema`; rejects non-boolean predicates.
    pub fn filter(predicate: Expr, input_schema: &SchemaRef) -> Result<StageSpec> {
        if predicate.data_type(input_schema)? != DataType::Bool {
            return Err(DbError::Plan("filter predicate must be boolean".into()));
        }
        Ok(StageSpec::Filter(Arc::new(predicate)))
    }

    /// A projection stage computing one column per `(expression, name)`
    /// pair, together with the schema of its output.
    pub fn project(
        exprs: &[(Expr, String)],
        input_schema: &SchemaRef,
    ) -> Result<(StageSpec, SchemaRef)> {
        let fields = exprs
            .iter()
            .map(|(e, n)| Ok(Field::new(n.clone(), e.data_type(input_schema)?)))
            .collect::<Result<Vec<_>>>()?;
        let exprs = exprs.iter().map(|(e, _)| e.clone()).collect();
        Ok((
            StageSpec::Project(exprs),
            Arc::new(Schema::new(fields)),
        ))
    }

    /// Applies this stage to one non-empty batch; `None` means the morsel
    /// was fully consumed (filtered out / no join matches). `scratch` is
    /// the worker's own probe buffers for this stage, reused across
    /// batches.
    fn apply(&self, batch: Batch, scratch: &mut ProbeScratch) -> Result<Option<Batch>> {
        match self {
            StageSpec::Filter(pred) => {
                let sel = pred.filter(&batch)?;
                if sel.len() == batch.len() {
                    return Ok(Some(batch));
                }
                if sel.is_empty() {
                    return Ok(None);
                }
                Ok(Some(batch.take(&sel)))
            }
            StageSpec::Project(exprs) => {
                Ok(Some(Batch::new(Expr::eval_all(exprs, &batch)?)?))
            }
            StageSpec::Probe(p) => {
                probe_batch(&p.table, &p.keys, p.join_type, &p.schema, &batch, scratch)
            }
        }
    }
}

/// The shared read-only state of a hash-join probe stage. The build table
/// is produced by [`ParallelContext::run_join_build`] (itself a pipeline)
/// and then probed concurrently without locks; each worker keeps its own
/// [`ProbeScratch`] so probing allocates nothing per batch.
pub struct ProbeStage {
    /// Radix-partitioned build side in build-scan order.
    pub table: Arc<JoinTable>,
    /// Probe-side key expressions.
    pub keys: Vec<Expr>,
    /// Inner or left outer.
    pub join_type: JoinType,
    /// Joined output schema.
    pub schema: SchemaRef,
}

/// Everything a pipeline run needs beyond its own morsels and stages: the
/// pool to dispatch on (if any), the simulated socket count for morsel
/// affinity, and the query's cancellation/fault plumbing.
pub struct ParallelContext {
    /// Worker pool the pipeline tasks are submitted to (as OLAP class),
    /// one task per pool worker. `None` runs every pipeline inline: one
    /// worker, on the caller's thread.
    pub pool: Option<Arc<WorkerPool>>,
    /// Simulated NUMA socket count (drives morsel affinity on the pool).
    pub sockets: usize,
    /// Per-query cancellation token, checked at every morsel boundary.
    pub cancel: CancellationToken,
    /// Fault injector probed at every morsel boundary.
    pub faults: Arc<FaultInjector>,
    /// Per-query memory budget and spill directory; every worker's sink
    /// draws from this one shared account.
    pub mem: ExecResources,
}

impl ParallelContext {
    /// Runs one pipeline: every worker pulls morsels, runs the compiled
    /// stage chain thread-locally, and folds surviving batches into its
    /// own sink state `S`. Returns every worker's finished sink in
    /// worker-id order (the deterministic merge order); the first error in
    /// worker order wins.
    ///
    /// Without a pool there is one worker and it is the caller: morsels
    /// are taken in index order straight off `batches`, with no dispenser,
    /// channel, or thread hand-off. With a pool, one task per pool worker
    /// pulls from a shared NUMA-affine dispenser.
    fn fan_out<S, R, M, C, F>(
        &self,
        batches: Vec<Batch>,
        stages: Vec<StageSpec>,
        make: M,
        consume: C,
        finish: F,
    ) -> Result<Vec<R>>
    where
        S: 'static,
        R: Send + 'static,
        M: Fn() -> S + Send + Sync + 'static,
        C: Fn(&mut S, usize, Batch) -> Result<()> + Send + Sync + 'static,
        F: Fn(S) -> R + Send + Sync + 'static,
    {
        let Some(pool) = &self.pool else {
            let mut morsels = batches.into_iter().enumerate();
            let sink = worker_drive(
                &mut || morsels.next(),
                stages,
                &self.cancel,
                &self.faults,
                &AtomicBool::new(false),
                &make,
                &consume,
                &finish,
            )?;
            return Ok(vec![sink]);
        };
        let n = pool.worker_count().max(1);
        let dispenser = Arc::new(MorselDispenser::new(batches, self.sockets));
        let make = Arc::new(make);
        let consume = Arc::new(consume);
        let finish = Arc::new(finish);
        let abort = Arc::new(AtomicBool::new(false));
        let (tx, rx) = mpsc::channel::<(usize, Result<R>)>();
        for wid in 0..n {
            let dispenser = Arc::clone(&dispenser);
            let stages = stages.clone();
            let make = Arc::clone(&make);
            let consume = Arc::clone(&consume);
            let finish = Arc::clone(&finish);
            let cancel = self.cancel.clone();
            let faults = Arc::clone(&self.faults);
            let abort = Arc::clone(&abort);
            let tx = tx.clone();
            let socket = wid % self.sockets.max(1);
            pool.submit(WorkloadClass::Olap, move || {
                let r = worker_drive(
                    &mut || dispenser.next_for(socket).map(|m| (m.index, m.batch)),
                    stages,
                    &cancel,
                    &faults,
                    &abort,
                    &*make,
                    &*consume,
                    &*finish,
                );
                if r.is_err() {
                    abort.store(true, Ordering::Relaxed);
                }
                let _ = tx.send((wid, r));
            });
        }
        drop(tx);
        let mut results: Vec<(usize, Result<R>)> = rx.iter().collect();
        results.sort_by_key(|(wid, _)| *wid);
        let mut out = Vec::with_capacity(n);
        for (_, r) in results {
            out.push(r?);
        }
        Ok(out)
    }

    /// Pipeline sink preserving the source's batch order: batches are
    /// collected per worker tagged with their morsel index and merged by
    /// index.
    pub fn run_collect(&self, batches: Vec<Batch>, stages: Vec<StageSpec>) -> Result<Vec<Batch>> {
        let runs = self.fan_out(
            batches,
            stages,
            Vec::new,
            |state: &mut Vec<(usize, Batch)>, idx, batch| {
                state.push((idx, batch));
                Ok(())
            },
            |state| state,
        )?;
        let mut all: Vec<(usize, Batch)> = runs.into_iter().flatten().collect();
        all.sort_by_key(|(i, _)| *i);
        Ok(all.into_iter().map(|(_, b)| b).collect())
    }

    /// Aggregation sink: one [`RunningGroups`] per worker against the
    /// shared query budget (a refused group freezes that worker's store,
    /// which spills from then on), sealed on the worker and merged in worker
    /// order; the caller [`finish`](RunningGroups::finish)es the merged
    /// store, or first merges it on into another partition's.
    pub fn run_aggregate(
        &self,
        batches: Vec<Batch>,
        stages: Vec<StageSpec>,
        core: Arc<AggregatorCore>,
    ) -> Result<RunningGroups> {
        let mem = self.mem.clone();
        let stores = self.fan_out(
            batches,
            stages,
            move || RunningGroups::new(&core, &mem),
            |groups: &mut RunningGroups, _idx, batch| groups.consume(&batch),
            |mut groups| groups.seal().map(|()| groups),
        )?;
        let mut stores = stores.into_iter();
        let mut merged = stores.next().expect("a pipeline has a worker")?;
        for store in stores {
            merged.merge(store?)?;
        }
        Ok(merged)
    }

    /// Join-build sink: per-worker [`JoinTableBuilder`]s accumulate radix
    /// partitions with rows tagged by morsel sequence; the merged builder
    /// restores build-scan order in [`JoinTableBuilder::finish`], so
    /// duplicate keys fan out in the same order at any worker count. Each
    /// build morsel probes [`points::EXEC_JOIN_BUILD_FAIL`] with the same
    /// bounded retry as the morsel fault point.
    pub fn run_join_build(
        &self,
        batches: Vec<Batch>,
        stages: Vec<StageSpec>,
        keys: Vec<Expr>,
        build_width: usize,
    ) -> Result<JoinTable> {
        let key_width = keys.len();
        let keys = Arc::new(keys);
        let faults = Arc::clone(&self.faults);
        let res = self.mem.clone();
        let parts: Vec<JoinTableBuilder> = self.fan_out(
            batches,
            stages,
            move || JoinTableBuilder::with_resources(key_width, build_width, res.clone()),
            move |builder: &mut JoinTableBuilder, idx, batch| {
                let mut attempts = 0u32;
                while faults.should_fire(points::EXEC_JOIN_BUILD_FAIL) {
                    attempts += 1;
                    if attempts > MORSEL_FAULT_RETRIES {
                        return Err(DbError::FaultInjected(format!(
                            "join build morsel {idx} exhausted {MORSEL_FAULT_RETRIES} retries at {}",
                            points::EXEC_JOIN_BUILD_FAIL
                        )));
                    }
                }
                let key_cols = Expr::eval_all(&keys, &batch)?;
                builder.push_batch(&key_cols, &batch, idx)
            },
            |b| b,
        )?;
        let mut merged = JoinTableBuilder::with_resources(key_width, build_width, self.mem.clone());
        for part in parts {
            merged.merge(part);
        }
        merged.finish()
    }

    /// Sort sink: per-worker [`SortBuffer`]s (budget-bounded, spilling
    /// sorted runs to disk under pressure), k-way merged with
    /// sequence-number tie-breaking — exactly the order of a stable sort
    /// over the morsel-ordered input, whether or not any buffer spilled.
    pub fn run_sort(
        &self,
        batches: Vec<Batch>,
        stages: Vec<StageSpec>,
        keys: Vec<SortKey>,
        schema: SchemaRef,
    ) -> Result<Vec<Batch>> {
        let key_exprs: Vec<Expr> = keys.iter().map(|k| k.expr.clone()).collect();
        let keys = Arc::new(keys);
        let k_make = Arc::clone(&keys);
        let res = self.mem.clone();
        let buffers = self.fan_out(
            batches,
            stages,
            move || SortBuffer::new(k_make.as_ref().clone(), res.clone()),
            move |buf: &mut SortBuffer, idx, batch| {
                let key_cols = Expr::eval_all(&key_exprs, &batch)?;
                for i in 0..batch.len() {
                    let key = Row::new(key_cols.iter().map(|c| c.value_at(i)).collect());
                    buf.push(key, ((idx as u64) << 32) | i as u64, batch.row(i))?;
                }
                Ok(())
            },
            |buf| buf,
        )?;
        merge_spilled_sort(buffers, &keys, &schema, BATCH_SIZE)
    }

    /// Top-K sink: per-worker bounded heaps; the union of candidates is
    /// sorted (sequence tie-break) and truncated — the first `k` rows of
    /// the full sort, using O(n log k) work instead.
    pub fn run_topk(
        &self,
        batches: Vec<Batch>,
        stages: Vec<StageSpec>,
        keys: Vec<SortKey>,
        k: usize,
        schema: SchemaRef,
    ) -> Result<Vec<Batch>> {
        if k == 0 {
            return Ok(Vec::new());
        }
        let key_exprs: Vec<Expr> = keys.iter().map(|k| k.expr.clone()).collect();
        let keys = Arc::new(keys);
        let k_make = Arc::clone(&keys);
        let sets = self.fan_out(
            batches,
            stages,
            move || TopKAcc::new(&k_make, k),
            move |acc: &mut TopKAcc, idx, batch| {
                let key_cols = Expr::eval_all(&key_exprs, &batch)?;
                for i in 0..batch.len() {
                    let key = Row::new(key_cols.iter().map(|c| c.value_at(i)).collect());
                    acc.push(key, ((idx as u64) << 32) | i as u64, batch.row(i));
                }
                Ok(())
            },
            TopKAcc::into_entries,
        )?;
        let mut all: Vec<SortEntry> = sets.into_iter().flatten().collect();
        sort_entries(&mut all, &keys);
        all.truncate(k);
        let rows: Vec<Row> = all.into_iter().map(|(_, _, r)| r).collect();
        if rows.is_empty() {
            return Ok(Vec::new());
        }
        Ok(vec![Batch::from_rows(&schema, &rows)?])
    }
}

/// General `LIMIT`/`OFFSET` over a morsel-ordered batch list: drops the
/// first `offset` rows and keeps the next `limit`. Inherently sequential
/// and cheap — it only slices batches that are already materialized.
pub fn limit_batches(batches: Vec<Batch>, offset: usize, limit: usize) -> Vec<Batch> {
    let mut skip = offset;
    let mut remaining = limit;
    let mut out = Vec::new();
    for batch in batches {
        if remaining == 0 {
            break;
        }
        let n = batch.len();
        if skip >= n {
            skip -= n;
            continue;
        }
        let start = std::mem::take(&mut skip);
        let take = (n - start).min(remaining);
        remaining -= take;
        if take == n {
            out.push(batch);
        } else {
            let sel: Vec<u32> = (start as u32..(start + take) as u32).collect();
            out.push(batch.take(&sel));
        }
    }
    out
}

/// One worker's pipeline loop: pull `(index, batch)` morsels from
/// `next_morsel`, probe the fault point with bounded retry, run the stage
/// chain, fold surviving output into the local sink state.
#[allow(clippy::too_many_arguments)]
fn worker_drive<S, R>(
    next_morsel: &mut dyn FnMut() -> Option<(usize, Batch)>,
    stages: Vec<StageSpec>,
    cancel: &CancellationToken,
    faults: &FaultInjector,
    abort: &AtomicBool,
    make: &dyn Fn() -> S,
    consume: &dyn Fn(&mut S, usize, Batch) -> Result<()>,
    finish: &dyn Fn(S) -> R,
) -> Result<R> {
    // This worker's probe buffers, one per stage (empty for the others).
    let mut scratch: Vec<ProbeScratch> = stages.iter().map(|_| ProbeScratch::new()).collect();
    let mut state = make();
    while !abort.load(Ordering::Relaxed) {
        cancel.check()?;
        let Some((index, batch)) = next_morsel() else {
            break;
        };
        let mut attempts = 0u32;
        while faults.should_fire(points::EXEC_MORSEL_FAIL) {
            attempts += 1;
            if attempts > MORSEL_FAULT_RETRIES {
                return Err(DbError::FaultInjected(format!(
                    "morsel {index} exhausted {MORSEL_FAULT_RETRIES} retries at {}",
                    points::EXEC_MORSEL_FAIL
                )));
            }
        }
        if batch.is_empty() {
            continue;
        }
        let mut cur = Some(batch);
        for (stage, scratch) in stages.iter().zip(&mut scratch) {
            let Some(b) = cur else { break };
            cur = stage.apply(b, scratch)?;
        }
        if let Some(out) = cur {
            if !out.is_empty() {
                consume(&mut state, index, out)?;
            }
        }
    }
    Ok(finish(state))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::expr::BinOp;
    use oltap_common::fault::FaultPoint;
    use oltap_common::row;
    use oltap_common::Value;
    use std::collections::HashSet;

    /// The shared test harness of the breaker modules: a pipeline context
    /// with `workers` workers — inline on the test thread when `workers <=
    /// 1`, a dedicated pool otherwise — drawing from `mem`.
    pub(crate) fn ctx_with(workers: usize, mem: ExecResources) -> ParallelContext {
        ParallelContext {
            pool: (workers > 1).then(|| Arc::new(WorkerPool::new(workers, workers))),
            sockets: 2,
            cancel: CancellationToken::none(),
            faults: FaultInjector::disabled(),
            mem,
        }
    }

    /// [`ctx_with`] under an unlimited budget.
    pub(crate) fn ctx(workers: usize) -> ParallelContext {
        ctx_with(workers, ExecResources::unlimited())
    }

    /// Flattens batches into their rows.
    pub(crate) fn rows_of(batches: &[Batch]) -> Vec<Row> {
        batches.iter().flat_map(|b| b.to_rows()).collect()
    }

    fn batches(n: usize) -> (SchemaRef, Vec<Batch>) {
        let schema = Arc::new(Schema::new(vec![
            Field::new("id", DataType::Int64),
            Field::new("v", DataType::Int64),
        ]));
        let rows: Vec<Row> = (0..n).map(|i| row![i as i64, (i % 10) as i64]).collect();
        let out = rows
            .chunks(100)
            .map(|c| Batch::from_rows(&schema, c).unwrap())
            .collect();
        (schema, out)
    }

    fn count(batches: &[Batch]) -> usize {
        batches.iter().map(|b| b.len()).sum()
    }

    #[test]
    fn dispenser_hands_out_each_morsel_once() {
        let (_, bs) = batches(1000);
        let count = bs.len();
        let d = MorselDispenser::new(bs, 2);
        let mut seen = HashSet::new();
        // Two "workers" on different sockets interleaving.
        loop {
            let a = d.next_for(0);
            let b = d.next_for(1);
            if a.is_none() && b.is_none() {
                break;
            }
            for m in [a, b].into_iter().flatten() {
                assert!(seen.insert(m.index), "morsel {} dispatched twice", m.index);
            }
        }
        assert_eq!(seen.len(), count);
        let (local, remote) = d.placement_stats();
        assert_eq!(local + remote, count);
        // Balanced pull from both sockets: everything is a local hit.
        assert_eq!(remote, 0);
    }

    #[test]
    fn dispenser_steals_across_sockets() {
        let (_, bs) = batches(400);
        let count = bs.len();
        let d = MorselDispenser::new(bs, 2);
        // A single worker on socket 0 must still drain socket 1's queue.
        let mut n = 0;
        while d.next_for(0).is_some() {
            n += 1;
        }
        assert_eq!(n, count);
        let (local, remote) = d.placement_stats();
        assert_eq!(local, count.div_ceil(2));
        assert_eq!(remote, count / 2);
    }

    #[test]
    fn filter_selects_true_rows() {
        let (schema, bs) = batches(1000);
        let pred = Expr::binary(BinOp::Eq, Expr::col(1), Expr::lit(3i64));
        let stage = StageSpec::filter(pred, &schema).unwrap();
        let got = ctx(1).run_collect(bs, vec![stage]).unwrap();
        assert_eq!(count(&got), 100);
    }

    #[test]
    fn filter_rejects_non_boolean() {
        let (schema, _) = batches(10);
        assert!(StageSpec::filter(Expr::col(0), &schema).is_err());
    }

    #[test]
    fn project_computes_expressions() {
        let (schema, bs) = batches(10);
        let (stage, out_schema) = StageSpec::project(
            &[
                (Expr::col(0), "id".into()),
                (
                    Expr::binary(BinOp::Mul, Expr::col(0), Expr::lit(2i64)),
                    "id2".into(),
                ),
            ],
            &schema,
        )
        .unwrap();
        assert_eq!(out_schema.len(), 2);
        assert_eq!(out_schema.field(1).name, "id2");
        let rows = rows_of(&ctx(1).run_collect(bs, vec![stage]).unwrap());
        // Int64-typed expressions stay on the interpreter so the output
        // type matches the declared schema.
        assert_eq!(rows[4][1], Value::Int(8));
    }

    #[test]
    fn limit_and_offset() {
        // Batches hold 100 rows: the window starts and ends mid-batch.
        let (_, bs) = batches(1000);
        let rows = rows_of(&limit_batches(bs, 250, 30));
        assert_eq!(rows.len(), 30);
        assert_eq!(rows[0][0], Value::Int(250));
        assert_eq!(rows[29][0], Value::Int(279));
        // A window crossing batch boundaries keeps whole middle batches.
        let (_, bs) = batches(1000);
        let rows = rows_of(&limit_batches(bs, 150, 300));
        assert_eq!(rows.len(), 300);
        assert_eq!(rows[0][0], Value::Int(150));
        assert_eq!(rows[299][0], Value::Int(449));
    }

    #[test]
    fn limit_zero_and_past_end() {
        let (_, bs) = batches(10);
        assert_eq!(count(&limit_batches(bs.clone(), 0, 0)), 0);
        assert_eq!(count(&limit_batches(bs.clone(), 5, 100)), 5);
        assert_eq!(count(&limit_batches(bs, 50, 10)), 0);
    }

    #[test]
    fn stages_compose() {
        let (schema, bs) = batches(1000);
        let filter = StageSpec::filter(
            Expr::binary(BinOp::Lt, Expr::col(0), Expr::lit(500i64)),
            &schema,
        )
        .unwrap();
        let (project, _) = StageSpec::project(&[(Expr::col(1), "v".into())], &schema).unwrap();
        let got = ctx(1).run_collect(bs, vec![filter, project]).unwrap();
        assert_eq!(count(&got), 500);
        let limited = limit_batches(got, 10, 20);
        assert_eq!(count(&limited), 20);
        assert_eq!(limited[0].num_columns(), 1);
    }

    #[test]
    fn filter_is_worker_count_independent() {
        let (schema, bs) = batches(5000);
        let pred = Expr::binary(BinOp::Lt, Expr::col(1), Expr::lit(4i64));
        let run = |workers| {
            let stage = StageSpec::filter(pred.clone(), &schema).unwrap();
            rows_of(&ctx(workers).run_collect(bs.clone(), vec![stage]).unwrap())
        };
        let inline = run(1);
        assert_eq!(inline.len(), 2000);
        for workers in [2, 8] {
            assert_eq!(inline, run(workers), "workers={workers}");
        }
    }

    #[test]
    fn morsel_faults_retry_then_succeed() {
        let (schema, bs) = batches(2000);
        for workers in [1, 4] {
            let faults = FaultInjector::new(7);
            faults.arm(points::EXEC_MORSEL_FAIL, FaultPoint::with_probability(0.3));
            let c = ParallelContext {
                faults: Arc::clone(&faults),
                ..ctx(workers)
            };
            let pred = Expr::binary(BinOp::Eq, Expr::col(1), Expr::lit(3i64));
            let stage = StageSpec::filter(pred, &schema).unwrap();
            let got = c.run_collect(bs.clone(), vec![stage]).unwrap();
            assert_eq!(count(&got), 200, "workers={workers}");
            assert!(faults.fired_count() > 0, "chaos run should have fired");
        }
    }

    #[test]
    fn persistent_morsel_fault_surfaces_error() {
        let (_, bs) = batches(500);
        for workers in [1, 2] {
            let faults = FaultInjector::new(7);
            faults.arm(points::EXEC_MORSEL_FAIL, FaultPoint::always());
            let c = ParallelContext {
                faults,
                ..ctx(workers)
            };
            let err = c.run_collect(bs.clone(), Vec::new()).unwrap_err();
            assert!(matches!(err, DbError::FaultInjected(_)), "{err:?}");
        }
    }

    #[test]
    fn cancelled_context_stops_pipeline() {
        let (_, bs) = batches(500);
        for workers in [1, 4] {
            let token = CancellationToken::new();
            token.cancel();
            let c = ParallelContext {
                cancel: token,
                ..ctx(workers)
            };
            let err = c.run_collect(bs.clone(), Vec::new()).unwrap_err();
            assert!(matches!(err, DbError::Cancelled(_)), "{err:?}");
        }
    }
}
