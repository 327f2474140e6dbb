//! The morsel-driven pipeline executor — the engine's only executor.
//!
//! The HyPer lineage (Funke, Kemper, Neumann) gets its OLAP throughput
//! from **morsel-driven parallelism**, with the scan itself as the morsel
//! source: a plan is cut at pipeline breakers (hash-join build, aggregate,
//! sort) into pipelines, and each pipeline's [`Source`] is a list of
//! morsels — the `(segment, row group, rows)` pieces of the segments it
//! scans, then its tail batches (a delta's or a row store's rows, a
//! breaker's output). Whichever thread claims a morsel selects it, gathers
//! the selected rows of the projected columns, runs the stage chain and
//! folds the result into its sink, so a scan's output never exists beyond
//! one morsel per thread in a row sink. (A fanned-out aggregate parks
//! every morsel's stage output, reserved from the budget, until all are
//! in.) Plan decomposition lives in `oltap-core`.
//!
//! One claim loop serves every pipeline and the fused walk
//! ([`crate::fused`]): the statement's thread claims morsels, and so do up
//! to `min(workers, morsels) − 1` [`Helpers`] from the database's pool,
//! each looking at the helpers' gate before every claim. A source of fewer
//! than two morsels, one over paged segments (the pager's loader is
//! already their second core) or a context without a pool runs on the
//! statement's thread alone, in morsel order. A failure on any thread — an
//! error, or a panic, which becomes [`DbError::Execution`] — ends the
//! statement, and the walk closes (every helper that started has left)
//! before the statement answers.
//!
//! Determinism contract: results are **byte-identical** at every worker
//! count. Two mechanisms deliver that:
//!
//! 1. Row-level sinks (collected batches, sort runs, top-K candidates, join
//!    build rows) tag every row with a sequence number `(morsel_index << 32)
//!    | row_in_batch`, and merges order by it: the order one thread taking
//!    the morsels in index order produces.
//! 2. An aggregate folds the stage output in stripes of
//!    [`STRIPE_ROWS`](crate::STRIPE_ROWS) rows of the post-stage row
//!    sequence, one store a stripe, merged in stripe order — fanned out,
//!    the claimed morsels park their output under their index and the
//!    stripes are cut once every morsel is in, exactly as the fused walk
//!    cuts them over its selections.
//!
//! Cancellation and fault injection work at morsel granularity: the token
//! is checked and the [`points::EXEC_MORSEL_FAIL`] fault point is probed
//! at every morsel, with a bounded retry so probabilistic chaos runs still
//! complete. The join build probes its own [`points::EXEC_JOIN_BUILD_FAIL`]
//! point per build morsel with the same retry budget.

use crate::aggregate::AggregatorCore;
use crate::expr::Expr;
use crate::fused::walk;
use crate::groups::RunningGroups;
use crate::join::{probe_batch, JoinTable, JoinTableBuilder, JoinType, ProbeScratch};
use crate::resources::ExecResources;
use crate::sort::{merge_spilled_sort, sort_entries, SortBuffer, SortEntry, SortKey, TopKAcc};
use oltap_common::fault::{points, FaultInjector};
use oltap_common::ids::TxnId;
use oltap_common::schema::SchemaRef;
use oltap_common::vector::BATCH_SIZE;
use oltap_common::{Batch, BitSet, CancellationToken, DataType, DbError, Field, Result, Row, Schema};
use oltap_sched::WorkerPool;
use oltap_storage::segment::{GroupSelector, PassChunks, Segment};
use oltap_storage::ScanPredicate;
use oltap_txn::Ts;
use parking_lot::{Condvar, Mutex};
use std::borrow::Cow;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

/// How many times a worker re-probes [`points::EXEC_MORSEL_FAIL`] before
/// giving up on a morsel and surfacing [`DbError::FaultInjected`]. With a
/// fire probability `p < 1` the chance of exhausting the budget is
/// `p^(RETRIES+1)` — negligible for chaos-test probabilities.
pub const MORSEL_FAULT_RETRIES: u32 = 16;

/// Rows of a held row group one morsel spans (a multiple of 64, so a
/// morsel's selection words line up with the chunk's blocks). It decides
/// only who does how much work, never an answer: 16 Ki rows is about
/// 20–60 µs of selection and folding on the CH columns, long enough that a
/// helper's wake-up (≈ 11 µs across cores) is paid once per several
/// morsels, short enough that a 48 k-row table still splits in three. The
/// seven CH `olap_scan` statements at two workers ran 1.56× their one-worker
/// time with it, 1.51× with 4 Ki-row morsels and 1.49× with 64 Ki.
pub const MORSEL_ROWS: usize = 16 * 1024;

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

    /// Applies this stage to one non-empty batch — a tail morsel's is
    /// borrowed until a stage changes it; `None` means the morsel was
    /// fully consumed (filtered out / no join matches). `scratch` is the
    /// thread's own probe buffers for this stage, reused across batches.
    fn apply<'b>(&self, batch: Cow<'b, Batch>, scratch: &mut ProbeScratch) -> Result<Option<Cow<'b, Batch>>> {
        match self {
            StageSpec::Filter(pred) => {
                let sel = pred.filter(&batch)?;
                if sel.len() == batch.len() {
                    return Ok(Some(batch));
                }
                if sel.is_empty() {
                    return Ok(None);
                }
                Ok(Some(Cow::Owned(batch.take(&sel))))
            }
            StageSpec::Project(exprs) => {
                Ok(Some(Cow::Owned(Batch::new(Expr::eval_all(exprs, &batch)?)?)))
            }
            StageSpec::Probe(p) => {
                let out = probe_batch(&p.table, &p.keys, p.join_type, &p.schema, &batch, scratch)?;
                Ok(out.map(Cow::Owned))
            }
        }
    }
}

/// The shared read-only state of a hash-join probe stage. The build table
/// is produced by [`ParallelContext::run_join_build`] (itself a pipeline)
/// and then probed concurrently without locks; each thread keeps its own
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

/// A pipeline's morsels, in scan order: the `(segment, row group, rows)`
/// morsels of its segments — a paged row group is one, a held one is cut
/// every [`MORSEL_ROWS`] rows — then its tail batches, one morsel each.
/// A morsel's index is its position in that list.
pub struct Source {
    pub(crate) segments: Vec<Arc<Segment>>,
    /// Per segment, rows the scan must not see (a dual table's stale keys).
    hidden: Vec<Option<BitSet>>,
    pred: ScanPredicate,
    pub(crate) projection: Vec<usize>,
    read_ts: Ts,
    me: TxnId,
    pub(crate) morsels: Vec<(usize, usize, Range<usize>)>,
    pub(crate) tail: Vec<Batch>,
}

impl Source {
    /// A scan's morsels at snapshot (`read_ts`, `me`): those of `segments`,
    /// each beside the rows to hide from it, then `tail` — batches already
    /// in `projection`'s order, such as the delta's visible rows.
    pub fn scan(
        segments: Vec<(Arc<Segment>, Option<BitSet>)>,
        tail: Vec<Batch>,
        pred: &ScanPredicate,
        projection: &[usize],
        (read_ts, me): (Ts, TxnId),
    ) -> Source {
        let mut morsels = Vec::new();
        for (s, (seg, _)) in segments.iter().enumerate() {
            let step = if seg.is_paged() { usize::MAX } else { MORSEL_ROWS };
            for g in 0..seg.group_count() {
                let rows = seg.group_bounds(g).1;
                for lo in (0..rows).step_by(step) {
                    morsels.push((s, g, lo..rows.min(lo.saturating_add(step))));
                }
            }
        }
        let (segments, hidden) = segments.into_iter().unzip();
        Source {
            segments,
            hidden,
            pred: pred.clone(),
            projection: projection.to_vec(),
            read_ts,
            me,
            morsels,
            tail,
        }
    }

    /// Morsels in all.
    pub(crate) fn len(&self) -> usize {
        self.morsels.len() + self.tail.len()
    }

    /// Morsel `m`'s batch if it is a tail morsel.
    pub(crate) fn tail(&self, m: usize) -> Option<&Batch> {
        m.checked_sub(self.morsels.len()).map(|t| &self.tail[t])
    }

    /// Its batches, taken out, when it is tail morsels alone.
    pub fn take_tail(&mut self) -> Option<Vec<Batch>> {
        self.morsels.is_empty().then(|| std::mem::take(&mut self.tail))
    }

    /// Every morsel's rows on the caller's thread, in morsel order.
    pub fn drain(self) -> Result<Vec<Batch>> {
        let ctx = ParallelContext {
            helpers: Helpers::default(),
            cancel: CancellationToken::none(),
            faults: FaultInjector::disabled(),
            mem: ExecResources::unlimited(),
        };
        ctx.run_collect(self, Vec::new())
    }
}

/// A breaker's output, or any batches at hand: tail morsels alone.
impl From<Vec<Batch>> for Source {
    fn from(tail: Vec<Batch>) -> Source {
        Source::scan(Vec::new(), tail, &ScanPredicate::all(), &[], (0, TxnId(0)))
    }
}

/// One thread's means to turn a source's morsels into stage output: its
/// passes over the segments it has touched (each opened at first touch,
/// beside its way to the chunks) and its probe buffers.
pub(crate) struct Reader<'w> {
    pub(crate) src: &'w Source,
    passes: Vec<Option<Option<(GroupSelector<'w>, PassChunks<'w>)>>>,
    stages: &'w [StageSpec],
    scratch: Vec<ProbeScratch>,
    pub(crate) cancel: &'w CancellationToken,
    pub(crate) faults: &'w FaultInjector,
}

impl<'w> Reader<'w> {
    pub(crate) fn new(
        src: &'w Source,
        stages: &'w [StageSpec],
        cancel: &'w CancellationToken,
        faults: &'w FaultInjector,
    ) -> Self {
        Reader {
            src,
            passes: src.segments.iter().map(|_| None).collect(),
            stages,
            scratch: stages.iter().map(|_| ProbeScratch::new()).collect(),
            cancel,
            faults,
        }
    }

    /// This thread's pass over segment `s`; `None` when its zone map or
    /// the predicate rules the segment out.
    pub(crate) fn pass(&mut self, s: usize) -> Result<Option<&(GroupSelector<'w>, PassChunks<'w>)>> {
        let src = self.src;
        if self.passes[s].is_none() {
            let mut selector = src.segments[s].selector(&src.pred, src.read_ts, src.me)?;
            if let (Some(selector), Some(rows)) = (&mut selector, &src.hidden[s]) {
                selector.hide(rows.clone());
            }
            self.passes[s] = Some(selector.map(|selector| {
                let chunks = selector.chunks();
                (selector, chunks)
            }));
        }
        Ok(self.passes[s].as_ref().and_then(Option::as_ref))
    }

    /// What every morsel starts with: the token checked, the fault point
    /// probed.
    fn guard(&self, m: usize) -> Result<()> {
        self.cancel.check()?;
        probe_morsel(self.faults, m)
    }

    /// Selects segment morsel `m` into `into`, `false` when no row is
    /// selected; guarded.
    pub(crate) fn select(&mut self, m: usize, into: &mut BitSet) -> Result<bool> {
        self.guard(m)?;
        let (s, g, rows) = &self.src.morsels[m];
        match self.pass(*s)? {
            Some((selector, _)) => selector.select_rows(*g, rows.clone(), into),
            None => Ok(false),
        }
    }

    /// Morsel `m` through the stage chain, guarded: a segment morsel's
    /// selected rows of the projected columns, gathered through this
    /// thread's pass, or `batch`, a tail morsel's. `None` when nothing is
    /// left of it.
    pub(crate) fn output<'b>(&mut self, m: usize, batch: Option<Cow<'b, Batch>>) -> Result<Option<Cow<'b, Batch>>> {
        let mut cur = match batch {
            Some(batch) => {
                self.guard(m)?;
                batch
            }
            None => {
                let mut sel = BitSet::new();
                if !self.select(m, &mut sel)? {
                    return Ok(None);
                }
                let src = self.src;
                let (s, g, rows) = &src.morsels[m];
                let (selector, _) = self.pass(*s)?.expect("a selected morsel's segment has a pass");
                Cow::Owned(selector.gather(*g, rows.start, &sel, &src.projection)?)
            }
        };
        for (stage, scratch) in self.stages.iter().zip(&mut self.scratch) {
            if cur.is_empty() {
                return Ok(None);
            }
            match stage.apply(cur, scratch)? {
                Some(next) => cur = next,
                None => return Ok(None),
            }
        }
        Ok((!cur.is_empty()).then_some(cur))
    }
}

/// Who may claim a statement's morsels besides its own thread.
#[derive(Clone, Default)]
pub struct Helpers {
    /// The database's worker pool: a walk fans out on as many of its
    /// workers as it has morsels, the statement's thread counting as one.
    /// `None`: every walk takes one pass.
    pub pool: Option<Arc<WorkerPool>>,
    /// Whether the transactional work beside the statement leaves a helper
    /// a core now; consulted before every claim. `None`: always.
    pub gate: Option<Arc<dyn Fn() -> bool + Send + Sync>>,
}

/// The claim loop's shared half: who is inside a fanned-out walk, whether
/// it failed, what its threads have handed in, and how they wait for each
/// other.
pub(crate) struct Crew<T> {
    /// [`Helpers::gate`]. (Never the pool: a helper may be a crew's last
    /// holder, and a pool cannot be dropped by its own worker.)
    gate: Option<Arc<dyn Fn() -> bool + Send + Sync>>,
    /// Set by the first failure: nobody claims anything after it.
    abort: AtomicBool,
    /// Claims the helpers made.
    pub(crate) helped: AtomicUsize,
    state: Mutex<CrewState<T>>,
    cv: Condvar,
}

#[derive(Default)]
struct CrewState<T> {
    /// Helpers inside the walk.
    active: usize,
    /// The statement is done with the walk: a helper starting now leaves.
    closed: bool,
    /// The first failure.
    failed: Option<DbError>,
    /// What the threads hand in.
    shared: T,
}

impl<T: Default> Crew<T> {
    pub(crate) fn new(helpers: &Helpers) -> Arc<Self> {
        Arc::new(Crew {
            gate: helpers.gate.clone(),
            abort: AtomicBool::default(),
            helped: AtomicUsize::default(),
            state: Mutex::default(),
            cv: Condvar::new(),
        })
    }

    /// Records the walk's first failure and stops everyone.
    fn fail(&self, err: DbError) {
        self.abort.store(true, Ordering::Relaxed);
        self.state.lock().failed.get_or_insert(err);
        self.cv.notify_all();
    }

    /// The next index of `next` below `n`, while this thread may claim:
    /// nothing failed and, for a helper, the gate is open.
    pub(crate) fn claim(&self, next: &AtomicUsize, n: usize, helper: bool) -> Option<usize> {
        let open = || self.gate.as_ref().is_none_or(|open| open());
        if self.abort.load(Ordering::Relaxed) || (helper && !open()) {
            return None;
        }
        let i = next.fetch_add(1, Ordering::Relaxed);
        if helper && i < n {
            self.helped.fetch_add(1, Ordering::Relaxed);
        }
        (i < n).then_some(i)
    }

    /// Hands `f` what the threads share, under the lock, and wakes whoever
    /// waits for it.
    pub(crate) fn hand_in(&self, f: impl FnOnce(&mut T)) {
        f(&mut self.state.lock().shared);
        self.cv.notify_all();
    }

    /// Waits until `ready` holds of what the threads share; `false` if the
    /// walk failed or closed first.
    pub(crate) fn wait(&self, mut ready: impl FnMut(&T) -> bool) -> bool {
        let mut state = self.state.lock();
        loop {
            if ready(&state.shared) {
                return true;
            }
            if state.failed.is_some() || state.closed {
                return false;
            }
            self.cv.wait(&mut state);
        }
    }
}

/// Work fanned out over a statement's thread and helpers by [`fan_out`].
pub(crate) trait Job: Send + Sync + 'static {
    /// What its threads hand in.
    type Shared: Default + Send;
    /// The claim loop's shared half.
    fn crew(&self) -> &Arc<Crew<Self::Shared>>;
    /// One thread's share: claims until nothing is left it may claim.
    fn share(&self, helper: bool) -> Result<()>;
}

/// Runs one thread's share of a statement: a panic in it becomes the
/// statement's typed error, whichever thread it hit.
pub(crate) fn caught<R>(share: impl FnOnce() -> Result<R>) -> Result<R> {
    catch_unwind(AssertUnwindSafe(share)).unwrap_or_else(|panic| {
        let what = panic.downcast_ref::<String>().map_or("", String::as_str);
        Err(DbError::Execution(format!("a morsel panicked: {what}")))
    })
}

/// The claim loop: `job`'s share on the statement's thread and on
/// `helpers` workers of `pool`, fire and forget. Once the statement's share
/// is done the walk closes — a helper that starts later leaves at once —
/// and every helper that started is waited for; then what the threads
/// handed in, or the first failure (what they handed in dropped with it).
pub(crate) fn fan_out<J: Job>(pool: &WorkerPool, helpers: usize, job: &Arc<J>) -> Result<J::Shared> {
    for _ in 0..helpers {
        let (crew, job) = (Arc::clone(job.crew()), Arc::downgrade(job));
        pool.submit(move || {
            {
                let mut state = crew.state.lock();
                if state.closed {
                    return;
                }
                state.active += 1;
            }
            // The statement holds the job while a helper is inside, and a
            // helper lets go of it before it leaves: the statement's hold is
            // the last, so what the job holds (the statement's budget) is
            // back when the statement answers, however late a queued helper
            // starts.
            if let Some(job) = job.upgrade() {
                if let Err(err) = caught(|| job.share(true)) {
                    crew.fail(err);
                }
            }
            crew.state.lock().active -= 1;
            crew.cv.notify_all();
        });
    }
    let crew = job.crew();
    if let Err(err) = caught(|| job.share(false)) {
        crew.fail(err);
    }
    let mut state = crew.state.lock();
    state.closed = true;
    while state.active > 0 {
        crew.cv.wait(&mut state);
    }
    let shared = std::mem::take(&mut state.shared);
    state.failed.take().map_or(Ok(shared), Err)
}

/// A pipeline into a row sink, fanned out: each thread folds what it
/// claims into a sink state of its own and hands the finished state in.
struct RowJob<S, R> {
    crew: Arc<Crew<Vec<R>>>,
    source: Source,
    stages: Vec<StageSpec>,
    next: AtomicUsize,
    cancel: CancellationToken,
    faults: Arc<FaultInjector>,
    make: Box<dyn Fn() -> S + Send + Sync>,
    consume: Box<Consume<S>>,
    finish: Box<dyn Fn(S) -> R + Send + Sync>,
}

/// A row sink's fold of morsel `m`'s stage output.
type Consume<S> = dyn for<'b> Fn(&mut S, usize, Cow<'b, Batch>) -> Result<()> + Send + Sync;

impl<S: 'static, R: Send + 'static> Job for RowJob<S, R> {
    type Shared = Vec<R>;

    fn crew(&self) -> &Arc<Crew<Vec<R>>> {
        &self.crew
    }

    fn share(&self, helper: bool) -> Result<()> {
        let mut reader = Reader::new(&self.source, &self.stages, &self.cancel, &self.faults);
        let mut state = (self.make)();
        while let Some(m) = self.crew.claim(&self.next, self.source.len(), helper) {
            if let Some(out) = reader.output(m, self.source.tail(m).map(Cow::Borrowed))? {
                (self.consume)(&mut state, m, out)?;
            }
        }
        let out = (self.finish)(state);
        self.crew.hand_in(|outs| outs.push(out));
        Ok(())
    }
}

/// Everything a pipeline run needs beyond its morsels and stages: who may
/// help, and the query's cancellation, fault and memory plumbing.
pub struct ParallelContext {
    /// Who claims morsels besides the statement's thread.
    pub helpers: Helpers,
    /// Per-query cancellation token, checked at every morsel.
    pub cancel: CancellationToken,
    /// Fault injector probed at every morsel.
    pub faults: Arc<FaultInjector>,
    /// Per-query memory budget and spill directory; every thread's sink
    /// draws from this one shared account.
    pub mem: ExecResources,
}

impl ParallelContext {
    /// The pool and how many of its workers help with `source` now: one
    /// fewer than its morsels or the pool's workers, none while the gate
    /// is shut or the source holds a paged segment.
    pub(crate) fn crew(&self, source: &Source) -> Option<(&WorkerPool, usize)> {
        let pool = self.helpers.pool.as_deref()?;
        let n = pool.worker_count().min(source.len());
        let paged = source.segments.iter().any(|s| s.is_paged());
        let open = || self.helpers.gate.as_ref().is_none_or(|open| open());
        (n > 1 && !paged && open()).then(|| (pool, n - 1))
    }

    /// Runs one pipeline into a row sink: whoever claims a morsel folds its
    /// stage output into a sink state `S` of its own; returns every
    /// thread's finished sink, in no particular order (row sinks merge by
    /// sequence number). On the statement's thread alone the tail batches
    /// are moved, not copied, into the sink.
    fn run_rows<S, R>(
        &self,
        source: impl Into<Source>,
        stages: Vec<StageSpec>,
        make: impl Fn() -> S + Send + Sync + 'static,
        consume: impl for<'b> Fn(&mut S, usize, Cow<'b, Batch>) -> Result<()> + Send + Sync + 'static,
        finish: impl Fn(S) -> R + Send + Sync + 'static,
    ) -> Result<Vec<R>>
    where
        S: 'static,
        R: Send + 'static,
    {
        let mut source = source.into();
        let Some((pool, helpers)) = self.crew(&source) else {
            return caught(|| {
                let tail = std::mem::take(&mut source.tail);
                let n = source.morsels.len();
                let mut reader = Reader::new(&source, &stages, &self.cancel, &self.faults);
                let mut state = make();
                let tail = (n..).zip(tail).map(|(m, b)| (m, Some(Cow::Owned(b))));
                for (m, batch) in (0..n).map(|m| (m, None)).chain(tail) {
                    if let Some(out) = reader.output(m, batch)? {
                        consume(&mut state, m, out)?;
                    }
                }
                Ok(vec![finish(state)])
            });
        };
        let job = Arc::new(RowJob {
            crew: Crew::new(&self.helpers),
            source,
            stages,
            next: AtomicUsize::new(0),
            cancel: self.cancel.clone(),
            faults: Arc::clone(&self.faults),
            make: Box::new(make),
            consume: Box::new(consume),
            finish: Box::new(finish),
        });
        fan_out(pool, helpers, &job)
    }

    /// Pipeline sink preserving the source's order: batches are collected
    /// tagged with their morsel index and merged by index.
    pub fn run_collect(&self, source: impl Into<Source>, stages: Vec<StageSpec>) -> Result<Vec<Batch>> {
        let runs = self.run_rows(
            source,
            stages,
            Vec::new,
            |state: &mut Vec<(usize, Batch)>, idx, batch| {
                state.push((idx, batch.into_owned()));
                Ok(())
            },
            |state| state,
        )?;
        let mut all: Vec<(usize, Batch)> = runs.into_iter().flatten().collect();
        all.sort_by_key(|(i, _)| *i);
        Ok(all.into_iter().map(|(_, b)| b).collect())
    }

    /// Aggregation sink: the stage output folded in stripes of
    /// [`STRIPE_ROWS`](crate::STRIPE_ROWS) rows of the post-stage row
    /// sequence against the shared query budget (a refused group freezes
    /// that stripe's store, which spills from then on), merged in stripe
    /// order; the caller [`finish`](RunningGroups::finish)es the store, or
    /// first merges it on into another partition's. Fanned out, this is the
    /// fused walk over parked stage output; should the budget refuse to
    /// park a morsel's output, the statement folds in one pass on its own
    /// thread instead.
    pub fn run_aggregate(
        &self,
        source: impl Into<Source>,
        stages: Vec<StageSpec>,
        core: Arc<AggregatorCore>,
    ) -> Result<RunningGroups> {
        let first = RunningGroups::new(&core, &self.mem);
        let walked = walk(source.into(), stages, false, first, self)?;
        Ok(walked.expect("a pipeline's walk is refused nothing").groups)
    }

    /// Join-build sink: per-thread [`JoinTableBuilder`]s accumulate radix
    /// partitions with rows tagged by morsel sequence; the merged builder
    /// restores build-scan order in [`JoinTableBuilder::finish`], so
    /// duplicate keys fan out in the same order at any worker count. Each
    /// build morsel probes [`points::EXEC_JOIN_BUILD_FAIL`] with the same
    /// bounded retry as the morsel fault point.
    pub fn run_join_build(
        &self,
        source: impl Into<Source>,
        stages: Vec<StageSpec>,
        keys: Vec<Expr>,
        build_width: usize,
    ) -> Result<JoinTable> {
        let key_width = keys.len();
        let faults = Arc::clone(&self.faults);
        let res = self.mem.clone();
        let parts: Vec<JoinTableBuilder> = self.run_rows(
            source,
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

    /// Sort sink: per-thread [`SortBuffer`]s (budget-bounded, spilling
    /// sorted runs to disk under pressure), k-way merged with
    /// sequence-number tie-breaking — exactly the order of a stable sort
    /// over the morsel-ordered input, whether or not any buffer spilled.
    pub fn run_sort(
        &self,
        source: impl Into<Source>,
        stages: Vec<StageSpec>,
        keys: Vec<SortKey>,
        schema: SchemaRef,
    ) -> Result<Vec<Batch>> {
        let key_exprs: Vec<Expr> = keys.iter().map(|k| k.expr.clone()).collect();
        let keys = Arc::new(keys);
        let k_make = Arc::clone(&keys);
        let res = self.mem.clone();
        let buffers = self.run_rows(
            source,
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

    /// Top-K sink: per-thread bounded heaps; the union of candidates is
    /// sorted (sequence tie-break) and truncated — the first `k` rows of
    /// the full sort, using O(n log k) work instead.
    pub fn run_topk(
        &self,
        source: impl Into<Source>,
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
        let sets = self.run_rows(
            source,
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

/// Probes [`points::EXEC_MORSEL_PANIC`] and then [`points::EXEC_MORSEL_FAIL`]
/// at the start of morsel `index`, retrying the latter up to
/// [`MORSEL_FAULT_RETRIES`] times before the morsel fails.
fn probe_morsel(faults: &FaultInjector, index: usize) -> Result<()> {
    if faults.should_fire(points::EXEC_MORSEL_PANIC) {
        panic!("{} at morsel {index}", points::EXEC_MORSEL_PANIC);
    }
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
    Ok(())
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::expr::BinOp;
    use oltap_common::fault::FaultPoint;
    use oltap_common::row;
    use oltap_common::Value;

    /// The shared test harness of the breaker modules: a pipeline context
    /// with `workers` workers — inline on the test thread when `workers <=
    /// 1`, a dedicated pool otherwise — drawing from `mem`.
    pub(crate) fn ctx_with(workers: usize, mem: ExecResources) -> ParallelContext {
        ParallelContext {
            helpers: Helpers {
                pool: (workers > 1).then(|| Arc::new(WorkerPool::new(workers))),
                gate: None,
            },
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

    /// The tasks `pool` has finished, once it is idle: a task hands its
    /// work in a moment before the pool counts it.
    fn settled(pool: &WorkerPool) -> u64 {
        let since = std::time::Instant::now();
        while !pool.is_idle() {
            assert!(since.elapsed().as_secs() < 5, "the pool never settled");
            std::thread::yield_now();
        }
        pool.completed()
    }

    /// A morsel that panics costs the statement its answer, as a typed
    /// error — not a hang, not an answer without that morsel, not an
    /// unwound statement thread — whichever thread claimed it: at one
    /// worker, on the statement's own thread while its helpers' gate is
    /// shut, and anywhere on the pool; in a pipeline's sink and in a fused
    /// walk. It costs the pool nothing: the same pool answers the next
    /// pipeline in full, with every OLAP slot handed back.
    #[test]
    fn a_panicking_morsel_is_a_typed_error_and_the_pool_lives_on() {
        use crate::aggregate::{AggExpr, AggregatorCore};
        use crate::fused::fused_aggregate;
        use oltap_common::ids::SegmentId;
        let (schema, bs) = batches(2000);
        // A held segment of 40 000 rows: three morsels of a fused walk.
        let rows: Vec<Row> = (0..40_000).map(|i| row![i as i64, (i % 10) as i64]).collect();
        let seg = Arc::new(Segment::from_rows(SegmentId(1), Arc::clone(&schema), &rows, 0, None).unwrap());
        let core = Arc::new(
            AggregatorCore::new(&schema, vec![(Expr::col(1), "v".into())], vec![AggExpr::count_star("n")]).unwrap(),
        );
        let walk = |c: &ParallelContext| {
            let source = Source::scan(vec![(Arc::clone(&seg), None)], Vec::new(), &ScanPredicate::all(), &[0, 1], (1, TxnId(7)));
            fused_aggregate(&core, source, c).map(|f| f.unwrap().groups.finish().unwrap())
        };
        // The statement's own thread claims every morsel: the gate shuts
        // right after the look that fans the walk out.
        let shut_after_one_look = || -> Arc<dyn Fn() -> bool + Send + Sync> {
            let looks = AtomicUsize::new(0);
            Arc::new(move || looks.fetch_add(1, Ordering::Relaxed) == 0)
        };
        for (workers, own_thread) in [(1, true), (2, true), (2, false), (4, false)] {
            let tag = format!("workers={workers} own thread={own_thread}");
            let mut c = ctx(workers);
            if own_thread {
                c.helpers.gate = Some(shut_after_one_look());
            }
            let err = c
                .run_rows(
                    bs.clone(),
                    Vec::new(),
                    || 0usize,
                    |rows: &mut usize, idx, batch| {
                        assert_ne!(idx, 7, "morsel 7 fails");
                        *rows += batch.len();
                        Ok(())
                    },
                    |rows| rows,
                )
                .unwrap_err();
            assert!(matches!(err, DbError::Execution(_)), "{tag}: {err:?}");
            let want = walk(&ctx(1)).unwrap();
            c.faults = FaultInjector::new(7);
            c.faults.arm(points::EXEC_MORSEL_PANIC, FaultPoint::times(1).after(1));
            if own_thread {
                c.helpers.gate = Some(shut_after_one_look());
            }
            let err = walk(&c).unwrap_err();
            assert!(matches!(err, DbError::Execution(_)), "{tag}: fused walk: {err:?}");
            assert_eq!(c.faults.fired_count(), 1, "{tag}");
            c.helpers.gate = None;
            assert_eq!(rows_of(&walk(&c).unwrap()), rows_of(&want), "{tag}");
            let got = c.run_collect(bs.clone(), Vec::new()).unwrap();
            assert_eq!(count(&got), 2000, "{tag}");
            // A worker is counted idle just after it hands its work in.
            if let Some(pool) = &c.helpers.pool {
                settled(pool);
                assert!(pool.is_idle(), "{tag}");
            }
        }
    }

    /// A pipeline of one morsel runs on the statement's thread and wakes
    /// no worker; one of many wakes helpers, which claim morsels.
    #[test]
    fn a_one_morsel_pipeline_wakes_no_worker() {
        let (_, bs) = batches(100);
        let c = ctx(4);
        let pool = c.helpers.pool.as_ref().unwrap();
        assert_eq!(count(&c.run_collect(bs, Vec::new()).unwrap()), 100);
        assert_eq!(settled(pool), 0);
        let (_, bs) = batches(2000);
        assert_eq!(count(&c.run_collect(bs, Vec::new()).unwrap()), 2000);
        assert!(settled(pool) > 0, "no helper ran");
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
