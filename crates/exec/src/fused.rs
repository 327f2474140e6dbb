//! Fused filter + aggregate over compressed segments
//! (operate-on-compressed, paper §3).
//!
//! The classic pipeline for `SELECT k, SUM(v) … GROUP BY k` decompresses
//! every surviving row into a [`Batch`], re-evaluates the group key
//! expression per batch, and probes a hash map per row. When the plan is
//! `Aggregate(Scan)` with plain column references, none of that
//! materialization is necessary: a morsel's selection bitmap from
//! [`GroupSelector::select_rows`] already says which rows survive, and the
//! encoded columns can feed the aggregates directly.
//!
//! The walk. A segment's row groups are cut into **morsels** — a paged
//! group is one, a held group (one spanning the segment) is cut every
//! [`MORSEL_ROWS`] rows — and a morsel's selection is the unit of work. The
//! selected rows, in scan order (segments, then the delta's rows), are
//! folded in **stripes** of [`STRIPE_ROWS`], each into a store of its own
//! ([`RunningGroups`], where the accumulators are described), and the
//! stripes are merged in stripe order. Who does the work depends on where
//! the rows are:
//!
//! * **One pass** — paged segments (the pager's loader thread is already
//!   their second core), a walk of fewer than two morsels, or no worker
//!   pool: the statement's thread selects each morsel and folds it at once,
//!   cutting stripes as they fill — so a column that is filtered *and*
//!   aggregated is faulted once.
//! * **Fanned out** — held segments, with the database's worker pool: the
//!   statement's thread and helpers from the pool claim morsels and select
//!   them, then claim stripes and fold them; the statement's thread merges
//!   the stripes in order. A helper claims nothing while its
//!   [`Helpers::gate`] is shut — the database shuts it while another
//!   session is open: transactions keep their core.
//!
//! Each piece of a row group that a stripe folds is visited one of two
//! ways:
//!
//! * **Dense** — at most one group column, integer or dictionary-coded.
//!   The key resolves to a group index with nothing decided per row:
//!   frame-of-reference codes index the store's own slots (one per value
//!   the zone maps allow for), dictionary codes a slot table resolved once
//!   per distinct code per piece, run-length keys resolve once per run, any
//!   other integer encoding goes through the key index behind a last-key
//!   memo. Inputs are read 64 rows at a time under the selection word —
//!   integers block-decoded, floats in place — and each accumulator is
//!   matched once per block, then updated in a loop over the selected rows'
//!   group indexes.
//! * **Scalar** — everything else (several group columns, float / bool /
//!   undictionaried string keys, `MIN`/`MAX` of strings): decode each
//!   selected row to [`Value`]s and update the same accumulators. The
//!   [`points::EXEC_KERNEL_FALLBACK`] fault point forces this path piece by
//!   piece; it is the reference the property and chaos suites hold the
//!   dense path to, bit for bit.
//!
//! Identity argument. Both paths visit the rows of a piece in the same
//! order and update the same accumulators, so every accumulator of every
//! group receives exactly the same updates in exactly the same order
//! whichever path a piece takes — and an accumulator two aggregates share
//! receives what each of them would have on its own. Within a stripe no
//! partial state is built and merged; across stripes the float `SUM`/`AVG`
//! (and `AVG` of integers) is *defined* as the stripes' sums added in
//! stripe order, and a stripe is a run of [`STRIPE_ROWS`] **selected rows
//! in scan order** — a function of the selected-row sequence alone, not of
//! where those rows are stored or who folds them. So the sums are
//! bit-identical on resident segments (one row group), paged ones (many)
//! and frozen ones, before and after a merge or a coalesce, at any fallback
//! probability, whichever thread claims which morsel or stripe, and at any
//! worker count. (Per-row-group partials merged in group order — the
//! obvious alternative — would define a *different* float sum for a paged
//! table than for the same rows resident in one group: row-group boundaries
//! are positions, which is why a stripe counts selected rows instead.) The
//! only other regrouping is where it is exact: the row count of a block
//! whose selected rows land in one group is a popcount, and integer,
//! count and min / max accumulators do not depend on order at all.

use crate::aggregate::AggregatorCore;
use crate::groups::{AccState, Keys, RunningGroups, Stripes, STRIPE_ROWS, UNRESOLVED};
use crate::pipeline::probe_morsel;
use crate::resources::ExecResources;
use oltap_common::cancel::CancellationToken;
use oltap_common::fault::{points, FaultInjector};
use oltap_common::ids::TxnId;
use oltap_common::{Batch, BitSet, DbError, Result, Row, Value};
use oltap_sched::{WorkerPool, WorkloadClass};
use oltap_storage::encoding::{BitPacked, IntEncoding, StrEncoding};
use oltap_storage::segment::{ColumnRef, EncodedColumn, GroupSelector, PassChunks, Segment};
use oltap_storage::ScanPredicate;
use oltap_txn::Ts;
use parking_lot::{Condvar, Mutex};
use std::cmp::{max_by, min_by};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// Rows of a held row group one morsel spans (a multiple of 64, so a
/// morsel's selection words line up with the chunk's blocks). It decides
/// only who does how much work, never an answer: 16 Ki rows is about
/// 20–60 µs of selection and folding on the CH columns, long enough that a
/// helper's wake-up (≈ 11 µs across cores) is paid once per several
/// morsels, short enough that a 48 k-row table still splits in three. The
/// seven CH `olap_scan` statements at two workers ran 1.56× their one-worker
/// time with it, 1.51× with 4 Ki-row morsels and 1.49× with 64 Ki.
pub const MORSEL_ROWS: usize = 16 * 1024;

/// Snapshot-visibility and statement-guard inputs shared by every segment
/// visit of one fused aggregation.
pub struct FusedScanCtx<'a> {
    /// Pushed-down predicate (drives [`Segment::selector`]).
    pub pred: &'a ScanPredicate,
    /// Snapshot timestamp.
    pub read_ts: Ts,
    /// Transaction identity.
    pub me: TxnId,
    /// Fault injector probed at [`points::EXEC_MORSEL_FAIL`] per morsel
    /// and [`points::EXEC_KERNEL_FALLBACK`] per piece.
    pub faults: &'a Arc<FaultInjector>,
    /// Checked every 64 blocks (4096 rows, the pipelines' morsel) on
    /// either path, and at every morsel.
    pub cancel: &'a CancellationToken,
    /// Who may fold beside the statement's thread.
    pub helpers: &'a Helpers,
}

/// The threads a fused walk may borrow besides the statement's own.
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

impl std::fmt::Debug for Helpers {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Helpers")
            .field("workers", &self.pool.as_ref().map(|p| p.worker_count()))
            .field("gated", &self.gate.is_some())
            .finish()
    }
}

/// A fused aggregation's groups, and how it got them.
pub struct Fused {
    /// Every input row folded in, sealed.
    pub groups: RunningGroups,
    /// Pieces of row groups folded on the dense path.
    pub dense: usize,
    /// Pieces folded on the scalar path.
    pub scalar: usize,
    /// Morsels and stripes the pool's helpers claimed.
    pub helped: usize,
}

/// Aggregates the visible rows of `segments`, then the `delta`'s rows, into
/// the groups of `core` — whose slots [are bare
/// columns](crate::AggregatorCore::reads_bare_columns) — without
/// materializing batches, in stripes (see the module docs). `projection`
/// maps scan-output ordinals (the store's slots) to table ordinals; the
/// delta's batches are in scan-output order already.
///
/// `None` when the governor refused a group while the segments were being
/// folded: nothing has been published and everything reserved is handed
/// back, and the statement starts over on the pipelines, where the same
/// store decides per row and spills — the dense kernels resolve a block's
/// groups before folding it and have nowhere to. (A refusal while folding
/// the delta freezes that stripe's store, which spills as the pipelines'
/// does.)
pub fn fused_aggregate(
    core: &Arc<AggregatorCore>,
    mem: &ExecResources,
    segments: Vec<Arc<Segment>>,
    delta: Vec<Batch>,
    projection: &[usize],
    ctx: &FusedScanCtx<'_>,
) -> Result<Option<Fused>> {
    let mut first = RunningGroups::new(core, mem);
    first.presize_slots(&segments, projection);
    let morsels = morsels(&segments);
    // Helpers beside the statement's thread, if the gate is open now; each
    // looks again before every claim.
    let open = ctx.helpers.gate.as_ref().is_none_or(|open| open());
    let crew = match &ctx.helpers.pool {
        Some(pool) if open && morsels.len() > 1 && !segments.iter().any(|s| s.is_paged()) => {
            pool.worker_count().min(morsels.len()) - 1
        }
        _ => 0,
    };
    let scan = Scan {
        segments: &segments,
        projection,
        pred: ctx.pred,
        read_ts: ctx.read_ts,
        me: ctx.me,
        faults: ctx.faults,
        cancel: ctx.cancel,
    };
    if crew == 0 {
        return one_pass(&scan, first, &morsels, &delta);
    }
    let walk = Arc::new(Walk {
        segments: segments.clone(),
        delta,
        projection: projection.to_vec(),
        pred: ctx.pred.clone(),
        read_ts: ctx.read_ts,
        me: ctx.me,
        faults: Arc::clone(ctx.faults),
        cancel: ctx.cancel.clone(),
        gate: ctx.helpers.gate.clone(),
        first,
        selections: morsels.iter().map(|_| OnceLock::new()).collect(),
        morsels,
        next_morsel: AtomicUsize::new(0),
        selected: AtomicUsize::new(0),
        stripes: OnceLock::new(),
        next_stripe: AtomicUsize::new(0),
        abort: AtomicBool::new(false),
        dense: AtomicUsize::new(0),
        scalar: AtomicUsize::new(0),
        helped: AtomicUsize::new(0),
        crew: Mutex::new(Crew::default()),
        cv: Condvar::new(),
    });
    let pool = ctx.helpers.pool.as_ref().expect("a crew has a pool");
    for _ in 0..crew {
        let walk = Arc::clone(&walk);
        // Fire and forget: `close` waits for every helper that started.
        drop(pool.submit(WorkloadClass::Olap, move || walk.help()));
    }
    walk.lead()
}

/// The morsels of `segments`, in scan order: `(segment, row group, rows)`.
/// A paged row group is one morsel — its pages are read once, by one
/// pass — and a held one is cut every [`MORSEL_ROWS`] rows.
fn morsels(segments: &[Arc<Segment>]) -> Vec<(usize, usize, Range<usize>)> {
    let mut out = Vec::new();
    for (s, seg) in segments.iter().enumerate() {
        let step = if seg.is_paged() { usize::MAX } else { MORSEL_ROWS };
        for g in 0..seg.group_count() {
            let rows = seg.group_bounds(g).1;
            let mut lo = 0;
            while lo < rows {
                let hi = lo + step.min(rows - lo);
                out.push((s, g, lo..hi));
                lo = hi;
            }
        }
    }
    out
}

/// What a walk reads, borrowed.
struct Scan<'w> {
    segments: &'w [Arc<Segment>],
    projection: &'w [usize],
    pred: &'w ScanPredicate,
    read_ts: Ts,
    me: TxnId,
    faults: &'w FaultInjector,
    cancel: &'w CancellationToken,
}

/// One thread's means to select and fold: its passes over the segments it
/// has touched (opened at first touch, each beside its way to the chunks)
/// and its dictionary slot table.
struct Folder<'w> {
    scan: &'w Scan<'w>,
    selectors: Vec<Option<Option<(GroupSelector<'w>, PassChunks<'w>)>>>,
    slots: SlotTable,
    dense: usize,
    scalar: usize,
}

impl<'w> Folder<'w> {
    fn new(scan: &'w Scan<'w>) -> Self {
        Folder {
            scan,
            selectors: scan.segments.iter().map(|_| None).collect(),
            slots: SlotTable::default(),
            dense: 0,
            scalar: 0,
        }
    }

    /// This thread's pass over segment `s`; `None` when its zone map or
    /// the predicate rules the segment out.
    fn selector(&mut self, s: usize) -> Result<Option<&(GroupSelector<'w>, PassChunks<'w>)>> {
        let scan = self.scan;
        if self.selectors[s].is_none() {
            let selector = scan.segments[s].selector(scan.pred, scan.read_ts, scan.me)?;
            self.selectors[s] = Some(selector.map(|selector| {
                let chunks = selector.chunks();
                (selector, chunks)
            }));
        }
        Ok(self.selectors[s].as_ref().and_then(Option::as_ref))
    }

    /// Selects morsel `m` into `into`, `false` when no row is selected:
    /// probes [`points::EXEC_MORSEL_FAIL`] and the token first.
    fn select(
        &mut self,
        m: usize,
        (s, g, rows): &(usize, usize, Range<usize>),
        into: &mut BitSet,
    ) -> Result<bool> {
        probe_morsel(self.scan.faults, m)?;
        self.scan.cancel.check()?;
        match self.selector(*s)? {
            Some((selector, _)) => selector.select_rows(*g, rows.clone(), into),
            None => Ok(false),
        }
    }

    /// Folds the selected rows of `sel` at positions `bits` into `run`:
    /// `sel` is a morsel's selection, its bit 0 row `first` of group `g` of
    /// segment `s`. The fault point forces the scalar decode-then-evaluate
    /// path piece by piece; results must not change.
    fn fold(
        &mut self,
        run: &mut RunningGroups,
        (s, g, first): (usize, usize, usize),
        sel: &BitSet,
        bits: Range<usize>,
    ) -> Result<()> {
        let scan = self.scan;
        let (_, pass) = self.selector(s)?.expect("a selected morsel's segment has a pass");
        let chunks = run.chunks(pass, g, scan.projection)?;
        let piece = Piece { sel, first, bits };
        let fused =
            run.group_cols.len() <= 1 && !scan.faults.should_fire(points::EXEC_KERNEL_FALLBACK);
        if fused && dense_piece(run, &mut self.slots, &chunks, &piece, scan.cancel)? {
            self.dense += 1;
            return Ok(());
        }
        for (n, i) in piece.ones().enumerate() {
            if n % 4096 == 0 {
                scan.cancel.check()?;
            }
            let row = first + i;
            run.update_row(|c| chunks[c].as_ref().map_or(Value::Null, |chunk| chunk.value_at(row)))?;
        }
        self.scalar += 1;
        Ok(())
    }
}

/// The walk on the statement's thread alone: each morsel selected and at
/// once folded into the open stripe, a stripe cut wherever one fills, then
/// the delta's rows the same way.
fn one_pass(
    scan: &Scan<'_>,
    first: RunningGroups,
    morsels: &[(usize, usize, Range<usize>)],
    delta: &[Batch],
) -> Result<Option<Fused>> {
    let mut folder = Folder::new(scan);
    let mut stripes = Stripes::new(first);
    let mut sel = BitSet::new();
    for (m, morsel) in morsels.iter().enumerate() {
        let folded = folder.select(m, morsel, &mut sel).and_then(|any| {
            if !any {
                return Ok(());
            }
            let mut at = 0;
            while at < sel.len() {
                let (end, taken) = after_ones(&sel, at, stripes.room());
                if taken == 0 {
                    break;
                }
                folder.fold(stripes.open(), (morsel.0, morsel.1, morsel.2.start), &sel, at..end)?;
                stripes.filled(taken)?;
                at = end;
            }
            Ok(())
        });
        match folded {
            Err(DbError::ResourceExhausted { .. }) if stripes.open().refused() => return Ok(None),
            folded => folded?,
        }
    }
    for batch in delta {
        stripes.consume(batch)?;
    }
    Ok(Some(Fused {
        groups: stripes.finish()?,
        dense: folder.dense,
        scalar: folder.scalar,
        helped: 0,
    }))
}

/// A morsel's selection, restricted to the bits a stripe takes of it.
struct Piece<'a> {
    sel: &'a BitSet,
    /// Group-local row of `sel`'s bit 0 (a multiple of 64).
    first: usize,
    bits: Range<usize>,
}

impl Piece<'_> {
    /// Selection word `w` of the piece: `sel`'s, less the bits outside.
    fn word(&self, w: usize) -> u64 {
        let mut word = self.sel.words()[w];
        if w == self.bits.start / 64 {
            word &= u64::MAX << (self.bits.start % 64);
        }
        if w == (self.bits.end - 1) / 64 && !self.bits.end.is_multiple_of(64) {
            word &= u64::MAX >> (64 - self.bits.end % 64);
        }
        word
    }

    /// The words the piece spans.
    fn words(&self) -> Range<usize> {
        self.bits.start / 64..self.bits.end.div_ceil(64)
    }

    /// The selected positions of the piece, ascending.
    fn ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words()
            .flat_map(move |w| set_bits(self.word(w)).map(move |o| w * 64 + o))
    }
}

/// The position just past the `n`-th (`n ≥ 1`) selected bit of `sel` at
/// or after `from`, and `n` — or, with fewer left, `sel`'s end and how many
/// there were.
fn after_ones(sel: &BitSet, from: usize, n: usize) -> (usize, usize) {
    debug_assert!(n > 0);
    let mut taken = 0;
    for w in from / 64..sel.words().len() {
        let mut word = sel.words()[w];
        if w == from / 64 {
            word &= u64::MAX << (from % 64);
        }
        let ones = word.count_ones() as usize;
        if taken + ones >= n {
            // Drop the word's lowest set bits until the `n`-th is lowest.
            for _ in 0..n - taken - 1 {
                word &= word - 1;
            }
            return (w * 64 + word.trailing_zeros() as usize + 1, n);
        }
        taken += ones;
    }
    (sel.len(), taken)
}

/// A walk fanned out over the statement's thread and helpers from the pool:
/// what they read, what they have found, and how they wait for each other.
struct Walk {
    segments: Vec<Arc<Segment>>,
    delta: Vec<Batch>,
    projection: Vec<usize>,
    pred: ScanPredicate,
    read_ts: Ts,
    me: TxnId,
    faults: Arc<FaultInjector>,
    cancel: CancellationToken,
    /// [`Helpers::gate`]. (The walk never holds the pool: a helper may be
    /// the walk's last holder, and a pool cannot be dropped by its own
    /// worker.)
    gate: Option<Arc<dyn Fn() -> bool + Send + Sync>>,
    /// An empty store with the statement's key slots: each stripe's is one
    /// like it.
    first: RunningGroups,
    morsels: Vec<(usize, usize, Range<usize>)>,
    next_morsel: AtomicUsize,
    /// Each morsel's selection, once selected (`None`: none).
    selections: Vec<OnceLock<Option<BitSet>>>,
    /// Morsels selected so far.
    selected: AtomicUsize,
    /// Where each stripe starts, `(unit, position)`: the units are the
    /// morsels and then the delta's batches, a position a bit of a
    /// morsel's selection or a row of a batch. Cut once every morsel is
    /// selected.
    stripes: OnceLock<Vec<(usize, usize)>>,
    next_stripe: AtomicUsize,
    /// Set by the first failure: nobody claims anything after it.
    abort: AtomicBool,
    dense: AtomicUsize,
    scalar: AtomicUsize,
    helped: AtomicUsize,
    crew: Mutex<Crew>,
    cv: Condvar,
}

/// What the walk's threads wait on, under [`Walk::crew`].
#[derive(Default)]
struct Crew {
    /// Helpers inside the walk.
    active: usize,
    /// The statement is done with the walk: a helper starting now leaves.
    closed: bool,
    /// Each stripe's store, once folded.
    folded: Vec<Option<RunningGroups>>,
    /// The first failure, and whether it was the governor refusing a group
    /// while segments were folded.
    failed: Option<(DbError, bool)>,
}

/// Leaves the walk on a helper's way out — panicking included, when the
/// walk fails so that nobody waits for what the helper held.
struct Leave<'w>(&'w Walk);

impl Drop for Leave<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.fail(DbError::Execution("a fused walk's helper panicked".into()), false);
        }
        self.0.crew.lock().active -= 1;
        self.0.cv.notify_all();
    }
}

impl Walk {
    fn scan(&self) -> Scan<'_> {
        Scan {
            segments: &self.segments,
            projection: &self.projection,
            pred: &self.pred,
            read_ts: self.read_ts,
            me: self.me,
            faults: &self.faults,
            cancel: &self.cancel,
        }
    }

    /// Records the walk's first failure and stops everyone.
    fn fail(&self, err: DbError, refused: bool) {
        self.abort.store(true, Ordering::Relaxed);
        let mut crew = self.crew.lock();
        crew.failed.get_or_insert((err, refused));
        drop(crew);
        self.cv.notify_all();
    }

    /// Whether a thread may claim more: nothing failed and, for a helper,
    /// the gate is open.
    fn may_claim(&self, helper: bool) -> bool {
        let open = || self.gate.as_ref().is_none_or(|open| open());
        !self.abort.load(Ordering::Relaxed) && (!helper || open())
    }

    /// A helper's share: morsels, then stripes, while it may claim them.
    fn help(&self) {
        {
            let mut crew = self.crew.lock();
            if crew.closed {
                return;
            }
            crew.active += 1;
        }
        let _leave = Leave(self);
        let scan = self.scan();
        let mut folder = Folder::new(&scan);
        let done = self
            .select_morsels(&mut folder, true)
            .and_then(|()| self.fold_stripes(&mut folder, true));
        self.dense.fetch_add(folder.dense, Ordering::Relaxed);
        self.scalar.fetch_add(folder.scalar, Ordering::Relaxed);
        if let Err((err, refused)) = done {
            self.fail(err, refused);
        }
    }

    /// The statement's share: morsels, then stripes, then every stripe
    /// merged in order once the helpers have folded theirs; whatever
    /// happened, the walk closes before it answers.
    fn lead(&self) -> Result<Option<Fused>> {
        // Should the statement's thread panic, nobody may wait for what it
        // claimed.
        struct Abandon<'w>(&'w Walk);
        impl Drop for Abandon<'_> {
            fn drop(&mut self) {
                if std::thread::panicking() {
                    self.0.fail(DbError::Execution("a fused walk panicked".into()), false);
                    self.0.crew.lock().closed = true;
                }
            }
        }
        let _abandon = Abandon(self);
        let scan = self.scan();
        let mut folder = Folder::new(&scan);
        let done = self
            .select_morsels(&mut folder, false)
            .and_then(|()| self.fold_stripes(&mut folder, false));
        if let Err((err, refused)) = done {
            self.fail(err, refused);
        }
        let (folded, failed) = self.close();
        if let Some((err, refused)) = failed {
            return if refused { Ok(None) } else { Err(err) };
        }
        // Every stripe is folded (nothing failed), merged in stripe order.
        let mut stripes = folded.into_iter().flatten();
        let mut groups = stripes.next().unwrap_or_else(|| self.first.empty_like());
        for stripe in stripes {
            groups.merge(stripe)?;
        }
        groups.seal()?;
        Ok(Some(Fused {
            groups,
            dense: self.dense.load(Ordering::Relaxed) + folder.dense,
            scalar: self.scalar.load(Ordering::Relaxed) + folder.scalar,
            helped: self.helped.load(Ordering::Relaxed),
        }))
    }

    /// Closes the walk to helpers not yet started, waits for the ones that
    /// did, and takes the stripes and the failure out of it — a helper
    /// still queued holds the walk, but no store.
    fn close(&self) -> (Vec<Option<RunningGroups>>, Option<(DbError, bool)>) {
        let mut crew = self.crew.lock();
        crew.closed = true;
        while crew.active > 0 {
            self.cv.wait(&mut crew);
        }
        (std::mem::take(&mut crew.folded), crew.failed.take())
    }

    /// Claims and selects morsels until none is left; whoever selects the
    /// last one cuts the stripes.
    fn select_morsels(&self, folder: &mut Folder<'_>, helper: bool) -> std::result::Result<(), (DbError, bool)> {
        while self.may_claim(helper) {
            let m = self.next_morsel.fetch_add(1, Ordering::Relaxed);
            let Some(morsel) = self.morsels.get(m) else {
                break;
            };
            let mut sel = BitSet::new();
            let any = folder.select(m, morsel, &mut sel).map_err(|e| (e, false))?;
            self.selections[m].set(any.then_some(sel)).expect("a morsel is claimed once");
            if helper {
                self.helped.fetch_add(1, Ordering::Relaxed);
            }
            if self.selected.fetch_add(1, Ordering::AcqRel) + 1 == self.morsels.len() {
                self.cut_stripes();
            }
        }
        Ok(())
    }

    /// Where each stripe starts (see [`Walk::stripes`]), published to
    /// whoever waits for it.
    fn cut_stripes(&self) {
        let mut starts = Vec::new();
        let mut seen = 0;
        let units = self.selections.iter().map(|sel| {
            let sel = sel.get().and_then(Option::as_ref);
            (sel, sel.map_or(0, BitSet::count_ones))
        });
        let batches = self.delta.iter().map(|b| (None, b.len()));
        for (u, (sel, rows)) in units.chain(batches).enumerate() {
            while starts.len() * STRIPE_ROWS < seen + rows {
                let nth = starts.len() * STRIPE_ROWS - seen;
                let at = match sel {
                    Some(sel) => after_ones(sel, 0, nth + 1).0 - 1,
                    None => nth,
                };
                starts.push((u, at));
            }
            seen += rows;
        }
        let mut crew = self.crew.lock();
        crew.folded = starts.iter().map(|_| None).collect();
        self.stripes.set(starts).expect("the stripes are cut once");
        drop(crew);
        self.cv.notify_all();
    }

    /// Waits until the stripes are cut; `false` if the walk failed or
    /// closed first.
    fn stripes_cut(&self) -> bool {
        let mut crew = self.crew.lock();
        loop {
            if self.stripes.get().is_some() {
                return true;
            }
            if crew.failed.is_some() || crew.closed {
                return false;
            }
            self.cv.wait(&mut crew);
        }
    }

    /// Claims and folds stripes until none is left; the statement's thread
    /// then waits until the helpers have folded theirs.
    fn fold_stripes(&self, folder: &mut Folder<'_>, helper: bool) -> std::result::Result<(), (DbError, bool)> {
        if !self.stripes_cut() {
            return Ok(());
        }
        let starts = self.stripes.get().expect("cut");
        while self.may_claim(helper) {
            let k = self.next_stripe.fetch_add(1, Ordering::Relaxed);
            if k >= starts.len() {
                break;
            }
            let stripe = self.fold_stripe(folder, starts[k])?;
            if helper {
                self.helped.fetch_add(1, Ordering::Relaxed);
            }
            self.crew.lock().folded[k] = Some(stripe);
            self.cv.notify_all();
        }
        if !helper {
            let mut crew = self.crew.lock();
            while crew.failed.is_none() && crew.folded.iter().any(Option::is_none) {
                self.cv.wait(&mut crew);
            }
        }
        Ok(())
    }

    /// Folds the stripe starting at `(unit, at)`: [`STRIPE_ROWS`] selected
    /// rows, or the rest, into a store of its own.
    fn fold_stripe(
        &self,
        folder: &mut Folder<'_>,
        (mut unit, mut at): (usize, usize),
    ) -> std::result::Result<RunningGroups, (DbError, bool)> {
        let mut run = self.first.empty_like();
        let mut left = STRIPE_ROWS;
        while left > 0 && unit < self.morsels.len() {
            if let Some(sel) = self.selections[unit].get().and_then(Option::as_ref) {
                let (end, taken) = after_ones(sel, at, left);
                if taken > 0 {
                    let (s, g, rows) = &self.morsels[unit];
                    let folded = folder.fold(&mut run, (*s, *g, rows.start), sel, at..end);
                    folded.map_err(|e| {
                        let refused = matches!(e, DbError::ResourceExhausted { .. }) && run.refused();
                        (e, refused)
                    })?;
                    left -= taken;
                }
            }
            (unit, at) = (unit + 1, 0);
        }
        while left > 0 {
            let Some(batch) = self.delta.get(unit - self.morsels.len()) else {
                break;
            };
            let take = left.min(batch.len() - at);
            run.consume_range(batch, at..at + take).map_err(|e| (e, false))?;
            left -= take;
            (unit, at) = (unit + 1, 0);
        }
        Ok(run)
    }
}

/// What only the segment walk asks of the store.
impl RunningGroups {
    /// Before the first group: gives every key the zone maps of `segments`
    /// allow for the integer group column a slot, when they span no more
    /// than the slot budget.
    fn presize_slots(&mut self, segments: &[Arc<Segment>], projection: &[usize]) {
        let (Keys::Int { lo, slots, .. }, [c], true) =
            (&mut self.keys, &self.group_cols[..], self.rows.is_empty())
        else {
            return;
        };
        let zones = || {
            segments
                .iter()
                .map(|seg| &seg.zone_map().columns[projection[*c]])
        };
        let bound = |v: &Option<Value>| v.as_ref().and_then(|v| v.as_int().ok());
        let (Some(min), Some(max)) = (
            zones().filter_map(|z| bound(&z.min)).min(),
            zones().filter_map(|z| bound(&z.max)).max(),
        ) else {
            return;
        };
        if let Some(span) = max
            .checked_sub(min)
            .filter(|&span| span < 1 << MAX_SLOT_CODE_BITS)
        {
            *lo = min;
            slots.resize(span as usize + 1, UNRESOLVED);
        }
    }

    /// Row group `g`'s chunks by scan-output ordinal: those of the group
    /// columns and the accumulators' inputs, `None` for the rest.
    fn chunks<'s>(
        &self,
        pass: &PassChunks<'s>,
        g: usize,
        projection: &[usize],
    ) -> Result<Vec<Option<ColumnRef<'s>>>> {
        let mut chunks: Vec<Option<ColumnRef<'s>>> = projection.iter().map(|_| None).collect();
        for &c in &self.read_slots {
            chunks[c] = Some(pass.column_chunk(g, projection[c])?);
        }
        Ok(chunks)
    }
}

/// A row group's dictionary code → group index table, kept for the
/// statement and returned to all-[`UNRESOLVED`] after each row group by
/// undoing only the entries that group resolved.
#[derive(Default)]
struct SlotTable {
    slots: Vec<u32>,
    resolved: Vec<u32>,
}

impl SlotTable {
    fn fit(&mut self, codes: usize) {
        if self.slots.len() < codes {
            self.slots.resize(codes, UNRESOLVED);
        }
    }

    fn clear(&mut self) {
        for code in self.resolved.drain(..) {
            self.slots[code as usize] = UNRESOLVED;
        }
    }

    /// The group of `code`: at its first sight in this row group, that of
    /// the key `dict` spells it as.
    fn group_of(
        &mut self,
        code: usize,
        dict: &Dict<'_>,
        run: &mut RunningGroups,
    ) -> Result<u32> {
        if self.slots[code] == UNRESOLVED {
            self.slots[code] = match dict {
                Dict::Ints(dict) => run.group_of_int(Some(dict[code]))?,
                Dict::Strs(dict) => run.group_of(Row::new(vec![Value::Str(dict[code].clone())]))?,
            };
            self.resolved.push(code as u32);
        }
        Ok(self.slots[code])
    }
}

/// Where a dense row group's group indexes come from.
enum KeySource<'a> {
    /// No GROUP BY: every row belongs to the one empty key, resolved at
    /// the first selected row.
    Global(Option<u32>),
    /// Frame-of-reference codes and the frame's base: `base + code` is the
    /// key, and has a slot in the store ([`Keys::Int`]).
    For(&'a BitPacked, i64),
    /// Dictionary codes, which index a [`SlotTable`].
    Dict(&'a BitPacked, Dict<'a>),
    /// Run-length encoded: one resolution per run. `next` is the run
    /// holding row `start` or a later one; blocks arrive in row order.
    Runs {
        runs: &'a [(i64, u32)],
        next: usize,
        start: usize,
    },
    /// Any other integer encoding: block-decoded values behind a memo of
    /// the last key resolved.
    Ints(&'a EncodedColumn, Option<(i64, u32)>),
}

/// What a dictionary key code stands for.
enum Dict<'a> {
    Ints(&'a [i64]),
    Strs(&'a [String]),
}

/// The slot budget, in bits (64 Ki slots): integer keys have a slot each
/// when the column spans no more values than this; wider ones go through
/// the key index.
const MAX_SLOT_CODE_BITS: u8 = 16;

impl<'a> KeySource<'a> {
    /// The key source of `chunk` with the number of dictionary slots it
    /// needs, or `None` for a chunk only the scalar path can key on.
    /// `slotted`: the store has a slot per integer key.
    fn of(chunk: Option<&'a EncodedColumn>, slotted: bool) -> Option<(Self, usize)> {
        Some(match chunk {
            None => (KeySource::Global(None), 0),
            Some(col @ EncodedColumn::Int { enc, .. }) => match enc {
                IntEncoding::Dict(d) => (
                    KeySource::Dict(d.codes(), Dict::Ints(d.dict())),
                    d.cardinality(),
                ),
                IntEncoding::For(f) if slotted => (KeySource::For(f.packed(), f.base()), 0),
                IntEncoding::Rle(r) => (
                    KeySource::Runs {
                        runs: r.runs(),
                        next: 0,
                        start: 0,
                    },
                    0,
                ),
                _ => (KeySource::Ints(col, None), 0),
            },
            Some(EncodedColumn::Str {
                enc: StrEncoding::Dict(d),
                ..
            }) => (
                KeySource::Dict(d.codes(), Dict::Strs(d.dict())),
                d.cardinality(),
            ),
            Some(_) => return None,
        })
    }

    /// Resolves the group of each row of block `[base, base + take)`
    /// selected in `keyed` (key not NULL) into `gidx`; when all of them
    /// share one group, returns it instead.
    fn resolve_block(
        &mut self,
        (base, take): (usize, usize),
        keyed: u64,
        run: &mut RunningGroups,
        slots: &mut SlotTable,
        gidx: &mut [u32; 64],
    ) -> Result<Option<u32>> {
        match self {
            KeySource::Global(Some(gi)) => return Ok(Some(*gi)),
            KeySource::Global(gi) => {
                *gi = Some(run.group_of(Row::new(Vec::new()))?);
                return Ok(*gi);
            }
            // Zero bits a code: the chunk holds one value (a clustered key
            // in a small row group usually does).
            KeySource::For(codes, frame) if codes.width() == 0 => {
                return run.group_of_int(Some(*frame)).map(Some);
            }
            KeySource::Dict(codes, dict) if codes.width() == 0 => {
                return slots.group_of(0, dict, run).map(Some);
            }
            KeySource::For(codes, frame) => {
                let mut buf = [0u64; 64];
                codes.unpack_block(base, &mut buf[..take]);
                let (lo, of_key) = run.keys.slots();
                // The slots from the frame's base on. A frame that starts
                // below them (one stretched by a NULL's placeholder) has
                // none: its rows resolve one by one.
                let first = frame.checked_sub(lo).and_then(|d| usize::try_from(d).ok());
                let of_code = first.and_then(|s| of_key.get(s..)).unwrap_or(&[]);
                let slot = |code| of_code.get(code as usize).map_or(UNRESOLVED, |gi| *gi);
                if gather(gidx, &buf[..take], slot) {
                    for o in set_bits(keyed) {
                        gidx[o] = run.group_of_int(Some(frame.wrapping_add(buf[o] as i64)))?;
                    }
                }
            }
            KeySource::Dict(codes, dict) => {
                let mut buf = [0u64; 64];
                codes.unpack_block(base, &mut buf[..take]);
                if gather(gidx, &buf[..take], |code| slots.slots[code as usize]) {
                    for o in set_bits(keyed) {
                        gidx[o] = slots.group_of(buf[o] as usize, dict, run)?;
                    }
                }
            }
            KeySource::Runs { runs, next, start } => {
                while *start + runs[*next].1 as usize <= base {
                    *start += runs[*next].1 as usize;
                    *next += 1;
                }
                let end = base + take;
                if *start + runs[*next].1 as usize >= end {
                    return run.group_of_int(Some(runs[*next].0)).map(Some);
                }
                let (mut r, mut run_start, mut pos) = (*next, *start, base);
                while pos < end {
                    let (v, len) = runs[r];
                    let run_end = run_start + len as usize;
                    let piece_end = run_end.min(end);
                    let piece = match piece_end - pos {
                        0 => 0,
                        width => keyed & ((u64::MAX >> (64 - width)) << (pos - base)),
                    };
                    if piece != 0 {
                        let gi = run.group_of_int(Some(v))?;
                        for o in set_bits(piece) {
                            gidx[o] = gi;
                        }
                    }
                    pos = piece_end;
                    if piece_end == run_end {
                        run_start = run_end;
                        r += 1;
                    }
                }
            }
            KeySource::Ints(col, memo) => {
                let mut buf = [0i64; 64];
                col.decode_int_block(base, &mut buf[..take]);
                for o in set_bits(keyed) {
                    gidx[o] = match *memo {
                        Some((v, gi)) if v == buf[o] => gi,
                        _ => {
                            let gi = run.group_of_int(Some(buf[o]))?;
                            *memo = Some((buf[o], gi));
                            gi
                        }
                    };
                }
            }
        }
        Ok(None)
    }
}

/// Every lane's slot into `gidx`, with nothing to decide per row; `true`
/// when some lane's code has no group yet, and the block goes back over its
/// selected rows to resolve them.
#[inline(always)]
fn gather(gidx: &mut [u32; 64], codes: &[u64], slot: impl Fn(u64) -> u32) -> bool {
    let mut unresolved = false;
    for (gi, &code) in gidx.iter_mut().zip(codes) {
        *gi = slot(code);
        unresolved |= *gi == UNRESOLVED;
    }
    unresolved
}

/// The word of `bits` covering block `w` (`None` = every row set).
#[inline]
fn word_of(bits: Option<&BitSet>, w: usize) -> u64 {
    bits.map_or(u64::MAX, |b| b.words()[w])
}

/// The groups of a block's selected rows: one for all, or one per row.
enum Groups<'a> {
    One(usize),
    PerRow(&'a [u32; 64]),
}

/// Updates `acc` with the rows of `mask`, in row order: `f(a, o)` is the
/// accumulator after row `o`. One group's entry stays in a register for
/// the block.
#[inline(always)]
fn fold<T: Copy>(acc: &mut [T], groups: &Groups<'_>, mask: u64, f: impl Fn(T, usize) -> T) {
    // A full mask walks the block without a bit scan per row.
    macro_rules! rows {
        ($each:expr) => {
            if mask == u64::MAX {
                (0..64).for_each($each)
            } else {
                set_bits(mask).for_each($each)
            }
        };
    }
    match groups {
        Groups::One(gi) => {
            let mut a = acc[*gi];
            rows!(|o| a = f(a, o));
            acc[*gi] = a;
        }
        Groups::PerRow(gidx) => rows!(|o| {
            let a = &mut acc[gidx[o] as usize];
            *a = f(*a, o);
        }),
    }
}

/// The positions of `mask`'s set bits, ascending: how the selected rows of
/// a 64-row block are walked.
#[inline]
fn set_bits(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let o = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            o
        })
    })
}


/// Attempts the dense path for one piece of a row group. Returns `false`
/// (touching nothing) when the group column's chunk or an accumulator's
/// input is one only the scalar path handles, in which case the caller runs
/// that.
fn dense_piece(
    run: &mut RunningGroups,
    slots: &mut SlotTable,
    chunks: &[Option<ColumnRef<'_>>],
    piece: &Piece<'_>,
    cancel: &CancellationToken,
) -> Result<bool> {
    let key_chunk = run.group_cols.first().and_then(|&c| chunks[c].as_deref());
    let slotted = !run.keys.slots().1.is_empty();
    let Some((mut keys, codes)) = KeySource::of(key_chunk, slotted) else {
        return Ok(false);
    };
    let key_validity = key_chunk.and_then(|c| c.validity());
    // Every accumulator's input: its validity, and its values where the
    // accumulator reads them — a float column's in place.
    enum Values<'a> {
        Unread,
        Ints(&'a EncodedColumn),
        Floats(&'a [f64]),
    }
    let mut inputs = Vec::with_capacity(run.accs.len());
    for acc in &run.accs {
        let chunk = chunks[acc.col].as_deref();
        let values = match (&acc.state, chunk) {
            (AccState::Nulls(_), Some(_)) => Values::Unread,
            (
                AccState::SumF(_) | AccState::SumI(_) | AccState::MinI(_) | AccState::MaxI(_),
                Some(ints @ EncodedColumn::Int { .. }),
            ) => Values::Ints(ints),
            (
                AccState::SumF(_) | AccState::MinF(_) | AccState::MaxF(_),
                Some(EncodedColumn::Float { values, .. }),
            ) => Values::Floats(values),
            _ => return Ok(false),
        };
        inputs.push((chunk.and_then(|c| c.validity()), values));
    }

    slots.fit(codes);
    // The group rows the selection covers end here.
    let rows = piece.first + piece.sel.len();
    let mut null_group = None;
    let mut gidx = [0u32; 64];
    let mut vals = [0i64; 64];
    let words = piece.words();
    for wb in words.clone() {
        if (wb - words.start).is_multiple_of(64) {
            cancel.check()?;
        }
        let selword = piece.word(wb);
        if selword == 0 {
            continue;
        }
        // The chunk's block: its word `cw`, its first row `base`.
        let (cw, base) = (piece.first / 64 + wb, piece.first + wb * 64);
        let take = (rows - base).min(64);
        // Group of every selected row: one for the whole block, or one per
        // row in `gidx`. NULL keys are a group of their own.
        let keyed = selword & word_of(key_validity, cw);
        let mut uniform = match keyed {
            0 => None,
            _ => keys.resolve_block((base, take), keyed, run, slots, &mut gidx)?,
        };
        if keyed != selword {
            let null_group = match null_group {
                Some(gi) => gi,
                None => *null_group.insert(run.group_of_int(None)?),
            };
            if keyed == 0 {
                uniform = Some(null_group);
            } else {
                if let Some(gi) = uniform.take() {
                    for o in set_bits(keyed) {
                        gidx[o] = gi;
                    }
                }
                for o in set_bits(selword & !keyed) {
                    gidx[o] = null_group;
                }
            }
        }
        let groups = match uniform {
            Some(gi) => {
                run.rows[gi as usize] += i64::from(selword.count_ones());
                Groups::One(gi as usize)
            }
            None => {
                fold(&mut run.rows, &Groups::PerRow(&gidx), selword, |n, _| n + 1);
                Groups::PerRow(&gidx)
            }
        };
        // Which column `vals` holds decoded: consecutive accumulators of
        // one column (`SUM(v), MIN(v), MAX(v)`) decode it once.
        let mut decoded = None;
        for (acc, (validity, values)) in run.accs.iter_mut().zip(&inputs) {
            let valid = word_of(*validity, cw);
            let mask = match values {
                Values::Unread => selword & !valid,
                _ => selword & valid,
            };
            if mask == 0 {
                continue;
            }
            let floats = match *values {
                Values::Ints(ints) if decoded != Some(acc.col) => {
                    ints.decode_int_block(base, &mut vals[..take]);
                    decoded = Some(acc.col);
                    &[][..]
                }
                Values::Floats(values) => &values[base..base + take],
                _ => &[][..],
            };
            match (&mut acc.state, values) {
                (AccState::Nulls(n), _) => fold(n, &groups, mask, |n, _| n + 1),
                (AccState::SumF(s), Values::Floats(_)) => {
                    fold(s, &groups, mask, |s, o| s + floats[o])
                }
                (AccState::SumF(s), _) => fold(s, &groups, mask, |s, o| s + vals[o] as f64),
                (AccState::SumI(s), _) => fold(s, &groups, mask, |s, o| s.wrapping_add(vals[o])),
                (AccState::MinI(m), _) => fold(m, &groups, mask, |m, o| m.min(vals[o])),
                (AccState::MaxI(m), _) => fold(m, &groups, mask, |m, o| m.max(vals[o])),
                (AccState::MinF(m), _) => fold(m, &groups, mask, |m, o| {
                    min_by(m, floats[o], f64::total_cmp)
                }),
                (AccState::MaxF(m), _) => fold(m, &groups, mask, |m, o| {
                    max_by(m, floats[o], f64::total_cmp)
                }),
                (AccState::MinV(_) | AccState::MaxV(_), _) => {}
            }
        }
    }
    slots.clear();
    Ok(true)
}
