//! Fused filter + aggregate over compressed segments
//! (operate-on-compressed, paper §3).
//!
//! The classic pipeline for `SELECT k, SUM(v) … GROUP BY k` decompresses
//! every surviving row into a [`Batch`], re-evaluates the group key
//! expression per batch, and probes a hash map per row. When the plan is
//! `Aggregate(Scan)` with plain column references, none of that
//! materialization is necessary: a morsel's selection bitmap from
//! [`GroupSelector::select_rows`](oltap_storage::segment::GroupSelector::select_rows)
//! already says which rows survive, and the encoded columns can feed the
//! aggregates directly.
//!
//! The walk. Its morsels are the pipelines' ([`Source`]): the segments'
//! `(segment, row group, rows)` pieces, then the delta's batches, and a
//! morsel's selection is the unit of work. The selected rows, in scan
//! order, are folded in **stripes** of [`STRIPE_ROWS`], each into a store
//! of its own ([`RunningGroups`], where the accumulators are described),
//! and the stripes are merged in stripe order. Who does the work is the
//! pipelines' claim loop's decision:
//!
//! * **One pass** — the statement's thread alone: it selects each morsel
//!   and folds it at once, cutting stripes as they fill — so a column that
//!   is filtered *and* aggregated is faulted once. Paged segments always
//!   take this pass.
//! * **Fanned out** — held segments, with helpers from the database's
//!   pool: the statement's thread and the helpers claim morsels and select
//!   them, then claim stripes and fold them; the statement's thread merges
//!   the stripes in order. A helper claims nothing while its
//!   [`Helpers::gate`](crate::Helpers::gate) is shut — the database shuts
//!   it while another session is open: transactions keep their core.
//!
//! The same walk is a fanned-out pipeline's aggregate sink: there a
//! morsel's unit is its stage output, parked under its index, and the
//! stripes are cut over those rows.
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
//! probability, whichever thread claims which morsel or stripe, at any
//! worker count — and equal to the pipelines' sink over the same rows.
//! (Per-row-group partials merged in group order — the obvious alternative
//! — would define a *different* float sum for a paged table than for the
//! same rows resident in one group: row-group boundaries are positions,
//! which is why a stripe counts selected rows instead.) The only other
//! regrouping is where it is exact: the row count of a block whose selected
//! rows land in one group is a popcount, and integer, count and min / max
//! accumulators do not depend on order at all.

use crate::aggregate::AggregatorCore;
use crate::groups::{AccState, Keys, RunningGroups, Stripes, STRIPE_ROWS, UNRESOLVED};
use crate::pipeline::{caught, fan_out, Crew, Job, ParallelContext, Reader, Source, StageSpec};
use crate::resources::ExecResources;
use oltap_common::cancel::CancellationToken;
use oltap_common::fault::{points, FaultInjector};
use oltap_common::{Batch, BitSet, DbError, Result, Value};
use oltap_sched::WorkerPool;
use oltap_storage::encoding::{BitPacked, IntEncoding, StrEncoding};
use oltap_storage::segment::{ColumnRef, EncodedColumn, PassChunks, Segment};
use std::borrow::Cow;
use std::cmp::{max_by, min_by};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock, Weak};

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

/// Aggregates the visible rows of `source`'s segments, then its tail (the
/// delta's rows), into the groups of `core` — whose slots [are bare
/// columns](crate::AggregatorCore::reads_bare_columns) — without
/// materializing batches, in stripes (see the module docs). The source's
/// projection maps scan-output ordinals (the store's slots) to table
/// ordinals; its tail is in scan-output order already.
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
    source: Source,
    ctx: &ParallelContext,
) -> Result<Option<Fused>> {
    let mut first = RunningGroups::new(core, &ctx.mem);
    first.presize_slots(&source.segments, &source.projection);
    walk(source, Vec::new(), true, first, ctx)
}

/// The walk over `source`, its segment morsels folded from the encoded
/// chunks when `fused`, else gathered through `stages` like its tail:
/// fanned out when the context has helpers for it, else in one pass. A
/// refusal that ends a fan-out is a fused walk's `None`; a pipeline's
/// folds in one pass instead.
pub(crate) fn walk(
    source: Source,
    stages: Vec<StageSpec>,
    fused: bool,
    first: RunningGroups,
    ctx: &ParallelContext,
) -> Result<Option<Fused>> {
    let crew = ctx.crew(&source);
    let walk = Walk::new(source, stages, fused, first.empty_like(), ctx);
    let Some((pool, helpers)) = crew else {
        return caught(|| one_pass(&walk, first));
    };
    let walk = Arc::new(walk);
    match walk.fan_out(pool, helpers)? {
        None if !fused => caught(|| one_pass(&walk, first)),
        folded => Ok(folded),
    }
}

/// One thread's means to select and fold: its [`Reader`] of the source and
/// its dictionary slot table.
struct Folder<'w> {
    reader: Reader<'w>,
    slots: SlotTable,
    dense: usize,
    scalar: usize,
}

impl<'w> Folder<'w> {
    fn new(reader: Reader<'w>) -> Self {
        Folder {
            reader,
            slots: SlotTable::default(),
            dense: 0,
            scalar: 0,
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
        let (src, faults, cancel) = (self.reader.src, self.reader.faults, self.reader.cancel);
        let projection = &src.projection;
        let (_, pass) = self.reader.pass(s)?.expect("a selected morsel's segment has a pass");
        let chunks = run.chunks(pass, g, projection)?;
        let piece = Piece { sel, first, bits };
        let fused = run.group_cols.len() <= 1 && !faults.should_fire(points::EXEC_KERNEL_FALLBACK);
        if fused && dense_piece(run, &mut self.slots, &chunks, &piece, cancel)? {
            self.dense += 1;
            return Ok(());
        }
        for (n, i) in piece.ones().enumerate() {
            if n % 4096 == 0 {
                cancel.check()?;
            }
            let row = first + i;
            run.update_row(|c| chunks[c].as_ref().map_or(Value::Null, |chunk| chunk.value_at(row)))?;
        }
        self.scalar += 1;
        Ok(())
    }
}

/// `walk` on the statement's thread alone, from `first`: each morsel
/// selected and at once folded into the open stripe (a fused walk's
/// segment morsels), or its stage output consumed, a stripe cut wherever
/// one fills.
fn one_pass(walk: &Walk, first: RunningGroups) -> Result<Option<Fused>> {
    let source = &walk.source;
    let mut folder = Folder::new(Reader::new(source, &walk.stages, &walk.cancel, &walk.faults));
    let mut stripes = Stripes::new(first);
    let mut sel = BitSet::new();
    let folded_morsels = if walk.fused { source.morsels.len() } else { 0 };
    for (m, morsel) in source.morsels[..folded_morsels].iter().enumerate() {
        let folded = folder.reader.select(m, &mut sel).and_then(|any| {
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
    for m in folded_morsels..source.len() {
        if let Some(batch) = folder.reader.output(m, source.tail(m).map(Cow::Borrowed))? {
            stripes.consume(&batch)?;
        }
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

/// What a claimed morsel leaves for the stripes.
enum Unit {
    /// A segment morsel's selection, folded from the encoded chunks.
    Sel(BitSet),
    /// Stage output, parked: the batch itself is in the crew's hands until
    /// the walk closes, its bytes reserved from the budget till then.
    Rows(Weak<Batch>),
    /// The source's tail batch at this index, untouched.
    Tail,
}

/// What a walk's threads hand in: each stripe's store, by stripe index,
/// and the parked stage output, which the walk frees as it closes.
type Folded = (Vec<Option<RunningGroups>>, Vec<Arc<Batch>>);

/// An aggregation fanned out over the statement's thread and helpers:
/// morsels claimed and turned into [`Unit`]s, the stripes cut over the
/// units' rows once every morsel is in, then claimed and folded, each into
/// a store of its own, which the threads hand in by stripe index.
struct Walk {
    crew: Arc<Crew<Folded>>,
    source: Source,
    stages: Vec<StageSpec>,
    /// Segment morsels are folded from their encoded chunks (a fused
    /// aggregation), not gathered through `stages`.
    fused: bool,
    cancel: CancellationToken,
    faults: Arc<FaultInjector>,
    mem: ExecResources,
    /// An empty store with the statement's key slots: each stripe's is one
    /// like it.
    first: RunningGroups,
    next_morsel: AtomicUsize,
    /// Each morsel's unit, once claimed (`None`: nothing left of it).
    units: Vec<OnceLock<Option<Unit>>>,
    /// Morsels in so far.
    claimed: AtomicUsize,
    /// Where each stripe starts, `(unit, position)`, a position a bit of a
    /// selection or a row of a batch. Cut once every morsel is in.
    stripes: OnceLock<Vec<(usize, usize)>>,
    next_stripe: AtomicUsize,
    /// Bytes of parked stage output reserved from the statement's budget.
    parked: AtomicU64,
    /// The governor refused a group while segments were folded, or a
    /// unit's parking: the statement starts over in one pass.
    refused: AtomicBool,
    dense: AtomicUsize,
    scalar: AtomicUsize,
}

impl Walk {
    fn new(
        source: Source,
        stages: Vec<StageSpec>,
        fused: bool,
        first: RunningGroups,
        ctx: &ParallelContext,
    ) -> Walk {
        Walk {
            crew: Crew::new(&ctx.helpers),
            units: (0..source.len()).map(|_| OnceLock::new()).collect(),
            source,
            stages,
            fused,
            cancel: ctx.cancel.clone(),
            faults: Arc::clone(&ctx.faults),
            mem: ctx.mem.clone(),
            first,
            next_morsel: AtomicUsize::new(0),
            claimed: AtomicUsize::new(0),
            stripes: OnceLock::new(),
            next_stripe: AtomicUsize::new(0),
            parked: AtomicU64::new(0),
            refused: AtomicBool::new(false),
            dense: AtomicUsize::new(0),
            scalar: AtomicUsize::new(0),
        }
    }

    /// The walk on the statement's thread and `helpers` workers of `pool`:
    /// every stripe merged in order, or `None` if the budget refused. The
    /// parked output is freed as the walk closes, and only then are its
    /// bytes handed back.
    fn fan_out(self: &Arc<Self>, pool: &WorkerPool, helpers: usize) -> Result<Option<Fused>> {
        let folded = fan_out(pool, helpers, self).map(|(stripes, _parked)| stripes);
        self.mem.budget.release(self.parked.swap(0, Ordering::Relaxed));
        let folded = match folded {
            Err(_) if self.refused.load(Ordering::Relaxed) => return Ok(None),
            folded => folded?,
        };
        let mut stripes = folded.into_iter().flatten();
        let mut groups = stripes.next().unwrap_or_else(|| self.first.empty_like());
        for stripe in stripes {
            groups.merge(stripe)?;
        }
        groups.seal()?;
        Ok(Some(Fused {
            groups,
            dense: self.dense.load(Ordering::Relaxed),
            scalar: self.scalar.load(Ordering::Relaxed),
            helped: self.crew.helped.load(Ordering::Relaxed),
        }))
    }

    /// Morsel `m`'s unit: a segment morsel's selection for a fused walk,
    /// else its stage output — parked, unless it is a tail batch no stage
    /// changed.
    fn unit(&self, folder: &mut Folder<'_>, m: usize) -> Result<Option<Unit>> {
        let tail = self.source.tail(m);
        if self.fused && tail.is_none() {
            let mut sel = BitSet::new();
            return Ok(folder.reader.select(m, &mut sel)?.then_some(Unit::Sel(sel)));
        }
        Ok(match folder.reader.output(m, tail.map(Cow::Borrowed))? {
            None => None,
            Some(Cow::Borrowed(_)) => Some(Unit::Tail),
            Some(Cow::Owned(batch)) => {
                let bytes = batch.columns().iter().map(|c| c.approx_size() as u64).sum();
                if let Err(e) = self.mem.budget.try_reserve(bytes) {
                    self.refused.store(true, Ordering::Relaxed);
                    return Err(e);
                }
                self.parked.fetch_add(bytes, Ordering::Relaxed);
                let batch = Arc::new(batch);
                let unit = Unit::Rows(Arc::downgrade(&batch));
                self.crew.hand_in(|(_, parked)| parked.push(batch));
                Some(unit)
            }
        })
    }

    /// Unit `u`, and how many rows it leaves for the stripes.
    fn rows(&self, u: usize) -> (Option<&Unit>, usize) {
        let unit = self.units[u].get().and_then(Option::as_ref);
        let rows = match unit {
            None => 0,
            Some(Unit::Sel(sel)) => sel.count_ones(),
            Some(Unit::Rows(batch)) => batch.upgrade().expect("parked till the walk closes").len(),
            Some(Unit::Tail) => self.source.tail(u).map_or(0, Batch::len),
        };
        (unit, rows)
    }

    /// Where each stripe starts (see [`Walk::stripes`]), published to
    /// whoever waits for it.
    fn cut_stripes(&self) {
        let mut starts = Vec::new();
        let mut seen = 0;
        for u in 0..self.units.len() {
            let (unit, rows) = self.rows(u);
            while starts.len() * STRIPE_ROWS < seen + rows {
                let nth = starts.len() * STRIPE_ROWS - seen;
                let at = match unit {
                    Some(Unit::Sel(sel)) => after_ones(sel, 0, nth + 1).0 - 1,
                    _ => nth,
                };
                starts.push((u, at));
            }
            seen += rows;
        }
        self.crew.hand_in(|(folded, _)| {
            *folded = starts.iter().map(|_| None).collect();
            self.stripes.set(starts).expect("the stripes are cut once");
        });
    }

    /// Folds the stripe starting at `(unit, at)`: [`STRIPE_ROWS`] rows, or
    /// the rest, into a store of its own.
    fn fold_stripe(&self, folder: &mut Folder<'_>, (mut u, mut at): (usize, usize)) -> Result<RunningGroups> {
        let mut run = self.first.empty_like();
        let mut left = STRIPE_ROWS;
        while left > 0 && u < self.units.len() {
            match self.units[u].get().and_then(Option::as_ref) {
                Some(Unit::Sel(sel)) => {
                    let (end, taken) = after_ones(sel, at, left);
                    if taken > 0 {
                        let (s, g, rows) = &self.source.morsels[u];
                        folder.fold(&mut run, (*s, *g, rows.start), sel, at..end).inspect_err(|e| {
                            if matches!(e, DbError::ResourceExhausted { .. }) && run.refused() {
                                self.refused.store(true, Ordering::Relaxed);
                            }
                        })?;
                        left -= taken;
                    }
                }
                Some(unit) => {
                    let parked = match unit {
                        Unit::Rows(batch) => batch.upgrade(),
                        _ => None,
                    };
                    let batch = parked.as_deref().or(self.source.tail(u)).expect("a parked or tail unit");
                    let take = left.min(batch.len() - at);
                    run.consume_range(batch, at..at + take)?;
                    left -= take;
                }
                None => {}
            }
            (u, at) = (u + 1, 0);
        }
        run.hand_back_credit();
        Ok(run)
    }
}

impl Job for Walk {
    type Shared = Folded;

    fn crew(&self) -> &Arc<Crew<Self::Shared>> {
        &self.crew
    }

    /// Morsels, then stripes, while this thread may claim them; the
    /// statement's thread then waits until the helpers have folded theirs.
    fn share(&self, helper: bool) -> Result<()> {
        let crew = &self.crew;
        let reader = Reader::new(&self.source, &self.stages, &self.cancel, &self.faults);
        let mut folder = Folder::new(reader);
        let done = (|| {
            while let Some(m) = crew.claim(&self.next_morsel, self.units.len(), helper) {
                let unit = self.unit(&mut folder, m)?;
                assert!(self.units[m].set(unit).is_ok(), "a morsel is claimed once");
                if self.claimed.fetch_add(1, Ordering::AcqRel) + 1 == self.units.len() {
                    self.cut_stripes();
                }
            }
            if !crew.wait(|_| self.stripes.get().is_some()) {
                return Ok(());
            }
            let starts = self.stripes.get().expect("cut");
            while let Some(k) = crew.claim(&self.next_stripe, starts.len(), helper) {
                let stripe = self.fold_stripe(&mut folder, starts[k])?;
                crew.hand_in(|(folded, _)| folded[k] = Some(stripe));
            }
            if !helper {
                crew.wait(|(folded, _)| folded.iter().all(Option::is_some));
            }
            Ok(())
        })();
        self.dense.fetch_add(folder.dense, Ordering::Relaxed);
        self.scalar.fetch_add(folder.scalar, Ordering::Relaxed);
        done
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
                Dict::Strs(dict) => run.group_of(vec![Value::Str(dict[code].clone())])?,
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
                *gi = Some(run.group_of(Vec::new())?);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::{AggExpr, AggFunc};
    use crate::expr::{BinOp, Expr};
    use crate::pipeline::tests::ctx_with;
    use oltap_common::mem::{MemoryGovernor, WorkloadClass};
    use oltap_common::{row, DataType, Field, Row, Schema};

    /// Forty 100-row batches of `(g, v)`, a stage keying them by an
    /// expression (so the walk parks its output) and `SUM(v)` by that key.
    fn grouped_input() -> (Vec<Batch>, StageSpec, Arc<AggregatorCore>) {
        let schema = Arc::new(Schema::new(vec![Field::new("g", DataType::Int64), Field::new("v", DataType::Int64)]));
        let rows: Vec<Row> = (0..4000i64).map(|i| row![i % 7, i]).collect();
        let batches: Vec<Batch> = rows.chunks(100).map(|c| Batch::from_rows(&schema, c).unwrap()).collect();
        let key = (Expr::binary(BinOp::Add, Expr::col(0), Expr::lit(0i64)), "k".to_string());
        let (stage, out) = StageSpec::project(&[key, (Expr::col(1), "v".into())], &schema).unwrap();
        let aggs = vec![AggExpr::new(AggFunc::Sum, Expr::col(1), "s")];
        let core = Arc::new(AggregatorCore::new(&out, vec![(Expr::col(0), "k".into())], aggs).unwrap());
        (batches, stage, core)
    }

    /// A fanned-out pipeline aggregate's parked stage output is freed as
    /// the walk closes — the budget granting every morsel or refusing one —
    /// and its bytes are back in the budget by then: the one-pass retry
    /// after a refusal runs with nothing parked.
    #[test]
    fn parked_output_is_freed_as_the_walk_closes() {
        let (batches, stage, core) = grouped_input();
        for (limit, granted) in [(u64::MAX, true), (8 << 10, false)] {
            let budget = MemoryGovernor::new(u64::MAX, u64::MAX, u64::MAX).budget(WorkloadClass::Olap, limit);
            let ctx = ctx_with(4, ExecResources::new(budget.clone(), None));
            let source = Source::from(batches.clone());
            let (pool, helpers) = ctx.crew(&source).expect("forty morsels fan out");
            let first = RunningGroups::new(&core, &ctx.mem);
            let walk = Arc::new(Walk::new(source, vec![stage.clone()], false, first, &ctx));
            let folded = walk.fan_out(pool, helpers).unwrap();
            assert_eq!(folded.is_some(), granted, "limit {limit}");
            let parked: Vec<&Weak<Batch>> = walk
                .units
                .iter()
                .filter_map(|u| match u.get() {
                    Some(Some(Unit::Rows(batch))) => Some(batch),
                    _ => None,
                })
                .collect();
            assert!(!parked.is_empty(), "limit {limit}: some output was parked");
            assert!(parked.iter().all(|b| b.upgrade().is_none()), "limit {limit}: parked output freed");
            assert_eq!(walk.parked.load(Ordering::Relaxed), 0, "limit {limit}");
        }
    }

    /// A fanned-out walk keeps every stripe's store until the last stripe
    /// is folded, so it needs the budget to hold every stripe's groups at
    /// once. A store reserves its groups' bytes a chunk at a time, but hands
    /// back what its groups did not take as soon as its stripe is folded:
    /// at a budget of exactly those groups the walk still fuses, and one
    /// byte less refuses it. (The statement's thread folds the stripes one
    /// after another here: its helpers' gate shuts after the look that fans
    /// the walk out.)
    #[test]
    fn a_walk_of_several_stripes_fuses_at_a_budget_of_its_groups() {
        use oltap_common::ids::{SegmentId, TxnId};
        use oltap_storage::ScanPredicate;
        const STRIPES: u64 = 6;
        const KEYS: i64 = 16;
        let schema = Arc::new(Schema::new(vec![Field::new("k", DataType::Int64), Field::new("v", DataType::Int64)]));
        let rows: Vec<Row> = (0..STRIPES as i64 * STRIPE_ROWS as i64).map(|i| row![i % KEYS, i]).collect();
        let seg = Arc::new(Segment::from_rows(SegmentId(1), Arc::clone(&schema), &rows, 0, None).unwrap());
        let aggs = vec![AggExpr::new(AggFunc::Sum, Expr::col(1), "s")];
        let core = Arc::new(AggregatorCore::new(&schema, vec![(Expr::col(0), "k".into())], aggs).unwrap());
        // An integer key's group: the store's price of a group, and its key.
        let group = RunningGroups::new(&core, &ExecResources::unlimited()).group_bytes
            + (std::mem::size_of::<Row>() + std::mem::size_of::<Value>()) as u64;
        let need = STRIPES * KEYS as u64 * group;
        for (limit, fuses) in [(need, true), (need - 1, false)] {
            let budget = MemoryGovernor::new(u64::MAX, u64::MAX, u64::MAX).budget(WorkloadClass::Olap, limit);
            let mut ctx = ctx_with(2, ExecResources::new(budget.clone(), None));
            let looks = AtomicUsize::new(0);
            ctx.helpers.gate = Some(Arc::new(move || looks.fetch_add(1, Ordering::Relaxed) == 0));
            let source = Source::scan(vec![Arc::clone(&seg)], Vec::new(), &ScanPredicate::all(), &[0, 1], (1, TxnId(7)));
            let fused = fused_aggregate(&core, source, &ctx).unwrap();
            assert_eq!(fused.is_some(), fuses, "limit {limit} of {need}");
            if let Some(fused) = fused {
                assert_eq!(fused.helped, 0, "the statement's thread folded every stripe");
                assert_eq!(fused.groups.rows, vec![STRIPES as i64 * STRIPE_ROWS as i64 / KEYS; KEYS as usize]);
            }
            assert_eq!(budget.used(), 0, "limit {limit}: everything handed back");
        }
    }

    /// A helper still queued when its statement answers holds the walk's
    /// crew, not the walk: the statement's hold is the walk's last, so the
    /// walk — and its share of the statement's budget — is gone when the
    /// statement lets go of it, whenever the helper starts.
    #[test]
    fn a_queued_helper_does_not_keep_the_walk() {
        let (batches, stage, core) = grouped_input();
        let ctx = ctx_with(2, ExecResources::unlimited());
        let source = Source::from(batches);
        let (pool, helpers) = ctx.crew(&source).expect("forty morsels fan out");
        // Every worker waits until `release` drops, so the helpers queue.
        let (release, blocked) = std::sync::mpsc::channel::<()>();
        let blocked = Arc::new(parking_lot::Mutex::new(blocked));
        for _ in 0..pool.worker_count() {
            let blocked = Arc::clone(&blocked);
            pool.submit(move || {
                let _ = blocked.lock().recv();
            });
        }
        let first = RunningGroups::new(&core, &ctx.mem);
        let walk = Arc::new(Walk::new(source, vec![stage], false, first, &ctx));
        assert!(walk.fan_out(pool, helpers).unwrap().is_some());
        assert_eq!(walk.crew.helped.load(Ordering::Relaxed), 0, "the statement's thread claimed all");
        let gone = Arc::downgrade(&walk);
        drop(walk);
        assert!(gone.upgrade().is_none(), "a queued helper keeps the walk");
        assert!(!pool.is_idle(), "the helpers are still queued");
        drop(release);
    }
}
