//! Fused filter + aggregate over compressed segments
//! (operate-on-compressed, paper §3).
//!
//! The classic pipeline for `SELECT k, SUM(v) … GROUP BY k` decompresses
//! every surviving row into a [`Batch`](oltap_common::Batch), re-evaluates
//! the group key expression per batch, and probes a hash map per row. When
//! the plan is `Aggregate(Scan)` with plain column references, none of that
//! materialization is necessary: a row group's selection bitmap from
//! [`GroupSelector::select_group`](oltap_storage::segment::GroupSelector::select_group)
//! already says which rows survive, and the encoded columns can feed the
//! aggregates directly — one row group at a time, selected and consumed
//! before the next is touched, so a column that is filtered *and*
//! aggregated is faulted once.
//!
//! The statement's group states live in one indexed store for the whole
//! call ([`Running`]: key → group index, states addressed by index). Each
//! row group is then visited one of two ways:
//!
//! * **Dense** — at most one group column, integer or dictionary-coded.
//!   The key resolves to a group index once per *distinct code per row
//!   group*, not per row: dictionary codes and narrow frame-of-reference
//!   codes index a slot table, run-length keys resolve once per run, any
//!   other integer encoding goes through an `i64 → index` map behind a
//!   last-key memo. Inputs are read 64 rows at a time under the selection
//!   word — integers block-decoded, floats in place — and each selected
//!   row updates the *running* state its slot points at.
//! * **Scalar** — everything else (several group columns, float / bool /
//!   undictionaried string keys, `MIN`/`MAX` of strings): decode each
//!   selected row to [`Value`]s and update the same running states. The
//!   [`points::EXEC_KERNEL_FALLBACK`] fault point forces this path at
//!   row-group granularity; it is the reference the property and chaos
//!   suites hold the dense path to, bit for bit.
//!
//! Identity argument. Both paths visit segments, row groups and rows in
//! the same order and update the same state objects, so every aggregate
//! state receives exactly the same updates in exactly the same order
//! whichever path a row group takes. No partial state is ever built and
//! merged, hence no `f64` addition is ever regrouped: float `SUM`/`AVG`
//! (and `AVG` of integers) are bit-identical on resident segments (one row
//! group), paged ones (many) and frozen ones, at any fallback probability.
//! (Per-row-group partials merged in group order — the obvious alternative
//! — would define a *different* float sum for a paged table than for the
//! same rows resident in one group.) The only regrouping left is where it
//! is exact: when every selected row of a 64-row block lands in one group,
//! wrapping integer `SUM`, integer `MIN`/`MAX` and the counts fold the
//! block first ([`IntFold`], popcount) and apply the fold once.

use crate::aggregate::{AggFunc, AggState, AggregatorCore, GroupMap};
use crate::expr::Expr;
use crate::kernels::{set_bits, IntFold};
use oltap_common::fault::{points, FaultInjector};
use oltap_common::hash::FxHashMap;
use oltap_common::ids::TxnId;
use oltap_common::{BitSet, DataType, DbError, Result, Row, Value};
use oltap_storage::encoding::{BitPacked, IntEncoding, StrEncoding};
use oltap_storage::segment::{ColumnRef, EncodedColumn, Segment};
use oltap_storage::ScanPredicate;
use oltap_txn::Ts;
use std::collections::hash_map::Entry;
use std::sync::Arc;

/// The column shape of a fusable aggregation: group keys and aggregate
/// inputs resolved to scan-output ordinals.
pub struct FusedShape {
    /// Group-by columns (scan-output ordinals).
    pub group_cols: Vec<usize>,
    /// Aggregate input columns (`None` for `COUNT(*)`).
    pub agg_cols: Vec<Option<usize>>,
}

/// Checks whether `core` is fusable: every group key and aggregate input
/// must be a plain column reference (anything else needs expression
/// evaluation, which the batch pipeline already does well).
pub fn fused_shape(core: &AggregatorCore) -> Option<FusedShape> {
    let mut group_cols = Vec::with_capacity(core.group_exprs().len());
    for e in core.group_exprs() {
        match e {
            Expr::Column(c) => group_cols.push(*c),
            _ => return None,
        }
    }
    let mut agg_cols = Vec::with_capacity(core.agg_exprs().len());
    for a in core.agg_exprs() {
        match &a.input {
            None => agg_cols.push(None),
            Some(Expr::Column(c)) => agg_cols.push(Some(*c)),
            Some(_) => return None,
        }
    }
    Some(FusedShape {
        group_cols,
        agg_cols,
    })
}

/// Snapshot-visibility inputs shared by every segment visit of one fused
/// aggregation.
pub struct FusedScanCtx<'a> {
    /// Pushed-down predicate (drives [`Segment::selector`]).
    pub pred: &'a ScanPredicate,
    /// Snapshot timestamp.
    pub read_ts: Ts,
    /// Transaction identity.
    pub me: TxnId,
    /// Fault injector probed at [`points::EXEC_KERNEL_FALLBACK`].
    pub faults: &'a FaultInjector,
}

/// Aggregates the visible rows of `segments` directly into `map`, in
/// segment order, without materializing batches. `projection` maps
/// scan-output ordinals (which the shape's columns are expressed in) to
/// table ordinals. The caller feeds delta-store batches through
/// [`AggregatorCore::consume`] afterwards, preserving the unfused scan's
/// segments-then-delta row order.
///
/// Returns how many row groups took the dense and the scalar path,
/// `(dense, scalar)`. On an error `map` is left without the groups it came
/// in with; the statement has failed and the map with it.
pub fn fused_aggregate_segments(
    core: &AggregatorCore,
    map: &mut GroupMap,
    segments: &[Arc<Segment>],
    shape: &FusedShape,
    projection: &[usize],
    ctx: &FusedScanCtx<'_>,
) -> Result<(usize, usize)> {
    let FusedScanCtx {
        pred,
        read_ts,
        me,
        faults,
    } = *ctx;
    let group_tab: Vec<usize> = shape.group_cols.iter().map(|&c| projection[c]).collect();
    let agg_tab: Vec<Option<usize>> = shape.agg_cols.iter().map(|c| c.map(|c| projection[c])).collect();
    let mut run = Running::adopt(core, map);
    let mut slots = SlotTable::default();
    let (mut dense, mut scalar) = (0, 0);
    for seg in segments {
        let Some(mut selector) = seg.selector(pred, read_ts, me)? else {
            continue;
        };
        // One visit per row group: select it, aggregate it, move on — the
        // pages the filter pinned are still in the pool for the aggregates.
        for g in 0..seg.group_count() {
            let Some(local) = selector.select_group(g)? else {
                continue;
            };
            // The fault point forces the scalar decode-then-evaluate path
            // at row-group boundaries; results must not change.
            let fused =
                group_tab.len() <= 1 && !faults.should_fire(points::EXEC_KERNEL_FALLBACK);
            if fused && dense_group(core, &mut run, &mut slots, seg, g, &group_tab, &agg_tab, local)? {
                dense += 1;
            } else {
                scalar_group(core, &mut run, seg, g, &group_tab, &agg_tab, local)?;
                scalar += 1;
            }
        }
    }
    run.release(map);
    Ok((dense, scalar))
}

/// "No group resolved yet" in a slot table.
const UNRESOLVED: u32 = u32::MAX;

/// The statement's running group states, addressed by index. Group `gi`'s
/// states are `states[gi * naggs..][..naggs]`; a group exists from the
/// first selected row that carries its key, as in a hash aggregation.
struct Running<'c> {
    core: &'c AggregatorCore,
    naggs: usize,
    by_key: FxHashMap<Row, u32>,
    /// Front of `by_key` for the keys of a single integer group column.
    by_int: FxHashMap<i64, u32>,
    /// Likewise for that column's NULL key.
    null_key: Option<u32>,
    states: Vec<AggState>,
}

impl<'c> Running<'c> {
    /// Takes over the groups `map` already holds, so they keep
    /// accumulating where they left off.
    fn adopt(core: &'c AggregatorCore, map: &mut GroupMap) -> Self {
        let mut run = Running {
            core,
            naggs: core.agg_exprs().len(),
            by_key: FxHashMap::default(),
            by_int: FxHashMap::default(),
            null_key: None,
            states: Vec::new(),
        };
        for (key, states) in map.0.drain() {
            run.by_key.insert(key, run.by_key.len() as u32);
            run.states.extend(states);
        }
        run
    }

    /// Hands every group back to `map`.
    fn release(self, map: &mut GroupMap) {
        let mut keys: Vec<Option<Row>> = vec![None; self.by_key.len()];
        for (key, gi) in self.by_key {
            keys[gi as usize] = Some(key);
        }
        let mut states = self.states.into_iter();
        for key in keys.into_iter().flatten() {
            map.0.insert(key, states.by_ref().take(self.naggs).collect());
        }
    }

    fn group_of(&mut self, key: Row) -> Result<u32> {
        let next = self.by_key.len();
        match self.by_key.entry(key) {
            Entry::Occupied(e) => Ok(*e.get()),
            Entry::Vacant(e) => {
                let gi = u32::try_from(next)
                    .ok()
                    .filter(|&gi| gi != UNRESOLVED)
                    .ok_or_else(|| DbError::Execution("more than 2^32 groups".into()))?;
                e.insert(gi);
                self.states.extend(self.core.make_states());
                Ok(gi)
            }
        }
    }

    fn group_of_int(&mut self, v: i64) -> Result<u32> {
        if let Some(&gi) = self.by_int.get(&v) {
            return Ok(gi);
        }
        let gi = self.group_of(Row::new(vec![Value::Int(v)]))?;
        self.by_int.insert(v, gi);
        Ok(gi)
    }

    fn group_of_null(&mut self) -> Result<u32> {
        if let Some(gi) = self.null_key {
            return Ok(gi);
        }
        let gi = self.group_of(Row::new(vec![Value::Null]))?;
        self.null_key = Some(gi);
        Ok(gi)
    }

    #[inline]
    fn state(&mut self, gi: u32, k: usize) -> &mut AggState {
        &mut self.states[gi as usize * self.naggs + k]
    }

    fn states_of(&mut self, gi: u32) -> &mut [AggState] {
        &mut self.states[gi as usize * self.naggs..][..self.naggs]
    }
}

/// A row group's code → group index table, kept for the statement and
/// returned to all-[`UNRESOLVED`] after each row group by undoing only the
/// entries that group resolved.
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

    #[inline]
    fn group_of(&mut self, code: usize, domain: &CodeDomain<'_>, run: &mut Running<'_>) -> Result<u32> {
        match self.slots[code] {
            UNRESOLVED => self.resolve(code, domain, run),
            gi => Ok(gi),
        }
    }

    /// First sight of `code` in this row group: its key, its group.
    #[cold]
    fn resolve(&mut self, code: usize, domain: &CodeDomain<'_>, run: &mut Running<'_>) -> Result<u32> {
        let gi = match domain {
            CodeDomain::For(base) => run.group_of_int(base.wrapping_add(code as i64))?,
            CodeDomain::IntDict(dict) => run.group_of_int(dict[code])?,
            CodeDomain::StrDict(dict) => {
                run.group_of(Row::new(vec![Value::Str(dict[code].clone())]))?
            }
        };
        self.slots[code] = gi;
        self.resolved.push(code as u32);
        Ok(gi)
    }
}

/// Where a dense row group's group indexes come from.
enum KeySource<'a> {
    /// No GROUP BY: every row belongs to the one empty key, resolved at
    /// the first selected row.
    Global(Option<u32>),
    /// Bit-packed codes that index a [`SlotTable`].
    Codes(&'a BitPacked, CodeDomain<'a>),
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

/// What a packed key code stands for.
enum CodeDomain<'a> {
    /// Frame of reference: `base + code`.
    For(i64),
    IntDict(&'a [i64]),
    StrDict(&'a [String]),
}

/// Frame-of-reference codes index a slot table up to this width (64 Ki
/// slots); wider frames go through the value map.
const MAX_SLOT_CODE_BITS: u8 = 16;

impl<'a> KeySource<'a> {
    /// The key source of `chunk` with the number of slots it needs, or
    /// `None` for a chunk only the scalar path can key on.
    fn of(chunk: Option<&'a EncodedColumn>) -> Option<(Self, usize)> {
        Some(match chunk {
            None => (KeySource::Global(None), 0),
            Some(col @ EncodedColumn::Int { enc, .. }) => match enc {
                IntEncoding::Dict(d) => (
                    KeySource::Codes(d.codes(), CodeDomain::IntDict(d.dict())),
                    d.cardinality(),
                ),
                IntEncoding::For(f) if f.width() <= MAX_SLOT_CODE_BITS => (
                    KeySource::Codes(f.packed(), CodeDomain::For(f.base())),
                    1usize << f.width(),
                ),
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
                KeySource::Codes(d.codes(), CodeDomain::StrDict(d.dict())),
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
        run: &mut Running<'_>,
        slots: &mut SlotTable,
        gidx: &mut [u32; 64],
    ) -> Result<Option<u32>> {
        match self {
            KeySource::Global(Some(gi)) => return Ok(Some(*gi)),
            KeySource::Global(gi) => {
                *gi = Some(run.group_of(Row::new(Vec::new()))?);
                return Ok(*gi);
            }
            KeySource::Codes(codes, domain) => {
                // Zero bits a code: the chunk holds one value (a clustered
                // key in a small row group usually does).
                if codes.width() == 0 {
                    return slots.group_of(0, domain, run).map(Some);
                }
                let mut buf = [0u64; 64];
                codes.unpack_block(base, &mut buf[..take]);
                for o in set_bits(keyed) {
                    gidx[o] = slots.group_of(buf[o] as usize, domain, run)?;
                }
            }
            KeySource::Runs { runs, next, start } => {
                while *start + runs[*next].1 as usize <= base {
                    *start += runs[*next].1 as usize;
                    *next += 1;
                }
                let end = base + take;
                if *start + runs[*next].1 as usize >= end {
                    return run.group_of_int(runs[*next].0).map(Some);
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
                        let gi = run.group_of_int(v)?;
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
                            let gi = run.group_of_int(buf[o])?;
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

/// What a dense row group feeds one aggregate.
enum AggInput<'a> {
    /// `COUNT(*)` / `COUNT(col)`: only which rows count.
    Rows,
    /// An integer column, block-decoded; `foldable` when the function's
    /// state takes a whole [`IntFold`] exactly (wrapping `SUM`, `MIN`,
    /// `MAX` — not `AVG`, whose float sum is order-sensitive).
    Ints(&'a EncodedColumn, bool),
    /// A float column, read in place.
    Floats(&'a [f64]),
}

impl<'a> AggInput<'a> {
    /// The input of `func` over `chunk` with the chunk's validity, or
    /// `None` for a combination only the scalar path evaluates.
    fn of(
        func: AggFunc,
        input_type: DataType,
        chunk: Option<&'a EncodedColumn>,
    ) -> Option<(Self, Option<&'a BitSet>)> {
        let validity = chunk.and_then(|c| c.validity());
        Some(match (func, chunk) {
            (AggFunc::CountStar, _) => (AggInput::Rows, None),
            (AggFunc::Count, Some(_)) => (AggInput::Rows, validity),
            (_, Some(col @ EncodedColumn::Int { .. }))
                if matches!(input_type, DataType::Int64 | DataType::Timestamp) =>
            {
                (AggInput::Ints(col, func != AggFunc::Avg), validity)
            }
            (_, Some(EncodedColumn::Float { values, .. })) if input_type == DataType::Float64 => {
                (AggInput::Floats(values), validity)
            }
            _ => return None,
        })
    }
}

/// Applies a block's integer fold to a running state that takes it exactly.
fn apply_fold(state: &mut AggState, fold: &IntFold) -> Result<()> {
    match state {
        AggState::SumI { sum, seen } => {
            *sum = sum.wrapping_add(fold.sum);
            *seen = true;
            Ok(())
        }
        AggState::Min(_) => state.update(&Value::Int(fold.min)),
        AggState::Max(_) => state.update(&Value::Int(fold.max)),
        _ => Err(DbError::Execution(
            "integer block fold into an order-sensitive aggregate".into(),
        )),
    }
}

/// The word of `bits` covering block `wb` (`None` = every row set).
fn word_of(bits: Option<&BitSet>, wb: usize) -> u64 {
    bits.map_or(u64::MAX, |b| b.words().get(wb).copied().unwrap_or(0))
}

/// Attempts the dense path for one row group. Returns `false` (touching
/// nothing) when the group column's chunk or an aggregate's input is one
/// only the scalar path handles, in which case the caller runs that.
#[allow(clippy::too_many_arguments)]
fn dense_group(
    core: &AggregatorCore,
    run: &mut Running<'_>,
    slots: &mut SlotTable,
    seg: &Segment,
    g: usize,
    group_tab: &[usize],
    agg_tab: &[Option<usize>],
    local: &BitSet,
) -> Result<bool> {
    let key_chunk: Option<ColumnRef<'_>> = match group_tab.first() {
        Some(&c) => Some(seg.column_chunk(g, c)?),
        None => None,
    };
    let Some((mut keys, codes)) = KeySource::of(key_chunk.as_deref()) else {
        return Ok(false);
    };
    let key_validity = key_chunk.as_deref().and_then(|c| c.validity());
    let agg_chunks: Vec<Option<ColumnRef<'_>>> = agg_tab
        .iter()
        .map(|c| c.map(|c| seg.column_chunk(g, c)).transpose())
        .collect::<Result<_>>()?;
    let mut inputs = Vec::with_capacity(agg_chunks.len());
    for ((a, t), chunk) in core
        .agg_exprs()
        .iter()
        .zip(core.agg_input_types())
        .zip(&agg_chunks)
    {
        match AggInput::of(a.func, *t, chunk.as_deref()) {
            Some(input) => inputs.push(input),
            None => return Ok(false),
        }
    }

    slots.fit(codes);
    let rows = local.len();
    let mut gidx = [0u32; 64];
    let mut vals = [0i64; 64];
    for (wb, &selword) in local.words().iter().enumerate() {
        if selword == 0 {
            continue;
        }
        let base = wb * 64;
        let take = (rows - base).min(64);
        // Group of every selected row: one for the whole block, or one per
        // row in `gidx`. NULL keys are a group of their own.
        let keyed = selword & word_of(key_validity, wb);
        let mut uniform = match keyed {
            0 => None,
            _ => keys.resolve_block((base, take), keyed, run, slots, &mut gidx)?,
        };
        if keyed != selword {
            let null_group = run.group_of_null()?;
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
        // Which aggregate's column `vals` holds decoded: consecutive
        // aggregates of one column (`SUM(v), MIN(v), MAX(v)`) decode it once.
        let mut decoded = None;
        for (k, (input, validity)) in inputs.iter().enumerate() {
            let mask = selword & word_of(*validity, wb);
            if mask == 0 {
                continue;
            }
            match (input, uniform) {
                (AggInput::Rows, Some(gi)) => {
                    run.state(gi, k).count_rows(i64::from(mask.count_ones()))
                }
                (AggInput::Rows, None) => {
                    for o in set_bits(mask) {
                        run.state(gidx[o], k).count_row();
                    }
                }
                (AggInput::Ints(col, foldable), _) => {
                    if decoded != Some(agg_tab[k]) {
                        col.decode_int_block(base, &mut vals[..take]);
                        decoded = Some(agg_tab[k]);
                    }
                    match uniform {
                        Some(gi) if *foldable => {
                            let mut fold = IntFold::default();
                            fold.update_block(&vals[..take], mask);
                            apply_fold(run.state(gi, k), &fold)?;
                        }
                        Some(gi) => {
                            let state = run.state(gi, k);
                            for o in set_bits(mask) {
                                state.update_int(vals[o])?;
                            }
                        }
                        None => {
                            for o in set_bits(mask) {
                                run.state(gidx[o], k).update_int(vals[o])?;
                            }
                        }
                    }
                }
                (AggInput::Floats(values), Some(gi)) => {
                    run.state(gi, k)
                        .update_floats(&values[base..base + take], mask)?;
                }
                (AggInput::Floats(values), None) => {
                    let block = &values[base..base + take];
                    for o in set_bits(mask) {
                        run.state(gidx[o], k).update_float(block[o])?;
                    }
                }
            }
        }
    }
    slots.clear();
    Ok(true)
}

/// The scalar reference path: per-row decode and update, visiting rows in
/// selection order — exactly what the unfused operator pipeline does
/// after materializing batches, minus the materialization.
fn scalar_group(
    core: &AggregatorCore,
    run: &mut Running<'_>,
    seg: &Segment,
    g: usize,
    group_tab: &[usize],
    agg_tab: &[Option<usize>],
    local: &BitSet,
) -> Result<()> {
    let key_chunks: Vec<ColumnRef<'_>> = group_tab
        .iter()
        .map(|&c| seg.column_chunk(g, c))
        .collect::<Result<_>>()?;
    let agg_chunks: Vec<Option<ColumnRef<'_>>> = agg_tab
        .iter()
        .map(|c| c.map(|c| seg.column_chunk(g, c)).transpose())
        .collect::<Result<_>>()?;
    for i in local.iter_ones() {
        let key = Row::new(key_chunks.iter().map(|c| c.value_at(i)).collect());
        let gi = run.group_of(key)?;
        for (s, (a, chunk)) in run
            .states_of(gi)
            .iter_mut()
            .zip(core.agg_exprs().iter().zip(&agg_chunks))
        {
            match (a.func, chunk) {
                (AggFunc::CountStar, _) => s.count_row(),
                (_, Some(c)) => s.update(&c.value_at(i))?,
                (_, None) => {
                    return Err(DbError::Plan(
                        "non-COUNT(*) aggregate without input".into(),
                    ))
                }
            }
        }
    }
    Ok(())
}
