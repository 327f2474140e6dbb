//! Fused filter + aggregate over compressed segments
//! (operate-on-compressed, paper §3).
//!
//! The classic pipeline for `SELECT k, SUM(v) … GROUP BY k` decompresses
//! every surviving row into a [`Batch`], re-evaluates
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
//! call ([`RunningGroups`]): a key resolves to a group index, and what the
//! aggregates accumulate is held in one typed column per *distinct
//! accumulator*, addressed by that index — a row count, and per input
//! column its NULL count, running sum, minimum or maximum. `SUM(x)` and
//! `AVG(x)` read one sum; `COUNT(*)`, `COUNT(x)` and `AVG`'s divisor read
//! the row count less `x`'s NULLs. Each row group is then visited one of
//! two ways:
//!
//! * **Dense** — at most one group column, integer or dictionary-coded.
//!   The key resolves to a group index with nothing decided per row:
//!   frame-of-reference codes index the store's own slots (one per value
//!   the zone maps allow for), dictionary codes a slot table resolved once
//!   per distinct code per row group, run-length keys resolve once per
//!   run, any other integer encoding goes through the key index behind a
//!   last-key memo. Inputs are read 64 rows at a time under the selection
//!   word — integers block-decoded, floats in place — and each accumulator
//!   is matched once per block, then updated in a loop over the selected
//!   rows' group indexes.
//! * **Scalar** — everything else (several group columns, float / bool /
//!   undictionaried string keys, `MIN`/`MAX` of strings): decode each
//!   selected row to [`Value`]s and update the same accumulators. The
//!   [`points::EXEC_KERNEL_FALLBACK`] fault point forces this path at
//!   row-group granularity; it is the reference the property and chaos
//!   suites hold the dense path to, bit for bit.
//!
//! Identity argument. Both paths visit segments, row groups and rows in
//! the same order and update the same accumulators, so every accumulator
//! of every group receives exactly the same updates in exactly the same
//! order whichever path a row group takes — and an accumulator two
//! aggregates share receives what each of them would have on its own. No
//! partial state is ever built and merged, hence no `f64` addition is ever
//! regrouped: float `SUM`/`AVG` (and `AVG` of integers) are bit-identical
//! on resident segments (one row group), paged ones (many) and frozen
//! ones, at any fallback probability. (Per-row-group partials merged in
//! group order — the obvious alternative — would define a *different*
//! float sum for a paged table than for the same rows resident in one
//! group.) The only regrouping left is where it is exact: the row count of
//! a block whose selected rows land in one group is a popcount.

use crate::aggregate::{AggFunc, AggState, AggregatorCore};
use crate::expr::Expr;
use crate::resources::ExecResources;
use oltap_common::cancel::CancellationToken;
use oltap_common::fault::{points, FaultInjector};
use oltap_common::hash::FxHashMap;
use oltap_common::ids::TxnId;
use oltap_common::{Batch, BitSet, DataType, DbError, Result, Row, Value};
use oltap_storage::encoding::{BitPacked, IntEncoding, StrEncoding};
use oltap_storage::segment::{ColumnRef, EncodedColumn, Segment};
use oltap_storage::ScanPredicate;
use oltap_txn::Ts;
use std::cmp::{max_by, min_by};
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

/// Snapshot-visibility and statement-guard inputs shared by every segment
/// visit of one fused aggregation.
pub struct FusedScanCtx<'a> {
    /// Pushed-down predicate (drives [`Segment::selector`]).
    pub pred: &'a ScanPredicate,
    /// Snapshot timestamp.
    pub read_ts: Ts,
    /// Transaction identity.
    pub me: TxnId,
    /// Fault injector probed at [`points::EXEC_KERNEL_FALLBACK`].
    pub faults: &'a FaultInjector,
    /// Checked every 64 blocks (4096 rows, the pipelines' morsel) on
    /// either path.
    pub cancel: &'a CancellationToken,
}

/// Aggregates the visible rows of `segments` directly into `run`, in
/// segment order, without materializing batches. `projection` maps
/// scan-output ordinals (which the shape's columns are expressed in) to
/// table ordinals. The caller folds the delta store's batches in afterwards
/// ([`RunningGroups::consume`]), preserving the unfused scan's
/// segments-then-delta row order.
///
/// Returns how many row groups took the dense and the scalar path,
/// `(dense, scalar)`. An error leaves `run` part-way through a row group:
/// the statement has failed, or — when it was the governor refusing a group
/// ([`RunningGroups::refused`]; nothing has been published) — starts over on
/// the pipelines, whose sink spills.
pub fn fused_aggregate_segments(
    run: &mut RunningGroups<'_>,
    segments: &[Arc<Segment>],
    projection: &[usize],
    ctx: &FusedScanCtx<'_>,
) -> Result<(usize, usize)> {
    run.presize_slots(segments, projection);
    let mut slots = SlotTable::default();
    let (mut dense, mut scalar) = (0, 0);
    for seg in segments {
        let Some(mut selector) = seg.selector(ctx.pred, ctx.read_ts, ctx.me)? else {
            continue;
        };
        // One visit per row group: select it, aggregate it, move on — the
        // pages the filter pinned are still in the pool for the aggregates.
        for g in 0..seg.group_count() {
            let Some(local) = selector.select_group(g)? else {
                continue;
            };
            let chunks = run.chunks(seg, g, projection)?;
            // The fault point forces the scalar decode-then-evaluate path
            // at row-group boundaries; results must not change.
            let fused =
                run.group_cols.len() <= 1 && !ctx.faults.should_fire(points::EXEC_KERNEL_FALLBACK);
            if fused && dense_group(run, &mut slots, &chunks, local, ctx.cancel)? {
                dense += 1;
            } else {
                for (n, i) in local.iter_ones().enumerate() {
                    if n % 4096 == 0 {
                        ctx.cancel.check()?;
                    }
                    run.update_row(|c| {
                        chunks[c]
                            .as_ref()
                            .map_or(Value::Null, |chunk| chunk.value_at(i))
                    })?;
                }
                scalar += 1;
            }
        }
    }
    Ok((dense, scalar))
}

/// "No group resolved yet" in a slot table.
const UNRESOLVED: u32 = u32::MAX;

/// The statement's running groups, addressed by index: a group exists from
/// the first selected row that carries its key, as in a hash aggregation,
/// and group `gi`'s share of every accumulator is that column's entry `gi`.
pub struct RunningGroups<'c> {
    core: &'c AggregatorCore,
    /// Group-by columns (scan-output ordinals).
    group_cols: Vec<usize>,
    keys: Keys,
    /// Selected rows of each group: `COUNT(*)`, and less an input's NULLs
    /// every other count.
    rows: Vec<i64>,
    accs: Vec<Acc>,
    /// How each aggregate reads its answer off `rows` and `accs`.
    outputs: Vec<Output>,
    mem: ExecResources,
    /// What a group costs the governor apart from a [`Row`] key, what has
    /// been reserved so far (handed back on drop), and whether the governor
    /// has refused a group.
    group_bytes: u64,
    reserved: u64,
    refused: bool,
}

/// Key → group index.
enum Keys {
    /// One integer (or timestamp) group column: the key of group `gi` is
    /// `of[gi]`, `None` for the NULL key. Keys from `lo` up have a slot each
    /// (`slots[key - lo]`, [`UNRESOLVED`] until the key is met), as many as
    /// the segments' zone maps say the column spans when that is within the
    /// slot budget — frame-of-reference codes index them directly; the NULL
    /// key and keys outside (the delta's, possibly) go through `index`.
    Int {
        of: Vec<Option<i64>>,
        lo: i64,
        slots: Vec<u32>,
        index: FxHashMap<Option<i64>, u32>,
    },
    /// Any other GROUP BY list, the empty one of a global aggregate included.
    Rows(FxHashMap<Row, u32>),
}

impl Keys {
    /// The least key with a slot, and the slots (none under a row key).
    fn slots(&self) -> (i64, &[u32]) {
        match self {
            Keys::Int { lo, slots, .. } => (*lo, slots),
            Keys::Rows(_) => (0, &[]),
        }
    }
}

/// One distinct accumulator: what is accumulated (`state`) of which input
/// column (`col`, a scan-output ordinal).
struct Acc {
    col: usize,
    state: AccState,
}

enum AccState {
    /// Selected rows whose input is NULL.
    Nulls(Vec<i64>),
    /// `f64` additions in row order: `SUM` and `AVG` of a float column,
    /// `AVG` of an integer one.
    SumF(Vec<f64>),
    /// Wrapping integer sum.
    SumI(Vec<i64>),
    MinI(Vec<i64>),
    MaxI(Vec<i64>),
    /// Float extremes in `total_cmp` order (ties are the same bits), started
    /// from its two ends.
    MinF(Vec<f64>),
    MaxF(Vec<f64>),
    /// What only the scalar path evaluates (`MIN` / `MAX` of strings and
    /// bools), as the state the pipelines keep.
    Scalar(AggFunc, DataType, Vec<AggState>),
}

/// Where an aggregate's answer is: indexes into `accs`. `nulls` is the
/// input's NULL count; the group's non-NULL inputs are its rows less that.
enum Output {
    Rows,
    Count {
        nulls: usize,
    },
    /// `SUM`, `MIN`, `MAX`: the accumulator's value, NULL without an input.
    Value {
        acc: usize,
        nulls: usize,
    },
    Avg {
        sum: usize,
        nulls: usize,
    },
}

impl<'c> RunningGroups<'c> {
    /// An empty store for `core`'s aggregates over `shape`'s columns,
    /// charging `mem` for every group it creates.
    pub fn new(core: &'c AggregatorCore, shape: &FusedShape, mem: &ExecResources) -> Self {
        let schema = core.schema();
        let int_key = shape.group_cols.len() == 1
            && matches!(
                schema.field(0).data_type,
                DataType::Int64 | DataType::Timestamp
            );
        let mut accs: Vec<Acc> = Vec::new();
        // The accumulator `state` of `col`, shared by every aggregate that
        // asks for the same one.
        let mut acc = |col: usize, state: AccState| {
            let same = |a: &Acc| match (&a.state, &state) {
                _ if a.col != col => false,
                (AccState::Scalar(f, ..), AccState::Scalar(g, ..)) => f == g,
                (a, b) => std::mem::discriminant(a) == std::mem::discriminant(b),
            };
            accs.iter().position(same).unwrap_or_else(|| {
                accs.push(Acc { col, state });
                accs.len() - 1
            })
        };
        let mut outputs = Vec::with_capacity(shape.agg_cols.len());
        for ((a, t), col) in core
            .agg_exprs()
            .iter()
            .zip(core.agg_input_types())
            .zip(&shape.agg_cols)
        {
            let Some(col) = *col else {
                outputs.push(Output::Rows);
                continue;
            };
            let nulls = acc(col, AccState::Nulls(Vec::new()));
            let int = matches!(t, DataType::Int64 | DataType::Timestamp);
            let float = *t == DataType::Float64;
            let state = match a.func {
                AggFunc::CountStar | AggFunc::Count => {
                    outputs.push(Output::Count { nulls });
                    continue;
                }
                AggFunc::Avg => AccState::SumF(Vec::new()),
                AggFunc::Sum if float => AccState::SumF(Vec::new()),
                AggFunc::Sum => AccState::SumI(Vec::new()),
                AggFunc::Min if int => AccState::MinI(Vec::new()),
                AggFunc::Max if int => AccState::MaxI(Vec::new()),
                AggFunc::Min if float => AccState::MinF(Vec::new()),
                AggFunc::Max if float => AccState::MaxF(Vec::new()),
                func => AccState::Scalar(func, *t, Vec::new()),
            };
            outputs.push(match (a.func, acc(col, state)) {
                (AggFunc::Avg, sum) => Output::Avg { sum, nulls },
                (_, acc) => Output::Value { acc, nulls },
            });
        }
        // As `SpillingAggregator::consume` charges a group: its accumulators
        // and the entry's overhead here, its key when it is created.
        let group_bytes = 8
            + 48
            + accs
                .iter()
                .map(|a| match a.state {
                    AccState::Scalar(..) => std::mem::size_of::<AggState>(),
                    _ => 8,
                })
                .sum::<usize>();
        RunningGroups {
            core,
            group_cols: shape.group_cols.clone(),
            keys: if int_key {
                Keys::Int {
                    of: Vec::new(),
                    lo: 0,
                    slots: Vec::new(),
                    index: FxHashMap::default(),
                }
            } else {
                Keys::Rows(FxHashMap::default())
            },
            rows: Vec::new(),
            accs,
            outputs,
            mem: mem.clone(),
            group_bytes: group_bytes as u64,
            reserved: 0,
            refused: false,
        }
    }

    /// Whether the governor refused one of this store's groups — the one
    /// [`DbError::ResourceExhausted`] that ends the fused attempt, not the
    /// statement.
    pub fn refused(&self) -> bool {
        self.refused
    }

    /// Opens group `rows.len()`, `key_bytes` its key's footprint.
    fn new_group(&mut self, key_bytes: usize) -> Result<u32> {
        let gi = u32::try_from(self.rows.len())
            .ok()
            .filter(|&gi| gi != UNRESOLVED)
            .ok_or_else(|| DbError::Execution("more than 2^32 groups".into()))?;
        if self.mem.is_limited() {
            let bytes = self.group_bytes + key_bytes as u64;
            if let Err(refused) = self.mem.budget.try_reserve(bytes) {
                self.refused = true;
                return Err(refused);
            }
            self.reserved += bytes;
        }
        self.rows.push(0);
        for acc in &mut self.accs {
            match &mut acc.state {
                AccState::Nulls(v) | AccState::SumI(v) => v.push(0),
                AccState::SumF(v) => v.push(0.0),
                AccState::MinI(v) => v.push(i64::MAX),
                AccState::MaxI(v) => v.push(i64::MIN),
                AccState::MinF(v) => v.push(f64::from_bits(u64::MAX >> 1)),
                AccState::MaxF(v) => v.push(f64::from_bits(u64::MAX)),
                AccState::Scalar(func, t, v) => v.push(AggState::new(*func, *t)),
            }
        }
        Ok(gi)
    }

    fn group_of(&mut self, key: Row) -> Result<u32> {
        if let (Keys::Int { .. }, [v]) = (&self.keys, key.values()) {
            let v = if v.is_null() { None } else { Some(v.as_int()?) };
            return self.group_of_int(v);
        }
        let Keys::Rows(by_key) = &self.keys else {
            return Err(DbError::Execution(
                "a row key in an integer-keyed aggregation".into(),
            ));
        };
        if let Some(&gi) = by_key.get(&key) {
            return Ok(gi);
        }
        let gi = self.new_group(key.approx_size())?;
        if let Keys::Rows(by_key) = &mut self.keys {
            by_key.insert(key, gi);
        }
        Ok(gi)
    }

    fn group_of_int(&mut self, key: Option<i64>) -> Result<u32> {
        let Keys::Int {
            lo, slots, index, ..
        } = &self.keys
        else {
            return self.group_of(Row::new(vec![key.map_or(Value::Null, Value::Int)]));
        };
        let slot = key
            .and_then(|v| usize::try_from(v.checked_sub(*lo)?).ok())
            .filter(|&s| s < slots.len());
        let met = match slot {
            Some(s) => slots[s],
            None => index.get(&key).copied().unwrap_or(UNRESOLVED),
        };
        if met != UNRESOLVED {
            return Ok(met);
        }
        let gi = self.new_group(std::mem::size_of::<Row>() + std::mem::size_of::<Value>())?;
        if let Keys::Int {
            of, slots, index, ..
        } = &mut self.keys
        {
            of.push(key);
            match slot {
                Some(s) => slots[s] = gi,
                None => drop(index.insert(key, gi)),
            }
        }
        Ok(gi)
    }

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
        seg: &'s Segment,
        g: usize,
        projection: &[usize],
    ) -> Result<Vec<Option<ColumnRef<'s>>>> {
        let mut chunks: Vec<Option<ColumnRef<'s>>> = projection.iter().map(|_| None).collect();
        for &c in self
            .group_cols
            .iter()
            .chain(self.accs.iter().map(|a| &a.col))
        {
            if chunks[c].is_none() {
                chunks[c] = Some(seg.column_chunk(g, projection[c])?);
            }
        }
        Ok(chunks)
    }

    /// One row, whose column `c` (a scan-output ordinal) is `value_at(c)`:
    /// the update the scalar path makes per selected row and the delta fold
    /// per delta row, in the accumulators' order.
    fn update_row(&mut self, value_at: impl Fn(usize) -> Value) -> Result<()> {
        let key = Row::new(self.group_cols.iter().map(|&c| value_at(c)).collect());
        let gi = self.group_of(key)? as usize;
        self.rows[gi] += 1;
        for acc in &mut self.accs {
            let v = value_at(acc.col);
            match &mut acc.state {
                AccState::Nulls(n) => n[gi] += i64::from(v.is_null()),
                _ if v.is_null() => {}
                AccState::SumF(s) => s[gi] += v.as_float()?,
                AccState::SumI(s) => s[gi] = s[gi].wrapping_add(v.as_int()?),
                AccState::MinI(m) => m[gi] = m[gi].min(v.as_int()?),
                AccState::MaxI(m) => m[gi] = m[gi].max(v.as_int()?),
                AccState::MinF(m) => m[gi] = min_by(m[gi], v.as_float()?, f64::total_cmp),
                AccState::MaxF(m) => m[gi] = max_by(m[gi], v.as_float()?, f64::total_cmp),
                AccState::Scalar(_, _, states) => states[gi].update(&v)?,
            }
        }
        Ok(())
    }

    /// Folds one batch of scan output (the delta store's rows) into the
    /// groups, row by row.
    pub fn consume(&mut self, batch: &Batch) -> Result<()> {
        for i in 0..batch.len() {
            self.update_row(|c| batch.column(c).value_at(i))?;
        }
        Ok(())
    }

    /// Finishes as [`AggregatorCore::finish`] does: one row per group in
    /// key order, chunked into batches; a global aggregate over no rows
    /// answers with its one empty group.
    pub fn finish(mut self) -> Result<Vec<Batch>> {
        if self.rows.is_empty() && self.group_cols.is_empty() {
            self.group_of(Row::new(Vec::new()))?;
        }
        let finished = |key: &[Value], gi: usize| {
            let mut vals = Vec::with_capacity(key.len() + self.outputs.len());
            vals.extend_from_slice(key);
            let inputs = |nulls: usize| match &self.accs[nulls].state {
                AccState::Nulls(n) => self.rows[gi] - n[gi],
                _ => 0,
            };
            vals.extend(self.outputs.iter().map(|out| match *out {
                Output::Rows => Value::Int(self.rows[gi]),
                Output::Count { nulls } => Value::Int(inputs(nulls)),
                Output::Value { nulls, .. } | Output::Avg { nulls, .. } if inputs(nulls) == 0 => {
                    Value::Null
                }
                Output::Value { acc, .. } => match &self.accs[acc].state {
                    AccState::SumI(v) | AccState::MinI(v) | AccState::MaxI(v) => Value::Int(v[gi]),
                    AccState::SumF(v) | AccState::MinF(v) | AccState::MaxF(v) => {
                        Value::Float(v[gi])
                    }
                    AccState::Scalar(_, _, states) => states[gi].finish(),
                    AccState::Nulls(_) => Value::Null,
                },
                Output::Avg { sum, nulls } => match &self.accs[sum].state {
                    AccState::SumF(v) => Value::Float(v[gi] / inputs(nulls) as f64),
                    _ => Value::Null,
                },
            }));
            Row::new(vals)
        };
        // Key order, NULL first: integer keys are ordered before any row
        // is built, others as the rows they lead (keys are distinct, so
        // ordering whole rows orders by key).
        let rows: Vec<Row> = match &self.keys {
            Keys::Int { of, .. } => {
                let mut order: Vec<usize> = (0..of.len()).collect();
                order.sort_unstable_by_key(|&gi| of[gi]);
                let key = |gi: usize| [of[gi].map_or(Value::Null, Value::Int)];
                order.into_iter().map(|gi| finished(&key(gi), gi)).collect()
            }
            Keys::Rows(by_key) => {
                let mut rows: Vec<Row> = by_key
                    .iter()
                    .map(|(key, &gi)| finished(key.values(), gi as usize))
                    .collect();
                rows.sort();
                rows
            }
        };
        self.core.batches(&rows)
    }
}

impl Drop for RunningGroups<'_> {
    /// The groups go, and what they were charged goes back.
    fn drop(&mut self) {
        self.mem.budget.release(self.reserved);
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
        run: &mut RunningGroups<'_>,
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
        run: &mut RunningGroups<'_>,
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

/// Attempts the dense path for one row group. Returns `false` (touching
/// nothing) when the group column's chunk or an accumulator's input is one
/// only the scalar path handles, in which case the caller runs that.
fn dense_group(
    run: &mut RunningGroups<'_>,
    slots: &mut SlotTable,
    chunks: &[Option<ColumnRef<'_>>],
    local: &BitSet,
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
    let rows = local.len();
    let mut null_group = None;
    let mut gidx = [0u32; 64];
    let mut vals = [0i64; 64];
    for (wb, &selword) in local.words().iter().enumerate() {
        if wb % 64 == 0 {
            cancel.check()?;
        }
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
            let valid = word_of(*validity, wb);
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
                (AccState::Scalar(..), _) => {}
            }
        }
    }
    slots.clear();
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::AggExpr;
    use oltap_common::mem::{MemoryGovernor, WorkloadClass};
    use oltap_common::{row, Field, Schema};

    /// However a store ends — finished, or dropped after the governor
    /// refused a group — its groups' reservation goes back; and only that
    /// refusal reads as `refused`.
    #[test]
    fn a_store_hands_its_reservation_back_however_it_ends() {
        let budget =
            MemoryGovernor::new(1 << 20, 1 << 20, 1 << 20).budget(WorkloadClass::Olap, 4096);
        let mem = ExecResources::new(budget.clone(), None);
        let schema = Schema::new(vec![
            Field::new("k", DataType::Int64),
            Field::new("v", DataType::Int64),
        ]);
        let group = vec![(Expr::Column(0), "k".to_string())];
        let aggs = vec![AggExpr::new(AggFunc::Sum, Expr::Column(1), "s")];
        let core = AggregatorCore::new(&schema, group, aggs).unwrap();
        let shape = fused_shape(&core).unwrap();
        let batch = |groups: i64| {
            let rows: Vec<Row> = (0..groups).map(|k| row![k, k * 2]).collect();
            Batch::from_rows(&schema, &rows).unwrap()
        };

        let mut run = RunningGroups::new(&core, &shape, &mem);
        run.consume(&batch(10)).unwrap();
        assert!(budget.used() > 0 && !run.refused());
        assert_eq!(
            run.finish().unwrap().iter().map(Batch::len).sum::<usize>(),
            10
        );
        assert_eq!(budget.used(), 0);

        let mut run = RunningGroups::new(&core, &shape, &mem);
        let err = run.consume(&batch(1000)).unwrap_err();
        assert!(
            matches!(err, DbError::ResourceExhausted { .. }) && run.refused(),
            "{err}"
        );
        assert!(
            budget.used() > 0,
            "the groups before the refusal are still charged"
        );
        drop(run);
        assert_eq!(budget.used(), 0);
    }
}
