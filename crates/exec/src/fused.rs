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
//! The statement's group states live in the engine's one group store
//! ([`RunningGroups`], where its accumulators are described) for the whole
//! call; its slots are scan-output ordinals here. Each row group is
//! visited one of two ways:
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

use crate::groups::{AccState, Keys, RunningGroups, UNRESOLVED};
use oltap_common::cancel::CancellationToken;
use oltap_common::fault::{points, FaultInjector};
use oltap_common::ids::TxnId;
use oltap_common::{BitSet, Result, Row, Value};
use oltap_storage::encoding::{BitPacked, IntEncoding, StrEncoding};
use oltap_storage::segment::{ColumnRef, EncodedColumn, PassChunks, Segment};
use oltap_storage::ScanPredicate;
use oltap_txn::Ts;
use std::cmp::{max_by, min_by};
use std::sync::Arc;

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

/// Aggregates the visible rows of `segments` directly into `run` — a store
/// whose core [reads bare columns](crate::AggregatorCore::reads_bare_columns)
/// — in segment order, without materializing batches. `projection` maps
/// scan-output ordinals (the store's slots) to table ordinals. The caller folds the delta store's batches in afterwards
/// ([`RunningGroups::consume`]), preserving the unfused scan's
/// segments-then-delta row order.
///
/// Returns how many row groups took the dense and the scalar path,
/// `(dense, scalar)`. An error leaves `run` part-way through a row group:
/// the statement has failed, or — when it was the governor refusing a group
/// ([`RunningGroups::refused`]; nothing has been published) — starts over on
/// the pipelines, where the same store decides per row and spills: the dense
/// kernels resolve a block's groups before folding it and have nowhere to.
pub fn fused_aggregate_segments(
    run: &mut RunningGroups,
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
        let pass = selector.chunks();
        // One visit per row group: select it, aggregate it, move on — the
        // pages the filter pinned are still in the pool for the aggregates.
        for g in 0..seg.group_count() {
            let Some(local) = selector.select_group(g)? else {
                continue;
            };
            let chunks = run.chunks(&pass, g, projection)?;
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

/// Attempts the dense path for one row group. Returns `false` (touching
/// nothing) when the group column's chunk or an accumulator's input is one
/// only the scalar path handles, in which case the caller runs that.
fn dense_group(
    run: &mut RunningGroups,
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
                (AccState::MinV(_) | AccState::MaxV(_), _) => {}
            }
        }
    }
    slots.clear();
    Ok(true)
}
