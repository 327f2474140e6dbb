//! The engine's one group store: key → group index, and one typed
//! accumulator column per *distinct accumulator*, addressed by that index.
//!
//! Whoever aggregates fills a [`RunningGroups`]: the pipelines' aggregate
//! sink a batch at a time ([`RunningGroups::consume`]), the fused segment
//! walk ([`crate::fused`]) off encoded chunks. What the aggregates
//! accumulate is a row count per group and, per input *slot* (see
//! [`AggregatorCore`]), its NULL count, running sum, minimum or maximum:
//! `SUM(x)` and `AVG(x)` read one sum; `COUNT(*)`, `COUNT(x)` and `AVG`'s
//! divisor read the row count less `x`'s NULLs.
//!
//! Memory. Every group is charged to the statement's budget when it opens
//! and handed back when the store drops. The first refusal **freezes** a
//! store ([`RunningGroups::refused`]): groups already resident keep
//! updating in place, and `consume` writes the rows of unseen keys raw —
//! the slot values the store reads — to one of `PARTITIONS` spill files
//! chosen by key hash. A key is therefore either *entirely* resident or
//! *entirely* spilled, so [`RunningGroups::seal`] can replay each file in
//! write order (= arrival order) into groups opened force-accounted, and
//! every accumulator receives exactly the updates of a never-frozen run in
//! the same order. Without a spill directory the refusal is the
//! statement's error.
//!
//! Stripes. A float `SUM` / `AVG` adds in row order within each stripe of
//! [`STRIPE_ROWS`] rows, one store a stripe, and the stripes' sums in
//! stripe order ([`Stripes`]): whoever folds which stripe, the bits are the
//! same.
//!
//! Workers. Each pipeline worker — and each partition of a distributed
//! statement — fills its own stripes; sealed stores
//! [`merge`](RunningGroups::merge) in worker (partition) order, accumulator
//! by accumulator — every aggregate here is decomposable — and
//! [`finish`](RunningGroups::finish) emits groups in key order, so the
//! answer does not depend on which worker met a key first.

use crate::aggregate::{AggFunc, AggregatorCore};
use crate::resources::ExecResources;
use oltap_common::hash::FxHashMap;
use oltap_common::{Batch, ColumnVector, DataType, DbError, Result, Row, Value};
use oltap_storage::spill::SpillWriter;
use oltap_txn::wal::{decode_row, encode_row};
use std::cmp::{max_by, min_by};
use std::ops::Range;
use std::sync::Arc;

/// "No group resolved yet" in a slot table.
pub(crate) const UNRESOLVED: u32 = u32::MAX;

/// Number of spill partitions. Matches the join's radix fan-out, so a
/// frozen store replays ~1/16 of its spilled rows at a time.
const PARTITIONS: usize = 16;

/// Deterministic spill partition of a group key (stable across workers,
/// so one group always lands in one partition file).
fn partition_of(key: &Row) -> usize {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    key.hash(&mut h);
    (h.finish() % PARTITIONS as u64) as usize
}

/// A statement's (or one worker's share of a statement's) running groups,
/// addressed by index: a group exists from the first row that carries its
/// key, and group `gi`'s share of every accumulator is that column's entry
/// `gi`.
pub struct RunningGroups {
    core: Arc<AggregatorCore>,
    /// Group-by slots.
    pub(crate) group_cols: Vec<usize>,
    pub(crate) keys: Keys,
    /// Rows of each group: `COUNT(*)`, and less an input's NULLs every
    /// other count.
    pub(crate) rows: Vec<i64>,
    pub(crate) accs: Vec<Acc>,
    /// How each aggregate reads its answer off `rows` and `accs`.
    outputs: Vec<Output>,
    /// The distinct slots read, group keys first: what a spilled row holds.
    pub(crate) read_slots: Vec<usize>,
    mem: ExecResources,
    /// What a group costs the governor apart from a [`Row`] key, and what
    /// has been reserved so far (handed back on drop).
    group_bytes: u64,
    reserved: u64,
    /// The governor's refusal of a group. It stands for every later unseen
    /// key too: a key must never be part resident, part spilled.
    refusal: Option<DbError>,
    /// Sealed stores open groups force-accounted: what is replayed or
    /// merged into them is the result the statement cannot proceed without.
    sealed: bool,
    /// Spill partition files, none until the store freezes.
    writers: Vec<Option<SpillWriter>>,
}

/// Key → group index.
pub(crate) enum Keys {
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
    pub(crate) fn slots(&self) -> (i64, &[u32]) {
        match self {
            Keys::Int { lo, slots, .. } => (*lo, slots),
            Keys::Rows(_) => (0, &[]),
        }
    }
}

/// One distinct accumulator: what is accumulated (`state`) of which input
/// slot (`col`).
pub(crate) struct Acc {
    pub(crate) col: usize,
    pub(crate) state: AccState,
}

pub(crate) enum AccState {
    /// Rows whose input is NULL.
    Nulls(Vec<i64>),
    /// `f64` additions in row order (within a stripe): `SUM` and `AVG` of a
    /// float input, `AVG` of an integer one.
    SumF(Vec<f64>),
    /// Wrapping integer sum.
    SumI(Vec<i64>),
    MinI(Vec<i64>),
    MaxI(Vec<i64>),
    /// Float extremes in `total_cmp` order (ties are the same bits), started
    /// from its two ends.
    MinF(Vec<f64>),
    MaxF(Vec<f64>),
    /// Extremes of strings and bools, in [`Value`] order; only row-at-a-time
    /// updates reach them.
    MinV(Vec<Option<Value>>),
    MaxV(Vec<Option<Value>>),
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

impl RunningGroups {
    /// An empty store for `core`'s aggregates, charging `mem` for every
    /// group it creates.
    pub fn new(core: &Arc<AggregatorCore>, mem: &ExecResources) -> Self {
        let schema = core.schema();
        let (group_cols, agg_cols) = core.slots();
        let int_key = group_cols.len() == 1
            && matches!(
                schema.field(0).data_type,
                DataType::Int64 | DataType::Timestamp
            );
        let mut accs: Vec<Acc> = Vec::new();
        // The accumulator `state` of `col`, shared by every aggregate that
        // asks for the same one.
        let mut acc = |col: usize, state: AccState| {
            let same = |a: &Acc| {
                a.col == col && std::mem::discriminant(&a.state) == std::mem::discriminant(&state)
            };
            accs.iter().position(same).unwrap_or_else(|| {
                accs.push(Acc { col, state });
                accs.len() - 1
            })
        };
        let mut outputs = Vec::with_capacity(agg_cols.len());
        for ((a, t), col) in core
            .agg_exprs()
            .iter()
            .zip(core.agg_input_types())
            .zip(agg_cols)
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
                AggFunc::Min => AccState::MinV(Vec::new()),
                AggFunc::Max => AccState::MaxV(Vec::new()),
            };
            outputs.push(match (a.func, acc(col, state)) {
                (AggFunc::Avg, sum) => Output::Avg { sum, nulls },
                (_, acc) => Output::Value { acc, nulls },
            });
        }
        // The one place a group is priced: its accumulators and the entry's
        // overhead here, its key when it is created.
        let group_bytes = 8
            + 48
            + accs
                .iter()
                .map(|a| match a.state {
                    AccState::MinV(_) | AccState::MaxV(_) => std::mem::size_of::<Option<Value>>(),
                    _ => 8,
                })
                .sum::<usize>();
        let mut read_slots: Vec<usize> = Vec::new();
        for &slot in group_cols.iter().chain(accs.iter().map(|a| &a.col)) {
            if !read_slots.contains(&slot) {
                read_slots.push(slot);
            }
        }
        RunningGroups {
            core: Arc::clone(core),
            group_cols: group_cols.to_vec(),
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
            read_slots,
            mem: mem.clone(),
            group_bytes: group_bytes as u64,
            reserved: 0,
            refusal: None,
            sealed: false,
            writers: Vec::new(),
        }
    }

    /// An empty store of the same aggregation on the same budget, with the
    /// same integer key slots (all unmet).
    pub(crate) fn empty_like(&self) -> RunningGroups {
        let mut empty = RunningGroups::new(&self.core, &self.mem);
        if let (Keys::Int { lo, slots, .. }, Keys::Int { lo: l, slots: s, .. }) =
            (&mut empty.keys, &self.keys)
        {
            *lo = *l;
            slots.resize(s.len(), UNRESOLVED);
        }
        empty
    }

    /// The schema [`finish`](RunningGroups::finish) answers in.
    pub fn schema(&self) -> oltap_common::schema::SchemaRef {
        self.core.schema()
    }

    /// Whether the governor refused one of this store's groups — the one
    /// [`DbError::ResourceExhausted`] that freezes a store `consume` fills
    /// and ends a fused attempt, not the statement.
    pub fn refused(&self) -> bool {
        self.refusal.is_some()
    }

    /// Opens group `rows.len()`, `key_bytes` its key's footprint.
    fn new_group(&mut self, key_bytes: usize) -> Result<u32> {
        let gi = u32::try_from(self.rows.len())
            .ok()
            .filter(|&gi| gi != UNRESOLVED)
            .ok_or_else(|| DbError::Execution("more than 2^32 groups".into()))?;
        if self.mem.is_limited() {
            let bytes = self.group_bytes + key_bytes as u64;
            if self.sealed {
                self.mem.budget.reserve_forced(bytes);
            } else {
                if self.refusal.is_none() {
                    self.refusal = self.mem.budget.try_reserve(bytes).err();
                }
                if let Some(refusal) = &self.refusal {
                    return Err(refusal.clone());
                }
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
                AccState::MinV(v) | AccState::MaxV(v) => v.push(None),
            }
        }
        Ok(gi)
    }

    pub(crate) fn group_of(&mut self, key: Row) -> Result<u32> {
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

    pub(crate) fn group_of_int(&mut self, key: Option<i64>) -> Result<u32> {
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

    /// One row, whose slot `c` holds `value_at(c)`: the one update of an
    /// accumulator from a [`Value`] — `consume` per row, the fused walk's
    /// scalar path per selected row, the spill replay per record — in the
    /// accumulators' order. A refused group leaves nothing updated.
    pub(crate) fn update_row(&mut self, value_at: impl Fn(usize) -> Value) -> Result<()> {
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
                AccState::MinV(m) if m[gi].as_ref().is_none_or(|cur| v < *cur) => m[gi] = Some(v),
                AccState::MaxV(m) if m[gi].as_ref().is_none_or(|cur| v > *cur) => m[gi] = Some(v),
                AccState::MinV(_) | AccState::MaxV(_) => {}
            }
        }
        Ok(())
    }

    /// Folds one input batch into the groups, row by row in row order.
    /// Once the governor has refused a group, rows of unseen keys go to the
    /// spill files instead (terminal without a spill directory).
    pub fn consume(&mut self, batch: &Batch) -> Result<()> {
        let core = Arc::clone(&self.core);
        self.consume_rows(&core.slot_columns(batch)?, 0..batch.len())
    }

    /// [`consume`](Self::consume) of rows `rows` of `batch`.
    pub(crate) fn consume_range(&mut self, batch: &Batch, rows: Range<usize>) -> Result<()> {
        let core = Arc::clone(&self.core);
        self.consume_rows(&core.slot_columns(batch)?, rows)
    }

    /// [`consume`](Self::consume) of rows `rows` of a batch whose slot
    /// columns are `cols`.
    fn consume_rows(&mut self, cols: &[ColumnVector], rows: Range<usize>) -> Result<()> {
        for i in rows {
            let value_at = |c: usize| cols[c].value_at(i);
            match self.update_row(value_at) {
                Err(refusal @ DbError::ResourceExhausted { .. }) if self.refused() => {
                    self.spill_row(refusal, value_at)?
                }
                updated => updated?,
            }
        }
        Ok(())
    }

    /// Appends one raw row — the slots the store reads, group keys first —
    /// to its key's partition file; the first one freezes the store.
    fn spill_row(&mut self, refusal: DbError, value_at: impl Fn(usize) -> Value) -> Result<()> {
        let dir = self.mem.spill_dir(refusal)?;
        if self.writers.is_empty() {
            self.mem.budget.note_spill();
            self.writers = (0..PARTITIONS).map(|_| None).collect();
        }
        let key = Row::new(self.group_cols.iter().map(|&c| value_at(c)).collect());
        let p = partition_of(&key);
        let writer = match &mut self.writers[p] {
            Some(w) => w,
            none => none.insert(dir.writer(&format!("agg-p{p}"))?),
        };
        let vals = self.read_slots.iter().map(|&c| value_at(c)).collect();
        writer.write_record(&encode_row(&Row::new(vals)))
    }

    /// Seals the store: no more input. Replays every spilled partition
    /// (write order = arrival order, so each group comes out bit-identical
    /// to a never-frozen run) into groups of its own — by the freeze
    /// invariant none of them is resident yet.
    pub fn seal(&mut self) -> Result<()> {
        self.sealed = true;
        if self.writers.is_empty() {
            return Ok(());
        }
        let width = self.read_slots.len();
        let mut at = vec![0; self.read_slots.iter().max().map_or(0, |s| s + 1)];
        for (i, &s) in self.read_slots.iter().enumerate() {
            at[s] = i;
        }
        for writer in std::mem::take(&mut self.writers).into_iter().flatten() {
            let mut records = writer.finish()?.reader()?;
            while let Some(rec) = records.next_record()? {
                let vals = decode_row(&rec)?.into_values();
                if vals.len() != width {
                    return Err(DbError::Corruption(format!(
                        "aggregate spill row has {} values, expected {width}",
                        vals.len()
                    )));
                }
                self.update_row(|c| vals[at[c]].clone())?;
            }
        }
        Ok(())
    }

    /// Folds another store of the same aggregation (a different worker's or
    /// partition's input) into this one, sealing both: per key, accumulator
    /// by accumulator. Integer results cannot depend on the merge order;
    /// float sums add in the caller's — fixed — worker or partition order.
    pub fn merge(&mut self, mut other: RunningGroups) -> Result<()> {
        self.seal()?;
        other.seal()?;
        match std::mem::replace(&mut other.keys, Keys::Rows(FxHashMap::default())) {
            Keys::Int { of, .. } => {
                for (gj, key) in of.into_iter().enumerate() {
                    let gi = self.group_of_int(key)?;
                    self.absorb(gi as usize, &other, gj)?;
                }
            }
            Keys::Rows(by_key) => {
                for (key, gj) in by_key {
                    let gi = self.group_of(key)?;
                    self.absorb(gi as usize, &other, gj as usize)?;
                }
            }
        }
        Ok(())
    }

    /// Group `gj` of `other` into group `gi`.
    fn absorb(&mut self, gi: usize, other: &RunningGroups, gj: usize) -> Result<()> {
        self.rows[gi] += other.rows[gj];
        for (mine, theirs) in self.accs.iter_mut().zip(&other.accs) {
            match (&mut mine.state, &theirs.state) {
                (AccState::Nulls(a), AccState::Nulls(b)) => a[gi] += b[gj],
                (AccState::SumF(a), AccState::SumF(b)) => a[gi] += b[gj],
                (AccState::SumI(a), AccState::SumI(b)) => a[gi] = a[gi].wrapping_add(b[gj]),
                (AccState::MinI(a), AccState::MinI(b)) => a[gi] = a[gi].min(b[gj]),
                (AccState::MaxI(a), AccState::MaxI(b)) => a[gi] = a[gi].max(b[gj]),
                (AccState::MinF(a), AccState::MinF(b)) => {
                    a[gi] = min_by(a[gi], b[gj], f64::total_cmp)
                }
                (AccState::MaxF(a), AccState::MaxF(b)) => {
                    a[gi] = max_by(a[gi], b[gj], f64::total_cmp)
                }
                (AccState::MinV(a), AccState::MinV(b)) => {
                    if b[gj].is_some() && (a[gi].is_none() || b[gj] < a[gi]) {
                        a[gi].clone_from(&b[gj]);
                    }
                }
                (AccState::MaxV(a), AccState::MaxV(b)) => {
                    if b[gj] > a[gi] {
                        a[gi].clone_from(&b[gj]);
                    }
                }
                // Stores of one `AggregatorCore` line up; anything else is
                // a logic bug surfaced as a typed error rather than a panic
                // on the worker thread.
                _ => {
                    return Err(DbError::Execution(
                        "merging the groups of different aggregations".into(),
                    ))
                }
            }
        }
        Ok(())
    }

    /// Seals, then finishes: one row per group in key order (NULL first),
    /// chunked into batches; a global aggregate over no rows answers with
    /// its one empty group.
    pub fn finish(mut self) -> Result<Vec<Batch>> {
        self.seal()?;
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
                    AccState::MinV(v) | AccState::MaxV(v) => v[gi].clone().unwrap_or(Value::Null),
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

impl Drop for RunningGroups {
    /// The groups go, and what they were charged goes back.
    fn drop(&mut self) {
        self.mem.budget.release(self.reserved);
    }
}

/// Selected rows a stripe folds. This is part of what a float `SUM` or
/// `AVG` means — its additions run in row order within each stripe of this
/// many rows, and the stripes' sums are added in stripe order — so it is a
/// definition, never a tuning knob: changing it changes answers.
pub const STRIPE_ROWS: usize = 16 * 1024;

/// An input folded in stripes of [`STRIPE_ROWS`] rows: a store for the
/// stripe being filled, and the stripes before it merged in stripe order.
/// The pipelines' aggregate sink is one (per worker); the fused walk cuts
/// the same stripes over the segments' selected rows and then the delta.
pub struct Stripes {
    /// The stripes before `open`, merged in order.
    done: Option<RunningGroups>,
    open: RunningGroups,
    /// Rows folded into `open`.
    rows: usize,
}

impl Stripes {
    /// Stripes whose first store is `first` (empty).
    pub fn new(first: RunningGroups) -> Self {
        Stripes {
            done: None,
            open: first,
            rows: 0,
        }
    }

    /// The store of the stripe being filled.
    pub(crate) fn open(&mut self) -> &mut RunningGroups {
        &mut self.open
    }

    /// Rows the open stripe still takes.
    pub(crate) fn room(&self) -> usize {
        STRIPE_ROWS - self.rows
    }

    /// Counts `rows` more rows into the open stripe (at most its room); a
    /// full stripe is merged behind the ones before it and a new one opens.
    pub(crate) fn filled(&mut self, rows: usize) -> Result<()> {
        self.rows += rows;
        if self.rows == STRIPE_ROWS {
            let next = self.open.empty_like();
            let full = std::mem::replace(&mut self.open, next);
            self.push(full)?;
            self.rows = 0;
        }
        Ok(())
    }

    /// Merges the next stripe, complete, behind the ones before it.
    fn push(&mut self, stripe: RunningGroups) -> Result<()> {
        match &mut self.done {
            Some(done) => done.merge(stripe),
            None => {
                self.done = Some(stripe);
                Ok(())
            }
        }
    }

    /// Folds `batch`, row by row in order, cutting a stripe wherever one
    /// fills.
    pub fn consume(&mut self, batch: &Batch) -> Result<()> {
        let core = Arc::clone(&self.open.core);
        let cols = core.slot_columns(batch)?;
        let mut at = 0;
        while at < batch.len() {
            let take = self.room().min(batch.len() - at);
            self.open.consume_rows(&cols, at..at + take)?;
            self.filled(take)?;
            at += take;
        }
        Ok(())
    }

    /// Every stripe merged in order, sealed.
    pub fn finish(self) -> Result<RunningGroups> {
        let Stripes { done, mut open, .. } = self;
        match done {
            Some(mut done) => done.merge(open).map(|()| done),
            None => open.seal().map(|()| open),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::AggExpr;
    use crate::expr::{BinOp, Expr};
    use crate::pipeline::tests::rows_of;
    use oltap_common::mem::{MemoryBudget, MemoryGovernor, WorkloadClass};
    use oltap_common::schema::SchemaRef;
    use oltap_common::{row, Field, Schema};
    use oltap_storage::spill::SpillDir;

    fn schema() -> SchemaRef {
        Arc::new(Schema::new(vec![
            Field::new("g", DataType::Int64),
            Field::new("v", DataType::Int64),
            Field::new("f", DataType::Float64),
            Field::new("s", DataType::Utf8),
        ]))
    }

    /// `n` rows over `groups` keys, one in seven of them the NULL key and
    /// one in five of the inputs NULL; `f` a multiple of 0.25, so every
    /// partial sum is exact and regrouping the additions cannot show.
    fn batches(n: i64, groups: i64) -> Vec<Batch> {
        let rows: Vec<Row> = (0..n)
            .map(|i| {
                let g = if i % 7 == 3 {
                    Value::Null
                } else {
                    Value::Int((i * 31) % groups)
                };
                if i % 5 == 4 {
                    Row::new(vec![g, Value::Null, Value::Null, Value::Null])
                } else {
                    let f = ((i * 37) % 8001 - 4000) as f64 * 0.25;
                    Row::new(vec![
                        g,
                        Value::Int(i - n / 2),
                        Value::Float(f),
                        Value::Str(format!("s{}", i % 13)),
                    ])
                }
            })
            .collect();
        rows.chunks(97)
            .map(|c| Batch::from_rows(&schema(), c).unwrap())
            .collect()
    }

    /// Every accumulator kind, `SUM`/`AVG` sharing one, over key `key`.
    fn core(key: Expr) -> Arc<AggregatorCore> {
        let aggs = vec![
            AggExpr::count_star("n"),
            AggExpr::new(AggFunc::Count, Expr::col(1), "nv"),
            AggExpr::new(AggFunc::Sum, Expr::col(1), "sv"),
            AggExpr::new(AggFunc::Avg, Expr::col(1), "av"),
            AggExpr::new(AggFunc::Min, Expr::col(1), "mnv"),
            AggExpr::new(AggFunc::Max, Expr::col(1), "mxv"),
            AggExpr::new(AggFunc::Sum, Expr::col(2), "sf"),
            AggExpr::new(AggFunc::Avg, Expr::col(2), "af"),
            AggExpr::new(AggFunc::Min, Expr::col(2), "mnf"),
            AggExpr::new(AggFunc::Max, Expr::col(2), "mxf"),
            AggExpr::new(AggFunc::Min, Expr::col(3), "mns"),
            AggExpr::new(AggFunc::Max, Expr::col(3), "mxs"),
        ];
        Arc::new(AggregatorCore::new(&schema(), vec![(key, "k".into())], aggs).unwrap())
    }

    fn tight(limit: u64) -> MemoryBudget {
        MemoryGovernor::new(u64::MAX, u64::MAX, u64::MAX).budget(WorkloadClass::Olap, limit)
    }

    fn consumed(core: &Arc<AggregatorCore>, mem: &ExecResources, input: &[Batch]) -> RunningGroups {
        let mut groups = RunningGroups::new(core, mem);
        for b in input {
            groups.consume(b).unwrap();
        }
        groups
    }

    /// The per-worker sink contract: stores that split the input any way,
    /// merged, are the store that consumed all of it — by bits, floats
    /// included, as the inputs are exact. Keys met by one side only and the
    /// NULL key included; integer keys and row keys.
    #[test]
    fn merged_stores_are_the_store_that_consumed_both_inputs() {
        let input = batches(3000, 40);
        let string_key = Expr::col(3);
        let sum_key = Expr::binary(BinOp::Add, Expr::col(0), Expr::col(1));
        for key in [Expr::col(0), string_key, sum_key] {
            let core = core(key);
            let mem = ExecResources::unlimited();
            let whole = consumed(&core, &mem, &input).finish().unwrap();
            // Halves (the second holds keys the first never meets: 3000 rows
            // step through 40 keys many times, the first 20 rows do not),
            // and three interleaved workers.
            for parts in [
                vec![input[..1].to_vec(), input[1..].to_vec()],
                (0..3)
                    .map(|w| input.iter().skip(w).step_by(3).cloned().collect())
                    .collect(),
                vec![Vec::new(), input.clone()],
            ] {
                let mut stores = parts.iter().map(|p: &Vec<Batch>| consumed(&core, &mem, p));
                let mut merged = stores.next().unwrap();
                for s in stores {
                    merged.merge(s).unwrap();
                }
                assert_eq!(rows_of(&whole), rows_of(&merged.finish().unwrap()));
            }
        }
    }

    /// A store frozen mid-batch seals to the groups of an unmetered one,
    /// whichever key shape and however many stores share the budget; and
    /// however a store ends — finished, merged away, or dropped frozen —
    /// its reservation goes back.
    #[test]
    fn a_frozen_store_seals_to_the_unmetered_groups_and_hands_its_reservation_back() {
        let input = batches(4000, 500);
        for key in [
            Expr::col(0),
            Expr::binary(BinOp::Add, Expr::col(0), Expr::lit(0i64)),
            Expr::col(2),
        ] {
            let core = core(key);
            let plain = consumed(&core, &ExecResources::unlimited(), &input);
            assert!(!plain.refused());
            let plain = rows_of(&plain.finish().unwrap());

            let budget = tight(16 * 1024);
            let dir = Arc::new(SpillDir::create_temp().unwrap());
            let mem = ExecResources::new(budget.clone(), Some(Arc::clone(&dir)));
            let frozen = consumed(&core, &mem, &input);
            assert!(
                frozen.refused() && dir.file_count() > 0,
                "a tight budget must spill"
            );
            assert_eq!(budget.spill_count(), 1, "one freeze is one spill event");
            assert!(budget.used() > 0);
            assert_eq!(
                plain,
                rows_of(&frozen.finish().unwrap()),
                "spilling must not change the result"
            );
            assert_eq!(budget.used(), 0, "finished");

            // Two workers on one budget, both frozen, merged.
            let (a, b) = input.split_at(input.len() / 2);
            let mut merged = consumed(&core, &mem, a);
            merged.merge(consumed(&core, &mem, b)).unwrap();
            assert_eq!(plain, rows_of(&merged.finish().unwrap()));
            assert_eq!(budget.used(), 0, "merged and finished");

            // Dropped frozen, and dropped sealed.
            drop(consumed(&core, &mem, &input));
            assert_eq!(budget.used(), 0, "dropped frozen");
            let mut sealed = consumed(&core, &mem, &input);
            sealed.seal().unwrap();
            assert!(
                budget.used() > 16 * 1024,
                "replayed groups are force-accounted"
            );
            drop(sealed);
            assert_eq!(budget.used(), 0, "dropped sealed");
        }
    }

    /// Without a spill directory a refusal is the statement's typed error,
    /// reads as `refused`, and what was reserved before it still goes back.
    #[test]
    fn a_refusal_without_a_spill_dir_is_terminal() {
        let core = core(Expr::col(0));
        let budget = tight(4096);
        let mem = ExecResources::new(budget.clone(), None);
        let mut groups = RunningGroups::new(&core, &mem);
        let err = groups.consume(&batches(97, 2)[0]).and_then(|()| {
            batches(2000, 2000)
                .iter()
                .try_for_each(|b| groups.consume(b))
        });
        let err = err.unwrap_err();
        assert!(
            matches!(err, DbError::ResourceExhausted { .. }) && groups.refused(),
            "{err}"
        );
        assert!(
            budget.used() > 0,
            "the groups before the refusal are still charged"
        );
        drop(groups);
        assert_eq!(budget.used(), 0);
    }

    /// Aggregates that read one expression share its slot and accumulators;
    /// expressions that only compare equal (`v * 2`, `v * 2.0`) do not.
    #[test]
    fn equal_input_expressions_share_a_slot() {
        let twice = |lit: Value| Expr::binary(BinOp::Mul, Expr::col(1), Expr::Literal(lit));
        let aggs = vec![
            AggExpr::new(AggFunc::Sum, twice(Value::Int(2)), "s"),
            AggExpr::new(AggFunc::Avg, twice(Value::Int(2)), "a"),
            AggExpr::new(AggFunc::Sum, twice(Value::Float(2.0)), "sf"),
        ];
        let core = Arc::new(AggregatorCore::new(&schema(), Vec::new(), aggs).unwrap());
        assert!(!core.reads_bare_columns());
        let groups = consumed(&core, &ExecResources::unlimited(), &batches(100, 3));
        assert_eq!(groups.read_slots, [0, 1]);
        // NULL counts of both slots, an integer and a float sum of the
        // first (`SUM`, `AVG`), a float sum of the second.
        assert_eq!(groups.accs.len(), 5);
        let want: i64 = (0..100).filter(|i| i % 5 != 4).map(|i| (i - 50) * 2).sum();
        let got = rows_of(&groups.finish().unwrap());
        assert_eq!(got, [row![want, want as f64 / 80.0, want as f64]]);
    }
}
