//! Blocking hash aggregation (GROUP BY) with the standard SQL aggregates.

use crate::compiled::CompiledExpr;
use crate::expr::Expr;
use crate::resources::ExecResources;
use oltap_common::hash::FxHashMap;
use oltap_common::schema::SchemaRef;
use oltap_common::{Batch, ColumnVector, DataType, DbError, Field, Result, Row, Schema, Value};
use oltap_storage::spill::SpillWriter;
use oltap_txn::wal::{decode_row, encode_row};
use std::sync::Arc;

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// `COUNT(*)` — counts rows.
    CountStar,
    /// `COUNT(expr)` — counts non-NULL values.
    Count,
    /// `SUM(expr)`.
    Sum,
    /// `MIN(expr)`.
    Min,
    /// `MAX(expr)`.
    Max,
    /// `AVG(expr)` — always Float64.
    Avg,
}

impl AggFunc {
    /// SQL name.
    pub fn name(self) -> &'static str {
        match self {
            AggFunc::CountStar => "count(*)",
            AggFunc::Count => "count",
            AggFunc::Sum => "sum",
            AggFunc::Min => "min",
            AggFunc::Max => "max",
            AggFunc::Avg => "avg",
        }
    }
}

/// One aggregate in the SELECT list.
#[derive(Debug, Clone, PartialEq)]
pub struct AggExpr {
    /// The function.
    pub func: AggFunc,
    /// Input expression (`None` only for `COUNT(*)`).
    pub input: Option<Expr>,
    /// Output column label.
    pub label: String,
}

impl AggExpr {
    /// `COUNT(*)`.
    pub fn count_star(label: impl Into<String>) -> Self {
        AggExpr {
            func: AggFunc::CountStar,
            input: None,
            label: label.into(),
        }
    }

    /// An aggregate over an expression.
    pub fn new(func: AggFunc, input: Expr, label: impl Into<String>) -> Self {
        AggExpr {
            func,
            input: Some(input),
            label: label.into(),
        }
    }

    fn output_type(&self, schema: &Schema) -> Result<DataType> {
        match self.func {
            AggFunc::CountStar | AggFunc::Count => Ok(DataType::Int64),
            AggFunc::Avg => Ok(DataType::Float64),
            AggFunc::Sum | AggFunc::Min | AggFunc::Max => {
                let t = self
                    .input
                    .as_ref()
                    .ok_or_else(|| DbError::Plan("aggregate needs an input".into()))?
                    .data_type(schema)?;
                if self.func == AggFunc::Sum
                    && !matches!(t, DataType::Int64 | DataType::Float64)
                {
                    return Err(DbError::Plan(format!("SUM over non-numeric {t}")));
                }
                Ok(t)
            }
        }
    }
}

/// Running state of one aggregate within one group.
#[derive(Debug, Clone)]
pub(crate) enum AggState {
    Count(i64),
    SumI {
        sum: i64,
        seen: bool,
    },
    SumF {
        sum: f64,
        seen: bool,
    },
    Min(Option<Value>),
    Max(Option<Value>),
    Avg {
        sum: f64,
        count: i64,
    },
}

impl AggState {
    pub(crate) fn new(func: AggFunc, input_type: DataType) -> AggState {
        match func {
            AggFunc::CountStar | AggFunc::Count => AggState::Count(0),
            AggFunc::Sum => match input_type {
                DataType::Float64 => AggState::SumF {
                    sum: 0.0,
                    seen: false,
                },
                _ => AggState::SumI { sum: 0, seen: false },
            },
            AggFunc::Min => AggState::Min(None),
            AggFunc::Max => AggState::Max(None),
            AggFunc::Avg => AggState::Avg { sum: 0.0, count: 0 },
        }
    }

    pub(crate) fn update(&mut self, v: &Value) -> Result<()> {
        match self {
            AggState::Count(c) => {
                if !v.is_null() {
                    *c += 1;
                }
            }
            AggState::SumI { sum, seen } => {
                if !v.is_null() {
                    *sum = sum.wrapping_add(v.as_int()?);
                    *seen = true;
                }
            }
            AggState::SumF { sum, seen } => {
                if !v.is_null() {
                    *sum += v.as_float()?;
                    *seen = true;
                }
            }
            AggState::Min(m) => {
                if !v.is_null() && m.as_ref().is_none_or(|cur| v < cur) {
                    *m = Some(v.clone());
                }
            }
            AggState::Max(m) => {
                if !v.is_null() && m.as_ref().is_none_or(|cur| v > cur) {
                    *m = Some(v.clone());
                }
            }
            AggState::Avg { sum, count } => {
                if !v.is_null() {
                    *sum += v.as_float()?;
                    *count += 1;
                }
            }
        }
        Ok(())
    }

    pub(crate) fn count_row(&mut self) {
        if let AggState::Count(c) = self {
            *c += 1;
        }
    }

    /// Folds another partial state (same function, different input slice)
    /// into this one. Every aggregate here is decomposable, which is what
    /// lets the pipeline executor aggregate per worker and merge.
    pub(crate) fn merge(&mut self, other: AggState) -> Result<()> {
        match (self, other) {
            (AggState::Count(a), AggState::Count(b)) => *a += b,
            (AggState::SumI { sum, seen }, AggState::SumI { sum: s2, seen: n2 }) => {
                *sum = sum.wrapping_add(s2);
                *seen |= n2;
            }
            (AggState::SumF { sum, seen }, AggState::SumF { sum: s2, seen: n2 }) => {
                *sum += s2;
                *seen |= n2;
            }
            (AggState::Min(m), AggState::Min(o)) => {
                if let Some(v) = o {
                    if m.as_ref().is_none_or(|cur| v < *cur) {
                        *m = Some(v);
                    }
                }
            }
            (AggState::Max(m), AggState::Max(o)) => {
                if let Some(v) = o {
                    if m.as_ref().is_none_or(|cur| v > *cur) {
                        *m = Some(v);
                    }
                }
            }
            (AggState::Avg { sum, count }, AggState::Avg { sum: s2, count: c2 }) => {
                *sum += s2;
                *count += c2;
            }
            // States come from the same AggregatorCore, so variants always
            // line up; a mismatch is a logic bug surfaced as a typed error
            // rather than a panic on the worker thread.
            _ => {
                return Err(DbError::Execution(
                    "merging mismatched aggregate states".into(),
                ))
            }
        }
        Ok(())
    }

    pub(crate) fn finish(&self) -> Value {
        match self {
            AggState::Count(c) => Value::Int(*c),
            AggState::SumI { sum, seen } => {
                if *seen {
                    Value::Int(*sum)
                } else {
                    Value::Null
                }
            }
            AggState::SumF { sum, seen } => {
                if *seen {
                    Value::Float(*sum)
                } else {
                    Value::Null
                }
            }
            AggState::Min(m) | AggState::Max(m) => m.clone().unwrap_or(Value::Null),
            AggState::Avg { sum, count } => {
                if *count == 0 {
                    Value::Null
                } else {
                    Value::Float(sum / *count as f64)
                }
            }
        }
    }
}

/// A thread-local partial aggregation: group key → one running state per
/// aggregate. Opaque; produced by [`AggregatorCore::new_map`], filled by
/// [`AggregatorCore::consume`], combined by [`AggregatorCore::merge`].
pub struct GroupMap(pub(crate) FxHashMap<Row, Vec<AggState>>);

impl GroupMap {
    /// Number of distinct groups accumulated so far.
    pub fn group_count(&self) -> usize {
        self.0.len()
    }
}

/// The reusable aggregation engine: schema derivation, per-batch
/// consumption into a [`GroupMap`], partial-map merging, and the
/// deterministic finish (sort by group key, chunk into batches). The
/// pipeline's aggregate sink and the fused segment path both drive this
/// core.
pub struct AggregatorCore {
    group_by: Vec<CompiledExpr>,
    aggs: Vec<AggExpr>,
    /// `aggs[k].input`, ready to evaluate (`None` for `COUNT(*)`).
    agg_inputs: Vec<Option<CompiledExpr>>,
    input_types: Vec<DataType>,
    schema: SchemaRef,
    batch_size: usize,
}

impl AggregatorCore {
    /// Builds the core. Output schema = group-by columns (labeled by the
    /// paired names) followed by one column per aggregate.
    pub fn new(
        input_schema: &Schema,
        group_by: Vec<(Expr, String)>,
        aggs: Vec<AggExpr>,
    ) -> Result<Self> {
        let mut fields = Vec::new();
        let mut group_exprs = Vec::new();
        for (e, name) in group_by {
            fields.push(Field::new(name, e.data_type(input_schema)?));
            group_exprs.push(CompiledExpr::new(e, input_schema));
        }
        let mut input_types = Vec::new();
        let mut agg_inputs = Vec::new();
        for a in &aggs {
            fields.push(Field::new(a.label.clone(), a.output_type(input_schema)?));
            input_types.push(match &a.input {
                Some(e) => e.data_type(input_schema)?,
                None => DataType::Int64,
            });
            agg_inputs.push(a.input.clone().map(|e| CompiledExpr::new(e, input_schema)));
        }
        Ok(AggregatorCore {
            group_by: group_exprs,
            aggs,
            agg_inputs,
            input_types,
            schema: Arc::new(Schema::new(fields)),
            batch_size: 4096,
        })
    }

    /// The output schema.
    pub fn schema(&self) -> SchemaRef {
        Arc::clone(&self.schema)
    }

    /// The group-by expressions (in output order).
    pub fn group_exprs(&self) -> impl ExactSizeIterator<Item = &Expr> {
        self.group_by.iter().map(CompiledExpr::expr)
    }

    /// The aggregates (in output order).
    pub fn agg_exprs(&self) -> &[AggExpr] {
        &self.aggs
    }

    /// The resolved input type of each aggregate.
    pub fn agg_input_types(&self) -> &[DataType] {
        &self.input_types
    }

    /// An empty partial map.
    pub fn new_map(&self) -> GroupMap {
        GroupMap(FxHashMap::default())
    }

    pub(crate) fn make_states(&self) -> Vec<AggState> {
        self.aggs
            .iter()
            .zip(&self.input_types)
            .map(|(a, t)| AggState::new(a.func, *t))
            .collect()
    }

    /// One batch's group-key columns and aggregate-input columns (`None`
    /// for `COUNT(*)`).
    fn eval_inputs(&self, batch: &Batch) -> Result<(Vec<ColumnVector>, Vec<Option<ColumnVector>>)> {
        let key_cols = CompiledExpr::eval_all(&self.group_by, batch)?;
        let agg_cols = self
            .agg_inputs
            .iter()
            .map(|e| e.as_ref().map(|e| e.eval(batch)).transpose())
            .collect::<Result<Vec<_>>>()?;
        Ok((key_cols, agg_cols))
    }

    /// Folds one batch into `map`, evaluating group keys and aggregate
    /// inputs vectorized.
    pub fn consume(&self, map: &mut GroupMap, batch: &Batch) -> Result<()> {
        if batch.is_empty() {
            return Ok(());
        }
        let (key_cols, agg_cols) = self.eval_inputs(batch)?;
        for i in 0..batch.len() {
            let key = Row::new(key_cols.iter().map(|c| c.value_at(i)).collect());
            let states = map.0.entry(key).or_insert_with(|| self.make_states());
            update_states(states, self, &agg_cols, i)?;
        }
        Ok(())
    }

    /// Merges a partial map into `into`. Every supported aggregate is
    /// decomposable, so merge order cannot change integer results (float
    /// sums are merged in caller-fixed worker order for determinism).
    pub fn merge(&self, into: &mut GroupMap, from: GroupMap) -> Result<()> {
        for (key, states) in from.0 {
            match into.0.entry(key) {
                std::collections::hash_map::Entry::Occupied(mut e) => {
                    for (dst, src) in e.get_mut().iter_mut().zip(states) {
                        dst.merge(src)?;
                    }
                }
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(states);
                }
            }
        }
        Ok(())
    }

    /// Finishes: deterministic output order (sorted by group key), chunked
    /// into batches. A global aggregate over empty input yields one row.
    pub fn finish(&self, mut map: GroupMap) -> Result<Vec<Batch>> {
        if map.0.is_empty() && self.group_by.is_empty() {
            map.0.insert(Row::new(Vec::new()), self.make_states());
        }
        let mut entries: Vec<(Row, Vec<AggState>)> = map.0.into_iter().collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0));

        let rows: Vec<Row> = entries
            .into_iter()
            .map(|(key, states)| {
                let mut vals = key.into_values();
                vals.extend(states.iter().map(|s| s.finish()));
                Row::new(vals)
            })
            .collect();
        self.batches(&rows)
    }

    /// Chunks finished output rows (group key, then one value per
    /// aggregate, in key order) into batches.
    pub(crate) fn batches(&self, rows: &[Row]) -> Result<Vec<Batch>> {
        rows.chunks(self.batch_size)
            .map(|c| Batch::from_rows(&self.schema, c))
            .collect()
    }
}

/// Number of group-hash spill partitions. Matches the join's radix fan-out
/// so a spilled aggregation reconsumes ~1/16 of its groups at a time.
const AGG_PARTITIONS: usize = 16;

/// Deterministic spill partition of a group key (stable across workers,
/// so one group always lands in one partition file).
fn agg_partition_of(key: &Row) -> usize {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    key.hash(&mut h);
    (h.finish() % AGG_PARTITIONS as u64) as usize
}

/// A memory-bounded aggregation sink: hybrid hashing over an
/// [`AggregatorCore`].
///
/// While the budget admits reservations, this is exactly a [`GroupMap`].
/// The first rejected reservation **freezes** the map: rows of groups
/// already resident keep updating their states in place (no growth), and
/// rows of unseen groups are written raw — group key plus evaluated
/// aggregate inputs — to one of [`AGG_PARTITIONS`] spill files chosen by
/// group-key hash. The invariant that makes this deterministic: a group
/// is either *entirely* resident or *entirely* spilled (per sink), so
/// [`into_map`](Self::into_map) can replay each spilled partition in
/// write order (= arrival order) into fresh states and merge them into
/// the resident map touching only vacant entries. Runs at any worker
/// count, spilling or not, produce bit-identical group states.
pub struct SpillingAggregator {
    map: GroupMap,
    res: ExecResources,
    frozen: bool,
    writers: Vec<Option<SpillWriter>>,
    spilled_rows: u64,
}

impl SpillingAggregator {
    /// An empty sink drawing from `res`.
    pub fn new(res: ExecResources) -> Self {
        SpillingAggregator {
            map: GroupMap(FxHashMap::default()),
            res,
            frozen: false,
            writers: (0..AGG_PARTITIONS).map(|_| None).collect(),
            spilled_rows: 0,
        }
    }

    /// Rows written to spill files so far (tests/stats).
    pub fn spilled_rows(&self) -> u64 {
        self.spilled_rows
    }

    /// Distinct groups resident in memory.
    pub fn group_count(&self) -> usize {
        self.map.0.len()
    }

    /// Folds one batch into the sink, spilling new groups once frozen.
    pub fn consume(&mut self, core: &AggregatorCore, batch: &Batch) -> Result<()> {
        if batch.is_empty() {
            return Ok(());
        }
        let (key_cols, agg_cols) = core.eval_inputs(batch)?;
        let metered = self.res.is_limited();
        for i in 0..batch.len() {
            let key = Row::new(key_cols.iter().map(|c| c.value_at(i)).collect());
            match self.map.0.entry(key) {
                std::collections::hash_map::Entry::Occupied(mut e) => {
                    update_states(e.get_mut(), core, &agg_cols, i)?;
                }
                std::collections::hash_map::Entry::Vacant(e) => {
                    let admit = if !metered {
                        true
                    } else if self.frozen {
                        false
                    } else {
                        // Charge the new group's resident footprint: key +
                        // one state per aggregate + map-entry overhead.
                        let bytes = (e.key().approx_size()
                            + core.aggs.len() * std::mem::size_of::<AggState>()
                            + 48) as u64;
                        match self.res.budget.try_reserve(bytes) {
                            Ok(()) => true,
                            Err(err) => {
                                // No spill dir: the typed error is terminal.
                                self.res.spill_dir(err)?;
                                self.res.budget.note_spill();
                                self.frozen = true;
                                false
                            }
                        }
                    };
                    if admit {
                        let states = e.insert(core.make_states());
                        update_states(states, core, &agg_cols, i)?;
                    } else {
                        let key = e.into_key();
                        self.spill_row(key, &agg_cols, i)?;
                    }
                }
            }
        }
        Ok(())
    }

    /// Appends one raw row — group key plus evaluated aggregate inputs
    /// (`NULL` placeholder for `COUNT(*)`) — to its partition file.
    fn spill_row(
        &mut self,
        key: Row,
        agg_cols: &[Option<ColumnVector>],
        i: usize,
    ) -> Result<()> {
        let p = agg_partition_of(&key);
        if self.writers[p].is_none() {
            let dir = self.res.spill.as_ref().ok_or_else(|| {
                DbError::Execution("aggregate spill requested without a spill dir".into())
            })?;
            self.writers[p] = Some(dir.writer(&format!("agg-p{p}"))?);
        }
        let mut vals = key.into_values();
        for col in agg_cols {
            vals.push(match col {
                Some(c) => c.value_at(i),
                None => Value::Null,
            });
        }
        let w = self.writers[p].as_mut().ok_or_else(|| {
            DbError::Execution("aggregate spill writer vanished".into())
        })?;
        w.write_record(&encode_row(&Row::new(vals)))?;
        self.spilled_rows += 1;
        Ok(())
    }

    /// Seals the sink into one complete [`GroupMap`]: replays every
    /// spilled partition (write order = arrival order, so per-group states
    /// come out bit-identical to a never-frozen run) and merges the
    /// replayed groups into the resident map. By the freeze invariant the
    /// merge touches only vacant entries.
    pub fn into_map(mut self, core: &AggregatorCore) -> Result<GroupMap> {
        let kw = core.group_by.len();
        let writers = std::mem::take(&mut self.writers);
        for w in writers.into_iter().flatten() {
            let handle = w.finish()?;
            // The replayed groups become part of the final result; their
            // footprint is force-accounted like every materialized output.
            self.res.budget.reserve_forced(handle.bytes());
            let mut part = GroupMap(FxHashMap::default());
            let mut r = handle.reader()?;
            while let Some(rec) = r.next_record()? {
                let mut vals = decode_row(&rec)?.into_values();
                if vals.len() != kw + core.aggs.len() {
                    return Err(DbError::Corruption(format!(
                        "aggregate spill row has {} values, expected {}",
                        vals.len(),
                        kw + core.aggs.len()
                    )));
                }
                let inputs = vals.split_off(kw);
                let key = Row::new(vals);
                let states = part.0.entry(key).or_insert_with(|| core.make_states());
                for (s, (a, v)) in states.iter_mut().zip(core.aggs.iter().zip(&inputs)) {
                    match a.func {
                        AggFunc::CountStar => s.count_row(),
                        _ => s.update(v)?,
                    }
                }
            }
            debug_assert!(
                part.0.keys().all(|k| !self.map.0.contains_key(k)),
                "spilled group also resident — freeze invariant broken"
            );
            core.merge(&mut self.map, part)?;
        }
        Ok(self.map)
    }
}

/// Applies row `i`'s aggregate inputs to a group's states.
fn update_states(
    states: &mut [AggState],
    core: &AggregatorCore,
    agg_cols: &[Option<ColumnVector>],
    i: usize,
) -> Result<()> {
    for (s, (a, col)) in states.iter_mut().zip(core.aggs.iter().zip(agg_cols)) {
        match (a.func, col) {
            (AggFunc::CountStar, _) => s.count_row(),
            (_, Some(c)) => s.update(&c.value_at(i))?,
            (_, None) => {
                return Err(DbError::Plan(
                    "non-COUNT(*) aggregate without input".into(),
                ))
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::BinOp;
    use crate::pipeline::tests::{ctx, rows_of};
    use oltap_common::row;

    fn source() -> (SchemaRef, Vec<Batch>) {
        let schema = Arc::new(Schema::new(vec![
            Field::new("g", DataType::Utf8),
            Field::new("v", DataType::Int64),
            Field::new("f", DataType::Float64),
        ]));
        let rows: Vec<Row> = (0..100)
            .map(|i| {
                if i % 10 == 9 {
                    Row::new(vec![
                        Value::Str(["a", "b"][i % 2].into()),
                        Value::Null,
                        Value::Null,
                    ])
                } else {
                    row![["a", "b"][i % 2], i as i64, i as f64]
                }
            })
            .collect();
        let batches: Vec<Batch> = rows
            .chunks(33)
            .map(|c| Batch::from_rows(&schema, c).unwrap())
            .collect();
        (schema, batches)
    }

    /// Aggregates `input` through a one-worker pipeline's aggregate sink.
    fn aggregate(
        input: (SchemaRef, Vec<Batch>),
        group_by: Vec<(Expr, String)>,
        aggs: Vec<AggExpr>,
    ) -> Result<Vec<Row>> {
        let core = Arc::new(AggregatorCore::new(&input.0, group_by, aggs)?);
        Ok(rows_of(&ctx(1).run_aggregate(input.1, Vec::new(), core)?))
    }

    #[test]
    fn grouped_aggregates() {
        let rows = aggregate(
            source(),
            vec![(Expr::col(0), "g".into())],
            vec![
                AggExpr::count_star("n"),
                AggExpr::new(AggFunc::Count, Expr::col(1), "nv"),
                AggExpr::new(AggFunc::Sum, Expr::col(1), "sv"),
                AggExpr::new(AggFunc::Min, Expr::col(1), "mn"),
                AggExpr::new(AggFunc::Max, Expr::col(1), "mx"),
                AggExpr::new(AggFunc::Avg, Expr::col(2), "av"),
            ],
        )
        .unwrap();
        assert_eq!(rows.len(), 2);
        // Group "a": even i in 0..100 → 50 rows; i%10==9 never even → all valid.
        let a = &rows[0];
        assert_eq!(a[0], Value::Str("a".into()));
        assert_eq!(a[1], Value::Int(50));
        assert_eq!(a[2], Value::Int(50));
        assert_eq!(a[3], Value::Int((0..100).filter(|i| i % 2 == 0).sum::<i64>()));
        assert_eq!(a[4], Value::Int(0));
        assert_eq!(a[5], Value::Int(98));
        // Group "b": odd i; i%10==9 is odd → 10 NULLs out of 50.
        let b = &rows[1];
        assert_eq!(b[1], Value::Int(50));
        assert_eq!(b[2], Value::Int(40));
        let expected_sum: i64 = (0..100).filter(|i| i % 2 == 1 && i % 10 != 9).sum();
        assert_eq!(b[3], Value::Int(expected_sum));
    }

    #[test]
    fn global_aggregate_no_groups() {
        let rows = aggregate(
            source(),
            vec![],
            vec![
                AggExpr::count_star("n"),
                AggExpr::new(AggFunc::Sum, Expr::col(1), "s"),
            ],
        )
        .unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][0], Value::Int(100));
    }

    #[test]
    fn global_aggregate_empty_input() {
        let schema = Arc::new(Schema::new(vec![Field::new("v", DataType::Int64)]));
        let rows = aggregate(
            (schema, Vec::new()),
            vec![],
            vec![
                AggExpr::count_star("n"),
                AggExpr::new(AggFunc::Sum, Expr::col(0), "s"),
                AggExpr::new(AggFunc::Min, Expr::col(0), "m"),
                AggExpr::new(AggFunc::Avg, Expr::col(0), "a"),
            ],
        )
        .unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][0], Value::Int(0));
        assert_eq!(rows[0][1], Value::Null);
        assert_eq!(rows[0][2], Value::Null);
        assert_eq!(rows[0][3], Value::Null);
    }

    #[test]
    fn grouped_empty_input_yields_no_rows() {
        let schema = Arc::new(Schema::new(vec![Field::new("v", DataType::Int64)]));
        let rows = aggregate(
            (schema, Vec::new()),
            vec![(Expr::col(0), "v".into())],
            vec![AggExpr::count_star("n")],
        )
        .unwrap();
        assert!(rows.is_empty());
    }

    #[test]
    fn group_by_expression() {
        let rows = aggregate(
            source(),
            vec![(
                Expr::binary(BinOp::Mod, Expr::col(1), Expr::lit(3i64)),
                "m3".into(),
            )],
            vec![AggExpr::count_star("n")],
        )
        .unwrap();
        // Groups: NULL (from null v), 0, 1, 2.
        assert_eq!(rows.len(), 4);
        assert_eq!(rows[0][0], Value::Null); // NULL sorts first
    }

    #[test]
    fn avg_matches_sum_over_count() {
        let rows = aggregate(
            source(),
            vec![],
            vec![
                AggExpr::new(AggFunc::Sum, Expr::col(2), "s"),
                AggExpr::new(AggFunc::Count, Expr::col(2), "c"),
                AggExpr::new(AggFunc::Avg, Expr::col(2), "a"),
            ],
        )
        .unwrap();
        let s = rows[0][0].as_float().unwrap();
        let c = rows[0][1].as_int().unwrap() as f64;
        let a = rows[0][2].as_float().unwrap();
        assert!((s / c - a).abs() < 1e-9);
    }

    #[test]
    fn min_max_strings() {
        let rows = aggregate(
            source(),
            vec![],
            vec![
                AggExpr::new(AggFunc::Min, Expr::col(0), "mn"),
                AggExpr::new(AggFunc::Max, Expr::col(0), "mx"),
            ],
        )
        .unwrap();
        assert_eq!(rows[0][0], Value::Str("a".into()));
        assert_eq!(rows[0][1], Value::Str("b".into()));
    }

    #[test]
    fn partial_maps_merge_to_serial_result() {
        // Consuming batches into three partial maps and merging must be
        // indistinguishable from one map — the per-worker sink contract.
        let (schema, batches) = source();
        let core = AggregatorCore::new(
            &schema,
            vec![(Expr::col(0), "g".into())],
            vec![
                AggExpr::count_star("n"),
                AggExpr::new(AggFunc::Sum, Expr::col(1), "s"),
                AggExpr::new(AggFunc::Min, Expr::col(1), "mn"),
                AggExpr::new(AggFunc::Max, Expr::col(1), "mx"),
                AggExpr::new(AggFunc::Avg, Expr::col(2), "av"),
            ],
        )
        .unwrap();
        let mut whole = core.new_map();
        let mut parts = vec![core.new_map(), core.new_map(), core.new_map()];
        for (i, b) in batches.iter().enumerate() {
            core.consume(&mut whole, b).unwrap();
            core.consume(&mut parts[i % 3], b).unwrap();
        }
        let mut merged = core.new_map();
        for p in parts {
            core.merge(&mut merged, p).unwrap();
        }
        assert_eq!(
            rows_of(&core.finish(whole).unwrap()),
            rows_of(&core.finish(merged).unwrap())
        );
    }

    #[test]
    fn spilled_aggregation_matches_in_memory() {
        use oltap_common::mem::{MemoryGovernor, WorkloadClass};
        use oltap_storage::spill::SpillDir;

        // Many distinct groups so a small budget freezes the map early.
        let schema = Arc::new(Schema::new(vec![
            Field::new("g", DataType::Int64),
            Field::new("v", DataType::Int64),
            Field::new("f", DataType::Float64),
        ]));
        let rows: Vec<Row> = (0..4000)
            .map(|i| row![(i % 500) as i64, i as i64, (i as f64) * 0.25])
            .collect();
        let batches: Vec<Batch> = rows
            .chunks(256)
            .map(|c| Batch::from_rows(&schema, c).unwrap())
            .collect();
        let core = AggregatorCore::new(
            &schema,
            vec![(Expr::col(0), "g".into())],
            vec![
                AggExpr::count_star("n"),
                AggExpr::new(AggFunc::Sum, Expr::col(1), "s"),
                AggExpr::new(AggFunc::Avg, Expr::col(2), "a"),
                AggExpr::new(AggFunc::Min, Expr::col(1), "mn"),
            ],
        )
        .unwrap();
        let run = |res: ExecResources| -> (Vec<Row>, u64) {
            let mut sink = SpillingAggregator::new(res);
            for b in &batches {
                sink.consume(&core, b).unwrap();
            }
            let spilled = sink.spilled_rows();
            let out: Vec<Row> = core
                .finish(sink.into_map(&core).unwrap())
                .unwrap()
                .iter()
                .flat_map(|b| b.to_rows())
                .collect();
            (out, spilled)
        };
        let (plain, zero) = run(ExecResources::unlimited());
        assert_eq!(zero, 0);
        let gov = MemoryGovernor::new(u64::MAX, u64::MAX, u64::MAX);
        let budget = gov.budget(WorkloadClass::Olap, 16 * 1024);
        let dir = Arc::new(SpillDir::create_temp().unwrap());
        let (spilled, n) = run(ExecResources::new(budget.clone(), Some(dir)));
        assert!(n > 0, "tight budget must have spilled rows");
        assert!(budget.spill_count() > 0);
        assert_eq!(plain, spilled, "spilling must not change the result");
        assert_eq!(plain.len(), 500);
    }

    #[test]
    fn aggregate_budget_without_spill_dir_is_terminal() {
        use oltap_common::mem::{MemoryGovernor, WorkloadClass};

        let schema = Arc::new(Schema::new(vec![Field::new("g", DataType::Int64)]));
        let rows: Vec<Row> = (0..2000).map(|i| row![i as i64]).collect();
        let batch = Batch::from_rows(&schema, &rows).unwrap();
        let core = AggregatorCore::new(
            &schema,
            vec![(Expr::col(0), "g".into())],
            vec![AggExpr::count_star("n")],
        )
        .unwrap();
        let gov = MemoryGovernor::new(u64::MAX, u64::MAX, u64::MAX);
        let budget = gov.budget(WorkloadClass::Olap, 4096);
        let mut sink = SpillingAggregator::new(ExecResources::new(budget, None));
        let err = sink.consume(&core, &batch).unwrap_err();
        assert!(
            matches!(err, DbError::ResourceExhausted { .. }),
            "wrong error: {err:?}"
        );
    }

    #[test]
    fn sum_rejects_strings() {
        assert!(aggregate(
            source(),
            vec![],
            vec![AggExpr::new(AggFunc::Sum, Expr::col(0), "s")],
        )
        .is_err());
    }
}
