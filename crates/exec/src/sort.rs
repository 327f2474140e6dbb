//! The sort sink: every `ORDER BY`, full or cut at `LIMIT k`, ends here.
//!
//! Each thread parks the batches it claims beside their key columns
//! ([`SortSink::park`]), their bytes reserved from the statement's budget.
//! The finish ([`SortSink::finish`]) takes the parked rows in arrival order
//! (morsel index, then row) and stably sorts their positions, `(batch,
//! row)`, by key, so ties keep arrival order at every worker count; the
//! output is gathered column by column from the batches through that
//! permutation and charged to the budget as it grows. When the budget
//! refuses a batch, the thread writes what it has parked, in that order and
//! with nothing copied first, as one *run*, a `keys` record a row (arrival
//! tag, key values, row values), and the finish merges the runs and the
//! parked rows through one heap by key, then tag. `ORDER BY … LIMIT k` keeps a
//! bounded heap a thread ([`TopKAcc`]) and builds only the rows that enter
//! it; their union, in arrival order, is one parked batch of the same
//! finish, cut at `k`. Every order is `keys`' comparator: `Value` order
//! under `desc` flags.

use crate::expr::Expr;
use crate::keys::{self, Record};
use crate::resources::ExecResources;
use oltap_common::schema::SchemaRef;
use oltap_common::vector::BATCH_SIZE;
use oltap_common::{Batch, ColumnVector, Result, Row, Value};
use oltap_storage::spill::SpillHandle;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::Arc;

/// One ORDER BY key.
#[derive(Debug, Clone)]
pub struct SortKey {
    /// Key expression.
    pub expr: Expr,
    /// Descending order?
    pub desc: bool,
}

impl SortKey {
    /// Ascending key.
    pub fn asc(expr: Expr) -> Self {
        SortKey { expr, desc: false }
    }

    /// Descending key.
    pub fn desc(expr: Expr) -> Self {
        SortKey { expr, desc: true }
    }
}

/// Restores a binary heap whose root is what `first` ranks first, after
/// its element `at` changed or was pushed last.
fn sift<T>(heap: &mut [T], mut at: usize, first: impl Fn(&T, &T) -> bool) {
    while at > 0 && first(&heap[at], &heap[(at - 1) / 2]) {
        heap.swap(at, (at - 1) / 2);
        at = (at - 1) / 2;
    }
    loop {
        let children = [2 * at + 1, 2 * at + 2].into_iter().filter(|&c| c < heap.len());
        let top = children.fold(at, |top, c| if first(&heap[c], &heap[top]) { c } else { top });
        if top == at {
            return;
        }
        heap.swap(at, top);
        at = top;
    }
}

/// A parked batch: `(tag, batch, key columns)`, its row `i` arriving as `tag + i`.
type Parked = (u64, Batch, Vec<ColumnVector>);

/// One thread's share of a sort: the batches it parked and the runs it
/// spilled. [`SortSink::finish`] sorts every share of a sort as one.
pub struct SortSink {
    exprs: Vec<Expr>,
    desc: Vec<bool>,
    schema: SchemaRef,
    res: ExecResources,
    parked: Vec<Parked>,
    /// Budget bytes held for `parked`.
    held: u64,
    runs: Vec<SpillHandle>,
}

impl SortSink {
    /// An empty sink sorting rows of `schema` by `keys` under `res`.
    pub fn new(keys: &[SortKey], schema: SchemaRef, res: ExecResources) -> Self {
        let (exprs, desc) = keys.iter().map(|k| (k.expr.clone(), k.desc)).unzip();
        SortSink { exprs, desc, schema, res, parked: Vec::new(), held: 0, runs: Vec::new() }
    }

    /// Parks `batch` beside its key columns, its row `i` arriving as
    /// `tag + i`. When the budget refuses its bytes, everything parked,
    /// `batch` included, is written out in order as one run.
    pub fn park(&mut self, tag: u64, batch: Batch) -> Result<()> {
        let keys = Expr::eval_all(&self.exprs, &batch)?;
        let bytes = if self.res.is_limited() { size(batch.columns()) + size(&keys) } else { 0 };
        let refused = self.res.budget.try_reserve(bytes).err();
        self.parked.push((tag, batch, keys));
        self.held += bytes;
        let Some(err) = refused else {
            return Ok(());
        };
        // No spill directory: the typed error is terminal.
        let dir = Arc::clone(self.res.spill_dir(err)?);
        // Below half the query budget (within [4 KiB, 1 MiB]) the parked set
        // is the working-set minimum, held regardless: a run a morsel would
        // follow once a sibling's resident result pins the whole budget.
        if self.held < (self.res.budget.limit() / 2).clamp(4096, 1 << 20) {
            self.res.budget.reserve_forced(bytes);
            return Ok(());
        }
        self.res.budget.note_spill();
        let (parked, order) = sorted(std::mem::take(&mut self.parked), &self.desc);
        let mut w = dir.writer("sort-run")?;
        for at in order {
            let r = record(&parked, at);
            keys::write_record(&mut w, r.tag, 0, &[&r.values])?;
        }
        self.runs.push(w.finish()?);
        // Everything parked but `batch`, whose bytes were refused, was held.
        self.res.budget.release(std::mem::take(&mut self.held) - bytes);
        Ok(())
    }

    /// The first `limit` rows of every share of one sort, in order: the
    /// parked rows gathered through their sorted permutation or, once a
    /// share spilled, merged with every run through one heap by key, then
    /// arrival tag. Each output batch is charged to the budget as it is
    /// built, beside the parked ones, and every share's bytes and the
    /// output's are handed back when the finish answers.
    pub fn finish(sinks: Vec<SortSink>, limit: usize) -> Result<Vec<Batch>> {
        let Some(SortSink { desc, schema, res, .. }) = sinks.first() else {
            return Ok(Vec::new());
        };
        let (desc, schema, res) = (desc.clone(), Arc::clone(schema), res.clone());
        let (mut parked, mut runs, mut held) = (Vec::new(), Vec::new(), 0);
        for sink in sinks {
            parked.extend(sink.parked);
            runs.extend(sink.runs);
            held += sink.held;
        }
        let (parked, mut order) = sorted(parked, &desc);
        order.truncate(limit);
        let mut out = Vec::new();
        let mut emit = |batch: Batch| {
            let bytes = if res.is_limited() { size(batch.columns()) } else { 0 };
            res.budget.reserve_forced(bytes);
            held += bytes;
            out.push(batch);
        };
        let built = if runs.is_empty() {
            let parts: Vec<&Batch> = parked.iter().map(|(_, batch, _)| batch).collect();
            order.chunks(BATCH_SIZE).try_for_each(|picks| Batch::gather(&parts, picks).map(&mut emit))
        } else {
            merge(&parked, order, &runs, &desc, &schema, limit, &mut emit)
        };
        res.budget.release(held);
        built.map(|()| out)
    }
}

/// The approximate bytes of `cols`, as the budget charges them.
fn size(cols: &[ColumnVector]) -> u64 {
    cols.iter().map(|c| c.approx_size() as u64).sum()
}

/// `parked` in arrival order, and the positions `(batch, row)` of its rows
/// sorted, stably, by key under `desc`.
fn sorted(mut parked: Vec<Parked>, desc: &[bool]) -> (Vec<Parked>, Vec<(u32, u32)>) {
    parked.sort_unstable_by_key(|&(tag, ..)| tag);
    let mut order: Vec<(u32, u32)> = (parked.iter().enumerate())
        .flat_map(|(p, (_, batch, _))| (0..batch.len() as u32).map(move |r| (p as u32, r)))
        .collect();
    let cols = |p: u32| &parked[p as usize].2;
    order.sort_by(|&(p, i), &(q, j)| keys::cmp_rows(cols(p), i as usize, cols(q), j as usize, desc));
    (parked, order)
}

/// Parked row `(batch, row)` as a `keys` record: its arrival tag, then its
/// key values and row values.
fn record(parked: &[Parked], (p, r): (u32, u32)) -> Record {
    let (tag, batch, keys) = &parked[p as usize];
    let values = keys.iter().chain(batch.columns()).map(|c| c.value_at(r as usize)).collect();
    Record { tag: tag + r as u64, hash: 0, values }
}

/// Hands `emit` the first `limit` rows of the parked rows at `order` and of
/// every run, in batches, merged through one heap by key, then tag.
fn merge(parked: &[Parked], order: Vec<(u32, u32)>, runs: &[SpillHandle], desc: &[bool], schema: &SchemaRef, limit: usize,
         emit: &mut impl FnMut(Batch)) -> Result<()> {
    let (kw, width) = (desc.len(), desc.len() + schema.len());
    let mut streams: Vec<Box<dyn Iterator<Item = Result<Record>> + '_>> =
        vec![Box::new(order.into_iter().map(|at| Ok(record(parked, at))))];
    for run in runs {
        let mut r = run.reader()?;
        streams.push(Box::new(std::iter::from_fn(move || keys::read_record(&mut r, width).transpose())));
    }
    let first = |(_, x): &(usize, Record), (_, y): &(usize, Record)| {
        let ord = keys::cmp_keys(&x.values[..kw], &y.values[..kw], desc);
        ord.then(x.tag.cmp(&y.tag)).is_lt()
    };
    let mut heap = Vec::new();
    for (s, stream) in streams.iter_mut().enumerate() {
        heap.extend(stream.next().transpose()?.map(|head| (s, head)));
        let last = heap.len().saturating_sub(1);
        sift(&mut heap, last, first);
    }
    let (mut cols, mut n) = (Batch::empty(schema).into_columns(), 0);
    while n < limit && !heap.is_empty() {
        let s = heap[0].0;
        let (_, head) = match streams[s].next().transpose()? {
            Some(next) => std::mem::replace(&mut heap[0], (s, next)),
            None => heap.swap_remove(0),
        };
        sift(&mut heap, 0, first);
        for (to, v) in cols.iter_mut().zip(head.values.into_iter().skip(kw)) {
            to.push_owned(v)?;
        }
        n += 1;
        if n % BATCH_SIZE == 0 || n == limit || heap.is_empty() {
            emit(Batch::new(std::mem::replace(&mut cols, Batch::empty(schema).into_columns()))?);
        }
    }
    Ok(())
}

/// One retained row of a [`TopKAcc`]: its key values, arrival sequence and
/// the row itself.
struct Retained {
    key: Row,
    seq: u64,
    row: Row,
}

/// Whether retained row `a` ranks after retained row `b`: keys in `Value`
/// order under `desc`, ties by arrival.
fn worse(desc: &[bool], a: &Retained, b: &Retained) -> bool {
    keys::cmp_keys(a.key.values(), b.key.values(), desc).then(a.seq.cmp(&b.seq)).is_gt()
}

/// Bounded top-K accumulator: keeps the best `k` rows seen so far —
/// O(n log k) instead of a full sort, the classic optimization for
/// `ORDER BY ... LIMIT k` dashboards (the paper's real-time monitoring use
/// cases). The pipeline executor keeps one per worker and orders the
/// candidates of all of them with [`SortSink::finish`].
///
/// An offered row is compared where it stands, in its batch's key columns,
/// against the worst row retained; only a row that enters the heap is built
/// into a key [`Row`] and a [`Row`]. Key ties order by arrival sequence, so
/// a later duplicate ranks worse and the retained set is a stable sort's
/// prefix.
pub struct TopKAcc {
    /// A max-heap in `(key, seq)` order: the worst retained row first.
    heap: Vec<Retained>,
    k: usize,
    exprs: Vec<Expr>,
    desc: Vec<bool>,
    counts: TopKCounts,
}

/// What top-K accumulators did with the rows offered them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TopKCounts {
    /// Rows offered.
    pub offered: u64,
    /// Rows that entered a heap, each built into a key [`Row`] and a
    /// [`Row`] as it did (some later pushed out again).
    pub entered: u64,
}

/// Every finished accumulator's [`TopKCounts`], summed over the process.
static FINISHED: [AtomicU64; 2] = [AtomicU64::new(0), AtomicU64::new(0)];

/// The [`TopKCounts`] of every top-K accumulator finished in this process so
/// far: a statement's are the difference across it (other statements' add
/// in when they run at the same time).
pub fn topk_counts() -> TopKCounts {
    let [offered, entered] = FINISHED.each_ref().map(|c| c.load(AtomicOrdering::Relaxed));
    TopKCounts { offered, entered }
}

impl TopKAcc {
    /// An accumulator retaining the `k` best rows under `keys`; the heap
    /// grows with the rows it keeps, never to `k` up front.
    pub fn new(keys: &[SortKey], k: usize) -> Self {
        let (exprs, desc) = keys.iter().map(|k| (k.expr.clone(), k.desc)).unzip();
        TopKAcc { heap: Vec::new(), k, exprs, desc, counts: TopKCounts::default() }
    }

    /// Offers every row of `batch`, its key columns evaluated once; row `i`
    /// arrives as `(morsel << 32) | i`. A row is retained only while among
    /// the `k` best.
    pub fn offer(&mut self, batch: &Batch, morsel: usize) -> Result<()> {
        if self.k == 0 {
            return Ok(());
        }
        let keys = Expr::eval_all(&self.exprs, batch)?;
        self.counts.offered += batch.len() as u64;
        for i in 0..batch.len() {
            self.offer_row(&keys, batch, i, ((morsel as u64) << 32) | i as u64);
        }
        Ok(())
    }

    /// Offers row `i` of `batch`, arriving as `seq`: built into a new entry
    /// while the heap is short of `k`, then written over the worst entry's
    /// values when it beats it.
    fn offer_row(&mut self, keys: &[ColumnVector], batch: &Batch, i: usize, seq: u64) {
        fn values_at(cols: &[ColumnVector], i: usize) -> impl Iterator<Item = Value> + '_ {
            cols.iter().map(move |c| c.value_at(i))
        }
        if self.heap.len() < self.k {
            self.heap.push(Retained {
                key: Row::new(values_at(keys, i).collect()),
                seq,
                row: Row::new(values_at(batch.columns(), i).collect()),
            });
            let last = self.heap.len() - 1;
            sift(&mut self.heap, last, |a, b| worse(&self.desc, a, b));
        } else if self.beats_worst(keys, i, seq) {
            let worst = &mut self.heap[0];
            worst.seq = seq;
            for (to, v) in worst.key.values_mut().iter_mut().zip(values_at(keys, i)) {
                *to = v;
            }
            for (to, v) in worst.row.values_mut().iter_mut().zip(values_at(batch.columns(), i)) {
                *to = v;
            }
            sift(&mut self.heap, 0, |a, b| worse(&self.desc, a, b));
        } else {
            return;
        }
        self.counts.entered += 1;
    }

    /// Whether offered row `i` (key columns `keys`, sequence `seq`) ranks
    /// before the worst retained one, its key compared where it stands.
    fn beats_worst(&self, keys: &[ColumnVector], i: usize, seq: u64) -> bool {
        let worst = &self.heap[0];
        let ord = keys::cmp_row(keys, i, worst.key.values(), &self.desc);
        ord.then(seq.cmp(&worst.seq)).is_lt()
    }

    /// The first `k` rows of every accumulator in order, through
    /// [`SortSink::finish`]: their retained rows, in arrival order, are one
    /// parked batch of rows of `schema`. Adds the accumulators' counts to
    /// [`topk_counts`].
    pub fn finish(accs: Vec<TopKAcc>, keys: &[SortKey], schema: SchemaRef, k: usize) -> Result<Vec<Batch>> {
        let mut retained = Vec::new();
        for acc in accs {
            for (total, n) in FINISHED.iter().zip([acc.counts.offered, acc.counts.entered]) {
                total.fetch_add(n, AtomicOrdering::Relaxed);
            }
            retained.extend(acc.heap);
        }
        retained.sort_unstable_by_key(|r| r.seq);
        let batch = Batch::from_rows(&schema, &retained.into_iter().map(|r| r.row).collect::<Vec<_>>())?;
        let mut sink = SortSink::new(keys, schema, ExecResources::unlimited());
        sink.park(0, batch)?;
        SortSink::finish(vec![sink], k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::cmp_at;
    use crate::pipeline::tests::{ctx, ctx_with, rows_of};
    use oltap_common::row;
    use oltap_common::{DataType, DbError, Field, Schema, Value};
    use std::sync::Arc;

    fn source(values: &[i64]) -> (SchemaRef, Vec<Batch>) {
        let schema = Arc::new(Schema::new(vec![
            Field::new("v", DataType::Int64),
            Field::new("tag", DataType::Utf8),
        ]));
        let rows: Vec<Row> = values
            .iter()
            .map(|&v| row![v, if v % 2 == 0 { "even" } else { "odd" }])
            .collect();
        let batches: Vec<Batch> = rows
            .chunks(7)
            .map(|c| Batch::from_rows(&schema, c).unwrap())
            .collect();
        (schema, batches)
    }

    /// Sorts `values` through a one-worker pipeline's sort sink under `res`.
    fn sort_with(values: &[i64], keys: Vec<SortKey>, res: ExecResources) -> Result<Vec<Batch>> {
        let (schema, batches) = source(values);
        ctx_with(1, res).run_sort(batches, Vec::new(), keys, schema)
    }

    fn sort(values: &[i64], keys: Vec<SortKey>) -> Vec<Batch> {
        sort_with(values, keys, ExecResources::unlimited()).unwrap()
    }

    /// Top-`k` of `values` through a one-worker pipeline's top-K sink.
    fn topk(values: &[i64], keys: Vec<SortKey>, k: usize) -> Vec<Batch> {
        let (schema, batches) = source(values);
        ctx(1)
            .run_topk(batches, Vec::new(), keys, k, schema)
            .unwrap()
    }

    fn first_col(batches: &[Batch]) -> Vec<i64> {
        rows_of(batches)
            .iter()
            .map(|r| r[0].as_int().unwrap())
            .collect()
    }

    #[test]
    fn sort_ascending_descending() {
        let vals = [5i64, 3, 9, 1, 7, 3, 8, 2];
        let got = first_col(&sort(&vals, vec![SortKey::asc(Expr::col(0))]));
        assert_eq!(got, vec![1, 2, 3, 3, 5, 7, 8, 9]);

        let got = first_col(&sort(&vals, vec![SortKey::desc(Expr::col(0))]));
        assert_eq!(got, vec![9, 8, 7, 5, 3, 3, 2, 1]);
    }

    #[test]
    fn multi_key_sort() {
        let vals = [5i64, 4, 3, 2, 1, 0];
        // tag asc (even < odd lexicographically), then v desc.
        let got = first_col(&sort(
            &vals,
            vec![SortKey::asc(Expr::col(1)), SortKey::desc(Expr::col(0))],
        ));
        assert_eq!(got, vec![4, 2, 0, 5, 3, 1]);
    }

    #[test]
    fn nulls_sort_first_ascending() {
        let schema = Arc::new(Schema::new(vec![Field::new("v", DataType::Int64)]));
        let rows = vec![row![2i64], Row::new(vec![Value::Null]), row![1i64]];
        let batch = Batch::from_rows(&schema, &rows).unwrap();
        let sorted = ctx(1)
            .run_sort(
                vec![batch],
                Vec::new(),
                vec![SortKey::asc(Expr::col(0))],
                schema,
            )
            .unwrap();
        let rows = rows_of(&sorted);
        assert_eq!(rows[0][0], Value::Null);
        assert_eq!(rows[1][0], Value::Int(1));
    }

    #[test]
    fn topk_matches_sort_prefix() {
        let vals: Vec<i64> = (0..200).map(|i| (i * 37) % 101).collect();
        let sorted = first_col(&sort(&vals, vec![SortKey::asc(Expr::col(0))]));
        for k in [1usize, 5, 50, 200, 500] {
            let got = first_col(&topk(&vals, vec![SortKey::asc(Expr::col(0))], k));
            assert_eq!(got, sorted[..k.min(sorted.len())].to_vec(), "k={k}");
        }
    }

    /// An offered row's key compares where it stands exactly as its value
    /// would: NULLs, integers against floats, float zeros, NaN and the
    /// infinities, strings against other types.
    #[test]
    fn in_place_comparison_is_value_order() {
        let values = [
            Value::Null,
            Value::Bool(true),
            Value::Int(-3),
            Value::Int(0),
            Value::Timestamp(7),
            Value::Float(-0.0),
            Value::Float(0.0),
            Value::Float(2.5),
            Value::Float(f64::NAN),
            Value::Float(f64::NEG_INFINITY),
            Value::Str(String::new()),
            Value::Str("a".into()),
            Value::Str("b".into()),
        ];
        for data_type in [DataType::Int64, DataType::Float64, DataType::Utf8, DataType::Bool] {
            let mut col = ColumnVector::new(data_type);
            for v in values.iter().filter(|v| v.is_null() || v.check_type(data_type).is_ok()) {
                col.push(v).unwrap();
            }
            for i in 0..col.len() {
                for v in &values {
                    assert_eq!(cmp_at(&col, i, v), col.value_at(i).cmp(v), "{data_type} row {i} vs {v:?}");
                }
            }
        }
    }

    #[test]
    fn topk_descending() {
        let vals: Vec<i64> = (0..100).collect();
        let got = first_col(&topk(&vals, vec![SortKey::desc(Expr::col(0))], 3));
        assert_eq!(got, vec![99, 98, 97]);
    }

    #[test]
    fn topk_zero_and_empty() {
        assert!(topk(&[1, 2, 3], vec![SortKey::asc(Expr::col(0))], 0).is_empty());
        assert!(topk(&[], vec![SortKey::asc(Expr::col(0))], 5).is_empty());
    }

    #[test]
    fn merged_runs_match_serial_sort() {
        // Deal rows round-robin into 3 workers' sinks (tagging arrival
        // order) and merge: the result must equal the one-worker sort.
        let vals: Vec<i64> = (0..97).map(|i| (i * 31) % 13).collect();
        let keys = vec![SortKey::asc(Expr::col(0))];
        let serial = sort(&vals, keys.clone());
        let (schema, batches) = source(&vals);
        let mut runs: Vec<SortSink> = (0..3)
            .map(|_| SortSink::new(&keys, Arc::clone(&schema), ExecResources::unlimited()))
            .collect();
        let mut seq = 0u64;
        for batch in &batches {
            for i in 0..batch.len() {
                runs[(seq % 3) as usize].park(seq, batch.take(&[i as u32])).unwrap();
                seq += 1;
            }
        }
        let merged = SortSink::finish(runs, usize::MAX).unwrap();
        assert_eq!(rows_of(&serial), rows_of(&merged));
    }

    #[test]
    fn topk_ties_keep_arrival_order() {
        // All-equal keys: top-3 must be the first three rows by arrival,
        // across batch boundaries — the stable sort's prefix.
        let schema = Arc::new(Schema::new(vec![
            Field::new("k", DataType::Int64),
            Field::new("id", DataType::Int64),
        ]));
        let rows: Vec<Row> = (0..10i64).map(|i| row![7i64, i]).collect();
        let batches: Vec<Batch> = rows
            .chunks(2)
            .map(|c| Batch::from_rows(&schema, c).unwrap())
            .collect();
        let got = ctx(1)
            .run_topk(
                batches,
                Vec::new(),
                vec![SortKey::asc(Expr::col(0))],
                3,
                schema,
            )
            .unwrap();
        let ids: Vec<i64> = rows_of(&got)
            .iter()
            .map(|r| r[1].as_int().unwrap())
            .collect();
        assert_eq!(ids, vec![0, 1, 2]);
    }

    #[test]
    fn spilled_sort_matches_in_memory() {
        use oltap_common::mem::{MemoryGovernor, WorkloadClass};
        use oltap_storage::spill::SpillDir;

        let vals: Vec<i64> = (0..3000).map(|i| (i * 131) % 257).collect();
        let keys = vec![SortKey::asc(Expr::col(0))];
        let serial = sort(&vals, keys.clone());
        let gov = MemoryGovernor::new(u64::MAX, u64::MAX, u64::MAX);
        let budget = gov.budget(WorkloadClass::Olap, 32 * 1024);
        let dir = Arc::new(SpillDir::create_temp().unwrap());
        let spilled =
            sort_with(&vals, keys, ExecResources::new(budget.clone(), Some(dir))).unwrap();
        assert!(budget.spill_count() > 0, "tight budget must have spilled runs");
        assert_eq!(
            rows_of(&serial),
            rows_of(&spilled),
            "spilling must not change the order"
        );
    }

    #[test]
    fn sort_budget_without_spill_dir_is_terminal() {
        use oltap_common::mem::{MemoryGovernor, WorkloadClass};

        let vals: Vec<i64> = (0..2000).collect();
        let gov = MemoryGovernor::new(u64::MAX, u64::MAX, u64::MAX);
        let budget = gov.budget(WorkloadClass::Olap, 1024);
        let err = sort_with(
            &vals,
            vec![SortKey::asc(Expr::col(0))],
            ExecResources::new(budget, None),
        )
        .unwrap_err();
        assert!(
            matches!(err, DbError::ResourceExhausted { .. }),
            "wrong error: {err:?}"
        );
    }

    /// Every byte a sort reserves is handed back when it answers: after a
    /// spilled full sort, an unspilled one and a top-K, at one worker and
    /// at four, the statement's budget holds nothing and the governor's
    /// OLAP bytes are where they started.
    #[test]
    fn a_sort_hands_its_reservations_back() {
        use oltap_common::mem::{MemoryGovernor, WorkloadClass};
        use oltap_storage::spill::SpillDir;

        let (schema, batches) = source(&(0..3000).map(|i| (i * 131) % 257).collect::<Vec<_>>());
        let keys = vec![SortKey::desc(Expr::col(0))];
        let gov = MemoryGovernor::new(u64::MAX, u64::MAX, u64::MAX);
        let baseline = gov.used(WorkloadClass::Olap);
        let dir = Arc::new(SpillDir::create_temp().unwrap());
        for (limit, spills) in [(32 * 1024, true), (1 << 30, false)] {
            for workers in [1, 4] {
                let tag = format!("limit {limit}, {workers} workers");
                let budget = gov.budget(WorkloadClass::Olap, limit);
                let c = ctx_with(workers, ExecResources::new(budget.clone(), Some(Arc::clone(&dir))));
                let sorted = c.run_sort(batches.clone(), Vec::new(), keys.clone(), Arc::clone(&schema)).unwrap();
                assert_eq!(rows_of(&sorted).len(), 3000, "{tag}");
                assert_eq!(budget.spill_count() > 0, spills, "{tag}");
                // The output is charged as it is built, beside the parked
                // batches and their 8-byte keys unless those went to runs.
                let bytes = |batches: &[Batch]| batches.iter().map(|b| size(b.columns())).sum::<u64>();
                let floor = bytes(&sorted) + if spills { 0 } else { bytes(&batches) + 3000 * 8 };
                assert!(budget.peak() >= floor, "{tag}: peak {} under {floor}", budget.peak());
                assert_eq!((budget.used(), gov.used(WorkloadClass::Olap)), (0, baseline), "{tag}: sort");
                c.run_topk(batches.clone(), Vec::new(), keys.clone(), 10, Arc::clone(&schema)).unwrap();
                assert_eq!((budget.used(), gov.used(WorkloadClass::Olap)), (0, baseline), "{tag}: top-K");
            }
        }
    }

    /// A short or truncated record in a spilled run is the merge's
    /// `Corruption`, not a panic.
    #[test]
    fn a_damaged_run_is_corruption() {
        use crate::keys::tests::cut_first_records;
        use oltap_common::mem::{MemoryGovernor, WorkloadClass};
        use oltap_storage::spill::SpillDir;

        let keys = vec![SortKey::asc(Expr::col(0))];
        let (schema, batches) = source(&(0..3000).map(|i| (i * 131) % 257).collect::<Vec<_>>());
        for keep in [Some(10), None] {
            let gov = MemoryGovernor::new(u64::MAX, u64::MAX, u64::MAX);
            let dir = Arc::new(SpillDir::create_temp().unwrap());
            let budget = gov.budget(WorkloadClass::Olap, 32 * 1024);
            let res = ExecResources::new(budget.clone(), Some(Arc::clone(&dir)));
            let mut sink = SortSink::new(&keys, Arc::clone(&schema), res);
            for (m, batch) in batches.iter().enumerate() {
                sink.park((m as u64) << 32, batch.clone()).unwrap();
            }
            assert!(budget.spill_count() > 0, "a tight budget spills runs");
            cut_first_records(&dir, keep);
            let err = SortSink::finish(vec![sink], usize::MAX).unwrap_err();
            assert!(matches!(err, DbError::Corruption(_)), "{keep:?}: {err}");
        }
    }

    #[test]
    fn sort_by_computed_key() {
        use crate::expr::BinOp;
        let vals = [10i64, 25, 17, 2];
        // Sort by v % 10.
        let got = first_col(&sort(
            &vals,
            vec![SortKey::asc(Expr::binary(
                BinOp::Mod,
                Expr::col(0),
                Expr::lit(10i64),
            ))],
        ));
        assert_eq!(got, vec![10, 2, 25, 17]);
    }
}
