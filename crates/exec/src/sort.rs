//! Blocking sort and top-K sinks, with external-merge spilling.
//!
//! The in-memory path stages `(key, seq, row)` entries and sorts once at
//! the end. Under a [`MemoryBudget`](oltap_common::mem::MemoryBudget) a
//! rejected reservation turns the staged entries into a sorted on-disk
//! *run* ([`SortBuffer`]); the finish is then a streaming k-way merge over
//! all runs plus the in-memory tail ([`merge_spilled_sort`]). Because
//! every entry carries a globally unique arrival sequence and all merges
//! order by `(key, seq)`, any partitioning of the input into sorted
//! streams — per-worker runs, spilled runs, memory tails — merges to
//! exactly a stable sort's output over the arrival order.
//!
//! Every order here is one comparator's, that of `keys`: an offered
//! top-K row's key columns against a retained key where they stand, stored
//! keys against each other, `Value` order under the keys' `desc` flags. A
//! run is one `keys` record an entry: its sequence number, then its key
//! and row values.

use crate::expr::Expr;
use crate::keys;
use crate::resources::ExecResources;
use oltap_common::schema::SchemaRef;
use oltap_common::{Batch, ColumnVector, DbError, Result, Row, Value};
use oltap_storage::spill::SpillHandle;
use std::cmp::Ordering;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};

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

/// One row staged for sorting: `(key values, arrival sequence, full row)`.
/// The sequence number breaks key ties by arrival order, which makes
/// per-worker sort runs merge to exactly the order a stable sort over the
/// whole input would produce.
pub type SortEntry = (Row, u64, Row);

/// The sort keys' `desc` flags: what the comparator needs of them.
fn desc_of(keys: &[SortKey]) -> Vec<bool> {
    keys.iter().map(|k| k.desc).collect()
}

/// `(key, seq)` order: keys in `Value` order under `desc`, ties by arrival.
fn entry_order(desc: &[bool], (a, s): (&Row, u64), (b, t): (&Row, u64)) -> Ordering {
    keys::cmp_keys(a.values(), b.values(), desc).then(s.cmp(&t))
}

/// Sorts entries by the sort keys, breaking ties by arrival sequence.
pub fn sort_entries(entries: &mut [SortEntry], keys: &[SortKey]) {
    let desc = desc_of(keys);
    entries.sort_by(|a, b| entry_order(&desc, (&a.0, a.1), (&b.0, b.1)));
}

/// A budget-bounded staging area for sort entries.
///
/// Entries accumulate in memory while reservations succeed; a rejected
/// reservation sorts the staged entries by `(key, seq)` and writes them
/// out as one on-disk run, freeing their reservation. [`SortBuffer::into_streams`]
/// (via [`merge_spilled_sort`]) later merges every run with the sorted
/// in-memory tail.
pub struct SortBuffer {
    keys: Vec<SortKey>,
    entries: Vec<SortEntry>,
    res: ExecResources,
    /// Budget bytes held for `entries`.
    held: u64,
    runs: Vec<SpillHandle>,
}

impl SortBuffer {
    /// An empty buffer sorting by `keys` under `res`.
    pub fn new(keys: Vec<SortKey>, res: ExecResources) -> Self {
        SortBuffer {
            keys,
            entries: Vec::new(),
            res,
            held: 0,
            runs: Vec::new(),
        }
    }

    /// Number of on-disk runs written so far (tests/stats).
    pub fn run_count(&self) -> usize {
        self.runs.len()
    }

    /// Stages one entry, spilling the staged set as a sorted run when the
    /// budget rejects the reservation.
    pub fn push(&mut self, key: Row, seq: u64, row: Row) -> Result<()> {
        if self.res.is_limited() {
            let bytes = (key.approx_size() + row.approx_size() + 24) as u64;
            if let Err(err) = self.res.budget.try_reserve(bytes) {
                // No spill directory: the typed error is terminal.
                self.res.spill_dir(err)?;
                // Only cut a run once the staged set is worth a file;
                // when a sibling operator's resident result has already
                // pinned the whole budget, every reservation fails and
                // spilling per entry would write thousands of one-row
                // runs.
                if self.held >= self.min_run_bytes() {
                    self.spill_run()?;
                }
                // Below the run floor this entry is part of the
                // working-set minimum; account it unconditionally.
                if self.res.budget.try_reserve(bytes).is_err() {
                    self.res.budget.reserve_forced(bytes);
                }
            }
            self.held += bytes;
        }
        self.entries.push((key, seq, row));
        Ok(())
    }

    /// Smallest staged size worth writing as a run: half the query
    /// budget, clamped to [4 KiB, 1 MiB].
    fn min_run_bytes(&self) -> u64 {
        (self.res.budget.limit() / 2).clamp(4096, 1 << 20)
    }

    /// Sorts the staged entries and writes them out as one run.
    fn spill_run(&mut self) -> Result<()> {
        let dir = self.res.spill.as_ref().ok_or_else(|| {
            DbError::Execution("sort spill requested without a spill dir".into())
        })?;
        self.res.budget.note_spill();
        sort_entries(&mut self.entries, &self.keys);
        let mut w = dir.writer("sort-run")?;
        for (key, seq, row) in &self.entries {
            keys::write_record(&mut w, *seq, 0, &[key.values(), row.values()])?;
        }
        self.runs.push(w.finish()?);
        self.entries.clear();
        self.res.budget.release(self.held);
        self.held = 0;
        Ok(())
    }

    /// Seals the buffer: the on-disk runs plus the sorted in-memory tail,
    /// each a `(key, seq)`-ordered stream for [`merge_spilled_sort`].
    pub fn into_streams(mut self) -> (Vec<SpillHandle>, Vec<SortEntry>) {
        sort_entries(&mut self.entries, &self.keys);
        (self.runs, self.entries)
    }
}

/// Streams every buffer's runs and memory tail through one k-way
/// `(key, seq)` merge into output batches. Globally unique sequence
/// numbers make the result identical to one stable sort no matter how
/// entries were split across buffers and runs.
pub fn merge_spilled_sort(
    buffers: Vec<SortBuffer>,
    keys: &[SortKey],
    schema: &SchemaRef,
    batch_size: usize,
) -> Result<Vec<Batch>> {
    let desc = desc_of(keys);
    let kw = keys.len();
    // The sorted inputs: on-disk runs, whose records hold an entry's key
    // then its row, and memory tails.
    let mut streams: Vec<Box<dyn Iterator<Item = Result<SortEntry>>>> = Vec::new();
    for buf in buffers {
        let res = buf.res.clone();
        let (runs, tail) = buf.into_streams();
        for run in runs {
            // Replayed rows become part of the materialized output.
            res.budget.reserve_forced(run.bytes());
            let mut r = run.reader()?;
            let width = kw + schema.len();
            streams.push(Box::new(std::iter::from_fn(move || {
                let rec = keys::read_record(&mut r, width).transpose()?;
                Some(rec.map(|mut rec| {
                    let row = rec.values.split_off(kw);
                    (Row::new(rec.values), rec.tag, Row::new(row))
                }))
            })));
        }
        if !tail.is_empty() {
            streams.push(Box::new(tail.into_iter().map(Ok)));
        }
    }
    let mut heads = streams.iter_mut().map(|s| s.next().transpose()).collect::<Result<Vec<_>>>()?;
    let mut rows: Vec<Row> = Vec::new();
    loop {
        // Sequence numbers are unique, so the least head is unique too.
        let least = heads
            .iter()
            .enumerate()
            .filter_map(|(i, head)| Some((i, head.as_ref()?)))
            .min_by(|(_, x), (_, y)| entry_order(&desc, (&x.0, x.1), (&y.0, y.1)));
        let Some((b, _)) = least else { break };
        let next = streams[b].next().transpose()?;
        if let Some((_, _, row)) = std::mem::replace(&mut heads[b], next) {
            rows.push(row);
        }
    }
    rows.chunks(batch_size)
        .map(|c| Batch::from_rows(schema, c))
        .collect()
}

/// One retained row of a [`TopKAcc`]: its key values, arrival sequence and
/// the row itself.
struct Retained {
    key: Row,
    seq: u64,
    row: Row,
}

/// Bounded top-K accumulator: keeps the best `k` rows seen so far —
/// O(n log k) instead of a full sort, the classic optimization for
/// `ORDER BY ... LIMIT k` dashboards (the paper's real-time monitoring use
/// cases). The pipeline executor keeps one per worker and merges candidate
/// sets with [`sort_entries`].
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
        TopKAcc {
            heap: Vec::new(),
            k,
            desc: desc_of(keys),
            counts: TopKCounts::default(),
        }
    }

    /// Offers every row of `batch`, whose key columns are `keys`; row `i`
    /// arrives as `(morsel << 32) | i`. A row is retained only while among
    /// the `k` best.
    pub fn offer(&mut self, keys: &[ColumnVector], batch: &Batch, morsel: usize) {
        if self.k == 0 {
            return;
        }
        self.counts.offered += batch.len() as u64;
        for i in 0..batch.len() {
            self.offer_row(keys, batch, i, ((morsel as u64) << 32) | i as u64);
        }
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
            self.sift_up(self.heap.len() - 1);
        } else if self.beats_worst(keys, i, seq) {
            let worst = &mut self.heap[0];
            worst.seq = seq;
            for (to, v) in worst.key.values_mut().iter_mut().zip(values_at(keys, i)) {
                *to = v;
            }
            for (to, v) in worst.row.values_mut().iter_mut().zip(values_at(batch.columns(), i)) {
                *to = v;
            }
            self.sift_down(0);
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

    /// Whether retained row `a` ranks after retained row `b`.
    fn worse(&self, a: usize, b: usize) -> bool {
        let (a, b) = (&self.heap[a], &self.heap[b]);
        entry_order(&self.desc, (&a.key, a.seq), (&b.key, b.seq)).is_gt()
    }

    fn sift_up(&mut self, mut at: usize) {
        while at > 0 {
            let parent = (at - 1) / 2;
            if !self.worse(at, parent) {
                break;
            }
            self.heap.swap(at, parent);
            at = parent;
        }
    }

    fn sift_down(&mut self, mut at: usize) {
        loop {
            let mut worst = at;
            for child in [2 * at + 1, 2 * at + 2] {
                if child < self.heap.len() && self.worse(child, worst) {
                    worst = child;
                }
            }
            if worst == at {
                return;
            }
            self.heap.swap(at, worst);
            at = worst;
        }
    }

    /// Drains the retained candidates (unordered; sort with
    /// [`sort_entries`]) and adds this accumulator's counts to
    /// [`topk_counts`].
    pub fn into_entries(self) -> Vec<SortEntry> {
        let TopKCounts { offered, entered } = self.counts;
        for (total, n) in FINISHED.iter().zip([offered, entered]) {
            total.fetch_add(n, AtomicOrdering::Relaxed);
        }
        self.heap.into_iter().map(|r| (r.key, r.seq, r.row)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::cmp_at;
    use crate::pipeline::tests::{ctx, ctx_with, rows_of};
    use oltap_common::row;
    use oltap_common::{DataType, Field, Schema, Value};
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
        // Deal rows round-robin into 3 workers' buffers (tagging arrival
        // order) and merge: the result must equal the one-worker sort.
        let vals: Vec<i64> = (0..97).map(|i| (i * 31) % 13).collect();
        let keys = vec![SortKey::asc(Expr::col(0))];
        let serial = sort(&vals, keys.clone());
        let (schema, batches) = source(&vals);
        let mut runs: Vec<SortBuffer> = (0..3)
            .map(|_| SortBuffer::new(keys.clone(), ExecResources::unlimited()))
            .collect();
        let mut seq = 0u64;
        for batch in &batches {
            for i in 0..batch.len() {
                let row = batch.row(i);
                let key = Row::new(vec![row[0].clone()]);
                runs[(seq % 3) as usize].push(key, seq, row).unwrap();
                seq += 1;
            }
        }
        let merged = merge_spilled_sort(runs, &keys, &schema, 4096).unwrap();
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
            let res = ExecResources::new(gov.budget(WorkloadClass::Olap, 32 * 1024), Some(Arc::clone(&dir)));
            let mut buf = SortBuffer::new(keys.clone(), res);
            for (m, batch) in batches.iter().enumerate() {
                for i in 0..batch.len() {
                    let row = batch.row(i);
                    buf.push(Row::new(vec![row[0].clone()]), ((m as u64) << 32) | i as u64, row).unwrap();
                }
            }
            assert!(buf.run_count() > 0, "a tight budget spills runs");
            cut_first_records(&dir, keep);
            let err = merge_spilled_sort(vec![buf], &keys, &schema, 4096).unwrap_err();
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
