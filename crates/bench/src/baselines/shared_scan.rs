//! Shared scans: one circulating scan cursor serving many concurrent
//! queries.
//!
//! The tutorial (§4) traces this idea from QPipe's circular scans \[12\]
//! through Crescando's *clock scan* \[39\] to SharedDB \[9, 10\]: instead of
//! every query paying a full pass over the data, a single cursor sweeps
//! the table continuously; queries **attach** at the current position,
//! observe one full revolution, and detach with their answer. Aggregate
//! scan cost becomes (almost) independent of the number of concurrent
//! queries — the "predictable performance for unpredictable workloads"
//! result.
//!
//! Two implementations:
//!
//! * [`run_shared_batch`] — the deterministic batched form: evaluate N
//!   queries in one pass (multi-query optimization). Used by tests and by
//!   the benchmark's "shared" arm.
//! * [`ClockScan`] — the live service: a sweeper thread circulates over a
//!   table snapshot; queries attach at any time from any thread and are
//!   answered after one revolution. Used by the workload-manager
//!   experiments.

use oltap_common::ids::TxnId;
use oltap_common::{Batch, Result};
use oltap_exec::Source;
use oltap_storage::{DeltaMainTable, ScanPredicate};
use oltap_txn::Ts;
use parking_lot::{Condvar, Mutex};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;

/// The query shape served by shared scans: a filtered aggregate
/// `SELECT count(*), sum(col) FROM t WHERE <pred>` — the dashboard shape
/// that dominates the operational-monitoring workloads in the paper's §1.
#[derive(Debug, Clone)]
pub struct ScanQuery {
    /// Storage predicate (zone-map/pushdown capable).
    pub predicate: ScanPredicate,
    /// Column (ordinal) to aggregate; must be Int64.
    pub agg_column: usize,
}

/// Result of a [`ScanQuery`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ScanQueryResult {
    /// Matching row count.
    pub count: u64,
    /// Sum of the aggregate column over matching rows.
    pub sum: i64,
}

const NOBODY: TxnId = TxnId(u64::MAX - 3);

fn accumulate(batch: &Batch, q: &ScanQuery, acc: &mut ScanQueryResult) -> Result<()> {
    // The batch carries the full table projection; evaluate the
    // conjunction vectorized (typed column kernels), then fold the
    // selection. This is the multi-query-evaluation inner loop — it runs
    // once per (attached query × batch), so it must not fall back to
    // per-cell `Value` materialization.
    let n = batch.len();
    let mut sel = oltap_common::BitSet::all_set(n);
    for c in &q.predicate.conjuncts {
        if c.value.is_null() {
            return Ok(()); // NULL literal matches nothing
        }
        let col = batch.column(c.column);
        let mut matches = oltap_common::BitSet::with_len(n);
        match col {
            oltap_common::ColumnVector::Int64 { values, .. } => {
                let lit = c.value.as_int()?;
                for (i, v) in values.iter().enumerate() {
                    if c.op.matches(v.cmp(&lit)) {
                        matches.set(i);
                    }
                }
            }
            oltap_common::ColumnVector::Float64 { values, .. } => {
                let lit = c.value.as_float()?;
                for (i, v) in values.iter().enumerate() {
                    if c.op.matches(v.total_cmp(&lit)) {
                        matches.set(i);
                    }
                }
            }
            oltap_common::ColumnVector::Utf8 { values, .. } => {
                let lit = c.value.as_str()?;
                for (i, v) in values.iter().enumerate() {
                    if c.op.matches(v.as_str().cmp(lit)) {
                        matches.set(i);
                    }
                }
            }
            oltap_common::ColumnVector::Bool { values, .. } => {
                let lit = c.value.as_bool()?;
                for i in 0..n {
                    if c.op.matches(values.get(i).cmp(&lit)) {
                        matches.set(i);
                    }
                }
            }
        }
        if let Some(validity) = col.validity() {
            matches.intersect_with(validity);
        }
        sel.intersect_with(&matches);
        if sel.none_set() {
            return Ok(());
        }
    }
    let agg = batch.column(q.agg_column);
    match agg {
        oltap_common::ColumnVector::Int64 { values, validity } => {
            for i in sel.iter_ones() {
                acc.count += 1;
                if validity.as_ref().is_none_or(|v| v.get(i)) {
                    acc.sum = acc.sum.wrapping_add(values[i]);
                }
            }
        }
        _ => {
            for i in sel.iter_ones() {
                acc.count += 1;
                if agg.is_valid(i) {
                    if let oltap_common::Value::Int(x) = agg.value_at(i) {
                        acc.sum = acc.sum.wrapping_add(x);
                    }
                }
            }
        }
    }
    Ok(())
}

/// Materializes the scan snapshot the shared pass will sweep (all columns,
/// no pushdown — each attached query filters differently).
pub fn snapshot_batches(
    table: &Arc<DeltaMainTable>,
    read_ts: Ts,
    batch_size: usize,
) -> Result<Vec<Batch>> {
    let all: Vec<usize> = (0..table.schema().len()).collect();
    scan(table, &all, &ScanPredicate::all(), read_ts, batch_size)
}

/// The table's morsel source drained on the caller's thread, as a column
/// table's `TableHandle::scan` drains it.
fn scan(
    table: &DeltaMainTable,
    projection: &[usize],
    pred: &ScanPredicate,
    read_ts: Ts,
    batch_size: usize,
) -> Result<Vec<Batch>> {
    let (segments, tail) = table.fused_scan_parts(projection, pred, read_ts, NOBODY, batch_size)?;
    Source::scan(segments, tail, pred, projection, (read_ts, NOBODY)).drain()
}

/// One pass, N queries: the batched shared scan.
pub fn run_shared_batch(
    table: &Arc<DeltaMainTable>,
    read_ts: Ts,
    queries: &[ScanQuery],
) -> Result<Vec<ScanQueryResult>> {
    let batches = snapshot_batches(table, read_ts, 4096)?;
    let mut results = vec![ScanQueryResult::default(); queries.len()];
    for batch in &batches {
        for (q, acc) in queries.iter().zip(results.iter_mut()) {
            accumulate(batch, q, acc)?;
        }
    }
    Ok(results)
}

/// N passes, N queries: the independent-scan baseline (with pushdown, to
/// keep the comparison honest — each query gets the storage layer's best
/// single-query plan).
pub fn run_independent(
    table: &Arc<DeltaMainTable>,
    read_ts: Ts,
    queries: &[ScanQuery],
) -> Result<Vec<ScanQueryResult>> {
    let mut results = Vec::with_capacity(queries.len());
    for q in queries {
        let batches = scan(table, &[q.agg_column], &q.predicate, read_ts, 4096)?;
        let mut acc = ScanQueryResult::default();
        for b in &batches {
            acc.count += b.len() as u64;
            let col = b.column(0);
            for i in 0..b.len() {
                if col.is_valid(i) {
                    if let oltap_common::Value::Int(x) = col.value_at(i) {
                        acc.sum = acc.sum.wrapping_add(x);
                    }
                }
            }
        }
        results.push(acc);
    }
    Ok(results)
}

struct ActiveQuery {
    query: ScanQuery,
    remaining: usize,
    acc: ScanQueryResult,
    tx: mpsc::Sender<ScanQueryResult>,
}

struct ClockState {
    /// Current table snapshot being swept (shared, never mutated).
    batches: Vec<Arc<Batch>>,
    /// Sweep position within `batches`.
    cursor: usize,
    active: Vec<ActiveQuery>,
    /// Queries waiting for admission (attached between sweep steps).
    pending: Vec<ActiveQuery>,
}

struct ClockInner {
    table: Arc<DeltaMainTable>,
    state: Mutex<ClockState>,
    cv: Condvar,
    stop: AtomicBool,
    read_ts: Mutex<Ts>,
    /// Rows the sweeper has passed its attached queries, all revolutions.
    swept: AtomicU64,
}

/// The live clock-scan service.
pub struct ClockScan {
    inner: Arc<ClockInner>,
    sweeper: Option<JoinHandle<()>>,
}

impl ClockScan {
    /// Starts the sweeper over `table`, reading at snapshot `read_ts`
    /// (refreshable via [`ClockScan::set_read_ts`]).
    pub fn start(table: Arc<DeltaMainTable>, read_ts: Ts) -> Self {
        let inner = Arc::new(ClockInner {
            table,
            state: Mutex::new(ClockState {
                batches: Vec::new(),
                cursor: 0,
                active: Vec::new(),
                pending: Vec::new(),
            }),
            cv: Condvar::new(),
            stop: AtomicBool::new(false),
            read_ts: Mutex::new(read_ts),
            swept: AtomicU64::new(0),
        });
        let sweeper_inner = Arc::clone(&inner);
        let sweeper = std::thread::Builder::new()
            .name("clock-scan".into())
            .spawn(move || sweep_loop(sweeper_inner))
            .expect("spawn clock-scan sweeper");
        ClockScan {
            inner,
            sweeper: Some(sweeper),
        }
    }

    /// Updates the snapshot used for *future* revolutions (freshness
    /// control; in-flight queries keep their current snapshot).
    pub fn set_read_ts(&self, ts: Ts) {
        *self.inner.read_ts.lock() = ts;
    }

    /// Attaches a query; the returned receiver yields the result after at
    /// most one full revolution.
    pub fn submit(&self, query: ScanQuery) -> mpsc::Receiver<ScanQueryResult> {
        self.submit_all([query]).pop().expect("one query, one receiver")
    }

    /// Attaches queries together: the sweeper admits them at one cursor,
    /// so one revolution answers them all. A receiver a query, in order.
    pub fn submit_all(
        &self,
        queries: impl IntoIterator<Item = ScanQuery>,
    ) -> Vec<mpsc::Receiver<ScanQueryResult>> {
        let mut state = self.inner.state.lock();
        let receivers = (queries.into_iter())
            .map(|query| {
                let (tx, rx) = mpsc::channel();
                state.pending.push(ActiveQuery {
                    query,
                    remaining: 0,
                    acc: ScanQueryResult::default(),
                    tx,
                });
                rx
            })
            .collect();
        drop(state);
        self.inner.cv.notify_all();
        receivers
    }

    /// Rows swept so far: one batch's rows each time the cursor passes it
    /// to the attached queries, however many are attached.
    pub fn rows_swept(&self) -> u64 {
        self.inner.swept.load(Ordering::Relaxed)
    }

    /// Convenience: submit and wait.
    pub fn query(&self, query: ScanQuery) -> ScanQueryResult {
        self.submit(query)
            .recv()
            .expect("clock scan sweeper dropped")
    }
}

impl Drop for ClockScan {
    fn drop(&mut self) {
        self.inner.stop.store(true, Ordering::SeqCst);
        self.inner.cv.notify_all();
        if let Some(h) = self.sweeper.take() {
            let _ = h.join();
        }
    }
}

fn sweep_loop(inner: Arc<ClockInner>) {
    loop {
        if inner.stop.load(Ordering::SeqCst) {
            return;
        }
        // Admit pending queries and pick up work under the lock; do the
        // actual batch processing outside it.
        let work: Option<(Arc<Batch>, usize)> = {
            let mut state = inner.state.lock();
            // Idle: wait for queries.
            while state.active.is_empty() && state.pending.is_empty() {
                if inner.stop.load(Ordering::SeqCst) {
                    return;
                }
                inner.cv.wait(&mut state);
            }
            if inner.stop.load(Ordering::SeqCst) {
                return;
            }
            // Refresh the snapshot when nothing is mid-flight.
            if state.active.is_empty() {
                let ts = *inner.read_ts.lock();
                state.batches = snapshot_batches(&inner.table, ts, 4096)
                    .unwrap_or_default()
                    .into_iter()
                    .map(Arc::new)
                    .collect();
                state.cursor = 0;
            }
            // Admit pending queries at the current cursor: they need one
            // full revolution from here.
            let total = state.batches.len();
            let pending = std::mem::take(&mut state.pending);
            for mut p in pending {
                p.remaining = total;
                if total == 0 {
                    // Empty table: answer immediately.
                    let _ = p.tx.send(p.acc);
                } else {
                    state.active.push(p);
                }
            }
            if state.batches.is_empty() {
                None
            } else {
                let cursor = state.cursor;
                let batch = Arc::clone(&state.batches[cursor]);
                state.cursor = (cursor + 1) % state.batches.len();
                Some((batch, cursor))
            }
        };

        if let Some((batch, _pos)) = work {
            inner.swept.fetch_add(batch.len() as u64, Ordering::Relaxed);
            let mut state = inner.state.lock();
            let mut finished = Vec::new();
            for (idx, q) in state.active.iter_mut().enumerate() {
                if q.remaining == 0 {
                    continue;
                }
                let _ = accumulate(&batch, &q.query, &mut q.acc);
                q.remaining -= 1;
                if q.remaining == 0 {
                    finished.push(idx);
                }
            }
            for idx in finished.into_iter().rev() {
                let q = state.active.remove(idx);
                let _ = q.tx.send(q.acc);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oltap_common::row;
    use oltap_common::{DataType, Field, Row, Schema, Value};
    use oltap_storage::CmpOp;
    use oltap_txn::TransactionManager;

    fn table(n: usize) -> (Arc<TransactionManager>, Arc<DeltaMainTable>) {
        let schema = Arc::new(
            Schema::with_primary_key(
                vec![
                    Field::not_null("id", DataType::Int64),
                    Field::new("bucket", DataType::Int64),
                    Field::new("v", DataType::Int64),
                ],
                &["id"],
            )
            .unwrap(),
        );
        let t = DeltaMainTable::new(schema);
        let rows: Vec<Row> = (0..n)
            .map(|i| row![i as i64, (i % 10) as i64, 1i64])
            .collect();
        t.bulk_load(&rows).unwrap();
        (Arc::new(TransactionManager::new()), Arc::new(t))
    }

    fn bucket_query(b: i64) -> ScanQuery {
        ScanQuery {
            predicate: ScanPredicate::single(1, CmpOp::Eq, Value::Int(b)),
            agg_column: 2,
        }
    }

    #[test]
    fn shared_batch_matches_independent() {
        let (mgr, t) = table(5000);
        let queries: Vec<ScanQuery> = (0..10).map(bucket_query).collect();
        let shared = run_shared_batch(&t, mgr.now(), &queries).unwrap();
        let indep = run_independent(&t, mgr.now(), &queries).unwrap();
        assert_eq!(shared, indep);
        for r in &shared {
            assert_eq!(r.count, 500);
            assert_eq!(r.sum, 500);
        }
    }

    #[test]
    fn clock_scan_answers_queries() {
        let (mgr, t) = table(2000);
        let clock = ClockScan::start(Arc::clone(&t), mgr.now());
        let r = clock.query(bucket_query(3));
        assert_eq!(r.count, 200);
        assert_eq!(r.sum, 200);
    }

    #[test]
    fn clock_scan_concurrent_queries() {
        let (mgr, t) = table(3000);
        let clock = Arc::new(ClockScan::start(Arc::clone(&t), mgr.now()));
        let handles: Vec<_> = (0..10)
            .map(|b| {
                let clock = Arc::clone(&clock);
                std::thread::spawn(move || clock.query(bucket_query(b % 10)))
            })
            .collect();
        for (b, h) in handles.into_iter().enumerate() {
            let r = h.join().unwrap();
            assert_eq!(r.count, 300, "bucket {b}");
        }
    }

    #[test]
    fn queries_submitted_together_share_one_revolution() {
        let (mgr, t) = table(50_000);
        let clock = ClockScan::start(Arc::clone(&t), mgr.now());
        let answers = clock.submit_all((0..10).map(bucket_query));
        for rx in answers {
            assert_eq!(rx.recv().unwrap().count, 5_000);
        }
        assert_eq!(clock.rows_swept(), 50_000);
    }

    #[test]
    fn clock_scan_empty_table() {
        let schema = Arc::new(
            Schema::with_primary_key(
                vec![
                    Field::not_null("id", DataType::Int64),
                    Field::new("b", DataType::Int64),
                    Field::new("v", DataType::Int64),
                ],
                &["id"],
            )
            .unwrap(),
        );
        let t = Arc::new(DeltaMainTable::new(schema));
        let clock = ClockScan::start(Arc::clone(&t), 0);
        let r = clock.query(bucket_query(1));
        assert_eq!(r.count, 0);
    }

    #[test]
    fn clock_scan_sees_refreshed_snapshot() {
        let (mgr, t) = table(100);
        let clock = ClockScan::start(Arc::clone(&t), mgr.now());
        let r1 = clock.query(ScanQuery {
            predicate: ScanPredicate::all(),
            agg_column: 2,
        });
        assert_eq!(r1.count, 100);

        // Ingest more rows, advance the snapshot.
        let tx = mgr.begin();
        for i in 100..150 {
            t.insert(&tx, row![i as i64, (i % 10) as i64, 1i64]).unwrap();
        }
        tx.commit().unwrap();
        clock.set_read_ts(mgr.now());
        // The sweeper refreshes between revolutions; poll until visible.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        loop {
            let r = clock.query(ScanQuery {
                predicate: ScanPredicate::all(),
                agg_column: 2,
            });
            if r.count == 150 {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "snapshot never refreshed (count {})",
                r.count
            );
        }
    }

    #[test]
    fn drop_stops_sweeper() {
        let (mgr, t) = table(100);
        let clock = ClockScan::start(Arc::clone(&t), mgr.now());
        let _ = clock.query(bucket_query(0));
        drop(clock); // must not hang
    }
}
