//! The worker pool with workload classes and admission control.
//!
//! Mixed OLTP + OLAP workloads interfere: a handful of long analytic
//! queries can monopolize every core and collapse transaction throughput.
//! The systems the tutorial surveys manage this with workload classes,
//! priorities, and admission control (Psaroudakis et al. \[32\], HANA's
//! workload classes, DB2's WLM). This pool implements the essential
//! mechanism set:
//!
//! * Two queues: OLTP (latency-critical) and OLAP (throughput), with OLTP
//!   always dispatched first.
//! * An **OLAP admission limit**: at most `olap_limit` analytic tasks run
//!   concurrently, reserving workers for transactional bursts.
//! * Counters for queue waits and completions, which the mixed-workload
//!   experiment (E7) reports.
//! * A task that panics costs only its own answer: the worker catches the
//!   unwind, lives on, and hands the task's OLAP slot back.

use oltap_common::CancellationToken;
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::Instant;

// The workload-class enum is canonical in `oltap-common::mem` (the memory
// governor partitions its pool by the same two classes); the scheduler
// re-exports it so task dispatch and memory accounting share one vocabulary.
pub use oltap_common::mem::WorkloadClass;

type Job = Box<dyn FnOnce() + Send + 'static>;

struct QueuedJob {
    job: Job,
    class: WorkloadClass,
    enqueued: Instant,
    /// Admission token: if tripped before dispatch, the job is shed.
    cancel: Option<CancellationToken>,
    /// Notified instead of `job` when the task is shed.
    on_shed: Option<Job>,
}

#[derive(Default)]
struct Queues {
    oltp: VecDeque<QueuedJob>,
    olap: VecDeque<QueuedJob>,
    running_olap: usize,
}

/// Aggregate pool statistics (nanosecond totals are summed across tasks).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Completed OLTP tasks.
    pub oltp_done: u64,
    /// Completed OLAP tasks.
    pub olap_done: u64,
    /// Total OLTP queue-wait nanoseconds.
    pub oltp_wait_ns: u64,
    /// Total OLAP queue-wait nanoseconds.
    pub olap_wait_ns: u64,
    /// Tasks shed at dispatch because their cancellation token had
    /// tripped while they queued (admission control under overload).
    pub shed: u64,
}

struct PoolInner {
    queues: Mutex<Queues>,
    cv: Condvar,
    stop: AtomicBool,
    olap_limit: AtomicU64,
    oltp_done: AtomicU64,
    olap_done: AtomicU64,
    oltp_wait_ns: AtomicU64,
    olap_wait_ns: AtomicU64,
    shed: AtomicU64,
}

impl PoolInner {
    /// Changes a value the workers read before they wait, then wakes them.
    /// The store happens under the queue lock: a worker holds that lock
    /// from its read until it is waiting, so the wake-up cannot fall
    /// between the two and be lost.
    fn store_then_wake(&self, store: impl FnOnce()) {
        {
            let _queues = self.queues.lock();
            store();
        }
        self.cv.notify_all();
    }
}

/// A fixed-size worker pool with class-aware dispatch.
pub struct WorkerPool {
    inner: Arc<PoolInner>,
    workers: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Starts `workers` threads; at most `olap_limit` OLAP tasks run
    /// concurrently (0 = OLAP fully starved; `workers` = no limit).
    pub fn new(workers: usize, olap_limit: usize) -> Self {
        let inner = Arc::new(PoolInner {
            queues: Mutex::new(Queues::default()),
            cv: Condvar::new(),
            stop: AtomicBool::new(false),
            olap_limit: AtomicU64::new(olap_limit as u64),
            oltp_done: AtomicU64::new(0),
            olap_done: AtomicU64::new(0),
            oltp_wait_ns: AtomicU64::new(0),
            olap_wait_ns: AtomicU64::new(0),
            shed: AtomicU64::new(0),
        });
        let handles = (0..workers.max(1))
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("oltap-worker-{i}"))
                    .spawn(move || worker_loop(inner))
                    .expect("spawn worker")
            })
            .collect();
        WorkerPool {
            inner,
            workers: handles,
        }
    }

    /// Adjusts the OLAP admission limit at runtime (the workload manager's
    /// throttle knob).
    pub fn set_olap_limit(&self, limit: usize) {
        self.inner
            .store_then_wake(|| self.inner.olap_limit.store(limit as u64, Ordering::SeqCst));
    }

    /// The current OLAP admission limit.
    pub fn olap_limit(&self) -> usize {
        self.inner.olap_limit.load(Ordering::SeqCst) as usize
    }

    /// Submits a task; the returned receiver fires when it finishes.
    pub fn submit<F: FnOnce() + Send + 'static>(
        &self,
        class: WorkloadClass,
        job: F,
    ) -> mpsc::Receiver<()> {
        let (tx, rx) = mpsc::channel();
        let wrapped: Job = Box::new(move || {
            job();
            let _ = tx.send(());
        });
        self.enqueue(QueuedJob {
            job: wrapped,
            class,
            enqueued: Instant::now(),
            cancel: None,
            on_shed: None,
        });
        rx
    }

    /// Submits a task guarded by `token`. If the token trips (explicit
    /// cancel or expired deadline) while the task is still queued, the
    /// task is *shed*: it never runs, the receiver yields `false`, and
    /// [`PoolStats::shed`] is incremented. A task that dispatches before
    /// the token trips runs normally and the receiver yields `true`.
    pub fn submit_cancellable<F: FnOnce() + Send + 'static>(
        &self,
        class: WorkloadClass,
        token: CancellationToken,
        job: F,
    ) -> mpsc::Receiver<bool> {
        let (tx, rx) = mpsc::channel();
        let tx_shed = tx.clone();
        let wrapped: Job = Box::new(move || {
            job();
            let _ = tx.send(true);
        });
        let on_shed: Job = Box::new(move || {
            let _ = tx_shed.send(false);
        });
        self.enqueue(QueuedJob {
            job: wrapped,
            class,
            enqueued: Instant::now(),
            cancel: Some(token),
            on_shed: Some(on_shed),
        });
        rx
    }

    fn enqueue(&self, item: QueuedJob) {
        {
            let mut q = self.inner.queues.lock();
            match item.class {
                WorkloadClass::Oltp => q.oltp.push_back(item),
                WorkloadClass::Olap => q.olap.push_back(item),
            }
        }
        self.inner.cv.notify_one();
    }

    /// Submits and waits.
    pub fn run<F: FnOnce() + Send + 'static>(&self, class: WorkloadClass, job: F) {
        let _ = self.submit(class, job).recv();
    }

    /// Length of the two queues (oltp, olap).
    pub fn queue_lengths(&self) -> (usize, usize) {
        let q = self.inner.queues.lock();
        (q.oltp.len(), q.olap.len())
    }

    /// OLAP tasks dispatched and not yet finished: the slots the admission
    /// limit counts.
    pub fn running(&self) -> usize {
        self.inner.queues.lock().running_olap
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            oltp_done: self.inner.oltp_done.load(Ordering::Relaxed),
            olap_done: self.inner.olap_done.load(Ordering::Relaxed),
            oltp_wait_ns: self.inner.oltp_wait_ns.load(Ordering::Relaxed),
            olap_wait_ns: self.inner.olap_wait_ns.load(Ordering::Relaxed),
            shed: self.inner.shed.load(Ordering::Relaxed),
        }
    }

    /// Number of worker threads.
    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.inner.store_then_wake(|| self.inner.stop.store(true, Ordering::SeqCst));
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(inner: Arc<PoolInner>) {
    loop {
        let (item, was_olap) = {
            let mut q = inner.queues.lock();
            loop {
                if inner.stop.load(Ordering::SeqCst) {
                    return;
                }
                // OLTP always first.
                if let Some(item) = q.oltp.pop_front() {
                    break (item, false);
                }
                let limit = inner.olap_limit.load(Ordering::SeqCst) as usize;
                if q.running_olap < limit {
                    if let Some(item) = q.olap.pop_front() {
                        q.running_olap += 1;
                        break (item, true);
                    }
                }
                inner.cv.wait(&mut q);
            }
        };
        // Admission check at dispatch: a task whose token tripped while it
        // queued is shed instead of run — expired deadlines never consume
        // a worker.
        if item.cancel.as_ref().is_some_and(|t| t.is_cancelled()) {
            inner.shed.fetch_add(1, Ordering::Relaxed);
            if let Some(shed) = item.on_shed {
                shed();
            }
            if was_olap {
                let mut q = inner.queues.lock();
                q.running_olap -= 1;
                inner.cv.notify_one();
            }
            continue;
        }
        let wait_ns = item.enqueued.elapsed().as_nanos() as u64;
        match item.class {
            WorkloadClass::Oltp => {
                inner.oltp_wait_ns.fetch_add(wait_ns, Ordering::Relaxed);
            }
            WorkloadClass::Olap => {
                inner.olap_wait_ns.fetch_add(wait_ns, Ordering::Relaxed);
            }
        }
        // A panicking task is its submitter's failure, not the pool's: the
        // unwind stops here, so the thread lives on and the OLAP slot below
        // is handed back. The task's own channel drops unanswered, which is
        // how its submitter learns of it.
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(item.job));
        match item.class {
            WorkloadClass::Oltp => inner.oltp_done.fetch_add(1, Ordering::Relaxed),
            WorkloadClass::Olap => inner.olap_done.fetch_add(1, Ordering::Relaxed),
        };
        if was_olap {
            let mut q = inner.queues.lock();
            q.running_olap -= 1;
            // A slot freed: wake a waiting worker.
            inner.cv.notify_one();
        }
    }
}

/// An adaptive workload manager: watches the OLTP queue and throttles OLAP
/// admission when transactions start queueing (a miniature of the
/// policies in \[32\]).
pub struct WorkloadManager {
    pool: Arc<WorkerPool>,
    max_olap: usize,
    min_olap: usize,
    /// OLTP queue length above which OLAP is throttled down.
    pressure_threshold: usize,
}

impl WorkloadManager {
    /// Creates a manager over `pool` oscillating OLAP admission between
    /// `min_olap` and `max_olap`.
    pub fn new(pool: Arc<WorkerPool>, min_olap: usize, max_olap: usize, pressure_threshold: usize) -> Self {
        WorkloadManager {
            pool,
            max_olap,
            min_olap,
            pressure_threshold,
        }
    }

    /// One control step: inspect queues, adjust the OLAP limit. Call this
    /// periodically (the experiments call it between workload slices).
    pub fn tick(&self) {
        let (oltp_q, _) = self.pool.queue_lengths();
        let cur = self.pool.olap_limit();
        if oltp_q > self.pressure_threshold && cur > self.min_olap {
            self.pool.set_olap_limit(cur - 1);
        } else if oltp_q == 0 && cur < self.max_olap {
            self.pool.set_olap_limit(cur + 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::time::Instant;

    /// A two-phase handshake for deterministic scheduling tests: the task
    /// calls [`Gate::enter`] (signalling it has been dispatched, then
    /// blocking), and the test calls [`Gate::wait_entered`] /
    /// [`Gate::release`] to observe and control it. No sleeps, no races.
    struct Gate {
        started_tx: mpsc::Sender<()>,
        started_rx: mpsc::Receiver<()>,
        release_tx: mpsc::Sender<()>,
        release_rx: Mutex<Option<mpsc::Receiver<()>>>,
    }

    /// The task-side half: signals start, then blocks until released.
    struct GateEntry {
        started: mpsc::Sender<()>,
        release: mpsc::Receiver<()>,
    }

    impl GateEntry {
        fn enter(&self) {
            let _ = self.started.send(());
            let _ = self.release.recv();
        }
    }

    impl Gate {
        fn new() -> Gate {
            let (started_tx, started_rx) = mpsc::channel();
            let (release_tx, release_rx) = mpsc::channel();
            Gate {
                started_tx,
                started_rx,
                release_tx,
                release_rx: Mutex::new(Some(release_rx)),
            }
        }

        /// The handle to move into the pooled task (single use).
        fn entry(&self) -> GateEntry {
            GateEntry {
                started: self.started_tx.clone(),
                release: self.release_rx.lock().take().expect("entry taken twice"),
            }
        }

        /// Blocks until the task has been dispatched and is inside
        /// [`GateEntry::enter`].
        fn wait_entered(&self) {
            self.started_rx.recv().expect("task never started");
        }

        fn release(&self) {
            let _ = self.release_tx.send(());
        }
    }

    #[test]
    fn runs_submitted_tasks() {
        let pool = WorkerPool::new(4, 4);
        let counter = Arc::new(AtomicUsize::new(0));
        let rxs: Vec<_> = (0..100)
            .map(|i| {
                let c = Arc::clone(&counter);
                pool.submit(
                    if i % 2 == 0 {
                        WorkloadClass::Oltp
                    } else {
                        WorkloadClass::Olap
                    },
                    move || {
                        c.fetch_add(1, Ordering::SeqCst);
                    },
                )
            })
            .collect();
        for rx in rxs {
            rx.recv().unwrap();
        }
        assert_eq!(counter.load(Ordering::SeqCst), 100);
        let s = pool.stats();
        assert_eq!(s.oltp_done, 50);
        assert_eq!(s.olap_done, 50);
    }

    #[test]
    fn olap_admission_limit_enforced() {
        let pool = WorkerPool::new(4, 1);
        let concurrent = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        // Each task blocks on its gate after bumping the concurrency
        // counter; the test releases them one at a time, so every task is
        // held at its peak-concurrency moment before the next can start.
        let gates: Vec<_> = (0..8).map(|_| Gate::new()).collect();
        let rxs: Vec<_> = gates
            .iter()
            .map(|g| {
                let c = Arc::clone(&concurrent);
                let p = Arc::clone(&peak);
                let entry = g.entry();
                pool.submit(WorkloadClass::Olap, move || {
                    let now = c.fetch_add(1, Ordering::SeqCst) + 1;
                    p.fetch_max(now, Ordering::SeqCst);
                    entry.enter();
                    c.fetch_sub(1, Ordering::SeqCst);
                })
            })
            .collect();
        // OLAP dispatch is FIFO under limit 1: release in submit order.
        for g in &gates {
            g.wait_entered();
            g.release();
        }
        for rx in rxs {
            rx.recv().unwrap();
        }
        assert_eq!(peak.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn oltp_bypasses_olap_queue() {
        // One worker, one long OLAP task hogging it, then N OLTP tasks and
        // N more OLAP tasks: every OLTP task must complete before any of
        // the queued OLAP tasks.
        let pool = WorkerPool::new(1, 1);
        let order = Arc::new(Mutex::new(Vec::new()));
        let gate = Gate::new();
        let entry = gate.entry();
        let blocker = pool.submit(WorkloadClass::Olap, move || entry.enter());
        gate.wait_entered(); // the worker is now occupied
        let mut rxs = Vec::new();
        for i in 0..3 {
            let o = Arc::clone(&order);
            rxs.push(pool.submit(WorkloadClass::Olap, move || {
                o.lock().push(format!("olap{i}"));
            }));
        }
        for i in 0..3 {
            let o = Arc::clone(&order);
            rxs.push(pool.submit(WorkloadClass::Oltp, move || {
                o.lock().push(format!("oltp{i}"));
            }));
        }
        gate.release();
        blocker.recv().unwrap();
        for rx in rxs {
            rx.recv().unwrap();
        }
        let order = order.lock();
        let first_olap = order.iter().position(|s| s.starts_with("olap")).unwrap();
        let last_oltp = order
            .iter()
            .rposition(|s| s.starts_with("oltp"))
            .unwrap();
        assert!(
            last_oltp < first_olap,
            "OLTP should preempt queued OLAP: {order:?}"
        );
    }

    #[test]
    fn olap_limit_zero_starves_olap_until_raised() {
        let pool = WorkerPool::new(2, 0);
        let done = Arc::new(AtomicUsize::new(0));
        let d = Arc::clone(&done);
        let rx = pool.submit(WorkloadClass::Olap, move || {
            d.fetch_add(1, Ordering::SeqCst);
        });
        // With the limit at 0 no worker may pop the OLAP queue, so the
        // task is provably still queued and unrun — no waiting needed.
        assert_eq!(pool.queue_lengths(), (0, 1));
        assert_eq!(done.load(Ordering::SeqCst), 0);
        assert!(rx.try_recv().is_err());
        pool.set_olap_limit(1);
        rx.recv().unwrap();
        assert_eq!(done.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn workload_manager_throttles_under_pressure() {
        let pool = Arc::new(WorkerPool::new(2, 4));
        let mgr = WorkloadManager::new(Arc::clone(&pool), 1, 4, 2);
        // Pin both workers on gated tasks, then flood the OLTP queue: the
        // queued backlog is exact (nothing can drain it) when tick() runs.
        let gates: Vec<_> = (0..2).map(|_| Gate::new()).collect();
        let blockers: Vec<_> = gates
            .iter()
            .map(|g| {
                let entry = g.entry();
                pool.submit(WorkloadClass::Oltp, move || entry.enter())
            })
            .collect();
        for g in &gates {
            g.wait_entered();
        }
        let rxs: Vec<_> = (0..5)
            .map(|_| pool.submit(WorkloadClass::Oltp, || {}))
            .collect();
        assert_eq!(pool.queue_lengths().0, 5);
        let before = pool.olap_limit();
        mgr.tick();
        let after = pool.olap_limit();
        assert!(after < before, "limit should drop: {before} -> {after}");
        for g in &gates {
            g.release();
        }
        for rx in blockers.into_iter().chain(rxs) {
            rx.recv().unwrap();
        }
        // Every receiver fired, so the OLTP queue is drained: recovery.
        assert_eq!(pool.queue_lengths().0, 0);
        mgr.tick();
        assert!(pool.olap_limit() > after);
    }

    #[test]
    fn expired_tasks_are_shed_not_run() {
        let pool = WorkerPool::new(1, 1);
        // Pin the single worker so the doomed task is still queued when
        // its (already-elapsed) deadline is checked at dispatch.
        let gate = Gate::new();
        let entry = gate.entry();
        let blocker = pool.submit(WorkloadClass::Oltp, move || entry.enter());
        gate.wait_entered();
        let ran = Arc::new(AtomicUsize::new(0));
        let r2 = Arc::clone(&ran);
        let doomed = pool.submit_cancellable(
            WorkloadClass::Olap,
            CancellationToken::with_deadline(Instant::now()),
            move || {
                r2.fetch_add(1, Ordering::SeqCst);
            },
        );
        let r3 = Arc::clone(&ran);
        let healthy = pool.submit_cancellable(
            WorkloadClass::Olap,
            CancellationToken::new(),
            move || {
                r3.fetch_add(1, Ordering::SeqCst);
            },
        );
        gate.release();
        blocker.recv().unwrap();
        assert!(!doomed.recv().unwrap(), "expired task must be shed");
        assert!(healthy.recv().unwrap(), "live task must run");
        assert_eq!(ran.load(Ordering::SeqCst), 1);
        assert_eq!(pool.stats().shed, 1);
    }

    #[test]
    fn explicit_cancel_sheds_queued_task() {
        let pool = WorkerPool::new(1, 1);
        let gate = Gate::new();
        let entry = gate.entry();
        let blocker = pool.submit(WorkloadClass::Oltp, move || entry.enter());
        gate.wait_entered();
        let token = CancellationToken::new();
        let rx = pool.submit_cancellable(WorkloadClass::Oltp, token.clone(), || {
            panic!("shed task must never run");
        });
        token.cancel(); // trips while provably still queued
        gate.release();
        blocker.recv().unwrap();
        assert!(!rx.recv().unwrap());
        assert_eq!(pool.stats().shed, 1);
    }

    /// A task that panics costs its submitter an answer, nothing more: its
    /// channel drops unanswered, and the worker and the OLAP slot live on —
    /// under a limit of one, the next OLAP task still dispatches.
    #[test]
    fn a_panicking_task_keeps_its_worker_and_slot() {
        let pool = WorkerPool::new(1, 1);
        let failed = pool.submit(WorkloadClass::Olap, || panic!("task fails"));
        assert!(failed.recv().is_err(), "a panicked task never answers");
        let ran = pool.submit(WorkloadClass::Olap, || {});
        ran.recv().unwrap();
        // The worker counts a task a moment after it answers.
        let since = Instant::now();
        while pool.running() > 0 && since.elapsed().as_secs() < 5 {
            std::thread::yield_now();
        }
        assert_eq!(pool.running(), 0);
        assert_eq!(pool.stats().olap_done, 2);
    }

    #[test]
    fn drop_joins_workers() {
        let pool = WorkerPool::new(4, 4);
        pool.run(WorkloadClass::Oltp, || {});
        drop(pool); // must not hang
    }
}
