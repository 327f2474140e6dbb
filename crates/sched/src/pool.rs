//! The helper pool: the threads a statement's claim loop borrows.
//!
//! A statement's morsels are claimed by its own thread and by helpers it
//! submits here (`oltap_exec`'s `fan_out`); whether it may borrow helpers
//! at all is the engine's helper gate, whether it runs at all the
//! [`AdmissionController`](crate::AdmissionController). The pool only runs
//! what it is given, first in first out, and a worker whose task panics
//! lives on. [`WorkerPool::completed`] and [`WorkerPool::is_idle`] let
//! tests see what helpers ran.

use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::sync::Arc;
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;

#[derive(Default)]
struct Queue {
    jobs: VecDeque<Job>,
    /// Tasks taken from `jobs` and not yet finished.
    running: usize,
    /// Tasks finished, counted under the same lock as `running`.
    completed: u64,
    stop: bool,
}

struct Inner {
    queue: Mutex<Queue>,
    cv: Condvar,
}

/// A fixed set of worker threads draining one FIFO queue.
pub struct WorkerPool {
    inner: Arc<Inner>,
    workers: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Starts `workers` threads (at least one).
    pub fn new(workers: usize) -> Self {
        let inner = Arc::new(Inner {
            queue: Mutex::new(Queue::default()),
            cv: Condvar::new(),
        });
        let handles = (0..workers.max(1))
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("oltap-worker-{i}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawn worker")
            })
            .collect();
        WorkerPool {
            inner,
            workers: handles,
        }
    }

    /// Queues `job`, fire and forget: a submitter that needs to know when
    /// it ran says so from inside it.
    pub fn submit(&self, job: impl FnOnce() + Send + 'static) {
        self.inner.queue.lock().jobs.push_back(Box::new(job));
        self.inner.cv.notify_one();
    }

    /// Tasks finished so far, a panicked one included. A task has done its
    /// work a moment before the pool counts it: read this once
    /// [`is_idle`](WorkerPool::is_idle).
    pub fn completed(&self) -> u64 {
        self.inner.queue.lock().completed
    }

    /// True when no task is queued or running.
    pub fn is_idle(&self) -> bool {
        let q = self.inner.queue.lock();
        q.jobs.is_empty() && q.running == 0
    }

    /// Number of worker threads.
    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Set under the queue lock: a worker holds it from its look at
        // `stop` until it waits, so the wake-up cannot be lost between.
        self.inner.queue.lock().stop = true;
        self.inner.cv.notify_all();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(inner: &Inner) {
    let mut q = inner.queue.lock();
    loop {
        if q.stop {
            return;
        }
        let Some(job) = q.jobs.pop_front() else {
            inner.cv.wait(&mut q);
            continue;
        };
        q.running += 1;
        drop(q);
        // A panicking task is its submitter's failure, not the pool's: the
        // unwind stops here and the thread lives on.
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
        q = inner.queue.lock();
        q.running -= 1;
        q.completed += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;
    use std::time::Instant;

    /// `pool`'s completed count once it is idle.
    fn settled(pool: &WorkerPool) -> u64 {
        let since = Instant::now();
        while !pool.is_idle() {
            assert!(since.elapsed().as_secs() < 5, "the pool never settled");
            std::thread::yield_now();
        }
        pool.completed()
    }

    #[test]
    fn runs_submitted_tasks() {
        let pool = WorkerPool::new(4);
        let counter = Arc::new(AtomicUsize::new(0));
        let (tx, rx) = mpsc::channel();
        for _ in 0..100 {
            let (c, tx) = (Arc::clone(&counter), tx.clone());
            pool.submit(move || {
                c.fetch_add(1, Ordering::SeqCst);
                let _ = tx.send(());
            });
        }
        for _ in 0..100 {
            rx.recv().unwrap();
        }
        assert_eq!(counter.load(Ordering::SeqCst), 100);
        assert_eq!(settled(&pool), 100);
    }

    /// One worker runs its queue in the order it was submitted.
    #[test]
    fn one_worker_runs_tasks_first_in_first_out() {
        let pool = WorkerPool::new(1);
        let order = Arc::new(Mutex::new(Vec::new()));
        for i in 0..10 {
            let o = Arc::clone(&order);
            pool.submit(move || o.lock().push(i));
        }
        assert_eq!(settled(&pool), 10);
        assert_eq!(*order.lock(), (0..10).collect::<Vec<_>>());
    }

    /// A task that panics costs its submitter its work, nothing more: the
    /// single worker lives on and runs the next task, both count, and the
    /// running slot the panicked task held is handed back (the pool idles).
    #[test]
    fn a_panicking_task_keeps_its_worker_and_slot() {
        let pool = WorkerPool::new(1);
        pool.submit(|| panic!("task fails"));
        let (tx, rx) = mpsc::channel();
        pool.submit(move || tx.send(()).unwrap());
        rx.recv().unwrap();
        assert_eq!(settled(&pool), 2);
    }

    #[test]
    fn drop_joins_workers() {
        let pool = WorkerPool::new(4);
        let (tx, rx) = mpsc::channel();
        pool.submit(move || tx.send(()).unwrap());
        rx.recv().unwrap();
        drop(pool); // must not hang
    }
}
