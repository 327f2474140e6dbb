//! Query-level admission control for mixed OLTP + OLAP workloads.
//!
//! A large analytic query, once running, takes every core its morsels can
//! reach, and transactional latency collapses. The systems the tutorial
//! surveys therefore gate at *query* granularity (HANA workload classes,
//! DB2 WLM, Psaroudakis et al.): an analytic query must be **admitted**
//! before it may execute at all.
//!
//! The [`AdmissionController`] implements that gate:
//!
//! * **OLTP is always admitted immediately** — transactions never queue
//!   behind analytics.
//! * **OLAP concurrency is capped.** The cap has two levels: a generous
//!   [`AdmissionConfig::max_olap`] when the system is quiet, and a
//!   throttled [`AdmissionConfig::throttled_olap`] that engages while the
//!   number of in-flight OLTP queries is at or above
//!   [`AdmissionConfig::pressure_threshold`] — Psaroudakis-style OLAP
//!   throttling under OLTP pressure.
//! * **Queue-with-timeout, not hard rejection.** An OLAP query that finds
//!   no free slot waits on a condition variable; it only fails — with a
//!   typed [`DbError::ResourceExhausted`] — if no slot frees within
//!   [`AdmissionConfig::queue_timeout`].
//! * **Expired work is shed while it queues.** A query admitted under its
//!   statement's token ([`AdmissionController::admit_under`]) leaves the
//!   queue as soon as the token trips: [`DbError::Cancelled`] for a cancel
//!   (drain, peer loss), [`DbError::DeadlineExceeded`] for a deadline.
//!
//! Admission is RAII: [`AdmissionController::admit`] returns an
//! [`AdmissionTicket`] whose `Drop` releases the slot and wakes waiters,
//! so an early return (error, cancellation, panic unwind) can never leak
//! a slot.

use oltap_common::mem::WorkloadClass;
use oltap_common::{CancellationToken, DbError, Result};
use parking_lot::{Condvar, Mutex};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long a queued OLAP query waits before it looks at its token again.
const CANCEL_POLL: Duration = Duration::from_millis(10);

/// Admission policy knobs.
#[derive(Debug, Clone)]
pub struct AdmissionConfig {
    /// Concurrent OLAP queries admitted when OLTP pressure is low.
    pub max_olap: usize,
    /// Concurrent OLAP queries admitted while the throttle is engaged.
    pub throttled_olap: usize,
    /// In-flight OLTP query count at or above which the throttle engages.
    pub pressure_threshold: usize,
    /// How long an OLAP query may wait for a slot before admission fails.
    pub queue_timeout: Duration,
}

impl Default for AdmissionConfig {
    fn default() -> AdmissionConfig {
        AdmissionConfig {
            max_olap: 4,
            throttled_olap: 1,
            pressure_threshold: 2,
            queue_timeout: Duration::from_secs(5),
        }
    }
}

#[derive(Debug, Default)]
struct Gate {
    running_oltp: usize,
    running_olap: usize,
    waiting_olap: usize,
}

/// Counters the overload experiment (E15) reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdmissionStats {
    /// OLTP queries admitted (always immediate).
    pub oltp_admitted: u64,
    /// OLAP queries admitted, whether immediately or after queueing.
    pub olap_admitted: u64,
    /// OLAP admissions that had to queue before getting a slot.
    pub olap_queued: u64,
    /// OLAP admissions that timed out waiting for a slot.
    pub olap_timeouts: u64,
    /// OLAP admissions decided — admitted, timed out or shed — while the
    /// OLTP-pressure throttle was engaged; once each, however often the
    /// query woke while it queued.
    pub throttled_decisions: u64,
}

/// The query-granularity admission gate (see module docs).
#[derive(Debug)]
pub struct AdmissionController {
    cfg: AdmissionConfig,
    gate: Mutex<Gate>,
    cv: Condvar,
    oltp_admitted: AtomicU64,
    olap_admitted: AtomicU64,
    olap_queued: AtomicU64,
    olap_timeouts: AtomicU64,
    throttled_decisions: AtomicU64,
}

impl AdmissionController {
    /// A controller enforcing `cfg`.
    pub fn new(cfg: AdmissionConfig) -> Arc<AdmissionController> {
        Arc::new(AdmissionController {
            cfg,
            gate: Mutex::new(Gate::default()),
            cv: Condvar::new(),
            oltp_admitted: AtomicU64::new(0),
            olap_admitted: AtomicU64::new(0),
            olap_queued: AtomicU64::new(0),
            olap_timeouts: AtomicU64::new(0),
            throttled_decisions: AtomicU64::new(0),
        })
    }

    /// True while OLTP pressure holds the OLAP cap at its throttled level.
    fn throttled(&self, gate: &Gate) -> bool {
        gate.running_oltp >= self.cfg.pressure_threshold
    }

    /// The effective OLAP cap for the current OLTP pressure.
    fn olap_cap(&self, gate: &Gate) -> usize {
        if self.throttled(gate) {
            self.cfg.throttled_olap
        } else {
            self.cfg.max_olap
        }
    }

    /// Admits one query of `class` under a token that never trips: see
    /// [`admit_under`](AdmissionController::admit_under).
    pub fn admit(self: &Arc<Self>, class: WorkloadClass) -> Result<AdmissionTicket> {
        self.admit_under(class, &CancellationToken::none())
    }

    /// Admits one query of `class`, blocking when the OLAP cap is reached
    /// until a slot frees, the configured queue timeout passes
    /// ([`DbError::ResourceExhausted`]) or `cancel` trips (its own error).
    /// OLTP never blocks.
    pub fn admit_under(
        self: &Arc<Self>,
        class: WorkloadClass,
        cancel: &CancellationToken,
    ) -> Result<AdmissionTicket> {
        if class == WorkloadClass::Olap {
            self.wait_for_olap_slot(cancel)?;
        } else {
            self.gate.lock().running_oltp += 1;
            self.oltp_admitted.fetch_add(1, Ordering::Relaxed);
        }
        Ok(AdmissionTicket {
            ctrl: Arc::clone(self),
            class,
        })
    }

    /// Takes an OLAP slot, queueing for one while the cap is reached.
    fn wait_for_olap_slot(&self, cancel: &CancellationToken) -> Result<()> {
        let deadline = Instant::now() + self.cfg.queue_timeout;
        let mut gate = self.gate.lock();
        let mut queued = false;
        let decision = loop {
            if gate.running_olap < self.olap_cap(&gate) {
                break Ok(());
            }
            if !queued {
                queued = true;
                self.olap_queued.fetch_add(1, Ordering::Relaxed);
            }
            if let Err(shed) = cancel.check() {
                break Err(shed);
            }
            let now = Instant::now();
            if now >= deadline {
                self.olap_timeouts.fetch_add(1, Ordering::Relaxed);
                break Err(DbError::ResourceExhausted {
                    class: "olap-admission".to_string(),
                    requested: 1,
                    available: 0,
                });
            }
            // A release wakes every waiter; a token trips without one, so
            // look at it again every `CANCEL_POLL`.
            gate.waiting_olap += 1;
            let _ = self.cv.wait_for(&mut gate, (deadline - now).min(CANCEL_POLL));
            gate.waiting_olap -= 1;
        };
        if self.throttled(&gate) {
            self.throttled_decisions.fetch_add(1, Ordering::Relaxed);
        }
        decision?;
        gate.running_olap += 1;
        self.olap_admitted.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// In-flight query counts (oltp, olap).
    pub fn running(&self) -> (usize, usize) {
        let g = self.gate.lock();
        (g.running_oltp, g.running_olap)
    }

    /// OLAP queries currently queued for a slot (edge-shedding signal).
    pub fn queue_depth(&self) -> usize {
        self.gate.lock().waiting_olap
    }

    /// How long a rejected client should wait before retrying, derived
    /// from the current queue depth: an empty queue suggests a quick
    /// retry, a deep one spreads retries across multiple queue-timeout
    /// windows so the shed load does not reconverge as a thundering
    /// herd. The network front end attaches this to every typed
    /// rejection it sends.
    pub fn retry_after_hint(&self) -> Duration {
        let depth = self.queue_depth() as u32;
        let base = Duration::from_millis(25);
        (base + self.cfg.queue_timeout.saturating_mul(depth) / 4)
            .min(Duration::from_secs(5))
    }

    /// Aggregate counters.
    pub fn stats(&self) -> AdmissionStats {
        AdmissionStats {
            oltp_admitted: self.oltp_admitted.load(Ordering::Relaxed),
            olap_admitted: self.olap_admitted.load(Ordering::Relaxed),
            olap_queued: self.olap_queued.load(Ordering::Relaxed),
            olap_timeouts: self.olap_timeouts.load(Ordering::Relaxed),
            throttled_decisions: self.throttled_decisions.load(Ordering::Relaxed),
        }
    }

    fn release(&self, class: WorkloadClass) {
        let mut gate = self.gate.lock();
        match class {
            WorkloadClass::Oltp => gate.running_oltp = gate.running_oltp.saturating_sub(1),
            WorkloadClass::Olap => gate.running_olap = gate.running_olap.saturating_sub(1),
        }
        // An OLAP slot freed, or OLTP pressure dropped (which may raise
        // the effective cap): wake every waiter and let them re-check.
        drop(gate);
        self.cv.notify_all();
    }
}

/// RAII admission slot; dropping it releases the slot and wakes waiters.
#[derive(Debug)]
pub struct AdmissionTicket {
    ctrl: Arc<AdmissionController>,
    class: WorkloadClass,
}

impl Drop for AdmissionTicket {
    fn drop(&mut self) {
        self.ctrl.release(self.class);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg() -> AdmissionConfig {
        AdmissionConfig {
            max_olap: 2,
            throttled_olap: 1,
            pressure_threshold: 1,
            queue_timeout: Duration::from_millis(50),
        }
    }

    #[test]
    fn oltp_always_admitted() {
        let ctrl = AdmissionController::new(quick_cfg());
        let tickets: Vec<_> = (0..16)
            .map(|_| ctrl.admit(WorkloadClass::Oltp).unwrap())
            .collect();
        assert_eq!(ctrl.running(), (16, 0));
        drop(tickets);
        assert_eq!(ctrl.running(), (0, 0));
        assert_eq!(ctrl.stats().oltp_admitted, 16);
    }

    #[test]
    fn olap_over_cap_times_out_with_typed_error() {
        let ctrl = AdmissionController::new(quick_cfg());
        let _a = ctrl.admit(WorkloadClass::Olap).unwrap();
        let _b = ctrl.admit(WorkloadClass::Olap).unwrap();
        let err = ctrl.admit(WorkloadClass::Olap).unwrap_err();
        assert!(
            matches!(err, DbError::ResourceExhausted { ref class, .. } if class == "olap-admission"),
            "{err:?}"
        );
        assert_eq!(ctrl.stats().olap_timeouts, 1);
    }

    #[test]
    fn releasing_a_slot_admits_a_queued_query() {
        let ctrl = AdmissionController::new(AdmissionConfig {
            queue_timeout: Duration::from_secs(5),
            ..quick_cfg()
        });
        let a = ctrl.admit(WorkloadClass::Olap).unwrap();
        let _b = ctrl.admit(WorkloadClass::Olap).unwrap();
        let ctrl2 = Arc::clone(&ctrl);
        let waiter = std::thread::spawn(move || ctrl2.admit(WorkloadClass::Olap).map(|_| ()));
        // Let the waiter reach the queue, then free a slot.
        while ctrl.gate.lock().waiting_olap == 0 {
            std::thread::yield_now();
        }
        drop(a);
        waiter.join().unwrap().unwrap();
        assert_eq!(ctrl.stats().olap_queued, 1);
        assert_eq!(ctrl.stats().olap_timeouts, 0);
    }

    #[test]
    fn retry_after_hint_grows_with_queue_depth() {
        let ctrl = AdmissionController::new(AdmissionConfig {
            queue_timeout: Duration::from_secs(5),
            ..quick_cfg()
        });
        let empty = ctrl.retry_after_hint();
        let _a = ctrl.admit(WorkloadClass::Olap).unwrap();
        let _b = ctrl.admit(WorkloadClass::Olap).unwrap();
        let ctrl2 = Arc::clone(&ctrl);
        let waiter = std::thread::spawn(move || ctrl2.admit(WorkloadClass::Olap).map(|_| ()));
        while ctrl.queue_depth() == 0 {
            std::thread::yield_now();
        }
        let queued = ctrl.retry_after_hint();
        assert!(queued > empty, "{queued:?} vs {empty:?}");
        assert!(queued <= Duration::from_secs(5), "hint is capped");
        drop(_a);
        waiter.join().unwrap().unwrap();
    }

    #[test]
    fn oltp_pressure_throttles_olap_cap() {
        let ctrl = AdmissionController::new(quick_cfg());
        // Quiet system: two OLAP slots.
        let a = ctrl.admit(WorkloadClass::Olap).unwrap();
        drop(ctrl.admit(WorkloadClass::Olap).unwrap());
        // Engage pressure (threshold = 1 in-flight OLTP query): the cap
        // drops to 1, already filled by `a`.
        let _t = ctrl.admit(WorkloadClass::Oltp).unwrap();
        let err = ctrl.admit(WorkloadClass::Olap).unwrap_err();
        assert!(matches!(err, DbError::ResourceExhausted { .. }), "{err:?}");
        assert!(ctrl.stats().throttled_decisions > 0);
        drop(a);
        // Pressure gone after OLTP finishes + slot free: admitted again.
        drop(_t);
        ctrl.admit(WorkloadClass::Olap).unwrap();
    }

    /// Runs `admit_under(Olap, token)` on a thread while both of a
    /// `quick_cfg` controller's slots are held; returns once it queues.
    fn queued_admission(
        ctrl: &Arc<AdmissionController>,
        token: CancellationToken,
    ) -> std::thread::JoinHandle<(Result<()>, Duration)> {
        let ctrl2 = Arc::clone(ctrl);
        let waiter = std::thread::spawn(move || {
            let since = Instant::now();
            let got = ctrl2.admit_under(WorkloadClass::Olap, &token).map(drop);
            (got, since.elapsed())
        });
        while ctrl.queue_depth() == 0 {
            std::thread::yield_now();
        }
        waiter
    }

    /// A queued query whose token trips leaves the queue at once with that
    /// token's error — `Cancelled` for a cancel, `DeadlineExceeded` for a
    /// deadline — long before the queue timeout, and counts no timeout.
    #[test]
    fn a_queued_query_leaves_when_its_token_trips() {
        let ctrl = AdmissionController::new(AdmissionConfig {
            queue_timeout: Duration::from_secs(5),
            ..quick_cfg()
        });
        let _a = ctrl.admit(WorkloadClass::Olap).unwrap();
        let _b = ctrl.admit(WorkloadClass::Olap).unwrap();
        let cancelled = CancellationToken::new();
        let waiter = queued_admission(&ctrl, cancelled.clone());
        cancelled.cancel();
        let (got, waited) = waiter.join().unwrap();
        assert!(matches!(got, Err(DbError::Cancelled(_))), "{got:?}");
        assert!(waited < Duration::from_secs(1), "{waited:?}");

        let waiter = queued_admission(&ctrl, CancellationToken::with_timeout(Duration::from_millis(50)));
        let (got, waited) = waiter.join().unwrap();
        assert!(matches!(got, Err(DbError::DeadlineExceeded(_))), "{got:?}");
        assert!(waited < Duration::from_secs(1), "{waited:?}");

        assert_eq!(ctrl.queue_depth(), 0);
        assert_eq!(ctrl.running(), (0, 2));
        assert_eq!((ctrl.stats().olap_queued, ctrl.stats().olap_timeouts), (2, 0));
    }

    /// A query that queues under the throttle and wakes many times — every
    /// release wakes it, and it looks at its token between — is one
    /// throttled decision, as is the immediate admission before it.
    #[test]
    fn a_queued_query_is_one_throttled_decision() {
        let ctrl = AdmissionController::new(AdmissionConfig {
            queue_timeout: Duration::from_secs(5),
            ..quick_cfg()
        });
        // Pressure threshold 1: one transaction in flight throttles to 1.
        let _t = ctrl.admit(WorkloadClass::Oltp).unwrap();
        let a = ctrl.admit(WorkloadClass::Olap).unwrap();
        assert_eq!(ctrl.stats().throttled_decisions, 1);
        let waiter = queued_admission(&ctrl, CancellationToken::new());
        for _ in 0..20 {
            drop(ctrl.admit(WorkloadClass::Oltp).unwrap());
            std::thread::sleep(Duration::from_millis(2));
        }
        drop(a);
        waiter.join().unwrap().0.unwrap();
        assert_eq!(ctrl.stats().throttled_decisions, 2);
        assert_eq!(ctrl.stats().olap_queued, 1);
    }
}
