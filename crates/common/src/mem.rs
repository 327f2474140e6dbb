//! Hierarchical memory governance.
//!
//! The defining HTAP robustness problem (Polynesia, L-Store, HyPer's
//! admission work) is resource isolation: one runaway OLAP aggregation
//! must not OOM the process or starve OLTP traffic. This module provides
//! the accounting substrate the rest of the engine builds on:
//!
//! ```text
//!   MemoryGovernor (process pool, e.g. 8 GiB)
//!     ├─ class pool OLTP  (reserved slice, e.g. 25%)
//!     └─ class pool OLAP  (the rest)
//!          └─ MemoryBudget (per query, e.g. 256 MiB)
//! ```
//!
//! Reservations are **atomic and hierarchical**: a query-level
//! [`MemoryBudget::try_reserve`] claims bytes at all three levels or at
//! none. A failed reservation is not an error by itself — the pipeline
//! breakers respond by *spilling* (see `oltap-exec`) and only surface
//! [`DbError::ResourceExhausted`] when no degradation path exists.
//!
//! The [`points::MEM_RESERVE_FAIL`]
//! fault point fires inside `try_reserve`, so chaos tests can force the
//! spill paths deterministically without provisioning tiny pools.
//!
//! [`WorkloadClass`] is canonical here (re-exported by `oltap-sched`):
//! the scheduler's priority dispatch and the governor's class pools must
//! agree on what a "class" is.

use crate::error::{DbError, Result};
use crate::fault::{points, FaultInjector};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The two workload classes of the operational-analytics engine.
///
/// OLTP: short point reads/writes, latency-critical, always admitted.
/// OLAP: scans/joins/aggregations, throughput-oriented, throttled and
/// memory-bounded under pressure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkloadClass {
    /// Transactional work: point queries, DML, commits.
    Oltp,
    /// Analytical work: scans, joins, aggregations.
    Olap,
}

impl WorkloadClass {
    /// Stable lowercase name, used in errors and stats.
    pub fn as_str(self) -> &'static str {
        match self {
            WorkloadClass::Oltp => "oltp",
            WorkloadClass::Olap => "olap",
        }
    }

    fn index(self) -> usize {
        match self {
            WorkloadClass::Oltp => 0,
            WorkloadClass::Olap => 1,
        }
    }
}

#[derive(Debug)]
struct ClassPool {
    limit: u64,
    used: AtomicU64,
}

impl ClassPool {
    fn new(limit: u64) -> Self {
        ClassPool {
            limit,
            used: AtomicU64::new(0),
        }
    }

    /// Claims `bytes` or leaves the pool untouched; returns bytes left.
    fn try_claim(&self, bytes: u64) -> std::result::Result<(), u64> {
        let prev = self.used.fetch_add(bytes, Ordering::AcqRel);
        if prev.saturating_add(bytes) > self.limit {
            self.used.fetch_sub(bytes, Ordering::AcqRel);
            Err(self.limit.saturating_sub(prev))
        } else {
            Ok(())
        }
    }

    fn release(&self, bytes: u64) {
        let prev = self.used.fetch_sub(bytes, Ordering::AcqRel);
        debug_assert!(prev >= bytes, "memory pool release underflow");
    }
}

/// Process-wide memory pool split into per-class sub-pools.
///
/// Construction is cheap; probing an unlimited governor costs two atomic
/// RMWs per reservation, so the executor reserves in coarse chunks (whole
/// radix partitions, whole sort runs), not per row.
#[derive(Debug)]
pub struct MemoryGovernor {
    total: ClassPool,
    classes: [ClassPool; 2],
    /// Carve-out for the storage buffer pool (resident column pages).
    /// Unlimited unless constructed via [`MemoryGovernor::with_buffer_pool`],
    /// so buffer-pool bytes, operator budgets, and OLTP working sets all
    /// draw from the same process-wide `total` hierarchy.
    buffer: ClassPool,
    faults: Arc<FaultInjector>,
    spill_events: AtomicU64,
}

impl MemoryGovernor {
    /// A governor with a process-wide limit and per-class limits. Pass
    /// `u64::MAX` for "unlimited" at any level.
    pub fn new(total_limit: u64, oltp_limit: u64, olap_limit: u64) -> Arc<MemoryGovernor> {
        Self::with_faults(total_limit, oltp_limit, olap_limit, FaultInjector::disabled())
    }

    /// Like [`MemoryGovernor::new`], but reservations probe
    /// `mem.reserve_fail` on the given injector first.
    pub fn with_faults(
        total_limit: u64,
        oltp_limit: u64,
        olap_limit: u64,
        faults: Arc<FaultInjector>,
    ) -> Arc<MemoryGovernor> {
        Self::with_buffer_pool(total_limit, oltp_limit, olap_limit, u64::MAX, faults)
    }

    /// Like [`MemoryGovernor::with_faults`], plus an explicit carve-out
    /// limit for the storage buffer pool. Buffer-pool claims count against
    /// both the carve-out and the process total, so page caching competes
    /// with operator budgets in one hierarchy instead of OOMing past it.
    pub fn with_buffer_pool(
        total_limit: u64,
        oltp_limit: u64,
        olap_limit: u64,
        buffer_limit: u64,
        faults: Arc<FaultInjector>,
    ) -> Arc<MemoryGovernor> {
        Arc::new(MemoryGovernor {
            total: ClassPool::new(total_limit),
            classes: [ClassPool::new(oltp_limit), ClassPool::new(olap_limit)],
            buffer: ClassPool::new(buffer_limit),
            faults,
            spill_events: AtomicU64::new(0),
        })
    }

    /// A governor that never rejects (all limits `u64::MAX`).
    pub fn unlimited() -> Arc<MemoryGovernor> {
        Self::new(u64::MAX, u64::MAX, u64::MAX)
    }

    /// Creates a per-query budget in `class` capped at `query_limit`
    /// bytes (`u64::MAX` for uncapped-within-the-class).
    pub fn budget(self: &Arc<Self>, class: WorkloadClass, query_limit: u64) -> MemoryBudget {
        MemoryBudget {
            inner: Arc::new(BudgetInner {
                governor: Some(Arc::clone(self)),
                class,
                limit: query_limit,
                used: AtomicU64::new(0),
                peak: AtomicU64::new(0),
                spills: AtomicU64::new(0),
            }),
        }
    }

    /// Bytes currently reserved in `class`.
    pub fn used(&self, class: WorkloadClass) -> u64 {
        self.classes[class.index()].used.load(Ordering::Acquire)
    }

    /// Bytes currently reserved process-wide.
    pub fn total_used(&self) -> u64 {
        self.total.used.load(Ordering::Acquire)
    }

    /// Total spill events recorded by budgets of this governor.
    pub fn spill_events(&self) -> u64 {
        self.spill_events.load(Ordering::Relaxed)
    }

    /// Bytes currently held by the storage buffer pool.
    pub fn buffer_used(&self) -> u64 {
        self.buffer.used.load(Ordering::Acquire)
    }

    /// The buffer-pool carve-out limit (`u64::MAX` when unconstrained).
    pub fn buffer_limit(&self) -> u64 {
        self.buffer.limit
    }

    /// Claims `bytes` for the buffer pool — carve-out first, then the
    /// process total, all-or-nothing. `Err` carries the bytes left in the
    /// tighter of the two pools; the buffer manager responds by evicting,
    /// not by failing the query.
    pub fn try_claim_buffer(&self, bytes: u64) -> std::result::Result<(), u64> {
        self.buffer.try_claim(bytes)?;
        if let Err(left) = self.total.try_claim(bytes) {
            self.buffer.release(bytes);
            return Err(left);
        }
        Ok(())
    }

    /// Returns buffer-pool bytes to the carve-out and the process total.
    pub fn release_buffer(&self, bytes: u64) {
        if bytes == 0 {
            return;
        }
        self.buffer.release(bytes);
        self.total.release(bytes);
    }

    /// Claims at class level then process level; all-or-nothing.
    fn try_claim(&self, class: WorkloadClass, bytes: u64) -> std::result::Result<(), u64> {
        let pool = &self.classes[class.index()];
        let class_left = pool.try_claim(bytes).err();
        if let Some(left) = class_left {
            return Err(left);
        }
        if let Err(left) = self.total.try_claim(bytes) {
            pool.release(bytes);
            return Err(left);
        }
        Ok(())
    }

    fn release(&self, class: WorkloadClass, bytes: u64) {
        self.classes[class.index()].release(bytes);
        self.total.release(bytes);
    }
}

#[derive(Debug)]
struct BudgetInner {
    /// `None` for the zero-cost unlimited budget.
    governor: Option<Arc<MemoryGovernor>>,
    class: WorkloadClass,
    limit: u64,
    used: AtomicU64,
    peak: AtomicU64,
    spills: AtomicU64,
}

impl Drop for BudgetInner {
    fn drop(&mut self) {
        // Whatever the query still holds flows back to the pools; a
        // query that errors out mid-spill cannot leak reservation.
        if let Some(gov) = &self.governor {
            let held = *self.used.get_mut();
            if held > 0 {
                gov.release(self.class, held);
            }
        }
    }
}

/// A cheap, cloneable per-query memory budget.
///
/// Clones share one account (workers of a parallel pipeline reserve
/// against the same query budget). Dropping the last clone releases any
/// outstanding reservation back to the governor.
#[derive(Debug, Clone)]
pub struct MemoryBudget {
    inner: Arc<BudgetInner>,
}

impl Default for MemoryBudget {
    fn default() -> Self {
        Self::unlimited()
    }
}

impl MemoryBudget {
    /// A budget that never rejects and never touches a governor — the
    /// executor default when no memory management is configured.
    pub fn unlimited() -> Self {
        MemoryBudget {
            inner: Arc::new(BudgetInner {
                governor: None,
                class: WorkloadClass::Olap,
                limit: u64::MAX,
                used: AtomicU64::new(0),
                peak: AtomicU64::new(0),
                spills: AtomicU64::new(0),
            }),
        }
    }

    /// True if a reservation can ever fail (so operators can skip size
    /// estimation entirely on the unlimited fast path).
    pub fn is_limited(&self) -> bool {
        self.inner.governor.is_some()
    }

    /// The workload class this budget draws from.
    pub fn class(&self) -> WorkloadClass {
        self.inner.class
    }

    /// Attempts to reserve `bytes` at query, class, and process level.
    ///
    /// On failure nothing is reserved and [`DbError::ResourceExhausted`]
    /// describes the shortfall. Operators treat that error as a *spill
    /// request*, not a query failure.
    pub fn try_reserve(&self, bytes: u64) -> Result<()> {
        let Some(gov) = &self.inner.governor else {
            return Ok(());
        };
        // Chaos probe before any cap check, so an armed `mem.reserve_fail`
        // exercises the spill path even when the caps would have decided
        // the same way.
        if gov.faults.should_fire(points::MEM_RESERVE_FAIL) {
            return Err(self.exhausted(bytes, 0));
        }
        // Query-level cap first (purely local).
        let prev = self.inner.used.fetch_add(bytes, Ordering::AcqRel);
        if prev.saturating_add(bytes) > self.inner.limit {
            self.inner.used.fetch_sub(bytes, Ordering::AcqRel);
            return Err(self.exhausted(bytes, self.inner.limit.saturating_sub(prev)));
        }
        // Then the shared pools.
        if let Err(available) = gov.try_claim(self.inner.class, bytes) {
            self.inner.used.fetch_sub(bytes, Ordering::AcqRel);
            return Err(self.exhausted(bytes, available));
        }
        self.inner.peak.fetch_max(prev + bytes, Ordering::AcqRel);
        Ok(())
    }

    /// Reserves `bytes` unconditionally (tracked, never fails). Used for
    /// a pipeline breaker's *final materialized result* — the hash table
    /// or sorted output the query cannot proceed without. The governor
    /// bounds working/accumulation memory via [`MemoryBudget::try_reserve`];
    /// resident results are the admission controller's problem.
    pub fn reserve_forced(&self, bytes: u64) {
        if self.inner.governor.is_none() {
            return;
        }
        let prev = self.inner.used.fetch_add(bytes, Ordering::AcqRel);
        self.inner.peak.fetch_max(prev + bytes, Ordering::AcqRel);
        if let Some(gov) = &self.inner.governor {
            // Forced claims bypass the limit checks but stay accounted.
            gov.classes[self.inner.class.index()]
                .used
                .fetch_add(bytes, Ordering::AcqRel);
            gov.total.used.fetch_add(bytes, Ordering::AcqRel);
        }
    }

    /// Returns `bytes` to the pools.
    pub fn release(&self, bytes: u64) {
        if bytes == 0 {
            return;
        }
        let Some(gov) = &self.inner.governor else {
            return;
        };
        let prev = self.inner.used.fetch_sub(bytes, Ordering::AcqRel);
        debug_assert!(prev >= bytes, "budget release underflow");
        gov.release(self.inner.class, bytes);
    }

    /// Bytes currently reserved by this query.
    pub fn used(&self) -> u64 {
        self.inner.used.load(Ordering::Acquire)
    }

    /// High-water mark of this query's reservation.
    pub fn peak(&self) -> u64 {
        self.inner.peak.load(Ordering::Acquire)
    }

    /// The per-query cap.
    pub fn limit(&self) -> u64 {
        self.inner.limit
    }

    /// Records that an operator spilled because a reservation failed
    /// (stats only; visible on the budget and aggregated on the governor).
    pub fn note_spill(&self) {
        self.inner.spills.fetch_add(1, Ordering::Relaxed);
        if let Some(gov) = &self.inner.governor {
            gov.spill_events.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Number of spill events this query triggered.
    pub fn spill_count(&self) -> u64 {
        self.inner.spills.load(Ordering::Relaxed)
    }

    fn exhausted(&self, requested: u64, available: u64) -> DbError {
        DbError::ResourceExhausted {
            class: self.inner.class.as_str().to_string(),
            requested,
            available,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPoint;

    #[test]
    fn unlimited_budget_never_rejects() {
        let b = MemoryBudget::unlimited();
        assert!(!b.is_limited());
        for _ in 0..1000 {
            b.try_reserve(u64::MAX / 2).unwrap();
        }
        b.release(12345); // no-op, must not underflow
    }

    #[test]
    fn query_cap_enforced_and_released() {
        let gov = MemoryGovernor::new(1 << 30, 1 << 30, 1 << 30);
        let b = gov.budget(WorkloadClass::Olap, 1000);
        b.try_reserve(600).unwrap();
        let err = b.try_reserve(600).unwrap_err();
        match err {
            DbError::ResourceExhausted {
                class,
                requested,
                available,
            } => {
                assert_eq!(class, "olap");
                assert_eq!(requested, 600);
                assert_eq!(available, 400);
            }
            other => panic!("wrong error: {other:?}"),
        }
        b.release(600);
        b.try_reserve(900).unwrap();
        assert_eq!(b.peak(), 900);
    }

    #[test]
    fn class_pool_isolates_oltp_from_olap() {
        let gov = MemoryGovernor::new(u64::MAX, 1000, 1000);
        let olap = gov.budget(WorkloadClass::Olap, u64::MAX);
        let oltp = gov.budget(WorkloadClass::Oltp, u64::MAX);
        olap.try_reserve(1000).unwrap();
        assert!(olap.try_reserve(1).is_err(), "olap pool is full");
        oltp.try_reserve(1000).unwrap();
        assert_eq!(gov.used(WorkloadClass::Oltp), 1000);
        assert_eq!(gov.used(WorkloadClass::Olap), 1000);
        assert_eq!(gov.total_used(), 2000);
    }

    #[test]
    fn process_pool_caps_sum_of_classes() {
        let gov = MemoryGovernor::new(1500, 1000, 1000);
        let a = gov.budget(WorkloadClass::Oltp, u64::MAX);
        let b = gov.budget(WorkloadClass::Olap, u64::MAX);
        a.try_reserve(1000).unwrap();
        // Class pool would allow it, process pool must not.
        assert!(b.try_reserve(1000).is_err());
        b.try_reserve(500).unwrap();
        // The failed claim rolled back fully.
        assert_eq!(gov.total_used(), 1500);
    }

    #[test]
    fn drop_releases_outstanding_reservation() {
        let gov = MemoryGovernor::new(1000, 1000, 1000);
        {
            let b = gov.budget(WorkloadClass::Olap, u64::MAX);
            b.try_reserve(800).unwrap();
            assert_eq!(gov.total_used(), 800);
        }
        assert_eq!(gov.total_used(), 0, "drop returned the bytes");
    }

    #[test]
    fn clones_share_one_account() {
        let gov = MemoryGovernor::new(1000, 1000, 1000);
        let b = gov.budget(WorkloadClass::Olap, 1000);
        let c = b.clone();
        b.try_reserve(600).unwrap();
        assert!(c.try_reserve(600).is_err(), "clone sees the same account");
        drop(b);
        assert_eq!(gov.total_used(), 600, "still held by the surviving clone");
        drop(c);
        assert_eq!(gov.total_used(), 0);
    }

    #[test]
    fn forced_reservation_bypasses_caps_but_is_accounted() {
        let gov = MemoryGovernor::new(100, 100, 100);
        let b = gov.budget(WorkloadClass::Olap, 100);
        b.reserve_forced(5000);
        assert_eq!(b.used(), 5000);
        assert_eq!(gov.total_used(), 5000);
        drop(b);
        assert_eq!(gov.total_used(), 0);
    }

    #[test]
    fn reserve_fail_fault_point_fires_deterministically() {
        let faults = FaultInjector::new(0xBEEF);
        faults.arm(points::MEM_RESERVE_FAIL, FaultPoint::times(2));
        let gov = MemoryGovernor::with_faults(u64::MAX, u64::MAX, u64::MAX, faults.clone());
        let b = gov.budget(WorkloadClass::Olap, u64::MAX);
        assert!(b.try_reserve(1).is_err());
        assert!(b.try_reserve(1).is_err());
        assert!(b.try_reserve(1).is_ok(), "limit of 2 firings respected");
        assert_eq!(faults.fired_count(), 2);
        // A fired reservation must not leak partial claims.
        assert_eq!(gov.total_used(), 1);
    }

    #[test]
    fn spill_stats_flow_to_governor() {
        let gov = MemoryGovernor::new(u64::MAX, u64::MAX, u64::MAX);
        let b = gov.budget(WorkloadClass::Olap, u64::MAX);
        b.note_spill();
        b.note_spill();
        assert_eq!(b.spill_count(), 2);
        assert_eq!(gov.spill_events(), 2);
    }

    #[test]
    fn buffer_carveout_caps_and_releases() {
        let gov = MemoryGovernor::with_buffer_pool(
            u64::MAX,
            u64::MAX,
            u64::MAX,
            1000,
            FaultInjector::disabled(),
        );
        assert_eq!(gov.buffer_limit(), 1000);
        gov.try_claim_buffer(600).unwrap();
        assert_eq!(gov.buffer_used(), 600);
        assert_eq!(gov.total_used(), 600, "buffer bytes count in the total");
        let left = gov.try_claim_buffer(600).unwrap_err();
        assert_eq!(left, 400);
        assert_eq!(gov.buffer_used(), 600, "failed claim rolled back fully");
        gov.release_buffer(600);
        assert_eq!(gov.buffer_used(), 0);
        assert_eq!(gov.total_used(), 0);
    }

    #[test]
    fn buffer_competes_with_operator_budgets_in_total() {
        let gov = MemoryGovernor::with_buffer_pool(
            1000,
            u64::MAX,
            u64::MAX,
            u64::MAX,
            FaultInjector::disabled(),
        );
        let b = gov.budget(WorkloadClass::Olap, u64::MAX);
        b.try_reserve(700).unwrap();
        // The carve-out is unlimited but the process total is not: a
        // buffer claim that would exceed it must fail and roll back.
        let left = gov.try_claim_buffer(700).unwrap_err();
        assert_eq!(left, 300);
        assert_eq!(gov.buffer_used(), 0, "total-level failure rolled back the carve-out");
        gov.try_claim_buffer(300).unwrap();
        assert_eq!(gov.total_used(), 1000);
        gov.release_buffer(300);
        drop(b);
        assert_eq!(gov.total_used(), 0);
    }

    #[test]
    fn default_ctors_leave_buffer_unlimited() {
        let gov = MemoryGovernor::new(u64::MAX, u64::MAX, u64::MAX);
        assert_eq!(gov.buffer_limit(), u64::MAX);
        gov.try_claim_buffer(1 << 40).unwrap();
        gov.release_buffer(1 << 40);
    }

    #[test]
    fn class_names_are_stable() {
        assert_eq!(WorkloadClass::Oltp.as_str(), "oltp");
        assert_eq!(WorkloadClass::Olap.as_str(), "olap");
    }
}
