//! # oltap-sched
//!
//! Workload management for mixed OLTP + OLAP workloads — the tutorial's
//! "workload management" dimension (§1, \[32\]).
//!
//! * [`admission`] — query-granularity admission control: OLTP always
//!   admitted, OLAP capped (throttled harder under OLTP pressure) with
//!   queue-with-timeout semantics instead of hard rejection, and queued
//!   work shed as soon as its statement's token trips.
//! * [`pool`] — the helper pool a statement's claim loop borrows threads
//!   from: one FIFO queue, workers that survive a task's panic. Whether a
//!   statement may borrow at all is the engine's OLTP-first helper gate.

pub mod admission;
pub mod pool;

pub use admission::{AdmissionConfig, AdmissionController, AdmissionStats, AdmissionTicket};
pub use pool::WorkerPool;
