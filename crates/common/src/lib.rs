//! # oltap-common
//!
//! The shared data model underneath every other `oltapdb` crate.
//!
//! This crate deliberately has no dependencies on the rest of the system so
//! that storage, transaction, execution, and distribution layers can all
//! agree on a single vocabulary:
//!
//! * [`types::DataType`] / [`types::Value`] — the logical type system and
//!   dynamically typed scalar values.
//! * [`schema::Schema`] / [`schema::Field`] — table schemas with primary-key
//!   metadata.
//! * [`row::Row`] — an N-tuple of values (the unit of the row store and of
//!   DML).
//! * [`vector::ColumnVector`] / [`vector::Batch`] — typed columnar batches
//!   (the unit of the vectorized executor).
//! * [`bitset::BitSet`] — packed validity/selection/delete bitmaps.
//! * [`bloom::BlockedBloom`] — a blocked Bloom filter for join
//!   sideways-information-passing into scans.
//! * [`crc::crc32`] — the checksum of every stored or sent frame (WAL
//!   records, column pages, the heat sidecar, wire frames).
//! * [`hash`] — a fast, non-cryptographic hasher (Fx-style) plus `HashMap`
//!   aliases used on hot paths throughout the engine.
//! * [`ids`] — newtype identifiers (tables, columns, segments, transactions,
//!   cluster nodes, partitions).
//! * [`error::DbError`] — the error type shared across crates.
//! * [`fault::FaultInjector`] — seeded, deterministic fault injection for
//!   chaos testing (named points, per-point RNG streams, decision log).
//! * [`cancel::CancellationToken`] — cooperative cancellation + deadlines,
//!   checked at batch boundaries by the executor.
//! * [`mem::MemoryGovernor`] / [`mem::MemoryBudget`] — hierarchical memory
//!   accounting (process pool → workload class → per-query budget); failed
//!   reservations drive the executor's spill-to-disk paths.
//! * [`retry::Backoff`] — exponential backoff with deterministic jitter
//!   for distributed retry loops.

pub mod bitset;
pub mod bloom;
pub mod cancel;
pub mod crc;
pub mod error;
pub mod fault;
pub mod hash;
pub mod mem;
pub mod retry;
pub mod ids;
pub mod row;
pub mod schema;
pub mod types;
pub mod vector;

pub use bitset::BitSet;
pub use bloom::BlockedBloom;
pub use cancel::CancellationToken;
pub use crc::crc32;
pub use error::{DbError, Result};
pub use fault::{FaultInjector, FaultPoint};
pub use mem::{MemoryBudget, MemoryGovernor, WorkloadClass};
pub use row::Row;
pub use schema::{Field, Schema};
pub use types::{DataType, Value};
pub use vector::{Batch, ColumnVector};
