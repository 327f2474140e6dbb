//! # oltap-core
//!
//! The integrated operational-analytics engine — the piece that assembles
//! every substrate the tutorial describes into one system:
//!
//! * a [`catalog::Catalog`] of tables in any of three physical formats
//!   (row store / delta+columnar main / dual-format);
//! * MVCC [`Database::session`] sessions with snapshot isolation;
//! * a SQL surface ([`Database::execute`] /
//!   [`session::Session::execute`]) covering DDL, DML, transactions, and
//!   analytic queries, planned by `oltap-sql` once per statement shape
//!   ([`prepared`]) and run on `oltap-exec` morsel pipelines ([`physical`]);
//! * write-ahead logging and recovery ([`Database::open`]);
//! * background [`Database::maintenance`] (delta merge — a dual-format
//!   table's columnar side's too — coalescing, freezing, MVCC garbage
//!   collection) and an optional
//!   [`MaintenanceDaemon`] thread.

pub mod catalog;
pub mod database;
pub mod physical;
pub mod prepared;
pub mod session;
mod sink;

pub use catalog::{Catalog, TableFormat, TableHandle};
pub use database::{
    BufferConfig, Database, DbConfig, DbStats, MaintenanceDaemon, MaintenanceStats, MemoryConfig,
};
pub use session::{QueryResult, Session, SessionActivity};

#[cfg(test)]
mod dual;
