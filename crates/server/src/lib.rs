//! # oltap-server
//!
//! The network front end for oltapdb: a length-prefixed, CRC-checked
//! framed wire protocol ([`wire`]) served over TCP by a
//! thread-per-connection server ([`server`]) that extends the engine's
//! robustness guarantees to the edge:
//!
//! * per-connection sessions wired into admission control and the
//!   memory governor, so OLTP priority and memory discipline survive at
//!   the network boundary;
//! * slow-client backpressure by the blocking socket write itself — a
//!   connection holds one encoded frame at a time, and a client that
//!   stops reading past the write deadline is cut, never buffered for;
//! * read, write and idle deadlines on every socket wait;
//! * overload shedding with typed [`oltap_common::DbError::Unavailable`]
//!   responses carrying retry-after hints;
//! * `net.*` fault injection points for chaos tests (torn frames,
//!   partial writes, dropped connections, accept failures);
//! * graceful bounded drain: analytic work cancelled immediately,
//!   transactional work given a grace period, stragglers force-closed.

pub mod server;
pub mod wire;

pub use server::{DrainReport, Server, ServerConfig, ServerStats};
pub use wire::{DoneKind, Request, Response, MAX_FRAME, PROTOCOL_VERSION};
