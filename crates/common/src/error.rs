//! The error type shared by every `oltapdb` crate.

use std::fmt;

/// Convenience alias used across the workspace.
pub type Result<T, E = DbError> = std::result::Result<T, E>;

/// Errors surfaced by any layer of the engine.
///
/// The engine keeps a single flat error enum rather than per-crate error
/// types so that errors can flow from the storage layer through the executor
/// and out of the SQL front end without conversion boilerplate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DbError {
    /// A value had an unexpected [`crate::DataType`] for the operation.
    TypeMismatch {
        /// What the operation required.
        expected: String,
        /// What it actually received.
        actual: String,
    },
    /// A named table does not exist in the catalog.
    TableNotFound(String),
    /// A named column does not exist in the referenced table.
    ColumnNotFound(String),
    /// An object with the same name already exists.
    AlreadyExists(String),
    /// A primary-key constraint was violated.
    DuplicateKey(String),
    /// A row with the requested key does not exist.
    KeyNotFound(String),
    /// The transaction lost a first-committer-wins conflict and must abort.
    WriteConflict(String),
    /// The transaction was already committed or aborted.
    TxnClosed(String),
    /// SQL text failed to tokenize or parse.
    Parse(String),
    /// The query was well-formed but cannot be planned/bound.
    Plan(String),
    /// A runtime execution failure (overflow, division by zero, ...).
    Execution(String),
    /// Corrupt or truncated data encountered (e.g. WAL replay).
    Corruption(String),
    /// A distributed-layer failure (no leader, node down, quorum lost).
    Cluster(String),
    /// A specific partition could not serve a request (no leader elected
    /// within the timeout, or no running replica). Carries the partition id
    /// so routers can retry or redirect per shard instead of failing the
    /// whole statement.
    ShardUnavailable {
        /// The partition that was unreachable.
        partition: u64,
        /// What the shard was needed for ("no leader", "no replica", ...).
        reason: String,
    },
    /// A distributed transaction whose outcome is not yet known at this
    /// node: it prepared (or decided) but the coordinator crashed before
    /// the decision reached every participant. Recovery resolves it from
    /// the replicated coordinator log; callers must not assume commit *or*
    /// abort until then.
    TxnInDoubt {
        /// The global transaction id.
        gtxn: u64,
    },
    /// The operation is not supported by this table format or engine build.
    Unsupported(String),
    /// Invalid argument supplied by the caller.
    InvalidArgument(String),
    /// Underlying I/O failure (message-only so the error stays `Clone + Eq`).
    Io(String),
    /// The operation was cancelled explicitly (session closed, `cancel()`
    /// called), while running or while queued for admission. Deadline
    /// expiry is [`DbError::DeadlineExceeded`].
    Cancelled(String),
    /// A query ran past its deadline, while running or while queued for
    /// admission. Split from [`DbError::Cancelled`] so callers can
    /// distinguish "the user gave up" from "the system timed the work
    /// out" — retry policies and admission accounting treat the two
    /// differently.
    DeadlineExceeded(String),
    /// A memory reservation (or other resource claim) could not be
    /// satisfied and the operator had no way to degrade (e.g. no spill
    /// directory configured). Carries the workload class and the sizes so
    /// the admission layer can log and account the rejection.
    ResourceExhausted {
        /// Workload class whose pool was exhausted ("oltp" / "olap").
        class: String,
        /// Bytes the reservation asked for.
        requested: u64,
        /// Bytes that were still available in the pool at the time.
        available: u64,
    },
    /// An injected fault fired (chaos testing only; never in production
    /// paths unless a [`crate::fault::FaultInjector`] is installed).
    FaultInjected(String),
    /// The server cannot take this request right now but expects to
    /// recover: it is draining for shutdown, at its connection cap, or
    /// shedding load at the edge. Distinct from
    /// [`DbError::ResourceExhausted`] (a sized resource claim failed) —
    /// this is an admission-surface rejection carrying an explicit
    /// retry-after hint the client's backoff must honor as a floor.
    Unavailable {
        /// Why the request was turned away ("draining", "connection
        /// limit", ...).
        reason: String,
        /// Minimum milliseconds the client should wait before retrying
        /// (0 = retry at the client's own backoff pace).
        retry_after_ms: u64,
    },
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbError::TypeMismatch { expected, actual } => {
                write!(f, "type mismatch: expected {expected}, got {actual}")
            }
            DbError::TableNotFound(t) => write!(f, "table not found: {t}"),
            DbError::ColumnNotFound(c) => write!(f, "column not found: {c}"),
            DbError::AlreadyExists(o) => write!(f, "already exists: {o}"),
            DbError::DuplicateKey(k) => write!(f, "duplicate primary key: {k}"),
            DbError::KeyNotFound(k) => write!(f, "key not found: {k}"),
            DbError::WriteConflict(m) => write!(f, "write-write conflict: {m}"),
            DbError::TxnClosed(m) => write!(f, "transaction closed: {m}"),
            DbError::Parse(m) => write!(f, "parse error: {m}"),
            DbError::Plan(m) => write!(f, "plan error: {m}"),
            DbError::Execution(m) => write!(f, "execution error: {m}"),
            DbError::Corruption(m) => write!(f, "corruption: {m}"),
            DbError::Cluster(m) => write!(f, "cluster error: {m}"),
            DbError::ShardUnavailable { partition, reason } => {
                write!(f, "shard unavailable: partition {partition} ({reason})")
            }
            DbError::TxnInDoubt { gtxn } => {
                write!(f, "transaction in doubt: gtxn {gtxn} awaits coordinator recovery")
            }
            DbError::Unsupported(m) => write!(f, "unsupported: {m}"),
            DbError::InvalidArgument(m) => write!(f, "invalid argument: {m}"),
            DbError::Io(m) => write!(f, "io error: {m}"),
            DbError::Cancelled(m) => write!(f, "cancelled: {m}"),
            DbError::DeadlineExceeded(m) => write!(f, "deadline exceeded: {m}"),
            DbError::ResourceExhausted {
                class,
                requested,
                available,
            } => write!(
                f,
                "resource exhausted: class {class} requested {requested} B, {available} B available"
            ),
            DbError::FaultInjected(m) => write!(f, "fault injected: {m}"),
            DbError::Unavailable {
                reason,
                retry_after_ms,
            } => write!(
                f,
                "unavailable: {reason} (retry after {retry_after_ms} ms)"
            ),
        }
    }
}

impl std::error::Error for DbError {}

impl From<std::io::Error> for DbError {
    fn from(e: std::io::Error) -> Self {
        DbError::Io(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_payload() {
        let e = DbError::TableNotFound("orders".into());
        assert_eq!(e.to_string(), "table not found: orders");
        let e = DbError::TypeMismatch {
            expected: "Int64".into(),
            actual: "Utf8".into(),
        };
        assert!(e.to_string().contains("Int64"));
        assert!(e.to_string().contains("Utf8"));
    }

    #[test]
    fn io_error_converts() {
        let io = std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "eof");
        let e: DbError = io.into();
        assert!(matches!(e, DbError::Io(_)));
    }

    #[test]
    fn resource_exhausted_reports_sizes() {
        let e = DbError::ResourceExhausted {
            class: "olap".into(),
            requested: 4096,
            available: 128,
        };
        let s = e.to_string();
        assert!(s.contains("olap"));
        assert!(s.contains("4096"));
        assert!(s.contains("128"));
    }

    #[test]
    fn cancelled_and_deadline_are_distinct() {
        assert_ne!(
            DbError::Cancelled("x".into()),
            DbError::DeadlineExceeded("x".into())
        );
    }

    #[test]
    fn shard_unavailable_names_partition() {
        let e = DbError::ShardUnavailable {
            partition: 3,
            reason: "no leader".into(),
        };
        let s = e.to_string();
        assert!(s.contains("partition 3"));
        assert!(s.contains("no leader"));
    }

    #[test]
    fn txn_in_doubt_names_gtxn() {
        let e = DbError::TxnInDoubt { gtxn: 42 };
        assert!(e.to_string().contains("42"));
        assert_ne!(e, DbError::TxnInDoubt { gtxn: 43 });
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(
            DbError::Parse("x".into()),
            DbError::Parse("x".into())
        );
        assert_ne!(DbError::Parse("x".into()), DbError::Plan("x".into()));
    }
}
