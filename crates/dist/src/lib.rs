//! # oltap-dist
//!
//! The scale-out substrate: horizontal partitioning, an in-process
//! replicated cluster whose every shard is an `oltap-core` `Database`, and
//! distributed SQL over it — the tutorial's "scaling out to distributed
//! deployments" dimension (§1, §3; Kudu \[24\], Oracle DBIM distributed
//! architecture \[27\]). `oltap-core` does not depend on this crate.
//!
//! * [`partition`] — the hash partitioner over primary keys.
//! * [`raft`] — a from-scratch simplified Raft (elections, log
//!   replication, majority commit, crash/restart, link failures).
//! * [`cluster`] — [`cluster::DistributedTable`]: partitions × replicas,
//!   each replica a `Database` its partition's Raft group applies into;
//!   a SELECT is planned once, its `Aggregate` runs on every partition and
//!   the sealed group stores merge in partition order.
//! * [`twopc`] — cross-shard atomic commit: two-phase commit with a
//!   Raft-replicated coordinator decision log, presumed-abort recovery,
//!   and chaos-testable crash points at every protocol transition.

pub mod cluster;
pub mod partition;
pub mod raft;
pub mod twopc;

pub use cluster::{ClusterConfig, DistributedTable, PartitionGroup, Replica, ShardCmd};
pub use partition::Partitioner;
pub use raft::{
    Network, NodeReport, RaftConfig, RaftGroup, RaftNode, Role, StateMachine,
};
pub use twopc::{CoordRecord, RecoveryReport, TwoPcCoordinator, TwoPcOutcome};
