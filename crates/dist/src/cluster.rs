//! The in-process cluster: a partitioned, Raft-replicated table whose every
//! shard is a [`Database`], queried in SQL.
//!
//! This is the scale-out architecture of the tutorial's §3 systems: data is
//! horizontally partitioned ([`crate::partition`]); each partition is a
//! local store behind a Raft log ([`crate::raft`], the Kudu design \[24\]);
//! aggregation runs next to the data and the partials are gathered (the
//! Oracle DBIM scale-out / MPP pattern \[27\]). DESIGN.md § 14 has the why.
//!
//! * **One store.** A replica ([`ReplicaStore`]) applies committed entries
//!   through its database's `TableHandle` and transaction manager, as a
//!   session's DML does; a wiped replica is a fresh `Database`.
//! * **One aggregate.** [`DistributedTable::query`] plans once, runs the
//!   plan's `Aggregate` (or `Scan`) fragment on every partition through a
//!   `Session`, merges the sealed [`Partial`]s in partition order, finishes
//!   once, and lowers what is above the cut as it would any plan.
//! * **One log.** `Prepare` / `Decide` arrive through the Raft log, and a
//!   restarted replica's in-doubt set is rebuilt by replaying it.
//!
//! **Substitution:** "nodes" are replica slots within this process and the
//! wire is in-memory channels. Quorum math, leader routing, failure
//! handling, and partial aggregation are all real; only deployment is
//! simulated (see DESIGN.md).

use crate::partition::Partitioner;
use crate::raft::{Network, NodeReport, RaftConfig, RaftNode, Role, StateMachine};
use oltap_common::fault::{points, FaultInjector};
use oltap_common::ids::{NodeId, PartitionId};
use oltap_common::retry::Backoff;
use oltap_common::schema::SchemaRef;
use oltap_common::{CancellationToken, DbError, Result, Row};
use oltap_core::physical::{execute_above, snapshot_ctx, ExecContext, Partial};
use oltap_core::{Catalog, Database, TableFormat, TableHandle};
use oltap_sql::{bind_select, optimize, parse, LogicalPlan, Statement};
use oltap_txn::wal::{decode_row, encode_row};
use oltap_txn::Transaction;
use parking_lot::{Mutex, RwLock};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// A command replicated through a partition's Raft log.
///
/// `Insert` is the auto-committed single-shard fast path. `Prepare` and
/// `Decide` are the two-phase-commit participant transitions driven by
/// [`crate::twopc::TwoPcCoordinator`]: `Prepare` stages rows under a local
/// transaction whose MVCC versions stay pending (invisible) until the
/// matching `Decide` commits or aborts them. Because both transitions flow
/// through the same replicated log as inserts, every replica of a
/// partition reaches the same prepare vote and the same final state.
#[derive(Debug, Clone, PartialEq)]
pub enum ShardCmd {
    /// Auto-committed single-row insert.
    Insert(Row),
    /// 2PC phase 1: stage `rows` under global transaction `gtxn` and vote.
    Prepare {
        /// Global (cross-shard) transaction id.
        gtxn: u64,
        /// Rows routed to this partition.
        rows: Vec<Row>,
    },
    /// 2PC phase 2: resolve `gtxn` (commit or roll back staged versions).
    Decide {
        /// Global (cross-shard) transaction id.
        gtxn: u64,
        /// True = commit, false = abort.
        commit: bool,
    },
}

/// Length-prefixed rows, as Raft commands and snapshots carry them: a `u32`
/// count, then each row's `u32` length and [`encode_row`] bytes.
fn put_rows(buf: &mut Vec<u8>, rows: &[Row]) {
    buf.extend_from_slice(&(rows.len() as u32).to_le_bytes());
    for r in rows {
        let b = encode_row(r);
        buf.extend_from_slice(&(b.len() as u32).to_le_bytes());
        buf.extend_from_slice(&b);
    }
}

fn read_u32(b: &[u8], off: &mut usize) -> Option<u32> {
    let v = u32::from_le_bytes(b.get(*off..*off + 4)?.try_into().ok()?);
    *off += 4;
    Some(v)
}

fn read_u64(b: &[u8], off: &mut usize) -> Option<u64> {
    let v = u64::from_le_bytes(b.get(*off..*off + 8)?.try_into().ok()?);
    *off += 8;
    Some(v)
}

fn read_bool(b: &[u8], off: &mut usize) -> Option<bool> {
    let v = *b.get(*off)? != 0;
    *off += 1;
    Some(v)
}

fn read_rows(b: &[u8], off: &mut usize) -> Option<Vec<Row>> {
    let n = read_u32(b, off)? as usize;
    let mut rows = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        let len = read_u32(b, off)? as usize;
        let slice = b.get(*off..*off + len)?;
        *off += len;
        rows.push(decode_row(slice).ok()?);
    }
    Some(rows)
}

impl ShardCmd {
    /// Serializes the command for the Raft log (tag byte + payload).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(64);
        match self {
            ShardCmd::Insert(row) => {
                buf.push(0);
                buf.extend_from_slice(&encode_row(row));
            }
            ShardCmd::Prepare { gtxn, rows } => {
                buf.push(1);
                buf.extend_from_slice(&gtxn.to_le_bytes());
                put_rows(&mut buf, rows);
            }
            ShardCmd::Decide { gtxn, commit } => {
                buf.push(2);
                buf.extend_from_slice(&gtxn.to_le_bytes());
                buf.push(*commit as u8);
            }
        }
        buf
    }

    /// Decodes a command produced by [`ShardCmd::encode`].
    pub fn decode(bytes: &[u8]) -> Result<ShardCmd> {
        let corrupt = || DbError::Corruption("truncated shard command".into());
        let (&tag, rest) = bytes.split_first().ok_or_else(corrupt)?;
        match tag {
            0 => Ok(ShardCmd::Insert(decode_row(rest)?)),
            1 => {
                let mut off = 0;
                let gtxn = read_u64(rest, &mut off).ok_or_else(corrupt)?;
                let rows = read_rows(rest, &mut off).ok_or_else(corrupt)?;
                Ok(ShardCmd::Prepare { gtxn, rows })
            }
            2 => {
                let mut off = 0;
                let gtxn = read_u64(rest, &mut off).ok_or_else(corrupt)?;
                let commit = read_bool(rest, &mut off).ok_or_else(corrupt)?;
                Ok(ShardCmd::Decide { gtxn, commit })
            }
            t => Err(DbError::Corruption(format!("bad shard command tag {t}"))),
        }
    }
}

/// A prepared-but-undecided global transaction held by one replica.
struct PendingPrepare {
    /// The local MVCC transaction pinning the staged versions: this
    /// replica's yes vote. `None` when staging failed — the vote is abort
    /// and there is nothing to commit.
    txn: Option<Transaction>,
    /// The staged rows, retained so a Raft snapshot can re-stage them on
    /// a restoring replica.
    rows: Vec<Row>,
}

/// Per-replica 2PC participant state: prepared transactions awaiting a
/// decision, and decided outcomes (for idempotent re-delivery). Nothing
/// here is logged locally: both arrive through the partition's Raft log,
/// and a restarted replica rebuilds them by replaying it.
#[derive(Default)]
struct TwoPcLocal {
    pending: BTreeMap<u64, PendingPrepare>,
    outcomes: BTreeMap<u64, bool>,
}

/// Decided outcomes retained per replica for idempotent re-delivery.
/// Older ones may be forgotten: re-delivery of a forgotten decision
/// re-applies as a no-op (the pending entry is long gone, so no version
/// state changes — only the outcome map entry is recreated).
const OUTCOME_RETENTION: usize = 64;

impl TwoPcLocal {
    /// Once decided outcomes pile up past twice the retention window, drops
    /// the oldest (gtxns are time-ordered: epoch in the high bits, sequence
    /// in the low), so participant memory grows with the in-flight set
    /// instead of with total transaction history.
    fn forget_old_outcomes(&mut self) {
        if self.outcomes.len() >= OUTCOME_RETENTION * 2 {
            while self.outcomes.len() > OUTCOME_RETENTION {
                self.outcomes.pop_first();
            }
        }
    }
}

/// An empty shard: a database holding the cluster's one table.
fn empty_shard(schema: &SchemaRef) -> Arc<Database> {
    let db = Database::new();
    db.create_table(DistributedTable::TABLE, Arc::clone(schema), TableFormat::Column)
        .expect("an empty in-memory database accepts its first table");
    db
}

/// Stages `rows` under a fresh local transaction and prepares it: the MVCC
/// versions stay pending (invisible to snapshots, pinned against
/// maintenance) until the decision. `None` — the vote is abort — when any
/// row is refused; dropping the transaction rolls the partial staging back.
fn stage(db: &Database, table: &TableHandle, rows: &[Row]) -> Option<Transaction> {
    let tx = db.txn_manager().begin();
    let staged = rows.iter().try_for_each(|row| table.insert(&tx, row.clone()));
    staged.and_then(|()| tx.prepare()).ok().map(|_| tx)
}

/// Swappable replica storage: the [`Database`] the Raft apply function
/// writes into. Held behind a lock so a crash-restart can *wipe* the
/// replica (simulating loss of the machine's data disk) and rebuild it
/// purely from the Raft log — the re-applied entries land in the fresh
/// database. Also hosts the replica's 2PC participant state
/// (`TwoPcLocal`), which is wiped and rebuilt the same way.
pub struct ReplicaStore {
    schema: SchemaRef,
    db: RwLock<Arc<Database>>,
    twopc: Mutex<TwoPcLocal>,
    faults: Arc<FaultInjector>,
    dropped: AtomicU64,
}

impl ReplicaStore {
    fn new(schema: SchemaRef, faults: Arc<FaultInjector>) -> Arc<ReplicaStore> {
        Arc::new(ReplicaStore {
            db: RwLock::new(empty_shard(&schema)),
            schema,
            twopc: Mutex::new(TwoPcLocal::default()),
            faults,
            dropped: AtomicU64::new(0),
        })
    }

    /// The shard's current database (snapshot of the swappable slot).
    pub fn db(&self) -> Arc<Database> {
        Arc::clone(&self.db.read())
    }

    /// Drops all local state, replacing the database and the 2PC state
    /// with empty ones. The next Raft re-apply pass repopulates from the
    /// log (or a snapshot install repopulates via `restore_bytes`).
    pub fn wipe(&self) {
        let mut tp = self.twopc.lock();
        *self.db.write() = empty_shard(&self.schema);
        *tp = TwoPcLocal::default();
    }

    /// This replica's prepare vote for `gtxn`, if it has seen the
    /// `Prepare` (possibly already resolved).
    pub fn prepare_vote(&self, gtxn: u64) -> Option<bool> {
        let tp = self.twopc.lock();
        // After a decision the original vote is moot: a committed outcome
        // implies the vote was yes; reporting no for an aborted one steers
        // a retrying coordinator toward the already-taken abort.
        tp.pending
            .get(&gtxn)
            .map(|p| p.txn.is_some())
            .or_else(|| tp.outcomes.get(&gtxn).copied())
    }

    /// The decided outcome for `gtxn`, if this replica has applied the
    /// decision.
    pub fn decided(&self, gtxn: u64) -> Option<bool> {
        self.twopc.lock().outcomes.get(&gtxn).copied()
    }

    /// Global transaction ids this replica prepared but never saw a
    /// decision for: the keys of the pending map (O(in-flight), not
    /// O(history)), which a restarted replica rebuilds by replaying its
    /// Raft log or restoring its snapshot.
    pub fn in_doubt(&self) -> Vec<u64> {
        self.twopc.lock().pending.keys().copied().collect()
    }

    /// Log entries and snapshots this replica could not apply in full:
    /// bytes that decode to no [`ShardCmd`], a snapshot that ends early, a
    /// database without the table. The log is the authority and cannot take
    /// an entry back, so they are dropped — and counted, because each is a
    /// divergence from the log.
    pub fn dropped_commands(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Applies one replicated command (called from the Raft apply fn).
    /// Returns `true` when an armed fault requests this replica crash
    /// *after* the prepare is durable — the participant-crash chaos point.
    fn apply(&self, cmd: &[u8]) -> bool {
        self.try_apply(cmd).unwrap_or_else(|_| {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            false
        })
    }

    fn try_apply(&self, cmd: &[u8]) -> Result<bool> {
        if cmd.is_empty() {
            return Ok(false); // a new leader's no-op entry carries no command
        }
        let cmd = ShardCmd::decode(cmd)?;
        let db = self.db();
        let table = db.table(DistributedTable::TABLE)?;
        match cmd {
            ShardCmd::Insert(row) => {
                let tx = db.txn_manager().begin();
                // Replicated commands are already committed cluster-wide;
                // local conflicts cannot occur because all writes flow
                // through the same log. Duplicate keys appear only during
                // re-apply after restart and are safely skipped.
                if table.insert(&tx, row).is_ok() {
                    let _ = tx.commit();
                }
                Ok(false)
            }
            ShardCmd::Prepare { gtxn, rows } => {
                let mut tp = self.twopc.lock();
                // Re-apply after restart: skip if already staged/decided.
                if tp.pending.contains_key(&gtxn) || tp.outcomes.contains_key(&gtxn) {
                    return Ok(false);
                }
                // Apply is single-threaded per replica and commands are
                // log-ordered, so success/failure here is deterministic
                // across all replicas of the partition.
                let txn = stage(&db, &table, &rows);
                tp.pending.insert(gtxn, PendingPrepare { txn, rows });
                drop(tp);
                Ok(self
                    .faults
                    .should_fire(points::TWOPC_PARTICIPANT_CRASH_PREPARED))
            }
            ShardCmd::Decide { gtxn, commit } => {
                let mut tp = self.twopc.lock();
                if tp.outcomes.contains_key(&gtxn) {
                    return Ok(false); // duplicate decision delivery
                }
                if let Some(tx) = tp.pending.remove(&gtxn).and_then(|p| p.txn) {
                    if commit {
                        let _ = tx.commit();
                    } else {
                        let _ = tx.abort();
                    }
                }
                tp.outcomes.insert(gtxn, commit);
                tp.forget_old_outcomes();
                Ok(false)
            }
        }
    }

    /// Serializes the replica's full state for a Raft snapshot: committed
    /// rows (read through the shard's own SQL surface), still-pending
    /// prepares (with their staged rows, so a restored replica can re-stage
    /// them), and decided outcomes. Called from the Raft worker thread,
    /// which is also the only caller of `apply`, so the state observed is
    /// exactly the state at `last_applied`.
    fn snapshot_bytes(&self) -> Vec<u8> {
        let rows = self
            .db()
            .query(&format!("SELECT * FROM {}", DistributedTable::TABLE))
            .unwrap_or_default();
        let tp = self.twopc.lock();
        let mut buf = Vec::with_capacity(64 + rows.len() * 16);
        put_rows(&mut buf, &rows);
        buf.extend_from_slice(&(tp.pending.len() as u32).to_le_bytes());
        for (gtxn, p) in &tp.pending {
            buf.extend_from_slice(&gtxn.to_le_bytes());
            buf.push(p.txn.is_some() as u8);
            put_rows(&mut buf, &p.rows);
        }
        buf.extend_from_slice(&(tp.outcomes.len() as u32).to_le_bytes());
        for (gtxn, commit) in &tp.outcomes {
            buf.extend_from_slice(&gtxn.to_le_bytes());
            buf.push(*commit as u8);
        }
        buf
    }

    /// Replaces the replica's state with a snapshot produced by
    /// [`Self::snapshot_bytes`] (InstallSnapshot on a lagging follower). One
    /// that ends early restores what it holds and counts as dropped.
    fn restore_bytes(&self, bytes: &[u8]) {
        self.wipe();
        if self.try_restore(bytes).is_none() {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn try_restore(&self, bytes: &[u8]) -> Option<()> {
        let db = self.db();
        let table = db.table(DistributedTable::TABLE).ok()?;
        let mut off = 0usize;
        let tx = db.txn_manager().begin();
        for row in read_rows(bytes, &mut off)? {
            let _ = table.insert(&tx, row);
        }
        let _ = tx.commit();
        let mut tp = self.twopc.lock();
        for _ in 0..read_u32(bytes, &mut off)? {
            let (gtxn, voted_yes) = (read_u64(bytes, &mut off)?, read_bool(bytes, &mut off)?);
            let rows = read_rows(bytes, &mut off)?;
            // Re-stage exactly as apply(Prepare) would, so the restored
            // replica holds — and reports in doubt — what the sender held.
            let txn = if voted_yes { stage(&db, &table, &rows) } else { None };
            tp.pending.insert(gtxn, PendingPrepare { txn, rows });
        }
        for _ in 0..read_u32(bytes, &mut off)? {
            tp.outcomes.insert(read_u64(bytes, &mut off)?, read_bool(bytes, &mut off)?);
        }
        Some(())
    }
}

/// One replica of one partition: a swappable local [`Database`] fed by the
/// partition's Raft log.
pub struct Replica {
    /// The replica's storage slot (wipe-able for rebuild tests).
    pub store: Arc<ReplicaStore>,
    /// The Raft node driving this replica.
    pub raft: Arc<RaftNode>,
}

impl Replica {
    /// The shard's current database: SQL, snapshots and maintenance over
    /// what this replica has applied.
    pub fn db(&self) -> Arc<Database> {
        self.store.db()
    }
}

/// One partition: a Raft group of replicas.
pub struct PartitionGroup {
    /// The partition id.
    pub id: PartitionId,
    /// The cluster-node indexes hosting the replicas.
    pub members: Vec<usize>,
    /// The replicas, positionally matching `members`.
    pub replicas: Vec<Replica>,
    /// The group's network (failure injection).
    pub network: Arc<Network>,
}

impl PartitionGroup {
    /// The replicas whose Raft node is up.
    fn running(&self) -> impl Iterator<Item = &Replica> {
        self.replicas.iter().filter(|r| r.raft.is_running())
    }

    fn current_leader(&self) -> Option<usize> {
        self.replicas
            .iter()
            .enumerate()
            .filter(|(_, r)| r.raft.is_running())
            .filter_map(|(i, r)| {
                r.raft
                    .report()
                    .filter(|rep| rep.role == Role::Leader)
                    .map(|rep| (i, rep.term))
            })
            .max_by_key(|&(_, term)| term)
            .map(|(i, _)| i)
    }

    /// Index (into `replicas`) of the current leader, waiting up to
    /// `timeout` for an election to settle. Polls with exponential
    /// backoff + jitter rather than a fixed-interval spin, so a stalled
    /// election doesn't keep a client thread hot.
    pub fn leader_index(&self, timeout: Duration) -> Result<usize> {
        let deadline = std::time::Instant::now() + timeout;
        let mut backoff = Backoff::for_cluster();
        loop {
            if let Some(i) = self.current_leader() {
                return Ok(i);
            }
            if !backoff.sleep_until_deadline(deadline) {
                return Err(DbError::ShardUnavailable {
                    partition: self.id.raw(),
                    reason: "no leader elected within timeout".into(),
                });
            }
        }
    }

    /// Best-effort read target: a *lease-holding* leader if one appears
    /// within the timeout, otherwise — the degraded-read path — the
    /// running replica with the highest commit index. Returns
    /// `(replica_index, degraded)`. A lease-holding leader serves
    /// linearizable local reads (it cannot have been superseded, so it
    /// has every committed entry — including both halves of any finished
    /// cross-shard commit). A degraded read is *not* linearizable but
    /// keeps analytics available while the partition has no quorum.
    pub fn read_index(&self, leader_timeout: Duration) -> Result<(usize, bool)> {
        let deadline = std::time::Instant::now() + leader_timeout;
        let mut backoff = Backoff::for_cluster();
        loop {
            let leased = self
                .replicas
                .iter()
                .enumerate()
                .filter(|(_, r)| r.raft.is_running())
                .filter_map(|(i, r)| r.raft.report().map(|rep| (i, rep)))
                .filter(|(_, rep)| rep.role == Role::Leader && rep.lease_valid)
                .max_by_key(|(_, rep)| rep.term)
                .map(|(i, _)| i);
            if let Some(i) = leased {
                return Ok((i, false));
            }
            if !backoff.sleep_until_deadline(deadline) {
                break;
            }
        }
        self.replicas
            .iter()
            .enumerate()
            .filter(|(_, r)| r.raft.is_running())
            .filter_map(|(i, r)| r.raft.report().map(|rep| (i, rep.commit_index)))
            .max_by_key(|&(_, ci)| ci)
            .map(|(i, _)| (i, true))
            .ok_or_else(|| DbError::ShardUnavailable {
                partition: self.id.raw(),
                reason: "no running replica".into(),
            })
    }

    /// Proposes a command through the leader, retrying across elections
    /// with exponential backoff + jitter until `timeout`. Returns once
    /// the entry is committed and applied on the leader.
    pub fn propose_cmd(&self, cmd: &ShardCmd, timeout: Duration) -> Result<()> {
        let bytes = cmd.encode();
        let deadline = std::time::Instant::now() + timeout;
        let mut backoff = Backoff::for_cluster();
        loop {
            let leader = self.leader_index(
                deadline.saturating_duration_since(std::time::Instant::now()),
            )?;
            match self.replicas[leader].raft.propose(bytes.clone()) {
                Ok(_) => return Ok(()),
                Err(_) if backoff.sleep_until_deadline(deadline) => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Proposes a row insert through the leader, retrying across
    /// elections with exponential backoff.
    pub fn replicate_insert(&self, row: &Row, timeout: Duration) -> Result<()> {
        self.propose_cmd(&ShardCmd::Insert(row.clone()), timeout)
    }

    /// This partition's prepare vote for `gtxn`: polls the running
    /// replicas until one has applied the `Prepare` (the coordinator calls
    /// this right after proposing it, so normally the leader answers
    /// immediately). Times out with [`DbError::TxnInDoubt`].
    pub fn prepare_outcome(&self, gtxn: u64, timeout: Duration) -> Result<bool> {
        let deadline = std::time::Instant::now() + timeout;
        let mut backoff = Backoff::for_cluster();
        loop {
            let vote = self.running().find_map(|r| r.store.prepare_vote(gtxn));
            if let Some(ok) = vote {
                return Ok(ok);
            }
            if !backoff.sleep_until_deadline(deadline) {
                return Err(DbError::TxnInDoubt { gtxn });
            }
        }
    }

    /// Whether any running replica has applied a decision for `gtxn`.
    pub fn decided(&self, gtxn: u64) -> Option<bool> {
        self.running().find_map(|r| r.store.decided(gtxn))
    }

    /// Global transactions some running replica prepared but never saw
    /// decided — the partition's in-doubt set after a crash.
    pub fn in_doubt(&self) -> Vec<u64> {
        let mut out: Vec<u64> = self.running().flat_map(|r| r.store.in_doubt()).collect();
        out.sort_unstable();
        out.dedup();
        out
    }
}

/// Cluster shape.
#[derive(Debug, Clone, Copy)]
pub struct ClusterConfig {
    /// Number of cluster nodes.
    pub nodes: usize,
    /// Replicas per partition (Raft group size; odd values recommended).
    pub replication: usize,
    /// Number of partitions.
    pub partitions: usize,
    /// Raft timing.
    pub raft: RaftConfig,
}

impl ClusterConfig {
    /// A small default: 3 nodes, RF=3, 6 partitions.
    pub fn small() -> Self {
        ClusterConfig {
            nodes: 3,
            replication: 3,
            partitions: 6,
            raft: RaftConfig::default(),
        }
    }
}

/// A partitioned, replicated table, queried in SQL.
pub struct DistributedTable {
    schema: SchemaRef,
    /// What the coordinator binds statements against: every shard's
    /// catalog, with no rows behind it.
    catalog: Catalog,
    partitioner: Partitioner,
    groups: Vec<PartitionGroup>,
    config: ClusterConfig,
    faults: Arc<FaultInjector>,
}

/// The node a distributed plan is cut at: its `Aggregate`, or its `Scan`
/// when it has none. The cut and everything below it run once per
/// partition; everything above runs once, on the gathered result.
fn cut_of(plan: &LogicalPlan) -> Result<&LogicalPlan> {
    match plan {
        LogicalPlan::Scan { .. } => Ok(plan),
        LogicalPlan::Aggregate { input, .. } => cut_of(input).map(|_| plan),
        LogicalPlan::Filter { input, .. }
        | LogicalPlan::Project { input, .. }
        | LogicalPlan::Sort { input, .. }
        | LogicalPlan::Limit { input, .. } => cut_of(input),
        LogicalPlan::Join { .. } => Err(DbError::Unsupported(
            "a distributed Join: a partition holds only its own rows of the one table".into(),
        )),
    }
}

impl DistributedTable {
    /// The SQL name of the cluster's one table, on the coordinator and in
    /// every shard's database.
    pub const TABLE: &'static str = "t";

    /// Builds the cluster: one Raft group per partition, replicas placed
    /// round-robin over nodes.
    pub fn new(schema: SchemaRef, config: ClusterConfig) -> Result<Self> {
        Self::new_with_faults(schema, config, FaultInjector::disabled())
    }

    /// Builds the cluster with a fault injector shared by every replica's
    /// transport (`raft.*` points), its participant state (`twopc.*`) and
    /// the scatter-gather read path (`scan.partition_fail`). Cross-node
    /// probe interleaving makes the `raft.*` decision *order*
    /// timing-dependent at this scope — safety invariants must hold on
    /// every schedule; for strictly replayable message-level schedules use
    /// [`crate::raft::RaftGroup::spawn_with_faults`] with per-node injectors.
    pub fn new_with_faults(
        schema: SchemaRef,
        config: ClusterConfig,
        faults: Arc<FaultInjector>,
    ) -> Result<Self> {
        if config.replication > config.nodes {
            return Err(DbError::InvalidArgument(
                "replication factor exceeds node count".into(),
            ));
        }
        let partitioner = Partitioner::hash(config.partitions)?;
        let mut catalog = Catalog::new();
        let unpopulated = TableHandle::create(Arc::clone(&schema), TableFormat::Column)?;
        catalog.create(Self::TABLE, unpopulated)?;
        let mut groups = Vec::with_capacity(config.partitions);
        for p in 0..config.partitions {
            let members: Vec<usize> = (0..config.replication)
                .map(|r| (p + r) % config.nodes)
                .collect();
            let network = Arc::new(Network::new());
            let ids: Vec<NodeId> = members.iter().map(|&m| NodeId(m as u64)).collect();
            let mut replicas = Vec::with_capacity(members.len());
            for &id in &ids {
                let store = ReplicaStore::new(Arc::clone(&schema), Arc::clone(&faults));
                // The apply closure needs the node's kill switch to crash
                // the replica at a precise apply point, but the switch only
                // exists once the node is spawned — bridge with a OnceLock.
                let ks_holder: Arc<OnceLock<Arc<std::sync::atomic::AtomicBool>>> =
                    Arc::new(OnceLock::new());
                let (s_apply, s_snap, s_rest) =
                    (Arc::clone(&store), Arc::clone(&store), Arc::clone(&store));
                let ks = Arc::clone(&ks_holder);
                let machine = StateMachine {
                    apply: Arc::new(move |_idx, cmd| {
                        if s_apply.apply(cmd) {
                            if let Some(sw) = ks.get() {
                                sw.store(true, Ordering::SeqCst);
                            }
                        }
                    }),
                    snapshot: Arc::new(move || s_snap.snapshot_bytes()),
                    restore: Arc::new(move |bytes| s_rest.restore_bytes(bytes)),
                };
                let raft = RaftNode::spawn_with_machine(
                    id,
                    ids.clone(),
                    Arc::clone(&network),
                    config.raft,
                    machine,
                    Arc::clone(&faults),
                );
                let _ = ks_holder.set(raft.kill_switch());
                replicas.push(Replica { store, raft });
            }
            groups.push(PartitionGroup {
                id: PartitionId(p as u64),
                members,
                replicas,
                network,
            });
        }
        Ok(DistributedTable {
            schema,
            catalog,
            partitioner,
            groups,
            config,
            faults,
        })
    }

    /// The fault injector wired into this cluster.
    pub fn faults(&self) -> &Arc<FaultInjector> {
        &self.faults
    }

    /// The table schema.
    pub fn schema(&self) -> &SchemaRef {
        &self.schema
    }

    /// The cluster configuration.
    pub fn config(&self) -> ClusterConfig {
        self.config
    }

    /// The partition groups.
    pub fn groups(&self) -> &[PartitionGroup] {
        &self.groups
    }

    /// The partition a row routes to (hash of its primary key).
    pub fn partition_of(&self, row: &Row) -> Result<usize> {
        self.schema.check_row(row)?;
        let key = if self.schema.has_primary_key() {
            self.schema.key_of(row)
        } else {
            row.clone()
        };
        Ok(self.partitioner.partition_of(&key).raw() as usize)
    }

    /// Routes and replicates an insert (durable once a quorum of the
    /// partition's replicas has the log entry).
    pub fn insert(&self, row: Row) -> Result<()> {
        let p = self.partition_of(&row)?;
        self.groups[p].replicate_insert(&row, Duration::from_secs(10))
    }

    /// Runs one SELECT over the whole table (see the module docs): planned
    /// once, its aggregation computed next to the data on every partition,
    /// the partials merged in partition order and finished once.
    pub fn query(&self, sql: &str) -> Result<Vec<Row>> {
        self.query_under(sql, &CancellationToken::new())
    }

    /// [`Self::query`] under the caller's cancellation token: every
    /// partition's fragment and the coordinator's share check it.
    pub fn query_under(&self, sql: &str, cancel: &CancellationToken) -> Result<Vec<Row>> {
        let sel = match parse(sql)? {
            // A timestamp names a snapshot of one shard's clock, not of the
            // cluster.
            Statement::Select(sel) if sel.as_of.is_none() => sel,
            other => {
                return Err(DbError::Unsupported(format!(
                    "a distributed statement is a SELECT without AS OF, not {other:?}"
                )))
            }
        };
        let plan = optimize(bind_select(&sel, &self.catalog)?)?;
        let cut = cut_of(&plan)?;
        let mut partials = self.scatter(cut, cancel)?.into_iter();
        let mut gathered = partials
            .next()
            .ok_or_else(|| DbError::Cluster("a cluster has a partition".into()))?;
        partials.try_for_each(|next| gathered.merge(next))?;
        let ctx = ExecContext {
            cancel: cancel.clone(),
            ..snapshot_ctx(0)
        };
        let leaf = Some((cut, gathered.finish()?));
        let batches = execute_above(&plan, leaf, &self.catalog, &ctx)?;
        Ok(batches.iter().flat_map(|b| b.to_rows()).collect())
    }

    /// Every partition's answer to the fragment `cut`, in partition order,
    /// each computed on a thread of its own. A fragment that panics is its
    /// partition's typed error, not the statement's panic.
    fn scatter(&self, cut: &LogicalPlan, cancel: &CancellationToken) -> Result<Vec<Partial>> {
        std::thread::scope(|scope| {
            let tasks: Vec<_> = self
                .groups
                .iter()
                .map(|g| (g, scope.spawn(move || self.partition_fragment(g, cut, cancel))))
                .collect();
            tasks
                .into_iter()
                .map(|(g, task)| {
                    task.join().unwrap_or_else(|_| {
                        Err(DbError::ShardUnavailable {
                            partition: g.id.raw(),
                            reason: "the partition's fragment panicked".into(),
                        })
                    })
                })
                .collect()
        })
    }

    /// One partition's answer, with per-partition retry: a failed attempt
    /// (injected via `scan.partition_fail`, a transient leader gap, the
    /// fragment's own error) is retried with exponential backoff before the
    /// statement fails with the partition's id. Reads the lease-holding
    /// leader, else — degraded, non-linearizable — the best surviving
    /// replica, through a session of that shard's database: at its snapshot,
    /// under its admission ticket and budget, opening no transaction.
    fn partition_fragment(
        &self,
        g: &PartitionGroup,
        cut: &LogicalPlan,
        cancel: &CancellationToken,
    ) -> Result<Partial> {
        let mut backoff = Backoff::for_cluster();
        let mut reason = String::new();
        for attempt in 0..4 {
            cancel.check()?;
            if attempt > 0 {
                backoff.sleep();
            }
            let answer = if self.faults.should_fire(points::SCAN_PARTITION_FAIL) {
                Err(DbError::FaultInjected(points::SCAN_PARTITION_FAIL.into()))
            } else {
                g.read_index(Duration::from_secs(5)).and_then(|(idx, _degraded)| {
                    let mut session = g.replicas[idx].db().session();
                    session.set_session_cancel(Some(cancel.clone()));
                    session.execute_fragment(cut)
                })
            };
            match answer {
                Ok(partial) => return Ok(partial),
                Err(e) => reason = e.to_string(),
            }
        }
        cancel.check()?;
        Err(DbError::ShardUnavailable {
            partition: g.id.raw(),
            reason,
        })
    }

    /// Runs one [`Database::maintenance`] pass on every running replica:
    /// each shard merges its delta into encoded segments below its own
    /// watermark, which every open — hence every prepared — transaction
    /// pins, so a merge never changes what a snapshot reads.
    pub fn maintenance(&self) {
        for r in self.groups.iter().flat_map(|g| g.running()) {
            r.db().maintenance();
        }
    }

    /// Crashes every replica hosted on cluster node `node`.
    pub fn crash_node(&self, node: usize) {
        for g in &self.groups {
            for (i, &m) in g.members.iter().enumerate() {
                if m == node {
                    g.replicas[i].raft.crash();
                }
            }
        }
    }

    /// Restarts every replica hosted on cluster node `node`.
    pub fn restart_node(&self, node: usize) {
        for g in &self.groups {
            for (i, &m) in g.members.iter().enumerate() {
                if m == node {
                    g.replicas[i].raft.restart();
                }
            }
        }
    }

    /// Restarts every replica on `node` after *wiping* its local storage
    /// (the machine came back with its Raft log but an empty data disk).
    /// The restarted Raft workers re-apply the whole log into the fresh
    /// tables, so the node converges back to the replicated state.
    pub fn restart_node_rebuilt(&self, node: usize) {
        for g in &self.groups {
            for (i, &m) in g.members.iter().enumerate() {
                if m == node {
                    g.replicas[i].store.wipe();
                    g.replicas[i].raft.restart();
                }
            }
        }
    }

    /// Waits until every running replica of every partition has applied
    /// the partition's highest commit index (quiesce helper for tests).
    pub fn wait_converged(&self, timeout: Duration) -> bool {
        let deadline = std::time::Instant::now() + timeout;
        loop {
            let converged = self.groups.iter().all(|g| {
                let reports: Option<Vec<NodeReport>> = g.running().map(|r| r.raft.report()).collect();
                reports.is_some_and(|reports| {
                    let committed = reports.iter().map(|rep| rep.commit_index).max();
                    reports.iter().all(|rep| Some(rep.last_applied) == committed)
                })
            });
            if converged {
                return true;
            }
            if std::time::Instant::now() > deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oltap_common::row;
    use oltap_common::{DataType, Field, Schema, Value};

    /// Every visible row, in key order.
    fn all_rows(t: &DistributedTable) -> Vec<Row> {
        t.query("SELECT * FROM t ORDER BY id").unwrap()
    }

    /// `COUNT(*), SUM(v)` over the whole table.
    fn count_and_sum(t: &DistributedTable) -> Row {
        t.query("SELECT COUNT(*), SUM(v) FROM t").unwrap().remove(0)
    }

    fn schema() -> SchemaRef {
        Arc::new(
            Schema::with_primary_key(
                vec![
                    Field::not_null("id", DataType::Int64),
                    Field::new("v", DataType::Int64),
                ],
                &["id"],
            )
            .unwrap(),
        )
    }

    #[test]
    fn insert_and_aggregate() {
        let t = DistributedTable::new(schema(), ClusterConfig::small()).unwrap();
        for i in 0..60 {
            t.insert(row![i as i64, 1i64]).unwrap();
        }
        assert_eq!(count_and_sum(&t), row![60i64, 60i64]);
    }

    #[test]
    fn matches_single_node_oracle() {
        let t = DistributedTable::new(schema(), ClusterConfig::small()).unwrap();
        let local = empty_shard(&schema());
        for i in 0..40 {
            let r = row![i as i64, (i % 7) as i64];
            t.insert(r.clone()).unwrap();
            local.execute(&format!("INSERT INTO t VALUES ({i}, {})", i % 7)).unwrap();
        }
        let sql = "SELECT COUNT(*), SUM(v) FROM t WHERE v >= 3";
        assert_eq!(t.query(sql).unwrap(), local.query(sql).unwrap());
    }

    #[test]
    fn rows_partition_consistently() {
        let t = DistributedTable::new(schema(), ClusterConfig::small()).unwrap();
        for i in 0..30 {
            t.insert(row![i as i64, i as i64]).unwrap();
        }
        let rows = all_rows(&t);
        assert_eq!(rows.len(), 30);
        assert_eq!(rows[0][0], Value::Int(0));
        assert_eq!(rows[29][0], Value::Int(29));
    }

    #[test]
    fn replicas_converge() {
        let t = DistributedTable::new(schema(), ClusterConfig::small()).unwrap();
        for i in 0..20 {
            t.insert(row![i as i64, 1i64]).unwrap();
        }
        assert!(t.wait_converged(Duration::from_secs(10)));
        // Every replica of every partition holds identical data.
        for g in t.groups() {
            let views: Vec<Vec<Row>> = g
                .replicas
                .iter()
                .map(|r| r.db().query("SELECT * FROM t ORDER BY id").unwrap())
                .collect();
            for w in views.windows(2) {
                assert_eq!(w[0], w[1], "replica divergence in {}", g.id);
            }
        }
    }

    #[test]
    fn survives_single_node_crash() {
        let t = DistributedTable::new(schema(), ClusterConfig::small()).unwrap();
        for i in 0..10 {
            t.insert(row![i as i64, 1i64]).unwrap();
        }
        t.crash_node(1);
        // Writes and reads continue on the surviving majority.
        for i in 10..20 {
            t.insert(row![i as i64, 1i64]).unwrap();
        }
        assert_eq!(count_and_sum(&t)[0], Value::Int(20));
        // The crashed node catches up after restart.
        t.restart_node(1);
        assert!(t.wait_converged(Duration::from_secs(15)));
    }

    #[test]
    fn degraded_read_without_quorum() {
        let cfg = ClusterConfig {
            nodes: 3,
            replication: 3,
            partitions: 1,
            raft: RaftConfig::default(),
        };
        let t = DistributedTable::new(schema(), cfg).unwrap();
        for i in 0..12 {
            t.insert(row![i as i64, 1i64]).unwrap();
        }
        assert!(t.wait_converged(Duration::from_secs(10)));
        // Kill two of three replicas: the survivor cannot win an election,
        // so the partition has no leader...
        let g = &t.groups()[0];
        let survivor = (g.leader_index(Duration::from_secs(5)).unwrap() + 1) % 3;
        for i in 0..3 {
            if i != survivor {
                g.replicas[i].raft.crash();
            }
        }
        assert!(g.leader_index(Duration::from_millis(600)).is_err());
        // ...but the degraded-read path still serves the replicated data.
        let (idx, degraded) = g.read_index(Duration::from_millis(300)).unwrap();
        assert_eq!(idx, survivor);
        assert!(degraded);
        assert_eq!(count_and_sum(&t)[0], Value::Int(12));
    }

    #[test]
    fn wiped_replica_rebuilds_from_raft_log() {
        let cfg = ClusterConfig {
            nodes: 3,
            replication: 3,
            partitions: 2,
            raft: RaftConfig::default(),
        };
        let t = DistributedTable::new(schema(), cfg).unwrap();
        for i in 0..24 {
            t.insert(row![i as i64, i as i64]).unwrap();
        }
        assert!(t.wait_converged(Duration::from_secs(10)));
        let before = all_rows(&t);

        // Node 2 loses its data disk entirely, then comes back: local
        // tables are empty until the Raft log is re-applied.
        t.crash_node(2);
        for g in t.groups() {
            for (i, &m) in g.members.iter().enumerate() {
                if m == 2 {
                    g.replicas[i].store.wipe();
                    let held = g.replicas[i].db().query("SELECT COUNT(*) FROM t").unwrap();
                    assert_eq!(held, vec![row![0i64]]);
                }
            }
        }
        t.restart_node_rebuilt(2);
        assert!(
            t.wait_converged(Duration::from_secs(15)),
            "wiped node failed to rebuild from the log"
        );
        assert_eq!(all_rows(&t), before);
    }

    #[test]
    fn scan_retries_through_injected_partition_failure() {
        use oltap_common::fault::FaultPoint;
        let faults = FaultInjector::new(0xD15C);
        // The first two partition scans fail; retries succeed.
        faults.arm(points::SCAN_PARTITION_FAIL, FaultPoint::times(2));
        let cfg = ClusterConfig {
            nodes: 3,
            replication: 3,
            partitions: 2,
            raft: RaftConfig::default(),
        };
        let t = DistributedTable::new_with_faults(schema(), cfg, Arc::clone(&faults)).unwrap();
        for i in 0..10 {
            t.insert(row![i as i64, 1i64]).unwrap();
        }
        assert_eq!(count_and_sum(&t), row![10i64, 10i64]);
        assert_eq!(faults.fired_count(), 2, "both armed failures consumed");
    }

    #[test]
    fn shard_cmd_roundtrip() {
        let cmds = vec![
            ShardCmd::Insert(row![1i64, 2i64]),
            ShardCmd::Prepare {
                gtxn: 0xDEAD_BEEF,
                rows: vec![row![3i64, 4i64], row![5i64, 6i64]],
            },
            ShardCmd::Prepare {
                gtxn: 7,
                rows: vec![],
            },
            ShardCmd::Decide {
                gtxn: 42,
                commit: true,
            },
            ShardCmd::Decide {
                gtxn: 43,
                commit: false,
            },
        ];
        for cmd in cmds {
            assert_eq!(ShardCmd::decode(&cmd.encode()).unwrap(), cmd);
        }
        assert!(ShardCmd::decode(&[]).is_err());
        assert!(ShardCmd::decode(&[9, 0, 0]).is_err());
        assert!(ShardCmd::decode(&[1, 1, 2]).is_err());
    }

    #[test]
    fn prepared_rows_invisible_until_decided() {
        let cfg = ClusterConfig {
            nodes: 3,
            replication: 3,
            partitions: 1,
            raft: RaftConfig::default(),
        };
        let t = DistributedTable::new(schema(), cfg).unwrap();
        let g = &t.groups()[0];
        g.propose_cmd(
            &ShardCmd::Prepare {
                gtxn: 101,
                rows: vec![row![1i64, 10i64], row![2i64, 20i64]],
            },
            Duration::from_secs(10),
        )
        .unwrap();
        assert!(
            g.prepare_outcome(101, Duration::from_secs(5)).unwrap(),
            "clean staging must vote commit"
        );
        // Staged versions are pending: invisible to reads.
        assert_eq!(all_rows(&t).len(), 0);
        assert_eq!(g.in_doubt(), vec![101]);
        // Decision commits them.
        g.propose_cmd(
            &ShardCmd::Decide {
                gtxn: 101,
                commit: true,
            },
            Duration::from_secs(10),
        )
        .unwrap();
        assert_eq!(all_rows(&t).len(), 2);
        // Followers apply the decision asynchronously; poll until the
        // whole group has cleared its in-doubt set.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while !g.in_doubt().is_empty() {
            assert!(
                std::time::Instant::now() < deadline,
                "decision never cleared the in-doubt set"
            );
            std::thread::sleep(Duration::from_millis(20));
        }
        assert_eq!(g.decided(101), Some(true));
    }

    #[test]
    fn aborted_prepare_rolls_back_staged_rows() {
        let cfg = ClusterConfig {
            nodes: 3,
            replication: 3,
            partitions: 1,
            raft: RaftConfig::default(),
        };
        let t = DistributedTable::new(schema(), cfg).unwrap();
        let g = &t.groups()[0];
        g.propose_cmd(
            &ShardCmd::Prepare {
                gtxn: 55,
                rows: vec![row![9i64, 90i64]],
            },
            Duration::from_secs(10),
        )
        .unwrap();
        g.propose_cmd(
            &ShardCmd::Decide {
                gtxn: 55,
                commit: false,
            },
            Duration::from_secs(10),
        )
        .unwrap();
        assert_eq!(all_rows(&t).len(), 0, "abort leaves no rows");
        assert_eq!(g.decided(55), Some(false));
        // A later insert of the same key succeeds: the staged version was
        // rolled back, not leaked.
        t.insert(row![9i64, 91i64]).unwrap();
        assert_eq!(all_rows(&t).len(), 1);
    }

    #[test]
    fn participant_outcomes_are_bounded() {
        let cfg = ClusterConfig {
            nodes: 1,
            replication: 1,
            partitions: 1,
            raft: RaftConfig::default(),
        };
        let t = DistributedTable::new(schema(), cfg).unwrap();
        let g = &t.groups()[0];
        let n = (OUTCOME_RETENTION * 2 + 8) as u64;
        for gtxn in 1..=n {
            g.propose_cmd(
                &ShardCmd::Prepare {
                    gtxn,
                    rows: vec![row![gtxn as i64, 0i64]],
                },
                Duration::from_secs(10),
            )
            .unwrap();
            g.propose_cmd(
                &ShardCmd::Decide { gtxn, commit: false },
                Duration::from_secs(10),
            )
            .unwrap();
        }
        let store = &g.replicas[0].store;
        let retained = store.twopc.lock().outcomes.len();
        assert!(
            retained < OUTCOME_RETENTION * 2,
            "outcomes grew unbounded: {retained}"
        );
        // Recent outcomes are retained for idempotent re-delivery; the
        // oldest were forgotten.
        assert_eq!(store.decided(n), Some(false));
        assert_eq!(store.decided(1), None);
        // The in-doubt set is the undecided prepares, and only those.
        assert!(store.in_doubt().is_empty());
        g.propose_cmd(
            &ShardCmd::Prepare {
                gtxn: n + 1,
                rows: vec![row![(n + 1) as i64, 0i64]],
            },
            Duration::from_secs(10),
        )
        .unwrap();
        assert_eq!(store.in_doubt(), vec![n + 1]);
        assert_eq!(store.dropped_commands(), 0);
    }

    #[test]
    fn leaderless_partition_reports_shard_unavailable() {
        let cfg = ClusterConfig {
            nodes: 3,
            replication: 3,
            partitions: 1,
            raft: RaftConfig::default(),
        };
        let t = DistributedTable::new(schema(), cfg).unwrap();
        let g = &t.groups()[0];
        // Kill everything: both the leader wait and the degraded fallback
        // must fail with the typed error naming the partition.
        for r in &g.replicas {
            r.raft.crash();
        }
        match g.leader_index(Duration::from_millis(200)) {
            Err(DbError::ShardUnavailable { partition, .. }) => assert_eq!(partition, 0),
            other => panic!("expected ShardUnavailable, got {other:?}"),
        }
        match g.read_index(Duration::from_millis(200)) {
            Err(DbError::ShardUnavailable { partition, .. }) => assert_eq!(partition, 0),
            other => panic!("expected ShardUnavailable, got {other:?}"),
        }
    }

    #[test]
    fn rejects_rf_above_nodes() {
        let cfg = ClusterConfig {
            nodes: 2,
            replication: 3,
            partitions: 2,
            raft: RaftConfig::default(),
        };
        assert!(DistributedTable::new(schema(), cfg).is_err());
    }

    #[test]
    fn replication_factor_one_works() {
        let cfg = ClusterConfig {
            nodes: 3,
            replication: 1,
            partitions: 3,
            raft: RaftConfig::default(),
        };
        let t = DistributedTable::new(schema(), cfg).unwrap();
        for i in 0..15 {
            t.insert(row![i as i64, 2i64]).unwrap();
        }
        assert_eq!(count_and_sum(&t), row![15i64, 30i64]);
    }
}
