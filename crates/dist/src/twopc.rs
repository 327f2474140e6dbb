//! Cross-shard atomic commit: two-phase commit where *both* the
//! participants and the coordinator's decision log are Raft-replicated.
//!
//! The classic 2PC availability flaw — a coordinator crash between
//! prepare and decision blocks participants forever — is repaired the way
//! Spanner-style systems do it: the decision is a replicated log record,
//! so any successor coordinator can read it and finish the protocol. The
//! protocol is **presumed abort**: a prepared transaction with *no*
//! decision record is aborted during recovery, so the coordinator never
//! has to log anything before the prepare phase.
//!
//! State machines (see DESIGN.md for the full argument):
//!
//! ```text
//! coordinator:  working → prepared-all → decision logged → delivered → ended
//!                  │            │                │
//!                  └─ crash ────┴─> recovery: no decision record ⇒ ABORT
//!                                              decision record   ⇒ re-deliver
//! participant:  idle → PREPARED (versions pinned, in the Raft log) → committed/aborted
//!                           │
//!                           └─ crash ⇒ restart re-stages from log/snapshot,
//!                              stays in doubt until the coordinator resolves
//! ```
//!
//! Chaos hooks: `twopc.coord_crash_after_prepare`,
//! `twopc.coord_crash_after_decision`, `twopc.participant_crash_prepared`,
//! and `twopc.decision_msg_drop` (see [`oltap_common::fault::points`]).

use crate::cluster::{DistributedTable, ShardCmd};
use crate::raft::{RaftConfig, RaftGroup};
use oltap_common::fault::{points, FaultInjector};
use oltap_common::retry::Backoff;
use oltap_common::{DbError, Result, Row};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A record in the replicated coordinator log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoordRecord {
    /// A coordinator incarnation's epoch claim (gtxn namespace fence).
    /// The claimed epoch is *not* stored: it is the record's 1-based
    /// ordinal among all `Epoch` records in committed log order, so it
    /// derives from the log itself, never from a possibly-stale read.
    Epoch {
        /// Uniquely identifies which incarnation appended this claim.
        nonce: u64,
    },
    /// The commit decision for `gtxn` — the 2PC commit point.
    Commit {
        /// Global transaction id.
        gtxn: u64,
    },
    /// The abort decision for `gtxn`.
    Abort {
        /// Global transaction id.
        gtxn: u64,
    },
    /// All participants acknowledged the decision; recovery can skip it.
    End {
        /// Global transaction id.
        gtxn: u64,
    },
}

impl CoordRecord {
    /// Serializes the record (tag byte + u64 payload).
    pub fn encode(&self) -> Vec<u8> {
        let (tag, v) = match *self {
            CoordRecord::Epoch { nonce } => (0u8, nonce),
            CoordRecord::Commit { gtxn } => (1, gtxn),
            CoordRecord::Abort { gtxn } => (2, gtxn),
            CoordRecord::End { gtxn } => (3, gtxn),
        };
        let mut buf = Vec::with_capacity(9);
        buf.push(tag);
        buf.extend_from_slice(&v.to_le_bytes());
        buf
    }

    /// Decodes a record produced by [`CoordRecord::encode`].
    pub fn decode(bytes: &[u8]) -> Result<CoordRecord> {
        if bytes.len() != 9 {
            return Err(DbError::Corruption("bad coordinator record length".into()));
        }
        let v = u64::from_le_bytes(bytes[1..9].try_into().unwrap());
        match bytes[0] {
            0 => Ok(CoordRecord::Epoch { nonce: v }),
            1 => Ok(CoordRecord::Commit { gtxn: v }),
            2 => Ok(CoordRecord::Abort { gtxn: v }),
            3 => Ok(CoordRecord::End { gtxn: v }),
            t => Err(DbError::Corruption(format!("bad coordinator tag {t}"))),
        }
    }
}

/// The outcome of a cross-shard transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TwoPcOutcome {
    /// Every shard committed.
    Committed,
    /// Every shard aborted (some participant voted no or was unreachable).
    Aborted,
}

/// What [`TwoPcCoordinator::resolve_in_doubt`] did.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Transactions with a logged decision that was re-delivered.
    pub resumed: Vec<u64>,
    /// Prepared transactions with no decision record, aborted by
    /// presumption.
    pub presumed_aborted: Vec<u64>,
}

/// Cross-shard transaction coordinator backed by a replicated decision
/// log. Cheap to drop and re-[`attach`](Self::attach) — exactly what a
/// crash-restart does: all durable state lives in the Raft group.
pub struct TwoPcCoordinator {
    log: Arc<RaftGroup>,
    epoch: u64,
    seq: AtomicU64,
    faults: Arc<FaultInjector>,
}

/// How long each coordinator-driven step may retry before the txn is
/// declared in doubt.
const STEP_TIMEOUT: Duration = Duration::from_secs(10);

impl TwoPcCoordinator {
    /// Spawns a fresh `replication`-way replicated coordinator log and
    /// attaches to it.
    pub fn new(replication: usize, faults: Arc<FaultInjector>) -> Result<TwoPcCoordinator> {
        let log = Arc::new(RaftGroup::spawn(replication, RaftConfig::default()));
        Self::attach(log, faults)
    }

    /// Attaches a (possibly recovering) coordinator to an existing log:
    /// claims the next epoch so this incarnation's gtxns cannot collide
    /// with ids handed out before a crash — even ones whose prepares are
    /// still floating around un-decided.
    ///
    /// The claim goes through a *committed barrier*: a nonce'd `Epoch`
    /// record is replicated first, and the epoch is then derived from
    /// that record's position among all `Epoch` records in log order.
    /// Deriving it from a replica read instead (e.g. max-seen epoch + 1)
    /// would let two racing incarnations claim the same epoch whenever
    /// the read missed a committed-but-not-yet-applied claim.
    pub fn attach(
        log: Arc<RaftGroup>,
        faults: Arc<FaultInjector>,
    ) -> Result<TwoPcCoordinator> {
        static ATTACH_NONCE: AtomicU64 = AtomicU64::new(1);
        let nonce = ATTACH_NONCE.fetch_add(1, Ordering::SeqCst);
        Self::log_record_to(&log, CoordRecord::Epoch { nonce })?;
        // `log_record_to` returns only after the record is applied on the
        // log leader, whose applied list is the longest — so the re-read
        // below is guaranteed to include our claim and every claim
        // committed before it.
        let mut ordinal = 0u64;
        let mut epoch = None;
        for r in Self::records_of(&log) {
            if let CoordRecord::Epoch { nonce: n } = r {
                ordinal += 1;
                if n == nonce {
                    epoch = Some(ordinal);
                    break;
                }
            }
        }
        let epoch = epoch.ok_or_else(|| {
            DbError::Cluster("epoch claim not visible after commit".into())
        })?;
        Ok(TwoPcCoordinator {
            log,
            epoch,
            seq: AtomicU64::new(0),
            faults,
        })
    }

    /// The replicated coordinator log (share it to simulate a successor
    /// coordinator taking over after a crash).
    pub fn log(&self) -> Arc<RaftGroup> {
        Arc::clone(&self.log)
    }

    /// This incarnation's epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Allocates a globally unique transaction id: `epoch << 32 | seq`.
    fn next_gtxn(&self) -> u64 {
        let seq = self.seq.fetch_add(1, Ordering::SeqCst) + 1;
        // The epoch fence lives in the high 32 bits; letting seq bleed
        // into them would break cross-incarnation uniqueness.
        assert!(
            seq <= u64::from(u32::MAX),
            "gtxn sequence exhausted for epoch {}: re-attach for a fresh epoch",
            self.epoch
        );
        (self.epoch << 32) | seq
    }

    /// The applied coordinator records, read from the most caught-up
    /// running replica of the log group.
    fn records_of(log: &RaftGroup) -> Vec<CoordRecord> {
        let mut best: Vec<CoordRecord> = Vec::new();
        for (i, node) in log.nodes.iter().enumerate() {
            if !node.is_running() {
                continue;
            }
            let records: Vec<CoordRecord> = log.applied[i]
                .lock()
                .iter()
                .filter_map(|(_, cmd)| CoordRecord::decode(cmd).ok())
                .collect();
            if records.len() > best.len() {
                best = records;
            }
        }
        best
    }

    /// All applied records (recovery + tests).
    pub fn records(&self) -> Vec<CoordRecord> {
        Self::records_of(&self.log)
    }

    /// The logged decision for `gtxn`, if any. The **first** decision
    /// record in log order wins: racing coordinator incarnations may
    /// append a later conflicting record, which every reader ignores, so
    /// all incarnations converge on one outcome.
    pub fn decision_for(&self, gtxn: u64) -> Option<bool> {
        self.records().iter().find_map(|r| match *r {
            CoordRecord::Commit { gtxn: g } if g == gtxn => Some(true),
            CoordRecord::Abort { gtxn: g } if g == gtxn => Some(false),
            _ => None,
        })
    }

    /// Appends a record to the replicated log, retrying across log-group
    /// elections. Returns only once the record is committed and applied
    /// on the log leader — the durability point.
    fn log_record(&self, rec: CoordRecord) -> Result<()> {
        Self::log_record_to(&self.log, rec)
    }

    fn log_record_to(log: &RaftGroup, rec: CoordRecord) -> Result<()> {
        let bytes = rec.encode();
        let deadline = Instant::now() + STEP_TIMEOUT;
        let mut backoff = Backoff::for_cluster();
        loop {
            let leader = log
                .nodes
                .iter()
                .enumerate()
                .filter(|(_, n)| n.is_running())
                .filter_map(|(i, n)| n.report().map(|rep| (i, rep)))
                .filter(|(_, rep)| rep.role == crate::raft::Role::Leader)
                .max_by_key(|(_, rep)| rep.term)
                .map(|(i, _)| i);
            if let Some(i) = leader {
                if log.nodes[i].propose(bytes.clone()).is_ok() {
                    return Ok(());
                }
            }
            if !backoff.sleep_until_deadline(deadline) {
                return Err(DbError::Cluster(
                    "coordinator log unavailable: decision not durable".into(),
                ));
            }
        }
    }

    /// Makes the decision for `gtxn` durable, **first-writer-wins**
    /// across racing coordinator incarnations: if the log already holds
    /// a decision for `gtxn`, it is adopted and nothing is appended; if
    /// a racer appends between our read and our write, the re-read below
    /// yields whichever record landed first in log order. Either way the
    /// caller must act on the *returned* decision, which may differ from
    /// the one it proposed.
    fn log_decision(&self, gtxn: u64, commit: bool) -> Result<bool> {
        if let Some(existing) = self.decision_for(gtxn) {
            return Ok(existing);
        }
        let rec = if commit {
            CoordRecord::Commit { gtxn }
        } else {
            CoordRecord::Abort { gtxn }
        };
        self.log_record(rec)?;
        Ok(self.decision_for(gtxn).unwrap_or(commit))
    }

    /// Runs a cross-shard atomic commit of `rows` into `table`.
    ///
    /// Phase 1 replicates a `Prepare` through every participant
    /// partition's Raft log and collects votes; the decision is then made
    /// durable in the coordinator log *before* phase 2 delivers it. A
    /// `TxnInDoubt` error models a coordinator crash mid-protocol: the
    /// transaction is neither committed nor aborted until a successor
    /// calls [`resolve_in_doubt`](Self::resolve_in_doubt).
    pub fn commit_rows(
        &self,
        table: &DistributedTable,
        rows: Vec<Row>,
    ) -> Result<TwoPcOutcome> {
        let mut by_part: BTreeMap<usize, Vec<Row>> = BTreeMap::new();
        for row in rows {
            by_part.entry(table.partition_of(&row)?).or_default().push(row);
        }
        if by_part.is_empty() {
            return Ok(TwoPcOutcome::Committed);
        }
        let gtxn = self.next_gtxn();
        let groups = table.groups();

        // Phase 1: prepare every participant; any failure → abort vote.
        // (A participant that never saw the prepare aborts by presumption,
        // so a propose error here is safe to treat as a no vote.)
        let mut all_ok = true;
        for (&p, prows) in &by_part {
            let prepared = groups[p]
                .propose_cmd(
                    &ShardCmd::Prepare {
                        gtxn,
                        rows: prows.clone(),
                    },
                    STEP_TIMEOUT,
                )
                .and_then(|()| groups[p].prepare_outcome(gtxn, STEP_TIMEOUT));
            if !matches!(prepared, Ok(true)) {
                all_ok = false;
                break;
            }
        }

        // Chaos: coordinator dies after prepares, before logging any
        // decision. Recovery must presume abort.
        if self.faults.should_fire(points::TWOPC_COORD_CRASH_AFTER_PREPARE) {
            return Err(DbError::TxnInDoubt { gtxn });
        }

        // Commit point: the decision record is replicated. If this fails
        // the txn stays in doubt (presumed abort on recovery). The
        // *effective* decision may differ from our vote if a successor
        // coordinator raced us and its record landed first — we must
        // deliver and report what the log says, not what we wanted.
        let commit = match self.log_decision(gtxn, all_ok) {
            Ok(c) => c,
            Err(_) => return Err(DbError::TxnInDoubt { gtxn }),
        };

        // Chaos: coordinator dies right after the decision is durable but
        // before delivering it. Recovery must *re-deliver*, not abort.
        if self.faults.should_fire(points::TWOPC_COORD_CRASH_AFTER_DECISION) {
            return Err(DbError::TxnInDoubt { gtxn });
        }

        // Phase 2: deliver the decision to every participant until each
        // acknowledges (applies) it. Lost messages are retried — the
        // decision is idempotent on the participant side.
        self.deliver_decision(table, by_part.keys().copied(), gtxn, commit)?;

        // Forgettable: all participants acked, recovery can skip this txn.
        let _ = self.log_record(CoordRecord::End { gtxn });
        Ok(if commit {
            TwoPcOutcome::Committed
        } else {
            TwoPcOutcome::Aborted
        })
    }

    /// Delivers `Decide` to each listed partition until it has applied an
    /// outcome, retrying with backoff. The `twopc.decision_msg_drop` fault
    /// models the message being lost in flight.
    fn deliver_decision(
        &self,
        table: &DistributedTable,
        parts: impl Iterator<Item = usize>,
        gtxn: u64,
        commit: bool,
    ) -> Result<()> {
        let groups = table.groups();
        for p in parts {
            let deadline = Instant::now() + STEP_TIMEOUT;
            let mut backoff = Backoff::for_cluster();
            loop {
                match groups[p].decided(gtxn) {
                    Some(applied) if applied == commit => break,
                    Some(applied) => {
                        // The participant applied the *opposite* outcome:
                        // a conflicting decision escaped the first-writer
                        // fence. Never report success over a torn commit.
                        return Err(DbError::Cluster(format!(
                            "conflicting 2PC outcomes for gtxn {gtxn}: \
                             delivering commit={commit} but partition {p} \
                             applied commit={applied}"
                        )));
                    }
                    None => {}
                }
                let dropped = self.faults.should_fire(points::TWOPC_DECISION_MSG_DROP);
                if !dropped {
                    let _ = groups[p].propose_cmd(
                        &ShardCmd::Decide { gtxn, commit },
                        Duration::from_secs(2),
                    );
                    if groups[p].decided(gtxn).is_some() {
                        continue; // re-enter the verified check above
                    }
                }
                if !backoff.sleep_until_deadline(deadline) {
                    return Err(DbError::TxnInDoubt { gtxn });
                }
            }
        }
        Ok(())
    }

    /// Finishes every transaction a crashed predecessor left behind.
    ///
    /// Two sources of doubt, two rules:
    /// * A **logged decision without an `End`** is re-delivered to every
    ///   partition (idempotent; partitions that never prepared it just
    ///   record the outcome).
    /// * A **prepared-but-undecided** gtxn reported by some participant
    ///   is **presumed aborted**: the abort is logged first (so the
    ///   answer is stable if we crash again), then delivered.
    pub fn resolve_in_doubt(&self, table: &DistributedTable) -> Result<RecoveryReport> {
        let records = self.records();
        let mut decisions: BTreeMap<u64, bool> = BTreeMap::new();
        let mut ended: Vec<u64> = Vec::new();
        for r in &records {
            match *r {
                // First decision record wins, matching `decision_for`.
                CoordRecord::Commit { gtxn } => {
                    decisions.entry(gtxn).or_insert(true);
                }
                CoordRecord::Abort { gtxn } => {
                    decisions.entry(gtxn).or_insert(false);
                }
                CoordRecord::End { gtxn } => ended.push(gtxn),
                CoordRecord::Epoch { .. } => {}
            }
        }
        let mut report = RecoveryReport::default();
        let all_parts: Vec<usize> = (0..table.groups().len()).collect();

        // Rule 1: decided but not ended — someone may still be waiting.
        for (&gtxn, &commit) in &decisions {
            if ended.contains(&gtxn) {
                continue;
            }
            self.deliver_decision(table, all_parts.iter().copied(), gtxn, commit)?;
            let _ = self.log_record(CoordRecord::End { gtxn });
            report.resumed.push(gtxn);
        }

        // Rule 2: prepared somewhere, no decision record — presumed abort.
        let mut in_doubt: Vec<u64> = table
            .groups()
            .iter()
            .flat_map(|g| g.in_doubt())
            .filter(|g| !decisions.contains_key(g))
            .collect();
        in_doubt.sort_unstable();
        in_doubt.dedup();
        for gtxn in in_doubt {
            // Log the abort *before* delivering: if we crash mid-delivery
            // the next recovery finds a decision, not fresh doubt. A
            // still-running predecessor may have logged a commit since we
            // read the records above — `log_decision` adopts whichever
            // record landed first, so we deliver *its* outcome rather
            // than appending a conflicting abort.
            let commit = self.log_decision(gtxn, false)?;
            self.deliver_decision(table, all_parts.iter().copied(), gtxn, commit)?;
            let _ = self.log_record(CoordRecord::End { gtxn });
            if commit {
                report.resumed.push(gtxn);
            } else {
                report.presumed_aborted.push(gtxn);
            }
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oltap_common::fault::FaultPoint;
    use oltap_common::row;
    use oltap_common::schema::SchemaRef;
    use oltap_common::{DataType, Field, Schema};
    use crate::cluster::ClusterConfig;

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

    fn cluster() -> DistributedTable {
        let cfg = ClusterConfig {
            nodes: 3,
            replication: 3,
            partitions: 4,
            raft: RaftConfig::default(),
        };
        DistributedTable::new(schema(), cfg).unwrap()
    }

    fn spread_rows(n: i64) -> Vec<Row> {
        (0..n).map(|i| row![i, i * 10]).collect()
    }

    /// Followers apply decisions asynchronously; wait for every replica's
    /// in-doubt set to drain.
    fn wait_no_doubt(t: &DistributedTable) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while t.groups().iter().any(|g| !g.in_doubt().is_empty()) {
            assert!(Instant::now() < deadline, "in-doubt set never drained");
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    #[test]
    fn coord_record_roundtrip() {
        for rec in [
            CoordRecord::Epoch { nonce: 3 },
            CoordRecord::Commit { gtxn: u64::MAX },
            CoordRecord::Abort { gtxn: 0 },
            CoordRecord::End { gtxn: 99 },
        ] {
            assert_eq!(CoordRecord::decode(&rec.encode()).unwrap(), rec);
        }
        assert!(CoordRecord::decode(&[1, 2, 3]).is_err());
        assert!(CoordRecord::decode(&[7, 0, 0, 0, 0, 0, 0, 0, 0]).is_err());
    }

    #[test]
    fn cross_shard_commit_lands_on_every_partition() {
        let t = cluster();
        let coord = TwoPcCoordinator::new(3, FaultInjector::disabled()).unwrap();
        let rows = spread_rows(8);
        assert_eq!(
            coord.commit_rows(&t, rows.clone()).unwrap(),
            TwoPcOutcome::Committed
        );
        let mut expect = rows;
        expect.sort();
        assert_eq!(t.query("SELECT * FROM t ORDER BY id").unwrap(), expect);
        // More than one partition actually participated.
        let touched = (0..8)
            .map(|i| t.partition_of(&row![i as i64, 0i64]).unwrap())
            .collect::<std::collections::BTreeSet<_>>();
        assert!(touched.len() > 1, "test rows all hashed to one partition");
    }

    #[test]
    fn duplicate_key_aborts_all_shards() {
        let t = cluster();
        let coord = TwoPcCoordinator::new(3, FaultInjector::disabled()).unwrap();
        // Pre-insert a row that will collide with the batch on one shard.
        t.insert(row![3i64, 999i64]).unwrap();
        let outcome = coord.commit_rows(&t, spread_rows(8)).unwrap();
        assert_eq!(outcome, TwoPcOutcome::Aborted);
        // Atomicity: *no* row of the batch survives anywhere, only the
        // pre-existing one.
        assert_eq!(t.query("SELECT * FROM t ORDER BY id").unwrap(), vec![row![3i64, 999i64]]);
    }

    #[test]
    fn successor_coordinator_presumes_abort_without_decision() {
        let faults = FaultInjector::new(0x27C0);
        faults.arm(points::TWOPC_COORD_CRASH_AFTER_PREPARE, FaultPoint::times(1));
        let t = cluster();
        let coord = TwoPcCoordinator::new(3, Arc::clone(&faults)).unwrap();
        let err = coord.commit_rows(&t, spread_rows(6)).unwrap_err();
        assert!(matches!(err, DbError::TxnInDoubt { .. }));
        // Participants hold prepared state...
        assert!(t.groups().iter().any(|g| !g.in_doubt().is_empty()));
        // ...until a successor attaches and resolves by presumed abort.
        let log = coord.log();
        drop(coord);
        let coord2 = TwoPcCoordinator::attach(log, FaultInjector::disabled()).unwrap();
        let report = coord2.resolve_in_doubt(&t).unwrap();
        assert_eq!(report.presumed_aborted.len(), 1);
        assert!(report.resumed.is_empty());
        assert_eq!(t.query("SELECT * FROM t ORDER BY id").unwrap(), Vec::<Row>::new());
        wait_no_doubt(&t);
    }

    #[test]
    fn successor_coordinator_resumes_logged_commit() {
        let faults = FaultInjector::new(0xC0FFEE);
        faults.arm(
            points::TWOPC_COORD_CRASH_AFTER_DECISION,
            FaultPoint::times(1),
        );
        let t = cluster();
        let coord = TwoPcCoordinator::new(3, Arc::clone(&faults)).unwrap();
        let rows = spread_rows(6);
        let err = coord.commit_rows(&t, rows.clone()).unwrap_err();
        let gtxn = match err {
            DbError::TxnInDoubt { gtxn } => gtxn,
            e => panic!("expected TxnInDoubt, got {e:?}"),
        };
        assert_eq!(coord.decision_for(gtxn), Some(true), "decision was logged");
        // Nothing visible yet: prepared but undelivered.
        assert_eq!(t.query("SELECT * FROM t ORDER BY id").unwrap(), Vec::<Row>::new());
        let log = coord.log();
        drop(coord);
        let coord2 = TwoPcCoordinator::attach(log, FaultInjector::disabled()).unwrap();
        let report = coord2.resolve_in_doubt(&t).unwrap();
        assert_eq!(report.resumed, vec![gtxn]);
        let mut expect = rows;
        expect.sort();
        assert_eq!(t.query("SELECT * FROM t ORDER BY id").unwrap(), expect, "commit was completed");
    }

    #[test]
    fn decision_log_is_first_writer_wins() {
        let coord = TwoPcCoordinator::new(1, FaultInjector::disabled()).unwrap();
        let gtxn = coord.next_gtxn();
        // A predecessor's abort lands first...
        coord.log_record(CoordRecord::Abort { gtxn }).unwrap();
        // ...so a racing incarnation trying to commit must adopt it.
        assert!(!coord.log_decision(gtxn, true).unwrap());
        assert_eq!(coord.decision_for(gtxn), Some(false));
        // Even if a conflicting record sneaks into the log, every reader
        // still resolves to the first record in log order.
        coord.log_record(CoordRecord::Commit { gtxn }).unwrap();
        assert_eq!(coord.decision_for(gtxn), Some(false));
    }

    #[test]
    fn delivery_surfaces_conflicting_participant_outcome() {
        let t = cluster();
        let coord = TwoPcCoordinator::new(3, FaultInjector::disabled()).unwrap();
        // Partition 0 already applied a commit for gtxn 77; delivering an
        // abort for it must fail loudly, not report success.
        t.groups()[0]
            .propose_cmd(
                &ShardCmd::Decide {
                    gtxn: 77,
                    commit: true,
                },
                Duration::from_secs(10),
            )
            .unwrap();
        let err = coord
            .deliver_decision(&t, std::iter::once(0), 77, false)
            .unwrap_err();
        assert!(matches!(err, DbError::Cluster(_)), "got {err:?}");
    }

    #[test]
    fn racing_attaches_claim_distinct_epochs() {
        let c1 = TwoPcCoordinator::new(1, FaultInjector::disabled()).unwrap();
        let log = c1.log();
        let mut epochs: Vec<u64> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let log = Arc::clone(&log);
                    s.spawn(move || {
                        TwoPcCoordinator::attach(log, FaultInjector::disabled())
                            .unwrap()
                            .epoch()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        epochs.push(c1.epoch());
        let uniq: std::collections::BTreeSet<u64> = epochs.iter().copied().collect();
        assert_eq!(uniq.len(), epochs.len(), "epoch collision: {epochs:?}");
    }

    #[test]
    fn epochs_fence_gtxn_namespaces_across_restarts() {
        let c1 = TwoPcCoordinator::new(1, FaultInjector::disabled()).unwrap();
        let g1 = c1.next_gtxn();
        let log = c1.log();
        drop(c1);
        let c2 = TwoPcCoordinator::attach(log, FaultInjector::disabled()).unwrap();
        assert!(c2.epoch() > 1, "successor claims a later epoch");
        let g2 = c2.next_gtxn();
        assert_ne!(g1, g2);
        assert!(g2 > g1, "later epoch dominates the id space");
    }
}
