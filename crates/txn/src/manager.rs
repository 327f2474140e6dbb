//! The transaction manager: begin/commit/abort, snapshots, write sets, and
//! the garbage-collection watermark.

use crate::clock::Ts;
use oltap_common::ids::TxnId;
use oltap_common::{DbError, Result};
use parking_lot::Mutex;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Lifecycle state of a transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnStatus {
    /// Running; may read and write.
    Active,
    /// Prepared under two-phase commit: the write set is staged and must
    /// be held (pending versions stay pinned, invisible to other
    /// snapshots) until the coordinator's COMMIT or ABORT decision
    /// arrives. No further writes are accepted.
    Prepared,
    /// Successfully committed at the contained timestamp.
    Committed(Ts),
    /// Rolled back.
    Aborted,
}

/// A storage-side participant in a transaction's write set.
///
/// The storage layer registers one entry per touched version chain; the
/// manager drives two-phase finalization: on commit every entry is stamped
/// with the commit timestamp, on abort every entry rolls back. Entries must
/// be idempotent per transaction (they key off the `TxnId`).
pub trait WriteSetEntry: Send + Sync {
    /// Stamp pending markers with the commit timestamp.
    fn commit(&self, txn: TxnId, commit_ts: Ts);
    /// Remove/undo pending markers.
    fn abort(&self, txn: TxnId);
}

/// A handle to one running transaction.
///
/// Cheap to clone is *not* a goal — a `Transaction` is owned by one session
/// and finalized exactly once via [`Transaction::commit`] /
/// [`Transaction::abort`] (drop aborts implicitly).
pub struct Transaction {
    id: TxnId,
    begin_ts: Ts,
    mgr: Arc<TransactionManager>,
    write_set: Mutex<Vec<Arc<dyn WriteSetEntry>>>,
    status: Mutex<TxnStatus>,
}

impl std::fmt::Debug for Transaction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Transaction")
            .field("id", &self.id)
            .field("begin_ts", &self.begin_ts)
            .field("status", &*self.status.lock())
            .finish()
    }
}

impl Transaction {
    /// The transaction id (the MVCC pending-stamp namespace).
    pub fn id(&self) -> TxnId {
        self.id
    }

    /// The snapshot timestamp: this transaction sees all commits `≤ begin_ts`.
    pub fn begin_ts(&self) -> Ts {
        self.begin_ts
    }

    /// Current status.
    pub fn status(&self) -> TxnStatus {
        *self.status.lock()
    }

    /// Registers a write-set participant. Duplicate registrations are
    /// harmless (commit/abort are idempotent per txn), but callers usually
    /// dedupe for efficiency.
    pub fn enlist(&self, entry: Arc<dyn WriteSetEntry>) -> Result<()> {
        let status = self.status.lock();
        if *status != TxnStatus::Active {
            return Err(DbError::TxnClosed(format!("{:?}", *status)));
        }
        self.write_set.lock().push(entry);
        Ok(())
    }

    /// Transitions `Active → Prepared` (the participant half of 2PC phase
    /// one): the write set is frozen and its pending versions stay pinned
    /// until [`Transaction::commit`] or [`Transaction::abort`] delivers
    /// the coordinator's decision. Idempotent on an already-prepared
    /// transaction.
    pub fn prepare(&self) -> Result<()> {
        let mut status = self.status.lock();
        match *status {
            TxnStatus::Active | TxnStatus::Prepared => {
                *status = TxnStatus::Prepared;
                Ok(())
            }
            other => Err(DbError::TxnClosed(format!("{other:?}"))),
        }
    }

    /// Commits: obtains a commit timestamp and stamps the write set.
    /// Returns the commit timestamp. Valid from `Active` (local commit)
    /// and from `Prepared` (2PC decision delivery).
    pub fn commit(&self) -> Result<Ts> {
        self.commit_logged(|_| Ok(()))
    }

    /// [`Transaction::commit`], logging the commit inside its window: `log`
    /// runs with the reserved commit timestamp before anything is stamped.
    /// When it fails the timestamp is released with nothing stamped at it,
    /// the write set is rolled back and the transaction is aborted — a
    /// commit the log lacks is neither visible nor acknowledged.
    pub fn commit_logged(&self, log: impl FnOnce(Ts) -> Result<()>) -> Result<Ts> {
        let mut status = self.status.lock();
        if !matches!(*status, TxnStatus::Active | TxnStatus::Prepared) {
            return Err(DbError::TxnClosed(format!("{:?}", *status)));
        }
        // Commit-window protocol: the commit timestamp is *reserved*
        // first, the commit is logged, the write set is stamped, and only
        // then does the timestamp become part of the snapshot watermark. A
        // reader can therefore never hold a snapshot that covers a commit
        // whose stamping is still in flight (which would make rows pop into
        // its view mid-transaction), nor one the log does not hold.
        let cts = self.mgr.reserve_commit_ts();
        if let Err(e) = log(cts) {
            self.mgr.finish_commit_ts(cts);
            self.roll_back(&mut status);
            return Err(e);
        }
        for e in self.write_set.lock().iter() {
            e.commit(self.id, cts);
        }
        self.mgr.finish_commit_ts(cts);
        // Acknowledged only once every new snapshot covers it: an earlier
        // commit still stamping holds the watermark below `cts`, and the
        // next transaction this thread begins must see what it just wrote.
        while self.mgr.now() < cts {
            std::thread::yield_now();
        }
        *status = TxnStatus::Committed(cts);
        self.mgr.deregister(self.id);
        Ok(cts)
    }

    /// Aborts: rolls back the write set. Valid from `Active` and from
    /// `Prepared` (2PC abort decision delivery).
    pub fn abort(&self) -> Result<()> {
        let mut status = self.status.lock();
        if !matches!(*status, TxnStatus::Active | TxnStatus::Prepared) {
            return Err(DbError::TxnClosed(format!("{:?}", *status)));
        }
        self.roll_back(&mut status);
        Ok(())
    }

    /// Rolls back the write set and retires the transaction as `Aborted`;
    /// `status` is the caller's held status guard.
    fn roll_back(&self, status: &mut TxnStatus) {
        for e in self.write_set.lock().iter() {
            e.abort(self.id);
        }
        *status = TxnStatus::Aborted;
        self.mgr.deregister(self.id);
    }
}

impl Drop for Transaction {
    fn drop(&mut self) {
        // Implicit rollback: an un-finalized transaction must not leave
        // pending stamps behind. This includes `Prepared` — a 2PC
        // participant must keep the handle alive (it owns the staged
        // versions) until the decision arrives; dropping it is the
        // in-process equivalent of losing the prepared state's holder,
        // and leaking pinned versions forever would be strictly worse.
        let mut status = self.status.lock();
        if matches!(*status, TxnStatus::Active | TxnStatus::Prepared) {
            self.roll_back(&mut status);
        }
    }
}

/// The process-wide transaction coordinator.
///
/// Commit timestamps are allocated from `next_commit` but only become
/// visible to new snapshots once their transaction has finished stamping
/// its write set: `visible` is the *commit watermark* — the largest
/// timestamp `w` such that every commit `≤ w` is fully stamped. Snapshots
/// read at the watermark, which closes the classic race where a reader
/// starts between a commit's timestamp allocation and its version
/// stamping.
#[derive(Debug)]
pub struct TransactionManager {
    /// Last allocated commit timestamp.
    next_commit: AtomicU64,
    /// Reserved-but-not-finished commit timestamps.
    inflight: Mutex<BTreeSet<Ts>>,
    /// The commit watermark (see type docs).
    visible: AtomicU64,
    next_txn: AtomicU64,
    /// Active transactions: id → begin_ts, ordered so the GC watermark is
    /// the first entry's begin_ts.
    active: Mutex<BTreeMap<TxnId, Ts>>,
}

impl Default for TransactionManager {
    fn default() -> Self {
        Self::new()
    }
}

impl TransactionManager {
    /// A manager with a fresh clock.
    pub fn new() -> Self {
        Self::resuming_at(0)
    }

    /// A manager resuming after recovery at clock position `ts`.
    pub fn resuming_at(ts: Ts) -> Self {
        TransactionManager {
            next_commit: AtomicU64::new(ts),
            inflight: Mutex::new(BTreeSet::new()),
            visible: AtomicU64::new(ts),
            next_txn: AtomicU64::new(1),
            active: Mutex::new(BTreeMap::new()),
        }
    }

    /// Reserves the next commit timestamp. The caller must stamp its write
    /// set and then call [`TransactionManager::finish_commit_ts`]; until
    /// then the timestamp stays outside every new snapshot.
    pub fn reserve_commit_ts(&self) -> Ts {
        let mut inflight = self.inflight.lock();
        let cts = self.next_commit.fetch_add(1, Ordering::SeqCst) + 1;
        inflight.insert(cts);
        cts
    }

    /// Marks a reserved commit timestamp fully stamped and advances the
    /// snapshot watermark as far as the in-flight set allows.
    pub fn finish_commit_ts(&self, cts: Ts) {
        let mut inflight = self.inflight.lock();
        inflight.remove(&cts);
        let new_visible = match inflight.first() {
            Some(&oldest) => oldest - 1,
            None => self.next_commit.load(Ordering::SeqCst),
        };
        self.visible.fetch_max(new_visible, Ordering::SeqCst);
    }

    /// Starts a transaction whose snapshot is "now" (the commit
    /// watermark: every fully stamped commit, and nothing in flight).
    pub fn begin(self: &Arc<Self>) -> Transaction {
        let id = TxnId(self.next_txn.fetch_add(1, Ordering::SeqCst));
        let begin_ts = self.now();
        self.active.lock().insert(id, begin_ts);
        Transaction {
            id,
            begin_ts,
            mgr: Arc::clone(self),
            write_set: Mutex::new(Vec::new()),
            status: Mutex::new(TxnStatus::Active),
        }
    }

    /// The current snapshot timestamp (the commit watermark).
    pub fn now(&self) -> Ts {
        self.visible.load(Ordering::SeqCst)
    }

    /// Issues a commit timestamp directly and immediately publishes it
    /// (for callers with nothing to stamp, e.g. DDL log records).
    pub fn tick(&self) -> Ts {
        let cts = self.reserve_commit_ts();
        self.finish_commit_ts(cts);
        cts
    }

    /// Advances the clock (log replay / remote timestamps).
    pub fn advance_to(&self, ts: Ts) {
        self.next_commit.fetch_max(ts, Ordering::SeqCst);
        self.visible.fetch_max(ts, Ordering::SeqCst);
    }

    /// The garbage-collection watermark: versions that ended at or before
    /// this timestamp are invisible to every active and future snapshot.
    pub fn gc_watermark(&self) -> Ts {
        self.active
            .lock()
            .values()
            .min()
            .copied()
            .unwrap_or_else(|| self.now())
    }

    /// Number of running transactions.
    pub fn active_count(&self) -> usize {
        self.active.lock().len()
    }

    fn deregister(&self, id: TxnId) {
        self.active.lock().remove(&id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::version::VersionChain;

    #[test]
    fn begin_commit_lifecycle() {
        let mgr = Arc::new(TransactionManager::new());
        let chain = Arc::new(VersionChain::new());
        let t = mgr.begin();
        chain.insert(7, t.id(), t.begin_ts()).unwrap();
        t.enlist(chain.clone()).unwrap();
        let cts = t.commit().unwrap();
        assert_eq!(t.status(), TxnStatus::Committed(cts));
        assert_eq!(chain.read(cts, TxnId(999)), Some(7));
        assert_eq!(mgr.active_count(), 0);
    }

    #[test]
    fn abort_rolls_back() {
        let mgr = Arc::new(TransactionManager::new());
        let chain = Arc::new(VersionChain::new());
        let t = mgr.begin();
        chain.insert(7, t.id(), t.begin_ts()).unwrap();
        t.enlist(chain.clone()).unwrap();
        t.abort().unwrap();
        assert_eq!(chain.read(mgr.now(), TxnId(999)), None);
        assert_eq!(chain.version_count(), 0);
    }

    #[test]
    fn drop_aborts_implicitly() {
        let mgr = Arc::new(TransactionManager::new());
        let chain = Arc::new(VersionChain::new());
        {
            let t = mgr.begin();
            chain.insert(7, t.id(), t.begin_ts()).unwrap();
            t.enlist(chain.clone()).unwrap();
            // dropped without commit
        }
        assert_eq!(chain.version_count(), 0);
        assert_eq!(mgr.active_count(), 0);
    }

    #[test]
    fn prepared_txn_holds_versions_until_decision() {
        let mgr = Arc::new(TransactionManager::new());
        let chain = Arc::new(VersionChain::new());
        let t = mgr.begin();
        chain.insert(7, t.id(), t.begin_ts()).unwrap();
        t.enlist(chain.clone()).unwrap();
        t.prepare().unwrap();
        assert_eq!(t.status(), TxnStatus::Prepared);
        // Prepared is not committed: other snapshots still see nothing.
        let reader = mgr.begin();
        assert_eq!(chain.read(reader.begin_ts(), reader.id()), None);
        // No further writes are accepted once prepared.
        assert!(t.enlist(chain.clone()).is_err());
        // Decision delivery: commit from Prepared works.
        let cts = t.commit().unwrap();
        assert_eq!(chain.read(cts, TxnId(999)), Some(7));
    }

    #[test]
    fn prepared_txn_abort_decision_rolls_back() {
        let mgr = Arc::new(TransactionManager::new());
        let chain = Arc::new(VersionChain::new());
        let t = mgr.begin();
        chain.insert(7, t.id(), t.begin_ts()).unwrap();
        t.enlist(chain.clone()).unwrap();
        t.prepare().unwrap();
        t.prepare().unwrap(); // idempotent
        t.abort().unwrap();
        assert_eq!(chain.version_count(), 0);
        // A finished transaction cannot be re-prepared.
        assert!(matches!(t.prepare(), Err(DbError::TxnClosed(_))));
    }

    #[test]
    fn double_commit_rejected() {
        let mgr = Arc::new(TransactionManager::new());
        let t = mgr.begin();
        t.commit().unwrap();
        assert!(matches!(t.commit(), Err(DbError::TxnClosed(_))));
        assert!(matches!(t.abort(), Err(DbError::TxnClosed(_))));
    }

    #[test]
    fn snapshot_isolation_between_txns() {
        let mgr = Arc::new(TransactionManager::new());
        let chain = Arc::new(VersionChain::with_committed(1i64, 0));

        let reader = mgr.begin(); // snapshot at ts 0
        let writer = mgr.begin();
        chain.update(2, writer.id(), writer.begin_ts()).unwrap();
        writer.enlist(chain.clone()).unwrap();
        writer.commit().unwrap();

        // Reader still sees the old value on its snapshot.
        assert_eq!(chain.read(reader.begin_ts(), reader.id()), Some(1));
        // A fresh transaction sees the new value.
        let fresh = mgr.begin();
        assert_eq!(chain.read(fresh.begin_ts(), fresh.id()), Some(2));
    }

    #[test]
    fn gc_watermark_tracks_oldest_active() {
        let mgr = Arc::new(TransactionManager::new());
        mgr.tick();
        mgr.tick(); // clock at 2
        let t1 = mgr.begin(); // begin_ts 2
        mgr.tick(); // clock 3
        let _t2 = mgr.begin(); // begin_ts 3
        assert_eq!(mgr.gc_watermark(), 2);
        t1.commit().unwrap();
        assert_eq!(mgr.gc_watermark(), 3);
    }

    #[test]
    fn gc_watermark_is_clock_when_idle() {
        let mgr = Arc::new(TransactionManager::new());
        mgr.advance_to(17);
        assert_eq!(mgr.gc_watermark(), 17);
    }

    /// A chain whose commit stamping waits for a go-ahead, after saying it
    /// has begun: a commit held in flight.
    struct SlowEntry {
        chain: Arc<VersionChain<i64>>,
        entered: crossbeam::channel::Sender<()>,
        release: crossbeam::channel::Receiver<()>,
    }
    impl WriteSetEntry for SlowEntry {
        fn commit(&self, txn: TxnId, cts: Ts) {
            let _ = self.entered.send(());
            let _ = self.release.recv(); // simulate slow stamping
            self.chain.commit(txn, cts);
        }
        fn abort(&self, txn: TxnId) {
            self.chain.abort(txn);
        }
    }

    /// Regression test for the commit-window race: a commit whose write
    /// set is still being stamped must not be covered by new snapshots.
    #[test]
    fn snapshots_exclude_in_flight_commits() {
        use crossbeam::channel::bounded;

        let mgr = Arc::new(TransactionManager::new());
        let chain = Arc::new(VersionChain::new());
        let t = mgr.begin();
        chain.insert(7, t.id(), t.begin_ts()).unwrap();
        let (entered_tx, entered_rx) = bounded(1);
        let (release_tx, release_rx) = bounded(1);
        t.enlist(Arc::new(SlowEntry {
            chain: Arc::clone(&chain),
            entered: entered_tx,
            release: release_rx,
        }))
        .unwrap();

        let committer = std::thread::spawn(move || t.commit().unwrap());
        entered_rx.recv().unwrap(); // stamping has begun but not finished

        // A snapshot taken NOW must not cover the in-flight commit.
        let mid = mgr.begin();
        assert_eq!(chain.read(mid.begin_ts(), mid.id()), None);

        release_tx.send(()).unwrap();
        let cts = committer.join().unwrap();
        assert!(mid.begin_ts() < cts, "watermark covered an unstamped commit");

        // A snapshot taken after the commit finished sees it.
        let late = mgr.begin();
        assert!(late.begin_ts() >= cts);
        assert_eq!(chain.read(late.begin_ts(), late.id()), Some(7));
        // And the mid snapshot still does not (stability).
        assert_eq!(chain.read(mid.begin_ts(), mid.id()), None);
    }

    /// A later commit is not acknowledged while an earlier one is still
    /// stamping: it returns once new snapshots cover it, so the next
    /// transaction its thread begins sees its writes (without this, an
    /// update there met its own previous commit as a conflict).
    #[test]
    fn a_commit_returns_once_new_snapshots_see_it() {
        use crossbeam::channel::bounded;

        let mgr = Arc::new(TransactionManager::new());
        let (slow_chain, chain) = (Arc::new(VersionChain::new()), Arc::new(VersionChain::new()));
        let slow = mgr.begin();
        slow_chain.insert(1, slow.id(), slow.begin_ts()).unwrap();
        let (entered_tx, entered_rx) = bounded(1);
        let (release_tx, release_rx) = bounded(1);
        slow.enlist(Arc::new(SlowEntry {
            chain: slow_chain,
            entered: entered_tx,
            release: release_rx,
        }))
        .unwrap();
        let slow_committer = std::thread::spawn(move || slow.commit().unwrap());
        entered_rx.recv().unwrap();

        let t = mgr.begin();
        chain.insert(7, t.id(), t.begin_ts()).unwrap();
        t.enlist(chain.clone()).unwrap();
        let (done_tx, done_rx) = bounded(1);
        let committer = std::thread::spawn(move || {
            let cts = t.commit().unwrap();
            done_tx.send(()).unwrap();
            cts
        });
        assert!(
            done_rx.recv_timeout(std::time::Duration::from_millis(50)).is_err(),
            "acknowledged while an earlier commit held it out of new snapshots"
        );
        release_tx.send(()).unwrap();
        slow_committer.join().unwrap();
        let cts = committer.join().unwrap();
        let next = mgr.begin();
        assert!(next.begin_ts() >= cts);
        assert_eq!(chain.read(next.begin_ts(), next.id()), Some(7));
    }

    /// A commit whose log append fails publishes nothing: its rows stay
    /// out of every snapshot, the transaction is aborted, and the
    /// timestamp it held does not hold the watermark back.
    #[test]
    fn a_commit_the_log_refuses_is_rolled_back() {
        let mgr = Arc::new(TransactionManager::new());
        let chain = Arc::new(VersionChain::new());
        let t = mgr.begin();
        chain.insert(7, t.id(), t.begin_ts()).unwrap();
        t.enlist(chain.clone()).unwrap();
        let err = t
            .commit_logged(|_| Err(DbError::Io("disk full".into())))
            .unwrap_err();
        assert_eq!(err, DbError::Io("disk full".into()));
        assert_eq!(t.status(), TxnStatus::Aborted);
        assert_eq!(mgr.active_count(), 0);
        assert_eq!(chain.version_count(), 0);
        let next = mgr.begin();
        assert_eq!(chain.read(next.begin_ts(), next.id()), None);
        // The released timestamp does not stall later commits.
        next.commit().unwrap();
        assert!(mgr.now() > next.begin_ts());
    }

    #[test]
    fn watermark_advances_in_commit_order() {
        let mgr = Arc::new(TransactionManager::new());
        let c1 = mgr.reserve_commit_ts();
        let c2 = mgr.reserve_commit_ts();
        assert!(c2 > c1);
        // Finishing the newer commit first must NOT expose it while the
        // older one is still stamping.
        mgr.finish_commit_ts(c2);
        assert!(mgr.now() < c1, "now {} >= c1 {c1}", mgr.now());
        mgr.finish_commit_ts(c1);
        assert_eq!(mgr.now(), c2);
    }

    #[test]
    fn concurrent_txn_ids_unique() {
        let mgr = Arc::new(TransactionManager::new());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let mgr = Arc::clone(&mgr);
            handles.push(std::thread::spawn(move || {
                (0..250)
                    .map(|_| {
                        let t = mgr.begin();
                        let id = t.id();
                        t.commit().unwrap();
                        id
                    })
                    .collect::<Vec<_>>()
            }));
        }
        let mut all: Vec<TxnId> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 1000);
    }
}
