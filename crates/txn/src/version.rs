//! Version chains: the MVCC storage primitive.
//!
//! A [`VersionChain`] holds every extant version of one logical record
//! (e.g. one primary key in the row store), newest first. Each version is
//! bracketed by a `begin` and `end` [`Stamp`]. The invariants:
//!
//! * Committed versions of a chain have disjoint, contiguous
//!   `[begin, end)` validity windows.
//! * At most one version's `end` is `Infinity` or pending — the "latest"
//!   version that new writers contend for.
//! * A transaction sees its own pending writes and otherwise exactly the
//!   versions valid at its snapshot timestamp.

use crate::clock::Ts;
use crate::manager::WriteSetEntry;
use oltap_common::ids::TxnId;
use oltap_common::{DbError, Result};
use parking_lot::RwLock;

/// The begin/end marker of a version.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stamp {
    /// Committed at this timestamp.
    Committed(Ts),
    /// Created/ended by this still-active transaction.
    Pending(TxnId),
    /// (end only) Version is the current latest: valid forever so far.
    Infinity,
}

/// One version of a record.
#[derive(Debug, Clone)]
pub struct Version<T> {
    /// When this version became visible.
    pub begin: Stamp,
    /// When this version stopped being visible.
    pub end: Stamp,
    /// The payload. `None` encodes a delete tombstone created by an insert
    /// after delete; regular deletes just close the `end` stamp.
    pub data: T,
}

impl<T> Version<T> {
    /// Is this version visible to a snapshot at `read_ts` taken by `me`?
    pub fn visible_to(&self, read_ts: Ts, me: TxnId) -> bool {
        let begin_ok = match self.begin {
            Stamp::Committed(ts) => ts <= read_ts,
            Stamp::Pending(t) => t == me,
            Stamp::Infinity => false,
        };
        if !begin_ok {
            return false;
        }
        match self.end {
            Stamp::Infinity => true,
            Stamp::Committed(ts) => ts > read_ts,
            // Someone else's pending delete: still visible to us.
            // Our own pending delete: not visible to us.
            Stamp::Pending(t) => t != me,
        }
    }
}

/// All versions of one logical record, newest first, behind a lightweight
/// reader-writer lock.
#[derive(Debug)]
pub struct VersionChain<T> {
    versions: RwLock<Vec<Version<T>>>,
}

impl<T> Default for VersionChain<T> {
    fn default() -> Self {
        VersionChain {
            versions: RwLock::new(Vec::new()),
        }
    }
}

impl<T: Clone> VersionChain<T> {
    /// Empty chain.
    pub fn new() -> Self {
        Self::default()
    }

    /// A chain bootstrapped with a single committed version (bulk load).
    pub fn with_committed(data: T, ts: Ts) -> Self {
        VersionChain {
            versions: RwLock::new(vec![Version {
                begin: Stamp::Committed(ts),
                end: Stamp::Infinity,
                data,
            }]),
        }
    }

    /// Runs `f` on the version visible at `read_ts` for transaction `me`,
    /// borrowed in place under the chain's read lock: the one visibility
    /// walk, which [`read`](Self::read) and
    /// [`exists_for`](Self::exists_for) are spelled in. `f` sees either a
    /// whole committed (or own pending) version or is not called — writers
    /// stamp a chain under the write lock. It must not touch this chain.
    pub fn with_visible<R>(&self, read_ts: Ts, me: TxnId, f: impl FnOnce(&T) -> R) -> Option<R> {
        let guard = self.versions.read();
        guard
            .iter()
            .find(|v| v.visible_to(read_ts, me))
            .map(|v| f(&v.data))
    }

    /// Reads the version visible at `read_ts` for transaction `me`.
    pub fn read(&self, read_ts: Ts, me: TxnId) -> Option<T> {
        self.with_visible(read_ts, me, T::clone)
    }

    /// True when some version is visible at `read_ts` for `me`.
    pub fn exists_for(&self, read_ts: Ts, me: TxnId) -> bool {
        self.with_visible(read_ts, me, |_| ()).is_some()
    }

    /// Installs a brand-new pending version at the head *without* ending a
    /// predecessor (used for INSERT of a key with no live version).
    ///
    /// Fails with [`DbError::WriteConflict`] if another transaction has a
    /// pending insert on the same chain, or with [`DbError::DuplicateKey`]
    /// if a committed live version already exists that `begin_ts` can see
    /// — or that committed after our snapshot (first-committer-wins).
    pub fn insert(&self, data: T, me: TxnId, begin_ts: Ts) -> Result<()> {
        let mut guard = self.versions.write();
        for v in guard.iter() {
            match (v.begin, v.end) {
                // Our own pending insert (double insert in one txn).
                (Stamp::Pending(t), _) if t == me => {
                    return Err(DbError::DuplicateKey("inserted twice".into()))
                }
                // Someone else's pending insert.
                (Stamp::Pending(_), _) => {
                    return Err(DbError::WriteConflict("concurrent insert".into()))
                }
                // A committed version that is still live (end = Infinity or
                // pending-delete by someone else, or committed-delete after
                // our snapshot): the key exists.
                (Stamp::Committed(_), Stamp::Infinity) => {
                    return Err(DbError::DuplicateKey("key exists".into()))
                }
                (Stamp::Committed(_), Stamp::Pending(t)) if t != me => {
                    return Err(DbError::WriteConflict(
                        "concurrent delete in flight".into(),
                    ))
                }
                (Stamp::Committed(_), Stamp::Committed(ets)) if ets > begin_ts => {
                    return Err(DbError::WriteConflict(
                        "key deleted after snapshot".into(),
                    ))
                }
                _ => {}
            }
        }
        // A key's first version is most keys' only one: room for it alone,
        // not the four a `Vec` grown from empty reserves.
        if guard.is_empty() {
            guard.reserve_exact(1);
        }
        guard.insert(
            0,
            Version {
                begin: Stamp::Pending(me),
                end: Stamp::Infinity,
                data,
            },
        );
        Ok(())
    }

    /// Updates the record: ends the currently live version (claiming its
    /// `end` stamp) and installs a new pending version with `data`.
    ///
    /// Implements first-committer-wins: if the live version committed after
    /// `begin_ts`, or is pending under another transaction, this fails with
    /// [`DbError::WriteConflict`].
    pub fn update(&self, data: T, me: TxnId, begin_ts: Ts) -> Result<()> {
        let mut guard = self.versions.write();
        self.claim_latest(&mut guard, me, begin_ts)?;
        // If we already have a pending version (our own earlier write in
        // this txn), replace its data in place instead of stacking.
        if let Some(v) = guard
            .iter_mut()
            .find(|v| matches!(v.begin, Stamp::Pending(t) if t == me))
        {
            v.data = data;
            v.end = Stamp::Infinity;
            return Ok(());
        }
        guard.insert(
            0,
            Version {
                begin: Stamp::Pending(me),
                end: Stamp::Infinity,
                data,
            },
        );
        Ok(())
    }

    /// Deletes the record: claims the live version's `end` stamp.
    pub fn delete(&self, me: TxnId, begin_ts: Ts) -> Result<()> {
        let mut guard = self.versions.write();
        // Deleting our own pending insert: drop it entirely.
        if let Some(pos) = guard
            .iter()
            .position(|v| matches!(v.begin, Stamp::Pending(t) if t == me))
        {
            guard.remove(pos);
            return Ok(());
        }
        self.claim_latest(&mut guard, me, begin_ts)
    }

    /// Finds the latest committed live version and marks its end pending
    /// under `me`, enforcing first-committer-wins.
    fn claim_latest(
        &self,
        guard: &mut [Version<T>],
        me: TxnId,
        begin_ts: Ts,
    ) -> Result<()> {
        // Reject if anyone else has a pending write anywhere on the chain.
        for v in guard.iter() {
            if matches!(v.begin, Stamp::Pending(t) if t != me)
                || matches!(v.end, Stamp::Pending(t) if t != me)
            {
                return Err(DbError::WriteConflict("record locked by writer".into()));
            }
        }
        let latest = guard
            .iter_mut()
            .find(|v| v.end == Stamp::Infinity && matches!(v.begin, Stamp::Committed(_)));
        match latest {
            Some(v) => {
                if let Stamp::Committed(bts) = v.begin {
                    if bts > begin_ts {
                        return Err(DbError::WriteConflict(
                            "record modified after snapshot".into(),
                        ));
                    }
                }
                v.end = Stamp::Pending(me);
                Ok(())
            }
            None => {
                // Our own pending version may be the only live one; that is
                // fine (claim is a no-op — commit/abort handles it).
                if guard
                    .iter()
                    .any(|v| matches!(v.begin, Stamp::Pending(t) if t == me))
                {
                    Ok(())
                } else {
                    Err(DbError::KeyNotFound("no live version".into()))
                }
            }
        }
    }

    /// Commit hook: stamps every pending marker owned by `me` with `cts`.
    pub fn commit(&self, me: TxnId, cts: Ts) {
        let mut guard = self.versions.write();
        for v in guard.iter_mut() {
            if matches!(v.begin, Stamp::Pending(t) if t == me) {
                v.begin = Stamp::Committed(cts);
            }
            if matches!(v.end, Stamp::Pending(t) if t == me) {
                v.end = Stamp::Committed(cts);
            }
        }
    }

    /// Abort hook: removes versions created by `me` and re-opens ends it
    /// had claimed.
    pub fn abort(&self, me: TxnId) {
        let mut guard = self.versions.write();
        guard.retain(|v| !matches!(v.begin, Stamp::Pending(t) if t == me));
        for v in guard.iter_mut() {
            if matches!(v.end, Stamp::Pending(t) if t == me) {
                v.end = Stamp::Infinity;
            }
        }
    }

    /// Garbage-collects versions invisible to every snapshot at or after
    /// `watermark`. Returns how many versions were pruned.
    pub fn gc(&self, watermark: Ts) -> usize {
        let mut guard = self.versions.write();
        let before = guard.len();
        guard.retain(|v| match v.end {
            Stamp::Committed(ets) => ets > watermark,
            _ => true,
        });
        before - guard.len()
    }

    /// Number of stored versions (diagnostics/GC policy).
    pub fn version_count(&self) -> usize {
        self.versions.read().len()
    }

    /// Merge hook: if the latest version is committed at or before
    /// `watermark` and still live, ends it at `watermark` and hands over its
    /// payload; then garbage-collects as [`gc`](Self::gc) does, which takes
    /// the ended version too — so its payload is moved out, not copied.
    /// Returns the payload, if any, and the versions left. The caller is
    /// responsible for re-publishing the payload in the main store with
    /// `visible_from = watermark` so that no snapshot at or after the
    /// watermark loses or double-sees it. Versions with an in-flight writer
    /// (pending `end`) or committed after the watermark are left for a
    /// later merge.
    pub fn drain_latest_committed(&self, watermark: Ts) -> (Option<T>, usize) {
        let mut guard = self.versions.write();
        let latest = guard.iter().position(|v| {
            matches!(v.begin, Stamp::Committed(ts) if ts <= watermark)
                && v.end == Stamp::Infinity
        });
        let drained = latest.map(|at| guard.remove(at).data);
        guard.retain(|v| !matches!(v.end, Stamp::Committed(ets) if ets <= watermark));
        (drained, guard.len())
    }
}

/// A chain is its own write-set entry: the storage layer enlists the
/// `Arc` it already holds.
impl<T: Clone + Send + Sync> WriteSetEntry for VersionChain<T> {
    fn commit(&self, txn: TxnId, commit_ts: Ts) {
        VersionChain::commit(self, txn, commit_ts);
    }
    fn abort(&self, txn: TxnId) {
        VersionChain::abort(self, txn);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T1: TxnId = TxnId(1);
    const T2: TxnId = TxnId(2);

    #[test]
    fn insert_then_commit_becomes_visible() {
        let c: VersionChain<i32> = VersionChain::new();
        c.insert(42, T1, 10).unwrap();
        // Not yet visible to others.
        assert_eq!(c.read(100, T2), None);
        // Visible to self.
        assert_eq!(c.read(10, T1), Some(42));
        c.commit(T1, 11);
        assert_eq!(c.read(11, T2), Some(42));
        // Older snapshot still doesn't see it.
        assert_eq!(c.read(10, T2), None);
    }

    /// A drain takes the latest committed version at or below the
    /// watermark and prunes what ended by then; a version committed later,
    /// or one a writer is still ending, stays for a later merge.
    #[test]
    fn drain_takes_the_latest_committed_and_prunes_the_ended() {
        let c = VersionChain::with_committed(1, 5);
        c.update(2, T1, 6).unwrap();
        c.commit(T1, 8);
        // At 7 the first version is the live one there, but it has ended.
        assert_eq!(c.drain_latest_committed(7), (None, 2));
        assert_eq!(c.drain_latest_committed(8), (Some(2), 0));
        assert_eq!(c.read(100, T2), None);

        let c = VersionChain::with_committed(1, 5);
        c.delete(T1, 6).unwrap();
        assert_eq!(
            c.drain_latest_committed(9),
            (None, 1),
            "a pending end stays"
        );
        c.abort(T1);
        assert_eq!(c.drain_latest_committed(9), (Some(1), 0));
    }

    #[test]
    fn duplicate_insert_rejected() {
        let c = VersionChain::with_committed(1, 5);
        assert!(matches!(
            c.insert(2, T1, 10),
            Err(DbError::DuplicateKey(_))
        ));
    }

    #[test]
    fn concurrent_insert_conflicts() {
        let c: VersionChain<i32> = VersionChain::new();
        c.insert(1, T1, 10).unwrap();
        assert!(matches!(
            c.insert(2, T2, 10),
            Err(DbError::WriteConflict(_))
        ));
    }

    #[test]
    fn update_creates_new_version_old_snapshot_reads_old() {
        let c = VersionChain::with_committed(1, 5);
        c.update(2, T1, 10).unwrap();
        c.commit(T1, 11);
        assert_eq!(c.read(10, T2), Some(1));
        assert_eq!(c.read(11, T2), Some(2));
    }

    #[test]
    fn first_committer_wins() {
        let c = VersionChain::with_committed(1, 5);
        // T1 updates and commits at 11.
        c.update(2, T1, 10).unwrap();
        c.commit(T1, 11);
        // T2, whose snapshot predates T1's commit, must fail.
        assert!(matches!(
            c.update(3, T2, 10),
            Err(DbError::WriteConflict(_))
        ));
        // A fresh snapshot succeeds.
        assert!(c.update(3, T2, 11).is_ok());
    }

    #[test]
    fn pending_writer_blocks_other_writers_not_readers() {
        let c = VersionChain::with_committed(1, 5);
        c.update(2, T1, 10).unwrap();
        // Writer conflicts.
        assert!(matches!(
            c.update(3, T2, 10),
            Err(DbError::WriteConflict(_))
        ));
        // Reader still sees committed version 1.
        assert_eq!(c.read(10, T2), Some(1));
    }

    #[test]
    fn abort_restores_previous_state() {
        let c = VersionChain::with_committed(1, 5);
        c.update(2, T1, 10).unwrap();
        c.abort(T1);
        assert_eq!(c.read(10, T2), Some(1));
        // After abort the chain is writable again.
        c.update(3, T2, 10).unwrap();
        c.commit(T2, 12);
        assert_eq!(c.read(12, T1), Some(3));
    }

    #[test]
    fn delete_hides_record_for_new_snapshots() {
        let c = VersionChain::with_committed(1, 5);
        c.delete(T1, 10).unwrap();
        c.commit(T1, 11);
        assert_eq!(c.read(10, T2), Some(1)); // old snapshot
        assert_eq!(c.read(11, T2), None); // new snapshot
    }

    #[test]
    fn delete_own_pending_insert_cancels() {
        let c: VersionChain<i32> = VersionChain::new();
        c.insert(1, T1, 10).unwrap();
        c.delete(T1, 10).unwrap();
        c.commit(T1, 11);
        assert_eq!(c.read(11, T2), None);
        assert_eq!(c.version_count(), 0);
    }

    #[test]
    fn update_twice_in_txn_coalesces() {
        let c = VersionChain::with_committed(1, 5);
        c.update(2, T1, 10).unwrap();
        c.update(3, T1, 10).unwrap();
        assert_eq!(c.read(10, T1), Some(3));
        c.commit(T1, 11);
        assert_eq!(c.read(11, T2), Some(3));
        // Only: original + one new version.
        assert_eq!(c.version_count(), 2);
    }

    #[test]
    fn reinsert_after_committed_delete() {
        let c = VersionChain::with_committed(1, 5);
        c.delete(T1, 10).unwrap();
        c.commit(T1, 11);
        c.insert(9, T2, 11).unwrap();
        c.commit(T2, 12);
        assert_eq!(c.read(12, TxnId(3)), Some(9));
    }

    #[test]
    fn insert_blocked_by_recent_delete() {
        let c = VersionChain::with_committed(1, 5);
        c.delete(T1, 10).unwrap();
        c.commit(T1, 11);
        // T2's snapshot (10) predates the delete: FCW conflict.
        assert!(matches!(
            c.insert(9, T2, 10),
            Err(DbError::WriteConflict(_))
        ));
    }

    #[test]
    fn gc_prunes_dead_versions() {
        let c = VersionChain::with_committed(1, 5);
        for (i, ts) in [(2, 11), (3, 13), (4, 15)] {
            let t = TxnId(ts);
            c.update(i, t, ts - 1).unwrap();
            c.commit(t, ts);
        }
        assert_eq!(c.version_count(), 4);
        // Oldest active snapshot is 13: versions ended ≤ 13 are dead.
        let pruned = c.gc(13);
        assert_eq!(pruned, 2);
        assert_eq!(c.read(20, T1), Some(4));
        assert_eq!(c.read(13, T1), Some(3));
    }

    #[test]
    fn delete_missing_key_errors() {
        let c: VersionChain<i32> = VersionChain::new();
        assert!(matches!(c.delete(T1, 10), Err(DbError::KeyNotFound(_))));
    }
}
