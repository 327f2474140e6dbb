//! The delta + main architecture: a writable row-format delta store in
//! front of immutable compressed columnar segments, reconciled by a merge.
//!
//! This is the storage design the tutorial traces from differential files
//! and LSM-trees (§4, \[29, 16\]) into HANA's delta/main and MemSQL's
//! row-store-plus-column-store: ingest lands in the row-format delta at
//! OLTP speed; a background **merge** periodically drains committed delta
//! rows into a new compressed segment; analytic scans read segments (fast,
//! compressed, zone-mapped) plus the delta (fresh). How big the delta is
//! decides what that costs: under `htap_mixed`'s 250 ms merge tick it holds
//! 2 000–4 000 keys of `order_line`, each scanned some 125 times before it
//! merges, at 25–150 ns a key (L2-resident to cold) against the 0.5–2 ns
//! of a merged row — DESIGN.md § "What a row costs".
//!
//! # MVCC correctness of merge
//!
//! Merge moves only rows committed at or before the transaction manager's
//! GC `watermark` (the minimum active snapshot). A moved row's delta
//! version is closed at `watermark` and the receiving segment is stamped
//! `visible_from = watermark`, so for every snapshot `s`:
//!
//! * `s < watermark` — impossible for active/future snapshots, by the
//!   definition of the watermark;
//! * `s ≥ watermark` — the delta version is closed (`end = watermark ≤ s`)
//!   and the segment is visible: the row is seen exactly once.
//!
//! The close-and-publish pair runs under the table's state write lock,
//! which scans take for read, so no reader observes the intermediate
//! state.

use crate::buffer::SegmentPager;
use crate::predicate::ScanPredicate;
use crate::rowstore::RowStore;
use crate::segment::{Segment, SegmentBuilder};
use oltap_common::fault::{points, FaultInjector};
use oltap_common::hash::FxHashMap;
use oltap_common::ids::{SegmentId, TxnId};
use oltap_common::schema::SchemaRef;
use oltap_common::{Batch, DbError, Result, Row};
use oltap_txn::{Stamp, Transaction, Ts, WriteSetEntry};
use parking_lot::RwLock;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Write-set adapter finalizing a transaction's delete stamps in a segment.
struct SegmentDeleteEntry {
    segment: Arc<Segment>,
}

impl WriteSetEntry for SegmentDeleteEntry {
    fn commit(&self, txn: TxnId, commit_ts: Ts) {
        self.segment.commit_deletes(txn, commit_ts);
    }
    fn abort(&self, txn: TxnId) {
        self.segment.abort_deletes(txn);
    }
}

/// Statistics returned by [`DeltaMainTable::merge`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MergeStats {
    /// Rows moved from the delta into the new segment.
    pub rows_merged: usize,
    /// Id of the created segment (None when nothing was merged).
    pub new_segment: Option<u64>,
}

/// Statistics returned by [`DeltaMainTable::freeze`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FreezeStats {
    /// Segments rewritten into the frozen representation this pass.
    pub segments_frozen: usize,
    /// Row groups in the frozen rewrites.
    pub groups_frozen: usize,
    /// Rows dropped because their deletion is below the watermark.
    pub rows_dropped: usize,
    /// Compressed bytes of the rewritten segments before freezing.
    pub bytes_before: usize,
    /// Compressed bytes after freezing.
    pub bytes_after: usize,
    /// Unfrozen segments left alone this pass (still hot, pending deletes,
    /// or above the watermark) — they are re-evaluated next pass.
    pub segments_skipped: usize,
}

impl FreezeStats {
    /// Accumulates another pass (or another table) into this one.
    pub fn absorb(&mut self, other: &FreezeStats) {
        self.segments_frozen += other.segments_frozen;
        self.groups_frozen += other.groups_frozen;
        self.rows_dropped += other.rows_dropped;
        self.bytes_before += other.bytes_before;
        self.bytes_after += other.bytes_after;
        self.segments_skipped += other.segments_skipped;
    }
}

/// Aggregated heat/freeze counters (surfaced via `Database::stats`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HeatStats {
    /// Live frozen segments.
    pub frozen_segments: usize,
    /// Live frozen row groups.
    pub frozen_groups: usize,
    /// Sum of current per-group heat across all segments.
    pub total_heat: u64,
    /// Scans served by live frozen segments.
    pub frozen_scan_hits: u64,
    /// Segments ever frozen (cumulative over the table's lifetime).
    pub segments_frozen_total: u64,
    /// Cumulative compressed bytes before freezing.
    pub bytes_before_total: u64,
    /// Cumulative compressed bytes after freezing.
    pub bytes_after_total: u64,
}

impl HeatStats {
    /// Folds another table's counters into this aggregate.
    pub fn absorb(&mut self, other: &HeatStats) {
        self.frozen_segments += other.frozen_segments;
        self.frozen_groups += other.frozen_groups;
        self.total_heat += other.total_heat;
        self.frozen_scan_hits += other.frozen_scan_hits;
        self.segments_frozen_total += other.segments_frozen_total;
        self.bytes_before_total += other.bytes_before_total;
        self.bytes_after_total += other.bytes_after_total;
    }
}

/// Snapshot of table size for merge policies and planners.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TableSizes {
    /// Rows resident in main segments (including logically deleted).
    pub main_rows: usize,
    /// Of those, rows whose delete has committed: an updated row leaves one
    /// behind in its segment until a freeze rewrites it.
    pub main_dead_rows: usize,
    /// Distinct keys resident in the delta store.
    pub delta_rows: usize,
    /// Number of main segments.
    pub segments: usize,
    /// Compressed main bytes.
    pub main_bytes: usize,
}

struct TableState {
    delta: RowStore,
    /// Main segments in scan order. Changed only by [`TableState::publish`]
    /// and [`TableState::replace`], which keep `slot_of` in step.
    segments: Vec<Arc<Segment>>,
    /// Segment id → its position in `segments`: the insert check, the point
    /// read and the delete resolve a `pk_locs` entry through this, whatever
    /// number of segments the table has grown.
    slot_of: FxHashMap<SegmentId, usize>,
    /// Primary key → every main-store location that ever held the key.
    /// At most one location is visible to a given snapshot.
    pk_locs: FxHashMap<Row, Vec<(SegmentId, u32)>>,
}

impl TableState {
    fn segment(&self, id: SegmentId) -> Option<&Arc<Segment>> {
        self.slot_of.get(&id).map(|&slot| &self.segments[slot])
    }

    /// Publishes a new segment at the end of the scan order (bulk load,
    /// merge).
    fn publish(&mut self, seg: Arc<Segment>) {
        let taken = self.slot_of.insert(seg.id(), self.segments.len());
        assert!(taken.is_none(), "segment {} published twice", seg.id());
        self.segments.push(seg);
        self.check_slots();
    }

    /// Swaps the segment at `slot` for its rewrite (freeze), which keeps its
    /// place in the scan order; the old id retires.
    fn replace(&mut self, slot: usize, seg: Arc<Segment>) {
        let taken = self.slot_of.insert(seg.id(), slot);
        assert!(taken.is_none(), "segment {} published twice", seg.id());
        let old = std::mem::replace(&mut self.segments[slot], seg);
        let retired = self.slot_of.remove(&old.id());
        assert_eq!(retired, Some(slot), "segment {} off its slot", old.id());
        self.check_slots();
    }

    /// Every segment is found under its id, and nothing else is.
    fn check_slots(&self) {
        debug_assert_eq!(self.slot_of.len(), self.segments.len());
        debug_assert!((self.segments.iter().enumerate())
            .all(|(slot, seg)| self.slot_of.get(&seg.id()) == Some(&slot)));
    }
}

/// A delta + main table (the engine's column-store format).
pub struct DeltaMainTable {
    schema: SchemaRef,
    state: RwLock<TableState>,
    next_segment: AtomicU64,
    /// When set, merged/bulk-loaded segments are built *paged*: column
    /// data lives in page files and faults in through the buffer pool.
    pager: Option<Arc<SegmentPager>>,
    /// Cumulative freeze counters (survive segment churn).
    frozen_total: AtomicU64,
    freeze_bytes_before: AtomicU64,
    freeze_bytes_after: AtomicU64,
    /// Heat restored from a pre-restart snapshot that could not be applied
    /// yet because recovery replays the WAL into the *delta* — no segments
    /// exist until the first merge. The first merge after a seed drains
    /// this into the segment it builds.
    pending_seed_heat: AtomicU64,
}

impl std::fmt::Debug for DeltaMainTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let sizes = self.sizes();
        f.debug_struct("DeltaMainTable")
            .field("main_rows", &sizes.main_rows)
            .field("delta_rows", &sizes.delta_rows)
            .field("segments", &sizes.segments)
            .finish()
    }
}

impl DeltaMainTable {
    /// An empty table with fully resident segments.
    pub fn new(schema: SchemaRef) -> Self {
        Self::with_pager(schema, None)
    }

    /// An empty table; when `pager` is set, segments are paged through its
    /// buffer pool instead of held resident.
    pub fn with_pager(schema: SchemaRef, pager: Option<Arc<SegmentPager>>) -> Self {
        DeltaMainTable {
            state: RwLock::new(TableState {
                delta: RowStore::new(Arc::clone(&schema)),
                segments: Vec::new(),
                slot_of: FxHashMap::default(),
                pk_locs: FxHashMap::default(),
            }),
            schema,
            next_segment: AtomicU64::new(1),
            pager,
            frozen_total: AtomicU64::new(0),
            freeze_bytes_before: AtomicU64::new(0),
            freeze_bytes_after: AtomicU64::new(0),
            pending_seed_heat: AtomicU64::new(0),
        }
    }

    /// Restores access heat persisted before a restart. Existing segments
    /// are seeded immediately; when none exist yet (the recovery case —
    /// replayed rows sit in the delta until the first merge), the seed is
    /// held and applied to the first merged segment. Without this, every
    /// restart zeroes all heat and the freeze pass would re-freeze the
    /// working set after two idle maintenance ticks.
    pub fn seed_heat(&self, total: u64) {
        if total == 0 {
            return;
        }
        let state = self.state.read();
        if state.segments.is_empty() {
            self.pending_seed_heat.fetch_add(total, Ordering::Relaxed);
        } else {
            // The snapshot is table-granular; every live segment gets the
            // full coldness reprieve (conservative: freezing late is
            // recoverable, freezing the working set is a latency cliff).
            for seg in &state.segments {
                seg.seed_heat(total);
            }
        }
    }

    /// A streamed segment build in the table's residency mode (merge and
    /// freeze push rows group-at-a-time instead of materializing the
    /// whole segment).
    fn segment_builder(&self, id: SegmentId, visible_from: Ts) -> Result<SegmentBuilder> {
        Segment::builder(id, Arc::clone(&self.schema), visible_from, self.pager.as_ref())
    }

    /// The table schema.
    pub fn schema(&self) -> &SchemaRef {
        &self.schema
    }

    /// Current size snapshot.
    pub fn sizes(&self) -> TableSizes {
        let state = self.state.read();
        TableSizes {
            main_rows: state.segments.iter().map(|s| s.row_count()).sum(),
            main_dead_rows: (state.segments.iter())
                .map(|s| s.committed_delete_count())
                .sum(),
            delta_rows: state.delta.key_count(),
            segments: state.segments.len(),
            main_bytes: state.segments.iter().map(|s| s.size_bytes()).sum(),
        }
    }

    /// Bulk-loads rows directly into a main segment, visible to every
    /// snapshot (for initial population; bypasses transactions).
    pub fn bulk_load(&self, rows: &[Row]) -> Result<()> {
        for r in rows {
            self.schema.check_row(r)?;
        }
        let mut state = self.state.write();
        // Duplicate-key screening against both delta and existing main.
        if self.schema.has_primary_key() {
            for r in rows {
                let key = self.schema.key_of(r);
                if state.pk_locs.contains_key(&key) {
                    return Err(DbError::DuplicateKey(format!("{key}")));
                }
            }
        }
        let id = SegmentId(self.next_segment.fetch_add(1, Ordering::Relaxed));
        let seg = Segment::from_rows(id, Arc::clone(&self.schema), rows, 0, self.pager.as_ref())?;
        if self.schema.has_primary_key() {
            for (i, r) in rows.iter().enumerate() {
                let key = self.schema.key_of(r);
                state.pk_locs.entry(key).or_default().push((id, i as u32));
            }
        }
        state.publish(Arc::new(seg));
        Ok(())
    }

    /// Transactional insert. Checks primary-key uniqueness against both the
    /// main store (MVCC-aware) and the delta.
    pub fn insert(&self, txn: &Transaction, row: Row) -> Result<()> {
        self.schema.check_row(&row)?;
        let state = self.state.read();
        if self.schema.has_primary_key() {
            let key = self.schema.key_of(&row);
            self.check_main_insertable(&state, &key, txn)?;
        }
        state.delta.insert(txn, row)
    }

    /// Can `key` be inserted given the main store's contents?
    fn check_main_insertable(
        &self,
        state: &TableState,
        key: &Row,
        txn: &Transaction,
    ) -> Result<()> {
        let locs = match state.pk_locs.get(key) {
            Some(l) => l,
            None => return Ok(()),
        };
        for &(sid, off) in locs {
            let seg = state
                .segment(sid)
                .ok_or_else(|| DbError::Corruption(format!("missing segment {sid}")))?;
            match seg.delete_stamp(off) {
                None => {
                    return Err(DbError::DuplicateKey(format!("{key}")));
                }
                Some(Stamp::Pending(t)) if t == txn.id() => {
                    // We deleted it in this transaction: insert may proceed.
                }
                Some(Stamp::Pending(_)) => {
                    return Err(DbError::WriteConflict(
                        "concurrent delete on key".into(),
                    ))
                }
                Some(Stamp::Committed(ts)) if ts > txn.begin_ts() => {
                    return Err(DbError::WriteConflict(
                        "key deleted after snapshot".into(),
                    ))
                }
                Some(Stamp::Committed(_)) | Some(Stamp::Infinity) => {}
            }
        }
        Ok(())
    }

    /// Point lookup at a snapshot. Faults the row's pages when the main
    /// location is paged; page-read failures surface as typed errors.
    pub fn get(&self, key: &Row, read_ts: Ts, me: TxnId) -> Result<Option<Row>> {
        let state = self.state.read();
        if let Some(r) = state.delta.get(key, read_ts, me) {
            return Ok(Some(r));
        }
        let Some(locs) = state.pk_locs.get(key) else {
            return Ok(None);
        };
        for &(sid, off) in locs {
            if let Some(seg) = state.segment(sid) {
                if seg.visible_to(read_ts) && !seg.is_deleted(off, read_ts, me) {
                    return Ok(Some(seg.row_at(off)?));
                }
            }
        }
        Ok(None)
    }

    /// Transactional update (full-row image; the key must not change).
    pub fn update(&self, txn: &Transaction, key: &Row, row: Row) -> Result<()> {
        self.schema.check_row(&row)?;
        if !self.schema.has_primary_key() {
            return Err(DbError::Unsupported(
                "point operation on table without primary key".into(),
            ));
        }
        if self.schema.key_of(&row) != *key {
            return Err(DbError::InvalidArgument(
                "update must not change the primary key".into(),
            ));
        }
        let state = self.state.read();
        // Route to the delta when the delta holds the visible version.
        if state.delta.get(key, txn.begin_ts(), txn.id()).is_some() {
            return state.delta.update(txn, key, row);
        }
        // Main path: logical delete + re-insert into the delta.
        self.delete_in_main(&state, key, txn)?;
        state.delta.insert(txn, row)
    }

    /// Transactional delete.
    pub fn delete(&self, txn: &Transaction, key: &Row) -> Result<()> {
        if !self.schema.has_primary_key() {
            return Err(DbError::Unsupported(
                "point operation on table without primary key".into(),
            ));
        }
        let state = self.state.read();
        if state.delta.get(key, txn.begin_ts(), txn.id()).is_some() {
            return state.delta.delete(txn, key);
        }
        self.delete_in_main(&state, key, txn)
    }

    fn delete_in_main(&self, state: &TableState, key: &Row, txn: &Transaction) -> Result<()> {
        let locs = state
            .pk_locs
            .get(key)
            .ok_or_else(|| DbError::KeyNotFound(format!("{key}")))?;
        for &(sid, off) in locs {
            let seg = state
                .segment(sid)
                .ok_or_else(|| DbError::Corruption(format!("missing segment {sid}")))?;
            if !seg.visible_to(txn.begin_ts()) {
                continue;
            }
            match seg.delete_row(off, txn.id(), txn.begin_ts()) {
                Ok(()) => {
                    txn.enlist(Arc::new(SegmentDeleteEntry {
                        segment: Arc::clone(seg),
                    }))?;
                    return Ok(());
                }
                // Already deleted at this location: try the next one.
                Err(DbError::KeyNotFound(_)) => continue,
                Err(e) => return Err(e),
            }
        }
        Err(DbError::KeyNotFound(format!("{key}")))
    }

    /// Scans main segments (zone-map pruned, predicate pushdown on
    /// compressed data) plus the delta, producing batches.
    pub fn scan(
        &self,
        projection: &[usize],
        pred: &ScanPredicate,
        read_ts: Ts,
        me: TxnId,
        batch_size: usize,
    ) -> Result<Vec<Batch>> {
        pred.validate(&self.schema)?;
        let state = self.state.read();
        let mut out = Vec::new();
        for seg in &state.segments {
            if seg.visible_to(read_ts) {
                out.extend(seg.scan(projection, pred, read_ts, me, batch_size)?);
            }
        }
        out.extend(state.delta.scan_validated(projection, pred, read_ts, me, batch_size)?);
        Ok(out)
    }

    /// The raw inputs of a fused (operate-on-compressed) scan: the main
    /// segments visible at `read_ts` plus the delta store's batches. The
    /// fused aggregate path consumes segments without materializing them;
    /// the delta — row-format, a few thousand keys between two merges — is
    /// returned pre-scanned in the same order the batched
    /// [`DeltaMainTable::scan`] would emit it.
    pub fn fused_scan_parts(
        &self,
        projection: &[usize],
        pred: &ScanPredicate,
        read_ts: Ts,
        me: TxnId,
        batch_size: usize,
    ) -> Result<(Vec<Arc<Segment>>, Vec<Batch>)> {
        pred.validate(&self.schema)?;
        let state = self.state.read();
        let segments = state
            .segments
            .iter()
            .filter(|s| s.visible_to(read_ts))
            .cloned()
            .collect();
        let delta = state.delta.scan_validated(projection, pred, read_ts, me, batch_size)?;
        Ok((segments, delta))
    }

    /// Merges committed delta rows (at or below `watermark`) into a new
    /// main segment. See the module docs for why this is MVCC-safe.
    pub fn merge(&self, watermark: Ts) -> Result<MergeStats> {
        let mut state = self.state.write();
        let drained = state.delta.drain_committed(watermark);
        if drained.is_empty() {
            return Ok(MergeStats::default());
        }
        let id = SegmentId(self.next_segment.fetch_add(1, Ordering::Relaxed));
        let rows_merged = drained.len();
        if self.schema.has_primary_key() {
            for (i, r) in drained.iter().enumerate() {
                let key = self.schema.key_of(r);
                state.pk_locs.entry(key).or_default().push((id, i as u32));
            }
        }
        // Stream the drained rows into the builder: paged builds flush and
        // drop each full row group, so the drained vector shrinks as the
        // segment grows instead of coexisting with a second copy.
        let mut builder = self.segment_builder(id, watermark)?;
        for r in drained {
            builder.push_row(r)?;
        }
        let seg = Arc::new(builder.finish()?);
        // Apply heat restored from a pre-restart snapshot to the first
        // merged segment (recovery replays the WAL into the delta, so the
        // seed had nowhere to land until now).
        seg.seed_heat(self.pending_seed_heat.swap(0, Ordering::Relaxed));
        state.publish(seg);
        // Compact the delta index: drop chains now dead to every snapshot
        // (their data lives in the new segment). Live/pending chains move
        // over by Arc.
        state.delta = state.delta.rebuilt_without_dead(watermark);
        Ok(MergeStats {
            rows_merged,
            new_segment: Some(id.raw()),
        })
    }

    /// Decays every segment's heat counters and rewrites the *cold* ones
    /// into their frozen representation: surviving rows (deletions
    /// committed at or before `watermark` are dropped, L-Store style) are
    /// streamed into a fresh segment built with the frozen encodings
    /// (exact-cost selection, sorted-run delta, full-cardinality ordered
    /// dictionaries), and the replacement is swapped in atomically per
    /// segment under the table's state write lock.
    ///
    /// OLTP transparency: updates and deletes of frozen rows go through
    /// the delta / delete-stamp paths exactly as for hot segments, so no
    /// writer ever blocks on (or errors because of) a freeze. Segments
    /// with in-flight (pending) deletes are skipped **this pass** and
    /// re-evaluated on every subsequent pass — once the deleting
    /// transaction resolves and the watermark passes it, the segment
    /// freezes. Each segment is rewritten on its own: nothing coalesces
    /// segments.
    ///
    /// Crash hygiene: the frozen page file is published tmp+rename by the
    /// segment builder *before* the in-memory swap. The
    /// [`points::STORAGE_FREEZE_CRASH`] fault aborts between publish and
    /// swap — the table keeps serving the old representation unchanged and
    /// the orphaned replacement is reclaimed (Drop now, purge-at-open
    /// after a real crash, since segments rebuild from the WAL anyway).
    ///
    /// `force` freezes every eligible segment regardless of heat (tests,
    /// benchmarks, and explicit operator requests).
    pub fn freeze(
        &self,
        watermark: Ts,
        faults: &FaultInjector,
        force: bool,
    ) -> Result<FreezeStats> {
        /// Consecutive zero-heat maintenance decays before a segment is
        /// considered cold enough to freeze.
        const COLD_TICKS: u32 = 2;
        let mut state = self.state.write();
        let mut stats = FreezeStats::default();
        for idx in 0..state.segments.len() {
            let seg = Arc::clone(&state.segments[idx]);
            seg.decay_heat();
            if seg.is_frozen() {
                continue;
            }
            if !seg.visible_to(watermark)
                || seg.has_pending_deletes()
                || (!force && seg.cold_ticks() < COLD_TICKS)
            {
                stats.segments_skipped += 1;
                continue;
            }
            let bytes_before = seg.size_bytes();
            let id = SegmentId(self.next_segment.fetch_add(1, Ordering::Relaxed));
            let mut builder = self.segment_builder(id, watermark)?.frozen();
            // Old row offset → new offset for surviving rows (pk remap).
            let mut remap: FxHashMap<u32, u32> = FxHashMap::default();
            let mut carried_stamps: Vec<(u32, Stamp)> = Vec::new();
            let mut dropped = 0usize;
            for off in 0..seg.row_count() as u32 {
                let stamp = seg.delete_stamp(off);
                if let Some(Stamp::Committed(ts)) = stamp {
                    if ts <= watermark {
                        dropped += 1;
                        continue;
                    }
                }
                let new_off = builder.rows_pushed() as u32;
                if let Some(s @ Stamp::Committed(_)) = stamp {
                    carried_stamps.push((new_off, s));
                }
                remap.insert(off, new_off);
                builder.push_row(seg.row_at_uncounted(off)?)?;
            }
            let frozen = Arc::new(builder.finish()?);
            for &(off, stamp) in &carried_stamps {
                frozen.restore_delete_stamp(off, stamp);
            }
            // The replacement is fully built (page file published via
            // tmp+rename) but not yet visible. A crash here must leave the
            // old representation serving and the new one reclaimable.
            if faults.should_fire(points::STORAGE_FREEZE_CRASH) {
                return Err(DbError::FaultInjected(
                    "crash between freeze publish and swap".into(),
                ));
            }
            let bytes_after = frozen.size_bytes();
            // Atomic per-segment swap + pk remap, all under the write lock.
            state.replace(idx, Arc::clone(&frozen));
            if self.schema.has_primary_key() {
                let old_id = seg.id();
                for locs in state.pk_locs.values_mut() {
                    locs.retain_mut(|loc| {
                        if loc.0 != old_id {
                            return true;
                        }
                        match remap.get(&loc.1) {
                            Some(&new_off) => {
                                *loc = (id, new_off);
                                true
                            }
                            None => false,
                        }
                    });
                }
                state.pk_locs.retain(|_, locs| !locs.is_empty());
            }
            stats.segments_frozen += 1;
            stats.groups_frozen += frozen.group_count();
            stats.rows_dropped += dropped;
            stats.bytes_before += bytes_before;
            stats.bytes_after += bytes_after;
            self.frozen_total.fetch_add(1, Ordering::Relaxed);
            self.freeze_bytes_before
                .fetch_add(bytes_before as u64, Ordering::Relaxed);
            self.freeze_bytes_after
                .fetch_add(bytes_after as u64, Ordering::Relaxed);
        }
        Ok(stats)
    }

    /// Aggregated heat/freeze counters for `Database::stats`.
    pub fn heat_stats(&self) -> HeatStats {
        let state = self.state.read();
        let mut hs = HeatStats {
            segments_frozen_total: self.frozen_total.load(Ordering::Relaxed),
            bytes_before_total: self.freeze_bytes_before.load(Ordering::Relaxed),
            bytes_after_total: self.freeze_bytes_after.load(Ordering::Relaxed),
            ..HeatStats::default()
        };
        for s in &state.segments {
            hs.total_heat += s.heat();
            if s.is_frozen() {
                hs.frozen_segments += 1;
                hs.frozen_groups += s.group_count();
                hs.frozen_scan_hits += s.frozen_scan_hits();
            }
        }
        hs
    }

    /// Runs version GC on the delta store.
    pub fn gc(&self, watermark: Ts) -> usize {
        self.state.read().delta.gc(watermark)
    }

    /// Estimated visible row count (cheap, approximate: main rows minus
    /// committed deletes plus delta keys).
    pub fn row_count_estimate(&self) -> usize {
        let state = self.state.read();
        let main: usize = state
            .segments
            .iter()
            .map(|s| s.row_count().saturating_sub(s.delete_count()))
            .sum();
        main + state.delta.key_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::CmpOp;
    use oltap_common::row;
    use oltap_common::{DataType, Field, Schema, Value};
    use oltap_txn::TransactionManager;

    const NOBODY: TxnId = TxnId(u64::MAX - 1);

    fn table() -> (Arc<TransactionManager>, DeltaMainTable) {
        let schema = Arc::new(
            Schema::with_primary_key(
                vec![
                    Field::not_null("id", DataType::Int64),
                    Field::new("tag", DataType::Utf8),
                    Field::new("v", DataType::Int64),
                ],
                &["id"],
            )
            .unwrap(),
        );
        (
            Arc::new(TransactionManager::new()),
            DeltaMainTable::new(schema),
        )
    }

    fn count(t: &DeltaMainTable, read_ts: Ts) -> usize {
        t.scan(&[0], &ScanPredicate::all(), read_ts, NOBODY, 4096)
            .unwrap()
            .iter()
            .map(|b| b.len())
            .sum()
    }

    #[test]
    fn insert_lands_in_delta_then_merges_to_main() {
        let (mgr, t) = table();
        let tx = mgr.begin();
        for i in 0..100 {
            t.insert(&tx, row![i as i64, "a", i as i64]).unwrap();
        }
        let cts = tx.commit().unwrap();
        assert_eq!(t.sizes().delta_rows, 100);
        assert_eq!(t.sizes().main_rows, 0);
        assert_eq!(count(&t, cts), 100);

        let stats = t.merge(mgr.gc_watermark()).unwrap();
        assert_eq!(stats.rows_merged, 100);
        assert_eq!(t.sizes().main_rows, 100);
        assert_eq!(count(&t, mgr.now()), 100);
        // Point reads route to main now.
        assert!(t.get(&row![42i64], mgr.now(), NOBODY).unwrap().is_some());
    }

    #[test]
    fn merge_respects_watermark() {
        let (mgr, t) = table();
        let tx = mgr.begin();
        t.insert(&tx, row![1i64, "a", 1i64]).unwrap();
        tx.commit().unwrap();

        // A long-running reader pins an old snapshot.
        let reader = mgr.begin();

        let tx2 = mgr.begin();
        t.insert(&tx2, row![2i64, "b", 2i64]).unwrap();
        tx2.commit().unwrap();

        // Watermark is the reader's begin_ts: row 2 (committed later) must
        // stay in the delta.
        let stats = t.merge(mgr.gc_watermark()).unwrap();
        assert_eq!(stats.rows_merged, 1);
        // Key 2 is still live in the delta; key 1's chain was compacted
        // away (its data now lives in the segment).
        assert_eq!(t.sizes().delta_rows, 1);
        // The reader still sees exactly row 1.
        assert_eq!(count(&t, reader.begin_ts()), 1);
        // A fresh snapshot sees both, exactly once each.
        assert_eq!(count(&t, mgr.now()), 2);
        reader.commit().unwrap();

        // Now everything can merge.
        let stats = t.merge(mgr.gc_watermark()).unwrap();
        assert_eq!(stats.rows_merged, 1);
        assert_eq!(count(&t, mgr.now()), 2);
    }

    #[test]
    fn no_double_visibility_after_merge() {
        let (mgr, t) = table();
        let tx = mgr.begin();
        for i in 0..10 {
            t.insert(&tx, row![i as i64, "x", 0i64]).unwrap();
        }
        let cts = tx.commit().unwrap();
        t.merge(mgr.gc_watermark()).unwrap();
        // Snapshot taken before the merge but after commit: exactly 10.
        assert_eq!(count(&t, cts), 10);
        assert_eq!(count(&t, mgr.now()), 10);
    }

    #[test]
    fn update_of_main_row_is_delete_plus_delta_insert() {
        let (mgr, t) = table();
        t.bulk_load(&[row![1i64, "a", 10i64], row![2i64, "b", 20i64]])
            .unwrap();
        let tx = mgr.begin();
        t.update(&tx, &row![1i64], row![1i64, "a", 99i64]).unwrap();
        let cts = tx.commit().unwrap();

        assert_eq!(t.get(&row![1i64], cts, NOBODY).unwrap().unwrap()[2], Value::Int(99));
        // Old snapshot sees the old value.
        assert_eq!(
            t.get(&row![1i64], cts - 1, NOBODY).unwrap().unwrap()[2],
            Value::Int(10)
        );
        // Still exactly two visible rows.
        assert_eq!(count(&t, cts), 2);
    }

    #[test]
    fn delete_from_main_and_from_delta() {
        let (mgr, t) = table();
        t.bulk_load(&[row![1i64, "m", 1i64]]).unwrap();
        let tx = mgr.begin();
        t.insert(&tx, row![2i64, "d", 2i64]).unwrap();
        tx.commit().unwrap();

        let tx = mgr.begin();
        t.delete(&tx, &row![1i64]).unwrap(); // main row
        t.delete(&tx, &row![2i64]).unwrap(); // delta row
        let cts = tx.commit().unwrap();
        assert_eq!(count(&t, cts), 0);
        assert_eq!(count(&t, cts - 1), 2);
        assert!(t.get(&row![1i64], cts, NOBODY).unwrap().is_none());
    }

    #[test]
    fn duplicate_key_against_main_detected() {
        let (mgr, t) = table();
        t.bulk_load(&[row![1i64, "a", 1i64]]).unwrap();
        let tx = mgr.begin();
        assert!(matches!(
            t.insert(&tx, row![1i64, "dup", 0i64]),
            Err(DbError::DuplicateKey(_))
        ));
        // Delete-then-insert in one transaction is allowed.
        t.delete(&tx, &row![1i64]).unwrap();
        t.insert(&tx, row![1i64, "new", 5i64]).unwrap();
        let cts = tx.commit().unwrap();
        assert_eq!(
            t.get(&row![1i64], cts, NOBODY).unwrap().unwrap()[1],
            Value::Str("new".into())
        );
        assert_eq!(count(&t, cts), 1);
    }

    #[test]
    fn write_conflict_on_main_row() {
        let (mgr, t) = table();
        t.bulk_load(&[row![1i64, "a", 1i64]]).unwrap();
        let t1 = mgr.begin();
        let t2 = mgr.begin();
        t.update(&t1, &row![1i64], row![1i64, "a", 2i64]).unwrap();
        assert!(matches!(
            t.update(&t2, &row![1i64], row![1i64, "a", 3i64]),
            Err(DbError::WriteConflict(_))
        ));
        t1.commit().unwrap();
        // FCW against a stale snapshot.
        assert!(matches!(
            t.delete(&t2, &row![1i64]),
            Err(DbError::WriteConflict(_))
        ));
    }

    #[test]
    fn abort_of_main_update_restores_row() {
        let (mgr, t) = table();
        t.bulk_load(&[row![1i64, "a", 1i64]]).unwrap();
        let tx = mgr.begin();
        t.update(&tx, &row![1i64], row![1i64, "a", 2i64]).unwrap();
        tx.abort().unwrap();
        assert_eq!(
            t.get(&row![1i64], mgr.now(), NOBODY).unwrap().unwrap()[2],
            Value::Int(1)
        );
        assert_eq!(count(&t, mgr.now()), 1);
    }

    #[test]
    fn scan_pushdown_covers_delta_and_main() {
        let (mgr, t) = table();
        t.bulk_load(
            &(0..100)
                .map(|i| row![i as i64, "m", (i % 10) as i64])
                .collect::<Vec<_>>(),
        )
        .unwrap();
        let tx = mgr.begin();
        for i in 100..120 {
            t.insert(&tx, row![i as i64, "d", (i % 10) as i64]).unwrap();
        }
        let cts = tx.commit().unwrap();
        let pred = ScanPredicate::single(2, CmpOp::Eq, Value::Int(3));
        let total: usize = t
            .scan(&[0, 2], &pred, cts, NOBODY, 4096)
            .unwrap()
            .iter()
            .map(|b| b.len())
            .sum();
        assert_eq!(total, 12); // 10 from main, 2 from delta
    }

    #[test]
    fn repeated_update_merge_cycles() {
        let (mgr, t) = table();
        t.bulk_load(&[row![1i64, "a", 0i64]]).unwrap();
        for round in 1..=5 {
            let tx = mgr.begin();
            t.update(&tx, &row![1i64], row![1i64, "a", round as i64])
                .unwrap();
            tx.commit().unwrap();
            t.merge(mgr.gc_watermark()).unwrap();
            assert_eq!(
                t.get(&row![1i64], mgr.now(), NOBODY).unwrap().unwrap()[2],
                Value::Int(round as i64),
                "round {round}"
            );
            assert_eq!(count(&t, mgr.now()), 1, "round {round}");
        }
        // 1 bulk segment + 5 merge segments accumulated, the key's five
        // dead versions spread over the first five.
        assert_eq!(t.sizes().segments, 6);
        // A forced freeze rewrites each, drops the dead rows and leaves the
        // key pointing at its one live version; it folds nothing together.
        let stats = t.freeze(mgr.gc_watermark(), &FaultInjector::disabled(), true).unwrap();
        assert_eq!(stats.segments_frozen, 6);
        assert_eq!(stats.rows_dropped, 5);
        assert_eq!(t.sizes().segments, 6);
        assert_eq!(count(&t, mgr.now()), 1);
        assert_eq!(
            t.get(&row![1i64], mgr.now(), NOBODY).unwrap().unwrap()[2],
            Value::Int(5)
        );
        let tx = mgr.begin();
        t.update(&tx, &row![1i64], row![1i64, "a", 6i64]).unwrap();
        let cts = tx.commit().unwrap();
        assert_eq!(t.get(&row![1i64], cts, NOBODY).unwrap().unwrap()[2], Value::Int(6));
        assert_eq!(count(&t, cts), 1);
    }

    /// A `pk_locs` entry resolves through `slot_of`, not a walk: after 96
    /// publishes and a freeze that retires every id but the newest, the
    /// first, a middle and the last live segment are found under their ids
    /// at their slots, a retired id finds nothing, and point reads of the
    /// keys that moved still answer.
    #[test]
    fn segment_lookup_by_id_across_many_segments_and_a_freeze() {
        let (mgr, t) = table();
        let n = 96i64;
        for i in 0..n {
            let tx = mgr.begin();
            t.insert(&tx, row![i, "a", i]).unwrap();
            tx.commit().unwrap();
            t.merge(mgr.gc_watermark()).unwrap();
        }
        let ids = |t: &DeltaMainTable| -> Vec<SegmentId> {
            t.state.read().segments.iter().map(|s| s.id()).collect()
        };
        let before = ids(&t);
        assert_eq!(before.len(), n as usize);
        // One more merge after the freeze: frozen and unfrozen ids mix.
        let frozen = t
            .freeze(mgr.gc_watermark(), &FaultInjector::disabled(), true)
            .unwrap();
        assert_eq!(frozen.segments_frozen, n as usize);
        let tx = mgr.begin();
        t.insert(&tx, row![n, "a", n]).unwrap();
        tx.commit().unwrap();
        t.merge(mgr.gc_watermark()).unwrap();

        let after = ids(&t);
        assert_eq!(after.len(), n as usize + 1);
        {
            let state = t.state.read();
            for slot in [0, after.len() / 2, after.len() - 1] {
                let found = state.segment(after[slot]).expect("live id resolves");
                assert!(Arc::ptr_eq(found, &state.segments[slot]), "slot {slot}");
            }
            for retired in [before[0], before[before.len() / 2]] {
                assert!(!after.contains(&retired));
                assert!(state.segment(retired).is_none(), "{retired} retired");
            }
            assert!(state.segment(SegmentId(u64::MAX)).is_none());
        }
        for key in [0, n / 2, n - 1, n] {
            let got = t.get(&row![key], mgr.now(), NOBODY).unwrap();
            assert_eq!(got, Some(row![key, "a", key]));
        }
    }

    #[test]
    fn freeze_rewrites_cold_segments_without_changing_results() {
        let (mgr, t) = table();
        // Sorted ids and a low-cardinality tag: the frozen re-encoding has
        // something to win on (delta runs + full-cardinality dictionaries).
        let rows: Vec<_> = (0..500)
            .map(|i| row![i as i64, ["a", "b"][i % 2], (i / 10) as i64])
            .collect();
        t.bulk_load(&rows).unwrap();
        let faults = FaultInjector::disabled();

        // Hot segment: nothing freezes without `force` until it has been
        // cold for consecutive decay ticks.
        let stats = t.freeze(mgr.gc_watermark(), &faults, false).unwrap();
        assert_eq!(stats.segments_frozen, 0);
        assert_eq!(stats.segments_skipped, 1);

        // One more idle decay tick and it is cold; it freezes on its own.
        let stats = t.freeze(mgr.gc_watermark(), &faults, false).unwrap();
        assert_eq!(stats.segments_frozen, 1);
        assert!(stats.bytes_after <= stats.bytes_before, "{stats:?}");

        // A frozen segment is never re-frozen.
        let again = t.freeze(mgr.gc_watermark(), &faults, true).unwrap();
        assert_eq!(again.segments_frozen, 0);

        // Scans, predicates, and point reads are unchanged.
        assert_eq!(count(&t, mgr.now()), 500);
        let pred = ScanPredicate::single(0, CmpOp::Ge, Value::Int(400));
        let survivors: usize = t
            .scan(&[0], &pred, mgr.now(), NOBODY, 4096)
            .unwrap()
            .iter()
            .map(|b| b.len())
            .sum();
        assert_eq!(survivors, 100);
        assert_eq!(
            t.get(&row![123i64], mgr.now(), NOBODY).unwrap().unwrap()[2],
            Value::Int(12)
        );

        // OLTP stays transparent: update + delete against frozen rows.
        let tx = mgr.begin();
        t.update(&tx, &row![1i64], row![1i64, "a", 999i64]).unwrap();
        t.delete(&tx, &row![2i64]).unwrap();
        let cts = tx.commit().unwrap();
        assert_eq!(t.get(&row![1i64], cts, NOBODY).unwrap().unwrap()[2], Value::Int(999));
        assert!(t.get(&row![2i64], cts, NOBODY).unwrap().is_none());
        assert_eq!(count(&t, cts), 499);

        let hs = t.heat_stats();
        assert_eq!(hs.frozen_segments, 1);
        assert!(hs.frozen_scan_hits > 0);
    }

    /// A segment's frames leave the pool with it. Merged segments are read
    /// into a governed pool, then frozen away: what stays resident — and
    /// claimed from the governor — is the pages of the live segments, none
    /// of which has been read yet; a scan then brings in exactly those.
    #[test]
    fn frames_of_a_replaced_segment_leave_the_pool_with_it() {
        use crate::buffer::BufferManager;
        use oltap_common::mem::MemoryGovernor;
        let gov = MemoryGovernor::new(u64::MAX, u64::MAX, u64::MAX);
        let buffer = BufferManager::new(u64::MAX, Some(Arc::clone(&gov)), FaultInjector::disabled());
        let root = std::env::temp_dir().join(format!("oltap-delta-pages-{}", std::process::id()));
        let faults = FaultInjector::disabled();
        let pager = SegmentPager::new(root, Arc::clone(&buffer), 64, Arc::clone(&faults));
        let (mgr, plain) = table();
        let t = DeltaMainTable::with_pager(Arc::clone(plain.schema()), Some(pager));
        let read_all = |t: &DeltaMainTable| {
            (t.scan(&[0, 1, 2], &ScanPredicate::all(), mgr.now(), NOBODY, 4096).unwrap())
                .iter()
                .map(|b| b.len())
                .sum::<usize>()
        };
        for batch in 0..2i64 {
            let tx = mgr.begin();
            for i in batch * 300..(batch + 1) * 300 {
                t.insert(&tx, row![i, ["a", "b"][i as usize % 2], i / 10]).unwrap();
            }
            tx.commit().unwrap();
            t.merge(mgr.gc_watermark()).unwrap();
        }
        assert_eq!(read_all(&t), 600);
        let hot = buffer.stats().resident_bytes;
        assert!(hot > 0 && gov.buffer_used() == hot);

        let stats = t.freeze(mgr.gc_watermark(), &faults, true).unwrap();
        assert_eq!(stats.segments_frozen, 2);
        assert_eq!(buffer.stats().resident_bytes, 0, "dead frames stayed resident");
        assert_eq!(gov.buffer_used(), 0, "dead frames stayed claimed");

        assert_eq!(read_all(&t), 600);
        let (segments, _) = t
            .fused_scan_parts(&[0, 1, 2], &ScanPredicate::all(), mgr.now(), NOBODY, 4096)
            .unwrap();
        let live: usize = (segments.iter())
            .flat_map(|s| (0..s.group_count()).flat_map(move |g| (0..3).map(move |c| (s, g, c))))
            .map(|(s, g, c)| s.column_chunk(g, c).unwrap().size_bytes())
            .sum();
        assert_eq!(buffer.stats().resident_bytes, live as u64);
        assert_eq!(gov.buffer_used(), live as u64);
        assert_eq!(buffer.stats().pinned_bytes, 0);
    }

    #[test]
    fn freeze_reevaluates_segments_once_pending_deletes_commit() {
        let (mgr, t) = table();
        t.bulk_load(&[row![1i64, "a", 1i64], row![2i64, "b", 2i64]])
            .unwrap();
        let faults = FaultInjector::disabled();

        // An in-flight delete blocks the freeze (stamps must not be
        // baked into an immutable rewrite while undecided).
        let tx = mgr.begin();
        t.delete(&tx, &row![1i64]).unwrap();
        let stats = t.freeze(mgr.gc_watermark(), &faults, true).unwrap();
        assert_eq!(stats.segments_frozen, 0);
        assert_eq!(stats.segments_skipped, 1);

        // The skip is NOT permanent: after the delete commits and the GC
        // watermark passes it, the next pass rewrites the segment and
        // drops the dead row.
        tx.commit().unwrap();
        let stats = t.freeze(mgr.gc_watermark(), &faults, true).unwrap();
        assert_eq!(stats.segments_frozen, 1);
        assert_eq!(stats.rows_dropped, 1);
        assert_eq!(count(&t, mgr.now()), 1);
        assert!(t.get(&row![1i64], mgr.now(), NOBODY).unwrap().is_none());
        assert_eq!(
            t.get(&row![2i64], mgr.now(), NOBODY).unwrap().unwrap()[1],
            Value::Str("b".into())
        );
    }

    #[test]
    fn freeze_crash_point_leaves_table_intact() {
        let (mgr, t) = table();
        let rows: Vec<_> = (0..200).map(|i| row![i as i64, "x", i as i64]).collect();
        t.bulk_load(&rows).unwrap();
        let faults = FaultInjector::new(7);
        faults.arm(points::STORAGE_FREEZE_CRASH, oltap_common::FaultPoint::times(1));

        let err = t.freeze(mgr.gc_watermark(), &faults, true).unwrap_err();
        assert!(matches!(err, DbError::FaultInjected(_)), "{err}");
        // The swap never happened: the segment is still unfrozen and every
        // row is still readable.
        assert_eq!(t.heat_stats().frozen_segments, 0);
        assert_eq!(count(&t, mgr.now()), 200);

        // The retry (fault exhausted) succeeds with identical results.
        let stats = t.freeze(mgr.gc_watermark(), &faults, true).unwrap();
        assert_eq!(stats.segments_frozen, 1);
        assert_eq!(count(&t, mgr.now()), 200);
    }

    #[test]
    fn seeded_heat_defers_freeze_after_restart() {
        let faults = FaultInjector::disabled();

        // Recovery case: rows sit in the delta (no segments yet) when the
        // restored heat arrives; the first merge must inherit it.
        let (mgr, t) = table();
        let tx = mgr.begin();
        for i in 0..50 {
            t.insert(&tx, row![i as i64, "a", i as i64]).unwrap();
        }
        tx.commit().unwrap();
        t.seed_heat(64);
        t.merge(mgr.gc_watermark()).unwrap();
        assert!(t.heat_stats().total_heat > 0);
        // Two idle ticks freeze a cold segment; the seed keeps this one hot.
        for _ in 0..2 {
            let fs = t.freeze(mgr.gc_watermark(), &faults, false).unwrap();
            assert_eq!(fs.segments_frozen, 0, "seeded segment froze early");
        }

        // Control: identical table without the seed freezes on the second
        // idle tick.
        let (mgr2, t2) = table();
        let tx = mgr2.begin();
        for i in 0..50 {
            t2.insert(&tx, row![i as i64, "a", i as i64]).unwrap();
        }
        tx.commit().unwrap();
        t2.merge(mgr2.gc_watermark()).unwrap();
        let mut frozen = 0;
        for _ in 0..2 {
            frozen += t2
                .freeze(mgr2.gc_watermark(), &faults, false)
                .unwrap()
                .segments_frozen;
        }
        assert_eq!(frozen, 1, "unseeded control did not freeze");

        // Seeding with live segments applies immediately (no merge needed).
        let before = t2.heat_stats().total_heat;
        t2.seed_heat(16);
        assert!(t2.heat_stats().total_heat > before);
    }

    #[test]
    fn merge_then_update_routes_to_main_path() {
        let (mgr, t) = table();
        let tx = mgr.begin();
        t.insert(&tx, row![1i64, "a", 1i64]).unwrap();
        tx.commit().unwrap();
        t.merge(mgr.gc_watermark()).unwrap();

        let tx = mgr.begin();
        t.update(&tx, &row![1i64], row![1i64, "a", 2i64]).unwrap();
        let cts = tx.commit().unwrap();
        assert_eq!(t.get(&row![1i64], cts, NOBODY).unwrap().unwrap()[2], Value::Int(2));
        assert_eq!(count(&t, cts), 1);
    }

    #[test]
    fn keyless_table_ingest_and_merge() {
        let schema = Arc::new(Schema::new(vec![Field::new("v", DataType::Int64)]));
        let t = DeltaMainTable::new(schema);
        let mgr = Arc::new(TransactionManager::new());
        let tx = mgr.begin();
        for i in 0..50 {
            t.insert(&tx, row![i as i64]).unwrap();
        }
        tx.commit().unwrap();
        let stats = t.merge(mgr.gc_watermark()).unwrap();
        assert_eq!(stats.rows_merged, 50);
        assert_eq!(count(&t, mgr.now()), 50);
    }

    #[test]
    fn concurrent_scans_during_merge() {
        let (mgr, t) = table();
        let t = Arc::new(t);
        let tx = mgr.begin();
        for i in 0..2000 {
            t.insert(&tx, row![i as i64, "x", i as i64]).unwrap();
        }
        tx.commit().unwrap();

        let scanners: Vec<_> = (0..4)
            .map(|_| {
                let t = Arc::clone(&t);
                let mgr = Arc::clone(&mgr);
                std::thread::spawn(move || {
                    for _ in 0..20 {
                        let n = count(&t, mgr.now());
                        assert_eq!(n, 2000);
                    }
                })
            })
            .collect();
        t.merge(mgr.gc_watermark()).unwrap();
        for s in scanners {
            s.join().unwrap();
        }
        assert_eq!(count(&t, mgr.now()), 2000);
    }
}
