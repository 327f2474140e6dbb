//! The delta + main architecture: a writable row-format delta store in
//! front of immutable compressed columnar segments, reconciled by a merge.
//!
//! This is the storage design the tutorial traces from differential files
//! and LSM-trees (§4, \[29, 16\]) into HANA's delta/main and MemSQL's
//! row-store-plus-column-store: ingest lands in the row-format delta at
//! OLTP speed; a **merge** drains committed delta rows into a new compressed
//! segment; analytic scans read segments (fast, compressed, zone-mapped)
//! plus the delta (fresh); a **coalesce** keeps the segments few and their
//! dead rows out. DESIGN.md § "Hot/cold compaction" has the measurements.
//!
//! # When the delta merges
//!
//! By a cost decision, not a clock (ski rental). Every scan of the delta
//! adds the keys it walked to the delta's visit count
//! ([`RowStore::visits`]); a statement pays about `VISIT_NS` (125 ns) for
//! each. Maintenance pays about `MERGE_ROW_NS` (2.3 µs) a row a merge
//! moves — the merge's own ≈ 1 µs and the rewrites coalescing later makes
//! of the row — plus `MERGE_FIXED_NS` (110 µs) a merge however few. Once
//! the scans have paid as much for leaving the keys where they are as a
//! merge would cost to move them, the scan that crossed the line flags the
//! table and rings its [`MergeBell`]; the maintenance daemon wakes and
//! merges that table alone ([`DeltaMainTable::merge_if_due`]). A table
//! nobody scans never merges between the daemon's passes. The three costs
//! are constants measured by `examples/segment_cost.rs`; none is
//! configurable.
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
//!
//! # Coalescing
//!
//! Each merge adds a segment, and an update of a merged row leaves a dead
//! one behind in its segment; the full maintenance pass (merge → coalesce →
//! freeze → gc) rewrites runs of **adjacent** segments as one, deciding from
//! live-row sizes alone: walking from the tail, an older segment joins the
//! run behind it while its live rows are at most twice the run's (a binary
//! counter: sizes at least double from the tail towards the head, so a
//! table holds O(log rows) segments and a row is rewritten O(log rows)
//! times), and a segment at least half dead at the watermark is rewritten
//! even on its own (so stored rows stay under twice the live ones).
//!
//! * Only adjacent runs are joined, and survivors keep their order, so
//!   every visible row keeps its place in the (segment, group, row) order a
//!   scan — and an in-order float sum — walks: answers keep their bits.
//! * Frozen and unfrozen segments never share a run: cold data keeps its
//!   frozen encodings, and hot data is not re-encoded as cold.
//! * Rows whose delete committed at or before the watermark are dropped;
//!   later stamps are carried. The rewrite is visible from the latest
//!   `visible_from` of its inputs, which is at or below the watermark, so
//!   every snapshot a reader may still take sees it whole, exactly as it
//!   saw every input.
//! * The rewrite is built beside the table, from the inputs' `Arc`s, with
//!   no table lock held (a per-table maintenance mutex keeps two passes off
//!   the same run), and published in one swap under the write lock.
//!   Pending delete stamps are copied into it, and each retired input
//!   forwards later `commit_deletes` / `abort_deletes` there
//!   (`Segment::retire_into`): the forward is set under the input's own
//!   stamp lock, so a transaction resolving its delete lands either before
//!   the copy or through the forward.
//!
//! The freeze pass is the same rebuild of a run of one, into the frozen
//! encodings.
//!
//! # The main store's key index
//!
//! A point read, an insert's uniqueness check and the delete half of an
//! update find a key's main-store rows through `pk_locs`: the FxHash of the
//! key's values (`Value`'s own `Hash`, so a lookup key hashes as the row it
//! names does) → the `(segment, offset)` locations of keys of that hash, one
//! inline and a `Vec` only past one. No key is copied into it, as in
//! L-Store, whose index resolves a key to a record location over a
//! read-optimised base while the record holds the key. A hash only
//! nominates: every use checks the key at the location it finds — a point
//! read against the row it materializes, the insert check, the delete and
//! the bulk load against the key columns alone. A merge hashes the rows it
//! drains; a rebuild hashes its inputs' key columns, and its swap moves
//! each entry by that hash and the exact old location, which names one row,
//! so the swap compares no key.
//!
//! The delta is a [`RowStore`]: its skip list holds the key of every write,
//! and an insert searches it at most once
//! ([`crate::skiplist::SkipList::get_or_insert_with`]; not at all for a key
//! above every key the delta holds, as a load in key order is).

use crate::buffer::SegmentPager;
use crate::predicate::ScanPredicate;
use crate::rowstore::RowStore;
use crate::segment::{Segment, SegmentBuilder, DROPPED};
use oltap_common::fault::{points, FaultInjector};
use oltap_common::hash::{FxHashMap, FxHasher};
use oltap_common::ids::{SegmentId, TxnId};
use oltap_common::schema::SchemaRef;
use oltap_common::{Batch, DbError, Result, Row, Value};
use oltap_txn::{Stamp, Transaction, Ts, WriteSetEntry};
use parking_lot::{Condvar, Mutex, RwLock, RwLockWriteGuard};
use std::borrow::Borrow;
use std::hash::{Hash, Hasher};
use std::ops::{Deref, DerefMut, Range};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// What an analytic statement pays for each delta key its scan walks, ns:
/// 114–136 measured (`examples/segment_cost`: the four `order_line`
/// statements over a 3 400-key delta, and again once it merged).
const VISIT_NS: u64 = 125;
/// What maintenance pays for each row a merge moves into a segment, ns, all
/// in: the merge's own 1 025–1 060, and the coalesces that rewrite the row
/// later (2 276–2 376 measured, every maintenance step over the probe's
/// 6 800 NewOrders divided by the rows merged). Re-measured once `pk_locs`
/// held key hashes instead of key copies, alternated with the key-copying
/// build on a slower day: the merge's own 1 638–1 688 (1 444–2 370 before),
/// all in 2 579–2 768 (4 015–4 926 before). Not retuned: this and
/// `MERGE_FIXED_NS` set how often a scanned delta merges.
const MERGE_ROW_NS: u64 = 2_300;
/// What a merge pays however few rows it moves, ns (108–111 µs measured).
const MERGE_FIXED_NS: u64 = 110_000;

/// Is `delta` worth merging? The scans have paid `visits × VISIT_NS` for
/// leaving its keys where they are; a merge would move them for
/// `keys × MERGE_ROW_NS + MERGE_FIXED_NS`.
fn merge_pays(delta: &RowStore) -> bool {
    let keys = delta.key_count() as u64;
    keys > 0
        && delta.visits().saturating_mul(VISIT_NS)
            >= keys.saturating_mul(MERGE_ROW_NS).saturating_add(MERGE_FIXED_NS)
}

/// What a table rings when its delta has become worth merging, and what
/// the maintenance daemon waits on between its passes. Rings are counted,
/// so none is lost between a waiter's look and its wait.
#[derive(Debug, Default)]
pub struct MergeBell {
    rings: Mutex<u64>,
    rung: Condvar,
}

impl MergeBell {
    /// Wakes every waiter.
    pub fn ring(&self) {
        *self.rings.lock() += 1;
        self.rung.notify_all();
    }

    /// Waits until the bell has rung more than `*seen` times or `deadline`
    /// has passed. True when it rang; `*seen` is then brought up to date.
    pub fn wait(&self, seen: &mut u64, deadline: Instant) -> bool {
        let mut rings = self.rings.lock();
        while *rings == *seen {
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            self.rung.wait_for(&mut rings, deadline - now);
        }
        *seen = *rings;
        true
    }
}

/// A `pk_locs` location whose segment the table no longer has.
fn missing_segment(sid: SegmentId) -> DbError {
    DbError::Corruption(format!("missing segment {sid}"))
}

/// Write-set adapter finalizing a transaction's delete stamp on one
/// segment row.
struct SegmentDeleteEntry {
    segment: Arc<Segment>,
    offset: u32,
}

impl WriteSetEntry for SegmentDeleteEntry {
    fn commit(&self, txn: TxnId, commit_ts: Ts) {
        self.segment.commit_delete(self.offset, txn, commit_ts);
    }
    fn abort(&self, txn: TxnId) {
        self.segment.abort_delete(self.offset, txn);
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
    /// behind in its segment until a coalesce or a freeze rewrites it.
    pub main_dead_rows: usize,
    /// Distinct keys resident in the delta store.
    pub delta_rows: usize,
    /// Number of main segments.
    pub segments: usize,
    /// Compressed main bytes.
    pub main_bytes: usize,
}

/// A main-store location: a segment and a row offset in it.
type Loc = (SegmentId, u32);

/// The locations one key hash nominates: one inline, a `Vec` only past
/// one (an updated key's dead versions, or another key of the same hash).
/// `Many` always holds at least two.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Locs {
    One(Loc),
    Many(Vec<Loc>),
}

impl Locs {
    fn as_slice(&self) -> &[Loc] {
        match self {
            Locs::One(loc) => std::slice::from_ref(loc),
            Locs::Many(locs) => locs,
        }
    }

    fn push(&mut self, loc: Loc) {
        match self {
            Locs::One(first) => *self = Locs::Many(vec![*first, loc]),
            Locs::Many(locs) => locs.push(loc),
        }
    }

    /// Moves location `old` to `new`, or drops it when `new` is `None`;
    /// false when that leaves no location.
    fn replace(&mut self, old: Loc, new: Option<Loc>) -> bool {
        match self {
            Locs::One(loc) if *loc == old => match new {
                Some(new) => *loc = new,
                None => return false,
            },
            Locs::One(_) => {}
            Locs::Many(locs) => {
                if let Some(at) = locs.iter().position(|&loc| loc == old) {
                    match new {
                        Some(new) => locs[at] = new,
                        None => {
                            locs.remove(at);
                        }
                    }
                }
                if let [only] = locs[..] {
                    *self = Locs::One(only);
                }
            }
        }
        true
    }
}

/// The main store's primary-key index: the hash of a key's values
/// ([`DeltaMainTable::key_hash`]) → every location holding a key of that
/// hash, one a stored row. A hash only nominates: every use checks the key
/// at the location it finds. No key is copied into it.
#[derive(Debug, Default)]
struct KeyIndex {
    locs: FxHashMap<u64, Locs>,
}

impl KeyIndex {
    fn get(&self, hash: u64) -> &[Loc] {
        self.locs.get(&hash).map_or(&[], Locs::as_slice)
    }

    /// Room for `more` new hashes without rehashing.
    fn reserve(&mut self, more: usize) {
        self.locs.reserve(more);
    }

    fn add(&mut self, hash: u64, loc: Loc) {
        match self.locs.get_mut(&hash) {
            Some(locs) => locs.push(loc),
            None => {
                self.locs.insert(hash, Locs::One(loc));
            }
        }
    }

    /// Moves the entry for location `old` under `hash` to `new`, or drops
    /// it. A location names one row, so no key is compared.
    fn relocate(&mut self, hash: u64, old: Loc, new: Option<Loc>) {
        if let Some(locs) = self.locs.get_mut(&hash) {
            if !locs.replace(old, new) {
                self.locs.remove(&hash);
            }
        }
    }

    /// Every location held, over all hashes.
    #[cfg(test)]
    fn location_count(&self) -> usize {
        self.locs.values().map(|locs| locs.as_slice().len()).sum()
    }
}

/// Does `row` hold `key` in the primary-key `columns`?
fn row_holds_key(row: &Row, columns: &[usize], key: &Row) -> bool {
    key.len() == columns.len() && columns.iter().zip(key.values()).all(|(&c, v)| row[c] == *v)
}

struct TableState {
    delta: RowStore,
    /// Main segments in scan order. Changed only by [`TableState::publish`]
    /// and [`TableState::retire`], which keep `slot_of` in step.
    segments: Vec<Arc<Segment>>,
    /// Segment id → its position in `segments`: the insert check, the point
    /// read and the delete resolve a `pk_locs` location through this,
    /// whatever number of segments the table has grown.
    slot_of: FxHashMap<SegmentId, usize>,
    /// Primary-key hash → the main-store locations of keys of that hash,
    /// one a stored row (a table without a key has none). Of the locations
    /// holding one key, at most one is visible to a given snapshot. The
    /// key itself lives only in its segment, where every lookup checks it.
    pk_locs: KeyIndex,
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

    /// Swaps the run of segments at `slots` for its rewrite (coalesce,
    /// freeze), which takes the run's place in the scan order — or, when no
    /// row survived, for nothing. The run's ids retire.
    fn retire(&mut self, slots: Range<usize>, seg: Option<Arc<Segment>>) {
        if let Some(seg) = &seg {
            assert!(!self.slot_of.contains_key(&seg.id()), "segment {} published twice", seg.id());
        }
        let start = slots.start;
        for old in self.segments.splice(slots, seg) {
            self.slot_of.remove(&old.id());
        }
        // Every segment from the run on may have moved.
        for (slot, seg) in self.segments.iter().enumerate().skip(start) {
            self.slot_of.insert(seg.id(), slot);
        }
        self.check_slots();
    }

    /// Every segment is found under its id, and nothing else is.
    fn check_slots(&self) {
        debug_assert_eq!(self.slot_of.len(), self.segments.len());
        debug_assert!((self.segments.iter().enumerate())
            .all(|(slot, seg)| self.slot_of.get(&seg.id()) == Some(&slot)));
    }
}

/// The table's state under its write lock, timed: when released, the hold
/// (not the wait for it) is folded into the table's longest, which the
/// maintenance note reports.
struct HeldState<'a> {
    state: RwLockWriteGuard<'a, TableState>,
    since: Instant,
    longest_ns: &'a AtomicU64,
}

impl Deref for HeldState<'_> {
    type Target = TableState;
    fn deref(&self) -> &TableState {
        &self.state
    }
}

impl DerefMut for HeldState<'_> {
    fn deref_mut(&mut self) -> &mut TableState {
        &mut self.state
    }
}

impl Drop for HeldState<'_> {
    fn drop(&mut self) {
        let held = self.since.elapsed().as_nanos() as u64;
        self.longest_ns.fetch_max(held, Ordering::Relaxed);
    }
}

/// A run of adjacent segments rebuilt as one, built but not yet published.
struct Rebuilt {
    /// The run, in scan order.
    inputs: Vec<Arc<Segment>>,
    /// `moved[i][offset]`: input `i`'s row `offset` in the output, or
    /// [`DROPPED`].
    moved: Vec<Vec<u32>>,
    /// `hashes[i][offset]`: the primary-key hash of input `i`'s row
    /// `offset` (empty for a table without a key).
    hashes: Vec<Vec<u64>>,
    /// The rewrite; `None` when no row survived.
    output: Option<Arc<Segment>>,
    /// Rows left out as dead at the watermark.
    rows_dropped: usize,
}

/// What one coalesce step did.
#[derive(Debug, Default)]
struct Coalesced {
    runs: usize,
    segments_in: usize,
    segments_out: usize,
    rows_dropped: usize,
}

/// The runs a coalesce rewrites, as slot ranges of `segments` (in scan
/// order), from the tail: an older segment joins the run behind it while
/// its live rows at `watermark` are at most twice the run's, and a run of
/// one is rewritten only when at least half its rows are dead. A run never
/// mixes frozen and unfrozen segments — cold data keeps its frozen
/// encodings and hot data is not re-encoded as cold — and a segment
/// `watermark` cannot see yet ends a run and is left alone.
fn coalesce_runs(segments: &[Arc<Segment>], watermark: Ts) -> Vec<Range<usize>> {
    // (live, dead, frozen) of each segment the watermark sees.
    let sizes: Vec<Option<(usize, usize, bool)>> = (segments.iter())
        .map(|seg| {
            let dead = seg.dead_count_at(watermark);
            seg.visible_to(watermark).then(|| (seg.row_count() - dead, dead, seg.is_frozen()))
        })
        .collect();
    let mut runs = Vec::new();
    let mut end = sizes.len();
    while end > 0 {
        let Some((live, dead, frozen)) = sizes[end - 1] else {
            end -= 1;
            continue;
        };
        let (mut start, mut run_live) = (end - 1, live);
        while let Some(Some((older, _, older_frozen))) =
            start.checked_sub(1).map(|slot| sizes[slot])
        {
            if older > 2 * run_live || older_frozen != frozen {
                break;
            }
            start -= 1;
            run_live += older;
        }
        if end - start > 1 || 2 * dead >= live + dead {
            runs.push(start..end);
        }
        end = start;
    }
    runs
}

/// A delta + main table (the engine's column-store format).
pub struct DeltaMainTable {
    schema: SchemaRef,
    state: RwLock<TableState>,
    next_segment: AtomicU64,
    /// When set, merged/bulk-loaded segments are built *paged*: column
    /// data lives in page files and faults in through the buffer pool.
    pager: Option<Arc<SegmentPager>>,
    /// Serialises merge, coalesce and freeze: a rewrite builds with no
    /// table lock held, from `Arc`s of its inputs, and nothing else may
    /// retire those inputs meanwhile.
    maintenance: Mutex<()>,
    /// Rung when a scan finds the delta worth merging.
    bell: Option<Arc<MergeBell>>,
    /// Set by the scan that found the delta worth merging (and rang),
    /// cleared by the next merge.
    due: AtomicBool,
    /// Merges the trigger ran since the last full pass.
    triggered: AtomicU64,
    /// Longest hold of the state write lock since the last full pass, ns.
    longest_hold_ns: AtomicU64,
    /// Cumulative freeze counters (survive segment churn).
    frozen_total: AtomicU64,
    freeze_bytes_before: AtomicU64,
    freeze_bytes_after: AtomicU64,
    /// Heat restored from a pre-restart snapshot that could not be applied
    /// yet because recovery replays the WAL into the *delta* — no segments
    /// exist until the first merge. The first merge after a seed drains
    /// this into the segment it builds.
    pending_seed_heat: AtomicU64,
    /// Every key hashes alike ([`DeltaMainTable::with_one_key_hash`]).
    #[cfg(test)]
    one_hash: bool,
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
                pk_locs: KeyIndex::default(),
            }),
            schema,
            next_segment: AtomicU64::new(1),
            pager,
            maintenance: Mutex::new(()),
            bell: None,
            due: AtomicBool::new(false),
            triggered: AtomicU64::new(0),
            longest_hold_ns: AtomicU64::new(0),
            frozen_total: AtomicU64::new(0),
            freeze_bytes_before: AtomicU64::new(0),
            freeze_bytes_after: AtomicU64::new(0),
            pending_seed_heat: AtomicU64::new(0),
            #[cfg(test)]
            one_hash: false,
        }
    }

    /// The table with every primary key sent to one hash: each lookup of
    /// the main store's key index then nominates every location the table
    /// has, and only the key checks at those locations tell rows apart.
    #[cfg(test)]
    fn with_one_key_hash(mut self) -> Self {
        self.one_hash = true;
        self
    }

    /// The FxHash of a primary key's values, in key-column order, through
    /// `Value`'s own `Hash`: the same from a row's key columns, a lookup
    /// key or a segment's decoded key columns.
    fn key_hash<V: Borrow<Value>>(&self, key: impl IntoIterator<Item = V>) -> u64 {
        #[cfg(test)]
        if self.one_hash {
            return 0;
        }
        let mut hasher = FxHasher::default();
        for value in key {
            value.borrow().hash(&mut hasher);
        }
        hasher.finish()
    }

    /// The key hash of `row`'s primary-key columns.
    fn row_key_hash(&self, row: &Row) -> u64 {
        self.key_hash(self.schema.primary_key().iter().map(|&c| &row[c]))
    }

    /// The table, ringing `bell` when a scan finds its delta worth merging
    /// (see the module docs); without one the flag is still set and
    /// [`merge_if_due`](Self::merge_if_due) still answers.
    pub fn with_bell(mut self, bell: Arc<MergeBell>) -> Self {
        self.bell = Some(bell);
        self
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
    /// the rewrites push rows group-at-a-time instead of materializing the
    /// whole segment).
    fn segment_builder(&self, id: SegmentId, visible_from: Ts) -> Result<SegmentBuilder> {
        Segment::builder(id, Arc::clone(&self.schema), visible_from, self.pager.as_ref())
    }

    /// The state under its write lock, the hold timed ([`HeldState`]).
    fn write_state(&self) -> HeldState<'_> {
        let state = self.state.write();
        HeldState {
            state,
            since: Instant::now(),
            longest_ns: &self.longest_hold_ns,
        }
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
        let mut state = self.write_state();
        // Duplicate-key screening against the main store: a key stored
        // anywhere in it, dead or alive, refuses the load.
        let key_columns = self.schema.primary_key();
        let hashes: Vec<u64> = if key_columns.is_empty() {
            Vec::new()
        } else {
            rows.iter().map(|r| self.row_key_hash(r)).collect()
        };
        for (r, &hash) in rows.iter().zip(&hashes) {
            for &(sid, off) in state.pk_locs.get(hash) {
                let seg = state.segment(sid).ok_or_else(|| missing_segment(sid))?;
                let key: Vec<&Value> = key_columns.iter().map(|&c| &r[c]).collect();
                if seg.holds_key(off, key_columns, &key)? {
                    return Err(DbError::DuplicateKey(format!("{}", self.schema.key_of(r))));
                }
            }
        }
        let id = SegmentId(self.next_segment.fetch_add(1, Ordering::Relaxed));
        let seg = Segment::from_rows(id, Arc::clone(&self.schema), rows, 0, self.pager.as_ref())?;
        state.pk_locs.reserve(hashes.len());
        for (i, hash) in hashes.into_iter().enumerate() {
            state.pk_locs.add(hash, (id, i as u32));
        }
        state.publish(Arc::new(seg));
        Ok(())
    }

    /// Transactional insert. Checks primary-key uniqueness against both the
    /// main store (MVCC-aware) and the delta.
    pub fn insert(&self, txn: &Transaction, row: Row) -> Result<()> {
        self.schema.check_row(&row)?;
        let state = self.state.read();
        let key = state.delta.key_for_insert(&row);
        if self.schema.has_primary_key() {
            self.check_main_insertable(&state, &key, txn)?;
        }
        state.delta.insert_keyed(txn, key, row)
    }

    /// Can `key` be inserted given the main store's contents? A location
    /// whose stamp would refuse the insert has its key read first: only a
    /// location that holds `key` refuses it.
    fn check_main_insertable(
        &self,
        state: &TableState,
        key: &Row,
        txn: &Transaction,
    ) -> Result<()> {
        for &(sid, off) in state.pk_locs.get(self.key_hash(key.values())) {
            let seg = state.segment(sid).ok_or_else(|| missing_segment(sid))?;
            let refusal = match seg.delete_stamp(off) {
                None => DbError::DuplicateKey(format!("{key}")),
                // We deleted it in this transaction: insert may proceed.
                Some(Stamp::Pending(t)) if t == txn.id() => continue,
                Some(Stamp::Pending(_)) => {
                    DbError::WriteConflict("concurrent delete on key".into())
                }
                Some(Stamp::Committed(ts)) if ts > txn.begin_ts() => {
                    DbError::WriteConflict("key deleted after snapshot".into())
                }
                Some(Stamp::Committed(_)) | Some(Stamp::Infinity) => continue,
            };
            if seg.holds_key(off, self.schema.primary_key(), key.values())? {
                return Err(refusal);
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
        let key_columns = self.schema.primary_key();
        for &(sid, off) in state.pk_locs.get(self.key_hash(key.values())) {
            if let Some(seg) = state.segment(sid) {
                if seg.visible_to(read_ts) && !seg.is_deleted(off, read_ts, me) {
                    let row = seg.row_at(off)?;
                    if row_holds_key(&row, key_columns, key) {
                        return Ok(Some(row));
                    }
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
        if !row_holds_key(&row, self.schema.primary_key(), key) {
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
        state.delta.insert_keyed(txn, key.clone(), row)
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
        for &(sid, off) in state.pk_locs.get(self.key_hash(key.values())) {
            let seg = state.segment(sid).ok_or_else(|| missing_segment(sid))?;
            if !seg.visible_to(txn.begin_ts())
                || !seg.holds_key(off, self.schema.primary_key(), key.values())?
            {
                continue;
            }
            match seg.delete_row(off, txn.id(), txn.begin_ts()) {
                Ok(()) => {
                    txn.enlist(Arc::new(SegmentDeleteEntry {
                        segment: Arc::clone(seg),
                        offset: off,
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

    /// The raw inputs of a fused (operate-on-compressed) scan: the main
    /// segments visible at `read_ts` plus the delta store's batches. The
    /// fused aggregate path consumes segments without materializing them;
    /// the delta — row-format, a few thousand keys between two merges — is
    /// returned pre-scanned, in batches of at most `batch_size` rows.
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
        self.note_visits(&state.delta);
        Ok((segments, delta))
    }

    /// The trigger's merge: merges at `watermark` if a scan has found the
    /// delta worth it since the last merge (see the module docs); `None`
    /// when it was not due.
    pub fn merge_if_due(&self, watermark: Ts) -> Result<Option<MergeStats>> {
        if !self.due.load(Ordering::Relaxed) {
            return Ok(None);
        }
        let stats = self.merge(watermark)?;
        self.triggered.fetch_add(1, Ordering::Relaxed);
        Ok(Some(stats))
    }

    /// After a scan has walked the delta: once the walks have paid for a
    /// merge, flag the table and ring the bell — once until the merge.
    fn note_visits(&self, delta: &RowStore) {
        if !self.due.load(Ordering::Relaxed)
            && merge_pays(delta)
            && !self.due.swap(true, Ordering::Relaxed)
        {
            if let Some(bell) = &self.bell {
                bell.ring();
            }
        }
    }

    /// Merges committed delta rows (at or below `watermark`) into a new
    /// main segment. See the module docs for why this is MVCC-safe.
    pub fn merge(&self, watermark: Ts) -> Result<MergeStats> {
        let _maintenance = self.maintenance.lock();
        let mut state = self.write_state();
        // Whatever it moves, a merge settles the visits paid so far: the
        // keys it leaves behind (pending, or above the watermark) must earn
        // the next one afresh.
        self.due.store(false, Ordering::Relaxed);
        state.delta.reset_visits();
        let (drained, delta) = state.delta.drain_committed(watermark);
        if drained.is_empty() {
            return Ok(MergeStats::default());
        }
        let id = SegmentId(self.next_segment.fetch_add(1, Ordering::Relaxed));
        let rows_merged = drained.len();
        if self.schema.has_primary_key() {
            state.pk_locs.reserve(drained.len());
            for (i, r) in drained.iter().enumerate() {
                let hash = self.row_key_hash(r);
                state.pk_locs.add(hash, (id, i as u32));
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
        // The delta without the chains now dead to every snapshot (their
        // rows live in the new segment); the old index is freed after the
        // lock is released.
        let old = std::mem::replace(&mut state.delta, delta);
        drop(state);
        drop(old);
        Ok(MergeStats {
            rows_merged,
            new_segment: Some(id.raw()),
        })
    }

    /// The full maintenance pass over this table at `watermark`: merge →
    /// coalesce → freeze (cold segments only) → gc. Returns the pass's note:
    /// what each step did, the merges the trigger ran since the last pass,
    /// the longest hold of the state write lock since then, and what the
    /// pass left.
    pub fn maintain(&self, watermark: Ts, faults: &FaultInjector) -> Result<String> {
        let merged = self.merge(watermark)?;
        let coalesced = self.coalesce(watermark, faults)?;
        let frozen = self.freeze(watermark, faults, false)?;
        let pruned = self.gc(watermark);
        let triggered = self.triggered.swap(0, Ordering::Relaxed);
        let longest_hold_us = self.longest_hold_ns.swap(0, Ordering::Relaxed) / 1_000;
        // What the pass left behind: every scan pays per segment and per
        // stored row, dead or not.
        let after = self.sizes();
        Ok(format!(
            "merged {} rows ({triggered} triggered merges since the last pass), \
             coalesced {} runs ({} -> {} segments, {} rows dropped), \
             froze {} segments ({} -> {} bytes), gc pruned {pruned} versions, \
             longest write hold {longest_hold_us} us; \
             now {} segments, {} main rows ({} dead), {} delta keys",
            merged.rows_merged,
            coalesced.runs,
            coalesced.segments_in,
            coalesced.segments_out,
            coalesced.rows_dropped,
            frozen.segments_frozen,
            frozen.bytes_before,
            frozen.bytes_after,
            after.segments,
            after.main_rows,
            after.main_dead_rows,
            after.delta_rows
        ))
    }

    /// Rewrites the runs [`coalesce_runs`] picks, each as one segment built
    /// beside the table and published in one swap (see the module docs).
    ///
    /// Crash hygiene as for the freeze: the [`points::STORAGE_COALESCE_CRASH`]
    /// fault aborts between build and swap — the old run keeps serving, and
    /// the unpublished rewrite is dropped with its page file.
    fn coalesce(&self, watermark: Ts, faults: &FaultInjector) -> Result<Coalesced> {
        let _maintenance = self.maintenance.lock();
        let segments = self.state.read().segments.clone();
        let mut done = Coalesced::default();
        for run in coalesce_runs(&segments, watermark) {
            let inputs = &segments[run];
            let rebuilt = self.rebuild(inputs, watermark, inputs[0].is_frozen())?;
            if faults.should_fire(points::STORAGE_COALESCE_CRASH) {
                return Err(DbError::FaultInjected(
                    "crash between coalesce build and swap".into(),
                ));
            }
            done.runs += 1;
            done.segments_in += inputs.len();
            done.segments_out += usize::from(rebuilt.output.is_some());
            done.rows_dropped += rebuilt.rows_dropped;
            self.publish(rebuilt)?;
        }
        Ok(done)
    }

    /// Decays every segment's heat counters and rewrites the *cold* ones
    /// into their frozen representation: the coalesce's rebuild of a run of
    /// one — rows whose deletion committed at or before `watermark` are
    /// dropped (L-Store style), the rest gathered column-wise into a
    /// segment built with the frozen encodings (exact-cost selection,
    /// sorted-run delta, full-cardinality ordered dictionaries) beside the
    /// table, then swapped in under the state write lock.
    ///
    /// OLTP transparency: updates and deletes of frozen rows go through
    /// the delta / delete-stamp paths exactly as for hot segments, so no
    /// writer ever blocks on (or errors because of) a freeze. Segments
    /// with in-flight (pending) deletes are skipped **this pass** and
    /// re-evaluated on every subsequent pass — once the deleting
    /// transaction resolves and the watermark passes it, the segment
    /// freezes.
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
        let _maintenance = self.maintenance.lock();
        let segments = self.state.read().segments.clone();
        let mut stats = FreezeStats::default();
        for seg in &segments {
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
            let rebuilt = self.rebuild(std::slice::from_ref(seg), watermark, true)?;
            // The replacement is fully built (page file published via
            // tmp+rename) but not yet visible. A crash here must leave the
            // old representation serving and the new one reclaimable.
            if faults.should_fire(points::STORAGE_FREEZE_CRASH) {
                return Err(DbError::FaultInjected(
                    "crash between freeze publish and swap".into(),
                ));
            }
            let (groups, bytes_after) = (rebuilt.output.as_ref())
                .map_or((0, 0), |frozen| (frozen.group_count(), frozen.size_bytes()));
            stats.rows_dropped += rebuilt.rows_dropped;
            self.publish(rebuilt)?;
            stats.segments_frozen += 1;
            stats.groups_frozen += groups;
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

    /// Rebuilds `inputs`, adjacent segments in scan order, as one segment
    /// beside the table — no table lock held, reading the inputs through
    /// their `Arc`s and a rewrite pass (no heat): rows dead at `watermark`
    /// are left out, and the survivors of each input row group, in order,
    /// are gathered out of its chunks column by column and pushed as one
    /// column batch. The output is visible from the latest `visible_from`
    /// of its inputs and inherits their summed heat and least coldness;
    /// `frozen` picks the frozen encodings. Every input row's key is read
    /// and hashed too, for the swap's `pk_locs` remap.
    fn rebuild(&self, inputs: &[Arc<Segment>], watermark: Ts, frozen: bool) -> Result<Rebuilt> {
        let visible_from = inputs.iter().map(|seg| seg.visible_from()).max().unwrap_or(0);
        let id = SegmentId(self.next_segment.fetch_add(1, Ordering::Relaxed));
        let mut builder = self.segment_builder(id, visible_from)?;
        if frozen {
            builder = builder.frozen();
        }
        let key_columns = self.schema.primary_key();
        let (mut moved, mut hashes, mut rows_dropped) = (Vec::new(), Vec::new(), 0);
        for seg in inputs {
            let dead = seg.dead_at(watermark);
            rows_dropped += dead.count_ones();
            let mut seg_moved = vec![DROPPED; seg.row_count()];
            let mut seg_hashes = Vec::new();
            if !key_columns.is_empty() {
                seg_hashes.reserve_exact(seg.row_count());
            }
            let chunks = seg.rewrite_pass();
            for g in 0..seg.group_count() {
                let (start, rows) = seg.group_bounds(g);
                let keep: Vec<u32> =
                    (0..rows as u32).filter(|&i| !dead.get(start + i as usize)).collect();
                let base = builder.rows_pushed();
                for (k, &i) in keep.iter().enumerate() {
                    seg_moved[start + i as usize] = (base + k) as u32;
                }
                if !key_columns.is_empty() {
                    let all: Vec<u32> = (0..rows as u32).collect();
                    let key_cols = (key_columns.iter())
                        .map(|&c| Ok(chunks.column_chunk(g, c)?.gather(&all)))
                        .collect::<Result<Vec<_>>>()?;
                    let hash_at = |i| self.key_hash(key_cols.iter().map(|col| col.value_at(i)));
                    seg_hashes.extend((0..rows).map(hash_at));
                }
                let columns = (0..self.schema.len())
                    .map(|c| Ok(chunks.column_chunk(g, c)?.gather(&keep)))
                    .collect::<Result<Vec<_>>>()?;
                builder.push_columns(columns)?;
            }
            moved.push(seg_moved);
            hashes.push(seg_hashes);
        }
        let built = builder.finish()?;
        // An all-dead run leaves nothing to publish; dropping the empty
        // rewrite here deletes its page file.
        let output = (built.row_count() > 0).then(|| {
            let heat = inputs.iter().map(|seg| seg.heat()).sum();
            let cold_ticks = inputs.iter().map(|seg| seg.cold_ticks()).min().unwrap_or(0);
            built.inherit(heat, cold_ticks);
            Arc::new(built)
        });
        Ok(Rebuilt {
            inputs: inputs.to_vec(),
            moved,
            hashes,
            output,
            rows_dropped,
        })
    }

    /// Publishes a rebuild in one swap under the state write lock: each
    /// input's stamps move to the output and later commits and aborts are
    /// forwarded there (`Segment::retire_into`); `pk_locs` follows every
    /// input row to its new location, or drops it, found by the row's key
    /// hash and its exact old location — the table's other keys are not
    /// walked, and no key is compared; and the run's slots become the
    /// output's ([`TableState::retire`]).
    fn publish(&self, rebuilt: Rebuilt) -> Result<()> {
        let Rebuilt {
            inputs,
            moved,
            hashes,
            output,
            ..
        } = rebuilt;
        let mut state = self.write_state();
        let first = state.slot_of.get(&inputs[0].id()).copied();
        let in_place = |first: &usize| {
            (inputs.iter().enumerate())
                .all(|(k, seg)| state.segments.get(first + k).is_some_and(|s| Arc::ptr_eq(s, seg)))
        };
        let Some(first) = first.filter(in_place) else {
            return Err(DbError::Corruption("a rewritten run is no longer in place".into()));
        };
        for (seg, moved) in inputs.iter().zip(&moved) {
            seg.retire_into(output.as_ref(), moved);
        }
        let new_id = output.as_ref().map(|seg| seg.id());
        for ((seg, moved), hashes) in inputs.iter().zip(&moved).zip(&hashes) {
            for (offset, &hash) in hashes.iter().enumerate() {
                let new = new_id
                    .filter(|_| moved[offset] != DROPPED)
                    .map(|id| (id, moved[offset]));
                state.pk_locs.relocate(hash, (seg.id(), offset as u32), new);
            }
        }
        state.retire(first..first + inputs.len(), output);
        Ok(())
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
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeMap;

    const NOBODY: TxnId = TxnId(u64::MAX - 1);

    /// A snapshot scan drained: [`DeltaMainTable::fused_scan_parts`]'s
    /// segments, then the delta's batches.
    trait Scan {
        fn scan(
            &self,
            projection: &[usize],
            pred: &ScanPredicate,
            read_ts: Ts,
            me: TxnId,
            batch_size: usize,
        ) -> Result<Vec<Batch>>;
    }

    impl Scan for DeltaMainTable {
        fn scan(
            &self,
            projection: &[usize],
            pred: &ScanPredicate,
            read_ts: Ts,
            me: TxnId,
            batch_size: usize,
        ) -> Result<Vec<Batch>> {
            let (segments, delta) = self.fused_scan_parts(projection, pred, read_ts, me, batch_size)?;
            let mut out = Vec::new();
            for seg in &segments {
                out.extend(seg.scan(projection, pred, read_ts, me, batch_size)?);
            }
            out.extend(delta);
            Ok(out)
        }
    }

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
        // A forced freeze rewrites each on its own and drops the dead rows:
        // the five segments left with no row are retired with nothing in
        // their place, and the key points at its one live version.
        let stats = t.freeze(mgr.gc_watermark(), &FaultInjector::disabled(), true).unwrap();
        assert_eq!(stats.segments_frozen, 6);
        assert_eq!(stats.rows_dropped, 5);
        assert_eq!(t.sizes().segments, 1);
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

    /// A pager of `rows_per_group`-row groups over an unbounded pool, in a
    /// directory of its own (returned, to be counted and removed).
    fn own_pager(rows_per_group: usize) -> (Arc<SegmentPager>, std::path::PathBuf) {
        use crate::buffer::BufferManager;
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let root = std::env::temp_dir().join(format!(
            "oltap-coalesce-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let faults = FaultInjector::disabled();
        let buffer = BufferManager::new(u64::MAX, None, Arc::clone(&faults));
        (SegmentPager::new(root.clone(), buffer, rows_per_group, faults), root)
    }

    fn page_files(root: &std::path::Path) -> usize {
        std::fs::read_dir(root).map_or(0, |dir| dir.count())
    }

    /// Every row a snapshot sees, by id.
    fn rows_at(t: &DeltaMainTable, read_ts: Ts, me: TxnId) -> Vec<Row> {
        let batches = t.scan(&[0, 1, 2], &ScanPredicate::all(), read_ts, me, 4096).unwrap();
        let mut rows: Vec<Row> = batches.iter().flat_map(|b| b.to_rows()).collect();
        rows.sort_by(|a, b| a[0].cmp(&b[0]));
        rows
    }

    fn insert_committed(
        mgr: &Arc<TransactionManager>,
        t: &DeltaMainTable,
        ids: std::ops::Range<i64>,
    ) {
        let tx = mgr.begin();
        for id in ids {
            t.insert(&tx, row![id, "a", id]).unwrap();
        }
        tx.commit().unwrap();
    }

    /// The live rows of each segment, in scan order.
    fn segment_rows(t: &DeltaMainTable) -> Vec<usize> {
        (t.state.read().segments.iter())
            .map(|seg| seg.row_count() - seg.committed_delete_count())
            .collect()
    }

    /// Equal merges fold like a binary counter: after every pass the live
    /// rows more than double from each segment to the one before it, so 64
    /// merges leave at most seven segments, and the note says what folded.
    /// (A scan a tick keeps the segments hot: a cold one would freeze, and
    /// frozen and unfrozen segments do not share a run.)
    #[test]
    fn coalescing_folds_equal_merges_like_a_binary_counter() {
        let (mgr, t) = table();
        let faults = FaultInjector::disabled();
        for tick in 0..64i64 {
            insert_committed(&mgr, &t, tick * 10..tick * 10 + 10);
            count(&t, mgr.now());
            let note = t.maintain(mgr.gc_watermark(), &faults).unwrap();
            let sizes = segment_rows(&t);
            assert!(sizes.windows(2).all(|w| w[0] > 2 * w[1]), "tick {tick}: {sizes:?}");
            assert!(sizes.len() <= 7, "tick {tick}: {sizes:?}");
            if tick == 1 {
                let folded = "coalesced 1 runs (2 -> 1 segments, 0 rows dropped)";
                assert!(note.contains(folded), "{note}");
            }
        }
        assert_eq!(count(&t, mgr.now()), 640);
        for id in [0, 319, 639] {
            assert_eq!(t.get(&row![id], mgr.now(), NOBODY).unwrap(), Some(row![id, "a", id]));
        }
    }

    /// Two hundred and forty dirty ticks of random inserts, updates and
    /// deletes, each ending in the full pass, on held segments, on paged
    /// ones of 64-row groups, and on frozen ones (every sixteenth tick
    /// freezes all): the table keeps O(log rows) segments, stores at most
    /// twice its live rows, holds one key location a stored row — no more
    /// than live keys plus carried stamps — and answers as the model; a
    /// point read and a scan's cost a row are as cheap in the last tenth
    /// of the run as in the first.
    #[test]
    fn a_long_run_keeps_segments_few_stored_rows_bounded_and_costs_flat() {
        const TICKS: usize = 240;
        for storage in ["held", "paged", "frozen"] {
            let (mgr, plain) = table();
            let (t, root) = match storage {
                "paged" => {
                    let (pager, root) = own_pager(64);
                    let t = DeltaMainTable::with_pager(Arc::clone(plain.schema()), Some(pager));
                    (t, Some(root))
                }
                _ => (plain, None),
            };
            let faults = FaultInjector::disabled();
            let mut rng = StdRng::seed_from_u64(0x31);
            let mut model: BTreeMap<i64, Row> = BTreeMap::new();
            let mut keys: Vec<i64> = Vec::new();
            let (mut get_ns, mut scan_ns) = (Vec::new(), Vec::new());
            for tick in 0..TICKS {
                let tx = mgr.begin();
                let mut touched = std::collections::HashSet::new();
                for _ in 0..24 {
                    let op = rng.gen_range(0..10u32);
                    if op < 4 || keys.is_empty() {
                        let id = 100_000 + tick as i64 * 100 + touched.len() as i64;
                        let r = row![id, "n", rng.gen_range(0..1000i64)];
                        t.insert(&tx, r.clone()).unwrap();
                        model.insert(id, r);
                        keys.push(id);
                        touched.insert(id);
                        continue;
                    }
                    let at = rng.gen_range(0..keys.len());
                    let id = keys[at];
                    if !touched.insert(id) {
                        continue;
                    }
                    if op < 8 {
                        let r = row![id, "u", rng.gen_range(0..1000i64)];
                        t.update(&tx, &row![id], r.clone()).unwrap();
                        model.insert(id, r);
                    } else {
                        t.delete(&tx, &row![id]).unwrap();
                        model.remove(&id);
                        keys.swap_remove(at);
                    }
                }
                tx.commit().unwrap();
                if storage == "frozen" && tick % 16 == 15 {
                    t.freeze(mgr.gc_watermark(), &faults, true).unwrap();
                }
                t.maintain(mgr.gc_watermark(), &faults).unwrap();

                let tag = format!("{storage} tick {tick}");
                let sizes = t.sizes();
                let live = sizes.main_rows - sizes.main_dead_rows;
                assert_eq!(live, model.len(), "{tag}: {sizes:?}");
                assert!(sizes.main_rows <= 2 * live, "{tag}: {sizes:?}");
                // Two classes (frozen, hot), each at most log2(live) + 1.
                let log2 = (usize::BITS - live.leading_zeros()) as usize;
                assert!(sizes.segments <= 2 * log2 + 1, "{tag}: {:?}", segment_rows(&t));
                let (locations, stamps) = {
                    let state = t.state.read();
                    let locations: usize = state.pk_locs.location_count();
                    (locations, state.segments.iter().map(|s| s.delete_count()).sum::<usize>())
                };
                assert_eq!(locations, sizes.main_rows, "{tag}");
                assert!(locations <= model.len() + stamps, "{tag}");
                if tick % 40 == 39 {
                    let want: Vec<Row> = model.values().cloned().collect();
                    assert_eq!(rows_at(&t, mgr.now(), NOBODY), want, "{tag}");
                }

                // Costs: the best of three rounds of 64 point reads of live
                // keys, and of three whole scans, per row.
                let now = mgr.now();
                let probes: Vec<i64> =
                    (0..64).map(|_| keys[rng.gen_range(0..keys.len())]).collect();
                let best = |f: &mut dyn FnMut()| {
                    (0..3)
                        .map(|_| {
                            let started = Instant::now();
                            f();
                            started.elapsed().as_nanos() as f64
                        })
                        .fold(f64::INFINITY, f64::min)
                };
                get_ns.push(best(&mut || {
                    for &id in &probes {
                        assert!(t.get(&row![id], now, NOBODY).unwrap().is_some());
                    }
                }) / probes.len() as f64);
                let scan = best(&mut || assert_eq!(count(&t, now), model.len()));
                scan_ns.push(scan / model.len() as f64);
            }
            let median = |xs: &[f64]| {
                let mut xs = xs.to_vec();
                xs.sort_by(f64::total_cmp);
                xs[xs.len() / 2]
            };
            let decile = TICKS / 10;
            for (what, costs) in [("get", &get_ns), ("scan a row", &scan_ns)] {
                let (first, last) = (median(&costs[..decile]), median(&costs[TICKS - decile..]));
                assert!(
                    last <= 3.0 * first,
                    "{storage}: {what} {first:.0} ns in the first tenth, {last:.0} ns in the last"
                );
            }
            drop(t);
            if let Some(root) = root {
                assert_eq!(page_files(&root), 0, "page files outlived their segments");
                let _ = std::fs::remove_dir_all(root);
            }
        }
    }

    /// Every key of the table sent to one hash, so the main store's key index
    /// nominates every stored row for every lookup and only the key checks
    /// tell them apart: bulk loads, inserts, duplicate inserts, gets,
    /// updates and deletes, with merges, coalesces and forced freezes
    /// between them, on held and on paged segments, answer as a `BTreeMap`
    /// does — and the index holds one location a stored row throughout.
    #[test]
    fn one_hash_for_every_key_answers_as_the_model() {
        const KEYS: i64 = 48;
        for storage in ["held", "paged"] {
            let (mgr, plain) = table();
            let (t, root) = match storage {
                "paged" => {
                    let (pager, root) = own_pager(16);
                    (
                        DeltaMainTable::with_pager(Arc::clone(plain.schema()), Some(pager)),
                        Some(root),
                    )
                }
                _ => (plain, None),
            };
            let t = t.with_one_key_hash();
            let faults = FaultInjector::disabled();
            let mut rng = StdRng::seed_from_u64(0x1_4A54);
            let mut model: BTreeMap<i64, Row> = BTreeMap::new();
            let seed: Vec<Row> = (0..KEYS).step_by(3).map(|id| row![id, "b", id]).collect();
            t.bulk_load(&seed).unwrap();
            model.extend(seed.iter().map(|r| (r[0].as_int().unwrap(), r.clone())));
            // A stored key refuses a load; keys it does not hold load.
            let clash = t.bulk_load(&[row![KEYS, "b", 0i64], row![3i64, "b", 0i64]]);
            assert!(
                matches!(clash, Err(DbError::DuplicateKey(_))),
                "{storage}: {clash:?}"
            );
            t.bulk_load(&[row![KEYS + 1, "b", 1i64]]).unwrap();
            model.insert(KEYS + 1, row![KEYS + 1, "b", 1i64]);
            for tick in 0..40 {
                let tag = format!("{storage} tick {tick}");
                let tx = mgr.begin();
                let mut touched = std::collections::HashSet::new();
                for _ in 0..12 {
                    let id = rng.gen_range(0..KEYS);
                    if !touched.insert(id) {
                        continue;
                    }
                    let live = model.contains_key(&id);
                    let r = row![id, ["i", "u"][usize::from(live)], rng.gen_range(0..1000i64)];
                    match rng.gen_range(0..3u32) {
                        0 => match t.insert(&tx, r.clone()) {
                            Ok(()) => assert!(model.insert(id, r).is_none(), "{tag}: {id} twice"),
                            Err(DbError::DuplicateKey(_)) => assert!(live, "{tag}: {id} refused"),
                            Err(e) => panic!("{tag}: insert {id}: {e}"),
                        },
                        1 => match t.update(&tx, &row![id], r.clone()) {
                            Ok(()) => assert!(model.insert(id, r).is_some(), "{tag}: {id} updated"),
                            Err(DbError::KeyNotFound(_)) => assert!(!live, "{tag}: {id} lost"),
                            Err(e) => panic!("{tag}: update {id}: {e}"),
                        },
                        _ => match t.delete(&tx, &row![id]) {
                            Ok(()) => assert!(model.remove(&id).is_some(), "{tag}: {id} deleted"),
                            Err(DbError::KeyNotFound(_)) => assert!(!live, "{tag}: {id} lost"),
                            Err(e) => panic!("{tag}: delete {id}: {e}"),
                        },
                    }
                }
                tx.commit().unwrap();
                match tick % 4 {
                    0 => drop(t.merge(mgr.gc_watermark()).unwrap()),
                    1 => drop(t.maintain(mgr.gc_watermark(), &faults).unwrap()),
                    2 if tick % 8 == 2 => {
                        t.merge(mgr.gc_watermark()).unwrap();
                        t.freeze(mgr.gc_watermark(), &faults, true).unwrap();
                    }
                    _ => {}
                }
                let now = mgr.now();
                for id in 0..KEYS + 2 {
                    let got = t.get(&row![id], now, NOBODY).unwrap();
                    assert_eq!(got.as_ref(), model.get(&id), "{tag}: get {id}");
                }
                let want: Vec<Row> = model.values().cloned().collect();
                assert_eq!(rows_at(&t, now, NOBODY), want, "{tag}");
                let locations = t.state.read().pk_locs.location_count();
                assert_eq!(locations, t.sizes().main_rows, "{tag}");
            }
            assert!(
                t.sizes().segments > 0 && t.sizes().main_rows > model.len() / 2,
                "{storage}"
            );
            drop(t);
            if let Some(root) = root {
                let _ = std::fs::remove_dir_all(root);
            }
        }
    }

    /// A delete still pending when its segment is coalesced lives on in the
    /// rewrite: a rival's delete of the row conflicts with it there, and
    /// once it resolves — through the retired segment's forward — a commit
    /// hides the row and an abort leaves it visible.
    #[test]
    fn a_delete_pending_across_a_coalesce_resolves_in_the_rewrite() {
        let faults = FaultInjector::disabled();
        for commit in [true, false] {
            let (mgr, t) = table();
            for batch in 0..2 {
                insert_committed(&mgr, &t, batch * 10..batch * 10 + 10);
                t.merge(mgr.gc_watermark()).unwrap();
            }
            let deleter = mgr.begin();
            t.delete(&deleter, &row![3i64]).unwrap();
            let note = t.maintain(mgr.gc_watermark(), &faults).unwrap();
            assert!(note.contains("coalesced 1 runs (2 -> 1 segments, 0 rows dropped)"), "{note}");
            let rival = mgr.begin();
            assert!(matches!(t.delete(&rival, &row![3i64]), Err(DbError::WriteConflict(_))));
            rival.abort().unwrap();
            if commit {
                deleter.commit().unwrap();
            } else {
                deleter.abort().unwrap();
            }
            let now = mgr.now();
            assert_eq!(t.get(&row![3i64], now, NOBODY).unwrap().is_some(), !commit);
            assert_eq!(count(&t, now), if commit { 19 } else { 20 });
            // The resolved row is an ordinary one: deletable after an abort,
            // dropped by the next pass after a commit.
            let tx = mgr.begin();
            assert_eq!(t.delete(&tx, &row![3i64]).is_ok(), !commit);
            tx.commit().unwrap();
            let note = t.maintain(mgr.gc_watermark(), &faults).unwrap();
            assert!(note.ends_with("now 1 segments, 20 main rows (1 dead), 0 delta keys")
                || note.contains("1 rows dropped"), "{note}");
            assert_eq!(count(&t, mgr.now()), 19);
        }
    }

    /// A delete that resolves between a coalesce's build and its swap lands
    /// before the copy: the stamp moves over as it was left, committed or
    /// gone.
    #[test]
    fn a_delete_resolved_between_build_and_swap_moves_with_the_copy() {
        for commit in [true, false] {
            let (mgr, t) = table();
            for batch in 0..2 {
                insert_committed(&mgr, &t, batch * 10..batch * 10 + 10);
                t.merge(mgr.gc_watermark()).unwrap();
            }
            let deleter = mgr.begin();
            t.delete(&deleter, &row![13i64]).unwrap();
            let before = mgr.begin();
            let segments = t.state.read().segments.clone();
            let rebuilt = t.rebuild(&segments, mgr.gc_watermark(), false).unwrap();
            if commit {
                deleter.commit().unwrap();
            } else {
                deleter.abort().unwrap();
            }
            t.publish(rebuilt).unwrap();
            assert_eq!(t.sizes().segments, 1);
            assert_eq!(t.get(&row![13i64], mgr.now(), NOBODY).unwrap().is_some(), !commit);
            assert_eq!(count(&t, mgr.now()), if commit { 19 } else { 20 });
            assert_eq!(count(&t, before.begin_ts()), 20, "an older snapshot still sees the row");
            before.commit().unwrap();
        }
    }

    /// A snapshot at the watermark a coalesce runs at reads what it read
    /// before: rows deleted at or before it are dropped, later deletes and
    /// the later versions of updated rows keep their stamps and their place
    /// in the delta.
    #[test]
    fn a_snapshot_at_the_watermark_reads_the_same_across_a_coalesce() {
        let (mgr, t) = table();
        let faults = FaultInjector::disabled();
        for batch in 0..3 {
            insert_committed(&mgr, &t, batch * 40..batch * 40 + 40);
            t.merge(mgr.gc_watermark()).unwrap();
        }
        let tx = mgr.begin();
        for id in (0..120).step_by(3) {
            t.delete(&tx, &row![id]).unwrap();
        }
        tx.commit().unwrap();
        let reader = mgr.begin();
        let at = reader.begin_ts();
        let recorded = rows_at(&t, at, NOBODY);
        assert_eq!(recorded.len(), 80);
        let tx = mgr.begin();
        for id in (1..120).step_by(3) {
            t.update(&tx, &row![id], row![id, "late", -id]).unwrap();
        }
        for id in (2..120).step_by(6) {
            t.delete(&tx, &row![id]).unwrap();
        }
        tx.commit().unwrap();
        assert_eq!(mgr.gc_watermark(), at, "the reader pins the watermark");
        let note = t.maintain(at, &faults).unwrap();
        assert!(note.contains("coalesced 1 runs (3 -> 1 segments, 40 rows dropped)"), "{note}");
        assert_eq!(rows_at(&t, at, NOBODY), recorded);
        assert_eq!(rows_at(&t, at, reader.id()), recorded);
        let now = rows_at(&t, mgr.now(), NOBODY);
        assert_eq!(now.len(), 60);
        let mut updated = now.iter().filter(|r| r[0].as_int().unwrap() % 3 == 1);
        assert!(updated.all(|r| r[1] == Value::Str("late".into())));
        reader.commit().unwrap();
    }

    /// `storage.coalesce_crash` between build and swap: the old run keeps
    /// serving the same rows, the unpublished rewrite's page file goes with
    /// it, a clean retry coalesces, and dropping the table leaves no page
    /// file behind.
    #[test]
    fn coalesce_crash_point_leaves_the_old_run_serving() {
        let (mgr, plain) = table();
        let (pager, root) = own_pager(64);
        let t = DeltaMainTable::with_pager(Arc::clone(plain.schema()), Some(pager));
        for batch in 0..2 {
            insert_committed(&mgr, &t, batch * 100..batch * 100 + 100);
            t.merge(mgr.gc_watermark()).unwrap();
        }
        let before = rows_at(&t, mgr.now(), NOBODY);
        assert_eq!(page_files(&root), 2);
        let faults = FaultInjector::new(0x19c);
        faults.arm(points::STORAGE_COALESCE_CRASH, oltap_common::FaultPoint::times(1));
        let err = t.maintain(mgr.gc_watermark(), &faults).unwrap_err();
        assert!(matches!(err, DbError::FaultInjected(_)), "{err}");
        assert_eq!(t.sizes().segments, 2);
        assert_eq!(rows_at(&t, mgr.now(), NOBODY), before);
        assert_eq!(page_files(&root), 2, "the unpublished rewrite left its page file");
        let note = t.maintain(mgr.gc_watermark(), &faults).unwrap();
        assert!(note.contains("coalesced 1 runs (2 -> 1 segments"), "{note}");
        assert_eq!(rows_at(&t, mgr.now(), NOBODY), before);
        assert_eq!(page_files(&root), 1);
        drop(t);
        assert_eq!(page_files(&root), 0);
        let _ = std::fs::remove_dir_all(root);
    }

    /// The trigger: writes alone never make a delta due; scans pay for its
    /// keys until the walks match the price of a merge, and the scan that
    /// crosses it rings the bell — once, however many scans follow — and
    /// `merge_if_due` merges it.
    #[test]
    fn scans_pay_for_a_merge_and_ring_the_bell_once() {
        let bell = Arc::new(MergeBell::default());
        let (mgr, plain) = table();
        let t = plain.with_bell(Arc::clone(&bell));
        insert_committed(&mgr, &t, 0..100);
        let mut seen = 0;
        assert!(t.merge_if_due(mgr.gc_watermark()).unwrap().is_none());
        let price = 100 * MERGE_ROW_NS + MERGE_FIXED_NS;
        let scans = price.div_ceil(100 * VISIT_NS);
        for _ in 1..scans {
            count(&t, mgr.now());
        }
        assert!(!bell.wait(&mut seen, Instant::now()), "rang before the walks paid");
        count(&t, mgr.now());
        assert!(bell.wait(&mut seen, Instant::now()), "the paying scan did not ring");
        count(&t, mgr.now());
        assert!(!bell.wait(&mut seen, Instant::now()), "rang twice for one merge");
        let merged = t.merge_if_due(mgr.gc_watermark()).unwrap().expect("due");
        assert_eq!(merged.rows_merged, 100);
        assert!(t.merge_if_due(mgr.gc_watermark()).unwrap().is_none());
        assert_eq!(count(&t, mgr.now()), 100);
    }
}
