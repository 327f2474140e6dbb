//! The buffer manager: a governed, scan-resistant pool of column pages.
//!
//! Paged segments keep only zone maps, schemas, delete stamps, and page
//! directories resident; the encoded column payloads live in page files
//! ([`crate::pagefile`]) and are faulted in through [`BufferManager::pin`].
//! A pinned page is wrapped in a [`PageGuard`] — a pin count keeps the
//! frame from being evicted while any scan dereferences it; dropping the
//! guard unpins.
//!
//! Sizing integrates with [`MemoryGovernor`]'s buffer carve-out: resident
//! page bytes are claimed via `try_claim_buffer`, so the buffer pool,
//! operator budgets, and OLTP working sets share one process hierarchy.
//! When a claim fails the pool *evicts* and retries; only when everything
//! is pinned does the pressure surface as a typed
//! [`DbError::ResourceExhausted`] — never an OOM.
//!
//! The victim is chosen in one place (`BufferManager::evict_one`). A pin
//! made for a [`ScanPass`] whose columns cannot all stay in the pool takes
//! a frame *that pass* loaded for a row group it has since left (it
//! remembers the last two of each column), the most recently loaded
//! first: the pass has read it and will not read it again, so a scan
//! larger than the pool churns a handful of frames and leaves the rest of
//! the pool to the statements that come after it (cold data is scanned,
//! not cached). Every other pin — a point read, a pass that fits, a large
//! pass with no unpinned frame of its own — takes the clock's
//! second-chance victim.
//!
//! The [`points::BUFFER_EVICT_RACE`] fault makes the chosen victim, ring
//! or clock, look freshly pinned by a racing reader, exercising the
//! re-check-and-skip path deterministically.

use crate::pagefile::{PageFile, PageFileWriter};
use crate::segment::EncodedColumn;
use oltap_common::fault::{points, FaultInjector};
use oltap_common::hash::FxHashMap;
use oltap_common::mem::MemoryGovernor;
use oltap_common::{DbError, Result};
use parking_lot::Mutex;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Identity of one column page: the page file's process-unique id plus
/// the page index inside it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PageKey {
    /// The owning page file's id.
    pub file: u64,
    /// Page index within the file.
    pub page: u32,
}

/// Snapshot of buffer-pool counters, surfaced through the database stats
/// path so benches and tests assert on behavior instead of timing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BufferStats {
    /// Pin requests served from a resident frame, whoever loaded it.
    pub hits: u64,
    /// Pin requests that faulted the page in from disk (a load that then
    /// failed, or was refused room, still counts).
    pub misses: u64,
    /// Frames evicted to make room, a large pass's own and the clock's
    /// alike; frames dropped with their page file are not evictions.
    pub evictions: u64,
    /// Bytes of currently pinned frames.
    pub pinned_bytes: u64,
    /// Bytes of all resident frames (pinned + evictable).
    pub resident_bytes: u64,
    /// Configured pool capacity in bytes.
    pub capacity_bytes: u64,
}

struct Frame {
    key: PageKey,
    data: Arc<EncodedColumn>,
    bytes: u64,
    pins: u32,
    referenced: bool,
}

struct Pool {
    map: FxHashMap<PageKey, usize>,
    frames: Vec<Option<Frame>>,
    free: Vec<usize>,
    hand: usize,
    resident_bytes: u64,
    pinned_bytes: u64,
    /// In-flight page loads: a fault registers its latch here (under the
    /// pool lock), drops the lock, and reads the page. Same-key pins wait
    /// on the latch instead of double-loading; different keys fault in
    /// parallel.
    loading: FxHashMap<PageKey, Arc<LoadLatch>>,
}

/// A one-shot latch a faulting pin parks on while another thread loads
/// the same page. `release` is called exactly once, after the loader has
/// published (or abandoned) the frame; waiters then retry the pin from
/// the top — a successful load becomes their hit, a failed load makes
/// the first retrier the next loader.
#[derive(Debug, Default)]
struct LoadLatch {
    done: std::sync::Mutex<bool>,
    cv: std::sync::Condvar,
}

impl LoadLatch {
    fn wait(&self) {
        let mut done = self.done.lock().expect("latch poisoned");
        while !*done {
            done = self.cv.wait(done).expect("latch poisoned");
        }
    }

    fn release(&self) {
        *self.done.lock().expect("latch poisoned") = true;
        self.cv.notify_all();
    }
}

/// One scan's pass over one paged segment, as the pool sees it: the bytes
/// the pass will pin before it ends and the last few frames it loaded.
///
/// The segment announces each pin ([`reading`](Self::reading)): the row
/// group, the column, and — the first time the pass reads that column —
/// the page directory's bytes for it over the row groups the pass may
/// visit. While the columns read so far fit what the pool can hold (its
/// capacity or the governor's carve-out, whichever binds)
/// the pass pins like any other reader and what it loads stays cached;
/// once they do not, a pin made for the pass takes its room from the
/// frames the pass loaded for *earlier* row groups before anyone else's.
#[derive(Debug, Default)]
pub struct ScanPass {
    state: Mutex<PassState>,
}

#[derive(Debug, Default)]
struct PassState {
    columns: Vec<usize>,
    footprint: u64,
    /// Row group and column of the pass's latest pin.
    at: (usize, usize),
    /// The frames this pass loaded and may give up, oldest first: the last
    /// two of each column, the page being read and the one before it. An
    /// older one stays in the pool as anyone's.
    ring: Vec<Loaded>,
}

#[derive(Debug)]
struct Loaded {
    slot: usize,
    key: PageKey,
    group: usize,
    column: usize,
}

impl ScanPass {
    /// The pass is about to pin `column`'s page of row group `group`;
    /// `column_bytes()` is asked the first time the column is read.
    pub fn reading(&self, group: usize, column: usize, column_bytes: impl FnOnce() -> u64) {
        let mut state = self.state.lock();
        state.at = (group, column);
        if !state.columns.contains(&column) {
            state.columns.push(column);
            state.footprint += column_bytes();
        }
    }
}

impl PassState {
    fn loaded(&mut self, slot: usize, key: PageKey) {
        let (group, column) = self.at;
        let mut same = (0..self.ring.len()).filter(|&i| self.ring[i].column == column);
        if let (Some(oldest), Some(_)) = (same.next(), same.next()) {
            self.ring.remove(oldest);
        }
        self.ring.push(Loaded {
            slot,
            key,
            group,
            column,
        });
    }
}

/// A scan-resistant pool of decoded column pages.
///
/// Page IO runs *outside* the pool lock behind per-frame load latches:
/// a fault publishes its in-flight latch, releases the pool, and reads
/// the page; concurrent faults on other pages overlap their IO, while
/// same-page pins wait on the latch rather than loading twice.
#[derive(Debug)]
pub struct BufferManager {
    pool: Mutex<Pool>,
    capacity: u64,
    governor: Option<Arc<MemoryGovernor>>,
    faults: Arc<FaultInjector>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool")
            .field("frames", &self.map.len())
            .field("resident_bytes", &self.resident_bytes)
            .field("pinned_bytes", &self.pinned_bytes)
            .finish()
    }
}

impl BufferManager {
    /// A pool capped at `capacity` bytes. When a `governor` is supplied,
    /// resident bytes are additionally claimed from its buffer carve-out
    /// (and thus the process total).
    pub fn new(
        capacity: u64,
        governor: Option<Arc<MemoryGovernor>>,
        faults: Arc<FaultInjector>,
    ) -> Arc<BufferManager> {
        Arc::new(BufferManager {
            pool: Mutex::new(Pool {
                map: FxHashMap::default(),
                frames: Vec::new(),
                free: Vec::new(),
                hand: 0,
                resident_bytes: 0,
                pinned_bytes: 0,
                loading: FxHashMap::default(),
            }),
            capacity,
            governor,
            faults,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        })
    }

    /// An effectively unbounded pool (tests, unlimited-pool baselines).
    pub fn unbounded() -> Arc<BufferManager> {
        Self::new(u64::MAX, None, FaultInjector::disabled())
    }

    /// Current counter snapshot.
    pub fn stats(&self) -> BufferStats {
        let pool = self.pool.lock();
        BufferStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            pinned_bytes: pool.pinned_bytes,
            resident_bytes: pool.resident_bytes,
            capacity_bytes: self.capacity,
        }
    }

    /// What the pool can hold at once: its capacity or the governor's
    /// buffer carve-out, whichever binds. A page larger than this is
    /// refused; a pass whose columns are larger recycles its own frames.
    fn keepable(&self) -> u64 {
        (self.governor.as_ref()).map_or(self.capacity, |gov| self.capacity.min(gov.buffer_limit()))
    }

    /// Pins the page under `key` — for `pass`, when a scan asks — loading
    /// it via `load` on a miss. The returned guard keeps the frame
    /// unevictable until dropped.
    ///
    /// The pool lock is **not** held across `load`: a miss publishes a
    /// per-frame load latch and reads the page unlocked, so faults on
    /// distinct pages overlap their IO. A concurrent pin of the same page
    /// waits on the latch and retries — it never double-loads, and if the
    /// load failed the retrier becomes the next loader.
    pub fn pin(
        self: &Arc<Self>,
        key: PageKey,
        pass: Option<&ScanPass>,
        load: impl FnOnce() -> Result<EncodedColumn>,
    ) -> Result<PageGuard> {
        let mut load = Some(load);
        loop {
            let mut pool = self.pool.lock();
            if let Some(&slot) = pool.map.get(&key) {
                let frame = pool.frames[slot]
                    .as_mut()
                    .expect("mapped frame must be occupied");
                frame.pins += 1;
                frame.referenced = true;
                let bytes = frame.bytes;
                let data = Arc::clone(&frame.data);
                if frame.pins == 1 {
                    pool.pinned_bytes += bytes;
                }
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Ok(PageGuard {
                    manager: Arc::clone(self),
                    key,
                    data,
                });
            }
            if let Some(latch) = pool.loading.get(&key) {
                let latch = Arc::clone(latch);
                drop(pool);
                latch.wait();
                continue;
            }
            // This thread is the loader: publish the latch, drop the pool
            // lock, and fault the page in with IO fully unlocked.
            let latch = Arc::new(LoadLatch::default());
            pool.loading.insert(key, Arc::clone(&latch));
            drop(pool);
            self.misses.fetch_add(1, Ordering::Relaxed);
            let result = (load.take().expect("loader runs once"))().map(Arc::new);
            let mut pool = self.pool.lock();
            pool.loading.remove(&key);
            // Publish the outcome before waking waiters so their retry
            // observes either the frame (success) or its absence (failure).
            let out = result.and_then(|data| {
                let bytes = data.size_bytes().max(1) as u64;
                let mut pass = pass.map(|p| p.state.lock());
                self.make_room(&mut pool, bytes, pass.as_deref_mut())?;
                pool.resident_bytes += bytes;
                pool.pinned_bytes += bytes;
                let frame = Frame {
                    key,
                    data: Arc::clone(&data),
                    bytes,
                    pins: 1,
                    referenced: true,
                };
                let slot = match pool.free.pop() {
                    Some(s) => {
                        pool.frames[s] = Some(frame);
                        s
                    }
                    None => {
                        pool.frames.push(Some(frame));
                        pool.frames.len() - 1
                    }
                };
                pool.map.insert(key, slot);
                if let Some(pass) = &mut pass {
                    pass.loaded(slot, key);
                }
                Ok(PageGuard {
                    manager: Arc::clone(self),
                    key,
                    data,
                })
            });
            drop(pool);
            latch.release();
            return out;
        }
    }

    /// Ensures capacity (local cap and governor carve-out) for `bytes`,
    /// evicting unpinned frames until the claim fits. A page the pool
    /// could not hold even when empty is refused before anything is
    /// evicted for it.
    fn make_room(&self, pool: &mut Pool, bytes: u64, pass: Option<&mut PassState>) -> Result<()> {
        let keepable = self.keepable();
        if bytes > keepable {
            return Err(self.exhausted(pool, bytes));
        }
        // Only a pass the pool cannot keep gives up its own frames.
        let mut pass = pass.filter(|pass| pass.footprint > keepable);
        loop {
            let over_local = pool.resident_bytes.saturating_add(bytes) > self.capacity;
            if !over_local {
                match &self.governor {
                    None => return Ok(()),
                    // On a failed claim, fall through to eviction.
                    Some(gov) => {
                        if gov.try_claim_buffer(bytes).is_ok() {
                            return Ok(());
                        }
                    }
                }
            }
            if !self.evict_one(pool, pass.as_deref_mut()) {
                return Err(self.exhausted(pool, bytes));
            }
        }
    }

    /// Evicts one unpinned frame; `false` when there is none to take. A
    /// (large) `pass` gives up one of its own; otherwise, and when it has
    /// none to give, the clock picks.
    fn evict_one(&self, pool: &mut Pool, pass: Option<&mut PassState>) -> bool {
        let victim = pass
            .and_then(|pass| self.ring_victim(pool, pass))
            .or_else(|| self.clock_victim(pool));
        let Some(slot) = victim else {
            return false;
        };
        self.remove(pool, slot);
        self.evictions.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// The frame `pass` loaded most recently for a row group it has left
    /// and no one has pinned. The group being read keeps its frames: it
    /// may pin a page again (a column filtered, then aggregated).
    fn ring_victim(&self, pool: &mut Pool, pass: &mut PassState) -> Option<usize> {
        for i in (0..pass.ring.len()).rev() {
            let Loaded {
                slot, key, group, ..
            } = pass.ring[i];
            match pool.frames[slot].as_mut() {
                Some(frame) if frame.key == key => {
                    if group != pass.at.0 && frame.pins == 0 && !self.lost_race(frame) {
                        pass.ring.remove(i);
                        return Some(slot);
                    }
                }
                // Another pin's clock took it since.
                _ => {
                    pass.ring.remove(i);
                }
            }
        }
        None
    }

    /// Clock second chance over all frames. Two full sweeps without a
    /// victim (everything pinned, or racing pins keep landing) are the
    /// refusal.
    fn clock_victim(&self, pool: &mut Pool) -> Option<usize> {
        let n = pool.frames.len();
        for _ in 0..2 * n {
            let slot = pool.hand;
            pool.hand = (pool.hand + 1) % n;
            let Some(frame) = pool.frames[slot].as_mut() else {
                continue;
            };
            if frame.pins > 0 {
                continue;
            }
            if frame.referenced {
                frame.referenced = false;
                continue;
            }
            if !self.lost_race(frame) {
                return Some(slot);
            }
        }
        None
    }

    /// The injected race: a reader pinned the chosen victim between the
    /// check and the eviction. Re-marking it referenced models the
    /// pin-and-release; the caller moves on to its next candidate.
    fn lost_race(&self, victim: &mut Frame) -> bool {
        let lost = self.faults.should_fire(points::BUFFER_EVICT_RACE);
        victim.referenced |= lost;
        lost
    }

    /// Drops the unpinned frame in `slot`, returning its bytes to the
    /// governor.
    fn remove(&self, pool: &mut Pool, slot: usize) {
        let frame = pool.frames[slot].take().expect("checked occupied");
        pool.map.remove(&frame.key);
        pool.free.push(slot);
        pool.resident_bytes -= frame.bytes;
        if let Some(gov) = &self.governor {
            gov.release_buffer(frame.bytes);
        }
    }

    /// Drops every unpinned frame of page file `file`: the file is gone
    /// (its segment was merged or frozen away), so nothing can pin them
    /// again, and under a policy that retains they would otherwise hold
    /// their bytes until the hand happened on them.
    pub fn forget_file(&self, file: u64) {
        let mut pool = self.pool.lock();
        for slot in 0..pool.frames.len() {
            let frame = pool.frames[slot].as_ref();
            if frame.is_some_and(|f| f.key.file == file && f.pins == 0) {
                self.remove(&mut pool, slot);
            }
        }
    }

    fn exhausted(&self, pool: &Pool, requested: u64) -> DbError {
        DbError::ResourceExhausted {
            class: "buffer".into(),
            requested,
            available: self.capacity.saturating_sub(pool.pinned_bytes),
        }
    }

    fn unpin(&self, key: PageKey) {
        let mut pool = self.pool.lock();
        if let Some(&slot) = pool.map.get(&key) {
            let frame = pool.frames[slot]
                .as_mut()
                .expect("mapped frame must be occupied");
            debug_assert!(frame.pins > 0, "unpin without pin");
            frame.pins -= 1;
            let bytes = frame.bytes;
            if frame.pins == 0 {
                pool.pinned_bytes -= bytes;
            }
        }
    }
}

impl Drop for BufferManager {
    fn drop(&mut self) {
        // Return all resident bytes to the governor's carve-out.
        if let Some(gov) = &self.governor {
            let pool = self.pool.get_mut();
            if pool.resident_bytes > 0 {
                gov.release_buffer(pool.resident_bytes);
            }
        }
    }
}

/// A pinned column page. Dereferences to the decoded [`EncodedColumn`];
/// dropping the guard unpins the frame.
#[derive(Debug)]
pub struct PageGuard {
    manager: Arc<BufferManager>,
    key: PageKey,
    data: Arc<EncodedColumn>,
}

impl std::ops::Deref for PageGuard {
    type Target = EncodedColumn;
    fn deref(&self) -> &EncodedColumn {
        &self.data
    }
}

impl Drop for PageGuard {
    fn drop(&mut self) {
        self.manager.unpin(self.key);
    }
}

/// Factory and fault-in service for paged segments: owns the page root
/// directory, the shared buffer pool, and the rows-per-group policy.
#[derive(Debug)]
pub struct SegmentPager {
    root: PathBuf,
    buffer: Arc<BufferManager>,
    rows_per_group: usize,
    faults: Arc<FaultInjector>,
}

impl SegmentPager {
    /// Creates a pager writing page files under `root`.
    pub fn new(
        root: impl Into<PathBuf>,
        buffer: Arc<BufferManager>,
        rows_per_group: usize,
        faults: Arc<FaultInjector>,
    ) -> Arc<SegmentPager> {
        Arc::new(SegmentPager {
            root: root.into(),
            buffer,
            rows_per_group: rows_per_group.max(1),
            faults,
        })
    }

    /// Rows per row group (one page per group per column).
    pub fn rows_per_group(&self) -> usize {
        self.rows_per_group
    }

    /// The page root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The shared buffer pool.
    pub fn buffer(&self) -> &Arc<BufferManager> {
        &self.buffer
    }

    /// Opens a writer for a new segment's page file.
    pub fn create_file(&self) -> Result<PageFileWriter> {
        PageFileWriter::create_under(&self.root, Arc::clone(&self.faults))
    }

    /// Pins page `page` of `file` (for `pass`, when a scan asks),
    /// faulting it in on a miss.
    pub fn pin(
        &self,
        file: &Arc<PageFile>,
        page: u32,
        pass: Option<&ScanPass>,
    ) -> Result<PageGuard> {
        let key = PageKey {
            file: file.file_id(),
            page,
        };
        let file = Arc::clone(file);
        self.buffer
            .pin(key, pass, move || file.read_column(page as usize))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::IntEncoding;
    use oltap_common::fault::FaultPoint;

    fn page(tag: i64, rows: usize) -> EncodedColumn {
        EncodedColumn::Int {
            enc: IntEncoding::Raw((0..rows as i64).map(|i| i * tag).collect()),
            validity: None,
        }
    }

    fn key(n: u32) -> PageKey {
        PageKey { file: 1, page: n }
    }

    #[test]
    fn hit_miss_and_eviction_accounting() {
        let bytes = page(1, 100).size_bytes() as u64;
        // Room for exactly two frames.
        let mgr = BufferManager::new(2 * bytes, None, FaultInjector::disabled());
        for n in 0..2u32 {
            let g = mgr
                .pin(key(n), None, || Ok(page(n as i64 + 1, 100)))
                .unwrap();
            drop(g);
        }
        assert_eq!(mgr.stats().misses, 2);
        assert_eq!(mgr.stats().resident_bytes, 2 * bytes);
        // Re-pin: hits, no faults.
        let g = mgr.pin(key(0), None, || panic!("must not reload")).unwrap();
        assert_eq!(mgr.stats().hits, 1);
        assert_eq!(g.len(), 100);
        drop(g);
        // Third page forces one eviction.
        let g = mgr.pin(key(2), None, || Ok(page(3, 100))).unwrap();
        assert_eq!(mgr.stats().evictions, 1);
        assert_eq!(mgr.stats().resident_bytes, 2 * bytes);
        assert_eq!(mgr.stats().pinned_bytes, bytes);
        drop(g);
        assert_eq!(mgr.stats().pinned_bytes, 0);
    }

    #[test]
    fn pinned_frames_are_not_evicted() {
        let bytes = page(1, 100).size_bytes() as u64;
        let mgr = BufferManager::new(2 * bytes, None, FaultInjector::disabled());
        let g0 = mgr.pin(key(0), None, || Ok(page(1, 100))).unwrap();
        let _g1 = mgr.pin(key(1), None, || Ok(page(2, 100))).unwrap();
        // Both frames pinned: a third page has nowhere to go.
        let err = mgr.pin(key(2), None, || Ok(page(3, 100))).unwrap_err();
        match err {
            DbError::ResourceExhausted { class, .. } => assert_eq!(class, "buffer"),
            other => panic!("wrong error: {other:?}"),
        }
        drop(g0);
        // One slot free again.
        mgr.pin(key(2), None, || Ok(page(3, 100))).unwrap();
        // The evicted frame was key 0 (the only unpinned one).
        assert!(!mgr.pool.lock().map.contains_key(&key(0)));
    }

    #[test]
    fn second_chance_prefers_cold_frames() {
        let bytes = page(1, 100).size_bytes() as u64;
        let mgr = BufferManager::new(2 * bytes, None, FaultInjector::disabled());
        drop(mgr.pin(key(0), None, || Ok(page(1, 100))).unwrap());
        drop(mgr.pin(key(1), None, || Ok(page(2, 100))).unwrap());
        // Touch key 0 so its ref bit is fresh relative to the hand sweep.
        drop(mgr.pin(key(0), None, || panic!("resident")).unwrap());
        drop(mgr.pin(key(2), None, || Ok(page(3, 100))).unwrap());
        // Both survivors resident; exactly one eviction happened.
        assert_eq!(mgr.stats().evictions, 1);
        assert_eq!(mgr.pool.lock().map.len(), 2);
    }

    #[test]
    fn governor_carveout_bounds_residency() {
        let bytes = page(1, 100).size_bytes() as u64;
        let gov = MemoryGovernor::with_buffer_pool(
            u64::MAX,
            u64::MAX,
            u64::MAX,
            2 * bytes,
            FaultInjector::disabled(),
        );
        // Local cap is loose; the carve-out is the binding constraint.
        let mgr = BufferManager::new(u64::MAX, Some(Arc::clone(&gov)), FaultInjector::disabled());
        for n in 0..5u32 {
            drop(
                mgr.pin(key(n), None, || Ok(page(n as i64 + 1, 100)))
                    .unwrap(),
            );
        }
        assert_eq!(gov.buffer_used(), 2 * bytes, "carve-out fully used");
        assert_eq!(mgr.stats().evictions, 3);
        drop(mgr);
        assert_eq!(gov.buffer_used(), 0, "drop returns carve-out bytes");
    }

    #[test]
    fn evict_race_fault_skips_victim_deterministically() {
        let faults = FaultInjector::new(0xE71C);
        faults.arm(points::BUFFER_EVICT_RACE, FaultPoint::times(1));
        let bytes = page(1, 100).size_bytes() as u64;
        let mgr = BufferManager::new(2 * bytes, None, faults.clone());
        drop(mgr.pin(key(0), None, || Ok(page(1, 100))).unwrap());
        drop(mgr.pin(key(1), None, || Ok(page(2, 100))).unwrap());
        // The race fires on the first victim; the hand must move past it
        // and still complete the pin.
        let g = mgr.pin(key(2), None, || Ok(page(3, 100))).unwrap();
        assert_eq!(g.len(), 100);
        assert_eq!(faults.fired_count(), 1);
        assert_eq!(mgr.stats().evictions, 1);
    }

    /// One pass over `groups` row groups of `columns`, as a fused aggregate
    /// makes it: a group's pages pinned side by side, released before the
    /// next group's. Page `(column, group)` is `key(column * 1000 + group)`.
    /// Returns the pages the pass faulted.
    fn scan(mgr: &Arc<BufferManager>, columns: &[u32], groups: u32, through_pass: bool) -> u64 {
        let bytes = page(1, 100).size_bytes() as u64;
        let pass = ScanPass::default();
        let before = mgr.stats().misses;
        for g in 0..groups {
            let pinned: Vec<PageGuard> = (columns.iter())
                .map(|&c| {
                    pass.reading(g as usize, c as usize, || groups as u64 * bytes);
                    let pass = through_pass.then_some(&pass);
                    mgr.pin(key(c * 1000 + g), pass, || Ok(page(1, 100)))
                        .unwrap()
                })
                .collect();
            drop(pinned);
        }
        mgr.stats().misses - before
    }

    fn resident(mgr: &BufferManager) -> Vec<u32> {
        let mut pages: Vec<u32> = mgr.pool.lock().map.keys().map(|k| k.page).collect();
        pages.sort_unstable();
        pages
    }

    /// Pins `key(n)` as row group `n` of a one-column pass over `pages`
    /// pages.
    fn pin_for(mgr: &Arc<BufferManager>, pass: &ScanPass, n: u32, pages: u64) -> Result<PageGuard> {
        pass.reading(n as usize, 0, || pages * page(1, 100).size_bytes() as u64);
        mgr.pin(key(n), Some(pass), || Ok(page(1, 100)))
    }

    #[test]
    fn a_rotation_of_large_passes_keeps_what_the_clock_floods() {
        let bytes = page(1, 100).size_bytes() as u64;
        // Two columns of 14 pages against a pool of 8: each pass is 3.5
        // times the pool.
        let rotation = |through_pass| {
            let mgr = BufferManager::new(8 * bytes, None, FaultInjector::disabled());
            let first =
                scan(&mgr, &[0, 1], 14, through_pass) + scan(&mgr, &[1, 0], 14, through_pass);
            let second =
                scan(&mgr, &[0, 1], 14, through_pass) + scan(&mgr, &[1, 0], 14, through_pass);
            assert_eq!(mgr.stats().pinned_bytes, 0);
            assert_eq!(mgr.stats().resident_bytes, 8 * bytes);
            (first, second, resident(&mgr))
        };
        // Under the clock alone every first touch of a statement faults.
        assert_eq!(rotation(false).0, 56);
        assert_eq!(rotation(false).1, 56);
        // Through their passes, the scans churn the frames of the group
        // being read and the one before it, and three groups' pages are
        // there for each later pass: six hits a pass from then on (a
        // pass's first loads, before it has frames of its own, are the
        // clock's, which is why the kept groups drift to the scan's end).
        let (first, second, kept) = rotation(true);
        assert_eq!((first, second), (28 + 20, 22 + 22));
        assert_eq!(kept, [10, 11, 12, 13, 1010, 1011, 1012, 1013]);
    }

    #[test]
    fn a_pass_that_fits_pins_as_the_clock_says() {
        let bytes = page(1, 100).size_bytes() as u64;
        // The same pins on two pools of eight frames, one of them through
        // passes whose two three-page columns fit: same counters, same
        // frames, same hand.
        let pools = [false, true].map(|through_pass| {
            let mgr = BufferManager::new(8 * bytes, None, FaultInjector::disabled());
            let faulted: Vec<u64> = [[0, 1], [2, 1], [0, 2], [3, 0]]
                .iter()
                .map(|columns| scan(&mgr, columns, 3, through_pass))
                .collect();
            let hand = mgr.pool.lock().hand;
            (faulted, mgr.stats(), resident(&mgr), hand)
        });
        assert_eq!(pools[0], pools[1]);
        assert!(pools[0].1.evictions > 0, "nothing was evicted — vacuous");
    }

    #[test]
    fn a_large_pass_takes_its_own_unpinned_frames_then_the_clock_then_is_refused() {
        let bytes = page(1, 100).size_bytes() as u64;
        let mgr = BufferManager::new(3 * bytes, None, FaultInjector::disabled());
        let (large, other) = (ScanPass::default(), ScanPass::default());
        let held = pin_for(&mgr, &large, 0, 100).unwrap();
        drop(pin_for(&mgr, &large, 1, 100).unwrap());
        drop(mgr.pin(key(9), None, || Ok(page(1, 100))).unwrap());

        // Its own unpinned frame goes, not its pinned one and not the
        // point reader's.
        let second = pin_for(&mgr, &large, 2, 100).unwrap();
        assert_eq!(resident(&mgr), [0, 2, 9]);
        drop(second);

        // Another pass has pinned the one frame this one could give up:
        // the clock finds the victim.
        let theirs = pin_for(&mgr, &other, 2, 100).unwrap();
        let third = pin_for(&mgr, &large, 3, 100).unwrap();
        assert_eq!(resident(&mgr), [0, 2, 3]);
        assert_eq!(mgr.stats().evictions, 2);

        // Everything pinned: the typed refusal, naming the page.
        let err = pin_for(&mgr, &large, 4, 100).unwrap_err();
        assert!(
            matches!(&err, DbError::ResourceExhausted { class, requested, .. }
                if class == "buffer" && *requested == bytes),
            "{err:?}"
        );
        assert_eq!(resident(&mgr), [0, 2, 3]);
        drop((held, theirs, third));
        assert_eq!(mgr.stats().pinned_bytes, 0);
    }

    /// A row group's filter releases a page its aggregate pins again a
    /// moment later: the pass does not give that page up in between.
    #[test]
    fn a_large_pass_spares_the_row_group_it_is_reading() {
        let bytes = page(1, 100).size_bytes() as u64;
        let mgr = BufferManager::new(3 * bytes, None, FaultInjector::disabled());
        let pass = ScanPass::default();
        let pin = |group: u32, column: u32| {
            pass.reading(group as usize, column as usize, || 100 * bytes);
            mgr.pin(key(column * 1000 + group), Some(&pass), || Ok(page(1, 100)))
                .unwrap()
        };
        drop((pin(0, 0), pin(0, 1)));
        drop(pin(1, 0));
        // Full. Group 1's second column takes group 0's frame, not the
        // one group 1 has just released; re-pinning that one is a hit.
        let second = pin(1, 1);
        assert_eq!(resident(&mgr), [0, 1, 1001]);
        let misses = mgr.stats().misses;
        drop((pin(1, 0), second));
        assert_eq!(mgr.stats().misses, misses);
    }

    #[test]
    fn ring_evictions_keep_the_governor_and_the_pin_count_exact() {
        let bytes = page(1, 100).size_bytes() as u64;
        let gov = MemoryGovernor::with_buffer_pool(
            u64::MAX,
            u64::MAX,
            u64::MAX,
            4 * bytes,
            FaultInjector::disabled(),
        );
        // The carve-out is what binds, so it is what makes the pass large.
        let mgr = BufferManager::new(u64::MAX, Some(Arc::clone(&gov)), FaultInjector::disabled());
        assert_eq!(mgr.keepable(), 4 * bytes);
        drop(mgr.pin(key(77_777), None, || Ok(page(1, 100))).unwrap());
        assert_eq!(scan(&mgr, &[0, 1], 600, true), 1200);
        let stats = mgr.stats();
        assert_eq!(stats.evictions, 1200 + 1 - 4);
        assert_eq!(stats.pinned_bytes, 0);
        assert_eq!(stats.resident_bytes, 4 * bytes);
        assert_eq!(gov.buffer_used(), stats.resident_bytes);
        // The point reader's page outlived 1 200 loads: once the pass had
        // frames of its own it took no one else's.
        assert_eq!(resident(&mgr), [0, 599, 1599, 77_777]);
        drop(mgr);
        assert_eq!(gov.buffer_used(), 0, "drop returns carve-out bytes");
    }

    #[test]
    fn evict_race_fires_on_a_ring_victim() {
        let faults = FaultInjector::new(0xE71C);
        faults.arm(points::BUFFER_EVICT_RACE, FaultPoint::times(1));
        let bytes = page(1, 100).size_bytes() as u64;
        let mgr = BufferManager::new(2 * bytes, None, faults.clone());
        let large = ScanPass::default();
        drop(pin_for(&mgr, &large, 0, 100).unwrap());
        drop(pin_for(&mgr, &large, 1, 100).unwrap());
        // The race fires on the pass's most recent frame; its next one
        // goes instead.
        drop(pin_for(&mgr, &large, 2, 100).unwrap());
        assert_eq!(faults.fired_count(), 1);
        assert_eq!(mgr.stats().evictions, 1);
        assert_eq!(resident(&mgr), [1, 2]);
    }

    #[test]
    fn an_oversize_page_is_refused_without_flushing_the_pool() {
        let bytes = page(1, 100).size_bytes() as u64;
        let mgr = BufferManager::new(2 * bytes, None, FaultInjector::disabled());
        drop(mgr.pin(key(0), None, || Ok(page(1, 100))).unwrap());
        drop(mgr.pin(key(1), None, || Ok(page(2, 100))).unwrap());
        let before = mgr.stats();
        let huge = page(3, 300);
        let huge_bytes = huge.size_bytes() as u64;
        assert!(huge_bytes > 2 * bytes);
        let err = mgr.pin(key(2), None, || Ok(huge)).unwrap_err();
        assert!(
            matches!(&err, DbError::ResourceExhausted { class, requested, .. }
                if class == "buffer" && *requested == huge_bytes),
            "{err:?}"
        );
        let after = mgr.stats();
        assert_eq!(after.evictions, 0);
        assert_eq!(after.resident_bytes, before.resident_bytes);
        for n in 0..2 {
            drop(mgr.pin(key(n), None, || panic!("resident")).unwrap());
        }
        assert_eq!(mgr.stats().hits, before.hits + 2);
    }

    #[test]
    fn forgetting_a_file_drops_its_unpinned_frames_only() {
        let bytes = page(1, 100).size_bytes() as u64;
        let gov = MemoryGovernor::new(u64::MAX, u64::MAX, u64::MAX);
        let mgr = BufferManager::new(u64::MAX, Some(Arc::clone(&gov)), FaultInjector::disabled());
        let of = |file, page| PageKey { file, page };
        let load = || Ok(page(1, 100));
        let held = mgr.pin(of(1, 0), None, load).unwrap();
        drop(mgr.pin(of(1, 1), None, load).unwrap());
        drop(mgr.pin(of(1, 2), None, load).unwrap());
        drop(mgr.pin(of(2, 0), None, load).unwrap());
        mgr.forget_file(1);
        let stats = mgr.stats();
        assert_eq!(stats.resident_bytes, 2 * bytes);
        assert_eq!(gov.buffer_used(), 2 * bytes);
        assert_eq!(
            stats.evictions, 0,
            "not an eviction: nothing asked for room"
        );
        let pool = mgr.pool.lock();
        assert!(pool.map.contains_key(&of(1, 0)) && pool.map.contains_key(&of(2, 0)));
        drop(pool);
        drop(held);
        assert_eq!(mgr.stats().pinned_bytes, 0);
    }

    #[test]
    fn concurrent_faults_on_distinct_pages_overlap() {
        // Each load blocks until the *other* load has started. If the pool
        // lock were still held across IO, the second fault could never
        // begin and the deadline below would trip.
        use std::sync::atomic::AtomicUsize;
        let mgr = BufferManager::unbounded();
        let started = Arc::new(AtomicUsize::new(0));
        let threads: Vec<_> = (0..2u32)
            .map(|n| {
                let mgr = Arc::clone(&mgr);
                let started = Arc::clone(&started);
                std::thread::spawn(move || {
                    let g = mgr
                        .pin(key(n), None, move || {
                            started.fetch_add(1, Ordering::SeqCst);
                            let deadline =
                                std::time::Instant::now() + std::time::Duration::from_secs(10);
                            while started.load(Ordering::SeqCst) < 2 {
                                assert!(
                                    std::time::Instant::now() < deadline,
                                    "page loads serialized: concurrent fault never started"
                                );
                                std::thread::yield_now();
                            }
                            Ok(page(n as i64 + 1, 100))
                        })
                        .unwrap();
                    assert_eq!(g.len(), 100);
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(mgr.stats().misses, 2);
        assert_eq!(mgr.pool.lock().loading.len(), 0, "latch table drained");
    }

    #[test]
    fn concurrent_same_page_pins_load_once() {
        use std::sync::atomic::AtomicUsize;
        let mgr = BufferManager::unbounded();
        let loads = Arc::new(AtomicUsize::new(0));
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let mgr = Arc::clone(&mgr);
                let loads = Arc::clone(&loads);
                std::thread::spawn(move || {
                    let g = mgr
                        .pin(key(7), None, move || {
                            loads.fetch_add(1, Ordering::SeqCst);
                            // Dawdle so the other pins arrive while the
                            // load is in flight and must take the latch.
                            std::thread::sleep(std::time::Duration::from_millis(20));
                            Ok(page(3, 50))
                        })
                        .unwrap();
                    assert_eq!(g.len(), 50);
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(loads.load(Ordering::SeqCst), 1, "single-flight per page");
        assert_eq!(mgr.stats().misses, 1);
        assert_eq!(mgr.stats().hits, 7);
    }

    #[test]
    fn failed_load_counts_a_miss_but_leaves_no_frame() {
        let mgr = BufferManager::unbounded();
        let err = mgr
            .pin(key(0), None, || {
                Err(DbError::Corruption("torn page".into()))
            })
            .unwrap_err();
        assert!(matches!(err, DbError::Corruption(_)));
        assert_eq!(mgr.stats().misses, 1);
        assert_eq!(mgr.stats().resident_bytes, 0);
        // A retry can still succeed.
        assert!(mgr.pin(key(0), None, || Ok(page(1, 10))).is_ok());
    }
}
