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
//!
//! **Read-ahead.** Each [`SegmentPager`] has one loader thread that does
//! the disk half of a scan's faults on another core: the read, the
//! checksum and the decode. On entering its second row group a pass knows
//! the columns it reads and the segment lists, once, the pages of the
//! later row groups its zone maps admit; at the pass's next miss the pages
//! not resident then go to the loader (a pass that only hits wakes no one).
//! The loader reads them a row group at a time into batches of decoded
//! pages, which the pass takes — all that are ready — when it enters a row
//! group it has nothing read for, and a miss of the pass's own pin takes
//! its page from the batch instead of reading it. The pool never sees the
//! loader: that pin makes the room, the frame, the ring entry and the miss
//! it would have made had it read the page, so hit, miss and eviction
//! counts repeat exactly, loader or not. The pass never waits for a row
//! group the loader has not started: it reads it itself, and the loader
//! skips the row groups the pass has reached and the one after. It spins
//! briefly for one the loader is reading. A failed read is batched like a
//! page, so its error reaches the pin of that page.
//!
//! The loader runs at most a window of row groups ahead of the pass: as
//! many as a quarter of what the pool can keep holds at the list's bytes
//! per row group — so much decoded data, at most, waits outside the pool
//! for one pass. It is woken when a pass hands it a list and, stopped at
//! the window's edge, once the pass has gone half a window further: a few
//! times per pass, never per page. Each thread frees what it allocated
//! (`Returned`): the data of a frame the loader read goes back to it
//! when the pool drops the frame. A pass that ends, finished or not, waits
//! out the loader's read in flight and hands back what it did not pin.

use crate::pagefile::{PageFile, PageFileWriter};
use crate::segment::EncodedColumn;
use oltap_common::fault::{points, FaultInjector};
use oltap_common::hash::FxHashMap;
use oltap_common::mem::MemoryGovernor;
use oltap_common::{DbError, Result};
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

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
    /// Pages the loader read ahead of a pass. A pin that takes one counts
    /// a miss, as if it had read the page; one no pin took counts only here.
    pub loader_loads: u64,
    /// Times a pass waited for a row group the loader was reading.
    pub loader_waits: u64,
}

struct Frame {
    key: PageKey,
    data: Arc<EncodedColumn>,
    bytes: u64,
    pins: u32,
    referenced: bool,
    /// The loader read the page.
    ahead: bool,
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
    /// The data the loader read of frames the pool has dropped, on its way
    /// back to the loader to free ([`Returned`]).
    garbage: Vec<EncodedColumn>,
}

/// A one-shot latch a faulting pin parks on while another pin loads the
/// same page. `release` is called exactly once, after the loading pin has
/// published (or abandoned) the frame — or unwound out of the load
/// ([`Unwinding`]); waiters then retry the pin from the top — a
/// successful load becomes their hit, a failed load makes the first
/// retrier the next to load.
#[derive(Debug, Default)]
struct LoadLatch {
    state: Mutex<Latched>,
    cv: Condvar,
}

#[derive(Debug, Default)]
struct Latched {
    done: bool,
    /// Someone waits: only then does `release` pay for a wake-up (a system
    /// call, whether or not anyone sleeps).
    waited: bool,
}

impl LoadLatch {
    fn wait(&self) {
        let mut state = self.state.lock();
        while !state.done {
            state.waited = true;
            self.cv.wait(&mut state);
        }
    }

    fn release(&self) {
        let mut state = self.state.lock();
        state.done = true;
        if state.waited {
            self.cv.notify_all();
        }
    }
}

/// Ends a load that unwinds: its latch leaves `Pool::loading` and is
/// released, so the pins waiting on it retry and one of them loads. A load
/// that returns, `Ok` or `Err`, forgets the guard.
struct Unwinding<'a> {
    manager: &'a BufferManager,
    key: PageKey,
    latch: &'a Arc<LoadLatch>,
}

impl Drop for Unwinding<'_> {
    fn drop(&mut self) {
        let mut pool = self.manager.pool.lock();
        if (pool.loading.get(&self.key)).is_some_and(|latch| Arc::ptr_eq(latch, self.latch)) {
            pool.loading.remove(&self.key);
        }
        drop(pool);
        self.latch.release();
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
///
/// A paged segment's pass also carries its read-ahead
/// ([`SegmentPager::read_ahead`]); dropping the pass ends it.
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
    /// Row groups the pass has entered.
    entered: usize,
    /// The frames this pass loaded and may give up, oldest first: the last
    /// two of each column, the page being read and the one before it. An
    /// older one stays in the pool as anyone's.
    ring: Vec<Loaded>,
    ahead: Ahead,
}

/// A pass's read-ahead.
#[derive(Debug, Default)]
enum Ahead {
    /// Until the pass has read one row group it does not know its columns.
    #[default]
    Undecided,
    /// The `(row group, page)`s the pass may pin after the row group it
    /// listed them in, for the loader once the pass misses: a pass that
    /// only hits needs none.
    Listed(Vec<(usize, u32)>),
    Running {
        job: Arc<Job>,
        loader: Arc<Loader>,
        /// Batches taken from the loader, in row group order; the front one
        /// is the current row group's, or a later one's.
        taken: VecDeque<Batch>,
        /// For the loader, at the next exchange.
        returned: Returned,
    },
    /// Nothing to read ahead, no room to, or no loader.
    Off,
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
    /// `column_bytes()` is asked the first time the column is read. True
    /// when this is the pass's first pin in `group`.
    pub fn reading(&self, group: usize, column: usize, column_bytes: impl FnOnce() -> u64) -> bool {
        let mut state = self.state.lock();
        let entering = state.entered == 0 || state.at.0 != group;
        state.entered += usize::from(entering);
        state.at = (group, column);
        if !state.columns.contains(&column) {
            state.columns.push(column);
            state.footprint += column_bytes();
        }
        entering
    }

    /// The loader's read of `page`, if it made one for this pass's current
    /// row group and no pin has taken it yet.
    fn take_read_ahead(&self, page: u32) -> Option<Result<EncodedColumn>> {
        let mut state = self.state.lock();
        let Ahead::Running { taken, .. } = &mut state.ahead else {
            return None;
        };
        let batch = taken.front_mut()?;
        let (_, read) = batch.pages.iter_mut().find(|(p, _)| *p == page)?;
        read.take()
    }

    /// A page the loader read that a pin found resident after all.
    fn hand_back(&self, unused: EncodedColumn) {
        if let Ahead::Running { returned, .. } = &mut self.state.lock().ahead {
            returned.pages.push(unused);
        }
    }
}

impl Drop for ScanPass {
    fn drop(&mut self) {
        let ahead = std::mem::take(&mut self.state.get_mut().ahead);
        if let Ahead::Running {
            job,
            loader,
            taken,
            returned,
        } = ahead
        {
            job.end(&loader, taken, returned);
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
    loader_loads: AtomicU64,
    loader_waits: AtomicU64,
    /// The loader of the pager this pool serves, which frees the data it
    /// read when the pool drops it.
    loader: std::sync::OnceLock<std::sync::Weak<Loader>>,
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool")
            .field("frames", &self.map.len())
            .field("resident_bytes", &self.resident_bytes)
            .field("pinned_bytes", &self.pinned_bytes)
            .field("loading", &self.loading.len())
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
                garbage: Vec::new(),
            }),
            capacity,
            governor,
            faults,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            loader_loads: AtomicU64::new(0),
            loader_waits: AtomicU64::new(0),
            loader: std::sync::OnceLock::new(),
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
            loader_loads: self.loader_loads.load(Ordering::Relaxed),
            loader_waits: self.loader_waits.load(Ordering::Relaxed),
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
                return Ok(self.hit(&mut pool, slot, key));
            }
            if let Some(latch) = pool.loading.get(&key) {
                let latch = Arc::clone(latch);
                drop(pool);
                latch.wait();
                continue;
            }
            // This pin loads the page: publish the latch, drop the pool
            // lock, and fault the page in with IO fully unlocked.
            let latch = Arc::<LoadLatch>::default();
            pool.loading.insert(key, Arc::clone(&latch));
            drop(pool);
            self.misses.fetch_add(1, Ordering::Relaxed);
            let unwinding = Unwinding {
                manager: self,
                key,
                latch: &latch,
            };
            let result = (load.take().expect("the page is loaded once"))();
            std::mem::forget(unwinding);
            let mut pool = self.pool.lock();
            pool.loading.remove(&key);
            // Publish the outcome before waking waiters so their retry
            // observes either the frame (success) or its absence (failure).
            let out = result.and_then(|data| self.publish(&mut pool, key, pass, data, false));
            drop(pool);
            latch.release();
            return out;
        }
    }

    /// [`pin`](Self::pin) of a page the loader has read for `pass`: a hit if
    /// the page is resident by now — `read` then goes back to the loader —
    /// else a miss that publishes `read` (or returns its error) at once.
    fn pin_read(
        self: &Arc<Self>,
        key: PageKey,
        pass: &ScanPass,
        read: Result<EncodedColumn>,
    ) -> Result<PageGuard> {
        loop {
            let mut pool = self.pool.lock();
            if let Some(&slot) = pool.map.get(&key) {
                let guard = self.hit(&mut pool, slot, key);
                drop(pool);
                if let Ok(unused) = read {
                    pass.hand_back(unused);
                }
                return Ok(guard);
            }
            if let Some(latch) = pool.loading.get(&key) {
                let latch = Arc::clone(latch);
                drop(pool);
                latch.wait();
                continue;
            }
            self.misses.fetch_add(1, Ordering::Relaxed);
            return read.and_then(|data| self.publish(&mut pool, key, Some(pass), data, true));
        }
    }

    /// The data of page `key` if the pool holds it — no pin, no hit, no
    /// reference bit: a look that leaves the pool as it found it.
    fn resident(&self, key: PageKey) -> Option<Arc<EncodedColumn>> {
        let pool = self.pool.lock();
        let slot = *pool.map.get(&key)?;
        pool.frames[slot]
            .as_ref()
            .map(|frame| Arc::clone(&frame.data))
    }

    /// Pins the resident frame in `slot`.
    fn hit(self: &Arc<Self>, pool: &mut Pool, slot: usize, key: PageKey) -> PageGuard {
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
        PageGuard {
            manager: Arc::clone(self),
            key,
            data,
        }
    }

    /// Makes room for a loaded page — the loader's read, when `ahead` — and
    /// installs it as a frame pinned once, for `pass` when a scan asks.
    fn publish(
        self: &Arc<Self>,
        pool: &mut Pool,
        key: PageKey,
        pass: Option<&ScanPass>,
        data: EncodedColumn,
        ahead: bool,
    ) -> Result<PageGuard> {
        let data = Arc::new(data);
        let bytes = data.size_bytes().max(1) as u64;
        let mut pass = pass.map(|p| p.state.lock());
        self.make_room(pool, bytes, pass.as_deref_mut())?;
        pool.resident_bytes += bytes;
        pool.pinned_bytes += bytes;
        let frame = Frame {
            key,
            data: Arc::clone(&data),
            bytes,
            pins: 1,
            referenced: true,
            ahead,
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
        // The `Arc` is this thread's allocation, what it holds the loader's.
        if let Some(data) = frame.ahead.then(|| Arc::into_inner(frame.data)).flatten() {
            pool.garbage.push(data);
            if pool.garbage.len() >= RETURN_BATCH {
                match self.loader.get().and_then(std::sync::Weak::upgrade) {
                    Some(loader) => loader.take_back(&mut pool.garbage),
                    None => pool.garbage.clear(),
                }
            }
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
/// directory, the shared buffer pool, the rows-per-group policy and the
/// loader thread that reads ahead of scan passes.
#[derive(Debug)]
pub struct SegmentPager {
    root: PathBuf,
    buffer: Arc<BufferManager>,
    rows_per_group: usize,
    faults: Arc<FaultInjector>,
    /// `None` when the thread could not be spawned: passes then read every
    /// page themselves.
    loader: Option<(Arc<Loader>, JoinHandle<()>)>,
}

impl SegmentPager {
    /// Creates a pager writing page files under `root`, and its loader.
    pub fn new(
        root: impl Into<PathBuf>,
        buffer: Arc<BufferManager>,
        rows_per_group: usize,
        faults: Arc<FaultInjector>,
    ) -> Arc<SegmentPager> {
        let loader = Arc::new(Loader {
            buffer: Arc::clone(&buffer),
            queue: Mutex::default(),
            wake: Condvar::new(),
        });
        let thread = std::thread::Builder::new()
            .name("oltap-loader".into())
            .spawn({
                let loader = Arc::clone(&loader);
                move || loader.run()
            });
        if thread.is_ok() {
            let _ = buffer.loader.set(Arc::downgrade(&loader));
        }
        Arc::new(SegmentPager {
            root: root.into(),
            buffer,
            rows_per_group: rows_per_group.max(1),
            faults,
            loader: thread.ok().map(|thread| (loader, thread)),
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
    /// faulting it in on a miss — from what the loader read for the pass,
    /// when it read the page.
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
        if let Some(pass) = pass {
            if let Some(read) = pass.take_read_ahead(page) {
                return self.buffer.pin_read(key, pass, read);
            }
        }
        self.buffer.pin(key, pass, || {
            let read = file.read_column(page as usize)?;
            if let Some(pass) = pass {
                self.start(pass, file);
            }
            Ok(read)
        })
    }

    /// Page `page` of `file` for a look that must leave the pool as it
    /// found it (a key check at a location a hash nominated): the pool's
    /// frame when it holds the page, else a read of the file that nothing
    /// keeps.
    pub(crate) fn peek(&self, file: &PageFile, page: u32) -> Result<Arc<EncodedColumn>> {
        let key = PageKey {
            file: file.file_id(),
            page,
        };
        match self.buffer.resident(key) {
            Some(data) => Ok(data),
            None => file.read_column(page as usize).map(Arc::new),
        }
    }

    /// Read-ahead for `pass` as it enters row group `group`. On its second
    /// row group the pass knows the columns it reads: then `pages(columns)`
    /// lists, once, the `(row group, page)`s the pass may go on to pin
    /// after this row group, in the order it will pin them; the loader gets
    /// them at the pass's next miss ([`pin`](Self::pin)). On every later
    /// entry the pass takes what the loader has read, if it has nothing read
    /// for this row group yet.
    pub fn read_ahead(
        &self,
        pass: &ScanPass,
        group: usize,
        pages: impl FnOnce(&[usize]) -> Vec<(usize, u32)>,
    ) {
        let mut state = pass.state.lock();
        let entered = state.entered;
        match &mut state.ahead {
            Ahead::Running {
                job,
                loader,
                taken,
                returned,
            } => {
                spend_before(group, taken, returned);
                if taken.front().is_some_and(|batch| batch.group == group) || !job.lists(group) {
                    job.passing(group, loader);
                    return;
                }
                if !job.arrive(group, loader) {
                    return;
                }
                let (job, loader) = (Arc::clone(job), Arc::clone(loader));
                let (mut batches, returned) = (std::mem::take(taken), std::mem::take(returned));
                drop(state);
                job.exchange(group, &loader, &mut batches, returned);
                if let Ahead::Running {
                    taken, returned, ..
                } = &mut pass.state.lock().ahead
                {
                    *taken = batches;
                    // What the loader read for row groups the pass read itself.
                    spend_before(group, taken, returned);
                }
            }
            Ahead::Undecided if entered > 1 => {
                state.ahead = match self.loader {
                    Some(_) => Ahead::Listed(pages(&state.columns)),
                    None => Ahead::Off,
                };
            }
            Ahead::Undecided | Ahead::Listed(_) | Ahead::Off => {}
        }
    }

    /// The pass's first miss after it listed its pages (its own read of a
    /// page succeeded): the loader gets those not resident or being loaded
    /// now, after the row group after this one, which is the pass's to read
    /// ([`Job::next_group`]) — unless that leaves nothing, or no room to
    /// read ahead in.
    fn start(&self, pass: &ScanPass, file: &Arc<PageFile>) {
        let mut state = pass.state.lock();
        let Ahead::Listed(listed) = &mut state.ahead else {
            return;
        };
        let (mut listed, at) = (std::mem::take(listed), state.at.0);
        state.ahead = Ahead::Off;
        drop(state);
        let Some((loader, _)) = &self.loader else {
            return;
        };
        let pool = self.buffer.pool.lock();
        listed.retain(|&(group, page)| {
            let key = PageKey {
                file: file.file_id(),
                page,
            };
            group > at + 1 && !pool.map.contains_key(&key) && !pool.loading.contains_key(&key)
        });
        drop(pool);
        let Some(job) = Job::new(file, listed, at, self.buffer.keepable()) else {
            return;
        };
        pass.state.lock().ahead = Ahead::Running {
            job: Arc::clone(&job),
            loader: Arc::clone(loader),
            taken: VecDeque::new(),
            returned: Returned::default(),
        };
        loader.submit(job);
    }
}

impl Drop for SegmentPager {
    fn drop(&mut self) {
        if let Some((loader, thread)) = self.loader.take() {
            loader.queue.lock().stop = true;
            loader.wake.notify_one();
            let _ = thread.join();
        }
    }
}

/// The pager's loader thread: the passes' jobs, served first come first
/// served, and data for it to free.
#[derive(Debug)]
struct Loader {
    buffer: Arc<BufferManager>,
    queue: Mutex<Queue>,
    wake: Condvar,
}

#[derive(Debug, Default)]
struct Queue {
    jobs: Vec<Arc<Job>>,
    /// What ended passes handed back.
    returned: Returned,
    /// The thread waits on `wake`: only then is waking it worth a system
    /// call. A busy thread looks at the queue when it is done with a job.
    parked: bool,
    stop: bool,
}

/// Dropped frames' data the pool collects before handing it to the loader.
const RETURN_BATCH: usize = 16;

/// Marks the loader stopped when its thread leaves `run`, by returning or
/// unwinding: nothing more is handed to it to free.
struct Stopped<'a>(&'a Loader);

impl Drop for Stopped<'_> {
    fn drop(&mut self) {
        self.0.queue.lock().stop = true;
    }
}

impl Loader {
    fn submit(&self, job: Arc<Job>) {
        let mut queue = self.queue.lock();
        queue.jobs.push(job);
        self.nudge(&mut queue);
    }

    fn wake(&self) {
        self.nudge(&mut self.queue.lock());
    }

    /// Wakes the thread if it waits (`queue` is locked).
    fn nudge(&self, queue: &mut Queue) {
        if std::mem::take(&mut queue.parked) {
            self.wake.notify_one();
        }
    }

    /// Takes dropped frames' data to free — unless the thread has stopped:
    /// then `pages` are freed here.
    fn take_back(&self, pages: &mut Vec<EncodedColumn>) {
        let mut queue = self.queue.lock();
        if queue.stop {
            drop(queue);
            pages.clear();
            return;
        }
        queue.returned.pages.append(pages);
        self.nudge(&mut queue);
    }

    /// The thread: reads the next row group of the first job that has one
    /// within its window, frees what it is given to free, and sleeps when
    /// there is neither.
    fn run(&self) {
        let _stopped = Stopped(self);
        let mut queue = self.queue.lock();
        while !queue.stop {
            let returned = queue.returned.drain();
            queue.jobs.retain(|job| !job.exhausted());
            let next = (queue.jobs.iter())
                .find_map(|job| Some((Arc::clone(job), Some(job.next_group()?))));
            if next.is_none() && returned.is_empty() {
                queue.parked = true;
                self.wake.wait(&mut queue);
                queue.parked = false;
                continue;
            }
            drop(queue);
            drop(returned);
            // Stay with the job while it has row groups within its window.
            if let Some((job, mut next)) = next {
                while let Some((file, batch, pages)) = next {
                    job.read(&self.buffer, file, batch, pages);
                    next = job.next_group();
                }
            }
            queue = self.queue.lock();
        }
    }
}

/// How long a pass spins for a row group the loader is reading before it
/// reads the pages itself: a row group takes the loader a few
/// microseconds, a wake-up from another core about ten.
const SPIN: Duration = Duration::from_micros(20);

/// One pass's read-ahead, shared by the pass and the loader: the pages
/// the loader reads for it, in the order the pass will pin them, and how
/// far ahead of the pass it may run.
#[derive(Debug)]
struct Job {
    /// `(row group, page)`, row group by row group.
    pages: Vec<(usize, u32)>,
    /// Row groups the loader may run ahead of the pass.
    window: usize,
    /// The row group the pass was reading when it last told the loader.
    at: AtomicUsize,
    /// The row group whose entry wakes the loader, stopped at the window's
    /// edge; `usize::MAX` when it is not.
    wake_at: AtomicUsize,
    /// The pass has ended: the loader reads nothing more for it.
    ended: AtomicBool,
    /// What the loader is doing, read by the pass when it has nothing read
    /// for a row group.
    progress: Progress,
    state: Mutex<JobState>,
    /// Signalled when the loader stops reading for a job that has ended.
    idle: Condvar,
}

#[derive(Debug)]
struct Progress {
    /// The row group the loader is reading; `usize::MAX` when none.
    reading: AtomicUsize,
    /// The last row group the loader left for the pass; `usize::MAX`
    /// before the first.
    published: AtomicUsize,
}

#[derive(Debug)]
struct JobState {
    /// The segment's page file, until the pass ends.
    file: Option<Arc<PageFile>>,
    /// The first of `pages` the loader has not read.
    next: usize,
    /// Row groups read and not yet taken by the pass.
    ready: VecDeque<Batch>,
    /// What the pass handed back since the loader last looked.
    returned: Returned,
    /// Spent batches for the loader to fill.
    spare: Vec<Batch>,
}

/// The decoded pages (or read errors) of one row group, by page index.
#[derive(Debug, Default)]
struct Batch {
    group: usize,
    pages: Vec<(u32, Option<Result<EncodedColumn>>)>,
}

impl Batch {
    /// Empties the batch for the loader to fill again, moving the pages no
    /// pin took to `left`.
    fn spend(&mut self, left: &mut Vec<EncodedColumn>) {
        left.extend(self.pages.drain(..).filter_map(|(_, page)| page?.ok()));
    }
}

/// What a pass hands the loader: the data of frames the pool dropped and
/// of pages no pin took, to free, and spent batches, to fill again.
///
/// Each thread frees only what it allocated. glibc frees an 8 KiB block
/// in 0.07 µs on the thread that allocated it and in about 0.7 µs on
/// another, under the allocating thread's arena lock — which the owner
/// then waits for in its next allocation. So the pass hands over what the
/// loader allocated, keeps its own `Arc`s and the vectors that carry
/// things across (elements move, buffers stay), and the loader reuses the
/// batches rather than freeing them.
#[derive(Debug, Default)]
struct Returned {
    pages: Vec<EncodedColumn>,
    batches: Vec<Batch>,
}

impl Returned {
    fn append(&mut self, other: &mut Returned) {
        self.pages.append(&mut other.pages);
        self.batches.append(&mut other.batches);
    }

    fn is_empty(&self) -> bool {
        self.pages.is_empty() && self.batches.is_empty()
    }

    /// Moves the contents out into vectors of this thread's own.
    fn drain(&mut self) -> Returned {
        Returned {
            pages: self.pages.drain(..).collect(),
            batches: self.batches.drain(..).collect(),
        }
    }
}

/// Spends the batches in front of `taken` for row groups before `group`.
fn spend_before(group: usize, taken: &mut VecDeque<Batch>, returned: &mut Returned) {
    while taken.front().is_some_and(|batch| batch.group < group) {
        let mut batch = taken.pop_front().expect("a batch in front");
        batch.spend(&mut returned.pages);
        returned.batches.push(batch);
    }
}

/// Clears a job's `reading` when the loader's read of a row group ends,
/// or unwinds.
struct Reading<'a>(&'a Job);

impl Drop for Reading<'_> {
    fn drop(&mut self) {
        let _state = self.0.state.lock();
        self.0.progress.reading.store(usize::MAX, Ordering::SeqCst);
        if self.0.ended.load(Ordering::SeqCst) {
            self.0.idle.notify_all();
        }
    }
}

impl Job {
    /// A job over `pages` for a pass reading row group `at`, or `None` when
    /// there is nothing to read or no room to: the window is as many row
    /// groups as a quarter of `keepable` holds at the pages' bytes per row
    /// group.
    fn new(
        file: &Arc<PageFile>,
        pages: Vec<(usize, u32)>,
        at: usize,
        keepable: u64,
    ) -> Option<Arc<Job>> {
        let directory = file.directory();
        let bytes: u64 = (pages.iter())
            .map(|&(_, page)| {
                directory
                    .get(page as usize)
                    .map_or(0, |meta| meta.len as u64)
            })
            .sum();
        let groups = pages
            .windows(2)
            .filter(|pair| pair[0].0 != pair[1].0)
            .count()
            + 1;
        let window = (keepable / 4).saturating_mul(groups as u64) / bytes.max(1);
        let window = usize::try_from(window).unwrap_or(usize::MAX);
        (window > 0 && !pages.is_empty()).then(|| {
            Arc::new(Job {
                pages,
                window,
                at: AtomicUsize::new(at),
                wake_at: AtomicUsize::new(usize::MAX),
                ended: AtomicBool::new(false),
                progress: Progress {
                    reading: AtomicUsize::new(usize::MAX),
                    published: AtomicUsize::new(usize::MAX),
                },
                state: Mutex::new(JobState {
                    file: Some(Arc::clone(file)),
                    next: 0,
                    ready: VecDeque::new(),
                    returned: Returned::default(),
                    spare: Vec::new(),
                }),
                idle: Condvar::new(),
            })
        })
    }

    /// Whether the loader was given pages of row group `group`.
    fn lists(&self, group: usize) -> bool {
        let first = self.pages.partition_point(|&(g, _)| g < group);
        self.pages.get(first).is_some_and(|&(g, _)| g == group)
    }

    fn exhausted(&self) -> bool {
        self.state.lock().next >= self.pages.len()
    }

    /// The pass enters row group `group` with pages for it in hand, or
    /// none listed: it tells the loader where it is only if the loader
    /// stopped for it.
    fn passing(&self, group: usize, loader: &Loader) {
        if self.wake_at.load(Ordering::SeqCst) <= group {
            self.at.store(group, Ordering::SeqCst);
            if self.wake_at.swap(usize::MAX, Ordering::SeqCst) != usize::MAX {
                loader.wake();
            }
        }
    }

    /// The pass enters listed row group `group` with nothing read for it.
    /// It tells the loader where it is, so that the loader skips the row
    /// groups it reaches, and waits briefly if the loader is reading this
    /// one. True when the loader has left a row group at or past it: then
    /// the pass should [`exchange`](Self::exchange); else it reads the
    /// pages itself.
    fn arrive(&self, group: usize, loader: &Loader) -> bool {
        self.at.store(group, Ordering::SeqCst);
        let progress = &self.progress;
        if progress.reading.load(Ordering::SeqCst) == group {
            loader.buffer.loader_waits.fetch_add(1, Ordering::Relaxed);
            let until = Instant::now() + SPIN;
            while progress.reading.load(Ordering::SeqCst) == group && Instant::now() < until {
                std::hint::spin_loop();
            }
        }
        let published = progress.published.load(Ordering::SeqCst);
        let ready = published != usize::MAX && published >= group;
        if !ready {
            self.passing(group, loader);
        }
        ready
    }

    /// Swaps the pass's (spent) `batches` for every row group the loader
    /// has read, and hands back `returned`.
    fn exchange(
        &self,
        group: usize,
        loader: &Loader,
        batches: &mut VecDeque<Batch>,
        mut returned: Returned,
    ) {
        let mut state = self.state.lock();
        state.returned.append(&mut returned);
        if batches.is_empty() {
            std::mem::swap(batches, &mut state.ready);
        } else {
            batches.append(&mut state.ready);
        }
        drop(state);
        self.passing(group, loader);
    }

    /// The next row group for the loader to read, with a batch to read it
    /// into: the first listed after the row group the pass is in, unless
    /// that is more than a window ahead of it — then the pass wakes the
    /// loader once it has gone half a window further. `None` also when the
    /// pass has ended or the list is done.
    fn next_group(&self) -> Option<(Arc<PageFile>, Batch, std::ops::Range<usize>)> {
        let mut state = self.state.lock();
        let file = Arc::clone(state.file.as_ref()?);
        let at = self.at.load(Ordering::SeqCst);
        // The row groups the pass has reached it reads itself, and the one
        // after: a loader at the pass's heels would make the pass wait for
        // every row group instead of sharing them.
        state.next = (state.next).max(self.pages.partition_point(|&(g, _)| g <= at + 1));
        let &(group, _) = self.pages.get(state.next)?;
        if group > at + self.window {
            (self.wake_at).store(group - self.window.div_ceil(2), Ordering::SeqCst);
            if group > self.at.load(Ordering::SeqCst) + self.window {
                return None;
            }
            self.wake_at.store(usize::MAX, Ordering::SeqCst);
        }
        let start = state.next;
        state.next += self.pages[start..].partition_point(|&(g, _)| g == group);
        self.progress.reading.store(group, Ordering::SeqCst);
        let mut batch = state.spare.pop().unwrap_or_default();
        batch.group = group;
        Some((file, batch, start..state.next))
    }

    /// Reads and decodes `pages` into `batch` and leaves it for the pass;
    /// frees or keeps what the pass handed back meanwhile.
    fn read(
        &self,
        buffer: &BufferManager,
        file: Arc<PageFile>,
        mut batch: Batch,
        pages: std::ops::Range<usize>,
    ) {
        let reading = Reading(self);
        for &(_, page) in &self.pages[pages] {
            if self.ended.load(Ordering::Relaxed) {
                break;
            }
            batch
                .pages
                .push((page, Some(file.read_column(page as usize))));
        }
        buffer
            .loader_loads
            .fetch_add(batch.pages.len() as u64, Ordering::Relaxed);
        let mut state = self.state.lock();
        let pages: Vec<EncodedColumn> = state.returned.pages.drain(..).collect();
        let JobState {
            returned, spare, ..
        } = &mut *state;
        spare.append(&mut returned.batches);
        let unwanted = if self.ended.load(Ordering::Relaxed) {
            Some(batch)
        } else {
            self.progress.published.store(batch.group, Ordering::SeqCst);
            state.ready.push_back(batch);
            None
        };
        drop(state);
        // Freed here, where most of it was allocated, and outside the lock.
        drop((pages, unwanted));
        // The segment may go as soon as the pass has seen the loader stop:
        // its file must not be the loader's to drop.
        drop(file);
        drop(reading);
    }

    /// The pass has ended: the loader reads nothing more for it, its read
    /// in flight is waited out, and everything read and not pinned — in
    /// `taken`, or still in the job — goes back to the loader with
    /// `returned` and what the pool dropped.
    fn end(&self, loader: &Loader, taken: VecDeque<Batch>, mut returned: Returned) {
        self.ended.store(true, Ordering::SeqCst);
        let mut state = self.state.lock();
        state.file = None;
        while self.progress.reading.load(Ordering::SeqCst) != usize::MAX {
            self.idle.wait(&mut state);
        }
        returned.append(&mut state.returned);
        returned.batches.append(&mut state.spare);
        let ready = std::mem::take(&mut state.ready);
        drop(state);
        for mut batch in ready.into_iter().chain(taken) {
            batch.spend(&mut returned.pages);
            returned.batches.push(batch);
        }
        let mut queue = loader.queue.lock();
        queue.jobs.retain(|job| !std::ptr::eq(&**job, self));
        if !returned.is_empty() && !queue.stop {
            queue.returned.append(&mut returned);
            loader.nudge(&mut queue);
        }
    }
}

#[cfg(test)]
impl SegmentPager {
    /// A pager whose passes read every page themselves: what the read-ahead
    /// tests hold the loader to.
    pub(crate) fn without_loader(
        root: impl Into<PathBuf>,
        buffer: Arc<BufferManager>,
        rows_per_group: usize,
    ) -> Arc<SegmentPager> {
        Arc::new(SegmentPager {
            root: root.into(),
            buffer,
            rows_per_group: rows_per_group.max(1),
            faults: FaultInjector::disabled(),
            loader: None,
        })
    }

    /// Passes the loader holds a job for.
    pub(crate) fn jobs(&self) -> usize {
        (self.loader.as_ref()).map_or(0, |(loader, _)| loader.queue.lock().jobs.len())
    }
}

#[cfg(test)]
impl BufferManager {
    /// Page loads under way.
    pub(crate) fn loading(&self) -> usize {
        self.pool.lock().loading.len()
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

    /// The loader leaves the pass the row group after the one it is in — a
    /// loader at the pass's heels would make it wait for every row group —
    /// skips what the pass has passed, and reads no further than a window
    /// ahead of where the pass last said it was.
    #[test]
    fn the_loader_leaves_the_pass_its_next_row_group() {
        let root = std::env::temp_dir().join(format!("oltap-job-{}", std::process::id()));
        let mut writer = PageFileWriter::create_under(&root, FaultInjector::disabled()).unwrap();
        for g in 0..20 {
            writer.append_column(&page(g, 100)).unwrap();
        }
        let file = Arc::new(writer.finish().unwrap());
        let bytes = file.directory()[0].len as u64;
        let pages = (0..20).map(|g| (g, g as u32)).collect();
        // A pass in row group 1; a window of five row groups.
        let job = Job::new(&file, pages, 1, 4 * 5 * bytes).unwrap();
        let next = || job.next_group().map(|(_, batch, _)| batch.group);
        assert_eq!(next(), Some(3));
        // The pass has run past the loader, to row group 9.
        job.at.store(9, Ordering::SeqCst);
        let read = [next(), next(), next(), next(), next()];
        assert_eq!(read, [Some(11), Some(12), Some(13), Some(14), None]);
        // Stopped at 15, a window past 9: woken when the pass reaches 12.
        assert_eq!(job.wake_at.load(Ordering::SeqCst), 12);
        drop(job);
        drop(file);
        let _ = std::fs::remove_dir_all(&root);
    }

    /// A load that panics leaves no latch behind: the pin that waited on
    /// it loads the page itself, within a time bound (with the latch left
    /// in `Pool::loading`, every later pin of the page would wait forever).
    #[test]
    fn a_load_that_panics_releases_its_latch() {
        use std::sync::mpsc;
        use std::time::Duration;
        let mgr = BufferManager::unbounded();
        let (started_tx, started_rx) = mpsc::channel();
        let (fail_tx, fail_rx) = mpsc::channel::<()>();
        let failing = std::thread::spawn({
            let mgr = Arc::clone(&mgr);
            move || {
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    mgr.pin(key(3), None, || {
                        started_tx.send(()).unwrap();
                        fail_rx.recv().unwrap();
                        panic!("a decoder bug")
                    })
                }))
                .is_err()
            }
        });
        started_rx.recv().unwrap();
        // The second pin finds the first one's latch and waits on it.
        let (done_tx, done_rx) = mpsc::channel();
        std::thread::spawn({
            let mgr = Arc::clone(&mgr);
            move || done_tx.send(mgr.pin(key(3), None, || Ok(page(1, 10))).map(|g| g.len()))
        });
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(mgr.loading(), 1);
        fail_tx.send(()).unwrap();
        assert!(failing.join().unwrap(), "the load did not panic");
        let loaded = done_rx.recv_timeout(Duration::from_secs(10));
        assert!(matches!(loaded, Ok(Ok(10))), "{loaded:?}");
        // A pin after both is a hit, and nothing is left loading or pinned.
        assert_eq!(
            mgr.pin(key(3), None, || panic!("resident")).unwrap().len(),
            10
        );
        assert_eq!(mgr.stats().misses, 2);
        assert_eq!((mgr.loading(), mgr.stats().pinned_bytes), (0, 0));
    }
}
