//! An insert-only concurrent skip list.
//!
//! This is the primary-key index of the row store, modeled on the lock-free
//! skip list MemSQL uses for its in-DRAM row store (paper §3, \[26\]).
//! Simplifications that keep it sound safe-ish Rust:
//!
//! * **Insert-only structure.** Logical deletes happen in the MVCC version
//!   chains that the list's values point at; index nodes are never unlinked.
//!   This removes the need for marked pointers and hazard-pointer/epoch
//!   reclamation — a node, once published, lives until the list is dropped,
//!   so readers may traverse raw pointers freely.
//! * **Lock-free reads and inserts.** Lookups are wait-free traversals;
//!   inserts link with compare-and-swap per level (bottom-up), retrying
//!   against the refreshed predecessor on contention — the classic
//!   Fraser-style insert without the deletion half.
//!
//! **Node layout.** A node is a header (key, value, height) followed by its
//! tower, `height` atomic next pointers, one a level (`Node::layout`). The
//! head sentinel is the same shape with `MAX_HEIGHT` levels and no key or
//! value; it is the list's one allocation of its own.
//!
//! **The arena.** Every other node is bump-allocated from the list's
//! arena (`arena.rs`): fixed-size blocks, the first taken by the first
//! insert, so an empty list holds none. No node is freed on its own. `Drop`
//! walks level 0 and drops each key and value in place, then the arena
//! frees its blocks whole; an insert that loses a race drops its key and
//! value in place and leaves its bytes behind. A list of N keys costs the
//! allocator N / (nodes a block) requests instead of N, and it gets back
//! large chunks, not a heap scattered with small ones (DESIGN.md § "What a
//! row costs").
//!
//! **The append path.** The list keeps a finger: for each level, the last
//! node linked there (the head while the level is empty). An insert draws
//! its height first; when, for every level below that height, the finger's
//! node has no successor there and its key is below the new key, those
//! nodes are the predecessors and every successor is null — no search. The
//! level-0 compare-and-swap is still the only linearization point, so a
//! finger made stale by a racing insert costs only a fallback: any failed
//! check or failed CAS goes to the search (`SkipList::find`) exactly as
//! an insert into the middle of the list does, and duplicate keys and
//! racing inserts behave the same on both paths. A load in key order — a
//! population loaded by key, and the list a merge rebuilds from the chains
//! it keeps — compares about once a key instead of descending from the
//! head; a key that lands mid-list (a NewOrder's lines behind a later
//! district's) takes the search as before.
//!
//! The `unsafe` blocks are confined to allocating, dereferencing and
//! dropping node pointers, justified by the no-reclamation invariant above.

use crate::arena::Arena;
use std::alloc::{self, Layout};
use std::marker::PhantomData;
use std::mem::MaybeUninit;
use std::ptr;
use std::sync::atomic::{AtomicPtr, AtomicU64, AtomicUsize, Ordering};

/// The most levels a node has (the head has all of them).
const MAX_HEIGHT: usize = 16;

/// One level's next pointer.
type Link<K, V> = AtomicPtr<Node<K, V>>;

/// A node's header; its tower of `height` links follows it in the same
/// allocation.
struct Node<K, V> {
    /// Uninitialised only in the head sentinel (conceptually -infinity).
    key: MaybeUninit<K>,
    /// Uninitialised only in the head sentinel.
    value: MaybeUninit<V>,
    height: usize,
}

impl<K, V> Node<K, V> {
    /// Where the tower starts: the header, padded to a link's alignment.
    const TOWER: usize = match Layout::new::<Self>().extend(Layout::new::<[Link<K, V>; 0]>()) {
        Ok((_, offset)) => offset,
        Err(_) => panic!("node header too large"),
    };

    /// The layout of a node of `height` levels.
    fn layout(height: usize) -> Layout {
        let tower = Layout::array::<Link<K, V>>(height).expect("tower size");
        let (layout, offset) = Layout::new::<Self>().extend(tower).expect("node size");
        debug_assert_eq!(offset, Self::TOWER);
        layout.pad_to_align()
    }

    /// The head sentinel: `MAX_HEIGHT` levels, no key or value, every link
    /// null; its own allocation, freed by [`Node::free_head`].
    fn alloc_head() -> *mut Self {
        let layout = Self::layout(MAX_HEIGHT);
        // SAFETY: the layout is not zero-sized (the header holds a `usize`).
        let node = unsafe { alloc::alloc(layout) }.cast::<Self>();
        if node.is_null() {
            alloc::handle_alloc_error(layout);
        }
        // SAFETY: `node` is a fresh allocation of the layout `init` writes.
        unsafe {
            Self::init(
                node,
                MaybeUninit::uninit(),
                MaybeUninit::uninit(),
                MAX_HEIGHT,
            )
        }
    }

    /// A node of `height` levels holding `key → value`, every link null, in
    /// `arena`, which never frees it on its own.
    fn alloc_in(arena: &Arena, key: K, value: V, height: usize) -> *mut Self {
        let node = arena.alloc(Self::layout(height)).as_ptr().cast::<Self>();
        // SAFETY: `node` is fresh memory of the layout `init` writes.
        unsafe { Self::init(node, MaybeUninit::new(key), MaybeUninit::new(value), height) }
    }

    /// Writes a node of `height` levels, every link null, into `node`.
    ///
    /// # Safety
    /// `node` is unshared memory of `Node::layout(height)`.
    unsafe fn init(
        node: *mut Self,
        key: MaybeUninit<K>,
        value: MaybeUninit<V>,
        height: usize,
    ) -> *mut Self {
        // SAFETY: the layout holds the header and `height` links from
        // `TOWER` on.
        unsafe {
            node.write(Node { key, value, height });
            let tower = node.cast::<u8>().add(Self::TOWER).cast::<Link<K, V>>();
            for level in 0..height {
                tower.add(level).write(AtomicPtr::new(ptr::null_mut()));
            }
        }
        node
    }

    /// Level `level`'s link of `node`.
    ///
    /// # Safety
    /// `node` is a live node of more than `level` levels.
    unsafe fn next<'a>(node: *const Self, level: usize) -> &'a Link<K, V> {
        debug_assert!(level < (*node).height);
        &*node
            .cast::<u8>()
            .add(Self::TOWER)
            .cast::<Link<K, V>>()
            .add(level)
    }

    /// The key of `node`.
    ///
    /// # Safety
    /// `node` is a live node other than the head.
    unsafe fn key<'a>(node: *const Self) -> &'a K {
        (*node).key.assume_init_ref()
    }

    /// The value of `node`.
    ///
    /// # Safety
    /// `node` is a live node other than the head.
    unsafe fn value<'a>(node: *const Self) -> &'a V {
        (*node).value.assume_init_ref()
    }

    /// Drops the key and value of `node` in place; its bytes stay in the
    /// arena until the arena drops.
    ///
    /// # Safety
    /// `node` came from [`Node::alloc_in`], and nothing will use it again.
    unsafe fn drop_entry(node: *mut Self) {
        (*node).key.assume_init_drop();
        (*node).value.assume_init_drop();
    }

    /// Frees the head sentinel.
    ///
    /// # Safety
    /// `head` came from [`Node::alloc_head`], and nothing will use it again.
    unsafe fn free_head(head: *mut Self) {
        alloc::dealloc(head.cast(), Self::layout(MAX_HEIGHT));
    }
}

/// A concurrent ordered map with lock-free reads and inserts and no
/// physical deletion (see module docs).
pub struct SkipList<K, V> {
    head: *mut Node<K, V>,
    /// Where every node but the head lives; dropped after the nodes' keys
    /// and values (`Drop`).
    arena: Arena,
    /// For each level, the last node linked there (the head at first): a
    /// hint the append path checks before it trusts.
    finger: [Link<K, V>; MAX_HEIGHT],
    len: AtomicUsize,
    rng: AtomicU64,
    _marker: PhantomData<(K, V)>,
}

// SAFETY: `head` and every node it reaches are owned by the list and
// dropped only in `Drop`, which has exclusive access; the arena hands out
// memory under its own lock; `finger`, `len` and `rng` are atomics, and
// every link is an atomic whose `Release` CAS publishes a fully written node
// to the `Acquire` loads that reach it. Other threads share `&K` and `&V`
// through `get` and `iter` and may drop a `K` and `V` (a losing insert drops
// its own), hence `K` and `V` are `Send + Sync`.
unsafe impl<K: Send + Sync, V: Send + Sync> Send for SkipList<K, V> {}
unsafe impl<K: Send + Sync, V: Send + Sync> Sync for SkipList<K, V> {}

impl<K: Ord, V> Default for SkipList<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Ord, V> SkipList<K, V> {
    /// An empty list: the head, and no arena block until the first insert.
    pub fn new() -> Self {
        let head = Node::alloc_head();
        SkipList {
            head,
            arena: Arena::new(),
            finger: std::array::from_fn(|_| AtomicPtr::new(head)),
            len: AtomicUsize::new(0),
            rng: AtomicU64::new(0x9E37_79B9_7F4A_7C15),
            _marker: PhantomData,
        }
    }

    /// Number of inserted keys.
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    /// True when no key has been inserted.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn random_height(&self) -> usize {
        // xorshift64* advanced atomically; geometric(1/2) capped height.
        let mut h = 1;
        let r = self
            .rng
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |mut x| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                Some(x)
            })
            .unwrap();
        let mut bits = r;
        while bits & 1 == 1 && h < MAX_HEIGHT {
            h += 1;
            bits >>= 1;
        }
        h
    }

    /// Finds, for each level, the last node with key < `key` (preds) and its
    /// successor (succs). Returns whether an exact match exists (it is then
    /// `succs\[0\]`).
    fn find(
        &self,
        key: &K,
        preds: &mut [*mut Node<K, V>; MAX_HEIGHT],
        succs: &mut [*mut Node<K, V>; MAX_HEIGHT],
    ) -> bool {
        let mut pred = self.head;
        for level in (0..MAX_HEIGHT).rev() {
            // SAFETY: pred is head or a published node of more than `level`
            // levels (it was reached at this level); never freed.
            let mut curr = unsafe { Node::next(pred, level).load(Ordering::Acquire) };
            while !curr.is_null() && unsafe { Node::key(curr) } < key {
                pred = curr;
                curr = unsafe { Node::next(pred, level).load(Ordering::Acquire) };
            }
            preds[level] = pred;
            succs[level] = curr;
        }
        !succs[0].is_null() && unsafe { Node::key(succs[0]) } == key
    }

    /// The append path: true, with `preds[..height]` set from the finger,
    /// when at every level below `height` the finger's node is a tail (no
    /// successor) whose key is below `key` — so `key` is above every key in
    /// the list, and every successor of a new node is null. False as soon
    /// as one check fails; the caller then searches.
    fn at_tail(&self, key: &K, height: usize, preds: &mut [*mut Node<K, V>; MAX_HEIGHT]) -> bool {
        // The last pred whose key was found below `key`: a tall tail is
        // every low level's finger, and is compared once.
        let mut below = self.head;
        for (level, pred) in preds.iter_mut().enumerate().take(height) {
            let node = self.finger[level].load(Ordering::Acquire);
            // SAFETY: the finger holds the head or nodes published at this
            // level, which live as long as the list.
            if !unsafe { Node::next(node, level).load(Ordering::Acquire) }.is_null() {
                return false;
            }
            // SAFETY: as above, and `node` is not the head, so it has a key.
            if node != below && node != self.head {
                if unsafe { Node::key(node) } >= key {
                    return false;
                }
                below = node;
            }
            *pred = node;
        }
        true
    }

    /// Looks up `key`, returning a reference to its value.
    ///
    /// The reference is valid for the lifetime of the list borrow because
    /// nodes and their values are never dropped while the list is alive.
    pub fn get(&self, key: &K) -> Option<&V> {
        let mut pred = self.head;
        for level in (0..MAX_HEIGHT).rev() {
            // SAFETY: as in `find`.
            let mut curr = unsafe { Node::next(pred, level).load(Ordering::Acquire) };
            while !curr.is_null() {
                match unsafe { Node::key(curr) }.cmp(key) {
                    std::cmp::Ordering::Less => {
                        pred = curr;
                        curr = unsafe { Node::next(pred, level).load(Ordering::Acquire) };
                    }
                    std::cmp::Ordering::Equal => return Some(unsafe { Node::value(curr) }),
                    std::cmp::Ordering::Greater => break,
                }
            }
        }
        None
    }

    /// True when `key` is present.
    pub fn contains(&self, key: &K) -> bool {
        self.get(key).is_some()
    }

    /// Inserts `key → value` if absent. On success returns `Ok(&V)` with
    /// the stored value; if the key already exists, returns `Err(&V)` with
    /// the *existing* value (the caller's value is dropped).
    pub fn insert(&self, key: K, value: V) -> Result<&V, &V> {
        match self.link(key, self.random_height(), || value) {
            (stored, true) => Ok(stored),
            (existing, false) => Err(existing),
        }
    }

    /// The value under `key`, made by `make` and inserted when the key is
    /// absent: one search when it is present (none when it is above every
    /// key, the append path), and the node (with the value `make` builds)
    /// only when it is not. Of threads racing to insert the same key, one
    /// links its node and every other gets that node's value.
    pub fn get_or_insert_with(&self, key: K, make: impl FnOnce() -> V) -> &V {
        self.link(key, self.random_height(), make).0
    }

    /// The value under `key`, linking a node of `height` levels holding
    /// `key → make()` first when the key is absent; true when this call
    /// linked it.
    fn link(&self, key: K, height: usize, make: impl FnOnce() -> V) -> (&V, bool) {
        // Every tower access below trusts the height.
        assert!((1..=MAX_HEIGHT).contains(&height), "height {height}");
        let mut preds = [ptr::null_mut(); MAX_HEIGHT];
        let mut succs = [ptr::null_mut(); MAX_HEIGHT];
        if !self.at_tail(&key, height, &mut preds) && self.find(&key, &mut preds, &mut succs) {
            // SAFETY: `find` found a published node there, and published
            // nodes are freed only when the list drops.
            return (unsafe { Node::value(succs[0]) }, false);
        }

        let node = Node::alloc_in(&self.arena, key, make(), height);
        // SAFETY (every dereference below): `node` is this call's own node,
        // unshared until the level-0 CAS publishes it, in the arena, which
        // lives as long as the list; `preds` and `succs` hold the head or
        // published nodes of more than the level they are read at, which
        // live as long as the list.
        loop {
            // Point the new node at the current successors.
            for (level, &succ) in succs.iter().enumerate().take(height) {
                unsafe { Node::next(node, level).store(succ, Ordering::Relaxed) };
            }
            // Publish at level 0; this is the linearization point.
            match unsafe {
                Node::next(preds[0], 0).compare_exchange(
                    succs[0],
                    node,
                    Ordering::Release,
                    Ordering::Acquire,
                )
            } {
                Ok(_) => break,
                Err(_) => {
                    // Contention or a stale finger: search. The key may now
                    // exist.
                    if self.find(unsafe { Node::key(node) }, &mut preds, &mut succs) {
                        // Drop the unpublished node's key and value: no
                        // other thread ever saw it. Its bytes stay behind.
                        unsafe { Node::drop_entry(node) };
                        return (unsafe { Node::value(succs[0]) }, false);
                    }
                }
            }
        }
        self.note_tail(node, 0, succs[0]);

        // Link upper levels; retry each against fresh predecessors.
        for level in 1..height {
            loop {
                let pred = preds[level];
                let succ = succs[level];
                unsafe { Node::next(node, level).store(succ, Ordering::Relaxed) };
                let ok = unsafe {
                    Node::next(pred, level)
                        .compare_exchange(succ, node, Ordering::Release, Ordering::Acquire)
                        .is_ok()
                };
                if ok {
                    self.note_tail(node, level, succ);
                    break;
                }
                self.find(unsafe { Node::key(node) }, &mut preds, &mut succs);
                // If someone linked a *different* node with our key we would
                // have seen it before level-0 publication; from here on the
                // found node at level 0 is ourselves, so just retry.
            }
        }

        self.len.fetch_add(1, Ordering::Relaxed);
        (unsafe { Node::value(node) }, true)
    }

    /// Points the finger at `node` for `level` when it was linked there
    /// with no successor (on either path). A racing append may overwrite a
    /// later tail with an earlier one; the next append's checks catch that.
    fn note_tail(&self, node: *mut Node<K, V>, level: usize, succ: *mut Node<K, V>) {
        if succ.is_null() {
            self.finger[level].store(node, Ordering::Release);
        }
    }

    /// Iterates entries in key order, starting at the first key ≥ `start`
    /// (or the beginning when `start` is `None`).
    pub fn iter_from(&self, start: Option<&K>) -> Iter<'_, K, V> {
        let first = match start {
            // SAFETY: the head has every level.
            None => unsafe { Node::next(self.head, 0).load(Ordering::Acquire) },
            Some(key) => {
                let mut preds = [ptr::null_mut(); MAX_HEIGHT];
                let mut succs = [ptr::null_mut(); MAX_HEIGHT];
                self.find(key, &mut preds, &mut succs);
                succs[0]
            }
        };
        Iter {
            curr: first,
            _list: PhantomData,
        }
    }

    /// Iterates all entries in key order.
    pub fn iter(&self) -> Iter<'_, K, V> {
        self.iter_from(None)
    }
}

impl<K, V> Drop for SkipList<K, V> {
    fn drop(&mut self) {
        // Exclusive access: drop the key and value of every node on the
        // level-0 chain (which holds every node), then free the head; the
        // arena frees the nodes' blocks after this.
        // SAFETY: every node on the chain was published by `link` and is
        // dropped once here; the head came from `Node::alloc_head`.
        unsafe {
            let mut curr = Node::next(self.head, 0).load(Ordering::Relaxed);
            while !curr.is_null() {
                let next = Node::next(curr, 0).load(Ordering::Relaxed);
                Node::drop_entry(curr);
                curr = next;
            }
            Node::free_head(self.head);
        }
    }
}

/// Ordered iterator over a [`SkipList`].
pub struct Iter<'a, K, V> {
    curr: *mut Node<K, V>,
    _list: PhantomData<&'a SkipList<K, V>>,
}

impl<'a, K, V> Iterator for Iter<'a, K, V> {
    type Item = (&'a K, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        if self.curr.is_null() {
            return None;
        }
        // SAFETY: nodes live as long as the list borrow `'a`, and the
        // iterator never visits the head.
        let node = self.curr;
        unsafe {
            self.curr = Node::next(node, 0).load(Ordering::Acquire);
            Some((Node::key(node), Node::value(node)))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use std::sync::Arc;

    #[test]
    fn insert_get_basic() {
        let l: SkipList<i64, String> = SkipList::new();
        assert!(l.is_empty());
        l.insert(5, "five".into()).unwrap();
        l.insert(1, "one".into()).unwrap();
        l.insert(9, "nine".into()).unwrap();
        assert_eq!(l.len(), 3);
        assert_eq!(l.get(&5).unwrap(), "five");
        assert_eq!(l.get(&1).unwrap(), "one");
        assert!(l.get(&7).is_none());
    }

    #[test]
    fn duplicate_insert_returns_existing() {
        let l: SkipList<i64, i64> = SkipList::new();
        l.insert(1, 100).unwrap();
        match l.insert(1, 200) {
            Err(existing) => assert_eq!(*existing, 100),
            Ok(_) => panic!("duplicate accepted"),
        }
        assert_eq!(l.len(), 1);
    }

    #[test]
    fn iteration_is_sorted() {
        let l: SkipList<i64, ()> = SkipList::new();
        let keys = [42, 7, 99, 1, 55, 23, 68, 3];
        for k in keys {
            l.insert(k, ()).unwrap();
        }
        let got: Vec<i64> = l.iter().map(|(k, _)| *k).collect();
        let mut want = keys.to_vec();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn range_iteration_from_key() {
        let l: SkipList<i64, ()> = SkipList::new();
        for k in 0..100 {
            l.insert(k * 2, ()).unwrap(); // evens
        }
        // Start at 51 (absent): first yielded is 52.
        let got: Vec<i64> = l.iter_from(Some(&51)).take(3).map(|(k, _)| *k).collect();
        assert_eq!(got, vec![52, 54, 56]);
        // Start at an existing key.
        let got: Vec<i64> = l.iter_from(Some(&50)).take(2).map(|(k, _)| *k).collect();
        assert_eq!(got, vec![50, 52]);
    }

    #[test]
    fn matches_btreemap_model() {
        let l: SkipList<i64, i64> = SkipList::new();
        let mut model = BTreeMap::new();
        let mut x = 12345u64;
        for _ in 0..2000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let k = (x % 500) as i64;
            let v = x as i64;
            if l.insert(k, v).is_ok() {
                model.insert(k, v);
            }
        }
        assert_eq!(l.len(), model.len());
        let got: Vec<(i64, i64)> = l.iter().map(|(k, v)| (*k, *v)).collect();
        let want: Vec<(i64, i64)> = model.into_iter().collect();
        assert_eq!(got, want);
    }

    #[test]
    fn concurrent_inserts_distinct_keys() {
        let l: Arc<SkipList<i64, i64>> = Arc::new(SkipList::new());
        let threads = 8;
        let per = 2000;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let l = Arc::clone(&l);
                std::thread::spawn(move || {
                    for i in 0..per {
                        let k = (i * threads + t) as i64;
                        l.insert(k, k * 10).unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(l.len(), (threads * per) as usize);
        // Every key present, order intact.
        let keys: Vec<i64> = l.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys.len(), (threads * per) as usize);
        assert!(keys.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(*l.get(&12345).unwrap(), 123450);
    }

    #[test]
    fn concurrent_inserts_contended_keys() {
        // All threads fight over the same small key space; exactly one
        // winner per key.
        let l: Arc<SkipList<i64, usize>> = Arc::new(SkipList::new());
        let threads = 8;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let l = Arc::clone(&l);
                std::thread::spawn(move || {
                    let mut wins = 0;
                    for k in 0..1000i64 {
                        if l.insert(k, t).is_ok() {
                            wins += 1;
                        }
                    }
                    wins
                })
            })
            .collect();
        let total_wins: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(total_wins, 1000);
        assert_eq!(l.len(), 1000);
        let keys: Vec<i64> = l.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, (0..1000).collect::<Vec<_>>());
    }

    /// Threads race `get_or_insert_with` over overlapping keys, each value
    /// a fresh `Arc`: every key ends with one node, every thread got that
    /// node's value back for it, and every value a losing thread made was
    /// dropped with its unlinked node.
    #[test]
    fn racing_get_or_insert_with_keeps_one_value_a_key() {
        const KEYS: i64 = 500;
        let l: Arc<SkipList<i64, Arc<usize>>> = Arc::new(SkipList::new());
        let start = Arc::new(std::sync::Barrier::new(4));
        let handles: Vec<_> = (0..4usize)
            .map(|t| {
                let (l, start) = (Arc::clone(&l), Arc::clone(&start));
                std::thread::spawn(move || {
                    start.wait();
                    // Two threads walk up, two down: every key is contended.
                    let keys: Vec<i64> = match t % 2 {
                        0 => (0..KEYS).collect(),
                        _ => (0..KEYS).rev().collect(),
                    };
                    let mut got = BTreeMap::new();
                    for k in keys {
                        let v = l.get_or_insert_with(k, || Arc::new(t));
                        got.insert(k, Arc::as_ptr(v) as usize);
                    }
                    got
                })
            })
            .collect();
        let seen: Vec<BTreeMap<i64, usize>> =
            handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(l.len(), KEYS as usize);
        let keys: Vec<i64> = l.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, (0..KEYS).collect::<Vec<_>>());
        for (k, v) in l.iter() {
            // The list's `Arc` is the only one left: no loser's copy lives.
            assert_eq!(Arc::strong_count(v), 1, "key {k}");
            for got in &seen {
                assert_eq!(got[k], Arc::as_ptr(v) as usize, "key {k}");
            }
        }
        // A present key is found, and `make` is not called.
        let kept = Arc::as_ptr(l.get(&7).unwrap());
        let again = l.get_or_insert_with(7, || panic!("made a value for a present key"));
        assert_eq!(Arc::as_ptr(again), kept);
    }

    #[test]
    fn concurrent_readers_during_inserts() {
        let l: Arc<SkipList<i64, i64>> = Arc::new(SkipList::new());
        let writer = {
            let l = Arc::clone(&l);
            std::thread::spawn(move || {
                for k in 0..20000i64 {
                    l.insert(k, k).unwrap();
                }
            })
        };
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let l = Arc::clone(&l);
                std::thread::spawn(move || {
                    let mut seen = 0usize;
                    for _ in 0..50 {
                        // Iteration must always be sorted, never crash.
                        let keys: Vec<i64> = l.iter().map(|(k, _)| *k).collect();
                        assert!(keys.windows(2).all(|w| w[0] < w[1]));
                        seen = seen.max(keys.len());
                    }
                    seen
                })
            })
            .collect();
        writer.join().unwrap();
        for r in readers {
            r.join().unwrap();
        }
        assert_eq!(l.len(), 20000);
    }

    #[test]
    fn string_keys() {
        let l: SkipList<String, i32> = SkipList::new();
        l.insert("banana".into(), 2).unwrap();
        l.insert("apple".into(), 1).unwrap();
        l.insert("cherry".into(), 3).unwrap();
        let got: Vec<String> = l.iter().map(|(k, _)| k.clone()).collect();
        assert_eq!(got, vec!["apple", "banana", "cherry"]);
    }

    /// A key or value that counts its drops in `drops[id]`; keys compare
    /// by `key`.
    #[derive(Debug)]
    struct Dropped {
        id: usize,
        key: i64,
        drops: Arc<Vec<AtomicUsize>>,
    }
    impl Drop for Dropped {
        fn drop(&mut self) {
            self.drops[self.id].fetch_add(1, Ordering::Relaxed);
        }
    }
    impl PartialEq for Dropped {
        fn eq(&self, other: &Self) -> bool {
            self.key == other.key
        }
    }
    impl Eq for Dropped {}
    impl PartialOrd for Dropped {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for Dropped {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            self.key.cmp(&other.key)
        }
    }

    /// Hands out [`Dropped`]s with fresh ids, and checks that each was
    /// dropped exactly once.
    struct Tally {
        next: AtomicUsize,
        drops: Arc<Vec<AtomicUsize>>,
    }
    impl Tally {
        fn new(most: usize) -> Self {
            Tally {
                next: AtomicUsize::new(0),
                drops: Arc::new((0..most).map(|_| AtomicUsize::new(0)).collect()),
            }
        }
        fn make(&self, key: i64) -> Dropped {
            Dropped {
                id: self.next.fetch_add(1, Ordering::Relaxed),
                key,
                drops: Arc::clone(&self.drops),
            }
        }
        /// How many were made, after asserting each was dropped once.
        fn each_dropped_once(&self) -> usize {
            let made = self.next.load(Ordering::Relaxed);
            for (id, drops) in self.drops[..made].iter().enumerate() {
                assert_eq!(drops.load(Ordering::Relaxed), 1, "object {id}");
            }
            made
        }
    }

    /// Every node of every height, linked on both paths — appended at the
    /// tail and searched into the middle — has its key and value dropped
    /// exactly once when the list drops, and so has the key and value of an
    /// insert that loses a race; the list's arena takes no block until the
    /// first insert.
    #[test]
    fn drop_frees_everything() {
        let empty: SkipList<i64, i64> = SkipList::new();
        assert_eq!(empty.arena.blocks(), 0, "an empty list holds a block");
        empty.insert(1, 1).unwrap();
        assert_eq!(empty.arena.blocks(), 1);

        for round in 0..4i64 {
            let tally = Tally::new(1_000);
            let l: SkipList<Dropped, (Dropped, Vec<u8>)> = SkipList::new();
            let mut keys = 0;
            // Odd keys in order (the append path), then even keys, which
            // land between them (the search), every height on each.
            for parity in [1, 0] {
                for k in 0..200i64 {
                    let height = 1 + (k + round) as usize % MAX_HEIGHT;
                    let key = tally.make(2 * k + parity);
                    let (_, linked) = l.link(key, height, || (tally.make(-1), vec![0u8; 64]));
                    assert!(linked);
                    keys += 1;
                }
            }
            // A present key builds nothing, and its key is dropped at once.
            let again = l.link(tally.make(7), MAX_HEIGHT, || unreachable!());
            assert!(!again.1);
            assert_eq!(l.len(), keys);
            let got: Vec<i64> = l.iter().map(|(k, _)| k.key).collect();
            assert_eq!(got, (0..keys as i64).collect::<Vec<_>>());
            drop(l);
            assert_eq!(tally.each_dropped_once(), 2 * keys + 1);
        }

        // An insert that loses the race for its key after building its
        // node: while it makes its value, another thread links the same key
        // — above every key (the append path) and between two (the search).
        // Its level-0 CAS then fails, the search finds the winner, and the
        // loser's key and value are dropped there and then.
        let tally = Tally::new(100);
        let l: SkipList<Dropped, Dropped> = SkipList::new();
        for k in [10, 30] {
            l.insert(tally.make(k), tally.make(k)).unwrap();
        }
        for k in [40, 20] {
            let (made_tx, made_rx) = std::sync::mpsc::channel();
            let (won_tx, won_rx) = std::sync::mpsc::channel();
            let (l, tally) = (&l, &tally);
            std::thread::scope(|s| {
                s.spawn(move || {
                    made_rx.recv().unwrap();
                    let winner = l.insert(tally.make(k), tally.make(k));
                    won_tx.send(winner.unwrap().id).unwrap();
                });
                let mut lost = None;
                let got = l.get_or_insert_with(tally.make(k), || {
                    made_tx.send(()).unwrap();
                    let value = tally.make(k);
                    lost = Some((won_rx.recv().unwrap(), value.id));
                    value
                });
                let (winner, loser) = lost.expect("the value was made");
                assert_eq!(got.id, winner, "key {k}");
                assert_eq!(tally.drops[loser].load(Ordering::Relaxed), 1, "key {k}");
            });
        }
        assert_eq!(l.len(), 4);
        drop(l);
        assert_eq!(tally.each_dropped_once(), 12);
    }

    thread_local! {
        static COMPARES: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    }

    /// A key that counts, per thread, every comparison made of it.
    #[derive(Debug, Clone, Copy)]
    struct Counted(i64);
    impl PartialEq for Counted {
        fn eq(&self, other: &Self) -> bool {
            self.cmp(other) == std::cmp::Ordering::Equal
        }
    }
    impl Eq for Counted {}
    impl PartialOrd for Counted {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for Counted {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            COMPARES.with(|c| c.set(c.get() + 1));
            self.0.cmp(&other.0)
        }
    }

    fn compares(f: impl FnOnce()) -> usize {
        let before = COMPARES.with(|c| c.get());
        f();
        COMPARES.with(|c| c.get()) - before
    }

    /// Keys inserted in ascending order take the append path: about one
    /// comparison a key (the level-0 tail's, plus a taller node's upper
    /// tails where they differ from it). A search from the head costs at
    /// least log₂ N, as the lookups of the same keys show.
    #[test]
    fn ascending_inserts_compare_about_once_a_key() {
        const N: i64 = 4096;
        let l: SkipList<Counted, i64> = SkipList::new();
        let inserted = compares(|| {
            for k in 0..N {
                l.insert(Counted(k), k).unwrap();
            }
        });
        let looked_up = compares(|| {
            for k in 0..N {
                assert_eq!(l.get(&Counted(k)), Some(&k));
            }
        });
        assert!(
            inserted < 2 * N as usize,
            "{inserted} compares for {N} appends"
        );
        assert!(
            looked_up >= 12 * N as usize,
            "{looked_up} compares for {N} lookups"
        );
        // A key below the tail takes the search, and still lands in order.
        l.insert(Counted(-1), -1).unwrap();
        assert!(l.insert(Counted(N - 1), 0).is_err());
        let keys: Vec<i64> = l.iter().map(|(k, _)| k.0).collect();
        assert_eq!(keys, (-1..N).collect::<Vec<_>>());
    }

    /// Threads append interleaved ascending keys — each the tail when it
    /// arrives, each thread's finger stale whenever another has just
    /// appended — and every thread also races the next thread for its key
    /// and re-inserts its own, a duplicate of the current tail. The list
    /// ends as a `BTreeMap` of the winners would: every key once, in order,
    /// holding the value of the one insert that answered `Ok`.
    #[test]
    fn racing_appends_keep_one_value_a_key() {
        const KEYS: i64 = 6000;
        for threads in [2i64, 3, 4] {
            let l: Arc<SkipList<i64, i64>> = Arc::new(SkipList::new());
            let start = Arc::new(std::sync::Barrier::new(threads as usize));
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let (l, start) = (Arc::clone(&l), Arc::clone(&start));
                    std::thread::spawn(move || {
                        start.wait();
                        let mut won = BTreeMap::new();
                        for k in (t..KEYS).step_by(threads as usize) {
                            for key in [k, k + 1, k] {
                                let value = key * 10 + t;
                                if key < KEYS && l.insert(key, value).is_ok() {
                                    assert!(won.insert(key, value).is_none(), "key {key} twice");
                                }
                            }
                        }
                        won
                    })
                })
                .collect();
            let mut model = BTreeMap::new();
            for h in handles {
                for (k, v) in h.join().unwrap() {
                    assert!(model.insert(k, v).is_none(), "key {k} won by two threads");
                }
            }
            assert_eq!(model.len(), KEYS as usize, "{threads} threads");
            assert_eq!(l.len(), model.len(), "{threads} threads");
            let got: Vec<(i64, i64)> = l.iter().map(|(k, v)| (*k, *v)).collect();
            assert_eq!(
                got,
                model.into_iter().collect::<Vec<_>>(),
                "{threads} threads"
            );
        }
    }
}
