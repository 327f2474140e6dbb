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
//! The `unsafe` blocks are confined to dereferencing node pointers, justified
//! by the no-reclamation invariant above.

use std::marker::PhantomData;
use std::ptr;
use std::sync::atomic::{AtomicPtr, AtomicU64, AtomicUsize, Ordering};

const MAX_HEIGHT: usize = 16;

struct Node<K, V> {
    /// `None` only for the head sentinel (conceptually -infinity).
    key: Option<K>,
    value: Option<V>,
    next: Vec<AtomicPtr<Node<K, V>>>,
}

impl<K, V> Node<K, V> {
    fn new(key: K, value: V, height: usize) -> Box<Self> {
        Box::new(Node {
            key: Some(key),
            value: Some(value),
            next: (0..height).map(|_| AtomicPtr::new(ptr::null_mut())).collect(),
        })
    }

    fn head() -> Box<Self> {
        Box::new(Node {
            key: None,
            value: None,
            next: (0..MAX_HEIGHT)
                .map(|_| AtomicPtr::new(ptr::null_mut()))
                .collect(),
        })
    }
}

/// A concurrent ordered map with lock-free reads and inserts and no
/// physical deletion (see module docs).
pub struct SkipList<K, V> {
    head: *mut Node<K, V>,
    len: AtomicUsize,
    rng: AtomicU64,
    _marker: PhantomData<(K, V)>,
}

// Safety: all shared-state mutation goes through atomics; nodes are never
// freed while the list is shared (only in Drop, which requires exclusive
// access).
unsafe impl<K: Send + Sync, V: Send + Sync> Send for SkipList<K, V> {}
unsafe impl<K: Send + Sync, V: Send + Sync> Sync for SkipList<K, V> {}

impl<K: Ord, V> Default for SkipList<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Ord, V> SkipList<K, V> {
    /// An empty list.
    pub fn new() -> Self {
        SkipList {
            head: Box::into_raw(Node::head()),
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
            // Safety: pred is head or a published node; never freed.
            let mut curr = unsafe { (&*pred).next[level].load(Ordering::Acquire) };
            loop {
                if curr.is_null() {
                    break;
                }
                let curr_key = unsafe { (&*curr).key.as_ref().unwrap() };
                if curr_key < key {
                    pred = curr;
                    curr = unsafe { (&*pred).next[level].load(Ordering::Acquire) };
                } else {
                    break;
                }
            }
            preds[level] = pred;
            succs[level] = curr;
        }
        let found = !succs[0].is_null()
            && unsafe { (&*succs[0]).key.as_ref().unwrap() } == key;
        found
    }

    /// Looks up `key`, returning a reference to its value.
    ///
    /// The reference is valid for the lifetime of the list borrow because
    /// nodes and their values are never dropped while the list is alive.
    pub fn get(&self, key: &K) -> Option<&V> {
        let mut pred = self.head;
        for level in (0..MAX_HEIGHT).rev() {
            let mut curr = unsafe { (&*pred).next[level].load(Ordering::Acquire) };
            while !curr.is_null() {
                let curr_key = unsafe { (&*curr).key.as_ref().unwrap() };
                match curr_key.cmp(key) {
                    std::cmp::Ordering::Less => {
                        pred = curr;
                        curr = unsafe { (&*pred).next[level].load(Ordering::Acquire) };
                    }
                    std::cmp::Ordering::Equal => {
                        return unsafe { (&*curr).value.as_ref() };
                    }
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
        match self.link(key, || value) {
            (stored, true) => Ok(stored),
            (existing, false) => Err(existing),
        }
    }

    /// The value under `key`, made by `make` and inserted when the key is
    /// absent: one search when it is present, and the node (with the value
    /// `make` builds) only when it is not. Of threads racing to insert the
    /// same key, one links its node and every other gets that node's value.
    pub fn get_or_insert_with(&self, key: K, make: impl FnOnce() -> V) -> &V {
        self.link(key, make).0
    }

    /// The value under `key`, linking a node of `key → make()` first when
    /// the key is absent; true when this call linked it.
    fn link(&self, key: K, make: impl FnOnce() -> V) -> (&V, bool) {
        let mut preds = [ptr::null_mut(); MAX_HEIGHT];
        let mut succs = [ptr::null_mut(); MAX_HEIGHT];
        if self.find(&key, &mut preds, &mut succs) {
            // SAFETY: `find` found a published node there, and published
            // nodes are freed only when the list drops.
            return (unsafe { (&*succs[0]).value.as_ref().unwrap() }, false);
        }

        let height = self.random_height();
        let node = Box::into_raw(Node::new(key, make(), height));
        // SAFETY (every dereference below): `node` is this call's own
        // allocation, unshared until the level-0 CAS publishes it and never
        // freed after; `preds` and `succs` hold the head or published nodes,
        // which live as long as the list.
        loop {
            // Point the new node at the current successors.
            for (level, &succ) in succs.iter().enumerate().take(height) {
                unsafe { (&*node).next[level].store(succ, Ordering::Relaxed) };
            }
            // Publish at level 0; this is the linearization point.
            let pred0 = preds[0];
            match unsafe {
                (&*pred0).next[0].compare_exchange(
                    succs[0],
                    node,
                    Ordering::Release,
                    Ordering::Acquire,
                )
            } {
                Ok(_) => break,
                Err(_) => {
                    // Contention: re-find. The key may now exist.
                    let node_key = unsafe { (&*node).key.as_ref().unwrap() };
                    if self.find(node_key, &mut preds, &mut succs) {
                        // Reclaim the unpublished node: no other thread ever
                        // saw it.
                        let existing = succs[0];
                        unsafe { drop(Box::from_raw(node)) };
                        return (unsafe { (&*existing).value.as_ref().unwrap() }, false);
                    }
                }
            }
        }

        // Link upper levels; retry each against fresh predecessors.
        for level in 1..height {
            loop {
                let pred = preds[level];
                let succ = succs[level];
                unsafe { (&*node).next[level].store(succ, Ordering::Relaxed) };
                let ok = unsafe {
                    (&*pred).next[level]
                        .compare_exchange(succ, node, Ordering::Release, Ordering::Acquire)
                        .is_ok()
                };
                if ok {
                    break;
                }
                let node_key = unsafe { (&*node).key.as_ref().unwrap() };
                self.find(node_key, &mut preds, &mut succs);
                // If someone linked a *different* node with our key we would
                // have seen it before level-0 publication; from here on the
                // found node at level 0 is ourselves, so just retry.
            }
        }

        self.len.fetch_add(1, Ordering::Relaxed);
        (unsafe { (&*node).value.as_ref().unwrap() }, true)
    }

    /// Iterates entries in key order, starting at the first key ≥ `start`
    /// (or the beginning when `start` is `None`).
    pub fn iter_from(&self, start: Option<&K>) -> Iter<'_, K, V> {
        let first = match start {
            None => unsafe { (&*self.head).next[0].load(Ordering::Acquire) },
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
        // Exclusive access: free the level-0 chain (which owns every node).
        let mut curr = unsafe { (&*self.head).next[0].load(Ordering::Relaxed) };
        while !curr.is_null() {
            let next = unsafe { (&*curr).next[0].load(Ordering::Relaxed) };
            unsafe { drop(Box::from_raw(curr)) };
            curr = next;
        }
        unsafe { drop(Box::from_raw(self.head)) };
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
        // Safety: nodes live as long as the list borrow `'a`.
        let node = unsafe { &*self.curr };
        self.curr = node.next[0].load(Ordering::Acquire);
        Some((node.key.as_ref().unwrap(), node.value.as_ref().unwrap()))
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

    #[test]
    fn drop_frees_everything() {
        // Smoke test under miri-like scrutiny: building and dropping a
        // large list must not leak or double-free (exercised by the
        // allocator in debug builds).
        for _ in 0..10 {
            let l: SkipList<i64, Vec<u8>> = SkipList::new();
            for k in 0..1000 {
                l.insert(k, vec![0u8; 64]).unwrap();
            }
        }
    }
}
