//! What a key costs the allocator when it lands in a COLUMN table's delta:
//! its key `Row` and its version chain, nothing more — the skip-list node
//! comes from the list's arena and the chain holds its first version
//! inline. The oracle is a counting `#[global_allocator]` that shares no
//! code with the engine.

use oltapdb::common::{Row, Value};
use oltapdb::core::Database;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The system allocator, counting the requests made on threads that
/// switched counting on.
struct Counting;

static REQUESTS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn note() {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        REQUESTS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every call is forwarded to `System` unchanged; the counter only
// observes them.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        unsafe { System.realloc(p, layout, new_size) }
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        unsafe { System.dealloc(p, layout) };
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The allocator requests `f` makes on this thread.
fn requests(f: impl FnOnce()) -> usize {
    let before = REQUESTS.load(Ordering::Relaxed);
    COUNTING.with(|c| c.set(true));
    f();
    COUNTING.with(|c| c.set(false));
    REQUESTS.load(Ordering::Relaxed) - before
}

const KEYS: usize = 10_000;

/// 10 000 rows inserted into a COLUMN table's delta in one transaction,
/// each row built before counting: two requests a key (the key `Row` the
/// skip list holds and the `Arc`'d chain), plus the amortized growth of the
/// write set and the arena's blocks — under 1 % more.
#[test]
fn a_delta_key_costs_two_allocations_beyond_its_row() {
    let db = Database::new();
    db.execute(
        "CREATE TABLE t (a BIGINT NOT NULL, b BIGINT NOT NULL, v BIGINT, \
         PRIMARY KEY (a, b)) USING FORMAT COLUMN",
    )
    .unwrap();
    let table = db.table("t").unwrap();
    let rows: Vec<Row> = (0..KEYS as i64)
        .map(|i| {
            Row::new(vec![
                Value::Int(i / 100),
                Value::Int(i % 100),
                Value::Int(i),
            ])
        })
        .collect();
    let txn = db.txn_manager().begin();
    let made = requests(|| {
        for row in rows {
            table.insert(&txn, row).unwrap();
        }
    });
    txn.commit().unwrap();
    assert_eq!(table.columns().unwrap().sizes().delta_rows, KEYS);
    assert!(
        made <= 2 * KEYS + KEYS / 100,
        "{made} allocations for {KEYS} keys ({:.2} a key)",
        made as f64 / KEYS as f64
    );
}
