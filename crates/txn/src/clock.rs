//! The global logical clock issuing begin/commit timestamps.

use std::sync::atomic::{AtomicU64, Ordering};

/// A logical timestamp. Commit timestamps are strictly increasing; a
/// snapshot with `read_ts = t` sees exactly the effects of transactions
/// that committed with timestamp `≤ t`.
pub type Ts = u64;

/// The zero timestamp (nothing committed yet). Bootstrap/loaded data is
/// stamped `TS_ZERO` so it is visible to every snapshot.
pub const TS_ZERO: Ts = 0;

/// A monotonically increasing logical clock.
///
/// One `Clock` instance is shared by the transaction manager; everything
/// else receives timestamps, never the clock itself.
#[derive(Debug)]
pub struct Clock {
    now: AtomicU64,
}

impl Default for Clock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock {
    /// A clock starting at [`TS_ZERO`].
    pub fn new() -> Self {
        Clock {
            now: AtomicU64::new(TS_ZERO),
        }
    }

    /// Current timestamp (the latest issued commit timestamp).
    #[inline]
    pub fn now(&self) -> Ts {
        self.now.load(Ordering::SeqCst)
    }

    /// Issues the next commit timestamp (strictly greater than all
    /// previously issued ones).
    #[inline]
    pub fn tick(&self) -> Ts {
        self.now.fetch_add(1, Ordering::SeqCst) + 1
    }

    /// Advances the clock to at least `ts` (used when replaying a log or
    /// receiving a remote timestamp).
    pub fn advance_to(&self, ts: Ts) {
        self.now.fetch_max(ts, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn tick_is_strictly_increasing() {
        let c = Clock::new();
        let a = c.tick();
        let b = c.tick();
        assert!(b > a);
        assert_eq!(c.now(), b);
    }

    #[test]
    fn advance_never_goes_backwards() {
        let c = Clock::new();
        c.advance_to(100);
        assert_eq!(c.now(), 100);
        c.advance_to(50);
        assert_eq!(c.now(), 100);
        assert_eq!(c.tick(), 101);
    }

    #[test]
    fn concurrent_ticks_are_unique() {
        let c = Arc::new(Clock::new());
        let mut handles = Vec::new();
        for _ in 0..8 {
            let c = Arc::clone(&c);
            handles.push(std::thread::spawn(move || {
                (0..1000).map(|_| c.tick()).collect::<Vec<_>>()
            }));
        }
        let mut all: Vec<Ts> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 8000);
    }
}
