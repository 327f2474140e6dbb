//! Deterministic fault injection.
//!
//! Production operational-analytics engines are defined by how they behave
//! under failure — Kudu's Raft replication, HANA's delta-merge recovery —
//! and the only way to *test* that behaviour repeatably is to make the
//! failures themselves deterministic. This module provides the substrate:
//! a [`FaultInjector`] holding a registry of **named fault points**
//! (`"wal.torn_write"`, `"raft.drop_msg"`, …) that production code probes
//! via [`FaultInjector::should_fire`] / [`FaultInjector::fire_value`].
//!
//! Determinism story: every fault point owns an independent SplitMix64
//! stream seeded with `master_seed ^ fxhash(point_name)`. Decisions at a
//! point therefore depend only on (seed, point, probe ordinal) — never on
//! wall-clock time, thread interleaving at *other* points, or HashMap
//! iteration order. A chaos run that probes a point N times makes the
//! same N decisions every run with the same seed; the [`decision log`]
//! (`FaultInjector::decisions`) lets tests assert exactly that.
//!
//! The injector is plumbed explicitly (`Arc<FaultInjector>` handles), not
//! through a process-global: the same process hosts many simulated nodes,
//! and per-node injectors are what make "crash node 2 only" expressible.
//! [`FaultInjector::disabled`] is a zero-cost default — every probe on it
//! is a single atomic load of an empty registry flag.

use crate::hash::hash_bytes;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Canonical fault-point names, so call sites and tests can't drift apart.
pub mod points {
    /// Torn WAL write: persist only a prefix of an appended record.
    pub const WAL_TORN_WRITE: &str = "wal.torn_write";
    /// Flip a byte of a WAL record *after* its CRC was computed.
    pub const WAL_CRC_CORRUPT: &str = "wal.crc_corrupt";
    /// Drop a Raft message in the transport.
    pub const RAFT_DROP_MSG: &str = "raft.drop_msg";
    /// Delay a Raft message by a bounded number of milliseconds.
    pub const RAFT_DELAY_MSG: &str = "raft.delay_msg";
    /// Deliver a Raft message twice.
    pub const RAFT_DUP_MSG: &str = "raft.dup_msg";
    /// Kill a node's event loop (crash without warning).
    pub const RAFT_CRASH_NODE: &str = "raft.crash_node";
    /// Abort a delta→main merge partway through.
    pub const MERGE_ABORT: &str = "merge.abort";
    /// Fail a scatter-gather partition read.
    pub const SCAN_PARTITION_FAIL: &str = "scan.partition_fail";
    /// Fail a morsel dispatch in the parallel executor; the worker retries
    /// the boundary a bounded number of times before surfacing an error.
    pub const EXEC_MORSEL_FAIL: &str = "exec.morsel_fail";
    /// Fail a morsel of the partitioned hash-join build; the worker
    /// retries the boundary like [`EXEC_MORSEL_FAIL`].
    pub const EXEC_JOIN_BUILD_FAIL: &str = "exec.join_build_fail";
    /// Panic at the start of a morsel, on whichever thread claimed it: the
    /// statement must end with a typed `Execution` error, never unwind the
    /// session's thread, and leave the worker pool serving.
    pub const EXEC_MORSEL_PANIC: &str = "exec.morsel_panic";
    /// Fail a [`crate::mem::MemoryBudget`] reservation as if the pool
    /// were exhausted; operators must degrade (spill) or surface a typed
    /// `ResourceExhausted`, never panic.
    pub const MEM_RESERVE_FAIL: &str = "mem.reserve_fail";
    /// Crash the 2PC coordinator after at least one participant prepared
    /// but before the decision is logged — the classic in-doubt window.
    pub const TWOPC_COORD_CRASH_AFTER_PREPARE: &str = "twopc.coord_crash_after_prepare";
    /// Crash the 2PC coordinator after its decision is durably logged but
    /// before every participant learned it.
    pub const TWOPC_COORD_CRASH_AFTER_DECISION: &str = "twopc.coord_crash_after_decision";
    /// Kill a participant replica's event loop right after it applies a
    /// PREPARE (prepared-but-undecided state held across the crash).
    pub const TWOPC_PARTICIPANT_CRASH_PREPARED: &str = "twopc.participant_crash_prepared";
    /// Drop a COMMIT/ABORT decision message to a participant; the
    /// coordinator must retry until every shard has the decision.
    pub const TWOPC_DECISION_MSG_DROP: &str = "twopc.decision_msg_drop";
    /// Fail a follower-side Raft snapshot installation; the leader retries
    /// and, where the entries are still in its log, falls back to plain
    /// log replication.
    pub const RAFT_SNAPSHOT_INSTALL_FAIL: &str = "raft.snapshot_install_fail";
    /// Corrupt a column-page read from a segment page file (one payload
    /// byte flipped *after* the page checksum was computed). The buffer
    /// manager's CRC verification must catch it and surface a typed
    /// `Corruption` error — never a panic, never silent bad data.
    pub const STORAGE_PAGE_READ_FAIL: &str = "storage.page_read_fail";
    /// Simulate an eviction race in the buffer pool: the clock hand's
    /// chosen victim looks unpinned, but a concurrent pin lands before
    /// the eviction completes. The evictor must re-check under the lock,
    /// skip the frame, and keep searching (or surface a typed
    /// `ResourceExhausted` when nothing evictable remains).
    pub const BUFFER_EVICT_RACE: &str = "buffer.evict_race";

    /// Forces the fused operate-on-compressed aggregate kernels to take
    /// the scalar decode-then-evaluate fallback at a row-group boundary.
    /// Fired per (segment, row group); fused and fallback paths must
    /// produce byte-identical results, which the chaos suite asserts.
    pub const EXEC_KERNEL_FALLBACK: &str = "exec.kernel_fallback";

    /// Crash the background freeze pass *after* the frozen replacement
    /// segment's page file was published (tmp+rename) but *before* the
    /// in-memory swap. The table must keep serving the old representation
    /// unchanged — never a torn mix — and the orphaned page file must be
    /// reclaimed (Drop on the unpublished segment, purge-at-open after a
    /// real crash).
    pub const STORAGE_FREEZE_CRASH: &str = "storage.freeze_crash";

    /// Crash the coalesce step of a maintenance pass after the rewrite of a
    /// run of segments is built (its page file published) but before the
    /// swap. The old run must keep serving bit-identically, and the
    /// unpublished rewrite's page file must go with it.
    pub const STORAGE_COALESCE_CRASH: &str = "storage.coalesce_crash";

    /// Fail an accepted connection before its session starts (as if the
    /// accept syscall or the initial socket setup failed). The accept loop
    /// must drop that one connection and keep serving; the client sees a
    /// reset and retries with backoff.
    pub const NET_ACCEPT_FAIL: &str = "net.accept_fail";
    /// Tear a wire-protocol frame mid-read: the reader observes a
    /// truncated or corrupted payload. CRC verification must catch it and
    /// surface a typed `Corruption` — never a hang, never garbage rows.
    pub const NET_READ_TORN: &str = "net.read_torn";
    /// Write only a prefix of a response frame, then fail the connection.
    /// The peer must detect the torn frame (short read / CRC mismatch)
    /// and the server must release every resource the dead connection
    /// held (admission tickets, governor bytes, open transactions).
    pub const NET_WRITE_PARTIAL: &str = "net.write_partial";
    /// Drop the connection abruptly while a query is in flight (after the
    /// request was read, before its response is written). Open
    /// transactions must roll back; no admission ticket or governor byte
    /// may leak.
    pub const NET_CONN_DROP_MID_QUERY: &str = "net.conn_drop_mid_query";
}

/// Configuration of one named fault point.
#[derive(Debug, Clone)]
pub struct FaultPoint {
    /// Probability in `[0, 1]` that an armed probe fires.
    pub probability: f64,
    /// Remaining number of times the point may fire; `None` = unlimited.
    pub remaining: Option<u64>,
    /// Number of initial probes to let pass before arming (lets a scenario
    /// say "fail the 5th append, not the 1st").
    pub arm_after: u64,
}

impl FaultPoint {
    /// A point that fires on every armed probe.
    pub fn always() -> Self {
        FaultPoint {
            probability: 1.0,
            remaining: None,
            arm_after: 0,
        }
    }

    /// A point that fires exactly `n` times, then disarms.
    pub fn times(n: u64) -> Self {
        FaultPoint {
            probability: 1.0,
            remaining: Some(n),
            arm_after: 0,
        }
    }

    /// A point that fires with probability `p` on each probe.
    pub fn with_probability(p: f64) -> Self {
        FaultPoint {
            probability: p,
            remaining: None,
            arm_after: 0,
        }
    }

    /// Skips the first `n` probes before arming.
    pub fn after(mut self, n: u64) -> Self {
        self.arm_after = n;
        self
    }

    /// Caps the number of firings.
    pub fn limit(mut self, n: u64) -> Self {
        self.remaining = Some(n);
        self
    }
}

/// One recorded probe decision, for reproducibility assertions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Decision {
    /// The fault point probed.
    pub point: &'static str,
    /// Probe ordinal at that point (0-based).
    pub probe: u64,
    /// Whether the fault fired.
    pub fired: bool,
}

/// Deterministic SplitMix64 stream; one per fault point.
#[derive(Debug)]
struct PointState {
    cfg: FaultPoint,
    rng_state: u64,
    probes: u64,
    fired: u64,
}

impl PointState {
    fn next_u64(&mut self) -> u64 {
        self.rng_state = self.rng_state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.rng_state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// A seeded registry of named fault points. Cheap to probe when empty;
/// deterministic when armed. See the module docs for the seeding scheme.
#[derive(Debug)]
pub struct FaultInjector {
    seed: u64,
    /// Fast path: true iff no point has ever been armed.
    empty: AtomicBool,
    /// BTreeMap so Debug output and iteration are deterministic too.
    points: Mutex<BTreeMap<&'static str, PointState>>,
    decisions: Mutex<Vec<Decision>>,
    total_fired: AtomicU64,
}

impl FaultInjector {
    /// A seeded injector with no points armed yet.
    pub fn new(seed: u64) -> Arc<FaultInjector> {
        Arc::new(FaultInjector {
            seed,
            empty: AtomicBool::new(true),
            points: Mutex::new(BTreeMap::new()),
            decisions: Mutex::new(Vec::new()),
            total_fired: AtomicU64::new(0),
        })
    }

    /// The inert injector production code uses by default: every probe is
    /// one relaxed atomic load.
    pub fn disabled() -> Arc<FaultInjector> {
        FaultInjector::new(0)
    }

    /// The master seed this injector was built with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Arms (or re-arms) a named fault point.
    pub fn arm(&self, point: &'static str, cfg: FaultPoint) {
        let mut points = self.points.lock().unwrap_or_else(PoisonError::into_inner);
        points.insert(
            point,
            PointState {
                cfg,
                // Independent stream per point: decisions at one point are
                // unaffected by probe counts at any other.
                rng_state: self.seed ^ hash_bytes(point.as_bytes()),
                probes: 0,
                fired: 0,
            },
        );
        self.empty.store(false, Ordering::Release);
    }

    /// Disarms a point; later probes never fire.
    pub fn disarm(&self, point: &'static str) {
        let mut points = self.points.lock().unwrap_or_else(PoisonError::into_inner);
        points.remove(point);
        if points.is_empty() {
            self.empty.store(true, Ordering::Release);
        }
    }

    /// Probes `point`; true means the caller should inject its fault.
    pub fn should_fire(&self, point: &'static str) -> bool {
        self.fire_value(point).is_some()
    }

    /// Probes `point`; on fire, returns a deterministic payload u64 the
    /// caller can use to parameterize the fault (byte offset to tear at,
    /// milliseconds to delay, …). `None` means proceed normally.
    pub fn fire_value(&self, point: &'static str) -> Option<u64> {
        if self.empty.load(Ordering::Acquire) {
            return None;
        }
        let mut points = self.points.lock().unwrap_or_else(PoisonError::into_inner);
        let st = points.get_mut(point)?;
        let probe = st.probes;
        st.probes += 1;
        let armed = probe >= st.cfg.arm_after && st.cfg.remaining.is_none_or(|r| r > st.fired);
        let fired = armed && st.next_f64() < st.cfg.probability;
        let payload = if fired { Some(st.next_u64()) } else { None };
        if fired {
            st.fired += 1;
        }
        drop(points);
        self.decisions
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(Decision {
                point,
                probe,
                fired,
            });
        if fired {
            self.total_fired.fetch_add(1, Ordering::Relaxed);
        }
        payload
    }

    /// Full decision log, in probe order (global order across points is
    /// only meaningful for single-threaded schedules; per-point order is
    /// always meaningful).
    pub fn decisions(&self) -> Vec<Decision> {
        self.decisions
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Decision log filtered to one point (deterministic for any schedule).
    pub fn decisions_at(&self, point: &'static str) -> Vec<Decision> {
        self.decisions()
            .into_iter()
            .filter(|d| d.point == point)
            .collect()
    }

    /// Total faults fired across all points.
    pub fn fired_count(&self) -> u64 {
        self.total_fired.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_injector_never_fires() {
        let f = FaultInjector::disabled();
        for _ in 0..1000 {
            assert!(!f.should_fire(points::WAL_TORN_WRITE));
        }
        assert!(f.decisions().is_empty(), "disabled probes are not logged");
    }

    #[test]
    fn always_fires_until_disarmed() {
        let f = FaultInjector::new(1);
        f.arm(points::MERGE_ABORT, FaultPoint::always());
        assert!(f.should_fire(points::MERGE_ABORT));
        f.disarm(points::MERGE_ABORT);
        assert!(!f.should_fire(points::MERGE_ABORT));
    }

    #[test]
    fn times_limits_firings() {
        let f = FaultInjector::new(2);
        f.arm(points::RAFT_DROP_MSG, FaultPoint::times(3));
        let fired = (0..10).filter(|_| f.should_fire(points::RAFT_DROP_MSG)).count();
        assert_eq!(fired, 3);
        // The first three probes fire, the rest pass.
        let log = f.decisions_at(points::RAFT_DROP_MSG);
        assert!(log[..3].iter().all(|d| d.fired));
        assert!(log[3..].iter().all(|d| !d.fired));
    }

    #[test]
    fn arm_after_skips_initial_probes() {
        let f = FaultInjector::new(3);
        f.arm(points::WAL_TORN_WRITE, FaultPoint::always().after(2).limit(1));
        let fired: Vec<bool> = (0..5).map(|_| f.should_fire(points::WAL_TORN_WRITE)).collect();
        assert_eq!(fired, vec![false, false, true, false, false]);
    }

    #[test]
    fn same_seed_same_schedule() {
        let run = |seed: u64| {
            let f = FaultInjector::new(seed);
            f.arm(points::RAFT_DROP_MSG, FaultPoint::with_probability(0.3));
            f.arm(points::RAFT_DELAY_MSG, FaultPoint::with_probability(0.5));
            for _ in 0..200 {
                f.fire_value(points::RAFT_DROP_MSG);
                f.fire_value(points::RAFT_DELAY_MSG);
            }
            f.decisions()
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43), "different seeds diverge");
    }

    #[test]
    fn points_have_independent_streams() {
        // Probing point A must not change point B's decisions.
        let solo = {
            let f = FaultInjector::new(7);
            f.arm(points::RAFT_DROP_MSG, FaultPoint::with_probability(0.5));
            (0..100).map(|_| f.should_fire(points::RAFT_DROP_MSG)).collect::<Vec<_>>()
        };
        let interleaved = {
            let f = FaultInjector::new(7);
            f.arm(points::RAFT_DROP_MSG, FaultPoint::with_probability(0.5));
            f.arm(points::RAFT_DELAY_MSG, FaultPoint::with_probability(0.5));
            (0..100)
                .map(|_| {
                    f.should_fire(points::RAFT_DELAY_MSG);
                    f.should_fire(points::RAFT_DROP_MSG)
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(solo, interleaved);
    }

    #[test]
    fn fire_value_payload_is_deterministic() {
        let payloads = |seed| {
            let f = FaultInjector::new(seed);
            f.arm(points::WAL_TORN_WRITE, FaultPoint::always());
            (0..10).filter_map(|_| f.fire_value(points::WAL_TORN_WRITE)).collect::<Vec<_>>()
        };
        assert_eq!(payloads(9), payloads(9));
    }
}
