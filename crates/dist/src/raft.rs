//! A simplified Raft consensus implementation for partition replication.
//!
//! Kudu — the storage engine the tutorial pairs with Impala for OLTAP over
//! data lakes (§3, \[24\]) — "distributes data using horizontal partitioning
//! and replicates each partition using Raft consensus". This module
//! implements the Raft core that design needs, from scratch:
//!
//! * randomized election timeouts, terms, and majority voting
//!   (election safety: at most one leader per term);
//! * log replication with the `prevLogIndex`/`prevLogTerm` consistency
//!   check (the Log Matching property);
//! * commitment by majority `matchIndex`, restricted to entries of the
//!   leader's current term (figure 8 rule);
//! * crash/restart of nodes with retained persistent state, and link
//!   failure injection for partition tests;
//! * log compaction by threshold: once the retained log exceeds
//!   [`RaftConfig::snapshot_threshold`] entries, the node snapshots its
//!   state machine and truncates the applied prefix. A restarted node
//!   recovers from snapshot + log tail instead of full replay, and a
//!   leader whose log no longer reaches a slow follower ships the
//!   snapshot over the wire (`InstallSnapshot`);
//! * leader leases: a leader that heard from a majority within one
//!   election-timeout minimum knows no disjoint majority can have elected
//!   a successor, so its `commit_index` is safe to serve for local reads
//!   ([`NodeReport::lease_valid`]).
//!
//! **Substitution:** nodes are threads and the transport is in-process
//! channels with injectable link failures — the protocol logic is real,
//! only the wire is simulated (see DESIGN.md).
//!
//! Scope cuts relative to full Raft: no membership changes, no pre-vote.
//! These are orthogonal to what the experiments exercise.

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use oltap_common::fault::{points, FaultInjector};
use oltap_common::hash::FxHashMap;
use oltap_common::ids::NodeId;
use oltap_common::{DbError, Result};
use parking_lot::{Mutex, RwLock};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A replicated command (opaque bytes; the cluster layer serializes rows).
pub type Command = Vec<u8>;

/// One log entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogEntry {
    /// Term in which the entry was created.
    pub term: u64,
    /// The command payload.
    pub command: Command,
}

/// Raft role.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Passive replica.
    Follower,
    /// Election in progress.
    Candidate,
    /// The (unique, per term) leader.
    Leader,
}

/// Messages exchanged between peers.
#[derive(Debug, Clone)]
enum Rpc {
    RequestVote {
        term: u64,
        candidate: NodeId,
        last_log_index: u64,
        last_log_term: u64,
    },
    VoteResponse {
        term: u64,
        granted: bool,
    },
    AppendEntries {
        term: u64,
        leader: NodeId,
        prev_log_index: u64,
        prev_log_term: u64,
        entries: Vec<LogEntry>,
        leader_commit: u64,
    },
    AppendResponse {
        term: u64,
        from: NodeId,
        success: bool,
        match_index: u64,
    },
    /// Leader → follower: the follower's `next_index` fell behind the
    /// leader's compacted log, so the leader ships its whole snapshot.
    InstallSnapshot {
        term: u64,
        leader: NodeId,
        /// Index of the last entry covered by the snapshot.
        last_index: u64,
        /// Term of that entry.
        last_term: u64,
        /// Opaque state-machine snapshot ([`StateMachine::snapshot`]).
        data: Vec<u8>,
    },
    /// Follower → leader: outcome of an install. A failed install
    /// (`raft.snapshot_install_fail`) is retried at the next heartbeat,
    /// not immediately — the follower meanwhile keeps answering
    /// AppendEntries, so entries still present in the leader's log reach
    /// it through ordinary replication (the log-replay fallback).
    InstallResponse {
        term: u64,
        from: NodeId,
        success: bool,
        /// The snapshot index this responds to (0 on a term mismatch).
        last_index: u64,
    },
}

/// Everything a node's event loop can receive, in one channel: peer RPCs
/// and local control messages. Merging them lets the loop block on exactly
/// one receiver with `recv_timeout` — the election/heartbeat timer is the
/// timeout — instead of a multi-channel select.
enum Event {
    /// An RPC from a peer, tagged with the sender.
    Rpc(NodeId, Rpc),
    /// Client proposal (answered once committed, or failed on deposal).
    Propose {
        command: Command,
        reply: Sender<Result<u64>>,
    },
    /// State snapshot request.
    Inspect(Sender<NodeReport>),
    /// Shut the loop down.
    Stop,
}

/// A point-in-time view of a node, for tests and diagnostics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeReport {
    /// Node id.
    pub id: NodeId,
    /// Current term.
    pub term: u64,
    /// Current role.
    pub role: Role,
    /// Highest committed index.
    pub commit_index: u64,
    /// Highest index applied to the state machine (by replay, or folded in
    /// by an installed snapshot).
    pub last_applied: u64,
    /// Retained log *tail* — entries after `snap_index` (the full log
    /// when no snapshot has been taken).
    pub log: Vec<LogEntry>,
    /// Index of the last entry folded into the snapshot (0 = none).
    pub snap_index: u64,
    /// Term of that entry.
    pub snap_term: u64,
    /// Where this boot started applying from: the snapshot index at
    /// startup. A node that recovered from a snapshot has
    /// `replay_base > 0` — it replayed only the tail, not the full log.
    pub replay_base: u64,
    /// Entries applied since this boot (replay-length instrumentation:
    /// recovery cost ≈ `applied_since_boot`, not `commit_index`).
    pub applied_since_boot: u64,
    /// Snapshots this boot has taken (threshold compactions).
    pub snapshots_taken: u64,
    /// Leader lease: true iff this node is leader *and* heard from a
    /// majority within one `election_min` window, so no disjoint majority
    /// can have elected a successor — local reads at `commit_index` are
    /// linearizable without a quorum round-trip.
    pub lease_valid: bool,
}

/// Durable state that survives a simulated crash.
#[derive(Debug, Default)]
struct PersistentState {
    current_term: u64,
    voted_for: Option<NodeId>,
    /// Entries *after* `snap_index`: `log[k]` has global index
    /// `snap_index + k + 1` (so with no snapshot, `log[0]` is index 1).
    log: Vec<LogEntry>,
    /// Last log index folded into the snapshot (0 = no snapshot).
    snap_index: u64,
    /// Term of the entry at `snap_index`.
    snap_term: u64,
    /// The state-machine snapshot covering indices `1..=snap_index`.
    snap_data: Vec<u8>,
}

impl PersistentState {
    /// Global index of the last log entry (compacted or retained).
    fn last_index(&self) -> u64 {
        self.snap_index + self.log.len() as u64
    }

    /// Term of the last log entry.
    fn last_term(&self) -> u64 {
        self.log.last().map(|e| e.term).unwrap_or(self.snap_term)
    }

    /// Term of the entry at global `index`; `None` if compacted away
    /// (below the snapshot) or beyond the end of the log.
    fn term_at(&self, index: u64) -> Option<u64> {
        if index == self.snap_index {
            Some(self.snap_term) // index 0 ⇒ term 0 when no snapshot
        } else if index < self.snap_index {
            None
        } else {
            self.log.get((index - self.snap_index - 1) as usize).map(|e| e.term)
        }
    }

    /// The entry at global `index`, if retained.
    fn entry_at(&self, index: u64) -> Option<&LogEntry> {
        if index <= self.snap_index {
            None
        } else {
            self.log.get((index - self.snap_index - 1) as usize)
        }
    }
}

/// The in-process "wire" between nodes. The network owns the *topology*
/// faults — partitions cut links deterministically — while probabilistic
/// message-level faults (drop/delay/duplicate) live in the
/// [`LossyTransport`] wrapped around it.
pub struct Network {
    senders: RwLock<FxHashMap<NodeId, Sender<Event>>>,
    /// Links currently down, as (from, to) pairs (directional).
    down: RwLock<oltap_common::hash::FxHashSet<(NodeId, NodeId)>>,
}

impl Default for Network {
    fn default() -> Self {
        Self::new()
    }
}

impl Network {
    /// An empty network.
    pub fn new() -> Self {
        Network {
            senders: RwLock::new(FxHashMap::default()),
            down: RwLock::new(Default::default()),
        }
    }

    fn register(&self, id: NodeId, tx: Sender<Event>) {
        self.senders.write().insert(id, tx);
    }

    fn send(&self, from: NodeId, to: NodeId, msg: Rpc) {
        if self.down.read().contains(&(from, to)) {
            return; // dropped on the floor, like a real partition
        }
        if let Some(tx) = self.senders.read().get(&to) {
            let _ = tx.send(Event::Rpc(from, msg));
        }
    }

    /// Cuts both directions between `a` and `b`.
    pub fn cut(&self, a: NodeId, b: NodeId) {
        let mut down = self.down.write();
        down.insert((a, b));
        down.insert((b, a));
    }

    /// Restores both directions between `a` and `b`.
    pub fn heal(&self, a: NodeId, b: NodeId) {
        let mut down = self.down.write();
        down.remove(&(a, b));
        down.remove(&(b, a));
    }

    /// Isolates `n` from every peer.
    pub fn isolate(&self, n: NodeId, peers: &[NodeId]) {
        for &p in peers {
            if p != n {
                self.cut(n, p);
            }
        }
    }

    /// Reconnects `n` to every peer.
    pub fn reconnect(&self, n: NodeId, peers: &[NodeId]) {
        for &p in peers {
            if p != n {
                self.heal(n, p);
            }
        }
    }
}

/// A message queued for delayed delivery by the [`LossyTransport`] pump.
struct DelayedMsg {
    due: Instant,
    from: NodeId,
    to: NodeId,
    msg: Rpc,
}

/// Commands to the delay-pump thread.
enum PumpMsg {
    Deliver(DelayedMsg),
    Stop,
}

/// A fault-injecting wrapper around the [`Network`]: consults a
/// [`FaultInjector`] on every outgoing message and may **drop**
/// (`raft.drop_msg`), **duplicate** (`raft.dup_msg`), or **delay**
/// (`raft.delay_msg`) it. Delayed messages are re-delivered by a single
/// lazily-spawned pump thread, which also yields *reordering*: a delayed
/// message overtakes nothing, but everything sent after it overtakes *it*.
///
/// Each node owns its transport (wrapping the shared network), so
/// per-node injectors can express asymmetric faults ("node 2's messages
/// are lossy, the rest are fine") and keep decision streams deterministic
/// per sender.
pub struct LossyTransport {
    network: Arc<Network>,
    faults: Arc<FaultInjector>,
    /// Upper bound on one injected delay.
    max_delay: Duration,
    pump: Mutex<Option<(Sender<PumpMsg>, JoinHandle<()>)>>,
}

impl LossyTransport {
    /// A transport with no faults armed — the production default; probes
    /// cost one atomic load.
    pub fn passthrough(network: Arc<Network>) -> Arc<LossyTransport> {
        Self::new(network, FaultInjector::disabled())
    }

    /// A transport consulting `faults` on every send.
    pub fn new(network: Arc<Network>, faults: Arc<FaultInjector>) -> Arc<LossyTransport> {
        Arc::new(LossyTransport {
            network,
            faults,
            max_delay: Duration::from_millis(40),
            pump: Mutex::new(None),
        })
    }

    /// The injector this transport consults.
    pub fn faults(&self) -> &Arc<FaultInjector> {
        &self.faults
    }

    fn send(&self, from: NodeId, to: NodeId, msg: Rpc) {
        if self.faults.should_fire(points::RAFT_DROP_MSG) {
            return; // lost on the wire
        }
        let dup = self.faults.should_fire(points::RAFT_DUP_MSG);
        if let Some(v) = self.faults.fire_value(points::RAFT_DELAY_MSG) {
            let delay = Duration::from_millis(v % self.max_delay.as_millis() as u64 + 1);
            self.enqueue_delayed(DelayedMsg {
                due: Instant::now() + delay,
                from,
                to,
                msg: msg.clone(),
            });
            if dup {
                self.network.send(from, to, msg);
            }
            return;
        }
        self.network.send(from, to, msg.clone());
        if dup {
            self.network.send(from, to, msg);
        }
    }

    fn enqueue_delayed(&self, dm: DelayedMsg) {
        let mut pump = self.pump.lock();
        if pump.is_none() {
            let (tx, rx) = unbounded::<PumpMsg>();
            let network = Arc::clone(&self.network);
            let handle = std::thread::Builder::new()
                .name("raft-delay-pump".into())
                .spawn(move || Self::run_pump(network, rx))
                .expect("spawn delay pump");
            *pump = Some((tx, handle));
        }
        let _ = pump.as_ref().expect("pump just installed").0.send(PumpMsg::Deliver(dm));
    }

    fn run_pump(network: Arc<Network>, rx: Receiver<PumpMsg>) {
        // A Vec with linear min-scan: injected delays are rare and short,
        // so the queue stays tiny.
        let mut queue: Vec<DelayedMsg> = Vec::new();
        loop {
            let now = Instant::now();
            // Deliver everything due.
            let mut i = 0;
            while i < queue.len() {
                if queue[i].due <= now {
                    let dm = queue.swap_remove(i);
                    network.send(dm.from, dm.to, dm.msg);
                } else {
                    i += 1;
                }
            }
            let wait = queue
                .iter()
                .map(|d| d.due.saturating_duration_since(now))
                .min()
                .unwrap_or(Duration::from_secs(3600));
            match rx.recv_timeout(wait) {
                Ok(PumpMsg::Deliver(dm)) => queue.push(dm),
                Ok(PumpMsg::Stop) | Err(RecvTimeoutError::Disconnected) => return,
                Err(RecvTimeoutError::Timeout) => {} // loop delivers due msgs
            }
        }
    }
}

impl Drop for LossyTransport {
    fn drop(&mut self) {
        if let Some((tx, handle)) = self.pump.lock().take() {
            let _ = tx.send(PumpMsg::Stop);
            let _ = handle.join();
        }
    }
}

/// Timing configuration (scaled down for fast in-process tests).
#[derive(Debug, Clone, Copy)]
pub struct RaftConfig {
    /// Election timeout lower bound.
    pub election_min: Duration,
    /// Election timeout upper bound.
    pub election_max: Duration,
    /// Leader heartbeat interval.
    pub heartbeat: Duration,
    /// Compact the log once it retains this many entries: snapshot the
    /// state machine and truncate the applied prefix. `None` (the
    /// default) never compacts — the pre-compaction behavior.
    pub snapshot_threshold: Option<usize>,
}

impl Default for RaftConfig {
    fn default() -> Self {
        RaftConfig {
            election_min: Duration::from_millis(75),
            election_max: Duration::from_millis(150),
            heartbeat: Duration::from_millis(25),
            snapshot_threshold: None,
        }
    }
}

/// Callback invoked with each committed command, in log order.
pub type ApplyFn = Arc<dyn Fn(u64, &Command) + Send + Sync>;

/// The replicated state machine a node drives: `apply` consumes committed
/// commands in log order; `snapshot`/`restore` serialize the full state for
/// log compaction and `InstallSnapshot`. The worker thread is the only
/// caller of all three, so `snapshot()` observes the state exactly at
/// `last_applied` — no coordination needed.
#[derive(Clone)]
pub struct StateMachine {
    /// Committed-command callback (index, payload), in log order.
    pub apply: ApplyFn,
    /// Serializes the current state (everything applied so far).
    pub snapshot: SnapshotFn,
    /// Replaces the state wholesale with a serialized snapshot.
    pub restore: RestoreFn,
}

/// Serializer for a [`StateMachine`]'s full state.
pub type SnapshotFn = Arc<dyn Fn() -> Vec<u8> + Send + Sync>;

/// Wholesale state replacement from a serialized snapshot.
pub type RestoreFn = Arc<dyn Fn(&[u8]) + Send + Sync>;

impl StateMachine {
    /// A machine with no snapshot support (empty snapshots, no-op
    /// restore) — only sound with `snapshot_threshold: None`.
    pub fn apply_only(apply: ApplyFn) -> StateMachine {
        StateMachine {
            apply,
            snapshot: Arc::new(Vec::new),
            restore: Arc::new(|_| {}),
        }
    }
}

/// A handle to a running Raft node.
pub struct RaftNode {
    id: NodeId,
    control: Mutex<Sender<Event>>,
    running: Arc<AtomicBool>,
    thread: Mutex<Option<JoinHandle<()>>>,
    // Retained for crash/restart.
    persistent: Arc<Mutex<PersistentState>>,
    network: Arc<Network>,
    transport: Arc<LossyTransport>,
    faults: Arc<FaultInjector>,
    peers: Vec<NodeId>,
    config: RaftConfig,
    machine: StateMachine,
    /// Cooperative crash trigger: set (e.g. from inside the apply
    /// callback) to make the event loop die before its next event,
    /// exactly like `raft.crash_node`. Lets a state machine crash "its
    /// own" node at a precise apply point (2PC participant chaos).
    kill_switch: Arc<AtomicBool>,
    event_rx_holder: Mutex<Option<Receiver<Event>>>,
}

impl RaftNode {
    /// Spawns a node with fresh persistent state and no faults armed.
    pub fn spawn(
        id: NodeId,
        peers: Vec<NodeId>,
        network: Arc<Network>,
        config: RaftConfig,
        apply: ApplyFn,
    ) -> Arc<RaftNode> {
        Self::spawn_with_faults(id, peers, network, config, apply, FaultInjector::disabled())
    }

    /// Spawns a node whose outgoing transport and event loop consult
    /// `faults` (`raft.drop_msg`, `raft.delay_msg`, `raft.dup_msg`,
    /// `raft.crash_node`). No snapshot support; pair with
    /// `snapshot_threshold: None`.
    pub fn spawn_with_faults(
        id: NodeId,
        peers: Vec<NodeId>,
        network: Arc<Network>,
        config: RaftConfig,
        apply: ApplyFn,
        faults: Arc<FaultInjector>,
    ) -> Arc<RaftNode> {
        Self::spawn_with_machine(
            id,
            peers,
            network,
            config,
            StateMachine::apply_only(apply),
            faults,
        )
    }

    /// Spawns a node over a full [`StateMachine`] (snapshot-capable).
    pub fn spawn_with_machine(
        id: NodeId,
        peers: Vec<NodeId>,
        network: Arc<Network>,
        config: RaftConfig,
        machine: StateMachine,
        faults: Arc<FaultInjector>,
    ) -> Arc<RaftNode> {
        let persistent = Arc::new(Mutex::new(PersistentState::default()));
        let (event_tx, event_rx) = unbounded();
        network.register(id, event_tx.clone());
        let transport = LossyTransport::new(Arc::clone(&network), Arc::clone(&faults));
        let node = Arc::new(RaftNode {
            id,
            control: Mutex::new(event_tx),
            running: Arc::new(AtomicBool::new(true)),
            thread: Mutex::new(None),
            persistent,
            network,
            transport,
            faults,
            peers,
            config,
            machine,
            kill_switch: Arc::new(AtomicBool::new(false)),
            event_rx_holder: Mutex::new(Some(event_rx)),
        });
        node.start_thread();
        node
    }

    fn start_thread(self: &Arc<Self>) {
        let event_rx = self.event_rx_holder.lock().take().expect("event rx");
        let worker = Worker {
            id: self.id,
            peers: self.peers.clone(),
            transport: Arc::clone(&self.transport),
            faults: Arc::clone(&self.faults),
            config: self.config,
            persistent: Arc::clone(&self.persistent),
            machine: self.machine.clone(),
            running: Arc::clone(&self.running),
            kill_switch: Arc::clone(&self.kill_switch),
        };
        let handle = std::thread::Builder::new()
            .name(format!("raft-{}", self.id))
            .spawn(move || worker.run(event_rx))
            .expect("spawn raft node");
        *self.thread.lock() = Some(handle);
    }

    /// The node id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Proposes a command; succeeds (with its log index) only on the
    /// current leader.
    pub fn propose(&self, command: Command) -> Result<u64> {
        let (tx, rx) = unbounded();
        self.control
            .lock()
            .send(Event::Propose { command, reply: tx })
            .map_err(|_| DbError::Cluster("node stopped".into()))?;
        rx.recv_timeout(Duration::from_secs(5))
            .map_err(|_| DbError::Cluster("propose timed out".into()))?
    }

    /// Snapshot of the node's state.
    pub fn report(&self) -> Option<NodeReport> {
        let (tx, rx) = unbounded();
        self.control.lock().send(Event::Inspect(tx)).ok()?;
        rx.recv_timeout(Duration::from_secs(2)).ok()
    }

    /// The fault injector wired into this node's transport and loop.
    pub fn faults(&self) -> &Arc<FaultInjector> {
        &self.faults
    }

    /// The cooperative crash trigger: set it to `true` to kill the event
    /// loop before its next event (persistent state retained, like
    /// `raft.crash_node`). Handed to apply callbacks that need to crash
    /// their own node at a precise point.
    pub fn kill_switch(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.kill_switch)
    }

    /// Simulated crash: the event loop stops; persistent state is kept.
    pub fn crash(&self) {
        self.running.store(false, Ordering::SeqCst);
        let _ = self.control.lock().send(Event::Stop);
        if let Some(h) = self.thread.lock().take() {
            let _ = h.join();
        }
    }

    /// Restart after a crash, resuming from persistent state.
    pub fn restart(self: &Arc<Self>) {
        if self.running.swap(true, Ordering::SeqCst) {
            return; // already running
        }
        let (event_tx, event_rx) = unbounded();
        self.network.register(self.id, event_tx.clone());
        // Safety of replacing control: old sender becomes stale; propose()
        // uses the new one.
        // (Interior mutability via unsafe is avoided by storing in Mutexes.)
        *self.event_rx_holder.lock() = Some(event_rx);
        *self.control.lock() = event_tx;
        self.start_thread();
    }

    /// Whether the node's event loop is running.
    pub fn is_running(&self) -> bool {
        self.running.load(Ordering::SeqCst)
    }
}

impl Drop for RaftNode {
    fn drop(&mut self) {
        self.running.store(false, Ordering::SeqCst);
        let _ = self.control.lock().send(Event::Stop);
        if let Some(h) = self.thread.lock().take() {
            let _ = h.join();
        }
    }
}

struct Worker {
    id: NodeId,
    peers: Vec<NodeId>,
    transport: Arc<LossyTransport>,
    faults: Arc<FaultInjector>,
    config: RaftConfig,
    persistent: Arc<Mutex<PersistentState>>,
    machine: StateMachine,
    running: Arc<AtomicBool>,
    kill_switch: Arc<AtomicBool>,
}

struct VolatileLeader {
    next_index: FxHashMap<NodeId, u64>,
    match_index: FxHashMap<NodeId, u64>,
    /// Lease ack time per peer. A response to our Append/Install proves
    /// the follower reset its election timer — but the no-election
    /// promise began when the follower *received* our request, so the
    /// lease must be measured from no later than when the request was
    /// sent. Timestamping at response receipt would stretch the lease by
    /// the response's transport delay and let a deposed leader serve a
    /// stale read as linearizable.
    acks: FxHashMap<NodeId, Instant>,
    /// Send time of the oldest outstanding (unanswered) Append/Install
    /// to each peer; adopted into `acks` when a response arrives.
    /// Keeping the *oldest* send is conservative: the response may be to
    /// any outstanding request, and an earlier timestamp only shortens
    /// the lease.
    pending_since: FxHashMap<NodeId, Instant>,
}

impl VolatileLeader {
    fn new() -> Self {
        VolatileLeader {
            next_index: FxHashMap::default(),
            match_index: FxHashMap::default(),
            acks: FxHashMap::default(),
            pending_since: FxHashMap::default(),
        }
    }

    /// Records a response from `from`: the follower's promise covers at
    /// least the window starting at our oldest outstanding send to it.
    fn ack_from_send_time(&mut self, from: NodeId) {
        if let Some(sent) = self.pending_since.remove(&from) {
            self.acks.insert(from, sent);
        }
    }
}

/// Per-boot volatile node state, threaded through the event loop.
struct Volatile {
    role: Role,
    votes: usize,
    commit_index: u64,
    last_applied: u64,
    leader_state: Option<VolatileLeader>,
    deadline: Instant,
    /// Snapshot index at boot — where replay started (instrumentation).
    replay_base: u64,
    /// Entries applied since boot (replay-length instrumentation).
    applied_since_boot: u64,
    /// Threshold compactions performed this boot.
    snapshots_taken: u64,
}

impl Worker {
    fn run(self, event_rx: Receiver<Event>) {
        let mut rng = StdRng::seed_from_u64(self.id.raw().wrapping_mul(0x9E3779B97F4A7C15) | 1);
        // Boot: if a snapshot was taken before the crash, restore the
        // state machine from it and start applying at the tail — this is
        // the snapshot-plus-tail recovery path (vs. full log replay).
        let boot_snap = {
            let p = self.persistent.lock();
            if p.snap_index > 0 {
                (self.machine.restore)(&p.snap_data);
            }
            p.snap_index
        };
        let mut v = Volatile {
            role: Role::Follower,
            votes: 0,
            commit_index: boot_snap,
            last_applied: boot_snap,
            leader_state: None,
            deadline: Instant::now() + self.random_timeout(&mut rng),
            replay_base: boot_snap,
            applied_since_boot: 0,
            snapshots_taken: 0,
        };
        let mut pending_replies: Vec<(u64, Sender<Result<u64>>)> = Vec::new();

        loop {
            if !self.running.load(Ordering::SeqCst) {
                return;
            }
            // Injected crash: the node dies between events, exactly like a
            // kill -9 — nothing is flushed, persistent state is whatever
            // was already "on disk". The kill switch is the same death,
            // triggered by the state machine (apply-point crashes).
            if self.faults.should_fire(points::RAFT_CRASH_NODE)
                || self.kill_switch.swap(false, Ordering::SeqCst)
            {
                self.running.store(false, Ordering::SeqCst);
                return;
            }
            // Block on the single event channel; the election/heartbeat
            // timer doubles as the receive timeout.
            let now = Instant::now();
            let timeout = v.deadline.saturating_duration_since(now);
            match event_rx.recv_timeout(timeout) {
                Ok(Event::Rpc(from, rpc)) => {
                    self.handle_rpc(from, rpc, &mut v, &mut rng);
                }
                Ok(Event::Propose { command, reply }) => {
                    if v.role == Role::Leader {
                        let index = {
                            let mut p = self.persistent.lock();
                            let term = p.current_term;
                            p.log.push(LogEntry { term, command });
                            p.last_index()
                        };
                        pending_replies.push((index, reply));
                        self.broadcast_append(&mut v.leader_state, v.commit_index);
                    } else {
                        let _ = reply.send(Err(DbError::Cluster("not the leader".into())));
                    }
                }
                Ok(Event::Inspect(tx)) => {
                    let lease_valid = v.role == Role::Leader
                        && v.leader_state
                            .as_ref()
                            .map(|ls| {
                                let now = Instant::now();
                                let fresh = ls
                                    .acks
                                    .values()
                                    .filter(|&&t| {
                                        now.saturating_duration_since(t) < self.config.election_min
                                    })
                                    .count();
                                fresh + 1 > self.peers.len() / 2
                            })
                            .unwrap_or(false);
                    let p = self.persistent.lock();
                    let _ = tx.send(NodeReport {
                        id: self.id,
                        term: p.current_term,
                        role: v.role,
                        commit_index: v.commit_index,
                        last_applied: v.last_applied,
                        log: p.log.clone(),
                        snap_index: p.snap_index,
                        snap_term: p.snap_term,
                        replay_base: v.replay_base,
                        applied_since_boot: v.applied_since_boot,
                        snapshots_taken: v.snapshots_taken,
                        lease_valid,
                    });
                }
                Ok(Event::Stop) | Err(RecvTimeoutError::Disconnected) => return,
                Err(RecvTimeoutError::Timeout) => {
                    // Timer fired.
                    match v.role {
                        Role::Leader => {
                            self.broadcast_append(&mut v.leader_state, v.commit_index);
                            v.deadline = Instant::now() + self.config.heartbeat;
                        }
                        _ => {
                            // Start (or restart) an election.
                            v.role = Role::Candidate;
                            let (term, lli, llt) = {
                                let mut p = self.persistent.lock();
                                p.current_term += 1;
                                p.voted_for = Some(self.id);
                                (p.current_term, p.last_index(), p.last_term())
                            };
                            v.votes = 1;
                            for &peer in &self.peers {
                                if peer != self.id {
                                    self.transport.send(self.id, peer, Rpc::RequestVote {
                                        term,
                                        candidate: self.id,
                                        last_log_index: lli,
                                        last_log_term: llt,
                                    });
                                }
                            }
                            v.deadline = Instant::now() + self.random_timeout(&mut rng);
                        }
                    }
                }
            }

            // Become leader on majority.
            if v.role == Role::Candidate && v.votes > self.peers.len() / 2 {
                v.role = Role::Leader;
                // Append a no-op entry in the new term so entries from
                // previous terms become committable immediately (the
                // figure-8 commit rule otherwise delays them until the
                // next client proposal).
                let last = {
                    let mut p = self.persistent.lock();
                    let term = p.current_term;
                    p.log.push(LogEntry {
                        term,
                        command: Vec::new(),
                    });
                    p.last_index() - 1
                };
                let mut ls = VolatileLeader::new();
                for &p in &self.peers {
                    if p != self.id {
                        ls.next_index.insert(p, last + 1);
                        ls.match_index.insert(p, 0);
                    }
                }
                v.leader_state = Some(ls);
                self.broadcast_append(&mut v.leader_state, v.commit_index);
                v.deadline = Instant::now() + self.config.heartbeat;
            }

            // Leader: advance the commit index by majority match.
            if v.role == Role::Leader {
                if let Some(ls) = &v.leader_state {
                    let p = self.persistent.lock();
                    let mut candidates: Vec<u64> = ls.match_index.values().copied().collect();
                    candidates.push(p.last_index()); // self
                    candidates.sort_unstable();
                    // Majority = the (n/2)-th from the top.
                    let majority_idx = candidates[candidates.len() / 2
                        - if candidates.len().is_multiple_of(2) { 1 } else { 0 }];
                    // Figure-8 rule: only commit entries of the current term.
                    if majority_idx > v.commit_index
                        && p.term_at(majority_idx) == Some(p.current_term)
                    {
                        v.commit_index = majority_idx;
                    }
                }
            }

            // Apply newly committed entries and answer proposers.
            if v.commit_index > v.last_applied {
                let p = self.persistent.lock();
                for idx in v.last_applied + 1..=v.commit_index {
                    if let Some(e) = p.entry_at(idx) {
                        (self.machine.apply)(idx, &e.command);
                        v.applied_since_boot += 1;
                    }
                }
                drop(p);
                v.last_applied = v.commit_index;
                pending_replies.retain(|(idx, tx)| {
                    if *idx <= v.commit_index {
                        let _ = tx.send(Ok(*idx));
                        false
                    } else {
                        true
                    }
                });
            }

            // Threshold compaction: the retained log has grown past the
            // configured bound and there is applied state to fold in.
            // The worker is the sole applier, so `machine.snapshot()` is
            // exactly the state at `last_applied`.
            if let Some(threshold) = self.config.snapshot_threshold {
                let mut p = self.persistent.lock();
                if p.log.len() >= threshold && v.last_applied > p.snap_index {
                    let data = (self.machine.snapshot)();
                    let keep = (v.last_applied - p.snap_index) as usize;
                    let new_term = p.term_at(v.last_applied).unwrap_or(p.snap_term);
                    p.log.drain(..keep);
                    p.snap_index = v.last_applied;
                    p.snap_term = new_term;
                    p.snap_data = data;
                    v.snapshots_taken += 1;
                }
            }

            // A deposed leader must fail its pending proposals.
            if v.role != Role::Leader && !pending_replies.is_empty() {
                for (_, tx) in pending_replies.drain(..) {
                    let _ = tx.send(Err(DbError::Cluster("leadership lost".into())));
                }
            }
        }
    }

    fn random_timeout(&self, rng: &mut StdRng) -> Duration {
        let min = self.config.election_min.as_millis() as u64;
        let max = self.config.election_max.as_millis() as u64;
        Duration::from_millis(rng.gen_range(min..=max))
    }

    fn handle_rpc(&self, _from: NodeId, rpc: Rpc, v: &mut Volatile, rng: &mut StdRng) {
        match rpc {
            Rpc::RequestVote {
                term,
                candidate,
                last_log_index,
                last_log_term,
            } => {
                let mut p = self.persistent.lock();
                if term > p.current_term {
                    p.current_term = term;
                    p.voted_for = None;
                    v.role = Role::Follower;
                    v.leader_state = None;
                }
                let my_llt = p.last_term();
                let my_lli = p.last_index();
                let log_ok = last_log_term > my_llt
                    || (last_log_term == my_llt && last_log_index >= my_lli);
                let granted = term == p.current_term
                    && log_ok
                    && (p.voted_for.is_none() || p.voted_for == Some(candidate));
                if granted {
                    p.voted_for = Some(candidate);
                    v.deadline = Instant::now() + self.random_timeout(rng);
                }
                let reply_term = p.current_term;
                drop(p);
                self.transport.send(
                    self.id,
                    candidate,
                    Rpc::VoteResponse {
                        term: reply_term,
                        granted,
                    },
                );
            }
            Rpc::VoteResponse { term, granted } => {
                let mut p = self.persistent.lock();
                if term > p.current_term {
                    p.current_term = term;
                    p.voted_for = None;
                    drop(p);
                    v.role = Role::Follower;
                    v.leader_state = None;
                    return;
                }
                drop(p);
                if v.role == Role::Candidate && granted {
                    v.votes += 1;
                }
            }
            Rpc::AppendEntries {
                term,
                leader,
                mut prev_log_index,
                mut prev_log_term,
                mut entries,
                leader_commit,
            } => {
                let mut p = self.persistent.lock();
                if term > p.current_term {
                    p.current_term = term;
                    p.voted_for = None;
                }
                let success;
                let mut match_index = 0;
                if term < p.current_term {
                    success = false;
                } else {
                    // Valid leader for this term.
                    v.role = Role::Follower;
                    v.leader_state = None;
                    v.deadline = Instant::now() + self.random_timeout(rng);
                    // Entries at or below our snapshot index are already
                    // committed *and applied* here; skip the covered
                    // prefix and anchor the consistency check at the
                    // snapshot boundary.
                    if prev_log_index < p.snap_index {
                        let covered = (p.snap_index - prev_log_index) as usize;
                        entries.drain(..covered.min(entries.len()));
                        prev_log_index = p.snap_index;
                        prev_log_term = p.snap_term;
                    }
                    // Consistency check (global indices; index 0 and the
                    // snapshot boundary both resolve through `term_at`).
                    let prev_ok = p.term_at(prev_log_index) == Some(prev_log_term);
                    if prev_ok {
                        // Append, truncating conflicts.
                        let mut idx = prev_log_index;
                        for e in entries {
                            let pos = (idx - p.snap_index) as usize;
                            if p.log.len() > pos {
                                if p.log[pos].term != e.term {
                                    p.log.truncate(pos);
                                    p.log.push(e);
                                }
                            } else {
                                p.log.push(e);
                            }
                            idx += 1;
                        }
                        success = true;
                        match_index = idx;
                        if leader_commit > v.commit_index {
                            v.commit_index = leader_commit.min(p.last_index());
                        }
                    } else {
                        success = false;
                    }
                }
                let reply_term = p.current_term;
                drop(p);
                self.transport.send(
                    self.id,
                    leader,
                    Rpc::AppendResponse {
                        term: reply_term,
                        from: self.id,
                        success,
                        match_index,
                    },
                );
            }
            Rpc::AppendResponse {
                term,
                from,
                success,
                match_index,
            } => {
                {
                    let mut p = self.persistent.lock();
                    if term > p.current_term {
                        p.current_term = term;
                        p.voted_for = None;
                        v.role = Role::Follower;
                        v.leader_state = None;
                        return;
                    }
                    if term < p.current_term {
                        // Stale response to a request from an older term:
                        // it proves nothing about the follower's timer in
                        // this term.
                        return;
                    }
                }
                if v.role != Role::Leader {
                    return;
                }
                if let Some(ls) = v.leader_state.as_mut() {
                    // Lease ack, measured from when the request was sent.
                    ls.ack_from_send_time(from);
                    if success {
                        ls.match_index.insert(from, match_index);
                        ls.next_index.insert(from, match_index + 1);
                    } else {
                        // Back off and retry immediately.
                        let ni = ls.next_index.entry(from).or_insert(1);
                        *ni = ni.saturating_sub(1).max(1);
                        self.send_append_to(from, ls, v.commit_index);
                    }
                }
            }
            Rpc::InstallSnapshot {
                term,
                leader,
                last_index,
                last_term,
                data,
            } => {
                let mut p = self.persistent.lock();
                if term > p.current_term {
                    p.current_term = term;
                    p.voted_for = None;
                }
                let reply_term = p.current_term;
                let mut success = false;
                let mut acked_index = 0;
                if term >= p.current_term {
                    v.role = Role::Follower;
                    v.leader_state = None;
                    v.deadline = Instant::now() + self.random_timeout(rng);
                    acked_index = last_index;
                    if self.faults.should_fire(points::RAFT_SNAPSHOT_INSTALL_FAIL) {
                        // Injected install failure. The leader retries at
                        // its next heartbeat; meanwhile ordinary
                        // AppendEntries keeps flowing (log-replay
                        // fallback for entries the leader still has).
                    } else if last_index <= v.last_applied {
                        // Stale or duplicate install: we already hold
                        // this state; just acknowledge it.
                        success = true;
                    } else {
                        // Adopt the snapshot wholesale.
                        (self.machine.restore)(&data);
                        if p.term_at(last_index) == Some(last_term) {
                            // Our log extends past the snapshot with a
                            // matching entry: retain the tail.
                            let keep = (last_index - p.snap_index) as usize;
                            p.log.drain(..keep);
                        } else {
                            p.log.clear();
                        }
                        p.snap_index = last_index;
                        p.snap_term = last_term;
                        p.snap_data = data;
                        v.commit_index = v.commit_index.max(last_index);
                        v.last_applied = last_index;
                        success = true;
                    }
                }
                drop(p);
                self.transport.send(
                    self.id,
                    leader,
                    Rpc::InstallResponse {
                        term: reply_term,
                        from: self.id,
                        success,
                        last_index: acked_index,
                    },
                );
            }
            Rpc::InstallResponse {
                term,
                from,
                success,
                last_index,
            } => {
                {
                    let mut p = self.persistent.lock();
                    if term > p.current_term {
                        p.current_term = term;
                        p.voted_for = None;
                        v.role = Role::Follower;
                        v.leader_state = None;
                        return;
                    }
                    if term < p.current_term {
                        return; // stale response from an older term
                    }
                }
                if v.role != Role::Leader {
                    return;
                }
                if let Some(ls) = v.leader_state.as_mut() {
                    // Lease ack, measured from when the install was sent.
                    ls.ack_from_send_time(from);
                    if success {
                        let m = ls.match_index.entry(from).or_insert(0);
                        *m = (*m).max(last_index);
                        let m = *m;
                        let ni = ls.next_index.entry(from).or_insert(1);
                        *ni = (*ni).max(m + 1);
                    }
                    // On failure: wait for the next heartbeat to retry
                    // (no immediate resend — avoids an install hot-loop
                    // when the fault is armed `always`).
                }
            }
        }
    }

    fn broadcast_append(&self, leader_state: &mut Option<VolatileLeader>, commit_index: u64) {
        if let Some(ls) = leader_state.as_mut() {
            let peers: Vec<NodeId> =
                self.peers.iter().copied().filter(|&p| p != self.id).collect();
            for peer in peers {
                self.send_append_to(peer, ls, commit_index);
            }
        }
    }

    fn send_append_to(&self, peer: NodeId, ls: &mut VolatileLeader, commit_index: u64) {
        // Lease bookkeeping: keep the oldest outstanding send time; a
        // later response acks a promise starting no earlier than this.
        ls.pending_since.entry(peer).or_insert_with(Instant::now);
        let p = self.persistent.lock();
        let next = *ls.next_index.get(&peer).unwrap_or(&1);
        if next <= p.snap_index {
            // The entries this follower needs were compacted away: ship
            // the snapshot instead of a log suffix.
            let msg = Rpc::InstallSnapshot {
                term: p.current_term,
                leader: self.id,
                last_index: p.snap_index,
                last_term: p.snap_term,
                data: p.snap_data.clone(),
            };
            drop(p);
            self.transport.send(self.id, peer, msg);
            return;
        }
        let prev_log_index = next - 1;
        let prev_log_term = p.term_at(prev_log_index).unwrap_or(0);
        let entries: Vec<LogEntry> = p
            .log
            .get((prev_log_index - p.snap_index) as usize..)
            .unwrap_or(&[])
            .to_vec();
        let term = p.current_term;
        drop(p);
        self.transport.send(
            self.id,
            peer,
            Rpc::AppendEntries {
                term,
                leader: self.id,
                prev_log_index,
                prev_log_term,
                entries,
                leader_commit: commit_index,
            },
        );
    }
}

/// Per-node record of applied `(index, command)` pairs.
pub type AppliedLog = Arc<Mutex<Vec<(u64, Command)>>>;

/// A snapshot-capable [`StateMachine`] over an [`AppliedLog`] sink: the
/// "state" is the list of non-empty applied commands. Snapshot/restore are
/// a simple length-prefixed encoding, so compaction and `InstallSnapshot`
/// are exercised end to end in tests without a real storage engine.
pub fn sink_machine(sink: AppliedLog) -> StateMachine {
    let apply_sink = Arc::clone(&sink);
    let snap_sink = Arc::clone(&sink);
    StateMachine {
        apply: Arc::new(move |idx, cmd: &Command| {
            // Leader no-op entries carry no command; skip them.
            if !cmd.is_empty() {
                apply_sink.lock().push((idx, cmd.clone()));
            }
        }),
        snapshot: Arc::new(move || {
            let a = snap_sink.lock();
            let mut buf = Vec::with_capacity(16 + a.len() * 16);
            buf.extend_from_slice(&(a.len() as u32).to_le_bytes());
            for (idx, cmd) in a.iter() {
                buf.extend_from_slice(&idx.to_le_bytes());
                buf.extend_from_slice(&(cmd.len() as u32).to_le_bytes());
                buf.extend_from_slice(cmd);
            }
            buf
        }),
        restore: Arc::new(move |data: &[u8]| {
            let mut out = Vec::new();
            if data.len() >= 4 {
                let n = u32::from_le_bytes(data[0..4].try_into().unwrap()) as usize;
                let mut off = 4usize;
                for _ in 0..n {
                    if data.len() < off + 12 {
                        break;
                    }
                    let idx = u64::from_le_bytes(data[off..off + 8].try_into().unwrap());
                    let len =
                        u32::from_le_bytes(data[off + 8..off + 12].try_into().unwrap()) as usize;
                    off += 12;
                    if data.len() < off + len {
                        break;
                    }
                    out.push((idx, data[off..off + len].to_vec()));
                    off += len;
                }
            }
            *sink.lock() = out;
        }),
    }
}

/// Convenience: a full Raft group with shared apply sinks, used by the
/// cluster layer and tests.
pub struct RaftGroup {
    /// The nodes (index = position in `ids`).
    pub nodes: Vec<Arc<RaftNode>>,
    /// Node ids.
    pub ids: Vec<NodeId>,
    /// The shared network (for failure injection).
    pub network: Arc<Network>,
    /// Per-node applied command logs.
    pub applied: Vec<AppliedLog>,
    /// Per-node fault injectors (disabled unless spawned via
    /// [`RaftGroup::spawn_with_faults`]).
    pub faults: Vec<Arc<FaultInjector>>,
}

impl RaftGroup {
    /// Spawns an `n`-node group with default timing and no faults armed.
    pub fn spawn(n: usize, config: RaftConfig) -> RaftGroup {
        Self::spawn_with_faults(n, config, |_| FaultInjector::disabled())
    }

    /// Spawns an `n`-node group where node `i` uses the injector returned
    /// by `make_faults(i)`. Per-node injectors keep each node's fault
    /// decision stream deterministic regardless of cross-node thread
    /// interleaving.
    pub fn spawn_with_faults(
        n: usize,
        config: RaftConfig,
        make_faults: impl Fn(usize) -> Arc<FaultInjector>,
    ) -> RaftGroup {
        let network = Arc::new(Network::new());
        let ids: Vec<NodeId> = (0..n as u64).map(NodeId).collect();
        let mut nodes = Vec::new();
        let mut applied = Vec::new();
        let mut faults = Vec::new();
        for (i, &id) in ids.iter().enumerate() {
            let sink: AppliedLog = Arc::new(Mutex::new(Vec::new()));
            let injector = make_faults(i);
            nodes.push(RaftNode::spawn_with_machine(
                id,
                ids.clone(),
                Arc::clone(&network),
                config,
                sink_machine(Arc::clone(&sink)),
                Arc::clone(&injector),
            ));
            applied.push(sink);
            faults.push(injector);
        }
        RaftGroup {
            nodes,
            ids,
            network,
            applied,
            faults,
        }
    }

    /// Waits until exactly one running node is leader, returning its
    /// index. Panics after `timeout`.
    pub fn wait_for_leader(&self, timeout: Duration) -> usize {
        let deadline = Instant::now() + timeout;
        loop {
            let leaders: Vec<usize> = self
                .nodes
                .iter()
                .enumerate()
                .filter(|(_, n)| n.is_running())
                .filter_map(|(i, n)| {
                    n.report()
                        .filter(|r| r.role == Role::Leader)
                        .map(|r| (i, r.term))
                })
                // Only the highest-term leader counts (stale leaders may
                // linger briefly on partitioned nodes).
                .max_by_key(|&(_, term)| term)
                .map(|(i, _)| vec![i])
                .unwrap_or_default();
            if let Some(&i) = leaders.first() {
                return i;
            }
            if Instant::now() > deadline {
                panic!("no leader elected within {timeout:?}");
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    /// Proposes through the current leader, retrying across elections.
    pub fn propose(&self, command: Command, timeout: Duration) -> Result<u64> {
        let deadline = Instant::now() + timeout;
        loop {
            let leader = self.wait_for_leader(deadline.saturating_duration_since(Instant::now()));
            match self.nodes[leader].propose(command.clone()) {
                Ok(idx) => return Ok(idx),
                Err(_) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(20));
                }
                Err(e) => return Err(e),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> RaftConfig {
        RaftConfig::default()
    }

    #[test]
    fn elects_exactly_one_leader() {
        let g = RaftGroup::spawn(3, cfg());
        let leader = g.wait_for_leader(Duration::from_secs(5));
        // Give the cluster a moment to settle, then check uniqueness per
        // term.
        std::thread::sleep(Duration::from_millis(200));
        let reports: Vec<NodeReport> = g.nodes.iter().filter_map(|n| n.report()).collect();
        let max_term = reports.iter().map(|r| r.term).max().unwrap();
        let leaders_at_max: Vec<&NodeReport> = reports
            .iter()
            .filter(|r| r.term == max_term && r.role == Role::Leader)
            .collect();
        assert_eq!(leaders_at_max.len(), 1, "reports: {reports:?}");
        let _ = leader;
    }

    #[test]
    fn replicates_and_commits() {
        let g = RaftGroup::spawn(3, cfg());
        for i in 0..5u8 {
            g.propose(vec![i], Duration::from_secs(5)).unwrap();
        }
        // All nodes eventually apply all 5 commands in order.
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let ok = g.applied.iter().all(|a| {
                let a = a.lock();
                a.len() == 5
                    && a.iter().map(|(_, c)| c[0]).collect::<Vec<u8>>() == vec![0, 1, 2, 3, 4]
            });
            if ok {
                break;
            }
            assert!(Instant::now() < deadline, "replication stalled: {:?}",
                g.applied.iter().map(|a| a.lock().len()).collect::<Vec<_>>());
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    #[test]
    fn follower_crash_does_not_block_commit() {
        let g = RaftGroup::spawn(3, cfg());
        let leader = g.wait_for_leader(Duration::from_secs(5));
        let follower = (leader + 1) % 3;
        g.nodes[follower].crash();
        g.propose(vec![42], Duration::from_secs(5)).unwrap();
        // Majority (2/3) suffices.
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let done = g
                .applied
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != follower)
                .all(|(_, a)| a.lock().iter().any(|(_, c)| c == &vec![42]));
            if done {
                break;
            }
            assert!(Instant::now() < deadline);
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    #[test]
    fn leader_crash_triggers_reelection_and_catchup() {
        let g = RaftGroup::spawn(3, cfg());
        g.propose(vec![1], Duration::from_secs(5)).unwrap();
        let old_leader = g.wait_for_leader(Duration::from_secs(5));
        g.nodes[old_leader].crash();
        // A new leader emerges among the remaining two.
        let deadline = Instant::now() + Duration::from_secs(10);
        let new_leader = loop {
            let candidates: Vec<usize> = g
                .nodes
                .iter()
                .enumerate()
                .filter(|(i, n)| *i != old_leader && n.is_running())
                .filter_map(|(i, n)| {
                    n.report().filter(|r| r.role == Role::Leader).map(|_| i)
                })
                .collect();
            if let Some(&l) = candidates.first() {
                break l;
            }
            assert!(Instant::now() < deadline, "no re-election");
            std::thread::sleep(Duration::from_millis(20));
        };
        g.nodes[new_leader].propose(vec![2]).unwrap();
        // Crashed node restarts and catches up. Apply state is volatile
        // (as in Raft), so the sink sees a replay; the log and commit
        // index are the ground truth to check.
        g.nodes[old_leader].restart();
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            if let Some(r) = g.nodes[old_leader].report() {
                // Ignore leader no-op entries.
                let cmds: Vec<u8> = r
                    .log
                    .iter()
                    .filter(|e| !e.command.is_empty())
                    .map(|e| e.command[0])
                    .collect();
                let last_data = r
                    .log
                    .iter()
                    .rposition(|e| !e.command.is_empty())
                    .map(|i| i as u64 + 1)
                    .unwrap_or(0);
                if cmds == vec![1, 2] && r.commit_index >= last_data {
                    break;
                }
            }
            assert!(Instant::now() < deadline, "restart catch-up stalled");
            std::thread::sleep(Duration::from_millis(30));
        }
        // The replayed applications are a prefix-repeat, never a reorder.
        let a = g.applied[old_leader].lock();
        let cmds: Vec<u8> = a.iter().map(|(_, c)| c[0]).collect();
        assert!(cmds.ends_with(&[1, 2]), "unexpected apply order {cmds:?}");
    }

    #[test]
    fn isolated_leader_cannot_commit() {
        let g = RaftGroup::spawn(3, cfg());
        let leader = g.wait_for_leader(Duration::from_secs(5));
        g.network.isolate(g.ids[leader], &g.ids);
        // The isolated leader cannot reach a majority: its propose must
        // not be applied on a majority of nodes. (Run it detached — it
        // blocks until the deposed leader fails it.)
        let iso = Arc::clone(&g.nodes[leader]);
        let bg = std::thread::spawn(move || {
            let _ = iso.propose(vec![99]);
        });
        // Meanwhile, the other two elect a fresh leader and commit.
        std::thread::sleep(Duration::from_millis(300));
        let others: Vec<usize> = (0..3).filter(|&i| i != leader).collect();
        let new_leader = loop {
            let found = others.iter().copied().find(|&i| {
                g.nodes[i]
                    .report()
                    .map(|r| r.role == Role::Leader)
                    .unwrap_or(false)
            });
            if let Some(l) = found {
                break l;
            }
            std::thread::sleep(Duration::from_millis(20));
        };
        g.nodes[new_leader].propose(vec![7]).unwrap();
        // Heal: the old leader must converge to the majority's log (the
        // uncommitted 99 is truncated).
        g.network.reconnect(g.ids[leader], &g.ids);
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let applied = g.applied[leader].lock();
            let cmds: Vec<u8> = applied.iter().map(|(_, c)| c[0]).collect();
            if cmds.contains(&7) {
                assert!(!cmds.contains(&99), "uncommitted entry applied!");
                break;
            }
            drop(applied);
            assert!(Instant::now() < deadline, "healed node never converged");
            std::thread::sleep(Duration::from_millis(30));
        }
        let _ = bg.join();
    }

    #[test]
    fn log_matching_invariant() {
        // After a busy run, any two nodes' logs agree on every index where
        // both have entries with the same term.
        let g = RaftGroup::spawn(5, cfg());
        for i in 0..20u8 {
            g.propose(vec![i], Duration::from_secs(5)).unwrap();
        }
        std::thread::sleep(Duration::from_millis(300));
        let reports: Vec<NodeReport> = g.nodes.iter().filter_map(|n| n.report()).collect();
        for a in &reports {
            for b in &reports {
                let n = a.log.len().min(b.log.len());
                for i in 0..n {
                    if a.log[i].term == b.log[i].term {
                        assert_eq!(
                            a.log[i].command, b.log[i].command,
                            "log matching violated at {i} between {} and {}",
                            a.id, b.id
                        );
                    }
                }
            }
        }
        // All committed prefixes agree.
        let min_commit = reports.iter().map(|r| r.commit_index).min().unwrap();
        assert!(min_commit >= 1);
    }

    #[test]
    fn propose_to_follower_fails() {
        let g = RaftGroup::spawn(3, cfg());
        let leader = g.wait_for_leader(Duration::from_secs(5));
        let follower = (leader + 1) % 3;
        assert!(g.nodes[follower].propose(vec![1]).is_err());
    }

    fn snap_cfg(threshold: usize) -> RaftConfig {
        RaftConfig {
            snapshot_threshold: Some(threshold),
            ..RaftConfig::default()
        }
    }

    /// Waits until every running node's sink holds exactly the commands
    /// `0..n` in order.
    fn wait_all_applied(g: &RaftGroup, n: u8, timeout: Duration) {
        let deadline = Instant::now() + timeout;
        loop {
            let ok = g
                .nodes
                .iter()
                .zip(&g.applied)
                .filter(|(node, _)| node.is_running())
                .all(|(_, a)| {
                    let cmds: Vec<u8> = a.lock().iter().map(|(_, c)| c[0]).collect();
                    cmds == (0..n).collect::<Vec<u8>>()
                });
            if ok {
                return;
            }
            assert!(
                Instant::now() < deadline,
                "apply stalled: {:?}",
                g.applied.iter().map(|a| a.lock().len()).collect::<Vec<_>>()
            );
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    #[test]
    fn log_compaction_triggers_by_threshold() {
        let g = RaftGroup::spawn(3, snap_cfg(8));
        for i in 0..30u8 {
            g.propose(vec![i], Duration::from_secs(5)).unwrap();
        }
        wait_all_applied(&g, 30, Duration::from_secs(5));
        // Every node compacted: the retained tail is bounded, the
        // snapshot covers the rest, and the full applied state is intact.
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let reports: Vec<NodeReport> = g.nodes.iter().filter_map(|n| n.report()).collect();
            if reports.iter().all(|r| r.snap_index > 0 && r.snapshots_taken >= 1) {
                for r in &reports {
                    assert!(
                        r.log.len() < 30,
                        "node {} never truncated: {} entries",
                        r.id,
                        r.log.len()
                    );
                    assert!(
                        r.snap_index + (r.log.len() as u64) >= 30,
                        "compaction lost entries: {r:?}"
                    );
                }
                return;
            }
            assert!(Instant::now() < deadline, "no compaction: {reports:?}");
            std::thread::sleep(Duration::from_millis(30));
        }
    }

    #[test]
    fn restart_recovers_from_snapshot_plus_tail_not_full_replay() {
        let g = RaftGroup::spawn(3, snap_cfg(5));
        for i in 0..20u8 {
            g.propose(vec![i], Duration::from_secs(5)).unwrap();
        }
        wait_all_applied(&g, 20, Duration::from_secs(5));
        let leader = g.wait_for_leader(Duration::from_secs(5));
        let follower = (leader + 1) % 3;
        // Wait until the follower has actually compacted.
        let deadline = Instant::now() + Duration::from_secs(5);
        let pre_snap = loop {
            let r = g.nodes[follower].report().expect("follower report");
            if r.snap_index > 0 {
                break r.snap_index;
            }
            assert!(Instant::now() < deadline, "follower never snapshotted");
            std::thread::sleep(Duration::from_millis(20));
        };
        g.nodes[follower].crash();
        g.nodes[follower].restart();
        // Converge, then check the replay-length instrumentation: the
        // boot replayed from the snapshot, not from index 1.
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            // The restored sink must converge back to the full command
            // sequence (snapshot data + tail replay).
            let cmds: Vec<u8> =
                g.applied[follower].lock().iter().map(|(_, c)| c[0]).collect();
            if cmds == (0..20).collect::<Vec<u8>>() {
                let r = g.nodes[follower].report().expect("follower report");
                assert!(
                    r.replay_base >= pre_snap,
                    "restart replayed the full log (replay_base {} < snap {})",
                    r.replay_base,
                    pre_snap
                );
                assert!(
                    r.applied_since_boot <= r.commit_index - r.replay_base,
                    "applied {} entries from base {} (commit {})",
                    r.applied_since_boot,
                    r.replay_base,
                    r.commit_index
                );
                return;
            }
            assert!(Instant::now() < deadline, "restart never converged");
            std::thread::sleep(Duration::from_millis(30));
        }
    }

    #[test]
    fn lagging_follower_catches_up_via_install_snapshot() {
        let g = RaftGroup::spawn(3, snap_cfg(4));
        let leader = g.wait_for_leader(Duration::from_secs(5));
        let follower = (leader + 1) % 3;
        g.propose(vec![0], Duration::from_secs(5)).unwrap();
        g.nodes[follower].crash();
        // Commit enough for the survivors to compact past the crashed
        // follower's position: catch-up must go through InstallSnapshot.
        for i in 1..25u8 {
            g.propose(vec![i], Duration::from_secs(5)).unwrap();
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let l = g.wait_for_leader(Duration::from_secs(5));
            let r = g.nodes[l].report().expect("leader report");
            if r.snap_index > 1 {
                break;
            }
            assert!(Instant::now() < deadline, "leader never compacted");
            std::thread::sleep(Duration::from_millis(20));
        }
        g.nodes[follower].restart();
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            if let Some(r) = g.nodes[follower].report() {
                let cmds: Vec<u8> =
                    g.applied[follower].lock().iter().map(|(_, c)| c[0]).collect();
                if cmds == (0..25).collect::<Vec<u8>>() {
                    // It cannot have gotten here by pure log replay: the
                    // leader's early entries are gone, so the follower
                    // must hold an installed (or equivalent) snapshot.
                    assert!(r.snap_index > 1, "no snapshot installed: {r:?}");
                    return;
                }
            }
            assert!(Instant::now() < deadline, "install catch-up stalled");
            std::thread::sleep(Duration::from_millis(30));
        }
    }

    #[test]
    fn snapshot_install_failure_falls_back_and_converges() {
        use oltap_common::fault::FaultPoint;
        // Node 1's injector fails its first two snapshot installs.
        let g = RaftGroup::spawn_with_faults(3, snap_cfg(4), |i| {
            if i == 1 {
                let f = FaultInjector::new(0x5EED ^ 1);
                f.arm(points::RAFT_SNAPSHOT_INSTALL_FAIL, FaultPoint::times(2));
                f
            } else {
                FaultInjector::disabled()
            }
        });
        // Make node 1 the lagging follower: crash it, commit + compact.
        // (If node 1 happened to be leader, crashing it just forces a
        // re-election among 0 and 2 — either way it ends up behind.)
        g.propose(vec![0], Duration::from_secs(5)).unwrap();
        g.nodes[1].crash();
        for i in 1..20u8 {
            g.propose(vec![i], Duration::from_secs(5)).unwrap();
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let leader = g.wait_for_leader(Duration::from_secs(5));
            let r = g.nodes[leader].report().expect("leader report");
            if r.snap_index > 1 {
                break;
            }
            assert!(Instant::now() < deadline, "leader never compacted");
            std::thread::sleep(Duration::from_millis(20));
        }
        g.nodes[1].restart();
        // Despite the failed installs, heartbeat retries converge it.
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let cmds: Vec<u8> = g.applied[1].lock().iter().map(|(_, c)| c[0]).collect();
            if cmds == (0..20).collect::<Vec<u8>>() {
                break;
            }
            assert!(Instant::now() < deadline, "never converged past install failures");
            std::thread::sleep(Duration::from_millis(30));
        }
        let fired = g.faults[1]
            .decisions_at(points::RAFT_SNAPSHOT_INSTALL_FAIL)
            .iter()
            .filter(|d| d.fired)
            .count();
        assert!(fired >= 1, "scenario vacuous: install-fail never fired");
    }

    #[test]
    fn leader_lease_tracks_quorum_contact() {
        let g = RaftGroup::spawn(3, cfg());
        let leader = g.wait_for_leader(Duration::from_secs(5));
        // Let a heartbeat round complete so acks are fresh.
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let r = g.nodes[leader].report().expect("leader report");
            if r.lease_valid {
                break;
            }
            assert!(Instant::now() < deadline, "lease never became valid");
            std::thread::sleep(Duration::from_millis(20));
        }
        // Followers never hold a lease.
        let follower = (leader + 1) % 3;
        let fr = g.nodes[follower].report().expect("follower report");
        assert!(!fr.lease_valid);
        // Isolate the leader: with no acks arriving, the lease must
        // lapse within one election_min window — even while the node
        // still *believes* it is leader.
        g.network.isolate(g.ids[leader], &g.ids);
        std::thread::sleep(RaftConfig::default().election_min + Duration::from_millis(30));
        if let Some(r) = g.nodes[leader].report() {
            if r.role == Role::Leader {
                assert!(
                    !r.lease_valid,
                    "isolated leader still claims a valid lease"
                );
            }
        }
        g.network.reconnect(g.ids[leader], &g.ids);
    }
}
