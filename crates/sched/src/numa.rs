//! Simulated NUMA topology, data placement, and locality-aware scheduling.
//!
//! The tutorial lists NUMA-awareness among the advanced query-processing
//! topics every scale-up operational analytics system must address (§1;
//! Psaroudakis et al. \[31\], Li et al. \[23\]): on a multi-socket machine,
//! touching memory attached to a remote socket costs ~1.5–2× a local
//! access, so both *data placement* (which socket's memory holds which
//! partition) and *task placement* (which socket's cores scan it) matter.
//!
//! **Substitution (documented in DESIGN.md):** this environment has no
//! multi-socket hardware, so the topology is simulated: a declarative
//! [`NumaTopology`] carries per-access-class costs, placements are real
//! data structures, and the scheduler below charges the cost model while
//! executing real scan work. The *decision logic* — the part the cited
//! papers contribute — is identical to what would run on real hardware;
//! only the penalty is injected instead of physical.

use oltap_common::ids::{PartitionId, SocketId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A simulated multi-socket machine.
#[derive(Debug, Clone, PartialEq)]
pub struct NumaTopology {
    /// Number of sockets (NUMA nodes).
    pub sockets: usize,
    /// Cores per socket (parallelism available per node).
    pub cores_per_socket: usize,
    /// Cost of streaming 1 KiB from socket-local memory, nanoseconds.
    pub local_ns_per_kb: f64,
    /// Cost of streaming 1 KiB from a remote socket, nanoseconds.
    pub remote_ns_per_kb: f64,
}

impl NumaTopology {
    /// A typical 4-socket box: remote accesses cost ~1.8× local (the
    /// ratio reported for 4-socket Ivy Bridge/Haswell systems in \[31\]).
    pub fn four_socket() -> Self {
        NumaTopology {
            sockets: 4,
            cores_per_socket: 8,
            local_ns_per_kb: 60.0,
            remote_ns_per_kb: 108.0,
        }
    }

    /// Cost in nanoseconds for `kb` KiB accessed from `task_socket` when
    /// the data lives on `data_socket`.
    pub fn access_ns(&self, task_socket: SocketId, data_socket: SocketId, kb: f64) -> f64 {
        if task_socket == data_socket {
            kb * self.local_ns_per_kb
        } else {
            kb * self.remote_ns_per_kb
        }
    }
}

/// Where each partition's memory lives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DataPlacement {
    /// `partition_socket[p]` = socket owning partition `p`.
    pub partition_socket: Vec<SocketId>,
}

impl DataPlacement {
    /// Round-robin placement — the NUMA-aware default (each socket gets an
    /// equal share, and the scheduler can colocate tasks).
    pub fn round_robin(partitions: usize, topology: &NumaTopology) -> Self {
        DataPlacement {
            partition_socket: (0..partitions)
                .map(|p| SocketId((p % topology.sockets) as u64))
                .collect(),
        }
    }

    /// All partitions on one socket — the pathological default of a
    /// first-touch allocation by a single loader thread.
    pub fn single_socket(partitions: usize, socket: SocketId) -> Self {
        DataPlacement {
            partition_socket: vec![socket; partitions],
        }
    }

    /// Uniform random placement (seeded for reproducibility).
    pub fn random(partitions: usize, topology: &NumaTopology, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        DataPlacement {
            partition_socket: (0..partitions)
                .map(|_| SocketId(rng.gen_range(0..topology.sockets) as u64))
                .collect(),
        }
    }

    /// Socket owning partition `p`.
    pub fn socket_of(&self, p: PartitionId) -> SocketId {
        self.partition_socket[p.raw() as usize]
    }
}

/// How scan tasks are assigned to sockets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskPlacementPolicy {
    /// Run each partition's task on the socket that owns its data
    /// (NUMA-aware).
    LocalityAware,
    /// Spread tasks round-robin over sockets ignoring data location.
    RoundRobin,
    /// Random socket per task (seeded).
    Random(u64),
}

/// Accounting of one simulated execution.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct NumaStats {
    /// KiB read from task-local memory.
    pub local_kb: f64,
    /// KiB read from remote sockets.
    pub remote_kb: f64,
    /// Simulated makespan in nanoseconds (sockets work in parallel; each
    /// socket's tasks divide over its cores).
    pub makespan_ns: f64,
    /// Sum of per-task costs (total work).
    pub total_work_ns: f64,
}

impl NumaStats {
    /// Fraction of bytes accessed locally.
    pub fn locality(&self) -> f64 {
        let total = self.local_kb + self.remote_kb;
        if total == 0.0 {
            1.0
        } else {
            self.local_kb / total
        }
    }

    /// Simulated scan throughput in KiB per millisecond.
    pub fn throughput_kb_per_ms(&self) -> f64 {
        if self.makespan_ns == 0.0 {
            0.0
        } else {
            (self.local_kb + self.remote_kb) / (self.makespan_ns / 1e6)
        }
    }
}

/// One scan task: read all of partition `partition` (of `kb` KiB).
#[derive(Debug, Clone, Copy)]
pub struct ScanTask {
    /// The partition to scan.
    pub partition: PartitionId,
    /// Partition size in KiB.
    pub kb: f64,
}

/// Simulates executing `tasks` under a data placement and a task-placement
/// policy on `topology`. Each socket's assigned work is divided across its
/// cores; the makespan is the slowest socket.
pub fn simulate_scan(
    topology: &NumaTopology,
    data: &DataPlacement,
    policy: TaskPlacementPolicy,
    tasks: &[ScanTask],
) -> NumaStats {
    let mut socket_work = vec![0.0f64; topology.sockets];
    let mut stats = NumaStats::default();
    let mut rng = match policy {
        TaskPlacementPolicy::Random(seed) => Some(StdRng::seed_from_u64(seed)),
        _ => None,
    };
    for (i, t) in tasks.iter().enumerate() {
        let data_socket = data.socket_of(t.partition);
        let task_socket = match policy {
            TaskPlacementPolicy::LocalityAware => data_socket,
            TaskPlacementPolicy::RoundRobin => SocketId((i % topology.sockets) as u64),
            TaskPlacementPolicy::Random(_) => {
                SocketId(rng.as_mut().unwrap().gen_range(0..topology.sockets) as u64)
            }
        };
        let ns = topology.access_ns(task_socket, data_socket, t.kb);
        socket_work[task_socket.raw() as usize] += ns;
        stats.total_work_ns += ns;
        if task_socket == data_socket {
            stats.local_kb += t.kb;
        } else {
            stats.remote_kb += t.kb;
        }
    }
    stats.makespan_ns = socket_work
        .iter()
        .map(|w| w / topology.cores_per_socket as f64)
        .fold(0.0, f64::max);
    stats
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tasks(n: usize, kb: f64) -> Vec<ScanTask> {
        (0..n)
            .map(|p| ScanTask {
                partition: PartitionId(p as u64),
                kb,
            })
            .collect()
    }

    #[test]
    fn locality_aware_is_fully_local() {
        let topo = NumaTopology::four_socket();
        let data = DataPlacement::round_robin(16, &topo);
        let stats = simulate_scan(&topo, &data, TaskPlacementPolicy::LocalityAware, &tasks(16, 1024.0));
        assert_eq!(stats.locality(), 1.0);
        assert_eq!(stats.remote_kb, 0.0);
    }

    #[test]
    fn locality_beats_random_by_cost_ratio() {
        let topo = NumaTopology::four_socket();
        let data = DataPlacement::round_robin(64, &topo);
        let ts = tasks(64, 4096.0);
        let aware = simulate_scan(&topo, &data, TaskPlacementPolicy::LocalityAware, &ts);
        let random = simulate_scan(&topo, &data, TaskPlacementPolicy::Random(7), &ts);
        assert!(aware.makespan_ns < random.makespan_ns);
        // Expected random locality ≈ 1/sockets = 0.25.
        assert!(random.locality() < 0.5);
        // Throughput advantage bounded by the remote/local ratio (1.8×)
        // plus imbalance effects.
        let speedup = random.makespan_ns / aware.makespan_ns;
        assert!(speedup > 1.1, "speedup {speedup}");
    }

    #[test]
    fn single_socket_data_bottlenecks_even_aware_placement() {
        let topo = NumaTopology::four_socket();
        let good = DataPlacement::round_robin(16, &topo);
        let bad = DataPlacement::single_socket(16, SocketId(0));
        let ts = tasks(16, 1024.0);
        let balanced = simulate_scan(&topo, &good, TaskPlacementPolicy::LocalityAware, &ts);
        let skewed = simulate_scan(&topo, &bad, TaskPlacementPolicy::LocalityAware, &ts);
        // All work lands on socket 0: makespan ~4× the balanced case.
        assert!(skewed.makespan_ns > balanced.makespan_ns * 3.0);
    }

    #[test]
    fn round_robin_tasks_on_round_robin_data_align() {
        // With equal partition counts and the same modulus, round-robin
        // task placement happens to be fully local too.
        let topo = NumaTopology::four_socket();
        let data = DataPlacement::round_robin(16, &topo);
        let stats = simulate_scan(&topo, &data, TaskPlacementPolicy::RoundRobin, &tasks(16, 100.0));
        assert_eq!(stats.locality(), 1.0);
    }

    #[test]
    fn access_cost_model() {
        let topo = NumaTopology {
            sockets: 2,
            remote_ns_per_kb: 100.0,
            ..NumaTopology::four_socket()
        };
        let local = topo.access_ns(SocketId(0), SocketId(0), 10.0);
        let remote = topo.access_ns(SocketId(0), SocketId(1), 10.0);
        assert_eq!(local, 600.0);
        assert_eq!(remote, 1000.0);
    }

    #[test]
    fn random_placement_is_reproducible() {
        let topo = NumaTopology::four_socket();
        let a = DataPlacement::random(32, &topo, 42);
        let b = DataPlacement::random(32, &topo, 42);
        assert_eq!(a, b);
        let c = DataPlacement::random(32, &topo, 43);
        assert_ne!(a, c);
    }

    #[test]
    fn empty_tasks() {
        let topo = NumaTopology {
            sockets: 2,
            ..NumaTopology::four_socket()
        };
        let data = DataPlacement::round_robin(4, &topo);
        let stats = simulate_scan(&topo, &data, TaskPlacementPolicy::LocalityAware, &[]);
        assert_eq!(stats.makespan_ns, 0.0);
        assert_eq!(stats.locality(), 1.0);
    }
}
