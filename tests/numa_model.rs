//! E9's NUMA cost model (`oltap-bench`'s `numa`): placement, locality and
//! makespan on the simulated topology. They live here, not beside the
//! model, because `crates/bench` is not a default workspace member: this
//! way a plain `cargo test` at the root still runs them.

use oltap_bench::numa::{
    simulate_scan, DataPlacement, NumaTopology, ScanTask, SocketId, TaskPlacementPolicy,
};
use oltapdb::common::ids::PartitionId;

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
