//! E9 — NUMA-aware placement on the simulated topology.
//!
//! Claim (tutorial §1, §3; Psaroudakis et al. \[31\], Li et al. \[23\]):
//! colocating scan tasks with their data's socket wins by up to the
//! remote/local cost ratio, and skewed data placement bottlenecks a single
//! socket regardless of scheduling. Expected shape: locality-aware ≈ 100%
//! local and fastest; random ≈ 1/sockets locality; single-socket placement
//! ~sockets× slower even when locality-aware.

use oltap_bench::harness::{scaled, TextTable};
use oltap_bench::numa::{
    simulate_scan, DataPlacement, NumaTopology, ScanTask, SocketId, TaskPlacementPolicy,
};
use oltap_common::ids::PartitionId;

fn main() {
    let partitions = 64usize;
    let kb_per_partition = scaled(64) as f64 * 1024.0 / 64.0; // ~1 GiB total at scale 1
    let topo = NumaTopology::four_socket();
    println!(
        "E9: simulated {}-socket topology, {partitions} partitions × {:.0} KiB, \
         remote/local cost = {:.2}x",
        topo.sockets,
        kb_per_partition,
        topo.remote_ns_per_kb / topo.local_ns_per_kb
    );

    let tasks: Vec<ScanTask> = (0..partitions)
        .map(|p| ScanTask {
            partition: PartitionId(p as u64),
            kb: kb_per_partition,
        })
        .collect();

    let placements = [
        ("round-robin data", DataPlacement::round_robin(partitions, &topo)),
        ("random data", DataPlacement::random(partitions, &topo, 9)),
        (
            "single-socket data (first-touch bug)",
            DataPlacement::single_socket(partitions, SocketId(0)),
        ),
    ];
    let policies = [
        ("locality-aware", TaskPlacementPolicy::LocalityAware),
        ("round-robin tasks", TaskPlacementPolicy::RoundRobin),
        ("random tasks", TaskPlacementPolicy::Random(11)),
    ];

    let mut t = TextTable::new(&[
        "data placement",
        "task policy",
        "locality",
        "makespan ms",
        "throughput KiB/ms",
    ]);
    let mut aware_rr = f64::NAN;
    let mut random_rr = f64::NAN;
    for (pname, placement) in &placements {
        for (tname, policy) in &policies {
            let stats = simulate_scan(&topo, placement, *policy, &tasks);
            if *pname == "round-robin data" {
                match *tname {
                    "locality-aware" => aware_rr = stats.makespan_ns,
                    "random tasks" => random_rr = stats.makespan_ns,
                    _ => {}
                }
            }
            t.row(&[
                pname.to_string(),
                tname.to_string(),
                format!("{:.0}%", stats.locality() * 100.0),
                format!("{:.2}", stats.makespan_ns / 1e6),
                format!("{:.0}", stats.throughput_kb_per_ms()),
            ]);
        }
    }
    t.print("E9: NUMA data/task placement matrix (simulated cost model)");
    println!(
        "locality-aware vs random tasks on balanced data: {:.2}x faster",
        random_rr / aware_rr
    );
    println!("expected shape: locality-aware fastest; single-socket data ~4x slower");
}
