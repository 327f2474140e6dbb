//! Scale-out: a Raft-replicated, hash-partitioned table whose shards are
//! each a `Database`, queried in SQL, with a node failure mid-flight.
//!
//! ```bash
//! cargo run --release --example cluster
//! ```

use oltapdb::common::{row, DataType, Field, Schema, Value};
use oltapdb::dist::{ClusterConfig, DistributedTable, RaftConfig};
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let schema = Arc::new(Schema::with_primary_key(
        vec![
            Field::not_null("sensor_id", DataType::Int64),
            Field::new("zone", DataType::Int64),
            Field::new("reading", DataType::Int64),
        ],
        &["sensor_id"],
    )?);

    // 3 nodes, every partition replicated 3 ways via Raft (Kudu-style).
    let cluster = DistributedTable::new(
        schema,
        ClusterConfig {
            nodes: 3,
            replication: 3,
            partitions: 6,
            raft: RaftConfig::default(),
        },
    )?;
    println!("cluster up: 3 nodes, 6 partitions, RF=3");

    // Replicated ingest: each insert is a Raft commit on its partition.
    for i in 0..3_000 {
        cluster.insert(row![i as i64, (i % 4) as i64, (i % 100) as i64])?;
    }
    println!("ingested 3000 readings (each quorum-committed)");

    // Distributed SQL: the statement is planned once, its aggregation runs
    // next to the data on every partition, the partials merge in partition
    // order, and HAVING / ORDER BY / LIMIT run on the gathered groups.
    let total = cluster.query("SELECT COUNT(*), SUM(reading) FROM t")?;
    println!("fleet total: count={} sum={}", total[0][0], total[0][1]);
    let hot = cluster.query("SELECT COUNT(*) FROM t WHERE reading >= 90")?;
    println!("readings >= 90: {}", hot[0][0]);
    let by_zone = "SELECT zone, COUNT(*), AVG(reading) FROM t GROUP BY zone ORDER BY zone";
    for zone in cluster.query(by_zone)? {
        println!("zone {}: n={} avg={}", zone[0], zone[1], zone[2]);
    }

    // A shard is a database: one maintenance pass merges every replica's
    // delta into encoded segments, and the same statement now runs fused.
    cluster.maintenance();
    assert_eq!(cluster.query("SELECT COUNT(*), SUM(reading) FROM t")?, total);
    println!("after maintenance(): same answer from merged segments");

    // Kill a node; the majority keeps serving reads and writes.
    println!("\ncrashing node 1 ...");
    cluster.crash_node(1);
    for i in 3_000..3_200 {
        cluster.insert(row![i as i64, (i % 4) as i64, 1i64])?;
    }
    let count = cluster.query("SELECT COUNT(*) FROM t")?;
    println!("after 200 more inserts without node 1: count={}", count[0][0]);
    assert_eq!(count[0][0], Value::Int(3_200));

    // Bring it back; Raft catches the replica up from the leaders' logs.
    println!("restarting node 1 ...");
    cluster.restart_node(1);
    let converged = cluster.wait_converged(std::time::Duration::from_secs(20));
    println!("replicas converged after restart: {converged}");

    // Per-partition leadership report.
    for g in cluster.groups().iter().take(3) {
        let leader = g.leader_index(std::time::Duration::from_secs(5))?;
        println!(
            "partition {}: leader=replica{} (cluster node {})",
            g.id, leader, g.members[leader]
        );
    }
    Ok(())
}
