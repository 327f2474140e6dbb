//! E10 — Scale-out: distributed SQL speedup and the ingest cost of Raft
//! replication.
//!
//! Claim (tutorial §3; Oracle DBIM distributed \[27\], Kudu \[24\]):
//! partitioned scatter-gather queries speed up with node count; raising
//! the replication factor costs ingest throughput (more copies per commit)
//! but buys fault tolerance. Expected shape: near-linear query speedup in
//! nodes; RF=3 ingest < RF=1 ingest; availability demo survives one node.
//!
//! E10d compares crash recovery with and without Raft log compaction: a
//! node that missed most of the history either replays the full log or
//! installs a snapshot plus the short tail. What compaction buys is counted,
//! not timed: the gated cell of `results/BENCH_dist.json` is log entries
//! replayed, full over snapshot+tail (`--gate` judges a run against that
//! file, see `harness::Report`); catch-up wall time rides along as detail.

use oltap_bench::harness::{rate, scaled, time, Report, TextTable};
use oltap_common::{row, Value};
use oltap_common::{DataType, Field, Schema};
use oltap_dist::{ClusterConfig, DistributedTable, RaftConfig};
use std::sync::Arc;

fn schema() -> Arc<Schema> {
    Arc::new(
        Schema::with_primary_key(
            vec![
                Field::not_null("id", DataType::Int64),
                Field::new("grp", DataType::Int64),
                Field::new("v", DataType::Int64),
            ],
            &["id"],
        )
        .unwrap(),
    )
}

fn main() {
    let n = scaled(20_000);
    println!("E10: distributed query speedup and replication cost ({n} rows)");

    // Query scale-out: fixed data, growing node count (RF=1 so the
    // comparison isolates parallelism).
    let mut t = TextTable::new(&["nodes", "ingest_s", "query_ms", "speedup", "merged_ms"]);
    let mut base_ms = f64::NAN;
    for nodes in [1usize, 2, 4, 8] {
        let cfg = ClusterConfig {
            nodes,
            replication: 1,
            partitions: nodes,
            raft: RaftConfig::default(),
        };
        let table = DistributedTable::new(schema(), cfg).unwrap();
        let (_, ingest_s) = time(|| {
            for i in 0..n {
                table
                    .insert(row![i as i64, (i % 8) as i64, 1i64])
                    .unwrap();
            }
        });
        // Average a few runs of the distributed aggregate: over the
        // shards' deltas, then — after one maintenance pass — over their
        // merged segments (the fused path).
        let query_ms = || {
            let (answer, q_s) = time(|| {
                let mut last = Vec::new();
                for _ in 0..5 {
                    last = table.query("SELECT COUNT(*), SUM(v) FROM t WHERE grp >= 0").unwrap();
                }
                last
            });
            assert_eq!(answer[0][0], Value::Int(n as i64));
            q_s * 1000.0 / 5.0
        };
        let q_ms = query_ms();
        table.maintenance();
        let merged_ms = query_ms();
        if nodes == 1 {
            base_ms = q_ms;
        }
        t.row(&[
            nodes.to_string(),
            format!("{ingest_s:.2}"),
            format!("{q_ms:.2}"),
            format!("{:.2}x", base_ms / q_ms),
            format!("{merged_ms:.2}"),
        ]);
    }
    t.print("E10a: distributed query speedup vs nodes (RF=1); merged_ms = after maintenance()");

    // Replication-factor sweep: same nodes, growing RF.
    let n_rep = scaled(5_000);
    let mut t2 = TextTable::new(&["replication", "ingest rate", "relative"]);
    let mut base_rate = f64::NAN;
    for rf in [1usize, 3, 5] {
        let cfg = ClusterConfig {
            nodes: 5,
            replication: rf,
            partitions: 5,
            raft: RaftConfig::default(),
        };
        let table = DistributedTable::new(schema(), cfg).unwrap();
        let (_, ingest_s) = time(|| {
            for i in 0..n_rep {
                table
                    .insert(row![i as i64, (i % 8) as i64, 1i64])
                    .unwrap();
            }
        });
        let r = n_rep as f64 / ingest_s;
        if rf == 1 {
            base_rate = r;
        }
        t2.row(&[
            format!("RF={rf}"),
            rate(n_rep, ingest_s),
            format!("{:.0}%", 100.0 * r / base_rate),
        ]);
    }
    t2.print("E10b: ingest throughput vs replication factor (5 nodes)");

    // Availability demo: RF=3 survives a node crash.
    let cfg = ClusterConfig {
        nodes: 3,
        replication: 3,
        partitions: 3,
        raft: RaftConfig::default(),
    };
    let table = DistributedTable::new(schema(), cfg).unwrap();
    for i in 0..500 {
        table.insert(row![i as i64, 0i64, 1i64]).unwrap();
    }
    table.crash_node(2);
    for i in 500..600 {
        table.insert(row![i as i64, 0i64, 1i64]).unwrap();
    }
    let count = table.query("SELECT COUNT(*) FROM t").unwrap()[0][0].clone();
    println!("\nE10c availability: node 2 crashed mid-ingest; cluster answered \
              count={count} (expected 600) from the surviving majority");
    assert_eq!(count, Value::Int(600));

    // E10d — recovery cost: a node that missed most of the history comes
    // back with a wiped data disk. Without compaction it replays the full
    // log; with compaction the leader ships a snapshot plus the tail. The
    // history is the same length at every `OLTAP_SCALE`: the tail is bounded
    // by the snapshot threshold, so the ratio is a function of the length.
    let n_rec = 4_000;
    let mut t3 = TextTable::new(&["variant", "recover_ms", "entries_replayed"]);
    let mut measured = Vec::new();
    for (variant, threshold) in [
        ("full-log-replay", None),
        ("snapshot+tail", Some(256usize)),
    ] {
        let cfg = ClusterConfig {
            nodes: 3,
            replication: 3,
            partitions: 1,
            raft: RaftConfig {
                snapshot_threshold: threshold,
                ..RaftConfig::default()
            },
        };
        let table = DistributedTable::new(schema(), cfg).unwrap();
        for i in 0..(n_rec / 10) {
            table.insert(row![i as i64, 0i64, 1i64]).unwrap();
        }
        table.crash_node(1);
        for i in (n_rec / 10)..n_rec {
            table.insert(row![i as i64, 0i64, 1i64]).unwrap();
        }
        let (_, recover_s) = time(|| {
            table.restart_node_rebuilt(1);
            assert!(
                table.wait_converged(std::time::Duration::from_secs(120)),
                "{variant}: node never converged"
            );
        });
        let rep = table.groups()[0].replicas[1].raft.report().unwrap();
        let replayed = rep.applied_since_boot as f64;
        t3.row(&[
            variant.to_string(),
            format!("{:.1}", recover_s * 1000.0),
            replayed.to_string(),
        ]);
        measured.push((replayed, recover_s * 1000.0));
    }
    t3.print("E10d: node catch-up, full log replay vs snapshot + tail");
    println!(
        "expected shape: E10a speedup grows with nodes; E10b RF=3/5 < RF=1; \
         E10d snapshot+tail replays far fewer entries than full replay"
    );

    let (full, tail) = (measured[0], measured[1]);
    let mut report = Report::new("e10_scaleout");
    report.cell(
        "e10d_entries_replayed_ratio",
        full.0 / tail.0,
        true,
        &[
            ("entries_full_replay", full.0),
            ("entries_snapshot_tail", tail.0),
            ("recover_ms_full_replay", full.1),
            ("recover_ms_snapshot_tail", tail.1),
        ],
    );
    report.finish("dist");
}
