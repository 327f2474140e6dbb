//! Integration tests for the distributed layer: cluster vs. single-node
//! oracle, fault tolerance, convergence.

use oltapdb::common::fault::{points, FaultInjector, FaultPoint};
use oltapdb::common::ids::NodeId;
use oltapdb::common::{row, CancellationToken, DataType, DbError, Field, Row, Schema, Value};
use oltapdb::core::Database;
use oltapdb::dist::{ClusterConfig, DistributedTable, PartitionGroup, RaftConfig, ShardCmd};
use std::sync::Arc;
use std::time::Duration;

mod common;
use common::{model_aggregate, same_rows};

fn schema() -> Arc<Schema> {
    Arc::new(
        Schema::with_primary_key(
            vec![
                Field::not_null("id", DataType::Int64),
                Field::new("g", DataType::Int64),
                Field::new("v", DataType::Int64),
            ],
            &["id"],
        )
        .unwrap(),
    )
}

fn replicated(partitions: usize, raft: RaftConfig) -> ClusterConfig {
    ClusterConfig {
        nodes: 3,
        replication: 3,
        partitions,
        raft,
    }
}

fn propose(g: &PartitionGroup, cmd: ShardCmd) {
    g.propose_cmd(&cmd, Duration::from_secs(10)).unwrap();
}

#[test]
fn cluster_matches_single_node_database() {
    let cluster = DistributedTable::new(schema(), ClusterConfig::small()).unwrap();
    let local = Database::new();
    local
        .execute("CREATE TABLE t (id BIGINT PRIMARY KEY, g BIGINT, v BIGINT)")
        .unwrap();

    for i in 0..150i64 {
        let (g, v) = (i % 5, (i * 13) % 97);
        cluster.insert(row![i, g, v]).unwrap();
        local
            .execute(&format!("INSERT INTO t VALUES ({i}, {g}, {v})"))
            .unwrap();
    }

    for threshold in [0i64, 30, 96] {
        let sql = format!("SELECT COUNT(*), SUM(v) FROM t WHERE v > {threshold}");
        assert_eq!(cluster.query(&sql).unwrap(), local.query(&sql).unwrap(), "{sql}");
    }

    // Row-level equality.
    let sql = "SELECT * FROM t ORDER BY id";
    assert_eq!(cluster.query(sql).unwrap(), local.query(sql).unwrap());
}

#[test]
fn duplicate_keys_rejected_cluster_wide() {
    let cluster = DistributedTable::new(schema(), ClusterConfig::small()).unwrap();
    cluster.insert(row![1i64, 0i64, 0i64]).unwrap();
    // The replicated apply path swallows the duplicate (log is authority),
    // so verify via row count: a second insert of the same key must not
    // create a second visible row.
    let _ = cluster.insert(row![1i64, 0i64, 99i64]);
    cluster.wait_converged(Duration::from_secs(10));
    let rows = cluster.query("SELECT * FROM t ORDER BY id").unwrap();
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0][2], Value::Int(0), "first writer wins");
}

#[test]
fn rolling_single_node_failures() {
    let cluster = DistributedTable::new(schema(), replicated(3, RaftConfig::default())).unwrap();
    let mut next = 0i64;
    for round in 0..3usize {
        // Crash one node per round, keep writing, restart it.
        cluster.crash_node(round);
        for _ in 0..30 {
            cluster.insert(row![next, 0i64, 1i64]).unwrap();
            next += 1;
        }
        cluster.restart_node(round);
        assert!(
            cluster.wait_converged(Duration::from_secs(20)),
            "round {round}: replicas failed to converge"
        );
    }
    let answer = cluster.query("SELECT COUNT(*), SUM(v) FROM t").unwrap();
    assert_eq!(answer, vec![row![90i64, 90i64]]);
}

#[test]
fn all_replicas_identical_after_convergence() {
    let cluster = DistributedTable::new(schema(), ClusterConfig::small()).unwrap();
    for i in 0..60i64 {
        cluster.insert(row![i, i % 3, i]).unwrap();
    }
    assert!(cluster.wait_converged(Duration::from_secs(10)));
    for g in cluster.groups() {
        let views: Vec<Vec<Row>> = g
            .replicas
            .iter()
            .map(|r| r.db().query("SELECT * FROM t ORDER BY id").unwrap())
            .collect();
        for w in views.windows(2) {
            assert_eq!(w[0], w[1], "replica divergence in partition {}", g.id);
        }
    }
}

/// Main segments held by the shard database of each running replica.
fn segments_per_replica(cluster: &DistributedTable) -> Vec<usize> {
    let replicas = cluster.groups().iter().flat_map(|g| &g.replicas);
    replicas
        .filter(|r| r.raft.is_running())
        .map(|r| {
            let table = r.db().table(DistributedTable::TABLE).unwrap();
            table.columns().unwrap().sizes().segments
        })
        .collect()
}

/// The distributed answer is the single-node answer, by kind and bits: the
/// same rows loaded into a cluster of 1, 2 and 4 partitions and into one
/// `Database` answer every statement alike — grouped and global (over zero
/// rows too), filtered, with HAVING, ORDER BY … LIMIT, an expression key and
/// no aggregate at all — while the shards hold only a delta and again once
/// `maintenance()` has merged it into segments (the fused path). The plain
/// forms also equal the naive model. `k` and every input carry NULLs; `v`
/// sums wrap; `f` is a multiple of 0.25, so a float sum is exact however
/// the partitioning groups its additions.
#[test]
fn distributed_statements_answer_as_one_database() {
    let wide = Arc::new(
        Schema::with_primary_key(
            vec![
                Field::not_null("id", DataType::Int64),
                Field::new("k", DataType::Int64),
                Field::new("v", DataType::Int64),
                Field::new("f", DataType::Float64),
                Field::new("s", DataType::Utf8),
            ],
            &["id"],
        )
        .unwrap(),
    );
    // SplitMix64.
    let mut state = 0xD157_0001u64;
    let mut next = move |below: u64| {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) % below
    };
    let rows: Vec<Row> = (0..360i64)
        .map(|id| {
            let mut nullable = |one_in: u64, v: Value| if next(one_in) == 0 { Value::Null } else { v };
            let v = match id % 9 {
                0 => i64::MAX - id,
                1 => i64::MIN + id,
                _ => id * 7919 % 2001 - 1000,
            };
            Row::new(vec![
                Value::Int(id),
                nullable(12, Value::Int(id * 31 % 7)),
                nullable(10, Value::Int(v)),
                nullable(10, Value::Float((id * 37 % 8001 - 4000) as f64 * 0.25)),
                nullable(10, Value::Str(format!("s{:02}", id * 13 % 40))),
            ])
        })
        .collect();

    let local = Database::new();
    local
        .execute("CREATE TABLE t (id BIGINT PRIMARY KEY, k BIGINT, v BIGINT, f DOUBLE, s TEXT) USING FORMAT COLUMN")
        .unwrap();
    let handle = local.table("t").unwrap();
    let tx = local.txn_manager().begin();
    for r in &rows {
        handle.insert(&tx, r.clone()).unwrap();
    }
    tx.commit().unwrap();

    const AGGS: &str = "COUNT(*), COUNT(v), SUM(v), MIN(v), MAX(v), SUM(f), AVG(f), MIN(s), MAX(s)";
    let modelled = [
        format!("SELECT k, {AGGS} FROM t GROUP BY k ORDER BY k"),
        format!("SELECT k, {AGGS} FROM t WHERE v > -200 GROUP BY k ORDER BY k"),
        format!("SELECT k, {AGGS} FROM t WHERE f <= 10.5 AND s IS NOT NULL GROUP BY k ORDER BY k"),
        format!("SELECT {AGGS} FROM t"),
        format!("SELECT {AGGS} FROM t WHERE v > 0"),
        format!("SELECT {AGGS} FROM t WHERE id < 0"),
    ];
    let engine_only = [
        "SELECT k, COUNT(*), SUM(v) FROM t GROUP BY k HAVING COUNT(*) > 45 ORDER BY k".to_string(),
        "SELECT k, SUM(v), AVG(f) FROM t GROUP BY k ORDER BY AVG(f) DESC, k LIMIT 3".to_string(),
        "SELECT k, MAX(s) FROM t WHERE v < 500 GROUP BY k HAVING MAX(s) > 's20' ORDER BY k LIMIT 4".to_string(),
        "SELECT k + 0, COUNT(*), SUM(f), MIN(s) FROM t GROUP BY k + 0 ORDER BY k + 0".to_string(),
        "SELECT SUM(v * 2), AVG(f * 2.0) FROM t".to_string(),
        "SELECT id, v, s FROM t WHERE v < 0 ORDER BY id LIMIT 7".to_string(),
        "SELECT COUNT(*) FROM t WHERE id = 17".to_string(),
    ];
    // Each statement and the single-node answer, which the model confirms
    // where it speaks the statement's form.
    let want: Vec<(&String, Vec<Row>)> = modelled
        .iter()
        .map(|sql| (sql, true))
        .chain(engine_only.iter().map(|sql| (sql, false)))
        .map(|(sql, modelled)| {
            let answer = local.query(sql).unwrap();
            assert!(!answer.is_empty(), "vacuous: `{sql}`");
            assert!(!modelled || same_rows(&answer, &model_aggregate(&local, sql)), "model: `{sql}`");
            (sql, answer)
        })
        .collect();

    for partitions in [1usize, 2, 4] {
        let cluster =
            DistributedTable::new(Arc::clone(&wide), replicated(partitions, RaftConfig::default())).unwrap();
        for r in &rows {
            cluster.insert(r.clone()).unwrap();
        }
        for merged in [false, true] {
            if merged {
                assert!(cluster.wait_converged(Duration::from_secs(20)));
                cluster.maintenance();
            }
            let segments = segments_per_replica(&cluster);
            assert_eq!(segments.iter().all(|&n| n > 0), merged, "{partitions} partitions: {segments:?}");
            for (sql, want) in &want {
                let got = cluster.query(sql).unwrap();
                assert!(
                    same_rows(&got, want),
                    "{partitions} partitions, merged={merged}, `{sql}`:\n cluster {got:?}\n single  {want:?}"
                );
            }
        }
    }
}

/// Every replica's shard database holds exactly the transactions its
/// parked prepares hold open.
fn assert_only_prepares_are_open(cluster: &DistributedTable, context: &str) {
    for g in cluster.groups() {
        for (i, r) in g.replicas.iter().enumerate() {
            assert_eq!(
                r.db().txn_manager().active_count(),
                r.store.in_doubt().len(),
                "{context}: partition {} replica {i}",
                g.id
            );
        }
    }
}

/// Rows staged by a `Prepare` are invisible, stay invisible across a
/// maintenance pass that merges the rows around them, become visible once
/// after `Decide(commit)` and never after `Decide(abort)`.
#[test]
fn prepared_rows_stay_invisible_across_maintenance() {
    let cluster = DistributedTable::new(schema(), replicated(1, RaftConfig::default())).unwrap();
    let g = &cluster.groups()[0];
    for i in 0..20i64 {
        cluster.insert(row![i, 0i64, 1i64]).unwrap();
    }
    let visible = || cluster.query("SELECT COUNT(*), SUM(v) FROM t").unwrap();
    propose(g, ShardCmd::Prepare { gtxn: 7, rows: vec![row![100i64, 1i64, 10i64], row![101i64, 1i64, 10i64]] });
    propose(g, ShardCmd::Prepare { gtxn: 8, rows: vec![row![200i64, 2i64, 100i64]] });
    assert!(cluster.wait_converged(Duration::from_secs(10)));
    assert_eq!(visible(), vec![row![20i64, 20i64]]);

    cluster.maintenance();
    assert!(segments_per_replica(&cluster).iter().all(|&n| n > 0));
    assert_eq!(visible(), vec![row![20i64, 20i64]], "a merge published staged rows");
    assert_eq!(g.in_doubt(), vec![7, 8]);
    assert_only_prepares_are_open(&cluster, "two parked prepares");

    propose(g, ShardCmd::Decide { gtxn: 7, commit: true });
    assert_eq!(visible(), vec![row![22i64, 40i64]]);
    propose(g, ShardCmd::Decide { gtxn: 8, commit: false });
    assert_eq!(visible(), vec![row![22i64, 40i64]]);
    assert!(cluster.wait_converged(Duration::from_secs(10)));
    cluster.maintenance();
    assert_eq!(visible(), vec![row![22i64, 40i64]], "a merge changed what is committed");
    assert_eq!(
        cluster.query("SELECT id FROM t WHERE id >= 100 ORDER BY id").unwrap(),
        vec![row![100i64], row![101i64]]
    );
    assert_only_prepares_are_open(&cluster, "everything decided");
}

/// The in-doubt set survives the loss of a replica's data disk: rebuilt by
/// replaying the Raft log, and rebuilt from an installed snapshot, it is
/// the set the replica held before.
#[test]
fn in_doubt_set_is_rebuilt_from_the_raft_log_and_from_a_snapshot() {
    let raft = RaftConfig {
        snapshot_threshold: Some(12),
        ..RaftConfig::default()
    };
    for (via, raft) in [("log replay", RaftConfig::default()), ("snapshot install", raft)] {
        let cluster = DistributedTable::new(schema(), replicated(1, raft)).unwrap();
        let g = &cluster.groups()[0];
        propose(g, ShardCmd::Prepare { gtxn: 1, rows: vec![row![1i64, 0i64, 1i64]] });
        propose(g, ShardCmd::Prepare { gtxn: 2, rows: vec![row![2i64, 0i64, 2i64]] });
        propose(g, ShardCmd::Decide { gtxn: 2, commit: true });
        assert!(cluster.wait_converged(Duration::from_secs(10)));
        assert_eq!(g.replicas[1].store.in_doubt(), vec![1], "{via}");

        // Node 1 goes down; the others move on — one more prepare, and with
        // compaction on, far enough that the leader's log no longer reaches
        // back to where node 1 stopped.
        cluster.crash_node(1);
        for i in 10..50i64 {
            cluster.insert(row![i, 0i64, i]).unwrap();
        }
        propose(g, ShardCmd::Prepare { gtxn: 3, rows: vec![row![3i64, 0i64, 3i64]] });
        let pre_crash = g.in_doubt();
        assert_eq!(pre_crash, vec![1, 3], "{via}");

        cluster.restart_node_rebuilt(1);
        assert!(cluster.wait_converged(Duration::from_secs(30)), "{via}: never converged");
        let rebuilt = &g.replicas[1];
        assert_eq!(rebuilt.store.in_doubt(), pre_crash, "{via}");
        assert_eq!(rebuilt.store.decided(2), Some(true), "{via}");
        assert_eq!(rebuilt.store.dropped_commands(), 0, "{via}");
        let report = rebuilt.raft.report().unwrap();
        assert_eq!(report.snap_index > 0, via == "snapshot install", "{via}: {report:?}");
        // What it holds open is what it holds in doubt, and what it shows
        // is what the others show.
        assert_only_prepares_are_open(&cluster, via);
        let sql = "SELECT * FROM t ORDER BY id";
        assert_eq!(rebuilt.db().query(sql).unwrap(), cluster.query(sql).unwrap(), "{via}");
    }
}

/// `wait_converged` waits for what it says: a follower cut off one `Decide`
/// behind holds the staged key either way, and is not converged until it
/// has applied the partition's highest commit index.
#[test]
fn a_follower_one_decide_behind_is_not_converged() {
    let cluster = DistributedTable::new(schema(), replicated(1, RaftConfig::default())).unwrap();
    let g = &cluster.groups()[0];
    propose(g, ShardCmd::Prepare { gtxn: 5, rows: vec![row![1i64, 0i64, 1i64]] });
    assert!(cluster.wait_converged(Duration::from_secs(10)));

    let leader = g.leader_index(Duration::from_secs(5)).unwrap();
    let behind = (leader + 1) % 3;
    let ids: Vec<NodeId> = g.members.iter().map(|&m| NodeId(m as u64)).collect();
    g.network.isolate(ids[behind], &ids);
    propose(g, ShardCmd::Decide { gtxn: 5, commit: true });
    assert_eq!(g.replicas[behind].store.in_doubt(), vec![5]);
    assert!(!cluster.wait_converged(Duration::from_millis(400)));

    g.network.reconnect(ids[behind], &ids);
    assert!(cluster.wait_converged(Duration::from_secs(20)));
    assert!(g.replicas[behind].store.in_doubt().is_empty());
    assert_eq!(g.replicas[behind].db().query("SELECT v FROM t").unwrap(), vec![row![1i64]]);
}

/// A distributed statement that fails — every attempt at a partition
/// refused — or is cancelled is a typed error naming what happened, and
/// leaves no transaction open on any shard; a join is refused at the
/// coordinator. The cluster answers the next statement.
#[test]
fn failed_cancelled_and_unsupported_statements_are_typed_and_leave_nothing_open() {
    let faults = FaultInjector::new(0xFA11);
    let cfg = replicated(2, RaftConfig::default());
    let cluster = DistributedTable::new_with_faults(schema(), cfg, Arc::clone(&faults)).unwrap();
    for i in 0..16i64 {
        cluster.insert(row![i, i % 2, i]).unwrap();
    }
    propose(&cluster.groups()[1], ShardCmd::Prepare { gtxn: 9, rows: vec![row![99i64, 0i64, 0i64]] });
    assert!(cluster.wait_converged(Duration::from_secs(10)));
    let sql = "SELECT g, COUNT(*), SUM(v) FROM t GROUP BY g ORDER BY g";
    let want = vec![row![0i64, 8i64, 56i64], row![1i64, 8i64, 64i64]];
    assert_eq!(cluster.query(sql).unwrap(), want);

    faults.arm(points::SCAN_PARTITION_FAIL, FaultPoint::always());
    let err = cluster.query(sql).unwrap_err();
    faults.disarm(points::SCAN_PARTITION_FAIL);
    assert!(matches!(err, DbError::ShardUnavailable { partition: 0 | 1, .. }), "{err:?}");
    assert!(err.to_string().contains(points::SCAN_PARTITION_FAIL), "{err}");
    assert_only_prepares_are_open(&cluster, "after a failed statement");

    let cancelled = CancellationToken::new();
    cancelled.cancel();
    let err = cluster.query_under(sql, &cancelled).unwrap_err();
    assert!(matches!(err, DbError::Cancelled(_)), "{err:?}");
    assert_only_prepares_are_open(&cluster, "after a cancelled statement");

    for refused in [
        "SELECT a.id FROM t a JOIN t b ON a.id = b.id",
        "SELECT a.g, COUNT(*) FROM t a JOIN t b ON a.id = b.id GROUP BY a.g",
        "SELECT COUNT(*) FROM t AS OF 1",
        "INSERT INTO t VALUES (1000, 0, 0)",
    ] {
        let err = cluster.query(refused).unwrap_err();
        assert!(matches!(err, DbError::Unsupported(_)), "`{refused}`: {err:?}");
    }
    assert!(matches!(cluster.query("SELECT nope FROM t"), Err(DbError::ColumnNotFound(_))));

    assert_eq!(cluster.query(sql).unwrap(), want);
    assert_only_prepares_are_open(&cluster, "at the end");
}
