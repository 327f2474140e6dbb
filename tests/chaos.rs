//! Chaos suite: seeded fault-injection scenarios asserting the system's
//! safety invariants under crashes, message loss, partitions, and torn
//! writes.
//!
//! Every scenario derives all randomness from an explicit seed, so a
//! failure reproduces by re-running with the same seed (see
//! `DESIGN.md` § "Fault model & chaos testing" and the README how-to).
//! The invariants checked here are the ones that must hold on *every*
//! schedule, not just the replayed one:
//!
//! 1. Committed (quorum-acked / WAL-flushed) writes survive.
//! 2. Recovery never resurrects unacknowledged data.
//! 3. Replicas converge to identical state once faults stop.
//! 4. Queries past their deadline terminate promptly with a clean error.

use oltapdb::common::fault::{points, FaultInjector, FaultPoint};
use oltapdb::common::{row, DataType, DbError, Field, Schema, Value};
use oltapdb::common::Row;
use oltapdb::core::{Database, DbConfig};
use oltapdb::dist::{
    ClusterConfig, DistributedTable, RaftConfig, RaftGroup, TwoPcCoordinator, TwoPcOutcome,
};
use std::sync::Arc;
use std::time::Duration;

/// Master seed for the suite; per-scenario seeds derive from it so the
/// scenarios stay independent.
const SUITE_SEED: u64 = 0xC4A0_5EED;

fn seed_for(scenario: u64) -> u64 {
    SUITE_SEED ^ scenario.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

fn schema() -> Arc<Schema> {
    Arc::new(
        Schema::with_primary_key(
            vec![
                Field::not_null("id", DataType::Int64),
                Field::new("v", DataType::Int64),
            ],
            &["id"],
        )
        .unwrap(),
    )
}

/// Collapses a node's applied log into index → command, panicking if the
/// node ever applied two *different* commands at one index (a state-machine
/// safety violation; benign re-application after restart applies the same
/// command again and is allowed).
fn applied_map(g: &RaftGroup, node: usize) -> std::collections::BTreeMap<u64, Vec<u8>> {
    let mut m = std::collections::BTreeMap::new();
    for (idx, cmd) in g.applied[node].lock().iter() {
        match m.get(idx) {
            Some(prev) => assert_eq!(
                prev, cmd,
                "node {node} applied two different commands at index {idx}"
            ),
            None => {
                m.insert(*idx, cmd.clone());
            }
        }
    }
    m
}

/// Waits until every node has applied at least `n_cmds` commands and all
/// nodes' applied maps are identical (Raft's state-machine safety property
/// — the invariant that must hold on every schedule). While waiting,
/// asserts that nodes never disagree on an index both have applied.
/// Indexes need not start at 1: leaders may hold no-op entries that are
/// skipped by the apply callback.
fn wait_applied_consistent(g: &RaftGroup, n_cmds: usize, timeout: Duration) -> bool {
    let deadline = std::time::Instant::now() + timeout;
    loop {
        let maps: Vec<_> = (0..g.nodes.len()).map(|i| applied_map(g, i)).collect();
        for w in maps.windows(2) {
            for (idx, cmd) in &w[0] {
                if let Some(other) = w[1].get(idx) {
                    assert_eq!(cmd, other, "nodes disagree at index {idx}");
                }
            }
        }
        if maps[0].len() >= n_cmds && maps.iter().all(|m| *m == maps[0]) {
            return true;
        }
        if std::time::Instant::now() > deadline {
            for (i, m) in maps.iter().enumerate() {
                eprintln!(
                    "node {i}: {} applied, index range {:?}..{:?}",
                    m.len(),
                    m.keys().next(),
                    m.keys().next_back()
                );
            }
            return false;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Scenario 1 — message loss: every node's transport drops ~20% of Raft
/// messages and duplicates a few more. Retransmission (AppendEntries
/// retries driven by heartbeats) must still commit every proposal, and
/// all replicas must apply the same command sequence.
#[test]
fn chaos_message_loss_still_commits() {
    let seed = seed_for(1);
    let g = RaftGroup::spawn_with_faults(3, RaftConfig::default(), |i| {
        let f = FaultInjector::new(seed ^ i as u64);
        f.arm(points::RAFT_DROP_MSG, FaultPoint::with_probability(0.2));
        f.arm(points::RAFT_DUP_MSG, FaultPoint::with_probability(0.05));
        f
    });
    for i in 0..30u64 {
        g.propose(format!("cmd-{i}").into_bytes(), Duration::from_secs(20))
            .expect("proposal must commit despite message loss");
    }
    assert!(
        wait_applied_consistent(&g, 30, Duration::from_secs(20)),
        "replicas diverged under message loss (seed={seed:#x})"
    );
    // The lossy transport really was lossy.
    assert!(
        g.faults.iter().map(|f| f.fired_count()).sum::<u64>() > 0,
        "no faults fired — scenario vacuous"
    );
}

/// Scenario 2 — network partition: the leader is isolated; the majority
/// side elects a new leader and keeps committing. After healing, the old
/// leader rejoins and converges. Nothing committed by the majority is
/// ever lost.
#[test]
fn chaos_partition_majority_keeps_committing() {
    let seed = seed_for(2);
    let g = RaftGroup::spawn_with_faults(5, RaftConfig::default(), |i| {
        let f = FaultInjector::new(seed ^ i as u64);
        // Mild background delay keeps the schedule interesting without
        // making elections impossible.
        f.arm(points::RAFT_DELAY_MSG, FaultPoint::with_probability(0.1));
        f
    });
    for i in 0..5u64 {
        g.propose(format!("pre-{i}").into_bytes(), Duration::from_secs(10))
            .unwrap();
    }
    let old_leader = g.wait_for_leader(Duration::from_secs(5));
    g.network.isolate(g.ids[old_leader], &g.ids);

    // The majority side must recover and accept new writes.
    for i in 0..10u64 {
        g.propose(format!("during-{i}").into_bytes(), Duration::from_secs(20))
            .expect("majority must keep committing during the partition");
    }

    g.network.reconnect(g.ids[old_leader], &g.ids);
    assert!(
        wait_applied_consistent(&g, 15, Duration::from_secs(20)),
        "replicas diverged after partition heal (seed={seed:#x})"
    );
    // The pre-partition and during-partition commands all survived, in
    // order, on every node.
    let applied = g.applied[0].lock().clone();
    let cmds: Vec<String> = applied
        .iter()
        .map(|(_, c)| String::from_utf8(c.clone()).unwrap())
        .collect();
    for i in 0..5 {
        assert!(cmds.contains(&format!("pre-{i}")), "lost pre-{i}");
    }
    for i in 0..10 {
        assert!(cmds.contains(&format!("during-{i}")), "lost during-{i}");
    }
}

/// Scenario 3 — leader crash via the `raft.crash_node` point: the leader's
/// own event loop kills itself mid-run (a kill -9 between events). The
/// survivors re-elect and keep committing; the crashed node catches up
/// after restart.
#[test]
fn chaos_leader_crash_and_catchup() {
    let seed = seed_for(3);
    let g = RaftGroup::spawn_with_faults(3, RaftConfig::default(), |i| {
        FaultInjector::new(seed ^ i as u64)
    });
    for i in 0..8u64 {
        g.propose(format!("a-{i}").into_bytes(), Duration::from_secs(10))
            .unwrap();
    }
    let leader = g.wait_for_leader(Duration::from_secs(5));
    // Arm the crash point on the leader only: it dies on its next loop
    // iteration, exactly like a kill -9.
    g.faults[leader].arm(points::RAFT_CRASH_NODE, FaultPoint::times(1));
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while g.nodes[leader].is_running() {
        assert!(
            std::time::Instant::now() < deadline,
            "armed crash point never fired"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    // Survivors elect a new leader and commit more entries.
    for i in 0..8u64 {
        g.propose(format!("b-{i}").into_bytes(), Duration::from_secs(20))
            .expect("survivors must commit after leader crash");
    }

    g.nodes[leader].restart();
    assert!(
        wait_applied_consistent(&g, 16, Duration::from_secs(20)),
        "crashed leader failed to catch up (seed={seed:#x})"
    );
}

/// Scenario 4 — torn WAL tail: a seeded torn write cuts a commit record
/// at an arbitrary byte offset. The torn commit is neither visible nor
/// acknowledged, and the database refuses every later commit with a typed
/// error (a record behind a torn frame would be lost at replay) until it
/// reopens from the same file, which recovers every acknowledged commit
/// and does not resurrect the torn transaction.
#[test]
fn chaos_torn_wal_tail_recovery() {
    let seed = seed_for(4);
    let dir = std::env::temp_dir().join(format!("oltap_chaos_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("chaos_torn.wal");
    let _ = std::fs::remove_file(&path);

    let mut acked: Vec<i64> = Vec::new();
    {
        let faults = FaultInjector::new(seed);
        // Tear one commit after the schema DDL and a few acked rows.
        faults.arm(points::WAL_TORN_WRITE, FaultPoint::times(1).after(4));
        let db = Database::with_config(DbConfig {
            wal_path: Some(path.clone()),
            faults: Some(faults),
            ..DbConfig::default()
        })
        .unwrap();
        db.execute("CREATE TABLE t (id BIGINT PRIMARY KEY, v BIGINT)")
            .unwrap();
        let mut torn = None;
        for i in 0..10i64 {
            match db.execute(&format!("INSERT INTO t VALUES ({i}, {})", i * 2)) {
                Ok(_) => acked.push(i),
                Err(e) => {
                    // The torn write: this commit was never acknowledged.
                    assert!(
                        matches!(e, DbError::FaultInjected(_)),
                        "unexpected error: {e}"
                    );
                    torn = Some(i);
                    break;
                }
            }
        }
        let torn = torn.unwrap_or_else(|| panic!("torn-write fault never fired (seed={seed:#x})"));
        assert_eq!(acked, vec![0, 1, 2], "DDL + 3 commits precede the tear");

        // A new snapshot does not see the torn commit's row.
        let seen = db.query(&format!("SELECT COUNT(*) FROM t WHERE id = {torn}")).unwrap();
        assert_eq!(seen[0][0], Value::Int(0), "the torn commit is visible");
        let rows = db.query("SELECT id FROM t ORDER BY id").unwrap();
        let ids: Vec<i64> = rows.iter().map(|r| r[0].as_int().unwrap()).collect();
        assert_eq!(ids, acked);

        // The next commit — explicit, auto-commit, or DDL — fails typed,
        // and leaves nothing visible behind.
        let mut s = db.session();
        s.execute("BEGIN").unwrap();
        s.execute("INSERT INTO t VALUES (100, 200)").unwrap();
        let err = s.execute("COMMIT").unwrap_err();
        assert!(matches!(err, DbError::Io(_)), "{err}");
        assert!(!s.in_transaction());
        let err = db.execute("INSERT INTO t VALUES (101, 202)").unwrap_err();
        assert!(matches!(err, DbError::Io(_)), "{err}");
        let err = db.execute("CREATE TABLE u (id BIGINT PRIMARY KEY)").unwrap_err();
        assert!(matches!(err, DbError::Io(_)), "{err}");
        assert!(db.table("u").is_err(), "DDL the log refused was applied");
        assert_eq!(db.query("SELECT COUNT(*) FROM t").unwrap()[0][0], Value::Int(3));
        // Process "crashes" here: db dropped without clean shutdown.
    }

    let db = Database::open(&path).unwrap();
    let rows = db.query("SELECT id, v FROM t ORDER BY id").unwrap();
    let got: Vec<i64> = rows.iter().map(|r| r[0].as_int().unwrap()).collect();
    assert_eq!(got, acked, "recovery must equal the acked set, exactly");
    for r in &rows {
        assert_eq!(
            r[1],
            Value::Int(r[0].as_int().unwrap() * 2),
            "row payload corrupted by recovery"
        );
    }
    // Reopened, the database writes again.
    db.execute("INSERT INTO t VALUES (3, 6)").unwrap();
    drop(db);
    let db = Database::open(&path).unwrap();
    assert_eq!(db.query("SELECT COUNT(*) FROM t").unwrap()[0][0], Value::Int(4));
    std::fs::remove_file(&path).unwrap();
}

/// Scenario 4, concurrent: four threads commit while one append tears. A
/// commit racing the torn one must not be logged behind the torn frame
/// and acknowledged — replay reads nothing behind it — so every commit
/// either is acknowledged and survives reopen, or fails typed (the torn
/// one `FaultInjected`, every later one `Io`). The race is a matter of
/// timing, so the scenario runs in rounds, each tearing at another point.
#[test]
fn chaos_torn_wal_tail_under_concurrent_commits() {
    for round in 0..16 {
        torn_wal_tail_under_concurrent_commits(round);
    }
}

fn torn_wal_tail_under_concurrent_commits(round: u64) {
    const THREADS: i64 = 4;
    const PER_THREAD: i64 = 150;
    let seed = seed_for(4) ^ round;
    let dir = std::env::temp_dir().join(format!("oltap_chaos_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("chaos_torn_concurrent.wal");
    let _ = std::fs::remove_file(&path);

    let mut acked: Vec<i64> = Vec::new();
    {
        let faults = FaultInjector::new(seed);
        faults.arm(points::WAL_TORN_WRITE, FaultPoint::times(1).after(40 + 20 * round));
        let db = Database::with_config(DbConfig {
            wal_path: Some(path.clone()),
            faults: Some(faults),
            ..DbConfig::default()
        })
        .unwrap();
        db.execute("CREATE TABLE t (id BIGINT PRIMARY KEY, v BIGINT)")
            .unwrap();
        let workers: Vec<_> = (0..THREADS)
            .map(|w| {
                let db = Arc::clone(&db);
                std::thread::spawn(move || {
                    let (mut ok, mut torn, mut refused) = (Vec::new(), 0, 0);
                    for i in 0..PER_THREAD {
                        let id = w * PER_THREAD + i;
                        match db.execute(&format!("INSERT INTO t VALUES ({id}, {})", id * 2)) {
                            Ok(_) => ok.push(id),
                            Err(DbError::FaultInjected(_)) => torn += 1,
                            Err(DbError::Io(_)) => refused += 1,
                            Err(e) => panic!("unexpected error: {e}"),
                        }
                    }
                    (ok, torn, refused)
                })
            })
            .collect();
        let (mut torn, mut refused) = (0, 0);
        for h in workers {
            let (ok, t, r) = h.join().unwrap();
            acked.extend(ok);
            torn += t;
            refused += r;
        }
        assert_eq!(torn, 1, "exactly one append tears (seed={seed:#x})");
        assert_eq!(acked.len() + torn + refused, (THREADS * PER_THREAD) as usize);
        assert!(refused > 0, "nothing committed after the tear");
        acked.sort_unstable();
        let rows = db.query("SELECT id FROM t ORDER BY id").unwrap();
        let ids: Vec<i64> = rows.iter().map(|r| r[0].as_int().unwrap()).collect();
        assert_eq!(ids, acked, "visible rows differ from the acknowledged set (seed={seed:#x})");
    }

    let db = Database::open(&path).unwrap();
    let rows = db.query("SELECT id FROM t ORDER BY id").unwrap();
    let got: Vec<i64> = rows.iter().map(|r| r[0].as_int().unwrap()).collect();
    assert_eq!(
        got, acked,
        "an acknowledged commit was lost behind the torn frame (seed={seed:#x})"
    );
    drop(db);
    std::fs::remove_file(&path).unwrap();
}

/// Scenario 5 — node crash + restart with a wiped data disk, under a
/// lossy network: the restarted replicas rebuild purely from their Raft
/// logs and the whole cluster converges to the pre-crash state.
#[test]
fn chaos_crash_restart_rebuilds_from_log() {
    let seed = seed_for(5);
    let faults = FaultInjector::new(seed);
    faults.arm(points::RAFT_DROP_MSG, FaultPoint::with_probability(0.05));
    let cfg = ClusterConfig {
        nodes: 3,
        replication: 3,
        partitions: 2,
        raft: RaftConfig::default(),
    };
    let t = DistributedTable::new_with_faults(schema(), cfg, faults).unwrap();
    for i in 0..30i64 {
        t.insert(row![i, i * 3]).unwrap();
    }
    assert!(t.wait_converged(Duration::from_secs(20)));
    let before = t.query("SELECT * FROM t ORDER BY id").unwrap();
    assert_eq!(before.len(), 30);

    // Node 1 dies and loses its data disk; writes continue on the
    // surviving majority while it is down.
    t.crash_node(1);
    for i in 30..40i64 {
        t.insert(row![i, i * 3]).unwrap();
    }
    t.restart_node_rebuilt(1);
    assert!(
        t.wait_converged(Duration::from_secs(30)),
        "wiped node failed to rebuild (seed={seed:#x})"
    );
    let after = t.query("SELECT * FROM t ORDER BY id").unwrap();
    assert_eq!(after.len(), 40, "committed writes lost across crash");
    assert_eq!(&after[..30], &before[..], "pre-crash rows changed");
}

/// Scenario 6 — reproducibility: the same seed produces the identical
/// fault schedule, decision log, and byte-identical WAL image; a
/// different seed diverges. This is what makes every other scenario
/// replayable.
#[test]
fn chaos_same_seed_reproduces_schedule() {
    let run = |seed: u64| {
        let faults = FaultInjector::new(seed);
        faults.arm(points::WAL_TORN_WRITE, FaultPoint::with_probability(0.3));
        faults.arm(points::WAL_CRC_CORRUPT, FaultPoint::with_probability(0.1));
        let wal = oltapdb::txn::wal::Wal::with_faults(Arc::clone(&faults));
        let mut outcomes = Vec::new();
        for i in 0..64u64 {
            let rec = oltapdb::txn::wal::CommitRecord {
                txn: oltapdb::common::ids::TxnId(i + 1),
                commit_ts: i + 1,
                ops: vec![oltapdb::txn::wal::WalOp::Insert {
                    table: "t".into(),
                    row: row![i as i64, 0i64],
                }],
            };
            outcomes.push(wal.append(&rec).is_ok());
        }
        (outcomes, wal.to_bytes(), faults.decisions())
    };
    let (o1, b1, d1) = run(0xABCD);
    let (o2, b2, d2) = run(0xABCD);
    assert_eq!(o1, o2, "same seed, different append outcomes");
    assert_eq!(b1, b2, "same seed, different WAL bytes");
    assert_eq!(d1, d2, "same seed, different decision log");
    let (o3, _, _) = run(0xABCE);
    assert_ne!(o1, o3, "different seed should produce a different schedule");
}

/// Scenario 7 — query deadlines under load: a SELECT whose deadline has
/// expired terminates within one batch boundary with a cancellation
/// error, while the same session keeps working afterwards. (The unit
/// variant lives in oltap-core; this exercises it through SQL on a
/// larger table.)
#[test]
fn chaos_expired_deadline_terminates_promptly() {
    let db = Database::new();
    db.execute("CREATE TABLE m (id BIGINT PRIMARY KEY, v BIGINT)")
        .unwrap();
    for chunk in 0..8 {
        let vals: Vec<String> = (0..500)
            .map(|i| {
                let id = chunk * 500 + i;
                format!("({id}, {})", id % 97)
            })
            .collect();
        db.execute(&format!("INSERT INTO m VALUES {}", vals.join(", ")))
            .unwrap();
    }
    let mut s = db.session();
    s.set_query_timeout(Some(Duration::ZERO));
    let started = std::time::Instant::now();
    let err = s
        .execute("SELECT v, COUNT(*) FROM m GROUP BY v ORDER BY v")
        .unwrap_err();
    // Deadline expiry is its own typed error, distinct from an explicit
    // cancel — callers can retry deadline losses but not user cancels.
    assert!(matches!(err, DbError::DeadlineExceeded(_)), "{err}");
    assert!(
        started.elapsed() < Duration::from_secs(2),
        "cancellation took too long: {:?}",
        started.elapsed()
    );
    s.set_query_timeout(Some(Duration::from_secs(30)));
    let rows = s.execute("SELECT COUNT(*) FROM m").unwrap();
    assert_eq!(rows.rows()[0][0], Value::Int(4000));

    // The fused shape: an aggregate straight over a column table's merged
    // segment (one row group of all its rows) looks at the deadline too.
    db.execute("CREATE TABLE mc (id BIGINT PRIMARY KEY, v BIGINT, f DOUBLE) USING FORMAT COLUMN")
        .unwrap();
    for chunk in 0..8 {
        let vals: Vec<String> = (0..500)
            .map(|i| {
                let id = chunk * 500 + i;
                format!("({id}, {}, {}.5)", id % 97, id % 97)
            })
            .collect();
        db.execute(&format!("INSERT INTO mc VALUES {}", vals.join(", ")))
            .unwrap();
    }
    db.maintenance();
    let fused = "SELECT v, COUNT(*), SUM(f), AVG(f) FROM mc GROUP BY v ORDER BY v";
    assert_eq!(s.execute(fused).unwrap().rows().len(), 97);
    s.set_query_timeout(Some(Duration::ZERO));
    let started = std::time::Instant::now();
    let err = s.execute(fused).unwrap_err();
    assert!(matches!(err, DbError::DeadlineExceeded(_)), "{err}");
    assert!(started.elapsed() < Duration::from_secs(2), "{:?}", started.elapsed());
}

/// Scenario 8 — join-build faults: `exec.join_build_fail` kills
/// partitioned-build morsels probabilistically; the pipeline driver
/// retries each boundary transparently — on the inline one-worker run
/// and on the pool alike — and the results agree. An `always()`-armed
/// variant must exhaust the bounded retries and surface a clean
/// `FaultInjected` error rather than hanging or corrupting the table.
#[test]
fn chaos_join_build_faults_retry_then_give_up() {
    let seed = seed_for(8);

    let setup = |faults: Arc<FaultInjector>| {
        let db = Database::with_config(DbConfig {
            wal_path: None,
            faults: Some(faults),
            ..DbConfig::default()
        })
        .unwrap();
        db.execute(
            "CREATE TABLE fact (id BIGINT PRIMARY KEY, g BIGINT, v BIGINT) USING FORMAT COLUMN",
        )
        .unwrap();
        db.execute("CREATE TABLE dim (g BIGINT PRIMARY KEY, w BIGINT) USING FORMAT ROW")
            .unwrap();
        let fact = db.table("fact").unwrap();
        let tx = db.txn_manager().begin();
        for i in 0..400i64 {
            fact.insert(&tx, row![i, i % 12, i % 7]).unwrap();
        }
        tx.commit().unwrap();
        let dim = db.table("dim").unwrap();
        let tx = db.txn_manager().begin();
        for g in 0..100i64 {
            dim.insert(&tx, row![g, g * 10]).unwrap();
        }
        tx.commit().unwrap();
        db.maintenance();
        db
    };
    let sql = "SELECT fact.id, dim.w FROM fact JOIN dim ON fact.g = dim.g";

    // Transient fault: the first build morsel fails three times; each is
    // retried transparently (the bound is 16) and results are unchanged.
    let faults = FaultInjector::new(seed);
    faults.arm(points::EXEC_JOIN_BUILD_FAIL, FaultPoint::times(3));
    let db = setup(Arc::clone(&faults));
    db.set_parallelism(1);
    let serial = db.query(sql).unwrap();
    db.set_parallelism(4);
    let parallel = db.query(sql).unwrap();
    assert_eq!(serial, parallel, "join diverged under build faults");
    assert!(
        faults.fired_count() > 0,
        "join-build fault never fired (seed={seed:#x})"
    );

    // Permanent fault: the bounded retry must give up with a clean error.
    let faults = FaultInjector::new(seed ^ 1);
    faults.arm(points::EXEC_JOIN_BUILD_FAIL, FaultPoint::always());
    let db = setup(Arc::clone(&faults));
    db.set_parallelism(4);
    let err = db.query(sql).unwrap_err();
    assert!(matches!(err, DbError::FaultInjected(_)), "{err}");
    // The engine survives: disarmed queries on the same database work.
    faults.disarm(points::EXEC_JOIN_BUILD_FAIL);
    db.set_parallelism(1);
    assert!(!db.query(sql).unwrap().is_empty());
}

/// Scenario 8b — exec fault points are worker-count independent: the
/// inline one-worker run probes `exec.morsel_fail` and
/// `exec.join_build_fail` at the same boundaries as a four-worker run.
/// Armed `always()`, both exhaust the bounded retries into a typed
/// `FaultInjected`; armed `times(3)`, both retry transparently and return
/// the unfaulted answer.
#[test]
fn chaos_exec_faults_fire_at_one_worker_as_at_four() {
    let seed = seed_for(8) ^ 0xb;
    let faults = FaultInjector::new(seed);
    let db = Database::with_config(DbConfig {
        wal_path: None,
        faults: Some(Arc::clone(&faults)),
        ..DbConfig::default()
    })
    .unwrap();
    db.execute("CREATE TABLE fact (id BIGINT PRIMARY KEY, g BIGINT, v BIGINT) USING FORMAT COLUMN")
        .unwrap();
    db.execute("CREATE TABLE dim (g BIGINT PRIMARY KEY, w BIGINT) USING FORMAT ROW")
        .unwrap();
    let vals: Vec<String> = (0..400)
        .map(|i| format!("({i}, {}, {})", i % 12, i % 7))
        .collect();
    db.execute(&format!("INSERT INTO fact VALUES {}", vals.join(", ")))
        .unwrap();
    let vals: Vec<String> = (0..12).map(|g| format!("({g}, {})", g * 10)).collect();
    db.execute(&format!("INSERT INTO dim VALUES {}", vals.join(", ")))
        .unwrap();
    db.maintenance();
    let sql = "SELECT fact.id, dim.w FROM fact JOIN dim ON fact.g = dim.g ORDER BY fact.id";
    let want = db.query(sql).unwrap();
    assert_eq!(want.len(), 400);

    for point in [points::EXEC_MORSEL_FAIL, points::EXEC_JOIN_BUILD_FAIL] {
        for workers in [1, 4] {
            db.set_parallelism(workers);
            faults.arm(point, FaultPoint::always());
            let err = db.query(sql).unwrap_err();
            assert!(
                matches!(err, DbError::FaultInjected(_)),
                "{point} workers={workers}: {err}"
            );
            let fired = faults.fired_count();
            faults.arm(point, FaultPoint::times(3));
            assert_eq!(
                db.query(sql).unwrap(),
                want,
                "{point} workers={workers} (seed={seed:#x})"
            );
            assert_eq!(faults.fired_count(), fired + 3, "{point} workers={workers}");
            faults.disarm(point);
        }
    }
}

/// A tiny memory configuration: per-query budgets small enough that the
/// scenarios' joins and aggregations must spill.
fn tiny_memory() -> oltapdb::core::MemoryConfig {
    oltapdb::core::MemoryConfig {
        total_bytes: 1 << 20,
        oltp_bytes: 256 << 10,
        olap_bytes: 768 << 10,
        query_bytes: 16 << 10,
    }
}

/// A mixed fact/dim database under memory governance and the given
/// injector, with enough rows that a 16 KiB query budget cannot hold a
/// join build or aggregation state resident.
fn governed_db(faults: Arc<FaultInjector>) -> Arc<Database> {
    let db = Database::with_config(DbConfig {
        wal_path: None,
        faults: Some(faults),
        memory: Some(tiny_memory()),
        ..DbConfig::default()
    })
    .unwrap();
    db.execute(
        "CREATE TABLE fact (id BIGINT PRIMARY KEY, g BIGINT, v BIGINT) USING FORMAT COLUMN",
    )
    .unwrap();
    db.execute("CREATE TABLE dim (g BIGINT PRIMARY KEY, w BIGINT) USING FORMAT ROW")
        .unwrap();
    let fact = db.table("fact").unwrap();
    let tx = db.txn_manager().begin();
    for i in 0..3000i64 {
        fact.insert(&tx, row![i, i % 500, i % 13]).unwrap();
    }
    tx.commit().unwrap();
    let dim = db.table("dim").unwrap();
    let tx = db.txn_manager().begin();
    for g in 0..500i64 {
        dim.insert(&tx, row![g, g * 10]).unwrap();
    }
    tx.commit().unwrap();
    db.maintenance();
    db
}

/// A fused aggregate's group states are the governor's to meter: a
/// high-cardinality `GROUP BY` that qualifies for fusion reserves per group
/// it creates, and when the query's budget refuses one, the attempt hands
/// everything back and the statement runs through the pipelines, whose sink
/// spills. Same rows as an unmetered database, and the pools are whole
/// again afterwards.
#[test]
fn fused_group_states_are_charged_to_the_governor() {
    let load = |memory| {
        let db = Database::with_config(DbConfig {
            wal_path: None,
            memory,
            ..DbConfig::default()
        })
        .unwrap();
        db.execute("CREATE TABLE wide (id BIGINT PRIMARY KEY, g BIGINT, f DOUBLE) USING FORMAT COLUMN")
            .unwrap();
        let t = db.table("wide").unwrap();
        let tx = db.txn_manager().begin();
        for i in 0..100_000i64 {
            t.insert(&tx, row![i, (i * 7919) % 50_000, i as f64 * 0.1]).unwrap();
        }
        tx.commit().unwrap();
        db.maintenance();
        db
    };
    let sql = "SELECT g, COUNT(*), SUM(f), AVG(f) FROM wide GROUP BY g ORDER BY g";
    let want = load(None).query(sql).unwrap();
    assert_eq!(want.len(), 50_000);

    let db = load(Some(tiny_memory()));
    let gov = db.memory_governor().unwrap();
    let baseline = gov.total_used();
    // A few groups fit the budget: the fused path answers, metered.
    let few = db.query("SELECT g, COUNT(*) FROM wide WHERE g < 20 GROUP BY g ORDER BY g").unwrap();
    assert_eq!(few.len(), 20);
    assert_eq!(gov.spill_events(), 0, "twenty groups must fit 16 KiB");
    assert_eq!(gov.total_used(), baseline);
    // Fifty thousand do not.
    for workers in [1, 4] {
        db.set_parallelism(workers);
        let spills = gov.spill_events();
        assert_eq!(db.query(sql).unwrap(), want, "workers={workers}");
        assert!(gov.spill_events() > spills, "workers={workers}: nothing spilled");
        assert_eq!(gov.total_used(), baseline, "workers={workers}: reservation leaked");
    }
}

/// Only the governor refusing a *group* sends a fused aggregate back to the
/// pipelines. A buffer pool too small to pin one row group's inputs side by
/// side refuses with the same error type, mid-scan; that one is the
/// statement's typed error, as it was before group states were metered, and
/// nothing is left charged to the query classes.
#[test]
fn fused_aggregate_surfaces_a_buffer_refusal() {
    use oltapdb::common::mem::WorkloadClass;
    let db = Database::with_config(DbConfig {
        wal_path: None,
        memory: Some(tiny_memory()),
        // One 64-row page of doubles is 512 bytes: this holds one, not two.
        buffer: Some(oltapdb::core::BufferConfig { pool_bytes: 900, page_rows: 64, page_root: None }),
        ..DbConfig::default()
    })
    .unwrap();
    db.execute("CREATE TABLE s (id BIGINT PRIMARY KEY, g BIGINT, a DOUBLE, b DOUBLE) USING FORMAT COLUMN")
        .unwrap();
    let vals: Vec<String> = (0..256).map(|i| format!("({i}, {}, {i}.25, {i}.5)", i % 5)).collect();
    db.execute(&format!("INSERT INTO s VALUES {}", vals.join(", "))).unwrap();
    db.maintenance();
    let gov = db.memory_governor().unwrap();
    assert_eq!(db.query("SELECT g, SUM(a) FROM s GROUP BY g ORDER BY g").unwrap().len(), 5);
    let err = db.query("SELECT g, SUM(a), SUM(b) FROM s GROUP BY g ORDER BY g").unwrap_err();
    assert!(matches!(&err, DbError::ResourceExhausted { class, .. } if class == "buffer"), "{err}");
    assert_eq!(gov.spill_events(), 0);
    assert_eq!(gov.used(WorkloadClass::Olap) + gov.used(WorkloadClass::Oltp), 0);
}

/// Scenario 9 — `mem.reserve_fail` mid join-build: seeded probabilistic
/// reservation failures force the radix build to spill partitions at
/// arbitrary points. The query must still complete, serial and parallel
/// results must stay byte-identical, and nothing may panic.
#[test]
fn chaos_mem_reserve_fail_mid_join_build() {
    let seed = seed_for(9);
    let faults = FaultInjector::new(seed);
    faults.arm(points::MEM_RESERVE_FAIL, FaultPoint::with_probability(0.25));
    let db = governed_db(Arc::clone(&faults));
    let sql = "SELECT fact.id, dim.w FROM fact JOIN dim ON fact.g = dim.g ORDER BY fact.id";
    db.set_parallelism(1);
    let serial = db.query(sql).unwrap();
    db.set_parallelism(4);
    let parallel = db.query(sql).unwrap();
    assert_eq!(serial.len(), 3000);
    assert_eq!(serial, parallel, "join diverged under reserve faults");
    assert!(
        faults.fired_count() > 0,
        "mem.reserve_fail never fired (seed={seed:#x})"
    );
    let gov = db.memory_governor().unwrap();
    assert!(gov.spill_events() > 0, "no spills — scenario vacuous");

    // `always()`: every reservation is rejected. With a spill dir the
    // engine degrades all the way to disk and still answers correctly.
    let faults = FaultInjector::new(seed ^ 1);
    faults.arm(points::MEM_RESERVE_FAIL, FaultPoint::always());
    let db = governed_db(faults);
    db.set_parallelism(4);
    let rows = db.query(sql).unwrap();
    assert_eq!(rows, serial, "always-failing reservations changed results");
}

/// Scenario 10 — `mem.reserve_fail` mid aggregate: the hash aggregator
/// freezes its group map and spills raw rows when reservations fail; the
/// replayed partitions must merge to exactly the unspilled answer, on
/// both the serial and the parallel path.
#[test]
fn chaos_mem_reserve_fail_mid_aggregate_spill() {
    let seed = seed_for(10);
    let faults = FaultInjector::new(seed);
    faults.arm(points::MEM_RESERVE_FAIL, FaultPoint::with_probability(0.25));
    let db = governed_db(Arc::clone(&faults));
    let sql = "SELECT g, COUNT(*), SUM(v), MIN(id), MAX(id) FROM fact GROUP BY g ORDER BY g";
    db.set_parallelism(1);
    let serial = db.query(sql).unwrap();
    db.set_parallelism(4);
    let parallel = db.query(sql).unwrap();
    assert_eq!(serial.len(), 500);
    assert_eq!(serial, parallel, "aggregate diverged under reserve faults");
    assert!(
        faults.fired_count() > 0,
        "mem.reserve_fail never fired (seed={seed:#x})"
    );

    // Ungoverned baseline: spilling must be invisible in the results.
    let clean = Database::new();
    clean
        .execute(
            "CREATE TABLE fact (id BIGINT PRIMARY KEY, g BIGINT, v BIGINT) USING FORMAT COLUMN",
        )
        .unwrap();
    let fact = clean.table("fact").unwrap();
    let tx = clean.txn_manager().begin();
    for i in 0..3000i64 {
        fact.insert(&tx, row![i, i % 500, i % 13]).unwrap();
    }
    tx.commit().unwrap();
    assert_eq!(
        clean.query(sql).unwrap(),
        serial,
        "spilled aggregation differs from the in-memory answer"
    );
}

/// Scenario 11 — spill hygiene: per-query scratch dirs vanish when the
/// query finishes, and crash leftovers under a durable database's spill
/// root are purged by recovery at next open.
#[test]
fn chaos_spill_files_cleaned_up_and_purged_after_crash() {
    let seed = seed_for(11);
    let dir = std::env::temp_dir().join(format!("oltap_chaos_spill_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("spill_leak.wal");
    let _ = std::fs::remove_file(&path);

    let spill_entries = |root: &std::path::Path| -> usize {
        match std::fs::read_dir(root) {
            Ok(rd) => rd.count(),
            Err(_) => 0,
        }
    };

    let root = {
        let faults = FaultInjector::new(seed);
        faults.arm(points::MEM_RESERVE_FAIL, FaultPoint::with_probability(0.5));
        let db = Database::with_config(DbConfig {
            wal_path: Some(path.clone()),
            faults: Some(faults),
            memory: Some(tiny_memory()),
            ..DbConfig::default()
        })
        .unwrap();
        db.execute("CREATE TABLE t (id BIGINT PRIMARY KEY, g BIGINT) USING FORMAT COLUMN")
            .unwrap();
        // SQL inserts so the rows are WAL-logged and survive the "crash".
        for chunk in (0..3000i64).collect::<Vec<_>>().chunks(500) {
            let values: Vec<String> = chunk.iter().map(|i| format!("({i}, {})", i % 400)).collect();
            db.execute(&format!("INSERT INTO t VALUES {}", values.join(", ")))
                .unwrap();
        }
        let rows = db
            .query("SELECT g, COUNT(*) FROM t GROUP BY g ORDER BY g")
            .unwrap();
        assert_eq!(rows.len(), 400);
        let root = db.spill_root().to_path_buf();
        // Completed queries leave nothing behind, even after spilling.
        assert_eq!(
            spill_entries(&root),
            0,
            "spill scratch leaked after query completion"
        );
        // Simulate a crash mid-query: a scratch dir exists at the moment
        // the process dies and its Drop never runs.
        std::fs::create_dir_all(root.join("q-crash-leftover")).unwrap();
        std::fs::write(root.join("q-crash-leftover/agg-p0-0.spill"), b"junk").unwrap();
        root
        // db dropped here: the "crash".
    };
    assert!(spill_entries(&root) > 0, "crash artifact setup failed");

    // Recovery startup purges everything under the spill root.
    let db = Database::open(&path).unwrap();
    assert_eq!(
        spill_entries(&root),
        0,
        "recovery did not purge crash-orphaned spill files"
    );
    assert_eq!(
        db.query("SELECT COUNT(*) FROM t").unwrap()[0][0],
        Value::Int(3000)
    );
    std::fs::remove_file(&path).unwrap();
}

// ---------------------------------------------------------------------------
// Cross-shard two-phase commit scenarios (12–15). All run on a small
// partitioned cluster plus a separately-replicated coordinator log; the
// invariant under every fault is ATOMICITY: after recovery, either every
// shard shows the batch or no shard does.
// ---------------------------------------------------------------------------

/// A 4-partition cluster for the 2PC scenarios.
fn twopc_cluster(faults: Arc<FaultInjector>, raft: RaftConfig) -> DistributedTable {
    let cfg = ClusterConfig {
        nodes: 3,
        replication: 3,
        partitions: 4,
        raft,
    };
    DistributedTable::new_with_faults(schema(), cfg, faults).unwrap()
}

/// Rows that provably hash to more than one partition.
fn batch_rows(t: &DistributedTable, n: i64) -> Vec<Row> {
    let rows: Vec<Row> = (0..n).map(|i| row![i, i * 10]).collect();
    let parts: std::collections::BTreeSet<usize> = rows
        .iter()
        .map(|r| t.partition_of(r).unwrap())
        .collect();
    assert!(parts.len() > 1, "batch must span multiple shards");
    rows
}

/// Waits for every replica's prepared-but-undecided set to drain.
fn wait_no_doubt(t: &DistributedTable, timeout: Duration) {
    let deadline = std::time::Instant::now() + timeout;
    while t.groups().iter().any(|g| !g.in_doubt().is_empty()) {
        assert!(
            std::time::Instant::now() < deadline,
            "in-doubt transactions never resolved"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// No replica dropped a command its Raft log delivered: every entry decoded
/// and found its table.
fn assert_no_dropped_commands(t: &DistributedTable) {
    for g in t.groups() {
        for r in &g.replicas {
            assert_eq!(r.store.dropped_commands(), 0, "partition {}", g.id);
        }
    }
}

/// Scenario 12 — coordinator crash between prepare and commit: every
/// shard is prepared, then the coordinator dies before logging any
/// decision. Participants hold the prepared (invisible) versions; a
/// successor coordinator finds no decision record and resolves by
/// presumed abort. No shard may show any batch row, ever.
#[test]
fn chaos_2pc_coordinator_crash_between_prepare_and_commit() {
    let seed = seed_for(12);
    let coord_faults = FaultInjector::new(seed);
    coord_faults.arm(
        points::TWOPC_COORD_CRASH_AFTER_PREPARE,
        FaultPoint::times(1),
    );
    let t = twopc_cluster(FaultInjector::disabled(), RaftConfig::default());
    let coord = TwoPcCoordinator::new(3, Arc::clone(&coord_faults)).unwrap();

    let rows = batch_rows(&t, 8);
    let err = coord.commit_rows(&t, rows).unwrap_err();
    let gtxn = match err {
        DbError::TxnInDoubt { gtxn } => gtxn,
        e => panic!("expected TxnInDoubt, got {e}"),
    };
    // The crash point really fired, and before any decision was logged.
    assert!(
        coord_faults
            .decisions_at(points::TWOPC_COORD_CRASH_AFTER_PREPARE)
            .iter()
            .any(|d| d.fired),
        "crash point never fired — scenario vacuous (seed={seed:#x})"
    );
    assert_eq!(coord.decision_for(gtxn), None, "no decision may exist");
    // Participants are genuinely in doubt (prepared, invisible).
    assert!(
        t.groups().iter().any(|g| g.in_doubt().contains(&gtxn)),
        "no participant holds a prepare — scenario vacuous"
    );
    assert_eq!(t.query("SELECT * FROM t ORDER BY id").unwrap(), Vec::<Row>::new());

    // Successor takes over the replicated log: presumed abort.
    let log = coord.log();
    drop(coord);
    let coord2 = TwoPcCoordinator::attach(log, FaultInjector::disabled()).unwrap();
    let report = coord2.resolve_in_doubt(&t).unwrap();
    assert_eq!(report.presumed_aborted, vec![gtxn]);
    assert_eq!(coord2.decision_for(gtxn), Some(false), "abort now durable");
    wait_no_doubt(&t, Duration::from_secs(15));
    assert_eq!(
        t.query("SELECT * FROM t ORDER BY id").unwrap(),
        Vec::<Row>::new(),
        "presumed-abort leaked rows (seed={seed:#x})"
    );
    assert_no_dropped_commands(&t);
}

/// Scenario 13 — participant crash after prepare, coordinator crash after
/// decision: the worst double fault. One replica kills itself the moment
/// its prepare is applied; the coordinator then logs COMMIT but dies
/// before delivering it. The restarted participant re-stages the prepare
/// from its Raft log and stays in doubt until a successor coordinator
/// re-delivers the logged decision — the batch must then be complete on
/// every shard.
#[test]
fn chaos_2pc_participant_crash_resolved_at_recovery() {
    let seed = seed_for(13);
    let cluster_faults = FaultInjector::new(seed);
    cluster_faults.arm(
        points::TWOPC_PARTICIPANT_CRASH_PREPARED,
        FaultPoint::times(1),
    );
    let coord_faults = FaultInjector::new(seed ^ 1);
    coord_faults.arm(
        points::TWOPC_COORD_CRASH_AFTER_DECISION,
        FaultPoint::times(1),
    );
    let t = twopc_cluster(Arc::clone(&cluster_faults), RaftConfig::default());
    let coord = TwoPcCoordinator::new(3, Arc::clone(&coord_faults)).unwrap();

    let rows = batch_rows(&t, 8);
    let err = coord.commit_rows(&t, rows.clone()).unwrap_err();
    let gtxn = match err {
        DbError::TxnInDoubt { gtxn } => gtxn,
        e => panic!("expected TxnInDoubt, got {e}"),
    };
    assert_eq!(
        coord.decision_for(gtxn),
        Some(true),
        "decision was logged before the coordinator died"
    );
    // A participant replica actually died holding a prepare.
    assert!(
        cluster_faults
            .decisions_at(points::TWOPC_PARTICIPANT_CRASH_PREPARED)
            .iter()
            .any(|d| d.fired),
        "participant crash never fired — scenario vacuous (seed={seed:#x})"
    );
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let dead: Vec<(usize, usize)> = t
            .groups()
            .iter()
            .enumerate()
            .flat_map(|(gi, g)| {
                g.replicas
                    .iter()
                    .enumerate()
                    .filter(|(_, r)| !r.raft.is_running())
                    .map(move |(ri, _)| (gi, ri))
            })
            .collect();
        if !dead.is_empty() {
            // Restart the dead replicas: each re-applies its log, which
            // re-stages the prepare — prepared state survives the crash.
            for (gi, ri) in dead {
                t.groups()[gi].replicas[ri].raft.restart();
            }
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "armed participant crash killed no replica"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    // Successor coordinator re-delivers the logged commit.
    let log = coord.log();
    drop(coord);
    let coord2 = TwoPcCoordinator::attach(log, FaultInjector::disabled()).unwrap();
    let report = coord2.resolve_in_doubt(&t).unwrap();
    assert!(report.resumed.contains(&gtxn), "logged commit must resume");
    wait_no_doubt(&t, Duration::from_secs(15));
    let mut expect = rows;
    expect.sort();
    assert_eq!(
        t.query("SELECT * FROM t ORDER BY id").unwrap(),
        expect,
        "committed batch incomplete after recovery (seed={seed:#x})"
    );
    assert_no_dropped_commands(&t);
}

/// Scenario 14 — decision-message loss: the first three decision
/// deliveries vanish in flight. The coordinator must retry until every
/// participant applies the outcome; the commit completes in one call with
/// no external recovery.
#[test]
fn chaos_2pc_decision_message_loss_retried_until_resolved() {
    let seed = seed_for(14);
    let coord_faults = FaultInjector::new(seed);
    coord_faults.arm(points::TWOPC_DECISION_MSG_DROP, FaultPoint::times(3));
    let t = twopc_cluster(FaultInjector::disabled(), RaftConfig::default());
    let coord = TwoPcCoordinator::new(3, Arc::clone(&coord_faults)).unwrap();

    let rows = batch_rows(&t, 8);
    let outcome = coord.commit_rows(&t, rows.clone()).unwrap();
    assert_eq!(outcome, TwoPcOutcome::Committed);
    let drops = coord_faults
        .decisions_at(points::TWOPC_DECISION_MSG_DROP)
        .iter()
        .filter(|d| d.fired)
        .count();
    assert_eq!(drops, 3, "all armed message drops consumed (seed={seed:#x})");
    wait_no_doubt(&t, Duration::from_secs(15));
    let mut expect = rows;
    expect.sort();
    assert_eq!(t.query("SELECT * FROM t ORDER BY id").unwrap(), expect);
    assert_no_dropped_commands(&t);
}

/// Scenario 15 — snapshot-install failure during catch-up: a node misses
/// enough writes that the leader has compacted past its position and must
/// send a snapshot; the first installs fail (armed fault). The leader
/// retries on subsequent heartbeats and the node still converges — from
/// the snapshot plus the log tail, not a full-history replay.
#[test]
fn chaos_2pc_snapshot_install_failure_falls_back_to_replay() {
    let seed = seed_for(15);
    let cluster_faults = FaultInjector::new(seed);
    cluster_faults.arm(points::RAFT_SNAPSHOT_INSTALL_FAIL, FaultPoint::times(2));
    let raft = RaftConfig {
        snapshot_threshold: Some(12),
        ..RaftConfig::default()
    };
    let cfg = ClusterConfig {
        nodes: 3,
        replication: 3,
        partitions: 1,
        raft,
    };
    let t = DistributedTable::new_with_faults(schema(), cfg, Arc::clone(&cluster_faults))
        .unwrap();
    for i in 0..10i64 {
        t.insert(row![i, i]).unwrap();
    }
    assert!(t.wait_converged(Duration::from_secs(15)));

    // Node 1 goes down and misses enough writes that every leader
    // compacts past its log position.
    t.crash_node(1);
    for i in 10..50i64 {
        t.insert(row![i, i]).unwrap();
    }
    let g = &t.groups()[0];
    {
        let deadline = std::time::Instant::now() + Duration::from_secs(15);
        loop {
            let compacted = g
                .replicas
                .iter()
                .filter(|r| r.raft.is_running())
                .filter_map(|r| r.raft.report())
                .any(|rep| rep.snap_index > 10);
            if compacted {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "leader never compacted — scenario vacuous (seed={seed:#x})"
            );
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    t.restart_node(1);
    assert!(
        t.wait_converged(Duration::from_secs(30)),
        "node failed to converge despite install retries (seed={seed:#x})"
    );
    assert!(
        cluster_faults
            .decisions_at(points::RAFT_SNAPSHOT_INSTALL_FAIL)
            .iter()
            .any(|d| d.fired),
        "install-failure fault never fired — scenario vacuous"
    );
    assert_eq!(t.query("SELECT * FROM t ORDER BY id").unwrap().len(), 50, "rows lost in catch-up");
    // The restarted replica recovered via snapshot + tail: it holds a
    // snapshot and applied far fewer entries than the full history.
    let rep = g.replicas[1].raft.report().unwrap();
    assert!(rep.snap_index > 0, "no snapshot on the restarted node");
    assert!(
        rep.applied_since_boot < 50,
        "node replayed the full history ({} entries) instead of using the snapshot",
        rep.applied_since_boot
    );
    assert_no_dropped_commands(&t);
}

// ---------------------------------------------------------------------------
// Buffer-manager scenarios (16–17): columnar base data lives in on-disk
// page files behind a clock-evicted buffer pool, so torn page reads and
// eviction races are first-class fault surfaces. The invariants: page
// corruption surfaces as a typed error (never a panic, never silently
// wrong rows), and eviction interference never changes query results.

/// A paged column-store database: a `pages` fact table whose merged main
/// segments live in page files behind a `pool_bytes` buffer pool.
fn paged_db(faults: Arc<FaultInjector>, pool_bytes: u64) -> Arc<Database> {
    let db = Database::with_config(DbConfig {
        wal_path: None,
        faults: Some(faults),
        buffer: Some(oltapdb::core::BufferConfig {
            pool_bytes,
            page_rows: 64,
            page_root: None,
        }),
        ..DbConfig::default()
    })
    .unwrap();
    load_pages_table(&db);
    db
}

fn load_pages_table(db: &Arc<Database>) {
    db.execute(
        "CREATE TABLE pages (id BIGINT PRIMARY KEY, g BIGINT, v BIGINT) USING FORMAT COLUMN",
    )
    .unwrap();
    let t = db.table("pages").unwrap();
    let tx = db.txn_manager().begin();
    for i in 0..2000i64 {
        t.insert(&tx, row![i, i % 50, i * 7 % 17]).unwrap();
    }
    tx.commit().unwrap();
    // Merge the delta into paged main segments.
    db.maintenance();
}

/// Scenario 16 — `storage.page_read_fail`: a bit flips on the read path
/// of a column page. The CRC check must turn it into a typed
/// `Corruption` error from the query — no panic, no partial batch — and
/// because failed loads cache nothing, the very next read of the same
/// page succeeds with the correct bytes.
#[test]
fn chaos_corrupt_page_read_is_a_typed_error_not_a_panic() {
    let seed = seed_for(16);
    let faults = FaultInjector::new(seed);
    // Pool far smaller than the data: every query must fault pages back
    // in, so an armed read fault is guaranteed to be exercised.
    let db = paged_db(Arc::clone(&faults), 2048);
    let sql = "SELECT g, COUNT(*), SUM(v) FROM pages GROUP BY g ORDER BY g";
    let clean = db.query(sql).unwrap();
    assert_eq!(clean.len(), 50);
    let stats = db.buffer_stats().unwrap();
    assert!(stats.misses > 0, "paged scan faulted nothing — vacuous");

    faults.arm(points::STORAGE_PAGE_READ_FAIL, FaultPoint::times(2));
    for attempt in 0..2 {
        let err = db.query(sql).unwrap_err();
        assert!(
            matches!(err, DbError::Corruption(_)),
            "attempt {attempt}: expected Corruption, got {err} (seed={seed:#x})"
        );
    }
    assert_eq!(
        faults.fired_count(),
        2,
        "page-read fault never fired — scenario vacuous (seed={seed:#x})"
    );
    // The corruption was injected on the read path, not persisted, and a
    // failed load leaves no poisoned frame behind: the same query now
    // returns exactly the pre-fault answer.
    assert_eq!(db.query(sql).unwrap(), clean);
    // And the database still accepts writes afterwards.
    db.execute("INSERT INTO pages VALUES (99999, 0, 0)").unwrap();
    assert_eq!(
        db.query("SELECT COUNT(*) FROM pages").unwrap()[0][0],
        Value::Int(2001)
    );
}

/// Scenario 16b — the same fault on the point path: a primary-key
/// `SELECT` on a paged table is answered by a key lookup that faults the
/// row's pages in (`AccessPath::PkPoint`), so scenario 16's claim must
/// hold there too — typed `Corruption`, nothing cached, a clean re-read.
#[test]
fn chaos_corrupt_page_read_on_point_select_is_typed_then_clean() {
    let seed = seed_for(16) ^ 0xB;
    let faults = FaultInjector::new(seed);
    let db = paged_db(Arc::clone(&faults), 2048);
    let point = |id: i64| format!("SELECT g, v FROM pages WHERE id = {id}");
    let explain = db.query(&format!("EXPLAIN {}", point(1900))).unwrap();
    assert!(
        format!("{explain:?}").contains("access=pk-point"),
        "{explain:?}"
    );
    assert_eq!(db.query(&point(70)).unwrap(), vec![row![20i64, 14i64]]);
    // Push every page out of the tiny pool, so the next lookup — in a row
    // group far from the last one — has to read from disk.
    db.query("SELECT g, COUNT(*) FROM pages GROUP BY g")
        .unwrap();
    let misses = db.buffer_stats().unwrap().misses;

    faults.arm(points::STORAGE_PAGE_READ_FAIL, FaultPoint::times(1));
    let err = db.query(&point(1900)).unwrap_err();
    assert!(
        matches!(err, DbError::Corruption(_)),
        "expected Corruption, got {err} (seed={seed:#x})"
    );
    assert_eq!(
        faults.fired_count(),
        1,
        "page-read fault never fired — scenario vacuous (seed={seed:#x})"
    );
    assert!(db.buffer_stats().unwrap().misses > misses);
    // Injected on the read path, not persisted, and nothing poisoned:
    assert_eq!(
        db.query(&point(1900)).unwrap(),
        vec![row![1900i64 % 50, 1900i64 * 7 % 17]]
    );
}

/// Scenario 16c — the same fault on a page the pager's loader read ahead
/// of a scan. The loader reads, verifies and decodes the pages of the row
/// groups a pass has yet to reach, on its own thread; a page that fails
/// its checksum there must reach the pass that asks for that page as the
/// same typed `Corruption` — not be swallowed, not be re-read behind the
/// pass's back — and a clean re-read must follow. The schedule is exact:
/// groups 0–3 are resident but for one page of group 2, whose read (probe
/// 0, the pass's own) starts the loader on groups 4 and later; the fault
/// fires on probe 1, the loader's first read, page (4, id).
#[test]
fn chaos_corrupt_page_read_ahead_reaches_the_pass_that_asks_for_it() {
    use oltapdb::common::ids::{SegmentId, TxnId};
    use oltapdb::storage::{BufferManager, CmpOp, ScanPredicate, Segment, SegmentPager};
    let seed = seed_for(16) ^ 0xC;
    let faults = FaultInjector::new(seed);
    let (groups, rows_per_group) = (40usize, 64usize);
    let root = std::env::temp_dir().join(format!("oltap-chaos-16c-{}", std::process::id()));
    let buffer = BufferManager::new(u64::MAX, None, Arc::clone(&faults));
    let pager = SegmentPager::new(&root, buffer, rows_per_group, Arc::clone(&faults));
    let rows: Vec<Row> = (0..(groups * rows_per_group) as i64)
        .map(|i| row![i, i * 7 % 17])
        .collect();
    let seg = Segment::from_rows(SegmentId(1), schema(), &rows, 0, Some(&pager)).unwrap();
    for (g, c) in [(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (3, 0), (3, 1)] {
        seg.column_chunk(g, c).unwrap();
    }
    faults.arm(
        points::STORAGE_PAGE_READ_FAIL,
        FaultPoint::times(1).after(1),
    );

    // One pass as a fused aggregate makes it: the filter column, then `v`.
    let pred = ScanPredicate::single(0, CmpOp::Ge, Value::Int(0));
    let sum_of_v = |stop_at: usize| -> Result<i64, (usize, DbError)> {
        let mut selector = seg.selector(&pred, 1, TxnId(u64::MAX)).unwrap().unwrap();
        let chunks = selector.chunks();
        let mut sum = 0;
        for g in 0..groups {
            let rows: Vec<usize> = match selector.select_group(g).map_err(|e| (g, e))? {
                Some(local) => local.iter_ones().collect(),
                None => continue,
            };
            let v = chunks.column_chunk(g, 1).map_err(|e| (g, e))?;
            sum += rows
                .iter()
                .map(|&i| v.value_at(i).as_int().unwrap())
                .sum::<i64>();
            if g == stop_at {
                // Let the loader read everything it was given first.
                let deadline = std::time::Instant::now() + Duration::from_secs(10);
                while pager.buffer().stats().loader_loads < 2 * (groups as u64 - 4) {
                    assert!(
                        std::time::Instant::now() < deadline,
                        "the loader never read ahead"
                    );
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
        }
        Ok(sum)
    };
    let failed = sum_of_v(2).unwrap_err();
    assert!(
        matches!(failed, (4, DbError::Corruption(_))),
        "expected Corruption at group 4, got {failed:?} (seed={seed:#x})"
    );
    let fired: Vec<u64> = (faults.decisions_at(points::STORAGE_PAGE_READ_FAIL).iter())
        .filter(|d| d.fired)
        .map(|d| d.probe)
        .collect();
    assert_eq!(
        fired,
        [1],
        "the fault was not the loader's read (seed={seed:#x})"
    );
    let stats = pager.buffer().stats();
    assert!(stats.loader_loads >= 2 * (groups as u64 - 4), "{stats:?}");
    assert_eq!(stats.pinned_bytes, 0);

    // Nothing corrupt was kept: the clean re-read returns the right sum.
    let want: i64 = (0..(groups * rows_per_group) as i64)
        .map(|i| i * 7 % 17)
        .sum();
    assert_eq!(sum_of_v(usize::MAX), Ok(want));
    drop(seg);
    drop(pager);
    let _ = std::fs::remove_dir_all(&root);
}

/// Scenario 16d — statements cut off mid-scan while the loader reads
/// ahead of them. Deadlines from 0 to 2 ms land anywhere in a paged
/// aggregate over a pool a quarter of its pages; whichever way each ends,
/// it leaves no page pinned and the next statement's answer is the
/// resident one; dropping the database then joins the loader thread
/// within a time bound.
#[test]
fn chaos_deadline_mid_read_ahead_leaves_no_pins() {
    let load = |db: &Arc<Database>| {
        let ddl =
            "CREATE TABLE big (id BIGINT PRIMARY KEY, g BIGINT, v DOUBLE) USING FORMAT COLUMN";
        db.execute(ddl).unwrap();
        let t = db.table("big").unwrap();
        let tx = db.txn_manager().begin();
        for i in 0..20_000i64 {
            t.insert(&tx, row![i, i % 13, (i % 1009) as f64 * 0.5])
                .unwrap();
        }
        tx.commit().unwrap();
        db.maintenance();
    };
    let resident = Database::new();
    load(&resident);
    let db = Database::with_config(DbConfig {
        buffer: Some(oltapdb::core::BufferConfig {
            pool_bytes: 64 << 10,
            page_rows: 64,
            page_root: None,
        }),
        ..DbConfig::default()
    })
    .unwrap();
    load(&db);
    let sql = "SELECT g, COUNT(*), SUM(v) FROM big WHERE id >= 0 GROUP BY g ORDER BY g";
    let want = resident.query(sql).unwrap();
    let mut s = db.session();
    let mut cut = 0;
    for micros in (0..2000).step_by(50) {
        s.set_query_timeout(Some(Duration::from_micros(micros)));
        match s.execute(sql) {
            Ok(rows) => assert_eq!(rows.rows(), &want[..], "deadline {micros} us"),
            Err(DbError::DeadlineExceeded(_)) => cut += 1,
            Err(e) => panic!("deadline {micros} us: {e}"),
        }
        assert_eq!(
            db.buffer_stats().unwrap().pinned_bytes,
            0,
            "deadline {micros} us"
        );
    }
    assert!(cut > 0, "no statement was cut off — vacuous");
    s.set_query_timeout(None);
    assert_eq!(s.execute(sql).unwrap().rows(), &want[..]);
    let stats = db.buffer_stats().unwrap();
    assert!(
        stats.loader_loads > 0,
        "the loader never read ahead — vacuous: {stats:?}"
    );
    drop(s);
    let started = std::time::Instant::now();
    drop(db);
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "drop took {:?}",
        started.elapsed()
    );
}

/// Scenario 7b — cancellation on the point path: a key lookup has no
/// morsel boundary of its own, so the check is explicit. A past-deadline
/// point `SELECT` fails with `DeadlineExceeded` and a cancelled one with
/// `Cancelled` — key present or absent — and the session keeps working.
#[test]
fn chaos_point_select_honours_deadline_and_cancel() {
    use oltapdb::common::CancellationToken;
    use oltapdb::core::physical::{execute_plan, snapshot_ctx, ExecContext};
    use oltapdb::sql::{bind_select, optimize, parse, Statement};

    let db = Database::new();
    db.execute("CREATE TABLE m (id BIGINT PRIMARY KEY, v BIGINT) USING FORMAT COLUMN")
        .unwrap();
    db.execute("INSERT INTO m VALUES (1, 10), (2, 20)").unwrap();
    db.maintenance();

    let mut s = db.session();
    s.set_query_timeout(Some(Duration::ZERO));
    for id in [1, 999] {
        let err = s
            .execute(&format!("SELECT v FROM m WHERE id = {id}"))
            .unwrap_err();
        assert!(
            matches!(err, DbError::DeadlineExceeded(_)),
            "id={id}: {err}"
        );
        assert!(s.cancel_token().is_none() && s.activity().current().is_none());
    }
    s.set_query_timeout(None);
    let rows = s.execute("SELECT v FROM m WHERE id = 2").unwrap();
    assert_eq!(rows.rows(), [row![20i64]]);

    // An explicitly cancelled token, handed straight to the executor.
    for id in [1, 999] {
        let Statement::Select(sel) = parse(&format!("SELECT v FROM m WHERE id = {id}")).unwrap()
        else {
            unreachable!()
        };
        let catalog = db.catalog_read();
        let plan = optimize(bind_select(&sel, &*catalog).unwrap()).unwrap();
        assert!(
            plan.explain().contains("access=pk-point"),
            "{}",
            plan.explain()
        );
        let cancel = CancellationToken::new();
        cancel.cancel();
        let ctx = ExecContext {
            cancel,
            ..snapshot_ctx(db.txn_manager().now())
        };
        let err = execute_plan(&plan, &catalog, &ctx).unwrap_err();
        assert!(matches!(err, DbError::Cancelled(_)), "id={id}: {err}");
    }
}

/// Scenario 11b — a statement that does not spill leaves the file system
/// alone: under memory governance, a thousand point `SELECT`s and a fused
/// aggregate never create the spill root, let alone a `q-*` directory in
/// it; the first statement that does spill creates both, and its
/// directory is gone when it finishes.
#[test]
fn chaos_unspilled_statements_never_touch_the_spill_root() {
    let db = governed_db(FaultInjector::disabled());
    let root = db.spill_root().to_path_buf();
    let gov = db.memory_governor().unwrap();
    assert!(!root.exists(), "opening a database created {root:?}");

    for i in 0..1000i64 {
        let id = i * 3 % 3000;
        let rows = db
            .query(&format!("SELECT g, v FROM fact WHERE id = {id}"))
            .unwrap();
        assert_eq!(rows, vec![row![id % 500, id % 13]]);
    }
    let total = db.query("SELECT COUNT(*), SUM(g) FROM fact").unwrap();
    assert_eq!(total[0][0], Value::Int(3000));
    assert_eq!(gov.spill_events(), 0, "scenario meant not to spill");
    assert!(!root.exists(), "an unspilled statement created {root:?}");

    // The 16 KiB budget cannot hold 500 groups of five aggregates.
    let rows = db
        .query("SELECT g, COUNT(*), SUM(v), MIN(id), MAX(id) FROM fact GROUP BY g ORDER BY g")
        .unwrap();
    assert_eq!(rows.len(), 500);
    assert!(gov.spill_events() > 0, "no spill — scenario vacuous");
    assert_eq!(
        std::fs::read_dir(&root).unwrap().count(),
        0,
        "spill scratch leaked after query completion"
    );
    let _ = std::fs::remove_dir_all(&root);
}

/// Scenario 17 — `buffer.evict_race` under a tiny pool: the clock hand's
/// chosen victim is re-pinned at the last moment (simulating a racing
/// reader), forcing the sweep to skip it and pick another frame. Results
/// must be byte-identical to a fully-resident database, serial and
/// parallel, while evictions actually happen.
#[test]
fn chaos_evict_race_never_changes_results() {
    let seed = seed_for(17);
    let faults = FaultInjector::new(seed);
    faults.arm(points::BUFFER_EVICT_RACE, FaultPoint::with_probability(0.3));
    let db = paged_db(Arc::clone(&faults), 2048);

    let resident = Database::new();
    load_pages_table(&resident);

    for sql in [
        "SELECT g, COUNT(*), SUM(v), MIN(id), MAX(id) FROM pages GROUP BY g ORDER BY g",
        "SELECT id, v FROM pages WHERE id >= 1900 ORDER BY id",
        "SELECT COUNT(*) FROM pages WHERE v > 8",
    ] {
        db.set_parallelism(1);
        let serial = db.query(sql).unwrap();
        db.set_parallelism(4);
        let parallel = db.query(sql).unwrap();
        let want = resident.query(sql).unwrap();
        assert_eq!(serial, want, "serial diverged: {sql} (seed={seed:#x})");
        assert_eq!(parallel, want, "parallel diverged: {sql} (seed={seed:#x})");
    }
    let stats = db.buffer_stats().unwrap();
    assert!(stats.evictions > 0, "tiny pool never evicted — vacuous");
    assert!(
        faults.fired_count() > 0,
        "evict-race fault never fired — scenario vacuous (seed={seed:#x})"
    );
}

/// A float measure whose sums change in their last bits under almost any
/// regrouping of the additions: tenths, at magnitudes from 1e-3 to 1e9.
fn load_amounts_table(db: &Arc<Database>) {
    db.execute("CREATE TABLE amounts (id BIGINT PRIMARY KEY, g BIGINT, f DOUBLE) USING FORMAT COLUMN")
        .unwrap();
    let t = db.table("amounts").unwrap();
    let tx = db.txn_manager().begin();
    for i in 0..2000i64 {
        let f = (i * 37 % 1009) as f64 * 0.1 * 10f64.powi((i % 5) as i32 * 3 - 3);
        t.insert(&tx, row![i, i % 9, f]).unwrap();
    }
    tx.commit().unwrap();
    db.maintenance();
}

/// Scenario 18 — `exec.kernel_fallback` mid-aggregate: random row groups
/// of a fused GROUP BY abandon the code-domain fast path and fall back to
/// the scalar reference mid-query. Mixed fused/scalar execution must be
/// byte-identical to the clean fused run and to a fully-resident
/// database, serial and parallel, on resident and paged storage alike —
/// float sums, whose additions no path may regroup, included.
#[test]
fn chaos_kernel_fallback_mid_query_never_changes_results() {
    let seed = seed_for(18);
    let resident = Database::new();
    load_pages_table(&resident);
    load_amounts_table(&resident);

    let queries = [
        "SELECT g, COUNT(*), SUM(v), MIN(v), MAX(v) FROM pages GROUP BY g ORDER BY g",
        "SELECT g, COUNT(v) FROM pages WHERE v > 8 GROUP BY g ORDER BY g",
        "SELECT COUNT(*), SUM(v) FROM pages",
        "SELECT g, SUM(f), AVG(f) FROM amounts WHERE f > 0.25 GROUP BY g ORDER BY g",
    ];
    for pool_bytes in [u64::MAX, 2048] {
        let faults = FaultInjector::new(seed ^ pool_bytes);
        faults.arm(points::EXEC_KERNEL_FALLBACK, FaultPoint::with_probability(0.4));
        let db = paged_db(Arc::clone(&faults), pool_bytes);
        load_amounts_table(&db);
        for sql in &queries {
            let want = resident.query(sql).unwrap();
            db.set_parallelism(1);
            let serial = db.query(sql).unwrap();
            db.set_parallelism(4);
            let parallel = db.query(sql).unwrap();
            assert_eq!(
                serial, want,
                "serial fused/fallback mix diverged: {sql} (seed={seed:#x})"
            );
            assert_eq!(
                parallel, want,
                "parallel fused/fallback mix diverged: {sql} (seed={seed:#x})"
            );
        }
        assert!(
            faults.fired_count() > 0,
            "kernel-fallback fault never fired — scenario vacuous (seed={seed:#x})"
        );
    }
}

/// Scenario 18b — statements fanned out over the pool, cut short or
/// faulted: the fused walk over held segments (of a COLUMN table and of a
/// DUAL table's columnar side), and pipelines — a sort, a
/// top-K, a join and an expression-key aggregate — over COLUMN, DUAL and
/// ROW tables. Deadlines from 0 to 3 ms land anywhere in a walk,
/// `exec.morsel_fail` fails it always or retries at p = 0.3,
/// `exec.morsel_panic` panics one morsel on whichever thread claimed it,
/// and `exec.kernel_fallback` at p = 0.4 mixes the fused paths under it.
/// Each statement answers the unfaulted bits or fails with the typed
/// error, and whichever way it ends it leaves no helper running, none of
/// its governor bytes (stripe stores, parked stage output, sort buffers)
/// reserved and no admission ticket held.
#[test]
fn chaos_parallel_fused_walk_leaves_nothing_behind() {
    let seed = seed_for(0x18b);
    let faults = FaultInjector::new(seed);
    let db = Database::with_config(DbConfig {
        faults: Some(Arc::clone(&faults)),
        memory: Some(oltapdb::core::MemoryConfig::with_total(1 << 30)),
        admission: Some(oltapdb::sched::AdmissionConfig::default()),
        ..DbConfig::default()
    })
    .unwrap();
    // A one-CPU host opens no pool: ask for the helpers this scenario is about.
    if db.worker_pool().is_none() {
        db.set_parallelism(2);
    }
    let pool = db.worker_pool().unwrap();
    let amount = |i: i64| (i * 37 % 1009) as f64 * 0.1 * 10f64.powi((i % 5) as i32 * 3 - 3);
    for (table, format, rows) in [("big", "COLUMN", 100_000), ("image", "DUAL", 40_000), ("rowstore", "ROW", 40_000)] {
        db.execute(&format!(
            "CREATE TABLE {table} (id BIGINT PRIMARY KEY, g BIGINT, f DOUBLE) USING FORMAT {format}"
        ))
        .unwrap();
        let t = db.table(table).unwrap();
        let tx = db.txn_manager().begin();
        for i in 0..rows {
            t.insert(&tx, row![i, i % 13, amount(i)]).unwrap();
        }
        tx.commit().unwrap();
    }
    db.execute("CREATE TABLE dim (g BIGINT PRIMARY KEY, w BIGINT) USING FORMAT ROW").unwrap();
    let values: Vec<String> = (0..13).map(|g| format!("({g}, {})", g * 10)).collect();
    db.execute(&format!("INSERT INTO dim VALUES {}", values.join(", "))).unwrap();
    db.maintenance();
    let gov = db.memory_governor().unwrap();
    let admission = db.admission().unwrap();
    let baseline = gov.total_used();
    let fused = "SELECT g, COUNT(*), SUM(f), AVG(f) FROM big GROUP BY g ORDER BY g";
    let fused_image = "SELECT g, COUNT(*), SUM(f), AVG(f) FROM image GROUP BY g ORDER BY g";
    let mut statements = vec![fused.to_string(), fused_image.to_string()];
    for t in ["big", "image", "rowstore"] {
        statements.extend([
            format!("SELECT id, f FROM {t} WHERE g < 3 ORDER BY f, id"),
            format!("SELECT id, g FROM {t} ORDER BY f DESC, id LIMIT 20"),
            format!("SELECT {t}.id, dim.w FROM {t} JOIN dim ON {t}.g = dim.g WHERE dim.w > 50"),
            format!("SELECT g + 0, COUNT(*), SUM(f), AVG(f) FROM {t} GROUP BY g + 0"),
        ]);
    }
    let mut s = db.session();
    let want: Vec<Vec<Row>> = statements.iter().map(|sql| s.execute(sql).unwrap().rows().to_vec()).collect();
    let left_nothing = |tag: &str| {
        let since = std::time::Instant::now();
        while !pool.is_idle() {
            assert!(since.elapsed() < Duration::from_secs(10), "{tag}: a helper still runs");
            std::thread::yield_now();
        }
        assert_eq!(gov.total_used(), baseline, "{tag}: governor bytes left reserved");
        assert_eq!(admission.running(), (0, 0), "{tag}: admission ticket held");
    };
    let mut cut = 0;
    for (sql, want) in statements.iter().zip(&want) {
        for micros in (0..3000).step_by(100) {
            s.set_query_timeout(Some(Duration::from_micros(micros)));
            match s.execute(sql) {
                Ok(rows) => assert_eq!(rows.rows(), &want[..], "deadline {micros} us: {sql}"),
                Err(DbError::DeadlineExceeded(_)) => cut += 1,
                Err(e) => panic!("deadline {micros} us: {sql}: {e}"),
            }
            left_nothing(&format!("deadline {micros} us: {sql}"));
        }
    }
    assert!(cut > 0, "no statement was cut off — vacuous");
    s.set_query_timeout(None);

    for (sql, want) in statements.iter().zip(&want) {
        faults.arm(points::EXEC_MORSEL_FAIL, FaultPoint::always());
        let err = s.execute(sql).unwrap_err();
        assert!(matches!(err, DbError::FaultInjected(_)), "{sql}: {err}");
        left_nothing(&format!("morsel_fail always: {sql}"));
        faults.arm(points::EXEC_MORSEL_FAIL, FaultPoint::with_probability(0.3));
        let rounds = if sql == fused || sql == fused_image { 5 } else { 2 };
        for round in 0..rounds {
            let rows = s.execute(sql).unwrap();
            assert_eq!(rows.rows(), &want[..], "morsel_fail p=0.3 round {round}: {sql} (seed={seed:#x})");
            left_nothing(&format!("morsel_fail p=0.3: {sql}"));
        }
        faults.disarm(points::EXEC_MORSEL_FAIL);

        faults.arm(points::EXEC_MORSEL_PANIC, FaultPoint::times(1).after(1));
        let err = s.execute(sql).unwrap_err();
        assert!(matches!(err, DbError::Execution(_)), "{sql}: {err}");
        left_nothing(&format!("morsel_panic: {sql}"));
        faults.disarm(points::EXEC_MORSEL_PANIC);
        assert_eq!(s.execute(sql).unwrap().rows(), &want[..], "after a panic: {sql}");
    }

    faults.arm(points::EXEC_KERNEL_FALLBACK, FaultPoint::with_probability(0.4));
    for round in 0..5 {
        for (sql, want) in [fused, fused_image].iter().zip(&want) {
            let rows = s.execute(sql).unwrap();
            assert_eq!(rows.rows(), &want[..], "kernel_fallback round {round}: {sql} (seed={seed:#x})");
            left_nothing("kernel_fallback p=0.4");
        }
    }
    faults.disarm(points::EXEC_KERNEL_FALLBACK);
    assert!(faults.fired_count() > 0, "no fault fired — vacuous (seed={seed:#x})");
    assert!(pool.completed() > 0, "no helper ever ran — vacuous");
}

/// Scenario 19 — `storage.freeze_crash`: the background freeze pass dies
/// after publishing the frozen replacement segment's page file
/// (tmp+rename) but before the in-memory swap. The table must be left
/// with the old representation fully intact — never torn — and return
/// byte-identical results before the crash, after the crash, and after a
/// clean retry that completes the freeze. The orphaned replacement's
/// page file is reclaimed, and OLTP writes keep working throughout.
#[test]
fn chaos_crash_mid_freeze_never_tears_a_segment() {
    let seed = seed_for(19);
    let resident = Database::new();
    load_pages_table(&resident);
    let queries = [
        "SELECT g, COUNT(*), SUM(v), MIN(id), MAX(id) FROM pages GROUP BY g ORDER BY g",
        "SELECT id, v FROM pages WHERE id >= 1900 ORDER BY id",
        "SELECT COUNT(*) FROM pages WHERE v > 8",
    ];

    for pool_bytes in [u64::MAX, 2048] {
        let faults = FaultInjector::new(seed ^ pool_bytes);
        let db = paged_db(Arc::clone(&faults), pool_bytes);

        faults.arm(points::STORAGE_FREEZE_CRASH, FaultPoint::times(1));
        let err = db.freeze_all(true).unwrap_err();
        assert!(
            matches!(err, DbError::FaultInjected(_)),
            "pool={pool_bytes}: expected FaultInjected, got {err} (seed={seed:#x})"
        );
        assert_eq!(
            faults.fired_count(),
            1,
            "freeze-crash fault never fired — scenario vacuous (seed={seed:#x})"
        );
        // The swap never happened: no frozen segment is live, and every
        // query answers exactly as the resident reference.
        assert_eq!(db.stats().heat.frozen_segments, 0, "pool={pool_bytes}");
        for sql in &queries {
            let want = resident.query(sql).unwrap();
            db.set_parallelism(1);
            assert_eq!(
                db.query(sql).unwrap(),
                want,
                "post-crash serial diverged: {sql} (seed={seed:#x})"
            );
            db.set_parallelism(4);
            assert_eq!(
                db.query(sql).unwrap(),
                want,
                "post-crash parallel diverged: {sql} (seed={seed:#x})"
            );
        }
        db.set_parallelism(1);

        // Writes land normally on the (still unfrozen) table.
        db.execute("INSERT INTO pages VALUES (50000, 0, 1)").unwrap();
        db.execute("UPDATE pages SET v = 100 WHERE id = 7").unwrap();

        // The retry (fault exhausted) completes the freeze; results match
        // the reference with the same writes applied.
        let stats = db.freeze_all(true).unwrap();
        assert!(
            stats.segments_frozen > 0,
            "pool={pool_bytes}: clean retry froze nothing (seed={seed:#x})"
        );
        resident.execute("INSERT INTO pages VALUES (50000, 0, 1)").unwrap();
        resident.execute("UPDATE pages SET v = 100 WHERE id = 7").unwrap();
        for sql in &queries {
            assert_eq!(
                db.query(sql).unwrap(),
                resident.query(sql).unwrap(),
                "post-retry diverged: {sql} (seed={seed:#x})"
            );
        }
        // Undo the reference writes (id 7's original v is 7*7 % 17 = 15)
        // before the next pool size reuses the reference.
        resident.execute("DELETE FROM pages WHERE id = 50000").unwrap();
        resident.execute("UPDATE pages SET v = 15 WHERE id = 7").unwrap();
    }
}

/// Scenario 19b — the same crash point hit from the background
/// maintenance daemon: the pass reports the fault as a per-table error
/// note, the daemon keeps ticking, and once the fault is exhausted the
/// heat-based path freezes the (by now cold) segment on its own.
#[test]
fn chaos_freeze_crash_in_maintenance_daemon_self_heals() {
    let seed = seed_for(191);
    let faults = FaultInjector::new(seed);
    let db = paged_db(Arc::clone(&faults), u64::MAX);
    let before = db
        .query("SELECT g, COUNT(*), SUM(v) FROM pages GROUP BY g ORDER BY g")
        .unwrap();

    // The baseline scan heated the segment; two idle decay ticks make it
    // cold, so the fault is armed for the tick that attempts the freeze.
    db.maintenance();
    db.maintenance();
    faults.arm(points::STORAGE_FREEZE_CRASH, FaultPoint::times(1));
    let stats = db.maintenance();
    assert!(
        stats
            .notes
            .iter()
            .any(|(t, n)| t == "pages" && n.contains("error") && n.contains("fault")),
        "crash must surface as a per-table note: {stats:?} (seed={seed:#x})"
    );
    assert_eq!(db.stats().heat.frozen_segments, 0);

    // The next clean tick freezes it (still cold, fault exhausted).
    let stats = db.maintenance();
    assert!(
        stats
            .notes
            .iter()
            .any(|(t, n)| t == "pages" && n.contains("froze 1 segments")),
        "cold segment must freeze on the next clean tick: {stats:?} (seed={seed:#x})"
    );
    assert_eq!(db.stats().heat.frozen_segments, 1);
    assert_eq!(
        db.query("SELECT g, COUNT(*), SUM(v) FROM pages GROUP BY g ORDER BY g")
            .unwrap(),
        before,
        "seed={seed:#x}"
    );
}

/// Scenario 19c — `storage.coalesce_crash`: a maintenance pass dies after
/// building the rewrite of a run of paged segments (its page file
/// published) and before the swap. The pass reports the fault as the
/// table's note; the old run keeps serving byte-identical answers, serial
/// and parallel; the next clean pass coalesces; and once the database is
/// dropped no page file is left under its root.
#[test]
fn chaos_crash_mid_coalesce_keeps_the_old_run_serving() {
    let seed = seed_for(193);
    let faults = FaultInjector::new(seed);
    let root = std::env::temp_dir()
        .join(format!("oltap-chaos-coalesce-{}-{seed:x}", std::process::id()));
    let db = Database::with_config(DbConfig {
        wal_path: None,
        faults: Some(Arc::clone(&faults)),
        buffer: Some(oltapdb::core::BufferConfig {
            pool_bytes: 2048,
            page_rows: 64,
            page_root: Some(root.clone()),
        }),
        ..DbConfig::default()
    })
    .unwrap();
    load_pages_table(&db);
    // A second load as large as the first: the next pass folds the two.
    let tx = db.txn_manager().begin();
    let t = db.table("pages").unwrap();
    for i in 2000..4000i64 {
        t.insert(&tx, row![i, i % 50, i * 7 % 17]).unwrap();
    }
    drop(t);
    tx.commit().unwrap();
    db.execute("DELETE FROM pages WHERE id < 100").unwrap();
    let queries = [
        "SELECT g, COUNT(*), SUM(v), MIN(id), MAX(id) FROM pages GROUP BY g ORDER BY g",
        "SELECT id, v FROM pages WHERE id >= 3900 ORDER BY id",
        "SELECT COUNT(*) FROM pages WHERE v > 8",
    ];
    let before: Vec<_> = queries.iter().map(|sql| db.query(sql).unwrap()).collect();

    faults.arm(points::STORAGE_COALESCE_CRASH, FaultPoint::times(1));
    let stats = db.maintenance();
    assert!(
        (stats.notes.iter())
            .any(|(t, n)| t == "pages" && n.contains("error") && n.contains("fault")),
        "crash must surface as a per-table note: {stats:?} (seed={seed:#x})"
    );
    assert_eq!(faults.fired_count(), 1, "scenario vacuous (seed={seed:#x})");
    let segments = || db.table("pages").unwrap().columns().unwrap().sizes().segments;
    assert_eq!(segments(), 2, "the swap happened (seed={seed:#x})");
    for workers in [1, 4] {
        db.set_parallelism(workers);
        for (sql, want) in queries.iter().zip(&before) {
            assert_eq!(&db.query(sql).unwrap(), want, "{sql} workers={workers} (seed={seed:#x})");
        }
    }
    db.set_parallelism(1);

    let stats = db.maintenance();
    assert!(
        (stats.notes.iter()).any(|(t, n)| t == "pages"
            && n.contains("coalesced 1 runs (2 -> 1 segments, 100 rows dropped)")),
        "the clean pass must coalesce: {stats:?} (seed={seed:#x})"
    );
    assert_eq!(segments(), 1);
    for (sql, want) in queries.iter().zip(&before) {
        assert_eq!(&db.query(sql).unwrap(), want, "{sql} after the coalesce (seed={seed:#x})");
    }
    drop(db);
    let left: Vec<_> = std::fs::read_dir(&root).map_or(Vec::new(), |dir| dir.collect());
    assert!(left.is_empty(), "page files outlived the database: {left:?} (seed={seed:#x})");
    let _ = std::fs::remove_dir_all(&root);
}

// ===================================================================
// Network edge scenarios (20–20c): the wire-protocol front end under
// injected edge faults. Invariants: acknowledged writes survive, torn
// responses surface as typed errors (never hangs or garbage rows), a
// dropped connection rolls its open transaction back, admission tickets
// and governor bytes never leak, and a drain is always bounded.
// ===================================================================

use oltapdb::client::{Client, RetryClient, RetryConfig};
use oltapdb::sched::AdmissionConfig;
use oltapdb::server::{Server, ServerConfig};

/// A governed + admission-controlled database for the network suite.
fn net_db(faults: Arc<FaultInjector>) -> Arc<Database> {
    Database::with_config(DbConfig {
        wal_path: None,
        faults: Some(faults),
        memory: Some(oltapdb::core::MemoryConfig {
            total_bytes: 64 << 20,
            oltp_bytes: 16 << 20,
            olap_bytes: 48 << 20,
            query_bytes: 4 << 20,
        }),
        admission: Some(AdmissionConfig {
            max_olap: 16,
            throttled_olap: 4,
            pressure_threshold: 8,
            queue_timeout: Duration::from_secs(2),
        }),
        ..DbConfig::default()
    })
    .unwrap()
}

fn net_server(db: &Arc<Database>) -> Server {
    Server::start(
        Arc::clone(db),
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            drain_grace: Duration::from_millis(500),
            ..ServerConfig::default()
        },
    )
    .unwrap()
}

fn wait_active_zero(server: &Server, timeout: Duration) {
    let deadline = std::time::Instant::now() + timeout;
    while server.active_connections() > 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(server.active_connections(), 0, "connections leaked");
}

/// Scenario 20 — torn response frame mid-SELECT: `net.write_partial`
/// cuts a response in half. The client must get a *typed* framing error
/// (never a hang, never garbage rows), a reconnecting client must
/// recover, the in-flight query's admission ticket and governor bytes
/// must come back, and the server must count the event.
#[test]
fn chaos_net_torn_response_is_typed_and_reconnect_recovers() {
    let seed = seed_for(20);
    let faults = FaultInjector::new(seed);
    let db = net_db(Arc::clone(&faults));
    db.execute("CREATE TABLE kv (id BIGINT PRIMARY KEY, v BIGINT)")
        .unwrap();
    for i in 0..50i64 {
        db.execute(&format!("INSERT INTO kv VALUES ({i}, {})", i * 2))
            .unwrap();
    }
    let governor = db.memory_governor().unwrap();
    let admission = db.admission().unwrap();
    let used_before = governor.total_used();

    let server = net_server(&db);
    let addr = server.local_addr().to_string();

    let mut victim = Client::connect(&addr).unwrap();
    faults.arm(points::NET_WRITE_PARTIAL, FaultPoint::times(1));
    let err = victim
        .query("SELECT id, v FROM kv ORDER BY id")
        .expect_err("torn response must surface as an error");
    assert!(
        matches!(err, DbError::Corruption(_) | DbError::Io(_)),
        "torn frame must be a typed transport error, got {err:?} (seed={seed:#x})"
    );
    assert!(faults.fired_count() >= 1, "fault must have fired");

    // A reconnecting client recovers and reads the full, correct set.
    let mut retry = RetryClient::new(
        addr.clone(),
        RetryConfig {
            seed,
            ..RetryConfig::default()
        },
    );
    let out = retry.query("SELECT COUNT(*), SUM(v) FROM kv").unwrap();
    assert_eq!(out.rows.len(), 1, "seed={seed:#x}");
    assert_eq!(out.rows[0].values()[0], Value::Int(50));
    assert_eq!(out.rows[0].values()[1], Value::Int(2450));

    assert!(server.stats().partial_writes >= 1);
    drop(victim);
    drop(retry);
    let report = server.drain();
    assert!(report.duration < Duration::from_secs(10));
    assert_eq!(admission.running(), (0, 0), "admission ticket leaked");
    assert_eq!(
        governor.total_used(),
        used_before,
        "governor bytes leaked (seed={seed:#x})"
    );
}

/// Scenario 20a — connection dropped mid-write-transaction:
/// `net.conn_drop_mid_query` severs the socket while a BEGIN…INSERT
/// transaction is open. The server-side session drop must roll the
/// transaction back: previously committed rows survive, the uncommitted
/// insert does not, and no ticket or governor byte leaks.
#[test]
fn chaos_net_conn_drop_mid_txn_rolls_back() {
    let seed = seed_for(201);
    let faults = FaultInjector::new(seed);
    let db = net_db(Arc::clone(&faults));
    db.execute("CREATE TABLE acct (id BIGINT PRIMARY KEY, bal BIGINT)")
        .unwrap();
    db.execute("INSERT INTO acct VALUES (1, 100)").unwrap();
    let governor = db.memory_governor().unwrap();
    let admission = db.admission().unwrap();
    let used_before = governor.total_used();

    let server = net_server(&db);
    let addr = server.local_addr().to_string();

    let mut c = Client::connect(&addr).unwrap();
    c.query("BEGIN").unwrap();
    c.query("INSERT INTO acct VALUES (2, 200)").unwrap();
    // The next request hits the drop fault: the socket dies with the
    // transaction still open and no response on the wire.
    faults.arm(points::NET_CONN_DROP_MID_QUERY, FaultPoint::times(1));
    let err = c
        .query("INSERT INTO acct VALUES (3, 300)")
        .expect_err("dropped connection must error");
    assert!(
        matches!(err, DbError::Io(_) | DbError::Corruption(_)),
        "got {err:?} (seed={seed:#x})"
    );
    drop(c);
    wait_active_zero(&server, Duration::from_secs(5));

    // Rollback happened server-side: only the committed row remains.
    let mut fresh = Client::connect(&addr).unwrap();
    let out = fresh
        .query("SELECT COUNT(*), SUM(bal) FROM acct")
        .unwrap();
    assert_eq!(
        out.rows[0].values()[0],
        Value::Int(1),
        "uncommitted insert must be rolled back (seed={seed:#x})"
    );
    assert_eq!(out.rows[0].values()[1], Value::Int(100));
    assert!(server.stats().dropped_mid_query >= 1);
    drop(fresh);
    let _ = server.drain();
    assert_eq!(admission.running(), (0, 0), "admission ticket leaked");
    assert_eq!(governor.total_used(), used_before, "governor bytes leaked");
}

/// Scenario 20a, through a reconnecting client: `net.conn_drop_mid_query`
/// severs the socket on the second INSERT of a BEGIN…COMMIT. The server
/// rolls the transaction back, so the client must not replay the INSERT on
/// a new session, where it would commit alone: it answers `TxnClosed`, the
/// COMMIT then runs outside any transaction, and the table holds neither
/// row.
#[test]
fn chaos_net_conn_drop_mid_txn_is_not_replayed_by_retry_client() {
    let seed = seed_for(203);
    let faults = FaultInjector::new(seed);
    let db = net_db(Arc::clone(&faults));
    db.execute("CREATE TABLE acct (id BIGINT PRIMARY KEY, bal BIGINT)")
        .unwrap();
    let server = net_server(&db);
    let addr = server.local_addr().to_string();

    let cfg = RetryConfig { seed, ..RetryConfig::default() };
    let mut c = RetryClient::new(addr.clone(), cfg);
    c.query("BEGIN").unwrap();
    c.query("INSERT INTO acct VALUES (1, 100)").unwrap();
    faults.arm(points::NET_CONN_DROP_MID_QUERY, FaultPoint::times(1));
    let err = c
        .query("INSERT INTO acct VALUES (2, 200)")
        .expect_err("a transaction cut by a dropped connection is closed");
    assert!(matches!(err, DbError::TxnClosed(_)), "got {err:?} (seed={seed:#x})");
    assert_eq!(faults.fired_count(), 1, "scenario vacuous (seed={seed:#x})");
    let commit = c.query("COMMIT");
    assert!(
        matches!(commit, Err(DbError::InvalidArgument(_))),
        "COMMIT after the cut runs outside any transaction: {commit:?} (seed={seed:#x})"
    );
    let out = c.query("SELECT COUNT(*) FROM acct").unwrap();
    assert_eq!(out.rows[0].values()[0], Value::Int(0), "half a transaction committed (seed={seed:#x})");
    drop(c);
    wait_active_zero(&server, Duration::from_secs(5));
    let _ = server.drain();
}

/// Scenario 20b — accept loop killed (`net.accept_fail` always firing):
/// new connections die before the handshake, existing connections keep
/// working, and a drain still completes within its bound with an
/// open-transaction connection on the books.
#[test]
fn chaos_net_accept_fail_then_bounded_drain() {
    let seed = seed_for(202);
    let faults = FaultInjector::new(seed);
    let db = net_db(Arc::clone(&faults));
    db.execute("CREATE TABLE t (id BIGINT PRIMARY KEY)").unwrap();
    let server = net_server(&db);
    let addr = server.local_addr().to_string();

    // A connection established before the fault keeps working…
    let mut survivor = Client::connect(&addr).unwrap();
    survivor.query("BEGIN").unwrap();
    survivor.query("INSERT INTO t VALUES (1)").unwrap();

    // …while the killed accept path refuses every newcomer.
    faults.arm(points::NET_ACCEPT_FAIL, FaultPoint::always());
    for _ in 0..3 {
        let err = Client::connect(&addr).expect_err("accept must fail");
        assert!(matches!(err, DbError::Io(_)), "got {err:?} (seed={seed:#x})");
    }
    let ok = survivor.query("SELECT COUNT(*) FROM t").unwrap();
    assert_eq!(ok.rows[0].values()[0], Value::Int(1));

    // Drain with the transaction still open: bounded, and the reader
    // notices the drain, aborts the session, and the txn rolls back.
    assert_eq!(server.active_connections(), 1);
    let start = std::time::Instant::now();
    let _report = server.drain();
    assert!(
        start.elapsed() < Duration::from_secs(10),
        "drain must be bounded, took {:?} (seed={seed:#x})",
        start.elapsed()
    );
    assert_eq!(server.active_connections(), 0);
    // The drained server rolled the open transaction back.
    assert_eq!(
        db.query("SELECT COUNT(*) FROM t").unwrap()[0].values()[0],
        Value::Int(0),
        "open txn must roll back on drain (seed={seed:#x})"
    );
}

/// Shared body for scenario 20c and the CI smoke: `clients` concurrent
/// reconnecting clients doing keyed inserts + aggregates while every
/// `net.*` fault point flips with probability `p`. Afterwards the
/// acknowledged-write set must be exactly the surviving set, the
/// wire-protocol answer must equal the in-process answer, and nothing
/// may leak.
fn net_storm(seed: u64, clients: usize, inserts_per_client: usize, p: f64) {
    let faults = FaultInjector::new(seed);
    let db = net_db(Arc::clone(&faults));
    db.execute("CREATE TABLE storm (id BIGINT PRIMARY KEY, v BIGINT)")
        .unwrap();
    let governor = db.memory_governor().unwrap();
    let admission = db.admission().unwrap();
    let used_before = governor.total_used();
    let server = Server::start(
        Arc::clone(&db),
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            max_conns: clients * 2 + 8,
            drain_grace: Duration::from_millis(500),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr().to_string();

    faults.arm(points::NET_ACCEPT_FAIL, FaultPoint::with_probability(p));
    faults.arm(points::NET_READ_TORN, FaultPoint::with_probability(p));
    faults.arm(points::NET_WRITE_PARTIAL, FaultPoint::with_probability(p));
    faults.arm(
        points::NET_CONN_DROP_MID_QUERY,
        FaultPoint::with_probability(p),
    );

    let acked: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|t| {
                let addr = addr.clone();
                s.spawn(move || {
                    let mut client = RetryClient::new(
                        addr,
                        RetryConfig {
                            base: Duration::from_millis(5),
                            cap: Duration::from_millis(100),
                            max_attempts: 12,
                            io_timeout: Duration::from_secs(10),
                            seed: seed ^ (t as u64 + 1),
                        },
                    );
                    let mut acked = Vec::new();
                    for i in 0..inserts_per_client {
                        let id = (t * 10_000 + i) as i64;
                        let sql =
                            format!("INSERT INTO storm VALUES ({id}, {})", id * 3);
                        match client.query(&sql) {
                            Ok(_) => acked.push(id),
                            // A retried insert whose first attempt
                            // committed before the connection died is
                            // still an acknowledged write.
                            Err(DbError::DuplicateKey(_)) => acked.push(id),
                            Err(_) => {}
                        }
                        if i % 5 == 4 {
                            let _ = client.query("SELECT COUNT(*) FROM storm");
                        }
                    }
                    acked
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().unwrap()).collect()
    });

    // Quiesce: stop the faults, let every connection wind down.
    for pt in [
        points::NET_ACCEPT_FAIL,
        points::NET_READ_TORN,
        points::NET_WRITE_PARTIAL,
        points::NET_CONN_DROP_MID_QUERY,
    ] {
        faults.disarm(pt);
    }

    // No lost committed writes: every acknowledged id is present, with
    // its exact value, whether read over the wire or in-process.
    let mut clean = Client::connect(&addr).unwrap();
    let wire = clean
        .query("SELECT COUNT(*), SUM(v) FROM storm")
        .unwrap();
    let direct = db.query("SELECT COUNT(*), SUM(v) FROM storm").unwrap();
    assert_eq!(
        wire.rows[0].values(),
        direct[0].values(),
        "wire answer diverged from in-process answer (seed={seed:#x})"
    );
    let present: std::collections::HashSet<i64> = db
        .query("SELECT id FROM storm")
        .unwrap()
        .iter()
        .map(|r| match r.values()[0] {
            Value::Int(v) => v,
            ref other => panic!("non-int id {other:?}"),
        })
        .collect();
    for id in &acked {
        assert!(
            present.contains(id),
            "acknowledged write {id} lost (seed={seed:#x})"
        );
    }

    drop(clean);
    let report = server.drain();
    assert!(
        report.duration < Duration::from_secs(15),
        "drain unbounded: {report:?} (seed={seed:#x})"
    );
    assert_eq!(server.active_connections(), 0);
    assert_eq!(
        admission.running(),
        (0, 0),
        "admission ticket leaked (seed={seed:#x})"
    );
    assert_eq!(
        governor.total_used(),
        used_before,
        "governor bytes leaked (seed={seed:#x})"
    );
}

/// Scenario 20c — 64 concurrent reconnecting clients under seeded
/// probabilistic `net.*` faults (p = 0.05 each): acknowledged writes all
/// survive, wire and in-process answers agree, tickets and governor
/// bytes balance, drain stays bounded.
#[test]
fn chaos_net_fault_storm_64_clients() {
    net_storm(seed_for(203), 64, 20, 0.05);
}

/// CI `server-chaos` smoke — 200 connections at fault probability 0.05.
/// Ignored by default (it is a load test); the CI job runs it with
/// `--ignored`.
#[test]
#[ignore = "load smoke for the server-chaos CI job: 200 clients under net.* faults"]
fn chaos_net_smoke_200_connections() {
    net_storm(seed_for(204), 200, 10, 0.05);
}

// -------------------------------------------------------------------
// The blocking edge: one thread per connection, the socket write as the
// only backpressure, and a drain that wakes idle connections instead of
// waiting for them to look.
// -------------------------------------------------------------------

use oltapdb::server::wire::{frame_bytes, read_frame, Request, Response};
use std::io::Write;
use std::net::TcpStream;

fn raw_send(stream: &mut TcpStream, request: &Request) {
    stream.write_all(&frame_bytes(&request.encode())).unwrap();
}

fn raw_recv(stream: &mut TcpStream) -> Response {
    let payload = read_frame(stream).unwrap().expect("server closed early");
    Response::decode(&payload).unwrap()
}

/// A handshaken bare socket, for what `Client` cannot do: read without
/// having asked, or never read at all.
fn raw_connect(addr: &str) -> TcpStream {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    raw_send(
        &mut stream,
        &Request::Hello {
            version: oltapdb::server::PROTOCOL_VERSION,
        },
    );
    assert!(matches!(raw_recv(&mut stream), Response::HelloAck { .. }));
    stream
}

/// Runs one statement on a bare socket and returns its last frame.
fn raw_query(stream: &mut TcpStream, sql: &str) -> Response {
    raw_send(stream, &Request::Query { sql: sql.into() });
    loop {
        match raw_recv(stream) {
            Response::Schema { .. } | Response::Rows { .. } => {}
            last => return last,
        }
    }
}

/// A client that asks for a result several times the size of the
/// loopback socket buffers and never reads a byte of it. The blocked
/// write is the backpressure: past `write_timeout` the server cuts the
/// connection, counts it, and gives everything back.
#[test]
fn chaos_net_slow_client_is_cut_at_the_write_deadline() {
    let db = net_db(FaultInjector::new(seed_for(205)));
    db.execute("CREATE TABLE wide (id BIGINT PRIMARY KEY, k BIGINT, pad TEXT)")
        .unwrap();
    let pad = "x".repeat(1000);
    for i in 0..200i64 {
        db.execute(&format!("INSERT INTO wide VALUES ({i}, 7, '{pad}')"))
            .unwrap();
    }
    let governor = db.memory_governor().unwrap();
    let admission = db.admission().unwrap();
    let used_before = governor.total_used();
    let server = Server::start(
        Arc::clone(&db),
        ServerConfig {
            write_timeout: Duration::from_millis(300),
            ..ServerConfig::default()
        },
    )
    .unwrap();

    // 200 x 200 rows of two 1 kB strings: about 80 MB on the wire.
    let mut silent = raw_connect(&server.local_addr().to_string());
    raw_send(
        &mut silent,
        &Request::Query {
            sql: "SELECT a.id, b.id, a.pad, b.pad FROM wide a JOIN wide b ON a.k = b.k".into(),
        },
    );
    let asked = std::time::Instant::now();
    wait_active_zero(&server, Duration::from_secs(30));
    assert!(
        asked.elapsed() >= Duration::from_millis(300),
        "cut before the write deadline"
    );

    let stats = server.stats();
    assert_eq!(stats.slow_client_disconnects, 1, "{stats:?}");
    assert_eq!(stats.statement_errors, 0, "the statement itself succeeded");
    assert_eq!(admission.running(), (0, 0), "admission ticket leaked");
    assert_eq!(governor.total_used(), used_before, "governor bytes leaked");
    drop(silent);
}

/// A result of many frames arrives whole and in order: the wire answer
/// equals the in-process answer row for row.
#[test]
fn chaos_net_multi_frame_select_equals_in_process() {
    let db = net_db(FaultInjector::new(seed_for(206)));
    db.execute("CREATE TABLE seq (id BIGINT PRIMARY KEY, v BIGINT, tag TEXT)")
        .unwrap();
    let rows_per_frame = 16;
    let n = 25 * rows_per_frame as i64 + 3;
    for i in 0..n {
        db.execute(&format!(
            "INSERT INTO seq VALUES ({i}, {}, 't{}')",
            (i * 7919) % 1000,
            i % 13
        ))
        .unwrap();
    }
    let server = Server::start(
        Arc::clone(&db),
        ServerConfig {
            rows_per_frame,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let sql = "SELECT id, v, tag FROM seq ORDER BY v, id";
    let mut client = Client::connect(server.local_addr()).unwrap();
    let wire = client.query(sql).unwrap();
    let direct = db.query(sql).unwrap();
    assert_eq!(wire.count, n as u64);
    assert_eq!(wire.rows, direct);
}

/// A connection that says nothing is closed at the idle deadline: not
/// before it, and without waiting for anything else to happen.
#[test]
fn chaos_net_idle_connection_is_closed_at_the_idle_deadline() {
    let db = net_db(FaultInjector::new(seed_for(207)));
    let server = Server::start(
        Arc::clone(&db),
        ServerConfig {
            idle_timeout: Duration::from_millis(200),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    // The server's clock starts when it has answered the handshake, which
    // is before the client hears of it: start this one before either.
    let start = std::time::Instant::now();
    let mut idle = raw_connect(&server.local_addr().to_string());
    assert!(
        matches!(read_frame(&mut idle), Ok(None)),
        "the server closes an idle connection without a frame"
    );
    let waited = start.elapsed();
    assert!(
        waited >= Duration::from_millis(200) && waited < Duration::from_secs(1),
        "closed after {waited:?}"
    );
    wait_active_zero(&server, Duration::from_secs(5));
}

/// Drain against sixteen connections that are all waiting for a request,
/// one of them inside an open transaction. Nothing is running, so the
/// drain owes nobody its grace period: it wakes each connection, each
/// tells its client why, and the open transaction rolls back.
#[test]
fn chaos_net_drain_wakes_idle_connections() {
    let db = net_db(FaultInjector::new(seed_for(208)));
    db.execute("CREATE TABLE t (id BIGINT PRIMARY KEY)")
        .unwrap();
    let server = Server::start(
        Arc::clone(&db),
        ServerConfig {
            drain_grace: Duration::from_secs(2),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr().to_string();
    let mut clients: Vec<TcpStream> = (0..16).map(|_| raw_connect(&addr)).collect();
    for sql in ["BEGIN", "INSERT INTO t VALUES (1)"] {
        let done = raw_query(&mut clients[0], sql);
        assert!(matches!(done, Response::Done { .. }), "{sql}: {done:?}");
    }
    assert_eq!(server.active_connections(), 16);

    let report = server.drain();
    assert!(
        report.duration < Duration::from_millis(500),
        "an idle server drains at once: {report:?}"
    );
    assert_eq!((report.forced, report.cancelled_after_grace), (0, 0));
    for client in &mut clients {
        let notice = raw_recv(client);
        assert!(
            matches!(
                &notice,
                Response::Error { error: DbError::Unavailable { reason, .. }, .. }
                    if reason == "draining"
            ),
            "{notice:?}"
        );
    }
    assert_eq!(
        db.query("SELECT COUNT(*) FROM t").unwrap()[0].values()[0],
        Value::Int(0),
        "the open transaction must roll back"
    );
}
