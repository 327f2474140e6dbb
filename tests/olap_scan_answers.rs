//! The seven `olap_scan` statements answer, byte for byte, what they
//! answered before the block kernels and the typed running states were
//! rebuilt (ISSUE 22): the checksums below were recorded at commit
//! `4e0eded` — the row-at-a-time, state-enum-per-aggregate engine — over the benchmark's
//! own 16-warehouse population, which this test loads through the
//! benchmark's own generator. "Bit-identical to the scalar path" is thereby
//! held against bytes from before the rewrite, float sums included, not
//! only against the new scalar path.
//!
//! Regenerate (after a deliberate change to `benchmark/src/ch.rs`) by
//! printing `checksum(&db.query(sql))` per statement at a commit whose
//! answers are trusted.
#![allow(dead_code)]

#[path = "../benchmark/src/ch.rs"]
mod ch;
#[path = "../benchmark/src/rng.rs"]
mod rng;

use oltapdb::common::fault::{points, FaultInjector, FaultPoint};
use oltapdb::common::Row;
use oltapdb::core::{Database, DbConfig};
use std::sync::Arc;

/// `benchmark/src/oracle.rs`'s checksum: FNV-1a over the engine's row
/// codec, row order included.
fn checksum(rows: &[Row]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    let mut write = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    for row in rows {
        let bytes = oltapdb::txn::wal::encode_row(row);
        write(&(bytes.len() as u32).to_le_bytes());
        write(&bytes);
    }
    h
}

/// `(statement, rows, checksum)` at the parent commit.
const AT_PARENT: [(&str, usize, u64); 7] = [
    ("Q1", 10, 0x46a3_8327_9688_eb50),
    ("Q6", 1, 0x6127_0757_acf1_c77e),
    ("Q14", 1, 0x90e0_02ce_cb1c_32f1),
    ("Q15", 5, 0xda78_9cfc_3e19_a778),
    ("Q2", 20, 0x346a_03ee_7e65_ac48),
    ("Q12", 6, 0x3eef_6ff1_5b07_2b47),
    ("Q18", 8, 0xa056_5568_7a3d_a106),
];

#[test]
fn olap_scan_answers_are_the_parents() {
    let faults = FaultInjector::new(0x22);
    let db = Database::with_config(DbConfig {
        faults: Some(Arc::clone(&faults)),
        ..DbConfig::default()
    })
    .unwrap();
    for stmt in ch::ddl() {
        db.execute(stmt).unwrap();
    }
    // The benchmark's load: 2000-row transactions, then one maintenance pass.
    for (table, rows) in &ch::populate(16).tables {
        let handle = db.table(table).unwrap();
        for chunk in rows.chunks(2000) {
            let txn = db.txn_manager().begin();
            for row in chunk {
                handle.insert(&txn, row.clone()).unwrap();
            }
            txn.commit().unwrap();
        }
    }
    db.maintenance();
    for forced_scalar in [false, true] {
        if forced_scalar {
            faults.arm(points::EXEC_KERNEL_FALLBACK, FaultPoint::always());
        }
        for ((id, sql), (parent_id, rows, sum)) in ch::OLAP.iter().zip(AT_PARENT) {
            assert_eq!(*id, parent_id);
            let answer = db.query(sql).unwrap();
            assert_eq!(answer.len(), rows, "{id} forced_scalar={forced_scalar}");
            assert_eq!(
                checksum(&answer),
                sum,
                "{id} forced_scalar={forced_scalar}: not the parent's bytes"
            );
        }
    }
    assert!(faults.fired_count() > 0, "the scalar reference never ran");
}
