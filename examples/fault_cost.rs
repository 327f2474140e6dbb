//! What one buffer-pool fault costs, by page kind: the probe behind the
//! table in DESIGN.md § "What a fault costs".
//!
//! For each kind of column page the CH tables produce, writes 250 pages of
//! 1 024 rows to a page file, reads them once so the OS page cache is warm,
//! then times — best of five rounds, µs per page —
//!
//! * `read+verify`: `PageFile::read_page`, the positional read and the
//!   checksum of what it returned;
//! * `verify`: `crc32` over the same bytes, so `read` = `read+verify` − it;
//! * `decode`: `decode_page` of those bytes into an `EncodedColumn`;
//! * `fault`: `PageFile::read_column`, all of it as a fault pays it.
//!
//! Then one `order_line` pass as a statement makes it — CH Q1 over the
//! benchmark's 16-warehouse `order_line`, through a buffer pool a quarter
//! the size of its page files — and, per pass, the µs it takes, the pages
//! it faults, how many of them the pager's loader had read ahead (its
//! share of the faults) and how often the pass waited for a row group the
//! loader was reading (`BufferStats::{misses, loader_loads, loader_waits}`).
//!
//! Run with: `cargo run --release --example fault_cost [pages per round]`
//! (default 20 000; CI passes a small count and reads only the exit status).
#![allow(dead_code)]

#[path = "../benchmark/src/ch.rs"]
mod ch;
#[path = "../benchmark/src/rng.rs"]
mod rng;

use oltapdb::common::fault::FaultInjector;
use oltapdb::common::crc32;
use oltapdb::core::{BufferConfig, Database, DbConfig};
use oltapdb::storage::encoding::{Dictionary, ForPacked, IntEncoding, StrEncoding};
use oltapdb::storage::pagefile::{decode_page, PageFileWriter};
use oltapdb::storage::segment::EncodedColumn;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

const ROWS: usize = 1024;
const PAGES: usize = 250;
const ROUNDS: usize = 5;

/// A kind of page: its label and the builder of its page `p`.
type Kind = (&'static str, fn(usize) -> EncodedColumn);

/// Contents differ by page so no two pages of a kind are one frame.
fn kinds() -> Vec<Kind> {
    fn mix(p: usize, i: usize) -> u64 {
        ((p * ROWS + i) as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }
    vec![
        ("raw f64 (ol_amount)", |p| EncodedColumn::Float {
            values: (0..ROWS)
                .map(|i| (mix(p, i) >> 40) as f64 / 100.0)
                .collect(),
            validity: None,
        }),
        ("raw i64", |p| EncodedColumn::Int {
            enc: IntEncoding::Raw((0..ROWS).map(|i| mix(p, i) as i64).collect()),
            validity: None,
        }),
        ("FOR, 10-bit (ol_i_id)", |p| {
            let ids: Vec<i64> = (0..ROWS).map(|i| 1 + (mix(p, i) >> 54) as i64).collect();
            EncodedColumn::Int {
                enc: IntEncoding::For(ForPacked::encode(&ids)),
                validity: None,
            }
        }),
        ("int dictionary, 10 values", |p| {
            let v: Vec<i64> = (0..ROWS)
                .map(|i| (mix(p, i) >> 33) as i64 % 10 * 1_000_003)
                .collect();
            EncodedColumn::Int {
                enc: IntEncoding::Dict(Box::new(Dictionary::encode(&v))),
                validity: None,
            }
        }),
        ("string dictionary, 8 values (c_state)", |p| {
            let v: Vec<String> = (0..ROWS)
                .map(|i| format!("S{}", (mix(p, i) >> 33) % 8))
                .collect();
            EncodedColumn::Str {
                enc: StrEncoding::Dict(Box::new(Dictionary::encode(&v))),
                validity: None,
            }
        }),
    ]
}

/// Best-of-`ROUNDS` µs per call of `f(page index)` over `iters` calls.
fn best_us(iters: usize, mut f: impl FnMut(usize)) -> f64 {
    (0..ROUNDS)
        .map(|_| {
            let t = Instant::now();
            for i in 0..iters {
                f(i % PAGES);
            }
            t.elapsed().as_secs_f64() * 1e6 / iters as f64
        })
        .fold(f64::INFINITY, f64::min)
}

fn main() -> oltapdb::common::Result<()> {
    let iters: usize = match std::env::args().nth(1) {
        Some(n) => n.parse().expect("pages per round: a positive integer"),
        None => 20_000,
    };
    assert!(iters > 0, "pages per round: a positive integer");
    let root = std::env::temp_dir().join(format!("oltap_fault_cost_{}", std::process::id()));

    println!("{PAGES} pages x {ROWS} rows per kind, best of {ROUNDS} x {iters} pages, us per page");
    println!(
        "{:<40} {:>6} {:>12} {:>7} {:>7} {:>7} {:>7}",
        "page", "bytes", "read+verify", "read", "verify", "decode", "fault"
    );
    for (name, page) in kinds() {
        let mut w = PageFileWriter::create_under(&root, FaultInjector::disabled())?;
        for p in 0..PAGES {
            w.append_column(&page(p))?;
        }
        let file = w.finish()?;
        // First touch: the bytes each later step works on, and a warm cache.
        let bytes: Vec<Vec<u8>> = (0..PAGES)
            .map(|p| file.read_page(p))
            .collect::<Result<_, _>>()?;

        let read_verify = best_us(iters, |p| {
            black_box(file.read_page(black_box(p)).expect("page reads back"));
        });
        let verify = best_us(iters, |p| {
            black_box(crc32(black_box(&bytes[p])));
        });
        let decode = best_us(iters, |p| {
            black_box(decode_page(black_box(&bytes[p])).expect("page decodes"));
        });
        let fault = best_us(iters, |p| {
            black_box(file.read_column(black_box(p)).expect("page faults in"));
        });
        println!(
            "{name:<40} {:>6} {read_verify:>12.2} {:>7.2} {verify:>7.2} {decode:>7.2} {fault:>7.2}",
            bytes[0].len(),
            (read_verify - verify).max(0.0),
        );
    }
    std::fs::remove_dir_all(&root)?;
    order_line_pass(&root)
}

/// The benchmark's page size and warehouses (`benchmark/src/workload.rs`).
const PAGE_ROWS: usize = 1024;
const WAREHOUSES: i64 = 16;
/// Passes timed after three that warm the pool and the page cache.
const PASSES: usize = 9;

/// A database holding the benchmark's `order_line` in paged segments
/// behind a pool of `pool_bytes`, with its page files under `root`.
fn order_line_db(pool_bytes: u64, root: &Path) -> oltapdb::common::Result<Arc<Database>> {
    let db = Database::with_config(DbConfig {
        buffer: Some(BufferConfig {
            pool_bytes,
            page_rows: PAGE_ROWS,
            page_root: Some(root.to_path_buf()),
        }),
        ..DbConfig::default()
    })?;
    for stmt in ch::ddl() {
        db.execute(stmt)?;
    }
    let population = ch::populate(WAREHOUSES);
    let (_, rows) = (population.tables.iter())
        .find(|(table, _)| *table == "order_line")
        .expect("the CH population has order_line");
    let handle = db.table("order_line")?;
    for chunk in rows.chunks(2000) {
        let txn = db.txn_manager().begin();
        for row in chunk {
            handle.insert(&txn, row.clone())?;
        }
        txn.commit()?;
    }
    db.maintenance();
    Ok(db)
}

fn order_line_pass(root: &Path) -> oltapdb::common::Result<()> {
    let sql = ch::OLAP.iter().find(|(id, _)| *id == "Q1").expect("Q1").1;
    let page_bytes = {
        let db = order_line_db(u64::MAX, &root.join("all"))?;
        let table = db.table("order_line")?;
        table.columns().expect("order_line is a COLUMN table").sizes().main_bytes as u64
    };
    let db = order_line_db(page_bytes / 4, &root.join("quarter"))?;
    for _ in 0..3 {
        db.query(sql)?;
    }
    let mut passes = Vec::with_capacity(PASSES);
    for _ in 0..PASSES {
        let before = db.buffer_stats().expect("a paged database");
        let started = Instant::now();
        db.query(sql)?;
        let us = started.elapsed().as_secs_f64() * 1e6;
        let after = db.buffer_stats().expect("a paged database");
        let delta = |f: fn(&oltapdb::storage::BufferStats) -> u64| f(&after) - f(&before);
        let (faults, loads) = (delta(|s| s.misses), delta(|s| s.loader_loads));
        passes.push((us, faults, loads, delta(|s| s.loader_waits)));
    }
    passes.sort_by(|a, b| a.0.total_cmp(&b.0));
    let (us, faults, loads, waits) = passes[PASSES / 2];
    println!();
    println!(
        "order_line Q1 pass over a {} KB pool (a quarter of {} KB of pages), median of {PASSES}:",
        page_bytes / 4 / 1024,
        page_bytes / 1024
    );
    println!(
        "{:>10} {:>8} {:>13} {:>7} {:>6}",
        "us", "faults", "loader reads", "share", "waits"
    );
    println!(
        "{us:>10.0} {faults:>8} {loads:>13} {:>7.2} {waits:>6}",
        loads as f64 / faults.max(1) as f64
    );
    drop(db);
    std::fs::remove_dir_all(root)?;
    Ok(())
}
