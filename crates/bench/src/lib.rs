//! # oltap-bench
//!
//! Workloads and the derived experiment suite (see DESIGN.md and
//! EXPERIMENTS.md):
//!
//! * [`ch`] — a from-scratch CH-benCHmark: TPC-C-style schema,
//!   transactions, and CH-style analytic queries.
//! * [`workloads`] — the paper's two motivating streams
//!   (machine telemetry, social-retail surges).
//! * [`baselines`] — comparison implementations only the experiments
//!   use, kept out of the engine crates (E8's shared scan; E3 / E18 /
//!   E19's naive and SWAR packed scans; E11's tuple walk and f64 VM).
//! * [`numa`] — E9's simulated NUMA topology, placement policies and
//!   cost model.
//! * [`harness`] — timing/table utilities shared by the sixteen `e01..e19`
//!   harness binaries (`cargo run -p oltap-bench --release --bin e01_...`),
//!   and [`harness::Report`]: the one file shape (`results/BENCH_*.json`)
//!   and the one `--gate` of the experiments that record a number.
//!
//! End-to-end measurement is not here: it is the `benchmark/` workspace.

pub mod baselines;
pub mod ch;
pub mod harness;
pub mod numa;
pub mod workloads;
