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
//!   use, kept out of the engine crates (E8's shared scan; E18 / E19's
//!   naive and SWAR packed scans; E11's tuple walk and f64 VM).
//! * [`numa`] — a simulated NUMA topology, placement policies and cost
//!   model: E9's claim, held by the root's `tests/numa_model.rs`.
//! * [`harness`] — timing/table utilities shared by the nine experiment
//!   binaries (`cargo run -p oltap-bench --release --bin e02_...`), and
//!   [`harness::Report`]: the one file shape (`results/BENCH_*.json`) and
//!   the one `--gate` every experiment ends in.
//!
//! End-to-end measurement is not here: it is the `benchmark/` workspace.

pub mod baselines;
pub mod ch;
pub mod harness;
pub mod numa;
pub mod workloads;
