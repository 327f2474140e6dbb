//! # oltap-exec
//!
//! Vectorized query execution for `oltapdb`, implementing the
//! query-processing dimensions the tutorial enumerates:
//!
//! * [`expr`] — expression trees and the vectorized interpreter that
//!   defines their semantics: the one way anything evaluates an
//!   expression. (The tuple-at-a-time walk and the f64 register VM
//!   standing in for HyPer \[28\] / Impala \[41\] query compilation, the
//!   other two points of §4's spectrum, are `oltap-bench` baselines.)
//! * [`groups`] — [`RunningGroups`], the one group store every GROUP BY
//!   fills: key → group index, one typed accumulator column per distinct
//!   input, charged to the governor, spilling once refused, merged across
//!   stripes and partitions.
//! * [`fused`] — fused filter+aggregate directly over compressed
//!   segments: code-domain grouping straight into that store
//!   (HANA/BLU operate-on-compressed analog).
//!   (Predicates over packed codes run in `oltap-storage`; the naive and
//!   SWAR scans E3/E18 compare that kernel with are `oltap-bench`
//!   baselines.)
//! * [`pipeline`] — the one executor: morsel-driven pipelines (HyPer
//!   \[28\] morsel parallelism analog) whose source is the scan's own
//!   `(segment, row group, rows)` morsels, then tail batches; whichever
//!   thread claims a morsel selects and gathers it and runs the streaming
//!   filter / project / join-probe stages into its sink. One claim loop —
//!   the statement's thread plus the pool's [`Helpers`] — serves every
//!   pipeline and the fused walk. Plus `LIMIT`/`OFFSET` slicing of the
//!   morsel-ordered result.
//! * [`aggregate`], [`join`], [`sort`] — the pipeline breakers' cores:
//!   an aggregation's schema and input slots, radix-partitioned hash-join
//!   build and probe, the sort sink and top-K accumulators.
//! * `keys` (private) — the one key path those breakers share: hash,
//!   match and order key columns with `Value`'s semantics, one
//!   open-addressing key index, and the one record every spiller writes.
//! * [`resources`] — the per-query memory budget and spill directory the
//!   pipeline breakers (join build, aggregation, sort) degrade into when
//!   a reservation is rejected, without changing their output.

pub mod aggregate;
pub mod expr;
pub mod fused;
pub mod groups;
pub mod join;
mod keys;
pub mod pipeline;
pub mod resources;
pub mod sort;

pub use aggregate::{AggExpr, AggFunc, AggregatorCore};
pub use expr::{BinOp, Expr, UnOp};
pub use fused::{fused_aggregate, Fused};
pub use groups::{RunningGroups, Stripes, STRIPE_ROWS};
pub use join::{
    join_output_schema, probe_batch, JoinTable, JoinTableBuilder, JoinType, ProbeScratch,
    PARTITION_BITS,
};
pub use pipeline::{
    limit_batches, Helpers, ParallelContext, ProbeStage, Source, StageSpec, MORSEL_FAULT_RETRIES,
    MORSEL_ROWS,
};
pub use resources::ExecResources;
pub use sort::{topk_counts, SortKey, SortSink, TopKAcc, TopKCounts};
