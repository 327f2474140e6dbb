//! Comparison implementations that only the experiment harnesses import.
//! They are not part of the engine: no query path reaches them.

pub mod f64_vm;
pub mod packed_scan;
pub mod shared_scan;
pub mod tuple_eval;
