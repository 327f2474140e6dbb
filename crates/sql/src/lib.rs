//! # oltap-sql
//!
//! The SQL front end: [`token`] (lexer), [`ast`] + [`parser`]
//! (recursive-descent with precedence climbing), [`plan`] (binder and
//! logical plans), and [`optimizer`] (constant folding, predicate pushdown
//! into storage scans, scan projection pruning).
//!
//! The output of [`plan::bind_select`] + [`optimizer::optimize`] is a
//! [`plan::LogicalPlan`] whose expressions are fully resolved executor
//! expressions; `oltap-core` lowers it onto physical operators.

pub mod ast;
pub mod optimizer;
pub mod parser;
pub mod plan;
pub mod token;

pub use ast::Statement;
pub use optimizer::optimize;
pub use parser::{parse, parse_script};
pub use plan::{bind_scalar, bind_select, AccessPath, CatalogView, LogicalPlan};
