//! # oltap-sql
//!
//! The SQL front end: [`token`] (lexer, and the statement shape the plan
//! cache is keyed on), [`ast`] + [`parser`] (recursive-descent with
//! precedence climbing), [`plan`] (binder and logical plans), and
//! [`optimizer`] (constant folding, predicate pushdown into storage scans,
//! scan projection pruning).
//!
//! The output of [`plan::bind_select`] + [`optimizer::optimize`] is a
//! [`plan::LogicalPlan`] whose expressions are fully resolved executor
//! expressions; `oltap-core` lowers it onto physical operators. A statement
//! lexed by [`token::lex`] and parsed by [`parser::parse_tokens`] binds to
//! a plan with parameter slots ([`optimizer::optimize_shape`]), which
//! [`plan::LogicalPlan::fill`] completes for each statement of its shape.

pub mod ast;
pub mod optimizer;
pub mod parser;
pub mod plan;
pub mod token;

pub use ast::Statement;
pub use optimizer::{optimize, optimize_shape};
pub use parser::{parse, parse_script, parse_tokens};
pub use plan::{bind_scalar, bind_select, AccessPath, CatalogView, LogicalPlan};
pub use token::{lex, Lexed};
