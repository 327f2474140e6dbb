//! The abstract syntax tree produced by the parser.

use oltap_common::{DataType, Value};
use std::fmt;

/// A (possibly qualified) column reference.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnName {
    /// Table name or alias qualifier, if written.
    pub qualifier: Option<String>,
    /// Column name.
    pub name: String,
}

impl fmt::Display for ColumnName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.qualifier {
            Some(q) => write!(f, "{q}.{}", self.name),
            None => f.write_str(&self.name),
        }
    }
}

/// Binary operators at the AST level (same set as the executor's).
pub use oltap_exec::expr::BinOp;

/// An unbound scalar expression.
#[derive(Debug, Clone, PartialEq)]
pub enum AstExpr {
    /// Column reference.
    Column(ColumnName),
    /// Literal value.
    Literal(Value),
    /// A literal lifted out of the statement: its index among the
    /// statement's parameters, and its value in this statement. A plan
    /// bound from it is a plan for every statement of the same shape.
    Param(usize, Value),
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        left: Box<AstExpr>,
        /// Right operand.
        right: Box<AstExpr>,
    },
    /// `NOT expr`.
    Not(Box<AstExpr>),
    /// `-expr`.
    Neg(Box<AstExpr>),
    /// `expr IS NULL`.
    IsNull(Box<AstExpr>),
    /// `expr IS NOT NULL`.
    IsNotNull(Box<AstExpr>),
    /// Aggregate call: COUNT/SUM/MIN/MAX/AVG. `None` argument = `COUNT(*)`.
    Aggregate {
        /// Function name (uppercased).
        func: String,
        /// Argument, or `None` for `COUNT(*)`.
        arg: Option<Box<AstExpr>>,
    },
}

/// One item of a SELECT list.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*`
    Wildcard,
    /// An expression with an optional alias.
    Expr {
        /// The expression.
        expr: AstExpr,
        /// `AS alias`.
        alias: Option<String>,
    },
}

/// A table reference with an optional alias.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TableRef {
    /// Table name.
    pub name: String,
    /// `AS alias`.
    pub alias: Option<String>,
}

impl TableRef {
    /// The name queries use to qualify columns of this reference.
    pub fn effective_name(&self) -> &str {
        self.alias.as_deref().unwrap_or(&self.name)
    }
}

/// Join clause kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AstJoinType {
    /// INNER JOIN.
    Inner,
    /// LEFT \[OUTER\] JOIN.
    Left,
}

/// One `JOIN ... ON a = b [AND c = d ...]` clause.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinClause {
    /// The joined table.
    pub table: TableRef,
    /// Kind.
    pub join_type: AstJoinType,
    /// Equality pairs from the ON conjunction.
    pub on: Vec<(ColumnName, ColumnName)>,
}

/// One ORDER BY key.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderItem {
    /// Key expression.
    pub expr: AstExpr,
    /// Descending?
    pub desc: bool,
}

/// A SELECT statement.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SelectStmt {
    /// SELECT list.
    pub items: Vec<SelectItem>,
    /// FROM table.
    pub from: TableRef,
    /// JOIN clauses, in order.
    pub joins: Vec<JoinClause>,
    /// WHERE predicate.
    pub filter: Option<AstExpr>,
    /// GROUP BY expressions.
    pub group_by: Vec<AstExpr>,
    /// HAVING predicate (applied after aggregation).
    pub having: Option<AstExpr>,
    /// ORDER BY keys.
    pub order_by: Vec<OrderItem>,
    /// LIMIT.
    pub limit: Option<usize>,
    /// OFFSET.
    pub offset: Option<usize>,
    /// `AS OF <ts>` time-travel clause: run the statement at this
    /// historical snapshot instead of the session's (a literal or a
    /// parameter; see [`crate::plan::as_of_timestamp`]).
    pub as_of: Option<AstExpr>,
}

impl SelectStmt {
    /// `SELECT * FROM table [WHERE filter]`: the query whose rows an
    /// `UPDATE` or `DELETE` of `table` with that `WHERE` changes.
    pub fn rows_of(table: &str, filter: Option<AstExpr>) -> SelectStmt {
        SelectStmt {
            items: vec![SelectItem::Wildcard],
            from: TableRef {
                name: table.to_string(),
                alias: None,
            },
            filter,
            ..SelectStmt::default()
        }
    }
}

/// Storage format requested in CREATE TABLE ... USING FORMAT.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FormatOpt {
    /// Row store only (pure OLTP).
    Row,
    /// Delta + columnar main (the default; pure analytics-friendly).
    #[default]
    Column,
    /// Dual format (row store + delta + columnar main).
    Dual,
}

/// A column definition in CREATE TABLE.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnDef {
    /// Name.
    pub name: String,
    /// Type.
    pub data_type: DataType,
    /// NOT NULL?
    pub not_null: bool,
}

/// Any SQL statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// CREATE TABLE.
    CreateTable {
        /// Table name.
        name: String,
        /// Column definitions.
        columns: Vec<ColumnDef>,
        /// PRIMARY KEY column names.
        primary_key: Vec<String>,
        /// Storage format.
        format: FormatOpt,
    },
    /// DROP TABLE.
    DropTable {
        /// Table name.
        name: String,
    },
    /// INSERT INTO ... VALUES.
    Insert {
        /// Table name.
        table: String,
        /// Optional explicit column list.
        columns: Option<Vec<String>>,
        /// Literal rows.
        rows: Vec<Vec<AstExpr>>,
    },
    /// UPDATE ... SET ... WHERE.
    Update {
        /// Table name.
        table: String,
        /// SET assignments.
        set: Vec<(String, AstExpr)>,
        /// WHERE predicate.
        filter: Option<AstExpr>,
    },
    /// DELETE FROM ... WHERE.
    Delete {
        /// Table name.
        table: String,
        /// WHERE predicate.
        filter: Option<AstExpr>,
    },
    /// SELECT.
    Select(Box<SelectStmt>),
    /// EXPLAIN SELECT — show the optimized logical plan.
    Explain(Box<SelectStmt>),
    /// BEGIN.
    Begin,
    /// COMMIT.
    Commit,
    /// ROLLBACK.
    Rollback,
}
