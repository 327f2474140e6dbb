//! A recursive-descent SQL parser with precedence climbing for
//! expressions.

use crate::ast::*;
use crate::plan::as_of_timestamp;
use crate::token::{tokenize, Token};
use oltap_common::{DataType, DbError, Result, Value};

/// Parses one statement (a trailing semicolon is allowed).
pub fn parse(sql: &str) -> Result<Statement> {
    parse_tokens(tokenize(sql)?, &[])
}

/// Parses one statement from the tokens [`crate::token::lex`] made of it:
/// each [`Token::Param`] becomes an [`AstExpr::Param`] holding its value
/// from `params`.
pub fn parse_tokens(tokens: Vec<Token>, params: &[Value]) -> Result<Statement> {
    let mut p = Parser {
        tokens,
        params,
        pos: 0,
    };
    let stmt = p.statement()?;
    p.eat_if(&Token::Semicolon);
    p.expect(&Token::Eof)?;
    Ok(stmt)
}

/// Parses a semicolon-separated script.
pub fn parse_script(sql: &str) -> Result<Vec<Statement>> {
    let mut p = Parser {
        tokens: tokenize(sql)?,
        params: &[],
        pos: 0,
    };
    let mut out = Vec::new();
    loop {
        while p.eat_if(&Token::Semicolon) {}
        if p.peek() == &Token::Eof {
            return Ok(out);
        }
        out.push(p.statement()?);
    }
}

struct Parser<'a> {
    tokens: Vec<Token>,
    params: &'a [Value],
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> &Token {
        &self.tokens[self.pos]
    }

    /// The current token, moved out (the parser never looks back), and a
    /// step forward; at the end, `Eof` again.
    fn next(&mut self) -> Token {
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
            std::mem::replace(&mut self.tokens[self.pos - 1], Token::Eof)
        } else {
            self.tokens[self.pos].clone()
        }
    }

    fn eat_if(&mut self, t: &Token) -> bool {
        if self.peek() == t {
            self.next();
            true
        } else {
            false
        }
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if matches!(self.peek(), Token::Keyword(k) if *k == kw) {
            self.next();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, t: &Token) -> Result<()> {
        if self.peek() == t {
            self.next();
            Ok(())
        } else {
            Err(DbError::Parse(format!(
                "expected {t:?}, found {:?}",
                self.peek()
            )))
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(DbError::Parse(format!(
                "expected {kw}, found {:?}",
                self.peek()
            )))
        }
    }

    fn ident(&mut self) -> Result<String> {
        match self.next() {
            Token::Ident(s) => Ok(s),
            other => Err(DbError::Parse(format!("expected identifier, found {other:?}"))),
        }
    }

    fn statement(&mut self) -> Result<Statement> {
        match self.peek() {
            Token::Keyword(k) => match *k {
                "SELECT" => Ok(Statement::Select(Box::new(self.select()?))),
                "EXPLAIN" => {
                    self.next();
                    Ok(Statement::Explain(Box::new(self.select()?)))
                }
                "INSERT" => self.insert(),
                "UPDATE" => self.update(),
                "DELETE" => self.delete(),
                "CREATE" => self.create_table(),
                "DROP" => self.drop_table(),
                "BEGIN" => {
                    self.next();
                    Ok(Statement::Begin)
                }
                "COMMIT" => {
                    self.next();
                    Ok(Statement::Commit)
                }
                "ROLLBACK" => {
                    self.next();
                    Ok(Statement::Rollback)
                }
                other => Err(DbError::Parse(format!("unexpected keyword {other}"))),
            },
            other => Err(DbError::Parse(format!("unexpected token {other:?}"))),
        }
    }

    // -----------------------------------------------------------------
    // CREATE / DROP
    // -----------------------------------------------------------------

    fn create_table(&mut self) -> Result<Statement> {
        self.expect_kw("CREATE")?;
        self.expect_kw("TABLE")?;
        let name = self.ident()?;
        self.expect(&Token::LParen)?;
        let mut columns = Vec::new();
        let mut primary_key = Vec::new();
        loop {
            if self.eat_kw("PRIMARY") {
                self.expect_kw("KEY")?;
                self.expect(&Token::LParen)?;
                loop {
                    primary_key.push(self.ident()?);
                    if !self.eat_if(&Token::Comma) {
                        break;
                    }
                }
                self.expect(&Token::RParen)?;
            } else {
                let cname = self.ident()?;
                let data_type = self.data_type()?;
                let mut not_null = false;
                if self.eat_kw("NOT") {
                    self.expect_kw("NULL")?;
                    not_null = true;
                } else if self.eat_kw("PRIMARY") {
                    self.expect_kw("KEY")?;
                    not_null = true;
                    primary_key.push(cname.clone());
                }
                columns.push(ColumnDef {
                    name: cname,
                    data_type,
                    not_null,
                });
            }
            if !self.eat_if(&Token::Comma) {
                break;
            }
        }
        self.expect(&Token::RParen)?;
        let mut format = FormatOpt::default();
        if self.eat_kw("USING") {
            self.expect_kw("FORMAT")?;
            format = if self.eat_kw("ROW") {
                FormatOpt::Row
            } else if self.eat_kw("COLUMN") {
                FormatOpt::Column
            } else if self.eat_kw("DUAL") {
                FormatOpt::Dual
            } else {
                return Err(DbError::Parse("expected ROW, COLUMN, or DUAL".into()));
            };
        }
        Ok(Statement::CreateTable {
            name,
            columns,
            primary_key,
            format,
        })
    }

    fn drop_table(&mut self) -> Result<Statement> {
        self.expect_kw("DROP")?;
        self.expect_kw("TABLE")?;
        Ok(Statement::DropTable {
            name: self.ident()?,
        })
    }

    fn data_type(&mut self) -> Result<DataType> {
        match self.next() {
            Token::Keyword(k) => match k {
                "INT" | "BIGINT" => Ok(DataType::Int64),
                "DOUBLE" | "FLOAT" => Ok(DataType::Float64),
                "TEXT" => Ok(DataType::Utf8),
                "VARCHAR" => {
                    // Optional length, ignored.
                    if self.eat_if(&Token::LParen) {
                        self.next();
                        self.expect(&Token::RParen)?;
                    }
                    Ok(DataType::Utf8)
                }
                "BOOLEAN" | "BOOL" => Ok(DataType::Bool),
                "TIMESTAMP" => Ok(DataType::Timestamp),
                other => Err(DbError::Parse(format!("unknown type {other}"))),
            },
            other => Err(DbError::Parse(format!("expected type, found {other:?}"))),
        }
    }

    // -----------------------------------------------------------------
    // DML
    // -----------------------------------------------------------------

    fn insert(&mut self) -> Result<Statement> {
        self.expect_kw("INSERT")?;
        self.expect_kw("INTO")?;
        let table = self.ident()?;
        let columns = if self.eat_if(&Token::LParen) {
            let mut cols = Vec::new();
            loop {
                cols.push(self.ident()?);
                if !self.eat_if(&Token::Comma) {
                    break;
                }
            }
            self.expect(&Token::RParen)?;
            Some(cols)
        } else {
            None
        };
        self.expect_kw("VALUES")?;
        let mut rows = Vec::new();
        loop {
            self.expect(&Token::LParen)?;
            let mut vals = Vec::new();
            loop {
                vals.push(self.expr(0)?);
                if !self.eat_if(&Token::Comma) {
                    break;
                }
            }
            self.expect(&Token::RParen)?;
            rows.push(vals);
            if !self.eat_if(&Token::Comma) {
                break;
            }
        }
        Ok(Statement::Insert {
            table,
            columns,
            rows,
        })
    }

    fn update(&mut self) -> Result<Statement> {
        self.expect_kw("UPDATE")?;
        let table = self.ident()?;
        self.expect_kw("SET")?;
        let mut set = Vec::new();
        loop {
            let col = self.ident()?;
            self.expect(&Token::Eq)?;
            set.push((col, self.expr(0)?));
            if !self.eat_if(&Token::Comma) {
                break;
            }
        }
        let filter = if self.eat_kw("WHERE") {
            Some(self.expr(0)?)
        } else {
            None
        };
        Ok(Statement::Update { table, set, filter })
    }

    fn delete(&mut self) -> Result<Statement> {
        self.expect_kw("DELETE")?;
        self.expect_kw("FROM")?;
        let table = self.ident()?;
        let filter = if self.eat_kw("WHERE") {
            Some(self.expr(0)?)
        } else {
            None
        };
        Ok(Statement::Delete { table, filter })
    }

    // -----------------------------------------------------------------
    // SELECT
    // -----------------------------------------------------------------

    fn select(&mut self) -> Result<SelectStmt> {
        self.expect_kw("SELECT")?;
        let mut items = Vec::new();
        loop {
            if self.eat_if(&Token::Star) {
                items.push(SelectItem::Wildcard);
            } else {
                let expr = self.expr(0)?;
                let alias = if self.eat_kw("AS") {
                    Some(self.ident()?)
                } else if let Token::Ident(_) = self.peek() {
                    Some(self.ident()?)
                } else {
                    None
                };
                items.push(SelectItem::Expr { expr, alias });
            }
            if !self.eat_if(&Token::Comma) {
                break;
            }
        }
        self.expect_kw("FROM")?;
        let from = self.table_ref()?;
        // Time travel: `FROM t AS OF <ts>` pins the statement's snapshot.
        let as_of = if self.eat_kw("AS") {
            self.expect_kw("OF")?;
            Some(self.timestamp()?)
        } else {
            None
        };
        let mut joins = Vec::new();
        loop {
            let join_type = if self.eat_kw("JOIN") || {
                if self.eat_kw("INNER") {
                    self.expect_kw("JOIN")?;
                    true
                } else {
                    false
                }
            } {
                AstJoinType::Inner
            } else if self.eat_kw("LEFT") {
                self.eat_kw("OUTER");
                self.expect_kw("JOIN")?;
                AstJoinType::Left
            } else {
                break;
            };
            let table = self.table_ref()?;
            self.expect_kw("ON")?;
            let mut on = Vec::new();
            loop {
                let l = self.column_name()?;
                self.expect(&Token::Eq)?;
                let r = self.column_name()?;
                on.push((l, r));
                if !self.eat_kw("AND") {
                    break;
                }
            }
            joins.push(JoinClause {
                table,
                join_type,
                on,
            });
        }
        let filter = if self.eat_kw("WHERE") {
            Some(self.expr(0)?)
        } else {
            None
        };
        let mut group_by = Vec::new();
        if self.eat_kw("GROUP") {
            self.expect_kw("BY")?;
            loop {
                group_by.push(self.expr(0)?);
                if !self.eat_if(&Token::Comma) {
                    break;
                }
            }
        }
        let having = if self.eat_kw("HAVING") {
            Some(self.expr(0)?)
        } else {
            None
        };
        let mut order_by = Vec::new();
        if self.eat_kw("ORDER") {
            self.expect_kw("BY")?;
            loop {
                let expr = self.expr(0)?;
                let desc = if self.eat_kw("DESC") {
                    true
                } else {
                    self.eat_kw("ASC");
                    false
                };
                order_by.push(OrderItem { expr, desc });
                if !self.eat_if(&Token::Comma) {
                    break;
                }
            }
        }
        let limit = if self.eat_kw("LIMIT") {
            Some(self.usize_literal()?)
        } else {
            None
        };
        let offset = if self.eat_kw("OFFSET") {
            Some(self.usize_literal()?)
        } else {
            None
        };
        Ok(SelectStmt {
            items,
            from,
            joins,
            filter,
            group_by,
            having,
            order_by,
            limit,
            offset,
            as_of,
        })
    }

    fn usize_literal(&mut self) -> Result<usize> {
        match self.next() {
            Token::Int(n) if n >= 0 => Ok(n as usize),
            other => Err(DbError::Parse(format!(
                "expected non-negative integer, found {other:?}"
            ))),
        }
    }

    /// `AS OF`'s timestamp, lifted or not.
    fn timestamp(&mut self) -> Result<AstExpr> {
        let ts = match self.next() {
            Token::Int(n) => AstExpr::Literal(Value::Int(n)),
            Token::Param(i) => self.param(i)?,
            other => {
                return Err(DbError::Parse(format!(
                    "expected non-negative integer, found {other:?}"
                )))
            }
        };
        as_of_timestamp(&ts, self.params)?;
        Ok(ts)
    }

    fn param(&self, i: usize) -> Result<AstExpr> {
        let v = self
            .params
            .get(i)
            .ok_or_else(|| DbError::Parse(format!("parameter {i} has no value")))?;
        Ok(AstExpr::Param(i, v.clone()))
    }

    fn table_ref(&mut self) -> Result<TableRef> {
        let name = self.ident()?;
        // `AS` introduces an alias unless it starts an `AS OF <ts>`
        // time-travel clause (two-token lookahead).
        let starts_as_of = matches!(self.peek(), Token::Keyword("AS"))
            && matches!(self.tokens.get(self.pos + 1), Some(Token::Keyword("OF")));
        let alias = if starts_as_of {
            None
        } else if self.eat_kw("AS") {
            Some(self.ident()?)
        } else if let Token::Ident(_) = self.peek() {
            Some(self.ident()?)
        } else {
            None
        };
        Ok(TableRef { name, alias })
    }

    fn column_name(&mut self) -> Result<ColumnName> {
        let first = self.ident()?;
        if self.eat_if(&Token::Dot) {
            Ok(ColumnName {
                qualifier: Some(first),
                name: self.ident()?,
            })
        } else {
            Ok(ColumnName {
                qualifier: None,
                name: first,
            })
        }
    }

    // -----------------------------------------------------------------
    // Expressions (precedence climbing)
    // -----------------------------------------------------------------

    /// Binding powers: OR=1, AND=2, NOT=3, comparison=4, +-=5, */%=6.
    fn expr(&mut self, min_bp: u8) -> Result<AstExpr> {
        let mut lhs = self.prefix()?;
        loop {
            let (op, bp) = match self.peek() {
                Token::Keyword("OR") => (BinOp::Or, 1),
                Token::Keyword("AND") => (BinOp::And, 2),
                Token::Eq => (BinOp::Eq, 4),
                Token::Ne => (BinOp::Ne, 4),
                Token::Lt => (BinOp::Lt, 4),
                Token::Le => (BinOp::Le, 4),
                Token::Gt => (BinOp::Gt, 4),
                Token::Ge => (BinOp::Ge, 4),
                Token::Plus => (BinOp::Add, 5),
                Token::Minus => (BinOp::Sub, 5),
                Token::Star => (BinOp::Mul, 6),
                Token::Slash => (BinOp::Div, 6),
                Token::Percent => (BinOp::Mod, 6),
                Token::Keyword("IS") => {
                    if min_bp > 4 {
                        break;
                    }
                    self.next();
                    let not = self.eat_kw("NOT");
                    self.expect_kw("NULL")?;
                    lhs = if not {
                        AstExpr::IsNotNull(Box::new(lhs))
                    } else {
                        AstExpr::IsNull(Box::new(lhs))
                    };
                    continue;
                }
                _ => break,
            };
            if bp < min_bp {
                break;
            }
            self.next();
            let rhs = self.expr(bp + 1)?;
            lhs = AstExpr::Binary {
                op,
                left: Box::new(lhs),
                right: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn prefix(&mut self) -> Result<AstExpr> {
        if let Token::Ident(_) = self.peek() {
            return Ok(AstExpr::Column(self.column_name()?));
        }
        match self.next() {
            Token::Keyword("NOT") => Ok(AstExpr::Not(Box::new(self.expr(3)?))),
            Token::Minus => Ok(AstExpr::Neg(Box::new(self.prefix()?))),
            Token::Int(n) => Ok(AstExpr::Literal(Value::Int(n))),
            Token::Float(f) => Ok(AstExpr::Literal(Value::Float(f))),
            Token::Str(s) => Ok(AstExpr::Literal(Value::Str(s))),
            Token::Param(i) => self.param(i),
            Token::Keyword("TRUE") => Ok(AstExpr::Literal(Value::Bool(true))),
            Token::Keyword("FALSE") => Ok(AstExpr::Literal(Value::Bool(false))),
            Token::Keyword("NULL") => Ok(AstExpr::Literal(Value::Null)),
            Token::Keyword(func @ ("COUNT" | "SUM" | "MIN" | "MAX" | "AVG")) => {
                self.expect(&Token::LParen)?;
                let arg = if func == "COUNT" && self.eat_if(&Token::Star) {
                    None
                } else {
                    Some(Box::new(self.expr(0)?))
                };
                self.expect(&Token::RParen)?;
                Ok(AstExpr::Aggregate {
                    func: func.to_string(),
                    arg,
                })
            }
            Token::LParen => {
                let e = self.expr(0)?;
                self.expect(&Token::RParen)?;
                Ok(e)
            }
            other => Err(DbError::Parse(format!(
                "unexpected token in expression: {other:?}"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_create_table() {
        let s = parse(
            "CREATE TABLE metrics (host TEXT NOT NULL, ts TIMESTAMP NOT NULL, \
             value DOUBLE, ok BOOLEAN, PRIMARY KEY (host, ts)) USING FORMAT COLUMN",
        )
        .unwrap();
        match s {
            Statement::CreateTable {
                name,
                columns,
                primary_key,
                format,
            } => {
                assert_eq!(name, "metrics");
                assert_eq!(columns.len(), 4);
                assert_eq!(columns[0].data_type, DataType::Utf8);
                assert!(columns[0].not_null);
                assert_eq!(columns[2].data_type, DataType::Float64);
                assert!(!columns[2].not_null);
                assert_eq!(primary_key, vec!["host", "ts"]);
                assert_eq!(format, FormatOpt::Column);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn inline_primary_key() {
        let s = parse("CREATE TABLE t (id BIGINT PRIMARY KEY, v INT) USING FORMAT DUAL").unwrap();
        match s {
            Statement::CreateTable {
                primary_key,
                format,
                ..
            } => {
                assert_eq!(primary_key, vec!["id"]);
                assert_eq!(format, FormatOpt::Dual);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_insert() {
        let s = parse("INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')").unwrap();
        match s {
            Statement::Insert {
                table,
                columns,
                rows,
            } => {
                assert_eq!(table, "t");
                assert_eq!(columns, Some(vec!["a".into(), "b".into()]));
                assert_eq!(rows.len(), 2);
                assert_eq!(rows[1][0], AstExpr::Literal(Value::Int(2)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_negative_literals() {
        let s = parse("INSERT INTO t VALUES (-5, -2.5)").unwrap();
        match s {
            Statement::Insert { rows, .. } => {
                // The minus is part of the number.
                assert_eq!(rows[0][0], AstExpr::Literal(Value::Int(-5)));
                assert_eq!(rows[0][1], AstExpr::Literal(Value::Float(-2.5)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_update_delete() {
        let s = parse("UPDATE t SET a = a + 1, b = 'z' WHERE id = 7").unwrap();
        assert!(matches!(s, Statement::Update { set, filter: Some(_), .. } if set.len() == 2));
        let s = parse("DELETE FROM t WHERE id >= 10 AND id < 20").unwrap();
        assert!(matches!(s, Statement::Delete { filter: Some(_), .. }));
    }

    #[test]
    fn parses_select_with_everything() {
        let s = parse(
            "SELECT region, COUNT(*) AS n, SUM(amount) total \
             FROM orders o JOIN customers c ON o.cust_id = c.id \
             WHERE amount > 100 AND region <> 'test' \
             GROUP BY region HAVING COUNT(*) > 5 \
             ORDER BY n DESC, region LIMIT 10 OFFSET 5",
        )
        .unwrap();
        let sel = match s {
            Statement::Select(s) => s,
            other => panic!("{other:?}"),
        };
        assert_eq!(sel.items.len(), 3);
        assert_eq!(sel.joins.len(), 1);
        assert_eq!(sel.joins[0].on.len(), 1);
        assert!(sel.filter.is_some());
        assert_eq!(sel.group_by.len(), 1);
        assert!(sel.having.is_some());
        assert_eq!(sel.order_by.len(), 2);
        assert!(sel.order_by[0].desc);
        assert!(!sel.order_by[1].desc);
        assert_eq!(sel.limit, Some(10));
        assert_eq!(sel.offset, Some(5));
        assert_eq!(sel.as_of, None);
    }

    #[test]
    fn parses_as_of_time_travel() {
        let sel = match parse("SELECT v FROM t AS OF 42 WHERE v > 1").unwrap() {
            Statement::Select(s) => s,
            other => panic!("{other:?}"),
        };
        assert_eq!(sel.as_of, Some(AstExpr::Literal(Value::Int(42))));
        assert_eq!(sel.from.alias, None);
        assert!(sel.filter.is_some());

        // `AS <ident>` is still an alias; `AS OF` needs the keyword pair.
        let sel = match parse("SELECT o.v FROM t AS o AS OF 7").unwrap() {
            Statement::Select(s) => s,
            other => panic!("{other:?}"),
        };
        assert_eq!(sel.from.alias.as_deref(), Some("o"));
        assert_eq!(sel.as_of, Some(AstExpr::Literal(Value::Int(7))));

        // A negative or missing timestamp is a parse error.
        assert!(parse("SELECT v FROM t AS OF -1").is_err());
        assert!(parse("SELECT v FROM t AS OF").is_err());
    }

    /// What `lex` lifted parses to parameters holding their values; the
    /// counts the shape keeps stay literal.
    #[test]
    fn parses_lifted_literals_as_params() {
        let l = crate::token::lex("SELECT v FROM t AS OF 9 WHERE id = -3 AND s = 'x' LIMIT 2").unwrap();
        let sel = match parse_tokens(l.tokens, &l.params).unwrap() {
            Statement::Select(s) => s,
            other => panic!("{other:?}"),
        };
        assert_eq!(sel.as_of, Some(AstExpr::Param(0, Value::Int(9))));
        assert_eq!(sel.limit, Some(2));
        match sel.filter.unwrap() {
            AstExpr::Binary { left, right, .. } => {
                assert!(matches!(*left, AstExpr::Binary { right, .. } if *right == AstExpr::Param(1, Value::Int(-3))));
                assert!(matches!(*right, AstExpr::Binary { right, .. } if *right == AstExpr::Param(2, Value::Str("x".into()))));
            }
            other => panic!("{other:?}"),
        }
        // A negative timestamp fails lifted as it does written.
        let l = crate::token::lex("SELECT v FROM t AS OF -1").unwrap();
        assert!(matches!(parse_tokens(l.tokens, &l.params), Err(DbError::Parse(_))));
    }

    #[test]
    fn operator_precedence() {
        // a + b * 2 = c AND d OR e  →  (((a + (b*2)) = c) AND d) OR e
        let s = parse("SELECT * FROM t WHERE a + b * 2 = c AND d OR e").unwrap();
        let sel = match s {
            Statement::Select(s) => s,
            _ => unreachable!(),
        };
        let f = sel.filter.unwrap();
        match f {
            AstExpr::Binary {
                op: BinOp::Or,
                left,
                ..
            } => match *left {
                AstExpr::Binary {
                    op: BinOp::And,
                    left,
                    ..
                } => match *left {
                    AstExpr::Binary { op: BinOp::Eq, left, .. } => match *left {
                        AstExpr::Binary { op: BinOp::Add, right, .. } => {
                            assert!(matches!(*right, AstExpr::Binary { op: BinOp::Mul, .. }));
                        }
                        other => panic!("{other:?}"),
                    },
                    other => panic!("{other:?}"),
                },
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parenthesized_expressions() {
        let s = parse("SELECT * FROM t WHERE (a OR b) AND c").unwrap();
        let sel = match s {
            Statement::Select(s) => s,
            _ => unreachable!(),
        };
        assert!(matches!(
            sel.filter.unwrap(),
            AstExpr::Binary { op: BinOp::And, .. }
        ));
    }

    #[test]
    fn is_null_parsing() {
        let s = parse("SELECT * FROM t WHERE a IS NULL OR b IS NOT NULL").unwrap();
        let sel = match s {
            Statement::Select(s) => s,
            _ => unreachable!(),
        };
        match sel.filter.unwrap() {
            AstExpr::Binary { op: BinOp::Or, left, right } => {
                assert!(matches!(*left, AstExpr::IsNull(_)));
                assert!(matches!(*right, AstExpr::IsNotNull(_)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn multi_key_join() {
        let s = parse("SELECT * FROM a JOIN b ON a.x = b.x AND a.y = b.y").unwrap();
        let sel = match s {
            Statement::Select(s) => s,
            _ => unreachable!(),
        };
        assert_eq!(sel.joins[0].on.len(), 2);
    }

    #[test]
    fn left_join() {
        let s = parse("SELECT * FROM a LEFT OUTER JOIN b ON a.x = b.x").unwrap();
        let sel = match s {
            Statement::Select(s) => s,
            _ => unreachable!(),
        };
        assert_eq!(sel.joins[0].join_type, AstJoinType::Left);
    }

    #[test]
    fn txn_statements() {
        assert_eq!(parse("BEGIN").unwrap(), Statement::Begin);
        assert_eq!(parse("COMMIT;").unwrap(), Statement::Commit);
        assert_eq!(parse("ROLLBACK").unwrap(), Statement::Rollback);
    }

    #[test]
    fn script_parsing() {
        let stmts = parse_script(
            "CREATE TABLE t (a INT); INSERT INTO t VALUES (1); SELECT * FROM t;",
        )
        .unwrap();
        assert_eq!(stmts.len(), 3);
    }

    #[test]
    fn error_recovery_messages() {
        assert!(parse("SELECT FROM t").is_err());
        assert!(parse("SELECT * FROM").is_err());
        assert!(parse("INSERT t VALUES (1)").is_err());
        assert!(parse("SELECT * FROM t WHERE").is_err());
        assert!(parse("CREATE TABLE t (a BADTYPE)").is_err());
        assert!(parse("SELECT * FROM t LIMIT -1").is_err());
        // Trailing garbage rejected.
        assert!(parse("SELECT * FROM t garbage garbage").is_err());
    }

    #[test]
    fn explain_statement() {
        let s = parse("EXPLAIN SELECT a FROM t WHERE a > 1").unwrap();
        assert!(matches!(s, Statement::Explain(_)));
    }

    #[test]
    fn count_star_vs_count_expr() {
        let s = parse("SELECT COUNT(*), COUNT(a) FROM t").unwrap();
        let sel = match s {
            Statement::Select(s) => s,
            _ => unreachable!(),
        };
        match (&sel.items[0], &sel.items[1]) {
            (
                SelectItem::Expr {
                    expr: AstExpr::Aggregate { arg: None, .. },
                    ..
                },
                SelectItem::Expr {
                    expr: AstExpr::Aggregate { arg: Some(_), .. },
                    ..
                },
            ) => {}
            other => panic!("{other:?}"),
        }
    }
}
