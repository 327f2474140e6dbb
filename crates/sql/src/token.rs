//! The SQL lexer — and, run by [`lex`], the statement fingerprint the plan
//! cache is keyed on.
//!
//! One pass does both. [`tokenize`] hands over the tokens as written;
//! [`lex`] also *lifts* every literal into [`Lexed::params`], leaving a
//! [`Token::Param`] in its place, and spells the statement's *shape* as it
//! goes: every token but a lifted literal verbatim, a lifted literal as
//! `?` and its type. Two statements that differ only in their constants
//! share a shape, so one plan serves both (DESIGN.md § "Plan cache").
//!
//! What the shape keeps verbatim is what the planner reads as structure:
//! the `LIMIT` / `OFFSET` counts, and `NULL`, which is syntax too (`IS
//! NULL`, `NOT NULL`). A unary minus is folded into the number it precedes
//! (`-5` is one literal, in both modes). An `INSERT`'s lifted values are
//! untyped in the shape: rows are type-checked when they are built.

use oltap_common::{DbError, Result, Value};
use std::fmt::Write;

/// A lexical token.
#[derive(Debug, Clone, PartialEq)]
pub enum Token {
    /// Bare identifier (lowercased) or double-quoted identifier (verbatim).
    Ident(String),
    /// Keyword (uppercased).
    Keyword(&'static str),
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// Single-quoted string literal.
    Str(String),
    /// A literal [`lex`] lifted out: the index of its value in
    /// [`Lexed::params`].
    Param(usize),
    /// `,`
    Comma,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `;`
    Semicolon,
    /// `.`
    Dot,
    /// `*`
    Star,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `/`
    Slash,
    /// `%`
    Percent,
    /// `=`
    Eq,
    /// `<>` or `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// End of input.
    Eof,
}

/// The keywords, commonest first (a scan finds them).
const KEYWORDS: &[&str] = &[
    "SELECT", "FROM", "WHERE", "GROUP", "BY", "ORDER", "LIMIT", "OFFSET", "ASC", "DESC",
    "INSERT", "INTO", "VALUES", "UPDATE", "SET", "DELETE", "CREATE", "TABLE", "PRIMARY",
    "KEY", "NOT", "NULL", "AND", "OR", "AS", "JOIN", "INNER", "LEFT", "OUTER", "ON",
    "INT", "BIGINT", "DOUBLE", "FLOAT", "TEXT", "VARCHAR", "BOOLEAN", "BOOL", "TIMESTAMP",
    "TRUE", "FALSE", "IS", "COUNT", "SUM", "MIN", "MAX", "AVG", "USING", "FORMAT", "ROW",
    "COLUMN", "DUAL", "HAVING", "DISTINCT", "BEGIN", "COMMIT", "ROLLBACK", "DROP", "EXPLAIN",
    "OF",
];

/// The keyword `word` spells, in any case.
fn keyword(word: &str) -> Option<&'static str> {
    let upper = word.to_ascii_uppercase();
    KEYWORDS.iter().copied().find(|k| *k == upper)
}

/// A statement as [`lex`] hands it over.
#[derive(Debug, Clone, PartialEq)]
pub struct Lexed {
    /// The tokens, each lifted literal a [`Token::Param`].
    pub tokens: Vec<Token>,
    /// The lifted literals, in source order.
    pub params: Vec<Value>,
    /// The statement with its lifted literals replaced by their types: the
    /// plan cache's key.
    pub shape: String,
}

/// Tokenizes `input`, literals as written.
pub fn tokenize(input: &str) -> Result<Vec<Token>> {
    scan(input, false).map(|l| l.tokens)
}

/// Tokenizes `input`, lifting its literals and spelling its shape.
pub fn lex(input: &str) -> Result<Lexed> {
    scan(input, true)
}

/// What the last token was, as far as the next one cares.
#[derive(Clone, Copy, PartialEq)]
enum Last {
    /// No token yet.
    Nothing,
    /// The end of an operand: a `-` after it is binary.
    Operand,
    /// `LIMIT` or `OFFSET`: a count follows, kept in the shape.
    Count,
    Other,
}

/// The one lexer: `lift` selects [`lex`]'s output over [`tokenize`]'s.
fn scan(input: &str, lift: bool) -> Result<Lexed> {
    let mut lx = Lexer {
        out: Lexed {
            tokens: Vec::with_capacity(input.len() / 4),
            params: Vec::new(),
            shape: String::with_capacity(if lift { input.len() + 8 } else { 0 }),
        },
        lift,
        typed: true,
        last: Last::Nothing,
    };
    let bytes = input.as_bytes();
    let mut i = 0usize;
    while i < bytes.len() {
        let c = bytes[i] as char;
        let next = bytes.get(i + 1).copied();
        match c {
            ' ' | '\t' | '\n' | '\r' => i += 1,
            '-' if next == Some(b'-') => {
                // Line comment.
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            // A minus that cannot be binary, before a digit: part of the number.
            '-' if next.is_some_and(|b| b.is_ascii_digit()) && lx.last != Last::Operand => {
                i = lx.number(input, i)?;
            }
            '!' if next == Some(b'=') => {
                lx.push(Token::Ne);
                i += 2;
            }
            '<' if next == Some(b'=') => {
                lx.push(Token::Le);
                i += 2;
            }
            '<' if next == Some(b'>') => {
                lx.push(Token::Ne);
                i += 2;
            }
            '>' if next == Some(b'=') => {
                lx.push(Token::Ge);
                i += 2;
            }
            ',' | '(' | ')' | ';' | '.' | '*' | '+' | '-' | '/' | '%' | '=' | '<' | '>' => {
                lx.push(match c {
                    ',' => Token::Comma,
                    '(' => Token::LParen,
                    ')' => Token::RParen,
                    ';' => Token::Semicolon,
                    '.' => Token::Dot,
                    '*' => Token::Star,
                    '+' => Token::Plus,
                    '-' => Token::Minus,
                    '/' => Token::Slash,
                    '%' => Token::Percent,
                    '=' => Token::Eq,
                    '<' => Token::Lt,
                    _ => Token::Gt,
                });
                i += 1;
            }
            '\'' => {
                // String literal with '' escaping. Bytes are collected and
                // re-validated so multi-byte UTF-8 passes through intact.
                let mut buf: Vec<u8> = Vec::new();
                i += 1;
                loop {
                    if i >= bytes.len() {
                        return Err(DbError::Parse("unterminated string literal".into()));
                    }
                    if bytes[i] == b'\'' {
                        if i + 1 < bytes.len() && bytes[i + 1] == b'\'' {
                            buf.push(b'\'');
                            i += 2;
                        } else {
                            i += 1;
                            break;
                        }
                    } else {
                        buf.push(bytes[i]);
                        i += 1;
                    }
                }
                let s = String::from_utf8(buf)
                    .map_err(|_| DbError::Parse("invalid utf8 in string literal".into()))?;
                lx.literal(Value::Str(s));
            }
            '"' => {
                // Quoted identifier.
                let start = i + 1;
                i += 1;
                while i < bytes.len() && bytes[i] != b'"' {
                    i += 1;
                }
                if i >= bytes.len() {
                    return Err(DbError::Parse("unterminated quoted identifier".into()));
                }
                lx.ident(&input[start..i], false);
                i += 1;
            }
            c if c.is_ascii_digit() => i = lx.number(input, i)?,
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                    i += 1;
                }
                let word = &input[start..i];
                match keyword(word) {
                    Some("TRUE") if lift => lx.literal(Value::Bool(true)),
                    Some("FALSE") if lift => lx.literal(Value::Bool(false)),
                    Some(k) => {
                        if lx.last == Last::Nothing && k == "INSERT" {
                            lx.typed = false;
                        }
                        lx.push(Token::Keyword(k));
                    }
                    None => lx.ident(word, true),
                }
            }
            other => {
                return Err(DbError::Parse(format!("unexpected character '{other}'")));
            }
        }
    }
    lx.out.tokens.push(Token::Eof);
    Ok(lx.out)
}

struct Lexer {
    out: Lexed,
    lift: bool,
    /// Whether a lifted literal's type goes into the shape (not in an
    /// `INSERT`).
    typed: bool,
    last: Last,
}

impl Lexer {
    /// A keyword, a punctuation token or a `LIMIT` / `OFFSET` count.
    fn push(&mut self, t: Token) {
        self.last = match t {
            Token::Int(_) | Token::RParen | Token::Keyword("TRUE" | "FALSE" | "NULL") => {
                Last::Operand
            }
            Token::Keyword("LIMIT" | "OFFSET") => Last::Count,
            _ => Last::Other,
        };
        if self.lift {
            let s = &mut self.out.shape;
            match &t {
                Token::Keyword(k) => {
                    s.push_str(k);
                    s.push(' ');
                }
                Token::Int(n) => {
                    let _ = write!(s, "{n} ");
                }
                // One character a token, so `<` `=` never reads as `<=`.
                punct => s.push(match punct {
                    Token::Comma => ',',
                    Token::LParen => '(',
                    Token::RParen => ')',
                    Token::Semicolon => ';',
                    Token::Dot => '.',
                    Token::Star => '*',
                    Token::Plus => '+',
                    Token::Minus => '-',
                    Token::Slash => '/',
                    Token::Percent => '%',
                    Token::Eq => '=',
                    Token::Ne => '!',
                    Token::Lt => '<',
                    Token::Le => '[',
                    Token::Gt => '>',
                    Token::Ge => ']',
                    other => unreachable!("{other:?} is not pushed"),
                }),
            }
        }
        self.out.tokens.push(t);
    }

    /// An identifier: `bare` ones are case-insensitive (lowercased).
    fn ident(&mut self, name: &str, bare: bool) {
        self.last = Last::Operand;
        if self.lift {
            let s = &mut self.out.shape;
            s.push('"');
            let start = s.len();
            s.push_str(name);
            if bare {
                s[start..].make_ascii_lowercase();
            }
            s.push('"');
        }
        let name = if bare { name.to_ascii_lowercase() } else { name.to_string() };
        self.out.tokens.push(Token::Ident(name));
    }

    /// A literal: lifted by [`lex`] unless it is a `LIMIT` / `OFFSET`
    /// count, kept as written otherwise.
    fn literal(&mut self, v: Value) {
        let count = self.last == Last::Count;
        match v {
            Value::Int(n) if !self.lift || count => self.push(Token::Int(n)),
            v if self.lift => {
                self.last = Last::Operand;
                let s = &mut self.out.shape;
                s.push('?');
                if self.typed {
                    s.push(match v {
                        Value::Int(_) => 'i',
                        Value::Float(_) => 'f',
                        Value::Str(_) => 's',
                        _ => 'b',
                    });
                }
                self.out.tokens.push(Token::Param(self.out.params.len()));
                self.out.params.push(v);
            }
            v => {
                self.last = Last::Operand;
                self.out.tokens.push(match v {
                    Value::Float(f) => Token::Float(f),
                    Value::Str(s) => Token::Str(s),
                    other => unreachable!("unlifted literal {other:?}"),
                });
            }
        }
    }

    /// Lexes the number starting at `start` (at its unary minus, if it has
    /// one) and returns the offset past it. The signed text is parsed
    /// whole, so `-9223372036854775808` is `i64::MIN`.
    fn number(&mut self, input: &str, start: usize) -> Result<usize> {
        let bytes = input.as_bytes();
        let digits = |mut i: usize| {
            while i < bytes.len() && bytes[i].is_ascii_digit() {
                i += 1;
            }
            i
        };
        let mut i = digits(start + (bytes[start] == b'-') as usize);
        let is_float = i + 1 < bytes.len() && bytes[i] == b'.' && bytes[i + 1].is_ascii_digit();
        if is_float {
            i = digits(i + 1);
        }
        let text = &input[start..i];
        self.literal(if is_float {
            let f: f64 = text
                .parse()
                .map_err(|_| DbError::Parse(format!("bad float literal {text}")))?;
            Value::Float(f)
        } else {
            let n: i64 = text
                .parse()
                .map_err(|_| DbError::Parse(format!("bad integer literal {text}")))?;
            Value::Int(n)
        });
        Ok(i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_select() {
        let toks = tokenize("SELECT a, b FROM t WHERE a >= 10;").unwrap();
        assert_eq!(toks[0], Token::Keyword("SELECT"));
        assert_eq!(toks[1], Token::Ident("a".into()));
        assert_eq!(toks[2], Token::Comma);
        assert!(toks.contains(&Token::Ge));
        assert!(toks.contains(&Token::Int(10)));
        assert_eq!(*toks.last().unwrap(), Token::Eof);
    }

    #[test]
    fn numbers_and_strings() {
        let toks = tokenize("1 2.5 'it''s' 'plain'").unwrap();
        assert_eq!(toks[0], Token::Int(1));
        assert_eq!(toks[1], Token::Float(2.5));
        assert_eq!(toks[2], Token::Str("it's".into()));
        assert_eq!(toks[3], Token::Str("plain".into()));
    }

    #[test]
    fn operators() {
        let toks = tokenize("= <> != < <= > >= + - * / %").unwrap();
        use Token::*;
        assert_eq!(
            toks,
            vec![Eq, Ne, Ne, Lt, Le, Gt, Ge, Plus, Minus, Star, Slash, Percent, Eof]
        );
    }

    #[test]
    fn case_insensitive_keywords_lowercased_idents() {
        let toks = tokenize("select FooBar froM T1").unwrap();
        assert_eq!(toks[0], Token::Keyword("SELECT"));
        assert_eq!(toks[1], Token::Ident("foobar".into()));
        assert_eq!(toks[2], Token::Keyword("FROM"));
        assert_eq!(toks[3], Token::Ident("t1".into()));
    }

    #[test]
    fn keywords_are_found_in_any_case() {
        for k in KEYWORDS {
            assert_eq!(keyword(k), Some(*k));
            assert_eq!(keyword(&k.to_ascii_lowercase()), Some(*k));
        }
        for word in ["selects", "c_name", "timestamps", "o", ""] {
            assert_eq!(keyword(word), None, "{word}");
        }
    }

    #[test]
    fn comments_skipped() {
        let toks = tokenize("SELECT 1 -- trailing comment\n, 2").unwrap();
        assert!(toks.contains(&Token::Int(2)));
    }

    #[test]
    fn quoted_identifiers_preserve_case() {
        let toks = tokenize("\"MiXeD\"").unwrap();
        assert_eq!(toks[0], Token::Ident("MiXeD".into()));
    }

    #[test]
    fn errors() {
        assert!(tokenize("'unterminated").is_err());
        assert!(tokenize("SELECT @").is_err());
        assert!(tokenize("99999999999999999999999").is_err());
        assert!(tokenize("9223372036854775808").is_err());
        assert!(tokenize("-9223372036854775809").is_err());
    }

    #[test]
    fn qualified_name() {
        let toks = tokenize("t.a").unwrap();
        assert_eq!(
            toks,
            vec![
                Token::Ident("t".into()),
                Token::Dot,
                Token::Ident("a".into()),
                Token::Eof
            ]
        );
    }

    /// A minus folds into the number after it unless it follows an operand.
    #[test]
    fn unary_minus_is_part_of_the_number() {
        use Token::*;
        assert_eq!(
            tokenize("a -1, (-2.5), 3-4, x*-5, - 6, TRUE -7").unwrap(),
            vec![
                Ident("a".into()),
                Minus,
                Int(1),
                Comma,
                LParen,
                Float(-2.5),
                RParen,
                Comma,
                Int(3),
                Minus,
                Int(4),
                Comma,
                Ident("x".into()),
                Star,
                Int(-5),
                Comma,
                Minus,
                Int(6),
                Comma,
                Keyword("TRUE"),
                Minus,
                Int(7),
                Eof
            ]
        );
        assert_eq!(tokenize("-0.0").unwrap()[0], Float(-0.0));
        assert!(matches!(tokenize("-0.0").unwrap()[0], Float(f) if f.is_sign_negative()));
        assert_eq!(tokenize("-9223372036854775808").unwrap()[0], Int(i64::MIN));
    }

    #[test]
    fn lex_lifts_literals_into_params() {
        let l = lex("SELECT a FROM t WHERE a = -4 AND b = 'x''y' AND c = 2.5 AND d = TRUE").unwrap();
        assert_eq!(
            l.params,
            vec![
                Value::Int(-4),
                Value::Str("x'y".into()),
                Value::Float(2.5),
                Value::Bool(true)
            ]
        );
        assert_eq!(
            l.tokens.iter().filter(|t| matches!(t, Token::Param(_))).count(),
            4
        );
        assert_eq!(
            l.shape,
            "SELECT \"a\"FROM \"t\"WHERE \"a\"=?iAND \"b\"=?sAND \"c\"=?fAND \"d\"=?b"
        );
    }

    /// Statements that differ only in their constants share a shape; a
    /// different type, count, keyword or token does not.
    #[test]
    fn shapes_split_on_type_and_structure_not_value() {
        let shape = |sql: &str| lex(sql).unwrap().shape;
        let base = shape("SELECT v FROM t WHERE id = 7");
        assert_eq!(base, shape("select   v from T where id=123456 -- note"));
        assert_eq!(base, shape("SELECT v FROM t WHERE id = -3"));
        for other in [
            "SELECT v FROM t WHERE id = 7.0",
            "SELECT v FROM t WHERE id = '7'",
            "SELECT v FROM t WHERE id = TRUE",
            "SELECT v FROM t WHERE id = NULL",
            "SELECT v FROM t WHERE id <= 7",
            "SELECT v FROM t WHERE id < = 7",
            "SELECT v FROM t WHERE id = 7 LIMIT 1",
            "SELECT v FROM \"T\" WHERE id = 7",
            "SELECT \"select\" FROM t WHERE id = 7",
        ] {
            assert_ne!(base, shape(other), "{other}");
        }
        // The counts the planner reads stay in the shape.
        assert_ne!(
            shape("SELECT v FROM t LIMIT 2 OFFSET 1"),
            shape("SELECT v FROM t LIMIT 3 OFFSET 1")
        );
        assert!(lex("SELECT v FROM t LIMIT 2 OFFSET 1").unwrap().params.is_empty());
        // An INSERT's values are lifted untyped; its row count is structure.
        assert_eq!(
            shape("INSERT INTO t VALUES (1, 'a')"),
            shape("INSERT INTO t VALUES (2.5, 3)")
        );
        assert_ne!(
            shape("INSERT INTO t VALUES (1, 'a')"),
            shape("INSERT INTO t VALUES (1, 'a'), (2, 'b')")
        );
    }
}
