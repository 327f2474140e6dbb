//! The "compiled" expression engine: a fused, register-based block
//! evaluator standing in for LLVM code generation.
//!
//! HyPer demonstrated (paper §4, \[28\]) that compiling queries to native
//! code removes the interpretation overhead that dominates tuple-at-a-time
//! engines; Impala reached the same conclusion with LLVM \[41\]. Shipping an
//! LLVM dependency is out of scope here, so this module reproduces the
//! *effect* that matters — eliminating per-tuple dynamic dispatch and
//! per-operator intermediate materialization — with a one-pass compiler
//! from [`Expr`] to a flat register program ([`Program`]) executed over
//! fixed-size value blocks:
//!
//! * compilation resolves all types **once** (no per-row type dispatch);
//! * execution runs each instruction over a 1024-value block in a tight,
//!   monomorphic, allocation-free loop the compiler can vectorize;
//! * intermediates live in a small set of reused f64/i64 registers instead
//!   of freshly allocated vectors.
//!
//! A peephole pass folds literal operands into [`Instr::BinConst`], so the
//! ubiquitous `column ⋄ constant` comparisons cost one instruction and one
//! register instead of a `LoadConst` block refill per block.
//!
//! String predicates never reach this VM by design: pushed-down string
//! comparisons are rewritten into the *code domain* at the scan layer
//! (`oltap-storage` translates them to dictionary-code comparisons per row
//! group), so the compiled engine only ever sees numeric/boolean work.
//!
//! The benchmark `e11_compilation` compares the three engines
//! (tuple-interpreted / vectorized / compiled) on identical expressions.

use crate::expr::{BinOp, Expr, UnOp};
use oltap_common::{Batch, ColumnVector, DataType, DbError, Result, Schema, Value};

/// Values per execution block. Small enough for registers to stay
/// L1-resident (`BLOCK * 8B * registers`), large enough to amortize the
/// instruction-dispatch loop.
pub const BLOCK: usize = 1024;

/// One three-address instruction over f64 block registers.
///
/// Numerics are uniformly f64 inside the VM, which is exact for integers
/// up to 2^53 only: an integer literal beyond that is rejected at
/// [`compile`], and `LoadCol` answers `Unsupported` for a block holding
/// such a value. Comparisons and logic produce 0.0/1.0 masks. `NULL`
/// handling is hoisted out of the VM: the compiled program is only used
/// when every referenced column is free of NULLs in the executing batch.
/// In each case execution transparently falls back to the vectorized
/// interpreter ([`CompiledExpr::eval`]).
#[derive(Debug, Clone, Copy, PartialEq)]
enum Instr {
    /// `reg[dst] = column[src]` (loaded blockwise).
    LoadCol { dst: u8, src: u16 },
    /// `reg[dst] = const`.
    LoadConst { dst: u8, val: f64 },
    /// `reg[dst] = reg[a] op reg[b]`.
    Bin { op: VmOp, dst: u8, a: u8, b: u8 },
    /// `reg[dst] = reg[a] op const` — the peephole form of `Bin` with a
    /// literal operand folded into the instruction. Saves a register plus
    /// a `LoadConst` block fill on every one of the (very common)
    /// column-vs-literal comparisons and column±constant arithmetic.
    BinConst { op: VmOp, dst: u8, a: u8, val: f64 },
    /// `reg[dst] = -reg[a]`.
    Neg { dst: u8, a: u8 },
    /// `reg[dst] = 1.0 - reg[a]` (logical NOT over masks).
    Not { dst: u8, a: u8 },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum VmOp {
    Add,
    Sub,
    Mul,
    Div,
    Mod,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    And,
    Or,
}

/// A compiled expression: flat instruction sequence + register count.
#[derive(Debug, Clone)]
pub struct Program {
    instrs: Vec<Instr>,
    regs: usize,
    out_reg: u8,
    referenced: Vec<usize>,
    produces_bool: bool,
}

/// Compiles `expr` against `schema`.
///
/// Supported: arithmetic, comparisons, and logic over `Int64`,
/// `Timestamp`, `Float64`, and `Bool` columns and literals. Strings,
/// `IS [NOT] NULL` and integer literals beyond 2^53 are rejected — the
/// caller falls back to the vectorized interpreter
/// ([`DbError::Unsupported`]).
pub fn compile(expr: &Expr, schema: &Schema) -> Result<Program> {
    let produces_bool = expr.data_type(schema)? == DataType::Bool;
    let mut prog = Program {
        instrs: Vec::new(),
        regs: 0,
        out_reg: 0,
        referenced: Vec::new(),
        produces_bool,
    };
    let out = compile_node(expr, schema, &mut prog, 0)?;
    prog.out_reg = out;
    expr.referenced_columns(&mut prog.referenced);
    prog.referenced.sort_unstable();
    prog.referenced.dedup();
    Ok(prog)
}

/// Registers are allocated Sethi–Ullman-ish: a node's result goes in
/// `depth`; evaluating right child at `depth + 1` keeps the left result
/// alive. Depth is bounded by expression height (≤ 250 enforced).
fn compile_node(expr: &Expr, schema: &Schema, prog: &mut Program, depth: u8) -> Result<u8> {
    if depth > 250 {
        return Err(DbError::Unsupported("expression too deep to compile".into()));
    }
    prog.regs = prog.regs.max(depth as usize + 1);
    match expr {
        Expr::Column(i) => {
            let t = schema
                .fields()
                .get(*i)
                .ok_or_else(|| DbError::Plan(format!("column {i} out of range")))?
                .data_type;
            if !matches!(
                t,
                DataType::Int64 | DataType::Float64 | DataType::Timestamp | DataType::Bool
            ) {
                return Err(DbError::Unsupported(format!(
                    "cannot compile column of type {t}"
                )));
            }
            prog.instrs.push(Instr::LoadCol {
                dst: depth,
                src: *i as u16,
            });
            Ok(depth)
        }
        Expr::Literal(_) => {
            let val = literal_f64(expr).ok_or_else(|| {
                DbError::Unsupported(
                    "cannot compile a NULL, string or beyond-2^53 integer literal".into(),
                )
            })?;
            prog.instrs.push(Instr::LoadConst { dst: depth, val });
            Ok(depth)
        }
        Expr::Binary { op, left, right } => {
            // Integer division/modulo truncate in SQL; the f64 VM would
            // produce fractional results, so those expressions stay on the
            // interpreter.
            if matches!(op, BinOp::Div | BinOp::Mod)
                && expr.data_type(schema)? == DataType::Int64
            {
                return Err(DbError::Unsupported(
                    "integer division not supported by the compiled engine".into(),
                ));
            }
            let vm_op = match op {
                BinOp::Add => VmOp::Add,
                BinOp::Sub => VmOp::Sub,
                BinOp::Mul => VmOp::Mul,
                BinOp::Div => VmOp::Div,
                BinOp::Mod => VmOp::Mod,
                BinOp::Eq => VmOp::Eq,
                BinOp::Ne => VmOp::Ne,
                BinOp::Lt => VmOp::Lt,
                BinOp::Le => VmOp::Le,
                BinOp::Gt => VmOp::Gt,
                BinOp::Ge => VmOp::Ge,
                BinOp::And => VmOp::And,
                BinOp::Or => VmOp::Or,
            };
            // Peephole: fold a literal operand into the instruction. A
            // left-side literal mirrors the comparison (`5 < x` → `x > 5`)
            // when the op allows it; Sub/Div/Mod are not mirrorable and
            // keep the generic two-register form.
            if let Some(val) = literal_f64(right) {
                let a = compile_node(left, schema, prog, depth)?;
                prog.instrs.push(Instr::BinConst {
                    op: vm_op,
                    dst: depth,
                    a,
                    val,
                });
                return Ok(depth);
            }
            if let (Some(val), Some(mirrored)) = (literal_f64(left), mirror_op(vm_op)) {
                let a = compile_node(right, schema, prog, depth)?;
                prog.instrs.push(Instr::BinConst {
                    op: mirrored,
                    dst: depth,
                    a,
                    val,
                });
                return Ok(depth);
            }
            let a = compile_node(left, schema, prog, depth)?;
            let b = compile_node(right, schema, prog, depth + 1)?;
            prog.instrs.push(Instr::Bin {
                op: vm_op,
                dst: depth,
                a,
                b,
            });
            Ok(depth)
        }
        Expr::Unary { op, expr } => {
            let a = compile_node(expr, schema, prog, depth)?;
            match op {
                UnOp::Neg => prog.instrs.push(Instr::Neg { dst: depth, a }),
                UnOp::Not => prog.instrs.push(Instr::Not { dst: depth, a }),
            }
            Ok(depth)
        }
        Expr::IsNull(_) | Expr::IsNotNull(_) => Err(DbError::Unsupported(
            "IS NULL not supported by the compiled engine".into(),
        )),
    }
}

/// Whether the VM's f64 registers hold `v` exactly. Every integer of
/// magnitude up to 2^53 converts exactly; past it neighbours collapse onto
/// one float, so `a = b` would hold for distinct integers.
#[inline]
fn exact_in_f64(v: i64) -> bool {
    v.unsigned_abs() <= 1 << 53
}

/// The f64 value of a compilable literal, or `None` for what the VM cannot
/// represent: NULL, strings, and integers that are not exact in f64.
fn literal_f64(e: &Expr) -> Option<f64> {
    match e {
        Expr::Literal(Value::Int(x)) | Expr::Literal(Value::Timestamp(x)) => {
            exact_in_f64(*x).then_some(*x as f64)
        }
        Expr::Literal(Value::Float(x)) => Some(*x),
        Expr::Literal(Value::Bool(b)) => Some(*b as u8 as f64),
        _ => None,
    }
}

/// The op with swapped operands, where one exists (`x op y` ≡ `y op' x`).
fn mirror_op(op: VmOp) -> Option<VmOp> {
    match op {
        VmOp::Add | VmOp::Mul | VmOp::Eq | VmOp::Ne | VmOp::And | VmOp::Or => Some(op),
        VmOp::Lt => Some(VmOp::Gt),
        VmOp::Le => Some(VmOp::Ge),
        VmOp::Gt => Some(VmOp::Lt),
        VmOp::Ge => Some(VmOp::Le),
        VmOp::Sub | VmOp::Div | VmOp::Mod => None,
    }
}

impl Program {
    /// Whether `batch` can be executed compiled (no NULLs in referenced
    /// columns).
    pub fn applicable(&self, batch: &Batch) -> bool {
        self.referenced.iter().all(|&c| {
            batch
                .columns()
                .get(c)
                .map(|col| col.validity().is_none())
                .unwrap_or(false)
        })
    }

    /// Number of instructions (diagnostics).
    pub fn instr_count(&self) -> usize {
        self.instrs.len()
    }

    /// Executes over a batch, producing a column vector (Float64 for
    /// arithmetic, Bool for predicates).
    pub fn run(&self, batch: &Batch) -> Result<ColumnVector> {
        if !self.applicable(batch) {
            return Err(DbError::Unsupported(
                "compiled program requires NULL-free inputs".into(),
            ));
        }
        let n = batch.len();
        let mut regs: Vec<[f64; BLOCK]> = vec![[0.0; BLOCK]; self.regs];
        let mut out_f: Vec<f64> = Vec::with_capacity(n);
        let mut start = 0usize;
        while start < n {
            let len = (n - start).min(BLOCK);
            for ins in &self.instrs {
                self.exec_block(ins, batch, start, len, &mut regs)?;
            }
            out_f.extend_from_slice(&regs[self.out_reg as usize][..len]);
            start += len;
        }
        if self.produces_bool {
            let mut bits = oltap_common::BitSet::with_len(n);
            for (i, &v) in out_f.iter().enumerate() {
                if v != 0.0 {
                    bits.set(i);
                }
            }
            Ok(ColumnVector::Bool {
                values: bits,
                validity: None,
            })
        } else {
            Ok(ColumnVector::Float64 {
                values: out_f,
                validity: None,
            })
        }
    }

    #[inline]
    fn exec_block(
        &self,
        ins: &Instr,
        batch: &Batch,
        start: usize,
        len: usize,
        regs: &mut [[f64; BLOCK]],
    ) -> Result<()> {
        match *ins {
            Instr::LoadCol { dst, src } => {
                let col = &batch.columns()[src as usize];
                let reg = &mut regs[dst as usize];
                match col {
                    ColumnVector::Int64 { values, .. } => {
                        let mut exact = true;
                        for (o, &v) in values[start..start + len].iter().enumerate() {
                            exact &= exact_in_f64(v);
                            reg[o] = v as f64;
                        }
                        if !exact {
                            return Err(DbError::Unsupported(
                                "integer beyond 2^53 in the f64 VM".into(),
                            ));
                        }
                    }
                    ColumnVector::Float64 { values, .. } => {
                        reg[..len].copy_from_slice(&values[start..start + len]);
                    }
                    ColumnVector::Bool { values, .. } => {
                        for (o, slot) in reg.iter_mut().enumerate().take(len) {
                            *slot = values.get(start + o) as u8 as f64;
                        }
                    }
                    ColumnVector::Utf8 { .. } => {
                        return Err(DbError::Unsupported("string column in VM".into()))
                    }
                }
            }
            Instr::LoadConst { dst, val } => {
                regs[dst as usize][..len].fill(val);
            }
            Instr::Neg { dst, a } => {
                let src = regs[a as usize];
                let reg = &mut regs[dst as usize];
                for o in 0..len {
                    reg[o] = -src[o];
                }
            }
            Instr::Not { dst, a } => {
                let src = regs[a as usize];
                let reg = &mut regs[dst as usize];
                for o in 0..len {
                    reg[o] = if src[o] != 0.0 { 0.0 } else { 1.0 };
                }
            }
            Instr::Bin { op, dst, a, b } => {
                // Copy-out pattern keeps the borrow checker happy and the
                // blocks register-resident.
                let va = regs[a as usize];
                let vb = regs[b as usize];
                let reg = &mut regs[dst as usize];
                macro_rules! lane {
                    ($f:expr) => {
                        for o in 0..len {
                            reg[o] = $f(va[o], vb[o]);
                        }
                    };
                }
                match op {
                    VmOp::Add => lane!(|x: f64, y: f64| x + y),
                    VmOp::Sub => lane!(|x: f64, y: f64| x - y),
                    VmOp::Mul => lane!(|x: f64, y: f64| x * y),
                    // Integer division is rejected at compile time, so
                    // these are IEEE float semantics: x/0 = ±inf, matching
                    // the interpreter's float path.
                    VmOp::Div => lane!(|x: f64, y: f64| x / y),
                    VmOp::Mod => lane!(|x: f64, y: f64| x % y),
                    VmOp::Eq => lane!(|x: f64, y: f64| (x == y) as u8 as f64),
                    VmOp::Ne => lane!(|x: f64, y: f64| (x != y) as u8 as f64),
                    VmOp::Lt => lane!(|x: f64, y: f64| (x < y) as u8 as f64),
                    VmOp::Le => lane!(|x: f64, y: f64| (x <= y) as u8 as f64),
                    VmOp::Gt => lane!(|x: f64, y: f64| (x > y) as u8 as f64),
                    VmOp::Ge => lane!(|x: f64, y: f64| (x >= y) as u8 as f64),
                    VmOp::And => lane!(|x: f64, y: f64| ((x != 0.0) && (y != 0.0)) as u8 as f64),
                    VmOp::Or => lane!(|x: f64, y: f64| ((x != 0.0) || (y != 0.0)) as u8 as f64),
                }
            }
            Instr::BinConst { op, dst, a, val } => {
                let va = regs[a as usize];
                let reg = &mut regs[dst as usize];
                // Same lane table as `Bin` with the constant operand kept
                // in a scalar (one register, no per-block refill).
                macro_rules! lane {
                    ($f:expr) => {
                        for o in 0..len {
                            reg[o] = $f(va[o], val);
                        }
                    };
                }
                match op {
                    VmOp::Add => lane!(|x: f64, y: f64| x + y),
                    VmOp::Sub => lane!(|x: f64, y: f64| x - y),
                    VmOp::Mul => lane!(|x: f64, y: f64| x * y),
                    VmOp::Div => lane!(|x: f64, y: f64| x / y),
                    VmOp::Mod => lane!(|x: f64, y: f64| x % y),
                    VmOp::Eq => lane!(|x: f64, y: f64| (x == y) as u8 as f64),
                    VmOp::Ne => lane!(|x: f64, y: f64| (x != y) as u8 as f64),
                    VmOp::Lt => lane!(|x: f64, y: f64| (x < y) as u8 as f64),
                    VmOp::Le => lane!(|x: f64, y: f64| (x <= y) as u8 as f64),
                    VmOp::Gt => lane!(|x: f64, y: f64| (x > y) as u8 as f64),
                    VmOp::Ge => lane!(|x: f64, y: f64| (x >= y) as u8 as f64),
                    VmOp::And => lane!(|x: f64, y: f64| ((x != 0.0) && (y != 0.0)) as u8 as f64),
                    VmOp::Or => lane!(|x: f64, y: f64| ((x != 0.0) || (y != 0.0)) as u8 as f64),
                }
            }
        }
        Ok(())
    }
}

/// Convenience wrapper pairing a compiled program with its interpreter
/// fallback — [`CompiledExpr::eval`] always succeeds on expressions the
/// vectorized interpreter can run.
#[derive(Debug, Clone)]
pub struct CompiledExpr {
    expr: Expr,
    program: Option<Program>,
}

impl CompiledExpr {
    /// Compiles when possible; otherwise keeps only the interpreter.
    ///
    /// Expressions whose declared type is `Int64` are *not* compiled here:
    /// the VM's f64 output would silently change the operator's output
    /// type. (Benchmarks that want raw VM arithmetic call [`compile`]
    /// directly.) Boolean predicates — the hot filter path — always
    /// qualify.
    pub fn new(expr: Expr, schema: &Schema) -> Self {
        let type_ok = matches!(
            expr.data_type(schema),
            Ok(DataType::Bool) | Ok(DataType::Float64)
        );
        let program = if type_ok {
            compile(&expr, schema).ok()
        } else {
            None
        };
        CompiledExpr { expr, program }
    }

    /// Whether a compiled program is available.
    pub fn is_compiled(&self) -> bool {
        self.program.is_some()
    }

    /// Evaluates the expression: compiled fast path when the program exists
    /// and the batch holds nothing the VM declines (a NULL, an integer
    /// beyond 2^53), interpreter otherwise.
    pub fn eval(&self, batch: &Batch) -> Result<ColumnVector> {
        if let Some(p) = &self.program {
            if p.applicable(batch) {
                match p.run(batch) {
                    Err(DbError::Unsupported(_)) => {}
                    done => return done,
                }
            }
        }
        self.expr.eval_batch(batch)
    }

    /// The underlying expression.
    pub fn expr(&self) -> &Expr {
        &self.expr
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oltap_common::row;
    use oltap_common::{Field, Row, Schema};

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new("a", DataType::Int64),
            Field::new("b", DataType::Int64),
            Field::new("f", DataType::Float64),
            Field::new("s", DataType::Utf8),
        ])
    }

    fn batch(n: usize) -> Batch {
        let rows: Vec<Row> = (0..n)
            .map(|i| row![i as i64, (i % 97) as i64, i as f64 * 0.25, "k"])
            .collect();
        Batch::from_rows(&schema(), &rows).unwrap()
    }

    fn assert_matches_interpreter(e: &Expr, b: &Batch) {
        let s = schema();
        let p = compile(e, &s).unwrap();
        let compiled = p.run(b).unwrap();
        let interpreted = e.eval_batch(b).unwrap();
        for i in 0..b.len() {
            let c = compiled.value_at(i);
            let v = interpreted.value_at(i);
            let equal = match (&c, &v) {
                (Value::Float(x), Value::Int(y)) => (*x - *y as f64).abs() < 1e-9,
                (Value::Float(x), Value::Float(y)) => (x - y).abs() < 1e-9,
                (a, b) => a == b,
            };
            assert!(equal, "row {i}: compiled {c:?} vs interpreted {v:?} for {e}");
        }
    }

    #[test]
    fn arithmetic_agrees_with_interpreter() {
        let b = batch(3000); // multiple blocks
        let e = Expr::binary(
            BinOp::Add,
            Expr::binary(BinOp::Mul, Expr::col(0), Expr::lit(3i64)),
            Expr::binary(BinOp::Sub, Expr::col(1), Expr::col(0)),
        );
        assert_matches_interpreter(&e, &b);
    }

    #[test]
    fn float_mix_agrees() {
        let b = batch(1500);
        let e = Expr::binary(
            BinOp::Div,
            Expr::binary(BinOp::Add, Expr::col(2), Expr::lit(1.0f64)),
            Expr::lit(2.0f64),
        );
        assert_matches_interpreter(&e, &b);
    }

    #[test]
    fn predicates_agree() {
        let b = batch(2500);
        let e = Expr::binary(BinOp::Gt, Expr::col(0), Expr::lit(1000i64)).and(Expr::binary(
            BinOp::Lt,
            Expr::col(1),
            Expr::lit(50i64),
        ));
        assert_matches_interpreter(&e, &b);
        let e = Expr::Unary {
            op: UnOp::Not,
            expr: Box::new(Expr::binary(BinOp::Eq, Expr::col(1), Expr::lit(0i64))),
        };
        assert_matches_interpreter(&e, &b);
    }

    #[test]
    fn deep_expression_register_allocation() {
        // ((((a+1)+1)+1)...) 40 deep: register count stays small because
        // the tree is left-leaning.
        let mut e = Expr::col(0);
        for _ in 0..40 {
            e = Expr::binary(BinOp::Add, e, Expr::lit(1i64));
        }
        let b = batch(100);
        assert_matches_interpreter(&e, &b);
        let p = compile(&e, &schema()).unwrap();
        assert!(p.regs <= 3, "regs {}", p.regs);
    }

    #[test]
    fn right_leaning_expression() {
        // a + (a + (a + ...)): needs one register per level.
        let mut e = Expr::col(0);
        for _ in 0..20 {
            e = Expr::binary(BinOp::Add, Expr::col(0), e);
        }
        let b = batch(64);
        assert_matches_interpreter(&e, &b);
    }

    #[test]
    fn strings_fall_back() {
        let s = schema();
        let e = Expr::binary(BinOp::Eq, Expr::col(3), Expr::lit("k"));
        assert!(compile(&e, &s).is_err());
        let c = CompiledExpr::new(e, &s);
        assert!(!c.is_compiled());
        // But eval still works through the interpreter.
        let b = batch(10);
        let v = c.eval(&b).unwrap();
        assert_eq!(v.value_at(0), Value::Bool(true));
    }

    #[test]
    fn nulls_fall_back_at_runtime() {
        let s = Schema::new(vec![Field::new("a", DataType::Int64)]);
        let rows = vec![Row::new(vec![Value::Int(1)]), Row::new(vec![Value::Null])];
        let b = Batch::from_rows(&s, &rows).unwrap();
        let e = Expr::binary(BinOp::Add, Expr::col(0), Expr::lit(1i64));
        let p = compile(&e, &s).unwrap();
        assert!(!p.applicable(&b));
        assert!(p.run(&b).is_err());
        let c = CompiledExpr::new(e, &s);
        let v = c.eval(&b).unwrap(); // interpreter fallback
        assert_eq!(v.value_at(0), Value::Int(2));
        assert_eq!(v.value_at(1), Value::Null);
    }

    #[test]
    fn integers_beyond_2_53_fall_back() {
        const P53: i64 = 1 << 53;
        let s = Schema::new(vec![
            Field::new("a", DataType::Int64),
            Field::new("b", DataType::Int64),
        ]);
        // A literal the VM cannot hold is declined at compile time; the
        // last exact one is not.
        for (lit, compiles) in [(P53, true), (-P53, true), (P53 + 1, false), (i64::MIN, false)] {
            let e = Expr::binary(BinOp::Eq, Expr::col(0), Expr::lit(lit));
            assert_eq!(compile(&e, &s).is_ok(), compiles, "{lit}");
            let e = Expr::binary(BinOp::Sub, Expr::lit(lit), Expr::col(0));
            assert_eq!(compile(&e, &s).is_ok(), compiles, "{lit} - a");
        }
        // A column value it cannot hold is declined per block, and `eval`
        // answers from the interpreter: a and b are distinct integers that
        // are the same f64.
        let rows = vec![row![1i64, 1i64], row![P53 + 1, P53]];
        let b = Batch::from_rows(&s, &rows).unwrap();
        let e = Expr::binary(BinOp::Eq, Expr::col(0), Expr::col(1));
        let p = compile(&e, &s).unwrap();
        assert!(p.applicable(&b));
        assert!(matches!(p.run(&b), Err(DbError::Unsupported(_))));
        let c = CompiledExpr::new(e, &s);
        assert!(c.is_compiled());
        let v = c.eval(&b).unwrap();
        assert_eq!(v.value_at(0), Value::Bool(true));
        assert_eq!(v.value_at(1), Value::Bool(false));
    }

    #[test]
    fn integer_division_rejected_at_compile_time() {
        // SQL integer division truncates; the f64 VM would not, so such
        // expressions stay on the interpreter.
        let e = Expr::binary(BinOp::Div, Expr::col(0), Expr::col(1));
        assert!(compile(&e, &schema()).is_err());
        let c = CompiledExpr::new(e, &schema());
        assert!(!c.is_compiled());
    }

    #[test]
    fn float_division_by_zero_is_ieee() {
        // Matches the interpreter: x / 0.0 = inf, no error.
        let b = batch(10);
        let e = Expr::binary(BinOp::Div, Expr::lit(1.0f64), Expr::col(2));
        let p = compile(&e, &schema()).unwrap();
        let v = p.run(&b).unwrap();
        assert_eq!(v.value_at(0), Value::Float(f64::INFINITY)); // f[0] = 0.0
        let interp = e.eval_batch(&b).unwrap();
        assert_eq!(interp.value_at(0), Value::Float(f64::INFINITY));
    }

    #[test]
    fn literal_operands_fold_into_bin_const() {
        let s = schema();
        let b = batch(2048);
        // Right-side literal: LoadCol + BinConst = 2 instructions.
        let e = Expr::binary(BinOp::Gt, Expr::col(0), Expr::lit(100i64));
        let p = compile(&e, &s).unwrap();
        assert_eq!(p.instr_count(), 2, "{:?}", p);
        assert_matches_interpreter(&e, &b);
        // Left-side literal mirrors the comparison: 5 < a ⇒ a > 5.
        let e = Expr::binary(BinOp::Lt, Expr::lit(5i64), Expr::col(0));
        let p = compile(&e, &s).unwrap();
        assert_eq!(p.instr_count(), 2);
        assert_matches_interpreter(&e, &b);
        // Left-side literal on a non-mirrorable op stays generic (3
        // instructions) but still agrees.
        let e = Expr::binary(BinOp::Sub, Expr::lit(1000.0f64), Expr::col(2));
        let p = compile(&e, &s).unwrap();
        assert_eq!(p.instr_count(), 3);
        assert_matches_interpreter(&e, &b);
        // Folding must not change register pressure for a chain.
        let mut e = Expr::col(0);
        for _ in 0..16 {
            e = Expr::binary(BinOp::Add, e, Expr::lit(2i64));
        }
        let p = compile(&e, &schema()).unwrap();
        assert_eq!(p.regs, 1);
        assert_matches_interpreter(&e, &b);
    }

    #[test]
    fn block_boundary_exactness() {
        // Exactly BLOCK rows, BLOCK+1, BLOCK-1.
        for n in [BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK] {
            let b = batch(n);
            let e = Expr::binary(BinOp::Mul, Expr::col(0), Expr::lit(2i64));
            let p = compile(&e, &schema()).unwrap();
            let v = p.run(&b).unwrap();
            assert_eq!(v.len(), n);
            assert_eq!(v.value_at(n - 1), Value::Float(((n - 1) * 2) as f64));
        }
    }
}
