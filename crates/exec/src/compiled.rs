//! The one expression entry point, [`CompiledExpr`], and the "compiled"
//! engine inside it: a fused, register-based block evaluator standing in
//! for LLVM code generation.
//!
//! Every operator and every DML statement evaluates expressions through
//! [`CompiledExpr::eval`] / [`CompiledExpr::filter`]. The vectorized
//! interpreter ([`Expr::eval_batch`]) **defines** what an expression
//! means — total order on floats (`-0.0 < 0.0`, `NaN = NaN`), wrapping
//! `i64` arithmetic, Kleene logic over NULLs — and the VM below is an
//! accelerator that runs only where its answer is bit-identical to the
//! interpreter's.
//!
//! HyPer demonstrated (paper §4, \[28\]) that compiling queries to native
//! code removes the interpretation overhead that dominates tuple-at-a-time
//! engines; Impala reached the same conclusion with LLVM \[41\]. Shipping an
//! LLVM dependency is out of scope here, so this module reproduces the
//! *effect* that matters — eliminating per-tuple dynamic dispatch and
//! per-operator intermediate materialization — with a one-pass compiler
//! from [`Expr`] to a flat register program executed over fixed-size value
//! blocks:
//!
//! * compilation resolves all types **once** (no per-row type dispatch);
//! * execution runs each instruction over a 1024-value block in a tight,
//!   monomorphic, allocation-free loop the compiler can vectorize;
//! * intermediates live in a small set of reused f64 registers, updated in
//!   place, instead of freshly allocated vectors.
//!
//! Registers are uniformly f64, so the VM **declines** whatever f64 cannot
//! reproduce, and `eval` answers from the interpreter instead:
//!
//! * at compile time — a bare column or literal (nothing to fuse: the
//!   interpreter hands the column over as it is), strings, `IS [NOT]
//!   NULL`, a NULL literal, an integer literal beyond 2^53, arithmetic on
//!   two integers (`i64` wraps and truncates where f64 rounds; checking
//!   every intermediate for the range where the two agree measured slower
//!   than the interpreter's plain `i64` loops — E11), a comparison of a
//!   boolean with a number, and anything the type checker rejects;
//! * per batch — a NULL in any referenced column (Kleene logic and
//!   validity stay in the interpreter);
//! * per block — a loaded integer beyond 2^53.
//!
//! What remains is exact: an integer reaches a register only from a column
//! or a literal, converted as the interpreter's `as f64` promotion
//! converts it; float arithmetic is the same IEEE operation the
//! interpreter performs; and comparisons order by `f64::total_cmp`, which
//! on integers and booleans is the numeric order and on floats is the
//! interpreter's. A literal operand folds into the instruction
//! (`column ⋄ constant` costs one instruction and one register). One thing
//! is defined by neither evaluator: the sign and payload of a NaN computed
//! from *two* NaN operands follow operand order, which LLVM is free to
//! commute.
//!
//! String predicates never reach this VM by design: pushed-down string
//! comparisons are rewritten into the *code domain* at the scan layer
//! (`oltap-storage` translates them to dictionary-code comparisons per row
//! group), so the compiled engine only ever sees numeric/boolean work.
//!
//! The benchmark `e11_compilation` compares [`CompiledExpr::eval`] with
//! the bare interpreter and with a tuple-at-a-time walk
//! (`oltap-bench::baselines::tuple_eval`) on identical expressions.

use crate::expr::{BinOp, Expr, UnOp};
use oltap_common::{Batch, BitSet, ColumnVector, DataType, Result, Schema, Value};

/// Values per execution block. Small enough for registers to stay
/// L1-resident (`BLOCK * 8B * registers`), large enough to amortize the
/// instruction-dispatch loop.
pub const BLOCK: usize = 1024;

/// One instruction over f64 block registers. A node's result lives in the
/// register numbered by its depth, so every instruction updates `r` in
/// place and a two-operand one reads its right operand from `r + 1`.
/// Comparisons and logic produce 0.0/1.0 masks.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Instr {
    /// `reg[r] = column[src]` (loaded blockwise; declines an integer
    /// beyond 2^53).
    LoadCol { r: u8, src: u16 },
    /// `reg[r] = const`.
    LoadConst { r: u8, val: f64 },
    /// `reg[r] = reg[r] op reg[r + 1]`.
    Bin { op: BinOp, r: u8 },
    /// `reg[r] = reg[r] op const` — `Bin` with a literal operand folded
    /// into the instruction. Saves a register plus a `LoadConst` block fill
    /// on every one of the (very common) column-vs-literal comparisons and
    /// column±constant arithmetic.
    BinConst { op: BinOp, r: u8, val: f64 },
    /// `reg[r] = -reg[r]` (float negation: a sign flip, NaNs included).
    Neg { r: u8 },
    /// `reg[r] = 1.0 - reg[r]` (logical NOT over masks).
    Not { r: u8 },
}

/// A compiled expression: flat instruction sequence + register count. The
/// result is in register 0.
#[derive(Debug, Clone)]
struct Program {
    instrs: Vec<Instr>,
    regs: usize,
    referenced: Vec<usize>,
    /// The result is a predicate's 0/1 mask (else a `Float64` value).
    produces_bool: bool,
}

/// Compiles `expr` against `schema`, or declines (`None`) what the VM
/// cannot evaluate exactly — see the module docs for the list.
fn compile(expr: &Expr, schema: &Schema) -> Option<Program> {
    if matches!(expr, Expr::Column(_) | Expr::Literal(_)) {
        return None;
    }
    let mut prog = Program {
        instrs: Vec::new(),
        regs: 0,
        referenced: Vec::new(),
        produces_bool: false,
    };
    prog.produces_bool = compile_node(expr, schema, &mut prog, 0)? == DataType::Bool;
    expr.referenced_columns(&mut prog.referenced);
    prog.referenced.sort_unstable();
    prog.referenced.dedup();
    Some(prog)
}

/// Emits the instructions that leave `expr`'s value in register `depth`
/// and returns its type (`Int64`, `Float64` or `Bool`; `Timestamp` is
/// `Int64`). Registers are allocated Sethi–Ullman-ish: evaluating the
/// right child at `depth + 1` keeps the left result alive. Depth is
/// bounded by expression height (≤ 250 enforced).
fn compile_node(expr: &Expr, schema: &Schema, prog: &mut Program, depth: u8) -> Option<DataType> {
    use DataType::{Bool, Float64, Int64};
    if depth > 250 {
        return None;
    }
    prog.regs = prog.regs.max(depth as usize + 1);
    match expr {
        Expr::Column(i) => {
            let t = match schema.fields().get(*i)?.data_type {
                DataType::Int64 | DataType::Timestamp => Int64,
                DataType::Float64 => Float64,
                DataType::Bool => Bool,
                DataType::Utf8 => return None,
            };
            prog.instrs.push(Instr::LoadCol {
                r: depth,
                src: u16::try_from(*i).ok()?,
            });
            Some(t)
        }
        Expr::Literal(_) => {
            let (val, t) = literal(expr)?;
            prog.instrs.push(Instr::LoadConst { r: depth, val });
            Some(t)
        }
        Expr::Binary { op, left, right } => {
            // Fold a literal operand into the instruction. A left-side
            // literal mirrors the comparison (`5 < x` → `x > 5`) when the
            // op allows it; the rest keep the two-register form.
            let (lt, rt) = if let Some((val, rt)) = literal(right) {
                let lt = compile_node(left, schema, prog, depth)?;
                prog.instrs.push(Instr::BinConst {
                    op: *op,
                    r: depth,
                    val,
                });
                (lt, rt)
            } else if let (Some((val, lt)), Some(op)) = (literal(left), mirror_op(*op)) {
                let rt = compile_node(right, schema, prog, depth)?;
                prog.instrs.push(Instr::BinConst { op, r: depth, val });
                (lt, rt)
            } else {
                let lt = compile_node(left, schema, prog, depth)?;
                let rt = compile_node(right, schema, prog, depth + 1)?;
                prog.instrs.push(Instr::Bin { op: *op, r: depth });
                (lt, rt)
            };
            let numeric = |t| matches!(t, Int64 | Float64);
            if op.is_logic() {
                (lt == Bool && rt == Bool).then_some(Bool)
            } else if op.is_comparison() {
                ((numeric(lt) && numeric(rt)) || (lt == Bool && rt == Bool)).then_some(Bool)
            } else {
                // Arithmetic: float, or an integer promoted against a
                // float. Two integers wrap and truncate; f64 would not.
                (numeric(lt) && numeric(rt) && (lt == Float64 || rt == Float64)).then_some(Float64)
            }
        }
        Expr::Unary { op, expr } => {
            let t = compile_node(expr, schema, prog, depth)?;
            match (op, t) {
                (UnOp::Not, Bool) => prog.instrs.push(Instr::Not { r: depth }),
                (UnOp::Neg, Float64) => prog.instrs.push(Instr::Neg { r: depth }),
                // Integer negation included: it wraps, and `-0.0` is not 0.
                _ => return None,
            }
            Some(t)
        }
        Expr::IsNull(_) | Expr::IsNotNull(_) | Expr::Param(..) => None,
    }
}

/// Whether the VM's f64 registers hold `v` exactly. Every integer of
/// magnitude up to 2^53 converts exactly; past it neighbours collapse onto
/// one float, so `a = b` would hold for distinct integers.
#[inline]
fn exact_in_f64(v: i64) -> bool {
    v.unsigned_abs() <= 1 << 53
}

/// The f64 value and type of a compilable literal, or `None` for what the
/// VM cannot represent: NULL, strings, and integers that are not exact in
/// f64.
fn literal(e: &Expr) -> Option<(f64, DataType)> {
    match e {
        Expr::Literal(Value::Int(x)) | Expr::Literal(Value::Timestamp(x)) => {
            exact_in_f64(*x).then_some((*x as f64, DataType::Int64))
        }
        Expr::Literal(Value::Float(x)) => Some((*x, DataType::Float64)),
        Expr::Literal(Value::Bool(b)) => Some((*b as u8 as f64, DataType::Bool)),
        _ => None,
    }
}

/// The op with swapped operands, where one exists (`x op y` ≡ `y op' x`).
fn mirror_op(op: BinOp) -> Option<BinOp> {
    match op {
        BinOp::Add | BinOp::Mul | BinOp::Eq | BinOp::Ne | BinOp::And | BinOp::Or => Some(op),
        BinOp::Lt => Some(BinOp::Gt),
        BinOp::Le => Some(BinOp::Ge),
        BinOp::Gt => Some(BinOp::Lt),
        BinOp::Ge => Some(BinOp::Le),
        BinOp::Sub | BinOp::Div | BinOp::Mod => None,
    }
}

/// `dst[o] = dst[o] op rhs(o)` over one block: the lane table `Bin` and
/// `BinConst` share (the right operand is a register lane or a scalar).
#[inline(always)]
fn lanes(op: BinOp, dst: &mut [f64], rhs: impl Fn(usize) -> f64) {
    macro_rules! lane {
        ($f:expr) => {
            for (o, x) in dst.iter_mut().enumerate() {
                *x = $f(*x, rhs(o));
            }
        };
    }
    let mask = |b: bool| b as u8 as f64;
    match op {
        BinOp::Add => lane!(|x: f64, y: f64| x + y),
        BinOp::Sub => lane!(|x: f64, y: f64| x - y),
        BinOp::Mul => lane!(|x: f64, y: f64| x * y),
        // Integer division is declined at compile time, so these are IEEE
        // float semantics: x/0 = ±inf, matching the interpreter's float
        // path.
        BinOp::Div => lane!(|x: f64, y: f64| x / y),
        BinOp::Mod => lane!(|x: f64, y: f64| x % y),
        BinOp::Eq => lane!(|x: f64, y: f64| mask(x.total_cmp(&y).is_eq())),
        BinOp::Ne => lane!(|x: f64, y: f64| mask(x.total_cmp(&y).is_ne())),
        BinOp::Lt => lane!(|x: f64, y: f64| mask(x.total_cmp(&y).is_lt())),
        BinOp::Le => lane!(|x: f64, y: f64| mask(x.total_cmp(&y).is_le())),
        BinOp::Gt => lane!(|x: f64, y: f64| mask(x.total_cmp(&y).is_gt())),
        BinOp::Ge => lane!(|x: f64, y: f64| mask(x.total_cmp(&y).is_ge())),
        BinOp::And => lane!(|x: f64, y: f64| mask(x != 0.0 && y != 0.0)),
        BinOp::Or => lane!(|x: f64, y: f64| mask(x != 0.0 || y != 0.0)),
    }
}

impl Program {
    /// Executes over a batch, producing the column vector the interpreter
    /// would — or `None` when the batch holds something the VM declines (a
    /// NULL in a referenced column, an integer it cannot hold exactly).
    fn run(&self, batch: &Batch) -> Option<ColumnVector> {
        let null_free = self.referenced.iter().all(|&c| {
            batch
                .columns()
                .get(c)
                .is_some_and(|col| col.validity().is_none())
        });
        if !null_free {
            return None;
        }
        let n = batch.len();
        let mut regs: Vec<[f64; BLOCK]> = vec![[0.0; BLOCK]; self.regs];
        let mut out: Vec<f64> = Vec::with_capacity(n);
        let mut start = 0usize;
        while start < n {
            let len = (n - start).min(BLOCK);
            for ins in &self.instrs {
                if !exec_block(ins, batch, start, len, &mut regs) {
                    return None;
                }
            }
            out.extend_from_slice(&regs[0][..len]);
            start += len;
        }
        Some(if self.produces_bool {
            let mut bits = BitSet::with_len(n);
            for (i, &v) in out.iter().enumerate() {
                if v != 0.0 {
                    bits.set(i);
                }
            }
            ColumnVector::Bool {
                values: bits,
                validity: None,
            }
        } else {
            ColumnVector::Float64 {
                values: out,
                validity: None,
            }
        })
    }
}

/// Runs one instruction over one block; `false` declines the batch.
#[inline]
fn exec_block(
    ins: &Instr,
    batch: &Batch,
    start: usize,
    len: usize,
    regs: &mut [[f64; BLOCK]],
) -> bool {
    match *ins {
        Instr::LoadCol { r, src } => {
            let reg = &mut regs[r as usize][..len];
            match &batch.columns()[src as usize] {
                ColumnVector::Int64 { values, .. } => {
                    let mut exact = true;
                    for (slot, &v) in reg.iter_mut().zip(&values[start..start + len]) {
                        exact &= exact_in_f64(v);
                        *slot = v as f64;
                    }
                    return exact;
                }
                ColumnVector::Float64 { values, .. } => {
                    reg.copy_from_slice(&values[start..start + len]);
                }
                ColumnVector::Bool { values, .. } => {
                    for (o, slot) in reg.iter_mut().enumerate() {
                        *slot = values.get(start + o) as u8 as f64;
                    }
                }
                ColumnVector::Utf8 { .. } => return false,
            }
        }
        Instr::LoadConst { r, val } => regs[r as usize][..len].fill(val),
        Instr::Bin { op, r } => {
            let (lo, hi) = regs.split_at_mut(r as usize + 1);
            let rhs = &hi[0];
            lanes(op, &mut lo[r as usize][..len], |o| rhs[o]);
        }
        Instr::BinConst { op, r, val } => lanes(op, &mut regs[r as usize][..len], |_| val),
        Instr::Neg { r } => {
            for x in &mut regs[r as usize][..len] {
                *x = -*x;
            }
        }
        Instr::Not { r } => {
            for x in &mut regs[r as usize][..len] {
                *x = 1.0 - *x;
            }
        }
    }
    true
}

/// An expression ready to evaluate — the one way operators and DML
/// statements evaluate anything. Built once where the operator is; `eval`
/// answers as [`Expr::eval_batch`] does, through the compiled program
/// wherever that is exact.
#[derive(Debug, Clone)]
pub struct CompiledExpr {
    expr: Expr,
    program: Option<Program>,
}

impl CompiledExpr {
    /// Compiles when the VM can evaluate `expr` exactly; otherwise keeps
    /// only the interpreter. An expression that does not type-check is
    /// kept too: evaluating it reports the interpreter's error.
    pub fn new(expr: Expr, schema: &Schema) -> Self {
        let program = compile(&expr, schema);
        CompiledExpr { expr, program }
    }

    /// One [`CompiledExpr`] per expression, all against `schema` — an
    /// operator's key or output list.
    pub fn list(exprs: impl IntoIterator<Item = Expr>, schema: &Schema) -> Vec<CompiledExpr> {
        exprs
            .into_iter()
            .map(|e| CompiledExpr::new(e, schema))
            .collect()
    }

    /// Evaluates every expression of a list over `batch`, one column each.
    pub fn eval_all(exprs: &[CompiledExpr], batch: &Batch) -> Result<Vec<ColumnVector>> {
        exprs.iter().map(|e| e.eval(batch)).collect()
    }

    /// Whether a compiled program is available.
    pub fn is_compiled(&self) -> bool {
        self.program.is_some()
    }

    /// Evaluates the expression over a batch, producing one column vector.
    pub fn eval(&self, batch: &Batch) -> Result<ColumnVector> {
        match self.program.as_ref().and_then(|p| p.run(batch)) {
            Some(v) => Ok(v),
            None => self.expr.eval_batch(batch),
        }
    }

    /// Evaluates as a filter over a batch: the selection vector of rows
    /// where the predicate is TRUE (not NULL, not FALSE).
    pub fn filter(&self, batch: &Batch) -> Result<Vec<u32>> {
        let v = self.eval(batch)?;
        let bits = v.as_bools()?;
        Ok(match v.validity() {
            None => bits.iter_ones().map(|i| i as u32).collect(),
            Some(val) => bits
                .iter_ones()
                .filter(|&i| val.get(i))
                .map(|i| i as u32)
                .collect(),
        })
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
        assert_eq!(compiled.data_type(), interpreted.data_type(), "{e}");
        for i in 0..b.len() {
            let (c, v) = (compiled.value_at(i), interpreted.value_at(i));
            assert_eq!(c, v, "row {i}: compiled {c:?} vs interpreted {v:?} for {e}");
        }
    }

    #[test]
    fn arithmetic_agrees_with_interpreter() {
        let b = batch(3000); // multiple blocks
        let e = Expr::binary(
            BinOp::Add,
            Expr::binary(BinOp::Mul, Expr::col(2), Expr::lit(3i64)),
            Expr::binary(BinOp::Sub, Expr::col(1), Expr::col(2)),
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
        // ((((f+1)+1)+1)...) 40 deep: register count stays small because
        // the tree is left-leaning.
        let mut e = Expr::col(2);
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
        // f + (f + (f + ...)): needs one register per level.
        let mut e = Expr::col(2);
        for _ in 0..20 {
            e = Expr::binary(BinOp::Add, Expr::col(2), e);
        }
        let b = batch(64);
        assert_matches_interpreter(&e, &b);
    }

    #[test]
    fn strings_fall_back() {
        let s = schema();
        let e = Expr::binary(BinOp::Eq, Expr::col(3), Expr::lit("k"));
        assert!(compile(&e, &s).is_none());
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
        let e = Expr::binary(BinOp::Add, Expr::col(0), Expr::lit(1.5f64));
        let p = compile(&e, &s).unwrap();
        assert!(p.run(&b).is_none());
        let c = CompiledExpr::new(e, &s);
        let v = c.eval(&b).unwrap(); // interpreter fallback
        assert_eq!(v.value_at(0), Value::Float(2.5));
        assert_eq!(v.value_at(1), Value::Null);
    }

    #[test]
    fn integers_beyond_2_53_fall_back() {
        const P53: i64 = 1 << 53;
        let s = Schema::new(vec![
            Field::new("a", DataType::Int64),
            Field::new("b", DataType::Int64),
            Field::new("f", DataType::Float64),
        ]);
        // A literal the VM cannot hold is declined at compile time; the
        // last exact one is not.
        for (lit, compiles) in [
            (P53, true),
            (-P53, true),
            (P53 + 1, false),
            (i64::MIN, false),
        ] {
            let e = Expr::binary(BinOp::Eq, Expr::col(0), Expr::lit(lit));
            assert_eq!(compile(&e, &s).is_some(), compiles, "{lit}");
            let e = Expr::binary(BinOp::Sub, Expr::lit(lit), Expr::col(2));
            assert_eq!(compile(&e, &s).is_some(), compiles, "{lit} - f");
        }
        // A column value it cannot hold is declined per block, and `eval`
        // answers from the interpreter: a and b are distinct integers that
        // are the same f64.
        let rows = vec![row![1i64, 1i64, 0.0f64], row![P53 + 1, P53, 0.0f64]];
        let b = Batch::from_rows(&s, &rows).unwrap();
        let e = Expr::binary(BinOp::Eq, Expr::col(0), Expr::col(1));
        let p = compile(&e, &s).unwrap();
        assert!(p.run(&b).is_none());
        let c = CompiledExpr::new(e, &s);
        assert!(c.is_compiled());
        let v = c.eval(&b).unwrap();
        assert_eq!(v.value_at(0), Value::Bool(true));
        assert_eq!(v.value_at(1), Value::Bool(false));
    }

    /// Rows `a, f` beside an unrelated `u`, once NULL-free (the VM runs)
    /// and once with one `u` NULL (the batch falls to the interpreter):
    /// `pred OR u < 0` must select the same rows both ways.
    fn selected_with_and_without_a_null(
        pred: Expr,
        a: [i64; 4],
        f: [f64; 4],
        compiles: bool,
    ) -> Vec<u32> {
        let s = Schema::new(vec![
            Field::new("a", DataType::Int64),
            Field::new("f", DataType::Float64),
            Field::new("u", DataType::Int64),
        ]);
        let e = pred.or(Expr::binary(BinOp::Lt, Expr::col(2), Expr::lit(0i64)));
        let c = CompiledExpr::new(e.clone(), &s);
        assert_eq!(c.is_compiled(), compiles, "{e}");
        let mut rows: Vec<Row> = (0..4).map(|i| row![a[i], f[i], 7i64]).collect();
        let null_free = Batch::from_rows(&s, &rows).unwrap();
        let compiled = c.filter(&null_free).unwrap();
        rows[0].values_mut()[2] = Value::Null;
        let with_null = Batch::from_rows(&s, &rows).unwrap();
        assert!(compile(&e, &s).is_none_or(|p| p.run(&with_null).is_none()));
        assert_eq!(compiled, c.filter(&with_null).unwrap(), "{e}");
        compiled
    }

    #[test]
    fn negative_zero_is_below_zero_with_or_without_a_null_in_the_batch() {
        let e = Expr::binary(BinOp::Eq, Expr::col(1), Expr::lit(0.0f64));
        let sel = selected_with_and_without_a_null(e, [0; 4], [0.0, -0.0, 1.0, -0.0], true);
        assert_eq!(sel, vec![0]);
    }

    #[test]
    fn nan_equals_itself_with_or_without_a_null_in_the_batch() {
        let e = Expr::binary(BinOp::Eq, Expr::col(1), Expr::col(1));
        let sel =
            selected_with_and_without_a_null(e, [0; 4], [1.0, f64::NAN, -0.0, f64::NAN], true);
        assert_eq!(sel, vec![0, 1, 2, 3]);
    }

    #[test]
    fn integer_products_wrap_with_or_without_a_null_in_the_batch() {
        // 3037000501^2 is just past i64::MAX: it wraps negative. (No f64
        // program computes that, so there is none.)
        let e = Expr::binary(
            BinOp::Gt,
            Expr::binary(BinOp::Mul, Expr::col(0), Expr::col(0)),
            Expr::lit(0i64),
        );
        let sel = selected_with_and_without_a_null(e, [1, 3_037_000_501, -2, 0], [0.0; 4], false);
        assert_eq!(sel, vec![0, 2]);
    }

    #[test]
    fn integers_promote_into_float_arithmetic_exactly() {
        const P53: i64 = 1 << 53;
        let s = Schema::new(vec![
            Field::new("a", DataType::Int64),
            Field::new("f", DataType::Float64),
        ]);
        let rows = vec![row![P53, 0.5f64], row![-P53, -0.0f64], row![0i64, f64::NAN]];
        let b = Batch::from_rows(&s, &rows).unwrap();
        for op in [
            BinOp::Add,
            BinOp::Sub,
            BinOp::Mul,
            BinOp::Div,
            BinOp::Mod,
            BinOp::Le,
        ] {
            for e in [
                Expr::binary(op, Expr::col(0), Expr::col(1)),
                Expr::binary(op, Expr::col(1), Expr::lit(3i64)),
                Expr::binary(op, Expr::lit(-7i64), Expr::col(1)),
            ] {
                let vm = compile(&e, &s).unwrap().run(&b).unwrap();
                let interpreted = e.eval_batch(&b).unwrap();
                for i in 0..b.len() {
                    assert_eq!(vm.value_at(i), interpreted.value_at(i), "row {i} of {e}");
                }
            }
        }
    }

    #[test]
    fn what_has_no_exact_program_is_never_compiled() {
        let s = Schema::new(vec![
            Field::new("a", DataType::Int64),
            Field::new("t", DataType::Bool),
            Field::new("f", DataType::Float64),
        ]);
        let declined = [
            // Nothing to fuse.
            Expr::col(0),
            Expr::lit(1i64),
            // The interpreter reports a type error here; the VM would not.
            Expr::binary(BinOp::Eq, Expr::col(1), Expr::lit(1i64)),
            Expr::binary(BinOp::Add, Expr::col(1), Expr::col(0)),
            Expr::binary(BinOp::And, Expr::col(0), Expr::col(1)),
            // `i64` arithmetic wraps; f64 would round.
            Expr::binary(BinOp::Mul, Expr::col(0), Expr::col(0)),
            Expr::binary(
                BinOp::Lt,
                Expr::Unary {
                    op: UnOp::Neg,
                    expr: Box::new(Expr::col(0)),
                },
                Expr::col(2),
            ),
            Expr::IsNull(Box::new(Expr::col(0))),
            Expr::binary(BinOp::Eq, Expr::col(0), Expr::Literal(Value::Null)),
        ];
        for e in declined {
            assert!(!CompiledExpr::new(e.clone(), &s).is_compiled(), "{e}");
        }
        let e = Expr::binary(BinOp::Eq, Expr::col(1), Expr::lit(true));
        assert!(CompiledExpr::new(e, &s).is_compiled());
    }

    #[test]
    fn integer_division_rejected_at_compile_time() {
        // SQL integer division truncates; the f64 VM would not, so such
        // expressions stay on the interpreter.
        let e = Expr::binary(BinOp::Div, Expr::col(0), Expr::col(1));
        assert!(compile(&e, &schema()).is_none());
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
        assert_eq!(p.instrs.len(), 2, "{:?}", p);
        assert_matches_interpreter(&e, &b);
        // Left-side literal mirrors the comparison: 5 < a ⇒ a > 5.
        let e = Expr::binary(BinOp::Lt, Expr::lit(5i64), Expr::col(0));
        let p = compile(&e, &s).unwrap();
        assert_eq!(p.instrs.len(), 2);
        assert_matches_interpreter(&e, &b);
        // Left-side literal on a non-mirrorable op stays generic (3
        // instructions) but still agrees.
        let e = Expr::binary(BinOp::Sub, Expr::lit(1000.0f64), Expr::col(2));
        let p = compile(&e, &s).unwrap();
        assert_eq!(p.instrs.len(), 3);
        assert_matches_interpreter(&e, &b);
        // Folding must not change register pressure for a chain.
        let mut e = Expr::col(2);
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
            let e = Expr::binary(BinOp::Mul, Expr::col(2), Expr::lit(2i64));
            let p = compile(&e, &schema()).unwrap();
            let v = p.run(&b).unwrap();
            assert_eq!(v.len(), n);
            assert_eq!(v.value_at(n - 1), Value::Float((n - 1) as f64 * 0.5));
        }
    }

    /// `a` = 0..8 with row 3 NULL.
    fn filter_over_a_null(e: Expr) -> Result<Vec<u32>> {
        let s = Schema::new(vec![Field::new("a", DataType::Int64)]);
        let rows: Vec<Row> = (0..8)
            .map(|i| {
                if i == 3 {
                    Row::new(vec![Value::Null])
                } else {
                    row![i as i64]
                }
            })
            .collect();
        CompiledExpr::new(e, &s).filter(&Batch::from_rows(&s, &rows).unwrap())
    }

    #[test]
    fn filter_semantics_true_only() {
        // a > 2: rows 4..7 true, row 3 NULL (excluded), rows 0..2 false.
        let e = Expr::binary(BinOp::Gt, Expr::col(0), Expr::lit(2i64));
        assert_eq!(filter_over_a_null(e).unwrap(), vec![4, 5, 6, 7]);
        // Not a predicate.
        assert!(filter_over_a_null(Expr::col(0)).is_err());
    }

    #[test]
    fn is_null_handling() {
        let e = Expr::IsNull(Box::new(Expr::col(0)));
        assert_eq!(filter_over_a_null(e).unwrap(), vec![3]);
        let e = Expr::IsNotNull(Box::new(Expr::col(0)));
        assert_eq!(filter_over_a_null(e).unwrap().len(), 7);
    }
}
