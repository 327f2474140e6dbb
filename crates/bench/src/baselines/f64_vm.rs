//! The "compiled" arm of E11: a fused, register-based block evaluator
//! standing in for LLVM code generation. It is not part of the engine.
//!
//! The engine evaluates every expression with the vectorized
//! interpreter ([`Expr::eval_batch`]), which **defines** what an expression
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
//! reproduce ([`compile`] or [`Program::run`] returns `None`):
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
//! The benchmark `e11_compilation` compares [`Program::run`] with the
//! interpreter and a tuple-at-a-time walk ([`super::tuple_eval`]) on
//! identical expressions. No statement reaches this module.

use oltap_common::{Batch, BitSet, ColumnVector, DataType, Schema, Value};
use oltap_exec::expr::{BinOp, Expr, UnOp};

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
pub struct Program {
    instrs: Vec<Instr>,
    regs: usize,
    referenced: Vec<usize>,
    /// The result is a predicate's 0/1 mask (else a `Float64` value).
    produces_bool: bool,
}

/// Compiles `expr` against `schema`, or declines (`None`) what the VM
/// cannot evaluate exactly — see the module docs for the list.
pub fn compile(expr: &Expr, schema: &Schema) -> Option<Program> {
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
    /// The program's size: (instructions run per block, block registers).
    pub fn size(&self) -> (usize, usize) {
        (self.instrs.len(), self.regs)
    }

    /// Executes over a batch, producing the column vector the interpreter
    /// would — or `None` when the batch holds something the VM declines (a
    /// NULL in a referenced column, an integer it cannot hold exactly).
    pub fn run(&self, batch: &Batch) -> Option<ColumnVector> {
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
