//! Compilation of TE programs into flat register bytecode.
//!
//! The naive interpreter in [`crate::interp`] re-walks the `ScalarExpr`
//! tree and re-evaluates every quasi-affine index expression for every
//! output (and reduction) point. This module lowers each TE body **once**
//! into:
//!
//! - a flat, register-based instruction sequence (`Instr`) with explicit
//!   jumps for lazily-evaluated `Select` branches (so guarded out-of-bounds
//!   accesses — padding — are never touched, exactly like the naive
//!   interpreter), and
//! - a table of operand accesses, split into **affine** accesses that are
//!   strength-reduced to a base offset plus one flat stride per loop
//!   variable (the paper's §5.2 observation that one-relies-on-one
//!   dependences are quasi-affine maps), and **generic** accesses that
//!   fall back to per-axis index evaluation with the naive interpreter's
//!   bounds checks.
//!
//! An access qualifies for the affine fast path only when every index
//! expression is affine over the iteration box — after
//! [`IndexExpr::simplified_within`] resolves the floor-divs and mods whose
//! remainder provably stays inside one block — *and* interval analysis
//! over the box proves it in-bounds on every axis; everything else takes
//! the generic path, which preserves the taken-branch-only out-of-bounds
//! semantics bit for bit.
//!
//! # Pieces
//!
//! The TEs that horizontal and vertical fusion emit are affine only on
//! parts of their iteration space, so each TE is compiled over one or more
//! *pieces* — sub-boxes on which its accesses are affine and provably in
//! bounds. Three rules, each decided from the program alone:
//!
//! 1. **Index-set splitting at guard cuts.** `Select` guards whose only
//!    variable is one output axis (horizontal fusion's `v0 < cut`, or
//!    `v1 < cut` once batching has shifted every variable up) cut that
//!    axis into maximal runs on which every guard has the same truth
//!    value. When the cuts are monotone — at most one more piece than
//!    guards — each run becomes a piece: the body with `v_a → v_a + lo`,
//!    compiled over extent `hi − lo`. Within any piece, a `Select` whose
//!    condition interval analysis decides over the box compiles to its
//!    taken branch alone, so the untaken branch is still never evaluated.
//! 2. **Range-aware floor-div/mod** ([`IndexExpr::simplified_within`]),
//!    applied to every index that is not already affine.
//! 3. **Reduction strip-mining.** A single-axis reduction without folds
//!    whose remaining non-affine accesses read the reduction variable only
//!    as `v / k` and `v mod k`, for one `k` dividing its extent `E`,
//!    compiles with reduce `[E/k, k]` and `v → k·vh + vl`.
//!
//! Every rule is exact: integer index arithmetic is exact, the untaken
//! branch of a decided `Select` is never evaluated by the interpreter
//! either, and ascending `(vh, vl)` is ascending `v`, so the reduction
//! combine order — and every result bit — is unchanged. The VM walks a
//! split TE's flat output range in order as runs, each inside one piece,
//! so the first failing element, and with it the error, is the
//! interpreter's.
//!
//! Evaluation of the compiled form lives in the private `vm` module.

use crate::expr::{BinaryOp, CmpOp, Cond, ScalarExpr, UnaryOp};
use crate::kernels::{self, KernelSel, KernelStats};
use crate::program::{TeProgram, TensorId, TensorInfo};
use crate::te::{ReduceOp, TensorExpr};
use souffle_affine::IndexExpr;
use souffle_tensor::Shape;

/// One bytecode instruction. Register indices address a flat `f32`
/// register file; `access`, `cond`, and `expr` index the side tables on
/// [`CompiledTe`].
#[derive(Debug, Clone)]
pub(crate) enum Instr {
    /// `regs[dst] = value`.
    Const { dst: u32, value: f32 },
    /// `regs[dst] = operand_data[access][precomputed_offset[access]]`.
    LoadAffine { dst: u32, access: u32 },
    /// Evaluate the access's index expressions, bounds-check each axis,
    /// and load (or fail with the interpreter's `OutOfBounds` error).
    LoadGeneric { dst: u32, access: u32 },
    /// `regs[dst] = index_exprs[expr].eval(vars) as f32`.
    Index { dst: u32, expr: u32 },
    /// `regs[dst] = op.apply(regs[src])`.
    Unary { dst: u32, op: UnaryOp, src: u32 },
    /// `regs[dst] = op.apply(regs[lhs], regs[rhs])`.
    Binary {
        dst: u32,
        op: BinaryOp,
        lhs: u32,
        rhs: u32,
    },
    /// Jump to `target` when `conds[cond]` is false (enters the `Select`
    /// else-branch); fall through into the then-branch otherwise.
    JumpIfNot { cond: u32, target: u32 },
    /// Unconditional jump (skips the untaken `Select` branch).
    Jump { target: u32 },
    /// `regs[dst] = ` the combined value of `folds[fold]` — an inline
    /// reduction loop over the fold's bound variable, left by reduction
    /// fusion. The VM caches the value per fold and invalidates it when a
    /// variable the fold depends on changes, so a row-invariant fold (the
    /// softmax denominator, layernorm mean/var) is recomputed once per
    /// slice rather than once per element.
    Fold { dst: u32, fold: u32 },
}

/// A strength-reduced operand access: the flat row-major offset into the
/// operand is `base + Σ coeffs[v] · vars[v]`, maintained incrementally by
/// the VM as the loop odometer advances (one add per step instead of a
/// full index-expression re-evaluation).
#[derive(Debug, Clone)]
pub(crate) struct AffineAccess {
    /// Position in the TE's input list.
    pub operand: usize,
    /// Flat offset at `vars = 0`.
    pub base: i64,
    /// Flat stride per loop variable (iteration then reduction vars).
    pub coeffs: Vec<i64>,
}

/// Shape of a TE body recognized at compile time, letting the VM bypass
/// per-instruction dispatch for the bodies that dominate inference
/// workloads (matmul/conv inner products and plain data movement). The
/// specialized paths perform the *same* loads and float ops in the same
/// order as the bytecode would, so results stay bit-identical.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum BodyKind {
    /// Anything else: run the bytecode interpreter loop.
    Generic,
    /// Body is a single in-bounds affine load (copy/transpose/slice,
    /// or a single-operand reduction like sum/max over an axis).
    AffineLoad {
        /// Index into the TE's affine access table.
        access: usize,
    },
    /// Body is `load(a) * load(b)` with both loads affine — the
    /// matmul / conv2d (unpadded) inner body.
    MulAffine {
        /// Affine access id of the left factor.
        a: usize,
        /// Affine access id of the right factor.
        b: usize,
    },
}

/// An inline reduction loop compiled from [`ScalarExpr::Reduce`]: its own
/// code sequence over the bound variable, sharing the enclosing TE's
/// register file and access tables.
#[derive(Debug, Clone)]
pub(crate) struct CompiledFold {
    /// Fold combinator.
    pub op: ReduceOp,
    /// The bound variable (above the TE's free variables).
    pub var: usize,
    /// Trip count: the bound variable ranges over `0..extent`.
    pub extent: i64,
    /// Body bytecode, executed once per trip.
    pub code: Vec<Instr>,
    /// Register holding the body value after one execution of `code`.
    pub result: u32,
    /// Free variables the fold's *value* depends on (binder excluded) —
    /// the VM's cache-invalidation set.
    pub deps: Vec<usize>,
}

/// A generic (non-affine or not provably in-bounds) operand access,
/// evaluated per-axis with runtime bounds checks like the naive
/// interpreter.
#[derive(Debug, Clone)]
pub(crate) struct GenericAccess {
    /// Position in the TE's input list.
    pub operand: usize,
    /// One index expression per operand axis.
    pub indices: Vec<IndexExpr>,
    /// Operand extents, for the per-axis bounds check.
    pub dims: Vec<i64>,
}

/// One TE lowered to bytecode: its body compiled over one or more pieces
/// that tile its output box along one axis (see the module docs).
#[derive(Debug, Clone)]
pub struct CompiledTe {
    pub(crate) name: String,
    pub(crate) output: TensorId,
    pub(crate) out_shape: Shape,
    pub(crate) inputs: Vec<TensorId>,
    /// Output axis the pieces tile (irrelevant for a single piece).
    pub(crate) split_axis: usize,
    /// Consecutive ranges of `split_axis`, ascending; a TE that is not
    /// split has one piece covering its whole box.
    pub(crate) pieces: Vec<Piece>,
}

/// A TE body lowered to bytecode over one box of the TE's iteration
/// space, plus its access/condition/index tables.
#[derive(Debug, Clone)]
pub(crate) struct Piece {
    /// First index of the piece along the TE's split axis.
    pub(crate) lo: i64,
    /// The piece's output box: the TE's, with the split axis narrowed to
    /// the piece.
    pub(crate) out_shape: Shape,
    /// Reduction extents (`[E/k, k]` for a strip-mined `[E]`).
    pub(crate) reduce: Vec<i64>,
    pub(crate) reduce_op: Option<ReduceOp>,
    pub(crate) code: Vec<Instr>,
    /// Register holding the body value after one execution of `code`.
    pub(crate) result: u32,
    pub(crate) n_regs: usize,
    pub(crate) affine: Vec<AffineAccess>,
    pub(crate) generic: Vec<GenericAccess>,
    pub(crate) conds: Vec<Cond>,
    pub(crate) index_exprs: Vec<IndexExpr>,
    /// Inline reduction loops referenced by [`Instr::Fold`].
    pub(crate) folds: Vec<CompiledFold>,
    /// Iteration vars (output rank) + reduction vars, extended through any
    /// fold binders so `vars`/`coeffs` cover every variable position.
    pub(crate) n_vars: usize,
    /// Recognized body shape for the VM's specialized fast paths.
    pub(crate) kind: BodyKind,
    /// Kernel-tier selection ([`crate::kernels`]): the monomorphized
    /// native inner loop this piece dispatches to, or the bytecode
    /// fallback with its reason. Static, decided here at compile time.
    pub(crate) tier: KernelSel,
}

impl CompiledTe {
    /// The TE's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of accesses on the strength-reduced affine fast path,
    /// summed over pieces.
    pub fn num_affine_accesses(&self) -> usize {
        self.pieces.iter().map(|p| p.affine.len()).sum()
    }

    /// Number of accesses on the generic (checked) fallback path, summed
    /// over pieces.
    pub fn num_generic_accesses(&self) -> usize {
        self.pieces.iter().map(|p| p.generic.len()).sum()
    }

    /// Name of the specialized kernel this TE dispatches to: `"bytecode"`
    /// when any piece stays on the VM's instruction loop, else the first
    /// piece's kernel.
    pub fn kernel(&self) -> &'static str {
        let fallback = self
            .pieces
            .iter()
            .find(|p| matches!(p.tier, KernelSel::Fallback(_)));
        fallback.unwrap_or(&self.pieces[0]).tier.name()
    }

    /// The kernel of each piece, in piece order.
    pub fn piece_kernels(&self) -> Vec<&'static str> {
        self.pieces.iter().map(|p| p.tier.name()).collect()
    }

    /// Why the first piece that stays on the bytecode path does (`None`
    /// when every piece selected a specialized kernel).
    pub fn kernel_fallback_reason(&self) -> Option<&'static str> {
        self.pieces.iter().find_map(|p| match p.tier {
            KernelSel::Fallback(r) => Some(r.name()),
            _ => None,
        })
    }

    /// Reduction points per output element (the same for every piece:
    /// strip-mining keeps the product of the extents).
    pub(crate) fn reduce_points(&self) -> i64 {
        self.pieces[0].reduce.iter().product::<i64>().max(1)
    }
}

/// A whole TE program lowered to bytecode, ready for repeated evaluation.
///
/// Compile once with [`compile_program`], evaluate many times with
/// [`CompiledProgram::eval`]; the result is bit-identical to
/// [`crate::interp::eval_program`] on the same bindings (enforced by the
/// `evaluator_equivalence` differential suite).
#[derive(Debug, Clone)]
pub struct CompiledProgram {
    pub(crate) tensors: Vec<TensorInfo>,
    pub(crate) free: Vec<TensorId>,
    pub(crate) tes: Vec<CompiledTe>,
}

impl CompiledProgram {
    /// The compiled TEs, in definition order.
    pub fn tes(&self) -> &[CompiledTe] {
        &self.tes
    }

    /// Tensors the caller must bind (inputs and weights).
    pub fn free_tensors(&self) -> &[TensorId] {
        &self.free
    }

    pub(crate) fn tensor(&self, id: TensorId) -> &TensorInfo {
        &self.tensors[id.0]
    }

    /// Static kernel-tier census: how many pieces selected each
    /// specialized kernel (and each fallback reason). Counts are per piece
    /// of each TE definition — multiply by evaluations to get the
    /// runtime's dispatch counters.
    pub fn kernel_census(&self) -> KernelStats {
        let mut stats = KernelStats::default();
        for piece in self.tes.iter().flat_map(|te| &te.pieces) {
            stats.record(piece.tier);
        }
        stats
    }
}

/// Which evaluator executes a TE program.
///
/// [`Evaluator::Naive`] is the inspectable tree-walking interpreter — the
/// semantic ground truth. [`Evaluator::Compiled`] is the bytecode VM with
/// strength-reduced affine indexing and chunked threading; it produces
/// bit-identical results (enforced by the `evaluator_equivalence` suite)
/// and is the default everywhere results are only consumed, not inspected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Evaluator {
    /// Tree-walking reference interpreter ([`crate::interp::eval_program`]).
    Naive,
    /// Bytecode VM over [`compile_program`] output (the fast path).
    #[default]
    Compiled,
}

/// Lowers every TE of `program` to bytecode with strength-reduced affine
/// accesses, split into pieces where its guards cut it (module docs).
///
/// # Panics
///
/// Panics if a body references an operand slot with no backing tensor
/// (the same programs on which the naive interpreter panics; run
/// [`TeProgram::validate`] first to get a structured error instead).
pub fn compile_program(program: &TeProgram) -> CompiledProgram {
    let tes = program
        .te_ids()
        .map(|id| {
            let te = program.te(id);
            let operand_shapes: Vec<Shape> = te
                .inputs
                .iter()
                .map(|tid| program.tensor(*tid).shape.clone())
                .collect();
            compile_te(te, program.output_shape(id), &operand_shapes)
        })
        .collect();
    CompiledProgram {
        tensors: program.tensors().to_vec(),
        free: program.free_tensors(),
        tes,
    }
}

fn compile_te(te: &TensorExpr, out_shape: &Shape, operand_shapes: &[Shape]) -> CompiledTe {
    let piece = |lo: i64, body: &ScalarExpr, out_shape: Shape| {
        compile_piece(
            lo,
            body,
            out_shape,
            &te.reduce,
            te.reduce_op,
            operand_shapes,
        )
    };
    let (split_axis, pieces) = match guard_cuts(&te.body, out_shape) {
        Some((axis, ranges)) => {
            let n_subs = te.body.max_var().map_or(0, |m| m + 1);
            let mut bounds = box_bounds(out_shape, &te.reduce, &te.body);
            let pieces = ranges
                .into_iter()
                .map(|(lo, hi)| {
                    // Only the branch the piece takes is shifted and compiled.
                    bounds[axis] = (lo, hi - 1);
                    let mut body = &te.body;
                    while let ScalarExpr::Select {
                        cond,
                        on_true,
                        on_false,
                    } = body
                    {
                        body = match decide(cond, &bounds) {
                            Some(true) => on_true,
                            Some(false) => on_false,
                            None => break,
                        };
                    }
                    let mut subs: Vec<IndexExpr> = (0..n_subs).map(IndexExpr::Var).collect();
                    subs[axis] = IndexExpr::var(axis).add(IndexExpr::constant(lo));
                    let mut dims = out_shape.dims().to_vec();
                    dims[axis] = hi - lo;
                    piece(lo, &body.substitute(&subs, &|o| o), Shape::new(dims))
                })
                .collect();
            (axis, pieces)
        }
        None => (0, vec![piece(0, &te.body, out_shape.clone())]),
    };
    CompiledTe {
        name: te.name.clone(),
        output: te.output,
        out_shape: out_shape.clone(),
        inputs: te.inputs.clone(),
        split_axis,
        pieces,
    }
}

/// Rule 1: where `body`'s single-axis guards cut its output box. Takes the
/// guards whose only variable is the outermost guarded output axis `a`
/// and cuts `a` into maximal runs on which every one of them has the same
/// truth value. Returns `(a, [lo, hi) per run)` when there are at least
/// two runs and at most one more than guards — the monotone cuts of
/// horizontal fusion — and `None` otherwise (an alternating guard, say).
fn guard_cuts(body: &ScalarExpr, out_shape: &Shape) -> Option<(usize, Vec<(i64, i64)>)> {
    let mut guards = Vec::new();
    collect_guards(body, out_shape.rank(), &mut guards);
    let axis = guards.iter().map(|(a, _)| *a).min()?;
    let mut conds: Vec<&Cond> = Vec::new();
    for (a, c) in guards {
        if a == axis && !conds.contains(&c) {
            conds.push(c);
        }
    }
    let mut vars = vec![0i64; axis + 1];
    let mut truth = vec![false; conds.len()];
    let mut runs: Vec<(i64, i64)> = Vec::new();
    for x in 0..out_shape.dim(axis) {
        vars[axis] = x;
        let mut changed = runs.is_empty();
        for (c, t) in conds.iter().zip(&mut truth) {
            let now = c.eval(&vars);
            changed |= now != *t;
            *t = now;
        }
        if changed {
            if runs.len() > conds.len() {
                return None;
            }
            runs.push((x, x + 1));
        } else if let Some(run) = runs.last_mut() {
            run.1 = x + 1;
        }
    }
    (runs.len() >= 2).then_some((axis, runs))
}

/// Every `Select` condition in `e` whose only variable is an output axis
/// (`< rank`), with that axis.
fn collect_guards<'a>(e: &'a ScalarExpr, rank: usize, out: &mut Vec<(usize, &'a Cond)>) {
    match e {
        ScalarExpr::Const(_) | ScalarExpr::Input { .. } | ScalarExpr::IndexValue(_) => {}
        ScalarExpr::Unary(_, a) | ScalarExpr::Reduce { body: a, .. } => {
            collect_guards(a, rank, out)
        }
        ScalarExpr::Binary(_, a, b) => {
            collect_guards(a, rank, out);
            collect_guards(b, rank, out);
        }
        ScalarExpr::Select {
            cond,
            on_true,
            on_false,
        } => {
            let mut var = None;
            let mut single = true;
            cond.for_each_var(&mut |v| {
                single &= *var.get_or_insert(v) == v;
            });
            if let Some(a) = var.filter(|&a| single && a < rank) {
                out.push((a, cond));
            }
            collect_guards(on_true, rank, out);
            collect_guards(on_false, rank, out);
        }
    }
}

/// Compiles `body` over the box `out_shape × reduce`, strip-mining the
/// reduction first when rule 3 applies.
fn compile_piece(
    lo: i64,
    body: &ScalarExpr,
    out_shape: Shape,
    reduce: &[i64],
    reduce_op: Option<ReduceOp>,
    operand_shapes: &[Shape],
) -> Piece {
    let rank = out_shape.rank();
    if let [extent] = *reduce {
        let bounds = box_bounds(&out_shape, reduce, body);
        if let Some(k) = strip_factor(body, &bounds, rank, extent) {
            let mut subs: Vec<IndexExpr> = (0..rank).map(IndexExpr::Var).collect();
            subs.push(IndexExpr::var(rank).mul(k).add(IndexExpr::var(rank + 1)));
            let body = body.substitute(&subs, &|o| o);
            return lower_piece(
                lo,
                &body,
                out_shape,
                vec![extent / k, k],
                reduce_op,
                operand_shapes,
            );
        }
    }
    lower_piece(
        lo,
        body,
        out_shape,
        reduce.to_vec(),
        reduce_op,
        operand_shapes,
    )
}

/// Rule 3: the factor `k` to strip-mine the lone reduction variable `r`
/// of a fold-free body by — when every access index that stays
/// non-affine under [`IndexExpr::simplified_within`] reads `r` only as
/// `r / k` and `r mod k`, for one `k` that divides `extent`.
fn strip_factor(body: &ScalarExpr, bounds: &[(i64, i64)], r: usize, extent: i64) -> Option<i64> {
    if body.has_fold() {
        return None;
    }
    let mut k = None;
    for (_, indices) in body.accesses() {
        for idx in indices.iter().filter(|i| !i.is_affine()) {
            let idx = idx.simplified_within(bounds);
            if !idx.is_affine() && !reads_only_split(&idx, r, &mut k) {
                return None;
            }
        }
    }
    k.filter(|&k| extent % k == 0)
}

/// Whether `e` reads `Var(r)` only as `r / k` or `r mod k` with one `k`
/// throughout (recorded in `k`).
fn reads_only_split(e: &IndexExpr, r: usize, k: &mut Option<i64>) -> bool {
    match e {
        IndexExpr::FloorDiv(a, d) | IndexExpr::Mod(a, d) if **a == IndexExpr::Var(r) => {
            *k.get_or_insert(*d) == *d
        }
        IndexExpr::Var(v) => *v != r,
        IndexExpr::Const(_) => true,
        IndexExpr::Add(a, b) | IndexExpr::Sub(a, b) => {
            reads_only_split(a, r, k) && reads_only_split(b, r, k)
        }
        IndexExpr::Mul(a, _) | IndexExpr::FloorDiv(a, _) | IndexExpr::Mod(a, _) => {
            reads_only_split(a, r, k)
        }
    }
}

/// Lowers `body` over the box `out_shape × reduce` to bytecode and selects
/// its kernel.
fn lower_piece(
    lo: i64,
    body: &ScalarExpr,
    out_shape: Shape,
    reduce: Vec<i64>,
    reduce_op: Option<ReduceOp>,
    operand_shapes: &[Shape],
) -> Piece {
    let box_bounds = box_bounds(&out_shape, &reduce, body);
    let n_vars = box_bounds.len();
    let mut c = BodyCompiler {
        operand_shapes,
        n_vars,
        box_bounds,
        code: Vec::new(),
        next_reg: 0,
        affine: Vec::new(),
        generic: Vec::new(),
        affine_keys: Vec::new(),
        generic_keys: Vec::new(),
        conds: Vec::new(),
        index_exprs: Vec::new(),
        folds: Vec::new(),
    };
    let result = c.fresh();
    c.compile_into(body, result);
    let kind = classify_body(&c.code, result);
    let mut piece = Piece {
        lo,
        out_shape,
        reduce,
        reduce_op,
        code: c.code,
        result,
        n_regs: c.next_reg as usize,
        affine: c.affine,
        generic: c.generic,
        conds: c.conds,
        index_exprs: c.index_exprs,
        folds: c.folds,
        n_vars,
        kind,
        tier: KernelSel::Fallback(kernels::FallbackReason::ReducedBody),
    };
    piece.tier = kernels::select(&piece);
    piece
}

/// Inclusive `(lo, hi)` per variable of `body` over the box
/// `out_shape × reduce`. Fold binders (reduction fusion) live above the
/// free variables; they get slots and bounds too, so strength reduction
/// covers accesses inside fold bodies.
fn box_bounds(out_shape: &Shape, reduce: &[i64], body: &ScalarExpr) -> Vec<(i64, i64)> {
    let n_free = out_shape.rank() + reduce.len();
    let n_vars = n_free.max(body.max_var().map_or(0, |m| m + 1));
    let mut extents: Vec<i64> = out_shape.dims().iter().chain(reduce).copied().collect();
    extents.resize(n_vars, 1);
    for (var, extent) in body.collect_folds() {
        if var >= n_free {
            extents[var] = extents[var].max(extent.max(1));
        }
    }
    extents.iter().map(|&e| (0, e - 1)).collect()
}

/// Decides `cond` over the box `bounds` by interval analysis: `Some` when
/// it has the same truth value at every point, `None` when that is not
/// provable.
fn decide(cond: &Cond, bounds: &[(i64, i64)]) -> Option<bool> {
    match cond {
        Cond::Cmp(op, a, b) => {
            let (lo, hi) = a.clone().sub(b.clone()).interval(bounds);
            if lo == i64::MIN || hi == i64::MAX {
                return None;
            }
            let (always, never) = match op {
                CmpOp::Lt => (hi < 0, lo >= 0),
                CmpOp::Le => (hi <= 0, lo > 0),
                CmpOp::Gt => (lo > 0, hi <= 0),
                CmpOp::Ge => (lo >= 0, hi < 0),
                CmpOp::Eq => (lo == 0 && hi == 0, lo > 0 || hi < 0),
                CmpOp::Ne => (lo > 0 || hi < 0, lo == 0 && hi == 0),
            };
            match (always, never) {
                (true, _) => Some(true),
                (_, true) => Some(false),
                _ => None,
            }
        }
        Cond::And(a, b) => match (decide(a, bounds), decide(b, bounds)) {
            (Some(false), _) | (_, Some(false)) => Some(false),
            (Some(true), Some(true)) => Some(true),
            _ => None,
        },
        Cond::Or(a, b) => match (decide(a, bounds), decide(b, bounds)) {
            (Some(true), _) | (_, Some(true)) => Some(true),
            (Some(false), Some(false)) => Some(false),
            _ => None,
        },
        Cond::Not(a) => decide(a, bounds).map(|t| !t),
    }
}

/// Pattern-matches the emitted bytecode against the shapes the VM
/// specializes. Matching on the *code* (not the source tree) means the
/// recognized form is exactly what the interpreter loop would execute.
fn classify_body(code: &[Instr], result: u32) -> BodyKind {
    match code {
        [Instr::LoadAffine { dst, access }] if *dst == result => BodyKind::AffineLoad {
            access: *access as usize,
        },
        [Instr::LoadAffine { dst: d1, access: a }, Instr::LoadAffine { dst: d2, access: b }, Instr::Binary {
            dst,
            op: BinaryOp::Mul,
            lhs,
            rhs,
        }] if *dst == result && *lhs == *d1 && *rhs == *d2 => BodyKind::MulAffine {
            a: *a as usize,
            b: *b as usize,
        },
        _ => BodyKind::Generic,
    }
}

struct BodyCompiler<'a> {
    operand_shapes: &'a [Shape],
    n_vars: usize,
    /// Inclusive `(lo, hi)` per variable: the box being compiled.
    box_bounds: Vec<(i64, i64)>,
    code: Vec<Instr>,
    next_reg: u32,
    affine: Vec<AffineAccess>,
    generic: Vec<GenericAccess>,
    affine_keys: Vec<(usize, Vec<IndexExpr>)>,
    generic_keys: Vec<(usize, Vec<IndexExpr>)>,
    conds: Vec<Cond>,
    index_exprs: Vec<IndexExpr>,
    folds: Vec<CompiledFold>,
}

impl BodyCompiler<'_> {
    fn fresh(&mut self) -> u32 {
        let r = self.next_reg;
        self.next_reg += 1;
        r
    }

    /// Emits code leaving the value of `e` in register `dst`. The emission
    /// order mirrors the naive interpreter's evaluation order exactly, so
    /// floating-point results are bit-identical.
    fn compile_into(&mut self, e: &ScalarExpr, dst: u32) {
        match e {
            ScalarExpr::Const(value) => self.code.push(Instr::Const { dst, value: *value }),
            ScalarExpr::IndexValue(expr) => {
                let id = self.index_exprs.len() as u32;
                self.index_exprs.push(expr.clone());
                self.code.push(Instr::Index { dst, expr: id });
            }
            ScalarExpr::Input { operand, indices } => self.compile_load(*operand, indices, dst),
            ScalarExpr::Unary(op, a) => {
                let src = self.fresh();
                self.compile_into(a, src);
                self.code.push(Instr::Unary { dst, op: *op, src });
            }
            ScalarExpr::Binary(op, a, b) => {
                let lhs = self.fresh();
                self.compile_into(a, lhs);
                let rhs = self.fresh();
                self.compile_into(b, rhs);
                self.code.push(Instr::Binary {
                    dst,
                    op: *op,
                    lhs,
                    rhs,
                });
            }
            ScalarExpr::Select {
                cond,
                on_true,
                on_false,
            } => match decide(cond, &self.box_bounds) {
                // Decided over the whole box: only the taken branch exists.
                Some(true) => self.compile_into(on_true, dst),
                Some(false) => self.compile_into(on_false, dst),
                None => {
                    let cid = self.conds.len() as u32;
                    self.conds.push(cond.clone());
                    let jump_to_else = self.code.len();
                    self.code.push(Instr::JumpIfNot {
                        cond: cid,
                        target: 0, // patched below
                    });
                    self.compile_into(on_true, dst);
                    let jump_to_end = self.code.len();
                    self.code.push(Instr::Jump { target: 0 }); // patched below
                    let else_start = self.code.len() as u32;
                    if let Instr::JumpIfNot { target, .. } = &mut self.code[jump_to_else] {
                        *target = else_start;
                    }
                    self.compile_into(on_false, dst);
                    let end = self.code.len() as u32;
                    if let Instr::Jump { target } = &mut self.code[jump_to_end] {
                        *target = end;
                    }
                }
            },
            ScalarExpr::Reduce {
                op,
                var,
                extent,
                body,
            } => {
                // The fold body compiles into its own code sequence (the VM
                // loops it over the binder), sharing the enclosing TE's
                // register file and access tables.
                let result = self.fresh();
                let outer = std::mem::take(&mut self.code);
                self.compile_into(body, result);
                let code = std::mem::replace(&mut self.code, outer);
                let id = self.folds.len() as u32;
                self.folds.push(CompiledFold {
                    op: *op,
                    var: *var,
                    extent: *extent,
                    code,
                    result,
                    deps: e.free_vars(),
                });
                self.code.push(Instr::Fold { dst, fold: id });
            }
        }
    }

    fn compile_load(&mut self, operand: usize, indices: &[IndexExpr], dst: u32) {
        if let Some(access) = self.try_affine(operand, indices) {
            self.code.push(Instr::LoadAffine { dst, access });
        } else {
            let access = self.intern_generic(operand, indices);
            self.code.push(Instr::LoadGeneric { dst, access });
        }
    }

    /// Strength-reduces the access if every index expression is affine
    /// over the iteration box (rule 2 resolves the floor-divs and mods it
    /// can) and interval analysis over the box proves it in-bounds on
    /// every axis; returns the interned access id.
    fn try_affine(&mut self, operand: usize, indices: &[IndexExpr]) -> Option<u32> {
        let shape = self
            .operand_shapes
            .get(operand)
            .unwrap_or_else(|| panic!("operand slot {operand} has no backing tensor"));
        if indices.len() != shape.rank() {
            return None; // rank mismatch: fail at runtime like the interpreter
        }
        let mut linear: Vec<(Vec<i64>, i64)> = Vec::with_capacity(indices.len());
        for (axis, idx) in indices.iter().enumerate() {
            let simplified;
            let idx = if idx.is_affine() {
                idx
            } else {
                simplified = idx.simplified_within(&self.box_bounds);
                &simplified
            };
            let lin = idx.as_linear(self.n_vars)?;
            let (lo, hi) = idx.interval(&self.box_bounds);
            if lo < 0 || hi >= shape.dim(axis) {
                return None; // possibly out of bounds: keep the checked path
            }
            linear.push(lin);
        }
        if let Some(id) = self
            .affine_keys
            .iter()
            .position(|(op, ix)| *op == operand && ix == indices)
        {
            return Some(id as u32);
        }
        let strides = shape.strides();
        let mut base = 0i64;
        let mut coeffs = vec![0i64; self.n_vars];
        for (axis, (axis_coeffs, axis_const)) in linear.iter().enumerate() {
            base += strides[axis] * axis_const;
            for (v, c) in axis_coeffs.iter().enumerate() {
                coeffs[v] += strides[axis] * c;
            }
        }
        let id = self.affine.len() as u32;
        self.affine.push(AffineAccess {
            operand,
            base,
            coeffs,
        });
        self.affine_keys.push((operand, indices.to_vec()));
        Some(id)
    }

    fn intern_generic(&mut self, operand: usize, indices: &[IndexExpr]) -> u32 {
        if let Some(id) = self
            .generic_keys
            .iter()
            .position(|(op, ix)| *op == operand && ix == indices)
        {
            return id as u32;
        }
        let dims = self
            .operand_shapes
            .get(operand)
            .map(|s| s.dims().to_vec())
            .unwrap_or_else(|| panic!("operand slot {operand} has no backing tensor"));
        let id = self.generic.len() as u32;
        self.generic.push(GenericAccess {
            operand,
            indices: indices.to_vec(),
            dims,
        });
        self.generic_keys.push((operand, indices.to_vec()));
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders;
    use crate::interp::{eval_program, random_bindings};
    use crate::runtime::{Runtime, RuntimeOptions};
    use souffle_tensor::DType;

    #[test]
    fn matmul_accesses_are_affine() {
        let mut p = TeProgram::new();
        let a = p.add_input("A", Shape::new(vec![4, 8]), DType::F32);
        let b = p.add_weight("B", Shape::new(vec![8, 3]), DType::F32);
        let c = builders::matmul(&mut p, "mm", a, b);
        p.mark_output(c);
        let cp = compile_program(&p);
        let te = &cp.tes()[0];
        assert_eq!(te.num_affine_accesses(), 2);
        assert_eq!(te.num_generic_accesses(), 0);
        let te = &te.pieces[0];
        // A[i, k]: strides (8, 1), so flat = 8*v0 + v2.
        assert_eq!(te.affine[0].base, 0);
        assert_eq!(te.affine[0].coeffs, vec![8, 0, 1]);
        // B[k, j]: strides (3, 1), so flat = 3*v2 + v1.
        assert_eq!(te.affine[1].coeffs, vec![0, 1, 3]);
    }

    #[test]
    fn reshape_access_falls_back_to_generic() {
        let mut p = TeProgram::new();
        let a = p.add_input("A", Shape::new(vec![4, 6]), DType::F32);
        let r = builders::reshape(&mut p, "r", a, Shape::new(vec![3, 8]));
        p.mark_output(r);
        let cp = compile_program(&p);
        let te = &cp.tes()[0];
        assert_eq!(te.num_affine_accesses(), 0);
        assert_eq!(te.num_generic_accesses(), 1, "div/mod must not be affine");
    }

    #[test]
    fn guarded_oob_access_falls_back_to_generic() {
        // padded read: in bounds only on the taken branch. The guard reads
        // two variables, so it cuts no axis and stays a runtime branch.
        let mut p = TeProgram::new();
        let a = p.add_input("A", Shape::new(vec![4]), DType::F32);
        let sum = IndexExpr::var(0).add(IndexExpr::var(1));
        let t = p.add_te(
            "padded",
            Shape::new(vec![4, 2]),
            DType::F32,
            vec![a],
            vec![],
            None,
            ScalarExpr::select(
                Cond::cmp(CmpOp::Lt, sum.clone(), IndexExpr::constant(4)),
                ScalarExpr::input(0, vec![sum]),
                ScalarExpr::Const(0.0),
            ),
        );
        p.mark_output(t);
        let cp = compile_program(&p);
        let te = &cp.tes()[0];
        assert_eq!(te.pieces.len(), 1);
        assert_eq!(te.num_affine_accesses(), 0);
        assert_eq!(te.num_generic_accesses(), 1);
        // Select lowers to a conditional jump over the untaken branch.
        let code = &te.pieces[0].code;
        assert!(code.iter().any(|i| matches!(i, Instr::JumpIfNot { .. })));
        assert!(code.iter().any(|i| matches!(i, Instr::Jump { .. })));
    }

    /// Evaluates `p` with the interpreter and with the compiled program on
    /// 1- and 3-stream runtimes, tier on and off: results bit-identical, or
    /// the identical error.
    fn assert_matches_interpreter(p: &TeProgram, seed: u64) {
        let bindings = random_bindings(p, seed);
        let want = eval_program(p, &bindings);
        let cp = compile_program(p);
        for threads in [1, 3] {
            for kernel_tier in [true, false] {
                let rt = Runtime::with_options(RuntimeOptions {
                    threads: Some(threads),
                    max_parallelism: Some(threads),
                    kernel_tier: Some(kernel_tier),
                    ..RuntimeOptions::default()
                });
                let got = rt.eval_keeping_intermediates(&cp, &bindings);
                match (&want, got) {
                    (Ok(want), Ok(got)) => {
                        for (id, w) in want {
                            for (a, b) in w.data().iter().zip(got[id].data()) {
                                assert_eq!(a.to_bits(), b.to_bits(), "{id} diverged");
                            }
                        }
                    }
                    (Err(we), Err(ge)) => assert_eq!(*we, ge),
                    (want, got) => panic!("interpreter {want:?} vs compiled {got:?}"),
                }
            }
        }
    }

    fn lt(var: usize, cut: i64) -> Cond {
        Cond::cmp(CmpOp::Lt, IndexExpr::var(var), IndexExpr::constant(cut))
    }

    #[test]
    fn single_axis_guard_splits_into_pieces() {
        // The same padded read with a guard on v0 alone: rows [0, 4) read
        // A, rows [4, 8) are the constant, and neither piece branches.
        let mut p = TeProgram::new();
        let a = p.add_input("A", Shape::new(vec![4]), DType::F32);
        let t = p.add_te(
            "padded",
            Shape::new(vec![8]),
            DType::F32,
            vec![a],
            vec![],
            None,
            ScalarExpr::select(
                lt(0, 4),
                ScalarExpr::input(0, vec![IndexExpr::var(0)]),
                ScalarExpr::Const(0.0),
            ),
        );
        p.mark_output(t);
        let cp = compile_program(&p);
        let te = &cp.tes()[0];
        assert_eq!(te.split_axis, 0);
        let bounds: Vec<(i64, i64)> = te
            .pieces
            .iter()
            .map(|p| (p.lo, p.out_shape.dim(0)))
            .collect();
        assert_eq!(bounds, vec![(0, 4), (4, 4)]);
        assert_eq!(
            (te.num_affine_accesses(), te.num_generic_accesses()),
            (1, 0)
        );
        assert!(matches!(te.pieces[0].kind, BodyKind::AffineLoad { .. }));
        assert!(matches!(
            te.pieces[1].code.as_slice(),
            [Instr::Const { .. }]
        ));
        assert_matches_interpreter(&p, 3);
    }

    #[test]
    fn guards_on_axis_one_split_axis_one() {
        // Batching shifts horizontal fusion's `v0 < cut` to `v1 < cut`:
        // the pieces tile axis 1, so runs alternate between them once per
        // batch index, and a 3-stream pool cuts chunks inside the runs.
        let mut p = TeProgram::new();
        let a = p.add_input("A", Shape::new(vec![3, 17, 70]), DType::F32);
        let b = p.add_input("B", Shape::new(vec![3, 23, 70]), DType::F32);
        let (v0, v1, v2) = (IndexExpr::var(0), IndexExpr::var(1), IndexExpr::var(2));
        let t = p.add_te(
            "hfuse(a+b)",
            Shape::new(vec![3, 40, 70]),
            DType::F32,
            vec![a, b],
            vec![],
            None,
            ScalarExpr::select(
                lt(1, 17),
                ScalarExpr::input(0, vec![v0.clone(), v1.clone(), v2.clone()]),
                ScalarExpr::unary(
                    UnaryOp::Exp,
                    ScalarExpr::input(1, vec![v0, v1.sub(IndexExpr::constant(17)), v2]),
                ),
            ),
        );
        p.mark_output(t);
        let cp = compile_program(&p);
        let te = &cp.tes()[0];
        assert_eq!(te.split_axis, 1);
        assert_eq!(te.pieces.len(), 2);
        assert_eq!(te.piece_kernels(), vec!["copy_rows", "ew_tile"]);
        assert_eq!(te.kernel(), "copy_rows");
        assert_eq!(te.num_generic_accesses(), 0);
        assert_matches_interpreter(&p, 9);
    }

    #[test]
    fn guards_on_reduction_variables_stay_branches_inside_pieces() {
        // The outer guard cuts v0; the inner one reads the reduction
        // variable v1 in [0, 4), so no piece may decide it.
        let mut p = TeProgram::new();
        let a = p.add_input("A", Shape::new(vec![8]), DType::F32);
        let b = p.add_input("B", Shape::new(vec![4]), DType::F32);
        let t = p.add_te(
            "guarded_sum",
            Shape::new(vec![8]),
            DType::F32,
            vec![a, b],
            vec![4],
            Some(ReduceOp::Sum),
            ScalarExpr::select(
                lt(0, 3),
                ScalarExpr::select(
                    lt(1, 1),
                    ScalarExpr::input(0, vec![IndexExpr::var(0)]),
                    ScalarExpr::input(1, vec![IndexExpr::var(1)]),
                ),
                ScalarExpr::Const(2.0),
            ),
        );
        p.mark_output(t);
        let cp = compile_program(&p);
        let te = &cp.tes()[0];
        assert_eq!(te.pieces.len(), 2);
        assert!(te.pieces[0]
            .code
            .iter()
            .any(|i| matches!(i, Instr::JumpIfNot { .. })));
        assert_matches_interpreter(&p, 5);
    }

    #[test]
    fn alternating_guard_is_not_split() {
        // `v0 mod 2 == 0` flips at every row: 8 runs for one guard is not
        // a monotone cut, so the TE compiles whole, as a runtime branch.
        let mut p = TeProgram::new();
        let a = p.add_input("A", Shape::new(vec![4]), DType::F32);
        let half = IndexExpr::var(0).floor_div(2);
        let t = p.add_te(
            "interleave",
            Shape::new(vec![8]),
            DType::F32,
            vec![a],
            vec![],
            None,
            ScalarExpr::select(
                Cond::cmp(
                    CmpOp::Eq,
                    IndexExpr::var(0).modulo(2),
                    IndexExpr::constant(0),
                ),
                ScalarExpr::input(0, vec![half.clone()]),
                ScalarExpr::unary(UnaryOp::Neg, ScalarExpr::input(0, vec![half])),
            ),
        );
        p.mark_output(t);
        let cp = compile_program(&p);
        let te = &cp.tes()[0];
        assert_eq!(te.pieces.len(), 1);
        assert!(te.pieces[0]
            .code
            .iter()
            .any(|i| matches!(i, Instr::JumpIfNot { .. })));
        assert_matches_interpreter(&p, 4);
    }

    #[test]
    fn failing_taken_branch_in_a_piece_reports_the_interpreters_error() {
        // Rows [0, 4) read A[v0 + 1]: row 3 reads A[4], out of bounds on
        // the taken branch. Rows [4, 8) are fine; the error must still be
        // the first failing element's, with the unshifted index.
        let mut p = TeProgram::new();
        let a = p.add_input("A", Shape::new(vec![4]), DType::F32);
        let t = p.add_te(
            "shifted",
            Shape::new(vec![8]),
            DType::F32,
            vec![a],
            vec![],
            None,
            ScalarExpr::select(
                lt(0, 4),
                ScalarExpr::input(0, vec![IndexExpr::var(0).add(IndexExpr::constant(1))]),
                ScalarExpr::input(0, vec![IndexExpr::var(0).sub(IndexExpr::constant(4))]),
            ),
        );
        p.mark_output(t);
        let cp = compile_program(&p);
        assert_eq!(cp.tes()[0].pieces.len(), 2);
        assert_eq!(cp.tes()[0].num_generic_accesses(), 1);
        let bindings = random_bindings(&p, 1);
        assert!(eval_program(&p, &bindings).is_err());
        assert_matches_interpreter(&p, 1);
    }

    #[test]
    fn strip_mined_reduction_selects_two_axis_row_dot() {
        // The post-fusion attention projection: out[i, j] = Σ_r
        // X[r / 16, i, r mod 16] · W[r, j] with r < 64. Splitting
        // r = 16·rh + rl makes both accesses affine, and the ascending
        // (rh, rl) odometer keeps the combine order.
        let mut p = TeProgram::new();
        let x = p.add_input("X", Shape::new(vec![4, 24, 16]), DType::F32);
        let w = p.add_weight("W", Shape::new(vec![64, 40]), DType::F32);
        let r = IndexExpr::var(2);
        let t = p.add_te(
            "proj",
            Shape::new(vec![24, 40]),
            DType::F32,
            vec![x, w],
            vec![64],
            Some(ReduceOp::Sum),
            ScalarExpr::binary(
                BinaryOp::Mul,
                ScalarExpr::input(
                    0,
                    vec![
                        r.clone().floor_div(16),
                        IndexExpr::var(0),
                        r.clone().modulo(16),
                    ],
                ),
                ScalarExpr::input(1, vec![r, IndexExpr::var(1)]),
            ),
        );
        p.mark_output(t);
        let cp = compile_program(&p);
        let piece = &cp.tes()[0].pieces[0];
        assert_eq!(piece.reduce, vec![4, 16]);
        assert!(piece.generic.is_empty());
        assert!(matches!(piece.tier, KernelSel::RowDot { .. }));
        assert_matches_interpreter(&p, 12);
    }

    #[test]
    fn body_kinds_are_classified() {
        let mut p = TeProgram::new();
        let a = p.add_input("A", Shape::new(vec![4, 8]), DType::F32);
        let b = p.add_weight("B", Shape::new(vec![8, 3]), DType::F32);
        let mm = builders::matmul(&mut p, "mm", a, b);
        let t = builders::transpose(&mut p, "t", mm, &[1, 0]);
        let r = builders::relu(&mut p, "act", t);
        p.mark_output(r);
        let cp = compile_program(&p);
        assert!(matches!(
            cp.tes()[0].pieces[0].kind,
            BodyKind::MulAffine { a: 0, b: 1 }
        ));
        assert!(matches!(
            cp.tes()[1].pieces[0].kind,
            BodyKind::AffineLoad { access: 0 }
        ));
        assert!(matches!(cp.tes()[2].pieces[0].kind, BodyKind::Generic));
    }

    #[test]
    fn repeated_accesses_are_interned_once() {
        // x * x: the same access appears twice in the body but once in the
        // access table.
        let mut p = TeProgram::new();
        let a = p.add_input("A", Shape::new(vec![4]), DType::F32);
        let x = ScalarExpr::input(0, vec![IndexExpr::var(0)]);
        let t = p.add_te(
            "sq",
            Shape::new(vec![4]),
            DType::F32,
            vec![a],
            vec![],
            None,
            ScalarExpr::binary(BinaryOp::Mul, x.clone(), x),
        );
        p.mark_output(t);
        let cp = compile_program(&p);
        assert_eq!(cp.tes()[0].num_affine_accesses(), 1);
    }
}
