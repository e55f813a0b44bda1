//! Execution of compiled TE programs.
//!
//! The VM runs each TE's bytecode once per point of the output iteration
//! space. Two things make it fast relative to the naive interpreter while
//! keeping results bit-identical:
//!
//! - **Strength-reduced indexing.** Every affine operand access carries a
//!   flat offset that the odometer loops update incrementally (one add per
//!   loop step, one subtract per wrap) instead of re-evaluating index
//!   expressions per element. The arithmetic is exact integer math, so the
//!   element loaded is exactly the one the interpreter loads.
//! - **Specialized body shapes.** Bodies the compiler recognizes (a lone
//!   affine load, or the `a * b` inner-product body of matmul and unpadded
//!   conv) skip instruction dispatch entirely and run as tight loops over
//!   local offset accumulators — the same loads and float ops in the same
//!   order, so no result bit changes.
//! - **Wavefront threading.** Execution is handled by
//!   [`crate::runtime`]: independent TEs (same dependency level) run
//!   concurrently, and each TE's flat output range is split into
//!   contiguous chunks submitted as stealable tasks to a persistent
//!   work-stealing pool, each task writing a disjoint `&mut [f32]` slice.
//!   Elements are computed independently in both evaluators, so the split
//!   cannot change any result bit. The thread count comes from
//!   `SOUFFLE_EVAL_THREADS` when set, otherwise from
//!   [`std::thread::available_parallelism`]; tiny iteration spaces run
//!   serially to avoid dispatch overhead.
//!
//! Floating-point evaluation order inside one element — including the
//! reduction combine order — is byte-for-byte the interpreter's, which is
//! what the `evaluator_equivalence` differential suite locks down.

use crate::compile::{BodyKind, CompiledProgram, CompiledTe, Instr, Piece};
use crate::interp::EvalError;
use crate::kernels::{self, ExecOpts, KernelSel};
use crate::program::TensorId;
use souffle_tensor::Tensor;
use std::collections::HashMap;

/// Environment variable overriding the evaluation thread count.
pub const THREADS_ENV: &str = "SOUFFLE_EVAL_THREADS";

/// Below this many body evaluations a TE (or chunk) is run serially:
/// dispatch cost would dominate.
pub(crate) const SERIAL_THRESHOLD: usize = 8192;

impl CompiledProgram {
    /// Evaluates the compiled program, mirroring
    /// [`crate::interp::eval_program`]: `bindings` must cover every free
    /// tensor, and the result maps each TE-produced tensor to its value
    /// (with the caller's non-output bindings dropped).
    ///
    /// # Errors
    ///
    /// Returns the same [`EvalError`]s as the interpreter: missing or
    /// mis-shaped bindings, and out-of-bounds reads on taken branches.
    ///
    /// Execution goes through the process-global wavefront
    /// [`crate::runtime::Runtime`] (persistent work-stealing pool); use an
    /// explicitly configured [`crate::runtime::Runtime`] for control over
    /// pool size and arena behavior plus an outputs-only result.
    pub fn eval(
        &self,
        bindings: &HashMap<TensorId, Tensor>,
    ) -> Result<HashMap<TensorId, Tensor>, EvalError> {
        crate::runtime::global().eval_keeping_intermediates(self, bindings)
    }
}

/// The explicit `SOUFFLE_EVAL_THREADS` override, if set and parseable
/// (clamped to at least 1). An explicit override is honored verbatim —
/// it is never capped at the detected machine parallelism.
pub(crate) fn env_threads() -> Option<usize> {
    std::env::var(THREADS_ENV)
        .ok()?
        .trim()
        .parse::<usize>()
        .ok()
        .map(|n| n.max(1))
}

/// The machine's available parallelism (1 when it cannot be queried).
pub(crate) fn detected_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Resolves the thread count: `SOUFFLE_EVAL_THREADS` if set (clamped to at
/// least 1), otherwise the machine's available parallelism.
pub fn thread_count() -> usize {
    env_threads().unwrap_or_else(detected_parallelism)
}

/// Evaluates output elements `start .. start + out.len()` (flat row-major
/// order) into `out`.
///
/// A TE split into pieces is walked in flat order as *runs* — maximal
/// stretches of the range inside one piece — each handed to its piece at
/// the matching piece-local position. Elements therefore run in the same
/// order as unsplit, so the first failing element (and the error) is the
/// interpreter's.
pub(crate) fn run_chunk(
    te: &CompiledTe,
    start: usize,
    out: &mut [f32],
    operands: &[&[f32]],
    exec: ExecOpts,
) -> Result<(), EvalError> {
    if let [piece] = te.pieces.as_slice() {
        return run_piece(&te.name, piece, start, out, operands, exec);
    }
    let dims = te.out_shape.dims();
    let axis = te.split_axis;
    let inner = dims[axis + 1..].iter().product::<i64>() as usize;
    let block = dims[axis] as usize * inner; // one step of the axes outside `axis`
    let mut done = 0;
    while done < out.len() {
        let flat = start + done;
        let (outer, pos) = (flat / block, flat % block);
        let at = (pos / inner) as i64;
        let piece = &te.pieces[te.pieces.partition_point(|p| p.lo <= at) - 1];
        let width = piece.out_shape.dim(axis);
        let run_end = outer * block + (piece.lo + width) as usize * inner;
        let len = (run_end - flat).min(out.len() - done);
        let local = (outer * width as usize + (at - piece.lo) as usize) * inner + pos % inner;
        run_piece(
            &te.name,
            piece,
            local,
            &mut out[done..done + len],
            operands,
            exec,
        )?;
        done += len;
    }
    Ok(())
}

/// Evaluates elements `start .. start + out.len()` of one piece's box
/// (TE `name`'s, for errors) into `out`.
///
/// When `exec.kernels` is set and the compiler selected a specialized
/// kernel for this piece ([`crate::kernels`]), the monomorphized native
/// loop runs instead of the bytecode below; selection excludes every body
/// that can fail, so the kernel path is infallible and the error contract
/// is carried entirely by the bytecode path.
fn run_piece(
    name: &str,
    piece: &Piece,
    start: usize,
    out: &mut [f32],
    operands: &[&[f32]],
    exec: ExecOpts,
) -> Result<(), EvalError> {
    if exec.kernels && !matches!(piece.tier, KernelSel::Fallback(_)) {
        kernels::run(piece, start, out, operands, exec.fast_math);
        return Ok(());
    }
    let n_iter = piece.out_shape.rank();
    let dims = piece.out_shape.dims();
    let mut vars = vec![0i64; piece.n_vars];
    let mut rem = start as i64;
    for axis in (0..n_iter).rev() {
        vars[axis] = rem % dims[axis];
        rem /= dims[axis];
    }
    let mut offsets: Vec<i64> = piece
        .affine
        .iter()
        .map(|a| a.base + a.coeffs.iter().zip(&vars).map(|(c, v)| c * v).sum::<i64>())
        .collect();
    let mut regs = vec![0.0f32; piece.n_regs];
    let mut fold_eval = FoldEval::new(piece.folds.len());
    for slot in out.iter_mut() {
        let value = if piece.reduce.is_empty() {
            match piece.kind {
                // Specialized bodies do the exact loads and float ops the
                // bytecode would, in the same order — only the dispatch is
                // gone — so every result bit is unchanged.
                BodyKind::AffineLoad { access } => {
                    operands[piece.affine[access].operand][offsets[access] as usize]
                }
                BodyKind::MulAffine { a, b } => {
                    operands[piece.affine[a].operand][offsets[a] as usize]
                        * operands[piece.affine[b].operand][offsets[b] as usize]
                }
                BodyKind::Generic => run_body(
                    name,
                    piece,
                    &mut regs,
                    &mut vars,
                    &mut offsets,
                    operands,
                    &mut fold_eval,
                )?,
            }
        } else {
            let op = piece.reduce_op.expect("validated reduction");
            match (piece.reduce.as_slice(), &piece.kind) {
                // Single-axis inner product (matmul / unpadded conv): a
                // tight multiply-accumulate over local offset copies. The
                // loop visits the same elements in the same order as the
                // odometer below, and `op.init()` + `combine` give the
                // identical float sequence.
                (&[ext], &BodyKind::MulAffine { a, b }) => {
                    let (aa, ab) = (&piece.affine[a], &piece.affine[b]);
                    let (da, db) = (operands[aa.operand], operands[ab.operand]);
                    let (mut oa, mut ob) = (offsets[a], offsets[b]);
                    let (ca, cb) = (aa.coeffs[n_iter], ab.coeffs[n_iter]);
                    match op {
                        crate::te::ReduceOp::Sum => {
                            let mut acc = op.init();
                            for _ in 0..ext {
                                acc += da[oa as usize] * db[ob as usize];
                                oa += ca;
                                ob += cb;
                            }
                            acc
                        }
                        _ => {
                            let mut acc = op.init();
                            for _ in 0..ext {
                                acc = op.combine(acc, da[oa as usize] * db[ob as usize]);
                                oa += ca;
                                ob += cb;
                            }
                            acc
                        }
                    }
                }
                // Single-axis single-load reduction (sum/max/min over an
                // axis, e.g. softmax's row max and row sum).
                (&[ext], &BodyKind::AffineLoad { access }) => {
                    let aa = &piece.affine[access];
                    let da = operands[aa.operand];
                    let mut oa = offsets[access];
                    let ca = aa.coeffs[n_iter];
                    let mut acc = op.init();
                    for _ in 0..ext {
                        acc = op.combine(acc, da[oa as usize]);
                        oa += ca;
                    }
                    acc
                }
                _ => {
                    let mut acc = op.init();
                    'reduce: loop {
                        let v = match piece.kind {
                            BodyKind::AffineLoad { access } => {
                                operands[piece.affine[access].operand][offsets[access] as usize]
                            }
                            BodyKind::MulAffine { a, b } => {
                                operands[piece.affine[a].operand][offsets[a] as usize]
                                    * operands[piece.affine[b].operand][offsets[b] as usize]
                            }
                            BodyKind::Generic => run_body(
                                name,
                                piece,
                                &mut regs,
                                &mut vars,
                                &mut offsets,
                                operands,
                                &mut fold_eval,
                            )?,
                        };
                        acc = op.combine(acc, v);
                        let mut axis = piece.reduce.len();
                        loop {
                            if axis == 0 {
                                break 'reduce; // reduction vars back at 0, offsets restored
                            }
                            axis -= 1;
                            let vi = n_iter + axis;
                            vars[vi] += 1;
                            if !piece.folds.is_empty() {
                                fold_eval.invalidate(piece, vi);
                            }
                            if vars[vi] < piece.reduce[axis] {
                                for (off, a) in offsets.iter_mut().zip(&piece.affine) {
                                    *off += a.coeffs[vi];
                                }
                                break;
                            }
                            vars[vi] = 0;
                            for (off, a) in offsets.iter_mut().zip(&piece.affine) {
                                *off -= a.coeffs[vi] * (piece.reduce[axis] - 1);
                            }
                        }
                    }
                    acc
                }
            }
        };
        *slot = value;
        // Advance the iteration odometer, keeping affine offsets in step.
        let mut axis = n_iter;
        loop {
            if axis == 0 {
                break; // iteration space exhausted (last element of last chunk)
            }
            axis -= 1;
            vars[axis] += 1;
            if !piece.folds.is_empty() {
                fold_eval.invalidate(piece, axis);
            }
            if vars[axis] < dims[axis] {
                for (off, a) in offsets.iter_mut().zip(&piece.affine) {
                    *off += a.coeffs[axis];
                }
                break;
            }
            vars[axis] = 0;
            for (off, a) in offsets.iter_mut().zip(&piece.affine) {
                *off -= a.coeffs[axis] * (dims[axis] - 1);
            }
        }
    }
    Ok(())
}

/// Per-fold value cache for [`Instr::Fold`] execution on the bytecode
/// path — the path every fold takes with the kernel tier off, and folds
/// the `ew_tile` kernel cannot hoist (ones that read the innermost axis,
/// nested ones, or ones with a generic access or a `Select`) take always.
/// A fold's combined value only depends on its `deps` variables, so the
/// cached value stays valid while the odometer walks variables outside
/// that set — the row-invariant folds left by reduction fusion (softmax
/// denominator, layernorm mean/var) are recomputed once per slice instead
/// of once per element. A cache hit returns the exact bits recomputation
/// would produce (same code, same variable values), so caching cannot
/// change any result bit.
pub(crate) struct FoldEval {
    vals: Vec<f32>,
    valid: Vec<bool>,
}

impl FoldEval {
    pub(crate) fn new(n: usize) -> Self {
        FoldEval {
            vals: vec![0.0; n],
            valid: vec![false; n],
        }
    }

    /// Drops cached values of every fold whose dependency set contains
    /// `var` (called when the odometer or an enclosing fold steps it).
    #[inline]
    pub(crate) fn invalidate(&mut self, piece: &Piece, var: usize) {
        for (i, f) in piece.folds.iter().enumerate() {
            if f.deps.contains(&var) {
                self.valid[i] = false;
            }
        }
    }
}

/// One execution of the body bytecode at the current loop point. Returns
/// the value of the result register. `vars`/`offsets` are mutated only
/// transiently by inline fold loops and are restored before returning.
#[inline]
fn run_body(
    name: &str,
    piece: &Piece,
    regs: &mut [f32],
    vars: &mut [i64],
    offsets: &mut [i64],
    operands: &[&[f32]],
    fold_eval: &mut FoldEval,
) -> Result<f32, EvalError> {
    run_code(
        name,
        piece,
        &piece.code,
        piece.result,
        regs,
        vars,
        offsets,
        operands,
        fold_eval,
    )
}

/// Executes one code sequence (the piece body or a fold body) and returns
/// the value of `result`.
#[allow(clippy::too_many_arguments)]
fn run_code(
    name: &str,
    piece: &Piece,
    code: &[Instr],
    result: u32,
    regs: &mut [f32],
    vars: &mut [i64],
    offsets: &mut [i64],
    operands: &[&[f32]],
    fold_eval: &mut FoldEval,
) -> Result<f32, EvalError> {
    let mut pc = 0usize;
    while pc < code.len() {
        match &code[pc] {
            Instr::Const { dst, value } => {
                regs[*dst as usize] = *value;
                pc += 1;
            }
            Instr::LoadAffine { dst, access } => {
                let a = &piece.affine[*access as usize];
                regs[*dst as usize] = operands[a.operand][offsets[*access as usize] as usize];
                pc += 1;
            }
            Instr::LoadGeneric { dst, access } => {
                let g = &piece.generic[*access as usize];
                if g.indices.len() != g.dims.len() {
                    return Err(oob(name, g, vars));
                }
                let mut flat = 0i64;
                for (idx, &d) in g.indices.iter().zip(&g.dims) {
                    let i = idx.eval(vars);
                    if !(0..d).contains(&i) {
                        return Err(oob(name, g, vars));
                    }
                    flat = flat * d + i;
                }
                regs[*dst as usize] = operands[g.operand][flat as usize];
                pc += 1;
            }
            Instr::Index { dst, expr } => {
                regs[*dst as usize] = piece.index_exprs[*expr as usize].eval(vars) as f32;
                pc += 1;
            }
            Instr::Unary { dst, op, src } => {
                regs[*dst as usize] = op.apply(regs[*src as usize]);
                pc += 1;
            }
            Instr::Binary { dst, op, lhs, rhs } => {
                regs[*dst as usize] = op.apply(regs[*lhs as usize], regs[*rhs as usize]);
                pc += 1;
            }
            Instr::JumpIfNot { cond, target } => {
                if piece.conds[*cond as usize].eval(vars) {
                    pc += 1;
                } else {
                    pc = *target as usize;
                }
            }
            Instr::Jump { target } => pc = *target as usize,
            Instr::Fold { dst, fold } => {
                let fi = *fold as usize;
                let value = if fold_eval.valid[fi] {
                    fold_eval.vals[fi]
                } else {
                    let f = &piece.folds[fi];
                    let mut acc = f.op.init();
                    for _ in 0..f.extent {
                        // Nested folds that read this binder must be
                        // recomputed each trip (and stale values from a
                        // previous evaluation discarded on the first).
                        fold_eval.invalidate(piece, f.var);
                        let v = run_code(
                            name, piece, &f.code, f.result, regs, vars, offsets, operands,
                            fold_eval,
                        )?;
                        acc = f.op.combine(acc, v);
                        vars[f.var] += 1;
                        for (off, a) in offsets.iter_mut().zip(&piece.affine) {
                            *off += a.coeffs[f.var];
                        }
                    }
                    // Restore the binder and offsets to their pre-loop state.
                    vars[f.var] = 0;
                    for (off, a) in offsets.iter_mut().zip(&piece.affine) {
                        *off -= a.coeffs[f.var] * f.extent;
                    }
                    fold_eval.invalidate(piece, f.var);
                    fold_eval.vals[fi] = acc;
                    fold_eval.valid[fi] = true;
                    acc
                };
                regs[*dst as usize] = value;
                pc += 1;
            }
        }
    }
    Ok(regs[result as usize])
}

/// Builds the structured out-of-bounds error for a failing generic access
/// by re-deriving the full evaluated index vector, then delegating to the
/// shared [`EvalError::oob_access`] constructor — the single construction
/// site both evaluator tiers use, so their errors cannot drift.
fn oob(name: &str, g: &crate::compile::GenericAccess, vars: &[i64]) -> EvalError {
    EvalError::oob_access(
        name,
        g.operand,
        g.indices.iter().map(|e| e.eval(vars)).collect(),
        &g.dims,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders;
    use crate::compile::compile_program;
    use crate::interp::{eval_program, random_bindings};
    use crate::program::TeProgram;
    use souffle_tensor::{DType, Shape};

    fn assert_bit_equal(p: &TeProgram, seed: u64) {
        let bindings = random_bindings(p, seed);
        let want = eval_program(p, &bindings).unwrap();
        let got = compile_program(p).eval(&bindings).unwrap();
        assert_eq!(want.len(), got.len());
        for (id, w) in &want {
            let g = &got[id];
            assert_eq!(w.shape(), g.shape());
            for (a, b) in w.data().iter().zip(g.data()) {
                assert_eq!(a.to_bits(), b.to_bits(), "{id} diverged");
            }
        }
    }

    #[test]
    fn matmul_matches_interpreter() {
        let mut p = TeProgram::new();
        let a = p.add_input("A", Shape::new(vec![5, 7]), DType::F32);
        let b = p.add_weight("B", Shape::new(vec![7, 3]), DType::F32);
        let c = builders::matmul(&mut p, "mm", a, b);
        p.mark_output(c);
        assert_bit_equal(&p, 11);
    }

    #[test]
    fn padded_conv_matches_interpreter() {
        // conv2d with padding exercises the guarded (generic) load path:
        // the untaken Select branch reads out of bounds and must be skipped.
        let mut p = TeProgram::new();
        let x = p.add_input("X", Shape::new(vec![1, 2, 6, 6]), DType::F32);
        let w = p.add_weight("W", Shape::new(vec![3, 2, 3, 3]), DType::F32);
        let y = builders::conv2d(&mut p, "conv", x, w, 1, 1);
        p.mark_output(y);
        p.validate().unwrap();
        assert_bit_equal(&p, 5);
    }

    #[test]
    fn reshape_matches_interpreter() {
        // div/mod access: exercises the non-affine fallback.
        let mut p = TeProgram::new();
        let a = p.add_input("A", Shape::new(vec![6, 4]), DType::F32);
        let r = builders::reshape(&mut p, "r", a, Shape::new(vec![8, 3]));
        p.mark_output(r);
        assert_bit_equal(&p, 3);
    }

    #[test]
    fn scalar_output_matches_interpreter() {
        use crate::expr::ScalarExpr;
        use crate::te::ReduceOp;
        use souffle_affine::IndexExpr;
        let mut p = TeProgram::new();
        let a = p.add_input("A", Shape::new(vec![4, 5]), DType::F32);
        let s = p.add_te(
            "sum_all",
            Shape::scalar(),
            DType::F32,
            vec![a],
            vec![4, 5],
            Some(ReduceOp::Sum),
            ScalarExpr::input(0, vec![IndexExpr::var(0), IndexExpr::var(1)]),
        );
        p.mark_output(s);
        p.validate().unwrap();
        assert_bit_equal(&p, 17);
    }

    #[test]
    fn large_space_threads_match_serial_result() {
        // Big enough to cross SERIAL_THRESHOLD so the scoped-thread path
        // actually runs (under the default thread count).
        let mut p = TeProgram::new();
        let a = p.add_input("A", Shape::new(vec![128, 96]), DType::F32);
        let b = p.add_weight("B", Shape::new(vec![96, 32]), DType::F32);
        let c = builders::matmul(&mut p, "mm", a, b);
        p.mark_output(c);
        assert_bit_equal(&p, 23);
    }

    #[test]
    fn unbound_and_mismatch_errors_match_interpreter() {
        let mut p = TeProgram::new();
        let a = p.add_input("A", Shape::new(vec![2]), DType::F32);
        let e = builders::exp(&mut p, "e", a);
        p.mark_output(e);
        let cp = compile_program(&p);
        assert!(matches!(
            cp.eval(&HashMap::new()).unwrap_err(),
            EvalError::Unbound { .. }
        ));
        let mut b = HashMap::new();
        b.insert(a, Tensor::zeros(Shape::new(vec![3])));
        assert!(matches!(
            cp.eval(&b).unwrap_err(),
            EvalError::ShapeMismatch { .. }
        ));
    }

    #[test]
    fn oob_error_matches_interpreter() {
        use crate::expr::ScalarExpr;
        use souffle_affine::IndexExpr;
        let mut p = TeProgram::new();
        let a = p.add_input("A", Shape::new(vec![4]), DType::F32);
        let t = p.add_te(
            "bad",
            Shape::new(vec![8]),
            DType::F32,
            vec![a],
            vec![],
            None,
            ScalarExpr::input(0, vec![IndexExpr::var(0)]),
        );
        p.mark_output(t);
        let bindings = random_bindings(&p, 1);
        let want = eval_program(&p, &bindings).unwrap_err();
        let got = compile_program(&p).eval(&bindings).unwrap_err();
        assert_eq!(want, got);
    }
}
