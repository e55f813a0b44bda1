//! Reduction fusion: data-movement-aware fusion *through* reductions.
//!
//! Vertical transformation (§6.2) stops at one-relies-on-many edges: a
//! reduction's output is a genuinely smaller tensor, so classic inlining
//! would duplicate a whole reduction per consumer element. This pass
//! crosses that frontier for the common broadcast-consumption pattern —
//! a softmax denominator, a layernorm mean/variance — where an
//! element-wise consumer re-reads the reduced value once per element of
//! the reduced slice:
//!
//! ```text
//! den[i]    = sum_k exp_t[i, k]          // reduction TE
//! out[i, j] = exp_t[i, j] / den[i]       // broadcast consumer
//! ```
//!
//! becomes a single TE whose body carries the reduction *inline* as a
//! scoped fold (`ScalarExpr::Reduce`):
//!
//! ```text
//! out[i, j] = exp_t[i, j] / fold_sum(k < n, exp_t[i, k])
//! ```
//!
//! The `den` tensor never exists: no store of the reduction, no re-load
//! by the consumer. The price is recomputation — the fold re-reads the
//! reduction's operands from the consumer's loop — which the evaluator
//! amortizes: the `ew_tile` kernel computes a row-invariant fold once per
//! row segment and broadcasts it over the row, and the bytecode path
//! (kernel tier off, or a fold the kernel cannot hoist) caches a fold's
//! value while the variables it depends on are unchanged. Either way a
//! slice-invariant fold runs once per slice, exactly the
//! tiling-with-recomputation schedule of hand-written fused softmax
//! kernels.
//!
//! # Candidate shape
//!
//! A reduction is a candidate only when **every** reader is an
//! element-wise TE whose accesses to the reduction output do not mention
//! the reader's innermost iteration variable ("re-indexes only along the
//! reduced slice"). Two reasons, one per half of the rule:
//!
//! - *All* readers, because if any reader keeps the tensor materialized
//!   the store is paid anyway and fusion only adds recomputation.
//! - *Innermost-invariant* accesses, because that is where the reuse is:
//!   the fold's value is shared across the whole inner loop, so the
//!   cached fold recomputes once per slice. An access that varies along
//!   the innermost axis (a matmul output read element-wise) has no reuse
//!   to exploit — and keeping such reductions standalone preserves their
//!   specialized kernels (`row_dot`/`slice_dot`), which inline folds
//!   forgo.
//!
//! # Cost gate
//!
//! Every candidate is then priced with the bytes-moved model
//! ([`crate::traffic`]): the rewrite commits only when the modeled
//! traffic of the rewritten TEs drops below the original's. The classic
//! rejection is a reduction with several consumers over a wide slice:
//! each fused consumer re-reads the whole slice, and recomputation dwarfs
//! the store it saves.
//!
//! # Exactness
//!
//! Only single-axis reductions are fused, and a fold's combine order
//! (ascending binder) is identical to the standalone reduction
//! odometer's, so each fused output element sees exactly the float
//! operations of the unfused program in the same order — the rewrite is
//! bit-exact, and the pipeline oracle re-checks it per stage.

use crate::rewrite::{normalize_inputs, rebuild_program};
use crate::traffic::te_traffic;
use souffle_affine::IndexExpr;
use souffle_te::{Rewrite, RewriteLog, ScalarExpr, TeProgram, TensorExpr, TensorId, TensorKind};

/// Environment variable overriding the pipeline's reduction-fusion stage:
/// `on`/`1`/`true` forces it, `off`/`0`/`false` disables it. Unset (or
/// unparseable) means auto, which is on. An explicit
/// `SouffleOptions::reduction_fusion` beats the environment (mirroring the
/// kernel-tier knob), so CI can sweep the stage across whole differential
/// suites without touching call sites.
pub const REDUCTION_FUSION_ENV: &str = "SOUFFLE_REDUCTION_FUSION";

/// Counters for one reduction-fusion run, surfaced as `fusion.*` on the
/// trace spine and in `Souffle::report()`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FusionStats {
    /// Reductions whose whole reader set was eligible for inlining.
    pub candidates: usize,
    /// Candidates committed (the reduction TE disappeared).
    pub fused: usize,
    /// Candidates rejected because modeled bytes moved did not drop.
    pub rejected_by_cost: usize,
    /// Total modeled bytes saved by the committed fusions.
    pub bytes_saved: u64,
    /// TEs before the pass.
    pub tes_before: usize,
    /// TEs after the pass.
    pub tes_after: usize,
}

impl FusionStats {
    /// Folds another run's counters into this one.
    pub fn merge(&mut self, other: &FusionStats) {
        self.candidates += other.candidates;
        self.fused += other.fused;
        self.rejected_by_cost += other.rejected_by_cost;
        self.bytes_saved += other.bytes_saved;
    }
}

/// Fuses single-axis reductions into their broadcast consumers where the
/// bytes-moved model approves. Returns the rewritten program and the
/// fusion counters.
pub fn reduction_fuse_program(program: &TeProgram) -> (TeProgram, FusionStats) {
    let mut log = RewriteLog::new();
    reduction_fuse_program_logged(program, &mut log)
}

/// Like [`reduction_fuse_program`], additionally recording every committed
/// fold inlining in `log` for the translation-validation pass.
pub fn reduction_fuse_program_logged(
    program: &TeProgram,
    log: &mut RewriteLog,
) -> (TeProgram, FusionStats) {
    let mut tes: Vec<TensorExpr> = program.tes().to_vec();
    let mut stats = FusionStats {
        tes_before: tes.len(),
        ..FusionStats::default()
    };

    // Examine reductions in program order. Committed fusions remove the
    // reduction TE and rewrite its consumers in place; the reader set is
    // rebuilt per candidate (programs are small post-vertical).
    let mut ri = 0usize;
    while ri < tes.len() {
        if !is_fusable_reduction(program, &tes[ri]) {
            ri += 1;
            continue;
        }
        let red_out = tes[ri].output;
        let readers: Vec<usize> = tes
            .iter()
            .enumerate()
            .filter(|(i, te)| *i != ri && te.inputs.contains(&red_out))
            .map(|(i, _)| i)
            .collect();
        if readers.is_empty()
            || !readers
                .iter()
                .all(|&c| eligible_consumer(program, &tes[c], red_out))
        {
            ri += 1;
            continue;
        }
        stats.candidates += 1;

        // Rewrite each reader against the fold-inlined reduction body and
        // price the before/after traffic of the affected TEs.
        let reduction = tes[ri].clone();
        let mut before = te_traffic(program, &reduction);
        let mut after_total = 0u64;
        let mut rewritten: Vec<(usize, TensorExpr)> = Vec::with_capacity(readers.len());
        for &c in &readers {
            before.add(te_traffic(program, &tes[c]));
            let fused = inline_reduction(program, &reduction, &tes[c]);
            after_total += te_traffic(program, &fused).total();
            rewritten.push((c, fused));
        }
        if after_total >= before.total() {
            stats.rejected_by_cost += 1;
            ri += 1;
            continue;
        }
        stats.bytes_saved += before.total() - after_total;
        stats.fused += 1;
        for (c, fused) in rewritten {
            log.push(Rewrite::ReductionFused {
                reduction_output: red_out,
                consumer_output: fused.output,
                extent: reduction.reduce[0],
                op: reduction.reduce_op.expect("validated reduction"),
            });
            tes[c] = fused;
        }
        tes.remove(ri);
        // Do not advance: the TE now at `ri` has not been examined.
    }

    stats.tes_after = tes.len();
    (rebuild_program(program.tensors(), tes), stats)
}

/// Whether a TE is a reduction this pass can inline: single reduction
/// axis, an intermediate (non-output) result, and a fold-free body (a
/// body with folds would need capture-safe renaming on inline; such
/// bodies only arise from this pass, which never leaves a fusable
/// reduction behind them).
fn is_fusable_reduction(program: &TeProgram, te: &TensorExpr) -> bool {
    te.reduce.len() == 1
        && te.reduce_op.is_some()
        && !te.body.has_fold()
        && program.tensor(te.output).kind == TensorKind::Intermediate
}

/// Whether a reader TE may absorb the reduction as an inline fold:
/// element-wise, and every access to the reduction output is invariant
/// along the reader's innermost iteration variable (broadcast
/// consumption — see the module docs for why both halves matter).
fn eligible_consumer(program: &TeProgram, te: &TensorExpr, red_out: TensorId) -> bool {
    if !te.reduce.is_empty() {
        return false;
    }
    let rank = program.tensor(te.output).shape.rank();
    if rank == 0 {
        return false;
    }
    let innermost = rank - 1;
    let mut reads = false;
    for (slot, indices) in te.body.accesses() {
        if te.inputs.get(slot) != Some(&red_out) {
            continue;
        }
        reads = true;
        let mut mentions_innermost = false;
        for idx in indices {
            idx.for_each_var(&mut |v| {
                if v == innermost {
                    mentions_innermost = true;
                }
            });
        }
        if mentions_innermost {
            return false;
        }
    }
    reads
}

/// Builds the consumer with every read of the reduction's output replaced
/// by an inline fold of the reduction body.
fn inline_reduction(
    program: &TeProgram,
    reduction: &TensorExpr,
    consumer: &TensorExpr,
) -> TensorExpr {
    let mut out = consumer.clone();
    let slot = consumer
        .inputs
        .iter()
        .position(|&t| t == reduction.output)
        .expect("consumer reads the reduction");

    // The fold binder must clear the consumer's whole variable space:
    // its iteration variables (the consumer is element-wise, so that is
    // its output rank) and any binders from previously fused folds.
    let consumer_rank = program.tensor(consumer.output).shape.rank();
    let binder = consumer_rank.max(consumer.body.max_var().map_or(0, |m| m + 1));

    // Rename the reduction variable to the binder; iteration variables
    // stay 0..rank — inline_operands substitutes them with each access's
    // index expressions (which only mention consumer variables below the
    // binder, so no capture is possible).
    let r_rank = program.tensor(reduction.output).shape.rank();
    let mut rename: Vec<IndexExpr> = (0..r_rank).map(IndexExpr::var).collect();
    rename.push(IndexExpr::var(binder));
    let base = out.inputs.len();
    let renamed = reduction.body.substitute(&rename, &|o| o + base);
    let folded = ScalarExpr::fold(
        reduction.reduce_op.expect("validated reduction"),
        binder,
        reduction.reduce[0],
        renamed,
    );

    out.inputs.extend(reduction.inputs.iter().copied());
    out.body
        .inline_operands(&|o| (o == slot).then_some(&folded));
    normalize_inputs(&mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::program_traffic;
    use crate::vertical_fuse_program;
    use souffle_te::interp::eval_with_random_inputs;
    use souffle_te::{builders, ReduceOp};
    use souffle_tensor::{DType, Shape};

    fn assert_bit_identical(before: &TeProgram, after: &TeProgram, seed: u64) {
        before.validate().expect("before validates");
        after.validate().expect("after validates");
        let o1 = eval_with_random_inputs(before, seed).expect("before evals");
        let o2 = eval_with_random_inputs(after, seed).expect("after evals");
        assert_eq!(o1.len(), o2.len());
        for (id, t1) in &o1 {
            let t2 = &o2[id];
            for (x, y) in t1.data().iter().zip(t2.data()) {
                assert_eq!(x.to_bits(), y.to_bits(), "output {id}");
            }
        }
    }

    /// All fold binders in a body are distinct and above the free space.
    fn binders_are_disjoint(body: &ScalarExpr) -> bool {
        let folds = body.collect_folds();
        let free_max = body.max_free_var().map_or(0, |m| m + 1);
        let mut seen = std::collections::HashSet::new();
        folds
            .iter()
            .all(|&(var, _)| var >= free_max && seen.insert(var))
    }

    #[test]
    fn softmax_denominator_folds_into_div() {
        let mut p = TeProgram::new();
        let a = p.add_input("A", Shape::new(vec![16, 64]), DType::F32);
        let s = builders::softmax(&mut p, "sm", a);
        p.mark_output(s);
        let (v, _) = vertical_fuse_program(&p);
        let (q, stats) = reduction_fuse_program(&v);
        // Both the row max and the row sum disappear.
        assert_eq!(stats.fused, 2, "{stats:?}");
        assert_eq!(q.num_tes(), v.num_tes() - 2, "{q}");
        assert!(stats.bytes_saved > 0);
        let names: Vec<&str> = q.tes().iter().map(|te| te.name.as_str()).collect();
        assert!(!names.iter().any(|n| n.ends_with(".max")), "{names:?}");
        assert!(!names.iter().any(|n| n.ends_with(".sum")), "{names:?}");
        assert_bit_identical(&v, &q, 42);
        // Modeled program traffic drops by exactly the reported savings.
        let t_before = program_traffic(&v).total();
        let t_after = program_traffic(&q).total();
        assert_eq!(t_before - t_after, stats.bytes_saved);
    }

    #[test]
    fn layer_norm_moments_fold_into_consumers() {
        let mut p = TeProgram::new();
        let a = p.add_input("A", Shape::new(vec![8, 128]), DType::F32);
        let gamma = p.add_weight("G", Shape::new(vec![128]), DType::F32);
        let beta = p.add_weight("B", Shape::new(vec![128]), DType::F32);
        let n = builders::layer_norm(&mut p, "ln", a, gamma, beta, 1e-5);
        p.mark_output(n);
        let (v, _) = vertical_fuse_program(&p);
        let (q, stats) = reduction_fuse_program(&v);
        assert!(stats.fused >= 2, "mean and variance sums: {stats:?}");
        assert!(q.num_tes() < v.num_tes());
        assert_bit_identical(&v, &q, 7);
        for te in q.tes() {
            assert!(binders_are_disjoint(&te.body), "{}", te.name);
        }
    }

    #[test]
    fn matmul_read_along_innermost_is_not_a_candidate() {
        // relu reads mm[i, j] — the access varies along the consumer's
        // innermost axis, so there is no per-slice reuse and the GEMM
        // keeps its standalone (kernel-tier) form.
        let mut p = TeProgram::new();
        let a = p.add_input("A", Shape::new(vec![32, 32]), DType::F32);
        let w = p.add_weight("W", Shape::new(vec![32, 32]), DType::F32);
        let m = builders::matmul(&mut p, "mm", a, w);
        let r = builders::relu(&mut p, "act", m);
        p.mark_output(r);
        let (q, stats) = reduction_fuse_program(&p);
        assert_eq!(stats.candidates, 0, "{stats:?}");
        assert_eq!(stats.fused, 0, "{stats:?}");
        assert_eq!(q.num_tes(), p.num_tes());
    }

    #[test]
    fn wide_slice_with_many_consumers_is_rejected_by_cost() {
        // One row-sum feeding three broadcast consumers: each fused copy
        // would re-read the whole 4x256 slice, tripling reads to save a
        // 4-element store. The cost gate must refuse.
        let mut p = TeProgram::new();
        let a = p.add_input("A", Shape::new(vec![4, 256]), DType::F32);
        let s = builders::reduce_last(&mut p, "s", ReduceOp::Sum, a);
        let mut outs = Vec::new();
        for i in 0..3 {
            let d = p.add_te(
                &format!("c{i}"),
                Shape::new(vec![4, 256]),
                DType::F32,
                vec![a, s],
                vec![],
                None,
                ScalarExpr::binary(
                    souffle_te::BinaryOp::Div,
                    ScalarExpr::input(0, vec![IndexExpr::var(0), IndexExpr::var(1)]),
                    ScalarExpr::input(1, vec![IndexExpr::var(0)]),
                ),
            );
            outs.push(d);
        }
        for o in outs {
            p.mark_output(o);
        }
        let (q, stats) = reduction_fuse_program(&p);
        assert_eq!(stats.candidates, 1, "{stats:?}");
        assert_eq!(stats.rejected_by_cost, 1, "{stats:?}");
        assert_eq!(stats.fused, 0);
        assert_eq!(q.num_tes(), p.num_tes());
    }

    #[test]
    fn reduction_feeding_a_reduction_is_not_a_candidate() {
        let mut p = TeProgram::new();
        let a = p.add_input("A", Shape::new(vec![4, 8]), DType::F32);
        let s1 = builders::reduce_last(&mut p, "s1", ReduceOp::Sum, a);
        let s2 = builders::reduce_last(&mut p, "s2", ReduceOp::Sum, s1);
        p.mark_output(s2);
        let (q, stats) = reduction_fuse_program(&p);
        assert_eq!(stats.candidates, 0, "{stats:?}");
        assert_eq!(q.num_tes(), p.num_tes());
    }

    #[test]
    fn output_reductions_stay_materialized() {
        let mut p = TeProgram::new();
        let a = p.add_input("A", Shape::new(vec![4, 64]), DType::F32);
        let e = builders::exp(&mut p, "e", a);
        let s = builders::reduce_last(&mut p, "den", ReduceOp::Sum, e);
        let d = p.add_te(
            "d",
            Shape::new(vec![4, 64]),
            DType::F32,
            vec![e, s],
            vec![],
            None,
            ScalarExpr::binary(
                souffle_te::BinaryOp::Div,
                ScalarExpr::input(0, vec![IndexExpr::var(0), IndexExpr::var(1)]),
                ScalarExpr::input(1, vec![IndexExpr::var(0)]),
            ),
        );
        p.mark_output(s); // the denominator itself is requested
        p.mark_output(d);
        let (q, stats) = reduction_fuse_program(&p);
        assert_eq!(stats.candidates, 0, "{stats:?}");
        assert_eq!(q.num_tes(), p.num_tes());
    }

    #[test]
    fn idempotent_at_fixpoint() {
        let mut p = TeProgram::new();
        let a = p.add_input("A", Shape::new(vec![16, 64]), DType::F32);
        let s = builders::softmax(&mut p, "sm", a);
        p.mark_output(s);
        let (v, _) = vertical_fuse_program(&p);
        let (q1, s1) = reduction_fuse_program(&v);
        let (q2, s2) = reduction_fuse_program(&q1);
        assert!(s1.fused > 0);
        assert_eq!(s2.fused, 0, "{s2:?}");
        assert_eq!(q1.num_tes(), q2.num_tes());
    }
}
