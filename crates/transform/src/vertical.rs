//! Vertical transformation of one-relies-on-one chains (§6.2).

use crate::rewrite::{is_pure_view, normalize_inputs, rebuild_program, TransformStats};
use souffle_te::{Rewrite, RewriteLog, TeProgram, TensorExpr, TensorId, TensorKind};
use std::collections::HashMap;

/// Collapses one-relies-on-one TE chains by composing index mapping
/// functions (Eq. 2), implemented as body inlining with index
/// substitution. Returns the rewritten program and statistics.
///
/// Fusion rules, iterated to fixpoint:
///
/// 1. An element-wise producer with exactly one consumer is inlined into
///    that consumer when the consumer is also element-wise (the paper's
///    one-relies-on-one chain refinement).
/// 2. A *pure view* producer (reshape/transpose/slice — no arithmetic) is
///    inlined into every consumer regardless of the consumer's kind: index
///    substitution into a reduction body is still exact, and duplicating a
///    view costs nothing. This is what eliminates all element-wise memory
///    operators (§2.3).
///
/// Producers whose outputs are program outputs are kept.
pub fn vertical_fuse_program(program: &TeProgram) -> (TeProgram, TransformStats) {
    let mut log = RewriteLog::new();
    vertical_fuse_program_logged(program, &mut log)
}

/// Like [`vertical_fuse_program`], additionally recording every inlining
/// in `log` for the translation-validation pass.
pub fn vertical_fuse_program_logged(
    program: &TeProgram,
    log: &mut RewriteLog,
) -> (TeProgram, TransformStats) {
    let mut tes: Vec<TensorExpr> = program.tes().to_vec();
    let tes_before = tes.len();
    let mut fused = 0usize;

    // Batched fixpoint: each pass rebuilds the producer/consumer maps once
    // and then applies every applicable fusion, so deep chains converge in
    // O(depth) passes even on wavefront-sized programs (the 12k-TE LSTM).
    const MAX_PASSES: usize = 64;
    for _pass in 0..MAX_PASSES {
        let producer_idx: HashMap<TensorId, usize> = tes
            .iter()
            .enumerate()
            .map(|(i, te)| (te.output, i))
            .collect();
        // Count actual body reads (not input-list slots): after input
        // deduplication a tensor may occupy one slot but be read several
        // times, and inlining a non-trivial producer into every read would
        // duplicate its arithmetic.
        let mut consumer_count: HashMap<TensorId, usize> = HashMap::new();
        for te in &tes {
            for (slot, _) in te.body.accesses() {
                if let Some(&input) = te.inputs.get(slot) {
                    *consumer_count.entry(input).or_insert(0) += 1;
                }
            }
        }

        let mut changed = false;
        for ci in 0..tes.len() {
            // Re-examine this consumer until none of its operands can be
            // inlined (a fused-in producer may expose further views).
            loop {
                let mut action: Option<(usize, usize)> = None; // (slot, producer)
                for (slot, &input) in tes[ci].inputs.iter().enumerate() {
                    let Some(&pi) = producer_idx.get(&input) else {
                        continue;
                    };
                    if pi == ci {
                        continue;
                    }
                    let producer = &tes[pi];
                    if program.tensor(input).kind != TensorKind::Intermediate {
                        continue; // program outputs must stay materialized
                    }
                    let elementwise_chain = !producer.is_reduction()
                        && !tes[ci].is_reduction()
                        && consumer_count.get(&input) == Some(&1);
                    let view_fold = is_pure_view(producer);
                    if elementwise_chain || view_fold {
                        action = Some((slot, pi));
                        break;
                    }
                }
                let Some((slot, pi)) = action else {
                    break;
                };
                // Remap the producer's operand slots past the consumer's,
                // then inline the producer body at the access's indices.
                let mut producer = tes[pi].clone();
                log.push(Rewrite::Inlined {
                    producer_output: producer.output,
                    consumer_output: tes[ci].output,
                });
                let consumer = &mut tes[ci];
                let base = consumer.inputs.len();
                producer.body.remap_operands(&|o| o + base);
                consumer.inputs.extend(producer.inputs.iter().copied());
                consumer
                    .body
                    .inline_operands(&|o| (o == slot).then_some(&producer.body));
                consumer.body.simplify();
                normalize_inputs(consumer);
                fused += 1;
                changed = true;
            }
        }
        if !changed {
            break;
        }
        // Drop producers nothing reads anymore.
        let mut read: HashMap<TensorId, usize> = HashMap::new();
        for te in &tes {
            for &input in &te.inputs {
                *read.entry(input).or_insert(0) += 1;
            }
        }
        tes.retain(|te| {
            program.tensor(te.output).kind != TensorKind::Intermediate
                || read.get(&te.output).copied().unwrap_or(0) > 0
        });
    }

    let tes_after = tes.len();
    let out = rebuild_program(program.tensors(), tes);
    (
        out,
        TransformStats {
            vertical_fused: fused,
            horizontal_groups: 0,
            tes_before,
            tes_after,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use souffle_te::{builders, interp::eval_with_random_inputs};
    use souffle_tensor::{DType, Shape};

    /// Asserts that `after` computes the same outputs as `before`.
    fn assert_same_semantics(before: &TeProgram, after: &TeProgram, seed: u64) {
        before.validate().expect("before validates");
        after.validate().expect("after validates");
        let o1 = eval_with_random_inputs(before, seed).expect("before evals");
        let o2 = eval_with_random_inputs(after, seed).expect("after evals");
        assert_eq!(o1.len(), o2.len(), "same number of outputs");
        for (id, t1) in &o1 {
            let t2 = &o2[id];
            assert!(
                t1.allclose(t2, 1e-4, 1e-4),
                "output {id} diverged: max diff {:?}",
                t1.max_abs_diff(t2)
            );
        }
    }

    #[test]
    fn fig4_chain_collapses_to_one_te() {
        // relu -> strided_slice -> permute (Fig. 4), a 3-TE chain that must
        // become a single semantic-preserving TE.
        let mut p = TeProgram::new();
        let a = p.add_input("A", Shape::new(vec![4, 8]), DType::F32);
        let b = builders::relu(&mut p, "relu", a);
        let c = builders::strided_slice(&mut p, "slice", b, 0, 0, 2, 2);
        let d = builders::transpose(&mut p, "permute", c, &[1, 0]);
        p.mark_output(d);
        let (q, stats) = vertical_fuse_program(&p);
        assert_eq!(q.num_tes(), 1, "{q}");
        assert_eq!(stats.vertical_fused, 2);
        assert_same_semantics(&p, &q, 42);
    }

    #[test]
    fn elementwise_chain_fuses() {
        let mut p = TeProgram::new();
        let a = p.add_input("A", Shape::new(vec![16]), DType::F32);
        let mut cur = a;
        for i in 0..5 {
            cur = builders::unary(
                &mut p,
                &format!("u{i}"),
                [souffle_te::UnaryOp::Exp, souffle_te::UnaryOp::Sigmoid][i % 2],
                cur,
            );
        }
        p.mark_output(cur);
        let (q, stats) = vertical_fuse_program(&p);
        assert_eq!(q.num_tes(), 1);
        assert_eq!(stats.vertical_fused, 4);
        assert_same_semantics(&p, &q, 7);
    }

    #[test]
    fn view_folds_into_reduction() {
        // transpose feeding a matmul: the memory operator disappears into
        // the GEMM body (a "transposed-B GEMM").
        let mut p = TeProgram::new();
        let a = p.add_input("A", Shape::new(vec![8, 16]), DType::F32);
        let b = p.add_input("B", Shape::new(vec![32, 16]), DType::F32);
        let bt = builders::transpose(&mut p, "bt", b, &[1, 0]); // [16, 32]
        let c = builders::matmul(&mut p, "mm", a, bt);
        p.mark_output(c);
        let (q, stats) = vertical_fuse_program(&p);
        assert_eq!(q.num_tes(), 1, "{q}");
        assert_eq!(stats.vertical_fused, 1);
        assert_same_semantics(&p, &q, 3);
    }

    #[test]
    fn reshape_between_matmuls_is_eliminated() {
        let mut p = TeProgram::new();
        let a = p.add_input("A", Shape::new(vec![8, 8]), DType::F32);
        let w1 = p.add_weight("W1", Shape::new(vec![8, 8]), DType::F32);
        let x = builders::matmul(&mut p, "mm1", a, w1);
        let r = builders::reshape(&mut p, "rs", x, Shape::new(vec![8, 8])); // no-op reshape
        let w2 = p.add_weight("W2", Shape::new(vec![8, 8]), DType::F32);
        let y = builders::matmul(&mut p, "mm2", r, w2);
        p.mark_output(y);
        let (q, _) = vertical_fuse_program(&p);
        assert_eq!(q.num_tes(), 2, "reshape must vanish: {q}");
        assert_same_semantics(&p, &q, 5);
    }

    #[test]
    fn shared_elementwise_producer_is_kept() {
        // b feeds two consumers -> fusing would duplicate arithmetic;
        // rule 1 requires a single consumer.
        let mut p = TeProgram::new();
        let a = p.add_input("A", Shape::new(vec![16]), DType::F32);
        let b = builders::exp(&mut p, "e", a);
        let c = builders::relu(&mut p, "r", b);
        let d = builders::sigmoid(&mut p, "s", b);
        let e = builders::add(&mut p, "a", c, d);
        p.mark_output(e);
        let (q, _) = vertical_fuse_program(&p);
        // exp stays; relu and sigmoid fold into add; result: exp + add = 2.
        assert_eq!(q.num_tes(), 2, "{q}");
        assert_same_semantics(&p, &q, 11);
    }

    #[test]
    fn output_tensors_stay_materialized() {
        let mut p = TeProgram::new();
        let a = p.add_input("A", Shape::new(vec![8]), DType::F32);
        let b = builders::exp(&mut p, "e", a);
        let c = builders::relu(&mut p, "r", b);
        p.mark_output(b); // b itself is an output
        p.mark_output(c);
        let (q, stats) = vertical_fuse_program(&p);
        assert_eq!(stats.vertical_fused, 0);
        assert_eq!(q.num_tes(), 2);
        assert_same_semantics(&p, &q, 13);
    }

    #[test]
    fn softmax_partially_fuses() {
        // softmax = max, exp(sub), sum, div: the reductions stay, the
        // element-wise TEs fold where dependencies allow.
        let mut p = TeProgram::new();
        let a = p.add_input("A", Shape::new(vec![4, 32]), DType::F32);
        let s = builders::softmax(&mut p, "sm", a);
        p.mark_output(s);
        let before = p.num_tes();
        let (q, _) = vertical_fuse_program(&p);
        assert!(q.num_tes() <= before);
        assert_same_semantics(&p, &q, 17);
    }

    #[test]
    fn idempotent_at_fixpoint() {
        let mut p = TeProgram::new();
        let a = p.add_input("A", Shape::new(vec![16]), DType::F32);
        let b = builders::exp(&mut p, "e", a);
        let c = builders::relu(&mut p, "r", b);
        p.mark_output(c);
        let (q1, _) = vertical_fuse_program(&p);
        let (q2, s2) = vertical_fuse_program(&q1);
        assert_eq!(s2.vertical_fused, 0);
        assert_eq!(q1.num_tes(), q2.num_tes());
    }
}
