//! Multi-gate Mixture-of-Experts (Ma et al., KDD'18), the paper's
//! knowledge-discovery workload.
//!
//! The base model: a shared input feeds `experts` small MLPs whose outputs
//! are combined per task by softmax gates, followed by per-task towers.
//! The expert MLPs are independent same-shaped GEMMs — exactly the
//! horizontal-transformation pattern (§6.1) — and the whole model is tiny
//! (tens of microseconds in Table 3), so kernel-launch overhead dominates:
//! the workload where Souffle's single-kernel mapping shines most.

use super::ModelConfig;
use souffle_te::{builders, BinaryOp, TeProgram, TensorId};
use souffle_tensor::{DType, Shape};

/// MMoE build configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MmoeConfig {
    /// Input feature width.
    pub input_dim: i64,
    /// Number of experts.
    pub experts: usize,
    /// Expert hidden width.
    pub expert_dim: i64,
    /// Number of tasks (gates/towers).
    pub tasks: usize,
    /// Tower hidden width.
    pub tower_dim: i64,
}

impl MmoeConfig {
    /// Builds the configuration for a size class.
    pub fn new(config: ModelConfig) -> Self {
        match config {
            ModelConfig::Paper => MmoeConfig {
                input_dim: 512,
                experts: 8,
                expert_dim: 256,
                tasks: 2,
                tower_dim: 64,
            },
            ModelConfig::Tiny => MmoeConfig {
                input_dim: 8,
                experts: 3,
                expert_dim: 4,
                tasks: 2,
                tower_dim: 4,
            },
        }
    }
}

/// Builds the TE program.
pub fn build(cfg: &MmoeConfig) -> TeProgram {
    let mut p = TeProgram::new();
    let dt = DType::F16;
    // Row-vector input (1, D) so GEMMs stay 2-D.
    let x = p.add_input("mmoe.input", Shape::new(vec![1, cfg.input_dim]), dt);

    // Experts: independent MLPs sharing x.
    let mut expert_outs: Vec<TensorId> = Vec::with_capacity(cfg.experts);
    for e in 0..cfg.experts {
        let w1 = p.add_weight(
            &format!("mmoe.e{e}.w1"),
            Shape::new(vec![cfg.input_dim, cfg.expert_dim]),
            dt,
        );
        let h = builders::matmul(&mut p, &format!("mmoe.e{e}.fc1"), x, w1);
        let h = builders::relu(&mut p, &format!("mmoe.e{e}.relu"), h);
        expert_outs.push(h);
    }

    // Gates: per task, softmax over experts, then weighted expert sum.
    let mut task_inputs = Vec::with_capacity(cfg.tasks);
    for t in 0..cfg.tasks {
        let wg = p.add_weight(
            &format!("mmoe.g{t}.w"),
            Shape::new(vec![cfg.input_dim, cfg.experts as i64]),
            dt,
        );
        let logits = builders::matmul(&mut p, &format!("mmoe.g{t}.logits"), x, wg);
        let gate = builders::softmax(&mut p, &format!("mmoe.g{t}.softmax"), logits);
        // weighted sum: sum_e gate[0,e] * expert_e  (lowered as a chain of
        // scale+add element-wise TEs over the (1, expert_dim) outputs).
        let mut acc: Option<TensorId> = None;
        for (e, &out) in expert_outs.iter().enumerate() {
            let ge = builders::strided_slice(
                &mut p,
                &format!("mmoe.g{t}.pick{e}"),
                gate,
                1,
                e as i64,
                1,
                1,
            ); // (1, 1)
               // broadcast multiply: out (1, expert_dim) * gе (1,1)
            let scaled = p.add_te(
                &format!("mmoe.g{t}.scale{e}"),
                Shape::new(vec![1, cfg.expert_dim]),
                dt,
                vec![out, ge],
                vec![],
                None,
                souffle_te::ScalarExpr::binary(
                    BinaryOp::Mul,
                    souffle_te::ScalarExpr::input(
                        0,
                        vec![
                            souffle_affine::IndexExpr::var(0),
                            souffle_affine::IndexExpr::var(1),
                        ],
                    ),
                    souffle_te::ScalarExpr::input(
                        1,
                        vec![
                            souffle_affine::IndexExpr::var(0),
                            souffle_affine::IndexExpr::constant(0),
                        ],
                    ),
                ),
            );
            acc = Some(match acc {
                None => scaled,
                Some(a) => builders::add(&mut p, &format!("mmoe.g{t}.acc{e}"), a, scaled),
            });
        }
        task_inputs.push(acc.expect("at least one expert"));
    }

    // Towers: per task MLP to a single logit.
    for (t, &ti) in task_inputs.iter().enumerate() {
        let w1 = p.add_weight(
            &format!("mmoe.t{t}.w1"),
            Shape::new(vec![cfg.expert_dim, cfg.tower_dim]),
            dt,
        );
        let h = builders::matmul(&mut p, &format!("mmoe.t{t}.fc1"), ti, w1);
        let h = builders::relu(&mut p, &format!("mmoe.t{t}.relu"), h);
        let w2 = p.add_weight(
            &format!("mmoe.t{t}.w2"),
            Shape::new(vec![cfg.tower_dim, 1]),
            dt,
        );
        let logit = builders::matmul(&mut p, &format!("mmoe.t{t}.out"), h, w2);
        let prob = builders::sigmoid(&mut p, &format!("mmoe.t{t}.sigmoid"), logit);
        p.mark_output(prob);
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use souffle_te::interp::eval_with_random_inputs;

    #[test]
    fn tiny_mmoe_runs_in_interpreter() {
        let p = build(&MmoeConfig::new(ModelConfig::Tiny));
        p.validate().unwrap();
        let out = eval_with_random_inputs(&p, 3).unwrap();
        assert_eq!(out.len(), 2, "two task outputs");
        for t in out.values() {
            assert_eq!(t.shape().dims(), &[1, 1]);
            let v = t.at(&[0, 0]);
            assert!((0.0..=1.0).contains(&v), "sigmoid output {v}");
        }
    }

    #[test]
    fn experts_share_the_input_spatially() {
        let p = build(&MmoeConfig::new(ModelConfig::Paper));
        let x = souffle_te::TensorId(0);
        // 8 expert fc1 + 2 gate logits consume the input.
        assert_eq!(p.consumer_lists()[x.0].len(), 10);
    }
}
