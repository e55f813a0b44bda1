//! Tensor-level data-reuse detection (§5.1).

use crate::graph::TeGraph;
use souffle_te::{TeId, TeProgram, TensorId};
use std::collections::HashMap;

/// All reuse opportunities found in a program.
///
/// For every tensor consumed by more than one TE the paper records the set
/// `s(t_i) = {op_j, …, op_k}` of sharing operators; here split into the two
/// categories §5.1 distinguishes because they feed different optimizations:
///
/// - **spatial** reuse guides horizontal transformation (§6.1): the
///   consumers are pairwise independent, so they can merge into one kernel
///   that loads the tensor once,
/// - **temporal** reuse guides the tensor-buffer reuse optimization
///   (§6.5): the consumers are dependent, so the tensor can be cached
///   on-chip between their executions.
#[derive(Debug, Clone, Default)]
pub struct ReuseReport {
    /// Tensors consumed by ≥2 pairwise-independent TEs (tensor, consumers).
    pub spatial: Vec<(TensorId, Vec<TeId>)>,
    /// Tensors consumed by ≥2 TEs with dependencies among them.
    pub temporal: Vec<(TensorId, Vec<TeId>)>,
}

impl ReuseReport {
    /// The sharing set `s(t)` regardless of category.
    pub fn sharing_set(&self, tensor: TensorId) -> Option<&[TeId]> {
        self.spatial
            .iter()
            .chain(self.temporal.iter())
            .find(|(t, _)| *t == tensor)
            .map(|(_, c)| c.as_slice())
    }

    /// Tensors with temporal reuse, as a map for Algorithm 1's `TR` input.
    pub fn temporal_map(&self) -> HashMap<TensorId, Vec<TeId>> {
        self.temporal.iter().cloned().collect()
    }

    /// Total number of reused tensors.
    pub fn len(&self) -> usize {
        self.spatial.len() + self.temporal.len()
    }

    /// Whether no reuse was found.
    pub fn is_empty(&self) -> bool {
        self.spatial.is_empty() && self.temporal.is_empty()
    }
}

/// Traverses the tensor dependency graph and gathers every tensor accessed
/// by more than one TE (§5.1), classifying the reuse as spatial (consumers
/// pairwise independent) or temporal (dependencies exist between some
/// consumers).
pub fn find_reuse(program: &TeProgram, graph: &TeGraph) -> ReuseReport {
    let mut report = ReuseReport::default();
    for (tensor_idx, consumers) in program.consumer_lists().into_iter().enumerate() {
        let tensor = TensorId(tensor_idx);
        if consumers.len() < 2 {
            continue;
        }
        let pairwise_independent = consumers
            .iter()
            .enumerate()
            .all(|(i, &a)| consumers[i + 1..].iter().all(|&b| graph.independent(a, b)));
        if pairwise_independent {
            report.spatial.push((tensor, consumers));
        } else {
            report.temporal.push((tensor, consumers));
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use souffle_te::builders;
    use souffle_tensor::{DType, Shape};

    #[test]
    fn shared_input_of_independent_consumers_is_spatial() {
        // The BERT pattern of §5.1: three QKV GEMMs share one input.
        let mut p = TeProgram::new();
        let x = p.add_input("X", Shape::new(vec![64, 64]), DType::F16);
        let wq = p.add_weight("Wq", Shape::new(vec![64, 64]), DType::F16);
        let wk = p.add_weight("Wk", Shape::new(vec![64, 64]), DType::F16);
        let wv = p.add_weight("Wv", Shape::new(vec![64, 64]), DType::F16);
        let _ = builders::matmul(&mut p, "q", x, wq);
        let _ = builders::matmul(&mut p, "k", x, wk);
        let _ = builders::matmul(&mut p, "v", x, wv);
        let g = TeGraph::build(&p);
        let r = find_reuse(&p, &g);
        assert_eq!(r.spatial.len(), 1);
        assert_eq!(r.spatial[0].0, x);
        assert_eq!(r.spatial[0].1.len(), 3);
        assert!(r.temporal.is_empty());
        assert_eq!(r.sharing_set(x).unwrap().len(), 3);
    }

    #[test]
    fn value_used_by_dependent_consumers_is_temporal() {
        // The working example of §5.1: A1's output is used by R1 and A2
        // where A2 depends on R1 (through the softmax div).
        let mut p = TeProgram::new();
        let a = p.add_input("A", Shape::new(vec![16, 16]), DType::F32);
        let e = builders::exp(&mut p, "A1", a); // reused tensor
        let s = builders::reduce_last(&mut p, "R1", souffle_te::ReduceOp::Sum, e);
        // A2 = e / s (consumes both e and s => depends on R1)
        let rank = 2;
        let _div = p.add_te(
            "A2",
            Shape::new(vec![16, 16]),
            DType::F32,
            vec![e, s],
            vec![],
            None,
            souffle_te::ScalarExpr::binary(
                souffle_te::BinaryOp::Div,
                souffle_te::ScalarExpr::input(
                    0,
                    (0..rank).map(souffle_affine::IndexExpr::Var).collect(),
                ),
                souffle_te::ScalarExpr::input(1, vec![souffle_affine::IndexExpr::var(0)]),
            ),
        );
        let g = TeGraph::build(&p);
        let r = find_reuse(&p, &g);
        assert_eq!(r.temporal.len(), 1);
        assert_eq!(r.temporal[0].0, e);
        assert!(r.spatial.is_empty());
        assert!(r.temporal_map().contains_key(&e));
    }

    #[test]
    fn single_consumer_is_not_reuse() {
        let mut p = TeProgram::new();
        let a = p.add_input("A", Shape::new(vec![8]), DType::F32);
        let e = builders::exp(&mut p, "e", a);
        let _ = builders::relu(&mut p, "r", e);
        let g = TeGraph::build(&p);
        let r = find_reuse(&p, &g);
        assert!(r.is_empty());
        assert_eq!(r.len(), 0);
        assert!(r.sharing_set(a).is_none());
    }
}
