//! Shared program-rewriting machinery for the transformations.

use souffle_te::{ScalarExpr, TeProgram, TensorExpr, TensorId, TensorInfo};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

/// Statistics of a transformation run, used by the ablation study
/// (Table 4) and by tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TransformStats {
    /// Number of producer-into-consumer inlinings performed.
    pub vertical_fused: usize,
    /// Number of horizontal groups merged.
    pub horizontal_groups: usize,
    /// TEs before the transformation.
    pub tes_before: usize,
    /// TEs after the transformation.
    pub tes_after: usize,
}

/// Builds a program over the tensor table `tensors` (ids stay stable;
/// tensors a rewrite introduced are appended to the original table) from
/// an edited TE list, re-sorting TEs topologically (stable in list
/// order).
///
/// # Panics
///
/// Panics if the TE list contains a dependence cycle.
pub fn rebuild_program(tensors: &[TensorInfo], tes: Vec<TensorExpr>) -> TeProgram {
    let mut out = TeProgram::new();
    for t in tensors {
        out.add_tensor(&t.name, t.shape.clone(), t.dtype, t.kind);
    }
    for te in toposort(tes) {
        out.push_te(te);
    }
    out
}

/// Stable topological sort of a TE list by tensor dependences: of the
/// ready TEs, the one earliest in the list goes first.
fn toposort(tes: Vec<TensorExpr>) -> Vec<TensorExpr> {
    let producer: HashMap<TensorId, usize> = tes
        .iter()
        .enumerate()
        .map(|(i, te)| (te.output, i))
        .collect();
    let n = tes.len();
    let mut indegree = vec![0usize; n];
    let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, te) in tes.iter().enumerate() {
        let mut preds: Vec<usize> = te
            .inputs
            .iter()
            .filter_map(|input| producer.get(input).copied())
            .filter(|&p| p != i)
            .collect();
        preds.sort_unstable();
        preds.dedup();
        indegree[i] = preds.len();
        for p in preds {
            succs[p].push(i);
        }
    }
    let mut ready: BinaryHeap<Reverse<usize>> =
        (0..n).filter(|&i| indegree[i] == 0).map(Reverse).collect();
    let mut order = Vec::with_capacity(n);
    while let Some(Reverse(i)) = ready.pop() {
        order.push(i);
        for &s in &succs[i] {
            indegree[s] -= 1;
            if indegree[s] == 0 {
                ready.push(Reverse(s));
            }
        }
    }
    assert_eq!(order.len(), n, "TE dependence cycle after rewrite");
    let mut slots: Vec<Option<TensorExpr>> = tes.into_iter().map(Some).collect();
    order
        .into_iter()
        .map(|i| slots[i].take().expect("each TE emitted once"))
        .collect()
}

/// Merges repeated tensors in a TE's input list and drops the ones its
/// body no longer reads, keeping first-occurrence order. The body's
/// operand slots are rewritten once, and not at all when the input list
/// was already distinct and fully read.
///
/// # Panics
///
/// Panics if the body reads a slot past the end of the input list.
pub fn normalize_inputs(te: &mut TensorExpr) {
    let mut read = vec![false; te.inputs.len()];
    for (slot, _) in te.body.accesses() {
        read[slot] = true;
    }
    // Input lists are short, so linear scans beat hashing here.
    let mut inputs: Vec<TensorId> = Vec::with_capacity(te.inputs.len());
    let remap: Vec<usize> = te
        .inputs
        .iter()
        .enumerate()
        .map(|(old, t)| {
            if let Some(new) = inputs.iter().position(|u| u == t) {
                return new;
            }
            if !te.inputs.iter().zip(&read).any(|(u, &r)| r && u == t) {
                // Never read: the body does not ask for this slot.
                return old;
            }
            inputs.push(*t);
            inputs.len() - 1
        })
        .collect();
    if inputs.len() == te.inputs.len() {
        return;
    }
    te.body.remap_operands(&|o| remap[o]);
    te.inputs = inputs;
}

/// Whether a TE's body is a pure view of one input (no arithmetic): a
/// memory operator in the paper's vocabulary (reshape, transpose, slice).
pub fn is_pure_view(te: &TensorExpr) -> bool {
    !te.is_reduction() && matches!(te.body, ScalarExpr::Input { .. })
}

#[cfg(test)]
mod tests {
    use super::*;
    use souffle_affine::IndexExpr;
    use souffle_te::{builders, BinaryOp};
    use souffle_tensor::{DType, Shape};

    #[test]
    fn rebuild_preserves_program() {
        let mut p = TeProgram::new();
        let a = p.add_input("A", Shape::new(vec![4]), DType::F32);
        let b = builders::exp(&mut p, "e", a);
        let _ = builders::relu(&mut p, "r", b);
        let rebuilt = rebuild_program(p.tensors(), p.tes().to_vec());
        assert_eq!(rebuilt.num_tes(), 2);
        assert!(rebuilt.validate().is_ok());
    }

    #[test]
    fn toposort_fixes_out_of_order_tes() {
        let mut p = TeProgram::new();
        let a = p.add_input("A", Shape::new(vec![4]), DType::F32);
        let b = builders::exp(&mut p, "e", a);
        let _ = builders::relu(&mut p, "r", b);
        // Reverse the TE order; rebuild must restore topological order.
        let mut tes = p.tes().to_vec();
        tes.reverse();
        let rebuilt = rebuild_program(p.tensors(), tes);
        assert!(rebuilt.validate().is_ok());
        assert_eq!(rebuilt.te(souffle_te::TeId(0)).name, "e");
    }

    #[test]
    fn normalize_inputs_drops_unused() {
        let mut p = TeProgram::new();
        let a = p.add_input("A", Shape::new(vec![4]), DType::F32);
        let b = p.add_input("B", Shape::new(vec![4]), DType::F32);
        let _ = builders::add(&mut p, "s", a, b);
        let mut te = p.te(souffle_te::TeId(0)).clone();
        // Rewrite body to only read operand 1.
        te.body = ScalarExpr::input(1, vec![IndexExpr::var(0)]);
        normalize_inputs(&mut te);
        assert_eq!(te.inputs, vec![b]);
        assert_eq!(te.body.accesses()[0].0, 0);
    }

    #[test]
    fn normalize_inputs_merges_repeats() {
        let mut p = TeProgram::new();
        let a = p.add_input("A", Shape::new(vec![4]), DType::F32);
        let mut te = TensorExpr {
            name: "sq".into(),
            output: TensorId(99),
            inputs: vec![a, a],
            reduce: vec![],
            reduce_op: None,
            body: ScalarExpr::binary(
                BinaryOp::Mul,
                ScalarExpr::input(0, vec![IndexExpr::var(0)]),
                ScalarExpr::input(1, vec![IndexExpr::var(0)]),
            ),
        };
        normalize_inputs(&mut te);
        assert_eq!(te.inputs, vec![a]);
        for (o, _) in te.body.accesses() {
            assert_eq!(o, 0);
        }
    }

    #[test]
    fn pure_view_detection() {
        let mut p = TeProgram::new();
        let a = p.add_input("A", Shape::new(vec![4, 4]), DType::F32);
        let t = builders::transpose(&mut p, "t", a, &[1, 0]);
        let _ = builders::exp(&mut p, "e", t);
        assert!(is_pure_view(p.te(souffle_te::TeId(0))));
        assert!(!is_pure_view(p.te(souffle_te::TeId(1))));
    }
}
