//! Tensor expressions and their dependence metadata.

use crate::expr::ScalarExpr;
use crate::program::TensorId;
use souffle_affine::{DependenceKind, IndexMap};
use souffle_tensor::Shape;
use std::fmt;

/// Identifier of a tensor expression within a [`crate::TeProgram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TeId(pub usize);

impl fmt::Display for TeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TE{}", self.0)
    }
}

/// Reduction combinators supported by TEs with reduction axes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReduceOp {
    /// Sum-reduction (GEMM, conv, reduce_sum, …).
    Sum,
    /// Max-reduction (softmax max, max-pool, …).
    Max,
    /// Min-reduction.
    Min,
}

impl ReduceOp {
    /// The identity element of the reduction.
    pub fn init(self) -> f32 {
        match self {
            ReduceOp::Sum => 0.0,
            ReduceOp::Max => f32::NEG_INFINITY,
            ReduceOp::Min => f32::INFINITY,
        }
    }

    /// Combines an accumulator with a new value.
    pub fn combine(self, acc: f32, x: f32) -> f32 {
        match self {
            ReduceOp::Sum => acc + x,
            ReduceOp::Max => acc.max(x),
            ReduceOp::Min => acc.min(x),
        }
    }
}

/// A single tensor expression: `output[i0..in] = reduce(body)` over the
/// reduction axes, or `output[i0..in] = body` when no axes are present.
///
/// Index variables in `body` are `0..rank` (iteration variables implied by
/// the output shape) followed by `rank..rank+reduce.len()` (reduction
/// variables).
#[derive(Debug, Clone, PartialEq)]
pub struct TensorExpr {
    /// Human-readable name (e.g. `"TE0"`, `"bert.l3.qkv_matmul"`).
    pub name: String,
    /// The tensor this TE defines.
    pub output: TensorId,
    /// Input tensors, referenced positionally by `ScalarExpr::Input`.
    pub inputs: Vec<TensorId>,
    /// Extents of the reduction axes (empty for element-wise TEs).
    pub reduce: Vec<i64>,
    /// Reduction combinator; `None` iff `reduce` is empty.
    pub reduce_op: Option<ReduceOp>,
    /// The scalar body.
    pub body: ScalarExpr,
}

impl TensorExpr {
    /// Dependence classification (§5.2): TEs with a reduction axis — or an
    /// inline fold left by reduction fusion — are *one-relies-on-many*; all
    /// others are *one-relies-on-one*.
    pub fn dependence_kind(&self) -> DependenceKind {
        if self.reduce.is_empty() && !self.body.has_fold() {
            DependenceKind::OneReliesOnOne
        } else {
            DependenceKind::OneReliesOnMany
        }
    }

    /// Whether this TE has a reduction axis.
    pub fn is_reduction(&self) -> bool {
        !self.reduce.is_empty()
    }

    /// Number of body evaluations (output points × reduction points).
    pub fn total_points(&self, output_shape: &Shape) -> i64 {
        output_shape.numel() * self.reduce.iter().product::<i64>()
    }

    /// Arithmetic instructions per full output computation. Inline folds
    /// (reduction fusion) are invariant along the innermost output axis by
    /// construction, and both the VM's per-slice fold cache and a tiled
    /// kernel evaluate them once per slice — so their arithmetic is priced
    /// per slice, not per point (pricing recompute per point is what made
    /// a fused softmax look compute-bound at paper scale).
    pub fn flops(&self, output_shape: &Shape) -> u64 {
        let (per_point, per_slice) = self.body.arith_cost_split();
        let per_point = per_point.max(1);
        let reduce_combine: u64 = u64::from(self.is_reduction());
        let total = self.total_points(output_shape) as u64;
        let inner = output_shape.dims().last().copied().unwrap_or(1).max(1) as u64;
        (per_point + reduce_combine) * total + per_slice * total.div_ceil(inner)
    }

    /// The compute/memory ratio from §5.3: arithmetic instructions divided
    /// by memory accesses (input reads + one output write per point).
    pub fn compute_memory_ratio(&self, output_shape: &Shape) -> f64 {
        let total = self.total_points(output_shape) as f64;
        let arith = (self.body.arith_cost().max(1) as f64) * total;
        let reads = (self.body.access_cost() as f64) * total;
        let writes = output_shape.numel() as f64;
        arith / (reads + writes).max(1.0)
    }

    /// For one-relies-on-one TEs whose body is a *pure view* of a single
    /// input (no arithmetic), the index map of the view. Used to recognise
    /// memory operators like reshape/transpose/slice.
    pub fn view_map(&self, output_rank: usize) -> Option<IndexMap> {
        if self.is_reduction() {
            return None;
        }
        match &self.body {
            ScalarExpr::Input { indices, .. } => Some(IndexMap::new(output_rank, indices.clone())),
            _ => None,
        }
    }
}

impl fmt::Display for TensorExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: t{} = ", self.name, self.output.0)?;
        if let Some(op) = self.reduce_op {
            write!(f, "{op:?}[{:?}] ", self.reduce)?;
        }
        write!(f, "{}", self.body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{BinaryOp, ScalarExpr};
    use souffle_affine::IndexExpr;

    fn gemm_te() -> TensorExpr {
        // O[i,j] = sum_rk I[i,rk] * W[rk,j]
        TensorExpr {
            name: "gemm".into(),
            output: TensorId(2),
            inputs: vec![TensorId(0), TensorId(1)],
            reduce: vec![64],
            reduce_op: Some(ReduceOp::Sum),
            body: ScalarExpr::binary(
                BinaryOp::Mul,
                ScalarExpr::input(0, vec![IndexExpr::var(0), IndexExpr::var(2)]),
                ScalarExpr::input(1, vec![IndexExpr::var(2), IndexExpr::var(1)]),
            ),
        }
    }

    #[test]
    fn reduce_op_identities() {
        assert_eq!(ReduceOp::Sum.init(), 0.0);
        assert_eq!(ReduceOp::Max.init(), f32::NEG_INFINITY);
        assert_eq!(ReduceOp::Sum.combine(1.0, 2.0), 3.0);
        assert_eq!(ReduceOp::Max.combine(1.0, 2.0), 2.0);
        assert_eq!(ReduceOp::Min.combine(1.0, 2.0), 1.0);
    }

    #[test]
    fn gemm_is_one_relies_on_many_and_compute_intensive() {
        let te = gemm_te();
        let shape = Shape::new(vec![64, 64]);
        assert_eq!(te.dependence_kind(), DependenceKind::OneReliesOnMany);
        // ratio: 1 mul + 1 reduce-add per point over 2 reads + amortized write
        assert!(te.compute_memory_ratio(&shape) < 3.0); // mul-only body is ~0.5/access
        assert_eq!(te.total_points(&shape), 64 * 64 * 64);
        assert!(te.flops(&shape) >= 2 * 64 * 64 * 64);
    }

    #[test]
    fn view_map_recognises_pure_views() {
        // transpose view: O[i,j] = A[j,i]
        let te = TensorExpr {
            name: "transpose".into(),
            output: TensorId(1),
            inputs: vec![TensorId(0)],
            reduce: vec![],
            reduce_op: None,
            body: ScalarExpr::input(0, vec![IndexExpr::var(1), IndexExpr::var(0)]),
        };
        let m = te.view_map(2).unwrap();
        assert_eq!(m.eval(&[3, 5]), vec![5, 3]);
        assert!(gemm_te().view_map(2).is_none());
    }

    #[test]
    fn elementwise_dependence_kind() {
        let te = TensorExpr {
            name: "exp".into(),
            output: TensorId(1),
            inputs: vec![TensorId(0)],
            reduce: vec![],
            reduce_op: None,
            body: ScalarExpr::unary(
                crate::UnaryOp::Exp,
                ScalarExpr::input(0, vec![IndexExpr::var(0)]),
            ),
        };
        assert_eq!(te.dependence_kind(), DependenceKind::OneReliesOnOne);
        assert!(!te.is_reduction());
    }
}
