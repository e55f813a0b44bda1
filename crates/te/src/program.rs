//! TE programs: an ordered list of tensor expressions over a tensor table.

use crate::expr::ScalarExpr;
use crate::te::{ReduceOp, TeId, TensorExpr};
use souffle_affine::IndexExpr;
use souffle_tensor::{DType, Shape};
use std::collections::HashMap;
use std::fmt;

/// Identifier of a tensor within a [`TeProgram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TensorId(pub usize);

impl fmt::Display for TensorId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// Role of a tensor in the program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TensorKind {
    /// Runtime input (activations).
    Input,
    /// Constant parameter (weights), resident in global memory.
    Weight,
    /// Produced and consumed inside the program.
    Intermediate,
    /// Produced by the program and visible to the caller.
    Output,
}

/// Metadata of one tensor.
#[derive(Debug, Clone, PartialEq)]
pub struct TensorInfo {
    /// Human-readable name.
    pub name: String,
    /// Shape.
    pub shape: Shape,
    /// Logical dtype (drives the memory/compute cost model).
    pub dtype: DType,
    /// Role.
    pub kind: TensorKind,
}

impl TensorInfo {
    /// Size in bytes under the logical dtype.
    pub fn size_bytes(&self) -> u64 {
        self.shape.numel() as u64 * self.dtype.size_bytes()
    }
}

/// Structural validation failure, returned by [`TeProgram::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidateError {
    /// A TE references an operand slot with no backing tensor.
    BadOperand {
        /// TE at fault.
        te: TeId,
        /// Offending operand slot.
        operand: usize,
    },
    /// A body access has the wrong number of index expressions.
    RankMismatch {
        /// TE at fault.
        te: TeId,
        /// Offending operand slot.
        operand: usize,
        /// Indices provided.
        got: usize,
        /// Rank of the accessed tensor.
        want: usize,
    },
    /// The body references an index variable outside `0..rank+reduce_rank`.
    VarOutOfRange {
        /// TE at fault.
        te: TeId,
        /// Largest variable referenced.
        max_var: usize,
        /// Number of available variables.
        n_vars: usize,
    },
    /// An unguarded access may read outside the operand tensor.
    OutOfBounds {
        /// TE at fault.
        te: TeId,
        /// Offending operand slot.
        operand: usize,
        /// Dimension at fault.
        axis: usize,
        /// Conservative interval of the index expression.
        interval: (i64, i64),
        /// Extent of the axis.
        extent: i64,
    },
    /// A TE reads a tensor that is defined later in the program.
    UseBeforeDef {
        /// TE at fault.
        te: TeId,
        /// The tensor read too early.
        tensor: TensorId,
    },
    /// Two TEs define the same tensor.
    MultipleProducers {
        /// The doubly-defined tensor.
        tensor: TensorId,
    },
    /// A reduction TE is missing its combinator (or vice versa).
    ReduceOpMismatch {
        /// TE at fault.
        te: TeId,
    },
}

impl fmt::Display for ValidateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidateError::BadOperand { te, operand } => {
                write!(f, "{te}: operand slot {operand} has no backing tensor")
            }
            ValidateError::RankMismatch {
                te,
                operand,
                got,
                want,
            } => write!(
                f,
                "{te}: access to operand {operand} has {got} indices, tensor has rank {want}"
            ),
            ValidateError::VarOutOfRange { te, max_var, n_vars } => {
                write!(f, "{te}: references v{max_var} but only {n_vars} variables exist")
            }
            ValidateError::OutOfBounds {
                te,
                operand,
                axis,
                interval,
                extent,
            } => write!(
                f,
                "{te}: unguarded access to operand {operand} axis {axis} spans {interval:?}, extent {extent}"
            ),
            ValidateError::UseBeforeDef { te, tensor } => {
                write!(f, "{te}: reads {tensor} before its definition")
            }
            ValidateError::MultipleProducers { tensor } => {
                write!(f, "{tensor} is defined by more than one TE")
            }
            ValidateError::ReduceOpMismatch { te } => {
                write!(f, "{te}: reduction axes and reduce_op are inconsistent")
            }
        }
    }
}

impl std::error::Error for ValidateError {}

/// An ordered TE program over a tensor table.
///
/// TEs are stored in definition order, which [`TeProgram::validate`] checks
/// is topological (every read refers to an input, weight, or earlier TE's
/// output).
#[derive(Debug, Clone, Default)]
pub struct TeProgram {
    tensors: Vec<TensorInfo>,
    tes: Vec<TensorExpr>,
    producer: HashMap<TensorId, TeId>,
}

impl TeProgram {
    /// Creates an empty program.
    pub fn new() -> Self {
        TeProgram::default()
    }

    /// Adds a runtime input tensor.
    pub fn add_input(&mut self, name: &str, shape: Shape, dtype: DType) -> TensorId {
        self.add_tensor(name, shape, dtype, TensorKind::Input)
    }

    /// Adds a weight tensor.
    pub fn add_weight(&mut self, name: &str, shape: Shape, dtype: DType) -> TensorId {
        self.add_tensor(name, shape, dtype, TensorKind::Weight)
    }

    /// Adds a tensor with an explicit kind.
    pub fn add_tensor(
        &mut self,
        name: &str,
        shape: Shape,
        dtype: DType,
        kind: TensorKind,
    ) -> TensorId {
        let id = TensorId(self.tensors.len());
        self.tensors.push(TensorInfo {
            name: name.to_string(),
            shape,
            dtype,
            kind,
        });
        id
    }

    /// Appends a TE computing a fresh intermediate tensor and returns the
    /// new tensor's id.
    ///
    /// # Panics
    ///
    /// Panics if `reduce` and `reduce_op` presence disagree.
    #[allow(clippy::too_many_arguments)]
    pub fn add_te(
        &mut self,
        name: &str,
        shape: Shape,
        dtype: DType,
        inputs: Vec<TensorId>,
        reduce: Vec<i64>,
        reduce_op: Option<ReduceOp>,
        body: ScalarExpr,
    ) -> TensorId {
        assert_eq!(
            reduce.is_empty(),
            reduce_op.is_none(),
            "reduce axes and reduce_op must agree"
        );
        let output = self.add_tensor(name, shape, dtype, TensorKind::Intermediate);
        let te_id = TeId(self.tes.len());
        self.tes.push(TensorExpr {
            name: name.to_string(),
            output,
            inputs,
            reduce,
            reduce_op,
            body,
        });
        self.producer.insert(output, te_id);
        output
    }

    /// Appends an already-built [`TensorExpr`] defining `te.output`.
    ///
    /// # Panics
    ///
    /// Panics if the output tensor already has a producer.
    pub fn push_te(&mut self, te: TensorExpr) -> TeId {
        assert!(
            !self.producer.contains_key(&te.output),
            "{} already has a producer",
            te.output
        );
        let id = TeId(self.tes.len());
        self.producer.insert(te.output, id);
        self.tes.push(te);
        id
    }

    /// Marks a tensor as a program output.
    pub fn mark_output(&mut self, id: TensorId) {
        self.tensors[id.0].kind = TensorKind::Output;
    }

    /// Tensor metadata.
    ///
    /// # Panics
    ///
    /// Panics if the id is stale.
    pub fn tensor(&self, id: TensorId) -> &TensorInfo {
        &self.tensors[id.0]
    }

    /// All tensors in id order.
    pub fn tensors(&self) -> &[TensorInfo] {
        &self.tensors
    }

    /// The TE with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id is stale.
    pub fn te(&self, id: TeId) -> &TensorExpr {
        &self.tes[id.0]
    }

    /// All TEs in definition (topological) order.
    pub fn tes(&self) -> &[TensorExpr] {
        &self.tes
    }

    /// Ids of all TEs in definition order.
    pub fn te_ids(&self) -> impl Iterator<Item = TeId> + '_ {
        (0..self.tes.len()).map(TeId)
    }

    /// Number of TEs.
    pub fn num_tes(&self) -> usize {
        self.tes.len()
    }

    /// Number of tensors.
    pub fn num_tensors(&self) -> usize {
        self.tensors.len()
    }

    /// The TE defining `tensor`, or `None` for inputs/weights.
    pub fn producer_of(&self, tensor: TensorId) -> Option<TeId> {
        self.producer.get(&tensor).copied()
    }

    /// The TEs reading each tensor, indexed by tensor id, each list in
    /// definition order, built in one pass over the TEs.
    pub fn consumer_lists(&self) -> Vec<Vec<TeId>> {
        let mut lists = vec![Vec::new(); self.tensors.len()];
        for (i, te) in self.tes.iter().enumerate() {
            for (k, input) in te.inputs.iter().enumerate() {
                if !te.inputs[..k].contains(input) {
                    lists[input.0].push(TeId(i));
                }
            }
        }
        lists
    }

    /// Output shape of a TE.
    pub fn output_shape(&self, id: TeId) -> &Shape {
        &self.tensors[self.tes[id.0].output.0].shape
    }

    /// Tensors marked as program outputs.
    pub fn outputs(&self) -> Vec<TensorId> {
        self.tensors
            .iter()
            .enumerate()
            .filter(|(_, t)| t.kind == TensorKind::Output)
            .map(|(i, _)| TensorId(i))
            .collect()
    }

    /// Tensors that must be bound by the caller (inputs and weights).
    pub fn free_tensors(&self) -> Vec<TensorId> {
        self.tensors
            .iter()
            .enumerate()
            .filter(|(_, t)| matches!(t.kind, TensorKind::Input | TensorKind::Weight))
            .map(|(i, _)| TensorId(i))
            .collect()
    }

    /// Structural validation: operand arity/rank, variable ranges, bounds
    /// of unguarded accesses (interval arithmetic over the box domain),
    /// topological order, and single-producer property.
    ///
    /// # Errors
    ///
    /// Returns the first violation found.
    pub fn validate(&self) -> Result<(), ValidateError> {
        let mut defined: Vec<bool> = self
            .tensors
            .iter()
            .map(|t| matches!(t.kind, TensorKind::Input | TensorKind::Weight))
            .collect();
        let mut produced = vec![false; self.tensors.len()];

        for (i, te) in self.tes.iter().enumerate() {
            let te_id = TeId(i);
            if produced[te.output.0] {
                return Err(ValidateError::MultipleProducers { tensor: te.output });
            }
            produced[te.output.0] = true;
            if te.reduce.is_empty() != te.reduce_op.is_none() {
                return Err(ValidateError::ReduceOpMismatch { te: te_id });
            }
            let out_shape = &self.tensors[te.output.0].shape;
            let n_vars = out_shape.rank() + te.reduce.len();
            // Fold binders live above the free variables, so only *free*
            // occurrences are range-checked against the TE's own space.
            if let Some(max_var) = te.body.max_free_var() {
                if max_var >= n_vars {
                    return Err(ValidateError::VarOutOfRange {
                        te: te_id,
                        max_var,
                        n_vars,
                    });
                }
            }
            // Variable bounds for interval checking: iteration vars then
            // reduction vars.
            let mut var_bounds: Vec<i64> = out_shape.dims().to_vec();
            var_bounds.extend_from_slice(&te.reduce);

            for (operand, indices) in te.body.accesses() {
                let Some(&tensor_id) = te.inputs.get(operand) else {
                    return Err(ValidateError::BadOperand { te: te_id, operand });
                };
                if !defined[tensor_id.0] {
                    return Err(ValidateError::UseBeforeDef {
                        te: te_id,
                        tensor: tensor_id,
                    });
                }
                let t = &self.tensors[tensor_id.0];
                if indices.len() != t.shape.rank() {
                    return Err(ValidateError::RankMismatch {
                        te: te_id,
                        operand,
                        got: indices.len(),
                        want: t.shape.rank(),
                    });
                }
            }
            // Bounds-check only accesses not nested under a Select guard.
            check_bounds(&te.body, te_id, &var_bounds, &self.bounds_ctx(te), false)?;
            defined[te.output.0] = true;
        }
        Ok(())
    }

    fn bounds_ctx<'a>(&'a self, te: &'a TensorExpr) -> impl Fn(usize) -> Option<&'a Shape> + 'a {
        move |operand: usize| te.inputs.get(operand).map(|id| &self.tensors[id.0].shape)
    }

    /// Total bytes of all weight tensors (model size).
    pub fn weight_bytes(&self) -> u64 {
        self.tensors
            .iter()
            .filter(|t| t.kind == TensorKind::Weight)
            .map(TensorInfo::size_bytes)
            .sum()
    }
}

/// Conservative interval of an index expression over a box domain given by
/// extents (each variable ranges over `0..bounds[i]`).
fn interval(e: &IndexExpr, bounds: &[i64]) -> (i64, i64) {
    let pairs: Vec<(i64, i64)> = bounds.iter().map(|&b| (0, b - 1)).collect();
    e.interval(&pairs)
}

fn check_bounds<'a>(
    body: &ScalarExpr,
    te: TeId,
    var_bounds: &[i64],
    shape_of: &impl Fn(usize) -> Option<&'a Shape>,
    guarded: bool,
) -> Result<(), ValidateError> {
    match body {
        ScalarExpr::Const(_) | ScalarExpr::IndexValue(_) => Ok(()),
        ScalarExpr::Input { operand, indices } => {
            if guarded {
                return Ok(()); // runtime-checked by the interpreter
            }
            let Some(shape) = shape_of(*operand) else {
                return Ok(()); // reported elsewhere
            };
            for (axis, idx) in indices.iter().enumerate() {
                let (lo, hi) = interval(idx, var_bounds);
                let extent = shape.dim(axis);
                if lo < 0 || hi >= extent {
                    return Err(ValidateError::OutOfBounds {
                        te,
                        operand: *operand,
                        axis,
                        interval: (lo, hi),
                        extent,
                    });
                }
            }
            Ok(())
        }
        ScalarExpr::Unary(_, a) => check_bounds(a, te, var_bounds, shape_of, guarded),
        ScalarExpr::Binary(_, a, b) => {
            check_bounds(a, te, var_bounds, shape_of, guarded)?;
            check_bounds(b, te, var_bounds, shape_of, guarded)
        }
        ScalarExpr::Select {
            on_true, on_false, ..
        } => {
            check_bounds(on_true, te, var_bounds, shape_of, true)?;
            check_bounds(on_false, te, var_bounds, shape_of, true)
        }
        ScalarExpr::Reduce {
            var, extent, body, ..
        } => {
            // The binder ranges over 0..extent inside the fold body.
            // Binders may be allocated sparsely above the free variables;
            // pad any gap with extent 1 (those variables never occur).
            let mut inner = var_bounds.to_vec();
            if inner.len() <= *var {
                inner.resize(*var + 1, 1);
            }
            inner[*var] = (*extent).max(1);
            check_bounds(body, te, &inner, shape_of, guarded)
        }
    }
}

impl fmt::Display for TeProgram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "TeProgram ({} tensors, {} TEs)",
            self.tensors.len(),
            self.tes.len()
        )?;
        for (i, t) in self.tensors.iter().enumerate() {
            writeln!(
                f,
                "  t{i}: {} {} {:?} \"{}\"",
                t.dtype, t.shape, t.kind, t.name
            )?;
        }
        for te in &self.tes {
            writeln!(f, "  {te}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{BinaryOp, CmpOp, Cond, UnaryOp};
    use crate::ReduceOp;

    fn simple_program() -> (TeProgram, TensorId, TensorId) {
        let mut p = TeProgram::new();
        let a = p.add_input("A", Shape::new(vec![8]), DType::F32);
        let b = p.add_te(
            "exp",
            Shape::new(vec![8]),
            DType::F32,
            vec![a],
            vec![],
            None,
            ScalarExpr::unary(UnaryOp::Exp, ScalarExpr::input(0, vec![IndexExpr::var(0)])),
        );
        p.mark_output(b);
        (p, a, b)
    }

    #[test]
    fn build_and_validate() {
        let (p, a, b) = simple_program();
        assert!(p.validate().is_ok());
        assert_eq!(p.producer_of(b), Some(TeId(0)));
        assert_eq!(p.producer_of(a), None);
        assert_eq!(p.consumer_lists()[a.0], vec![TeId(0)]);
        assert_eq!(p.outputs(), vec![b]);
        assert_eq!(p.free_tensors(), vec![a]);
    }

    #[test]
    fn detects_out_of_bounds() {
        let mut p = TeProgram::new();
        let a = p.add_input("A", Shape::new(vec![4]), DType::F32);
        p.add_te(
            "bad",
            Shape::new(vec![8]),
            DType::F32,
            vec![a],
            vec![],
            None,
            ScalarExpr::input(0, vec![IndexExpr::var(0)]), // v0 in [0,8), A has extent 4
        );
        match p.validate() {
            Err(ValidateError::OutOfBounds { extent: 4, .. }) => {}
            other => panic!("expected OutOfBounds, got {other:?}"),
        }
    }

    #[test]
    fn guarded_access_is_allowed() {
        let mut p = TeProgram::new();
        let a = p.add_input("A", Shape::new(vec![4]), DType::F32);
        p.add_te(
            "padded",
            Shape::new(vec![8]),
            DType::F32,
            vec![a],
            vec![],
            None,
            ScalarExpr::select(
                Cond::cmp(CmpOp::Lt, IndexExpr::var(0), IndexExpr::constant(4)),
                ScalarExpr::input(0, vec![IndexExpr::var(0)]),
                ScalarExpr::Const(0.0),
            ),
        );
        assert!(p.validate().is_ok());
    }

    #[test]
    fn detects_rank_mismatch() {
        let mut p = TeProgram::new();
        let a = p.add_input("A", Shape::new(vec![4, 4]), DType::F32);
        p.add_te(
            "bad",
            Shape::new(vec![4]),
            DType::F32,
            vec![a],
            vec![],
            None,
            ScalarExpr::input(0, vec![IndexExpr::var(0)]),
        );
        assert!(matches!(
            p.validate(),
            Err(ValidateError::RankMismatch {
                want: 2,
                got: 1,
                ..
            })
        ));
    }

    #[test]
    fn detects_var_out_of_range() {
        let mut p = TeProgram::new();
        let a = p.add_input("A", Shape::new(vec![4]), DType::F32);
        p.add_te(
            "bad",
            Shape::new(vec![4]),
            DType::F32,
            vec![a],
            vec![],
            None,
            ScalarExpr::input(0, vec![IndexExpr::var(1)]),
        );
        assert!(matches!(
            p.validate(),
            Err(ValidateError::VarOutOfRange {
                max_var: 1,
                n_vars: 1,
                ..
            })
        ));
    }

    #[test]
    fn detects_bad_operand() {
        let mut p = TeProgram::new();
        let _a = p.add_input("A", Shape::new(vec![4]), DType::F32);
        p.add_te(
            "bad",
            Shape::new(vec![4]),
            DType::F32,
            vec![], // no operands bound
            vec![],
            None,
            ScalarExpr::input(0, vec![IndexExpr::var(0)]),
        );
        assert!(matches!(
            p.validate(),
            Err(ValidateError::BadOperand { operand: 0, .. })
        ));
    }

    #[test]
    fn reduction_gemm_validates() {
        let mut p = TeProgram::new();
        let a = p.add_input("A", Shape::new(vec![4, 8]), DType::F16);
        let b = p.add_weight("B", Shape::new(vec![8, 16]), DType::F16);
        let c = p.add_te(
            "gemm",
            Shape::new(vec![4, 16]),
            DType::F16,
            vec![a, b],
            vec![8],
            Some(ReduceOp::Sum),
            ScalarExpr::binary(
                BinaryOp::Mul,
                ScalarExpr::input(0, vec![IndexExpr::var(0), IndexExpr::var(2)]),
                ScalarExpr::input(1, vec![IndexExpr::var(2), IndexExpr::var(1)]),
            ),
        );
        p.mark_output(c);
        assert!(p.validate().is_ok());
        assert_eq!(p.weight_bytes(), 8 * 16 * 2);
    }

    #[test]
    #[should_panic(expected = "must agree")]
    fn reduce_mismatch_panics_on_build() {
        let mut p = TeProgram::new();
        let a = p.add_input("A", Shape::new(vec![4]), DType::F32);
        p.add_te(
            "bad",
            Shape::new(vec![4]),
            DType::F32,
            vec![a],
            vec![4],
            None, // missing reduce op
            ScalarExpr::input(0, vec![IndexExpr::var(0)]),
        );
    }

    #[test]
    fn display_lists_tensors_and_tes() {
        let (p, _, _) = simple_program();
        let s = p.to_string();
        assert!(s.contains("TeProgram"));
        assert!(s.contains("exp"));
    }
}
