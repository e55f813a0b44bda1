#![warn(missing_docs)]
//! Tensor expressions (TEs): the intermediate representation of the Souffle
//! reproduction.
//!
//! A [`TensorExpr`] describes how each element of an output tensor is
//! computed from input tensors, exactly in the spirit of TVM's
//! `te.compute` (§3 of the paper): iteration variables are implied by the
//! output shape, reduction axes carry explicit extents, and the body is a
//! pure scalar expression over quasi-affine accesses into the inputs.
//!
//! A [`TeProgram`] is an ordered list of TEs over a tensor table — the
//! "TE program" the paper's global analysis, partitioning, and
//! transformations operate on.
//!
//! The crate also provides:
//!
//! - [`builders`]: convenience constructors for the operator vocabulary the
//!   paper supports (element-wise, broadcast, reductions including GEMM and
//!   convolution, reshape/transpose-style memory operators),
//! - [`interp`]: a reference interpreter used to verify that every compiler
//!   transformation is semantics-preserving,
//! - [`compile`]: a bytecode compiler whose VM evaluates programs 10–100×
//!   faster than the interpreter (strength-reduced affine indexing,
//!   multi-threaded iteration) with bit-identical results,
//! - structural [`validate`](TeProgram::validate) checks (shape/rank/bounds
//!   consistency) run by tests and by the pipeline entry points.
//!
//! # Example: the paper's working example, TE0/TE1 (Fig. 2)
//!
//! ```
//! use souffle_te::{builders, TeProgram};
//! use souffle_tensor::{DType, Shape, Tensor};
//!
//! let mut p = TeProgram::new();
//! let i0 = p.add_input("I0", Shape::new(vec![64, 64]), DType::F16);
//! let w0 = p.add_weight("W0", Shape::new(vec![64, 64]), DType::F16);
//! let o0 = builders::matmul(&mut p, "TE0", i0, w0);
//! let o1 = builders::sigmoid(&mut p, "TE1", o0);
//! p.mark_output(o1);
//! p.validate().unwrap();
//!
//! let out = souffle_te::interp::eval_program(
//!     &p,
//!     &[(i0, Tensor::random(Shape::new(vec![64, 64]), 1)),
//!       (w0, Tensor::random(Shape::new(vec![64, 64]), 2))].into_iter().collect(),
//! ).unwrap();
//! assert_eq!(out[&o1].shape().dims(), &[64, 64]);
//! ```

pub mod arena;
pub mod builders;
pub mod canon;
pub mod compile;
mod expr;
pub mod grad;
pub mod interp;
pub mod kernels;
pub mod pool;
mod program;
pub mod rewrite_log;
pub mod runtime;
pub mod source;
pub mod sym;
mod te;
mod vm;

pub use arena::{ArenaStats, BufferArena};
pub use compile::{compile_program, CompiledProgram, CompiledTe, Evaluator};
pub use expr::{BinaryOp, CmpOp, Cond, ScalarExpr, UnaryOp};
pub use kernels::{FallbackReason, KernelStats, KERNEL_TIER_ENV};
pub use pool::{PoolStats, ThreadPool};
pub use program::{TeProgram, TensorId, TensorInfo, TensorKind, ValidateError};
pub use rewrite_log::{Rewrite, RewriteLog};
pub use runtime::{ExecPlan, Runtime, RuntimeOptions, RuntimeStats};
pub use sym::{
    DerivedInput, Dim, DimPoly, DynProgram, DynSource, DynSpec, PerStep, SymBinding, SymDecl,
    SymId, SymTable,
};
pub use te::{ReduceOp, TeId, TensorExpr};
pub use vm::{thread_count, THREADS_ENV};

/// Reads the on/off switch in the environment variable `name`: `on`, `1`
/// or `true` is `Some(true)`, `off`, `0` or `false` is `Some(false)`,
/// ignoring case and surrounding whitespace; unset or anything else is
/// `None`. Every `SOUFFLE_*` on/off override is parsed here.
pub fn env_flag(name: &str) -> Option<bool> {
    match std::env::var(name)
        .ok()?
        .trim()
        .to_ascii_lowercase()
        .as_str()
    {
        "on" | "1" | "true" => Some(true),
        "off" | "0" | "false" => Some(false),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn env_flag_reads_on_and_off_and_nothing_else() {
        // A variable of this test's own, so parallel tests never see it.
        let name = "SOUFFLE_TE_ENV_FLAG_TEST";
        std::env::remove_var(name);
        assert_eq!(super::env_flag(name), None);
        for (value, want) in [
            (" On ", Some(true)),
            ("1", Some(true)),
            ("TRUE", Some(true)),
            ("off", Some(false)),
            ("0", Some(false)),
            ("False", Some(false)),
            ("yes", None),
            ("", None),
        ] {
            std::env::set_var(name, value);
            assert_eq!(super::env_flag(name), want, "{value:?}");
        }
        std::env::remove_var(name);
    }
}
