//! souffle-verify: static IR verifier for TE programs and merged kernels.
//!
//! The paper's global optimizations — horizontal fusion (§6.1), vertical
//! composition of index maps (§5.2, Eq. 2), schedule-based merging into
//! single-launch kernels (§6.2), and shared-memory reuse (§6.4/§6.5) —
//! all rewrite the IR aggressively. This crate re-proves the invariants
//! those rewrites must preserve, after every pipeline stage:
//!
//! 1. **Well-formedness** (`wellformed`): def-before-use, the
//!    single-producer property, operand arity/rank agreement, index-
//!    variable ranges, reduction sanity, non-empty shapes.
//! 2. **Affine bounds** (`bounds`): saturating interval evaluation of
//!    every unguarded quasi-affine access over its box domain, proving
//!    loads in-bounds — including accesses produced by Eq. 2 composition.
//! 3. **Merged-kernel safety** (`races`): cross-stage producer→consumer
//!    pairs and write-write conflicts inside one kernel launch must be
//!    separated by a grid-wide sync.
//! 4. **Lints** (`lint`): dead TEs and unused caller-bound inputs
//!    (warnings — legal but almost always a pipeline bug).
//!
//! Findings come back as [`Diagnostics`]: stable `SVxxx` codes, fixed
//! severities, and locations that name the TE/tensor/instruction at
//! fault. Nothing in this crate mutates the IR.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod certify;
pub mod diag;
pub mod symbolic;

mod bounds;
mod lint;
mod races;
mod wellformed;

pub use certify::{
    certify_batch, certify_default, certify_schedule, certify_transform, Certificate, CERTIFY_ENV,
};
pub use diag::{Code, Diagnostic, Diagnostics, Loc, Severity};
pub use symbolic::{verify_dyn, verify_dyn_spec, SymVerifyReport};

use souffle_kernel::Kernel;
use souffle_te::TeProgram;

/// Runs every program-level pass (well-formedness, bounds, lints) over
/// `program` and returns the findings.
pub fn verify_program(program: &TeProgram) -> Diagnostics {
    let mut diags = Diagnostics::new();
    wellformed::check(program, &mut diags);
    bounds::check(program, &mut diags);
    lint::check(program, &mut diags);
    diags
}

/// Like [`verify_program`], tagging every finding with a pipeline stage
/// label (`"frontend"`, `"vertical"`, …).
pub fn verify_program_stage(program: &TeProgram, stage: &str) -> Diagnostics {
    let mut diags = verify_program(program);
    diags.tag_stage(stage);
    diags
}

/// Runs the merged-kernel safety pass over lowered kernels.
pub fn verify_kernels(program: &TeProgram, kernels: &[Kernel]) -> Diagnostics {
    let mut diags = Diagnostics::new();
    races::check(program, kernels, &mut diags);
    diags
}

/// Like [`verify_kernels`], tagging every finding with a stage label.
pub fn verify_kernels_stage(program: &TeProgram, kernels: &[Kernel], stage: &str) -> Diagnostics {
    let mut diags = verify_kernels(program, kernels);
    diags.tag_stage(stage);
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use souffle_te::builders;
    use souffle_tensor::{DType, Shape};

    #[test]
    fn verify_program_runs_all_passes() {
        let mut p = TeProgram::new();
        let a = p.add_input("A", Shape::new(vec![4]), DType::F32);
        let _unused = p.add_input("U", Shape::new(vec![4]), DType::F32);
        let e = builders::exp(&mut p, "e", a);
        let _dead = builders::relu(&mut p, "dead", a);
        p.mark_output(e);
        let d = verify_program_stage(&p, "frontend");
        // Lint findings only; the program is structurally sound.
        assert!(!d.has_errors(), "{d}");
        assert!(d.has_code(Code::DeadTe));
        assert!(d.has_code(Code::UnusedInput));
        assert!(d.iter().all(|x| x.stage.as_deref() == Some("frontend")));
    }

    #[test]
    fn verify_kernels_is_clean_on_no_kernels() {
        let p = TeProgram::new();
        assert!(verify_kernels(&p, &[]).is_empty());
    }
}
