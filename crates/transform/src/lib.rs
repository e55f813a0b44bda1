#![warn(missing_docs)]
//! Semantic-preserving TE transformations (§6 of the paper).
//!
//! Two rewrites run over a TE program:
//!
//! - **Vertical transformation** (§6.2, [`vertical`]): chains of
//!   *one-relies-on-one* TEs are collapsed into a single TE by composing
//!   their index mapping functions (Eq. 2). Implementation-wise the
//!   producer's body is inlined into the consumer with index substitution —
//!   the general (quasi-affine) form of the paper's matrix composition.
//!   Pure memory operators (reshape/transpose/slice views) are additionally
//!   folded into *any* consumer, including reductions, which is how Souffle
//!   "eliminates all element-wise memory operators" (§2.3).
//!
//! - **Horizontal transformation** (§6.1, [`horizontal`], Fig. 3):
//!   independent TEs with identical reduction signatures are concatenated
//!   into one TE guarded by `if_then_else` predicates, increasing
//!   parallelism and letting a shared input be loaded once.
//!
//! A third, data-movement-aware rewrite ([`reduction`]) runs after the
//! two above in the pipeline: single-axis reductions consumed broadcast-
//! style (softmax denominators, layernorm moments) are carried *inline*
//! in their consumers as scoped folds, gated by the bytes-moved cost
//! model in [`traffic`]. It is not part of [`transform_program`] — the
//! pipeline stages it separately so it can be toggled and verified on
//! its own.
//!
//! Both rewrites return a *new* program; the original is untouched. Every
//! rewrite is checked in tests by evaluating both programs with the
//! reference interpreter on random inputs.

pub mod batch;
pub mod horizontal;
pub mod reduction;
pub mod sym_traffic;
pub mod traffic;
pub mod vertical;

mod rewrite;

pub use batch::{batch_bindings, batch_program, batch_program_logged, split_batch, stack_tensors};
pub use horizontal::{
    find_horizontal_groups, horizontal_fuse_program, horizontal_fuse_program_logged,
};
pub use reduction::{
    reduction_fuse_program, reduction_fuse_program_logged, FusionStats, REDUCTION_FUSION_ENV,
};
pub use rewrite::TransformStats;
pub use sym_traffic::{program_bytes_poly, te_bytes_poly, SymTraffic};
pub use traffic::{program_traffic, te_traffic, Traffic};
pub use vertical::{vertical_fuse_program, vertical_fuse_program_logged};

use souffle_te::TeProgram;

/// Runs horizontal then vertical transformation to fixpoint — the §6
/// transformation stage as a single call. Returns the transformed program
/// and combined statistics.
pub fn transform_program(program: &TeProgram) -> (TeProgram, TransformStats) {
    let (p1, h) = horizontal_fuse_program(program);
    let (p2, v) = vertical_fuse_program(&p1);
    (
        p2,
        TransformStats {
            horizontal_groups: h.horizontal_groups,
            vertical_fused: v.vertical_fused,
            tes_before: program.num_tes(),
            tes_after: v.tes_after,
        },
    )
}
