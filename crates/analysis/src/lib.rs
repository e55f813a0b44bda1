#![warn(missing_docs)]
//! Global computation-graph analysis (§5 of the paper).
//!
//! Souffle's analyses all run on the tensor dependency graph of the whole
//! TE program:
//!
//! - [`graph::TeGraph`]: the dependency graph itself, with BFS order and
//!   reachability queries used by partitioning and Algorithm 1,
//! - [`reuse`]: tensor-level data-reuse detection (§5.1) — *spatial* reuse
//!   (one tensor consumed by independent TEs) and *temporal* reuse (one
//!   tensor consumed repeatedly along dependent TEs),
//! - [`classify`]: compute- vs. memory-intensive classification by the
//!   compute/memory ratio with the paper's threshold of 3 (§5.3),
//! - [`liveness`]: tensor live ranges across operator boundaries,
//! - [`partition`]: resource-aware TE program partitioning under the
//!   max-blocks-per-wave constraint required for grid synchronization
//!   (§5.4, greedy BFS),
//! - [`AnalysisResult`]: the bundle (OR/MR/MI/CI/SR/TR in Algorithm 1's
//!   notation) handed to the transformation stage.
//!
//! Element-wise dependence itself (one-relies-on-one / one-relies-on-many,
//! §5.2) is classified by `souffle_te::TensorExpr::dependence_kind` and
//! stored per TE in [`AnalysisResult::dependence`].

pub mod classify;
pub mod graph;
pub mod liveness;
pub mod partition;
pub mod reuse;

mod result;

pub use classify::{classify_program, classify_te, classify_te_with_threshold, TeClass};
pub use graph::TeGraph;
pub use liveness::{live_ranges, LiveRange};
pub use partition::{partition_program, Partition, Subprogram};
pub use result::AnalysisResult;
pub use reuse::{find_reuse, ReuseReport};
