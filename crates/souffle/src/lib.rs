#![warn(missing_docs)]
//! # Souffle: optimizing DNN inference via global analysis and tensor
//! # expressions — a Rust reproduction
//!
//! This crate is the top of the reproduction of *Optimizing Deep Learning
//! Inference via Global Analysis and Tensor Expressions* (ASPLOS 2024): a
//! **top-down** DNN inference optimizer. Instead of bottom-up operator
//! fusion, Souffle
//!
//! 1. lowers the whole model to tensor expressions (`souffle-te`),
//! 2. runs a global analysis over the complete tensor dependency graph —
//!    data reuse, element-wise dependence, compute/memory classification,
//!    liveness (`souffle-analysis`, §5),
//! 3. partitions the TE program into subprograms under the
//!    max-blocks-per-wave constraint needed for grid synchronization
//!    (§5.4),
//! 4. applies semantic-preserving horizontal/vertical TE transformations
//!    (`souffle-transform`, §6.1–6.2),
//! 5. merges each subprogram's schedules into one kernel with predicates
//!    and `grid.sync()` (§6.4), and
//! 6. optimizes inside each kernel: instruction-level memory/compute
//!    pipelining and LRU tensor-buffer reuse (§6.5).
//!
//! The hardware side of the paper (A100 + Nsight Compute) is substituted
//! by the `souffle-gpusim` simulator; see `DESIGN.md` for the
//! substitution map.
//!
//! # Quickstart
//!
//! ```
//! use souffle::{Souffle, SouffleOptions};
//! use souffle_frontend::{build_model, Model, ModelConfig};
//!
//! let program = build_model(Model::Mmoe, ModelConfig::Paper);
//! let souffle = Souffle::new(SouffleOptions::full());
//! let compiled = souffle.compile(&program);
//! let profile = souffle.simulate(&compiled);
//! println!(
//!     "MMoE: {} kernels, {:.3} ms",
//!     profile.num_kernel_calls(),
//!     profile.total_time_ms()
//! );
//! assert!(profile.num_kernel_calls() >= 1);
//! ```

pub mod dynamic;
mod options;
mod pipeline;
pub mod report;

pub use dynamic::{ShapeCache, ShapeClass};
pub use options::SouffleOptions;
pub use pipeline::{CompileStats, Compiled, GraphCompiled, GraphPart, Souffle};

// Re-export the component crates so downstream users need one dependency.
pub use souffle_affine as affine;
pub use souffle_analysis as analysis;
pub use souffle_baselines as baselines;
pub use souffle_frontend as frontend;
pub use souffle_gpusim as gpusim;
pub use souffle_kernel as kernel;
pub use souffle_sched as sched;
pub use souffle_te as te;
pub use souffle_tensor as tensor;
pub use souffle_trace as trace;
pub use souffle_transform as transform;
pub use souffle_verify as verify;
