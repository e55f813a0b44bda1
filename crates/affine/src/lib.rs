#![warn(missing_docs)]
//! Quasi-affine index arithmetic for the Souffle reproduction.
//!
//! Souffle (§5.2) represents element-wise dependence of *one-relies-on-one*
//! tensor expressions as quasi-affine maps `M·v + c` (Eq. 1) and composes
//! them during vertical transformation (Eq. 2, §6.2). This crate provides:
//!
//! - [`IndexExpr`]: integer index expressions over positional variables with
//!   `+`, `-`, constant `*`, floor-division and modulo (the "quasi" part,
//!   needed for `reshape`-style linearize/delinearize),
//! - [`IndexMap`]: a vector of index expressions mapping output coordinates
//!   to input coordinates, with substitution-based composition,
//! - [`AffineMatrix`]: the pure-affine matrix form `M·v + c` from the paper,
//!   extracted from an [`IndexMap`] whenever the map is affine,
//! - [`DependenceKind`]: the §5.2 classification of a TE's element-wise
//!   dependence, which `souffle_te::TensorExpr::dependence_kind` computes.
//!
//! # Example: the paper's Fig. 4 composition
//!
//! ```
//! use souffle_affine::{AffineMatrix, IndexMap};
//!
//! // relu: identity; strided_slice: (i,j) -> (2i, j); permute: (i,j) -> (j,i)
//! let relu = IndexMap::identity(2);
//! let slice = AffineMatrix::new(vec![vec![2, 0], vec![0, 1]], vec![0, 0]).to_index_map();
//! let permute = AffineMatrix::new(vec![vec![0, 1], vec![1, 0]], vec![0, 0]).to_index_map();
//!
//! // D[i,j] reads A at slice(permute(i,j)): relu ∘ slice ∘ permute
//! let composed = relu.compose(&slice).compose(&permute);
//! assert_eq!(composed.eval(&[3, 1]), vec![2, 3]);
//! let m = composed.as_matrix().expect("composition of affine maps is affine");
//! assert_eq!(m.matrix(), &[vec![0, 2], vec![1, 0]]);
//! ```

mod expr;
mod map;
mod relation;
mod sym;

pub use expr::IndexExpr;
pub use map::{AffineMatrix, IndexMap};
pub use relation::DependenceKind;
pub use sym::{sym_interval, SymAffine};
