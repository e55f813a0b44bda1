//! Tensor shapes and row-major index arithmetic.

use std::fmt;

/// A tensor shape: the extent of every dimension.
///
/// Shapes are immutable after construction. All extents must be positive; a
/// rank-0 shape denotes a scalar with one element.
///
/// ```
/// use souffle_tensor::Shape;
/// let s = Shape::new(vec![4, 8, 2]);
/// assert_eq!(s.rank(), 3);
/// assert_eq!(s.numel(), 64);
/// assert_eq!(s.strides(), vec![16, 2, 1]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Shape {
    dims: Vec<i64>,
}

impl Shape {
    /// Creates a shape from dimension extents.
    ///
    /// # Panics
    ///
    /// Panics if any extent is not positive.
    pub fn new(dims: Vec<i64>) -> Self {
        assert!(
            dims.iter().all(|&d| d > 0),
            "shape extents must be positive, got {dims:?}"
        );
        Shape { dims }
    }

    /// The scalar shape (rank 0, one element).
    pub fn scalar() -> Self {
        Shape { dims: Vec::new() }
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.dims.len()
    }

    /// Dimension extents.
    pub fn dims(&self) -> &[i64] {
        &self.dims
    }

    /// Extent of dimension `axis`.
    ///
    /// # Panics
    ///
    /// Panics if `axis >= rank()`.
    pub fn dim(&self, axis: usize) -> i64 {
        self.dims[axis]
    }

    /// Total number of elements.
    pub fn numel(&self) -> i64 {
        self.dims.iter().product()
    }

    /// Row-major strides (in elements).
    pub fn strides(&self) -> Vec<i64> {
        let mut strides = vec![1i64; self.dims.len()];
        for i in (0..self.dims.len().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * self.dims[i + 1];
        }
        strides
    }

    /// Converts a multi-dimensional index to a flat row-major offset.
    ///
    /// # Panics
    ///
    /// Panics if `index` has the wrong rank or any coordinate is out of
    /// bounds.
    pub fn linearize(&self, index: &[i64]) -> i64 {
        assert_eq!(
            index.len(),
            self.dims.len(),
            "index rank {} != shape rank {}",
            index.len(),
            self.dims.len()
        );
        let mut flat = 0i64;
        for (axis, (&i, &d)) in index.iter().zip(&self.dims).enumerate() {
            assert!(
                (0..d).contains(&i),
                "index {i} out of bounds for axis {axis} with extent {d}"
            );
            flat = flat * d + i;
        }
        flat
    }

    /// Converts a flat row-major offset back to a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics if `flat` is out of bounds.
    pub fn delinearize(&self, flat: i64) -> Vec<i64> {
        assert!(
            (0..self.numel()).contains(&flat),
            "flat index {flat} out of bounds for {self}"
        );
        let mut rem = flat;
        let mut index = vec![0i64; self.dims.len()];
        for axis in (0..self.dims.len()).rev() {
            index[axis] = rem % self.dims[axis];
            rem /= self.dims[axis];
        }
        index
    }

    /// Iterates over every multi-dimensional index in row-major order.
    pub fn indices(&self) -> IndexIter {
        IndexIter {
            shape: self.clone(),
            next_flat: 0,
        }
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, d) in self.dims.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, ")")
    }
}

impl From<Vec<i64>> for Shape {
    fn from(dims: Vec<i64>) -> Self {
        Shape::new(dims)
    }
}

impl From<&[i64]> for Shape {
    fn from(dims: &[i64]) -> Self {
        Shape::new(dims.to_vec())
    }
}

/// Iterator over the multi-dimensional indices of a [`Shape`], produced by
/// [`Shape::indices`].
#[derive(Debug, Clone)]
pub struct IndexIter {
    shape: Shape,
    next_flat: i64,
}

impl Iterator for IndexIter {
    type Item = Vec<i64>;

    fn next(&mut self) -> Option<Vec<i64>> {
        if self.next_flat >= self.shape.numel() {
            return None;
        }
        let idx = self.shape.delinearize(self.next_flat);
        self.next_flat += 1;
        Some(idx)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = (self.shape.numel() - self.next_flat).max(0) as usize;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for IndexIter {}

#[cfg(test)]
mod tests {
    use super::*;
    use souffle_testkit::{forall, tk_assert_eq, Config};

    #[test]
    fn scalar_shape() {
        let s = Shape::scalar();
        assert_eq!(s.rank(), 0);
        assert_eq!(s.numel(), 1);
        assert_eq!(s.linearize(&[]), 0);
        assert_eq!(s.delinearize(0), Vec::<i64>::new());
    }

    #[test]
    fn linearize_matches_strides() {
        let s = Shape::new(vec![3, 4, 5]);
        let strides = s.strides();
        assert_eq!(strides, vec![20, 5, 1]);
        assert_eq!(s.linearize(&[2, 1, 3]), 2 * 20 + 5 + 3);
    }

    #[test]
    fn indices_row_major() {
        let s = Shape::new(vec![2, 2]);
        let all: Vec<_> = s.indices().collect();
        assert_eq!(all, vec![vec![0, 0], vec![0, 1], vec![1, 0], vec![1, 1]]);
    }

    #[test]
    fn index_iter_len() {
        let s = Shape::new(vec![2, 3]);
        assert_eq!(s.indices().len(), 6);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn linearize_out_of_bounds_panics() {
        Shape::new(vec![2, 2]).linearize(&[0, 2]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_extent_panics() {
        Shape::new(vec![2, 0]);
    }

    #[test]
    fn display_format() {
        assert_eq!(Shape::new(vec![2, 3]).to_string(), "(2, 3)");
        assert_eq!(Shape::scalar().to_string(), "()");
    }

    forall!(
        linearize_delinearize_roundtrip,
        Config::with_cases(64),
        |rng| (rng.vec(1..4, |r| r.i64_in(1..6)), rng.i64_in(0..10_000)),
        |(dims, seed)| {
            if dims.iter().any(|&d| d < 1) {
                return Ok(()); // shrunk-out-of-domain candidate
            }
            let s = Shape::new(dims.clone());
            let flat = seed % s.numel();
            let idx = s.delinearize(flat);
            tk_assert_eq!(s.linearize(&idx), flat);
            Ok(())
        }
    );

    forall!(
        indices_cover_all,
        Config::with_cases(64),
        |rng| rng.vec(1..4, |r| r.i64_in(1..5)),
        |dims| {
            if dims.iter().any(|&d| d < 1) {
                return Ok(());
            }
            let s = Shape::new(dims.clone());
            let all: Vec<_> = s.indices().collect();
            tk_assert_eq!(all.len() as i64, s.numel());
            for (flat, idx) in all.iter().enumerate() {
                tk_assert_eq!(s.linearize(idx), flat as i64);
            }
            Ok(())
        }
    );
}
