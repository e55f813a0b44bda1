//! The element-wise dependence classification of §5.2 of the paper.

use std::fmt;

/// Classification of the element-wise dependence of a TE (§5.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DependenceKind {
    /// No reduction axis: each output element relies on exactly one element
    /// of each input (representable as a quasi-affine map).
    OneReliesOnOne,
    /// Has reduction axes: each output element relies on the whole reduced
    /// region of the inputs.
    OneReliesOnMany,
}

impl fmt::Display for DependenceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DependenceKind::OneReliesOnOne => f.write_str("one-relies-on-one"),
            DependenceKind::OneReliesOnMany => f.write_str("one-relies-on-many"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_display() {
        assert_eq!(
            DependenceKind::OneReliesOnOne.to_string(),
            "one-relies-on-one"
        );
        assert_eq!(
            DependenceKind::OneReliesOnMany.to_string(),
            "one-relies-on-many"
        );
    }
}
