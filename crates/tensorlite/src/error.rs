//! Error type for tensor operations.

use std::error::Error;
use std::fmt;

/// Errors produced by tensor construction and kernels.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TensorError {
    /// The data length does not match the product of the shape dimensions.
    ShapeMismatch {
        /// Expected element count (product of dims).
        expected: usize,
        /// Actual data length.
        actual: usize,
    },
    /// Two operands have incompatible shapes for the requested operation.
    IncompatibleShapes {
        /// Left operand shape.
        left: Vec<usize>,
        /// Right operand shape.
        right: Vec<usize>,
        /// Name of the operation.
        op: &'static str,
    },
    /// The operation requires a different rank (e.g. matmul needs rank 2).
    BadRank {
        /// Expected rank.
        expected: usize,
        /// Actual rank.
        actual: usize,
        /// Name of the operation.
        op: &'static str,
    },
    /// An index was out of bounds.
    IndexOutOfBounds {
        /// The offending index.
        index: usize,
        /// The dimension size.
        len: usize,
    },
    /// The operation needs at least one element (a token, a sequence) and
    /// was given none.
    Empty {
        /// What was empty, e.g. `"sequence"` or `"batch"`.
        what: &'static str,
    },
    /// A collection must split into equal parts and does not.
    Indivisible {
        /// What was split, e.g. `"batch"`.
        what: &'static str,
        /// Its length.
        len: usize,
        /// The number of equal parts it must split into.
        parts: usize,
    },
}

impl fmt::Display for TensorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TensorError::ShapeMismatch { expected, actual } => {
                write!(f, "shape expects {expected} elements but data has {actual}")
            }
            TensorError::IncompatibleShapes { left, right, op } => {
                write!(f, "incompatible shapes {left:?} and {right:?} for {op}")
            }
            TensorError::BadRank {
                expected,
                actual,
                op,
            } => write!(f, "{op} requires rank {expected}, got rank {actual}"),
            TensorError::IndexOutOfBounds { index, len } => {
                write!(f, "index {index} out of bounds for dimension of size {len}")
            }
            TensorError::Empty { what } => write!(f, "{what} is empty"),
            TensorError::Indivisible { what, len, parts } => {
                write!(f, "{what} of {len} does not split into {parts} equal parts")
            }
        }
    }
}

impl Error for TensorError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = TensorError::ShapeMismatch {
            expected: 4,
            actual: 3,
        };
        assert!(e.to_string().contains('4'));
        let e = TensorError::BadRank {
            expected: 2,
            actual: 1,
            op: "matmul",
        };
        assert!(e.to_string().contains("matmul"));
        let e = TensorError::Empty { what: "batch" };
        assert_eq!(e.to_string(), "batch is empty");
        let e = TensorError::Indivisible {
            what: "batch",
            len: 3,
            parts: 2,
        };
        assert_eq!(
            e.to_string(),
            "batch of 3 does not split into 2 equal parts"
        );
    }

    #[test]
    fn send_sync() {
        fn check<T: Send + Sync>() {}
        check::<TensorError>();
    }
}
