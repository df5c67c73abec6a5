//! Error type for the relational data model.

use std::fmt;

/// Errors produced by relational data-model operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RelationalError {
    /// An attribute index referenced a position past the end of the schema.
    AttrOutOfBounds {
        /// The offending attribute index.
        attr: usize,
        /// The arity of the schema it was applied to.
        arity: usize,
    },
    /// A key arity was requested that does not fit the schema.
    BadKeyArity {
        /// The requested key arity.
        key_arity: usize,
        /// The arity of the schema.
        arity: usize,
    },
    /// Two relations were combined whose schemas are incompatible for the
    /// requested operation.
    SchemaMismatch {
        /// Human-readable description of the mismatch.
        detail: String,
    },
    /// Raw tuple data did not match the schema (wrong word count).
    MalformedData {
        /// Number of raw words supplied.
        words: usize,
        /// Tuple arity expected by the schema.
        arity: usize,
    },
    /// A relation constructor requiring sorted input observed out-of-order
    /// tuples.
    NotSorted {
        /// Index of the first out-of-order tuple.
        index: usize,
    },
    /// A row range was inverted or ended past the relation's last tuple.
    RowRangeOutOfBounds {
        /// First row of the requested range.
        start: usize,
        /// One past the last row of the requested range.
        end: usize,
        /// Number of tuples in the relation.
        len: usize,
    },
    /// A typed value did not match the attribute type it was compared to or
    /// stored into.
    TypeMismatch {
        /// What was expected.
        expected: crate::AttrType,
        /// What was found.
        found: crate::AttrType,
    },
}

impl fmt::Display for RelationalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RelationalError::AttrOutOfBounds { attr, arity } => {
                write!(f, "attribute index {attr} out of bounds for arity {arity}")
            }
            RelationalError::BadKeyArity { key_arity, arity } => {
                write!(f, "key arity {key_arity} invalid for arity {arity}")
            }
            RelationalError::SchemaMismatch { detail } => {
                write!(f, "schema mismatch: {detail}")
            }
            RelationalError::MalformedData { words, arity } => {
                write!(
                    f,
                    "raw data of {words} words is not a multiple of arity {arity}"
                )
            }
            RelationalError::NotSorted { index } => {
                write!(f, "tuple at index {index} violates key sort order")
            }
            RelationalError::RowRangeOutOfBounds { start, end, len } => {
                write!(f, "row range {start}..{end} invalid for {len} tuples")
            }
            RelationalError::TypeMismatch { expected, found } => {
                write!(f, "type mismatch: expected {expected}, found {found}")
            }
        }
    }
}

impl std::error::Error for RelationalError {}

/// Convenience alias for results in this crate.
pub type Result<T> = std::result::Result<T, RelationalError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty() {
        let e = RelationalError::NotSorted { index: 3 };
        assert!(!e.to_string().is_empty());
        let e = RelationalError::SchemaMismatch {
            detail: "arity".into(),
        };
        assert!(e.to_string().contains("arity"));
    }
}
