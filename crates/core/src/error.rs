//! Error types for the `fair-core` crate.

use std::fmt;

/// Errors produced by dataset construction, ranking, and DCA configuration.
#[derive(Debug, Clone, PartialEq)]
pub enum FairError {
    /// A schema lookup failed (unknown feature or fairness-attribute name).
    UnknownAttribute {
        /// The name that was looked up.
        name: String,
    },
    /// A vector's dimensionality does not match the schema it is used with.
    DimensionMismatch {
        /// What the vector describes (e.g. "bonus vector", "feature weights").
        what: &'static str,
        /// Expected dimensionality.
        expected: usize,
        /// Provided dimensionality.
        actual: usize,
    },
    /// An attribute value is outside its declared domain (e.g. a binary
    /// fairness attribute that is neither 0 nor 1, or a non-finite value).
    InvalidValue {
        /// Which attribute.
        attribute: String,
        /// The offending value.
        value: f64,
        /// Explanation of the constraint that was violated.
        reason: &'static str,
    },
    /// A selection fraction `k` is outside `(0, 1]`.
    InvalidSelectionFraction {
        /// The offending value.
        k: f64,
    },
    /// The dataset (or sample) is empty where a non-empty one is required.
    EmptyDataset,
    /// A configuration parameter is invalid (non-positive sample size, empty
    /// learning-rate ladder, zero iterations, …).
    InvalidConfig {
        /// Explanation of the problem.
        reason: String,
    },
    /// An operation requiring ground-truth outcome labels (e.g. the
    /// false-positive-rate objective) was applied to a dataset without labels.
    MissingLabels,
    /// A long-running operation (a DCA descent) was cooperatively cancelled
    /// through its [`crate::dca::RunControl`] before it finished.
    Cancelled,
    /// A storage backend could not produce the rows asked for: an I/O
    /// failure, or data that failed its checksum.
    Storage {
        /// The backend's message (for a shard file: the shard, column,
        /// group and file offset that failed).
        reason: String,
    },
}

impl fmt::Display for FairError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::UnknownAttribute { name } => write!(f, "unknown attribute `{name}`"),
            Self::DimensionMismatch {
                what,
                expected,
                actual,
            } => {
                write!(f, "{what} has dimension {actual}, expected {expected}")
            }
            Self::InvalidValue {
                attribute,
                value,
                reason,
            } => {
                write!(
                    f,
                    "invalid value {value} for attribute `{attribute}`: {reason}"
                )
            }
            Self::InvalidSelectionFraction { k } => {
                write!(f, "selection fraction {k} must lie in (0, 1]")
            }
            Self::EmptyDataset => write!(f, "operation requires a non-empty dataset"),
            Self::InvalidConfig { reason } => write!(f, "invalid configuration: {reason}"),
            Self::MissingLabels => {
                write!(
                    f,
                    "operation requires ground-truth outcome labels on every object"
                )
            }
            Self::Cancelled => write!(f, "operation was cancelled before completion"),
            Self::Storage { reason } => write!(f, "storage error: {reason}"),
        }
    }
}

impl std::error::Error for FairError {}

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, FairError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = FairError::UnknownAttribute { name: "ell".into() };
        assert!(e.to_string().contains("ell"));
        let e = FairError::DimensionMismatch {
            what: "bonus vector",
            expected: 4,
            actual: 2,
        };
        assert!(e.to_string().contains("bonus vector"));
        assert!(e.to_string().contains('4'));
        let e = FairError::InvalidSelectionFraction { k: 1.5 };
        assert!(e.to_string().contains("1.5"));
        let e = FairError::InvalidConfig {
            reason: "sample size must be positive".into(),
        };
        assert!(e.to_string().contains("sample size"));
        assert!(FairError::MissingLabels.to_string().contains("labels"));
        assert!(FairError::Cancelled.to_string().contains("cancelled"));
        let e = FairError::Storage {
            reason: "shard 3 ids group 0 at byte 112".into(),
        };
        assert!(e.to_string().contains("byte 112"), "{e}");
        assert!(FairError::EmptyDataset.to_string().contains("non-empty"));
        let e = FairError::InvalidValue {
            attribute: "low_income".into(),
            value: 2.0,
            reason: "binary attributes must be 0 or 1",
        };
        assert!(e.to_string().contains("low_income"));
    }

    #[test]
    fn error_implements_std_error() {
        fn assert_error<E: std::error::Error>(_: &E) {}
        assert_error(&FairError::EmptyDataset);
    }
}
