//! Error types for the on-disk shard store.

use fair_core::FairError;
use std::fmt;
use std::io;

/// Errors produced by writing, opening, and paging an FSS1 shard file.
///
/// Throughout the crate's fallible API (`open`, `read_shard`, `read_rows`,
/// `verify`, the writer), every failure mode of a corrupted or truncated
/// file surfaces as a structured [`StoreError::Corrupt`] value — never a
/// panic, and never a silently mis-decoded shard (every column slice of a
/// row group is CRC-checked before a single byte of it is interpreted). Row gathers
/// through `ShardSource::gather_rows` carry the same message as a
/// `FairError::Storage`. The one infallible surface is the
/// `ShardSource::with_shard` engine hook, which has no error channel and
/// panics if a block first fails its checksum there; `verify` pre-screens
/// untrusted files.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The file violates the FSS1 format: bad magic, failed checksum,
    /// truncated block, inconsistent directory, …
    Corrupt {
        /// Byte offset of the structure that failed validation (best effort;
        /// the start of the enclosing block).
        offset: u64,
        /// Which structure failed (`"file header"`, `"shard directory"`,
        /// `"shard 3 fairness block"`, …).
        what: String,
        /// Explanation of the violated invariant.
        reason: String,
    },
    /// The file is a newer (or unknown) format revision.
    UnsupportedVersion {
        /// The version found in the header.
        found: u16,
    },
    /// The embedded schema could not be reconstructed, or data dimensions
    /// contradict it.
    Schema(FairError),
    /// The store was used incorrectly (zero shard size, appending after a
    /// short shard sealed the file, schema mismatch on append, …).
    InvalidConfig {
        /// Explanation of the problem.
        reason: String,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(e) => write!(f, "store I/O error: {e}"),
            Self::Corrupt {
                offset,
                what,
                reason,
            } => write!(f, "corrupt shard file: {what} at byte {offset}: {reason}"),
            Self::UnsupportedVersion { found } => {
                write!(f, "unsupported shard-file version {found}")
            }
            Self::Schema(e) => write!(f, "invalid stored schema: {e}"),
            Self::InvalidConfig { reason } => write!(f, "invalid store usage: {reason}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(e) => Some(e),
            Self::Schema(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        Self::Io(e)
    }
}

impl From<FairError> for StoreError {
    fn from(e: FairError) -> Self {
        Self::Schema(e)
    }
}

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, StoreError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = StoreError::Corrupt {
            offset: 52,
            what: "shard directory".into(),
            reason: "truncated".into(),
        };
        let s = e.to_string();
        assert!(s.contains("shard directory"), "{s}");
        assert!(s.contains("52"), "{s}");
        assert!(StoreError::UnsupportedVersion { found: 9 }
            .to_string()
            .contains('9'));
        assert!(StoreError::InvalidConfig {
            reason: "shard size must be positive".into()
        }
        .to_string()
        .contains("shard size"));
        let io = StoreError::from(io::Error::new(io::ErrorKind::NotFound, "gone"));
        assert!(io.to_string().contains("gone"));
        let schema = StoreError::from(FairError::EmptyDataset);
        assert!(schema.to_string().contains("schema"));
    }

    #[test]
    fn error_implements_std_error_with_sources() {
        fn assert_error<E: std::error::Error>(_: &E) {}
        let e = StoreError::from(io::Error::other("x"));
        assert_error(&e);
        assert!(std::error::Error::source(&e).is_some());
        assert!(std::error::Error::source(&StoreError::UnsupportedVersion { found: 2 }).is_none());
    }
}
