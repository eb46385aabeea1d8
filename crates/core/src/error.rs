//! Crate error type.

use std::fmt;

use crate::time::{StreamShape, Tick};

/// Result alias used across the crate.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors raised at query-compile or execution time.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Error {
    /// A source index names no source of the query.
    UnknownSource {
        /// The offending source index.
        index: usize,
    },
    /// The query graph has no sink.
    NoSink,
    /// The query graph has a cycle (streams may only flow forward).
    Cycle,
    /// Two streams cannot be joined because their grids never align.
    IncompatibleJoin {
        /// Left input shape.
        left: StreamShape,
        /// Right input shape.
        right: StreamShape,
    },
    /// An operator parameter is invalid (non-positive window, stride that
    /// does not divide the window, ...).
    InvalidParameter {
        /// Human-readable description of the violated constraint.
        message: String,
    },
    /// The number of supplied source datasets does not match the number of
    /// source nodes in the plan.
    SourceCountMismatch {
        /// Sources declared in the query.
        expected: usize,
        /// Datasets supplied.
        actual: usize,
    },
    /// A supplied dataset's shape differs from the shape declared for the
    /// corresponding source node.
    SourceShapeMismatch {
        /// Source node name.
        name: String,
        /// Shape declared in the query.
        declared: StreamShape,
        /// Shape of the supplied data.
        supplied: StreamShape,
    },
    /// Locality tracing failed to converge (dimension overflow).
    TraceDiverged {
        /// The dimension that overflowed the configured bound.
        dim: Tick,
    },
    /// Two [`Stream`](crate::stream::Stream)s from different
    /// [`Query`](crate::stream::Query) scopes were combined in one
    /// operator.
    CrossQuery,
    /// An operation that requires single-field payloads received a wider
    /// stream.
    ArityMismatch {
        /// Arity required by the operator.
        expected: usize,
        /// Arity of the input stream.
        actual: usize,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::UnknownSource { index } => {
                write!(f, "query has no source {index}")
            }
            Error::NoSink => write!(f, "query has no sink"),
            Error::Cycle => write!(f, "query graph contains a cycle"),
            Error::IncompatibleJoin { left, right } => write!(
                f,
                "streams {left} and {right} cannot be joined: grids never align"
            ),
            Error::InvalidParameter { message } => {
                write!(f, "invalid operator parameter: {message}")
            }
            Error::SourceCountMismatch { expected, actual } => write!(
                f,
                "query declares {expected} sources but {actual} datasets were supplied"
            ),
            Error::SourceShapeMismatch {
                name,
                declared,
                supplied,
            } => write!(
                f,
                "source '{name}' declared {declared} but dataset has {supplied}"
            ),
            Error::TraceDiverged { dim } => {
                write!(
                    f,
                    "locality tracing diverged: dimension {dim} exceeds bound"
                )
            }
            Error::CrossQuery => {
                write!(f, "streams from different query scopes cannot be combined")
            }
            Error::ArityMismatch { expected, actual } => write!(
                f,
                "operator requires payload arity {expected} but input has {actual}"
            ),
        }
    }
}

impl std::error::Error for Error {}

/// The text a caught panic carried — the `&str` or `String` given to
/// `panic!` — or `None` for any other payload type. Pass the payload
/// itself (`&*boxed`): a `&Box<dyn Any + Send>` would coerce to the box,
/// which downcasts to nothing.
pub fn panic_text(payload: &(dyn std::any::Any + Send)) -> Option<&str> {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty_and_lowercase() {
        let errs: Vec<Error> = vec![
            Error::UnknownSource { index: 3 },
            Error::NoSink,
            Error::Cycle,
            Error::IncompatibleJoin {
                left: StreamShape::new(0, 4),
                right: StreamShape::new(1, 4),
            },
            Error::InvalidParameter {
                message: "window must be positive".into(),
            },
            Error::SourceCountMismatch {
                expected: 2,
                actual: 1,
            },
            Error::SourceShapeMismatch {
                name: "ecg".into(),
                declared: StreamShape::new(0, 2),
                supplied: StreamShape::new(0, 8),
            },
            Error::TraceDiverged { dim: i64::MAX },
            Error::CrossQuery,
            Error::ArityMismatch {
                expected: 1,
                actual: 2,
            },
        ];
        for e in errs {
            let s = e.to_string();
            assert!(!s.is_empty());
            assert!(s.chars().next().unwrap().is_lowercase() || s.starts_with("query"));
        }
    }

    #[test]
    fn panic_text_reads_str_and_string_payloads() {
        let caught = |f: fn()| std::panic::catch_unwind(f).unwrap_err();
        assert_eq!(panic_text(&*caught(|| panic!("boom"))), Some("boom"));
        assert_eq!(panic_text(&*caught(|| panic!("n = {}", 3))), Some("n = 3"));
        let other = caught(|| std::panic::panic_any(7u32));
        assert_eq!(panic_text(&*other), None);
        assert_eq!(panic_text(&other), None, "the box itself is no payload");
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Error>();
    }
}
