//! Engine error types.

use std::fmt;

/// Convenience alias for engine results.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors raised when building or executing a job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// The job needs more task slots than the cluster provides.
    NotEnoughSlots {
        /// Slots required (the job's maximum operator parallelism, thanks
        /// to slot sharing).
        required: usize,
        /// Slots available across all task managers.
        available: usize,
    },
    /// A stream was built but never terminated in a sink.
    DanglingStream {
        /// Name of the unterminated node.
        node: String,
    },
    /// A task thread panicked during execution.
    TaskPanicked {
        /// Name of the failed task.
        task: String,
        /// Panic payload, if it was a string.
        message: String,
    },
    /// The topology is invalid for the requested execution.
    InvalidTopology(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::NotEnoughSlots {
                required,
                available,
            } => {
                write!(
                    f,
                    "job requires {required} task slots but only {available} are available"
                )
            }
            Error::DanglingStream { node } => {
                write!(f, "stream `{node}` is not terminated by a sink")
            }
            Error::TaskPanicked { task, message } => {
                write!(f, "task `{task}` panicked: {message}")
            }
            Error::InvalidTopology(msg) => write!(f, "invalid topology: {msg}"),
        }
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        assert_eq!(
            Error::NotEnoughSlots {
                required: 4,
                available: 2
            }
            .to_string(),
            "job requires 4 task slots but only 2 are available"
        );
        assert!(Error::DanglingStream { node: "Map".into() }
            .to_string()
            .contains("Map"));
        assert!(Error::TaskPanicked {
            task: "t".into(),
            message: "boom".into()
        }
        .to_string()
        .contains("boom"));
        assert!(Error::InvalidTopology("empty".into())
            .to_string()
            .contains("empty"));
    }
}
