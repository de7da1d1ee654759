//! Engine error types.

use std::fmt;

/// Convenience alias for engine results.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors raised when building or launching an application.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// Two operators were added under the same name.
    DuplicateOperator(String),
    /// An operator's output was never connected to a downstream operator
    /// or output operator.
    DanglingStream(String),
    /// The DAG has no operators.
    EmptyDag,
    /// The resource manager could not satisfy the application.
    Resource(yarnsim::Error),
    /// A container thread panicked.
    TaskPanicked(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::DuplicateOperator(name) => write!(f, "duplicate operator name `{name}`"),
            Error::DanglingStream(name) => {
                write!(f, "operator `{name}` has an unconnected output stream")
            }
            Error::EmptyDag => f.write_str("application DAG has no operators"),
            Error::Resource(e) => write!(f, "resource allocation failed: {e}"),
            Error::TaskPanicked(name) => write!(f, "container task `{name}` panicked"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Resource(e) => Some(e),
            _ => None,
        }
    }
}

impl From<yarnsim::Error> for Error {
    fn from(e: yarnsim::Error) -> Self {
        Error::Resource(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        use std::error::Error as _;
        let e = Error::Resource(yarnsim::Error::UnknownApplication(yarnsim::ApplicationId(
            1,
        )));
        assert!(e.to_string().contains("resource allocation failed"));
        assert!(e.source().is_some());
        assert!(Error::EmptyDag.source().is_none());
        assert!(Error::DuplicateOperator("x".into())
            .to_string()
            .contains('x'));
        assert!(Error::DanglingStream("y".into()).to_string().contains('y'));
        assert!(Error::TaskPanicked("z".into()).to_string().contains('z'));
    }
}
