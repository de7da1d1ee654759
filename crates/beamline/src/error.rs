//! Abstraction-layer error types.

use std::fmt;

/// Convenience alias for beamline results.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors raised when validating or running a pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// The pipeline is not the one shape runners translate (a read, then
    /// `ParDo`s, each reading the stage before it), or an engine runner
    /// found no `ParDo` to end the job in.
    InvalidPipeline(String),
    /// The engine failed during execution.
    Engine(String),
    /// A result was requested for a collection the runner did not
    /// materialize.
    NotMaterialized,
    /// A coder failed while decoding results.
    Coder(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::InvalidPipeline(msg) => write!(f, "invalid pipeline: {msg}"),
            Error::Engine(msg) => write!(f, "engine execution failed: {msg}"),
            Error::NotMaterialized => f.write_str("collection was not materialized by this runner"),
            Error::Coder(msg) => write!(f, "coder failure while reading results: {msg}"),
        }
    }
}

impl std::error::Error for Error {}

impl From<crate::coder::CoderError> for Error {
    fn from(e: crate::coder::CoderError) -> Self {
        Error::Coder(e.message)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        let samples = vec![
            Error::InvalidPipeline("empty".into()),
            Error::Engine("boom".into()),
            Error::NotMaterialized,
            Error::Coder("bad".into()),
        ];
        for e in samples {
            assert!(!e.to_string().is_empty());
        }
        let coder_err: Error = crate::coder::CoderError::new("x").into();
        assert_eq!(coder_err, Error::Coder("x".into()));
    }
}
