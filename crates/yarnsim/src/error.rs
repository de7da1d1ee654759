//! Resource-manager error types.

use crate::app::ApplicationId;
use crate::container::ContainerId;
use crate::resource::Resource;
use std::fmt;

/// Convenience alias for resource-manager results.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors produced by [`ResourceManager`](crate::ResourceManager)
/// operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// No node can currently satisfy the request.
    InsufficientResources {
        /// The size that could not be placed.
        requested: Resource,
    },
    /// The referenced application is unknown.
    UnknownApplication(ApplicationId),
    /// The referenced container is unknown.
    UnknownContainer(ContainerId),
    /// The application is no longer active.
    ApplicationNotActive(ApplicationId),
    /// A container operation was invalid in its current state.
    InvalidContainerState {
        /// The container.
        container: ContainerId,
        /// What the caller attempted.
        operation: &'static str,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::InsufficientResources { requested } => {
                write!(f, "no node can satisfy request for {requested}")
            }
            Error::UnknownApplication(id) => write!(f, "unknown application {id}"),
            Error::UnknownContainer(id) => write!(f, "unknown container {id}"),
            Error::ApplicationNotActive(id) => write!(f, "application {id} is not active"),
            Error::InvalidContainerState {
                container,
                operation,
            } => {
                write!(
                    f,
                    "cannot {operation} container {container} in its current state"
                )
            }
        }
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_concise() {
        let samples = vec![
            Error::InsufficientResources {
                requested: Resource::new(1, 1),
            },
            Error::UnknownApplication(ApplicationId(1)),
            Error::UnknownContainer(ContainerId(1)),
            Error::ApplicationNotActive(ApplicationId(1)),
            Error::InvalidContainerState {
                container: ContainerId(1),
                operation: "launch",
            },
        ];
        for e in samples {
            assert!(!e.to_string().is_empty());
            assert!(!e.to_string().ends_with('.'));
        }
    }
}
