//! Broker error types.

use crate::log::OffsetError;
use std::fmt;

/// Convenience alias for broker results.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors produced by broker, writer, and reader operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// The referenced topic does not exist.
    UnknownTopic(String),
    /// The referenced partition does not exist within its topic.
    UnknownPartition {
        /// Topic name.
        topic: String,
        /// Requested partition index.
        partition: u32,
    },
    /// A topic with this name already exists.
    TopicExists(String),
    /// A topic or sender configuration failed validation.
    InvalidConfig(String),
    /// A read or replica copy asked for an offset past the log's end.
    OffsetOutOfRange {
        /// Offset the caller asked for.
        requested: u64,
        /// Next offset to be written.
        latest: u64,
    },
    /// The cluster cannot satisfy the requested replication factor.
    NotEnoughBrokers {
        /// Requested replication factor.
        requested: u32,
        /// Brokers available.
        available: u32,
    },
    /// The broker is temporarily unreachable (transient; retryable).
    BrokerUnavailable,
    /// The partition leader is temporarily offline (transient; retryable).
    PartitionOffline {
        /// Topic name.
        topic: String,
        /// Partition index.
        partition: u32,
    },
    /// The request timed out in flight; it may or may not have been
    /// applied broker-side (transient; retryable).
    RequestTimedOut,
    /// The broker process is down (crashed or killed). Transient: a
    /// restart or an election elsewhere makes a retry viable.
    BrokerDown,
    /// The addressed broker is not (or no longer) the partition leader;
    /// the client must refresh metadata and retry (transient).
    NotLeader {
        /// Topic name.
        topic: String,
        /// Partition index.
        partition: u32,
    },
    /// A request carried a stale leader epoch — a deposed leader tried to
    /// act after an election fenced it off (transient; the client
    /// refreshes its route and retries against the new leader).
    FencedEpoch {
        /// Epoch the log currently enforces.
        current: u64,
        /// Stale epoch the request carried.
        requested: u64,
    },
    /// A follower was handed a leader log range its own log does not
    /// line up with: it ends before `from` (copying would leave a gap) or
    /// past `to` (it holds records the range does not cover). The
    /// replication round leaves that follower lagging.
    ReplicaMisaligned {
        /// The follower's log end.
        replica_end: u64,
        /// First offset of the range.
        from: u64,
        /// One past the last offset of the range.
        to: u64,
    },
    /// A retried request exhausted its [`RetryPolicy`](crate::RetryPolicy)
    /// budget; the boxed error is the last attempt's failure.
    RetriesExhausted {
        /// Attempts made (first try plus retries).
        attempts: u32,
        /// The error returned by the final attempt.
        last: Box<Error>,
    },
}

impl Error {
    /// Whether a retry may succeed: `true` for the transient fault-plan
    /// errors, `false` for definitive ones (unknown topic, bad offset, …).
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            Error::BrokerUnavailable
                | Error::PartitionOffline { .. }
                | Error::RequestTimedOut
                | Error::BrokerDown
                | Error::NotLeader { .. }
                | Error::FencedEpoch { .. }
        )
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::UnknownTopic(t) => write!(f, "unknown topic `{t}`"),
            Error::UnknownPartition { topic, partition } => {
                write!(f, "unknown partition {partition} of topic `{topic}`")
            }
            Error::TopicExists(t) => write!(f, "topic `{t}` already exists"),
            Error::InvalidConfig(msg) => write!(f, "invalid config: {msg}"),
            Error::OffsetOutOfRange { requested, latest } => {
                write!(f, "offset {requested} out of range (latest {latest})")
            }
            Error::NotEnoughBrokers {
                requested,
                available,
            } => write!(
                f,
                "replication factor {requested} exceeds available brokers ({available})"
            ),
            Error::BrokerUnavailable => f.write_str("broker temporarily unavailable"),
            Error::PartitionOffline { topic, partition } => {
                write!(f, "partition {partition} of topic `{topic}` is offline")
            }
            Error::RequestTimedOut => f.write_str("request timed out"),
            Error::BrokerDown => f.write_str("broker is down"),
            Error::NotLeader { topic, partition } => {
                write!(
                    f,
                    "not the leader for partition {partition} of topic `{topic}`"
                )
            }
            Error::FencedEpoch { current, requested } => {
                write!(
                    f,
                    "leader epoch {requested} fenced off (current epoch {current})"
                )
            }
            Error::ReplicaMisaligned {
                replica_end,
                from,
                to,
            } => write!(
                f,
                "replica log end {replica_end} outside the copied range {from}..{to}"
            ),
            Error::RetriesExhausted { attempts, last } => {
                write!(f, "gave up after {attempts} attempts: {last}")
            }
        }
    }
}

impl std::error::Error for Error {}

impl From<OffsetError> for Error {
    fn from(err: OffsetError) -> Self {
        match err {
            OffsetError::OffsetOutOfRange { requested, latest } => {
                Error::OffsetOutOfRange { requested, latest }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_concise() {
        let samples: Vec<Error> = vec![
            Error::UnknownTopic("t".into()),
            Error::UnknownPartition {
                topic: "t".into(),
                partition: 3,
            },
            Error::TopicExists("t".into()),
            Error::InvalidConfig("bad".into()),
            Error::OffsetOutOfRange {
                requested: 9,
                latest: 5,
            },
            Error::NotEnoughBrokers {
                requested: 3,
                available: 1,
            },
            Error::BrokerUnavailable,
            Error::PartitionOffline {
                topic: "t".into(),
                partition: 1,
            },
            Error::RequestTimedOut,
            Error::BrokerDown,
            Error::NotLeader {
                topic: "t".into(),
                partition: 0,
            },
            Error::FencedEpoch {
                current: 2,
                requested: 1,
            },
            Error::ReplicaMisaligned {
                replica_end: 3,
                from: 5,
                to: 9,
            },
            Error::RetriesExhausted {
                attempts: 4,
                last: Box::new(Error::BrokerUnavailable),
            },
        ];
        for e in samples {
            let msg = e.to_string();
            assert!(!msg.is_empty());
            assert!(!msg.ends_with('.'));
            assert!(msg.chars().next().unwrap().is_lowercase());
        }
    }

    #[test]
    fn offset_error_converts() {
        let e: Error = OffsetError::OffsetOutOfRange {
            requested: 4,
            latest: 3,
        }
        .into();
        assert_eq!(
            e,
            Error::OffsetOutOfRange {
                requested: 4,
                latest: 3
            }
        );
    }

    #[test]
    fn transience_classification() {
        assert!(Error::BrokerUnavailable.is_transient());
        assert!(Error::RequestTimedOut.is_transient());
        assert!(Error::PartitionOffline {
            topic: "t".into(),
            partition: 0
        }
        .is_transient());
        assert!(Error::BrokerDown.is_transient());
        assert!(Error::NotLeader {
            topic: "t".into(),
            partition: 0
        }
        .is_transient());
        assert!(Error::FencedEpoch {
            current: 2,
            requested: 1
        }
        .is_transient());
        assert!(!Error::UnknownTopic("t".into()).is_transient());
        assert!(!Error::RetriesExhausted {
            attempts: 2,
            last: Box::new(Error::RequestTimedOut)
        }
        .is_transient());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Error>();
    }
}
