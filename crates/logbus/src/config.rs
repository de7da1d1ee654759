//! Topic-level and produce-time configuration.

use std::fmt;

/// Acknowledgement level a producer waits for on each send
/// (`acks` in Kafka terms).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Acks {
    /// Wait until the partition leader has appended the batch.
    #[default]
    Leader,
    /// Wait until all replicas have applied the batch.
    All,
}

impl fmt::Display for Acks {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Acks::Leader => f.write_str("acks=1"),
            Acks::All => f.write_str("acks=all"),
        }
    }
}

/// Per-topic configuration.
///
/// Constructed with builder-style methods:
///
/// ```
/// use logbus::TopicConfig;
///
/// let config = TopicConfig::default().partitions(1).replication_factor(1);
/// assert_eq!(config.partitions, 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopicConfig {
    /// Number of partitions. Ordering is only guaranteed within one
    /// partition, so the benchmark topics use exactly one.
    pub partitions: u32,
    /// Number of replicas per partition (including the leader).
    pub replication_factor: u32,
}

impl Default for TopicConfig {
    fn default() -> Self {
        TopicConfig {
            partitions: 1,
            replication_factor: 1,
        }
    }
}

impl TopicConfig {
    /// Creates the default configuration (one partition, one replica).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the partition count.
    ///
    /// # Panics
    ///
    /// Panics if `partitions` is zero; a topic must have at least one
    /// partition. (Validated again by the broker at creation time, which
    /// reports [`Error::InvalidConfig`](crate::Error::InvalidConfig).)
    pub fn partitions(mut self, partitions: u32) -> Self {
        assert!(partitions > 0, "a topic must have at least one partition");
        self.partitions = partitions;
        self
    }

    /// Sets the replication factor.
    pub fn replication_factor(mut self, rf: u32) -> Self {
        self.replication_factor = rf;
        self
    }

    /// Validates the configuration, as done by the broker on topic
    /// creation.
    pub fn validate(&self) -> Result<(), String> {
        if self.partitions == 0 {
            return Err("partitions must be > 0".to_string());
        }
        if self.replication_factor == 0 {
            return Err("replication factor must be > 0".to_string());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_benchmark_setup() {
        let c = TopicConfig::default();
        assert_eq!(c.partitions, 1);
        assert_eq!(c.replication_factor, 1);
    }

    #[test]
    fn builder_chains() {
        let c = TopicConfig::new().partitions(4).replication_factor(2);
        assert_eq!(c.partitions, 4);
        assert_eq!(c.replication_factor, 2);
    }

    #[test]
    #[should_panic(expected = "at least one partition")]
    fn zero_partitions_panics() {
        let _ = TopicConfig::new().partitions(0);
    }

    #[test]
    fn validate_rejects_bad_configs() {
        let c = TopicConfig {
            replication_factor: 0,
            ..TopicConfig::default()
        };
        assert!(c.validate().is_err());
        let c = TopicConfig {
            partitions: 0,
            ..TopicConfig::default()
        };
        assert!(c.validate().is_err());
        assert!(TopicConfig::default().validate().is_ok());
    }

    #[test]
    fn display_impls() {
        assert_eq!(Acks::Leader.to_string(), "acks=1");
        assert_eq!(Acks::All.to_string(), "acks=all");
    }
}
