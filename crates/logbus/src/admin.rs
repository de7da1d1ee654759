//! Administrative views over topics.

use crate::bus::Bus;
use crate::error::Result;
use crate::record::Timestamp;

/// A point-in-time description of a topic, as used by the benchmark's
/// result calculator: its retained records and the stored-timestamp
/// extremes across all partitions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopicDescription {
    records: u64,
    first_timestamp: Option<Timestamp>,
    last_timestamp: Option<Timestamp>,
}

impl TopicDescription {
    /// Describes `topic` on `bus`.
    ///
    /// # Errors
    ///
    /// Fails for unknown topics.
    pub fn describe(bus: &dyn Bus, topic: &str) -> Result<Self> {
        let mut records = 0;
        let (mut first, mut last) = (None, None);
        for p in 0..bus.partition_count(topic)? {
            records += bus.latest_offset(topic, p)? - bus.earliest_offset(topic, p)?;
            if let Some(t) = bus.first_timestamp(topic, p)? {
                first = Some(first.map_or(t, |f: Timestamp| f.min(t)));
            }
            // `None` orders below every stamp, so `max` skips empty
            // partitions.
            last = last.max(bus.last_timestamp(topic, p)?);
        }
        Ok(TopicDescription {
            records,
            first_timestamp: first,
            last_timestamp: last,
        })
    }

    /// Total retained records over all partitions.
    pub fn total_records(&self) -> u64 {
        self.records
    }

    /// The `LogAppendTime` span between the first and last stored record,
    /// in seconds — the paper's execution-time measure when applied to a
    /// query's output topic (§III-A3).
    pub fn append_time_span_seconds(&self) -> Option<f64> {
        match (self.first_timestamp, self.last_timestamp) {
            (Some(first), Some(last)) => Some(last.seconds_since(first)),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::broker::Broker;
    use crate::clock::ManualClock;
    use crate::config::TopicConfig;
    use crate::record::Record;
    use std::sync::Arc;

    #[test]
    fn describe_reports_offsets_and_span() {
        let clock = Arc::new(ManualClock::with_auto_tick(1_000_000, 500_000));
        let broker = Broker::with_clock(clock);
        broker.create_topic("out", TopicConfig::default()).unwrap();
        for i in 0..4 {
            broker
                .produce("out", 0, Record::from_value(format!("{i}")))
                .unwrap();
        }
        let desc = TopicDescription::describe(&broker, "out").unwrap();
        assert_eq!(desc.total_records(), 4);
        // Appends at t=1.0s, 1.5s, 2.0s, 2.5s -> span 1.5s.
        let span = desc.append_time_span_seconds().unwrap();
        assert!((span - 1.5).abs() < 1e-9, "span was {span}");
    }

    #[test]
    fn empty_topic_has_no_span() {
        let broker = Broker::new();
        broker
            .create_topic("empty", TopicConfig::default())
            .unwrap();
        let desc = TopicDescription::describe(&broker, "empty").unwrap();
        assert_eq!(desc.total_records(), 0);
        assert!(desc.append_time_span_seconds().is_none());
    }

    #[test]
    fn multi_partition_span_uses_extremes() {
        let clock = Arc::new(ManualClock::with_auto_tick(0, 1_000_000));
        let broker = Broker::with_clock(clock);
        broker
            .create_topic("t", TopicConfig::default().partitions(2))
            .unwrap();
        broker.produce("t", 0, Record::from_value("a")).unwrap(); // t=0
        broker.produce("t", 1, Record::from_value("b")).unwrap(); // t=1
        broker.produce("t", 0, Record::from_value("c")).unwrap(); // t=2
        let desc = TopicDescription::describe(&broker, "t").unwrap();
        assert!((desc.append_time_span_seconds().unwrap() - 2.0).abs() < 1e-9);
    }
}
