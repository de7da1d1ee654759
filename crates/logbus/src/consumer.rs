//! Consumers: polling, seeking, and group offset management.

use crate::bus::BusHandle;
use crate::error::{Error, Result};
use crate::handle::PartitionReader;
use crate::record::StoredRecord;

/// Consumer configuration.
#[derive(Debug, Clone)]
pub struct ConsumerConfig {
    /// Group id used for offset commits, if any.
    pub group: Option<String>,
    /// Upper bound on records returned by a single [`Consumer::poll`].
    pub max_poll_records: usize,
    /// Where to start when there is no committed offset: `true` = earliest
    /// (the benchmark's choice, so a query job sees the whole input topic),
    /// `false` = latest.
    pub start_from_earliest: bool,
    /// Retry schedule for transient broker errors; applied to assignment
    /// resolution, offset commits, and (through the cached readers) every
    /// fetch.
    pub retry: crate::RetryPolicy,
}

impl Default for ConsumerConfig {
    fn default() -> Self {
        ConsumerConfig {
            group: None,
            max_poll_records: 4096,
            start_from_earliest: true,
            retry: crate::RetryPolicy::default(),
        }
    }
}

/// One assigned partition: its identity, fetch position, and the cached
/// [`PartitionReader`] resolved at assignment time — so polling never
/// re-resolves topic names or clones/sorts the assignment set.
#[derive(Debug)]
struct AssignedPartition {
    topic: String,
    partition: u32,
    position: u64,
    reader: PartitionReader,
}

/// A polling consumer over any [`Bus`].
///
/// # Example
///
/// ```
/// # use std::error::Error;
/// # fn main() -> Result<(), Box<dyn Error>> {
/// use logbus::{Broker, Consumer, Producer, Record, TopicConfig};
///
/// let broker = Broker::new();
/// broker.create_topic("t", TopicConfig::default())?;
/// let mut producer = Producer::new(broker.clone());
/// producer.send("t", Record::from_value("a"))?;
/// producer.flush()?;
///
/// let mut consumer = Consumer::new(broker.clone());
/// consumer.assign("t", 0)?;
/// assert_eq!(consumer.poll(10)?.len(), 1);
/// assert!(consumer.poll(10)?.is_empty()); // caught up
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Consumer {
    bus: BusHandle,
    config: ConsumerConfig,
    /// Assigned partitions, kept sorted by (topic, partition) so polling
    /// order is deterministic without per-poll clone + sort.
    assigned: Vec<AssignedPartition>,
    /// Round-robin cursor over assignments for fair polling.
    cursor: usize,
}

impl Consumer {
    /// Creates a consumer with default configuration.
    pub fn new(bus: impl Into<BusHandle>) -> Self {
        Self::with_config(bus, ConsumerConfig::default())
    }

    /// Creates a consumer with an explicit configuration.
    pub fn with_config(bus: impl Into<BusHandle>, config: ConsumerConfig) -> Self {
        Consumer {
            bus: bus.into(),
            config,
            assigned: Vec::new(),
            cursor: 0,
        }
    }

    /// The consumer configuration.
    pub fn config(&self) -> &ConsumerConfig {
        &self.config
    }

    fn find(&self, topic: &str, partition: u32) -> Option<usize> {
        self.assigned
            .iter()
            .position(|a| a.partition == partition && a.topic == topic)
    }

    /// Assigns one partition, starting from the committed group offset if
    /// present, else from earliest/latest per the configuration.
    ///
    /// # Errors
    ///
    /// Fails for unknown topics/partitions.
    pub fn assign(&mut self, topic: &str, partition: u32) -> Result<()> {
        let reader = crate::retry::with_retry(&self.config.retry, || {
            self.bus.partition_reader(topic, partition)
        })?
        .with_retry(self.config.retry.clone());
        let start = match self
            .config
            .group
            .as_deref()
            .and_then(|g| self.bus.committed_offset(g, topic, partition))
        {
            Some(committed) => committed,
            None if self.config.start_from_earliest => reader.earliest_offset()?,
            None => reader.latest_offset()?,
        };
        let entry = AssignedPartition {
            topic: topic.to_string(),
            partition,
            position: start,
            reader,
        };
        match self.find(topic, partition) {
            Some(i) => self.assigned[i] = entry,
            None => {
                let at = self
                    .assigned
                    .partition_point(|a| (a.topic.as_str(), a.partition) < (topic, partition));
                self.assigned.insert(at, entry);
            }
        }
        Ok(())
    }

    /// Assigns all partitions of `topic`.
    ///
    /// # Errors
    ///
    /// Fails for unknown topics.
    pub fn subscribe(&mut self, topic: &str) -> Result<()> {
        for p in 0..self.bus.partition_count(topic)? {
            self.assign(topic, p)?;
        }
        Ok(())
    }

    /// The currently assigned (topic, partition) pairs, sorted.
    pub fn assignment(&self) -> Vec<(String, u32)> {
        self.assigned
            .iter()
            .map(|a| (a.topic.clone(), a.partition))
            .collect()
    }

    /// Next fetch position for an assigned partition.
    pub fn position(&self, topic: &str, partition: u32) -> Option<u64> {
        self.find(topic, partition)
            .map(|i| self.assigned[i].position)
    }

    /// Moves the fetch position of an assigned partition.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NoAssignment`] if the partition is not assigned.
    pub fn seek(&mut self, topic: &str, partition: u32, offset: u64) -> Result<()> {
        match self.find(topic, partition) {
            Some(i) => {
                self.assigned[i].position = offset;
                Ok(())
            }
            None => Err(Error::NoAssignment),
        }
    }

    /// Rewinds every assigned partition to its earliest retained offset.
    ///
    /// # Errors
    ///
    /// Propagates bus lookup failures.
    pub fn seek_to_beginning(&mut self) -> Result<()> {
        for assigned in &mut self.assigned {
            assigned.position = assigned.reader.earliest_offset()?;
        }
        Ok(())
    }

    /// Fetches up to `max` records across the assigned partitions,
    /// advancing positions past what was returned. An empty result means
    /// the consumer is caught up.
    ///
    /// Partitions are served round-robin across successive polls so a slow
    /// partition cannot starve the others.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NoAssignment`] when nothing is assigned; propagates
    /// fetch failures.
    pub fn poll(&mut self, max: usize) -> Result<Vec<StoredRecord>> {
        let mut out = Vec::new();
        self.poll_into(max, &mut out)?;
        Ok(out)
    }

    /// Buffer-reusing poll: clears `out` (retaining its capacity), then
    /// fetches up to `max` records into it exactly as [`Consumer::poll`]
    /// does. Returns the number of records polled. Steady-state loops that
    /// pass the same buffer every iteration fetch without allocating.
    ///
    /// # Errors
    ///
    /// Same as [`Consumer::poll`].
    pub fn poll_into(&mut self, max: usize, out: &mut Vec<StoredRecord>) -> Result<usize> {
        out.clear();
        if self.assigned.is_empty() {
            return Err(Error::NoAssignment);
        }
        let max = max.min(self.config.max_poll_records);
        let n = self.assigned.len();
        for i in 0..n {
            if out.len() >= max {
                break;
            }
            let assigned = &mut self.assigned[(self.cursor + i) % n];
            let appended = assigned
                .reader
                .fetch_into(assigned.position, max - out.len(), out)?;
            if let Some(last) = out.last().filter(|_| appended > 0) {
                assigned.position = last.offset + 1;
            }
        }
        self.cursor = self.cursor.wrapping_add(1);
        Ok(out.len())
    }

    /// Commits current positions under the configured group.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownGroup`] when the consumer has no group;
    /// propagates commit failures.
    pub fn commit(&self) -> Result<()> {
        let group = self
            .config
            .group
            .as_deref()
            .ok_or_else(|| Error::UnknownGroup("<none>".to_string()))?;
        for assigned in &self.assigned {
            crate::retry::with_retry(&self.config.retry, || {
                self.bus.commit_offset(
                    group,
                    &assigned.topic,
                    assigned.partition,
                    assigned.position,
                )
            })?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::broker::Broker;
    use crate::config::TopicConfig;
    use crate::record::Record;

    fn setup(partitions: u32, records_per_partition: u64) -> Broker {
        let broker = Broker::new();
        broker
            .create_topic("t", TopicConfig::default().partitions(partitions))
            .unwrap();
        for p in 0..partitions {
            for i in 0..records_per_partition {
                broker
                    .produce("t", p, Record::from_value(format!("p{p}-{i}")))
                    .unwrap();
            }
        }
        broker
    }

    #[test]
    fn poll_drains_in_order() {
        let broker = setup(1, 10);
        let mut consumer = Consumer::new(broker);
        consumer.assign("t", 0).unwrap();
        let batch = consumer.poll(4).unwrap();
        assert_eq!(batch.len(), 4);
        assert_eq!(batch[0].offset, 0);
        let batch = consumer.poll(100).unwrap();
        assert_eq!(batch.len(), 6);
        assert_eq!(batch[0].offset, 4);
        assert!(consumer.poll(100).unwrap().is_empty());
    }

    #[test]
    fn poll_into_reuses_buffer() {
        let broker = setup(1, 10);
        let mut consumer = Consumer::new(broker);
        consumer.assign("t", 0).unwrap();
        let mut buffer = Vec::new();
        assert_eq!(consumer.poll_into(4, &mut buffer).unwrap(), 4);
        assert_eq!(buffer[0].offset, 0);
        let capacity = buffer.capacity();
        assert_eq!(consumer.poll_into(4, &mut buffer).unwrap(), 4);
        assert_eq!(buffer[0].offset, 4, "buffer is cleared, not appended to");
        assert_eq!(buffer.capacity(), capacity, "capacity is retained");
        assert_eq!(consumer.poll_into(100, &mut buffer).unwrap(), 2);
        assert_eq!(consumer.poll_into(100, &mut buffer).unwrap(), 0);
    }

    #[test]
    fn subscribe_covers_all_partitions() {
        let broker = setup(3, 5);
        let mut consumer = Consumer::new(broker);
        consumer.subscribe("t").unwrap();
        assert_eq!(consumer.assignment().len(), 3);
        let mut total = 0;
        loop {
            let batch = consumer.poll(7).unwrap();
            if batch.is_empty() {
                break;
            }
            total += batch.len();
        }
        assert_eq!(total, 15);
    }

    #[test]
    fn seek_and_position() {
        let broker = setup(1, 10);
        let mut consumer = Consumer::new(broker);
        consumer.assign("t", 0).unwrap();
        consumer.seek("t", 0, 8).unwrap();
        assert_eq!(consumer.position("t", 0), Some(8));
        assert_eq!(consumer.poll(100).unwrap().len(), 2);
        consumer.seek_to_beginning().unwrap();
        assert_eq!(consumer.poll(100).unwrap().len(), 10);
        assert!(consumer.seek("t", 1, 0).is_err());
    }

    #[test]
    fn reassign_resets_position() {
        let broker = setup(1, 10);
        let mut consumer = Consumer::new(broker);
        consumer.assign("t", 0).unwrap();
        assert_eq!(consumer.poll(6).unwrap().len(), 6);
        consumer.assign("t", 0).unwrap();
        assert_eq!(
            consumer.assignment().len(),
            1,
            "re-assign replaces, not duplicates"
        );
        assert_eq!(consumer.position("t", 0), Some(0));
    }

    #[test]
    fn group_offsets_resume() {
        let broker = setup(1, 10);
        let config = ConsumerConfig {
            group: Some("g".into()),
            ..ConsumerConfig::default()
        };
        {
            let mut consumer = Consumer::with_config(broker.clone(), config.clone());
            consumer.assign("t", 0).unwrap();
            assert_eq!(consumer.poll(6).unwrap().len(), 6);
            consumer.commit().unwrap();
        }
        let mut resumed = Consumer::with_config(broker, config);
        resumed.assign("t", 0).unwrap();
        let batch = resumed.poll(100).unwrap();
        assert_eq!(batch.len(), 4);
        assert_eq!(batch[0].offset, 6);
    }

    #[test]
    fn commit_without_group_errors() {
        let broker = setup(1, 1);
        let mut consumer = Consumer::new(broker);
        consumer.assign("t", 0).unwrap();
        assert!(matches!(consumer.commit(), Err(Error::UnknownGroup(_))));
    }

    #[test]
    fn start_from_latest() {
        let broker = setup(1, 5);
        let mut consumer = Consumer::with_config(
            broker.clone(),
            ConsumerConfig {
                start_from_earliest: false,
                ..ConsumerConfig::default()
            },
        );
        consumer.assign("t", 0).unwrap();
        assert!(consumer.poll(100).unwrap().is_empty());
        broker.produce("t", 0, Record::from_value("new")).unwrap();
        assert_eq!(consumer.poll(100).unwrap().len(), 1);
    }

    #[test]
    fn poll_without_assignment_errors() {
        let broker = setup(1, 1);
        let mut consumer = Consumer::new(broker);
        assert_eq!(consumer.poll(1), Err(Error::NoAssignment));
    }

    #[test]
    fn assign_unknown_partition_errors() {
        let broker = setup(1, 1);
        let mut consumer = Consumer::new(broker);
        assert!(consumer.assign("t", 5).is_err());
        assert!(consumer.assign("missing", 0).is_err());
    }

    #[test]
    fn assignment_is_sorted() {
        let broker = Broker::new();
        broker
            .create_topic("b", TopicConfig::default().partitions(2))
            .unwrap();
        broker.create_topic("a", TopicConfig::default()).unwrap();
        let mut consumer = Consumer::new(broker);
        consumer.assign("b", 1).unwrap();
        consumer.assign("a", 0).unwrap();
        consumer.assign("b", 0).unwrap();
        assert_eq!(
            consumer.assignment(),
            vec![
                ("a".to_string(), 0),
                ("b".to_string(), 0),
                ("b".to_string(), 1)
            ]
        );
    }

    #[test]
    fn polling_and_commits_ride_through_transient_faults() {
        let broker = setup(1, 200);
        let mut plan = crate::FaultPlan::seeded(43);
        plan.produce_error = 0.0;
        plan.ack_loss = 0.0;
        plan.duplicate = 0.0;
        plan.fetch_error = 0.4;
        plan.metadata_error = 0.4;
        plan.extra_latency = 0.0;
        broker.install_fault_plan(plan);
        let mut consumer = Consumer::with_config(
            broker.clone(),
            ConsumerConfig {
                group: Some("g".into()),
                ..ConsumerConfig::default()
            },
        );
        consumer.assign("t", 0).unwrap();
        let mut seen = Vec::new();
        loop {
            let batch = consumer.poll(16).unwrap();
            if batch.is_empty() {
                break;
            }
            seen.extend(batch);
        }
        consumer.commit().unwrap();
        broker.clear_fault_plan();
        assert_eq!(seen.len(), 200, "no loss, no duplicates under faults");
        for (i, stored) in seen.iter().enumerate() {
            assert_eq!(stored.offset, i as u64);
        }
        assert_eq!(broker.committed_offset("g", "t", 0), Some(200));
    }
}
