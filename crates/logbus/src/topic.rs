//! Topics: named collections of partition logs.

use crate::config::TopicConfig;
use crate::error::{Error, Result};
use crate::log::{LogStats, PartitionLog};
use crate::record::{Record, StoredRecord, Timestamp};
use parking_lot::RwLock;

/// Busy-waits for `delay`: precise at the microsecond scales the
/// simulated network uses, where `thread::sleep` overshoots badly.
pub(crate) fn spin_delay(delay: std::time::Duration) {
    if delay.is_zero() {
        return;
    }
    let end = std::time::Instant::now() + delay;
    while std::time::Instant::now() < end {
        std::hint::spin_loop();
    }
}

/// A named topic holding one [`PartitionLog`] per partition.
///
/// All methods are thread-safe; each partition is guarded by its own lock
/// so that producers targeting different partitions do not contend.
#[derive(Debug)]
pub struct Topic {
    name: String,
    config: TopicConfig,
    partitions: Vec<RwLock<PartitionLog>>,
}

impl Topic {
    /// Creates a topic.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] when the configuration fails
    /// validation.
    pub fn new(name: impl Into<String>, config: TopicConfig) -> Result<Self> {
        config.validate().map_err(Error::InvalidConfig)?;
        let partitions = (0..config.partitions)
            .map(|_| RwLock::new(PartitionLog::new(config.clone())))
            .collect();
        Ok(Topic {
            name: name.into(),
            config,
            partitions,
        })
    }

    /// The topic name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The topic configuration.
    pub fn config(&self) -> &TopicConfig {
        &self.config
    }

    /// Number of partitions.
    pub fn partition_count(&self) -> u32 {
        self.partitions.len() as u32
    }

    fn partition(&self, partition: u32) -> Result<&RwLock<PartitionLog>> {
        self.partitions
            .get(partition as usize)
            .ok_or_else(|| Error::UnknownPartition {
                topic: self.name.clone(),
                partition,
            })
    }

    /// Takes a partition's append lock, recording whether the
    /// acquisition contended — the per-partition leader health signal.
    /// With the obs gate off this is exactly `lock.write()` plus one
    /// branch, so the hot path stays allocation- and atomic-free.
    fn write_log<'a>(lock: &'a RwLock<PartitionLog>) -> parking_lot::WriteGuard<'a, PartitionLog> {
        if !obs::enabled() {
            return lock.write();
        }
        let leaders = crate::telemetry::leader_path();
        match lock.try_write() {
            Some(guard) => {
                leaders.append_uncontended.add(1);
                guard
            }
            None => {
                leaders.append_contended.add(1);
                lock.write()
            }
        }
    }

    /// Rejects a request carrying a leader epoch older than the one the
    /// log enforces. `None` (an unfenced direct-broker append) always
    /// passes; on the fault-free path this is one branch.
    fn check_fence(log: &PartitionLog, fence: Option<u64>) -> Result<()> {
        if let Some(epoch) = fence {
            let current = log.leader_epoch();
            if epoch < current {
                return Err(Error::FencedEpoch {
                    current,
                    requested: epoch,
                });
            }
        }
        Ok(())
    }

    /// Leader epoch currently enforced by `partition`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownPartition`] for out-of-range partitions.
    pub fn leader_epoch(&self, partition: u32) -> Result<u64> {
        Ok(self.partition(partition)?.read().leader_epoch())
    }

    /// Raises the leader epoch enforced by `partition` (epochs never move
    /// backwards). Takes the partition's append lock, so in-flight appends
    /// from the old epoch either complete before the bump or are fenced
    /// after it — there is no in-between.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownPartition`] for out-of-range partitions.
    pub fn set_leader_epoch(&self, partition: u32, epoch: u64) -> Result<()> {
        self.partition(partition)?.write().set_leader_epoch(epoch);
        Ok(())
    }

    /// Truncates `partition` to end at `offset`, returning the number of
    /// records removed (see [`PartitionLog::truncate_to`]).
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownPartition`] for out-of-range partitions.
    pub fn truncate_to(&self, partition: u32, offset: u64) -> Result<u64> {
        Ok(self.partition(partition)?.write().truncate_to(offset))
    }

    /// Copies `leader`'s records `from..to` of `partition` onto this
    /// topic's, verbatim and in blocks, skipping any this replica already
    /// holds (see [`PartitionLog::append_range`]) — a follower's
    /// replication fetch and a rejoining follower's catch-up. Returns the
    /// number of records copied.
    ///
    /// Holds both partitions' locks for the copy, the leader's shared and
    /// this one's exclusive, taken in address order: which of two
    /// replicas leads changes with every election, so "leader first"
    /// would be two orders.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownPartition`] for out-of-range partitions,
    /// or [`Error::ReplicaMisaligned`] / [`Error::OffsetOutOfRange`] when
    /// the range does not continue this log or is not in the leader's.
    pub fn append_range(&self, partition: u32, leader: &Topic, from: u64, to: u64) -> Result<u64> {
        let target = self.partition(partition)?;
        let source = leader.partition(partition)?;
        if std::ptr::eq(source, target) {
            // A log already holds whatever it could copy from itself.
            return Ok(0);
        }
        let (source, mut target) = if std::ptr::from_ref(source) < std::ptr::from_ref(target) {
            let source = source.read();
            (source, target.write())
        } else {
            let target = target.write();
            (source.read(), target)
        };
        let (records, blocks) = target.append_range(&source, from, to)?;
        if obs::enabled() && records > 0 {
            let path = crate::telemetry::replica_path();
            path.records.add(records);
            path.blocks.add(blocks);
        }
        Ok(records)
    }

    /// The one client append: every produce request — a named call or a
    /// cached handle, a single record (a batch of one) or five hundred,
    /// plain, sequenced or fenced — lands here.
    ///
    /// In order, all under the partition's append lock: pay `delay` (the
    /// broker's simulated network round trip — a partition has one
    /// leader, so concurrent producers to the same partition serialize
    /// their requests rather than overlapping them); reject a `fence`
    /// (leader epoch) older than the one the log enforces, so a deposed
    /// leader's late write can never land after an election; skip a
    /// batch whose `seq` (`(producer_id, first_seq)` of an idempotent
    /// writer) the log already applied — a retry after a lost ack —
    /// returning the offset it got then; stamp once per batch; append.
    ///
    /// Drains `records` (the drained-Vec contract): on success, a
    /// deduplicated retry included, the batch comes back empty with its
    /// capacity intact, so steady-state producers flush the same buffer
    /// forever; on failure the records are left in place for the resend.
    /// Returns the offset of the first record; the batch is contiguous.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownPartition`] or [`Error::FencedEpoch`].
    pub(crate) fn append_request(
        &self,
        partition: u32,
        records: &mut Vec<Record>,
        now: Timestamp,
        delay: std::time::Duration,
        seq: Option<(u64, u64)>,
        fence: Option<u64>,
    ) -> Result<u64> {
        let lock = self.partition(partition)?;
        let mut log = Self::write_log(lock);
        spin_delay(delay);
        Self::check_fence(&log, fence)?;
        if let Some(base) = seq.and_then(|(producer, first)| log.duplicate_of(producer, first)) {
            records.clear();
            return Ok(base);
        }
        // One shared `LogAppendTime` stamp for the whole batch, clamped
        // under the append lock: concurrent producers may sample the
        // clock out of order, but the stamp is assigned by the
        // (serialized) append, so it never decreases along a partition.
        let append_stamp = log.last_timestamp().map_or(now, |last| now.max(last));
        let base = log.next_offset();
        for record in records.drain(..) {
            log.append(record, append_stamp);
        }
        if let Some((producer, first)) = seq {
            log.record_seq(producer, first, base);
        }
        Ok(base)
    }

    /// Appends `record` to `partition` — a batch of one, with no round
    /// trip, sequence or fence — stamped `LogAppendTime` from `now`, the
    /// broker clock reading. Returns the assigned offset.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownPartition`] for out-of-range partitions.
    pub fn append(&self, partition: u32, record: Record, now: Timestamp) -> Result<u64> {
        self.append_batch(partition, vec![record], now)
    }

    /// Appends a batch, returning the offset of the first record.
    ///
    /// The batch is appended atomically with respect to other producers of
    /// the same partition: all records receive consecutive offsets.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownPartition`] for out-of-range partitions.
    pub fn append_batch(
        &self,
        partition: u32,
        mut records: Vec<Record>,
        now: Timestamp,
    ) -> Result<u64> {
        let result = self.append_request(
            partition,
            &mut records,
            now,
            std::time::Duration::ZERO,
            None,
            None,
        );
        if result.is_ok() {
            crate::pool::recycle_record_vec(records);
        }
        result
    }

    /// Reads up to `max` records of `partition` starting at `offset`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownPartition`] or [`Error::OffsetOutOfRange`].
    pub fn read(&self, partition: u32, offset: u64, max: usize) -> Result<Vec<StoredRecord>> {
        Ok(self.partition(partition)?.read().read(offset, max)?)
    }

    /// Like [`Topic::read`], but **appends** into `out` (never clearing
    /// it), returning the number of records appended — the allocation-free
    /// read path for buffer-reusing consumers.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownPartition`] or [`Error::OffsetOutOfRange`].
    pub fn read_into(
        &self,
        partition: u32,
        offset: u64,
        max: usize,
        out: &mut Vec<StoredRecord>,
    ) -> Result<usize> {
        Ok(self
            .partition(partition)?
            .read()
            .read_into(offset, max, out)?)
    }

    /// Next offset to be written in `partition`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownPartition`] for out-of-range partitions.
    pub fn latest_offset(&self, partition: u32) -> Result<u64> {
        Ok(self.partition(partition)?.read().next_offset())
    }

    /// Earliest retained offset in `partition`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownPartition`] for out-of-range partitions.
    pub fn earliest_offset(&self, partition: u32) -> Result<u64> {
        Ok(self.partition(partition)?.read().earliest_offset())
    }

    /// Timestamp of the first retained record in `partition`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownPartition`] for out-of-range partitions.
    pub fn first_timestamp(&self, partition: u32) -> Result<Option<Timestamp>> {
        Ok(self.partition(partition)?.read().first_timestamp())
    }

    /// Timestamp of the last record in `partition`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownPartition`] for out-of-range partitions.
    pub fn last_timestamp(&self, partition: u32) -> Result<Option<Timestamp>> {
        Ok(self.partition(partition)?.read().last_timestamp())
    }

    /// Statistics for `partition`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownPartition`] for out-of-range partitions.
    pub fn stats(&self, partition: u32) -> Result<LogStats> {
        Ok(self.partition(partition)?.read().stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn invalid_config_is_rejected() {
        let config = TopicConfig {
            replication_factor: 0,
            ..TopicConfig::default()
        };
        assert!(matches!(
            Topic::new("t", config),
            Err(Error::InvalidConfig(_))
        ));
    }

    #[test]
    fn append_stamps_log_append_time() {
        let topic = Topic::new("la", TopicConfig::default()).unwrap();
        let now = Timestamp::from_micros(99);
        topic.append(0, Record::from_value("x"), now).unwrap();
        assert_eq!(topic.read(0, 0, 1).unwrap()[0].timestamp.as_micros(), 99);
    }

    #[test]
    fn batch_append_is_contiguous() {
        let topic = Topic::new("t", TopicConfig::default()).unwrap();
        let batch: Vec<Record> = (0..10)
            .map(|i| Record::from_value(format!("{i}")))
            .collect();
        let base = topic
            .append_batch(0, batch, Timestamp::from_micros(1))
            .unwrap();
        assert_eq!(base, 0);
        let base2 = topic
            .append_batch(0, vec![Record::from_value("x")], Timestamp::from_micros(2))
            .unwrap();
        assert_eq!(base2, 10);
        assert_eq!(topic.latest_offset(0).unwrap(), 11);
    }

    #[test]
    fn unknown_partition_errors() {
        let topic = Topic::new("t", TopicConfig::default().partitions(2)).unwrap();
        assert!(topic
            .append(5, Record::from_value("x"), Timestamp(0))
            .is_err());
        assert!(topic.read(2, 0, 1).is_err());
        assert!(topic.latest_offset(2).is_err());
        assert_eq!(topic.partition_count(), 2);
    }

    /// One zero-delay request against `topic`'s partition 0.
    fn request(
        topic: &Topic,
        batch: &mut Vec<Record>,
        now: i64,
        seq: Option<(u64, u64)>,
        fence: Option<u64>,
    ) -> Result<u64> {
        topic.append_request(
            0,
            batch,
            Timestamp(now),
            std::time::Duration::ZERO,
            seq,
            fence,
        )
    }

    #[test]
    fn stale_epoch_appends_are_fenced() {
        let topic = Topic::new("t", TopicConfig::default()).unwrap();
        topic.set_leader_epoch(0, 2).unwrap();
        // Current or newer epochs pass; older ones are rejected.
        request(
            &topic,
            &mut vec![Record::from_value("ok")],
            1,
            None,
            Some(2),
        )
        .unwrap();
        let err = request(
            &topic,
            &mut vec![Record::from_value("stale")],
            2,
            None,
            Some(1),
        )
        .unwrap_err();
        assert!(matches!(
            err,
            Error::FencedEpoch {
                current: 2,
                requested: 1
            }
        ));
        // Unfenced (direct broker) appends are unaffected.
        topic
            .append(0, Record::from_value("direct"), Timestamp(3))
            .unwrap();
        assert_eq!(topic.latest_offset(0).unwrap(), 2);
    }

    #[test]
    fn fenced_batch_leaves_records_for_resend() {
        let topic = Topic::new("t", TopicConfig::default()).unwrap();
        topic.set_leader_epoch(0, 5).unwrap();
        let mut batch = vec![Record::from_value("a"), Record::from_value("b")];
        let err = request(&topic, &mut batch, 1, None, Some(4)).unwrap_err();
        assert!(matches!(err, Error::FencedEpoch { .. }));
        assert_eq!(batch.len(), 2, "failed batch stays intact for resend");
        // A fenced sequenced request must not be remembered either: the
        // resend at the right epoch is a first delivery, not a duplicate.
        let err = request(&topic, &mut batch, 1, Some((7, 0)), Some(4)).unwrap_err();
        assert!(matches!(err, Error::FencedEpoch { .. }));
        assert_eq!(request(&topic, &mut batch, 2, Some((7, 0)), Some(5)), Ok(0));
        assert!(batch.is_empty(), "accepted batch drains");
        assert_eq!(topic.latest_offset(0).unwrap(), 2);
    }

    #[test]
    fn sequenced_retry_of_a_batch_of_one_returns_the_original_offset() {
        let topic = Topic::new("t", TopicConfig::default()).unwrap();
        topic
            .append(0, Record::from_value("before"), Timestamp(1))
            .unwrap();
        let record = Record::from_value("once");
        let mut batch = vec![record.clone()];
        assert_eq!(request(&topic, &mut batch, 2, Some((9, 0)), None), Ok(1));
        assert!(batch.is_empty());
        // The ack was lost; the client resends the same sequence number.
        batch.push(record);
        let capacity = batch.capacity();
        assert_eq!(request(&topic, &mut batch, 3, Some((9, 0)), None), Ok(1));
        assert!(batch.is_empty(), "a deduplicated retry still drains");
        assert_eq!(batch.capacity(), capacity, "capacity survives the drain");
        assert_eq!(topic.latest_offset(0).unwrap(), 2, "applied exactly once");
        // The next sequence number is a new batch.
        batch.push(Record::from_value("next"));
        assert_eq!(request(&topic, &mut batch, 4, Some((9, 1)), None), Ok(2));
    }

    #[test]
    fn replica_catch_up_skips_held_records() {
        let leader = Topic::new("t", TopicConfig::default()).unwrap();
        for i in 0..5 {
            leader
                .append(0, Record::from_value(format!("r{i}")), Timestamp(i))
                .unwrap();
        }
        let follower = Topic::new("t", TopicConfig::default()).unwrap();
        follower
            .append(0, Record::from_value("r0"), Timestamp(0))
            .unwrap();
        let copied = follower.append_range(0, &leader, 0, 5).unwrap();
        assert_eq!(copied, 4, "record 0 already held");
        assert_eq!(follower.latest_offset(0).unwrap(), 5);
        assert_eq!(
            follower.read(0, 0, 100).unwrap(),
            leader.read(0, 0, 100).unwrap()
        );
        // The same range again is all held; a topic copies nothing from
        // itself; an unknown partition is an error on either side.
        assert_eq!(follower.append_range(0, &leader, 0, 5), Ok(0));
        assert_eq!(leader.append_range(0, &leader, 0, 5), Ok(0));
        assert!(matches!(
            follower.append_range(1, &leader, 0, 5),
            Err(Error::UnknownPartition { .. })
        ));
    }

    #[test]
    fn replica_ranges_that_do_not_line_up_are_typed_errors() {
        let config = || {
            TopicConfig::default()
                .segment_bytes(64)
                .retention_records(4)
        };
        let leader = Topic::new("t", config()).unwrap();
        for i in 0..20 {
            leader
                .append(0, Record::from_value(format!("r{i}")), Timestamp(i))
                .unwrap();
        }
        let earliest = leader.earliest_offset(0).unwrap();
        assert!(earliest > 0, "retention dropped the head");
        let follower = Topic::new("t", TopicConfig::default()).unwrap();
        // The follower ends before the range starts: a gap.
        assert_eq!(
            follower.append_range(0, &leader, earliest, 20),
            Err(Error::ReplicaMisaligned {
                replica_end: 0,
                from: earliest,
                to: 20
            })
        );
        // What it still needs is no longer on the leader, or not yet.
        assert_eq!(
            follower.append_range(0, &leader, 0, 20),
            Err(Error::OffsetOutOfRange {
                requested: 0,
                earliest,
                latest: 20
            })
        );
        let caught_up = Topic::new("t", TopicConfig::default()).unwrap();
        for i in 0..20 {
            caught_up
                .append(0, Record::from_value(format!("r{i}")), Timestamp(i))
                .unwrap();
        }
        assert!(matches!(
            caught_up.append_range(0, &leader, 20, 21),
            Err(Error::OffsetOutOfRange { requested: 21, .. })
        ));
        // The follower holds more than the range vouches for.
        assert_eq!(
            caught_up.append_range(0, &leader, earliest, 19),
            Err(Error::ReplicaMisaligned {
                replica_end: 20,
                from: earliest,
                to: 19
            })
        );
        // Nothing was appended by any of them.
        assert_eq!(follower.latest_offset(0).unwrap(), 0);
        assert_eq!(caught_up.latest_offset(0).unwrap(), 20);
    }

    #[test]
    fn truncate_then_reappend() {
        let topic = Topic::new("t", TopicConfig::default()).unwrap();
        for i in 0..4 {
            topic
                .append(0, Record::from_value(format!("{i}")), Timestamp(i))
                .unwrap();
        }
        assert_eq!(topic.truncate_to(0, 2).unwrap(), 2);
        assert_eq!(topic.latest_offset(0).unwrap(), 2);
        let off = topic
            .append(0, Record::from_value("new"), Timestamp(9))
            .unwrap();
        assert_eq!(off, 2);
    }

    #[test]
    fn per_partition_isolation() {
        let topic = Topic::new("t", TopicConfig::default().partitions(2)).unwrap();
        topic
            .append(0, Record::from_value("a"), Timestamp(1))
            .unwrap();
        topic
            .append(1, Record::from_value("b"), Timestamp(2))
            .unwrap();
        topic
            .append(1, Record::from_value("c"), Timestamp(3))
            .unwrap();
        assert_eq!(topic.latest_offset(0).unwrap(), 1);
        assert_eq!(topic.latest_offset(1).unwrap(), 2);
        assert_eq!(topic.first_timestamp(1).unwrap().unwrap().as_micros(), 2);
        assert_eq!(topic.last_timestamp(1).unwrap().unwrap().as_micros(), 3);
    }
}
