//! The per-partition append-only log.

use crate::config::TopicConfig;
use crate::error::{Error, Result};
use crate::record::{Record, StoredRecord, Timestamp};
use crate::segment::Segment;
use std::collections::HashMap;

/// Summary statistics for one partition log.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LogStats {
    /// Records currently retained.
    pub records: u64,
    /// Records ever appended (retention does not reduce this).
    pub appended: u64,
    /// Number of live segments.
    pub segments: usize,
    /// Accumulated wire bytes of retained records.
    pub bytes: usize,
}

/// A partition's segmented, append-only record log.
///
/// Invariants:
///
/// * offsets are dense and strictly increasing; the next append receives
///   [`PartitionLog::next_offset`];
/// * stored timestamps are non-decreasing when the topic uses
///   `LogAppendTime` and a monotone clock;
/// * segments are contiguous: each segment's `base_offset` equals the
///   previous segment's `next_offset`.
#[derive(Debug)]
pub struct PartitionLog {
    config: TopicConfig,
    segments: Vec<Segment>,
    /// The segment retention dropped last, emptied: the next roll reuses
    /// its chunk and spill tables (its index blocks went to the pool
    /// every segment draws from), so a log at its retention limit turns
    /// segments over without allocating.
    spare: Option<Segment>,
    /// Offset of the earliest retained record.
    log_start_offset: u64,
    appended: u64,
    /// Per-producer idempotence state: the last appended batch's first
    /// sequence number and its assigned base offset, keyed by producer
    /// id (Kafka's producer-epoch sequence dedup, collapsed to the
    /// last-batch window that serial per-writer retries need).
    producer_seqs: HashMap<u64, (u64, u64)>,
    /// Leader epoch this log currently accepts sequenced/fenced appends
    /// under. Bumped by the cluster controller on every election; stale
    /// writers carrying an older epoch are rejected under the partition
    /// lock (the fencing rule of DESIGN.md §10).
    leader_epoch: u64,
    /// Process-unique id keying this log's monotonic-write witnesses:
    /// lets the checker tell partitions apart without holding a lock.
    #[cfg(feature = "check-sync")]
    witness_id: u64,
}

/// Hands out [`PartitionLog::witness_id`] values.
#[cfg(feature = "check-sync")]
static NEXT_WITNESS_ID: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

impl PartitionLog {
    /// Creates an empty log with the given topic configuration.
    pub fn new(config: TopicConfig) -> Self {
        PartitionLog {
            segments: vec![Segment::new(0)],
            spare: None,
            config,
            log_start_offset: 0,
            appended: 0,
            producer_seqs: HashMap::new(),
            leader_epoch: 0,
            #[cfg(feature = "check-sync")]
            witness_id: NEXT_WITNESS_ID.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
        }
    }

    /// Checks a sequenced append for idempotence: if the producer's batch
    /// starting at `first_seq` was already appended, returns its stored
    /// base offset (the append must be skipped); otherwise `None`.
    pub fn duplicate_of(&self, producer_id: u64, first_seq: u64) -> Option<u64> {
        let &(last_first, base) = self.producer_seqs.get(&producer_id)?;
        (first_seq <= last_first).then_some(base)
    }

    /// Records a sequenced append so its retries deduplicate.
    pub fn record_seq(&mut self, producer_id: u64, first_seq: u64, base: u64) {
        self.producer_seqs.insert(producer_id, (first_seq, base));
    }

    /// Leader epoch this log currently enforces.
    pub fn leader_epoch(&self) -> u64 {
        self.leader_epoch
    }

    /// Raises the enforced leader epoch. Epochs never move backwards;
    /// a lower value is ignored.
    pub fn set_leader_epoch(&mut self, epoch: u64) {
        self.leader_epoch = self.leader_epoch.max(epoch);
    }

    /// Drops every record at or past `offset`, rewinding the log to where
    /// it agreed with the new leader (Kafka's truncate-on-becoming-
    /// follower). Producer-sequence dedup entries whose base offset was
    /// truncated away are forgotten so a legitimate resend is not
    /// swallowed as a duplicate. Returns the number of records removed.
    ///
    /// Truncating below the earliest retained offset is clamped to it.
    pub fn truncate_to(&mut self, offset: u64) -> u64 {
        let offset = offset.max(self.log_start_offset);
        let next = self.next_offset();
        if offset >= next {
            return 0;
        }
        while let Some(last) = self.segments.last() {
            if last.base_offset() >= offset && self.segments.len() > 1 {
                self.segments.pop();
            } else {
                break;
            }
        }
        if let Some(last) = self.segments.last_mut() {
            last.truncate_to(offset);
        }
        self.producer_seqs.retain(|_, &mut (_, base)| base < offset);
        // A truncated log re-issues offsets the old epoch already used, so
        // the monotonic-offset witness stream must restart under a fresh
        // identity or the checker would flag the legitimate rewind.
        #[cfg(feature = "check-sync")]
        {
            self.witness_id = NEXT_WITNESS_ID.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
        next - offset
    }

    /// Appends `leader`'s records `from..to` verbatim — leader-assigned
    /// offsets and stamps, the same byte accounting, roll points and
    /// retention as appending them one by one — skipping what this log
    /// already holds: how a follower replicates, a produce round or a
    /// whole catch-up at a time. The records move in blocks (see
    /// `Segment::append_block`): one `memcpy` per run that sits back to
    /// back in a leader arena chunk, not one materialised record each.
    /// Returns how many records and how many blocks were copied.
    ///
    /// # Errors
    ///
    /// [`Error::ReplicaMisaligned`] when this log ends before `from` (the
    /// copy would leave a gap) or past `to` (it holds records the range
    /// does not vouch for); [`Error::OffsetOutOfRange`] when the leader no
    /// longer retains, or does not yet hold, part of what is left to
    /// copy. Nothing is appended in either case.
    pub fn append_range(
        &mut self,
        leader: &PartitionLog,
        from: u64,
        to: u64,
    ) -> Result<(u64, u64)> {
        if from >= to {
            return Ok((0, 0));
        }
        let held = self.next_offset();
        if held < from || held > to {
            return Err(Error::ReplicaMisaligned {
                replica_end: held,
                from,
                to,
            });
        }
        if held == to {
            return Ok((0, 0));
        }
        let out_of_range = |requested| Error::OffsetOutOfRange {
            requested,
            earliest: leader.log_start_offset,
            latest: leader.next_offset(),
        };
        if held < leader.log_start_offset {
            return Err(out_of_range(held));
        }
        if to > leader.next_offset() {
            return Err(out_of_range(to));
        }
        let first = leader
            .segments
            .partition_point(|s| s.base_offset() <= held)
            .saturating_sub(1);
        let (mut at, mut blocks) = (held, 0);
        for source in &leader.segments[first..] {
            while at < to && source.contains(at) {
                if self.active_segment_full() {
                    self.roll(at);
                }
                let Some(segment) = self.segments.last_mut() else {
                    break;
                };
                let copied = segment.append_block(source, at, to, self.config.segment_bytes) as u64;
                if copied == 0 {
                    break;
                }
                // A block rewinding into offsets this log already issued
                // trips the same witness a torn `append` would.
                #[cfg(feature = "check-sync")]
                for (offset, strict) in [(at, true), (at + copied - 1, false)] {
                    parking_lot::sync_check::witness_monotonic(
                        "logbus.offset",
                        self.witness_id,
                        offset,
                        strict,
                    );
                }
                at += copied;
                blocks += 1;
                self.appended += copied;
                self.apply_retention();
            }
        }
        if at < to {
            // Unreachable while segments stay contiguous; reported, not
            // asserted, so a replication round can never panic.
            return Err(out_of_range(at));
        }
        Ok((at - held, blocks))
    }

    /// Offset that the next appended record will receive.
    pub fn next_offset(&self) -> u64 {
        self.segments.last().map_or(0, Segment::next_offset)
    }

    /// Offset of the earliest retained record.
    pub fn earliest_offset(&self) -> u64 {
        self.log_start_offset
    }

    /// Number of retained records.
    pub fn len(&self) -> u64 {
        self.next_offset() - self.log_start_offset
    }

    /// Whether the log retains no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends `records`, all stamped `stamp` (the broker's
    /// `LogAppendTime`, already clamped to never decrease), reading them
    /// by reference. Returns the offset of the first; the batch is
    /// contiguous. Per record the active segment is checked for room
    /// (rolling when full, exactly where appending one record at a time
    /// would) and the record packed into the arena with one index entry;
    /// `appended` and retention are settled once per batch.
    pub fn append_batch(&mut self, records: &[Record], stamp: Timestamp) -> u64 {
        let base = self.next_offset();
        if records.is_empty() {
            return base;
        }
        // Lost-update witnesses: a torn or misordered append (e.g. two
        // writers racing past the broker's partition lock) shows up as a
        // non-monotonic offset or a stamp that travels backwards.
        // Compiled out without `check-sync`.
        #[cfg(feature = "check-sync")]
        {
            let last = base + records.len() as u64 - 1;
            for (offset, strict) in [(base, true), (last, false)] {
                parking_lot::sync_check::witness_monotonic(
                    "logbus.offset",
                    self.witness_id,
                    offset,
                    strict,
                );
            }
            parking_lot::sync_check::witness_monotonic(
                "logbus.append_time",
                self.witness_id,
                stamp.as_micros().max(0) as u64,
                false,
            );
        }
        let mut rest = records;
        while !rest.is_empty() {
            if self.active_segment_full() {
                self.roll(self.next_offset());
            }
            // `active_segment_full` treats an empty log as full, so the
            // roll above guarantees a tail segment; the guard (rather
            // than a panicking unwrap) upholds the hot-path no-panic
            // contract.
            let Some(segment) = self.segments.last_mut() else {
                break;
            };
            let taken = segment.append_batch(rest, stamp, self.config.segment_bytes);
            rest = &rest[taken..];
        }
        self.appended += (records.len() - rest.len()) as u64;
        self.apply_retention();
        base
    }

    /// Appends one record: [`PartitionLog::append_batch`] with a batch of
    /// one. Returns the record's offset.
    pub fn append(&mut self, record: Record, stamp: Timestamp) -> u64 {
        self.append_batch(std::slice::from_ref(&record), stamp)
    }

    fn active_segment_full(&self) -> bool {
        self.segments
            .last()
            .is_none_or(|s| s.bytes() >= self.config.segment_bytes)
    }

    /// Starts a new active segment at `base_offset`.
    fn roll(&mut self, base_offset: u64) {
        let mut segment = self.spare.take().unwrap_or_default();
        segment.reset(base_offset);
        self.segments.push(segment);
    }

    fn apply_retention(&mut self) {
        let Some(limit) = self.config.retention_records else {
            return;
        };
        // Drop whole inactive segments while the retained count exceeds the
        // limit, as Kafka's record-count retention does.
        while self.segments.len() > 1 {
            let first_len = self.segments[0].len() as u64;
            if self.len() - first_len >= limit {
                let mut removed = self.segments.remove(0);
                self.log_start_offset = removed.next_offset();
                // Let the arena go now (chunks recycle once outstanding
                // fetch views drop); keep the tables for the next roll.
                removed.reset(self.log_start_offset);
                self.spare = Some(removed);
            } else {
                break;
            }
        }
    }

    /// Returns up to `max` records starting at `offset`.
    ///
    /// # Errors
    ///
    /// Returns [`OffsetOutOfRange`](OffsetError::OffsetOutOfRange) when
    /// `offset` lies before the earliest retained record or after the next
    /// offset. Reading *at* the next offset yields an empty batch (a poll
    /// on a caught-up consumer).
    pub fn read(
        &self,
        offset: u64,
        max: usize,
    ) -> std::result::Result<Vec<StoredRecord>, OffsetError> {
        let mut out = Vec::new();
        self.read_into(offset, max, &mut out)?;
        Ok(out)
    }

    /// Like [`PartitionLog::read`], but **appends** the records to `out`
    /// instead of allocating a fresh vector, so steady-state consumers can
    /// reuse one buffer across polls. Returns the number of records
    /// appended; `out` is never cleared or truncated.
    ///
    /// # Errors
    ///
    /// Same as [`PartitionLog::read`].
    pub fn read_into(
        &self,
        offset: u64,
        max: usize,
        out: &mut Vec<StoredRecord>,
    ) -> std::result::Result<usize, OffsetError> {
        if offset < self.log_start_offset || offset > self.next_offset() {
            return Err(OffsetError::OffsetOutOfRange {
                requested: offset,
                earliest: self.log_start_offset,
                latest: self.next_offset(),
            });
        }
        // Reserve the exact record count once: reads spanning several
        // segments then append into a single allocation instead of
        // growing geometrically.
        out.reserve(max.min((self.next_offset() - offset) as usize));
        // A fetch lands in the last segment or two of a long log: find
        // the segment holding `offset` by its base instead of walking
        // from the head, and stop once a segment has nothing to add.
        let first = self
            .segments
            .partition_point(|s| s.base_offset() <= offset)
            .saturating_sub(1);
        let mut appended = 0;
        for segment in &self.segments[first..] {
            let got = segment.read_into(offset + appended as u64, max - appended, out);
            if got == 0 {
                break;
            }
            appended += got;
        }
        Ok(appended)
    }

    /// Timestamp of the earliest retained record.
    pub fn first_timestamp(&self) -> Option<Timestamp> {
        self.segments.iter().find_map(Segment::first_timestamp)
    }

    /// Timestamp of the latest record.
    pub fn last_timestamp(&self) -> Option<Timestamp> {
        self.segments.iter().rev().find_map(Segment::last_timestamp)
    }

    /// The topic configuration this log was created with.
    pub fn config(&self) -> &TopicConfig {
        &self.config
    }

    /// Current statistics.
    pub fn stats(&self) -> LogStats {
        LogStats {
            records: self.len(),
            appended: self.appended,
            segments: self.segments.len(),
            bytes: self.segments.iter().map(Segment::bytes).sum(),
        }
    }
}

/// Error raised by reads at invalid offsets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OffsetError {
    /// The requested offset is outside the retained range.
    OffsetOutOfRange {
        /// Offset the caller asked for.
        requested: u64,
        /// Earliest retained offset.
        earliest: u64,
        /// Next offset to be written.
        latest: u64,
    },
}

impl std::fmt::Display for OffsetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OffsetError::OffsetOutOfRange {
                requested,
                earliest,
                latest,
            } => write!(
                f,
                "offset {requested} out of range (earliest {earliest}, latest {latest})"
            ),
        }
    }
}

impl std::error::Error for OffsetError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn log_with(segment_bytes: usize) -> PartitionLog {
        PartitionLog::new(TopicConfig::default().segment_bytes(segment_bytes))
    }

    fn append_n(log: &mut PartitionLog, n: usize) {
        for i in 0..n {
            let off = log.append(
                Record::from_value(format!("record-{i}")),
                Timestamp::from_micros(i as i64),
            );
            assert_eq!(off, log.next_offset() - 1);
        }
    }

    #[test]
    fn offsets_are_dense() {
        let mut log = log_with(1 << 20);
        append_n(&mut log, 100);
        assert_eq!(log.len(), 100);
        let all = log.read(0, 1000).unwrap();
        for (i, r) in all.iter().enumerate() {
            assert_eq!(r.offset, i as u64);
        }
    }

    #[test]
    fn segments_roll_by_size() {
        let mut log = log_with(64);
        append_n(&mut log, 50);
        assert!(
            log.stats().segments > 1,
            "expected the tiny segments to roll"
        );
        // Reads spanning segment boundaries are seamless.
        let all = log.read(0, 1000).unwrap();
        assert_eq!(all.len(), 50);
        let mid = log.read(17, 9).unwrap();
        assert_eq!(mid.len(), 9);
        assert_eq!(mid[0].offset, 17);
        assert_eq!(mid[8].offset, 25);
    }

    #[test]
    fn read_at_log_end_is_empty() {
        let mut log = log_with(1 << 20);
        append_n(&mut log, 3);
        assert!(log.read(3, 10).unwrap().is_empty());
        assert!(log.read(4, 10).is_err());
    }

    #[test]
    fn read_before_start_errors() {
        let mut log = PartitionLog::new(
            TopicConfig::default()
                .segment_bytes(40)
                .retention_records(5),
        );
        append_n(&mut log, 100);
        assert!(
            log.earliest_offset() > 0,
            "retention should have dropped segments"
        );
        let err = log.read(0, 10).unwrap_err();
        let OffsetError::OffsetOutOfRange {
            requested,
            earliest,
            ..
        } = err;
        assert_eq!(requested, 0);
        assert_eq!(earliest, log.earliest_offset());
        // Offsets of retained records are preserved after retention.
        let first = &log.read(log.earliest_offset(), 1).unwrap()[0];
        assert_eq!(first.offset, log.earliest_offset());
        assert_eq!(
            &first.record.value[..],
            format!("record-{}", log.earliest_offset()).as_bytes()
        );
    }

    #[test]
    fn reads_at_every_segment_boundary_after_retention() {
        let mut log = PartitionLog::new(
            TopicConfig::default()
                .segment_bytes(64)
                .retention_records(20),
        );
        append_n(&mut log, 100);
        let (start, end) = (log.earliest_offset(), log.next_offset());
        assert!(start > 0, "retention should have dropped the head");
        assert!(log.stats().segments > 3, "need several live segments");
        let expect = |from: u64, max: u64| -> Vec<String> {
            (from..end.min(from + max))
                .map(|o| format!("record-{o}"))
                .collect()
        };
        let bases: Vec<u64> = log.segments.iter().map(Segment::base_offset).collect();
        assert_eq!(bases[0], start);
        for &base in &bases {
            // On, just before and just after each boundary; within one
            // segment, across one boundary, and to the end of the log.
            for from in [base.saturating_sub(1).max(start), base, base + 1] {
                for max in [0, 1, 2, 7, 1000] {
                    let got = log.read(from, max as usize).unwrap();
                    let values: Vec<String> = got
                        .iter()
                        .map(|r| String::from_utf8_lossy(r.value()).into_owned())
                        .collect();
                    assert_eq!(values, expect(from, max), "from {from} max {max}");
                    assert!(got
                        .iter()
                        .map(|r| r.offset)
                        .eq(from..from + got.len() as u64));
                }
            }
        }
        assert!(log.read(end, 10).unwrap().is_empty());
        assert!(log.read(start - 1, 10).is_err());
        // `read_into` appends behind whatever the buffer already holds.
        let mut out = log.read(start, 1).unwrap();
        assert_eq!(log.read_into(bases[1], 3, &mut out).unwrap(), 3);
        assert_eq!(out.len(), 4);
        assert_eq!(out[1].offset, bases[1]);
    }

    #[test]
    fn timestamps_first_last() {
        let mut log = log_with(1 << 20);
        assert!(log.first_timestamp().is_none());
        append_n(&mut log, 10);
        assert_eq!(log.first_timestamp().unwrap().as_micros(), 0);
        assert_eq!(log.last_timestamp().unwrap().as_micros(), 9);
    }

    #[test]
    fn producer_seq_dedup_window() {
        let mut log = log_with(1 << 20);
        assert_eq!(log.duplicate_of(7, 0), None);
        log.record_seq(7, 0, 10);
        assert_eq!(log.duplicate_of(7, 0), Some(10), "exact retry is a dup");
        assert_eq!(log.duplicate_of(7, 1), None, "next batch is fresh");
        assert_eq!(log.duplicate_of(8, 0), None, "other producers unaffected");
        log.record_seq(7, 5, 42);
        assert_eq!(log.duplicate_of(7, 3), Some(42), "stale seq is a dup");
    }

    #[test]
    fn truncate_rewinds_offsets_and_seq_state() {
        let mut log = log_with(64);
        append_n(&mut log, 50);
        assert!(log.stats().segments > 1, "need several segments");
        log.record_seq(1, 0, 10);
        log.record_seq(2, 0, 40);
        let removed = log.truncate_to(30);
        assert_eq!(removed, 20);
        assert_eq!(log.next_offset(), 30);
        assert_eq!(log.len(), 30);
        // Dedup state past the truncation point is forgotten; earlier
        // entries survive.
        assert_eq!(log.duplicate_of(1, 0), Some(10));
        assert_eq!(log.duplicate_of(2, 0), None);
        // Re-appending resumes at the truncation point.
        let off = log.append(Record::from_value("again"), Timestamp::from_micros(99));
        assert_eq!(off, 30);
        let tail = log.read(29, 10).unwrap();
        assert_eq!(tail.len(), 2);
        assert_eq!(&tail[1].record.value[..], b"again");
    }

    #[test]
    fn truncate_past_end_is_noop() {
        let mut log = log_with(1 << 20);
        append_n(&mut log, 5);
        assert_eq!(log.truncate_to(5), 0);
        assert_eq!(log.truncate_to(100), 0);
        assert_eq!(log.len(), 5);
    }

    #[test]
    fn truncate_clamps_to_log_start() {
        let mut log = PartitionLog::new(
            TopicConfig::default()
                .segment_bytes(40)
                .retention_records(5),
        );
        append_n(&mut log, 100);
        let start = log.earliest_offset();
        assert!(start > 0);
        log.truncate_to(0);
        assert_eq!(log.next_offset(), start, "clamped to earliest retained");
    }

    #[test]
    fn leader_epoch_is_monotonic() {
        let mut log = log_with(1 << 20);
        assert_eq!(log.leader_epoch(), 0);
        log.set_leader_epoch(3);
        assert_eq!(log.leader_epoch(), 3);
        log.set_leader_epoch(1);
        assert_eq!(log.leader_epoch(), 3, "epochs never move backwards");
    }

    #[test]
    fn append_range_preserves_offsets_and_stamps() {
        let mut leader = log_with(1 << 20);
        append_n(&mut leader, 2);
        leader.append(Record::from_value("replica"), Timestamp::from_micros(77));
        let mut log = log_with(1 << 20);
        append_n(&mut log, 2);
        assert_eq!(log.append_range(&leader, 0, 3), Ok((1, 1)));
        let all = log.read(0, 10).unwrap();
        assert_eq!(all.len(), 3);
        assert_eq!(all[2].offset, 2);
        assert_eq!(all[2].timestamp.as_micros(), 77);
        assert_eq!(log.stats(), leader.stats());
    }

    #[test]
    fn append_range_rolls_and_retains_like_single_appends() {
        let config = TopicConfig::default()
            .segment_bytes(200)
            .retention_records(30);
        let mut leader = PartitionLog::new(config.clone());
        append_n(&mut leader, 100);
        // A leader that never dropped anything, so the whole history can
        // be copied; the follower applies its own retention to it.
        let mut source = log_with(1 << 20);
        append_n(&mut source, 100);
        let mut follower = PartitionLog::new(config);
        let (records, blocks) = follower.append_range(&source, 0, 100).unwrap();
        assert_eq!(records, 100);
        assert!(blocks < records, "several records per block");
        assert_eq!(follower.stats(), leader.stats());
        assert_eq!(follower.earliest_offset(), leader.earliest_offset());
        let bases = |log: &PartitionLog| -> Vec<u64> {
            log.segments.iter().map(Segment::base_offset).collect()
        };
        assert_eq!(bases(&follower), bases(&leader));
        let start = leader.earliest_offset();
        assert_eq!(follower.read(start, 100), leader.read(start, 100));
    }

    #[test]
    fn stats_track_appends() {
        let mut log = log_with(1 << 20);
        append_n(&mut log, 7);
        let stats = log.stats();
        assert_eq!(stats.records, 7);
        assert_eq!(stats.appended, 7);
        assert!(stats.bytes > 0);
    }
}
