//! The per-partition append-only log: one [`Segment`] that keeps every
//! record from offset 0, with the leader epoch and producer-sequence
//! state that fence and deduplicate appends to it.

use crate::config::TopicConfig;
use crate::error::{Error, Result};
use crate::record::{Record, StoredRecord, Timestamp};
use crate::segment::Segment;
use std::collections::HashMap;

/// Summary statistics for one partition log.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LogStats {
    /// Records the log holds.
    pub records: u64,
    /// Records ever appended (truncation does not reduce this).
    pub appended: u64,
    /// Accumulated wire bytes of the records the log holds.
    pub bytes: usize,
}

/// A partition's append-only record log.
///
/// Invariants:
///
/// * offsets are dense, start at 0 and strictly increase; the next
///   append receives [`PartitionLog::next_offset`];
/// * stored timestamps are non-decreasing when the topic uses
///   `LogAppendTime` and a monotone clock;
/// * nothing is dropped from the front: a topic is written once and read
///   once, so every record stays until truncation or the topic's delete.
#[derive(Debug)]
pub struct PartitionLog {
    config: TopicConfig,
    segment: Segment,
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
            segment: Segment::take(),
            config,
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
    pub fn truncate_to(&mut self, offset: u64) -> u64 {
        let next = self.next_offset();
        if offset >= next {
            return 0;
        }
        self.segment.truncate_to(offset);
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
    /// offsets and stamps, the same byte accounting as appending them one
    /// by one — skipping what this log already holds: how a follower
    /// replicates, a produce round or a whole catch-up at a time. The
    /// records move in blocks (see `Segment::append_block`): one `memcpy`
    /// per run that sits back to back in a leader arena chunk, not one
    /// materialised record each. Returns how many records and how many
    /// blocks were copied.
    ///
    /// # Errors
    ///
    /// [`Error::ReplicaMisaligned`] when this log ends before `from` (the
    /// copy would leave a gap) or past `to` (it holds records the range
    /// does not vouch for); [`Error::OffsetOutOfRange`] when the leader
    /// does not yet hold all of `..to`. Nothing is appended in either
    /// case.
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
        if to > leader.next_offset() {
            return Err(Error::OffsetOutOfRange {
                requested: to,
                latest: leader.next_offset(),
            });
        }
        let (mut at, mut blocks) = (held, 0);
        while at < to {
            // At least one record: `at` lies in the leader's log.
            let copied = self.segment.append_block(&leader.segment, at, to) as u64;
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
        }
        self.appended += at - held;
        Ok((at - held, blocks))
    }

    /// Offset that the next appended record will receive.
    pub fn next_offset(&self) -> u64 {
        self.segment.next_offset()
    }

    /// Number of records the log holds.
    pub fn len(&self) -> u64 {
        self.next_offset()
    }

    /// Whether the log holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends `records`, all stamped `stamp` (the broker's
    /// `LogAppendTime`, already clamped to never decrease), reading them
    /// by reference. Returns the offset of the first; the batch is
    /// contiguous. Each record is packed into the arena with one index
    /// entry; `appended` is settled once per batch.
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
        self.segment.append_batch(records, stamp);
        self.appended += records.len() as u64;
        base
    }

    /// Appends one record: [`PartitionLog::append_batch`] with a batch of
    /// one. Returns the record's offset.
    pub fn append(&mut self, record: Record, stamp: Timestamp) -> u64 {
        self.append_batch(std::slice::from_ref(&record), stamp)
    }

    /// Returns up to `max` records starting at `offset`.
    ///
    /// # Errors
    ///
    /// Returns [`OffsetOutOfRange`](OffsetError::OffsetOutOfRange) when
    /// `offset` lies past the next offset. Reading *at* the next offset
    /// yields an empty batch (a poll on a caught-up consumer).
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
        if offset > self.next_offset() {
            return Err(OffsetError::OffsetOutOfRange {
                requested: offset,
                latest: self.next_offset(),
            });
        }
        // Reserve the exact record count once: a read spanning several
        // index blocks then appends into a single allocation instead of
        // growing geometrically.
        out.reserve(max.min((self.next_offset() - offset) as usize));
        Ok(self.segment.read_into(offset, max, out))
    }

    /// Timestamp of the first record.
    pub fn first_timestamp(&self) -> Option<Timestamp> {
        self.segment.first_timestamp()
    }

    /// Timestamp of the latest record.
    pub fn last_timestamp(&self) -> Option<Timestamp> {
        self.segment.last_timestamp()
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
            bytes: self.segment.bytes(),
        }
    }
}

/// A dropped log — a deleted topic's partition — leaves its emptied
/// segment for the next log to fill (`Segment::retire`).
impl Drop for PartitionLog {
    fn drop(&mut self) {
        std::mem::take(&mut self.segment).retire();
    }
}

/// Error raised by reads at invalid offsets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OffsetError {
    /// The requested offset lies past the log's end.
    OffsetOutOfRange {
        /// Offset the caller asked for.
        requested: u64,
        /// Next offset to be written.
        latest: u64,
    },
}

impl std::fmt::Display for OffsetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OffsetError::OffsetOutOfRange { requested, latest } => {
                write!(f, "offset {requested} out of range (latest {latest})")
            }
        }
    }
}

impl std::error::Error for OffsetError {}

#[cfg(test)]
mod tests {
    use super::*;

    /// Entries per index block, as `segment.rs` sizes them.
    const INDEX_BLOCK: u64 = 2048;

    fn log() -> PartitionLog {
        PartitionLog::new(TopicConfig::default())
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

    /// Record `o` padded to 127 bytes: a 64 KiB arena chunk holds ~500.
    fn padded(o: u64) -> String {
        format!("record-{o:>120}")
    }

    #[test]
    fn offsets_are_dense() {
        let mut log = log();
        append_n(&mut log, 100);
        assert_eq!(log.len(), 100);
        let all = log.read(0, 1000).unwrap();
        for (i, r) in all.iter().enumerate() {
            assert_eq!(r.offset, i as u64);
        }
    }

    #[test]
    fn read_at_log_end_is_empty() {
        let mut log = log();
        append_n(&mut log, 3);
        assert!(log.read(3, 10).unwrap().is_empty());
        assert!(log.read(4, 10).is_err());
    }

    /// A log of `3 × INDEX_BLOCK + 5` padded records.
    fn padded_log() -> (PartitionLog, u64) {
        let mut log = log();
        let end = 3 * INDEX_BLOCK + 5;
        for o in 0..end {
            log.append(Record::from_value(padded(o)), Timestamp(o as i64));
        }
        (log, end)
    }

    /// Reads on, just before and just after each edge: within one block or
    /// chunk, across one edge, and to the end of the log.
    fn assert_reads_around(log: &PartitionLog, end: u64, edges: impl Iterator<Item = u64>) {
        let expect = |from: u64, max: u64| -> Vec<String> {
            (from..end.min(from + max)).map(padded).collect()
        };
        for edge in edges {
            for from in [edge - 1, edge, edge + 1] {
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
    }

    #[test]
    fn reads_at_every_index_block_edge() {
        let (log, end) = padded_log();
        assert_reads_around(&log, end, (1..=3).map(|b| b * INDEX_BLOCK));
        assert!(log.read(end, 10).unwrap().is_empty());
        assert!(log.read(end + 1, 10).is_err());
        // `read_into` appends behind whatever the buffer already holds.
        let mut out = log.read(0, 1).unwrap();
        assert_eq!(log.read_into(INDEX_BLOCK, 3, &mut out).unwrap(), 3);
        assert_eq!(out.len(), 4);
        assert_eq!(out[1].offset, INDEX_BLOCK);
    }

    #[test]
    fn reads_at_every_chunk_edge() {
        let (log, end) = padded_log();
        // A chunk edge is where a record does not start where the one
        // before it ends in memory.
        let all = log.read(0, usize::MAX).unwrap();
        let chunk_edges: Vec<u64> = all
            .windows(2)
            .filter(|pair| {
                let before = pair[0].value();
                before.as_ptr() as usize + before.len() != pair[1].value().as_ptr() as usize
            })
            .map(|pair| pair[1].offset)
            .collect();
        assert!(chunk_edges.len() >= 10, "need many chunk edges");
        assert_reads_around(&log, end, chunk_edges.into_iter());
    }

    #[test]
    fn timestamps_first_last() {
        let mut log = log();
        assert!(log.first_timestamp().is_none());
        append_n(&mut log, 10);
        assert_eq!(log.first_timestamp().unwrap().as_micros(), 0);
        assert_eq!(log.last_timestamp().unwrap().as_micros(), 9);
    }

    #[test]
    fn producer_seq_dedup_window() {
        let mut log = log();
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
        let mut log = log();
        let edge = INDEX_BLOCK as usize;
        append_n(&mut log, edge + 50);
        log.record_seq(1, 0, 10);
        log.record_seq(2, 0, INDEX_BLOCK + 10);
        // Back across the index-block edge.
        let at = INDEX_BLOCK - 20;
        let removed = log.truncate_to(at);
        assert_eq!(removed, 70);
        assert_eq!(log.next_offset(), at);
        assert_eq!(log.len(), at);
        // Dedup state past the truncation point is forgotten; earlier
        // entries survive.
        assert_eq!(log.duplicate_of(1, 0), Some(10));
        assert_eq!(log.duplicate_of(2, 0), None);
        // Re-appending resumes at the truncation point.
        let off = log.append(Record::from_value("again"), Timestamp::from_micros(99));
        assert_eq!(off, at);
        let tail = log.read(at - 1, 10).unwrap();
        assert_eq!(tail.len(), 2);
        assert_eq!(&tail[1].record.value[..], b"again");
    }

    #[test]
    fn truncate_past_end_is_noop() {
        let mut log = log();
        append_n(&mut log, 5);
        assert_eq!(log.truncate_to(5), 0);
        assert_eq!(log.truncate_to(100), 0);
        assert_eq!(log.len(), 5);
    }

    #[test]
    fn leader_epoch_is_monotonic() {
        let mut log = log();
        assert_eq!(log.leader_epoch(), 0);
        log.set_leader_epoch(3);
        assert_eq!(log.leader_epoch(), 3);
        log.set_leader_epoch(1);
        assert_eq!(log.leader_epoch(), 3, "epochs never move backwards");
    }

    #[test]
    fn append_range_preserves_offsets_and_stamps() {
        let mut leader = log();
        append_n(&mut leader, 2);
        leader.append(Record::from_value("replica"), Timestamp::from_micros(77));
        let mut log = log();
        append_n(&mut log, 2);
        assert_eq!(log.append_range(&leader, 0, 3), Ok((1, 1)));
        let all = log.read(0, 10).unwrap();
        assert_eq!(all.len(), 3);
        assert_eq!(all[2].offset, 2);
        assert_eq!(all[2].timestamp.as_micros(), 77);
        assert_eq!(log.stats(), leader.stats());
    }

    #[test]
    fn append_range_matches_single_appends() {
        // Several arena chunks and index blocks' worth.
        let n = INDEX_BLOCK + 1_000;
        let mut leader = log();
        for o in 0..n {
            leader.append(Record::from_value(padded(o)), Timestamp(o as i64));
        }
        let mut follower = log();
        let (records, blocks) = follower.append_range(&leader, 0, n).unwrap();
        assert_eq!(records, n);
        assert!(blocks < records, "several records per block");
        assert_eq!(follower.stats(), leader.stats());
        assert_eq!(follower.read(0, n as usize), leader.read(0, n as usize));
    }

    #[test]
    fn stats_track_appends() {
        let mut log = log();
        append_n(&mut log, 7);
        let stats = log.stats();
        assert_eq!(stats.records, 7);
        assert_eq!(stats.appended, 7);
        assert!(stats.bytes > 0);
    }
}
