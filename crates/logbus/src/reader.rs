//! The one read drive: a static share of a topic's partitions, read to a
//! finish line.
//!
//! Subtask `i` of `p` reads the partitions `{j : j mod p = i}`, the way
//! the engines' stock Kafka connectors split a topic: Flink assigns
//! partitions by subtask index, Spark's direct stream makes one RDD
//! partition per Kafka partition, Apex assigns through its partitioner
//! and Beam's KafkaIO through source splits. None of them rebalances
//! mid-read, so nothing coordinates between the readers of one topic: each
//! holds one [`PartitionReader`](crate::PartitionReader) cursor per
//! partition it owns, and the shares are disjoint by construction.

use crate::bus::BusHandle;
use crate::error::Result;
use crate::handle::PartitionReader;
use crate::record::StoredRecord;
use crate::retry::{with_retry, RetryPolicy};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A read that delivers nothing for this long gives up: the sender
/// stopped short of the follow target, or a partition stopped serving.
/// A stalled trial then fails verification instead of hanging the
/// driver.
const STALL_LIMIT: Duration = Duration::from_secs(10);

/// The finish line of a follow read: a record count, and the counter of
/// records emitted towards it. Clones share the counter, so the readers
/// one job creates (rill's subtasks) stop at `target` *together*; a
/// reader given a fresh `FollowTarget` counts alone.
#[derive(Debug, Clone)]
pub struct FollowTarget {
    target: u64,
    emitted: Arc<AtomicU64>,
}

impl FollowTarget {
    /// A finish line of `target` records with nothing emitted yet.
    pub fn new(target: u64) -> Self {
        FollowTarget {
            target,
            emitted: Arc::new(AtomicU64::new(0)),
        }
    }

    fn emitted(&self) -> u64 {
        self.emitted.load(Ordering::SeqCst)
    }

    /// Claims up to `want` of the records still missing and returns how
    /// many were granted. Reserving *before* the fetch is what keeps the
    /// readers' total at or below `target`; what the fetch then does not
    /// deliver goes back through [`FollowTarget::refund`].
    fn reserve(&self, want: u64) -> u64 {
        let mut granted = 0;
        let _ = self
            .emitted
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |emitted| {
                granted = want.min(self.target.saturating_sub(emitted));
                Some(emitted + granted)
            });
        granted
    }

    fn refund(&self, unused: u64) {
        self.emitted.fetch_sub(unused, Ordering::SeqCst);
    }
}

/// Where a [`TopicReader`] stops.
#[derive(Debug)]
enum Finish {
    /// Bounded: each cursor's end is the partition's end offset at the
    /// reader's start.
    Ends,
    /// Follow: ends refresh on every pass until the target is emitted.
    Follow(FollowTarget),
}

/// The one read drive of the workspace: fetch cursors over a fixed share
/// of a topic's partitions, driven by [`TopicReader::next_batch`] to one
/// of two finish lines — *bounded* (the end offsets of its partitions at
/// its start) or *follow* (a [`FollowTarget`]). All four engine
/// connectors build one and call `next_batch` until it returns `None`;
/// end refresh, capping, fetch, the stall exit and
/// [`Backoff`](crate::Backoff) are sequenced here only.
///
/// A reader whose share holds no partition finishes at once, in both
/// modes.
pub struct TopicReader {
    cursors: Vec<Cursor>,
    finish: Finish,
    /// Fetch buffer reused across passes.
    fetch_buffer: Vec<StoredRecord>,
}

#[derive(Debug)]
struct Cursor {
    partition: u32,
    reader: PartitionReader,
    position: u64,
    end: u64,
}

impl std::fmt::Debug for TopicReader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TopicReader")
            .field("cursors", &self.cursors)
            .field("finish", &self.finish)
            .finish_non_exhaustive()
    }
}

impl TopicReader {
    /// A bounded read of subtask `subtask`'s share of `topic` among
    /// `parallelism` readers: the finish line is the end offset of each
    /// of its partitions at this call.
    ///
    /// # Errors
    ///
    /// Fails when the topic does not exist or a partition cannot be
    /// resolved after retries.
    pub fn bounded(
        bus: impl Into<BusHandle>,
        topic: &str,
        subtask: usize,
        parallelism: usize,
    ) -> Result<Self> {
        Self::open(bus.into(), topic, subtask, parallelism, Finish::Ends)
    }

    /// A tailing read of subtask `subtask`'s share of `topic`: ends
    /// refresh on every pass, so records appended after this call are part
    /// of the stream, and the read finishes once the readers sharing
    /// `target` have emitted it.
    ///
    /// # Errors
    ///
    /// Fails when the topic does not exist or a partition cannot be
    /// resolved after retries.
    pub fn following(
        bus: impl Into<BusHandle>,
        topic: &str,
        subtask: usize,
        parallelism: usize,
        target: FollowTarget,
    ) -> Result<Self> {
        let finish = Finish::Follow(target);
        Self::open(bus.into(), topic, subtask, parallelism, finish)
    }

    fn open(
        bus: BusHandle,
        topic: &str,
        subtask: usize,
        parallelism: usize,
        finish: Finish,
    ) -> Result<Self> {
        let retry = RetryPolicy::default();
        let count = with_retry(&retry, || bus.partition_count(topic))?;
        let mut cursors = Vec::new();
        for partition in (0..count).filter(|&p| p as usize % parallelism.max(1) == subtask) {
            let reader = with_retry(&retry, || bus.partition_reader(topic, partition))?;
            // Every log starts at offset 0: nothing is dropped from its front.
            let end = reader.latest_offset()?;
            cursors.push(Cursor {
                partition,
                reader,
                position: 0,
                end,
            });
        }
        Ok(TopicReader {
            cursors,
            finish,
            fetch_buffer: Vec::new(),
        })
    }

    /// Follow mode: refreshes cursor ends to the current latest offsets.
    /// No-op for a bounded reader, whose finish line is fixed at start.
    fn refresh_ends(&mut self) {
        if matches!(self.finish, Finish::Ends) {
            return;
        }
        for cursor in &mut self.cursors {
            if let Ok(end) = cursor.reader.latest_offset() {
                cursor.end = cursor.end.max(end);
            }
        }
    }

    /// How many records the next fetch pass may deliver: `cap`, and in
    /// follow mode no more than is both fetchable now and still missing
    /// from the target — reserved on the shared counter.
    fn reserve(&self, cap: usize) -> usize {
        let Finish::Follow(follow) = &self.finish else {
            return cap;
        };
        let available: u64 = self
            .cursors
            .iter()
            .map(|c| c.end.saturating_sub(c.position))
            .sum();
        follow.reserve(available.min(cap as u64)) as usize
    }

    /// One fetch pass over the cursors: up to `cap` records handed to
    /// `sink` with their partition, in per-partition offset order.
    /// Returns the number delivered. Fetch faults leave records in place
    /// for the next pass.
    fn fetch_pass(&mut self, cap: usize, sink: &mut dyn FnMut(u32, StoredRecord)) -> usize {
        let buffer = &mut self.fetch_buffer;
        let mut delivered = 0usize;
        for cursor in &mut self.cursors {
            if delivered >= cap || cursor.position >= cursor.end {
                continue;
            }
            let want = (cap - delivered).min((cursor.end - cursor.position) as usize);
            buffer.clear();
            if cursor
                .reader
                .fetch_into(cursor.position, want, buffer)
                .is_err()
            {
                continue;
            }
            if let Some(last) = buffer.last() {
                cursor.position = last.offset + 1;
            }
            for stored in buffer.drain(..) {
                sink(cursor.partition, stored);
                delivered += 1;
            }
        }
        delivered
    }

    /// Whether this reader is at its finish line: it owns no partition,
    /// or — bounded — every cursor is at its end, or — follow — the
    /// target has been emitted.
    fn drained(&self) -> bool {
        self.cursors.is_empty()
            || match &self.finish {
                Finish::Follow(follow) => follow.emitted() >= follow.target,
                Finish::Ends => self.cursors.iter().all(|c| c.position >= c.end),
            }
    }

    /// One pass of the drive, without waiting: refresh ends, fetch up to
    /// `cap` records (capped to what the follow target still misses)
    /// into `sink`. Returns the number delivered — `Some(0)` when caught
    /// up with the read not finished — or `None` once the reader is at
    /// its finish line. [`TopicReader::next_batch`] is this plus the
    /// wait; schedules that interleave readers on one thread call this
    /// directly.
    pub fn try_next_batch(
        &mut self,
        cap: usize,
        sink: &mut dyn FnMut(u32, StoredRecord),
    ) -> Option<usize> {
        self.refresh_ends();
        let reserved = self.reserve(cap);
        let delivered = self.fetch_pass(reserved, sink);
        if let Finish::Follow(follow) = &self.finish {
            follow.refund((reserved - delivered) as u64);
        }
        if delivered == 0 && self.drained() {
            return None;
        }
        Some(delivered)
    }

    /// Delivers the next batch of up to `cap` records to `sink`, waiting
    /// with [`Backoff`](crate::Backoff) while caught up — the sender has
    /// not produced yet, or a fetch failed. Returns the number delivered,
    /// or `None` once the reader is at its finish line or nothing arrived
    /// for 10 s.
    pub fn next_batch(
        &mut self,
        cap: usize,
        sink: &mut dyn FnMut(u32, StoredRecord),
    ) -> Option<usize> {
        self.drive(cap, STALL_LIMIT, sink)
    }

    fn drive(
        &mut self,
        cap: usize,
        stall: Duration,
        sink: &mut dyn FnMut(u32, StoredRecord),
    ) -> Option<usize> {
        let mut backoff = crate::Backoff::new();
        let mut idle_since = Instant::now();
        let mut job_emitted = self.follow_emitted();
        loop {
            match self.try_next_batch(cap, sink) {
                Some(0) => {}
                delivered_or_finished => return delivered_or_finished,
            }
            // What a peer emits towards the shared target is progress
            // too: an idle reader waits for as long as the job moves.
            let emitted = self.follow_emitted();
            if emitted != job_emitted {
                job_emitted = emitted;
                idle_since = Instant::now();
            }
            if idle_since.elapsed() >= stall {
                if obs::enabled() {
                    crate::telemetry::reader_stalled().add(1);
                }
                return None;
            }
            backoff.snooze();
        }
    }

    fn follow_emitted(&self) -> u64 {
        match &self.finish {
            Finish::Follow(follow) => follow.emitted(),
            Finish::Ends => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A topic of `partitions` x `per_partition` records.
    fn loaded(partitions: u32, per_partition: u64) -> crate::Broker {
        let broker = crate::Broker::new();
        broker
            .create_topic("t", crate::TopicConfig::default().partitions(partitions))
            .unwrap();
        for p in 0..partitions {
            for i in 0..per_partition {
                broker
                    .produce("t", p, crate::Record::from_value(format!("p{p}-{i}")))
                    .unwrap();
            }
        }
        broker
    }

    #[test]
    fn bounded_reader_drains_to_the_ends_at_start() {
        let broker = loaded(3, 7);
        // A record produced after the start is outside the finish line.
        let mut reader = TopicReader::bounded(broker.clone(), "t", 0, 1).unwrap();
        broker
            .produce("t", 0, crate::Record::from_value("late"))
            .unwrap();
        assert_eq!(reader.cursors.len(), 3, "a sole reader owns the topic");
        let mut seen = Vec::new();
        while reader
            .next_batch(5, &mut |p, stored| seen.push((p, stored.record.value)))
            .is_some()
        {}
        assert_eq!(seen.len(), 21, "bounded read stops at the ends at start");
    }

    #[test]
    fn concurrent_readers_split_the_topic_by_subtask() {
        let broker = loaded(4, 50);
        let handles: Vec<_> = (0..2)
            .map(|subtask| {
                let broker = broker.clone();
                std::thread::spawn(move || {
                    let mut reader = TopicReader::bounded(broker, "t", subtask, 2).unwrap();
                    let mut seen = Vec::new();
                    while reader
                        .next_batch(8, &mut |p, stored| seen.push((p, stored.record.value)))
                        .is_some()
                    {}
                    seen
                })
            })
            .collect();
        let mut all = Vec::new();
        for (subtask, handle) in handles.into_iter().enumerate() {
            let seen = handle.join().unwrap();
            assert!(
                seen.iter().all(|(p, _)| *p as usize % 2 == subtask),
                "subtask {subtask} read outside its share"
            );
            all.extend(seen);
        }
        let total = all.len();
        all.sort();
        all.dedup();
        assert_eq!((all.len(), total), (200, 200), "every record exactly once");
    }

    const SHORT_STALL: Duration = Duration::from_millis(30);

    #[test]
    fn follow_reader_gives_up_when_the_producer_stops_short() {
        let broker = loaded(1, 5);
        let mut reader = TopicReader::following(broker, "t", 0, 1, FollowTarget::new(8)).unwrap();
        let mut seen = 0;
        let mut sink = |_p: u32, _stored: StoredRecord| seen += 1;
        assert_eq!(reader.drive(100, SHORT_STALL, &mut sink), Some(5));
        assert_eq!(
            reader.drive(100, SHORT_STALL, &mut sink),
            None,
            "stall exit"
        );
        assert!(!reader.drained(), "three records short of the target");
        assert_eq!(seen, 5);
    }
}
