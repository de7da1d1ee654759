//! The asynchronous producer: background sends with adaptive batching.
//!
//! Kafka clients rarely block on produce round trips: records queue in
//! the client, a background sender thread ships them, and batches grow
//! adaptively while requests are in flight. [`AsyncProducer`] models
//! exactly that:
//!
//! * [`AsyncProducer::send`] never waits for the broker;
//! * while one request's round trip is in flight, everything that queued
//!   up behind it is drained into the next batch (up to `max_batch`), so
//!   a fast upstream gets large amortized batches and a sparse upstream
//!   gets per-record appends — with no tuning knob;
//! * [`AsyncProducer::flush`] blocks until everything sent so far is
//!   appended, which is what bundle/checkpoint finalization needs. A
//!   caller that flushes after **every** record has synchronously paid a
//!   full round trip per record — the degenerate behaviour behind the
//!   benchmark's worst measured slowdowns;
//! * [`AsyncProducer::commit`] is the bundle boundary in one call: it
//!   queues the bundle's last records behind everything sent so far and
//!   returns once all of it is appended. It does not wake a parked
//!   sender thread for records it is about to ship itself, so a bundle
//!   of one costs its round trip and no thread hand-off.
//!
//! There is one accumulator (a queue of record chunks under one lock)
//! and one *shipper token* (a second lock owning the cached writer).
//! Whoever holds the token pops chunks and appends them, so append order
//! is send order whichever thread ships: normally the sender thread, but
//! a `flush` or `commit` that finds the token free ships on the calling
//! thread — same request, same round trip, no thread hand-off. Lock
//! order is token → accumulator, never the reverse.

use crate::bus::BusHandle;
use crate::handle::PartitionWriter;
use crate::pool::{record_vec, recycle_record_vec};
use crate::record::Record;
use crate::retry::{with_retry, RetryPolicy};
use parking_lot::{Condvar, Mutex, MutexGuard};
use std::collections::VecDeque;
use std::sync::Arc;
use std::thread::JoinHandle;

/// Queue capacity in records; sending blocks once this many are queued
/// (client-side backpressure, like a full `buffer.memory`) and resumes
/// when the queue has drained to half of it.
const QUEUE_CAPACITY: usize = 16_384;

/// The accumulator: everything `send` touches.
#[derive(Debug, Default)]
struct State {
    /// Unshipped chunks, oldest first, each non-empty. `send` fills the
    /// tail chunk up to `max_batch`; `send_batch` appends whole chunks.
    queue: VecDeque<Vec<Record>>,
    /// Records in `queue`.
    queued: usize,
    /// Records ever accepted.
    accepted: u64,
    /// Records shipped — appended, or dropped on a produce failure.
    /// Everything in between is in `queue` or with the token holder.
    appended: u64,
    /// The part of `appended` that was dropped.
    dropped: u64,
    /// Smallest `appended` a `flush` parked on `done` waits for;
    /// `u64::MAX` while nobody is parked.
    wake_at: u64,
    /// A sender is parked on `space`.
    blocked: bool,
    /// The sender thread is parked on `work`. The queue was empty when
    /// it parked; only a `commit` queues behind it without clearing this.
    idle: bool,
    closed: bool,
}

/// What the shipper token guards: the route to the partition.
#[derive(Debug)]
struct Shipper {
    bus: BusHandle,
    topic: String,
    partition: u32,
    /// Cached idempotent handle; resolved on first use so topics created
    /// after the producer still work, re-tried per batch until then.
    writer: Option<PartitionWriter>,
}

impl Shipper {
    /// Appends `batch` as one request; false when it had to be dropped.
    fn produce(&mut self, batch: &mut Vec<Record>) -> bool {
        if self.writer.is_none() {
            // Transient resolution faults are retried; an unknown topic
            // gives up at once, so a misdirected producer never stalls.
            let retry = RetryPolicy::default();
            let resolve = || self.bus.partition_writer(&self.topic, self.partition);
            self.writer = with_retry(&retry, resolve)
                .ok()
                .map(|w| w.idempotent().with_retry(retry));
        }
        // The writer retries transient faults and dedups lost-ack resends
        // itself; what still fails is dropped, like a fire-and-forget
        // client, so flush cannot hang.
        self.writer
            .as_ref()
            .is_some_and(|w| w.produce_batch_drain(batch).is_ok())
    }
}

#[derive(Debug)]
struct Shared {
    state: Mutex<State>,
    /// The shipper token.
    shipper: Mutex<Shipper>,
    /// The sender thread parks here while the queue is empty.
    work: Condvar,
    /// A `flush` or `commit` that found the token taken parks here.
    done: Condvar,
    /// Senders park here while the queue is full.
    space: Condvar,
    max_batch: usize,
}

impl Shared {
    fn pop(&self, state: &mut State) -> Option<Vec<Record>> {
        let chunk = state.queue.pop_front()?;
        state.queued -= chunk.len();
        // Low-water mark, not every pop: a wake-up costs the shipper a
        // system call for each one.
        if state.blocked && state.queued <= QUEUE_CAPACITY / 2 {
            state.blocked = false;
            self.space.notify_all();
        }
        Some(chunk)
    }

    /// The next batch to ship: the oldest chunk, plus every chunk queued
    /// behind it while the batch is below `max_batch`. `None` when the
    /// queue is empty or `target` is already appended.
    fn next_batch(&self, target: u64) -> Option<Vec<Record>> {
        let mut batch = {
            let mut state = self.state.lock();
            if state.appended >= target {
                return None;
            }
            self.pop(&mut state)?
        };
        while batch.len() < self.max_batch {
            let next = self.pop(&mut self.state.lock());
            let Some(mut next) = next else { break };
            batch.append(&mut next);
            recycle_record_vec(next);
        }
        Some(batch)
    }

    /// Ships batches on the calling thread, which holds the token, until
    /// the queue is empty or `target` records are appended.
    fn drain(&self, shipper: &mut Shipper, target: u64) {
        while let Some(mut batch) = self.next_batch(target) {
            let shipped = batch.len() as u64;
            let ok = shipper.produce(&mut batch);
            recycle_record_vec(batch);
            let mut state = self.state.lock();
            state.appended += shipped;
            if !ok {
                state.dropped += shipped;
            }
            let reached = state.appended >= state.wake_at;
            if reached {
                state.wake_at = u64::MAX;
            }
            let in_flight = state.accepted - state.appended;
            drop(state);
            if reached {
                self.done.notify_all();
            }
            if obs::enabled() {
                crate::telemetry::async_queue_depth().set(in_flight as i64);
                if !ok {
                    crate::telemetry::async_dropped_records().add(shipped);
                }
            }
        }
    }

    /// Returns once `target` records are appended: ships them on this
    /// thread if the token is free, otherwise waits for its holder and
    /// the sender thread — or, when there is no sender thread to finish
    /// the queue, for the token itself.
    fn ship_until(&self, target: u64, has_sender: bool) {
        let token = if has_sender {
            self.shipper.try_lock()
        } else {
            Some(self.shipper.lock())
        };
        if let Some(mut shipper) = token {
            // An empty queue under the token means nothing is in flight.
            return self.drain(&mut shipper, target);
        }
        let mut state = self.state.lock();
        if state.appended < target && std::mem::take(&mut state.idle) {
            // The token's holder may be another caller's `flush` that
            // stops at its own smaller target, and a `commit` queues
            // without waking the sender: nobody else is bound to ship
            // up to `target`.
            self.wake_sender();
        }
        while state.appended < target {
            state.wake_at = state.wake_at.min(target);
            state = self.done.wait(state);
        }
    }

    /// Wakes the parked sender thread, whose `idle` flag the caller has
    /// just cleared (one wake-up per park, not one per record).
    fn wake_sender(&self) {
        self.work.notify_one();
        if obs::enabled() {
            crate::telemetry::async_sender_wakeups().inc();
        }
    }

    /// Publishes what `state` just queued: wakes the sender thread if it
    /// is parked.
    fn publish(&self, mut state: MutexGuard<'_, State>) {
        let wake = std::mem::take(&mut state.idle);
        drop(state);
        if wake {
            self.wake_sender();
        }
    }

    fn run_sender(&self) {
        loop {
            self.drain(&mut self.shipper.lock(), u64::MAX);
            let mut state = self.state.lock();
            while state.queue.is_empty() {
                if state.closed {
                    return;
                }
                state.idle = true;
                state = self.work.wait(state);
            }
        }
    }
}

/// An asynchronous, adaptively batching producer for one partition.
#[derive(Debug)]
pub struct AsyncProducer {
    shared: Arc<Shared>,
    /// `None` when the sender thread could not be spawned (or after
    /// `close`): the producer then runs on its callers' threads.
    worker: Option<JoinHandle<()>>,
}

impl AsyncProducer {
    /// Creates a producer appending to `topic`/`partition` with a maximum
    /// batch of 500 records. Works over any [`Bus`](crate::Bus): against a
    /// [`Cluster`](crate::Cluster) the cached writer re-resolves the
    /// partition leader per attempt, so the background sender rides
    /// through leader failover.
    pub fn new(bus: impl Into<BusHandle>, topic: impl Into<String>, partition: u32) -> Self {
        Self::with_max_batch(bus, topic, partition, 500)
    }

    /// Creates a producer with an explicit maximum batch size.
    pub fn with_max_batch(
        bus: impl Into<BusHandle>,
        topic: impl Into<String>,
        partition: u32,
        max_batch: usize,
    ) -> Self {
        let topic = topic.into();
        let thread = std::thread::Builder::new().name(format!("async-producer-{topic}"));
        let state = State {
            wake_at: u64::MAX,
            ..State::default()
        };
        let shipper = Shipper {
            bus: bus.into(),
            topic,
            partition,
            writer: None,
        };
        let shared = Arc::new(Shared {
            state: Mutex::new(state),
            shipper: Mutex::new(shipper),
            work: Condvar::new(),
            done: Condvar::new(),
            space: Condvar::new(),
            max_batch: max_batch.max(1),
        });
        let sender = shared.clone();
        let worker = thread.spawn(move || sender.run_sender()).ok();
        AsyncProducer { shared, worker }
    }

    /// Locks the accumulator once it has room for another chunk.
    fn admit(&self) -> MutexGuard<'_, State> {
        let mut state = self.shared.state.lock();
        while state.queued >= QUEUE_CAPACITY {
            if self.worker.is_some() {
                state.blocked = true;
                state = self.shared.space.wait(state);
            } else {
                drop(state);
                self.shared.ship_until(u64::MAX, false);
                state = self.shared.state.lock();
            }
        }
        state
    }

    /// Queues one record. Does not wait for the broker unless the client
    /// queue is full.
    pub fn send(&self, record: Record) {
        let mut state = self.admit();
        match state.queue.back_mut() {
            Some(tail) if tail.len() < self.shared.max_batch => tail.push(record),
            _ => {
                // Chunks come from (and return to) the pool tier, so a
                // steady stream reuses the same handful of buffers.
                let mut chunk = record_vec();
                chunk.push(record);
                state.queue.push_back(chunk);
            }
        }
        state.queued += 1;
        state.accepted += 1;
        self.shared.publish(state);
    }

    /// Queues `records` in chunks of at most `max_batch`, draining them.
    /// Every chunk is published but the last, which is only when
    /// `publish_last` is set.
    fn enqueue(&self, records: &mut Vec<Record>, publish_last: bool) {
        let mut rest = records.drain(..).peekable();
        while rest.peek().is_some() {
            // Chunks come from (and return to) the pool tier.
            let mut chunk = record_vec();
            chunk.extend(rest.by_ref().take(self.shared.max_batch));
            let mut state = self.admit();
            state.queued += chunk.len();
            state.accepted += chunk.len() as u64;
            state.queue.push_back(chunk);
            if publish_last || rest.peek().is_some() {
                self.shared.publish(state);
            }
        }
    }

    /// Queues a whole batch, draining `records` (capacity kept for reuse).
    ///
    /// The batch crosses in chunks of at most the producer's maximum
    /// batch size — one queue operation per chunk, none per record — so
    /// no oversized batch becomes a single append.
    pub fn send_batch(&self, records: &mut Vec<Record>) {
        self.enqueue(records, true);
        if self.worker.is_none() {
            self.shared.ship_until(u64::MAX, false);
        }
    }

    /// The bundle boundary: queues `records` (drained, capacity kept)
    /// behind everything sent so far, then blocks until all of it is
    /// appended. With nothing to queue it is [`flush`](Self::flush).
    ///
    /// The records cross as [`send_batch`](Self::send_batch) chunks,
    /// except that the last chunk does not wake a parked sender thread:
    /// the caller ships it itself when the shipper token is free, so a
    /// bundle of one record is one produce request on the calling thread
    /// and no thread hand-off.
    pub fn commit(&self, records: &mut Vec<Record>) {
        self.enqueue(records, false);
        self.flush();
    }

    /// Records accepted but not yet appended.
    pub fn in_flight(&self) -> u64 {
        let state = self.shared.state.lock();
        state.accepted - state.appended
    }

    /// Records given up on after a produce failure retries could not
    /// cure (unknown topic, exhausted retry budget); `flush` counts them
    /// as shipped, so it never hangs.
    pub fn dropped_records(&self) -> u64 {
        self.shared.state.lock().dropped
    }

    /// Blocks until every record sent so far has been appended.
    pub fn flush(&self) {
        let target = self.shared.state.lock().accepted;
        self.shared.ship_until(target, self.worker.is_some());
    }

    /// Flushes and shuts the sender thread down.
    pub fn close(&mut self) {
        self.flush();
        if let Some(worker) = self.worker.take() {
            self.shared.state.lock().closed = true;
            self.shared.work.notify_one();
            let _ = worker.join();
        }
    }
}

impl Drop for AsyncProducer {
    fn drop(&mut self) {
        // Best-effort drain (C-DTOR-FAIL: never fails, at worst waits).
        self.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::broker::Broker;
    use crate::config::TopicConfig;

    #[test]
    fn rides_through_leader_failover_on_a_cluster() {
        let cluster = crate::Cluster::new(crate::ClusterConfig { brokers: 3 });
        cluster
            .create_topic("t", TopicConfig::default().replication_factor(3))
            .unwrap();
        let mut producer = AsyncProducer::with_max_batch(cluster.clone(), "t", 0, 32);
        for i in 0..200 {
            producer.send(Record::from_value(format!("r{i}")));
            if i == 100 {
                producer.flush();
                let leader = cluster.leader_of("t", 0).unwrap();
                cluster.kill_broker(leader);
            }
        }
        producer.close();
        assert!(cluster.leader_epoch("t", 0).unwrap() >= 1);
        let records = cluster.fetch("t", 0, 0, 1_000).unwrap();
        assert_eq!(records.len(), 200, "exactly-once across the leader kill");
        for (i, stored) in records.iter().enumerate() {
            assert_eq!(&stored.record.value[..], format!("r{i}").as_bytes());
        }
    }

    #[test]
    fn sends_everything_in_order() {
        let broker = Broker::new();
        broker.create_topic("t", TopicConfig::default()).unwrap();
        let mut producer = AsyncProducer::new(broker.clone(), "t", 0);
        for i in 0..1_000 {
            producer.send(Record::from_value(format!("r{i}")));
        }
        producer.close();
        let records = broker.fetch("t", 0, 0, 1_000).unwrap();
        assert_eq!(records.len(), 1_000);
        for (i, stored) in records.iter().enumerate() {
            let expected = format!("r{i}");
            assert_eq!(&stored.record.value[..], expected.as_bytes());
        }
    }

    #[test]
    fn adaptive_batching_under_latency() {
        let broker = Broker::new();
        broker.create_topic("t", TopicConfig::default()).unwrap();
        broker.set_request_latency_micros(500);
        let mut producer = AsyncProducer::new(broker.clone(), "t", 0);
        let start = std::time::Instant::now();
        for i in 0..2_000 {
            producer.send(Record::from_value(format!("r{i}")));
        }
        producer.close();
        // 2000 records; adaptive batches amortize the 0.5ms round trips:
        // far fewer than 2000 requests (which would take a full second).
        assert!(start.elapsed() < std::time::Duration::from_millis(500));
        let records = broker.fetch("t", 0, 0, 2_000).unwrap();
        let stamps: std::collections::BTreeSet<i64> =
            records.iter().map(|r| r.timestamp.as_micros()).collect();
        assert!(
            stamps.len() < 100,
            "adaptive batches, got {} appends",
            stamps.len()
        );
        assert!(stamps.len() > 1, "but more than one append");
    }

    #[test]
    fn flush_per_record_degenerates_to_sync() {
        let broker = Broker::new();
        broker.create_topic("t", TopicConfig::default()).unwrap();
        broker.set_request_latency_micros(200);
        let mut producer = AsyncProducer::new(broker.clone(), "t", 0);
        let start = std::time::Instant::now();
        for i in 0..50 {
            producer.send(Record::from_value(format!("r{i}")));
            producer.flush();
        }
        // 50 × 200µs of serialized round trips.
        assert!(start.elapsed() >= std::time::Duration::from_millis(10));
        producer.close();
        let records = broker.fetch("t", 0, 0, 50).unwrap();
        let stamps: std::collections::BTreeSet<i64> =
            records.iter().map(|r| r.timestamp.as_micros()).collect();
        assert_eq!(
            stamps.len(),
            50,
            "per-record flush means per-record appends"
        );
    }

    #[test]
    fn send_batch_preserves_order_and_reuses_buffer() {
        let broker = Broker::new();
        broker.create_topic("t", TopicConfig::default()).unwrap();
        let mut producer = AsyncProducer::with_max_batch(broker.clone(), "t", 0, 100);
        let mut buffer = Vec::new();
        for round in 0..4 {
            for i in 0..250 {
                buffer.push(Record::from_value(format!("r{}", round * 250 + i)));
            }
            producer.send_batch(&mut buffer);
            assert!(buffer.is_empty(), "the batch must be drained");
        }
        producer.close();
        let records = broker.fetch("t", 0, 0, 1_000).unwrap();
        assert_eq!(records.len(), 1_000);
        for (i, stored) in records.iter().enumerate() {
            assert_eq!(&stored.record.value[..], format!("r{i}").as_bytes());
        }
    }

    #[test]
    fn send_batch_splits_oversized_batches() {
        let broker = Broker::new();
        broker.create_topic("t", TopicConfig::default()).unwrap();
        let mut producer = AsyncProducer::with_max_batch(broker.clone(), "t", 0, 10);
        let mut buffer: Vec<Record> = (0..35)
            .map(|i| Record::from_value(format!("{i}")))
            .collect();
        producer.send_batch(&mut buffer);
        producer.close();
        let records = broker.fetch("t", 0, 0, 35).unwrap();
        assert_eq!(records.len(), 35);
        let stamps: std::collections::BTreeSet<i64> =
            records.iter().map(|r| r.timestamp.as_micros()).collect();
        assert!(stamps.len() >= 2, "the batch was split into capped appends");
    }

    #[test]
    fn faulted_broker_loses_nothing_and_duplicates_nothing() {
        let broker = Broker::new();
        broker.create_topic("t", TopicConfig::default()).unwrap();
        let mut plan = crate::FaultPlan::seeded(41);
        plan.produce_error = 0.3;
        plan.ack_loss = 0.3;
        plan.duplicate = 0.0;
        plan.fetch_error = 0.0;
        plan.metadata_error = 0.3;
        plan.extra_latency = 0.0;
        broker.install_fault_plan(plan);
        let mut producer = AsyncProducer::with_max_batch(broker.clone(), "t", 0, 16);
        for i in 0..400 {
            producer.send(Record::from_value(format!("r{i}")));
        }
        producer.close();
        broker.clear_fault_plan();
        let records = broker.fetch("t", 0, 0, 1_000).unwrap();
        assert_eq!(records.len(), 400, "exactly-once despite lost acks");
        for (i, stored) in records.iter().enumerate() {
            assert_eq!(&stored.record.value[..], format!("r{i}").as_bytes());
        }
    }

    #[test]
    fn unknown_topic_does_not_hang_flush() {
        let broker = Broker::new();
        let mut producer = AsyncProducer::new(broker, "missing", 0);
        producer.send(Record::from_value("x"));
        producer.close();
        assert_eq!(producer.dropped_records(), 1, "the drop is counted");
        assert_eq!(producer.in_flight(), 0);
    }

    #[test]
    fn lone_send_is_appended_without_a_flush() {
        let broker = Broker::new();
        broker.create_topic("t", TopicConfig::default()).unwrap();
        let producer = AsyncProducer::new(broker.clone(), "t", 0);
        // Twice: the second send finds the sender thread parked again.
        for sent in 1..=2 {
            producer.send(Record::from_value("x"));
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
            while broker.latest_offset("t", 0).unwrap() < sent {
                assert!(
                    std::time::Instant::now() < deadline,
                    "the sender thread never shipped send {sent}"
                );
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        }
    }

    #[test]
    fn full_queue_blocks_senders_by_record_count() {
        const MAX_BATCH: usize = 128;
        const TOTAL: usize = 3 * QUEUE_CAPACITY;
        let broker = Broker::new();
        broker.create_topic("t", TopicConfig::default()).unwrap();
        let producer = Arc::new(AsyncProducer::with_max_batch(
            broker.clone(),
            "t",
            0,
            MAX_BATCH,
        ));
        // The test holds the shipper token, so nothing drains until it
        // ships by hand: where the pusher parks is exact, not sampled.
        let mut shipper = producer.shared.shipper.lock();
        let pusher = {
            let producer = producer.clone();
            std::thread::spawn(move || {
                let mut batch = Vec::new();
                for base in (0..TOTAL).step_by(MAX_BATCH) {
                    batch.extend(
                        (base..base + MAX_BATCH).map(|i| Record::from_value(i.to_string())),
                    );
                    producer.send_batch(&mut batch);
                }
            })
        };
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        loop {
            let state = producer.shared.state.lock();
            if state.blocked {
                assert_eq!(state.queued, QUEUE_CAPACITY, "the bound counts records");
                break;
            }
            drop(state);
            assert!(
                std::time::Instant::now() < deadline,
                "{TOTAL} records never filled the queue"
            );
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        // Ship one chunk at a time: the parked pusher stays parked until
        // the pop that reaches the low-water mark wakes it. Chunks are
        // whole batches, so that pop leaves exactly half the capacity.
        loop {
            let mut state = producer.shared.state.lock();
            assert!(state.blocked, "woken above the low-water mark");
            let mut chunk = producer.shared.pop(&mut state).unwrap();
            let (woken, queued) = (!state.blocked, state.queued);
            drop(state);
            let shipped = chunk.len() as u64;
            assert!(shipper.produce(&mut chunk));
            producer.shared.state.lock().appended += shipped;
            if woken {
                assert_eq!(queued, QUEUE_CAPACITY / 2, "woken at the low-water mark");
                break;
            }
        }
        drop(shipper);
        pusher.join().unwrap();
        producer.flush();
        assert_eq!(broker.latest_offset("t", 0).unwrap(), TOTAL as u64);
    }

    #[test]
    fn without_a_sender_thread_callers_ship() {
        let broker = Broker::new();
        broker.create_topic("t", TopicConfig::default()).unwrap();
        let mut producer = AsyncProducer::with_max_batch(broker.clone(), "t", 0, 10);
        // `close` leaves the producer as a failed spawn would.
        producer.close();
        assert!(producer.worker.is_none());
        let mut batch: Vec<Record> = (0..25).map(|i| Record::from_value(i.to_string())).collect();
        producer.send_batch(&mut batch);
        assert_eq!(producer.in_flight(), 0, "send_batch ships inline");
        producer.send(Record::from_value("25"));
        assert_eq!(producer.in_flight(), 1, "a lone send waits for a flush");
        producer.flush();
        producer.send(Record::from_value("26"));
        let mut bundle: Vec<Record> = (27..53)
            .map(|i| Record::from_value(i.to_string()))
            .collect();
        producer.commit(&mut bundle);
        assert!(bundle.is_empty(), "the bundle must be drained");
        assert_eq!(
            producer.in_flight(),
            0,
            "commit ships the send before it too"
        );
        let records = broker.fetch("t", 0, 0, 100).unwrap();
        assert_eq!(records.len(), 53);
        for (i, stored) in records.iter().enumerate() {
            assert_eq!(&stored.record.value[..], i.to_string().as_bytes());
        }
    }

    #[test]
    fn drop_drains() {
        let broker = Broker::new();
        broker.create_topic("t", TopicConfig::default()).unwrap();
        {
            let producer = AsyncProducer::new(broker.clone(), "t", 0);
            producer.send(Record::from_value("x"));
        }
        assert_eq!(broker.latest_offset("t", 0).unwrap(), 1);
    }
}
