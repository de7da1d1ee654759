//! `AsyncProducer` under concurrency and under generated schedules.
//!
//! Any thread may end up shipping — the sender thread, or a `flush` or
//! `commit` that found the shipper token free — so the suite checks what
//! must hold whichever one did: append order is send order, every record
//! lands exactly once, `flush` and `commit` return only after what
//! preceded them is appended, and batches form by the one documented
//! rule (whole chunks of at most `max_batch`, merged only while the
//! batch is below it).
//!
//! Under `--features check-sync` the `zzz_` gate additionally asserts
//! the lock-order graph stayed acyclic (token → accumulator → pool,
//! never the reverse); CI runs this file with `--test-threads=1` there.

use logbus::{AsyncProducer, Broker, ManualClock, Record, StoredRecord, TopicConfig};
use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn record(value: u64) -> Record {
    Record::from_value(value.to_le_bytes().to_vec())
}

/// Everything appended to `t`.
fn log(broker: &Broker) -> Vec<StoredRecord> {
    let reader = broker.partition_reader("t", 0).unwrap();
    reader.fetch(0, usize::MAX).unwrap()
}

fn value(stored: &StoredRecord) -> u64 {
    let mut bytes = [0u8; 8];
    bytes.copy_from_slice(&stored.record.value);
    u64::from_le_bytes(bytes)
}

/// Runs `body` on its own thread and fails — rather than hanging the
/// suite — when it has not returned within `limit`: a lost wake-up in
/// the producer shows up as exactly that.
fn bounded<T: Send + 'static>(limit: Duration, body: impl FnOnce() -> T + Send + 'static) -> T {
    let (done, finished) = std::sync::mpsc::channel();
    let thread = std::thread::spawn(move || {
        let _ = done.send(body());
    });
    match finished.recv_timeout(limit) {
        Ok(result) => {
            thread.join().unwrap();
            result
        }
        // The body panicked: surface its message, not a timeout.
        Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(thread.join().unwrap_err())
        }
        Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
            panic!("no progress within {limit:?}: lost wake-up?")
        }
    }
}

const SENDERS: u64 = 4;
const PER_SENDER: u64 = 10_000;

#[test]
fn concurrent_senders_and_flusher_keep_order_and_count() {
    bounded(Duration::from_secs(120), || {
        let broker = Broker::new();
        broker.create_topic("t", TopicConfig::default()).unwrap();
        // Long enough that sends pile up behind a request and a flush
        // regularly finds the token taken.
        broker.set_request_latency_micros(20);
        let producer = Arc::new(AsyncProducer::with_max_batch(broker.clone(), "t", 0, 16));
        // Bumped after a send returns, so it never runs ahead of what
        // the producer has accepted.
        let sent = Arc::new(AtomicU64::new(0));
        let finished = Arc::new(AtomicBool::new(false));
        // Released once all six threads exist, so they start together.
        let start = Arc::new(AtomicBool::new(false));

        let senders: Vec<_> = (0..SENDERS)
            .map(|thread| {
                let (producer, sent, start) = (producer.clone(), sent.clone(), start.clone());
                std::thread::spawn(move || {
                    while !start.load(Ordering::SeqCst) {
                        std::hint::spin_loop();
                    }
                    let mut batch = Vec::new();
                    let mut next = 0;
                    while next < PER_SENDER {
                        // Single sends, with a batch of 1..=40 records
                        // (below, at and above `max_batch`) every 7th.
                        let burst = if next % 7 == 3 { next % 40 + 1 } else { 1 };
                        let burst = burst.min(PER_SENDER - next);
                        if burst == 1 {
                            producer.send(record((thread << 32) | next));
                        } else {
                            batch.extend((next..next + burst).map(|i| record((thread << 32) | i)));
                            producer.send_batch(&mut batch);
                        }
                        next += burst;
                        sent.fetch_add(burst, Ordering::SeqCst);
                    }
                })
            })
            .collect();
        let flusher = {
            let (producer, sent, finished) = (producer.clone(), sent.clone(), finished.clone());
            let (reader, start) = (broker.partition_reader("t", 0).unwrap(), start.clone());
            std::thread::spawn(move || {
                while !start.load(Ordering::SeqCst) {
                    std::hint::spin_loop();
                }
                let mut flushes = 0u64;
                while !finished.load(Ordering::SeqCst) {
                    let before = sent.load(Ordering::SeqCst);
                    producer.flush();
                    let appended = reader.latest_offset().unwrap();
                    assert!(
                        appended >= before,
                        "flush returned with {appended} appended, {before} sent before it"
                    );
                    flushes += 1;
                }
                flushes
            })
        };
        // Bundles of 0..=40 records under id `SENDERS`, each committed.
        let committer = {
            let (producer, sent, finished) = (producer.clone(), sent.clone(), finished.clone());
            let (reader, start) = (broker.partition_reader("t", 0).unwrap(), start.clone());
            std::thread::spawn(move || {
                while !start.load(Ordering::SeqCst) {
                    std::hint::spin_loop();
                }
                let mut bundle = Vec::new();
                let (mut committed, mut round) = (0u64, 0u64);
                while !finished.load(Ordering::SeqCst) {
                    let before = sent.load(Ordering::SeqCst);
                    let size = round % 41;
                    bundle
                        .extend((committed..committed + size).map(|i| record((SENDERS << 32) | i)));
                    producer.commit(&mut bundle);
                    assert!(bundle.is_empty(), "commit drains its argument");
                    committed += size;
                    round += 1;
                    let appended = reader.latest_offset().unwrap();
                    assert!(
                        appended >= before + committed,
                        "commit returned with {appended} appended, {before} sent and \
                         {committed} committed before it"
                    );
                }
                committed
            })
        };
        start.store(true, Ordering::SeqCst);
        for sender in senders {
            sender.join().unwrap();
        }
        finished.store(true, Ordering::SeqCst);
        assert!(flusher.join().unwrap() > 0);
        let committed = committer.join().unwrap();
        producer.flush();
        assert_eq!(producer.in_flight(), 0);
        assert_eq!(producer.dropped_records(), 0);

        let total = SENDERS * PER_SENDER + committed;
        let log = log(&broker);
        assert_eq!(log.len() as u64, total, "exactly once");
        let mut expected = [0u64; SENDERS as usize + 1];
        for stored in &log {
            let (thread, seq) = (value(stored) >> 32, value(stored) & 0xffff_ffff);
            assert_eq!(
                seq, expected[thread as usize],
                "sender {thread} out of order"
            );
            expected[thread as usize] += 1;
        }
    });
}

/// A `commit` queues without waking the parked sender thread, so one
/// that finds the shipper token taken cannot just wait for the holder:
/// the holder here is another `commit` whose drain stops at its own,
/// smaller target. Unless the waiter wakes the sender itself, nobody
/// ships its record and it never returns.
#[test]
fn commit_behind_a_busy_token_is_shipped() {
    const ROUNDS: u64 = 40;
    bounded(Duration::from_secs(60), || {
        let broker = Broker::new();
        broker.create_topic("t", TopicConfig::default()).unwrap();
        // Long enough that the second commit arrives inside the first
        // one's round trip, while it holds the token, even on a host
        // that runs the two threads in turns.
        broker.set_request_latency_micros(5_000);
        // No merging: the first commit's batch is its own record.
        let producer = AsyncProducer::with_max_batch(broker.clone(), "t", 0, 1);
        let reader = broker.partition_reader("t", 0).unwrap();
        // Rounds the second thread is ready for, and rounds whose first
        // commit has returned. Both threads spin: a sleeping one would
        // wake after the window.
        let (ready, first_done) = (AtomicU64::new(0), AtomicU64::new(0));
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for round in 0..ROUNDS {
                    while ready.load(Ordering::SeqCst) == round {
                        std::hint::spin_loop();
                    }
                    producer.commit(&mut vec![record(2 * round)]);
                    first_done.store(round + 1, Ordering::SeqCst);
                }
            });
            scope.spawn(|| {
                for round in 0..ROUNDS {
                    ready.store(round + 1, Ordering::SeqCst);
                    // Queue behind the first commit's record. (No broker
                    // call here: it would wait for the partition lock
                    // the round trip holds.)
                    while producer.in_flight() == 0 && first_done.load(Ordering::SeqCst) <= round {
                        std::hint::spin_loop();
                    }
                    producer.commit(&mut vec![record(2 * round + 1)]);
                    assert_eq!(reader.latest_offset().unwrap(), 2 * round + 2);
                }
            });
        });
        let log = log(&broker);
        let values: Vec<u64> = log.iter().map(value).collect();
        assert_eq!(values, (0..2 * ROUNDS).collect::<Vec<_>>());
    });
}

/// One step of a generated schedule.
#[derive(Debug, Clone, Copy)]
enum Op {
    Send,
    /// `send_batch` of 0, 1, `max_batch`, `max_batch + 1` or
    /// `3 * max_batch` records, by index.
    SendBatch(usize),
    Flush,
    /// `commit` of a bundle of one of the same five sizes, by index.
    Commit(usize),
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    let op = (0usize..13).prop_map(|pick| match pick {
        0..=1 => Op::Send,
        2..=6 => Op::SendBatch(pick - 2),
        7 => Op::Flush,
        _ => Op::Commit(pick - 8),
    });
    prop::collection::vec(op, 1..60)
}

/// Sizes of the log's appends, in order. The broker's [`ManualClock`]
/// ticks on every reading and an append is stamped once, so records
/// share a stamp exactly when they were one append.
fn append_sizes(log: &[StoredRecord]) -> Vec<usize> {
    let mut sizes: Vec<usize> = Vec::new();
    for (i, stored) in log.iter().enumerate() {
        match sizes.last_mut() {
            Some(size) if log[i - 1].timestamp == stored.timestamp => *size += 1,
            _ => sizes.push(1),
        }
    }
    sizes
}

proptest! {
    /// Random `send` / `send_batch` / `flush` / `commit` interleavings
    /// against a `Vec` model of what was sent.
    #[test]
    fn schedules_match_the_model_and_the_batch_rule(ops in arb_ops(), max_batch in 1usize..6) {
        let broker = Broker::with_clock(Arc::new(ManualClock::new(0)));
        broker.create_topic("t", TopicConfig::default()).unwrap();
        let mut producer = AsyncProducer::with_max_batch(broker.clone(), "t", 0, max_batch);
        let mut model: Vec<u64> = Vec::new();
        // Positions in `model` where a flush or commit returned: no
        // append may span one.
        let mut flushed_at = Vec::new();
        // Ranges of `model` that crossed as one chunk, so must have
        // stayed one append.
        let mut chunks = Vec::new();
        let mut batch = Vec::new();
        for op in &ops {
            match *op {
                Op::Send => {
                    producer.send(record(model.len() as u64));
                    model.push(model.len() as u64);
                }
                Op::SendBatch(size) | Op::Commit(size) => {
                    let size = [0, 1, max_batch, max_batch + 1, 3 * max_batch][size];
                    let start = model.len();
                    model.extend(start as u64..(start + size) as u64);
                    batch.extend(model[start..].iter().map(|v| record(*v)));
                    if matches!(op, Op::Commit(_)) {
                        producer.commit(&mut batch);
                    } else {
                        producer.send_batch(&mut batch);
                    }
                    prop_assert!(batch.is_empty(), "the batch is drained");
                    chunks.extend(
                        (start..model.len()).step_by(max_batch).map(|at| at..(at + max_batch).min(model.len())),
                    );
                }
                Op::Flush => producer.flush(),
            }
            // An empty commit is a flush; both are a barrier.
            if matches!(op, Op::Flush | Op::Commit(_)) {
                prop_assert_eq!(producer.in_flight(), 0);
                prop_assert_eq!(log(&broker).len(), model.len());
                flushed_at.push(model.len());
            }
        }
        producer.close();

        let log = log(&broker);
        let values: Vec<u64> = log.iter().map(value).collect();
        prop_assert_eq!(&values, &model, "send order, exactly once");

        let mut start = 0;
        for size in append_sizes(&log) {
            let end = start + size;
            // A batch takes whole chunks of at most `max_batch` and
            // stops merging once it has `max_batch` records.
            prop_assert!(size < 2 * max_batch, "append of {size} with max_batch {max_batch}");
            prop_assert!(
                !flushed_at.iter().any(|at| start < *at && *at < end),
                "append {start}..{end} spans a flush"
            );
            prop_assert!(
                !chunks.iter().any(|c| (c.start < start && start < c.end) || (c.start < end && end < c.end)),
                "append {start}..{end} splits a chunk"
            );
            start = end;
        }
    }

    /// Flushing after every record is one request, one stamp, per record.
    #[test]
    fn flush_per_record_is_one_append_per_record(records in 1usize..40, max_batch in 1usize..6) {
        let broker = Broker::with_clock(Arc::new(ManualClock::new(0)));
        broker.create_topic("t", TopicConfig::default()).unwrap();
        let producer = AsyncProducer::with_max_batch(broker.clone(), "t", 0, max_batch);
        for i in 0..records {
            producer.send(record(i as u64));
            producer.flush();
        }
        let log = log(&broker);
        prop_assert_eq!(append_sizes(&log), vec![1; records]);
    }

    /// So is committing a bundle of one.
    #[test]
    fn commit_per_record_is_one_append_per_record(records in 1usize..40, max_batch in 1usize..6) {
        let broker = Broker::with_clock(Arc::new(ManualClock::new(0)));
        broker.create_topic("t", TopicConfig::default()).unwrap();
        let producer = AsyncProducer::with_max_batch(broker.clone(), "t", 0, max_batch);
        let mut bundle = Vec::new();
        for i in 0..records {
            bundle.push(record(i as u64));
            producer.commit(&mut bundle);
        }
        let log = log(&broker);
        prop_assert_eq!(append_sizes(&log), vec![1; records]);
    }
}

/// End-of-suite gate for the `check-sync` build (see `chaos.rs`): named
/// `zzz_` so it runs last under `--test-threads=1`.
#[cfg(feature = "check-sync")]
#[test]
fn zzz_sync_checker_is_clean_after_async_producer() {
    parking_lot::sync_check::assert_clean("logbus async_producer suite");
    println!("{}", parking_lot::sync_check::report());
}
