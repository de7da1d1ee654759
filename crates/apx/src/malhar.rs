//! Connector operators (the Apex Malhar library analog): broker input and
//! output operators.

use crate::operator::{Emitter, InputOperator, Operator, OperatorContext};
use bytes::Bytes;
use logbus::{BusHandle, FollowTarget, PartitionWriter, Record, TopicReader};

/// Input operator reading a `logbus` topic, one streaming window per
/// [`TopicReader::next_batch`] of up to `window_size` records (paper's
/// Kafka input operator): bounded at the offsets current at setup, or in
/// follow mode ([`KafkaInput::follow_until`]) tailing the topic until a
/// target record count has been emitted. `emit_window` blocks while the
/// reader waits, so the window loop is throttled to the producer's rate
/// instead of spinning through empty windows; the stream ends with the
/// one empty window in which the reader reports its finish line.
///
/// The operator is the only reader of its input, so it reads every
/// partition: its share is subtask 0 of 1.
#[derive(Debug)]
pub struct KafkaInput {
    bus: BusHandle,
    topic: String,
    window_size: usize,
    /// Opened at setup.
    reader: Option<TopicReader>,
    /// `Some(target)` puts the operator in follow mode.
    follow_target: Option<u64>,
}

impl KafkaInput {
    /// Creates an input over `topic`. Accepts a
    /// [`Broker`](logbus::Broker), a [`Cluster`](logbus::Cluster), or an
    /// existing [`BusHandle`].
    pub fn new(bus: impl Into<BusHandle>, topic: impl Into<String>) -> Self {
        KafkaInput {
            bus: bus.into(),
            topic: topic.into(),
            window_size: 2048,
            reader: None,
            follow_target: None,
        }
    }

    /// Switches to follow mode: windows keep reading past the offsets
    /// current at setup until `records` records have been emitted in
    /// total.
    pub fn follow_until(mut self, records: u64) -> Self {
        self.follow_target = Some(records);
        self
    }
}

impl InputOperator<Bytes> for KafkaInput {
    fn setup(&mut self, ctx: &OperatorContext) {
        self.window_size = ctx.window_size;
        let (bus, topic) = (self.bus.clone(), &self.topic);
        // A missing topic stays harmless: the operator just emits
        // nothing.
        self.reader = match self.follow_target {
            Some(target) => TopicReader::following(bus, topic, 0, 1, FollowTarget::new(target)),
            None => TopicReader::bounded(bus, topic, 0, 1),
        }
        .ok();
    }

    fn emit_window(&mut self, _window_id: u64, out: &mut dyn Emitter<Bytes>) -> bool {
        let Some(reader) = self.reader.as_mut() else {
            return false;
        };
        reader
            .next_batch(self.window_size, &mut |_p, stored| {
                out.emit(stored.record.value);
            })
            .is_some()
    }
}

/// Output operator producing to a `logbus` topic.
///
/// Appends are buffered per streaming window and flushed as one broker
/// request at window end (Apex's Kafka output operator batches
/// asynchronously).
#[derive(Debug)]
pub struct KafkaOutput {
    bus: BusHandle,
    topic: String,
    buffer: Vec<Record>,
    /// Cached produce handle, resolved on the first append and re-tried
    /// while the topic is missing (appends to unknown topics stay silent
    /// drops, as before).
    writer: Option<PartitionWriter>,
}

impl KafkaOutput {
    /// Creates a window-batched output to partition 0 of `topic`.
    /// Accepts a [`Broker`](logbus::Broker), a
    /// [`Cluster`](logbus::Cluster), or an existing [`BusHandle`].
    pub fn new(bus: impl Into<BusHandle>, topic: impl Into<String>) -> Self {
        KafkaOutput {
            bus: bus.into(),
            topic: topic.into(),
            buffer: Vec::new(),
            writer: None,
        }
    }

    fn writer(&mut self) -> Option<&PartitionWriter> {
        if self.writer.is_none() {
            // Retried resolution plus an idempotent handle: transient
            // faults are ridden out and a lost-ack resend never
            // duplicates query output.
            let retry = logbus::RetryPolicy::default();
            self.writer = logbus::with_retry(&retry, || self.bus.partition_writer(&self.topic, 0))
                .ok()
                .map(logbus::PartitionWriter::idempotent);
        }
        self.writer.as_ref()
    }

    fn flush(&mut self) {
        if self.buffer.is_empty() {
            return;
        }
        // Drain in place: the window buffer's capacity is reused across
        // every window instead of reallocating per flush.
        let mut batch = std::mem::take(&mut self.buffer);
        if let Some(writer) = self.writer() {
            if writer.produce_batch_drain(&mut batch).is_err() {
                batch.clear();
            }
        } else {
            batch.clear();
        }
        self.buffer = batch;
    }
}

impl Operator<Bytes, ()> for KafkaOutput {
    fn process(&mut self, tuple: Bytes, _out: &mut dyn Emitter<()>) {
        self.buffer.push(Record::from_value(tuple));
    }

    fn end_window(&mut self, _window_id: u64, _out: &mut dyn Emitter<()>) {
        self.flush();
    }

    fn teardown(&mut self) {
        self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use logbus::{Broker, StoredRecord, TopicConfig};

    fn broker_with_records(n: usize) -> Broker {
        let broker = Broker::new();
        broker.create_topic("in", TopicConfig::default()).unwrap();
        broker.create_topic("out", TopicConfig::default()).unwrap();
        let writer = broker.partition_writer("in", 0).unwrap();
        for i in 0..n {
            writer.produce(Record::from_value(format!("r{i}"))).unwrap();
        }
        broker
    }

    /// Everything appended to `out`.
    fn output(broker: &Broker) -> Vec<StoredRecord> {
        let reader = broker.partition_reader("out", 0).unwrap();
        reader.fetch(0, usize::MAX).unwrap()
    }

    #[test]
    fn kafka_input_reads_in_windows() {
        let broker = broker_with_records(25);
        let mut input = KafkaInput::new(broker, "in");
        input.setup(&OperatorContext {
            name: "in".into(),
            window_size: 10,
        });
        let mut windows: Vec<usize> = Vec::new();
        loop {
            let mut count = 0usize;
            let more = {
                let mut emitter = |_t: Bytes| count += 1;
                input.emit_window(windows.len() as u64, &mut emitter)
            };
            windows.push(count);
            if !more {
                break;
            }
        }
        assert_eq!(
            windows,
            vec![10, 10, 5, 0],
            "an empty window ends the stream"
        );
    }

    #[test]
    fn kafka_input_is_bounded() {
        let broker = broker_with_records(5);
        let mut input = KafkaInput::new(broker.clone(), "in");
        input.setup(&OperatorContext {
            name: "in".into(),
            window_size: 100,
        });
        let writer = broker.partition_writer("in", 0).unwrap();
        writer.produce(Record::from_value("late")).unwrap();
        let mut count = 0;
        let mut emitter = |_t: Bytes| count += 1;
        assert!(input.emit_window(0, &mut emitter));
        assert!(!input.emit_window(1, &mut emitter), "one window drains it");
        assert_eq!(count, 5, "the late record is outside the bounded range");
    }

    #[test]
    fn kafka_output_batches_per_window() {
        let broker = broker_with_records(0);
        let mut out = KafkaOutput::new(broker.clone(), "out");
        let mut null = |_: ()| {};
        out.process(Bytes::from_static(b"a"), &mut null);
        out.process(Bytes::from_static(b"b"), &mut null);
        assert_eq!(output(&broker).len(), 0, "buffered until window end");
        out.end_window(0, &mut null);
        let records = output(&broker);
        assert_eq!(records.len(), 2);
        // Identical append stamp: one broker request.
        assert_eq!(records[0].timestamp, records[1].timestamp);
    }

    #[test]
    fn teardown_flushes_partial_window() {
        let broker = broker_with_records(0);
        let mut out = KafkaOutput::new(broker.clone(), "out");
        let mut null = |_: ()| {};
        out.process(Bytes::from_static(b"a"), &mut null);
        out.teardown();
        assert_eq!(output(&broker).len(), 1);
    }

    #[test]
    fn faulted_broker_round_trips_exactly_once() {
        let broker = broker_with_records(80);
        let mut plan = logbus::FaultPlan::seeded(17);
        plan.produce_error = 0.3;
        plan.ack_loss = 0.3;
        plan.fetch_error = 0.3;
        plan.metadata_error = 0.3;
        plan.duplicate = 0.0;
        plan.extra_latency = 0.0;
        broker.install_fault_plan(plan);

        let mut input = KafkaInput::new(broker.clone(), "in");
        input.setup(&OperatorContext {
            name: "in".into(),
            window_size: 9,
        });
        let mut out = KafkaOutput::new(broker.clone(), "out");
        let mut window = 0u64;
        loop {
            let mut tuples = Vec::new();
            let more = {
                let mut emitter = |t: Bytes| tuples.push(t);
                input.emit_window(window, &mut emitter)
            };
            let mut null = |_: ()| {};
            for t in tuples {
                out.process(t, &mut null);
            }
            out.end_window(window, &mut null);
            window += 1;
            if !more {
                break;
            }
        }
        out.teardown();
        broker.clear_fault_plan();

        let records = output(&broker);
        assert_eq!(records.len(), 80, "no loss, no duplicates through faults");
        for (i, stored) in records.iter().enumerate() {
            assert_eq!(&stored.record.value[..], format!("r{i}").as_bytes());
        }
    }

    #[test]
    fn follow_input_tails_slow_producer() {
        let broker = broker_with_records(0);
        let writer = broker.partition_writer("in", 0).unwrap();
        let producer = std::thread::spawn(move || {
            for i in 0..30 {
                writer.produce(Record::from_value(format!("r{i}"))).unwrap();
                if i % 6 == 0 {
                    std::thread::sleep(std::time::Duration::from_millis(2));
                }
            }
        });
        let mut input = KafkaInput::new(broker, "in").follow_until(30);
        input.setup(&OperatorContext {
            name: "in".into(),
            window_size: 8,
        });
        let mut all: Vec<Bytes> = Vec::new();
        let mut window = 0u64;
        loop {
            let more = {
                let mut emitter = |t: Bytes| all.push(t);
                input.emit_window(window, &mut emitter)
            };
            window += 1;
            if !more {
                break;
            }
        }
        producer.join().unwrap();
        assert_eq!(all.len(), 30, "a slow producer loses no records");
        assert_eq!(&all[29][..], b"r29", "order preserved");
    }

    #[test]
    fn missing_topic_is_harmless() {
        let broker = Broker::new();
        let mut input = KafkaInput::new(broker.clone(), "nope");
        input.setup(&OperatorContext {
            name: "in".into(),
            window_size: 10,
        });
        let mut emitter = |_t: Bytes| {};
        assert!(!input.emit_window(0, &mut emitter));
    }
}
