//! `BrokerIO` — the KafkaIO analog: reading and writing `logbus` topics.

use crate::coder::{take_array, Coder, CoderError};
use crate::element::{Instant, Kv, WindowedValue};
use crate::graph::{RawElement, RawSource, StagePayload};
use crate::pardo::{DoFn, ParDo, ProcessContext};
use crate::pipeline::{PCollection, PTransform, Pipeline, RootTransform};
use crate::transforms::MapElements;
use bytes::{arena, Bytes};
use logbus::{AsyncProducer, BusHandle, FollowTarget, Record, TopicReader};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::Arc;

/// A consumed broker record with its metadata, the analog of Beam's
/// `KafkaRecord`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KafkaRecord {
    /// Source topic. Shared, not owned: a record is decoded at three
    /// stages and the name is the same every time.
    pub topic: Arc<str>,
    /// Source partition.
    pub partition: u32,
    /// Record offset.
    pub offset: u64,
    /// Stored (`LogAppendTime`) timestamp in microseconds.
    pub timestamp_micros: i64,
    /// Record key, if any.
    pub key: Option<Bytes>,
    /// Record payload.
    pub value: Bytes,
}

/// Coder for [`KafkaRecord`]. The encoded form carries the topic bytes;
/// decoding interns them per thread and copies key and value into the
/// decoding thread's arena.
#[derive(Debug, Default, Clone, Copy)]
pub struct KafkaRecordCoder;

thread_local! {
    /// The topic this thread decoded last: a stage decodes one topic's
    /// records, so one slot makes the name an `Arc` clone per record.
    static LAST_TOPIC: RefCell<Option<Arc<str>>> = const { RefCell::new(None) };
}

fn intern_topic(bytes: &[u8]) -> Result<Arc<str>, CoderError> {
    LAST_TOPIC.with(|slot| {
        let mut slot = slot.borrow_mut();
        match &*slot {
            Some(topic) if topic.as_bytes() == bytes => Ok(topic.clone()),
            _ => {
                let topic: Arc<str> = std::str::from_utf8(bytes)
                    .map_err(|e| CoderError::new(e.to_string()))?
                    .into();
                *slot = Some(topic.clone());
                Ok(topic)
            }
        }
    })
}

impl Coder<KafkaRecord> for KafkaRecordCoder {
    fn encode(&self, value: &KafkaRecord, out: &mut Vec<u8>) {
        crate::coder::put_varint(value.topic.len() as u64, out);
        out.extend_from_slice(value.topic.as_bytes());
        out.extend_from_slice(&value.partition.to_be_bytes());
        out.extend_from_slice(&value.offset.to_be_bytes());
        out.extend_from_slice(&value.timestamp_micros.to_be_bytes());
        match &value.key {
            Some(key) => {
                out.push(1);
                crate::coder::put_varint(key.len() as u64, out);
                out.extend_from_slice(key);
            }
            None => out.push(0),
        }
        crate::coder::put_varint(value.value.len() as u64, out);
        out.extend_from_slice(&value.value);
    }

    fn decode(&self, input: &mut &[u8]) -> Result<KafkaRecord, CoderError> {
        fn take<'a>(input: &mut &'a [u8], len: usize) -> Result<&'a [u8], CoderError> {
            if input.len() < len {
                return Err(CoderError::new("truncated KafkaRecord"));
            }
            let (head, rest) = input.split_at(len);
            *input = rest;
            Ok(head)
        }
        let topic_len = crate::coder::get_varint(input)? as usize;
        let topic = intern_topic(take(input, topic_len)?)?;
        let partition = u32::from_be_bytes(take_array(input)?);
        let offset = u64::from_be_bytes(take_array(input)?);
        let timestamp_micros = i64::from_be_bytes(take_array(input)?);
        let key = match take(input, 1)?[0] {
            0 => None,
            _ => {
                let len = crate::coder::get_varint(input)? as usize;
                Some(arena::copy(take(input, len)?))
            }
        };
        let len = crate::coder::get_varint(input)? as usize;
        let value = arena::copy(take(input, len)?);
        Ok(KafkaRecord {
            topic,
            partition,
            offset,
            timestamp_micros,
            key,
            value,
        })
    }
}

/// Records per fetch request of a read's source.
const FETCH_SIZE: usize = 2048;

/// Entry points for broker IO.
#[derive(Debug)]
pub struct BrokerIO;

impl BrokerIO {
    /// Reads a topic as a bounded collection of [`KafkaRecord`]s.
    /// Accepts a [`Broker`](logbus::Broker), a
    /// [`Cluster`](logbus::Cluster), or an existing [`BusHandle`].
    pub fn read(bus: impl Into<BusHandle>, topic: impl Into<String>) -> BrokerRead {
        BrokerRead {
            bus: bus.into(),
            topic: topic.into(),
            follow: None,
        }
    }

    /// Writes byte payloads to a topic.
    /// Accepts a [`Broker`](logbus::Broker), a
    /// [`Cluster`](logbus::Cluster), or an existing [`BusHandle`].
    pub fn write(bus: impl Into<BusHandle>, topic: impl Into<String>) -> BrokerWrite {
        BrokerWrite {
            bus: bus.into(),
            topic: topic.into(),
            flush_records: 500,
        }
    }
}

/// The read transform. Expands into **two** stages — the raw source plus
/// the record-assembly flat map — exactly the `Source` + `Flat Map` head
/// of the paper's Fig. 13 plan.
///
/// Every source instance a runner creates from an expanded read is the
/// only reader of the topic (the rill runner runs it on subtask 0 only),
/// so it reads every partition: its share is subtask 0 of 1, as a
/// KafkaIO read with a single source split.
#[derive(Debug, Clone)]
pub struct BrokerRead {
    bus: BusHandle,
    topic: String,
    follow: Option<u64>,
}

impl BrokerRead {
    /// Switches to follow mode: instead of stopping at the offsets
    /// current at read time, the source tails the topic until `records`
    /// records have been emitted. A pull that holds nothing waits on
    /// producer progress, on the thread the runner pulls from, so the
    /// engine reads at the offered rate: nothing reads ahead of it but
    /// the rest of one fetch (and, on `dstream`, the receiver's queue).
    pub fn follow_until(mut self, records: u64) -> Self {
        self.follow = Some(records);
        self
    }
}

/// A pulled read of one topic. The first pull opens the [`TopicReader`];
/// a pull waits in one fetch only while it holds nothing, and tops up
/// with fetches that do not wait. Every fetch asks for `FETCH_SIZE`
/// records, and what a pull does not hand out waits for the next pull,
/// so at most `FETCH_SIZE - 1` records are read and not handed out.
struct BrokerRawSource {
    /// What opens the reader, until the first pull does.
    unopened: Option<(BusHandle, Option<u64>)>,
    topic: Arc<str>,
    /// `None` before the first pull, if the topic could not be opened,
    /// and once the read is over.
    reader: Option<TopicReader>,
    /// Fetched, encoded and not yet handed out, in order.
    fetched: VecDeque<RawElement>,
    /// The encode buffer.
    scratch: Vec<u8>,
}

impl BrokerRawSource {
    fn open(&mut self) {
        let Some((bus, follow)) = self.unopened.take() else {
            return;
        };
        let topic = &*self.topic;
        let reader = match follow {
            // Each source instance counts towards the target alone.
            Some(target) => TopicReader::following(bus, topic, 0, 1, FollowTarget::new(target)),
            None => TopicReader::bounded(bus, topic, 0, 1),
        };
        self.reader = reader.ok();
    }

    /// Encodes one fetched record as a raw element.
    fn encode(
        topic: &Arc<str>,
        scratch: &mut Vec<u8>,
        partition: u32,
        stored: logbus::StoredRecord,
    ) -> RawElement {
        // Key/value move out of the fetched record — refcounted views of
        // segment storage, never payload copies. The encoding goes
        // through the source's scratch buffer into the pulling thread's
        // arena.
        let record = KafkaRecord {
            topic: topic.clone(),
            partition,
            offset: stored.offset,
            timestamp_micros: stored.timestamp.as_micros(),
            key: stored.record.key,
            value: stored.record.value,
        };
        KafkaRecordCoder.encode_into(&record, scratch);
        WindowedValue::timestamped(arena::copy(scratch), Instant(record.timestamp_micros))
    }
}

impl RawSource for BrokerRawSource {
    fn next_batch(&mut self, max: usize) -> Option<Vec<RawElement>> {
        self.open();
        let (topic, scratch, fetched) = (&self.topic, &mut self.scratch, &mut self.fetched);
        let mut held = fetched.len();
        let mut sink = |partition, stored| {
            fetched.push_back(Self::encode(topic, scratch, partition, stored));
        };
        let mut over = false;
        if let Some(reader) = &mut self.reader {
            if held == 0 {
                match reader.next_batch(FETCH_SIZE, &mut sink) {
                    Some(delivered) => held = delivered,
                    None => over = true,
                }
            }
            while !over && held < max {
                match reader.try_next_batch(FETCH_SIZE, &mut sink) {
                    Some(0) => break,
                    Some(delivered) => held += delivered,
                    None => over = true,
                }
            }
        }
        if over {
            self.reader = None;
        }
        let take = max.max(1).min(self.fetched.len());
        (take > 0).then(|| self.fetched.drain(..take).collect())
    }
}

impl RootTransform<KafkaRecord> for BrokerRead {
    fn expand(self, pipeline: &Pipeline) -> PCollection<KafkaRecord> {
        let bus = self.bus.clone();
        let topic: Arc<str> = self.topic.as_str().into();
        let follow = self.follow;
        let factory: Arc<dyn Fn() -> Box<dyn RawSource> + Send + Sync> = Arc::new(move || {
            Box::new(BrokerRawSource {
                unopened: Some((bus.clone(), follow)),
                topic: topic.clone(),
                reader: None,
                fetched: VecDeque::new(),
                scratch: Vec::new(),
            }) as Box<dyn RawSource>
        });
        let read_node = pipeline.add_stage(
            format!("BrokerIO.Read({})", self.topic),
            "Source: PTransformTranslation.UnknownRawPTransform",
            StagePayload::Read(factory),
            None,
        );
        let raw: PCollection<KafkaRecord> =
            PCollection::new(pipeline.clone(), read_node, Arc::new(KafkaRecordCoder));
        // Record assembly: the KafkaIO expansion's flat map. A full coder
        // round trip per record, like the real translated plan.
        let assembled = MapElements::new(
            "BrokerIO.RecordAssembly",
            |record: KafkaRecord| record,
            Arc::new(KafkaRecordCoder) as Arc<dyn Coder<KafkaRecord>>,
        )
        .expand(&raw);
        // Rename the translated stage to the Flat Map the paper shows.
        assembled
            .pipeline()
            .set_translated_name(assembled.node(), "Flat Map");
        assembled
    }
}

/// Drops the consumer metadata of read records, keeping key/value pairs —
/// Beam's `withoutMetadata()`.
#[derive(Debug, Default, Clone, Copy)]
pub struct WithoutMetadata;

impl WithoutMetadata {
    /// Creates the transform.
    pub fn new() -> Self {
        WithoutMetadata
    }
}

impl PTransform<KafkaRecord, Kv<Bytes, Bytes>> for WithoutMetadata {
    fn expand(self, input: &PCollection<KafkaRecord>) -> PCollection<Kv<Bytes, Bytes>> {
        let coder = Arc::new(crate::coder::KvCoder::new(
            Arc::new(crate::coder::BytesCoder) as Arc<dyn Coder<Bytes>>,
            Arc::new(crate::coder::BytesCoder) as Arc<dyn Coder<Bytes>>,
        ));
        MapElements::new(
            "WithoutMetadata",
            |record: KafkaRecord| Kv::new(record.key.unwrap_or_default(), record.value),
            coder,
        )
        .expand(input)
    }
}

/// The write transform: a `ParDo` writing records through an
/// asynchronous producer and **committing at every bundle boundary** (the
/// bundle's writes must be durable before the bundle commits).
///
/// Bundle size is a **runner** choice: with whole-stream or micro-batch
/// bundles the async producer amortizes broker round trips over adaptive
/// batches, while a runner with per-element bundles commits after every
/// record — one synchronous round trip per output tuple, and nothing
/// else: the commit ships on the operator thread. The paper's
/// output-volume-dependent Apex slowdown follows from exactly this
/// difference.
#[derive(Debug, Clone)]
pub struct BrokerWrite {
    bus: BusHandle,
    topic: String,
    flush_records: usize,
}

impl BrokerWrite {
    /// Overrides the producer's maximum adaptive batch size.
    pub fn flush_records(mut self, records: usize) -> Self {
        self.flush_records = records.max(1);
        self
    }
}

/// Coder for `()` (the output of terminal writes).
#[derive(Debug, Default, Clone, Copy)]
pub struct UnitCoder;

impl Coder<()> for UnitCoder {
    fn encode(&self, _value: &(), _out: &mut Vec<u8>) {}

    fn decode(&self, _input: &mut &[u8]) -> Result<(), CoderError> {
        Ok(())
    }
}

/// Buffers the open bundle in `pending`, hands it to the producer
/// whenever it holds `max_batch` records, and commits the rest in
/// `finish_bundle`. A bundle that never finishes is not committed: what
/// is still pending is dropped with the instance, for the runner to
/// retry (Beam's contract).
struct WriteDoFn {
    bus: BusHandle,
    topic: String,
    max_batch: usize,
    /// Created by the first hand-over, so an instance whose bundles are
    /// all empty never spawns a sender thread.
    producer: Option<AsyncProducer>,
    /// The open bundle's records not yet handed over; capacity reused.
    pending: Vec<Record>,
}

impl Clone for WriteDoFn {
    fn clone(&self) -> Self {
        WriteDoFn {
            bus: self.bus.clone(),
            topic: self.topic.clone(),
            max_batch: self.max_batch,
            producer: None,
            pending: Vec::new(),
        }
    }
}

impl WriteDoFn {
    /// Passes `pending` to the producer, created on first use, by
    /// `AsyncProducer::send_batch` or `AsyncProducer::commit`.
    fn hand_over(&mut self, how: fn(&AsyncProducer, &mut Vec<Record>)) {
        let producer = self.producer.get_or_insert_with(|| {
            AsyncProducer::with_max_batch(self.bus.clone(), &*self.topic, 0, self.max_batch)
        });
        how(producer, &mut self.pending);
    }
}

impl DoFn<Bytes, ()> for WriteDoFn {
    fn process(&mut self, element: Bytes, _ctx: &mut ProcessContext<'_, ()>) {
        self.pending.push(Record::from_value(element));
        if self.pending.len() >= self.max_batch {
            self.hand_over(AsyncProducer::send_batch);
        }
    }

    fn finish_bundle(&mut self, _ctx: &mut ProcessContext<'_, ()>) {
        // The bundle's writes must be durable before the bundle commits;
        // under per-element bundles this is a synchronous round trip per
        // record.
        if self.producer.is_some() || !self.pending.is_empty() {
            self.hand_over(AsyncProducer::commit);
        }
    }
}

impl PTransform<Bytes, ()> for BrokerWrite {
    fn expand(self, input: &PCollection<Bytes>) -> PCollection<()> {
        let dofn = WriteDoFn {
            bus: self.bus,
            topic: self.topic.clone(),
            max_batch: self.flush_records,
            producer: None,
            pending: Vec::new(),
        };
        ParDo::of(
            format!("BrokerIO.Write({})", self.topic),
            dofn,
            Arc::new(UnitCoder) as Arc<dyn Coder<()>>,
        )
        .expand(input)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use logbus::{Broker, Record, TopicConfig};

    #[test]
    fn kafka_record_coder_roundtrip() {
        let coder = KafkaRecordCoder;
        let records = vec![
            KafkaRecord {
                topic: "t".into(),
                partition: 3,
                offset: 99,
                timestamp_micros: -5,
                key: Some(Bytes::from_static(b"k")),
                value: Bytes::from_static(b"v"),
            },
            KafkaRecord {
                topic: "".into(),
                partition: 0,
                offset: 0,
                timestamp_micros: i64::MAX,
                key: None,
                value: Bytes::new(),
            },
        ];
        for r in records {
            assert_eq!(coder.decode_all(&coder.encode_to_vec(&r)).unwrap(), r);
        }
    }

    #[test]
    fn read_expands_to_source_plus_flat_map() {
        let broker = Broker::new();
        broker.create_topic("in", TopicConfig::default()).unwrap();
        let p = Pipeline::new();
        let records = p.apply(BrokerIO::read(broker, "in"));
        assert_eq!(p.stage_count(), 2);
        p.with_graph(|g| {
            assert_eq!(
                g.nodes()[0].translated_name,
                "Source: PTransformTranslation.UnknownRawPTransform"
            );
            assert_eq!(g.nodes()[1].translated_name, "Flat Map");
        });
        let _ = records;
    }

    /// `count` records `r{from}`, `r{from + 1}`, … appended to `t`.
    fn produce(broker: &Broker, from: usize, count: usize) {
        let records = (from..from + count)
            .map(|i| Record::from_value(format!("r{i}")))
            .collect();
        let writer = broker.partition_writer("t", 0).unwrap();
        writer.produce_batch(records).unwrap();
    }

    /// A source over `t`, as a runner creates it.
    fn source(broker: &Broker, follow: Option<u64>) -> BrokerRawSource {
        BrokerRawSource {
            unopened: Some((broker.clone().into(), follow)),
            topic: "t".into(),
            reader: None,
            fetched: VecDeque::new(),
            scratch: Vec::new(),
        }
    }

    /// The offsets of a batch's records, checked against their values.
    fn offsets(batch: &[RawElement]) -> Vec<u64> {
        batch
            .iter()
            .map(|element| {
                let record = KafkaRecordCoder.decode_all(&element.value).unwrap();
                assert_eq!(record.value, format!("r{}", record.offset).as_bytes());
                record.offset
            })
            .collect()
    }

    #[test]
    fn a_pull_hands_out_what_is_there_without_waiting_for_the_rest() {
        let broker = Broker::new();
        broker.create_topic("t", TopicConfig::default()).unwrap();
        produce(&broker, 0, 1_500);
        let mut source = source(&broker, Some(3_000));
        let first = source.next_batch(1_000).expect("a first part");
        assert_eq!(offsets(&first), (0..1_000).collect::<Vec<_>>());
        let rest = source
            .next_batch(4_096)
            .expect("the rest of the first half");
        assert_eq!(offsets(&rest), (1_000..1_500).collect::<Vec<_>>());
        produce(&broker, 1_500, 1_500);
        let second = source.next_batch(4_096).expect("the second half");
        assert_eq!(offsets(&second), (1_500..3_000).collect::<Vec<_>>());
        assert!(source.next_batch(4_096).is_none(), "the target is read");
    }

    #[test]
    fn a_pull_fetches_once_and_holds_less_than_a_fetch() {
        const RECORDS: usize = 10_000;
        let broker = Broker::new();
        broker.create_topic("t", TopicConfig::default()).unwrap();
        produce(&broker, 0, RECORDS);
        let mut source = source(&broker, None);
        let first = source.next_batch(1).expect("a record");
        assert_eq!(offsets(&first), [0]);
        assert_eq!(
            source.fetched.len(),
            FETCH_SIZE - 1,
            "one fetch of FETCH_SIZE records, the rest held"
        );
        let mut all = first;
        for max in [1, 7, FETCH_SIZE, 3_000, 5_000].into_iter().cycle() {
            let Some(batch) = source.next_batch(max) else {
                break;
            };
            assert!(
                !batch.is_empty() && batch.len() <= max,
                "{} of {max}",
                batch.len()
            );
            assert!(source.fetched.len() < FETCH_SIZE, "read ahead of the pulls");
            all.extend(batch);
        }
        assert_eq!(offsets(&all), (0..RECORDS as u64).collect::<Vec<_>>());
    }

    #[test]
    fn without_metadata_keeps_kv() {
        let record = KafkaRecord {
            topic: "t".into(),
            partition: 0,
            offset: 1,
            timestamp_micros: 0,
            key: None,
            value: Bytes::from_static(b"payload"),
        };
        let kv = Kv::new(record.key.clone().unwrap_or_default(), record.value.clone());
        assert_eq!(kv.key, Bytes::new());
        assert_eq!(kv.value, Bytes::from_static(b"payload"));
    }

    /// The write `ParDo`'s raw `DoFn`, as a runner instantiates it.
    fn write_dofn(broker: &Broker, max_batch: usize) -> Box<dyn crate::graph::RawDoFn> {
        let p = Pipeline::new();
        p.apply(crate::Create::bytes(Vec::new()))
            .apply(BrokerIO::write(broker.clone(), "out").flush_records(max_batch));
        p.with_graph(|g| match &g.nodes().last().unwrap().payload {
            StagePayload::ParDo(factory) => factory(),
            other => panic!("the write is a ParDo, not {other:?}"),
        })
    }

    /// Writes `r0`, `r1`, … in bundles of the given sizes and returns
    /// the sizes of the log's appends. The broker's clock ticks on every
    /// reading and an append is stamped once, so records share a stamp
    /// exactly when they were one request.
    fn appends_of(bundles: &[usize], max_batch: usize) -> Vec<usize> {
        let broker = Broker::with_clock(Arc::new(logbus::ManualClock::new(0)));
        broker.create_topic("out", TopicConfig::default()).unwrap();
        let mut dofn = write_dofn(&broker, max_batch);
        let reader = broker.partition_reader("out", 0).unwrap();
        let mut written = 0..;
        for bundle in bundles {
            dofn.start_bundle();
            for i in written.by_ref().take(*bundle) {
                let value = Bytes::from(format!("r{i}"));
                let coded = crate::BytesCoder.encode_to_vec(&value).into();
                dofn.process(WindowedValue::in_global_window(coded), &mut |_| {});
            }
            dofn.finish_bundle(&mut |_| {});
            let durable = reader.latest_offset().unwrap();
            assert_eq!(durable, written.start, "a finished bundle is appended");
        }
        let log = reader.fetch(0, usize::MAX).unwrap();
        let mut appends: Vec<usize> = Vec::new();
        for (i, stored) in log.iter().enumerate() {
            assert_eq!(&stored.record.value[..], format!("r{i}").as_bytes());
            match appends.last_mut() {
                Some(size) if log[i - 1].timestamp == stored.timestamp => *size += 1,
                _ => appends.push(1),
            }
        }
        assert_eq!(appends.iter().sum::<usize>() as u64, written.start);
        appends
    }

    #[test]
    fn bundle_size_decides_the_request_count() {
        const MAX_BATCH: usize = 8;
        assert_eq!(appends_of(&[1; 40], MAX_BATCH), vec![1; 40]);
        assert_eq!(appends_of(&[MAX_BATCH - 1], MAX_BATCH), vec![MAX_BATCH - 1]);
        let split = appends_of(&[2 * MAX_BATCH + 1], MAX_BATCH);
        assert!(split.len() >= 3, "an oversized bundle is split: {split:?}");
        assert!(split.iter().all(|size| *size < 2 * MAX_BATCH), "{split:?}");
    }

    #[test]
    fn unit_coder() {
        let coder = UnitCoder;
        assert!(coder.encode_to_vec(&()).is_empty());
        assert_eq!(coder.decode_all(&[]).unwrap(), ());
    }
}
