//! Substrate microbenchmarks: raw throughput of the broker and the three
//! engines, independent of the benchmark queries.

use bytes::{Bytes, BytesMut};
use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use std::sync::atomic::{AtomicU64, Ordering};

static TAG: AtomicU64 = AtomicU64::new(0);

const N: u64 = 10_000;

fn broker_produce_fetch(c: &mut Criterion) {
    let mut group = c.benchmark_group("substrate_logbus");
    group.throughput(Throughput::Elements(N));
    group
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_secs(1))
        .measurement_time(std::time::Duration::from_secs(2));
    // A pre-built record cloned per send (a refcount bump) keeps the
    // measurement on the transport path instead of payload construction.
    let record = logbus::Record::from_value("payload-0123456789abcdef");
    group.bench_function("produce_batched_512", |b| {
        b.iter(|| {
            let broker = logbus::Broker::new();
            broker
                .create_topic("t", logbus::TopicConfig::default())
                .unwrap();
            let writer = broker.partition_writer("t", 0).unwrap();
            let mut batch = Vec::with_capacity(512);
            let mut left = N as usize;
            while left > 0 {
                let take = left.min(512);
                batch.extend(std::iter::repeat_n(&record, take).cloned());
                writer.produce_batch_drain(&mut batch).unwrap();
                left -= take;
            }
        });
    });
    group.bench_function("fetch_2048", |b| {
        let broker = preloaded("t");
        let reader = broker.partition_reader("t", 0).unwrap();
        b.iter(|| {
            let mut offset = 0;
            let mut total = 0usize;
            loop {
                let batch = reader.fetch(offset, 2048).unwrap();
                if batch.is_empty() {
                    break;
                }
                offset = batch.last().unwrap().offset + 1;
                total += batch.len();
            }
            total
        });
    });
    group.finish();
}

/// A broker whose topic `topic` holds `N` records, one request each.
fn preloaded(topic: &str) -> logbus::Broker {
    let broker = logbus::Broker::new();
    broker
        .create_topic(topic, logbus::TopicConfig::default())
        .unwrap();
    let writer = broker.partition_writer(topic, 0).unwrap();
    for i in 0..N {
        writer
            .produce(logbus::Record::from_value(format!("record-{i}")))
            .unwrap();
    }
    broker
}

/// The steady-state hot path through cached partition handles, with
/// the simulated request latency off. `EXPERIMENTS.md` records the
/// measured ratios.
fn broker_hot_path(c: &mut Criterion) {
    let mut group = c.benchmark_group("broker_hot_path");
    group.throughput(Throughput::Elements(N));
    group
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_secs(1))
        .measurement_time(std::time::Duration::from_secs(2));
    let record = logbus::Record::from_value("payload-0123456789abcdef");
    group.bench_function("produce_handle", |b| {
        b.iter(|| {
            let broker = logbus::Broker::new();
            broker
                .create_topic("t", logbus::TopicConfig::default())
                .unwrap();
            let writer = broker.partition_writer("t", 0).unwrap();
            for _ in 0..N {
                writer.produce(record.clone()).unwrap();
            }
        });
    });
    // The zero-copy pair (DESIGN.md §12): an owned byte copy per record —
    // the pattern the refcounted record path eliminates — against the
    // pooled drained-batch contract the client tiers run in steady state.
    let payload: &[u8] = b"payload-0123456789abcdef";
    group.bench_function("produce_copy_per_record", |b| {
        b.iter(|| {
            let broker = logbus::Broker::new();
            broker
                .create_topic("t", logbus::TopicConfig::default())
                .unwrap();
            let writer = broker.partition_writer("t", 0).unwrap();
            for _ in 0..N {
                writer
                    .produce(logbus::Record::from_value(payload.to_vec()))
                    .unwrap();
            }
        });
    });
    group.bench_function("produce_drain_512", |b| {
        b.iter(|| {
            let broker = logbus::Broker::new();
            broker
                .create_topic("t", logbus::TopicConfig::default())
                .unwrap();
            let writer = broker.partition_writer("t", 0).unwrap();
            let mut batch = logbus::pool::record_vec();
            let mut sent = 0u64;
            while sent < N {
                let take = 512.min(N - sent);
                for _ in 0..take {
                    batch.push(record.clone());
                }
                writer.produce_batch_drain(&mut batch).unwrap();
                sent += take;
            }
            logbus::pool::recycle_record_vec(batch);
        });
    });
    let broker = preloaded("f");
    group.bench_function("fetch_handle_256", |b| {
        let reader = broker.partition_reader("f", 0).unwrap();
        let mut buffer = Vec::with_capacity(256);
        b.iter(|| {
            let mut offset = 0;
            let mut total = 0usize;
            loop {
                buffer.clear();
                let appended = reader.fetch_into(offset, 256, &mut buffer).unwrap();
                if appended == 0 {
                    break;
                }
                offset = buffer.last().unwrap().offset + 1;
                total += appended;
            }
            total
        });
    });
    group.finish();
}

/// Appends into a topic that did not exist a moment ago, as every
/// benchmark cell's output topic is: 1 M records through the
/// drained-batch contract, topic created and dropped per iteration, so
/// the first touch of the segment index and arena pages is inside the
/// measurement (the cases above append 10 k `&'static` records, which
/// bypass the arena). At 6 B the cost is nearly all per-record index,
/// at 60 B the payload bytes join it — the ledger's `projection` and
/// `identity` write sizes.
fn broker_fresh_topic_append(c: &mut Criterion) {
    const RECORDS: u64 = 1_000_000;
    let mut group = c.benchmark_group("broker_fresh_topic_append");
    group.throughput(Throughput::Elements(RECORDS));
    group
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_secs(1))
        .measurement_time(std::time::Duration::from_secs(3));
    for payload_bytes in [60usize, 6] {
        // A heap payload: cloning bumps a refcount and the append copies
        // it into the segment arena, like an engine sink's output.
        let record = logbus::Record::from_value(vec![b'x'; payload_bytes]);
        group.bench_function(format!("1m_x_{payload_bytes}b"), |b| {
            b.iter(|| {
                let broker = logbus::Broker::new();
                broker
                    .create_topic("t", logbus::TopicConfig::default())
                    .unwrap();
                let writer = broker.partition_writer("t", 0).unwrap();
                let mut batch = logbus::pool::record_vec();
                let mut sent = 0u64;
                while sent < RECORDS {
                    let take = 512.min(RECORDS - sent);
                    for _ in 0..take {
                        batch.push(record.clone());
                    }
                    writer.produce_batch_drain(&mut batch).unwrap();
                    sent += take;
                }
                logbus::pool::recycle_record_vec(batch);
            });
        });
    }
    group.finish();
}

/// One whole life of a topic — create, 100 k records of 100 heap bytes
/// in batches of 512, delete — per iteration, on a broker and on an RF-3
/// cluster (`Acks::All`, RTT 0): the quick check for warm log memory and
/// block copies. From the second iteration on every arena chunk and
/// index block comes out of a pool, so the time per record is the append
/// (and, on the cluster, two block copies) with no first-touch page
/// faults in it; a chunk pool too small for the topic, or a follower
/// that re-appends record by record, shows up here first.
fn topic_churn(c: &mut Criterion) {
    const RECORDS: u64 = 100_000;
    let mut group = c.benchmark_group("topic_churn");
    group.throughput(Throughput::Elements(RECORDS));
    group
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_secs(1))
        .measurement_time(std::time::Duration::from_secs(3));
    let record = logbus::Record::from_value(vec![b'x'; 100]);
    let fill = |writer: logbus::PartitionWriter| {
        let mut batch = logbus::pool::record_vec();
        let mut sent = 0u64;
        while sent < RECORDS {
            let take = 512.min(RECORDS - sent);
            batch.extend((0..take).map(|_| record.clone()));
            writer.produce_batch_drain(&mut batch).unwrap();
            sent += take;
        }
        logbus::pool::recycle_record_vec(batch);
    };
    let broker = logbus::Broker::new();
    group.bench_function("broker", |b| {
        b.iter(|| {
            broker
                .create_topic("t", logbus::TopicConfig::default())
                .unwrap();
            fill(broker.partition_writer("t", 0).unwrap());
            broker.delete_topic("t").unwrap();
        });
    });
    let cluster = logbus::Cluster::new(logbus::ClusterConfig { brokers: 3 });
    group.bench_function("cluster_rf3", |b| {
        b.iter(|| {
            let config = logbus::TopicConfig::default().replication_factor(3);
            cluster.create_topic("t", config).unwrap();
            fill(cluster.partition_writer("t", 0).unwrap());
            for broker in 0..3 {
                cluster.broker(broker).delete_topic("t").unwrap();
            }
        });
    });
    group.finish();
}

fn engines_identity(c: &mut Criterion) {
    let broker = logbus::Broker::new();
    broker
        .create_topic("input", logbus::TopicConfig::default())
        .unwrap();
    let input = streambench_core::QueryLogGenerator::new(1).payloads(N);
    let input = input.into_iter().map(logbus::Record::from_value);
    let writer = broker.partition_writer("input", 0).unwrap();
    writer.produce_batch(input.collect()).unwrap();

    let fresh = |prefix: &str| {
        let topic = format!("{prefix}-{}", TAG.fetch_add(1, Ordering::Relaxed));
        broker
            .create_topic(&topic, logbus::TopicConfig::default())
            .unwrap();
        topic
    };

    let mut group = c.benchmark_group("substrate_engines_identity");
    group.throughput(Throughput::Elements(N));
    group
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_secs(1))
        .measurement_time(std::time::Duration::from_secs(2));
    group.bench_function("rill", |b| {
        b.iter(|| {
            let out = fresh("rill");
            let env = rill::StreamExecutionEnvironment::local();
            env.add_source(rill::BrokerSource::new(broker.clone(), "input"))
                .map(|v: Bytes| v)
                .add_sink(rill::BrokerSink::new(broker.clone(), &out));
            env.execute("identity").unwrap();
        });
    });
    group.bench_function("dstream", |b| {
        b.iter(|| {
            let out = fresh("dstream");
            let ssc = dstream::StreamingContext::new(dstream::Context::local());
            ssc.broker_stream(broker.clone(), "input", 2_000)
                .unwrap()
                .map(|v: Bytes| v)
                .save_to_broker(&ssc, broker.clone(), &out);
            ssc.run_to_completion().unwrap();
        });
    });
    group.bench_function("apx", |b| {
        b.iter(|| {
            let out = fresh("apx");
            let mut rm = streambench_core::fresh_yarn_cluster();
            let dag = apx::Dag::new("identity");
            dag.add_input("in", apx::KafkaInput::new(broker.clone(), "input"))
                .unwrap()
                .add_operator::<Bytes, _>(
                    "id",
                    apx::PassThrough,
                    apx::Link::Network(std::sync::Arc::new(apx::BytesCodec)),
                )
                .unwrap()
                .add_output(
                    "out",
                    apx::KafkaOutput::new(broker.clone(), &out),
                    apx::Link::Network(std::sync::Arc::new(apx::BytesCodec)),
                )
                .unwrap();
            apx::Stram::run(&dag, &mut rm, &apx::StramConfig::default()).unwrap();
        });
    });
    group.finish();
}

/// One record per produce request, three ways: `PartitionWriter::produce`
/// on the calling thread, `AsyncProducer::send` + `flush`, and
/// `AsyncProducer::commit` of a bundle of one (how a per-element Beam
/// bundle writes). All pay one modeled round trip per record; what the
/// second costs beyond the first is the wake-up of the parked sender
/// thread, which the third does not pay — with the RTT at the ledger's
/// 25 µs and at 0. A fourth case produces on a replicated cluster.
fn producer_per_record(c: &mut Criterion) {
    const RECORDS: u64 = 2_000;
    let mut group = c.benchmark_group("producer_per_record");
    group.throughput(Throughput::Elements(RECORDS));
    group
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_secs(1))
        .measurement_time(std::time::Duration::from_secs(2));
    let record = logbus::Record::from_value("payload-0123456789abcdef");
    for rtt_micros in [25, 0] {
        let broker = logbus::Broker::new();
        let config = logbus::TopicConfig::default();
        broker.create_topic("t", config.clone()).unwrap();
        broker.set_request_latency_micros(rtt_micros);
        let renew = || {
            broker.delete_topic("t").unwrap();
            broker.create_topic("t", config.clone()).unwrap();
        };
        let mut writer = broker.partition_writer("t", 0).unwrap();
        group.bench_function(format!("produce_sync1/rtt{rtt_micros}"), |b| {
            b.iter(|| {
                if renew_when_full(&broker, &renew) {
                    writer = broker.partition_writer("t", 0).unwrap();
                }
                for _ in 0..RECORDS {
                    writer.produce(record.clone()).unwrap();
                }
            });
        });
        let mut producer = logbus::AsyncProducer::new(broker.clone(), "t", 0);
        group.bench_function(
            format!("async_send_flush_per_record/rtt{rtt_micros}"),
            |b| {
                b.iter(|| {
                    if renew_when_full(&broker, &renew) {
                        producer = logbus::AsyncProducer::new(broker.clone(), "t", 0);
                    }
                    for _ in 0..RECORDS {
                        producer.send(record.clone());
                        producer.flush();
                    }
                });
            },
        );
        let mut bundle = Vec::new();
        group.bench_function(format!("commit_per_record/rtt{rtt_micros}"), |b| {
            b.iter(|| {
                if renew_when_full(&broker, &renew) {
                    producer = logbus::AsyncProducer::new(broker.clone(), "t", 0);
                }
                for _ in 0..RECORDS {
                    bundle.push(record.clone());
                    producer.commit(&mut bundle);
                }
            });
        });
    }
    // The same request on an RF-3 cluster under `Acks::All` (what
    // `repl_identity` writes): the leader's round trip plus one
    // replication round, whose followers fetch concurrently.
    let cluster = logbus::Cluster::new(logbus::ClusterConfig { brokers: 3 });
    let config = logbus::TopicConfig::default().replication_factor(3);
    cluster.create_topic("t", config.clone()).unwrap();
    for broker in 0..3 {
        cluster.broker(broker).set_request_latency_micros(25);
    }
    let renew = || {
        for broker in 0..3 {
            cluster.broker(broker).delete_topic("t").unwrap();
        }
        cluster.create_topic("t", config.clone()).unwrap();
    };
    let mut writer = cluster.partition_writer("t", 0).unwrap();
    group.bench_function("cluster_produce_sync1/rtt25", |b| {
        b.iter(|| {
            if renew_when_full(&cluster, &renew) {
                writer = cluster.partition_writer("t", 0).unwrap();
            }
            for _ in 0..RECORDS {
                writer.produce(record.clone()).unwrap();
            }
        });
    });
    group.finish();
}

/// Runs `renew` — delete topic `t` and create it anew — once `t` holds
/// 1 M records, and says whether it did, so the caller resolves its
/// handles again. A log keeps every record: this is what bounds the
/// memory of a long per-record measurement.
fn renew_when_full(bus: &dyn logbus::Bus, renew: &dyn Fn()) -> bool {
    let reader = bus.partition_reader("t", 0).unwrap();
    let full = reader.latest_offset().unwrap() >= 1_000_000;
    if full {
        renew();
    }
    full
}

/// The driver's own cost, which every trial pays before it measures
/// anything: generating the stream — the arena fast path, the typed
/// specification it is tested against (the ratio of the two is what the
/// fast path saves) and the stamped open-loop form — and a whole preload
/// into a broker that charges no round trip.
fn data_sender(c: &mut Criterion) {
    const RECORDS: u64 = 100_000;
    let mut group = c.benchmark_group("data_sender");
    group.throughput(Throughput::Elements(RECORDS));
    group
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_secs(1))
        .measurement_time(std::time::Duration::from_secs(2));
    let mut generator = streambench_core::QueryLogGenerator::new(2019);
    group.bench_function("next_payload", |b| {
        b.iter(|| {
            for _ in 0..RECORDS {
                black_box(generator.next_payload());
            }
        });
    });
    group.bench_function("next_record_to_tsv", |b| {
        b.iter(|| {
            for _ in 0..RECORDS {
                black_box(Bytes::from(generator.next_record().to_tsv()));
            }
        });
    });
    group.bench_function("next_stamped_payload", |b| {
        b.iter(|| {
            for i in 0..RECORDS as i64 {
                black_box(generator.next_stamped_payload(1_700_000_000_000_000 + i));
            }
        });
    });
    group.bench_function("send_workload_100k_rtt0", |b| {
        b.iter(|| {
            let broker = logbus::Broker::new();
            broker
                .create_topic("t", logbus::TopicConfig::default())
                .unwrap();
            let config = streambench_core::SenderConfig {
                records: RECORDS,
                ..Default::default()
            };
            streambench_core::send_workload(&broker, "t", &config).unwrap();
        });
    });
    group.finish();
}

/// One arena view against the `memcpy` it models (DESIGN.md §12): a
/// 150-byte value packed into a view of a 64 KiB chunk the way
/// `bytes::arena::copy` packs each decoded value — 1 024 views to a
/// batch, then the batch cleared, so every view is made and dropped —
/// against the same bytes appended to a reused `Vec`. The ratio of the
/// two is the cost of a view over its copy. The third case is the owned
/// copy per value that native `apx`'s decode made before it used the
/// arena: a `malloc` for the payload and one for its shared header, and
/// their two frees.
fn byte_view(c: &mut Criterion) {
    const BATCH: usize = 1024;
    const CHUNK: usize = 64 << 10;
    let value: Vec<u8> = (0..150u8).collect();
    let mut group = c.benchmark_group("byte_view");
    group.throughput(Throughput::Elements(BATCH as u64));
    group
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_secs(1))
        .measurement_time(std::time::Duration::from_secs(2));
    group.bench_function("pack_view_drop_150b", |b| {
        let mut arena = BytesMut::with_capacity(CHUNK);
        let mut batch: Vec<Bytes> = Vec::with_capacity(BATCH);
        b.iter(|| {
            for _ in 0..BATCH {
                let value = black_box(&value[..]);
                if arena.capacity() < value.len() {
                    arena = BytesMut::with_capacity(CHUNK);
                }
                batch.push(arena.pack_view(value));
            }
            batch.clear();
        });
    });
    group.bench_function("copy_from_slice_drop_150b", |b| {
        let mut batch: Vec<Bytes> = Vec::with_capacity(BATCH);
        b.iter(|| {
            for _ in 0..BATCH {
                batch.push(Bytes::copy_from_slice(black_box(&value[..])));
            }
            batch.clear();
        });
    });
    group.bench_function("memcpy_150b", |b| {
        let mut out: Vec<u8> = Vec::with_capacity(BATCH * value.len());
        b.iter(|| {
            for _ in 0..BATCH {
                out.extend_from_slice(black_box(&value[..]));
            }
            black_box(&out);
            out.clear();
        });
    });
    group.finish();
}

fn bench(c: &mut Criterion) {
    byte_view(c);
    data_sender(c);
    broker_produce_fetch(c);
    broker_hot_path(c);
    producer_per_record(c);
    broker_fresh_topic_append(c);
    topic_churn(c);
    engines_identity(c);
}

criterion_group!(benches, bench);
criterion_main!(benches);
