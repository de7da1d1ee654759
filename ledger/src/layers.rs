//! Isolation loops: each times one layer alone, through its public
//! interface, over the workload's own payloads. They predict which
//! end-to-end metric a change to that layer should move (README,
//! "How the metrics interact"); none is gated.

use crate::cells::{BusKind, Fleet};
use crate::report::Metrics;
use crate::trial::{rtt_micros, span};
use crate::workloads::Workload;
use beamline::runners::DirectRunner;
use beamline::{BytesCoder, Coder, PipelineRunner};
use bytes::Bytes;
use logbus::{AsyncProducer, Bus, Record, StoredRecord};
use std::hint::black_box;
use std::time::Instant;
use streambench_core::{queries, QueryLogGenerator};

/// Payloads every loop runs over.
const LOOP_RECORDS: usize = 100_000;
/// One-record produces pay a full round trip each; fewer suffice.
const SYNC_RECORDS: usize = 2_000;
/// Records pushed through the seven-stage pipeline on `DirectRunner`.
const DIRECT_RECORDS: usize = 20_000;
/// Repetitions of the resource-manager allocation.
const ALLOCATIONS: usize = 200;

/// Runs `body` under a `layer.<name>` span and returns its wall time in
/// nanoseconds per `per` units of work.
fn timed<E: std::fmt::Display>(
    name: &str,
    per: usize,
    body: impl FnOnce() -> Result<(), E>,
) -> Result<f64, String> {
    let _s = span(&format!("layer.{name}"), &[]);
    let started = Instant::now();
    body().map_err(|e| format!("layer loop {name}: {e}"))?;
    Ok(started.elapsed().as_nanos() as f64 / per as f64)
}

fn batches_of(payloads: &[Bytes], size: usize) -> Vec<Vec<Record>> {
    payloads
        .chunks(size)
        .map(|chunk| chunk.iter().cloned().map(Record::from_value).collect())
        .collect()
}

/// Appends `payloads` in 512-record batches through a cached
/// `PartitionWriter`, then reads them back 1 024 at a time through a
/// cached `PartitionReader`. Returns (produce, fetch) ns per record.
fn produce_then_fetch(name: &str, fleet: &Fleet, payloads: &[Bytes]) -> Result<(f64, f64), String> {
    let text = |e: logbus::Error| format!("layer loop {name}: {e}");
    fleet.create_topic(name).map_err(text)?;
    let bus = fleet.handle();
    let writer = bus.partition_writer(name, 0).map_err(text)?;
    let reader = bus.partition_reader(name, 0).map_err(text)?;
    let mut batches = batches_of(payloads, 512);
    let produce = timed(&format!("{name}.produce"), payloads.len(), || {
        batches
            .iter_mut()
            .try_for_each(|batch| writer.produce_batch_drain(batch).map(drop))
    })?;
    let mut buffer: Vec<StoredRecord> = Vec::with_capacity(1_024);
    let fetch = timed(&format!("{name}.fetch"), payloads.len(), || {
        let mut offset = 0u64;
        while (offset as usize) < payloads.len() {
            buffer.clear();
            match reader.fetch_into(offset, 1_024, &mut buffer)? {
                0 => break,
                n => offset += n as u64,
            }
            black_box(&buffer);
        }
        Ok::<(), logbus::Error>(())
    })?;
    Ok((produce, fetch))
}

/// Times every layer alone and records the results in `metrics`.
pub fn isolation_loops(
    workload: &Workload,
    seed: u64,
    metrics: &mut Metrics,
) -> Result<(), String> {
    type Never = std::convert::Infallible;
    let mut generator = QueryLogGenerator::new(seed);
    let mut payloads: Vec<Bytes> = Vec::with_capacity(LOOP_RECORDS);
    let gen = timed("core.data.gen", LOOP_RECORDS, || {
        payloads.extend((0..LOOP_RECORDS).map(|_| generator.next_payload()));
        Ok::<(), Never>(())
    })?;
    metrics.put("core.data.gen_ns_per_rec", gen, "ns");

    let query = workload.query;
    let apply = timed("core.query.apply", LOOP_RECORDS, || {
        for payload in &payloads {
            black_box(query.apply(black_box(payload)));
        }
        Ok::<(), Never>(())
    })?;
    metrics.put("core.query.apply_ns_per_rec", apply, "ns");

    let broker = Fleet::new(BusKind::Broker, rtt_micros());
    let (produce, fetch) = produce_then_fetch("logbus.broker", &broker, &payloads)?;
    metrics.put("logbus.produce_batch512_ns_per_rec", produce, "ns");
    metrics.put("logbus.fetch1024_ns_per_rec", fetch, "ns");
    let rtt0 = Fleet::new(BusKind::Broker, 0);
    let (produce, _) = produce_then_fetch("logbus.broker_rtt0", &rtt0, &payloads)?;
    metrics.put("logbus.produce_batch512_rtt0_ns_per_rec", produce, "ns");
    let cluster = Fleet::new(BusKind::Cluster, rtt_micros());
    let (produce, fetch) = produce_then_fetch("logbus.cluster", &cluster, &payloads)?;
    metrics.put("logbus.cluster_produce_batch512_ns_per_rec", produce, "ns");
    metrics.put("logbus.cluster_fetch1024_ns_per_rec", fetch, "ns");

    let text = |e: logbus::Error| format!("layer loop: {e}");
    let bus = broker.handle();
    broker.create_topic("sync1").map_err(text)?;
    let writer = bus.partition_writer("sync1", 0).map_err(text)?;
    let sync1 = timed("logbus.produce_sync1", SYNC_RECORDS, || {
        payloads[..SYNC_RECORDS]
            .iter()
            .try_for_each(|p| writer.produce(Record::from_value(p.clone())).map(drop))
    })?;
    metrics.put("logbus.produce_sync1_ns_per_rec", sync1, "ns");

    broker.create_topic("async").map_err(text)?;
    let mut batches = batches_of(&payloads, 512);
    let asynchronous = timed("logbus.async_producer", LOOP_RECORDS, || {
        let mut producer = AsyncProducer::new(bus.clone(), "async", 0);
        for batch in &mut batches {
            producer.send_batch(batch);
        }
        producer.flush();
        producer.close();
        match bus.latest_offset("async", 0).map_err(text)? {
            n if n == LOOP_RECORDS as u64 => Ok(()),
            n => Err(format!("appended {n} of {LOOP_RECORDS}")),
        }
    })?;
    metrics.put("logbus.async_producer_ns_per_rec", asynchronous, "ns");

    let coder = BytesCoder;
    let mut scratch = Vec::new();
    let roundtrip = timed("beamline.coder_roundtrip", LOOP_RECORDS, || {
        payloads.iter().try_for_each(|payload| {
            coder.encode_into(payload, &mut scratch);
            coder
                .decode_all(&scratch)
                .map(|decoded| drop(black_box(decoded)))
        })
    })?;
    metrics.put("beamline.coder_roundtrip_ns_per_rec", roundtrip, "ns");

    broker.create_topic("direct-in").map_err(text)?;
    broker.create_topic("direct-out").map_err(text)?;
    let input: Vec<Record> = payloads[..DIRECT_RECORDS]
        .iter()
        .cloned()
        .map(Record::from_value)
        .collect();
    bus.produce_batch("direct-in", 0, input).map_err(text)?;
    let pipeline = queries::beam_pipeline(&bus, query, "direct-in", "direct-out");
    let stages = pipeline.stage_count() as f64;
    metrics.put("beamline.stage_count", stages, "count");
    let direct = timed("beamline.direct", DIRECT_RECORDS, || {
        DirectRunner::new().run(&pipeline).map(drop)
    })?;
    metrics.put("beamline.direct_ns_per_rec", direct, "ns");

    let config = apx::StramConfig::default();
    let requests = [yarnsim::ResourceRequest::new(config.container_resource); 3];
    let allocate = timed("yarnsim.allocate", ALLOCATIONS, || {
        (0..ALLOCATIONS).try_for_each(|_| {
            let mut rm = streambench_core::fresh_yarn_cluster();
            let app = rm.submit_application("ledger", config.master_resource)?;
            rm.allocate(app, &requests)
                .map(|granted| drop(black_box(granted)))
        })
    })?;
    metrics.put("yarnsim.allocate_us", allocate / 1e3, "us");
    Ok(())
}
