//! Ablations of the design choices DESIGN.md calls out: what operator
//! chaining is worth, what the coder-mediated data plane costs, and how
//! write-bundle size drives the per-record-produce pathology.

mod common;

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, Criterion};
use std::sync::atomic::{AtomicU64, Ordering};
use streambench_bench::loaded_broker;
use streambench_core::Query;

static TAG: AtomicU64 = AtomicU64::new(0);

fn fresh_topic(broker: &logbus::Broker, prefix: &str) -> String {
    let topic = format!("{prefix}-{}", TAG.fetch_add(1, Ordering::Relaxed));
    broker
        .create_topic(&topic, logbus::TopicConfig::default())
        .unwrap();
    topic
}

/// Operator chaining on vs. off for a three-operator native rill job:
/// fusion versus one channel hop per operator boundary.
fn chaining(c: &mut Criterion) {
    let broker = loaded_broker(common::RECORDS, 0);
    let mut group = c.benchmark_group("ablation_chaining");
    common::configure(&mut group);
    for (label, chained) in [("chained", true), ("unchained", false)] {
        group.bench_function(label, |b| {
            b.iter(|| {
                let out = fresh_topic(&broker, "chain");
                let env = rill::StreamExecutionEnvironment::local();
                if !chained {
                    env.disable_operator_chaining();
                }
                env.add_source(rill::BrokerSource::new(broker.clone(), "input"))
                    .map(|v: Bytes| v)
                    .filter(|v: &Bytes| !v.is_empty())
                    .map(|v: Bytes| v)
                    .add_sink(rill::BrokerSink::new(broker.clone(), &out));
                env.execute("ablation").unwrap();
            });
        });
    }
    group.finish();
}

/// The coder round trip that every abstraction-layer stage pays,
/// measured in isolation as a stage adapter runs it: encode a workload
/// record into a reused scratch buffer, decode it into the arena.
fn coder_roundtrip(c: &mut Criterion) {
    use beamline::Coder;
    let mut generator = streambench_core::QueryLogGenerator::new(7);
    let records: Vec<Bytes> = (0..1_000).map(|_| generator.next_payload()).collect();
    let coder = beamline::BytesCoder;
    c.bench_function("ablation_coder_roundtrip_1k_records", |b| {
        let mut scratch = Vec::new();
        b.iter(|| {
            let mut total = 0usize;
            for record in &records {
                coder.encode_into(record, &mut scratch);
                let decoded = coder.decode_all(&scratch).unwrap();
                total += decoded.len();
            }
            total
        });
    });
}

/// Write-bundle size: the same pipeline with per-record flushing versus
/// batched flushing — the mechanical core of the Apex-runner pathology.
fn write_bundle_size(c: &mut Criterion) {
    use beamline::PipelineRunner;
    let broker = loaded_broker(common::RECORDS, common::LATENCY_MICROS);
    let mut group = c.benchmark_group("ablation_write_bundle");
    common::configure(&mut group);
    for (label, flush_records) in [("flush_per_record", 1), ("flush_500", 500)] {
        group.bench_function(label, |b| {
            b.iter(|| {
                let out = fresh_topic(&broker, "bundle");
                let pipeline = beamline::Pipeline::new();
                pipeline
                    .apply(beamline::BrokerIO::read(broker.clone(), "input"))
                    .apply(beamline::WithoutMetadata::new())
                    .apply(beamline::Values::create(std::sync::Arc::new(
                        beamline::BytesCoder,
                    )))
                    .apply(
                        beamline::BrokerIO::write(broker.clone(), &out)
                            .flush_records(flush_records),
                    );
                beamline::runners::DirectRunner::new()
                    .run(&pipeline)
                    .unwrap();
            });
        });
    }
    group.finish();
}

/// Stage-count scaling: pipelines with 1..6 identity ParDos quantify the
/// per-stage cost of the erased data plane (the Fig. 12 vs Fig. 13 gap).
fn stage_count(c: &mut Criterion) {
    use beamline::PipelineRunner;
    let broker = loaded_broker(common::RECORDS, 0);
    let mut group = c.benchmark_group("ablation_stage_count");
    common::configure(&mut group);
    for stages in [1usize, 3, 6] {
        group.bench_function(format!("{stages}_pardos"), |b| {
            b.iter(|| {
                let out = fresh_topic(&broker, "stages");
                let pipeline = beamline::Pipeline::new();
                let mut pc = pipeline
                    .apply(beamline::BrokerIO::read(broker.clone(), "input"))
                    .apply(beamline::WithoutMetadata::new())
                    .apply(beamline::Values::create(std::sync::Arc::new(
                        beamline::BytesCoder,
                    )));
                for i in 0..stages {
                    pc = pc.apply(beamline::MapElements::into_bytes(
                        format!("Id{i}"),
                        |v: Bytes| v,
                    ));
                }
                pc.apply(beamline::BrokerIO::write(broker.clone(), &out));
                beamline::runners::RillRunner::new().run(&pipeline).unwrap();
            });
        });
    }
    group.finish();
}

fn bench(c: &mut Criterion) {
    let _ = Query::ALL; // keep the core crate linked for the helpers
    chaining(c);
    coder_roundtrip(c);
    write_bundle_size(c);
    stage_count(c);
}

criterion_group!(benches, bench);
criterion_main!(benches);
